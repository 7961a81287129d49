//! The one result writer: `results.json` with an environment block, the
//! `workload metric value unit` lines, and the one-line JSON summary.

use sac_proto::json::{obj, Json};
use std::fmt;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    pub fn parse(text: &str) -> Option<Better> {
        match text {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub better: Better,
    /// Samples the value rests on (requests, calls, spawns, ...).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str, better: Better, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            better,
            samples,
        }
    }

    fn to_json(&self) -> Json {
        obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("value", Json::Num(self.value)),
            ("unit", Json::Str(self.unit.clone())),
            ("better", Json::Str(self.better.as_str().to_string())),
            ("samples", Json::Num(self.samples as f64)),
        ])
    }

    fn from_json(value: &Json) -> Result<Metric, String> {
        let field = |key: &str| value.get(key).ok_or(format!("metric lacks '{key}'"));
        let text = |key: &str| -> Result<String, String> {
            field(key)?
                .as_str()
                .map(str::to_string)
                .ok_or(format!("metric field '{key}' is not a string"))
        };
        Ok(Metric {
            name: text("name")?,
            value: field("value")?
                .as_f64()
                .ok_or("metric value is not a number")?,
            unit: text("unit")?,
            better: Better::parse(&text("better")?).ok_or("bad metric direction")?,
            samples: field("samples")?
                .as_u64()
                .ok_or("metric samples is not a count")? as usize,
        })
    }
}

/// Everything one workload reported.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub dataset: String,
    pub scale: f64,
    pub vertices: usize,
    pub edges: usize,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check (empty when every output was right).
    pub failures: Vec<String>,
    /// End-to-end metrics (tracing off).
    pub metrics: Vec<Metric>,
    /// Per-layer metrics of the traced run (empty with `--trace 0`).
    pub layers: Vec<Metric>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// A metric by name, from either table.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics
            .iter()
            .chain(&self.layers)
            .find(|m| m.name == name)
    }

    fn to_json(&self) -> Json {
        let metrics = |list: &[Metric]| Json::Arr(list.iter().map(Metric::to_json).collect());
        obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("dataset", Json::Str(self.dataset.clone())),
            ("scale", Json::Num(self.scale)),
            ("vertices", Json::Num(self.vertices as f64)),
            ("edges", Json::Num(self.edges as f64)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("correct", Json::Bool(self.correct())),
            (
                "failures",
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
            ("metrics", metrics(&self.metrics)),
            ("layers", metrics(&self.layers)),
        ])
    }

    fn from_json(value: &Json) -> Result<WorkloadResult, String> {
        let field = |key: &str| value.get(key).ok_or(format!("workload lacks '{key}'"));
        let text = |key: &str| -> Result<String, String> {
            Ok(field(key)?.as_str().ok_or("expected a string")?.to_string())
        };
        let count = |key: &str| -> Result<u64, String> {
            field(key)?
                .as_u64()
                .ok_or(format!("'{key}' is not a count"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            field(key)?
                .as_array()
                .ok_or(format!("'{key}' is not a list"))?
                .iter()
                .map(Metric::from_json)
                .collect()
        };
        Ok(WorkloadResult {
            name: text("name")?,
            dataset: text("dataset")?,
            scale: field("scale")?.as_f64().ok_or("scale is not a number")?,
            vertices: count("vertices")? as usize,
            edges: count("edges")? as usize,
            attempted: count("attempted")?,
            failed: count("failed")?,
            failures: field("failures")?
                .as_array()
                .ok_or("failures is not a list")?
                .iter()
                .map(|f| {
                    f.as_str()
                        .map(str::to_string)
                        .ok_or("failure is not a string")
                })
                .collect::<Result<_, _>>()?,
            metrics: metrics("metrics")?,
            layers: metrics("layers")?,
        })
    }
}

/// Where and how the numbers were taken.
#[derive(Debug, Clone, PartialEq)]
pub struct Env {
    pub cores: usize,
    pub git_rev: String,
    pub rustc: String,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub trace: bool,
}

impl Env {
    /// The environment of this process; `git` and `rustc` are asked, and
    /// read as `unknown` when absent (a source export is no git checkout).
    pub fn detect(seed: u64, seconds: f64, quick: bool, trace: bool) -> Env {
        let ask = |program: &str, args: &[&str]| {
            std::process::Command::new(program)
                .args(args)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|out| out.status.success())
                .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
                .unwrap_or_else(|| "unknown".to_string())
        };
        Env {
            cores: std::thread::available_parallelism().map_or(1, usize::from),
            git_rev: ask("git", &["rev-parse", "HEAD"]),
            rustc: ask("rustc", &["--version"]),
            seed,
            seconds,
            quick,
            trace,
        }
    }
}

/// The contents of `results.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Results {
    pub env: Env,
    pub workloads: Vec<WorkloadResult>,
}

impl Results {
    pub fn to_json(&self) -> Json {
        let env = &self.env;
        obj(vec![
            (
                "env",
                obj(vec![
                    ("cores", Json::Num(env.cores as f64)),
                    ("git_rev", Json::Str(env.git_rev.clone())),
                    ("rustc", Json::Str(env.rustc.clone())),
                    ("seed", Json::Num(env.seed as f64)),
                    ("seconds", Json::Num(env.seconds)),
                    ("quick", Json::Bool(env.quick)),
                    ("trace", Json::Bool(env.trace)),
                ]),
            ),
            (
                "workloads",
                Json::Arr(self.workloads.iter().map(WorkloadResult::to_json).collect()),
            ),
        ])
    }

    pub fn from_json(value: &Json) -> Result<Results, String> {
        let env = value.get("env").ok_or("results lack 'env'")?;
        let field = |key: &str| env.get(key).ok_or(format!("env lacks '{key}'"));
        let text = |key: &str| -> Result<String, String> {
            Ok(field(key)?.as_str().ok_or("expected a string")?.to_string())
        };
        let flag = |key: &str| -> Result<bool, String> {
            field(key)?
                .as_bool()
                .ok_or(format!("'{key}' is not a bool"))
        };
        Ok(Results {
            env: Env {
                cores: field("cores")?.as_u64().ok_or("cores is not a count")? as usize,
                git_rev: text("git_rev")?,
                rustc: text("rustc")?,
                seed: field("seed")?.as_u64().ok_or("seed is not a count")?,
                seconds: field("seconds")?
                    .as_f64()
                    .ok_or("seconds is not a number")?,
                quick: flag("quick")?,
                trace: flag("trace")?,
            },
            workloads: value
                .get("workloads")
                .and_then(Json::as_array)
                .ok_or("results lack 'workloads'")?
                .iter()
                .map(WorkloadResult::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    pub fn read(path: &std::path::Path) -> Result<Results, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Results::from_json(&json).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, format!("{}\n", self.to_json()))
    }

    pub fn correct(&self) -> bool {
        self.workloads.iter().all(WorkloadResult::correct)
    }

    /// The last line of a run: `correct`, `attempted`, `failed` and the
    /// `names` metrics (every workload's, prefixed `workload:` when the run
    /// covered more than one).
    pub fn summary_line(&self, names: &[&str]) -> Json {
        let prefix = self.workloads.len() > 1;
        let mut metrics = Vec::new();
        for w in &self.workloads {
            for &name in names {
                if let Some(m) = w.metric(name) {
                    let key = if prefix {
                        format!("{}:{name}", w.name)
                    } else {
                        name.to_string()
                    };
                    let value = obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.clone())),
                    ]);
                    metrics.push((key, value));
                }
            }
        }
        obj(vec![
            ("correct", Json::Bool(self.correct())),
            (
                "attempted",
                Json::Num(
                    self.workloads
                        .iter()
                        .map(|w| w.attempted)
                        .sum::<u64>()
                        .max(1) as f64,
                ),
            ),
            (
                "failed",
                Json::Num(self.workloads.iter().map(|w| w.failed).sum::<u64>() as f64),
            ),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// `workload metric value unit (n=samples)`, one line per metric.
impl fmt::Display for WorkloadResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for m in self.metrics.iter().chain(&self.layers) {
            writeln!(
                f,
                "{} {} {} {} (n={})",
                self.name, m.name, m.value, m.unit, m.samples
            )?;
        }
        for failure in &self.failures {
            writeln!(f, "{} FAILED {failure}", self.name)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Results {
        Results {
            env: Env {
                cores: 2,
                git_rev: "abc123".into(),
                rustc: "rustc 1.0".into(),
                seed: 7,
                seconds: 12.5,
                quick: false,
                trace: true,
            },
            workloads: vec![WorkloadResult {
                name: "theta".into(),
                dataset: "Brightkite".into(),
                scale: 0.2,
                vertices: 10281,
                edges: 41114,
                attempted: 500,
                failed: 1,
                failures: vec!["reply 3: radius \"differs\"".into()],
                metrics: vec![Metric::new("p50_us", 44012.5, "us", Better::Lower, 480)],
                layers: vec![Metric::new(
                    "engine.found_frac",
                    0.25,
                    "frac",
                    Better::Higher,
                    4,
                )],
            }],
        }
    }

    #[test]
    fn results_round_trip_through_json() {
        let results = sample();
        let text = results.to_json().to_string();
        let parsed = Results::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, results);
        assert!(!parsed.correct());
    }

    #[test]
    fn summary_line_has_exactly_the_summary_keys() {
        let mut results = sample();
        let line = results.summary_line(&["p50_us", "missing"]).to_string();
        assert_eq!(
            line,
            r#"{"correct":false,"attempted":500,"failed":1,"metrics":{"p50_us":{"value":44012.5,"unit":"us"}}}"#
        );
        results.workloads.push(results.workloads[0].clone());
        results.workloads[1].name = "ingest".into();
        let line = results.summary_line(&["p50_us"]).to_string();
        assert!(line.contains(r#""theta:p50_us""#) && line.contains(r#""ingest:p50_us""#));
        assert!(line.contains(r#""attempted":1000"#));
    }
}
