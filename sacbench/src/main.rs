//! `sac-bench` — the end-to-end benchmark of the `sac-http` serving front
//! end, with a traced per-layer profile.  See `README.md`.
//!
//! ```text
//! sac-bench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!               [--out DIR] [--quick]
//! sac-bench compare A.json... -- B.json... [--bench BENCHMARK.json]
//! ```

mod compare;
mod drive;
mod metrics;
mod results;
mod run;
mod server;
mod stats;
mod trace;
mod traced;
mod workload;

use results::{Env, Results};
use run::RunConfig;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use workload::Workload;

const USAGE: &str = "usage:
  sac-bench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--quick]
  sac-bench compare A.json... -- B.json... [--bench BENCHMARK.json]";

/// Options of `run`.
struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: PathBuf,
    quick: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: None,
        trace: true,
        out: PathBuf::from(".bench_out"),
        quick: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workloads =
                    vec![Workload::parse(name).ok_or(format!("unknown workload '{name}'"))?];
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => {
                parsed.seconds = Some(
                    value()?
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or("--seconds must be a positive number")?,
                );
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => parsed.out = PathBuf::from(value()?),
            "--quick" => parsed.quick = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(parsed)
}

fn run(args: &[String]) -> Result<bool, String> {
    let args = parse_run(args)?;
    let server = server::sibling_binary("sac-http")?;
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let seconds = args.seconds.unwrap_or(if args.quick { 3.0 } else { 40.0 });
    let cfg = RunConfig {
        seed: args.seed,
        warmup: Duration::from_secs(if args.quick { 1 } else { 3 }),
        measure: Duration::from_secs_f64(seconds),
        trace: args.trace,
        quick: args.quick,
        setups: if args.quick { 1 } else { 15 },
        cadence: if args.quick { 8 } else { 64 },
        out: args.out.clone(),
        server,
    };
    let mut results = Results {
        env: Env::detect(args.seed, seconds, args.quick, args.trace),
        workloads: Vec::new(),
    };
    let mut spans = Vec::new();
    for &workload in &args.workloads {
        let (result, workload_spans) = run::run_workload(&cfg, workload)?;
        print!("{result}");
        results.workloads.push(result);
        spans.push((workload.name(), workload_spans));
    }
    let path = args.out.join("results.json");
    results
        .write(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    if args.trace {
        let list: Vec<(&str, &[trace::Span])> =
            spans.iter().map(|(n, s)| (*n, s.as_slice())).collect();
        let path = args.out.join("spans.json");
        std::fs::write(&path, format!("{}\n", trace::spans_json(&list)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    eprintln!("wrote {}", path.display());
    let names = metrics::names(if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    });
    println!("{}", results.summary_line(&names));
    Ok(results.correct())
}

fn compare(args: &[String]) -> Result<bool, String> {
    let mut bench = PathBuf::from("BENCHMARK.json");
    let (mut a, mut b, mut after_separator) = (Vec::new(), Vec::new(), false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--" => after_separator = true,
            "--bench" => bench = PathBuf::from(it.next().ok_or("--bench needs a value")?),
            path if after_separator => b.push(Results::read(path.as_ref())?),
            path => a.push(Results::read(path.as_ref())?),
        }
    }
    if a.is_empty() || b.is_empty() {
        return Err("compare needs result files on both sides of --".into());
    }
    let text = std::fs::read_to_string(&bench).map_err(|e| format!("{}: {e}", bench.display()))?;
    let bench = sac_proto::json::Json::parse(&text).map_err(|e| e.to_string())?;
    Ok(!compare::compare(&a, &b, &compare::bounds(&bench)))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("sac-bench: {message}");
            ExitCode::from(2)
        }
    }
}
