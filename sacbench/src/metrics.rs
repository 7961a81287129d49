//! Every metric the benchmark reports: name, unit and which direction is
//! better.  `BENCHMARK.json` lists [`END_TO_END`] and [`PER_LAYER`]; a unit
//! test keeps the two in step.

use crate::results::{Better, Metric};

/// A metric's fixed description.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics every workload reports and `BENCHMARK.json` bounds
/// (measured with tracing off).
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", Lower),
    def("qps", "1/s", Higher),
    def("p50_us", "us", Lower),
    def("p90_us", "us", Lower),
    def("server_rss_mb", "MiB", Lower),
];

/// End-to-end metrics written to `results.json` only: a percentile that a
/// run of `BENCHMARK.json`'s `run_seconds` cannot back with enough samples,
/// the failure share (zero on a correct run), and the `ingest`-only
/// write-side numbers.
pub const REPORTED: &[Def] = &[
    def("p99_us", "us", Lower),
    def("error_frac", "frac", Lower),
    def("commits_per_s", "1/s", Higher),
    def("commit_p50_us", "us", Lower),
    def("commit_p90_us", "us", Lower),
    def("recovery_s", "s", Lower),
];

/// Per-layer metrics of the traced run.  Timings are the median per call;
/// counts and sizes are the mean per call.
pub const PER_LAYER: &[Def] = &[
    def("http.self_us", "us", Lower),
    def("proto.decode_us", "us", Lower),
    def("proto.encode_us", "us", Lower),
    def("proto.reply_bytes", "bytes", Lower),
    def("service.handle_us", "us", Lower),
    def("engine.execute_us", "us", Lower),
    def("engine.plan_us", "us", Lower),
    def("engine.core_lookup_us", "us", Lower),
    def("engine.self_us", "us", Lower),
    def("engine.children_cover_frac", "frac", Higher),
    def("engine.found_frac", "frac", Higher),
    def("core.context_us", "us", Lower),
    def("core.search_us", "us", Lower),
    def("core.self_us", "us", Lower),
    def("core.community_size", "count", Lower),
    def("graph.sweeps", "count", Lower),
    def("graph.probes", "count", Lower),
    def("graph.candidates", "count", Lower),
    def("graph.reseeds", "count", Lower),
    def("graph.candidate_view_us", "us", Lower),
    def("graph.candidate_view_len", "count", Lower),
    def("graph.candidate_view_share", "frac", Lower),
    def("geom.mcc_us", "us", Lower),
    def("live.mutate_us", "us", Lower),
    def("live.cores_changed", "count", Lower),
    def("live.commit_us", "us", Lower),
    def("live.snapshot_build_us", "us", Lower),
    def("engine.publish_rebuild_us", "us", Lower),
    def("engine.publish_swap_us", "us", Lower),
    def("wal.append_us", "us", Lower),
    def("wal.checkpoint_us", "us", Lower),
    def("wal.snapshot_bytes", "bytes", Lower),
    def("wal.bytes_written_per_mutation", "bytes", Lower),
    def("engine.components_invalidated", "count", Lower),
    def("engine.kcore_index_rebuild_us", "us", Lower),
    def("wal.recover_us", "us", Lower),
    def("wal.records_replayed", "count", Lower),
    def("trace.overhead_frac", "frac", Lower),
];

/// The metric `name` with `value` resting on `samples` samples.
///
/// Panics on a name no list declares: that is a typo in this program.
pub fn metric(name: &str, value: f64, samples: usize) -> Metric {
    let def = END_TO_END
        .iter()
        .chain(REPORTED)
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("undeclared metric {name}"));
    Metric::new(def.name, value, def.unit, def.better, samples)
}

/// Names of `defs`, in order.
pub fn names(defs: &[Def]) -> Vec<&'static str> {
    defs.iter().map(|d| d.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_proto::json::Json;

    fn listed(bench: &Json, key: &str) -> Vec<(String, String, String)> {
        bench
            .get(key)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (text("name"), text("unit"), text("better"))
            })
            .collect()
    }

    fn declared(defs: &[Def]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.as_str().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_declared_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bench = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(listed(&bench, "end_to_end"), declared(END_TO_END));
        assert_eq!(listed(&bench, "per_layer"), declared(PER_LAYER));
        let workloads: Vec<&str> = bench
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let expected: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, expected);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut all = names(END_TO_END);
        all.extend(names(REPORTED));
        all.extend(names(PER_LAYER));
        let count = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), count);
    }
}
