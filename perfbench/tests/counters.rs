//! The benchmark's deterministic counters repeat exactly: a `small`-preset
//! variant of each workload runs at 1 thread, at 2 threads, and at 2
//! threads traced, and every counter that does not depend on thread
//! scheduling must agree across the three runs. Each run must also pass
//! its output checks and report every metric.

use std::collections::BTreeMap;
use std::path::PathBuf;

use ct_perfbench::report::{self, SCHEDULING_DEPENDENT};
use ct_perfbench::workload::WORKLOADS;
use ct_perfbench::{run, RunConfig, RunReport};

fn run_small(name: &str, threads: usize, trace: bool) -> RunReport {
    let workload =
        WORKLOADS.iter().find(|w| w.name == name).expect("known workload").small_variant();
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("counters-{name}-t{threads}-{trace}"));
    let r = run(&RunConfig { workload, seed: 7, seconds: 1.0, trace, threads, work_dir });
    assert!(r.correct(), "{name} at {threads} threads: {:?}", r.check_failures);
    assert_eq!(r.failed, 0, "{name} at {threads} threads");
    r
}

fn deterministic(r: &RunReport) -> BTreeMap<&'static str, u64> {
    r.samples
        .counters()
        .iter()
        .filter(|(k, _)| !SCHEDULING_DEPENDENT.contains(k))
        .map(|(k, v)| (*k, *v))
        .collect()
}

fn counters_repeat(name: &str) {
    let one = run_small(name, 1, false);
    let two = run_small(name, 2, false);
    let traced = run_small(name, 2, true);
    let c = deterministic(&one);
    for key in ["plan.evaluations", "commit.swept", "candidates.new", "ingest.dijkstra_runs"] {
        assert!(c.get(key).copied().unwrap_or(0) > 0, "{name}: counter {key} never counted");
    }
    assert_eq!(c, deterministic(&two), "{name}: counters differ between 1 and 2 threads");
    assert_eq!(c, deterministic(&traced), "{name}: counters differ under tracing");

    let e2e: Vec<_> = report::end_to_end(&two).iter().map(|m| m.name).collect();
    assert_eq!(e2e, report::end_to_end_names().collect::<Vec<_>>(), "{name}: end-to-end metrics");
    let layers: Vec<_> = report::per_layer(&traced).iter().map(|m| m.name).collect();
    assert_eq!(layers, report::per_layer_names().collect::<Vec<_>>(), "{name}: per-layer metrics");
}

#[test]
fn cold_start_counters_repeat() {
    counters_repeat("cold_start");
}

#[test]
fn replan_counters_repeat() {
    counters_repeat("replan");
}
