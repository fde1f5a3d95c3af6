//! Metric definitions, the printed tables and the result line.

use std::fmt::Write as _;

use crate::stats::{percentile, tail_percentile, Samples};
use crate::RunReport;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How `value` was taken from the samples ("median", "p99", "count"…).
    pub stat: &'static str,
    /// Samples behind `value` (1 for counters and derived values).
    pub n: usize,
    /// The highest percentile with at least ten samples beyond it.
    pub tail: Option<(f64, f64)>,
}

/// How a metric is computed from a run's samples.
enum Def {
    Median(&'static str),
    Percentile(&'static str, f64),
    Mean(&'static str),
    Counter(&'static str),
    Derived(fn(&Samples) -> Option<f64>),
}

const END_TO_END: &[(&str, &str, Def)] = &[
    ("setup_s", "s", Def::Median("setup_s")),
    ("import_ms", "ms", Def::Median("import_ms")),
    ("plan_pre_ms", "ms", Def::Median("plan_pre_ms")),
    ("plan_online_s", "s", Def::Median("plan_online_s")),
    // The exact and first approximate commits: the median over the run's
    // cities of each city's median, since their cost depends on the network
    // far more than on the route, and a full city makes several of them
    // where a commit city makes one.
    ("commit_exact_ms", "ms", Def::Median("commit_exact.city_ms")),
    ("commit_approx_ms", "ms", Def::Median("commit_approx_ms")),
    ("commit_approx_first_ms", "ms", Def::Median("commit_approx_first.city_ms")),
    // Each city's open loop is its own service: the median over the run's
    // loops of each loop's p50 / p99, so that one host stall during one
    // loop does not set the run's tail.
    ("serve_p50_ms", "ms", Def::Median("serve.loop_p50_ms")),
    ("serve_p99_ms", "ms", Def::Median("serve.loop_p99_ms")),
    ("serve_goodput_rps", "1/s", Def::Derived(goodput)),
    ("serve_commit_p50_ms", "ms", Def::Median("serve.commit_ms")),
];

const PER_LAYER: &[(&str, &str, Def)] = &[
    ("ingest.import_ms", "ms", Def::Median("import_ms")),
    ("ingest.dijkstra_runs", "count", Def::Counter("ingest.dijkstra_runs")),
    ("ingest.cache_hits", "count", Def::Counter("ingest.cache_hits")),
    ("demand.build_ms", "ms", Def::Median("demand.build_ms")),
    ("candidates.build_ms", "ms", Def::Median("candidates.build_ms")),
    ("candidates.pool", "count", Def::Counter("candidates.pool")),
    ("candidates.new", "count", Def::Counter("candidates.new")),
    ("trace.base_ms", "ms", Def::Median("trace.base_ms")),
    ("sweep.ms", "ms", Def::Median("sweep.ms")),
    ("sweep.swept", "count", Def::Counter("sweep.swept")),
    ("sweep.us_per_candidate", "us", Def::Median("sweep.us_per_candidate")),
    ("sweep.matvec_ms", "ms", Def::Derived(sweep_matvec)),
    ("sweep.quadrature_ms", "ms", Def::Derived(sweep_quadrature)),
    ("sweep.recurrence_ms", "ms", Def::Derived(sweep_recurrence)),
    ("sweep.flops_computed", "flop", Def::Counter("sweep.flops_computed")),
    ("sweep.bytes_computed", "B", Def::Counter("sweep.bytes_computed")),
    ("sweep.speedup_nproc", "x", Def::Median("sweep.speedup_nproc")),
    ("spectrum.cold_ms", "ms", Def::Median("spectrum.cold_ms")),
    ("spectrum.warm_ms", "ms", Def::Median("spectrum.warm_ms")),
    ("spectrum.warm_empty_ms", "ms", Def::Median("spectrum.warm_empty_ms")),
    ("precompute.residual_ms", "ms", Def::Median("precompute.residual_ms")),
    ("plan.pre_ms", "ms", Def::Median("plan.pre_ms")),
    ("plan.iterations", "count", Def::Counter("plan.iterations")),
    ("plan.evaluations", "count", Def::Counter("plan.evaluations")),
    ("plan.online_ms", "ms", Def::Median("plan.online_ms")),
    ("plan.online_evaluations", "count", Def::Counter("plan.online_evaluations")),
    ("commit.ms", "ms", Def::Median("commit.ms")),
    ("commit.refresh_ms", "ms", Def::Median("commit.refresh_ms")),
    ("commit.rest_ms", "ms", Def::Median("commit.rest_ms")),
    ("commit.swept", "count", Def::Counter("commit.swept")),
    ("commit.refreshed", "count", Def::Counter("commit.refreshed")),
    ("commit.covered_road_edges", "count", Def::Counter("commit.covered_road_edges")),
    ("serve.latency_ms", "ms", Def::Median("serve.latency_ms")),
    ("serve.checkout_us", "us", Def::Mean("serve.checkout_us")),
    ("serve.branch_us", "us", Def::Mean("serve.branch_us")),
    ("serve.commit_call_ms", "ms", Def::Median("serve.commit_call_ms")),
    ("serve.late_ms", "ms", Def::Percentile("serve.late_ms", 99.0)),
    ("serve.wait_p99_ms", "ms", Def::Percentile("serve.start_delay_ms", 99.0)),
    ("serve.commits_applied", "count", Def::Counter("serve.commits_applied")),
    ("serve.commits_stale", "count", Def::Counter("serve.commits_stale")),
    ("serve.commits_failed", "count", Def::Counter("serve.commits_failed")),
    ("serve.commits_shed", "count", Def::Counter("serve.commits_shed")),
    ("drift.conn_outliers", "count", Def::Counter("drift.conn_outliers")),
    ("drift.conn_ratio", "ratio", Def::Median("drift.conn_ratio")),
    ("drift.mean_overlap", "ratio", Def::Median("drift.mean_overlap")),
    ("trace.overhead_pct", "%", Def::Derived(trace_overhead_pct)),
];

/// Counters whose value depends on thread scheduling or timing, not only
/// on the inputs: they are reported but not expected to repeat.
pub const SCHEDULING_DEPENDENT: &[&str] = &[
    "serve.commits_applied",
    "serve.commits_stale",
    "serve.commits_failed",
    "serve.commits_shed",
    "serve.within_limit",
];

fn goodput(s: &Samples) -> Option<f64> {
    let window = s.sum("serve.window_s");
    (window > 0.0).then(|| s.counter("serve.within_limit") as f64 / window)
}

fn sweep_part(s: &Samples, share: &str) -> Option<f64> {
    Some(s.median("sweep.ms")? * s.mean(share)?)
}

fn sweep_matvec(s: &Samples) -> Option<f64> {
    sweep_part(s, "kernel.matvec_share")
}

fn sweep_quadrature(s: &Samples) -> Option<f64> {
    sweep_part(s, "kernel.quadrature_share")
}

fn sweep_recurrence(s: &Samples) -> Option<f64> {
    Some(s.median("sweep.ms")? - sweep_matvec(s)? - sweep_quadrature(s)?)
}

fn trace_overhead_pct(s: &Samples) -> Option<f64> {
    let per_span = s.median("trace.overhead_ns_per_span")? * 1e-9;
    Some(100.0 * per_span * s.median("trace.spans")? / s.median("run.wall_s")?)
}

fn evaluate(defs: &[(&'static str, &'static str, Def)], s: &Samples) -> Vec<Metric> {
    defs.iter()
        .filter_map(|(name, unit, def)| {
            let (value, stat, n, values) = match def {
                Def::Median(k) => (s.median(k)?, "median", s.get(k).len(), s.get(k)),
                Def::Percentile(k, p) => (
                    percentile(s.get(k), *p)?,
                    if *p == 50.0 { "p50" } else { "p99" },
                    s.get(k).len(),
                    s.get(k),
                ),
                Def::Mean(k) => (s.mean(k)?, "mean", s.get(k).len(), s.get(k)),
                Def::Counter(k) => (s.counter(k) as f64, "count", 1, &[][..]),
                Def::Derived(f) => (f(s)?, "derived", 1, &[][..]),
            };
            let tail =
                tail_percentile(values.len()).and_then(|p| Some((p, percentile(values, p)?)));
            value.is_finite().then_some(Metric { name, unit, value, stat, n, tail })
        })
        .collect()
}

/// The end-to-end metrics of a run (the result line of `--trace 0`).
pub fn end_to_end(r: &RunReport) -> Vec<Metric> {
    evaluate(END_TO_END, &r.samples)
}

/// The per-layer metrics of a run (the result line of `--trace 1`).
pub fn per_layer(r: &RunReport) -> Vec<Metric> {
    evaluate(PER_LAYER, &r.samples)
}

/// Every per-layer metric name, for checking a result line is complete.
pub fn per_layer_names() -> impl Iterator<Item = &'static str> {
    PER_LAYER.iter().map(|(name, _, _)| *name)
}

/// Every end-to-end metric name.
pub fn end_to_end_names() -> impl Iterator<Item = &'static str> {
    END_TO_END.iter().map(|(name, _, _)| *name)
}

/// Failed operations over attempted ones.
pub fn failed_frac(r: &RunReport) -> f64 {
    r.failed as f64 / r.attempted.max(1) as f64
}

/// The metric table: name, unit, value, statistic, tail percentile and
/// sample count.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!("{title}\n");
    for m in metrics {
        let tail = m.tail.map_or(String::new(), |(p, v)| format!("  p{p}={v:.4}"));
        let _ = writeln!(
            out,
            "  {:<26} {:>14.4} {:<6} {:<7} n={}{tail}",
            m.name, m.value, m.unit, m.stat, m.n
        );
    }
    out
}

/// The traced run's attribution: each end-to-end metric split across the
/// named layers (means over the same samples, so parts and residue add up
/// to the mean), then each span's self time.
pub fn attribution(r: &RunReport) -> String {
    let s = &r.samples;
    let mean = |k: &str| s.mean(k).unwrap_or(0.0);
    let per_request = |k: &str, n: f64| s.sum(k) / n.max(1.0);
    let mut out = String::from("attribution (mean of each metric's samples; residue = rest)\n");
    let mut split = |metric: &str, unit: &str, total: f64, parts: &[(&str, f64)]| {
        let _ = write!(out, "  {metric} = {total:.3} {unit}:");
        let mut rest = total;
        for (name, v) in parts {
            rest -= v;
            let _ = write!(out, " {name} {v:.3} ({:.0}%)", 100.0 * v / total.max(1e-12));
        }
        let _ = writeln!(out, " | residue {rest:.3} ({:.0}%)", 100.0 * rest / total.max(1e-12));
    };
    split(
        "setup_s",
        "s",
        mean("setup_s"),
        &[
            ("ingest.import", mean("setup.import_ms") / 1e3),
            ("demand.build", mean("demand.build_ms") / 1e3),
            ("candidates.build", mean("candidates.build_ms") / 1e3),
            ("trace.base", mean("setup.trace_ms") / 1e3),
            ("sweep", mean("sweep.ms") / 1e3),
            ("spectrum.cold", mean("setup.spectrum_ms") / 1e3),
            ("precompute.residual", mean("precompute.residual_ms") / 1e3),
        ],
    );
    split("import_ms", "ms", mean("import_ms"), &[("ingest.import_dir", mean("import_ms"))]);
    split(
        "plan_pre_ms",
        "ms",
        mean("plan_pre_ms"),
        &[("serve.checkout", mean("plans.checkout_ms")), ("plan.pre", mean("plan.pre_ms"))],
    );
    split("plan_online_s", "s", mean("plan_online_s"), &[("plan.online", mean("plan_online_s"))]);
    for (metric, tier, spectrum) in [
        ("commit_exact_ms", "exact", "spectrum.cold"),
        ("commit_approx_first_ms", "approx_first", "spectrum.warm_empty"),
        ("commit_approx_ms", "approx", "spectrum.warm"),
    ] {
        let key = |part: &str| format!("split.{tier}.{part}");
        let trace = mean(&key("trace_ms"));
        split(
            metric,
            "ms",
            mean(metric),
            &[
                (
                    "refresh-minus-trace (promote, demand, Δ-sweep)",
                    mean(&key("refresh_ms")) - trace,
                ),
                ("trace.base", trace),
                (spectrum, mean(&key("spectrum_ms"))),
            ],
        );
    }
    let requests = s.get("serve.latency_ms").len() as f64;
    split(
        "serve latency (mean over all loops; serve_p50/p99 are per-loop quantiles)",
        "ms",
        mean("serve.latency_ms"),
        &[
            ("start delay (queue + generator lateness)", mean("serve.start_delay_ms")),
            ("serve.checkout", per_request("serve.checkout_us", requests) / 1e3),
            ("serve.branch", per_request("serve.branch_us", requests) / 1e3),
            ("plan.pre", per_request("serve.plan_ms", requests)),
            ("serve.commit_call", per_request("serve.commit_call_ms", requests)),
        ],
    );
    let commits = s.get("serve.commit_ms").len() as f64;
    split(
        "serve_commit_p50_ms (mean)",
        "ms",
        mean("serve.commit_ms"),
        &[("serve.commit_call", per_request("serve.commit_call_ms", commits))],
    );
    if let (Some(first), Some(empty)) =
        (s.mean("commit_approx_first_ms"), s.mean("spectrum.warm_empty_ms"))
    {
        let _ = writeln!(
            out,
            "  first approximate commit {first:.1} ms: spectrum.warm_empty {empty:.1} ms \
             ({:.0}%) — {}",
            100.0 * empty / first,
            if empty > 0.5 * first { "dominated by it" } else { "not dominated by it" }
        );
    }
    let _ = writeln!(
        out,
        "  tracing overhead: {:.0} ns per span × {} spans = {:.3}% of the run",
        s.median("trace.overhead_ns_per_span").unwrap_or(0.0),
        r.tracer.num_spans(),
        trace_overhead_pct(s).unwrap_or(0.0)
    );
    let _ = writeln!(out, "self time by span (s, spans):");
    for (name, (secs, count)) in r.tracer.self_times() {
        let _ = writeln!(out, "  {name:<28} {secs:>10.4} {count:>8}");
    }
    out
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and the metrics.
pub fn result_line(r: &RunReport, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted,
        r.failed,
        body.join(", ")
    )
}
