//! Command line of the CT-Bus end-to-end benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload replan --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints the metric table, then (traced runs) the per-layer attribution,
//! and as its last line one JSON object: `correct`, `attempted`, `failed`
//! and the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Scratch files go under `.bench_build/perfbench/` in the
//! working directory; a traced run leaves its spans there as JSON.

use std::path::PathBuf;
use std::process::ExitCode;

use ct_perfbench::workload::{Workload, LATENCY_LIMIT_MS, WORKLOADS};
use ct_perfbench::{report, run, RunConfig};

const USAGE: &str = "usage: ct_perfbench --workload <cold_start|replan> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse() -> Result<RunConfig, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 15.0, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("cannot parse {flag} `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let work_dir = PathBuf::from(".bench_build/perfbench").join(format!(
        "run-{}-{}",
        workload.name,
        std::process::id()
    ));
    Ok(RunConfig { workload, seed, seconds, trace, threads: 0, work_dir })
}

fn main() -> ExitCode {
    let cfg = match parse() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("ct_perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let r = run(&cfg);
    println!(
        "workload {} seed {} ({} threads; {} full and {} commit cities, {:.0} stops and \
         {:.0} adjacency entries per city) — {:.1} s wall",
        cfg.workload.name,
        cfg.seed,
        r.threads,
        cfg.workload.cities,
        cfg.workload.cities * cfg.workload.commit_cities,
        r.samples.mean("fixture.stops").unwrap_or(0.0),
        r.samples.mean("fixture.nnz").unwrap_or(0.0),
        r.wall_s
    );
    let e2e = report::end_to_end(&r);
    print!("{}", report::table("end-to-end", &e2e));
    println!(
        "  (serve_goodput_rps counts requests completed within {LATENCY_LIMIT_MS} ms of their \
         due time)"
    );
    println!(
        "  {:<26} {:>14.6}        failed {} of {} attempted",
        "failed_frac",
        report::failed_frac(&r),
        r.failed,
        r.attempted
    );
    for reason in &r.check_failures {
        println!("  CHECK FAILED: {reason}");
    }
    for v in &r.drift_outliers {
        println!("  drift bound exceeded (reported, not a failure): {v}");
    }
    let layers = report::per_layer(&r);
    print!("{}", report::table("per-layer", &layers));
    let counters: Vec<String> =
        r.samples.counters().iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("counters: {}", counters.join(" "));
    if cfg.trace {
        print!("{}", report::attribution(&r));
        let path = PathBuf::from(".bench_build/perfbench")
            .join(format!("trace-{}-seed{}.json", cfg.workload.name, cfg.seed));
        match r.tracer.write_json(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("ct_perfbench: writing {}: {e}", path.display()),
        }
    }
    println!("{}", report::result_line(&r, if cfg.trace { &layers } else { &e2e }));
    ExitCode::SUCCESS
}
