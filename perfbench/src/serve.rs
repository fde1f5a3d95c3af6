//! The open loop: a seeded Poisson arrival schedule at a fixed rate, split
//! over worker threads that each own an interleaved share of it and sleep
//! until each of their requests is due. Latency runs from the due time, so
//! a stall — such as a commit ticket ahead in the same worker's share —
//! also charges the requests queued behind it.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use ct_core::{CommitOutcome, CommitTicket, PlannerMode, RoutePlan, ServeState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{percentile, Samples};
use crate::trace::Tracer;
use crate::workload::{Workload, LATENCY_LIMIT_MS};

/// Of every `SAMPLE_EVERY` requests, the first two keep their plans for the
/// oracle replay when they are reads: one plain plan (even index) and one
/// branch + plan (odd index).
const SAMPLE_EVERY: usize = 8;
/// Re-plans before a commit ticket gives up on a stale base.
const MAX_COMMIT_ATTEMPTS: usize = 8;
/// Head start so every worker sees the first due time in the future.
const START_DELAY: Duration = Duration::from_millis(5);

/// What the open loop produced, beyond the samples it pushed.
#[derive(Default)]
pub struct ServeRun {
    /// Applied commits as `(generation, plan)`.
    pub applied: Vec<(u64, RoutePlan)>,
    /// Sampled read-only plans as `(generation planned on, plan)`.
    pub sampled: Vec<(u64, RoutePlan)>,
    pub requests: u64,
    /// Requests that ended failed, shed, invalid or gave up.
    pub failed: u64,
    pub invalid: Vec<String>,
}

/// Due offsets (seconds from the start) of a Poisson process at `rate`
/// over `secs`, from `seed`.
pub fn schedule(seed: u64, rate: f64, secs: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    let mut due = Vec::new();
    loop {
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if t >= secs {
            return due;
        }
        due.push(t);
    }
}

#[derive(Default)]
struct WorkerOut {
    samples: Samples,
    run: ServeRun,
}

/// Serves `due` against `state` with `workers` threads; pushes the serve
/// samples into `out`, with this loop's p50 and p99 latency as one sample
/// each of `serve.loop_p50_ms` and `serve.loop_p99_ms`.
pub fn run(
    state: &ServeState,
    due: &[f64],
    workers: usize,
    workload: &Workload,
    tracer: &Tracer,
    out: &mut Samples,
) -> ServeRun {
    let every = (due.len() / workload.serve_commits.max(1)).max(2);
    let start = Instant::now() + START_DELAY;
    let finished = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for w in 0..workers {
            let finished = &finished;
            scope.spawn(move || {
                let mut mine = WorkerOut::default();
                for i in (w..due.len()).step_by(workers) {
                    let due_at = start + Duration::from_secs_f64(due[i]);
                    let now = Instant::now();
                    let begin = if now < due_at {
                        std::thread::sleep(due_at - now);
                        let late = Instant::now().duration_since(due_at);
                        mine.samples.push("serve.late_ms", late.as_secs_f64() * 1e3);
                        late
                    } else {
                        now - due_at
                    };
                    mine.samples.push("serve.start_delay_ms", begin.as_secs_f64() * 1e3);
                    let ok = request(state, i, every, tracer, &mut mine);
                    let latency_ms = Instant::now().duration_since(due_at).as_secs_f64() * 1e3;
                    mine.samples.push("serve.latency_ms", latency_ms);
                    mine.run.requests += 1;
                    if ok && latency_ms <= LATENCY_LIMIT_MS {
                        mine.samples.count("serve.within_limit", 1);
                    }
                }
                finished.lock().expect("worker results poisoned").push(mine);
            });
        }
    });
    let window = Instant::now().duration_since(start).as_secs_f64();
    out.push("serve.window_s", window);
    let mut total = ServeRun::default();
    let mut latencies = Vec::new();
    for mine in finished.into_inner().expect("worker results poisoned") {
        latencies.extend_from_slice(mine.samples.get("serve.latency_ms"));
        out.merge(mine.samples);
        total.applied.extend(mine.run.applied);
        total.sampled.extend(mine.run.sampled);
        total.requests += mine.run.requests;
        total.failed += mine.run.failed;
        total.invalid.extend(mine.run.invalid);
    }
    total.applied.sort_by_key(|(generation, _)| *generation);
    if let (Some(p50), Some(p99)) = (percentile(&latencies, 50.0), percentile(&latencies, 99.0)) {
        out.push("serve.loop_p50_ms", p50);
        out.push("serve.loop_p99_ms", p99);
    }
    total
}

/// Request `i`: a commit ticket when `i % every == every - 1`, otherwise a
/// read (plan, or branch + plan for odd `i`). Returns whether it succeeded.
fn request(
    state: &ServeState,
    i: usize,
    every: usize,
    tracer: &Tracer,
    out: &mut WorkerOut,
) -> bool {
    let req = tracer.request();
    if i % every != every - 1 {
        tracer.span("serve.request", req, |ctx| {
            let (snapshot, secs) = tracer.span("serve.checkout", ctx, |_| state.current());
            out.samples.push("serve.checkout_us", secs * 1e6);
            let mut session = snapshot.session();
            if i % 2 == 1 {
                let (branch, secs) = tracer.span("serve.branch", ctx, |_| session.branch());
                out.samples.push("serve.branch_us", secs * 1e6);
                session = branch;
            }
            let (result, secs) =
                tracer.span("plan.pre", ctx, |_| session.plan_with_threads(PlannerMode::EtaPre, 1));
            out.samples.push("serve.plan_ms", secs * 1e3);
            tracer.counter(ctx, "plan.evaluations", result.evaluations);
            state.record_plans(1);
            if i % SAMPLE_EVERY < 2 {
                out.run.sampled.push((snapshot.generation(), result.best));
            }
        });
        return true;
    }

    let (ok, _) = tracer.span("serve.commit_request", req, |ctx| {
        let mut submitted: Option<Instant> = None;
        for attempt in 1..=MAX_COMMIT_ATTEMPTS {
            let (snapshot, secs) = tracer.span("serve.checkout", ctx, |_| state.current());
            out.samples.push("serve.checkout_us", secs * 1e6);
            let (result, secs) = tracer.span("plan.pre", ctx, |_| {
                snapshot.session().plan_with_threads(PlannerMode::EtaPre, 1)
            });
            out.samples.push("serve.plan_ms", secs * 1e3);
            state.record_plans(1);
            if result.best.is_empty() || result.best.objective <= 0.0 {
                return true; // saturated network: nothing to commit
            }
            let submitted = *submitted.get_or_insert_with(Instant::now);
            let ticket = CommitTicket::new(&snapshot, result.best.clone());
            let (outcome, secs) = tracer.span("serve.commit_call", ctx, |_| state.commit(ticket));
            out.samples.push("serve.commit_call_ms", secs * 1e3);
            match outcome {
                CommitOutcome::Applied { generation, summary } => {
                    tracer.counter(ctx, "commit.swept", summary.swept_candidates as u64);
                    out.samples.push("serve.commit_ms", submitted.elapsed().as_secs_f64() * 1e3);
                    out.run.applied.push((generation, result.best));
                    return true;
                }
                CommitOutcome::Stale { .. } => {}
                CommitOutcome::Failed { .. } | CommitOutcome::Overloaded { .. } => {
                    out.run.failed += 1;
                }
                CommitOutcome::Invalid { reason } => {
                    out.run.invalid.push(format!("serve produced an invalid ticket: {reason}"));
                    return false;
                }
                CommitOutcome::Empty => return true,
            }
            if attempt == MAX_COMMIT_ATTEMPTS {
                out.run.failed += 1; // gave up
            }
        }
        false
    });
    ok
}
