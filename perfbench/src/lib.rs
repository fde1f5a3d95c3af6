//! End-to-end CT-Bus benchmark: cold start, commit+replan and open-loop
//! serving, timed from outside around calls into each layer's public
//! functions, with a per-layer trace. See NOTES.md for the workloads, the
//! metrics and the layer each one belongs to.

pub mod checks;
pub mod kernel;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workload;

use std::path::PathBuf;
use std::time::Instant;

use ct_core::precompute::compute_deltas_with_threads;
use ct_core::{
    plan_multiple_reference, CommitTicket, CtBusParams, PlannerMode, PlanningSession,
    RefreshPolicy, RoutePlan, ServeState,
};
use ct_data::{DemandModel, GtfsIngest};
use ct_linalg::{block_krylov_topk, block_krylov_topk_warm, CsrMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

use stats::Samples;
use trace::{Ctx, Tracer};
use workload::{city_seed, Fixture, Workload};

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Measured time budget; sets the open-loop serving time.
    pub seconds: f64,
    pub trace: bool,
    /// Worker threads for every parallel layer and the open loop
    /// (0 = all cores).
    pub threads: usize,
    /// Scratch directory for the generated GTFS fixtures (created, then
    /// removed at the end of the run).
    pub work_dir: PathBuf,
}

/// Everything a run measured.
pub struct RunReport {
    pub samples: Samples,
    pub attempted: u64,
    /// Failed operations: failed, shed or abandoned commits plus failed
    /// output checks.
    pub failed: u64,
    /// Reasons of the failed output checks.
    pub check_failures: Vec<String>,
    /// Approximate-refresh connectivity-gain ratios outside the `drift`
    /// harness's bounds. Reported, not counted as failures: see NOTES.md.
    pub drift_outliers: Vec<String>,
    pub threads: usize,
    pub tracer: Tracer,
    /// Wall time of the whole run, seconds.
    pub wall_s: f64,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }
}

struct Runner<'a> {
    cfg: &'a RunConfig,
    params: CtBusParams,
    threads: usize,
    tracer: &'a Tracer,
    samples: Samples,
    attempted: u64,
    failed: u64,
    check_failures: Vec<String>,
    drift_outliers: Vec<String>,
}

/// Which commit metric a timed session commit feeds.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Tier {
    Exact,
    ApproxFirst,
    Approx,
}

impl Tier {
    fn metric(self) -> &'static str {
        match self {
            Tier::Exact => "commit_exact_ms",
            Tier::ApproxFirst => "commit_approx_first_ms",
            Tier::Approx => "commit_approx_ms",
        }
    }
}

/// Runs one workload: every city of the run through every phase.
pub fn run(cfg: &RunConfig) -> RunReport {
    let t0 = Instant::now();
    let threads = match cfg.threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    let tracer = Tracer::new(cfg.trace);
    let mut runner = Runner {
        cfg,
        params: workload::params(threads),
        threads,
        tracer: &tracer,
        samples: Samples::default(),
        attempted: 0,
        failed: 0,
        check_failures: Vec::new(),
        drift_outliers: Vec::new(),
    };
    // Each full city is followed by its commit cities, so that both kinds
    // are spread over the whole run.
    let w = cfg.workload;
    for index in 0..w.cities {
        runner.run_city(index, Runner::city);
        for j in 0..w.commit_cities {
            runner.run_city(w.cities + index * w.commit_cities + j, Runner::commit_city);
        }
    }
    if cfg.trace {
        runner.trace_overhead();
    }
    // Best effort: a leftover fixture directory is harmless scratch.
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    let Runner { mut samples, attempted, failed, check_failures, drift_outliers, .. } = runner;
    let wall_s = t0.elapsed().as_secs_f64();
    samples.push("run.wall_s", wall_s);
    RunReport {
        samples,
        attempted,
        failed,
        check_failures,
        drift_outliers,
        threads,
        tracer,
        wall_s,
    }
}

impl Runner<'_> {
    fn fail(&mut self, reason: String) {
        self.failed += 1;
        self.check_failures.push(reason);
    }

    fn check(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = result {
            self.fail(format!("{what}: {e}"));
        }
    }

    /// Runs `city` on city `index` and counts its error as a failure. Of
    /// the exact and the first approximate commits it made, pushes each
    /// tier's median as one sample of `<tier>.city_ms`: those end-to-end
    /// metrics are the median over the run's cities, so that each network
    /// counts once.
    fn run_city(&mut self, index: usize, city: fn(&mut Self, usize) -> Result<(), String>) {
        const PER_CITY: [(Tier, &str); 2] = [
            (Tier::Exact, "commit_exact.city_ms"),
            (Tier::ApproxFirst, "commit_approx_first.city_ms"),
        ];
        let before = PER_CITY.map(|(tier, _)| self.samples.get(tier.metric()).len());
        if let Err(e) = city(self, index) {
            self.fail(format!("city {index}: {e}"));
        }
        for ((tier, per_city), before) in PER_CITY.into_iter().zip(before) {
            if let Some(median) =
                stats::percentile(&self.samples.get(tier.metric())[before..], 50.0)
            {
                self.samples.push(per_city, median);
            }
        }
    }

    fn fixture(&self, index: usize) -> Result<Fixture, String> {
        let dir = self.cfg.work_dir.join(format!("city{index}"));
        Fixture::generate(self.cfg.workload.preset, city_seed(self.cfg.seed, index), &dir)
            .map_err(|e| format!("writing the GTFS fixture: {e}"))
    }

    /// A commit city: the set-up, then one EtaPre plan on the cold
    /// snapshot, committed as the first commit of an approximate branch and
    /// as an exact commit.
    fn commit_city(&mut self, index: usize) -> Result<(), String> {
        let fixture = self.fixture(index)?;
        let state = self.setup(&fixture)?;
        drop(fixture);
        let mut line = state.session();
        let plan = self.plan_for_commit(&mut line)?;
        let mut branch = line.branch();
        branch.set_refresh(RefreshPolicy::approximate());
        self.commit(&mut branch, &plan, Tier::ApproxFirst);
        self.commit(&mut line, &plan, Tier::Exact);
        Ok(())
    }

    fn city(&mut self, index: usize) -> Result<(), String> {
        let w = self.cfg.workload;
        let fixture = self.fixture(index)?;

        let state = self.setup(&fixture)?;
        // The repeated imports and plans run in two halves, before and after
        // the commits, so that one slow moment of the host does not take all
        // of a city's samples.
        let mut first_plan = None;
        self.imports(&fixture, w.import_reps / 2)?;
        self.plans(&state, &mut first_plan, workload::PLAN_REPS / 2);
        let online = (index < w.online_cities).then(|| self.online_plan(&state));
        self.commits(&state, online)?;
        self.imports(&fixture, w.import_reps - w.import_reps / 2)?;
        self.plans(&state, &mut first_plan, workload::PLAN_REPS - workload::PLAN_REPS / 2);
        drop(fixture);
        if self.cfg.trace {
            self.sweep_layers(state.current().precomputed(), index == 0);
        }

        self.serve(&state, index);
        Ok(())
    }

    /// The open loop on `state`, then the serve oracle.
    fn serve(&mut self, state: &ServeState, index: usize) {
        let w = self.cfg.workload;
        let base = state.current();
        // A service's first approximate commit re-converges the spectrum
        // head with no Ritz basis to start from. It is paid once per
        // service (commit_approx_first_ms measures it), so it lands before
        // the open loop, which then sees steady-state commits.
        let warm = base.session().plan_with_threads(PlannerMode::EtaPre, self.threads).best;
        self.attempted += 1;
        let outcome = state.commit(CommitTicket::new(&base, warm.clone()));
        if !outcome.is_applied() {
            self.fail(format!("warm-up commit not applied: {outcome:?}"));
            return;
        }
        let secs = self.cfg.seconds * w.serve_share / w.cities as f64;
        let due = serve::schedule(city_seed(self.cfg.seed ^ 0x5E57E, index), w.serve_rate, secs);
        let mut served = serve::run(state, &due, self.threads, &w, self.tracer, &mut self.samples);
        served.applied.insert(0, (1, warm));
        self.attempted += served.requests;
        self.failed += served.failed;
        for reason in served.invalid.clone() {
            self.fail(reason);
        }
        let stats = state.stats();
        self.samples.count("serve.commits_applied", stats.commits_applied);
        self.samples.count("serve.commits_stale", stats.commits_stale);
        self.samples.count("serve.commits_failed", stats.commits_failed);
        self.samples.count("serve.commits_shed", stats.commits_shed);
        let replay = self.replay_serve(base.session(), &served, stats.generation);
        self.check("serve oracle", replay);
    }

    /// One cold set-up: import the GTFS directory, build demand, run the
    /// cold precompute behind a fresh `ServeState`.
    fn setup(&mut self, fixture: &Fixture) -> Result<ServeState, String> {
        let t = self.tracer;
        let (built, setup_s) = t.span("setup", t.request(), |ctx| {
            let (mut ingest, _) = t.span("ingest.snap_index", ctx, |_| {
                GtfsIngest::new(&fixture.city.road).with_threads(self.threads)
            });
            let (imported, import_s) = t.span("ingest.import", ctx, |_| {
                ingest.import_dir(&fixture.gtfs_dir, &workload::projection())
            });
            let (transit, _) = imported.map_err(|e| format!("GTFS import: {e}"))?;
            let cache = ingest.cache().stats();
            t.counter(ctx, "ingest.dijkstra_runs", cache.dijkstra_runs as u64);
            let city = fixture.city.with_transit(transit);
            let (demand, demand_s) = t.span("demand.build", ctx, |_| DemandModel::from_city(&city));
            let (state, build_s) = t.span("precompute.build", ctx, |_| {
                ServeState::new(city, demand, self.params)
                    .with_refresh(RefreshPolicy::approximate())
            });
            Ok::<_, String>((state, cache, import_s, demand_s, build_s))
        });
        let (state, cache, import_s, demand_s, build_s) = built?;
        self.attempted += 1;
        let s = &mut self.samples;
        s.push("setup_s", setup_s);
        s.push("import_ms", import_s * 1e3);
        s.push("setup.import_ms", import_s * 1e3);
        s.push("demand.build_ms", demand_s * 1e3);
        let snap = state.current();
        let pre = snap.precomputed();
        s.push("candidates.build_ms", pre.timings.shortest_path_secs * 1e3);
        s.push("sweep.ms", pre.timings.connectivity_secs * 1e3);
        let swept = pre.candidates.num_new().max(1) as f64;
        s.push("sweep.us_per_candidate", pre.timings.connectivity_secs * 1e6 / swept);
        s.count("ingest.dijkstra_runs", cache.dijkstra_runs as u64);
        s.count("ingest.cache_hits", cache.hits as u64);
        s.count("candidates.pool", pre.candidates.len() as u64);
        s.count("candidates.new", pre.candidates.num_new() as u64);
        s.count("sweep.swept", pre.candidates.num_new() as u64);
        let (flops, bytes) =
            kernel::computed_work(pre.base_adj.n(), pre.base_adj.nnz(), &self.params);
        s.count("sweep.flops_computed", flops * pre.candidates.num_new() as u64);
        s.count("sweep.bytes_computed", bytes * pre.candidates.num_new() as u64);
        s.push("fixture.stops", pre.base_adj.n() as f64);
        s.push("fixture.nnz", pre.base_adj.nnz() as f64);
        if self.cfg.trace {
            // Replays of the base trace and the cold spectrum head, which
            // `Precomputed::build` runs inside without timing them.
            let trace_s = self.replay_trace(pre);
            let spectrum_s = self.replay_spectrum(&pre.base_adj, Tier::Exact, None);
            self.samples.push("setup.trace_ms", trace_s * 1e3);
            self.samples.push("setup.spectrum_ms", spectrum_s * 1e3);
            self.samples.push(
                "precompute.residual_ms",
                (build_s
                    - pre.timings.shortest_path_secs
                    - pre.timings.connectivity_secs
                    - trace_s
                    - spectrum_s)
                    * 1e3,
            );
        }
        Ok(state)
    }

    /// `reps` extra cold `import_dir` calls.
    fn imports(&mut self, fixture: &Fixture, reps: usize) -> Result<(), String> {
        for _ in 0..reps {
            let mut ingest = GtfsIngest::new(&fixture.city.road).with_threads(self.threads);
            let (imported, secs) = self.tracer.span("ingest.import", self.tracer.request(), |_| {
                ingest.import_dir(&fixture.gtfs_dir, &workload::projection())
            });
            imported.map_err(|e| format!("GTFS import: {e}"))?;
            self.attempted += 1;
            self.samples.push("import_ms", secs * 1e3);
        }
        Ok(())
    }

    /// `reps` EtaPre plans on the cold snapshot, each on a fresh checkout:
    /// all feasible and identical to `first`, the snapshot's first plan.
    fn plans(&mut self, state: &ServeState, first: &mut Option<RoutePlan>, reps: usize) {
        let t = self.tracer;
        let snap = state.current();
        let pre = snap.precomputed_handle().clone();
        for _ in 0..reps {
            let ((result, plan_s), total_s) = t.span("plan", t.request(), |ctx| {
                let (mut session, checkout_s) = t.span("serve.checkout", ctx, |_| state.session());
                self.samples.push("serve.checkout_us", checkout_s * 1e6);
                self.samples.push("plans.checkout_ms", checkout_s * 1e3);
                t.span("plan.pre", ctx, |_| session.plan(PlannerMode::EtaPre))
            });
            self.attempted += 1;
            self.samples.push("plan_pre_ms", total_s * 1e3);
            self.samples.push("plan.pre_ms", plan_s * 1e3);
            match first {
                None => {
                    self.samples.count("plan.iterations", result.iterations);
                    self.samples.count("plan.evaluations", result.evaluations);
                    let feasible = checks::feasible(&result.best, &pre, snap.city(), &self.params);
                    self.check("EtaPre plan", feasible);
                    *first = Some(result.best);
                }
                Some(p) if *p != result.best => {
                    self.fail("two EtaPre plans from one snapshot differ".into())
                }
                Some(_) => {}
            }
        }
    }

    /// One online plan on the cold snapshot, checked feasible; returns its
    /// route.
    fn online_plan(&mut self, state: &ServeState) -> RoutePlan {
        let t = self.tracer;
        let snap = state.current();
        let pre = snap.precomputed_handle().clone();
        let (result, secs) =
            t.span("plan.online", t.request(), |_| state.session().plan(PlannerMode::Eta));
        self.attempted += 1;
        self.samples.push("plan_online_s", secs);
        self.samples.push("plan.online_ms", secs * 1e3);
        self.samples.count("plan.online_evaluations", result.evaluations);
        self.check("online plan", checks::feasible(&result.best, &pre, snap.city(), &self.params));
        result.best
    }

    /// The exact-refresh line (plan → commit, `exact_rounds` times), an
    /// approximate branch opened at each of its depths, and, given the
    /// online plan's route, one more approximate branch off the cold
    /// snapshot that commits it first (another first commit, on another
    /// route).
    fn commits(&mut self, state: &ServeState, online: Option<RoutePlan>) -> Result<(), String> {
        let w = self.cfg.workload;
        let mut line = state.session();
        let mut exact = Vec::new();
        let mut branches = Vec::new();
        for _ in 0..w.exact_rounds {
            let plan = self.plan_for_commit(&mut line)?;
            branches.push((line.branch(), None));
            self.commit(&mut line, &plan, Tier::Exact);
            exact.push(plan);
        }
        exact.push(self.plan_for_commit(&mut line)?);
        drop(line);
        if let Some(route) = online.filter(|r| !r.is_empty()) {
            branches.push((state.session(), Some(route)));
        }

        for (depth, (mut branch, mut first)) in branches.into_iter().enumerate() {
            branch.set_refresh(RefreshPolicy::approximate());
            let mut approx = Vec::new();
            for round in 0..w.approx_rounds {
                let plan = match first.take() {
                    Some(plan) => plan,
                    None => self.plan_for_commit(&mut branch)?,
                };
                let tier = if round == 0 { Tier::ApproxFirst } else { Tier::Approx };
                self.commit(&mut branch, &plan, tier);
                approx.push(plan);
            }
            if depth == 0 {
                approx.push(self.plan_for_commit(&mut branch)?);
                let drift = checks::drift(&approx, &exact);
                self.samples.push("drift.mean_overlap", drift.mean_overlap);
                self.samples.push("drift.conn_ratio", drift.conn_ratio);
                let outliers = drift.conn_outliers.len() as u64;
                self.samples.count("drift.conn_outliers", outliers);
                self.drift_outliers.extend(drift.conn_outliers);
                for v in drift.violations {
                    self.fail(format!("approximate drift: {v}"));
                }
            }
        }

        if w.oracle_exact {
            let snap = state.current();
            let reference = plan_multiple_reference(
                snap.city(),
                snap.demand(),
                self.params,
                exact.len(),
                PlannerMode::EtaPre,
            );
            if reference != exact {
                self.fail("exact history differs from plan_multiple_reference".into());
            }
        }
        Ok(())
    }

    fn plan_for_commit(&mut self, session: &mut PlanningSession) -> Result<RoutePlan, String> {
        let plan = session.plan(PlannerMode::EtaPre).best;
        self.attempted += 1;
        let pre = session.precomputed_handle();
        let feasible = checks::feasible(&plan, &pre, session.city(), &self.params);
        self.check("plan before commit", feasible);
        if plan.is_empty() {
            return Err("the network saturated before the commit rounds ended".into());
        }
        Ok(plan)
    }

    /// One timed session commit, with its layer replays when tracing.
    fn commit(&mut self, session: &mut PlanningSession, plan: &RoutePlan, tier: Tier) {
        let t = self.tracer;
        let prev_basis = session.precomputed().spectrum_basis.clone();
        let (summary, secs) = t.span(tier.metric(), t.request(), |ctx| {
            let summary = session.commit(plan);
            t.counter(ctx, "commit.swept", summary.swept_candidates as u64);
            summary
        });
        self.attempted += 1;
        let s = &mut self.samples;
        s.push(tier.metric(), secs * 1e3);
        s.push("commit.ms", secs * 1e3);
        s.push("commit.refresh_ms", summary.refresh_secs * 1e3);
        s.push("commit.rest_ms", (secs - summary.refresh_secs) * 1e3);
        s.count("commit.swept", summary.swept_candidates as u64);
        s.count("commit.refreshed", summary.refreshed_candidates as u64);
        s.count("commit.covered_road_edges", summary.covered_road_edges as u64);
        if self.cfg.trace {
            let (refresh, trace, spectrum) = match tier {
                Tier::Exact => {
                    ("split.exact.refresh_ms", "split.exact.trace_ms", "split.exact.spectrum_ms")
                }
                Tier::ApproxFirst => (
                    "split.approx_first.refresh_ms",
                    "split.approx_first.trace_ms",
                    "split.approx_first.spectrum_ms",
                ),
                Tier::Approx => {
                    ("split.approx.refresh_ms", "split.approx.trace_ms", "split.approx.spectrum_ms")
                }
            };
            let pre = session.precomputed_handle();
            let trace_s = self.replay_trace(&pre);
            let spectrum_s =
                self.replay_spectrum(&pre.base_adj, tier, prev_basis.as_deref().map(Vec::as_slice));
            let s = &mut self.samples;
            s.push(refresh, summary.refresh_secs * 1e3);
            s.push(trace, trace_s * 1e3);
            s.push(spectrum, spectrum_s * 1e3);
        }
    }

    /// Times the base-trace estimate `pre`'s state starts from.
    fn replay_trace(&mut self, pre: &ct_core::Precomputed) -> f64 {
        let t = self.tracer;
        let (tr, secs) =
            t.span("trace.base", t.request(), |_| pre.estimator.trace_exp(&pre.base_adj));
        std::hint::black_box(tr.expect("base trace replay succeeds"));
        self.samples.push("trace.base_ms", secs * 1e3);
        secs
    }

    /// Times the spectrum head a commit of `tier` assembles, with the same
    /// sizes and random stream as `Precomputed`'s assembly.
    fn replay_spectrum(&mut self, adj: &CsrMatrix, tier: Tier, prev: Option<&[Vec<f64>]>) -> f64 {
        let t = self.tracer;
        let k = self.params.k;
        let mut rng = StdRng::seed_from_u64(self.params.probe_seed ^ 0x9E37_79B9);
        let (name, metric) = match tier {
            Tier::Exact => ("spectrum.cold", "spectrum.cold_ms"),
            Tier::ApproxFirst => ("spectrum.warm_empty", "spectrum.warm_empty_ms"),
            Tier::Approx => ("spectrum.warm", "spectrum.warm_ms"),
        };
        let ((), secs) = t.span(name, t.request(), |_| match tier {
            Tier::Exact => {
                let want = (2 * k).max(96).min(adj.n());
                std::hint::black_box(block_krylov_topk(adj, want, 0, &mut rng).ok());
            }
            Tier::ApproxFirst | Tier::Approx => {
                let want = (2 * k).max(32).min(adj.n());
                let warm = if tier == Tier::Approx { prev.unwrap_or(&[]) } else { &[] };
                std::hint::black_box(block_krylov_topk_warm(adj, want, 0, warm, &mut rng).ok());
            }
        });
        self.samples.push(metric, secs * 1e3);
        secs
    }

    /// Traced run only: the sweep's kernel split and, on the first city,
    /// its speed-up from one thread to all.
    fn sweep_layers(&mut self, pre: &ct_core::Precomputed, speedup: bool) {
        let split = kernel::measure(pre, &self.params);
        self.samples.push("kernel.matvec_share", split.matvec_share);
        self.samples.push("kernel.quadrature_share", split.quadrature_share);
        if speedup {
            let sweep = |threads| {
                let t = Instant::now();
                let delta = compute_deltas_with_threads(
                    &pre.candidates,
                    &pre.base_adj,
                    &pre.estimator,
                    pre.base_trace,
                    threads,
                );
                std::hint::black_box(delta);
                t.elapsed().as_secs_f64()
            };
            let one = sweep(1);
            let all = sweep(self.threads);
            self.samples.push("sweep.speedup_nproc", one / all);
        }
    }

    /// The serve oracle: applied commits carry gapless generations, and a
    /// sequential session under the same refresh policy, replaying them
    /// from the pre-serve snapshot, plans exactly what each applied commit
    /// and each sampled read carried.
    fn replay_serve(
        &mut self,
        mut session: PlanningSession,
        served: &serve::ServeRun,
        generation: u64,
    ) -> Result<(), String> {
        let applied = &served.applied;
        if applied.len() as u64 != generation
            || applied.iter().enumerate().any(|(i, (g, _))| *g != i as u64 + 1)
        {
            return Err(format!(
                "{} applied commits for generation {generation}, or a gap between them",
                applied.len()
            ));
        }
        session.set_refresh(RefreshPolicy::approximate());
        let mut replayed = Vec::with_capacity(applied.len() + 1);
        for (g, (_, plan)) in applied.iter().enumerate() {
            let mine = session.plan_with_threads(PlannerMode::EtaPre, self.threads).best;
            if mine != *plan {
                return Err(format!("applied commit {} differs from the sequential replay", g + 1));
            }
            session.commit(&mine);
            replayed.push(mine);
        }
        replayed.push(session.plan_with_threads(PlannerMode::EtaPre, self.threads).best);
        for (g, plan) in &served.sampled {
            if replayed.get(*g as usize) != Some(plan) {
                return Err(format!("a read at generation {g} differs from the sequential replay"));
            }
        }
        Ok(())
    }

    /// Per-span cost of the tracer, measured on empty spans.
    fn trace_overhead(&mut self) {
        const N: usize = 20_000;
        let on = Tracer::new(true);
        let off = Tracer::new(false);
        let time = |t: &Tracer| {
            let start = Instant::now();
            for _ in 0..N {
                std::hint::black_box(t.span("overhead", Ctx::default(), |_| ()));
            }
            start.elapsed().as_secs_f64() / N as f64
        };
        let per_span = (time(&on) - time(&off)).max(0.0);
        self.samples.push("trace.overhead_ns_per_span", per_span * 1e9);
        self.samples.push("trace.spans", self.tracer.num_spans() as f64);
    }
}
