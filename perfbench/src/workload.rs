//! The three workloads and the fixtures they run on. NOTES.md records why
//! each was chosen and which layers it loads.

use std::path::{Path, PathBuf};

use ct_core::CtBusParams;
use ct_data::{City, CityConfig, GtfsFeed};
use ct_spatial::{GeoPoint, Projection};

/// A city preset of `ct_data`'s generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    Small,
    Medium,
    ChicagoLike,
}

impl Preset {
    fn config(self) -> CityConfig {
        match self {
            Preset::Small => CityConfig::small(),
            Preset::Medium => CityConfig::medium(),
            Preset::ChicagoLike => CityConfig::chicago_like(),
        }
    }
}

/// What one workload runs. Every workload runs every phase (set-up, plans,
/// an online plan, exact and approximate commits, open-loop serving) so
/// that every metric is measured on every workload; the fixture and the
/// amounts below decide which layers carry the weight.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub preset: Preset,
    /// Cities per run, each generated from the seed. Timings are pooled
    /// over them: one city's structure moves plan and commit cost by
    /// 10–30%, so a single city per run would not repeat across seeds.
    pub cities: usize,
    /// Commit cities per full city: each runs the set-up and one EtaPre
    /// plan, commits it as an exact commit and as the first commit of an
    /// approximate branch off its cold snapshot, and does nothing else.
    /// Both commits cost what the network makes them cost (a first
    /// approximate commit 70–300 ms on `medium`), so their medians need
    /// many more networks than the full cities give.
    pub commit_cities: usize,
    /// Extra cold `import_dir` calls per city.
    pub import_reps: usize,
    /// Full cities that also run an online plan (the first ones; ~2.7 s
    /// each on `chicago_like`).
    pub online_cities: usize,
    /// Commits on the exact-refresh line per city; an approximate branch
    /// opens at each of its depths.
    pub exact_rounds: usize,
    /// Plan → commit rounds per approximate branch.
    pub approx_rounds: usize,
    /// Share of `--seconds` spent in the open loop, spread over the cities.
    pub serve_share: f64,
    /// Open-loop arrival rate, requests per second: 40–45% of what two
    /// worker threads sustain in plans on this fixture, leaving room for
    /// the commit tickets; frozen so that a faster planner shows as lower
    /// latency, not as more load.
    pub serve_rate: f64,
    /// Commit tickets per city: every Nth request of the schedule is one,
    /// with N = schedule length / this.
    pub serve_commits: usize,
    /// Replay the exact line against `plan_multiple_reference` (a cold
    /// rebuild per round; affordable only on the medium city).
    pub oracle_exact: bool,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "cold_start",
        preset: Preset::ChicagoLike,
        cities: 6,
        commit_cities: 0,
        import_reps: 6,
        online_cities: 4,
        exact_rounds: 1,
        approx_rounds: 4,
        serve_share: 1.0,
        serve_rate: 160.0,
        serve_commits: 10,
        oracle_exact: false,
    },
    Workload {
        name: "replan",
        preset: Preset::Medium,
        cities: 8,
        commit_cities: 3,
        import_reps: 5,
        online_cities: 8,
        exact_rounds: 4,
        approx_rounds: 3,
        serve_share: 0.5,
        serve_rate: 300.0,
        serve_commits: 8,
        oracle_exact: true,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload on the `small` preset with two full cities and a
    /// commit city after each: the shape the counter-determinism test runs
    /// in seconds.
    pub fn small_variant(self) -> Workload {
        Workload {
            preset: Preset::Small,
            cities: 2,
            commit_cities: 1,
            online_cities: 2,
            oracle_exact: true,
            ..self
        }
    }
}

/// EtaPre plans per city on the cold snapshot.
pub const PLAN_REPS: usize = 8;

/// Latency limit of `serve_goodput_rps`, milliseconds from the due time.
pub const LATENCY_LIMIT_MS: f64 = 50.0;

/// Planner settings of every workload: `small_defaults` with the `loadgen`
/// overrides. `threads` 0 means all cores.
pub fn params(threads: usize) -> CtBusParams {
    let mut params = CtBusParams::small_defaults();
    params.k = 10;
    params.sn = 300;
    params.it_max = 600;
    params.parallelism.threads = threads;
    params
}

/// The projection the fixtures' GTFS coordinates are written in.
pub fn projection() -> Projection {
    Projection::new(GeoPoint::new(41.85, -87.65))
}

/// Seed of city `index` of a run with seed `seed` (splitmix64, so that
/// neighbouring seeds give unrelated cities).
pub fn city_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(index as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One generated city: its road network and trajectories, plus the GTFS
/// directory its transit network was written to. The transit network the
/// planner sees is the one imported back from that directory.
pub struct Fixture {
    pub city: City,
    pub gtfs_dir: PathBuf,
}

impl Fixture {
    pub fn generate(preset: Preset, seed: u64, gtfs_dir: &Path) -> std::io::Result<Fixture> {
        let city = preset.config().seed(seed).generate();
        GtfsFeed::from_transit(&city.transit, &projection()).write_dir(gtfs_dir)?;
        Ok(Fixture { city, gtfs_dir: gtfs_dir.to_path_buf() })
    }
}
