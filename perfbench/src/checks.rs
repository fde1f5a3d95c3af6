//! Output checks. Each returns `Err(reason)` on a violation; the runner
//! counts every violation as a failed operation.

use std::collections::HashSet;

use ct_core::{CtBusParams, Precomputed, RoutePlan};
use ct_data::City;
use ct_spatial::{turn_angle, TurnClass};

/// The Definition 6 constraints on a planned route, checked against the
/// city and snapshot it was planned on: at most k edges, each hop a pool
/// candidate joining consecutive stops (the pool admits only pairs within
/// the spacing threshold τ, so this also bounds spacing), no stop visited
/// twice, and turns recomputed from the stop positions: no sharp junction,
/// at most Tn turns, and exactly the count the planner reported.
pub fn feasible(
    plan: &RoutePlan,
    pre: &Precomputed,
    city: &City,
    params: &CtBusParams,
) -> Result<(), String> {
    if plan.is_empty() {
        return Err("empty plan".into());
    }
    if plan.num_edges() > params.k {
        return Err(format!("{} edges > k = {}", plan.num_edges(), params.k));
    }
    if plan.stops.len() != plan.cand_edges.len() + 1 {
        return Err(format!("{} stops for {} edges", plan.stops.len(), plan.cand_edges.len()));
    }
    let mut seen = HashSet::new();
    if let Some(s) = plan.stops.iter().find(|s| !seen.insert(**s)) {
        return Err(format!("stop {s} visited twice"));
    }
    for (hop, &id) in plan.stops.windows(2).zip(&plan.cand_edges) {
        if id as usize >= pre.candidates.len() {
            return Err(format!("candidate {id} out of range"));
        }
        let e = pre.candidates.edge(id);
        if (e.u, e.v) != (hop[0].min(hop[1]), hop[0].max(hop[1])) {
            return Err(format!("candidate {id} does not join stops {} and {}", hop[0], hop[1]));
        }
    }
    let pos = |s: u32| city.transit.stop(s).pos;
    let mut turns = 0;
    for j in plan.stops.windows(3) {
        match TurnClass::from_angle(turn_angle(&pos(j[0]), &pos(j[1]), &pos(j[2]))) {
            TurnClass::Sharp => return Err(format!("sharp turn at stop {}", j[1])),
            TurnClass::Turn => turns += 1,
            TurnClass::Straight => {}
        }
    }
    if turns > params.tn_max {
        return Err(format!("{turns} turns > Tn = {}", params.tn_max));
    }
    if turns != plan.turns {
        return Err(format!("{turns} turns, but the planner reported {}", plan.turns));
    }
    Ok(())
}

/// How far an approximate-refresh history drifted from the exact history
/// from the same start, against the `drift` harness's default bounds.
/// Gated (the runner counts each as a failure): per-round objective factor
/// within [1/2, 2] and mean hop overlap ≥ 0.25. Reported only: the
/// connectivity-gain ratios, per round within [1/2, 2] and cumulative
/// within [0.7, 1.5], which the approximate tier breaks on many `medium`
/// cities (NOTES.md).
pub struct Drift {
    pub mean_overlap: f64,
    pub conn_ratio: f64,
    /// Gated bounds that broke.
    pub violations: Vec<String>,
    /// Connectivity-gain ratios outside their bounds.
    pub conn_outliers: Vec<String>,
}

pub fn drift(approx: &[RoutePlan], exact: &[RoutePlan]) -> Drift {
    const FACTOR: f64 = 2.0;
    const MIN_MEAN_OVERLAP: f64 = 0.25;
    const CONN_RATIO: (f64, f64) = (0.7, 1.5);
    let rounds = approx.len().min(exact.len());
    let within = |x: f64| (1.0 / FACTOR..=FACTOR).contains(&x);
    let mut violations = Vec::new();
    let mut conn_outliers = Vec::new();
    let mut overlap = 0.0;
    for (round, (a, e)) in approx.iter().zip(exact).enumerate() {
        overlap += hop_overlap(a, e);
        let obj = a.objective / e.objective;
        if !within(obj) {
            violations.push(format!("round {round}: objective factor {obj:.3}"));
        }
        let conn = a.conn_increment / e.conn_increment;
        if e.conn_increment > 1e-12 && !within(conn) {
            conn_outliers.push(format!("round {round}: connectivity-gain ratio {conn:.3}"));
        }
    }
    let mean_overlap = overlap / rounds.max(1) as f64;
    if mean_overlap < MIN_MEAN_OVERLAP {
        violations.push(format!("mean overlap {mean_overlap:.3} < {MIN_MEAN_OVERLAP}"));
    }
    let total = |ps: &[RoutePlan]| ps[..rounds].iter().map(|p| p.conn_increment).sum::<f64>();
    let conn_ratio = total(approx) / total(exact);
    if !(CONN_RATIO.0..=CONN_RATIO.1).contains(&conn_ratio) {
        conn_outliers.push(format!("cumulative connectivity-gain ratio {conn_ratio:.3}"));
    }
    Drift { mean_overlap, conn_ratio, violations, conn_outliers }
}

/// Shared hops (unordered stop pairs) over the larger hop count.
fn hop_overlap(a: &RoutePlan, b: &RoutePlan) -> f64 {
    let pairs = |p: &RoutePlan| -> HashSet<(u32, u32)> {
        p.stops.windows(2).map(|h| (h[0].min(h[1]), h[0].max(h[1]))).collect()
    };
    let (pa, pb) = (pairs(a), pairs(b));
    match pa.len().max(pb.len()) {
        0 => 1.0,
        denom => pa.intersection(&pb).count() as f64 / denom as f64,
    }
}
