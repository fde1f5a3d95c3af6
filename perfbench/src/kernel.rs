//! The Δ-sweep kernel split, measured in the traced run only.
//!
//! The sweep scores each new candidate with `slq_trace_batch_in` over an
//! `EdgeOverlay` of the base adjacency. A fixed sample of candidates is
//! replayed three ways through the public `ct_linalg` pieces: the whole
//! kernel, its blocked matvecs alone (`matvec_block`, once per Lanczos
//! step), and its t×t quadratures alone (`tridiag_eigen_first_row_in`, once
//! per probe). The Lanczos recurrence is the remainder.

use std::time::Instant;

use ct_core::{CtBusParams, Precomputed};
use ct_linalg::lanczos::lanczos_tridiagonalize_in;
use ct_linalg::tridiag::tridiag_eigen_first_row_in;
use ct_linalg::{gaussian_vector, slq_trace_batch_in, EdgeOverlay, LanczosWorkspace, MatVec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Candidates replayed per measurement.
const SAMPLE: usize = 48;
/// Passes over the sample; the per-part minimum over passes is kept.
const PASSES: usize = 3;

/// Shares of the kernel's time, from one replay.
#[derive(Debug, Clone, Copy)]
pub struct KernelSplit {
    pub matvec_share: f64,
    pub quadrature_share: f64,
}

/// Replays a fixed sample of `pre`'s new candidates through the kernel
/// and its parts.
pub fn measure(pre: &Precomputed, params: &CtBusParams) -> KernelSplit {
    let base = &pre.base_adj;
    let (n, s, steps) = (base.n(), params.trace_probes.max(1), params.lanczos_steps);
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut probes = vec![0.0; n * s];
    for j in 0..s {
        for (i, x) in gaussian_vector(&mut rng, n).into_iter().enumerate() {
            probes[i * s + j] = x;
        }
    }
    let new_ids: Vec<u32> =
        (0..pre.candidates.len() as u32).filter(|&id| !pre.candidates.edge(id).existing).collect();
    let stride = (new_ids.len() / SAMPLE).max(1);
    let sample: Vec<(u32, u32)> = new_ids
        .iter()
        .step_by(stride)
        .take(SAMPLE)
        .map(|&id| {
            let e = pre.candidates.edge(id);
            (e.u, e.v)
        })
        .collect();

    // A real tridiagonal of this matrix for the quadrature replay.
    let mut ws = LanczosWorkspace::new();
    lanczos_tridiagonalize_in(base, &probes_column(&probes, s, 0), steps, false, false, &mut ws)
        .expect("Lanczos on the base adjacency succeeds");
    let (alphas, betas) = (ws.alphas().to_vec(), ws.betas().to_vec());

    let mut overlay = EdgeOverlay::empty(base);
    let (mut y, mut d, mut e, mut row) = (vec![0.0; n * s], Vec::new(), Vec::new(), Vec::new());
    let (mut kernel, mut matvec, mut quadrature) = (f64::MAX, f64::MAX, f64::MAX);
    for _ in 0..PASSES {
        let t = Instant::now();
        for edge in &sample {
            overlay.set_edges(std::slice::from_ref(edge));
            let tr = slq_trace_batch_in(&overlay, &probes, s, steps, &mut ws);
            std::hint::black_box(tr.expect("kernel replay succeeds"));
        }
        kernel = kernel.min(t.elapsed().as_secs_f64());

        let t = Instant::now();
        for edge in &sample {
            overlay.set_edges(std::slice::from_ref(edge));
            for _ in 0..steps.min(n) {
                overlay.matvec_block(std::hint::black_box(&probes), &mut y, s);
            }
        }
        matvec = matvec.min(t.elapsed().as_secs_f64());

        let t = Instant::now();
        for _ in 0..sample.len() * s {
            tridiag_eigen_first_row_in(&alphas, &betas, &mut d, &mut e, &mut row)
                .expect("tridiagonal eigensolve succeeds");
            let quad: f64 = d.iter().zip(&row).map(|(l, z)| z * z * l.exp()).sum();
            std::hint::black_box(quad);
        }
        quadrature = quadrature.min(t.elapsed().as_secs_f64());
    }
    KernelSplit {
        matvec_share: (matvec / kernel).min(1.0),
        quadrature_share: (quadrature / kernel).min(1.0 - (matvec / kernel).min(1.0)),
    }
}

fn probes_column(flat: &[f64], s: usize, j: usize) -> Vec<f64> {
    flat.iter().skip(j).step_by(s).copied().collect()
}

/// Work of one candidate's score, computed from the kernel's operation
/// counts (not measured): `(flops, bytes moved)`.
///
/// Per Lanczos step and probe the blocked matvec does 2 flops per stored
/// entry and the recurrence about 10 per row (two axpys, two dots, one
/// scale); per step the CSR arrays (8-byte value + 4-byte column per entry,
/// 8-byte row pointer per row) stream once for all probes, and about 11
/// passes of 8 bytes over the n×s vector block go through memory (matvec
/// in/out plus the recurrence's three fused loops). The per-probe t×t QL
/// quadrature is counted at 40·t² flops.
pub fn computed_work(n: usize, nnz: usize, params: &CtBusParams) -> (u64, u64) {
    let (n, nnz) = (n as u64, nnz as u64 + 2);
    let (s, t) = (params.trace_probes.max(1) as u64, params.lanczos_steps as u64);
    let flops = t * s * (2 * nnz + 10 * n) + s * 40 * t * t;
    let bytes = t * (12 * nnz + 8 * (n + 1) + 11 * 8 * n * s);
    (flops, bytes)
}
