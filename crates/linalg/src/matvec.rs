//! The [`MatVec`] operator abstraction and the [`EdgeOverlay`] view.
//!
//! Every iterative kernel in this crate (Lanczos, SLQ, block Krylov) only
//! ever touches a matrix through `y = A x`. Abstracting that one operation
//! behind a trait lets the planner score a candidate network `G'r = Gr + μ`
//! *without materializing its CSR matrix*: an [`EdgeOverlay`] wraps the base
//! matrix plus a handful of added unit edges and applies them on the fly,
//! turning the per-candidate cost of the Δ(e) sweep from `O(nnz)` copies
//! into `O(|μ|)` bookkeeping.
//!
//! `EdgeOverlay` is careful to produce **bit-identical** results to the
//! materialized [`CsrMatrix::with_added_unit_edges`] path: overlay entries
//! are folded into each row's accumulation in sorted column order, exactly
//! where the materialized matrix would have stored them, so floating-point
//! summation order — and therefore every downstream Lanczos coefficient —
//! is unchanged.

use crate::sparse::CsrMatrix;

/// A symmetric linear operator exposing matrix–vector products.
///
/// The blocked variant [`MatVec::matvec_block`] streams the operator once
/// for `nrhs` right-hand sides held in *interleaved* (node-major) storage:
/// `xs[i * nrhs + j]` is entry `i` of vector `j`. For memory-bound sparse
/// operators this is the difference between reading the matrix `nrhs` times
/// and reading it once per Lanczos step.
pub trait MatVec {
    /// Operator dimension `n`.
    fn n(&self) -> usize;

    /// `y = A x`.
    fn matvec(&self, x: &[f64], y: &mut [f64]);

    /// Blocked multi-RHS product over interleaved storage: for each of the
    /// `nrhs` vectors `j`, `ys[i*nrhs + j] = Σ_c A[i,c] · xs[c*nrhs + j]`.
    ///
    /// Per right-hand side this performs the same additions in the same
    /// order as [`MatVec::matvec`], so results are bit-identical to `nrhs`
    /// scalar products. The default implementation simply loops row-wise;
    /// implementors only need to override it if they can do better than
    /// the generic row stream.
    fn matvec_block(&self, xs: &[f64], ys: &mut [f64], nrhs: usize) {
        let n = self.n();
        assert_eq!(xs.len(), n * nrhs, "matvec_block: xs length");
        assert_eq!(ys.len(), n * nrhs, "matvec_block: ys length");
        // Generic fallback: de-interleave one RHS at a time. Implementors
        // with random row access (both ours) override with a single stream.
        let mut x = vec![0.0; n];
        let mut y = vec![0.0; n];
        for j in 0..nrhs {
            for i in 0..n {
                x[i] = xs[i * nrhs + j];
            }
            self.matvec(&x, &mut y);
            for i in 0..n {
                ys[i * nrhs + j] = y[i];
            }
        }
    }

    /// Convenience allocating product (not for hot paths).
    fn matvec_alloc(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n()];
        self.matvec(x, &mut y);
        y
    }
}

impl MatVec for CsrMatrix {
    fn n(&self) -> usize {
        CsrMatrix::n(self)
    }

    fn matvec(&self, x: &[f64], y: &mut [f64]) {
        CsrMatrix::matvec(self, x, y);
    }

    fn matvec_block(&self, xs: &[f64], ys: &mut [f64], nrhs: usize) {
        CsrMatrix::matvec_block(self, xs, ys, nrhs);
    }
}

impl<M: MatVec + ?Sized> MatVec for &M {
    fn n(&self) -> usize {
        (**self).n()
    }

    fn matvec(&self, x: &[f64], y: &mut [f64]) {
        (**self).matvec(x, y);
    }

    fn matvec_block(&self, xs: &[f64], ys: &mut [f64], nrhs: usize) {
        (**self).matvec_block(xs, ys, nrhs);
    }
}

/// A base adjacency matrix plus a small set of added undirected unit edges,
/// applied during the product instead of materialized.
///
/// Semantically equivalent to `base.with_added_unit_edges(edges)` (added
/// edges that already exist in the base — or are self-loops — are dropped so
/// the adjacency stays 0/1), but construction is `O(|edges| log |edges|)`
/// instead of `O(nnz)`, and the internal buffer is reusable across candidate
/// sets via [`EdgeOverlay::set_edges`], making steady-state scoring
/// allocation-free.
#[derive(Debug, Clone)]
pub struct EdgeOverlay<'a> {
    base: &'a CsrMatrix,
    /// Directed overlay entries `(row, col)`, sorted, deduped, and excluding
    /// pairs already present in the base.
    entries: Vec<(u32, u32)>,
}

impl<'a> EdgeOverlay<'a> {
    /// Wraps `base` with the given added undirected unit edges.
    pub fn new(base: &'a CsrMatrix, edges: &[(u32, u32)]) -> Self {
        let mut ov = EdgeOverlay { base, entries: Vec::with_capacity(2 * edges.len()) };
        ov.set_edges(edges);
        ov
    }

    /// An overlay with no added edges (a reusable shell for
    /// [`EdgeOverlay::set_edges`]).
    pub fn empty(base: &'a CsrMatrix) -> Self {
        EdgeOverlay { base, entries: Vec::new() }
    }

    /// Replaces the overlay's edge set, reusing the internal buffer
    /// (no allocation once capacity has been established).
    pub fn set_edges(&mut self, edges: &[(u32, u32)]) {
        let n = self.base.n() as u32;
        self.entries.clear();
        for &(u, v) in edges {
            assert!(u < n && v < n, "overlay edge ({u},{v}) out of bounds for n={n}");
            if u == v || self.base.has_edge(u, v) {
                continue;
            }
            self.entries.push((u, v));
            self.entries.push((v, u));
        }
        self.entries.sort_unstable();
        self.entries.dedup();
    }

    /// The base matrix this overlay augments.
    pub fn base(&self) -> &'a CsrMatrix {
        self.base
    }

    /// Number of undirected edges the overlay actually adds (duplicates and
    /// already-present edges excluded).
    pub fn num_added_edges(&self) -> usize {
        self.entries.len() / 2
    }

    /// Materializes the augmented matrix (for callers that need a real CSR,
    /// e.g. exact eigendecomposition or committing a pick).
    pub fn to_csr(&self) -> CsrMatrix {
        let undirected: Vec<(u32, u32)> =
            self.entries.iter().filter(|&&(u, v)| u < v).copied().collect();
        self.base.with_added_unit_edges(&undirected)
    }

    /// Row sum for row `i`, merging base entries with the overlay entries
    /// `ov` (the `(row, col)` pairs of this row, possibly empty) in sorted
    /// column order — the materialized matrix's exact summation order.
    #[inline]
    fn row_dot(&self, i: usize, ov: &[(u32, u32)], x: &[f64]) -> f64 {
        let (cols, vals) = self.base.row_entries(i);
        let mut acc = 0.0;
        let mut p = 0;
        for (k, &c) in cols.iter().enumerate() {
            while p < ov.len() && ov[p].1 < c {
                acc += x[ov[p].1 as usize];
                p += 1;
            }
            acc += vals[k] * x[c as usize];
        }
        for &(_, c) in &ov[p..] {
            acc += x[c as usize];
        }
        acc
    }

    /// Blocked-row counterpart of [`EdgeOverlay::row_dot`]: accumulates the
    /// merged row into `yrow` for all `nrhs` interleaved right-hand sides.
    #[inline]
    fn row_dot_block(
        &self,
        i: usize,
        ov: &[(u32, u32)],
        xs: &[f64],
        yrow: &mut [f64],
        nrhs: usize,
    ) {
        let (cols, vals) = self.base.row_entries(i);
        yrow.fill(0.0);
        let mut p = 0;
        for (k, &c) in cols.iter().enumerate() {
            while p < ov.len() && ov[p].1 < c {
                let oc = ov[p].1 as usize;
                let xrow = &xs[oc * nrhs..(oc + 1) * nrhs];
                for (yj, xj) in yrow.iter_mut().zip(xrow) {
                    *yj += xj;
                }
                p += 1;
            }
            let v = vals[k];
            let xrow = &xs[c as usize * nrhs..(c as usize + 1) * nrhs];
            for (yj, xj) in yrow.iter_mut().zip(xrow) {
                *yj += v * xj;
            }
        }
        for &(_, oc) in &ov[p..] {
            let xrow = &xs[oc as usize * nrhs..(oc as usize + 1) * nrhs];
            for (yj, xj) in yrow.iter_mut().zip(xrow) {
                *yj += xj;
            }
        }
    }
}

impl MatVec for EdgeOverlay<'_> {
    fn n(&self) -> usize {
        self.base.n()
    }

    fn matvec(&self, x: &[f64], y: &mut [f64]) {
        let n = self.base.n();
        assert_eq!(x.len(), n, "matvec: x length");
        assert_eq!(y.len(), n, "matvec: y length");
        let mut p = 0;
        for i in 0..n {
            // Overlay entries are sorted by row, so a single cursor suffices.
            let start = p;
            while p < self.entries.len() && self.entries[p].0 as usize == i {
                p += 1;
            }
            y[i] = self.row_dot(i, &self.entries[start..p], x);
        }
    }

    fn matvec_block(&self, xs: &[f64], ys: &mut [f64], nrhs: usize) {
        let n = self.base.n();
        assert_eq!(xs.len(), n * nrhs, "matvec_block: xs length");
        assert_eq!(ys.len(), n * nrhs, "matvec_block: ys length");
        let mut p = 0;
        for i in 0..n {
            let start = p;
            while p < self.entries.len() && self.entries[p].0 as usize == i {
                p += 1;
            }
            let yrow = &mut ys[i * nrhs..(i + 1) * nrhs];
            self.row_dot_block(i, &self.entries[start..p], xs, yrow, nrhs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_graph(n: usize, m: usize, seed: u64) -> CsrMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        while edges.len() < m {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u != v {
                edges.push((u, v));
            }
        }
        CsrMatrix::from_undirected_edges(n, &edges)
    }

    fn absent_edges(a: &CsrMatrix, want: usize) -> Vec<(u32, u32)> {
        let n = a.n() as u32;
        let mut out = Vec::new();
        'outer: for u in 0..n {
            for v in (u + 1)..n {
                if !a.has_edge(u, v) {
                    out.push((u, v));
                    if out.len() == want {
                        break 'outer;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn overlay_matvec_is_bit_identical_to_materialized() {
        let a = random_graph(50, 110, 3);
        let adds = absent_edges(&a, 4);
        let overlay = EdgeOverlay::new(&a, &adds);
        let dense = a.with_added_unit_edges(&adds);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10 {
            let x: Vec<f64> = (0..50).map(|_| rng.gen::<f64>() - 0.5).collect();
            let mut y_ov = vec![0.0; 50];
            let mut y_mat = vec![0.0; 50];
            overlay.matvec(&x, &mut y_ov);
            dense.matvec(&x, &mut y_mat);
            assert_eq!(y_ov, y_mat, "overlay matvec differs from materialized CSR");
        }
    }

    #[test]
    fn overlay_block_matches_scalar_columns() {
        let a = random_graph(30, 70, 5);
        let adds = absent_edges(&a, 3);
        let overlay = EdgeOverlay::new(&a, &adds);
        let n = 30;
        let s = 7;
        let mut rng = StdRng::seed_from_u64(1);
        let xs: Vec<f64> = (0..n * s).map(|_| rng.gen::<f64>() - 0.5).collect();
        let mut ys = vec![0.0; n * s];
        overlay.matvec_block(&xs, &mut ys, s);
        for j in 0..s {
            let x: Vec<f64> = (0..n).map(|i| xs[i * s + j]).collect();
            let mut y = vec![0.0; n];
            overlay.matvec(&x, &mut y);
            for i in 0..n {
                assert_eq!(ys[i * s + j], y[i], "rhs {j} row {i}");
            }
        }
    }

    #[test]
    fn csr_block_matches_scalar_columns() {
        let a = random_graph(40, 90, 8);
        let n = 40;
        let s = 5;
        let mut rng = StdRng::seed_from_u64(2);
        let xs: Vec<f64> = (0..n * s).map(|_| rng.gen::<f64>() - 0.5).collect();
        let mut ys = vec![0.0; n * s];
        MatVec::matvec_block(&a, &xs, &mut ys, s);
        for j in 0..s {
            let x: Vec<f64> = (0..n).map(|i| xs[i * s + j]).collect();
            let y = a.matvec_alloc(&x);
            for i in 0..n {
                assert_eq!(ys[i * s + j], y[i], "rhs {j} row {i}");
            }
        }
    }

    #[test]
    fn overlay_skips_existing_and_self_edges() {
        let a = CsrMatrix::from_undirected_edges(4, &[(0, 1), (1, 2)]);
        let overlay = EdgeOverlay::new(&a, &[(0, 1), (2, 2), (2, 3), (3, 2), (2, 3)]);
        assert_eq!(overlay.num_added_edges(), 1);
        let csr = overlay.to_csr();
        assert!(csr.has_edge(2, 3));
        assert_eq!(csr.num_undirected_edges(), 3);
    }

    #[test]
    fn set_edges_reuses_buffer() {
        let a = random_graph(20, 30, 4);
        let adds = absent_edges(&a, 2);
        let mut overlay = EdgeOverlay::empty(&a);
        overlay.set_edges(&adds);
        let cap = overlay.entries.capacity();
        overlay.set_edges(&adds[..1]);
        assert_eq!(overlay.entries.capacity(), cap, "set_edges reallocated");
        assert_eq!(overlay.num_added_edges(), 1);
    }

    #[test]
    fn to_csr_equals_with_added_unit_edges() {
        let a = random_graph(25, 40, 6);
        let adds = absent_edges(&a, 5);
        assert_eq!(EdgeOverlay::new(&a, &adds).to_csr(), a.with_added_unit_edges(&adds));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_overlay_edge_panics() {
        let a = CsrMatrix::from_undirected_edges(2, &[(0, 1)]);
        EdgeOverlay::new(&a, &[(0, 7)]);
    }
}
