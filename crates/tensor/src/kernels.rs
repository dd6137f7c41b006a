//! Blocked, zero-allocation kernels for the decode hot path.
//!
//! The scalar helpers in [`vector`](crate::vector) walk one row at a time and
//! return freshly allocated `Vec`s — fine for experiments, too slow for the
//! serving hot loop, where every decode step scores centroids, ranks them,
//! gathers the selected KV and reduces it. This module provides the same
//! operations as *blocked* kernels that
//!
//! 1. write into caller-owned buffers (a [`Workspace`]), so steady-state
//!    decode performs no heap allocation in the attention/selection loop, and
//! 2. break the floating-point dependency chain of the naive dot product
//!    with [`LANES`] independent accumulators, which lets the compiler
//!    autovectorize the inner loop (one `f32` FMA chain per cycle becomes a
//!    full SIMD register per cycle).
//!
//! # Numerics contract
//!
//! Every kernel computes each output element with a **canonical per-row
//! arithmetic order** that depends only on the row's data and the operand
//! vector — never on which rows share a block, which chunk of a parallel
//! split the row landed in, or whether the row was addressed contiguously or
//! through a gather index. Consequences the rest of the workspace relies on:
//!
//! * gathering rows `[0, 1, …, n-1]` is bit-identical to the contiguous
//!   no-index path (`attend_full` == `attend_selected` over all indices);
//! * chunked parallel sweeps are bit-identical at every thread count
//!   (DESIGN.md §4);
//! * results *differ* from the scalar `*_reference` kernels (a different —
//!   but fixed — summation order), which is why the references are kept:
//!   property tests pin `blocked == reference` within `1e-5` relative error
//!   (see `blocked_matches_reference_*` below and DESIGN.md §6).

use crate::matrix::Matrix;
use crate::ops::softmax_in_place;

/// Independent accumulator lanes of the blocked dot product. Eight `f32`
/// lanes fill two SSE / one AVX register and break the add chain enough for
/// the compiler to keep one FMA port busy.
pub const LANES: usize = 8;

/// Reusable scratch buffers for the decode hot path.
///
/// One `Workspace` belongs to one *worker*: a serving session owns one per
/// attention head (heads run data-parallel), each `ClusterKV` selector owns
/// one for its k-means sweeps and centroid scoring, and benches own one per
/// measurement loop. Buffers only ever grow — after a warm-up step their
/// capacity covers the steady state and the kernels below stop allocating
/// (asserted by the counting-allocator test `tests/zero_alloc.rs` at the
/// workspace root — it also drives the kvcache/model layers, so it cannot
/// live inside this crate).
///
/// Fields are plain public buffers rather than an opaque arena so callers
/// can split disjoint `&mut` borrows (e.g. score into `scores` while the
/// ranking lives in `idx`).
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// Selection scores / attention logits (one per scored row).
    pub scores: Vec<f32>,
    /// Attention weights (post-softmax logits).
    pub weights: Vec<f32>,
    /// Dense output vector (attention output, projection result).
    pub out: Vec<f32>,
    /// Projected query of the current step.
    pub q: Vec<f32>,
    /// Cached squared row norms (`‖x‖²`).
    pub row_norms: Vec<f32>,
    /// Cached squared centroid norms (`‖c‖²`) or their square roots.
    pub centroid_norms: Vec<f32>,
    /// Index scratch (rankings, orderings).
    pub idx: Vec<usize>,
    /// Label scratch for assignment sweeps; cluster ids picked by the
    /// selection and lookahead passes.
    pub labels: Vec<usize>,
    /// Token positions picked by the selection fill.
    pub tokens: Vec<usize>,
    /// Dense membership bitmap (one bit each): the token positions the
    /// selection fill has already emitted; the operand rows a compressed
    /// plan's pages have written.
    pub seen: Vec<u64>,
    /// Token position → operand row of the selection a compressed plan is
    /// attending, `usize::MAX` for every other position. Kept across calls:
    /// a call resets the entries it set, so the table is all-`MAX` again
    /// whenever it returns and is never cleared as a whole.
    pub row_of: Vec<usize>,
    /// Key operand of a compressed plan's attention, one row per selected
    /// token: dequantized from the token's page, or copied from the exact
    /// store where no page covers it. Every row is written by the call that
    /// shapes the matrix; nothing is carried over from the previous one.
    pub k_rows: Matrix,
    /// Value operand, aligned with `k_rows`.
    pub v_rows: Matrix,
    /// Per-cluster running sums of a k-means update step (`C × d`, flat).
    pub sums: Vec<f32>,
    /// Per-cluster member counts of a k-means update step.
    pub counts: Vec<usize>,
}

impl Workspace {
    /// A fresh workspace with no capacity (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Total heap capacity currently held by the workspace, in bytes. Stable
    /// across steady-state decode steps — the workspace-reuse tests watch
    /// this to pin the "no allocation in the hot loop" property.
    pub fn allocated_bytes(&self) -> usize {
        std::mem::size_of::<f32>()
            * (self.scores.capacity()
                + self.weights.capacity()
                + self.out.capacity()
                + self.q.capacity()
                + self.row_norms.capacity()
                + self.centroid_norms.capacity()
                + self.k_rows.capacity()
                + self.v_rows.capacity()
                + self.sums.capacity())
            + std::mem::size_of::<usize>()
                * (self.idx.capacity()
                    + self.row_of.capacity()
                    + self.labels.capacity()
                    + self.tokens.capacity()
                    + self.counts.capacity())
            + std::mem::size_of::<u64>() * self.seen.capacity()
    }
}

/// Blocked dot product: [`LANES`] independent accumulator chains over the
/// bulk, a scalar tail, and a fixed-order lane reduction.
///
/// This is the canonical per-row arithmetic of every kernel in this module.
/// It is *not* bit-identical to [`dot`](crate::vector::dot) (different
/// summation order); it is bit-identical to itself for a given `(a, b)`
/// whatever the surrounding blocking or chunking.
///
/// # Panics
///
/// Panics if the slices have different lengths.
// analyzer: hot-path — zero-allocation contract (tests/zero_alloc.rs)
#[inline(always)]
pub fn dot_blocked(a: &[f32], b: &[f32]) -> f32 {
    assert!(a.len() == b.len(), "dot_blocked: length mismatch");
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        // Fixed-size array views: the compiler sees the exact extent and
        // vectorizes the lane loop without bounds checks (measured ~30%
        // faster than slice indexing at d = 64).
        let xa: &[f32; LANES] = xa.try_into().expect("chunks_exact yields LANES");
        let xb: &[f32; LANES] = xb.try_into().expect("chunks_exact yields LANES");
        for l in 0..LANES {
            acc[l] += xa[l] * xb[l];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    // Fixed-order pairwise reduction of the lanes.
    let s0 = (acc[0] + acc[4]) + (acc[2] + acc[6]);
    let s1 = (acc[1] + acc[5]) + (acc[3] + acc[7]);
    (s0 + s1) + tail
}

/// Squared L2 norm `‖a‖²` with the blocked accumulation order.
// analyzer: hot-path — zero-allocation contract (tests/zero_alloc.rs)
#[inline]
pub fn norm_sq(a: &[f32]) -> f32 {
    dot_blocked(a, a)
}

/// `v · m[rows]ᵀ` into `out`: one blocked dot per row of the half-open row
/// range, overwriting `out` (cleared, then filled; no allocation once
/// `out.capacity()` covers the range).
///
/// # Panics
///
/// Panics if `v.len() != m.cols()` or the range exceeds `m.rows()`.
// analyzer: hot-path — zero-allocation contract (tests/zero_alloc.rs)
pub fn matvec_rows_into(m: &Matrix, rows: std::ops::Range<usize>, v: &[f32], out: &mut Vec<f32>) {
    assert_eq!(v.len(), m.cols(), "matvec_rows_into: dim mismatch");
    assert!(rows.end <= m.rows(), "matvec_rows_into: row range oob");
    let d = m.cols();
    let data = m.as_slice();
    out.clear();
    out.reserve(rows.len());
    for r in rows {
        out.push(dot_blocked(&data[r * d..(r + 1) * d], v));
    }
}

/// `v · mᵀ` into `out` — the blocked replacement for
/// [`Matrix::matvec_t`], covering every row.
// analyzer: hot-path — zero-allocation contract (tests/zero_alloc.rs)
pub fn matvec_t_into(m: &Matrix, v: &[f32], out: &mut Vec<f32>) {
    matvec_rows_into(m, 0..m.rows(), v, out);
}

/// `v · m[rows]ᵀ` with the row range split into **constant-size** chunks
/// fanned across the thread pool — the one implementation of the
/// determinism-critical pattern every parallel scoring/projection sweep
/// uses (`select_clusters`, the serving projections). Chunk boundaries
/// depend only on `chunk_rows` (never on the thread count) and per-row
/// arithmetic is canonical, so the result is bit-identical at every
/// `RAYON_NUM_THREADS`. At or below `chunk_rows` rows the sweep stays
/// sequential on the calling thread; above it, each chunk carries its own
/// per-worker output buffer.
///
/// # Panics
///
/// Panics if `chunk_rows == 0`, `v.len() != m.cols()` or the range exceeds
/// `m.rows()`.
pub fn par_matvec_rows(
    m: &Matrix,
    rows: std::ops::Range<usize>,
    v: &[f32],
    chunk_rows: usize,
) -> Vec<f32> {
    use rayon::prelude::*;
    assert!(chunk_rows > 0, "par_matvec_rows: chunk_rows must be > 0");
    let n = rows.len();
    if n <= chunk_rows {
        let mut out = Vec::with_capacity(n);
        matvec_rows_into(m, rows, v, &mut out);
        return out;
    }
    let end = rows.end;
    let starts: Vec<usize> = (rows.start..end).step_by(chunk_rows).collect();
    let chunks: Vec<Vec<f32>> = starts
        .into_par_iter()
        .with_min_len(1)
        .map(|start| {
            let stop = (start + chunk_rows).min(end);
            let mut part = Vec::with_capacity(stop - start);
            matvec_rows_into(m, start..stop, v, &mut part);
            part
        })
        .collect();
    chunks.concat()
}

/// Fused gather + scoring: `out[j] = m.row(indices[j]) · v`, without
/// materializing the gathered rows. Per-row arithmetic is identical to
/// [`matvec_t_into`], so gathering `[0..n]` reproduces it bit-for-bit.
///
/// # Panics
///
/// Panics if `v.len() != m.cols()` or an index is out of bounds.
// analyzer: hot-path — zero-allocation contract (tests/zero_alloc.rs)
pub fn gather_matvec_t_into(m: &Matrix, indices: &[usize], v: &[f32], out: &mut Vec<f32>) {
    assert_eq!(v.len(), m.cols(), "gather_matvec_t_into: dim mismatch");
    out.clear();
    out.reserve(indices.len());
    for &i in indices {
        out.push(dot_blocked(m.row(i), v));
    }
}

/// Squared row norms `‖m.row(i)‖²` into `out` (blocked accumulation order).
// analyzer: hot-path — zero-allocation contract (tests/zero_alloc.rs)
pub fn row_norms_sq_into(m: &Matrix, out: &mut Vec<f32>) {
    let d = m.cols();
    let data = m.as_slice();
    out.clear();
    out.reserve(m.rows());
    for r in 0..m.rows() {
        let row = &data[r * d..(r + 1) * d];
        out.push(dot_blocked(row, row));
    }
}

/// Number of value rows one pass of the blocked weighted sum consumes.
const WSUM_BLOCK: usize = 4;

/// Weighted sum of (optionally gathered) rows of `m` into `out`:
/// `out = Σ_j weights[j] · m.row(index_of(j))`, blocked four rows per pass.
///
/// The per-element accumulation order depends only on the *sequence* of
/// (weight, row) pairs — identical for the gather and contiguous paths, so
/// `attend_full` and `attend_selected` over all indices agree bit-for-bit.
/// `out` is overwritten (resized to `m.cols()`, no allocation once capacity
/// covers it).
///
/// # Panics
///
/// Panics if `indices` (when given) and `weights` differ in length, or an
/// index is out of bounds.
// analyzer: hot-path — zero-allocation contract (tests/zero_alloc.rs)
pub fn weighted_sum_rows_into(
    m: &Matrix,
    indices: Option<&[usize]>,
    weights: &[f32],
    out: &mut Vec<f32>,
) {
    if let Some(ix) = indices {
        assert_eq!(
            ix.len(),
            weights.len(),
            "weighted_sum_rows_into: index/weight count mismatch"
        );
    } else {
        assert!(
            weights.len() <= m.rows(),
            "weighted_sum_rows_into: more weights than rows"
        );
    }
    let d = m.cols();
    out.clear();
    out.resize(d, 0.0);
    weighted_sum_rows_core(m, indices, weights, out);
}

/// The single copy of the order-sensitive blocked accumulation both
/// [`weighted_sum_rows_into`] and [`attend_into`] run: `out` (length
/// `m.cols()`, pre-zeroed by the caller) accumulates four (weight, row)
/// pairs per pass, then a row-sequential tail — so the per-element order
/// depends only on the pair sequence, never on blocking or on whether `out`
/// is an owned `Vec` or a slice of a concat buffer.
// analyzer: hot-path — zero-allocation contract (tests/zero_alloc.rs)
fn weighted_sum_rows_core(m: &Matrix, indices: Option<&[usize]>, weights: &[f32], out: &mut [f32]) {
    let row_of = |j: usize| -> &[f32] {
        match indices {
            Some(ix) => m.row(ix[j]),
            None => m.row(j),
        }
    };
    let n = weights.len();
    let blocks = n / WSUM_BLOCK * WSUM_BLOCK;
    let mut j = 0;
    while j < blocks {
        let (w0, w1, w2, w3) = (weights[j], weights[j + 1], weights[j + 2], weights[j + 3]);
        let (r0, r1, r2, r3) = (row_of(j), row_of(j + 1), row_of(j + 2), row_of(j + 3));
        for (e, o) in out.iter_mut().enumerate() {
            *o += w0 * r0[e] + w1 * r1[e] + w2 * r2[e] + w3 * r3[e];
        }
        j += WSUM_BLOCK;
    }
    while j < n {
        let w = weights[j];
        let r = row_of(j);
        for (o, x) in out.iter_mut().zip(r) {
            *o += w * x;
        }
        j += 1;
    }
}

/// Scaled-dot-product attention weights over (optionally gathered) key rows:
/// `softmax(q · K_Sᵀ / √d)` into `weights` — the blocked, buffer-reusing
/// replacement for [`attention_weights`](crate::ops::attention_weights).
///
/// # Panics
///
/// Panics if `q.len() != keys.cols()` or an index is out of bounds.
// analyzer: hot-path — zero-allocation contract (tests/zero_alloc.rs)
pub fn attention_weights_into(
    keys: &Matrix,
    indices: Option<&[usize]>,
    q: &[f32],
    weights: &mut Vec<f32>,
) {
    match indices {
        Some(ix) => gather_matvec_t_into(keys, ix, q, weights),
        None => matvec_t_into(keys, q, weights),
    }
    let scale = 1.0 / (q.len() as f32).sqrt();
    for w in weights.iter_mut() {
        *w *= scale;
    }
    softmax_in_place(weights);
}

/// Fused single-head attention over (optionally gathered) KV rows:
/// computes `weights = softmax(q·K_Sᵀ/√d)` and `out = weights · V_S` without
/// materializing gathered rows or allocating. `out` must have length
/// `values.cols()` (e.g. one head's slice of a concat buffer).
///
/// # Panics
///
/// Panics if shapes disagree or an index is out of bounds.
// analyzer: hot-path — zero-allocation contract (tests/zero_alloc.rs)
pub fn attend_into(
    keys: &Matrix,
    values: &Matrix,
    indices: Option<&[usize]>,
    q: &[f32],
    weights: &mut Vec<f32>,
    out: &mut [f32],
) {
    assert_eq!(
        keys.shape(),
        values.shape(),
        "attend_into: key/value shape mismatch"
    );
    assert_eq!(out.len(), values.cols(), "attend_into: output dim mismatch");
    attention_weights_into(keys, indices, q, weights);
    out.fill(0.0);
    weighted_sum_rows_core(values, indices, weights, out);
}

// ---------------------------------------------------------------------------
// Reference kernels: the straight-line scalar implementations the blocked
// kernels replaced. Kept (not cfg(test)-gated) so property tests and the
// `exp_hotpath` / criterion benches can compare against them on identical
// data.
// ---------------------------------------------------------------------------

/// Scalar reference for [`matvec_t_into`]: one [`dot`](crate::vector::dot)
/// per row, collected into a fresh `Vec` — exactly the pre-kernel-layer
/// `Matrix::matvec_t`.
pub fn matvec_t_reference(m: &Matrix, v: &[f32]) -> Vec<f32> {
    assert_eq!(v.len(), m.cols(), "matvec_t_reference: dim mismatch");
    m.iter_rows().map(|r| crate::vector::dot(r, v)).collect()
}

/// Scalar reference for the gather + scoring fusion: materializes nothing
/// but scores with the scalar `dot`, allocating the score vector.
pub fn gather_matvec_t_reference(m: &Matrix, indices: &[usize], v: &[f32]) -> Vec<f32> {
    assert_eq!(v.len(), m.cols(), "gather_matvec_t_reference: dim mismatch");
    indices
        .iter()
        .map(|&i| crate::vector::dot(m.row(i), v))
        .collect()
}

/// Scalar reference for [`weighted_sum_rows_into`]: row-sequential `axpy`
/// accumulation (the pre-kernel `ops::weighted_sum` order).
pub fn weighted_sum_rows_reference(
    m: &Matrix,
    indices: Option<&[usize]>,
    weights: &[f32],
) -> Vec<f32> {
    let mut out = vec![0.0f32; m.cols()];
    for (j, &w) in weights.iter().enumerate() {
        let row = match indices {
            Some(ix) => m.row(ix[j]),
            None => m.row(j),
        };
        crate::vector::axpy(&mut out, w, row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{gaussian_vec, seeded};
    use proptest::prelude::*;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = seeded(seed);
        Matrix::from_flat(rows, cols, gaussian_vec(&mut rng, rows * cols, 0.0, 1.0)).unwrap()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            let scale = x.abs().max(y.abs()).max(1.0);
            assert!(
                (x - y).abs() <= tol * scale,
                "element {i}: {x} vs {y} (tol {tol})"
            );
        }
    }

    #[test]
    fn dot_blocked_matches_scalar_dot() {
        for len in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 257] {
            let mut rng = seeded(len as u64 + 1);
            let a = gaussian_vec(&mut rng, len, 0.0, 1.0);
            let b = gaussian_vec(&mut rng, len, 0.0, 1.0);
            let blocked = dot_blocked(&a, &b);
            let scalar = crate::vector::dot(&a, &b);
            let scale = scalar.abs().max(1.0);
            assert!(
                (blocked - scalar).abs() <= 1e-5 * scale,
                "len {len}: {blocked} vs {scalar}"
            );
        }
    }

    #[test]
    #[should_panic]
    fn dot_blocked_length_mismatch_panics() {
        dot_blocked(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    fn matvec_exact_small_integers() {
        // Integer-valued data: every summation order is exact, so blocked
        // equals reference bit-for-bit.
        let m = Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![-4.0, 5.0, 0.5]]).unwrap();
        let v = [2.0, 1.0, 2.0];
        let mut out = Vec::new();
        matvec_t_into(&m, &v, &mut out);
        assert_eq!(out, vec![10.0, -2.0]);
        assert_eq!(out, matvec_t_reference(&m, &v));
    }

    #[test]
    fn gather_identity_is_bit_identical_to_contiguous() {
        let m = random_matrix(37, 19, 3);
        let v = gaussian_vec(&mut seeded(4), 19, 0.0, 1.0);
        let identity: Vec<usize> = (0..m.rows()).collect();
        let mut a = Vec::new();
        let mut b = Vec::new();
        matvec_t_into(&m, &v, &mut a);
        gather_matvec_t_into(&m, &identity, &v, &mut b);
        // Bit-identical, not merely close: the per-row arithmetic is the
        // same function of (row, v) on both paths.
        assert_eq!(a, b);
    }

    #[test]
    fn weighted_sum_gather_identity_is_bit_identical() {
        let m = random_matrix(23, 8, 5);
        let w = gaussian_vec(&mut seeded(6), 23, 0.0, 1.0);
        let identity: Vec<usize> = (0..23).collect();
        let mut a = Vec::new();
        let mut b = Vec::new();
        weighted_sum_rows_into(&m, None, &w, &mut a);
        weighted_sum_rows_into(&m, Some(&identity), &w, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn attend_into_matches_reference_pipeline() {
        let keys = random_matrix(40, 16, 7);
        let values = random_matrix(40, 16, 8);
        let q = gaussian_vec(&mut seeded(9), 16, 0.0, 1.0);
        let indices: Vec<usize> = vec![3, 0, 17, 39, 21];
        let mut weights = Vec::new();
        let mut out = vec![0.0f32; 16];
        attend_into(&keys, &values, Some(&indices), &q, &mut weights, &mut out);
        // Reference: scalar logits -> softmax -> row-sequential axpy.
        let mut ref_logits = gather_matvec_t_reference(&keys, &indices, &q);
        let scale = 1.0 / (16f32).sqrt();
        for l in ref_logits.iter_mut() {
            *l *= scale;
        }
        softmax_in_place(&mut ref_logits);
        assert_close(&weights, &ref_logits, 1e-5);
        let ref_out = weighted_sum_rows_reference(&values, Some(&indices), &ref_logits);
        assert_close(&out, &ref_out, 1e-4);
        assert!((weights.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn workspace_reuse_keeps_capacity_stable() {
        let m = random_matrix(256, 32, 10);
        let v = gaussian_vec(&mut seeded(11), 32, 0.0, 1.0);
        let mut ws = Workspace::new();
        matvec_t_into(&m, &v, &mut ws.scores);
        row_norms_sq_into(&m, &mut ws.row_norms);
        let warm = ws.allocated_bytes();
        assert!(warm > 0);
        for _ in 0..50 {
            matvec_t_into(&m, &v, &mut ws.scores);
            row_norms_sq_into(&m, &mut ws.row_norms);
        }
        assert_eq!(ws.allocated_bytes(), warm, "steady state must not grow");
    }

    #[test]
    fn row_norms_match_per_row_norm_sq() {
        let m = random_matrix(17, 9, 12);
        let mut norms = Vec::new();
        row_norms_sq_into(&m, &mut norms);
        for (i, row) in m.iter_rows().enumerate() {
            assert_eq!(norms[i], norm_sq(row));
        }
    }

    proptest! {
        #[test]
        fn blocked_matches_reference_matvec(
            rows in 1usize..24,
            cols in 1usize..48,
            seed in 0u64..500,
        ) {
            let m = random_matrix(rows, cols, seed);
            let v = gaussian_vec(&mut seeded(seed ^ 0xFFFF), cols, 0.0, 1.0);
            let mut blocked = Vec::new();
            matvec_t_into(&m, &v, &mut blocked);
            let reference = matvec_t_reference(&m, &v);
            prop_assert_eq!(blocked.len(), reference.len());
            for (b, r) in blocked.iter().zip(&reference) {
                let scale = b.abs().max(r.abs()).max(1.0);
                prop_assert!((b - r).abs() <= 1e-5 * scale, "{} vs {}", b, r);
            }
        }

        #[test]
        fn blocked_matches_reference_weighted_sum(
            rows in 1usize..24,
            cols in 1usize..32,
            seed in 0u64..500,
        ) {
            let m = random_matrix(rows, cols, seed);
            let w = gaussian_vec(&mut seeded(seed ^ 0xABCD), rows, 0.0, 0.5);
            let mut blocked = Vec::new();
            weighted_sum_rows_into(&m, None, &w, &mut blocked);
            let reference = weighted_sum_rows_reference(&m, None, &w);
            for (b, r) in blocked.iter().zip(&reference) {
                let scale = b.abs().max(r.abs()).max(1.0);
                prop_assert!((b - r).abs() <= 1e-4 * scale, "{} vs {}", b, r);
            }
        }

        #[test]
        fn gather_subset_matches_per_row_dots(
            rows in 1usize..24,
            cols in 1usize..32,
            picks in proptest::collection::vec(0usize..24, 0..16),
            seed in 0u64..200,
        ) {
            let m = random_matrix(rows, cols, seed);
            let v = gaussian_vec(&mut seeded(seed ^ 0x1234), cols, 0.0, 1.0);
            let indices: Vec<usize> = picks.into_iter().map(|p| p % rows).collect();
            let mut out = Vec::new();
            gather_matvec_t_into(&m, &indices, &v, &mut out);
            prop_assert_eq!(out.len(), indices.len());
            for (j, &i) in indices.iter().enumerate() {
                prop_assert_eq!(out[j], dot_blocked(m.row(i), &v));
            }
        }
    }
}
