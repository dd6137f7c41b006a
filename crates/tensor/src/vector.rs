//! 1-D vector helpers: dot products, norms, distances and top-k selection.
//!
//! These are the primitive operations used by the clustering (`clusterkv`),
//! selection and baseline crates. All functions operate on `&[f32]` slices so
//! callers can use rows of a [`Matrix`](crate::Matrix), `Vec<f32>` or arrays
//! interchangeably.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// use clusterkv_tensor::vector::dot;
/// assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(
        a.len(),
        b.len(),
        "dot: length mismatch {} vs {}",
        a.len(),
        b.len()
    );
    let mut acc = 0.0f32;
    // Manual 4-way unroll: the hot loops of selection score thousands of
    // centroids per decoding step.
    let chunks = a.len() / 4 * 4;
    let mut i = 0;
    while i < chunks {
        acc += a[i] * b[i] + a[i + 1] * b[i + 1] + a[i + 2] * b[i + 2] + a[i + 3] * b[i + 3];
        i += 4;
    }
    while i < a.len() {
        acc += a[i] * b[i];
        i += 1;
    }
    acc
}

/// Euclidean (L2) norm of a slice.
///
/// # Examples
///
/// ```
/// use clusterkv_tensor::vector::norm;
/// assert_eq!(norm(&[3.0, 4.0]), 5.0);
/// ```
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Squared L2 distance between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn l2_distance_sq(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "l2_distance_sq: length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Cosine similarity `⟨a,b⟩ / (|a|·|b|)`.
///
/// Returns `0.0` when either vector has zero norm, which keeps the semantic
/// distance `1 - cos` well defined for degenerate inputs.
///
/// # Examples
///
/// ```
/// use clusterkv_tensor::vector::cosine_similarity;
/// let s = cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]);
/// assert!((s - 1.0).abs() < 1e-6);
/// ```
#[inline]
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    let na = norm(a);
    let nb = norm(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot(a, b) / (na * nb)
}

/// Cosine distance `1 - cosine_similarity`, the semantic distance of the
/// paper (§III-B): smaller for vectors pointing in similar directions.
#[inline]
pub fn cosine_distance(a: &[f32], b: &[f32]) -> f32 {
    1.0 - cosine_similarity(a, b)
}

/// `a += alpha * b` in place.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(a: &mut [f32], alpha: f32, b: &[f32]) {
    assert_eq!(a.len(), b.len(), "axpy: length mismatch");
    for (x, y) in a.iter_mut().zip(b) {
        *x += alpha * y;
    }
}

/// Scale a slice in place by `alpha`.
#[inline]
pub fn scale(a: &mut [f32], alpha: f32) {
    for x in a.iter_mut() {
        *x *= alpha;
    }
}

/// Normalise a slice to unit L2 norm in place. Zero vectors are left
/// untouched.
#[inline]
pub fn normalize(a: &mut [f32]) {
    let n = norm(a);
    if n > 0.0 {
        scale(a, 1.0 / n);
    }
}

/// Index of the maximum element. Returns `None` for an empty slice; NaN
/// entries are never selected over non-NaN entries.
pub fn argmax(a: &[f32]) -> Option<usize> {
    let mut best: Option<(usize, f32)> = None;
    for (i, &v) in a.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if v <= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Total descending order over the indices of `a`: larger values first, NaN
/// values (of either sign) ranked strictly last, ties broken by the lower
/// index. Being total (unlike `partial_cmp` with a NaN-to-`Equal` fallback,
/// which is not transitive and may panic `sort_by`), it is safe for every
/// `sort`/`select_nth` primitive and makes rankings of NaN-bearing scores
/// deterministic.
#[inline]
fn cmp_desc_nan_last(a: &[f32], i: usize, j: usize) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a[i].is_nan(), a[j].is_nan()) {
        (false, false) => a[j].total_cmp(&a[i]).then(i.cmp(&j)),
        (true, true) => i.cmp(&j),
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
    }
}

/// Indices of the `k` largest elements, in descending order of value.
///
/// When `k >= a.len()` all indices are returned. Ties are broken by the lower
/// index first so the result is deterministic; NaN entries rank strictly
/// last, so they are only emitted once every finite value is exhausted.
///
/// Uses `select_nth_unstable_by` partial selection: the `O(n)` partition
/// moves the top `k` to the front and only that prefix is sorted, so a
/// per-step top-k over a long context costs `O(n + k log k)` rather than a
/// full `O(n log n)` argsort (see the `top_k` group in
/// `crates/bench/benches/microbench.rs`).
///
/// # Examples
///
/// ```
/// use clusterkv_tensor::vector::top_k_indices;
/// assert_eq!(top_k_indices(&[0.1, 0.9, 0.5], 2), vec![1, 2]);
/// ```
pub fn top_k_indices(a: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..a.len()).collect();
    let k = k.min(a.len());
    if k == 0 {
        return Vec::new();
    }
    if k < idx.len() {
        idx.select_nth_unstable_by(k - 1, |&i, &j| cmp_desc_nan_last(a, i, j));
        idx.truncate(k);
    }
    idx.sort_unstable_by(|&i, &j| cmp_desc_nan_last(a, i, j));
    idx
}

/// Indices sorted by descending value (a full argsort); used when the caller
/// needs the complete importance ranking rather than only the top-k. NaN
/// entries rank strictly last, ties break toward the lower index.
pub fn argsort_descending(a: &[f32]) -> Vec<usize> {
    let mut idx = Vec::new();
    argsort_descending_into(a, &mut idx);
    idx
}

/// [`argsort_descending`] into a caller-owned buffer (cleared, then filled):
/// the zero-allocation variant the selection hot path uses with a reusable
/// [`Workspace`](crate::kernels::Workspace) index buffer.
pub fn argsort_descending_into(a: &[f32], idx: &mut Vec<usize>) {
    idx.clear();
    idx.extend(0..a.len());
    idx.sort_unstable_by(|&i, &j| cmp_desc_nan_last(a, i, j));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dot_handles_non_multiple_of_four_lengths() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [1.0, 1.0, 1.0, 1.0, 1.0];
        assert_eq!(dot(&a, &b), 15.0);
    }

    #[test]
    fn cosine_of_zero_vector_is_zero() {
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
        assert_eq!(cosine_distance(&[0.0, 0.0], &[1.0, 2.0]), 1.0);
    }

    #[test]
    fn cosine_distance_of_parallel_vectors_is_zero() {
        let a = [2.0, 4.0, 6.0];
        let b = [1.0, 2.0, 3.0];
        assert!(cosine_distance(&a, &b).abs() < 1e-6);
    }

    #[test]
    fn cosine_distance_of_opposite_vectors_is_two() {
        let a = [1.0, 0.0];
        let b = [-1.0, 0.0];
        assert!((cosine_distance(&a, &b) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn argmax_basic() {
        let v = [3.0, -1.0, 7.0, 2.0];
        assert_eq!(argmax(&v), Some(2));
        assert_eq!(argmax(&[] as &[f32]), None);
    }

    #[test]
    fn argmax_skips_nan() {
        let v = [1.0, f32::NAN, 0.5];
        assert_eq!(argmax(&v), Some(0));
    }

    #[test]
    fn top_k_returns_descending_order() {
        let v = [0.2, 0.9, 0.4, 0.7];
        assert_eq!(top_k_indices(&v, 3), vec![1, 3, 2]);
        assert_eq!(top_k_indices(&v, 10), vec![1, 3, 2, 0]);
        assert_eq!(top_k_indices(&v, 0), Vec::<usize>::new());
    }

    #[test]
    fn top_k_breaks_ties_by_lower_index() {
        let v = [0.5, 0.5, 0.5];
        assert_eq!(top_k_indices(&v, 2), vec![0, 1]);
    }

    #[test]
    fn top_k_ranks_nan_strictly_last() {
        let v = [1.0, f32::NAN, 2.0, -f32::NAN, 0.5];
        // Finite values fill the top-k before any NaN appears.
        assert_eq!(top_k_indices(&v, 2), vec![2, 0]);
        assert_eq!(top_k_indices(&v, 3), vec![2, 0, 4]);
        // Asking for more than the finite count appends NaNs, lower index
        // first, regardless of NaN sign.
        assert_eq!(top_k_indices(&v, 5), vec![2, 0, 4, 1, 3]);
        assert_eq!(argsort_descending(&v), vec![2, 0, 4, 1, 3]);
    }

    #[test]
    fn all_nan_scores_rank_by_index() {
        let v = [f32::NAN; 4];
        assert_eq!(top_k_indices(&v, 2), vec![0, 1]);
        assert_eq!(argsort_descending(&v), vec![0, 1, 2, 3]);
    }

    #[test]
    fn nan_heavy_inputs_never_panic_the_sort() {
        // The previous comparator (`partial_cmp().unwrap_or(Equal)`) was not
        // a total order, for which `sort_by` may panic ("user-provided
        // comparison function does not correctly implement a total order").
        // Exercise many NaN/finite interleavings to pin the fix.
        for n in [3usize, 17, 64, 257] {
            let v: Vec<f32> = (0..n)
                .map(|i| {
                    if i % 3 == 0 {
                        f32::NAN
                    } else {
                        (i as f32 * 7.3) % 5.0 - 2.5
                    }
                })
                .collect();
            for k in [1, 2, n / 2, n] {
                let idx = top_k_indices(&v, k);
                assert_eq!(idx.len(), k.min(n));
                let unique: std::collections::HashSet<_> = idx.iter().collect();
                assert_eq!(unique.len(), idx.len());
                // Deterministic: a second ranking is identical.
                assert_eq!(idx, top_k_indices(&v, k));
            }
        }
    }

    #[test]
    fn partial_selection_matches_full_argsort_prefix() {
        let v: Vec<f32> = (0..512)
            .map(|i| ((i * 37) % 101) as f32 * 0.7 - 30.0)
            .collect();
        let full = argsort_descending(&v);
        for k in [1usize, 7, 32, 100, 511, 512] {
            assert_eq!(top_k_indices(&v, k), full[..k.min(v.len())]);
        }
    }

    #[test]
    fn normalize_makes_unit_norm() {
        let mut v = vec![3.0f32, 4.0];
        normalize(&mut v);
        assert!((norm(&v) - 1.0).abs() < 1e-6);
        let mut z = vec![0.0f32, 0.0];
        normalize(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    proptest! {
        #[test]
        fn dot_is_commutative(a in proptest::collection::vec(-10.0f32..10.0, 1..64)) {
            let b: Vec<f32> = a.iter().rev().cloned().collect();
            prop_assert!((dot(&a, &b) - dot(&b, &a)).abs() < 1e-3);
        }

        #[test]
        fn cosine_similarity_is_bounded(
            a in proptest::collection::vec(-10.0f32..10.0, 1..32),
            b in proptest::collection::vec(-10.0f32..10.0, 1..32),
        ) {
            let n = a.len().min(b.len());
            let s = cosine_similarity(&a[..n], &b[..n]);
            prop_assert!((-1.0 - 1e-4..=1.0 + 1e-4).contains(&s));
        }

        #[test]
        fn top_k_indices_are_unique_and_sorted_by_value(
            v in proptest::collection::vec(-100.0f32..100.0, 1..64),
            k in 1usize..64,
        ) {
            let idx = top_k_indices(&v, k);
            prop_assert_eq!(idx.len(), k.min(v.len()));
            let mut seen = std::collections::HashSet::new();
            for w in idx.windows(2) {
                prop_assert!(v[w[0]] >= v[w[1]]);
            }
            for &i in &idx {
                prop_assert!(seen.insert(i));
            }
        }

        #[test]
        fn norm_is_non_negative(a in proptest::collection::vec(-10.0f32..10.0, 0..32)) {
            prop_assert!(norm(&a) >= 0.0);
        }
    }
}
