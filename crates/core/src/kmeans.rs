//! K-means clustering over key vectors.
//!
//! The paper applies "a simple K-means algorithm" (§III-B): initial centroids
//! are chosen from the key vectors themselves, then assignment and update
//! steps alternate until the assignment no longer changes. The assignment
//! step uses the configured semantic distance (cosine by default); the update
//! step takes the mean of the keys assigned to each centroid — exactly what
//! the custom centroid-update CUDA kernel of §IV-B computes, here implemented
//! as a parallel CPU reduction.
//!
//! The assignment sweep is a blocked Gram-trick kernel (DESIGN.md §6): each
//! row scores every centroid with one blocked matvec
//! ([`matvec_t_into`]) and the
//! distance is reconstructed from the inner product and **cached squared
//! norms** (`‖x−c‖² = ‖x‖² − 2x·c + ‖c‖²`;
//! [`DistanceMetric::distance_from_parts`]). Row norms are computed once per
//! fit — or passed in by callers that maintain them incrementally
//! ([`fit_with_norms`](KMeans::fit_with_norms)) — instead of once per
//! row-centroid *pair* per iteration, which is what the naive
//! `metric.distance` sweep costs under the cosine metric (three dot products
//! per pair). The naive sweep survives as [`assign_labels_reference`] for
//! property tests and the `exp_hotpath` speedup gate.
//!
//! One deliberate deviation from the paper: instead of sampling the initial
//! centroids uniformly at random, the first centroid is sampled randomly
//! (seeded) and the remaining ones are chosen by farthest-first traversal
//! (k-means++-style). This costs the same `O(k·L·d)` as one assignment pass,
//! is deterministic for a fixed seed, and avoids the degenerate local minima
//! that uniform sampling occasionally produces for small `k`.

use crate::distance::DistanceMetric;
use clusterkv_tensor::kernels::{matvec_t_into, row_norms_sq_into, Workspace};
use clusterkv_tensor::rng::{sample_index, seeded};
use clusterkv_tensor::vector::{argmax, axpy, scale};
use clusterkv_tensor::Matrix;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Fewest rows worth a worker of its own in the assignment sweep: one row's
/// assignment is `O(C·d)`, cheap enough that splitting a small prompt's keys
/// across threads costs more than it saves.
const ASSIGN_MIN_ROWS_PER_WORKER: usize = 64;

/// Result of running k-means on a set of key vectors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Clustering {
    /// Cluster centroids (`C × d`).
    pub centroids: Matrix,
    /// Cached squared norms `‖c‖²` of the final centroids, aligned with the
    /// rows of `centroids`. Callers that keep centroids around
    /// (`SemanticClustering`) cache these so later Gram-trick scoring never
    /// recomputes them.
    pub centroid_norms: Vec<f32>,
    /// Cluster label of every input row.
    pub labels: Vec<usize>,
    /// Number of assignment/update iterations performed.
    pub iterations: usize,
    /// Whether the assignment converged before the iteration cap.
    pub converged: bool,
}

impl Clustering {
    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.centroids.rows()
    }

    /// An empty clustering over vectors of dimension `dim`.
    pub fn empty(dim: usize) -> Self {
        Self {
            centroids: Matrix::zeros(0, dim),
            centroid_norms: Vec::new(),
            labels: Vec::new(),
            iterations: 0,
            converged: true,
        }
    }
}

/// Predigest the per-centroid norm column for one assignment sweep: the
/// cosine metric consumes `‖c‖` (square roots taken once per centroid per
/// iteration instead of once per pair), L2 consumes `‖c‖²` as-is, and the
/// inner product needs no norms at all.
fn predigest_centroid_norms(metric: DistanceMetric, norms_sq: &mut [f32]) {
    if metric == DistanceMetric::Cosine {
        for n in norms_sq.iter_mut() {
            *n = n.sqrt();
        }
    }
}

/// Label of one row given its centroid inner products and predigested norms.
/// Mirrors [`DistanceMetric::nearest`]: ties break toward the lower index,
/// NaN distances are never selected, an all-NaN row falls back to cluster 0.
#[inline]
fn label_of_row(metric: DistanceMetric, scores: &[f32], row_norm_sq: f32, cnorms: &[f32]) -> usize {
    let row_norm = match metric {
        DistanceMetric::Cosine => row_norm_sq.sqrt(),
        _ => row_norm_sq,
    };
    let mut best: Option<(usize, f32)> = None;
    for (c, &s) in scores.iter().enumerate() {
        let d = match metric {
            DistanceMetric::Cosine => {
                let denom = row_norm * cnorms[c];
                if denom == 0.0 {
                    1.0
                } else {
                    1.0 - s / denom
                }
            }
            DistanceMetric::L2 => row_norm_sq - 2.0 * s + cnorms[c],
            DistanceMetric::InnerProduct => -s,
        };
        if d.is_nan() {
            continue;
        }
        match best {
            Some((_, bd)) if d >= bd => {}
            _ => best = Some((c, d)),
        }
    }
    best.map(|(c, _)| c).unwrap_or(0)
}

/// Blocked Gram-trick assignment sweep: the label of every row of `keys`
/// under `metric`, given cached squared row norms. Per-row arithmetic is
/// canonical (one blocked matvec per row), so the labeling is identical
/// however the rows are split across workers. `ws` provides the score
/// scratch of the sequential path; parallel workers carry their own.
///
/// # Panics
///
/// Panics if `row_norms.len() != keys.rows()` or the dimensionalities of
/// `keys` and `centroids` differ.
pub fn assign_labels(
    metric: DistanceMetric,
    keys: &Matrix,
    row_norms: &[f32],
    centroids: &Matrix,
    ws: &mut Workspace,
) -> Vec<usize> {
    let mut labels = vec![0; keys.rows()];
    assign_labels_into(metric, keys, row_norms, centroids, ws, &mut labels);
    labels
}

/// [`assign_labels`] into a caller-owned buffer of `keys.rows()` labels —
/// what the k-means loop sweeps with, so an iteration allocates nothing on
/// one worker. Rows fan out only when the caller is not already inside a
/// parallel region (the serving engine clusters inside its per-KV-head
/// fan-out) and more than one worker is available; each worker then labels
/// one contiguous share of the rows with its own score scratch.
fn assign_labels_into(
    metric: DistanceMetric,
    keys: &Matrix,
    row_norms: &[f32],
    centroids: &Matrix,
    ws: &mut Workspace,
    labels: &mut [usize],
) {
    assert_eq!(row_norms.len(), keys.rows(), "row norm cache out of date");
    assert_eq!(keys.cols(), centroids.cols(), "key/centroid dim mismatch");
    let n = keys.rows();
    assert_eq!(labels.len(), n, "label buffer must cover every row");
    if n == 0 || centroids.rows() == 0 {
        labels.fill(0);
        return;
    }
    row_norms_sq_into(centroids, &mut ws.centroid_norms);
    predigest_centroid_norms(metric, &mut ws.centroid_norms);
    let workers = if n <= ASSIGN_MIN_ROWS_PER_WORKER || rayon::current_thread_index().is_some() {
        1
    } else {
        rayon::current_num_threads().min(n.div_ceil(ASSIGN_MIN_ROWS_PER_WORKER))
    };
    let cnorms = &ws.centroid_norms;
    let label_rows = |start: usize, labels: &mut [usize], scores: &mut Vec<f32>| {
        for (offset, label) in labels.iter_mut().enumerate() {
            let i = start + offset;
            matvec_t_into(centroids, keys.row(i), scores);
            *label = label_of_row(metric, scores, row_norms[i], cnorms);
        }
    };
    if workers <= 1 {
        label_rows(0, labels, &mut ws.scores);
        return;
    }
    let share = n.div_ceil(workers);
    labels
        .chunks_mut(share)
        .enumerate()
        .collect::<Vec<_>>()
        .into_par_iter()
        .with_min_len(1)
        .for_each(|(w, chunk)| label_rows(w * share, chunk, &mut Vec::new()));
}

/// The pre-kernel-layer assignment sweep: one `metric.distance` call per
/// row-centroid pair (three scalar dot products per pair under cosine).
/// Kept as the reference the blocked sweep is property-tested and speedup-
/// gated against (`exp_hotpath`).
pub fn assign_labels_reference(
    metric: DistanceMetric,
    keys: &Matrix,
    centroids: &Matrix,
) -> Vec<usize> {
    let centroid_rows: Vec<&[f32]> = centroids.iter_rows().collect();
    (0..keys.rows())
        .map(|i| {
            metric
                .nearest(keys.row(i), centroid_rows.iter().copied())
                .unwrap_or(0)
        })
        .collect()
}

/// K-means configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KMeans {
    /// Distance metric used in the assignment step.
    pub metric: DistanceMetric,
    /// Iteration cap.
    pub max_iters: usize,
    /// Seed for centroid initialisation.
    pub seed: u64,
}

impl KMeans {
    /// Create a k-means runner.
    pub fn new(metric: DistanceMetric, max_iters: usize, seed: u64) -> Self {
        Self {
            metric,
            max_iters,
            seed,
        }
    }

    /// Cluster the rows of `keys` into (at most) `k` clusters, computing the
    /// squared row norms on entry and using a throwaway workspace. Callers
    /// that cache row norms incrementally (`SemanticClustering`) or reuse a
    /// workspace across sweeps use [`fit_with_norms`](Self::fit_with_norms).
    ///
    /// Degenerate inputs are handled without panicking: `k == 0` or an empty
    /// matrix yields an empty clustering, and `k >= rows` assigns every row
    /// to its own cluster.
    pub fn fit(&self, keys: &Matrix, k: usize) -> Clustering {
        let mut ws = Workspace::new();
        let mut norms = Vec::new();
        row_norms_sq_into(keys, &mut norms);
        self.fit_with_norms(keys, &norms, k, &mut ws)
    }

    /// [`fit`](Self::fit) with caller-cached squared row norms (`‖x‖²`, one
    /// per row of `keys`) and a reusable scratch workspace.
    ///
    /// # Panics
    ///
    /// Panics if `row_norms.len() != keys.rows()`.
    pub fn fit_with_norms(
        &self,
        keys: &Matrix,
        row_norms: &[f32],
        k: usize,
        ws: &mut Workspace,
    ) -> Clustering {
        assert_eq!(row_norms.len(), keys.rows(), "row norm cache out of date");
        let n = keys.rows();
        let dim = keys.cols();
        if n == 0 || k == 0 {
            return Clustering::empty(dim);
        }
        if k >= n {
            return Clustering {
                centroids: keys.clone(),
                centroid_norms: row_norms.to_vec(),
                labels: (0..n).collect(),
                iterations: 0,
                converged: true,
            };
        }

        // Initialise centroids with farthest-first traversal: a random first
        // pick, then repeatedly the key farthest (under the metric) from all
        // centroids chosen so far. Distances come from the Gram parts — one
        // blocked matvec against the newest pick plus the cached row norms.
        // The picks live in `ws.idx` and the running minimum distances in
        // `ws.weights`, so a warm fit allocates only what it returns.
        let mut rng = seeded(self.seed);
        let first = sample_index(&mut rng, n);
        ws.idx.clear();
        ws.idx.push(first);
        matvec_t_into(keys, keys.row(first), &mut ws.scores);
        ws.weights.clear();
        ws.weights.extend((0..n).map(|i| {
            self.metric
                .distance_from_parts(ws.scores[i], row_norms[i], row_norms[first])
        }));
        while ws.idx.len() < k {
            // `argmax` skips NaN distances (a NaN key would otherwise poison
            // farthest-first traversal) and breaks ties toward the lower
            // index, keeping initialisation deterministic. All-NaN
            // degenerate input falls back to index 0.
            let next = argmax(&ws.weights).unwrap_or(0);
            ws.idx.push(next);
            matvec_t_into(keys, keys.row(next), &mut ws.scores);
            for (i, md) in ws.weights.iter_mut().enumerate() {
                let d =
                    self.metric
                        .distance_from_parts(ws.scores[i], row_norms[i], row_norms[next]);
                if d < *md {
                    *md = d;
                }
            }
        }
        let mut centroids = keys.select_rows(&ws.idx);
        let mut labels = vec![usize::MAX; n];
        let mut swept = std::mem::take(&mut ws.labels);
        swept.clear();
        swept.resize(n, 0);
        let mut iterations = 0;
        let mut converged = false;

        while iterations < self.max_iters {
            iterations += 1;

            // Assignment step: the blocked Gram-trick sweep (parallel across
            // row shares, mirroring the batched Torch kernels of §IV-B).
            assign_labels_into(self.metric, keys, row_norms, &centroids, ws, &mut swept);

            let changed = swept != labels;
            std::mem::swap(&mut labels, &mut swept);
            if !changed {
                converged = true;
                break;
            }

            // Update step: mean of the members of each cluster — one pass
            // over the rows in order accumulates every cluster's sum (the
            // same per-cluster add order as summing its members one cluster
            // at a time), then one `1/count` scale per cluster. Empty
            // clusters keep their previous centroid.
            ws.sums.clear();
            ws.sums.resize(k * dim, 0.0);
            ws.counts.clear();
            ws.counts.resize(k, 0);
            for (i, &l) in labels.iter().enumerate() {
                axpy(&mut ws.sums[l * dim..(l + 1) * dim], 1.0, keys.row(i));
                ws.counts[l] += 1;
            }
            for (c, (sum, &count)) in ws.sums.chunks_mut(dim).zip(&ws.counts).enumerate() {
                if count > 0 {
                    scale(sum, 1.0 / count as f32);
                    centroids.row_mut(c).copy_from_slice(sum);
                }
            }
        }
        ws.labels = swept;

        let mut centroid_norms = Vec::with_capacity(k);
        row_norms_sq_into(&centroids, &mut centroid_norms);
        Clustering {
            centroids,
            centroid_norms,
            labels,
            iterations,
            converged,
        }
    }
}

impl Default for KMeans {
    fn default() -> Self {
        Self::new(DistanceMetric::Cosine, 20, 0x5EED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clusterkv_tensor::kernels::norm_sq;
    use clusterkv_tensor::rng::{gaussian_vec, seeded as seeded_rng};
    use proptest::prelude::*;

    /// Three well-separated directional blobs (cosine-separable).
    fn blobs(per_blob: usize, dim: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let directions = [
            {
                let mut v = vec![0.0f32; dim];
                v[0] = 1.0;
                v
            },
            {
                let mut v = vec![0.0f32; dim];
                v[dim / 2] = 1.0;
                v
            },
            {
                let mut v = vec![0.0f32; dim];
                v[dim - 1] = -1.0;
                v
            },
        ];
        let mut rng = seeded_rng(seed);
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for (b, dir) in directions.iter().enumerate() {
            for _ in 0..per_blob {
                let noise = gaussian_vec(&mut rng, dim, 0.0, 0.05);
                let row: Vec<f32> = dir.iter().zip(&noise).map(|(d, n)| d * 3.0 + n).collect();
                rows.push(row);
                truth.push(b);
            }
        }
        (Matrix::from_rows(rows).unwrap(), truth)
    }

    /// Fraction of pairs whose same/different-cluster relation matches the
    /// ground truth (Rand index).
    fn rand_index(labels: &[usize], truth: &[usize]) -> f64 {
        let n = labels.len();
        let mut agree = 0usize;
        let mut total = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                total += 1;
                let same_pred = labels[i] == labels[j];
                let same_true = truth[i] == truth[j];
                if same_pred == same_true {
                    agree += 1;
                }
            }
        }
        agree as f64 / total.max(1) as f64
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let (keys, truth) = blobs(30, 16, 3);
        let result = KMeans::default().fit(&keys, 3);
        assert_eq!(result.num_clusters(), 3);
        assert!(result.converged);
        let ri = rand_index(&result.labels, &truth);
        assert!(ri > 0.95, "rand index {ri}");
    }

    #[test]
    fn empty_input_and_zero_k_are_handled() {
        let km = KMeans::default();
        let empty = km.fit(&Matrix::zeros(0, 8), 4);
        assert_eq!(empty.num_clusters(), 0);
        assert!(empty.labels.is_empty());
        let zero_k = km.fit(&Matrix::identity(4), 0);
        assert_eq!(zero_k.num_clusters(), 0);
    }

    #[test]
    fn k_larger_than_rows_gives_singleton_clusters() {
        let keys = Matrix::identity(3);
        let result = KMeans::default().fit(&keys, 10);
        assert_eq!(result.num_clusters(), 3);
        assert_eq!(result.labels, vec![0, 1, 2]);
        assert!(result.converged);
        // The norm cache covers the adopted rows.
        assert_eq!(result.centroid_norms, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn clustering_is_deterministic_for_fixed_seed() {
        let (keys, _) = blobs(20, 8, 7);
        let a = KMeans::new(DistanceMetric::Cosine, 20, 1).fit(&keys, 4);
        let b = KMeans::new(DistanceMetric::Cosine, 20, 1).fit(&keys, 4);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.centroids, b.centroids);
        assert_eq!(a.centroid_norms, b.centroid_norms);
    }

    #[test]
    fn iteration_cap_is_respected() {
        let (keys, _) = blobs(30, 8, 5);
        let result = KMeans::new(DistanceMetric::Cosine, 1, 0).fit(&keys, 3);
        assert_eq!(result.iterations, 1);
    }

    #[test]
    fn all_metrics_produce_valid_labelings() {
        let (keys, _) = blobs(15, 8, 11);
        for metric in DistanceMetric::all() {
            let result = KMeans::new(metric, 15, 2).fit(&keys, 4);
            assert_eq!(result.labels.len(), keys.rows());
            assert!(result.labels.iter().all(|&l| l < result.num_clusters()));
        }
    }

    #[test]
    fn centroid_norm_cache_matches_recomputation() {
        let (keys, _) = blobs(20, 8, 17);
        for metric in DistanceMetric::all() {
            let result = KMeans::new(metric, 10, 3).fit(&keys, 4);
            assert_eq!(result.centroid_norms.len(), result.num_clusters());
            for (c, row) in result.centroids.iter_rows().enumerate() {
                assert_eq!(
                    result.centroid_norms[c],
                    norm_sq(row),
                    "{metric}: centroid {c}"
                );
            }
        }
    }

    #[test]
    fn blocked_assignment_matches_reference_on_separated_data() {
        // On well-separated data the Gram-trick reassociation cannot flip a
        // label: blocked and reference sweeps agree exactly.
        let (keys, _) = blobs(40, 16, 23);
        let mut norms = Vec::new();
        clusterkv_tensor::kernels::row_norms_sq_into(&keys, &mut norms);
        let centroids = keys.select_rows(&[0, 45, 85]);
        let mut ws = Workspace::new();
        for metric in DistanceMetric::all() {
            let blocked = assign_labels(metric, &keys, &norms, &centroids, &mut ws);
            let reference = assign_labels_reference(metric, &keys, &centroids);
            assert_eq!(blocked, reference, "{metric}");
        }
    }

    #[test]
    fn assignment_is_thread_count_invariant() {
        // > ASSIGN_MIN_ROWS_PER_WORKER rows so the parallel path engages;
        // chunk boundaries are thread-count independent, so labels match the
        // sequential sweep bit for bit.
        let (keys, _) = blobs(80, 8, 29); // 240 rows
        let mut norms = Vec::new();
        clusterkv_tensor::kernels::row_norms_sq_into(&keys, &mut norms);
        let centroids = keys.select_rows(&[1, 90, 170]);
        let mut ws = Workspace::new();
        let reference = assign_labels(DistanceMetric::Cosine, &keys, &norms, &centroids, &mut ws);
        // Restore the caller's RAYON_NUM_THREADS (CI pins it to 1 for the
        // single-thread sweep) even if an assertion below panics.
        struct EnvRestore(Option<String>);
        impl Drop for EnvRestore {
            fn drop(&mut self) {
                match self.0.take() {
                    Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
                    None => std::env::remove_var("RAYON_NUM_THREADS"),
                }
            }
        }
        let _restore = EnvRestore(std::env::var("RAYON_NUM_THREADS").ok());
        for threads in ["1", "2", "8"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            let got = assign_labels(DistanceMetric::Cosine, &keys, &norms, &centroids, &mut ws);
            assert_eq!(got, reference, "threads {threads}");
        }
    }

    #[test]
    fn nan_rows_fall_back_to_cluster_zero() {
        let mut rows: Vec<Vec<f32>> = (0..6).map(|i| vec![i as f32 + 1.0; 4]).collect();
        rows[3] = vec![f32::NAN; 4];
        let keys = Matrix::from_rows(rows).unwrap();
        let mut norms = Vec::new();
        clusterkv_tensor::kernels::row_norms_sq_into(&keys, &mut norms);
        let centroids = keys.select_rows(&[0, 5]);
        let mut ws = Workspace::new();
        let labels = assign_labels(DistanceMetric::Cosine, &keys, &norms, &centroids, &mut ws);
        assert_eq!(labels.len(), 6);
        assert_eq!(labels[3], 0, "all-NaN row pins to cluster 0");
        assert_eq!(
            labels,
            assign_labels_reference(DistanceMetric::Cosine, &keys, &centroids)
        );
    }

    #[test]
    fn cosine_beats_l2_with_outlier_channels() {
        // Construct two directional groups, then amplify one channel of a
        // subset of keys (outlier channel). Cosine clustering should still
        // group by direction better than L2 clustering does.
        let (keys, truth) = blobs(25, 16, 13);
        let mut rows: Vec<Vec<f32>> = keys.iter_rows().map(|r| r.to_vec()).collect();
        for (i, row) in rows.iter_mut().enumerate() {
            if i % 3 == 0 {
                // Scale whole vector: direction unchanged, magnitude outlier.
                for v in row.iter_mut() {
                    *v *= 6.0;
                }
            }
        }
        let keys = Matrix::from_rows(rows).unwrap();
        let cos = KMeans::new(DistanceMetric::Cosine, 25, 3).fit(&keys, 3);
        let l2 = KMeans::new(DistanceMetric::L2, 25, 3).fit(&keys, 3);
        let ri_cos = rand_index(&cos.labels, &truth);
        let ri_l2 = rand_index(&l2.labels, &truth);
        assert!(
            ri_cos >= ri_l2,
            "cosine rand index {ri_cos} should be >= l2 {ri_l2}"
        );
        assert!(ri_cos > 0.9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn labels_are_always_valid(
            n in 1usize..40,
            k in 1usize..10,
            seed in 0u64..100,
        ) {
            let mut rng = seeded_rng(seed);
            let rows: Vec<Vec<f32>> = (0..n).map(|_| gaussian_vec(&mut rng, 8, 0.0, 1.0)).collect();
            let keys = Matrix::from_rows(rows).unwrap();
            let result = KMeans::new(DistanceMetric::Cosine, 10, seed).fit(&keys, k);
            prop_assert_eq!(result.labels.len(), n);
            let c = result.num_clusters();
            prop_assert!(c <= n.max(1));
            for &l in &result.labels {
                prop_assert!(l < c);
            }
            prop_assert_eq!(result.centroid_norms.len(), c);
        }

        #[test]
        fn blocked_assignment_agrees_with_reference_within_ties(
            n in 2usize..50,
            k in 1usize..6,
            seed in 0u64..200,
        ) {
            // The two sweeps may only disagree where floating-point
            // reassociation moves a near-tie: whenever they disagree, the
            // two candidate distances must be within tolerance.
            let mut rng = seeded_rng(seed);
            let rows: Vec<Vec<f32>> = (0..n).map(|_| gaussian_vec(&mut rng, 8, 0.0, 1.0)).collect();
            let keys = Matrix::from_rows(rows).unwrap();
            let picks: Vec<usize> = (0..k.min(n)).map(|i| i * n / k.min(n).max(1)).collect();
            let centroids = keys.select_rows(&picks);
            let mut norms = Vec::new();
            clusterkv_tensor::kernels::row_norms_sq_into(&keys, &mut norms);
            let mut ws = Workspace::new();
            for metric in DistanceMetric::all() {
                let blocked = assign_labels(metric, &keys, &norms, &centroids, &mut ws);
                let reference = assign_labels_reference(metric, &keys, &centroids);
                for i in 0..n {
                    if blocked[i] != reference[i] {
                        let db = metric.distance(keys.row(i), centroids.row(blocked[i]));
                        let dr = metric.distance(keys.row(i), centroids.row(reference[i]));
                        let scale = db.abs().max(dr.abs()).max(1.0);
                        prop_assert!((db - dr).abs() <= 1e-4 * scale,
                            "{}: row {} labels {} vs {} with distances {} vs {}",
                            metric, i, blocked[i], reference[i], db, dr);
                    }
                }
            }
        }
    }
}
