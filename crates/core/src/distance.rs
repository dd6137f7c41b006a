//! Semantic distance metrics for clustering key vectors.
//!
//! The paper (§III-B) defines the semantic distance between tokens `i` and
//! `j` as `D(i, j) = 1 − ⟨k_i, k_j⟩ / (|k_i|·|k_j|)` — one minus cosine
//! similarity — and motivates that choice by the outlier channels present in
//! key vectors, which distort L2 and inner-product distances. The Fig. 11b
//! ablation compares all three; this module implements them behind a common
//! enum.

use clusterkv_tensor::vector::{cosine_distance, dot, l2_distance_sq};
use serde::{Deserialize, Serialize};

/// Distance metric used to assign key vectors to cluster centroids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DistanceMetric {
    /// `1 − cos(a, b)` — the paper's choice.
    Cosine,
    /// Squared Euclidean distance.
    L2,
    /// Negative inner product (larger inner product = closer).
    InnerProduct,
}

impl DistanceMetric {
    /// Distance between two vectors under this metric. Smaller is closer for
    /// every variant.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn distance(self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            DistanceMetric::Cosine => cosine_distance(a, b),
            DistanceMetric::L2 => l2_distance_sq(a, b),
            DistanceMetric::InnerProduct => -dot(a, b),
        }
    }

    /// Distance reconstructed from precomputed parts: the inner product
    /// `⟨a,b⟩` and the squared norms `‖a‖²`, `‖b‖²`. This is the Gram-trick
    /// evaluation the blocked k-means assignment uses (`‖a−b‖² =
    /// ‖a‖² − 2⟨a,b⟩ + ‖b‖²`): norms are computed once per row/centroid and
    /// cached, so each pair costs one dot product instead of three.
    ///
    /// Agrees with [`distance`](Self::distance) up to floating-point
    /// reassociation (property-tested within `1e-4` relative error); the
    /// zero-norm cosine convention (distance 1) is preserved exactly.
    #[inline]
    pub fn distance_from_parts(self, dot: f32, a_norm_sq: f32, b_norm_sq: f32) -> f32 {
        match self {
            DistanceMetric::Cosine => {
                let denom = a_norm_sq.sqrt() * b_norm_sq.sqrt();
                if denom == 0.0 {
                    1.0
                } else {
                    1.0 - dot / denom
                }
            }
            DistanceMetric::L2 => a_norm_sq - 2.0 * dot + b_norm_sq,
            DistanceMetric::InnerProduct => -dot,
        }
    }

    /// Index of the closest centroid to `v`, or `None` when `centroids` is
    /// empty. Ties break toward the lower index. NaN distances are never
    /// selected — the contract [`argmax`](clusterkv_tensor::vector::argmax)
    /// keeps for the largest value — so `None` is also returned when every
    /// candidate's distance is NaN.
    pub fn nearest<'a, I>(self, v: &[f32], centroids: I) -> Option<usize>
    where
        I: IntoIterator<Item = &'a [f32]>,
    {
        let mut best: Option<(usize, f32)> = None;
        for (i, c) in centroids.into_iter().enumerate() {
            let d = self.distance(v, c);
            // A NaN distance must be skipped explicitly: `d >= bd` is false
            // for NaN, so without this guard a NaN candidate would *replace*
            // the best — the opposite of the contract above.
            if d.is_nan() {
                continue;
            }
            match best {
                Some((_, bd)) if d >= bd => {}
                _ => best = Some((i, d)),
            }
        }
        best.map(|(i, _)| i)
    }

    /// All metrics, in the order they appear in the Fig. 11b ablation.
    pub fn all() -> [DistanceMetric; 3] {
        [
            DistanceMetric::Cosine,
            DistanceMetric::L2,
            DistanceMetric::InnerProduct,
        ]
    }
}

impl std::fmt::Display for DistanceMetric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistanceMetric::Cosine => write!(f, "cosine"),
            DistanceMetric::L2 => write!(f, "l2"),
            DistanceMetric::InnerProduct => write!(f, "inner-product"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cosine_distance_ignores_magnitude() {
        let a = [1.0, 1.0];
        let b = [10.0, 10.0];
        assert!(DistanceMetric::Cosine.distance(&a, &b) < 1e-6);
        assert!(DistanceMetric::L2.distance(&a, &b) > 1.0);
    }

    #[test]
    fn inner_product_prefers_aligned_large_vectors() {
        let q = [1.0, 0.0];
        let small_aligned = [0.5, 0.0];
        let large_aligned = [5.0, 0.0];
        let ip = DistanceMetric::InnerProduct;
        assert!(ip.distance(&q, &large_aligned) < ip.distance(&q, &small_aligned));
    }

    #[test]
    fn nearest_picks_minimum_distance() {
        let centroids: Vec<Vec<f32>> = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![-1.0, 0.0]];
        let refs: Vec<&[f32]> = centroids.iter().map(|c| c.as_slice()).collect();
        let v = [0.9, 0.1];
        assert_eq!(
            DistanceMetric::Cosine.nearest(&v, refs.iter().copied()),
            Some(0)
        );
        assert_eq!(
            DistanceMetric::L2.nearest(&v, refs.iter().copied()),
            Some(0)
        );
        let v2 = [0.1, 0.9];
        assert_eq!(
            DistanceMetric::Cosine.nearest(&v2, refs.iter().copied()),
            Some(1)
        );
    }

    #[test]
    fn nearest_skips_nan_distances() {
        // Mirrors the argmax NaN test: a NaN distance must never win.
        // Under L2, a centroid containing NaN yields a NaN distance.
        let good = vec![5.0f32, 0.0];
        let poisoned = vec![f32::NAN, 0.0];
        let v = [5.1f32, 0.0];
        // The poisoned centroid comes *after* the best: `d >= bd` is false
        // for NaN, so the unguarded update would have replaced the winner.
        let after: Vec<&[f32]> = vec![&good, &poisoned];
        assert_eq!(DistanceMetric::L2.nearest(&v, after), Some(0));
        // And before: it must not be retained as the initial best either.
        let before: Vec<&[f32]> = vec![&poisoned, &good];
        assert_eq!(DistanceMetric::L2.nearest(&v, before), Some(1));
        for metric in DistanceMetric::all() {
            let refs: Vec<&[f32]> = vec![&poisoned, &good, &poisoned];
            assert_eq!(metric.nearest(&v, refs), Some(1), "{metric}");
        }
    }

    #[test]
    fn nearest_of_all_nan_is_none() {
        let poisoned = vec![f32::NAN, f32::NAN];
        let refs: Vec<&[f32]> = vec![&poisoned, &poisoned];
        assert_eq!(DistanceMetric::Cosine.nearest(&[1.0, 0.0], refs), None);
    }

    #[test]
    fn nearest_of_empty_is_none() {
        assert_eq!(
            DistanceMetric::Cosine.nearest(&[1.0], std::iter::empty::<&[f32]>()),
            None
        );
    }

    #[test]
    fn outlier_channel_breaks_l2_but_not_cosine() {
        // Two keys pointing in the same direction, but one has an amplified
        // outlier channel. Under cosine they remain close; under L2 the
        // outlier dominates and they appear far apart — the paper's argument
        // for cosine distance.
        let base = [1.0f32, 1.0, 1.0, 1.0];
        let outlier = [8.0f32, 8.0, 8.0, 8.0]; // same direction, big magnitude
        let different_direction = [1.0f32, -1.0, 1.0, -1.0];

        let cos = DistanceMetric::Cosine;
        let l2 = DistanceMetric::L2;
        // Cosine: same-direction outlier is much closer than a genuinely
        // different direction.
        assert!(cos.distance(&base, &outlier) < cos.distance(&base, &different_direction));
        // L2: the magnitude outlier looks *farther* than the different
        // direction, which is the failure mode the paper describes.
        assert!(l2.distance(&base, &outlier) > l2.distance(&base, &different_direction));
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(DistanceMetric::Cosine.to_string(), "cosine");
        assert_eq!(DistanceMetric::L2.to_string(), "l2");
        assert_eq!(DistanceMetric::InnerProduct.to_string(), "inner-product");
        assert_eq!(DistanceMetric::all().len(), 3);
    }

    #[test]
    fn distance_from_parts_preserves_zero_norm_convention() {
        use clusterkv_tensor::kernels::norm_sq;
        use clusterkv_tensor::vector::dot as sdot;
        let zero = [0.0f32; 4];
        let b = [1.0f32, -2.0, 0.5, 3.0];
        let m = DistanceMetric::Cosine;
        assert_eq!(
            m.distance_from_parts(sdot(&zero, &b), norm_sq(&zero), norm_sq(&b)),
            m.distance(&zero, &b)
        );
        assert_eq!(m.distance(&zero, &b), 1.0);
    }

    proptest! {
        #[test]
        fn distance_from_parts_matches_direct(
            a in proptest::collection::vec(-5.0f32..5.0, 8),
            b in proptest::collection::vec(-5.0f32..5.0, 8),
        ) {
            use clusterkv_tensor::kernels::{dot_blocked, norm_sq};
            for m in DistanceMetric::all() {
                let direct = m.distance(&a, &b);
                let parts = m.distance_from_parts(dot_blocked(&a, &b), norm_sq(&a), norm_sq(&b));
                let scale = direct.abs().max(parts.abs()).max(1.0);
                prop_assert!((direct - parts).abs() <= 1e-4 * scale,
                    "{m}: {direct} vs {parts}");
            }
        }

        #[test]
        fn distances_are_symmetric_for_cosine_and_l2(
            a in proptest::collection::vec(-5.0f32..5.0, 8),
            b in proptest::collection::vec(-5.0f32..5.0, 8),
        ) {
            for m in [DistanceMetric::Cosine, DistanceMetric::L2] {
                prop_assert!((m.distance(&a, &b) - m.distance(&b, &a)).abs() < 1e-4);
            }
        }

        #[test]
        fn self_distance_is_minimal_for_cosine(
            a in proptest::collection::vec(0.1f32..5.0, 8),
            b in proptest::collection::vec(-5.0f32..5.0, 8),
        ) {
            let m = DistanceMetric::Cosine;
            prop_assert!(m.distance(&a, &a) <= m.distance(&a, &b) + 1e-4);
        }

        #[test]
        fn nearest_index_is_in_range(
            v in proptest::collection::vec(-5.0f32..5.0, 4),
            centroids in proptest::collection::vec(proptest::collection::vec(-5.0f32..5.0, 4), 1..8),
        ) {
            for m in DistanceMetric::all() {
                let idx = m.nearest(&v, centroids.iter().map(|c| c.as_slice())).unwrap();
                prop_assert!(idx < centroids.len());
            }
        }
    }
}
