//! Seeded random generation helpers.
//!
//! Every experiment in the workspace must be reproducible, so all random
//! tensors (synthetic model weights, synthetic key/query geometry, workload
//! content) are drawn through these helpers from an explicitly seeded
//! [`rand::rngs::StdRng`].

use crate::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};

/// Create a deterministic RNG from a 64-bit seed.
///
/// # Examples
///
/// ```
/// let mut a = clusterkv_tensor::rng::seeded(42);
/// let mut b = clusterkv_tensor::rng::seeded(42);
/// use rand::Rng;
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derive a child seed from a parent seed and a stream label.
///
/// Used to give each layer/head/experiment its own independent stream while
/// keeping a single top-level seed. The mixing follows splitmix64 so nearby
/// labels produce uncorrelated streams.
pub fn derive_seed(parent: u64, label: u64) -> u64 {
    let mut z = parent ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sample a vector of i.i.d. Gaussian values.
///
/// # Panics
///
/// Panics if `std` is negative or not finite.
pub fn gaussian_vec(rng: &mut StdRng, len: usize, mean: f32, std: f32) -> Vec<f32> {
    let normal = Normal::new(mean, std).expect("invalid gaussian parameters");
    (0..len).map(|_| normal.sample(rng)).collect()
}

/// Sample a matrix of i.i.d. Gaussian values.
pub fn gaussian_matrix(rng: &mut StdRng, rows: usize, cols: usize, mean: f32, std: f32) -> Matrix {
    let normal = Normal::new(mean, std).expect("invalid gaussian parameters");
    let data = (0..rows * cols).map(|_| normal.sample(rng)).collect();
    Matrix::from_flat(rows, cols, data).expect("gaussian_matrix produced correct size")
}

/// Sample a matrix with Xavier/Glorot-style scaling (`std = sqrt(2/(in+out))`),
/// the initialisation used for the synthetic transformer weights.
pub fn xavier_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    let std = (2.0 / (rows + cols) as f32).sqrt();
    gaussian_matrix(rng, rows, cols, 0.0, std)
}

/// Sample `count` distinct indices from `0..n` (reservoir-style).
///
/// Used for k-means++-free random centroid initialisation as in the paper
/// ("we first randomly sample key vectors as the initial centroids").
///
/// # Panics
///
/// Panics if `count > n`.
pub fn sample_distinct_indices(rng: &mut StdRng, n: usize, count: usize) -> Vec<usize> {
    assert!(
        count <= n,
        "cannot sample {count} distinct indices from {n}"
    );
    // Partial Fisher-Yates over an index vector.
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..count {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(count);
    idx
}

/// Sample one index from `0..n`: the draw `sample_distinct_indices(rng, n,
/// 1)[0]` makes, without materialising the index vector.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn sample_index(rng: &mut StdRng, n: usize) -> usize {
    rng.gen_range(0..n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn sample_index_is_the_first_distinct_draw() {
        for seed in 0..20 {
            for n in [1usize, 2, 7, 100] {
                assert_eq!(
                    sample_index(&mut seeded(seed), n),
                    sample_distinct_indices(&mut seeded(seed), n, 1)[0]
                );
            }
        }
    }

    #[test]
    fn seeded_rng_is_deterministic() {
        let a = gaussian_vec(&mut seeded(7), 16, 0.0, 1.0);
        let b = gaussian_vec(&mut seeded(7), 16, 0.0, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = gaussian_vec(&mut seeded(7), 16, 0.0, 1.0);
        let b = gaussian_vec(&mut seeded(8), 16, 0.0, 1.0);
        assert_ne!(a, b);
    }

    #[test]
    fn derive_seed_changes_with_label() {
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_eq!(derive_seed(1, 5), derive_seed(1, 5));
    }

    #[test]
    fn gaussian_matrix_has_expected_shape_and_rough_moments() {
        let m = gaussian_matrix(&mut seeded(3), 64, 64, 0.0, 1.0);
        assert_eq!(m.shape(), (64, 64));
        let mean: f32 = m.as_slice().iter().sum::<f32>() / (64.0 * 64.0);
        assert!(mean.abs() < 0.1, "sample mean {mean} too far from 0");
        let var: f32 = m.as_slice().iter().map(|x| x * x).sum::<f32>() / (64.0 * 64.0);
        assert!(
            (var - 1.0).abs() < 0.2,
            "sample variance {var} too far from 1"
        );
    }

    #[test]
    fn xavier_matrix_scales_down_with_size() {
        let small = xavier_matrix(&mut seeded(1), 4, 4);
        let large = xavier_matrix(&mut seeded(1), 256, 256);
        let var = |m: &Matrix| {
            m.as_slice().iter().map(|x| x * x).sum::<f32>() / m.as_slice().len() as f32
        };
        assert!(var(&small) > var(&large));
    }

    #[test]
    fn sample_distinct_indices_are_distinct_and_in_range() {
        let idx = sample_distinct_indices(&mut seeded(11), 100, 20);
        assert_eq!(idx.len(), 20);
        let set: HashSet<_> = idx.iter().collect();
        assert_eq!(set.len(), 20);
        assert!(idx.iter().all(|&i| i < 100));
    }

    #[test]
    fn sample_all_indices_is_a_permutation() {
        let idx = sample_distinct_indices(&mut seeded(2), 10, 10);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic]
    fn sampling_more_than_population_panics() {
        sample_distinct_indices(&mut seeded(0), 3, 4);
    }
}
