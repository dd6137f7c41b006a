//! Per-head key/value store — the "CPU memory" side of the paper's system.
//!
//! A [`KvStore`] holds the keys and values of every token seen so far for a
//! single attention head. Selection policies read keys (or their metadata)
//! to decide which tokens participate in attention; the attention kernels
//! then read the selected rows in place.

use crate::types::Bytes;
use clusterkv_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Key/value store for one attention head.
///
/// Rows are indexed by token position; row `i` holds the key (resp. value)
/// vector of token `i`.
///
/// # Examples
///
/// ```
/// use clusterkv_kvcache::KvStore;
///
/// let mut store = KvStore::new(4);
/// store.append(&[1.0, 0.0, 0.0, 0.0], &[0.5; 4]);
/// store.append(&[0.0, 1.0, 0.0, 0.0], &[0.25; 4]);
/// assert_eq!(store.len(), 2);
/// assert_eq!(store.key(1)[1], 1.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KvStore {
    head_dim: usize,
    keys: Matrix,
    values: Matrix,
    /// Cached squared key norms (`‖k_i‖²`), maintained incrementally on
    /// every append — the row-norm side of the Gram trick
    /// (`‖x−c‖² = ‖x‖² − 2x·c + ‖c‖²`) for consumers that cluster or
    /// rescore store keys without walking them again. Note the serving-path
    /// clustering caches live elsewhere: selectors observe keys through
    /// `ObserveEvent` (never through the store) and maintain their own
    /// norms, so this cache serves store-side consumers (harness-style
    /// rescoring, experiments) at one blocked self-dot per append.
    key_norms: Vec<f32>,
}

impl KvStore {
    /// Create an empty store for vectors of dimension `head_dim`.
    pub fn new(head_dim: usize) -> Self {
        Self {
            head_dim,
            keys: Matrix::zeros(0, head_dim),
            values: Matrix::zeros(0, head_dim),
            key_norms: Vec::new(),
        }
    }

    /// Reserve capacity for `additional` more tokens (keys, values and the
    /// norm cache), so a known-length run of appends — a prefill chunk, a
    /// batched append — performs at most one reallocation per buffer
    /// instead of amortized per-token growth.
    pub fn reserve(&mut self, additional: usize) {
        self.keys.reserve_rows(additional);
        self.values.reserve_rows(additional);
        self.key_norms.reserve(additional);
    }

    /// Dimension of key/value vectors.
    #[inline]
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Number of tokens stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.rows()
    }

    /// Whether the store is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a token's key and value.
    ///
    /// # Panics
    ///
    /// Panics if either vector's length differs from `head_dim`.
    pub fn append(&mut self, key: &[f32], value: &[f32]) {
        assert_eq!(key.len(), self.head_dim, "key dim mismatch");
        assert_eq!(value.len(), self.head_dim, "value dim mismatch");
        self.keys.push_row(key).expect("checked key length");
        self.values.push_row(value).expect("checked value length");
        self.key_norms.push(clusterkv_tensor::kernels::norm_sq(key));
    }

    /// Append many tokens at once (e.g. the whole prefill): the key/value
    /// buffers grow by one reserved bulk copy each instead of per-token
    /// `push_row` amortization. Observationally identical to appending the
    /// rows one by one (property-tested).
    ///
    /// # Panics
    ///
    /// Panics if the two matrices have different numbers of rows or a column
    /// count different from `head_dim`.
    pub fn append_batch(&mut self, keys: &Matrix, values: &Matrix) {
        assert_eq!(keys.rows(), values.rows(), "key/value row count mismatch");
        assert_eq!(keys.cols(), self.head_dim, "key dim mismatch");
        assert_eq!(values.cols(), self.head_dim, "value dim mismatch");
        self.reserve(keys.rows());
        self.keys.extend_rows(keys).expect("checked");
        self.values.extend_rows(values).expect("checked");
        for row in keys.iter_rows() {
            self.key_norms.push(clusterkv_tensor::kernels::norm_sq(row));
        }
    }

    /// Append rows `[start, end)` of a shared prefix page: keys, values and
    /// the *cached* squared key norms are bulk-copied, skipping the per-row
    /// norm recomputation of [`append_batch`]. Because the cached norms were
    /// produced by the same `norm_sq` kernel on bitwise-identical rows, the
    /// result is observationally identical to recomputing them
    /// (property-tested).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, mismatched `keys`/`values`/`norms` lengths,
    /// or an invalid row range.
    ///
    /// [`append_batch`]: KvStore::append_batch
    pub fn append_shared(
        &mut self,
        keys: &Matrix,
        values: &Matrix,
        norms: &[f32],
        start: usize,
        end: usize,
    ) {
        assert_eq!(keys.rows(), values.rows(), "key/value row count mismatch");
        assert_eq!(keys.rows(), norms.len(), "key/norm count mismatch");
        assert_eq!(keys.cols(), self.head_dim, "key dim mismatch");
        assert_eq!(values.cols(), self.head_dim, "value dim mismatch");
        self.reserve(end - start);
        self.keys
            .extend_rows_range(keys, start, end)
            .expect("checked");
        self.values
            .extend_rows_range(values, start, end)
            .expect("checked");
        self.key_norms.extend_from_slice(&norms[start..end]);
    }

    /// Key vector of token `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn key(&self, i: usize) -> &[f32] {
        self.keys.row(i)
    }

    /// Value vector of token `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn value(&self, i: usize) -> &[f32] {
        self.values.row(i)
    }

    /// All keys as an `L × d` matrix.
    #[inline]
    pub fn keys(&self) -> &Matrix {
        &self.keys
    }

    /// All values as an `L × d` matrix.
    #[inline]
    pub fn values(&self) -> &Matrix {
        &self.values
    }

    /// Cached squared norm `‖k_i‖²` of token `i`'s key.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn key_norm_sq(&self, i: usize) -> f32 {
        self.key_norms[i]
    }

    /// Cached squared key norms, one per token (aligned with row indices).
    #[inline]
    pub fn key_norms(&self) -> &[f32] {
        &self.key_norms
    }

    /// Size of the full KV cache of this head in bytes under the fp16 cost
    /// model (keys + values).
    pub fn size_bytes(&self) -> Bytes {
        Bytes::of_f16(2 * self.len() * self.head_dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn filled_store(n: usize, dim: usize) -> KvStore {
        let mut s = KvStore::new(dim);
        for i in 0..n {
            let k: Vec<f32> = (0..dim).map(|d| (i * dim + d) as f32).collect();
            let v: Vec<f32> = (0..dim).map(|d| -((i * dim + d) as f32)).collect();
            s.append(&k, &v);
        }
        s
    }

    #[test]
    fn new_store_is_empty() {
        let s = KvStore::new(8);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.head_dim(), 8);
    }

    #[test]
    fn append_and_read_back() {
        let s = filled_store(3, 4);
        assert_eq!(s.len(), 3);
        assert_eq!(s.key(2), &[8.0, 9.0, 10.0, 11.0]);
        assert_eq!(s.value(0), &[-0.0, -1.0, -2.0, -3.0]);
    }

    #[test]
    #[should_panic]
    fn append_wrong_dim_panics() {
        let mut s = KvStore::new(4);
        s.append(&[1.0, 2.0], &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn append_batch_matches_individual_appends() {
        let keys = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let values = Matrix::from_rows(vec![vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let mut a = KvStore::new(2);
        a.append_batch(&keys, &values);
        let mut b = KvStore::new(2);
        b.append(&[1.0, 2.0], &[5.0, 6.0]);
        b.append(&[3.0, 4.0], &[7.0, 8.0]);
        assert_eq!(a.keys(), b.keys());
        assert_eq!(a.values(), b.values());
    }

    #[test]
    fn size_bytes_counts_keys_and_values_as_f16() {
        let s = filled_store(10, 8);
        // 10 tokens * 8 dims * 2 tensors * 2 bytes.
        assert_eq!(s.size_bytes().get(), 10 * 8 * 2 * 2);
    }

    #[test]
    fn key_norm_cache_tracks_appends() {
        let s = filled_store(6, 3);
        assert_eq!(s.key_norms().len(), 6);
        for i in 0..6 {
            assert_eq!(
                s.key_norm_sq(i),
                clusterkv_tensor::kernels::norm_sq(s.key(i)),
                "token {i}"
            );
        }
    }

    proptest! {
        #[test]
        fn append_batch_is_observationally_identical_to_repeated_append(
            n in 0usize..24,
            dim in 1usize..8,
            seed in proptest::collection::vec(-4.0f32..4.0, 0..192),
        ) {
            prop_assume!(seed.len() >= 2 * n * dim);
            let keys = Matrix::from_flat(n, dim, seed[..n * dim].to_vec()).unwrap();
            let values = Matrix::from_flat(n, dim, seed[n * dim..2 * n * dim].to_vec()).unwrap();
            let mut bulk = KvStore::new(dim);
            bulk.append_batch(&keys, &values);
            let mut one_by_one = KvStore::new(dim);
            for i in 0..n {
                one_by_one.append(keys.row(i), values.row(i));
            }
            prop_assert_eq!(bulk.len(), one_by_one.len());
            prop_assert_eq!(bulk.keys(), one_by_one.keys());
            prop_assert_eq!(bulk.values(), one_by_one.values());
            prop_assert_eq!(bulk.key_norms(), one_by_one.key_norms());
            prop_assert_eq!(bulk.size_bytes(), one_by_one.size_bytes());
        }

        #[test]
        fn append_shared_is_observationally_identical_to_append_batch(
            n in 1usize..24,
            dim in 1usize..8,
            lo in 0usize..24,
            hi in 0usize..24,
            seed in proptest::collection::vec(-4.0f32..4.0, 0..192),
        ) {
            prop_assume!(seed.len() >= 2 * n * dim);
            let keys = Matrix::from_flat(n, dim, seed[..n * dim].to_vec()).unwrap();
            let values = Matrix::from_flat(n, dim, seed[n * dim..2 * n * dim].to_vec()).unwrap();
            // A shared page carries norms computed by the donor's appends.
            let mut donor = KvStore::new(dim);
            donor.append_batch(&keys, &values);
            let (a, b) = (lo % n, hi % n);
            let (start, end) = (a.min(b), a.max(b) + 1);
            let mut shared = KvStore::new(dim);
            shared.append_shared(&keys, &values, donor.key_norms(), start, end);
            let mut reference = KvStore::new(dim);
            reference.append_batch(&keys.slice_rows(start, end), &values.slice_rows(start, end));
            prop_assert_eq!(shared.len(), end - start);
            prop_assert_eq!(shared.keys(), reference.keys());
            prop_assert_eq!(shared.values(), reference.values());
            prop_assert_eq!(shared.key_norms(), reference.key_norms());
        }

        #[test]
        fn len_equals_number_of_appends(n in 0usize..64, dim in 1usize..16) {
            let s = filled_store(n, dim);
            prop_assert_eq!(s.len(), n);
            prop_assert_eq!(s.is_empty(), n == 0);
        }
    }
}
