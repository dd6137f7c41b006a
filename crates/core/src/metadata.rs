//! Cluster metadata: sizes, prefix sums and label-sorted token indices.
//!
//! This is the metadata of Fig. 8: after clustering, ClusterKV stores for
//! each head the cluster sizes, their prefix sum and the token indices
//! sorted by cluster label, so that during decoding the indices of the
//! tokens belonging to any set of clusters can be gathered with simple
//! offset arithmetic instead of a scan over all tokens.

use serde::{Deserialize, Serialize};

/// Per-head cluster metadata built from a label assignment.
///
/// Token indices stored here are *global* token positions (the caller passes
/// the position of each clustered token), so clusters created at different
/// times (prefill vs incremental decode clustering) can coexist in one
/// metadata table.
///
/// # Examples
///
/// ```
/// use clusterkv::ClusterMetadata;
///
/// // Tokens 10..16 with labels as in Fig. 8: k0,k5 -> cluster 2,
/// // k1 -> cluster 0, k2,k3,k4 -> cluster 1.
/// let mut meta = ClusterMetadata::new();
/// meta.extend(&[(10, 2), (11, 0), (12, 1), (13, 1), (14, 1), (15, 2)], 3);
/// assert_eq!(meta.cluster_size(0), 1);
/// assert_eq!(meta.cluster_size(1), 3);
/// assert_eq!(meta.cluster_size(2), 2);
/// assert_eq!(meta.cluster_tokens(2), &[10, 15]);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ClusterMetadata {
    /// Number of tokens in each cluster.
    sizes: Vec<usize>,
    /// Exclusive prefix sum of `sizes` (length = clusters + 1).
    prefix: Vec<usize>,
    /// Token indices grouped by cluster label (cluster 0's tokens first).
    sorted_indices: Vec<usize>,
}

impl ClusterMetadata {
    /// Empty metadata (no clusters).
    pub fn new() -> Self {
        Self {
            sizes: Vec::new(),
            prefix: vec![0],
            sorted_indices: Vec::new(),
        }
    }

    /// Number of clusters described.
    pub fn num_clusters(&self) -> usize {
        self.sizes.len()
    }

    /// Total number of clustered tokens.
    pub fn num_tokens(&self) -> usize {
        self.sorted_indices.len()
    }

    /// Size of cluster `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn cluster_size(&self, c: usize) -> usize {
        self.sizes[c]
    }

    /// All cluster sizes.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Exclusive prefix sum over cluster sizes (length `num_clusters() + 1`).
    pub fn prefix_sum(&self) -> &[usize] {
        &self.prefix
    }

    /// Token indices belonging to cluster `c`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn cluster_tokens(&self, c: usize) -> &[usize] {
        &self.sorted_indices[self.prefix[c]..self.prefix[c + 1]]
    }

    /// Heap bytes the three tables hold (`usize` entries: one size and one
    /// prefix slot per cluster, one index per clustered token).
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<usize>()
            * (self.sizes.len() + self.prefix.len() + self.sorted_indices.len())
    }

    /// Append `added_clusters` new clusters populated from `(token, label)`
    /// pairs, where labels are relative to the new clusters (0-based).
    ///
    /// This is used both for the prefill clustering (one call) and for each
    /// incremental decode clustering (labels of the `C+` new clusters).
    ///
    /// # Panics
    ///
    /// Panics if a label is `>= added_clusters`.
    pub fn extend(&mut self, assignments: &[(usize, usize)], added_clusters: usize) {
        let base = self.sizes.len();
        self.sizes.extend(std::iter::repeat_n(0, added_clusters));

        // Group the new tokens by label, preserving insertion order.
        let mut grouped: Vec<Vec<usize>> = vec![Vec::new(); added_clusters];
        for &(token, label) in assignments {
            assert!(
                label < added_clusters,
                "label {label} out of range for {added_clusters} new clusters"
            );
            grouped[label].push(token);
            self.sizes[base + label] += 1;
        }
        for group in grouped {
            self.sorted_indices.extend(group);
        }
        self.rebuild_prefix();
    }

    fn rebuild_prefix(&mut self) {
        self.prefix.clear();
        self.prefix.push(0);
        let mut acc = 0;
        for &s in &self.sizes {
            acc += s;
            self.prefix.push(acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_metadata() {
        let m = ClusterMetadata::new();
        assert_eq!(m.num_clusters(), 0);
        assert_eq!(m.num_tokens(), 0);
        assert_eq!(m.prefix_sum(), &[0]);
    }

    #[test]
    fn figure_8_example() {
        // Fig. 8: keys k0..k5; k0,k5 in cluster 2; k1 in cluster 0;
        // k2,k3,k4 in cluster 1. Sizes = [1,3,2], prefix = [0,1,4,6],
        // sorted indices = [1, 2,3,4, 0,5].
        let mut m = ClusterMetadata::new();
        m.extend(&[(0, 2), (1, 0), (2, 1), (3, 1), (4, 1), (5, 2)], 3);
        assert_eq!(m.sizes(), &[1, 3, 2]);
        assert_eq!(m.prefix_sum(), &[0, 1, 4, 6]);
        assert_eq!(m.cluster_tokens(0), &[1]);
        assert_eq!(m.cluster_tokens(1), &[2, 3, 4]);
        assert_eq!(m.cluster_tokens(2), &[0, 5]);
        assert_eq!(m.num_tokens(), 6);
    }

    #[test]
    fn incremental_extension_appends_clusters() {
        let mut m = ClusterMetadata::new();
        m.extend(&[(16, 0), (17, 1), (18, 0)], 2);
        assert_eq!(m.num_clusters(), 2);
        // Incremental clustering of decode tokens 19..22 into 2 new clusters.
        m.extend(&[(19, 1), (20, 0), (21, 1), (22, 1)], 2);
        assert_eq!(m.num_clusters(), 4);
        assert_eq!(m.cluster_tokens(2), &[20]);
        assert_eq!(m.cluster_tokens(3), &[19, 21, 22]);
        // Earlier clusters are untouched.
        assert_eq!(m.cluster_tokens(0), &[16, 18]);
        assert_eq!(m.prefix_sum().last().copied(), Some(7));
    }

    #[test]
    fn empty_clusters_are_representable() {
        let mut m = ClusterMetadata::new();
        m.extend(&[(0, 0), (1, 0)], 3);
        assert_eq!(m.sizes(), &[2, 0, 0]);
        assert_eq!(m.cluster_tokens(1), &[] as &[usize]);
        assert_eq!(m.cluster_tokens(2), &[] as &[usize]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_label_panics() {
        let mut m = ClusterMetadata::new();
        m.extend(&[(0, 2)], 2);
    }

    proptest! {
        #[test]
        fn prefix_sum_is_consistent_with_sizes(
            labels in proptest::collection::vec(0usize..5, 1..50),
        ) {
            let assignments: Vec<(usize, usize)> =
                labels.iter().enumerate().map(|(t, &l)| (t + 100, l)).collect();
            let mut m = ClusterMetadata::new();
            m.extend(&assignments, 5);
            prop_assert_eq!(m.num_clusters(), 5);
            prop_assert_eq!(m.num_tokens(), labels.len());
            let prefix = m.prefix_sum();
            for c in 0..5 {
                prop_assert_eq!(prefix[c + 1] - prefix[c], m.cluster_size(c));
                prop_assert_eq!(m.cluster_tokens(c).len(), m.cluster_size(c));
            }
            // Every token appears exactly once across clusters.
            let mut all: Vec<usize> = (0..5).flat_map(|c| m.cluster_tokens(c).to_vec()).collect();
            all.sort_unstable();
            let mut expected: Vec<usize> = assignments.iter().map(|&(t, _)| t).collect();
            expected.sort_unstable();
            prop_assert_eq!(all, expected);
        }
    }
}
