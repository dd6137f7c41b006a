//! Counters for cache behaviour and the bytes its misses recall.
//!
//! The experiments of §V-C (cache hit rates, throughput improvement from the
//! cluster-granularity cache) are driven by these counters.

use crate::types::Bytes;
use serde::{Deserialize, Serialize};

/// Hit/miss accounting for the selected-KV cache (§IV-D).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that were served from the GPU cache.
    pub hits: u64,
    /// Lookups that required a fetch from CPU memory.
    pub misses: u64,
    /// Bytes the misses moved from CPU to GPU memory (at the recall width,
    /// so a quantized compressed tier moves fewer than
    /// `misses · bytes_per_token`).
    pub bytes_recalled: Bytes,
}

impl CacheStats {
    /// New, zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` hits.
    pub fn record_hits(&mut self, n: u64) {
        self.hits += n;
    }

    /// Record `n` misses whose recall moved `bytes`.
    pub fn record_misses(&mut self, n: u64, bytes: Bytes) {
        self.misses += n;
        self.bytes_recalled += bytes;
    }

    /// Total lookups.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; `0.0` when no lookups were recorded.
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }

    /// Merge another set of statistics into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.bytes_recalled += other.bytes_recalled;
    }
}

/// Accounting for the compressed residency tier (DESIGN.md §9).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompressionStats {
    /// Resident → Compressed page demotions.
    pub demotions: u64,
    /// Tokens served from the compressed GPU tier (no PCIe, dequantize only).
    pub compressed_hits: u64,
}

impl CompressionStats {
    /// New, zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one page demotion.
    pub fn record_demotion(&mut self) {
        self.demotions += 1;
    }

    /// Record `n` tokens served from the compressed tier.
    pub fn record_compressed_hits(&mut self, n: u64) {
        self.compressed_hits += n;
    }

    /// Merge another set of statistics into this one.
    pub fn merge(&mut self, other: &CompressionStats) {
        self.demotions += other.demotions;
        self.compressed_hits += other.compressed_hits;
    }
}

/// Accounting for the speculative staging buffer (DESIGN.md §10).
///
/// Staging never changes hit/miss accounting — a staged-and-used page still
/// counts as a miss in [`CacheStats`] and its bytes still land in
/// [`CacheStats::bytes_recalled`] — it only changes *when* the bytes move,
/// which the overlap clock prices separately. These counters measure how
/// well the predictor spent the staging budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefetchStats {
    /// Pages staged ahead of demand.
    pub staged_pages: u64,
    /// Bytes moved by staged (overlapped) transfers.
    pub staged_bytes: Bytes,
    /// Staged pages later consumed by a demand access.
    pub used_pages: u64,
    /// Bytes of staged transfers that a demand access consumed.
    pub used_bytes: Bytes,
    /// Bytes of staged transfers that were never consumed (evicted from the
    /// staging buffer, superseded, or stale at use time).
    pub wasted_bytes: Bytes,
}

impl PrefetchStats {
    /// New, zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one staged page of `bytes`.
    pub fn record_staged(&mut self, bytes: Bytes) {
        self.staged_pages += 1;
        self.staged_bytes += bytes;
    }

    /// Record one staged page of `bytes` consumed by a demand access.
    pub fn record_used(&mut self, bytes: Bytes) {
        self.used_pages += 1;
        self.used_bytes += bytes;
    }

    /// Record `bytes` of staged transfer that will never be consumed.
    pub fn record_wasted(&mut self, bytes: Bytes) {
        self.wasted_bytes += bytes;
    }

    /// Prefetch accuracy `staged-and-used / staged` over pages, in `[0, 1]`;
    /// `0.0` when nothing was ever staged (never NaN).
    pub fn accuracy(&self) -> f64 {
        if self.staged_pages == 0 {
            0.0
        } else {
            self.used_pages as f64 / self.staged_pages as f64
        }
    }

    /// Merge another set of statistics into this one.
    pub fn merge(&mut self, other: &PrefetchStats) {
        self.staged_pages += other.staged_pages;
        self.staged_bytes += other.staged_bytes;
        self.used_pages += other.used_pages;
        self.used_bytes += other.used_bytes;
        self.wasted_bytes += other.wasted_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_stats_accumulate() {
        let mut s = CacheStats::new();
        s.record_misses(10, Bytes(100));
        s.record_misses(5, Bytes(50));
        assert_eq!(s.bytes_recalled, Bytes(150));
        assert_eq!(s.misses, 15);
    }

    #[test]
    fn transfer_merge_adds_fields() {
        let mut a = CacheStats::new();
        a.record_misses(1, Bytes(10));
        let mut b = CacheStats::new();
        b.record_misses(2, Bytes(20));
        a.merge(&b);
        assert_eq!(a.misses, 3);
        assert_eq!(a.bytes_recalled, Bytes(30));
        assert_eq!(a.hits, 0, "merging recalls must not invent hits");
    }

    #[test]
    fn hit_rate_handles_zero_lookups() {
        let s = CacheStats::new();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.total(), 0);
    }

    #[test]
    fn hit_rate_is_ratio_of_hits() {
        let mut s = CacheStats::new();
        s.record_hits(63);
        s.record_misses(37, Bytes(370));
        assert!((s.hit_rate() - 0.63).abs() < 1e-9);
        assert_eq!(s.total(), 100);
    }

    #[test]
    fn compression_stats_accumulate_and_merge() {
        let mut a = CompressionStats::new();
        a.record_demotion();
        a.record_compressed_hits(10);
        let mut b = CompressionStats::new();
        b.record_demotion();
        b.record_compressed_hits(5);
        a.merge(&b);
        assert_eq!(a.demotions, 2);
        assert_eq!(a.compressed_hits, 15);
    }

    #[test]
    fn prefetch_accuracy_guards_zero_staging() {
        let s = PrefetchStats::new();
        assert_eq!(s.accuracy(), 0.0, "nothing staged must not divide by zero");
        assert!(!s.accuracy().is_nan());
    }

    #[test]
    fn prefetch_stats_accumulate_and_merge() {
        let mut a = PrefetchStats::new();
        a.record_staged(Bytes(64));
        a.record_staged(Bytes(64));
        a.record_used(Bytes(64));
        a.record_wasted(Bytes(64));
        let mut b = PrefetchStats::new();
        b.record_staged(Bytes(32));
        b.record_used(Bytes(32));
        a.merge(&b);
        assert_eq!(a.staged_pages, 3);
        assert_eq!(a.staged_bytes, Bytes(160));
        assert_eq!(a.used_pages, 2);
        assert_eq!(a.used_bytes, Bytes(96));
        assert_eq!(a.wasted_bytes, Bytes(64));
        assert!((a.accuracy() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cache_merge_adds_fields() {
        let mut a = CacheStats::new();
        a.record_hits(2);
        a.record_misses(1, Bytes(10));
        let mut b = CacheStats::new();
        b.record_hits(3);
        b.record_misses(2, Bytes(20));
        a.merge(&b);
        assert_eq!(a.hits, 5);
        assert_eq!(a.misses, 3);
        assert_eq!(a.bytes_recalled, Bytes(30));
    }
}
