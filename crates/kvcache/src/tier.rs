//! Two-tier memory residency simulation (GPU HBM vs CPU DRAM).
//!
//! The paper offloads the full KV cache to CPU memory after prefill and only
//! keeps centroids, metadata and the selected-KV cache in GPU memory
//! (Fig. 5). [`MemoryTier`] counts the bytes charged to each memory and
//! rejects charges beyond capacity, so experiments can verify that the
//! ClusterKV configuration actually fits the GPU budget while the full-KV
//! configuration may not.

use crate::types::Bytes;
use serde::{Deserialize, Serialize};

/// Which physical memory a tier models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TierKind {
    /// GPU high-bandwidth memory.
    Gpu,
    /// Host DRAM reachable over PCIe.
    Cpu,
}

impl std::fmt::Display for TierKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TierKind::Gpu => write!(f, "GPU"),
            TierKind::Cpu => write!(f, "CPU"),
        }
    }
}

/// Error returned when an allocation does not fit in a tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocationError {
    /// The tier that rejected the allocation.
    pub tier: TierKind,
    /// Bytes requested.
    pub requested: Bytes,
    /// Bytes still available.
    pub available: Bytes,
}

impl std::fmt::Display for AllocationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} tier cannot allocate {} ({} available)",
            self.tier, self.requested, self.available
        )
    }
}

impl std::error::Error for AllocationError {}

/// A single capacity-tracked memory tier: two byte counters. The tier keeps
/// no record of what was charged — whoever charges bytes already knows each
/// page's (or region's) size and state, and releases the same size.
///
/// # Examples
///
/// ```
/// use clusterkv_kvcache::{MemoryTier, TierKind};
/// use clusterkv_kvcache::types::Bytes;
///
/// let mut gpu = MemoryTier::new(TierKind::Gpu, Bytes(48 * (1 << 30)));
/// gpu.charge(Bytes(1 << 20), false).unwrap();
/// assert!(gpu.used().get() > 0);
/// gpu.release(Bytes(1 << 20), false);
/// assert_eq!(gpu.used().get(), 0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemoryTier {
    kind: TierKind,
    capacity: Bytes,
    /// Running sum of everything charged, so `used()`/`fits()` are O(1) —
    /// the cluster cache calls them on every page admission and eviction.
    used: Bytes,
    /// Bytes charged for pages holding *compressed* data (DESIGN.md §9).
    compressed_used: Bytes,
}

impl MemoryTier {
    /// Create a tier of the given kind and capacity.
    pub fn new(kind: TierKind, capacity: Bytes) -> Self {
        Self {
            kind,
            capacity,
            used: Bytes(0),
            compressed_used: Bytes(0),
        }
    }

    /// A 256 GiB host DRAM tier.
    pub fn host_dram() -> Self {
        Self::new(TierKind::Cpu, Bytes(256 * (1 << 30)))
    }

    /// Total capacity.
    pub fn capacity(&self) -> Bytes {
        self.capacity
    }

    /// Bytes currently charged.
    pub fn used(&self) -> Bytes {
        self.used
    }

    /// Bytes still free.
    pub fn available(&self) -> Bytes {
        Bytes(self.capacity.get().saturating_sub(self.used().get()))
    }

    /// Charge `size` bytes, counted toward
    /// [`compressed_bytes`](Self::compressed_bytes) too if they hold
    /// compressed data. The tier keeps no record of the charge: whoever
    /// makes it [`release`](Self::release)s the same size from the same
    /// pool (a demotion releases the exact size and charges the compressed
    /// one).
    ///
    /// # Errors
    ///
    /// Returns [`AllocationError`] if the bytes would exceed capacity.
    // analyzer: hot-path — zero-allocation contract (tests/zero_alloc.rs)
    pub fn charge(&mut self, size: Bytes, compressed: bool) -> Result<(), AllocationError> {
        if !self.fits(size) {
            return Err(AllocationError {
                tier: self.kind,
                requested: size,
                available: self.available(),
            });
        }
        self.used += size;
        if compressed {
            self.compressed_used += size;
        }
        Ok(())
    }

    /// Give back `size` bytes [`charge`](Self::charge)d to the same pool.
    ///
    /// # Panics
    ///
    /// Panics if more is released than the pool holds — the caller's
    /// accounting is broken.
    // analyzer: hot-path — zero-allocation contract (tests/zero_alloc.rs)
    pub fn release(&mut self, size: Bytes, compressed: bool) {
        assert!(size.get() <= self.used.get(), "released more than charged");
        self.used = Bytes(self.used.get() - size.get());
        if compressed {
            assert!(
                size.get() <= self.compressed_used.get(),
                "released more compressed bytes than charged"
            );
            self.compressed_used = Bytes(self.compressed_used.get() - size.get());
        }
    }

    /// Bytes currently charged for compressed pages.
    pub fn compressed_bytes(&self) -> Bytes {
        self.compressed_used
    }

    /// Whether `size` more bytes would fit.
    pub fn fits(&self, size: Bytes) -> bool {
        self.used().get() + size.get() <= self.capacity.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn over_allocation_is_rejected() {
        let mut t = MemoryTier::new(TierKind::Gpu, Bytes(100));
        t.charge(Bytes(80), false).unwrap();
        let err = t.charge(Bytes(30), false).unwrap_err();
        assert_eq!(err.tier, TierKind::Gpu);
        assert_eq!(err.available, Bytes(20));
        assert!(err.to_string().contains("GPU"));
        // A refused charge must not change accounting.
        assert_eq!(t.used(), Bytes(80));
    }

    #[test]
    fn fits_checks_remaining_space() {
        let mut t = MemoryTier::new(TierKind::Gpu, Bytes(10));
        assert!(t.fits(Bytes(10)));
        t.charge(Bytes(6), false).unwrap();
        assert!(t.fits(Bytes(4)));
        assert!(!t.fits(Bytes(5)));
    }

    #[test]
    fn compressed_pool_tracks_moves_between_representations() {
        let mut t = MemoryTier::new(TierKind::Gpu, Bytes(100));
        t.charge(Bytes(40), false).unwrap();
        assert_eq!(t.used(), Bytes(40));
        assert_eq!(t.compressed_bytes(), Bytes(0));
        // Demotion: the page's exact bytes go, its smaller compressed
        // layout comes.
        t.release(Bytes(40), false);
        t.charge(Bytes(12), true).unwrap();
        assert_eq!(t.used(), Bytes(12));
        assert_eq!(t.compressed_bytes(), Bytes(12));
        // Promotion back to exact leaves the pool.
        t.release(Bytes(12), true);
        t.charge(Bytes(40), false).unwrap();
        assert_eq!(t.compressed_bytes(), Bytes(0));
        t.charge(Bytes(8), true).unwrap();
        t.release(Bytes(8), true);
        assert_eq!(t.compressed_bytes(), Bytes(0));
        assert_eq!(t.used(), Bytes(40));
    }

    #[test]
    fn compressed_allocation_respects_capacity() {
        let mut t = MemoryTier::new(TierKind::Gpu, Bytes(10));
        t.charge(Bytes(8), false).unwrap();
        let err = t.charge(Bytes(4), true).unwrap_err();
        assert_eq!(err.available, Bytes(2));
        assert_eq!(err.requested, Bytes(4));
        assert_eq!(t.used(), Bytes(8), "a refused charge changes nothing");
        assert_eq!(t.compressed_bytes(), Bytes(0));
    }

    #[test]
    #[should_panic(expected = "released more")]
    fn releasing_more_than_was_charged_is_a_bug() {
        let mut t = MemoryTier::new(TierKind::Gpu, Bytes(10));
        t.charge(Bytes(4), false).unwrap();
        t.release(Bytes(4), true);
    }

    #[test]
    fn presets_have_expected_capacity() {
        assert_eq!(MemoryTier::host_dram().capacity(), Bytes(256 * (1 << 30)));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn alloc_free_round_trips_never_leak_capacity(
                // Encoded op: low 6 bits size, next 2 bits kind (0 / 1 =
                // release the most recent charge, 2 / 3 = charge an exact /
                // compressed page of that size) — the shim proptest has no
                // tuple strategies.
                ops in proptest::collection::vec(0u64..256, 0..48),
                capacity in 1u64..128,
            ) {
                let mut tier = MemoryTier::new(TierKind::Gpu, Bytes(capacity));
                // Charged pages as (size, is_compressed), released LIFO.
                let mut pages: Vec<(u64, bool)> = Vec::new();
                for op in ops {
                    let size = op & 63;
                    let used: u64 = pages.iter().map(|p| p.0).sum();
                    match op >> 6 {
                        0 | 1 => {
                            if let Some((size, compressed)) = pages.pop() {
                                tier.release(Bytes(size), compressed);
                            }
                        }
                        kind => {
                            let compressed = kind == 3;
                            match tier.charge(Bytes(size), compressed) {
                                Ok(()) => pages.push((size, compressed)),
                                Err(err) => {
                                    // A refused charge reports the exact
                                    // availability and changes nothing.
                                    prop_assert_eq!(err.available, Bytes(capacity - used));
                                    prop_assert_eq!(err.requested, Bytes(size));
                                    prop_assert!(size + used > capacity);
                                }
                            }
                        }
                    }
                    // Total usage, the compressed pool and
                    // used + available == capacity stay consistent with the
                    // model.
                    let used: u64 = pages.iter().map(|p| p.0).sum();
                    let compressed: u64 = pages.iter().filter(|p| p.1).map(|p| p.0).sum();
                    prop_assert_eq!(tier.used(), Bytes(used));
                    prop_assert_eq!(tier.available(), Bytes(capacity - used));
                    prop_assert_eq!(tier.compressed_bytes(), Bytes(compressed));
                    prop_assert!(used <= capacity, "capacity leaked");
                }
                // Giving everything back returns the tier to pristine state.
                for (size, compressed) in pages {
                    tier.release(Bytes(size), compressed);
                }
                prop_assert_eq!(tier.used(), Bytes(0));
                prop_assert_eq!(tier.available(), Bytes(capacity));
                prop_assert_eq!(tier.compressed_bytes(), Bytes(0));
            }

            #[test]
            fn fits_agrees_with_allocate(extra in 0u64..100, preallocated in 0u64..80) {
                let mut tier = MemoryTier::new(TierKind::Cpu, Bytes(100));
                tier.charge(Bytes(preallocated), false).unwrap();
                let fits = tier.fits(Bytes(extra));
                let outcome = tier.charge(Bytes(extra), false);
                prop_assert_eq!(fits, outcome.is_ok());
            }
        }
    }
}
