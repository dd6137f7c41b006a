//! Two-tier memory residency simulation (GPU HBM vs CPU DRAM).
//!
//! The paper offloads the full KV cache to CPU memory after prefill and only
//! keeps centroids, metadata and the selected-KV cache in GPU memory
//! (Fig. 5). [`MemoryTier`] tracks which byte ranges live where and rejects
//! allocations beyond capacity, so experiments can verify that the ClusterKV
//! configuration actually fits the GPU budget while the full-KV configuration
//! may not.

use crate::types::Bytes;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

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

/// A single capacity-tracked memory tier: named allocations for the few
/// long-lived regions, plus anonymous byte counts for cache pages, whose
/// owner already knows each page's size and state.
///
/// # Examples
///
/// ```
/// use clusterkv_kvcache::{MemoryTier, TierKind};
/// use clusterkv_kvcache::types::Bytes;
///
/// let mut gpu = MemoryTier::new(TierKind::Gpu, Bytes(48 * (1 << 30)));
/// gpu.allocate("centroids", Bytes(1 << 20)).unwrap();
/// assert!(gpu.used().get() > 0);
/// gpu.free("centroids");
/// assert_eq!(gpu.used().get(), 0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemoryTier {
    kind: TierKind,
    capacity: Bytes,
    allocations: BTreeMap<String, Bytes>,
    /// Running sum of `allocations` and of every charged page, so
    /// `used()`/`fits()` are O(1) — the cluster cache calls them on every
    /// page admission and eviction.
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
            allocations: BTreeMap::new(),
            used: Bytes(0),
            compressed_used: Bytes(0),
        }
    }

    /// A 48 GiB GPU tier matching the Ada 6000 of the paper.
    pub fn ada6000_gpu() -> Self {
        Self::new(TierKind::Gpu, Bytes(48 * (1 << 30)))
    }

    /// A 256 GiB host DRAM tier.
    pub fn host_dram() -> Self {
        Self::new(TierKind::Cpu, Bytes(256 * (1 << 30)))
    }

    /// Which memory this tier models.
    pub fn kind(&self) -> TierKind {
        self.kind
    }

    /// Total capacity.
    pub fn capacity(&self) -> Bytes {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> Bytes {
        self.used
    }

    /// Bytes still free.
    pub fn available(&self) -> Bytes {
        Bytes(self.capacity.get().saturating_sub(self.used().get()))
    }

    /// Allocate (or grow) a named region.
    ///
    /// Allocating a name that already exists replaces its size; the
    /// capacity check accounts for the replacement.
    ///
    /// # Errors
    ///
    /// Returns [`AllocationError`] if the allocation would exceed capacity.
    pub fn allocate(&mut self, name: &str, size: Bytes) -> Result<(), AllocationError> {
        let existing = self.allocations.get(name).copied().unwrap_or(Bytes(0));
        let used_without = self.used.get() - existing.get();
        if used_without + size.get() > self.capacity.get() {
            return Err(AllocationError {
                tier: self.kind,
                requested: size,
                available: Bytes(self.capacity.get() - used_without),
            });
        }
        self.allocations.insert(name.to_string(), size);
        self.used = Bytes(used_without + size.get());
        Ok(())
    }

    /// Free a named region. Freeing an unknown name is a no-op.
    pub fn free(&mut self, name: &str) {
        if let Some(size) = self.allocations.remove(name) {
            self.used = Bytes(self.used.get() - size.get());
        }
    }

    /// Charge `size` bytes for one anonymous page, counted toward
    /// [`compressed_bytes`](Self::compressed_bytes) too if the page holds
    /// compressed data. The tier keeps no record of the page: whoever
    /// charges it [`release`](Self::release)s the same size from the same
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
    /// Panics if more is released than the pool holds — the caller's page
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

    /// Size of a named region, if present.
    pub fn allocation(&self, name: &str) -> Option<Bytes> {
        self.allocations.get(name).copied()
    }

    /// Bytes currently charged for compressed pages.
    pub fn compressed_bytes(&self) -> Bytes {
        self.compressed_used
    }

    /// Whether a given extra allocation would fit.
    pub fn fits(&self, size: Bytes) -> bool {
        self.used().get() + size.get() <= self.capacity.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_free_round_trip() {
        let mut t = MemoryTier::new(TierKind::Gpu, Bytes(100));
        t.allocate("a", Bytes(40)).unwrap();
        t.allocate("b", Bytes(60)).unwrap();
        assert_eq!(t.used(), Bytes(100));
        assert_eq!(t.available(), Bytes(0));
        t.free("a");
        assert_eq!(t.used(), Bytes(60));
        assert_eq!(t.allocation("b"), Some(Bytes(60)));
        assert_eq!(t.allocation("a"), None);
    }

    #[test]
    fn over_allocation_is_rejected() {
        let mut t = MemoryTier::new(TierKind::Gpu, Bytes(100));
        t.allocate("a", Bytes(80)).unwrap();
        let err = t.allocate("b", Bytes(30)).unwrap_err();
        assert_eq!(err.tier, TierKind::Gpu);
        assert_eq!(err.available, Bytes(20));
        assert!(err.to_string().contains("GPU"));
        // Failed allocation must not change accounting.
        assert_eq!(t.used(), Bytes(80));
    }

    #[test]
    fn reallocation_replaces_size() {
        let mut t = MemoryTier::new(TierKind::Cpu, Bytes(100));
        t.allocate("kv", Bytes(90)).unwrap();
        // Shrinking an existing allocation is allowed even when the tier is
        // nearly full.
        t.allocate("kv", Bytes(50)).unwrap();
        assert_eq!(t.used(), Bytes(50));
        // Growing it within capacity is fine too.
        t.allocate("kv", Bytes(100)).unwrap();
        assert_eq!(t.used(), Bytes(100));
    }

    #[test]
    fn fits_checks_remaining_space() {
        let mut t = MemoryTier::new(TierKind::Gpu, Bytes(10));
        assert!(t.fits(Bytes(10)));
        t.allocate("x", Bytes(6)).unwrap();
        assert!(t.fits(Bytes(4)));
        assert!(!t.fits(Bytes(5)));
    }

    #[test]
    fn free_unknown_name_is_noop() {
        let mut t = MemoryTier::ada6000_gpu();
        t.free("does-not-exist");
        assert_eq!(t.used(), Bytes(0));
        assert_eq!(t.kind(), TierKind::Gpu);
        assert_eq!(MemoryTier::host_dram().kind(), TierKind::Cpu);
    }

    #[test]
    fn compressed_pool_tracks_moves_between_representations() {
        let mut t = MemoryTier::new(TierKind::Gpu, Bytes(100));
        t.allocate("centroids", Bytes(10)).unwrap();
        t.charge(Bytes(40), false).unwrap();
        assert_eq!(
            t.used(),
            Bytes(50),
            "pages and named regions share the tier"
        );
        assert_eq!(t.compressed_bytes(), Bytes(0));
        // Demotion: the page's exact bytes go, its smaller compressed
        // layout comes.
        t.release(Bytes(40), false);
        t.charge(Bytes(12), true).unwrap();
        assert_eq!(t.used(), Bytes(22));
        assert_eq!(t.compressed_bytes(), Bytes(12));
        // Promotion back to exact leaves the pool.
        t.release(Bytes(12), true);
        t.charge(Bytes(40), false).unwrap();
        assert_eq!(t.compressed_bytes(), Bytes(0));
        t.charge(Bytes(8), true).unwrap();
        t.release(Bytes(8), true);
        assert_eq!(t.compressed_bytes(), Bytes(0));
        assert_eq!(t.used(), Bytes(50));
        t.free("centroids");
        assert_eq!(t.used(), Bytes(40), "freeing a name leaves the pages");
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
        assert_eq!(MemoryTier::ada6000_gpu().capacity(), Bytes(48 * (1 << 30)));
        assert_eq!(MemoryTier::host_dram().capacity(), Bytes(256 * (1 << 30)));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        /// Replay an op sequence against both the tier and a flat model map;
        /// op = (name_index, size, kind).
        fn names() -> [&'static str; 4] {
            ["kv", "centroids", "metadata", "selected"]
        }

        proptest! {
            #[test]
            fn alloc_free_round_trips_never_leak_capacity(
                // Encoded op: low 2 bits name, next 6 bits size, next 2 bits
                // kind (0 = free the name, 1 = allocate it, 2 / 3 = charge
                // an exact / compressed page of that size) — the shim
                // proptest has no tuple strategies.
                ops in proptest::collection::vec(0u64..1024, 0..48),
                capacity in 1u64..128,
            ) {
                let mut tier = MemoryTier::new(TierKind::Gpu, Bytes(capacity));
                let mut model: HashMap<&str, u64> = HashMap::new();
                // Charged pages as (size, is_compressed), released in LIFO
                // order when the named ops come around to `free`.
                let mut pages: Vec<(u64, bool)> = Vec::new();
                for op in ops {
                    let name = names()[(op & 3) as usize];
                    let size = (op >> 2) & 63;
                    let used: u64 =
                        model.values().sum::<u64>() + pages.iter().map(|p| p.0).sum::<u64>();
                    match (op >> 8) & 3 {
                        0 => {
                            tier.free(name);
                            model.remove(name);
                            if let Some((size, compressed)) = pages.pop() {
                                tier.release(Bytes(size), compressed);
                            }
                        }
                        1 => match tier.allocate(name, Bytes(size)) {
                            Ok(()) => { model.insert(name, size); }
                            Err(err) => {
                                // A rejected allocation reports the exact
                                // availability for *this* name (its current
                                // size is reusable) and changes nothing.
                                let used_without = used - model.get(name).copied().unwrap_or(0);
                                prop_assert_eq!(err.available, Bytes(capacity - used_without));
                                prop_assert_eq!(err.requested, Bytes(size));
                                prop_assert!(size + used_without > capacity);
                            }
                        },
                        kind => {
                            let compressed = kind == 3;
                            match tier.charge(Bytes(size), compressed) {
                                Ok(()) => pages.push((size, compressed)),
                                Err(err) => {
                                    prop_assert_eq!(err.available, Bytes(capacity - used));
                                    prop_assert!(size + used > capacity);
                                }
                            }
                        }
                    }
                    // Interleaved named regions and pages stay consistent
                    // with the model: per-name sizes, total usage, the
                    // compressed pool, and used + available == capacity.
                    let used: u64 =
                        model.values().sum::<u64>() + pages.iter().map(|p| p.0).sum::<u64>();
                    let compressed: u64 = pages.iter().filter(|p| p.1).map(|p| p.0).sum();
                    prop_assert_eq!(tier.used(), Bytes(used));
                    prop_assert_eq!(tier.available(), Bytes(capacity - used));
                    prop_assert_eq!(tier.compressed_bytes(), Bytes(compressed));
                    prop_assert!(used <= capacity, "capacity leaked");
                    for name in names() {
                        prop_assert_eq!(
                            tier.allocation(name),
                            model.get(name).map(|&s| Bytes(s))
                        );
                    }
                }
                // Giving everything back returns the tier to pristine state.
                for name in names() {
                    tier.free(name);
                }
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
                tier.allocate("base", Bytes(preallocated)).unwrap();
                let fits = tier.fits(Bytes(extra));
                let outcome = tier.allocate("probe", Bytes(extra));
                prop_assert_eq!(fits, outcome.is_ok());
            }
        }
    }
}
