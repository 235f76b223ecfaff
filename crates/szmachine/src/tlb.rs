//! Translation lookaside buffers.
//!
//! STABILIZER's main overhead source is TLB pressure from spreading the
//! program across a larger virtual address space (§5.2), so the TLB is
//! a first-class part of the cost model.

use crate::lru::LruSets;

/// Geometry of a TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries.
    pub entries: u32,
    /// Associativity.
    pub ways: u32,
    /// Page size in bytes (must be a power of two).
    pub page_bytes: u64,
}

/// A set-associative TLB with LRU replacement.
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    page_shift: u32,
    set_mask: u64,
    /// All sets in one flat preallocated slot array (see `lru.rs`).
    sets: LruSets,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Builds a TLB.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry (entries not divisible into a
    /// power-of-two number of sets, or a non-power-of-two page size).
    pub fn new(config: TlbConfig) -> Self {
        assert!(config.ways > 0 && config.entries.is_multiple_of(config.ways));
        assert!(config.page_bytes.is_power_of_two());
        let sets = u64::from(config.entries / config.ways);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Tlb {
            config,
            page_shift: config.page_bytes.trailing_zeros(),
            set_mask: sets - 1,
            sets: LruSets::new(sets as usize, config.ways as usize),
            hits: 0,
            misses: 0,
        }
    }

    /// Geometry of this TLB.
    pub fn config(&self) -> TlbConfig {
        self.config
    }

    /// Virtual page number of an address.
    #[inline]
    pub fn vpn(&self, addr: u64) -> u64 {
        addr >> self.page_shift
    }

    /// Translates the page containing `addr`; returns `true` on a hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.access_page(self.vpn(addr))
    }

    /// Translates by *virtual page number* — the strength-reduced
    /// probe for callers that already track page indices (the batched
    /// fetch path derives the VPN from its line index with one shift).
    #[inline]
    pub fn access_page(&mut self, vpn: u64) -> bool {
        let set = (vpn & self.set_mask) as usize;
        if self.sets.access(set, vpn) {
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Lifetime hit count.
    #[inline]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    #[inline]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Test support: whether two TLBs hold bit-identical replacement
    /// state (keys, age stamps, MRU ways and the access clock),
    /// ignoring the hit/miss statistics. See [`crate::Cache::replacement_state_eq`].
    #[doc(hidden)]
    pub fn replacement_state_eq(&self, other: &Tlb) -> bool {
        self.sets == other.sets
    }

    /// Empties the TLB and zeroes the statistics.
    pub fn reset(&mut self) {
        self.sets.reset();
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dtlb() -> Tlb {
        Tlb::new(TlbConfig {
            entries: 64,
            ways: 4,
            page_bytes: 4096,
        })
    }

    #[test]
    fn same_page_hits() {
        let mut t = dtlb();
        assert!(!t.access(0x1000));
        assert!(t.access(0x1FFF));
        assert!(!t.access(0x2000), "next page is a different entry");
    }

    #[test]
    fn working_set_larger_than_reach_thrashes() {
        let mut t = dtlb();
        // 64 entries x 4 KiB = 256 KiB reach. Touch 512 KiB repeatedly
        // with a stride that maps everything into every set evenly.
        let pages = 128u64;
        for _round in 0..3 {
            for p in 0..pages {
                t.access(p * 4096);
            }
        }
        // First round misses all; later rounds keep missing because each
        // set sees 8 pages competing for 4 ways under LRU.
        assert_eq!(t.misses(), 3 * pages);
    }

    #[test]
    fn small_working_set_stays_resident() {
        let mut t = dtlb();
        for _round in 0..10 {
            for p in 0..32u64 {
                t.access(p * 4096);
            }
        }
        assert_eq!(t.misses(), 32, "only cold misses");
        assert_eq!(t.hits(), 9 * 32);
    }

    #[test]
    fn spread_layout_costs_more_tlb() {
        // The Figure-6 mechanism: same number of objects, spread over
        // more pages -> more TLB misses.
        let mut dense = dtlb();
        let mut sparse = dtlb();
        for _round in 0..5 {
            for i in 0..64u64 {
                dense.access(i * 64); // one page total
                sparse.access(i * 8192); // 64 distinct pages, 2-page stride
            }
        }
        assert!(sparse.misses() > dense.misses());
    }
}
