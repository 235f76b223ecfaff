//! Set-associative caches with true-LRU replacement.

use crate::lru::LruSets;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes (must be a power of two).
    pub line_bytes: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.line_bytes * u64::from(self.ways))
    }
}

/// A set-associative cache with LRU replacement.
///
/// Address decomposition follows real hardware: the low `log2(line)`
/// bits are the line offset, the next `log2(sets)` bits the set index,
/// the rest the tag. For the L1/L2 configurations used here that makes
/// bits 6–17 the index bits — exactly the bits STABILIZER says matter
/// for layout (§3.2: "It is only necessary to randomize the index bits
/// of heap object addresses").
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    line_shift: u32,
    set_mask: u64,
    /// `log2(sets)`: a line index shifted right by it is the tag.
    set_bits: u32,
    /// All sets in one flat preallocated slot array (see `lru.rs`).
    sets: LruSets,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds a cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (non-power-of-two line or
    /// set count, or zero ways).
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.ways > 0, "cache needs at least one way");
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let sets = config.sets();
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "set count must be a positive power of two, got {sets}"
        );
        Cache {
            config,
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: sets - 1,
            set_bits: sets.trailing_zeros(),
            sets: LruSets::new(sets as usize, config.ways as usize),
            hits: 0,
            misses: 0,
        }
    }

    /// Geometry of this cache.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Set index for an address (useful to reason about conflicts).
    #[inline]
    pub fn set_index(&self, addr: u64) -> u64 {
        (addr >> self.line_shift) & self.set_mask
    }

    #[inline]
    fn tag(&self, addr: u64) -> u64 {
        addr >> self.line_shift >> self.set_bits
    }

    /// Accesses the line containing `addr`; returns `true` on a hit.
    /// On a miss the line is filled, evicting the LRU way if needed.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.access_line(addr >> self.line_shift)
    }

    /// Accesses a line by *line index* (`addr >> log2(line_bytes)`) —
    /// the strength-reduced probe for callers that already track line
    /// indices (the batched fetch path): set and tag come straight off
    /// the index with no per-probe shift by the line offset.
    #[inline]
    pub fn access_line(&mut self, line: u64) -> bool {
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_bits;
        if self.sets.access(set, tag) {
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Probes without updating replacement state or statistics.
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        let set = self.set_index(addr) as usize;
        self.sets.contains(set, self.tag(addr))
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

    /// Test support: whether two caches hold bit-identical replacement
    /// state (keys, age stamps, MRU ways and the access clock),
    /// ignoring the hit/miss statistics. The MRU-idempotence property
    /// tests use this to prove certain re-accesses cannot perturb
    /// future behaviour.
    #[doc(hidden)]
    pub fn replacement_state_eq(&self, other: &Cache) -> bool {
        self.sets == other.sets
    }

    /// Empties the cache and zeroes the statistics.
    pub fn reset(&mut self) {
        self.sets.reset();
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512 B.
        Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn geometry() {
        let c = tiny();
        assert_eq!(c.config().sets(), 4);
        assert_eq!(c.set_index(0), 0);
        assert_eq!(c.set_index(64), 1);
        assert_eq!(c.set_index(64 * 4), 0, "wraps around the set space");
        assert_eq!(c.set_index(63), 0, "offset bits ignored");
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(0x100));
        assert!(c.access(0x100));
        assert!(c.access(0x13F), "same line, different offset");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Three lines mapping to set 0 in a 2-way cache: 0, 256, 512.
        c.access(0);
        c.access(256);
        c.access(0); // 0 becomes MRU; 256 is LRU
        c.access(512); // evicts 256
        assert!(c.contains(0));
        assert!(!c.contains(256));
        assert!(c.contains(512));
    }

    #[test]
    fn conflict_misses_depend_on_placement() {
        // The layout-bias mechanism in miniature: two hot addresses that
        // share a set in a direct-mapped-ish pattern thrash; moved apart
        // they coexist.
        // 8 sets x 1 way: addresses 512 bytes apart share a set.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 1,
            line_bytes: 64,
        });
        let (a, conflicting, friendly) = (0u64, 512u64, 64u64);
        let mut misses_bad = 0;
        for _ in 0..100 {
            if !c.access(a) {
                misses_bad += 1;
            }
            if !c.access(conflicting) {
                misses_bad += 1;
            }
        }
        c.reset();
        let mut misses_good = 0;
        for _ in 0..100 {
            if !c.access(a) {
                misses_good += 1;
            }
            if !c.access(friendly) {
                misses_good += 1;
            }
        }
        assert_eq!(misses_bad, 200, "aliasing addresses thrash every access");
        assert_eq!(misses_good, 2, "non-aliasing addresses only miss cold");
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = tiny();
        c.access(0x40);
        c.reset();
        assert!(!c.contains(0x40));
        assert_eq!(c.hits() + c.misses(), 0);
    }

    #[test]
    fn i3_l1_geometry_indexes_bits_6_to_11() {
        // 32 KiB, 8-way, 64 B lines -> 64 sets -> index bits 6..12.
        let c = Cache::new(CacheConfig {
            size_bytes: 32 * 1024,
            ways: 8,
            line_bytes: 64,
        });
        assert_eq!(c.config().sets(), 64);
        assert_eq!(c.set_index(1 << 6), 1);
        assert_eq!(c.set_index(1 << 12), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_geometry() {
        Cache::new(CacheConfig {
            size_bytes: 96,
            ways: 1,
            line_bytes: 48,
        });
    }
}
