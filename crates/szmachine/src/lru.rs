//! A flat, preallocated set-associative true-LRU array — the shared
//! storage engine behind [`crate::Cache`] and [`crate::Tlb`].
//!
//! The original representation kept one `Vec<u64>` per set in MRU
//! order, so every hit paid a `remove` + `insert` shift and every set
//! was its own heap allocation. Here all sets live in two contiguous
//! slabs allocated once at construction: a key slab (cache tags or
//! TLB virtual page numbers) and an age-stamp slab, each `sets *
//! ways` long. Recency is a monotonically increasing access clock
//! stamped into the touched slot; the eviction victim is the slot
//! with the smallest stamp. Empty slots carry stamp 0, below every
//! possible clock value, so sets fill before they evict.
//!
//! This reproduces true-LRU *bit-for-bit*: the minimal stamp in a set
//! is exactly the least recently touched way, and which of several
//! empty slots gets filled first cannot affect hit/miss behaviour
//! (resident keys and their relative recency are identical either
//! way). The differential test `tests/differential_lru.rs` pins this
//! equivalence against a naive MRU-list model over randomized
//! geometries and access streams.
//!
//! Two invariants keep the probe short:
//!
//! - **Live slots form a prefix of their set.** A miss fills the first
//!   minimum-stamp slot, which is the first empty one while any is
//!   empty, and stamps return to 0 only on [`LruSets::reset`]. So a
//!   probe compares keys alone and reads the stamp only on a match: a
//!   match in an empty slot (a key left over from before a reset) means
//!   no live slot holds the key.
//! - **Each set remembers its MRU way**, the way holding its newest
//!   stamp. A hit there changes nothing at all. Victim choice depends
//!   only on the order of stamps inside a set, and refreshing the
//!   newest one cannot change that order, so skipping the refresh is
//!   exact in everything the cache can show: hits, misses, residency
//!   and future victims. Only the internal stamps and clock differ
//!   from a model that refreshes on every hit.

/// Flat set-associative LRU state: `sets * ways` slots, no per-access
/// heap traffic.
///
/// `PartialEq` compares the complete replacement state (keys, stamps,
/// MRU ways, clock) — the idempotence tests below use it to prove that
/// certain re-accesses are literal no-ops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LruSets {
    /// Slot keys, set-major (`keys[set * ways + way]`). Zero-filled:
    /// emptiness is carried by the stamp, and a sentinel fill would
    /// write the whole slab on every construction.
    keys: Box<[u64]>,
    /// Age stamps parallel to `keys`; 0 = empty slot.
    stamps: Box<[u64]>,
    /// Per set, the way holding the set's newest stamp.
    mru: Box<[u8]>,
    ways: usize,
    /// Monotonic access clock; pre-incremented, so live stamps are ≥ 1.
    clock: u64,
}

impl LruSets {
    /// Allocates an empty array of `sets * ways` slots.
    pub(crate) fn new(sets: usize, ways: usize) -> Self {
        assert!(ways <= 256, "an MRU way index must fit a byte");
        let slots = sets.checked_mul(ways).expect("geometry fits in memory");
        LruSets {
            keys: vec![0; slots].into_boxed_slice(),
            stamps: vec![0; slots].into_boxed_slice(),
            mru: vec![0; sets].into_boxed_slice(),
            ways,
            clock: 0,
        }
    }

    /// Looks up `key` in `set`, refreshing its stamp on a hit; on a
    /// miss, installs `key` over the empty or least-recently-used
    /// slot. Returns `true` on a hit.
    ///
    /// A hit on the set's MRU way is a *literal* no-op (see the module
    /// docs). That covers re-accessing the globally most recent slot,
    /// the invariant the front-end memoization in `mem.rs` relies on.
    #[inline]
    pub(crate) fn access(&mut self, set: usize, key: u64) -> bool {
        let base = set * self.ways;
        let newest = base + usize::from(self.mru[set]);
        if self.keys[newest] == key && self.stamps[newest] != 0 {
            return true;
        }
        let keys = &mut self.keys[base..base + self.ways];
        let stamps = &mut self.stamps[base..base + self.ways];
        let way = match keys.iter().position(|&k| k == key) {
            Some(i) if stamps[i] != 0 => {
                self.clock += 1;
                stamps[i] = self.clock;
                self.mru[set] = i as u8;
                return true;
            }
            // Missed: fill the first minimum-stamp slot, which is the
            // first empty one if any is empty.
            _ => {
                let (mut victim, mut oldest) = (0, u64::MAX);
                for (i, &s) in stamps.iter().enumerate() {
                    if s < oldest {
                        (victim, oldest) = (i, s);
                        if s == 0 {
                            break;
                        }
                    }
                }
                victim
            }
        };
        self.clock += 1;
        keys[way] = key;
        stamps[way] = self.clock;
        self.mru[set] = way as u8;
        false
    }

    /// Probes for `key` in `set` without updating recency.
    #[inline]
    pub(crate) fn contains(&self, set: usize, key: u64) -> bool {
        let base = set * self.ways;
        self.keys[base..base + self.ways]
            .iter()
            .zip(&self.stamps[base..base + self.ways])
            .any(|(&k, &s)| s != 0 && k == key)
    }

    /// Empties every set and rewinds the clock. Keys stay as they are:
    /// a zero stamp marks a slot empty.
    pub(crate) fn reset(&mut self) {
        self.stamps.fill(0);
        self.mru.fill(0);
        self.clock = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_empty_slots_before_evicting() {
        let mut l = LruSets::new(1, 2);
        assert!(!l.access(0, 10));
        assert!(!l.access(0, 20));
        assert!(l.access(0, 10), "both keys resident");
        assert!(l.access(0, 20));
    }

    #[test]
    fn evicts_the_least_recently_used() {
        let mut l = LruSets::new(1, 2);
        l.access(0, 1);
        l.access(0, 2);
        l.access(0, 1); // 2 is now LRU
        assert!(!l.access(0, 3)); // evicts 2
        assert!(l.contains(0, 1));
        assert!(!l.contains(0, 2));
        assert!(l.contains(0, 3));
    }

    #[test]
    fn sets_are_independent() {
        let mut l = LruSets::new(2, 1);
        l.access(0, 7);
        l.access(1, 8);
        assert!(l.contains(0, 7));
        assert!(l.contains(1, 8));
        assert!(!l.contains(0, 8));
    }

    #[test]
    fn contains_does_not_perturb_recency() {
        let mut l = LruSets::new(1, 2);
        l.access(0, 1);
        l.access(0, 2); // LRU = 1
        assert!(l.contains(0, 1));
        l.access(0, 3); // must still evict 1, not 2
        assert!(!l.contains(0, 1));
        assert!(l.contains(0, 2));
    }

    #[test]
    fn reset_empties_everything() {
        let mut l = LruSets::new(2, 2);
        l.access(0, 1);
        l.access(1, 2);
        l.reset();
        assert!(!l.contains(0, 1));
        assert!(!l.contains(1, 2));
        assert!(!l.access(0, 1), "cold again after reset");
    }

    #[test]
    fn reaccessing_the_most_recent_slot_is_a_literal_noop() {
        let mut l = LruSets::new(2, 2);
        l.access(0, 1);
        l.access(1, 9);
        l.access(0, 2); // key 2 holds the global clock stamp
        let before = l.clone();
        assert!(l.access(0, 2));
        assert_eq!(l, before, "keys, stamps, and clock all unchanged");
        // A hit on an older (non-clock) slot still refreshes recency.
        assert!(l.access(0, 1));
        assert_ne!(l, before);
    }

    #[test]
    fn mru_refresh_keeps_future_evictions_identical() {
        // Refreshing the MRU way of a set (even when it is not the
        // globally newest slot) must not change which key a later miss
        // evicts — the observational half of the no-op invariant.
        let mut a = LruSets::new(2, 2);
        let mut b = LruSets::new(2, 2);
        for l in [&mut a, &mut b] {
            l.access(0, 1);
            l.access(0, 2); // set 0 MRU = 2
            l.access(1, 7); // global clock moves past set 0
        }
        assert!(b.access(0, 2), "re-touch set 0's MRU way in b only");
        a.access(0, 3);
        b.access(0, 3);
        for l in [&a, &b] {
            assert!(!l.contains(0, 1), "1 was LRU in both");
            assert!(l.contains(0, 2));
            assert!(l.contains(0, 3));
        }
    }

    #[test]
    fn a_sets_mru_way_hits_without_any_state_change() {
        let mut l = LruSets::new(2, 2);
        l.access(0, 1);
        l.access(0, 2); // set 0 MRU = 2
        l.access(1, 7); // the clock moves past set 0
        let before = l.clone();
        assert!(l.access(0, 2));
        assert_eq!(l, before, "not the newest slot overall, still a no-op");
    }

    #[test]
    fn keys_left_over_from_before_a_reset_are_misses() {
        let mut l = LruSets::new(1, 3);
        for k in [4, 5, 6] {
            l.access(0, k);
        }
        l.reset();
        // Key 5 still sits in way 1, but its slot is empty: a miss that
        // fills way 0, keeping the live slots a prefix.
        assert!(!l.access(0, 5));
        assert!(!l.access(0, 6));
        assert!(l.access(0, 5));
        assert!(l.access(0, 6));
        assert!(!l.contains(0, 4));
        assert!(!l.access(0, 4), "way 2 fills last");
        assert!(!l.access(0, 9), "a full set evicts its LRU key, 5");
        assert!(!l.contains(0, 5));
        assert!(l.contains(0, 6) && l.contains(0, 4) && l.contains(0, 9));
    }

    #[test]
    fn key_zero_is_a_legal_key() {
        // Emptiness is carried by the stamp, not the key value, so a
        // tag/VPN of 0 must behave like any other key.
        let mut l = LruSets::new(1, 2);
        assert!(!l.access(0, 0));
        assert!(l.access(0, 0));
        assert!(l.contains(0, 0));
    }
}
