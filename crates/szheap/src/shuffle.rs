//! The STABILIZER shuffling layer (§3.2, Figure 1).
//!
//! A size-`N` array of pointers per size class sits between the
//! program and the base allocator. At first use the array is filled
//! with `N` objects from the base heap and shuffled with Fisher–Yates.
//! Every `malloc` allocates a fresh object, swaps it with a random
//! array slot, and returns the swapped-out pointer; every `free` swaps
//! the incoming pointer with a random slot and frees the swapped-out
//! one — each operation is one step of an inside-out Fisher–Yates
//! shuffle, so the stream of returned addresses is a random
//! interleaving of base-heap objects.
//!
//! The fill is one [`Allocator::malloc_n`] call. The segregated base
//! serves it with one carve, and every base returns exactly the objects
//! `N` separate mallocs would, so the layer's addresses are those of
//! the paper's eager fill.

use sz_rng::{fisher_yates, Rng};

use crate::{size_class, Allocator, LiveMap};

/// Smallest shuffled size class (matches the base allocator's floor).
const MIN_CLASS: u64 = 16;

/// STABILIZER's shuffling heap layer over a base allocator.
///
/// The shuffle parameter `N` trades randomness for overhead; the paper
/// settles on `N = 256`, which passes the same NIST tests as `lrand48`
/// (§3.2).
#[derive(Debug, Clone)]
pub struct ShuffleLayer<A, R = sz_rng::Marsaglia> {
    base: A,
    rng: R,
    shuffle_size: usize,
    /// Shuffle array per class exponent, created lazily.
    arrays: Vec<Option<Vec<u64>>>,
    /// Requested size of allocations handed to the caller, in an
    /// open-addressed table keyed by the class-aligned address — the
    /// per-malloc bookkeeping is on the simulation's hottest path.
    live: LiveMap,
    live_bytes: u64,
}

impl<A: Allocator, R: Rng> ShuffleLayer<A, R> {
    /// Wraps `base` with a shuffling layer of `shuffle_size` slots per
    /// size class, drawing randomness from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `shuffle_size` is zero.
    pub fn new(base: A, shuffle_size: usize, rng: R) -> Self {
        assert!(shuffle_size > 0, "shuffle size must be positive");
        ShuffleLayer {
            base,
            rng,
            shuffle_size,
            arrays: (0..64).map(|_| None).collect(),
            live: LiveMap::new(),
            live_bytes: 0,
        }
    }

    /// The shuffle parameter `N`.
    pub fn shuffle_size(&self) -> usize {
        self.shuffle_size
    }

    /// Access to the wrapped base allocator.
    pub fn base(&self) -> &A {
        &self.base
    }

    /// Fills and shuffles the array for class exponent `k` (§3.2:
    /// "initialized with a fill: N calls to Base::malloc ... then the
    /// array is shuffled using the Fisher-Yates shuffle"). The N calls
    /// are one [`Allocator::malloc_n`], which returns what they would.
    fn ensure_array(&mut self, k: usize, class: u64) -> Option<()> {
        if self.arrays[k].is_none() {
            let mut array = Vec::with_capacity(self.shuffle_size);
            self.base.malloc_n(class, self.shuffle_size, &mut array);
            if array.len() < self.shuffle_size {
                // Mid-fill exhaustion: hand the partial fill back so
                // the failed attempt leaks nothing.
                for p in array {
                    self.base.free(p);
                }
                return None;
            }
            fisher_yates(&mut array, &mut self.rng);
            self.arrays[k] = Some(array);
        }
        Some(())
    }
}

impl<A: Allocator, R: Rng> Allocator for ShuffleLayer<A, R> {
    fn malloc(&mut self, size: u64) -> Option<u64> {
        // C's `malloc(0)` is legal and must return a unique pointer;
        // `size_class` rounds the request up to the minimum class.
        let class = size_class(size, MIN_CLASS)?;
        let k = class.trailing_zeros() as usize;
        self.ensure_array(k, class)?;
        // One inside-out Fisher-Yates step: new object in, random
        // object out.
        let fresh = self.base.malloc(class)?;
        let i = self.rng.below(self.shuffle_size as u64) as usize;
        let array = self.arrays[k].as_mut().expect("array ensured above");
        let out = std::mem::replace(&mut array[i], fresh);
        self.live.insert(out, size);
        self.live_bytes += size;
        Some(out)
    }

    fn free(&mut self, addr: u64) {
        assert!(self.try_free(addr), "free of non-live address {addr:#x}");
    }

    fn try_free(&mut self, addr: u64) -> bool {
        let Some(size) = self.live.remove(addr) else {
            return false;
        };
        self.live_bytes -= size;
        let class = size_class(size, MIN_CLASS).expect("a live size has a class");
        let k = class.trailing_zeros() as usize;
        // The mirror step: freed object in, random object out to the
        // base heap.
        let i = self.rng.below(self.shuffle_size as u64) as usize;
        let array = self.arrays[k]
            .as_mut()
            .expect("freeing into an initialized class");
        let out = std::mem::replace(&mut array[i], addr);
        self.base.free(out);
        true
    }

    fn name(&self) -> &'static str {
        "shuffle"
    }

    fn live_bytes(&self) -> u64 {
        self.live_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Region, SegregatedAllocator};
    use sz_rng::Marsaglia;

    fn layer(n: usize, seed: u64) -> ShuffleLayer<SegregatedAllocator> {
        ShuffleLayer::new(
            SegregatedAllocator::new(Region::new(0x1000_0000, 1 << 28)),
            n,
            Marsaglia::seeded(seed),
        )
    }

    #[test]
    fn malloc_free_loop_addresses_vary() {
        // The base alone would return one address forever; the shuffle
        // layer must return many distinct addresses.
        let mut h = layer(256, 3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let p = h.malloc(64).unwrap();
            seen.insert(p);
            h.free(p);
        }
        assert!(seen.len() > 100, "only {} distinct addresses", seen.len());
    }

    #[test]
    fn all_addresses_come_from_the_base() {
        // The layer must be a permutation of base-heap objects — never
        // invent addresses.
        let mut h = layer(64, 9);
        for i in 0..500u64 {
            let p = h.malloc(16 + i % 100).unwrap();
            assert!(p >= 0x1000_0000, "address {p:#x} escaped the base region");
            if i % 3 == 0 {
                h.free(p);
            }
        }
    }

    #[test]
    fn returned_objects_never_alias_the_array_or_each_other() {
        let mut h = layer(32, 5);
        let mut live = std::collections::HashSet::new();
        for _ in 0..100 {
            let p = h.malloc(64).unwrap();
            assert!(live.insert(p), "address {p:#x} returned twice while live");
        }
        // Also disjoint from everything still parked in the shuffle array.
        let array = h.arrays[6].as_ref().unwrap().clone();
        for a in array {
            assert!(!live.contains(&a), "array object {a:#x} is also live");
        }
    }

    #[test]
    fn shuffle_one_behaves_like_one_step_delay() {
        // N = 1 still works: every malloc returns the previously parked
        // object.
        let mut h = layer(1, 1);
        let a = h.malloc(64).unwrap();
        let b = h.malloc(64).unwrap();
        assert_ne!(a, b);
        h.free(a);
        h.free(b);
        assert_eq!(h.live_bytes(), 0);
    }

    #[test]
    fn larger_n_gives_more_address_entropy() {
        let spread = |n: usize| {
            let mut h = layer(n, 77);
            let mut seen = std::collections::HashSet::new();
            for _ in 0..300 {
                let p = h.malloc(64).unwrap();
                seen.insert(p);
                h.free(p);
            }
            seen.len()
        };
        assert!(
            spread(256) > spread(4),
            "N=256 must spread further than N=4"
        );
    }

    #[test]
    fn classes_are_independent() {
        let mut h = layer(16, 2);
        let small = h.malloc(16).unwrap();
        let big = h.malloc(4096).unwrap();
        assert_ne!(small, big);
        h.free(small);
        h.free(big);
        assert_eq!(h.live_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "free of non-live address")]
    fn free_of_unknown_address_panics() {
        let mut h = layer(8, 1);
        h.malloc(64).unwrap();
        h.free(0xDEAD_BEEF);
    }

    #[test]
    fn try_free_of_non_live_address_reports_without_state_damage() {
        let mut h = layer(8, 1);
        let p = h.malloc(64).unwrap();
        assert!(!h.try_free(0xDEAD_BEEF), "unknown address");
        assert!(!h.try_free(p + 8), "interior pointer");
        assert_eq!(
            h.live_bytes(),
            64,
            "failed frees must not disturb accounting"
        );
        assert!(h.try_free(p), "the real allocation still frees");
        assert!(!h.try_free(p), "double free is reported, not fatal");
        assert_eq!(h.live_bytes(), 0);
    }

    #[test]
    fn mid_fill_exhaustion_leaks_nothing() {
        // A base region that fits only 5 of the 8 fill objects: the
        // fill fails partway and every already-carved object must be
        // handed back (the pre-fix code dropped them on the floor).
        let base = SegregatedAllocator::new(Region::new(0x1000, 5 * 64));
        let mut h = ShuffleLayer::new(base, 8, Marsaglia::seeded(4));
        assert_eq!(h.malloc(64), None, "fill cannot complete");
        assert_eq!(
            h.base().live_bytes(),
            0,
            "partial fill must be freed back to the base"
        );
        // A retry pulls the rolled-back blocks off the free list,
        // fails at the same carve, and must roll back again.
        assert_eq!(h.malloc(64), None);
        assert_eq!(h.base().live_bytes(), 0, "repeated attempts stay leak-free");
    }

    #[test]
    fn malloc_zero_is_legal_and_rounds_to_the_minimum_class() {
        let mut h = layer(16, 7);
        let p = h.malloc(0).unwrap();
        let q = h.malloc(0).unwrap();
        assert_ne!(p, q, "zero-size allocations are distinct objects");
        assert_eq!(h.live_bytes(), 0, "zero bytes are live to the caller");
        h.free(p);
        h.free(q);
        assert_eq!(h.live_bytes(), 0);
    }
}
