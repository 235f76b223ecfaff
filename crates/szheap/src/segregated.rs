//! The power-of-two, size-segregated base allocator (§3.2).

use crate::{malloc_each, size_class, Allocator, LiveMap, Region};

/// Smallest size class in bytes (also the alignment guarantee).
const MIN_CLASS: u64 = 16;

/// STABILIZER's default base allocator: power-of-two size classes with
/// LIFO free lists (§3.2: "a power of two, size-segregated allocator").
///
/// The LIFO reuse is what makes it *deterministic* — and what the
/// shuffling layer exists to undo: without shuffling, a malloc/free
/// loop returns the same address every iteration.
#[derive(Debug, Clone)]
pub struct SegregatedAllocator {
    region: Region,
    /// Free list per class exponent (`free[k]` holds blocks of `2^k`).
    free: Vec<Vec<u64>>,
    /// Requested (not rounded) size of live allocations. A live
    /// block's class is `class_for` of that size. Blocks are
    /// class-aligned, the key shape [`LiveMap`] hashes well.
    live: LiveMap,
    live_bytes: u64,
}

impl SegregatedAllocator {
    /// Creates an allocator that carves from `region`.
    pub fn new(region: Region) -> Self {
        SegregatedAllocator {
            region,
            free: vec![Vec::new(); 64],
            live: LiveMap::new(),
            live_bytes: 0,
        }
    }

    /// Internal-use size class for a request; `None` above 2^63 bytes.
    pub fn class_for(size: u64) -> Option<u64> {
        size_class(size, MIN_CLASS)
    }
}

impl Allocator for SegregatedAllocator {
    fn malloc(&mut self, size: u64) -> Option<u64> {
        assert!(size > 0, "zero-size allocation");
        let class = Self::class_for(size)?;
        let k = class.trailing_zeros() as usize;
        let addr = match self.free[k].pop() {
            Some(a) => a,
            // Natural alignment: blocks of 2^k are 2^k-aligned, so the
            // low bits of every address in a class are zero — the
            // address-entropy structure §3.2 discusses.
            None => self.region.carve(class, class)?,
        };
        self.live.insert(addr, size);
        self.live_bytes += size;
        Some(addr)
    }

    /// One carve serves the whole batch when every one of the `n`
    /// mallocs would carve, that is when the class's free list is
    /// empty. It returns the blocks `n` carves would: the first is
    /// aligned up to the class, and each next one starts where the last
    /// ended, which is aligned already. A batch that would run out
    /// partway takes the per-object path, so the blocks it does get,
    /// and the state it leaves, are those of `n` mallocs.
    fn malloc_n(&mut self, size: u64, n: usize, out: &mut Vec<u64>) {
        let class = Self::class_for(size).filter(|&class| {
            size > 0 && n > 0 && self.free[class.trailing_zeros() as usize].is_empty()
        });
        let bulk = class.and_then(|class| {
            let first = self.region.carve(class.checked_mul(n as u64)?, class)?;
            Some((first, class))
        });
        let Some((first, class)) = bulk else {
            return malloc_each(self, size, n, out);
        };
        self.live.reserve(n);
        for i in 0..n as u64 {
            let addr = first + i * class;
            self.live.insert(addr, size);
            out.push(addr);
        }
        self.live_bytes += n as u64 * size;
    }

    fn free(&mut self, addr: u64) {
        assert!(self.try_free(addr), "free of non-live address {addr:#x}");
    }

    fn try_free(&mut self, addr: u64) -> bool {
        let Some(size) = self.live.remove(addr) else {
            return false;
        };
        self.live_bytes -= size;
        let class = Self::class_for(size).expect("a live size has a class");
        self.free[class.trailing_zeros() as usize].push(addr);
        true
    }

    fn name(&self) -> &'static str {
        "segregated-pow2"
    }

    fn live_bytes(&self) -> u64 {
        self.live_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc() -> SegregatedAllocator {
        SegregatedAllocator::new(Region::new(0x100_0000, 1 << 26))
    }

    #[test]
    fn lifo_reuse_is_deterministic() {
        // The motivating property: the base allocator alone produces
        // *identical* addresses across malloc/free cycles.
        let mut a = alloc();
        let p = a.malloc(100).unwrap();
        a.free(p);
        let q = a.malloc(80).unwrap(); // same 128-byte class
        assert_eq!(p, q, "LIFO free list returns the most recent block");
    }

    #[test]
    fn classes_are_naturally_aligned() {
        let mut a = alloc();
        for size in [1u64, 17, 33, 100, 1000, 5000] {
            let class = SegregatedAllocator::class_for(size).unwrap();
            let p = a.malloc(size).unwrap();
            assert_eq!(p % class, 0, "size {size} (class {class})");
        }
    }

    #[test]
    fn different_classes_do_not_mix() {
        let mut a = alloc();
        let small = a.malloc(16).unwrap();
        a.free(small);
        let big = a.malloc(1024).unwrap();
        assert_ne!(
            small, big,
            "1024-byte request must not reuse a 16-byte block"
        );
    }

    #[test]
    #[should_panic(expected = "free of non-live address")]
    fn double_free_panics() {
        let mut a = alloc();
        let p = a.malloc(64).unwrap();
        a.free(p);
        a.free(p);
    }

    #[test]
    fn exhaustion_is_none_not_panic() {
        let mut a = SegregatedAllocator::new(Region::new(0, 64));
        assert!(a.malloc(16).is_some());
        assert!(a.malloc(16).is_some());
        assert!(a.malloc(16).is_some());
        assert!(a.malloc(16).is_some());
        assert_eq!(a.malloc(16), None);
    }

    #[test]
    fn rounding_wastes_space_for_awkward_sizes() {
        // This is cactusADM's Figure-6 overhead story: arrays rounded up
        // to powers of two waste heap space.
        let mut a = alloc();
        let p = a.malloc(4097).unwrap();
        let q = a.malloc(4097).unwrap();
        assert!(
            q - p >= 8192,
            "each 4097-byte array occupies an 8 KiB class"
        );
    }
}
