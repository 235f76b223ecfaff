//! A DieHard-style bitmap-based randomized allocator.
//!
//! STABILIZER was originally implemented on DieHard (§3.2): a
//! randomized allocator with power-of-two size classes that places
//! each object at a uniformly random free slot of an over-provisioned
//! "miniheap" and never preferentially reuses recently-freed memory.
//! The paper notes its downsides — no reuse and a huge virtual
//! footprint cause TLB pressure — which is why the shipped STABILIZER
//! shuffles a deterministic base instead.

use std::collections::HashMap;

use sz_rng::{Marsaglia, Rng};

use crate::{size_class, Allocator, Region};

const MIN_CLASS: u64 = 16;
/// Initial slots per miniheap.
const INITIAL_SLOTS: u64 = 256;
/// Keep occupancy at or below 1/2 so random probing terminates fast.
const MAX_LOAD_NUM: u64 = 1;
const MAX_LOAD_DEN: u64 = 2;

#[derive(Debug, Clone)]
struct MiniHeap {
    base: u64,
    slots: u64,
    used: Vec<bool>,
    live: u64,
}

/// The DieHard allocation strategy over the simulated address space.
#[derive(Debug, Clone)]
pub struct DieHardAllocator {
    region: Region,
    rng: Marsaglia,
    /// Miniheaps per class exponent; multiple per class as the heap grows.
    heaps: Vec<Vec<MiniHeap>>,
    live: HashMap<u64, u64>,
    live_bytes: u64,
}

impl DieHardAllocator {
    /// Creates an allocator drawing randomness from `rng`.
    pub fn new(region: Region, rng: Marsaglia) -> Self {
        DieHardAllocator {
            region,
            rng,
            heaps: vec![Vec::new(); 64],
            live: HashMap::new(),
            live_bytes: 0,
        }
    }

    fn class_live(&self, k: usize) -> (u64, u64) {
        let mut live = 0;
        let mut capacity = 0;
        for h in &self.heaps[k] {
            live += h.live;
            capacity += h.slots;
        }
        (live, capacity)
    }

    /// Ensures class `k` has capacity for one more object at the target
    /// load factor; grows by doubling.
    fn ensure_capacity(&mut self, k: usize, class: u64) -> Option<()> {
        let (live, capacity) = self.class_live(k);
        if (live + 1) * MAX_LOAD_DEN <= capacity * MAX_LOAD_NUM {
            return Some(());
        }
        let slots = capacity.max(INITIAL_SLOTS);
        let base = self.region.carve(slots.checked_mul(class)?, class)?;
        self.heaps[k].push(MiniHeap {
            base,
            slots,
            used: vec![false; slots as usize],
            live: 0,
        });
        Some(())
    }
}

impl Allocator for DieHardAllocator {
    fn malloc(&mut self, size: u64) -> Option<u64> {
        assert!(size > 0, "zero-size allocation");
        let class = size_class(size, MIN_CLASS)?;
        let k = class.trailing_zeros() as usize;
        self.ensure_capacity(k, class)?;

        // Random probing across the whole class (all miniheaps),
        // weighted by slot count: pick a global slot index uniformly.
        let total_slots: u64 = self.heaps[k].iter().map(|h| h.slots).sum();
        loop {
            let mut idx = self.rng.below(total_slots);
            for heap in &mut self.heaps[k] {
                if idx < heap.slots {
                    if !heap.used[idx as usize] {
                        heap.used[idx as usize] = true;
                        heap.live += 1;
                        let addr = heap.base + idx * class;
                        self.live.insert(addr, size);
                        self.live_bytes += size;
                        return Some(addr);
                    }
                    break; // occupied: re-draw
                }
                idx -= heap.slots;
            }
        }
    }

    fn free(&mut self, addr: u64) {
        assert!(self.try_free(addr), "free of non-live address {addr:#x}");
    }

    fn try_free(&mut self, addr: u64) -> bool {
        let Some(size) = self.live.remove(&addr) else {
            return false;
        };
        self.live_bytes -= size;
        let class = size_class(size, MIN_CLASS).expect("a live size has a class");
        let k = class.trailing_zeros() as usize;
        let heap = self.heaps[k]
            .iter_mut()
            .find(|h| addr >= h.base && addr < h.base + h.slots * class)
            .expect("live address belongs to a miniheap");
        let slot = ((addr - heap.base) / class) as usize;
        assert!(heap.used[slot], "slot bookkeeping corrupt");
        heap.used[slot] = false;
        heap.live -= 1;
        true
    }

    fn name(&self) -> &'static str {
        "diehard"
    }

    fn live_bytes(&self) -> u64 {
        self.live_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc() -> DieHardAllocator {
        DieHardAllocator::new(Region::new(0x4000_0000, 1 << 32), Marsaglia::seeded(42))
    }

    #[test]
    fn no_deterministic_reuse() {
        // The defining contrast with the segregated base: malloc/free
        // cycles do NOT return the same address.
        let mut a = alloc();
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..50 {
            let p = a.malloc(64).unwrap();
            distinct.insert(p);
            a.free(p);
        }
        assert!(
            distinct.len() > 30,
            "only {} distinct addresses",
            distinct.len()
        );
    }

    #[test]
    fn addresses_are_class_aligned() {
        let mut a = alloc();
        for _ in 0..100 {
            let p = a.malloc(100).unwrap(); // class 128
            assert_eq!(p % 128, 0);
        }
    }

    #[test]
    fn load_factor_stays_at_or_below_half() {
        let mut a = alloc();
        let mut ptrs = Vec::new();
        for _ in 0..1000 {
            ptrs.push(a.malloc(64).unwrap());
        }
        let k = 64u64.trailing_zeros() as usize;
        let (live, capacity) = a.class_live(k);
        assert_eq!(live, 1000);
        assert!(capacity >= 2 * live, "capacity {capacity} for {live} live");
        for p in ptrs {
            a.free(p);
        }
    }

    #[test]
    fn footprint_exceeds_deterministic_allocator() {
        // The paper's reason for abandoning DieHard as default: the
        // over-provisioned virtual footprint spans more pages.
        let mut dh = alloc();
        let mut pages = std::collections::HashSet::new();
        for _ in 0..512 {
            pages.insert(dh.malloc(64).unwrap() / 4096);
        }
        // 512 x 64B objects fit in 8 pages densely; DieHard spreads them.
        assert!(pages.len() > 12, "only {} pages touched", pages.len());
    }

    #[test]
    fn same_seed_same_addresses() {
        let mut a = DieHardAllocator::new(Region::new(0x1000, 1 << 30), Marsaglia::seeded(7));
        let mut b = DieHardAllocator::new(Region::new(0x1000, 1 << 30), Marsaglia::seeded(7));
        for _ in 0..100 {
            assert_eq!(a.malloc(48), b.malloc(48));
        }
    }
}
