//! Simulated-address-space heap allocators.
//!
//! STABILIZER randomizes the heap by wrapping a deterministic *base
//! allocator* in a *shuffling layer* (§3.2, Figure 1). This crate
//! provides:
//!
//! - [`SegregatedAllocator`] — the power-of-two, size-segregated base
//!   allocator the paper uses by default;
//! - [`TlsfAllocator`] — the optional two-level segregated-fits base,
//!   with Masmano et al.'s constant-time bitmap search over its free
//!   lists;
//! - [`DieHardAllocator`] — the bitmap-based randomized allocator
//!   STABILIZER was originally built on (and §3.2's randomness
//!   reference point);
//! - [`ShuffleLayer`] — the size-`N` Fisher–Yates shuffling layer.
//!
//! All allocators hand out addresses in a simulated virtual address
//! space ([`Region`]); no host memory is touched. The *addresses* are
//! the product — they feed the cache/TLB model in `sz-machine`.
//!
//! # Examples
//!
//! ```
//! use sz_heap::{Allocator, Region, SegregatedAllocator, ShuffleLayer};
//! use sz_rng::Marsaglia;
//!
//! let base = SegregatedAllocator::new(Region::new(0x1000_0000, 1 << 30));
//! let mut heap = ShuffleLayer::new(base, 256, Marsaglia::seeded(1));
//! let a = heap.malloc(64).unwrap();
//! let b = heap.malloc(64).unwrap();
//! assert_ne!(a, b);
//! heap.free(a);
//! ```

mod diehard;
mod livemap;
mod region;
mod segregated;
mod shuffle;
mod tlsf;

pub use diehard::DieHardAllocator;
pub use livemap::LiveMap;
pub use region::Region;
pub use segregated::SegregatedAllocator;
pub use shuffle::ShuffleLayer;
pub use tlsf::TlsfAllocator;

/// A heap allocator over a simulated address space.
///
/// Implementations hand out non-overlapping, aligned addresses;
/// freeing an address not previously returned by `malloc` (or freeing
/// twice) is a caller bug and panics.
pub trait Allocator {
    /// Allocates `size` bytes; returns the address, or `None` if the
    /// backing region is exhausted.
    ///
    /// A zero-byte request is implementation-defined: the shuffling
    /// layer rounds it up to its minimum size class (C's `malloc(0)`
    /// is legal and appears in real workloads); the deterministic
    /// base allocators panic.
    fn malloc(&mut self, size: u64) -> Option<u64>;

    /// Allocates `n` objects of `size` bytes, appending their
    /// addresses to `out` in the order `n` successive
    /// [`Allocator::malloc`] calls return them, and stops at the first
    /// `None`: fewer than `n` new addresses means the region ran out
    /// partway. The shuffling layer fills a size class with it.
    ///
    /// The default makes exactly those calls. An allocator may serve
    /// the batch another way, but it must return the same addresses and
    /// leave the same state.
    fn malloc_n(&mut self, size: u64, n: usize, out: &mut Vec<u64>) {
        malloc_each(self, size, n, out);
    }

    /// Releases an allocation.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a live allocation from this allocator.
    fn free(&mut self, addr: u64);

    /// Fallible variant of [`Allocator::free`]: returns `false` —
    /// leaving the allocator untouched — when `addr` is not a live
    /// allocation, so callers (the VM's `Free` instruction) can turn
    /// a bad guest free into a structured error instead of aborting
    /// the whole experiment process.
    ///
    /// The default delegates to [`Allocator::free`] for allocators
    /// that cannot detect liveness cheaply; those still panic.
    fn try_free(&mut self, addr: u64) -> bool {
        self.free(addr);
        true
    }

    /// Human-readable allocator name (for reports).
    fn name(&self) -> &'static str;

    /// Bytes currently handed out to the caller.
    fn live_bytes(&self) -> u64;
}

/// [`Allocator::malloc_n`] as `n` successive `malloc` calls, stopping at
/// the first `None`.
pub(crate) fn malloc_each<A: Allocator + ?Sized>(
    alloc: &mut A,
    size: u64,
    n: usize,
    out: &mut Vec<u64>,
) {
    for _ in 0..n {
        match alloc.malloc(size) {
            Some(addr) => out.push(addr),
            None => return,
        }
    }
}

/// Rounds `size` up to the next power of two, with a floor of
/// `min_class` bytes; `None` when that exceeds `u64::MAX` (a request
/// above 2^63 bytes, which no region can hold).
pub(crate) fn size_class(size: u64, min_class: u64) -> Option<u64> {
    size.max(min_class).checked_next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sz_rng::Marsaglia;

    /// Every allocator must satisfy the same basic contract; run the
    /// whole battery over each.
    fn implementations() -> Vec<Box<dyn Allocator>> {
        vec![
            Box::new(SegregatedAllocator::new(Region::new(0x10_0000, 1 << 28))),
            Box::new(TlsfAllocator::new(Region::new(0x10_0000, 1 << 28))),
            Box::new(DieHardAllocator::new(
                Region::new(0x10_0000, 1 << 30),
                Marsaglia::seeded(11),
            )),
            Box::new(ShuffleLayer::new(
                SegregatedAllocator::new(Region::new(0x10_0000, 1 << 28)),
                256,
                Marsaglia::seeded(12),
            )),
        ]
    }

    #[test]
    fn no_overlap_across_live_allocations() {
        for mut a in implementations() {
            let mut live: Vec<(u64, u64)> = Vec::new();
            for i in 0..200u64 {
                let size = 1 + (i * 37) % 500;
                let addr = a.malloc(size).expect("arena large enough");
                for &(other, osize) in &live {
                    let disjoint = addr + size <= other || other + osize <= addr;
                    assert!(
                        disjoint,
                        "{}: [{addr:#x}+{size}] overlaps [{other:#x}+{osize}]",
                        a.name()
                    );
                }
                live.push((addr, size));
            }
        }
    }

    #[test]
    fn addresses_are_aligned() {
        for mut a in implementations() {
            for size in [1u64, 8, 24, 64, 100, 4096] {
                let addr = a.malloc(size).unwrap();
                assert_eq!(addr % 16, 0, "{}: {addr:#x} for size {size}", a.name());
            }
        }
    }

    #[test]
    fn free_then_realloc_works() {
        for mut a in implementations() {
            let addrs: Vec<u64> = (0..50).map(|_| a.malloc(64).unwrap()).collect();
            for &p in &addrs {
                a.free(p);
            }
            assert_eq!(a.live_bytes(), 0, "{}", a.name());
            // The allocator must still function afterwards.
            let p = a.malloc(64).unwrap();
            assert!(p > 0);
        }
    }

    #[test]
    fn live_bytes_tracks_outstanding() {
        for mut a in implementations() {
            assert_eq!(a.live_bytes(), 0);
            let p = a.malloc(100).unwrap();
            let q = a.malloc(20).unwrap();
            assert_eq!(a.live_bytes(), 120, "{}", a.name());
            a.free(p);
            assert_eq!(a.live_bytes(), 20, "{}", a.name());
            a.free(q);
            assert_eq!(a.live_bytes(), 0, "{}", a.name());
        }
    }

    #[test]
    fn oversized_requests_are_none_not_panic() {
        for mut a in implementations() {
            for size in [u64::MAX, u64::MAX - 8, (1 << 63) + 1] {
                assert_eq!(a.malloc(size), None, "{}: size {size:#x}", a.name());
            }
            assert_eq!(a.live_bytes(), 0, "{}", a.name());
            assert!(a.malloc(64).is_some(), "{} still serves", a.name());
        }
    }

    #[test]
    fn size_class_rounding() {
        assert_eq!(size_class(1, 16), Some(16));
        assert_eq!(size_class(16, 16), Some(16));
        assert_eq!(size_class(17, 16), Some(32));
        assert_eq!(size_class(4097, 16), Some(8192));
        assert_eq!(size_class(1 << 63, 16), Some(1 << 63));
        assert_eq!(size_class((1 << 63) + 1, 16), None);
    }
}
