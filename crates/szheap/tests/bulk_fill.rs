//! Differential tests of the batched shuffle-array fill.
//!
//! `Allocator::malloc_n(size, n, out)` promises the addresses, and the
//! allocator state, of `n` successive `malloc(size)` calls. The
//! segregated base serves a batch with one carve when its free list is
//! empty, and the other bases take the trait's default, so each base is
//! checked against `n` plain mallocs on a clone: the same addresses,
//! the same `live_bytes`, and the same result for every later malloc,
//! free and `try_free`. `EagerShuffle` below is the shuffling layer
//! with its original fill, N mallocs one by one, and the real layer
//! must match it address for address over seeded operation streams.

use std::collections::HashMap;

use sz_heap::{
    Allocator, DieHardAllocator, Region, SegregatedAllocator, ShuffleLayer, TlsfAllocator,
};
use sz_rng::{fisher_yates, Marsaglia, Rng, SplitMix64};

/// A marker already in `out`, which `malloc_n` must append after.
const MARK: u64 = 0xAAAA;

/// `n` mallocs, stopping at the first `None`: what `malloc_n` must
/// reproduce.
fn malloc_each<A: Allocator>(alloc: &mut A, size: u64, n: usize, out: &mut Vec<u64>) {
    for _ in 0..n {
        match alloc.malloc(size) {
            Some(addr) => out.push(addr),
            None => return,
        }
    }
}

/// Runs `malloc_n(size, n)` on `alloc` and `n` mallocs on a clone, then
/// the same seeded stream of mallocs, frees and bogus `try_free`s on
/// both, asserting that every result agrees.
fn check<A: Allocator + Clone>(label: &str, alloc: A, size: u64, n: usize, seed: u64) {
    let what = format!("{label}: malloc_n({size}, {n})");
    let mut batched = alloc.clone();
    let mut each = alloc;
    let (mut got, mut want) = (vec![MARK], vec![MARK]);
    batched.malloc_n(size, n, &mut got);
    malloc_each(&mut each, size, n, &mut want);
    assert_eq!(got, want, "{what}: addresses");
    assert_eq!(
        batched.live_bytes(),
        each.live_bytes(),
        "{what}: live bytes"
    );

    let mut live: Vec<u64> = want[1..].to_vec();
    let mut rng = SplitMix64::new(seed);
    for step in 0..400 {
        let r = rng.next_u64();
        match r % 4 {
            0 | 1 => {
                // Mostly the batch's own class, sometimes another.
                let size = if r % 8 < 4 {
                    size.max(1)
                } else {
                    1 + (r >> 8) % 600
                };
                let (a, b) = (batched.malloc(size), each.malloc(size));
                assert_eq!(a, b, "{what}: step {step}, malloc({size})");
                live.extend(a);
            }
            2 if !live.is_empty() => {
                let addr = live.swap_remove((r >> 8) as usize % live.len());
                batched.free(addr);
                each.free(addr);
            }
            _ => {
                let bogus = live.first().map_or(0x10, |&a| a + 8);
                assert_eq!(
                    batched.try_free(bogus),
                    each.try_free(bogus),
                    "{what}: step {step}, try_free({bogus:#x})"
                );
            }
        }
        assert_eq!(
            batched.live_bytes(),
            each.live_bytes(),
            "{what}: step {step}"
        );
    }
}

/// Sizes that are powers of two, that are not, one that rounds to the
/// smallest class, and one whose batch overflows `n · class`.
const SIZES: [u64; 6] = [1, 24, 64, 100, 4097, 1 << 62];
const COUNTS: [usize; 6] = [0, 1, 2, 7, 8, 256];

/// States to batch from, each built by `malloc`/`free` on a fresh
/// allocator:
/// - fresh;
/// - a 16-byte block first, so the cursor is not aligned to the
///   batch's class and the first block must be aligned up;
/// - a non-empty free list in the batch's class, which the batch must
///   drain before it carves;
/// - a non-empty free list in another class only.
fn states<A: Allocator>(fresh: impl Fn() -> A, size: u64) -> Vec<(&'static str, A)> {
    let mut out = vec![("fresh", fresh())];
    let mut misaligned = fresh();
    misaligned.malloc(16);
    out.push(("misaligned cursor", misaligned));
    let mut own_free = fresh();
    let blocks: Vec<u64> = (0..5)
        .filter_map(|_| own_free.malloc(size.max(1)))
        .collect();
    for &b in blocks.iter().step_by(2) {
        own_free.free(b);
    }
    out.push(("own free list", own_free));
    let mut other_free = fresh();
    let other = other_free.malloc(if size > 16 { 8 } else { 1000 });
    other_free.malloc(size.max(1));
    if let Some(other) = other {
        other_free.free(other);
    }
    out.push(("other free list", other_free));
    out
}

fn check_all<A: Allocator + Clone>(label: &str, fresh: impl Fn() -> A) {
    for (i, &size) in SIZES.iter().enumerate() {
        for &n in &COUNTS {
            for (state, alloc) in states(&fresh, size) {
                check(
                    &format!("{label} ({state})"),
                    alloc,
                    size,
                    n,
                    i as u64 ^ n as u64,
                );
            }
        }
    }
}

#[test]
fn segregated_batches_match_n_mallocs() {
    check_all("segregated", || {
        SegregatedAllocator::new(Region::new(0x1_0000, 1 << 30))
    });
}

#[test]
fn tlsf_batches_match_n_mallocs() {
    check_all("tlsf", || {
        TlsfAllocator::new(Region::new(0x1_0000, 1 << 30))
    });
}

#[test]
fn diehard_batches_match_n_mallocs() {
    check_all("diehard", || {
        DieHardAllocator::new(Region::new(0x1_0000, 1 << 34), Marsaglia::seeded(3))
    });
}

#[test]
fn batches_that_run_out_partway_match_n_mallocs() {
    // Regions that hold the whole batch exactly, one object less, or
    // half of it, from an aligned and from an unaligned start.
    for base in [0x1000, 0x1010] {
        for objects in [8u64, 7, 4, 0] {
            let bytes = objects * 64 + (base & 63);
            check_all(&format!("segregated {objects}x64 @ {base:#x}"), || {
                SegregatedAllocator::new(Region::new(base, bytes))
            });
        }
        check_all(&format!("tlsf 1.5 MiB @ {base:#x}"), || {
            TlsfAllocator::new(Region::new(base, 3 << 19))
        });
        check_all(&format!("diehard 64 KiB @ {base:#x}"), || {
            DieHardAllocator::new(Region::new(base, 1 << 16), Marsaglia::seeded(9))
        });
    }
}

/// The shuffling layer with its original fill: `N` base mallocs one
/// by one, rolled back on exhaustion, then a Fisher–Yates shuffle.
#[derive(Clone)]
struct EagerShuffle<A> {
    base: A,
    rng: Marsaglia,
    shuffle_size: usize,
    arrays: Vec<Option<Vec<u64>>>,
    live: HashMap<u64, u64>,
    live_bytes: u64,
}

impl<A: Allocator> EagerShuffle<A> {
    fn new(base: A, shuffle_size: usize, rng: Marsaglia) -> Self {
        EagerShuffle {
            base,
            rng,
            shuffle_size,
            arrays: vec![None; 64],
            live: HashMap::new(),
            live_bytes: 0,
        }
    }

    fn class(size: u64) -> Option<u64> {
        size.max(16).checked_next_power_of_two()
    }

    fn ensure_array(&mut self, k: usize, class: u64) -> Option<()> {
        if self.arrays[k].is_none() {
            let mut array = Vec::with_capacity(self.shuffle_size);
            for _ in 0..self.shuffle_size {
                match self.base.malloc(class) {
                    Some(p) => array.push(p),
                    None => {
                        for p in array {
                            self.base.free(p);
                        }
                        return None;
                    }
                }
            }
            fisher_yates(&mut array, &mut self.rng);
            self.arrays[k] = Some(array);
        }
        Some(())
    }

    fn malloc(&mut self, size: u64) -> Option<u64> {
        let class = Self::class(size)?;
        let k = class.trailing_zeros() as usize;
        self.ensure_array(k, class)?;
        let fresh = self.base.malloc(class)?;
        let i = self.rng.below(self.shuffle_size as u64) as usize;
        let out = std::mem::replace(&mut self.arrays[k].as_mut()?[i], fresh);
        self.live.insert(out, size);
        self.live_bytes += size;
        Some(out)
    }

    fn try_free(&mut self, addr: u64) -> bool {
        let Some(size) = self.live.remove(&addr) else {
            return false;
        };
        self.live_bytes -= size;
        let k = Self::class(size)
            .expect("a live size has a class")
            .trailing_zeros() as usize;
        let i = self.rng.below(self.shuffle_size as u64) as usize;
        let array = self.arrays[k].as_mut().expect("an initialized class");
        let out = std::mem::replace(&mut array[i], addr);
        self.base.free(out);
        true
    }
}

/// Drives the real layer and the eager copy over the same seeded
/// stream and asserts equal results, `live_bytes` and base
/// `live_bytes` after every operation.
fn shuffle_stream<A: Allocator + Clone>(label: &str, base: A, shuffle_size: usize, seed: u64) {
    let mut real = ShuffleLayer::new(base.clone(), shuffle_size, Marsaglia::seeded(seed));
    let mut eager = EagerShuffle::new(base, shuffle_size, Marsaglia::seeded(seed));
    let mut rng = SplitMix64::new(seed);
    let mut live: Vec<u64> = Vec::new();
    for step in 0..2_000 {
        let r = rng.next_u64();
        let what = format!("{label}, N = {shuffle_size}, seed {seed}, step {step}");
        if live.is_empty() || !r.is_multiple_of(3) {
            // Sizes over eight classes, so fills keep happening.
            let size = (r >> 8) % (16 << ((r >> 40) % 8));
            let (a, b) = (real.malloc(size), eager.malloc(size));
            assert_eq!(a, b, "{what}: malloc({size})");
            live.extend(a);
        } else if r.is_multiple_of(9) {
            let bogus = live[0] + 8;
            assert_eq!(real.try_free(bogus), eager.try_free(bogus), "{what}");
        } else {
            let addr = live.swap_remove((r >> 8) as usize % live.len());
            assert!(real.try_free(addr), "{what}: free({addr:#x})");
            assert!(eager.try_free(addr), "{what}: eager free({addr:#x})");
        }
        assert_eq!(real.live_bytes(), eager.live_bytes, "{what}");
        assert_eq!(real.base().live_bytes(), eager.base.live_bytes(), "{what}");
    }
}

#[test]
fn shuffle_layer_matches_the_eager_fill() {
    for seed in 0..4 {
        for n in [1, 8, 256] {
            shuffle_stream(
                "segregated",
                SegregatedAllocator::new(Region::new(0x1000_0000, 1 << 30)),
                n,
                seed,
            );
            shuffle_stream(
                "tlsf",
                TlsfAllocator::new(Region::new(0x1000_0000, 1 << 30)),
                n,
                seed,
            );
            shuffle_stream(
                "diehard",
                DieHardAllocator::new(Region::new(0x1000_0000, 1 << 36), Marsaglia::seeded(seed)),
                n,
                seed,
            );
        }
    }
}

#[test]
fn shuffle_layer_matches_the_eager_fill_when_memory_runs_out() {
    // Regions too small for every class's fill: some fills fail
    // partway and roll back, and later attempts retry them.
    for seed in 0..4 {
        for bytes in [5 * 64, 40 << 10, 600 << 10] {
            shuffle_stream(
                &format!("segregated {bytes} B"),
                SegregatedAllocator::new(Region::new(0x1008, bytes)),
                8,
                seed,
            );
        }
        shuffle_stream(
            "tlsf 1.5 MiB",
            TlsfAllocator::new(Region::new(0x1008, 3 << 19)),
            256,
            seed,
        );
    }
}
