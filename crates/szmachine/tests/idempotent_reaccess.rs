//! Property tests for the invariant behind the front-end memoization:
//! re-accessing the MRU way of any set is *observationally idempotent*
//! — replacement state, age stamps, and the architectural counters all
//! end up exactly as if the re-access never happened, and every future
//! access decides hit/miss identically.
//!
//! Two strengths are pinned here, across random geometries like the
//! differential LRU tests:
//!
//! - **Literal**: re-touching the globally newest slot (its stamp
//!   equals the access clock — precisely the case `MemorySystem`'s
//!   memo skips) leaves the replacement state bit-identical.
//! - **Observational**: re-touching a set's MRU way that is *not* the
//!   globally newest slot leaves no trace any future access stream can
//!   tell, because only relative recency within a set matters. (The
//!   flat storage skips even the stamp refresh there; these tests only
//!   require the observable half.)
//!
//! The flat `LruSets` storage itself is covered by the literal-state
//! unit tests in `lru.rs`; these tests exercise it through the public
//! `Cache`/`Tlb`/`MemorySystem` wrappers.

use sz_machine::{Cache, CacheConfig, MachineConfig, MemorySystem, Tlb, TlbConfig};

/// SplitMix64, inlined so the test needs no extra dependency edge.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn cache_geometry(rng: &mut SplitMix) -> CacheConfig {
    let sets = 1u64 << rng.below(7); // 1..=64 sets
    let ways = 1 + rng.below(8) as u32; // 1..=8 ways
    let line_bytes = 16u64 << rng.below(4); // 16..=128 B
    CacheConfig {
        size_bytes: sets * u64::from(ways) * line_bytes,
        ways,
        line_bytes,
    }
}

fn tlb_geometry(rng: &mut SplitMix) -> TlbConfig {
    let sets = 1u32 << rng.below(5); // 1..=16 sets
    let ways = 1 + rng.below(6) as u32; // 1..=6 ways
    TlbConfig {
        entries: sets * ways,
        ways,
        page_bytes: 1024 << rng.below(3), // 1..=4 KiB pages
    }
}

#[test]
fn cache_newest_way_reaccess_is_literally_idempotent() {
    let mut rng = SplitMix(0x1DE0_0001);
    for trial in 0..40 {
        let config = cache_geometry(&mut rng);
        let mut cache = Cache::new(config);
        let window = config.size_bytes * (2 + rng.below(4));
        for _ in 0..500 {
            cache.access(rng.below(window));
        }
        // Whatever was touched last is the globally newest slot.
        let addr = rng.below(window);
        cache.access(addr);
        let before = cache.clone();
        assert!(cache.access(addr), "trial {trial}: MRU re-access must hit");
        assert!(
            cache.replacement_state_eq(&before),
            "trial {trial}: {config:?} keys/stamps/clock changed"
        );
        assert_eq!(cache.hits(), before.hits() + 1);
        assert_eq!(cache.misses(), before.misses());
    }
}

#[test]
fn tlb_newest_way_reaccess_is_literally_idempotent() {
    let mut rng = SplitMix(0x1DE0_0002);
    for trial in 0..40 {
        let config = tlb_geometry(&mut rng);
        let mut tlb = Tlb::new(config);
        let window = u64::from(config.entries) * config.page_bytes * (2 + rng.below(4));
        for _ in 0..500 {
            tlb.access(rng.below(window));
        }
        let addr = rng.below(window);
        tlb.access(addr);
        let before = tlb.clone();
        assert!(tlb.access(addr), "trial {trial}: MRU re-access must hit");
        assert!(
            tlb.replacement_state_eq(&before),
            "trial {trial}: {config:?} keys/stamps/clock changed"
        );
        assert_eq!(tlb.hits(), before.hits() + 1);
        assert_eq!(tlb.misses(), before.misses());
    }
}

#[test]
fn cache_set_mru_reaccess_is_observationally_idempotent() {
    let mut rng = SplitMix(0x0B5E_0001);
    for trial in 0..40 {
        let config = cache_geometry(&mut rng);
        let mut cache = Cache::new(config);
        let window = config.size_bytes * (2 + rng.below(4));
        for _ in 0..500 {
            cache.access(rng.below(window));
        }
        // Make `addr` the MRU way of its set, then age the clock with
        // traffic to *other* sets so its stamp is no longer the newest.
        let addr = rng.below(window);
        cache.access(addr);
        for _ in 0..100 {
            let other = rng.below(window);
            if cache.set_index(other) != cache.set_index(addr) {
                cache.access(other);
            }
        }
        let mut touched = cache.clone();
        assert!(touched.access(addr), "trial {trial}: still MRU, must hit");
        // No future stream may observe the re-access: every verdict
        // and the miss counter must track exactly (hits differ by the
        // one extra).
        for step in 0..2000u64 {
            let a = rng.below(window);
            assert_eq!(
                cache.access(a),
                touched.access(a),
                "trial {trial} step {step}: {config:?} addr {a:#x} diverged"
            );
        }
        assert_eq!(cache.misses(), touched.misses(), "trial {trial}");
        assert_eq!(cache.hits() + 1, touched.hits(), "trial {trial}");
    }
}

#[test]
fn tlb_set_mru_reaccess_is_observationally_idempotent() {
    let mut rng = SplitMix(0x0B5E_0002);
    for trial in 0..40 {
        let config = tlb_geometry(&mut rng);
        let mut tlb = Tlb::new(config);
        let sets = u64::from(config.entries / config.ways);
        let set_of = |t: &Tlb, a: u64| t.vpn(a) & (sets - 1);
        let window = u64::from(config.entries) * config.page_bytes * (2 + rng.below(4));
        for _ in 0..500 {
            tlb.access(rng.below(window));
        }
        let addr = rng.below(window);
        tlb.access(addr);
        for _ in 0..100 {
            let other = rng.below(window);
            if set_of(&tlb, other) != set_of(&tlb, addr) {
                tlb.access(other);
            }
        }
        let mut touched = tlb.clone();
        assert!(touched.access(addr), "trial {trial}: still MRU, must hit");
        for step in 0..2000u64 {
            let a = rng.below(window);
            assert_eq!(
                tlb.access(a),
                touched.access(a),
                "trial {trial} step {step}: {config:?} addr {a:#x} diverged"
            );
        }
        assert_eq!(tlb.misses(), touched.misses(), "trial {trial}");
        assert_eq!(tlb.hits() + 1, touched.hits(), "trial {trial}");
    }
}

#[test]
fn memory_system_refetch_is_invisible_to_any_future_trace() {
    // End-to-end form of the invariant the interpreter's span batching
    // leans on: an extra fetch of the line just fetched (the memoized
    // case) must leave the whole MemorySystem — counters included —
    // on exactly the same trajectory under any subsequent mix of
    // fetches, loads, stores, and branches.
    let mut rng = SplitMix(0x5EED_F00D);
    for trial in 0..20 {
        let mut a = MemorySystem::new(MachineConfig::tiny());
        let mut b = MemorySystem::new(MachineConfig::tiny());
        let code = 0x40_0000u64;
        let mut pc = code;
        for _ in 0..200 {
            let step = rng.below(12);
            pc = if rng.below(8) == 0 {
                code + rng.below(4096)
            } else {
                pc + step
            };
            a.fetch(pc, 1 + step);
            b.fetch(pc, 1 + step);
        }
        // The divergence candidate: b re-fetches the line it just
        // fetched; a does not.
        assert_eq!(
            b.fetch(pc, 1),
            0,
            "trial {trial}: memoized re-fetch is free"
        );
        // Identical random future trace on both systems.
        for step in 0..2000u64 {
            let (extra_a, extra_b) = match rng.below(4) {
                0 => {
                    pc = code + rng.below(8192);
                    let len = 1 + rng.below(8);
                    (a.fetch(pc, len), b.fetch(pc, len))
                }
                1 => {
                    let len = 1 + rng.below(8);
                    pc += len;
                    (a.fetch(pc, len), b.fetch(pc, len))
                }
                2 => {
                    let addr = rng.below(1 << 16);
                    if rng.below(2) == 0 {
                        (a.load(addr), b.load(addr))
                    } else {
                        (a.store(addr), b.store(addr))
                    }
                }
                _ => {
                    let taken = rng.below(3) == 0;
                    let at = code + rng.below(1024);
                    (a.branch(at, taken), b.branch(at, taken))
                }
            };
            assert_eq!(extra_a, extra_b, "trial {trial} step {step} diverged");
            assert_eq!(a.counters(), b.counters(), "trial {trial} step {step}");
        }
    }
}
