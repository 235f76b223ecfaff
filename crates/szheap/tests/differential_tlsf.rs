//! Differential test of the bitmap-indexed TLSF allocator against a
//! naive reference model.
//!
//! `TlsfAllocator` finds the next non-empty free list with two bitmap
//! lookups, keeps block metadata in a slab and its live table in a
//! `LiveMap`. `NaiveTlsf` below is the same allocator written the
//! obvious way: it probes every free list from the request's upward,
//! finds a block in its list by linear search, and keeps everything in
//! `HashMap`s. The good-fit policy is the same, so both must return the
//! same address for every request, accept and reject the same frees,
//! and agree on `live_bytes` after every operation — alone and beneath
//! the STABILIZER shuffling layer.

use std::collections::HashMap;

use sz_heap::{Allocator, Region, ShuffleLayer, TlsfAllocator};
use sz_rng::Marsaglia;

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

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }
}

const SL_LOG: u32 = 4;
const MIN_BLOCK: u64 = 16;
const POOL_BYTES: u64 = 1 << 20;

#[derive(Debug, Clone)]
struct BlockMeta {
    size: u64,
    prev_phys: Option<u64>,
    next_phys: Option<u64>,
    free: bool,
}

/// The reference: TLSF with a list-by-list good-fit search,
/// `HashMap` metadata and linear free-list removal.
struct NaiveTlsf {
    region: Region,
    blocks: HashMap<u64, BlockMeta>,
    /// `free_lists[fl][sl]` holds addresses of free blocks.
    free_lists: Vec<Vec<Vec<u64>>>,
    live: HashMap<u64, u64>,
    live_bytes: u64,
}

impl NaiveTlsf {
    fn new(region: Region) -> Self {
        NaiveTlsf {
            region,
            blocks: HashMap::new(),
            free_lists: vec![vec![Vec::new(); 1 << SL_LOG]; 64],
            live: HashMap::new(),
            live_bytes: 0,
        }
    }

    fn mapping(size: u64) -> (usize, usize) {
        let fl = 63 - size.leading_zeros();
        let sl = if fl >= SL_LOG {
            ((size >> (fl - SL_LOG)) - (1 << SL_LOG)) as usize
        } else {
            0
        };
        (fl as usize, sl)
    }

    fn insert_free(&mut self, addr: u64) {
        let (fl, sl) = Self::mapping(self.blocks[&addr].size);
        self.free_lists[fl][sl].push(addr);
    }

    fn remove_free(&mut self, addr: u64) {
        let (fl, sl) = Self::mapping(self.blocks[&addr].size);
        let list = &mut self.free_lists[fl][sl];
        let pos = list
            .iter()
            .position(|&a| a == addr)
            .expect("block in its free list");
        list.swap_remove(pos);
    }

    /// Smallest list at or above the request's mapping; within the
    /// request's own list, the first block that fits.
    fn find_block(&self, size: u64) -> Option<u64> {
        let (fl0, sl0) = Self::mapping(size);
        for fl in fl0..self.free_lists.len() {
            let start = if fl == fl0 { sl0 } else { 0 };
            for sl in start..(1 << SL_LOG) {
                if let Some(&addr) = self.free_lists[fl][sl]
                    .iter()
                    .find(|&&a| self.blocks[&a].size >= size)
                {
                    return Some(addr);
                }
            }
        }
        None
    }

    fn grow(&mut self, at_least: u64) -> Option<()> {
        let bytes = at_least.max(POOL_BYTES);
        let addr = self.region.carve(bytes, MIN_BLOCK)?;
        self.blocks.insert(
            addr,
            BlockMeta {
                size: bytes,
                prev_phys: None,
                next_phys: None,
                free: true,
            },
        );
        self.insert_free(addr);
        Some(())
    }
}

impl Allocator for NaiveTlsf {
    fn malloc(&mut self, size: u64) -> Option<u64> {
        assert!(size > 0, "zero-size allocation");
        let need = size.div_ceil(MIN_BLOCK).checked_mul(MIN_BLOCK)?;
        let addr = match self.find_block(need) {
            Some(a) => a,
            None => {
                self.grow(need)?;
                self.find_block(need)?
            }
        };
        self.remove_free(addr);
        let meta = self.blocks.get_mut(&addr).expect("found block exists");
        meta.free = false;
        let block_size = meta.size;
        if block_size >= need + MIN_BLOCK {
            let rest_addr = addr + need;
            let old_next = meta.next_phys;
            meta.size = need;
            meta.next_phys = Some(rest_addr);
            self.blocks.insert(
                rest_addr,
                BlockMeta {
                    size: block_size - need,
                    prev_phys: Some(addr),
                    next_phys: old_next,
                    free: true,
                },
            );
            if let Some(next) = old_next {
                self.blocks
                    .get_mut(&next)
                    .expect("neighbor exists")
                    .prev_phys = Some(rest_addr);
            }
            self.insert_free(rest_addr);
        }
        self.live.insert(addr, size);
        self.live_bytes += size;
        Some(addr)
    }

    fn free(&mut self, addr: u64) {
        assert!(self.try_free(addr), "free of non-live address {addr:#x}");
    }

    fn try_free(&mut self, addr: u64) -> bool {
        let Some(size) = self.live.remove(&addr) else {
            return false;
        };
        self.live_bytes -= size;
        let mut addr = addr;
        self.blocks.get_mut(&addr).expect("live block").free = true;
        if let Some(next) = self.blocks[&addr].next_phys {
            if self.blocks[&next].free {
                self.remove_free(next);
                let next_meta = self.blocks.remove(&next).expect("neighbor exists");
                let meta = self.blocks.get_mut(&addr).expect("block exists");
                meta.size += next_meta.size;
                meta.next_phys = next_meta.next_phys;
                if let Some(nn) = next_meta.next_phys {
                    self.blocks.get_mut(&nn).expect("neighbor exists").prev_phys = Some(addr);
                }
            }
        }
        if let Some(prev) = self.blocks[&addr].prev_phys {
            if self.blocks[&prev].free {
                self.remove_free(prev);
                let meta = self.blocks.remove(&addr).expect("block exists");
                let prev_meta = self.blocks.get_mut(&prev).expect("neighbor exists");
                prev_meta.size += meta.size;
                prev_meta.next_phys = meta.next_phys;
                if let Some(nn) = meta.next_phys {
                    self.blocks.get_mut(&nn).expect("neighbor exists").prev_phys = Some(prev);
                }
                addr = prev;
            }
        }
        self.insert_free(addr);
        true
    }

    fn name(&self) -> &'static str {
        "naive-tlsf"
    }

    fn live_bytes(&self) -> u64 {
        self.live_bytes
    }
}

/// Both allocators over equal regions, checked in lockstep.
struct Pair {
    fast: TlsfAllocator,
    naive: NaiveTlsf,
}

impl Pair {
    fn new(region: Region) -> Self {
        Pair {
            fast: TlsfAllocator::new(region.clone()),
            naive: NaiveTlsf::new(region),
        }
    }

    fn malloc(&mut self, size: u64) -> Option<u64> {
        let want = self.naive.malloc(size);
        let got = self.fast.malloc(size);
        assert_eq!(got, want, "malloc({size})");
        self.check_live_bytes();
        got
    }

    fn try_free(&mut self, addr: u64) -> bool {
        let want = self.naive.try_free(addr);
        let got = self.fast.try_free(addr);
        assert_eq!(got, want, "try_free({addr:#x})");
        self.check_live_bytes();
        got
    }

    fn free(&mut self, addr: u64) {
        self.naive.free(addr);
        self.fast.free(addr);
        self.check_live_bytes();
    }

    fn check_live_bytes(&self) {
        assert_eq!(self.fast.live_bytes(), self.naive.live_bytes());
    }
}

/// A request size from one of four bands: tiny objects, pages, large
/// buffers, and requests past the pool size that get a pool of their
/// own.
fn request_size(rng: &mut SplitMix) -> u64 {
    match rng.below(100) {
        0..=49 => rng.range(1, 64),
        50..=79 => rng.range(1, 4096),
        80..=95 => rng.range(1, 300 << 10),
        _ => rng.range(POOL_BYTES + 1, 3 * POOL_BYTES),
    }
}

#[test]
fn random_streams_match_the_naive_reference() {
    const SEEDS: u64 = 200;
    const OPS: usize = 3_000;
    for seed in 0..SEEDS {
        let mut rng = SplitMix(0x71_5F00 + seed);
        // Every fourth seed runs in a region a few pools wide, so
        // exhaustion (`None` from a failed grow) is part of the stream.
        let size = if seed.is_multiple_of(4) {
            6 * POOL_BYTES
        } else {
            1 << 32
        };
        let base = 0x1000_0000;
        let mut pair = Pair::new(Region::new(base, size));
        let mut live: Vec<u64> = Vec::new();
        let mut freed: Vec<u64> = Vec::new();
        for _ in 0..OPS {
            let roll = rng.below(100);
            match roll {
                // Bias toward frees once the live set is large, so the
                // stream keeps splitting and coalescing.
                0..=44 if live.len() < 400 => {
                    if let Some(addr) = pair.malloc(request_size(&mut rng)) {
                        live.push(addr);
                    }
                }
                0..=79 if !live.is_empty() => {
                    let addr = live.swap_remove(rng.below(live.len() as u64) as usize);
                    if roll.is_multiple_of(2) {
                        pair.free(addr);
                    } else {
                        assert!(pair.try_free(addr), "live address {addr:#x}");
                    }
                    freed.push(addr);
                }
                80..=87 if !freed.is_empty() => {
                    // A double free, unless the address came back.
                    let addr = freed[rng.below(freed.len() as u64) as usize];
                    let was_live = live.iter().position(|&a| a == addr);
                    assert_eq!(pair.try_free(addr), was_live.is_some());
                    if let Some(pos) = was_live {
                        live.swap_remove(pos);
                    }
                }
                88..=95 => {
                    // A wild free: any 16-aligned address in or near
                    // the region, or none of them.
                    let addr = match rng.below(3) {
                        0 => base + rng.below(size / 16) * 16,
                        1 => base + rng.below(size),
                        _ => rng.next(),
                    };
                    let was_live = live.iter().position(|&a| a == addr);
                    assert_eq!(pair.try_free(addr), was_live.is_some());
                    if let Some(pos) = was_live {
                        live.swap_remove(pos);
                    }
                }
                96..=99 => {
                    let size = match rng.below(3) {
                        0 => u64::MAX,
                        1 => (1 << 63) + 1,
                        _ => u64::MAX - 15,
                    };
                    assert_eq!(pair.malloc(size), None, "oversize malloc({size:#x})");
                }
                _ => {
                    if let Some(addr) = pair.malloc(rng.range(1, 64)) {
                        live.push(addr);
                    }
                }
            }
        }
        // Drain: every coalescing path runs once more.
        while let Some(addr) = live.pop() {
            pair.free(addr);
        }
        assert_eq!(pair.fast.live_bytes(), 0, "seed {seed}");
    }
}

#[test]
fn shuffle_fills_match_the_naive_reference() {
    for (seed, &size) in [1u64, 16, 24, 100, 1000, 4096, 5000, 70_000]
        .iter()
        .enumerate()
    {
        let region = Region::new(0x4000_0000, 1 << 34);
        let mut fast = ShuffleLayer::new(
            TlsfAllocator::new(region.clone()),
            256,
            Marsaglia::seeded(seed as u64 + 1),
        );
        let mut naive = ShuffleLayer::new(
            NaiveTlsf::new(region),
            256,
            Marsaglia::seeded(seed as u64 + 1),
        );
        let mut rng = SplitMix(seed as u64);
        let mut live = Vec::new();
        // The first malloc fills the class with 256 base objects.
        for step in 0..1_000 {
            if live.is_empty() || rng.below(3) != 0 {
                // Mostly this class, sometimes a neighbouring one.
                let request = if rng.below(4) == 0 { 2 * size } else { size };
                let addr = naive.malloc(request);
                assert_eq!(fast.malloc(request), addr, "size {size}, step {step}");
                live.push(addr.expect("region large enough"));
            } else {
                let addr = live.swap_remove(rng.below(live.len() as u64) as usize);
                fast.free(addr);
                naive.free(addr);
            }
            assert_eq!(fast.live_bytes(), naive.live_bytes());
            assert_eq!(fast.base().live_bytes(), naive.base().live_bytes());
        }
    }
}

/// A request whose own list holds only smaller blocks must skip them
/// and take a higher list's block.
#[test]
fn own_list_holding_only_smaller_blocks_is_passed_over() {
    let mut pair = Pair::new(Region::new(0x10_0000, 1 << 24));
    // 544 and 560 share the list [544, 576) at first level 9.
    let small = pair.malloc(544).unwrap();
    let _guard = pair.malloc(16).unwrap();
    pair.free(small);
    let p = pair.malloc(560).unwrap();
    assert_ne!(p, small, "a 544-byte block cannot hold 560 bytes");
    assert_eq!(p, small + 544 + 16, "the pool remainder serves it");
    // The same list then serves a request the small block fits.
    assert_eq!(pair.malloc(530), Some(small));
}

/// A request at the last second-level list (sl = 15) must continue at
/// the next first level with a non-empty list.
#[test]
fn request_at_the_last_second_level_moves_up_a_level() {
    let mut pair = Pair::new(Region::new(0x10_0000, 1 << 24));
    // 1008 maps to first level 9, second level 15.
    let big = pair.malloc(2048).unwrap();
    let _guard = pair.malloc(16).unwrap();
    pair.free(big);
    assert_eq!(
        pair.malloc(1008),
        Some(big),
        "level 11 before the pool remainder"
    );
    // At first level 63 and second level 15 nothing lies above.
    assert_eq!(pair.malloc(u64::MAX - 15), None);
}

/// Coalescing can empty a list; its bitmap bits must clear with it,
/// or the search would pick an empty list.
#[test]
fn list_emptied_by_coalescing_is_not_searched() {
    let mut pair = Pair::new(Region::new(0x10_0000, 1 << 24));
    let a = pair.malloc(112).unwrap();
    let b = pair.malloc(112).unwrap();
    let _guard = pair.malloc(16).unwrap();
    pair.free(a); // the only block in the 112-byte list
    pair.free(b); // merges with `a`, emptying that list
                  // An 80-byte request searches the lists above its own, where the
                  // emptied 112-byte list must read empty: the merged 224-byte
                  // block at the next level serves it.
    assert_eq!(pair.malloc(80), Some(a));
    assert_eq!(pair.malloc(144), Some(a + 80));
}
