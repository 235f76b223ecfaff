//! The combined memory system: caches + TLBs + branch predictor with
//! cycle accounting.

use crate::{BranchPredictor, Cache, MachineConfig, PerfCounters, Tlb};

/// "No line/page memoized" sentinel for the front-end memo fields. No
/// fetchable line maps to this index: with lines of at least 2 bytes
/// (asserted in [`MemorySystem::new`]) the largest line index is
/// `u64::MAX >> 1`, even for a fetch saturating at the top of the
/// address space.
const NO_MEMO: u64 = u64::MAX;

/// The full simulated memory hierarchy of one core.
///
/// All methods return the number of *extra* cycles charged for the
/// event (beyond an instruction's base cost) and update the
/// [`PerfCounters`].
///
/// # Front-end memoization
///
/// Every instruction fetch goes through [`MemorySystem::fetch`] /
/// [`MemorySystem::fetch_lines`], so the system can remember the last
/// fetched I-line and iTLB page and skip the probe when a re-access is
/// provably idempotent: the memoized line/page was, by construction,
/// the *most recent* access of the L1I / iTLB, so it is resident and
/// MRU in its set, the probe would be a zero-extra-cycle hit, and the
/// stamp refresh is a literal no-op on the flat-LRU state (see
/// `lru.rs`). The memo is one compare deep, so any control transfer to
/// a different line, any relocation/re-randomization that moves code,
/// or any set-conflicting fetch simply *updates* the memo on its own
/// (non-skipped) probe — there is no separate invalidation path to get
/// wrong. The D side keeps its own independent one-line and one-page
/// memos in [`MemorySystem::data_access`] under the same MRU argument
/// (a skipped re-probe still charges the L1D hit latency — only the
/// probes are elided, never the cycles); I-side traffic probes the
/// iTLB/L1I, so neither side's memo can alias the other's.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    config: MachineConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l3: Cache,
    itlb: Tlb,
    dtlb: Tlb,
    predictor: BranchPredictor,
    counters: PerfCounters,
    /// `log2(l1i.line_bytes)`, hoisted out of the fetch path.
    iline_shift: u32,
    /// `log2(itlb.page_bytes) - iline_shift`: one shift takes a line
    /// index to its virtual page number, so the fetch path never
    /// reconstructs a byte address on the hit path.
    ipage_line_shift: u32,
    /// `log2(l1d.line_bytes)`, hoisted out of the data path.
    dline_shift: u32,
    /// `log2(dtlb.page_bytes) - dline_shift`, as for the front end.
    dpage_line_shift: u32,
    /// Line index of the most recently fetched I-line ([`NO_MEMO`] when
    /// cold).
    last_iline: u64,
    /// Page index of the most recently translated I-page.
    last_ipage: u64,
    /// Line index of the most recent load/store ([`NO_MEMO`] when
    /// cold).
    last_dline: u64,
    /// Page index of the most recently translated D-page.
    last_dpage: u64,
}

impl MemorySystem {
    /// Builds the hierarchy from a machine description.
    pub fn new(config: MachineConfig) -> Self {
        // The NO_MEMO sentinel and the line->page strength reduction
        // both lean on this geometry; see their comments.
        assert!(
            config.l1i.line_bytes >= 2 && config.l1d.line_bytes >= 2,
            "cache lines must be at least 2 bytes so no line index reaches NO_MEMO"
        );
        assert!(
            config.itlb.page_bytes >= config.l1i.line_bytes
                && config.dtlb.page_bytes >= config.l1d.line_bytes,
            "pages must not be smaller than the level-1 lines they map"
        );
        MemorySystem {
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            l3: Cache::new(config.l3),
            itlb: Tlb::new(config.itlb),
            dtlb: Tlb::new(config.dtlb),
            predictor: BranchPredictor::new(
                config.predictor_index_bits,
                config.predictor_history_bits,
            ),
            counters: PerfCounters::default(),
            iline_shift: config.l1i.line_bytes.trailing_zeros(),
            ipage_line_shift: config.itlb.page_bytes.trailing_zeros()
                - config.l1i.line_bytes.trailing_zeros(),
            dline_shift: config.l1d.line_bytes.trailing_zeros(),
            dpage_line_shift: config.dtlb.page_bytes.trailing_zeros()
                - config.l1d.line_bytes.trailing_zeros(),
            last_iline: NO_MEMO,
            last_ipage: NO_MEMO,
            last_dline: NO_MEMO,
            last_dpage: NO_MEMO,
            config,
        }
    }

    /// The machine description this system was built from.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Accumulated performance counters.
    #[inline]
    pub fn counters(&self) -> &PerfCounters {
        &self.counters
    }

    /// Charges `cycles` of straight-line execution for one instruction.
    #[inline]
    pub fn retire(&mut self, base_cycles: u64) {
        self.counters.instructions += 1;
        self.counters.cycles += base_cycles;
    }

    /// Retires a whole straight-line run at once: `instructions` ops
    /// whose base latencies sum to `base_cycles`. Counters are pure
    /// sums, so this equals that many [`MemorySystem::retire`] calls.
    #[inline]
    pub fn retire_batch(&mut self, instructions: u64, base_cycles: u64) {
        self.counters.instructions += instructions;
        self.counters.cycles += base_cycles;
    }

    /// Adds raw cycles (used for runtime-system costs such as
    /// STABILIZER's relocation work).
    #[inline]
    pub fn charge(&mut self, cycles: u64) {
        self.counters.cycles += cycles;
    }

    /// Fetches the instruction bytes `[addr, addr + len)`; returns the
    /// extra cycles charged. Every cache line touched is fetched.
    ///
    /// A zero-length fetch touches no bytes, so it charges nothing and
    /// leaves every counter and all cache/TLB state untouched — the
    /// early return here is the single place that policy lives.
    /// Code placed within `len` bytes of the top of the address space
    /// saturates rather than wrapping: the range is clipped at
    /// `u64::MAX`, so no layout-engine placement can panic (debug) or
    /// fetch from address zero (release) here.
    #[inline]
    pub fn fetch(&mut self, addr: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let last_addr = addr.saturating_add(len - 1);
        // Per-op refetches of the current line dominate this path;
        // resolve them with one compare before the general line walk.
        let line = addr >> self.iline_shift;
        if line == self.last_iline && line == last_addr >> self.iline_shift {
            return 0;
        }
        self.fetch_lines(addr, last_addr)
    }

    /// Fetches every I-line in the inclusive byte range
    /// `[first_addr, last_addr]` — the batched front-end event behind a
    /// decoded fetch span. Returns the extra cycles charged.
    #[inline]
    pub fn fetch_lines(&mut self, first_addr: u64, last_addr: u64) -> u64 {
        let first = first_addr >> self.iline_shift;
        let last = last_addr >> self.iline_shift;
        // Single-line spans dominate (spans only batch when they fit
        // one line or are pure); resolve the memoized re-fetch with
        // one compare and no cycle-counter write.
        if first == last {
            if first == self.last_iline {
                return 0;
            }
            let extra = self.fetch_line(first);
            self.counters.cycles += extra;
            return extra;
        }
        let mut extra = 0;
        for line in first..=last {
            extra += self.fetch_line(line);
        }
        self.counters.cycles += extra;
        extra
    }

    /// Whether `a` and `b` fall on the same L1I line — lets callers
    /// decide if a byte range is a single front-end event.
    #[inline]
    pub fn same_fetch_line(&self, a: u64, b: u64) -> bool {
        a >> self.iline_shift == b >> self.iline_shift
    }

    /// Probes the front end for one I-line (by line index). The memo
    /// skip is exact: when `line` was the previous fetch it is the MRU
    /// way of both the iTLB set and the L1I set, so the probes would
    /// hit for 0 extra cycles and perturb no replacement state.
    ///
    /// The hit path is strength-reduced to index arithmetic: the iTLB
    /// and L1I are probed by page/line number directly
    /// ([`Tlb::access_page`] / [`Cache::access_line`]), and the byte
    /// address is only reconstructed on the cold L1I-miss path for the
    /// shared lower levels.
    #[inline]
    fn fetch_line(&mut self, line: u64) -> u64 {
        if line == self.last_iline {
            return 0;
        }
        self.last_iline = line;
        let costs = self.config.costs;
        let mut extra = 0;
        let page = line >> self.ipage_line_shift;
        if page != self.last_ipage {
            self.last_ipage = page;
            if !self.itlb.access_page(page) {
                self.counters.itlb_misses += 1;
                extra += costs.tlb_miss;
            }
        }
        if !self.l1i.access_line(line) {
            self.counters.l1i_misses += 1;
            extra += self.lower_levels(line << self.iline_shift);
        }
        extra
    }

    /// Loads the data at `addr`; returns the extra cycles charged.
    #[inline]
    pub fn load(&mut self, addr: u64) -> u64 {
        let extra = self.data_access(addr);
        self.counters.cycles += extra;
        extra
    }

    /// Stores to `addr`; returns the extra cycles charged. The cache is
    /// write-allocate, so the cost path matches a load.
    #[inline]
    pub fn store(&mut self, addr: u64) -> u64 {
        let extra = self.data_access(addr);
        self.counters.cycles += extra;
        extra
    }

    /// The common case — DTLB hit, L1D hit — runs straight through
    /// two flat-array probes with no heap traffic; the miss ladders
    /// are kept out of line in [`MemorySystem::lower_levels`].
    ///
    /// A re-access of the most recent D-line skips both probes under
    /// the same MRU argument as the front-end memo: that line is
    /// resident and MRU in the L1D, its page is MRU in the dTLB, so
    /// the probes would hit and refresh already-fresh LRU stamps. The
    /// skip still charges `l1_hit` — the memo elides simulator work,
    /// never simulated cycles. A new line on the last translated page
    /// skips the dTLB probe alone: only this function touches the dTLB,
    /// so that page is the newest entry there.
    #[inline]
    fn data_access(&mut self, addr: u64) -> u64 {
        let costs = self.config.costs;
        let line = addr >> self.dline_shift;
        if line == self.last_dline {
            return costs.l1_hit;
        }
        self.last_dline = line;
        let mut extra = 0;
        let page = line >> self.dpage_line_shift;
        if page != self.last_dpage {
            self.last_dpage = page;
            if !self.dtlb.access_page(page) {
                self.counters.dtlb_misses += 1;
                extra += costs.tlb_miss;
            }
        }
        if self.l1d.access_line(line) {
            extra += costs.l1_hit;
        } else {
            self.counters.l1d_misses += 1;
            extra += costs.l1_hit + self.lower_levels(line << self.dline_shift);
        }
        extra
    }

    /// L2 -> L3 -> DRAM path shared by instruction and data misses.
    #[cold]
    fn lower_levels(&mut self, addr: u64) -> u64 {
        let costs = self.config.costs;
        if self.l2.access(addr) {
            return costs.l2_hit;
        }
        self.counters.l2_misses += 1;
        if self.l3.access(addr) {
            return costs.l3_hit;
        }
        self.counters.l3_misses += 1;
        costs.memory
    }

    /// Executes a conditional branch at `pc` with outcome `taken`;
    /// returns the extra cycles charged (0 or the mispredict penalty).
    #[inline]
    pub fn branch(&mut self, pc: u64, taken: bool) -> u64 {
        self.counters.branches += 1;
        if self.predictor.predict_and_update(pc, taken) {
            0
        } else {
            self.counters.branch_mispredicts += 1;
            let penalty = self.config.costs.branch_mispredict;
            self.counters.cycles += penalty;
            penalty
        }
    }

    /// Clears all microarchitectural state and counters (a fresh run).
    pub fn reset(&mut self) {
        self.l1i.reset();
        self.l1d.reset();
        self.l2.reset();
        self.l3.reset();
        self.itlb.reset();
        self.dtlb.reset();
        self.predictor.reset();
        self.counters = PerfCounters::default();
        self.last_iline = NO_MEMO;
        self.last_ipage = NO_MEMO;
        self.last_dline = NO_MEMO;
        self.last_dpage = NO_MEMO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemorySystem {
        MemorySystem::new(MachineConfig::core_i3_550())
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut m = sys();
        let cold = m.load(0x10_000);
        let warm = m.load(0x10_020);
        let c = m.config().costs;
        assert_eq!(cold, c.tlb_miss + c.l1_hit + c.memory);
        assert_eq!(warm, c.l1_hit);
        assert_eq!(m.counters().l1d_misses, 1);
        assert_eq!(m.counters().dtlb_misses, 1);
    }

    #[test]
    fn fetch_spanning_two_lines_costs_two_fills() {
        let mut m = sys();
        // 16 bytes starting 8 before a line boundary.
        let extra = m.fetch(0x20_038, 16);
        assert_eq!(m.counters().l1i_misses, 2);
        assert!(extra >= 2 * m.config().costs.memory);
    }

    #[test]
    fn zero_length_fetch_charges_nothing_and_touches_no_counters() {
        let mut m = sys();
        let extra = m.fetch(0x40_0000, 0);
        assert_eq!(extra, 0);
        assert_eq!(*m.counters(), crate::PerfCounters::default());
        // The line was not installed either: the next real fetch of the
        // same address still takes the full cold path.
        let cold = m.fetch(0x40_0000, 4);
        let c = m.config().costs;
        assert_eq!(cold, c.tlb_miss + c.memory);
        assert_eq!(m.counters().l1i_misses, 1);
        assert_eq!(m.counters().itlb_misses, 1);
    }

    #[test]
    fn refetching_the_last_line_is_free_and_invisible() {
        let mut m = sys();
        m.fetch(0x40_0000, 4);
        let snap = *m.counters();
        // Same line, any offsets: memoized, zero extra, zero counter
        // movement — exactly what a probing hit would have produced.
        assert_eq!(m.fetch(0x40_0004, 4), 0);
        assert_eq!(m.fetch(0x40_003C, 4), 0);
        assert_eq!(*m.counters(), snap);
        // A different line takes the normal path again: same page (no
        // iTLB charge), but a cold L1I line fills from memory.
        assert_eq!(m.fetch(0x40_0040, 4), m.config().costs.memory);
        assert_eq!(m.counters().l1i_misses, 2, "new line misses L1I");
        assert_eq!(m.counters().itlb_misses, 1, "page still translated");
    }

    #[test]
    fn fetch_lines_equals_per_instruction_fetches() {
        // A straight-line run fetched as one span must charge exactly
        // what the same bytes charge fetched op by op.
        let ops: &[(u64, u64)] = &[(0, 5), (5, 4), (9, 6), (15, 5), (20, 1)];
        let run = |m: &mut MemorySystem, base: u64| {
            for (pc, size) in ops {
                m.fetch(base + pc, *size);
            }
            *m.counters()
        };
        for base in [0x40_0000u64, 0x40_0030, 0x7F_FFF8] {
            let mut per_op = sys();
            let a = run(&mut per_op, base);
            let mut spanned = sys();
            spanned.fetch_lines(base, base + 20);
            let b = *spanned.counters();
            assert_eq!(a, b, "base {base:#x}");
        }
    }

    #[test]
    fn fetch_at_the_top_of_the_address_space_saturates() {
        // `addr + len - 1` used to overflow here; the range now clips
        // at u64::MAX, so the last line is fetched and the memo
        // sentinel stays unreachable (line index u64::MAX >> 6).
        let mut m = sys();
        let line = m.config().l1i.line_bytes;
        let extra = m.fetch(u64::MAX - 3, 8);
        assert!(extra > 0, "the top line is genuinely fetched");
        assert_eq!(m.counters().l1i_misses, 1, "one line: the range clips");
        // Refetching the same (memoized) top line is free — the memo
        // holds a real line index, not NO_MEMO.
        assert_eq!(m.fetch(u64::MAX - line + 1, line), 0);
        let snap = *m.counters();
        assert_eq!(m.fetch(u64::MAX, 1), 0);
        assert_eq!(*m.counters(), snap);
    }

    #[test]
    fn fetch_straddling_into_the_top_line_counts_both_lines() {
        let mut m = sys();
        let line = m.config().l1i.line_bytes;
        // Starts on the second-to-last line, saturates into the last.
        m.fetch(u64::MAX - line - 3, line);
        assert_eq!(m.counters().l1i_misses, 2);
    }

    #[test]
    fn same_fetch_line_matches_line_geometry() {
        let m = sys();
        let line = m.config().l1i.line_bytes;
        assert!(m.same_fetch_line(0x40_0000, 0x40_0000 + line - 1));
        assert!(!m.same_fetch_line(0x40_0000, 0x40_0000 + line));
        assert!(!m.same_fetch_line(line - 1, line));
    }

    #[test]
    fn retire_batch_equals_repeated_retires() {
        let mut a = sys();
        let mut b = sys();
        for c in [1u64, 3, 1, 7] {
            a.retire(c);
        }
        b.retire_batch(4, 12);
        assert_eq!(a.counters(), b.counters());
    }

    #[test]
    fn reset_clears_the_front_end_memo() {
        let mut m = sys();
        let first = m.fetch(0x40_0000, 4);
        m.reset();
        let second = m.fetch(0x40_0000, 4);
        assert_eq!(first, second, "cold again after reset");
    }

    #[test]
    fn l2_and_l3_hits_are_cheaper_than_memory() {
        let mut m = sys();
        m.load(0x1_000);
        // Evict from L1 by filling its set (64 sets, 8 ways -> 9 lines
        // with a 4 KiB stride map to the same L1 set but different L2
        // sets).
        for i in 1..=8u64 {
            m.load(0x1_000 + i * 4096);
        }
        let c = m.config().costs;
        let again = m.load(0x1_000);
        assert_eq!(again, c.l1_hit + c.l2_hit, "should now hit in L2");
    }

    #[test]
    fn branch_penalty_accounting() {
        let mut m = sys();
        let mut penalties = 0;
        for i in 0..200u64 {
            penalties += m.branch(0x400_000, i % 2 == 0); // alternating
        }
        assert_eq!(
            penalties,
            m.counters().branch_mispredicts * m.config().costs.branch_mispredict
        );
        assert_eq!(m.counters().branches, 200);
    }

    #[test]
    fn retire_and_charge_add_up() {
        let mut m = sys();
        m.retire(1);
        m.retire(3);
        m.charge(10);
        assert_eq!(m.counters().instructions, 2);
        assert_eq!(m.counters().cycles, 14);
    }

    #[test]
    fn reset_gives_identical_cold_behavior() {
        let mut m = sys();
        let first = m.load(0xABC_000);
        m.reset();
        let second = m.load(0xABC_000);
        assert_eq!(first, second);
        assert_eq!(m.counters().instructions, 0);
    }

    #[test]
    fn layout_changes_conflict_behavior_end_to_end() {
        // Two data blocks accessed alternately. If their addresses alias
        // in L1 (same set, stride = way capacity), the loop thrashes.
        let run = |stride: u64| {
            let mut m = MemorySystem::new(MachineConfig::tiny());
            // tiny L1D: 2KiB, 2-way, 64B lines -> 16 sets -> 1KiB aliasing stride.
            for _ in 0..100 {
                for j in 0..3u64 {
                    m.load(j * stride);
                }
            }
            m.counters().cycles
        };
        let aliased = run(1024); // 3 lines, same set, 2 ways -> thrash
        let spread = run(64 + 1024); // different sets
        assert!(
            aliased > spread * 2,
            "aliased = {aliased}, spread = {spread}"
        );
    }
}
