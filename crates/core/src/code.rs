//! Code randomization: trap → relocate → re-randomize → collect
//! (§3.3, Figure 3).

use sz_heap::{Allocator, Region, SegregatedAllocator, ShuffleLayer};
use sz_ir::{FuncId, Instr, Program};
use sz_machine::MemorySystem;
use sz_rng::Marsaglia;
use sz_vm::FrameView;

use crate::costs;
use crate::TransformInfo;

/// Where the linker would have put the text segment (trap sites live
/// here; relocated copies must stay within a 32-bit displacement).
const ORIGINAL_BASE: u64 = 0x40_0000;
/// The low code heap: reachable with 32-bit jumps from the originals.
const LOW_CODE_BASE: u64 = 0x800_0000;
const LOW_CODE_SIZE: u64 = 0x7000_0000;
/// High memory: only used when low memory is exhausted; calls pay the
/// simulated 64-bit jump (§3.5).
const HIGH_CODE_BASE: u64 = 0x2_0000_0000;
const HIGH_CODE_SIZE: u64 = 1 << 36;

/// Per-function relocation state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CopyState {
    /// The function never moves: the conversion helpers (§3.3).
    Fixed,
    /// The function's entry is a trap; the next call relocates it.
    Trapped,
    /// A live randomized copy exists.
    Live {
        /// Address of the copy.
        addr: u64,
        /// Whether the copy lives in high memory (far-call penalty).
        far: bool,
    },
}

/// Counters describing the randomizer's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodeStats {
    /// On-demand relocations performed (traps taken).
    pub relocations: u64,
    /// Re-randomization rounds.
    pub rerandomizations: u64,
    /// Old copies freed by the garbage collector.
    pub copies_freed: u64,
    /// Copies that survived a GC because a frame still used them.
    pub copies_kept: u64,
    /// Calls that paid the far-jump penalty.
    pub far_calls: u64,
}

/// The code randomizer: owns the shuffled code heap, the per-function
/// relocation state, and the pile of old copies awaiting collection.
#[derive(Debug)]
pub struct CodeRandomizer {
    state: Vec<CopyState>,
    /// Body size plus relocation-table size, per function.
    alloc_sizes: Vec<u64>,
    /// Relocation-table entry count, per function.
    table_entries: Vec<u64>,
    /// The linker's (trap-site) address, per function.
    originals: Vec<u64>,
    low: ShuffleLayer<SegregatedAllocator, Marsaglia>,
    high: SegregatedAllocator,
    /// Old copies not yet proven dead: `(address, far)`.
    pile: Vec<(u64, bool)>,
    /// The collector's mark set, sorted; kept to reuse its allocation.
    marked: Vec<u64>,
    stats: CodeStats,
}

impl CodeRandomizer {
    /// Builds the randomizer for `program`.
    ///
    /// `shuffle_n` is the shuffle-layer parameter for the code heap
    /// (the paper uses the same shuffled-heap machinery for "both heap
    /// objects and functions", §3.2).
    pub fn new(program: &Program, info: &TransformInfo, shuffle_n: usize, rng: Marsaglia) -> Self {
        let mut originals = Vec::with_capacity(program.functions.len());
        let mut pc = ORIGINAL_BASE;
        for f in &program.functions {
            originals.push(pc);
            pc = (pc + f.code_size() + 15) & !15;
        }

        let mut alloc_sizes = Vec::with_capacity(program.functions.len());
        let mut table_entries = Vec::with_capacity(program.functions.len());
        for f in &program.functions {
            let entries = relocation_entries(f);
            table_entries.push(entries);
            // The relocation table sits immediately after the function
            // body (§3.3), 8 bytes per entry.
            alloc_sizes.push(f.code_size() + entries * 8);
        }

        let mut state = vec![CopyState::Trapped; program.functions.len()];
        for helper in &info.helpers {
            state[helper.0 as usize] = CopyState::Fixed;
        }

        CodeRandomizer {
            state,
            alloc_sizes,
            table_entries,
            originals,
            low: ShuffleLayer::new(
                SegregatedAllocator::new(Region::new(LOW_CODE_BASE, LOW_CODE_SIZE)),
                shuffle_n,
                rng,
            ),
            high: SegregatedAllocator::new(Region::new(HIGH_CODE_BASE, HIGH_CODE_SIZE)),
            pile: Vec::new(),
            marked: Vec::new(),
            stats: CodeStats::default(),
        }
    }

    /// Activity counters.
    pub fn stats(&self) -> CodeStats {
        self.stats
    }

    /// The original (trap-site) address of `func`.
    pub fn original(&self, func: FuncId) -> u64 {
        self.originals[func.0 as usize]
    }

    /// Resolves a call to `func`, relocating on demand and charging the
    /// runtime work to `mem`. Returns the code base to execute from.
    pub fn enter(&mut self, func: FuncId, mem: &mut MemorySystem) -> u64 {
        let idx = func.0 as usize;
        match self.state[idx] {
            CopyState::Fixed => self.originals[idx],
            CopyState::Live { addr, far } => {
                if far {
                    self.stats.far_calls += 1;
                    mem.charge(costs::FAR_CALL_CYCLES);
                }
                addr
            }
            CopyState::Trapped => {
                // SIGTRAP, then the three-stage relocation (Figure 3b):
                // copy the body, build the adjacent table, patch the
                // original entry with a forwarding jump.
                mem.charge(costs::TRAP_CYCLES);
                let size = self.alloc_sizes[idx];
                let (addr, far) = match self.low.malloc(size) {
                    Some(a) => (a, false),
                    None => {
                        let a = self
                            .high
                            .malloc(size)
                            .expect("high code region is effectively unbounded");
                        (a, true)
                    }
                };
                mem.charge(size / costs::COPY_BYTES_PER_CYCLE);
                mem.charge(self.table_entries[idx] * costs::TABLE_ENTRY_CYCLES);
                // Patching the trap site is a real store.
                mem.store(self.originals[idx]);
                self.state[idx] = CopyState::Live { addr, far };
                self.stats.relocations += 1;
                if far {
                    self.stats.far_calls += 1;
                    mem.charge(costs::FAR_CALL_CYCLES);
                }
                addr
            }
        }
    }

    /// Re-randomizes: traps every live function (Figure 3c) and runs
    /// the stack-walking collector over the pile (Figure 3d).
    pub fn rerandomize(&mut self, stack: &[FrameView], mem: &mut MemorySystem) {
        self.stats.rerandomizations += 1;
        // Plant traps: every live copy moves to the pile.
        for state in &mut self.state {
            if let CopyState::Live { addr, far } = *state {
                mem.charge(costs::RETRAP_CYCLES);
                // Writing the int3 at the function's current entry.
                mem.store(addr);
                self.pile.push((addr, far));
                *state = CopyState::Trapped;
            }
        }
        // Mark: addresses with a return address (frame) pointing at them.
        mem.charge(stack.len() as u64 * costs::GC_FRAME_CYCLES);
        self.marked.clear();
        self.marked.extend(stack.iter().map(|f| f.code_base));
        self.marked.sort_unstable();
        // Sweep the pile, in pile order.
        self.pile.retain(|&(addr, far)| {
            mem.charge(costs::GC_PILE_CYCLES);
            if self.marked.binary_search(&addr).is_ok() {
                self.stats.copies_kept += 1;
                return true;
            }
            self.stats.copies_freed += 1;
            if far {
                self.high.free(addr);
            } else {
                self.low.free(addr);
            }
            false
        });
    }

    /// Number of old copies awaiting collection.
    pub fn pile_len(&self) -> usize {
        self.pile.len()
    }
}

/// Relocation-table entries a function needs: one per distinct callee
/// plus one per distinct global it references (§3.3, Figure 3b).
fn relocation_entries(f: &sz_ir::Function) -> u64 {
    // Callees and globals share one id space, globals above 2^32.
    let mut targets: Vec<u64> = f
        .blocks
        .iter()
        .flat_map(|b| &b.instrs)
        .filter_map(|i| match i {
            Instr::Call { func, .. } => Some(u64::from(func.0)),
            Instr::LoadGlobal { global, .. } | Instr::StoreGlobal { global, .. } => {
                Some(1 << 32 | u64::from(global.0))
            }
            _ => None,
        })
        .collect();
    targets.sort_unstable();
    targets.dedup();
    targets.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepare_program;
    use sz_ir::{AluOp, ProgramBuilder};
    use sz_machine::MachineConfig;

    fn setup() -> (sz_ir::Program, TransformInfo) {
        let mut p = ProgramBuilder::new("t");
        let g = p.global("data", 64);
        let mut leaf = p.function("leaf", 0);
        let v = leaf.load_global(g, 0);
        leaf.ret(Some(v.into()));
        let leaf_id = p.add_function(leaf);
        let mut f = p.function("main", 0);
        let c = f.fp_const(2.5);
        let i = f.fp_to_int(c);
        let r = f.call(leaf_id, vec![]);
        let out = f.alu(AluOp::Add, i, r);
        f.ret(Some(out.into()));
        let main = p.add_function(f);
        let prog = p.finish(main).unwrap();
        prepare_program(&prog)
    }

    fn randomizer(prog: &sz_ir::Program, info: &TransformInfo, seed: u64) -> CodeRandomizer {
        CodeRandomizer::new(prog, info, 64, Marsaglia::seeded(seed))
    }

    #[test]
    fn first_call_relocates_second_reuses() {
        let (prog, info) = setup();
        let mut cr = randomizer(&prog, &info, 1);
        let mut mem = MemorySystem::new(MachineConfig::tiny());
        let f = FuncId(0);
        let a = cr.enter(f, &mut mem);
        let b = cr.enter(f, &mut mem);
        assert_eq!(a, b, "second call sees the live copy");
        assert_eq!(cr.stats().relocations, 1);
        assert!(a >= LOW_CODE_BASE, "copy lives in the code heap");
        assert_ne!(a, cr.original(f));
    }

    #[test]
    fn helpers_never_move() {
        let (prog, info) = setup();
        let mut cr = randomizer(&prog, &info, 1);
        let mut mem = MemorySystem::new(MachineConfig::tiny());
        for &h in &info.helpers {
            let a = cr.enter(h, &mut mem);
            assert_eq!(a, cr.original(h), "conversion helpers are non-relocatable");
        }
        assert_eq!(cr.stats().relocations, 0);
    }

    #[test]
    fn rerandomization_moves_functions() {
        let (prog, info) = setup();
        let mut cr = randomizer(&prog, &info, 2);
        let mut mem = MemorySystem::new(MachineConfig::tiny());
        let f = FuncId(0);
        let a = cr.enter(f, &mut mem);
        cr.rerandomize(&[], &mut mem);
        let b = cr.enter(f, &mut mem);
        assert_ne!(a, b, "each randomization period gets a fresh location");
        assert_eq!(cr.stats().rerandomizations, 1);
        assert_eq!(cr.stats().relocations, 2);
    }

    #[test]
    fn gc_frees_unreferenced_copies_only() {
        let (prog, info) = setup();
        let mut cr = randomizer(&prog, &info, 3);
        let mut mem = MemorySystem::new(MachineConfig::tiny());
        let f0 = FuncId(0);
        let f1 = info.original_entry;
        let a0 = cr.enter(f0, &mut mem);
        let a1 = cr.enter(f1, &mut mem);
        // f1's frame is still on the stack during the re-randomization.
        let stack = [FrameView {
            func: f1,
            code_base: a1,
        }];
        cr.rerandomize(&stack, &mut mem);
        assert_eq!(cr.stats().copies_freed, 1, "f0's copy was collectable");
        assert_eq!(
            cr.stats().copies_kept,
            1,
            "f1's copy is pinned by the stack"
        );
        assert_eq!(cr.pile_len(), 1);
        let _ = a0;
        // Once f1 is off the stack, the next GC frees it.
        cr.rerandomize(&[], &mut mem);
        assert_eq!(cr.stats().copies_freed, 2);
        assert_eq!(cr.pile_len(), 0);
    }

    #[test]
    fn different_seeds_place_differently() {
        let (prog, info) = setup();
        let mut mem = MemorySystem::new(MachineConfig::tiny());
        let a = randomizer(&prog, &info, 10).enter(FuncId(0), &mut mem);
        let b = randomizer(&prog, &info, 11).enter(FuncId(0), &mut mem);
        assert_ne!(a, b);
    }

    #[test]
    fn relocation_entry_counting() {
        let (prog, _) = setup();
        // main (after transform) calls: leaf + fptosi helper; references
        // the fp-const global -> 3 entries. main is the second original
        // function (index 1); the transform appends helpers after it.
        let main = &prog.functions[1];
        assert_eq!(main.name, "main");
        assert_eq!(relocation_entries(main), 3);
    }

    #[test]
    fn trap_costs_are_charged() {
        let (prog, info) = setup();
        let mut cr = randomizer(&prog, &info, 4);
        let mut mem = MemorySystem::new(MachineConfig::tiny());
        let before = mem.counters().cycles;
        cr.enter(FuncId(0), &mut mem);
        let after = mem.counters().cycles;
        assert!(after - before >= costs::TRAP_CYCLES);
    }
}
