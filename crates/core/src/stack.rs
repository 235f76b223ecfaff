//! Stack randomization: per-function pad tables (§3.4, Figure 4).
//!
//! Each function owns a 256-byte pad table and a one-byte index. On
//! every call, the next byte is read, the index incremented (wrapping),
//! and the stack moved down by `byte × 16` (the required x86-64
//! alignment) — up to 4080 bytes, "up to a page". The runtime refills
//! every table with fresh random bytes at each re-randomization, so
//! between refills a function cycles through 256 pads, and the complete
//! stack placement is the composition of the pads of every function on
//! the call stack.

use sz_ir::{FuncId, Program};
use sz_machine::MemorySystem;
use sz_rng::Rng;

use crate::costs;

/// Entries per pad table (one byte each, §3.4).
pub const PAD_TABLE_SIZE: usize = 256;
/// Stack alignment each pad byte is scaled by.
pub const PAD_SCALE: u64 = 16;

/// Where the runtime keeps the pad tables (its own data segment, above
/// the low code heap).
const TABLE_REGION: u64 = 0x7A00_0000;

/// The stack randomizer: pad tables, indices, and their simulated
/// addresses (the table *reads* on every call are real cache traffic —
/// the paper blames exactly this for gobmk/gcc/perlbench overhead,
/// §5.2).
#[derive(Debug, Clone)]
pub struct StackRandomizer {
    tables: Vec<[u8; PAD_TABLE_SIZE]>,
    indices: Vec<u8>,
    table_base: u64,
    refills: u64,
}

impl StackRandomizer {
    /// Creates tables for every function in `program`, filled from
    /// `rng`.
    pub fn new<R: Rng + ?Sized>(program: &Program, rng: &mut R) -> Self {
        let n = program.functions.len();
        let mut s = StackRandomizer {
            tables: vec![[0u8; PAD_TABLE_SIZE]; n],
            indices: vec![0u8; n],
            table_base: TABLE_REGION,
            refills: 0,
        };
        s.fill(rng);
        s
    }

    fn fill<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for table in &mut self.tables {
            for b in table.iter_mut() {
                *b = (rng.next_u32() & 0xFF) as u8;
            }
        }
    }

    /// The simulated address of `func`'s pad table.
    pub fn table_addr(&self, func: FuncId) -> u64 {
        self.table_base + u64::from(func.0) * PAD_TABLE_SIZE as u64
    }

    /// Produces the pad for one call of `func`: loads the next table
    /// byte (through the cache), advances the wrapping index, scales.
    pub fn pad(&mut self, func: FuncId, mem: &mut MemorySystem) -> u64 {
        let idx = func.0 as usize;
        let i = self.indices[idx];
        // The table load is the instrumented function-entry code.
        mem.load(self.table_addr(func) + u64::from(i));
        mem.charge(costs::STACK_PAD_CYCLES);
        self.indices[idx] = i.wrapping_add(1);
        u64::from(self.tables[idx][usize::from(i)]) * PAD_SCALE
    }

    /// Refills every table with fresh random bytes (the runtime does
    /// this during each re-randomization, §3.4).
    pub fn refill<R: Rng + ?Sized>(&mut self, rng: &mut R, mem: &mut MemorySystem) {
        self.fill(rng);
        self.refills += 1;
        // The runtime's writes touch every line of every table.
        for f in 0..self.tables.len() {
            let base = self.table_base + (f as u64) * PAD_TABLE_SIZE as u64;
            for line in (0..PAD_TABLE_SIZE as u64).step_by(64) {
                mem.store(base + line);
            }
        }
    }

    /// Number of refills performed.
    pub fn refills(&self) -> u64 {
        self.refills
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sz_ir::ProgramBuilder;
    use sz_machine::MachineConfig;
    use sz_rng::Marsaglia;

    fn program(n_funcs: usize) -> Program {
        let mut p = ProgramBuilder::new("t");
        let mut last = None;
        for i in 0..n_funcs {
            let mut f = p.function(format!("f{i}"), 0);
            f.ret(None);
            last = Some(p.add_function(f));
        }
        p.finish(last.unwrap()).unwrap()
    }

    #[test]
    fn pads_are_scaled_and_bounded() {
        let prog = program(2);
        let mut rng = Marsaglia::seeded(1);
        let mut s = StackRandomizer::new(&prog, &mut rng);
        let mut mem = MemorySystem::new(MachineConfig::tiny());
        for _ in 0..1000 {
            let pad = s.pad(FuncId(0), &mut mem);
            assert_eq!(pad % PAD_SCALE, 0, "x86-64 alignment");
            assert!(pad <= 255 * PAD_SCALE, "at most (just under) a page");
        }
    }

    #[test]
    fn index_wraps_and_reuses_pads() {
        // §3.4: "The stack pad index may overflow, wrapping back around
        // to the first entry" — pads repeat with period 256 between
        // refills.
        let prog = program(1);
        let mut rng = Marsaglia::seeded(2);
        let mut s = StackRandomizer::new(&prog, &mut rng);
        let mut mem = MemorySystem::new(MachineConfig::tiny());
        let first: Vec<u64> = (0..256).map(|_| s.pad(FuncId(0), &mut mem)).collect();
        let second: Vec<u64> = (0..256).map(|_| s.pad(FuncId(0), &mut mem)).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn refill_changes_the_pads() {
        let prog = program(1);
        let mut rng = Marsaglia::seeded(3);
        let mut s = StackRandomizer::new(&prog, &mut rng);
        let mut mem = MemorySystem::new(MachineConfig::tiny());
        let before: Vec<u64> = (0..256).map(|_| s.pad(FuncId(0), &mut mem)).collect();
        s.refill(&mut rng, &mut mem);
        let after: Vec<u64> = (0..256).map(|_| s.pad(FuncId(0), &mut mem)).collect();
        assert_ne!(before, after);
        assert_eq!(s.refills(), 1);
    }

    #[test]
    fn functions_have_distinct_tables() {
        let prog = program(3);
        let mut rng = Marsaglia::seeded(4);
        let s = StackRandomizer::new(&prog, &mut rng);
        assert_ne!(s.table_addr(FuncId(0)), s.table_addr(FuncId(1)));
        assert_eq!(
            s.table_addr(FuncId(1)) - s.table_addr(FuncId(0)),
            PAD_TABLE_SIZE as u64
        );
    }

    #[test]
    fn pad_distribution_covers_the_range() {
        let prog = program(1);
        let mut rng = Marsaglia::seeded(5);
        let mut s = StackRandomizer::new(&prog, &mut rng);
        let mut mem = MemorySystem::new(MachineConfig::tiny());
        let pads: Vec<u64> = (0..256).map(|_| s.pad(FuncId(0), &mut mem)).collect();
        let distinct: std::collections::HashSet<u64> = pads.iter().copied().collect();
        assert!(
            distinct.len() > 100,
            "pads must be diverse, got {}",
            distinct.len()
        );
        assert!(
            pads.iter().any(|&p| p > 2048),
            "upper half of the range is reachable"
        );
    }

    #[test]
    fn table_loads_reach_the_cache() {
        let prog = program(1);
        let mut rng = Marsaglia::seeded(6);
        let mut s = StackRandomizer::new(&prog, &mut rng);
        let mut mem = MemorySystem::new(MachineConfig::tiny());
        s.pad(FuncId(0), &mut mem);
        assert!(
            mem.counters().l1d_misses >= 1,
            "first table read is a cold miss"
        );
        s.pad(FuncId(0), &mut mem);
        assert_eq!(
            mem.counters().l1d_misses,
            1,
            "subsequent reads hit the line"
        );
    }
}
