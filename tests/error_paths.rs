//! Error paths through the decoded dispatch: `OutOfFuel`,
//! `OutOfMemory`, and `InvalidFree` must fire identically under the
//! decoded and reference interpreters — same error, and the same
//! engine-observed counter state at the failure point — plus pinning
//! tests for each engine's `free` semantics and the consolidated
//! zero-size-malloc policy.

use stabilizer::{prepare_program, Config, Stabilizer};
use sz_ir::{AluOp, FuncId, GlobalId, Program, ProgramBuilder};
use sz_link::{LinkOrder, LinkedLayout};
use sz_machine::{MachineConfig, MemorySystem, PerfCounters, SimTime};
use sz_vm::{
    reference::run_reference, FrameView, LayoutEngine, RunLimits, SimpleLayout, Vm, VmError,
};

/// Wraps any engine and records the counter state the engine observes
/// at every callback that carries the memory system. Two interpreters
/// executing the same instruction stream must produce identical
/// traces — including the trailing entries right before a failure.
struct SpyEngine<E> {
    inner: E,
    trace: Vec<(&'static str, PerfCounters)>,
}

impl<E> SpyEngine<E> {
    fn new(inner: E) -> Self {
        SpyEngine {
            inner,
            trace: Vec::new(),
        }
    }
}

impl<E: LayoutEngine> LayoutEngine for SpyEngine<E> {
    fn prepare(&mut self, program: &Program) {
        self.inner.prepare(program);
    }
    fn enter_function(&mut self, func: FuncId, mem: &mut MemorySystem) -> u64 {
        self.trace.push(("enter", *mem.counters()));
        self.inner.enter_function(func, mem)
    }
    fn stack_pad(&mut self, func: FuncId, mem: &mut MemorySystem) -> u64 {
        self.trace.push(("pad", *mem.counters()));
        self.inner.stack_pad(func, mem)
    }
    fn global_base(&self, g: GlobalId) -> u64 {
        self.inner.global_base(g)
    }
    fn stack_base(&self) -> u64 {
        self.inner.stack_base()
    }
    fn malloc(&mut self, size: u64, mem: &mut MemorySystem) -> Option<u64> {
        self.trace.push(("malloc", *mem.counters()));
        self.inner.malloc(size, mem)
    }
    fn free(&mut self, addr: u64, mem: &mut MemorySystem) -> bool {
        self.trace.push(("free", *mem.counters()));
        self.inner.free(addr, mem)
    }
    fn tick(&mut self, now_cycles: u64, stack: &[FrameView], mem: &mut MemorySystem) {
        self.trace.push(("tick", *mem.counters()));
        self.inner.tick(now_cycles, stack, mem);
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn period_marks(&self) -> &[PerfCounters] {
        self.inner.period_marks()
    }
}

/// Runs `program` under both interpreters on spy-wrapped copies of the
/// engine, asserts the errors match exactly and the engine-observed
/// counter traces are identical, and returns the error.
fn assert_error_identical<E: LayoutEngine>(
    program: &Program,
    make_engine: impl Fn() -> E,
    limits: RunLimits,
    label: &str,
) -> VmError {
    let machine = MachineConfig::tiny();
    let mut a = SpyEngine::new(make_engine());
    let decoded = Vm::new(program).run(&mut a, machine, limits);
    let mut b = SpyEngine::new(make_engine());
    let reference = run_reference(program, &mut b, machine, limits);
    let de = decoded.expect_err(&format!("{label}: decoded run should fail"));
    let re = reference.expect_err(&format!("{label}: reference run should fail"));
    assert_eq!(de, re, "{label}: interpreters disagree on the error");
    assert_eq!(
        a.trace, b.trace,
        "{label}: engine-observed counter state diverged before the failure"
    );
    de
}

fn infinite_loop() -> Program {
    let mut p = ProgramBuilder::new("spin");
    let mut f = p.function("main", 0);
    let spin = f.new_block();
    f.jump(spin);
    f.switch_to(spin);
    let g = f.alu(AluOp::Add, 1, 1);
    let _ = g;
    f.jump(spin);
    let main = p.add_function(f);
    p.finish(main).unwrap()
}

fn huge_malloc() -> Program {
    let mut p = ProgramBuilder::new("oom");
    let mut f = p.function("main", 0);
    // Allocate far beyond any engine's arena, in a loop so engines
    // with different capacities all eventually refuse.
    let header = f.new_block();
    f.jump(header);
    f.switch_to(header);
    let ptr = f.malloc(1 << 30);
    f.store_ptr(ptr, 0, 1);
    f.jump(header);
    let main = p.add_function(f);
    p.finish(main).unwrap()
}

fn double_free() -> Program {
    let mut p = ProgramBuilder::new("dfree");
    let mut f = p.function("main", 0);
    let ptr = f.malloc(32);
    f.store_ptr(ptr, 0, 9);
    f.free(ptr);
    f.free(ptr);
    f.ret(Some(0.into()));
    let main = p.add_function(f);
    p.finish(main).unwrap()
}

fn wild_free() -> Program {
    let mut p = ProgramBuilder::new("wfree");
    let mut f = p.function("main", 0);
    // A made-up address that was never allocated.
    let r = f.alu(AluOp::Add, 0x1234, 0);
    f.free(r);
    f.ret(Some(7.into()));
    let main = p.add_function(f);
    p.finish(main).unwrap()
}

#[test]
fn out_of_fuel_is_identical_on_both_interpreters() {
    let program = infinite_loop();
    let limits = RunLimits {
        max_instructions: 5_000,
        max_stack_depth: 100,
    };
    let e = assert_error_identical(&program, SimpleLayout::new, limits, "fuel/simple");
    assert_eq!(e, VmError::OutOfFuel { limit: 5_000 });
    let e = assert_error_identical(
        &program,
        || LinkedLayout::builder().build(),
        limits,
        "fuel/linked",
    );
    assert_eq!(e, VmError::OutOfFuel { limit: 5_000 });
}

/// A fuel limit that lands *mid-span* must fail exactly like the
/// reference interpreter, which meters one instruction at a time: the
/// decoded interpreter never starts a span the budget cannot cover,
/// and the ops the reference runs before the cut neither fail nor
/// reach the engine.
#[test]
fn out_of_fuel_mid_span_is_identical_on_both_interpreters() {
    let mut p = ProgramBuilder::new("straddle");
    let mut f = p.function("main", 0);
    let a = f.alu(AluOp::Add, 1, 1);
    let b = f.alu(AluOp::Add, a, 1);
    let c = f.alu(AluOp::Add, b, 1);
    f.ret(Some(c.into()));
    let main = p.add_function(f);
    let program = p.finish(main).unwrap();

    let limits = RunLimits {
        max_instructions: 2,
        max_stack_depth: 16,
    };
    let e = assert_error_identical(&program, SimpleLayout::new, limits, "straddle/simple");
    assert_eq!(e, VmError::OutOfFuel { limit: 2 });
}

/// Generated programs that run cleanly and, between them, execute pure
/// spans that straddle I-lines, impure straddling spans, fused
/// load+ALU and ALU+store steps, calls, mallocs and frees.
const FUEL_SEEDS: [u64; 6] = [151, 277, 499, 996, 2383, 2721];

/// A counted loop whose header compiles to a fused compare-and-branch
/// (the generator's loop headers fuse the compare into a load instead).
fn cmp_branch_loop() -> Program {
    let mut p = ProgramBuilder::new("cmp-branch");
    let mut f = p.function("main", 0);
    let s = f.slot();
    f.store_slot(s, 0);
    let header = f.new_block();
    let body = f.new_block();
    let exit = f.new_block();
    f.jump(header);
    f.switch_to(header);
    let i = f.load_slot(s);
    let next = f.alu(AluOp::Add, i, 1);
    let c = f.alu(AluOp::CmpLt, next, 6);
    f.branch(c, body, exit);
    f.switch_to(body);
    f.store_slot(s, next);
    f.jump(header);
    f.switch_to(exit);
    f.ret(Some(i.into()));
    let main = p.add_function(f);
    p.finish(main).unwrap()
}

/// Runs `program` at every budget from 1 to its clean retirement
/// count. Every budget below the count must stop both interpreters
/// with `OutOfFuel` at that budget and identical engine-observed
/// counters; at exactly the count both must finish with equal reports.
fn sweep_every_budget<E: LayoutEngine>(
    program: &Program,
    make_engine: impl Fn() -> E,
    label: &str,
) {
    let machine = MachineConfig::tiny();
    let clean = Vm::new(program)
        .run(&mut make_engine(), machine, RunLimits::default())
        .unwrap_or_else(|e| panic!("{label}: clean run failed: {e}"))
        .instructions;
    for budget in 1..clean {
        let limits = RunLimits {
            max_instructions: budget,
            max_stack_depth: 1_000,
        };
        let e = assert_error_identical(program, &make_engine, limits, &format!("{label}@{budget}"));
        assert_eq!(e, VmError::OutOfFuel { limit: budget }, "{label}@{budget}");
    }
    let limits = RunLimits {
        max_instructions: clean,
        max_stack_depth: 1_000,
    };
    let mut a = SpyEngine::new(make_engine());
    let decoded = Vm::new(program).run(&mut a, machine, limits);
    let mut b = SpyEngine::new(make_engine());
    let reference = run_reference(program, &mut b, machine, limits);
    assert_eq!(decoded.expect(label), reference.expect(label), "{label}");
    assert_eq!(a.trace, b.trace, "{label}");
}

/// The fuzz fuel sweep tries three budgets per program; this tries
/// them all, so every span is cut at each of its ops.
#[test]
fn every_fuel_budget_cuts_identically_on_both_interpreters() {
    let machine = MachineConfig::tiny();
    let programs = FUEL_SEEDS
        .iter()
        .map(|&seed| (seed, sz_fuzz::generate(seed)))
        .chain([(0, cmp_branch_loop())]);
    for (seed, program) in programs {
        sweep_every_budget(&program, SimpleLayout::new, &format!("simple/{seed}"));
        // A very short interval re-randomizes at most function entries,
        // so spans straddle lines differently from period to period.
        let (prepared, info) = prepare_program(&program);
        let config = Config::default()
            .with_interval(SimTime::from_nanos(50.0))
            .with_seed(seed);
        let make = || Stabilizer::new(config.clone(), &machine, &info);
        sweep_every_budget(&prepared, make, &format!("stabilizer/{seed}"));
    }
}

/// Delegates to [`SimpleLayout`] but plants the stack low, so a deep
/// call chain with large frames runs the guest stack off the bottom of
/// the address space long before the depth limit.
struct LowStack(SimpleLayout);

impl LayoutEngine for LowStack {
    fn prepare(&mut self, program: &Program) {
        self.0.prepare(program);
    }
    fn enter_function(&mut self, func: FuncId, mem: &mut MemorySystem) -> u64 {
        self.0.enter_function(func, mem)
    }
    fn stack_pad(&mut self, func: FuncId, mem: &mut MemorySystem) -> u64 {
        self.0.stack_pad(func, mem)
    }
    fn global_base(&self, g: GlobalId) -> u64 {
        self.0.global_base(g)
    }
    fn stack_base(&self) -> u64 {
        64 * 1024
    }
    fn malloc(&mut self, size: u64, mem: &mut MemorySystem) -> Option<u64> {
        self.0.malloc(size, mem)
    }
    fn free(&mut self, addr: u64, mem: &mut MemorySystem) -> bool {
        self.0.free(addr, mem)
    }
    fn tick(&mut self, now_cycles: u64, stack: &[FrameView], mem: &mut MemorySystem) {
        self.0.tick(now_cycles, stack, mem);
    }
    fn name(&self) -> &'static str {
        "low-stack"
    }
    fn period_marks(&self) -> &[PerfCounters] {
        self.0.period_marks()
    }
}

/// Recursing with oversized frames under a low stack base used to
/// underflow the unchecked `sp - pad - frame_bytes - 8` in
/// `push_frame` (debug panic, silent wrap in release). It must surface
/// as a clean `StackOverflow`, identically on both interpreters.
#[test]
fn stack_bytes_underflow_is_a_clean_overflow_on_both_interpreters() {
    let mut p = ProgramBuilder::new("deep");
    let rec = p.declare();
    let mut fb = p.function("rec", 0);
    // A ~16 KiB frame: a few activations outgrow the 64 KiB stack,
    // well inside the 100-frame depth limit.
    let slots: Vec<_> = (0..2048).map(|_| fb.slot()).collect();
    fb.store_slot(slots[0], 1);
    fb.store_slot(*slots.last().unwrap(), 2);
    fb.call_void(rec, vec![]);
    fb.ret(None);
    p.define(rec, fb);
    let mut main = p.function("main", 0);
    main.call_void(rec, vec![]);
    main.ret(None);
    let entry = p.add_function(main);
    let program = p.finish(entry).unwrap();

    let limits = RunLimits {
        max_instructions: 10_000_000,
        max_stack_depth: 100,
    };
    let e = assert_error_identical(
        &program,
        || LowStack(SimpleLayout::new()),
        limits,
        "stack-bytes/low",
    );
    assert_eq!(e, VmError::StackOverflow { limit: 100 });
}

#[test]
fn out_of_memory_is_identical_on_both_interpreters() {
    let program = huge_malloc();
    let limits = RunLimits::default();
    let e = assert_error_identical(&program, SimpleLayout::new, limits, "oom/simple");
    assert!(matches!(e, VmError::OutOfMemory { .. }), "got {e:?}");
    let e = assert_error_identical(
        &program,
        || LinkedLayout::builder().build(),
        limits,
        "oom/linked",
    );
    assert!(matches!(e, VmError::OutOfMemory { .. }), "got {e:?}");
}

/// Allocates a small block, then `size` bytes.
fn oversized_malloc(size: u64) -> Program {
    let mut p = ProgramBuilder::new("oversized");
    let mut f = p.function("main", 0);
    let small = f.malloc(64);
    f.store_ptr(small, 0, 1);
    let big = f.malloc(size as i64);
    f.store_ptr(big, 0, 2);
    f.ret(Some(0.into()));
    let main = p.add_function(f);
    p.finish(main).unwrap()
}

/// A request above 2^63 bytes has no power-of-two size class. Every
/// engine of the fuzz matrix, plus STABILIZER with the heap off, must
/// report it as `OutOfMemory`, identically on both interpreters.
#[test]
fn oversized_malloc_is_out_of_memory_on_every_engine() {
    use stabilizer::BaseAllocator;
    let limits = RunLimits::default();
    let machine = MachineConfig::tiny();
    let stabilizer_configs = [
        (
            "segregated-rerand",
            Config::default().with_interval(SimTime::from_nanos(3_000.0)),
        ),
        (
            "tlsf",
            Config {
                base_allocator: BaseAllocator::Tlsf,
                ..Config::one_time()
            },
        ),
        (
            "diehard",
            Config {
                base_allocator: BaseAllocator::DieHard,
                ..Config::one_time()
            },
        ),
        (
            "heap-off",
            Config {
                heap: false,
                ..Config::default()
            },
        ),
    ];
    for size in [u64::MAX, u64::MAX - 8, (1 << 63) + 1] {
        let program = oversized_malloc(size);
        let oom = VmError::OutOfMemory { request: size };
        let e = assert_error_identical(&program, SimpleLayout::new, limits, "oversized/simple");
        assert_eq!(e, oom, "simple, size {size:#x}");
        for order in [LinkOrder::Default, LinkOrder::Shuffled { seed: 3 }] {
            let label = format!("oversized/linked {order:?}");
            let make = || LinkedLayout::builder().link_order(order.clone()).build();
            let e = assert_error_identical(&program, make, limits, &label);
            assert_eq!(e, oom, "{label}, size {size:#x}");
        }
        let (prepared, info) = prepare_program(&program);
        for (name, config) in &stabilizer_configs {
            let label = format!("oversized/stabilizer-{name}");
            let make = || Stabilizer::new(config.clone().with_seed(9), &machine, &info);
            let e = assert_error_identical(&prepared, make, limits, &label);
            assert_eq!(e, oom, "{label}, size {size:#x}");
        }
    }
}

#[test]
fn invalid_free_is_identical_on_both_interpreters() {
    // SimpleLayout cannot detect invalid frees, so the detecting
    // engines carry this test: the linked engine and STABILIZER.
    let limits = RunLimits::default();
    for program in [double_free(), wild_free()] {
        let e = assert_error_identical(
            &program,
            || LinkedLayout::builder().build(),
            limits,
            "invalid-free/linked",
        );
        assert!(matches!(e, VmError::InvalidFree { .. }), "got {e:?}");

        let (prepared, info) = prepare_program(&program);
        let machine = MachineConfig::tiny();
        let e = assert_error_identical(
            &prepared,
            || Stabilizer::new(Config::one_time().with_seed(3), &machine, &info),
            limits,
            "invalid-free/stabilizer",
        );
        assert!(matches!(e, VmError::InvalidFree { .. }), "got {e:?}");
    }
}

/// Pins each in-tree engine's documented `free` semantics: the bump
/// engine accepts every address (it cannot detect liveness); the
/// allocator-backed engines report wild and double frees.
#[test]
fn free_semantics_are_pinned_per_engine() {
    let machine = MachineConfig::tiny();
    let limits = RunLimits::default();
    for program in [double_free(), wild_free()] {
        // simple: accepts, run completes.
        let mut simple = SimpleLayout::new();
        let r = Vm::new(&program).run(&mut simple, machine, limits);
        assert!(
            r.is_ok(),
            "SimpleLayout is documented to accept every free: {r:?}"
        );

        // linked: detects.
        let mut linked = LinkedLayout::builder().build();
        let r = Vm::new(&program).run(&mut linked, machine, limits);
        assert!(matches!(r, Err(VmError::InvalidFree { .. })), "got {r:?}");

        // stabilizer: detects under every base allocator.
        use stabilizer::BaseAllocator;
        for base in [
            BaseAllocator::Segregated,
            BaseAllocator::Tlsf,
            BaseAllocator::DieHard,
        ] {
            let (prepared, info) = prepare_program(&program);
            let config = Config {
                base_allocator: base,
                ..Config::one_time()
            };
            let mut engine = Stabilizer::new(config.with_seed(5), &machine, &info);
            let r = Vm::new(&prepared).run(&mut engine, machine, limits);
            assert!(
                matches!(r, Err(VmError::InvalidFree { .. })),
                "stabilizer/{base:?}: got {r:?}"
            );
        }
    }
}

/// The zero-size-malloc policy lives in one place (the VM clamps the
/// guest request to one byte) — so on EVERY engine, `malloc(0)` yields
/// a real, distinct, freeable allocation.
#[test]
fn malloc_zero_is_consistent_across_engines() {
    let mut p = ProgramBuilder::new("mz");
    let mut f = p.function("main", 0);
    let a = f.malloc(0);
    let b = f.malloc(0);
    // Addresses must be distinct; their equality bit is the only
    // address-derived value that is layout-invariant.
    let same = f.alu(AluOp::CmpEq, a, b);
    f.free(a);
    f.free(b);
    f.ret(Some(same.into()));
    let main = p.add_function(f);
    let program = p.finish(main).unwrap();

    let machine = MachineConfig::tiny();
    let limits = RunLimits::default();

    let run = |engine: &mut dyn LayoutEngine, program: &Program| {
        let decoded = Vm::new(program).run(engine, machine, limits);
        let report = decoded.expect("malloc(0) must succeed on every engine");
        assert_eq!(
            report.return_value,
            Some(0),
            "two zero-size allocations returned the same address"
        );
    };

    let mut simple = SimpleLayout::new();
    run(&mut simple, &program);
    let mut linked = LinkedLayout::builder().build();
    run(&mut linked, &program);

    use stabilizer::BaseAllocator;
    for base in [
        BaseAllocator::Segregated,
        BaseAllocator::Tlsf,
        BaseAllocator::DieHard,
    ] {
        let (prepared, info) = prepare_program(&program);
        let config = Config {
            base_allocator: base,
            ..Config::one_time()
        };
        let mut engine = Stabilizer::new(config.with_seed(11), &machine, &info);
        run(&mut engine, &prepared);
    }
}
