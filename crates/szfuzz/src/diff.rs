//! One program, every engine: the differential conformance check as a
//! fallible library routine.
//!
//! This is `tests/conformance_differential.rs`'s matrix — six
//! engine/allocator configurations, each run through both interpreters
//! — with `assert!` replaced by a structured [`Divergence`] value, so
//! the fuzz driver can report, shrink, and serialize a failure instead
//! of tearing the process down.

use crate::inject::GlobalAlias;
use stabilizer::{prepare_program, BaseAllocator, Config, Stabilizer};
use sz_ir::{FuncId, GlobalId, Program};
use sz_link::{LinkOrder, LinkedLayout};
use sz_machine::{MachineConfig, MemorySystem, PerfCounters, SimTime};
use sz_vm::{reference::run_reference, FrameView, LayoutEngine, RunLimits, RunReport, Vm, VmError};

/// Fuel/stack budget for every fuzz run. Generated programs terminate
/// by construction well under this bound (bounded counter loops,
/// acyclic calls) — the driver treats baseline `OutOfFuel` as a
/// generator bug, not a conformance failure.
pub const FUZZ_LIMITS: RunLimits = RunLimits {
    max_instructions: 2_000_000,
    max_stack_depth: 1_000,
};

/// The architectural result of a run: everything a program's *user*
/// can observe. Counters are deliberately excluded — they are the one
/// thing engines are supposed to change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchResult {
    /// Clean termination with an optional return value.
    Ok(Option<u64>),
    /// Instruction budget exhausted.
    OutOfFuel,
    /// Stack depth budget exhausted.
    StackOverflow,
    /// Heap exhausted.
    OutOfMemory,
    /// The engine rejected a free.
    InvalidFree,
}

/// Number of [`ArchResult`] classes (histogram width).
pub const ARCH_CLASSES: usize = 5;

impl ArchResult {
    /// Histogram bucket of this result class.
    pub fn class_index(self) -> usize {
        match self {
            ArchResult::Ok(_) => 0,
            ArchResult::OutOfFuel => 1,
            ArchResult::StackOverflow => 2,
            ArchResult::OutOfMemory => 3,
            ArchResult::InvalidFree => 4,
        }
    }

    /// Stable name of the class at `class_index`.
    pub fn class_name(index: usize) -> &'static str {
        [
            "ok",
            "out-of-fuel",
            "stack-overflow",
            "out-of-memory",
            "invalid-free",
        ][index]
    }

    /// Human rendering, value included.
    pub fn render(self) -> String {
        match self {
            ArchResult::Ok(Some(v)) => format!("ok({v:#x})"),
            ArchResult::Ok(None) => "ok(no value)".to_string(),
            other => ArchResult::class_name(other.class_index()).to_string(),
        }
    }
}

fn arch(r: &Result<RunReport, VmError>) -> ArchResult {
    match r {
        Ok(rep) => ArchResult::Ok(rep.return_value),
        Err(VmError::OutOfFuel { .. }) => ArchResult::OutOfFuel,
        Err(VmError::StackOverflow { .. }) => ArchResult::StackOverflow,
        Err(VmError::OutOfMemory { .. }) => ArchResult::OutOfMemory,
        Err(VmError::InvalidFree { .. }) => ArchResult::InvalidFree,
    }
}

/// How a conformance run failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The pre-decoded and reference interpreters disagreed under one
    /// engine (full-report comparison when both succeed, error-class
    /// comparison otherwise).
    InterpreterMismatch,
    /// An engine produced a different architectural result than the
    /// baseline `simple` engine.
    EngineDisagreement,
    /// Re-running the program at a reduced instruction budget made the
    /// interpreters disagree — on the error, or on the counter state
    /// an engine observed before the cut. This exercises exactly the
    /// span executor's whole-span fuel test.
    FuelSeam,
}

impl DivergenceKind {
    /// Stable wire/artifact name.
    pub fn name(self) -> &'static str {
        match self {
            DivergenceKind::InterpreterMismatch => "interpreter-mismatch",
            DivergenceKind::EngineDisagreement => "engine-disagreement",
            DivergenceKind::FuelSeam => "fuel-seam",
        }
    }
}

/// A conformance failure: which engine, which comparison, what was
/// expected and what was observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divergence {
    /// The seed of the generated program (carried for reporting; the
    /// shrinker re-checks mutated programs under the same seed).
    pub seed: u64,
    /// Engine label ("simple", "linked-shuffled", ...).
    pub engine: &'static str,
    /// Which comparison failed.
    pub kind: DivergenceKind,
    /// The baseline (or reference-interpreter) result.
    pub expected: ArchResult,
    /// The diverging result.
    pub got: ArchResult,
}

impl Divergence {
    /// The equivalence class the shrinker must preserve: same engine,
    /// same comparison kind. Expected/got values are allowed to drift
    /// during shrinking (removing instructions changes the computed
    /// result) — what must reproduce is *which engine disagrees, how*.
    pub fn class(&self) -> DivergenceClass {
        DivergenceClass {
            engine: self.engine,
            kind: self.kind,
        }
    }

    /// One-line human rendering.
    pub fn render(&self) -> String {
        format!(
            "seed {:#x}: {} under engine `{}` (expected {}, got {})",
            self.seed,
            self.kind.name(),
            self.engine,
            self.expected.render(),
            self.got.render()
        )
    }
}

/// The shrink-invariant part of a [`Divergence`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DivergenceClass {
    /// Engine label.
    pub engine: &'static str,
    /// Comparison kind.
    pub kind: DivergenceKind,
}

/// What a clean conformance run reports back to the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramVerdict {
    /// The architectural result every engine agreed on.
    pub arch: ArchResult,
    /// Instructions retired under the baseline engine (`None` when the
    /// baseline did not run to completion).
    pub baseline_instructions: Option<u64>,
}

/// Runs `vm`'s program under one engine through BOTH interpreters —
/// the decoded `vm` and the reference on `vm.program()` — and compares
/// them: bit-for-bit on success, by error class otherwise. Taking the
/// decoded VM lets a caller that runs one program under several
/// engines decode it once.
fn run_both(
    vm: &Vm,
    engine_factory: impl Fn() -> Box<dyn LayoutEngine>,
    label: &'static str,
    seed: u64,
) -> Result<(ArchResult, Option<u64>), Divergence> {
    let machine = MachineConfig::tiny();
    let mut e1 = engine_factory();
    let decoded = vm.run(e1.as_mut(), machine, FUZZ_LIMITS);
    let mut e2 = engine_factory();
    let reference = run_reference(vm.program(), e2.as_mut(), machine, FUZZ_LIMITS);
    let mismatch = match (&decoded, &reference) {
        (Ok(a), Ok(b)) => a != b,
        _ => arch(&decoded) != arch(&reference),
    };
    if mismatch {
        return Err(Divergence {
            seed,
            engine: label,
            kind: DivergenceKind::InterpreterMismatch,
            expected: arch(&reference),
            got: arch(&decoded),
        });
    }
    let instructions = decoded.as_ref().ok().map(|rep| rep.instructions);
    Ok((arch(&decoded), instructions))
}

/// STABILIZER engine configuration for a matrix label.
fn stab_config(label: &str) -> Config {
    match label {
        "stabilizer-segregated-rerand" => {
            Config::default().with_interval(SimTime::from_nanos(3_000.0))
        }
        "stabilizer-tlsf" => Config {
            base_allocator: BaseAllocator::Tlsf,
            ..Config::one_time()
        },
        "stabilizer-diehard" => Config {
            base_allocator: BaseAllocator::DieHard,
            ..Config::one_time()
        },
        other => panic!("unknown engine label {other:?}"),
    }
}

/// Architectural result of a single decoded-interpreter run under the
/// engine named by `label` (preparing the program for the STABILIZER
/// engines).
fn decoded_arch(program: &Program, seed: u64, label: &'static str) -> ArchResult {
    let machine = MachineConfig::tiny();
    let run = |program: &Program, engine: &mut dyn LayoutEngine| {
        arch(&Vm::new(program).run(engine, machine, FUZZ_LIMITS))
    };
    match label {
        "simple" => run(program, &mut sz_vm::SimpleLayout::new()),
        "linked-default" => run(
            program,
            &mut LinkedLayout::builder()
                .link_order(LinkOrder::Default)
                .build(),
        ),
        "linked-shuffled" => run(
            program,
            &mut LinkedLayout::builder()
                .link_order(LinkOrder::Shuffled { seed })
                .build(),
        ),
        GlobalAlias::LABEL => run(program, &mut GlobalAlias::new()),
        stab_label => {
            let (prepared, info) = prepare_program(program);
            let mut engine =
                Stabilizer::new(stab_config(stab_label).with_seed(seed), &machine, &info);
            run(&prepared, &mut engine)
        }
    }
}

/// Re-runs only the comparison a known divergence class needs.
///
/// The shrinker calls its checker once per candidate, and a candidate
/// only survives if it reproduces the *same* class — so running the
/// rest of the matrix would be pure waste (any divergence it might
/// produce has a different class and rejects the candidate exactly
/// like `None` does). For an engine disagreement that means two
/// decoded runs (baseline and the named engine); for an interpreter
/// mismatch, both interpreters under the named engine only.
pub fn recheck_class(program: &Program, seed: u64, class: DivergenceClass) -> Option<Divergence> {
    match class.kind {
        DivergenceKind::InterpreterMismatch => {
            let outcome = match class.engine {
                "simple" => run_both(
                    &Vm::new(program),
                    || Box::new(sz_vm::SimpleLayout::new()),
                    "simple",
                    seed,
                ),
                "linked-default" => run_both(
                    &Vm::new(program),
                    || {
                        Box::new(
                            LinkedLayout::builder()
                                .link_order(LinkOrder::Default)
                                .build(),
                        )
                    },
                    class.engine,
                    seed,
                ),
                "linked-shuffled" => run_both(
                    &Vm::new(program),
                    || {
                        Box::new(
                            LinkedLayout::builder()
                                .link_order(LinkOrder::Shuffled { seed })
                                .build(),
                        )
                    },
                    class.engine,
                    seed,
                ),
                GlobalAlias::LABEL => run_both(
                    &Vm::new(program),
                    || Box::new(GlobalAlias::new()),
                    class.engine,
                    seed,
                ),
                stab_label => {
                    let machine = MachineConfig::tiny();
                    let (prepared, info) = prepare_program(program);
                    let config = stab_config(stab_label);
                    run_both(
                        &Vm::new(&prepared),
                        || {
                            Box::new(Stabilizer::new(
                                config.clone().with_seed(seed),
                                &machine,
                                &info,
                            ))
                        },
                        stab_label,
                        seed,
                    )
                }
            };
            outcome.err().filter(|d| d.kind == class.kind)
        }
        DivergenceKind::EngineDisagreement => {
            let expected = decoded_arch(program, seed, "simple");
            let got = decoded_arch(program, seed, class.engine);
            (got != expected).then_some(Divergence {
                seed,
                engine: class.engine,
                kind: DivergenceKind::EngineDisagreement,
                expected,
                got,
            })
        }
        DivergenceKind::FuelSeam => {
            // A shrink candidate must still terminate cleanly to have
            // a retirement count worth sweeping below.
            let mut engine = sz_vm::SimpleLayout::new();
            let clean = Vm::new(program).run(&mut engine, MachineConfig::tiny(), FUZZ_LIMITS);
            let baseline = clean.ok().map(|r| r.instructions)?;
            fuel_sweep_check(program, seed, baseline)
        }
    }
}

/// Wraps the baseline engine and records the counter state it observes
/// at every callback carrying the memory system — the same oracle
/// `tests/error_paths.rs` uses. Identical traces mean the two
/// interpreters walked the engine past identical counter states all
/// the way to the cut.
struct CounterSpy {
    inner: sz_vm::SimpleLayout,
    trace: Vec<(&'static str, PerfCounters)>,
}

impl CounterSpy {
    fn new() -> Self {
        CounterSpy {
            inner: sz_vm::SimpleLayout::new(),
            trace: Vec::new(),
        }
    }
}

impl LayoutEngine for CounterSpy {
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

/// Re-runs `program` at reduced instruction budgets and checks both
/// interpreters report `OutOfFuel` identically — same error, same
/// engine-observed counter trace up to the cut.
///
/// A budget strictly below the clean-run retirement count is
/// *guaranteed* to cut the run short, and where it lands is
/// arbitrary relative to span boundaries — so the sweep drives the
/// span executor's fuel test (a span the budget cannot cover is never
/// started, while the reference runs op by op up to the cut) that a
/// full-budget differential run never touches.
pub fn fuel_sweep_check(
    program: &Program,
    seed: u64,
    baseline_instructions: u64,
) -> Option<Divergence> {
    let machine = MachineConfig::tiny();
    let budgets = [
        (baseline_instructions / 4).max(1),
        (baseline_instructions / 2).max(1),
        (baseline_instructions * 3 / 4).max(1),
    ];
    let mut prev = 0;
    for budget in budgets {
        if budget == prev || budget >= baseline_instructions {
            continue; // deduplicate tiny sweeps; only true cuts count
        }
        prev = budget;
        let limits = RunLimits {
            max_instructions: budget,
            max_stack_depth: FUZZ_LIMITS.max_stack_depth,
        };
        let mut spy_d = CounterSpy::new();
        let decoded = Vm::new(program).run(&mut spy_d, machine, limits);
        let mut spy_r = CounterSpy::new();
        let reference = run_reference(program, &mut spy_r, machine, limits);
        let exact_cut = matches!(
            (&decoded, &reference),
            (
                Err(VmError::OutOfFuel { limit: a }),
                Err(VmError::OutOfFuel { limit: b }),
            ) if *a == budget && *b == budget
        );
        if !exact_cut || spy_d.trace != spy_r.trace {
            return Some(Divergence {
                seed,
                engine: "simple",
                kind: DivergenceKind::FuelSeam,
                expected: arch(&reference),
                got: arch(&decoded),
            });
        }
    }
    None
}

/// One full conformance check: every engine/allocator combination must
/// agree with the baseline on the architectural result, and both
/// interpreters must agree under every engine.
///
/// The check decodes two programs, once each: `program`, which the
/// baseline, link-order and injected engines run, and its STABILIZER-
/// prepared form, which the three STABILIZER engines run.
///
/// With `inject_global_alias`, a deliberately wrong seventh engine
/// ([`GlobalAlias`]) joins the matrix — the CI negative control that
/// proves the pipeline detects and shrinks real divergences.
pub fn check_program(
    program: &Program,
    seed: u64,
    inject_global_alias: bool,
) -> Result<ProgramVerdict, Divergence> {
    let machine = MachineConfig::tiny();
    let vm = Vm::new(program);

    // Baseline: the unrandomized bump-allocator engine.
    let (expected, baseline_instructions) =
        run_both(&vm, || Box::new(sz_vm::SimpleLayout::new()), "simple", seed)?;

    // Link-order engines (real allocator underneath).
    let linked: [(&'static str, LinkOrder); 2] = [
        ("linked-default", LinkOrder::Default),
        ("linked-shuffled", LinkOrder::Shuffled { seed }),
    ];
    for (label, order) in linked {
        let (got, _) = run_both(
            &vm,
            || Box::new(LinkedLayout::builder().link_order(order.clone()).build()),
            label,
            seed,
        )?;
        if got != expected {
            return Err(Divergence {
                seed,
                engine: label,
                kind: DivergenceKind::EngineDisagreement,
                expected,
                got,
            });
        }
    }

    // STABILIZER engines run the *prepared* program (the transform
    // must also be semantics-preserving), one per base allocator. The
    // segregated configuration re-randomizes aggressively mid-run.
    let (prepared, info) = prepare_program(program);
    let prepared_vm = Vm::new(&prepared);
    let stab: [(&'static str, Config); 3] = [
        (
            "stabilizer-segregated-rerand",
            Config::default().with_interval(SimTime::from_nanos(3_000.0)),
        ),
        (
            "stabilizer-tlsf",
            Config {
                base_allocator: BaseAllocator::Tlsf,
                ..Config::one_time()
            },
        ),
        (
            "stabilizer-diehard",
            Config {
                base_allocator: BaseAllocator::DieHard,
                ..Config::one_time()
            },
        ),
    ];
    for (label, config) in stab {
        let (got, _) = run_both(
            &prepared_vm,
            || {
                Box::new(Stabilizer::new(
                    config.clone().with_seed(seed),
                    &machine,
                    &info,
                ))
            },
            label,
            seed,
        )?;
        if got != expected {
            return Err(Divergence {
                seed,
                engine: label,
                kind: DivergenceKind::EngineDisagreement,
                expected,
                got,
            });
        }
    }

    // The negative control, when armed.
    if inject_global_alias {
        let (got, _) = run_both(
            &vm,
            || Box::new(GlobalAlias::new()),
            GlobalAlias::LABEL,
            seed,
        )?;
        if got != expected {
            return Err(Divergence {
                seed,
                engine: GlobalAlias::LABEL,
                kind: DivergenceKind::EngineDisagreement,
                expected,
                got,
            });
        }
    }

    Ok(ProgramVerdict {
        arch: expected,
        baseline_instructions,
    })
}
