//! Golden-run pins: simulated output checked against a committed
//! record.
//!
//! `decode_equivalence` and the fuzz gate compare the decoded VM with
//! `run_reference`, but both interpreters share `MemorySystem`, the
//! layout engines and the allocators (DESIGN.md §7a). A change inside
//! any of those passes both checks even if it moves every sample.
//! These pins catch it. Each key holds one FNV-1a-64 digest: over the
//! return value, cycles, all `PerfCounters`, every period snapshot and
//! `Stabilizer::stats()` of a run, or over the bytes a request path
//! emits.
//!
//! `paper-results/golden_runs.txt` is printed by this same code:
//!
//! ```text
//! SZ_GOLDEN_PRINT=1 cargo test -q --test golden_runs -- --nocapture \
//!     | grep -e '^#' -e ' = 0x' > paper-results/golden_runs.txt
//! ```
//!
//! Regenerate it only at a commit whose simulated output is the
//! reference, before the change it is meant to check. Regenerating to
//! make a failing change pass defeats the pins.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::AtomicBool;

use stabilizer::code::CodeStats;
use stabilizer::{prepare_program, BaseAllocator, Config, Stabilizer, Stats};
use sz_fuzz::{FuzzConfig, DEFAULT_SEED};
use sz_harness::pool;
use sz_heap::{Allocator, Region, SegregatedAllocator, ShuffleLayer};
use sz_ir::Program;
use sz_link::{LinkOrder, LinkedLayout};
use sz_machine::{MachineConfig, PerfCounters, SimTime};
use sz_opt::{optimize, OptLevel};
use sz_rng::Marsaglia;
use sz_serve::exec::execute;
use sz_serve::{AdaptiveParams, Experiment, RunRequest};
use sz_vm::{LayoutEngine, RunLimits, RunReport, SimpleLayout, Vm};
use sz_workloads::Scale;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn counters(&mut self, c: &PerfCounters) {
        // Destructured so a new counter field fails to compile here.
        let PerfCounters {
            instructions,
            cycles,
            l1i_misses,
            l1d_misses,
            l2_misses,
            l3_misses,
            itlb_misses,
            dtlb_misses,
            branches,
            branch_mispredicts,
        } = *c;
        for v in [
            instructions,
            cycles,
            l1i_misses,
            l1d_misses,
            l2_misses,
            l3_misses,
            itlb_misses,
            dtlb_misses,
            branches,
            branch_mispredicts,
        ] {
            self.u64(v);
        }
    }

    fn report(&mut self, r: &RunReport) {
        self.u64(u64::from(r.return_value.is_some()));
        self.u64(r.return_value.unwrap_or(0));
        self.u64(r.cycles);
        self.u64(r.instructions);
        self.u64(r.time.as_nanos().to_bits());
        self.counters(&r.counters);
        self.u64(r.periods.len() as u64);
        for p in &r.periods {
            self.u64(u64::from(p.index));
            self.u64(p.start_cycles);
            self.u64(p.end_cycles);
            self.counters(&p.counters);
        }
        self.bytes(r.engine.as_bytes());
    }

    fn stats(&mut self, s: &Stats) {
        let Stats {
            rerandomizations,
            code,
            stack_refills,
            heap_ops,
        } = *s;
        let CodeStats {
            relocations,
            rerandomizations: code_rerandomizations,
            copies_freed,
            copies_kept,
            far_calls,
        } = code;
        for v in [
            rerandomizations,
            relocations,
            code_rerandomizations,
            copies_freed,
            copies_kept,
            far_calls,
            stack_refills,
            heap_ops.0,
            heap_ops.1,
        ] {
            self.u64(v);
        }
    }
}

/// The benchmarks every engine and configuration variant runs: a
/// call-heavy, a code-size-heavy and a heap-heavy workload.
const VARIANT_BENCHMARKS: [&str; 3] = ["perlbench", "gcc", "mcf"];

/// The re-randomization interval the quick experiments use.
fn interval() -> SimTime {
    SimTime::from_millis(0.005)
}

fn run(program: &Program, engine: &mut dyn LayoutEngine, machine: MachineConfig) -> RunReport {
    Vm::new(program)
        .run(engine, machine, RunLimits::default())
        .expect("benchmark programs terminate")
}

/// One STABILIZER run: its report plus the engine's stats.
fn stabilized(program: &Program, config: Config, machine: MachineConfig) -> u64 {
    let (prepared, info) = prepare_program(program);
    let mut engine = Stabilizer::new(config, &machine, &info);
    let report = run(&prepared, &mut engine, machine);
    let mut h = Fnv::new();
    h.report(&report);
    h.stats(&engine.stats());
    h.0
}

fn plain(program: &Program, mut engine: impl LayoutEngine) -> u64 {
    let report = run(program, &mut engine, MachineConfig::core_i3_550());
    let mut h = Fnv::new();
    h.report(&report);
    h.0
}

/// The trace bytes, summary and sample counts of one request executed
/// in-process, exactly as sz-serve would on a cache miss.
fn executed(spec: &RunRequest) -> u64 {
    let output = execute(spec, 1, &AtomicBool::new(false), None).expect("request executes");
    let mut h = Fnv::new();
    h.bytes(output.trace.as_bytes());
    h.bytes(output.summary.to_string().as_bytes());
    h.u64(output.samples_used);
    h.u64(output.samples_saved);
    h.0
}

fn evaluate_request(adaptive: bool) -> RunRequest {
    let mut spec = RunRequest::quick(Experiment::Evaluate);
    spec.benchmarks = Some(vec!["mcf".into()]);
    spec.runs = 8;
    spec.seed_base = 0x601D_0001;
    if adaptive {
        spec.adaptive = Some(AdaptiveParams {
            max_runs: spec.runs,
            ..AdaptiveParams::default()
        });
    }
    spec
}

/// The differential fuzz loop's result over 100 fixed seeds.
fn fuzz_summary() -> u64 {
    let summary = sz_fuzz::driver::run(&FuzzConfig {
        seed_base: DEFAULT_SEED,
        programs: 100,
        threads: 1,
        shrink: false,
        time_cap: None,
        ..FuzzConfig::default()
    });
    assert!(summary.failure.is_none(), "{}", summary.render());
    let mut h = Fnv::new();
    h.u64(summary.programs_run);
    for v in summary.diversity.arch_classes {
        h.u64(v);
    }
    h.u64(summary.diversity.returns_value);
    h.u64(summary.diversity.fuel_sweeps);
    for v in summary.diversity.op_mix {
        h.u64(v);
    }
    h.u64(summary.max_instructions);
    h.u64(u64::from(summary.capped));
    h.0
}

/// The address stream the NIST experiment (§3.2) tests: the shuffle
/// heap at N = 256 holds 2,048 live 64-byte objects, then each draw
/// frees the oldest and allocates a fresh one.
fn shuffle_addresses() -> u64 {
    let mut heap = ShuffleLayer::new(
        SegregatedAllocator::new(Region::new(0x1000_0000, 1 << 38)),
        256,
        Marsaglia::seeded(778),
    );
    let mut live: VecDeque<u64> = (0..2048).map(|_| heap.malloc(64).unwrap()).collect();
    let mut h = Fnv::new();
    for _ in 0..4096 {
        heap.free(live.pop_front().unwrap());
        let addr = heap.malloc(64).unwrap();
        h.u64(addr);
        live.push_back(addr);
    }
    h.0
}

type Job<'a> = Box<dyn Fn() -> u64 + Sync + 'a>;

/// Every pinned `(key, digest)` pair, in file order.
fn computed() -> Vec<(String, u64)> {
    let i3 = MachineConfig::core_i3_550();
    let tiny: Vec<(&'static str, Program)> = sz_workloads::suite()
        .iter()
        .map(|spec| {
            (
                spec.name,
                optimize(&spec.program(Scale::Tiny), OptLevel::O2),
            )
        })
        .collect();
    let program = |name: &str| &tiny.iter().find(|(n, _)| *n == name).unwrap().1;
    let base = Config::default().with_interval(interval());

    let mut jobs: Vec<(String, Job<'_>)> = Vec::new();
    for (name, p) in &tiny {
        for seed in [1, 2] {
            let config = base.clone().with_seed(seed);
            jobs.push((
                format!("tiny.{name}.seed{seed}"),
                Box::new(move || stabilized(p, config.clone(), i3)),
            ));
        }
    }
    let variants = [
        (
            "tlsf",
            Config {
                base_allocator: BaseAllocator::Tlsf,
                ..base.clone()
            },
        ),
        (
            "diehard",
            Config {
                base_allocator: BaseAllocator::DieHard,
                ..base.clone()
            },
        ),
        (
            "heap_off",
            Config {
                heap: false,
                ..base.clone()
            },
        ),
        (
            "code_off",
            Config {
                code: false,
                ..base.clone()
            },
        ),
        (
            "stack_off",
            Config {
                stack: false,
                ..base.clone()
            },
        ),
        ("one_time", Config::one_time()),
    ];
    for name in VARIANT_BENCHMARKS {
        let p = program(name);
        for (variant, config) in &variants {
            let config = config.clone().with_seed(1);
            jobs.push((
                format!("{variant}.{name}"),
                Box::new(move || stabilized(p, config.clone(), i3)),
            ));
        }
        // The small-cache machine: evictions on every level.
        let config = base.clone().with_seed(1);
        jobs.push((
            format!("tiny_machine.{name}"),
            Box::new(move || stabilized(p, config.clone(), MachineConfig::tiny())),
        ));
        jobs.push((
            format!("linked.{name}"),
            Box::new(move || {
                plain(
                    p,
                    LinkedLayout::builder()
                        .link_order(LinkOrder::Shuffled { seed: 1 })
                        .build(),
                )
            }),
        ));
        jobs.push((
            format!("simple.{name}"),
            Box::new(move || plain(p, SimpleLayout::new())),
        ));
    }
    for name in ["bzip2", "mcf"] {
        jobs.push((
            format!("small.{name}"),
            Box::new(move || {
                let p = optimize(
                    &sz_workloads::build(name, Scale::Small).unwrap(),
                    OptLevel::O2,
                );
                let config = Config::default()
                    .with_interval(SimTime::from_millis(0.05))
                    .with_seed(1);
                stabilized(&p, config, i3)
            }),
        ));
    }
    jobs.push((
        "exec.evaluate".into(),
        Box::new(|| executed(&evaluate_request(false))),
    ));
    jobs.push((
        "exec.evaluate_adaptive".into(),
        Box::new(|| executed(&evaluate_request(true))),
    ));
    jobs.push((
        "exec.table1".into(),
        Box::new(|| {
            let mut spec = RunRequest::quick(Experiment::Table1);
            spec.benchmarks = Some(vec!["bzip2".into()]);
            spec.runs = 3;
            executed(&spec)
        }),
    ));
    jobs.push(("fuzz.summary".into(), Box::new(fuzz_summary)));
    jobs.push(("nist.shuffle_addresses".into(), Box::new(shuffle_addresses)));

    let threads = std::thread::available_parallelism().map_or(2, |n| n.get().min(4));
    let digests = pool::run_indexed(threads, jobs.len(), |i| (jobs[i].1)());
    jobs.into_iter().map(|(key, _)| key).zip(digests).collect()
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("paper-results/golden_runs.txt")
}

fn load_golden() -> BTreeMap<String, u64> {
    let text = std::fs::read_to_string(golden_path())
        .expect("paper-results/golden_runs.txt is checked in");
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (k, v) = l.split_once('=').expect("golden line is key = digest");
            let hex = v.trim().trim_start_matches("0x");
            let digest = u64::from_str_radix(hex, 16).expect("golden digest is hex");
            (k.trim().to_string(), digest)
        })
        .collect()
}

#[test]
fn simulated_output_matches_the_golden_runs() {
    let computed = computed();
    if std::env::var_os("SZ_GOLDEN_PRINT").is_some() {
        println!("# Golden-run digests for tests/golden_runs.rs (FNV-1a-64).");
        println!("# Regenerate only at a reference commit, before the change it checks:");
        println!(
            "# SZ_GOLDEN_PRINT=1 cargo test -q --test golden_runs -- --nocapture \
             | grep -e '^#' -e ' = 0x'"
        );
        for (key, digest) in &computed {
            println!("{key} = {digest:#018x}");
        }
        return;
    }
    let golden = load_golden();
    let mut problems = Vec::new();
    for (key, digest) in &computed {
        match golden.get(key) {
            None => problems.push(format!("{key}: not in golden_runs.txt")),
            Some(want) if want != digest => problems.push(format!(
                "{key}: computed {digest:#018x}, golden {want:#018x}"
            )),
            Some(_) => {}
        }
    }
    for key in golden.keys() {
        if !computed.iter().any(|(k, _)| k == key) {
            problems.push(format!("{key}: pinned but no longer computed"));
        }
    }
    assert!(
        problems.is_empty(),
        "{} of {} golden runs differ (simulated output changed):\n{}",
        problems.len(),
        computed.len(),
        problems.join("\n")
    );
}
