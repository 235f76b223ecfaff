//! Micro-benchmarks for the substrate itself: allocator throughput
//! (the shuffling layer's direct cost), memory-system and predictor
//! simulation speed, interpreter throughput, and the statistical
//! kernels.
//!
//! Run with `cargo run --release -p sz-bench --bin micro`. Build with
//! `--features criterion` for criterion-grade sampling (more warmup
//! and samples; see [`sz_bench::timing`]).
//!
//! Besides the human-readable table, the run writes a machine-readable
//! summary to `BENCH_sim.json` in the current directory (override the
//! path with `SZ_BENCH_SIM_PATH`; see EXPERIMENTS.md for the schema).
//! The simulator-speed numbers there gate hot-path regressions.

use std::hint::black_box;
use std::time::Instant;

use sz_bench::emit;
use sz_bench::timing::{bench, Measurement};
use sz_harness::{experiments::fig6, ExperimentOptions, Json};
use sz_heap::{
    Allocator, DieHardAllocator, Region, SegregatedAllocator, ShuffleLayer, TlsfAllocator,
};
use sz_machine::{MachineConfig, MemorySystem};
use sz_rng::{Marsaglia, Rng};
use sz_serve::loadgen::{run_loadgen, LoadgenConfig, LoadgenReport};
use sz_serve::{Server, ServerConfig};
use sz_stats::shapiro_wilk;
use sz_vm::{RunLimits, SimpleLayout, Vm};
use sz_workloads::Scale;

fn main() {
    let mut out = String::from("MICRO — substrate micro-benchmarks\n\n");

    // Allocator malloc/free round-trips.
    let mut seg = SegregatedAllocator::new(Region::new(0x1000, 1 << 30));
    out.push_str(
        &bench(|| {
            let p = seg.malloc(black_box(64)).unwrap();
            seg.free(p);
        })
        .render("allocator/segregated"),
    );
    out.push('\n');

    let mut tlsf = TlsfAllocator::new(Region::new(0x1000, 1 << 30));
    out.push_str(
        &bench(|| {
            let p = tlsf.malloc(black_box(64)).unwrap();
            tlsf.free(p);
        })
        .render("allocator/tlsf"),
    );
    out.push('\n');

    let mut dh = DieHardAllocator::new(Region::new(0x1000, 1 << 34), Marsaglia::seeded(1));
    out.push_str(
        &bench(|| {
            let p = dh.malloc(black_box(64)).unwrap();
            dh.free(p);
        })
        .render("allocator/diehard"),
    );
    out.push('\n');

    let mut sh = ShuffleLayer::new(
        SegregatedAllocator::new(Region::new(0x1000, 1 << 30)),
        256,
        Marsaglia::seeded(1),
    );
    let shuffle = bench(|| {
        let p = sh.malloc(black_box(64)).unwrap();
        sh.free(p);
    });
    out.push_str(&shuffle.render("allocator/shuffle256_over_segregated"));
    out.push('\n');
    out.push_str(
        &shuffle_fill(SegregatedAllocator::new).render("allocator/shuffle256_fill_segregated"),
    );
    out.push('\n');
    out.push_str(&shuffle_fill(TlsfAllocator::new).render("allocator/shuffle256_fill_tlsf"));
    out.push('\n');

    // Memory-system and predictor simulation speed.
    let mut m = MemorySystem::new(MachineConfig::core_i3_550());
    m.load(0x1000);
    let l1_hit = bench(|| {
        m.load(black_box(0x1000));
    });
    out.push_str(&l1_hit.render("machine/l1_hit_load"));
    out.push('\n');

    let mut m = MemorySystem::new(MachineConfig::core_i3_550());
    let mut addr = 0u64;
    let streaming = bench(|| {
        addr = addr.wrapping_add(64);
        m.load(black_box(addr));
    });
    out.push_str(&streaming.render("machine/streaming_loads"));
    out.push('\n');

    let mut m = MemorySystem::new(MachineConfig::core_i3_550());
    let mut i = 0u64;
    let branch = bench(|| {
        i += 1;
        m.branch(black_box(0x40_0000), i.is_multiple_of(7));
    });
    out.push_str(&branch.render("machine/branch_predict"));
    out.push('\n');

    // Interpreter throughput over a full benchmark.
    let program = sz_workloads::build("bzip2", Scale::Tiny).unwrap();
    let vm = Vm::new(&program);
    let vm_run = bench(|| {
        let mut e = SimpleLayout::new();
        vm.run(&mut e, MachineConfig::core_i3_550(), RunLimits::default())
            .unwrap();
    });
    out.push_str(&vm_run.render("vm/bzip2_tiny_simple_layout"));
    out.push('\n');

    // Decoded-dispatch speed in ns per simulated instruction, with the
    // in-tree reference interpreter (the pre-decode path) alongside so
    // the dispatch rewrite's gain is tracked, not just asserted.
    let instructions = {
        let mut e = SimpleLayout::new();
        vm.run(&mut e, MachineConfig::core_i3_550(), RunLimits::default())
            .unwrap()
            .instructions
    } as f64;
    let reference_run = bench(|| {
        let mut e = SimpleLayout::new();
        sz_vm::run_reference(
            &program,
            &mut e,
            MachineConfig::core_i3_550(),
            RunLimits::default(),
        )
        .unwrap();
    });
    // The interpreter runs are deterministic, so sample-to-sample
    // variation is strictly additive host noise; the median resists
    // the right-tail contamination that a shared core injects, where
    // even the trimmed mean drifts upward under load spikes.
    let dispatch_ns = vm_run.median_ns / instructions;
    let reference_ns = reference_run.median_ns / instructions;
    out.push_str(&format!(
        "{:<32} {dispatch_ns:>12.2} ns/instr decoded, {reference_ns:.2} ns/instr reference ({:.2}x)\n",
        "vm/dispatch",
        reference_ns / dispatch_ns,
    ));

    // Front-end batching in isolation: a long basic block of
    // register-only ALU work has no data traffic and almost no
    // dispatch variety, so ns/instr here tracks the fetch-span +
    // memoization path and nothing else.
    let straight = straight_line_program(200, 2000);
    let svm = Vm::new(&straight);
    let straight_instrs = {
        let mut e = SimpleLayout::new();
        svm.run(&mut e, MachineConfig::core_i3_550(), RunLimits::default())
            .unwrap()
            .instructions
    } as f64;
    let straight_run = bench(|| {
        let mut e = SimpleLayout::new();
        svm.run(&mut e, MachineConfig::core_i3_550(), RunLimits::default())
            .unwrap();
    });
    let fetch_span_ns = straight_run.median_ns / straight_instrs;
    out.push_str(&format!(
        "{:<32} {fetch_span_ns:>12.2} ns/instr straight-line ({straight_instrs:.0} instrs)\n",
        "vm/fetch_span",
    ));

    // Superinstruction dispatch in isolation: a one-line loop body
    // made almost entirely of load_slot+alu / alu+store_slot pairs
    // with a cmp+branch terminal, so ns/instr here tracks the fused
    // step handlers and the folded branch, not the general per-op
    // path.
    let fused = fused_pairs_program(5000);
    let fvm = Vm::new(&fused);
    let fused_instrs = {
        let mut e = SimpleLayout::new();
        fvm.run(&mut e, MachineConfig::core_i3_550(), RunLimits::default())
            .unwrap()
            .instructions
    } as f64;
    let fused_run = bench(|| {
        let mut e = SimpleLayout::new();
        fvm.run(&mut e, MachineConfig::core_i3_550(), RunLimits::default())
            .unwrap();
    });
    let fused_ns = fused_run.median_ns / fused_instrs;
    out.push_str(&format!(
        "{:<32} {fused_ns:>12.2} ns/instr fused pairs ({fused_instrs:.0} instrs)\n",
        "vm/fused_dispatch",
    ));

    // Statistical kernels.
    let mut rng = Marsaglia::seeded(1);
    let data: Vec<f64> = (0..30).map(|_| rng.next_f64()).collect();
    out.push_str(
        &bench(|| {
            shapiro_wilk(black_box(&data)).unwrap();
        })
        .render("stats/shapiro_wilk_n30"),
    );
    out.push('\n');

    // End-to-end simulator speed: three quick Figure 6 sweeps, wall
    // clock, on one pool thread. The pool is bit-identical for any
    // thread count, so the count only changes the wall clock; it is
    // pinned to the one the committed baseline was recorded with, and
    // recorded in the JSON, where `bench_gate` refuses to compare
    // samples taken at different counts. Three timed repeats give the
    // regression gate per-run samples instead of a single point
    // estimate.
    let mut opts = ExperimentOptions::quick();
    opts.threads = 1;
    let mut fig6_walls = [0.0f64; 3];
    let mut fig6_benchmarks = 0;
    for wall in &mut fig6_walls {
        let fig6_start = Instant::now();
        let fig6_result = fig6::run(&opts);
        *wall = fig6_start.elapsed().as_secs_f64();
        fig6_benchmarks = fig6_result.rows.len();
    }
    let mut sorted_walls = fig6_walls;
    sorted_walls.sort_by(|a, b| a.partial_cmp(b).expect("wall times are finite"));
    let fig6_seconds = sorted_walls[1];
    out.push_str(&format!(
        "{:<32} {fig6_seconds:>12.2} s wall median of 3 ({fig6_benchmarks} benchmarks, {} runs/config, {} threads)\n",
        "e2e/fig6_quick",
        opts.runs,
        opts.threads,
    ));

    // Serving-path latency under concurrency: an in-process sz-serve
    // on an ephemeral port, hammered with cache-hit run + stats
    // requests by the poll-driven load generator; the server runs one
    // thread per client connection. Each wave contributes
    // one p99 sample, so the regression gate bootstraps over waves the
    // same way it bootstraps over interpreter timing runs. The client
    // count is reduced for CI (override with SZ_LOADGEN_CLIENTS).
    let loadgen = run_loadgen_bench();
    out.push_str(&format!(
        "{:<32} {:>12} µs p99 serve latency ({} clients, {} waves, {:.0} req/s)\n",
        "serve/loadgen",
        loadgen.p99_us,
        loadgen.clients,
        loadgen.samples_p99_us.len(),
        loadgen.throughput_rps,
    ));

    emit("micro", &out);
    write_bench_sim(
        &l1_hit,
        &streaming,
        &branch,
        &shuffle,
        (&vm_run, instructions, reference_ns),
        (&straight_run, straight_instrs),
        (&fused_run, fused_instrs),
        (fig6_seconds, &fig6_walls, fig6_benchmarks),
        &loadgen,
        &opts,
    );
}

/// Times the first malloc on a fresh 256-slot shuffling layer over a
/// base built by `new_base`: the layer fills the size class with 256
/// base mallocs, so the base allocator's malloc cost counts 256 times.
fn shuffle_fill<A: Allocator>(new_base: impl Fn(Region) -> A) -> Measurement {
    bench(|| {
        let base = new_base(Region::new(0x1000, 1 << 30));
        let mut layer = ShuffleLayer::new(base, 256, Marsaglia::seeded(1));
        black_box(layer.malloc(black_box(64)));
    })
}

/// Drives the sz-serve load generator against an in-process server
/// and returns its latency report for the `loadgen` gate section.
fn run_loadgen_bench() -> LoadgenReport {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port for loadgen");
    let addr = server
        .local_addr()
        .expect("loadgen server address")
        .to_string();
    let stop = server.stop_handle();
    let handle = std::thread::spawn(move || server.serve().expect("serve"));

    let clients = std::env::var("SZ_LOADGEN_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(512);
    let report = run_loadgen(&LoadgenConfig {
        addr: addr.clone(),
        clients,
        ..LoadgenConfig::default()
    })
    .expect("loadgen run completes");
    assert_eq!(report.errors, 0, "loadgen connections survived");

    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    // A final connection wakes the accept loop so it notices the flag.
    drop(std::net::TcpStream::connect(&addr));
    handle.join().expect("loadgen server exits cleanly");
    report
}

/// Builds the superinstruction microbench: a loop whose body is one
/// fetch span of `load_slot`+ALU and ALU+`store_slot` pairs ending in
/// a compare-and-branch, padded so the whole span sits on a single
/// 64-byte I-line (it batches every activation and every mid pair runs
/// through a fused step handler, with the compare folded into the
/// branch terminal).
fn fused_pairs_program(iters: i64) -> sz_ir::Program {
    let mut p = sz_ir::ProgramBuilder::new("fusedpairs");
    let mut f = p.function("main", 0);
    let s = f.slot();
    let n = f.alu(sz_ir::AluOp::Add, 0, iters);
    let acc = f.alu(sz_ir::AluOp::Add, 0, 0);
    f.store_slot(s, acc);
    let header = f.new_block();
    let exit = f.new_block();
    // Entry is 14 bytes of setup; 45 bytes of nop plus the 5-byte
    // jump put the loop header at byte 64 of the function, and the
    // body span below is 56 bytes, so span and line coincide.
    f.nop(45);
    f.jump(header);
    f.switch_to(header);
    for _ in 0..3 {
        let r = f.load_slot(s); // 4B: fuses with the next alu
        f.alu_into(acc, sz_ir::AluOp::Add, acc, r); // 3B
        let t = f.alu(sz_ir::AluOp::Xor, acc, r); // 3B: fuses with the store
        f.store_slot(s, t); // 4B
    }
    f.alu_into(n, sz_ir::AluOp::Sub, n, 1); // 5B
    let c = f.alu(sz_ir::AluOp::CmpLt, 0, n); // 3B: folds into the branch
    f.branch(c, header, exit); // 6B terminal
    f.switch_to(exit);
    f.ret(Some(acc.into()));
    let main = p.add_function(f);
    p.finish(main).expect("fused-pairs program is valid")
}

/// Builds the fetch-dominated microbench: `iters` trips around one
/// long basic block of register-only ALU ops. No loads, stores,
/// mallocs, or calls — the only memory-system traffic is the front
/// end's, and the only span breaks are the loop's decrement/branch.
fn straight_line_program(block_len: usize, iters: i64) -> sz_ir::Program {
    let mut p = sz_ir::ProgramBuilder::new("straightline");
    let mut f = p.function("main", 0);
    let n = f.alu(sz_ir::AluOp::Add, 0, iters);
    let acc = f.alu(sz_ir::AluOp::Add, 0, 0);
    let header = f.new_block();
    let exit = f.new_block();
    f.jump(header);
    f.switch_to(header);
    for i in 0..block_len {
        f.alu_into(acc, sz_ir::AluOp::Add, acc, (i as i64) & 7);
    }
    f.alu_into(n, sz_ir::AluOp::Sub, n, 1);
    f.branch(n, header, exit);
    f.switch_to(exit);
    f.ret(Some(acc.into()));
    let main = p.add_function(f);
    p.finish(main).expect("straight-line program is valid")
}

/// Writes the machine-readable simulator-speed summary. The schema is
/// documented in EXPERIMENTS.md ("Simulator speed: BENCH_sim.json");
/// bump `schema_version` on any shape change.
#[allow(clippy::too_many_arguments)]
fn write_bench_sim(
    l1_hit: &Measurement,
    streaming: &Measurement,
    branch: &Measurement,
    shuffle: &Measurement,
    (vm_run, instructions, reference_ns): (&Measurement, f64, f64),
    (straight_run, straight_instrs): (&Measurement, f64),
    (fused_run, fused_instrs): (&Measurement, f64),
    (fig6_seconds, fig6_walls, fig6_benchmarks): (f64, &[f64; 3], usize),
    loadgen: &LoadgenReport,
    opts: &ExperimentOptions,
) {
    let access = |m: &Measurement| {
        Json::obj([
            ("ns_per_op", m.mean_ns.into()),
            ("median_ns", m.median_ns.into()),
            ("min_ns", m.min_ns.into()),
            ("ops_per_sec", (1e9 / m.mean_ns).into()),
        ])
    };
    // Raw per-sample timings scaled to ns per simulated instruction:
    // what the regression gate bootstraps over.
    let per_instr_samples = |m: &Measurement, instrs: f64| {
        Json::Arr(m.samples_ns.iter().map(|&s| (s / instrs).into()).collect())
    };
    let dispatch_ns = vm_run.median_ns / instructions;
    let fetch_span_ns = straight_run.median_ns / straight_instrs;
    let fused_ns = fused_run.median_ns / fused_instrs;
    let doc = Json::obj([
        ("schema_version", 6u64.into()),
        ("machine", "core_i3_550".into()),
        ("l1_hit_load", access(l1_hit)),
        ("streaming_loads", access(streaming)),
        ("branch_predict", access(branch)),
        // Interpreter dispatch cost per simulated instruction: the
        // decoded hot path vs the in-tree pre-decode reference
        // interpreter (bzip2 Tiny under the simple layout).
        (
            "vm_dispatch",
            Json::obj([
                ("ns_per_instr", dispatch_ns.into()),
                ("instrs_per_sec", (1e9 / dispatch_ns).into()),
                ("reference_ns_per_instr", reference_ns.into()),
                ("speedup_vs_reference", (reference_ns / dispatch_ns).into()),
                (
                    "samples_ns_per_instr",
                    per_instr_samples(vm_run, instructions),
                ),
            ]),
        ),
        // Front-end cost in isolation: ns per simulated instruction on
        // a fetch-dominated straight-line workload (long basic blocks,
        // register-only ALU, zero data traffic), so span batching and
        // the fetch memoization are tracked separately from dispatch.
        (
            "fetch_span",
            Json::obj([
                ("ns_per_instr", fetch_span_ns.into()),
                ("instrs_per_sec", (1e9 / fetch_span_ns).into()),
                (
                    "samples_ns_per_instr",
                    per_instr_samples(straight_run, straight_instrs),
                ),
            ]),
        ),
        // Superinstruction dispatch: ns per simulated instruction on
        // a single-line loop of fused load_slot+alu / alu+store_slot
        // pairs with a folded compare-and-branch terminal.
        (
            "fused_dispatch",
            Json::obj([
                ("ns_per_instr", fused_ns.into()),
                ("instrs_per_sec", (1e9 / fused_ns).into()),
                (
                    "samples_ns_per_instr",
                    per_instr_samples(fused_run, fused_instrs),
                ),
            ]),
        ),
        // One shuffle-layer malloc+free round-trip per op: mallocs/sec
        // equals ops/sec.
        (
            "shuffle_malloc_free",
            Json::obj([
                ("ns_per_pair", shuffle.mean_ns.into()),
                ("mallocs_per_sec", (1e9 / shuffle.mean_ns).into()),
            ]),
        ),
        (
            "fig6_quick",
            Json::obj([
                ("wall_seconds", fig6_seconds.into()),
                (
                    "wall_samples",
                    Json::Arr(fig6_walls.iter().map(|&w| w.into()).collect()),
                ),
                ("benchmarks", fig6_benchmarks.into()),
                ("runs_per_config", opts.runs.into()),
                ("threads", opts.threads.into()),
            ]),
        ),
        // Serving-path p99 latency under concurrent cache-hit load:
        // the serving front end's regression gate (`samples_p99_us`
        // carries one p99 per wave).
        ("loadgen", loadgen.to_json()),
    ]);
    let path = std::env::var("SZ_BENCH_SIM_PATH").unwrap_or_else(|_| "BENCH_sim.json".to_string());
    match std::fs::write(&path, format!("{doc}\n")) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("BENCH_sim.json not written ({path}): {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::fused_pairs_program;
    use sz_vm::decode::{decode_function, SpanBody, SpanTerm, Step};

    /// The fused-dispatch metric is only meaningful if the loop body
    /// really compiles to superinstructions on a single I-line; pin
    /// that shape so layout drift can't silently turn the benchmark
    /// into a per-op measurement.
    #[test]
    fn fused_pairs_program_compiles_to_fused_steps_on_one_line() {
        let p = fused_pairs_program(16);
        let d = decode_function(&p.functions[p.entry.0 as usize]);
        let body = d
            .spans
            .iter()
            .zip(&d.bodies)
            .find(|(span, _)| span.first_pc == 64)
            .expect("the loop body span starts at byte 64 (line-aligned)");
        let (span, SpanBody::Steps { first, count, term }) = body else {
            panic!("loop body did not compile to a Steps body: {body:?}");
        };
        assert!(
            span.end_pc - span.first_pc <= 64,
            "loop body span fits one 64-byte I-line"
        );
        let steps = &d.steps[*first as usize..(*first + *count) as usize];
        let loads = steps
            .iter()
            .filter(|s| matches!(s, Step::LoadSlotAlu { .. }))
            .count();
        let stores = steps
            .iter()
            .filter(|s| matches!(s, Step::AluStoreSlot { .. }))
            .count();
        assert_eq!((loads, stores), (3, 3), "all six pairs fused: {steps:?}");
        assert!(
            matches!(term, SpanTerm::CmpBranch { .. }),
            "the compare folded into the branch terminal: {term:?}"
        );
    }
}
