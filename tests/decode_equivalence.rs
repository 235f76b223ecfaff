//! The pre-decoded dispatch rewrite must be *invisible*: for every
//! engine configuration the seven experiments use (table1, fig5, fig6,
//! fig7, anova, nist, bias), the decoded interpreter and the reference
//! interpreter must produce bit-identical `RunReport`s — total
//! counters AND per-period snapshots. Plus decoder golden/property
//! tests pinning the decoded metadata to the `CodeLayout` ground
//! truth.

use stabilizer::{prepare_program, Config, Stabilizer};
use sz_ir::{AluOp, BlockId, Program, ProgramBuilder};
use sz_link::{LinkOrder, LinkedLayout};
use sz_machine::{MachineConfig, SimTime};
use sz_opt::{optimize, OptLevel};
use sz_vm::decode::Step;
use sz_vm::{reference::run_reference, LayoutEngine, OpKind, RunLimits, Vm};
use sz_workloads::Scale;

/// Runs one program under one engine through both interpreters and
/// asserts the reports are equal in every field.
fn assert_bit_identical(
    program: &Program,
    mut a: Box<dyn LayoutEngine>,
    mut b: Box<dyn LayoutEngine>,
    machine: MachineConfig,
    label: &str,
) {
    let decoded = Vm::new(program).run(a.as_mut(), machine, RunLimits::default());
    let reference = run_reference(program, b.as_mut(), machine, RunLimits::default());
    let decoded = decoded.unwrap_or_else(|e| panic!("{label}: decoded run failed: {e}"));
    let reference = reference.unwrap_or_else(|e| panic!("{label}: reference run failed: {e}"));
    assert_eq!(
        decoded.counters, reference.counters,
        "{label}: PerfCounters diverged"
    );
    assert_eq!(
        decoded.periods, reference.periods,
        "{label}: per-period snapshots diverged"
    );
    assert_eq!(decoded, reference, "{label}: RunReport diverged");
}

/// The experiments' engine configurations, one probe per experiment.
///
/// - **bias** pins the conventional world: fixed link order plus an
///   environment-size shift.
/// - **fig5** samples link orders.
/// - **table1** compares one-time vs re-randomized STABILIZER.
/// - **fig6** sweeps the three randomization subsets.
/// - **fig7** runs optimizer output under full randomization.
/// - **anova/nist** use the same full-randomization engine on further
///   benchmarks; the probes vary the workload.
#[test]
fn all_seven_experiment_configs_are_bit_identical() {
    let machine = MachineConfig::core_i3_550();
    // Short interval so the probe actually crosses re-randomization
    // period boundaries and the periods vector has real content.
    let fast = SimTime::from_nanos(6_000.0);

    let bzip2 = sz_workloads::build("bzip2", Scale::Tiny).unwrap();
    let mcf = sz_workloads::build("mcf", Scale::Tiny).unwrap();
    let sjeng = sz_workloads::build("sjeng", Scale::Tiny).unwrap();

    // bias: default link order with environment bytes.
    let linked = |order: LinkOrder, env: u64| -> Box<dyn LayoutEngine> {
        Box::new(
            LinkedLayout::builder()
                .link_order(order)
                .env_bytes(env)
                .build(),
        )
    };
    assert_bit_identical(
        &bzip2,
        linked(LinkOrder::Default, 128),
        linked(LinkOrder::Default, 128),
        machine,
        "bias: linked default + env",
    );
    // fig5: shuffled link order.
    assert_bit_identical(
        &bzip2,
        linked(LinkOrder::Shuffled { seed: 7 }, 0),
        linked(LinkOrder::Shuffled { seed: 7 }, 0),
        machine,
        "fig5: linked shuffled",
    );

    // STABILIZER configurations share one prepared program.
    let stab = |program: &Program, config: Config, label: &str| {
        let (prepared, info) = prepare_program(program);
        let mk = || -> Box<dyn LayoutEngine> {
            Box::new(Stabilizer::new(
                config.clone().with_seed(42),
                &machine,
                &info,
            ))
        };
        assert_bit_identical(&prepared, mk(), mk(), machine, label);
    };
    // table1: one-time and re-randomized.
    stab(&bzip2, Config::one_time(), "table1: one-time");
    stab(
        &bzip2,
        Config::default().with_interval(fast),
        "table1: re-randomized",
    );
    // fig6: the randomization subsets.
    stab(&mcf, Config::code_only().with_interval(fast), "fig6: code");
    stab(
        &mcf,
        Config::code_stack().with_interval(fast),
        "fig6: code.stack",
    );
    stab(
        &mcf,
        Config::default().with_interval(fast),
        "fig6: code.heap.stack",
    );
    // fig7: optimizer output under full randomization.
    for (lv, name) in [
        (OptLevel::O1, "O1"),
        (OptLevel::O2, "O2"),
        (OptLevel::O3, "O3"),
    ] {
        let p = optimize(&bzip2, lv);
        stab(
            &p,
            Config::default().with_interval(fast),
            &format!("fig7: {name}"),
        );
    }
    // anova / nist: full randomization on further workloads.
    stab(
        &sjeng,
        Config::default().with_interval(fast),
        "anova: sjeng",
    );
    stab(&mcf, Config::one_time(), "nist: mcf one-time");
}

/// Property: decoded per-op metadata equals the `CodeLayout` path for
/// every function of every suite benchmark.
#[test]
fn decoded_metadata_matches_layout_for_the_whole_suite() {
    for spec in sz_workloads::suite() {
        let program = spec.program(Scale::Tiny);
        let vm = Vm::new(&program);
        for (func, decoded) in program.functions.iter().zip(vm.decoded_funcs()) {
            let layout = func.layout();
            assert_eq!(decoded.num_regs, func.num_regs);
            assert_eq!(decoded.frame_bytes, func.frame_bytes());
            assert_eq!(
                decoded.ops.len(),
                func.instr_count() + func.blocks.len(),
                "{}: stream must cover every instr + terminator",
                spec.name
            );
            for (bi, block) in func.blocks.iter().enumerate() {
                let start = decoded.block_starts[bi] as usize;
                for (ii, instr) in block.instrs.iter().enumerate() {
                    let op = &decoded.ops[start + ii];
                    assert_eq!(op.pc, layout.instr_offsets[bi][ii], "{}", spec.name);
                    assert_eq!(u64::from(op.size), instr.encoded_size(), "{}", spec.name);
                    assert_eq!(u64::from(op.cycles), instr.base_cycles(), "{}", spec.name);
                }
                let term = &decoded.ops[start + block.instrs.len()];
                assert_eq!(
                    term.pc,
                    layout.terminator_offset(BlockId(bi as u32)),
                    "{}",
                    spec.name
                );
                assert_eq!(
                    u64::from(term.size),
                    block.term.encoded_size(),
                    "{}",
                    spec.name
                );
                assert_eq!(
                    u64::from(term.cycles),
                    block.term.base_cycles(),
                    "{}",
                    spec.name
                );
            }
        }
    }
}

/// Property: for every function of every suite benchmark, the decoded
/// fetch spans partition the stream, break exactly at control
/// transfers and engine-visible ops, carry correct extents and
/// latency sums, and start at every dispatchable index — the
/// structural facts the batched interpreter's exactness argument
/// rests on.
#[test]
fn fetch_spans_partition_every_suite_function() {
    let breaking = |k: &OpKind| {
        matches!(
            k,
            OpKind::Malloc { .. }
                | OpKind::Free { .. }
                | OpKind::Call { .. }
                | OpKind::Jump { .. }
                | OpKind::Branch { .. }
                | OpKind::Ret { .. }
        )
    };
    for spec in sz_workloads::suite() {
        let program = spec.program(Scale::Tiny);
        let vm = Vm::new(&program);
        for d in vm.decoded_funcs() {
            let mut next = 0u32;
            for span in &d.spans {
                assert_eq!(span.start, next, "{}: contiguous spans", spec.name);
                assert!(span.count >= 1, "{}", spec.name);
                next += span.count;
                let ops = &d.ops[span.start as usize..next as usize];
                let (mid, last) = ops.split_at(ops.len() - 1);
                assert!(breaking(&last[0].kind), "{}: span ends breaking", spec.name);
                assert!(
                    mid.iter().all(|op| !breaking(&op.kind)),
                    "{}: breaking op mid-span",
                    spec.name
                );
                assert_eq!(span.first_pc, ops[0].pc, "{}", spec.name);
                assert_eq!(
                    span.end_pc,
                    last[0].pc + u64::from(last[0].size),
                    "{}",
                    spec.name
                );
                assert_eq!(
                    span.base_cycles,
                    ops.iter().map(|op| u64::from(op.cycles)).sum::<u64>(),
                    "{}",
                    spec.name
                );
            }
            assert_eq!(next as usize, d.ops.len(), "{}: full coverage", spec.name);
            // Every dispatchable index is a span start: block starts
            // (jump/branch targets) and call continuations.
            let starts_span = |i: u32| d.spans.binary_search_by_key(&i, |s| s.start).is_ok();
            for &bs in &d.block_starts {
                assert!(starts_span(bs), "{}: block start mid-span", spec.name);
            }
            for (i, op) in d.ops.iter().enumerate() {
                if matches!(op.kind, OpKind::Call { .. }) {
                    assert!(
                        starts_span(i as u32 + 1),
                        "{}: call continuation mid-span",
                        spec.name
                    );
                }
            }
        }
    }
}

/// Golden snapshot: the decoded stream of one small program, op by op.
/// Any change to instruction sizes, latencies, or decode lowering
/// shows up here first.
#[test]
fn golden_decoded_stream() {
    let mut p = ProgramBuilder::new("golden");
    let mut f = p.function("main", 0);
    let s = f.slot();
    f.store_slot(s, 5); // pc 0, size 4, 1 cycle
    let header = f.new_block();
    let body = f.new_block();
    let exit = f.new_block();
    f.jump(header); // pc 4, size 5, 1 cycle
    f.switch_to(header);
    let i = f.load_slot(s); // pc 9, size 4, 1 cycle
    let c = f.alu(AluOp::CmpLt, i, 10); // pc 13, size 5 (imm), 1 cycle
    f.branch(c, body, exit); // pc 18, size 6, 1 cycle
    f.switch_to(body);
    let ni = f.alu(AluOp::Add, i, 1); // pc 24, size 5, 1 cycle
    f.store_slot(s, ni); // pc 29, size 4, 1 cycle
    f.jump(header); // pc 33, size 5, 1 cycle
    f.switch_to(exit);
    f.ret(Some(i.into())); // pc 38, size 1, 1 cycle
    let main = p.add_function(f);
    let prog = p.finish(main).unwrap();

    let vm = Vm::new(&prog);
    let d = &vm.decoded_funcs()[0];
    assert_eq!(d.block_starts, vec![0, 2, 5, 8]);
    assert_eq!(d.num_regs, 3);
    assert_eq!(d.frame_bytes, 8);

    let expected: Vec<(u64, u32, u32)> = vec![
        (0, 4, 1),  // store_slot
        (4, 5, 1),  // jump -> header
        (9, 4, 1),  // load_slot
        (13, 5, 1), // cmp imm
        (18, 6, 1), // branch
        (24, 5, 1), // add imm
        (29, 4, 1), // store_slot
        (33, 5, 1), // jump -> header
        (38, 1, 1), // ret
    ];
    let got: Vec<(u64, u32, u32)> = d.ops.iter().map(|op| (op.pc, op.size, op.cycles)).collect();
    assert_eq!(got, expected);

    // Control flow is pre-resolved to flat indices.
    assert!(matches!(d.ops[1].kind, OpKind::Jump { target: 2 }));
    assert!(matches!(
        d.ops[4].kind,
        OpKind::Branch {
            taken: 5,
            not_taken: 8,
            ..
        }
    ));
    assert!(matches!(d.ops[7].kind, OpKind::Jump { target: 2 }));
    assert!(matches!(d.ops[8].kind, OpKind::Ret { .. }));
    // Slot accesses are pre-scaled to byte offsets.
    assert!(matches!(
        d.ops[0].kind,
        OpKind::StoreSlot { byte_off: 0, .. }
    ));
}

/// A frame's window — its registers followed by its function's
/// interned constants — may pass 65,536 entries. Such a function still
/// compiles every span, with operand indices above `u16::MAX`, and
/// runs bit-identically to the reference interpreter.
#[test]
fn a_window_wider_than_u16_compiles_and_matches_the_reference() {
    let mut p = ProgramBuilder::new("wide");
    let g = p.global("g", 8 * 64);
    let mut f = p.function("main", 0);
    let s = f.slot();
    // Chained adds of distinct immediates: one register and one
    // constant each. A slot store and a global store every 1,000 adds
    // make the span impure, so it runs as steps.
    let mut v = f.alu(AluOp::Add, 0, 1);
    for k in 1..33_000i64 {
        v = f.alu(AluOp::Add, v, 1_000_000 + k);
        if k % 1_000 == 0 {
            f.store_slot(s, v);
            f.store_global(g, 8 * (k / 1_000), v);
        }
    }
    f.ret(Some(v.into()));
    let main = p.add_function(f);
    let program = p.finish(main).unwrap();

    let vm = Vm::new(&program);
    let d = &vm.decoded_funcs()[main.0 as usize];
    d.validate_bodies();
    let window = usize::from(d.num_regs) + d.consts.len();
    assert!(window > 1 << 16, "window is {window} entries");
    let widest = d
        .steps
        .iter()
        .filter_map(|step| match step {
            Step::Effect(e) | Step::AluStoreSlot { eff: e, .. } => Some(e.a.max(e.b)),
            _ => None,
        })
        .max();
    assert!(
        widest > Some(u32::from(u16::MAX)),
        "widest operand {widest:?}"
    );

    let sum = (1..33_000u64).map(|k| 1_000_000 + k).sum::<u64>() + 1;
    let machine = MachineConfig::tiny();
    let mut a = sz_vm::SimpleLayout::new();
    let decoded = vm.run(&mut a, machine, RunLimits::default()).unwrap();
    assert_eq!(decoded.return_value, Some(sum));
    assert_bit_identical(
        &program,
        Box::new(sz_vm::SimpleLayout::new()),
        Box::new(sz_vm::SimpleLayout::new()),
        machine,
        "wide window",
    );
}

/// Caches of one set each, so the order in which I- and D-side misses
/// reach the shared L2/L3 decides which lines survive.
fn one_set_machine() -> MachineConfig {
    let one_set = |ways: u32| sz_machine::CacheConfig {
        size_bytes: 64 * u64::from(ways),
        ways,
        line_bytes: 64,
    };
    MachineConfig {
        l1i: one_set(1),
        l1d: one_set(1),
        l2: one_set(2),
        l3: one_set(2),
        ..MachineConfig::tiny()
    }
}

/// A loop whose body is one impure span of fused pairs, shifted by
/// `pad` bytes against the I-lines, with loads alternating between two
/// D-lines so that they miss L1D.
fn fused_pairs_at(pad: u8) -> Program {
    let mut p = ProgramBuilder::new("pairs");
    let mut f = p.function("main", 0);
    let x = f.slots(9);
    let y = x + 8;
    let n = f.alu(AluOp::Add, 0, 8);
    f.store_slot(x, 1);
    f.store_slot(y, 2);
    let header = f.new_block();
    let exit = f.new_block();
    f.jump(header);
    f.switch_to(header);
    f.nop(pad);
    for _ in 0..4 {
        let a = f.load_slot(x);
        let b = f.alu(AluOp::Add, a, 1);
        let c = f.load_slot(y);
        let d = f.alu(AluOp::Xor, c, b);
        let e = f.alu(AluOp::Add, d, 3);
        f.store_slot(x, e);
    }
    f.alu_into(n, AluOp::Sub, n, 1);
    f.branch(n, header, exit);
    f.switch_to(exit);
    f.ret(None);
    let main = p.add_function(f);
    p.finish(main).unwrap()
}

/// Under one-set caches, moving a straddling span's fetches across its
/// data accesses shows in the counters, so every alignment of fused
/// pairs against the I-lines must match the reference.
#[test]
fn straddling_fetch_order_matches_the_reference_under_one_set_caches() {
    for pad in 1..=64 {
        assert_bit_identical(
            &fused_pairs_at(pad),
            Box::new(sz_vm::SimpleLayout::new()),
            Box::new(sz_vm::SimpleLayout::new()),
            one_set_machine(),
            &format!("pad {pad}"),
        );
    }
}
