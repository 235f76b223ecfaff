//! Pre-decoded programs: flat, cache-friendly code streams.
//!
//! [`Vm::new`](crate::Vm::new) lowers every [`sz_ir::Function`] into a
//! [`DecodedFunc`]: one contiguous `Vec<DecodedOp>` holding the
//! function's instructions *and* terminators in layout order, with
//!
//! - the byte offset (`pc`), encoded size, and base latency of every
//!   op precomputed (folding `CodeLayout::instr_offsets` and the
//!   `encoded_size()`/`base_cycles()` virtual calls out of the
//!   interpreter loop),
//! - frame metadata (`num_regs`, `frame_bytes`) copied out so frame
//!   push/pop never touches the original `Program`, and
//! - straight-line runs grouped into [`FetchSpan`]s with their byte
//!   extent and summed base latency precomputed, each compiled to a
//!   [`SpanBody`] whose terminal names its successor spans directly.
//!
//! Decoding changes *nothing* observable: executing the compiled spans
//! drives the exact same `fetch`/`retire`/`load`/`store`/`branch`
//! sequence as the pre-decode interpreter (kept in [`crate::reference`]
//! as a differential oracle), so `PerfCounters` and `RunReport`s are
//! bit-identical. `tests/` pins this with golden and property tests.

use std::collections::HashMap;

use sz_ir::{
    AluOp, CodeElem, FuncId, Function, GlobalId, Instr, Operand, Program, Reg, Terminator,
};

/// One pre-decoded operation: per-op metadata plus the operation
/// payload. Terminators are ordinary ops living inline at the end of
/// their block's range.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedOp {
    /// Byte offset of this op within the function's code — the fold of
    /// `CodeLayout::instr_offsets[block][i]` (or `terminator_offset`)
    /// into the stream. The interpreter adds the function's current
    /// base address to form the fetch address.
    pub pc: u64,
    /// Encoded size in bytes (`Instr::encoded_size`).
    pub size: u32,
    /// Base latency in cycles (`Instr::base_cycles`; terminators retire
    /// `Terminator::base_cycles`).
    pub cycles: u32,
    /// The operation.
    pub kind: OpKind,
}

/// The decoded operation payload.
///
/// Mirrors [`sz_ir::Instr`] / [`sz_ir::Terminator`] with decode-time
/// work already done: stack-slot indices are pre-scaled to byte
/// offsets, pointer displacements are pre-cast to wrapping `u64`, and
/// control-flow targets are flat stream indices.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// `dst = a <op> b`.
    Alu {
        /// Destination register.
        dst: Reg,
        /// Operation.
        op: AluOp,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// Materialize an f64 bit pattern.
    FpConst {
        /// Destination register.
        dst: Reg,
        /// IEEE-754 bit pattern.
        bits: u64,
    },
    /// Integer to floating point.
    IntToFp {
        /// Destination register.
        dst: Reg,
        /// Integer source.
        src: Operand,
    },
    /// Floating point to integer.
    FpToInt {
        /// Destination register.
        dst: Reg,
        /// Floating source.
        src: Operand,
    },
    /// `dst = frame[byte_off]` (slot index pre-scaled by 8).
    LoadSlot {
        /// Destination register.
        dst: Reg,
        /// Byte offset within the frame.
        byte_off: u64,
    },
    /// `frame[byte_off] = src`.
    StoreSlot {
        /// Value to store.
        src: Operand,
        /// Byte offset within the frame.
        byte_off: u64,
    },
    /// `dst = global[offset]`.
    LoadGlobal {
        /// Destination register.
        dst: Reg,
        /// The global.
        global: GlobalId,
        /// Byte offset within the global.
        offset: Operand,
    },
    /// `global[offset] = src`.
    StoreGlobal {
        /// Value to store.
        src: Operand,
        /// The global.
        global: GlobalId,
        /// Byte offset within the global.
        offset: Operand,
    },
    /// `dst = *(base + offset)` (displacement pre-cast for wrapping add).
    LoadPtr {
        /// Destination register.
        dst: Reg,
        /// Register holding the base address.
        base: Reg,
        /// Two's-complement displacement.
        offset: u64,
    },
    /// `*(base + offset) = src`.
    StorePtr {
        /// Value to store.
        src: Operand,
        /// Register holding the base address.
        base: Reg,
        /// Two's-complement displacement.
        offset: u64,
    },
    /// Heap allocation.
    Malloc {
        /// Destination register for the address.
        dst: Reg,
        /// Allocation size in bytes.
        size: Operand,
    },
    /// Heap release.
    Free {
        /// Register holding the address to free.
        ptr: Reg,
    },
    /// Call another function.
    Call {
        /// Callee.
        func: FuncId,
        /// Argument values.
        args: Box<[Operand]>,
        /// Register receiving the return value, if any.
        ret: Option<Reg>,
    },
    /// Padding.
    Nop,
    /// Unconditional jump to a flat stream index.
    Jump {
        /// Flat index of the target block's first op.
        target: u32,
    },
    /// Conditional branch to flat stream indices.
    Branch {
        /// Condition value.
        cond: Operand,
        /// Flat index when the condition is non-zero.
        taken: u32,
        /// Flat index when the condition is zero.
        not_taken: u32,
    },
    /// Return from the function.
    Ret {
        /// Optional return value.
        value: Option<Operand>,
    },
}

/// One decoded **fetch span**: a maximal straight-line run of
/// consecutive ops ending at (and including) the first op that can
/// transfer control or call back into the layout engine
/// (`Jump`/`Branch`/`Ret`/`Call`/`Malloc`/`Free`). No target can land
/// mid-span (block starts and call continuations are span starts by
/// construction) and no engine callback or error can fire before the
/// final op.
///
/// The interpreter retires each span with one `retire_batch`. The
/// span stores its *byte extent relative to the function* rather than
/// absolute cache lines, because the code base is chosen by the
/// layout engine at run time and moves under STABILIZER
/// re-randomization; the interpreter adds the live base per activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchSpan {
    /// Flat index of the span's first op.
    pub start: u32,
    /// Number of ops, `>= 1`; the last one is the span's terminal op.
    pub count: u32,
    /// Byte offset of the first op within the function's code.
    pub first_pc: u64,
    /// One past the last byte of the final op (`pc + size`), so the
    /// span's code occupies `[first_pc, end_pc)`.
    pub end_pc: u64,
    /// Sum of the ops' base latencies, precomputed for `retire_batch`.
    pub base_cycles: u64,
    /// No op *before* the terminal one touches data memory, so the
    /// reference's fetches for the span form one uninterrupted
    /// ascending line walk and the interpreter issues them as one
    /// `fetch_lines`, however many lines the span straddles. An impure
    /// span that straddles lines interleaves its fetches with its data
    /// accesses instead, as the reference does.
    pub pure: bool,
}

/// A compiled register-effect operation: one flat tag covering every
/// pure op, selected at decode time. [`EffectOp::eval`] is a single
/// jump table whose arms are one ALU instruction each (the ALU arms
/// call [`AluOp::eval`] with a constant op, which inlines to exactly
/// that operation — the semantics stay single-sourced in `sz_ir`).
/// The tag replaces the interpreter's per-op `match` on [`OpKind`]
/// and the nested `match` on [`Operand`], and the one-byte payload
/// keeps [`Effect`] half the size of a function-pointer table.
#[derive(Debug, Clone, Copy)]
#[repr(u8)]
pub enum EffectOp {
    /// `a + b` (wrapping).
    Add,
    /// `a - b` (wrapping).
    Sub,
    /// `a * b` (wrapping).
    Mul,
    /// Guarded `a / b` (0 on zero divisor).
    Div,
    /// Guarded `a % b` (`a` on zero divisor).
    Rem,
    /// `a & b`.
    And,
    /// `a | b`.
    Or,
    /// `a ^ b`.
    Xor,
    /// `a << (b & 63)`.
    Shl,
    /// `a >> (b & 63)`.
    Shr,
    /// `(a < b) as u64`.
    CmpLt,
    /// `(a == b) as u64`.
    CmpEq,
    /// `(a > b) as u64`.
    CmpGt,
    /// f64 addition on the bit patterns.
    FAdd,
    /// f64 subtraction on the bit patterns.
    FSub,
    /// f64 multiplication on the bit patterns.
    FMul,
    /// f64 division on the bit patterns.
    FDiv,
    /// `a` (compiled `fp_const` reads its interned bits).
    Move,
    /// `(a as i64 as f64).to_bits()`.
    IntToFp,
    /// `f64::from_bits(a) as i64 as u64`.
    FpToInt,
}

impl EffectOp {
    /// The tag for an ALU operation.
    fn from_alu(op: AluOp) -> Self {
        match op {
            AluOp::Add => EffectOp::Add,
            AluOp::Sub => EffectOp::Sub,
            AluOp::Mul => EffectOp::Mul,
            AluOp::Div => EffectOp::Div,
            AluOp::Rem => EffectOp::Rem,
            AluOp::And => EffectOp::And,
            AluOp::Or => EffectOp::Or,
            AluOp::Xor => EffectOp::Xor,
            AluOp::Shl => EffectOp::Shl,
            AluOp::Shr => EffectOp::Shr,
            AluOp::CmpLt => EffectOp::CmpLt,
            AluOp::CmpEq => EffectOp::CmpEq,
            AluOp::CmpGt => EffectOp::CmpGt,
            AluOp::FAdd => EffectOp::FAdd,
            AluOp::FSub => EffectOp::FSub,
            AluOp::FMul => EffectOp::FMul,
            AluOp::FDiv => EffectOp::FDiv,
        }
    }

    /// Evaluates the effect on two resolved operand values.
    #[inline(always)]
    pub fn eval(self, a: u64, b: u64) -> u64 {
        match self {
            EffectOp::Add => AluOp::Add.eval(a, b),
            EffectOp::Sub => AluOp::Sub.eval(a, b),
            EffectOp::Mul => AluOp::Mul.eval(a, b),
            EffectOp::Div => AluOp::Div.eval(a, b),
            EffectOp::Rem => AluOp::Rem.eval(a, b),
            EffectOp::And => AluOp::And.eval(a, b),
            EffectOp::Or => AluOp::Or.eval(a, b),
            EffectOp::Xor => AluOp::Xor.eval(a, b),
            EffectOp::Shl => AluOp::Shl.eval(a, b),
            EffectOp::Shr => AluOp::Shr.eval(a, b),
            EffectOp::CmpLt => AluOp::CmpLt.eval(a, b),
            EffectOp::CmpEq => AluOp::CmpEq.eval(a, b),
            EffectOp::CmpGt => AluOp::CmpGt.eval(a, b),
            EffectOp::FAdd => AluOp::FAdd.eval(a, b),
            EffectOp::FSub => AluOp::FSub.eval(a, b),
            EffectOp::FMul => AluOp::FMul.eval(a, b),
            EffectOp::FDiv => AluOp::FDiv.eval(a, b),
            EffectOp::Move => a,
            EffectOp::IntToFp => (a as i64 as f64).to_bits(),
            EffectOp::FpToInt => f64::from_bits(a) as i64 as u64,
        }
    }
}

/// One precomputed register effect: `window[dst] = op(window[a],
/// window[b])` against a frame's *execution window* — its `num_regs`
/// registers followed by the function's interned constants
/// ([`DecodedFunc::consts`]), so register and immediate operands are
/// addressed uniformly with no per-operand branch (the Lua-style
/// "K register" trick).
#[derive(Debug, Clone, Copy)]
pub struct Effect {
    /// The operation, pre-selected at decode time.
    pub op: EffectOp,
    /// Destination window index (always `< num_regs`).
    pub dst: u16,
    /// Left operand window index (register or interned constant).
    pub a: u32,
    /// Right operand window index.
    pub b: u32,
}

/// How a span ends once its body has run.
///
/// Control-flow targets are *span* indices, not op indices: every
/// branch target is a block start and every block start begins a
/// span, so the executor chains span to span with no index mapping.
#[derive(Debug, Clone, Copy)]
pub enum SpanTerm {
    /// A call, return, malloc or free: the general handler runs the
    /// span's last op, which may call the engine or change the stack.
    Op,
    /// Fused compare+branch superinstruction: the span's final mid-op
    /// effect wrote exactly the branch condition register, so one
    /// handler computes the effect, stores it, and branches on the
    /// result — no window re-read, no second dispatch.
    CmpBranch {
        /// The folded final effect (its `dst` is still written, so
        /// the architectural register state is unchanged).
        eff: Effect,
        /// Byte offset of the branch op within the function (the
        /// branch-predictor probe needs the branch's own pc).
        pc_rel: u64,
        /// Target span index when the result is non-zero.
        taken: u32,
        /// Target span index when the result is zero.
        not_taken: u32,
    },
    /// Unconditional jump terminal: just a span hop, no operand
    /// read and no predictor probe.
    Jump {
        /// Target span index.
        target: u32,
    },
    /// Unfused conditional branch terminal: one window read (register
    /// or interned immediate), the predictor probe, and the span hop.
    Branch {
        /// Condition window index.
        cond: u32,
        /// Byte offset of the branch op within the function (the
        /// branch-predictor probe needs the branch's own pc).
        pc_rel: u64,
        /// Target span index when the condition is non-zero.
        taken: u32,
        /// Target span index when the condition is zero.
        not_taken: u32,
    },
}

/// One step of an *impure* span body: pure ops compile to
/// [`Effect`]s, every load and store to its own step, and the hottest
/// memory-crossing pairs fuse into superinstructions. Each data step
/// carries the flat stream index of its first op, which pins where a
/// span straddling I-lines issues its pending fetches.
#[derive(Debug, Clone, Copy)]
pub enum Step {
    /// A pure register effect.
    Effect(Effect),
    /// Fused `load_slot` + ALU: load the slot into `dst`, then run
    /// the effect (which may read `dst`).
    LoadSlotAlu {
        /// Flat stream index of the `load_slot` (the ALU is `idx+1`).
        idx: u32,
        /// Destination window index of the load.
        dst: u16,
        /// Byte offset of the slot within the frame.
        byte_off: u64,
        /// The fused ALU effect, executed after the load lands.
        eff: Effect,
    },
    /// Fused ALU + `store_slot`: run the effect, then store window
    /// index `src` (which may be the effect's `dst`).
    AluStoreSlot {
        /// Flat stream index of the ALU (the store is `idx+1`).
        idx: u32,
        /// The fused ALU effect, executed before the store.
        eff: Effect,
        /// Window index of the value to store.
        src: u32,
        /// Byte offset of the slot within the frame.
        byte_off: u64,
    },
    /// An unfused `load_slot` (no ALU followed to pair with).
    LoadSlot {
        /// Flat stream index.
        idx: u32,
        /// Destination window index.
        dst: u16,
        /// Byte offset of the slot within the frame.
        byte_off: u64,
    },
    /// An unfused `store_slot` (no ALU preceded to pair with).
    StoreSlot {
        /// Flat stream index.
        idx: u32,
        /// Window index of the value to store.
        src: u32,
        /// Byte offset of the slot within the frame.
        byte_off: u64,
    },
    /// `load_global` with its offset pre-resolved to a window index.
    /// The global's base is still read from the layout engine per
    /// access (the reference does the same), so a mid-run relocation
    /// policy sees identical queries.
    LoadGlobal {
        /// Flat stream index.
        idx: u32,
        /// Destination window index.
        dst: u16,
        /// Window index of the byte offset.
        offset: u32,
        /// The global.
        global: GlobalId,
    },
    /// `store_global` with both operands pre-resolved.
    StoreGlobal {
        /// Flat stream index.
        idx: u32,
        /// Window index of the value to store.
        src: u32,
        /// Window index of the byte offset.
        offset: u32,
        /// The global.
        global: GlobalId,
    },
    /// `load_ptr` with its base register pre-resolved.
    LoadPtr {
        /// Flat stream index.
        idx: u32,
        /// Destination window index.
        dst: u16,
        /// Window index of the base address register.
        base: u16,
        /// Two's-complement displacement.
        offset: u64,
    },
    /// `store_ptr` with both register operands pre-resolved.
    StorePtr {
        /// Flat stream index.
        idx: u32,
        /// Window index of the value to store.
        src: u32,
        /// Window index of the base address register.
        base: u16,
        /// Two's-complement displacement.
        offset: u64,
    },
}

/// The compiled body of one span, selected at decode time so the
/// executor never re-inspects [`OpKind`]s.
#[derive(Debug, Clone, Copy)]
pub enum SpanBody {
    /// A pure span: mid ops are `effects[first..first + count]`, run
    /// by a tight loop with no per-op dispatch, then `term`.
    Effects {
        /// First index into [`DecodedFunc::effects`].
        first: u32,
        /// Number of effects (Nops compile to nothing — their
        /// latency already sits in the span's `base_cycles`).
        count: u32,
        /// Terminal handling.
        term: SpanTerm,
    },
    /// An impure span: mid ops are `steps[first..first + count]`,
    /// then `term`.
    Steps {
        /// First index into [`DecodedFunc::steps`].
        first: u32,
        /// Number of steps.
        count: u32,
        /// Terminal handling.
        term: SpanTerm,
    },
}

/// A function lowered to a flat decoded stream plus the frame metadata
/// the interpreter needs, so execution never re-touches the
/// [`sz_ir::Function`].
#[derive(Debug, Clone)]
pub struct DecodedFunc {
    /// The flat code stream. Block `b` occupies
    /// `block_starts[b]..block_starts[b+1]` (or the end, for the last
    /// block); the final op of each range is the block's terminator.
    pub ops: Vec<DecodedOp>,
    /// Flat index of each block's first op. Entry execution starts at
    /// index 0 (block 0 is the entry block).
    pub block_starts: Vec<u32>,
    /// The straight-line fetch spans partitioning `ops`, in stream
    /// order. Execution enters a function at span 0.
    pub spans: Vec<FetchSpan>,
    /// Compiled execution body of each span (parallel to `spans`).
    pub bodies: Vec<SpanBody>,
    /// Flat effect pool backing [`SpanBody::Effects`] bodies.
    pub effects: Vec<Effect>,
    /// Flat step pool backing [`SpanBody::Steps`] bodies.
    pub steps: Vec<Step>,
    /// Interned immediates. A frame's execution window is its
    /// `num_regs` registers followed by a copy of these values, so
    /// effects address registers and constants uniformly.
    pub consts: Vec<u64>,
    /// Virtual register count (`Function::num_regs`).
    pub num_regs: u16,
    /// Frame size in bytes (`Function::frame_bytes`).
    pub frame_bytes: u64,
}

/// Whether an op terminates a fetch span: control transfers end the
/// straight-line run, and engine-visible ops (`Call`'s frame push plus
/// the fallible `Malloc`/`Free`) must be span-terminal so callbacks and
/// errors observe exactly the counters the per-op reference produces.
fn ends_span(kind: &OpKind) -> bool {
    matches!(
        kind,
        OpKind::Malloc { .. }
            | OpKind::Free { .. }
            | OpKind::Call { .. }
            | OpKind::Jump { .. }
            | OpKind::Branch { .. }
            | OpKind::Ret { .. }
    )
}

/// Whether an op only writes registers (no data traffic, no engine).
fn is_pure_kind(kind: &OpKind) -> bool {
    matches!(
        kind,
        OpKind::Alu { .. }
            | OpKind::FpConst { .. }
            | OpKind::IntToFp { .. }
            | OpKind::FpToInt { .. }
            | OpKind::Nop
    )
}

/// Groups a decoded stream into fetch spans, and returns with them the
/// span index owning each op. Every block ends in a terminator (which
/// always ends a span), so the spans exactly partition the stream and
/// never cross a block boundary.
fn build_spans(ops: &[DecodedOp]) -> (Vec<FetchSpan>, Vec<u32>) {
    let mut spans = Vec::new();
    let mut span_of = vec![0u32; ops.len()];
    let mut start = 0usize;
    let mut cycles = 0u64;
    let mut pure = true;
    for (i, op) in ops.iter().enumerate() {
        cycles += u64::from(op.cycles);
        span_of[i] = spans.len() as u32;
        if ends_span(&op.kind) {
            spans.push(FetchSpan {
                start: start as u32,
                count: (i - start + 1) as u32,
                first_pc: ops[start].pc,
                end_pc: op.pc + u64::from(op.size),
                base_cycles: cycles,
                pure,
            });
            start = i + 1;
            cycles = 0;
            pure = true;
        } else if !is_pure_kind(&op.kind) {
            // A mid-span load/store interleaves D-side traffic with the
            // span's remaining I-side misses.
            pure = false;
        }
    }
    debug_assert_eq!(start, ops.len(), "every block ends in a terminator");
    (spans, span_of)
}

/// Builds a function's interned-constant pool while resolving operand
/// window indices: a register is its own index, an immediate is
/// `num_regs` plus its slot in the pool.
struct ConstPool {
    num_regs: u32,
    values: Vec<u64>,
    index: HashMap<u64, u32>,
}

impl ConstPool {
    fn new(num_regs: u16) -> Self {
        ConstPool {
            num_regs: u32::from(num_regs),
            values: Vec::new(),
            index: HashMap::new(),
        }
    }

    fn operand(&mut self, op: Operand) -> u32 {
        match op {
            Operand::Reg(r) => u32::from(r.0),
            Operand::Imm(v) => self.intern(v as u64),
        }
    }

    fn intern(&mut self, v: u64) -> u32 {
        let next = self.num_regs + self.values.len() as u32;
        *self.index.entry(v).or_insert_with(|| {
            self.values.push(v);
            next
        })
    }
}

/// Compiles one *pure* op to its effect. Callers never pass Nops (they
/// compile to nothing) or impure kinds.
fn compile_effect(pool: &mut ConstPool, kind: &OpKind) -> Effect {
    let (op, dst, a) = match kind {
        OpKind::Alu { dst, op, a, b } => {
            return Effect {
                op: EffectOp::from_alu(*op),
                dst: dst.0,
                a: pool.operand(*a),
                b: pool.operand(*b),
            }
        }
        OpKind::FpConst { dst, bits } => (EffectOp::Move, dst, pool.intern(*bits)),
        OpKind::IntToFp { dst, src } => (EffectOp::IntToFp, dst, pool.operand(*src)),
        OpKind::FpToInt { dst, src } => (EffectOp::FpToInt, dst, pool.operand(*src)),
        _ => unreachable!("only pure non-Nop ops compile to effects"),
    };
    Effect {
        op,
        dst: dst.0,
        a,
        b: a,
    }
}

/// Compiles one unfused, non-Nop mid op of an impure span.
fn compile_step(pool: &mut ConstPool, idx: u32, kind: &OpKind) -> Step {
    match *kind {
        OpKind::LoadSlot { dst, byte_off } => Step::LoadSlot {
            idx,
            dst: dst.0,
            byte_off,
        },
        OpKind::StoreSlot { src, byte_off } => Step::StoreSlot {
            idx,
            src: pool.operand(src),
            byte_off,
        },
        OpKind::LoadGlobal {
            dst,
            global,
            offset,
        } => Step::LoadGlobal {
            idx,
            dst: dst.0,
            offset: pool.operand(offset),
            global,
        },
        OpKind::StoreGlobal {
            src,
            global,
            offset,
        } => Step::StoreGlobal {
            idx,
            src: pool.operand(src),
            offset: pool.operand(offset),
            global,
        },
        OpKind::LoadPtr { dst, base, offset } => Step::LoadPtr {
            idx,
            dst: dst.0,
            base: base.0,
            offset,
        },
        OpKind::StorePtr { src, base, offset } => Step::StorePtr {
            idx,
            src: pool.operand(src),
            base: base.0,
            offset,
        },
        // Everything else that can sit mid-span is pure.
        ref pure => Step::Effect(compile_effect(pool, pure)),
    }
}

/// Folds a span's final effect into its branch terminal when the
/// effect wrote exactly the condition register. Exact because the
/// branch would read back the value the effect just produced, and the
/// fused handler still writes `dst` before branching. Targets are
/// mapped op index -> span index through `span_of` (branch targets
/// are block starts, and block starts always start a span).
fn fuse_cmp_branch(
    term_op: &DecodedOp,
    last: Option<&Effect>,
    span_of: &[u32],
) -> Option<SpanTerm> {
    let OpKind::Branch {
        cond: Operand::Reg(r),
        taken,
        not_taken,
    } = term_op.kind
    else {
        return None;
    };
    let eff = *last?;
    (eff.dst == r.0).then_some(SpanTerm::CmpBranch {
        eff,
        pc_rel: term_op.pc,
        taken: span_of[taken as usize],
        not_taken: span_of[not_taken as usize],
    })
}

/// Compiles an unfused terminal to its specialized variant where one
/// exists (`Jump`, plain `Branch`); control ops with deeper side
/// effects (`Ret`, `Call`, `Malloc`, `Free`) stay on the general
/// handler.
fn compile_term(pool: &mut ConstPool, term_op: &DecodedOp, span_of: &[u32]) -> SpanTerm {
    match term_op.kind {
        OpKind::Jump { target } => SpanTerm::Jump {
            target: span_of[target as usize],
        },
        OpKind::Branch {
            cond,
            taken,
            not_taken,
        } => SpanTerm::Branch {
            cond: pool.operand(cond),
            pc_rel: term_op.pc,
            taken: span_of[taken as usize],
            not_taken: span_of[not_taken as usize],
        },
        _ => SpanTerm::Op,
    }
}

/// Compiles every span's body into `d`, whose `ops` and `spans` are
/// already built; `span_of` maps each op to its span.
fn compile_bodies(d: &mut DecodedFunc, span_of: &[u32]) {
    let mut pool = ConstPool::new(d.num_regs);
    let (ops, effects, steps) = (&d.ops, &mut d.effects, &mut d.steps);
    for span in &d.spans {
        let start = span.start as usize;
        let term_idx = start + span.count as usize - 1;
        let term_op = &ops[term_idx];
        // The folded compare must be this span's own final effect, not
        // the last one of a previous span.
        let body = if span.pure {
            let first = effects.len() as u32;
            for op in &ops[start..term_idx] {
                if !matches!(op.kind, OpKind::Nop) {
                    effects.push(compile_effect(&mut pool, &op.kind));
                }
            }
            let term = match fuse_cmp_branch(term_op, effects[first as usize..].last(), span_of) {
                Some(t) => {
                    effects.pop();
                    t
                }
                None => compile_term(&mut pool, term_op, span_of),
            };
            SpanBody::Effects {
                first,
                count: effects.len() as u32 - first,
                term,
            }
        } else {
            let first = steps.len() as u32;
            let mut i = start;
            while i < term_idx {
                let kind = &ops[i].kind;
                let next = (i + 1 < term_idx).then(|| &ops[i + 1].kind);
                // The two hottest pure/impure boundary pairs fuse
                // greedily left to right; each fused handler runs its
                // halves in op order, so the data traffic is unchanged.
                let (step, width) = match (kind, next) {
                    (OpKind::LoadSlot { dst, byte_off }, Some(n @ OpKind::Alu { .. })) => {
                        let step = Step::LoadSlotAlu {
                            idx: i as u32,
                            dst: dst.0,
                            byte_off: *byte_off,
                            eff: compile_effect(&mut pool, n),
                        };
                        (step, 2)
                    }
                    (OpKind::Alu { .. }, Some(OpKind::StoreSlot { src, byte_off })) => {
                        let eff = compile_effect(&mut pool, kind);
                        let step = Step::AluStoreSlot {
                            idx: i as u32,
                            eff,
                            src: pool.operand(*src),
                            byte_off: *byte_off,
                        };
                        (step, 2)
                    }
                    (OpKind::Nop, _) => {
                        i += 1;
                        continue;
                    }
                    _ => (compile_step(&mut pool, i as u32, kind), 1),
                };
                steps.push(step);
                i += width;
            }
            let last = match steps[first as usize..].last() {
                Some(Step::Effect(e)) => Some(e),
                _ => None,
            };
            let term = match fuse_cmp_branch(term_op, last, span_of) {
                Some(t) => {
                    steps.pop();
                    t
                }
                None => compile_term(&mut pool, term_op, span_of),
            };
            SpanBody::Steps {
                first,
                count: steps.len() as u32 - first,
                term,
            }
        };
        d.bodies.push(body);
    }
    d.consts = pool.values;
}

/// Lowers one function. The program must already be validated —
/// decode assumes in-range blocks, registers, and slots.
pub fn decode_function(f: &Function) -> DecodedFunc {
    // Blocks are laid out consecutively; each contributes its
    // instructions plus one terminator op.
    let mut block_starts = Vec::with_capacity(f.blocks.len());
    let mut idx = 0u32;
    for block in &f.blocks {
        block_starts.push(idx);
        idx += block.instrs.len() as u32 + 1;
    }

    let mut ops = Vec::with_capacity(idx as usize);
    for (_, pc, elem) in f.code_stream() {
        let kind = match elem {
            CodeElem::Instr(i) => decode_instr(i),
            CodeElem::Term(t) => decode_term(t, &block_starts),
        };
        ops.push(DecodedOp {
            pc,
            size: elem.encoded_size() as u32,
            cycles: elem.base_cycles() as u32,
            kind,
        });
    }
    let (spans, span_of) = build_spans(&ops);
    let mut d = DecodedFunc {
        ops,
        block_starts,
        bodies: Vec::with_capacity(spans.len()),
        spans,
        effects: Vec::new(),
        steps: Vec::new(),
        consts: Vec::new(),
        num_regs: f.num_regs,
        frame_bytes: f.frame_bytes(),
    };
    compile_bodies(&mut d, &span_of);
    #[cfg(debug_assertions)]
    d.validate_bodies();
    d
}

impl DecodedFunc {
    /// Checks every span-body invariant the executor relies on.
    /// Panics on violation; `decode_function` runs this in debug
    /// builds and the decode tests run it on every constructed
    /// function.
    pub fn validate_bodies(&self) {
        assert_eq!(self.bodies.len(), self.spans.len());
        let regs = usize::from(self.num_regs);
        let window = regs + self.consts.len();
        let in_window = |i: u32| assert!((i as usize) < window, "operand in window");
        let is_reg = |r: u16| assert!(usize::from(r) < regs, "operand is a register");
        let check_effect = |e: &Effect| {
            is_reg(e.dst);
            in_window(e.a);
            in_window(e.b);
        };
        let check_term = |span: &FetchSpan, term: &SpanTerm| {
            let term_op = &self.ops[(span.start + span.count - 1) as usize];
            match term {
                SpanTerm::Op => {}
                SpanTerm::CmpBranch {
                    eff,
                    pc_rel,
                    taken,
                    not_taken,
                } => {
                    check_effect(eff);
                    let OpKind::Branch {
                        cond: Operand::Reg(r),
                        taken: t,
                        not_taken: nt,
                    } = term_op.kind
                    else {
                        panic!("CmpBranch terminal must be a register branch");
                    };
                    assert_eq!(eff.dst, r.0, "fused effect writes the condition");
                    assert_eq!(*pc_rel, term_op.pc);
                    assert_eq!(self.spans[*taken as usize].start, t, "taken span");
                    assert_eq!(self.spans[*not_taken as usize].start, nt, "not-taken span");
                }
                SpanTerm::Jump { target } => {
                    let OpKind::Jump { target: t } = term_op.kind else {
                        panic!("Jump terminal must be a jump op");
                    };
                    assert_eq!(self.spans[*target as usize].start, t, "target span");
                }
                SpanTerm::Branch {
                    cond,
                    pc_rel,
                    taken,
                    not_taken,
                } => {
                    in_window(*cond);
                    let OpKind::Branch {
                        cond: c,
                        taken: t,
                        not_taken: nt,
                    } = term_op.kind
                    else {
                        panic!("Branch terminal must be a branch op");
                    };
                    match c {
                        Operand::Reg(r) => assert_eq!(*cond, u32::from(r.0), "condition register"),
                        Operand::Imm(v) => assert_eq!(
                            self.consts[*cond as usize - regs],
                            v as u64,
                            "condition immediate is interned"
                        ),
                    }
                    assert_eq!(*pc_rel, term_op.pc);
                    assert_eq!(self.spans[*taken as usize].start, t, "taken span");
                    assert_eq!(self.spans[*not_taken as usize].start, nt, "not-taken span");
                }
            }
        };
        for (span, body) in self.spans.iter().zip(&self.bodies) {
            let mid_ops = self.ops[span.start as usize..(span.start + span.count - 1) as usize]
                .iter()
                .filter(|op| !matches!(op.kind, OpKind::Nop))
                .count();
            match body {
                SpanBody::Effects { first, count, term } => {
                    assert!(span.pure, "Effects bodies are for pure spans");
                    let effects = &self.effects[*first as usize..(*first + *count) as usize];
                    effects.iter().for_each(check_effect);
                    check_term(span, term);
                    let fused = matches!(term, SpanTerm::CmpBranch { .. }) as usize;
                    assert_eq!(effects.len() + fused, mid_ops, "effects cover the mid ops");
                }
                SpanBody::Steps { first, count, term } => {
                    assert!(!span.pure, "Steps bodies are for impure spans");
                    let steps = &self.steps[*first as usize..(*first + *count) as usize];
                    let mids = span.start..span.start + span.count - 1;
                    let pinned = |idx: &u32, kinds: fn(&OpKind) -> bool| {
                        assert!(mids.contains(idx), "step indexes a mid op of its span");
                        assert!(kinds(&self.ops[*idx as usize].kind), "idx pins its op kind");
                    };
                    let pair = |idx: &u32, kinds: fn(&OpKind) -> bool| {
                        assert!(
                            (span.start..span.start + span.count - 2).contains(idx),
                            "fused pair sits among the mid ops of its span"
                        );
                        assert!(
                            kinds(&self.ops[*idx as usize].kind),
                            "idx pins the first half"
                        );
                    };
                    let mut covered = 0usize;
                    for step in steps {
                        covered += 1;
                        match step {
                            Step::Effect(e) => check_effect(e),
                            Step::LoadSlot { idx, dst, .. } => {
                                is_reg(*dst);
                                pinned(idx, |k| matches!(k, OpKind::LoadSlot { .. }));
                            }
                            Step::StoreSlot { idx, src, .. } => {
                                in_window(*src);
                                pinned(idx, |k| matches!(k, OpKind::StoreSlot { .. }));
                            }
                            Step::LoadGlobal {
                                idx, dst, offset, ..
                            } => {
                                is_reg(*dst);
                                in_window(*offset);
                                pinned(idx, |k| matches!(k, OpKind::LoadGlobal { .. }));
                            }
                            Step::StoreGlobal {
                                idx, src, offset, ..
                            } => {
                                in_window(*src);
                                in_window(*offset);
                                pinned(idx, |k| matches!(k, OpKind::StoreGlobal { .. }));
                            }
                            Step::LoadPtr { idx, dst, base, .. } => {
                                is_reg(*dst);
                                is_reg(*base);
                                pinned(idx, |k| matches!(k, OpKind::LoadPtr { .. }));
                            }
                            Step::StorePtr { idx, src, base, .. } => {
                                in_window(*src);
                                is_reg(*base);
                                pinned(idx, |k| matches!(k, OpKind::StorePtr { .. }));
                            }
                            Step::LoadSlotAlu { idx, dst, eff, .. } => {
                                is_reg(*dst);
                                check_effect(eff);
                                pair(idx, |k| matches!(k, OpKind::LoadSlot { .. }));
                                covered += 1;
                            }
                            Step::AluStoreSlot { idx, eff, src, .. } => {
                                check_effect(eff);
                                in_window(*src);
                                pair(idx, |k| matches!(k, OpKind::Alu { .. }));
                                covered += 1;
                            }
                        }
                    }
                    check_term(span, term);
                    covered += matches!(term, SpanTerm::CmpBranch { .. }) as usize;
                    assert_eq!(covered, mid_ops, "steps cover the mid ops");
                }
            }
        }
    }
}

/// Lowers every function of a validated program, indexed by `FuncId`.
pub fn decode_program(program: &Program) -> Vec<DecodedFunc> {
    program.functions.iter().map(decode_function).collect()
}

fn decode_instr(i: &Instr) -> OpKind {
    match i {
        Instr::Alu { dst, op, a, b } => OpKind::Alu {
            dst: *dst,
            op: *op,
            a: *a,
            b: *b,
        },
        Instr::FpConst { dst, bits } => OpKind::FpConst {
            dst: *dst,
            bits: *bits,
        },
        Instr::IntToFp { dst, src } => OpKind::IntToFp {
            dst: *dst,
            src: *src,
        },
        Instr::FpToInt { dst, src } => OpKind::FpToInt {
            dst: *dst,
            src: *src,
        },
        Instr::LoadSlot { dst, slot } => OpKind::LoadSlot {
            dst: *dst,
            byte_off: u64::from(*slot) * 8,
        },
        Instr::StoreSlot { src, slot } => OpKind::StoreSlot {
            src: *src,
            byte_off: u64::from(*slot) * 8,
        },
        Instr::LoadGlobal {
            dst,
            global,
            offset,
        } => OpKind::LoadGlobal {
            dst: *dst,
            global: *global,
            offset: *offset,
        },
        Instr::StoreGlobal {
            src,
            global,
            offset,
        } => OpKind::StoreGlobal {
            src: *src,
            global: *global,
            offset: *offset,
        },
        Instr::LoadPtr { dst, base, offset } => OpKind::LoadPtr {
            dst: *dst,
            base: *base,
            offset: *offset as u64,
        },
        Instr::StorePtr { src, base, offset } => OpKind::StorePtr {
            src: *src,
            base: *base,
            offset: *offset as u64,
        },
        Instr::Malloc { dst, size } => OpKind::Malloc {
            dst: *dst,
            size: *size,
        },
        Instr::Free { ptr } => OpKind::Free { ptr: *ptr },
        Instr::Call { func, args, ret } => OpKind::Call {
            func: *func,
            args: args.clone().into_boxed_slice(),
            ret: *ret,
        },
        Instr::Nop { .. } => OpKind::Nop,
    }
}

fn decode_term(t: &Terminator, block_starts: &[u32]) -> OpKind {
    match t {
        Terminator::Jump(target) => OpKind::Jump {
            target: block_starts[target.0 as usize],
        },
        Terminator::Branch {
            cond,
            taken,
            not_taken,
        } => OpKind::Branch {
            cond: *cond,
            taken: block_starts[taken.0 as usize],
            not_taken: block_starts[not_taken.0 as usize],
        },
        Terminator::Ret { value } => OpKind::Ret { value: *value },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sz_ir::{AluOp, BlockId, ProgramBuilder};

    fn looped_program() -> Program {
        let mut p = ProgramBuilder::new("t");
        let mut f = p.function("main", 0);
        let s = f.slot();
        f.store_slot(s, 0);
        let header = f.new_block();
        let exit = f.new_block();
        f.jump(header);
        f.switch_to(header);
        let i = f.load_slot(s);
        let c = f.alu(AluOp::CmpLt, i, 3);
        f.branch(c, exit, exit);
        f.switch_to(exit);
        f.ret(Some(i.into()));
        let main = p.add_function(f);
        p.finish(main).unwrap()
    }

    #[test]
    fn stream_covers_every_instr_and_terminator() {
        let p = looped_program();
        let f = &p.functions[0];
        let d = decode_function(f);
        assert_eq!(d.ops.len(), f.instr_count() + f.blocks.len());
        assert_eq!(d.block_starts.len(), f.blocks.len());
        assert_eq!(d.num_regs, f.num_regs);
        assert_eq!(d.frame_bytes, f.frame_bytes());
    }

    #[test]
    fn metadata_matches_the_layout_path() {
        let p = looped_program();
        let f = &p.functions[0];
        let layout = f.layout();
        let d = decode_function(f);
        for (bi, block) in f.blocks.iter().enumerate() {
            let start = d.block_starts[bi] as usize;
            for (ii, instr) in block.instrs.iter().enumerate() {
                let op = &d.ops[start + ii];
                assert_eq!(op.pc, layout.instr_offsets[bi][ii]);
                assert_eq!(u64::from(op.size), instr.encoded_size());
                assert_eq!(u64::from(op.cycles), instr.base_cycles());
            }
            let term = &d.ops[start + block.instrs.len()];
            assert_eq!(term.pc, layout.terminator_offset(BlockId(bi as u32)));
            assert_eq!(u64::from(term.size), block.term.encoded_size());
            assert_eq!(u64::from(term.cycles), block.term.base_cycles());
        }
    }

    /// The span invariants every decoded function must satisfy:
    /// spans partition the stream in order, only the final op of a
    /// span may end one, extents and latency sums match the ops, and
    /// every dispatchable index (block start or call continuation) is
    /// a span start.
    fn assert_span_invariants(d: &DecodedFunc) {
        let mut next = 0u32;
        for span in &d.spans {
            assert_eq!(span.start, next, "spans are contiguous and ordered");
            assert!(span.count >= 1);
            next += span.count;
            let ops = &d.ops[span.start as usize..next as usize];
            let (mid, last) = ops.split_at(ops.len() - 1);
            assert!(ends_span(&last[0].kind), "spans end at a breaking op");
            for op in mid {
                assert!(!ends_span(&op.kind), "no breaking op mid-span");
            }
            assert_eq!(span.first_pc, ops[0].pc);
            assert_eq!(span.end_pc, last[0].pc + u64::from(last[0].size));
            assert_eq!(
                span.base_cycles,
                ops.iter().map(|op| u64::from(op.cycles)).sum::<u64>()
            );
            let data_free = mid.iter().all(|op| is_pure_kind(&op.kind));
            assert_eq!(span.pure, data_free, "pure = no mid-span data traffic");
        }
        assert_eq!(next as usize, d.ops.len(), "spans cover the stream");
        let starts_span = |i: u32| d.spans.binary_search_by_key(&i, |s| s.start).is_ok();
        for &bs in &d.block_starts {
            assert!(starts_span(bs), "every block start begins a span");
        }
        for (i, op) in d.ops.iter().enumerate() {
            if matches!(op.kind, OpKind::Call { .. }) {
                assert!(starts_span(i as u32 + 1), "call continuations begin a span");
            }
        }
    }

    #[test]
    fn spans_partition_the_looped_program() {
        let p = looped_program();
        let d = decode_function(&p.functions[0]);
        assert_span_invariants(&d);
        // Entry block: [store_slot, jump] is one span; header:
        // [load_slot, cmp, branch]; exit: [ret].
        let counts: Vec<u32> = d.spans.iter().map(|s| s.count).collect();
        assert_eq!(counts, vec![2, 3, 1]);
    }

    #[test]
    fn engine_visible_ops_are_span_terminal() {
        let mut p = ProgramBuilder::new("t");
        let callee = p.declare();
        let mut cb = p.function("leaf", 0);
        cb.ret(None);
        p.define(callee, cb);
        let mut f = p.function("main", 0);
        let a = f.alu(AluOp::Add, 1, 2);
        let b = f.malloc(32); // ends span 0
        let c = f.alu(AluOp::Add, a, 4);
        f.call_void(callee, vec![]); // ends span 1
        f.free(b); // ends span 2
        let d2 = f.alu(AluOp::Add, c, 8);
        f.ret(Some(d2.into())); // ends span 3
        let main = p.add_function(f);
        let prog = p.finish(main).unwrap();
        let d = decode_function(&prog.functions[main.0 as usize]);
        assert_span_invariants(&d);
        let counts: Vec<u32> = d.spans.iter().map(|s| s.count).collect();
        assert_eq!(counts, vec![2, 2, 1, 2]);
    }

    #[test]
    fn branch_targets_are_flat_indices() {
        let p = looped_program();
        let d = decode_function(&p.functions[0]);
        let OpKind::Jump { target } = d.ops[d.block_starts[0] as usize + 1].kind else {
            panic!("entry block ends in a jump");
        };
        assert_eq!(target, d.block_starts[1]);
    }
}
