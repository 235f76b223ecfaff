//! The interpreter proper: compiled span dispatch.
//!
//! [`Vm::new`] lowers every function into a [`DecodedFunc`] (see
//! [`crate::decode`]): its ops partitioned into fetch spans, each
//! compiled to a body of register effects and data steps. [`Vm::run`]
//! executes code one way only, in [`Exec::run_span`]: each span is
//! retired in one batch and its body run whole, jumps and branches
//! chain to the next span in the same loop, and the call, return,
//! malloc and free that end the other spans go to [`Exec::exec_op`].
//! Registers for all live frames share one contiguous pool.
//!
//! The observable memory-model behaviour (`PerfCounters`, per-period
//! snapshots, and every engine callback with the counter values it
//! sees) is identical to the op-at-a-time interpreter preserved in
//! [`crate::reference`], so counters and reports are bit-identical;
//! `tests/decode_equivalence.rs` holds that line and DESIGN.md §7a
//! gives the argument.

use sz_ir::{FuncId, Operand, Program, Reg};
use sz_machine::{MachineConfig, MemorySystem};

use crate::decode::{
    decode_program, DecodedFunc, DecodedOp, FetchSpan, OpKind, SpanBody, SpanTerm, Step,
};
use crate::engine::FrameView;
use crate::report::assemble_periods;
use crate::{LayoutEngine, RunLimits, RunReport, ValueMemory, VmError};

/// The guest-facing zero-size-malloc policy, in one place.
///
/// C's `malloc(0)` is legal and appears in real workloads; the VM
/// normalizes every guest allocation request through this function
/// before any [`LayoutEngine`] sees it, so engines (and the allocators
/// beneath them) may demand `size > 0` and still behave identically on
/// zero-size guest requests. Allocators keep their own size-class
/// floors (e.g. the shuffle layer's minimum class) — those round a
/// *positive* request up and are not zero-size policy.
#[inline]
pub(crate) fn guest_malloc_size(requested: u64) -> u64 {
    requested.max(1)
}

/// An interpreter for one program.
///
/// Construction pre-decodes every function into a flat code stream
/// ([`DecodedFunc`]); [`Vm::run`] then executes the program under any
/// [`LayoutEngine`].
#[derive(Debug)]
pub struct Vm<'p> {
    program: &'p Program,
    decoded: Vec<DecodedFunc>,
}

/// One activation record.
///
/// Registers live in the shared [`Exec::regs`] pool starting at
/// `reg_base`; `span` is where execution resumes in the owning
/// function.
#[derive(Debug)]
struct Frame {
    func: FuncId,
    code_base: u64,
    /// First register of this frame in the shared pool.
    reg_base: usize,
    /// Address of stack slot 0 (frames grow down from the caller).
    frame_addr: u64,
    /// Where the caller stores this activation's return value.
    ret_to: Option<Reg>,
    /// Index of the span this frame resumes at.
    span: u32,
    /// Stack pointer to restore on return.
    sp_restore: u64,
}

impl<'p> Vm<'p> {
    /// Prepares the program for execution: validates it and lowers
    /// every function to its decoded stream.
    ///
    /// # Panics
    ///
    /// Panics if the program fails validation — run
    /// [`Program::validate`] first for a recoverable check.
    pub fn new(program: &'p Program) -> Self {
        program
            .validate()
            .unwrap_or_else(|e| panic!("invalid program {}: {e}", program.name));
        Vm {
            program,
            decoded: decode_program(program),
        }
    }

    /// The program this VM executes.
    pub fn program(&self) -> &Program {
        self.program
    }

    /// The decoded streams, indexed by `FuncId` — exposed so tests can
    /// check the decoder against [`sz_ir::CodeLayout`] ground truth.
    pub fn decoded_funcs(&self) -> &[DecodedFunc] {
        &self.decoded
    }

    /// Executes the program to completion under `engine`.
    ///
    /// # Errors
    ///
    /// Returns [`VmError`] if the instruction budget, stack depth, or
    /// heap is exhausted, or the program frees a non-live address.
    pub fn run(
        &self,
        engine: &mut dyn LayoutEngine,
        config: MachineConfig,
        limits: RunLimits,
    ) -> Result<RunReport, VmError> {
        let mut mem = MemorySystem::new(config);
        engine.prepare(self.program);

        let mut values = ValueMemory::new();
        for (i, g) in self.program.globals.iter().enumerate() {
            let base = engine.global_base(sz_ir::GlobalId(i as u32));
            match g.init {
                sz_ir::GlobalInit::Zero => {}
                sz_ir::GlobalInit::F64Bits(b) | sz_ir::GlobalInit::U64(b) => {
                    values.write(base, b);
                }
            }
        }

        let mut exec = Exec {
            vm: self,
            engine,
            mem: &mut mem,
            values,
            stack: Vec::new(),
            stack_view: Vec::new(),
            regs: Vec::new(),
            scratch: Vec::new(),
            sp: 0,
            limits,
            gb_memo: (u32::MAX, 0),
        };
        exec.sp = exec.engine.stack_base();
        exec.push_frame(self.program.entry, &[], None)?;

        let mut return_value = None;
        while !exec.stack.is_empty() {
            return_value = exec.run_span()?;
        }

        let counters = *mem.counters();
        let periods = assemble_periods(engine.period_marks(), &counters);
        Ok(RunReport {
            cycles: counters.cycles,
            instructions: counters.instructions,
            time: config.time_of(counters.cycles),
            counters,
            periods,
            return_value,
            engine: engine.name().to_string(),
        })
    }
}

/// Reads an operand against a frame's register window.
#[inline]
fn operand(regs: &[u64], op: Operand) -> u64 {
    match op {
        Operand::Reg(r) => regs[r.0 as usize],
        Operand::Imm(v) => v as u64,
    }
}

/// Mutable execution state, split out so borrows stay simple.
struct Exec<'a, 'p> {
    vm: &'a Vm<'p>,
    engine: &'a mut dyn LayoutEngine,
    mem: &'a mut MemorySystem,
    values: ValueMemory,
    stack: Vec<Frame>,
    stack_view: Vec<FrameView>,
    /// Register pool: frame `i` owns `regs[frame.reg_base..]` up to the
    /// next frame's base (or the pool's end for the top frame). Each
    /// frame's window is its `num_regs` registers followed by the
    /// function's interned constants ([`DecodedFunc::consts`]), so
    /// compiled effects address registers and immediates uniformly.
    regs: Vec<u64>,
    /// Reusable call-argument buffer.
    scratch: Vec<u64>,
    sp: u64,
    limits: RunLimits,
    /// One-entry memo for [`LayoutEngine::global_base`], `(global,
    /// base)`, invalidated at every [`Exec::run_span`] entry. Sound
    /// because the engine is only handed `&mut self` at span-terminal
    /// `Op` sites (tick / enter / pad / malloc / free), all of which
    /// return from `run_span` — so between two resets no engine state
    /// can change and the base it would report is constant. `u32::MAX`
    /// marks the memo cold (no program has 2^32 - 1 globals).
    gb_memo: (u32, u64),
}

impl Exec<'_, '_> {
    /// Resolves a global's base through the one-entry memo (see
    /// [`Exec::gb_memo`]); the dyn engine call only runs on the first
    /// access to each distinct global per `run_span` entry.
    #[inline]
    fn global_base(&mut self, g: sz_ir::GlobalId) -> u64 {
        if self.gb_memo.0 != g.0 {
            self.gb_memo = (g.0, self.engine.global_base(g));
        }
        self.gb_memo.1
    }

    fn push_frame(
        &mut self,
        func: FuncId,
        args: &[u64],
        ret_to: Option<Reg>,
    ) -> Result<(), VmError> {
        if self.stack.len() >= self.limits.max_stack_depth {
            return Err(VmError::StackOverflow {
                limit: self.limits.max_stack_depth,
            });
        }
        // Re-randomization check fires at function entry, modelling the
        // trap STABILIZER plants at each function's first byte (§3.3).
        self.engine
            .tick(self.mem.counters().cycles, &self.stack_view, self.mem);

        let code_base = self.engine.enter_function(func, self.mem);
        let f = &self.vm.decoded[func.0 as usize];
        let pad = self.engine.stack_pad(func, self.mem);
        let sp_restore = self.sp;
        // Layout below the caller: [linkage word][slots...], padded.
        // A frame that would extend below address zero has run the
        // guest stack off the bottom of the address space — that is a
        // stack overflow, not a wrap to the top of memory.
        let new_sp = self
            .sp
            .checked_sub(pad)
            .and_then(|sp| sp.checked_sub(f.frame_bytes))
            .and_then(|sp| sp.checked_sub(8))
            .ok_or(VmError::StackOverflow {
                limit: self.limits.max_stack_depth,
            })?;
        // Pushing the return address is a real store through the cache:
        // this is how stack placement reaches the timing model.
        self.mem.store(new_sp + f.frame_bytes);
        self.sp = new_sp;

        let reg_base = self.regs.len();
        self.regs.resize(reg_base + usize::from(f.num_regs), 0);
        self.regs[reg_base..reg_base + args.len()].copy_from_slice(args);
        // The frame's execution window is its registers followed by
        // the function's interned constants, so effect operands
        // address both uniformly.
        self.regs.extend_from_slice(&f.consts);
        self.stack.push(Frame {
            func,
            code_base,
            reg_base,
            frame_addr: new_sp,
            ret_to,
            span: 0,
            sp_restore,
        });
        self.stack_view.push(FrameView { func, code_base });
        Ok(())
    }

    /// Runs the top frame from its resume span until a call, return,
    /// malloc or free ends a span, then hands that op to
    /// [`Exec::exec_op`]. Returns the program's final value when the
    /// last frame returns.
    ///
    /// Every span runs whole or not at all: one `retire_batch` for all
    /// its ops, its compiled body, then its terminal. Jump and branch
    /// terminals chain to the next span inside this loop, so the frame
    /// state hoisted below is read once per chain. DESIGN.md §7a argues
    /// why the result is the reference interpreter's exact
    /// `MemorySystem` call sequence.
    fn run_span(&mut self) -> Result<Option<u64>, VmError> {
        let limit = self.limits.max_instructions;
        // Anything that mutated the engine since the last entry exited
        // through an `Op` terminal, so one reset here re-validates the
        // global-base memo for the whole chain.
        self.gb_memo.0 = u32::MAX;

        // `vm` is a shared reference copied out of `self`, so the spans
        // and their bodies borrow the decoded stream independently of
        // `self`.
        let vm = self.vm;
        let top = self.stack.len() - 1;
        let frame = &self.stack[top];
        let func = &vm.decoded[frame.func.0 as usize];
        let code_base = frame.code_base;
        let reg_base = frame.reg_base;
        let mut span_idx = frame.span as usize;
        // Only this loop retires instructions, so `retired <= limit`
        // always holds and the fuel test below cannot wrap.
        let mut retired = self.mem.counters().instructions;
        loop {
            let span = &func.spans[span_idx];
            // A span's non-terminal ops cannot fail or call the engine,
            // so the reference, walking op by op into a span it cannot
            // finish, stops with this same error and the same
            // engine-observed counters.
            if u64::from(span.count) > limit - retired {
                return Err(VmError::OutOfFuel { limit });
            }
            self.mem
                .retire_batch(u64::from(span.count), span.base_cycles);
            retired += u64::from(span.count);

            let lo = code_base + span.first_pc;
            let hi = code_base + span.end_pc - 1;
            let term = match func.bodies[span_idx] {
                // A pure span's reference fetches are one ascending line
                // walk, whatever its length.
                SpanBody::Effects { first, count, term } => {
                    self.mem.fetch_lines(lo, hi);
                    let window = &mut self.regs[reg_base..];
                    for e in &func.effects[first as usize..(first + count) as usize] {
                        window[usize::from(e.dst)] =
                            e.op.eval(window[e.a as usize], window[e.b as usize]);
                    }
                    term
                }
                // An impure span fetches at once only when it sits on
                // one line, whose single probe the reference makes at
                // the first op.
                SpanBody::Steps { first, count, term } => {
                    let steps = &func.steps[first as usize..(first + count) as usize];
                    let frame_addr = self.stack[top].frame_addr;
                    if self.mem.same_fetch_line(lo, hi) {
                        self.mem.fetch_lines(lo, hi);
                        self.run_steps::<false>(func, span, steps, reg_base, frame_addr, code_base);
                    } else {
                        self.run_steps::<true>(func, span, steps, reg_base, frame_addr, code_base);
                    }
                    term
                }
            };

            match term {
                SpanTerm::CmpBranch {
                    eff,
                    pc_rel,
                    taken,
                    not_taken,
                } => {
                    let window = &mut self.regs[reg_base..];
                    let c = eff.op.eval(window[eff.a as usize], window[eff.b as usize]);
                    window[usize::from(eff.dst)] = c;
                    let t = c != 0;
                    self.mem.branch(code_base + pc_rel, t);
                    span_idx = if t { taken } else { not_taken } as usize;
                }
                SpanTerm::Jump { target } => span_idx = target as usize,
                SpanTerm::Branch {
                    cond,
                    pc_rel,
                    taken,
                    not_taken,
                } => {
                    let c = self.regs[reg_base + cond as usize] != 0;
                    self.mem.branch(code_base + pc_rel, c);
                    span_idx = if c { taken } else { not_taken } as usize;
                }
                SpanTerm::Op => {
                    // A call, malloc or free is never a block's last
                    // op, so the span after it exists; after a return
                    // the frame is gone and the index is never read.
                    self.stack[top].span = span_idx as u32 + 1;
                    let op = &func.ops[(span.start + span.count - 1) as usize];
                    return self.exec_op(top, op);
                }
            }
        }
    }

    /// Runs an impure span's mid-op steps in op order. With `FETCH` the
    /// span straddles I-lines and its fetches are issued here, in the
    /// reference's interleaving with the data traffic; without, the
    /// caller has fetched the span's one line and the flushes compile
    /// away.
    ///
    /// Between two data accesses every op is fetch-only (pure effects,
    /// Nops, a compare folded into the terminal), and their per-op
    /// fetches are the same ascending line walk `fetch_lines` makes, so
    /// each pending run is issued as one walk right before the access
    /// that ends it, and the tail through the terminal after the last
    /// step. Inside a fused pair the flushes fall exactly where the two
    /// unfused ops' fetches would.
    #[inline(always)]
    fn run_steps<const FETCH: bool>(
        &mut self,
        func: &DecodedFunc,
        span: &FetchSpan,
        steps: &[Step],
        reg_base: usize,
        frame_addr: u64,
        code_base: u64,
    ) {
        // First op whose fetch has not been issued yet.
        let mut pend = span.start as usize;
        let mut fetch_through = |mem: &mut MemorySystem, last: usize| {
            if FETCH {
                debug_assert!(pend <= last, "a flush covers at least one op");
                let (a, b) = (&func.ops[pend], &func.ops[last]);
                mem.fetch_lines(code_base + a.pc, code_base + b.pc + u64::from(b.size) - 1);
                pend = last + 1;
            }
        };
        for step in steps {
            match *step {
                Step::Effect(e) => {
                    let window = &mut self.regs[reg_base..];
                    window[usize::from(e.dst)] =
                        e.op.eval(window[e.a as usize], window[e.b as usize]);
                }
                Step::LoadSlotAlu {
                    idx,
                    dst,
                    byte_off,
                    eff,
                } => {
                    // The ALU's fetch joins the next pending run: its
                    // effect is unobservable, so running it early
                    // reorders nothing.
                    fetch_through(self.mem, idx as usize);
                    let addr = frame_addr + byte_off;
                    self.mem.load(addr);
                    let v = self.values.read(addr);
                    let window = &mut self.regs[reg_base..];
                    window[usize::from(dst)] = v;
                    window[usize::from(eff.dst)] =
                        eff.op.eval(window[eff.a as usize], window[eff.b as usize]);
                }
                Step::AluStoreSlot {
                    idx,
                    eff,
                    src,
                    byte_off,
                } => {
                    // Both halves fetch before the store's data access.
                    fetch_through(self.mem, idx as usize + 1);
                    let window = &mut self.regs[reg_base..];
                    window[usize::from(eff.dst)] =
                        eff.op.eval(window[eff.a as usize], window[eff.b as usize]);
                    let v = window[src as usize];
                    let addr = frame_addr + byte_off;
                    self.mem.store(addr);
                    self.values.write(addr, v);
                }
                Step::LoadSlot { idx, dst, byte_off } => {
                    fetch_through(self.mem, idx as usize);
                    let addr = frame_addr + byte_off;
                    self.mem.load(addr);
                    self.regs[reg_base + usize::from(dst)] = self.values.read(addr);
                }
                Step::StoreSlot { idx, src, byte_off } => {
                    fetch_through(self.mem, idx as usize);
                    let v = self.regs[reg_base + src as usize];
                    let addr = frame_addr + byte_off;
                    self.mem.store(addr);
                    self.values.write(addr, v);
                }
                Step::LoadGlobal {
                    idx,
                    dst,
                    offset,
                    global,
                } => {
                    fetch_through(self.mem, idx as usize);
                    let off = self.regs[reg_base + offset as usize];
                    let addr = self.global_base(global).wrapping_add(off);
                    self.mem.load(addr);
                    self.regs[reg_base + usize::from(dst)] = self.values.read(addr);
                }
                Step::StoreGlobal {
                    idx,
                    src,
                    offset,
                    global,
                } => {
                    fetch_through(self.mem, idx as usize);
                    let window = &self.regs[reg_base..];
                    let v = window[src as usize];
                    let off = window[offset as usize];
                    let addr = self.global_base(global).wrapping_add(off);
                    self.mem.store(addr);
                    self.values.write(addr, v);
                }
                Step::LoadPtr {
                    idx,
                    dst,
                    base,
                    offset,
                } => {
                    fetch_through(self.mem, idx as usize);
                    let addr = self.regs[reg_base + usize::from(base)].wrapping_add(offset);
                    self.mem.load(addr);
                    self.regs[reg_base + usize::from(dst)] = self.values.read(addr);
                }
                Step::StorePtr {
                    idx,
                    src,
                    base,
                    offset,
                } => {
                    fetch_through(self.mem, idx as usize);
                    let window = &self.regs[reg_base..];
                    let v = window[src as usize];
                    let addr = window[usize::from(base)].wrapping_add(offset);
                    self.mem.store(addr);
                    self.values.write(addr, v);
                }
            }
        }
        fetch_through(self.mem, (span.start + span.count - 1) as usize);
    }

    /// Executes the call, return, malloc or free that ended frame
    /// `top`'s span; the op is already fetched and retired, and the
    /// frame already resumes at the next span. Returns the program's
    /// final value when the last frame returns.
    fn exec_op(&mut self, top: usize, op: &DecodedOp) -> Result<Option<u64>, VmError> {
        let vm = self.vm;
        let reg_base = self.stack[top].reg_base;
        match &op.kind {
            OpKind::Malloc { dst, size } => {
                let sz = guest_malloc_size(operand(&self.regs[reg_base..], *size));
                let addr = self
                    .engine
                    .malloc(sz, self.mem)
                    .ok_or(VmError::OutOfMemory { request: sz })?;
                self.regs[reg_base + dst.0 as usize] = addr;
            }
            OpKind::Free { ptr } => {
                let addr = self.regs[reg_base + ptr.0 as usize];
                if !self.engine.free(addr, self.mem) {
                    return Err(VmError::InvalidFree { addr });
                }
            }
            OpKind::Call { func, args, ret } => {
                let mut argv = std::mem::take(&mut self.scratch);
                argv.clear();
                let regs = &self.regs[reg_base..];
                argv.extend(args.iter().map(|a| operand(regs, *a)));
                let result = self.push_frame(*func, &argv, *ret);
                self.scratch = argv;
                result?;
            }
            OpKind::Ret { value } => {
                let v = value.map(|op| operand(&self.regs[reg_base..], op));
                let frame = self.stack.pop().expect("top frame exists");
                self.stack_view.pop();
                // Popping the return address is a load.
                let frame_bytes = vm.decoded[frame.func.0 as usize].frame_bytes;
                self.mem.load(frame.frame_addr + frame_bytes);
                self.sp = frame.sp_restore;
                self.regs.truncate(frame.reg_base);
                return if let Some(caller) = self.stack.last() {
                    if let (Some(reg), Some(val)) = (frame.ret_to, v) {
                        self.regs[caller.reg_base + reg.0 as usize] = val;
                    }
                    Ok(None)
                } else {
                    Ok(v)
                };
            }
            _ => unreachable!("only calls, returns, mallocs and frees end a span through Op"),
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimpleLayout;
    use sz_ir::{AluOp, ProgramBuilder};

    fn run(program: &Program) -> RunReport {
        let mut engine = SimpleLayout::new();
        Vm::new(program)
            .run(&mut engine, MachineConfig::tiny(), RunLimits::default())
            .expect("run succeeds")
    }

    #[test]
    fn arithmetic_and_return() {
        let mut p = ProgramBuilder::new("t");
        let mut f = p.function("main", 0);
        let a = f.alu(AluOp::Mul, 6, 7);
        let b = f.alu(AluOp::Sub, a, 2);
        f.ret(Some(b.into()));
        let main = p.add_function(f);
        let prog = p.finish(main).unwrap();
        assert_eq!(run(&prog).return_value, Some(40));
    }

    #[test]
    fn loop_sums_correctly() {
        // sum 0..100 via slots, exercising branches and stack memory.
        let mut p = ProgramBuilder::new("t");
        let mut f = p.function("main", 0);
        let s_i = f.slot();
        let s_sum = f.slot();
        f.store_slot(s_i, 0);
        f.store_slot(s_sum, 0);
        let header = f.new_block();
        let body = f.new_block();
        let exit = f.new_block();
        f.jump(header);
        f.switch_to(header);
        let i = f.load_slot(s_i);
        let c = f.alu(AluOp::CmpLt, i, 100);
        f.branch(c, body, exit);
        f.switch_to(body);
        let i = f.load_slot(s_i);
        let sum = f.load_slot(s_sum);
        let ns = f.alu(AluOp::Add, sum, i);
        f.store_slot(s_sum, ns);
        let ni = f.alu(AluOp::Add, i, 1);
        f.store_slot(s_i, ni);
        f.jump(header);
        f.switch_to(exit);
        let out = f.load_slot(s_sum);
        f.ret(Some(out.into()));
        let main = p.add_function(f);
        let prog = p.finish(main).unwrap();
        assert_eq!(run(&prog).return_value, Some(4950));
    }

    #[test]
    fn calls_pass_arguments_and_return_values() {
        let mut p = ProgramBuilder::new("t");
        let mut sq = p.function("square", 1);
        let x = sq.param(0);
        let v = sq.alu(AluOp::Mul, x, x);
        sq.ret(Some(v.into()));
        let square = p.add_function(sq);
        let mut f = p.function("main", 0);
        let r = f.call(square, vec![9.into()]);
        let r2 = f.call(square, vec![r.into()]);
        f.ret(Some(r2.into()));
        let main = p.add_function(f);
        let prog = p.finish(main).unwrap();
        assert_eq!(run(&prog).return_value, Some(6561));
    }

    #[test]
    fn recursion_computes_factorial() {
        let mut p = ProgramBuilder::new("t");
        let fact = p.declare();
        let mut fb = p.function("fact", 1);
        let n = fb.param(0);
        let base = fb.new_block();
        let rec = fb.new_block();
        let c = fb.alu(AluOp::CmpLt, n, 2);
        fb.branch(c, base, rec);
        fb.switch_to(base);
        fb.ret(Some(1.into()));
        fb.switch_to(rec);
        let m = fb.alu(AluOp::Sub, n, 1);
        let sub = fb.call(fact, vec![m.into()]);
        let out = fb.alu(AluOp::Mul, n, sub);
        fb.ret(Some(out.into()));
        p.define(fact, fb);
        let mut f = p.function("main", 0);
        let r = f.call(fact, vec![10.into()]);
        f.ret(Some(r.into()));
        let main = p.add_function(f);
        let prog = p.finish(main).unwrap();
        assert_eq!(run(&prog).return_value, Some(3_628_800));
    }

    #[test]
    fn heap_pointers_work() {
        // Build a 3-node linked list on the heap and walk it.
        let mut p = ProgramBuilder::new("t");
        let mut f = p.function("main", 0);
        // node: [value, next]
        let n1 = f.malloc(16);
        let n2 = f.malloc(16);
        let n3 = f.malloc(16);
        f.store_ptr(n1, 0, 10);
        f.store_ptr(n1, 8, n2);
        f.store_ptr(n2, 0, 20);
        f.store_ptr(n2, 8, n3);
        f.store_ptr(n3, 0, 30);
        f.store_ptr(n3, 8, 0);
        // walk
        let v1 = f.load_ptr(n1, 0);
        let p2 = f.load_ptr(n1, 8);
        let v2 = f.load_ptr(p2, 0);
        let p3 = f.load_ptr(p2, 8);
        let v3 = f.load_ptr(p3, 0);
        let s = f.alu(AluOp::Add, v1, v2);
        let s = f.alu(AluOp::Add, s, v3);
        f.free(n1);
        f.ret(Some(s.into()));
        let main = p.add_function(f);
        let prog = p.finish(main).unwrap();
        assert_eq!(run(&prog).return_value, Some(60));
    }

    #[test]
    fn float_path() {
        let mut p = ProgramBuilder::new("t");
        let mut f = p.function("main", 0);
        let half = f.fp_const(0.5);
        let three = f.int_to_fp(3);
        let v = f.alu(AluOp::FMul, three, half);
        let out = f.fp_to_int(v); // 1.5 -> 1
        f.ret(Some(out.into()));
        let main = p.add_function(f);
        let prog = p.finish(main).unwrap();
        assert_eq!(run(&prog).return_value, Some(1));
    }

    #[test]
    fn globals_initialized_and_mutable() {
        let mut p = ProgramBuilder::new("t");
        let g = p.global_init("k", 8, sz_ir::GlobalInit::U64(100));
        let arr = p.global("arr", 64);
        let mut f = p.function("main", 0);
        let k = f.load_global(g, 0);
        f.store_global(arr, 16, k);
        let v = f.load_global(arr, 16);
        f.ret(Some(v.into()));
        let main = p.add_function(f);
        let prog = p.finish(main).unwrap();
        assert_eq!(run(&prog).return_value, Some(100));
    }

    #[test]
    fn fuel_limit_stops_infinite_loops() {
        let mut p = ProgramBuilder::new("t");
        let mut f = p.function("main", 0);
        let spin = f.new_block();
        f.jump(spin);
        f.switch_to(spin);
        f.jump(spin);
        let main = p.add_function(f);
        let prog = p.finish(main).unwrap();
        let mut engine = SimpleLayout::new();
        let err = Vm::new(&prog)
            .run(
                &mut engine,
                MachineConfig::tiny(),
                RunLimits {
                    max_instructions: 1000,
                    max_stack_depth: 10,
                },
            )
            .unwrap_err();
        assert_eq!(err, VmError::OutOfFuel { limit: 1000 });
    }

    #[test]
    fn stack_depth_limit() {
        let mut p = ProgramBuilder::new("t");
        let f_id = p.declare();
        let mut fb = p.function("f", 0);
        let r = fb.call(f_id, vec![]);
        fb.ret(Some(r.into()));
        p.define(f_id, fb);
        let mut main = p.function("main", 0);
        main.call_void(f_id, vec![]);
        main.ret(None);
        let entry = p.add_function(main);
        let prog = p.finish(entry).unwrap();
        let mut engine = SimpleLayout::new();
        let err = Vm::new(&prog)
            .run(
                &mut engine,
                MachineConfig::tiny(),
                RunLimits {
                    max_instructions: 10_000_000,
                    max_stack_depth: 64,
                },
            )
            .unwrap_err();
        assert_eq!(err, VmError::StackOverflow { limit: 64 });
    }

    #[test]
    fn identical_runs_are_cycle_deterministic() {
        let mut p = ProgramBuilder::new("t");
        let mut f = p.function("main", 0);
        let s = f.slot();
        f.store_slot(s, 7);
        let v = f.load_slot(s);
        f.ret(Some(v.into()));
        let main = p.add_function(f);
        let prog = p.finish(main).unwrap();
        let a = run(&prog);
        let b = run(&prog);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn report_time_matches_cycles() {
        let mut p = ProgramBuilder::new("t");
        let mut f = p.function("main", 0);
        f.ret(None);
        let main = p.add_function(f);
        let prog = p.finish(main).unwrap();
        let r = run(&prog);
        let cfg = MachineConfig::tiny();
        assert!((r.time.as_nanos() - cfg.time_of(r.cycles).as_nanos()).abs() < 1e-9);
        assert!(r.cycles > 0);
    }

    #[test]
    fn matches_the_reference_interpreter_bit_for_bit() {
        // The in-module smoke version of tests/decode_equivalence.rs:
        // a loop with calls, heap, floats, and globals must produce an
        // identical RunReport under both interpreters.
        let mut p = ProgramBuilder::new("t");
        let g = p.global("table", 256);
        let mut leaf = p.function("leaf", 1);
        let x = leaf.param(0);
        let v = leaf.load_global(g, x);
        let w = leaf.alu(AluOp::Add, v, 3);
        leaf.store_global(g, x, w);
        leaf.ret(Some(w.into()));
        let leaf = p.add_function(leaf);
        let mut f = p.function("main", 0);
        let s = f.slot();
        f.store_slot(s, 0);
        let header = f.new_block();
        let body = f.new_block();
        let exit = f.new_block();
        f.jump(header);
        f.switch_to(header);
        let i = f.load_slot(s);
        let c = f.alu(AluOp::CmpLt, i, 40);
        f.branch(c, body, exit);
        f.switch_to(body);
        let i = f.load_slot(s);
        let off = f.alu(AluOp::And, i, 31);
        let buf = f.malloc(32);
        f.store_ptr(buf, 0, off);
        f.call_void(leaf, vec![off.into()]);
        f.free(buf);
        let ni = f.alu(AluOp::Add, i, 1);
        f.store_slot(s, ni);
        f.jump(header);
        f.switch_to(exit);
        let out = f.load_slot(s);
        f.ret(Some(out.into()));
        let main = p.add_function(f);
        let prog = p.finish(main).unwrap();

        let mut e1 = SimpleLayout::new();
        let decoded = Vm::new(&prog)
            .run(&mut e1, MachineConfig::tiny(), RunLimits::default())
            .unwrap();
        let mut e2 = SimpleLayout::new();
        let reference = crate::reference::run_reference(
            &prog,
            &mut e2,
            MachineConfig::tiny(),
            RunLimits::default(),
        )
        .unwrap();
        assert_eq!(decoded, reference);
    }
}
