//! `fuzz_diff`: the differential fuzzer over a seeded set of 2,000
//! programs (6 engine configurations × 2 interpreters each), run in
//! passes until the time budget is spent.
//!
//! Each program is one `sz_fuzz::driver::run` call of one program on a
//! worker of a 2-thread pool, so each program's host latency is an op
//! latency, and each program is an op class that every pass repeats;
//! every repeat must give its first run's summary. The merged
//! per-program summaries must equal one batched `driver::run` over the
//! first programs, which pins that driving.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use sz_fuzz::diff::{check_program, ProgramVerdict};
use sz_fuzz::driver::{self, Diversity, OP_KINDS};
use sz_fuzz::{ArchResult, Divergence, FuzzConfig, FuzzFailure, FuzzSummary, Generator};
use sz_harness::{pool, Json};
use sz_ir::{Instr, Program};

use crate::metrics::THREADS;
use crate::trace::Tracer;
use crate::workload::{derive_seed, digest, Load, Size, Traced, Workload};

pub struct Fuzz {
    seed_base: u64,
    /// Programs per pass; the first pass is the pinned prefix.
    programs: u64,
    /// Programs per pool dispatch (the time budget is checked between);
    /// it divides `programs`.
    chunk: u64,
    /// Programs re-checked by one batched `driver::run`.
    batch_check: u64,
}

thread_local! {
    static GENERATOR: RefCell<Generator> = RefCell::new(Generator::new());
}

fn one_program(seed: u64) -> FuzzSummary {
    driver::run(&FuzzConfig {
        seed_base: seed,
        programs: 1,
        threads: 1,
        ..FuzzConfig::default()
    })
}

impl Workload for Fuzz {
    const IN_FLIGHT: usize = THREADS;

    fn setup(seed: u64, size: Size) -> Self {
        let (programs, chunk, batch_check) = match size {
            Size::Full => (2_000, 200, 1_000),
            Size::Tiny => (64, 32, 32),
        };
        // A fixed warm-up batch, outside the measured seeds, lets lazy
        // allocator and generator state settle before timing starts.
        driver::run(&FuzzConfig {
            seed_base: sz_fuzz::DEFAULT_SEED,
            programs: 32,
            threads: THREADS,
            ..FuzzConfig::default()
        });
        let seed_base = derive_seed(seed, 11);
        Fuzz {
            seed_base,
            programs,
            chunk,
            batch_check,
        }
    }

    fn sizes(&self) -> Json {
        Json::obj([
            ("programs_per_pass", self.programs.into()),
            ("chunk", self.chunk.into()),
            ("batch_check", self.batch_check.into()),
            ("seed_base", self.seed_base.into()),
        ])
    }

    fn measure(&mut self, budget: Duration) -> Load {
        let mut load = Load::default();
        let mut merged = empty_summary();
        let mut checked = empty_summary();
        let start = Instant::now();
        let mut done = 0u64;
        while done < self.programs || start.elapsed() < budget {
            let first = done % self.programs;
            let base = self.seed_base + first;
            let outcomes = pool::run_indexed(THREADS, self.chunk as usize, |i| {
                let t = Instant::now();
                let summary = one_program(base + i as u64);
                (t.elapsed(), summary)
            });
            for (i, (latency, summary)) in outcomes.into_iter().enumerate() {
                let index = first + i as u64;
                load.ops.record(index as usize, latency);
                load.attempted += 1;
                if let Some(failure) = &summary.failure {
                    load.failed += 1;
                    load.fail(format!("program {}: {}", base + i as u64, render(failure)));
                }
                let fingerprint = digest(&summary_bytes(&summary));
                if done >= self.programs {
                    if load.prefix[index as usize] != fingerprint {
                        load.fail(format!(
                            "program {}: a repeat differs from its first run",
                            base + i as u64
                        ));
                    }
                    continue;
                }
                load.prefix.push(fingerprint);
                merge(&mut merged, &summary);
                if index < self.batch_check {
                    merge(&mut checked, &summary);
                }
            }
            done += self.chunk;
            if done == self.programs {
                load.prefix_wall = start.elapsed();
            }
        }
        load.wall = start.elapsed();
        load.digest = digest(&summary_bytes(&merged));

        let batched = driver::run(&FuzzConfig {
            seed_base: self.seed_base,
            programs: self.batch_check,
            threads: THREADS,
            ..FuzzConfig::default()
        });
        if batched != checked {
            load.fail(format!(
                "per-program summaries differ from one driver::run over {} programs",
                self.batch_check
            ));
        }
        load
    }

    fn trace(&mut self, load: &Load, tracer: &Tracer) -> Traced {
        let mut traced = Traced::default();
        let mut busy_ns = 0.0;
        let start = Instant::now();
        let mut done = 0u64;
        while done < self.programs {
            let base = self.seed_base + done;
            let chunk_span = tracer.span("fuzz.chunk", None, None);
            let chunk_id = chunk_span.id();
            let t = Instant::now();
            let outcomes = pool::run_indexed(THREADS, self.chunk as usize, |i| {
                let seed = base + i as u64;
                let req = Some(done + i as u64);
                let job = tracer.span("fuzz.program", Some(chunk_id), req);
                let parent = Some(job.id());
                let program = tracer.time("szfuzz.gen", parent, req, || {
                    GENERATOR.with(|g| g.borrow_mut().generate(seed))
                });
                let verdict = tracer.time("szfuzz.check", parent, req, || {
                    check_program(&program, seed, false)
                });
                let summary = program_summary(seed, &program, verdict);
                (summary, job.end())
            });
            traced.capacity_s += THREADS as f64 * t.elapsed().as_secs_f64();
            chunk_span.end();
            for (summary, busy) in outcomes {
                traced.prefix.push(digest(&summary_bytes(&summary)));
                busy_ns += busy;
            }
            done += self.chunk;
        }
        traced.wall = start.elapsed();
        let busy = busy_ns / 1e9;
        let idle = (traced.capacity_s - busy).max(0.0);
        traced.attributed_s = tracer.seconds("szfuzz.gen") + tracer.seconds("szfuzz.check") + idle;
        traced.values = vec![
            ("szfuzz.programs", load.prefix.len() as f64),
            ("szharness.pool_busy_s", busy),
            ("szharness.pool_idle_s", idle),
        ];
        traced
    }
}

fn empty_summary() -> FuzzSummary {
    FuzzSummary {
        programs_run: 0,
        diversity: Diversity::default(),
        max_instructions: 0,
        failure: None,
        reproducer: None,
        capped: false,
        elapsed: Duration::ZERO,
    }
}

/// Folds one program's summary into a running one, in seed order.
fn merge(into: &mut FuzzSummary, s: &FuzzSummary) {
    into.programs_run += s.programs_run;
    let (a, b) = (&mut into.diversity, &s.diversity);
    for (x, y) in a.arch_classes.iter_mut().zip(b.arch_classes) {
        *x += y;
    }
    a.returns_value += b.returns_value;
    a.fuel_sweeps += b.fuel_sweeps;
    for (x, y) in a.op_mix.iter_mut().zip(b.op_mix) {
        *x += y;
    }
    into.max_instructions = into.max_instructions.max(s.max_instructions);
    if into.failure.is_none() && s.failure.is_some() {
        into.failure.clone_from(&s.failure);
        into.reproducer.clone_from(&s.reproducer);
    }
}

/// A summary's results (everything but elapsed time) as bytes.
fn summary_bytes(s: &FuzzSummary) -> Vec<u8> {
    let d = &s.diversity;
    let mut words = vec![
        s.programs_run,
        d.returns_value,
        d.fuel_sweeps,
        s.max_instructions,
    ];
    words.extend(d.arch_classes);
    words.extend(d.op_mix);
    words.push(u64::from(s.failure.is_some()));
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// The summary the driver builds for one program from its verdict; a
/// copy of the driver's private per-seed bookkeeping, pinned by the
/// traced replica's bit-identity with the untraced run.
fn program_summary(
    seed: u64,
    program: &Program,
    verdict: Result<ProgramVerdict, Divergence>,
) -> FuzzSummary {
    let mut s = empty_summary();
    match verdict {
        Ok(v) if v.arch == ArchResult::OutOfFuel => {
            s.failure = Some(FuzzFailure::TerminationExceeded { seed });
        }
        Ok(v) => {
            s.programs_run = 1;
            s.diversity.arch_classes[v.arch.class_index()] = 1;
            s.diversity.returns_value = u64::from(matches!(v.arch, ArchResult::Ok(Some(_))));
            s.diversity.op_mix = op_mix(program);
            s.max_instructions = v.baseline_instructions.unwrap_or(0);
        }
        Err(divergence) => s.failure = Some(FuzzFailure::Divergence(divergence)),
    }
    s
}

/// Static instruction-kind histogram, in `driver::OP_KIND_NAMES` order.
fn op_mix(program: &Program) -> [u64; OP_KINDS] {
    let mut mix = [0u64; OP_KINDS];
    for ins in program
        .functions
        .iter()
        .flat_map(|f| &f.blocks)
        .flat_map(|b| &b.instrs)
    {
        let kind = match ins {
            Instr::Alu { .. } => 0,
            Instr::FpConst { .. } => 1,
            Instr::IntToFp { .. } => 2,
            Instr::FpToInt { .. } => 3,
            Instr::LoadSlot { .. } => 4,
            Instr::StoreSlot { .. } => 5,
            Instr::LoadGlobal { .. } => 6,
            Instr::StoreGlobal { .. } => 7,
            Instr::LoadPtr { .. } => 8,
            Instr::StorePtr { .. } => 9,
            Instr::Malloc { .. } => 10,
            Instr::Free { .. } => 11,
            Instr::Call { .. } => 12,
            Instr::Nop { .. } => 13,
        };
        mix[kind] += 1;
    }
    mix
}

fn render(failure: &FuzzFailure) -> String {
    match failure {
        FuzzFailure::Divergence(d) => d.render(),
        FuzzFailure::TerminationExceeded { seed } => {
            format!("seed {seed:#x} exceeded the termination bound")
        }
    }
}
