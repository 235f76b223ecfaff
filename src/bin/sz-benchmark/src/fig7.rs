//! `fig7_small`: the Figure 7 protocol (all 18 benchmarks at
//! `Scale::Small`, O1/O2/O3, 10 stabilized runs per level) driven one
//! run at a time, so each run's host latency is an op latency.
//!
//! Run `r` of a (benchmark, level) cell is
//! `stabilized_reports_range(program, opts, config, r, 1)`: the same
//! seed stream `fig7::run` draws its runs from, so the first ten passes
//! over the 54 cells are bit-identical to `fig7::run`'s samples (checked
//! against it for one seeded benchmark). Passes continue past the ten
//! until the time budget is spent. Every pass covers all 54 cells, so
//! any run length sees the same benchmark mix; each cell is an op class.

use std::time::{Duration, Instant};

use stabilizer::{prepare_program, Config, Stabilizer};
use sz_harness::experiments::fig7::{compare, run as fig7_run, Fig7Row};
use sz_harness::runner::{stabilized_reports_range, ExperimentOptions};
use sz_harness::{pool, Json};
use sz_ir::Program;
use sz_opt::{optimize, OptLevel};
use sz_rng::{Rng, SplitMix64};
use sz_vm::{RunLimits, RunReport, Vm};
use sz_workloads::BenchmarkSpec;

use crate::metrics::THREADS;
use crate::trace::{TimedEngine, Tracer, ENGINE_CALLBACKS};
use crate::workload::{derive_seed, digest, Load, Size, Traced, Workload};

const LEVELS: [OptLevel; 3] = [OptLevel::O1, OptLevel::O2, OptLevel::O3];

pub struct Fig7 {
    opts: ExperimentOptions,
    specs: Vec<BenchmarkSpec>,
    /// One optimized program per (benchmark, level), benchmark-major.
    cells: Vec<Program>,
    /// Runs per level in the pinned prefix (the protocol's run count).
    runs: usize,
    /// The benchmark re-run through `fig7::run` as a cross-check.
    checked: usize,
}

impl Workload for Fig7 {
    const IN_FLIGHT: usize = THREADS;

    fn setup(seed: u64, size: Size) -> Self {
        let mut opts = match size {
            Size::Full => ExperimentOptions::paper(),
            Size::Tiny => ExperimentOptions {
                benchmarks: Some(vec!["bzip2".into(), "mcf".into()]),
                ..ExperimentOptions::quick()
            },
        };
        opts.threads = THREADS;
        opts.seed_base = derive_seed(seed, 7);
        opts.runs = match size {
            Size::Full => 10,
            Size::Tiny => 6,
        };
        let specs = opts.selected_suite();
        let cells = specs
            .iter()
            .flat_map(|spec| {
                let base = spec.program(opts.scale);
                LEVELS.map(|level| optimize(&base, level))
            })
            .collect();
        let checked = (derive_seed(seed, 8) % specs.len() as u64) as usize;
        Fig7 {
            runs: opts.runs,
            opts,
            specs,
            cells,
            checked,
        }
    }

    fn sizes(&self) -> Json {
        Json::obj([
            ("benchmarks", self.specs.len().into()),
            (
                "scale",
                sz_serve::proto::scale_wire_name(self.opts.scale).into(),
            ),
            ("runs_per_level", self.runs.into()),
            ("prefix_runs", (self.runs * self.cells.len()).into()),
            ("seed_base", self.opts.seed_base.into()),
        ])
    }

    fn measure(&mut self, budget: Duration) -> Load {
        let single = ExperimentOptions {
            threads: 1,
            ..self.opts.clone()
        };
        let mut load = Load::default();
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); self.cells.len()];
        let mut canonical = Vec::new();
        let mut returns: Vec<Option<Option<u64>>> = vec![None; self.specs.len()];
        let start = Instant::now();
        let mut pass = 0;
        while pass < self.runs || start.elapsed() < budget {
            let results = pool::run_indexed(THREADS, self.cells.len(), |c| {
                let t = Instant::now();
                let mut reports =
                    stabilized_reports_range(&self.cells[c], &single, Config::default(), pass, 1);
                (t.elapsed(), reports.pop().expect("one run requested"))
            });
            for (c, (latency, report)) in results.into_iter().enumerate() {
                load.ops.record(c, latency);
                load.attempted += 1;
                let b = c / LEVELS.len();
                let expected = *returns[b].get_or_insert(report.return_value);
                if report.return_value != expected {
                    load.fail(format!(
                        "{} {:?} run {pass} returned {:?}, other runs {:?}",
                        self.specs[b].name,
                        LEVELS[c % LEVELS.len()],
                        report.return_value,
                        expected
                    ));
                }
                if pass < self.runs {
                    samples[c].push(report.seconds());
                    let bytes = run_bytes(&report);
                    load.prefix.push(digest(&bytes));
                    canonical.extend_from_slice(&bytes);
                }
            }
            pass += 1;
            if pass == self.runs {
                load.prefix_wall = start.elapsed();
            }
        }
        load.wall = start.elapsed();

        let rows = self.rows(&samples);
        canonical.extend_from_slice(format!("{rows:?}").as_bytes());
        load.digest = digest(&canonical);
        let name = self.specs[self.checked].name;
        let reference = fig7_run(&ExperimentOptions {
            benchmarks: Some(vec![name.to_string()]),
            ..self.opts.clone()
        });
        if format!("{:?}", reference) != format!("{:?}", [&rows[self.checked]]) {
            load.fail(format!(
                "{name}: runs driven one at a time differ from fig7::run"
            ));
        }
        load
    }

    fn trace(&mut self, _load: &Load, tracer: &Tracer) -> Traced {
        let scale = self.opts.scale;
        let cells: Vec<Program> = self
            .specs
            .iter()
            .flat_map(|spec| {
                let base = tracer.time("szworkloads.build", None, None, || spec.program(scale));
                LEVELS.map(|level| {
                    tracer.time("szopt.optimize", None, None, || optimize(&base, level))
                })
            })
            .collect();
        let fingerprints: Vec<u64> = cells.iter().map(program_fingerprint).collect();
        let machine = self.opts.machine;
        let interval = self.opts.interval;
        let seed_base = self.opts.seed_base;

        let mut traced = Traced::default();
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
        let mut totals = Totals::default();
        let start = Instant::now();
        for pass in 0..self.runs {
            let pass_span = tracer.span("fig7.pass", None, None);
            let pass_id = pass_span.id();
            let t = Instant::now();
            let results = pool::run_indexed(THREADS, cells.len(), |c| {
                let index = (pass * cells.len() + c) as u64;
                let req = Some(index);
                let job = tracer.span("fig7.run", Some(pass_id), req);
                let parent = Some(job.id());
                let (prepared, info) =
                    tracer.time("core.prepare", parent, req, || prepare_program(&cells[c]));
                let vm = tracer.time("szvm.decode", parent, req, || Vm::new(&prepared));
                // The runner's seed mixing for run `pass` of this cell.
                let mut mix = SplitMix64::new((seed_base + pass as u64) ^ fingerprints[c]);
                let config = Config::default()
                    .with_interval(interval)
                    .with_seed(mix.next_u64());
                let mut engine = TimedEngine::new(Stabilizer::new(config, &machine, &info));
                let report = tracer.time("szvm.run", parent, req, || {
                    vm.run(&mut engine, machine, RunLimits::default())
                        .expect("benchmark programs terminate")
                });
                for (k, name) in ENGINE_CALLBACKS.iter().enumerate() {
                    let (calls, ns) = engine.counts[k];
                    tracer.aggregate(name, index, calls, ns);
                }
                let stats = engine.inner.stats();
                let busy = job.end();
                let calls: u64 = engine.counts.iter().map(|c| c.0).sum();
                (report, stats, calls, busy)
            });
            traced.capacity_s += THREADS as f64 * t.elapsed().as_secs_f64();
            pass_span.end();
            for (c, (report, stats, calls, busy)) in results.into_iter().enumerate() {
                samples[c].push(report.seconds());
                traced.prefix.push(digest(&run_bytes(&report)));
                totals.add(&report, stats, calls, busy);
            }
        }
        traced.wall = start.elapsed();

        for b in 0..self.specs.len() {
            let arms = &samples[b * LEVELS.len()..(b + 1) * LEVELS.len()];
            tracer.time("szstats.compare", None, None, || {
                compare(&arms[0], &arms[1])
            });
            tracer.time("szstats.compare", None, None, || {
                compare(&arms[1], &arms[2])
            });
        }

        let callbacks: f64 = ENGINE_CALLBACKS.iter().map(|n| tracer.seconds(n)).sum();
        // Each timed callback adds two clock reads to the run around it;
        // one is already inside the callback's own measured time.
        let run_self = (tracer.seconds("szvm.run")
            - callbacks
            - 2.0 * totals.callback_calls as f64 * tracer.clock_ns() / 1e9)
            .max(0.0);
        let busy = totals.busy_ns / 1e9;
        let idle = (traced.capacity_s - busy).max(0.0);
        // Covered by a span: the `szvm.run` span holds the callbacks and
        // the clock reads that time them.
        traced.attributed_s = tracer.seconds("core.prepare")
            + tracer.seconds("szvm.decode")
            + tracer.seconds("szvm.run")
            + idle;
        let c = &totals.counters;
        traced.values = vec![
            ("szvm.run_self_s", run_self),
            ("szvm.instructions", c.instructions as f64),
            (
                "szvm.ns_per_instr",
                run_self * 1e9 / (c.instructions as f64).max(1.0),
            ),
            ("szmachine.cycles", c.cycles as f64),
            ("szmachine.l1d_misses", c.l1d_misses as f64),
            ("szmachine.l3_misses", c.l3_misses as f64),
            ("szmachine.itlb_misses", c.itlb_misses as f64),
            ("szmachine.branch_mispredicts", c.branch_mispredicts as f64),
            ("core.rerandomizations", totals.rerandomizations as f64),
            ("core.relocations", totals.relocations as f64),
            ("szharness.pool_busy_s", busy),
            ("szharness.pool_idle_s", idle),
        ];
        traced
    }
}

impl Fig7 {
    fn rows(&self, samples: &[Vec<f64>]) -> Vec<Fig7Row> {
        self.specs
            .iter()
            .enumerate()
            .map(|(b, spec)| {
                let arms = &samples[b * LEVELS.len()..(b + 1) * LEVELS.len()];
                Fig7Row {
                    benchmark: spec.name.to_string(),
                    o2_vs_o1: compare(&arms[0], &arms[1]),
                    o3_vs_o2: compare(&arms[1], &arms[2]),
                    samples: [arms[0].clone(), arms[1].clone(), arms[2].clone()],
                }
            })
            .collect()
    }
}

#[derive(Default)]
struct Totals {
    counters: sz_machine::PerfCounters,
    rerandomizations: u64,
    relocations: u64,
    callback_calls: u64,
    busy_ns: f64,
}

impl Totals {
    fn add(&mut self, report: &RunReport, stats: stabilizer::Stats, calls: u64, busy_ns: f64) {
        let (a, b) = (&mut self.counters, &report.counters);
        a.instructions += b.instructions;
        a.cycles += b.cycles;
        a.l1d_misses += b.l1d_misses;
        a.l3_misses += b.l3_misses;
        a.itlb_misses += b.itlb_misses;
        a.branch_mispredicts += b.branch_mispredicts;
        self.rerandomizations += stats.rerandomizations;
        self.relocations += stats.code.relocations;
        self.callback_calls += calls;
        self.busy_ns += busy_ns;
    }
}

/// A run's simulated results: sample bits, every counter, the return
/// value and the period count.
fn run_bytes(r: &RunReport) -> Vec<u8> {
    let c = &r.counters;
    [
        r.seconds().to_bits(),
        r.cycles,
        r.instructions,
        c.instructions,
        c.cycles,
        c.l1i_misses,
        c.l1d_misses,
        c.l2_misses,
        c.l3_misses,
        c.itlb_misses,
        c.dtlb_misses,
        c.branches,
        c.branch_mispredicts,
        r.return_value.unwrap_or(u64::MAX),
        r.periods.len() as u64,
    ]
    .iter()
    .flat_map(|w| w.to_le_bytes())
    .collect()
}

/// A copy of `sz_harness::runner`'s private seed-mixing fingerprint;
/// the traced replica's bit-identity with the untraced run pins it.
fn program_fingerprint(p: &Program) -> u64 {
    let mut h = SplitMix64::new(p.code_size());
    let mut acc = h.next_u64();
    for f in &p.functions {
        let mut g = SplitMix64::new(
            f.code_size() ^ (u64::from(f.num_regs) << 40) ^ (u64::from(f.num_slots) << 20),
        );
        acc = acc.rotate_left(7) ^ g.next_u64();
    }
    let mut g = SplitMix64::new(p.global_size() ^ (p.instr_count() as u64) << 13);
    acc ^ g.next_u64()
}
