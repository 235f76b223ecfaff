//! Outside-in tracing: spans around the calls the benchmark makes into
//! each layer's public functions, plus per-run aggregates for calls
//! too frequent to span one by one (layout-engine callbacks).
//!
//! Spans are kept in memory and written as JSONL when the run ends.
//! Every duration is corrected for the cost of reading the clock, which
//! is calibrated when the tracer is created.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sz_harness::Json;
use sz_ir::{FuncId, GlobalId, Program};
use sz_machine::{MemorySystem, PerfCounters};
use sz_vm::{FrameView, LayoutEngine};

/// Spans kept for the JSONL file; beyond this only the per-layer
/// totals are updated (the file notes how many were dropped).
const MAX_SPANS: usize = 250_000;

#[derive(Debug, Default, Clone, Copy)]
struct Total {
    ns: f64,
    calls: u64,
}

#[derive(Debug)]
enum Record {
    Span {
        id: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u64>,
        req: Option<u64>,
        thread: u64,
    },
    Aggregate {
        name: &'static str,
        req: u64,
        calls: u64,
        ns: f64,
    },
}

#[derive(Debug, Default)]
struct State {
    records: Vec<Record>,
    dropped: u64,
    totals: BTreeMap<&'static str, Total>,
}

/// The span recorder shared by every thread of a traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    clock_ns: f64,
    next_id: AtomicU64,
    state: Mutex<State>,
}

thread_local! {
    static THREAD: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

/// An open span; [`Span::end`] records it.
#[derive(Debug)]
pub struct Span<'t> {
    tracer: &'t Tracer,
    id: u64,
    name: &'static str,
    start: Instant,
    parent: Option<u64>,
    req: Option<u64>,
}

impl Span<'_> {
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Closes the span; returns its corrected duration in ns.
    pub fn end(self) -> f64 {
        let end = Instant::now();
        self.tracer
            .record(self.id, self.name, self.start, end, self.parent, self.req)
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            clock_ns: calibrate_clock(),
            next_id: AtomicU64::new(1),
            state: Mutex::new(State::default()),
        }
    }

    /// Cost of one clock read, in ns.
    pub fn clock_ns(&self) -> f64 {
        self.clock_ns
    }

    pub fn span(&self, name: &'static str, parent: Option<u64>, req: Option<u64>) -> Span<'_> {
        Span {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            name,
            start: Instant::now(),
            parent,
            req,
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        req: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.span(name, parent, req);
        let out = f();
        span.end();
        out
    }

    /// Records a span whose endpoints were taken elsewhere (e.g. by the
    /// serve client); returns its id.
    pub fn span_at(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
        req: Option<u64>,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.record(id, name, start, end, parent, req);
        id
    }

    fn record(
        &self,
        id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
        req: Option<u64>,
    ) -> f64 {
        let raw = end.saturating_duration_since(start).as_nanos() as f64;
        let ns = (raw - self.clock_ns).max(0.0);
        let mut state = self.state.lock().expect("tracer lock");
        let total = state.totals.entry(name).or_default();
        total.ns += ns;
        total.calls += 1;
        if state.records.len() < MAX_SPANS {
            let since = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
            state.records.push(Record::Span {
                id,
                name,
                start_ns: since(start),
                end_ns: since(end),
                parent,
                req,
                thread: THREAD.with(|t| *t),
            });
        } else {
            state.dropped += 1;
        }
        ns
    }

    /// Adds `calls` pre-aggregated timings of `name` measured during
    /// request `req` (raw ns, corrected here).
    pub fn aggregate(&self, name: &'static str, req: u64, calls: u64, raw_ns: u64) {
        let ns = (raw_ns as f64 - calls as f64 * self.clock_ns).max(0.0);
        let mut state = self.state.lock().expect("tracer lock");
        let total = state.totals.entry(name).or_default();
        total.ns += ns;
        total.calls += calls;
        if state.records.len() < MAX_SPANS {
            state.records.push(Record::Aggregate {
                name,
                req,
                calls,
                ns,
            });
        } else {
            state.dropped += 1;
        }
    }

    /// Corrected thread-seconds spent in `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.total(name).ns / 1e9
    }

    /// Calls recorded for `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.total(name).calls
    }

    fn total(&self, name: &str) -> Total {
        let state = self.state.lock().expect("tracer lock");
        state.totals.get(name).copied().unwrap_or_default()
    }

    /// Writes the header, every kept record, and a closing line with
    /// the dropped-span count as JSONL.
    pub fn write_jsonl(&self, path: &Path, header: &Json) -> std::io::Result<()> {
        let state = self.state.lock().expect("tracer lock");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        let opt = |v: Option<u64>| v.map_or(Json::Null, Json::U64);
        for record in &state.records {
            let line = match record {
                Record::Span {
                    id,
                    name,
                    start_ns,
                    end_ns,
                    parent,
                    req,
                    thread,
                } => Json::obj([
                    ("type", "span".into()),
                    ("id", (*id).into()),
                    ("name", (*name).into()),
                    ("start_ns", (*start_ns).into()),
                    ("end_ns", (*end_ns).into()),
                    ("parent", opt(*parent)),
                    ("req", opt(*req)),
                    ("thread", (*thread).into()),
                ]),
                Record::Aggregate {
                    name,
                    req,
                    calls,
                    ns,
                } => Json::obj([
                    ("type", "aggregate".into()),
                    ("name", (*name).into()),
                    ("req", (*req).into()),
                    ("calls", (*calls).into()),
                    ("ns", Json::F64(*ns)),
                ]),
            };
            writeln!(out, "{line}")?;
        }
        writeln!(
            out,
            "{}",
            Json::obj([
                ("type", "end".into()),
                ("kept", state.records.len().into()),
                ("dropped", state.dropped.into()),
                ("clock_ns", Json::F64(self.clock_ns)),
            ])
        )?;
        out.flush()
    }
}

/// Median cost of one `Instant::now()` over a few batches.
fn calibrate_clock() -> f64 {
    const READS: u32 = 2_000;
    let mut batches: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..READS {
                std::hint::black_box(Instant::now());
            }
            start.elapsed().as_nanos() as f64 / f64::from(READS)
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}

/// Callback kinds a [`TimedEngine`] aggregates.
pub const ENGINE_CALLBACKS: [&str; 5] = [
    "core.engine_prepare",
    "core.enter",
    "core.pad",
    "core.tick",
    "szheap.malloc_free",
];

/// Wraps a layout engine and times every callback the VM makes into
/// it, as one count and one raw ns sum per kind (never a span per
/// call). Answers pass through unchanged, so runs stay bit-identical.
#[derive(Debug)]
pub struct TimedEngine<E> {
    pub inner: E,
    /// `(calls, raw ns)` per [`ENGINE_CALLBACKS`] entry.
    pub counts: [(u64, u64); 5],
}

impl<E: LayoutEngine> TimedEngine<E> {
    pub fn new(inner: E) -> Self {
        TimedEngine {
            inner,
            counts: [(0, 0); 5],
        }
    }

    fn timed<T>(&mut self, kind: usize, f: impl FnOnce(&mut E) -> T) -> T {
        let start = Instant::now();
        let out = f(&mut self.inner);
        let slot = &mut self.counts[kind];
        slot.0 += 1;
        slot.1 += start.elapsed().as_nanos() as u64;
        out
    }
}

impl<E: LayoutEngine> LayoutEngine for TimedEngine<E> {
    fn prepare(&mut self, program: &Program) {
        self.timed(0, |e| e.prepare(program));
    }

    fn enter_function(&mut self, func: FuncId, mem: &mut MemorySystem) -> u64 {
        self.timed(1, |e| e.enter_function(func, mem))
    }

    fn stack_pad(&mut self, func: FuncId, mem: &mut MemorySystem) -> u64 {
        self.timed(2, |e| e.stack_pad(func, mem))
    }

    fn global_base(&self, g: GlobalId) -> u64 {
        self.inner.global_base(g)
    }

    fn stack_base(&self) -> u64 {
        self.inner.stack_base()
    }

    fn malloc(&mut self, size: u64, mem: &mut MemorySystem) -> Option<u64> {
        self.timed(4, |e| e.malloc(size, mem))
    }

    fn free(&mut self, addr: u64, mem: &mut MemorySystem) -> bool {
        self.timed(4, |e| e.free(addr, mem))
    }

    fn tick(&mut self, now_cycles: u64, stack: &[FrameView], mem: &mut MemorySystem) {
        self.timed(3, |e| e.tick(now_cycles, stack, mem));
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn period_marks(&self) -> &[PerfCounters] {
        self.inner.period_marks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_records_follow_spans_and_aggregates() {
        let tracer = Tracer::new();
        assert!(tracer.clock_ns() > 0.0 && tracer.clock_ns() < 10_000.0);
        let outer = tracer.span("outer", None, Some(7));
        let inner = tracer.time("inner", Some(outer.id()), Some(7), || 42);
        assert_eq!(inner, 42);
        outer.end();
        tracer.aggregate("cb", 7, 10, 1_000_000);
        assert_eq!(tracer.calls("inner"), 1);
        assert_eq!(tracer.calls("cb"), 10);
        let cb = tracer.seconds("cb");
        assert!(cb > 0.0 && cb <= 1e-3);
        assert_eq!(tracer.seconds("absent"), 0.0);
    }
}
