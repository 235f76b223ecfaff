//! The yardstick: a small fixed interpreter, kept in the benchmark's
//! own files so no change to the crates can move it, timed on every CPU
//! before, during and after the measured phase.
//!
//! Besides the other guests that slow one vCPU for moments at a time
//! (see `metrics::OpTimes`), the whole host changes speed for minutes at
//! a time, like a clock frequency would: the simulator, the JSON parser
//! and plain integer loops slowed by the same 10–25% together, with no
//! steal time showing. Dividing by the yardstick's fastest slice
//! cancels that. End-to-end times are reported for a host that runs one
//! slice in [`NOMINAL_NS`], about what a 2.0 GHz Xeon vCPU takes; the
//! raw figures and the factor are printed beside them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::cpus;

/// Instructions one slice interprets (about 1 ms).
const STEPS: usize = 95_000;
/// Slices each CPU runs back to back per [`Yardstick::sample`].
const SLICES: usize = 40;
/// How often each CPU runs one slice during [`Yardstick::during`].
const TICK: Duration = Duration::from_millis(100);
/// The time of one slice the end-to-end times are scaled to.
pub const NOMINAL_NS: f64 = 1.0e6;

/// Instructions in the yardstick's program.
const CODE_LEN: usize = 4096;

/// The yardstick's program of one-byte instructions, from a fixed
/// xorshift stream: the top two bits pick the operation, the rest two
/// registers.
fn program() -> &'static [u8] {
    static CODE: OnceLock<Vec<u8>> = OnceLock::new();
    CODE.get_or_init(|| {
        let mut x = 0x5EED_CA1B_u64;
        (0..CODE_LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect()
    })
}

/// One slice: a small interpreter's dispatch loop over [`program`], with
/// registers, an 8 KiB memory and data-dependent jumps, the kind of
/// work the simulator and the fuzzer's interpreters do.
fn slice(code: &[u8]) -> u64 {
    let mut r = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let mut mem = [0u64; 1024];
    let mut pc = 0;
    for _ in 0..STEPS {
        let op = code[pc & (CODE_LEN - 1)];
        let (a, b) = (usize::from((op >> 3) & 7), usize::from(op & 7));
        match op >> 6 {
            0 => r[a] = r[a].wrapping_add(r[b]).wrapping_add(u64::from(op)),
            1 => r[a] ^= r[b].rotate_left(3) ^ pc as u64,
            2 => r[a] = r[a].wrapping_add(mem[(r[b] as usize) & 1023]),
            _ => {
                mem[(r[a] as usize) & 1023] = r[b];
                if r[b] & 1 == 1 {
                    pc += r[a] as usize & 15;
                }
            }
        }
        pc = (pc + 1) & (CODE_LEN - 1);
    }
    r.iter().fold(0, |x, y| x ^ y)
}

/// One slice's time, in ns.
fn timed_slice() -> u64 {
    let t = Instant::now();
    std::hint::black_box(slice(std::hint::black_box(program())));
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The fastest slice of a run and how many were timed.
#[derive(Debug)]
pub struct Yardstick {
    fastest_ns: u64,
    slices: usize,
}

impl Default for Yardstick {
    fn default() -> Self {
        Yardstick {
            fastest_ns: u64::MAX,
            slices: 0,
        }
    }
}

impl Yardstick {
    /// Runs [`SLICES`] slices on every allowed CPU at once, one thread
    /// pinned to each.
    pub fn sample(&mut self) {
        self.on_every_cpu(|turn| {
            cpus::pin_thread(turn);
            (0..SLICES).map(|_| timed_slice()).collect()
        });
    }

    /// Runs `work` while one thread per allowed CPU times a slice every
    /// [`TICK`], so the fastest slice comes from the same stretch of time
    /// as the work's fastest ops. A tick delays the op it interrupts,
    /// which only ever slows that op. Returns up to a tick after `work`.
    pub fn during<T>(&mut self, work: impl FnOnce() -> T) -> T {
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let ticking = scope.spawn(|| {
                let mut ticks = Yardstick::default();
                ticks.on_every_cpu(|turn| {
                    let mut ns = Vec::new();
                    loop {
                        // The workload may have moved the process since.
                        cpus::pin_thread(turn);
                        ns.push(timed_slice());
                        if done.load(Ordering::SeqCst) {
                            return ns;
                        }
                        std::thread::sleep(TICK);
                    }
                });
                ticks
            });
            let out = work();
            done.store(true, Ordering::SeqCst);
            let ticks = ticking.join().expect("the yardstick's ticking threads");
            self.fastest_ns = self.fastest_ns.min(ticks.fastest_ns);
            self.slices += ticks.slices;
            out
        })
    }

    /// Runs `job(turn)` on one thread per allowed CPU and keeps the
    /// slice times the threads return.
    fn on_every_cpu(&mut self, job: impl Fn(usize) -> Vec<u64> + Sync) {
        let turns = cpus::allowed().len().max(1);
        let times: Vec<u64> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..turns)
                .map(|turn| {
                    let job = &job;
                    scope.spawn(move || job(turn))
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().expect("a yardstick thread"))
                .collect()
        });
        self.slices += times.len();
        self.fastest_ns = times.into_iter().fold(self.fastest_ns, u64::min);
    }

    /// Slices timed.
    pub fn slices(&self) -> usize {
        self.slices
    }

    /// The host's slowness: its fastest slice over [`NOMINAL_NS`]. The
    /// fastest, as for the ops: it is the slice the other guests
    /// disturbed least. Timings are divided by it.
    pub fn slowness(&self) -> f64 {
        if self.slices == 0 {
            return 1.0;
        }
        self.fastest_ns as f64 / NOMINAL_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOLDEN: u64 = 0x9c74_ffec_cb20_2a3c;

    #[test]
    fn the_kernel_is_fixed_and_the_slowness_positive() {
        // The result pins the program and its interpreter: a changed
        // kernel is a changed yardstick, and every baseline moves with it.
        assert_eq!(slice(program()), GOLDEN);
        let cpus = cpus::allowed().len().max(1);
        let mut y = Yardstick::default();
        assert_eq!(y.slowness(), 1.0);
        y.sample();
        assert_eq!(y.slices(), SLICES * cpus);
        let answer = y.during(|| 42);
        assert_eq!(answer, 42);
        assert!(y.slices() > SLICES * cpus, "each CPU ticks at least once");
        assert!(y.slowness().is_finite() && y.slowness() > 0.0);
    }
}
