//! CPU placement for the workloads that run on one CPU at a time.
//!
//! On a shared host one vCPU can run at half speed for seconds at a
//! time while another guest keeps its core busy. A workload that stays
//! on one CPU would then read slow for a whole run, so serve_hit and
//! sentinel_replay move between the CPUs they may use, round robin, and
//! every op class gets samples from each CPU; its lower quartile then
//! comes from the quieter ones.

use std::sync::OnceLock;

/// Words of a `cpu_set_t` (1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs the process may run on, as first seen, before any pinning.
pub fn allowed() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(|| {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a writable cpu_set_t of the size passed
        // that outlives the call; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
            return Vec::new();
        }
        (0..MASK_WORDS * 64)
            .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    })
}

/// Confines every thread of the process to the `turn`th allowed CPU,
/// round robin; threads started afterwards inherit it. Where the CPUs
/// cannot be read or set, placement is left to the scheduler.
pub fn pin_process(turn: usize) {
    let cpus = allowed();
    if !cpus.is_empty() {
        confine_process(&[cpus[turn % cpus.len()]]);
    }
}

/// Lets every thread of the process run on every allowed CPU again.
pub fn unpin_process() {
    let cpus = allowed();
    if !cpus.is_empty() {
        confine_process(cpus);
    }
}

/// Confines the calling thread alone to the `turn`th allowed CPU.
pub fn pin_thread(turn: usize) {
    let cpus = allowed();
    if !cpus.is_empty() {
        confine(0, &[cpus[turn % cpus.len()]]);
    }
}

fn confine_process(cpus: &[usize]) {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return;
    };
    for tid in tasks.filter_map(|t| t.ok()?.file_name().to_str()?.parse::<i32>().ok()) {
        confine(tid, cpus);
    }
}

/// Confines thread `tid` (0: the calling thread) to `cpus`. A thread
/// that has exited makes the call fail, which leaves nothing changed.
fn confine(tid: i32, cpus: &[usize]) {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a readable cpu_set_t of the size passed that
    // outlives the call.
    unsafe {
        sched_setaffinity(tid, size_of_val(&mask), mask.as_ptr());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpus_of_a_new_thread() -> String {
        let status = std::thread::spawn(|| std::fs::read_to_string("/proc/thread-self/status"))
            .join()
            .expect("the probe thread")
            .expect("/proc/thread-self/status");
        status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .map_or_else(String::new, |l| l.trim().to_string())
    }

    #[test]
    fn pinning_confines_the_threads_started_afterwards() {
        let cpus = allowed();
        assert!(!cpus.is_empty(), "the affinity mask is readable");
        pin_process(cpus.len() - 1);
        // Tests that run alongside may pin the process too, each to a
        // single CPU, so only that much is certain.
        let pinned = cpus_of_a_new_thread();
        // Other tests share the process: give them every CPU back.
        unpin_process();
        assert!(
            cpus.iter().any(|c| c.to_string() == pinned),
            "{pinned:?} is not one of {cpus:?}"
        );
    }
}
