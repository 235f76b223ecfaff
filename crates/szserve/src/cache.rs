//! The content-addressed result cache.
//!
//! Experiment runs in this workspace are *deterministic*: for a given
//! (experiment, options, seed range, engine config, workload scale)
//! the sample vectors and per-period snapshots are bit-identical on
//! every machine and for every worker-thread count (pinned by
//! `tests/determinism.rs`). That turns caching from a heuristic into
//! an identity: a hit returns the exact bytes a cold run would
//! produce.
//!
//! ## Key canonicalization rules
//!
//! The key is a 128-bit FNV-1a hash of a canonical description string
//! built from, in order:
//!
//! 1. the experiment's wire name;
//! 2. the benchmark filter — `all`, or the requested names joined
//!    with `,` in request order (the suite itself is alphabetical, so
//!    distinct orders are distinct requests by design);
//! 3. the workload scale's wire name;
//! 4. `runs`, `seed_base`, and the re-randomization interval as the
//!    raw bits of its `f64` nanosecond value;
//! 5. the full machine configuration (`Debug` form of
//!    [`sz_machine::MachineConfig`] — every cache/TLB geometry, cost,
//!    and clock field);
//! 6. the layout-engine configuration (`Debug` form of
//!    [`stabilizer::Config`] with the per-run seed zeroed — the real
//!    seeds derive from `seed_base`, which is already in the key);
//! 7. for `evaluate`: the before/after optimization levels and the
//!    adaptive parameters (half-width bits, confidence bits, batch,
//!    min/max runs) or `fixed`.
//!
//! Excluded on purpose: `threads` (results are thread-invariant),
//! `trace` (tracing selects what is *streamed*, not what is
//! computed), `wait`, and `deadline_ms` (scheduling hints). The full
//! canonical string is stored alongside each entry and compared on
//! lookup, so a 128-bit hash collision degrades to a miss, never to a
//! wrong result.

use std::collections::HashMap;
use std::sync::Arc;

use sz_harness::Json;

use crate::exec::JobOutput;
use crate::proto::{scale_wire_name, Experiment, RunRequest};

/// A content-address: the hash used for lookup plus the canonical
/// string it was derived from (kept to rule out collisions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    /// 128-bit FNV-1a of the canonical string.
    pub hash: u128,
    /// The canonical description the hash commits to.
    pub canonical: String,
}

impl CacheKey {
    /// The key as 32 lowercase hex digits (the wire representation).
    pub fn hex(&self) -> String {
        format!("{:032x}", self.hash)
    }
}

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013B;

/// 128-bit FNV-1a — the same hash the cache keys use.
pub fn fnv1a_128(bytes: &[u8]) -> u128 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Builds the content-address of a run request (see the module docs
/// for the canonicalization rules).
pub fn cache_key(spec: &RunRequest) -> CacheKey {
    let machine = sz_machine::MachineConfig::core_i3_550();
    let engine = stabilizer::Config::default().with_seed(0);
    let interval_bits = sz_machine::SimTime::from_millis(spec.interval_ms)
        .as_nanos()
        .to_bits();
    let benchmarks = match &spec.benchmarks {
        None => "all".to_string(),
        Some(names) => names.join(","),
    };
    let mode = match (&spec.experiment, &spec.adaptive) {
        (Experiment::Evaluate, Some(a)) => format!(
            "{}->{};adaptive{{hw={:016x},conf={:016x},batch={},min={},max={}}}",
            spec.before_opt,
            spec.after_opt,
            a.half_width.to_bits(),
            a.confidence.to_bits(),
            a.batch,
            a.min_runs,
            a.max_runs,
        ),
        (Experiment::Evaluate, None) => {
            format!("{}->{};fixed", spec.before_opt, spec.after_opt)
        }
        _ => "-".to_string(),
    };
    let canonical = format!(
        "experiment={};benchmarks={};scale={};runs={};seed_base={:#018x};interval_ns_bits={:016x};machine={:?};engine={:?};mode={}",
        spec.experiment.name(),
        benchmarks,
        scale_wire_name(spec.scale),
        spec.runs,
        spec.seed_base,
        interval_bits,
        machine,
        engine,
        mode,
    );
    CacheKey {
        hash: fnv1a_128(canonical.as_bytes()),
        canonical,
    }
}

struct Entry {
    canonical: String,
    value: Arc<JobOutput>,
    bytes: usize,
    last_used: u64,
}

/// Monotonic counters surfaced via the `stats` request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a cached result.
    pub hits: u64,
    /// Lookups that found nothing (or a hash collision).
    pub misses: u64,
    /// Entries stored.
    pub insertions: u64,
    /// Entries displaced by the LRU byte budget.
    pub evictions: u64,
    /// Results too large to ever fit the budget, never stored.
    pub oversize_rejections: u64,
    /// Live entries.
    pub entries: usize,
    /// Bytes currently held.
    pub bytes: usize,
    /// Configured byte budget.
    pub budget_bytes: usize,
}

/// An LRU result cache with a byte budget.
pub struct ResultCache {
    budget: usize,
    used: usize,
    clock: u64,
    map: HashMap<u128, Entry>,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    oversize_rejections: u64,
}

impl ResultCache {
    /// Creates a cache bounded to `budget` bytes of stored results.
    pub fn new(budget: usize) -> ResultCache {
        ResultCache {
            budget,
            used: 0,
            clock: 0,
            map: HashMap::new(),
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
            oversize_rejections: 0,
        }
    }

    /// Looks up a key, bumping its recency on a hit. A hash match
    /// whose canonical string differs (a collision) counts as a miss.
    pub fn get(&mut self, key: &CacheKey) -> Option<Arc<JobOutput>> {
        self.clock += 1;
        match self.map.get_mut(&key.hash) {
            Some(entry) if entry.canonical == key.canonical => {
                entry.last_used = self.clock;
                self.hits += 1;
                Some(Arc::clone(&entry.value))
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores a result, evicting least-recently-used entries until the
    /// byte budget holds. A result larger than the whole budget is
    /// rejected (and counted) rather than flushing the cache for a
    /// value that still cannot fit.
    pub fn insert(&mut self, key: &CacheKey, value: Arc<JobOutput>) {
        let bytes = value.byte_size() + key.canonical.len();
        if bytes > self.budget {
            self.oversize_rejections += 1;
            return;
        }
        self.clock += 1;
        if let Some(old) = self.map.remove(&key.hash) {
            self.used -= old.bytes;
        }
        while self.used + bytes > self.budget {
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&h, _)| h)
                .expect("used > 0 implies a resident entry");
            let evicted = self.map.remove(&oldest).expect("key just observed");
            self.used -= evicted.bytes;
            self.evictions += 1;
        }
        self.used += bytes;
        self.insertions += 1;
        self.map.insert(
            key.hash,
            Entry {
                canonical: key.canonical.clone(),
                value,
                bytes,
                last_used: self.clock,
            },
        );
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            insertions: self.insertions,
            evictions: self.evictions,
            oversize_rejections: self.oversize_rejections,
            entries: self.map.len(),
            bytes: self.used,
            budget_bytes: self.budget,
        }
    }

    /// Counters as a wire object for the `stats` response.
    pub fn stats_json(&self) -> Json {
        let s = self.stats();
        Json::obj([
            ("hits", s.hits.into()),
            ("misses", s.misses.into()),
            ("insertions", s.insertions.into()),
            ("evictions", s.evictions.into()),
            ("oversize_rejections", s.oversize_rejections.into()),
            ("entries", s.entries.into()),
            ("bytes", s.bytes.into()),
            ("budget_bytes", s.budget_bytes.into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::AdaptiveParams;

    fn output(tag: &str, payload: usize) -> Arc<JobOutput> {
        Arc::new(JobOutput {
            trace: "x".repeat(payload),
            summary: Json::obj([("tag", tag.into())]),
            samples_used: 1,
            samples_saved: 0,
        })
    }

    #[test]
    fn key_ignores_scheduling_hints_but_not_options() {
        let base = RunRequest::quick(Experiment::Fig7);
        let mut hinted = base.clone();
        hinted.threads = Some(13);
        hinted.trace = true;
        hinted.wait = false;
        hinted.deadline_ms = Some(99);
        assert_eq!(cache_key(&base), cache_key(&hinted));

        for (label, tweak) in [
            ("runs", {
                let mut r = base.clone();
                r.runs = 7;
                r
            }),
            ("seed", {
                let mut r = base.clone();
                r.seed_base = 1;
                r
            }),
            ("scale", {
                let mut r = base.clone();
                r.scale = sz_workloads::Scale::Small;
                r
            }),
            ("benchmarks", {
                let mut r = base.clone();
                r.benchmarks = Some(vec!["mcf".into()]);
                r
            }),
            ("interval", {
                let mut r = base.clone();
                r.interval_ms = 0.004;
                r
            }),
            ("experiment", {
                let mut r = base.clone();
                r.experiment = Experiment::Table1;
                r
            }),
        ] {
            assert_ne!(cache_key(&base), cache_key(&tweak), "{label} must key");
        }
    }

    #[test]
    fn evaluate_mode_enters_the_key() {
        let fixed = RunRequest::quick(Experiment::Evaluate);
        let mut adaptive = fixed.clone();
        adaptive.adaptive = Some(AdaptiveParams::default());
        let mut tighter = adaptive.clone();
        tighter.adaptive.as_mut().unwrap().half_width = 0.01;
        let mut other_levels = fixed.clone();
        other_levels.after_opt = "O3".to_string();
        let keys = [
            cache_key(&fixed),
            cache_key(&adaptive),
            cache_key(&tighter),
            cache_key(&other_levels),
        ];
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "modes {i} and {j} collide");
            }
        }
    }

    #[test]
    fn hit_returns_the_same_arc_and_counts() {
        let mut cache = ResultCache::new(1 << 20);
        let key = cache_key(&RunRequest::quick(Experiment::Table1));
        assert!(cache.get(&key).is_none());
        let value = output("a", 100);
        cache.insert(&key, Arc::clone(&value));
        let hit = cache.get(&key).expect("inserted");
        assert!(Arc::ptr_eq(&hit, &value), "hits share the stored bytes");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget_and_recency() {
        let mut reqs = Vec::new();
        for i in 0..3 {
            let mut r = RunRequest::quick(Experiment::Table1);
            r.seed_base = i;
            reqs.push(cache_key(&r));
        }
        // Seeds print fixed-width, so every entry costs the same; a
        // budget of 3.5 entries holds three but not four.
        let entry_cost = output("v", 700).byte_size() + reqs[0].canonical.len();
        let mut cache = ResultCache::new(3 * entry_cost + entry_cost / 2);
        for key in &reqs {
            cache.insert(key, output("v", 700));
        }
        assert_eq!(cache.stats().entries, 3);
        // Touch the oldest so the *middle* entry is now least recent.
        assert!(cache.get(&reqs[0]).is_some());
        let mut r = RunRequest::quick(Experiment::Table1);
        r.seed_base = 99;
        let newcomer = cache_key(&r);
        cache.insert(&newcomer, output("v", 700));
        assert!(cache.get(&reqs[1]).is_none(), "LRU entry was evicted");
        assert!(cache.get(&reqs[0]).is_some());
        assert!(cache.get(&reqs[2]).is_some());
        assert!(cache.get(&newcomer).is_some());
        let s = cache.stats();
        assert!(s.evictions >= 1);
        assert!(s.bytes <= s.budget_bytes);
    }

    #[test]
    fn oversize_results_are_rejected_not_thrashed() {
        let mut cache = ResultCache::new(500);
        let key = cache_key(&RunRequest::quick(Experiment::Table1));
        cache.insert(&key, output("big", 10_000));
        assert!(cache.get(&key).is_none());
        let s = cache.stats();
        assert_eq!(s.oversize_rejections, 1);
        assert_eq!(s.entries, 0);
    }

    #[test]
    fn reinsert_replaces_in_place() {
        let mut cache = ResultCache::new(10_000);
        let key = cache_key(&RunRequest::quick(Experiment::Table1));
        cache.insert(&key, output("one", 1_000));
        cache.insert(&key, output("two", 2_000));
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert!(s.bytes < 4_000, "old bytes were released: {}", s.bytes);
        let hit = cache.get(&key).unwrap();
        assert_eq!(hit.trace.len(), 2_000);
    }
}
