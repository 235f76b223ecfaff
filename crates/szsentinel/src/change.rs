//! Rolling two-window change-point detection.
//!
//! "Did this metric shift?" is framed exactly the way the batch
//! harness frames "is B slower than A?": the last `2w` samples are
//! split into an old window and a new window and judged as
//! `sz_stats::judge` would judge them, combining a bootstrap
//! effect-size CI with the ±band practical-equivalence call and a
//! Welch interval. A change is flagged only on a robustly-slower or
//! robustly-faster verdict — there is no fixed percentage threshold
//! anywhere in this path; the band is the practical-equivalence
//! region of the statistical verdict, not a trip-wire on the point
//! estimate.
//!
//! A hysteresis latch keeps one shift from alerting on every sample
//! while it straddles the windows: after an alert the detector
//! disarms, and re-arms only once the two windows are judged
//! *equivalent* again (i.e. the trajectory has settled at its new
//! level).
//!
//! The detector keeps only the verdict class of a window that does
//! not alert, and the windows alone usually settle that class.
//! `sz_stats::prejudge` says so exactly, from the windows' extremes,
//! means and variances: when every bootstrap ratio must fall inside
//! the band the windows are equivalent, and when the Welch interval
//! must hold zero no robust call is possible. Only the windows it
//! leaves open, and those it calls never-robust while the detector is
//! disarmed (an equivalent verdict would re-arm it), run `judge`'s
//! 1,000 resamples and t bisection. The alerts and the latch are the
//! ones an eager `judge` on every window would produce, bit for bit.

use sz_harness::RingBuffer;
use sz_stats::{judge, prejudge, EffectVerdict, Prejudged, VerdictConfig, VerdictReport};

/// Change-point detector parameters.
#[derive(Debug, Clone)]
pub struct ChangeConfig {
    /// Samples per window; the test needs `2 * window` samples.
    pub window: usize,
    /// Ring capacity (rounded up to a power of two); only the most
    /// recent samples are retained.
    pub capacity: usize,
    /// Statistical verdict parameters (band, confidence, bootstrap
    /// resamples, seed).
    pub verdict: VerdictConfig,
}

impl Default for ChangeConfig {
    fn default() -> ChangeConfig {
        ChangeConfig {
            window: 4,
            capacity: 64,
            verdict: VerdictConfig::default(),
        }
    }
}

/// A flagged shift: the statistical report plus the exact windows
/// that produced it.
#[derive(Debug, Clone)]
pub struct ChangeAlert {
    /// Arrival index (0-based) of the sample that completed the new
    /// window.
    pub at: u64,
    /// Full verdict report (effect CI, Welch CI, band, sizes).
    pub report: VerdictReport,
    /// The old window, oldest first.
    pub old_window: Vec<f64>,
    /// The new window, oldest first.
    pub new_window: Vec<f64>,
}

/// Online detector over one scalar metric trajectory.
#[derive(Debug)]
pub struct ChangePointDetector {
    config: ChangeConfig,
    samples: RingBuffer<f64>,
    pushed: u64,
    armed: bool,
}

impl ChangePointDetector {
    /// Creates a detector; `config.capacity` is clamped to at least
    /// `2 * window` so a full test is always possible.
    ///
    /// # Panics
    ///
    /// Panics on a verdict config [`VerdictConfig::check`] rejects,
    /// here rather than at the first window `judge` runs on.
    pub fn new(config: ChangeConfig) -> ChangePointDetector {
        if let Err(e) = config.verdict.check() {
            panic!("invalid change-point config: {e}");
        }
        let capacity = config.capacity.max(config.window.max(1) * 2);
        ChangePointDetector {
            samples: RingBuffer::new(capacity),
            config,
            pushed: 0,
            armed: true,
        }
    }

    /// Total samples pushed (arrival index of the next sample).
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Feeds one sample; returns an alert when the two-window test
    /// reaches a robust verdict while the detector is armed.
    ///
    /// Samples that are non-finite or non-positive still advance the
    /// trajectory but windows containing them are not judged (the
    /// bootstrap ratio CI is only defined over positive values).
    ///
    /// Each judgeable window goes to `prejudge` first. A window it
    /// calls equivalent re-arms the detector without `judge`. One it
    /// calls never-robust cannot alert, so an armed detector skips it;
    /// a disarmed one still runs `judge`, whose equivalent verdict
    /// would re-arm it. Every other window runs `judge`.
    pub fn push(&mut self, value: f64) -> Option<ChangeAlert> {
        self.samples.push(value);
        let at = self.pushed;
        self.pushed += 1;

        let w = self.config.window.max(1);
        let len = self.samples.len();
        if len < 2 * w {
            return None;
        }
        let tail: Vec<f64> = self.samples.iter().skip(len - 2 * w).copied().collect();
        let (old_window, new_window) = tail.split_at(w);
        if tail.iter().any(|v| !v.is_finite() || *v <= 0.0) {
            return None;
        }
        match prejudge(old_window, new_window, &self.config.verdict) {
            Prejudged::Equivalent => {
                self.armed = true;
                return None;
            }
            Prejudged::NeverRobust if self.armed => return None,
            Prejudged::NeverRobust | Prejudged::Open => {}
        }
        let report = judge(old_window, new_window, &self.config.verdict).ok()?;
        match report.verdict {
            EffectVerdict::RobustlySlower | EffectVerdict::RobustlyFaster => {
                if self.armed {
                    self.armed = false;
                    return Some(ChangeAlert {
                        at,
                        report,
                        old_window: old_window.to_vec(),
                        new_window: new_window.to_vec(),
                    });
                }
            }
            EffectVerdict::Equivalent => self.armed = true,
            EffectVerdict::Inconclusive => {}
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sz_rng::{Rng, SplitMix64};

    fn noisy(rng: &mut SplitMix64, mean: f64) -> f64 {
        // Irwin–Hall-ish noise: bounded, symmetric, cheap.
        let u = rng.next_f64() + rng.next_f64() + rng.next_f64() - 1.5;
        mean * (1.0 + 0.01 * u)
    }

    #[test]
    fn needs_two_full_windows() {
        let mut det = ChangePointDetector::new(ChangeConfig::default());
        for i in 0..7 {
            assert!(det.push(1.0 + i as f64 * 1e-6).is_none());
        }
        assert_eq!(det.pushed(), 7);
    }

    #[test]
    fn step_change_alerts_once_then_relatches() {
        let mut det = ChangePointDetector::new(ChangeConfig::default());
        let mut rng = SplitMix64::new(42);
        let mut alerts = Vec::new();
        for i in 0..24 {
            let mean = if i < 12 { 10.0 } else { 15.0 };
            if let Some(alert) = det.push(noisy(&mut rng, mean)) {
                alerts.push(alert);
            }
        }
        assert_eq!(alerts.len(), 1, "one step, one alert");
        let alert = &alerts[0];
        assert_eq!(alert.report.verdict, EffectVerdict::RobustlySlower);
        assert!(alert.at >= 12, "alert fires after the shift");
        assert_eq!(alert.old_window.len(), 4);
        assert_eq!(alert.new_window.len(), 4);

        // A second, later step re-alerts because the windows settled
        // (equivalent) in between.
        for i in 0..16 {
            let mean = if i < 8 { 15.0 } else { 22.0 };
            if let Some(alert) = det.push(noisy(&mut rng, mean)) {
                alerts.push(alert);
            }
        }
        assert_eq!(alerts.len(), 2, "detector re-arms after settling");
    }

    #[test]
    fn clean_stream_stays_silent() {
        let mut det = ChangePointDetector::new(ChangeConfig::default());
        let mut rng = SplitMix64::new(7);
        for _ in 0..64 {
            assert!(det.push(noisy(&mut rng, 10.0)).is_none());
        }
    }

    /// An eager detector that runs `judge` on every judgeable window:
    /// the oracle the lazy `push` must match.
    struct Eager {
        config: ChangeConfig,
        samples: RingBuffer<f64>,
        pushed: u64,
        armed: bool,
    }

    impl Eager {
        fn new(config: ChangeConfig) -> Eager {
            let capacity = config.capacity.max(config.window.max(1) * 2);
            Eager {
                samples: RingBuffer::new(capacity),
                config,
                pushed: 0,
                armed: true,
            }
        }

        fn push(&mut self, value: f64) -> Option<ChangeAlert> {
            self.samples.push(value);
            let at = self.pushed;
            self.pushed += 1;
            let w = self.config.window.max(1);
            let len = self.samples.len();
            if len < 2 * w {
                return None;
            }
            let tail: Vec<f64> = self.samples.iter().skip(len - 2 * w).copied().collect();
            let (old_window, new_window) = tail.split_at(w);
            if tail.iter().any(|v| !v.is_finite() || *v <= 0.0) {
                return None;
            }
            let report = judge(old_window, new_window, &self.config.verdict).ok()?;
            match report.verdict {
                EffectVerdict::RobustlySlower | EffectVerdict::RobustlyFaster => {
                    if self.armed {
                        self.armed = false;
                        return Some(ChangeAlert {
                            at,
                            report,
                            old_window: old_window.to_vec(),
                            new_window: new_window.to_vec(),
                        });
                    }
                }
                EffectVerdict::Equivalent => self.armed = true,
                EffectVerdict::Inconclusive => {}
            }
            None
        }
    }

    /// Everything an alert publishes, with the floats as bits.
    fn alert_bits(alert: &ChangeAlert) -> (u64, EffectVerdict, [u64; 5], Vec<u64>, Vec<u64>) {
        let r = &alert.report;
        let bits = |w: &[f64]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        (
            alert.at,
            r.verdict,
            [
                r.effect.ratio,
                r.effect.lo,
                r.effect.hi,
                r.welch.lo,
                r.welch.hi,
            ]
            .map(f64::to_bits),
            bits(&alert.old_window),
            bits(&alert.new_window),
        )
    }

    /// One seeded stream: a level path (clean, stepped up or down,
    /// stepped then settled, or drifting) under 0–10% noise, with the
    /// odd zero, NaN or negative sample.
    fn stream(rng: &mut SplitMix64, kind: u64, len: usize) -> Vec<f64> {
        let noise = 0.1 * rng.next_f64();
        let step = 1.0 + 0.6 * rng.next_f64();
        let step = if rng.chance(0.5) { step } else { 1.0 / step };
        let at = len / 3 + rng.below(len as u64 / 3) as usize;
        let drift = 0.02 * (2.0 * rng.next_f64() - 1.0);
        (0..len)
            .map(|i| {
                let level = match kind {
                    0 => 1.0,
                    1 if i >= at => step,
                    2 if i >= at && i < at + len / 4 => step,
                    3 => 1.0 + drift * i as f64,
                    _ => 1.0,
                };
                match rng.below(100) {
                    0 => 0.0,
                    1 => f64::NAN,
                    2 => -level,
                    _ => level * (1.0 + noise * (2.0 * rng.next_f64() - 1.0)),
                }
            })
            .collect()
    }

    #[test]
    fn lazy_push_matches_an_eager_judge_on_every_sample() {
        let mut rng = SplitMix64::new(0x1A2F_D1FF);
        let (mut alerts, mut judged_streams) = (0, 0);
        for case in 0..2_000u64 {
            let window = 1 + (case % 6) as usize;
            let config = ChangeConfig {
                window,
                capacity: 64,
                verdict: VerdictConfig {
                    band: 0.01 + 0.19 * rng.next_f64(),
                    confidence: [0.8, 0.95, 0.99][(case / 6 % 3) as usize],
                    resamples: 200,
                    ..VerdictConfig::default()
                },
            };
            let mut lazy = ChangePointDetector::new(config.clone());
            let mut eager = Eager::new(config);
            let kind = case / 18 % 4;
            let len = 2 * window * (3 + rng.below(4) as usize);
            let samples = stream(&mut rng, kind, len);
            let mut disarmed = false;
            for (i, &v) in samples.iter().enumerate() {
                let (l, e) = (lazy.push(v), eager.push(v));
                assert_eq!(
                    l.as_ref().map(alert_bits),
                    e.as_ref().map(alert_bits),
                    "case {case}, sample {i}"
                );
                assert_eq!(lazy.armed, eager.armed, "case {case}, sample {i}");
                alerts += usize::from(e.is_some());
                disarmed |= !eager.armed;
            }
            judged_streams += usize::from(disarmed);
        }
        // The streams must reach the disarmed latch, where a
        // never-robust window still needs `judge`.
        assert!(alerts > 200 && judged_streams > 200, "{alerts} alerts");
    }

    #[test]
    fn out_of_range_verdict_configs_panic_at_construction() {
        for verdict in [
            VerdictConfig {
                band: 0.0,
                ..VerdictConfig::default()
            },
            VerdictConfig {
                band: f64::INFINITY,
                ..VerdictConfig::default()
            },
            VerdictConfig {
                confidence: 1.0,
                ..VerdictConfig::default()
            },
            VerdictConfig {
                confidence: f64::NAN,
                ..VerdictConfig::default()
            },
            VerdictConfig {
                resamples: 1,
                ..VerdictConfig::default()
            },
        ] {
            let config = ChangeConfig {
                verdict,
                ..ChangeConfig::default()
            };
            let built = std::panic::catch_unwind(|| ChangePointDetector::new(config));
            assert!(built.is_err(), "{verdict:?} was accepted");
        }
    }

    #[test]
    fn non_positive_windows_are_skipped() {
        let mut det = ChangePointDetector::new(ChangeConfig::default());
        for _ in 0..8 {
            assert!(det.push(0.0).is_none());
        }
        for i in 0..8 {
            // Windows still contain the zeros at first; no panic, no
            // alert from undefined ratios.
            let _ = det.push(10.0 + i as f64 * 1e-3);
        }
    }
}
