//! Practical-equivalence verdicts on performance comparisons.
//!
//! A p-value answers "is there *a* difference?"; a benchmark gate
//! needs "is the difference *big enough to care about*, and in which
//! direction?". Following the benchmark-defense rule popularized by
//! kiwi-rs-style CI gates, a comparison is judged against a
//! *practical-equivalence band* around a ratio of 1: effects inside
//! the band are noise by decree, and only an effect whose entire
//! confidence interval clears the band is "robust".
//!
//! The band is **multiplicative**: with `band = 0.05` the equivalence
//! region is `[1/1.05, 1.05]`, not `[0.95, 1.05]`. A multiplicative
//! band is symmetric in log space, which is what makes the verdict
//! flip exactly when the two arms are swapped (the bootstrap interval
//! maps to its reciprocal; see [`crate::bootstrap`]).
//!
//! Both interval estimators must agree before a comparison is called
//! robust: the bootstrap ratio CI must clear the band *and* the Welch
//! CI on the difference of means must exclude zero. Everything a
//! reader needs to audit the call — n per arm, both CIs, the band,
//! the bootstrap seed — travels in the [`VerdictReport`].
//!
//! A caller that needs only the verdict class, such as the sentinel's
//! change-point detector, can ask [`prejudge`] first: from the arms'
//! extremes, means and variances it says exactly when every bootstrap
//! ratio must fall inside the band, or when the Welch interval must
//! hold zero, and leaves the rest to [`judge`].

use crate::bootstrap::{effect_ci, effect_ci_hierarchical, EffectCi};
use crate::desc::{mean, sample_variance};
use crate::dist::Normal;
use crate::effect::{diff_ci, ConfidenceInterval};
use crate::StatError;

/// The four-way outcome of a practical-equivalence comparison of a
/// candidate `b` against a baseline `a` (times: smaller is better).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EffectVerdict {
    /// The whole ratio CI clears the band upward and Welch agrees:
    /// `b` is faster by more than the band.
    RobustlyFaster,
    /// The whole ratio CI clears the band downward and Welch agrees:
    /// `b` is slower by more than the band.
    RobustlySlower,
    /// The whole ratio CI lies inside the band: any difference is
    /// below the practical threshold.
    Equivalent,
    /// The CI straddles a band edge — more samples could still move
    /// the call.
    Inconclusive,
}

impl EffectVerdict {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            EffectVerdict::RobustlyFaster => "robustly-faster",
            EffectVerdict::RobustlySlower => "robustly-slower",
            EffectVerdict::Equivalent => "equivalent",
            EffectVerdict::Inconclusive => "inconclusive",
        }
    }

    /// Stable numeric discriminant, for golden-file pinning.
    pub fn code(self) -> u8 {
        match self {
            EffectVerdict::RobustlyFaster => 0,
            EffectVerdict::RobustlySlower => 1,
            EffectVerdict::Equivalent => 2,
            EffectVerdict::Inconclusive => 3,
        }
    }

    /// Whether the comparison has settled (anything but
    /// [`EffectVerdict::Inconclusive`]) — the adaptive sampler's
    /// stopping condition.
    pub fn is_decided(self) -> bool {
        !matches!(self, EffectVerdict::Inconclusive)
    }
}

impl std::fmt::Display for EffectVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Parameters of a practical-equivalence judgement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerdictConfig {
    /// Half-width of the multiplicative equivalence band: effects
    /// inside `[1/(1+band), 1+band]` are practically equivalent.
    pub band: f64,
    /// Confidence level of both intervals.
    pub confidence: f64,
    /// Bootstrap resamples.
    pub resamples: usize,
    /// Bootstrap seed.
    pub seed: u64,
}

impl Default for VerdictConfig {
    fn default() -> Self {
        VerdictConfig {
            band: 0.05,
            confidence: 0.95,
            resamples: 1000,
            seed: 0x5EED_B007,
        }
    }
}

/// A verdict with the publication-grade metadata needed to audit it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerdictReport {
    /// The four-way call.
    pub verdict: EffectVerdict,
    /// Bootstrap CI on `mean(a) / mean(b)`.
    pub effect: EffectCi,
    /// Welch CI on `mean(a) - mean(b)` (for hierarchical arms, over
    /// per-run means).
    pub welch: ConfidenceInterval,
    /// The equivalence band the verdict was judged against.
    pub band: f64,
    /// Total observations in the baseline arm.
    pub n_a: usize,
    /// Total observations in the candidate arm.
    pub n_b: usize,
}

impl VerdictConfig {
    /// Checks the ranges [`judge`] needs: a finite band above 0, a
    /// confidence strictly between 0 and 1, and at least 2 resamples.
    ///
    /// # Errors
    ///
    /// A message naming the first field out of range and its value.
    pub fn check(&self) -> Result<(), String> {
        if !(self.band > 0.0 && self.band.is_finite()) {
            return Err(format!("band must be finite and > 0, got {}", self.band));
        }
        if !(self.confidence > 0.0 && self.confidence < 1.0) {
            return Err(format!(
                "confidence must be in (0, 1), got {}",
                self.confidence
            ));
        }
        if self.resamples < 2 {
            return Err(format!(
                "resamples must be at least 2, got {}",
                self.resamples
            ));
        }
        Ok(())
    }
}

/// The band's edges `(γ, 1/γ)` with `γ = 1 + band`, computed once so
/// [`classify`] and [`prejudge`] compare against the same bits.
fn band_edges(band: f64) -> (f64, f64) {
    assert!(band > 0.0 && band.is_finite(), "band must be positive");
    let gamma = 1.0 + band;
    (gamma, 1.0 / gamma)
}

/// Classifies a bootstrap ratio CI + Welch difference CI against a
/// multiplicative equivalence band.
pub fn classify(effect: &EffectCi, welch: &ConfidenceInterval, band: f64) -> EffectVerdict {
    let (gamma, inv_gamma) = band_edges(band);
    if effect.lo > gamma && welch.lo > 0.0 {
        EffectVerdict::RobustlyFaster
    } else if effect.hi < inv_gamma && welch.hi < 0.0 {
        EffectVerdict::RobustlySlower
    } else if effect.lo >= inv_gamma && effect.hi <= gamma {
        EffectVerdict::Equivalent
    } else {
        EffectVerdict::Inconclusive
    }
}

/// What [`prejudge`] can tell about a [`judge`] call without running it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prejudged {
    /// Every bootstrap ratio lies inside the band, so `judge` returns
    /// [`EffectVerdict::Equivalent`].
    Equivalent,
    /// The Welch interval holds zero, so `judge` returns neither
    /// robust verdict.
    NeverRobust,
    /// Only the bootstrap and the Welch interval can tell.
    Open,
}

/// Magnitudes that keep every sum, mean, square and ratio [`prejudge`]
/// reasons about finite and normal, so each rounding is relative.
const PREJUDGE_RANGE: std::ops::RangeInclusive<f64> = 1e-150..=1e150;

/// The region where `judge`'s t bisection lands above the shrunk
/// normal quantile. Its t CDF loses accuracy at huge df, near `t = 0`
/// (low confidence) and near `p = 1`. A sweep of the same bisection
/// over these confidences and df from 0.5 to 1.2e5 kept it at least
/// 3e-6·z above the bound; the first shortfall found in this
/// confidence range is near df = 7e6. Welch's df is below the arms'
/// total length, which [`NEVER_ROBUST_MAX_LEN`] caps.
const NEVER_ROBUST_CONFIDENCE: std::ops::RangeInclusive<f64> = 0.5..=1.0 - 1e-12;
const NEVER_ROBUST_MAX_LEN: usize = 100_000;

/// Says what [`judge`] would call flat arms `a` and `b`, when the
/// arms alone settle it, at the cost of a few passes over the arms
/// instead of `cfg.resamples` bootstrap resamples and a t bisection.
/// Both bounds are exact, not estimates:
///
/// - [`Prejudged::Equivalent`] when `min(a)/max(b) ≥ 1/γ` and
///   `max(a)/min(b) ≤ γ`. A resampled mean lies between its arm's
///   minimum and maximum, so every resampled ratio does too, and both
///   CI bounds are resampled ratios. The margin of
///   `(n_a + n_b + 4)·ε` covers the rounding of two n-term means and
///   one division.
/// - [`Prejudged::NeverRobust`] when `|mean(a) − mean(b)| < z·se`,
///   with `se` the Welch standard error and `z` the normal quantile
///   `Normal::quantile(0.5 + confidence/2)`. Every Student-t quantile
///   is larger than `z`, and `judge`'s bisection finds it to within
///   1e-12 (or stops at 1,000) wherever its t CDF is accurate, so its
///   interval cannot exclude zero. A sweep confirmed that accuracy for
///   confidences in `0.5..=1 − 1e-12` and arms of at most 100,000
///   values together; outside that region this bound is not used. The
///   difference and `se` are computed exactly as `judge` computes
///   them, and `z` is shrunk by a relative 1e-9 and an absolute 1e-12
///   to absorb the bisection's tolerance and the rounding of `z·se`.
/// - [`Prejudged::Open`] otherwise, including every input `judge`
///   rejects (an arm of fewer than 2 values, a non-finite or
///   non-positive value), values outside `1e-150..=1e150`, and arms
///   that are both constant (their Welch interval is a point).
///
/// # Panics
///
/// As [`classify`], on a band that is not finite and positive.
pub fn prejudge(a: &[f64], b: &[f64], cfg: &VerdictConfig) -> Prejudged {
    let (gamma, inv_gamma) = band_edges(cfg.band);
    let usable = |arm: &[f64]| arm.len() >= 2 && arm.iter().all(|v| PREJUDGE_RANGE.contains(v));
    if !usable(a) || !usable(b) {
        return Prejudged::Open;
    }
    let extremes = |arm: &[f64]| {
        arm.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
    };
    let (min_a, max_a) = extremes(a);
    let (min_b, max_b) = extremes(b);
    let slack = (a.len() + b.len() + 4) as f64 * f64::EPSILON;
    if min_a / max_b * (1.0 - slack) >= inv_gamma && max_a / min_b * (1.0 + slack) <= gamma {
        return Prejudged::Equivalent;
    }
    if !NEVER_ROBUST_CONFIDENCE.contains(&cfg.confidence)
        || a.len() + b.len() > NEVER_ROBUST_MAX_LEN
    {
        return Prejudged::Open;
    }
    // The same expressions as `diff_ci`, so the difference of means
    // and `se` match its bits.
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let se2 = sample_variance(a) / na + sample_variance(b) / nb;
    if !(se2 > 0.0 && se2.is_finite()) {
        return Prejudged::Open;
    }
    let z = Normal::quantile(0.5 + cfg.confidence / 2.0) * (1.0 - 1e-9) - 1e-12;
    if (mean(a) - mean(b)).abs() < z * se2.sqrt() {
        Prejudged::NeverRobust
    } else {
        Prejudged::Open
    }
}

/// Judges candidate `b` against baseline `a` (flat arms of positive
/// measurements, e.g. seconds per run).
///
/// # Errors
///
/// As [`effect_ci`]; Welch needs two observations per arm, which
/// [`effect_ci`] already guarantees.
///
/// # Examples
///
/// ```
/// use sz_stats::verdict::{judge, EffectVerdict, VerdictConfig};
///
/// let before = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.15, 9.95];
/// let after = [8.0, 8.2, 7.8, 8.1, 7.9, 8.0, 8.15, 7.95];
/// let report = judge(&before, &after, &VerdictConfig::default())?;
/// assert_eq!(report.verdict, EffectVerdict::RobustlyFaster);
/// # Ok::<(), sz_stats::StatError>(())
/// ```
pub fn judge(a: &[f64], b: &[f64], cfg: &VerdictConfig) -> Result<VerdictReport, StatError> {
    let effect = effect_ci(a, b, cfg.confidence, cfg.resamples, cfg.seed)?;
    let welch = welch_or_degenerate(a, b, cfg.confidence)?;
    Ok(VerdictReport {
        verdict: classify(&effect, &welch, cfg.band),
        effect,
        welch,
        band: cfg.band,
        n_a: a.len(),
        n_b: b.len(),
    })
}

/// [`judge`] over hierarchical arms (runs of iterations). The
/// bootstrap resamples both levels; the Welch interval is computed
/// over per-run means (each run is one independent observation) when
/// an arm has at least two runs, and over the single run's iterations
/// otherwise.
///
/// # Errors
///
/// As [`effect_ci_hierarchical`].
pub fn judge_hierarchical(
    a: &[Vec<f64>],
    b: &[Vec<f64>],
    cfg: &VerdictConfig,
) -> Result<VerdictReport, StatError> {
    let effect = effect_ci_hierarchical(a, b, cfg.confidence, cfg.resamples, cfg.seed)?;
    let wa = welch_arm(a);
    let wb = welch_arm(b);
    let welch = welch_or_degenerate(&wa, &wb, cfg.confidence)?;
    Ok(VerdictReport {
        verdict: classify(&effect, &welch, cfg.band),
        effect,
        welch,
        band: cfg.band,
        n_a: a.iter().map(Vec::len).sum(),
        n_b: b.iter().map(Vec::len).sum(),
    })
}

fn welch_arm(runs: &[Vec<f64>]) -> Vec<f64> {
    if runs.len() >= 2 {
        runs.iter().map(|r| mean(r)).collect()
    } else {
        runs.first().cloned().unwrap_or_default()
    }
}

/// Welch CI, degrading gracefully when both arms are constant (the
/// difference is then exact, so the interval collapses to a point).
fn welch_or_degenerate(
    a: &[f64],
    b: &[f64],
    confidence: f64,
) -> Result<ConfidenceInterval, StatError> {
    match diff_ci(a, b, confidence) {
        Err(StatError::ZeroVariance) => {
            let d = mean(a) - mean(b);
            Ok(ConfidenceInterval {
                estimate: d,
                lo: d,
                hi: d,
                confidence,
            })
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arm(base: f64, spread: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| base + spread * (i % 7) as f64 / 7.0)
            .collect()
    }

    fn cfg() -> VerdictConfig {
        VerdictConfig::default()
    }

    #[test]
    fn clear_speedup_is_robustly_faster() {
        let r = judge(&arm(10.0, 0.3, 16), &arm(8.0, 0.3, 16), &cfg()).unwrap();
        assert_eq!(r.verdict, EffectVerdict::RobustlyFaster);
        assert!(r.effect.lo > 1.05);
        assert!(r.welch.lo > 0.0);
        assert_eq!((r.n_a, r.n_b), (16, 16));
    }

    #[test]
    fn clear_slowdown_is_robustly_slower() {
        let r = judge(&arm(8.0, 0.3, 16), &arm(10.0, 0.3, 16), &cfg()).unwrap();
        assert_eq!(r.verdict, EffectVerdict::RobustlySlower);
        assert!(r.effect.hi < 1.0 / 1.05);
        assert!(r.welch.hi < 0.0);
    }

    #[test]
    fn matched_arms_are_equivalent() {
        let r = judge(&arm(10.0, 0.2, 20), &arm(10.02, 0.2, 20), &cfg()).unwrap();
        assert_eq!(r.verdict, EffectVerdict::Equivalent, "{r:?}");
    }

    #[test]
    fn noisy_borderline_effect_is_inconclusive() {
        // ~6% effect with large spread at small n: the CI straddles
        // the band edge.
        let r = judge(&arm(10.0, 4.0, 6), &arm(9.4, 4.0, 6), &cfg()).unwrap();
        assert_eq!(r.verdict, EffectVerdict::Inconclusive, "{r:?}");
    }

    #[test]
    fn identical_constant_arms_are_equivalent() {
        // Zero variance collapses the Welch interval instead of
        // erroring out.
        let a = vec![5.0; 8];
        let r = judge(&a, &a, &cfg()).unwrap();
        assert_eq!(r.verdict, EffectVerdict::Equivalent);
        assert_eq!((r.effect.lo, r.effect.hi), (1.0, 1.0));
        assert_eq!((r.welch.lo, r.welch.hi), (0.0, 0.0));
    }

    #[test]
    fn constant_arms_with_a_real_gap_are_robust() {
        let r = judge(&[10.0; 8], &[8.0; 8], &cfg()).unwrap();
        assert_eq!(r.verdict, EffectVerdict::RobustlyFaster);
    }

    /// Positive finite arms whose Welch variance or degrees of freedom
    /// overflow are an error, not a panic.
    #[test]
    fn arms_beyond_the_welch_range_are_an_error() {
        let verdict = |a: &[f64], b: &[f64]| judge(a, b, &cfg()).map(|r| r.verdict);
        assert_eq!(
            verdict(&[1e200, 2e200], &[1.5e200, 2.5e200]),
            Err(StatError::NonFinite)
        );
        let tiny = |base: f64| [base, base * 1.01, base * 1.02, base * 1.03];
        assert_eq!(
            verdict(&tiny(1e-100), &tiny(1.04e-100)),
            Err(StatError::NonFinite)
        );
    }

    #[test]
    fn welch_must_agree_for_a_robust_call() {
        // A ratio CI that clears the band but a Welch interval that
        // touches zero must not be called robust.
        let effect = EffectCi {
            ratio: 1.2,
            lo: 1.1,
            hi: 1.3,
            confidence: 0.95,
            resamples: 100,
            seed: 0,
        };
        let welch = ConfidenceInterval {
            estimate: 0.5,
            lo: -0.1,
            hi: 1.1,
            confidence: 0.95,
        };
        assert_eq!(classify(&effect, &welch, 0.05), EffectVerdict::Inconclusive);
    }

    #[test]
    fn hierarchical_judgement_uses_run_means() {
        let fast: Vec<Vec<f64>> = (0..5).map(|r| arm(8.0 + 0.01 * r as f64, 0.1, 6)).collect();
        let slow: Vec<Vec<f64>> = (0..5)
            .map(|r| arm(10.0 + 0.01 * r as f64, 0.1, 6))
            .collect();
        let r = judge_hierarchical(&slow, &fast, &cfg()).unwrap();
        assert_eq!(r.verdict, EffectVerdict::RobustlyFaster);
        assert_eq!((r.n_a, r.n_b), (30, 30));
    }

    #[test]
    fn verdict_codes_and_names_are_stable() {
        let all = [
            EffectVerdict::RobustlyFaster,
            EffectVerdict::RobustlySlower,
            EffectVerdict::Equivalent,
            EffectVerdict::Inconclusive,
        ];
        let names: Vec<&str> = all.iter().map(|v| v.as_str()).collect();
        assert_eq!(
            names,
            [
                "robustly-faster",
                "robustly-slower",
                "equivalent",
                "inconclusive"
            ]
        );
        let codes: Vec<u8> = all.iter().map(|v| v.code()).collect();
        assert_eq!(codes, [0, 1, 2, 3]);
        assert!(EffectVerdict::Equivalent.is_decided());
        assert!(!EffectVerdict::Inconclusive.is_decided());
    }

    /// Asserts that `prejudge` does not contradict `judge` on `a`, `b`
    /// and returns its call.
    fn prejudge_agrees(a: &[f64], b: &[f64], cfg: &VerdictConfig) -> Prejudged {
        let pre = prejudge(a, b, cfg);
        let verdict = judge(a, b, cfg).map(|r| r.verdict);
        let agrees = match pre {
            Prejudged::Equivalent => verdict == Ok(EffectVerdict::Equivalent),
            Prejudged::NeverRobust => matches!(
                verdict,
                Ok(EffectVerdict::Equivalent | EffectVerdict::Inconclusive)
            ),
            Prejudged::Open => true,
        };
        assert!(
            agrees,
            "{pre:?} but judge says {verdict:?}: {a:?} vs {b:?}, {cfg:?}"
        );
        pre
    }

    #[test]
    fn prejudge_never_contradicts_judge() {
        use sz_rng::{Rng, SplitMix64};

        let mut rng = SplitMix64::new(0x9EE7_0DE5);
        let mut calls = [0usize; 3];
        for case in 0..20_000 {
            let cfg = VerdictConfig {
                band: [0.01, 0.05, 0.2][case % 3],
                confidence: [0.8, 0.95, 0.99][case / 3 % 3],
                ..cfg()
            };
            let noise = if case % 10 == 0 {
                0.0
            } else {
                0.1 * rng.next_f64()
            };
            let base = 10f64.powf(6.0 * rng.next_f64() - 3.0);
            let mut draw = |n: u64| -> Vec<f64> {
                (0..2 + rng.below(n))
                    .map(|_| base * (1.0 + noise * (2.0 * rng.next_f64() - 1.0)))
                    .collect()
            };
            let a = draw(6);
            let mut b = draw(6);
            // Move `b` next to a band edge, next to the z boundary of
            // the Welch interval, or anywhere within twice the band.
            let jitter = 1.0 + 0.02 * (2.0 * rng.next_f64() - 1.0);
            let scale = match case / 9 % 3 {
                0 => {
                    let gamma = 1.0 + cfg.band;
                    if rng.chance(0.5) {
                        gamma * jitter
                    } else {
                        jitter / gamma
                    }
                }
                1 => {
                    let (na, nb) = (a.len() as f64, b.len() as f64);
                    let se = (sample_variance(&a) / na + sample_variance(&b) / nb).sqrt();
                    let z = Normal::quantile(0.5 + cfg.confidence / 2.0);
                    let gap = z * se * 3.0 * rng.next_f64() * jitter;
                    let sign = if rng.chance(0.5) { 1.0 } else { -1.0 };
                    (mean(&a) + sign * gap) / mean(&b)
                }
                _ => 1.0 + 2.0 * cfg.band * (2.0 * rng.next_f64() - 1.0),
            };
            for v in &mut b {
                *v *= scale;
            }
            calls[prejudge_agrees(&a, &b, &cfg) as usize] += 1;
        }
        // The pre-check must settle a real share of the pairs, or it
        // saves nothing: [Equivalent, NeverRobust, Open].
        assert!(
            calls.iter().all(|&n| n > 1_000),
            "pre-check calls {calls:?}"
        );
    }

    #[test]
    fn prejudge_leaves_rejected_and_degenerate_arms_open() {
        let cfg = cfg();
        let open = |a: &[f64], b: &[f64]| {
            assert_eq!(
                prejudge_agrees(a, b, &cfg),
                Prejudged::Open,
                "{a:?} vs {b:?}"
            );
        };
        open(&[1.0], &[1.0, 1.0]);
        open(&[1.0, 1.0], &[1.0]);
        open(&[1.0, 0.0], &[1.0, 1.0]);
        open(&[1.0, 1.0], &[1.0, -1.0]);
        open(&[1.0, f64::NAN], &[1.0, 1.0]);
        open(&[1.0, f64::INFINITY], &[1.0, 1.0]);
        // Constant arms with a real gap: the Welch interval is a point,
        // and `judge` calls it robust.
        open(&[10.0; 4], &[8.0; 4]);
        assert_eq!(
            judge(&[10.0; 4], &[8.0; 4], &cfg).unwrap().verdict,
            EffectVerdict::RobustlyFaster
        );
        // Constant arms inside the band are equivalent.
        assert_eq!(
            prejudge_agrees(&[5.0; 4], &[5.0; 4], &cfg),
            Prejudged::Equivalent
        );
    }

    #[test]
    fn prejudge_uses_the_welch_bound_only_where_judge_is_accurate() {
        // Equal means, but a ratio range far outside the band.
        let (a, b) = ([1.0, 2.0, 1.5], [1.2, 1.9, 1.4]);
        let at = |confidence| VerdictConfig {
            confidence,
            ..cfg()
        };
        assert_eq!(prejudge_agrees(&a, &b, &at(0.95)), Prejudged::NeverRobust);
        assert_eq!(prejudge_agrees(&a, &b, &at(0.4)), Prejudged::Open);
        assert_eq!(prejudge_agrees(&a, &b, &at(1.0 - 1e-13)), Prejudged::Open);
        let wide: Vec<f64> = (0..50_001).map(|i| 1.0 + (i % 2) as f64).collect();
        assert_eq!(prejudge(&wide, &wide, &cfg()), Prejudged::Open);
    }

    #[test]
    fn prejudge_band_edges_are_exact_to_a_few_ulps() {
        let cfg = cfg();
        let gamma = 1.0 + cfg.band;
        let slack = |k: f64| 1.0 + k * f64::EPSILON;
        // Ratio ranges a few ulps inside each edge are equivalent...
        for (a, b) in [
            (vec![1.0, 1.0], vec![1.0, gamma / slack(20.0)]),
            (vec![1.0, gamma / slack(20.0)], vec![1.0, 1.0]),
        ] {
            assert_eq!(prejudge_agrees(&a, &b, &cfg), Prejudged::Equivalent);
        }
        // ...while ranges on, or a few ulps outside, an edge are not.
        for k in [0.0, 1.0, 4.0] {
            for (a, b) in [
                (vec![1.0, 1.0], vec![1.0, gamma * slack(k)]),
                (vec![1.0, gamma * slack(k)], vec![1.0, 1.0]),
            ] {
                assert_ne!(prejudge_agrees(&a, &b, &cfg), Prejudged::Equivalent);
            }
        }
    }

    #[test]
    fn widening_the_band_moves_calls_toward_equivalent() {
        let a = arm(10.0, 0.3, 16);
        let b = arm(9.2, 0.3, 16);
        let narrow = judge(
            &a,
            &b,
            &VerdictConfig {
                band: 0.02,
                ..cfg()
            },
        )
        .unwrap();
        let wide = judge(&a, &b, &VerdictConfig { band: 0.2, ..cfg() }).unwrap();
        assert_eq!(narrow.verdict, EffectVerdict::RobustlyFaster);
        assert_eq!(wide.verdict, EffectVerdict::Equivalent);
    }
}
