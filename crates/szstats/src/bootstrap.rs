//! Percentile bootstrap confidence intervals on the ratio-of-means
//! effect size.
//!
//! Kalibera & Jones ("Quantifying Performance Changes with Effect
//! Size Confidence Intervals") argue that performance comparisons
//! should report *how large* a change is — the ratio of mean execution
//! times, with a confidence interval — rather than a bare p-value.
//! Their data has hierarchical variance: repeated iterations within a
//! run share a layout/warm-up state, and independent runs differ more
//! than iterations do. The bootstrap here resamples both levels: runs
//! are drawn with replacement, then iterations are drawn with
//! replacement within each drawn run.
//!
//! Everything is driven by [`SplitMix64`] so a CI is a pure function
//! of `(data, confidence, resamples, seed)` — bit-identical on every
//! platform and thread count, and therefore pinnable in the golden
//! file like every other statistic in this crate.
//!
//! Two symmetry properties are deliberate design constraints, because
//! the verdict layer ([`crate::verdict`]) relies on them:
//!
//! - **Per-arm streams.** Each arm's resampling stream is keyed by
//!   `seed ^ fnv1a(arm contents)`, so an arm draws the same resample
//!   indices whether it is passed first or second. Swapping the arms
//!   therefore produces pointwise-reciprocal resampled ratios.
//! - **Symmetric order statistics.** The interval takes the `k`-th
//!   smallest and `k`-th largest resampled ratio *without*
//!   interpolation, so the swapped interval is (up to rounding) the
//!   reciprocal of the original and verdicts flip exactly.

use sz_rng::{Rng, SplitMix64};

use crate::desc::mean;
use crate::StatError;

/// A bootstrap confidence interval on `mean(a) / mean(b)`.
///
/// For execution times, `a` is the baseline arm and `b` the candidate:
/// a ratio above 1 means the candidate is faster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EffectCi {
    /// Point estimate: `grand_mean(a) / grand_mean(b)`.
    pub ratio: f64,
    /// Lower percentile bound.
    pub lo: f64,
    /// Upper percentile bound.
    pub hi: f64,
    /// Confidence level in (0, 1).
    pub confidence: f64,
    /// Bootstrap resamples drawn.
    pub resamples: usize,
    /// Seed of the SplitMix64 streams (the CI is a pure function of
    /// data + confidence + resamples + seed).
    pub seed: u64,
}

impl EffectCi {
    /// Half-width as a fraction of the point estimate — the stability
    /// metric suite reduction ranks by.
    pub fn relative_half_width(&self) -> f64 {
        (self.hi - self.lo) / (2.0 * self.ratio)
    }
}

/// Bootstrap CI on the ratio of means of two flat samples (the
/// single-run special case of [`effect_ci_hierarchical`]).
///
/// # Errors
///
/// [`StatError::TooFewSamples`] for fewer than two observations per
/// arm, [`StatError::NonFinite`] for NaN/infinite data, and
/// [`StatError::NonPositive`] for values ≤ 0 (a ratio of mean times
/// needs strictly positive data).
///
/// # Panics
///
/// Panics unless `0 < confidence < 1` and `resamples >= 2`.
///
/// # Examples
///
/// ```
/// use sz_stats::effect_ci;
///
/// let before = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0];
/// let after = [8.0, 8.2, 7.8, 8.1, 7.9, 8.0];
/// let ci = effect_ci(&before, &after, 0.95, 1000, 42)?;
/// assert!(ci.lo > 1.1, "the change is robustly faster");
/// # Ok::<(), sz_stats::StatError>(())
/// ```
pub fn effect_ci(
    a: &[f64],
    b: &[f64],
    confidence: f64,
    resamples: usize,
    seed: u64,
) -> Result<EffectCi, StatError> {
    effect_ci_core(&[a], &[b], confidence, resamples, seed)
}

/// Hierarchical bootstrap CI on the ratio of grand means: each arm is
/// a set of runs, each run a set of iteration measurements. Runs are
/// resampled with replacement, then iterations within each drawn run.
///
/// # Errors
///
/// As [`effect_ci`]; additionally every run must be non-empty
/// ([`StatError::TooFewSamples`]).
///
/// # Panics
///
/// As [`effect_ci`].
pub fn effect_ci_hierarchical(
    a: &[Vec<f64>],
    b: &[Vec<f64>],
    confidence: f64,
    resamples: usize,
    seed: u64,
) -> Result<EffectCi, StatError> {
    let a_runs: Vec<&[f64]> = a.iter().map(Vec::as_slice).collect();
    let b_runs: Vec<&[f64]> = b.iter().map(Vec::as_slice).collect();
    effect_ci_core(&a_runs, &b_runs, confidence, resamples, seed)
}

fn effect_ci_core(
    a: &[&[f64]],
    b: &[&[f64]],
    confidence: f64,
    resamples: usize,
    seed: u64,
) -> Result<EffectCi, StatError> {
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0, 1)"
    );
    assert!(resamples >= 2, "bootstrap needs at least 2 resamples");
    for arm in [a, b] {
        validate_arm(arm)?;
    }

    let means_a = resample_means(a, resamples, seed);
    let means_b = resample_means(b, resamples, seed);
    let mut ratios: Vec<f64> = means_a
        .iter()
        .zip(&means_b)
        .map(|(ma, mb)| ma / mb)
        .collect();

    // Symmetric order statistics, no interpolation: lo is the k-th
    // smallest and hi the k-th largest ratio, so swapping the arms
    // maps the interval to its reciprocal (see the module docs).
    let alpha = 1.0 - confidence;
    let k = ((alpha / 2.0) * resamples as f64).floor() as usize;
    let k = k.min((resamples - 1) / 2);
    // Two selections instead of a sort. Under the total order equal
    // ratios are equal bits, so both bounds are exactly the sorted
    // values. The first selection leaves every larger ratio above k.
    let (_, &mut lo, above) = ratios.select_nth_unstable_by(k, f64::total_cmp);
    let hi = match (resamples - 1 - k).checked_sub(k + 1) {
        Some(rank) => *above.select_nth_unstable_by(rank, f64::total_cmp).1,
        None => lo,
    };

    Ok(EffectCi {
        ratio: grand_mean(a) / grand_mean(b),
        lo,
        hi,
        confidence,
        resamples,
        seed,
    })
}

fn validate_arm(runs: &[&[f64]]) -> Result<(), StatError> {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    if runs.is_empty() || total < 2 || runs.iter().any(|r| r.is_empty()) {
        return Err(StatError::TooFewSamples {
            needed: 2,
            got: total,
        });
    }
    for run in runs {
        for &v in *run {
            if !v.is_finite() {
                return Err(StatError::NonFinite);
            }
            if v <= 0.0 {
                return Err(StatError::NonPositive);
            }
        }
    }
    Ok(())
}

fn grand_mean(runs: &[&[f64]]) -> f64 {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    runs.iter().flat_map(|r| r.iter()).sum::<f64>() / total as f64
}

/// FNV-1a over the arm's structure and the bit patterns of its values.
/// Keying each arm's stream by its contents (not its position) is what
/// makes a swapped comparison draw identical indices per arm.
fn arm_key(runs: &[&[f64]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| {
        for byte in x.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(runs.len() as u64);
    for run in runs {
        mix(run.len() as u64);
        for &v in *run {
            mix(v.to_bits());
        }
    }
    h
}

/// Draws `resamples` two-level bootstrap resamples of the arm and
/// returns each resample's mean.
fn resample_means(runs: &[&[f64]], resamples: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed ^ arm_key(runs));
    let n_runs = runs.len() as u64;
    (0..resamples)
        .map(|_| {
            let mut sum = 0.0;
            let mut count = 0usize;
            for _ in 0..runs.len() {
                let run = runs[rng.below(n_runs) as usize];
                let n_it = run.len() as u64;
                for _ in 0..run.len() {
                    sum += run[rng.below(n_it) as usize];
                }
                count += run.len();
            }
            sum / count as f64
        })
        .collect()
}

/// Convenience: the grand mean of a hierarchical arm (all iterations
/// pooled), matching the point estimate's numerator/denominator.
pub fn pooled_mean(runs: &[Vec<f64>]) -> f64 {
    let flat: Vec<f64> = runs.iter().flatten().copied().collect();
    mean(&flat)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arm(base: f64, n: usize) -> Vec<f64> {
        (0..n).map(|i| base + 0.05 * (i % 7) as f64).collect()
    }

    #[test]
    fn point_estimate_is_the_ratio_of_means() {
        let a = [2.0, 2.0, 2.0, 2.0];
        let b = [1.0, 1.0, 1.0, 1.0];
        let ci = effect_ci(&a, &b, 0.95, 200, 7).unwrap();
        assert_eq!(ci.ratio, 2.0);
        // Constant arms: every resample is the same, CI collapses.
        assert_eq!((ci.lo, ci.hi), (2.0, 2.0));
    }

    #[test]
    fn interval_brackets_an_obvious_effect() {
        let a = arm(10.0, 20);
        let b = arm(8.0, 20);
        let ci = effect_ci(&a, &b, 0.95, 1000, 1).unwrap();
        assert!(ci.lo <= ci.ratio && ci.ratio <= ci.hi, "{ci:?}");
        assert!(ci.lo > 1.15, "clear speedup: {ci:?}");
        assert!(ci.hi < 1.35, "{ci:?}");
    }

    #[test]
    fn bit_deterministic_for_a_fixed_seed() {
        let a = arm(10.0, 15);
        let b = arm(9.5, 15);
        let x = effect_ci(&a, &b, 0.95, 500, 0xDEAD).unwrap();
        let y = effect_ci(&a, &b, 0.95, 500, 0xDEAD).unwrap();
        assert_eq!(x.lo.to_bits(), y.lo.to_bits());
        assert_eq!(x.hi.to_bits(), y.hi.to_bits());
        let z = effect_ci(&a, &b, 0.95, 500, 0xBEEF).unwrap();
        assert_ne!(
            (x.lo.to_bits(), x.hi.to_bits()),
            (z.lo.to_bits(), z.hi.to_bits()),
            "a different seed draws different resamples"
        );
    }

    #[test]
    fn flat_is_the_single_run_hierarchical_case() {
        let a = arm(10.0, 12);
        let b = arm(9.0, 12);
        let flat = effect_ci(&a, &b, 0.95, 400, 3).unwrap();
        let hier = effect_ci_hierarchical(
            std::slice::from_ref(&a),
            std::slice::from_ref(&b),
            0.95,
            400,
            3,
        )
        .unwrap();
        assert_eq!(flat, hier);
    }

    #[test]
    fn hierarchical_widens_with_run_level_variance() {
        // Two arms with identical pooled values, but arm runs either
        // share a mean (iteration noise only) or differ strongly
        // between runs. The hierarchical CI must see the run-level
        // variance and widen.
        let tight: Vec<Vec<f64>> = (0..4).map(|_| arm(10.0, 10)).collect();
        let spread: Vec<Vec<f64>> = (0..4).map(|r| arm(9.0 + r as f64 * 0.7, 10)).collect();
        let denom = vec![arm(9.0, 10); 4];
        let narrow = effect_ci_hierarchical(&tight, &denom, 0.95, 1000, 5).unwrap();
        let wide = effect_ci_hierarchical(&spread, &denom, 0.95, 1000, 5).unwrap();
        assert!(
            wide.hi - wide.lo > 2.0 * (narrow.hi - narrow.lo),
            "run-level spread must widen the interval: {narrow:?} vs {wide:?}"
        );
    }

    #[test]
    fn wider_confidence_is_a_wider_interval() {
        let a = arm(10.0, 15);
        let b = arm(9.7, 15);
        let ci90 = effect_ci(&a, &b, 0.90, 1000, 11).unwrap();
        let ci99 = effect_ci(&a, &b, 0.99, 1000, 11).unwrap();
        assert!(ci99.lo <= ci90.lo && ci90.hi <= ci99.hi);
        assert!(ci99.hi - ci99.lo > ci90.hi - ci90.lo);
    }

    #[test]
    fn swapped_arms_are_reciprocal() {
        let a = arm(10.0, 16);
        let b = arm(8.5, 16);
        let fwd = effect_ci(&a, &b, 0.95, 800, 21).unwrap();
        let rev = effect_ci(&b, &a, 0.95, 800, 21).unwrap();
        // Content-keyed streams: the reversed comparison resamples the
        // same indices per arm, so the interval is the reciprocal of
        // the original (up to division rounding).
        assert!((rev.lo * fwd.hi - 1.0).abs() < 1e-12, "{fwd:?} / {rev:?}");
        assert!((rev.hi * fwd.lo - 1.0).abs() < 1e-12);
    }

    #[test]
    fn error_paths() {
        assert!(matches!(
            effect_ci(&[1.0], &[1.0, 2.0], 0.95, 100, 0),
            Err(StatError::TooFewSamples { .. })
        ));
        assert!(matches!(
            effect_ci_hierarchical(&[], &[vec![1.0, 2.0]], 0.95, 100, 0),
            Err(StatError::TooFewSamples { .. })
        ));
        assert!(matches!(
            effect_ci_hierarchical(&[vec![1.0, 2.0], vec![]], &[vec![1.0, 2.0]], 0.95, 100, 0),
            Err(StatError::TooFewSamples { .. })
        ));
        assert_eq!(
            effect_ci(&[1.0, f64::NAN], &[1.0, 2.0], 0.95, 100, 0),
            Err(StatError::NonFinite)
        );
        assert_eq!(
            effect_ci(&[1.0, -2.0], &[1.0, 2.0], 0.95, 100, 0),
            Err(StatError::NonPositive)
        );
        assert_eq!(
            effect_ci(&[1.0, 2.0], &[0.0, 2.0], 0.95, 100, 0),
            Err(StatError::NonPositive)
        );
    }

    #[test]
    #[should_panic(expected = "confidence must be in (0, 1)")]
    fn bad_confidence_panics() {
        let _ = effect_ci(&[1.0, 2.0], &[1.0, 2.0], 1.0, 100, 0);
    }

    #[test]
    fn relative_half_width_is_scale_free() {
        let a = arm(10.0, 15);
        let b = arm(9.0, 15);
        let ci = effect_ci(&a, &b, 0.95, 500, 2).unwrap();
        let expected = (ci.hi - ci.lo) / (2.0 * ci.ratio);
        assert_eq!(ci.relative_half_width(), expected);
    }

    /// Seeded arms of 7 and 6 values; with `ties`, each value is one of
    /// three levels, so many resampled ratios coincide.
    fn pinned_arms(ties: bool) -> (Vec<f64>, Vec<f64>) {
        let mut rng = SplitMix64::new(if ties { 0x71E5 } else { 0xB175 });
        let mut draw = |n: usize, base: f64| -> Vec<f64> {
            (0..n)
                .map(|_| {
                    if ties {
                        base + rng.below(3) as f64
                    } else {
                        base + rng.next_f64()
                    }
                })
                .collect()
        };
        (draw(7, 10.0), draw(6, 9.0))
    }

    /// The golden file compares at 1e-9; these pins catch any drift in
    /// the low bits of the bounds. They were recorded when the bounds
    /// were read off a fully sorted copy of the ratios.
    #[test]
    fn bounds_are_bit_pinned() {
        const PINS: [(u64, u64); 18] = [
            (0x3ff18df92468ecf0, 0x3ff1c2ddd3d37113),
            (0x3ff18df92468ecf0, 0x3ff1c2ddd3d37113),
            (0x3ff18df92468ecf0, 0x3ff1c2ddd3d37113),
            (0x3ff1c2ddd3d37113, 0x3ff1c2ddd3d37113),
            (0x3ff18df92468ecf0, 0x3ff228435e12269d),
            (0x3ff18df92468ecf0, 0x3ff228435e12269d),
            (0x3ff1aa1a0b588b55, 0x3ff1cf52845b0522),
            (0x3ff19013d581838c, 0x3ff1ee6e4e548c23),
            (0x3ff13b933e849e05, 0x3ff256ec56d80c61),
            (0x3ff1249249249249, 0x3ff1f86ef9b1d015),
            (0x3ff1249249249249, 0x3ff1f86ef9b1d015),
            (0x3ff1249249249249, 0x3ff1f86ef9b1d015),
            (0x3ff1bbe6c74050b6, 0x3ff1bbe6c74050b6),
            (0x3ff1249249249249, 0x3ff1f86ef9b1d015),
            (0x3ff1249249249249, 0x3ff1f86ef9b1d015),
            (0x3ff13372ac51d221, 0x3ff1aa75c5bbd0e4),
            (0x3ff0dca0acaa4459, 0x3ff20b8c82e320b8),
            (0x3fefda3fb47f68ff, 0x3ff3333333333334),
        ];
        let mut pins = PINS.iter();
        for ties in [false, true] {
            let (a, b) = pinned_arms(ties);
            // Confidence 0.2 with 3 resamples selects the median for
            // both bounds (k == resamples - 1 - k).
            for resamples in [2, 3, 1000] {
                for confidence in [0.2, 0.5, 0.95] {
                    let ci = effect_ci(&a, &b, confidence, resamples, 0x5EED_B007).unwrap();
                    assert_eq!(
                        (ci.lo.to_bits(), ci.hi.to_bits()),
                        *pins.next().unwrap(),
                        "ties {ties}, {resamples} resamples, confidence {confidence}"
                    );
                }
            }
        }
    }

    #[test]
    fn pooled_mean_pools_all_iterations() {
        let runs = vec![vec![1.0, 2.0], vec![3.0, 4.0, 5.0]];
        assert_eq!(pooled_mean(&runs), 3.0);
    }
}
