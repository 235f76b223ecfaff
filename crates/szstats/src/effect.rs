//! Effect sizes and confidence intervals.
//!
//! The paper's §2.4 stresses that significance alone is not the story:
//! "the t-test can detect arbitrarily small differences in the means
//! ... given a sufficient number of samples". Sound reporting pairs
//! every p-value with an effect size and an interval estimate; this
//! module provides both.

use crate::desc::{mean, sample_variance};
use crate::dist::{Normal, StudentT};
use crate::error::check_finite;
use crate::ttest::welch_df;
use crate::StatError;

/// A two-sided confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate (the sample mean or mean difference).
    pub estimate: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Confidence level in (0, 1), e.g. 0.95.
    pub confidence: f64,
}

impl ConfidenceInterval {
    /// Half-width of the interval.
    pub fn margin(&self) -> f64 {
        (self.hi - self.lo) / 2.0
    }

    /// Whether the interval excludes `value` (e.g. 0 for a difference,
    /// 1 for a ratio).
    pub fn excludes(&self, value: f64) -> bool {
        value < self.lo || value > self.hi
    }

    /// Half-width as a fraction of `reference`'s magnitude — the
    /// scale-free precision measure behind adaptive stopping rules:
    /// "keep sampling until the interval on the effect is narrower
    /// than x% of the baseline mean". Returns infinity for a zero
    /// reference.
    pub fn relative_margin(&self, reference: f64) -> f64 {
        if reference == 0.0 {
            f64::INFINITY
        } else {
            self.margin() / reference.abs()
        }
    }
}

/// Half-width of the Welch confidence interval on `mean(a) - mean(b)`
/// — the quantity an adaptive sequential-sampling loop drives below a
/// target before stopping (Kalibera & Jones' effect-size-interval
/// protocol). Equivalent to `diff_ci(a, b, confidence)?.margin()`.
///
/// # Errors
///
/// Same conditions as [`diff_ci`].
pub fn diff_half_width(a: &[f64], b: &[f64], confidence: f64) -> Result<f64, StatError> {
    Ok(diff_ci(a, b, confidence)?.margin())
}

/// Upper quantile `t*` with `P(|T| <= t*) = confidence`, found by
/// bisection on the CDF (the CDF is strictly increasing, so 80
/// iterations pin the quantile to ~1e-12).
///
/// No Student-t quantile lies below the normal one, but the CDF loses
/// precision where `t²/df` nears machine epsilon (large `df`, or a
/// confidence near 0 or 1), so the bisected value is floored at the
/// normal quantile.
fn t_critical(df: f64, confidence: f64) -> f64 {
    let p = 0.5 + confidence / 2.0;
    let t = StudentT::new(df);
    let (mut lo, mut hi) = (0.0f64, 1e3);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if t.cdf(mid) < p {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-12 {
            break;
        }
    }
    let bisected = 0.5 * (lo + hi);
    // A confidence within 2^-53 of 1 rounds `p` up to 1, which has no
    // normal quantile.
    if p < 1.0 {
        bisected.max(Normal::quantile(p))
    } else {
        bisected
    }
}

/// Student-t confidence interval for a sample mean.
///
/// # Errors
///
/// Returns [`StatError::TooFewSamples`] for `n < 2`,
/// [`StatError::NonFinite`] for bad data.
///
/// # Panics
///
/// Panics unless `0 < confidence < 1`.
///
/// # Examples
///
/// ```
/// use sz_stats::mean_ci;
///
/// let data = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0];
/// let ci = mean_ci(&data, 0.95)?;
/// assert!(ci.lo < 10.0 && 10.0 < ci.hi);
/// # Ok::<(), sz_stats::StatError>(())
/// ```
pub fn mean_ci(data: &[f64], confidence: f64) -> Result<ConfidenceInterval, StatError> {
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0, 1)"
    );
    if data.len() < 2 {
        return Err(StatError::TooFewSamples {
            needed: 2,
            got: data.len(),
        });
    }
    check_finite(data)?;
    let n = data.len() as f64;
    let m = mean(data);
    let se = (sample_variance(data) / n).sqrt();
    let t = t_critical(n - 1.0, confidence);
    Ok(ConfidenceInterval {
        estimate: m,
        lo: m - t * se,
        hi: m + t * se,
        confidence,
    })
}

/// Welch confidence interval for the difference of means
/// `mean(a) - mean(b)`.
///
/// # Errors
///
/// Same conditions as [`mean_ci`]; additionally
/// [`StatError::ZeroVariance`] when both samples are constant, and
/// [`StatError::NonFinite`] when the variances overflow (finite arms
/// spread wider than about 1e154).
pub fn diff_ci(a: &[f64], b: &[f64], confidence: f64) -> Result<ConfidenceInterval, StatError> {
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0, 1)"
    );
    for s in [a, b] {
        if s.len() < 2 {
            return Err(StatError::TooFewSamples {
                needed: 2,
                got: s.len(),
            });
        }
        check_finite(s)?;
    }
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let (pa, pb) = (sample_variance(a) / na, sample_variance(b) / nb);
    let se2 = pa + pb;
    if se2 <= 0.0 {
        return Err(StatError::ZeroVariance);
    }
    let df = welch_df(pa, pb, na, nb);
    if !se2.is_finite() || !df.is_finite() {
        return Err(StatError::NonFinite);
    }
    let d = mean(a) - mean(b);
    let t = t_critical(df, confidence);
    let se = se2.sqrt();
    Ok(ConfidenceInterval {
        estimate: d,
        lo: d - t * se,
        hi: d + t * se,
        confidence,
    })
}

/// Cohen's d with pooled standard deviation: the standardized effect
/// size of `mean(a) - mean(b)`.
///
/// Rule-of-thumb bands: 0.2 small, 0.5 medium, 0.8 large.
///
/// # Errors
///
/// Same conditions as [`diff_ci`].
pub fn cohens_d(a: &[f64], b: &[f64]) -> Result<f64, StatError> {
    for s in [a, b] {
        if s.len() < 2 {
            return Err(StatError::TooFewSamples {
                needed: 2,
                got: s.len(),
            });
        }
        check_finite(s)?;
    }
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let pooled =
        ((na - 1.0) * sample_variance(a) + (nb - 1.0) * sample_variance(b)) / (na + nb - 2.0);
    if pooled <= 0.0 {
        return Err(StatError::ZeroVariance);
    }
    Ok((mean(a) - mean(b)) / pooled.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_critical_matches_tables() {
        // Classic values: t*(df=10, 95%) = 2.2281, t*(df=29, 95%) = 2.0452.
        assert!((t_critical(10.0, 0.95) - 2.228_138_85).abs() < 1e-4);
        assert!((t_critical(29.0, 0.95) - 2.045_229_64).abs() < 1e-4);
        // Large df approaches the normal 1.96.
        assert!((t_critical(1e6, 0.95) - 1.959_96).abs() < 1e-3);
    }

    /// Every (df, confidence) on a log grid from df 1 to 1e9 and
    /// confidence 1e-6 to 1 − 1e-15 gives a t quantile at or above the
    /// normal one.
    #[test]
    fn t_critical_is_never_below_the_normal_quantile() {
        let confidences = [
            1e-6,
            1e-3,
            0.1,
            0.5,
            0.9,
            0.95,
            0.99,
            1.0 - 1e-6,
            1.0 - 1e-9,
            1.0 - 1e-12,
            1.0 - 1e-15,
        ];
        for exponent in 0..=36 {
            let df = 10f64.powf(f64::from(exponent) / 4.0);
            for &confidence in &confidences {
                let z = Normal::quantile(0.5 + confidence / 2.0);
                let t = t_critical(df, confidence);
                assert!(t >= z, "df {df}, confidence {confidence}: t {t} < z {z}");
            }
        }
    }

    /// Two 5,001-value arms (df ≈ 1e4) at confidence 1e-6: the
    /// bisection alone gave a margin of 9.54e-7 standard errors,
    /// below z = 1.25e-6.
    #[test]
    fn welch_margin_is_at_least_the_normal_margin() {
        let a: Vec<f64> = (0..5_001).map(|i| 10.0 + 0.01 * (i % 17) as f64).collect();
        let ci = diff_ci(&a, &a, 1e-6).unwrap();
        let se = (2.0 * sample_variance(&a) / a.len() as f64).sqrt();
        let z = Normal::quantile(0.5 + 1e-6 / 2.0);
        assert!(
            ci.margin() >= z * se * (1.0 - 1e-12),
            "{ci:?}, z·se {}",
            z * se
        );
    }

    /// Positive finite arms whose variance or degrees of freedom
    /// overflow are an error, not a panic inside `StudentT::new`.
    #[test]
    fn overflowing_welch_terms_are_non_finite() {
        assert_eq!(
            diff_ci(&[1e200, 2e200], &[1.5e200, 2.5e200], 0.95),
            Err(StatError::NonFinite)
        );
    }

    /// Arms whose Welch df squares underflow, in part (a `se2²` of a
    /// few subnormal ulps, near 1e-80 scale) or in whole (1e-100 and
    /// below), or overflow (1e100) get the interval of their
    /// unit-scale copies, scaled back.
    #[test]
    fn welch_df_survives_extreme_scales() {
        let (a, b) = ([1.0, 1.01, 1.07], [1.02, 1.03, 1.1, 1.04]);
        let unit = diff_ci(&a, &b, 0.95).unwrap();
        for scale in [1e-79, 1e-77, 1e-100, 1e-150, 1e100] {
            let scaled = |arm: &[f64]| arm.iter().map(|v| v * scale).collect::<Vec<_>>();
            let ci = diff_ci(&scaled(&a), &scaled(&b), 0.95).unwrap();
            for (got, want) in [
                (ci.lo, unit.lo),
                (ci.estimate, unit.estimate),
                (ci.hi, unit.hi),
            ] {
                assert!(
                    (got / scale - want).abs() <= 1e-12 * want.abs(),
                    "scale {scale:e}: {ci:?} vs {unit:?}"
                );
            }
        }
        // `se2²` rounds to 3 subnormal ulps here, and the df taken from
        // it was 1.5 instead of 2.
        let tiny = [0.0, 2.68e-81];
        let ci = diff_ci(&tiny, &tiny, 0.95).unwrap();
        let unit = diff_ci(&[0.0, 2.68], &[0.0, 2.68], 0.95).unwrap();
        assert!(
            (ci.hi / 1e-81 - unit.hi).abs() <= 1e-12 * unit.hi,
            "{ci:?} vs {unit:?}"
        );
    }

    #[test]
    fn mean_ci_contains_the_mean_and_scales_with_confidence() {
        let data: Vec<f64> = (0..20).map(|i| 5.0 + 0.1 * (i % 7) as f64).collect();
        let ci90 = mean_ci(&data, 0.90).unwrap();
        let ci99 = mean_ci(&data, 0.99).unwrap();
        assert!(ci90.lo < ci90.estimate && ci90.estimate < ci90.hi);
        assert!(
            ci99.margin() > ci90.margin(),
            "higher confidence = wider interval"
        );
        assert_eq!(ci90.estimate, ci99.estimate);
    }

    #[test]
    fn diff_ci_excludes_zero_for_a_real_difference() {
        let a: Vec<f64> = (0..15).map(|i| 10.0 + 0.05 * (i % 5) as f64).collect();
        let b: Vec<f64> = (0..15).map(|i| 9.0 + 0.05 * (i % 5) as f64).collect();
        let ci = diff_ci(&a, &b, 0.95).unwrap();
        assert!(ci.excludes(0.0));
        assert!((ci.estimate - 1.0).abs() < 1e-9);
    }

    #[test]
    fn diff_ci_includes_zero_under_the_null() {
        let a: Vec<f64> = (0..15).map(|i| 10.0 + 0.3 * (i % 5) as f64).collect();
        let b: Vec<f64> = (0..15).map(|i| 10.0 + 0.3 * ((i + 2) % 5) as f64).collect();
        let ci = diff_ci(&a, &b, 0.95).unwrap();
        assert!(!ci.excludes(0.0), "{ci:?}");
    }

    #[test]
    fn cohens_d_magnitude() {
        // Means 1 sd apart -> d ~ 1.
        let a: Vec<f64> = (0..30).map(|i| (i % 11) as f64).collect();
        let b: Vec<f64> = a.iter().map(|v| v + 3.162).collect(); // sd(a) ~ 3.3
        let d = cohens_d(&b, &a).unwrap();
        assert!((d - 1.0).abs() < 0.15, "d = {d}");
        // Antisymmetry.
        assert!((cohens_d(&a, &b).unwrap() + d).abs() < 1e-12);
    }

    #[test]
    fn half_width_helpers_agree_with_the_interval() {
        let a: Vec<f64> = (0..15).map(|i| 10.0 + 0.05 * (i % 5) as f64).collect();
        let b: Vec<f64> = (0..15).map(|i| 9.0 + 0.05 * (i % 5) as f64).collect();
        let ci = diff_ci(&a, &b, 0.95).unwrap();
        let hw = diff_half_width(&a, &b, 0.95).unwrap();
        assert_eq!(hw, ci.margin());
        assert!((ci.relative_margin(10.0) - ci.margin() / 10.0).abs() < 1e-15);
        assert_eq!(ci.relative_margin(0.0), f64::INFINITY);
        assert_eq!(ci.relative_margin(-10.0), ci.relative_margin(10.0));
    }

    #[test]
    fn half_width_shrinks_with_more_samples() {
        let gen = |n: usize, base: f64| -> Vec<f64> {
            (0..n).map(|i| base + 0.2 * (i % 7) as f64).collect()
        };
        let small = diff_half_width(&gen(8, 10.0), &gen(8, 9.5), 0.95).unwrap();
        let large = diff_half_width(&gen(32, 10.0), &gen(32, 9.5), 0.95).unwrap();
        assert!(large < small, "more samples must narrow the interval");
    }

    #[test]
    fn error_paths() {
        assert!(matches!(
            mean_ci(&[1.0], 0.95),
            Err(StatError::TooFewSamples { .. })
        ));
        assert_eq!(
            cohens_d(&[1.0, 1.0], &[1.0, 1.0]),
            Err(StatError::ZeroVariance)
        );
    }

    #[test]
    #[should_panic(expected = "confidence must be in (0, 1)")]
    fn bad_confidence_panics() {
        let _ = mean_ci(&[1.0, 2.0, 3.0], 1.0);
    }

    #[test]
    fn ci_consistent_with_t_test() {
        // The 95% diff CI excludes 0 iff the two-sided p < 0.05.
        let cases: Vec<(Vec<f64>, Vec<f64>)> = vec![
            (
                (0..12).map(|i| 5.0 + 0.1 * (i % 4) as f64).collect(),
                (0..12).map(|i| 5.3 + 0.1 * (i % 4) as f64).collect(),
            ),
            (
                (0..12).map(|i| 5.0 + 0.4 * (i % 4) as f64).collect(),
                (0..12).map(|i| 5.1 + 0.4 * ((i + 1) % 4) as f64).collect(),
            ),
        ];
        for (a, b) in cases {
            let ci = diff_ci(&a, &b, 0.95).unwrap();
            let t = crate::welch_t_test(&a, &b).unwrap();
            assert_eq!(ci.excludes(0.0), t.p_value < 0.05, "CI and t-test disagree");
        }
    }
}
