//! Student's and Welch's t-tests (§2.4 of the paper).

use crate::desc::{mean, sample_variance};
use crate::dist::StudentT;
use crate::error::check_finite;
use crate::StatError;

/// Result of a t-test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TTest {
    /// The t statistic.
    pub t: f64,
    /// Degrees of freedom (possibly fractional for Welch).
    pub df: f64,
    /// Two-sided p-value.
    pub p_value: f64,
    /// Difference of means, `mean(a) - mean(b)`.
    pub mean_diff: f64,
}

fn validate_pair(a: &[f64], b: &[f64]) -> Result<(), StatError> {
    for s in [a, b] {
        if s.len() < 2 {
            return Err(StatError::TooFewSamples {
                needed: 2,
                got: s.len(),
            });
        }
        check_finite(s)?;
    }
    Ok(())
}

/// Welch–Satterthwaite degrees of freedom of two arms of sizes `na`
/// and `nb`, whose squared standard errors are `pa = va/na` and
/// `pb = vb/nb`.
///
/// The direct form is `se2²/(pa²/(na−1) + pb²/(nb−1))` with
/// `se2 = pa + pb`. Where `se2²` or the sum under it is not a normal
/// f64 (it overflowed, or fell below the normal range and kept only a
/// few bits, as when `se2` is above about 1e154 or below about
/// 1e-154), the same ratio is taken over each arm's share of `se2`,
/// which lies in [0, 1] and keeps full precision. Only those arms take
/// the share form; every other df keeps its bits.
pub(crate) fn welch_df(pa: f64, pb: f64, na: f64, nb: f64) -> f64 {
    let se2 = pa + pb;
    let (square, terms) = (se2 * se2, pa * pa / (na - 1.0) + pb * pb / (nb - 1.0));
    if square.is_normal() && terms.is_normal() {
        square / terms
    } else {
        let (fa, fb) = (pa / se2, pb / se2);
        1.0 / (fa * fa / (na - 1.0) + fb * fb / (nb - 1.0))
    }
}

/// Welch's two-sample t-test (unequal variances).
///
/// This is the robust default for comparing two sets of execution
/// times, e.g. a benchmark under `-O2` vs `-O3` (Figure 7).
///
/// # Errors
///
/// Returns [`StatError::TooFewSamples`], [`StatError::NonFinite`] (also
/// when the variances or the degrees of freedom overflow, as for
/// finite arms spread wider than about 1e154), or
/// [`StatError::ZeroVariance`] if both samples are constant.
///
/// # Examples
///
/// ```
/// use sz_stats::welch_t_test;
///
/// let fast = [9.0, 9.2, 8.9, 9.1, 9.05, 8.95];
/// let slow = [10.0, 10.2, 9.9, 10.1, 10.05, 9.95];
/// let r = welch_t_test(&fast, &slow)?;
/// assert!(r.p_value < 1e-6);
/// assert!(r.mean_diff < 0.0);
/// # Ok::<(), sz_stats::StatError>(())
/// ```
pub fn welch_t_test(a: &[f64], b: &[f64]) -> Result<TTest, StatError> {
    validate_pair(a, b)?;
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let (ma, mb) = (mean(a), mean(b));
    let (pa, pb) = (sample_variance(a) / na, sample_variance(b) / nb);
    let se2 = pa + pb;
    if se2 <= 0.0 {
        return Err(StatError::ZeroVariance);
    }
    let df = welch_df(pa, pb, na, nb);
    if !se2.is_finite() || !df.is_finite() {
        return Err(StatError::NonFinite);
    }
    let t = (ma - mb) / se2.sqrt();
    let p_value = StudentT::new(df).two_sided_p(t);
    Ok(TTest {
        t,
        df,
        p_value,
        mean_diff: ma - mb,
    })
}

/// Student's two-sample t-test with pooled variance (equal variances
/// assumed) — the textbook test the paper references in §2.4.
///
/// # Errors
///
/// Same conditions as [`welch_t_test`].
pub fn student_t_test(a: &[f64], b: &[f64]) -> Result<TTest, StatError> {
    validate_pair(a, b)?;
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let (ma, mb) = (mean(a), mean(b));
    let (va, vb) = (sample_variance(a), sample_variance(b));
    let df = na + nb - 2.0;
    let pooled = ((na - 1.0) * va + (nb - 1.0) * vb) / df;
    if pooled <= 0.0 {
        return Err(StatError::ZeroVariance);
    }
    let t = (ma - mb) / (pooled * (1.0 / na + 1.0 / nb)).sqrt();
    let p_value = StudentT::new(df).two_sided_p(t);
    Ok(TTest {
        t,
        df,
        p_value,
        mean_diff: ma - mb,
    })
}

/// Paired t-test on per-index differences `a[i] - b[i]`.
///
/// # Errors
///
/// Returns [`StatError::RaggedData`] if the slices differ in length,
/// plus the conditions of [`welch_t_test`].
pub fn paired_t_test(a: &[f64], b: &[f64]) -> Result<TTest, StatError> {
    if a.len() != b.len() {
        return Err(StatError::RaggedData);
    }
    validate_pair(a, b)?;
    let diffs: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    let md = mean(&diffs);
    let vd = sample_variance(&diffs);
    if vd <= 0.0 {
        return Err(StatError::ZeroVariance);
    }
    let n = diffs.len() as f64;
    let t = md / (vd / n).sqrt();
    let df = n - 1.0;
    let p_value = StudentT::new(df).two_sided_p(t);
    Ok(TTest {
        t,
        df,
        p_value,
        mean_diff: md,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_t_hand_computed_fixture() {
        // x = 1..5, y = 2..6: means 3 and 4, both variances 2.5,
        // pooled t = -1 / sqrt(2.5 * (2/5)) = -1, df = 8.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [2.0, 3.0, 4.0, 5.0, 6.0];
        let r = student_t_test(&x, &y).unwrap();
        assert!((r.t - (-1.0)).abs() < 1e-12, "t = {}", r.t);
        assert_eq!(r.df, 8.0);
        // Classic table value: P(T_8 > 1) = 0.17330, two-sided 0.34660.
        assert!((r.p_value - 0.346_59).abs() < 1e-3, "p = {}", r.p_value);
    }

    #[test]
    fn welch_equals_student_for_equal_variance_equal_n() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [2.0, 3.0, 4.0, 5.0, 6.0];
        let w = welch_t_test(&x, &y).unwrap();
        let s = student_t_test(&x, &y).unwrap();
        assert!((w.t - s.t).abs() < 1e-12);
        assert_eq!(w.df, 8.0, "Welch df equals pooled df when variances match");
    }

    #[test]
    fn detects_no_difference() {
        let x = [5.0, 6.0, 7.0, 8.0, 9.0];
        let r = welch_t_test(&x, &x).unwrap();
        assert_eq!(r.t, 0.0);
        assert!((r.p_value - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paired_fixture() {
        // Differences all equal to -1 plus tiny jitter: strongly significant.
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [2.01, 2.99, 4.02, 4.98, 6.01, 6.99];
        let r = paired_t_test(&a, &b).unwrap();
        assert!(r.p_value < 1e-8, "p = {}", r.p_value);
        assert!(r.mean_diff < 0.0);
    }

    #[test]
    fn paired_requires_same_length() {
        assert_eq!(
            paired_t_test(&[1.0, 2.0], &[1.0, 2.0, 3.0]),
            Err(StatError::RaggedData)
        );
    }

    #[test]
    fn zero_variance_is_error() {
        assert_eq!(
            welch_t_test(&[1.0, 1.0, 1.0], &[1.0, 1.0, 1.0]),
            Err(StatError::ZeroVariance)
        );
        assert_eq!(
            paired_t_test(&[1.0, 2.0, 3.0], &[2.0, 3.0, 4.0]),
            Err(StatError::ZeroVariance),
            "constant differences have zero variance"
        );
    }

    #[test]
    fn symmetry_in_arguments() {
        let x = [3.0, 4.1, 5.2, 3.9, 4.4, 5.0];
        let y = [4.0, 5.1, 6.2, 4.9, 5.4, 6.0];
        let xy = welch_t_test(&x, &y).unwrap();
        let yx = welch_t_test(&y, &x).unwrap();
        assert!((xy.t + yx.t).abs() < 1e-12);
        assert!((xy.p_value - yx.p_value).abs() < 1e-12);
    }

    /// Arms near 1e-100, whose `se2²` underflows to 0, give the t, df
    /// and p of their unit-scale copies.
    #[test]
    fn welch_survives_underflowing_squares() {
        let (a, b) = ([1.0, 1.01, 1.02], [1.03, 1.05, 1.02]);
        let unit = welch_t_test(&a, &b).unwrap();
        let scaled = |arm: &[f64]| arm.iter().map(|v| v * 1e-100).collect::<Vec<_>>();
        let tiny = welch_t_test(&scaled(&a), &scaled(&b)).unwrap();
        for (got, want) in [(tiny.t, unit.t), (tiny.df, unit.df)] {
            assert!(
                (got - want).abs() <= 1e-12 * want.abs(),
                "{tiny:?} vs {unit:?}"
            );
        }
        assert!(
            (tiny.p_value - unit.p_value).abs() <= 1e-12,
            "{tiny:?} vs {unit:?}"
        );
    }

    /// Finite arms spread near 1e160 overflow the variance: an error,
    /// not a panic inside `StudentT::new`.
    #[test]
    fn welch_overflow_is_non_finite() {
        assert_eq!(
            welch_t_test(&[1e160, 2e160, 3e160], &[1.5e160, 2.5e160, 3.5e160]),
            Err(StatError::NonFinite)
        );
    }

    /// `se2²` rounds to 3 subnormal ulps here; the df taken from it was
    /// 1.5 instead of 2.
    #[test]
    fn welch_df_of_partly_underflowing_squares() {
        let tiny = [0.0, 2.68e-81];
        assert_eq!(welch_t_test(&tiny, &tiny).unwrap().df, 2.0);
    }

    #[test]
    fn more_samples_more_power() {
        let a6: Vec<f64> = (0..6).map(|i| 10.0 + 0.3 * (i % 3) as f64).collect();
        let b6: Vec<f64> = (0..6).map(|i| 10.25 + 0.3 * (i % 3) as f64).collect();
        let a24: Vec<f64> = (0..24).map(|i| 10.0 + 0.3 * (i % 3) as f64).collect();
        let b24: Vec<f64> = (0..24).map(|i| 10.25 + 0.3 * (i % 3) as f64).collect();
        let small = welch_t_test(&a6, &b6).unwrap();
        let large = welch_t_test(&a24, &b24).unwrap();
        assert!(large.p_value < small.p_value);
    }
}
