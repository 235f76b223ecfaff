//! Statistical machinery for statistically sound performance evaluation.
//!
//! STABILIZER's whole point (§2 of the paper) is that once execution
//! times are normally distributed, *parametric* hypothesis tests become
//! applicable. This crate supplies everything the paper's evaluation
//! uses:
//!
//! - [`shapiro_wilk`] — the test for normality behind **Table 1**;
//! - [`brown_forsythe`] — the variance-homogeneity test in **Table 1**;
//! - [`welch_t_test`] / [`student_t_test`] / [`paired_t_test`] — the
//!   per-benchmark significance tests of **Figure 7** (§2.4);
//! - [`wilcoxon_signed_rank`] / [`mann_whitney_u`] — the non-parametric
//!   fallbacks for non-normal benchmarks (§6);
//! - [`one_way_anova`] / [`repeated_measures_anova`] — the suite-wide
//!   analysis of **§6.1**;
//! - [`qq_points`] — quantile-quantile points against the Gaussian for
//!   **Figure 5**;
//! - [`dist`] — normal, Student-t, F and χ² distributions built on the
//!   special functions in [`special`];
//! - [`effect_ci`] / [`effect_ci_hierarchical`] — deterministic
//!   percentile-bootstrap CIs on the ratio-of-means effect size
//!   (Kalibera & Jones);
//! - [`judge`] / [`judge_hierarchical`] — practical-equivalence
//!   verdicts (`RobustlyFaster` / `RobustlySlower` / `Equivalent` /
//!   `Inconclusive`) combining the bootstrap and Welch intervals, and
//!   [`prejudge`], an exact pre-check that settles many calls from the
//!   arms' extremes and moments alone;
//! - [`reduce_suite`] — μOpTime-style static suite reduction by
//!   stability metrics.
//!
//! # Examples
//!
//! ```
//! use sz_stats::{shapiro_wilk, welch_t_test};
//!
//! let before = [10.1, 10.3, 9.8, 10.0, 10.2, 9.9, 10.15, 10.05];
//! let after = [9.1, 9.3, 8.8, 9.0, 9.2, 8.9, 9.15, 9.05];
//!
//! let sw = shapiro_wilk(&before)?;
//! assert!(sw.p_value > 0.05, "plausibly normal");
//!
//! let t = welch_t_test(&before, &after)?;
//! assert!(t.p_value < 0.05, "the change is statistically significant");
//! # Ok::<(), sz_stats::StatError>(())
//! ```

pub mod anova;
pub mod bootstrap;
pub mod desc;
pub mod dist;
pub mod qq;
pub mod reduce;
pub mod special;
pub mod verdict;

mod effect;
mod error;
mod levene;
mod shapiro;
mod ttest;
mod wilcoxon;

pub use anova::{one_way_anova, repeated_measures_anova, AnovaResult};
pub use bootstrap::{effect_ci, effect_ci_hierarchical, EffectCi};
pub use desc::{geometric_mean, mean, median, quantile, sample_std, sample_variance, Summary};
pub use effect::{cohens_d, diff_ci, diff_half_width, mean_ci, ConfidenceInterval};
pub use error::StatError;
pub use levene::{brown_forsythe, LeveneResult};
pub use qq::{qq_points, QqPoint};
pub use reduce::{rank_stability, reduce_suite, BenchmarkArms, StabilityRow, SuiteReduction};
pub use shapiro::{shapiro_wilk, ShapiroWilk};
pub use ttest::{paired_t_test, student_t_test, welch_t_test, TTest};
pub use verdict::{
    judge, judge_hierarchical, prejudge, EffectVerdict, Prejudged, VerdictConfig, VerdictReport,
};
pub use wilcoxon::{mann_whitney_u, wilcoxon_signed_rank, RankTest};

/// Conventional significance threshold used throughout the paper.
pub const ALPHA: f64 = 0.05;

/// Outcome of a two-sided hypothesis test at a given significance level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The null hypothesis is rejected at the chosen `α`.
    Significant,
    /// The null hypothesis cannot be rejected.
    NotSignificant,
}

impl Verdict {
    /// Classifies a p-value against a significance level.
    pub fn from_p(p_value: f64, alpha: f64) -> Self {
        if p_value < alpha {
            Verdict::Significant
        } else {
            Verdict::NotSignificant
        }
    }

    /// Returns `true` for [`Verdict::Significant`].
    pub fn is_significant(self) -> bool {
        matches!(self, Verdict::Significant)
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Significant => write!(f, "significant"),
            Verdict::NotSignificant => write!(f, "not significant"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_classification() {
        assert!(Verdict::from_p(0.01, ALPHA).is_significant());
        assert!(!Verdict::from_p(0.3, ALPHA).is_significant());
        assert!(
            !Verdict::from_p(0.05, ALPHA).is_significant(),
            "boundary is not significant"
        );
    }

    #[test]
    fn verdict_display() {
        assert_eq!(Verdict::Significant.to_string(), "significant");
        assert_eq!(Verdict::NotSignificant.to_string(), "not significant");
    }
}
