//! Two-sample and paired Student-t tests.
//!
//! Follows the paper's Section VI-A: means and variances are estimated
//! with the unbiased estimators of Equations 8 and 9, the standard error
//! of the mean difference with Equation 10, and the test statistic with
//! Equation 11 (`t = (mu_1 - mu_2) / sigma_diff` on `n + m - 2` degrees
//! of freedom for the pooled test).

use crate::{Result, StatsError};
use mathkit::describe::{mean, variance};
use mathkit::dist::StudentT;

/// The outcome of a t-test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TTestResult {
    /// The t statistic.
    pub statistic: f64,
    /// Degrees of freedom.
    pub dof: f64,
    /// Two-sided p-value.
    pub p_value: f64,
    /// Mean of the first sample.
    pub mean_a: f64,
    /// Mean of the second sample.
    pub mean_b: f64,
    /// Standard error of the mean difference (Equation 10's
    /// `sigma_hat`).
    pub std_err: f64,
}

impl TTestResult {
    /// True if the null hypothesis (equal means) is rejected at level
    /// `alpha` (two-sided).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `alpha` is not in `(0, 1)`.
    pub fn significant_at(&self, alpha: f64) -> bool {
        debug_assert!(alpha > 0.0 && alpha < 1.0);
        self.p_value < alpha
    }

    /// The two-sided critical value `t*` at level `alpha`; the paper
    /// compares `|t|` against 1.960 at 95% with large samples.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Domain`] if `alpha` is not in `(0, 1)`.
    pub fn critical_value(&self, alpha: f64) -> Result<f64> {
        let dist = StudentT::new(self.dof).map_err(|e| StatsError::Domain(e.to_string()))?;
        dist.two_sided_critical(alpha)
            .map_err(|e| StatsError::Domain(e.to_string()))
    }
}

/// Result for a zero-standard-error two-sample comparison: both sides
/// are exact constants, so the verdict is decided by the means alone —
/// `t = 0, p = 1` when they agree, `t = ±inf, p = 0` when they differ.
fn degenerate_constant(mean_a: f64, mean_b: f64, dof: f64) -> TTestResult {
    let diff = mean_a - mean_b;
    TTestResult {
        statistic: if diff == 0.0 {
            0.0
        } else {
            f64::INFINITY.copysign(diff)
        },
        dof,
        p_value: if diff == 0.0 { 1.0 } else { 0.0 },
        mean_a,
        mean_b,
        std_err: 0.0,
    }
}

fn finalize(statistic: f64, dof: f64, mean_a: f64, mean_b: f64, std_err: f64) -> TTestResult {
    let dist = StudentT::new(dof.max(1.0)).expect("dof >= 1");
    TTestResult {
        statistic,
        dof,
        p_value: dist.two_sided_p(statistic),
        mean_a,
        mean_b,
        std_err,
    }
}

/// The summary a two-sample t-test or effect size reads from one
/// sample: its size, mean (Equation 8) and unbiased variance
/// (Equation 9).
///
/// Built once, a summary can be reused for every comparison its sample
/// takes part in; [`welch_t_test`] and [`cohens_d`] are thin wrappers
/// over [`welch_from_moments`] and [`cohens_d_from_moments`], so the
/// one-shot and the summary paths give bit-identical results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleMoments {
    n: usize,
    mean: f64,
    variance: f64,
}

impl SampleMoments {
    /// Summarizes a sample with `mathkit::describe::{mean, variance}`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InsufficientData`] if the sample has fewer
    /// than 2 elements (the unbiased variance is undefined).
    pub fn new(xs: &[f64]) -> Result<Self> {
        match (mean(xs), variance(xs)) {
            (Ok(mean), Ok(variance)) => Ok(SampleMoments {
                n: xs.len(),
                mean,
                variance,
            }),
            _ => Err(StatsError::InsufficientData(format!(
                "need >= 2 samples, got {}",
                xs.len()
            ))),
        }
    }

    /// Number of observations (at least 2).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (`n - 1` denominator).
    pub fn variance(&self) -> f64 {
        self.variance
    }
}

/// The shared size guard of the two-sample tests.
fn two_sample_moments(a: &[f64], b: &[f64]) -> Result<(SampleMoments, SampleMoments)> {
    if a.len() < 2 || b.len() < 2 {
        return Err(StatsError::InsufficientData(format!(
            "need >= 2 samples on each side, got {} and {}",
            a.len(),
            b.len()
        )));
    }
    Ok((SampleMoments::new(a)?, SampleMoments::new(b)?))
}

/// Unequal-variance (Welch) two-sample t-test — the form of Equations
/// 10–11, which the paper notes is "robust against unequal variance when
/// the number of instances ... are not very different".
///
/// # Errors
///
/// Returns [`StatsError::InsufficientData`] if either sample has fewer
/// than 2 elements.
pub fn welch_t_test(a: &[f64], b: &[f64]) -> Result<TTestResult> {
    let (a, b) = two_sample_moments(a, b)?;
    Ok(welch_from_moments(&a, &b))
}

/// [`welch_t_test`] from precomputed sample summaries.
pub fn welch_from_moments(a: &SampleMoments, b: &SampleMoments) -> TTestResult {
    let (ma, mb) = (a.mean, b.mean);
    let (na, nb) = (a.n as f64, b.n as f64);
    let sea = a.variance / na;
    let seb = b.variance / nb;
    let se = (sea + seb).sqrt();
    if se == 0.0 {
        // Both sides are constants. Equal constants carry no evidence of
        // a difference; distinct constants are a zero-noise separation
        // (infinitely strong evidence), matching `paired_t_test`.
        return degenerate_constant(ma, mb, na + nb - 2.0);
    }
    // Welch–Satterthwaite degrees of freedom.
    let dof = (sea + seb) * (sea + seb) / (sea * sea / (na - 1.0) + seb * seb / (nb - 1.0));
    finalize((ma - mb) / se, dof, ma, mb, se)
}

/// Pooled-variance two-sample t-test on `n + m - 2` degrees of freedom,
/// the classical form referenced by Equation 11.
///
/// # Errors
///
/// Returns [`StatsError::InsufficientData`] if either sample has fewer
/// than 2 elements.
pub fn two_sample_t_test(a: &[f64], b: &[f64]) -> Result<TTestResult> {
    let (a, b) = two_sample_moments(a, b)?;
    let (ma, mb) = (a.mean, b.mean);
    let (na, nb) = (a.n as f64, b.n as f64);
    let dof = na + nb - 2.0;
    let pooled = ((na - 1.0) * a.variance + (nb - 1.0) * b.variance) / dof;
    let se = (pooled * (1.0 / na + 1.0 / nb)).sqrt();
    if se == 0.0 {
        return Ok(degenerate_constant(ma, mb, dof));
    }
    Ok(finalize((ma - mb) / se, dof, ma, mb, se))
}

/// Paired t-test on per-element differences (e.g. predicted vs actual on
/// the same test intervals).
///
/// # Errors
///
/// * [`StatsError::LengthMismatch`] if the slices differ in length.
/// * [`StatsError::InsufficientData`] if fewer than 2 pairs.
pub fn paired_t_test(a: &[f64], b: &[f64]) -> Result<TTestResult> {
    if a.len() != b.len() {
        return Err(StatsError::LengthMismatch(format!(
            "{} vs {}",
            a.len(),
            b.len()
        )));
    }
    if a.len() < 2 {
        return Err(StatsError::InsufficientData(format!(
            "need >= 2 pairs, got {}",
            a.len()
        )));
    }
    let diffs: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    let md = mean(&diffs).expect("non-empty");
    let vd = variance(&diffs).expect("len >= 2");
    let n = diffs.len() as f64;
    let se = (vd / n).sqrt();
    let dof = n - 1.0;
    let (ma, mb) = (mean(a).expect("non-empty"), mean(b).expect("non-empty"));
    if se == 0.0 {
        // All differences identical: either exactly zero (no evidence)
        // or a perfectly constant shift (infinitely strong evidence,
        // signed by the direction of the shift).
        return Ok(TTestResult {
            statistic: if md == 0.0 {
                0.0
            } else {
                f64::INFINITY.copysign(md)
            },
            dof,
            p_value: if md == 0.0 { 1.0 } else { 0.0 },
            mean_a: ma,
            mean_b: mb,
            std_err: 0.0,
        });
    }
    Ok(finalize(md / se, dof, ma, mb, se))
}

/// Cohen's d effect size for two independent samples (pooled-sd
/// standardized mean difference). Complements the t statistic: with the
/// paper's huge samples, even negligible differences are "significant",
/// so the effect size says whether a rejection matters.
///
/// # Errors
///
/// Returns [`StatsError::InsufficientData`] if either sample has fewer
/// than 2 elements.
pub fn cohens_d(a: &[f64], b: &[f64]) -> Result<f64> {
    let (a, b) = two_sample_moments(a, b)?;
    Ok(cohens_d_from_moments(&a, &b))
}

/// [`cohens_d`] from precomputed sample summaries.
pub fn cohens_d_from_moments(a: &SampleMoments, b: &SampleMoments) -> f64 {
    let (ma, mb) = (a.mean, b.mean);
    let (na, nb) = (a.n as f64, b.n as f64);
    let pooled = (((na - 1.0) * a.variance + (nb - 1.0) * b.variance) / (na + nb - 2.0)).sqrt();
    if pooled == 0.0 {
        return if ma == mb {
            0.0
        } else {
            f64::INFINITY.copysign(ma - mb)
        };
    }
    (ma - mb) / pooled
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn normal_sample(n: usize, mean: f64, sd: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| mathkit::sampling::normal(&mut rng, mean, sd))
            .collect()
    }

    #[test]
    fn identical_distributions_accept_null() {
        let a = normal_sample(5000, 1.0, 0.5, 1);
        let b = normal_sample(5000, 1.0, 0.5, 2);
        for result in [
            two_sample_t_test(&a, &b).unwrap(),
            welch_t_test(&a, &b).unwrap(),
        ] {
            assert!(
                !result.significant_at(0.01),
                "t = {}, p = {}",
                result.statistic,
                result.p_value
            );
        }
    }

    #[test]
    fn shifted_distributions_reject_null() {
        let a = normal_sample(5000, 1.0, 0.5, 3);
        let b = normal_sample(5000, 1.2, 0.5, 4);
        for result in [
            two_sample_t_test(&a, &b).unwrap(),
            welch_t_test(&a, &b).unwrap(),
        ] {
            assert!(result.significant_at(0.001));
            assert!(result.statistic.abs() > 10.0);
        }
    }

    #[test]
    fn known_textbook_value() {
        // Classic small-sample check (pooled): a = {1,2,3,4,5},
        // b = {3,4,5,6,7}: t = -2/(sqrt(2.5)*sqrt(2/5)) = -2.0.
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [3.0, 4.0, 5.0, 6.0, 7.0];
        let r = two_sample_t_test(&a, &b).unwrap();
        assert!((r.statistic + 2.0).abs() < 1e-12);
        assert_eq!(r.dof, 8.0);
        // p-value for |t|=2 on 8 dof is ~0.0805.
        assert!((r.p_value - 0.0805).abs() < 1e-3);
    }

    #[test]
    fn welch_dof_below_pooled_for_unequal_variances() {
        let a = normal_sample(100, 0.0, 0.1, 5);
        let b = normal_sample(100, 0.0, 3.0, 6);
        let w = welch_t_test(&a, &b).unwrap();
        let p = two_sample_t_test(&a, &b).unwrap();
        assert!(w.dof < p.dof);
    }

    #[test]
    fn paired_detects_small_systematic_shift() {
        let a = normal_sample(2000, 1.0, 0.5, 7);
        let b: Vec<f64> = a.iter().map(|x| x + 0.02).collect();
        // Unpaired can't see a 0.02 shift under sd 0.5 at n=2000, paired
        // can (the difference is exactly constant).
        let unpaired = two_sample_t_test(&a, &b).unwrap();
        let paired = paired_t_test(&a, &b).unwrap();
        assert!(!unpaired.significant_at(0.05));
        assert!(paired.significant_at(0.001));
    }

    #[test]
    fn paired_identical_is_insignificant() {
        let a = normal_sample(100, 1.0, 0.5, 8);
        let r = paired_t_test(&a, &a).unwrap();
        assert_eq!(r.statistic, 0.0);
        assert_eq!(r.p_value, 1.0);
    }

    #[test]
    fn input_validation() {
        assert!(two_sample_t_test(&[1.0], &[1.0, 2.0]).is_err());
        assert!(welch_t_test(&[], &[1.0, 2.0]).is_err());
        assert!(paired_t_test(&[1.0, 2.0], &[1.0]).is_err());
        assert!(paired_t_test(&[1.0], &[1.0]).is_err());
    }

    #[test]
    fn constant_samples_handled() {
        let a = [2.0, 2.0, 2.0];
        let b = [2.0, 2.0, 2.0, 2.0];
        let r = two_sample_t_test(&a, &b).unwrap();
        assert_eq!(r.statistic, 0.0);
        assert!(!r.significant_at(0.05));
    }

    #[test]
    fn distinct_constants_are_infinitely_significant() {
        // Zero variance with different means is a perfect separation,
        // not "no evidence": t must be signed infinity and p zero.
        let lo = [1.0, 1.0, 1.0];
        let hi = [2.0, 2.0, 2.0];
        for r in [
            two_sample_t_test(&lo, &hi).unwrap(),
            welch_t_test(&lo, &hi).unwrap(),
        ] {
            assert_eq!(r.statistic, f64::NEG_INFINITY);
            assert_eq!(r.p_value, 0.0);
            assert!(r.significant_at(0.05));
        }
        let r = welch_t_test(&hi, &lo).unwrap();
        assert_eq!(r.statistic, f64::INFINITY);
        let p = paired_t_test(&lo, &hi).unwrap();
        assert_eq!(p.statistic, f64::NEG_INFINITY);
        assert_eq!(p.p_value, 0.0);
    }

    #[test]
    fn critical_value_matches_large_sample_1960() {
        // The paper: "the test rejects the Null hypothesis ... at 95%"
        // whenever |t| > 1.960 for large samples.
        let a = normal_sample(10000, 1.0, 0.5, 9);
        let b = normal_sample(10000, 1.0, 0.5, 10);
        let r = two_sample_t_test(&a, &b).unwrap();
        let crit = r.critical_value(0.05).unwrap();
        assert!((crit - 1.960).abs() < 1e-2, "crit {crit}");
    }

    #[test]
    fn cohens_d_known_cases() {
        // One pooled-sd separation.
        let a = [0.0, 1.0, 2.0, 3.0, 4.0];
        let b: Vec<f64> = a
            .iter()
            .map(|x| x + a.len() as f64 * 0.0 + 1.5811388)
            .collect();
        // sd of a (and b) = sqrt(2.5) = 1.5811; shift by exactly 1 sd.
        let d = cohens_d(&b, &a).unwrap();
        assert!((d - 1.0).abs() < 1e-6, "d = {d}");
        // Identical samples: zero effect.
        assert_eq!(cohens_d(&a, &a).unwrap(), 0.0);
        // Antisymmetry.
        assert!((cohens_d(&a, &b).unwrap() + 1.0).abs() < 1e-6);
    }

    #[test]
    fn cohens_d_large_sample_insensitivity() {
        // Unlike t, d does not blow up with n: a fixed 0.1-sd shift gives
        // d ~ 0.1 at any size. Both samples are the n standard-normal
        // quantiles at plotting positions (i + 0.5) / n rather than
        // random draws: at n = 100 a random sample's d has sd ~0.14, so
        // a seeded draw would test the seed, not the property.
        let quantiles = |n: usize, mean: f64| -> Vec<f64> {
            let z = mathkit::dist::Normal::standard();
            (0..n)
                .map(|i| mean + z.quantile((i as f64 + 0.5) / n as f64).unwrap())
                .collect()
        };
        for n in [100usize, 10_000] {
            let a = quantiles(n, 0.0);
            let b = quantiles(n, 0.1);
            let d = cohens_d(&b, &a).unwrap();
            assert!((d - 0.1).abs() < 0.06, "n={n}: d = {d}");
        }
    }

    #[test]
    fn cohens_d_degenerate() {
        assert!(cohens_d(&[1.0], &[1.0, 2.0]).is_err());
        let flat = [2.0, 2.0, 2.0];
        assert_eq!(cohens_d(&flat, &flat).unwrap(), 0.0);
        assert_eq!(cohens_d(&[3.0, 3.0], &[2.0, 2.0]).unwrap(), f64::INFINITY);
    }

    /// The Welch formula read straight off the samples: the oracle the
    /// summary path must match bit for bit.
    fn welch_oracle(a: &[f64], b: &[f64]) -> TTestResult {
        let (ma, mb) = (mean(a).unwrap(), mean(b).unwrap());
        let (va, vb) = (variance(a).unwrap(), variance(b).unwrap());
        let (na, nb) = (a.len() as f64, b.len() as f64);
        let (sea, seb) = (va / na, vb / nb);
        let se = (sea + seb).sqrt();
        if se == 0.0 {
            return degenerate_constant(ma, mb, na + nb - 2.0);
        }
        let dof = (sea + seb) * (sea + seb) / (sea * sea / (na - 1.0) + seb * seb / (nb - 1.0));
        finalize((ma - mb) / se, dof, ma, mb, se)
    }

    /// Cohen's d read straight off the samples.
    fn cohens_d_oracle(a: &[f64], b: &[f64]) -> f64 {
        let (ma, mb) = (mean(a).unwrap(), mean(b).unwrap());
        let (va, vb) = (variance(a).unwrap(), variance(b).unwrap());
        let (na, nb) = (a.len() as f64, b.len() as f64);
        let pooled = (((na - 1.0) * va + (nb - 1.0) * vb) / (na + nb - 2.0)).sqrt();
        if pooled == 0.0 {
            return if ma == mb {
                0.0
            } else {
                f64::INFINITY.copysign(ma - mb)
            };
        }
        (ma - mb) / pooled
    }

    fn result_bits(r: &TTestResult) -> [u64; 6] {
        [r.statistic, r.dof, r.p_value, r.mean_a, r.mean_b, r.std_err].map(f64::to_bits)
    }

    #[test]
    fn summaries_match_one_shot_bit_for_bit() {
        let cases: Vec<(Vec<f64>, Vec<f64>)> = vec![
            (
                normal_sample(2000, 1.0, 0.5, 30),
                normal_sample(18_000, 1.1, 0.7, 31),
            ),
            (
                normal_sample(2, 0.0, 1.0, 32),
                normal_sample(3, 5.0, 1e-9, 33),
            ),
            (vec![2.0; 5], vec![2.0; 7]),
            (vec![1.0; 4], vec![-0.0, 0.0, 0.0]),
            (vec![1e300, -1e300, 3.0], vec![0.25, 0.5]),
        ];
        for (a, b) in &cases {
            let (ma, mb) = (
                SampleMoments::new(a).unwrap(),
                SampleMoments::new(b).unwrap(),
            );
            assert_eq!(ma.n(), a.len());
            assert_eq!(ma.mean().to_bits(), mean(a).unwrap().to_bits());
            assert_eq!(ma.variance().to_bits(), variance(a).unwrap().to_bits());
            let oracle = welch_oracle(a, b);
            assert_eq!(
                result_bits(&welch_from_moments(&ma, &mb)),
                result_bits(&oracle)
            );
            assert_eq!(
                result_bits(&welch_t_test(a, b).unwrap()),
                result_bits(&oracle)
            );
            let d = cohens_d_oracle(a, b);
            assert_eq!(cohens_d_from_moments(&ma, &mb).to_bits(), d.to_bits());
            assert_eq!(cohens_d(a, b).unwrap().to_bits(), d.to_bits());
        }
    }

    #[test]
    fn summary_rejects_undersized_samples() {
        for xs in [&[] as &[f64], &[1.0]] {
            assert!(matches!(
                SampleMoments::new(xs),
                Err(StatsError::InsufficientData(_))
            ));
        }
        // The one-shot functions keep their own two-sided message.
        let err = welch_t_test(&[1.0], &[1.0, 2.0]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "insufficient data: need >= 2 samples on each side, got 1 and 2"
        );
        assert_eq!(cohens_d(&[1.0, 2.0], &[]).unwrap_err().to_string(), {
            "insufficient data: need >= 2 samples on each side, got 2 and 0"
        });
    }
}
