//! Probability distributions used by the transferability hypothesis tests.
//!
//! The paper's Section VI uses the two-sample Student-t test (and we also
//! provide Mann-Whitney's normal approximation), so the distributions here
//! provide CDFs, survival functions, and quantiles for the Normal and
//! Student-t families.

use crate::special::{betai, erf, erfc};
use crate::{MathError, Result};

/// A normal (Gaussian) distribution.
///
/// # Examples
///
/// ```
/// use mathkit::dist::Normal;
/// let n = Normal::standard();
/// assert!((n.cdf(0.0) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    sd: f64,
}

impl Normal {
    /// Creates a normal distribution with the given mean and standard
    /// deviation.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::Domain`] if `sd <= 0` or either parameter is
    /// non-finite.
    pub fn new(mean: f64, sd: f64) -> Result<Self> {
        if !mean.is_finite() || !sd.is_finite() || sd <= 0.0 {
            return Err(MathError::Domain(format!(
                "normal requires finite mean and sd > 0, got mean={mean}, sd={sd}"
            )));
        }
        Ok(Normal { mean, sd })
    }

    /// The standard normal, `N(0, 1)`.
    pub fn standard() -> Self {
        Normal { mean: 0.0, sd: 1.0 }
    }

    /// Distribution mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Distribution standard deviation.
    pub fn sd(&self) -> f64 {
        self.sd
    }

    /// Probability density function at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.sd;
        (-0.5 * z * z).exp() / (self.sd * (2.0 * std::f64::consts::PI).sqrt())
    }

    /// Cumulative distribution function at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / (self.sd * std::f64::consts::SQRT_2);
        0.5 * (1.0 + erf(z))
    }

    /// Survival function `P(X > x)`.
    pub fn sf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / (self.sd * std::f64::consts::SQRT_2);
        0.5 * erfc(z)
    }

    /// Quantile (inverse CDF) by bisection on the CDF.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::Domain`] if `p` is not strictly inside
    /// `(0, 1)`.
    pub fn quantile(&self, p: f64) -> Result<f64> {
        if !(p > 0.0 && p < 1.0) {
            return Err(MathError::Domain(format!("p = {p} outside (0, 1)")));
        }
        // Standard-normal quantile via Acklam's rational approximation,
        // refined with one Newton step, then rescaled.
        let z = standard_normal_quantile(p);
        let z = {
            // One Newton refinement against our own CDF for consistency.
            let std = Normal::standard();
            let err = std.cdf(z) - p;
            z - err / std.pdf(z).max(1e-300)
        };
        Ok(self.mean + self.sd * z)
    }
}

/// Acklam's rational approximation to the standard normal quantile.
fn standard_normal_quantile(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// A Student-t distribution with `nu` degrees of freedom.
///
/// # Examples
///
/// ```
/// use mathkit::dist::StudentT;
/// let t = StudentT::new(10.0).unwrap();
/// // Symmetric around zero.
/// assert!((t.cdf(0.0) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudentT {
    nu: f64,
}

impl StudentT {
    /// Creates a Student-t distribution.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::Domain`] if `nu <= 0` or non-finite.
    pub fn new(nu: f64) -> Result<Self> {
        if !nu.is_finite() || nu <= 0.0 {
            return Err(MathError::Domain(format!("degrees of freedom {nu} <= 0")));
        }
        Ok(StudentT { nu })
    }

    /// Degrees of freedom.
    pub fn dof(&self) -> f64 {
        self.nu
    }

    /// Cumulative distribution function at `t`.
    pub fn cdf(&self, t: f64) -> f64 {
        if t == 0.0 {
            return 0.5;
        }
        // For very large dof the t distribution is numerically normal and
        // the incomplete-beta route loses precision.
        if self.nu > 1e7 {
            return Normal::standard().cdf(t);
        }
        let x = self.nu / (self.nu + t * t);
        let p = 0.5 * betai(0.5 * self.nu, 0.5, x).expect("valid betai args");
        if t > 0.0 {
            1.0 - p
        } else {
            p
        }
    }

    /// Survival function `P(T > t)`.
    pub fn sf(&self, t: f64) -> f64 {
        1.0 - self.cdf(t)
    }

    /// Two-sided p-value for an observed statistic `t`:
    /// `P(|T| >= |t|)`.
    pub fn two_sided_p(&self, t: f64) -> f64 {
        let x = self.nu / (self.nu + t * t);
        betai(0.5 * self.nu, 0.5, x).expect("valid betai args")
    }

    /// Quantile (inverse CDF) via bisection.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::Domain`] if `p` is not strictly in `(0, 1)`.
    pub fn quantile(&self, p: f64) -> Result<f64> {
        if !(p > 0.0 && p < 1.0) {
            return Err(MathError::Domain(format!("p = {p} outside (0, 1)")));
        }
        if (p - 0.5).abs() < 1e-15 {
            return Ok(0.0);
        }
        // Bracket then bisect; the CDF is monotone.
        let mut lo = -1.0;
        let mut hi = 1.0;
        while self.cdf(lo) > p {
            lo *= 2.0;
            if lo < -1e10 {
                break;
            }
        }
        while self.cdf(hi) < p {
            hi *= 2.0;
            if hi > 1e10 {
                break;
            }
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 1e-12 * (1.0 + hi.abs()) {
                break;
            }
        }
        Ok(0.5 * (lo + hi))
    }

    /// The critical value `t*` such that `P(|T| > t*) = alpha`, i.e. the
    /// two-sided critical threshold used when comparing the test statistic
    /// against, e.g., 1.960 at 95% confidence with large dof.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::Domain`] if `alpha` is not strictly in
    /// `(0, 1)`.
    pub fn two_sided_critical(&self, alpha: f64) -> Result<f64> {
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(MathError::Domain(format!("alpha = {alpha} outside (0, 1)")));
        }
        self.quantile(1.0 - alpha / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_rejects_bad_params() {
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn normal_cdf_known_values() {
        let n = Normal::standard();
        assert!((n.cdf(1.0) - 0.8413447461).abs() < 1e-6);
        assert!((n.cdf(-1.0) - 0.1586552539).abs() < 1e-6);
        assert!((n.cdf(1.959_963_985) - 0.975).abs() < 1e-6);
    }

    #[test]
    fn normal_quantile_inverts_cdf() {
        let n = Normal::new(2.0, 3.0).unwrap();
        for p in [0.01, 0.1, 0.25, 0.5, 0.9, 0.999] {
            let x = n.quantile(p).unwrap();
            assert!((n.cdf(x) - p).abs() < 1e-8, "p={p}");
        }
    }

    #[test]
    fn normal_quantile_domain() {
        let n = Normal::standard();
        assert!(n.quantile(0.0).is_err());
        assert!(n.quantile(1.0).is_err());
    }

    #[test]
    fn normal_pdf_integrates_to_cdf_slope() {
        let n = Normal::standard();
        let h = 1e-5;
        for x in [-1.5, 0.0, 0.7] {
            let numeric = (n.cdf(x + h) - n.cdf(x - h)) / (2.0 * h);
            assert!(
                (numeric - n.pdf(x)).abs() < 1e-6,
                "x={x}: {numeric} vs {}",
                n.pdf(x)
            );
        }
    }

    #[test]
    fn t_matches_published_critical_values() {
        // t_{0.975, 10} = 2.228, t_{0.975, 30} = 2.042, t_{inf} -> 1.960
        let cases = [(10.0, 2.228), (30.0, 2.042), (1000.0, 1.962)];
        for (nu, expected) in cases {
            let t = StudentT::new(nu).unwrap();
            let crit = t.two_sided_critical(0.05).unwrap();
            assert!((crit - expected).abs() < 1e-2, "nu={nu}: {crit}");
        }
    }

    #[test]
    fn t_cdf_symmetry() {
        let t = StudentT::new(7.0).unwrap();
        for x in [0.5, 1.3, 2.9] {
            assert!((t.cdf(x) + t.cdf(-x) - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn t_two_sided_p_examples() {
        // With 2m-2 huge dof, t=1.212 should be clearly insignificant and
        // t=125 astronomically significant (paper Section VI values).
        let t = StudentT::new(416744.0).unwrap();
        assert!(t.two_sided_p(1.212) > 0.2);
        assert!(t.two_sided_p(125.38) < 1e-100 || t.two_sided_p(125.38) == 0.0);
    }

    #[test]
    fn t_approaches_normal_for_large_dof() {
        let t = StudentT::new(1e8).unwrap();
        let n = Normal::standard();
        for x in [-2.0, -0.5, 0.3, 1.7] {
            assert!((t.cdf(x) - n.cdf(x)).abs() < 1e-6);
        }
    }

    #[test]
    fn t_quantile_inverts_cdf() {
        let t = StudentT::new(12.0).unwrap();
        for p in [0.05, 0.3, 0.5, 0.8, 0.975] {
            let x = t.quantile(p).unwrap();
            assert!((t.cdf(x) - p).abs() < 1e-8);
        }
    }

    #[test]
    fn t_rejects_bad_dof() {
        assert!(StudentT::new(0.0).is_err());
        assert!(StudentT::new(-3.0).is_err());
        assert!(StudentT::new(f64::INFINITY).is_err());
    }
}
