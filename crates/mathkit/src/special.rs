//! Special functions backing the probability distributions.
//!
//! Implementations follow the classic Lanczos / continued-fraction forms
//! (Numerical Recipes-style), accurate to roughly 1e-10 over the parameter
//! ranges the hypothesis tests use.

use crate::{MathError, Result};

/// Natural log of the gamma function, via the Lanczos approximation.
///
/// # Panics
///
/// Panics in debug builds if `x <= 0` (the reflection formula is not
/// needed by this crate's distributions).
///
/// # Examples
///
/// ```
/// use mathkit::special::ln_gamma;
/// // Gamma(5) = 24
/// assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-10);
/// ```
pub fn ln_gamma(x: f64) -> f64 {
    debug_assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Lanczos coefficients (g = 7, n = 9).
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized incomplete beta function `I_x(a, b)`.
///
/// # Errors
///
/// Returns [`MathError::Domain`] if `x` is outside `[0, 1]` or `a <= 0` or
/// `b <= 0`.
pub fn betai(a: f64, b: f64, x: f64) -> Result<f64> {
    if !(0.0..=1.0).contains(&x) {
        return Err(MathError::Domain(format!("x = {x} outside [0, 1]")));
    }
    if a <= 0.0 || b <= 0.0 {
        return Err(MathError::Domain(format!("a = {a}, b = {b} must be > 0")));
    }
    if x == 0.0 {
        return Ok(0.0);
    }
    if x == 1.0 {
        return Ok(1.0);
    }
    let ln_beta = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b);
    let front = (ln_beta + a * x.ln() + b * (1.0 - x).ln()).exp();
    // Use the continued fraction directly when it converges fast, i.e.
    // x < (a+1)/(a+b+2); otherwise use the symmetry relation.
    if x < (a + 1.0) / (a + b + 2.0) {
        Ok(front * beta_cont_frac(a, b, x) / a)
    } else {
        Ok(1.0 - front * beta_cont_frac(b, a, 1.0 - x) / b)
    }
}

/// Lentz's continued fraction for the incomplete beta function.
fn beta_cont_frac(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 1e-14;
    const TINY: f64 = 1e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Regularized lower incomplete gamma function `P(a, x)`.
///
/// Uses the series representation for `x < a + 1` and the Lentz continued
/// fraction for the complement otherwise; accurate to ~1e-13.
///
/// # Errors
///
/// Returns [`MathError::Domain`] if `a <= 0` or `x < 0`.
fn gamma_p(a: f64, x: f64) -> Result<f64> {
    if a <= 0.0 || x < 0.0 {
        return Err(MathError::Domain(format!(
            "gamma_p requires a > 0 and x >= 0, got a = {a}, x = {x}"
        )));
    }
    if x == 0.0 {
        return Ok(0.0);
    }
    if x < a + 1.0 {
        Ok(gamma_p_series(a, x))
    } else {
        Ok(1.0 - gamma_q_cont_frac(a, x))
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 - P(a, x)`.
///
/// # Errors
///
/// Returns [`MathError::Domain`] if `a <= 0` or `x < 0`.
pub(crate) fn gamma_q(a: f64, x: f64) -> Result<f64> {
    if a <= 0.0 || x < 0.0 {
        return Err(MathError::Domain(format!(
            "gamma_q requires a > 0 and x >= 0, got a = {a}, x = {x}"
        )));
    }
    if x == 0.0 {
        return Ok(1.0);
    }
    if x < a + 1.0 {
        Ok(1.0 - gamma_p_series(a, x))
    } else {
        Ok(gamma_q_cont_frac(a, x))
    }
}

/// Series expansion of `P(a, x)`, valid and fast for `x < a + 1`.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 1e-15;
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut term = sum;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        term *= x / ap;
        sum += term;
        if term.abs() < sum.abs() * EPS {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Lentz continued fraction for `Q(a, x)`, valid for `x >= a + 1`.
fn gamma_q_cont_frac(a: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 1e-15;
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < EPS {
            break;
        }
    }
    h * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Error function `erf(x)`, computed through the regularized incomplete
/// gamma function (`erf(x) = sign(x) · P(1/2, x²)`); accurate to ~1e-13.
///
/// # Examples
///
/// ```
/// use mathkit::special::erf;
/// assert!((erf(0.0)).abs() < 1e-12);
/// assert!((erf(1.0) - 0.8427007929497149).abs() < 1e-12);
/// ```
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let p = gamma_p(0.5, x * x).expect("valid gamma_p args");
    if x > 0.0 {
        p
    } else {
        -p
    }
}

/// Complementary error function `erfc(x) = 1 - erf(x)`, computed through
/// `Q(1/2, x²)` for positive `x` to preserve precision in the tail.
pub fn erfc(x: f64) -> f64 {
    if x == 0.0 {
        return 1.0;
    }
    let q = gamma_q(0.5, x * x).expect("valid gamma_q args");
    if x > 0.0 {
        q
    } else {
        2.0 - q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_of_integers() {
        // Gamma(n) = (n-1)!
        let factorials: [f64; 7] = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0];
        for (i, &f) in factorials.iter().enumerate() {
            let x = (i + 1) as f64;
            assert!((ln_gamma(x) - f.ln()).abs() < 1e-9, "ln_gamma({x})");
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Gamma(1/2) = sqrt(pi)
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn betai_boundary_values() {
        assert_eq!(betai(2.0, 3.0, 0.0).unwrap(), 0.0);
        assert_eq!(betai(2.0, 3.0, 1.0).unwrap(), 1.0);
    }

    #[test]
    fn betai_symmetric_case() {
        // I_{0.5}(a, a) = 0.5 by symmetry.
        for a in [0.5, 1.0, 2.0, 5.0, 10.0] {
            assert!((betai(a, a, 0.5).unwrap() - 0.5).abs() < 1e-10, "a={a}");
        }
    }

    #[test]
    fn betai_uniform_case() {
        // I_x(1, 1) = x.
        for x in [0.1, 0.25, 0.5, 0.9] {
            assert!((betai(1.0, 1.0, x).unwrap() - x).abs() < 1e-10);
        }
    }

    #[test]
    fn betai_known_value() {
        // I_{0.5}(2, 3) = 0.6875 (exact: 1 - (1-x)^3 (1+3x) with a=2,b=3
        // => integral form; checked against R pbeta(0.5, 2, 3)).
        assert!((betai(2.0, 3.0, 0.5).unwrap() - 0.6875).abs() < 1e-10);
    }

    #[test]
    fn betai_rejects_domain_errors() {
        assert!(betai(2.0, 3.0, -0.1).is_err());
        assert!(betai(2.0, 3.0, 1.1).is_err());
        assert!(betai(0.0, 3.0, 0.5).is_err());
        assert!(betai(2.0, -1.0, 0.5).is_err());
    }

    #[test]
    fn erf_known_values() {
        assert!(erf(0.0).abs() < 1e-14);
        assert!((erf(0.5) - 0.5204998778130465).abs() < 1e-12);
        assert!((erf(1.0) - 0.8427007929497149).abs() < 1e-12);
        assert!((erf(2.0) - 0.9953222650189527).abs() < 1e-12);
    }

    #[test]
    fn gamma_p_known_values() {
        // P(1, x) = 1 - exp(-x).
        for x in [0.1, 1.0, 3.0, 10.0] {
            assert!((gamma_p(1.0, x).unwrap() - (1.0 - (-x).exp())).abs() < 1e-12);
        }
        // P + Q = 1.
        for (a, x) in [(0.5, 0.2), (2.5, 4.0), (7.0, 3.0)] {
            let p = gamma_p(a, x).unwrap();
            let q = gamma_q(a, x).unwrap();
            assert!((p + q - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn gamma_p_domain_errors() {
        assert!(gamma_p(0.0, 1.0).is_err());
        assert!(gamma_p(1.0, -1.0).is_err());
        assert!(gamma_q(-2.0, 1.0).is_err());
    }

    #[test]
    fn gamma_p_boundaries() {
        assert_eq!(gamma_p(3.0, 0.0).unwrap(), 0.0);
        assert_eq!(gamma_q(3.0, 0.0).unwrap(), 1.0);
        assert!((gamma_p(1.0, 700.0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn erf_is_odd() {
        for x in [0.3, 1.0, 2.5] {
            assert!((erf(x) + erf(-x)).abs() < 1e-12);
        }
    }

    #[test]
    fn erfc_complements_erf() {
        for x in [-2.0, -0.5, 0.0, 0.7, 3.0] {
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-12);
        }
    }
}
