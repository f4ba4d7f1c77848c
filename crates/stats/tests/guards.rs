//! Degenerate-input guards for every `spec-stats` entry point.
//!
//! Contract: undersized inputs (`n < 2`, mismatched lengths, empty
//! slices) return `Err`, and zero-variance inputs return well-defined
//! finite-or-signed-infinite results — no entry point may panic or emit
//! NaN on them.

use spec_stats::bootstrap::{bootstrap_ci, correlation_ci, mae_ci};
use spec_stats::metrics::PredictionMetrics;
use spec_stats::nonparametric::mann_whitney_u;
use spec_stats::ttest::{cohens_d, paired_t_test, two_sample_t_test, welch_t_test};
use spec_stats::StatsError;

const CONST8: [f64; 8] = [2.0; 8];
const VARIED8: [f64; 8] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];

#[test]
fn t_tests_reject_undersized_samples() {
    for bad in [&[] as &[f64], &[1.0]] {
        assert!(matches!(
            welch_t_test(bad, &VARIED8),
            Err(StatsError::InsufficientData(_))
        ));
        assert!(matches!(
            welch_t_test(&VARIED8, bad),
            Err(StatsError::InsufficientData(_))
        ));
        assert!(matches!(
            two_sample_t_test(bad, &VARIED8),
            Err(StatsError::InsufficientData(_))
        ));
        assert!(matches!(
            cohens_d(bad, &VARIED8),
            Err(StatsError::InsufficientData(_))
        ));
    }
    assert!(matches!(
        paired_t_test(&[1.0], &[1.0]),
        Err(StatsError::InsufficientData(_))
    ));
    assert!(matches!(
        paired_t_test(&[1.0, 2.0], &[1.0, 2.0, 3.0]),
        Err(StatsError::LengthMismatch(_))
    ));
}

#[test]
fn t_tests_zero_variance_well_defined() {
    // Equal constants: no evidence of a difference.
    for r in [
        welch_t_test(&CONST8, &CONST8).unwrap(),
        two_sample_t_test(&CONST8, &CONST8).unwrap(),
        paired_t_test(&CONST8, &CONST8).unwrap(),
    ] {
        assert_eq!(r.statistic, 0.0);
        assert_eq!(r.p_value, 1.0);
        assert!(!r.significant_at(0.05));
    }
    // One side constant, the other varied: still finite and defined.
    for r in [
        welch_t_test(&CONST8, &VARIED8).unwrap(),
        two_sample_t_test(&CONST8, &VARIED8).unwrap(),
    ] {
        assert!(r.statistic.is_finite(), "t = {}", r.statistic);
        assert!(r.p_value.is_finite() && (0.0..=1.0).contains(&r.p_value));
    }
    // Distinct constants: perfect separation, signed infinity, p = 0.
    let hi = [3.0; 8];
    for r in [
        welch_t_test(&hi, &CONST8).unwrap(),
        two_sample_t_test(&hi, &CONST8).unwrap(),
        paired_t_test(&hi, &CONST8).unwrap(),
    ] {
        assert_eq!(r.statistic, f64::INFINITY);
        assert_eq!(r.p_value, 0.0);
    }
    assert_eq!(cohens_d(&CONST8, &CONST8).unwrap(), 0.0);
    assert_eq!(cohens_d(&hi, &CONST8).unwrap(), f64::INFINITY);
    assert_eq!(cohens_d(&CONST8, &hi).unwrap(), f64::NEG_INFINITY);
}

#[test]
fn bootstrap_rejects_degenerate_inputs() {
    let xs = [1.0, 2.0, 3.0, 4.0];
    let ys = [1.1, 2.1, 2.9, 4.2];
    // Length mismatch.
    assert!(matches!(
        bootstrap_ci(
            &xs,
            &ys[..3],
            |p, a| p.len().max(a.len()) as f64,
            100,
            0.95,
            1
        ),
        Err(StatsError::LengthMismatch(_))
    ));
    // n < 2.
    for n in 0..2 {
        assert!(matches!(
            mae_ci(&xs[..n], &ys[..n], 100, 0.95, 1),
            Err(StatsError::InsufficientData(_))
        ));
    }
    // Confidence outside (0, 1), including NaN.
    for conf in [0.0, 1.0, -0.5, 2.0, f64::NAN] {
        assert!(matches!(
            mae_ci(&xs, &ys, 100, conf, 1),
            Err(StatsError::Domain(_))
        ));
    }
    // Zero resamples.
    assert!(matches!(
        correlation_ci(&xs, &ys, 0, 0.95, 1),
        Err(StatsError::Domain(_))
    ));
}

#[test]
fn bootstrap_zero_variance_inputs_give_degenerate_but_finite_cis() {
    // Constant predictions and actuals: every resample statistic is
    // identical, so the CI collapses to a point without panicking.
    let ci = mae_ci(&CONST8, &CONST8, 200, 0.95, 7).unwrap();
    assert_eq!(ci.point, 0.0);
    assert_eq!(ci.lower, 0.0);
    assert_eq!(ci.upper, 0.0);
    // Correlation against a constant vector is undefined per-resample;
    // the CI must still come back finite (the estimator maps undefined
    // correlations to 0).
    let ci = correlation_ci(&CONST8, &VARIED8, 200, 0.95, 7).unwrap();
    assert!(ci.lower.is_finite() && ci.upper.is_finite());
}

#[test]
fn mann_whitney_guards() {
    // Fewer than 8 combined observations is refused.
    assert!(mann_whitney_u(&[1.0, 2.0, 3.0], &[4.0, 5.0]).is_err());
    assert!(mann_whitney_u(&[], &VARIED8).is_err());
    // All-tied data: variance collapses; must be a defined non-result.
    let r = mann_whitney_u(&CONST8, &CONST8).unwrap();
    assert_eq!(r.statistic, 0.0);
    assert_eq!(r.p_value, 1.0);
    // Distinct constants still work (exact separation, tiny p).
    let r = mann_whitney_u(&CONST8, &[9.0; 8]).unwrap();
    assert!(r.p_value < 0.01, "p = {}", r.p_value);
}

#[test]
fn prediction_metrics_guards() {
    assert!(PredictionMetrics::from_predictions(&[1.0], &[1.0]).is_err());
    assert!(PredictionMetrics::from_predictions(&[1.0, 2.0], &[1.0]).is_err());
    // Constant predictions: correlation undefined -> the metrics
    // constructor must not panic (C reported as 0).
    let m = PredictionMetrics::from_predictions(&CONST8, &VARIED8).unwrap();
    assert!(m.mae.is_finite());
    assert!(m.correlation.is_finite());
}
