//! Checks against external reference values (R / textbook results) and
//! algebraic properties of the statistical routines.

use proptest::prelude::*;
use spec_stats::metrics::PredictionMetrics;
use spec_stats::nonparametric::mann_whitney_u;
use spec_stats::ttest::{paired_t_test, two_sample_t_test, welch_t_test};

// R: t.test(c(30.02,29.99,30.11,29.97,30.01,29.99),
//           c(29.89,29.93,29.72,29.98,30.02,29.98), var.equal=TRUE)
// t = 1.959, df = 10, p-value = 0.07857
#[test]
fn pooled_t_matches_r_example() {
    let a = [30.02, 29.99, 30.11, 29.97, 30.01, 29.99];
    let b = [29.89, 29.93, 29.72, 29.98, 30.02, 29.98];
    let r = two_sample_t_test(&a, &b).unwrap();
    assert!((r.statistic - 1.959).abs() < 1e-3, "t = {}", r.statistic);
    assert_eq!(r.dof, 10.0);
    assert!((r.p_value - 0.07857).abs() < 1e-4, "p = {}", r.p_value);
}

// Same data, Welch: t = 1.959, df = 7.03, p = 0.0907 (R default t.test).
#[test]
fn welch_t_matches_r_example() {
    let a = [30.02, 29.99, 30.11, 29.97, 30.01, 29.99];
    let b = [29.89, 29.93, 29.72, 29.98, 30.02, 29.98];
    let r = welch_t_test(&a, &b).unwrap();
    assert!((r.statistic - 1.959).abs() < 1e-3);
    assert!((r.dof - 7.03).abs() < 0.01, "dof = {}", r.dof);
    assert!((r.p_value - 0.0907).abs() < 5e-4, "p = {}", r.p_value);
}

// R: t.test(x, y, paired=TRUE) with x = 1..10, y = x + noise-free 0.5.
#[test]
fn paired_t_constant_shift() {
    let a: Vec<f64> = (1..=10).map(|i| i as f64).collect();
    let b: Vec<f64> = a.iter().map(|x| x + 0.5).collect();
    let r = paired_t_test(&b, &a).unwrap();
    // Zero-variance differences with non-zero mean: infinite evidence.
    assert_eq!(r.statistic, f64::INFINITY);
    assert_eq!(r.p_value, 0.0);
}

// Mann-Whitney with clearly separated samples: U = 0, |z| near maximum.
#[test]
fn mann_whitney_fully_separated() {
    let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
    let b = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0];
    let r = mann_whitney_u(&a, &b).unwrap();
    assert!(r.p_value < 0.01, "p = {}", r.p_value);
    assert!(r.statistic < -2.5, "z = {}", r.statistic);
}

proptest! {
    #[test]
    fn t_statistic_antisymmetric(
        a in proptest::collection::vec(-100.0f64..100.0, 3..50),
        b in proptest::collection::vec(-100.0f64..100.0, 3..50),
    ) {
        let ab = two_sample_t_test(&a, &b).unwrap();
        let ba = two_sample_t_test(&b, &a).unwrap();
        prop_assert!((ab.statistic + ba.statistic).abs() < 1e-9);
        prop_assert!((ab.p_value - ba.p_value).abs() < 1e-9);
    }

    #[test]
    fn welch_p_value_in_unit_interval(
        a in proptest::collection::vec(-1e3f64..1e3, 2..40),
        b in proptest::collection::vec(-1e3f64..1e3, 2..40),
    ) {
        let r = welch_t_test(&a, &b).unwrap();
        prop_assert!((0.0..=1.0).contains(&r.p_value));
        prop_assert!(r.dof >= 1.0);
    }

    #[test]
    fn scaling_invariance_of_t(
        a in proptest::collection::vec(-10.0f64..10.0, 5..30),
        b in proptest::collection::vec(-10.0f64..10.0, 5..30),
        scale in 0.01f64..100.0,
    ) {
        // t is invariant under common positive rescaling.
        let r1 = two_sample_t_test(&a, &b).unwrap();
        let a2: Vec<f64> = a.iter().map(|x| x * scale).collect();
        let b2: Vec<f64> = b.iter().map(|x| x * scale).collect();
        let r2 = two_sample_t_test(&a2, &b2).unwrap();
        prop_assert!((r1.statistic - r2.statistic).abs() < 1e-6 * (1.0 + r1.statistic.abs()));
    }

    #[test]
    fn mae_translation_property(
        pairs in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 2..50),
        shift in -5.0f64..5.0,
    ) {
        // Shifting all predictions by c changes MAE by at most |c|.
        let p: Vec<f64> = pairs.iter().map(|x| x.0).collect();
        let a: Vec<f64> = pairs.iter().map(|x| x.1).collect();
        let m1 = PredictionMetrics::from_predictions(&p, &a).unwrap();
        let p2: Vec<f64> = p.iter().map(|x| x + shift).collect();
        let m2 = PredictionMetrics::from_predictions(&p2, &a).unwrap();
        prop_assert!((m2.mae - m1.mae).abs() <= shift.abs() + 1e-9);
        // Correlation is unchanged by translation.
        prop_assert!((m2.correlation - m1.correlation).abs() < 1e-9);
    }

    #[test]
    fn mann_whitney_antisymmetric(
        a in proptest::collection::vec(-100.0f64..100.0, 5..40),
        b in proptest::collection::vec(-100.0f64..100.0, 5..40),
    ) {
        let ab = mann_whitney_u(&a, &b).unwrap();
        let ba = mann_whitney_u(&b, &a).unwrap();
        prop_assert!((ab.statistic + ba.statistic).abs() < 1e-6);
    }
}
