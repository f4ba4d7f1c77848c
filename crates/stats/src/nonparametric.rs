//! Non-parametric two-sample tests.
//!
//! The paper names "non-parametric tests such as Leven's \[sic\] and
//! Mann-Whitney tests" as the alternatives to the two-sample t-test.
//! The transferability assessment uses Mann-Whitney, provided here with
//! the large-sample normal approximation and tie correction (sample
//! sizes in this domain are in the tens of thousands).

use crate::{Result, StatsError};
use mathkit::dist::Normal;

/// The outcome of a non-parametric test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonParametricResult {
    /// The test statistic (z for Mann-Whitney).
    pub statistic: f64,
    /// Two-sided p-value (approximate).
    pub p_value: f64,
}

impl NonParametricResult {
    /// True if the null hypothesis is rejected at level `alpha`.
    pub fn significant_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Mann-Whitney U test (two-sided, normal approximation with tie
/// correction): `H0` = the two samples come from the same distribution.
///
/// Sorts copies of both samples and runs [`mann_whitney_u_sorted`].
///
/// # Errors
///
/// Returns [`StatsError::InsufficientData`] if either sample is empty or
/// the combined sample is smaller than 8 (the normal approximation is
/// meaningless below that).
pub fn mann_whitney_u(a: &[f64], b: &[f64]) -> Result<NonParametricResult> {
    mann_whitney_u_sorted(&sorted_copy(a), &sorted_copy(b))
}

/// A copy of `xs` in ascending [`f64::total_cmp`] order — the order
/// [`mann_whitney_u_sorted`] expects.
pub fn sorted_copy(xs: &[f64]) -> Vec<f64> {
    let mut out = xs.to_vec();
    out.sort_unstable_by(f64::total_cmp);
    out
}

fn check_rank_sizes(a: &[f64], b: &[f64]) -> Result<()> {
    if a.is_empty() || b.is_empty() || a.len() + b.len() < 8 {
        return Err(StatsError::InsufficientData(format!(
            "need non-empty samples with combined size >= 8, got {} and {}",
            a.len(),
            b.len()
        )));
    }
    Ok(())
}

/// [`mann_whitney_u`] on samples already sorted ascending by
/// [`f64::total_cmp`] (see [`sorted_copy`]): the pooled ranking becomes
/// one linear merge, so a sample compared against many others is
/// sorted once.
///
/// The merge visits the pooled sample in the order of a stable pooled
/// sort with `a` first, and forms the same tie groups (runs of `==`
/// values: `-0.0` ties `0.0`, a NaN ties nothing). Midranks are
/// constant within a group and are added once per `a` member in the
/// same sequence, so the result is bit-identical to ranking the pooled
/// sample. Unsorted input gives a meaningless result (checked in debug
/// builds).
///
/// # Errors
///
/// As [`mann_whitney_u`].
pub fn mann_whitney_u_sorted(a: &[f64], b: &[f64]) -> Result<NonParametricResult> {
    check_rank_sizes(a, b)?;
    debug_assert!(a.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()));
    debug_assert!(b.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()));
    let na = a.len() as f64;
    let nb = b.len() as f64;
    let n = na + nb;

    // Walk the tie groups of the merged sample with midranks for ties.
    let mut rank_sum_a = 0.0;
    let mut tie_term = 0.0;
    let (mut i, mut j, mut start) = (0, 0, 0);
    while let Some((value, from_a)) = match (a.get(i), b.get(j)) {
        // A stable pooled sort puts `a` first among equal keys.
        (Some(&x), Some(&y)) if y.total_cmp(&x).is_lt() => Some((y, false)),
        (Some(&x), _) => Some((x, true)),
        (None, y) => y.map(|&y| (y, false)),
    } {
        let mut in_a = usize::from(from_a);
        if from_a {
            i += 1;
        } else {
            j += 1;
        }
        // `==` classes are contiguous in total order, so the rest of
        // the group is a prefix of what remains on each side.
        while a.get(i) == Some(&value) {
            i += 1;
            in_a += 1;
        }
        while b.get(j) == Some(&value) {
            j += 1;
        }
        let end = i + j - 1;
        let count = (end - start + 1) as f64;
        let midrank = (start + end) as f64 / 2.0 + 1.0;
        // One addition per member, as the pooled ranking does: the same
        // terms in the same order give the same sum even where it rounds.
        for _ in 0..in_a {
            rank_sum_a += midrank;
        }
        if count > 1.0 {
            tie_term += count * count * count - count;
        }
        start = end + 1;
    }

    let u_a = rank_sum_a - na * (na + 1.0) / 2.0;
    let mean_u = na * nb / 2.0;
    let var_u = na * nb / 12.0 * ((n + 1.0) - tie_term / (n * (n - 1.0)));
    if var_u <= 0.0 {
        // Completely tied data: no evidence of difference.
        return Ok(NonParametricResult {
            statistic: 0.0,
            p_value: 1.0,
        });
    }
    // Continuity correction. Note f64::signum(0.0) is 1.0, so guard the
    // exactly-central case explicitly to keep the statistic antisymmetric.
    let diff = u_a - mean_u;
    let correction = if diff == 0.0 {
        0.0
    } else {
        0.5 * diff.signum()
    };
    let z = (diff - correction) / var_u.sqrt();
    let p = 2.0 * Normal::standard().sf(z.abs());
    Ok(NonParametricResult {
        statistic: z,
        p_value: p.min(1.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn normal_sample(n: usize, mean: f64, sd: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| mathkit::sampling::normal(&mut rng, mean, sd))
            .collect()
    }

    #[test]
    fn mann_whitney_accepts_same_distribution() {
        let a = normal_sample(3000, 1.0, 0.5, 1);
        let b = normal_sample(3000, 1.0, 0.5, 2);
        let r = mann_whitney_u(&a, &b).unwrap();
        assert!(!r.significant_at(0.01), "p = {}", r.p_value);
    }

    #[test]
    fn mann_whitney_rejects_shifted() {
        let a = normal_sample(3000, 1.0, 0.5, 3);
        let b = normal_sample(3000, 1.3, 0.5, 4);
        let r = mann_whitney_u(&a, &b).unwrap();
        assert!(r.significant_at(1e-6));
        assert!(r.statistic.abs() > 5.0);
    }

    #[test]
    fn mann_whitney_handles_ties() {
        let a = vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0];
        let b = vec![1.0, 2.0, 2.0, 3.0, 3.0, 3.0];
        let r = mann_whitney_u(&a, &b).unwrap();
        assert!(r.p_value > 0.2);
    }

    #[test]
    fn mann_whitney_fully_tied_data() {
        let a = vec![5.0; 20];
        let b = vec![5.0; 20];
        let r = mann_whitney_u(&a, &b).unwrap();
        assert_eq!(r.p_value, 1.0);
    }

    #[test]
    fn mann_whitney_detects_distribution_difference_with_equal_means() {
        // Same mean, very different shape: a uniform vs bimodal extremes.
        let a: Vec<f64> = (0..2000).map(|i| (i % 100) as f64 / 100.0).collect();
        let b: Vec<f64> = (0..2000)
            .map(|i| if i % 2 == 0 { 0.45 } else { 0.55 })
            .collect();
        // Mann-Whitney tests stochastic ordering; these overlap heavily so
        // it may accept — mostly a smoke test that it runs with weird data.
        let r = mann_whitney_u(&a, &b).unwrap();
        assert!(r.p_value.is_finite());
    }

    #[test]
    fn mann_whitney_input_validation() {
        assert!(mann_whitney_u(&[], &[1.0; 10]).is_err());
        assert!(mann_whitney_u(&[1.0, 2.0], &[3.0]).is_err());
    }

    /// Ranking by one stable sort of the pooled sample: the oracle the
    /// presorted merge must match bit for bit.
    fn mann_whitney_pooled(a: &[f64], b: &[f64]) -> Result<NonParametricResult> {
        check_rank_sizes(a, b)?;
        let (na, nb) = (a.len() as f64, b.len() as f64);
        let n = na + nb;
        let mut pooled: Vec<(f64, bool)> = a
            .iter()
            .map(|&x| (x, true))
            .chain(b.iter().map(|&x| (x, false)))
            .collect();
        pooled.sort_by(|x, y| x.0.total_cmp(&y.0));
        let (mut rank_sum_a, mut tie_term, mut i) = (0.0, 0.0, 0);
        while i < pooled.len() {
            let mut j = i;
            while j + 1 < pooled.len() && pooled[j + 1].0 == pooled[i].0 {
                j += 1;
            }
            let count = (j - i + 1) as f64;
            let midrank = (i + j) as f64 / 2.0 + 1.0;
            for item in &pooled[i..=j] {
                if item.1 {
                    rank_sum_a += midrank;
                }
            }
            if count > 1.0 {
                tie_term += count * count * count - count;
            }
            i = j + 1;
        }
        let u_a = rank_sum_a - na * (na + 1.0) / 2.0;
        let mean_u = na * nb / 2.0;
        let var_u = na * nb / 12.0 * ((n + 1.0) - tie_term / (n * (n - 1.0)));
        if var_u <= 0.0 {
            return Ok(NonParametricResult {
                statistic: 0.0,
                p_value: 1.0,
            });
        }
        let diff = u_a - mean_u;
        let correction = if diff == 0.0 {
            0.0
        } else {
            0.5 * diff.signum()
        };
        let z = (diff - correction) / var_u.sqrt();
        let p = 2.0 * Normal::standard().sf(z.abs());
        Ok(NonParametricResult {
            statistic: z,
            p_value: p.min(1.0),
        })
    }

    /// Asserts that the wrapper and the presorted entry both reproduce
    /// the pooled-sort oracle bit for bit, errors included.
    fn assert_merge_matches_pooled(a: &[f64], b: &[f64]) {
        let bits = |r: Result<NonParametricResult>| {
            r.map(|r| (r.statistic.to_bits(), r.p_value.to_bits()))
        };
        let oracle = bits(mann_whitney_pooled(a, b));
        assert_eq!(bits(mann_whitney_u(a, b)), oracle, "{a:?} vs {b:?}");
        let sorted = bits(mann_whitney_u_sorted(&sorted_copy(a), &sorted_copy(b)));
        assert_eq!(sorted, oracle, "{a:?} vs {b:?}");
    }

    #[test]
    fn merge_matches_pooled_sort_on_heavy_ties() {
        let round = |xs: Vec<f64>| -> Vec<f64> {
            xs.into_iter()
                .map(|x| (x * 100.0).round() / 100.0)
                .collect()
        };
        let a = round(normal_sample(2000, 1.0, 0.05, 11));
        let b = round(normal_sample(18_000, 1.01, 0.05, 12));
        assert_merge_matches_pooled(&a, &b);
        assert_merge_matches_pooled(&b, &a);
    }

    #[test]
    fn merge_matches_pooled_sort_on_signed_zeros_and_nans() {
        let nan_payload = |bits: u64| f64::from_bits(0x7ff8_0000_0000_0000 | bits);
        let a = [
            -0.0,
            0.0,
            1.0,
            f64::NAN,
            -0.0,
            nan_payload(3),
            -f64::NAN,
            2.0,
        ];
        let b = [
            0.0,
            -0.0,
            0.0,
            nan_payload(3),
            f64::NAN,
            1.0,
            -1.0,
            f64::INFINITY,
        ];
        assert_merge_matches_pooled(&a, &b);
        assert_merge_matches_pooled(&b, &a);
        assert_merge_matches_pooled(&[-0.0; 5], &[0.0; 5]);
    }

    #[test]
    fn merge_matches_pooled_sort_when_all_tied() {
        assert_merge_matches_pooled(&[5.0; 20], &[5.0; 20]);
        assert_merge_matches_pooled(&[5.0; 1], &[5.0; 7]);
    }

    #[test]
    fn merge_matches_pooled_sort_at_the_size_boundary() {
        // Combined size 7 errors with the same variant on every path;
        // 8 is the smallest accepted input.
        let small = [1.0, 2.0, 3.0, 4.0];
        assert!(matches!(
            mann_whitney_u_sorted(&small, &[5.0, 6.0, 7.0]),
            Err(StatsError::InsufficientData(_))
        ));
        assert_merge_matches_pooled(&small, &[5.0, 6.0, 7.0]);
        assert_merge_matches_pooled(&small, &[2.0, 6.0, 7.0, 1.0]);
        assert_merge_matches_pooled(&[], &[1.0; 8]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn prop_merge_matches_pooled_sort(
            a in proptest::collection::vec(-3.0f64..3.0, 0..60),
            b in proptest::collection::vec(-3.0f64..3.0, 0..60),
            decimals in 0usize..3,
        ) {
            // Rounding to 0-2 decimals makes ties common; a rounded zero
            // keeps its sign, so -0.0 and 0.0 both occur.
            let scale = 10f64.powi(decimals as i32);
            let round = |xs: &[f64]| -> Vec<f64> {
                xs.iter().map(|x| (x * scale).round() / scale).collect()
            };
            let (a, b) = (round(&a), round(&b));
            let bits = |r: Result<NonParametricResult>| {
                r.map(|r| (r.statistic.to_bits(), r.p_value.to_bits()))
            };
            let oracle = bits(mann_whitney_pooled(&a, &b));
            prop_assert_eq!(bits(mann_whitney_u(&a, &b)), oracle.clone());
            prop_assert_eq!(
                bits(mann_whitney_u_sorted(&sorted_copy(&a), &sorted_copy(&b))),
                oracle
            );
        }
    }
}
