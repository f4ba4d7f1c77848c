//! Random sampling helpers built on [`rand`], used by the synthetic
//! workload generator.
//!
//! Only the uniform source comes from `rand`. Every normal variate —
//! [`normal`], [`truncated_normal`] (by rejection), [`lognormal`], and
//! through them the counter bank's multiplexing noise and the cost
//! model's CPI noise — comes from one sampler, [`standard_normal`]: a
//! 128-layer ziggurat (Marsaglia and Tsang 2000, in Doornik's 2005
//! ZIGNOR form). About 97% of its draws take the fast path: one
//! `next_u64` supplies the layer (its low 7 bits) and a uniform (its
//! top 53 bits), and one comparison against a precomputed ratio accepts
//! the point. The rest fall in a layer's wedge, settled with one `exp`,
//! or beyond the bottom layer's edge `r = 3.4426…`, drawn by
//! Marsaglia's exponential tail method. The layer tables are computed
//! once per process.

use rand::Rng;
use std::sync::OnceLock;

/// Number of ziggurat layers (a power of two: the layer index is the
/// low bits of one draw).
const ZIG_LAYERS: usize = 128;
/// Right edge of the bottom layer's rectangle; the tail lies beyond.
const ZIG_R: f64 = 3.442_619_855_899;
/// Common area of every layer under the unnormalized density
/// `exp(-x²/2)`.
const ZIG_V: f64 = 9.912_563_035_262_17e-3;

/// The ziggurat's layer tables.
struct Ziggurat {
    /// Layer edges, decreasing: `x[0] = V / f(r)` (the bottom layer's
    /// equivalent rectangle width), `x[1] = r`, …, `x[128] = 0`, with
    /// `f(x) = exp(-x²/2)`. Layer `i` spans heights `f(x[i])` to
    /// `f(x[i + 1])` and widths up to `x[i]`.
    x: [f64; ZIG_LAYERS + 1],
    /// `x[i + 1] / x[i]`: a point of layer `i` whose `|u|` is below
    /// this lies under the curve at every height of the layer.
    ratio: [f64; ZIG_LAYERS],
}

impl Ziggurat {
    /// Doornik's recursion: each layer's width follows from the
    /// previous one so that every layer has area `V`.
    fn new() -> Ziggurat {
        let mut x = [0.0; ZIG_LAYERS + 1];
        let mut f = (-0.5 * ZIG_R * ZIG_R).exp();
        x[0] = ZIG_V / f;
        x[1] = ZIG_R;
        for i in 2..ZIG_LAYERS {
            x[i] = (-2.0 * (ZIG_V / x[i - 1] + f).ln()).sqrt();
            f = (-0.5 * x[i] * x[i]).exp();
        }
        let ratio = std::array::from_fn(|i| x[i + 1] / x[i]);
        Ziggurat { x, ratio }
    }
}

fn ziggurat() -> &'static Ziggurat {
    static TABLES: OnceLock<Ziggurat> = OnceLock::new();
    TABLES.get_or_init(Ziggurat::new)
}

/// Draws one standard-normal variate with the ziggurat method (see the
/// module docs).
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let z = mathkit::sampling::standard_normal(&mut rng);
/// assert!(z.is_finite());
/// ```
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let zig = ziggurat();
    loop {
        let bits = rng.next_u64();
        let layer = (bits as usize) & (ZIG_LAYERS - 1);
        // Top 53 bits -> [0, 1) -> [-1, 1).
        let u = 2.0 * ((bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) - 1.0;
        if u.abs() < zig.ratio[layer] {
            return u * zig.x[layer];
        }
        if layer == 0 {
            return normal_tail(rng, u < 0.0);
        }
        // The wedge: accept x with probability proportional to how far
        // f(x) rises above the layer's floor.
        let x = u * zig.x[layer];
        let (lo, hi) = (zig.x[layer], zig.x[layer + 1]);
        let f0 = (-0.5 * (lo * lo - x * x)).exp();
        let f1 = (-0.5 * (hi * hi - x * x)).exp();
        if f1 + rng.gen::<f64>() * (f0 - f1) < 1.0 {
            return x;
        }
    }
}

/// A draw from the normal tail beyond `ZIG_R` (Marsaglia 1964): the
/// exponential proposal `r + E / r` is accepted with the normal's
/// relative density.
fn normal_tail<R: Rng + ?Sized>(rng: &mut R, negative: bool) -> f64 {
    loop {
        // ln of uniforms in (0, 1]: x <= 0, y <= 0.
        let x = (1.0 - rng.gen::<f64>()).ln() / ZIG_R;
        let y = (1.0 - rng.gen::<f64>()).ln();
        if -2.0 * y >= x * x {
            return if negative { x - ZIG_R } else { ZIG_R - x };
        }
    }
}

/// Draws a normal variate with the given mean and standard deviation.
///
/// # Panics
///
/// Panics in debug builds if `sd < 0`.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sd: f64) -> f64 {
    debug_assert!(sd >= 0.0, "sd must be non-negative");
    mean + sd * standard_normal(rng)
}

/// Draws a normal variate truncated to `[lo, hi]` by rejection with a
/// clamping fallback after a bounded number of attempts (so the function
/// always terminates even for extreme truncation).
///
/// # Panics
///
/// Panics if `lo > hi`.
pub fn truncated_normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sd: f64, lo: f64, hi: f64) -> f64 {
    assert!(lo <= hi, "invalid truncation interval [{lo}, {hi}]");
    if sd == 0.0 {
        return mean.clamp(lo, hi);
    }
    for _ in 0..64 {
        let x = normal(rng, mean, sd);
        if (lo..=hi).contains(&x) {
            return x;
        }
    }
    normal(rng, mean, sd).clamp(lo, hi)
}

/// Draws a lognormal variate: `exp(N(mu, sigma))`.
pub fn lognormal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// Samples an index from a discrete distribution given by non-negative
/// weights. Weights need not be normalized. They are read twice (sum,
/// then pick), so any cloneable iterator serves and no slice need be
/// built.
///
/// # Panics
///
/// Panics if `weights` is empty or sums to zero.
pub fn weighted_index<R, I>(rng: &mut R, weights: I) -> usize
where
    R: Rng + ?Sized,
    I: IntoIterator<Item = f64>,
    I::IntoIter: Clone,
{
    let weights = weights.into_iter();
    let (total, len) = weights.clone().fold((0.0, 0), |(t, n), w| (t + w, n + 1));
    assert!(len > 0, "weights must be non-empty");
    assert!(total > 0.0, "weights must sum to a positive value");
    let mut target = rng.gen::<f64>() * total;
    for (i, w) in weights.enumerate() {
        target -= w;
        if target <= 0.0 {
            return i;
        }
    }
    len - 1
}

/// Fisher–Yates shuffle of indices `0..n`, returned as a permutation
/// vector. Deterministic given the RNG state.
pub fn permutation<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::describe::{mean, std_dev};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn draws<F: FnMut(&mut StdRng) -> f64>(n: usize, seed: u64, mut f: F) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| f(&mut rng)).collect()
    }

    fn density(x: f64) -> f64 {
        (-0.5 * x * x).exp()
    }

    #[test]
    fn ziggurat_layers_have_equal_areas() {
        let zig = ziggurat();
        assert_eq!(zig.x[1], ZIG_R);
        assert_eq!(zig.x[ZIG_LAYERS], 0.0);
        assert!(zig.x.windows(2).all(|w| w[0] > w[1]), "edges decrease");
        // Bottom layer: the rectangle under f(r) plus the tail beyond r.
        let tail = (std::f64::consts::PI / 2.0).sqrt() * crate::special::erfc(ZIG_R / 2f64.sqrt());
        let bottom = ZIG_R * density(ZIG_R) + tail;
        assert!((bottom - ZIG_V).abs() < 1e-12 * ZIG_V, "bottom {bottom}");
        // Every other layer, the top one included (it closes at f(0) = 1
        // only if r and V are consistent).
        for i in 1..ZIG_LAYERS {
            let area = zig.x[i] * (density(zig.x[i + 1]) - density(zig.x[i]));
            assert!((area - ZIG_V).abs() < 1e-8 * ZIG_V, "layer {i}: {area}");
        }
        for (i, r) in zig.ratio.iter().enumerate() {
            assert_eq!(*r, zig.x[i + 1] / zig.x[i]);
        }
    }

    /// 10^6 ziggurat draws, enough to see its tail path ~576 times.
    const N_DRAWS: usize = 1_000_000;

    #[test]
    fn standard_normal_moments() {
        let xs = draws(N_DRAWS, 1, standard_normal);
        let n = N_DRAWS as f64;
        let m = mean(&xs).unwrap();
        let sd = std_dev(&xs).unwrap();
        // Standard errors: 1/sqrt(n) = 0.001 for the mean, ~0.0007 for
        // the sd, sqrt(24/n) ~ 0.005 for the excess kurtosis.
        assert!(m.abs() < 0.005, "mean {m}");
        assert!((sd - 1.0).abs() < 0.004, "sd {sd}");
        let m4 = xs.iter().map(|x| (x - m).powi(4)).sum::<f64>() / n;
        let excess = m4 / sd.powi(4) - 3.0;
        assert!(excess.abs() < 0.025, "excess kurtosis {excess}");
    }

    #[test]
    fn standard_normal_tail_and_bins_match_phi() {
        let xs = draws(N_DRAWS, 2, standard_normal);
        let n = N_DRAWS as f64;
        // The tail path: P(|Z| > r) = erfc(r / sqrt 2) ~ 5.76e-4, so
        // ~576 of 1e6 draws (sd ~24), split evenly by sign.
        let expected = n * crate::special::erfc(ZIG_R / 2f64.sqrt());
        let upper = xs.iter().filter(|&&x| x > ZIG_R).count() as f64;
        let lower = xs.iter().filter(|&&x| x < -ZIG_R).count() as f64;
        let sigma = expected.sqrt();
        assert!(
            (upper + lower - expected).abs() < 5.0 * sigma,
            "tail {upper} + {lower} vs {expected}"
        );
        assert!(
            (upper - lower).abs() < 5.0 * sigma,
            "tail asymmetry {upper} vs {lower}"
        );

        // Binned chi-square against Phi: 100 equiprobable bins.
        const BINS: usize = 100;
        let phi = crate::dist::Normal::standard();
        let edges: Vec<f64> = (1..BINS)
            .map(|k| phi.quantile(k as f64 / BINS as f64).unwrap())
            .collect();
        let mut counts = [0u64; BINS];
        for &x in &xs {
            counts[edges.partition_point(|&e| e <= x)] += 1;
        }
        let per_bin = n / BINS as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| (c as f64 - per_bin).powi(2) / per_bin)
            .sum();
        let dof = (BINS - 1) as f64;
        let p = crate::special::gamma_q(dof / 2.0, chi2 / 2.0).unwrap();
        assert!(p > 1e-3, "chi2 = {chi2} on {dof} dof, p = {p}");
    }

    #[test]
    fn normal_shifts_and_scales() {
        let xs = draws(50_000, 2, |r| normal(r, 5.0, 2.0));
        assert!((mean(&xs).unwrap() - 5.0).abs() < 0.05);
        assert!((std_dev(&xs).unwrap() - 2.0).abs() < 0.05);
    }

    #[test]
    fn truncated_normal_respects_bounds() {
        let xs = draws(10_000, 3, |r| truncated_normal(r, 0.0, 1.0, -0.5, 0.5));
        assert!(xs.iter().all(|&x| (-0.5..=0.5).contains(&x)));
    }

    #[test]
    fn truncated_normal_extreme_truncation_terminates() {
        // Interval far in the tail: rejection would essentially never hit,
        // the clamp fallback must kick in.
        let xs = draws(100, 4, |r| truncated_normal(r, 0.0, 1.0, 50.0, 51.0));
        assert!(xs.iter().all(|&x| (50.0..=51.0).contains(&x)));
    }

    #[test]
    #[should_panic(expected = "invalid truncation interval")]
    fn truncated_normal_rejects_inverted_interval() {
        let mut rng = StdRng::seed_from_u64(0);
        truncated_normal(&mut rng, 0.0, 1.0, 1.0, -1.0);
    }

    #[test]
    fn lognormal_is_positive() {
        let xs = draws(10_000, 5, |r| lognormal(r, -2.0, 0.7));
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn weighted_index_distribution() {
        let mut rng = StdRng::seed_from_u64(7);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[weighted_index(&mut rng, weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn weighted_index_empty_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        weighted_index(&mut rng, []);
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(9);
        let p = permutation(&mut rng, 100);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn permutation_deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        assert_eq!(permutation(&mut a, 50), permutation(&mut b, 50));
    }
}
