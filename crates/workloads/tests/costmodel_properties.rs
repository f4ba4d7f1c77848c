//! Property-based tests of the latent cost model and generator.

use perfcounters::events::N_EVENTS;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use workloads::costmodel::{CostModel, Environment};
use workloads::generator::{GeneratorConfig, Suite};

fn density_vector() -> impl Strategy<Value = [f64; N_EVENTS]> {
    proptest::collection::vec(0.0f64..1.0, N_EVENTS).prop_map(|v| {
        let mut arr = [0.0; N_EVENTS];
        arr.copy_from_slice(&v);
        arr
    })
}

proptest! {
    #[test]
    fn cpi_finite_positive_everywhere(x in density_vector()) {
        let cm = CostModel::default();
        for env in [Environment::SingleThreaded, Environment::MultiThreaded] {
            let cpi = cm.true_cpi(&x, env);
            prop_assert!(cpi.is_finite());
            prop_assert!(cpi >= 0.15);
            prop_assert!(cpi < 1e4);
        }
    }

    #[test]
    fn regime_deterministic(x in density_vector()) {
        let cm = CostModel::default();
        for env in [Environment::SingleThreaded, Environment::MultiThreaded] {
            prop_assert_eq!(cm.regime(&x, env), cm.regime(&x, env));
            prop_assert_eq!(
                cm.regime(&x, env).is_multithreaded(),
                env == Environment::MultiThreaded
            );
        }
    }

    #[test]
    fn cpi_continuous_within_regime(x in density_vector(), bump in 0.0f64..1e-9) {
        // A vanishing perturbation that doesn't cross a threshold must
        // not move CPI discontinuously.
        let cm = CostModel::default();
        let mut y = x;
        y[0] += bump; // Load: never a regime predicate.
        for env in [Environment::SingleThreaded, Environment::MultiThreaded] {
            if cm.regime(&x, env) == cm.regime(&y, env) {
                let d = (cm.true_cpi(&x, env) - cm.true_cpi(&y, env)).abs();
                prop_assert!(d < 1e-6, "jump {d} within one regime");
            }
        }
    }

    #[test]
    fn noisy_cpi_brackets_truth(x in density_vector(), seed in 0u64..1000) {
        let cm = CostModel::new(0.04);
        let mut rng = StdRng::seed_from_u64(seed);
        let truth = cm.true_cpi(&x, Environment::SingleThreaded);
        let noisy = cm.noisy_cpi(&x, Environment::SingleThreaded, &mut rng);
        // Lognormal(0.04): 6 sigma is a factor of ~1.27.
        prop_assert!(noisy > truth * 0.7 && noisy < truth * 1.4,
            "noisy {noisy} vs truth {truth}");
    }
}

#[test]
fn generated_suite_stays_inside_regime_vocabulary() {
    // Every generated sample's *true* regime must come from the suite's
    // environment (checked via the is_multithreaded flag over a sweep of
    // phase draws).
    let cm = CostModel::default();
    for (suite, env) in [
        (Suite::cpu2006(), Environment::SingleThreaded),
        (Suite::omp2001(), Environment::MultiThreaded),
    ] {
        let mut rng = StdRng::seed_from_u64(99);
        for bench in suite.benchmarks() {
            for _ in 0..50 {
                let phase = bench.pick_phase(&mut rng);
                let densities = phase.sample_densities(&mut rng);
                let regime = cm.regime(&densities, env);
                assert_eq!(
                    regime.is_multithreaded(),
                    env == Environment::MultiThreaded,
                    "{}: wrong regime family {regime:?}",
                    bench.name()
                );
            }
        }
    }
}

#[test]
fn suite_generation_scales_linearly_in_count() {
    let config = GeneratorConfig::default();
    let suite = Suite::omp2001();
    for n in [0, 1, 11, 997] {
        let mut rng = StdRng::seed_from_u64(7);
        let ds = suite.generate(&mut rng, n, &config, 1);
        assert_eq!(ds.len(), n);
    }
}
