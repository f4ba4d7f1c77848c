use modeltree::{display, M5Config, ModelTree};
use rand::rngs::StdRng;
use rand::SeedableRng;
use workloads::generator::{GeneratorConfig, Suite};

fn main() {
    let config = GeneratorConfig::default();
    for (suite, seed) in [(Suite::cpu2006(), 1u64), (Suite::omp2001(), 2u64)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = suite.generate(&mut rng, 20_000, &config, 1);
        let tree = ModelTree::fit(&data, &M5Config::default().with_min_leaf(200)).unwrap();
        println!("=== {} ===", suite.name());
        println!("{}", display::render_summary(&tree));
    }
}
