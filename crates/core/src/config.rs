//! M5' hyper-parameters.

use serde::{Deserialize, Serialize};

/// Configuration of the M5' learner.
///
/// The defaults mirror WEKA's `M5P` defaults (minimum of 4 instances per
/// leaf, stop splitting when a node's target standard deviation falls
/// below 5% of the full training set's, smoothing constant 15). The paper
/// notes that the authors "varied M5' algorithm parameters to achieve a
/// balance between tractable model size and good prediction accuracy";
/// [`M5Config::pruning_multiplier`] and [`M5Config::min_leaf`] are the two
/// knobs that trade size against accuracy here.
///
/// # Examples
///
/// ```
/// use modeltree::M5Config;
///
/// let config = M5Config::default()
///     .with_min_leaf(16)
///     .with_smoothing(false);
/// assert_eq!(config.min_leaf, 16);
/// assert!(!config.smoothing);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct M5Config {
    /// Minimum number of training samples in any leaf.
    pub min_leaf: usize,
    /// Minimum number of samples a node must hold to be considered for
    /// splitting (must be at least `2 * min_leaf`).
    pub min_split: usize,
    /// Stop splitting once a node's target standard deviation drops below
    /// this fraction of the root's standard deviation.
    pub sd_fraction: f64,
    /// Maximum tree depth (root = depth 0). `usize::MAX` means unlimited.
    pub max_depth: usize,
    /// Whether to prune bottom-up using the adjusted-error comparison.
    pub prune: bool,
    /// Multiplier applied to the subtree's adjusted error during pruning;
    /// values above 1.0 prune more aggressively (yielding the "tractable
    /// model size" of the paper), below 1.0 less.
    pub pruning_multiplier: f64,
    /// Whether to greedily drop attributes from node models when doing so
    /// lowers the adjusted error.
    pub attribute_elimination: bool,
    /// Whether predictions are smoothed along the root path.
    pub smoothing: bool,
    /// Quinlan's smoothing constant `k` in `p' = (n p + k q) / (n + k)`.
    pub smoothing_k: f64,
    /// Number of threads used for fitting and batch prediction (scoped
    /// threads; no thread pool). Must be at least 1. Training is
    /// **bit-identical** for every value: parallelism only changes wall
    /// clock, never the fitted tree. Defaults to 1 (serial). Not
    /// serialized: a tree's JSON is the same for every thread count, and
    /// a deserialized configuration reads 1 (older JSON that still
    /// carries the field is read the same way).
    #[serde(skip, default = "default_n_threads")]
    pub n_threads: usize,
}

fn default_n_threads() -> usize {
    1
}

impl Default for M5Config {
    fn default() -> Self {
        M5Config {
            min_leaf: 4,
            min_split: 8,
            sd_fraction: 0.05,
            max_depth: usize::MAX,
            prune: true,
            pruning_multiplier: 1.0,
            attribute_elimination: true,
            smoothing: true,
            smoothing_k: 15.0,
            n_threads: 1,
        }
    }
}

impl M5Config {
    /// Sets the minimum leaf size (also raises `min_split` to at least
    /// twice the leaf size).
    #[must_use]
    pub fn with_min_leaf(mut self, min_leaf: usize) -> Self {
        self.min_leaf = min_leaf;
        self.min_split = self.min_split.max(2 * min_leaf);
        self
    }

    /// Sets the standard-deviation stopping fraction.
    #[must_use]
    pub fn with_sd_fraction(mut self, sd_fraction: f64) -> Self {
        self.sd_fraction = sd_fraction;
        self
    }

    /// Sets the maximum depth.
    #[must_use]
    pub fn with_max_depth(mut self, max_depth: usize) -> Self {
        self.max_depth = max_depth;
        self
    }

    /// Enables or disables pruning.
    #[must_use]
    pub fn with_prune(mut self, prune: bool) -> Self {
        self.prune = prune;
        self
    }

    /// Sets the pruning aggressiveness multiplier.
    #[must_use]
    pub fn with_pruning_multiplier(mut self, multiplier: f64) -> Self {
        self.pruning_multiplier = multiplier;
        self
    }

    /// Enables or disables greedy attribute elimination.
    #[must_use]
    pub fn with_attribute_elimination(mut self, enabled: bool) -> Self {
        self.attribute_elimination = enabled;
        self
    }

    /// Enables or disables prediction smoothing.
    #[must_use]
    pub fn with_smoothing(mut self, smoothing: bool) -> Self {
        self.smoothing = smoothing;
        self
    }

    /// Sets the number of worker threads for fitting and batch
    /// prediction (1 = serial; results are identical for any value).
    #[must_use]
    pub fn with_n_threads(mut self, n_threads: usize) -> Self {
        self.n_threads = n_threads;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TreeError::InvalidConfig`] when a parameter is out
    /// of range (zero leaf size, `min_split < 2 * min_leaf`, negative or
    /// non-finite fractions).
    pub fn validate(&self) -> crate::Result<()> {
        if self.min_leaf == 0 {
            return Err(crate::TreeError::InvalidConfig(
                "min_leaf must be at least 1".into(),
            ));
        }
        if self.min_split < 2 * self.min_leaf {
            return Err(crate::TreeError::InvalidConfig(format!(
                "min_split ({}) must be >= 2 * min_leaf ({})",
                self.min_split, self.min_leaf
            )));
        }
        if !self.sd_fraction.is_finite() || self.sd_fraction < 0.0 {
            return Err(crate::TreeError::InvalidConfig(format!(
                "sd_fraction must be finite and >= 0, got {}",
                self.sd_fraction
            )));
        }
        if !self.pruning_multiplier.is_finite() || self.pruning_multiplier <= 0.0 {
            return Err(crate::TreeError::InvalidConfig(format!(
                "pruning_multiplier must be finite and > 0, got {}",
                self.pruning_multiplier
            )));
        }
        if !self.smoothing_k.is_finite() || self.smoothing_k < 0.0 {
            return Err(crate::TreeError::InvalidConfig(format!(
                "smoothing_k must be finite and >= 0, got {}",
                self.smoothing_k
            )));
        }
        if self.n_threads == 0 {
            return Err(crate::TreeError::InvalidConfig(
                "n_threads must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(M5Config::default().validate().is_ok());
    }

    #[test]
    fn builder_chains() {
        let c = M5Config::default()
            .with_min_leaf(10)
            .with_sd_fraction(0.1)
            .with_max_depth(5)
            .with_prune(false)
            .with_pruning_multiplier(2.0)
            .with_attribute_elimination(false)
            .with_smoothing(false);
        assert_eq!(c.min_leaf, 10);
        assert!(c.min_split >= 20);
        assert_eq!(c.max_depth, 5);
        assert!(!c.prune);
        assert!(!c.attribute_elimination);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(M5Config {
            min_leaf: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(M5Config {
            min_split: 4,
            min_leaf: 4,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(M5Config {
            sd_fraction: -0.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(M5Config {
            pruning_multiplier: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(M5Config {
            smoothing_k: f64::NAN,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(M5Config {
            n_threads: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn n_threads_builder_and_default() {
        assert_eq!(M5Config::default().n_threads, 1);
        let c = M5Config::default().with_n_threads(8);
        assert_eq!(c.n_threads, 8);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn n_threads_defaults_when_absent_from_json() {
        // n_threads is an execution hint: it is never serialized, and
        // every deserialized configuration reads the serial default,
        // including older JSON that still carries the field.
        let c = M5Config::default().with_n_threads(8);
        let json = serde_json::to_string(&c).unwrap();
        assert!(!json.contains("n_threads"), "{json}");
        let back: M5Config = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c.with_n_threads(1));
        let legacy = json.replace('}', ",\"n_threads\":8}");
        let back: M5Config = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.n_threads, 1);
    }

    #[test]
    fn serde_roundtrip() {
        let c = M5Config::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: M5Config = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }
}
