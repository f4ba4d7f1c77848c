//! The M5' model tree: growing, pruning, smoothing, prediction, and
//! sample classification.

use crate::config::M5Config;
use crate::linreg::{adjusted_error_factor, fit_node_model, LinearModel};
use crate::split::{find_best_split, Columns, NodeSet, SortArena, Split, TargetStats};
use crate::{Result, TreeError};
use perfcounters::events::EventId;
use perfcounters::{Dataset, Sample};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Index of a node within a [`ModelTree`]'s arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The node's position in the tree's arena (stable for a fitted
    /// tree; parents precede their children).
    pub fn index(self) -> usize {
        self.0
    }
}

/// The structural role of a node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NodeKind {
    /// An interior node testing `event <= threshold` (left) vs `>`
    /// (right).
    Split {
        /// The tested attribute.
        event: EventId,
        /// Samples with `value <= threshold` descend left.
        threshold: f64,
        /// Left child (condition holds).
        left: NodeId,
        /// Right child (condition fails).
        right: NodeId,
    },
    /// A leaf holding linear model number `lm_index` (1-based, numbered
    /// left to right as in the paper's `LM1..LM24`).
    Leaf {
        /// 1-based linear model number.
        lm_index: usize,
    },
}

/// One node of the tree with its training statistics and linear model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    kind: NodeKind,
    model: LinearModel,
    n_samples: usize,
    mean_cpi: f64,
    sd_cpi: f64,
    /// Standard-deviation reduction achieved by this node's split
    /// (0 for leaves).
    sdr: f64,
}

impl Node {
    /// The structural role of this node.
    pub fn kind(&self) -> &NodeKind {
        &self.kind
    }

    /// The linear model attached to this node (interior nodes keep theirs
    /// for smoothing).
    pub fn model(&self) -> &LinearModel {
        &self.model
    }

    /// Number of training samples that reached this node.
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// Mean training CPI at this node.
    pub fn mean_cpi(&self) -> f64 {
        self.mean_cpi
    }

    /// Population standard deviation of training CPI at this node.
    pub fn sd_cpi(&self) -> f64 {
        self.sd_cpi
    }

    /// Standard-deviation reduction achieved by this node's split
    /// (0 for leaves).
    pub fn sdr(&self) -> f64 {
        self.sdr
    }
}

/// Summary of one leaf, in left-to-right order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeafInfo {
    /// 1-based linear model number (`LM1`, `LM2`, ...).
    pub lm_index: usize,
    /// Node id of the leaf.
    pub node: NodeId,
    /// Number of training samples classified into this leaf.
    pub n_samples: usize,
    /// Fraction of all training samples in this leaf.
    pub share: f64,
    /// Mean training CPI of the leaf.
    pub mean_cpi: f64,
    /// The leaf's linear model.
    pub model: LinearModel,
}

/// One step of a decision-path explanation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExplainStep {
    /// The attribute tested at this interior node.
    pub event: EventId,
    /// The split threshold.
    pub threshold: f64,
    /// The sample's value of the tested attribute.
    pub value: f64,
    /// True if the sample went left (`value <= threshold`).
    pub went_left: bool,
}

/// A full explanation of one prediction: the decision path, the leaf
/// model applied, and the smoothed/unsmoothed predictions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Explanation {
    /// The tests taken from root to leaf, in order.
    pub path: Vec<ExplainStep>,
    /// The 1-based linear-model number of the reached leaf.
    pub lm_index: usize,
    /// The leaf's linear model.
    pub leaf_model: LinearModel,
    /// The raw (leaf-model) prediction.
    pub raw_prediction: f64,
    /// The final prediction (smoothed along the path if smoothing is
    /// enabled; equal to `raw_prediction` otherwise).
    pub prediction: f64,
}

impl std::fmt::Display for Explanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for step in &self.path {
            writeln!(
                f,
                "{} = {:.6} {} {:.6}",
                step.event.short_name(),
                step.value,
                if step.went_left { "<=" } else { ">" },
                step.threshold
            )?;
        }
        writeln!(f, "=> LM{}: {}", self.lm_index, self.leaf_model)?;
        write!(f, "=> predicted CPI {:.4}", self.prediction)
    }
}

/// An M5' model tree fitted to a [`Dataset`].
///
/// See the [crate documentation](crate) for an end-to-end example.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelTree {
    nodes: Vec<Node>,
    root: NodeId,
    config: M5Config,
    n_training: usize,
    root_sd: f64,
}

/// Intermediate node produced by the growing phase. Target statistics
/// are computed once here and reused by the stop test, the split search,
/// and pruning — no later phase re-scans the target column.
struct GrownNode {
    indices: Vec<u32>,
    stats: TargetStats,
    split: Option<(Split, Box<GrownNode>, Box<GrownNode>)>,
}

/// Intermediate node produced by the pruning phase.
struct PrunedNode {
    model: LinearModel,
    n_samples: usize,
    mean_cpi: f64,
    sd_cpi: f64,
    /// Adjusted mean-absolute error of the retained structure beneath
    /// (and including) this node.
    subtree_error: f64,
    /// Attributes referenced by tests or models in the retained subtree.
    attrs: BTreeSet<EventId>,
    split: Option<(Split, Box<PrunedNode>, Box<PrunedNode>)>,
}

impl ModelTree {
    /// Fits an M5' model tree.
    ///
    /// With [`M5Config::n_threads`] above 1, sibling subtrees (and the
    /// per-attribute threshold scans near the root) are processed on
    /// scoped worker threads. The fitted tree is **bit-identical** to a
    /// serial fit: every per-node computation is self-contained and
    /// results are always reduced in a fixed order.
    ///
    /// # Errors
    ///
    /// * [`TreeError::InvalidConfig`] for out-of-range hyper-parameters.
    /// * [`TreeError::InsufficientData`] for an empty training set.
    /// * [`TreeError::DegenerateTarget`] if any CPI value is non-finite.
    /// * [`TreeError::NonFiniteAttribute`] if any event cell is NaN or
    ///   infinite.
    pub fn fit(data: &Dataset, config: &M5Config) -> Result<ModelTree> {
        config.validate()?;
        if data.is_empty() {
            return Err(TreeError::InsufficientData("empty training set".into()));
        }
        let cols = Columns::new(data);
        if cols.cpi.iter().any(|y| !y.is_finite()) {
            return Err(TreeError::DegenerateTarget(
                "CPI contains non-finite values".into(),
            ));
        }
        check_finite_attributes(&cols, None)?;

        // One sort per attribute for the whole fit; every node below
        // inherits sorted order by in-place stable partitioning of the
        // arena's index segments.
        let arena = SortArena::root(&cols);
        Self::fit_arena(&cols, arena, config)
    }

    /// Fits an M5' model tree on a row subset of `data` — the samples at
    /// `indices`, in that order. The fitted tree is identical to fitting
    /// a dataset holding exactly those rows in the same order, but no
    /// samples are copied: the sort arena and every per-node computation
    /// index straight into the dataset's shared columnar cache. This is
    /// what lets [`crate::crossval::k_fold`] build its folds as index
    /// views.
    ///
    /// # Errors
    ///
    /// As [`ModelTree::fit`], plus [`TreeError::InvalidConfig`] if any
    /// index is out of range.
    pub fn fit_indices(data: &Dataset, indices: &[u32], config: &M5Config) -> Result<ModelTree> {
        config.validate()?;
        if indices.is_empty() {
            return Err(TreeError::InsufficientData("empty training subset".into()));
        }
        if let Some(&bad) = indices.iter().find(|&&i| i as usize >= data.len()) {
            return Err(TreeError::InvalidConfig(format!(
                "sample index {bad} out of range for {} samples",
                data.len()
            )));
        }
        let cols = Columns::new(data);
        if indices.iter().any(|&i| !cols.cpi[i as usize].is_finite()) {
            return Err(TreeError::DegenerateTarget(
                "CPI contains non-finite values".into(),
            ));
        }
        check_finite_attributes(&cols, Some(indices))?;
        let arena = SortArena::new(&cols, indices);
        Self::fit_arena(&cols, arena, config)
    }

    /// Shared fitting core: grow, prune, and intern over a presorted
    /// arena whose index lists select the training rows.
    fn fit_arena(cols: &Columns<'_>, mut arena: SortArena, config: &M5Config) -> Result<ModelTree> {
        let _fit_span = obskit::span("trainer", "m5.fit");
        obskit::metrics::incr(obskit::metrics::Metric::TrainerFits);
        let root_set = arena.node_set();
        let n_training = root_set.len();
        let root_stats = TargetStats::compute(cols.cpi, &root_set.indices);
        let root_sd = root_stats.sd();
        let sd_stop = config.sd_fraction * root_sd;
        let budget = config.n_threads.max(1);

        // Partition buffers span the full column length: index lists hold
        // original row ids even when training on a subset.
        let mut mask = vec![false; cols.cpi.len()];
        let mut scratch = vec![0u32; cols.cpi.len()];
        let grown = {
            let _span = obskit::span("trainer", "m5.grow");
            grow(
                cols,
                root_set,
                root_stats,
                0,
                sd_stop,
                config,
                budget,
                &mut mask,
                &mut scratch,
            )
        };
        let pruned = {
            let _span = obskit::span("trainer", "m5.prune");
            prune(cols, grown, config, budget)
        };

        let mut tree = ModelTree {
            nodes: Vec::new(),
            root: NodeId(0),
            config: *config,
            n_training,
            root_sd,
        };
        let mut next_lm = 1;
        tree.root = tree.intern(pruned, &mut next_lm);
        obskit::metrics::add(obskit::metrics::Metric::TrainerLeaves, (next_lm - 1) as u64);
        Ok(tree)
    }

    /// Flattens the pruned structure into the arena, numbering leaves
    /// left-to-right.
    fn intern(&mut self, node: PrunedNode, next_lm: &mut usize) -> NodeId {
        match node.split {
            Some((split, left, right)) => {
                let slot = self.nodes.len();
                self.nodes.push(Node {
                    kind: NodeKind::Leaf { lm_index: 0 }, // placeholder
                    model: node.model,
                    n_samples: node.n_samples,
                    mean_cpi: node.mean_cpi,
                    sd_cpi: node.sd_cpi,
                    sdr: split.sdr,
                });
                let left_id = self.intern(*left, next_lm);
                let right_id = self.intern(*right, next_lm);
                self.nodes[slot].kind = NodeKind::Split {
                    event: split.event,
                    threshold: split.threshold,
                    left: left_id,
                    right: right_id,
                };
                NodeId(slot)
            }
            None => {
                let lm_index = *next_lm;
                *next_lm += 1;
                let slot = self.nodes.len();
                self.nodes.push(Node {
                    kind: NodeKind::Leaf { lm_index },
                    model: node.model,
                    n_samples: node.n_samples,
                    mean_cpi: node.mean_cpi,
                    sd_cpi: node.sd_cpi,
                    sdr: 0.0,
                });
                NodeId(slot)
            }
        }
    }

    /// The configuration the tree was fitted with.
    pub fn config(&self) -> &M5Config {
        &self.config
    }

    /// Root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Borrow of one node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this tree.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Total number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Iterator over all node ids (pre-order of interning: parents before
    /// their children).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Number of leaves (= number of linear models).
    pub fn n_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Leaf { .. }))
            .count()
    }

    /// Number of training samples the tree was fitted on.
    pub fn n_training(&self) -> usize {
        self.n_training
    }

    /// Population standard deviation of the training CPI.
    pub fn root_sd(&self) -> f64 {
        self.root_sd
    }

    /// True if two fitted trees are structurally identical: same nodes
    /// (splits, thresholds, models, statistics — compared bit-exactly),
    /// same root, same training size. Unlike `==`, the fitted
    /// configuration is ignored, so trees trained with different
    /// [`M5Config::n_threads`] can be checked for the determinism
    /// contract.
    pub fn structural_eq(&self, other: &ModelTree) -> bool {
        self.nodes == other.nodes
            && self.root == other.root
            && self.n_training == other.n_training
            && self.root_sd.to_bits() == other.root_sd.to_bits()
    }

    /// Maximum depth (a lone leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn depth_of(tree: &ModelTree, id: NodeId) -> usize {
            match tree.node(id).kind {
                NodeKind::Leaf { .. } => 0,
                NodeKind::Split { left, right, .. } => {
                    1 + depth_of(tree, left).max(depth_of(tree, right))
                }
            }
        }
        depth_of(self, self.root)
    }

    /// The attribute tested at the root, if the root is a split — the
    /// paper reads this as the single most discriminating performance
    /// factor for the suite.
    pub fn root_split_event(&self) -> Option<EventId> {
        match self.node(self.root).kind {
            NodeKind::Split { event, .. } => Some(event),
            NodeKind::Leaf { .. } => None,
        }
    }

    /// Leaf summaries in left-to-right (LM-number) order.
    pub fn leaves(&self) -> Vec<LeafInfo> {
        let mut out: Vec<LeafInfo> = self
            .nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| match n.kind {
                NodeKind::Leaf { lm_index } => Some(LeafInfo {
                    lm_index,
                    node: NodeId(i),
                    n_samples: n.n_samples,
                    share: n.n_samples as f64 / self.n_training.max(1) as f64,
                    mean_cpi: n.mean_cpi,
                    model: n.model.clone(),
                }),
                NodeKind::Split { .. } => None,
            })
            .collect();
        out.sort_by_key(|l| l.lm_index);
        out
    }

    /// The set of attributes appearing anywhere in the tree — in split
    /// tests or in leaf models. The paper's transferability argument
    /// rests on this set differing between suites.
    pub fn used_events(&self) -> BTreeSet<EventId> {
        let mut set = BTreeSet::new();
        for n in &self.nodes {
            if let NodeKind::Split { event, .. } = n.kind {
                set.insert(event);
            }
            for (e, _) in n.model.terms() {
                set.insert(*e);
            }
        }
        set
    }

    /// Sample-weighted split importance of each event: for every split
    /// node testing event `e`, its standard-deviation reduction weighted
    /// by the fraction of training samples reaching that node, summed and
    /// normalized so all importances add to 1. This quantifies the
    /// paper's qualitative reading that "the size of the subtree covered
    /// by a split node is a qualitative indicator of the importance of
    /// the split event at that node": the root contributes with weight 1,
    /// deep splits contribute little.
    ///
    /// Returns `(event, importance)` pairs sorted by descending
    /// importance; events never split on are omitted. Empty for a
    /// single-leaf tree.
    pub fn event_importance(&self) -> Vec<(EventId, f64)> {
        let mut raw: std::collections::BTreeMap<EventId, f64> = std::collections::BTreeMap::new();
        let total = self.n_training.max(1) as f64;
        for n in &self.nodes {
            if let NodeKind::Split { event, .. } = n.kind {
                *raw.entry(event).or_insert(0.0) += n.sdr * n.n_samples as f64 / total;
            }
        }
        let mass: f64 = raw.values().sum();
        let mut out: Vec<(EventId, f64)> = raw
            .into_iter()
            .map(|(e, v)| (e, if mass > 0.0 { v / mass } else { 0.0 }))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }

    /// Routes a sample to its leaf.
    pub fn leaf_of(&self, sample: &Sample) -> NodeId {
        let mut id = self.root;
        loop {
            match self.node(id).kind {
                NodeKind::Leaf { .. } => return id,
                NodeKind::Split {
                    event,
                    threshold,
                    left,
                    right,
                } => {
                    id = if sample.get(event) <= threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// The 1-based linear model number the sample classifies into — the
    /// classification operation behind the paper's Tables II and IV.
    pub fn classify(&self, sample: &Sample) -> usize {
        match self.node(self.leaf_of(sample)).kind {
            NodeKind::Leaf { lm_index } => lm_index,
            NodeKind::Split { .. } => unreachable!("leaf_of returns leaves"),
        }
    }

    /// Predicts CPI for a sample, applying Quinlan smoothing along the
    /// root path when enabled in the configuration.
    pub fn predict(&self, sample: &Sample) -> f64 {
        // Collect the root-to-leaf path.
        let mut path = Vec::new();
        let mut id = self.root;
        loop {
            path.push(id);
            match self.node(id).kind {
                NodeKind::Leaf { .. } => break,
                NodeKind::Split {
                    event,
                    threshold,
                    left,
                    right,
                } => {
                    id = if sample.get(event) <= threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
        let leaf = *path.last().expect("path contains at least the root");
        let mut p = self.node(leaf).model.predict(sample);
        if !self.config.smoothing || path.len() == 1 {
            return p;
        }
        // Walk back up: p' = (n p + k q) / (n + k), where n is the sample
        // count of the lower node and q the prediction of the ancestor's
        // model.
        let k = self.config.smoothing_k;
        for w in path.windows(2).rev() {
            let (ancestor, lower) = (w[0], w[1]);
            let n = self.node(lower).n_samples as f64;
            let q = self.node(ancestor).model.predict(sample);
            p = (n * p + k * q) / (n + k);
        }
        p
    }

    /// Explains one prediction: the decision path taken, the leaf model
    /// applied, and the resulting prediction — the interpretability that
    /// makes model trees "particularly suitable ... for workload
    /// characterization" in the paper's methodology.
    pub fn explain(&self, sample: &Sample) -> Explanation {
        let mut path = Vec::new();
        let mut id = self.root;
        loop {
            match self.node(id).kind {
                NodeKind::Leaf { lm_index } => {
                    let leaf_model = self.node(id).model.clone();
                    let raw_prediction = leaf_model.predict(sample);
                    return Explanation {
                        path,
                        lm_index,
                        leaf_model,
                        raw_prediction,
                        prediction: self.predict(sample),
                    };
                }
                NodeKind::Split {
                    event,
                    threshold,
                    left,
                    right,
                } => {
                    let value = sample.get(event);
                    let went_left = value <= threshold;
                    path.push(ExplainStep {
                        event,
                        threshold,
                        value,
                        went_left,
                    });
                    id = if went_left { left } else { right };
                }
            }
        }
    }

    /// Predicts CPI for every sample of a dataset.
    ///
    /// The batch path compiles the tree into a [`CompiledTree`] engine
    /// (smoothing folded into flat leaf models) and predicts over the
    /// dataset's columnar cache with [`M5Config::n_threads`] workers.
    /// Results agree with per-sample [`ModelTree::predict`] within
    /// `1e-10` (bit-identical when smoothing is off) and are
    /// bit-identical across thread counts. Callers running many batches
    /// against the same tree should [`ModelTree::compile`] once and
    /// reuse the engine.
    ///
    /// [`CompiledTree`]: crate::compiled::CompiledTree
    pub fn predict_all(&self, data: &Dataset) -> Vec<f64> {
        self.compile().predict_batch(data)
    }

    /// Mean absolute error over a dataset (0 for an empty set).
    pub fn mean_abs_error(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let cpi = data.cpi_column();
        let sum: f64 = self
            .predict_all(data)
            .iter()
            .zip(cpi)
            .map(|(p, y)| (p - y).abs())
            .sum();
        sum / data.len() as f64
    }
}

/// Rejects NaN/infinite attribute cells before any fitting work. A
/// non-finite cell would sort to one end of the attribute order and then
/// produce a non-finite midpoint threshold (`0.5 * (v + inf)` or NaN),
/// under which `partition_point` yields an empty or min-leaf-violating
/// child. With `indices`, only the selected rows are checked (a fold may
/// legitimately exclude a corrupt row).
fn check_finite_attributes(cols: &Columns<'_>, indices: Option<&[u32]>) -> Result<()> {
    for event in EventId::ALL {
        let col = cols.event(event);
        let bad = match indices {
            None => col.iter().position(|v| !v.is_finite()),
            Some(idx) => idx
                .iter()
                .find(|&&i| !col[i as usize].is_finite())
                .map(|&i| i as usize),
        };
        if let Some(row) = bad {
            return Err(TreeError::NonFiniteAttribute(format!(
                "event {} has a non-finite value at row {row}",
                event.short_name()
            )));
        }
    }
    Ok(())
}

/// Recursive growing phase.
///
/// `budget` is the number of threads this subtree may use: when it is at
/// least 2, the left child grows on a scoped worker thread (with
/// `ceil(budget / 2)` threads) while the current thread grows the right
/// child (with the remainder). Join order is fixed, every child's
/// statistics are computed from its own index list, and `find_best_split`
/// is thread-count-invariant — so the grown tree never depends on
/// scheduling.
///
/// `mask` and `scratch` are this thread's partition buffers (full
/// dataset length); a spawned child allocates its own.
#[allow(clippy::too_many_arguments)]
fn grow(
    cols: &Columns<'_>,
    set: NodeSet<'_>,
    stats: TargetStats,
    depth: usize,
    sd_stop: f64,
    config: &M5Config,
    budget: usize,
    mask: &mut Vec<bool>,
    scratch: &mut Vec<u32>,
) -> GrownNode {
    obskit::metrics::observe(obskit::metrics::Hist::TrainerNodeRows, set.len() as u64);
    let stop = set.len() < config.min_split || depth >= config.max_depth || stats.sd() < sd_stop;
    if !stop {
        if let Some(split) = find_best_split(cols, &set, config.min_leaf, &stats, budget) {
            obskit::metrics::incr(obskit::metrics::Metric::TrainerNodesExpanded);
            let indices = set.indices.clone();
            let (left_indices, right_indices) = set.split_plan(cols, &split, mask);
            debug_assert!(!left_indices.is_empty() && !right_indices.is_empty());
            let left_stats = TargetStats::compute(cols.cpi, &left_indices);
            let right_stats = TargetStats::compute(cols.cpi, &right_indices);

            // A child whose own stop test (or minimum split size) already
            // fails can never split again, so when both children are
            // leaves the sorted segments need not be partitioned at all.
            let grows = |child: &TargetStats| {
                child.n >= config.min_split.max(2 * config.min_leaf)
                    && depth + 1 < config.max_depth
                    && child.sd() >= sd_stop
            };
            if !grows(&left_stats) && !grows(&right_stats) {
                let left = GrownNode {
                    indices: left_indices,
                    stats: left_stats,
                    split: None,
                };
                let right = GrownNode {
                    indices: right_indices,
                    stats: right_stats,
                    split: None,
                };
                return GrownNode {
                    indices,
                    stats,
                    split: Some((split, Box::new(left), Box::new(right))),
                };
            }

            let (left_set, right_set) =
                set.partition_segments(left_indices, right_indices, mask, scratch);
            let (left, right) = if budget >= 2 {
                let left_budget = budget.div_ceil(2);
                let right_budget = budget - left_budget;
                std::thread::scope(|scope| {
                    let handle = scope.spawn(move || {
                        let mut left_mask = vec![false; cols.cpi.len()];
                        let mut left_scratch = vec![0u32; cols.cpi.len()];
                        grow(
                            cols,
                            left_set,
                            left_stats,
                            depth + 1,
                            sd_stop,
                            config,
                            left_budget,
                            &mut left_mask,
                            &mut left_scratch,
                        )
                    });
                    let right = grow(
                        cols,
                        right_set,
                        right_stats,
                        depth + 1,
                        sd_stop,
                        config,
                        right_budget.max(1),
                        mask,
                        scratch,
                    );
                    (handle.join().expect("grow worker panicked"), right)
                })
            } else {
                let left = grow(
                    cols,
                    left_set,
                    left_stats,
                    depth + 1,
                    sd_stop,
                    config,
                    1,
                    mask,
                    scratch,
                );
                let right = grow(
                    cols,
                    right_set,
                    right_stats,
                    depth + 1,
                    sd_stop,
                    config,
                    1,
                    mask,
                    scratch,
                );
                (left, right)
            };
            return GrownNode {
                indices,
                stats,
                split: Some((split, Box::new(left), Box::new(right))),
            };
        }
    }
    GrownNode {
        indices: set.indices,
        stats,
        split: None,
    }
}

/// Bottom-up model fitting and pruning.
///
/// `budget` parallelizes sibling subtrees exactly as in [`grow`]; the
/// decision at each node depends only on its own samples and its
/// children's results, so pruning is likewise thread-count-invariant.
fn prune(cols: &Columns<'_>, node: GrownNode, config: &M5Config, budget: usize) -> PrunedNode {
    let n = node.stats.n;
    let mean = node.stats.mean();
    let sd = node.stats.sd();

    match node.split {
        None => {
            // Grown leaf: its subtree references no attributes, so the M5'
            // node model is the constant mean.
            let model = LinearModel::constant(mean);
            let error = model.mean_abs_error_cols(cols, &node.indices)
                * adjusted_error_factor(n, model.n_params());
            PrunedNode {
                model,
                n_samples: n,
                mean_cpi: mean,
                sd_cpi: sd,
                subtree_error: error,
                attrs: BTreeSet::new(),
                split: None,
            }
        }
        Some((split, left, right)) => {
            let (left, right) = if budget >= 2 {
                let left_budget = budget.div_ceil(2);
                let right_budget = budget - left_budget;
                std::thread::scope(|scope| {
                    let handle = scope.spawn(move || prune(cols, *left, config, left_budget));
                    let right = prune(cols, *right, config, right_budget.max(1));
                    (handle.join().expect("prune worker panicked"), right)
                })
            } else {
                (
                    prune(cols, *left, config, 1),
                    prune(cols, *right, config, 1),
                )
            };

            // Attributes available to this node's model: everything tested
            // or modeled in the subtree.
            let mut attrs: BTreeSet<EventId> = &left.attrs | &right.attrs;
            attrs.insert(split.event);
            let candidates: Vec<EventId> = attrs.iter().copied().collect();
            let model = fit_node_model(cols, &node.indices, &candidates, config);
            let node_error = model.mean_abs_error_cols(cols, &node.indices)
                * adjusted_error_factor(n, model.n_params());

            let subtree_error = if n == 0 {
                0.0
            } else {
                (left.subtree_error * left.n_samples as f64
                    + right.subtree_error * right.n_samples as f64)
                    / n as f64
            };

            let should_prune =
                config.prune && node_error <= subtree_error * config.pruning_multiplier;
            if should_prune {
                obskit::metrics::incr(obskit::metrics::Metric::TrainerPrunedSubtrees);
                let model_attrs: BTreeSet<EventId> =
                    model.terms().iter().map(|(e, _)| *e).collect();
                PrunedNode {
                    model,
                    n_samples: n,
                    mean_cpi: mean,
                    sd_cpi: sd,
                    subtree_error: node_error,
                    attrs: model_attrs,
                    split: None,
                }
            } else {
                let mut kept_attrs = attrs;
                kept_attrs.extend(model.terms().iter().map(|(e, _)| *e));
                PrunedNode {
                    model,
                    n_samples: n,
                    mean_cpi: mean,
                    sd_cpi: sd,
                    subtree_error,
                    attrs: kept_attrs,
                    split: Some((split, Box::new(left), Box::new(right))),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Piecewise-linear ground truth with two regimes on DtlbMiss:
    /// below 2e-4 CPI = 0.6 + 500*Dtlb + 2*Load;
    /// above        CPI = 1.0 + 1200*L2Miss.
    fn regime_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new();
        let b = ds.add_benchmark("synth");
        for _ in 0..n {
            let dtlb = rng.gen::<f64>() * 4e-4;
            let load = rng.gen::<f64>() * 0.4;
            let l2 = rng.gen::<f64>() * 1e-3;
            let cpi = if dtlb <= 2e-4 {
                0.6 + 500.0 * dtlb + 2.0 * load
            } else {
                1.0 + 1200.0 * l2
            };
            let mut s = Sample::zeros(cpi + 0.01 * rng.gen::<f64>());
            s.set(EventId::DtlbMiss, dtlb);
            s.set(EventId::Load, load);
            s.set(EventId::L2Miss, l2);
            ds.push(s, b);
        }
        ds
    }

    #[test]
    fn fit_rejects_empty() {
        let ds = Dataset::new();
        assert!(matches!(
            ModelTree::fit(&ds, &M5Config::default()),
            Err(TreeError::InsufficientData(_))
        ));
    }

    #[test]
    fn fit_rejects_nonfinite_cpi() {
        let mut ds = Dataset::new();
        let b = ds.add_benchmark("x");
        ds.push(Sample::zeros(f64::NAN), b);
        assert!(matches!(
            ModelTree::fit(&ds, &M5Config::default()),
            Err(TreeError::DegenerateTarget(_))
        ));
    }

    #[test]
    fn fit_rejects_invalid_config() {
        let ds = regime_dataset(50, 0);
        let bad = M5Config {
            min_leaf: 0,
            ..Default::default()
        };
        assert!(matches!(
            ModelTree::fit(&ds, &bad),
            Err(TreeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn single_leaf_for_tiny_data() {
        let ds = regime_dataset(5, 1);
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        assert_eq!(tree.n_leaves(), 1);
        assert_eq!(tree.depth(), 0);
        assert!(tree.root_split_event().is_none());
    }

    #[test]
    fn recovers_regime_split_attribute() {
        let ds = regime_dataset(2000, 2);
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        assert_eq!(tree.root_split_event(), Some(EventId::DtlbMiss));
        // Threshold near the true regime boundary.
        if let NodeKind::Split { threshold, .. } = tree.node(tree.root()).kind {
            assert!(
                (threshold - 2e-4).abs() < 4e-5,
                "threshold {threshold} far from 2e-4"
            );
        }
    }

    #[test]
    fn predictions_track_ground_truth() {
        let ds = regime_dataset(2000, 3);
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        let test = regime_dataset(500, 99);
        let mae = tree.mean_abs_error(&test);
        assert!(mae < 0.05, "mae {mae}");
    }

    #[test]
    fn leaves_are_numbered_left_to_right_and_cover_all_samples() {
        let ds = regime_dataset(2000, 4);
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        let leaves = tree.leaves();
        assert_eq!(leaves.len(), tree.n_leaves());
        for (i, leaf) in leaves.iter().enumerate() {
            assert_eq!(leaf.lm_index, i + 1);
        }
        let total: usize = leaves.iter().map(|l| l.n_samples).sum();
        assert_eq!(total, ds.len());
        let share_sum: f64 = leaves.iter().map(|l| l.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn classify_is_consistent_with_leaf_of() {
        let ds = regime_dataset(500, 5);
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        for i in 0..ds.len() {
            let s = ds.sample(i);
            let leaf = tree.leaf_of(&s);
            match tree.node(leaf).kind {
                NodeKind::Leaf { lm_index } => assert_eq!(lm_index, tree.classify(&s)),
                NodeKind::Split { .. } => panic!("leaf_of returned a split"),
            }
        }
    }

    #[test]
    fn classification_counts_match_leaf_stats() {
        let ds = regime_dataset(1000, 6);
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        let mut counts = vec![0usize; tree.n_leaves() + 1];
        for i in 0..ds.len() {
            counts[tree.classify(&ds.sample(i))] += 1;
        }
        for leaf in tree.leaves() {
            assert_eq!(counts[leaf.lm_index], leaf.n_samples);
        }
    }

    #[test]
    fn smoothing_changes_predictions_but_not_wildly() {
        let ds = regime_dataset(2000, 7);
        let smoothed = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        let raw = ModelTree::fit(&ds, &M5Config::default().with_smoothing(false)).unwrap();
        let test = regime_dataset(200, 100);
        let mut any_diff = false;
        for i in 0..test.len() {
            let s = test.sample(i);
            let a = smoothed.predict(&s);
            let b = raw.predict(&s);
            if (a - b).abs() > 1e-12 {
                any_diff = true;
            }
            assert!((a - b).abs() < 0.5, "smoothing moved prediction too far");
        }
        assert!(any_diff, "smoothing had no effect at all");
    }

    #[test]
    fn pruning_reduces_leaf_count() {
        let ds = regime_dataset(2000, 8);
        let pruned = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        let unpruned = ModelTree::fit(&ds, &M5Config::default().with_prune(false)).unwrap();
        assert!(pruned.n_leaves() <= unpruned.n_leaves());
    }

    #[test]
    fn aggressive_pruning_multiplier_shrinks_tree() {
        let ds = regime_dataset(2000, 9);
        let normal = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        let aggressive =
            ModelTree::fit(&ds, &M5Config::default().with_pruning_multiplier(3.0)).unwrap();
        assert!(aggressive.n_leaves() <= normal.n_leaves());
    }

    #[test]
    fn max_depth_respected() {
        let ds = regime_dataset(2000, 10);
        let tree = ModelTree::fit(
            &ds,
            &M5Config::default().with_max_depth(2).with_prune(false),
        )
        .unwrap();
        assert!(tree.depth() <= 2);
    }

    #[test]
    fn used_events_includes_root_split() {
        let ds = regime_dataset(2000, 11);
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        assert!(tree.used_events().contains(&EventId::DtlbMiss));
    }

    #[test]
    fn constant_target_yields_single_constant_leaf() {
        let mut ds = Dataset::new();
        let b = ds.add_benchmark("flat");
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..300 {
            let mut s = Sample::zeros(1.5);
            s.set(EventId::Load, rng.gen());
            ds.push(s, b);
        }
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        assert_eq!(tree.n_leaves(), 1);
        let probe = Sample::zeros(0.0);
        assert!((tree.predict(&probe) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn predict_all_matches_pointwise() {
        let ds = regime_dataset(200, 13);
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        // The batch path runs the compiled engine (smoothing folded into
        // the leaves), which reassociates the smoothing arithmetic; the
        // contract is 1e-10 agreement with the interpreter.
        let all = tree.predict_all(&ds);
        for (i, &p) in all.iter().enumerate() {
            let q = tree.predict(&ds.sample(i));
            assert!((p - q).abs() < 1e-10, "sample {i}: {p} vs {q}");
        }
        // Without smoothing the folded model IS the leaf model and the
        // batch path is bit-identical.
        let raw = ModelTree::fit(&ds, &M5Config::default().with_smoothing(false)).unwrap();
        let all = raw.predict_all(&ds);
        for (i, &p) in all.iter().enumerate() {
            assert_eq!(p.to_bits(), raw.predict(&ds.sample(i)).to_bits());
        }
    }

    #[test]
    fn fit_indices_matches_fit_on_materialized_subset() {
        let ds = regime_dataset(900, 20);
        // A shuffled, non-contiguous subset, as k_fold produces.
        let indices: Vec<u32> = (0..ds.len() as u32).filter(|i| i % 3 != 0).rev().collect();
        let mut subset = Dataset::new();
        let b = subset.add_benchmark("synth");
        for &i in &indices {
            subset.push(ds.sample(i as usize), b);
        }
        let from_indices = ModelTree::fit_indices(&ds, &indices, &M5Config::default()).unwrap();
        let from_subset = ModelTree::fit(&subset, &M5Config::default()).unwrap();
        assert!(from_indices.structural_eq(&from_subset));
        assert_eq!(from_indices.n_training(), indices.len());
    }

    #[test]
    fn fit_indices_rejects_bad_input() {
        let ds = regime_dataset(50, 21);
        assert!(matches!(
            ModelTree::fit_indices(&ds, &[], &M5Config::default()),
            Err(TreeError::InsufficientData(_))
        ));
        assert!(matches!(
            ModelTree::fit_indices(&ds, &[0, 50], &M5Config::default()),
            Err(TreeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn serde_roundtrip_preserves_predictions() {
        let ds = regime_dataset(500, 14);
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        let json = serde_json::to_string(&tree).unwrap();
        let back: ModelTree = serde_json::from_str(&json).unwrap();
        for i in 0..20 {
            let s = ds.sample(i);
            assert!((back.predict(&s) - tree.predict(&s)).abs() < 1e-9);
        }
    }

    #[test]
    fn explain_reconstructs_prediction_and_path() {
        let ds = regime_dataset(1500, 18);
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        for i in (0..ds.len()).step_by(113) {
            let s = ds.sample(i);
            let ex = tree.explain(&s);
            assert_eq!(ex.lm_index, tree.classify(&s));
            assert_eq!(ex.prediction, tree.predict(&s));
            // Every path step must be consistent with the sample.
            for step in &ex.path {
                assert_eq!(step.went_left, step.value <= step.threshold);
            }
            // Path length bounded by depth.
            assert!(ex.path.len() <= tree.depth());
            let text = ex.to_string();
            assert!(text.contains("predicted CPI"));
            assert!(text.contains(&format!("LM{}", ex.lm_index)));
        }
    }

    #[test]
    fn explain_single_leaf_has_empty_path() {
        let ds = regime_dataset(5, 19);
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        let ex = tree.explain(&ds.sample(0));
        assert!(ex.path.is_empty());
        assert_eq!(ex.lm_index, 1);
        assert_eq!(ex.raw_prediction, ex.prediction);
    }

    #[test]
    fn event_importance_ranks_the_regime_variable_first() {
        let ds = regime_dataset(2000, 16);
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        let importance = tree.event_importance();
        assert!(!importance.is_empty());
        assert_eq!(importance[0].0, EventId::DtlbMiss);
        let total: f64 = importance.iter().map(|(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Sorted descending.
        for w in importance.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn single_leaf_has_empty_importance() {
        let ds = regime_dataset(5, 17);
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        assert!(tree.event_importance().is_empty());
    }

    #[test]
    fn deterministic_given_same_data() {
        let ds = regime_dataset(800, 15);
        let a = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        let b = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        assert_eq!(a, b);
    }
}
