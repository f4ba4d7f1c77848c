//! A deliberately naive reference implementation of M5' — the
//! differential oracle for [`modeltree::ModelTree`].
//!
//! Where the optimized trainer presorts every attribute once and
//! maintains sorted order by in-place stable partitioning of arena
//! segments, fits node models from a single precomputed Gram system,
//! and fans sibling subtrees out to scoped threads, this implementation
//! does the obvious thing at every step:
//!
//! * each node **re-sorts** every attribute from scratch with a stable
//!   `total_cmp` sort,
//! * children are plain filtered copies of the parent's row list,
//! * every attribute-subset trial during elimination rebuilds its
//!   normal equations directly from the raw rows,
//! * recursion is single-threaded `Box`ed structure, no arenas.
//!
//! # The bit-identity contract
//!
//! The differential suite asserts the optimized trainer produces
//! **bit-identical** trees. For that to be a meaningful check, the two
//! implementations must share the *decision arithmetic* — the exact
//! floating-point expressions whose results are compared or thresholded
//! (the division-free split criterion `w = sqrt(n_l·Σy²_l − (Σy_l)²) +
//! sqrt(n_r·Σy²_r − (Σy_r)²)`, midpoint thresholds, the `1e-12·sd`
//! floor, the adjusted-error factor, the smoothing recurrence) and the
//! tie-breaking rules (leftmost threshold on `<`, earliest attribute on
//! `>`, earliest dropped term on `<`). Those expressions are restated
//! here from the algorithm's definition, independently of the optimized
//! code's data structures. What this oracle deliberately does **not**
//! share is everything PR 1 and PR 2 changed: sort maintenance,
//! partition bookkeeping, Gram caching, thread scheduling, arena reuse
//! — which is exactly the machinery a differential test is meant to
//! cross-examine.
//!
//! Accumulation order matters for bit-identity: sums over a node's
//! samples are always taken in the node's row order, which both
//! implementations keep as *original dataset order* (stable sorts tie
//! on it; stable partitions preserve it).

use modeltree::{LinearModel, M5Config, ModelTree, NodeKind};
use perfcounters::events::{EventId, N_EVENTS};
use perfcounters::{Dataset, Sample};

/// Column copies of a dataset: the reference owns its columns instead
/// of borrowing the dataset's storage the optimized trainer reads.
struct RefColumns {
    events: Vec<Vec<f64>>,
    cpi: Vec<f64>,
}

impl RefColumns {
    fn new(data: &Dataset) -> RefColumns {
        RefColumns {
            events: EventId::ALL.iter().map(|&e| data.column(e)).collect(),
            cpi: data.iter().map(|(s, _)| s.cpi()).collect(),
        }
    }

    fn event(&self, e: EventId) -> &[f64] {
        &self.events[e.index()]
    }
}

/// Target statistics of one node, accumulated in row order.
#[derive(Clone, Copy)]
struct RefStats {
    n: usize,
    sum: f64,
    sum_sq: f64,
}

impl RefStats {
    fn compute(cpi: &[f64], rows: &[u32]) -> RefStats {
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for &i in rows {
            let y = cpi[i as usize];
            sum += y;
            sum_sq += y * y;
        }
        RefStats {
            n: rows.len(),
            sum,
            sum_sq,
        }
    }

    fn mean(&self) -> f64 {
        self.sum / self.n as f64
    }

    fn sd(&self) -> f64 {
        let mean = self.mean();
        (self.sum_sq / self.n as f64 - mean * mean).max(0.0).sqrt()
    }
}

/// A chosen split.
#[derive(Clone, Copy)]
struct RefSplit {
    event: EventId,
    threshold: f64,
    sdr: f64,
}

/// The structural role of a reference node.
pub enum RefKind {
    /// A leaf with its 1-based left-to-right model number.
    Leaf {
        /// 1-based linear model number.
        lm_index: usize,
    },
    /// An interior `event <= threshold` test.
    Split {
        /// The tested attribute.
        event: EventId,
        /// Samples with `value <= threshold` descend left.
        threshold: f64,
        /// Standard-deviation reduction of the split.
        sdr: f64,
        /// Left child.
        left: Box<RefNode>,
        /// Right child.
        right: Box<RefNode>,
    },
}

/// One node of the reference tree.
pub struct RefNode {
    /// Structural role.
    pub kind: RefKind,
    /// The node's linear model (interior nodes keep theirs for
    /// smoothing).
    pub model: LinearModel,
    /// Training samples that reached this node.
    pub n_samples: usize,
    /// Mean training CPI here.
    pub mean_cpi: f64,
    /// Population sd of training CPI here.
    pub sd_cpi: f64,
}

/// A reference M5' model tree.
pub struct RefTree {
    root: RefNode,
    config: M5Config,
    n_training: usize,
    root_sd: f64,
}

/// Growing-phase node.
struct GrownRef {
    rows: Vec<u32>,
    stats: RefStats,
    split: Option<(RefSplit, Box<GrownRef>, Box<GrownRef>)>,
}

/// Pruning-phase node.
struct PrunedRef {
    model: LinearModel,
    n_samples: usize,
    mean_cpi: f64,
    sd_cpi: f64,
    subtree_error: f64,
    attrs: Vec<EventId>,
    split: Option<(RefSplit, Box<PrunedRef>, Box<PrunedRef>)>,
}

/// The M5 adjusted-error factor `(n + v) / (n - v)` (infinite when the
/// model has at least as many parameters as samples).
fn adjusted_error_factor(n: usize, v: usize) -> f64 {
    if n <= v {
        f64::INFINITY
    } else {
        (n + v) as f64 / (n - v) as f64
    }
}

/// Mean absolute error of `model` over the selected rows, accumulated
/// in row order.
fn mean_abs_error(cols: &RefColumns, model: &LinearModel, rows: &[u32]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let sum: f64 = rows
        .iter()
        .map(|&i| {
            let i = i as usize;
            let predicted = model.intercept()
                + model
                    .terms()
                    .iter()
                    .map(|(e, c)| c * cols.event(*e)[i])
                    .sum::<f64>();
            (predicted - cols.cpi[i]).abs()
        })
        .sum();
    sum / rows.len() as f64
}

/// Solves one least-squares subproblem by building the normal equations
/// straight from the raw rows (no shared Gram system): design columns
/// are `[1] ++ candidates[active]`, accumulated sample-by-sample in row
/// order. Returns the model and its sum of squared errors.
fn solve_subset(
    cols: &RefColumns,
    rows: &[u32],
    candidates: &[EventId],
    active: &[usize],
) -> (LinearModel, f64) {
    let m = active.len() + 1;
    let mut g = mathkit::matrix::Matrix::zeros(m, m);
    let mut c = vec![0.0; m];
    let mut yty = 0.0;
    let mut row = vec![0.0; m];
    for &i in rows {
        let i = i as usize;
        row[0] = 1.0;
        for (j, &a) in active.iter().enumerate() {
            row[j + 1] = cols.event(candidates[a])[i];
        }
        let y = cols.cpi[i];
        yty += y * y;
        for a in 0..m {
            c[a] += row[a] * y;
            for b in 0..m {
                g[(a, b)] += row[a] * row[b];
            }
        }
    }
    // Same solve chain as the trainer: exact SPD first, ridge only for
    // degenerate designs, mean-only constant as the last resort.
    let solution = mathkit::solve::solve_spd(&g, &c)
        .ok()
        .filter(|beta| beta.iter().all(|v| v.is_finite()))
        .map_or_else(|| mathkit::solve::solve_ridge(&g, &c, 1e-10), Ok);
    match solution {
        Ok(beta) => {
            let sse = (yty - beta.iter().zip(&c).map(|(b, ci)| b * ci).sum::<f64>()).max(0.0);
            let terms: Vec<(EventId, f64)> = active
                .iter()
                .zip(beta.iter().skip(1))
                .map(|(&a, &coef)| (candidates[a], coef))
                .collect();
            (LinearModel::new(beta[0], terms), sse)
        }
        Err(_) => {
            let n = rows.len();
            let mean = if n > 0 { c[0] / n as f64 } else { 0.0 };
            let sse = (yty - mean * c[0]).max(0.0);
            (LinearModel::constant(mean), sse)
        }
    }
}

fn adjusted_rmse(n: usize, sse: f64, v: usize) -> f64 {
    if n == 0 {
        return f64::INFINITY;
    }
    (sse / n as f64).sqrt() * adjusted_error_factor(n, v)
}

/// Textbook node-model fitting: full least squares over the candidate
/// attributes, then greedy backward elimination accepting the drop with
/// the smallest adjusted RMSE no worse than the incumbent (earliest
/// position on exact ties).
fn fit_node_model(
    cols: &RefColumns,
    rows: &[u32],
    candidates: &[EventId],
    config: &M5Config,
) -> LinearModel {
    if rows.is_empty() {
        return LinearModel::constant(0.0);
    }
    if candidates.is_empty() {
        return solve_subset(cols, rows, candidates, &[]).0;
    }
    let mut active: Vec<usize> = (0..candidates.len()).collect();
    // Pre-trim so n > v + 1, dropping from the end of the list.
    while !active.is_empty() && rows.len() <= active.len() + 2 {
        active.pop();
    }
    let (mut model, sse) = solve_subset(cols, rows, candidates, &active);
    if !config.attribute_elimination {
        return model;
    }
    let mut best_adjusted = adjusted_rmse(rows.len(), sse, active.len() + 1);
    loop {
        if active.is_empty() {
            break;
        }
        let mut best_drop: Option<(usize, LinearModel, f64)> = None;
        for pos in 0..active.len() {
            let mut trial = active.clone();
            trial.remove(pos);
            let (m, s) = solve_subset(cols, rows, candidates, &trial);
            let adj = adjusted_rmse(rows.len(), s, trial.len() + 1);
            if adj <= best_adjusted && best_drop.as_ref().is_none_or(|(_, _, prev)| adj < *prev) {
                best_drop = Some((pos, m, adj));
            }
        }
        match best_drop {
            Some((pos, m, adj)) => {
                active.remove(pos);
                model = m;
                best_adjusted = adj;
            }
            None => break,
        }
    }
    model
}

/// Scans one attribute for its best admissible threshold: stable-sort
/// the node's rows by the attribute, then walk every boundary between
/// distinct adjacent values accumulating `(n, Σy, Σy²)` prefix sums.
fn scan_attribute(
    cols: &RefColumns,
    rows: &[u32],
    event: EventId,
    min_leaf: usize,
    stats: &RefStats,
    total_sd: f64,
) -> Option<RefSplit> {
    let col = cols.event(event);
    let mut seg: Vec<u32> = rows.to_vec();
    // Stable sort: ties stay in dataset order, like the trainer's
    // presorted segments.
    seg.sort_by(|&a, &b| col[a as usize].total_cmp(&col[b as usize]));

    let n = seg.len();
    if col[seg[0] as usize] == col[seg[n - 1] as usize] {
        return None; // constant column
    }

    let nf = n as f64;
    let floor = 1e-12 * total_sd;
    let bound = nf * (total_sd - floor);
    let mut best_w = bound;
    let mut best_threshold = f64::NAN;
    let mut left_sum = 0.0;
    let mut left_sum_sq = 0.0;

    // Admissible thresholds put `i + 1 ∈ [min_leaf, n - min_leaf]`
    // samples on the left.
    let lo = min_leaf.saturating_sub(1);
    let hi = (n - min_leaf).min(n - 1);
    for &i in &seg[..lo] {
        let y = cols.cpi[i as usize];
        left_sum += y;
        left_sum_sq += y * y;
    }
    for i in lo..hi {
        let y = cols.cpi[seg[i] as usize];
        left_sum += y;
        left_sum_sq += y * y;
        let value = col[seg[i] as usize];
        let next_value = col[seg[i + 1] as usize];
        if value == next_value {
            continue; // a threshold must separate distinct values
        }
        let threshold = 0.5 * (value + next_value);
        let right_sum = stats.sum - left_sum;
        let right_sum_sq = stats.sum_sq - left_sum_sq;
        // The division-free criterion: w = n·Σ (|T_i|/|T|)·sd(T_i).
        let scaled_l = ((i + 1) as f64 * left_sum_sq - left_sum * left_sum).max(0.0);
        let scaled_r = ((n - i - 1) as f64 * right_sum_sq - right_sum * right_sum).max(0.0);
        let w = scaled_l.sqrt() + scaled_r.sqrt();
        // Strict `<` keeps the leftmost minimum.
        if w < best_w {
            best_w = w;
            best_threshold = threshold;
        }
    }
    if best_w < bound {
        Some(RefSplit {
            event,
            threshold: best_threshold,
            sdr: total_sd - best_w / nf,
        })
    } else {
        None
    }
}

/// SDR-maximizing split over all attributes in `EventId::ALL` order;
/// strict `>` keeps the earliest attribute on ties.
fn find_best_split(
    cols: &RefColumns,
    rows: &[u32],
    min_leaf: usize,
    stats: &RefStats,
) -> Option<RefSplit> {
    if rows.len() < 2 * min_leaf {
        return None;
    }
    let total_sd = stats.sd();
    if total_sd <= 0.0 {
        return None;
    }
    let mut best: Option<RefSplit> = None;
    for event in EventId::ALL {
        if let Some(candidate) = scan_attribute(cols, rows, event, min_leaf, stats, total_sd) {
            if best.is_none_or(|b| candidate.sdr > b.sdr) {
                best = Some(candidate);
            }
        }
    }
    best
}

/// Straight-line recursive growing.
fn grow(
    cols: &RefColumns,
    rows: Vec<u32>,
    depth: usize,
    sd_stop: f64,
    config: &M5Config,
) -> GrownRef {
    let stats = RefStats::compute(&cols.cpi, &rows);
    let stop = rows.len() < config.min_split || depth >= config.max_depth || stats.sd() < sd_stop;
    if !stop {
        if let Some(split) = find_best_split(cols, &rows, config.min_leaf, &stats) {
            let col = cols.event(split.event);
            let left_rows: Vec<u32> = rows
                .iter()
                .copied()
                .filter(|&i| col[i as usize] <= split.threshold)
                .collect();
            let right_rows: Vec<u32> = rows
                .iter()
                .copied()
                .filter(|&i| col[i as usize] > split.threshold)
                .collect();
            let left = grow(cols, left_rows, depth + 1, sd_stop, config);
            let right = grow(cols, right_rows, depth + 1, sd_stop, config);
            return GrownRef {
                rows,
                stats,
                split: Some((split, Box::new(left), Box::new(right))),
            };
        }
    }
    GrownRef {
        rows,
        stats,
        split: None,
    }
}

/// Textbook bottom-up pruning: fit this node's model over the subtree's
/// attributes and replace the subtree whenever the node's own adjusted
/// error is no worse than the (multiplier-scaled) weighted subtree
/// error.
fn prune(cols: &RefColumns, node: GrownRef, config: &M5Config) -> PrunedRef {
    let n = node.stats.n;
    let mean = node.stats.mean();
    let sd = node.stats.sd();
    match node.split {
        None => {
            let model = LinearModel::constant(mean);
            let error = mean_abs_error(cols, &model, &node.rows)
                * adjusted_error_factor(n, model.n_params());
            PrunedRef {
                model,
                n_samples: n,
                mean_cpi: mean,
                sd_cpi: sd,
                subtree_error: error,
                attrs: Vec::new(),
                split: None,
            }
        }
        Some((split, left, right)) => {
            let left = prune(cols, *left, config);
            let right = prune(cols, *right, config);

            // Attributes available to this node's model: everything the
            // subtree tests or models, in EventId order.
            let mut present = [false; N_EVENTS];
            for e in left.attrs.iter().chain(&right.attrs) {
                present[e.index()] = true;
            }
            present[split.event.index()] = true;
            let candidates: Vec<EventId> = EventId::ALL
                .into_iter()
                .filter(|e| present[e.index()])
                .collect();

            let model = fit_node_model(cols, &node.rows, &candidates, config);
            let node_error = mean_abs_error(cols, &model, &node.rows)
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
                let attrs: Vec<EventId> = model.terms().iter().map(|(e, _)| *e).collect();
                PrunedRef {
                    model,
                    n_samples: n,
                    mean_cpi: mean,
                    sd_cpi: sd,
                    subtree_error: node_error,
                    attrs,
                    split: None,
                }
            } else {
                let mut present = present;
                for (e, _) in model.terms() {
                    present[e.index()] = true;
                }
                let attrs: Vec<EventId> = EventId::ALL
                    .into_iter()
                    .filter(|e| present[e.index()])
                    .collect();
                PrunedRef {
                    model,
                    n_samples: n,
                    mean_cpi: mean,
                    sd_cpi: sd,
                    subtree_error,
                    attrs,
                    split: Some((split, Box::new(left), Box::new(right))),
                }
            }
        }
    }
}

/// Converts the pruned structure into [`RefNode`]s, numbering leaves
/// 1-based left to right.
fn finalize(node: PrunedRef, next_lm: &mut usize) -> RefNode {
    match node.split {
        Some((split, left, right)) => {
            let left = finalize(*left, next_lm);
            let right = finalize(*right, next_lm);
            RefNode {
                kind: RefKind::Split {
                    event: split.event,
                    threshold: split.threshold,
                    sdr: split.sdr,
                    left: Box::new(left),
                    right: Box::new(right),
                },
                model: node.model,
                n_samples: node.n_samples,
                mean_cpi: node.mean_cpi,
                sd_cpi: node.sd_cpi,
            }
        }
        None => {
            let lm_index = *next_lm;
            *next_lm += 1;
            RefNode {
                kind: RefKind::Leaf { lm_index },
                model: node.model,
                n_samples: node.n_samples,
                mean_cpi: node.mean_cpi,
                sd_cpi: node.sd_cpi,
            }
        }
    }
}

impl RefTree {
    /// Fits a reference tree, with the same input rejections as the
    /// trainer: empty data, non-finite CPI, non-finite attribute cells.
    pub fn fit(data: &Dataset, config: &M5Config) -> Result<RefTree, String> {
        config.validate().map_err(|e| e.to_string())?;
        if data.is_empty() {
            return Err("empty training set".into());
        }
        let cols = RefColumns::new(data);
        if cols.cpi.iter().any(|y| !y.is_finite()) {
            return Err("non-finite CPI".into());
        }
        for event in EventId::ALL {
            if cols.event(event).iter().any(|v| !v.is_finite()) {
                return Err(format!("non-finite {} cell", event.short_name()));
            }
        }
        let rows: Vec<u32> = (0..data.len() as u32).collect();
        let root_stats = RefStats::compute(&cols.cpi, &rows);
        let root_sd = root_stats.sd();
        let sd_stop = config.sd_fraction * root_sd;
        let n_training = rows.len();
        let grown = grow(&cols, rows, 0, sd_stop, config);
        let pruned = prune(&cols, grown, config);
        let mut next_lm = 1;
        Ok(RefTree {
            root: finalize(pruned, &mut next_lm),
            config: *config,
            n_training,
            root_sd,
        })
    }

    /// The root node.
    pub fn root(&self) -> &RefNode {
        &self.root
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        fn count(node: &RefNode) -> usize {
            match &node.kind {
                RefKind::Leaf { .. } => 1,
                RefKind::Split { left, right, .. } => count(left) + count(right),
            }
        }
        count(&self.root)
    }

    /// Textbook prediction: descend to a leaf, then (with smoothing on)
    /// blend back up with `p' = (n·p + k·q) / (n + k)`.
    pub fn predict(&self, sample: &Sample) -> f64 {
        self.predict_with_smoothing(sample, self.config.smoothing)
    }

    /// [`RefTree::predict`] with an explicit smoothing choice — lets the
    /// differential sweep reuse one reference fit across corners that
    /// differ only in smoothing (which does not affect training).
    pub fn predict_with_smoothing(&self, sample: &Sample, smoothing: bool) -> f64 {
        let mut path: Vec<&RefNode> = Vec::new();
        let mut node = &self.root;
        loop {
            path.push(node);
            match &node.kind {
                RefKind::Leaf { .. } => break,
                RefKind::Split {
                    event,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    node = if sample.get(*event) <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
        let mut p = path.last().expect("non-empty path").model.predict(sample);
        if !smoothing || path.len() == 1 {
            return p;
        }
        let k = self.config.smoothing_k;
        for w in path.windows(2).rev() {
            let n = w[1].n_samples as f64;
            let q = w[0].model.predict(sample);
            p = (n * p + k * q) / (n + k);
        }
        p
    }

    /// Verifies the optimized tree is **bit-identical** to this
    /// reference: same structure, same split events, bit-equal
    /// thresholds/statistics, bit-equal model coefficients, same leaf
    /// numbering. Returns a description of the first mismatch.
    pub fn assert_matches(&self, tree: &ModelTree) -> Result<(), String> {
        if tree.n_training() != self.n_training {
            return Err(format!(
                "n_training: {} vs reference {}",
                tree.n_training(),
                self.n_training
            ));
        }
        if tree.root_sd().to_bits() != self.root_sd.to_bits() {
            return Err(format!(
                "root_sd: {} vs reference {}",
                tree.root_sd(),
                self.root_sd
            ));
        }
        compare(tree, tree.root(), &self.root, "root")
    }
}

fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

fn compare(
    tree: &ModelTree,
    id: modeltree::NodeId,
    reference: &RefNode,
    path: &str,
) -> Result<(), String> {
    let node = tree.node(id);
    if node.n_samples() != reference.n_samples {
        return Err(format!(
            "{path}: n_samples {} vs reference {}",
            node.n_samples(),
            reference.n_samples
        ));
    }
    if !bits_eq(node.mean_cpi(), reference.mean_cpi) {
        return Err(format!(
            "{path}: mean_cpi {} vs reference {}",
            node.mean_cpi(),
            reference.mean_cpi
        ));
    }
    if !bits_eq(node.sd_cpi(), reference.sd_cpi) {
        return Err(format!(
            "{path}: sd_cpi {} vs reference {}",
            node.sd_cpi(),
            reference.sd_cpi
        ));
    }
    let model = node.model();
    if !bits_eq(model.intercept(), reference.model.intercept())
        || model.terms().len() != reference.model.terms().len()
        || model
            .terms()
            .iter()
            .zip(reference.model.terms())
            .any(|(a, b)| a.0 != b.0 || !bits_eq(a.1, b.1))
    {
        return Err(format!(
            "{path}: model {} vs reference {}",
            model, reference.model
        ));
    }
    match (node.kind(), &reference.kind) {
        (NodeKind::Leaf { lm_index }, RefKind::Leaf { lm_index: r }) => {
            if lm_index != r {
                return Err(format!("{path}: lm_index {lm_index} vs reference {r}"));
            }
            Ok(())
        }
        (
            NodeKind::Split {
                event,
                threshold,
                left,
                right,
            },
            RefKind::Split {
                event: re,
                threshold: rt,
                sdr: rsdr,
                left: rl,
                right: rr,
            },
        ) => {
            if event != re {
                return Err(format!(
                    "{path}: split event {} vs reference {}",
                    event.short_name(),
                    re.short_name()
                ));
            }
            if !bits_eq(*threshold, *rt) {
                return Err(format!("{path}: threshold {threshold} vs reference {rt}"));
            }
            if !bits_eq(node.sdr(), *rsdr) {
                return Err(format!("{path}: sdr {} vs reference {}", node.sdr(), rsdr));
            }
            compare(tree, *left, rl, &format!("{path}.L"))?;
            compare(tree, *right, rr, &format!("{path}.R"))
        }
        (NodeKind::Leaf { .. }, RefKind::Split { .. }) => {
            Err(format!("{path}: optimized leaf where reference splits"))
        }
        (NodeKind::Split { .. }, RefKind::Leaf { .. }) => Err(format!(
            "{path}: optimized split where reference has a leaf"
        )),
    }
}

/// A row-major reference dataset: the `Vec<Sample>` layout
/// [`Dataset`] had before it was stored column-major, with the row
/// algorithms it used. It is the oracle for the columnar dataset:
/// every operation here must agree with [`Dataset`]'s bit for bit.
#[derive(Debug, Clone, Default)]
pub struct RowDataset {
    /// One sample per row.
    pub samples: Vec<Sample>,
    /// Benchmark label per row (an index into `benchmarks`).
    pub labels: Vec<u32>,
    /// The benchmark name table.
    pub benchmarks: Vec<String>,
}

impl RowDataset {
    /// A dataset of the given rows, labels and name table.
    pub fn new(samples: Vec<Sample>, labels: Vec<u32>, benchmarks: Vec<String>) -> RowDataset {
        RowDataset {
            samples,
            labels,
            benchmarks,
        }
    }

    fn with_names(&self) -> RowDataset {
        RowDataset::new(Vec::new(), Vec::new(), self.benchmarks.clone())
    }

    /// Random split: rank `r` of the drawn permutation goes to the
    /// first part when `r < ceil(fraction * len)`.
    pub fn split_random<R: rand::Rng + ?Sized>(
        &self,
        rng: &mut R,
        fraction: f64,
    ) -> (RowDataset, RowDataset) {
        let n_first = (fraction * self.samples.len() as f64).ceil() as usize;
        let order = mathkit::sampling::permutation(rng, self.samples.len());
        let (mut first, mut second) = (self.with_names(), self.with_names());
        for (rank, &idx) in order.iter().enumerate() {
            let target = if rank < n_first {
                &mut first
            } else {
                &mut second
            };
            target.samples.push(self.samples[idx].clone());
            target.labels.push(self.labels[idx]);
        }
        (first, second)
    }

    /// The rows with one label, in order.
    pub fn filter_benchmark(&self, label: u32) -> RowDataset {
        let mut out = self.with_names();
        for (s, &l) in self.samples.iter().zip(&self.labels) {
            if l == label {
                out.samples.push(s.clone());
                out.labels.push(l);
            }
        }
        out
    }

    /// Appends `other`'s rows, remapping its labels through the names.
    pub fn merge(&mut self, other: &RowDataset) {
        let mut label_of = |name: &String| match self.benchmarks.iter().position(|b| b == name) {
            Some(pos) => pos as u32,
            None => {
                self.benchmarks.push(name.clone());
                (self.benchmarks.len() - 1) as u32
            }
        };
        let remap: Vec<u32> = other.benchmarks.iter().map(&mut label_of).collect();
        for (s, &l) in other.samples.iter().zip(&other.labels) {
            self.samples.push(s.clone());
            self.labels.push(remap[l as usize]);
        }
    }

    /// The `n x N_EVENTS` feature matrix, filled row by row.
    pub fn feature_matrix(&self) -> mathkit::matrix::Matrix {
        let mut m = mathkit::matrix::Matrix::zeros(self.samples.len(), N_EVENTS);
        for (r, s) in self.samples.iter().enumerate() {
            for (c, &v) in s.densities().iter().enumerate() {
                m[(r, c)] = v;
            }
        }
        m
    }

    /// The CSV bytes `Dataset::to_csv` writes, written row by row.
    pub fn to_csv(&self) -> Vec<u8> {
        let mut out = String::from("benchmark,CPI");
        for e in EventId::ALL {
            out.push(',');
            out.push_str(e.short_name());
        }
        out.push('\n');
        for (s, &l) in self.samples.iter().zip(&self.labels) {
            let name = self.benchmarks.get(l as usize).map_or("?", String::as_str);
            out.push_str(&format!("{name},{}", s.cpi()));
            for e in EventId::ALL {
                out.push_str(&format!(",{}", s.get(e)));
            }
            out.push('\n');
        }
        out.into_bytes()
    }

    /// Checks that `data` holds exactly these rows — through
    /// [`Dataset::sample`], [`Dataset::iter`] and [`Dataset::label`],
    /// comparing values with `to_bits` — and this name table.
    ///
    /// # Errors
    ///
    /// Describes the first difference.
    pub fn check(&self, data: &Dataset) -> Result<(), String> {
        if data.benchmark_names() != self.benchmarks.as_slice() {
            return Err(format!(
                "names {:?} vs reference {:?}",
                data.benchmark_names(),
                self.benchmarks
            ));
        }
        if data.len() != self.samples.len() {
            return Err(format!(
                "{} rows vs reference {}",
                data.len(),
                self.samples.len()
            ));
        }
        let rows = self.samples.iter().zip(&self.labels);
        for (i, ((s, l), (want, &want_label))) in data.iter().zip(rows).enumerate() {
            for (what, got) in [("iter", &s), ("sample", &data.sample(i))] {
                let bits = |s: &Sample| -> Vec<u64> {
                    std::iter::once(s.cpi())
                        .chain(s.densities().iter().copied())
                        .map(f64::to_bits)
                        .collect()
                };
                if bits(got) != bits(want) {
                    return Err(format!("row {i} via {what}: {got:?} vs reference {want:?}"));
                }
            }
            if l != want_label || data.label(i) != want_label {
                return Err(format!("row {i}: label {l} vs reference {want_label}"));
            }
        }
        Ok(())
    }
}
