//! Compiled batch inference over fitted model trees.
//!
//! [`ModelTree::predict`] is an interpreter: every prediction chases
//! node pointers through an enum-tagged arena and, when Quinlan
//! smoothing is enabled, re-evaluates the linear model of **every
//! ancestor** on the root-to-leaf path. That is fine for one sample and
//! ruinous for the evaluation loops the paper pipeline runs — 10-fold
//! cross-validation, pruning sweeps, transferability assessments,
//! bootstrap confidence intervals, and the Table II/IV classification
//! passes all predict tens of thousands of samples per call.
//!
//! [`CompiledTree`] removes both costs at compile time:
//!
//! * **Flat structure-of-arrays layout, columnar partition descent.**
//!   Nodes are stored as parallel arrays (`feature`, `threshold`,
//!   `children`, `slot`) in the tree's interning order, so a scalar
//!   descent is a short loop over dense arrays with no enum matching.
//!   The batch kernels never descend per row at all: they recursively
//!   **partition** the chunk's row list through the tree, so each node
//!   is visited once per chunk with its tested column and threshold
//!   held in registers, every sweep streams the columnar cache, rows
//!   leave the recursion the moment they reach their leaf, and each
//!   leaf's folded model is then evaluated term-major over the leaf's
//!   row list — one coefficient against a contiguous run of rows at a
//!   time.
//!
//! * **Smoothing folded into the leaves.** Quinlan smoothing
//!   `p' = (n·p + k·q) / (n + k)` is a fixed convex combination of the
//!   path's linear models — the weights depend only on the per-node
//!   training counts, never on the sample. For the path
//!   `v_0 (root), v_1, …, v_d (leaf)` the smoothed prediction is
//!   `Σ_i w_i · m_i(x)` with
//!
//!   ```text
//!   w_d = Π_{j=1..d} n_j / (n_j + k)
//!   w_i = k / (n_{i+1} + k) · Π_{j=1..i} n_j / (n_j + k)   (i < d)
//!   ```
//!
//!   Because every `m_i` is linear, the whole combination collapses
//!   into **one effective linear model per leaf** whose intercept and
//!   coefficients are precomputed here. A smoothed prediction becomes a
//!   flat-array descent plus a single sparse dot product — identical in
//!   cost to an unsmoothed one.
//!
//! # Vectorized kernels
//!
//! The batch entry points run a **SIMD cache-blocked kernel** by
//! default (see [`crate::simd`] for the lane types and the
//! `SPECREPRO_NO_SIMD` / `SPECREPRO_BLOCK_ROWS` knobs): rows are
//! processed in blocks sized so one block's working set — the used
//! column windows, the `u32` block-local row lists, the partition
//! scratch, and the accumulator — stays L2-resident across the whole
//! descent. Within a block the partition step gathers lane-width
//! comparison masks, and each leaf's folded model runs term-major with
//! four-lane unfused multiply-adds. Block-local `u32` indices serve as
//! both gather subscript and output position, halving the partition
//! traffic of the scalar kernel's packed `u64` pairs.
//!
//! Every arithmetic step keeps the scalar kernel's association — terms
//! accumulate per row in ascending term order, products round before
//! they are added (no FMA contraction), and the intercept is added
//! last — so the f64 SIMD kernel is **bit-identical** to the scalar
//! oracle kernel, which is kept intact and selectable via
//! `SPECREPRO_NO_SIMD=1` or [`CompiledTree::with_simd`].
//!
//! An opt-in quantized fast path
//! ([`CompiledTree::with_precision`] with [`Precision::F32Fast`])
//! additionally casts thresholds, coefficients, and gathered inputs to
//! `f32`, doubling lane width and halving memory traffic; its per-leaf
//! rounding-error bound is derived analytically at quantization time
//! (see [`CompiledTree::f32_error_bound`]).
//!
//! The folded coefficients are mathematically exact; compiled and
//! interpreted predictions differ only by floating-point reassociation
//! and agree within `1e-10` on every sample (pinned by property tests).
//! [`CompiledTree::predict_batch`] is additionally **bit-identical**
//! for every thread count: each output element is a pure function of
//! its sample, so chunking only changes wall clock.

use std::sync::{Arc, OnceLock};

use crate::linreg::LinearModel;
use crate::simd::{self, F32x8, F64x4};
use crate::tree::{ModelTree, NodeKind};
use perfcounters::events::N_EVENTS;
use perfcounters::{ColumnStore, Dataset, EventId, Sample};
use serde::{Deserialize, Serialize};

/// Sentinel in [`CompiledTree::slot`] marking a split node.
const SPLIT: u32 = u32::MAX;

/// Rows per partition descent in the **scalar** oracle kernel. Each
/// descent level re-sweeps the block's packed row list, so the list,
/// its partition scratch, the leaf accumulator, and the touched column
/// stretches must stay cache-resident; a few thousand rows keeps that
/// working set around a hundred kilobytes while still amortizing the
/// per-node recursion to nothing. The SIMD kernel sizes its blocks at
/// runtime instead ([`simd::block_rows`]).
const BLOCK: usize = 4096;

/// Minimum rows a batch must supply per worker before the chunked
/// entry points spawn threads at all: below this, thread startup
/// dwarfs the kernel and the serial path is both faster and free of
/// dispatch overhead.
const MIN_ROWS_PER_THREAD: usize = 1024;

/// Numeric precision of the batch kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Precision {
    /// Full `f64` arithmetic, bit-identical to the scalar engine (the
    /// default).
    #[default]
    F64,
    /// Quantized `f32` fast path: thresholds, folded coefficients, and
    /// gathered inputs are cast to `f32`, doubling SIMD lane width and
    /// halving memory traffic. Predictions carry an analytically
    /// bounded rounding error ([`CompiledTree::f32_error_bound`]); a
    /// sample landing within `f32` rounding of a split threshold may
    /// descend to a different (adjacent) leaf than the `f64` engine.
    F32Fast,
}

/// A fitted [`ModelTree`] compiled for batch inference: flat
/// structure-of-arrays nodes plus one smoothing-folded linear model per
/// leaf.
///
/// Build one with [`ModelTree::compile`]. Compilation is cheap (linear
/// in the tree size) and the result is immutable, so it can be reused
/// across every prediction pass over a model.
///
/// # Examples
///
/// ```
/// use modeltree::{M5Config, ModelTree};
/// use perfcounters::{Dataset, EventId, Sample};
///
/// let mut ds = Dataset::new();
/// let b = ds.add_benchmark("toy");
/// for i in 0..200 {
///     let mut s = Sample::zeros(if i % 2 == 0 { 0.6 } else { 1.4 });
///     s.set(EventId::DtlbMiss, if i % 2 == 0 { 1e-4 } else { 3e-4 });
///     ds.push(s, b);
/// }
/// let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
/// let engine = tree.compile();
/// let batch = engine.predict_batch(&ds);
/// for (i, &p) in batch.iter().enumerate() {
///     assert!((p - tree.predict(&ds.sample(i))).abs() < 1e-10);
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledTree {
    /// Per node: the tested attribute's [`EventId::index`] (0 for
    /// leaves, whose lookup result never affects the descent).
    feature: Vec<u32>,
    /// Per node: the split threshold (`value <= threshold` goes left);
    /// unused (0) for leaves.
    threshold: Vec<f64>,
    /// Per node: the left and right child slots interleaved
    /// (`children[2·id]` left, `children[2·id + 1]` right). A split's
    /// left child is always `id + 1` because nodes are interned in
    /// pre-order; leaves loop back to themselves. Interleaving lets the
    /// batch descent select the child by *indexing* with the comparison
    /// result — the select cannot compile to a data-dependent branch.
    children: Vec<u32>,
    /// Per node: the leaf's slot in the leaf arrays, or [`SPLIT`].
    slot: Vec<u32>,
    /// Maximum root-to-leaf edge count — also the recursion depth of
    /// the batch partitioner.
    depth: u32,
    /// Per leaf slot: the 1-based linear-model number.
    lm_index: Vec<u32>,
    /// Per leaf slot: the folded model's intercept.
    intercept: Vec<f64>,
    /// All folded-model terms, flattened: leaf `l` owns
    /// `term_start[l] .. term_start[l + 1]`.
    term_feature: Vec<u32>,
    term_coef: Vec<f64>,
    /// Per leaf slot (length `n_leaves + 1`): offsets into the term
    /// arrays.
    term_start: Vec<u32>,
    /// Thread budget for batch entry points (1 = serial). Results are
    /// bit-identical for every value.
    n_threads: usize,
    /// SIMD kernel override: `Some(_)` forces the choice, `None`
    /// follows [`simd::simd_enabled`]. An execution hint like
    /// `n_threads`, but not serialized — a deserialized engine falls
    /// back to the environment default.
    #[serde(skip)]
    simd: Option<bool>,
    /// Cache-block row override for the SIMD kernels; `None` follows
    /// [`simd::block_rows`]. Not serialized (execution hint).
    #[serde(skip)]
    block_rows: Option<usize>,
    /// The `f32` fast path's quantized tables, present iff the engine
    /// was switched to [`Precision::F32Fast`]. Not serialized — the
    /// tables are derived data; re-apply [`CompiledTree::with_precision`]
    /// after deserializing.
    #[serde(skip)]
    quantized: Option<Quantized>,
    /// Lazily built, cached [`KernelPlan`]: the data-independent part
    /// of the per-call SIMD kernel (used-column set plus node/term slot
    /// resolution). Derived data, so not serialized and excluded from
    /// equality; a deserialized engine rebuilds it on first use.
    #[serde(skip)]
    plan: PlanCell,
}

impl CompiledTree {
    /// Compiles a fitted tree. Equivalent to [`ModelTree::compile`].
    pub fn new(tree: &ModelTree) -> CompiledTree {
        let _span = obskit::span("engine", "engine.compile");
        obskit::metrics::incr(obskit::metrics::Metric::EngineCompilations);
        let n_nodes = tree.n_nodes();
        let mut compiled = CompiledTree {
            feature: Vec::with_capacity(n_nodes),
            threshold: Vec::with_capacity(n_nodes),
            children: Vec::with_capacity(2 * n_nodes),
            slot: Vec::with_capacity(n_nodes),
            depth: 0,
            lm_index: Vec::new(),
            intercept: Vec::new(),
            term_feature: Vec::new(),
            term_coef: Vec::new(),
            term_start: vec![0],
            n_threads: tree.config().n_threads.max(1),
            simd: None,
            block_rows: None,
            quantized: None,
            plan: PlanCell::default(),
        };
        let k = if tree.config().smoothing {
            tree.config().smoothing_k
        } else {
            0.0
        };
        // Dense accumulator for one leaf's folded coefficients; the
        // sparse terms are extracted per leaf so a deep path with
        // overlapping ancestor models still folds to few terms.
        let mut dense = [0.0f64; N_EVENTS];
        let mut path: Vec<(f64, &LinearModel)> = Vec::new(); // (weight, model)
        {
            // The flatten pass is where Quinlan smoothing is actually
            // materialized, so it carries the M5' smoothing-stage span.
            let _fold = obskit::span("engine", "m5.smooth_fold");
            compiled.flatten(tree, tree.root(), 1.0, k, 0, &mut path, &mut dense);
        }
        debug_assert_eq!(compiled.feature.len(), n_nodes);
        obskit::metrics::gauge_max(
            obskit::metrics::Metric::EngineMaxDescentDepth,
            compiled.depth as u64,
        );
        compiled
    }

    /// Pre-order flattening. `weight` is the product
    /// `Π n_j / (n_j + k)` accumulated over the path *below the root*
    /// so far; `path` carries each ancestor's `(folded weight, model)`.
    #[allow(clippy::too_many_arguments)]
    fn flatten<'t>(
        &mut self,
        tree: &'t ModelTree,
        id: crate::tree::NodeId,
        weight: f64,
        k: f64,
        level: u32,
        path: &mut Vec<(f64, &'t LinearModel)>,
        dense: &mut [f64; N_EVENTS],
    ) {
        let node = tree.node(id);
        match *node.kind() {
            NodeKind::Split {
                event,
                threshold,
                left,
                right,
            } => {
                let slot = self.feature.len();
                self.feature.push(event.index() as u32);
                self.threshold.push(threshold);
                self.children.push(slot as u32 + 1);
                self.children.push(0); // patched after the left subtree
                self.slot.push(SPLIT);
                for &child in &[left, right] {
                    // Descending from this node to `child` multiplies
                    // every weight above by n_child / (n_child + k) and
                    // gives this node's own model the complementary
                    // k / (n_child + k) share.
                    let n_child = tree.node(child).n_samples() as f64;
                    let keep = n_child / (n_child + k);
                    let blend = k / (n_child + k);
                    path.push((weight * blend, node.model()));
                    if child == right {
                        self.children[2 * slot + 1] = self.feature.len() as u32;
                    }
                    self.flatten(tree, child, weight * keep, k, level + 1, path, dense);
                    path.pop();
                }
            }
            NodeKind::Leaf { lm_index } => {
                let id = self.feature.len() as u32;
                let leaf_slot = self.lm_index.len() as u32;
                self.feature.push(0);
                self.threshold.push(0.0);
                self.children.push(id);
                self.children.push(id);
                self.slot.push(leaf_slot);
                self.depth = self.depth.max(level);
                self.lm_index.push(lm_index as u32);

                // Fold the path: the leaf model carries the remaining
                // weight, each ancestor its recorded share. Weights sum
                // to 1 by construction.
                let mut intercept = weight * node.model().intercept();
                for (e, c) in node.model().terms() {
                    dense[e.index()] += weight * c;
                }
                for &(w, model) in path.iter() {
                    intercept += w * model.intercept();
                    for (e, c) in model.terms() {
                        dense[e.index()] += w * c;
                    }
                }
                self.intercept.push(intercept);
                for (e, slot) in dense.iter_mut().enumerate() {
                    if *slot != 0.0 {
                        self.term_feature.push(e as u32);
                        self.term_coef.push(*slot);
                        *slot = 0.0;
                    }
                }
                self.term_start.push(self.term_feature.len() as u32);
            }
        }
    }

    /// Number of flattened nodes (equal to the source tree's).
    pub fn n_nodes(&self) -> usize {
        self.feature.len()
    }

    /// Number of leaves (= folded linear models).
    pub fn n_leaves(&self) -> usize {
        self.lm_index.len()
    }

    /// The thread budget used by the batch entry points.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Returns the engine with a different batch thread budget (at
    /// least 1). Predictions are bit-identical for every value.
    #[must_use]
    pub fn with_n_threads(mut self, n_threads: usize) -> Self {
        self.n_threads = n_threads.max(1);
        self
    }

    /// Returns the engine with the vectorized batch kernels forced on
    /// or off, overriding the `SPECREPRO_NO_SIMD` environment default.
    /// The f64 SIMD kernel is bit-identical to the scalar kernel, so
    /// this only changes speed — it exists for A/B benchmarking and
    /// the testkit's differential axis.
    #[must_use]
    pub fn with_simd(mut self, enabled: bool) -> Self {
        self.simd = Some(enabled);
        self
    }

    /// Returns the engine with a fixed cache-block row count for the
    /// SIMD kernels (at least 1), overriding both the
    /// `SPECREPRO_BLOCK_ROWS` environment variable and the runtime
    /// cache probe. Results are identical for every value.
    #[must_use]
    pub fn with_block_rows(mut self, rows: usize) -> Self {
        self.block_rows = Some(rows.max(1));
        self
    }

    /// The engine's kernel plan, built on first use and cached.
    ///
    /// The batch entry points split each call's kernel into a
    /// **data-independent plan** — the deduplicated set of columns the
    /// tree touches plus every node's and folded term's slot in that
    /// set, `O(nodes + terms)` to build — and a **per-call view** that
    /// merely borrows the dataset's column slices for the planned
    /// events, `O(used columns)`. The plan depends only on the tree
    /// structure, which is immutable after compilation, so it is built
    /// once and shared by clones; for the repeated small batches a
    /// model server coalesces (1–64 rows), rebuilding it per call would
    /// dominate the kernel itself.
    fn kernel_plan(&self) -> Arc<KernelPlan> {
        Arc::clone(
            self.plan
                .0
                .get_or_init(|| Arc::new(KernelPlan::build(self))),
        )
    }

    /// Returns the engine switched to the given kernel precision.
    /// [`Precision::F32Fast`] builds the quantized tables and their
    /// per-leaf error bounds; [`Precision::F64`] drops them.
    #[must_use]
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.quantized = match precision {
            Precision::F64 => None,
            Precision::F32Fast => Some(Quantized::build(&self)),
        };
        self
    }

    /// The engine's current kernel precision.
    pub fn precision(&self) -> Precision {
        if self.quantized.is_some() {
            Precision::F32Fast
        } else {
            Precision::F64
        }
    }

    /// Whether the batch entry points will take the vectorized kernel:
    /// the per-engine override if set, the environment default
    /// otherwise.
    pub fn simd_active(&self) -> bool {
        self.simd.unwrap_or_else(simd::simd_enabled)
    }

    /// Analytic bound on `|predict_f32(s) − predict_f64(s)|` for a
    /// [`Precision::F32Fast`] engine, **valid whenever both precisions
    /// descend to the same leaf** (equivalently, when
    /// [`CompiledTree::classify`] agrees across precisions — they can
    /// disagree only when an attribute lies within `f32` rounding of a
    /// split threshold).
    ///
    /// For a leaf whose folded model has `k` terms the quantized
    /// evaluation performs, per term, one `f64→f32` input rounding, one
    /// coefficient rounding, one product rounding, and one accumulation
    /// rounding, plus the intercept rounding and final add — at most
    /// `k + 4` relative roundings of size `u` weighted against each
    /// `|c_i·x_i|` (standard running-error analysis, any summation
    /// order). With `γ_m = m·u / (1 − m·u)` the error is bounded by
    ///
    /// ```text
    /// |err| ≤ γ_{k+4} · (|b| + Σ_i |c_i|·|x_i|)
    /// ```
    ///
    /// Taking `u = f32::EPSILON` (twice the true unit roundoff) absorbs
    /// every constant. The per-leaf factors `γ_{k+4}` are computed and
    /// sanity-checked when [`CompiledTree::with_precision`] quantizes
    /// the tree; this method plugs in the sample's magnitudes.
    ///
    /// Returns `None` unless the engine is quantized.
    pub fn f32_error_bound(&self, sample: &Sample) -> Option<f64> {
        let q = self.quantized.as_ref()?;
        let densities = sample.densities();
        let slot = self.descend(|f| densities[f]);
        let range = self.term_start[slot] as usize..self.term_start[slot + 1] as usize;
        let mut magnitude = self.intercept[slot].abs();
        for t in range {
            magnitude += self.term_coef[t].abs() * densities[self.term_feature[t] as usize].abs();
        }
        Some(q.gamma[slot] * magnitude)
    }

    /// The smoothing-folded effective linear model of one leaf, by its
    /// 1-based linear-model number. With smoothing disabled this equals
    /// the leaf's fitted model; with smoothing enabled it is the full
    /// root-path blend collapsed into a single equation.
    ///
    /// Returns `None` for an out-of-range index.
    pub fn folded_model(&self, lm_index: usize) -> Option<LinearModel> {
        let slot = self.lm_index.iter().position(|&l| l as usize == lm_index)?;
        let range = self.term_start[slot] as usize..self.term_start[slot + 1] as usize;
        let terms = range
            .map(|t| {
                let event = EventId::from_index(self.term_feature[t] as usize)
                    .expect("compiled term features are valid event indices");
                (event, self.term_coef[t])
            })
            .collect();
        Some(LinearModel::new(self.intercept[slot], terms))
    }

    /// Descends the flat arrays for one feature-lookup closure,
    /// returning the reached leaf's slot.
    #[inline]
    fn descend(&self, lookup: impl Fn(usize) -> f64) -> usize {
        let mut id = 0usize;
        loop {
            let s = self.slot[id];
            if s != SPLIT {
                return s as usize;
            }
            let go = usize::from(lookup(self.feature[id] as usize) > self.threshold[id]);
            id = self.children[2 * id + go] as usize;
        }
    }

    /// [`CompiledTree::descend`] against the quantized `f32`
    /// thresholds.
    #[inline]
    fn descend32(&self, q: &Quantized, lookup: impl Fn(usize) -> f32) -> usize {
        let mut id = 0usize;
        loop {
            let s = self.slot[id];
            if s != SPLIT {
                return s as usize;
            }
            let go = usize::from(lookup(self.feature[id] as usize) > q.threshold[id]);
            id = self.children[2 * id + go] as usize;
        }
    }

    /// Branch-free partition of `pairs` by one split test, written into
    /// `scratch`: rows going left end up in `scratch[..nl]` in order,
    /// rows going right in `scratch[nl..]` reversed. Returns `nl`.
    ///
    /// Each row is written to *both* candidate slots and only the
    /// chosen cursor advances, so the loop carries no data-dependent
    /// branch for the predictor to miss. There is no copy-back: the
    /// recursion ping-pongs, descending into `scratch` with the spent
    /// `pairs` buffer as the next level's scratch. The reversed right
    /// half only flips traversal direction — each row's prediction is
    /// independent, so results are unaffected, and hardware prefetchers
    /// stream descending sweeps as well as ascending ones.
    #[inline]
    fn partition(kernel_node: &KernelNode<'_>, pairs: &[u64], scratch: &mut [u64]) -> usize {
        let n = pairs.len();
        let scratch = &mut scratch[..n];
        let mut l = 0usize;
        let mut r = n;
        for &p in pairs {
            let go = usize::from(kernel_node.col[(p >> 32) as usize] > kernel_node.threshold);
            scratch[l] = p;
            scratch[r - 1] = p;
            l += 1 - go;
            r -= go;
        }
        l
    }

    /// Partition-descends `pairs` (packed `row << 32 | out_pos`) from
    /// node `id` and writes each row's prediction to `out[out_pos]`.
    ///
    /// At a leaf the folded model runs **term-major**: each term's
    /// coefficient and column pointer stay in registers while the
    /// leaf's whole row list accumulates, so the per-(row, term) work
    /// is one monotone-order gather and one multiply-add into a
    /// sequential accumulator. Per row the terms still accumulate in
    /// ascending term order with the intercept added last — exactly the
    /// association of [`CompiledTree::dot`] — so batch and scalar
    /// predictions are bit-identical.
    fn predict_node(
        &self,
        kernel: &BatchKernel<'_>,
        id: usize,
        pairs: &mut [u64],
        scratch: &mut [u64],
        acc: &mut Vec<f64>,
        out: &mut [f64],
    ) {
        if pairs.is_empty() {
            return;
        }
        let s = self.slot[id];
        if s != SPLIT {
            let slot = s as usize;
            let range = self.term_start[slot] as usize..self.term_start[slot + 1] as usize;
            acc.clear();
            acc.resize(pairs.len(), 0.0);
            for t in &kernel.terms[range] {
                for (a, &p) in acc.iter_mut().zip(pairs.iter()) {
                    *a += t.coef * t.col[(p >> 32) as usize];
                }
            }
            let intercept = self.intercept[slot];
            for (&p, &a) in pairs.iter().zip(acc.iter()) {
                out[p as u32 as usize] = intercept + a;
            }
            return;
        }
        let nl = Self::partition(&kernel.nodes[id], pairs, scratch);
        // The buffers swap roles below, so the new row lists must be
        // sized exactly — scratch can be oversized on a partial block.
        let (sl, sr) = scratch[..pairs.len()].split_at_mut(nl);
        let (pl, pr) = pairs.split_at_mut(nl);
        self.predict_node(kernel, self.children[2 * id] as usize, sl, pl, acc, out);
        self.predict_node(kernel, self.children[2 * id + 1] as usize, sr, pr, acc, out);
    }

    /// Partition-descends `pairs` from node `id` and writes each row's
    /// 1-based linear-model number to `out[out_pos]`.
    fn classify_node(
        &self,
        kernel: &BatchKernel<'_>,
        id: usize,
        pairs: &mut [u64],
        scratch: &mut [u64],
        out: &mut [u32],
    ) {
        if pairs.is_empty() {
            return;
        }
        let s = self.slot[id];
        if s != SPLIT {
            let lm = self.lm_index[s as usize];
            for &p in pairs.iter() {
                out[p as u32 as usize] = lm;
            }
            return;
        }
        let nl = Self::partition(&kernel.nodes[id], pairs, scratch);
        let (sl, sr) = scratch[..pairs.len()].split_at_mut(nl);
        let (pl, pr) = pairs.split_at_mut(nl);
        self.classify_node(kernel, self.children[2 * id] as usize, sl, pl, out);
        self.classify_node(kernel, self.children[2 * id + 1] as usize, sr, pr, out);
    }

    /// Evaluates the folded model of `leaf_slot`. Terms are accumulated
    /// first and the intercept added last — the same association as
    /// [`LinearModel::predict`], so an unsmoothed compiled prediction is
    /// bit-identical to the interpreted leaf-model evaluation.
    #[inline]
    fn dot(&self, leaf_slot: usize, lookup: impl Fn(usize) -> f64) -> f64 {
        let range = self.term_start[leaf_slot] as usize..self.term_start[leaf_slot + 1] as usize;
        let coefs = &self.term_coef[range.clone()];
        let feats = &self.term_feature[range];
        let mut acc = 0.0;
        for (&c, &f) in coefs.iter().zip(feats) {
            acc += c * lookup(f as usize);
        }
        self.intercept[leaf_slot] + acc
    }

    /// [`CompiledTree::dot`] in quantized `f32` arithmetic — the same
    /// association as the batch `f32` kernel's per-row accumulation, so
    /// scalar and batch quantized predictions are bit-identical.
    #[inline]
    fn dot32(&self, q: &Quantized, leaf_slot: usize, lookup: impl Fn(usize) -> f32) -> f64 {
        let range = self.term_start[leaf_slot] as usize..self.term_start[leaf_slot + 1] as usize;
        let coefs = &q.term_coef[range.clone()];
        let feats = &self.term_feature[range];
        let mut acc = 0.0f32;
        for (&c, &f) in coefs.iter().zip(feats) {
            acc += c * lookup(f as usize);
        }
        f64::from(q.intercept[leaf_slot] + acc)
    }

    /// Predicts CPI for one sample (smoothing already folded in).
    pub fn predict(&self, sample: &Sample) -> f64 {
        let densities = sample.densities();
        if let Some(q) = &self.quantized {
            let leaf = self.descend32(q, |f| densities[f] as f32);
            return self.dot32(q, leaf, |f| densities[f] as f32);
        }
        let leaf = self.descend(|f| densities[f]);
        self.dot(leaf, |f| densities[f])
    }

    /// The 1-based linear-model number the sample classifies into
    /// (under the engine's precision — a quantized engine descends its
    /// `f32` thresholds, consistent with its predictions).
    pub fn classify(&self, sample: &Sample) -> usize {
        let densities = sample.densities();
        let slot = if let Some(q) = &self.quantized {
            self.descend32(q, |f| densities[f] as f32)
        } else {
            self.descend(|f| densities[f])
        };
        self.lm_index[slot] as usize
    }

    /// Predicts CPI for every sample of a dataset by partitioning row
    /// lists through the tree over the dataset's columnar cache.
    ///
    /// With a thread budget above 1 the rows are split into contiguous
    /// chunks processed on scoped worker threads; each element is a
    /// pure function of its sample, so the output is **bit-identical**
    /// for every thread count — and, on the default f64 path, for SIMD
    /// on and off.
    pub fn predict_batch(&self, data: &Dataset) -> Vec<f64> {
        let _span = obskit::span("engine", "engine.predict_batch");
        self.count_batch(data.len(), obskit::metrics::Metric::EngineRowsPredicted);
        let store = data.columns();
        let mut out = vec![0.0; data.len()];
        if let Some(q) = &self.quantized {
            let kernel = SimdKernel::new(self, store);
            self.for_each_chunk(&mut out, |slice, start| {
                self.predict_chunk_f32(q, &kernel, slice, Rows::Range { start });
            });
        } else if self.simd_active() {
            let kernel = SimdKernel::new(self, store);
            self.for_each_chunk(&mut out, |slice, start| {
                self.predict_chunk_simd(&kernel, slice, Rows::Range { start });
            });
        } else {
            let kernel = BatchKernel::new(self, store);
            self.for_each_chunk(&mut out, |slice, start| {
                self.predict_chunk(&kernel, slice, |j| start + j);
            });
        }
        out
    }

    /// Predicts CPI for the selected rows of a dataset (`indices` are
    /// row numbers into `data`), in `indices` order. Used by
    /// cross-validation to evaluate folds without materializing fold
    /// datasets.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn predict_indices(&self, data: &Dataset, indices: &[u32]) -> Vec<f64> {
        let _span = obskit::span("engine", "engine.predict_indices");
        self.count_batch(indices.len(), obskit::metrics::Metric::EngineRowsPredicted);
        let store = data.columns();
        let mut out = vec![0.0; indices.len()];
        if let Some(q) = &self.quantized {
            let kernel = SimdKernel::new(self, store);
            self.for_each_chunk(&mut out, |slice, start| {
                self.predict_chunk_f32(q, &kernel, slice, Rows::Indices(&indices[start..]));
            });
        } else if self.simd_active() {
            let kernel = SimdKernel::new(self, store);
            self.for_each_chunk(&mut out, |slice, start| {
                self.predict_chunk_simd(&kernel, slice, Rows::Indices(&indices[start..]));
            });
        } else {
            let kernel = BatchKernel::new(self, store);
            self.for_each_chunk(&mut out, |slice, start| {
                self.predict_chunk(&kernel, slice, |j| indices[start + j] as usize);
            });
        }
        out
    }

    /// Classifies every sample of a dataset into its 1-based
    /// linear-model number — the batch form of [`CompiledTree::classify`]
    /// behind the paper's Table II/IV profiles.
    pub fn classify_batch(&self, data: &Dataset) -> Vec<u32> {
        let _span = obskit::span("engine", "engine.classify_batch");
        self.count_batch(data.len(), obskit::metrics::Metric::EngineRowsClassified);
        let store = data.columns();
        let mut out = vec![0u32; data.len()];
        if let Some(q) = &self.quantized {
            let kernel = SimdKernel::new(self, store);
            self.for_each_chunk(&mut out, |slice, start| {
                self.classify_chunk_f32(q, &kernel, slice, Rows::Range { start });
            });
        } else if self.simd_active() {
            let kernel = SimdKernel::new(self, store);
            self.for_each_chunk(&mut out, |slice, start| {
                self.classify_chunk_simd(&kernel, slice, Rows::Range { start });
            });
        } else {
            let kernel = BatchKernel::new(self, store);
            self.for_each_chunk(&mut out, |slice, start| {
                let mut pairs = Vec::with_capacity(BLOCK.min(slice.len()));
                let mut scratch = vec![0u64; BLOCK.min(slice.len())];
                for (b, block) in slice.chunks_mut(BLOCK).enumerate() {
                    Self::pack_rows(&mut pairs, block.len(), |j| start + b * BLOCK + j);
                    self.classify_node(&kernel, 0, &mut pairs, &mut scratch, block);
                }
            });
        }
        out
    }

    /// Packed partition entries for one block: the dataset row in the
    /// high half (what the split tests and folded terms gather), the
    /// block-local output position in the low half (where the result
    /// lands, preserving `row_of` order).
    fn pack_rows(pairs: &mut Vec<u64>, len: usize, row_of: impl Fn(usize) -> usize) {
        pairs.clear();
        pairs.extend((0..len).map(|j| (row_of(j) as u64) << 32 | j as u64));
    }

    /// Fills `out` with predictions for the rows `row_of(0..out.len())`,
    /// one partition descent per [`BLOCK`]-sized stretch.
    fn predict_chunk(
        &self,
        kernel: &BatchKernel<'_>,
        out: &mut [f64],
        row_of: impl Fn(usize) -> usize,
    ) {
        let mut pairs = Vec::with_capacity(BLOCK.min(out.len()));
        let mut scratch = vec![0u64; BLOCK.min(out.len())];
        let mut acc = Vec::with_capacity(BLOCK.min(out.len()));
        for (b, block) in out.chunks_mut(BLOCK).enumerate() {
            Self::pack_rows(&mut pairs, block.len(), |j| row_of(b * BLOCK + j));
            self.predict_node(kernel, 0, &mut pairs, &mut scratch, &mut acc, block);
        }
    }

    /// The SIMD kernels' cache-block row count: the per-engine override
    /// if set, otherwise [`simd::block_rows`] sized to this tree's used
    /// columns (`bytes_per_value` is 8 for the f64 kernel, 4 for f32).
    fn effective_block_rows(&self, n_used: usize, bytes_per_value: usize) -> usize {
        self.block_rows.unwrap_or_else(|| {
            // Per row: the used column windows, two u32 index buffers,
            // the accumulator, and the output element.
            simd::block_rows(n_used * bytes_per_value + 24)
        })
    }

    /// Vectorized [`CompiledTree::predict_chunk`]: rows in cache-sized
    /// blocks, block-local `u32` row lists, lane-mask partitions, and
    /// four-lane unfused FMA at the leaves. Bit-identical to the scalar
    /// kernel (see the module docs).
    fn predict_chunk_simd(&self, kernel: &SimdKernel<'_>, out: &mut [f64], rows: Rows<'_>) {
        if out.is_empty() {
            return;
        }
        let cap = self
            .effective_block_rows(kernel.used.len(), 8)
            .min(out.len());
        let mut idx: Vec<u32> = Vec::with_capacity(cap);
        let mut scratch = vec![0u32; cap];
        let mut acc: Vec<f64> = Vec::with_capacity(cap);
        // Gathered structure-of-arrays scratch, only needed when the
        // rows are arbitrary indices; contiguous ranges borrow the
        // columns directly.
        let mut gathered: Vec<f64> = match rows {
            Rows::Range { .. } => Vec::new(),
            Rows::Indices(_) => vec![0.0; kernel.used.len() * cap],
        };
        for (b, block) in out.chunks_mut(cap).enumerate() {
            let b0 = b * cap;
            let len = block.len();
            idx.clear();
            idx.extend(0..len as u32);
            let views = block_views(&kernel.used, rows, b0, len, cap, &mut gathered);
            self.predict_node_simd(kernel, &views, 0, &mut idx, &mut scratch, &mut acc, block);
        }
    }

    /// Recursive partition descent of the f64 SIMD kernel over
    /// block-local `u32` row lists. `views` holds this block's window
    /// of every used column, so `views[slot][i]` is row `i`'s value and
    /// `out[i]` its output cell — one index serves gather and store.
    #[allow(clippy::too_many_arguments)]
    fn predict_node_simd(
        &self,
        kernel: &SimdKernel<'_>,
        views: &[&[f64]],
        id: usize,
        idx: &mut [u32],
        scratch: &mut [u32],
        acc: &mut Vec<f64>,
        out: &mut [f64],
    ) {
        if idx.is_empty() {
            return;
        }
        let s = self.slot[id];
        if s != SPLIT {
            self.eval_leaf_simd(kernel, views, s as usize, idx, acc, out);
            return;
        }
        let col = views[kernel.plan.node_slot[id] as usize];
        let nl = partition_lanes_f64(col, self.threshold[id], idx, scratch);
        let (sl, sr) = scratch[..idx.len()].split_at_mut(nl);
        let (il, ir) = idx.split_at_mut(nl);
        self.predict_node_simd(
            kernel,
            views,
            self.children[2 * id] as usize,
            sl,
            il,
            acc,
            out,
        );
        self.predict_node_simd(
            kernel,
            views,
            self.children[2 * id + 1] as usize,
            sr,
            ir,
            acc,
            out,
        );
    }

    /// Term-major vectorized evaluation of one leaf's folded model over
    /// its block-local row list. Per row the association is exactly the
    /// scalar kernel's — terms ascending, each product rounded before
    /// its add (unfused), intercept last — so results are bit-identical
    /// to [`CompiledTree::dot`].
    fn eval_leaf_simd(
        &self,
        kernel: &SimdKernel<'_>,
        views: &[&[f64]],
        slot: usize,
        idx: &[u32],
        acc: &mut Vec<f64>,
        out: &mut [f64],
    ) {
        let (start, end) = (
            self.term_start[slot] as usize,
            self.term_start[slot + 1] as usize,
        );
        let m = idx.len();
        let lanes = m - m % F64x4::LANES;
        acc.clear();
        acc.resize(m, 0.0);
        let intercept = self.intercept[slot];
        if start == end {
            for &i in idx {
                out[i as usize] = intercept;
            }
        }
        // Sweep up to four terms per pass over the rows so each
        // accumulator load/store and index conversion pays for several
        // gather-FMAs instead of one. The final sweep folds the
        // intercept add and output scatter in, sparing the accumulator
        // a last round-trip through memory.
        let mut t = start;
        while t < end {
            let k = (end - t).min(4);
            let last = (t + k == end).then_some((intercept, &mut *out));
            match k {
                1 => self.sweep_terms_f64::<1>(kernel, views, t, idx, acc, lanes, last),
                2 => self.sweep_terms_f64::<2>(kernel, views, t, idx, acc, lanes, last),
                3 => self.sweep_terms_f64::<3>(kernel, views, t, idx, acc, lanes, last),
                _ => self.sweep_terms_f64::<4>(kernel, views, t, idx, acc, lanes, last),
            }
            t += k;
        }
        obskit::metrics::add(obskit::metrics::Metric::EngineSimdRows, lanes as u64);
        obskit::metrics::add(
            obskit::metrics::Metric::EngineScalarTailRows,
            (m - lanes) as u64,
        );
    }

    /// One pass over a leaf's rows applying `K` consecutive terms. Per
    /// row the `K` products join the accumulator in ascending-term
    /// order, each rounded before its add (unfused [`F64x4::mul_add`])
    /// — exactly the scalar chain's association — so the unroll changes
    /// nothing bitwise. When `finish` carries the leaf's intercept the
    /// sweep is the model's last: instead of storing the accumulator it
    /// writes `intercept + acc` straight to the output rows, the same
    /// final add the scalar [`CompiledTree::dot`] performs.
    #[allow(clippy::too_many_arguments)]
    fn sweep_terms_f64<const K: usize>(
        &self,
        kernel: &SimdKernel<'_>,
        views: &[&[f64]],
        t0: usize,
        idx: &[u32],
        acc: &mut [f64],
        lanes: usize,
        finish: Option<(f64, &mut [f64])>,
    ) {
        let cols: [&[f64]; K] =
            std::array::from_fn(|k| views[kernel.plan.term_slot[t0 + k] as usize]);
        let coefs: [f64; K] = std::array::from_fn(|k| self.term_coef[t0 + k]);
        let splats: [F64x4; K] = std::array::from_fn(|k| F64x4::splat(coefs[k]));
        if let Some((intercept, out)) = finish {
            let b4 = F64x4::splat(intercept);
            let mut j = 0;
            while j < lanes {
                let g: [u32; 4] = idx[j..j + 4].try_into().expect("full lane");
                let mut a = F64x4::from_slice(&acc[j..]);
                for k in 0..K {
                    a = F64x4::gather(cols[k], &g).mul_add(splats[k], a);
                }
                let mut r = [0.0; 4];
                b4.add(a).write_to(&mut r);
                for k in 0..4 {
                    out[g[k] as usize] = r[k];
                }
                j += 4;
            }
            for (&i, a) in idx[lanes..].iter().zip(&mut acc[lanes..]) {
                for k in 0..K {
                    *a += coefs[k] * cols[k][i as usize];
                }
                out[i as usize] = intercept + *a;
            }
        } else {
            let mut j = 0;
            while j < lanes {
                let g: [u32; 4] = idx[j..j + 4].try_into().expect("full lane");
                let mut a = F64x4::from_slice(&acc[j..]);
                for k in 0..K {
                    a = F64x4::gather(cols[k], &g).mul_add(splats[k], a);
                }
                a.write_to(&mut acc[j..]);
                j += 4;
            }
            for (&i, a) in idx[lanes..].iter().zip(&mut acc[lanes..]) {
                for k in 0..K {
                    *a += coefs[k] * cols[k][i as usize];
                }
            }
        }
    }

    /// Vectorized classify: same lane-mask partition descent as
    /// [`CompiledTree::predict_chunk_simd`], leaf writes the model
    /// number.
    fn classify_chunk_simd(&self, kernel: &SimdKernel<'_>, out: &mut [u32], rows: Rows<'_>) {
        if out.is_empty() {
            return;
        }
        let cap = self
            .effective_block_rows(kernel.used.len(), 8)
            .min(out.len());
        let mut idx: Vec<u32> = Vec::with_capacity(cap);
        let mut scratch = vec![0u32; cap];
        // Classify is only entered with contiguous ranges, so the
        // gather buffer stays empty.
        let mut gathered: Vec<f64> = Vec::new();
        for (b, block) in out.chunks_mut(cap).enumerate() {
            let b0 = b * cap;
            let len = block.len();
            idx.clear();
            idx.extend(0..len as u32);
            let views = block_views(&kernel.used, rows, b0, len, cap, &mut gathered);
            self.classify_node_simd(kernel, &views, 0, &mut idx, &mut scratch, block);
        }
    }

    /// Recursive descent of the vectorized classifier.
    fn classify_node_simd(
        &self,
        kernel: &SimdKernel<'_>,
        views: &[&[f64]],
        id: usize,
        idx: &mut [u32],
        scratch: &mut [u32],
        out: &mut [u32],
    ) {
        if idx.is_empty() {
            return;
        }
        let s = self.slot[id];
        if s != SPLIT {
            let lm = self.lm_index[s as usize];
            for &i in idx.iter() {
                out[i as usize] = lm;
            }
            let lanes = idx.len() - idx.len() % 8;
            obskit::metrics::add(obskit::metrics::Metric::EngineSimdRows, lanes as u64);
            obskit::metrics::add(
                obskit::metrics::Metric::EngineScalarTailRows,
                (idx.len() - lanes) as u64,
            );
            return;
        }
        let col = views[kernel.plan.node_slot[id] as usize];
        let nl = partition_lanes_f64(col, self.threshold[id], idx, scratch);
        let (sl, sr) = scratch[..idx.len()].split_at_mut(nl);
        let (il, ir) = idx.split_at_mut(nl);
        self.classify_node_simd(kernel, views, self.children[2 * id] as usize, sl, il, out);
        self.classify_node_simd(
            kernel,
            views,
            self.children[2 * id + 1] as usize,
            sr,
            ir,
            out,
        );
    }

    /// The quantized `f32` fast path. The partition descent runs on the
    /// **original `f64` columns** against the precomputed `f64`-domain
    /// cut points of [`f32_cut_as_f64`] — exactly the comparisons the
    /// scalar [`CompiledTree::descend32`] makes after narrowing, with
    /// no conversion pass over the data — and leaf sweeps narrow
    /// in-register ([`F32x8::gather_narrow`]). Per-row association
    /// matches [`CompiledTree::dot32`] bitwise.
    fn predict_chunk_f32(
        &self,
        q: &Quantized,
        kernel: &SimdKernel<'_>,
        out: &mut [f64],
        rows: Rows<'_>,
    ) {
        if out.is_empty() {
            return;
        }
        let cap = self
            .effective_block_rows(kernel.used.len(), 8)
            .min(out.len());
        let mut idx: Vec<u32> = Vec::with_capacity(cap);
        let mut scratch = vec![0u32; cap];
        let mut acc: Vec<f32> = Vec::with_capacity(cap);
        let mut gathered: Vec<f64> = match rows {
            Rows::Range { .. } => Vec::new(),
            Rows::Indices(_) => vec![0.0; kernel.used.len() * cap],
        };
        for (b, block) in out.chunks_mut(cap).enumerate() {
            let b0 = b * cap;
            let len = block.len();
            idx.clear();
            idx.extend(0..len as u32);
            let views = block_views(&kernel.used, rows, b0, len, cap, &mut gathered);
            self.predict_node_f32(
                q,
                kernel,
                &views,
                0,
                &mut idx,
                &mut scratch,
                &mut acc,
                block,
            );
        }
    }

    /// Recursive partition descent of the `f32` kernel over the
    /// original `f64` columns.
    #[allow(clippy::too_many_arguments)]
    fn predict_node_f32(
        &self,
        q: &Quantized,
        kernel: &SimdKernel<'_>,
        views: &[&[f64]],
        id: usize,
        idx: &mut [u32],
        scratch: &mut [u32],
        acc: &mut Vec<f32>,
        out: &mut [f64],
    ) {
        if idx.is_empty() {
            return;
        }
        let s = self.slot[id];
        if s != SPLIT {
            self.eval_leaf_f32(q, kernel, views, s as usize, idx, acc, out);
            return;
        }
        let col = views[kernel.plan.node_slot[id] as usize];
        let nl = partition_lanes_f64(col, q.threshold64[id], idx, scratch);
        let (sl, sr) = scratch[..idx.len()].split_at_mut(nl);
        let (il, ir) = idx.split_at_mut(nl);
        self.predict_node_f32(
            q,
            kernel,
            views,
            self.children[2 * id] as usize,
            sl,
            il,
            acc,
            out,
        );
        self.predict_node_f32(
            q,
            kernel,
            views,
            self.children[2 * id + 1] as usize,
            sr,
            ir,
            acc,
            out,
        );
    }

    /// Eight-lane term-major evaluation of one leaf's quantized model,
    /// narrowing each gathered value to `f32` in-register.
    #[allow(clippy::too_many_arguments)]
    fn eval_leaf_f32(
        &self,
        q: &Quantized,
        kernel: &SimdKernel<'_>,
        views: &[&[f64]],
        slot: usize,
        idx: &[u32],
        acc: &mut Vec<f32>,
        out: &mut [f64],
    ) {
        let (start, end) = (
            self.term_start[slot] as usize,
            self.term_start[slot + 1] as usize,
        );
        let m = idx.len();
        let lanes = m - m % F32x8::LANES;
        acc.clear();
        acc.resize(m, 0.0);
        let intercept = q.intercept[slot];
        if start == end {
            for &i in idx {
                out[i as usize] = f64::from(intercept);
            }
        }
        let mut t = start;
        while t < end {
            let k = (end - t).min(4);
            let last = (t + k == end).then_some((intercept, &mut *out));
            match k {
                1 => self.sweep_terms_f32::<1>(q, kernel, views, t, idx, acc, lanes, last),
                2 => self.sweep_terms_f32::<2>(q, kernel, views, t, idx, acc, lanes, last),
                3 => self.sweep_terms_f32::<3>(q, kernel, views, t, idx, acc, lanes, last),
                _ => self.sweep_terms_f32::<4>(q, kernel, views, t, idx, acc, lanes, last),
            }
            t += k;
        }
        obskit::metrics::add(obskit::metrics::Metric::EngineSimdRows, lanes as u64);
        obskit::metrics::add(
            obskit::metrics::Metric::EngineScalarTailRows,
            (m - lanes) as u64,
        );
    }

    /// The `f32` counterpart of [`CompiledTree::sweep_terms_f64`]:
    /// ascending-term single-rounded `f32` adds, matching
    /// [`CompiledTree::dot32`]'s chain per row, with the final sweep
    /// widening `intercept + acc` to `f64` on its way to the output.
    #[allow(clippy::too_many_arguments)]
    fn sweep_terms_f32<const K: usize>(
        &self,
        q: &Quantized,
        kernel: &SimdKernel<'_>,
        views: &[&[f64]],
        t0: usize,
        idx: &[u32],
        acc: &mut [f32],
        lanes: usize,
        finish: Option<(f32, &mut [f64])>,
    ) {
        let cols: [&[f64]; K] =
            std::array::from_fn(|k| views[kernel.plan.term_slot[t0 + k] as usize]);
        let coefs: [f32; K] = std::array::from_fn(|k| q.term_coef[t0 + k]);
        let splats: [F32x8; K] = std::array::from_fn(|k| F32x8::splat(coefs[k]));
        if let Some((intercept, out)) = finish {
            let b8 = F32x8::splat(intercept);
            let mut j = 0;
            while j < lanes {
                let g: [u32; 8] = idx[j..j + 8].try_into().expect("full lane");
                let mut a = F32x8::from_slice(&acc[j..]);
                for k in 0..K {
                    a = F32x8::gather_narrow(cols[k], &g).mul_add(splats[k], a);
                }
                let mut r = [0.0f32; 8];
                b8.add(a).write_to(&mut r);
                for k in 0..8 {
                    out[g[k] as usize] = f64::from(r[k]);
                }
                j += 8;
            }
            for (&i, a) in idx[lanes..].iter().zip(&mut acc[lanes..]) {
                for k in 0..K {
                    *a += coefs[k] * (cols[k][i as usize] as f32);
                }
                out[i as usize] = f64::from(intercept + *a);
            }
        } else {
            let mut j = 0;
            while j < lanes {
                let g: [u32; 8] = idx[j..j + 8].try_into().expect("full lane");
                let mut a = F32x8::from_slice(&acc[j..]);
                for k in 0..K {
                    a = F32x8::gather_narrow(cols[k], &g).mul_add(splats[k], a);
                }
                a.write_to(&mut acc[j..]);
                j += 8;
            }
            for (&i, a) in idx[lanes..].iter().zip(&mut acc[lanes..]) {
                for k in 0..K {
                    *a += coefs[k] * (cols[k][i as usize] as f32);
                }
            }
        }
    }

    /// Quantized classify over whole datasets: the `f64`-domain cut
    /// points steer every row to the leaf its `f32` descent reaches.
    fn classify_chunk_f32(
        &self,
        q: &Quantized,
        kernel: &SimdKernel<'_>,
        out: &mut [u32],
        rows: Rows<'_>,
    ) {
        if out.is_empty() {
            return;
        }
        let cap = self
            .effective_block_rows(kernel.used.len(), 8)
            .min(out.len());
        let mut idx: Vec<u32> = Vec::with_capacity(cap);
        let mut scratch = vec![0u32; cap];
        let mut gathered: Vec<f64> = Vec::new();
        for (b, block) in out.chunks_mut(cap).enumerate() {
            let b0 = b * cap;
            let len = block.len();
            idx.clear();
            idx.extend(0..len as u32);
            let views = block_views(&kernel.used, rows, b0, len, cap, &mut gathered);
            self.classify_node_f32(q, kernel, &views, 0, &mut idx, &mut scratch, block);
        }
    }

    /// Recursive descent of the quantized classifier.
    #[allow(clippy::too_many_arguments)]
    fn classify_node_f32(
        &self,
        q: &Quantized,
        kernel: &SimdKernel<'_>,
        views: &[&[f64]],
        id: usize,
        idx: &mut [u32],
        scratch: &mut [u32],
        out: &mut [u32],
    ) {
        if idx.is_empty() {
            return;
        }
        let s = self.slot[id];
        if s != SPLIT {
            let lm = self.lm_index[s as usize];
            for &i in idx.iter() {
                out[i as usize] = lm;
            }
            return;
        }
        let col = views[kernel.plan.node_slot[id] as usize];
        let nl = partition_lanes_f64(col, q.threshold64[id], idx, scratch);
        let (sl, sr) = scratch[..idx.len()].split_at_mut(nl);
        let (il, ir) = idx.split_at_mut(nl);
        self.classify_node_f32(
            q,
            kernel,
            views,
            self.children[2 * id] as usize,
            sl,
            il,
            out,
        );
        self.classify_node_f32(
            q,
            kernel,
            views,
            self.children[2 * id + 1] as usize,
            sr,
            ir,
            out,
        );
    }

    /// Records one batch entry's telemetry: batch and block counts plus
    /// the row-count distribution and rows under `rows_metric`. Outside
    /// the row loops, so per-row cost is untouched.
    fn count_batch(&self, rows: usize, rows_metric: obskit::metrics::Metric) {
        use obskit::metrics::{add, incr, observe, Hist, Metric};
        incr(Metric::EngineBatches);
        add(Metric::EngineBlocks, rows.div_ceil(BLOCK) as u64);
        add(rows_metric, rows as u64);
        observe(Hist::EngineBatchRows, rows as u64);
    }

    /// Runs `body(chunk, chunk_start)` over `out` split into
    /// `n_threads` near-equal contiguous chunks, on scoped workers when
    /// the budget allows. Batches too small to give every worker at
    /// least [`MIN_ROWS_PER_THREAD`] rows shed workers, and a single
    /// worker falls straight through to the caller's thread — the
    /// serial path carries zero dispatch overhead.
    fn for_each_chunk<T: Send>(&self, out: &mut [T], body: impl Fn(&mut [T], usize) + Sync) {
        let threads = self
            .n_threads
            .max(1)
            .min(out.len().div_ceil(MIN_ROWS_PER_THREAD));
        if threads <= 1 {
            body(out, 0);
            return;
        }
        let chunk = out.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (t, slice) in out.chunks_mut(chunk).enumerate() {
                let body = &body;
                scope.spawn(move || body(slice, t * chunk));
            }
        });
    }
}

impl ModelTree {
    /// Compiles this tree into a [`CompiledTree`] batch-inference
    /// engine: flat node arrays plus one smoothing-folded linear model
    /// per leaf. See the [`compiled`](crate::compiled) module docs for
    /// the layout and folding algebra.
    pub fn compile(&self) -> CompiledTree {
        CompiledTree::new(self)
    }
}

/// Quantized `f32` tables of a [`Precision::F32Fast`] engine, aligned
/// with the f64 arrays they shadow, plus the per-leaf error-bound
/// factors derived when the tables are built.
#[derive(Debug, Clone, PartialEq)]
struct Quantized {
    /// Per node: `threshold as f32` — what the scalar `f32` descent
    /// compares against.
    threshold: Vec<f32>,
    /// Per node: the `f64`-domain cut point equivalent to the `f32`
    /// comparison ([`f32_cut_as_f64`]), letting the batch kernel
    /// partition the original `f64` columns directly — no `f32` copy
    /// of the data — while descending to exactly the leaf the scalar
    /// `f32` descent reaches.
    threshold64: Vec<f64>,
    /// Per leaf slot: `intercept as f32`.
    intercept: Vec<f32>,
    /// Per term: `term_coef as f32`.
    term_coef: Vec<f32>,
    /// Per leaf slot: the rounding-error factor `γ_{k+4}` of
    /// [`CompiledTree::f32_error_bound`].
    gamma: Vec<f64>,
}

impl Quantized {
    fn build(tree: &CompiledTree) -> Quantized {
        let u = f64::from(f32::EPSILON);
        let gamma = (0..tree.lm_index.len())
            .map(|slot| {
                let k = (tree.term_start[slot + 1] - tree.term_start[slot]) as f64;
                let mu = (k + 4.0) * u;
                let g = mu / (1.0 - mu);
                // With k ≤ N_EVENTS the factor is a few ULPs of f32 —
                // a violation means the tables are unusable, so check
                // at quantization time rather than per prediction.
                assert!(
                    g.is_finite() && g < 1e-4,
                    "f32 error-bound factor out of range for leaf {slot}: {g}"
                );
                g
            })
            .collect();
        let threshold: Vec<f32> = tree.threshold.iter().map(|&t| t as f32).collect();
        let threshold64 = threshold.iter().map(|&t| f32_cut_as_f64(t)).collect();
        Quantized {
            threshold,
            threshold64,
            intercept: tree.intercept.iter().map(|&b| b as f32).collect(),
            term_coef: tree.term_coef.iter().map(|&c| c as f32).collect(),
            gamma,
        }
    }
}

/// The next `f32` above `t` in `total_cmp` order (bit-increment on the
/// sign-magnitude representation; `t` must be finite).
fn next_up_f32(t: f32) -> f32 {
    let bits = t.to_bits();
    if t == 0.0 {
        f32::from_bits(1) // smallest positive subnormal, for ±0
    } else if bits >> 31 == 0 {
        f32::from_bits(bits + 1)
    } else {
        f32::from_bits(bits - 1)
    }
}

/// The next `f64` below `x` (`x` must be finite or `+∞`, not `−∞`).
fn next_down_f64(x: f64) -> f64 {
    if x == f64::INFINITY {
        return f64::MAX;
    }
    let bits = x.to_bits();
    if x == 0.0 {
        f64::from_bits(1 | (1 << 63)) // largest negative subnormal
    } else if bits >> 63 == 0 {
        f64::from_bits(bits - 1)
    } else {
        f64::from_bits(bits + 1)
    }
}

/// The largest `f64` cut point `T` such that for every `f64` value `x`
///
/// ```text
/// (x as f32) <= t   ⟺   x <= T
/// ```
///
/// so the quantized descent's `f32` comparison `x32 > t` is exactly the
/// `f64` comparison `x > T` — the batch kernel never has to narrow the
/// data columns. `T` is the last `f64` that still rounds (to nearest,
/// ties to even) to at most `t`: the midpoint `m` between `t` and the
/// next `f32` up is exactly representable in `f64`, belongs to the
/// left side iff it rounds down (checked by performing the rounding),
/// and everything strictly between `t` and `m` rounds to `t`. NaN
/// behavior matches too: a NaN fails both `>` comparisons.
fn f32_cut_as_f64(t: f32) -> f64 {
    debug_assert!(t.is_finite(), "split thresholds are finite");
    let up = next_up_f32(t);
    if up.is_finite() {
        let mid = 0.5 * (f64::from(t) + f64::from(up));
        if (mid as f32) <= t {
            mid
        } else {
            next_down_f64(mid)
        }
    } else {
        // t = f32::MAX: values from 2^128 − 2^103 upward round to +∞.
        next_down_f64((2.0f64).powi(128) - (2.0f64).powi(103))
    }
}

/// Which rows a chunk covers: a contiguous dataset range (column
/// windows borrow straight from the column store) or an arbitrary index
/// list (columns are gathered per block).
#[derive(Clone, Copy)]
enum Rows<'r> {
    /// Chunk row `j` is dataset row `start + j`.
    Range { start: usize },
    /// Chunk row `j` is dataset row `indices[j]` (already offset to the
    /// chunk).
    Indices(&'r [u32]),
}

/// One block's window of every used column: zero-copy sub-slices of
/// the column store for contiguous ranges, a refreshed gather into
/// `gathered` (stride `cap` per column) for arbitrary index lists. The
/// returned views borrow `gathered`, so it is re-borrowed per block.
fn block_views<'g>(
    used: &[&'g [f64]],
    rows: Rows<'_>,
    b0: usize,
    len: usize,
    cap: usize,
    gathered: &'g mut [f64],
) -> Vec<&'g [f64]> {
    match rows {
        Rows::Range { start } => used
            .iter()
            .map(|&col| &col[start + b0..start + b0 + len])
            .collect(),
        Rows::Indices(indices) => {
            let sel = &indices[b0..b0 + len];
            for (u, &col) in used.iter().enumerate() {
                let dst = &mut gathered[u * cap..u * cap + len];
                for (d, &i) in dst.iter_mut().zip(sel) {
                    *d = col[i as usize];
                }
            }
            let gathered: &'g [f64] = gathered;
            (0..used.len())
                .map(|u| &gathered[u * cap..u * cap + len])
                .collect()
        }
    }
}

/// Lane-mask partition of `idx` by `col[i] > threshold`, written into
/// `scratch` exactly like [`CompiledTree::partition`] (left prefix in
/// order, right suffix reversed; returns the left count). The
/// comparisons run lane-width — eight rows gather into two [`F64x4`]s
/// and emit one eight-wide mask — and only the cursor advance is
/// scalar, which is branchless either way.
#[inline]
fn partition_lanes_f64(col: &[f64], threshold: f64, idx: &[u32], scratch: &mut [u32]) -> usize {
    let n = idx.len();
    let scratch = &mut scratch[..n];
    let mut l = 0usize;
    let mut r = n;
    let t4 = F64x4::splat(threshold);
    let mut chunks = idx.chunks_exact(8);
    for ch in &mut chunks {
        let lo: [u32; 4] = ch[..4].try_into().expect("full lane");
        let hi: [u32; 4] = ch[4..].try_into().expect("full lane");
        let ma = F64x4::gather(col, &lo).gt(t4);
        let mb = F64x4::gather(col, &hi).gt(t4);
        let mut mask = [false; 8];
        mask[..4].copy_from_slice(&ma);
        mask[4..].copy_from_slice(&mb);
        for (k, &i) in ch.iter().enumerate() {
            scratch[l] = i;
            scratch[r - 1] = i;
            let go = usize::from(mask[k]);
            l += 1 - go;
            r -= go;
        }
    }
    for &i in chunks.remainder() {
        let go = usize::from(col[i as usize] > threshold);
        scratch[l] = i;
        scratch[r - 1] = i;
        l += 1 - go;
        r -= go;
    }
    l
}

/// One node's split data in the shape the kernels want: the tested
/// column already resolved to a slice, plus the threshold. The
/// partitioner hoists both out of its row sweep.
#[derive(Clone, Copy)]
struct KernelNode<'a> {
    /// The tested attribute's column (leaves point at column 0, whose
    /// lookup result never affects the descent).
    col: &'a [f64],
    threshold: f64,
}

/// One folded-model term: coefficient and its resolved column.
#[derive(Clone, Copy)]
struct KernelTerm<'a> {
    col: &'a [f64],
    coef: f64,
}

/// Per-call inference kernel: the tree's nodes and folded terms
/// re-resolved against one dataset's borrowed event columns, so the hot
/// loops index straight into column slices instead of going
/// `feature id → column table → column`. Building it is linear in the
/// tree size — trivial next to any batch — and keeps the serialized
/// [`CompiledTree`] free of borrowed data.
struct BatchKernel<'a> {
    nodes: Vec<KernelNode<'a>>,
    /// Aligned with the tree's flattened term arrays: leaf `l` owns
    /// `term_start[l] .. term_start[l + 1]`.
    terms: Vec<KernelTerm<'a>>,
}

impl<'a> BatchKernel<'a> {
    fn new(tree: &CompiledTree, store: &'a ColumnStore) -> BatchKernel<'a> {
        let events: Vec<&[f64]> = EventId::ALL.iter().map(|&e| store.event(e)).collect();
        BatchKernel {
            nodes: (0..tree.n_nodes())
                .map(|n| KernelNode {
                    col: events[tree.feature[n] as usize],
                    threshold: tree.threshold[n],
                })
                .collect(),
            terms: tree
                .term_feature
                .iter()
                .zip(&tree.term_coef)
                .map(|(&f, &coef)| KernelTerm {
                    col: events[f as usize],
                    coef,
                })
                .collect(),
        }
    }
}

/// The data-independent half of the SIMD kernel: which columns the tree
/// actually touches (typically far fewer than `N_EVENTS`), deduplicated,
/// with every node and folded term resolved to an index into that small
/// set. The plan depends only on the immutable compiled tree, so it is
/// built once per engine and cached ([`CompiledTree::kernel_plan`]);
/// a per-call [`SimdKernel`] then only borrows one dataset's slices for
/// the planned events.
#[derive(Debug)]
struct KernelPlan {
    /// Deduplicated events touched by any split test or folded term, in
    /// first-touch order.
    used_events: Vec<EventId>,
    /// Per node: index into `used_events` of the tested column (0 for
    /// leaves; never read there).
    node_slot: Vec<u32>,
    /// Per folded term: index into `used_events`.
    term_slot: Vec<u32>,
}

impl KernelPlan {
    fn build(tree: &CompiledTree) -> KernelPlan {
        let mut index_of = [u32::MAX; N_EVENTS];
        let mut used_events: Vec<EventId> = Vec::new();
        let mut resolve = |feature: u32, used: &mut Vec<EventId>| {
            let f = feature as usize;
            if index_of[f] == u32::MAX {
                index_of[f] = used.len() as u32;
                let event = EventId::from_index(f).expect("compiled features are valid events");
                used.push(event);
            }
            index_of[f]
        };
        let node_slot = (0..tree.n_nodes())
            .map(|n| {
                if tree.slot[n] == SPLIT {
                    resolve(tree.feature[n], &mut used_events)
                } else {
                    0
                }
            })
            .collect();
        let term_slot = tree
            .term_feature
            .iter()
            .map(|&f| resolve(f, &mut used_events))
            .collect();
        KernelPlan {
            used_events,
            node_slot,
            term_slot,
        }
    }
}

/// The cached [`KernelPlan`] slot on a [`CompiledTree`]. Derived data:
/// clones share the already-built plan (an `Arc` bump), equality ignores
/// it, and serde skips it entirely.
#[derive(Debug, Default)]
struct PlanCell(OnceLock<Arc<KernelPlan>>);

impl Clone for PlanCell {
    fn clone(&self) -> Self {
        let cell = OnceLock::new();
        if let Some(plan) = self.0.get() {
            let _ = cell.set(Arc::clone(plan));
        }
        PlanCell(cell)
    }
}

impl PartialEq for PlanCell {
    fn eq(&self, _: &Self) -> bool {
        true // cache state is not part of an engine's identity
    }
}

/// The SIMD kernels' per-call view of a tree over one dataset: the
/// cached [`KernelPlan`] plus the dataset's borrowed column slices for
/// the planned events. Blocks then materialize one window per used
/// column and the descent indexes `views[slot]` directly. Building it is
/// `O(used columns)` — trivial even for single-row batches.
struct SimdKernel<'a> {
    /// Column slices for [`KernelPlan::used_events`], same order.
    used: Vec<&'a [f64]>,
    plan: Arc<KernelPlan>,
}

impl<'a> SimdKernel<'a> {
    fn new(tree: &CompiledTree, store: &'a ColumnStore) -> SimdKernel<'a> {
        let plan = tree.kernel_plan();
        let used = plan.used_events.iter().map(|&e| store.event(e)).collect();
        SimdKernel { used, plan }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::M5Config;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    fn compiled_matches_interpreted_smoothed() {
        let ds = regime_dataset(2000, 1);
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        let engine = tree.compile();
        assert_eq!(engine.n_nodes(), tree.n_nodes());
        assert_eq!(engine.n_leaves(), tree.n_leaves());
        for i in 0..ds.len() {
            let s = ds.sample(i);
            let a = tree.predict(&s);
            let b = engine.predict(&s);
            assert!((a - b).abs() < 1e-10, "sample {i}: {a} vs {b}");
        }
    }

    #[test]
    fn compiled_matches_interpreted_unsmoothed() {
        let ds = regime_dataset(1500, 2);
        let tree = ModelTree::fit(&ds, &M5Config::default().with_smoothing(false)).unwrap();
        let engine = tree.compile();
        for i in 0..ds.len() {
            let s = ds.sample(i);
            // Without smoothing the folded model IS the leaf model:
            // identical arithmetic, hence identical bits.
            assert_eq!(tree.predict(&s).to_bits(), engine.predict(&s).to_bits());
        }
    }

    #[test]
    fn classify_matches_interpreted() {
        let ds = regime_dataset(1200, 3);
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        let engine = tree.compile();
        let batch = engine.classify_batch(&ds);
        for (i, &lm) in batch.iter().enumerate() {
            let s = ds.sample(i);
            assert_eq!(engine.classify(&s), tree.classify(&s));
            assert_eq!(lm as usize, tree.classify(&s));
        }
    }

    #[test]
    fn batch_matches_per_sample_bitwise() {
        let ds = regime_dataset(999, 4);
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        let engine = tree.compile();
        let batch = engine.predict_batch(&ds);
        for (i, &p) in batch.iter().enumerate() {
            assert_eq!(p.to_bits(), engine.predict(&ds.sample(i)).to_bits());
        }
    }

    #[test]
    fn batch_bit_identical_across_thread_counts() {
        let ds = regime_dataset(2500, 5);
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        let serial = tree.compile().with_n_threads(1).predict_batch(&ds);
        for threads in [2, 3, 8] {
            let parallel = tree.compile().with_n_threads(threads).predict_batch(&ds);
            for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "thread count {threads}, row {i}");
            }
        }
    }

    #[test]
    fn simd_batch_bit_identical_to_scalar_batch() {
        // The tentpole determinism contract: the SIMD kernel is not an
        // approximation — predict, predict_indices, and classify agree
        // with the scalar oracle kernel bit for bit, across awkward
        // lengths that exercise lane tails.
        for n in [1usize, 2, 3, 5, 7, 9, 63, 64, 65, 999, 4097] {
            let ds = regime_dataset(n, 40 + n as u64);
            let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
            let scalar = tree.compile().with_simd(false);
            let simd = tree.compile().with_simd(true);
            let a = scalar.predict_batch(&ds);
            let b = simd.predict_batch(&ds);
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "n={n} row {i}");
            }
            assert_eq!(
                scalar.classify_batch(&ds),
                simd.classify_batch(&ds),
                "n={n}"
            );
            let indices: Vec<u32> = (0..ds.len() as u32).rev().step_by(3).collect();
            let ai = scalar.predict_indices(&ds, &indices);
            let bi = simd.predict_indices(&ds, &indices);
            for (i, (x, y)) in ai.iter().zip(&bi).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "n={n} index row {i}");
            }
        }
    }

    #[test]
    fn simd_block_sizes_do_not_change_results() {
        // Tiny, odd, and huge blocks (empty trailing blocks, single-row
        // blocks, one-block batches) all partition identically.
        let ds = regime_dataset(1000, 41);
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        let baseline = tree.compile().with_simd(true).predict_batch(&ds);
        for rows in [1usize, 3, 8, 10, 100, 999, 1000, 1 << 16] {
            let engine = tree.compile().with_simd(true).with_block_rows(rows);
            let got = engine.predict_batch(&ds);
            for (i, (x, y)) in baseline.iter().zip(&got).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "block_rows={rows} row {i}");
            }
        }
    }

    #[test]
    fn f32_fast_path_predicts_within_published_bound() {
        let ds = regime_dataset(3000, 42);
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        let exact = tree.compile();
        let fast = tree.compile().with_precision(Precision::F32Fast);
        assert_eq!(fast.precision(), Precision::F32Fast);
        assert_eq!(exact.precision(), Precision::F64);
        let p64 = exact.predict_batch(&ds);
        let p32 = fast.predict_batch(&ds);
        let mut checked = 0usize;
        for i in 0..ds.len() {
            let s = ds.sample(i);
            // The analytic bound covers samples that descend to the
            // same leaf; threshold-proximal rows may legitimately land
            // in an adjacent leaf (none do on this dataset's scale).
            if exact.classify(&s) == fast.classify(&s) {
                let bound = fast.f32_error_bound(&s).unwrap();
                let err = (p64[i] - p32[i]).abs();
                assert!(err <= bound, "row {i}: err {err} > bound {bound}");
                checked += 1;
            }
        }
        assert!(
            checked > ds.len() * 9 / 10,
            "only {checked} rows comparable"
        );
        assert!(exact.f32_error_bound(&ds.sample(0)).is_none());
    }

    #[test]
    fn f32_batch_matches_f32_scalar_bitwise() {
        let ds = regime_dataset(777, 43);
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        let fast = tree.compile().with_precision(Precision::F32Fast);
        let batch = fast.predict_batch(&ds);
        let classes = fast.classify_batch(&ds);
        for i in 0..ds.len() {
            let s = ds.sample(i);
            assert_eq!(batch[i].to_bits(), fast.predict(&s).to_bits(), "row {i}");
            assert_eq!(classes[i] as usize, fast.classify(&s), "row {i}");
        }
        let indices: Vec<u32> = (0..ds.len() as u32).step_by(5).collect();
        let sel = fast.predict_indices(&ds, &indices);
        for (j, &i) in indices.iter().enumerate() {
            assert_eq!(sel[j].to_bits(), batch[i as usize].to_bits());
        }
        // Round-tripping back to f64 drops the tables again.
        let back = fast.with_precision(Precision::F64);
        assert_eq!(back.precision(), Precision::F64);
        assert_eq!(
            back.predict_batch(&ds)[0].to_bits(),
            tree.compile().predict_batch(&ds)[0].to_bits()
        );
    }

    #[test]
    fn predict_indices_selects_rows() {
        let ds = regime_dataset(500, 6);
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        let engine = tree.compile();
        let indices: Vec<u32> = (0..ds.len() as u32).rev().step_by(7).collect();
        let subset = engine.predict_indices(&ds, &indices);
        assert_eq!(subset.len(), indices.len());
        for (j, &i) in indices.iter().enumerate() {
            assert_eq!(
                subset[j].to_bits(),
                engine.predict(&ds.sample(i as usize)).to_bits()
            );
        }
    }

    #[test]
    fn single_leaf_tree_compiles() {
        let ds = regime_dataset(5, 7);
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        assert_eq!(tree.n_leaves(), 1);
        let engine = tree.compile();
        assert_eq!(engine.n_nodes(), 1);
        let s = ds.sample(0);
        assert_eq!(engine.predict(&s).to_bits(), tree.predict(&s).to_bits());
        assert_eq!(engine.classify(&s), 1);
        // The SIMD kernels handle a splitless tree (no used columns)
        // and a single-row dataset.
        let simd = tree.compile().with_simd(true);
        assert_eq!(
            simd.predict_batch(&ds)[0].to_bits(),
            engine.with_simd(false).predict_batch(&ds)[0].to_bits()
        );
        let fast = tree.compile().with_precision(Precision::F32Fast);
        assert_eq!(fast.predict_batch(&ds).len(), ds.len());
    }

    #[test]
    fn folded_model_weights_sum_to_one() {
        // On a constant-CPI dataset every node model predicts the same
        // constant, so any convex combination must too: the folded
        // intercepts all equal the constant and the terms vanish.
        let mut ds = Dataset::new();
        let b = ds.add_benchmark("flat");
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..400 {
            let mut s = Sample::zeros(1.5);
            s.set(EventId::Load, rng.gen());
            ds.push(s, b);
        }
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        let engine = tree.compile();
        for lm in 1..=engine.n_leaves() {
            let model = engine.folded_model(lm).unwrap();
            assert!((model.intercept() - 1.5).abs() < 1e-9, "{model}");
        }
        assert!(engine.folded_model(0).is_none());
        assert!(engine.folded_model(engine.n_leaves() + 1).is_none());
    }

    #[test]
    fn folded_model_matches_predictions() {
        let ds = regime_dataset(1500, 9);
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        let engine = tree.compile();
        for i in (0..ds.len()).step_by(97) {
            let s = ds.sample(i);
            let lm = engine.classify(&s);
            let model = engine.folded_model(lm).unwrap();
            assert!((model.predict(&s) - engine.predict(&s)).abs() < 1e-12);
        }
    }

    #[test]
    fn serde_roundtrip() {
        let ds = regime_dataset(600, 10);
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        let engine = tree.compile();
        let json = serde_json::to_string(&engine).unwrap();
        let back: CompiledTree = serde_json::from_str(&json).unwrap();
        assert_eq!(back, engine);
        // Execution hints and quantized tables are derived data and do
        // not survive serialization; re-applying with_precision after a
        // load rebuilds identical tables.
        let fast = engine.clone().with_precision(Precision::F32Fast);
        let rebuilt = serde_json::from_str::<CompiledTree>(&serde_json::to_string(&fast).unwrap())
            .unwrap()
            .with_precision(Precision::F32Fast);
        assert_eq!(rebuilt, fast);
    }

    #[test]
    fn f32_cut_matches_narrowed_comparison() {
        let next_up_f64 = |x: f64| f64::from_bits(x.to_bits() + 1);
        // xorshift64 for reproducible probe values without rand setup.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut thresholds = vec![
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            1.5,
            0.1,
            2e-4,
            f32::MAX,
            -f32::MAX,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1), // smallest subnormal
        ];
        for _ in 0..500 {
            let t = f32::from_bits((next() as u32) & 0x7fff_ffff);
            if t.is_finite() {
                thresholds.push(t);
                thresholds.push(-t);
            }
        }
        for &t in &thresholds {
            let cut = f32_cut_as_f64(t);
            // The boundary itself, its immediate f64 neighbors, the
            // threshold, and random wider probes must all agree:
            // (x as f32) > t  ⟺  x > cut.
            let mut probes = vec![
                cut,
                next_up_f64(cut),
                next_down_f64(cut),
                f64::from(t),
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ];
            for _ in 0..64 {
                let x = f64::from_bits(next());
                if !x.is_nan() {
                    probes.push(x);
                }
            }
            for x in probes {
                assert_eq!(
                    (x as f32) > t,
                    x > cut,
                    "t={t:?} ({:#010x}) cut={cut:?} x={x:?} ({:#018x})",
                    t.to_bits(),
                    x.to_bits()
                );
            }
        }
    }

    #[test]
    fn empty_dataset_batch() {
        let ds = regime_dataset(50, 11);
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        let engine = tree.compile();
        assert!(engine.predict_batch(&Dataset::new()).is_empty());
        assert!(engine.predict_indices(&ds, &[]).is_empty());
        assert!(engine.classify_batch(&Dataset::new()).is_empty());
        let fast = tree.compile().with_precision(Precision::F32Fast);
        assert!(fast.predict_batch(&Dataset::new()).is_empty());
        assert!(fast.predict_indices(&ds, &[]).is_empty());
    }

    #[test]
    fn plan_caching_is_bit_identical_and_sticky() {
        let ds = regime_dataset(800, 12);
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        let cached = tree.compile().with_simd(true);

        // Repeated small batches (the serve coalescer's shape) must be
        // bit-identical across repeated calls of the same engine.
        let reference = cached.predict_batch(&ds);
        let classes = cached.classify_batch(&ds);
        for _ in 0..3 {
            let a = cached.predict_batch(&ds);
            for (r, x) in reference.iter().zip(&a) {
                assert_eq!(r.to_bits(), x.to_bits());
            }
            assert_eq!(cached.classify_batch(&ds), classes);
        }

        // The cache survives (and is shared by) clones: the clone's
        // cell holds the same Arc the original built.
        let built = cached.kernel_plan();
        let cloned = cached.clone();
        assert!(Arc::ptr_eq(&built, &cloned.kernel_plan()));
    }

    #[test]
    fn plan_survives_serde_round_trip() {
        let ds = regime_dataset(400, 13);
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        let engine = tree.compile().with_simd(true);
        let json = serde_json::to_string(&engine).unwrap();
        let back: CompiledTree = serde_json::from_str(&json).unwrap();
        // serde skips the cache cell; the deserialized engine rebuilds
        // an equivalent plan lazily.
        let expect = engine.predict_batch(&ds);
        let got = back.with_simd(true).predict_batch(&ds);
        for (a, b) in expect.iter().zip(&got) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
