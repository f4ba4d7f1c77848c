//! Compiled batch inference over fitted model trees.
//!
//! [`CompiledTree`] is the only way to predict with a fitted
//! [`ModelTree`]. A naive walk would chase node pointers through an
//! enum-tagged arena and, with Quinlan smoothing enabled, re-evaluate
//! the linear model of **every ancestor** on the root-to-leaf path;
//! the evaluation loops the paper pipeline runs — 10-fold
//! cross-validation, pruning sweeps, transferability assessments,
//! bootstrap confidence intervals, and the Table II/IV classification
//! passes — predict tens of thousands of samples per call.
//!
//! The engine removes both costs at compile time:
//!
//! * **Flat structure-of-arrays layout, columnar partition descent.**
//!   Nodes are stored as parallel arrays (`feature`, `threshold`,
//!   `children`, `slot`) in the tree's interning order, so a scalar
//!   descent is a short loop over dense arrays with no enum matching.
//!   The batch kernel never descends per row at all: it recursively
//!   **partitions** each block's row list through the tree, so each node
//!   is visited once per block with its tested column and threshold
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
//! # Vectorized kernel
//!
//! Every batch entry point runs one **SIMD cache-blocked kernel** (see
//! [`crate::simd`] for the lane types and the block-size probe): rows
//! are processed in blocks sized so one block's working set — the used
//! column windows, the `u32` block-local row lists, the partition
//! scratch, and the accumulator — stays L2-resident across the whole
//! descent. Within a block the partition step gathers lane-width
//! comparison masks, and each leaf's folded model runs term-major with
//! four-lane unfused multiply-adds. Block-local `u32` indices serve as
//! both gather subscript and output position.
//!
//! Every arithmetic step keeps the association of the per-row
//! [`CompiledTree::predict`] — terms accumulate per row in ascending
//! term order, products round before they are added (no FMA
//! contraction), and the intercept is added last — so the batch kernel
//! is **bit-identical** to the per-row path, which is its oracle:
//! [`CompiledTree::predict`] and [`CompiledTree::classify`] are what
//! the tests compare every batch output against, bit for bit.
//!
//! The folded coefficients are mathematically exact. They differ from
//! the textbook leaf-to-root walk only by floating-point reassociation:
//! testkit's reference oracle pins the engine within `1e-10` with
//! smoothing and bit for bit without it. [`CompiledTree::predict_batch`]
//! is additionally **bit-identical** for every thread count: each
//! output element is a pure function of its sample, so chunking only
//! changes wall clock.

use std::sync::{Arc, OnceLock};

use crate::linreg::LinearModel;
use crate::simd::{self, F64x4};
use crate::tree::{ModelTree, NodeKind};
use perfcounters::events::N_EVENTS;
use perfcounters::{ColumnStore, Dataset, EventId, Sample};

/// Sentinel in [`CompiledTree::slot`] marking a split node.
const SPLIT: u32 = u32::MAX;

/// Minimum rows a batch must supply per worker before the chunked
/// entry points spawn threads at all: below this, thread startup
/// dwarfs the kernel and the serial path is both faster and free of
/// dispatch overhead.
const MIN_ROWS_PER_THREAD: usize = 1024;

/// A fitted [`ModelTree`] compiled for batch inference: flat
/// structure-of-arrays nodes plus one smoothing-folded linear model per
/// leaf.
///
/// Build one with [`ModelTree::compile`]. Compilation is cheap (linear
/// in the tree size) and the result is immutable, so it can be reused
/// across every prediction pass over a model. An engine is never
/// serialized: trees travel as [`ModelTree`] JSON and are compiled on
/// load, so every node feature is an [`EventId::index`] by
/// construction.
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
///     assert_eq!(p.to_bits(), engine.predict(&ds.sample(i)).to_bits());
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
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
    /// Cache-block row override for the batch kernel; `None` follows
    /// [`simd::block_rows`]. An execution hint like `n_threads`.
    block_rows: Option<usize>,
    /// Lazily built, cached [`KernelPlan`]: the data-independent part
    /// of the per-call kernel (used-column set plus node/term slot
    /// resolution). Derived data, so excluded from equality.
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
            block_rows: None,
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

    /// Returns the engine with a fixed cache-block row count for the
    /// batch kernel (at least 1), overriding the runtime cache probe.
    /// Results are identical for every value.
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
                // Invariant: `flatten` is the only writer of
                // `term_feature`, and it stores `EventId::index()`.
                #[allow(clippy::expect_used)]
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

    /// Evaluates the folded model of `leaf_slot`. Terms are accumulated
    /// first and the intercept added last — the same association as
    /// [`LinearModel::predict`], so an unsmoothed compiled prediction is
    /// bit-identical to the leaf model's own prediction.
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

    /// Predicts CPI for one sample (smoothing already folded in). This
    /// per-row path is the oracle of the batch kernel: every batch entry
    /// point returns exactly its bits for each row.
    pub fn predict(&self, sample: &Sample) -> f64 {
        let densities = sample.densities();
        let leaf = self.descend(|f| densities[f]);
        self.dot(leaf, |f| densities[f])
    }

    /// The 1-based linear-model number the sample classifies into.
    pub fn classify(&self, sample: &Sample) -> usize {
        let densities = sample.densities();
        self.lm_index[self.descend(|f| densities[f])] as usize
    }

    /// Predicts CPI for every sample of a dataset by partitioning row
    /// lists through the tree over the dataset's columnar cache.
    ///
    /// With a thread budget above 1 the rows are split into contiguous
    /// chunks processed on scoped worker threads; each element is a
    /// pure function of its sample, so the output is **bit-identical**
    /// for every thread count and equals [`CompiledTree::predict`] row
    /// by row.
    pub fn predict_batch(&self, data: &Dataset) -> Vec<f64> {
        let _span = obskit::span("engine", "engine.predict_batch");
        self.count_batch(data.len(), obskit::metrics::Metric::EngineRowsPredicted);
        let kernel = SimdKernel::new(self, data.columns());
        let mut out = vec![0.0; data.len()];
        self.for_each_chunk(&mut out, |slice, start| {
            self.predict_chunk(&kernel, slice, Rows::Range { start });
        });
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
        let kernel = SimdKernel::new(self, data.columns());
        let mut out = vec![0.0; indices.len()];
        self.for_each_chunk(&mut out, |slice, start| {
            self.predict_chunk(&kernel, slice, Rows::Indices(&indices[start..]));
        });
        out
    }

    /// Classifies every sample of a dataset into its 1-based
    /// linear-model number — the batch form of [`CompiledTree::classify`]
    /// behind the paper's Table II/IV profiles.
    pub fn classify_batch(&self, data: &Dataset) -> Vec<u32> {
        let _span = obskit::span("engine", "engine.classify_batch");
        self.count_batch(data.len(), obskit::metrics::Metric::EngineRowsClassified);
        let kernel = SimdKernel::new(self, data.columns());
        let mut out = vec![0u32; data.len()];
        self.for_each_chunk(&mut out, |slice, start| {
            let rows = Rows::Range { start };
            self.for_each_block(&kernel, slice, rows, |views, idx, scratch, block| {
                self.classify_node(&kernel, views, 0, idx, scratch, block);
            });
        });
        out
    }

    /// The kernel's cache-block row count: the per-engine override if
    /// set, otherwise [`simd::block_rows`] sized to this tree's `n_used`
    /// columns.
    fn effective_block_rows(&self, n_used: usize) -> usize {
        self.block_rows.unwrap_or_else(|| {
            // Per row: the used f64 column windows, two u32 index
            // buffers, the accumulator, and the output element.
            simd::block_rows(n_used * 8 + 24)
        })
    }

    /// Runs one partition descent per cache-sized block of `out`:
    /// `descend(views, idx, scratch, block)` gets the block's window of
    /// every used column, the block-local row list `0..len`, a
    /// partition scratch buffer, and the block's output cells. Counts
    /// the blocks under `engine.blocks`.
    fn for_each_block<T>(
        &self,
        kernel: &SimdKernel<'_>,
        out: &mut [T],
        rows: Rows<'_>,
        mut descend: impl FnMut(&[&[f64]], &mut [u32], &mut [u32], &mut [T]),
    ) {
        if out.is_empty() {
            return;
        }
        let cap = self.effective_block_rows(kernel.used.len()).min(out.len());
        obskit::metrics::add(
            obskit::metrics::Metric::EngineBlocks,
            out.len().div_ceil(cap) as u64,
        );
        let mut idx: Vec<u32> = Vec::with_capacity(cap);
        let mut scratch = vec![0u32; cap];
        // Gathered structure-of-arrays scratch, only needed when the
        // rows are arbitrary indices; contiguous ranges borrow the
        // columns directly.
        let mut gathered: Vec<f64> = match rows {
            Rows::Range { .. } => Vec::new(),
            Rows::Indices(_) => vec![0.0; kernel.used.len() * cap],
        };
        for (b, block) in out.chunks_mut(cap).enumerate() {
            let len = block.len();
            idx.clear();
            idx.extend(0..len as u32);
            let views = block_views(&kernel.used, rows, b * cap, len, cap, &mut gathered);
            descend(&views, &mut idx, &mut scratch, block);
        }
    }

    /// Fills `out` with predictions for one chunk's rows: cache-sized
    /// blocks, block-local `u32` row lists, lane-mask partitions, and
    /// four-lane unfused multiply-adds at the leaves.
    fn predict_chunk(&self, kernel: &SimdKernel<'_>, out: &mut [f64], rows: Rows<'_>) {
        let mut acc: Vec<f64> = Vec::new();
        self.for_each_block(kernel, out, rows, |views, idx, scratch, block| {
            self.predict_node(kernel, views, 0, idx, scratch, &mut acc, block);
        });
    }

    /// Recursive partition descent over block-local `u32` row lists.
    /// `views` holds this block's window of every used column, so
    /// `views[slot][i]` is row `i`'s value and `out[i]` its output
    /// cell — one index serves gather and store.
    #[allow(clippy::too_many_arguments)]
    fn predict_node(
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
            self.eval_leaf(kernel, views, s as usize, idx, acc, out);
            return;
        }
        let col = views[kernel.plan.node_slot[id] as usize];
        let nl = partition_lanes(col, self.threshold[id], idx, scratch);
        let (sl, sr) = scratch[..idx.len()].split_at_mut(nl);
        let (il, ir) = idx.split_at_mut(nl);
        let (left, right) = (self.children[2 * id], self.children[2 * id + 1]);
        self.predict_node(kernel, views, left as usize, sl, il, acc, out);
        self.predict_node(kernel, views, right as usize, sr, ir, acc, out);
    }

    /// Term-major vectorized evaluation of one leaf's folded model over
    /// its block-local row list. Per row the association is exactly
    /// [`CompiledTree::dot`]'s — terms ascending, each product rounded
    /// before its add (unfused), intercept last — so results are
    /// bit-identical to the per-row path.
    fn eval_leaf(
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
                1 => self.sweep_terms::<1>(kernel, views, t, idx, acc, last),
                2 => self.sweep_terms::<2>(kernel, views, t, idx, acc, last),
                3 => self.sweep_terms::<3>(kernel, views, t, idx, acc, last),
                _ => self.sweep_terms::<4>(kernel, views, t, idx, acc, last),
            }
            t += k;
        }
        let lanes = m - m % F64x4::LANES;
        obskit::metrics::add(obskit::metrics::Metric::EngineSimdRows, lanes as u64);
        obskit::metrics::add(
            obskit::metrics::Metric::EngineScalarTailRows,
            (m - lanes) as u64,
        );
    }

    /// One pass over a leaf's rows applying `K` consecutive terms. Per
    /// row the `K` products join the accumulator in ascending-term
    /// order, each rounded before its add (unfused [`F64x4::mul_add`])
    /// — exactly the per-row chain's association — so the unroll changes
    /// nothing bitwise. When `finish` carries the leaf's intercept the
    /// sweep is the model's last: instead of storing the accumulator it
    /// writes `intercept + acc` straight to the output rows, the same
    /// final add [`CompiledTree::dot`] performs.
    fn sweep_terms<const K: usize>(
        &self,
        kernel: &SimdKernel<'_>,
        views: &[&[f64]],
        t0: usize,
        idx: &[u32],
        acc: &mut [f64],
        finish: Option<(f64, &mut [f64])>,
    ) {
        let cols: [&[f64]; K] =
            std::array::from_fn(|k| views[kernel.plan.term_slot[t0 + k] as usize]);
        let coefs: [f64; K] = std::array::from_fn(|k| self.term_coef[t0 + k]);
        let splats: [F64x4; K] = std::array::from_fn(|k| F64x4::splat(coefs[k]));
        let (quads, idx_tail) = idx.as_chunks::<4>();
        let (acc_quads, acc_tail) = acc.as_chunks_mut::<4>();
        if let Some((intercept, out)) = finish {
            let b4 = F64x4::splat(intercept);
            for (g, a) in quads.iter().zip(acc_quads.iter()) {
                let mut a = F64x4(*a);
                for k in 0..K {
                    a = F64x4::gather(cols[k], g).mul_add(splats[k], a);
                }
                let r = b4.add(a).0;
                for k in 0..4 {
                    out[g[k] as usize] = r[k];
                }
            }
            for (&i, a) in idx_tail.iter().zip(acc_tail) {
                for k in 0..K {
                    *a += coefs[k] * cols[k][i as usize];
                }
                out[i as usize] = intercept + *a;
            }
        } else {
            for (g, a) in quads.iter().zip(acc_quads) {
                let mut v = F64x4(*a);
                for k in 0..K {
                    v = F64x4::gather(cols[k], g).mul_add(splats[k], v);
                }
                *a = v.0;
            }
            for (&i, a) in idx_tail.iter().zip(acc_tail) {
                for k in 0..K {
                    *a += coefs[k] * cols[k][i as usize];
                }
            }
        }
    }

    /// Recursive partition descent of the classifier: the same descent
    /// as [`CompiledTree::predict_node`], the leaf writes its model
    /// number.
    fn classify_node(
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
        let nl = partition_lanes(col, self.threshold[id], idx, scratch);
        let (sl, sr) = scratch[..idx.len()].split_at_mut(nl);
        let (il, ir) = idx.split_at_mut(nl);
        let (left, right) = (self.children[2 * id], self.children[2 * id + 1]);
        self.classify_node(kernel, views, left as usize, sl, il, out);
        self.classify_node(kernel, views, right as usize, sr, ir, out);
    }

    /// Records one batch entry's telemetry: the batch count plus the
    /// row-count distribution and rows under `rows_metric` (blocks are
    /// counted where the kernel cuts them). Outside the row loops, so
    /// per-row cost is untouched.
    fn count_batch(&self, rows: usize, rows_metric: obskit::metrics::Metric) {
        use obskit::metrics::{add, incr, observe, Hist, Metric};
        incr(Metric::EngineBatches);
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

/// Branch-free lane-mask partition of `idx` by `col[i] > threshold`,
/// written into `scratch`: rows going left end up in `scratch[..nl]` in
/// order, rows going right in `scratch[nl..]` reversed. Returns `nl`.
///
/// The comparisons run lane-width — eight rows gather into two
/// [`F64x4`]s and emit one eight-wide mask. Each row is then written to
/// *both* candidate slots and only the chosen cursor advances, so the
/// loop carries no data-dependent branch for the predictor to miss.
/// There is no copy-back: the recursion ping-pongs, descending into
/// `scratch` with the spent `idx` buffer as the next level's scratch.
/// The reversed right half only flips traversal direction — each row's
/// prediction is independent, so results are unaffected.
#[inline]
fn partition_lanes(col: &[f64], threshold: f64, idx: &[u32], scratch: &mut [u32]) -> usize {
    let n = idx.len();
    let scratch = &mut scratch[..n];
    let mut l = 0usize;
    let mut r = n;
    let t4 = F64x4::splat(threshold);
    let (octets, tail) = idx.as_chunks::<8>();
    for ch in octets {
        let [a0, a1, a2, a3, b0, b1, b2, b3] = *ch;
        let ma = F64x4::gather(col, &[a0, a1, a2, a3]).gt(t4);
        let mb = F64x4::gather(col, &[b0, b1, b2, b3]).gt(t4);
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
    for &i in tail {
        let go = usize::from(col[i as usize] > threshold);
        scratch[l] = i;
        scratch[r - 1] = i;
        l += 1 - go;
        r -= go;
    }
    l
}

/// The data-independent half of the batch kernel: which columns the tree
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
                // Invariant: `flatten` is the only writer of `feature`
                // and `term_feature`, and it stores `EventId::index()`.
                #[allow(clippy::expect_used)]
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
/// clones share the already-built plan (an `Arc` bump) and equality
/// ignores it.
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

/// The batch kernel's per-call view of a tree over one dataset: the
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

    /// The per-row oracle's predictions for every row of `ds`.
    fn per_row(engine: &CompiledTree, ds: &Dataset) -> Vec<f64> {
        (0..ds.len())
            .map(|i| engine.predict(&ds.sample(i)))
            .collect()
    }

    #[test]
    fn compiled_matches_interpreted_unsmoothed() {
        let ds = regime_dataset(1500, 2);
        let tree = ModelTree::fit(&ds, &M5Config::default().with_smoothing(false)).unwrap();
        let engine = tree.compile();
        assert_eq!(engine.n_nodes(), tree.n_nodes());
        assert_eq!(engine.n_leaves(), tree.n_leaves());
        for i in 0..ds.len() {
            let s = ds.sample(i);
            // Without smoothing the folded model IS the leaf model:
            // identical arithmetic, hence identical bits.
            let leaf = tree.node(tree.leaf_of(&s)).model().predict(&s);
            assert_eq!(leaf.to_bits(), engine.predict(&s).to_bits());
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
        // The determinism contract: the vectorized batch kernel is not
        // an approximation — predict, predict_indices, and classify
        // agree with the scalar per-row oracle bit for bit, across
        // awkward lengths that exercise lane tails.
        for n in [1usize, 2, 3, 5, 7, 9, 63, 64, 65, 999, 4097] {
            let ds = regime_dataset(n, 40 + n as u64);
            let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
            let engine = tree.compile();
            let oracle = per_row(&engine, &ds);
            let batch = engine.predict_batch(&ds);
            for (i, (x, y)) in oracle.iter().zip(&batch).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "n={n} row {i}");
            }
            let classes = engine.classify_batch(&ds);
            for (i, &lm) in classes.iter().enumerate() {
                assert_eq!(lm as usize, engine.classify(&ds.sample(i)), "n={n} row {i}");
            }
            let indices: Vec<u32> = (0..ds.len() as u32).rev().step_by(3).collect();
            let selected = engine.predict_indices(&ds, &indices);
            for (j, (&i, y)) in indices.iter().zip(&selected).enumerate() {
                let x = oracle[i as usize];
                assert_eq!(x.to_bits(), y.to_bits(), "n={n} index row {j}");
            }
        }
    }

    #[test]
    fn simd_block_sizes_do_not_change_results() {
        // Tiny, odd, and huge blocks (empty trailing blocks, single-row
        // blocks, one-block batches) all partition identically.
        let ds = regime_dataset(1000, 41);
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        let oracle = per_row(&tree.compile(), &ds);
        for rows in [1usize, 3, 8, 10, 100, 999, 1000, 1 << 16] {
            let engine = tree.compile().with_block_rows(rows);
            let got = engine.predict_batch(&ds);
            for (i, (x, y)) in oracle.iter().zip(&got).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "block_rows={rows} row {i}");
            }
        }
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
        let leaf_model = tree.node(tree.root()).model();
        assert_eq!(
            engine.predict(&s).to_bits(),
            leaf_model.predict(&s).to_bits()
        );
        assert_eq!(engine.classify(&s), 1);
        // The batch kernel handles a splitless tree (no used columns).
        let batch = engine.predict_batch(&ds);
        for (i, p) in batch.iter().enumerate() {
            assert_eq!(p.to_bits(), engine.predict(&ds.sample(i)).to_bits());
        }
        assert_eq!(engine.classify_batch(&ds), vec![1; ds.len()]);
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
    fn empty_dataset_batch() {
        let ds = regime_dataset(50, 11);
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        let engine = tree.compile();
        assert!(engine.predict_batch(&Dataset::new()).is_empty());
        assert!(engine.predict_indices(&ds, &[]).is_empty());
        assert!(engine.classify_batch(&Dataset::new()).is_empty());
    }

    #[test]
    fn plan_caching_is_bit_identical_and_sticky() {
        let ds = regime_dataset(800, 12);
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        let cached = tree.compile();

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
}
