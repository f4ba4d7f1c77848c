//! Standard-deviation-reduction (SDR) split search over presorted
//! columns.
//!
//! At each node, M5' examines every attribute and every threshold between
//! adjacent distinct values, and picks the split that maximizes
//!
//! ```text
//! SDR = sd(T) - Σ_i (|T_i| / |T|) * sd(T_i)
//! ```
//!
//! "the split event at a given node identifies the parameter to which CPI
//! is statistically most sensitive" (paper, Section IV-A1).
//!
//! # Presorting
//!
//! A naive node search re-sorts every attribute column at every node —
//! `O(a · n log n)` per node, `O(a · n log² n)` per tree. This module
//! instead sorts each attribute's index permutation **once at the root**
//! ([`SortArena::new`]) and maintains sorted order down the tree by
//! stable, in-place partitioning ([`NodeSet::partition`]): filtering a
//! stably sorted sequence preserves its order, so a child's index lists
//! are already sorted when it is visited. A node owns one contiguous
//! segment per attribute inside the arena; partitioning rearranges each
//! segment (left prefix, right suffix) using a caller-provided scratch
//! buffer and then splits the segment in two — no per-node sorting and
//! no per-node allocation. Threshold scans run over running
//! `(n, Σy, Σy²)` prefix sums in a single pass per attribute.
//!
//! The root sort itself avoids comparator overhead by mapping each
//! `f64` to a sign-flipped bit pattern whose unsigned order equals
//! [`f64::total_cmp`] order, packing `(key, position)` into one `u128`,
//! and sorting primitives; the position in the low bits makes the
//! unstable sort equivalent to a stable sort on the value alone.
//!
//! # Determinism
//!
//! [`find_best_split`] must return the same split no matter how many
//! threads scan attributes: each attribute scan is self-contained (its
//! prefix sums accumulate in that attribute's sorted order against the
//! node's index-order totals), produces the attribute-local best under a
//! strict-`>` leftmost-winner rule, and the per-attribute winners are
//! reduced sequentially in [`EventId::ALL`] order afterwards. That
//! reduction is exactly equivalent to the single sequential scan it
//! replaces, so one thread and many threads produce bit-identical
//! splits.

use crate::simd::F64x4;
use perfcounters::events::{EventId, N_EVENTS};
use perfcounters::Dataset;

/// A candidate split chosen by the SDR criterion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Split {
    /// The attribute to test.
    pub event: EventId,
    /// The threshold: samples with `value <= threshold` go left.
    pub threshold: f64,
    /// The achieved standard-deviation reduction (absolute, in CPI
    /// units).
    pub sdr: f64,
}

/// Population standard deviation from `(n, Σy, Σy²)` running sums.
#[inline]
fn sd_from_sums(n: f64, sum: f64, sum_sq: f64) -> f64 {
    if n <= 0.0 {
        return 0.0;
    }
    let mean = sum / n;
    (sum_sq / n - mean * mean).max(0.0).sqrt()
}

/// `[sqrt(a), sqrt(b)]` through one packed square root. Each lane is
/// the same IEEE operation as a scalar `f64::sqrt`, so results are
/// bit-identical to two scalar calls; packing matters because the
/// divide/sqrt unit dominates the threshold scan's critical path.
#[inline]
fn paired_sqrt(a: f64, b: f64) -> [f64; 2] {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE2 is part of the x86-64 baseline ABI, so these
    // intrinsics are always available on this architecture.
    unsafe {
        use core::arch::x86_64::*;
        let roots = _mm_sqrt_pd(_mm_set_pd(b, a));
        let mut out = [0.0f64; 2];
        _mm_storeu_pd(out.as_mut_ptr(), roots);
        out
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        [a.sqrt(), b.sqrt()]
    }
}

/// Number of scan positions between issuing a prefetch hint and using
/// the data: far enough to cover an L2 miss, near enough that hinted
/// lines are not evicted before use.
const PREFETCH_AHEAD: usize = 16;

/// Hints the CPU to pull `slice[index]` toward L1. The threshold scan
/// gathers through value-sorted index lists, an access pattern the
/// hardware prefetcher cannot follow, so the scan issues its own hints
/// [`PREFETCH_AHEAD`] positions early. `index` must be in bounds.
#[inline]
fn prefetch(slice: &[f64], index: u32) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the caller keeps `index` in bounds, and a prefetch hint
    // never dereferences the address architecturally.
    unsafe {
        use core::arch::x86_64::*;
        _mm_prefetch(slice.as_ptr().add(index as usize).cast::<i8>(), _MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (slice, index);
}

/// Running target statistics `(n, Σy, Σy²)` of one node, computed once
/// per node and threaded through growing, split search, and pruning so
/// no phase re-scans the target column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetStats {
    /// Sample count.
    pub n: usize,
    /// Sum of targets.
    pub sum: f64,
    /// Sum of squared targets.
    pub sum_sq: f64,
}

impl TargetStats {
    /// Accumulates the statistics of `cpi[i]` over `indices`, in index
    /// order.
    pub fn compute(cpi: &[f64], indices: &[u32]) -> TargetStats {
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for &i in indices {
            let y = cpi[i as usize];
            sum += y;
            sum_sq += y * y;
        }
        TargetStats {
            n: indices.len(),
            sum,
            sum_sq,
        }
    }

    /// Population standard deviation (0 for an empty set).
    pub fn sd(&self) -> f64 {
        sd_from_sums(self.n as f64, self.sum, self.sum_sq)
    }

    /// Mean (0 for an empty set).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

/// Borrowed columnar view of a dataset: one contiguous slice per event
/// plus the CPI column, resolved once per fit so inner loops never touch
/// row accessors.
#[derive(Clone)]
pub struct Columns<'a> {
    events: Vec<&'a [f64]>,
    /// The CPI (target) column.
    pub cpi: &'a [f64],
}

impl<'a> Columns<'a> {
    /// Borrows the columns of `data` (its storage; nothing is copied).
    pub fn new(data: &'a Dataset) -> Columns<'a> {
        Columns {
            events: EventId::ALL.iter().map(|&e| data.event_column(e)).collect(),
            cpi: data.cpi_column(),
        }
    }

    /// The contiguous column for one event.
    #[inline]
    pub fn event(&self, event: EventId) -> &'a [f64] {
        self.events[event.index()]
    }
}

/// Maps a float to a bit pattern whose **unsigned** order equals
/// `f64::total_cmp` order: flip all bits of negatives, flip only the
/// sign bit of non-negatives.
#[inline]
fn order_key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// The backing store for a tree fit's sorted index lists: one `Vec<u32>`
/// per attribute, each holding the node's sample indices in ascending
/// attribute-value order. [`NodeSet`]s borrow disjoint segments of these
/// arrays; the arrays themselves are sorted exactly once, here.
pub struct SortArena {
    indices: Vec<u32>,
    sorted: Vec<Vec<u32>>,
}

impl SortArena {
    /// Presorts every attribute over the given subset of samples. This
    /// is the only sort in an entire tree fit.
    pub fn new(cols: &Columns<'_>, indices: &[u32]) -> SortArena {
        let n = indices.len();
        // (total_cmp key << 32) | position: sorting the packed primitive
        // unstably is equivalent to a stable sort on the value alone,
        // because positions are unique and occupy the low bits.
        let mut packed: Vec<u128> = Vec::with_capacity(n);
        let sorted = EventId::ALL
            .iter()
            .map(|&e| {
                let col = cols.event(e);
                packed.clear();
                packed.extend(
                    indices
                        .iter()
                        .enumerate()
                        .map(|(j, &i)| (u128::from(order_key(col[i as usize])) << 32) | j as u128),
                );
                packed.sort_unstable();
                packed
                    .iter()
                    .map(|&p| indices[(p as u32) as usize])
                    .collect()
            })
            .collect();
        SortArena {
            indices: indices.to_vec(),
            sorted,
        }
    }

    /// Presorts every attribute over all samples of the columns.
    pub fn root(cols: &Columns<'_>) -> SortArena {
        let n = cols.cpi.len() as u32;
        let indices: Vec<u32> = (0..n).collect();
        SortArena::new(cols, &indices)
    }

    /// Borrows the whole arena as the root node's sample set.
    pub fn node_set(&mut self) -> NodeSet<'_> {
        NodeSet {
            indices: self.indices.clone(),
            sorted: self.sorted.iter_mut().map(|v| v.as_mut_slice()).collect(),
        }
    }
}

/// A node's sample set: the original-order index list plus one
/// value-sorted arena segment per attribute, maintained down the tree by
/// stable in-place partitioning.
pub struct NodeSet<'s> {
    /// Node indices in original (dataset) order.
    pub indices: Vec<u32>,
    /// One sorted index segment per event, indexed by
    /// `EventId::index()`.
    sorted: Vec<&'s mut [u32]>,
}

impl<'s> NodeSet<'s> {
    /// Number of samples in the node.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True if the node holds no samples.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The sorted segment for one event (test/bench introspection).
    pub fn sorted(&self, event: EventId) -> &[u32] {
        self.sorted[event.index()]
    }

    /// Computes the membership mask and the children's original-order
    /// index lists for `split`, without touching the sorted segments.
    ///
    /// `mask` is a caller-owned buffer of full dataset length (only
    /// entries at this node's indices are written and read). Growing
    /// calls this first so that children which stop immediately never
    /// pay for segment partitioning.
    pub fn split_plan(
        &self,
        cols: &Columns<'_>,
        split: &Split,
        mask: &mut [bool],
    ) -> (Vec<u32>, Vec<u32>) {
        // The split attribute's segment is sorted, so membership is a
        // prefix: everything before the partition point goes left.
        let col = cols.event(split.event);
        let seg = &self.sorted[split.event.index()];
        let n_left = seg.partition_point(|&i| col[i as usize] <= split.threshold);
        for &i in &seg[..n_left] {
            mask[i as usize] = true;
        }
        for &i in &seg[n_left..] {
            mask[i as usize] = false;
        }

        let mut left_indices = Vec::with_capacity(n_left);
        let mut right_indices = Vec::with_capacity(self.indices.len() - n_left);
        for &i in &self.indices {
            if mask[i as usize] {
                left_indices.push(i);
            } else {
                right_indices.push(i);
            }
        }
        (left_indices, right_indices)
    }

    /// Splits the node's segments according to a mask and index lists
    /// previously produced by [`NodeSet::split_plan`].
    ///
    /// Each attribute segment is stably partitioned **in place** — left
    /// members compact to the front, right members spill to `scratch`
    /// and copy back behind them (the loop is branchless: both
    /// destinations are written every step and the cursors advance by
    /// the mask bit) — and then split in two, so children stay sorted
    /// without re-sorting and without allocating. `scratch` needs at
    /// least `self.len()` elements.
    pub fn partition_segments(
        self,
        left_indices: Vec<u32>,
        right_indices: Vec<u32>,
        mask: &[bool],
        scratch: &mut [u32],
    ) -> (NodeSet<'s>, NodeSet<'s>) {
        let n_left = left_indices.len();
        let mut left_sorted = Vec::with_capacity(N_EVENTS);
        let mut right_sorted = Vec::with_capacity(N_EVENTS);
        for seg in self.sorted {
            let mut l = 0;
            let mut r = 0;
            for k in 0..seg.len() {
                let i = seg[k];
                let take = usize::from(mask[i as usize]);
                seg[l] = i; // l <= k, so this never clobbers unread data
                scratch[r] = i;
                l += take;
                r += 1 - take;
            }
            seg[l..].copy_from_slice(&scratch[..r]);
            let (left, right) = seg.split_at_mut(n_left);
            left_sorted.push(left);
            right_sorted.push(right);
        }
        (
            NodeSet {
                indices: left_indices,
                sorted: left_sorted,
            },
            NodeSet {
                indices: right_indices,
                sorted: right_sorted,
            },
        )
    }

    /// Splits the node by `split` into `(left, right)` with
    /// `value <= threshold` on the left: [`NodeSet::split_plan`]
    /// followed by [`NodeSet::partition_segments`].
    pub fn partition(
        self,
        cols: &Columns<'_>,
        split: &Split,
        mask: &mut [bool],
        scratch: &mut [u32],
    ) -> (NodeSet<'s>, NodeSet<'s>) {
        let (left_indices, right_indices) = self.split_plan(cols, split, mask);
        self.partition_segments(left_indices, right_indices, mask, scratch)
    }
}

/// Scans one attribute's presorted index list for its best admissible
/// threshold: a single pass accumulating `(n, Σy, Σy²)` prefix sums
/// against the node's totals.
///
/// The acceptance rule — strict `>` against `max(floor, best so far)`,
/// where `floor = 1e-12 * total_sd` — keeps the leftmost maximum, which
/// is what makes the later cross-attribute reduction order-independent.
fn scan_attribute(
    col: &[f64],
    cpi: &[f64],
    seg: &[u32],
    event: EventId,
    min_leaf: usize,
    stats: &TargetStats,
    total_sd: f64,
) -> Option<Split> {
    let n = seg.len();
    if col[seg[0] as usize] == col[seg[n - 1] as usize] {
        return None; // constant column
    }

    let total_sum = stats.sum;
    let total_sum_sq = stats.sum_sq;
    let nf = n as f64;
    let floor = 1e-12 * total_sd;
    let mut left_sum = 0.0;
    let mut left_sum_sq = 0.0;

    // The scan minimizes the division-free criterion
    //
    //   w = n·Σ_i (|T_i| / |T|)·sd(T_i)
    //     = sqrt(n_l·Σy²_l − (Σy_l)²) + sqrt(n_r·Σy²_r − (Σy_r)²),
    //
    // algebraically `n` times the weighted child deviation (each term is
    // `n_i·sd_i`), so the divide/sqrt unit runs one packed sqrt per
    // candidate instead of five divides and two roots. The SDR floor
    // becomes a ceiling on `w`, and the winner's SDR is recovered with a
    // single division at the end.
    let bound = nf * (total_sd - floor);
    let mut best_w = bound;
    let mut best_threshold = f64::NAN;

    // Admissible thresholds put `i + 1 ∈ [min_leaf, n - min_leaf]`
    // samples on the left, so positions before `lo` only feed the
    // running sums and positions past `hi` are never read.
    let lo = min_leaf.saturating_sub(1);
    let hi = (n - min_leaf).min(n - 1);
    for (k, &i) in seg[..lo].iter().enumerate() {
        if k + PREFETCH_AHEAD < n {
            prefetch(cpi, seg[k + PREFETCH_AHEAD]);
        }
        let y = cpi[i as usize];
        left_sum += y;
        left_sum_sq += y * y;
    }

    let mut value = col[seg[lo] as usize];
    for i in lo..hi {
        if i + PREFETCH_AHEAD < n {
            let ahead = seg[i + PREFETCH_AHEAD];
            prefetch(cpi, ahead);
            prefetch(col, ahead);
        }
        let y = cpi[seg[i] as usize];
        left_sum += y;
        left_sum_sq += y * y;
        let next_value = col[seg[i + 1] as usize];
        if value == next_value {
            continue; // threshold must separate distinct values
        }
        let threshold = 0.5 * (value + next_value);
        value = next_value;
        let right_sum = total_sum - left_sum;
        let right_sum_sq = total_sum_sq - left_sum_sq;
        // n_i²·var_i, clamped like `sd_from_sums` clamps variance.
        let scaled_l = ((i + 1) as f64 * left_sum_sq - left_sum * left_sum).max(0.0);
        let scaled_r = ((n - i - 1) as f64 * right_sum_sq - right_sum * right_sum).max(0.0);
        let roots = paired_sqrt(scaled_l, scaled_r);
        let w = roots[0] + roots[1];
        // Strict `<` keeps the leftmost minimum — the same tie rule as
        // the SDR maximization it replaces.
        if w < best_w {
            best_w = w;
            best_threshold = threshold;
        }
    }
    if best_w < bound {
        Some(Split {
            event,
            threshold: best_threshold,
            sdr: total_sd - best_w / nf,
        })
    } else {
        None
    }
}

/// Candidate windows narrower than this run the scalar scan: the
/// vectorized scan's prefix-materialization pass only pays off once a
/// few full lanes of candidates amortize it.
const MIN_SIMD_SCAN: usize = 16;

thread_local! {
    /// Reused per-thread buffers for [`scan_attribute_simd`]: the
    /// running `(Σy, Σy²)` prefix sums and the candidate window's
    /// attribute values (one extra slot for each candidate's right
    /// neighbor). Thread-local because [`find_best_split`] fans
    /// attribute scans out to scoped workers.
    static SCAN_SCRATCH: std::cell::RefCell<(Vec<f64>, Vec<f64>, Vec<f64>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
}

/// Vectorized [`scan_attribute`], **bit-identical by construction**.
///
/// The scalar scan is a loop-carried recurrence (the prefix sums) glued
/// to per-candidate arithmetic that is embarrassingly parallel. The
/// vectorized form splits them: one sequential pass materializes the
/// prefix sums and candidate values into flat arrays — the *same*
/// additions in the *same* order as the scalar scan, preserving its
/// association exactly — and the candidate arithmetic then runs
/// four-wide over those arrays. Every lane operation (mul, sub, max,
/// sqrt, compare) is the exactly rounded IEEE operation the scalar
/// expressions perform, candidates at equal-valued positions are
/// disqualified by an `+∞` select exactly where the scalar scan
/// `continue`s, and the winner is recovered as the **lexicographic
/// minimum of `(w, position)`** over the per-lane running bests plus
/// the scalar tail — provably the scalar leftmost-strict-`<` winner:
/// each lane keeps its earliest minimum, so the global earliest
/// position achieving the global minimum `w` is always among the
/// reduced candidates.
fn scan_attribute_simd(
    col: &[f64],
    cpi: &[f64],
    seg: &[u32],
    event: EventId,
    min_leaf: usize,
    stats: &TargetStats,
    total_sd: f64,
) -> Option<Split> {
    let n = seg.len();
    if col[seg[0] as usize] == col[seg[n - 1] as usize] {
        return None; // constant column
    }
    let lo = min_leaf.saturating_sub(1);
    let hi = (n - min_leaf).min(n - 1);
    let m = hi - lo;
    if m < MIN_SIMD_SCAN {
        return scan_attribute(col, cpi, seg, event, min_leaf, stats, total_sd);
    }

    let total_sum = stats.sum;
    let total_sum_sq = stats.sum_sq;
    let nf = n as f64;
    let floor = 1e-12 * total_sd;
    let bound = nf * (total_sd - floor);

    SCAN_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let (ps, pss, vals) = &mut *scratch;
        if ps.len() < m {
            ps.resize(m, 0.0);
            pss.resize(m, 0.0);
        }
        if vals.len() < m + 1 {
            vals.resize(m + 1, 0.0);
        }

        // Sequential prefix pass: identical accumulation order (and
        // gather prefetching) to the scalar scan, stored after the
        // position's own sample joins the left side — the state the
        // scalar loop holds when it evaluates that candidate.
        let mut left_sum = 0.0;
        let mut left_sum_sq = 0.0;
        for (k, &i) in seg[..lo].iter().enumerate() {
            if k + PREFETCH_AHEAD < n {
                prefetch(cpi, seg[k + PREFETCH_AHEAD]);
            }
            let y = cpi[i as usize];
            left_sum += y;
            left_sum_sq += y * y;
        }
        for j in 0..m {
            let i = lo + j;
            if i + PREFETCH_AHEAD < n {
                let ahead = seg[i + PREFETCH_AHEAD];
                prefetch(cpi, ahead);
                prefetch(col, ahead);
            }
            let y = cpi[seg[i] as usize];
            left_sum += y;
            left_sum_sq += y * y;
            ps[j] = left_sum;
            pss[j] = left_sum_sq;
            vals[j] = col[seg[i] as usize];
        }
        vals[m] = col[seg[hi] as usize];

        // Lane-parallel candidate evaluation. Every lane expression
        // mirrors one scalar expression: `np1` is the exact integer
        // `(i + 1) as f64` (integer-valued f64 adds below 2^53 are
        // exact), so `nf − np1` is exactly `(n − i − 1) as f64`, and
        // the products/differences/roots are the scalar ops per lane.
        let iota = F64x4([0.0, 1.0, 2.0, 3.0]);
        let zero = F64x4::splat(0.0);
        let inf = F64x4::splat(f64::INFINITY);
        let nfv = F64x4::splat(nf);
        let ts = F64x4::splat(total_sum);
        let tss = F64x4::splat(total_sum_sq);
        let mut bw = F64x4::splat(bound);
        // Position sentinel: a lane's position is only read when its
        // best `w` dropped below `bound`, which requires a select.
        let mut bpos = F64x4::splat(f64::INFINITY);
        let lanes = m - m % F64x4::LANES;
        let mut j = 0;
        while j < lanes {
            let np1 = F64x4::splat((lo + j + 1) as f64).add(iota);
            let ls = F64x4::from_slice(&ps[j..]);
            let lss = F64x4::from_slice(&pss[j..]);
            let rs = ts.sub(ls);
            let rss = tss.sub(lss);
            let scaled_l = np1.mul(lss).sub(ls.mul(ls)).max(zero);
            let scaled_r = nfv.sub(np1).mul(rss).sub(rs.mul(rs)).max(zero);
            let w = scaled_l.sqrt().add(scaled_r.sqrt());
            // A threshold must separate distinct values; equal-valued
            // positions get +∞ and can never win the strict `<`.
            let valid = F64x4::from_slice(&vals[j..]).ne(F64x4::from_slice(&vals[j + 1..]));
            let w = F64x4::select(valid, w, inf);
            let better = w.lt(bw);
            bw = F64x4::select(better, w, bw);
            bpos = F64x4::select(better, F64x4::splat(j as f64).add(iota), bpos);
            j += F64x4::LANES;
        }

        // Scalar tail over the last partial lane, same expressions.
        let mut best_w = bound;
        let mut best_pos = usize::MAX;
        for j in lanes..m {
            if vals[j] == vals[j + 1] {
                continue;
            }
            let i = lo + j;
            let ls = ps[j];
            let lss = pss[j];
            let rs = total_sum - ls;
            let rss = total_sum_sq - lss;
            let scaled_l = ((i + 1) as f64 * lss - ls * ls).max(0.0);
            let scaled_r = ((n - i - 1) as f64 * rss - rs * rs).max(0.0);
            let roots = paired_sqrt(scaled_l, scaled_r);
            let w = roots[0] + roots[1];
            if w < best_w {
                best_w = w;
                best_pos = j;
            }
        }

        // Lexicographic (w, position) reduction over the lane bests:
        // deterministic fixed order, equivalent to the scalar
        // leftmost-winner rule.
        for k in 0..F64x4::LANES {
            let w = bw.0[k];
            if w < bound {
                let p = bpos.0[k] as usize;
                if w < best_w || (w == best_w && p < best_pos) {
                    best_w = w;
                    best_pos = p;
                }
            }
        }

        if best_pos == usize::MAX {
            return None;
        }
        Some(Split {
            event,
            // The sorted-order invariant `value == col[seg[i]]` makes
            // this the scalar scan's `0.5 * (value + next_value)`.
            threshold: 0.5 * (vals[best_pos] + vals[best_pos + 1]),
            sdr: total_sd - best_w / nf,
        })
    })
}

/// Finds the SDR-maximizing split over all attributes of a presorted
/// node, subject to both sides receiving at least `min_leaf` samples.
///
/// Every attribute runs the vectorized `scan_attribute_simd`, which
/// is bit-identical to the scalar `scan_attribute` (its narrow-window
/// fallback). With `n_threads > 1` the attribute scans run on scoped
/// worker threads; the result is bit-identical to the serial scan (see
/// the module docs).
///
/// Returns `None` when no admissible split improves on the parent (all
/// attribute columns constant, node too small, or best SDR is
/// numerically zero).
pub fn find_best_split(
    cols: &Columns<'_>,
    set: &NodeSet<'_>,
    min_leaf: usize,
    stats: &TargetStats,
    n_threads: usize,
) -> Option<Split> {
    let n = set.len();
    if n < 2 * min_leaf {
        return None;
    }
    let total_sd = stats.sd();
    if total_sd <= 0.0 {
        return None;
    }
    // One SDR evaluation = one attribute's threshold scan at this node.
    obskit::metrics::add(
        obskit::metrics::Metric::TrainerSplitEvaluations,
        N_EVENTS as u64,
    );

    let mut per_event: Vec<Option<Split>> = vec![None; N_EVENTS];
    let workers = n_threads.min(N_EVENTS);
    if workers <= 1 {
        for (slot, event) in per_event.iter_mut().zip(EventId::ALL) {
            *slot = scan_attribute_simd(
                cols.event(event),
                cols.cpi,
                set.sorted(event),
                event,
                min_leaf,
                stats,
                total_sd,
            );
        }
    } else {
        // Deal attributes round-robin to `workers` scoped threads; each
        // scan is independent, so placement never affects the result.
        let segments: Vec<&[u32]> = (0..N_EVENTS).map(|e| &*set.sorted[e]).collect();
        let segments = &segments;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        EventId::ALL
                            .into_iter()
                            .skip(w)
                            .step_by(workers)
                            .map(|event| {
                                (
                                    event.index(),
                                    scan_attribute_simd(
                                        cols.event(event),
                                        cols.cpi,
                                        segments[event.index()],
                                        event,
                                        min_leaf,
                                        stats,
                                        total_sd,
                                    ),
                                )
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                let results = handle
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p));
                for (index, result) in results {
                    per_event[index] = result;
                }
            }
        });
    }

    // Sequential reduction in EventId::ALL order: with strict `>`, the
    // earliest attribute keeps ties, matching the historical single-scan
    // behavior exactly.
    let mut best: Option<Split> = None;
    for candidate in per_event.into_iter().flatten() {
        if best.is_none_or(|b| candidate.sdr > b.sdr) {
            best = Some(candidate);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfcounters::Sample;

    /// Presorts a subset of `data` and searches it once (tree fitting
    /// instead builds the root [`SortArena`] once and maintains it by
    /// partitioning).
    fn best_split(data: &Dataset, indices: &[u32], min_leaf: usize) -> Option<Split> {
        if indices.is_empty() {
            return None;
        }
        let cols = Columns::new(data);
        let mut arena = SortArena::new(&cols, indices);
        let set = arena.node_set();
        let stats = TargetStats::compute(cols.cpi, &set.indices);
        find_best_split(&cols, &set, min_leaf, &stats, 1)
    }

    fn two_regime_dataset() -> (Dataset, Vec<u32>) {
        // CPI = 0.5 below the DtlbMiss threshold, 2.0 above it.
        let mut ds = Dataset::new();
        let b = ds.add_benchmark("toy");
        for i in 0..100 {
            let (dtlb, cpi) = if i < 50 { (1e-4, 0.5) } else { (4e-4, 2.0) };
            let mut s = Sample::zeros(cpi);
            s.set(EventId::DtlbMiss, dtlb);
            // A second, uninformative attribute.
            s.set(EventId::Load, 0.3);
            ds.push(s, b);
        }
        let idx = (0..100).collect();
        (ds, idx)
    }

    #[test]
    fn finds_the_informative_attribute() {
        let (ds, idx) = two_regime_dataset();
        let split = best_split(&ds, &idx, 2).unwrap();
        assert_eq!(split.event, EventId::DtlbMiss);
        assert!(split.threshold > 1e-4 && split.threshold < 4e-4);
        assert!(split.sdr > 0.0);
    }

    #[test]
    fn order_key_matches_total_cmp() {
        let values = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            1e-300,
            0.3,
            f64::INFINITY,
        ];
        for &a in &values {
            for &b in &values {
                assert_eq!(
                    order_key(a).cmp(&order_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn partition_respects_threshold() {
        let (ds, idx) = two_regime_dataset();
        let cols = Columns::new(&ds);
        let mut arena = SortArena::new(&cols, &idx);
        let set = arena.node_set();
        let stats = TargetStats::compute(cols.cpi, &set.indices);
        let split = find_best_split(&cols, &set, 2, &stats, 1).unwrap();
        let mut mask = vec![false; ds.len()];
        let mut scratch = vec![0u32; ds.len()];
        let (left, right) = set.partition(&cols, &split, &mut mask, &mut scratch);
        assert_eq!(left.len(), 50);
        assert_eq!(right.len(), 50);
        assert!(left
            .indices
            .iter()
            .all(|&i| ds.sample(i as usize).get(EventId::DtlbMiss) <= split.threshold));
        assert!(right
            .indices
            .iter()
            .all(|&i| ds.sample(i as usize).get(EventId::DtlbMiss) > split.threshold));
    }

    #[test]
    fn partition_keeps_children_sorted() {
        let mut ds = Dataset::new();
        let b = ds.add_benchmark("perm");
        // Interleaved values so the sorted permutations are non-trivial.
        for i in 0..60u32 {
            let v = ((i * 37) % 60) as f64 * 0.01;
            let mut s = Sample::zeros(if v < 0.3 { 0.5 } else { 2.0 });
            s.set(EventId::Load, v);
            s.set(EventId::Mul, 0.6 - v);
            ds.push(s, b);
        }
        let cols = Columns::new(&ds);
        let mut arena = SortArena::root(&cols);
        let set = arena.node_set();
        let stats = TargetStats::compute(cols.cpi, &set.indices);
        let split = find_best_split(&cols, &set, 2, &stats, 1).unwrap();
        let mut mask = vec![false; ds.len()];
        let mut scratch = vec![0u32; ds.len()];
        let (left, right) = set.partition(&cols, &split, &mut mask, &mut scratch);
        for child in [&left, &right] {
            for e in EventId::ALL {
                let col = cols.event(e);
                let list = child.sorted(e);
                assert_eq!(list.len(), child.len());
                for w in list.windows(2) {
                    let (a, b) = (col[w[0] as usize], col[w[1] as usize]);
                    assert!(a <= b, "child list unsorted on {e:?}: {a} > {b}");
                    // Stability: ties keep original index order.
                    if a == b {
                        assert!(w[0] < w[1]);
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_scan_is_bit_identical_to_serial() {
        let (ds, idx) = two_regime_dataset();
        let cols = Columns::new(&ds);
        let mut arena = SortArena::new(&cols, &idx);
        let set = arena.node_set();
        let stats = TargetStats::compute(cols.cpi, &set.indices);
        let serial = find_best_split(&cols, &set, 2, &stats, 1);
        for threads in [2, 4, 19, 64] {
            let parallel = find_best_split(&cols, &set, 2, &stats, threads);
            assert_eq!(serial, parallel, "n_threads = {threads}");
        }
    }

    /// Bitwise equality of two scan results.
    fn assert_same_split(a: Option<Split>, b: Option<Split>, what: &str) {
        match (a, b) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.event, b.event, "{what}");
                assert_eq!(
                    a.threshold.to_bits(),
                    b.threshold.to_bits(),
                    "{what}: {} vs {}",
                    a.threshold,
                    b.threshold
                );
                assert_eq!(
                    a.sdr.to_bits(),
                    b.sdr.to_bits(),
                    "{what}: {} vs {}",
                    a.sdr,
                    b.sdr
                );
            }
            (a, b) => panic!("{what}: {a:?} vs {b:?}"),
        }
    }

    /// The scalar oracle of [`find_best_split`]: checks the two private
    /// scans against each other attribute by attribute, then reduces
    /// the scalar winners in `EventId::ALL` order.
    fn scalar_best_split(
        cols: &Columns<'_>,
        set: &NodeSet<'_>,
        min_leaf: usize,
        stats: &TargetStats,
    ) -> Option<Split> {
        let total_sd = stats.sd();
        if set.len() < 2 * min_leaf || total_sd <= 0.0 {
            return None;
        }
        let mut best: Option<Split> = None;
        for event in EventId::ALL {
            let (col, seg) = (cols.event(event), set.sorted(event));
            let scalar = scan_attribute(col, cols.cpi, seg, event, min_leaf, stats, total_sd);
            let simd = scan_attribute_simd(col, cols.cpi, seg, event, min_leaf, stats, total_sd);
            assert_same_split(scalar, simd, &format!("{event:?} min_leaf={min_leaf}"));
            if let Some(c) = scalar {
                if best.is_none_or(|b| c.sdr > b.sdr) {
                    best = Some(c);
                }
            }
        }
        best
    }

    #[test]
    fn simd_scan_is_bit_identical_to_scalar() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Messy datasets: duplicated attribute values (tie skipping),
        // several informative attributes (cross-attribute reduction),
        // varied sizes around the lane width and the scalar-fallback
        // cutoff.
        for (n, seed) in [
            (8usize, 1u64),
            (17, 2),
            (40, 3),
            (100, 4),
            (513, 5),
            (2000, 6),
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ds = Dataset::new();
            let b = ds.add_benchmark("mix");
            for _ in 0..n {
                let dtlb = f64::from(rng.gen_range(0u32..8)) * 1e-4;
                let load = rng.gen::<f64>() * 0.5;
                let l2 = f64::from(rng.gen_range(0u32..4)) * 2e-4;
                let cpi = 0.5 + 900.0 * dtlb + 0.8 * load + 300.0 * l2 + 0.05 * rng.gen::<f64>();
                let mut s = Sample::zeros(cpi);
                s.set(EventId::DtlbMiss, dtlb);
                s.set(EventId::Load, load);
                s.set(EventId::L2Miss, l2);
                ds.push(s, b);
            }
            let cols = Columns::new(&ds);
            let mut arena = SortArena::root(&cols);
            let set = arena.node_set();
            let stats = TargetStats::compute(cols.cpi, &set.indices);
            for min_leaf in [1usize, 2, 4, 9] {
                let scalar = scalar_best_split(&cols, &set, min_leaf, &stats);
                for threads in [1usize, 4] {
                    let simd = find_best_split(&cols, &set, min_leaf, &stats, threads);
                    assert_same_split(
                        scalar,
                        simd,
                        &format!("n={n} min_leaf={min_leaf} threads={threads}"),
                    );
                }
            }
        }
    }

    #[test]
    fn simd_scan_handles_constant_and_tiny_columns() {
        // Constant-column early exit and the scalar fallback for
        // windows under the SIMD cutoff take the same paths as scalar.
        let (ds, idx) = two_regime_dataset();
        let cols = Columns::new(&ds);
        let mut arena = SortArena::new(&cols, &idx[..6]);
        let set = arena.node_set();
        let stats = TargetStats::compute(cols.cpi, &set.indices);
        let scalar = scalar_best_split(&cols, &set, 2, &stats);
        let simd = find_best_split(&cols, &set, 2, &stats, 1);
        assert_same_split(scalar, simd, "six-row node");
    }

    #[test]
    fn no_split_on_constant_target() {
        let mut ds = Dataset::new();
        let b = ds.add_benchmark("flat");
        for i in 0..50 {
            let mut s = Sample::zeros(1.0);
            s.set(EventId::Load, i as f64 * 0.01);
            ds.push(s, b);
        }
        let idx: Vec<u32> = (0..50).collect();
        assert!(best_split(&ds, &idx, 2).is_none());
    }

    #[test]
    fn no_split_on_constant_attributes() {
        let mut ds = Dataset::new();
        let b = ds.add_benchmark("flat");
        for i in 0..50 {
            // Varying CPI but all attributes identical: nothing to split.
            ds.push(Sample::zeros(1.0 + (i % 5) as f64 * 0.1), b);
        }
        let idx: Vec<u32> = (0..50).collect();
        assert!(best_split(&ds, &idx, 2).is_none());
    }

    #[test]
    fn min_leaf_is_enforced() {
        let (ds, idx) = two_regime_dataset();
        // min_leaf of 60 cannot be met on either side of the only useful
        // split (50/50), and no other attribute varies.
        assert!(best_split(&ds, &idx, 60).is_none());
    }

    #[test]
    fn too_few_samples_returns_none() {
        let (ds, _) = two_regime_dataset();
        assert!(best_split(&ds, &[0, 1, 2], 2).is_none());
        assert!(best_split(&ds, &[], 2).is_none());
    }

    #[test]
    fn target_stats_helpers() {
        let cpi = [1.0, 2.0, 3.0, 4.0];
        let idx = [0u32, 1, 2, 3];
        let stats = TargetStats::compute(&cpi, &idx);
        assert_eq!(stats.n, 4);
        assert!((stats.mean() - 2.5).abs() < 1e-12);
        // Population sd of {1,2,3,4} = sqrt(1.25).
        assert!((stats.sd() - 1.25_f64.sqrt()).abs() < 1e-12);
        let empty = TargetStats::compute(&cpi, &[]);
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.sd(), 0.0);
    }

    #[test]
    fn threshold_lies_between_distinct_values() {
        // Values interleave: make sure the chosen threshold always
        // separates two actually-distinct attribute values.
        let mut ds = Dataset::new();
        let b = ds.add_benchmark("x");
        for i in 0..40 {
            let v = (i / 10) as f64; // 0,0,..,1,1,..,2,..,3
            let mut s = Sample::zeros(v);
            s.set(EventId::Mul, v * 0.1);
            ds.push(s, b);
        }
        let idx: Vec<u32> = (0..40).collect();
        let split = best_split(&ds, &idx, 2).unwrap();
        assert_eq!(split.event, EventId::Mul);
        let distinct = [0.0, 0.1, 0.2, 0.3];
        assert!(distinct.iter().all(|&v| (v - split.threshold).abs() > 1e-9));
    }
}
