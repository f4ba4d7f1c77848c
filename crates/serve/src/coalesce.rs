//! Request coalescing: many concurrent small requests, one columnar
//! batch-kernel invocation.
//!
//! Per-request engine cost at serving granularity is dominated by fixed
//! overhead — kernel setup, output allocation, condvar wakes — not by
//! the ~tens of nanoseconds the SIMD kernels spend per row. The
//! coalescer amortizes that overhead: handler threads [`submit`] rows
//! and block on a per-request ticket while a single batcher thread
//! accumulates everything submitted within a **time-or-size window**
//! (first of `window` elapsed since the oldest pending request, or
//! `max_batch_rows` accumulated) and runs one
//! [`CompiledTree::predict_batch`]/[`classify_batch`] per distinct
//! (model version, kind) in the batch.
//!
//! `window == 0` degenerates to strict one-request-per-batch execution
//! — the honest unbatched baseline.
//!
//! **Backpressure:** pending rows are bounded by `queue_rows`;
//! [`Coalescer::submit`] fails fast with [`SubmitError::Busy`] instead
//! of queueing unboundedly, which the server surfaces as HTTP 429 +
//! `Retry-After`. Overload degrades (some requests shed, the rest at
//! full batch efficiency) instead of collapsing under queue growth.
//!
//! **Determinism:** every engine output element is a pure function of
//! its own row (bit-identical across batch compositions and thread
//! counts — the `modeltree::compiled` contract), so coalescing is
//! invisible in results: a row predicts identically whether it shared
//! a batch with 4095 strangers or ran alone.
//!
//! [`submit`]: Coalescer::submit
//! [`CompiledTree::predict_batch`]: modeltree::CompiledTree::predict_batch
//! [`classify_batch`]: modeltree::CompiledTree::classify_batch

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use obskit::metrics::{self, Hist, Metric};
use obskit::ring::{self, FlightKind};
use perfcounters::events::N_EVENTS;
use perfcounters::{Dataset, Sample};

use crate::registry::ModelVersion;

/// Which engine entry point a request wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// CPI regression (`predict_batch`).
    Predict,
    /// 1-based leaf/linear-model number (`classify_batch`).
    Classify,
}

/// What a request got back.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// One CPI prediction per submitted row.
    Predictions(Vec<f64>),
    /// One 1-based linear-model number per submitted row.
    Classes(Vec<u32>),
    /// The batcher failed the request (shutdown mid-flight).
    Failed(String),
}

/// Why a submit was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The pending-row queue is full — shed with 429 + Retry-After.
    Busy,
    /// The coalescer is shutting down.
    ShuttingDown,
}

/// Batching policy.
#[derive(Debug, Clone)]
pub struct CoalescerConfig {
    /// Maximum time the oldest pending request waits before its batch
    /// flushes. `Duration::ZERO` disables coalescing (one request per
    /// batch — the unbatched A/B baseline).
    pub window: Duration,
    /// Row count that flushes a batch early (and the per-flush cap).
    pub max_batch_rows: usize,
    /// Bound on pending rows across all queued requests; submits beyond
    /// it are refused with [`SubmitError::Busy`].
    pub queue_rows: usize,
}

impl Default for CoalescerConfig {
    fn default() -> Self {
        CoalescerConfig {
            window: Duration::from_micros(200),
            max_batch_rows: 4096,
            queue_rows: 16384,
        }
    }
}

/// A submitted request's completion slot: the batcher fills it, the
/// handler blocks on it. One-shot.
#[derive(Debug, Default)]
struct TicketInner {
    slot: Mutex<TicketSlot>,
    ready: Condvar,
}

#[derive(Debug, Default)]
struct TicketSlot {
    outcome: Option<Outcome>,
    /// True while a handler thread is parked in [`Ticket::wait`].
    /// [`resolve`] skips the condvar notify (a futex syscall, and on a
    /// busy single core a wakeup-preemption of the batcher mid-batch)
    /// when nobody is parked — under pipelining most tickets are
    /// collected after the fact, so most resolves stay syscall-free.
    waiting: bool,
}

/// Handle a handler thread holds while its rows ride a batch.
#[derive(Debug)]
pub struct Ticket(Arc<TicketInner>);

impl Ticket {
    /// Blocks until the batcher resolves this request.
    pub fn wait(self) -> Outcome {
        let mut slot = self.0.slot.lock().expect("ticket lock poisoned");
        loop {
            if let Some(outcome) = slot.outcome.take() {
                return outcome;
            }
            slot.waiting = true;
            slot = self.0.ready.wait(slot).expect("ticket lock poisoned");
        }
    }
}

fn resolve(inner: &TicketInner, outcome: Outcome) {
    let waiting = {
        let mut slot = inner.slot.lock().expect("ticket lock poisoned");
        slot.outcome = Some(outcome);
        slot.waiting
    };
    if waiting {
        inner.ready.notify_one();
    }
}

/// One queued request.
struct Job {
    /// The model version captured at submit time. Batches group by this
    /// `Arc`'s pointer, so a hot swap between submit and flush cannot
    /// move the job onto a different version.
    model: Arc<ModelVersion>,
    kind: RequestKind,
    /// Row-major densities, `N_EVENTS` per row.
    rows: Vec<f64>,
    n_rows: usize,
    ticket: Arc<TicketInner>,
    enqueued: Instant,
    /// Sampled trace request id, or 0 when this request is not traced.
    /// Traced jobs leave queue-wait/batch/engine spans tagged with the
    /// id so one request's path is reconstructable from the trace.
    req_id: u64,
}

struct State {
    jobs: VecDeque<Job>,
    pending_rows: usize,
    shutdown: bool,
}

/// The time-or-size request batcher. Create with [`Coalescer::start`];
/// dropping it drains and resolves every pending request.
pub struct Coalescer {
    shared: Arc<Shared>,
    batcher: Option<JoinHandle<()>>,
}

struct Shared {
    state: Mutex<State>,
    wake: Condvar,
    cfg: CoalescerConfig,
}

impl Coalescer {
    /// Spawns the batcher thread.
    pub fn start(cfg: CoalescerConfig) -> Coalescer {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                pending_rows: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
            cfg,
        });
        let worker = Arc::clone(&shared);
        let batcher = std::thread::Builder::new()
            .name("serve-batcher".into())
            .spawn(move || batcher_loop(&worker))
            .expect("spawn batcher thread");
        Coalescer {
            shared,
            batcher: Some(batcher),
        }
    }

    /// Queues `rows` (row-major, `N_EVENTS` floats per row) against a
    /// model version. Returns a [`Ticket`] to block on, or fails fast
    /// when the queue is at capacity.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or not a multiple of `N_EVENTS` —
    /// callers validate shape (and finiteness) before submitting.
    pub fn submit(
        &self,
        model: Arc<ModelVersion>,
        kind: RequestKind,
        rows: Vec<f64>,
    ) -> Result<Ticket, SubmitError> {
        self.submit_traced(model, kind, rows, 0)
    }

    /// [`submit`](Coalescer::submit) carrying a sampled trace request
    /// id (0 = untraced). The id rides the job through batching so the
    /// queue-wait, batch-membership, and engine spans it appears in can
    /// be joined back to the request in one Chrome-trace export.
    pub fn submit_traced(
        &self,
        model: Arc<ModelVersion>,
        kind: RequestKind,
        rows: Vec<f64>,
        req_id: u64,
    ) -> Result<Ticket, SubmitError> {
        assert!(
            !rows.is_empty() && rows.len().is_multiple_of(N_EVENTS),
            "submit wants non-empty row-major N_EVENTS-wide rows"
        );
        let n_rows = rows.len() / N_EVENTS;
        let mut state = self.shared.state.lock().expect("coalescer lock poisoned");
        if state.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        // Fail-fast bound: admit a request only if the whole queue
        // (including it) stays within queue_rows. A single oversized
        // request is still admitted on an empty queue rather than being
        // unservable.
        if state.pending_rows + n_rows > self.shared.cfg.queue_rows && state.pending_rows > 0 {
            return Err(SubmitError::Busy);
        }
        let ticket = Arc::new(TicketInner::default());
        let was_empty = state.jobs.is_empty();
        let was_below_cap = state.pending_rows < self.shared.cfg.max_batch_rows;
        state.pending_rows += n_rows;
        let size_ready = state.pending_rows >= self.shared.cfg.max_batch_rows;
        state.jobs.push_back(Job {
            model,
            kind,
            rows,
            n_rows,
            ticket: Arc::clone(&ticket),
            enqueued: Instant::now(),
            req_id,
        });
        drop(state);
        if req_id != 0 {
            ring::record(
                FlightKind::RequestSubmitted,
                req_id,
                n_rows as u64,
                kind as u64,
            );
        }
        // Wake the batcher only when this submit changes what it should
        // do: the queue went non-empty (it may be parked with no timer),
        // the size trigger just crossed, or unbatched mode (every
        // request is a batch). A mid-window submit otherwise rides the
        // already-armed window timeout — unconditional notifies here
        // made the batcher wake, find the window unexpired, and sleep
        // again once per request, two context switches that (on the
        // 1-vCPU bench box) cost more than the batching saved.
        if was_empty || (size_ready && was_below_cap) || self.shared.cfg.window.is_zero() {
            self.shared.wake.notify_one();
        }
        Ok(Ticket(ticket))
    }

    /// Pending rows right now (diagnostics).
    pub fn pending_rows(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("coalescer lock poisoned")
            .pending_rows
    }

    /// The batching policy.
    pub fn config(&self) -> &CoalescerConfig {
        &self.shared.cfg
    }
}

impl Drop for Coalescer {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("coalescer lock poisoned");
            state.shutdown = true;
        }
        self.shared.wake.notify_all();
        if let Some(handle) = self.batcher.take() {
            let _ = handle.join();
        }
    }
}

/// The batcher thread: wait for the flush trigger, take a batch,
/// execute it, resolve tickets; on shutdown, drain what is queued.
fn batcher_loop(shared: &Shared) {
    let cfg = &shared.cfg;
    loop {
        let batch = {
            let mut state = shared.state.lock().expect("coalescer lock poisoned");
            loop {
                if state.jobs.is_empty() {
                    if state.shutdown {
                        return;
                    }
                    state = shared.wake.wait(state).expect("coalescer lock poisoned");
                    continue;
                }
                // Flush triggers, in priority order: shutdown (drain
                // now), size (a full batch is waiting), window=0
                // (unbatched mode: take exactly one request), time (the
                // oldest request has waited long enough).
                if state.shutdown || state.pending_rows >= cfg.max_batch_rows {
                    break;
                }
                if cfg.window.is_zero() {
                    break;
                }
                let oldest = state.jobs.front().expect("jobs non-empty").enqueued;
                let age = oldest.elapsed();
                if age >= cfg.window {
                    break;
                }
                let (next, _timeout) = shared
                    .wake
                    .wait_timeout(state, cfg.window - age)
                    .expect("coalescer lock poisoned");
                state = next;
            }
            take_batch(&mut state, cfg)
        };
        execute(batch);
    }
}

/// Pops the front of the queue up to the batch-size cap (window = 0
/// pops exactly one request). Requests are never split across batches.
fn take_batch(state: &mut State, cfg: &CoalescerConfig) -> Vec<Job> {
    let mut batch = Vec::new();
    let mut rows = 0usize;
    while let Some(job) = state.jobs.front() {
        let take_anyway = batch.is_empty(); // an oversized lone request still runs
        if !take_anyway && (rows + job.n_rows > cfg.max_batch_rows || cfg.window.is_zero()) {
            break;
        }
        let job = state.jobs.pop_front().expect("front exists");
        rows += job.n_rows;
        state.pending_rows -= job.n_rows;
        batch.push(job);
        if cfg.window.is_zero() {
            break;
        }
    }
    batch
}

/// Runs one flushed batch: group jobs by (model version, kind), build
/// one columnar [`Dataset`] per group, run one batch-kernel call, and
/// scatter results back to each job's ticket.
/// Comma-joined sampled request ids in a set of jobs (tracing only).
fn traced_ids(jobs: &[Job], members: Option<&[usize]>) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut push = |job: &Job| {
        if job.req_id != 0 {
            if !out.is_empty() {
                out.push(',');
            }
            let _ = write!(out, "{}", job.req_id);
        }
    };
    match members {
        Some(members) => members.iter().for_each(|&i| push(&jobs[i])),
        None => jobs.iter().for_each(push),
    }
    out
}

fn execute(mut batch: Vec<Job>) {
    if batch.is_empty() {
        return;
    }
    let tracing = obskit::tracing_enabled();
    let batch_started = tracing.then(Instant::now);
    let total_rows: usize = batch.iter().map(|j| j.n_rows).sum();
    metrics::incr(Metric::ServeBatches);
    metrics::observe(Hist::ServeBatchRows, total_rows as u64);
    if tracing {
        // Retroactive queue-wait spans: enqueue → flush, one per
        // sampled request.
        for job in &batch {
            if job.req_id != 0 {
                obskit::span::complete_since(
                    "serve",
                    "serve.queue_wait",
                    job.enqueued,
                    &[("req_id", &job.req_id), ("rows", &job.n_rows)],
                );
            }
        }
    }

    // Group by identity of the captured model version + kind. Batches
    // are small (≤ max_batch_rows) and the distinct-group count tiny,
    // so a linear scan beats hashing.
    let mut groups: Vec<(usize, RequestKind, Vec<usize>)> = Vec::new();
    for (i, job) in batch.iter().enumerate() {
        let model_ptr = Arc::as_ptr(&job.model) as usize;
        match groups
            .iter_mut()
            .find(|(p, k, _)| *p == model_ptr && *k == job.kind)
        {
            Some((_, _, members)) => members.push(i),
            None => groups.push((model_ptr, job.kind, vec![i])),
        }
    }

    let n_groups = groups.len();
    for (_, kind, members) in groups {
        let model = Arc::clone(&batch[members[0]].model);
        let engine = &model.engine;
        let group_rows: usize = members.iter().map(|&i| batch[i].n_rows).sum();
        let mut ds = Dataset::with_capacity(group_rows);
        let label = ds.add_benchmark("serve");
        for &i in &members {
            for row in batch[i].rows.chunks_exact(N_EVENTS) {
                ds.push(Sample::from_densities(0.0, row), label);
            }
        }
        match kind {
            RequestKind::Predict => {
                metrics::add(Metric::ServeRowsPredicted, group_rows as u64);
                let engine_started = tracing.then(Instant::now);
                let out = engine.predict_batch(&ds);
                if let Some(started) = engine_started {
                    obskit::span::complete_since(
                        "serve",
                        "serve.engine",
                        started,
                        &[
                            ("kind", &"predict"),
                            ("rows", &group_rows),
                            ("req_ids", &traced_ids(&batch, Some(&members))),
                        ],
                    );
                }
                let mut offsets = Vec::with_capacity(members.len());
                let mut offset = 0;
                for &i in &members {
                    offsets.push(offset);
                    offset += batch[i].n_rows;
                }
                // Resolve in *reverse* submit order: a pipelined handler
                // blocks on its oldest outstanding ticket, so resolving
                // that one last delivers one wakeup per handler per
                // batch — everything submitted after it is already
                // collectable when the handler runs again.
                for (&i, &off) in members.iter().zip(&offsets).rev() {
                    let n = batch[i].n_rows;
                    // Reuse the job's own row buffer as the result
                    // storage: one allocation per request instead of
                    // two, and the hot single-row case never touches
                    // the allocator here at all.
                    let mut slot = std::mem::take(&mut batch[i].rows);
                    slot.clear();
                    slot.extend_from_slice(&out[off..off + n]);
                    record_resolved(&batch[i]);
                    resolve(&batch[i].ticket, Outcome::Predictions(slot));
                }
            }
            RequestKind::Classify => {
                metrics::add(Metric::ServeRowsClassified, group_rows as u64);
                let engine_started = tracing.then(Instant::now);
                let out = engine.classify_batch(&ds);
                if let Some(started) = engine_started {
                    obskit::span::complete_since(
                        "serve",
                        "serve.engine",
                        started,
                        &[
                            ("kind", &"classify"),
                            ("rows", &group_rows),
                            ("req_ids", &traced_ids(&batch, Some(&members))),
                        ],
                    );
                }
                let mut offsets = Vec::with_capacity(members.len());
                let mut offset = 0;
                for &i in &members {
                    offsets.push(offset);
                    offset += batch[i].n_rows;
                }
                for (&i, &off) in members.iter().zip(&offsets).rev() {
                    let job = &batch[i];
                    let slice = out[off..off + job.n_rows].to_vec();
                    record_resolved(job);
                    resolve(&job.ticket, Outcome::Classes(slice));
                }
            }
        }
    }
    ring::record(
        FlightKind::BatchFlushed,
        batch.len() as u64,
        total_rows as u64,
        n_groups as u64,
    );
    if let Some(started) = batch_started {
        obskit::span::complete_since(
            "serve",
            "serve.batch",
            started,
            &[
                ("jobs", &batch.len()),
                ("rows", &total_rows),
                ("req_ids", &traced_ids(&batch, None)),
            ],
        );
    }
}

/// Flight-records the resolution of a sampled request (id, rows,
/// submit→resolve µs). Untraced jobs cost one branch.
fn record_resolved(job: &Job) {
    if job.req_id != 0 {
        ring::record(
            FlightKind::RequestResolved,
            job.req_id,
            job.n_rows as u64,
            u64::try_from(job.enqueued.elapsed().as_micros()).unwrap_or(u64::MAX),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelRegistry;
    use modeltree::{M5Config, ModelTree};
    use perfcounters::{Dataset as Ds, EventId, Sample as S};

    fn version() -> Arc<ModelVersion> {
        let mut ds = Ds::new();
        let b = ds.add_benchmark("toy");
        for i in 0..300 {
            let hot = i % 2 == 0;
            let mut s = S::zeros(if hot { 0.5 } else { 1.5 });
            s.set(EventId::DtlbMiss, if hot { 1e-4 } else { 3e-4 });
            s.set(EventId::Load, 0.1 + (i as f64) * 1e-3);
            ds.push(s, b);
        }
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        ModelRegistry::new().register_tree("toy", &tree)
    }

    fn row(dtlb: f64, load: f64) -> Vec<f64> {
        let mut s = S::zeros(0.0);
        s.set(EventId::DtlbMiss, dtlb);
        s.set(EventId::Load, load);
        s.densities().to_vec()
    }

    #[test]
    fn size_trigger_flushes_before_window() {
        let model = version();
        // A one-hour window: only the size trigger can flush.
        let c = Coalescer::start(CoalescerConfig {
            window: Duration::from_secs(3600),
            max_batch_rows: 4,
            queue_rows: 1000,
        });
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| {
                c.submit(
                    Arc::clone(&model),
                    RequestKind::Predict,
                    row(1e-4 * (i + 1) as f64, 0.2),
                )
                .unwrap()
            })
            .collect();
        for t in tickets {
            match t.wait() {
                Outcome::Predictions(p) => assert_eq!(p.len(), 1),
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn window_trigger_flushes_partial_batch() {
        let model = version();
        let c = Coalescer::start(CoalescerConfig {
            window: Duration::from_millis(5),
            max_batch_rows: 1 << 20,
            queue_rows: 1 << 20,
        });
        let t = c
            .submit(Arc::clone(&model), RequestKind::Classify, row(1e-4, 0.2))
            .unwrap();
        // One lone request, far below the size trigger: the window
        // timer must still flush it.
        match t.wait() {
            Outcome::Classes(cs) => assert_eq!(cs.len(), 1),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn window_zero_is_one_request_per_batch() {
        let model = version();
        let c = Coalescer::start(CoalescerConfig {
            window: Duration::ZERO,
            max_batch_rows: 4096,
            queue_rows: 1 << 20,
        });
        obskit::set_enabled(true, false);
        let before = metrics::value(Metric::ServeBatches);
        let tickets: Vec<Ticket> = (0..8)
            .map(|_| {
                c.submit(Arc::clone(&model), RequestKind::Predict, row(1e-4, 0.2))
                    .unwrap()
            })
            .collect();
        for t in tickets {
            assert!(matches!(t.wait(), Outcome::Predictions(_)));
        }
        let batches = metrics::value(Metric::ServeBatches) - before;
        obskit::set_enabled(false, false);
        assert_eq!(batches, 8, "window=0 must never coalesce");
    }

    #[test]
    fn backpressure_rejects_when_full_and_recovers() {
        let model = version();
        // A long window and a tiny row bound: the first submit parks in
        // the queue, the second must bounce.
        let c = Coalescer::start(CoalescerConfig {
            window: Duration::from_millis(50),
            max_batch_rows: 1 << 20,
            queue_rows: 2,
        });
        let first = c
            .submit(
                Arc::clone(&model),
                RequestKind::Predict,
                [row(1e-4, 0.1), row(2e-4, 0.2)].concat(),
            )
            .unwrap();
        assert_eq!(
            c.submit(Arc::clone(&model), RequestKind::Predict, row(1e-4, 0.3))
                .err(),
            Some(SubmitError::Busy)
        );
        assert!(matches!(first.wait(), Outcome::Predictions(p) if p.len() == 2));
        // Queue drained: submits are admitted again.
        let retry = c
            .submit(Arc::clone(&model), RequestKind::Predict, row(1e-4, 0.3))
            .unwrap();
        assert!(matches!(retry.wait(), Outcome::Predictions(_)));
    }

    #[test]
    fn batched_results_are_bit_identical_to_direct_calls() {
        let model = version();
        let c = Coalescer::start(CoalescerConfig {
            window: Duration::from_millis(2),
            max_batch_rows: 4096,
            queue_rows: 1 << 20,
        });
        let rows: Vec<Vec<f64>> = (0..64)
            .map(|i| row(4e-4 * (i as f64) / 64.0, 0.01 * i as f64))
            .collect();
        let tickets: Vec<Ticket> = rows
            .iter()
            .map(|r| {
                c.submit(Arc::clone(&model), RequestKind::Predict, r.clone())
                    .unwrap()
            })
            .collect();
        for (r, t) in rows.iter().zip(tickets) {
            let Outcome::Predictions(got) = t.wait() else {
                panic!("expected predictions")
            };
            let expect = model.engine.predict(&S::from_densities(0.0, r));
            assert_eq!(got[0].to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn mixed_kinds_and_oversized_requests_in_one_queue() {
        let model = version();
        let c = Coalescer::start(CoalescerConfig {
            window: Duration::from_millis(2),
            max_batch_rows: 4, // rows per flush; a 10-row request exceeds it alone
            queue_rows: 1 << 20,
        });
        let big: Vec<f64> = (0..10).flat_map(|i| row(1e-4 * i as f64, 0.1)).collect();
        let t_big = c
            .submit(Arc::clone(&model), RequestKind::Predict, big)
            .unwrap();
        let t_cls = c
            .submit(Arc::clone(&model), RequestKind::Classify, row(3e-4, 0.2))
            .unwrap();
        assert!(matches!(t_big.wait(), Outcome::Predictions(p) if p.len() == 10));
        assert!(matches!(t_cls.wait(), Outcome::Classes(cs) if cs.len() == 1));
    }

    #[test]
    fn drop_drains_pending_requests() {
        let model = version();
        let c = Coalescer::start(CoalescerConfig {
            window: Duration::from_secs(3600),
            max_batch_rows: 1 << 20,
            queue_rows: 1 << 20,
        });
        // Far below both triggers; only the drop-drain can flush it.
        let t = c
            .submit(Arc::clone(&model), RequestKind::Predict, row(1e-4, 0.2))
            .unwrap();
        drop(c);
        assert!(matches!(t.wait(), Outcome::Predictions(_)));
    }
}
