//! Sliding-window refit against a sealed container.
//!
//! Drift tracking: the trainer refits over a window of recent rows as
//! the stream advances. Each window is keyed by a content fingerprint —
//! the hashes of the chunks covering it, the row range, and the full
//! M5' configuration — and resolved through the artifact store, so a
//! window whose bytes were already fitted (by this process, an earlier
//! run, or another machine sharing the store) warm-starts from the
//! cached tree instead of training. A corrupt cached artifact is
//! evicted by the store and the window is refitted; a corrupt *chunk*
//! surfaces as a typed [`CodecError`] for the caller's
//! evict-and-recompute path ([`crate::StreamPlan::chunk_body`] +
//! [`pipeline::chunked::ChunkedReader::rewrite_chunk`]).
//!
//! Peak memory is one window plus one chunk — never the container.

use modeltree::{M5Config, ModelTree};
use obskit::metrics::{self, Hist, Metric};
use pipeline::chunked::ChunkedReader;
use pipeline::codec::CodecError;
use pipeline::{ArtifactStore, Fingerprint, FingerprintHasher, Fingerprintable};
use std::io::{Read, Seek};
use std::ops::Range;

/// Streaming-layer error: a typed union of the layers a refit crosses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// Container decode failure (corruption, truncation, staleness).
    Codec(CodecError),
    /// Trainer failure (degenerate window).
    Train(String),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Codec(e) => write!(f, "container: {e}"),
            StreamError::Train(e) => write!(f, "trainer: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<CodecError> for StreamError {
    fn from(e: CodecError) -> Self {
        StreamError::Codec(e)
    }
}

/// Sliding-window refit parameters.
#[derive(Debug, Clone)]
pub struct RefitConfig {
    /// Rows per window.
    pub window_rows: u64,
    /// Rows the window slides between refits.
    pub stride: u64,
    /// Trainer configuration shared by every window.
    pub config: M5Config,
}

impl RefitConfig {
    /// A window of `window_rows` sliding by half a window.
    pub fn new(window_rows: u64, config: M5Config) -> Self {
        RefitConfig {
            window_rows: window_rows.max(1),
            stride: (window_rows / 2).max(1),
            config,
        }
    }

    /// Sets the stride.
    #[must_use]
    pub fn with_stride(mut self, stride: u64) -> Self {
        self.stride = stride.max(1);
        self
    }

    /// The window row ranges over a container of `total` rows: strided
    /// starts while a full window fits, or one clamped window when the
    /// container is shorter than a window. Empty containers get none.
    pub fn windows(&self, total: u64) -> Vec<Range<u64>> {
        if total == 0 {
            return Vec::new();
        }
        if total <= self.window_rows {
            return std::iter::once(0..total).collect();
        }
        let mut out = Vec::new();
        let mut start = 0;
        while start + self.window_rows <= total {
            out.push(start..start + self.window_rows);
            start += self.stride;
        }
        out
    }
}

/// Out-of-window holdout evaluation: the window's tree scored on the
/// rows the stride slides into next — the stream's forward-looking
/// drift signal.
#[derive(Debug, Clone, PartialEq)]
pub struct Holdout {
    /// Global row range evaluated (at most one stride past the window).
    pub rows: Range<u64>,
    /// Mean absolute CPI error of the window's tree over those rows.
    pub mae: f64,
}

/// One refitted (or cache-warmed) window.
#[derive(Debug, Clone)]
pub struct WindowFit {
    /// Global row range the model was fitted over.
    pub window: Range<u64>,
    /// Content key of the window (chunk hashes + range + config).
    pub fingerprint: Fingerprint,
    /// Whether the tree came from the artifact store without training.
    pub cached: bool,
    /// Wall-clock nanoseconds the resolution took (load or fit+store).
    pub refit_ns: u64,
    /// Holdout MAE over the next stride of rows; `None` for the last
    /// window of a container (no rows follow it).
    pub holdout: Option<Holdout>,
    /// The fitted model.
    pub tree: ModelTree,
}

/// The artifact-store key of one window of one container under one
/// trainer configuration. Pure content: two runs that sealed identical
/// chunks produce identical keys, so refit caching is shareable across
/// processes exactly like the batch pipeline's artifacts.
pub fn window_key<R: Read + Seek>(
    reader: &ChunkedReader<R>,
    window: &Range<u64>,
    config: &M5Config,
) -> Fingerprint {
    let mut h = FingerprintHasher::new("stream-window-tree");
    let content = reader.window_fingerprint(window, "stream-window");
    h.write_u64(content.0 as u64);
    h.write_u64((content.0 >> 64) as u64);
    config.fingerprint_into(&mut h);
    h.finish()
}

/// Refits every window of the container, warm-starting from the
/// artifact store. Returns the fits in window order.
///
/// # Errors
///
/// Propagates chunk corruption as [`StreamError::Codec`] (the caller
/// decides whether to recompute via the plan) and trainer failures as
/// [`StreamError::Train`].
pub fn windowed_refit<R: Read + Seek>(
    reader: &mut ChunkedReader<R>,
    store: &ArtifactStore,
    cfg: &RefitConfig,
) -> Result<Vec<WindowFit>, StreamError> {
    let total = reader.n_rows();
    let mut fits = Vec::new();
    for window in cfg.windows(total) {
        let mut fit = refit_window(reader, store, cfg, window)?;
        fit.holdout = holdout_eval(reader, &fit, cfg.stride, total)?;
        publish_holdout(&fit);
        fits.push(fit);
    }
    Ok(fits)
}

/// Scores a window's tree on the rows one stride past the window — the
/// data the *next* refit will train on, so a rising MAE here is drift
/// announcing itself before it lands in a model. `None` when no rows
/// follow the window. Always computed (the value is part of the
/// returned fit, telemetry on or off), so the determinism contract is
/// trivially preserved.
///
/// # Errors
///
/// Chunk corruption in the holdout range surfaces exactly like window
/// corruption: [`StreamError::Codec`].
pub fn holdout_eval<R: Read + Seek>(
    reader: &mut ChunkedReader<R>,
    fit: &WindowFit,
    stride: u64,
    total: u64,
) -> Result<Option<Holdout>, StreamError> {
    let rows = fit.window.end..(fit.window.end + stride).min(total);
    if rows.is_empty() {
        return Ok(None);
    }
    let data = reader.window_dataset(rows.clone())?;
    // The interpreted tree on a row view, not `predict_batch`: with
    // smoothing the two agree only to ~1e-10, and the drift gauge must
    // stay bit-identical.
    let mut abs_sum = 0.0;
    for (sample, _) in data.iter() {
        abs_sum += (fit.tree.predict(&sample) - sample.cpi()).abs();
    }
    let mae = abs_sum / data.len() as f64;
    Ok(Some(Holdout { rows, mae }))
}

/// Publishes a fit's holdout MAE: the live drift gauge the SLO monitors
/// watch ([`obskit::monitor::MonitorSet::refit_drift`]), a microunit
/// histogram for distribution-over-windows, and a flight-recorder
/// breadcrumb tying the value back to its row range.
fn publish_holdout(fit: &WindowFit) {
    let Some(holdout) = &fit.holdout else { return };
    metrics::gauge_set_f64(Metric::StreamRefitHoldoutMae, holdout.mae);
    metrics::observe(Hist::StreamRefitHoldoutMaeMicro, (holdout.mae * 1e6) as u64);
    obskit::ring::record(
        obskit::ring::FlightKind::RefitWindow,
        fit.window.start,
        fit.window.end,
        holdout.mae.to_bits(),
    );
}

/// Resolves one window: artifact-store hit or fit-and-store.
///
/// # Errors
///
/// See [`windowed_refit`].
pub fn refit_window<R: Read + Seek>(
    reader: &mut ChunkedReader<R>,
    store: &ArtifactStore,
    cfg: &RefitConfig,
    window: Range<u64>,
) -> Result<WindowFit, StreamError> {
    let started = std::time::Instant::now();
    let key = window_key(reader, &window, &cfg.config);
    if let Ok(tree) = store.load_tree(key) {
        metrics::incr(Metric::StreamRefitCacheHits);
        let refit_ns = started.elapsed().as_nanos() as u64;
        metrics::observe(Hist::StreamRefitNs, refit_ns);
        return Ok(WindowFit {
            window,
            fingerprint: key,
            cached: true,
            refit_ns,
            holdout: None,
            tree,
        });
    }
    // Miss — or a corrupt cached artifact, which load_tree evicted.
    let data = reader.window_dataset(window.clone())?;
    let tree = ModelTree::fit(&data, &cfg.config).map_err(|e| StreamError::Train(e.to_string()))?;
    if let Err(e) = store.store_tree(key, &tree) {
        // A read-only or full store degrades caching, not correctness.
        obskit::span::emit("stream", "store_tree_failed", &[("error", &e)], false);
    }
    metrics::incr(Metric::StreamRefits);
    let refit_ns = started.elapsed().as_nanos() as u64;
    metrics::observe(Hist::StreamRefitNs, refit_ns);
    Ok(WindowFit {
        window,
        fingerprint: key,
        cached: false,
        refit_ns,
        holdout: None,
        tree,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_stream, FleetConfig, StreamConfig, StreamPlan};
    use std::io::Cursor;
    use std::path::PathBuf;

    fn temp_store(tag: &str) -> (ArtifactStore, PathBuf) {
        let root =
            std::env::temp_dir().join(format!("specrepro-refit-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        (ArtifactStore::open(&root), root)
    }

    fn sealed_container(tag: &str, cfg: &StreamConfig) -> Vec<u8> {
        let path = std::env::temp_dir().join(format!(
            "specrepro-refit-container-{tag}-{}.spdc",
            std::process::id()
        ));
        run_stream(cfg, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        bytes
    }

    #[test]
    fn windows_cover_and_clamp() {
        let cfg = RefitConfig::new(100, M5Config::default()).with_stride(50);
        assert_eq!(cfg.windows(0), Vec::<Range<u64>>::new());
        assert_eq!(cfg.windows(60), vec![0..60]);
        assert_eq!(cfg.windows(200), vec![0..100, 50..150, 100..200]);
    }

    #[test]
    fn refit_matches_in_memory_fit_and_caches() {
        let scfg = StreamConfig::new(FleetConfig::cpu2006(40, 10, 17))
            .with_shards(3)
            .with_chunk_rows(32);
        let plan = StreamPlan::new(&scfg);
        let bytes = sealed_container("hit", &scfg);
        let (store, root) = temp_store("hit");
        let rcfg = RefitConfig::new(200, M5Config::default().with_min_leaf(10));

        let mut reader = ChunkedReader::open(Cursor::new(&bytes)).unwrap();
        let fits = windowed_refit(&mut reader, &store, &rcfg).unwrap();
        assert!(!fits.is_empty());
        assert!(fits.iter().all(|f| !f.cached));

        // Differential: each window's OOC fit equals the in-memory fit
        // over the same rows of the naive oracle dataset.
        let naive = plan.naive_dataset();
        for fit in &fits {
            let rows: Vec<u32> = (fit.window.start as u32..fit.window.end as u32).collect();
            let direct = ModelTree::fit_indices(&naive, &rows, &rcfg.config).unwrap();
            assert_eq!(
                fit.tree.predict(&naive.sample(rows[0] as usize)).to_bits(),
                direct.predict(&naive.sample(rows[0] as usize)).to_bits()
            );
        }

        // Second pass over identical bytes: every window warm-starts.
        let mut reader = ChunkedReader::open(Cursor::new(&bytes)).unwrap();
        let again = windowed_refit(&mut reader, &store, &rcfg).unwrap();
        assert!(again.iter().all(|f| f.cached), "cache missed on replay");
        for (a, b) in fits.iter().zip(&again) {
            assert_eq!(a.fingerprint, b.fingerprint);
            assert_eq!(
                a.tree.predict(&naive.sample(0)).to_bits(),
                b.tree.predict(&naive.sample(0)).to_bits()
            );
        }
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn holdout_drift_monitor_fires_on_injected_regression() {
        use obskit::metrics::Snapshot;
        use obskit::monitor::MonitorSet;

        let scfg = StreamConfig::new(FleetConfig::cpu2006(60, 12, 23))
            .with_shards(2)
            .with_chunk_rows(64);
        let bytes = sealed_container("drift", &scfg);
        let (store, root) = temp_store("drift");

        let good = RefitConfig::new(150, M5Config::default().with_min_leaf(10)).with_stride(75);
        let mut reader = ChunkedReader::open(Cursor::new(&bytes)).unwrap();
        let fits = windowed_refit(&mut reader, &store, &good).unwrap();
        let maes: Vec<f64> = fits
            .iter()
            .filter_map(|f| f.holdout.as_ref().map(|h| h.mae))
            .collect();
        // A window has a forward holdout exactly when rows follow it.
        assert!(maes.len() >= 3, "need several holdout windows");
        let total = fits.last().unwrap().window.end.max(fits[0].window.end);
        for fit in &fits {
            match &fit.holdout {
                Some(h) => {
                    assert_eq!(h.rows.start, fit.window.end);
                    assert!(h.mae.is_finite() && h.mae >= 0.0);
                }
                None => assert_eq!(fit.window.end, total),
            }
        }

        // Inject drift: an underfit trainer (min_leaf swallows whole
        // windows) over the same container collapses each window to a
        // near-constant model, regressing the forward-looking MAE.
        let underfit =
            RefitConfig::new(150, M5Config::default().with_min_leaf(100_000)).with_stride(75);
        let mut reader = ChunkedReader::open(Cursor::new(&bytes)).unwrap();
        let bad = windowed_refit(&mut reader, &store, &underfit).unwrap();
        let bad_mae = bad[0].holdout.as_ref().unwrap().mae;
        let baseline = maes.iter().sum::<f64>() / maes.len() as f64;
        assert!(
            bad_mae > baseline * 1.5,
            "underfit holdout MAE {bad_mae} does not regress past baseline {baseline}"
        );

        // Feed the gauge values through the drift monitor exactly as
        // /healthz would see them: healthy windows build the rolling
        // baseline silently, the regressed window fires.
        let mut mon = MonitorSet::refit_drift(8, 3, 0.5);
        let snap_of = |mae: f64| Snapshot {
            float_gauges: vec![("stream.refit_holdout_mae", mae)],
            ..Snapshot::default()
        };
        for &mae in &maes {
            let alerts = mon.evaluate(&snap_of(mae));
            assert!(alerts.is_empty(), "healthy window fired: {alerts:?}");
        }
        let alerts = mon.evaluate(&snap_of(bad_mae));
        assert_eq!(alerts.len(), 1, "drift monitor did not fire");
        assert_eq!(alerts[0].rule, "stream-refit-mae-drift");
        assert_eq!(alerts[0].value, bad_mae);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn key_tracks_config_and_content() {
        let scfg = StreamConfig::new(FleetConfig::cpu2006(20, 6, 5)).with_chunk_rows(16);
        let bytes = sealed_container("key", &scfg);
        let reader = ChunkedReader::open(Cursor::new(&bytes)).unwrap();
        let base = M5Config::default();
        let a = window_key(&reader, &(0..50), &base);
        assert_eq!(a, window_key(&reader, &(0..50), &base));
        assert_ne!(a, window_key(&reader, &(0..60), &base));
        assert_ne!(a, window_key(&reader, &(0..50), &base.with_min_leaf(3)));
    }
}
