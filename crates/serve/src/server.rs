//! The HTTP edge: accept loop, per-connection handlers, endpoint
//! dispatch, and request hardening.
//!
//! Thread model (epoll-free on purpose — blocking `std::net` sockets
//! and OS threads are the `std`-only analogue of the vendored-stub
//! philosophy): one acceptor thread plus one handler thread per live
//! connection, capped at [`ServerConfig::max_connections`] (503 beyond
//! the cap). Handlers don't compute predictions; they parse, validate,
//! and hand rows to the shared [`Coalescer`], which is where the
//! cross-connection batching happens.
//!
//! **Pipelining is the throughput lever:** a handler first parses and
//! submits *every* complete request sitting in its read buffer, and
//! only then blocks on the tickets in order, writing all responses in
//! one buffered write. A single keep-alive connection streaming
//! requests can therefore fill a whole coalescer batch between two
//! socket reads.
//!
//! Endpoints:
//!
//! | method+path      | behavior                                              |
//! |------------------|-------------------------------------------------------|
//! | `POST /predict`      | CPI per row; text or JSON body (see `parse_rows`)     |
//! | `POST /classify`     | 1-based linear-model number per row                   |
//! | `GET  /healthz`      | `ok\n` + `name@version` models, uptime, SLO monitors  |
//! | `GET  /metrics`      | obskit metrics: JSON, or OpenMetrics when negotiated  |
//! | `POST /swap`         | hot-swap: load `{"model","key"}` from the store       |
//! | `POST /debug/flight` | dump the flight-recorder ring as JSON                 |
//! | `POST /shutdown`     | acknowledge, then stop accepting and drain            |
//!
//! `/metrics` content negotiation: JSON stays the default (back-compat
//! for existing scrapers); `?format=prom` / `?format=openmetrics` or an
//! `Accept` mentioning `openmetrics` selects the Prometheus-style text
//! exposition ([`obskit::prom`]); `?format=json` forces JSON.
//!
//! Every 200 to `/predict`/`/classify` carries `X-Model-Version` (the
//! registry fingerprint), pinning observed predictions to an exact
//! model version even across concurrent hot swaps. When tracing is on,
//! one request in `SPECREPRO_TRACE_SAMPLE` is assigned a request id
//! from a lock-free allocator; the id rides the coalescer into the
//! queue-wait/batch/engine spans, tags the request's own parse and
//! respond spans, and is echoed in `X-Request-Id` — one Chrome-trace
//! export reconstructs the request's whole path. With tracing off the
//! sampler costs a single relaxed atomic load.
//!

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use obskit::metrics::{self, Hist, Metric};
use obskit::monitor::MonitorSet;
use obskit::ring::{self, FlightKind};
use perfcounters::events::N_EVENTS;
use pipeline::{ArtifactStore, Fingerprint};
use serde_json::Value;

use crate::coalesce::{Coalescer, CoalescerConfig, Outcome, RequestKind, SubmitError, Ticket};
use crate::http::{self, Request};
use crate::registry::{ModelRegistry, ModelVersion};

/// Rows one request may carry; more is shed with 413 so a single client
/// cannot monopolize batches or balloon handler memory.
pub const MAX_ROWS_PER_REQUEST: usize = 16 * 1024;

/// Handler socket-read timeout: the granularity at which parked
/// connections notice a server shutdown.
const READ_TIMEOUT: Duration = Duration::from_millis(100);

/// Server knobs. `Default` binds an ephemeral loopback port with the
/// default batching policy.
#[derive(Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` (0 = ephemeral port).
    pub addr: String,
    /// Batching policy for the shared coalescer.
    pub coalescer: CoalescerConfig,
    /// Live-connection cap; accepts beyond it get an immediate 503.
    pub max_connections: usize,
    /// Artifact store backing `POST /swap` (`None` disables swapping).
    pub store: Option<ArtifactStore>,
    /// Model served when a request names none. Defaults to the sole
    /// registered model; with several registered, nameless requests are
    /// rejected with 400.
    pub default_model: Option<String>,
    /// SLO monitor rules evaluated on every `GET /healthz`. Defaults to
    /// none (body stays exactly `ok\n`); `specrepro serve` installs
    /// [`MonitorSet::standard_serve`].
    pub monitors: MonitorSet,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            coalescer: CoalescerConfig::default(),
            max_connections: 64,
            store: None,
            default_model: None,
            monitors: MonitorSet::new(),
        }
    }
}

/// A running prediction server. Dropping it (or calling
/// [`Server::shutdown`]) stops the acceptor, drains handlers, and
/// resolves every in-flight request.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

struct Shared {
    registry: Arc<ModelRegistry>,
    coalescer: Coalescer,
    stop: AtomicBool,
    active: AtomicUsize,
    addr: SocketAddr,
    max_connections: usize,
    store: Option<ArtifactStore>,
    default_model: Option<String>,
    started: Instant,
    monitors: Mutex<MonitorSet>,
}

impl Server {
    /// Binds and starts serving `registry` with the given config.
    pub fn start(registry: Arc<ModelRegistry>, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            registry,
            coalescer: Coalescer::start(cfg.coalescer),
            stop: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            addr,
            max_connections: cfg.max_connections,
            store: cfg.store,
            default_model: cfg.default_model,
            started: Instant::now(),
            monitors: Mutex::new(cfg.monitors),
        });
        let accept_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("serve-acceptor".into())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        obskit::emit(
            "serve",
            "serve.listening",
            &[("addr", &addr)],
            obskit::log_env_enabled(),
        );
        Ok(Server {
            addr,
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (with the real port when `addr` asked for 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once `/shutdown` has been received (or [`Server::shutdown`]
    /// called).
    pub fn stopping(&self) -> bool {
        self.shared.stop.load(Ordering::Acquire)
    }

    /// Blocks until the server stops (a `/shutdown` request arrives)
    /// and every connection has drained.
    pub fn join(mut self) {
        self.stop_and_drain(false);
    }

    /// Stops accepting, drains live connections, and returns.
    pub fn shutdown(mut self) {
        self.stop_and_drain(true);
    }

    fn stop_and_drain(&mut self, initiate: bool) {
        if initiate {
            self.shared.stop.store(true, Ordering::Release);
        }
        // Unblock the acceptor's blocking accept() with a no-op
        // connection; if the trigger was /shutdown the handler already
        // did this, but a second poke is harmless.
        if let Some(handle) = self.acceptor.take() {
            if initiate {
                let _ = TcpStream::connect(self.addr);
            }
            let _ = handle.join();
        }
        // Handlers notice the stop flag within one read timeout.
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.shared.active.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.stop_and_drain(true);
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if shared.active.load(Ordering::Acquire) >= shared.max_connections {
            // Over the cap: a one-shot 503 without spawning anything.
            let mut out = Vec::new();
            http::write_response(
                &mut out,
                503,
                http::reason_of(503),
                &[("Retry-After", "1"), ("Connection", "close")],
                b"connection limit reached\n",
            );
            let mut stream = stream;
            let _ = stream.write_all(&out);
            continue;
        }
        metrics::incr(Metric::ServeConnections);
        shared.active.fetch_add(1, Ordering::AcqRel);
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("serve-conn".into())
            .spawn(move || {
                handle_connection(stream, &conn_shared);
                conn_shared.active.fetch_sub(1, Ordering::AcqRel);
            });
        if spawned.is_err() {
            shared.active.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// What a dispatched request resolves to: an immediate response, or a
/// coalescer ticket to await after the whole read buffer is drained.
enum Reply {
    Now(Vec<u8>),
    Pending {
        ticket: Ticket,
        version: Arc<ModelVersion>,
        json: bool,
        start: Instant,
        /// Trace request id; 0 = not sampled.
        req_id: u64,
    },
}

/// Sentinel meaning "env not parsed yet" in [`TRACE_SAMPLE`].
const TRACE_SAMPLE_UNSET: u64 = u64::MAX;
static TRACE_SAMPLE: AtomicU64 = AtomicU64::new(TRACE_SAMPLE_UNSET);
static NEXT_REQUEST: AtomicU64 = AtomicU64::new(0);

/// Overrides `SPECREPRO_TRACE_SAMPLE` programmatically (tests, CLI
/// flags): sample one request in `every`; `0` turns request ids off
/// without touching tracing itself.
pub fn set_trace_sample(every: u64) {
    let every = if every == TRACE_SAMPLE_UNSET {
        0
    } else {
        every
    };
    TRACE_SAMPLE.store(every, Ordering::Relaxed);
}

fn trace_sample_every() -> u64 {
    let cached = TRACE_SAMPLE.load(Ordering::Relaxed);
    if cached != TRACE_SAMPLE_UNSET {
        return cached;
    }
    let parsed = std::env::var("SPECREPRO_TRACE_SAMPLE")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(1);
    let parsed = if parsed == TRACE_SAMPLE_UNSET {
        0
    } else {
        parsed
    };
    TRACE_SAMPLE.store(parsed, Ordering::Relaxed);
    parsed
}

/// Allocates a request id when this request is sampled for tracing,
/// `0` otherwise. Ids come off a lock-free ordinal counter, so a
/// sampled id is unique for the process lifetime and doubles as the
/// request's arrival rank. With tracing disabled the cost is exactly
/// the one relaxed load inside [`obskit::tracing_enabled`].
fn sample_req_id() -> u64 {
    if !obskit::tracing_enabled() {
        return 0;
    }
    let every = trace_sample_every();
    if every == 0 {
        return 0;
    }
    let ordinal = NEXT_REQUEST.fetch_add(1, Ordering::Relaxed);
    if ordinal.is_multiple_of(every) {
        ordinal + 1 // ids are 1-based; 0 means "not sampled"
    } else {
        0
    }
}

/// 429s inside one second that trigger a flight-recorder autodump.
const SHED_BURST_THRESHOLD: u64 = 64;
static SHED_WINDOW_START_US: AtomicU64 = AtomicU64::new(0);
static SHED_COUNT: AtomicU64 = AtomicU64::new(0);

/// Counts a load shed and autodumps the flight ring on a burst. The
/// window arithmetic is deliberately racy — a lost count under
/// contention merely delays a diagnostic dump by one shed.
fn note_shed() {
    if !obskit::ring_enabled() {
        return;
    }
    let now = obskit::span::now_us();
    let start = SHED_WINDOW_START_US.load(Ordering::Relaxed);
    if now.saturating_sub(start) > 1_000_000 {
        SHED_WINDOW_START_US.store(now, Ordering::Relaxed);
        SHED_COUNT.store(1, Ordering::Relaxed);
        return;
    }
    if SHED_COUNT.fetch_add(1, Ordering::Relaxed) + 1 >= SHED_BURST_THRESHOLD {
        SHED_COUNT.store(0, Ordering::Relaxed);
        ring::autodump("shed-burst");
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let mut buf: Vec<u8> = Vec::with_capacity(16 * 1024);
    let mut chunk = [0u8; 64 * 1024];
    let mut out: Vec<u8> = Vec::with_capacity(16 * 1024);
    let mut scratch = String::with_capacity(256);
    'conn: loop {
        if shared.stop.load(Ordering::Acquire) && buf.is_empty() {
            return;
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        };
        buf.extend_from_slice(&chunk[..n]);

        // Pipelining: drain every complete request before awaiting any
        // ticket, so co-buffered requests share one coalescer batch.
        let mut replies: Vec<Reply> = Vec::new();
        let mut close_after = false;
        let mut consumed = 0usize;
        loop {
            match http::parse_request(&buf[consumed..]) {
                Ok(Some((request, used))) => {
                    consumed += used;
                    if !request.keep_alive {
                        close_after = true;
                    }
                    replies.push(dispatch(&request, shared));
                    if close_after {
                        break;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // Unsalvageable stream: flush what preceded the
                    // garbage, then answer it and close.
                    replies.push(Reply::Now(render_error(e.status(), &e.to_string(), true)));
                    close_after = true;
                    consumed = buf.len();
                    break;
                }
            }
        }
        buf.drain(..consumed);

        if replies.is_empty() {
            continue;
        }
        out.clear();
        for reply in replies {
            match reply {
                Reply::Now(bytes) => out.extend_from_slice(&bytes),
                Reply::Pending {
                    ticket,
                    version,
                    json,
                    start,
                    req_id,
                } => {
                    let outcome = ticket.wait();
                    let respond_started = (req_id != 0).then(Instant::now);
                    render_outcome(
                        &mut out,
                        &mut scratch,
                        outcome,
                        &version.version,
                        json,
                        req_id,
                    );
                    if let Some(responded) = respond_started {
                        obskit::span::complete_since(
                            "serve",
                            "serve.respond",
                            responded,
                            &[("req_id", &req_id)],
                        );
                        obskit::span::complete_since(
                            "serve",
                            "serve.request",
                            start,
                            &[("req_id", &req_id), ("model", &version.name)],
                        );
                    }
                    metrics::observe(
                        Hist::ServeRequestNs,
                        u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    );
                }
            }
        }
        if stream.write_all(&out).is_err() || close_after {
            break 'conn;
        }
    }
}

fn dispatch(request: &Request<'_>, shared: &Arc<Shared>) -> Reply {
    metrics::incr(Metric::ServeRequests);
    match (request.method, request.path) {
        ("POST", "/predict") => submit_rows(request, shared, RequestKind::Predict),
        ("POST", "/classify") => submit_rows(request, shared, RequestKind::Classify),
        ("GET", "/healthz") => Reply::Now(render_healthz(shared)),
        ("GET", "/metrics") => {
            if wants_openmetrics(request) {
                Reply::Now(render(
                    200,
                    &[("Content-Type", obskit::prom::CONTENT_TYPE)],
                    obskit::prom::prom_text().as_bytes(),
                ))
            } else {
                Reply::Now(render(
                    200,
                    &[("Content-Type", "application/json")],
                    obskit::export::metrics_json().as_bytes(),
                ))
            }
        }
        ("POST", "/debug/flight") => {
            ring::record(FlightKind::Dump, 0, 0, 0);
            metrics::incr(Metric::ObsFlightDumps);
            Reply::Now(render(
                200,
                &[("Content-Type", "application/json")],
                ring::dump_json().as_bytes(),
            ))
        }
        ("POST", "/swap") => Reply::Now(handle_swap(request, shared)),
        ("POST", "/shutdown") => {
            shared.stop.store(true, Ordering::Release);
            // Poke the blocking accept() so the acceptor sees the flag.
            let _ = TcpStream::connect(shared.addr);
            Reply::Now(render(
                200,
                &[("Connection", "close"), ("Content-Type", "text/plain")],
                b"shutting down\n",
            ))
        }
        (_, "/predict" | "/classify" | "/swap" | "/shutdown" | "/debug/flight") => {
            bad(405, "use POST", &[("Allow", "POST")])
        }
        (_, "/healthz" | "/metrics") => bad(405, "use GET", &[("Allow", "GET")]),
        _ => bad(404, "unknown endpoint", &[]),
    }
}

/// `/metrics` format negotiation: an explicit `?format=` wins, then the
/// `Accept` header; JSON is the default so pre-existing scrapers keep
/// receiving byte-compatible documents.
fn wants_openmetrics(request: &Request<'_>) -> bool {
    for pair in request.query.split('&') {
        if let Some(format) = pair.strip_prefix("format=") {
            return matches!(format, "prom" | "prometheus" | "openmetrics");
        }
    }
    request
        .accept
        .is_some_and(|accept| accept.to_ascii_lowercase().contains("openmetrics"))
}

/// `GET /healthz`: liveness plus the operational headlines — per-model
/// version fingerprints (`X-Models: name@version,...`), uptime (also
/// published as the `serve.uptime_seconds` gauge), and the configured
/// SLO monitors evaluated against a fresh metrics snapshot. The body is
/// exactly `ok\n` while no monitor fires; firing monitors append one
/// line each and are counted in `X-Monitors-Firing`.
fn render_healthz(shared: &Shared) -> Vec<u8> {
    use std::fmt::Write as _;
    metrics::gauge_set(
        Metric::ServeUptimeSeconds,
        shared.started.elapsed().as_secs(),
    );
    let mut models = String::new();
    for (i, (name, version)) in shared.registry.versions().iter().enumerate() {
        if i > 0 {
            models.push(',');
        }
        let _ = write!(models, "{name}@{version}");
    }
    let alerts = shared
        .monitors
        .lock()
        .expect("monitor lock poisoned")
        .evaluate(&metrics::snapshot());
    let firing = alerts.len().to_string();
    let mut body = String::from("ok\n");
    for alert in &alerts {
        let _ = writeln!(
            body,
            "monitor {} firing: value {} over threshold {}",
            alert.rule, alert.value, alert.threshold
        );
    }
    render(
        200,
        &[
            ("X-Models", &models),
            ("X-Monitors-Firing", &firing),
            ("Content-Type", "text/plain"),
        ],
        body.as_bytes(),
    )
}

/// `POST /predict` / `POST /classify`: validate, resolve the model
/// version, and enqueue on the coalescer.
fn submit_rows(request: &Request<'_>, shared: &Arc<Shared>, kind: RequestKind) -> Reply {
    let start = Instant::now();
    let json = request.content_type.is_some_and(|t| {
        t.get(.."application/json".len())
            .is_some_and(|p| p.eq_ignore_ascii_case("application/json"))
    });
    let (rows, body_model) = match parse_rows(request.body, json) {
        Ok(parsed) => parsed,
        Err((status, msg)) => return bad(status, &msg, &[]),
    };
    let name = request.model.or(body_model.as_deref());
    let model = match resolve_model(shared, name) {
        Ok(model) => model,
        Err((status, msg)) => return bad(status, &msg, &[]),
    };
    let n_rows = rows.len() / N_EVENTS;
    let req_id = sample_req_id();
    if req_id != 0 {
        metrics::incr(Metric::ServeRequestsTraced);
        obskit::span::complete_since(
            "serve",
            "serve.parse",
            start,
            &[("req_id", &req_id), ("rows", &n_rows)],
        );
    }
    match shared
        .coalescer
        .submit_traced(Arc::clone(&model), kind, rows, req_id)
    {
        Ok(ticket) => Reply::Pending {
            ticket,
            version: model,
            json,
            start,
            req_id,
        },
        Err(SubmitError::Busy) => {
            metrics::incr(Metric::ServeRejectedBusy);
            ring::record(FlightKind::LoadShed, req_id, n_rows as u64, 0);
            note_shed();
            Reply::Now(render_error(429, "prediction queue is full", false))
        }
        Err(SubmitError::ShuttingDown) => {
            Reply::Now(render_error(503, "server is shutting down", false))
        }
    }
}

/// Decodes a request body into row-major densities.
///
/// Text bodies (`text/plain` or untyped): one row per line, either
/// **dense** (exactly `N_EVENTS` floats, comma/space separated) or
/// **sparse** (`index:value` pairs, unset events zero). JSON bodies:
/// `{"rows": [[f64; N_EVENTS], ...], "model": "name"?}`.
///
/// Every value must be finite — anything else is a 400 carrying the
/// engine's own [`modeltree::TreeError::NonFiniteAttribute`] rendering,
/// mirroring what the trainer would say offline.
#[allow(clippy::type_complexity)]
fn parse_rows(body: &[u8], json: bool) -> Result<(Vec<f64>, Option<String>), (u16, String)> {
    let (rows, model, n_rows) = if json {
        parse_rows_json(body)?
    } else {
        parse_rows_text(body)?
    };
    if n_rows == 0 {
        return Err((400, "no rows in request body".into()));
    }
    if n_rows > MAX_ROWS_PER_REQUEST {
        return Err((
            413,
            format!("{n_rows} rows exceeds the {MAX_ROWS_PER_REQUEST}-row request cap"),
        ));
    }
    if let Some(bad) = rows.iter().position(|v| !v.is_finite()) {
        let err = modeltree::TreeError::NonFiniteAttribute(format!(
            "row {} event index {} is {}",
            bad / N_EVENTS,
            bad % N_EVENTS,
            rows[bad]
        ));
        return Err((400, err.to_string()));
    }
    Ok((rows, model))
}

#[allow(clippy::type_complexity)]
fn parse_rows_text(body: &[u8]) -> Result<(Vec<f64>, Option<String>, usize), (u16, String)> {
    let text = std::str::from_utf8(body).map_err(|_| (400, "body is not UTF-8".to_string()))?;
    let mut rows = Vec::new();
    let mut n_rows = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if n_rows >= MAX_ROWS_PER_REQUEST {
            n_rows += 1; // enough to trip the cap check upstream
            break;
        }
        let base = rows.len();
        if line.contains(':') {
            // Sparse: "index:value" pairs.
            rows.resize(base + N_EVENTS, 0.0);
            for token in line.split([',', ' ', '\t']).filter(|t| !t.is_empty()) {
                let Some((index, value)) = token.split_once(':') else {
                    return Err((
                        400,
                        format!("line {}: token {token:?} is not index:value", lineno + 1),
                    ));
                };
                let index: usize = index.parse().map_err(|_| {
                    (
                        400,
                        format!("line {}: bad event index {index:?}", lineno + 1),
                    )
                })?;
                if index >= N_EVENTS {
                    return Err((
                        400,
                        format!(
                            "line {}: event index {index} out of range (< {N_EVENTS})",
                            lineno + 1
                        ),
                    ));
                }
                let value: f64 = value
                    .parse()
                    .map_err(|_| (400, format!("line {}: bad value {value:?}", lineno + 1)))?;
                rows[base + index] = value;
            }
        } else {
            // Dense: exactly N_EVENTS floats.
            for token in line.split([',', ' ', '\t']).filter(|t| !t.is_empty()) {
                let value: f64 = token
                    .parse()
                    .map_err(|_| (400, format!("line {}: bad value {token:?}", lineno + 1)))?;
                rows.push(value);
            }
            if rows.len() - base != N_EVENTS {
                return Err((
                    400,
                    format!(
                        "line {}: expected {N_EVENTS} dense values, got {}",
                        lineno + 1,
                        rows.len() - base
                    ),
                ));
            }
        }
        n_rows += 1;
    }
    Ok((rows, None, n_rows))
}

#[allow(clippy::type_complexity)]
fn parse_rows_json(body: &[u8]) -> Result<(Vec<f64>, Option<String>, usize), (u16, String)> {
    let value: Value =
        serde_json::from_slice(body).map_err(|e| (400, format!("invalid JSON body: {e}")))?;
    let model = value
        .get("model")
        .and_then(Value::as_str)
        .map(str::to_string);
    let Some(Value::Array(row_values)) = value.get("rows") else {
        return Err((400, "JSON body must carry a \"rows\" array".into()));
    };
    let n_rows = row_values.len();
    if n_rows > MAX_ROWS_PER_REQUEST {
        return Ok((Vec::new(), model, n_rows)); // cap check upstream
    }
    let mut rows = Vec::with_capacity(n_rows * N_EVENTS);
    for (r, row) in row_values.iter().enumerate() {
        let Value::Array(cells) = row else {
            return Err((400, format!("rows[{r}] is not an array")));
        };
        if cells.len() != N_EVENTS {
            return Err((
                400,
                format!("rows[{r}] has {} values, expected {N_EVENTS}", cells.len()),
            ));
        }
        for (c, cell) in cells.iter().enumerate() {
            let Some(v) = cell.as_f64() else {
                return Err((400, format!("rows[{r}][{c}] is not a number")));
            };
            rows.push(v);
        }
    }
    Ok((rows, model, n_rows))
}

/// Resolves the request's model name (explicit, or the server default,
/// or the registry's sole entry).
fn resolve_model(shared: &Shared, name: Option<&str>) -> Result<Arc<ModelVersion>, (u16, String)> {
    let named = name.or(shared.default_model.as_deref());
    match named {
        Some(name) => shared
            .registry
            .get(name)
            .ok_or_else(|| (404, format!("unknown model {name:?}"))),
        None => {
            let names = shared.registry.names();
            match names.as_slice() {
                [] => Err((503, "no model registered".into())),
                [only] => Ok(shared.registry.get(only).expect("sole model exists")),
                _ => Err((
                    400,
                    format!(
                        "several models registered ({}); name one via X-Model",
                        names.join(", ")
                    ),
                )),
            }
        }
    }
}

/// `POST /swap`: `{"model": "name", "key": "fingerprint-hex"}` loads
/// the tree artifact under `key` from the store and atomically swaps it
/// in as `name`'s current version.
fn handle_swap(request: &Request<'_>, shared: &Arc<Shared>) -> Vec<u8> {
    let Some(store) = &shared.store else {
        return render_error(503, "no artifact store configured", false);
    };
    let value: Value = match serde_json::from_slice(request.body) {
        Ok(v) => v,
        Err(e) => return render_error(400, &format!("invalid JSON body: {e}"), false),
    };
    let (Some(model), Some(key_hex)) = (
        value.get("model").and_then(Value::as_str),
        value.get("key").and_then(Value::as_str),
    ) else {
        return render_error(400, "swap body must carry \"model\" and \"key\"", false);
    };
    let Some(key) = Fingerprint::from_hex(key_hex) else {
        return render_error(
            400,
            &format!("{key_hex:?} is not a fingerprint (1-32 hex digits)"),
            false,
        );
    };
    match shared.registry.load_from_store(store, model, key) {
        Ok(version) => {
            ring::record(
                FlightKind::SwapApplied,
                key.0 as u64,
                (key.0 >> 64) as u64,
                0,
            );
            let body = format!(
                "{{\"model\":{},\"version\":\"{}\"}}\n",
                serde_json::to_string(&version.name).expect("string serializes"),
                version.version
            );
            render(
                200,
                &[("Content-Type", "application/json")],
                body.as_bytes(),
            )
        }
        Err(msg) => {
            ring::record(
                FlightKind::SwapFailed,
                key.0 as u64,
                (key.0 >> 64) as u64,
                0,
            );
            ring::autodump("swap-failure");
            render_error(404, &msg, false)
        }
    }
}

/// Renders a resolved coalescer outcome. Text responses print one value
/// per line with Rust's shortest-round-trip `{}` float formatting —
/// parsing the text back yields bit-identical `f64`s, which is what the
/// determinism suite asserts. JSON responses use the vendored writer,
/// which formats floats the same way.
fn render_outcome(
    out: &mut Vec<u8>,
    scratch: &mut String,
    outcome: Outcome,
    version: &str,
    json: bool,
    req_id: u64,
) {
    use std::fmt::Write as _;
    let req_id_value;
    let mut headers: Vec<(&str, &str)> = vec![
        ("X-Model-Version", version),
        (
            "Content-Type",
            if json {
                "application/json"
            } else {
                "text/plain"
            },
        ),
    ];
    if req_id != 0 {
        req_id_value = req_id.to_string();
        headers.push(("X-Request-Id", &req_id_value));
    }
    let headers: &[(&str, &str)] = &headers;
    scratch.clear();
    match outcome {
        Outcome::Predictions(values) => {
            if json {
                scratch.push_str("{\"predictions\":[");
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        scratch.push(',');
                    }
                    let _ = write!(scratch, "{v}");
                }
                scratch.push_str("]}\n");
            } else {
                for v in &values {
                    let _ = writeln!(scratch, "{v}");
                }
            }
            http::write_response(out, 200, http::reason_of(200), headers, scratch.as_bytes());
        }
        Outcome::Classes(values) => {
            if json {
                scratch.push_str("{\"classes\":[");
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        scratch.push(',');
                    }
                    let _ = write!(scratch, "{v}");
                }
                scratch.push_str("]}\n");
            } else {
                for v in &values {
                    let _ = writeln!(scratch, "{v}");
                }
            }
            http::write_response(out, 200, http::reason_of(200), headers, scratch.as_bytes());
        }
        Outcome::Failed(why) => out.extend_from_slice(&render_error(503, &why, false)),
    }
}

fn render(status: u16, headers: &[(&str, &str)], body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 128);
    http::write_response(&mut out, status, http::reason_of(status), headers, body);
    out
}

fn render_error(status: u16, message: &str, close: bool) -> Vec<u8> {
    if (400..500).contains(&status) && status != 429 {
        metrics::incr(Metric::ServeBadRequests);
    }
    let mut headers: Vec<(&str, &str)> = vec![("Content-Type", "text/plain")];
    if status == 429 || status == 503 {
        headers.push(("Retry-After", "1"));
    }
    if close {
        headers.push(("Connection", "close"));
    }
    let body = format!("{message}\n");
    render(status, &headers, body.as_bytes())
}

fn bad(status: u16, message: &str, extra: &[(&str, &str)]) -> Reply {
    if (400..500).contains(&status) {
        metrics::incr(Metric::ServeBadRequests);
    }
    let mut headers: Vec<(&str, &str)> = vec![("Content-Type", "text/plain")];
    headers.extend_from_slice(extra);
    let body = format!("{message}\n");
    Reply::Now(render(status, &headers, body.as_bytes()))
}
