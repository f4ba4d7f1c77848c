//! `serve-predict`: single-row `POST /predict` requests, one in four
//! sent as `/classify`, against the canonical CPU2006 tree hosted
//! in-process by `serve::Server` with the production `ServerConfig`.
//!
//! Load comes from this process: at most two client threads and two
//! connections. The run has a closed-loop saturation phase (the crate's
//! own load generator, two pipelined connections) and an open-loop phase
//! at a fixed rate (one connection, a writer thread sending on schedule
//! and a reader thread timing each response from its scheduled send).
//! Payload rows stride through a dataset generated from the seed, so
//! requests reach different leaves; a sample of responses is compared
//! byte for byte with offline `predict_batch` / `classify_batch`.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use modeltree::{CompiledTree, ModelTree};
use perfcounters::{Dataset, Sample};
use pipeline::{DatasetSpec, PipelineContext, SuiteKind};
use serde_json::json;
use serve::{
    http, Coalescer, CoalescerConfig, LoadgenConfig, Mode, ModelRegistry, ModelVersion, Outcome,
    RequestKind, Server, ServerConfig,
};

use crate::spans;
use crate::{Measured, Options, Result};

/// Open-loop arrival rate, requests per second: a quarter to a third of
/// the saturation throughput on a 2-core host. At half of it the client
/// and server threads overload the two cores whenever the host is busy
/// (the sender ran milliseconds late), and the latencies measure the
/// host rather than the server.
const OPEN_LOOP_RATE: f64 = 50_000.0;
/// Connections of the saturation phase, each with `INFLIGHT`
/// pipelined requests outstanding.
const CONNECTIONS: usize = 2;
const INFLIGHT: usize = 64;
/// Requests per saturation measurement; the phase repeats it and
/// reports the median throughput.
const SATURATION_CHUNK: usize = 50_000;
/// Share of the timed phase spent saturating; the rest is open loop.
const SATURATION_SHARE: f64 = 0.4;
/// Open-loop latency percentiles are taken per window of this many
/// seconds, and the median over windows is reported.
const LATENCY_WINDOW_S: f64 = 0.1;
/// Distinct payload rows, and the stride through the seed's dataset.
const PAYLOAD_ROWS: usize = 512;
const PAYLOAD_STRIDE: usize = 7;
/// Every `CLASSIFY_EVERY`-th request (index ≡ -1) goes to `/classify`,
/// as in `serve::loadgen`.
const CLASSIFY_EVERY: usize = 4;
/// Open-loop responses whose body is compared with the offline engine:
/// one in `CHECK_EVERY` during the timed phase, all during warm-up.
const CHECK_EVERY: usize = 8;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
const MODEL: &str = "cpu2006";

/// The seed's inputs: request blobs and the response bodies the offline
/// engine says they must get.
struct Payload {
    rows: Vec<Vec<f64>>,
    predict: Vec<Vec<u8>>,
    classify: Vec<Vec<u8>>,
    predict_body: Vec<Vec<u8>>,
    classify_body: Vec<Vec<u8>>,
}

impl Payload {
    fn new(seed: u64, tree: &ModelTree) -> Result<Payload> {
        let data = DatasetSpec::new(SuiteKind::cpu2006(), PAYLOAD_ROWS * PAYLOAD_STRIDE, seed)
            .compute(1)?;
        let samples: Vec<Sample> = (0..PAYLOAD_ROWS)
            .map(|i| data.sample((i * PAYLOAD_STRIDE) % data.len()).clone())
            .collect();
        let rows: Vec<Vec<f64>> = samples.iter().map(|s| s.densities().to_vec()).collect();
        let batch = Dataset::from_parts(samples, vec![0; PAYLOAD_ROWS], vec!["payload".into()])?;
        let engine = tree.compile();
        let body = |v: String| format!("{v}\n").into_bytes();
        Ok(Payload {
            predict: rows.iter().map(|r| request("/predict", r)).collect(),
            classify: rows.iter().map(|r| request("/classify", r)).collect(),
            predict_body: engine
                .predict_batch(&batch)
                .into_iter()
                .map(|v| body(v.to_string()))
                .collect(),
            classify_body: engine
                .classify_batch(&batch)
                .into_iter()
                .map(|v| body(v.to_string()))
                .collect(),
            rows,
        })
    }

    fn is_classify(i: usize) -> bool {
        i % CLASSIFY_EVERY == CLASSIFY_EVERY - 1
    }

    fn blob(&self, i: usize) -> &[u8] {
        let row = i % PAYLOAD_ROWS;
        if Self::is_classify(i) {
            &self.classify[row]
        } else {
            &self.predict[row]
        }
    }

    fn expected(&self, i: usize) -> &[u8] {
        let row = i % PAYLOAD_ROWS;
        if Self::is_classify(i) {
            &self.classify_body[row]
        } else {
            &self.predict_body[row]
        }
    }
}

/// A dense text request, as `serve::loadgen` renders it.
fn request(path: &str, row: &[f64]) -> Vec<u8> {
    let body: Vec<String> = row.iter().map(f64::to_string).collect();
    let body = body.join(",") + "\n";
    format!(
        "POST {path} HTTP/1.1\r\nContent-Type: text/plain\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The hosted model: resolve and compile the canonical tree, start the
/// server, wait for a 200 from `/healthz`.
struct Hosted {
    server: Server,
    registry: Arc<ModelRegistry>,
    tree: Arc<ModelTree>,
}

fn host() -> Result<Hosted> {
    let ctx = PipelineContext::ephemeral();
    let (_, tree) = spec_bench::cpu2006_artifacts(&ctx);
    let registry = Arc::new(ModelRegistry::new());
    registry.register_tree(MODEL, &tree);
    let server = Server::start(Arc::clone(&registry), ServerConfig::default())?;
    let deadline = Instant::now() + Duration::from_secs(10);
    while healthz(server.addr()).ok() != Some(200) {
        if Instant::now() > deadline {
            return Err("server never answered /healthz with 200".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(Hosted {
        server,
        registry,
        tree,
    })
}

fn healthz(addr: SocketAddr) -> Result<u16> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")?;
    let mut scanner = Scanner::default();
    let mut chunk = [0u8; 4096];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err("connection closed before the /healthz answer".into());
        }
        scanner.buf.extend_from_slice(&chunk[..n]);
        if let Some((status, _)) = scanner.next()? {
            return Ok(status);
        }
    }
}

/// Splits a response byte stream into (status, body) pairs.
#[derive(Default)]
struct Scanner {
    buf: Vec<u8>,
    at: usize,
}

impl Scanner {
    fn next(&mut self) -> Result<Option<(u16, Vec<u8>)>> {
        let rest = &self.buf[self.at..];
        let Some(head_end) = rest.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&rest[..head_end])?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {head:.60}"))?;
        let length: usize = head
            .split("\r\n")
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .map_or(Ok(0), |(_, v)| v.trim().parse())?;
        let total = head_end + 4 + length;
        if rest.len() < total {
            return Ok(None);
        }
        let body = rest[head_end + 4..total].to_vec();
        self.at += total;
        Ok(Some((status, body)))
    }

    fn compact(&mut self) {
        self.buf.drain(..self.at);
        self.at = 0;
    }
}

/// What an open-loop phase saw.
#[derive(Default)]
struct OpenLoop {
    sent: usize,
    ok: usize,
    rejected: usize,
    failed: usize,
    mismatched: usize,
    /// Latency from scheduled send to complete response, µs, per window.
    windows: Vec<Vec<f64>>,
    /// How late the writer sent each request against its schedule, µs.
    lateness: Vec<f64>,
}

/// Sends `rate` requests per second for `duration` on one connection
/// and times each response from its scheduled send.
fn open_loop(
    addr: SocketAddr,
    p: &Payload,
    rate: f64,
    duration: Duration,
    check_every: usize,
) -> Result<OpenLoop> {
    let total = (duration.as_secs_f64() * rate).ceil() as usize;
    let per_window = ((rate * LATENCY_WINDOW_S) as usize).max(1);
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut reader = stream.try_clone()?;
    let schedule: Mutex<VecDeque<(usize, Instant)>> = Mutex::new(VecDeque::new());
    let writer_done = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let mut out = OpenLoop {
        windows: vec![Vec::new(); total.div_ceil(per_window)],
        ..OpenLoop::default()
    };
    std::thread::scope(|scope| -> Result<()> {
        let writer = scope.spawn(|| -> std::io::Result<(usize, Vec<f64>)> {
            let mut stream = &stream;
            let mut lateness = Vec::with_capacity(total);
            let mut buf = Vec::new();
            let mut i = 0;
            let result = loop {
                if i == total {
                    break Ok(());
                }
                let now = Instant::now();
                if due(i) > now {
                    std::thread::sleep(due(i) - now);
                    continue;
                }
                buf.clear();
                {
                    let mut queue = schedule.lock().expect("schedule lock");
                    while i < total && due(i) <= now {
                        queue.push_back((i, due(i)));
                        buf.extend_from_slice(p.blob(i));
                        lateness.push((now - due(i)).as_secs_f64() * 1e6);
                        i += 1;
                    }
                }
                if let Err(e) = stream.write_all(&buf) {
                    break Err(e);
                }
            };
            writer_done.store(true, Ordering::Release);
            result.map(|()| (i, lateness))
        });

        let mut scanner = Scanner::default();
        let mut chunk = vec![0u8; 64 * 1024];
        let mut seen = 0;
        while seen < total {
            let n = match reader.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => n,
                Err(_) if writer_done.load(Ordering::Acquire) => break,
                Err(_) => continue,
            };
            scanner.buf.extend_from_slice(&chunk[..n]);
            while let Some((status, body)) = scanner.next()? {
                let now = Instant::now();
                let (i, scheduled) = schedule
                    .lock()
                    .expect("schedule lock")
                    .pop_front()
                    .ok_or("a response arrived for no request")?;
                seen += 1;
                match status {
                    200 => {
                        out.ok += 1;
                        out.windows[i / per_window].push((now - scheduled).as_secs_f64() * 1e6);
                        if i % check_every == 0 && body != p.expected(i) {
                            out.mismatched += 1;
                        }
                    }
                    429 => out.rejected += 1,
                    _ => out.failed += 1,
                }
            }
            scanner.compact();
        }
        let (sent, lateness) = writer.join().expect("open-loop writer panicked")?;
        out.sent = sent;
        out.failed += sent - seen;
        out.lateness = lateness;
        Ok(())
    })?;
    out.windows.retain(|w| !w.is_empty());
    Ok(out)
}

/// One closed-loop saturation chunk of `n` requests: the load
/// generator's report and the CPU seconds the process (client and
/// server) spent on it.
fn saturate(addr: SocketAddr, p: &Payload, n: usize) -> Result<(serve::LoadgenReport, f64)> {
    let (report, secs) = spans::cpu_timed(|| {
        serve::loadgen::run(
            &LoadgenConfig {
                addr: addr.to_string(),
                connections: CONNECTIONS,
                total_requests: n,
                classify_fraction: 1.0 / CLASSIFY_EVERY as f64,
                mode: Mode::Saturate { inflight: INFLIGHT },
            },
            &p.rows,
        )
    });
    Ok((report?, secs))
}

fn count_saturation(m: &mut Measured, r: &serve::LoadgenReport) {
    m.attempted += r.sent as u64;
    m.failed += (r.failed + r.rejected) as u64;
}

fn count_open_loop(m: &mut Measured, o: &OpenLoop) {
    m.attempted += o.sent as u64;
    m.failed += (o.failed + o.rejected) as u64;
    m.check(o.mismatched == 0, || {
        format!(
            "{} served responses differ from the offline engine",
            o.mismatched
        )
    });
}

pub fn run(opts: &Options) -> Result<Measured> {
    let mut m = Measured::default();
    let mut setups = Vec::new();
    let mut hosted = None;
    for _ in 0..SETUPS {
        // Shut the previous server down before timing the next set-up.
        drop(hosted.take());
        let (next, secs) = spans::cpu_timed(host);
        hosted = Some(next?);
        setups.push(secs);
    }
    let hosted = hosted.expect("at least one set-up");
    m.set("setup_s", spans::median(&setups));
    let addr = hosted.server.addr();
    let payload = Payload::new(opts.seed, &hosted.tree)?;

    // Warm-up, left out of the timed numbers: a saturation chunk, then
    // a short open-loop burst whose every response is checked.
    count_saturation(&mut m, &saturate(addr, &payload, SATURATION_CHUNK)?.0);
    let warm = open_loop(
        addr,
        &payload,
        OPEN_LOOP_RATE,
        Duration::from_millis(300),
        1,
    )?;
    count_open_loop(&mut m, &warm);

    let total = Duration::from_secs_f64(opts.seconds);
    let saturation_end = Instant::now() + total.mul_f64(SATURATION_SHARE);
    if opts.trace {
        traced(&mut m, &hosted, &payload, saturation_end, total)?;
    } else {
        let mut rates = Vec::new();
        while rates.is_empty() || Instant::now() < saturation_end {
            let (r, _) = saturate(addr, &payload, SATURATION_CHUNK)?;
            count_saturation(&mut m, &r);
            rates.push(r.throughput);
        }
        let o = open_loop(
            addr,
            &payload,
            OPEN_LOOP_RATE,
            total.mul_f64(1.0 - SATURATION_SHARE),
            CHECK_EVERY,
        )?;
        count_open_loop(&mut m, &o);
        let p50: Vec<f64> = o
            .windows
            .iter()
            .map(|w| spans::percentile(w, 0.50))
            .collect();
        let tails: Vec<(f64, f64)> = o.windows.iter().map(|w| spans::tail(w)).collect();
        let tail: Vec<f64> = tails.iter().map(|t| t.0).collect();
        m.set("throughput_per_s", spans::median(&rates));
        m.set("latency_p50_ms", spans::median(&p50) / 1e3);
        m.set("latency_tail_ms", spans::median(&tail) / 1e3);
        m.note(
            "tail_percentile",
            json!(spans::median(
                &tails.iter().map(|t| t.1).collect::<Vec<_>>()
            )),
        );
        m.note("saturation_chunks", json!(rates.len()));
        m.note("latency_samples", json!(o.ok));
        m.note("latency_windows", json!(o.windows.len()));
        m.note(
            "loadgen_lateness_us_p99",
            json!(spans::percentile(&o.lateness, 0.99)),
        );
    }
    m.note("open_loop_rate", json!(OPEN_LOOP_RATE));
    hosted.server.shutdown();
    Ok(m)
}

/// Serve's traced run. Saturation chunks alternate with obskit counters
/// off and on; the counters of the "on" chunks give batching and
/// refusals. Probes then time, over the same request volume, the HTTP
/// parser and renderer, the coalescer's queue wait at the open-loop
/// rate, and the engine at the observed batch size. The rest of a
/// chunk's CPU time is `serve.io_remainder_ns`: socket I/O, wake-ups,
/// the coalescer hand-off and the load generator.
fn traced(
    m: &mut Measured,
    hosted: &Hosted,
    p: &Payload,
    saturation_end: Instant,
    total: Duration,
) -> Result<()> {
    let addr = hosted.server.addr();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut counts = [0u64; 5];
    const COUNTERS: [&str; 5] = [
        "serve.rows_predicted",
        "serve.rows_classified",
        "serve.batches",
        "serve.rejected_busy",
        "serve.bad_requests",
    ];
    while traced.is_empty() || Instant::now() < saturation_end {
        obskit::set_enabled(false, false);
        let (r, cpu_s) = saturate(addr, p, SATURATION_CHUNK)?;
        count_saturation(m, &r);
        untraced.push(cpu_s);
        obskit::set_enabled(true, false);
        let before = obskit::metrics::snapshot();
        let (r, cpu_s) = saturate(addr, p, SATURATION_CHUNK)?;
        let after = obskit::metrics::snapshot();
        count_saturation(m, &r);
        traced.push(cpu_s);
        for (c, name) in counts.iter_mut().zip(COUNTERS) {
            *c += after.get(name).unwrap_or(0) - before.get(name).unwrap_or(0);
        }
    }
    let chunks = traced.len() as f64;
    let rows = (counts[0] + counts[1]) as f64;
    let rows_per_batch = rows / (counts[2].max(1) as f64);
    m.set("serve.coalesce.rows_per_batch", rows_per_batch);
    m.set("serve.engine_calls", counts[2] as f64 / chunks);
    m.set("serve.rejected_429", counts[3] as f64);
    m.set("serve.bad_requests", counts[4] as f64);

    let o = open_loop(
        addr,
        p,
        OPEN_LOOP_RATE,
        total.mul_f64(1.0 - SATURATION_SHARE) / 2,
        CHECK_EVERY,
    )?;
    count_open_loop(m, &o);
    m.set(
        "loadgen.lateness_us_p99",
        spans::percentile(&o.lateness, 0.99),
    );
    m.set("loadgen.sent", o.sent as f64);
    m.set("loadgen.ok", o.ok as f64);

    let version = hosted
        .registry
        .get(MODEL)
        .ok_or("model vanished from the registry")?;
    let (wait, mismatched) = coalesce_wait(&version, p, total.mul_f64(1.0 - SATURATION_SHARE) / 2)?;
    m.attempted += wait.len() as u64;
    m.check(mismatched == 0, || {
        format!("{mismatched} coalescer outcomes differ from the offline engine")
    });
    m.set("serve.coalesce.wait_us_p50", spans::percentile(&wait, 0.50));
    m.set("serve.coalesce.wait_us_p99", spans::percentile(&wait, 0.99));

    let batch = rows_per_batch.round().max(1.0) as usize;
    let (predict_ns, classify_ns) = engine_ns_per_row(&version.engine, p, batch)?;
    m.set("modeltree.predict_ns_per_row", predict_ns);
    m.set("modeltree.classify_ns_per_row", classify_ns);

    // One saturation chunk's worth of parsing, rendering and engine
    // work, against the median traced chunk's CPU time.
    let parse_ns = time_ns(|| {
        for i in 0..SATURATION_CHUNK {
            std::hint::black_box(http::parse_request(p.blob(i)).ok());
        }
    });
    let mut out = Vec::with_capacity(512);
    let render_ns = time_ns(|| {
        for i in 0..SATURATION_CHUNK {
            out.clear();
            http::write_response(
                &mut out,
                200,
                http::reason_of(200),
                &[
                    ("X-Model-Version", &version.version),
                    ("Content-Type", "text/plain"),
                ],
                p.expected(i),
            );
            std::hint::black_box(&out);
        }
    });
    let chunk_rows = rows / chunks;
    let classified_share = counts[1] as f64 / rows.max(1.0);
    let engine_ns =
        chunk_rows * ((1.0 - classified_share) * predict_ns + classified_share * classify_ns);
    let chunk_ns = spans::median(&traced) * 1e9;
    m.set("serve.http.parse_ns", parse_ns);
    m.set("serve.http.render_ns", render_ns);
    m.set(
        "serve.io_remainder_ns",
        chunk_ns - parse_ns - render_ns - engine_ns,
    );
    m.note("requests_per_traced_chunk", json!(SATURATION_CHUNK));
    let budgets: Vec<(f64, f64)> = traced.iter().map(|&t| (t, t)).collect();
    m.layer_budget(&budgets, &untraced);
    Ok(())
}

fn time_ns(f: impl FnOnce()) -> f64 {
    spans::cpu_timed(f).1 * 1e9
}

/// Drives `Coalescer::submit` → `Ticket::wait` directly, at the
/// open-loop rate with the production `CoalescerConfig`: one thread
/// submits on schedule, this one waits. Returns the waits in µs and the
/// number of outcomes that differ from the offline engine.
fn coalesce_wait(
    version: &Arc<ModelVersion>,
    p: &Payload,
    duration: Duration,
) -> Result<(Vec<f64>, usize)> {
    let coalescer = Coalescer::start(CoalescerConfig::default());
    let total = (duration.as_secs_f64() * OPEN_LOOP_RATE).ceil() as usize;
    let (tx, rx) = mpsc::channel();
    let start = Instant::now();
    let mut waits = Vec::with_capacity(total);
    let mut mismatched = 0;
    std::thread::scope(|scope| -> Result<()> {
        let coalescer = &coalescer;
        let submitter = scope.spawn(move || -> std::result::Result<(), String> {
            for i in 0..total {
                let due = start + Duration::from_secs_f64(i as f64 / OPEN_LOOP_RATE);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let kind = if Payload::is_classify(i) {
                    RequestKind::Classify
                } else {
                    RequestKind::Predict
                };
                let row = p.rows[i % PAYLOAD_ROWS].clone();
                let submitted = Instant::now();
                let ticket = coalescer
                    .submit(Arc::clone(version), kind, row)
                    .map_err(|e| format!("coalescer refused a request: {e:?}"))?;
                if tx.send((i, submitted, ticket)).is_err() {
                    break;
                }
            }
            Ok(())
        });
        for (i, submitted, ticket) in rx {
            let outcome = ticket.wait();
            waits.push(submitted.elapsed().as_secs_f64() * 1e6);
            let body = match outcome {
                Outcome::Predictions(v) => v.iter().map(|x| format!("{x}\n")).collect::<String>(),
                Outcome::Classes(v) => v.iter().map(|x| format!("{x}\n")).collect::<String>(),
                Outcome::Failed(why) => why,
            };
            if body.as_bytes() != p.expected(i) {
                mismatched += 1;
            }
        }
        submitter.join().expect("submitter panicked")?;
        Ok(())
    })?;
    Ok((waits, mismatched))
}

/// `CompiledTree::predict_batch` / `classify_batch` nanoseconds per row
/// at `batch` rows per call, over the payload rows.
fn engine_ns_per_row(engine: &CompiledTree, p: &Payload, batch: usize) -> Result<(f64, f64)> {
    let samples: Vec<Sample> = (0..batch)
        .map(|i| Sample::from_densities(0.0, &p.rows[i % PAYLOAD_ROWS]))
        .collect();
    let data = Dataset::from_parts(samples, vec![0; batch], vec!["payload".into()])?;
    let per_row = |f: &dyn Fn()| {
        let t = spans::cpu_now();
        let mut calls = 0usize;
        while calls == 0 || spans::cpu_now() - t < 0.2 {
            f();
            calls += 1;
        }
        (spans::cpu_now() - t) * 1e9 / (calls * batch) as f64
    };
    let predict = per_row(&|| {
        std::hint::black_box(engine.predict_batch(&data));
    });
    let classify = per_row(&|| {
        std::hint::black_box(engine.classify_batch(&data));
    });
    Ok((predict, classify))
}
