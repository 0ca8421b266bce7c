//! Serving throughput/latency bench (the `serve_bench` binary's engine
//! room): drives a [`mersit_serve::Server`] over the model zoo with
//! closed-loop (N concurrent clients, each waiting for its response) and
//! open-loop (paced arrivals at a target rate) load, and writes
//! requests/sec plus p50/p95/p99 latency per
//! (format × executor × offered-load) to `BENCH_serve.json`.
//!
//! Accounting is conservation-based: every offered request ends as
//! exactly one of completed / rejected / failed, and `unanswered` (the
//! remainder) must be zero — CI asserts this on the quick run.

use mersit_nn::models::{mobilenet_v3_t, vgg_t};
use mersit_obs::report::json_string;
use mersit_ptq::{calibrate, Executor};
use mersit_serve::{wire, NetConfig, Request, ServeConfig, Server};
use mersit_tensor::{par, Rng, Tensor};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One (model × format × executor × mode × offered-load) measurement.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// Model served.
    pub model: String,
    /// Format name, or `"fp32"` for the unquantized reference path.
    pub format: String,
    /// Executor name (`"float"` / `"bittrue"`).
    pub executor: String,
    /// `"closed"` (concurrent blocking clients) or `"open"` (paced
    /// arrivals).
    pub mode: String,
    /// Offered load: client count (closed) or target requests/sec (open).
    pub offered: usize,
    /// Requests offered in total.
    pub requests: usize,
    /// Requests answered with a prediction.
    pub completed: usize,
    /// Requests rejected at admission (queue full).
    pub rejected: usize,
    /// Requests answered with an error.
    pub failed: usize,
    /// Offered requests not accounted for above — must be 0.
    pub unanswered: usize,
    /// Completed requests per second of wall-clock.
    pub reqs_per_sec: f64,
    /// Median admission-to-response latency, µs.
    pub p50_us: u64,
    /// 95th-percentile latency, µs.
    pub p95_us: u64,
    /// 99th-percentile latency, µs.
    pub p99_us: u64,
    /// Mean coalesced-batch size over completed requests.
    pub mean_batch: f64,
}

/// One socket-mode measurement: N pipelined connections driving the
/// wire protocol against a `mersit_serve::net` event loop.
#[derive(Debug, Clone)]
pub struct NetRun {
    /// Model served.
    pub model: String,
    /// Format name, or `"fp32"` for the unquantized reference path.
    pub format: String,
    /// Executor name (`"float"` / `"bittrue"`).
    pub executor: String,
    /// Concurrent TCP connections held open for the whole pass.
    pub connections: usize,
    /// Requests kept in flight per connection (pipelining depth).
    pub pipeline: usize,
    /// Request frames written in total.
    pub requests: usize,
    /// Response frames received.
    pub completed: usize,
    /// Error frames received — must be 0.
    pub wire_errors: usize,
    /// Connections that died on an I/O error — must be 0.
    pub failed: usize,
    /// Requests with neither a response nor an error — must be 0.
    pub unanswered: usize,
    /// Completed requests per second of wall-clock.
    pub reqs_per_sec: f64,
    /// Median client-measured round-trip latency, µs.
    pub p50_us: u64,
    /// 95th-percentile round-trip latency, µs.
    pub p95_us: u64,
    /// 99th-percentile round-trip latency, µs.
    pub p99_us: u64,
}

/// The socket-mode section of the report: where the load went and what
/// each (format × executor × connection-count) pass observed.
#[derive(Debug, Clone)]
pub struct NetSection {
    /// Address the load generator connected to.
    pub addr: String,
    /// True when `serve_bench` hosted the event loop itself (default
    /// mode); false when driving an external `mersit-served` (`--net`).
    pub self_hosted: bool,
    /// All socket-mode measurements.
    pub runs: Vec<NetRun>,
}

/// The whole bench: config echo plus one row per measurement.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// Pool size used (workers + dispatcher).
    pub threads: usize,
    /// SIMD tier the kernels ran at (`MERSIT_SIMD` clamped to the host).
    pub simd_isa: String,
    /// Whether this was the CI quick grid.
    pub quick: bool,
    /// Server flush threshold in effect.
    pub max_batch: usize,
    /// Server latency budget in effect, µs.
    pub max_wait_us: u64,
    /// Server admission depth in effect.
    pub queue_depth: usize,
    /// All measurements.
    pub runs: Vec<ServeRun>,
    /// Socket-mode measurements over the wire protocol.
    pub net: NetSection,
}

/// What one load pass observed.
struct PassResult {
    latencies_us: Vec<u64>,
    batch_sizes: Vec<usize>,
    rejected: usize,
    failed: usize,
    wall: Duration,
}

/// The (format, executor) grid; `None` format = FP32 reference forward.
fn combos(quick: bool) -> Vec<(Option<&'static str>, Executor)> {
    if quick {
        vec![
            (None, Executor::Float),
            (Some("MERSIT(8,2)"), Executor::Float),
            (Some("MERSIT(8,2)"), Executor::BitTrue),
        ]
    } else {
        vec![
            (None, Executor::Float),
            (Some("MERSIT(8,2)"), Executor::Float),
            (Some("MERSIT(8,2)"), Executor::BitTrue),
            (Some("INT8"), Executor::Float),
            (Some("Posit(8,1)"), Executor::BitTrue),
        ]
    }
}

fn make_request(model: &str, fmt: Option<&str>, executor: Executor, sample: Tensor) -> Request {
    let req = Request::new(model, sample);
    match fmt {
        Some(f) => req.format(f).executor(executor),
        None => req,
    }
}

/// Closed loop: `clients` threads, each blocking on its own requests —
/// offered concurrency is the load knob, arrival rate is whatever the
/// server sustains.
fn closed_loop(
    server: &Server,
    model: &str,
    fmt: Option<&str>,
    executor: Executor,
    samples: &[Tensor],
    clients: usize,
    per_client: usize,
) -> PassResult {
    let agg = Mutex::new((Vec::new(), Vec::new(), 0usize, 0usize));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let agg = &agg;
            s.spawn(move || {
                let mut lat = Vec::with_capacity(per_client);
                let mut bat = Vec::with_capacity(per_client);
                let mut rejected = 0usize;
                let mut failed = 0usize;
                for r in 0..per_client {
                    let sample = samples[(c * per_client + r) % samples.len()].clone();
                    match server.infer(make_request(model, fmt, executor, sample)) {
                        Ok(resp) => {
                            lat.push(resp.total_us);
                            bat.push(resp.batch_size);
                        }
                        Err(mersit_serve::ServeError::QueueFull { .. }) => rejected += 1,
                        Err(_) => failed += 1,
                    }
                }
                let mut g = agg.lock().expect("aggregate");
                g.0.extend(lat);
                g.1.extend(bat);
                g.2 += rejected;
                g.3 += failed;
            });
        }
    });
    let wall = t0.elapsed();
    let (latencies_us, batch_sizes, rejected, failed) = agg.into_inner().expect("aggregate");
    PassResult {
        latencies_us,
        batch_sizes,
        rejected,
        failed,
        wall,
    }
}

/// Open loop: one pacer submits at `rate` requests/sec without waiting,
/// then all tickets are drained — offered arrival rate is the load knob,
/// queueing shows up as latency (or, past the depth, as rejections).
fn open_loop(
    server: &Server,
    model: &str,
    fmt: Option<&str>,
    executor: Executor,
    samples: &[Tensor],
    rate: usize,
    total: usize,
) -> PassResult {
    let interval = Duration::from_secs_f64(1.0 / rate.max(1) as f64);
    let mut tickets = Vec::with_capacity(total);
    let mut rejected = 0usize;
    let t0 = Instant::now();
    for r in 0..total {
        let due = t0 + interval * u32::try_from(r).expect("request count fits u32");
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sample = samples[r % samples.len()].clone();
        match server.submit(make_request(model, fmt, executor, sample)) {
            Ok(t) => tickets.push(t),
            Err(mersit_serve::ServeError::QueueFull { .. }) => rejected += 1,
            Err(_) => rejected += 1,
        }
    }
    let mut latencies_us = Vec::with_capacity(tickets.len());
    let mut batch_sizes = Vec::with_capacity(tickets.len());
    let mut failed = 0usize;
    for t in tickets {
        match t.wait() {
            Ok(resp) => {
                latencies_us.push(resp.total_us);
                batch_sizes.push(resp.batch_size);
            }
            Err(_) => failed += 1,
        }
    }
    PassResult {
        latencies_us,
        batch_sizes,
        rejected,
        failed,
        wall: t0.elapsed(),
    }
}

/// Percentile over a sorted latency vector (nearest-rank on the sorted
/// order; 0 for an empty pass).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn finish_run(
    model: &str,
    fmt: Option<&str>,
    executor: Executor,
    mode: &str,
    offered: usize,
    requests: usize,
    mut pass: PassResult,
) -> ServeRun {
    pass.latencies_us.sort_unstable();
    let completed = pass.latencies_us.len();
    let mean_batch = if completed == 0 {
        0.0
    } else {
        pass.batch_sizes.iter().sum::<usize>() as f64 / completed as f64
    };
    let run = ServeRun {
        model: model.to_owned(),
        format: fmt.unwrap_or("fp32").to_owned(),
        executor: executor.to_string(),
        mode: mode.to_owned(),
        offered,
        requests,
        completed,
        rejected: pass.rejected,
        failed: pass.failed,
        unanswered: requests - completed - pass.rejected - pass.failed,
        reqs_per_sec: completed as f64 / pass.wall.as_secs_f64().max(1e-9),
        p50_us: percentile(&pass.latencies_us, 0.50),
        p95_us: percentile(&pass.latencies_us, 0.95),
        p99_us: percentile(&pass.latencies_us, 0.99),
        mean_batch,
    };
    println!(
        "{:<16} {:<12} {:<8} {:<6} @{:<5} {:>7.1} req/s  p50 {:>7}us p95 {:>7}us p99 {:>7}us  batch {:.2}  ({} ok / {} rej / {} fail)",
        run.model,
        run.format,
        run.executor,
        run.mode,
        run.offered,
        run.reqs_per_sec,
        run.p50_us,
        run.p95_us,
        run.p99_us,
        run.mean_batch,
        run.completed,
        run.rejected,
        run.failed
    );
    run
}

/// What one pipelined socket connection observed.
struct ConnResult {
    latencies_us: Vec<u64>,
    sent: usize,
    wire_errors: usize,
    io_error: bool,
}

/// Drives one blocking client connection: keep `pipeline` requests in
/// flight, match responses to requests by id, record round-trip times.
/// The *server* end is non-blocking; a bench client can afford to block.
#[allow(clippy::too_many_arguments)]
fn drive_connection(
    addr: &str,
    model: &str,
    fmt: Option<&str>,
    executor: Executor,
    samples: &[Tensor],
    conn_idx: usize,
    per_conn: usize,
    pipeline: usize,
) -> ConnResult {
    let mut out = ConnResult {
        latencies_us: Vec::with_capacity(per_conn),
        sent: 0,
        wire_errors: 0,
        io_error: false,
    };
    let Ok(mut stream) = TcpStream::connect(addr) else {
        out.io_error = true;
        return out;
    };
    let _ = stream.set_nodelay(true);
    // A lost response must fail the pass loudly, not hang it.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
    let mut in_flight: HashMap<u64, Instant> = HashMap::new();
    let send_one = |stream: &mut TcpStream,
                    out: &mut ConnResult,
                    in_flight: &mut HashMap<u64, Instant>|
     -> bool {
        let id = (conn_idx as u64) << 32 | out.sent as u64;
        let sample = &samples[(conn_idx + out.sent) % samples.len()];
        let req = wire::WireRequest {
            id,
            model: model.to_owned(),
            assignment: fmt.map(str::to_owned),
            executor: fmt.map(|_| executor),
            shape: sample.shape().to_vec(),
            data: sample.data().to_vec(),
        };
        let mut frame = Vec::new();
        wire::encode_request(&req, &mut frame);
        in_flight.insert(id, Instant::now());
        out.sent += 1;
        stream.write_all(&frame).is_ok()
    };
    for _ in 0..pipeline.min(per_conn) {
        if !send_one(&mut stream, &mut out, &mut in_flight) {
            out.io_error = true;
            return out;
        }
    }
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    while !in_flight.is_empty() {
        match wire::decode_frame(&buf, 1 << 24) {
            Ok(Some((frame, used))) => {
                buf.drain(..used);
                let id = match &frame {
                    wire::Frame::Response(r) => Some(r.id),
                    wire::Frame::Error(e) => {
                        out.wire_errors += 1;
                        Some(e.id)
                    }
                    _ => None,
                };
                if let Some(started) = id.and_then(|id| in_flight.remove(&id)) {
                    if matches!(frame, wire::Frame::Response(_)) {
                        let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                        out.latencies_us.push(us);
                    }
                    if out.sent < per_conn && !send_one(&mut stream, &mut out, &mut in_flight) {
                        out.io_error = true;
                        return out;
                    }
                }
            }
            Ok(None) => match stream.read(&mut chunk) {
                Ok(0) => {
                    out.io_error = true;
                    return out;
                }
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(_) => {
                    out.io_error = true;
                    return out;
                }
            },
            Err(_) => {
                out.io_error = true;
                return out;
            }
        }
    }
    out
}

/// One socket-mode pass: `connections` threads, each holding a pipelined
/// connection open for `per_conn` requests.
#[allow(clippy::too_many_arguments)]
fn net_pass(
    addr: &str,
    model: &str,
    fmt: Option<&str>,
    executor: Executor,
    samples: &[Tensor],
    connections: usize,
    per_conn: usize,
    pipeline: usize,
) -> NetRun {
    let agg: Mutex<Vec<ConnResult>> = Mutex::new(Vec::with_capacity(connections));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..connections {
            let agg = &agg;
            s.spawn(move || {
                let r =
                    drive_connection(addr, model, fmt, executor, samples, c, per_conn, pipeline);
                agg.lock().expect("net aggregate").push(r);
            });
        }
    });
    let wall = t0.elapsed();
    let results = agg.into_inner().expect("net aggregate");
    let mut latencies: Vec<u64> = results
        .iter()
        .flat_map(|r| r.latencies_us.clone())
        .collect();
    latencies.sort_unstable();
    let requests: usize = results.iter().map(|r| r.sent).sum();
    let completed = latencies.len();
    let wire_errors: usize = results.iter().map(|r| r.wire_errors).sum();
    let failed = results.iter().filter(|r| r.io_error).count();
    let run = NetRun {
        model: model.to_owned(),
        format: fmt.unwrap_or("fp32").to_owned(),
        executor: executor.to_string(),
        connections,
        pipeline,
        requests,
        completed,
        wire_errors,
        failed,
        unanswered: requests - completed - wire_errors,
        reqs_per_sec: completed as f64 / wall.as_secs_f64().max(1e-9),
        p50_us: percentile(&latencies, 0.50),
        p95_us: percentile(&latencies, 0.95),
        p99_us: percentile(&latencies, 0.99),
    };
    println!(
        "net {:<16} {:<12} {:<8} {:>4} conns x{:<2} {:>7.1} req/s  p50 {:>7}us p95 {:>7}us p99 {:>7}us  ({} ok / {} err / {} dead)",
        run.model,
        run.format,
        run.executor,
        run.connections,
        run.pipeline,
        run.reqs_per_sec,
        run.p50_us,
        run.p95_us,
        run.p99_us,
        run.completed,
        run.wire_errors,
        run.failed
    );
    run
}

/// The socket-mode grid. The fp32 pass carries the concurrency headline
/// (the acceptance bar: ≥ 256 pipelined connections with nothing lost);
/// the quantized passes keep both executors covered over the wire.
fn net_combos(quick: bool) -> Vec<(Option<&'static str>, Executor, usize, usize)> {
    // (format, executor, connections, requests per connection)
    if quick {
        vec![
            (None, Executor::Float, 256, 4),
            (Some("MERSIT(8,2)"), Executor::Float, 32, 8),
            (Some("MERSIT(8,2)"), Executor::BitTrue, 8, 4),
        ]
    } else {
        vec![
            (None, Executor::Float, 384, 4),
            (Some("MERSIT(8,2)"), Executor::Float, 64, 8),
            (Some("MERSIT(8,2)"), Executor::BitTrue, 16, 4),
        ]
    }
}

/// Runs the socket-mode section: against `net_addr` when given (an
/// external `mersit-served`), else against a self-hosted event loop over
/// a freshly built zoo model on an ephemeral loopback port.
///
/// # Panics
///
/// Panics (self-hosted mode) if the listener cannot bind, or if the
/// server breaks admission conservation.
fn run_net_section(quick: bool, net_addr: Option<&str>) -> NetSection {
    let _span = mersit_obs::span("bench.serve.net");
    let hw = if quick { 8usize } else { 10 };
    // Same construction as `mersit-served`: seed 0x5E4E, vgg_t first.
    let mut rng = Rng::new(0x5E4E);
    let model = vgg_t(hw, 10, &mut rng);
    let name = model.name.clone();
    let samples: Vec<Tensor> = (0..8)
        .map(|_| Tensor::randn(&[3, hw, hw], 1.0, &mut rng))
        .collect();
    let (addr, hosted) = match net_addr {
        Some(a) => (a.to_owned(), None),
        None => {
            let calib = Tensor::randn(&[16, 3, hw, hw], 1.0, &mut rng);
            let cal = calibrate(&model, &calib, 8);
            let server = Arc::new(Server::start(vec![(model, cal)], ServeConfig::from_env()));
            let handle = mersit_serve::net::spawn(
                Arc::clone(&server),
                NetConfig::from_env().addr("127.0.0.1:0"),
            )
            .expect("bind self-hosted event loop");
            (handle.addr().to_string(), Some((server, handle)))
        }
    };
    let mut runs = Vec::new();
    for (fmt, executor, connections, per_conn) in net_combos(quick) {
        runs.push(net_pass(
            &addr,
            &name,
            fmt,
            executor,
            &samples,
            connections,
            per_conn,
            2,
        ));
    }
    if let Some((server, handle)) = hosted {
        let net_stats = handle.shutdown();
        let stats = server.stats();
        assert_eq!(
            stats.submitted,
            stats.completed + stats.failed,
            "self-hosted server broke admission conservation"
        );
        println!(
            "net self-host: {} conns, {} frames in, {} responses, {} errors",
            net_stats.accepted, net_stats.requests, net_stats.responses, net_stats.errors
        );
    }
    NetSection {
        addr,
        self_hosted: net_addr.is_none(),
        runs,
    }
}

/// Runs the full grid: per model, per (format × executor) combo, a
/// closed-loop pass at each client count, then an open-loop pass paced
/// at roughly half the best closed-loop rate (so the open pass measures
/// batching under head-room, not a saturated queue).
///
/// After the in-process grid, the socket-mode section runs the wire
/// protocol — against `net_addr` when given (CI's `net-smoke` points it
/// at a backgrounded `mersit-served`), else against a self-hosted event
/// loop on an ephemeral loopback port.
///
/// # Panics
///
/// Panics if any pass leaves requests unanswered — the server's
/// admission-conservation invariant would be broken.
#[must_use]
pub fn run_serve_bench(quick: bool, net_addr: Option<&str>) -> ServeBenchReport {
    let _span = mersit_obs::span("bench.serve");
    println!(
        "serve_bench: {} threads, simd {}",
        par::pool_size(),
        mersit_core::simd_level()
    );
    let (hw, sample_pool, per_client, open_total) = if quick {
        (8usize, 8usize, 12usize, 24usize)
    } else {
        (10, 12, 32, 64)
    };
    let client_counts: &[usize] = if quick { &[1, 2] } else { &[1, 4] };
    let cfg = ServeConfig::from_env();
    let report_cfg = cfg.clone();
    let mut rng = Rng::new(0x5E4E);
    let models = if quick {
        vec![vgg_t(hw, 10, &mut rng)]
    } else {
        vec![vgg_t(hw, 10, &mut rng), mobilenet_v3_t(hw, 10, &mut rng)]
    };
    let mut runs = Vec::new();
    for model in models {
        let name = model.name.clone();
        let calib = Tensor::randn(&[16, 3, hw, hw], 1.0, &mut rng);
        let cal = calibrate(&model, &calib, 8);
        let samples: Vec<Tensor> = (0..sample_pool)
            .map(|_| Tensor::randn(&[3, hw, hw], 1.0, &mut rng))
            .collect();
        let server = Server::start(vec![(model, cal)], cfg.clone());
        for (fmt, executor) in combos(quick) {
            let mut best_rate = 0.0f64;
            for &clients in client_counts {
                let requests = clients * per_client;
                let pass =
                    closed_loop(&server, &name, fmt, executor, &samples, clients, per_client);
                let run = finish_run(&name, fmt, executor, "closed", clients, requests, pass);
                best_rate = best_rate.max(run.reqs_per_sec);
                assert_eq!(run.unanswered, 0, "closed loop dropped requests");
                runs.push(run);
            }
            let rate = (best_rate * 0.5).max(2.0) as usize;
            let pass = open_loop(&server, &name, fmt, executor, &samples, rate, open_total);
            let run = finish_run(&name, fmt, executor, "open", rate, open_total, pass);
            assert_eq!(run.unanswered, 0, "open loop dropped requests");
            runs.push(run);
        }
        let stats = server.stats();
        println!(
            "{name}: {} submitted, {} completed, {} rejected, {} plans cached",
            stats.submitted, stats.completed, stats.rejected, stats.cached_plans
        );
    }
    let net = run_net_section(quick, net_addr);
    ServeBenchReport {
        threads: par::pool_size(),
        simd_isa: mersit_core::simd_level().to_string(),
        quick,
        max_batch: report_cfg.max_batch,
        max_wait_us: report_cfg.max_wait_us,
        queue_depth: report_cfg.queue_depth,
        runs,
        net,
    }
}

/// Writes [`serve_json`] to `BENCH_serve.json`.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_serve_json(report: &ServeBenchReport) {
    std::fs::write("BENCH_serve.json", serve_json(report)).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json");
}

/// Renders a report as the `BENCH_serve.json` document.
#[must_use]
pub fn serve_json(report: &ServeBenchReport) -> String {
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"threads\": {},", report.threads);
    let _ = writeln!(json, "  \"simd_isa\": {},", json_string(&report.simd_isa));
    let _ = writeln!(json, "  \"quick\": {},", report.quick);
    let _ = writeln!(json, "  \"max_batch\": {},", report.max_batch);
    let _ = writeln!(json, "  \"max_wait_us\": {},", report.max_wait_us);
    let _ = writeln!(json, "  \"queue_depth\": {},", report.queue_depth);
    json.push_str("  \"runs\": [\n");
    for (i, r) in report.runs.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"model\": {}, \"format\": {}, \"executor\": {}, \
             \"mode\": {}, \"offered\": {}, \"requests\": {}, \"completed\": {}, \
             \"rejected\": {}, \"failed\": {}, \"unanswered\": {}, \
             \"reqs_per_sec\": {:.2}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \
             \"mean_batch\": {:.2}}}",
            json_string(&r.model),
            json_string(&r.format),
            json_string(&r.executor),
            json_string(&r.mode),
            r.offered,
            r.requests,
            r.completed,
            r.rejected,
            r.failed,
            r.unanswered,
            r.reqs_per_sec,
            r.p50_us,
            r.p95_us,
            r.p99_us,
            r.mean_batch
        );
        json.push_str(if i + 1 < report.runs.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n");
    json.push_str("  \"net\": {\n");
    let _ = writeln!(json, "    \"addr\": {},", json_string(&report.net.addr));
    let _ = writeln!(json, "    \"self_hosted\": {},", report.net.self_hosted);
    json.push_str("    \"runs\": [\n");
    for (i, r) in report.net.runs.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"model\": {}, \"format\": {}, \"executor\": {}, \
             \"connections\": {}, \"pipeline\": {}, \"requests\": {}, \"completed\": {}, \
             \"wire_errors\": {}, \"failed\": {}, \"unanswered\": {}, \
             \"reqs_per_sec\": {:.2}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}}}",
            json_string(&r.model),
            json_string(&r.format),
            json_string(&r.executor),
            r.connections,
            r.pipeline,
            r.requests,
            r.completed,
            r.wire_errors,
            r.failed,
            r.unanswered,
            r.reqs_per_sec,
            r.p50_us,
            r.p95_us,
            r.p99_us
        );
        json.push_str(if i + 1 < report.net.runs.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("    ]\n  }\n}\n");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_json_escapes_string_values() {
        let report = ServeBenchReport {
            threads: 1,
            simd_isa: "scalar".to_owned(),
            quick: true,
            max_batch: 8,
            max_wait_us: 500,
            queue_depth: 64,
            runs: Vec::new(),
            net: NetSection {
                addr: "a\"b\\c".to_owned(),
                self_hosted: false,
                runs: Vec::new(),
            },
        };
        let json = serve_json(&report);
        assert!(json.contains(r#"    "addr": "a\"b\\c","#), "{json}");
    }
}
