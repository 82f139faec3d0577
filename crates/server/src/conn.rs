//! Per-connection handler: reads framed requests, applies each in
//! order with backpressure, and writes responses back in request order
//! (which is what makes client pipelining safe).
//!
//! Writes are applied one at a time: the engine's group-commit WAL
//! already merges concurrent commits (across *all* connections) into a
//! single fsync, which replaces the per-connection write-coalescing
//! this layer used to do — and does it without changing the unit of
//! atomicity a client observes (one request, one commit).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use acheron::{shard_of, ShardedDb, WritePressure};
use acheron_types::{Error, Result};

use crate::rate_limit::TokenBucket;
use crate::server::Shared;
use crate::wire::{encode_frame, FrameDecoder, Request, Response};

/// Greet an over-limit connection with an `Err` frame and close it.
pub(crate) fn refuse(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_write_timeout(Some(shared.opts.write_timeout));
    let payload = Response::Err("server at connection capacity".into()).encode();
    let mut frame = Vec::new();
    encode_frame(&payload, &mut frame);
    let _ = stream.write_all(&frame);
}

/// Serve one connection to completion.
pub(crate) fn run(stream: TcpStream, shared: Arc<Shared>) {
    if let Err(err) = serve(&stream, &shared) {
        // A protocol violation means the stream is out of sync: tell the
        // peer why (best effort) and drop the connection.
        shared
            .metrics
            .protocol_errors
            .fetch_add(1, Ordering::Relaxed);
        let payload = Response::Err(format!("protocol error: {err}")).encode();
        let mut frame = Vec::new();
        encode_frame(&payload, &mut frame);
        let _ = (&stream).write_all(&frame);
    }
    shared
        .metrics
        .connections_closed
        .fetch_add(1, Ordering::Relaxed);
}

/// The connection loop. Returns `Err` only for protocol violations;
/// transport errors and orderly closes return `Ok(())`.
fn serve(mut stream: &TcpStream, shared: &Arc<Shared>) -> Result<()> {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.opts.poll_interval));
    let _ = stream.set_write_timeout(Some(shared.opts.write_timeout));
    let mut decoder = FrameDecoder::new(shared.opts.max_frame_bytes);
    let mut buf = vec![0u8; 64 << 10];
    let mut last_activity = Instant::now();
    // The admission bucket is owned by this connection thread: refill
    // is computed from elapsed time on use, so no lock and no timer.
    let mut bucket = shared
        .opts
        .rate_limit
        .map(|cfg| TokenBucket::new(cfg, Instant::now()));
    loop {
        // Drain every complete frame already buffered, then respond to
        // the whole group at once.
        let mut requests = Vec::new();
        while let Some(frame) = decoder.next_frame()? {
            requests.push(Request::decode(&frame)?);
        }
        if !requests.is_empty() {
            let responses = handle_group(shared, &requests, bucket.as_mut());
            if write_responses(stream, &responses, shared).is_err() {
                return Ok(());
            }
            last_activity = Instant::now();
        }
        // In-flight work is drained; now honor a pending shutdown.
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                // Orderly close. Leftover bytes mean the peer died mid-frame.
                if decoder.pending_bytes() > 0 {
                    return Err(Error::corruption("connection closed mid-frame"));
                }
                return Ok(());
            }
            Ok(n) => {
                shared
                    .metrics
                    .bytes_in
                    .fetch_add(n as u64, Ordering::Relaxed);
                decoder.feed(&buf[..n]);
                last_activity = Instant::now();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if let Some(idle) = shared.opts.idle_timeout {
                    if last_activity.elapsed() >= idle {
                        return Ok(());
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Ok(()),
        }
    }
}

/// Execute one pipelined group of requests, producing one response per
/// request, in order. Each write commits individually — concurrent
/// connections share one WAL fsync through the engine's commit group.
///
/// Admission order per request: token bucket (data ops only), then the
/// stall check (writes only), then the engine. Pressure is captured once
/// per group, per shard: a keyed write is shed when its owning shard
/// was stalled, a broadcast write when any shard was — for a fleet of
/// one, both are the engine's own flag.
fn handle_group(
    shared: &Arc<Shared>,
    requests: &[Request],
    mut bucket: Option<&mut TokenBucket>,
) -> Vec<Response> {
    let engine = &shared.engine;
    let metrics = &shared.metrics;
    let shard_pressure = engine.shard_pressure();
    let pressure = WritePressure::worst(&shard_pressure);
    let stalled = |req: &Request| match req.key() {
        Some(key) => shard_pressure[shard_of(key, shard_pressure.len())].stall,
        None => pressure.stall,
    };
    let mut responses: Vec<Response> = Vec::with_capacity(requests.len());
    let mut committed_writes = false;

    for req in requests {
        metrics.requests.fetch_add(1, Ordering::Relaxed);
        let is_data_op = !matches!(
            req,
            Request::Ping
                | Request::Stats
                | Request::Metrics
                | Request::Events
                | Request::Traces
                | Request::Audit
        );
        if is_data_op {
            if let Some(bucket) = bucket.as_deref_mut() {
                // Admission control: shed over-rate load before it
                // reaches any engine. Control-plane requests (ping,
                // stats, metrics, events) are exempt so an operator can
                // always observe a saturated server.
                if !bucket.try_take(Instant::now()) {
                    metrics.rate_limited.fetch_add(1, Ordering::Relaxed);
                    metrics.busy_responses.fetch_add(1, Ordering::Relaxed);
                    responses.push(Response::Busy);
                    continue;
                }
            }
        }
        if req.is_write() && stalled(req) {
            // The stall tier of backpressure: shed instead of queueing.
            metrics.busy_responses.fetch_add(1, Ordering::Relaxed);
            responses.push(Response::Busy);
            continue;
        }
        let resp = match req {
            Request::Ping => Response::Unit,
            Request::Put { key, value, dkey } => {
                // An unstamped put takes the engine's current tick as its
                // delete key, matching the embedded `Db::put` path.
                let dkey = dkey.unwrap_or_else(|| engine.now());
                committed_writes = true;
                let started = Instant::now();
                let resp = to_response(engine.put_with_dkey(key, value, dkey), metrics);
                metrics
                    .write_latency
                    .record(started.elapsed().as_micros() as u64);
                resp
            }
            Request::Delete { key } => {
                committed_writes = true;
                let started = Instant::now();
                let resp = to_response(engine.delete(key), metrics);
                metrics
                    .write_latency
                    .record(started.elapsed().as_micros() as u64);
                resp
            }
            Request::RangeDeleteSecondary { lo, hi } => {
                committed_writes = true;
                let started = Instant::now();
                let resp = to_response(engine.range_delete_secondary(*lo, *hi), metrics);
                metrics
                    .write_latency
                    .record(started.elapsed().as_micros() as u64);
                resp
            }
            Request::RangeDeleteKeys { lo, hi } => {
                committed_writes = true;
                let started = Instant::now();
                let resp = to_response(engine.range_delete_keys(lo, hi), metrics);
                metrics
                    .write_latency
                    .record(started.elapsed().as_micros() as u64);
                resp
            }
            Request::Get { key } => {
                let started = Instant::now();
                let resp = match engine.get(key) {
                    Ok(v) => Response::Value(v),
                    Err(e) => err_response(e, metrics),
                };
                metrics
                    .read_latency
                    .record(started.elapsed().as_micros() as u64);
                resp
            }
            Request::Scan { lo, hi } => {
                let started = Instant::now();
                let resp = match engine.scan(lo, hi) {
                    Ok(rows) => Response::Rows(rows),
                    Err(e) => err_response(e, metrics),
                };
                metrics
                    .read_latency
                    .record(started.elapsed().as_micros() as u64);
                resp
            }
            Request::Stats => {
                let mut pairs = engine.stats_snapshot().to_pairs();
                pairs.extend(server_pairs(&pressure, metrics));
                Response::Stats(pairs)
            }
            Request::Metrics => {
                Response::Text(engine.render_metrics(&server_pairs(&pressure, metrics)))
            }
            Request::Events => Response::Text(engine.events_text()),
            Request::Traces => Response::Text(acheron::render_traces(&engine.recent_traces())),
            Request::Audit => {
                let audit = engine.delete_audit();
                Response::Audit {
                    violation: !audit.ok(),
                    text: audit.render(),
                }
            }
            Request::Traced { trace_id, inner } => {
                committed_writes |= inner.is_write();
                let latency = if inner.is_write() {
                    &metrics.write_latency
                } else {
                    &metrics.read_latency
                };
                let started = Instant::now();
                let resp = handle_traced(engine, *trace_id, inner, metrics);
                latency.record(started.elapsed().as_micros() as u64);
                resp
            }
        };
        responses.push(resp);
    }

    if committed_writes && pressure.slowdown {
        // The gentle tier: pace the connection instead of shedding.
        metrics.throttle_sleeps.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(shared.opts.slowdown_sleep);
    }

    responses
}

/// Execute a force-traced data op: run `inner` with tracing on and
/// wrap its ordinary result in [`Response::Trace`]. Failures drop the
/// trace wrapper and surface the plain `Busy`/`Err` — the caller's
/// retry logic should see exactly what an untraced op would produce.
fn handle_traced(
    engine: &ShardedDb,
    trace_id: u64,
    inner: &Request,
    metrics: &crate::metrics::ServerMetrics,
) -> Response {
    let wrap = |trace: acheron::OpTrace, inner: Response| Response::Trace {
        trace_id: trace.trace_id,
        op: trace.op.name().to_string(),
        spans: trace.named_spans(),
        inner: Box::new(inner),
    };
    match inner {
        Request::Put { key, value, dkey } => {
            // The traced path always stamps the engine tick; an explicit
            // dkey falls back to the untraced put so the stamp is honored.
            if let Some(d) = dkey {
                return to_response(engine.put_with_dkey(key, value, *d), metrics);
            }
            match engine.put_traced(key, value, Some(trace_id)) {
                Ok(trace) => wrap(trace, Response::Unit),
                Err(e) => err_response(e, metrics),
            }
        }
        Request::Delete { key } => match engine.delete_traced(key, Some(trace_id)) {
            Ok(trace) => wrap(trace, Response::Unit),
            Err(e) => err_response(e, metrics),
        },
        Request::Get { key } => match engine.get_traced(key, Some(trace_id)) {
            Ok((value, trace)) => wrap(trace, Response::Value(value)),
            Err(e) => err_response(e, metrics),
        },
        // The decoder rejects every other inner tag; keep the handler
        // total anyway.
        other => Response::Err(format!("cannot trace a {} request", other.op_name())),
    }
}

fn to_response(result: Result<()>, metrics: &crate::metrics::ServerMetrics) -> Response {
    match result {
        Ok(()) => Response::Unit,
        Err(e) => err_response(e, metrics),
    }
}

fn err_response(e: Error, metrics: &crate::metrics::ServerMetrics) -> Response {
    if e.is_busy() {
        metrics.busy_responses.fetch_add(1, Ordering::Relaxed);
        Response::Busy
    } else {
        metrics.error_responses.fetch_add(1, Ordering::Relaxed);
        Response::Err(e.to_string())
    }
}

/// What the server adds to the engine's pairs in the `stats` and
/// `metrics` responses: live pressure gauges (the worst shard's on a
/// fleet) and the server's own metrics.
fn server_pairs(
    pressure: &WritePressure,
    metrics: &crate::metrics::ServerMetrics,
) -> Vec<(String, u64)> {
    let mut pairs = vec![("db_l0_files".to_string(), pressure.l0_files as u64)];
    pairs.push((
        "db_sealed_memtables".into(),
        pressure.sealed_memtables as u64,
    ));
    pairs.push(("db_slowdown".into(), u64::from(pressure.slowdown)));
    pairs.push(("db_stall".into(), u64::from(pressure.stall)));
    pairs.extend(metrics.to_pairs());
    pairs
}

/// Frame and send a group's responses as one vectored write.
fn write_responses(
    mut stream: &TcpStream,
    responses: &[Response],
    shared: &Arc<Shared>,
) -> std::io::Result<()> {
    let mut out = Vec::new();
    for resp in responses {
        encode_frame(&resp.encode(), &mut out);
    }
    shared
        .metrics
        .bytes_out
        .fetch_add(out.len() as u64, Ordering::Relaxed);
    stream.write_all(&out)?;
    stream.flush()
}
