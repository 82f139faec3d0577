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

use acheron::{shard_of, WritePressure};
use acheron_types::{Error, Result};

use crate::answer::answer;
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
/// stall check (writes only), then [`answer`]. Pressure is captured once
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
        let resp = if is_data_op {
            let latency = if req.is_write() {
                &metrics.write_latency
            } else {
                &metrics.read_latency
            };
            let started = Instant::now();
            let resp = answer(engine, req, &[]);
            latency.record(started.elapsed().as_micros() as u64);
            resp
        } else {
            let pairs = match req {
                Request::Stats | Request::Metrics => server_pairs(&pressure, metrics),
                _ => Vec::new(),
            };
            answer(engine, req, &pairs)
        };
        if matches!(resp, Response::Busy) {
            metrics.busy_responses.fetch_add(1, Ordering::Relaxed);
        } else if matches!(resp, Response::Err(_)) {
            metrics.error_responses.fetch_add(1, Ordering::Relaxed);
        }
        responses.push(resp);
    }

    responses
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
