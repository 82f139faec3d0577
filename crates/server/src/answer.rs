//! The one map from a [`Request`] to the engine.
//!
//! A server connection, the embedded REPL and the offline one-shot
//! subcommands all answer a request here, so a command means the same
//! thing — and renders from the same [`Response`] — whichever front end
//! issues it. What a server adds on top (admission, latency records,
//! busy/error counts, pacing) stays in the connection handler.

use acheron::{OpTrace, ShardedDb};
use acheron_types::{Error, Result};

use crate::wire::{Request, Response};

/// Answer `req` on `engine`. `server_pairs` is what a server appends to
/// the engine's pairs in the `Stats` and `Metrics` responses (live
/// pressure and its own counters); an embedded caller passes none.
///
/// A force-traced request runs its inner op traced and wraps the
/// ordinary result in [`Response::Trace`]; a failure drops the wrapper
/// and surfaces the plain `Busy`/`Err`, exactly what the untraced op
/// would produce.
pub fn answer(engine: &ShardedDb, req: &Request, server_pairs: &[(String, u64)]) -> Response {
    match req {
        Request::Ping => Response::Unit,
        // An unstamped put takes the engine's current tick as its
        // delete key, matching the embedded `Db::put` path.
        Request::Put { key, value, dkey } => {
            unit(engine.put_with_dkey(key, value, dkey.unwrap_or_else(|| engine.now())))
        }
        Request::Delete { key } => unit(engine.delete(key)),
        Request::RangeDeleteSecondary { lo, hi } => unit(engine.range_delete_secondary(*lo, *hi)),
        Request::RangeDeleteKeys { lo, hi } => unit(engine.range_delete_keys(lo, hi)),
        Request::Get { key } => engine.get(key).map_or_else(error, Response::Value),
        Request::Scan { lo, hi } => engine.scan(lo, hi).map_or_else(error, Response::Rows),
        Request::Stats => {
            let mut pairs = engine.stats_snapshot().to_pairs();
            pairs.extend_from_slice(server_pairs);
            Response::Stats(pairs)
        }
        Request::Metrics => Response::Text(engine.render_metrics(server_pairs)),
        Request::Events => Response::Text(engine.events_text()),
        Request::Traces => Response::Text(acheron::render_traces(&engine.recent_traces())),
        Request::Audit => {
            let audit = engine.delete_audit();
            Response::Audit {
                violation: !audit.ok(),
                text: audit.render(),
            }
        }
        Request::Traced { trace_id, inner } => traced(engine, *trace_id, inner),
    }
}

fn traced(engine: &ShardedDb, trace_id: u64, inner: &Request) -> Response {
    let wrap = |trace: OpTrace, inner: Response| Response::Trace {
        trace_id: trace.trace_id,
        op: trace.op.name().to_string(),
        spans: trace.named_spans(),
        inner: Box::new(inner),
    };
    let id = Some(trace_id);
    match inner {
        Request::Put { key, value, dkey } => engine
            .put_with_dkey_traced(key, value, dkey.unwrap_or_else(|| engine.now()), id)
            .map_or_else(error, |trace| wrap(trace, Response::Unit)),
        Request::Delete { key } => engine
            .delete_traced(key, id)
            .map_or_else(error, |trace| wrap(trace, Response::Unit)),
        Request::Get { key } => engine
            .get_traced(key, id)
            .map_or_else(error, |(value, trace)| wrap(trace, Response::Value(value))),
        // The decoder rejects every other inner tag; keep the map total
        // anyway.
        other => Response::Err(format!("cannot trace a {} request", other.op_name())),
    }
}

fn unit(result: Result<()>) -> Response {
    result.map_or_else(error, |()| Response::Unit)
}

/// An engine error as the wire carries it: backpressure is `Busy` (the
/// client may retry), anything else an `Err` with the message.
fn error(e: Error) -> Response {
    if e.is_busy() {
        Response::Busy
    } else {
        Response::Err(e.to_string())
    }
}
