//! The wire protocol: length-prefixed, CRC32C-framed binary messages.
//!
//! # Framing
//!
//! Every message (request or response) travels as one frame:
//!
//! ```text
//! +----------------+---------------------+------------------+
//! | len: u32 LE    | crc: u32 LE (masked)| payload[len]     |
//! +----------------+---------------------+------------------+
//! ```
//!
//! `len` is the payload length; `crc` is the masked CRC32C of the
//! payload (the same masking scheme as every other persistent artifact
//! in the engine, see [`acheron_types::checksum`]). A frame whose
//! length exceeds the negotiated cap or whose checksum fails is a
//! *protocol error*: the stream can no longer be trusted to be in sync,
//! so the peer reports an error and closes the connection — it never
//! panics and never wedges.
//!
//! # Messages
//!
//! Payloads are self-describing: a tag byte followed by fields encoded
//! with the engine's codec primitives (varints, length-prefixed
//! slices). Responses arrive strictly in request order, which is what
//! makes pipelining trivial: a client may write any number of request
//! frames before reading the matching responses back.

use acheron_types::codec::{
    get_u32_le, put_u32_le, put_varint64, require_length_prefixed, require_varint64,
};
use acheron_types::{checksum, Error, Result};

/// Frame header size: payload length + masked CRC.
pub const FRAME_HEADER_BYTES: usize = 8;

/// Default cap on a single frame's payload. Large enough for any
/// realistic scan response page, small enough that a malicious length
/// prefix cannot balloon server memory.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 4 << 20;

/// One client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Unit`].
    Ping,
    /// Insert/update. `dkey = None` lets the server stamp the engine's
    /// current tick (the embedded [`acheron::Db::put`] behavior).
    Put {
        /// Sort key.
        key: Vec<u8>,
        /// Value payload.
        value: Vec<u8>,
        /// Optional explicit secondary delete key.
        dkey: Option<u64>,
    },
    /// Point delete.
    Delete {
        /// Sort key.
        key: Vec<u8>,
    },
    /// Point lookup.
    Get {
        /// Sort key.
        key: Vec<u8>,
    },
    /// Inclusive range scan over sort keys.
    Scan {
        /// Low bound (inclusive).
        lo: Vec<u8>,
        /// High bound (inclusive).
        hi: Vec<u8>,
    },
    /// Secondary range delete over the delete-key domain.
    RangeDeleteSecondary {
        /// Low delete key (inclusive).
        lo: u64,
        /// High delete key (inclusive).
        hi: u64,
    },
    /// Range delete over the sort-key domain (inclusive bounds).
    RangeDeleteKeys {
        /// Low sort key (inclusive).
        lo: Vec<u8>,
        /// High sort key (inclusive).
        hi: Vec<u8>,
    },
    /// Engine + server statistics as `(name, value)` pairs.
    Stats,
    /// Prometheus-style text exposition of counters and the live
    /// delete-persistence gauges; answered with [`Response::Text`].
    Metrics,
    /// The engine's flight-recorder ring, rendered one event per line;
    /// answered with [`Response::Text`].
    Events,
    /// The traced ops' traces the event rings still hold, rendered one
    /// span per line; answered with [`Response::Text`].
    Traces,
    /// The delete-lifecycle audit: per-cohort `D_th` slack plus the
    /// live unresolved-delete ages; answered with [`Response::Audit`].
    Audit,
    /// Trace one data operation: the server executes `inner` under a
    /// trace and answers with [`Response::Trace`] carrying the span
    /// breakdown. Only `Put`, `Delete`, and `Get` may be wrapped —
    /// nesting is a protocol error.
    Traced {
        /// Client-chosen trace id, echoed back so a caller can stitch
        /// its own timeline onto the server-side spans.
        trace_id: u64,
        /// The wrapped data operation.
        inner: Box<Request>,
    },
}

const REQ_PING: u8 = 1;
const REQ_PUT: u8 = 2;
const REQ_DELETE: u8 = 3;
const REQ_GET: u8 = 4;
const REQ_SCAN: u8 = 5;
const REQ_RDEL: u8 = 6;
const REQ_STATS: u8 = 7;
const REQ_METRICS: u8 = 8;
const REQ_EVENTS: u8 = 9;
const REQ_KRDEL: u8 = 10;
const REQ_TRACES: u8 = 11;
const REQ_AUDIT: u8 = 12;
const REQ_TRACED: u8 = 13;

impl Request {
    /// True for operations that mutate the database (the ones the
    /// server sheds with [`Response::Busy`] under stall pressure).
    pub fn is_write(&self) -> bool {
        match self {
            Request::Put { .. }
            | Request::Delete { .. }
            | Request::RangeDeleteSecondary { .. }
            | Request::RangeDeleteKeys { .. } => true,
            Request::Traced { inner, .. } => inner.is_write(),
            _ => false,
        }
    }

    /// The primary key a keyed request routes by (`None` for keyless
    /// requests: scans, range deletes, stats/metrics/events, ping).
    /// The sharded server uses this for per-shard admission — a write
    /// is shed only when *its* shard is stalled.
    pub fn key(&self) -> Option<&[u8]> {
        match self {
            Request::Put { key, .. } | Request::Delete { key } | Request::Get { key } => {
                Some(key.as_slice())
            }
            Request::Traced { inner, .. } => inner.key(),
            _ => None,
        }
    }

    /// Short operation name, used for metrics labels.
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Put { .. } => "put",
            Request::Delete { .. } => "delete",
            Request::Get { .. } => "get",
            Request::Scan { .. } => "scan",
            Request::RangeDeleteSecondary { .. } => "range_delete",
            Request::RangeDeleteKeys { .. } => "range_delete_keys",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Events => "events",
            Request::Traces => "traces",
            Request::Audit => "audit",
            Request::Traced { .. } => "traced",
        }
    }

    /// Encode into a message payload (no frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Ping => out.push(REQ_PING),
            Request::Put { key, value, dkey } => {
                out.push(REQ_PUT);
                match dkey {
                    Some(d) => {
                        out.push(1);
                        put_varint64(&mut out, *d);
                    }
                    None => out.push(0),
                }
                put_slice(&mut out, key);
                put_slice(&mut out, value);
            }
            Request::Delete { key } => {
                out.push(REQ_DELETE);
                put_slice(&mut out, key);
            }
            Request::Get { key } => {
                out.push(REQ_GET);
                put_slice(&mut out, key);
            }
            Request::Scan { lo, hi } => {
                out.push(REQ_SCAN);
                put_slice(&mut out, lo);
                put_slice(&mut out, hi);
            }
            Request::RangeDeleteSecondary { lo, hi } => {
                out.push(REQ_RDEL);
                put_varint64(&mut out, *lo);
                put_varint64(&mut out, *hi);
            }
            Request::RangeDeleteKeys { lo, hi } => {
                out.push(REQ_KRDEL);
                put_slice(&mut out, lo);
                put_slice(&mut out, hi);
            }
            Request::Stats => out.push(REQ_STATS),
            Request::Metrics => out.push(REQ_METRICS),
            Request::Events => out.push(REQ_EVENTS),
            Request::Traces => out.push(REQ_TRACES),
            Request::Audit => out.push(REQ_AUDIT),
            Request::Traced { trace_id, inner } => {
                out.push(REQ_TRACED);
                put_varint64(&mut out, *trace_id);
                out.extend_from_slice(&inner.encode());
            }
        }
        out
    }

    /// Decode a message payload. Total: malformed input yields a
    /// [`Error::Corruption`], never a panic.
    pub fn decode(payload: &[u8]) -> Result<Request> {
        let (&tag, rest) = payload
            .split_first()
            .ok_or_else(|| Error::corruption("empty request payload"))?;
        match tag {
            REQ_PING => {
                expect_empty(rest, "ping")?;
                Ok(Request::Ping)
            }
            REQ_PUT => {
                let (&flag, rest) = rest
                    .split_first()
                    .ok_or_else(|| Error::corruption("truncated put flags"))?;
                let (dkey, rest) = match flag {
                    0 => (None, rest),
                    1 => {
                        let (d, rest) = require_varint64(rest, "put dkey")?;
                        (Some(d), rest)
                    }
                    other => return Err(Error::corruption(format!("bad put flag byte {other}"))),
                };
                let (key, rest) = require_length_prefixed(rest, "put key")?;
                let (value, rest) = require_length_prefixed(rest, "put value")?;
                expect_empty(rest, "put")?;
                Ok(Request::Put {
                    key: key.to_vec(),
                    value: value.to_vec(),
                    dkey,
                })
            }
            REQ_DELETE => {
                let (key, rest) = require_length_prefixed(rest, "delete key")?;
                expect_empty(rest, "delete")?;
                Ok(Request::Delete { key: key.to_vec() })
            }
            REQ_GET => {
                let (key, rest) = require_length_prefixed(rest, "get key")?;
                expect_empty(rest, "get")?;
                Ok(Request::Get { key: key.to_vec() })
            }
            REQ_SCAN => {
                let (lo, rest) = require_length_prefixed(rest, "scan lo")?;
                let (hi, rest) = require_length_prefixed(rest, "scan hi")?;
                expect_empty(rest, "scan")?;
                Ok(Request::Scan {
                    lo: lo.to_vec(),
                    hi: hi.to_vec(),
                })
            }
            REQ_RDEL => {
                let (lo, rest) = require_varint64(rest, "range delete lo")?;
                let (hi, rest) = require_varint64(rest, "range delete hi")?;
                expect_empty(rest, "range delete")?;
                Ok(Request::RangeDeleteSecondary { lo, hi })
            }
            REQ_KRDEL => {
                let (lo, rest) = require_length_prefixed(rest, "key range delete lo")?;
                let (hi, rest) = require_length_prefixed(rest, "key range delete hi")?;
                expect_empty(rest, "key range delete")?;
                Ok(Request::RangeDeleteKeys {
                    lo: lo.to_vec(),
                    hi: hi.to_vec(),
                })
            }
            REQ_STATS => {
                expect_empty(rest, "stats")?;
                Ok(Request::Stats)
            }
            REQ_METRICS => {
                expect_empty(rest, "metrics")?;
                Ok(Request::Metrics)
            }
            REQ_EVENTS => {
                expect_empty(rest, "events")?;
                Ok(Request::Events)
            }
            REQ_TRACES => {
                expect_empty(rest, "traces")?;
                Ok(Request::Traces)
            }
            REQ_AUDIT => {
                expect_empty(rest, "audit")?;
                Ok(Request::Audit)
            }
            REQ_TRACED => {
                let (trace_id, rest) = require_varint64(rest, "traced id")?;
                // Only flat data ops may be wrapped. Checking the tag
                // *before* recursing keeps decode depth constant — a
                // frame of nested REQ_TRACED tags must not be able to
                // recurse the stack away.
                match rest.first() {
                    Some(&t) if t == REQ_PUT || t == REQ_DELETE || t == REQ_GET => {}
                    Some(&t) => {
                        return Err(Error::corruption(format!(
                            "request tag {t} cannot be traced"
                        )))
                    }
                    None => return Err(Error::corruption("traced request without an inner op")),
                }
                let inner = Request::decode(rest)?;
                Ok(Request::Traced {
                    trace_id,
                    inner: Box::new(inner),
                })
            }
            other => Err(Error::corruption(format!("unknown request tag {other}"))),
        }
    }
}

/// One server response. Self-describing (tagged), so a response stream
/// can be decoded without the request context; responses are delivered
/// strictly in request order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Acknowledgement with no body (ping and accepted writes).
    Unit,
    /// Point-lookup result (`None` = key absent or deleted).
    Value(Option<Vec<u8>>),
    /// Scan result rows in key order.
    Rows(Vec<(Vec<u8>, Vec<u8>)>),
    /// Statistics pairs.
    Stats(Vec<(String, u64)>),
    /// The server shed this request under write stall pressure; retry
    /// after backing off.
    Busy,
    /// The request failed; the message is the engine/server error text.
    Err(String),
    /// A rendered text document (metrics exposition, event listing).
    Text(String),
    /// The span breakdown of a force-traced data op, wrapping the
    /// operation's ordinary result. `spans` are `(stage name, value)`
    /// pairs — microseconds for `_micros` stages, counts otherwise.
    Trace {
        /// The trace id (client-chosen or server-allocated).
        trace_id: u64,
        /// Operation name (`put`, `delete`, `get`).
        op: String,
        /// Named stage measurements, in recording order.
        spans: Vec<(String, u64)>,
        /// The wrapped operation's own response (`Unit` or `Value`).
        inner: Box<Response>,
    },
    /// The delete-lifecycle audit report.
    Audit {
        /// True when some cohort or live gauge has already overrun
        /// `D_th` — the CLI exits nonzero on this flag.
        violation: bool,
        /// The rendered per-cohort report.
        text: String,
    },
}

const RESP_UNIT: u8 = 1;
const RESP_VALUE: u8 = 2;
const RESP_NO_VALUE: u8 = 3;
const RESP_ROWS: u8 = 4;
const RESP_STATS: u8 = 5;
const RESP_BUSY: u8 = 6;
const RESP_ERR: u8 = 7;
const RESP_TEXT: u8 = 8;
const RESP_TRACE: u8 = 9;
const RESP_AUDIT: u8 = 10;

impl Response {
    /// Encode into a message payload (no frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Unit => out.push(RESP_UNIT),
            Response::Value(Some(v)) => {
                out.push(RESP_VALUE);
                put_slice(&mut out, v);
            }
            Response::Value(None) => out.push(RESP_NO_VALUE),
            Response::Rows(rows) => {
                out.push(RESP_ROWS);
                put_varint64(&mut out, rows.len() as u64);
                for (k, v) in rows {
                    put_slice(&mut out, k);
                    put_slice(&mut out, v);
                }
            }
            Response::Stats(pairs) => {
                out.push(RESP_STATS);
                put_varint64(&mut out, pairs.len() as u64);
                for (name, value) in pairs {
                    put_slice(&mut out, name.as_bytes());
                    put_varint64(&mut out, *value);
                }
            }
            Response::Busy => out.push(RESP_BUSY),
            Response::Err(msg) => {
                out.push(RESP_ERR);
                put_slice(&mut out, msg.as_bytes());
            }
            Response::Text(text) => {
                out.push(RESP_TEXT);
                put_slice(&mut out, text.as_bytes());
            }
            Response::Trace {
                trace_id,
                op,
                spans,
                inner,
            } => {
                out.push(RESP_TRACE);
                put_varint64(&mut out, *trace_id);
                put_slice(&mut out, op.as_bytes());
                put_varint64(&mut out, spans.len() as u64);
                for (name, value) in spans {
                    put_slice(&mut out, name.as_bytes());
                    put_varint64(&mut out, *value);
                }
                out.extend_from_slice(&inner.encode());
            }
            Response::Audit { violation, text } => {
                out.push(RESP_AUDIT);
                out.push(u8::from(*violation));
                put_slice(&mut out, text.as_bytes());
            }
        }
        out
    }

    /// Decode a message payload. Total: malformed input yields a
    /// [`Error::Corruption`], never a panic.
    pub fn decode(payload: &[u8]) -> Result<Response> {
        let (&tag, rest) = payload
            .split_first()
            .ok_or_else(|| Error::corruption("empty response payload"))?;
        match tag {
            RESP_UNIT => {
                expect_empty(rest, "unit")?;
                Ok(Response::Unit)
            }
            RESP_VALUE => {
                let (v, rest) = require_length_prefixed(rest, "value body")?;
                expect_empty(rest, "value")?;
                Ok(Response::Value(Some(v.to_vec())))
            }
            RESP_NO_VALUE => {
                expect_empty(rest, "no-value")?;
                Ok(Response::Value(None))
            }
            RESP_ROWS => {
                let (n, mut rest) = require_varint64(rest, "row count")?;
                // Bound preallocation by what the payload could actually
                // hold (2 bytes minimum per row) so a lying count cannot
                // balloon memory.
                let n = usize::try_from(n)
                    .map_err(|_| Error::corruption("row count overflows usize"))?;
                if n > rest.len() / 2 + 1 {
                    return Err(Error::corruption(format!(
                        "row count {n} impossible for {}-byte body",
                        rest.len()
                    )));
                }
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    let (k, r) = require_length_prefixed(rest, "row key")?;
                    let (v, r) = require_length_prefixed(r, "row value")?;
                    rows.push((k.to_vec(), v.to_vec()));
                    rest = r;
                }
                expect_empty(rest, "rows")?;
                Ok(Response::Rows(rows))
            }
            RESP_STATS => {
                let (n, mut rest) = require_varint64(rest, "stats count")?;
                let n = usize::try_from(n)
                    .map_err(|_| Error::corruption("stats count overflows usize"))?;
                if n > rest.len() / 2 + 1 {
                    return Err(Error::corruption(format!(
                        "stats count {n} impossible for {}-byte body",
                        rest.len()
                    )));
                }
                let mut pairs = Vec::with_capacity(n);
                for _ in 0..n {
                    let (name, r) = require_length_prefixed(rest, "stat name")?;
                    let (value, r) = require_varint64(r, "stat value")?;
                    let name = String::from_utf8(name.to_vec())
                        .map_err(|_| Error::corruption("stat name is not utf-8"))?;
                    pairs.push((name, value));
                    rest = r;
                }
                expect_empty(rest, "stats")?;
                Ok(Response::Stats(pairs))
            }
            RESP_BUSY => {
                expect_empty(rest, "busy")?;
                Ok(Response::Busy)
            }
            RESP_ERR => {
                let (msg, rest) = require_length_prefixed(rest, "error message")?;
                expect_empty(rest, "error")?;
                Ok(Response::Err(String::from_utf8_lossy(msg).into_owned()))
            }
            RESP_TEXT => {
                let (text, rest) = require_length_prefixed(rest, "text body")?;
                expect_empty(rest, "text")?;
                Ok(Response::Text(String::from_utf8_lossy(text).into_owned()))
            }
            RESP_TRACE => {
                let (trace_id, rest) = require_varint64(rest, "trace id")?;
                let (op, rest) = require_length_prefixed(rest, "trace op")?;
                let op = String::from_utf8(op.to_vec())
                    .map_err(|_| Error::corruption("trace op is not utf-8"))?;
                let (n, mut rest) = require_varint64(rest, "trace span count")?;
                let n = usize::try_from(n)
                    .map_err(|_| Error::corruption("trace span count overflows usize"))?;
                if n > rest.len() / 2 + 1 {
                    return Err(Error::corruption(format!(
                        "trace span count {n} impossible for {}-byte body",
                        rest.len()
                    )));
                }
                let mut spans = Vec::with_capacity(n);
                for _ in 0..n {
                    let (name, r) = require_length_prefixed(rest, "trace span name")?;
                    let (value, r) = require_varint64(r, "trace span value")?;
                    let name = String::from_utf8(name.to_vec())
                        .map_err(|_| Error::corruption("trace span name is not utf-8"))?;
                    spans.push((name, value));
                    rest = r;
                }
                // The wrapped result is a flat tag; refusing anything
                // else before recursing keeps decode depth constant.
                match rest.first() {
                    Some(&t) if t == RESP_UNIT || t == RESP_VALUE || t == RESP_NO_VALUE => {}
                    Some(&t) => {
                        return Err(Error::corruption(format!(
                            "response tag {t} cannot be trace-wrapped"
                        )))
                    }
                    None => return Err(Error::corruption("trace without an inner response")),
                }
                let inner = Response::decode(rest)?;
                Ok(Response::Trace {
                    trace_id,
                    op,
                    spans,
                    inner: Box::new(inner),
                })
            }
            RESP_AUDIT => {
                let (&flag, rest) = rest
                    .split_first()
                    .ok_or_else(|| Error::corruption("truncated audit flag"))?;
                let violation = match flag {
                    0 => false,
                    1 => true,
                    other => return Err(Error::corruption(format!("bad audit flag byte {other}"))),
                };
                let (text, rest) = require_length_prefixed(rest, "audit body")?;
                expect_empty(rest, "audit")?;
                Ok(Response::Audit {
                    violation,
                    text: String::from_utf8_lossy(text).into_owned(),
                })
            }
            other => Err(Error::corruption(format!("unknown response tag {other}"))),
        }
    }
}

/// Append one framed message (header + payload) to `dst`.
pub fn encode_frame(payload: &[u8], dst: &mut Vec<u8>) {
    put_u32_le(dst, payload.len() as u32);
    put_u32_le(dst, checksum::masked(&[payload]));
    dst.extend_from_slice(payload);
}

/// Incremental frame parser over a byte stream. Feed it raw socket
/// reads; it yields complete, checksum-verified payloads. All failure
/// modes are [`Error::Corruption`] — a caller should treat any error as
/// fatal to the connection (the stream is no longer in sync).
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Read cursor into `buf`; consumed bytes are compacted away
    /// periodically rather than on every frame.
    pos: usize,
    max_frame: usize,
}

impl FrameDecoder {
    /// A decoder enforcing the given payload-size cap.
    pub fn new(max_frame: usize) -> FrameDecoder {
        FrameDecoder {
            buf: Vec::new(),
            pos: 0,
            max_frame,
        }
    }

    /// Append raw bytes read from the transport.
    pub fn feed(&mut self, data: &[u8]) {
        // Compact lazily: only when the dead prefix dominates.
        if self.pos > 0 && self.pos >= self.buf.len() / 2 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(data);
    }

    /// Bytes buffered but not yet consumed (a non-empty value after the
    /// peer closed means a truncated frame).
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Extract the next complete frame's payload, `Ok(None)` if more
    /// bytes are needed.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>> {
        let avail = &self.buf[self.pos..];
        let Some((len, rest)) = get_u32_le(avail) else {
            return Ok(None);
        };
        let len = len as usize;
        if len > self.max_frame {
            return Err(Error::corruption(format!(
                "frame of {len} bytes exceeds the {}-byte cap",
                self.max_frame
            )));
        }
        let Some((stored_crc, body)) = get_u32_le(rest) else {
            return Ok(None);
        };
        if body.len() < len {
            return Ok(None);
        }
        let payload = &body[..len];
        if stored_crc != checksum::masked(&[payload]) {
            return Err(Error::corruption("frame checksum mismatch"));
        }
        let payload = payload.to_vec();
        self.pos += FRAME_HEADER_BYTES + len;
        Ok(Some(payload))
    }
}

fn put_slice(dst: &mut Vec<u8>, slice: &[u8]) {
    put_varint64(dst, slice.len() as u64);
    dst.extend_from_slice(slice);
}

/// A decoded message must consume its whole payload — trailing bytes
/// mean a framing bug or tampering.
fn expect_empty(rest: &[u8], what: &str) -> Result<()> {
    if rest.is_empty() {
        Ok(())
    } else {
        Err(Error::corruption(format!(
            "{} byte(s) trailing a {what} message",
            rest.len()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Put {
                key: b"k".to_vec(),
                value: b"v".to_vec(),
                dkey: None,
            },
            Request::Put {
                key: vec![],
                value: vec![0; 300],
                dkey: Some(u64::MAX),
            },
            Request::Delete {
                key: b"gone".to_vec(),
            },
            Request::Get { key: b"k".to_vec() },
            Request::Scan {
                lo: b"a".to_vec(),
                hi: b"z".to_vec(),
            },
            Request::RangeDeleteSecondary {
                lo: 0,
                hi: u64::MAX,
            },
            Request::RangeDeleteKeys {
                lo: b"user:".to_vec(),
                hi: b"user:\xff".to_vec(),
            },
            Request::Stats,
            Request::Metrics,
            Request::Events,
            Request::Traces,
            Request::Audit,
            Request::Traced {
                trace_id: 7,
                inner: Box::new(Request::Put {
                    key: b"k".to_vec(),
                    value: b"v".to_vec(),
                    dkey: None,
                }),
            },
            Request::Traced {
                trace_id: u64::MAX,
                inner: Box::new(Request::Get { key: b"k".to_vec() }),
            },
            Request::Traced {
                trace_id: 0,
                inner: Box::new(Request::Delete {
                    key: b"gone".to_vec(),
                }),
            },
        ]
    }

    fn all_responses() -> Vec<Response> {
        vec![
            Response::Unit,
            Response::Value(Some(b"payload".to_vec())),
            Response::Value(None),
            Response::Rows(vec![
                (b"a".to_vec(), b"1".to_vec()),
                (b"b".to_vec(), vec![0xff; 100]),
            ]),
            Response::Rows(vec![]),
            Response::Stats(vec![("puts".into(), 42), ("gets".into(), u64::MAX)]),
            Response::Busy,
            Response::Err("it broke".into()),
            Response::Text("db_live_tombstones 7\n".into()),
            Response::Text(String::new()),
            Response::Trace {
                trace_id: 42,
                op: "put".into(),
                spans: vec![
                    ("wal_append_fsync_micros".into(), 120),
                    ("memtable_insert_micros".into(), 3),
                    ("total_micros".into(), 130),
                ],
                inner: Box::new(Response::Unit),
            },
            Response::Trace {
                trace_id: 43,
                op: "get".into(),
                spans: vec![],
                inner: Box::new(Response::Value(Some(b"v".to_vec()))),
            },
            Response::Audit {
                violation: false,
                text: "all cohorts resolved\n".into(),
            },
            Response::Audit {
                violation: true,
                text: "cohort shard=0 epoch=3 overdue\n".into(),
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in all_requests() {
            let enc = req.encode();
            assert_eq!(Request::decode(&enc).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in all_responses() {
            let enc = resp.encode();
            assert_eq!(Response::decode(&enc).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn framed_stream_round_trips_through_decoder_in_any_chunking() {
        let mut stream = Vec::new();
        for req in all_requests() {
            encode_frame(&req.encode(), &mut stream);
        }
        for chunk in [1usize, 3, 7, stream.len()] {
            let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_BYTES);
            let mut decoded = Vec::new();
            for part in stream.chunks(chunk) {
                dec.feed(part);
                while let Some(frame) = dec.next_frame().unwrap() {
                    decoded.push(Request::decode(&frame).unwrap());
                }
            }
            assert_eq!(decoded, all_requests(), "chunk={chunk}");
            assert_eq!(dec.pending_bytes(), 0);
        }
    }

    #[test]
    fn corrupt_frames_error_instead_of_panicking() {
        // Bad checksum.
        let mut frame = Vec::new();
        encode_frame(b"\x01", &mut frame);
        let last = frame.len() - 1;
        frame[last] ^= 0xff;
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_BYTES);
        dec.feed(&frame);
        assert!(dec.next_frame().is_err());

        // Oversize length prefix rejected before buffering the body.
        let mut dec = FrameDecoder::new(64);
        let mut huge = Vec::new();
        put_u32_le(&mut huge, 1 << 30);
        put_u32_le(&mut huge, 0);
        dec.feed(&huge);
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn truncated_decoders_report_none_not_error() {
        let mut frame = Vec::new();
        encode_frame(&Request::Ping.encode(), &mut frame);
        for cut in 0..frame.len() {
            let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_BYTES);
            dec.feed(&frame[..cut]);
            assert!(dec.next_frame().unwrap().is_none(), "cut={cut}");
        }
    }

    #[test]
    fn malformed_payload_bytes_never_panic_decoders() {
        // Deterministic pseudo-random fuzz over short payloads: decode
        // must return (not panic) on every input.
        let mut seed = 0x12345678u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u8
        };
        for len in 0..64usize {
            for _ in 0..32 {
                let payload: Vec<u8> = (0..len).map(|_| next()).collect();
                let _ = Request::decode(&payload);
                let _ = Response::decode(&payload);
            }
        }
    }

    #[test]
    fn lying_row_count_is_rejected() {
        let mut payload = vec![RESP_ROWS];
        put_varint64(&mut payload, u64::MAX);
        assert!(Response::decode(&payload).is_err());
    }

    #[test]
    fn traced_rejects_nesting_and_non_data_ops() {
        // A deep stack of nested REQ_TRACED tags must fail on the first
        // level, not recurse once per byte.
        let mut nested = Vec::new();
        for _ in 0..100_000 {
            nested.push(REQ_TRACED);
            nested.push(0); // varint trace id 0
        }
        assert!(Request::decode(&nested).is_err());

        // Control-plane ops cannot be wrapped.
        let mut payload = vec![REQ_TRACED, 1, REQ_STATS];
        assert!(Request::decode(&payload).is_err());
        payload = vec![REQ_TRACED, 1];
        assert!(Request::decode(&payload).is_err(), "missing inner op");

        // Same constant-depth guarantee on the response side.
        let mut resp = Vec::new();
        for _ in 0..100_000 {
            resp.push(RESP_TRACE);
            resp.push(0); // trace id
            resp.push(0); // empty op name
            resp.push(0); // zero spans
        }
        assert!(Response::decode(&resp).is_err());
    }
}
