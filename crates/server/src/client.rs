//! A synchronous, pipelined client for the Acheron wire protocol.
//!
//! The client is deliberately dependency-free: one `TcpStream`, the
//! shared [`FrameDecoder`], and blocking
//! I/O. Three behaviors matter:
//!
//! * **Pipelining** — [`Client::pipeline`] writes any number of request
//!   frames before reading the responses back; the server guarantees
//!   response order matches request order.
//! * **Reconnect on drop** — a transport error on a *quiescent*
//!   connection (no responses outstanding) triggers one transparent
//!   reconnect-and-retry. Mid-pipeline errors are surfaced instead:
//!   the client cannot know which requests were applied.
//! * **Busy backoff** — [`Response::Busy`] (the server shedding writes
//!   under stall pressure) is retried with exponential backoff up to
//!   [`ClientOptions::busy_retries`] times, then surfaced as
//!   [`Error::Busy`].

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use acheron_types::{Error, Result};
use acheron_workload::OpSink;

use crate::wire::{encode_frame, FrameDecoder, Request, Response, DEFAULT_MAX_FRAME_BYTES};

/// Client tunables.
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// Timeout for establishing the TCP connection.
    pub connect_timeout: Duration,
    /// Timeout waiting for a response frame.
    pub read_timeout: Duration,
    /// Retries for a `Busy` response before giving up (0 = surface the
    /// first `Busy` immediately).
    pub busy_retries: u32,
    /// Initial busy backoff; doubles per retry.
    pub busy_backoff: Duration,
    /// Frame payload cap (must be ≥ the server's, or large scan
    /// responses will be rejected client-side).
    pub max_frame_bytes: usize,
}

impl Default for ClientOptions {
    fn default() -> ClientOptions {
        ClientOptions {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(30),
            busy_retries: 8,
            busy_backoff: Duration::from_millis(2),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        }
    }
}

/// A connection to an Acheron server.
pub struct Client {
    addr: SocketAddr,
    opts: ClientOptions,
    stream: Option<TcpStream>,
    decoder: FrameDecoder,
    buf: Vec<u8>,
}

impl Client {
    /// Connect with default options.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        Client::connect_with(addr, ClientOptions::default())
    }

    /// Connect with explicit options.
    pub fn connect_with(addr: impl ToSocketAddrs, opts: ClientOptions) -> Result<Client> {
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| Error::io("resolve server address", e))?
            .next()
            .ok_or_else(|| Error::invalid_argument("server address resolved to nothing"))?;
        let mut client = Client {
            addr,
            opts,
            stream: None,
            decoder: FrameDecoder::new(0),
            buf: vec![0u8; 64 << 10],
        };
        client.reconnect()?;
        Ok(client)
    }

    /// Drop and re-establish the connection (also clears any buffered
    /// partial frames).
    pub fn reconnect(&mut self) -> Result<()> {
        self.stream = None;
        let stream = TcpStream::connect_timeout(&self.addr, self.opts.connect_timeout)
            .map_err(|e| Error::io("connect to server", e))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(self.opts.read_timeout))
            .map_err(|e| Error::io("set client read timeout", e))?;
        self.decoder = FrameDecoder::new(self.opts.max_frame_bytes);
        self.stream = Some(stream);
        Ok(())
    }

    /// Send `requests` as one pipelined burst and read all responses
    /// back, in order. Transport errors mid-pipeline are surfaced (not
    /// retried): with responses outstanding the client cannot know
    /// which writes the server applied.
    pub fn pipeline(&mut self, requests: &[Request]) -> Result<Vec<Response>> {
        let mut frames = Vec::new();
        for req in requests {
            encode_frame(&req.encode(), &mut frames);
        }
        let stream = self
            .stream
            .as_mut()
            .ok_or_else(|| Error::io("pipeline", std::io::Error::other("not connected")))?;
        if let Err(e) = stream.write_all(&frames) {
            self.stream = None;
            return Err(Error::io("send request frames", e));
        }
        let mut responses = Vec::with_capacity(requests.len());
        while responses.len() < requests.len() {
            match self.read_frame() {
                Ok(frame) => responses.push(Response::decode(&frame)?),
                Err(e) => {
                    self.stream = None;
                    return Err(e);
                }
            }
        }
        Ok(responses)
    }

    /// One request, one response — with transparent reconnect: if the
    /// transport fails on this quiescent connection, reconnect and
    /// retry the request once.
    pub fn request(&mut self, request: &Request) -> Result<Response> {
        let mut reconnected = false;
        loop {
            if self.stream.is_none() {
                self.reconnect()?;
                reconnected = true;
            }
            match self.pipeline(std::slice::from_ref(request)) {
                Ok(mut responses) => return Ok(responses.pop().expect("one response")),
                Err(e) => {
                    let transport = matches!(e, Error::Io { .. });
                    if !transport || reconnected {
                        return Err(e);
                    }
                    // Fall through: reconnect at loop top and retry once.
                }
            }
        }
    }

    /// [`Client::request`] plus busy backoff: a request the server
    /// sheds as `Busy` (a write under stall pressure, any data op over
    /// the rate limit) is retried up to [`ClientOptions::busy_retries`]
    /// times.
    pub fn request_retrying_busy(&mut self, request: &Request) -> Result<Response> {
        let mut backoff = self.opts.busy_backoff;
        for _ in 0..self.opts.busy_retries {
            match self.request(request)? {
                Response::Busy => {
                    std::thread::sleep(backoff);
                    backoff = backoff.saturating_mul(2);
                }
                other => return Ok(other),
            }
        }
        match self.request(request)? {
            Response::Busy => Err(Error::busy(format!(
                "server still shedding {} after {} retries",
                request.op_name(),
                self.opts.busy_retries
            ))),
            other => Ok(other),
        }
    }

    fn read_frame(&mut self) -> Result<Vec<u8>> {
        loop {
            if let Some(frame) = self.decoder.next_frame()? {
                return Ok(frame);
            }
            let stream = self
                .stream
                .as_mut()
                .ok_or_else(|| Error::io("read frame", std::io::Error::other("not connected")))?;
            match stream.read(&mut self.buf) {
                Ok(0) => {
                    return Err(Error::io(
                        "read frame",
                        std::io::Error::new(
                            std::io::ErrorKind::UnexpectedEof,
                            "server closed the connection",
                        ),
                    ))
                }
                Ok(n) => {
                    let (buf, decoder) = (&self.buf[..n], &mut self.decoder);
                    decoder.feed(buf);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(Error::io("read frame", e)),
            }
        }
    }

    // ---- typed convenience wrappers -------------------------------

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        unit(self.request(&Request::Ping)?)
    }

    /// Insert/update; the server stamps the engine's current tick as
    /// the delete key (matching embedded `Db::put`).
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.put_opt(key, value, None)
    }

    /// Insert/update with an explicit secondary delete key.
    pub fn put_with_dkey(&mut self, key: &[u8], value: &[u8], dkey: u64) -> Result<()> {
        self.put_opt(key, value, Some(dkey))
    }

    fn put_opt(&mut self, key: &[u8], value: &[u8], dkey: Option<u64>) -> Result<()> {
        let req = Request::Put {
            key: key.to_vec(),
            value: value.to_vec(),
            dkey,
        };
        unit(self.request_retrying_busy(&req)?)
    }

    /// Point delete.
    pub fn delete(&mut self, key: &[u8]) -> Result<()> {
        unit(self.request_retrying_busy(&Request::Delete { key: key.to_vec() })?)
    }

    /// Point lookup.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        match self.request(&Request::Get { key: key.to_vec() })? {
            Response::Value(v) => Ok(v),
            other => Err(unexpected("get", &other)),
        }
    }

    /// Inclusive range scan.
    pub fn scan(&mut self, lo: &[u8], hi: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let req = Request::Scan {
            lo: lo.to_vec(),
            hi: hi.to_vec(),
        };
        match self.request(&req)? {
            Response::Rows(rows) => Ok(rows),
            other => Err(unexpected("scan", &other)),
        }
    }

    /// Secondary range delete over the delete-key domain.
    pub fn range_delete_secondary(&mut self, lo: u64, hi: u64) -> Result<()> {
        unit(self.request_retrying_busy(&Request::RangeDeleteSecondary { lo, hi })?)
    }

    /// Range delete over the sort-key domain (inclusive bounds).
    pub fn range_delete_keys(&mut self, lo: &[u8], hi: &[u8]) -> Result<()> {
        unit(self.request_retrying_busy(&Request::RangeDeleteKeys {
            lo: lo.to_vec(),
            hi: hi.to_vec(),
        })?)
    }

    /// Engine + server statistics as `(name, value)` pairs.
    pub fn stats(&mut self) -> Result<Vec<(String, u64)>> {
        match self.request(&Request::Stats)? {
            Response::Stats(pairs) => Ok(pairs),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Prometheus-style metrics exposition text (counters, gauges, and
    /// the tombstone age histogram).
    pub fn metrics(&mut self) -> Result<String> {
        match self.request(&Request::Metrics)? {
            Response::Text(text) => Ok(text),
            other => Err(unexpected("metrics", &other)),
        }
    }

    /// The engine's recent event ring, rendered one event per line.
    pub fn events(&mut self) -> Result<String> {
        match self.request(&Request::Events)? {
            Response::Text(text) => Ok(text),
            other => Err(unexpected("events", &other)),
        }
    }

    /// The traced ops' traces the event rings still hold, rendered one
    /// span per line.
    pub fn traces(&mut self) -> Result<String> {
        match self.request(&Request::Traces)? {
            Response::Text(text) => Ok(text),
            other => Err(unexpected("traces", &other)),
        }
    }

    /// The delete-lifecycle audit: `(violation, rendered report)`.
    /// `violation` is true when some cohort or live delete family has
    /// already overrun the server's `D_th`.
    pub fn audit(&mut self) -> Result<(bool, String)> {
        match self.request(&Request::Audit)? {
            Response::Audit { violation, text } => Ok((violation, text)),
            other => Err(unexpected("audit", &other)),
        }
    }

    /// Force-traced put: executes like [`Client::put`] but returns the
    /// server-side span breakdown.
    pub fn put_traced(&mut self, key: &[u8], value: &[u8], trace_id: u64) -> Result<TracedResult> {
        let req = Request::Traced {
            trace_id,
            inner: Box::new(Request::Put {
                key: key.to_vec(),
                value: value.to_vec(),
                dkey: None,
            }),
        };
        traced_result("traced put", self.request_retrying_busy(&req)?)
    }

    /// Force-traced point delete.
    pub fn delete_traced(&mut self, key: &[u8], trace_id: u64) -> Result<TracedResult> {
        let req = Request::Traced {
            trace_id,
            inner: Box::new(Request::Delete { key: key.to_vec() }),
        };
        traced_result("traced delete", self.request_retrying_busy(&req)?)
    }

    /// Force-traced point lookup; the looked-up value rides in
    /// [`TracedResult::value`].
    pub fn get_traced(&mut self, key: &[u8], trace_id: u64) -> Result<TracedResult> {
        let req = Request::Traced {
            trace_id,
            inner: Box::new(Request::Get { key: key.to_vec() }),
        };
        traced_result("traced get", self.request(&req)?)
    }
}

/// A force-traced operation's result: the server-side span breakdown
/// plus the wrapped operation's own payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracedResult {
    /// The trace id (echoed from the request).
    pub trace_id: u64,
    /// Operation name (`put`, `delete`, `get`).
    pub op: String,
    /// `(stage name, value)` pairs — microseconds for `_micros`
    /// stages, counts otherwise.
    pub spans: Vec<(String, u64)>,
    /// The wrapped get's value; `None` for writes and missing keys.
    pub value: Option<Vec<u8>>,
}

fn traced_result(what: &str, resp: Response) -> Result<TracedResult> {
    match resp {
        Response::Trace {
            trace_id,
            op,
            spans,
            inner,
        } => {
            let value = match *inner {
                Response::Unit => None,
                Response::Value(v) => v,
                other => return Err(unexpected(what, &other)),
            };
            Ok(TracedResult {
                trace_id,
                op,
                spans,
                value,
            })
        }
        other => Err(unexpected(what, &other)),
    }
}

/// A remote connection is a workload sink, so the same seeded op
/// stream can drive the engine embedded or over the wire.
impl OpSink for Client {
    fn put(&mut self, key: &[u8], value: &[u8], dkey: Option<u64>) -> Result<()> {
        self.put_opt(key, value, dkey)
    }

    fn delete(&mut self, key: &[u8]) -> Result<()> {
        Client::delete(self, key)
    }

    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Client::get(self, key)
    }

    fn scan(&mut self, lo: &[u8], hi: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        Client::scan(self, lo, hi)
    }

    fn range_delete_secondary(&mut self, lo: u64, hi: u64) -> Result<()> {
        Client::range_delete_secondary(self, lo, hi)
    }
}

fn unit(resp: Response) -> Result<()> {
    match resp {
        Response::Unit => Ok(()),
        Response::Busy => Err(Error::busy("server shed the request")),
        Response::Err(m) => Err(Error::Internal(format!("server error: {m}"))),
        other => Err(unexpected("write", &other)),
    }
}

fn unexpected(what: &str, resp: &Response) -> Error {
    match resp {
        Response::Err(m) => Error::Internal(format!("server error: {m}")),
        Response::Busy => Error::busy(format!("server shed the {what}")),
        other => Error::corruption(format!("unexpected response to {what}: {other:?}")),
    }
}
