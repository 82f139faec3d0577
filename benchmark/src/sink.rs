//! Where generated ops go: the embedded engine, a fleet, the sync wire
//! `Client`, the benchmark's own instrumented wire loop, or nothing.
//!
//! Every sink is closed-loop: the driver issues the next op only after
//! the previous reply is in its hands.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use acheron::{Db, OpTrace, ShardedDb, TraceStage};
use acheron_server::wire::{encode_frame, FrameDecoder, DEFAULT_MAX_FRAME_BYTES};
use acheron_server::{Client, Request, Response};
use bytes::Bytes;

use crate::trace::SpanLog;

/// An op that did not complete: an engine error, a `Busy`, or a reply
/// of the wrong shape. Counted against `attempted`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fail(pub String);

fn fail<E: std::fmt::Display>(e: E) -> Fail {
    Fail(e.to_string())
}

/// Scan result rows: `(key, value)` in key order.
pub type Rows<V> = Vec<(V, V)>;

/// One-op-at-a-time interface shared by every per-op workload.
pub trait Sink {
    /// Owned bytes of a returned key or value.
    type Val: AsRef<[u8]>;

    /// `dkey = None` lets the engine stamp its current tick.
    fn put(&mut self, key: &[u8], value: &[u8], dkey: Option<u64>) -> Result<(), Fail>;
    fn delete(&mut self, key: &[u8]) -> Result<(), Fail>;
    fn get(&mut self, key: &[u8]) -> Result<Option<Self::Val>, Fail>;
    fn scan(&mut self, lo: &[u8], hi: &[u8]) -> Result<Rows<Self::Val>, Fail>;
    fn range_delete_keys(&mut self, lo: &[u8], hi: &[u8]) -> Result<(), Fail>;
    fn range_delete_secondary(&mut self, lo: u64, hi: u64) -> Result<(), Fail>;

    /// The host's periodic maintenance call. The wire has no such
    /// request, so only embedded sinks accept it.
    fn maintain(&mut self) -> Result<(), Fail> {
        Err(Fail("this sink has no maintenance call".into()))
    }

    /// Table pages the last get touched, where the sink can know it.
    fn last_get_pages(&self) -> Option<u64> {
        None
    }
}

/// A pipelined interface: one burst out, all replies back.
pub trait BurstSink {
    fn burst(&mut self, requests: &[Request]) -> Result<Vec<Response>, Fail>;
}

impl Sink for &Db {
    type Val = Bytes;

    fn put(&mut self, key: &[u8], value: &[u8], dkey: Option<u64>) -> Result<(), Fail> {
        match dkey {
            Some(d) => self.put_with_dkey(key, value, d),
            None => Db::put(self, key, value),
        }
        .map_err(fail)
    }

    fn delete(&mut self, key: &[u8]) -> Result<(), Fail> {
        Db::delete(self, key).map_err(fail)
    }

    fn get(&mut self, key: &[u8]) -> Result<Option<Bytes>, Fail> {
        Db::get(self, key).map_err(fail)
    }

    fn scan(&mut self, lo: &[u8], hi: &[u8]) -> Result<Rows<Bytes>, Fail> {
        Db::scan(self, lo, hi).map_err(fail)
    }

    fn range_delete_keys(&mut self, lo: &[u8], hi: &[u8]) -> Result<(), Fail> {
        Db::range_delete_keys(self, lo, hi).map_err(fail)
    }

    fn range_delete_secondary(&mut self, lo: u64, hi: u64) -> Result<(), Fail> {
        Db::range_delete_secondary(self, lo, hi).map_err(fail)
    }

    fn maintain(&mut self) -> Result<(), Fail> {
        Db::maintain(self).map_err(fail)
    }
}

/// Sums of the engine's own per-op trace stages (`Db::*_traced`). Only
/// counts and coarse stages are used: the engine truncates stage times
/// to whole microseconds, so a sub-microsecond stage reads 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageSums {
    pub traced_gets: u64,
    pub traced_writes: u64,
    pub imm_probes: u64,
    pub table_probes: u64,
    pub bloom_prescreen_skips: u64,
    pub seqno_skips: u64,
    pub cache_hit_pages: u64,
    pub cache_miss_pages: u64,
    pub vlog_derefs: u64,
    pub wal_us: u64,
    pub inline_maintenance_us: u64,
}

impl StageSums {
    fn add(&mut self, trace: &OpTrace) -> u64 {
        let mut pages = 0;
        for &(stage, value) in &trace.spans {
            match stage {
                TraceStage::ImmProbes => self.imm_probes += value,
                TraceStage::TableProbes => self.table_probes += value,
                TraceStage::BloomPrescreenSkips => self.bloom_prescreen_skips += value,
                TraceStage::SeqnoSkips => self.seqno_skips += value,
                TraceStage::CacheHitPages => {
                    self.cache_hit_pages += value;
                    pages += value;
                }
                TraceStage::CacheMissPages => {
                    self.cache_miss_pages += value;
                    pages += value;
                }
                TraceStage::VlogDeref => self.vlog_derefs += 1,
                TraceStage::WalAppendFsync => self.wal_us += value,
                TraceStage::InlineMaintenance => self.inline_maintenance_us += value,
                _ => {}
            }
        }
        pages
    }
}

/// The embedded engine driven through its `*_traced` API.
pub struct TracedDb<'a> {
    pub db: &'a Db,
    pub stages: StageSums,
    /// Pages touched by the last get, for the driver to classify.
    pub last_get_pages: u64,
}

impl<'a> TracedDb<'a> {
    pub fn new(db: &'a Db) -> TracedDb<'a> {
        TracedDb {
            db,
            stages: StageSums::default(),
            last_get_pages: 0,
        }
    }
}

impl Sink for TracedDb<'_> {
    type Val = Bytes;

    fn put(&mut self, key: &[u8], value: &[u8], dkey: Option<u64>) -> Result<(), Fail> {
        // `put_traced` always stamps the engine tick, so a put with an
        // explicit delete key takes the untraced path.
        match dkey {
            Some(d) => self.db.put_with_dkey(key, value, d).map_err(fail),
            None => {
                let trace = self.db.put_traced(key, value, None).map_err(fail)?;
                self.stages.traced_writes += 1;
                self.stages.add(&trace);
                Ok(())
            }
        }
    }

    fn delete(&mut self, key: &[u8]) -> Result<(), Fail> {
        let trace = self.db.delete_traced(key, None).map_err(fail)?;
        self.stages.traced_writes += 1;
        self.stages.add(&trace);
        Ok(())
    }

    fn get(&mut self, key: &[u8]) -> Result<Option<Bytes>, Fail> {
        let (value, trace) = self.db.get_traced(key, None).map_err(fail)?;
        self.stages.traced_gets += 1;
        self.last_get_pages = self.stages.add(&trace);
        Ok(value)
    }

    fn scan(&mut self, lo: &[u8], hi: &[u8]) -> Result<Rows<Bytes>, Fail> {
        self.db.scan(lo, hi).map_err(fail)
    }

    fn range_delete_keys(&mut self, lo: &[u8], hi: &[u8]) -> Result<(), Fail> {
        self.db.range_delete_keys(lo, hi).map_err(fail)
    }

    fn range_delete_secondary(&mut self, lo: u64, hi: u64) -> Result<(), Fail> {
        self.db.range_delete_secondary(lo, hi).map_err(fail)
    }

    fn maintain(&mut self) -> Result<(), Fail> {
        self.db.maintain().map_err(fail)
    }

    fn last_get_pages(&self) -> Option<u64> {
        Some(self.last_get_pages)
    }
}

impl Sink for &ShardedDb {
    type Val = Vec<u8>;

    fn put(&mut self, key: &[u8], value: &[u8], dkey: Option<u64>) -> Result<(), Fail> {
        match dkey {
            Some(d) => self.put_with_dkey(key, value, d),
            None => ShardedDb::put(self, key, value),
        }
        .map_err(fail)
    }

    fn delete(&mut self, key: &[u8]) -> Result<(), Fail> {
        ShardedDb::delete(self, key).map_err(fail)
    }

    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, Fail> {
        ShardedDb::get(self, key).map_err(fail)
    }

    fn scan(&mut self, lo: &[u8], hi: &[u8]) -> Result<Rows<Vec<u8>>, Fail> {
        ShardedDb::scan(self, lo, hi).map_err(fail)
    }

    fn range_delete_keys(&mut self, lo: &[u8], hi: &[u8]) -> Result<(), Fail> {
        ShardedDb::range_delete_keys(self, lo, hi).map_err(fail)
    }

    fn range_delete_secondary(&mut self, lo: u64, hi: u64) -> Result<(), Fail> {
        ShardedDb::range_delete_secondary(self, lo, hi).map_err(fail)
    }

    fn maintain(&mut self) -> Result<(), Fail> {
        ShardedDb::maintain(self).map_err(fail)
    }
}

impl Sink for Client {
    type Val = Vec<u8>;

    fn put(&mut self, key: &[u8], value: &[u8], dkey: Option<u64>) -> Result<(), Fail> {
        match dkey {
            Some(d) => self.put_with_dkey(key, value, d),
            None => Client::put(self, key, value),
        }
        .map_err(fail)
    }

    fn delete(&mut self, key: &[u8]) -> Result<(), Fail> {
        Client::delete(self, key).map_err(fail)
    }

    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, Fail> {
        Client::get(self, key).map_err(fail)
    }

    fn scan(&mut self, lo: &[u8], hi: &[u8]) -> Result<Rows<Vec<u8>>, Fail> {
        Client::scan(self, lo, hi).map_err(fail)
    }

    fn range_delete_keys(&mut self, lo: &[u8], hi: &[u8]) -> Result<(), Fail> {
        Client::range_delete_keys(self, lo, hi).map_err(fail)
    }

    fn range_delete_secondary(&mut self, lo: u64, hi: u64) -> Result<(), Fail> {
        Client::range_delete_secondary(self, lo, hi).map_err(fail)
    }
}

impl BurstSink for Client {
    fn burst(&mut self, requests: &[Request]) -> Result<Vec<Response>, Fail> {
        self.pipeline(requests).map_err(fail)
    }
}

/// Client-side counters of the instrumented wire loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireCounters {
    pub encode_ns: u64,
    pub write_ns: u64,
    pub wait_ns: u64,
    pub decode_ns: u64,
    pub write_syscalls: u64,
    pub read_syscalls: u64,
}

/// The benchmark's own request loop over a `TcpStream`, built from the
/// wire module's public pieces (`Request::encode`, `encode_frame`,
/// `FrameDecoder`, `Response::decode`) so each client stage can be
/// timed: encode, write, wait (blocked in `read`), decode.
pub struct TracedWire {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
    buf: Vec<u8>,
    log: std::sync::Arc<SpanLog>,
    pub counters: WireCounters,
}

impl TracedWire {
    pub fn connect(addr: SocketAddr, log: std::sync::Arc<SpanLog>) -> Result<TracedWire, Fail> {
        let stream = TcpStream::connect(addr).map_err(fail)?;
        stream.set_nodelay(true).map_err(fail)?;
        Ok(TracedWire {
            stream,
            decoder: FrameDecoder::new(DEFAULT_MAX_FRAME_BYTES),
            out: Vec::new(),
            buf: vec![0u8; 64 << 10],
            log,
            counters: WireCounters::default(),
        })
    }

    fn one(&mut self, request: Request) -> Result<Response, Fail> {
        let mut responses = self.burst(std::slice::from_ref(&request))?;
        responses.pop().ok_or_else(|| Fail("no response".into()))
    }

    fn unit(&mut self, request: Request) -> Result<(), Fail> {
        match self.one(request)? {
            Response::Unit => Ok(()),
            other => Err(Fail(format!("unexpected response {other:?}"))),
        }
    }
}

impl BurstSink for TracedWire {
    fn burst(&mut self, requests: &[Request]) -> Result<Vec<Response>, Fail> {
        let t0 = self.log.now_ns();
        self.out.clear();
        for req in requests {
            encode_frame(&req.encode(), &mut self.out);
        }
        let t1 = self.log.now_ns();
        self.stream.write_all(&self.out).map_err(fail)?;
        let t2 = self.log.now_ns();
        self.counters.write_syscalls += 1;
        self.counters.encode_ns += t1 - t0;
        self.counters.write_ns += t2 - t1;
        self.log.push("client.encode", t0, t1, 0);
        self.log.push("client.write", t1, t2, self.out.len() as u64);
        let mut responses = Vec::with_capacity(requests.len());
        while responses.len() < requests.len() {
            let w0 = self.log.now_ns();
            let n = self.stream.read(&mut self.buf).map_err(fail)?;
            let w1 = self.log.now_ns();
            self.counters.read_syscalls += 1;
            self.counters.wait_ns += w1 - w0;
            self.log.push("client.wait", w0, w1, n as u64);
            if n == 0 {
                return Err(Fail("server closed the connection".into()));
            }
            self.decoder.feed(&self.buf[..n]);
            while let Some(frame) = self.decoder.next_frame().map_err(fail)? {
                responses.push(Response::decode(&frame).map_err(fail)?);
            }
            let d1 = self.log.now_ns();
            self.counters.decode_ns += d1 - w1;
            self.log.push("client.decode", w1, d1, 0);
        }
        Ok(responses)
    }
}

impl Sink for TracedWire {
    type Val = Vec<u8>;

    fn put(&mut self, key: &[u8], value: &[u8], dkey: Option<u64>) -> Result<(), Fail> {
        self.unit(Request::Put {
            key: key.to_vec(),
            value: value.to_vec(),
            dkey,
        })
    }

    fn delete(&mut self, key: &[u8]) -> Result<(), Fail> {
        self.unit(Request::Delete { key: key.to_vec() })
    }

    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, Fail> {
        match self.one(Request::Get { key: key.to_vec() })? {
            Response::Value(v) => Ok(v),
            other => Err(Fail(format!("unexpected response {other:?}"))),
        }
    }

    fn scan(&mut self, lo: &[u8], hi: &[u8]) -> Result<Rows<Vec<u8>>, Fail> {
        let request = Request::Scan {
            lo: lo.to_vec(),
            hi: hi.to_vec(),
        };
        match self.one(request)? {
            Response::Rows(rows) => Ok(rows),
            other => Err(Fail(format!("unexpected response {other:?}"))),
        }
    }

    fn range_delete_keys(&mut self, lo: &[u8], hi: &[u8]) -> Result<(), Fail> {
        self.unit(Request::RangeDeleteKeys {
            lo: lo.to_vec(),
            hi: hi.to_vec(),
        })
    }

    fn range_delete_secondary(&mut self, lo: u64, hi: u64) -> Result<(), Fail> {
        self.unit(Request::RangeDeleteSecondary { lo, hi })
    }
}

/// Accepts everything and answers nothing: what is left when it runs is
/// the driver's own cost per op (`driver.overhead_ns_per_op`).
pub struct NullSink;

impl Sink for NullSink {
    type Val = Vec<u8>;

    fn put(&mut self, _: &[u8], _: &[u8], _: Option<u64>) -> Result<(), Fail> {
        Ok(())
    }

    fn delete(&mut self, _: &[u8]) -> Result<(), Fail> {
        Ok(())
    }

    fn get(&mut self, _: &[u8]) -> Result<Option<Vec<u8>>, Fail> {
        Ok(None)
    }

    fn scan(&mut self, _: &[u8], _: &[u8]) -> Result<Rows<Vec<u8>>, Fail> {
        Ok(Vec::new())
    }

    fn range_delete_keys(&mut self, _: &[u8], _: &[u8]) -> Result<(), Fail> {
        Ok(())
    }

    fn range_delete_secondary(&mut self, _: u64, _: u64) -> Result<(), Fail> {
        Ok(())
    }

    fn maintain(&mut self) -> Result<(), Fail> {
        Ok(())
    }
}
