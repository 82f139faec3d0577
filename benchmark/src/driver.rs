//! The closed-loop driver: issues a generated op stream against a sink
//! with one generator thread, times every op with a nanosecond
//! `Instant` pair, checks every answer against the oracle's expected
//! hash, and cuts the phase into equal slices.
//!
//! Throughput, CPU and latency percentiles are whole-phase figures:
//! slices are not alike on any workload (L0 fills and compacts in a
//! sawtooth several slices long, so a median slice depends on where the
//! run happens to end). The slices exist for what happens between
//! them, off the clock: the host-speed gauge (`calib.rs`), tombstone-age
//! sampling, and event draining.

use std::sync::Arc;

use acheron_server::{Request, Response};

use crate::gen::KEY_LEN;
use crate::gen::{fold_row, hash_bytes, key_of, parse_key, render_key, render_value, Kind, Op};
use crate::recorder::Recorder;
use crate::sink::{BurstSink, Fail, Sink};
use crate::sys::cpu_seconds;
use crate::trace::{Child, Collector, SpanLog};

/// Equal slices a timed phase is cut into: one gauge sample per
/// boundary, and the gauge needs about this many to follow a phase.
pub const SLICES: usize = 64;
/// Ops per pipelined burst.
pub const BURST: usize = 64;

/// Storage reads observed while gets were open (traced runs only).
#[derive(Debug, Clone, Copy, Default)]
pub struct GetIo {
    pub sst_read_calls: u64,
    pub sst_read_bytes: u64,
    pub sst_read_ns: u64,
    pub vlog_read_calls: u64,
    /// Pages the filters passed on gets of live or never-written keys,
    /// and how many of them lacked the key.
    pub classified_pages: u64,
    pub wasted_pages: u64,
}

/// What one timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub attempted: u64,
    /// Ops that returned an error or `Busy`.
    pub failed: u64,
    /// Answers that disagreed with the oracle.
    pub wrong: u64,
    pub first_problem: Option<String>,
    pub slice_ops: Vec<u64>,
    pub slice_wall_s: Vec<f64>,
    pub slice_cpu_s: Vec<f64>,
    /// Per-slice latency samples by op class.
    pub gets: Vec<Recorder>,
    pub writes: Vec<Recorder>,
    pub scans: Vec<Recorder>,
    pub bursts: Vec<Recorder>,
    pub get_io: GetIo,
}

impl Phase {
    fn with_slices(n: usize) -> Phase {
        let recorders = || (0..n).map(|_| Recorder::default()).collect();
        Phase {
            gets: recorders(),
            writes: recorders(),
            scans: recorders(),
            bursts: recorders(),
            ..Phase::default()
        }
    }

    pub fn wall_s(&self) -> f64 {
        self.slice_wall_s.iter().sum()
    }

    pub fn cpu_s(&self) -> f64 {
        self.slice_cpu_s.iter().sum()
    }

    /// Completed ops per second of the whole phase.
    pub fn ops_per_s(&self) -> f64 {
        self.attempted as f64 / self.wall_s()
    }

    /// Process CPU microseconds per op over the whole phase.
    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_s() * 1e6 / self.attempted as f64
    }

    fn problem(&mut self, what: String) {
        self.first_problem.get_or_insert(what);
    }

    fn failed(&mut self, op: &Op, why: Fail) {
        self.failed += 1;
        self.problem(format!("{:?} failed: {}", op.kind, why.0));
    }

    fn wrong(&mut self, op: &Op, got: u64) {
        self.wrong += 1;
        self.problem(format!(
            "{:?} a={} b={}: answer hash {got:#x}, oracle {:#x}",
            op.kind, op.a, op.b, op.expect
        ));
    }
}

/// The traced run's collector plus scratch for draining children.
pub struct Tracing<'a> {
    pub collector: &'a mut Collector,
    pub children: Vec<Child>,
}

impl<'a> Tracing<'a> {
    pub fn new(collector: &'a mut Collector) -> Tracing<'a> {
        Tracing {
            collector,
            children: Vec::new(),
        }
    }
}

/// Reused render buffers.
struct Bufs {
    lo: [u8; KEY_LEN],
    hi: [u8; KEY_LEN],
    value: Vec<u8>,
}

impl Bufs {
    fn new() -> Bufs {
        Bufs {
            lo: [0; KEY_LEN],
            hi: [0; KEY_LEN],
            value: Vec::new(),
        }
    }

    /// Render the inclusive sort-key range of `span` ids from `first`.
    fn range(&mut self, first: u32, span: u32) {
        render_key(key_of(first), &mut self.lo);
        render_key(key_of(first + span - 1), &mut self.hi);
    }
}

fn span_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Put => "op.put",
        Kind::Delete => "op.delete",
        Kind::Get => "op.get",
        Kind::Scan => "op.scan",
        Kind::RangeDeleteKeys => "op.range_delete_keys",
        Kind::RangeDeleteSecondary => "op.range_delete_secondary",
        Kind::Maintain => "op.maintain",
    }
}

/// Hash a scan's rows the way the oracle does; `None` for a foreign key.
fn hash_rows<V: AsRef<[u8]>>(rows: &[(V, V)]) -> Option<u64> {
    rows.iter().try_fold(0, |h, (k, v)| {
        Some(fold_row(h, parse_key(k.as_ref())?, hash_bytes(v.as_ref())))
    })
}

/// Slice index boundaries: `n` items cut into `slices` near-equal runs.
fn slice_bounds(n: usize, slices: usize) -> Vec<usize> {
    (0..=slices).map(|i| n * i / slices).collect()
}

/// Run `ops` one at a time against `sink`. `use_dkeys` passes each put's
/// generated delete key (the `ingest-delete` stream's secondary range
/// deletes depend on it); otherwise the engine stamps its own tick.
/// `boundary(i)` runs off the clock before slice `i` and after the last.
pub fn run_per_op<S: Sink>(
    sink: &mut S,
    ops: &[Op],
    use_dkeys: bool,
    log: &Arc<SpanLog>,
    mut tracing: Option<&mut Tracing<'_>>,
    boundary: &mut dyn FnMut(usize),
) -> Phase {
    let slices = SLICES.min(ops.len().max(1));
    let bounds = slice_bounds(ops.len(), slices);
    let mut phase = Phase::with_slices(slices);
    let mut bufs = Bufs::new();
    let mut op_id = 0u64;
    for s in 0..slices {
        boundary(s);
        let (cpu0, wall0) = (cpu_seconds(), log.now_ns());
        for op in &ops[bounds[s]..bounds[s + 1]] {
            op_id += 1;
            let (start, end) = issue(sink, op, use_dkeys, &mut bufs, log, &mut phase, s);
            if let Some(t) = tracing.as_deref_mut() {
                log.drain_into(&mut t.children);
                if op.kind == Kind::Get {
                    note_get_io(&mut phase.get_io, &t.children);
                }
                t.collector
                    .close_op(span_name(op.kind), op_id, start, end, &t.children);
            }
        }
        phase.slice_wall_s.push((log.now_ns() - wall0) as f64 / 1e9);
        phase.slice_cpu_s.push(cpu_seconds() - cpu0);
        phase.slice_ops.push((bounds[s + 1] - bounds[s]) as u64);
    }
    boundary(slices);
    phase.attempted = ops.len() as u64;
    phase
}

fn note_get_io(io: &mut GetIo, children: &[Child]) {
    for c in children {
        match c.name {
            "vfs.sst.read" => {
                io.sst_read_calls += 1;
                io.sst_read_bytes += c.bytes;
                io.sst_read_ns += c.end_ns - c.start_ns;
            }
            "vfs.vlog.read" => io.vlog_read_calls += 1,
            _ => {}
        }
    }
}

/// Close a write: record its latency, count a failure.
fn write_done(
    phase: &mut Phase,
    slice: usize,
    op: &Op,
    (start, end): (u64, u64),
    res: Result<(), Fail>,
) -> (u64, u64) {
    phase.writes[slice].record(end - start);
    if let Err(e) = res {
        phase.failed(op, e);
    }
    (start, end)
}

/// Issue one op, record its latency, and check its answer. Returns the
/// op's start and end on the log's clock; the check runs after `end`.
fn issue<S: Sink>(
    sink: &mut S,
    op: &Op,
    use_dkeys: bool,
    bufs: &mut Bufs,
    log: &SpanLog,
    phase: &mut Phase,
    slice: usize,
) -> (u64, u64) {
    match op.kind {
        Kind::Put => {
            render_key(key_of(op.a), &mut bufs.lo);
            render_value(op.a, op.put_version(), op.b, &mut bufs.value);
            let dkey = use_dkeys.then(|| op.put_dkey());
            let start = log.now_ns();
            let res = sink.put(&bufs.lo, &bufs.value, dkey);
            write_done(phase, slice, op, (start, log.now_ns()), res)
        }
        Kind::Delete => {
            render_key(key_of(op.a), &mut bufs.lo);
            let start = log.now_ns();
            let res = sink.delete(&bufs.lo);
            write_done(phase, slice, op, (start, log.now_ns()), res)
        }
        Kind::Get => {
            render_key(u64::from(op.a), &mut bufs.lo);
            let start = log.now_ns();
            let res = sink.get(&bufs.lo);
            let end = log.now_ns();
            phase.gets[slice].record(end - start);
            match res {
                Ok(value) => {
                    let got = value.map_or(0, |v| hash_bytes(v.as_ref()));
                    if got != op.expect {
                        phase.wrong(op, got);
                    }
                    if let Some(pages) = sink.last_get_pages() {
                        classify_pages(&mut phase.get_io, op, pages);
                    }
                }
                Err(e) => phase.failed(op, e),
            }
            (start, end)
        }
        Kind::Scan => {
            bufs.range(op.a, op.b);
            let start = log.now_ns();
            let res = sink.scan(&bufs.lo, &bufs.hi);
            let end = log.now_ns();
            phase.scans[slice].record(end - start);
            match res {
                Ok(rows) => {
                    let got = hash_rows(&rows).unwrap_or(u64::MAX);
                    if got != op.expect {
                        phase.wrong(op, got);
                    }
                }
                Err(e) => phase.failed(op, e),
            }
            (start, end)
        }
        Kind::RangeDeleteKeys => {
            bufs.range(op.a, op.b);
            let start = log.now_ns();
            let res = sink.range_delete_keys(&bufs.lo, &bufs.hi);
            write_done(phase, slice, op, (start, log.now_ns()), res)
        }
        Kind::RangeDeleteSecondary => {
            let start = log.now_ns();
            let res = sink.range_delete_secondary(u64::from(op.a), u64::from(op.b));
            write_done(phase, slice, op, (start, log.now_ns()), res)
        }
        // On the slice's clock, but in no latency class: it is the
        // host's call, not a user request.
        Kind::Maintain => {
            let start = log.now_ns();
            let res = sink.maintain();
            let end = log.now_ns();
            if let Err(e) = res {
                phase.failed(op, e);
            }
            (start, end)
        }
    }
}

/// A page the filter passed is *wasted* when it lacked the key. From
/// outside that is knowable for a never-written key (every page) and a
/// live key found in a table (all but one); a deleted key's tombstone
/// page cannot be told apart, so those gets are left out.
fn classify_pages(io: &mut GetIo, op: &Op, pages: u64) {
    if op.expect != 0 {
        io.classified_pages += pages;
        io.wasted_pages += pages.saturating_sub(1);
    } else if op.a % 2 == 1 {
        io.classified_pages += pages;
        io.wasted_pages += pages;
    }
}

/// Build the wire request for `op`.
fn to_request(op: &Op, bufs: &mut Bufs) -> Request {
    match op.kind {
        Kind::Put => {
            render_key(key_of(op.a), &mut bufs.lo);
            render_value(op.a, op.put_version(), op.b, &mut bufs.value);
            Request::Put {
                key: bufs.lo.to_vec(),
                value: bufs.value.clone(),
                dkey: None,
            }
        }
        Kind::Delete => {
            render_key(key_of(op.a), &mut bufs.lo);
            Request::Delete {
                key: bufs.lo.to_vec(),
            }
        }
        Kind::Get => {
            render_key(u64::from(op.a), &mut bufs.lo);
            Request::Get {
                key: bufs.lo.to_vec(),
            }
        }
        Kind::Scan => {
            bufs.range(op.a, op.b);
            Request::Scan {
                lo: bufs.lo.to_vec(),
                hi: bufs.hi.to_vec(),
            }
        }
        Kind::RangeDeleteKeys => {
            bufs.range(op.a, op.b);
            Request::RangeDeleteKeys {
                lo: bufs.lo.to_vec(),
                hi: bufs.hi.to_vec(),
            }
        }
        Kind::RangeDeleteSecondary => Request::RangeDeleteSecondary {
            lo: u64::from(op.a),
            hi: u64::from(op.b),
        },
        Kind::Maintain => {
            unreachable!("the wire has no maintenance request; no wire stream has one")
        }
    }
}

/// Check one pipelined reply against the oracle.
fn check_response(phase: &mut Phase, op: &Op, response: &Response) {
    match (op.kind, response) {
        (Kind::Get, Response::Value(v)) => {
            let got = v.as_deref().map_or(0, hash_bytes);
            if got != op.expect {
                phase.wrong(op, got);
            }
        }
        (Kind::Scan, Response::Rows(rows)) => {
            let got = hash_rows(rows).unwrap_or(u64::MAX);
            if got != op.expect {
                phase.wrong(op, got);
            }
        }
        (Kind::Get | Kind::Scan, other) | (_, other @ (Response::Busy | Response::Err(_))) => {
            phase.failed(op, Fail(format!("{other:?}")));
        }
        (_, Response::Unit) => {}
        (_, other) => phase.failed(op, Fail(format!("{other:?}"))),
    }
}

/// Run `ops` in pipelined bursts of [`BURST`]. Each op's latency is the
/// round trip of the burst it travelled in: the reply is in the
/// caller's hands when `pipeline()` returns, not before.
pub fn run_bursts<S: BurstSink>(
    sink: &mut S,
    ops: &[Op],
    log: &Arc<SpanLog>,
    mut tracing: Option<&mut Tracing<'_>>,
    boundary: &mut dyn FnMut(usize),
) -> Phase {
    let bursts: Vec<&[Op]> = ops.chunks(BURST).collect();
    let slices = SLICES.min(bursts.len().max(1));
    let bounds = slice_bounds(bursts.len(), slices);
    let mut phase = Phase::with_slices(slices);
    let mut bufs = Bufs::new();
    let mut requests = Vec::with_capacity(BURST);
    let mut burst_id = 0u64;
    for s in 0..slices {
        boundary(s);
        let (cpu0, wall0) = (cpu_seconds(), log.now_ns());
        let mut slice_ops = 0;
        for burst in &bursts[bounds[s]..bounds[s + 1]] {
            burst_id += 1;
            slice_ops += burst.len() as u64;
            requests.clear();
            requests.extend(burst.iter().map(|op| to_request(op, &mut bufs)));
            let start = log.now_ns();
            let res = sink.burst(&requests);
            let end = log.now_ns();
            phase.bursts[s].record(end - start);
            for op in *burst {
                match op.kind {
                    Kind::Get => phase.gets[s].record(end - start),
                    Kind::Scan => phase.scans[s].record(end - start),
                    _ => phase.writes[s].record(end - start),
                }
            }
            match res {
                Ok(responses) if responses.len() == burst.len() => {
                    for (op, response) in burst.iter().zip(&responses) {
                        check_response(&mut phase, op, response);
                    }
                }
                Ok(responses) => {
                    phase.failed += burst.len() as u64;
                    phase.problem(format!(
                        "burst of {} got {} replies",
                        burst.len(),
                        responses.len()
                    ));
                }
                Err(e) => {
                    phase.failed += burst.len() as u64;
                    phase.problem(format!("burst failed: {}", e.0));
                }
            }
            if let Some(t) = tracing.as_deref_mut() {
                log.drain_into(&mut t.children);
                t.collector
                    .close_op("op.burst", burst_id, start, end, &t.children);
            }
        }
        phase.slice_wall_s.push((log.now_ns() - wall0) as f64 / 1e9);
        phase.slice_cpu_s.push(cpu_seconds() - cpu0);
        phase.slice_ops.push(slice_ops);
    }
    boundary(slices);
    phase.attempted = ops.len() as u64;
    phase
}

/// Check a spread of final-state gets (real and never-written keys)
/// against the oracle after the engine was reopened; returns the
/// number checked and the number wrong.
pub fn check_final_state<S: Sink>(
    sink: &mut S,
    model: &crate::gen::Model,
    samples: u32,
) -> (u64, u64) {
    let mut key = [0u8; KEY_LEN];
    let numbers = u64::from(model.keys()) * 2;
    // An odd step, so the walk alternates real and never-written keys.
    let step = match numbers / u64::from(samples.max(1)) {
        0 | 1 => 1,
        even if even % 2 == 0 => even - 1,
        odd => odd,
    };
    let (mut checked, mut wrong) = (0, 0);
    let mut num = 0;
    while num < numbers {
        render_key(num, &mut key);
        let got = match sink.get(&key) {
            Ok(value) => value.map_or(0, |v| hash_bytes(v.as_ref())),
            Err(_) => u64::MAX,
        };
        checked += 1;
        if got != model.expect_get(num) {
            wrong += 1;
        }
        num += step;
    }
    (checked, wrong)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Workload};
    use std::collections::BTreeMap;

    /// A correct in-memory reference sink, with two optional defects.
    #[derive(Default)]
    struct MapSink {
        map: BTreeMap<Vec<u8>, (Vec<u8>, u64)>,
        /// Serve this get (by count) from the previous version.
        stale_at: Option<u64>,
        /// Ignore this delete (by count): the key is resurrected.
        skip_delete_at: Option<u64>,
        gets: u64,
        deletes: u64,
        previous: BTreeMap<Vec<u8>, Vec<u8>>,
        writes: u64,
    }

    impl Sink for MapSink {
        type Val = Vec<u8>;

        fn put(&mut self, key: &[u8], value: &[u8], dkey: Option<u64>) -> Result<(), Fail> {
            self.writes += 1;
            let dkey = dkey.unwrap_or(self.writes);
            if let Some((old, _)) = self.map.insert(key.to_vec(), (value.to_vec(), dkey)) {
                self.previous.insert(key.to_vec(), old);
            }
            Ok(())
        }

        fn delete(&mut self, key: &[u8]) -> Result<(), Fail> {
            self.writes += 1;
            self.deletes += 1;
            if self.skip_delete_at != Some(self.deletes) {
                self.map.remove(key);
            }
            Ok(())
        }

        fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, Fail> {
            self.gets += 1;
            if self.stale_at.is_some_and(|at| self.gets >= at) {
                if let Some(old) = self.previous.get(key) {
                    self.stale_at = None;
                    return Ok(Some(old.clone()));
                }
            }
            Ok(self.map.get(key).map(|(v, _)| v.clone()))
        }

        fn scan(&mut self, lo: &[u8], hi: &[u8]) -> Result<crate::sink::Rows<Vec<u8>>, Fail> {
            Ok(self
                .map
                .range(lo.to_vec()..=hi.to_vec())
                .map(|(k, (v, _))| (k.clone(), v.clone()))
                .collect())
        }

        fn range_delete_keys(&mut self, lo: &[u8], hi: &[u8]) -> Result<(), Fail> {
            self.writes += 1;
            let doomed: Vec<_> = self
                .map
                .range(lo.to_vec()..=hi.to_vec())
                .map(|(k, _)| k.clone())
                .collect();
            for k in doomed {
                self.map.remove(&k);
            }
            Ok(())
        }

        fn range_delete_secondary(&mut self, lo: u64, hi: u64) -> Result<(), Fail> {
            self.writes += 1;
            self.map.retain(|_, (_, dkey)| *dkey < lo || *dkey > hi);
            Ok(())
        }

        fn maintain(&mut self) -> Result<(), Fail> {
            Ok(())
        }
    }

    fn run(workload: Workload, sink: &mut MapSink) -> Phase {
        let stream = generate(workload, 1, 1, true);
        let log = Arc::new(SpanLog::default());
        let use_dkeys = workload == Workload::IngestDelete;
        let setup = run_per_op(sink, &stream.setup, use_dkeys, &log, None, &mut |_| {});
        assert_eq!((setup.failed, setup.wrong), (0, 0));
        run_per_op(sink, &stream.timed, use_dkeys, &log, None, &mut |_| {})
    }

    #[test]
    fn a_correct_sink_passes_every_workload() {
        for workload in Workload::ALL {
            let mut sink = MapSink::default();
            let phase = run(workload, &mut sink);
            assert_eq!(
                (phase.failed, phase.wrong, phase.first_problem.clone()),
                (0, 0, None),
                "{}",
                workload.name()
            );
            assert_eq!(phase.slice_ops.len(), SLICES);
            assert_eq!(phase.slice_ops.iter().sum::<u64>(), phase.attempted);
            let stream = generate(workload, 1, 1, true);
            let (checked, wrong) = check_final_state(&mut sink, &stream.model, 500);
            assert!(checked >= 500);
            assert_eq!(wrong, 0);
        }
    }

    #[test]
    fn a_stale_value_and_a_resurrected_delete_are_caught() {
        let mut stale = MapSink {
            stale_at: Some(10),
            ..MapSink::default()
        };
        let phase = run(Workload::WirePerop, &mut stale);
        assert!(phase.wrong >= 1, "stale value went unnoticed");
        assert!(phase.first_problem.is_some());

        // The stream's last delete: an earlier one can be hidden again
        // by a later put or delete of the same key.
        let stream = generate(Workload::WirePerop, 1, 1, true);
        let deletes = stream
            .timed
            .iter()
            .filter(|op| op.kind == Kind::Delete)
            .count() as u64;
        let mut resurrect = MapSink {
            skip_delete_at: Some(deletes),
            ..MapSink::default()
        };
        let phase = run(Workload::WirePerop, &mut resurrect);
        let (_, wrong_after) = check_final_state(&mut resurrect, &stream.model, u32::MAX);
        assert!(
            phase.wrong + wrong_after >= 1,
            "resurrected delete went unnoticed"
        );
    }

    #[test]
    fn slices_cover_the_stream_exactly() {
        assert_eq!(slice_bounds(10, 4), [0, 2, 5, 7, 10]);
        assert_eq!(slice_bounds(0, 1), [0, 0]);
    }
}
