//! One workload, start to finish: build the starting tree, run the
//! timed phase through the right sink, then put the engine through its
//! end-of-workload checks (final `maintain()`, drop + reopen on the same
//! `MemFs`, `verify_integrity()`, `delete_audit().ok()`, and a spread of
//! final-state gets against the oracle).
//!
//! A *pass* is one such run. The untraced invocation makes one pass
//! (after setting up several times for a steady `setup_s`); the traced
//! invocation makes an untraced and a traced pass on the workload's own
//! path, plus embedded replays of the same stream where a ratio needs
//! them.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use acheron::{Db, DeleteAudit, Event, EventSnapshot, ShardedDb, StatsSnapshot};
use acheron_server::{Client, Server, ServerOptions};
use acheron_vfs::{IoStatsSnapshot, MemFs, Vfs};

use crate::calib::{Gauge, BUFFERS_MIB};
use crate::driver::{check_final_state, run_bursts, run_per_op, Phase, Tracing};
use crate::gen::{generate, Stream, Workload};
use crate::metrics::{end_to_end_table, RunResult, Values, PER_LAYER};
use crate::profile::{bench_options, describe, SHARDS};
use crate::recorder::{median, whole_phase, Recorder};
use crate::sink::{NullSink, StageSums, TracedDb, TracedWire, WireCounters};
use crate::sys::{machine_ticks, peak_rss_mib, pin_to_one_cpu};
use crate::timed_vfs::{classify, Class, TimedVfs, VfsSnapshot};
use crate::trace::{Collector, SpanLog};

const DIR: &str = "bench-db";
/// Set-ups per untraced run, whose median is `setup_s`: at least the
/// minimum, then more while they are cheap (a 40 ms set-up needs many
/// repeats before its median holds still), up to the maximum.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 2.0;
/// Final-state gets checked after the reopen.
const FINAL_CHECKS: u32 = 2_000;
/// Flight-recorder slots of a traced pass, which drains the ring at
/// every slice boundary: `get_traced` logs a dozen events per get, so a
/// slice can emit several hundred thousand. Untraced passes never read
/// the ring and keep the engine's default.
const TRACED_EVENT_RING: usize = 1 << 20;
const TRACED_FLEET_EVENT_RING: usize = 1 << 15;
const DEFAULT_EVENT_RING: usize = 4096;

/// One invocation's parameters.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u32,
    pub quick: bool,
    pub traced: bool,
    pub out_dir: PathBuf,
}

/// What an invocation produced.
#[derive(Debug)]
pub struct Report {
    pub result: RunResult,
    /// Human-readable context lines (sizes, checks, noise gauge).
    pub notes: Vec<String>,
}

enum Engine {
    Single(Arc<Db>),
    Fleet(Arc<ShardedDb>),
}

impl Engine {
    fn open(fs: Arc<dyn Vfs>, stream: &Stream, shards: Option<usize>, ring: usize) -> Engine {
        match shards {
            None => {
                let opts = bench_options(&stream.sizes, ring);
                Engine::Single(Arc::new(Db::open(fs, DIR, opts).expect("open engine")))
            }
            Some(n) => {
                let opts = bench_options(&stream.sizes, ring);
                Engine::Fleet(Arc::new(
                    ShardedDb::open(fs, DIR, opts, n).expect("open fleet"),
                ))
            }
        }
    }

    fn stats(&self) -> StatsSnapshot {
        match self {
            Engine::Single(db) => db.stats_snapshot(),
            Engine::Fleet(db) => db.stats_snapshot(),
        }
    }

    fn audit(&self) -> DeleteAudit {
        match self {
            Engine::Single(db) => db.delete_audit(),
            Engine::Fleet(db) => db.delete_audit(),
        }
    }

    fn flush_and_maintain(&self, flush: bool) {
        match self {
            Engine::Single(db) => {
                if flush {
                    db.flush().expect("flush");
                }
                db.maintain().expect("maintain");
            }
            Engine::Fleet(db) => {
                if flush {
                    db.flush().expect("flush");
                }
                db.maintain().expect("maintain");
            }
        }
    }

    fn integrity_ok(&self) -> bool {
        match self {
            Engine::Single(db) => db.verify_integrity().is_ok(),
            Engine::Fleet(db) => db.verify_integrity().is_ok(),
        }
    }

    fn events(&self) -> Vec<EventSnapshot> {
        match self {
            Engine::Single(db) => vec![db.events()],
            Engine::Fleet(db) => db.shard_events(),
        }
    }

    /// Point ops handled by each shard so far.
    fn shard_ops(&self) -> Vec<u64> {
        let ops = |s: &StatsSnapshot| s.puts + s.deletes + s.gets;
        match self {
            Engine::Single(db) => vec![ops(&db.stats_snapshot())],
            Engine::Fleet(db) => db.shard_stats().iter().map(ops).collect(),
        }
    }

    /// `(live point tombstones, live range tombstones of both kinds)`.
    fn live_tombstones(&self) -> (u64, u64) {
        let g = match self {
            Engine::Single(db) => db.tombstone_gauges(),
            Engine::Fleet(db) => db.tombstone_gauges(),
        };
        let key_ranges: u64 = g.levels.iter().map(|l| l.key_range_tombstones).sum();
        (
            g.live_tombstones(),
            key_ranges + g.buffer_key_range_tombstones + g.range_tombstones,
        )
    }

    /// Ages in ticks of the oldest live tombstone (point or sort-key
    /// range) and of the oldest dead, unreclaimed value-log extent.
    fn worst_ages(&self) -> (u64, u64) {
        let audit = self.audit();
        let age = |tick: Option<u64>| tick.map_or(0, |t0| audit.now.saturating_sub(t0));
        (
            age(audit.oldest_live_tombstone_tick),
            age(audit.oldest_vlog_dead_tick),
        )
    }

    /// The tombstone families' share of the delete audit: the worst age
    /// in ticks any cohort's point or sort-key range deletes reached
    /// before resolving (still-unresolved cohorts age to now), and how
    /// many cohorts the engine's full audit — which also counts
    /// value-log reclaim — judges in violation.
    fn cohort_ages(&self) -> (u64, u64) {
        let audit = self.audit();
        let worst = audit
            .cohorts
            .iter()
            .map(|c| {
                let end = match c.purged_tick {
                    Some(t) if c.resolved >= c.total_deletes() => t,
                    _ => audit.now,
                };
                end.saturating_sub(c.first_delete_tick)
            })
            .max()
            .unwrap_or(0);
        (worst, audit.violating_cohorts().len() as u64)
    }

    /// Run `ops` on the embedded engine, one at a time.
    fn run_ops(
        &self,
        ops: &[crate::gen::Op],
        use_dkeys: bool,
        log: &Arc<SpanLog>,
        tracing: Option<&mut Tracing<'_>>,
        boundary: &mut dyn FnMut(usize),
    ) -> Phase {
        match self {
            Engine::Single(db) => run_per_op(&mut &**db, ops, use_dkeys, log, tracing, boundary),
            Engine::Fleet(db) => run_per_op(&mut &**db, ops, use_dkeys, log, tracing, boundary),
        }
    }

    /// Check final-state gets on the embedded engine.
    fn check_final(&self, stream: &Stream) -> (u64, u64) {
        match self {
            Engine::Single(db) => check_final_state(&mut &**db, &stream.model, FINAL_CHECKS),
            Engine::Fleet(db) => check_final_state(&mut &**db, &stream.model, FINAL_CHECKS),
        }
    }
}

/// The filesystem under a pass: a `MemFs`, wrapped when storage calls
/// are being timed.
struct Storage {
    mem: Arc<MemFs>,
    timed: Option<Arc<TimedVfs>>,
}

impl Storage {
    fn new(timed_log: Option<&Arc<SpanLog>>) -> Storage {
        let mem = Arc::new(MemFs::new());
        let timed = timed_log.map(|log| Arc::new(TimedVfs::new(Arc::clone(&mem), Arc::clone(log))));
        Storage { mem, timed }
    }

    fn vfs(&self) -> Arc<dyn Vfs> {
        match &self.timed {
            Some(t) => Arc::clone(t) as Arc<dyn Vfs>,
            None => Arc::clone(&self.mem) as Arc<dyn Vfs>,
        }
    }

    /// Bytes on storage by file class (wal, sst, vlog, manifest), in
    /// the engine's directory and a fleet's shard directories.
    fn class_bytes(&self, shards: Option<usize>) -> [u64; 4] {
        let mut dirs = vec![DIR.to_string()];
        dirs.extend((0..shards.unwrap_or(0)).map(|i| acheron::sharded::shard_dir(DIR, i)));
        let mut bytes = [0u64; 4];
        for dir in dirs {
            for name in self.mem.list(&dir).unwrap_or_default() {
                let size = self.mem.file_size(&format!("{dir}/{name}")).unwrap_or(0);
                bytes[classify(&name) as usize] += size;
            }
        }
        bytes
    }

    fn io(&self) -> IoStatsSnapshot {
        self.mem.io_stats().snapshot()
    }

    fn vfs_snapshot(&self) -> VfsSnapshot {
        self.timed
            .as_ref()
            .map(|t| t.snapshot())
            .unwrap_or_default()
    }
}

/// How a pass reaches the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// Direct calls on `Db` / `ShardedDb`.
    Embedded,
    /// The sync `Client` over loopback.
    Wire,
}

#[derive(Debug, Clone, Copy)]
struct PassSpec {
    /// `None` = a plain `Db`.
    shards: Option<usize>,
    route: Route,
    /// Pipelined bursts (wire only) instead of one op per round trip.
    bursts: bool,
    /// Time storage calls, use the instrumented sinks, record spans.
    traced: bool,
}

impl PassSpec {
    /// The workload's own path.
    fn native(workload: Workload, traced: bool) -> PassSpec {
        let (shards, route, bursts) = match workload {
            Workload::IngestDelete | Workload::ReadAged => (None, Route::Embedded, false),
            Workload::WirePerop => (None, Route::Wire, false),
            Workload::WirePipelinedSharded => (Some(SHARDS), Route::Wire, true),
        };
        PassSpec {
            shards,
            route,
            bursts,
            traced,
        }
    }

    /// Flight-recorder capacity the pass's engine needs.
    fn event_ring(self) -> usize {
        match (self.traced, self.shards) {
            (false, _) => DEFAULT_EVENT_RING,
            (true, None) => TRACED_EVENT_RING,
            (true, Some(_)) => TRACED_FLEET_EVENT_RING,
        }
    }

    /// The same stream replayed on the embedded engine.
    fn replay(shards: Option<usize>) -> PassSpec {
        PassSpec {
            shards,
            route: Route::Embedded,
            bursts: false,
            traced: false,
        }
    }
}

/// Off-the-clock observations taken at slice boundaries.
#[derive(Debug, Default)]
struct Boundary {
    /// Oldest live tombstone seen at any boundary, in ticks.
    worst_age: u64,
    /// Oldest dead value-log extent seen at any boundary, in ticks.
    worst_vlog_age: u64,
    /// The host-speed gauge, sampled at every boundary.
    gauge: Gauge,
    /// Next event seqno to read, per shard.
    watermarks: Vec<u64>,
    events_lost: bool,
    flush_us: Vec<f64>,
    compaction_us: Vec<f64>,
    gc_us: Vec<f64>,
}

impl Boundary {
    fn sample(&mut self, index: usize, engine: &Engine, traced: bool) {
        self.note_ages(engine);
        self.gauge.sample();
        if traced {
            self.drain_events(index, engine);
        }
    }

    fn note_ages(&mut self, engine: &Engine) {
        let (tombstone, vlog) = engine.worst_ages();
        self.worst_age = self.worst_age.max(tombstone);
        self.worst_vlog_age = self.worst_vlog_age.max(vlog);
    }

    fn drain_events(&mut self, index: usize, engine: &Engine) {
        let snapshots = engine.events();
        if index == 0 {
            // Everything so far belongs to setup.
            self.watermarks = snapshots.iter().map(|s| s.emitted).collect();
            return;
        }
        for (snap, mark) in snapshots.iter().zip(self.watermarks.iter_mut()) {
            if snap.events.first().is_some_and(|e| e.seqno > *mark) {
                self.events_lost = true;
            }
            for e in snap.events.iter().filter(|e| e.seqno >= *mark) {
                match e.event {
                    Event::FlushEnd { micros, .. } => self.flush_us.push(micros as f64),
                    Event::CompactionEnd { micros, .. } => self.compaction_us.push(micros as f64),
                    Event::VlogGc { micros, .. } => self.gc_us.push(micros as f64),
                    _ => {}
                }
            }
            *mark = snap.emitted;
        }
    }
}

/// The server's own view of the timed phase.
#[derive(Debug, Clone, Copy, Default)]
struct ServerSide {
    read_service_us_mean: f64,
    write_service_us_mean: f64,
    read_service_us_total: f64,
    write_service_us_total: f64,
    bytes_in: u64,
    bytes_out: u64,
    busy_responses: u64,
    protocol_errors: u64,
}

/// End-of-workload state and checks.
#[derive(Debug, Clone, Copy, Default)]
struct EndState {
    /// Bytes written to storage from the open to the end of the final
    /// `maintain()`.
    life_bytes_written: u64,
    space_bytes: u64,
    /// `space_bytes` by file class: wal, sst, vlog, manifest.
    class_bytes: [u64; 4],
    reopen_ms: f64,
    final_checked: u64,
    final_wrong: u64,
    integrity_ok: bool,
    /// Worst tombstone-family cohort age, ticks.
    cohort_worst_age: u64,
    /// Cohorts the engine's own full audit judges in violation.
    audit_violating_cohorts: u64,
    persistence_max: u64,
    persistence_p50: u64,
    persistence_violations: u64,
    live_tombstones: u64,
    live_range_tombstones: u64,
    table_bytes: u64,
}

/// Everything one pass measured.
struct Pass {
    /// Share of the machine's CPU time the hypervisor gave to others
    /// during the timed phase.
    steal_share: f64,
    setup_s: f64,
    setup_clean: bool,
    phase: Phase,
    stats: (StatsSnapshot, StatsSnapshot),
    vfs: VfsSnapshot,
    stages: StageSums,
    wire: WireCounters,
    server: ServerSide,
    boundary: Boundary,
    shard_ops: Vec<u64>,
    end: EndState,
}

/// Build the starting tree: open the engine and apply the setup ops
/// (`read-aged` also flushes and maintains so the timed reads meet a
/// settled tree). Returns the storage, the engine, seconds, and whether
/// every setup op succeeded.
fn set_up(stream: &Stream, spec: PassSpec, log: &Arc<SpanLog>) -> (Storage, Engine, f64, bool) {
    let started = Instant::now();
    let storage = Storage::new(spec.traced.then_some(log));
    let engine = Engine::open(storage.vfs(), stream, spec.shards, spec.event_ring());
    let use_dkeys = stream.workload == Workload::IngestDelete;
    let setup = engine.run_ops(&stream.setup, use_dkeys, log, None, &mut |_| {});
    if stream.workload == Workload::ReadAged {
        engine.flush_and_maintain(true);
    }
    // Storage spans of setup belong to no timed op.
    log.drain_into(&mut Vec::new());
    (
        storage,
        engine,
        started.elapsed().as_secs_f64(),
        setup.failed == 0 && setup.wrong == 0,
    )
}

fn run_pass(
    stream: &Stream,
    spec: PassSpec,
    log: &Arc<SpanLog>,
    collector: Option<&mut Collector>,
) -> Pass {
    let setup_started = Instant::now();
    let (storage, engine, _, setup_clean) = set_up(stream, spec, log);
    let use_dkeys = stream.workload == Workload::IngestDelete;
    let mut tracing = collector.map(Tracing::new);
    let mut boundary = Boundary::default();
    let mut stages = StageSums::default();
    let mut wire = WireCounters::default();
    let mut server_side = ServerSide::default();
    let shard_ops_before = engine.shard_ops();

    let mut server = (spec.route == Route::Wire).then(|| {
        match &engine {
            Engine::Single(db) => {
                Server::start(Arc::clone(db), "127.0.0.1:0", ServerOptions::default())
            }
            Engine::Fleet(db) => {
                Server::start(Arc::clone(db), "127.0.0.1:0", ServerOptions::default())
            }
        }
        .expect("start server")
    });
    enum Conn {
        None,
        Client(Client),
        Traced(TracedWire),
    }
    let mut conn = match &server {
        None => Conn::None,
        Some(s) if spec.traced => {
            Conn::Traced(TracedWire::connect(s.local_addr(), Arc::clone(log)).expect("connect"))
        }
        Some(s) => Conn::Client(Client::connect(s.local_addr()).expect("connect")),
    };
    let setup_s = setup_started.elapsed().as_secs_f64();

    let stats_before = engine.stats();
    let vfs_before = storage.vfs_snapshot();
    let (stolen_before, ticks_before) = machine_ticks();
    let ops = &stream.timed;
    let traced = spec.traced;
    let mut at_boundary = |i: usize| boundary.sample(i, &engine, traced);
    let phase = match (&mut conn, &engine) {
        (Conn::Client(c), _) if spec.bursts => run_bursts(c, ops, log, None, &mut at_boundary),
        (Conn::Client(c), _) => run_per_op(c, ops, use_dkeys, log, None, &mut at_boundary),
        (Conn::Traced(c), _) if spec.bursts => {
            run_bursts(c, ops, log, tracing.as_mut(), &mut at_boundary)
        }
        (Conn::Traced(c), _) => {
            run_per_op(c, ops, use_dkeys, log, tracing.as_mut(), &mut at_boundary)
        }
        (Conn::None, Engine::Single(db)) if spec.traced => {
            let mut sink = TracedDb::new(db);
            let phase = run_per_op(
                &mut sink,
                ops,
                use_dkeys,
                log,
                tracing.as_mut(),
                &mut at_boundary,
            );
            stages = sink.stages;
            phase
        }
        (Conn::None, engine) => {
            engine.run_ops(ops, use_dkeys, log, tracing.as_mut(), &mut at_boundary)
        }
    };
    let (stolen_after, ticks_after) = machine_ticks();
    let steal_share = per(
        (stolen_after - stolen_before) as f64,
        ticks_after - ticks_before,
    );
    let stats_after = engine.stats();
    let vfs = storage.vfs_snapshot() - vfs_before;
    let shard_ops = engine
        .shard_ops()
        .iter()
        .zip(&shard_ops_before)
        .map(|(after, before)| after - before)
        .collect();

    if let Conn::Traced(c) = &conn {
        wire = c.counters;
    }
    drop(conn);
    if let Some(mut s) = server.take() {
        let m = s.metrics();
        let load = |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed);
        server_side = ServerSide {
            read_service_us_mean: m.read_latency.mean(),
            write_service_us_mean: m.write_latency.mean(),
            read_service_us_total: m.read_latency.mean() * m.read_latency.count() as f64,
            write_service_us_total: m.write_latency.mean() * m.write_latency.count() as f64,
            bytes_in: load(&m.bytes_in),
            bytes_out: load(&m.bytes_out),
            busy_responses: load(&m.busy_responses),
            protocol_errors: load(&m.protocol_errors),
        };
        s.shutdown();
    }

    // End-of-workload checks.
    let (live_tombstones, live_range_tombstones) = engine.live_tombstones();
    engine.flush_and_maintain(false);
    boundary.note_ages(&engine);
    let settled = engine.stats();
    let mut end = EndState {
        class_bytes: storage.class_bytes(spec.shards),
        life_bytes_written: storage.io().bytes_written,
        space_bytes: storage.mem.total_file_bytes(),
        persistence_max: settled.persistence_latency.max,
        persistence_p50: settled.persistence_latency.p50,
        persistence_violations: settled.persistence_violations,
        live_tombstones,
        live_range_tombstones,
        table_bytes: match &engine {
            Engine::Single(db) => db.table_bytes(),
            Engine::Fleet(db) => (0..db.shard_count())
                .map(|i| db.shard(i).table_bytes())
                .sum(),
        },
        ..EndState::default()
    };
    // Judged after the final maintain() and before the reopen: recovery
    // stamps every dead value-log extent with tick 0, so a reopened
    // engine reports violations until its next GC.
    (end.cohort_worst_age, end.audit_violating_cohorts) = engine.cohort_ages();
    drop(engine);
    let reopen_started = Instant::now();
    // Nobody reads the reopened engine's ring; a traced-size one would
    // be timed as part of recovery.
    let reopened = Engine::open(storage.vfs(), stream, spec.shards, DEFAULT_EVENT_RING);
    end.reopen_ms = reopen_started.elapsed().as_secs_f64() * 1e3;
    end.integrity_ok = reopened.integrity_ok();
    (end.final_checked, end.final_wrong) = reopened.check_final(stream);
    log.drain_into(&mut Vec::new());

    Pass {
        steal_share,
        setup_s,
        setup_clean,
        phase,
        stats: (stats_before, stats_after),
        vfs,
        stages,
        wire,
        server: server_side,
        boundary,
        shard_ops,
        end,
    }
}

impl Pass {
    fn d_th_frac(&self, stream: &Stream) -> f64 {
        let worst = self
            .boundary
            .worst_age
            .max(self.end.persistence_max)
            .max(self.end.cohort_worst_age);
        worst as f64 / stream.sizes.d_th as f64
    }

    /// Every answer right, every check passed, the `D_th` bound held.
    fn correct(&self, stream: &Stream) -> bool {
        self.setup_clean
            && self.phase.wrong == 0
            && self.phase.failed == 0
            && self.end.final_wrong == 0
            && self.end.integrity_ok
            && self.end.persistence_violations == 0
            && self.d_th_frac(stream) <= 1.0
    }

    fn problems(&self, stream: &Stream) -> Vec<String> {
        let mut out = Vec::new();
        if !self.setup_clean {
            out.push("a setup op failed".to_string());
        }
        if let Some(p) = &self.phase.first_problem {
            out.push(format!(
                "{} failed + {} wrong ops; first: {p}",
                self.phase.failed, self.phase.wrong
            ));
        }
        if self.end.final_wrong > 0 {
            out.push(format!(
                "{} of {} final-state gets disagree with the oracle after reopen",
                self.end.final_wrong, self.end.final_checked
            ));
        }
        if !self.end.integrity_ok {
            out.push("verify_integrity() failed".to_string());
        }
        if self.end.persistence_violations > 0 {
            out.push(format!(
                "{} persistence violations",
                self.end.persistence_violations
            ));
        }
        if self.d_th_frac(stream) > 1.0 {
            out.push(format!("D_th exceeded: {:.3}", self.d_th_frac(stream)));
        }
        out
    }
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn per(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Whole-phase percentile of one op class, in microseconds.
fn pct_us(slices: &[Recorder], pct: f64) -> f64 {
    us(whole_phase(slices).percentile_ns(pct).unwrap_or(0) as f64)
}

/// The timings of one untraced pass as the clocks read them.
fn measured_timings(pass: &Pass, setup_times: &[f64]) -> [(&'static str, f64); 6] {
    [
        ("setup_s", median(setup_times)),
        ("ops_per_s", pass.phase.ops_per_s()),
        ("cpu_us_per_op", pass.phase.cpu_us_per_op()),
        ("get_p50_us", pct_us(&pass.phase.gets, 50.0)),
        ("write_p50_us", pct_us(&pass.phase.writes, 50.0)),
        ("scan_p50_us", pct_us(&pass.phase.scans, 50.0)),
    ]
}

/// Timings are reported at the reference host's quiet speed (see
/// `calib.rs`): each is divided by how slow the gauge ran around the
/// work it times. Counts are as counted.
fn end_to_end_values(
    stream: &Stream,
    pass: &Pass,
    setup_times: &[f64],
    setup_gauge: &Gauge,
) -> Values {
    let mut v = Values::new();
    for (name, measured) in measured_timings(pass, setup_times) {
        let slowdown = if name == "setup_s" {
            setup_gauge.slowdown()
        } else {
            pass.boundary.gauge.slowdown()
        };
        // A rate falls on a slow host; every other timing rises.
        let adjusted = if name == "ops_per_s" {
            measured * slowdown
        } else {
            measured / slowdown
        };
        v.insert(name, adjusted);
    }
    // Over the store's whole life, set-up included: the timed phase of
    // a read-mostly workload holds a handful of compactions, and whether
    // the last one lands inside it moved the figure by 8% between seeds.
    v.insert(
        "write_amp",
        pass.end.life_bytes_written as f64 / stream.user_bytes as f64,
    );
    v.insert(
        "space_amp",
        pass.end.space_bytes as f64 / stream.model.live_bytes() as f64,
    );
    v.insert("dth_worst_age_frac", pass.d_th_frac(stream));
    v.insert("peak_rss_mb", peak_rss_mib() - BUFFERS_MIB);
    v
}

/// Counts of the timed stream by op class.
struct OpCounts {
    ops: u64,
    gets: u64,
    writes: u64,
}

fn op_counts(stream: &Stream) -> OpCounts {
    use crate::gen::Kind;
    let gets = stream
        .timed
        .iter()
        .filter(|op| op.kind == Kind::Get)
        .count() as u64;
    let reads = stream
        .timed
        .iter()
        .filter(|op| matches!(op.kind, Kind::Get | Kind::Scan))
        .count() as u64;
    OpCounts {
        ops: stream.timed.len() as u64,
        gets,
        writes: stream.timed.len() as u64 - reads,
    }
}

/// The per-layer table from one traced pass, as far as that pass alone
/// can fill it; ratios against other passes are added by the caller.
fn per_layer_values(stream: &Stream, pass: &Pass) -> Values {
    let n = op_counts(stream);
    let user = stream.timed_user_bytes as f64;
    let (before, after) = &pass.stats;
    let wall_s = pass.phase.wall_s();
    let mut v = Values::new();

    let wal = pass.vfs.class(Class::Wal);
    v.insert(
        "vfs.wal.write_calls_per_op",
        per(wal.write_calls as f64, n.ops),
    );
    v.insert("vfs.wal.bytes_per_op", per(wal.write_bytes as f64, n.ops));
    v.insert("vfs.wal.syncs_per_op", per(wal.syncs as f64, n.ops));
    v.insert(
        "vfs.wal.busy_ns_per_op",
        per((wal.write_ns + wal.sync_ns) as f64, n.ops),
    );
    v.insert(
        "vfs.sst.write_bytes_per_user_byte",
        pass.vfs.class(Class::Sst).write_bytes as f64 / user,
    );
    v.insert(
        "vfs.vlog.write_bytes_per_user_byte",
        pass.vfs.class(Class::Vlog).write_bytes as f64 / user,
    );
    v.insert(
        "vfs.manifest.write_calls",
        pass.vfs.class(Class::Manifest).write_calls as f64,
    );
    v.insert("vfs.files_created", pass.vfs.files_created as f64);
    v.insert("vfs.files_deleted", pass.vfs.files_deleted as f64);

    // Storage reads while a get was open; a pipelined burst mixes gets
    // with writes, so there these read 0.
    let io = pass.phase.get_io;
    v.insert(
        "vfs.sst.read_calls_per_get",
        per(io.sst_read_calls as f64, n.gets),
    );
    v.insert(
        "vfs.sst.read_bytes_per_get",
        per(io.sst_read_bytes as f64, n.gets),
    );
    v.insert(
        "vfs.sst.read_busy_ns_per_get",
        per(io.sst_read_ns as f64, n.gets),
    );
    v.insert(
        "vfs.vlog.read_calls_per_get",
        per(io.vlog_read_calls as f64, n.gets),
    );
    v.insert(
        "read_ios_per_get",
        per((io.sst_read_calls + io.vlog_read_calls) as f64, n.gets),
    );

    let hist_total = |h: &acheron::HistogramSummary| h.mean * h.count as f64;
    v.insert(
        "core.commit.groups_per_op",
        per((after.commit_groups - before.commit_groups) as f64, n.ops),
    );
    v.insert(
        "core.commit.wal_syncs_per_op",
        per((after.wal_syncs - before.wal_syncs) as f64, n.ops),
    );
    let st = pass.stages;
    v.insert(
        "core.commit.wal_us_per_write",
        per(st.wal_us as f64, st.traced_writes),
    );
    let maint_us: f64 = [
        &pass.boundary.flush_us,
        &pass.boundary.compaction_us,
        &pass.boundary.gc_us,
    ]
    .into_iter()
    .flatten()
    .sum();
    v.insert(
        "core.commit.inline_maint_us_per_write",
        per(maint_us, n.writes),
    );
    v.insert(
        "core.commit.stalls",
        (after.write_stalls - before.write_stalls) as f64,
    );
    v.insert(
        "core.commit.slowdowns",
        (after.write_slowdowns - before.write_slowdowns) as f64,
    );
    v.insert(
        "core.commit.stall_us_total",
        hist_total(&after.stall_micros) - hist_total(&before.stall_micros),
    );

    v.insert(
        "core.read.imm_probes_per_get",
        per(st.imm_probes as f64, st.traced_gets),
    );
    v.insert(
        "core.read.table_probes_per_get",
        per(st.table_probes as f64, st.traced_gets),
    );
    v.insert(
        "core.read.bloom_prescreen_skips_per_get",
        per(st.bloom_prescreen_skips as f64, st.traced_gets),
    );
    v.insert(
        "core.read.seqno_skips_per_get",
        per(st.seqno_skips as f64, st.traced_gets),
    );
    v.insert(
        "core.read.cache_hit_pages_per_get",
        per(st.cache_hit_pages as f64, st.traced_gets),
    );
    v.insert(
        "core.read.cache_miss_pages_per_get",
        per(st.cache_miss_pages as f64, st.traced_gets),
    );
    v.insert(
        "core.read.vlog_derefs_per_get",
        per(st.vlog_derefs as f64, st.traced_gets),
    );
    v.insert(
        "core.read.view_swaps",
        (after.read_view_swaps - before.read_view_swaps) as f64,
    );
    v.insert(
        "sstable.bloom_false_positive_rate",
        per(io.wasted_pages as f64, io.classified_pages),
    );

    let hits = (after.cache_hits - before.cache_hits) as f64;
    let misses = (after.cache_misses - before.cache_misses) as f64;
    v.insert(
        "cache.hit_rate",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    v.insert(
        "cache.evictions_per_get",
        per(
            (after.cache_evictions - before.cache_evictions) as f64,
            n.gets,
        ),
    );
    v.insert(
        "cache.used_mb",
        after.cache_used_bytes as f64 / (1 << 20) as f64,
    );

    let compactions = after.compactions - before.compactions;
    v.insert(
        "core.maint.flushes",
        (after.flushes - before.flushes) as f64,
    );
    v.insert("core.maint.flush_us_p50", median(&pass.boundary.flush_us));
    v.insert("core.maint.compactions", compactions as f64);
    v.insert(
        "core.maint.ttl_compaction_share",
        per(
            (after.ttl_compactions - before.ttl_compactions) as f64,
            compactions,
        ),
    );
    v.insert(
        "core.maint.compaction_us_p50",
        median(&pass.boundary.compaction_us),
    );
    v.insert(
        "core.maint.compaction_us_max",
        pass.boundary
            .compaction_us
            .iter()
            .copied()
            .fold(0.0, f64::max),
    );
    v.insert(
        "core.maint.compaction_bytes_in_per_user_byte",
        (after.compaction_bytes_in - before.compaction_bytes_in) as f64 / user,
    );
    v.insert(
        "core.maint.compaction_bytes_out_per_user_byte",
        (after.compaction_bytes_out - before.compaction_bytes_out) as f64 / user,
    );
    v.insert("core.maint.busy_share", maint_us / 1e6 / wall_s);
    v.insert(
        "core.maint.entries_shadowed",
        (after.entries_shadowed - before.entries_shadowed) as f64,
    );
    v.insert(
        "core.maint.tombstones_purged",
        (after.tombstones_purged - before.tombstones_purged) as f64,
    );
    v.insert(
        "core.maint.pages_dropped",
        (after.pages_dropped - before.pages_dropped) as f64,
    );

    v.insert(
        "core.fade.persistence_p50_ticks",
        pass.end.persistence_p50 as f64,
    );
    v.insert(
        "core.fade.persistence_max_ticks",
        pass.end.persistence_max as f64,
    );
    v.insert(
        "core.fade.live_tombstones_end",
        pass.end.live_tombstones as f64,
    );
    v.insert(
        "core.fade.live_range_tombstones_end",
        pass.end.live_range_tombstones as f64,
    );
    v.insert(
        "core.fade.audit_violating_cohorts",
        pass.end.audit_violating_cohorts as f64,
    );
    v.insert(
        "core.vlog.gc_rewritten_bytes_per_user_byte",
        (after.vlog_gc_rewritten_bytes - before.vlog_gc_rewritten_bytes) as f64 / user,
    );
    v.insert(
        "core.vlog.gc_reclaimed_mb",
        (after.vlog_gc_reclaimed_bytes - before.vlog_gc_reclaimed_bytes) as f64 / (1 << 20) as f64,
    );
    v.insert(
        "core.vlog.oldest_dead_age_frac",
        pass.boundary.worst_vlog_age as f64 / stream.sizes.d_th as f64,
    );
    v.insert(
        "core.vlog.segments_deleted",
        (after.vlog_segments_deleted - before.vlog_segments_deleted) as f64,
    );
    v.insert("core.recovery.reopen_ms", pass.end.reopen_ms);

    if pass.shard_ops.len() > 1 {
        let mean = pass.shard_ops.iter().sum::<u64>() as f64 / pass.shard_ops.len() as f64;
        let var = pass
            .shard_ops
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / pass.shard_ops.len() as f64;
        v.insert("sharded.ops_per_shard_cv", var.sqrt() / mean);
    }

    let w = pass.wire;
    v.insert("client.encode_ns_per_op", per(w.encode_ns as f64, n.ops));
    v.insert("client.write_ns_per_op", per(w.write_ns as f64, n.ops));
    v.insert("client.wait_ns_per_op", per(w.wait_ns as f64, n.ops));
    v.insert("client.decode_ns_per_op", per(w.decode_ns as f64, n.ops));
    v.insert(
        "client.write_syscalls_per_op",
        per(w.write_syscalls as f64, n.ops),
    );
    v.insert(
        "client.read_syscalls_per_op",
        per(w.read_syscalls as f64, n.ops),
    );
    v.insert("client.burst_p99_us", pct_us(&pass.phase.bursts, 99.0));
    let s = pass.server;
    v.insert("server.read_service_us_mean", s.read_service_us_mean);
    v.insert("server.write_service_us_mean", s.write_service_us_mean);
    v.insert("server.bytes_in_per_op", per(s.bytes_in as f64, n.ops));
    v.insert("server.bytes_out_per_op", per(s.bytes_out as f64, n.ops));
    v.insert("server.busy_responses", s.busy_responses as f64);
    v.insert("server.protocol_errors", s.protocol_errors as f64);
    if w.write_syscalls > 0 {
        // Client round trips minus the server's own service time: the
        // syscall, framing and hand-off term no engine change touches.
        let round_trips_ns = (w.encode_ns + w.write_ns + w.wait_ns + w.decode_ns) as f64;
        let service_ns = (s.read_service_us_total + s.write_service_us_total) * 1e3;
        v.insert(
            "wire.tax_ns_per_op",
            per(round_trips_ns - service_ns, n.ops),
        );
    }
    v.insert(
        "driver.failed_op_share",
        per((pass.phase.failed + pass.phase.wrong) as f64, n.ops),
    );
    v.insert("driver.calib_drift", pass.boundary.gauge.drift());
    v.insert("driver.host_slowdown", pass.boundary.gauge.slowdown());
    v.insert("driver.steal_share", pass.steal_share);
    v
}

/// Latency tails the sample supports, from the untraced pass.
fn tail_values(pass: &Pass, v: &mut Values) {
    let mut gets = whole_phase(&pass.phase.gets);
    let mut writes = whole_phase(&pass.phase.writes);
    v.insert(
        "driver.get_p99_us",
        us(gets.percentile_ns(99.0).unwrap_or(0) as f64),
    );
    v.insert(
        "driver.write_p99_us",
        us(writes.percentile_ns(99.0).unwrap_or(0) as f64),
    );
    let pct = match (gets.highest_supported(), writes.highest_supported()) {
        (Some((g, _)), Some((w, _))) => g.min(w),
        _ => return,
    };
    v.insert(
        "driver.get_ptail_us",
        us(gets.percentile_ns(pct).unwrap_or(0) as f64),
    );
    v.insert(
        "driver.write_ptail_us",
        us(writes.percentile_ns(pct).unwrap_or(0) as f64),
    );
    v.insert("driver.ptail_percentile", pct);
    v.insert("driver.samples", gets.len().min(writes.len()) as f64);
}

/// The stream against a sink that does nothing: the driver's own cost.
fn driver_overhead_ns(stream: &Stream, log: &Arc<SpanLog>) -> f64 {
    let use_dkeys = stream.workload == Workload::IngestDelete;
    let phase = run_per_op(
        &mut NullSink,
        &stream.timed,
        use_dkeys,
        log,
        None,
        &mut |_| {},
    );
    phase.wall_s() * 1e9 / phase.attempted as f64
}

fn size_notes(cfg: &Config, stream: &Stream, pass: &Pass) -> Vec<String> {
    vec![
        format!(
            "workload {} seed {} seconds {} scale {}",
            cfg.workload.name(),
            cfg.seed,
            cfg.seconds,
            if cfg.quick { "quick" } else { "full" }
        ),
        format!(
            "frozen sizes: keys {} setup_ops {} timed_ops {} ({} per second) d_th {} cache {} KiB stream_digest {:#018x}",
            stream.sizes.keys,
            stream.setup.len(),
            stream.timed.len(),
            stream.sizes.ops_per_second,
            stream.sizes.d_th,
            stream.sizes.cache_bytes >> 10,
            stream.digest()
        ),
        describe(&stream.sizes),
        format!(
            "load: 1 generator thread, closed loop; host parallelism {}",
            std::thread::available_parallelism().map_or(0, |n| n.get())
        ),
        format!(
            "sizes at end: tables {} KiB vs cache {} KiB; files {} KiB (wal {} sst {} vlog {} manifest {}); live user data {} KiB in {} keys",
            pass.end.table_bytes >> 10,
            stream.sizes.cache_bytes >> 10,
            pass.end.space_bytes >> 10,
            pass.end.class_bytes[Class::Wal as usize] >> 10,
            pass.end.class_bytes[Class::Sst as usize] >> 10,
            pass.end.class_bytes[Class::Vlog as usize] >> 10,
            pass.end.class_bytes[Class::Manifest as usize] >> 10,
            stream.model.live_bytes() >> 10,
            stream.model.live_keys()
        ),
        format!(
            "timed phase: {:.3} s wall, {:.3} s cpu, {} slices; steal_share {:.4}; host_slowdown {:.4} over {} gauge samples, calib_drift {:.4}",
            pass.phase.wall_s(),
            pass.phase.cpu_s(),
            pass.phase.slice_ops.len(),
            pass.steal_share,
            pass.boundary.gauge.slowdown(),
            pass.boundary.gauge.len(),
            pass.boundary.gauge.drift()
        ),
        format!(
            "checks: final gets {}/{} right, integrity {}, persistence_violations {}, worst tombstone cohort age {} of d_th {}, cohorts the engine's audit (incl. vlog reclaim) faults {}",
            pass.end.final_checked - pass.end.final_wrong,
            pass.end.final_checked,
            pass.end.integrity_ok,
            pass.end.persistence_violations,
            pass.end.cohort_worst_age,
            stream.sizes.d_th,
            pass.end.audit_violating_cohorts
        ),
    ]
}

/// Run one invocation.
pub fn run(cfg: &Config) -> Report {
    let stream = generate(cfg.workload, cfg.seed, cfg.seconds, cfg.quick);
    let log = Arc::new(SpanLog::default());
    // A closed loop over the wire has one runnable thread at a time:
    // the client waits while the server works. Across two vCPUs every
    // hand-off idles one and wakes the other, and on a shared host a
    // woken vCPU waits for the hypervisor to run it: twelve interleaved
    // pairs of `wire-pipelined-sharded` read 10.8k-17.9k ops/s free and
    // 16.0k-20.1k pinned, and `wire-perop` swung severalfold. On one CPU
    // the hand-off is a context switch.
    let wire = matches!(
        cfg.workload,
        Workload::WirePerop | Workload::WirePipelinedSharded
    );
    let pinned = wire && pin_to_one_cpu();
    let mut report = if cfg.traced {
        run_traced(cfg, &stream, &log)
    } else {
        run_untraced(cfg, &stream, &log)
    };
    if wire {
        report
            .notes
            .push(format!("client and server pinned to one cpu: {pinned}"));
    }
    report
}

fn run_untraced(cfg: &Config, stream: &Stream, log: &Arc<SpanLog>) -> Report {
    let spec = PassSpec::native(cfg.workload, false);
    let mut setup_times = Vec::new();
    // Sampled before every set-up and after the last one.
    let mut setup_gauge = Gauge::default();
    // The pass below sets up once more, for the tree it then measures.
    while setup_times.len() + 1 < MIN_SETUPS
        || (setup_times.len() + 1 < MAX_SETUPS && setup_times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        setup_gauge.sample();
        let (storage, engine, seconds, _) = set_up(stream, spec, log);
        setup_times.push(seconds);
        drop((engine, storage));
    }
    setup_gauge.sample();
    let pass = run_pass(stream, spec, log, None);
    setup_times.push(pass.setup_s);
    // The timed phase's first sample is taken as the last set-up ends.
    setup_gauge.push(
        pass.boundary
            .gauge
            .first()
            .unwrap_or(crate::calib::REFERENCE_NS),
    );
    let values = end_to_end_values(stream, &pass, &setup_times, &setup_gauge);
    let mut notes = size_notes(cfg, stream, &pass);
    notes.push(format!(
        "setup times: {setup_times:.3?} s; host_slowdown {:.4} over {} gauge samples",
        setup_gauge.slowdown(),
        setup_gauge.len()
    ));
    notes.push(format!(
        "timings as measured, before the host-speed adjustment: {}",
        measured_timings(&pass, &setup_times)
            .iter()
            .map(|(name, value)| format!("{name} {value:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    notes.extend(pass.problems(stream));
    Report {
        result: RunResult::new(
            pass.correct(stream),
            pass.phase.attempted,
            pass.phase.failed + pass.phase.wrong,
            &end_to_end_table(),
            &values,
        ),
        notes,
    }
}

fn run_traced(cfg: &Config, stream: &Stream, log: &Arc<SpanLog>) -> Report {
    let untraced = run_pass(stream, PassSpec::native(cfg.workload, false), log, None);
    let mut collector = Collector::default();
    let traced = run_pass(
        stream,
        PassSpec::native(cfg.workload, true),
        log,
        Some(&mut collector),
    );
    let mut values = per_layer_values(stream, &traced);
    tail_values(&untraced, &mut values);
    let untraced_rate = untraced.phase.ops_per_s();
    values.insert(
        "trace.overhead_share",
        1.0 - traced.phase.ops_per_s() / untraced_rate,
    );
    values.insert("driver.overhead_ns_per_op", driver_overhead_ns(stream, log));
    let mut notes = size_notes(cfg, stream, &traced);
    let mut correct = untraced.correct(stream) && traced.correct(stream);
    notes.extend(untraced.problems(stream));
    notes.extend(traced.problems(stream));
    if traced.boundary.events_lost {
        notes.push("flight recorder overflowed: maintenance durations are incomplete".into());
    }

    // The same stream on the embedded engine, where a ratio needs it.
    match cfg.workload {
        Workload::WirePerop => {
            let embedded = run_pass(stream, PassSpec::replay(None), log, None);
            correct &= embedded.correct(stream);
            values.insert(
                "wire.vs_embedded_ratio",
                untraced_rate / embedded.phase.ops_per_s(),
            );
        }
        Workload::WirePipelinedSharded => {
            let fleet = run_pass(stream, PassSpec::replay(Some(SHARDS)), log, None);
            let single = run_pass(stream, PassSpec::replay(None), log, None);
            correct &= fleet.correct(stream) && single.correct(stream);
            let fleet_rate = fleet.phase.ops_per_s();
            values.insert("wire.vs_embedded_ratio", untraced_rate / fleet_rate);
            values.insert(
                "sharded.router_tax_share",
                1.0 - fleet_rate / single.phase.ops_per_s(),
            );
        }
        Workload::IngestDelete | Workload::ReadAged => {}
    }

    crate::probe::run_all(log, &mut collector, &mut values);
    let path = cfg
        .out_dir
        .join(format!("trace-{}.jsonl", cfg.workload.name()));
    match std::fs::create_dir_all(&cfg.out_dir)
        .and_then(|()| std::fs::write(&path, collector.render_jsonl()))
    {
        Ok(()) => notes.push(format!("spans written to {}", path.display())),
        Err(e) => {
            notes.push(format!("could not write {}: {e}", path.display()));
            correct = false;
        }
    }
    Report {
        result: RunResult::new(
            correct,
            traced.phase.attempted,
            traced.phase.failed + traced.phase.wrong,
            PER_LAYER,
            &values,
        ),
        notes,
    }
}
