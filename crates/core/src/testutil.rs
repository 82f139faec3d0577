//! Test fixtures and the deterministic crash-recovery harness.
//!
//! Two kinds of tooling live here:
//!
//! * **File fixtures** ([`make_file`] / [`make_file_with`]) — build real
//!   table files on a [`MemFs`] for unit tests of versions, pickers,
//!   and compactions.
//! * **The crash-recovery harness** — drive a seeded workload of puts
//!   and deletes against a database on a fault-injecting filesystem
//!   ([`FaultVfs`]), cut power at a chosen durability point (sync or
//!   rename), reboot on the surviving bytes, reopen, and check the
//!   recovery invariants the engine promises:
//!
//!   1. every acknowledged (WAL-synced) write is readable;
//!   2. no acknowledged delete is resurrected;
//!   3. the surviving image and the recovered image are `doctor`-clean,
//!      and what `doctor` forecasts for the surviving image is what the
//!      open then does;
//!   4. FADE's delete-persistence bound still holds going forward.
//!
//!   [`run_crash_point`] checks one crash instant; [`run_crash_suite`]
//!   sweeps many; [`run_recovery_crash_point`] crashes a second time
//!   *during the recovery itself*, exercising the repair path's own
//!   crash windows (tear healing, dropped-segment deletion, manifest
//!   snapshot + GC). Violations are *collected*, not panicked, so tests
//!   can also assert that a deliberately broken ordering — see
//!   [`demonstrate_delete_before_manifest`] — is in fact caught.
//!
//! Everything is deterministic for `background_threads = 0`: the same
//! [`CrashConfig`] enumerates the same durability points and produces
//! the same outcomes. With workers, crash points land wherever thread
//! timing puts the n-th sync — each run is still a valid (and checked)
//! crash, just not a reproducible one.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use acheron_sstable::{Table, TableBuilder, TableOptions};
use acheron_types::{Entry, Result};
use acheron_vfs::{CutDurability, FaultVfs, MemFs, Vfs};

use crate::db::Db;
use crate::doctor;
use crate::obs::{Event, RecoveryStepKind};
use crate::options::DbOptions;
use crate::version::FileMeta;

/// Build a real table file on `fs` and wrap it in a [`FileMeta`].
///
/// Keys are `key{NNNNNN}` over `key_ids`; seqnos start at `base_seq`;
/// dkeys equal the key id. `tombstone_every` (if nonzero) turns every
/// n-th entry into a tombstone whose tick equals its dkey.
#[allow(clippy::too_many_arguments)]
pub fn make_file_with(
    fs: &MemFs,
    id: u64,
    level: usize,
    run: u64,
    key_ids: Range<u32>,
    base_seq: u64,
    tombstone_every: u32,
    created_tick: u64,
) -> Arc<FileMeta> {
    let path = crate::filenames::sst_path("", id);
    let mut b = TableBuilder::new(fs.create(&path).unwrap(), TableOptions::default()).unwrap();
    for (i, k) in key_ids.enumerate() {
        let e = if tombstone_every != 0 && k % tombstone_every == 0 {
            Entry::tombstone(
                format!("key{k:06}").into_bytes(),
                base_seq + i as u64,
                u64::from(k),
            )
        } else {
            Entry::put(
                format!("key{k:06}").into_bytes(),
                b"v".to_vec(),
                base_seq + i as u64,
                u64::from(k),
            )
        };
        b.add(&e).unwrap();
    }
    let stats = b.finish().unwrap();
    let table = Table::open(fs.open(&path).unwrap()).unwrap();
    Arc::new(FileMeta {
        id,
        level,
        run,
        size_bytes: fs.file_size(&path).unwrap(),
        stats,
        created_tick,
        table,
    })
}

/// Plain puts-only file.
pub fn make_file(
    fs: &MemFs,
    id: u64,
    level: usize,
    key_ids: Range<u32>,
    base_seq: u64,
) -> Arc<FileMeta> {
    make_file_with(fs, id, level, 0, key_ids, base_seq, 0, 0)
}

// ---------------------------------------------------------------------
// Crash-recovery harness
// ---------------------------------------------------------------------

/// One operation of a crash workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadOp {
    /// Insert `key` with a value encoding `stamp` (the op index, so a
    /// recovered value identifies exactly which write it came from).
    Put {
        /// Key id within the workload's key space.
        key: u32,
        /// Op index at generation time, recoverable from the value.
        stamp: u64,
        /// Whether the value is padded past the campaign's
        /// value-separation threshold, so it travels through the value
        /// log as a pointer instead of inline.
        large: bool,
    },
    /// Point-delete `key`.
    Delete {
        /// Key id within the workload's key space.
        key: u32,
    },
    /// Sort-key range delete covering key ids `lo..=hi` (the engine
    /// sees the corresponding key-byte bounds, which order identically
    /// because workload keys are zero-padded).
    RangeDeleteKeys {
        /// Lowest covered key id.
        lo: u32,
        /// Highest covered key id (inclusive).
        hi: u32,
    },
}

impl WorkloadOp {
    /// The key ids this op touches, as an inclusive range.
    pub fn keys(&self) -> std::ops::RangeInclusive<u32> {
        match self {
            WorkloadOp::Put { key, .. } | WorkloadOp::Delete { key } => *key..=*key,
            WorkloadOp::RangeDeleteKeys { lo, hi } => *lo..=*hi,
        }
    }

    /// Whether this op can change `key`'s state.
    pub fn touches(&self, key: u32) -> bool {
        self.keys().contains(&key)
    }
}

/// A seeded put/delete workload over a bounded key space.
#[derive(Debug, Clone)]
pub struct CrashWorkload {
    /// Seed for the op sequence (and, xored with the crash point, for
    /// the fault filesystem's own randomness).
    pub seed: u64,
    /// Number of operations.
    pub ops: usize,
    /// Keys are drawn uniformly from `0..key_space`.
    pub key_space: u32,
    /// Percentage of operations that are deletes.
    pub delete_percent: u64,
    /// Percentage of operations that are sort-key range deletes
    /// (carved out of the delete share, spanning up to 8 keys).
    pub range_delete_percent: u64,
    /// Percentage of puts whose value is padded past the campaign's
    /// value-separation threshold (see [`CrashConfig::db_options`]), so
    /// every sweep also exercises vlog pointers and their recovery.
    pub large_value_percent: u64,
}

impl Default for CrashWorkload {
    fn default() -> Self {
        CrashWorkload {
            seed: 0xACE0_0001,
            ops: 300,
            key_space: 64,
            delete_percent: 30,
            range_delete_percent: 5,
            large_value_percent: 15,
        }
    }
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

impl CrashWorkload {
    /// The deterministic op sequence for this spec.
    pub fn generate(&self) -> Vec<WorkloadOp> {
        let mut s = self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..self.ops)
            .map(|i| {
                let r = xorshift(&mut s);
                let key = ((r >> 16) % u64::from(self.key_space)) as u32;
                let pct = r % 100;
                if pct < self.range_delete_percent {
                    let width = ((r >> 40) % 8) as u32;
                    WorkloadOp::RangeDeleteKeys {
                        lo: key,
                        hi: (key + width).min(self.key_space.saturating_sub(1)).max(key),
                    }
                } else if pct < self.range_delete_percent + self.delete_percent {
                    WorkloadOp::Delete { key }
                } else {
                    WorkloadOp::Put {
                        key,
                        stamp: i as u64,
                        large: (r >> 33) % 100 < self.large_value_percent,
                    }
                }
            })
            .collect()
    }
}

/// The reference state (key → live stamp, `None` = deleted) after the
/// first `n` ops of `ops`.
pub fn model_after(ops: &[WorkloadOp], n: usize) -> BTreeMap<u32, Option<u64>> {
    let mut m = BTreeMap::new();
    for op in &ops[..n] {
        match op {
            WorkloadOp::Put { key, stamp, .. } => {
                m.insert(*key, Some(*stamp));
            }
            WorkloadOp::Delete { key } => {
                m.insert(*key, None);
            }
            WorkloadOp::RangeDeleteKeys { lo, hi } => {
                for k in *lo..=*hi {
                    m.insert(k, None);
                }
            }
        };
    }
    m
}

fn key_bytes(k: u32) -> Vec<u8> {
    format!("key{k:06}").into_bytes()
}

/// Bytes every large value is padded to — past
/// [`CrashConfig::db_options`]'s separation threshold, so the value
/// travels through the value log.
pub const LARGE_VALUE_BYTES: usize = 480;

fn value_bytes(stamp: u64, large: bool) -> Vec<u8> {
    let mut v = format!("stamp{stamp:010}").into_bytes();
    if large {
        while v.len() < LARGE_VALUE_BYTES {
            v.push(b'#');
        }
    }
    v
}

fn parse_stamp(v: &[u8]) -> Option<u64> {
    // Fixed-width prefix: the stamp parses identically whether the
    // value is inline or padded out for value separation.
    std::str::from_utf8(v)
        .ok()?
        .strip_prefix("stamp")?
        .get(..10)?
        .parse()
        .ok()
}

/// Apply one workload op to a live database.
pub fn apply_op(db: &Db, op: &WorkloadOp) -> Result<()> {
    match op {
        WorkloadOp::Put { key, stamp, large } => {
            db.put(&key_bytes(*key), &value_bytes(*stamp, *large))
        }
        WorkloadOp::Delete { key } => db.delete(&key_bytes(*key)),
        WorkloadOp::RangeDeleteKeys { lo, hi } => {
            db.range_delete_keys(&key_bytes(*lo), &key_bytes(*hi))
        }
    }
}

/// Configuration of one crash-recovery campaign.
#[derive(Debug, Clone)]
pub struct CrashConfig {
    /// The op sequence to drive.
    pub workload: CrashWorkload,
    /// `0` = deterministic synchronous maintenance; `> 0` = background
    /// workers (crash points then land wherever thread timing puts
    /// them).
    pub background_threads: usize,
    /// FADE's `D_th`, checked to still hold after recovery.
    pub delete_persistence_threshold: u64,
    /// What a power cut does to unsynced file suffixes.
    pub cut: CutDurability,
    /// Unified memory budget (0 = disabled). Non-zero runs the whole
    /// campaign with the block cache and adaptive arbiter live, so the
    /// sweep proves recovery is cache-oblivious: the cache is purely
    /// in-memory state and must not change any recovered answer.
    pub memory_budget_bytes: usize,
}

impl Default for CrashConfig {
    fn default() -> Self {
        CrashConfig {
            workload: CrashWorkload::default(),
            background_threads: 0,
            delete_persistence_threshold: 2_000,
            cut: CutDurability::DropUnsynced,
            memory_budget_bytes: 0,
        }
    }
}

impl CrashConfig {
    /// Engine options for this campaign: small buffers (so the workload
    /// exercises seals, flushes, and compactions), `wal_sync` on (the
    /// per-op durability the invariants are stated against), FADE
    /// enabled.
    pub fn db_options(&self) -> DbOptions {
        DbOptions {
            write_buffer_bytes: 4 << 10,
            level1_target_bytes: 16 << 10,
            target_file_bytes: 8 << 10,
            page_size: 512,
            max_levels: 4,
            wal_sync: true,
            background_threads: self.background_threads,
            // Below LARGE_VALUE_BYTES, above the small inline values:
            // every sweep drives both value paths through each crash.
            value_separation_threshold: 256,
            vlog_segment_bytes: 4 << 10,
            memory_budget_bytes: self.memory_budget_bytes,
            ..DbOptions::default()
        }
        .with_fade(self.delete_persistence_threshold)
    }
}

/// What happened at one crash point.
#[derive(Debug)]
pub struct CrashPointOutcome {
    /// The armed durability point.
    pub point: u64,
    /// Whether the cut actually fired (`false` = the workload finished
    /// before reaching the point; the checks still ran).
    pub crashed: bool,
    /// Operations acknowledged before the crash surfaced.
    pub acked: usize,
    /// Invariant violations found; empty = the engine behaved.
    pub violations: Vec<String>,
}

/// Aggregate of a crash-point sweep.
#[derive(Debug, Default)]
pub struct CrashSuiteReport {
    /// Per-point outcomes, in sweep order.
    pub outcomes: Vec<CrashPointOutcome>,
}

impl CrashSuiteReport {
    /// Points at which the power cut actually fired.
    pub fn crashes(&self) -> usize {
        self.outcomes.iter().filter(|o| o.crashed).count()
    }

    /// Every violation across the sweep.
    pub fn violations(&self) -> Vec<&str> {
        self.outcomes
            .iter()
            .flat_map(|o| o.violations.iter().map(String::as_str))
            .collect()
    }
}

/// Count the durability points (syncs + renames) the full workload
/// generates with no fault armed — the space [`run_crash_point`] can be
/// swept over. Exact for `background_threads = 0`; approximate with
/// workers.
pub fn count_crash_points(cfg: &CrashConfig) -> u64 {
    let fault = FaultVfs::with_seed(Arc::new(MemFs::new()), cfg.workload.seed);
    fault.set_cut_durability(cfg.cut);
    let db = Db::open(Arc::new(fault.clone()), "db", cfg.db_options()).expect("clean open");
    fault.reset_points();
    for op in cfg.workload.generate() {
        apply_op(&db, &op).expect("no fault armed");
    }
    drop(db);
    fault.durability_points()
}

/// What opening an image does to it, as far as [`doctor`] forecasts it:
/// the two sides of invariant 3c. Both read one survey of the directory,
/// so they can only differ if the repair stops following it.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct OpenForecast {
    /// WAL records replayed into the write buffer.
    pub wal_records: u64,
    /// Value-log bytes the rebuilt accounting holds live.
    pub vlog_live_bytes: u64,
    /// Dead files deleted, as sorted `(kind name, file number)` pairs.
    pub collected: Vec<(&'static str, u64)>,
}

impl OpenForecast {
    /// The forecast `doctor` makes for the image under `dir`.
    pub(crate) fn by_doctor(fs: &dyn Vfs, dir: &str) -> Result<OpenForecast> {
        let report = doctor::check_db(fs, dir)?;
        let mut collected: Vec<(&'static str, u64)> = (report.collect.iter())
            .map(|(kind, id)| (kind.name(), *id))
            .collect();
        collected.sort_unstable();
        Ok(OpenForecast {
            wal_records: report.wal_records,
            vlog_live_bytes: report.vlog_live_bytes,
            collected,
        })
    }

    /// What an open of the image under `dir` is observed to do: its
    /// `WalSegmentReplayed` details, its rebuilt vlog accounting and its
    /// `GcDropped` events. Taken from a copy of the image, so `fs` is
    /// untouched, opened with `opts` but no background workers: an open
    /// runs no maintenance itself, so the gauges still show what the
    /// repair rebuilt.
    pub(crate) fn by_open(fs: &dyn Vfs, dir: &str, opts: &DbOptions) -> Result<OpenForecast> {
        let copy = Arc::new(MemFs::new());
        copy.mkdir_all(dir)?;
        for name in fs.list(dir)? {
            let path = acheron_vfs::join(dir, &name);
            copy.write_all(&path, &fs.read_all(&path)?)?;
        }
        let quiet = DbOptions {
            background_threads: 0,
            ..opts.clone()
        };
        let db = Db::open(copy, dir, quiet)?;
        let mut seen = OpenForecast {
            wal_records: 0,
            vlog_live_bytes: db.tombstone_gauges().vlog_live_bytes,
            collected: Vec::new(),
        };
        for e in db.events().events {
            match e.event {
                Event::RecoveryStep {
                    step: RecoveryStepKind::WalSegmentReplayed,
                    detail,
                } => seen.wal_records += detail,
                Event::RecoveryStep { .. } => {}
                Event::GcDropped { kind, id } => seen.collected.push((kind.name(), id)),
                other => panic!("the observing open was not quiet: {other:?}"),
            }
        }
        seen.collected.sort_unstable();
        Ok(seen)
    }
}

/// Run the workload, cut power at the `point`-th durability point,
/// reboot, reopen, and check every recovery invariant. Violations are
/// returned, not panicked.
pub fn run_crash_point(cfg: &CrashConfig, point: u64) -> CrashPointOutcome {
    let ops = cfg.workload.generate();
    let fault = FaultVfs::with_seed(
        Arc::new(MemFs::new()),
        cfg.workload.seed ^ point.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    fault.set_cut_durability(cfg.cut);
    let mut violations: Vec<String> = Vec::new();

    let db = Db::open(Arc::new(fault.clone()), "db", cfg.db_options()).expect("clean open");
    fault.reset_points();
    fault.arm_power_cut_at(point);
    let mut acked = 0usize;
    let mut in_flight = false;
    for op in &ops {
        match apply_op(&db, op) {
            Ok(()) => acked += 1,
            Err(_) => {
                // The op that surfaced the crash is the single op whose
                // durability is legitimately ambiguous.
                in_flight = true;
                break;
            }
        }
    }
    let crashed = fault.has_crashed();
    drop(db);
    fault.reboot();

    // Invariant 3a: the surviving image is diagnosable. Warnings (torn
    // WAL tails, orphan tables) are expected crash debris; an *error*
    // would mean the manifest references bytes that never became
    // durable — the ordering invariant broken.
    // Invariant 3c: and what doctor says the next open will do — records
    // replayed, vlog bytes kept live, files collected — is what it does.
    match OpenForecast::by_doctor(&fault, "db") {
        Err(e) => violations.push(format!("doctor failed on the crashed image: {e}")),
        Ok(forecast) => match OpenForecast::by_open(&fault, "db", &cfg.db_options()) {
            // The reopen below reports a failed open.
            Err(_) => {}
            Ok(seen) if seen == forecast => {}
            Ok(seen) => violations.push(format!("doctor forecast {forecast:?}, open did {seen:?}")),
        },
    }

    match Db::open(Arc::new(fault.clone()), "db", cfg.db_options()) {
        Err(e) => violations.push(format!("reopen after crash failed: {e}")),
        Ok(db) => {
            // Invariants 1 + 2: acked writes readable, no resurrection.
            violations.extend(check_recovered_state(&db, &ops, acked, in_flight));
            // Invariant 4: the persistence bound holds going forward.
            violations.extend(check_fade_bound(&db, cfg));
            if let Err(e) = db.verify_integrity() {
                violations.push(format!("verify_integrity after recovery: {e}"));
            }
            drop(db);
            // Invariant 3b: recovery collected the crash debris — after
            // a clean reopen + shutdown the image is doctor-clean.
            match doctor::check_db(&fault, "db") {
                Err(e) => violations.push(format!("doctor failed after recovery: {e}")),
                Ok(report) => {
                    for w in report.warnings {
                        violations.push(format!("doctor warning after recovery: {w}"));
                    }
                }
            }
        }
    }
    let violations = violations
        .into_iter()
        .map(|v| format!("point {point}: {v}"))
        .collect();
    CrashPointOutcome {
        point,
        crashed,
        acked,
        violations,
    }
}

/// Crash twice: once in the workload at durability point
/// `workload_point`, then *again during the recovery itself* at its
/// `recovery_point`-th durability point — the double-fault schedule
/// that catches recovery paths which repair the image in a
/// non-crash-safe order (healing a WAL tear before the segments it
/// invalidates are durably gone, deleting a superseded manifest before
/// the CURRENT repoint is durable, rewriting a segment in place). After
/// the second reboot the database must open cleanly and satisfy every
/// invariant of [`run_crash_point`].
///
/// The returned outcome's `point` and `crashed` describe the
/// *recovery* crash; `acked` still counts workload acknowledgements.
pub fn run_recovery_crash_point(
    cfg: &CrashConfig,
    workload_point: u64,
    recovery_point: u64,
) -> CrashPointOutcome {
    let ops = cfg.workload.generate();
    let fault = FaultVfs::with_seed(
        Arc::new(MemFs::new()),
        cfg.workload.seed
            ^ workload_point.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ recovery_point
                .rotate_left(32)
                .wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
    );
    fault.set_cut_durability(cfg.cut);
    let mut violations: Vec<String> = Vec::new();

    // First life: the workload, cut at `workload_point`.
    let db = Db::open(Arc::new(fault.clone()), "db", cfg.db_options()).expect("clean open");
    fault.reset_points();
    fault.arm_power_cut_at(workload_point);
    let mut acked = 0usize;
    let mut in_flight = false;
    for op in &ops {
        match apply_op(&db, op) {
            Ok(()) => acked += 1,
            Err(_) => {
                in_flight = true;
                break;
            }
        }
    }
    drop(db);
    fault.reboot();

    // Second life: recovery, cut at its `recovery_point`-th durability
    // point. The open may also complete first (the point lies beyond
    // recovery) and die during shutdown — both are valid schedules.
    fault.reset_points();
    fault.arm_power_cut_at(recovery_point);
    match Db::open(Arc::new(fault.clone()), "db", cfg.db_options()) {
        Ok(db) => drop(db),
        Err(_) if fault.has_crashed() => {}
        Err(e) => violations.push(format!("recovery failed without a power cut: {e}")),
    }
    let crashed = fault.has_crashed();
    fault.reboot();

    // Third life: no faults; every invariant must hold.
    match Db::open(Arc::new(fault.clone()), "db", cfg.db_options()) {
        Err(e) => violations.push(format!("reopen after recovery crash failed: {e}")),
        Ok(db) => {
            violations.extend(check_recovered_state(&db, &ops, acked, in_flight));
            violations.extend(check_fade_bound(&db, cfg));
            if let Err(e) = db.verify_integrity() {
                violations.push(format!("verify_integrity after recovery crash: {e}"));
            }
            drop(db);
            match doctor::check_db(&fault, "db") {
                Err(e) => violations.push(format!("doctor failed after recovery crash: {e}")),
                Ok(report) => {
                    for w in report.warnings {
                        violations.push(format!("doctor warning after recovery crash: {w}"));
                    }
                }
            }
        }
    }
    let violations = violations
        .into_iter()
        .map(|v| format!("workload point {workload_point}, recovery point {recovery_point}: {v}"))
        .collect();
    CrashPointOutcome {
        point: recovery_point,
        crashed,
        acked,
        violations,
    }
}

/// Sweep [`run_crash_point`] over `points`.
pub fn run_crash_suite(
    cfg: &CrashConfig,
    points: impl IntoIterator<Item = u64>,
) -> CrashSuiteReport {
    CrashSuiteReport {
        outcomes: points
            .into_iter()
            .map(|p| run_crash_point(cfg, p))
            .collect(),
    }
}

/// Compare a recovered database against the op model: state must equal
/// the model after `acked` ops, except that the single in-flight op (if
/// any) may or may not have survived — its WAL record can be durable
/// even though the crash kept its acknowledgement from returning.
pub fn check_recovered_state(
    db: &Db,
    ops: &[WorkloadOp],
    acked: usize,
    in_flight: bool,
) -> Vec<String> {
    let expect = model_after(ops, acked);
    let next = (in_flight && acked < ops.len()).then(|| (ops[acked], model_after(ops, acked + 1)));
    let keys: std::collections::BTreeSet<u32> = ops.iter().flat_map(|op| op.keys()).collect();
    let large_of: BTreeMap<u64, bool> = ops
        .iter()
        .filter_map(|op| match op {
            WorkloadOp::Put { stamp, large, .. } => Some((*stamp, *large)),
            _ => None,
        })
        .collect();
    let mut violations = Vec::new();
    for key in keys {
        let got = match db.get(&key_bytes(key)) {
            Ok(v) => v,
            Err(e) => {
                violations.push(format!("key {key}: read after recovery failed: {e}"));
                continue;
            }
        };
        let got_stamp = match &got {
            Some(v) => match parse_stamp(v) {
                Some(s) => Some(s),
                None => {
                    violations.push(format!("key {key}: unparseable recovered value {got:?}"));
                    continue;
                }
            },
            None => None,
        };
        // Byte-exact recovery: a value that parses but mismatches its
        // stamp's expected bytes means the payload behind a (possibly
        // separated) value was corrupted, not merely lost.
        if let (Some(v), Some(s)) = (&got, got_stamp) {
            let want_bytes = value_bytes(s, large_of.get(&s).copied().unwrap_or(false));
            if v[..] != want_bytes[..] {
                violations.push(format!(
                    "key {key}: recovered value for stamp {s} corrupted \
                     ({} bytes, expected {})",
                    v.len(),
                    want_bytes.len()
                ));
                continue;
            }
        }
        let want = expect.get(&key).copied().flatten();
        if got_stamp == want {
            continue;
        }
        if let Some((op, next_model)) = &next {
            if op.touches(key) && got_stamp == next_model.get(&key).copied().flatten() {
                continue;
            }
        }
        if let (None, Some(stamp)) = (want, got_stamp) {
            violations.push(format!(
                "key {key}: resurrected delete (stamp {stamp} readable after an acked delete)"
            ));
        } else {
            violations.push(format!(
                "key {key}: expected stamp {want:?} after {acked} acked ops, found {got_stamp:?}"
            ));
        }
    }
    violations
}

/// Age the recovered database well past `D_th` (in sub-margin steps, as
/// a wall-clock deployment would) and verify FADE's persistence bound
/// still holds: no violation is counted and no live tombstone exceeds
/// the threshold.
fn check_fade_bound(db: &Db, cfg: &CrashConfig) -> Vec<String> {
    let mut violations = Vec::new();
    let d_th = cfg.delete_persistence_threshold;
    let step = (d_th / 16).max(1);
    for _ in 0..40 {
        db.advance_clock(step);
        let r = if cfg.background_threads == 0 {
            db.maintain()
        } else {
            db.wait_idle()
        };
        if let Err(e) = r {
            violations.push(format!("maintenance after recovery failed: {e}"));
            return violations;
        }
    }
    use std::sync::atomic::Ordering::Relaxed;
    let pv = db.stats().persistence_violations.load(Relaxed);
    if pv != 0 {
        violations.push(format!("{pv} FADE persistence violations after recovery"));
    }
    if let Some(age) = db.oldest_live_tombstone_age() {
        if age > d_th {
            violations.push(format!(
                "live tombstone aged {age} ticks > D_th {d_th} after recovery"
            ));
        }
    }
    if let Some(age) = db.oldest_live_key_range_tombstone_age() {
        if age > d_th {
            violations.push(format!(
                "live sort-key range tombstone aged {age} ticks > D_th {d_th} after recovery"
            ));
        }
    }
    violations
}

/// Demonstrate that the harness catches a broken crash ordering.
///
/// The engine's invariant is *manifest append ≻ version publish ≻
/// physical deletion*. This helper simulates an engine that violated it
/// — physically deleting WAL segments before the manifest recorded the
/// flush that made them obsolete, then losing power — by deleting every
/// WAL segment of a cleanly written image before reopening. The
/// recovered-state check must report the acked-but-unflushed writes as
/// lost (and any tail delete as resurrected). Returns those violations;
/// a healthy harness returns a non-empty list.
pub fn demonstrate_delete_before_manifest(cfg: &CrashConfig) -> Vec<String> {
    let mut ops = cfg.workload.generate();
    // A deterministic tail that cannot all be flushed: the final update
    // and delete live only in the WAL at shutdown.
    let stamp = ops.len() as u64;
    ops.push(WorkloadOp::Put {
        key: 0,
        stamp,
        large: false,
    });
    ops.push(WorkloadOp::Put {
        key: 1,
        stamp: stamp + 1,
        // A separated value in the unflushed tail: its pointer dies
        // with the deleted WAL, which the state check must report.
        large: true,
    });
    ops.push(WorkloadOp::Delete { key: 2 });

    let mem = Arc::new(MemFs::new());
    let db = Db::open(mem.clone() as Arc<dyn Vfs>, "db", cfg.db_options()).expect("open");
    for op in &ops {
        apply_op(&db, op).expect("no faults in the broken-ordering demo");
    }
    drop(db);

    // The buggy deletion, followed by the crash.
    for name in mem.list("db").unwrap() {
        if name.ends_with(".log") {
            mem.delete(&acheron_vfs::join("db", &name)).unwrap();
        }
    }

    let db = Db::open(mem as Arc<dyn Vfs>, "db", cfg.db_options()).expect("reopen");
    check_recovered_state(&db, &ops, ops.len(), false)
}
