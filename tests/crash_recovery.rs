//! Deterministic crash-recovery campaign over the fault-injecting VFS.
//!
//! The harness (in `acheron::testutil`) drives a seeded put/delete
//! workload on a `FaultVfs`, cuts power at chosen durability points
//! (syncs and renames — the only instants at which on-disk state
//! changes meaning), reboots on the surviving bytes, reopens, and
//! checks four invariants at every point:
//!
//! 1. every acknowledged (WAL-synced) write is readable after recovery;
//! 2. no acknowledged delete is resurrected;
//! 3. the crashed image and the recovered image are `doctor`-clean
//!    (errors never; post-recovery, no warnings either);
//! 4. FADE's delete-persistence bound still holds after recovery.
//!
//! Together the tests below sweep well over 50 crash points across
//! synchronous (`background_threads = 0`) and background modes and both
//! power-cut models (unsynced suffix dropped wholesale, or torn to a
//! random length the way physical sectors tear).

use std::sync::{Arc, Mutex};

use acheron::filenames::sst_path;
use acheron::manifest::{read_current, read_manifest, EditBatch, ManifestWriter, VersionEdit};
use acheron::testutil::{
    count_crash_points, demonstrate_delete_before_manifest, run_crash_suite,
    run_recovery_crash_point, CrashConfig, CrashWorkload,
};
use acheron::{Db, DbOptions, Event};
use acheron_sstable::{BlockHandle, Footer, TableBuilder, TableOptions, TableStats, FOOTER_SIZE};
use acheron_types::checksum::{crc32c, masked};
use acheron_types::{KeyRangeTombstone, Result};
use acheron_vfs::{CutDurability, FaultVfs, IoStats, MemFs, RandomAccessFile, Vfs, WritableFile};
use bytes::Bytes;
use proptest::prelude::*;

fn sync_cfg() -> CrashConfig {
    CrashConfig {
        background_threads: 0,
        ..CrashConfig::default()
    }
}

/// Synchronous mode: the durability-point space is exactly enumerable.
/// Sweep it with a stride, checking ≥ 30 crash points end to end.
#[test]
fn sync_mode_survives_crashes_at_swept_durability_points() {
    let cfg = sync_cfg();
    let total = count_crash_points(&cfg);
    assert!(
        total >= 60,
        "workload too small to be interesting: only {total} durability points"
    );
    // Stride chosen to sweep ≥ 30 points spread across the whole run.
    let stride = (total / 30).max(1);
    let report = run_crash_suite(&cfg, (0..total).step_by(stride as usize));
    assert!(
        report.violations().is_empty(),
        "crash-recovery invariant violations:\n{}",
        report.violations().join("\n")
    );
    assert!(
        report.crashes() >= 30,
        "expected >= 30 actual crashes, got {} of {} points",
        report.crashes(),
        report.outcomes.len()
    );
}

/// Same sweep under the torn-tail power-cut model: unsynced suffixes
/// survive to a seeded-random length, exercising WAL/manifest torn-tail
/// recovery at every point.
#[test]
fn sync_mode_survives_torn_tail_crashes() {
    let cfg = CrashConfig {
        cut: CutDurability::TornTail,
        workload: CrashWorkload {
            seed: 0xBEEF_0002,
            ..CrashWorkload::default()
        },
        ..sync_cfg()
    };
    let total = count_crash_points(&cfg);
    let stride = (total / 15).max(1);
    let report = run_crash_suite(&cfg, (0..total).step_by(stride as usize));
    assert!(
        report.violations().is_empty(),
        "torn-tail crash violations:\n{}",
        report.violations().join("\n")
    );
    assert!(report.crashes() >= 15);
}

/// Range-delete-heavy workload under both power-cut models: a cut
/// between a sort-key range tombstone's WAL append and the flush that
/// persists it into a table's stats block must never resurrect keys the
/// acked range delete erased — and recovery must rebuild the memtable's
/// tombstone buffer from the WAL alone.
#[test]
fn range_tombstones_survive_crashes_under_both_cut_models() {
    for (cut, seed) in [
        (CutDurability::DropUnsynced, 0xCAFE_0011u64),
        (CutDurability::TornTail, 0xCAFE_0012u64),
    ] {
        let cfg = CrashConfig {
            cut,
            workload: CrashWorkload {
                seed,
                ops: 250,
                key_space: 48,
                delete_percent: 15,
                range_delete_percent: 20,
                large_value_percent: 15,
            },
            ..sync_cfg()
        };
        let ops = cfg.workload.generate();
        let range_ops = ops
            .iter()
            .filter(|op| matches!(op, acheron::testutil::WorkloadOp::RangeDeleteKeys { .. }))
            .count();
        assert!(
            range_ops >= 30,
            "workload too light on range deletes: {range_ops}"
        );
        let total = count_crash_points(&cfg);
        let stride = (total / 15).max(1);
        let report = run_crash_suite(&cfg, (0..total).step_by(stride as usize));
        assert!(
            report.violations().is_empty(),
            "range-delete crash violations ({cut:?}):\n{}",
            report.violations().join("\n")
        );
        assert!(report.crashes() >= 12);
    }
}

/// Value-log-heavy workload under both power-cut models: most puts
/// exceed the separation threshold, so crash points land between vlog
/// appends, vlog syncs and the WAL syncs that acknowledge them. The
/// harness invariants then say exactly what the value log must
/// guarantee: every acked separated value reads back byte-exact (a
/// pointer whose frame was lost would fail the stamp check), the
/// recovered image is doctor-clean (no dangling pointers, no orphan
/// `.vlg` tails or heal temp files survive recovery), and the FADE
/// bound still covers dead vlog extents.
#[test]
fn separated_values_survive_crashes_under_both_cut_models() {
    for (cut, seed) in [
        (CutDurability::DropUnsynced, 0xB10B_0021u64),
        (CutDurability::TornTail, 0xB10B_0022u64),
    ] {
        let cfg = CrashConfig {
            cut,
            workload: CrashWorkload {
                seed,
                ops: 250,
                key_space: 64,
                delete_percent: 20,
                range_delete_percent: 8,
                large_value_percent: 60,
            },
            ..sync_cfg()
        };
        let ops = cfg.workload.generate();
        let large_ops = ops
            .iter()
            .filter(|op| matches!(op, acheron::testutil::WorkloadOp::Put { large: true, .. }))
            .count();
        assert!(
            large_ops >= 50,
            "workload too light on separated values: {large_ops}"
        );
        let total = count_crash_points(&cfg);
        let stride = (total / 15).max(1);
        let report = run_crash_suite(&cfg, (0..total).step_by(stride as usize));
        assert!(
            report.violations().is_empty(),
            "vlog crash violations ({cut:?}):\n{}",
            report.violations().join("\n")
        );
        assert!(report.crashes() >= 12);
    }
}

/// Recovery replays every logged range delete into the memtable's
/// buffer, so a reopen over many buffered range deletes must cost each
/// one an append, not an index rebuild. A power cut with 1,000 scattered
/// three-key range deletes synced but not flushed: the reopened engine
/// holds all of them and answers every scan as it did before the cut.
#[test]
fn a_reopen_replays_a_thousand_buffered_range_deletes() {
    let fault = Arc::new(FaultVfs::new(Arc::new(MemFs::new())));
    let opts = DbOptions {
        write_buffer_bytes: 64 << 20,
        wal_sync: true,
        background_threads: 0,
        ..DbOptions::default()
    };
    let key = |i: u32| format!("key{i:06}").into_bytes();
    let db = Db::open(fault.clone(), "db", opts.clone()).unwrap();
    for i in 0..20_000 {
        db.put(&key(i), b"value").unwrap();
    }
    db.flush().unwrap();
    for j in 0..1_000 {
        db.range_delete_keys(&key(20 * j), &key(20 * j + 2))
            .unwrap();
    }
    let scan_all = |db: &Db| -> Vec<Vec<(Bytes, Bytes)>> {
        (0..20)
            .map(|s| db.scan(&key(s * 1_000), &key(s * 1_000 + 999)).unwrap())
            .collect()
    };
    let before = scan_all(&db);
    assert_eq!(before[0].len(), 1_000 - 50 * 3);
    fault.power_cut();
    drop(db);
    fault.reboot();
    let started = std::time::Instant::now();
    let db = Db::open(fault, "db", opts).unwrap();
    eprintln!(
        "reopen over 1,000 buffered range deletes: {:?}",
        started.elapsed()
    );
    assert_eq!(db.live_key_range_tombstones(), 1_000);
    assert!(scan_all(&db) == before, "a scan changed across the reopen");
}

/// Rewrite the stats block of the table at `path` — the last block
/// before its footer — to carry `krts`, with their seqnos folded into
/// the table's seqno window: what an engine that kept sort-key range
/// tombstones in its tables wrote. Returns the new file size.
fn plant_table_list(fs: &MemFs, path: &str, krts: Vec<KeyRangeTombstone>) -> u64 {
    let data = fs.read_all(path).unwrap();
    let footer = Footer::decode(&data[data.len() - FOOTER_SIZE..]).unwrap();
    let at = footer.stats.offset as usize;
    let mut stats = TableStats::decode(&data[at..at + footer.stats.size as usize]).unwrap();
    for k in &krts {
        stats.min_seqno = stats.min_seqno.min(k.seqno);
        stats.max_seqno = stats.max_seqno.max(k.seqno);
    }
    stats.range_tombstones = krts;
    let block = stats.encode();
    let mut out = data[..at].to_vec();
    out.extend_from_slice(&block);
    out.push(0); // block type: uncompressed
    out.extend_from_slice(&masked(&[&block, &[0]]).to_le_bytes());
    let stats = BlockHandle {
        offset: at as u64,
        size: block.len() as u64,
    };
    out.extend_from_slice(&Footer { stats, ..footer }.encode());
    fs.write_all(path, &out).unwrap();
    out.len() as u64
}

/// An image written before sort-key range tombstones lived in the
/// manifest: one tombstone in the stats block of a table with entries,
/// one in an entry-less carrier table, and one in an unflushed WAL
/// record. Opening it lifts each into the engine exactly once and
/// collects the carrier; reads are what the tombstones say; once they
/// retire, a reopen does not lift the table's stale list again.
#[test]
fn an_image_with_table_held_range_tombstones_is_lifted_once() {
    let fs = Arc::new(MemFs::new());
    let opts = DbOptions {
        target_file_bytes: 4 << 10,
        ..DbOptions::small()
    };
    let key = |i: u32| format!("key{i:04}").into_bytes();
    let db = Db::open(fs.clone(), "db", opts.clone()).unwrap();
    for i in 0..600 {
        db.put(&key(i), &[b'a'; 40]).unwrap();
    }
    db.compact_all().unwrap();
    let (seqno, tick) = (1_000_000, db.now());
    // The unflushed WAL record.
    db.range_delete_keys(&key(400), &key(409)).unwrap();
    drop(db);

    // The live tables, by level, from the manifest; strip the marker
    // that says tables hold no range tombstones.
    let manifest = format!("db/{}", read_current(fs.as_ref(), "db").unwrap().unwrap());
    let mut batches = read_manifest(fs.as_ref(), &manifest).unwrap();
    let mut live = std::collections::BTreeMap::new();
    for edit in batches.iter_mut().flat_map(|b| b.edits.iter_mut()) {
        match *edit {
            VersionEdit::AddFile { id, level, .. } => {
                live.insert(id, level);
            }
            VersionEdit::DeleteFile { id } => {
                live.remove(&id);
            }
            _ => {}
        }
    }
    for b in &mut batches {
        b.edits
            .retain(|e| *e != VersionEdit::KeyRangeTombstonesLifted);
    }
    let bottom: Vec<u64> = live.keys().copied().collect();
    assert!(bottom.len() >= 5, "{bottom:?}");
    let krt = |lo: u32, hi: u32, seqno: u64| KeyRangeTombstone {
        start: Bytes::from(key(lo)),
        end: Bytes::from(key(hi)),
        seqno,
        dkey: tick,
    };
    // The newest table carries a tombstone over keys it does not hold.
    let listed = *bottom.last().unwrap();
    let listed_path = sst_path("db", listed);
    let size = plant_table_list(&fs, &listed_path, vec![krt(10, 19, seqno)]);
    for edit in batches.iter_mut().flat_map(|b| b.edits.iter_mut()) {
        if let VersionEdit::AddFile { id, size: s, .. } = edit {
            if *id == listed {
                *s = size;
            }
        }
    }
    // The carrier, at L1.
    let carrier = 900_000;
    let carrier_path = sst_path("db", carrier);
    TableBuilder::new(fs.create(&carrier_path).unwrap(), TableOptions::default())
        .unwrap()
        .finish()
        .unwrap();
    let size = plant_table_list(&fs, &carrier_path, vec![krt(100, 109, seqno + 1)]);
    batches.push(EditBatch {
        edits: vec![VersionEdit::AddFile {
            level: 1,
            run: 0,
            id: carrier,
            size,
            created_tick: tick,
        }],
    });
    let mut w = ManifestWriter::create(fs.as_ref(), &manifest).unwrap();
    for b in &batches {
        w.append(b).unwrap();
    }
    drop(w);

    let erased = |i: &u32| {
        [10..=19, 100..=109, 400..=409]
            .iter()
            .any(|r| r.contains(i))
    };
    let expected: Vec<(Bytes, Bytes)> = (0..600)
        .filter(|i| !erased(i))
        .map(|i| (Bytes::from(key(i)), Bytes::from(vec![b'a'; 40])))
        .collect();
    let scan_all = |db: &Db| db.scan(&key(0), &key(599)).unwrap();

    let db = Db::open(fs.clone(), "db", opts.clone()).unwrap();
    assert_eq!(db.live_key_range_tombstones(), 3);
    assert_eq!(db.tombstone_gauges().buffer_key_range_tombstones, 1);
    assert!(!fs.exists(&carrier_path), "the carrier is collected");
    assert!(scan_all(&db) == expected, "reads differ after the lift");
    db.verify_integrity().unwrap();

    // A full compaction applies all three; they retire, and the table
    // whose stats block still lists one stays live.
    db.compact_all().unwrap();
    assert_eq!(db.live_key_range_tombstones(), 0);
    assert!(fs.exists(&listed_path));
    assert!(
        scan_all(&db) == expected,
        "reads differ after the retirement"
    );
    drop(db);
    let db = Db::open(fs.clone(), "db", opts).unwrap();
    assert_eq!(
        db.live_key_range_tombstones(),
        0,
        "a retired tombstone stays retired"
    );
    assert!(scan_all(&db) == expected, "reads differ after the reopen");
}

/// The whole sync-mode sweep again with the unified memory budget (and
/// therefore the block cache and adaptive arbiter) live. The cache is
/// purely in-memory state, so every recovery invariant must hold
/// unchanged: a crash point whose answers differ from the cache-off
/// sweep would mean cached blocks leaked into recovered state.
#[test]
fn crashes_with_memory_budget_and_cache_recover_identically() {
    let cfg = CrashConfig {
        // Big enough that the cache share actually caches table pages;
        // the memtable share (~half) still seals several times over the
        // workload, so flush/compaction crash points stay covered.
        memory_budget_bytes: 256 << 10,
        workload: CrashWorkload {
            seed: 0xCAC4_0031,
            ..CrashWorkload::default()
        },
        ..sync_cfg()
    };
    let total = count_crash_points(&cfg);
    let stride = (total / 15).max(1);
    let report = run_crash_suite(&cfg, (0..total).step_by(stride as usize));
    assert!(
        report.violations().is_empty(),
        "cache-enabled crash violations:\n{}",
        report.violations().join("\n")
    );
    assert!(report.crashes() >= 12);
}

/// Background mode: crash points land wherever worker timing puts the
/// n-th sync — every landing is still a valid crash and every invariant
/// still has to hold.
#[test]
fn background_mode_survives_crashes_at_sampled_points() {
    let cfg = CrashConfig {
        background_threads: 2,
        workload: CrashWorkload {
            seed: 0xD00D_0003,
            ..CrashWorkload::default()
        },
        ..CrashConfig::default()
    };
    let total = count_crash_points(&cfg);
    assert!(total > 0, "background run produced no durability points");
    // Sample 12 points across the observed range; some may land beyond
    // this run's actual point count (timing), which the harness treats
    // as a crash-free run and checks anyway.
    let stride = (total / 12).max(1);
    let report = run_crash_suite(&cfg, (0..total).step_by(stride as usize));
    assert!(
        report.violations().is_empty(),
        "background crash violations:\n{}",
        report.violations().join("\n")
    );
    assert!(
        report.crashes() >= 6,
        "background sweep should hit real crashes, got {}",
        report.crashes()
    );
}

/// Crash *during recovery*: cut power in the workload, reboot, then cut
/// power again at each of the first durability points of the recovery
/// itself — the double-fault schedule that catches repair paths which
/// fix the image in a non-crash-safe order (healing a WAL tear before
/// the segments it invalidates are gone, collecting a superseded
/// manifest before the CURRENT repoint is durable). Run under both
/// power-cut models; the torn-tail model additionally tears the heal's
/// own temp file mid-write.
#[test]
fn recovery_itself_survives_crashes_at_swept_points() {
    for cut in [CutDurability::DropUnsynced, CutDurability::TornTail] {
        let cfg = CrashConfig {
            cut,
            workload: CrashWorkload {
                seed: 0xFEED_0004,
                ops: 200,
                ..CrashWorkload::default()
            },
            ..sync_cfg()
        };
        let total = count_crash_points(&cfg);
        assert!(total >= 12, "workload too small: {total} durability points");
        let mut violations: Vec<String> = Vec::new();
        let mut recovery_crashes = 0usize;
        // Three workload crash instants (early / mid / late), each
        // followed by a sweep over the recovery's own first points.
        for workload_point in [total / 8, total / 2, total - 2] {
            for recovery_point in 0..6 {
                let outcome = run_recovery_crash_point(&cfg, workload_point, recovery_point);
                recovery_crashes += usize::from(outcome.crashed);
                violations.extend(outcome.violations);
            }
        }
        assert!(
            violations.is_empty(),
            "recovery-crash invariant violations ({cut:?}):\n{}",
            violations.join("\n")
        );
        assert!(
            recovery_crashes >= 6,
            "sweep should cut power inside recovery ({cut:?}): {recovery_crashes} crashes"
        );
    }
}

/// The check itself must have teeth: an engine that physically deleted
/// WAL segments *before* the manifest recorded the flush (the reverse
/// of the manifest-append ≻ publish ≻ delete invariant) loses
/// acknowledged writes — and the harness must say so.
#[test]
fn broken_delete_before_manifest_ordering_is_caught() {
    let violations = demonstrate_delete_before_manifest(&sync_cfg());
    assert!(
        !violations.is_empty(),
        "the harness failed to flag a lost acknowledged write"
    );
    assert!(
        violations.iter().any(|v| v.contains("expected stamp")),
        "expected a lost-write report, got: {violations:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized seeds and crash points on top of the deterministic
    /// sweeps; failures persist to crash_recovery.proptest-regressions
    /// as permanent counterexamples.
    #[test]
    fn random_seed_random_point_recovers(seed in 1u64..1 << 48, frac in 0u64..1000) {
        let cfg = CrashConfig {
            workload: CrashWorkload { seed, ops: 150, ..CrashWorkload::default() },
            ..sync_cfg()
        };
        let total = count_crash_points(&cfg);
        let report = run_crash_suite(&cfg, [frac * total / 1000]);
        prop_assert!(
            report.violations().is_empty(),
            "violations: {:?}",
            report.violations()
        );
    }
}

/// The ordered mutating calls a [`RecordingFs`] has seen: one line per
/// call — op, file name, byte length where the op carries bytes.
type CallLog = Arc<Mutex<Vec<String>>>;

fn file_name(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

/// A `MemFs` that writes down every call that changes the directory or
/// makes a change durable. Reads pass through unrecorded.
#[derive(Default)]
struct RecordingFs {
    inner: MemFs,
    calls: CallLog,
}

impl RecordingFs {
    fn note(&self, line: String) {
        self.calls.lock().unwrap().push(line);
    }
}

struct RecordingFile {
    inner: Box<dyn WritableFile>,
    name: String,
    calls: CallLog,
}

impl RecordingFile {
    fn note(&self, line: String) {
        self.calls.lock().unwrap().push(line);
    }
}

impl WritableFile for RecordingFile {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.note(format!("append {} {}", self.name, data.len()));
        self.inner.append(data)
    }
    fn sync(&mut self) -> Result<()> {
        self.note(format!("sync {}", self.name));
        self.inner.sync()
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn finish(&mut self) -> Result<()> {
        self.note(format!("finish {}", self.name));
        self.inner.finish()
    }
}

impl Vfs for RecordingFs {
    fn create(&self, path: &str) -> Result<Box<dyn WritableFile>> {
        self.note(format!("create {}", file_name(path)));
        Ok(Box::new(RecordingFile {
            inner: self.inner.create(path)?,
            name: file_name(path).to_string(),
            calls: Arc::clone(&self.calls),
        }))
    }
    fn open(&self, path: &str) -> Result<Arc<dyn RandomAccessFile>> {
        self.inner.open(path)
    }
    fn read_all(&self, path: &str) -> Result<Bytes> {
        self.inner.read_all(path)
    }
    fn write_all(&self, path: &str, data: &[u8]) -> Result<()> {
        self.note(format!("write_all {} {}", file_name(path), data.len()));
        self.inner.write_all(path, data)
    }
    fn delete(&self, path: &str) -> Result<()> {
        self.note(format!("delete {}", file_name(path)));
        self.inner.delete(path)
    }
    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.note(format!("rename {} {}", file_name(from), file_name(to)));
        self.inner.rename(from, to)
    }
    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }
    fn list(&self, dir: &str) -> Result<Vec<String>> {
        self.inner.list(dir)
    }
    fn mkdir_all(&self, path: &str) -> Result<()> {
        self.note(format!("mkdir_all {path}"));
        self.inner.mkdir_all(path)
    }
    fn sync_dir(&self, dir: &str) -> Result<()> {
        self.note(format!("sync_dir {dir}"));
        self.inner.sync_dir(dir)
    }
    fn file_size(&self, path: &str) -> Result<u64> {
        self.inner.file_size(path)
    }
    fn io_stats(&self) -> Arc<IoStats> {
        self.inner.io_stats()
    }
}

fn pinned_opts() -> DbOptions {
    let mut opts = DbOptions::small().with_value_separation(64);
    opts.vlog_segment_bytes = 2048;
    opts
}

fn big_key(i: u32) -> Vec<u8> {
    format!("big{i:04}").into_bytes()
}

fn big_value(i: u32) -> Vec<u8> {
    format!("value-{i:04}-").repeat(25).into_bytes()
}

fn newest(fs: &RecordingFs, suffix: &str) -> String {
    let name = fs
        .list("db")
        .unwrap()
        .into_iter()
        .filter(|n| n.ends_with(suffix))
        .max()
        .unwrap_or_else(|| panic!("no {suffix} file in the image"));
    format!("db/{name}")
}

fn chop_tail(fs: &RecordingFs, path: &str, bytes: usize) {
    let data = fs.read_all(path).unwrap();
    fs.write_all(path, &data[..data.len() - bytes]).unwrap();
}

fn dropped_vlog_segments(fs: &RecordingFs) -> usize {
    let manifest = read_current(fs, "db").unwrap().expect("CURRENT");
    read_manifest(fs, &format!("db/{manifest}"))
        .unwrap()
        .iter()
        .flat_map(|b| &b.edits)
        .filter(|e| matches!(e, VersionEdit::DropVlogSegment { .. }))
        .count()
}

/// Clean shutdown of a value-separated engine whose vlog GC rewrote and
/// deleted segments that live tables still hold (shadowed) pointers
/// into: recovery must carry the drop markers forward.
fn image_clean_with_dropped_segment() -> Arc<RecordingFs> {
    let fs = Arc::new(RecordingFs::default());
    let db = Db::open(fs.clone(), "db", pinned_opts()).unwrap();
    for i in 0..150 {
        db.put(&big_key(i), &big_value(i)).unwrap();
    }
    db.flush().unwrap();
    for i in (0..150).filter(|i| i % 5 != 0) {
        db.delete(&big_key(i)).unwrap();
    }
    db.compact_all().unwrap();
    db.maintain().unwrap();
    assert!(db.stats_snapshot().vlog_segments_deleted > 0);
    drop(db);
    assert!(dropped_vlog_segments(&fs) > 0);
    fs
}

/// A crash tore the tail of the one live WAL segment.
fn image_torn_wal_tail() -> Arc<RecordingFs> {
    let fs = Arc::new(RecordingFs::default());
    let db = Db::open(fs.clone(), "db", pinned_opts()).unwrap();
    for i in 0..20 {
        db.put(format!("key{i:04}").as_bytes(), b"inline").unwrap();
    }
    db.delete(b"key0003").unwrap();
    drop(db);
    chop_tail(&fs, &newest(&fs, ".log"), 3);
    fs
}

/// A crash tore the vlog head behind the newest WAL record's pointer,
/// and left an unadopted table, a superseded manifest and rename debris.
fn image_torn_vlog_with_debris() -> Arc<RecordingFs> {
    let fs = Arc::new(RecordingFs::default());
    let db = Db::open(fs.clone(), "db", pinned_opts()).unwrap();
    for i in 0..12 {
        db.put(&big_key(i), &big_value(i)).unwrap();
    }
    drop(db);
    chop_tail(&fs, &newest(&fs, ".vlg"), 5);
    fs.write_all("db/999990.sst", b"half-built table junk")
        .unwrap();
    let manifest = read_current(fs.as_ref(), "db").unwrap().expect("CURRENT");
    let stale = fs.read_all(&format!("db/{manifest}")).unwrap();
    fs.write_all("db/MANIFEST-000000", &stale).unwrap();
    fs.write_all("db/000042.log.tmp", b"interrupted heal")
        .unwrap();
    fs
}

/// Recover `fs` and fold what the repair did into one CRC32C: (a) the
/// ordered mutating `Vfs` calls of the open, (b) the recovery events it
/// buffered, (c) the directory it left, each file by name and CRC32C.
fn repair_digest(fs: &Arc<RecordingFs>) -> (u32, String) {
    let mut text = String::new();
    fs.calls.lock().unwrap().clear();
    let db = Db::open(fs.clone(), "db", pinned_opts()).unwrap();
    for call in fs.calls.lock().unwrap().iter() {
        text.push_str(call);
        text.push('\n');
    }
    let events = db.events().events;
    let finished = events
        .iter()
        .position(|e| {
            matches!(
                e.event,
                Event::RecoveryStep {
                    step: acheron::RecoveryStepKind::Finished,
                    ..
                }
            )
        })
        .expect("recovery logs its last step");
    for e in &events[..=finished] {
        assert!(
            matches!(
                e.event,
                Event::RecoveryStep { .. } | Event::GcDropped { .. }
            ),
            "unexpected event inside recovery: {e}"
        );
        text.push_str(&format!("{e}\n"));
    }
    drop(db);
    let mut names = fs.list("db").unwrap();
    names.sort();
    for name in names {
        let crc = crc32c(&fs.read_all(&format!("db/{name}")).unwrap());
        text.push_str(&format!("{name} {crc:08x}\n"));
    }
    (crc32c(text.as_bytes()), text)
}

/// The digests of [`repair_digest`] over the three images, recorded at
/// the commit before recovery was split into a read-only survey and a
/// repair. They move only if the repair issues a different mutation or
/// durability point, in a different order, logs different milestones,
/// or leaves different bytes behind. The first moved once, when tables
/// gained their whole-table key filter (format 4): its image holds a
/// table, and only that table's CRC and the manifest's (which records
/// the table's size) changed.
const REPAIR_DIGESTS: [u32; 3] = [0x0421_e11f, 0xa68b_866c, 0x5036_89a6];

#[test]
fn recovery_repair_sequence_is_pinned() {
    let images = [
        image_clean_with_dropped_segment(),
        image_torn_wal_tail(),
        image_torn_vlog_with_debris(),
    ];
    let texts: Vec<(u32, String)> = images.iter().map(repair_digest).collect();
    assert!(
        dropped_vlog_segments(&images[0]) > 0,
        "a live table still names the dropped segment, so its marker is carried forward"
    );
    assert!(texts[1].1.contains("torn_tail_healed"), "{}", texts[1].1);
    for needle in [
        "torn_tail_healed",
        "rename vlog-",
        "orphan_table",
        "stale_manifest",
        "temp_file",
    ] {
        assert!(texts[2].1.contains(needle), "{needle}:\n{}", texts[2].1);
    }
    let got: Vec<u32> = texts.iter().map(|t| t.0).collect();
    assert_eq!(
        got,
        REPAIR_DIGESTS,
        "the repair sequence moved: {got:#010x?}\n{}",
        texts
            .iter()
            .map(|t| t.1.as_str())
            .collect::<Vec<_>>()
            .join("----\n")
    );
}
