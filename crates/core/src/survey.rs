//! What a database directory contains, read without changing it.
//!
//! [`survey`] is the one reader of a (possibly crashed) image: it
//! resolves `CURRENT`, folds the manifest, classifies one directory
//! listing, opens the live tables, walks the live WAL segments up to the
//! first tear and rebuilds the value-log accounting. It issues read
//! calls only — no `create`, `append`, `rename`, `delete` or `sync` —
//! and keeps offsets and counts, never file bytes.
//!
//! Two callers act on the result. `Db::open` *repairs* from it (see
//! `db/recovery.rs`: heal the tear, write the snapshot manifest, collect
//! the debris); [`crate::doctor`] *reports* from it. Because both read
//! the same [`Survey`], what the doctor prints about an image is what
//! the next open will do to it.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use acheron_memtable::Memtable;
use acheron_sstable::{BlockCache, Table};
use acheron_types::{
    Entry, Error, KeyRangeTombstone, RangeTombstone, Result, SeqNo, Tick, ValueKind, ValuePointer,
};
use acheron_vfs::{RandomAccessFile, Vfs};
use acheron_wal::{LogReader, ReadOutcome, WalBatch};

use crate::filenames::{parse_file_name, sst_path, vlog_path, wal_path, FileKind};
use crate::manifest::{read_current, read_manifest, EditBatch, VersionEdit};
use crate::obs::GcKind;
use crate::version::FileMeta;

/// How the replay of one live WAL segment ended.
pub(crate) enum WalEnd {
    /// Clean end of log.
    Clean,
    /// A damaged or incomplete record: the segment's tail is torn.
    Torn {
        /// File offset of the damaged fragment.
        offset: u64,
        /// What was wrong with it.
        reason: String,
    },
    /// The next record holds a value pointer whose vlog frame does not
    /// read back. The commit path syncs vlog frames *before* the WAL
    /// record that references them, so this is a commit that never
    /// finished — a tear at that record.
    PointerTorn,
    /// The segment follows a tear and was not read: the prefix rule
    /// ends replay globally at the first tear, because later segments
    /// were written strictly after the records the tear lost.
    Unreplayed,
}

/// One live WAL segment (numbered at or above the manifest's log
/// number).
pub(crate) struct WalSegment {
    /// Segment number.
    pub number: u64,
    /// Records replayed (a record is an atomic unit: all of its entries
    /// or none).
    pub records: u64,
    /// File length covering exactly those records — the heal's cut.
    pub valid_len: u64,
    /// How replay of the segment ended.
    pub end: WalEnd,
}

/// Accounting for one value-log segment some live pointer references.
/// References into GC-dropped segments are stale and shadowed; they hold
/// nothing live and never appear here.
#[derive(Default)]
pub(crate) struct VlogSegment {
    /// Frame bytes the live tables and the replayed WAL records
    /// reference. (A seqno lives in the tables or in the WAL, never
    /// both, so nothing is counted twice.) Every other intact byte is
    /// dead; its birth tick is not on disk, so both callers treat it as
    /// already overdue.
    pub live_bytes: u64,
    /// Highest frame end a live table references.
    pub table_end: u64,
    /// The segment file: `None` when the directory has none. Only
    /// table-held pointers can name a missing segment — a WAL-held one
    /// ends replay at its record instead.
    pub file: Option<VlogFile>,
}

/// The on-disk side of a referenced value-log segment.
pub(crate) struct VlogFile {
    /// File length.
    pub len: u64,
    /// Length of the intact frame prefix; shorter than `len` when a
    /// crash tore the tail.
    pub intact_len: u64,
}

/// A file nothing references, which the next open deletes once its
/// snapshot manifest is durable.
pub(crate) struct Debris {
    /// Why it is dead.
    pub kind: GcKind,
    /// File number (0 for temp files).
    pub id: u64,
    /// File name within the directory.
    pub name: String,
}

/// The manifest's record of one live table.
struct ManifestFile {
    level: u64,
    run: u64,
    size: u64,
    created_tick: Tick,
}

/// Everything [`survey`] learned about a directory.
#[derive(Default)]
pub(crate) struct Survey {
    /// Name of the manifest `CURRENT` points at.
    pub manifest: String,
    files: BTreeMap<u64, ManifestFile>,
    log_number: u64,
    /// `persisted_seqno` of the manifest: WAL entries at or below it are
    /// already in tables and are not replayed.
    pub persisted_seqno: SeqNo,
    /// Past the manifest's own mark and every numbered file listed.
    pub next_file_id: u64,
    /// Live secondary range tombstones.
    pub range_tombstones: Vec<RangeTombstone>,
    /// Live sort-key range tombstones that left the write buffers, with
    /// those of an image written before the manifest held them lifted
    /// from its tables.
    pub key_range_tombstones: Vec<KeyRangeTombstone>,
    /// Whether the lists live tables carry were lifted by an earlier
    /// open ([`VersionEdit::KeyRangeTombstonesLifted`]).
    key_ranges_lifted: bool,
    /// Live tables, opened, ascending by id.
    pub tables: Vec<Arc<FileMeta>>,
    /// Live WAL segments, ascending by number. One replayed without a
    /// record is on the collect list: only segments holding records stay
    /// live past the open.
    pub wals: Vec<WalSegment>,
    /// Highest seqno in the manifest or a replayed record.
    pub last_seqno: SeqNo,
    /// The newest tick a WAL record keeps ([`WalBatch::tick`]).
    wal_tick: Tick,
    /// Referenced value-log segments.
    pub vlog: BTreeMap<u64, VlogSegment>,
    /// GC-dropped segments a live table or replayed record still names;
    /// markers nothing names any more are pruned.
    pub vlog_dropped: BTreeSet<u64>,
    /// One past the highest segment on disk or ever dropped, so a
    /// forgotten segment's id is never reused under old pointers.
    pub vlog_next_segment: u64,
    /// Dead files, in listing order.
    pub collect: Vec<Debris>,
}

impl Survey {
    /// The tick the clock of an engine opened over this image starts
    /// at: the newest live table's `created_tick`, live sort-key range
    /// delete's tick, or tick a WAL record keeps — its deletes' ticks
    /// and the dkeys of its puts stamped no later than the clock they
    /// were logged at ([`WalBatch::tick`]). So every recovered delete
    /// has a nonnegative age, the clock does not run back past the
    /// writes it logged, and a put's dkey set in the future does not
    /// move it.
    pub fn clock_start(&self) -> Tick {
        (self.tables.iter().map(|f| f.created_tick))
            .chain(self.key_range_tombstones.iter().map(|k| k.dkey))
            .fold(self.wal_tick, Tick::max)
    }
}

/// Fold a manifest's edit batches into the fields of [`Survey`] the
/// manifest decides.
fn fold_manifest(manifest: String, batches: &[EditBatch]) -> Survey {
    let mut s = Survey {
        manifest,
        next_file_id: 1,
        ..Survey::default()
    };
    for edit in batches.iter().flat_map(|b| &b.edits) {
        match *edit {
            VersionEdit::AddFile {
                level,
                run,
                id,
                size,
                created_tick,
            } => {
                let file = ManifestFile {
                    level,
                    run,
                    size,
                    created_tick,
                };
                s.files.insert(id, file);
            }
            VersionEdit::DeleteFile { id } => {
                s.files.remove(&id);
            }
            VersionEdit::AddRangeTombstone { seqno, range } => {
                s.range_tombstones.push(RangeTombstone { seqno, range });
            }
            VersionEdit::DropRangeTombstone { seqno } => {
                s.range_tombstones.retain(|rt| rt.seqno != seqno);
            }
            VersionEdit::PersistedSeqno { seqno } => {
                s.persisted_seqno = s.persisted_seqno.max(seqno);
            }
            VersionEdit::LogNumber { number } => s.log_number = s.log_number.max(number),
            VersionEdit::NextFileId { id } => s.next_file_id = s.next_file_id.max(id),
            VersionEdit::DropVlogSegment { segment } => {
                s.vlog_dropped.insert(segment);
            }
            VersionEdit::AddKeyRangeTombstone(ref krt) => s.key_range_tombstones.push(krt.clone()),
            VersionEdit::DropKeyRangeTombstone { seqno } => {
                s.key_range_tombstones.retain(|k| k.seqno != seqno);
            }
            VersionEdit::KeyRangeTombstonesLifted => s.key_ranges_lifted = true,
        }
    }
    s
}

/// Lift the sort-key range tombstones an image written before the
/// manifest held them stores in its tables' stats blocks: each that a
/// table is still under joins `s.key_range_tombstones`, and a table
/// holding nothing but tombstones (an entry-less carrier) leaves the
/// live set, so the open collects it.
fn lift_table_key_ranges(s: &mut Survey) {
    let lists: Vec<KeyRangeTombstone> = (s.tables.iter())
        .flat_map(|f| f.stats.range_tombstones.iter().cloned())
        .collect();
    s.tables.retain(|f| f.stats.entry_count > 0);
    s.files.retain(|id, _| s.tables.iter().any(|f| f.id == *id));
    let under = |k: &KeyRangeTombstone| s.tables.iter().any(|f| f.under_key_range_tombstone(k));
    let lifted: Vec<KeyRangeTombstone> = lists.into_iter().filter(under).collect();
    s.key_range_tombstones.extend(lifted);
}

/// Survey the database under `dir`; `None` when it has no `CURRENT`
/// (not a database yet). Live tables are opened against `cache`; every
/// entry and sort-key range tombstone WAL replay re-applies is inserted
/// into `mem`, in commit order.
pub(crate) fn survey(
    fs: &dyn Vfs,
    dir: &str,
    cache: Option<&Arc<BlockCache>>,
    mem: &Memtable,
) -> Result<Option<Survey>> {
    let Some(manifest) = read_current(fs, dir)? else {
        return Ok(None);
    };
    let batches = read_manifest(fs, &acheron_vfs::join(dir, &manifest))?;
    let mut s = fold_manifest(manifest, &batches);

    for (&id, rec) in &s.files {
        let path = sst_path(dir, id);
        if !fs.exists(&path) {
            return Err(Error::corruption(format!(
                "manifest references missing table {path}"
            )));
        }
        let table = Table::open_with_cache(fs.open(&path)?, cache.cloned())?;
        s.tables.push(Arc::new(FileMeta {
            id,
            level: rec.level as usize,
            run: rec.run,
            size_bytes: rec.size,
            stats: table.stats().clone(),
            created_tick: rec.created_tick,
            table,
        }));
    }

    if !s.key_ranges_lifted {
        lift_table_key_ranges(&mut s);
    }

    // The one directory listing: which WAL segments to walk, which vlog
    // segments exist, and a bound on file ids.
    let listing = fs.list(dir)?;
    let mut live_wals: Vec<u64> = Vec::new();
    let mut vlog_on_disk: BTreeSet<u64> = BTreeSet::new();
    for name in &listing {
        let kind = parse_file_name(name);
        match kind {
            FileKind::Wal(n) | FileKind::Table(n) | FileKind::Manifest(n) => {
                s.next_file_id = s.next_file_id.max(n + 1);
                if matches!(kind, FileKind::Wal(_)) && n >= s.log_number {
                    live_wals.push(n);
                }
            }
            FileKind::Vlog(seg) => {
                vlog_on_disk.insert(seg);
            }
            _ => {}
        }
    }
    live_wals.sort_unstable();

    // Which segments anything names (dropped ones included, to prune
    // the markers), and what the non-dropped references keep live.
    let mut vlog_referenced: BTreeSet<u64> = BTreeSet::new();
    for r in s.tables.iter().flat_map(|f| &f.stats.vlog_refs) {
        vlog_referenced.insert(r.segment);
        if !s.vlog_dropped.contains(&r.segment) {
            let seg = s.vlog.entry(r.segment).or_default();
            seg.live_bytes += r.bytes;
            seg.table_end = seg.table_end.max(r.max_end);
        }
    }

    // The WAL prefix walk. A replayed pointer is checked with a
    // positioned read of its frame, one open handle per segment: the
    // frame must verify and carry the entry's key.
    let mut handles: BTreeMap<u64, Option<Arc<dyn RandomAccessFile>>> = BTreeMap::new();
    let mut reads_back = |ptr: &ValuePointer, key: &[u8]| {
        let file = handles
            .entry(ptr.segment)
            .or_insert_with(|| fs.open(&vlog_path(dir, ptr.segment)).ok());
        file.as_ref().is_some_and(|f| {
            f.read_at(ptr.offset, ptr.len as usize)
                .and_then(|frame| acheron_vlog::decode_frame(&frame))
                .is_ok_and(|(frame_key, _)| frame_key == key)
        })
    };
    let persisted_seqno = s.persisted_seqno;
    let replayable = |e: &&Entry| e.seqno > persisted_seqno;
    let rt_seqnos = s.range_tombstones.iter().map(|rt| rt.seqno);
    let krt_seqnos = s.key_range_tombstones.iter().map(|k| k.seqno);
    s.last_seqno = rt_seqnos
        .chain(krt_seqnos)
        .fold(persisted_seqno, SeqNo::max);
    let mut torn = false;
    for number in live_wals {
        let mut seg = WalSegment {
            number,
            records: 0,
            valid_len: 0,
            end: WalEnd::Unreplayed,
        };
        if torn {
            s.wals.push(seg);
            continue;
        }
        let mut reader = LogReader::new(fs.read_all(&wal_path(dir, number))?);
        seg.end = loop {
            let rec = match reader.next_record() {
                ReadOutcome::Record(rec) => rec,
                ReadOutcome::Eof => break WalEnd::Clean,
                ReadOutcome::Corrupt { offset, reason } => break WalEnd::Torn { offset, reason },
            };
            let batch = WalBatch::decode(&rec)?;
            s.wal_tick = s.wal_tick.max(batch.tick);
            let (entries, key_ranges) = batch.entries();
            // Every pointer of the record is checked before any of its
            // entries is replayed: one unreadable frame voids it whole.
            // A pointer into a GC-dropped segment is not a tear — the
            // drop record's durability ordering guarantees the rewrite
            // that shadows the entry is later in the WAL.
            let intact = entries.iter().filter(replayable).all(|e| {
                e.kind != ValueKind::ValuePointer
                    || ValuePointer::decode(&e.value).is_some_and(|ptr| {
                        s.vlog_dropped.contains(&ptr.segment) || reads_back(&ptr, &e.key)
                    })
            });
            if !intact {
                break WalEnd::PointerTorn;
            }
            for e in entries.into_iter().filter(|e| replayable(&e)) {
                s.last_seqno = s.last_seqno.max(e.seqno);
                if e.kind == ValueKind::ValuePointer {
                    let ptr = ValuePointer::decode(&e.value).expect("decoded by the check above");
                    vlog_referenced.insert(ptr.segment);
                    if !s.vlog_dropped.contains(&ptr.segment) {
                        s.vlog.entry(ptr.segment).or_default().live_bytes += u64::from(ptr.len);
                    }
                }
                mem.insert(e);
            }
            for krt in key_ranges.into_iter().filter(|k| k.seqno > persisted_seqno) {
                s.last_seqno = s.last_seqno.max(krt.seqno);
                mem.add_range_tombstone(krt);
            }
            seg.records += 1;
            seg.valid_len = reader.offset();
        };
        torn = !matches!(seg.end, WalEnd::Clean);
        s.wals.push(seg);
    }

    for (&id, seg) in s.vlog.iter_mut() {
        if vlog_on_disk.contains(&id) {
            let data = fs.read_all(&vlog_path(dir, id))?;
            seg.file = Some(VlogFile {
                len: data.len() as u64,
                intact_len: acheron_vlog::scan_segment(&data).valid_len,
            });
        }
    }
    let newest_segment = vlog_on_disk.iter().chain(&s.vlog_dropped).max();
    s.vlog_next_segment = newest_segment.map_or(1, |newest| newest + 1);
    s.vlog_dropped.retain(|seg| vlog_referenced.contains(seg));

    // Whatever the recovered state does not reference: tables orphaned
    // by a crash between a manifest append and its physical deletes (or
    // mid-build), WAL segments below the log number or replayed without
    // a record (the open's new manifest names neither), every manifest
    // (the open writes a fresh one), temp-file debris from an interrupted
    // heal or CURRENT update, and vlog segments no surviving pointer
    // names. (Segments past a tear are not debris: see `Unreplayed`.)
    let empty = |n: u64| {
        (s.wals.iter())
            .any(|w| w.number == n && w.records == 0 && !matches!(w.end, WalEnd::Unreplayed))
    };
    for name in listing {
        let (kind, id) = match parse_file_name(&name) {
            FileKind::Table(id) if !s.files.contains_key(&id) => (GcKind::OrphanTable, id),
            FileKind::Wal(n) if n < s.log_number || empty(n) => (GcKind::DeadWal, n),
            FileKind::Manifest(n) => (GcKind::StaleManifest, n),
            FileKind::Vlog(seg) if !s.vlog.contains_key(&seg) => (GcKind::VlogSegment, seg),
            FileKind::Temp => (GcKind::TempFile, 0),
            _ => continue,
        };
        s.collect.push(Debris { kind, id, name });
    }
    Ok(Some(s))
}
