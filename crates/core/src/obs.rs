//! Engine flight recorder: structured event tracing and live
//! delete-persistence gauges.
//!
//! The engine's promise — bounded delete persistence — was previously
//! observable only *after the fact*, through the purge histogram in
//! [`crate::stats`]. This module makes the maintenance pipeline
//! visible while it runs:
//!
//! * [`EventLog`] is a lock-free, fixed-capacity ring of typed
//!   [`Event`]s (flushes, compaction picks with their trigger inputs,
//!   stalls, WAL group commits, recovery steps). Emission costs one
//!   atomic seqno allocation plus one slot write — no allocation, no
//!   lock — so the hooks stay on in production builds.
//! * [`TombstoneGauges`] aggregates per-level file/byte/tombstone
//!   counts and the per-file oldest-tombstone ticks from per-sstable
//!   metadata. It is recomputed at version-install time (the only
//!   moment the file set changes), so reading it is free and it can
//!   never drift from the installed tree.
//! * [`render_prometheus`] / [`render_events`] turn counters, gauges,
//!   and the ring into the text forms served by the `metrics` and
//!   `events` wire commands.
//!
//! # Ring-buffer consistency
//!
//! Writers never coordinate: `log` allocates a seqno with one
//! `fetch_add`, then writes the slot `seqno % capacity` under a
//! per-slot seqlock (`begin` stamp, release fence, payload words,
//! `end` stamp). A reader accepts a slot only when `begin == end ==
//! seqno + 1` re-reads consistently around the payload, so a slot
//! being overwritten mid-drain is *skipped* (counted as dropped), and
//! drains never block or delay writers. All payload fields are
//! atomics, so racing accesses are well-defined; the stamps only
//! guard logical consistency.

use std::fmt::{Display, Write};
use std::sync::atomic::{fence, AtomicU64, Ordering};

use acheron_types::Tick;

use crate::picker::CompactionReason;
use crate::version::Version;

pub mod trace;

use trace::{CohortStage, TraceOp, TraceStage};

/// A value that fits one ring-slot word: plain numbers, flags, and the
/// coded enums. `shown` is its form in `key=value` event text.
pub(crate) trait Word: Copy {
    /// What `key=value` text prints for the value.
    type Shown: std::fmt::Display;
    fn to_word(self) -> u64;
    /// `None` when `w` is not a code this type knows.
    fn from_word(w: u64) -> Option<Self>;
    fn shown(self) -> Self::Shown;
}

impl Word for u64 {
    type Shown = u64;
    fn to_word(self) -> u64 {
        self
    }
    fn from_word(w: u64) -> Option<u64> {
        Some(w)
    }
    fn shown(self) -> u64 {
        self
    }
}

impl Word for bool {
    type Shown = u64;
    fn to_word(self) -> u64 {
        u64::from(self)
    }
    fn from_word(w: u64) -> Option<bool> {
        Some(w != 0)
    }
    fn shown(self) -> u64 {
        u64::from(self)
    }
}

/// Declare an enum whose variants each carry a stable numeric code (the
/// ring-slot encoding) and a lowercase exposition name:
/// `Variant = code => "name",`. Generates the enum, `code`,
/// `from_code`, `name`, and the [`Word`] impl that lets an [`Event`]
/// field hold it.
macro_rules! coded_enum {
    (
        $(#[$meta:meta])*
        pub enum $Name:ident {
            $( $(#[$vmeta:meta])* $Variant:ident = $code:literal => $name:literal, )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $Name {
            $( $(#[$vmeta])* $Variant = $code, )*
        }

        impl $Name {
            /// Stable numeric code (event-ring slot encoding).
            pub fn code(self) -> u64 {
                self as u64
            }

            /// Inverse of [`Self::code`]; `None` for an unknown code.
            pub fn from_code(code: u64) -> Option<$Name> {
                match code {
                    $( $code => Some($Name::$Variant), )*
                    _ => None,
                }
            }

            /// Lowercase name for text exposition.
            pub fn name(self) -> &'static str {
                match self {
                    $( $Name::$Variant => $name, )*
                }
            }
        }

        impl $crate::obs::Word for $Name {
            type Shown = &'static str;
            fn to_word(self) -> u64 {
                self.code()
            }
            fn from_word(w: u64) -> Option<$Name> {
                $Name::from_code(w)
            }
            fn shown(self) -> &'static str {
                self.name()
            }
        }
    };
}
pub(crate) use coded_enum;

coded_enum! {
    /// A recovery milestone carried by [`Event::RecoveryStep`].
    pub enum RecoveryStepKind {
        /// The manifest chain was folded into a live file set.
        ManifestLoaded = 0 => "manifest_loaded",
        /// One WAL segment replayed cleanly (detail = records).
        WalSegmentReplayed = 1 => "wal_segment_replayed",
        /// A torn WAL tail was healed (detail = segment number).
        TornTailHealed = 2 => "torn_tail_healed",
        /// The compacted snapshot manifest was made durable.
        SnapshotManifestWritten = 3 => "snapshot_manifest_written",
        /// Recovery finished (detail = entries recovered into the buffer).
        Finished = 4 => "finished",
    }
}

coded_enum! {
    /// What kind of dead file recovery garbage-collected, carried by
    /// [`Event::GcDropped`].
    pub enum GcKind {
        /// A table file not referenced by the manifest.
        OrphanTable = 0 => "orphan_table",
        /// A WAL segment older than the manifest's log number.
        DeadWal = 1 => "dead_wal",
        /// A manifest superseded by the recovery snapshot.
        StaleManifest = 2 => "stale_manifest",
        /// Crash debris from an interrupted rename.
        TempFile = 3 => "temp_file",
        /// A value-log segment no surviving pointer references.
        VlogSegment = 4 => "vlog_segment",
    }
}

/// Ring-slot payload width: one tag word plus up to seven fields.
const WORDS: usize = 8;

/// The `key` of a field's `key=value` text: its name unless the table
/// row says `as "key"`.
macro_rules! field_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

/// Declare the event kinds: `Variant = tag => "name" { field: type, .. }`.
/// The tag is the ring slot's first word, the fields follow it in
/// declaration order (at most seven — a longer row panics in the
/// every-variant round-trip test), and every field type is a [`Word`].
/// Generates the enum with `name`, `describe`, `encode` and `decode`.
macro_rules! events {
    (
        $(#[$meta:meta])*
        pub enum Event {
            $(
                $(#[$vmeta:meta])*
                $Variant:ident = $tag:literal => $name:literal
                $({ $( $(#[$fmeta:meta])* $field:ident $(as $key:literal)? : $ty:ty, )* })?,
            )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Event {
            $( $(#[$vmeta])* $Variant $({ $( $(#[$fmeta])* $field: $ty, )* })?, )*
        }

        impl Event {
            /// Lowercase event-kind name for text exposition.
            pub fn name(&self) -> &'static str {
                match self {
                    $( Event::$Variant $({ $($field: _),* })? => $name, )*
                }
            }

            /// The event's fields as `key=value` text (allocates;
            /// exposition path only, never the hot path).
            pub fn describe(&self) -> String {
                let mut out = String::new();
                match *self {
                    $( Event::$Variant $({ $($field),* })? => {
                        $($(
                            let sep = if out.is_empty() { "" } else { " " };
                            let key = field_key!($field $($key)?);
                            let _ = write!(out, "{sep}{key}={}", Word::shown($field));
                        )*)?
                    } )*
                }
                out
            }

            fn encode(&self) -> [u64; WORDS] {
                let mut w = [0u64; WORDS];
                match *self {
                    $( Event::$Variant $({ $($field),* })? => {
                        w[0] = $tag;
                        let fields: &[u64] = &[$($( Word::to_word($field) ),*)?];
                        w[1..=fields.len()].copy_from_slice(fields);
                    } )*
                }
                w
            }

            fn decode(w: &[u64; WORDS]) -> Option<Event> {
                let mut fields = w[1..].iter().copied();
                Some(match w[0] {
                    $( $tag => Event::$Variant $({
                        $( $field: <$ty as Word>::from_word(fields.next()?)?, )*
                    })?, )*
                    _ => return None,
                })
            }
        }
    };
}

events! {
    /// One typed engine event. Every variant is `Copy` and carries only
    /// numeric fields, so logging never allocates and a whole event fits
    /// in one ring slot.
    pub enum Event {
        /// The active memtable was swapped out for flushing.
        MemtableSealed = 0 => "memtable_sealed" {
            /// Entries in the sealed memtable.
            entries: u64,
            /// Approximate bytes in the sealed memtable.
            bytes: u64,
            /// Sealed memtables now queued behind the flusher.
            sealed_behind: u64,
        },
        /// A sealed memtable starts flushing to an L0 table.
        FlushStart = 1 => "flush_start" {
            /// Entries about to be written.
            entries: u64,
        },
        /// A flush installed its L0 table.
        FlushEnd = 2 => "flush_end" {
            /// Id of the new table file.
            file_id as "file": u64,
            /// Size of the new table file.
            bytes: u64,
            /// Entries written.
            entries: u64,
            /// Wall time of build + install.
            micros: u64,
        },
        /// The picker scheduled a compaction. `overdue_by`/`deadline` are
        /// the FADE trigger inputs: how far past its cumulative TTL budget
        /// the driving tombstone is, and what that budget was (both zero
        /// for saturation-triggered picks or when FADE is off).
        CompactionPicked = 3 => "compaction_picked" {
            /// Input level.
            level: u64,
            /// Level the merged output lands in.
            output_level: u64,
            /// Number of input files (both levels).
            input_files: u64,
            /// Total input bytes.
            input_bytes: u64,
            /// Trigger that scheduled the task.
            reason: CompactionReason,
            /// Ticks past the TTL deadline (TTL picks only).
            overdue_by: Tick,
            /// The cumulative TTL budget at the input level (TTL picks only).
            deadline: Tick,
        },
        /// A compaction installed its outputs.
        CompactionEnd = 4 => "compaction_end" {
            /// Input level.
            level: u64,
            /// Output level.
            output_level: u64,
            /// Bytes read from input tables.
            bytes_in: u64,
            /// Bytes written to output tables.
            bytes_out: u64,
            /// Entries dropped (shadowed versions + range-deleted entries).
            entries_dropped: u64,
            /// Point tombstones purged (persisted deletes).
            tombstones_purged: u64,
            /// Wall time of merge + install.
            micros: u64,
        },
        /// Writers hit the stall threshold and block.
        StallEnter = 5 => "stall_enter" {
            /// L0 file count at entry.
            l0_files: u64,
            /// Sealed memtables queued at entry.
            sealed_memtables: u64,
        },
        /// The stall condition cleared.
        StallExit = 6 => "stall_exit" {
            /// How long the writer waited.
            waited_micros: u64,
        },
        /// Writers crossed the slowdown threshold and are being paced.
        SlowdownEnter = 7 => "slowdown_enter" {
            /// L0 file count at entry.
            l0_files: u64,
            /// Sealed memtables queued at entry.
            sealed_memtables: u64,
        },
        /// Write pressure dropped back below the slowdown threshold.
        SlowdownExit = 8 => "slowdown_exit",
        /// A recovery milestone (buffered during `Db::open`, visible once
        /// the engine is constructed).
        RecoveryStep = 9 => "recovery_step" {
            /// Which milestone.
            step: RecoveryStepKind,
            /// Step-specific detail (records replayed, segment number, …).
            detail: u64,
        },
        /// Recovery garbage-collected a dead file.
        GcDropped = 10 => "gc_dropped" {
            /// What kind of file.
            kind: GcKind,
            /// Its file/segment number (0 when unnumbered, e.g. temp files).
            id: u64,
        },
        /// A WAL commit group was appended (and possibly fsynced).
        WalGroupCommit = 11 => "wal_group_commit" {
            /// Operations in the group.
            ops: u64,
            /// Commits coalesced into the group.
            commits: u64,
            /// Whether this append fsynced the segment.
            synced: bool,
        },
        /// Value-log GC processed one segment: surviving values were
        /// re-appended to the head and the segment reclaimed (or retired
        /// pending snapshot drain, in which case `reclaimed_bytes` is 0).
        VlogGc = 12 => "vlog_gc" {
            /// The segment processed.
            segment: u64,
            /// Live frame bytes re-appended to the log head.
            rewritten_bytes: u64,
            /// Bytes freed by deleting the segment file.
            reclaimed_bytes: u64,
            /// Wall time of the pass.
            micros: u64,
        },
        /// One stage of a sampled per-op trace (see [`trace`]).
        TraceSpan = 13 => "trace_span" {
            /// Fleet-unique trace id.
            trace_id as "trace": u64,
            /// The traced operation.
            op: TraceOp,
            /// Which stage.
            stage: TraceStage,
            /// Stage value: wall micros for `_micros` stages, else a count.
            value: u64,
        },
        /// A tombstone cohort advanced a delete-lifecycle stage (see
        /// [`trace::DeleteLedger`]).
        CohortAdvanced = 14 => "cohort_advanced" {
            /// The cohort's flush epoch (shard-local).
            epoch: u64,
            /// Which lifecycle stage.
            stage: CohortStage,
            /// Output level for `entered_level` advances, else 0.
            level: u64,
            /// Member deletes in the cohort.
            tombstones: u64,
            /// Clock tick of the advance.
            tick: Tick,
        },
    }
}

/// An event plus the ring seqno it was logged under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StampedEvent {
    /// Position in the global emission order (0-based, dense).
    pub seqno: u64,
    /// The event payload.
    pub event: Event,
}

impl std::fmt::Display for StampedEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let args = self.event.describe();
        if args.is_empty() {
            write!(f, "#{:<6} {}", self.seqno, self.event.name())
        } else {
            write!(f, "#{:<6} {:<18} {}", self.seqno, self.event.name(), args)
        }
    }
}

/// A consistent view of the ring at one instant.
#[derive(Debug, Clone, Default)]
pub struct EventSnapshot {
    /// Retained events, ascending by seqno.
    pub events: Vec<StampedEvent>,
    /// Total events ever emitted (equals the next seqno).
    pub emitted: u64,
    /// Events emitted but no longer retrievable: overwritten by newer
    /// events, or mid-overwrite while this snapshot was taken.
    pub dropped: u64,
}

/// One ring slot: a seqlock (`begin`/`end` stamps hold `seqno + 1`)
/// around an atomic word payload.
struct Slot {
    begin: AtomicU64,
    end: AtomicU64,
    words: [AtomicU64; WORDS],
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            begin: AtomicU64::new(0),
            end: AtomicU64::new(0),
            words: Default::default(),
        }
    }
}

/// Lock-free fixed-capacity event ring. See the module docs for the
/// consistency argument.
pub struct EventLog {
    slots: Vec<Slot>,
    next: AtomicU64,
}

impl EventLog {
    /// A ring retaining the newest `capacity` events (min 1).
    pub fn new(capacity: usize) -> EventLog {
        let capacity = capacity.max(1);
        EventLog {
            slots: (0..capacity).map(|_| Slot::empty()).collect(),
            next: AtomicU64::new(0),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever emitted.
    pub fn emitted(&self) -> u64 {
        self.next.load(Ordering::Acquire)
    }

    /// Record one event; returns its seqno. Wait-free except for the
    /// single `fetch_add`: no lock, no allocation, one slot write.
    pub fn log(&self, event: Event) -> u64 {
        let seqno = self.next.fetch_add(1, Ordering::AcqRel);
        let slot = &self.slots[(seqno % self.slots.len() as u64) as usize];
        // Seqlock write: stamp `begin` first so a concurrent reader
        // can tell the payload is in flux, then the payload, then
        // `end` (release) to publish.
        slot.begin.store(seqno + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        for (w, v) in slot.words.iter().zip(event.encode()) {
            w.store(v, Ordering::Relaxed);
        }
        slot.end.store(seqno + 1, Ordering::Release);
        seqno
    }

    /// Snapshot the retained window without blocking writers. Slots
    /// being overwritten during the drain are skipped and counted in
    /// [`EventSnapshot::dropped`].
    pub fn snapshot(&self) -> EventSnapshot {
        let head = self.next.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let first = head.saturating_sub(cap);
        let mut events = Vec::with_capacity((head - first) as usize);
        for seqno in first..head {
            let slot = &self.slots[(seqno % cap) as usize];
            // Seqlock read: `end` (acquire), payload, fence, `begin`;
            // accept only when both stamps match this seqno.
            let end = slot.end.load(Ordering::Acquire);
            if end != seqno + 1 {
                continue;
            }
            let mut words = [0u64; WORDS];
            for (v, w) in words.iter_mut().zip(slot.words.iter()) {
                *v = w.load(Ordering::Relaxed);
            }
            fence(Ordering::Acquire);
            if slot.begin.load(Ordering::Relaxed) != seqno + 1 {
                continue;
            }
            if let Some(event) = Event::decode(&words) {
                events.push(StampedEvent { seqno, event });
            }
        }
        let dropped = head - events.len() as u64;
        EventSnapshot {
            events,
            emitted: head,
            dropped,
        }
    }
}

/// The older of two optional birth ticks (`None` = nothing live).
pub(crate) fn min_tick(a: Option<Tick>, b: Option<Tick>) -> Option<Tick> {
    a.into_iter().chain(b).min()
}

/// Per-level occupancy and tombstone-population gauge.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LevelGauge {
    /// LSM level.
    pub level: usize,
    /// Live files at the level.
    pub files: u64,
    /// Total bytes at the level.
    pub bytes: u64,
    /// Total entries at the level.
    pub entries: u64,
    /// Live point tombstones at the level.
    pub tombstones: u64,
    /// Birth tick of the oldest still-live tombstone at the level.
    pub oldest_tombstone_tick: Option<Tick>,
    /// Live sort-key range tombstones carried by files at the level.
    pub key_range_tombstones: u64,
    /// Birth tick of the oldest still-live sort-key range tombstone.
    pub oldest_key_range_tick: Option<Tick>,
}

/// Live delete-persistence gauges: the paper's headline metric made
/// observable *before* purge. Disk-level state is recomputed from
/// per-sstable metadata whenever a version installs; the write-buffer
/// fields are filled from live memtable stats when the gauge is read
/// (buffer contents change without a version install).
#[derive(Debug, Clone, Default)]
pub struct TombstoneGauges {
    /// One gauge per occupied level (empty levels omitted).
    pub levels: Vec<LevelGauge>,
    /// Live point tombstones in the active + sealed memtables.
    pub buffer_tombstones: u64,
    /// Birth tick of the oldest buffered tombstone.
    pub buffer_oldest_tick: Option<Tick>,
    /// Live sort-key range tombstones in the active + sealed memtables.
    pub buffer_key_range_tombstones: u64,
    /// Birth tick of the oldest buffered sort-key range tombstone.
    pub buffer_oldest_key_range_tick: Option<Tick>,
    /// Live secondary range tombstones.
    pub range_tombstones: u64,
    /// Per-file `(tombstone_count, oldest tick)` pairs feeding the age
    /// histogram — every tombstone in a file is binned at the file's
    /// *oldest* tombstone age (per-sstable metadata has no finer
    /// resolution), a conservative over-estimate of ages.
    pub file_populations: Vec<(u64, Tick)>,
    /// Value-log bytes still referenced by the tree. Filled from the
    /// vlog accounting when the gauge is read (the vlog changes without
    /// a version install).
    pub vlog_live_bytes: u64,
    /// Value-log bytes whose covering put/delete has been purged and
    /// that now await GC.
    pub vlog_dead_bytes: u64,
    /// Stamp tick of the oldest dead value-log extent — the vlog
    /// counterpart of the oldest live tombstone: its age bounds how far
    /// deleted value bytes have outlived their delete.
    pub vlog_oldest_dead_tick: Option<Tick>,
}

impl TombstoneGauges {
    /// Aggregate the disk-level gauges from a version's file metadata.
    /// `O(files)`; called at version-install time.
    pub fn from_version(version: &Version) -> TombstoneGauges {
        let mut levels = Vec::new();
        let mut file_populations = Vec::new();
        for (level, files) in version.levels.iter().enumerate() {
            if files.is_empty() {
                continue;
            }
            let mut g = LevelGauge {
                level,
                ..LevelGauge::default()
            };
            for f in files {
                g.files += 1;
                g.bytes += f.size_bytes;
                g.entries += f.stats.entry_count;
                g.tombstones += f.stats.tombstone_count;
                if let Some(t0) = f.stats.oldest_tombstone_tick {
                    g.oldest_tombstone_tick = min_tick(g.oldest_tombstone_tick, Some(t0));
                    if f.stats.tombstone_count > 0 {
                        file_populations.push((f.stats.tombstone_count, t0));
                    }
                }
                let krts = f.stats.range_tombstones.len() as u64;
                if krts > 0 {
                    g.key_range_tombstones += krts;
                    if let Some(t0) = f.stats.oldest_range_tombstone_tick() {
                        g.oldest_key_range_tick = min_tick(g.oldest_key_range_tick, Some(t0));
                        file_populations.push((krts, t0));
                    }
                }
            }
            levels.push(g);
        }
        TombstoneGauges {
            levels,
            range_tombstones: version.range_tombstones.len() as u64,
            file_populations,
            ..TombstoneGauges::default()
        }
    }

    /// Total live point tombstones (disk + buffer).
    pub fn live_tombstones(&self) -> u64 {
        self.levels.iter().map(|g| g.tombstones).sum::<u64>() + self.buffer_tombstones
    }

    /// Total live sort-key range tombstones (disk + buffer).
    pub fn live_key_range_tombstones(&self) -> u64 {
        self.levels
            .iter()
            .map(|g| g.key_range_tombstones)
            .sum::<u64>()
            + self.buffer_key_range_tombstones
    }

    /// Birth tick of the oldest live tombstone anywhere — point or
    /// sort-key range, disk or buffer. FADE bounds both flavors by the
    /// same `D_th`, so "oldest unresolved delete" folds them together.
    pub fn oldest_live_tick(&self) -> Option<Tick> {
        self.levels
            .iter()
            .flat_map(|g| [g.oldest_tombstone_tick, g.oldest_key_range_tick])
            .flatten()
            .chain(self.buffer_oldest_tick)
            .chain(self.buffer_oldest_key_range_tick)
            .min()
    }

    /// Birth tick of the oldest live sort-key range tombstone anywhere.
    pub fn oldest_live_key_range_tick(&self) -> Option<Tick> {
        self.levels
            .iter()
            .filter_map(|g| g.oldest_key_range_tick)
            .chain(self.buffer_oldest_key_range_tick)
            .min()
    }

    /// Combine the gauges of two engines (shards) into a fleet-wide
    /// view: per-level counts sum, oldest ticks take the minimum (the
    /// fleet's oldest tombstone is the oldest anywhere), and the
    /// per-file populations concatenate so the merged age histogram
    /// covers every shard's files.
    pub fn merge(&self, other: &TombstoneGauges) -> TombstoneGauges {
        let mut by_level: std::collections::BTreeMap<usize, LevelGauge> =
            std::collections::BTreeMap::new();
        for g in self.levels.iter().chain(&other.levels) {
            let m = by_level.entry(g.level).or_insert_with(|| LevelGauge {
                level: g.level,
                ..LevelGauge::default()
            });
            m.files += g.files;
            m.bytes += g.bytes;
            m.entries += g.entries;
            m.tombstones += g.tombstones;
            m.oldest_tombstone_tick = min_tick(m.oldest_tombstone_tick, g.oldest_tombstone_tick);
            m.key_range_tombstones += g.key_range_tombstones;
            m.oldest_key_range_tick = min_tick(m.oldest_key_range_tick, g.oldest_key_range_tick);
        }
        let mut file_populations = self.file_populations.clone();
        file_populations.extend_from_slice(&other.file_populations);
        TombstoneGauges {
            levels: by_level.into_values().collect(),
            buffer_tombstones: self.buffer_tombstones + other.buffer_tombstones,
            buffer_oldest_tick: min_tick(self.buffer_oldest_tick, other.buffer_oldest_tick),
            buffer_key_range_tombstones: self.buffer_key_range_tombstones
                + other.buffer_key_range_tombstones,
            buffer_oldest_key_range_tick: min_tick(
                self.buffer_oldest_key_range_tick,
                other.buffer_oldest_key_range_tick,
            ),
            range_tombstones: self.range_tombstones + other.range_tombstones,
            file_populations,
            vlog_live_bytes: self.vlog_live_bytes + other.vlog_live_bytes,
            vlog_dead_bytes: self.vlog_dead_bytes + other.vlog_dead_bytes,
            vlog_oldest_dead_tick: min_tick(
                self.vlog_oldest_dead_tick,
                other.vlog_oldest_dead_tick,
            ),
        }
    }

    /// Histogram of still-live tombstone ages at `now`. With a FADE
    /// threshold the bucket bounds are fractions of `d_th` (so the
    /// overflow bucket *is* the threshold-violation population);
    /// without one they are powers of two.
    pub fn age_histogram(&self, now: Tick, d_th: Option<Tick>) -> AgeHistogram {
        let populations = self
            .file_populations
            .iter()
            .copied()
            .chain(
                self.buffer_oldest_tick
                    .map(|t0| (self.buffer_tombstones, t0)),
            )
            .chain(
                self.buffer_oldest_key_range_tick
                    .map(|t0| (self.buffer_key_range_tombstones, t0)),
            )
            .filter(|(count, _)| *count > 0);
        let mut ages: Vec<(u64, Tick)> = populations
            .map(|(count, t0)| (count, now.saturating_sub(t0)))
            .collect();
        ages.sort_by_key(|&(_, age)| age);
        let oldest_age = ages.last().map(|&(_, age)| age);
        let bounds: Vec<Tick> = match d_th {
            Some(d) if d > 0 => vec![d / 8, d / 4, d / 2, d * 3 / 4, d],
            _ => {
                let max_age = oldest_age.unwrap_or(0);
                let mut b = Vec::new();
                let mut bound: Tick = 1;
                while bound < max_age && b.len() < 16 {
                    b.push(bound);
                    bound = bound.saturating_mul(4);
                }
                b.push(bound.max(max_age));
                b
            }
        };
        // Cumulative (Prometheus `le`) counts.
        let total: u64 = ages.iter().map(|&(c, _)| c).sum();
        let counts: Vec<u64> = bounds
            .iter()
            .map(|&le| {
                ages.iter()
                    .filter(|&&(_, age)| age <= le)
                    .map(|&(c, _)| c)
                    .sum()
            })
            .collect();
        AgeHistogram {
            bounds,
            counts,
            total,
            oldest_age,
            d_th,
        }
    }
}

/// Cumulative histogram of live tombstone ages (Prometheus bucket
/// semantics: `counts[i]` = tombstones with age `<= bounds[i]`; the
/// implicit `+Inf` bucket is `total`).
#[derive(Debug, Clone, Default)]
pub struct AgeHistogram {
    /// Upper bucket bounds, ascending, in ticks.
    pub bounds: Vec<Tick>,
    /// Cumulative count at each bound.
    pub counts: Vec<u64>,
    /// Total live tombstones observed.
    pub total: u64,
    /// Age of the oldest live tombstone, if any.
    pub oldest_age: Option<Tick>,
    /// The FADE threshold the bounds were derived from, if any.
    pub d_th: Option<Tick>,
}

/// Prometheus text-exposition writer. A caller names a sample's family
/// and the writer stamps the family's `# TYPE` line before its first
/// sample, so no family can be emitted without one.
#[derive(Default)]
pub struct Exposition {
    out: String,
    typed: std::collections::BTreeSet<String>,
}

impl Exposition {
    /// One gauge sample: `family value`, or `family{label="v"} value`.
    pub fn gauge(&mut self, family: &str, label: Option<(&str, &dyn Display)>, value: u64) {
        self.sample(family, "gauge", "", label, value);
    }

    fn sample(
        &mut self,
        family: &str,
        kind: &str,
        suffix: &str,
        label: Option<(&str, &dyn Display)>,
        value: u64,
    ) {
        if self.typed.insert(family.to_string()) {
            let _ = writeln!(self.out, "# TYPE {family} {kind}");
        }
        let _ = match label {
            Some((key, v)) => writeln!(self.out, "{family}{suffix}{{{key}=\"{v}\"}} {value}"),
            None => writeln!(self.out, "{family}{suffix} {value}"),
        };
    }

    /// The exposition text written so far.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Render counters plus the delete-persistence gauges as Prometheus
/// text exposition (`name{label} value` lines). `pairs` is any flat
/// counter list (`StatsSnapshot::to_pairs`, server metrics, pressure
/// gauges); the tombstone gauges and age histogram are rendered with
/// per-level / per-bucket labels. Flat counters are exposed as gauges
/// because a scrape reports their point-in-time value; a `None` row is
/// a series with nothing to report (no tombstone live, `D_th` unset).
pub fn render_prometheus(
    pairs: &[(String, u64)],
    gauges: &TombstoneGauges,
    now: Tick,
    d_th: Option<Tick>,
) -> String {
    let mut x = Exposition::default();
    let age = |t0: Tick| now.saturating_sub(t0);
    for (name, value) in pairs {
        x.gauge(name, None, *value);
    }
    x.gauge("db_clock_tick", None, now);
    if let Some(d) = d_th {
        x.gauge("db_delete_persistence_threshold_ticks", None, d);
    }
    for g in &gauges.levels {
        let krts = g.key_range_tombstones;
        for (family, value) in [
            ("db_level_files", Some(g.files)),
            ("db_level_bytes", Some(g.bytes)),
            ("db_level_entries", Some(g.entries)),
            ("db_level_tombstones", Some(g.tombstones)),
            (
                "db_level_oldest_tombstone_age_ticks",
                g.oldest_tombstone_tick.map(age),
            ),
            ("db_level_key_range_tombstones", (krts > 0).then_some(krts)),
            (
                "db_level_oldest_key_range_tombstone_age_ticks",
                g.oldest_key_range_tick.map(age),
            ),
        ] {
            if let Some(v) = value {
                x.gauge(family, Some(("level", &g.level)), v);
            }
        }
    }
    for (family, value) in [
        ("db_buffer_tombstones", Some(gauges.buffer_tombstones)),
        ("db_live_range_tombstones", Some(gauges.range_tombstones)),
        (
            "db_buffer_key_range_tombstones",
            Some(gauges.buffer_key_range_tombstones),
        ),
        (
            "db_live_key_range_tombstones",
            Some(gauges.live_key_range_tombstones()),
        ),
        (
            "db_key_range_tombstone_oldest_age_ticks",
            gauges.oldest_live_key_range_tick().map(age),
        ),
        ("db_live_tombstones", Some(gauges.live_tombstones())),
        ("db_vlog_live_bytes", Some(gauges.vlog_live_bytes)),
        ("db_vlog_dead_bytes", Some(gauges.vlog_dead_bytes)),
        (
            "db_vlog_oldest_dead_extent_age_ticks",
            gauges.vlog_oldest_dead_tick.map(age),
        ),
    ] {
        if let Some(v) = value {
            x.gauge(family, None, v);
        }
    }
    let hist = gauges.age_histogram(now, d_th);
    let family = "db_tombstone_age_ticks";
    for (le, count) in hist.bounds.iter().zip(&hist.counts) {
        x.sample(family, "histogram", "_bucket", Some(("le", le)), *count);
    }
    x.sample(
        family,
        "histogram",
        "_bucket",
        Some(("le", &"+Inf")),
        hist.total,
    );
    x.sample(family, "histogram", "_count", None, hist.total);
    if let Some(oldest) = hist.oldest_age {
        x.gauge("db_tombstone_age_ticks_max", None, oldest);
    }
    x.finish()
}

/// Render an event snapshot as one line per event, oldest first, with
/// a drop summary header.
pub fn render_events(snap: &EventSnapshot) -> String {
    let mut out = format!(
        "# {} events emitted, {} retained, {} dropped (ring overwrote oldest)\n",
        snap.emitted,
        snap.events.len(),
        snap.dropped
    );
    for ev in &snap.events {
        out.push_str(&format!("{ev}\n"));
    }
    out
}

/// Render per-shard event snapshots side by side (each shard's ring is
/// independent — seqnos are shard-local, so the shards are sectioned,
/// not interleaved).
pub fn render_sharded_events(shards: &[EventSnapshot]) -> String {
    let mut out = String::new();
    for (i, snap) in shards.iter().enumerate() {
        out.push_str(&format!("== shard {i} ==\n"));
        out.push_str(&render_events(snap));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One instance of every variant, taken from the decoder itself: a
    /// fixed word pattern per tag (the codes at each position are valid
    /// for every coded field that can sit there) until the tags run out.
    fn every_variant() -> Vec<Event> {
        (0..)
            .map_while(|tag| Event::decode(&[tag, 4, 2, 9, 11, 3, 6, 7]))
            .collect()
    }

    /// Golden pin (len + CRC32C) of the raw ring words and of the
    /// `events` text over every variant, recorded before the event and
    /// code tables existed; see `tests/golden.rs` for the method.
    #[test]
    fn golden_ring_words_and_event_text() {
        use acheron_types::checksum::crc32c;
        let log = EventLog::new(64);
        let mut words = Vec::new();
        for ev in every_variant() {
            words.extend(ev.encode().iter().flat_map(|w| w.to_le_bytes()));
            log.log(ev);
        }
        assert_eq!((words.len(), crc32c(&words)), (960, 0x7399_92f4));
        let text = render_events(&log.snapshot());
        assert_eq!(
            (text.len(), crc32c(text.as_bytes())),
            (1032, 0xd450_f2ce),
            "{text}"
        );
    }

    /// Every variant the event table declares survives the ring
    /// encoding, and a word no row knows — an unknown tag, an unknown
    /// code in a coded field — decodes to `None`, never to another event.
    #[test]
    fn every_variant_round_trips_and_unknown_words_decode_to_none() {
        let events = every_variant();
        assert_eq!(events.len(), 15, "one sample per table row");
        assert_eq!(
            Event::decode(&[events.len() as u64, 0, 0, 0, 0, 0, 0, 0]),
            None
        );
        let mut rejected = 0;
        for ev in events {
            let words = ev.encode();
            assert_eq!(Event::decode(&words), Some(ev), "{}", ev.name());
            // Poison one word at a time: a coded field rejects the
            // unknown code, any other word yields an event that is
            // itself stable under the encoding.
            for i in 1..WORDS {
                let mut poisoned = words;
                poisoned[i] = u64::MAX;
                match Event::decode(&poisoned) {
                    Some(got) => assert_eq!(Event::decode(&got.encode()), Some(got)),
                    None => rejected += 1,
                }
            }
        }
        assert_eq!(rejected, 6, "one per coded field in the table");
    }

    fn codes_round_trip<T: Word + PartialEq + std::fmt::Debug>(variants: u64) {
        let mut names = std::collections::BTreeSet::new();
        for code in 0..variants {
            let v = T::from_word(code).unwrap();
            assert_eq!(v.to_word(), code);
            assert!(names.insert(v.shown().to_string()), "{v:?} reuses a name");
        }
        assert_eq!(T::from_word(variants), None);
        assert_eq!(T::from_word(u64::MAX), None);
    }

    #[test]
    fn coded_enums_round_trip_and_reject_unknown_codes() {
        codes_round_trip::<TraceOp>(4);
        codes_round_trip::<TraceStage>(17);
        codes_round_trip::<CohortStage>(5);
        codes_round_trip::<RecoveryStepKind>(5);
        codes_round_trip::<GcKind>(5);
        codes_round_trip::<CompactionReason>(4);
    }

    #[test]
    fn log_and_snapshot_preserve_order_and_payload() {
        let log = EventLog::new(64);
        for ev in every_variant() {
            log.log(ev);
        }
        let snap = log.snapshot();
        assert_eq!(snap.emitted, every_variant().len() as u64);
        assert_eq!(snap.dropped, 0);
        let got: Vec<Event> = snap.events.iter().map(|s| s.event).collect();
        assert_eq!(got, every_variant());
        for (i, s) in snap.events.iter().enumerate() {
            assert_eq!(s.seqno, i as u64);
        }
    }

    #[test]
    fn overwrite_keeps_newest_and_counts_dropped() {
        let log = EventLog::new(4);
        for i in 0..10u64 {
            log.log(Event::FlushStart { entries: i });
        }
        let snap = log.snapshot();
        assert_eq!(snap.emitted, 10);
        assert_eq!(snap.events.len(), 4);
        assert_eq!(snap.dropped, 6);
        let entries: Vec<u64> = snap
            .events
            .iter()
            .map(|s| match s.event {
                Event::FlushStart { entries } => entries,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(entries, vec![6, 7, 8, 9], "newest N survive");
    }

    #[test]
    fn one_slot_ring_still_functions() {
        let log = EventLog::new(1);
        for i in 0..5u64 {
            log.log(Event::FlushStart { entries: i });
        }
        let snap = log.snapshot();
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.dropped, 4);
        assert_eq!(snap.events[0].seqno, 4);
    }

    #[test]
    fn concurrent_writers_never_produce_torn_events() {
        use std::sync::Arc;
        let log = Arc::new(EventLog::new(128));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                for i in 0..5_000u64 {
                    // Payload fields carry a per-writer signature so a
                    // torn slot (fields from two writers) is detectable.
                    log.log(Event::CompactionEnd {
                        level: t,
                        output_level: t,
                        bytes_in: t * 1_000_000 + i,
                        bytes_out: t * 1_000_000 + i,
                        entries_dropped: t,
                        tombstones_purged: t,
                        micros: i,
                    });
                }
            }));
        }
        for _ in 0..50 {
            for s in log.snapshot().events {
                if let Event::CompactionEnd {
                    level,
                    output_level,
                    bytes_in,
                    bytes_out,
                    entries_dropped,
                    tombstones_purged,
                    micros,
                } = s.event
                {
                    assert_eq!(level, output_level);
                    assert_eq!(level, entries_dropped);
                    assert_eq!(level, tombstones_purged);
                    assert_eq!(bytes_in, bytes_out);
                    assert_eq!(bytes_in, level * 1_000_000 + micros);
                } else {
                    panic!("unexpected event {:?}", s.event);
                }
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = log.snapshot();
        assert_eq!(snap.emitted, 20_000);
        // After quiescence the full window is readable.
        assert_eq!(snap.events.len(), 128);
    }

    #[test]
    fn age_histogram_buckets_against_threshold() {
        let g = TombstoneGauges {
            // (count, birth tick): ages at now=1000 are 900, 400, 100.
            file_populations: vec![(2, 100), (3, 600), (5, 900)],
            ..TombstoneGauges::default()
        };
        let h = g.age_histogram(1_000, Some(800));
        assert_eq!(h.bounds, vec![100, 200, 400, 600, 800]);
        assert_eq!(h.total, 10);
        assert_eq!(h.oldest_age, Some(900));
        // Cumulative: age<=100 → 5; <=400 → 8; <=800 → 8; overflow 2.
        assert_eq!(h.counts, vec![5, 5, 8, 8, 8]);
        assert_eq!(h.total - h.counts[4], 2, "threshold violators overflow");
    }

    #[test]
    fn gauge_merge_sums_counts_and_keeps_oldest_ticks() {
        let a = TombstoneGauges {
            levels: vec![
                LevelGauge {
                    level: 0,
                    files: 1,
                    bytes: 100,
                    entries: 10,
                    tombstones: 2,
                    oldest_tombstone_tick: Some(40),
                    key_range_tombstones: 1,
                    oldest_key_range_tick: Some(30),
                },
                LevelGauge {
                    level: 2,
                    files: 2,
                    bytes: 200,
                    entries: 20,
                    tombstones: 3,
                    oldest_tombstone_tick: None,
                    key_range_tombstones: 0,
                    oldest_key_range_tick: None,
                },
            ],
            buffer_tombstones: 1,
            buffer_oldest_tick: Some(95),
            buffer_key_range_tombstones: 2,
            buffer_oldest_key_range_tick: Some(60),
            range_tombstones: 1,
            file_populations: vec![(2, 40)],
            vlog_live_bytes: 100,
            vlog_dead_bytes: 20,
            vlog_oldest_dead_tick: Some(33),
        };
        let b = TombstoneGauges {
            levels: vec![LevelGauge {
                level: 0,
                files: 1,
                bytes: 50,
                entries: 5,
                tombstones: 4,
                oldest_tombstone_tick: Some(10),
                key_range_tombstones: 3,
                oldest_key_range_tick: Some(5),
            }],
            buffer_tombstones: 2,
            buffer_oldest_tick: None,
            buffer_key_range_tombstones: 0,
            buffer_oldest_key_range_tick: None,
            range_tombstones: 3,
            file_populations: vec![(4, 10)],
            vlog_live_bytes: 50,
            vlog_dead_bytes: 5,
            vlog_oldest_dead_tick: Some(12),
        };
        let m = a.merge(&b);
        assert_eq!(m.levels.len(), 2);
        let l0 = &m.levels[0];
        assert_eq!(
            (l0.level, l0.files, l0.bytes, l0.tombstones),
            (0, 2, 150, 6)
        );
        assert_eq!(l0.oldest_tombstone_tick, Some(10), "min of the shards");
        assert_eq!(l0.key_range_tombstones, 4);
        assert_eq!(l0.oldest_key_range_tick, Some(5));
        assert_eq!(m.levels[1].level, 2);
        assert_eq!(m.buffer_tombstones, 3);
        assert_eq!(m.buffer_oldest_tick, Some(95));
        assert_eq!(m.buffer_key_range_tombstones, 2);
        assert_eq!(m.buffer_oldest_key_range_tick, Some(60));
        assert_eq!(m.range_tombstones, 4);
        assert_eq!(
            m.live_key_range_tombstones(),
            a.live_key_range_tombstones() + b.live_key_range_tombstones()
        );
        assert_eq!(m.oldest_live_key_range_tick(), Some(5));
        assert_eq!(
            m.live_tombstones(),
            a.live_tombstones() + b.live_tombstones()
        );
        assert_eq!(m.oldest_live_tick(), Some(5), "range tick is oldest");
        assert_eq!(m.vlog_live_bytes, 150);
        assert_eq!(m.vlog_dead_bytes, 25);
        assert_eq!(m.vlog_oldest_dead_tick, Some(12), "min of the shards");
        // The merged age histogram sees every shard's files plus both
        // buffered populations (point and sort-key range).
        assert_eq!(m.age_histogram(100, None).total, 11);
    }

    #[test]
    fn sharded_event_rendering_sections_per_shard() {
        let log = EventLog::new(8);
        log.log(Event::FlushStart { entries: 3 });
        let text = render_sharded_events(&[log.snapshot(), EventSnapshot::default()]);
        assert!(text.contains("== shard 0 =="), "{text}");
        assert!(text.contains("== shard 1 =="), "{text}");
        assert!(text.contains("flush_start"), "{text}");
    }

    #[test]
    fn prometheus_rendering_includes_gauges_and_histogram() {
        let g = TombstoneGauges {
            levels: vec![LevelGauge {
                level: 2,
                files: 3,
                bytes: 4096,
                entries: 100,
                tombstones: 7,
                oldest_tombstone_tick: Some(50),
                key_range_tombstones: 2,
                oldest_key_range_tick: Some(40),
            }],
            buffer_tombstones: 1,
            buffer_oldest_tick: Some(90),
            buffer_key_range_tombstones: 1,
            buffer_oldest_key_range_tick: Some(70),
            range_tombstones: 2,
            file_populations: vec![(7, 50)],
            vlog_live_bytes: 1234,
            vlog_dead_bytes: 56,
            vlog_oldest_dead_tick: Some(80),
        };
        let text = render_prometheus(&[("puts".into(), 42)], &g, 100, Some(1_000));
        assert!(text.contains("puts 42\n"), "{text}");
        assert!(
            text.contains("db_level_tombstones{level=\"2\"} 7"),
            "{text}"
        );
        assert!(
            text.contains("db_level_oldest_tombstone_age_ticks{level=\"2\"} 50"),
            "{text}"
        );
        assert!(text.contains("db_live_tombstones 8"), "{text}");
        assert!(
            text.contains("db_level_key_range_tombstones{level=\"2\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("db_level_oldest_key_range_tombstone_age_ticks{level=\"2\"} 60"),
            "{text}"
        );
        assert!(text.contains("db_buffer_key_range_tombstones 1"), "{text}");
        assert!(text.contains("db_live_key_range_tombstones 3"), "{text}");
        assert!(
            text.contains("db_key_range_tombstone_oldest_age_ticks 60"),
            "{text}"
        );
        assert!(
            text.contains("db_tombstone_age_ticks_bucket{le=\"+Inf\"} 9"),
            "{text}"
        );
        assert!(text.contains("db_vlog_live_bytes 1234"), "{text}");
        assert!(text.contains("db_vlog_dead_bytes 56"), "{text}");
        assert!(
            text.contains("db_vlog_oldest_dead_extent_age_ticks 20"),
            "{text}"
        );
        assert!(text.contains("db_delete_persistence_threshold_ticks 1000"));
    }
}
