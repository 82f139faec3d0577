//! Engine flight recorder: structured event tracing and live
//! delete-persistence gauges.
//!
//! The engine's promise — bounded delete persistence — was previously
//! observable only *after the fact*, through the purge histogram in
//! [`crate::stats`]. This module makes the maintenance pipeline
//! visible while it runs:
//!
//! * [`EventLog`] is a fixed-capacity ring of typed [`Event`]s
//!   (flushes, compaction picks with their trigger inputs, stalls, WAL
//!   group commits, recovery steps, budget overruns, and the spans of
//!   traced ops: the only record of a trace). Emission takes one lock
//!   and copies one event into memory allocated when the ring was made
//!   — no allocation — so the hooks stay on in production builds.
//! * [`TombstoneGauges`] aggregates per-level file/byte/tombstone
//!   counts and the per-file oldest-tombstone ticks from per-sstable
//!   metadata, plus the write buffers and value log. It is built from
//!   one read view when it is read (`O(files)` over metadata), so no
//!   family can drift from the others or from the tree.
//! * [`render_prometheus`] / [`render_events`] turn counters, gauges,
//!   and the ring into the text forms served by the `metrics` and
//!   `events` wire commands.
//!
//! # The ring's lock
//!
//! One mutex guards the retained events and the emission count. `log`
//! takes it, drops the oldest event when the ring is full, appends the
//! new one and numbers it; `log_all` does the same for several events
//! under one taking, so a trace's spans stay adjacent; `snapshot`
//! copies the window under it. So a seqno is an event's position in the
//! order the lock was taken, every snapshot is a dense suffix of that
//! order, and `dropped` counts only overwritten events. The lock is a
//! leaf: nothing is called while it is held but the iterator `log_all`
//! drains, which only builds events. One lock suffices because the ring
//! has one steady emitter per engine: in a delete-heavy run 97% of
//! events are `WalGroupCommit`, logged by the commit leader while it
//! holds the commit exclusion, and the rest come from maintenance
//! steps, about one event per write in all. An uncontended log costs
//! about 25–30 ns on a 2-vCPU host, less than the lock-free seqlock
//! ring it replaced (E40).

use std::collections::VecDeque;
use std::fmt::{Display, Write};

use acheron_memtable::MemtableStats;
use acheron_types::Tick;
use parking_lot::Mutex;

use crate::picker::CompactionReason;
use crate::version::Version;

pub mod trace;

use trace::{OpTrace, TraceOp, TraceStage};

/// A value an [`Event`] field holds: plain numbers, flags, and the
/// coded enums. `shown` is its form in `key=value` event text.
pub(crate) trait Field: Copy {
    /// What `key=value` text prints for the value.
    type Shown: std::fmt::Display;
    fn shown(self) -> Self::Shown;
}

impl Field for u64 {
    type Shown = u64;
    fn shown(self) -> u64 {
        self
    }
}

impl Field for bool {
    type Shown = u64;
    fn shown(self) -> u64 {
        u64::from(self)
    }
}

/// Declare an enum whose variants each carry a stable numeric code
/// and a lowercase exposition name: `Variant = code => "name",`.
/// Generates the enum, `code`, `name`, and the [`Field`] impl that lets
/// an [`Event`] field hold it.
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
            /// Stable numeric code (what schedule digests record).
            pub fn code(self) -> u64 {
                self as u64
            }

            /// Lowercase name for text exposition.
            pub fn name(self) -> &'static str {
                match self {
                    $( $Name::$Variant => $name, )*
                }
            }

            /// Every variant, in table order.
            #[cfg(test)]
            pub(crate) const ALL: &'static [$Name] = &[$( $Name::$Variant, )*];
        }

        impl $crate::obs::Field for $Name {
            type Shown = &'static str;
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

/// Declare the event kinds: `Variant => "name" { field: type, .. }`.
/// Every field type is a [`Field`]. Generates the enum with `name` and
/// `describe`.
macro_rules! events {
    (
        $(#[$meta:meta])*
        pub enum Event {
            $(
                $(#[$vmeta:meta])*
                $Variant:ident => $name:literal
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
                            let _ = write!(out, "{sep}{key}={}", Field::shown($field));
                        )*)?
                    } )*
                }
                out
            }
        }
    };
}

events! {
    /// One typed engine event. Every variant is `Copy` and carries only
    /// numeric fields, so logging never allocates.
    pub enum Event {
        /// The active memtable was swapped out for flushing.
        MemtableSealed => "memtable_sealed" {
            /// Entries in the sealed memtable.
            entries: u64,
            /// Approximate bytes in the sealed memtable.
            bytes: u64,
            /// Sealed memtables now queued behind the flusher.
            sealed_behind: u64,
        },
        /// A sealed memtable starts flushing to an L0 table.
        FlushStart => "flush_start" {
            /// Entries about to be written.
            entries: u64,
        },
        /// A flush installed its L0 table.
        FlushEnd => "flush_end" {
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
        CompactionPicked => "compaction_picked" {
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
        CompactionEnd => "compaction_end" {
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
        StallEnter => "stall_enter" {
            /// L0 file count at entry.
            l0_files: u64,
            /// Sealed memtables queued at entry.
            sealed_memtables: u64,
        },
        /// The stall condition cleared.
        StallExit => "stall_exit" {
            /// How long the writer waited.
            waited_micros: u64,
        },
        /// Writers crossed the slowdown threshold and are being paced.
        SlowdownEnter => "slowdown_enter" {
            /// L0 file count at entry.
            l0_files: u64,
            /// Sealed memtables queued at entry.
            sealed_memtables: u64,
        },
        /// Write pressure dropped back below the slowdown threshold.
        SlowdownExit => "slowdown_exit",
        /// A recovery milestone (buffered during `Db::open`, visible once
        /// the engine is constructed).
        RecoveryStep => "recovery_step" {
            /// Which milestone.
            step: RecoveryStepKind,
            /// Step-specific detail (records replayed, segment number, …).
            detail: u64,
        },
        /// Recovery garbage-collected a dead file.
        GcDropped => "gc_dropped" {
            /// What kind of file.
            kind: GcKind,
            /// Its file/segment number (0 when unnumbered, e.g. temp files).
            id: u64,
        },
        /// A WAL commit group was appended (and possibly fsynced).
        WalGroupCommit => "wal_group_commit" {
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
        VlogGc => "vlog_gc" {
            /// The segment processed.
            segment: u64,
            /// Live frame bytes re-appended to the log head.
            rewritten_bytes: u64,
            /// Bytes freed by deleting the segment file.
            reclaimed_bytes: u64,
            /// Wall time of the pass.
            micros: u64,
        },
        /// One stage of a traced op (see [`trace`]). A trace's spans are
        /// logged back to back, `total_micros` last.
        TraceSpan => "trace_span" {
            /// The trace's id: the engine's, or one its caller chose.
            trace_id as "trace": u64,
            /// The traced operation.
            op: TraceOp,
            /// Which stage.
            stage: TraceStage,
            /// Stage value: wall micros for `_micros` stages, else a count.
            value: u64,
        },
        /// Pinned bytes squeezed the memory budget's pool to its floor:
        /// allowance + cache + pinned now pass the total. Logged when the
        /// overrun turns nonzero.
        BudgetOverrun => "budget_overrun" {
            /// Bytes drawn past the budget's total.
            overrun_bytes: u64,
            /// Pinned filter/tile-metadata bytes across the budget.
            pinned_bytes: u64,
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
    /// Retained events, ascending by seqno with no gaps, ending at
    /// `emitted - 1`.
    pub events: Vec<StampedEvent>,
    /// Total events ever emitted (equals the next seqno).
    pub emitted: u64,
    /// Events emitted but no longer retained: overwritten by newer
    /// events.
    pub dropped: u64,
}

impl EventSnapshot {
    /// The whole traces the window holds, oldest first. A trace's spans
    /// are logged back to back and end in `total_micros`
    /// ([`EventLog::log_all`]), so a trace is a run of adjacent spans
    /// closed by its total; ids play no part, since a caller may reuse
    /// one. Once the ring has overwritten anything, a run that opens
    /// the window is left out: its first spans may be gone.
    pub fn traces(&self) -> Vec<OpTrace> {
        let (mut traces, mut spans) = (Vec::new(), Vec::new());
        let mut torn = self.dropped > 0;
        for s in &self.events {
            let Event::TraceSpan {
                trace_id,
                op,
                stage,
                value,
            } = s.event
            else {
                torn = false;
                continue;
            };
            spans.push((stage, value));
            if stage == TraceStage::Total {
                let spans = std::mem::take(&mut spans);
                if !std::mem::take(&mut torn) {
                    traces.push(OpTrace {
                        trace_id,
                        op,
                        spans,
                    });
                }
            }
        }
        traces
    }
}

/// Fixed-capacity event ring behind one lock. See the module docs for
/// why a lock suffices.
pub struct EventLog {
    capacity: usize,
    ring: Mutex<Ring>,
}

/// What the ring's lock guards.
struct Ring {
    /// The newest events, oldest first; never longer than the capacity.
    events: VecDeque<Event>,
    /// Total events ever logged: the next seqno.
    emitted: u64,
}

impl EventLog {
    /// A ring retaining the newest `capacity` events (min 1).
    pub fn new(capacity: usize) -> EventLog {
        let capacity = capacity.max(1);
        EventLog {
            capacity,
            ring: Mutex::new(Ring {
                events: VecDeque::with_capacity(capacity),
                emitted: 0,
            }),
        }
    }

    /// Record one event, overwriting the oldest when the ring is full.
    /// Never allocates.
    pub fn log(&self, event: Event) {
        self.log_all([event]);
    }

    /// Record `events` back to back under one lock, so no other
    /// writer's event lands between them.
    pub fn log_all(&self, events: impl IntoIterator<Item = Event>) {
        let mut ring = self.ring.lock();
        for event in events {
            if ring.events.len() == self.capacity {
                ring.events.pop_front();
            }
            ring.events.push_back(event);
            ring.emitted += 1;
        }
    }

    /// Copy the retained window; writers wait for the copy.
    pub fn snapshot(&self) -> EventSnapshot {
        let ring = self.ring.lock();
        let dropped = ring.emitted - ring.events.len() as u64;
        let events = (dropped..)
            .zip(&ring.events)
            .map(|(seqno, &event)| StampedEvent { seqno, event })
            .collect();
        EventSnapshot {
            events,
            emitted: ring.emitted,
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
    /// Distinct runs at the level.
    pub runs: u64,
    /// Files whose pages are KiWi-woven (`pages_per_tile > 1`): only
    /// bottommost compactions write them.
    pub woven_files: u64,
    /// Total bytes at the level.
    pub bytes: u64,
    /// Total entries at the level.
    pub entries: u64,
    /// Live point tombstones at the level.
    pub tombstones: u64,
    /// Birth tick of the oldest still-live tombstone at the level.
    pub oldest_tombstone_tick: Option<Tick>,
    /// Live sort-key range tombstones whose station is the level (the
    /// shallowest level with a file under them).
    pub key_range_tombstones: u64,
    /// Birth tick of the oldest still-live sort-key range tombstone.
    pub oldest_key_range_tick: Option<Tick>,
}

/// Live delete-persistence gauges: the paper's headline metric made
/// observable *before* purge. Every family is read from one read view
/// when the gauge is read: disk-level state from the version's
/// per-sstable metadata, the write-buffer fields from the view's
/// memtables.
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
    /// `(tombstone_count, oldest tick)` pairs feeding the age histogram:
    /// one per file with point tombstones — every tombstone in a file is
    /// binned at the file's *oldest* tombstone age (per-sstable metadata
    /// has no finer resolution), a conservative over-estimate of ages —
    /// and `(1, tick)` per sort-key range tombstone in the version.
    pub file_populations: Vec<(u64, Tick)>,
    /// Value-log bytes still referenced by the tree, from the vlog
    /// accounting.
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
    /// Aggregate the disk-level gauges from a version's file metadata
    /// and its sort-key range tombstones, each counted at its station.
    /// `O(files × range tombstones)`.
    pub fn from_version(version: &Version) -> TombstoneGauges {
        let mut levels: Vec<LevelGauge> = (version.levels.iter().enumerate())
            .map(|(level, files)| LevelGauge {
                level,
                runs: version.level_runs(level) as u64,
                woven_files: files.iter().filter(|f| f.stats.pages_per_tile > 1).count() as u64,
                ..LevelGauge::default()
            })
            .collect();
        let mut file_populations = Vec::new();
        for f in version.all_files() {
            let g = &mut levels[f.level];
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
        }
        // Retirement leaves no live tombstone without a file under it;
        // should one be found, it counts at the bottom.
        let bottom = levels.len().checked_sub(1);
        for k in &version.key_range_tombstones {
            let Some(level) = version.station(k).or(bottom) else {
                continue;
            };
            let g = &mut levels[level];
            g.key_range_tombstones += 1;
            g.oldest_key_range_tick = min_tick(g.oldest_key_range_tick, Some(k.dkey));
            file_populations.push((1, k.dkey));
        }
        levels.retain(|g| g.files > 0 || g.key_range_tombstones > 0);
        TombstoneGauges {
            levels,
            range_tombstones: version.range_tombstones.len() as u64,
            file_populations,
            ..TombstoneGauges::default()
        }
    }

    /// Count the deletes buffered in a memtable with statistics `s`.
    pub(crate) fn add_buffer(&mut self, s: &MemtableStats) {
        self.buffer_tombstones += s.tombstones as u64;
        self.buffer_oldest_tick = min_tick(self.buffer_oldest_tick, s.oldest_tombstone_tick);
        self.buffer_key_range_tombstones += s.range_tombstones as u64;
        self.buffer_oldest_key_range_tick = min_tick(
            self.buffer_oldest_key_range_tick,
            s.oldest_range_tombstone_tick,
        );
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

    /// Birth tick of the oldest live point tombstone anywhere.
    pub(crate) fn oldest_point_tick(&self) -> Option<Tick> {
        self.levels
            .iter()
            .filter_map(|g| g.oldest_tombstone_tick)
            .chain(self.buffer_oldest_tick)
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
            m.runs += g.runs;
            m.woven_files += g.woven_files;
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

    /// One instance of every variant, each field set to the value at
    /// its position in `4, 2, 9, 11, 3, 6, 7` (a coded field holds the
    /// variant with that code).
    fn every_variant() -> Vec<Event> {
        vec![
            Event::MemtableSealed {
                entries: 4,
                bytes: 2,
                sealed_behind: 9,
            },
            Event::FlushStart { entries: 4 },
            Event::FlushEnd {
                file_id: 4,
                bytes: 2,
                entries: 9,
                micros: 11,
            },
            Event::CompactionPicked {
                level: 4,
                output_level: 2,
                input_files: 9,
                input_bytes: 11,
                reason: CompactionReason::Manual,
                overdue_by: 6,
                deadline: 7,
            },
            Event::CompactionEnd {
                level: 4,
                output_level: 2,
                bytes_in: 9,
                bytes_out: 11,
                entries_dropped: 3,
                tombstones_purged: 6,
                micros: 7,
            },
            Event::StallEnter {
                l0_files: 4,
                sealed_memtables: 2,
            },
            Event::StallExit { waited_micros: 4 },
            Event::SlowdownEnter {
                l0_files: 4,
                sealed_memtables: 2,
            },
            Event::SlowdownExit,
            Event::RecoveryStep {
                step: RecoveryStepKind::Finished,
                detail: 2,
            },
            Event::GcDropped {
                kind: GcKind::VlogSegment,
                id: 2,
            },
            Event::WalGroupCommit {
                ops: 4,
                commits: 2,
                synced: true,
            },
            Event::VlogGc {
                segment: 4,
                rewritten_bytes: 2,
                reclaimed_bytes: 9,
                micros: 11,
            },
            Event::TraceSpan {
                trace_id: 4,
                op: TraceOp::Get,
                stage: TraceStage::ImmProbes,
                value: 11,
            },
            Event::BudgetOverrun {
                overrun_bytes: 4,
                pinned_bytes: 2,
            },
        ]
    }

    /// Golden pin (len + CRC32C) of the `events` text over every
    /// variant, recorded before the event and code tables existed; see
    /// `tests/golden.rs` for the method. Re-recorded (from
    /// `(1032, 0xd450_f2ce)`) when `cohort_advanced` left the ring: the
    /// text lost exactly that variant's line, and its header counts 14
    /// events, not 15. Re-recorded (from `(948, 0x5b5a_59bc)`) when the
    /// budget overrun became an event: the text gained exactly its line,
    /// `budget_overrun overrun_bytes=4 pinned_bytes=2` (58 bytes), and
    /// its header counts 15 events again.
    #[test]
    fn golden_event_text() {
        use acheron_types::checksum::crc32c;
        let log = EventLog::new(64);
        for ev in every_variant() {
            log.log(ev);
        }
        let text = render_events(&log.snapshot());
        assert_eq!(
            (text.len(), crc32c(text.as_bytes())),
            (1006, 0x5514_abdc),
            "{text}"
        );
    }

    /// Each coded enum's codes are `0..len` in table order and its
    /// names are distinct.
    fn codes_dense_and_names_distinct<T: Copy + std::fmt::Debug>(
        all: &[T],
        code: fn(T) -> u64,
        name: fn(T) -> &'static str,
    ) {
        let mut names = std::collections::BTreeSet::new();
        for (i, &v) in all.iter().enumerate() {
            assert_eq!(code(v), i as u64, "{v:?}");
            assert!(names.insert(name(v)), "{v:?} reuses a name");
        }
    }

    #[test]
    fn coded_enums_have_dense_codes_and_distinct_names() {
        codes_dense_and_names_distinct(TraceOp::ALL, TraceOp::code, TraceOp::name);
        codes_dense_and_names_distinct(TraceStage::ALL, TraceStage::code, TraceStage::name);
        codes_dense_and_names_distinct(
            RecoveryStepKind::ALL,
            RecoveryStepKind::code,
            RecoveryStepKind::name,
        );
        codes_dense_and_names_distinct(GcKind::ALL, GcKind::code, GcKind::name);
        codes_dense_and_names_distinct(
            CompactionReason::ALL,
            CompactionReason::code,
            CompactionReason::name,
        );
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

    /// Four writers log while a reader snapshots: every snapshot is a
    /// dense suffix of the emission order, as long as the ring allows,
    /// and no event in it is torn.
    #[test]
    fn concurrent_writers_never_produce_torn_events() {
        use std::sync::Arc;
        const CAPACITY: u64 = 128;
        let log = Arc::new(EventLog::new(CAPACITY as usize));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                for i in 0..5_000u64 {
                    // Payload fields carry a per-writer signature so a
                    // torn event (fields from two writers) is detectable.
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
            let snap = log.snapshot();
            assert_eq!(snap.events.len() as u64, snap.emitted.min(CAPACITY));
            assert_eq!(snap.dropped, snap.emitted - snap.events.len() as u64);
            for (s, seqno) in snap.events.iter().zip(snap.dropped..) {
                assert_eq!(s.seqno, seqno, "seqnos ascend with no gap");
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
            if let Some(last) = snap.events.last() {
                assert_eq!(last.seqno, snap.emitted - 1);
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = log.snapshot();
        assert_eq!(snap.emitted, 20_000);
        assert_eq!(snap.events.len() as u64, CAPACITY);
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
                    runs: 1,
                    woven_files: 0,
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
                    runs: 2,
                    woven_files: 0,
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
                runs: 1,
                woven_files: 0,
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
            (l0.level, l0.files, l0.runs, l0.bytes, l0.tombstones),
            (0, 2, 2, 150, 6)
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
                runs: 3,
                woven_files: 0,
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
