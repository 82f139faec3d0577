//! # Acheron: a delete-aware LSM storage engine
//!
//! Acheron reproduces the system demonstrated in *"Acheron: Persisting
//! Tombstones in LSM Engines"* (SIGMOD 2023): an LSM key-value engine in
//! which deletes are first-class —
//!
//! * **FADE** bounds *delete persistence latency*: every point tombstone
//!   is guaranteed to be physically purged within a user-chosen
//!   threshold `D_th` of its insertion, enforced by per-level tombstone
//!   TTLs that trigger compactions ([`options::FadeOptions`]).
//! * **KiWi** (key-weaving delete tiles) makes *secondary range deletes*
//!   cheap: SSTables interleave sort-key and delete-key order so a
//!   "delete everything with timestamp in `[a, b]`" drops whole pages
//!   without reading them ([`options::DbOptions::pages_per_tile`]).
//! * The compaction framework is factored along the four design
//!   primitives of the LSM compaction design space — trigger, layout,
//!   granularity, data movement — so the delete-blind baselines
//!   (leveling / tiering / lazy-leveling with min-overlap picks) and the
//!   delete-aware policies are points in one space. Every compaction
//!   task is decided and built in [`picker`]; FADE contributes its
//!   trigger as deadlines ([`fade::TtlSchedule`]) and the movement
//!   policy is one option ([`options::DbOptions::file_pick`]).
//!
//! ## Quick start
//!
//! ```
//! use acheron::{Db, DbOptions};
//! use acheron_vfs::MemFs;
//! use std::sync::Arc;
//!
//! let fs = Arc::new(MemFs::new());
//! let db = Db::open(fs, "demo-db", DbOptions::small().with_fade(10_000)).unwrap();
//! db.put(b"user:7", b"alice").unwrap();
//! assert_eq!(db.get(b"user:7").unwrap().unwrap().as_ref(), b"alice");
//! db.delete(b"user:7").unwrap();
//! assert_eq!(db.get(b"user:7").unwrap(), None);
//! ```
//!
//! ## Concurrency
//!
//! With the default options, flushes and compactions run on background
//! worker threads and writes are throttled when the engine falls behind
//! ([`options::DbOptions::background_threads`]); with
//! `background_threads = 0` (the [`options::DbOptions::small`] preset)
//! all maintenance runs synchronously inside the write path, which makes
//! runs deterministic. See `ARCHITECTURE.md` for the full model.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod compaction;
pub mod db;
pub mod doctor;
pub mod fade;
pub mod filenames;
pub mod manifest;
pub mod memory;
pub mod merge;
pub mod obs;
pub mod options;
pub mod picker;
pub mod sharded;
pub mod stats;
mod survey;
pub mod testutil;
pub mod version;

pub use db::{Db, MaintenancePause, RangeIter, Snapshot, WriteBatch, WritePressure};
pub use doctor::{check_db, DoctorReport};
pub use memory::MemoryBudget;
pub use obs::trace::{
    render_traces, CohortRecord, DeleteAudit, DeleteLedger, OpTrace, TraceOp, TraceStage,
};
pub use obs::{
    AgeHistogram, Event, EventLog, EventSnapshot, GcKind, LevelGauge, RecoveryStepKind,
    StampedEvent, TombstoneGauges,
};
pub use options::{CompactionLayout, DbOptions, FadeOptions, FilePickPolicy, TtlAllocation};
pub use picker::CompactionReason;
pub use sharded::{check_root, read_shard_map, shard_of, ShardedDb, ShardedSnapshot};
pub use stats::{DbStats, HistogramSummary, LatencyHistogram, StatsSnapshot};

// Re-export the commonly needed foundation types so downstream users
// depend on one crate.
pub use acheron_types::{Clock, DeleteKeyRange, LogicalClock, RangeTombstone, SystemClock};
