//! The engine behind the server: a single [`Db`] or a sharded fleet.
//!
//! Connection handlers are written against this enum rather than
//! `Arc<Db>` so one server binary serves both shapes. The router logic
//! itself (hash dispatch, cross-shard snapshot merging, the admission
//! barrier) lives in [`acheron::ShardedDb`]; this layer only chooses
//! *which* engine answers and how its observability is rendered:
//!
//! * a single engine renders exactly as before;
//! * a fleet renders the *merged* counters and gauges, plus per-shard
//!   gauge series (`db_shard_*{shard="i"}`) and the fleet-wide maximum
//!   tombstone age — the number the per-shard `D_th` promise is judged
//!   by.

use std::sync::Arc;

use acheron::obs::Exposition;
use acheron::{Db, ShardedDb, StatsSnapshot, TombstoneGauges, WritePressure};
use acheron_types::{Result, Tick};

use crate::wire::Request;

/// The engine a server instance dispatches to.
#[derive(Clone)]
pub enum Engine {
    /// One engine owns the whole keyspace.
    Single(Arc<Db>),
    /// A hash-partitioned fleet of engines.
    Sharded(Arc<ShardedDb>),
}

impl From<Arc<Db>> for Engine {
    fn from(db: Arc<Db>) -> Engine {
        Engine::Single(db)
    }
}

impl From<Arc<ShardedDb>> for Engine {
    fn from(db: Arc<ShardedDb>) -> Engine {
        Engine::Sharded(db)
    }
}

impl Engine {
    /// Current clock tick.
    pub fn now(&self) -> Tick {
        match self {
            Engine::Single(db) => db.now(),
            Engine::Sharded(db) => db.now(),
        }
    }

    /// Insert with an explicit delete key.
    pub fn put_with_dkey(&self, key: &[u8], value: &[u8], dkey: u64) -> Result<()> {
        match self {
            Engine::Single(db) => db.put_with_dkey(key, value, dkey),
            Engine::Sharded(db) => db.put_with_dkey(key, value, dkey),
        }
    }

    /// Point delete.
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        match self {
            Engine::Single(db) => db.delete(key),
            Engine::Sharded(db) => db.delete(key),
        }
    }

    /// Secondary range delete (broadcast to every shard of a fleet).
    pub fn range_delete_secondary(&self, lo: u64, hi: u64) -> Result<()> {
        match self {
            Engine::Single(db) => db.range_delete_secondary(lo, hi),
            Engine::Sharded(db) => db.range_delete_secondary(lo, hi),
        }
    }

    /// Sort-key range delete (broadcast to every shard of a fleet —
    /// hash partitioning scatters a sort-key interval across shards).
    pub fn range_delete_keys(&self, lo: &[u8], hi: &[u8]) -> Result<()> {
        match self {
            Engine::Single(db) => db.range_delete_keys(lo, hi),
            Engine::Sharded(db) => db.range_delete_keys(lo, hi),
        }
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        match self {
            Engine::Single(db) => Ok(db.get(key)?.map(|v| v.to_vec())),
            Engine::Sharded(db) => db.get(key),
        }
    }

    /// Inclusive range scan (merged across shards of a fleet).
    pub fn scan(&self, lo: &[u8], hi: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        match self {
            Engine::Single(db) => Ok(db
                .scan(lo, hi)?
                .into_iter()
                .map(|(k, v)| (k.to_vec(), v.to_vec()))
                .collect()),
            Engine::Sharded(db) => db.scan(lo, hi),
        }
    }

    /// Write pressure: the engine's own for a single engine, the
    /// worst-case composition (max gauges, OR flags) for a fleet —
    /// the right input for pacing decisions that cover the whole
    /// connection.
    pub fn write_pressure(&self) -> WritePressure {
        match self {
            Engine::Single(db) => db.write_pressure(),
            Engine::Sharded(db) => db.write_pressure(),
        }
    }

    /// Whether `req` (a write) should be shed as `Busy` right now.
    /// `group_pressure` is the fleet/engine pressure captured once per
    /// pipelined group. A single engine sheds on that capture; a fleet
    /// consults only the *owning* shard for keyed writes, so one
    /// stalled shard does not shed the whole keyspace — broadcast
    /// writes (range deletes) still honor the fleet view because they
    /// touch every shard.
    pub fn stall_write(&self, req: &Request, group_pressure: &WritePressure) -> bool {
        match self {
            Engine::Single(_) => group_pressure.stall,
            Engine::Sharded(db) => match req.key() {
                Some(key) => db.shard_for(key).write_pressure().stall,
                None => group_pressure.stall,
            },
        }
    }

    /// Merged engine counters (per-shard sums for a fleet), including
    /// block-cache counters and memory-budget gauges. On a fleet the
    /// shared cache is reported exactly once, not once per shard.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        match self {
            Engine::Single(db) => db.stats_snapshot(),
            Engine::Sharded(db) => db.stats_snapshot(),
        }
    }

    /// Merged tombstone gauges (fleet-wide population for a fleet).
    pub fn tombstone_gauges(&self) -> TombstoneGauges {
        match self {
            Engine::Single(db) => db.tombstone_gauges(),
            Engine::Sharded(db) => db.tombstone_gauges(),
        }
    }

    /// The FADE persistence threshold, if configured.
    pub fn d_th(&self) -> Option<Tick> {
        let opts = match self {
            Engine::Single(db) => db.options(),
            Engine::Sharded(db) => db.options(),
        };
        opts.fade.as_ref().map(|f| f.delete_persistence_threshold)
    }

    /// Extra Prometheus lines a fleet appends after the merged view:
    /// shard count, per-shard tombstone/pressure series, and the
    /// fleet-wide maximum tombstone age (0 when no tombstone is live —
    /// always emitted so dashboards can alert on it unconditionally).
    /// Empty for a single engine.
    pub fn shard_metrics_lines(&self) -> String {
        let Engine::Sharded(db) = self else {
            return String::new();
        };
        let now = db.now();
        let gauges = db.shard_gauges();
        let pressure = db.shard_pressure();
        // Per-shard memory split: each shard's write-buffer allowance
        // under the shared arbiter and its pinned filter/metadata
        // contribution. The fleet totals are in the merged snapshot
        // (`db_memory_*`).
        let stats = db.shard_stats();
        let mut x = Exposition::default();
        x.gauge("db_shards", None, db.shard_count() as u64);
        // A family's samples stay together: one series per shard.
        let per_shard: [(&str, &dyn Fn(usize) -> u64); 7] = [
            ("db_shard_live_tombstones", &|i| gauges[i].live_tombstones()),
            ("db_shard_oldest_tombstone_age_ticks", &|i| {
                gauges[i]
                    .oldest_live_tick()
                    .map_or(0, |t0| now.saturating_sub(t0))
            }),
            ("db_shard_l0_files", &|i| pressure[i].l0_files as u64),
            ("db_shard_slowdown", &|i| u64::from(pressure[i].slowdown)),
            ("db_shard_stall", &|i| u64::from(pressure[i].stall)),
            ("db_shard_memtable_budget_bytes", &|i| {
                stats[i].memtable_budget_bytes
            }),
            ("db_shard_pinned_bytes", &|i| stats[i].pinned_bytes),
        ];
        for (family, value) in per_shard {
            for i in 0..db.shard_count() {
                x.gauge(family, Some(("shard", &i)), value(i));
            }
        }
        x.gauge(
            "db_fleet_max_tombstone_age_ticks",
            None,
            db.fleet_max_tombstone_age().unwrap_or(0),
        );
        x.finish()
    }

    /// The `events` command body: one engine's ring, or every shard's
    /// ring sectioned per shard.
    pub fn events_text(&self) -> String {
        match self {
            Engine::Single(db) => acheron::obs::render_events(&db.events()),
            Engine::Sharded(db) => acheron::obs::render_sharded_events(&db.shard_events()),
        }
    }

    /// The `traces` command body: recently sampled op traces (the
    /// fleet-wide concatenation for a sharded engine).
    pub fn traces_text(&self) -> String {
        match self {
            Engine::Single(db) => acheron::render_traces(&db.recent_traces()),
            Engine::Sharded(db) => acheron::render_traces(&db.recent_traces()),
        }
    }

    /// The delete-lifecycle audit (per-shard cohort union for a fleet).
    pub fn delete_audit(&self) -> acheron::DeleteAudit {
        match self {
            Engine::Single(db) => db.delete_audit(),
            Engine::Sharded(db) => db.delete_audit(),
        }
    }

    /// Force-traced put (the server stamps the engine's current tick as
    /// the delete key, like an untraced wire put).
    pub fn put_traced(&self, key: &[u8], value: &[u8], trace_id: u64) -> Result<acheron::OpTrace> {
        match self {
            Engine::Single(db) => db.put_traced(key, value, Some(trace_id)),
            Engine::Sharded(db) => db.put_traced(key, value, Some(trace_id)),
        }
    }

    /// Force-traced point delete.
    pub fn delete_traced(&self, key: &[u8], trace_id: u64) -> Result<acheron::OpTrace> {
        match self {
            Engine::Single(db) => db.delete_traced(key, Some(trace_id)),
            Engine::Sharded(db) => db.delete_traced(key, Some(trace_id)),
        }
    }

    /// Force-traced point lookup.
    pub fn get_traced(
        &self,
        key: &[u8],
        trace_id: u64,
    ) -> Result<(Option<Vec<u8>>, acheron::OpTrace)> {
        match self {
            Engine::Single(db) => {
                let (value, trace) = db.get_traced(key, Some(trace_id))?;
                Ok((value.map(|v| v.to_vec()), trace))
            }
            Engine::Sharded(db) => db.get_traced(key, Some(trace_id)),
        }
    }

    /// Shard count (1 for a single engine), for status display.
    pub fn shard_count(&self) -> usize {
        match self {
            Engine::Single(_) => 1,
            Engine::Sharded(db) => db.shard_count(),
        }
    }
}
