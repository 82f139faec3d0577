//! Horizontal keyspace sharding: N independent engines behind one
//! router, sharing one clock and one FADE contract.
//!
//! A [`ShardedDb`] partitions the primary-key space across `N`
//! fully independent [`Db`] instances — each shard owns its own WAL,
//! memtable, flush queue, and compaction pipeline, so write throughput
//! (and therefore tombstone-persistence headroom) scales with shards
//! instead of capping out at one commit queue. The paper's single-node
//! `D_th` bound becomes a *per-shard* invariant; the aggregation
//! methods here ([`ShardedDb::tombstone_gauges`],
//! [`ShardedDb::fleet_max_tombstone_age`]) exist so observability can
//! prove it holds everywhere at once.
//!
//! # Partitioning
//!
//! Keys route by stable hash: `shard_of(key) = fnv1a64(key) % N`
//! ([`shard_of`]). FNV-1a is deterministic across processes and
//! platforms (no seed, no pointer salt), which the on-disk layout
//! requires: reopening the fleet must route every key to the shard
//! that already holds it.
//!
//! # Directory layout and the shard map
//!
//! A sharded root holds one subdirectory per shard plus a manifest:
//!
//! ```text
//! root/
//!   SHARDMAP            magic, shard count, hash id, CRC32C
//!   shard-000/          a complete single-engine database
//!   shard-001/
//!   ...
//! ```
//!
//! `SHARDMAP` is written (temp + rename + dir sync) only *after* every
//! shard has been created durably, and reopen refuses to proceed if the
//! map names a shard whose directory is missing its `CURRENT` pointer.
//! The ordering makes the failure modes safe: a crash before the map
//! exists re-creates the fleet from scratch (shard recovery folds in
//! whatever partial state survived), while a lost shard *after* the map
//! exists fails loudly instead of silently reopening with a hole in
//! the keyspace.
//!
//! # Clock discipline
//!
//! All shards share one `Arc<dyn Clock>`, but each shard is opened with
//! `auto_advance_clock = false`: the *router* advances the shared
//! logical clock exactly once per logical operation (matching what a
//! single engine would do), so tombstone ages — and therefore FADE's
//! TTL triggers — are identical whether the keyspace is one engine or
//! sixteen. This is also what makes a sharded run *result-identical*
//! to a single-engine run on the same op stream (dkey stamps match).
//!
//! # A plain engine is a fleet of one
//!
//! [`ShardedDb::from`] wraps one already-open [`Db`]: no shard map, the
//! engine's own cache, budget and trace ids, and no router tick — the
//! engine keeps its own `auto_advance_clock`, so nothing is ticked
//! twice. Its stats, gauges, audit, traces and event text are the
//! engine's own. [`ShardedDb::open_root`] opens either shape from what
//! the directory holds, so a caller serving or inspecting a database
//! never asks which shape it is: the one difference, whether the
//! exposition carries per-shard series, is decided here by whether the
//! root has a shard map.
//!
//! # Cross-shard scans and the read barrier
//!
//! Point ops touch exactly one shard and need no coordination. A scan
//! spans shards, so [`ShardedDb::snapshot`] takes a write lock on the
//! router's admission barrier while capturing one [`Snapshot`] per
//! shard; every write holds the barrier's read lock across its commit.
//! The captured cut therefore contains a *prefix* of the router's
//! admission order — no write can be half-visible across shards — and
//! each per-shard snapshot pins its shard's state exactly as the
//! single-engine snapshot does. Each shard returns its rows sorted and
//! the shards' keyspaces are disjoint, so a k-way merge of the run
//! heads yields the fleet order, copying each row once.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use acheron_types::{checksum, Clock, Error, Result, Tick};
use acheron_vfs::{join, Vfs};
use parking_lot::RwLock;

use crate::db::{Db, Snapshot, WritePressure};
use crate::doctor::{self, DoctorReport};
use crate::memory::MemoryBudget;
use crate::obs::trace::{DeleteAudit, OpTrace};
use crate::obs::{min_tick, EventSnapshot, Exposition, TombstoneGauges};
use crate::options::DbOptions;
use crate::stats::StatsSnapshot;

/// File name of the shard-map manifest inside a sharded root.
pub const SHARD_MAP_NAME: &str = "SHARDMAP";

/// Maximum shard count a fleet may be created with.
pub const MAX_SHARDS: usize = 256;

/// Shard-map magic: "ACSHMAP" + format version 1.
const SHARD_MAP_MAGIC: &[u8; 8] = b"ACSHMAP\x01";

/// Partitioning-function id recorded in the shard map. Only FNV-1a-64
/// modulo the shard count exists today; the id makes a future scheme a
/// detectable format change instead of silent misrouting.
const HASH_FNV1A64: u32 = 1;

/// Encoded shard-map length: magic + shard count + hash id + CRC.
const SHARD_MAP_LEN: usize = 20;

/// FNV-1a 64-bit: stable across processes and platforms, which the
/// on-disk routing requires.
fn fnv1a64(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The shard owning `key` in a fleet of `shards` shards.
pub fn shard_of(key: &[u8], shards: usize) -> usize {
    debug_assert!(shards > 0);
    (fnv1a64(key) % shards as u64) as usize
}

/// Subdirectory of shard `shard` under the sharded root `dir`.
pub fn shard_dir(dir: &str, shard: usize) -> String {
    join(dir, &format!("shard-{shard:03}"))
}

fn encode_shard_map(shards: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(SHARD_MAP_LEN);
    out.extend_from_slice(SHARD_MAP_MAGIC);
    out.extend_from_slice(&shards.to_le_bytes());
    out.extend_from_slice(&HASH_FNV1A64.to_le_bytes());
    let crc = checksum::masked(&[&out]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Read the shard map under `dir`, if one exists. `Ok(None)` means the
/// root has never been opened sharded; corruption (bad magic, bad CRC,
/// unknown hash id, absurd count) is an error, never `None` — a
/// damaged map must not be mistaken for a fresh directory.
pub fn read_shard_map(fs: &dyn Vfs, dir: &str) -> Result<Option<u32>> {
    let path = join(dir, SHARD_MAP_NAME);
    if !fs.exists(&path) {
        return Ok(None);
    }
    let data = fs.read_all(&path)?;
    if data.len() != SHARD_MAP_LEN || &data[..8] != SHARD_MAP_MAGIC {
        return Err(Error::corruption("shard map: bad magic or length"));
    }
    let stored = u32::from_le_bytes(data[16..20].try_into().unwrap());
    if stored != checksum::masked(&[&data[..16]]) {
        return Err(Error::corruption("shard map: checksum mismatch"));
    }
    let shards = u32::from_le_bytes(data[8..12].try_into().unwrap());
    let hash = u32::from_le_bytes(data[12..16].try_into().unwrap());
    if hash != HASH_FNV1A64 {
        return Err(Error::corruption(format!(
            "shard map: unknown partitioning function id {hash}"
        )));
    }
    if shards == 0 || shards as usize > MAX_SHARDS {
        return Err(Error::corruption(format!(
            "shard map: implausible shard count {shards}"
        )));
    }
    Ok(Some(shards))
}

/// Durably install the shard map: temp, rename, directory sync. Called
/// only after every shard directory is itself durable.
fn write_shard_map(fs: &dyn Vfs, dir: &str, shards: u32) -> Result<()> {
    let tmp = join(dir, "SHARDMAP.tmp");
    fs.write_all(&tmp, &encode_shard_map(shards))?;
    fs.rename(&tmp, &join(dir, SHARD_MAP_NAME))?;
    fs.sync_dir(dir)
}

/// A consistent cut across every shard: one [`Snapshot`] per shard,
/// captured under the router's admission barrier so the cut contains a
/// prefix of the admitted writes. Obtained from [`ShardedDb::snapshot`].
pub struct ShardedSnapshot {
    shards: Vec<Snapshot>,
}

impl ShardedSnapshot {
    /// The per-shard snapshot seqnos (diagnostic; shard order).
    pub fn seqnos(&self) -> Vec<u64> {
        self.shards.iter().map(Snapshot::seqno).collect()
    }
}

/// N independent [`Db`] shards behind a hash router. See the module
/// docs for the partitioning, durability, clock, and consistency
/// arguments.
pub struct ShardedDb {
    shards: Vec<Db>,
    clock: Arc<dyn Clock>,
    /// Whether the router advances the shared logical clock per op
    /// (mirrors what `auto_advance_clock` would do on a single engine).
    auto_advance: bool,
    /// Admission barrier: writes hold `read` across their commit,
    /// [`ShardedDb::snapshot`] holds `write` while capturing the cut.
    barrier: RwLock<()>,
    /// The single fleet-wide block cache every shard shares (present
    /// when caching is enabled at all; a wrapped engine's own). One
    /// instance, one budget — never N private copies of
    /// `block_cache_bytes` each.
    cache: Option<Arc<acheron_sstable::BlockCache>>,
    /// The fleet-wide memory arbiter, present when
    /// [`DbOptions::memory_budget_bytes`] is non-zero (a wrapped
    /// engine's own). Every shard is a registered writer on it.
    memory: Option<Arc<MemoryBudget>>,
    opts: DbOptions,
    /// Whether the root has a shard map: a fleet renders per-shard
    /// series and per-shard event sections, a wrapped engine its own.
    shard_map: bool,
}

/// A plain engine as a fleet of one: no shard map, the engine's own
/// cache and budget, and no router tick (the engine's own
/// `auto_advance_clock` ticks once per op, as it does embedded).
impl From<Db> for ShardedDb {
    fn from(db: Db) -> ShardedDb {
        ShardedDb {
            clock: Arc::clone(&db.options().clock),
            auto_advance: false,
            barrier: RwLock::new(()),
            cache: db.block_cache(),
            memory: db.memory_budget(),
            opts: db.options().clone(),
            shard_map: false,
            shards: vec![db],
        }
    }
}

impl std::fmt::Debug for ShardedDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDb")
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

impl ShardedDb {
    /// Open (creating or recovering) a fleet of `shards` shards under
    /// `dir`. On a fresh root the shard directories are created and the
    /// shard map installed; on reopen the map is authoritative — a
    /// mismatched `shards` is rejected (resharding is unsupported) and
    /// a mapped shard with no recoverable state fails the open rather
    /// than silently serving a hole in the keyspace.
    pub fn open(fs: Arc<dyn Vfs>, dir: &str, opts: DbOptions, shards: usize) -> Result<ShardedDb> {
        if shards == 0 {
            return Err(Error::invalid_argument("shard count must be >= 1"));
        }
        if shards > MAX_SHARDS {
            return Err(Error::invalid_argument(format!(
                "shard count must be <= {MAX_SHARDS}"
            )));
        }
        opts.validate()?;
        fs.mkdir_all(dir)?;
        let existing = read_shard_map(fs.as_ref(), dir)?;
        if let Some(n) = existing {
            if n as usize != shards {
                return Err(Error::invalid_argument(format!(
                    "shard map records {n} shards but open requested {shards}; \
                     resharding is not supported"
                )));
            }
            for i in 0..shards {
                let current = join(&shard_dir(dir, i), "CURRENT");
                if !fs.exists(&current) {
                    return Err(Error::corruption(format!(
                        "shard map names {shards} shards but shard {i} has no CURRENT \
                         pointer; refusing to reopen a partial fleet"
                    )));
                }
            }
        }
        let auto_advance = opts.auto_advance_clock;
        let clock = Arc::clone(&opts.clock);
        // One cache and one arbiter for the whole fleet: the configured
        // bytes are a *total*, so N shards must share a single instance
        // rather than each allocating a private copy (which would
        // multiply the footprint by the shard count).
        let memory = (opts.memory_budget_bytes > 0)
            .then(|| Arc::new(MemoryBudget::new(opts.memory_budget_bytes)));
        let cache = match &memory {
            Some(m) => Some(Arc::new(acheron_sstable::BlockCache::new(
                m.cache_share_bytes(),
            ))),
            None => (opts.block_cache_bytes > 0)
                .then(|| Arc::new(acheron_sstable::BlockCache::new(opts.block_cache_bytes))),
        };
        // One trace-id allocator for the fleet: trace ids must stay
        // unique across shards so a wire-propagated id names exactly
        // one operation.
        let trace_ids = Arc::new(AtomicU64::new(1));
        let mut dbs = Vec::with_capacity(shards);
        for i in 0..shards {
            // Shards share the router's clock but never advance it
            // themselves; the router ticks once per logical op so the
            // fleet ages tombstones exactly like a single engine.
            let shard_opts = DbOptions {
                auto_advance_clock: false,
                ..opts.clone()
            };
            dbs.push(Db::open_with_shared(
                Arc::clone(&fs),
                &shard_dir(dir, i),
                shard_opts,
                cache.clone(),
                memory.clone(),
                Some((i, Arc::clone(&trace_ids))),
            )?);
        }
        if existing.is_none() {
            // Every shard's CURRENT is durable; only now may the map
            // exist (its presence asserts all shards are recoverable).
            write_shard_map(fs.as_ref(), dir, shards as u32)?;
        }
        Ok(ShardedDb {
            shards: dbs,
            clock,
            auto_advance,
            barrier: RwLock::new(()),
            cache,
            memory,
            opts,
            shard_map: true,
        })
    }

    /// Open whatever `dir` holds: the fleet its shard map names, or —
    /// with no map, a fresh directory included — one plain engine as a
    /// fleet of one ([`ShardedDb::from`]).
    pub fn open_root(fs: Arc<dyn Vfs>, dir: &str, opts: DbOptions) -> Result<ShardedDb> {
        match read_shard_map(fs.as_ref(), dir)? {
            Some(n) => ShardedDb::open(fs, dir, opts, n as usize),
            None => Db::open(fs, dir, opts).map(ShardedDb::from),
        }
    }

    /// Number of shards in the fleet.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Direct handle to shard `i` (panics when out of range).
    pub fn shard(&self, i: usize) -> &Db {
        &self.shards[i]
    }

    /// The shard owning `key`.
    pub fn shard_for(&self, key: &[u8]) -> &Db {
        &self.shards[shard_of(key, self.shards.len())]
    }

    /// Advance the shared clock for one router-admitted operation.
    fn tick(&self, n: u64) {
        if self.auto_advance {
            if let Some(lc) = self.clock.as_logical() {
                lc.advance(n);
            }
        }
    }

    /// Insert `key = value`, stamping the current tick as its delete
    /// key (exactly what [`Db::put`] does).
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.put_with_dkey(key, value, self.clock.now())
    }

    /// Insert with an explicit delete key.
    pub fn put_with_dkey(&self, key: &[u8], value: &[u8], dkey: u64) -> Result<()> {
        let _admit = self.barrier.read();
        self.shard_for(key).put_with_dkey(key, value, dkey)?;
        self.tick(1);
        Ok(())
    }

    /// Point-delete `key`.
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        let _admit = self.barrier.read();
        self.shard_for(key).delete(key)?;
        self.tick(1);
        Ok(())
    }

    /// Secondary range delete over `[lo, hi]` in the delete-key domain.
    /// Dkeys do not route (they are orthogonal to the primary key), so
    /// the tombstone broadcasts to every shard; the clock still ticks
    /// once, as it would on a single engine.
    pub fn range_delete_secondary(&self, lo: u64, hi: u64) -> Result<()> {
        let _admit = self.barrier.read();
        for db in &self.shards {
            db.range_delete_secondary(lo, hi)?;
        }
        self.tick(1);
        Ok(())
    }

    /// Sort-key range delete, broadcast to every shard: hash
    /// partitioning scatters any sort-key interval across the fleet, so
    /// each shard records the tombstone and drops its own covered keys.
    pub fn range_delete_keys(&self, start: &[u8], end: &[u8]) -> Result<()> {
        let _admit = self.barrier.read();
        for db in &self.shards {
            db.range_delete_keys(start, end)?;
        }
        self.tick(1);
        Ok(())
    }

    /// Point lookup: routed to the owning shard, no cross-shard
    /// coordination needed.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Ok(self.shard_for(key).get(key)?.map(|v| v.to_vec()))
    }

    /// [`ShardedDb::put`] with a forced trace: routed like a normal
    /// put (admission barrier, owning shard, one fleet tick), returning
    /// the owning shard's span breakdown.
    pub fn put_traced(&self, key: &[u8], value: &[u8], trace_id: Option<u64>) -> Result<OpTrace> {
        let _admit = self.barrier.read();
        let trace = self.shard_for(key).put_traced(key, value, trace_id)?;
        self.tick(1);
        Ok(trace)
    }

    /// [`ShardedDb::delete`] with a forced trace.
    pub fn delete_traced(&self, key: &[u8], trace_id: Option<u64>) -> Result<OpTrace> {
        let _admit = self.barrier.read();
        let trace = self.shard_for(key).delete_traced(key, trace_id)?;
        self.tick(1);
        Ok(trace)
    }

    /// [`ShardedDb::get`] with a forced trace: the owning shard's read
    /// path is timed and the span breakdown returned with the value.
    pub fn get_traced(
        &self,
        key: &[u8],
        trace_id: Option<u64>,
    ) -> Result<(Option<Vec<u8>>, OpTrace)> {
        let (value, trace) = self.shard_for(key).get_traced(key, trace_id)?;
        Ok((value.map(|v| v.to_vec()), trace))
    }

    /// Capture a consistent cross-shard cut. Holds the admission
    /// barrier exclusively for the duration of the capture (one
    /// `Db::snapshot` per shard — cheap, no I/O).
    pub fn snapshot(&self) -> ShardedSnapshot {
        let _barrier = self.barrier.write();
        ShardedSnapshot {
            shards: self.shards.iter().map(Db::snapshot).collect(),
        }
    }

    /// Inclusive range scan at a previously captured cut, merged across
    /// shards into key order.
    pub fn scan_at(
        &self,
        snap: &ShardedSnapshot,
        lo: &[u8],
        hi: &[u8],
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        if snap.shards.len() != self.shards.len() {
            return Err(Error::invalid_argument(
                "snapshot is from a fleet with a different shard count",
            ));
        }
        let mut runs = Vec::with_capacity(self.shards.len());
        for (db, s) in self.shards.iter().zip(&snap.shards) {
            runs.push(db.scan_at(s, lo, hi)?);
        }
        // Each shard's run is already sorted and shards partition the
        // keyspace (no key appears twice), so a k-way merge of the run
        // heads yields the fleet order; each row is copied once, into
        // its final place.
        let mut next = vec![0usize; runs.len()];
        let mut rows = Vec::with_capacity(runs.iter().map(Vec::len).sum());
        while let Some(shard) = (0..runs.len())
            .filter(|&i| next[i] < runs[i].len())
            .min_by(|&a, &b| runs[a][next[a]].0.cmp(&runs[b][next[b]].0))
        {
            let (key, value) = &runs[shard][next[shard]];
            rows.push((key.to_vec(), value.to_vec()));
            next[shard] += 1;
        }
        Ok(rows)
    }

    /// Inclusive range scan over the whole fleet at a fresh cut.
    pub fn scan(&self, lo: &[u8], hi: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let snap = self.snapshot();
        self.scan_at(&snap, lo, hi)
    }

    /// Flush every shard's memtable.
    pub fn flush(&self) -> Result<()> {
        for db in &self.shards {
            db.flush()?;
        }
        Ok(())
    }

    /// Run synchronous maintenance to quiescence on every shard
    /// (`background_threads = 0` mode).
    pub fn maintain(&self) -> Result<()> {
        for db in &self.shards {
            db.maintain()?;
        }
        Ok(())
    }

    /// Wait for every shard's background maintenance to go idle.
    pub fn wait_idle(&self) -> Result<()> {
        for db in &self.shards {
            db.wait_idle()?;
        }
        Ok(())
    }

    /// Advance the shared clock by `n` ticks and kick every shard's
    /// maintenance (TTL triggers are clock-driven). The clock is shared,
    /// so only the first shard advances it; the rest advance by zero,
    /// which still wakes their workers.
    pub fn advance_clock(&self, n: u64) {
        let mut n = n;
        for db in &self.shards {
            db.advance_clock(n);
            n = 0;
        }
    }

    /// The shared clock's current tick.
    pub fn now(&self) -> Tick {
        self.clock.now()
    }

    /// The options the fleet was opened with (shard copies differ only
    /// in `auto_advance_clock`).
    pub fn options(&self) -> &DbOptions {
        &self.opts
    }

    /// Fleet-wide stats: every shard's [`StatsSnapshot`] merged (sums,
    /// maxima, and conservatively merged histogram summaries), with the
    /// shared cache and memory-budget gauges filled in exactly once —
    /// shard snapshots leave shared-scope fields zero precisely so this
    /// sum cannot count the single shared instance N times. The fold
    /// starts from the first shard, so a fleet of one is its engine.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let mut s = self
            .shards
            .iter()
            .map(Db::stats_snapshot)
            .reduce(|acc, s| acc.merge(&s))
            .expect("a fleet has at least one shard");
        s.fill_shared(self.cache.as_deref(), self.memory.as_deref());
        s
    }

    /// Per-shard stats snapshots, in shard order. Shared-scope cache
    /// and budget fields are zero here (the cache is fleet-wide); see
    /// [`ShardedDb::stats_snapshot`] for the filled fleet view.
    pub fn shard_stats(&self) -> Vec<StatsSnapshot> {
        self.shards.iter().map(|d| d.stats_snapshot()).collect()
    }

    /// The fleet-wide block cache, when caching is enabled.
    pub fn block_cache(&self) -> Option<Arc<acheron_sstable::BlockCache>> {
        self.cache.clone()
    }

    /// The fleet-wide memory arbiter, when a budget is configured.
    pub fn memory_budget(&self) -> Option<Arc<MemoryBudget>> {
        self.memory.clone()
    }

    /// Fleet-wide tombstone gauges: per-level populations summed across
    /// shards, oldest ticks taken as minima — so the fleet gauge's age
    /// histogram and max age cover every shard's tombstones.
    pub fn tombstone_gauges(&self) -> TombstoneGauges {
        self.shards
            .iter()
            .map(Db::tombstone_gauges)
            .reduce(|acc, g| acc.merge(&g))
            .expect("a fleet has at least one shard")
    }

    /// Per-shard tombstone gauges, in shard order.
    pub fn shard_gauges(&self) -> Vec<TombstoneGauges> {
        self.shards.iter().map(Db::tombstone_gauges).collect()
    }

    /// Per-shard event-ring snapshots, in shard order. Rings are
    /// per-shard (seqnos are shard-local), so they are exposed side by
    /// side rather than merged.
    pub fn shard_events(&self) -> Vec<EventSnapshot> {
        self.shards.iter().map(Db::events).collect()
    }

    /// Per-shard write pressure, in shard order.
    pub fn shard_pressure(&self) -> Vec<WritePressure> {
        self.shards.iter().map(Db::write_pressure).collect()
    }

    /// Fleet-wide write pressure: worst-case composition (max gauges,
    /// OR flags). `stall` means *some* shard is stalled — per-key
    /// admission should consult the owning shard's entry of
    /// [`ShardedDb::shard_pressure`] instead, but broadcast writes
    /// (range deletes) and pacing decisions want the fleet view.
    pub fn write_pressure(&self) -> WritePressure {
        WritePressure::worst(&self.shard_pressure())
    }

    /// Total live point tombstones across the fleet.
    pub fn live_tombstones(&self) -> u64 {
        self.shards.iter().map(Db::live_tombstones).sum()
    }

    /// Age of the oldest live tombstone anywhere in the fleet — the
    /// number the fleet's FADE promise is judged by: it must stay at or
    /// under `D_th` on *every* shard, so the max is what `metrics` and
    /// the doctor report.
    pub fn fleet_max_tombstone_age(&self) -> Option<Tick> {
        self.shards
            .iter()
            .filter_map(Db::oldest_live_tombstone_age)
            .max()
    }

    /// Fleet-wide delete-lifecycle audit: the union of every shard's
    /// cohort ledger, judged against the fleet clock and the shared
    /// `D_th`. Cohort records carry their shard index, so the union is
    /// a plain concatenation — no cross-shard merging is needed, and a
    /// violation names the exact (shard, epoch) cohort responsible.
    pub fn delete_audit(&self) -> DeleteAudit {
        let mut fleet = self
            .shards
            .iter()
            .map(Db::delete_audit)
            .reduce(|mut fleet, a| {
                fleet.cohorts.extend(a.cohorts);
                fleet.oldest_live_tombstone_tick = min_tick(
                    fleet.oldest_live_tombstone_tick,
                    a.oldest_live_tombstone_tick,
                );
                fleet.oldest_vlog_dead_tick =
                    min_tick(fleet.oldest_vlog_dead_tick, a.oldest_vlog_dead_tick);
                fleet
            })
            .expect("a fleet has at least one shard");
        fleet.now = self.clock.now();
        fleet.cohorts.sort_by_key(|c| (c.shard, c.epoch));
        fleet
    }

    /// The Prometheus exposition: the merged engine view over the
    /// snapshot's pairs followed by `extra` (a server's pressure and
    /// connection metrics), then — when the root has a shard map — the
    /// shard count, per-shard series and the fleet-wide maximum
    /// tombstone age.
    pub fn render_metrics(&self, extra: &[(String, u64)]) -> String {
        let mut pairs = self.stats_snapshot().to_pairs();
        pairs.extend_from_slice(extra);
        let d_th = self
            .opts
            .fade
            .as_ref()
            .map(|f| f.delete_persistence_threshold);
        let mut text =
            crate::obs::render_prometheus(&pairs, &self.tombstone_gauges(), self.now(), d_th);
        if self.shard_map {
            text.push_str(&self.shard_metrics_lines());
        }
        text
    }

    /// Shard count, per-shard tombstone / pressure / memory series and
    /// the fleet-wide maximum tombstone age (0 when no tombstone is live
    /// — always emitted so dashboards can alert on it unconditionally).
    fn shard_metrics_lines(&self) -> String {
        let now = self.now();
        let gauges = self.shard_gauges();
        let pressure = self.shard_pressure();
        // Per-shard memory split: each shard's write-buffer allowance
        // under the shared arbiter and its pinned filter/metadata
        // contribution. The fleet totals are in the merged snapshot
        // (`db_memory_*`).
        let stats = self.shard_stats();
        let mut x = Exposition::default();
        x.gauge("db_shards", None, self.shard_count() as u64);
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
            for i in 0..self.shard_count() {
                x.gauge(family, Some(("shard", &i)), value(i));
            }
        }
        x.gauge(
            "db_fleet_max_tombstone_age_ticks",
            None,
            self.fleet_max_tombstone_age().unwrap_or(0),
        );
        x.finish()
    }

    /// The `events` text: the engine's ring, or — when the root has a
    /// shard map — every shard's ring in its own section.
    pub fn events_text(&self) -> String {
        if self.shard_map {
            crate::obs::render_sharded_events(&self.shard_events())
        } else {
            crate::obs::render_events(&self.shards[0].events())
        }
    }

    /// Recently sampled op traces across the fleet, newest last within
    /// each shard. Trace ids are fleet-unique (the shards share one
    /// allocator), so the concatenation is unambiguous.
    pub fn recent_traces(&self) -> Vec<OpTrace> {
        self.shards.iter().flat_map(Db::recent_traces).collect()
    }

    /// Verify every shard's in-memory invariants.
    pub fn verify_integrity(&self) -> Result<()> {
        for db in &self.shards {
            db.verify_integrity()?;
        }
        Ok(())
    }
}

/// Offline integrity check of a sharded root: verify the shard map,
/// then run the single-engine doctor over every shard. Returns one
/// report per shard, in shard order. Like [`doctor::check_db`], this
/// never mutates the directory.
pub fn check_sharded_db(fs: &dyn Vfs, dir: &str, d_th: Option<Tick>) -> Result<Vec<DoctorReport>> {
    let Some(n) = read_shard_map(fs, dir)? else {
        return Err(Error::corruption(
            "no SHARDMAP file: not a sharded database root",
        ));
    };
    (0..n as usize)
        .map(|i| doctor::check_db_with_threshold(fs, &shard_dir(dir, i), d_th))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use acheron_vfs::MemFs;

    fn open_mem(shards: usize) -> (Arc<MemFs>, ShardedDb) {
        let fs = Arc::new(MemFs::new());
        let db =
            ShardedDb::open(fs.clone() as Arc<dyn Vfs>, "db", DbOptions::small(), shards).unwrap();
        (fs, db)
    }

    #[test]
    fn routing_is_stable_and_total() {
        for shards in [1usize, 2, 3, 8] {
            for key in [&b"a"[..], b"user000000000042", b"", b"\xff\xff"] {
                let s = shard_of(key, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(key, shards), "routing must be deterministic");
            }
        }
        // The hash actually spreads: 256 keys over 4 shards never land
        // all on one shard.
        let mut counts = [0usize; 4];
        for i in 0..256u32 {
            counts[shard_of(format!("key{i:06}").as_bytes(), 4)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }

    #[test]
    fn put_get_delete_route_and_round_trip() {
        let (_fs, db) = open_mem(4);
        for i in 0..200u32 {
            db.put(format!("key{i:06}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        for i in 0..200u32 {
            assert_eq!(
                db.get(format!("key{i:06}").as_bytes()).unwrap().unwrap(),
                format!("v{i}").into_bytes()
            );
        }
        db.delete(b"key000007").unwrap();
        assert_eq!(db.get(b"key000007").unwrap(), None);
        // Every shard received some share of the keys.
        let total: u64 = db.shard_stats().iter().map(|s| s.puts).sum();
        assert_eq!(total, 200);
        assert!(db.shard_stats().iter().all(|s| s.puts > 0));
        db.verify_integrity().unwrap();
    }

    #[test]
    fn router_ticks_once_per_op_like_a_single_engine() {
        let (_fs, db) = open_mem(3);
        assert_eq!(db.now(), 0);
        db.put(b"a", b"1").unwrap();
        db.put(b"b", b"2").unwrap();
        db.delete(b"a").unwrap();
        db.range_delete_secondary(0, 10).unwrap();
        // 4 logical ops -> 4 ticks, despite the broadcast touching 3
        // shards.
        assert_eq!(db.now(), 4);
        // Reads do not tick.
        db.get(b"b").unwrap();
        db.scan(b"", b"\xff").unwrap();
        assert_eq!(db.now(), 4);
    }

    #[test]
    fn cross_shard_scans_merge_in_key_order() {
        let (_fs, db) = open_mem(4);
        let mut keys: Vec<String> = (0..300u32).map(|i| format!("key{i:06}")).collect();
        for k in &keys {
            db.put(k.as_bytes(), b"v").unwrap();
        }
        keys.sort();
        let rows = db.scan(b"", b"\xff").unwrap();
        let got: Vec<String> = rows
            .iter()
            .map(|(k, _)| String::from_utf8(k.clone()).unwrap())
            .collect();
        assert_eq!(got, keys);
    }

    #[test]
    fn snapshot_isolates_from_later_writes() {
        let (_fs, db) = open_mem(2);
        db.put(b"a", b"old").unwrap();
        db.put(b"b", b"old").unwrap();
        let snap = db.snapshot();
        db.put(b"a", b"new").unwrap();
        db.delete(b"b").unwrap();
        db.put(b"c", b"new").unwrap();
        let rows = db.scan_at(&snap, b"", b"\xff").unwrap();
        assert_eq!(
            rows,
            vec![
                (b"a".to_vec(), b"old".to_vec()),
                (b"b".to_vec(), b"old".to_vec())
            ]
        );
    }

    #[test]
    fn range_delete_broadcasts_to_every_shard() {
        let (_fs, db) = open_mem(4);
        for i in 0..100u32 {
            db.put_with_dkey(format!("key{i:06}").as_bytes(), b"v", u64::from(i))
                .unwrap();
        }
        db.range_delete_secondary(20, 59).unwrap();
        let rows = db.scan(b"", b"\xff").unwrap();
        assert_eq!(rows.len(), 60, "40 dkeys erased across all shards");
    }

    #[test]
    fn reopen_recovers_every_shard() {
        let fs = Arc::new(MemFs::new());
        {
            let db =
                ShardedDb::open(fs.clone() as Arc<dyn Vfs>, "db", DbOptions::small(), 4).unwrap();
            for i in 0..500u32 {
                db.put(format!("key{i:06}").as_bytes(), format!("v{i}").as_bytes())
                    .unwrap();
            }
            db.flush().unwrap();
        }
        let db = ShardedDb::open(fs as Arc<dyn Vfs>, "db", DbOptions::small(), 4).unwrap();
        for i in 0..500u32 {
            assert_eq!(
                db.get(format!("key{i:06}").as_bytes()).unwrap().unwrap(),
                format!("v{i}").into_bytes()
            );
        }
    }

    #[test]
    fn resharding_is_rejected() {
        let fs = Arc::new(MemFs::new());
        drop(ShardedDb::open(fs.clone() as Arc<dyn Vfs>, "db", DbOptions::small(), 4).unwrap());
        let err = ShardedDb::open(fs as Arc<dyn Vfs>, "db", DbOptions::small(), 8).unwrap_err();
        assert!(err.to_string().contains("resharding"), "{err}");
    }

    #[test]
    fn missing_shard_fails_loudly_not_silently() {
        let fs = Arc::new(MemFs::new());
        {
            let db =
                ShardedDb::open(fs.clone() as Arc<dyn Vfs>, "db", DbOptions::small(), 3).unwrap();
            for i in 0..50u32 {
                db.put(format!("key{i:06}").as_bytes(), b"v").unwrap();
            }
            db.flush().unwrap();
        }
        // Lose shard 1's CURRENT pointer (a wiped or unmounted shard).
        fs.delete(&join(&shard_dir("db", 1), "CURRENT")).unwrap();
        let err = ShardedDb::open(fs as Arc<dyn Vfs>, "db", DbOptions::small(), 3).unwrap_err();
        assert!(err.is_corruption(), "{err}");
        assert!(err.to_string().contains("shard 1"), "{err}");
    }

    #[test]
    fn corrupt_shard_map_is_an_error_not_a_fresh_fleet() {
        let fs = Arc::new(MemFs::new());
        drop(ShardedDb::open(fs.clone() as Arc<dyn Vfs>, "db", DbOptions::small(), 2).unwrap());
        let path = join("db", SHARD_MAP_NAME);
        let mut data = fs.read_all(&path).unwrap().to_vec();
        data[9] ^= 0xff;
        fs.write_all(&path, &data).unwrap();
        let err = ShardedDb::open(fs as Arc<dyn Vfs>, "db", DbOptions::small(), 2).unwrap_err();
        assert!(err.is_corruption(), "{err}");
    }

    #[test]
    fn invalid_shard_counts_rejected() {
        let fs = Arc::new(MemFs::new());
        assert!(ShardedDb::open(fs.clone() as Arc<dyn Vfs>, "db", DbOptions::small(), 0).is_err());
        assert!(
            ShardedDb::open(fs as Arc<dyn Vfs>, "db", DbOptions::small(), MAX_SHARDS + 1).is_err()
        );
    }

    #[test]
    fn single_shard_fleet_matches_single_engine_results() {
        // The degenerate fleet must behave exactly like one engine on
        // the same op stream — same values, same clock.
        let single = Db::open(
            Arc::new(MemFs::new()) as Arc<dyn Vfs>,
            "db",
            DbOptions::small(),
        )
        .unwrap();
        let (_fs, fleet) = open_mem(1);
        for i in 0..300u32 {
            let k = format!("key{i:06}");
            single
                .put(k.as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
            fleet.put(k.as_bytes(), format!("v{i}").as_bytes()).unwrap();
            if i % 5 == 0 {
                single.delete(k.as_bytes()).unwrap();
                fleet.delete(k.as_bytes()).unwrap();
            }
        }
        single.range_delete_secondary(50, 90).unwrap();
        fleet.range_delete_secondary(50, 90).unwrap();
        assert_eq!(single.now(), fleet.now(), "identical tick sequences");
        let srows: Vec<(Vec<u8>, Vec<u8>)> = single
            .scan(b"", b"\xff")
            .unwrap()
            .into_iter()
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect();
        assert_eq!(srows, fleet.scan(b"", b"\xff").unwrap());
    }

    /// A wrapped engine answers every observability question exactly as
    /// the engine does, and the router never ticks on its behalf.
    #[test]
    fn a_one_engine_fleet_is_its_engine() {
        let opts = DbOptions::small()
            .with_fade(5_000)
            .with_value_separation(64)
            .with_trace_sampling(4)
            .with_memory_budget(1 << 20);
        let db = Db::open(Arc::new(MemFs::new()), "db", opts).unwrap();
        let fleet = ShardedDb::from(db.clone());
        let mut ops = 0;
        let mut step = |op: &dyn Fn() -> Result<()>| {
            let before = db.now();
            op().unwrap();
            ops += 1;
            assert_eq!(db.now(), before + 1, "op {ops} ticked once");
        };
        for i in 0..600u32 {
            let key = format!("key{i:05}");
            let key = key.as_bytes();
            let big = [b'v'; 200];
            match i % 6 {
                0 => step(&|| fleet.put(key, b"small")),
                1 => step(&|| fleet.put_with_dkey(key, &big, u64::from(i))),
                2 => step(&|| fleet.delete(format!("key{:05}", i / 2).as_bytes())),
                3 => step(&|| fleet.put_traced(key, &big, Some(u64::from(i))).map(drop)),
                4 => step(&|| fleet.delete_traced(key, None).map(drop)),
                _ => {
                    fleet.get_traced(key, Some(u64::from(i))).unwrap();
                    fleet.get(key).unwrap();
                }
            }
            if i % 150 == 149 {
                step(&|| fleet.range_delete_secondary(u64::from(i) - 40, u64::from(i) - 20));
                step(&|| fleet.range_delete_keys(b"key00010", b"key00030"));
                fleet.flush().unwrap();
            }
        }
        fleet.scan(b"", b"\xff").unwrap();
        assert_eq!(fleet.now(), db.now());
        assert_eq!(
            fleet.stats_snapshot().to_pairs(),
            db.stats_snapshot().to_pairs()
        );
        assert_eq!(
            format!("{:?}", fleet.tombstone_gauges()),
            format!("{:?}", db.tombstone_gauges())
        );
        assert_eq!(fleet.delete_audit().render(), db.delete_audit().render());
        assert_eq!(fleet.events_text(), crate::obs::render_events(&db.events()));
        assert_eq!(fleet.recent_traces(), db.recent_traces());
        assert!(!db.recent_traces().is_empty());
        assert_eq!(fleet.write_pressure(), db.write_pressure());
        // No per-shard series: the exposition is the engine's own.
        assert!(!fleet.render_metrics(&[]).contains("db_shard"));
    }

    #[test]
    fn fleet_gauges_aggregate_across_shards() {
        let (_fs, db) = open_mem(4);
        for i in 0..400u32 {
            db.put(format!("key{i:06}").as_bytes(), &[b'v'; 32])
                .unwrap();
        }
        for i in 0..100u32 {
            db.delete(format!("key{i:06}").as_bytes()).unwrap();
        }
        db.flush().unwrap();
        let gauges = db.tombstone_gauges();
        let per_shard: u64 = db.shard_gauges().iter().map(|g| g.live_tombstones()).sum();
        assert_eq!(gauges.live_tombstones(), per_shard);
        assert!(gauges.live_tombstones() > 0);
        let fleet_age = db.fleet_max_tombstone_age().unwrap();
        let max_shard_age = (0..4)
            .filter_map(|i| db.shard(i).oldest_live_tombstone_age())
            .max()
            .unwrap();
        assert_eq!(fleet_age, max_shard_age);
        let merged = db.stats_snapshot();
        assert_eq!(merged.puts, 400);
        assert_eq!(merged.deletes, 100);
    }

    /// The metric table's `shared_once` rows against a live fleet: zero
    /// in every shard's snapshot, and in the fleet's exactly what the one
    /// shared cache and budget report — once, not once per shard.
    #[test]
    fn shared_once_metrics_are_zero_per_shard_and_filled_once_by_the_fleet() {
        let opts = DbOptions::small().with_memory_budget(1 << 20);
        let db = ShardedDb::open(Arc::new(MemFs::new()), "db", opts, 4).unwrap();
        for i in 0..400u32 {
            db.put(format!("key{i:06}").as_bytes(), &[b'v'; 32])
                .unwrap();
        }
        db.flush().unwrap();
        for i in 0..400u32 {
            db.get(format!("key{i:06}").as_bytes()).unwrap().unwrap();
        }
        let shared_rows: Vec<&str> = StatsSnapshot::ROWS
            .iter()
            .filter(|row| row.2 == "shared_once")
            .map(|row| row.1)
            .collect();
        let shared = |name: &str| shared_rows.contains(&name);
        for shard in db.shard_stats() {
            for (name, value) in shard.to_pairs() {
                assert!(!shared(&name) || value == 0, "{name} = {value} on a shard");
            }
        }
        let mut once = StatsSnapshot::default();
        once.fill_shared(db.cache.as_deref(), db.memory.as_deref());
        let fleet = db.stats_snapshot().to_pairs();
        let mut checked = 0;
        for (pair, want) in fleet.iter().zip(once.to_pairs()) {
            if shared(&pair.0) {
                assert_eq!(*pair, want);
                checked += 1;
            }
        }
        assert_eq!(checked, shared_rows.len());
        assert!(checked > 0);
        assert_eq!(once.memory_budget_bytes, 1 << 20);
        assert!(once.cache_hits + once.cache_misses > 0);
    }

    #[test]
    fn sharded_doctor_checks_every_shard() {
        let fs = Arc::new(MemFs::new());
        {
            let db =
                ShardedDb::open(fs.clone() as Arc<dyn Vfs>, "db", DbOptions::small(), 3).unwrap();
            for i in 0..300u32 {
                db.put(format!("key{i:06}").as_bytes(), &[b'v'; 32])
                    .unwrap();
                if i % 4 == 0 {
                    db.delete(format!("key{:06}", i / 2).as_bytes()).unwrap();
                }
            }
            db.flush().unwrap();
        }
        let reports = check_sharded_db(fs.as_ref(), "db", None).unwrap();
        assert_eq!(reports.len(), 3);
        assert!(reports.iter().all(|r| r.tables_checked > 0));
        // A plain directory is not a sharded root.
        let plain = MemFs::new();
        plain.mkdir_all("x").unwrap();
        assert!(check_sharded_db(&plain, "x", None).is_err());
    }
}
