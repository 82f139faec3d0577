//! End-to-end tests for horizontal keyspace sharding: partitioning must
//! change the layout, never the answer.
//!
//! * the same seeded workload driven against an embedded single-shard
//!   engine and a four-shard server is *result-identical* (per-op
//!   digests and full-scan byte equality);
//! * a power cut swept across the durability points of a sharded run
//!   reopens with **every** shard recovered — acked writes readable, no
//!   resurrected deletes, and never a silently dropped shard;
//! * per-connection token-bucket admission control sheds excess load as
//!   `Busy` at the wire while control-plane requests stay exempt;
//! * a sharded server's metrics aggregate per-shard series plus the
//!   fleet-wide maximum tombstone age, and its event ring is rendered
//!   per shard.

use std::collections::BTreeSet;
use std::sync::Arc;

use acheron::testutil::{model_after, CrashConfig, CrashWorkload, WorkloadOp};
use acheron::{Db, DbOptions, ShardedDb};
use acheron_server::{
    Client, ClientOptions, RateLimitConfig, Request, Response, Server, ServerOptions,
};
use acheron_vfs::{FaultVfs, MemFs, Vfs};
use acheron_workload::{run_ops, KeyDistribution, OpMix, WorkloadGen, WorkloadSpec};

fn open_sharded(shards: usize) -> Arc<ShardedDb> {
    Arc::new(ShardedDb::open(Arc::new(MemFs::new()), "db", DbOptions::small(), shards).unwrap())
}

// ---------------------------------------------------------------------
// Digest equivalence: sharded server vs. single-shard embedded
// ---------------------------------------------------------------------

#[test]
fn sharded_server_matches_single_shard_embedded_run() {
    let ops = WorkloadGen::new(WorkloadSpec::new(
        OpMix::mixed(40, 10, 40, 10),
        KeyDistribution::uniform(2_000),
    ))
    .take(6_000);

    let embedded_db = Arc::new(Db::open(Arc::new(MemFs::new()), "db", DbOptions::small()).unwrap());
    let embedded = run_ops(&*embedded_db, &ops).unwrap();

    let served_db = open_sharded(4);
    let mut server = Server::start(
        Arc::clone(&served_db),
        "127.0.0.1:0",
        ServerOptions::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let remote = run_ops(&mut client, &ops).unwrap();

    // Per-op read results digested identically...
    assert_eq!(embedded.check_digest, remote.check_digest);
    assert_eq!(embedded.get_hits, remote.get_hits);
    assert_eq!(embedded.get_misses, remote.get_misses);
    assert_eq!(embedded.scan_rows, remote.scan_rows);

    // ...the final contents are byte-identical through the wire...
    let embedded_rows: Vec<(Vec<u8>, Vec<u8>)> = embedded_db
        .scan(b"", &[0xff; 16])
        .unwrap()
        .into_iter()
        .map(|(k, v)| (k.to_vec(), v.to_vec()))
        .collect();
    let remote_rows = client.scan(b"", &[0xff; 16]).unwrap();
    assert_eq!(embedded_rows, remote_rows);
    assert!(!embedded_rows.is_empty(), "workload must leave data behind");

    // ...and the router ticked the fleet clock exactly like one engine.
    assert_eq!(served_db.now(), embedded_db.now());

    server.shutdown();
    embedded_db.verify_integrity().unwrap();
    served_db.verify_integrity().unwrap();
}

/// The same seeded workload — now including sort-key range deletes,
/// which the router must broadcast to every shard — drives an embedded
/// single-shard engine and a four-shard server; the surviving contents
/// must be byte-identical through the wire.
#[test]
fn sharded_range_deletes_match_single_shard_embedded() {
    let ops = CrashWorkload {
        seed: 0x5EED_0019,
        ops: 1_200,
        key_space: 512,
        delete_percent: 20,
        range_delete_percent: 12,
        large_value_percent: 15,
    }
    .generate();
    let range_ops = ops
        .iter()
        .filter(|op| matches!(op, WorkloadOp::RangeDeleteKeys { .. }))
        .count() as u64;
    assert!(range_ops > 20, "workload must exercise range deletes");

    let embedded_db = Arc::new(Db::open(Arc::new(MemFs::new()), "db", DbOptions::small()).unwrap());
    for op in &ops {
        acheron::testutil::apply_op(&embedded_db, op).unwrap();
    }

    let served_db = open_sharded(4);
    let mut server = Server::start(
        Arc::clone(&served_db),
        "127.0.0.1:0",
        ServerOptions::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for op in &ops {
        match op {
            WorkloadOp::Put { key, stamp, large } => client
                .put(&key_bytes(*key), &value_bytes(*stamp, *large))
                .unwrap(),
            WorkloadOp::Delete { key } => client.delete(&key_bytes(*key)).unwrap(),
            WorkloadOp::RangeDeleteKeys { lo, hi } => client
                .range_delete_keys(&key_bytes(*lo), &key_bytes(*hi))
                .unwrap(),
        }
    }

    let embedded_rows: Vec<(Vec<u8>, Vec<u8>)> = embedded_db
        .scan(b"", &[0xff; 16])
        .unwrap()
        .into_iter()
        .map(|(k, v)| (k.to_vec(), v.to_vec()))
        .collect();
    let remote_rows = client.scan(b"", &[0xff; 16]).unwrap();
    assert_eq!(embedded_rows, remote_rows);
    assert!(!embedded_rows.is_empty(), "workload must leave data behind");

    // The broadcast really reached every shard: the fleet-summed
    // counter records one range delete per shard per op.
    let stats = client.stats().unwrap();
    let fleet_range_deletes = stats
        .iter()
        .find(|(n, _)| n == "sort_range_deletes")
        .map(|(_, v)| *v)
        .expect("sort_range_deletes missing from stats");
    assert_eq!(fleet_range_deletes, range_ops * SHARDS as u64);

    server.shutdown();
    embedded_db.verify_integrity().unwrap();
    served_db.verify_integrity().unwrap();
}

// ---------------------------------------------------------------------
// Power-cut sweep: every shard recovered, none silently dropped
// ---------------------------------------------------------------------

const SHARDS: usize = 4;

fn key_bytes(k: u32) -> Vec<u8> {
    format!("key{k:06}").into_bytes()
}

fn value_bytes(stamp: u64, large: bool) -> Vec<u8> {
    // Must mirror testutil's encoding byte for byte: the embedded
    // engine writes through `apply_op`, the served fleet through here.
    let mut v = format!("stamp{stamp:010}").into_bytes();
    if large {
        while v.len() < acheron::testutil::LARGE_VALUE_BYTES {
            v.push(b'#');
        }
    }
    v
}

fn parse_stamp(v: &[u8]) -> Option<u64> {
    std::str::from_utf8(v)
        .ok()?
        .strip_prefix("stamp")?
        .get(..10)?
        .parse()
        .ok()
}

fn apply(db: &ShardedDb, op: &WorkloadOp) -> acheron_types::Result<()> {
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

/// Run the crash workload against a fresh sharded fleet, cut power at
/// the `point`-th durability point, reboot, reopen, and check the
/// recovery invariants across every shard.
fn run_sharded_crash_point(cfg: &CrashConfig, point: u64) -> Vec<String> {
    let ops = cfg.workload.generate();
    let fault = FaultVfs::with_seed(
        Arc::new(MemFs::new()),
        cfg.workload.seed ^ point.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    fault.set_cut_durability(cfg.cut);
    let mut violations = Vec::new();

    let db = ShardedDb::open(Arc::new(fault.clone()), "db", cfg.db_options(), SHARDS)
        .expect("clean open");
    fault.reset_points();
    fault.arm_power_cut_at(point);
    let mut acked = 0usize;
    let mut in_flight = false;
    for op in &ops {
        match apply(&db, op) {
            Ok(()) => acked += 1,
            Err(_) => {
                // The op that surfaced the crash is the single op whose
                // durability is legitimately ambiguous.
                in_flight = true;
                break;
            }
        }
    }
    drop(db);
    fault.reboot();

    match ShardedDb::open(Arc::new(fault.clone()), "db", cfg.db_options(), SHARDS) {
        Err(e) => violations.push(format!("reopen after crash failed: {e}")),
        Ok(db) => {
            // The shard map must still describe the full fleet — a
            // partial reopen would be a silent data loss across an
            // entire hash class.
            assert_eq!(db.shard_count(), SHARDS);

            let expect = model_after(&ops, acked);
            let next = (in_flight && acked < ops.len())
                .then(|| (ops[acked], model_after(&ops, acked + 1)));
            let keys: BTreeSet<u32> = ops.iter().flat_map(|op| op.keys()).collect();
            for key in keys {
                let got = match db.get(&key_bytes(key)) {
                    Ok(v) => v,
                    Err(e) => {
                        violations.push(format!("key {key}: read after recovery failed: {e}"));
                        continue;
                    }
                };
                let got_stamp = got.as_deref().and_then(parse_stamp);
                if got.is_some() && got_stamp.is_none() {
                    violations.push(format!("key {key}: unparseable recovered value"));
                    continue;
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
                violations.push(format!(
                    "key {key}: expected stamp {want:?} after {acked} acked ops, \
                     found {got_stamp:?}"
                ));
            }
            if let Err(e) = db.verify_integrity() {
                violations.push(format!("verify_integrity after recovery: {e}"));
            }
        }
    }
    violations
        .into_iter()
        .map(|v| format!("point {point}: {v}"))
        .collect()
}

#[test]
fn power_cut_sweep_recovers_every_shard() {
    let cfg = CrashConfig {
        workload: CrashWorkload {
            ops: 250,
            ..CrashWorkload::default()
        },
        ..CrashConfig::default()
    };

    // Count the durability points of the full sharded run with no fault
    // armed, then sweep a spread of crash instants across that space.
    let fault = FaultVfs::with_seed(Arc::new(MemFs::new()), cfg.workload.seed);
    fault.set_cut_durability(cfg.cut);
    let db = ShardedDb::open(Arc::new(fault.clone()), "db", cfg.db_options(), SHARDS)
        .expect("clean open");
    fault.reset_points();
    for op in cfg.workload.generate() {
        apply(&db, &op).expect("no fault armed");
    }
    drop(db);
    let total = fault.durability_points();
    assert!(total > 10, "workload must generate real durability points");

    let sweep = 12;
    let mut violations = Vec::new();
    for i in 0..sweep {
        // Even spread, skipping point 0 (crash before any durability).
        let point = 1 + i * total / sweep;
        violations.extend(run_sharded_crash_point(&cfg, point));
    }
    assert!(violations.is_empty(), "{violations:#?}");
}

#[test]
fn crashed_fleet_rejects_resharding_on_reopen() {
    // A crash must not create a window where the fleet silently reopens
    // at a different width: the durable shard map pins the count.
    let cfg = CrashConfig::default();
    let fault = FaultVfs::with_seed(Arc::new(MemFs::new()), 0xDEAD);
    fault.set_cut_durability(cfg.cut);
    let db = ShardedDb::open(Arc::new(fault.clone()), "db", cfg.db_options(), SHARDS)
        .expect("clean open");
    fault.reset_points();
    fault.arm_power_cut_at(40);
    for op in cfg.workload.generate() {
        if apply(&db, &op).is_err() {
            break;
        }
    }
    drop(db);
    fault.reboot();

    let fs: Arc<dyn Vfs> = Arc::new(fault.clone());
    ShardedDb::open(Arc::clone(&fs), "db", cfg.db_options(), SHARDS / 2).unwrap_err();
    ShardedDb::open(fs, "db", cfg.db_options(), SHARDS).unwrap();
}

// ---------------------------------------------------------------------
// Admission control at the wire
// ---------------------------------------------------------------------

#[test]
fn rate_limited_connections_shed_busy_and_recover() {
    let db = open_sharded(2);
    let mut server = Server::start(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerOptions {
            // 1 op/sec refill: within the test's lifetime the bucket is
            // effectively just its burst, so outcomes are deterministic.
            rate_limit: Some(RateLimitConfig {
                ops_per_sec: 1,
                burst: 5,
            }),
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let mut client = Client::connect_with(
        server.local_addr(),
        ClientOptions {
            busy_retries: 0,
            ..ClientOptions::default()
        },
    )
    .unwrap();

    let mut admitted = 0u64;
    let mut shed = 0u64;
    for i in 0..20u32 {
        let req = Request::Put {
            key: format!("key{i:06}").into_bytes(),
            value: b"v".to_vec(),
            dkey: None,
        };
        match client.request(&req).unwrap() {
            Response::Unit => admitted += 1,
            Response::Busy => shed += 1,
            other => panic!("unexpected response: {other:?}"),
        }
    }
    // The burst admits the first 5 ops; a slow refill may sneak in a
    // token or two, but the bulk of the flood is shed pre-engine.
    assert!(admitted >= 5, "burst must be admitted, got {admitted}");
    assert!(shed >= 10, "flood must be shed, got {shed} of 20");

    // Control-plane requests are exempt: an operator can always probe
    // and scrape a saturated server.
    assert_eq!(client.request(&Request::Ping).unwrap(), Response::Unit);
    let metrics = client.metrics().unwrap();
    let rate_limited: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("server_rate_limited "))
        .expect("server_rate_limited metric present")
        .trim()
        .parse()
        .unwrap();
    assert_eq!(rate_limited, shed, "every shed op is counted");

    // A fresh connection gets a fresh bucket: shedding is per-conn.
    let mut second = Client::connect(server.local_addr()).unwrap();
    second.put(b"fresh-conn", b"v").unwrap();

    server.shutdown();
}

/// The stall tier on a fleet is per shard: with maintenance paused on
/// shard 0 alone, writes routed there are shed as `Busy` once it
/// stalls, writes to every other shard commit, and the control plane
/// keeps answering.
#[test]
fn a_stalled_shard_sheds_only_its_own_writes() {
    let opts = DbOptions {
        write_buffer_bytes: 4 << 10,
        max_imm_memtables: 1,
        background_threads: 1,
        ..DbOptions::default()
    };
    let db = Arc::new(ShardedDb::open(Arc::new(MemFs::new()), "db", opts, SHARDS).unwrap());
    let mut server =
        Server::start(Arc::clone(&db), "127.0.0.1:0", ServerOptions::default()).unwrap();
    let mut client = Client::connect_with(
        server.local_addr(),
        ClientOptions {
            busy_retries: 0,
            ..ClientOptions::default()
        },
    )
    .unwrap();
    let keys_of = |shard: usize| {
        (0u32..)
            .map(|i| format!("key{i:06}").into_bytes())
            .filter(move |k| acheron::shard_of(k, SHARDS) == shard)
    };
    let put = |key: Vec<u8>| Request::Put {
        key,
        value: vec![b'x'; 256],
        dkey: None,
    };

    let pause = db.shard(0).pause_maintenance();
    let mut shed = false;
    for key in keys_of(0).take(200) {
        match client.request(&put(key)).unwrap() {
            Response::Unit => {}
            Response::Busy => {
                shed = true;
                break;
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert!(shed, "paused shard 0 must stall and shed its writes");
    assert!(db.shard(0).write_pressure().stall);
    // Still stalled: its next write is shed too, while every other
    // shard commits (a few writes each, under one buffer, so no other
    // shard passes through its own brief stall while a flush runs).
    let key = keys_of(0).nth(500).unwrap();
    assert_eq!(client.request(&put(key)).unwrap(), Response::Busy);
    for shard in 1..SHARDS {
        for key in keys_of(shard).take(8) {
            assert_eq!(client.request(&put(key)).unwrap(), Response::Unit);
        }
    }
    assert_eq!(client.request(&Request::Ping).unwrap(), Response::Unit);
    let stats = client.stats().unwrap();
    assert!(stats
        .iter()
        .any(|(name, busy)| name == "server_busy_responses" && *busy >= 2));

    drop(pause);
    db.wait_idle().unwrap();
    client.put(b"after", b"recovery").unwrap();
    server.shutdown();
    db.verify_integrity().unwrap();
}

// ---------------------------------------------------------------------
// Fleet observability over the wire
// ---------------------------------------------------------------------

#[test]
fn sharded_server_exposes_fleet_and_per_shard_metrics() {
    let db = open_sharded(4);
    let mut server =
        Server::start(Arc::clone(&db), "127.0.0.1:0", ServerOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Spread writes and deletes across every shard, then leave some
    // tombstones live so the fleet age gauge has something to report.
    for i in 0..400u32 {
        client
            .put(format!("key{i:06}").as_bytes(), b"value")
            .unwrap();
    }
    for i in 0..200u32 {
        client.delete(format!("key{i:06}").as_bytes()).unwrap();
    }

    let metrics = client.metrics().unwrap();
    assert!(
        metrics.contains("\ndb_shards 4\n") || metrics.starts_with("db_shards 4\n"),
        "fleet width must be exported:\n{metrics}"
    );
    for shard in 0..4 {
        let series = format!("db_shard_live_tombstones{{shard=\"{shard}\"}}");
        assert!(
            metrics.contains(&series),
            "per-shard series {series} missing:\n{metrics}"
        );
    }
    assert!(
        metrics.contains("db_fleet_max_tombstone_age_ticks "),
        "fleet max tombstone age must always be exported:\n{metrics}"
    );

    // The aggregated engine counters cover the whole fleet, not one
    // shard: every put and delete the client sent is accounted for.
    let stats = client.stats().unwrap();
    let lookup = |name: &str| {
        stats
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("{name} missing from stats"))
    };
    assert_eq!(lookup("puts"), 400);
    assert_eq!(lookup("deletes"), 200);

    // The event ring is rendered per shard, with one section each.
    let events = client.events().unwrap();
    for shard in 0..4 {
        let header = format!("== shard {shard} ==");
        assert!(events.contains(&header), "missing {header}:\n{events}");
    }

    server.shutdown();
    db.verify_integrity().unwrap();
}

/// Value separation composes with sharding: each shard runs its own
/// value log, and the wire-level stats and metrics merge them into one
/// fleet-wide view.
#[test]
fn sharded_server_merges_vlog_stats_across_shards() {
    let mut opts = DbOptions::small().with_value_separation(64);
    opts.vlog_segment_bytes = 4 << 10;
    let db = Arc::new(ShardedDb::open(Arc::new(MemFs::new()), "db", opts, 4).unwrap());
    let mut server =
        Server::start(Arc::clone(&db), "127.0.0.1:0", ServerOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Every value clears the threshold, so every put is a vlog append
    // on whichever shard owns the key.
    for i in 0..200u32 {
        client
            .put(format!("key{i:06}").as_bytes(), &[b'v'; 300])
            .unwrap();
    }

    let stats = client.stats().unwrap();
    let lookup = |name: &str| {
        stats
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("{name} missing from stats"))
    };
    assert_eq!(
        lookup("vlog_appends"),
        200,
        "every separated put must be counted fleet-wide"
    );
    assert!(lookup("vlog_bytes_written") > 200 * 300);

    // Every shard took part (the keyspace is wide enough to hit all
    // four), so the fleet numbers are a genuine merge, not one shard.
    assert!(db.shard_stats().iter().all(|s| s.vlog_appends > 0));
    let merged = db.stats_snapshot();
    assert_eq!(
        merged.vlog_appends,
        db.shard_stats().iter().map(|s| s.vlog_appends).sum::<u64>()
    );

    // The fleet gauge view merges per-shard value-log liveness.
    let live: u64 = client
        .metrics()
        .unwrap()
        .lines()
        .find_map(|l| l.strip_prefix("db_vlog_live_bytes "))
        .expect("db_vlog_live_bytes metric present")
        .trim()
        .parse()
        .unwrap();
    assert!(live > 0, "live separated values must surface in the gauge");

    server.shutdown();
    db.verify_integrity().unwrap();
}
