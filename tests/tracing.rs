//! Per-op tracing tests: the sampler, the retention buffer, and the
//! wire-level `traced` round trip.
//!
//! * a wire-traced put and get round-trip with the client-chosen trace
//!   id and decompose into at least four named stages each;
//! * the power-of-two sampler captures exactly one in `2^k` ops and is
//!   silent (zero counters, zero retained traces) when disabled;
//! * a sharded fleet draws trace ids from one shared allocator, so ids
//!   are fleet-unique and the sampled-trace counter reflects ops, not
//!   ops multiplied by shard count;
//! * the stage sequence of every traced op path (put, delete, memtable
//!   and table get, separated put and get, sampled batch) is pinned by
//!   digest, on one engine and on a two-shard fleet.

use std::collections::BTreeSet;
use std::sync::Arc;

use acheron::db::WriteBatch;
use acheron::{Db, DbOptions, OpTrace, ShardedDb, TraceOp};
use acheron_server::{Client, Server, ServerOptions};
use acheron_types::checksum::crc32c;
use acheron_vfs::MemFs;

fn open(o: DbOptions) -> Db {
    Db::open(Arc::new(MemFs::new()), "db", o).unwrap()
}

fn span_names(spans: &[(String, u64)]) -> Vec<&str> {
    spans.iter().map(|(n, _)| n.as_str()).collect()
}

// ---------------------------------------------------------------------
// Wire round trip: the acceptance criterion
// ---------------------------------------------------------------------

/// A traced put and a traced get over the wire must come back with the
/// client-chosen trace id and decompose into >= 4 named stages each.
#[test]
fn wire_traced_put_and_get_decompose_into_named_stages() {
    let db = Arc::new(open(DbOptions::small()));
    let mut server = Server::start(db, "127.0.0.1:0", ServerOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let put = client
        .put_traced(b"traced-key", b"traced-value", 42)
        .unwrap();
    assert_eq!(
        put.trace_id, 42,
        "client-chosen id must survive the round trip"
    );
    assert_eq!(put.op, "put");
    assert!(
        put.spans.len() >= 4,
        "put trace must decompose into >= 4 stages, got {:?}",
        put.spans
    );
    let names = span_names(&put.spans);
    for required in [
        "wal_append_fsync_micros",
        "memtable_insert_micros",
        "total_micros",
    ] {
        assert!(
            names.contains(&required),
            "put trace missing {required}: {names:?}"
        );
    }
    // The admission stage depends on the commit path: synchronous
    // engines report throttle_wait, threaded ones commit_queue_wait.
    assert!(
        names.contains(&"throttle_wait_micros") || names.contains(&"commit_queue_wait_micros"),
        "put trace missing an admission stage: {names:?}"
    );
    assert!(put.value.is_none(), "a put carries no value payload");

    let get = client.get_traced(b"traced-key", 43).unwrap();
    assert_eq!(get.trace_id, 43);
    assert_eq!(get.op, "get");
    assert_eq!(get.value.as_deref(), Some(&b"traced-value"[..]));
    assert!(
        get.spans.len() >= 4,
        "get trace must decompose into >= 4 stages, got {:?}",
        get.spans
    );
    let names = span_names(&get.spans);
    for required in [
        "view_clone_micros",
        "memtable_probe_micros",
        "table_probes",
        "total_micros",
    ] {
        assert!(
            names.contains(&required),
            "get trace missing {required}: {names:?}"
        );
    }

    let del = client.delete_traced(b"traced-key", 44).unwrap();
    assert_eq!(del.trace_id, 44);
    assert_eq!(del.op, "delete");
    assert!(
        del.spans.len() >= 4,
        "delete trace too shallow: {:?}",
        del.spans
    );

    // Every wire-traced op is also retained server-side for `traces`.
    let listing = client.traces().unwrap();
    for needle in ["trace 42 op=put", "trace 43 op=get", "trace 44 op=delete"] {
        assert!(
            listing.contains(needle),
            "traces listing missing {needle:?}:\n{listing}"
        );
    }
    // Stage values in the listing are the rendered span names.
    assert!(listing.contains("total_micros"));
    server.shutdown();
}

/// The `total_micros` stage closes every trace and bounds each timed
/// sub-stage (total is wall time of the whole op).
#[test]
fn total_stage_bounds_timed_substages() {
    let db = open(DbOptions::small());
    let trace = db.put_traced(b"k", b"v", None).unwrap();
    let total = trace
        .spans
        .iter()
        .find_map(|(s, v)| (s.name() == "total_micros").then_some(*v))
        .expect("every trace ends with total_micros");
    for (stage, value) in &trace.spans {
        if stage.name().ends_with("_micros") && stage.name() != "total_micros" {
            assert!(
                *value <= total,
                "stage {} = {value} exceeds total {total}",
                stage.name()
            );
        }
    }
    assert_eq!(trace.op, TraceOp::Put);
}

// ---------------------------------------------------------------------
// Sampler behavior
// ---------------------------------------------------------------------

/// With `trace_sample_every = 1` every op lands in the retention
/// buffer; the stats counter agrees with the retained count.
#[test]
fn sampler_at_one_captures_every_op() {
    let db = open(DbOptions::small().with_trace_sampling(1));
    for i in 0..10u32 {
        db.put(format!("k{i:02}").as_bytes(), b"v").unwrap();
    }
    for i in 0..10u32 {
        db.get(format!("k{i:02}").as_bytes()).unwrap();
    }
    let traces = db.recent_traces();
    assert_eq!(traces.len(), 20, "1-in-1 sampling must capture all 20 ops");
    assert_eq!(db.stats().snapshot().traces_sampled, 20);
    assert_eq!(traces.iter().filter(|t| t.op == TraceOp::Put).count(), 10);
    assert_eq!(traces.iter().filter(|t| t.op == TraceOp::Get).count(), 10);
    for t in &traces {
        assert!(
            t.spans.iter().any(|(s, _)| s.name() == "total_micros"),
            "sampled trace missing total: {t:?}"
        );
    }
}

/// A power-of-two stride samples exactly one in `2^k` on a serial
/// driver.
#[test]
fn sampler_stride_is_exact_on_serial_ops() {
    let db = open(DbOptions::small().with_trace_sampling(4));
    for i in 0..64u32 {
        db.put(format!("k{i:02}").as_bytes(), b"v").unwrap();
    }
    assert_eq!(
        db.stats().snapshot().traces_sampled,
        16,
        "64 ops / 4 = 16 samples"
    );
    assert_eq!(db.recent_traces().len(), 16);
}

/// Sampling off (the default) retains nothing and counts nothing —
/// the zero-overhead configuration E17 measures.
#[test]
fn sampling_off_is_silent() {
    assert_eq!(
        DbOptions::default().trace_sample_every,
        0,
        "tracing must default to off"
    );
    let db = open(DbOptions::small());
    for i in 0..32u32 {
        db.put(format!("k{i:02}").as_bytes(), b"v").unwrap();
        db.get(format!("k{i:02}").as_bytes()).unwrap();
    }
    db.delete(b"k00").unwrap();
    assert!(db.recent_traces().is_empty());
    assert_eq!(db.stats().snapshot().traces_sampled, 0);
}

/// A non-power-of-two stride is a configuration error, not a silent
/// misconfiguration.
#[test]
fn sampler_stride_must_be_power_of_two() {
    let err = match Db::open(
        Arc::new(MemFs::new()),
        "db",
        DbOptions::small().with_trace_sampling(3),
    ) {
        Ok(_) => panic!("stride 3 must be rejected"),
        Err(e) => e,
    };
    assert!(err.to_string().contains("power of two"), "got: {err}");
}

// ---------------------------------------------------------------------
// Fleet scope: shared id allocator, un-multiplied counters
// ---------------------------------------------------------------------

/// All four shards draw trace ids from one shared allocator: ids are
/// unique across the fleet, and the aggregated sampled-trace counter
/// equals the op count (each op is routed to exactly one shard — the
/// counter must not scale with shard count).
#[test]
fn fleet_trace_ids_are_unique_and_counters_unmultiplied() {
    let db = ShardedDb::open(
        Arc::new(MemFs::new()),
        "db",
        DbOptions::small().with_trace_sampling(1),
        4,
    )
    .unwrap();
    let ops = 200u32;
    for i in 0..ops {
        db.put(format!("key{i:04}").as_bytes(), b"v").unwrap();
    }

    let traces = db.recent_traces();
    // Per-shard retention is bounded (64 per shard); with 200 ops over
    // 4 shards no shard overflows, so every op's trace is retained.
    assert_eq!(traces.len(), ops as usize);
    let ids: BTreeSet<u64> = traces.iter().map(|t| t.trace_id).collect();
    assert_eq!(ids.len(), traces.len(), "trace ids must be fleet-unique");

    // Shared-scope counter: 200 ops sampled once each, not once per
    // shard.
    assert_eq!(db.stats_snapshot().traces_sampled, u64::from(ops));
}

/// Explicitly traced ops through the sharded router keep the caller's
/// trace id and route to exactly one shard.
#[test]
fn sharded_traced_ops_propagate_ids() {
    let db = ShardedDb::open(Arc::new(MemFs::new()), "db", DbOptions::small(), 4).unwrap();
    let put = db.put_traced(b"alpha", b"1", Some(7)).unwrap();
    assert_eq!(put.trace_id, 7);
    assert_eq!(put.op, TraceOp::Put);

    let (value, get) = db.get_traced(b"alpha", Some(8)).unwrap();
    assert_eq!(value.as_deref(), Some(&b"1"[..]));
    assert_eq!(get.trace_id, 8);
    assert_eq!(get.op, TraceOp::Get);

    let del = db.delete_traced(b"alpha", Some(9)).unwrap();
    assert_eq!(del.trace_id, 9);
    assert_eq!(del.op, TraceOp::Delete);

    // With sampling off, only the three forced traces are retained —
    // exactly one shard retained each.
    let traces = db.recent_traces();
    assert_eq!(traces.len(), 3);
}

// ---------------------------------------------------------------------
// Trace shape: the stages every traced op path emits, pinned
// ---------------------------------------------------------------------

/// Stages whose value is a count, not a duration: their values are as
/// deterministic as the tree, so the pin covers them too.
const COUNT_STAGES: [&str; 5] = [
    "imm_probes",
    "table_probes",
    "seqno_skips",
    "bloom_prescreen_skips",
    "vlog_frames_appended",
];

/// One trace's shape as a line of text: the op, its stage names in
/// recording order, and the values of its count-valued stages.
/// `inline_maintenance_micros` is left out: it is recorded only when
/// the maintenance a commit ran took a nonzero number of microseconds,
/// so its presence depends on the host's speed.
fn shape(trace: &OpTrace) -> String {
    let mut line = format!("{:?}:", trace.op);
    for (name, value) in trace.named_spans() {
        if name == "inline_maintenance_micros" {
            continue;
        }
        line.push(' ');
        line.push_str(&name);
        if COUNT_STAGES.contains(&name.as_str()) {
            line.push_str(&format!("={value}"));
        }
    }
    line.push('\n');
    line
}

/// The traced ops a write or read path can take, on an engine whose
/// keys were seeded into a tree with several levels: a put, a delete,
/// a memtable get, a table get, a separated put and its get, and a
/// sampled batch.
fn trace_shapes(
    put: &dyn Fn(&[u8], &[u8]) -> OpTrace,
    delete: &dyn Fn(&[u8]) -> OpTrace,
    get: &dyn Fn(&[u8]) -> OpTrace,
    batch: &dyn Fn() -> OpTrace,
) -> String {
    let mut text = String::new();
    text += &shape(&put(b"fresh-key", b"small"));
    text += &shape(&delete(b"key00007"));
    text += &shape(&get(b"fresh-key"));
    text += &shape(&get(b"key00123"));
    text += &shape(&get(b"key99999"));
    text += &shape(&put(b"big-key", &[b'b'; 2048]));
    text += &shape(&get(b"big-key"));
    text += &shape(&batch());
    text
}

fn shape_opts() -> DbOptions {
    DbOptions {
        block_cache_bytes: 256 << 10,
        ..DbOptions::small()
            .with_value_separation(1024)
            .with_trace_sampling(1)
    }
}

fn seed_keys(put: &dyn Fn(&[u8], &[u8])) {
    for i in 0..1500u32 {
        put(format!("key{i:05}").as_bytes(), &[b'v'; 48]);
    }
}

fn sampled_batch(db: &Db) -> OpTrace {
    let mut batch = WriteBatch::new();
    batch.put(b"batch-a", b"1");
    batch.put(b"batch-b", &[b'c'; 2048]);
    batch.delete(b"key00042");
    db.write_batch(batch).unwrap();
    let traces = db.recent_traces();
    traces.last().cloned().expect("the batch was sampled")
}

/// The stage sequence of every traced op path, on one engine and on a
/// two-shard fleet, in the deterministic (synchronous, logical-clock)
/// mode. The benchmark's trace sink sums these stages by name, so a
/// refactor of the commit or read path must leave this digest where it
/// is; a change that adds, drops or reorders a stage moves it on
/// purpose.
///
/// Re-recorded once when gets began choosing each level's files from a
/// flat bounds index: a file outside the key is now a key-fence skip
/// even when its seqno range could not have won either, so the two gets
/// answered by the memtable read `bloom_prescreen_skips=8` (4 per shard)
/// where they read `seqno_skips=8`. Probes did not move.
#[test]
fn trace_shapes_are_pinned() {
    const DB_SHAPES: u32 = 0x8781_cb5b;
    const FLEET_SHAPES: u32 = 0x74f2_00aa;

    let db = open(shape_opts());
    seed_keys(&|k, v| db.put(k, v).unwrap());
    let db_text = trace_shapes(
        &|k, v| db.put_traced(k, v, None).unwrap(),
        &|k| db.delete_traced(k, None).unwrap(),
        &|k| db.get_traced(k, None).unwrap().1,
        &|| sampled_batch(&db),
    );

    let fleet = ShardedDb::open(Arc::new(MemFs::new()), "fleet", shape_opts(), 2).unwrap();
    seed_keys(&|k, v| fleet.put(k, v).unwrap());
    let fleet_text = trace_shapes(
        &|k, v| fleet.put_traced(k, v, None).unwrap(),
        &|k| fleet.delete_traced(k, None).unwrap(),
        &|k| fleet.get_traced(k, None).unwrap().1,
        &|| sampled_batch(fleet.shard(1)),
    );

    assert_eq!(
        (crc32c(db_text.as_bytes()), crc32c(fleet_text.as_bytes())),
        (DB_SHAPES, FLEET_SHAPES),
        "engine shapes:\n{db_text}\nfleet shapes:\n{fleet_text}"
    );
}
