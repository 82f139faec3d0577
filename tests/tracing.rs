//! Per-op tracing tests: the traced ops, the event ring they are read
//! back from, and the wire-level `traced` round trip.
//!
//! * a wire-traced put and get round-trip with the client-chosen trace
//!   id and decompose into at least four named stages each;
//! * every traced op, and only a traced op, leaves a whole trace in the
//!   ring, and the `traces` command reads them back in order, on one
//!   engine and on a fleet, even when two share a client-chosen id;
//! * once the ring wraps, a trace it has partly overwritten is left
//!   out, never returned short;
//! * a traced put keeps the delete key its request carries;
//! * a sharded fleet draws trace ids from one shared allocator, so ids
//!   are fleet-unique and the traced-op counter reflects ops, not ops
//!   multiplied by shard count;
//! * the stage sequence of every traced op path (put, delete, memtable
//!   and table get, separated put and get) is pinned by digest, on one
//!   engine and on a two-shard fleet.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use acheron::{shard_of, Db, DbOptions, Event, OpTrace, ShardedDb, TraceOp};
use acheron_server::{answer, Client, Request, Response, Server, ServerOptions};
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

    // Every wire-traced op is read back from the ring by `traces`.
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
// The ring is the recorder
// ---------------------------------------------------------------------

/// Every traced op leaves its whole trace in the ring; the stats
/// counter agrees with the count read back.
#[test]
fn recent_traces_folds_every_traced_op() {
    let db = open(DbOptions::small());
    for i in 0..10u32 {
        db.put_traced(format!("k{i:02}").as_bytes(), b"v", None)
            .unwrap();
    }
    for i in 0..10u32 {
        db.get_traced(format!("k{i:02}").as_bytes(), None).unwrap();
    }
    let traces = db.recent_traces();
    assert_eq!(traces.len(), 20, "all 20 traced ops read back");
    assert_eq!(db.stats().snapshot().traces_sampled, 20);
    assert_eq!(traces.iter().filter(|t| t.op == TraceOp::Put).count(), 10);
    assert_eq!(traces.iter().filter(|t| t.op == TraceOp::Get).count(), 10);
    for t in &traces {
        assert_eq!(
            t.spans.last().map(|(s, _)| s.name()),
            Some("total_micros"),
            "{t:?}"
        );
    }
}

/// Plain ops make no trace and count none: only the `*_traced` ops
/// trace.
#[test]
fn untraced_ops_leave_no_trace() {
    let db = open(DbOptions::small());
    for i in 0..32u32 {
        db.put(format!("k{i:02}").as_bytes(), b"v").unwrap();
        db.get(format!("k{i:02}").as_bytes()).unwrap();
    }
    db.delete(b"k00").unwrap();
    assert!(db.recent_traces().is_empty());
    assert_eq!(db.stats().snapshot().traces_sampled, 0);
}

/// One trace as the wire carries it: id, op name and named spans.
type WireTrace = (u64, String, Vec<(String, u64)>);

/// Each trace a `traces` listing renders.
fn parse_listing(text: &str) -> Vec<WireTrace> {
    let mut traces = Vec::new();
    for line in text.lines().skip(1) {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["trace", id, op] => traces.push((
                id.parse().unwrap(),
                op.strip_prefix("op=").unwrap().to_string(),
                Vec::new(),
            )),
            [name, value] => {
                let spans = &mut traces.last_mut().unwrap().2;
                spans.push((name.to_string(), value.parse().unwrap()));
            }
            _ => panic!("unexpected line {line:?}"),
        }
    }
    traces
}

/// Wire-traced ops come back from `Request::Traces` whole and in order
/// (shard by shard on a fleet), two of them under one client id.
#[test]
fn traces_come_back_whole_and_in_order_from_the_traces_command() {
    for shards in [1, 2] {
        let engine = if shards == 1 {
            ShardedDb::from(open(DbOptions::small()))
        } else {
            ShardedDb::open(Arc::new(MemFs::new()), "fleet", DbOptions::small(), shards).unwrap()
        };
        let mut issued = Vec::new();
        for i in 0..12u64 {
            let key = format!("key{i:02}").into_bytes();
            let inner = match i % 3 {
                0 => Request::Put {
                    key: key.clone(),
                    value: b"v".to_vec(),
                    dkey: None,
                },
                1 => Request::Get { key: key.clone() },
                _ => Request::Delete { key: key.clone() },
            };
            // Ops 2 and 7 share id 3.
            let trace_id = if i == 7 { 3 } else { i + 1 };
            let req = Request::Traced {
                trace_id,
                inner: Box::new(inner),
            };
            let Response::Trace {
                trace_id,
                op,
                spans,
                ..
            } = answer(&engine, &req, &[])
            else {
                panic!("op {i} returned no trace");
            };
            issued.push((shard_of(&key, shards), (trace_id, op, spans)));
        }
        // A fleet lists its shards in turn, each oldest first.
        issued.sort_by_key(|(shard, _)| *shard);
        let expected: Vec<_> = issued.into_iter().map(|(_, t)| t).collect();
        let ids: Vec<u64> = expected.iter().map(|t| t.0).collect();
        assert!(
            ids.len() > ids.iter().collect::<BTreeSet<_>>().len(),
            "{ids:?}"
        );
        let Response::Text(listing) = answer(&engine, &Request::Traces, &[]) else {
            panic!("traces is text");
        };
        assert_eq!(
            parse_listing(&listing),
            expected,
            "{shards} shards:\n{listing}"
        );
    }
}

/// After the ring wraps, every trace read back is exactly the trace its
/// op returned: one whose first spans were overwritten is left out,
/// not returned short. The ring is small enough that its window often
/// begins inside a trace.
#[test]
fn a_wrapped_ring_returns_no_partial_trace() {
    let db = open(DbOptions {
        event_log_capacity: 16,
        ..DbOptions::small()
    });
    let mut issued = BTreeMap::new();
    let mut torn_windows = 0;
    for i in 0..300u64 {
        let key = format!("key{:03}", i % 40);
        let trace = match i % 3 {
            0 => db.put_traced(key.as_bytes(), &[b'v'; 64], Some(i)).unwrap(),
            1 => db.get_traced(key.as_bytes(), Some(i)).unwrap().1,
            _ => db.delete_traced(key.as_bytes(), Some(i)).unwrap(),
        };
        issued.insert(i, trace);
        let snap = db.events();
        if let Some(Event::TraceSpan {
            trace_id, stage, ..
        }) = snap.events.first().map(|s| s.event)
        {
            torn_windows += usize::from(issued[&trace_id].spans[0].0 != stage);
        }
        let traces = snap.traces();
        assert_eq!(traces.last(), Some(&issued[&i]), "op {i}");
        for t in traces {
            assert_eq!(t, issued[&t.trace_id], "op {i}");
        }
    }
    assert!(torn_windows > 0, "the window never began inside a trace");
}

/// A traced put with an explicit delete key answers with its trace and
/// stores that key: a secondary range delete of exactly that key erases
/// it and nothing else.
#[test]
fn a_traced_put_keeps_its_dkey() {
    let engine = ShardedDb::from(open(DbOptions::small()));
    let req = Request::Traced {
        trace_id: 5,
        inner: Box::new(Request::Put {
            key: b"k".to_vec(),
            value: b"v".to_vec(),
            dkey: Some(42),
        }),
    };
    match answer(&engine, &req, &[]) {
        Response::Trace {
            trace_id: 5,
            op,
            inner,
            ..
        } => {
            assert_eq!(op, "put");
            assert_eq!(*inner, Response::Unit);
        }
        other => panic!("no trace: {other:?}"),
    }
    engine.put_with_dkey(b"other", b"v", 43).unwrap();
    engine.range_delete_secondary(42, 42).unwrap();
    assert_eq!(engine.get(b"k").unwrap(), None);
    assert_eq!(engine.get(b"other").unwrap().as_deref(), Some(&b"v"[..]));
}

// ---------------------------------------------------------------------
// Fleet scope: shared id allocator, un-multiplied counters
// ---------------------------------------------------------------------

/// All four shards draw trace ids from one shared allocator: ids are
/// unique across the fleet, and the aggregated traced-op counter
/// equals the op count (each op is routed to exactly one shard — the
/// counter must not scale with shard count).
#[test]
fn fleet_trace_ids_are_unique_and_counters_unmultiplied() {
    let db = ShardedDb::open(Arc::new(MemFs::new()), "db", DbOptions::small(), 4).unwrap();
    let ops = 200u32;
    for i in 0..ops {
        db.put_with_dkey_traced(format!("key{i:04}").as_bytes(), b"v", db.now(), None)
            .unwrap();
    }

    let traces = db.recent_traces();
    // Each shard's ring holds its 50-odd traces whole.
    assert_eq!(traces.len(), ops as usize);
    let ids: BTreeSet<u64> = traces.iter().map(|t| t.trace_id).collect();
    assert_eq!(ids.len(), traces.len(), "trace ids must be fleet-unique");

    // Shared-scope counter: 200 ops traced once each, not once per
    // shard.
    assert_eq!(db.stats_snapshot().traces_sampled, u64::from(ops));
}

/// Explicitly traced ops through the sharded router keep the caller's
/// trace id and route to exactly one shard.
#[test]
fn sharded_traced_ops_propagate_ids() {
    let db = ShardedDb::open(Arc::new(MemFs::new()), "db", DbOptions::small(), 4).unwrap();
    let put = db.put_with_dkey_traced(b"alpha", b"1", 0, Some(7)).unwrap();
    assert_eq!(put.trace_id, 7);
    assert_eq!(put.op, TraceOp::Put);

    let (value, get) = db.get_traced(b"alpha", Some(8)).unwrap();
    assert_eq!(value.as_deref(), Some(&b"1"[..]));
    assert_eq!(get.trace_id, 8);
    assert_eq!(get.op, TraceOp::Get);

    let del = db.delete_traced(b"alpha", Some(9)).unwrap();
    assert_eq!(del.trace_id, 9);
    assert_eq!(del.op, TraceOp::Delete);

    // Only the three traced ops left traces, each on exactly one shard.
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
/// a memtable get, a table get, and a separated put and its get.
fn trace_shapes(
    put: &dyn Fn(&[u8], &[u8]) -> OpTrace,
    delete: &dyn Fn(&[u8]) -> OpTrace,
    get: &dyn Fn(&[u8]) -> OpTrace,
) -> String {
    let mut text = String::new();
    text += &shape(&put(b"fresh-key", b"small"));
    text += &shape(&delete(b"key00007"));
    text += &shape(&get(b"fresh-key"));
    text += &shape(&get(b"key00123"));
    text += &shape(&get(b"key99999"));
    text += &shape(&put(b"big-key", &[b'b'; 2048]));
    text += &shape(&get(b"big-key"));
    text
}

fn shape_opts() -> DbOptions {
    DbOptions {
        block_cache_bytes: 256 << 10,
        ..DbOptions::small().with_value_separation(1024)
    }
}

fn seed_keys(put: &dyn Fn(&[u8], &[u8])) {
    for i in 0..1500u32 {
        put(format!("key{i:05}").as_bytes(), &[b'v'; 48]);
    }
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
/// Re-recorded (from `0x8781_cb5b`, `0x74f2_00aa`) when the trace
/// sampler went: a batch can no longer be traced, so each text lost
/// exactly its last line, the sampled batch's `Write: …`, and nothing
/// else.
#[test]
fn trace_shapes_are_pinned() {
    const DB_SHAPES: u32 = 0x2157_fed0;
    const FLEET_SHAPES: u32 = 0xa7a4_690a;

    let db = open(shape_opts());
    seed_keys(&|k, v| db.put(k, v).unwrap());
    let db_text = trace_shapes(
        &|k, v| db.put_traced(k, v, None).unwrap(),
        &|k| db.delete_traced(k, None).unwrap(),
        &|k| db.get_traced(k, None).unwrap().1,
    );

    let fleet = ShardedDb::open(Arc::new(MemFs::new()), "fleet", shape_opts(), 2).unwrap();
    seed_keys(&|k, v| fleet.put(k, v).unwrap());
    let fleet_text = trace_shapes(
        &|k, v| fleet.put_with_dkey_traced(k, v, fleet.now(), None).unwrap(),
        &|k| fleet.delete_traced(k, None).unwrap(),
        &|k| fleet.get_traced(k, None).unwrap().1,
    );

    assert_eq!(
        (crc32c(db_text.as_bytes()), crc32c(fleet_text.as_bytes())),
        (DB_SHAPES, FLEET_SHAPES),
        "engine shapes:\n{db_text}\nfleet shapes:\n{fleet_text}"
    );
}
