//! Flight-recorder tests: the event ring, the delete-persistence
//! gauges, and the exposition endpoints.
//!
//! * event seqnos stay strictly ordered and consistent under concurrent
//!   writers racing background maintenance;
//! * the fixed-capacity ring keeps the newest events and accounts for
//!   everything it overwrote;
//! * `CompactionPicked` reasons agree with the picker's policy in a
//!   deterministic (`background_threads = 0`) run;
//! * the tombstone-age gauge drains to zero once a full compaction
//!   purges every delete;
//! * the live-tombstone gauge never falls while flushes race a reader
//!   and nothing purges;
//! * malformed `metrics`/`events` frames neither panic nor wedge the
//!   server.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use acheron::obs::{Event, EventLog};
use acheron::{CompactionReason, Db, DbOptions};
use acheron_server::wire::encode_frame;
use acheron_server::{Client, Server, ServerOptions};
use acheron_vfs::MemFs;

fn opts(background_threads: usize) -> DbOptions {
    DbOptions {
        write_buffer_bytes: 8 << 10,
        level1_target_bytes: 32 << 10,
        target_file_bytes: 16 << 10,
        page_size: 1024,
        max_levels: 4,
        background_threads,
        event_log_capacity: 1 << 15,
        ..DbOptions::default()
    }
}

fn open(o: DbOptions) -> Db {
    Db::open(Arc::new(MemFs::new()), "db", o).unwrap()
}

/// Four writers race background flushes and compactions; the drained
/// ring must still be internally consistent: strictly ascending seqnos,
/// retained + dropped accounting for every emission, and the expected
/// event kinds present.
#[test]
fn event_order_is_consistent_under_concurrent_writers() {
    let db = open(opts(2));
    crossbeam::scope(|s| {
        for w in 0..4u64 {
            let db = db.clone();
            s.spawn(move |_| {
                for k in 0..1500u64 {
                    let key = format!("w{w}-key{k:05}");
                    db.put(key.as_bytes(), b"value-payload-0123456789").unwrap();
                    if k % 7 == 0 {
                        db.delete(key.as_bytes()).unwrap();
                    }
                }
            });
        }
    })
    .unwrap();
    db.wait_idle().unwrap();

    let snap = db.events();
    assert!(!snap.events.is_empty());
    for pair in snap.events.windows(2) {
        assert!(
            pair[0].seqno < pair[1].seqno,
            "seqnos out of order: {} then {}",
            pair[0].seqno,
            pair[1].seqno
        );
    }
    assert_eq!(snap.emitted, snap.events.len() as u64 + snap.dropped);
    assert!(snap.events.last().unwrap().seqno < snap.emitted);
    let has = |f: fn(&Event) -> bool| snap.events.iter().any(|se| f(&se.event));
    assert!(has(|e| matches!(e, Event::WalGroupCommit { .. })));
    assert!(has(|e| matches!(e, Event::MemtableSealed { .. })));
    assert!(has(|e| matches!(e, Event::FlushEnd { .. })));
}

/// The ring keeps exactly the newest `capacity` events; everything
/// older is reported dropped, and payloads survive the wraparound.
#[test]
fn ring_overwrite_keeps_newest_events_and_counts_drops() {
    let log = EventLog::new(8);
    for i in 0..100u64 {
        log.log(Event::FlushStart { entries: i });
    }
    let snap = log.snapshot();
    assert_eq!(snap.emitted, 100);
    assert_eq!(snap.dropped, 92);
    let seqnos: Vec<u64> = snap.events.iter().map(|se| se.seqno).collect();
    assert_eq!(seqnos, (92..100).collect::<Vec<u64>>());
    for se in &snap.events {
        match se.event {
            Event::FlushStart { entries } => assert_eq!(entries, se.seqno),
            other => panic!("unexpected event {other:?}"),
        }
    }

    // Same at engine scale: a deliberately tiny ring under a write-heavy
    // run retains at most `capacity` events and owns up to the rest.
    let db = open(DbOptions {
        event_log_capacity: 16,
        ..opts(0)
    });
    for k in 0..800u64 {
        db.put(format!("key{k:05}").as_bytes(), b"v").unwrap();
    }
    db.flush().unwrap();
    let snap = db.events();
    assert!(snap.events.len() <= 16);
    assert!(snap.emitted > 16);
    assert_eq!(snap.dropped, snap.emitted - snap.events.len() as u64);
}

/// In a deterministic run every `CompactionPicked` event must carry a
/// reason consistent with the picker's policy: `L0Saturation` only for
/// L0 picks, `LevelSaturation` only below it, `TtlExpired` once the
/// clock passes the FADE deadline, `Manual` for `compact_all` — and the
/// per-reason totals must reconcile with the stats counters.
#[test]
fn compaction_picked_reasons_match_picker_policy() {
    let db = open(opts(0).with_fade(5_000));
    for k in 0..3000u64 {
        db.put(format!("key{k:05}").as_bytes(), b"value-payload-0123456789")
            .unwrap();
        if k % 3 == 0 {
            db.delete(format!("key{k:05}").as_bytes()).unwrap();
        }
        if k % 256 == 0 {
            db.maintain().unwrap();
        }
    }
    db.flush().unwrap();
    db.maintain().unwrap();
    // A fresh batch of tombstones in a single L0 file: too few files to
    // saturate anything, so only the FADE TTL trigger can touch them
    // once the clock passes D_th.
    for k in 0..200u64 {
        db.delete(format!("ttl{k:04}").as_bytes()).unwrap();
    }
    db.flush().unwrap();
    for _ in 0..20 {
        db.advance_clock(2_000);
        db.maintain().unwrap();
    }
    db.compact_all().unwrap();

    let snap = db.events();
    assert_eq!(snap.dropped, 0, "ring sized to retain the whole run");
    let picked: Vec<(CompactionReason, u64, u64)> = snap
        .events
        .iter()
        .filter_map(|se| match se.event {
            Event::CompactionPicked {
                reason,
                level,
                output_level,
                ..
            } => Some((reason, level, output_level)),
            _ => None,
        })
        .collect();
    assert!(!picked.is_empty());
    for &(reason, level, output_level) in &picked {
        assert!(output_level >= level, "{reason:?} moved data upward");
        match reason {
            CompactionReason::L0Saturation => assert_eq!(level, 0, "L0 trigger off-level"),
            CompactionReason::LevelSaturation => {
                assert!(level >= 1, "byte-budget trigger fired for L0")
            }
            CompactionReason::TtlExpired | CompactionReason::Manual => {}
        }
    }
    let count = |r: CompactionReason| picked.iter().filter(|&&(pr, ..)| pr == r).count() as u64;
    assert!(count(CompactionReason::TtlExpired) >= 1, "FADE never fired");
    assert!(count(CompactionReason::Manual) >= 1, "compact_all unseen");
    let stats = db.stats().snapshot();
    assert_eq!(picked.len() as u64, stats.compactions);
    assert_eq!(count(CompactionReason::TtlExpired), stats.ttl_compactions);
}

/// The age gauge tracks live tombstones only: populated while deletes
/// await persistence, empty (including the histogram) after a full
/// purge.
#[test]
fn tombstone_age_gauge_drains_to_zero_after_purge() {
    const D_TH: u64 = 5_000;
    let db = open(opts(0).with_fade(D_TH));
    for k in 0..1500u64 {
        db.put(format!("key{k:05}").as_bytes(), b"value-payload-0123456789")
            .unwrap();
    }
    for k in (0..1500u64).step_by(2) {
        db.delete(format!("key{k:05}").as_bytes()).unwrap();
    }
    db.flush().unwrap();

    let gauges = db.tombstone_gauges();
    assert!(gauges.live_tombstones() > 0);
    assert_eq!(gauges.live_tombstones(), db.live_tombstones());
    assert!(gauges.oldest_live_tick().is_some());
    let hist = gauges.age_histogram(db.now(), Some(D_TH));
    assert!(hist.total > 0);
    assert_eq!(hist.total, gauges.live_tombstones());

    for _ in 0..40 {
        db.advance_clock(2_000);
        db.maintain().unwrap();
    }
    db.compact_all().unwrap();
    assert_eq!(db.live_tombstones(), 0);

    let gauges = db.tombstone_gauges();
    assert_eq!(gauges.live_tombstones(), 0);
    assert_eq!(gauges.oldest_live_tick(), None);
    for level in &gauges.levels {
        assert_eq!(level.tombstones, 0, "level {} still populated", level.level);
    }
    let hist = gauges.age_histogram(db.now(), Some(D_TH));
    assert_eq!(hist.total, 0);
    assert_eq!(hist.oldest_age, None);
    assert!(hist.counts.iter().all(|&c| c == 0));
}

/// The live-tombstone gauge never runs backwards while nothing purges.
/// Two workers flush a 2 KiB buffer over and over, compactions are held
/// off by L0 limits no run reaches, and a writer deletes distinct keys,
/// so the true count only grows; a reader polling the gauge must never
/// see it fall. A gauge pieced together from two reads — the tree at
/// one install, the buffers at a later one — drops a whole memtable's
/// tombstones whenever a flush lands between the two.
#[test]
fn live_tombstone_gauge_never_falls_under_concurrent_flushes() {
    let deletes: u64 = if cfg!(debug_assertions) {
        20_000
    } else {
        200_000
    };
    let db = open(DbOptions {
        write_buffer_bytes: 2 << 10,
        level0_file_limit: 1 << 20,
        l0_slowdown_files: 1 << 20,
        l0_stall_files: 1 << 20,
        background_threads: 2,
        ..DbOptions::default()
    });
    let done = AtomicBool::new(false);
    let (mut polls, mut falls) = (0u64, Vec::new());
    crossbeam::scope(|s| {
        s.spawn(|_| {
            for k in 0..deletes {
                db.delete(format!("key{k:07}").as_bytes()).unwrap();
            }
            done.store(true, Ordering::Release);
        });
        let mut last = 0;
        while !done.load(Ordering::Acquire) {
            let live = db.tombstone_gauges().live_tombstones();
            if live < last {
                falls.push((last, live));
            }
            last = live;
            polls += 1;
        }
    })
    .unwrap();
    assert!(
        falls.is_empty(),
        "{} of {polls} polls saw the gauge fall; first (before, after): {:?}",
        falls.len(),
        falls[0]
    );
    db.wait_idle().unwrap();
    assert_eq!(db.stats().snapshot().compactions, 0);
    assert_eq!(db.tombstone_gauges().live_tombstones(), deletes);
}

/// Read whatever the server sends until it closes the connection or
/// goes quiet; the point is only that we get *out* (no wedge).
fn drain(mut stream: &TcpStream) -> Vec<u8> {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(_) => break,
        }
    }
    out
}

/// Malformed observability frames — junk payloads on the `metrics` and
/// `events` tags, unknown tags, raw garbage — must be answered with a
/// protocol error (or dropped), never a panic, and the server must keep
/// serving well-formed clients afterwards.
#[test]
fn malformed_metrics_and_events_frames_do_not_panic_server() {
    let db = Arc::new(open(opts(0).with_fade(5_000)));
    let mut server = Server::start(Arc::clone(&db), "127.0.0.1:0", ServerOptions::default())
        .expect("bind server");
    let addr = server.local_addr();

    // Well-framed but invalid payloads: metrics/events take no
    // arguments, so trailing bytes are a protocol violation; 0xFE is an
    // unknown tag.
    for payload in [
        vec![8u8, 1, 2, 3],
        vec![9u8, 0xFF],
        vec![8u8; 100],
        vec![0xFEu8, 8, 9],
    ] {
        let stream = TcpStream::connect(addr).unwrap();
        let mut frame = Vec::new();
        encode_frame(&payload, &mut frame);
        (&stream).write_all(&frame).unwrap();
        let reply = drain(&stream);
        assert!(!reply.is_empty(), "expected an error frame for {payload:?}");
    }
    // Raw garbage that never forms a frame (checksum/length nonsense).
    {
        let stream = TcpStream::connect(addr).unwrap();
        (&stream).write_all(&[0xAA; 64]).unwrap();
        drain(&stream);
    }

    // The server is still healthy: a well-formed client gets both
    // expositions.
    let mut client = Client::connect(addr).unwrap();
    let metrics = client.metrics().unwrap();
    assert!(metrics.contains("db_live_tombstones"), "{metrics}");
    assert!(
        metrics.contains("db_tombstone_age_ticks_bucket"),
        "{metrics}"
    );
    let events = client.events().unwrap();
    assert!(events.contains("events emitted"), "{events}");
    server.shutdown();
}

/// Lint the Prometheus text exposition of a live sharded server and of
/// the same root closed, reopened offline with `open_root` and rendered
/// (what `acheron stats <dir>` prints). A 4-shard engine is the hard
/// case — per-shard and per-level labels are where duplicate series
/// would sneak in.
#[test]
fn prometheus_exposition_is_lint_clean() {
    let fs = Arc::new(MemFs::new());
    let opts = DbOptions::small().with_fade(5_000);
    let db = Arc::new(acheron::ShardedDb::open(fs.clone(), "db", opts.clone(), 4).unwrap());
    for k in 0..2000u64 {
        db.put(format!("key{k:05}").as_bytes(), b"value-payload-0123456789")
            .unwrap();
        if k % 3 == 0 {
            db.delete(format!("key{k:05}").as_bytes()).unwrap();
        }
    }
    db.flush().unwrap();
    let server = Server::start(Arc::clone(&db), "127.0.0.1:0", ServerOptions::default())
        .expect("bind server");
    let mut client = Client::connect(server.local_addr()).unwrap();
    let wire = client.metrics().unwrap();
    drop(server);
    drop(db);
    lint_exposition(&wire);

    let offline = acheron::ShardedDb::open_root(fs, "db", opts)
        .unwrap()
        .render_metrics(&[]);
    lint_exposition(&offline);
    for series in ["db_shards 4", "db_shard_live_tombstones{shard=\"3\"}"] {
        assert!(offline.contains(series), "{series} missing:\n{offline}");
    }
}

/// Every sample line parses, metric and label names are spec-valid,
/// each family declares exactly one `# TYPE` before its first sample,
/// and no series (name + label set) appears twice.
fn lint_exposition(text: &str) {
    let valid_metric = |name: &str| {
        let mut chars = name.chars();
        chars
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    };
    let valid_label = |name: &str| {
        let mut chars = name.chars();
        chars
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    };
    // A sample's candidate families: itself (flat counters may end in
    // `_count`/`_sum` as literal names) or, for histogram samples, the
    // name with the per-sample suffix stripped.
    let families_of = |name: &str| {
        let mut out = vec![name.to_string()];
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(stripped) = name.strip_suffix(suffix) {
                out.push(stripped.to_string());
            }
        }
        out
    };

    let mut typed: std::collections::HashMap<String, String> = std::collections::HashMap::new();
    let mut series = std::collections::HashSet::new();
    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let family = parts.next().unwrap_or_default();
            let kind = parts.next().unwrap_or_default();
            assert!(
                valid_metric(family),
                "line {lineno}: bad family name {family:?}"
            );
            assert!(
                matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ),
                "line {lineno}: bad TYPE kind {kind:?}"
            );
            assert!(
                parts.next().is_none(),
                "line {lineno}: trailing TYPE tokens"
            );
            assert!(
                typed.insert(family.to_string(), kind.to_string()).is_none(),
                "line {lineno}: duplicate # TYPE for {family}"
            );
            continue;
        }
        assert!(
            !line.starts_with('#'),
            "line {lineno}: unexpected comment {line:?}"
        );

        // Sample line: name[{labels}] value
        let (series_part, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("line {lineno}: no value separator in {line:?}"));
        assert!(
            value.parse::<f64>().is_ok(),
            "line {lineno}: non-numeric value {value:?}"
        );
        let (name, labels) = match series_part.split_once('{') {
            Some((name, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .unwrap_or_else(|| panic!("line {lineno}: unterminated label set in {line:?}"));
                for pair in body.split(',').filter(|p| !p.is_empty()) {
                    let (lname, lvalue) = pair
                        .split_once('=')
                        .unwrap_or_else(|| panic!("line {lineno}: bad label pair {pair:?}"));
                    assert!(
                        valid_label(lname),
                        "line {lineno}: bad label name {lname:?}"
                    );
                    assert!(
                        lvalue.starts_with('"') && lvalue.ends_with('"') && lvalue.len() >= 2,
                        "line {lineno}: unquoted label value {lvalue:?}"
                    );
                }
                (name, body)
            }
            None => (series_part, ""),
        };
        assert!(
            valid_metric(name),
            "line {lineno}: bad metric name {name:?}"
        );
        assert!(
            families_of(name).iter().any(|f| typed.contains_key(f)),
            "line {lineno}: sample {name} has no preceding # TYPE for its family"
        );
        assert!(
            series.insert((name.to_string(), labels.to_string())),
            "line {lineno}: duplicate series {name}{{{labels}}}"
        );
        samples += 1;
    }
    assert!(
        samples > 20,
        "suspiciously small exposition ({samples} samples)"
    );
    // The families this PR leans on are present.
    for family in [
        "db_live_tombstones",
        "db_tombstone_age_ticks",
        "db_clock_tick",
    ] {
        assert!(typed.contains_key(family), "missing family {family}");
    }
}

/// The event ring after a seeded, delete-heavy load in the
/// deterministic mode (synchronous maintenance, logical clock): puts,
/// one in eight separated into the value log, point deletes, sort-key
/// and secondary range deletes, clock advances and maintenance passes
/// under FADE. Pinned by digest with the wall-time fields (`*micros=`)
/// masked. Every stage of a delete's lifecycle reaches the ring through
/// one call in the engine; where that call sits may change, what the
/// ring receives and in what order may not. Re-recorded when tables
/// gained their whole-table key filter (format 4): with the table byte
/// counts (`bytes=`, `bytes_in=`, `bytes_out=`, `input_bytes=`) masked,
/// the text is the one the digest before it (0xce6a_c01b) was taken of.
/// Re-recorded (from 0xad5e_0a3e) when the delete ledger stopped waiting
/// on value-log segments GC had already deleted: with the event
/// sequence numbers stripped, the text gained exactly one line,
/// `cohort_advanced epoch=95 stage=vlog_reclaimed level=0 tombstones=0
/// tick=14132`, the cohort that used to wait forever. Re-recorded (from
/// 0x9fc4_831d) when a dead value-log extent was charged to the delete
/// that killed it instead of to a cohort guessed from its tick: with the
/// sequence numbers stripped, the loop's text lost exactly its 67
/// `stage=vlog_reclaimed` lines, every one a cohort charged with a value
/// none of its deletes killed, and nothing else; the tail of deletes
/// that kill values was appended after it, so the stage is still
/// reached.
#[test]
fn event_ring_is_pinned() {
    const RING: u32 = 0x02bd_3d93;
    let db = open(opts(0).with_fade(4_000).with_value_separation(256));
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for op in 0..6000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = format!("key{:05}", x % 3000);
        match x % 100 {
            0..=59 => {
                let len = if (x >> 8).is_multiple_of(8) { 600 } else { 40 };
                db.put(key.as_bytes(), &vec![b'v'; len]).unwrap();
            }
            60..=84 => db.delete(key.as_bytes()).unwrap(),
            85..=87 => {
                let end = format!("key{:05}", x % 3000 + 5);
                db.range_delete_keys(key.as_bytes(), end.as_bytes())
                    .unwrap();
            }
            88 => {
                let now = db.now();
                (db.range_delete_secondary(now.saturating_sub(60), now.saturating_sub(40)))
                    .unwrap();
            }
            _ => db.advance_clock(x % 40),
        }
        if op % 1000 == 999 {
            db.maintain().unwrap();
        }
    }
    db.advance_clock(10_000);
    db.maintain().unwrap();
    // The loop's puts and deletes never share a key (both follow
    // `x % 100`), so none of its point or sort-key range deletes kills
    // a value. These do, so a cohort waits on the value log until GC
    // reclaims the segment.
    for i in 0..10 {
        db.put(format!("tail{i}").as_bytes(), &[b'v'; 600]).unwrap();
    }
    for i in 0..10 {
        db.delete(format!("tail{i}").as_bytes()).unwrap();
    }
    db.advance_clock(10_000);
    db.maintain().unwrap();
    let snap = db.events();
    assert_eq!(snap.dropped, 0, "the ring must hold the whole run");
    let text: String = acheron::obs::render_events(&snap)
        .lines()
        .map(|line| {
            let words = line.split(' ').map(|w| match w.split_once('=') {
                Some((k, _)) if k.ends_with("micros") => format!("{k}=_"),
                _ => w.to_string(),
            });
            words.collect::<Vec<_>>().join(" ") + "\n"
        })
        .collect();
    for stage in [
        "sealed",
        "flushed",
        "entered_level",
        "purged",
        "vlog_reclaimed",
    ] {
        assert!(
            text.contains(&format!("stage={stage} ")),
            "no {stage} stage"
        );
    }
    let digest = acheron_types::checksum::crc32c(text.as_bytes());
    assert_eq!(digest, RING, "{text}");
}
