//! Delete-lifecycle audit tests: the cohort ledger, the compliance
//! report behind `acheron audit`, and its fleet aggregation.
//!
//! * an aged, delete-heavy workload (40% deletes, forced maintenance)
//!   resolves every tombstone cohort within `D_th` — the audit passes
//!   and maps to exit code 0;
//! * an injected overdue cohort fails the audit, naming the offending
//!   shard and epoch, and maps to a nonzero exit;
//! * a four-shard fleet's audit is the union of the per-shard ledgers
//!   judged against the shared clock;
//! * the audit round-trips the wire (`acheron audit <host:port>`)
//!   carrying the violation verdict out-of-band of the text;
//! * the tombstone gauges and the audit text after a seeded load are
//!   pinned by digest, on one engine and on a four-shard fleet;
//! * the offline doctor and the online audit reach the same `D_th`
//!   verdict on one image, as a plain directory and as a fleet.

use std::sync::Arc;

use acheron::{check_root, Db, DbOptions, DeleteAudit, DeleteLedger, ShardedDb};
use acheron_memtable::Memtable;
use acheron_server::{Client, Server, ServerOptions};
use acheron_types::checksum::crc32c;
use acheron_types::{Entry, KeyRangeTombstone};
use acheron_vfs::MemFs;

fn small() -> DbOptions {
    DbOptions::small()
}

/// Age a database the way the acceptance scenario prescribes: a
/// delete-heavy mix (40% of written keys deleted), then the clock
/// driven well past `D_th` with unrelated writes and maintenance
/// forced so FADE purges everything due.
fn age(db: &Db, d_th: u64) {
    for i in 0..800u32 {
        db.put(format!("key{i:04}").as_bytes(), &[b'v'; 32])
            .unwrap();
    }
    for i in 0..320u32 {
        db.delete(format!("key{i:04}").as_bytes()).unwrap();
    }
    for i in 0..(3 * d_th as u32) {
        db.put(format!("other{i:05}").as_bytes(), &[b'w'; 32])
            .unwrap();
    }
    db.maintain().unwrap();
    db.wait_idle().unwrap();
}

// ---------------------------------------------------------------------
// Acceptance: aged workload passes, injected violation fails
// ---------------------------------------------------------------------

/// Every cohort of the aged workload resolves within `D_th`: the audit
/// passes, renders `status: OK`, and maps to exit code 0.
#[test]
fn aged_workload_resolves_every_cohort_within_d_th() {
    let d_th = 2_000u64;
    let db = Db::open(Arc::new(MemFs::new()), "db", small().with_fade(d_th)).unwrap();
    age(&db, d_th);

    let audit = db.delete_audit();
    assert_eq!(audit.d_th, Some(d_th));
    assert!(
        !audit.cohorts.is_empty(),
        "a delete-heavy run must leave cohort records"
    );
    for c in &audit.cohorts {
        assert!(
            c.is_resolved(),
            "cohort shard={} epoch={} still unresolved after forced maintenance:\n{}",
            c.shard,
            c.epoch,
            c.render(audit.now, audit.d_th)
        );
        assert!(
            c.age(audit.now) <= d_th,
            "cohort shard={} epoch={} resolved too late: age {} > D_th {}",
            c.shard,
            c.epoch,
            c.age(audit.now),
            d_th
        );
    }
    assert!(audit.ok(), "audit must pass:\n{}", audit.render());
    let text = audit.render();
    assert!(
        text.contains("status: OK"),
        "render must conclude OK:\n{text}"
    );
    assert!(text.contains(&format!("D_th = {d_th}")));
    // The CLI exit code is derived exactly this way.
    assert_eq!(i32::from(!audit.ok()), 0);
}

/// An overdue cohort injected into the ledger fails the audit; the
/// report names the offending shard and epoch, and the exit mapping is
/// nonzero.
#[test]
fn injected_overdue_cohort_fails_audit_naming_the_cohort() {
    // A generation of 12 point and 2 sort-key range deletes issued at
    // tick 100, sealed at 150 and flushed at 160.
    let mem = Memtable::new();
    for seqno in 1..=12 {
        mem.insert(Entry::tombstone(
            format!("key{seqno:02}").into_bytes(),
            seqno,
            100,
        ));
    }
    for seqno in 13..=14 {
        mem.add_range_tombstone(KeyRangeTombstone {
            start: format!("lo{seqno}").into_bytes().into(),
            end: format!("hi{seqno}").into_bytes().into(),
            seqno,
            dkey: 100,
        });
    }
    let mut ledger = DeleteLedger::new(3);
    ledger.seal(&mem, 150);
    ledger.flushed(14, 160);

    let audit = DeleteAudit {
        now: 10_000,
        d_th: Some(500),
        cohorts: ledger.snapshot(&Memtable::new()),
        oldest_live_tombstone_tick: Some(100),
        oldest_vlog_dead_tick: None,
    };
    assert!(!audit.ok());
    let violators = audit.violating_cohorts();
    assert_eq!(violators.len(), 1);
    assert_eq!((violators[0].shard, violators[0].epoch), (3, 0));
    let stamps = (violators[0].sealed_tick, violators[0].flushed_tick);
    assert_eq!(stamps, (Some(150), Some(160)));

    let text = audit.render();
    assert!(
        text.contains("status: VIOLATION — cohort shard=3 epoch=0"),
        "violation must name the cohort:\n{text}"
    );
    assert!(text.contains("VIOLATION (> D_th 500)"), "{text}");
    assert_eq!(
        i32::from(!audit.ok()),
        1,
        "violation must map to a nonzero exit"
    );
}

/// Without a configured threshold the audit is a report, never a
/// judgment: the same overdue cohort passes.
#[test]
fn audit_without_threshold_always_passes() {
    let open = Memtable::new();
    open.insert(Entry::tombstone(&b"key"[..], 1, 5));
    let audit = DeleteAudit {
        now: 1_000_000,
        d_th: None,
        cohorts: DeleteLedger::new(0).snapshot(&open),
        oldest_live_tombstone_tick: Some(5),
        oldest_vlog_dead_tick: None,
    };
    assert!(audit.ok());
    assert!(audit.violating_cohorts().is_empty());
    assert!(audit.render().contains("(no D_th set)"));
}

/// A gauge-level breach (state predating the process, no cohort
/// tracked) still fails the audit.
#[test]
fn gauge_only_breach_fails_audit() {
    let audit = DeleteAudit {
        now: 10_000,
        d_th: Some(100),
        cohorts: Vec::new(),
        oldest_live_tombstone_tick: Some(1),
        oldest_vlog_dead_tick: None,
    };
    assert!(!audit.ok());
    assert!(
        audit
            .render()
            .contains("status: VIOLATION — unresolved delete age"),
        "{}",
        audit.render()
    );
}

/// An engine reopened over a WAL that holds deletes lists them as its
/// open cohort, as it lists deletes committed since the open, and the
/// cohort resolves once FADE has purged them.
#[test]
fn replayed_deletes_form_the_open_cohort_and_resolve() {
    let d_th = 50_000u64;
    let fs = Arc::new(MemFs::new());
    let open = || Db::open(fs.clone(), "db", small().with_fade(d_th)).unwrap();
    let db = open();
    for i in 0..200u32 {
        db.put(format!("key{i:04}").as_bytes(), &[b'v'; 32])
            .unwrap();
    }
    db.flush().unwrap();
    for i in 0..20u32 {
        db.delete(format!("key{i:04}").as_bytes()).unwrap();
    }
    let buffered = db.delete_audit().cohorts;
    drop(db);

    let db = open();
    let audit = db.delete_audit();
    assert_eq!(audit.cohorts.len(), 1, "{}", audit.render());
    let c = &audit.cohorts[0];
    assert_eq!((c.epoch, c.deletes, c.sealed_tick), (0, 20, None));
    assert_eq!(
        c.first_delete_tick,
        buffered.last().unwrap().first_delete_tick
    );
    assert_eq!(audit.oldest_live_tombstone_tick, Some(c.first_delete_tick));

    db.advance_clock(d_th / 2);
    db.maintain().unwrap();
    let audit = db.delete_audit();
    let c = &audit.cohorts[0];
    assert_eq!((c.epoch, c.deletes), (0, 20), "{}", audit.render());
    assert!(c.is_resolved(), "{}", audit.render());
    assert!(audit.ok(), "{}", audit.render());
}

// ---------------------------------------------------------------------
// Fleet aggregation (satellite d)
// ---------------------------------------------------------------------

/// The four-shard fleet audit is exactly the union of the per-shard
/// ledgers: same cohorts, shard-tagged, ordered by (shard, epoch),
/// judged against the shared clock.
#[test]
fn fleet_audit_is_union_of_per_shard_ledgers() {
    let d_th = 2_000u64;
    let db = ShardedDb::open(Arc::new(MemFs::new()), "db", small().with_fade(d_th), 4).unwrap();
    for i in 0..1200u32 {
        db.put(format!("key{i:04}").as_bytes(), &[b'v'; 32])
            .unwrap();
        if i % 5 < 2 {
            db.delete(format!("key{i:04}").as_bytes()).unwrap();
        }
    }
    for i in 0..(3 * d_th as u32) {
        db.put(format!("other{i:05}").as_bytes(), &[b'w'; 32])
            .unwrap();
    }
    db.maintain().unwrap();
    db.wait_idle().unwrap();

    let fleet = db.delete_audit();
    assert_eq!(fleet.d_th, Some(d_th));

    // Union: the fleet report holds exactly each shard's own cohorts.
    let mut expected = Vec::new();
    for i in 0..4 {
        let shard = db.shard(i).delete_audit();
        for c in &shard.cohorts {
            assert_eq!(c.shard, i, "shard ledger must tag its own index");
        }
        expected.extend(shard.cohorts);
    }
    expected.sort_by_key(|c| (c.shard, c.epoch));
    assert_eq!(fleet.cohorts, expected);

    // Hash partitioning spread the deletes: more than one shard
    // contributed cohorts.
    let shards_seen: std::collections::BTreeSet<usize> =
        fleet.cohorts.iter().map(|c| c.shard).collect();
    assert!(
        shards_seen.len() > 1,
        "expected cohorts from multiple shards, got {shards_seen:?}"
    );

    assert!(fleet.ok(), "fleet audit must pass:\n{}", fleet.render());
    assert!(fleet.render().contains("status: OK"));
}

// ---------------------------------------------------------------------
// Wire round trip
// ---------------------------------------------------------------------

/// `acheron audit <host:port>` semantics: the verdict travels as a
/// flag beside the text, and a healthy server reports no violation.
#[test]
fn audit_round_trips_the_wire() {
    let d_th = 2_000u64;
    let db = Arc::new(Db::open(Arc::new(MemFs::new()), "db", small().with_fade(d_th)).unwrap());
    age(&db, d_th);
    let mut server =
        Server::start(Arc::clone(&db), "127.0.0.1:0", ServerOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let (violation, text) = client.audit().unwrap();
    assert!(
        !violation,
        "healthy server must not report a violation:\n{text}"
    );
    assert_eq!(text, db.delete_audit().render());
    assert!(text.contains("status: OK"));
    assert!(text.contains(&format!("D_th = {d_th}")));
    server.shutdown();
}

// ---------------------------------------------------------------------
// Pinned gauges and audit over a seeded load
// ---------------------------------------------------------------------

/// The write surface the seeded load drives, on an engine or a fleet.
trait Load {
    fn put(&self, key: &[u8], value: &[u8]);
    fn delete(&self, key: &[u8]);
    fn range_delete_keys(&self, start: &[u8], end: &[u8]);
    fn range_delete_secondary(&self, lo: u64, hi: u64);
    fn advance_clock(&self, n: u64);
    fn now(&self) -> u64;
    fn maintain(&self);
}

impl Load for Db {
    fn put(&self, key: &[u8], value: &[u8]) {
        Db::put(self, key, value).unwrap();
    }
    fn delete(&self, key: &[u8]) {
        Db::delete(self, key).unwrap();
    }
    fn range_delete_keys(&self, start: &[u8], end: &[u8]) {
        Db::range_delete_keys(self, start, end).unwrap();
    }
    fn range_delete_secondary(&self, lo: u64, hi: u64) {
        Db::range_delete_secondary(self, lo, hi).unwrap();
    }
    fn advance_clock(&self, n: u64) {
        Db::advance_clock(self, n);
    }
    fn now(&self) -> u64 {
        Db::now(self)
    }
    fn maintain(&self) {
        Db::maintain(self).unwrap();
    }
}

impl Load for ShardedDb {
    fn put(&self, key: &[u8], value: &[u8]) {
        ShardedDb::put(self, key, value).unwrap();
    }
    fn delete(&self, key: &[u8]) {
        ShardedDb::delete(self, key).unwrap();
    }
    fn range_delete_keys(&self, start: &[u8], end: &[u8]) {
        ShardedDb::range_delete_keys(self, start, end).unwrap();
    }
    fn range_delete_secondary(&self, lo: u64, hi: u64) {
        ShardedDb::range_delete_secondary(self, lo, hi).unwrap();
    }
    fn advance_clock(&self, n: u64) {
        ShardedDb::advance_clock(self, n);
    }
    fn now(&self) -> u64 {
        ShardedDb::now(self)
    }
    fn maintain(&self) {
        ShardedDb::maintain(self).unwrap();
    }
}

/// A seeded, delete-heavy load: puts (one in eight large enough to be
/// separated into the value log), point deletes, sort-key and
/// secondary range deletes, and clock advances, with one maintenance
/// pass halfway through, so the end state has tombstones of both point
/// and sort-key kinds both on disk and in the write buffer.
fn seeded_load(db: &dyn Load, seed: u64) {
    let mut x = seed;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for op in 0..3000u32 {
        if op == 1500 {
            db.maintain();
        }
        // The key is its own draw: drawn with the op, a key's op class
        // would be fixed, and no delete would ever hit a put's key.
        let (r, k) = (next(), next() % 2000);
        let key = format!("key{k:05}");
        match r % 100 {
            0..=59 => {
                let len = if (r >> 8) % 8 == 0 { 700 } else { 40 };
                db.put(key.as_bytes(), &vec![b'v'; len]);
            }
            60..=84 => db.delete(key.as_bytes()),
            85..=87 => {
                let end = format!("key{:05}", k + 5);
                db.range_delete_keys(key.as_bytes(), end.as_bytes());
            }
            88 => {
                let now = db.now();
                db.range_delete_secondary(now.saturating_sub(60), now.saturating_sub(40));
            }
            _ => db.advance_clock(r % 20),
        }
    }
    db.range_delete_keys(b"key01000", b"key01010");
}

/// The delete-persistence gauges and the audit text after a seeded
/// load, on one engine and on a four-shard fleet, in the deterministic
/// (synchronous, logical-clock) mode. Where the gauges are computed
/// from — and how often — may change; what they report may not, so a
/// refactor of the read view leaves these digests where they are.
/// Recorded when sort-key range tombstones moved into the manifest:
/// both range-delete kinds retire by one rule since, tables stopped
/// carrying tombstone lists, a sort-key tombstone counts at its station,
/// and FADE moves it on by its station's deadline. The gauge digests
/// were re-recorded once when each level's gauge gained its run and
/// woven-file counts; with those two fields left out, the text hashes
/// to the digests recorded before (0x3e9f_5d65, 0xd46d_f636). They
/// were re-recorded once more when tables gained their whole-table key
/// filter (format 4): with each level's `bytes` masked, the text is the
/// one the digests before it (0x7965_00a6, 0x03e1_e8d9) were taken of.
/// The audit digests were re-recorded (from 0x53bf_d066, 0x3b1c_e17a)
/// when a dead value-log extent was charged to the delete that killed
/// it: cohorts the tick guess had charged with values none of their
/// deletes killed now resolve; with each cohort's
/// `vlog_pending=` field and its verdict masked, the texts are the ones
/// the digests before were taken of. All four were re-recorded (from
/// 0x00d1_a65a, 0x6001_5328, 0xcb2d_ea6e, 0xcf70_cdd3) when the load
/// drew each key apart from its op: the load itself changed, so that
/// its deletes now hit its puts' keys and kill separated values, and
/// cohorts wait on the value log.
#[test]
fn gauges_and_audit_are_pinned() {
    const DB_GAUGES: u32 = 0xb126_e214;
    const DB_AUDIT: u32 = 0x8d44_657e;
    const FLEET_GAUGES: u32 = 0xe72a_8aaa;
    const FLEET_AUDIT: u32 = 0x362f_e013;

    let opts = || small().with_fade(50_000).with_value_separation(512);
    let db = Db::open(Arc::new(MemFs::new()), "db", opts()).unwrap();
    seeded_load(&db, 0x9e37_79b9_7f4a_7c15);
    let fleet = ShardedDb::open(Arc::new(MemFs::new()), "fleet", opts(), 4).unwrap();
    seeded_load(&fleet, 0x9e37_79b9_7f4a_7c15);

    let texts = [
        format!("{:?}", db.tombstone_gauges()),
        db.delete_audit().render(),
        format!("{:?}", fleet.tombstone_gauges()),
        fleet.delete_audit().render(),
    ];
    let digests = texts.each_ref().map(|t| crc32c(t.as_bytes()));
    assert_eq!(
        digests,
        [DB_GAUGES, DB_AUDIT, FLEET_GAUGES, FLEET_AUDIT],
        "{}",
        texts.join("\n----\n")
    );
}

/// One verdict, two paths: an image aged without FADE (its deletes stay
/// live), with a tail of deletes left in the WAL, is judged offline by
/// the doctor, then opened — still without FADE — and judged by
/// `delete_audit` at the same thresholds. Both read the same clock and
/// the same oldest live delete; at its age both pass, one tick under it
/// both fail; as a plain directory and as a three-shard root, where one
/// shard's L0 holds its file limit: an open runs no maintenance, so the
/// online audit judges the image the doctor read.
#[test]
fn offline_and_online_verdicts_agree() {
    for shards in [None, Some(3)] {
        let fs = Arc::new(MemFs::new());
        let open = || match shards {
            None => ShardedDb::from(Db::open(fs.clone(), "db", small()).unwrap()),
            Some(n) => ShardedDb::open(fs.clone(), "db", small(), n).unwrap(),
        };
        let db = open();
        seeded_load(&db, 0x2545_f491_4f6c_dd1d);
        db.flush().unwrap();
        let tail = 30;
        for i in 0..tail {
            db.advance_clock(7);
            db.delete(format!("tail{i:03}").as_bytes()).unwrap();
        }
        drop(db);

        let offline = |d_th| {
            let reports = check_root(fs.as_ref(), "db", Some(d_th)).unwrap();
            assert_eq!(reports.len(), shards.unwrap_or(1));
            DeleteAudit::fleet(reports.into_iter().map(|r| r.audit))
        };
        let audit = offline(0);
        let oldest = audit.oldest_live_tombstone_tick.expect("deletes stay live");
        let age = audit.now - oldest;
        assert!(age > 0, "{shards:?}");
        let verdicts = [age, age - 1].map(|d_th| offline(d_th).ok());
        assert_eq!(verdicts, [true, false], "{shards:?}");

        let online = open().delete_audit();
        // The WAL's deletes are the open cohorts, and nothing else is.
        assert!(online.cohorts.iter().all(|c| c.sealed_tick.is_none()));
        let replayed: u64 = online.cohorts.iter().map(|c| c.deletes).sum();
        assert_eq!(replayed, tail, "{shards:?}");
        assert_eq!(online.now, audit.now, "{shards:?}");
        assert_eq!(
            online.oldest_live_tombstone_tick, audit.oldest_live_tombstone_tick,
            "{shards:?}"
        );
        let judged = [age, age - 1].map(|d_th| {
            let audit = DeleteAudit {
                d_th: Some(d_th),
                ..online.clone()
            };
            audit.ok()
        });
        assert_eq!(
            judged, verdicts,
            "{shards:?}: offline {audit:?}\nonline {online:?}"
        );
    }
}
