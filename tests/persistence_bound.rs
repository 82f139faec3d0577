//! Invariant I3 (the paper's core guarantee): with FADE enabled, every
//! point tombstone is physically purged within `D_th` ticks of its
//! insertion — under arbitrary workloads, threshold settings, TTL
//! allocations, and clock patterns.

use std::sync::Arc;

use acheron::{Db, DbOptions, FadeOptions, TtlAllocation};
use acheron_vfs::MemFs;
use proptest::prelude::*;
// Explicit (non-glob) imports: proptest's prelude re-exports a different
// rand version's traits, which would shadow these under a glob.
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn opts(d_th: u64, alloc: TtlAllocation) -> DbOptions {
    let mut o = DbOptions {
        write_buffer_bytes: 2 << 10,
        level1_target_bytes: 8 << 10,
        target_file_bytes: 4 << 10,
        page_size: 512,
        max_levels: 4,
        ..DbOptions::default()
    };
    o.fade = Some(FadeOptions {
        delete_persistence_threshold: d_th,
        ttl_allocation: alloc,
    });
    o
}

/// Drive a random workload and verify the bound holds throughout.
fn check_bound(seed: u64, d_th: u64, alloc: TtlAllocation, idle_bursts: bool) {
    let db = Db::open(Arc::new(MemFs::new()), "db", opts(d_th, alloc)).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    for step in 0..1_500u32 {
        let k: u32 = rng.gen_range(0..300);
        if rng.gen_bool(0.3) {
            db.delete(format!("key{k:04}").as_bytes()).unwrap();
        } else {
            db.put(format!("key{k:04}").as_bytes(), &[b'v'; 24])
                .unwrap();
        }
        if idle_bursts && step % 400 == 399 {
            // Idle time: the clock advances while no writes arrive. The
            // bound is enforced *at maintenance opportunities*, so idle
            // deployments run maintenance on a timer; we model that by
            // stepping the clock in sub-margin increments with a
            // maintain() at each tick (a single giant jump would deny
            // the engine any chance to act before the deadline).
            let total = rng.gen_range(1..=2 * d_th);
            let step_size = (d_th / 32).max(1);
            let mut advanced = 0;
            while advanced < total {
                let inc = step_size.min(total - advanced);
                db.advance_clock(inc);
                advanced += inc;
                db.maintain().unwrap();
            }
        }
        // The bound is continuous: at no observation point may a live
        // tombstone be older than D_th (checked sparsely for speed).
        if step % 100 == 0 {
            if let Some(age) = db.oldest_live_tombstone_age() {
                assert!(
                    age <= d_th,
                    "live tombstone aged {age} > D_th {d_th} at step {step}"
                );
            }
        }
    }
    // Final settle: let everything expire, stepping so the engine gets
    // its maintenance opportunities.
    let step_size = (d_th / 32).max(1);
    let mut advanced = 0;
    while advanced < 3 * d_th {
        db.advance_clock(step_size);
        advanced += step_size;
        db.maintain().unwrap();
    }
    assert_eq!(
        db.live_tombstones(),
        0,
        "all tombstones must eventually purge"
    );
    use std::sync::atomic::Ordering::Relaxed;
    assert_eq!(
        db.stats().persistence_violations.load(Relaxed),
        0,
        "no purge may exceed the threshold"
    );
    assert!(
        db.stats().persistence_latency.max() <= d_th,
        "max purge latency {} > D_th {d_th}",
        db.stats().persistence_latency.max()
    );
}

/// The same bound for *sort-key range tombstones*: every range delete
/// must be physically purged (its carrier rewritten at the bottommost
/// level) within `D_th` ticks, under a workload that keeps issuing
/// overlapping ranges while puts re-populate the erased keyspace.
fn check_range_bound(seed: u64, d_th: u64, alloc: TtlAllocation) {
    let db = Db::open(Arc::new(MemFs::new()), "db", opts(d_th, alloc)).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    for step in 0..900u32 {
        let k: u32 = rng.gen_range(0..300);
        let roll: f64 = rng.gen();
        if roll < 0.08 {
            let hi = (k + rng.gen_range(1..40)).min(299);
            db.range_delete_keys(
                format!("key{k:04}").as_bytes(),
                format!("key{hi:04}").as_bytes(),
            )
            .unwrap();
        } else if roll < 0.25 {
            db.delete(format!("key{k:04}").as_bytes()).unwrap();
        } else {
            db.put(format!("key{k:04}").as_bytes(), &[b'v'; 24])
                .unwrap();
        }
        if step % 300 == 299 {
            // Idle time in sub-margin steps (see check_bound).
            let total = rng.gen_range(1..=2 * d_th);
            let step_size = (d_th / 32).max(1);
            let mut advanced = 0;
            while advanced < total {
                let inc = step_size.min(total - advanced);
                db.advance_clock(inc);
                advanced += inc;
                db.maintain().unwrap();
            }
        }
        if step % 100 == 0 {
            if let Some(age) = db.oldest_live_key_range_tombstone_age() {
                assert!(
                    age <= d_th,
                    "live range tombstone aged {age} > D_th {d_th} at step {step}"
                );
            }
        }
    }
    // Final settle: every range tombstone must reach its purge.
    let step_size = (d_th / 32).max(1);
    let mut advanced = 0;
    while advanced < 3 * d_th {
        db.advance_clock(step_size);
        advanced += step_size;
        db.maintain().unwrap();
    }
    assert_eq!(
        db.live_key_range_tombstones(),
        0,
        "all range tombstones must eventually purge"
    );
    use std::sync::atomic::Ordering::Relaxed;
    assert_eq!(
        db.stats().persistence_violations.load(Relaxed),
        0,
        "no purge may exceed the threshold"
    );
    assert!(
        db.stats().persistence_latency.max() <= d_th,
        "max purge latency {} > D_th {d_th}",
        db.stats().persistence_latency.max()
    );
}

/// The same deadline for the *value log*: a delete (or overwrite) that
/// kills a separated value turns its vlog frame dead once compaction
/// purges the pointer, and the dead extent must be physically
/// reclaimed — its segment rewritten or deleted — within `D_th` of the
/// covering tombstone's tick. The ratio trigger is disabled so only the
/// deadline rule can drive GC; a drained log proves the rule works.
fn check_vlog_bound(seed: u64, d_th: u64, separation_threshold: usize) {
    let mut o = opts(d_th, TtlAllocation::Uniform);
    o.value_separation_threshold = separation_threshold;
    o.vlog_segment_bytes = 4 << 10;
    o.vlog_gc_dead_ratio_percent = 0;
    let db = Db::open(Arc::new(MemFs::new()), "db", o).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut now = 0u64;
    for step in 0..1_200u32 {
        let k: u32 = rng.gen_range(0..200);
        if rng.gen_bool(0.35) {
            db.delete(format!("key{k:04}").as_bytes()).unwrap();
        } else {
            // Comfortably above every threshold this test runs with.
            db.put(format!("key{k:04}").as_bytes(), &[b'v'; 160])
                .unwrap();
        }
        if step % 300 == 299 {
            // Idle time in sub-margin steps (see check_bound).
            let total = rng.gen_range(1..=2 * d_th);
            let step_size = (d_th / 32).max(1);
            let mut advanced = 0;
            while advanced < total {
                let inc = step_size.min(total - advanced);
                db.advance_clock(inc);
                now += inc;
                advanced += inc;
                db.maintain().unwrap();
            }
        }
        if step % 100 == 0 {
            if let Some(t0) = db.tombstone_gauges().vlog_oldest_dead_tick {
                assert!(
                    now.saturating_sub(t0) <= d_th,
                    "dead vlog extent aged {} > D_th {d_th} at step {step}",
                    now.saturating_sub(t0)
                );
            }
        }
    }
    // Final settle: every dead extent must drain to zero.
    let step_size = (d_th / 32).max(1);
    let mut advanced = 0;
    while advanced < 3 * d_th {
        db.advance_clock(step_size);
        advanced += step_size;
        db.maintain().unwrap();
    }
    use std::sync::atomic::Ordering::Relaxed;
    assert!(
        db.stats().vlog_appends.load(Relaxed) > 0,
        "workload must actually exercise value separation"
    );
    let gauges = db.tombstone_gauges();
    assert_eq!(
        gauges.vlog_dead_bytes, 0,
        "dead vlog extents must drain within D_th"
    );
    assert_eq!(gauges.vlog_oldest_dead_tick, None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fade_bound_holds_exponential(seed in any::<u64>(), d_th in 500u64..20_000) {
        check_bound(seed, d_th, TtlAllocation::Exponential, true);
    }

    #[test]
    fn fade_bound_holds_uniform(seed in any::<u64>(), d_th in 500u64..20_000) {
        check_bound(seed, d_th, TtlAllocation::Uniform, true);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn fade_range_bound_holds_exponential(seed in any::<u64>(), d_th in 500u64..20_000) {
        check_range_bound(seed, d_th, TtlAllocation::Exponential);
    }

    #[test]
    fn fade_range_bound_holds_uniform(seed in any::<u64>(), d_th in 500u64..20_000) {
        check_range_bound(seed, d_th, TtlAllocation::Uniform);
    }

    #[test]
    fn vlog_dead_extents_drain_within_deadline(seed in any::<u64>(), d_th in 500u64..20_000) {
        check_vlog_bound(seed, d_th, 64);
    }
}

#[test]
fn vlog_bound_with_tiny_threshold() {
    // Separate *every* value (threshold 1) under an aggressive D_th:
    // the log churns through segments quickly and the deadline must
    // still drain each one.
    check_vlog_bound(11, 600, 1);
}

#[test]
fn fade_range_bound_with_tiny_threshold() {
    check_range_bound(9, 600, TtlAllocation::Uniform);
}

#[test]
fn fade_bound_steady_write_stream() {
    check_bound(7, 3_000, TtlAllocation::Exponential, false);
}

#[test]
fn fade_bound_with_tiny_threshold() {
    // Aggressive thresholds force expiry through every station quickly;
    // the bound must still hold (at higher write amplification).
    check_bound(8, 600, TtlAllocation::Uniform, true);
}

#[test]
fn baseline_without_fade_does_violate() {
    // Sanity check that the property above is not vacuous: the same
    // workload without FADE leaves over-age tombstones behind.
    let mut o = opts(3_000, TtlAllocation::Uniform);
    o.fade = None;
    // Inline maintenance: which tombstones are still above the bottom at
    // the end depends on how flushes and compactions interleave, and a
    // racing worker makes that a coin toss.
    o.background_threads = 0;
    let db = Db::open(Arc::new(MemFs::new()), "db", o).unwrap();
    for i in 0..300u32 {
        db.put(format!("key{i:04}").as_bytes(), &[b'v'; 24])
            .unwrap();
    }
    for i in 0..300u32 {
        db.delete(format!("key{i:04}").as_bytes()).unwrap();
    }
    db.flush().unwrap();
    db.advance_clock(100_000);
    db.maintain().unwrap();
    let age = db
        .oldest_live_tombstone_age()
        .expect("baseline keeps tombstones");
    assert!(
        age > 3_000,
        "baseline tombstones should exceed any reasonable threshold"
    );
}

/// Age a sort-key range tombstone over `lo..=hi`, laid over `keys` keys
/// whose older versions rest at the bottom under newer ones above it,
/// in sub-margin steps of inline maintenance. Returns the compactions
/// the aging took and the tick, counted from the delete, at which the
/// tombstone retired (`None` if it never did).
fn age_range_tombstone_over_the_bottom(keys: u32, lo: u32, hi: u32) -> (u64, Option<u64>) {
    use std::sync::atomic::Ordering::Relaxed;
    let d_th = 12_000;
    let mut o = opts(d_th, TtlAllocation::Exponential);
    o.background_threads = 0;
    let db = Db::open(Arc::new(MemFs::new()), "db", o).unwrap();
    let key = |i: u32| format!("key{i:04}").into_bytes();
    // Base data at the bottom, so later merges above it are not
    // bottommost and a range tombstone cannot retire on the way down.
    for i in 0..keys {
        db.put(&key(i), &[b'a'; 24]).unwrap();
    }
    db.compact_all().unwrap();
    // Newer versions above the bottom, then the range delete over them.
    for i in 0..keys {
        db.put(&key(i), &[b'b'; 24]).unwrap();
    }
    db.range_delete_keys(&key(lo), &key(hi)).unwrap();
    assert_eq!(db.live_key_range_tombstones(), 1);
    // Age it in sub-margin steps; every pass must return.
    let compactions_before = db.stats().compactions.load(Relaxed);
    let mut retired_at = None;
    let mut advanced = 0;
    while advanced < 2 * d_th {
        db.advance_clock(d_th / 32);
        advanced += d_th / 32;
        db.maintain().unwrap();
        if retired_at.is_none() && db.live_key_range_tombstones() == 0 {
            retired_at = Some(advanced);
        }
    }
    assert_eq!(db.stats().persistence_violations.load(Relaxed), 0);
    assert_eq!(db.scan(&key(lo), &key(hi)).unwrap(), vec![]);
    let outside = (0..keys).filter(|i| !(lo..=hi).contains(i));
    for i in outside.step_by(97) {
        assert_eq!(db.get(&key(i)).unwrap().as_deref(), Some(&[b'b'; 24][..]));
    }
    (
        db.stats().compactions.load(Relaxed) - compactions_before,
        retired_at,
    )
}

#[test]
fn range_tombstone_blocked_at_the_bottom_does_not_spin() {
    // A sort-key range tombstone can retire only once no file holds an
    // older entry in its range. When FADE used to sink part of the
    // covered data to the bottom ahead of the rest, the bottom-level TTL
    // rewrite could not purge it while the rest sat above. With inline
    // maintenance the clock stands still inside the pass: the picker
    // used to rewrite the same file again until the per-pass bound
    // failed the write. The tombstone's station — the shallowest level
    // under it — must descend instead, after which it retires, in time.
    let d_th = 12_000;
    // The tombstone covers all of the data ...
    let (compactions, retired_at) = age_range_tombstone_over_the_bottom(400, 0, 399);
    assert!(
        compactions < 200,
        "maintenance must converge, not rewrite in place"
    );
    assert!(retired_at.is_some_and(|t| t <= d_th), "{retired_at:?}");
    // ... or straddles the middle of it.
    let (compactions, retired_at) = age_range_tombstone_over_the_bottom(4_000, 1_500, 2_500);
    assert!(compactions <= 8, "{compactions} compactions");
    assert!(retired_at.is_some_and(|t| t <= d_th), "{retired_at:?}");
}

/// The secondary kind retires by the same rule: once a bottommost merge
/// has applied them, mid-domain secondary range deletes hold no file,
/// even though every surviving file's delete-key fences still span
/// them, and they all retire.
#[test]
fn mid_domain_secondary_range_deletes_retire_after_a_full_compaction() {
    use std::sync::atomic::Ordering::Relaxed;
    let db = Db::open(
        Arc::new(MemFs::new()),
        "db",
        DbOptions::small().with_fade(50_000),
    )
    .unwrap();
    let keys = 20_000u64;
    for i in 0..keys {
        db.put_with_dkey(format!("key{i:05}").as_bytes(), b"value", i)
            .unwrap();
    }
    let deletes = 100;
    for j in 0..deletes {
        let dkey = keys / 4 + j * (keys / 2) / deletes;
        db.range_delete_secondary(dkey, dkey).unwrap();
    }
    db.compact_all().unwrap();
    assert_eq!(db.stats().entries_range_purged.load(Relaxed), deletes);
    assert_eq!(db.live_range_tombstones().len(), 0);
    assert_eq!(
        db.get(format!("key{:05}", keys / 4).as_bytes()).unwrap(),
        None
    );
    assert!(db.get(b"key00000").unwrap().is_some());
}

#[test]
fn snapshot_pinned_bottom_does_not_spin() {
    // A snapshot pins the tombstones of every bottom file it predates,
    // so each within-bottom TTL rewrite of them comes out as it went in.
    // The picker must pass over the outputs of *all* such rewrites at
    // the same tick, not only of the last one: otherwise two files take
    // turns until the per-pass bound fails the pass and every later
    // write with it. And it must keep passing over them at later ticks
    // while the snapshot lives (each put is a tick, and rewriting every
    // pinned file again on each one is work that changes nothing), but
    // not once it is released: the tombstones then purge within `D_th`.
    use std::sync::atomic::Ordering::Relaxed;
    let d_th = 1_000;
    let o = DbOptions {
        max_levels: 3,
        ..DbOptions::small()
    }
    .with_fade(d_th);
    let db = Db::open(Arc::new(MemFs::new()), "db", o).unwrap();
    let key = |i: u32| format!("key{i:05}").into_bytes();
    for i in 0..3_000 {
        db.put(&key(i), &[b'v'; 24]).unwrap();
    }
    db.compact_all().unwrap();
    let snapshot = db.snapshot();
    for i in (0..3_000).step_by(50) {
        db.delete(&key(i)).unwrap();
    }
    db.compact_all().unwrap();
    db.advance_clock(5_000);
    db.maintain().unwrap();
    let pinned = db.live_tombstones();
    assert!(pinned > 0, "the snapshot pins the tombstones at the bottom");
    let compactions = db.stats().compactions.load(Relaxed);
    for i in 0..20 {
        db.put(&key(i), &[b'w'; 24]).unwrap();
    }
    assert_eq!(
        db.stats().compactions.load(Relaxed),
        compactions,
        "a put while the snapshot lives rewrites no pinned file"
    );
    assert_eq!(db.live_tombstones(), pinned);
    drop(snapshot);
    let released = db.now();
    while db.live_tombstones() > 0 {
        assert!(
            db.now() - released <= d_th,
            "the pinned tombstones purge within D_th of the release"
        );
        db.advance_clock(d_th / 32);
        db.maintain().unwrap();
    }
}

/// A reopened inline engine sees a recovered table's FADE deadline: an
/// open computes the deadline from the tree it recovered, so the first
/// commit past it compacts, though no write since the open has sealed
/// a buffer or installed anything.
#[test]
fn reopened_engine_acts_on_a_recovered_tables_deadline() {
    use acheron::{CompactionReason, Event};
    let fs = Arc::new(MemFs::new());
    // Each open gets its own options, and so its own clock. Uniform
    // budgets of 187 ticks over three stations: the deletes stay in
    // their table past the reopen, and a buffer of 64 KiB seals only
    // long after the table's deadline.
    let d_th = 600;
    let o = || DbOptions {
        max_levels: 3,
        write_buffer_bytes: 64 << 10,
        fade: Some(FadeOptions {
            delete_persistence_threshold: d_th,
            ttl_allocation: TtlAllocation::Uniform,
        }),
        ..DbOptions::small()
    };
    let db = Db::open(fs.clone(), "db", o()).unwrap();
    for i in 0..20u32 {
        db.put(format!("key{i:02}").as_bytes(), b"v").unwrap();
    }
    db.flush().unwrap();
    for i in 0..20u32 {
        db.delete(format!("key{i:02}").as_bytes()).unwrap();
    }
    db.flush().unwrap();
    assert_eq!(db.live_tombstones(), 20, "the deletes rest in a table");
    drop(db);

    let db = Db::open(fs, "db", o()).unwrap();
    let ttl_pick = |e: &Event| {
        matches!(
            e,
            Event::CompactionPicked {
                reason: CompactionReason::TtlExpired,
                ..
            }
        )
    };
    let opened = db.now();
    assert!(!db.events().events.iter().any(|e| ttl_pick(&e.event)));
    let mut puts = 0u32;
    while !db.events().events.iter().any(|e| ttl_pick(&e.event)) {
        assert!(db.now() - opened <= d_th, "no TTL pick within D_th");
        db.put(format!("other{puts:03}").as_bytes(), b"v").unwrap();
        puts += 1;
    }
    let events: Vec<Event> = db.events().events.iter().map(|e| e.event).collect();
    let pick = events.iter().position(ttl_pick).unwrap();
    assert!(
        !(events[..pick].iter()).any(|e| matches!(e, Event::MemtableSealed { .. })),
        "the TTL pick came before any seal: {events:?}"
    );
    assert!(puts > 0, "the deadline was still ahead at the open");
}

/// Tombstone ages are counted on the engine's clock, so two engines
/// opened from clones of one options value must not tick each other:
/// each gets its own logical clock, started at the given one's tick.
#[test]
fn engines_opened_from_one_options_value_keep_their_own_clocks() {
    let opts = DbOptions::small();
    opts.clock.as_logical().unwrap().advance(100);
    let a = Db::open(Arc::new(MemFs::new()), "a", opts.clone()).unwrap();
    let b = Db::open(Arc::new(MemFs::new()), "b", opts.clone()).unwrap();
    assert_eq!(
        (a.now(), b.now()),
        (100, 100),
        "each starts at the given tick"
    );
    for i in 0..50u32 {
        a.put(&i.to_be_bytes(), b"v").unwrap();
    }
    a.delete(b"k").unwrap();
    a.advance_clock(1_000);
    assert_eq!(a.now(), 1_151);
    assert_eq!(b.now(), 100, "writes to one engine moved the other's clock");
    assert_eq!(opts.clock.now(), 100, "an engine ticks its own clock");
}
