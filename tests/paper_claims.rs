//! The paper's claims E1–E10 as count-gated tests.
//!
//! Each test replays one table of the evaluation (EXPERIMENTS.md) on
//! [`MemFs`] with [`DbOptions::small`]: synchronous maintenance and a
//! logical clock (1 tick = 1 write op), so every figure asserted here —
//! write and space amplification, persistence ages, pages and bytes
//! read — is a count that repeats exactly (E1's two-worker row aside:
//! its maximum age varies, its bound does not). Op counts, key spaces and
//! thresholds are the published runs' scaled by 0.3, so the whole file
//! fits a debug-build test run. E1 and E8 keep the published sizes: at
//! 0.3× the tree is shallow enough that saturation alone carries the
//! baseline's deleted range (E1) or its oldest tombstone (E8) to the
//! bottom, and the unbounded baseline those claims contrast with is gone.
//!
//! Where the paper states a band (Lethe: +4–25% write amplification,
//! ≥ 2.1× space amplification) the test asserts the band; elsewhere it
//! asserts the ordering. Timing columns of the original tables are gone
//! or replaced by the counts that produced them.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use acheron::{Db, DbOptions, FadeOptions, FilePickPolicy, TtlAllocation};
use acheron_vfs::{IoStatsSnapshot, MemFs, Vfs};
use acheron_workload::{key_bytes, run_ops, KeyDistribution, Op, OpMix, WorkloadGen, WorkloadSpec};

fn open(opts: DbOptions) -> (Arc<MemFs>, Db) {
    let fs = Arc::new(MemFs::new());
    let db = Db::open(fs.clone(), "db", opts).expect("open db");
    (fs, db)
}

fn opts(d_th: Option<u64>) -> DbOptions {
    match d_th {
        Some(d) => DbOptions::small().with_fade(d),
        None => DbOptions::small(),
    }
}

/// Advance the logical clock by `total` ticks in steps of `step`, giving
/// maintenance a turn after each: inline `maintain()` for a synchronous
/// engine, a drained worker pool otherwise (the workers must notice each
/// deadline themselves). One giant jump would deny FADE any chance to
/// act before a deadline.
fn settle(db: &Db, total: u64, step: u64) {
    let mut advanced = 0;
    while advanced < total {
        let inc = step.min(total - advanced);
        db.advance_clock(inc);
        advanced += inc;
        if db.options().background_threads > 0 {
            db.wait_idle().unwrap();
        } else {
            db.maintain().unwrap();
        }
    }
}

fn io(fs: &MemFs) -> IoStatsSnapshot {
    fs.io_stats().snapshot()
}

fn workload(mix: OpMix, dist: KeyDistribution, ops: usize) -> Vec<Op> {
    WorkloadGen::new(WorkloadSpec::new(mix, dist)).take(ops)
}

/// A sort key uncorrelated with the insertion index `i`: the adversarial
/// case for KiWi's weave, where sort order and delete order disagree.
fn scrambled(i: u64) -> Vec<u8> {
    key_bytes(i % 2_647 * 7 + i / 2_647)
}

/// E1: FADE persists every delete within `D_th`, for any `D_th`; a
/// delete-blind engine gives no bound at all.
#[test]
fn e1_every_delete_persists_within_d_th() {
    const POPULATION: u64 = 8_000;
    const DELETES: u64 = 2_000;
    const FILL: u64 = 12_000;
    const IDLE: u64 = 400_000;

    // (live tombstones, purged, oldest live age, persistence max, p99, violations)
    let run = |d_th: Option<u64>, workers: usize| {
        let mut o = opts(d_th);
        o.background_threads = workers;
        let (_fs, db) = open(o);
        for i in 0..POPULATION {
            db.put(&key_bytes(i), &[b'v'; 48]).unwrap();
        }
        for i in 0..DELETES {
            db.delete(&key_bytes(i * (POPULATION / DELETES))).unwrap();
        }
        // A hot range elsewhere keeps the engine busy without touching
        // the deleted keys, so saturation alone never purges them.
        for i in 0..FILL {
            db.put(format!("zzz{i:09}").as_bytes(), &[b'w'; 48])
                .unwrap();
        }
        settle(&db, IDLE, d_th.map_or(2_000, |d| d / 32));
        let s = db.stats();
        let lat = &s.persistence_latency;
        (
            db.live_tombstones(),
            s.tombstones_purged.load(Relaxed),
            db.oldest_live_tombstone_age().unwrap_or(0),
            lat.max(),
            lat.quantile(0.99),
            s.persistence_violations.load(Relaxed),
        )
    };

    let (live, _, oldest, ..) = run(None, 0);
    assert_eq!(live, DELETES, "baseline: every tombstone stays live");
    assert!(
        oldest > IDLE,
        "baseline: oldest live tombstone aged {oldest}"
    );

    for (d_th, workers) in [(5_000, 0), (20_000, 0), (80_000, 0), (20_000, 2)] {
        let (live, purged, _, max, p99, violations) = run(Some(d_th), workers);
        let row = format!("D_th {d_th}, {workers} workers");
        assert_eq!(
            (live, purged),
            (0, DELETES),
            "{row}: every tombstone purged"
        );
        assert!(p99 <= max && max <= d_th, "{row}: p99 {p99}, max {max}");
        assert_eq!(violations, 0, "{row}");
    }
}

/// E2: FADE's timely persistence costs a modest write-amplification
/// increase that shrinks as `D_th` relaxes (Lethe: +4–25%).
#[test]
fn e2_write_amp_overhead_shrinks_with_d_th_into_lethes_band() {
    let ops = workload(
        OpMix::write_heavy(10),
        KeyDistribution::uniform(9_000),
        12_000,
    );
    let write_amp = |d_th: Option<u64>| {
        let (_fs, db) = open(opts(d_th));
        run_ops(&db, &ops).unwrap();
        db.maintain().unwrap();
        db.stats().write_amplification()
    };
    let base = write_amp(None);
    let overheads: Vec<f64> = [600, 2_400, 9_600, 38_400]
        .into_iter()
        .map(|d| write_amp(Some(d)) / base - 1.0)
        .collect();
    assert!(
        overheads.windows(2).all(|w| w[1] <= w[0]),
        "overhead grows with D_th: {overheads:?}"
    );
    assert!(
        overheads.iter().any(|o| (0.04..=0.25).contains(o)),
        "no D_th lands in +4-25%: {overheads:?}"
    );
}

/// E3: purging tombstones and what they cover lowers space
/// amplification, more so the larger the delete fraction (Lethe:
/// 2.1×–9.8×).
#[test]
fn e3_space_amp_gain_grows_with_delete_fraction() {
    const POPULATION: u64 = 3_000;
    // (space amplification, live tombstones)
    let run = |delete_pct: u64, fade: bool| {
        let (_fs, db) = open(opts(fade.then_some(2_400)));
        for i in 0..POPULATION {
            db.put(&key_bytes(i), &[b'v'; 64]).unwrap();
        }
        // A stride spreads the tombstones over every file.
        let deletes = POPULATION * delete_pct / 100;
        for i in 0..deletes {
            db.delete(&key_bytes(i * (POPULATION / deletes))).unwrap();
        }
        db.flush().unwrap();
        settle(&db, 15_000, 75);
        let live = db.scan(&key_bytes(0), &key_bytes(POPULATION)).unwrap();
        let logical: usize = live.iter().map(|(k, v)| k.len() + v.len()).sum();
        (
            db.table_bytes() as f64 / logical as f64,
            db.live_tombstones(),
        )
    };
    let mut gains = Vec::new();
    for pct in [5, 15, 25, 35, 50, 70, 90] {
        let (base, _) = run(pct, false);
        let (fade, tombstones) = run(pct, true);
        assert_eq!(tombstones, 0, "{pct}% deletes: FADE leaves tombstones");
        if pct == 50 {
            assert!(base / fade >= 2.1, "50% deletes: gain {:.2}x", base / fade);
        }
        gains.push(base / fade);
    }
    assert!(
        gains.windows(2).all(|w| w[1] >= w[0]),
        "gain not monotone: {gains:?}"
    );
}

/// E4: after a delete-heavy history, FADE's lookups touch fewer pages
/// and bytes, with the same answers.
#[test]
fn e4_lookups_read_less_after_purging() {
    const POPULATION: u64 = 3_600;
    const LOOKUPS: u64 = 9_000;
    // (hits, live tombstones, pages read, bytes read)
    let run = |fade: bool| {
        let (fs, db) = open(opts(fade.then_some(3_000)));
        for i in 0..POPULATION {
            db.put(&key_bytes(i), &[b'v'; 64]).unwrap();
            // Superfluous updates the baseline retains across levels.
            if i % 2 == 0 {
                db.put(&key_bytes(i), &[b'w'; 64]).unwrap();
            }
        }
        for i in (0..POPULATION).step_by(3) {
            db.delete(&key_bytes(i)).unwrap();
        }
        db.flush().unwrap();
        settle(&db, 19_200, 90);
        let before = io(&fs);
        let mut hits = 0;
        for q in 0..LOOKUPS {
            // Live keys, deleted keys and misses, in a fixed scatter.
            let id = (q * 2_654_435_761) % (POPULATION + POPULATION / 4);
            hits += db.get(&key_bytes(id)).unwrap().is_some() as u64;
        }
        let read = io(&fs) - before;
        (hits, db.live_tombstones(), read.read_ops, read.bytes_read)
    };
    let (base_hits, _, base_pages, base_bytes) = run(false);
    let (hits, tombstones, pages, bytes) = run(true);
    assert_eq!(hits, base_hits);
    assert_eq!(tombstones, 0);
    assert!(
        pages < base_pages,
        "pages read: FADE {pages}, baseline {base_pages}"
    );
    assert!(
        bytes < base_bytes,
        "bytes read: FADE {bytes}, baseline {base_bytes}"
    );
}

const KIWI_POPULATION: u64 = 6_000;

/// Load `KIWI_POPULATION` entries whose delete key is their insertion
/// index (a timestamp, as in the paper's model), then move everything
/// to the bottom, where KiWi weaves tiles of `h` pages.
fn kiwi_tree(h: usize) -> (Arc<MemFs>, Db) {
    let (fs, db) = open(DbOptions::small().with_tile(h));
    for i in 0..KIWI_POPULATION {
        db.put_with_dkey(&scrambled(i), &[b'v'; 64], i).unwrap();
    }
    db.compact_all().unwrap();
    (fs, db)
}

/// E5: KiWi erases a secondary-key range by dropping whole pages unread,
/// without a costly full-tree merge.
#[test]
fn e5_secondary_range_delete_drops_pages_unread() {
    const ERASE: u64 = KIWI_POPULATION * 3 / 10;
    // (bytes read, bytes written, pages dropped)
    let range_delete = |h: usize| {
        let (fs, db) = kiwi_tree(h);
        let before = io(&fs);
        db.range_delete_secondary(0, ERASE - 1).unwrap();
        db.compact_all().unwrap();
        let d = io(&fs) - before;
        (
            d.bytes_read,
            d.bytes_written,
            db.stats().pages_dropped.load(Relaxed),
        )
    };
    let point_deletes = {
        let (fs, db) = kiwi_tree(1);
        let before = io(&fs);
        for i in 0..ERASE {
            db.delete(&scrambled(i)).unwrap();
        }
        db.compact_all().unwrap();
        (io(&fs) - before).bytes_read
    };
    let (read1, written1, dropped1) = range_delete(1);
    let (read4, written4, dropped4) = range_delete(4);
    let (read16, _, dropped16) = range_delete(16);
    assert!(
        point_deletes > read1 && read1 > read4 && read4 >= read16,
        "bytes read: point {point_deletes}, h=1 {read1}, h=4 {read4}, h=16 {read16}"
    );
    assert_eq!(dropped1, 0, "h=1 has no page to drop");
    assert!(
        dropped4 > 0 && dropped16 > 0,
        "pages dropped: h=4 {dropped4}, h=16 {dropped16}"
    );
    // The write side barely moves: covered pages are skipped on read,
    // but the rest of each file is still rewritten. Pinned so a change
    // to that cost shows here. (Format 4 moved h=1 from 254,229: an
    // unwoven table carries one table filter in place of its page
    // filters.)
    assert_eq!(
        (written1, written4),
        (253_570, 239_314),
        "bytes written at h=1, h=4"
    );
}

/// E6: the tile size `h` trades lookup locality for secondary-delete
/// granularity: more pages droppable as `h` grows, while per-page
/// Blooms keep the pages read per lookup near h=1's.
#[test]
fn e6_tile_size_buys_droppable_pages_at_bounded_read_cost() {
    const LOOKUPS: u64 = 4_500;
    // (pages read per lookup, pages dropped erasing the oldest 30%)
    let run = |h: usize| {
        let (fs, db) = kiwi_tree(h);
        let before = io(&fs);
        for q in 0..LOOKUPS {
            db.get(&scrambled(q * 48_271 % KIWI_POPULATION)).unwrap();
        }
        let pages = (io(&fs) - before).read_ops as f64 / LOOKUPS as f64;
        db.range_delete_secondary(0, KIWI_POPULATION * 3 / 10)
            .unwrap();
        db.compact_all().unwrap();
        (pages, db.stats().pages_dropped.load(Relaxed))
    };
    let (pages1, dropped1) = run(1);
    assert_eq!(dropped1, 0, "h=1 has no page to drop");
    for h in [2, 4, 8, 16, 32] {
        let (pages, dropped) = run(h);
        assert!(dropped > 0, "h={h}: no page dropped");
        assert!(
            pages <= 1.25 * pages1,
            "h={h}: {pages:.2} pages per lookup, h=1 {pages1:.2}"
        );
    }
}

/// E7: on realistic mixes FADE returns the same answers and holds fewer
/// live tombstones wherever the mix deletes.
#[test]
fn e7_mixed_workloads_same_answers_fewer_tombstones() {
    const KEYS: u64 = 6_000;
    let mixes = [
        (OpMix::insert_only(), KeyDistribution::uniform(KEYS)),
        (OpMix::write_heavy(25), KeyDistribution::uniform(KEYS)),
        (OpMix::mixed(40, 10, 40, 10), KeyDistribution::uniform(KEYS)),
        (
            OpMix::mixed(40, 10, 40, 10),
            KeyDistribution::zipfian(KEYS, 0.99),
        ),
        (OpMix::mixed(15, 5, 70, 10), KeyDistribution::uniform(KEYS)),
    ];
    for (i, (mix, dist)) in mixes.into_iter().enumerate() {
        let ops = workload(mix, dist, 9_000);
        let deletes = ops.iter().any(|op| matches!(op, Op::Delete { .. }));
        // (get hits, live tombstones)
        let run = |d_th: Option<u64>| {
            let (_fs, db) = open(opts(d_th));
            let report = run_ops(&db, &ops).unwrap();
            (report.get_hits, db.live_tombstones())
        };
        let (base_hits, base_tombstones) = run(None);
        let (hits, tombstones) = run(Some(6_000));
        assert_eq!(hits, base_hits, "mix {i}: get hits differ");
        if deletes {
            assert!(
                tombstones < base_tombstones,
                "mix {i}: live tombstones FADE {tombstones}, baseline {base_tombstones}"
            );
        }
    }
}

/// E8: under a steady delete-bearing workload, the baseline's oldest
/// tombstone ages without bound while FADE's never passes `D_th`.
#[test]
fn e8_oldest_tombstone_age_stays_under_d_th() {
    const D_TH: u64 = 10_000;
    let ops = workload(
        OpMix::write_heavy(30),
        KeyDistribution::uniform(50_000),
        60_000,
    );
    let timeline = |d_th: Option<u64>| {
        let (_fs, db) = open(opts(d_th));
        ops.chunks(5_000)
            .map(|chunk| {
                run_ops(&db, chunk).unwrap();
                db.oldest_live_tombstone_age().unwrap_or(0)
            })
            .collect::<Vec<_>>()
    };
    let base = timeline(None);
    let fade = timeline(Some(D_TH));
    assert!(
        base.windows(2).all(|w| w[1] > w[0]),
        "baseline age stalls: {base:?}"
    );
    assert!(
        base.last() > Some(&D_TH),
        "baseline never passes D_th: {base:?}"
    );
    assert!(
        fade.iter().all(|&age| age <= D_TH),
        "FADE passes D_th: {fade:?}"
    );
}

/// FADE run of E9/E10's workload: 20% deletes, then one `maintain()`.
fn ablation(d_th: u64, ttl_allocation: TtlAllocation, pick: FilePickPolicy) -> Db {
    let mut o = DbOptions::small();
    o.fade = Some(FadeOptions {
        delete_persistence_threshold: d_th,
        ttl_allocation,
    });
    o.file_pick = pick;
    let (_fs, db) = open(o);
    let ops = workload(
        OpMix::write_heavy(20),
        KeyDistribution::uniform(9_000),
        12_000,
    );
    run_ops(&db, &ops).unwrap();
    db.maintain().unwrap();
    db
}

/// Idle `db` for twice `d_th` under maintenance, then check the bound
/// over every tombstone it ever held: none left live, none purged late.
/// (Right after the workload no tombstone can yet be older than `d_th`
/// when the run is shorter than it, as E9's is.)
fn assert_bound_held(db: &Db, d_th: u64, row: &str) {
    settle(db, 2 * d_th, d_th / 32);
    let s = db.stats();
    let max = s.persistence_latency.max();
    assert_eq!(db.live_tombstones(), 0, "{row}: tombstones left live");
    assert!(max <= d_th, "{row}: max persistence {max}");
    assert_eq!(s.persistence_violations.load(Relaxed), 0, "{row}");
}

/// E9: every saturation-time file pick keeps the bound; delete-aware
/// picks persist earlier and min-overlap writes least.
#[test]
fn e9_file_pick_policies_trade_persistence_for_write_amp() {
    const D_TH: u64 = 12_000;
    // (write amp, persistence p50) at the end of the workload
    let run = |pick: FilePickPolicy| {
        let db = ablation(D_TH, TtlAllocation::Exponential, pick);
        let s = db.stats();
        let figures = (s.write_amplification(), s.persistence_latency.quantile(0.5));
        assert_bound_held(&db, D_TH, &format!("{pick:?}"));
        figures
    };
    let (overlap_wa, overlap_p50) = run(FilePickPolicy::MinOverlap);
    let (density_wa, density_p50) = run(FilePickPolicy::TombstoneDensity);
    let (oldest_wa, _) = run(FilePickPolicy::OldestTombstone);
    run(FilePickPolicy::RoundRobin);
    assert!(
        density_p50 < overlap_p50,
        "p50 persistence: density {density_p50}, min-overlap {overlap_p50}"
    );
    assert!(
        overlap_wa < density_wa && overlap_wa < oldest_wa,
        "write amp: min-overlap {overlap_wa:.3}, density {density_wa:.3}, oldest {oldest_wa:.3}"
    );
}

/// E10: uniform and exponential splits of `D_th` into per-level TTLs
/// both keep the bound. (Their cost ranking flips with scale; see
/// EXPERIMENTS.md.)
#[test]
fn e10_both_ttl_allocations_keep_the_bound() {
    for d_th in [2_400, 9_600] {
        for alloc in [TtlAllocation::Uniform, TtlAllocation::Exponential] {
            let db = ablation(d_th, alloc, DbOptions::small().file_pick);
            assert_bound_held(&db, d_th, &format!("{alloc:?}, D_th {d_th}"));
        }
    }
}
