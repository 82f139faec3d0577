//! E6 — KiWi's read/secondary-delete tradeoff vs. tile granularity `h`.
//!
//! Claim checked: the delete-tile size `h` trades sort-key read locality
//! (a point lookup must consult up to `h` pages per tile, mitigated by
//! per-page Bloom filters) against secondary-delete granularity (larger
//! tiles → narrower per-page dkey bands → more droppable pages). Lethe
//! argues the point-lookup cost stays near-flat thanks to the filters
//! while the delete benefit grows.
//!
//! The engine weaves only the outputs of bottommost compactions (every
//! other table is written with `h = 1`). The `compact_all()` after the
//! load puts every table at the bottom, so the reads below measure
//! woven tiles at the `h` of each row.

use std::time::Instant;

use acheron_bench::{base_opts, f2, f3, grouped, open_db, print_table};
use acheron_workload::key_bytes;

const POPULATION: u64 = 15_000;
const LOOKUPS: u64 = 15_000;
const SCANS: u64 = 200;
const SCAN_WIDTH: u64 = 200;

fn run(h: usize) -> Vec<String> {
    let opts = base_opts().with_tile(h);
    let (_fs, db) = open_db(opts);
    for i in 0..POPULATION {
        // Scrambled keys, timestamp dkeys: the adversarial case for the
        // weave (sort order uncorrelated with delete order).
        db.put_with_dkey(&key_bytes(i % 7_919 * 7 + i / 7_919), &[b'v'; 64], i)
            .unwrap();
    }
    db.compact_all().unwrap();

    // Point lookups.
    let start = Instant::now();
    for q in 0..LOOKUPS {
        let i = (q * 48_271) % POPULATION;
        db.get(&key_bytes(i % 7_919 * 7 + i / 7_919)).unwrap();
    }
    let lookup_us = start.elapsed().as_secs_f64() * 1e6 / LOOKUPS as f64;

    // Range scans on the sort key (the weave's worst case: pages within
    // a tile must be merged).
    let start = Instant::now();
    let mut rows = 0u64;
    for q in 0..SCANS {
        let lo = (q * 6_151) % (POPULATION - SCAN_WIDTH);
        rows += db
            .scan(&key_bytes(lo), &key_bytes(lo + SCAN_WIDTH))
            .unwrap()
            .len() as u64;
    }
    let scan_ms = start.elapsed().as_secs_f64() * 1e3 / SCANS as f64;

    // Secondary-delete granularity: fraction of pages droppable when
    // erasing the oldest 30% by timestamp.
    db.range_delete_secondary(0, POPULATION * 3 / 10).unwrap();
    use std::sync::atomic::Ordering::Relaxed;
    let pages_before = db.stats().pages_dropped.load(Relaxed);
    db.compact_all().unwrap();
    let dropped = db.stats().pages_dropped.load(Relaxed) - pages_before;

    vec![
        h.to_string(),
        f3(lookup_us),
        f2(scan_ms),
        grouped(rows / SCANS),
        grouped(dropped),
    ]
}

fn main() {
    let rows: Vec<Vec<String>> = [1usize, 2, 4, 8, 16, 32].iter().map(|&h| run(h)).collect();
    print_table(
        "E6: KiWi tile granularity h — read cost vs delete granularity",
        &[
            "h",
            "lookup us/op",
            "scan ms/op",
            "rows/scan",
            "pages dropped on erase",
        ],
        &rows,
    );
    println!(
        "\nExpected shape: lookup latency grows gently with h (Bloom filters absorb\n\
         most of the extra pages); scans degrade more visibly; droppable pages on a\n\
         secondary delete rise sharply with h. h=1 is the classic layout."
    );
}
