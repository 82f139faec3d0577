//! What a sort-key range delete costs as range tombstones accumulate.
//!
//! For R = 100, 300 and 1,000 live range tombstones, an engine on `MemFs`
//! holds 20,000 keys in one table and R scattered three-key range
//! deletes over them. The example prints, per R:
//!
//! - `put`: a put into the write buffer, for scale;
//! - `range delete`: one range delete, all R buffered;
//! - `scan (buffered)`: a 50-key scan while the R are buffered;
//! - `install`: the flush that moves the R into the tree, which writes
//!   them as R manifest edits in its one manifest record;
//! - `scan (tree)`: the same scans once the R are in the tree.
//!
//! Every range tombstone index is a binary search, so the scans and the
//! delete may not grow with R; the install grows with R, once. The
//! example exits nonzero if, at R = 1,000, a range delete costs more
//! than 20× a put or a buffered scan more than 20× a tree scan.
//!
//! Run with: `cargo run --release --example range_delete_scale`

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use acheron::{Db, DbOptions};
use acheron_vfs::MemFs;

const KEYS: u32 = 20_000;
const SCANS: u32 = 400;
const BOUND: f64 = 20.0;

fn key(i: u32) -> Vec<u8> {
    format!("key{i:06}").into_bytes()
}

/// Mean time per call of `f` over `n` calls.
fn mean(n: u32, mut f: impl FnMut(u32)) -> Duration {
    let started = Instant::now();
    (0..n).for_each(&mut f);
    started.elapsed() / n
}

struct Row {
    r: u32,
    put: Duration,
    range_delete: Duration,
    buffered_scan: Duration,
    install: Duration,
    tree_scan: Duration,
}

fn measure(r: u32) -> Row {
    let opts = DbOptions {
        write_buffer_bytes: 256 << 20,
        background_threads: 0,
        ..DbOptions::default()
    };
    let db = Db::open(Arc::new(MemFs::new()), "db", opts).unwrap();
    let put = mean(KEYS, |i| db.put(&key(i), b"value-bytes").unwrap());
    db.flush().unwrap();
    let spacing = KEYS / r;
    let range_delete = mean(r, |j| {
        db.range_delete_keys(&key(j * spacing), &key(j * spacing + 2))
            .unwrap()
    });
    // 50-key windows spread over the key space; the first scan of each
    // phase is a warm-up (it builds the buffered index once).
    let scan = |s: u32| {
        let lo = (s * 7_919) % (KEYS - 50);
        db.scan(&key(lo), &key(lo + 49)).unwrap();
    };
    scan(0);
    let buffered_scan = mean(SCANS, scan);
    let started = Instant::now();
    db.flush().unwrap();
    let install = started.elapsed();
    assert_eq!(db.live_key_range_tombstones(), u64::from(r));
    scan(0);
    let tree_scan = mean(SCANS, scan);
    Row {
        r,
        put,
        range_delete,
        buffered_scan,
        install,
        tree_scan,
    }
}

fn main() -> ExitCode {
    println!(
        "{:>6} {:>10} {:>14} {:>16} {:>10} {:>12}",
        "R", "put", "range delete", "scan (buffered)", "install", "scan (tree)"
    );
    let rows: Vec<Row> = [100, 300, 1_000].into_iter().map(measure).collect();
    for row in &rows {
        println!(
            "{:>6} {:>10.1?} {:>14.1?} {:>16.1?} {:>10.1?} {:>12.1?}",
            row.r, row.put, row.range_delete, row.buffered_scan, row.install, row.tree_scan
        );
    }
    let last = rows.last().expect("three rows");
    let delete_ratio = last.range_delete.as_secs_f64() / last.put.as_secs_f64();
    let scan_ratio = last.buffered_scan.as_secs_f64() / last.tree_scan.as_secs_f64();
    println!(
        "at R = {}: range delete / put = {delete_ratio:.2}, buffered / tree scan = {scan_ratio:.2} (bound {BOUND})",
        last.r
    );
    if delete_ratio > BOUND || scan_ratio > BOUND {
        eprintln!("range tombstones cost more as they accumulate");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
