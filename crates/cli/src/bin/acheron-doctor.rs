//! `acheron-doctor` — offline integrity check of a database directory.
//!
//! ```text
//! $ acheron-doctor /path/to/db --d-th 20000
//! checked 12 tables (48201 entries), 1 WAL segments (17 records); live: 301 tombstones, 0 key-range tombstones, 0 range tombstones
//! level 1: 3 files, 204 tombstones (oldest age 812 ticks), 0 key-range tombstones
//! warnings: none
//! worst unresolved delete age: 812 ticks (point + key-range) — within D_th 20000
//! ```
//!
//! The last line is the `D_th` verdict, reached by the engine's own rule
//! (`DeleteAudit::ok`, which `acheron audit` also prints): the oldest
//! live tombstone, point or sort-key range, aged at the newest file's
//! creation tick — the offline form of the engine's FADE promise. Dead
//! value-log bytes carry no birth tick on disk; they are listed as
//! pending rather than aged.
//!
//! A sharded root is checked shard by shard (a missing shard fails the
//! check — never silently skipped): each shard's report is printed under
//! its own heading, and the verdict judges the whole fleet.
//!
//! Read-only: unlike opening the database, the doctor never rewrites the
//! manifest or collects files, so it is safe to run against a directory
//! another process might recover later.

#![forbid(unsafe_code)]

use acheron::{check_root, DeleteAudit, DoctorReport};
use acheron_vfs::StdFs;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut dir: Option<String> = None;
    let mut d_th: Option<u64> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--d-th" {
            d_th = it.next().and_then(|v| v.parse().ok());
            if d_th.is_none() {
                eprintln!("--d-th requires a tick count");
                std::process::exit(2);
            }
        } else {
            dir = Some(arg);
        }
    }
    let Some(dir) = dir else {
        eprintln!("usage: acheron-doctor <db-directory> [--d-th <ticks>]");
        std::process::exit(2);
    };
    let reports = match check_root(&StdFs::new(false), &dir, d_th) {
        Ok(reports) => reports,
        Err(e) => {
            eprintln!("FAILED: {e}");
            std::process::exit(1);
        }
    };
    let sharded = reports.len() > 1;
    for (i, report) in reports.iter().enumerate() {
        if sharded {
            println!("== shard {i} ==");
        }
        print_report(report);
    }
    let audit = DeleteAudit::fleet(reports.iter().map(|r| r.audit.clone()));
    let dead_vlog_bytes: u64 = reports.iter().map(|r| r.vlog_dead_bytes).sum();
    print_verdict(&audit, dead_vlog_bytes);
}

fn print_report(report: &DoctorReport) {
    println!(
        "checked {} tables ({} entries), {} WAL segments ({} records); \
         live: {} tombstones, {} key-range tombstones, {} range tombstones",
        report.tables_checked,
        report.entries,
        report.wals_checked,
        report.wal_records,
        report.tombstones,
        report.key_range_tombstones,
        report.range_tombstones
    );
    let age = |t0: Option<u64>| t0.map_or(0, |t0| report.audit.now.saturating_sub(t0));
    for l in &report.levels {
        if l.tombstones == 0 && l.key_range_tombstones == 0 {
            continue;
        }
        println!(
            "level {}: {} files, {} tombstones (oldest age {} ticks), \
             {} key-range tombstones (oldest age {} ticks)",
            l.level,
            l.files,
            l.tombstones,
            age(l.oldest_tombstone_tick),
            l.key_range_tombstones,
            age(l.oldest_key_range_tick)
        );
    }
    if report.warnings.is_empty() {
        println!("warnings: none");
    }
    for w in &report.warnings {
        println!("warning: {w}");
    }
}

/// The one-line `D_th` verdict: every delete family folded into one
/// worst age. Dead vlog extents have no birth tick on disk, so they are
/// listed as pending rather than aged.
fn print_verdict(audit: &DeleteAudit, dead_vlog_bytes: u64) {
    let age = (audit.oldest_live_tombstone_tick).map_or(0, |t0| audit.now.saturating_sub(t0));
    let mut line = format!("worst unresolved delete age: {age} ticks (point + key-range");
    if dead_vlog_bytes > 0 {
        line.push_str(&format!("; {dead_vlog_bytes} dead vlog bytes awaiting GC"));
    }
    line.push(')');
    match audit.d_th {
        Some(d) if audit.ok() => line.push_str(&format!(" — within D_th {d}")),
        Some(d) => line.push_str(&format!(" — EXCEEDS D_th {d}")),
        None => {}
    }
    println!("{line}");
}
