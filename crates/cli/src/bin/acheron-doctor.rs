//! `acheron-doctor` — offline integrity check of a database directory.
//!
//! ```text
//! $ acheron-doctor /path/to/db [--d-th <ticks>]
//! checked 12 tables (48,201 entries, 301 tombstones), 1 WAL (17 records)
//! tombstones: level 1: 204 live across 3 files, oldest age 812 ticks
//! warnings: none
//! ```
//!
//! With `--d-th` the report warns when the oldest live tombstone has
//! outlived the delete persistence threshold — the offline form of the
//! engine's FADE promise.
//!
//! A directory containing a `SHARDMAP` manifest is checked as a sharded
//! fleet: every shard is verified (a missing shard fails the check —
//! never silently skipped), each shard's report is printed, and the
//! fleet-wide maximum unresolved tombstone age is summarized at the end
//! — the per-shard `D_th` invariant judged across the whole fleet.
//!
//! Read-only: unlike opening the database, the doctor never rewrites the
//! manifest or collects files, so it is safe to run against a directory
//! another process might recover later.

#![forbid(unsafe_code)]

use acheron::{check_db_with_threshold, check_sharded_db, read_shard_map, DoctorReport};
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
    let fs = StdFs::new(false);
    let sharded = match read_shard_map(&fs, &dir) {
        Ok(map) => map.is_some(),
        Err(e) => {
            eprintln!("FAILED: {e}");
            std::process::exit(1);
        }
    };
    if sharded {
        match check_sharded_db(&fs, &dir, d_th) {
            Ok(reports) => {
                let mut fleet_max_age: Option<u64> = None;
                for (i, report) in reports.iter().enumerate() {
                    println!("== shard {i} ==");
                    print_report(report, d_th);
                    fleet_max_age = fleet_max_age.max(report.worst_unresolved_delete_age());
                }
                println!(
                    "fleet: {} shards, max unresolved tombstone age {} ticks{}",
                    reports.len(),
                    fleet_max_age.unwrap_or(0),
                    match d_th {
                        Some(d) => format!(" (threshold {d})"),
                        None => String::new(),
                    }
                );
            }
            Err(e) => {
                eprintln!("FAILED: {e}");
                std::process::exit(1);
            }
        }
    } else {
        match check_db_with_threshold(&fs, &dir, d_th) {
            Ok(report) => print_report(&report, d_th),
            Err(e) => {
                eprintln!("FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
}

fn print_report(report: &DoctorReport, d_th: Option<u64>) {
    println!(
        "checked {} tables ({} entries, {} tombstones, {} key-range tombstones, \
         {} range tombstones), {} WAL segments ({} records)",
        report.tables_checked,
        report.entries,
        report.tombstones,
        report.key_range_tombstones,
        report.range_tombstones,
        report.wals_checked,
        report.wal_records
    );
    for l in &report.level_tombstones {
        println!(
            "tombstones: level {}: {} live across {} files, oldest age {} ticks{}",
            l.level,
            l.tombstones,
            l.files_with_tombstones,
            l.max_unresolved_age.unwrap_or(0),
            match d_th {
                Some(d) => format!(" (threshold {d})"),
                None => String::new(),
            }
        );
        if l.key_range_tombstones > 0 {
            println!(
                "key-range tombstones: level {}: {} live, oldest unresolved age {} ticks{}",
                l.level,
                l.key_range_tombstones,
                l.max_unresolved_key_range_age.unwrap_or(0),
                match d_th {
                    Some(d) => format!(" (threshold {d})"),
                    None => String::new(),
                }
            );
        }
    }
    // The one-line `D_th` judgment: every delete family folded into a
    // single worst age. Point and key-range tombstones carry birth
    // ticks on disk; dead vlog extents do not, so they are listed as
    // pending rather than aged.
    let mut fold = format!(
        "worst unresolved delete age: {} ticks (point + key-range",
        report.worst_unresolved_delete_age().unwrap_or(0)
    );
    if report.vlog_dead_bytes > 0 {
        fold.push_str(&format!(
            "; {} dead vlog bytes awaiting GC",
            report.vlog_dead_bytes
        ));
    }
    fold.push(')');
    match (d_th, report.worst_unresolved_delete_age()) {
        (Some(d), Some(age)) if age > d => fold.push_str(&format!(" — EXCEEDS D_th {d}")),
        (Some(d), _) => fold.push_str(&format!(" — within D_th {d}")),
        (None, _) => {}
    }
    println!("{fold}");
    if report.warnings.is_empty() {
        println!("warnings: none");
    } else {
        for w in &report.warnings {
            println!("warning: {w}");
        }
    }
}
