//! Shared harness code for the Acheron experiment binaries.
//!
//! Each `src/bin/expN_*.rs` binary regenerates one table/figure of the
//! evaluation (see DESIGN.md's experiment index and EXPERIMENTS.md for
//! expectations vs. measurements). Experiments run on [`MemFs`] with a
//! logical clock: write/space amplification are exact byte ratios and
//! persistence latencies are deterministic tick counts, so the *shapes*
//! the paper claims are reproduced without device noise.

#![forbid(unsafe_code)]

use std::sync::Arc;

use acheron::{Db, DbOptions};
use acheron_vfs::MemFs;

/// Open a fresh in-memory database.
pub fn open_db(opts: DbOptions) -> (Arc<MemFs>, Db) {
    let fs = Arc::new(MemFs::new());
    let db = Db::open(fs.clone(), "db", opts).expect("open db");
    (fs, db)
}

/// Small-scale options shared by the experiments: kilobyte buffers so
/// trees grow several levels deep with ~10^4-10^5 entries.
pub fn base_opts() -> DbOptions {
    DbOptions::small()
}

/// Advance the logical clock by `total` ticks in steps of `step`,
/// running maintenance at each step — the logical-clock stand-in for a
/// deployment's background maintenance timer. (A single giant jump would
/// deny FADE any opportunity to act before a deadline, inflating the
/// measured persistence latencies artificially.)
pub fn settle(db: &Db, total: u64, step: u64) {
    let step = step.max(1);
    let mut advanced = 0;
    while advanced < total {
        let inc = step.min(total - advanced);
        db.advance_clock(inc);
        advanced += inc;
        db.maintain().expect("maintenance");
    }
}

/// Background-mode analogue of [`settle`]: advance the clock in the
/// same steps but, instead of running maintenance inline, wait for the
/// worker pool to drain — the workers themselves must notice each TTL
/// deadline.
pub fn settle_background(db: &Db, total: u64, step: u64) {
    let step = step.max(1);
    let mut advanced = 0;
    while advanced < total {
        let inc = step.min(total - advanced);
        db.advance_clock(inc);
        advanced += inc;
        db.wait_idle().expect("background maintenance");
    }
}

/// Render an ASCII table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:<w$}", w = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<w$}", w = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Format a float to 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Format a float to 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Thousands-grouped integer.
pub fn grouped(v: u64) -> String {
    let s = v.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouping() {
        assert_eq!(grouped(0), "0");
        assert_eq!(grouped(999), "999");
        assert_eq!(grouped(1_000), "1,000");
        assert_eq!(grouped(1_234_567), "1,234,567");
    }

    #[test]
    fn open_db_works() {
        let (_fs, db) = open_db(base_opts());
        db.put(b"k", b"v").unwrap();
        assert!(db.get(b"k").unwrap().is_some());
    }
}
