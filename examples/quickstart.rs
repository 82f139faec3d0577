//! Quickstart: open a database, write, read, delete, scan.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use acheron::{Db, DbOptions};
use acheron_vfs::{StdFs, TempDir};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Real files under a temp dir; MemFs works identically for tests.
    let dir = TempDir::new("quickstart");
    let fs = Arc::new(StdFs::new(false));
    let db = Db::open(fs, dir.path_str(), DbOptions::default())?;

    // Writes.
    db.put(b"user:1:name", b"Ada Lovelace")?;
    db.put(b"user:1:email", b"ada@example.com")?;
    db.put(b"user:2:name", b"Alan Turing")?;

    // Point reads.
    let name = db.get(b"user:1:name")?.expect("present");
    println!("user:1:name = {}", String::from_utf8_lossy(&name));

    // Updates are just puts; the newest version wins.
    db.put(b"user:1:email", b"countess@example.com")?;
    let email = db.get(b"user:1:email")?.expect("present");
    println!("user:1:email = {}", String::from_utf8_lossy(&email));

    // Range scans over the sort key.
    println!("\nall user:1 attributes:");
    for (k, v) in db.scan(b"user:1:", b"user:1:\xff")? {
        println!(
            "  {} = {}",
            String::from_utf8_lossy(&k),
            String::from_utf8_lossy(&v)
        );
    }

    // Deletes insert tombstones; reads hide the key immediately.
    db.delete(b"user:2:name")?;
    assert_eq!(db.get(b"user:2:name")?, None);

    // Snapshots give a consistent view while writes continue.
    let snap = db.snapshot();
    db.put(b"user:1:name", b"A. Lovelace")?;
    assert_eq!(
        db.get_at(&snap, b"user:1:name")?.as_deref(),
        Some(&b"Ada Lovelace"[..])
    );
    assert_eq!(
        db.get(b"user:1:name")?.as_deref(),
        Some(&b"A. Lovelace"[..])
    );
    drop(snap);

    // A sort-key range delete erases a whole prefix with one O(1)
    // write — no scan, no per-key tombstones. All of user:1's
    // attributes vanish at once (the GDPR-request shape).
    db.range_delete_keys(b"user:1:", b"user:1:\xff")?;
    assert_eq!(db.get(b"user:1:name")?, None);
    assert_eq!(db.get(b"user:1:email")?, None);
    assert_eq!(db.scan(b"user:1:", b"user:1:\xff")?.len(), 0);

    // Engine introspection.
    db.compact_all()?;
    println!("\nlevel summary after compaction:");
    for level in db.tombstone_gauges().levels {
        println!(
            "  L{}: {} files, {} bytes, {} entries",
            level.level, level.files, level.bytes, level.entries
        );
    }
    println!(
        "\nwrite amplification so far: {:.2}",
        db.stats().write_amplification()
    );
    Ok(())
}
