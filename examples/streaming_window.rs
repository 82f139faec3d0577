//! Streaming with a retention window: cheap expiry via KiWi.
//!
//! A stream processor stores events keyed by `(source, event-id)` but
//! must retain only the last `WINDOW` ticks of data. The retention
//! attribute (event timestamp) is *not* the sort key, so a vanilla LSM
//! must either scan-and-delete or rewrite the whole tree. Acheron's
//! secondary range delete erases by timestamp directly, and the KiWi
//! layout lets compactions drop whole pages of expired events unread.
//!
//! Run with: `cargo run --example streaming_window`

use std::sync::Arc;

use acheron::{Db, DbOptions};
use acheron_vfs::MemFs;

const SOURCES: u64 = 50;
const EVENTS: u64 = 40_000;
const WINDOW: u64 = 10_000; // retention in ticks
const EXPIRE_EVERY: u64 = 5_000;

fn main() {
    // h = 8: each SSTable tile spreads its pages across the timestamp
    // domain, so expiry drops pages wholesale.
    let opts = DbOptions::small().with_tile(8);
    let db = Db::open(Arc::new(MemFs::new()), "stream", opts).unwrap();

    let mut expired_to = 0u64;
    for event in 0..EVENTS {
        let source = event % SOURCES;
        let key = format!("src{source:03}:evt{event:010}");
        let timestamp = db.now();
        db.put_with_dkey(key.as_bytes(), b"payload-bytes", timestamp)
            .unwrap();

        if event % EXPIRE_EVERY == EXPIRE_EVERY - 1 {
            let now = db.now();
            if now > WINDOW {
                let cutoff = now - WINDOW;
                if cutoff > expired_to {
                    db.range_delete_secondary(expired_to, cutoff).unwrap();
                    expired_to = cutoff + 1;
                    println!(
                        "tick {now:>6}: expired everything older than {cutoff} \
                         (live range tombstones: {})",
                        db.live_range_tombstones().len()
                    );
                }
            }
        }
    }

    // Reclaim storage; compactions drop covered KiWi pages without
    // reading them.
    db.compact_all().unwrap();
    let dropped = db
        .stats()
        .pages_dropped
        .load(std::sync::atomic::Ordering::Relaxed);
    let purged = db
        .stats()
        .entries_range_purged
        .load(std::sync::atomic::Ordering::Relaxed);

    // What survived?
    let survivors = db.scan(b"src000", b"src999").unwrap();
    let oldest_surviving = survivors
        .iter()
        .map(|(k, _)| k.clone())
        .min()
        .map(|k| String::from_utf8_lossy(&k).into_owned());

    println!("\nevents ingested:              {EVENTS}");
    println!("events surviving the window:  {}", survivors.len());
    println!("entries purged by expiry:     {purged}");
    println!("KiWi pages dropped unread:    {dropped}");
    println!("oldest surviving key:         {oldest_surviving:?}");
    println!("table bytes after reclaim:    {}", db.table_bytes());
    assert!(
        survivors.len() as u64 <= WINDOW + EXPIRE_EVERY,
        "retention must bound the live set"
    );
    assert!(dropped > 0, "expiry must drop whole KiWi pages unread");
}
