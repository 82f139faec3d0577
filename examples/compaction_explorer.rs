//! Compaction explorer: watch the tree take shape under different
//! strategies — the interactive heart of the Acheron/Compactionary
//! demos, in terminal form.
//!
//! Runs the same delete-containing workload under five configurations
//! and renders each tree's level occupancy, tombstone population, KiWi
//! layout, and amplification after every workload phase.
//!
//! Run with: `cargo run --example compaction_explorer`

use std::sync::Arc;

use acheron::{CompactionLayout, Db, DbOptions};
use acheron_vfs::MemFs;

fn render(db: &Db, label: &str) {
    println!("  [{label}]");
    for level in db.tombstone_gauges().levels {
        let bar = "#".repeat(((level.bytes / 8_192) as usize).clamp(1, 60));
        println!(
            "    L{} {:<60} {:>4} files {:>3} runs {:>8} B {:>6} entries {:>5} tombstones {:>4} woven",
            level.level,
            bar,
            level.files,
            level.runs,
            level.bytes,
            level.entries,
            level.tombstones,
            level.woven_files
        );
    }
    use std::sync::atomic::Ordering::Relaxed;
    println!(
        "    write-amp {:.2} | compactions {} (ttl {}) | live tombstones {} | tombstones purged {}",
        db.stats().write_amplification(),
        db.stats().compactions.load(Relaxed),
        db.stats().ttl_compactions.load(Relaxed),
        db.live_tombstones(),
        db.stats().tombstones_purged.load(Relaxed),
    );
}

fn main() {
    let configs: Vec<(&str, DbOptions)> = vec![
        ("leveling (baseline)", DbOptions::small()),
        (
            "tiering (write-optimized)",
            DbOptions {
                layout: CompactionLayout::Tiering,
                ..DbOptions::small()
            },
        ),
        (
            "lazy leveling (hybrid)",
            DbOptions {
                layout: CompactionLayout::LazyLeveling,
                ..DbOptions::small()
            },
        ),
        (
            "leveling + FADE D_th=20k",
            DbOptions::small().with_fade(20_000),
        ),
        ("leveling + KiWi h=4", DbOptions::small().with_tile(4)),
    ];

    let dbs: Vec<(&str, Db)> = configs
        .into_iter()
        .map(|(label, opts)| (label, Db::open(Arc::new(MemFs::new()), "db", opts).unwrap()))
        .collect();

    type Phase<'a> = (&'a str, Box<dyn Fn(&Db)>);
    let phases: Vec<Phase> = vec![
        (
            "phase 1: bulk ingest 15k keys",
            Box::new(|db: &Db| {
                for i in 0..15_000u64 {
                    db.put(format!("key{i:08}").as_bytes(), &[b'v'; 48])
                        .unwrap();
                }
            }),
        ),
        (
            "phase 2: delete every 4th key",
            Box::new(|db: &Db| {
                for i in (0..15_000u64).step_by(4) {
                    db.delete(format!("key{i:08}").as_bytes()).unwrap();
                }
            }),
        ),
        (
            "phase 3: quiet period (clock advances, maintenance runs)",
            Box::new(|db: &Db| {
                for _ in 0..5 {
                    db.advance_clock(10_000);
                    db.maintain().unwrap();
                }
            }),
        ),
        (
            "phase 4: hot updates on a small range",
            Box::new(|db: &Db| {
                for round in 0..8u64 {
                    for i in 0..1_500u64 {
                        db.put(
                            format!("key{i:08}").as_bytes(),
                            format!("round-{round}").as_bytes(),
                        )
                        .unwrap();
                    }
                }
            }),
        ),
    ];

    for (phase_label, work) in &phases {
        println!("\n=== {phase_label} ===");
        for (label, db) in &dbs {
            work(db);
            render(db, label);
        }
    }

    println!(
        "\nThings to notice: tiering stacks runs per level (more runs, lower write-amp);\n\
         FADE's tombstone count collapses in the quiet phase while the baseline's\n\
         lingers; lazy leveling keeps the bottom level as one run; KiWi weaves only\n\
         the files a bottommost compaction wrote, since only those can drop pages."
    );
}
