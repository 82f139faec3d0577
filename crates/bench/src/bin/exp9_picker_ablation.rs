//! E9 — Ablation: FADE's saturation-time file-picking policy.
//!
//! When a level saturates, which file should move? The ablation pits the
//! write-optimized min-overlap pick against the delete-aware picks
//! (tombstone density, oldest tombstone) and a round-robin strawman,
//! all with the same TTL trigger providing the hard bound.

use acheron::{FadeOptions, FilePickPolicy, TtlAllocation};
use acheron_bench::{base_opts, f2, grouped, open_db, print_table};
use acheron_workload::{run_ops, KeyDistribution, OpMix, WorkloadGen, WorkloadSpec};

const OPS: usize = 40_000;
const D_TH: u64 = 40_000;

fn run(policy: FilePickPolicy, label: &str) -> Vec<String> {
    let mut opts = base_opts();
    opts.file_pick = policy;
    opts.fade = Some(FadeOptions {
        delete_persistence_threshold: D_TH,
        ttl_allocation: TtlAllocation::Exponential,
    });
    let (_fs, db) = open_db(opts);
    let spec = WorkloadSpec::new(OpMix::write_heavy(20), KeyDistribution::uniform(30_000));
    let ops = WorkloadGen::new(spec).take(OPS);
    run_ops(&db, &ops).unwrap();
    db.maintain().unwrap();
    use std::sync::atomic::Ordering::Relaxed;
    let s = db.stats();
    vec![
        label.to_string(),
        f2(s.write_amplification()),
        grouped(s.persistence_latency.quantile(0.5)),
        grouped(s.persistence_latency.quantile(0.99)),
        grouped(db.live_tombstones()),
        grouped(s.ttl_compactions.load(Relaxed)),
        grouped(s.persistence_violations.load(Relaxed)),
    ]
}

fn main() {
    let rows = vec![
        run(FilePickPolicy::MinOverlap, "min-overlap (write-optimized)"),
        run(FilePickPolicy::TombstoneDensity, "tombstone density"),
        run(FilePickPolicy::OldestTombstone, "oldest tombstone"),
        run(FilePickPolicy::RoundRobin, "round-robin"),
    ];
    print_table(
        &format!("E9: FADE file-pick ablation (D_th={D_TH}, 20% deletes)"),
        &[
            "policy",
            "write amp",
            "p50 persist",
            "p99 persist",
            "live tombstones",
            "ttl compactions",
            "violations",
        ],
        &rows,
    );
    println!(
        "\nExpected shape: all policies respect the bound (0 violations). Delete-aware\n\
         picks persist tombstones earlier (lower p50) and rely less on emergency TTL\n\
         compactions; min-overlap wins on write amplification."
    );
}
