//! Cross-configuration equivalence: the same operation stream must
//! produce identical query results no matter the physical layout (KiWi
//! tile size `h`), the compaction layout (leveling / tiering / lazy
//! leveling), or whether FADE is enabled — these knobs trade
//! performance, never semantics.

use std::sync::Arc;

use acheron::{CompactionLayout, Db, DbOptions};
use acheron_vfs::MemFs;
use acheron_workload::{KeyDistribution, Op, OpMix, WorkloadGen, WorkloadSpec};

fn small(layout: CompactionLayout, h: usize, fade: Option<u64>) -> DbOptions {
    let mut o = DbOptions {
        write_buffer_bytes: 4 << 10,
        level1_target_bytes: 16 << 10,
        target_file_bytes: 8 << 10,
        page_size: 512,
        max_levels: 4,
        layout,
        ..DbOptions::default()
    }
    .with_tile(h);
    if let Some(d) = fade {
        o = o.with_fade(d);
    }
    o
}

/// Run ops and return a canonical fingerprint of the database contents.
fn fingerprint(opts: DbOptions, ops: &[Op]) -> Vec<(Vec<u8>, Vec<u8>)> {
    let db = Db::open(Arc::new(MemFs::new()), "db", opts).unwrap();
    for op in ops {
        match op {
            Op::Put { key, value, dkey } => match dkey {
                Some(d) => db.put_with_dkey(key, value, *d).unwrap(),
                None => db.put(key, value).unwrap(),
            },
            Op::Delete { key } => db.delete(key).unwrap(),
            Op::Get { key } => {
                db.get(key).unwrap();
            }
            Op::Scan { lo, hi } => {
                db.scan(lo, hi).unwrap();
            }
            Op::RangeDeleteSecondary { lo, hi } => db.range_delete_secondary(*lo, *hi).unwrap(),
        }
    }
    db.compact_all().unwrap();
    db.verify_integrity().unwrap();
    db.scan(&[0u8], &[0xffu8; 16])
        .unwrap()
        .into_iter()
        .map(|(k, v)| (k.to_vec(), v.to_vec()))
        .collect()
}

fn mixed_ops(seed: u64, n: usize) -> Vec<Op> {
    let mut spec = WorkloadSpec::new(OpMix::mixed(55, 20, 20, 5), KeyDistribution::uniform(400));
    spec.seed = seed;
    spec.value_len = 24;
    WorkloadGen::new(spec).take(n)
}

#[test]
fn kiwi_tile_sizes_are_read_equivalent() {
    let ops = mixed_ops(11, 2_000);
    let reference = fingerprint(small(CompactionLayout::Leveling, 1, None), &ops);
    assert!(!reference.is_empty(), "workload should leave live data");
    for h in [2usize, 4, 16] {
        let got = fingerprint(small(CompactionLayout::Leveling, h, None), &ops);
        assert_eq!(got, reference, "h={h} diverged");
    }
}

#[test]
fn compaction_layouts_are_read_equivalent() {
    let ops = mixed_ops(22, 2_000);
    let reference = fingerprint(small(CompactionLayout::Leveling, 1, None), &ops);
    for layout in [CompactionLayout::Tiering, CompactionLayout::LazyLeveling] {
        let got = fingerprint(small(layout, 1, None), &ops);
        assert_eq!(got, reference, "{layout:?} diverged");
    }
}

#[test]
fn fade_never_changes_results() {
    let ops = mixed_ops(33, 2_000);
    let reference = fingerprint(small(CompactionLayout::Leveling, 1, None), &ops);
    for layout in [
        CompactionLayout::Leveling,
        CompactionLayout::Tiering,
        CompactionLayout::LazyLeveling,
    ] {
        for d_th in [200u64, 5_000, 1_000_000] {
            let got = fingerprint(small(layout, 1, Some(d_th)), &ops);
            assert_eq!(got, reference, "{layout:?} with FADE D_th={d_th} diverged");
        }
    }
}

#[test]
fn kiwi_with_range_deletes_is_equivalent() {
    // The layout where drops actually fire: timestamped inserts plus
    // window expiries.
    let mut ops = Vec::new();
    for i in 0..3_000u64 {
        ops.push(Op::Put {
            key: acheron_workload::key_bytes(i % 1000 * 7 + i / 1000),
            value: vec![b'p'; 24],
            dkey: Some(i),
        });
        if i % 500 == 499 && i > 600 {
            ops.push(Op::RangeDeleteSecondary { lo: 0, hi: i - 600 });
        }
    }
    let reference = fingerprint(small(CompactionLayout::Leveling, 1, None), &ops);
    for h in [4usize, 16] {
        let got = fingerprint(small(CompactionLayout::Leveling, h, None), &ops);
        assert_eq!(got.len(), reference.len(), "h={h} diverged in size");
        assert_eq!(got, reference, "h={h} diverged");
    }
}
