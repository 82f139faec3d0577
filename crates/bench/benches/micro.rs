//! M1–M5: substrate microbenchmarks (Criterion).
//!
//! These pin the performance of the building blocks the experiments
//! rest on: memtable ingestion, Bloom filter probes, block binary
//! search, K-way merge, end-to-end table lookups at several KiWi
//! granularities, and the two CRC32C implementations.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use acheron_memtable::Memtable;
use acheron_sstable::{BloomFilter, Table, TableBuilder, TableOptions};
use acheron_types::{checksum, Entry};
use acheron_vfs::{MemFs, Vfs};

fn entry(i: u64) -> Entry {
    Entry::put(
        format!("key{i:010}").into_bytes(),
        vec![b'v'; 64],
        i + 1,
        i % 1000,
    )
}

fn bench_memtable(c: &mut Criterion) {
    c.bench_function("memtable/insert_10k", |b| {
        b.iter(|| {
            let m = Memtable::new();
            for i in 0..10_000u64 {
                m.insert(entry((i * 2_654_435_761) % 1_000_000));
            }
            black_box(m.len())
        })
    });

    let filled = Memtable::new();
    for i in 0..10_000u64 {
        filled.insert(entry(i));
    }
    c.bench_function("memtable/get_hit", |b| {
        let mut q = 0u64;
        b.iter(|| {
            q = (q + 7_919) % 10_000;
            black_box(filled.get(format!("key{q:010}").as_bytes(), u64::MAX >> 8))
        })
    });
}

fn bench_bloom(c: &mut Criterion) {
    let keys: Vec<Vec<u8>> = (0..10_000u64)
        .map(|i| format!("key{i:010}").into_bytes())
        .collect();
    c.bench_function("bloom/build_10k_keys", |b| {
        b.iter(|| black_box(BloomFilter::build(keys.iter().map(|k| k.as_slice()), 10)))
    });
    let filter = BloomFilter::build(keys.iter().map(|k| k.as_slice()), 10);
    c.bench_function("bloom/probe", |b| {
        let mut q = 0u64;
        b.iter(|| {
            q = (q + 48_271) % 20_000;
            black_box(filter.may_contain(format!("key{q:010}").as_bytes()))
        })
    });
}

fn build_table(h: usize, n: u64) -> (Arc<MemFs>, Arc<Table>) {
    let fs = Arc::new(MemFs::new());
    let opts = TableOptions {
        pages_per_tile: h,
        ..Default::default()
    };
    let mut b = TableBuilder::new(fs.create("t.sst").unwrap(), opts).unwrap();
    for i in 0..n {
        b.add(&entry(i)).unwrap();
    }
    b.finish().unwrap();
    let t = Table::open(fs.open("t.sst").unwrap()).unwrap();
    (fs, t)
}

fn bench_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("table/point_lookup");
    for h in [1usize, 8, 32] {
        let (_fs, table) = build_table(h, 50_000);
        group.bench_with_input(BenchmarkId::from_parameter(h), &h, |b, _| {
            let mut q = 0u64;
            b.iter(|| {
                q = (q + 48_271) % 50_000;
                black_box(
                    table
                        .get(format!("key{q:010}").as_bytes(), u64::MAX >> 8, &[])
                        .unwrap(),
                )
            })
        });
    }
    group.finish();

    let (_fs, table) = build_table(1, 50_000);
    c.bench_function("table/full_scan_50k", |b| {
        b.iter(|| {
            let mut it = table.iter(vec![]);
            it.seek_to_first().unwrap();
            let mut n = 0u64;
            while it.valid() {
                n += 1;
                it.next().unwrap();
            }
            black_box(n)
        })
    });
}

fn bench_engine(c: &mut Criterion) {
    use acheron::{Db, DbOptions};
    c.bench_function("engine/put_throughput", |b| {
        let fs = Arc::new(MemFs::new());
        let db = Db::open(fs, "db", DbOptions::default()).unwrap();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            db.put(format!("key{:010}", i % 500_000).as_bytes(), &[b'v'; 64])
                .unwrap();
        })
    });

    let fs = Arc::new(MemFs::new());
    let db = acheron::Db::open(fs, "db", acheron::DbOptions::small()).unwrap();
    for i in 0..50_000u64 {
        db.put(format!("key{i:010}").as_bytes(), &[b'v'; 64])
            .unwrap();
    }
    db.compact_all().unwrap();
    c.bench_function("engine/get_hit", |b| {
        let mut q = 0u64;
        b.iter(|| {
            q = (q + 48_271) % 50_000;
            black_box(db.get(format!("key{q:010}").as_bytes()).unwrap())
        })
    });
}

/// M5: the portable table loop against the engine's entry point (the
/// CPU's CRC32C instruction where there is one). Every iteration
/// checksums the same 64 KiB, as 1,024 wire-frame-sized calls, 16 pages
/// or one large value-log frame, so ns/iter ÷ 64 is ns/KiB at that call
/// size and the harness's per-iteration clock read is amortised.
fn bench_checksum(c: &mut Criterion) {
    let buf: Vec<u8> = (0..64 * 1024u32).map(|i| (i * 31 + 7) as u8).collect();
    type Kernel = fn(&[u8]) -> u32;
    let kernels: [(&str, Kernel); 2] = [
        ("checksum/portable_64KiB_by", |d| {
            checksum::mask(checksum::crc32c(d))
        }),
        ("checksum/masked_64KiB_by", |d| checksum::masked(&[d])),
    ];
    for (name, kernel) in kernels {
        let mut group = c.benchmark_group(name);
        for len in [64usize, 4096, 64 * 1024] {
            group.bench_with_input(BenchmarkId::from_parameter(len), &len, |b, &len| {
                b.iter(|| {
                    black_box(&buf)
                        .chunks_exact(len)
                        .fold(0, |acc, part| acc ^ kernel(part))
                })
            });
        }
        group.finish();
    }
}

criterion_group!(
    benches,
    bench_memtable,
    bench_bloom,
    bench_table,
    bench_engine,
    bench_checksum
);
criterion_main!(benches);
