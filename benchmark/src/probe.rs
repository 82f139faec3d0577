//! `probe.*`: each layer's public functions on fixed synthetic inputs
//! shaped like the `bench` profile, once per traced run. A probe runs a
//! fixed number of batches of a fixed number of iterations and reports
//! the median batch's nanoseconds per iteration.
//!
//! The list below is the benchmark's contract with the layers —
//! `Memtable::{insert,get}`, `LogWriter::{add_record,sync}`,
//! `VlogWriter::append`, `VlogReader::get`, `TableBuilder::{add,finish}`,
//! `Table::{open_with_cache,get,iter}`, `BloomFilter::{build,encode,
//! decode,may_contain}`, `BlockBuilder`/`Block::iter`/`BlockIter::seek`,
//! `BlockCache::{get,insert}`, `MergeIterator`, `Request`/`Response`
//! `::{encode,decode}`, `encode_frame`, `FrameDecoder`, `ShardedDb`,
//! `crc32c`, `compare_internal` — and nothing wider: a refactor that
//! renames one of these needs a change here first.

use std::hint::black_box;
use std::sync::Arc;

use acheron::merge::{KvSource, MergeIterator, VecSource};
use acheron::{Db, ShardedDb};
use acheron_memtable::Memtable;
use acheron_server::wire::{encode_frame, FrameDecoder, DEFAULT_MAX_FRAME_BYTES};
use acheron_server::{Request, Response};
use acheron_sstable::{
    Block, BlockBuilder, BlockCache, BloomFilter, PageKey, Table, TableBuilder, TableOptions,
};
use acheron_types::checksum::crc32c;
use acheron_types::key::compare_internal;
use acheron_types::seq::MAX_SEQNO;
use acheron_types::{Entry, InternalKey, ValueKind};
use acheron_vfs::{MemFs, Vfs};
use acheron_vlog::{VlogReader, VlogWriter};
use acheron_wal::LogWriter;
use bytes::Bytes;

use crate::gen::{key_of, render_key, render_value, Sizes, KEY_LEN, LARGE_VALUE_LEN, VALUE_LEN};
use crate::metrics::Values;
use crate::profile::{bench_options, SHARDS};
use crate::recorder::median;
use crate::trace::{Collector, SpanLog};

const BATCHES: usize = 9;
const TABLE_ENTRIES: u32 = 20_000;
const MEMTABLE_ENTRIES: u32 = 10_000;

struct Probes<'a> {
    log: &'a SpanLog,
    collector: &'a mut Collector,
    values: &'a mut Values,
    next_id: u64,
}

impl Probes<'_> {
    /// Run `BATCHES` batches of `iters` calls of `f` and report the median
    /// batch's ns per call divided by `units` (entries per call, say).
    fn measure(&mut self, name: &'static str, iters: u32, units: f64, f: impl FnMut(u32)) {
        let ns = self.time(name, iters, units, f);
        self.values.insert(name, ns);
    }

    /// [`Probes::measure`] without reporting: spans under `name`, the
    /// median returned.
    fn time(&mut self, name: &'static str, iters: u32, units: f64, mut f: impl FnMut(u32)) -> f64 {
        let mut per_call = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let start = self.log.now_ns();
            for i in 0..iters {
                f(i);
            }
            let end = self.log.now_ns();
            self.next_id += 1;
            self.collector.standalone(name, self.next_id, start, end);
            per_call.push((end - start) as f64 / f64::from(iters) / units);
        }
        median(&per_call)
    }
}

fn key(num: u64) -> [u8; KEY_LEN] {
    let mut k = [0u8; KEY_LEN];
    render_key(num, &mut k);
    k
}

fn value(id: u32, len: u32) -> Vec<u8> {
    let mut v = Vec::new();
    render_value(id, 1, len, &mut v);
    v
}

fn entry(id: u32) -> Entry {
    Entry::put(
        key(key_of(id)).to_vec(),
        value(id, VALUE_LEN),
        u64::from(id) + 1,
        u64::from(id),
    )
}

/// Ids in a fixed pseudo-random order, so probes do not walk keys
/// sequentially.
fn scattered(i: u32, n: u32) -> u32 {
    (i.wrapping_mul(2_654_435_761)) % n
}

fn table_options() -> TableOptions {
    TableOptions {
        page_size: 4096,
        pages_per_tile: 4,
        bloom_bits_per_key: 10,
        ..TableOptions::default()
    }
}

fn build_table(fs: &MemFs, path: &str, entries: &[Entry]) {
    let mut b =
        TableBuilder::new(fs.create(path).expect("create"), table_options()).expect("builder");
    for e in entries {
        b.add(e).expect("add");
    }
    b.finish().expect("finish");
}

/// Run every probe, filling `values` and recording one span per batch.
pub fn run_all(log: &Arc<SpanLog>, collector: &mut Collector, values: &mut Values) {
    let mut p = Probes {
        log,
        collector,
        values,
        next_id: 1 << 40,
    };
    memtable(&mut p);
    wal_and_vlog(&mut p);
    sstable(&mut p);
    merge(&mut p);
    wire(&mut p);
    sharded(&mut p);
    types(&mut p);
}

fn memtable(p: &mut Probes<'_>) {
    let entries: Vec<Entry> = (0..MEMTABLE_ENTRIES)
        .map(|i| entry(scattered(i, MEMTABLE_ENTRIES)))
        .collect();
    p.measure(
        "probe.memtable.insert_ns",
        1,
        f64::from(MEMTABLE_ENTRIES),
        |_| {
            let m = Memtable::new();
            for e in &entries {
                m.insert(e.clone());
            }
            black_box(m.len());
        },
    );
    let filled = Memtable::new();
    for e in &entries {
        filled.insert(e.clone());
    }
    p.measure("probe.memtable.get_hit_ns", 20_000, 1.0, |i| {
        let k = key(key_of(scattered(i, MEMTABLE_ENTRIES)));
        black_box(filled.get(&k, MAX_SEQNO));
    });
    p.measure("probe.memtable.get_miss_ns", 20_000, 1.0, |i| {
        let k = key(key_of(scattered(i, MEMTABLE_ENTRIES)) + 1);
        black_box(filled.get(&k, MAX_SEQNO));
    });
}

fn wal_and_vlog(p: &mut Probes<'_>) {
    let fs = Arc::new(MemFs::new());
    fs.mkdir_all("p").expect("mkdir");
    // A commit record of one ordinary put: key + value + framing.
    let record = value(7, KEY_LEN as u32 + VALUE_LEN + 24);
    let mut wal = LogWriter::new(fs.create("p/000001.log").expect("create"));
    p.measure("probe.wal.add_record_ns", 20_000, 1.0, |_| {
        wal.add_record(black_box(&record)).expect("add_record");
    });
    p.measure("probe.wal.sync_ns", 20_000, 1.0, |_| {
        wal.sync().expect("sync");
    });

    let big = value(9, LARGE_VALUE_LEN);
    let k = key(key_of(9));
    let mut writer =
        VlogWriter::create(Arc::clone(&fs) as Arc<dyn Vfs>, "p", 1, 8 << 20).expect("vlog");
    let mut ptrs = Vec::new();
    p.measure("probe.vlog.append_ns", 2_000, 1.0, |_| {
        ptrs.push(writer.append(&k, black_box(&big)).expect("append"));
    });
    writer.sync().expect("sync");
    let reader = VlogReader::new(Arc::clone(&fs) as Arc<dyn Vfs>, "p");
    p.measure("probe.vlog.get_ns", 5_000, 1.0, |i| {
        let ptr = &ptrs[scattered(i, ptrs.len() as u32) as usize];
        black_box(reader.get(ptr, &k).expect("vlog get"));
    });
}

fn sstable(p: &mut Probes<'_>) {
    let fs = MemFs::new();
    let entries: Vec<Entry> = (0..TABLE_ENTRIES).map(entry).collect();
    p.measure(
        "probe.sstable.build_ns_per_entry",
        1,
        f64::from(TABLE_ENTRIES),
        |_| {
            build_table(&fs, "t.sst", &entries);
        },
    );
    let cache = Arc::new(BlockCache::new(64 << 20));
    let cached =
        Table::open_with_cache(fs.open("t.sst").expect("open"), Some(cache)).expect("table");
    let uncached = Table::open_with_cache(fs.open("t.sst").expect("open"), None).expect("table");
    // Fill the cache so the cached probe never misses.
    for id in 0..TABLE_ENTRIES {
        cached.get(&key(key_of(id)), MAX_SEQNO, &[]).expect("get");
    }
    p.measure("probe.sstable.get_hit_cached_ns", 20_000, 1.0, |i| {
        let k = key(key_of(scattered(i, TABLE_ENTRIES)));
        black_box(cached.get(&k, MAX_SEQNO, &[]).expect("get"));
    });
    p.measure("probe.sstable.get_hit_uncached_ns", 20_000, 1.0, |i| {
        let k = key(key_of(scattered(i, TABLE_ENTRIES)));
        black_box(uncached.get(&k, MAX_SEQNO, &[]).expect("get"));
    });
    p.measure("probe.sstable.get_bloom_negative_ns", 20_000, 1.0, |i| {
        let k = key(key_of(scattered(i, TABLE_ENTRIES)) + 1);
        black_box(uncached.get(&k, MAX_SEQNO, &[]).expect("get"));
    });
    p.measure(
        "probe.sstable.iter_ns_per_entry",
        1,
        f64::from(TABLE_ENTRIES),
        |_| {
            let mut it = uncached.iter(vec![]);
            it.seek_to_first().expect("seek");
            let mut n = 0u32;
            while it.valid() {
                n += 1;
                it.next().expect("next");
            }
            assert_eq!(black_box(n), TABLE_ENTRIES);
        },
    );

    // One page's worth of keys: a 4 KiB page holds about thirty
    // 20 B + 100 B entries.
    let page_keys: Vec<[u8; KEY_LEN]> = (0..30).map(|id| key(key_of(id))).collect();
    let filter = BloomFilter::build(page_keys.iter().map(|k| k.as_slice()), 10);
    let encoded = filter.encode();
    p.measure("probe.bloom.decode_ns", 50_000, 1.0, |_| {
        black_box(BloomFilter::decode(black_box(&encoded)).expect("decode"));
    });
    p.measure("probe.bloom.may_contain_ns", 50_000, 1.0, |i| {
        black_box(filter.may_contain(&page_keys[(i % 30) as usize]));
    });

    let mut builder = BlockBuilder::new(16);
    let ikeys: Vec<InternalKey> = (0..30u32)
        .map(|id| InternalKey::new(&key(key_of(id)), u64::from(id) + 1, ValueKind::Put))
        .collect();
    for (id, ik) in ikeys.iter().enumerate() {
        builder.add(ik.encoded(), id as u64, &value(id as u32, VALUE_LEN));
    }
    let block = Block::new(Bytes::from(builder.finish())).expect("block");
    p.measure("probe.block.seek_ns", 50_000, 1.0, |i| {
        let mut it = block.iter();
        it.seek(ikeys[(i % 30) as usize].encoded()).expect("seek");
        black_box(it.valid());
    });

    let cache = BlockCache::new(1 << 20);
    let hot = PageKey {
        table: 1,
        offset: 0,
    };
    cache.insert(hot, block.clone(), 4096);
    p.measure("probe.cache.get_hit_ns", 50_000, 1.0, |_| {
        black_box(cache.get(&hot));
    });
    // 1 MiB holds 256 pages; every insert past that evicts one.
    let mut offset = 0u64;
    p.measure("probe.cache.insert_evict_ns", 20_000, 1.0, |_| {
        offset += 4096;
        cache.insert(PageKey { table: 2, offset }, block.clone(), 4096);
    });
}

fn merge(p: &mut Probes<'_>) {
    const WAYS: u32 = 4;
    const PER_SOURCE: u32 = 5_000;
    let sources: Vec<Vec<Entry>> = (0..WAYS)
        .map(|w| (0..PER_SOURCE).map(|i| entry(i * WAYS + w)).collect())
        .collect();
    // A merge consumes its sources, so each batch gets its own set,
    // built before the clock starts.
    let mut prepared: Vec<Vec<Box<dyn KvSource>>> = (0..BATCHES)
        .map(|_| {
            sources
                .iter()
                .map(|s| Box::new(VecSource::new(s.clone())) as Box<dyn KvSource>)
                .collect()
        })
        .collect();
    p.measure(
        "probe.merge.next_ns_per_entry",
        1,
        f64::from(WAYS * PER_SOURCE),
        |_| {
            let mut it = MergeIterator::new(prepared.pop().expect("one set per batch"));
            let mut n = 0u32;
            while it.valid() {
                n += 1;
                it.advance().expect("advance");
            }
            assert_eq!(black_box(n), WAYS * PER_SOURCE);
        },
    );
}

fn wire(p: &mut Probes<'_>) {
    let put = Request::Put {
        key: key(key_of(5)).to_vec(),
        value: value(5, VALUE_LEN),
        dkey: None,
    };
    let payload = put.encode();
    p.measure("probe.wire.request_encode_ns", 50_000, 1.0, |_| {
        black_box(black_box(&put).encode());
    });
    p.measure("probe.wire.request_decode_ns", 50_000, 1.0, |_| {
        black_box(Request::decode(black_box(&payload)).expect("decode"));
    });
    let reply = Response::Value(Some(value(5, VALUE_LEN)));
    p.measure("probe.wire.response_encode_ns", 50_000, 1.0, |_| {
        black_box(black_box(&reply).encode());
    });
    let mut frame = Vec::new();
    encode_frame(&payload, &mut frame);
    let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME_BYTES);
    p.measure("probe.wire.frame_decode_ns", 50_000, 1.0, |_| {
        decoder.feed(black_box(&frame));
        black_box(decoder.next_frame().expect("frame").expect("complete"));
    });
    let rows = Response::Rows(
        (0..50u32)
            .map(|id| (key(key_of(id)).to_vec(), value(id, VALUE_LEN)))
            .collect(),
    );
    p.measure(
        "probe.wire.scan_response_encode_ns_per_entry",
        5_000,
        50.0,
        |_| {
            black_box(black_box(&rows).encode());
        },
    );
}

/// Router cost: `ShardedDb` minus `Db` on the same memtable-resident
/// keys, for a get and for a 50-id scan.
fn sharded(p: &mut Probes<'_>) {
    const RESIDENT: u32 = 2_000;
    let sizes = Sizes {
        keys: RESIDENT,
        ops_per_second: 0,
        d_th: 1_000_000,
        cache_bytes: 1 << 20,
    };
    let single = Db::open(Arc::new(MemFs::new()), "d", bench_options(&sizes, 1024)).expect("db");
    let fleet = ShardedDb::open(
        Arc::new(MemFs::new()),
        "d",
        bench_options(&sizes, 1024),
        SHARDS,
    )
    .expect("fleet");
    for id in 0..RESIDENT {
        let (k, v) = (key(key_of(id)), value(id, VALUE_LEN));
        single.put(&k, &v).expect("put");
        fleet.put(&k, &v).expect("put");
    }
    let fleet_get = p.time("probe.sharded.get_ns", 20_000, 1.0, |i| {
        black_box(
            fleet
                .get(&key(key_of(scattered(i, RESIDENT))))
                .expect("get"),
        );
    });
    let single_get = p.time("probe.single.get_ns", 20_000, 1.0, |i| {
        black_box(
            single
                .get(&key(key_of(scattered(i, RESIDENT))))
                .expect("get"),
        );
    });
    let span = |i: u32| {
        let first = scattered(i, RESIDENT - 50);
        (key(key_of(first)), key(key_of(first + 49)))
    };
    let fleet_scan = p.time("probe.sharded.scan_ns", 2_000, 1.0, |i| {
        let (lo, hi) = span(i);
        black_box(fleet.scan(&lo, &hi).expect("scan"));
    });
    let single_scan = p.time("probe.single.scan_ns", 2_000, 1.0, |i| {
        let (lo, hi) = span(i);
        black_box(single.scan(&lo, &hi).expect("scan"));
    });
    p.values
        .insert("probe.sharded.route_ns", fleet_get - single_get);
    p.values.insert(
        "probe.sharded.scan_merge_ns_per_entry",
        (fleet_scan - single_scan) / 50.0,
    );
}

fn types(p: &mut Probes<'_>) {
    let kib = value(3, 1024);
    p.measure("probe.types.crc32c_ns_per_kib", 50_000, 1.0, |_| {
        black_box(crc32c(black_box(&kib)));
    });
    let a = InternalKey::new(&key(key_of(10)), 7, ValueKind::Put);
    let b = InternalKey::new(&key(key_of(10)), 9, ValueKind::Put);
    p.measure("probe.types.ikey_compare_ns", 100_000, 1.0, |_| {
        black_box(compare_internal(
            black_box(a.encoded()),
            black_box(b.encoded()),
        ));
    });
}
