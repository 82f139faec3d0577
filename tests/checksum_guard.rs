//! Every flipped bit is caught: for one artifact of each checksummed
//! format — an SSTable page, a WAL record, a value-log frame, a wire
//! frame and the shard map — flip every single bit of the stored bytes
//! in turn and read it back through the public reader. The reader must
//! report `Error::Corruption` (or, for the log formats, treat the record
//! as a torn tail); it must never return `Ok` with different bytes and
//! never panic. A CRC32C detects every single-bit error, so this pins
//! that each reader really compares the checksum it is handed — with
//! either checksum kernel, in debug and in release.

use std::sync::Arc;

use acheron::{read_shard_map, DbOptions, ShardedDb};
use acheron_server::wire::{encode_frame, FrameDecoder};
use acheron_sstable::{Table, TableBuilder, TableOptions};
use acheron_types::{Entry, Result};
use acheron_vfs::{MemFs, Vfs};
use acheron_vlog::{VlogReader, VlogWriter};
use acheron_wal::{recover_records, LogWriter};

/// Call `check(bit, damaged)` once per bit of `image[region]`, with
/// `damaged` equal to `image` except for that one bit.
fn for_each_flipped_bit(
    image: &[u8],
    region: std::ops::Range<usize>,
    mut check: impl FnMut(usize, &[u8]),
) {
    let mut damaged = image.to_vec();
    for bit in region.start * 8..region.end * 8 {
        damaged[bit / 8] ^= 1 << (bit % 8);
        check(bit, &damaged);
        damaged[bit / 8] ^= 1 << (bit % 8);
    }
}

fn assert_corruption<T: std::fmt::Debug>(result: Result<T>, what: &str, bit: usize) {
    match result {
        Err(e) if e.is_corruption() => {}
        other => panic!("{what}: flipped bit {bit} was not reported as corruption: {other:?}"),
    }
}

#[test]
fn sstable_page_bit_flips_are_corruption() {
    let fs = MemFs::new();
    let opts = TableOptions {
        page_size: 1024,
        pages_per_tile: 2,
        ..Default::default()
    };
    let mut b = TableBuilder::new(fs.create("t.sst").unwrap(), opts).unwrap();
    let entries: Vec<Entry> = (0..120u64)
        .map(|i| {
            Entry::put(
                format!("key{i:06}").into_bytes(),
                vec![i as u8; 24],
                i + 1,
                i % 7,
            )
        })
        .collect();
    for e in &entries {
        b.add(e).unwrap();
    }
    b.finish().unwrap();
    let image = fs.read_all("t.sst").unwrap();

    let walk = |fs: &MemFs| -> Result<Vec<Entry>> {
        let table = Table::open(fs.open("t.sst")?)?;
        let mut it = table.iter_bypass(Vec::new());
        it.seek_to_first()?;
        it.drain()
    };
    assert_eq!(walk(&fs).unwrap(), entries);

    // One page: contents, the type byte and the stored checksum.
    let table = Table::open(fs.open("t.sst").unwrap()).unwrap();
    assert!(
        table
            .tile_index()
            .iter()
            .map(|t| t.pages.len())
            .sum::<usize>()
            > 2
    );
    let page = table.tile_index().tile(0).pages[1].handle;
    let region = page.offset as usize..(page.offset + page.size) as usize + 5;
    for_each_flipped_bit(&image, region, |bit, damaged| {
        fs.write_all("t.sst", damaged).unwrap();
        assert_corruption(walk(&fs), "sstable page", bit);
    });
}

#[test]
fn wal_record_bit_flips_tear_the_log_there() {
    let records: [&[u8]; 3] = [b"first record", &[0xa5; 200], b"third record"];
    let fs = MemFs::new();
    let mut w = LogWriter::new(fs.create("wal").unwrap());
    let mut ends = Vec::new();
    for r in records {
        w.add_record(r).unwrap();
        ends.push(w.len() as usize);
    }
    w.finish().unwrap();
    let image = fs.read_all("wal").unwrap();
    let clean = recover_records(image.clone());
    assert!(!clean.is_torn());
    assert_eq!(clean.records.len(), 3);

    // The middle record, header and payload: the log must end before
    // it, and the intact record behind the damage must not be replayed.
    for_each_flipped_bit(&image, ends[0]..ends[1], |bit, damaged| {
        let log = recover_records(damaged.to_vec().into());
        assert!(log.is_torn(), "wal: flipped bit {bit} read as a clean log");
        assert_eq!(log.records, [records[0]], "wal: flipped bit {bit}");
        assert_eq!(log.valid_len, ends[0] as u64, "wal: flipped bit {bit}");
    });
}

#[test]
fn vlog_frame_bit_flips_are_corruption() {
    let fs = Arc::new(MemFs::new());
    let path = "vlog-000001.vlg";
    let mut w = VlogWriter::create(fs.clone(), "", 1, 1 << 20).unwrap();
    w.append(b"other-key", &[7u8; 64]).unwrap();
    let value = vec![0x3c; 300];
    let ptr = w.append(b"the-key", &value).unwrap();
    w.sync().unwrap();
    let image = fs.read_all(path).unwrap();
    let get = || VlogReader::new(fs.clone(), "").get(&ptr, b"the-key");
    assert_eq!(get().unwrap(), value);

    // The whole frame: length, stored checksum, key and value.
    let region = ptr.offset as usize..ptr.offset as usize + ptr.len as usize;
    assert_eq!(region.end, image.len());
    for_each_flipped_bit(&image, region, |bit, damaged| {
        fs.write_all(path, damaged).unwrap();
        assert_corruption(get(), "vlog frame", bit);
    });
}

#[test]
fn wire_frame_bit_flips_never_decode() {
    let payload: Vec<u8> = (0..257u32).map(|i| (i * 31) as u8).collect();
    let mut image = Vec::new();
    encode_frame(&payload, &mut image);
    let decode = |bytes: &[u8]| {
        let mut d = FrameDecoder::new(1 << 20);
        d.feed(bytes);
        d.next_frame()
    };
    assert_eq!(decode(&image).unwrap(), Some(payload));

    for_each_flipped_bit(&image, 0..image.len(), |bit, damaged| {
        match decode(damaged) {
            // A length that grew leaves the decoder waiting for the rest
            // of a frame that never comes: a torn tail, not a payload.
            Ok(None) if bit < 32 => {}
            other => assert_corruption(other, "wire frame", bit),
        }
    });
}

#[test]
fn shard_map_bit_flips_are_corruption() {
    let fs = Arc::new(MemFs::new());
    drop(ShardedDb::open(fs.clone(), "fleet", DbOptions::small(), 3).unwrap());
    assert_eq!(read_shard_map(fs.as_ref(), "fleet").unwrap(), Some(3));
    let image = fs.read_all("fleet/SHARDMAP").unwrap();

    for_each_flipped_bit(&image, 0..image.len(), |bit, damaged| {
        fs.write_all("fleet/SHARDMAP", damaged).unwrap();
        assert_corruption(read_shard_map(fs.as_ref(), "fleet"), "shard map", bit);
    });
}
