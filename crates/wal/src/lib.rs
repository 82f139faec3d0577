//! Write-ahead log for the Acheron engine.
//!
//! The format is the block-framed layout proven in LevelDB/RocksDB:
//! the file is a sequence of 32 KiB blocks; each record is stored as one
//! or more *fragments* (`FULL`, or `FIRST`/`MIDDLE`*/`LAST`), each with a
//! masked CRC32C over its type byte and payload. Fragmentation means a
//! record never straddles a block boundary mid-header, so a reader can
//! resynchronize after a torn write and recovery is O(valid prefix).
//!
//! On top of the framing, [`batch`] defines the logical payload: a
//! `WalBatch` of puts / point deletes / secondary range deletes stamped
//! with a base sequence number — exactly the unit of atomicity the
//! engine's write path needs.

#![forbid(unsafe_code)]

pub mod batch;
pub mod reader;
pub mod writer;

pub use batch::{WalBatch, WalOp};
pub use reader::{recover_records, LogReader, ReadOutcome, RecoveredLog, TailOutcome};
pub use writer::LogWriter;

/// Size of a log block. Records never span a block header boundary.
pub const BLOCK_SIZE: usize = 32 * 1024;

/// Per-fragment header: CRC32C (4) + length (2) + type (1).
pub const HEADER_SIZE: usize = 7;

/// Fragment types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RecordType {
    /// An entire record in one fragment.
    Full = 1,
    /// First fragment of a multi-fragment record.
    First = 2,
    /// Interior fragment.
    Middle = 3,
    /// Final fragment.
    Last = 4,
}

impl RecordType {
    pub(crate) fn from_u8(v: u8) -> Option<RecordType> {
        match v {
            1 => Some(RecordType::Full),
            2 => Some(RecordType::First),
            3 => Some(RecordType::Middle),
            4 => Some(RecordType::Last),
            _ => None,
        }
    }
}

#[cfg(test)]
mod round_trip_tests {
    use super::*;
    use acheron_vfs::{MemFs, Vfs};

    fn write_records(fs: &MemFs, path: &str, records: &[Vec<u8>]) {
        let file = fs.create(path).unwrap();
        let mut w = LogWriter::new(file);
        for r in records {
            w.add_record(r).unwrap();
        }
        w.finish().unwrap();
    }

    fn read_records(fs: &MemFs, path: &str) -> Vec<Vec<u8>> {
        let data = fs.read_all(path).unwrap();
        let mut r = LogReader::new(data);
        let mut out = Vec::new();
        while let ReadOutcome::Record(rec) = r.next_record() {
            out.push(rec.to_vec());
        }
        out
    }

    #[test]
    fn empty_log() {
        let fs = MemFs::new();
        write_records(&fs, "wal", &[]);
        assert!(read_records(&fs, "wal").is_empty());
    }

    #[test]
    fn small_records_round_trip() {
        let fs = MemFs::new();
        let records: Vec<Vec<u8>> = vec![b"alpha".to_vec(), b"".to_vec(), b"gamma-rays".to_vec()];
        write_records(&fs, "wal", &records);
        assert_eq!(read_records(&fs, "wal"), records);
    }

    #[test]
    fn records_spanning_many_blocks() {
        let fs = MemFs::new();
        // One tiny, one exactly block-payload-sized, one spanning 3 blocks.
        let records: Vec<Vec<u8>> = vec![
            vec![1u8; 10],
            vec![2u8; BLOCK_SIZE - HEADER_SIZE],
            vec![3u8; BLOCK_SIZE * 3 + 123],
            vec![4u8; 1],
        ];
        write_records(&fs, "wal", &records);
        assert_eq!(read_records(&fs, "wal"), records);
    }

    #[test]
    fn record_forcing_block_trailer_padding() {
        let fs = MemFs::new();
        // First record leaves fewer than HEADER_SIZE bytes in the block,
        // forcing the writer to pad and start a new block.
        let first_len = BLOCK_SIZE - HEADER_SIZE - 3;
        let records: Vec<Vec<u8>> = vec![vec![7u8; first_len], b"next".to_vec()];
        write_records(&fs, "wal", &records);
        assert_eq!(read_records(&fs, "wal"), records);
    }
}
