//! The manifest: a durable log of version edits.
//!
//! Reuses the WAL's block framing (checksummed, torn-write tolerant).
//! Each record is one [`EditBatch`] — the atomic unit of metadata
//! change (e.g. "delete these 3 inputs, add these 2 outputs"). The
//! `CURRENT` file names the live manifest.

use acheron_types::codec::{
    put_length_prefixed, put_varint64, require_length_prefixed, require_varint64,
};
use acheron_types::{DeleteKeyRange, Error, KeyRangeTombstone, Result, SeqNo};
use acheron_vfs::Vfs;
use acheron_wal::{LogReader, LogWriter, ReadOutcome};

use crate::version::FileMeta;

/// One metadata mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VersionEdit {
    /// A new table file exists at (level, run).
    AddFile {
        /// LSM level the file joins.
        level: u64,
        /// Run within the level.
        run: u64,
        /// File id (names the `.sst` file).
        id: u64,
        /// File size in bytes.
        size: u64,
        /// Tick the file was created at (seeds FADE aging on recovery).
        created_tick: u64,
    },
    /// A table file is obsolete.
    DeleteFile {
        /// Id of the obsolete file.
        id: u64,
    },
    /// A secondary range delete was committed.
    AddRangeTombstone {
        /// Commit sequence number of the range delete.
        seqno: SeqNo,
        /// Covered delete-key range.
        range: DeleteKeyRange,
    },
    /// A range tombstone is fully applied and retired.
    DropRangeTombstone {
        /// Sequence number of the retired tombstone.
        seqno: SeqNo,
    },
    /// All operations with seqno <= this are durable in table files.
    PersistedSeqno {
        /// The persisted sequence number.
        seqno: SeqNo,
    },
    /// WAL files numbered below this are obsolete.
    LogNumber {
        /// Oldest WAL segment that must still replay.
        number: u64,
    },
    /// Lower bound for new file numbers.
    NextFileId {
        /// Next free file id.
        id: u64,
    },
    /// A sort-key range delete left the write buffer: its flush moved it
    /// here, in the same batch as the flush's table.
    AddKeyRangeTombstone(KeyRangeTombstone),
    /// A sort-key range tombstone is fully applied and retired.
    DropKeyRangeTombstone {
        /// Sequence number of the retired tombstone.
        seqno: SeqNo,
    },
    /// The sort-key range tombstones that live tables still list in
    /// their stats blocks (tables an older engine wrote) were lifted
    /// into this manifest: opens ignore those lists. An open without it
    /// lifts every live table's list into the manifest; the snapshot
    /// manifest writes it while any live table still has one.
    KeyRangeTombstonesLifted,
    /// A value-log segment was garbage-collected and its file deleted.
    ///
    /// Live tables may still carry (shadowed) pointers into the segment
    /// until compaction rewrites them; this record is how recovery and
    /// `doctor` distinguish those expected-stale references from a
    /// genuinely missing segment.
    DropVlogSegment {
        /// Id of the collected vlog segment.
        segment: u64,
    },
}

const TAG_ADD_FILE: u8 = 1;
const TAG_DELETE_FILE: u8 = 2;
const TAG_ADD_RT: u8 = 3;
const TAG_DROP_RT: u8 = 4;
const TAG_PERSISTED_SEQNO: u8 = 5;
const TAG_LOG_NUMBER: u8 = 6;
const TAG_NEXT_FILE_ID: u8 = 7;
const TAG_DROP_VLOG: u8 = 8;
const TAG_ADD_KRT: u8 = 9;
const TAG_DROP_KRT: u8 = 10;
const TAG_KRTS_LIFTED: u8 = 11;

impl VersionEdit {
    /// The record of the live file `f`.
    pub fn add_file(f: &FileMeta) -> VersionEdit {
        VersionEdit::AddFile {
            level: f.level as u64,
            run: f.run,
            id: f.id,
            size: f.size_bytes,
            created_tick: f.created_tick,
        }
    }
}

/// An atomic group of edits (one manifest record).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EditBatch {
    /// The edits, applied in order.
    pub edits: Vec<VersionEdit>,
}

impl EditBatch {
    /// Serialize to a manifest record.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 * self.edits.len() + 4);
        put_varint64(&mut out, self.edits.len() as u64);
        for e in &self.edits {
            match e {
                VersionEdit::AddFile {
                    level,
                    run,
                    id,
                    size,
                    created_tick,
                } => {
                    out.push(TAG_ADD_FILE);
                    for v in [*level, *run, *id, *size, *created_tick] {
                        put_varint64(&mut out, v);
                    }
                }
                VersionEdit::DeleteFile { id } => {
                    out.push(TAG_DELETE_FILE);
                    put_varint64(&mut out, *id);
                }
                VersionEdit::AddRangeTombstone { seqno, range } => {
                    out.push(TAG_ADD_RT);
                    put_varint64(&mut out, *seqno);
                    put_length_prefixed(&mut out, &range.encode());
                }
                VersionEdit::DropRangeTombstone { seqno } => {
                    out.push(TAG_DROP_RT);
                    put_varint64(&mut out, *seqno);
                }
                VersionEdit::PersistedSeqno { seqno } => {
                    out.push(TAG_PERSISTED_SEQNO);
                    put_varint64(&mut out, *seqno);
                }
                VersionEdit::LogNumber { number } => {
                    out.push(TAG_LOG_NUMBER);
                    put_varint64(&mut out, *number);
                }
                VersionEdit::NextFileId { id } => {
                    out.push(TAG_NEXT_FILE_ID);
                    put_varint64(&mut out, *id);
                }
                VersionEdit::DropVlogSegment { segment } => {
                    out.push(TAG_DROP_VLOG);
                    put_varint64(&mut out, *segment);
                }
                VersionEdit::AddKeyRangeTombstone(krt) => {
                    out.push(TAG_ADD_KRT);
                    krt.encode(&mut out);
                }
                VersionEdit::DropKeyRangeTombstone { seqno } => {
                    out.push(TAG_DROP_KRT);
                    put_varint64(&mut out, *seqno);
                }
                VersionEdit::KeyRangeTombstonesLifted => out.push(TAG_KRTS_LIFTED),
            }
        }
        out
    }

    /// Deserialize a manifest record.
    pub fn decode(data: &[u8]) -> Result<EditBatch> {
        let (count, mut src) = require_varint64(data, "edit batch count")?;
        let mut edits = Vec::with_capacity(count.min(4096) as usize);
        for i in 0..count {
            let (&tag, rest) = src
                .split_first()
                .ok_or_else(|| Error::corruption(format!("edit batch: truncated edit {i}")))?;
            src = rest;
            let mut next = |what: &str| -> Result<u64> {
                let (v, rest) = require_varint64(src, what)?;
                src = rest;
                Ok(v)
            };
            let edit = match tag {
                TAG_ADD_FILE => {
                    let level = next("add-file level")?;
                    let run = next("add-file run")?;
                    let id = next("add-file id")?;
                    let size = next("add-file size")?;
                    let created_tick = next("add-file tick")?;
                    VersionEdit::AddFile {
                        level,
                        run,
                        id,
                        size,
                        created_tick,
                    }
                }
                TAG_DELETE_FILE => VersionEdit::DeleteFile {
                    id: next("delete-file id")?,
                },
                TAG_ADD_RT => {
                    let seqno = next("add-rt seqno")?;
                    // Release the closure's borrow of `src` before using
                    // it directly.
                    #[allow(clippy::drop_non_drop)]
                    drop(next);
                    let (raw, rest) = require_length_prefixed(src, "add-rt range")?;
                    src = rest;
                    let range = DeleteKeyRange::decode(raw)
                        .ok_or_else(|| Error::corruption("add-rt: bad range encoding"))?;
                    VersionEdit::AddRangeTombstone { seqno, range }
                }
                TAG_DROP_RT => VersionEdit::DropRangeTombstone {
                    seqno: next("drop-rt seqno")?,
                },
                TAG_PERSISTED_SEQNO => VersionEdit::PersistedSeqno {
                    seqno: next("persisted seqno")?,
                },
                TAG_LOG_NUMBER => VersionEdit::LogNumber {
                    number: next("log number")?,
                },
                TAG_NEXT_FILE_ID => VersionEdit::NextFileId {
                    id: next("next file id")?,
                },
                TAG_DROP_VLOG => VersionEdit::DropVlogSegment {
                    segment: next("drop-vlog segment")?,
                },
                TAG_ADD_KRT => {
                    let (krt, rest) = KeyRangeTombstone::decode(src, "add-krt")?;
                    src = rest;
                    VersionEdit::AddKeyRangeTombstone(krt)
                }
                TAG_DROP_KRT => VersionEdit::DropKeyRangeTombstone {
                    seqno: next("drop-krt seqno")?,
                },
                TAG_KRTS_LIFTED => VersionEdit::KeyRangeTombstonesLifted,
                other => {
                    return Err(Error::corruption(format!(
                        "edit batch: unknown tag {other}"
                    )));
                }
            };
            edits.push(edit);
        }
        if !src.is_empty() {
            return Err(Error::corruption("edit batch: trailing bytes"));
        }
        Ok(EditBatch { edits })
    }
}

/// Append-only manifest writer.
pub struct ManifestWriter {
    log: LogWriter,
}

impl ManifestWriter {
    /// Create a fresh manifest file at `path`.
    pub fn create(fs: &dyn Vfs, path: &str) -> Result<ManifestWriter> {
        Ok(ManifestWriter {
            log: LogWriter::new(fs.create(path)?),
        })
    }

    /// Append and sync one edit batch.
    pub fn append(&mut self, batch: &EditBatch) -> Result<()> {
        self.log.add_record(&batch.encode())?;
        self.log.sync()
    }

    /// Bytes written so far (used to decide when to compact the manifest).
    pub fn len(&self) -> u64 {
        self.log.len()
    }

    /// True if nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }
}

/// Replay a manifest file into its edit batches.
///
/// A corrupt tail after at least one valid record is tolerated (crash
/// during append); corruption at the head is an error.
pub fn read_manifest(fs: &dyn Vfs, path: &str) -> Result<Vec<EditBatch>> {
    let data = fs.read_all(path)?;
    let mut reader = LogReader::new(data);
    let mut batches = Vec::new();
    loop {
        match reader.next_record() {
            ReadOutcome::Record(rec) => batches.push(EditBatch::decode(&rec)?),
            ReadOutcome::Eof => return Ok(batches),
            ReadOutcome::Corrupt { offset, reason } => {
                if batches.is_empty() {
                    return Err(Error::corruption(format!(
                        "manifest {path} corrupt at offset {offset}: {reason}"
                    )));
                }
                // Torn tail: accept the valid prefix.
                return Ok(batches);
            }
        }
    }
}

/// Read the `CURRENT` pointer: the name of the live manifest.
pub fn read_current(fs: &dyn Vfs, dir: &str) -> Result<Option<String>> {
    let path = acheron_vfs::join(dir, "CURRENT");
    if !fs.exists(&path) {
        return Ok(None);
    }
    let data = fs.read_all(&path)?;
    let name = std::str::from_utf8(&data)
        .map_err(|_| Error::corruption("CURRENT is not UTF-8"))?
        .trim()
        .to_string();
    if name.is_empty() {
        return Err(Error::corruption("CURRENT is empty"));
    }
    Ok(Some(name))
}

/// Atomically update the `CURRENT` pointer (write temp + rename).
pub fn write_current(fs: &dyn Vfs, dir: &str, manifest_name: &str) -> Result<()> {
    let tmp = acheron_vfs::join(dir, "CURRENT.tmp");
    let dst = acheron_vfs::join(dir, "CURRENT");
    fs.write_all(&tmp, format!("{manifest_name}\n").as_bytes())?;
    fs.rename(&tmp, &dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acheron_vfs::MemFs;
    use bytes::Bytes;

    fn sample_batch() -> EditBatch {
        EditBatch {
            edits: vec![
                VersionEdit::AddFile {
                    level: 0,
                    run: 3,
                    id: 17,
                    size: 4096,
                    created_tick: 99,
                },
                VersionEdit::DeleteFile { id: 4 },
                VersionEdit::AddRangeTombstone {
                    seqno: 1000,
                    range: DeleteKeyRange::new(5, 500),
                },
                VersionEdit::DropRangeTombstone { seqno: 900 },
                VersionEdit::PersistedSeqno { seqno: 1234 },
                VersionEdit::LogNumber { number: 7 },
                VersionEdit::NextFileId { id: 18 },
                VersionEdit::DropVlogSegment { segment: 2 },
                VersionEdit::AddKeyRangeTombstone(KeyRangeTombstone {
                    start: Bytes::from_static(b"a"),
                    end: Bytes::from_static(b"m"),
                    seqno: 1001,
                    dkey: 77,
                }),
                VersionEdit::DropKeyRangeTombstone { seqno: 901 },
                VersionEdit::KeyRangeTombstonesLifted,
            ],
        }
    }

    #[test]
    fn batch_round_trip() {
        let b = sample_batch();
        assert_eq!(EditBatch::decode(&b.encode()).unwrap(), b);
        let empty = EditBatch::default();
        assert_eq!(EditBatch::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn batch_rejects_truncation_and_garbage() {
        let enc = sample_batch().encode();
        for cut in 0..enc.len() {
            assert!(EditBatch::decode(&enc[..cut]).is_err(), "cut={cut}");
        }
        let mut trailing = enc.clone();
        trailing.push(1);
        assert!(EditBatch::decode(&trailing).is_err());
        let mut bad_tag = enc;
        bad_tag[1] = 99;
        assert!(EditBatch::decode(&bad_tag).is_err());
    }

    #[test]
    fn manifest_write_and_replay() {
        let fs = MemFs::new();
        let mut w = ManifestWriter::create(&fs, "MANIFEST-000001").unwrap();
        let b1 = sample_batch();
        let b2 = EditBatch {
            edits: vec![VersionEdit::DeleteFile { id: 17 }],
        };
        w.append(&b1).unwrap();
        w.append(&b2).unwrap();
        let replayed = read_manifest(&fs, "MANIFEST-000001").unwrap();
        assert_eq!(replayed, vec![b1, b2]);
    }

    #[test]
    fn manifest_tolerates_torn_tail() {
        let fs = MemFs::new();
        let mut w = ManifestWriter::create(&fs, "M").unwrap();
        w.append(&sample_batch()).unwrap();
        w.append(&sample_batch()).unwrap();
        let data = fs.read_all("M").unwrap();
        fs.write_all("M", &data[..data.len() - 3]).unwrap();
        let replayed = read_manifest(&fs, "M").unwrap();
        assert_eq!(replayed.len(), 1, "torn tail drops only the last record");
    }

    #[test]
    fn manifest_rejects_corrupt_head() {
        let fs = MemFs::new();
        fs.write_all("M", &[0xff; 64]).unwrap();
        assert!(read_manifest(&fs, "M").is_err());
    }

    #[test]
    fn current_pointer_round_trip() {
        let fs = MemFs::new();
        fs.mkdir_all("db").unwrap();
        assert_eq!(read_current(&fs, "db").unwrap(), None);
        write_current(&fs, "db", "MANIFEST-000042").unwrap();
        assert_eq!(
            read_current(&fs, "db").unwrap(),
            Some("MANIFEST-000042".to_string())
        );
        // Re-pointing replaces atomically.
        write_current(&fs, "db", "MANIFEST-000043").unwrap();
        assert_eq!(
            read_current(&fs, "db").unwrap(),
            Some("MANIFEST-000043".to_string())
        );
    }

    #[test]
    fn current_rejects_empty() {
        let fs = MemFs::new();
        fs.write_all("db/CURRENT", b"  \n").unwrap();
        assert!(read_current(&fs, "db").is_err());
    }
}
