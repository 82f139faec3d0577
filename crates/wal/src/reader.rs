//! Log reader: reassembles fragmented records and classifies damage.
//!
//! Recovery semantics: a WAL's valid prefix is replayed; the first sign
//! of a torn/corrupt tail stops replay. [`ReadOutcome`] distinguishes a
//! clean end-of-log from corruption so the engine can decide whether the
//! tail loss was expected (crash during append — fine) or alarming
//! (corruption *before* previously acknowledged data — surfaced to the
//! caller).

use acheron_types::checksum;
use bytes::Bytes;

use crate::{RecordType, BLOCK_SIZE, HEADER_SIZE};

/// Result of [`LogReader::next_record`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOutcome {
    /// A complete record.
    Record(Bytes),
    /// Clean end of log (no bytes, or only padding, remain).
    Eof,
    /// The log ends in a damaged or incomplete record at the given file
    /// offset. Everything returned before this outcome is intact.
    Corrupt {
        /// Offset of the damaged fragment.
        offset: u64,
        /// What was wrong.
        reason: String,
    },
}

/// Streaming reader over the full contents of one WAL file.
pub struct LogReader {
    data: Bytes,
    pos: usize,
}

impl LogReader {
    /// Wrap the raw file contents.
    pub fn new(data: Bytes) -> LogReader {
        LogReader { data, pos: 0 }
    }

    /// Read the next record, reassembling fragments.
    pub fn next_record(&mut self) -> ReadOutcome {
        let mut assembled: Option<Vec<u8>> = None;
        loop {
            let frag_offset = self.pos as u64;
            match self.next_fragment() {
                FragOutcome::Eof => {
                    return if assembled.is_some() {
                        ReadOutcome::Corrupt {
                            offset: frag_offset,
                            reason: "log ended inside a fragmented record".into(),
                        }
                    } else {
                        ReadOutcome::Eof
                    };
                }
                FragOutcome::Corrupt(reason) => {
                    return ReadOutcome::Corrupt {
                        offset: frag_offset,
                        reason,
                    };
                }
                FragOutcome::Fragment(rt, payload) => match (rt, &mut assembled) {
                    (RecordType::Full, None) => return ReadOutcome::Record(payload),
                    (RecordType::First, None) => assembled = Some(payload.to_vec()),
                    (RecordType::Middle, Some(buf)) => buf.extend_from_slice(&payload),
                    (RecordType::Last, Some(buf)) => {
                        buf.extend_from_slice(&payload);
                        return ReadOutcome::Record(Bytes::from(std::mem::take(buf)));
                    }
                    (rt, state) => {
                        return ReadOutcome::Corrupt {
                            offset: frag_offset,
                            reason: format!(
                                "fragment type {rt:?} unexpected (mid-record: {})",
                                state.is_some()
                            ),
                        };
                    }
                },
            }
        }
    }

    fn next_fragment(&mut self) -> FragOutcome {
        loop {
            let in_block = self.pos % BLOCK_SIZE;
            let leftover = BLOCK_SIZE - in_block;
            if leftover < HEADER_SIZE {
                // Block trailer padding; skip to the next block.
                if self.pos + leftover > self.data.len() {
                    return FragOutcome::Eof;
                }
                self.pos += leftover;
                continue;
            }
            if self.pos == self.data.len() {
                return FragOutcome::Eof;
            }
            if self.pos + HEADER_SIZE > self.data.len() {
                return FragOutcome::Corrupt("truncated fragment header".into());
            }
            let header = &self.data[self.pos..self.pos + HEADER_SIZE];
            let stored_crc = u32::from_le_bytes(header[..4].try_into().unwrap());
            let len = u16::from_le_bytes(header[4..6].try_into().unwrap()) as usize;
            let type_byte = header[6];
            if stored_crc == 0 && len == 0 && type_byte == 0 {
                // Zero-filled region: preallocated space or padding at
                // the tail of a recycled file. Treat as clean EOF.
                return FragOutcome::Eof;
            }
            let Some(rt) = RecordType::from_u8(type_byte) else {
                return FragOutcome::Corrupt(format!("unknown record type {type_byte}"));
            };
            if in_block + HEADER_SIZE + len > BLOCK_SIZE {
                return FragOutcome::Corrupt("fragment length crosses block boundary".into());
            }
            let start = self.pos + HEADER_SIZE;
            if start + len > self.data.len() {
                return FragOutcome::Corrupt("truncated fragment payload".into());
            }
            let payload = self.data.slice(start..start + len);
            let actual = checksum::masked(&[&[type_byte], &payload]);
            if actual != stored_crc {
                return FragOutcome::Corrupt("fragment checksum mismatch".into());
            }
            self.pos = start + len;
            return FragOutcome::Fragment(rt, payload);
        }
    }

    /// Current read offset in the file.
    pub fn offset(&self) -> u64 {
        self.pos as u64
    }
}

enum FragOutcome {
    Fragment(RecordType, Bytes),
    Eof,
    Corrupt(String),
}

/// How one WAL segment ended, as seen by [`recover_records`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailOutcome {
    /// The segment ended cleanly (EOF or zero padding).
    Clean,
    /// The segment ends in a damaged or incomplete record. Everything
    /// in [`RecoveredLog::records`] precedes the damage and is intact.
    Torn {
        /// File offset of the damaged fragment.
        offset: u64,
        /// What was wrong with it.
        reason: String,
    },
}

/// The replayable prefix of one WAL segment.
#[derive(Debug, Clone)]
pub struct RecoveredLog {
    /// Intact records, in write order.
    pub records: Vec<Bytes>,
    /// Whether the segment's tail was clean or torn.
    pub tail: TailOutcome,
    /// File length up to the end of the last intact record — the point
    /// a truncate-and-continue recovery should cut a torn segment at.
    /// (Not [`TailOutcome::Torn::offset`]: for a fragmented record the
    /// damage may sit past an intact `FIRST` fragment, which must also
    /// be discarded.)
    pub valid_len: u64,
}

impl RecoveredLog {
    /// True if the tail was torn.
    pub fn is_torn(&self) -> bool {
        matches!(self.tail, TailOutcome::Torn { .. })
    }
}

/// Truncate-and-continue recovery of one segment: return every intact
/// record up to the first sign of damage, plus how the segment ended.
///
/// A torn tail is the *expected* shape of a crash mid-append and is not
/// an error here — but it does mean any later-numbered segment must
/// **not** be replayed (its records would be out of order with the ones
/// lost in the tear, resurrecting overwritten values and deleted keys).
/// Callers replaying a sequence of segments must stop at the first
/// [`TailOutcome::Torn`].
pub fn recover_records(data: Bytes) -> RecoveredLog {
    let mut reader = LogReader::new(data);
    let mut records = Vec::new();
    let mut valid_len = 0u64;
    loop {
        match reader.next_record() {
            ReadOutcome::Record(rec) => {
                records.push(rec);
                valid_len = reader.offset();
            }
            ReadOutcome::Eof => {
                return RecoveredLog {
                    records,
                    tail: TailOutcome::Clean,
                    valid_len,
                };
            }
            ReadOutcome::Corrupt { offset, reason } => {
                return RecoveredLog {
                    records,
                    tail: TailOutcome::Torn { offset, reason },
                    valid_len,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LogWriter;
    use acheron_vfs::{MemFs, Vfs};

    fn build_log(records: &[&[u8]]) -> Bytes {
        let fs = MemFs::new();
        let f = fs.create("wal").unwrap();
        let mut w = LogWriter::new(f);
        for r in records {
            w.add_record(r).unwrap();
        }
        w.finish().unwrap();
        fs.read_all("wal").unwrap()
    }

    fn drain(data: Bytes) -> (Vec<Vec<u8>>, ReadOutcome) {
        let mut r = LogReader::new(data);
        let mut out = Vec::new();
        loop {
            match r.next_record() {
                ReadOutcome::Record(rec) => out.push(rec.to_vec()),
                other => return (out, other),
            }
        }
    }

    #[test]
    fn truncated_tail_loses_only_last_record() {
        let data = build_log(&[b"keep-me", b"lose-me"]);
        // Cut into the middle of the second record's payload.
        let cut = data.len() - 3;
        let (records, outcome) = drain(data.slice(..cut));
        assert_eq!(records, vec![b"keep-me".to_vec()]);
        assert!(matches!(outcome, ReadOutcome::Corrupt { .. }));
    }

    #[test]
    fn truncation_at_record_boundary_is_clean_eof() {
        let first = build_log(&[b"keep-me"]);
        let both = build_log(&[b"keep-me", b"second"]);
        let (records, outcome) = drain(both.slice(..first.len()));
        assert_eq!(records, vec![b"keep-me".to_vec()]);
        assert_eq!(outcome, ReadOutcome::Eof);
    }

    #[test]
    fn bit_flip_detected() {
        let data = build_log(&[b"aaaa", b"bbbb"]);
        let mut broken = data.to_vec();
        // Flip a payload byte of the first record.
        broken[HEADER_SIZE] ^= 0x01;
        let (records, outcome) = drain(Bytes::from(broken));
        assert!(records.is_empty());
        match outcome {
            ReadOutcome::Corrupt { reason, offset } => {
                assert!(reason.contains("checksum"), "{reason}");
                assert_eq!(offset, 0);
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn zero_filled_tail_is_eof() {
        let data = build_log(&[b"rec"]);
        let mut padded = data.to_vec();
        padded.extend_from_slice(&[0u8; 64]);
        let (records, outcome) = drain(Bytes::from(padded));
        assert_eq!(records, vec![b"rec".to_vec()]);
        assert_eq!(outcome, ReadOutcome::Eof);
    }

    #[test]
    fn fragmented_record_missing_last_fragment_is_corrupt() {
        // Build a 2-block record, then truncate to the first block only.
        let data = build_log(&[&vec![5u8; BLOCK_SIZE + 100]]);
        let (records, outcome) = drain(data.slice(..BLOCK_SIZE));
        assert!(records.is_empty());
        assert!(matches!(outcome, ReadOutcome::Corrupt { .. }));
    }

    #[test]
    fn middle_without_first_is_corrupt() {
        // Handcraft a MIDDLE fragment at offset 0.
        let payload = b"stray";
        let crc = checksum::masked(&[&[RecordType::Middle as u8], payload]);
        let mut data = Vec::new();
        data.extend_from_slice(&crc.to_le_bytes());
        data.extend_from_slice(&(payload.len() as u16).to_le_bytes());
        data.push(RecordType::Middle as u8);
        data.extend_from_slice(payload);
        let (records, outcome) = drain(Bytes::from(data));
        assert!(records.is_empty());
        assert!(matches!(outcome, ReadOutcome::Corrupt { .. }));
    }

    #[test]
    fn every_prefix_of_a_log_recovers_a_prefix_of_records() {
        // Durability invariant I4 at the framing layer: for any cut
        // point, recovered records are a prefix of the written records.
        let records: Vec<Vec<u8>> = (0..40).map(|i| vec![i as u8; (i * 37) % 700 + 1]).collect();
        let refs: Vec<&[u8]> = records.iter().map(|r| r.as_slice()).collect();
        let data = build_log(&refs);
        for cut in (0..data.len()).step_by(311) {
            let (got, _outcome) = drain(data.slice(..cut));
            assert!(got.len() <= records.len());
            assert_eq!(
                got.as_slice(),
                &records[..got.len()],
                "prefix property violated at cut {cut}"
            );
        }
    }

    #[test]
    fn recover_records_truncates_and_continues_on_corrupt_final_record() {
        // Three records; smash bytes inside the final one. Recovery
        // must keep the first two and classify the tail as torn — not
        // error out.
        let data = build_log(&[b"first", b"second", b"doomed"]);
        let mut broken = data.to_vec();
        let len = broken.len();
        for b in &mut broken[len - 4..] {
            *b ^= 0x5a;
        }
        let rec = recover_records(Bytes::from(broken));
        assert_eq!(
            rec.records,
            vec![Bytes::from_static(b"first"), Bytes::from_static(b"second")]
        );
        assert!(rec.is_torn());
        match rec.tail {
            TailOutcome::Torn { reason, .. } => {
                assert!(reason.contains("checksum"), "{reason}")
            }
            TailOutcome::Clean => panic!("tail must be torn"),
        }
    }

    #[test]
    fn recover_records_clean_log() {
        let rec = recover_records(build_log(&[b"a", b"bb"]));
        assert_eq!(rec.records.len(), 2);
        assert_eq!(rec.tail, TailOutcome::Clean);
        assert!(!rec.is_torn());
    }

    #[test]
    fn recover_records_short_final_write() {
        // The final record's bytes only partially reached the device (a
        // short write): its intact predecessors still recover.
        let data = build_log(&[b"keep-a", b"keep-b", b"torn-away"]);
        let rec = recover_records(data.slice(..data.len() - 5));
        assert_eq!(
            rec.records,
            vec![Bytes::from_static(b"keep-a"), Bytes::from_static(b"keep-b")]
        );
        assert!(rec.is_torn());
    }

    #[test]
    fn offset_advances_monotonically() {
        let data = build_log(&[b"a", b"bb", b"ccc"]);
        let mut r = LogReader::new(data);
        let mut last = 0;
        while let ReadOutcome::Record(_) = r.next_record() {
            assert!(r.offset() > last);
            last = r.offset();
        }
    }
}
