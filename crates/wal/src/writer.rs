//! Log writer: fragments records across 32 KiB blocks.

use acheron_types::checksum;
use acheron_types::{Result, SeqNo};
use acheron_vfs::WritableFile;

use crate::batch::{encode_ops, WalOp};
use crate::{RecordType, BLOCK_SIZE, HEADER_SIZE};

/// Appends framed records to a [`WritableFile`].
pub struct LogWriter {
    file: Box<dyn WritableFile>,
    /// Offset within the current block.
    block_offset: usize,
    /// Encoding buffer for [`LogWriter::add_batch`], kept between
    /// commits so a steady stream of them allocates nothing.
    scratch: Vec<u8>,
}

impl LogWriter {
    /// Wrap a fresh (or resumed-at-block-boundary) file.
    pub fn new(file: Box<dyn WritableFile>) -> LogWriter {
        let block_offset = (file.len() as usize) % BLOCK_SIZE;
        LogWriter {
            file,
            block_offset,
            scratch: Vec::new(),
        }
    }

    /// Append one record holding the batch of `ops` stamped from
    /// `base_seqno` — `add_record(&WalBatch { .. }.encode())` without the
    /// batch or the per-commit buffer.
    pub fn add_batch(&mut self, base_seqno: SeqNo, ops: &[WalOp]) -> Result<()> {
        let mut record = std::mem::take(&mut self.scratch);
        record.clear();
        encode_ops(base_seqno, ops, &mut record);
        let res = self.add_record(&record);
        self.scratch = record;
        res
    }

    /// Append one record, fragmenting as needed.
    pub fn add_record(&mut self, payload: &[u8]) -> Result<()> {
        let mut remaining = payload;
        let mut is_first = true;
        loop {
            let leftover = BLOCK_SIZE - self.block_offset;
            if leftover < HEADER_SIZE {
                // Too little room even for a header: pad with zeros and
                // switch to a new block. Readers skip the padding.
                if leftover > 0 {
                    const ZEROS: [u8; HEADER_SIZE] = [0; HEADER_SIZE];
                    self.file.append(&ZEROS[..leftover])?;
                }
                self.block_offset = 0;
                continue;
            }
            let available = BLOCK_SIZE - self.block_offset - HEADER_SIZE;
            let fragment_len = remaining.len().min(available);
            let is_last = fragment_len == remaining.len();
            let record_type = match (is_first, is_last) {
                (true, true) => RecordType::Full,
                (true, false) => RecordType::First,
                (false, false) => RecordType::Middle,
                (false, true) => RecordType::Last,
            };
            self.emit(record_type, &remaining[..fragment_len])?;
            remaining = &remaining[fragment_len..];
            is_first = false;
            if is_last {
                return Ok(());
            }
        }
    }

    fn emit(&mut self, rt: RecordType, fragment: &[u8]) -> Result<()> {
        debug_assert!(self.block_offset + HEADER_SIZE + fragment.len() <= BLOCK_SIZE);
        let crc = checksum::masked(&[&[rt as u8], fragment]);
        let mut header = [0u8; HEADER_SIZE];
        header[..4].copy_from_slice(&crc.to_le_bytes());
        header[4..6].copy_from_slice(&(fragment.len() as u16).to_le_bytes());
        header[6] = rt as u8;
        self.file.append(&header)?;
        self.file.append(fragment)?;
        self.block_offset += HEADER_SIZE + fragment.len();
        debug_assert!(self.block_offset <= BLOCK_SIZE);
        if self.block_offset == BLOCK_SIZE {
            self.block_offset = 0;
        }
        Ok(())
    }

    /// Durably sync everything appended so far.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync()
    }

    /// Flush buffers and finish the file.
    pub fn finish(&mut self) -> Result<()> {
        self.file.finish()
    }

    /// Bytes written to the underlying file.
    pub fn len(&self) -> u64 {
        self.file.len()
    }

    /// True if nothing was written yet.
    pub fn is_empty(&self) -> bool {
        self.file.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acheron_vfs::{MemFs, Vfs};

    #[test]
    fn header_layout_is_stable() {
        // The on-disk format is a compatibility surface: pin it.
        let fs = MemFs::new();
        let f = fs.create("wal").unwrap();
        let mut w = LogWriter::new(f);
        w.add_record(b"ab").unwrap();
        w.finish().unwrap();
        let data = fs.read_all("wal").unwrap();
        assert_eq!(data.len(), HEADER_SIZE + 2);
        // length field
        assert_eq!(u16::from_le_bytes([data[4], data[5]]), 2);
        // type field
        assert_eq!(data[6], RecordType::Full as u8);
        // checksum covers type byte + payload, masked
        let expected = acheron_types::checksum::mask(acheron_types::checksum::crc32c(&[
            RecordType::Full as u8,
            b'a',
            b'b',
        ]));
        assert_eq!(
            u32::from_le_bytes([data[0], data[1], data[2], data[3]]),
            expected
        );
    }

    #[test]
    fn add_batch_writes_the_batch_encoding() {
        use crate::WalBatch;
        let batch = WalBatch {
            base_seqno: 41,
            ops: vec![
                WalOp::Put {
                    key: "k".into(),
                    value: "v".into(),
                    dkey: 3,
                },
                WalOp::Delete {
                    key: "gone".into(),
                    tick: 9,
                },
            ],
        };
        let fs = MemFs::new();
        let mut a = LogWriter::new(fs.create("a").unwrap());
        let mut b = LogWriter::new(fs.create("b").unwrap());
        for _ in 0..3 {
            a.add_record(&batch.encode()).unwrap();
            b.add_batch(batch.base_seqno, &batch.ops).unwrap();
        }
        assert_eq!(fs.read_all("a").unwrap(), fs.read_all("b").unwrap());
    }

    #[test]
    fn block_offset_resets_exactly_at_boundary() {
        let fs = MemFs::new();
        let f = fs.create("wal").unwrap();
        let mut w = LogWriter::new(f);
        // Fill exactly one block.
        w.add_record(&vec![9u8; BLOCK_SIZE - HEADER_SIZE]).unwrap();
        assert_eq!(w.block_offset, 0);
        w.add_record(b"x").unwrap();
        w.finish().unwrap();
        assert_eq!(w.len() as usize, BLOCK_SIZE + HEADER_SIZE + 1);
    }

    #[test]
    fn resume_mid_block_positions_offset() {
        // A writer created over a file with existing bytes must continue
        // at the correct in-block offset.
        let fs = MemFs::new();
        {
            let f = fs.create("wal").unwrap();
            let mut w = LogWriter::new(f);
            w.add_record(b"first").unwrap();
            w.finish().unwrap();
        }
        // Re-open by reading existing length, then append through a new
        // writer over a file primed with the same content.
        let existing = fs.read_all("wal").unwrap();
        let mut f2 = fs.create("wal").unwrap();
        f2.append(&existing).unwrap();
        let mut w = LogWriter::new(f2);
        assert_eq!(w.block_offset, HEADER_SIZE + 5);
        w.add_record(b"second").unwrap();
        w.finish().unwrap();

        let data = fs.read_all("wal").unwrap();
        let mut r = crate::LogReader::new(data);
        let mut got = Vec::new();
        while let crate::ReadOutcome::Record(rec) = r.next_record() {
            got.push(rec.to_vec());
        }
        assert_eq!(got, vec![b"first".to_vec(), b"second".to_vec()]);
    }
}
