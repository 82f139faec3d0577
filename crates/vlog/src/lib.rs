//! Segmented, CRC-framed value log for key-value separation.
//!
//! Values above the engine's separation threshold are appended here at
//! commit time; the tree stores a fixed-size
//! [`ValuePointer`] instead (WiscKey's split, with
//! Acheron's twist that reclamation of dead vlog bytes is bounded by the
//! same `D_th` deadline as tombstone persistence — see the engine's GC).
//!
//! # Frame format
//!
//! Each appended value becomes one self-describing frame:
//!
//! ```text
//! payload_len (u32 LE) | crc32c(payload) (u32 LE, masked) | payload
//! payload := key_len (u32 LE) | key | value
//! ```
//!
//! The frame carries its key so a dereference can verify the pointer
//! resolves to the right record (a dangling or stale pointer fails
//! loudly instead of returning another key's bytes), and so GC can
//! re-associate surviving values with their keys without consulting the
//! tree. A [`ValuePointer`] names the whole frame: `(segment, offset,
//! len)` with `len = 8 + payload_len`.
//!
//! # Durability contract
//!
//! The engine appends frames *before* writing the WAL record that
//! references them and syncs the log head *before* the WAL sync
//! (WAL-then-vlog would admit a committed pointer with no bytes behind
//! it). Recovery therefore treats an unreadable frame behind a replayed
//! pointer exactly like a torn WAL tail: the commit never finished.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::sync::Arc;

use acheron_types::{checksum, Error, Result, ValuePointer};
use acheron_vfs::{RandomAccessFile, Vfs, WritableFile};
use bytes::Bytes;
use parking_lot::Mutex;

/// Bytes of frame header preceding the payload: length + checksum.
pub const FRAME_HEADER: usize = 8;

/// File name of a value-log segment: `vlog-{seg:06}.vlg`.
pub fn segment_file_name(segment: u64) -> String {
    format!("vlog-{segment:06}.vlg")
}

/// Parse a value-log segment file name; `None` for anything else.
pub fn parse_segment_file_name(name: &str) -> Option<u64> {
    name.strip_prefix("vlog-")?
        .strip_suffix(".vlg")?
        .parse()
        .ok()
}

/// Encode one frame for `key`/`value`.
pub fn encode_frame(key: &[u8], value: &[u8]) -> Vec<u8> {
    let payload_len = 4 + key.len() + value.len();
    let mut out = Vec::with_capacity(FRAME_HEADER + payload_len);
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    out.extend_from_slice(&[0u8; 4]); // crc patched below
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(value);
    let crc = checksum::masked(&[&out[FRAME_HEADER..]]);
    out[4..8].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Decode and verify one complete frame, returning `(key, value)`.
pub fn decode_frame(frame: &Bytes) -> Result<(Bytes, Bytes)> {
    if frame.len() < FRAME_HEADER + 4 {
        return Err(Error::corruption("vlog frame: truncated header"));
    }
    let payload_len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
    if frame.len() != FRAME_HEADER + payload_len {
        return Err(Error::corruption(format!(
            "vlog frame: length mismatch ({} bytes for payload of {payload_len})",
            frame.len()
        )));
    }
    let stored_crc = u32::from_le_bytes(frame[4..8].try_into().unwrap());
    let payload = &frame[FRAME_HEADER..];
    let actual = checksum::masked(&[payload]);
    if actual != stored_crc {
        return Err(Error::corruption("vlog frame: checksum mismatch"));
    }
    let key_len = u32::from_le_bytes(payload[..4].try_into().unwrap()) as usize;
    if 4 + key_len > payload.len() {
        return Err(Error::corruption("vlog frame: key overruns payload"));
    }
    let key = frame.slice(FRAME_HEADER + 4..FRAME_HEADER + 4 + key_len);
    let value = frame.slice(FRAME_HEADER + 4 + key_len..);
    Ok((key, value))
}

/// The append head of the value log: one active segment file, rolled at
/// the configured size. Owned by the engine's commit path (behind the
/// same exclusion that owns the WAL writer) and by vlog GC.
pub struct VlogWriter {
    fs: Arc<dyn Vfs>,
    dir: String,
    segment_bytes: u64,
    segment: u64,
    file: Box<dyn WritableFile>,
    offset: u64,
    /// Frames appended since the last [`VlogWriter::sync`].
    dirty: bool,
}

impl VlogWriter {
    /// Start a fresh segment `segment` under `dir`, rolling to a new
    /// segment whenever the active one reaches `segment_bytes`.
    pub fn create(
        fs: Arc<dyn Vfs>,
        dir: &str,
        segment: u64,
        segment_bytes: u64,
    ) -> Result<VlogWriter> {
        let file = fs.create(&acheron_vfs::join(dir, &segment_file_name(segment)))?;
        Ok(VlogWriter {
            fs,
            dir: dir.to_string(),
            segment_bytes: segment_bytes.max(1),
            segment,
            file,
            offset: 0,
            dirty: false,
        })
    }

    /// Append one `key`/`value` frame, rolling the segment first if the
    /// active one is full. Returns the pointer naming the frame.
    pub fn append(&mut self, key: &[u8], value: &[u8]) -> Result<ValuePointer> {
        if self.offset > 0 && self.offset >= self.segment_bytes {
            self.roll()?;
        }
        let frame = encode_frame(key, value);
        self.file.append(&frame)?;
        let ptr = ValuePointer {
            segment: self.segment,
            offset: self.offset,
            len: frame.len() as u32,
        };
        self.offset += frame.len() as u64;
        self.dirty = true;
        Ok(ptr)
    }

    /// Durably flush every appended frame. No-op when clean.
    pub fn sync(&mut self) -> Result<()> {
        if self.dirty {
            self.file.sync()?;
            self.dirty = false;
        }
        Ok(())
    }

    /// Close the active segment and open the next one (`segment + 1`).
    /// The retiring segment is synced first: frames already handed out
    /// as pointers must not be lost once their WAL records sync.
    fn roll(&mut self) -> Result<()> {
        self.file.sync()?;
        self.file.finish()?;
        self.segment += 1;
        self.file = self.fs.create(&acheron_vfs::join(
            &self.dir,
            &segment_file_name(self.segment),
        ))?;
        self.offset = 0;
        self.dirty = false;
        Ok(())
    }

    /// The active segment id.
    pub fn segment(&self) -> u64 {
        self.segment
    }

    /// Append offset within the active segment.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// True if frames were appended since the last sync.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }
}

/// Shared dereference path: positioned reads with a per-segment fd
/// cache. Clone-free sharing via `Arc<VlogReader>`.
pub struct VlogReader {
    fs: Arc<dyn Vfs>,
    dir: String,
    fds: Mutex<HashMap<u64, Arc<dyn RandomAccessFile>>>,
}

impl VlogReader {
    /// A reader over the segments in `dir`.
    pub fn new(fs: Arc<dyn Vfs>, dir: &str) -> VlogReader {
        VlogReader {
            fs,
            dir: dir.to_string(),
            fds: Mutex::new(HashMap::new()),
        }
    }

    fn segment_fd(&self, segment: u64) -> Result<Arc<dyn RandomAccessFile>> {
        if let Some(fd) = self.fds.lock().get(&segment) {
            return Ok(Arc::clone(fd));
        }
        let fd = self
            .fs
            .open(&acheron_vfs::join(&self.dir, &segment_file_name(segment)))?;
        self.fds.lock().insert(segment, Arc::clone(&fd));
        Ok(fd)
    }

    /// Read and verify the frame at `ptr`, returning `(key, value)`.
    pub fn read_frame(&self, ptr: &ValuePointer) -> Result<(Bytes, Bytes)> {
        let fd = self.segment_fd(ptr.segment)?;
        let frame = fd.read_at(ptr.offset, ptr.len as usize)?;
        decode_frame(&frame)
    }

    /// Dereference `ptr` for `key`: the frame must verify *and* carry
    /// the expected key, so a pointer patched or mis-resolved to another
    /// record fails as corruption instead of returning foreign bytes.
    pub fn get(&self, ptr: &ValuePointer, key: &[u8]) -> Result<Bytes> {
        let (frame_key, value) = self.read_frame(ptr)?;
        if frame_key != key {
            return Err(Error::corruption(format!(
                "vlog pointer (segment {}, offset {}) resolves to a different key",
                ptr.segment, ptr.offset
            )));
        }
        Ok(value)
    }

    /// Drop the cached handle for `segment` (call after deleting or
    /// rewriting it; a stale fd could otherwise serve reads for a
    /// replaced file on filesystems where open handles outlive unlink).
    pub fn invalidate(&self, segment: u64) {
        self.fds.lock().remove(&segment);
    }

    /// Drop every cached handle.
    pub fn clear(&self) {
        self.fds.lock().clear();
    }
}

/// One intact frame located by [`scan_segment`].
#[derive(Debug, Clone)]
pub struct ScannedFrame {
    /// Byte offset of the frame in the segment.
    pub offset: u64,
    /// Whole-frame length.
    pub len: u32,
    /// The key recorded in the frame.
    pub key: Bytes,
    /// Length of the value carried by the frame.
    pub value_len: u64,
}

/// Result of walking a segment front to back.
#[derive(Debug, Clone)]
pub struct SegmentScan {
    /// Every intact frame, in file order.
    pub frames: Vec<ScannedFrame>,
    /// Bytes covered by intact frames (the valid prefix).
    pub valid_len: u64,
    /// True if the segment ends in a torn or corrupt frame; bytes past
    /// `valid_len` are not part of any intact frame.
    pub torn: bool,
}

/// Walk the raw bytes of one segment, returning its intact frame prefix.
/// A torn tail (crash mid-append) is reported, not an error.
pub fn scan_segment(data: &Bytes) -> SegmentScan {
    let mut frames = Vec::new();
    let mut pos = 0u64;
    let mut torn = false;
    while (pos as usize) < data.len() {
        let start = pos as usize;
        let frame_len = match data.get(start..start + 4) {
            Some(hdr) => FRAME_HEADER + u32::from_le_bytes(hdr.try_into().unwrap()) as usize,
            None => {
                torn = true;
                break;
            }
        };
        if start + frame_len > data.len() {
            torn = true;
            break;
        }
        let frame = data.slice(start..start + frame_len);
        match decode_frame(&frame) {
            Ok((key, value)) => {
                frames.push(ScannedFrame {
                    offset: pos,
                    len: frame_len as u32,
                    key,
                    value_len: value.len() as u64,
                });
                pos += frame_len as u64;
            }
            Err(_) => {
                torn = true;
                break;
            }
        }
    }
    SegmentScan {
        frames,
        valid_len: pos,
        torn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acheron_vfs::MemFs;

    fn mem() -> Arc<dyn Vfs> {
        Arc::new(MemFs::new())
    }

    #[test]
    fn segment_names_round_trip() {
        assert_eq!(segment_file_name(7), "vlog-000007.vlg");
        assert_eq!(parse_segment_file_name("vlog-000007.vlg"), Some(7));
        assert_eq!(parse_segment_file_name("vlog-1234567.vlg"), Some(1234567));
        assert_eq!(parse_segment_file_name("vlog-xx.vlg"), None);
        assert_eq!(parse_segment_file_name("000007.sst"), None);
        assert_eq!(parse_segment_file_name("vlog-000007.vlg.tmp"), None);
    }

    #[test]
    fn frame_round_trip() {
        let frame = Bytes::from(encode_frame(b"user-key", b"a value worth separating"));
        let (k, v) = decode_frame(&frame).unwrap();
        assert_eq!(&k[..], b"user-key");
        assert_eq!(&v[..], b"a value worth separating");
    }

    #[test]
    fn frame_rejects_bit_flips_everywhere() {
        let frame = encode_frame(b"k", b"vvvv");
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            let bad = Bytes::from(bad);
            // Any single-bit flip must fail to decode (a length flip may
            // also fail as a size mismatch — either way, no silent
            // success with wrong bytes).
            assert!(decode_frame(&bad).is_err(), "flip at byte {i} undetected");
        }
    }

    #[test]
    fn frame_rejects_truncation() {
        let frame = encode_frame(b"key", b"value");
        for cut in 0..frame.len() {
            assert!(decode_frame(&Bytes::from(frame[..cut].to_vec())).is_err());
        }
    }

    #[test]
    fn writer_reader_round_trip() {
        let fs = mem();
        fs.mkdir_all("db").unwrap();
        let mut w = VlogWriter::create(Arc::clone(&fs), "db", 1, 1 << 20).unwrap();
        let p1 = w.append(b"alpha", b"first value").unwrap();
        let p2 = w.append(b"beta", &vec![0xabu8; 4096]).unwrap();
        w.sync().unwrap();
        assert_eq!(p1.segment, 1);
        assert_eq!(p1.offset, 0);
        assert_eq!(p2.offset, u64::from(p1.len));

        let r = VlogReader::new(fs, "db");
        assert_eq!(&r.get(&p1, b"alpha").unwrap()[..], b"first value");
        assert_eq!(r.get(&p2, b"beta").unwrap().len(), 4096);
        // Wrong key for a valid frame: loud failure.
        assert!(r.get(&p1, b"beta").is_err());
    }

    #[test]
    fn writer_rolls_segments_at_threshold() {
        let fs = mem();
        fs.mkdir_all("db").unwrap();
        let mut w = VlogWriter::create(Arc::clone(&fs), "db", 1, 256).unwrap();
        let mut ptrs = Vec::new();
        for i in 0..20u32 {
            ptrs.push((
                i,
                w.append(format!("k{i}").as_bytes(), &[b'v'; 100]).unwrap(),
            ));
        }
        w.sync().unwrap();
        assert!(w.segment() > 1, "threshold must have forced a roll");
        let r = VlogReader::new(fs, "db");
        for (i, p) in &ptrs {
            assert_eq!(
                &r.get(p, format!("k{i}").as_bytes()).unwrap()[..],
                &[b'v'; 100]
            );
        }
        // No segment grew far past the roll threshold.
        for p in ptrs.iter().map(|(_, p)| p) {
            assert!(p.offset < 256 + 120);
        }
    }

    #[test]
    fn scan_recovers_frame_prefix_after_torn_tail() {
        let fs = mem();
        fs.mkdir_all("db").unwrap();
        let mut w = VlogWriter::create(Arc::clone(&fs), "db", 3, 1 << 20).unwrap();
        for i in 0..5u32 {
            w.append(format!("key{i}").as_bytes(), &[i as u8; 64])
                .unwrap();
        }
        w.sync().unwrap();
        let path = acheron_vfs::join("db", &segment_file_name(3));
        let data = fs.read_all(&path).unwrap();

        let full = scan_segment(&data);
        assert_eq!(full.frames.len(), 5);
        assert!(!full.torn);
        assert_eq!(full.valid_len, data.len() as u64);

        // Cut mid-final-frame: the prefix survives, tail reported torn.
        let cut = data.slice(..data.len() - 10);
        let partial = scan_segment(&cut);
        assert_eq!(partial.frames.len(), 4);
        assert!(partial.torn);
        assert_eq!(partial.valid_len, full.frames[4].offset);
        assert_eq!(&partial.frames[3].key[..], b"key3");
        assert_eq!(partial.frames[3].value_len, 64);
    }

    #[test]
    fn scan_stops_at_corrupt_frame() {
        let mut data = encode_frame(b"a", b"111");
        let second_at = data.len();
        data.extend_from_slice(&encode_frame(b"b", b"222"));
        data[second_at + FRAME_HEADER + 4] ^= 0xff; // smash the key byte
        let scan = scan_segment(&Bytes::from(data));
        assert_eq!(scan.frames.len(), 1);
        assert!(scan.torn);
    }

    #[test]
    fn reader_invalidate_drops_stale_handles() {
        let fs = mem();
        fs.mkdir_all("db").unwrap();
        let mut w = VlogWriter::create(Arc::clone(&fs), "db", 1, 1 << 20).unwrap();
        let p = w.append(b"k", b"old").unwrap();
        w.sync().unwrap();
        let r = VlogReader::new(Arc::clone(&fs), "db");
        assert_eq!(&r.get(&p, b"k").unwrap()[..], b"old");
        // Rewrite the segment; without invalidation MemFs handles pin
        // the old inode.
        let mut w2 = VlogWriter::create(Arc::clone(&fs), "db", 1, 1 << 20).unwrap();
        let p2 = w2.append(b"k", b"new").unwrap();
        w2.sync().unwrap();
        r.invalidate(1);
        assert_eq!(&r.get(&p2, b"k").unwrap()[..], b"new");
    }
}
