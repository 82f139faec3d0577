//! `TimedVfs`: the storage boundary measured from outside the engine.
//!
//! Wraps a `MemFs`, classifies every file by name (wal | sst | vlog |
//! manifest), and records calls, bytes and nanoseconds per class. Each
//! timed call is also pushed to the [`SpanLog`] as a child of the op the
//! driver currently has open.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use acheron_types::Result;
use acheron_vfs::{IoStats, MemFs, RandomAccessFile, Vfs, WritableFile};
use bytes::Bytes;

use crate::trace::SpanLog;

/// File classes, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Wal = 0,
    Sst = 1,
    Vlog = 2,
    /// `MANIFEST-*`, `CURRENT`, `SHARDMAP` and anything unrecognised.
    Manifest = 3,
}

const CLASSES: usize = 4;

const WRITE_SPANS: [&str; CLASSES] = [
    "vfs.wal.write",
    "vfs.sst.write",
    "vfs.vlog.write",
    "vfs.manifest.write",
];
const SYNC_SPANS: [&str; CLASSES] = [
    "vfs.wal.sync",
    "vfs.sst.sync",
    "vfs.vlog.sync",
    "vfs.manifest.sync",
];
const READ_SPANS: [&str; CLASSES] = [
    "vfs.wal.read",
    "vfs.sst.read",
    "vfs.vlog.read",
    "vfs.manifest.read",
];

/// Classify a path by its file name (a `.tmp` suffix is ignored: it is
/// the scratch half of a write-then-rename of the same class).
pub fn classify(path: &str) -> Class {
    let name = path.rsplit('/').next().unwrap_or(path);
    let name = name.strip_suffix(".tmp").unwrap_or(name);
    if name.ends_with(".log") {
        Class::Wal
    } else if name.ends_with(".sst") {
        Class::Sst
    } else if name.ends_with(".vlg") {
        Class::Vlog
    } else {
        Class::Manifest
    }
}

/// Plain-data counters of one file class; `-` gives a window's delta.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassSnapshot {
    pub write_calls: u64,
    pub write_bytes: u64,
    pub write_ns: u64,
    pub syncs: u64,
    pub sync_ns: u64,
    pub read_calls: u64,
    pub read_bytes: u64,
    pub read_ns: u64,
}

/// Every class plus file churn, at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VfsSnapshot {
    classes: [ClassSnapshot; CLASSES],
    pub files_created: u64,
    pub files_deleted: u64,
}

impl VfsSnapshot {
    pub fn class(&self, class: Class) -> &ClassSnapshot {
        &self.classes[class as usize]
    }
}

impl std::ops::Sub for VfsSnapshot {
    type Output = VfsSnapshot;
    fn sub(self, rhs: VfsSnapshot) -> VfsSnapshot {
        let mut out = self;
        for (o, r) in out.classes.iter_mut().zip(rhs.classes) {
            o.write_calls -= r.write_calls;
            o.write_bytes -= r.write_bytes;
            o.write_ns -= r.write_ns;
            o.syncs -= r.syncs;
            o.sync_ns -= r.sync_ns;
            o.read_calls -= r.read_calls;
            o.read_bytes -= r.read_bytes;
            o.read_ns -= r.read_ns;
        }
        out.files_created -= rhs.files_created;
        out.files_deleted -= rhs.files_deleted;
        out
    }
}

#[derive(Debug, Default)]
struct ClassCounters {
    write_calls: AtomicU64,
    write_bytes: AtomicU64,
    write_ns: AtomicU64,
    syncs: AtomicU64,
    sync_ns: AtomicU64,
    read_calls: AtomicU64,
    read_bytes: AtomicU64,
    read_ns: AtomicU64,
}

/// State shared by the filesystem wrapper and every file it hands out.
/// The counters are statistics only (they publish no other data), so
/// `Relaxed` is enough.
#[derive(Debug, Default)]
struct Shared {
    classes: [ClassCounters; CLASSES],
    files_created: AtomicU64,
    files_deleted: AtomicU64,
    log: Arc<SpanLog>,
}

impl Shared {
    fn wrote(&self, class: Class, bytes: usize, start_ns: u64) {
        let end_ns = self.log.now_ns();
        let c = &self.classes[class as usize];
        c.write_calls.fetch_add(1, Ordering::Relaxed);
        c.write_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        c.write_ns.fetch_add(end_ns - start_ns, Ordering::Relaxed);
        self.log
            .push(WRITE_SPANS[class as usize], start_ns, end_ns, bytes as u64);
    }

    fn synced(&self, class: Class, start_ns: u64) {
        let end_ns = self.log.now_ns();
        let c = &self.classes[class as usize];
        c.syncs.fetch_add(1, Ordering::Relaxed);
        c.sync_ns.fetch_add(end_ns - start_ns, Ordering::Relaxed);
        self.log
            .push(SYNC_SPANS[class as usize], start_ns, end_ns, 0);
    }

    fn read(&self, class: Class, bytes: usize, start_ns: u64) {
        let end_ns = self.log.now_ns();
        let c = &self.classes[class as usize];
        c.read_calls.fetch_add(1, Ordering::Relaxed);
        c.read_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        c.read_ns.fetch_add(end_ns - start_ns, Ordering::Relaxed);
        self.log
            .push(READ_SPANS[class as usize], start_ns, end_ns, bytes as u64);
    }
}

/// A `MemFs` with per-class call, byte and time accounting.
pub struct TimedVfs {
    inner: Arc<MemFs>,
    shared: Arc<Shared>,
}

impl TimedVfs {
    pub fn new(inner: Arc<MemFs>, log: Arc<SpanLog>) -> TimedVfs {
        TimedVfs {
            inner,
            shared: Arc::new(Shared {
                log,
                ..Shared::default()
            }),
        }
    }

    pub fn snapshot(&self) -> VfsSnapshot {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut snap = VfsSnapshot {
            files_created: load(&self.shared.files_created),
            files_deleted: load(&self.shared.files_deleted),
            ..VfsSnapshot::default()
        };
        for (s, c) in snap.classes.iter_mut().zip(&self.shared.classes) {
            *s = ClassSnapshot {
                write_calls: load(&c.write_calls),
                write_bytes: load(&c.write_bytes),
                write_ns: load(&c.write_ns),
                syncs: load(&c.syncs),
                sync_ns: load(&c.sync_ns),
                read_calls: load(&c.read_calls),
                read_bytes: load(&c.read_bytes),
                read_ns: load(&c.read_ns),
            };
        }
        snap
    }
}

struct TimedWritable {
    inner: Box<dyn WritableFile>,
    class: Class,
    shared: Arc<Shared>,
}

impl WritableFile for TimedWritable {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        let start = self.shared.log.now_ns();
        let res = self.inner.append(data);
        self.shared.wrote(self.class, data.len(), start);
        res
    }

    fn sync(&mut self) -> Result<()> {
        let start = self.shared.log.now_ns();
        let res = self.inner.sync();
        self.shared.synced(self.class, start);
        res
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn finish(&mut self) -> Result<()> {
        self.inner.finish()
    }
}

struct TimedReadable {
    inner: Arc<dyn RandomAccessFile>,
    class: Class,
    shared: Arc<Shared>,
}

impl RandomAccessFile for TimedReadable {
    fn read_at(&self, offset: u64, len: usize) -> Result<Bytes> {
        let start = self.shared.log.now_ns();
        let res = self.inner.read_at(offset, len);
        self.shared.read(self.class, len, start);
        res
    }

    fn size(&self) -> u64 {
        self.inner.size()
    }
}

impl Vfs for TimedVfs {
    fn create(&self, path: &str) -> Result<Box<dyn WritableFile>> {
        let inner = self.inner.create(path)?;
        self.shared.files_created.fetch_add(1, Ordering::Relaxed);
        Ok(Box::new(TimedWritable {
            inner,
            class: classify(path),
            shared: Arc::clone(&self.shared),
        }))
    }

    fn open(&self, path: &str) -> Result<Arc<dyn RandomAccessFile>> {
        Ok(Arc::new(TimedReadable {
            inner: self.inner.open(path)?,
            class: classify(path),
            shared: Arc::clone(&self.shared),
        }))
    }

    fn read_all(&self, path: &str) -> Result<Bytes> {
        let start = self.shared.log.now_ns();
        let res = self.inner.read_all(path);
        let bytes = res.as_ref().map_or(0, |b| b.len());
        self.shared.read(classify(path), bytes, start);
        res
    }

    fn write_all(&self, path: &str, data: &[u8]) -> Result<()> {
        let start = self.shared.log.now_ns();
        let res = self.inner.write_all(path, data);
        self.shared.wrote(classify(path), data.len(), start);
        res
    }

    fn delete(&self, path: &str) -> Result<()> {
        self.inner.delete(path)?;
        self.shared.files_deleted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.inner.rename(from, to)
    }

    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }

    fn list(&self, dir: &str) -> Result<Vec<String>> {
        self.inner.list(dir)
    }

    fn mkdir_all(&self, path: &str) -> Result<()> {
        self.inner.mkdir_all(path)
    }

    fn sync_dir(&self, dir: &str) -> Result<()> {
        self.inner.sync_dir(dir)
    }

    fn file_size(&self, path: &str) -> Result<u64> {
        self.inner.file_size(path)
    }

    fn io_stats(&self) -> Arc<IoStats> {
        self.inner.io_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_by_file_name() {
        assert_eq!(classify("db/000007.log"), Class::Wal);
        assert_eq!(classify("db/shard-003/000009.sst"), Class::Sst);
        assert_eq!(classify("db/vlog-000004.vlg"), Class::Vlog);
        assert_eq!(classify("db/vlog-000004.vlg.tmp"), Class::Vlog);
        assert_eq!(classify("db/MANIFEST-000001"), Class::Manifest);
        assert_eq!(classify("db/CURRENT.tmp"), Class::Manifest);
        assert_eq!(classify("db/SHARDMAP"), Class::Manifest);
    }

    #[test]
    fn counts_calls_bytes_and_spans_per_class() {
        let log = Arc::new(SpanLog::default());
        let fs = TimedVfs::new(Arc::new(MemFs::new()), Arc::clone(&log));
        fs.mkdir_all("db").unwrap();
        let before = fs.snapshot();
        let mut wal = fs.create("db/000001.log").unwrap();
        wal.append(b"hello").unwrap();
        wal.append(b"!").unwrap();
        wal.sync().unwrap();
        wal.finish().unwrap();
        fs.write_all("db/000002.sst", b"table-bytes").unwrap();
        let sst = fs.open("db/000002.sst").unwrap();
        assert_eq!(&sst.read_at(0, 5).unwrap()[..], b"table");
        fs.delete("db/000001.log").unwrap();
        let delta = fs.snapshot() - before;
        let wal = delta.class(Class::Wal);
        assert_eq!((wal.write_calls, wal.write_bytes, wal.syncs), (2, 6, 1));
        let sst = delta.class(Class::Sst);
        assert_eq!((sst.write_calls, sst.write_bytes), (1, 11));
        assert_eq!((sst.read_calls, sst.read_bytes), (1, 5));
        assert_eq!((delta.files_created, delta.files_deleted), (1, 1));
        let mut spans = Vec::new();
        log.drain_into(&mut spans);
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "vfs.wal.write",
                "vfs.wal.write",
                "vfs.wal.sync",
                "vfs.sst.write",
                "vfs.sst.read"
            ]
        );
        // The inner filesystem's own byte accounting is untouched.
        assert_eq!(fs.io_stats().bytes_written(), 17);
    }
}
