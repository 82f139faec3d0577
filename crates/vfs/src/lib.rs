//! Virtual filesystem for the Acheron engine.
//!
//! Every byte the engine reads or writes goes through a [`Vfs`]
//! implementation, which makes the I/O layer swappable and — crucially
//! for the reproduction — *measurable*: the [`stats::IoStats`] attached
//! to a filesystem count device bytes, so write amplification is computed
//! from ground truth rather than estimated.
//!
//! Two implementations are provided:
//!
//! * [`MemFs`] — an in-memory filesystem. Deterministic and fast; used by
//!   tests and by the benchmark harness (the paper's claims are ratios,
//!   which byte accounting reproduces exactly without device noise).
//! * [`StdFs`] — real files through `std::fs`, with optional `fsync`.
//!
//! Both enforce the same semantics (no read past EOF, rename replaces,
//! create truncates), which the conformance test-suite in this crate runs
//! against each implementation.

#![forbid(unsafe_code)]

pub mod fault;
pub mod mem;
pub mod stats;
pub mod std_fs;
pub mod temp;

use std::sync::Arc;

use acheron_types::Result;
use bytes::Bytes;

pub use fault::{CutDurability, FaultKind, FaultOp, FaultRule, FaultVfs};
pub use mem::MemFs;
pub use stats::{IoStats, IoStatsSnapshot};
pub use std_fs::StdFs;
pub use temp::TempDir;

/// A sequentially written file (WAL segment, SSTable under construction).
///
/// `Sync` is required only as a marker so containers holding writers
/// behind locks stay `Sync`; all mutation goes through `&mut self`.
pub trait WritableFile: Send + Sync {
    /// Append bytes at the end of the file.
    fn append(&mut self, data: &[u8]) -> Result<()>;
    /// Durably flush all appended data to the device.
    fn sync(&mut self) -> Result<()>;
    /// Bytes appended so far.
    fn len(&self) -> u64;
    /// True if nothing has been appended.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Finish the file: flush buffers (without necessarily fsyncing).
    fn finish(&mut self) -> Result<()>;
}

/// A random-access file (an immutable SSTable).
pub trait RandomAccessFile: Send + Sync {
    /// Read exactly `len` bytes starting at `offset`.
    ///
    /// Returns a corruption error if the range extends past EOF — a short
    /// read of an SSTable is always a format violation.
    fn read_at(&self, offset: u64, len: usize) -> Result<Bytes>;
    /// Total file size in bytes.
    fn size(&self) -> u64;
}

/// Filesystem operations the engine needs. Paths are UTF-8 strings with
/// `/` separators; implementations may map them to host paths.
pub trait Vfs: Send + Sync {
    /// Create (truncating if present) a writable file.
    fn create(&self, path: &str) -> Result<Box<dyn WritableFile>>;
    /// Open an existing file for random-access reads.
    fn open(&self, path: &str) -> Result<Arc<dyn RandomAccessFile>>;
    /// Read an entire file into memory (manifest, CURRENT pointer).
    fn read_all(&self, path: &str) -> Result<Bytes>;
    /// Write an entire file, replacing any previous contents (used for
    /// the CURRENT pointer: write temp + rename).
    fn write_all(&self, path: &str, data: &[u8]) -> Result<()>;
    /// Delete a file. Deleting a missing file is an error.
    fn delete(&self, path: &str) -> Result<()>;
    /// Atomically rename `from` to `to`, replacing `to` if present.
    fn rename(&self, from: &str, to: &str) -> Result<()>;
    /// True if `path` names an existing file.
    fn exists(&self, path: &str) -> bool;
    /// List file names (not full paths) directly under `dir`.
    fn list(&self, dir: &str) -> Result<Vec<String>>;
    /// Create a directory and its ancestors. Idempotent.
    fn mkdir_all(&self, path: &str) -> Result<()>;
    /// Durably persist the directory entries under `dir`: creates,
    /// deletes, and renames performed inside it are guaranteed to
    /// survive a power cut only after this returns. In-memory
    /// filesystems treat metadata as always durable and may no-op.
    fn sync_dir(&self, dir: &str) -> Result<()>;
    /// Size of the file at `path`.
    fn file_size(&self, path: &str) -> Result<u64>;
    /// The I/O counters for this filesystem.
    fn io_stats(&self) -> Arc<IoStats>;
}

/// Join two path segments with a single `/`.
pub fn join(dir: &str, name: &str) -> String {
    if dir.is_empty() {
        name.to_string()
    } else if dir.ends_with('/') {
        format!("{dir}{name}")
    } else {
        format!("{dir}/{name}")
    }
}

#[cfg(test)]
mod conformance {
    //! The same behavioural suite run against both filesystems.
    use super::*;

    fn suite(fs: &dyn Vfs, root: &str) {
        fs.mkdir_all(root).unwrap();
        let p = join(root, "a.dat");

        // create + append + finish, then read back.
        {
            let mut f = fs.create(&p).unwrap();
            assert!(f.is_empty());
            f.append(b"hello ").unwrap();
            f.append(b"world").unwrap();
            assert_eq!(f.len(), 11);
            f.sync().unwrap();
            f.finish().unwrap();
        }
        assert!(fs.exists(&p));
        assert_eq!(fs.file_size(&p).unwrap(), 11);
        assert_eq!(&fs.read_all(&p).unwrap()[..], b"hello world");

        // Random access.
        let r = fs.open(&p).unwrap();
        assert_eq!(r.size(), 11);
        assert_eq!(&r.read_at(6, 5).unwrap()[..], b"world");
        assert_eq!(&r.read_at(0, 0).unwrap()[..], b"");
        assert!(r.read_at(7, 5).is_err(), "read past EOF must fail");
        assert!(r.read_at(100, 1).is_err());

        // create truncates.
        {
            let mut f = fs.create(&p).unwrap();
            f.append(b"x").unwrap();
            f.finish().unwrap();
        }
        assert_eq!(fs.file_size(&p).unwrap(), 1);

        // rename replaces.
        let q = join(root, "b.dat");
        fs.write_all(&q, b"victim").unwrap();
        fs.rename(&p, &q).unwrap();
        assert!(!fs.exists(&p));
        assert_eq!(&fs.read_all(&q).unwrap()[..], b"x");

        // list sees exactly the live files.
        fs.write_all(&join(root, "c.dat"), b"z").unwrap();
        let mut names = fs.list(root).unwrap();
        names.sort();
        assert_eq!(names, vec!["b.dat".to_string(), "c.dat".to_string()]);

        // sync_dir succeeds on an existing directory.
        fs.sync_dir(root).unwrap();

        // delete.
        fs.delete(&q).unwrap();
        assert!(!fs.exists(&q));
        assert!(fs.delete(&q).is_err(), "double delete must fail");
        assert!(fs.open(&q).is_err(), "open of missing file must fail");
        assert!(fs.read_all(&q).is_err());
        assert!(fs.file_size(&q).is_err());

        // mkdir_all idempotent.
        fs.mkdir_all(root).unwrap();
    }

    #[test]
    fn memfs_conforms() {
        let fs = MemFs::new();
        suite(&fs, "db");
    }

    #[test]
    fn faultvfs_with_no_faults_conforms() {
        // The wrapper must be behaviourally transparent until a fault
        // is armed.
        let fs = FaultVfs::new(Arc::new(MemFs::new()));
        suite(&fs, "db");
    }

    #[test]
    fn stdfs_conforms() {
        let tmp = TempDir::new("vfs-conformance");
        let fs = StdFs::new(false);
        suite(&fs, tmp.path_str());
    }

    #[test]
    fn join_handles_separators() {
        assert_eq!(join("a", "b"), "a/b");
        assert_eq!(join("a/", "b"), "a/b");
        assert_eq!(join("", "b"), "b");
    }
}
