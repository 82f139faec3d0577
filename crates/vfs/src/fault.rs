//! Fault injection: a [`Vfs`] wrapper that breaks on purpose.
//!
//! [`FaultVfs`] wraps any inner filesystem and lets tests inject three
//! classes of failure, deterministically (every random choice comes
//! from a caller-provided seed):
//!
//! * **Errors** — any operation class (`open`, `append`, `sync`,
//!   `rename`, `delete`, …) can be made to fail, filtered by a
//!   path substring, a skip count, a repetition count, and a seeded
//!   probability.
//! * **Torn writes** — an `append` persists only a prefix of its bytes
//!   and then reports failure, modelling a write cut short by a crash
//!   or a full device.
//! * **Power cuts** — the wrapper tracks, per file, how many bytes have
//!   been durably synced. A simulated power cut discards everything
//!   after the durable prefix (or, in [`CutDurability::TornTail`] mode,
//!   keeps a seeded-random slice of the unsynced suffix, the way a
//!   physical disk persists some sectors of an in-flight write and not
//!   others). After the cut every operation fails until [`reboot`]
//!   restores service on the surviving bytes.
//!
//! The durability model, in terms a storage engine understands:
//!
//! * `WritableFile::append` lands in the page cache: readable
//!   immediately, durable only after the next successful
//!   `WritableFile::sync`. A sync that a power cut on another thread
//!   overtakes fails: the cut took the bytes it was making durable.
//! * `Vfs::write_all` and `Vfs::rename` are treated as atomic and
//!   durable (the engine uses them only in write-temp-then-rename
//!   sequences: the CURRENT pointer and WAL tear healing).
//! * `Vfs::delete` and `Vfs::sync_dir` are likewise durable at the
//!   instant they happen; `sync_dir` is therefore a model no-op, kept
//!   injectable so tests can fail it like a dying disk would.
//! * A file created and never synced does not survive a power cut at
//!   all (its directory entry was never persisted either).
//!
//! Syncs and renames are the engine's *durability points* — the
//! instants at which crash-recovery behaviour can change. The wrapper
//! numbers them, and [`FaultVfs::arm_power_cut_at`] crashes the world
//! at exactly the n-th one, which is how the crash-recovery harness in
//! `acheron-core` enumerates every interesting crash instant.
//!
//! Limitations (deliberate, matching how the engine uses the VFS): the
//! durable-length ledger is keyed by path, so renaming a file that has
//! an open writer with unsynced bytes would mis-track it. The engine
//! never does that — appended files (WALs, SSTs) are written in place
//! under their final names.
//!
//! [`reboot`]: FaultVfs::reboot

use std::collections::BTreeMap;
use std::sync::Arc;

use acheron_types::{Error, Result};
use bytes::Bytes;
use parking_lot::Mutex;

use crate::stats::IoStats;
use crate::{RandomAccessFile, Vfs, WritableFile};

/// Operation classes a [`FaultRule`] can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// `Vfs::create`.
    Create,
    /// `Vfs::open`.
    Open,
    /// `Vfs::read_all` and `RandomAccessFile::read_at`.
    Read,
    /// `Vfs::write_all`.
    WriteAll,
    /// `WritableFile::append`.
    Append,
    /// `WritableFile::sync`.
    Sync,
    /// `Vfs::rename`.
    Rename,
    /// `Vfs::delete`.
    Delete,
    /// `Vfs::sync_dir`.
    SyncDir,
}

/// What happens when a rule fires.
#[derive(Debug, Clone)]
pub enum FaultKind {
    /// The operation fails with an injected I/O error; no bytes move.
    Error,
    /// Only for [`FaultOp::Append`]: persist the first `keep_bytes`
    /// bytes of the payload, then fail the call.
    TornWrite {
        /// Bytes of the payload that land before the failure.
        keep_bytes: usize,
    },
    /// Simulate a power cut instead of performing the operation: all
    /// unsynced bytes are lost and every subsequent call fails until
    /// [`FaultVfs::reboot`].
    PowerCut,
}

/// One injection rule: *which* operations break, and *how*.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Operation class the rule applies to.
    pub op: FaultOp,
    /// Only paths containing this substring match (empty = all paths).
    pub path_contains: String,
    /// Skip this many matching operations before firing.
    pub after: u64,
    /// Fire for at most this many matching operations (then disarm).
    pub count: u64,
    /// Probability of firing per matched operation, in parts per
    /// million (1_000_000 = always). Drawn from the seeded generator,
    /// so runs are reproducible.
    pub probability_ppm: u32,
    /// Failure injected when the rule fires.
    pub kind: FaultKind,
}

impl FaultRule {
    /// A rule that always fires on every matching operation.
    pub fn new(op: FaultOp, kind: FaultKind) -> FaultRule {
        FaultRule {
            op,
            path_contains: String::new(),
            after: 0,
            count: u64::MAX,
            probability_ppm: 1_000_000,
            kind,
        }
    }

    /// Restrict the rule to paths containing `fragment`.
    pub fn on_path(mut self, fragment: &str) -> FaultRule {
        self.path_contains = fragment.to_string();
        self
    }

    /// Skip the first `n` matching operations.
    pub fn after(mut self, n: u64) -> FaultRule {
        self.after = n;
        self
    }

    /// Fire at most `n` times.
    pub fn times(mut self, n: u64) -> FaultRule {
        self.count = n;
        self
    }

    /// Fire with the given probability (parts per million).
    pub fn with_probability_ppm(mut self, ppm: u32) -> FaultRule {
        self.probability_ppm = ppm;
        self
    }
}

/// What a power cut does to each file's unsynced suffix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CutDurability {
    /// Drop every byte past the durable prefix (write-back cache lost
    /// wholesale).
    #[default]
    DropUnsynced,
    /// Keep a seeded-random prefix of the unsynced suffix — the
    /// torn-tail behaviour of a real disk that persisted some sectors
    /// of an in-flight write. Exercises checksum-framed tail recovery.
    TornTail,
}

struct ArmedRule {
    rule: FaultRule,
    seen: u64,
    fired: u64,
}

/// Per-file durability ledger entry.
struct DurableFile {
    /// Bytes guaranteed to survive a power cut.
    synced_len: u64,
    /// Whether the path existed durably before the current `create`
    /// truncated it. Never-synced files that did not pre-exist vanish
    /// entirely at a cut.
    existed_before: bool,
}

struct FaultState {
    rules: Vec<ArmedRule>,
    rng: u64,
    crashed: bool,
    files: BTreeMap<String, DurableFile>,
    points: u64,
    cut_at_point: Option<u64>,
    cut_mode: CutDurability,
}

impl FaultState {
    fn next_rand(&mut self) -> u64 {
        // xorshift64: tiny, seedable, dependency-free. Quality is ample
        // for fault scheduling.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }
}

/// A fault-injecting [`Vfs`] wrapper. See the module docs for the
/// failure model. Clones share state, like two handles to one disk.
#[derive(Clone)]
pub struct FaultVfs {
    inner: Arc<dyn Vfs>,
    state: Arc<Mutex<FaultState>>,
}

fn injected(op: &str, path: &str) -> Error {
    Error::io(
        format!("fault injection: {op} {path}"),
        std::io::Error::other("injected fault"),
    )
}

fn powered_off(op: &str, path: &str) -> Error {
    Error::io(
        format!("{op} {path}"),
        std::io::Error::other("simulated power loss (reboot the FaultVfs to continue)"),
    )
}

impl FaultVfs {
    /// Wrap `inner` with no faults armed and seed 0.
    pub fn new(inner: Arc<dyn Vfs>) -> FaultVfs {
        FaultVfs::with_seed(inner, 0)
    }

    /// Wrap `inner`; every probabilistic choice derives from `seed`.
    pub fn with_seed(inner: Arc<dyn Vfs>, seed: u64) -> FaultVfs {
        FaultVfs {
            inner,
            state: Arc::new(Mutex::new(FaultState {
                rules: Vec::new(),
                // xorshift must not start at 0.
                rng: seed | 1,
                crashed: false,
                files: BTreeMap::new(),
                points: 0,
                cut_at_point: None,
                cut_mode: CutDurability::default(),
            })),
        }
    }

    /// Arm an injection rule.
    pub fn inject(&self, rule: FaultRule) {
        self.state.lock().rules.push(ArmedRule {
            rule,
            seen: 0,
            fired: 0,
        });
    }

    /// Disarm every rule (armed power cuts stay armed).
    pub fn clear_faults(&self) {
        self.state.lock().rules.clear();
    }

    /// Choose what a power cut does to unsynced suffixes.
    pub fn set_cut_durability(&self, mode: CutDurability) {
        self.state.lock().cut_mode = mode;
    }

    /// Durability points (syncs + renames) observed so far.
    pub fn durability_points(&self) -> u64 {
        self.state.lock().points
    }

    /// Reset the durability-point counter to zero.
    pub fn reset_points(&self) {
        self.state.lock().points = 0;
    }

    /// Cut power at the `point`-th durability point from now (0 = the
    /// very next sync or rename), *instead of* performing that
    /// operation.
    pub fn arm_power_cut_at(&self, point: u64) {
        self.state.lock().cut_at_point = Some(point);
    }

    /// Cut power immediately.
    pub fn power_cut(&self) {
        let mut st = self.state.lock();
        Self::do_power_cut(&self.inner, &mut st);
    }

    /// Whether a power cut has happened and service is down.
    pub fn has_crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// Restore service on the surviving bytes: clears the crashed flag,
    /// the armed cut, and all rules. The durability ledger restarts
    /// empty (everything on the rebooted disk is durable).
    pub fn reboot(&self) {
        let mut st = self.state.lock();
        st.crashed = false;
        st.cut_at_point = None;
        st.rules.clear();
        st.files.clear();
    }

    fn do_power_cut(inner: &Arc<dyn Vfs>, st: &mut FaultState) {
        if st.crashed {
            return;
        }
        let paths: Vec<String> = st.files.keys().cloned().collect();
        for path in paths {
            let dur = &st.files[&path];
            let (synced_len, existed_before) = (dur.synced_len, dur.existed_before);
            let Ok(actual) = inner.file_size(&path) else {
                continue;
            };
            if actual <= synced_len {
                continue;
            }
            let mut keep = synced_len;
            if st.cut_mode == CutDurability::TornTail {
                let tail = actual - synced_len;
                keep += st.next_rand() % (tail + 1);
            }
            if keep == 0 && !existed_before {
                let _ = inner.delete(&path);
            } else {
                // Rewriting severs any live writer handle in MemFs —
                // exactly the post-crash reality where the old process'
                // file descriptors are gone.
                if let Ok(data) = inner.read_all(&path) {
                    let _ = inner.write_all(&path, &data[..keep as usize]);
                }
            }
        }
        st.files.clear();
        st.crashed = true;
        st.cut_at_point = None;
    }

    /// Gate one operation: power state, armed cut, then rules. Returns
    /// the rule kind that fired, if any (power cuts are executed here).
    fn gate(&self, op: FaultOp, opname: &str, path: &str) -> Result<Option<FaultKind>> {
        let mut st = self.state.lock();
        if st.crashed {
            return Err(powered_off(opname, path));
        }
        if matches!(op, FaultOp::Sync | FaultOp::Rename) {
            let point = st.points;
            st.points += 1;
            if st.cut_at_point == Some(point) {
                Self::do_power_cut(&self.inner, &mut st);
                return Err(powered_off(opname, path));
            }
        }
        let mut fired: Option<FaultKind> = None;
        for i in 0..st.rules.len() {
            let matches_rule = {
                let r = &st.rules[i].rule;
                r.op == op && (r.path_contains.is_empty() || path.contains(&r.path_contains))
            };
            if !matches_rule {
                continue;
            }
            st.rules[i].seen += 1;
            let (past_skip, live) = {
                let ar = &st.rules[i];
                (ar.seen > ar.rule.after, ar.fired < ar.rule.count)
            };
            if !past_skip || !live {
                continue;
            }
            let ppm = st.rules[i].rule.probability_ppm;
            if ppm < 1_000_000 && st.next_rand() % 1_000_000 >= u64::from(ppm) {
                continue;
            }
            st.rules[i].fired += 1;
            fired = Some(st.rules[i].rule.kind.clone());
            break;
        }
        match fired {
            Some(FaultKind::PowerCut) => {
                Self::do_power_cut(&self.inner, &mut st);
                Err(powered_off(opname, path))
            }
            other => Ok(other),
        }
    }

    /// Record a completed sync of `path` at `len` bytes. A power cut on
    /// another thread between the sync's gate and this record has
    /// already discarded the bytes the sync was making durable, so the
    /// sync did not complete before the power failed: it fails.
    fn mark_synced(&self, path: &str, len: u64) -> Result<()> {
        let mut st = self.state.lock();
        if st.crashed {
            return Err(powered_off("sync", path));
        }
        if let Some(f) = st.files.get_mut(path) {
            f.synced_len = f.synced_len.max(len);
        } else {
            st.files.insert(
                path.to_string(),
                DurableFile {
                    synced_len: len,
                    existed_before: true,
                },
            );
        }
        Ok(())
    }
}

struct FaultWritable {
    path: String,
    inner: Box<dyn WritableFile>,
    vfs: FaultVfs,
}

impl WritableFile for FaultWritable {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        match self.vfs.gate(FaultOp::Append, "append", &self.path)? {
            None => self.inner.append(data),
            Some(FaultKind::TornWrite { keep_bytes }) => {
                let keep = keep_bytes.min(data.len());
                if keep > 0 {
                    self.inner.append(&data[..keep])?;
                }
                Err(injected("torn append", &self.path))
            }
            Some(_) => Err(injected("append", &self.path)),
        }
    }

    fn sync(&mut self) -> Result<()> {
        if self.vfs.gate(FaultOp::Sync, "sync", &self.path)?.is_some() {
            return Err(injected("sync", &self.path));
        }
        self.inner.sync()?;
        self.vfs.mark_synced(&self.path, self.inner.len())
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn finish(&mut self) -> Result<()> {
        if self.vfs.state.lock().crashed {
            return Err(powered_off("finish", &self.path));
        }
        self.inner.finish()
    }
}

struct FaultReadable {
    path: String,
    inner: Arc<dyn RandomAccessFile>,
    vfs: FaultVfs,
}

impl RandomAccessFile for FaultReadable {
    fn read_at(&self, offset: u64, len: usize) -> Result<Bytes> {
        if self
            .vfs
            .gate(FaultOp::Read, "read_at", &self.path)?
            .is_some()
        {
            return Err(injected("read_at", &self.path));
        }
        self.inner.read_at(offset, len)
    }

    fn size(&self) -> u64 {
        self.inner.size()
    }
}

impl Vfs for FaultVfs {
    fn create(&self, path: &str) -> Result<Box<dyn WritableFile>> {
        if self.gate(FaultOp::Create, "create", path)?.is_some() {
            return Err(injected("create", path));
        }
        let existed_before = {
            let st = self.state.lock();
            // Durably existed: present on the inner fs and not a file
            // we created this epoch without ever syncing.
            self.inner.exists(path)
                && st
                    .files
                    .get(path)
                    .is_none_or(|f| f.synced_len > 0 || f.existed_before)
        };
        let file = self.inner.create(path)?;
        self.state.lock().files.insert(
            path.to_string(),
            DurableFile {
                synced_len: 0,
                existed_before,
            },
        );
        Ok(Box::new(FaultWritable {
            path: path.to_string(),
            inner: file,
            vfs: self.clone(),
        }))
    }

    fn open(&self, path: &str) -> Result<Arc<dyn RandomAccessFile>> {
        if self.gate(FaultOp::Open, "open", path)?.is_some() {
            return Err(injected("open", path));
        }
        let inner = self.inner.open(path)?;
        Ok(Arc::new(FaultReadable {
            path: path.to_string(),
            inner,
            vfs: self.clone(),
        }))
    }

    fn read_all(&self, path: &str) -> Result<Bytes> {
        if self.gate(FaultOp::Read, "read_all", path)?.is_some() {
            return Err(injected("read_all", path));
        }
        self.inner.read_all(path)
    }

    fn write_all(&self, path: &str, data: &[u8]) -> Result<()> {
        if self.gate(FaultOp::WriteAll, "write_all", path)?.is_some() {
            return Err(injected("write_all", path));
        }
        self.inner.write_all(path, data)?;
        // write_all is modelled as atomic + durable.
        let mut st = self.state.lock();
        st.files.insert(
            path.to_string(),
            DurableFile {
                synced_len: data.len() as u64,
                existed_before: true,
            },
        );
        Ok(())
    }

    fn delete(&self, path: &str) -> Result<()> {
        if self.gate(FaultOp::Delete, "delete", path)?.is_some() {
            return Err(injected("delete", path));
        }
        self.inner.delete(path)?;
        self.state.lock().files.remove(path);
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        if self.gate(FaultOp::Rename, "rename", from)?.is_some() {
            return Err(injected("rename", from));
        }
        self.inner.rename(from, to)?;
        // Atomic + durable; the ledger entry follows the file.
        let mut st = self.state.lock();
        let entry = st.files.remove(from).unwrap_or(DurableFile {
            synced_len: self.inner.file_size(to).unwrap_or(0),
            existed_before: true,
        });
        st.files.insert(to.to_string(), entry);
        Ok(())
    }

    fn exists(&self, path: &str) -> bool {
        !self.state.lock().crashed && self.inner.exists(path)
    }

    fn list(&self, dir: &str) -> Result<Vec<String>> {
        if self.state.lock().crashed {
            return Err(powered_off("list", dir));
        }
        self.inner.list(dir)
    }

    fn mkdir_all(&self, path: &str) -> Result<()> {
        if self.state.lock().crashed {
            return Err(powered_off("mkdir_all", path));
        }
        self.inner.mkdir_all(path)
    }

    fn sync_dir(&self, dir: &str) -> Result<()> {
        // Not a durability point: the model already makes deletes and
        // renames durable at the instant they happen, so a cut here
        // exposes no state a cut at the neighbouring operations cannot.
        // Error injection still applies — a dying disk can fail the
        // directory fsync like any other call.
        if self.gate(FaultOp::SyncDir, "sync_dir", dir)?.is_some() {
            return Err(injected("sync_dir", dir));
        }
        self.inner.sync_dir(dir)
    }

    fn file_size(&self, path: &str) -> Result<u64> {
        if self.state.lock().crashed {
            return Err(powered_off("file_size", path));
        }
        self.inner.file_size(path)
    }

    fn io_stats(&self) -> Arc<IoStats> {
        self.inner.io_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemFs;

    fn fault_fs() -> (Arc<MemFs>, FaultVfs) {
        let mem = Arc::new(MemFs::new());
        let fv = FaultVfs::with_seed(mem.clone() as Arc<dyn Vfs>, 42);
        (mem, fv)
    }

    #[test]
    fn a_sync_overtaken_by_a_power_cut_fails() {
        // Another thread's cut can land between a sync's gate and its
        // record. The cut has then dropped the bytes being synced, so
        // the sync must not report them durable.
        let (mem, fs) = fault_fs();
        let mut f = fs.create("wal").unwrap();
        f.append(b"acked?").unwrap();
        fs.power_cut();
        assert!(fs.mark_synced("wal", 6).is_err());
        fs.reboot();
        assert!(!mem.exists("wal"), "the cut took the never-synced file");
    }

    #[test]
    fn error_rule_fires_with_skip_and_count() {
        let (_mem, fs) = fault_fs();
        fs.inject(
            FaultRule::new(FaultOp::WriteAll, FaultKind::Error)
                .after(1)
                .times(2),
        );
        fs.write_all("a", b"x").unwrap(); // skipped
        assert!(fs.write_all("b", b"x").is_err()); // fires 1
        assert!(fs.write_all("c", b"x").is_err()); // fires 2
        fs.write_all("d", b"x").unwrap(); // exhausted
        assert!(!fs.exists("b"), "failed write must not land");
    }

    #[test]
    fn path_filter_restricts_rule() {
        let (_mem, fs) = fault_fs();
        fs.inject(FaultRule::new(FaultOp::Delete, FaultKind::Error).on_path(".log"));
        fs.write_all("db/000001.log", b"x").unwrap();
        fs.write_all("db/000002.sst", b"x").unwrap();
        assert!(fs.delete("db/000001.log").is_err());
        fs.delete("db/000002.sst").unwrap();
    }

    #[test]
    fn seeded_probability_is_deterministic() {
        let run = |seed| {
            let mem = Arc::new(MemFs::new());
            let fs = FaultVfs::with_seed(mem as Arc<dyn Vfs>, seed);
            fs.inject(
                FaultRule::new(FaultOp::WriteAll, FaultKind::Error).with_probability_ppm(500_000),
            );
            (0..32)
                .map(|i| fs.write_all(&format!("f{i}"), b"x").is_err())
                .collect::<Vec<_>>()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed, same faults");
        assert!(
            a.iter().any(|&e| e) && !a.iter().all(|&e| e),
            "p=0.5 should mix"
        );
        assert_ne!(a, run(8), "different seed should (here) differ");
    }

    #[test]
    fn torn_write_keeps_prefix() {
        let (_mem, fs) = fault_fs();
        let mut f = fs.create("t").unwrap();
        f.append(b"durable|").unwrap();
        fs.inject(FaultRule::new(
            FaultOp::Append,
            FaultKind::TornWrite { keep_bytes: 3 },
        ));
        assert!(f.append(b"abcdef").is_err());
        assert_eq!(&fs.read_all("t").unwrap()[..], b"durable|abc");
    }

    #[test]
    fn power_cut_drops_unsynced_suffix() {
        let (_mem, fs) = fault_fs();
        let mut f = fs.create("t").unwrap();
        f.append(b"synced").unwrap();
        f.sync().unwrap();
        f.append(b"-lost").unwrap();
        assert_eq!(
            &fs.read_all("t").unwrap()[..],
            b"synced-lost",
            "page cache is readable"
        );
        fs.power_cut();
        assert!(fs.has_crashed());
        assert!(fs.read_all("t").is_err(), "no service while crashed");
        assert!(f.append(b"x").is_err(), "old handles are dead");
        fs.reboot();
        assert_eq!(&fs.read_all("t").unwrap()[..], b"synced");
    }

    #[test]
    fn never_synced_file_vanishes_at_cut() {
        let (_mem, fs) = fault_fs();
        let mut f = fs.create("fresh").unwrap();
        f.append(b"bytes").unwrap();
        fs.power_cut();
        fs.reboot();
        assert!(!fs.exists("fresh"));
    }

    #[test]
    fn write_all_and_rename_are_durable() {
        let (_mem, fs) = fault_fs();
        fs.write_all("cur.tmp", b"MANIFEST-000001").unwrap();
        fs.rename("cur.tmp", "cur").unwrap();
        fs.power_cut();
        fs.reboot();
        assert_eq!(&fs.read_all("cur").unwrap()[..], b"MANIFEST-000001");
    }

    #[test]
    fn create_truncation_of_durable_file_survives_as_empty() {
        let (_mem, fs) = fault_fs();
        fs.write_all("f", b"old").unwrap();
        let mut w = fs.create("f").unwrap();
        w.append(b"new-unsynced").unwrap();
        fs.power_cut();
        fs.reboot();
        // The truncation is durable (the engine never recreates live
        // files, so either convention works; this one is documented).
        assert!(fs.exists("f"));
        assert_eq!(fs.file_size("f").unwrap(), 0);
    }

    #[test]
    fn armed_cut_fires_at_exact_durability_point() {
        let (_mem, fs) = fault_fs();
        let mut f = fs.create("t").unwrap();
        // Points: sync(0) sync(1) rename(2).
        fs.arm_power_cut_at(1);
        f.append(b"one").unwrap();
        f.sync().unwrap(); // point 0
        f.append(b"two").unwrap();
        assert!(f.sync().is_err(), "point 1 is the cut");
        assert!(fs.has_crashed());
        fs.reboot();
        assert_eq!(&fs.read_all("t").unwrap()[..], b"one");
        assert_eq!(fs.durability_points(), 2, "the cut point itself is counted");
    }

    #[test]
    fn torn_tail_cut_keeps_random_slice_of_unsynced_suffix() {
        for seed in 1..32u64 {
            let mem = Arc::new(MemFs::new());
            let fs = FaultVfs::with_seed(mem as Arc<dyn Vfs>, seed);
            fs.set_cut_durability(CutDurability::TornTail);
            let mut f = fs.create("t").unwrap();
            f.append(b"keep").unwrap();
            f.sync().unwrap();
            f.append(b"maybe").unwrap();
            fs.power_cut();
            fs.reboot();
            let data = fs.read_all("t").unwrap();
            assert!(data.len() >= 4 && data.len() <= 9, "len {}", data.len());
            assert!(b"keepmaybe".starts_with(&data[..]), "must be a prefix");
        }
    }

    #[test]
    fn sync_dir_errors_are_injectable() {
        let (_mem, fs) = fault_fs();
        fs.mkdir_all("db").unwrap();
        fs.sync_dir("db").unwrap();
        fs.inject(FaultRule::new(FaultOp::SyncDir, FaultKind::Error).times(1));
        assert!(fs.sync_dir("db").is_err());
        fs.sync_dir("db").unwrap();
        // Directory syncs are not durability points in this model.
        assert_eq!(fs.durability_points(), 0);
    }

    #[test]
    fn reboot_restores_full_service() {
        let (_mem, fs) = fault_fs();
        fs.inject(FaultRule::new(FaultOp::Create, FaultKind::Error).after(1));
        fs.power_cut();
        fs.reboot();
        assert!(!fs.has_crashed());
        // Rules were cleared by reboot; creates work again.
        fs.create("a").unwrap();
        fs.create("b").unwrap();
        let mut f = fs.create("c").unwrap();
        f.append(b"x").unwrap();
        f.sync().unwrap();
        assert!(fs.durability_points() > 0);
    }
}
