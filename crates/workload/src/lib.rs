//! Seeded workloads for the Acheron engine: key distributions (uniform /
//! Zipfian / sequential), operation mixes, delete models, and a runner
//! that drives any [`OpSink`] — the embedded engine, a fleet, or a wire
//! client — and digests what its reads returned. The CLI's `workload`
//! command, the equivalence suites and `tests/paper_claims.rs` drive
//! the engine through it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dist;
pub mod ops;
pub mod runner;

pub use dist::{KeyDistribution, Zipfian};
pub use ops::{Op, OpMix, WorkloadGen, WorkloadSpec};
pub use runner::{run_ops, OpSink, RunReport};

/// Render a numeric key id as a fixed-width, order-preserving byte key.
pub fn key_bytes(id: u64) -> Vec<u8> {
    format!("user{id:012}").into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_bytes_preserve_order() {
        let a = key_bytes(5);
        let b = key_bytes(50);
        let c = key_bytes(500_000_000_000);
        assert!(a < b && b < c);
        assert_eq!(a.len(), b.len());
        assert_eq!(b.len(), c.len());
    }
}
