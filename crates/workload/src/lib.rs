//! Workload generation for the Acheron experiments: key distributions
//! (uniform / Zipfian / sequential), operation mixes, delete models, and
//! a deterministic runner that drives a database and reports throughput.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dist;
pub mod ops;
pub mod runner;
pub mod sortedness;

pub use dist::{KeyDistribution, Zipfian};
pub use ops::{Op, OpMix, WorkloadGen, WorkloadSpec};
pub use runner::{run_ops, OpSink, RunReport};
pub use sortedness::{measure_sortedness, near_sorted_stream};

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
