//! The host-speed gauge: a fixed kernel of the benchmark's own, timed
//! off the clock at every slice boundary and around every set-up.
//!
//! The reference host is a 2-vCPU guest of a shared machine whose
//! neighbours slow it by up to 1.6x for minutes at a time, mostly while
//! it runs (shared cache and core), a little by taking its CPU (steal).
//! Fourteen runs of one seed read `ops_per_s` with a 10% standard
//! deviation and an interquartile spread of 13-26%. The same runs,
//! each divided by how slow its own gauge samples were, read 4-7% and
//! 5-13%. So every end-to-end *timing* is reported at the reference
//! host's quiet speed: measured time / [`Gauge::slowdown`]. The
//! measured figures are printed beside them; counts are never touched.
//!
//! The kernel has to slow down the way the engine does, so it has a
//! compute part (CRC32C, as the WAL, pages and frames do) and a
//! memory-latency part (a dependent pointer chase, as skiplist and
//! cache lookups are). A compute kernel alone missed the slowdowns that
//! come through the shared cache. 65 samples of ~40 ms track a
//! ten-second phase; with 9 the correction was noisier than the noise.

use std::sync::OnceLock;
use std::time::Instant;

use acheron_types::checksum::crc32c;

use crate::gen::Rng;

/// Kernel time on the reference host when its neighbours are quiet (the
/// quietest of a hundred runs averaged 36.4 ms): the speed every
/// adjusted timing is expressed at.
pub const REFERENCE_NS: f64 = 36.0e6;

const CRC_BLOCK_BYTES: usize = 4 << 20;
const CRC_PASSES: usize = 4;
const CHASE_SLOTS: usize = 16 << 20;
const CHASE_HOPS: usize = 150_000;

/// Resident memory the kernel's buffers hold for the whole run;
/// `peak_rss_mb` is reported net of it.
pub const BUFFERS_MIB: f64 = ((CRC_BLOCK_BYTES + CHASE_SLOTS * 4) >> 20) as f64;

struct Buffers {
    block: Vec<u8>,
    /// One random cycle through every slot (Sattolo's shuffle), so each
    /// hop depends on the last and lands on a cold line.
    next: Vec<u32>,
}

fn buffers() -> &'static Buffers {
    static BUFFERS: OnceLock<Buffers> = OnceLock::new();
    BUFFERS.get_or_init(|| {
        let block = (0..CRC_BLOCK_BYTES as u32)
            .map(|i| (i.wrapping_mul(31).wrapping_add(7)) as u8)
            .collect();
        let mut next: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
        let mut rng = Rng::new(0x6a75_6765);
        for i in (1..CHASE_SLOTS).rev() {
            next.swap(i, rng.below(i as u64) as usize);
        }
        Buffers { block, next }
    })
}

/// Run the kernel once: CRC32C over 16 MiB, then 150,000 dependent hops
/// through a 64 MiB cycle. Nanoseconds.
pub fn kernel_ns() -> f64 {
    let buffers = buffers();
    let start = Instant::now();
    let mut acc = 0u32;
    for _ in 0..CRC_PASSES {
        acc ^= crc32c(std::hint::black_box(&buffers.block));
    }
    let mut slot = acc % CHASE_SLOTS as u32;
    for _ in 0..CHASE_HOPS {
        slot = buffers.next[slot as usize];
    }
    std::hint::black_box(slot);
    start.elapsed().as_nanos() as f64
}

/// Kernel samples taken around one stretch of measured work.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    samples_ns: Vec<f64>,
}

impl Gauge {
    pub fn sample(&mut self) {
        self.samples_ns.push(kernel_ns());
    }

    pub fn push(&mut self, ns: f64) {
        self.samples_ns.push(ns);
    }

    pub fn first(&self) -> Option<f64> {
        self.samples_ns.first().copied()
    }

    pub fn len(&self) -> usize {
        self.samples_ns.len()
    }

    /// How many times slower than the quiet reference host the kernel
    /// ran, on average, while this gauge was sampled; 1 when it never was.
    pub fn slowdown(&self) -> f64 {
        if self.samples_ns.is_empty() {
            return 1.0;
        }
        self.samples_ns.iter().sum::<f64>() / self.samples_ns.len() as f64 / REFERENCE_NS
    }

    /// Slowest ÷ fastest sample: how much the host's speed moved.
    pub fn drift(&self) -> f64 {
        let min = self
            .samples_ns
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let max = self.samples_ns.iter().copied().fold(0.0, f64::max);
        if min.is_finite() && min > 0.0 {
            max / min
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chase_is_one_cycle_through_every_slot() {
        let next = &buffers().next;
        let (mut slot, mut hops) = (0u32, 0usize);
        loop {
            slot = next[slot as usize];
            hops += 1;
            if slot == 0 {
                break;
            }
        }
        assert_eq!(hops, CHASE_SLOTS);
    }

    #[test]
    fn slowdown_is_the_mean_sample_over_the_reference() {
        let mut gauge = Gauge::default();
        assert_eq!(gauge.slowdown(), 1.0);
        gauge.push(REFERENCE_NS);
        gauge.push(2.0 * REFERENCE_NS);
        assert!((gauge.slowdown() - 1.5).abs() < 1e-12);
        assert!((gauge.drift() - 2.0).abs() < 1e-12);
        assert_eq!(BUFFERS_MIB, 68.0);
    }

    #[test]
    fn the_kernel_takes_measurable_time() {
        assert!(kernel_ns() > 1e6);
    }
}
