//! The traced run's span model, owned entirely by the benchmark: spans
//! are recorded at the boundaries the benchmark controls (the driver's
//! `op`, `TimedVfs` storage calls, the wire client's stages, probes),
//! kept in memory, and written out when the workload ends.
//!
//! Under `background_threads = 0` and one closed-loop client, every
//! storage call belongs to the op the driver currently has open, so it
//! is recorded as that op's child. A span's *self time* is its duration
//! minus the part of it its children cover; `op` self time is therefore
//! engine CPU net of storage calls.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Keep full spans for one op in this many.
const SAMPLE_EVERY: u64 = 1024;
/// Keep full spans for this many slowest ops of each kind.
const SLOWEST_KEPT: usize = 1000;
/// Child spans written out per kept op: a put that runs a compaction
/// inline has tens of thousands, and the first few hundred show its
/// shape. The aggregates still count every one.
const CHILDREN_KEPT: usize = 512;

/// A child span of the currently open op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Child {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Bytes moved by a storage or socket call; 0 where meaningless.
    pub bytes: u64,
}

/// Shared clock and child-span buffer. `TimedVfs` (possibly on the
/// server's connection thread) and the driver both push here; the
/// driver drains it when it closes an op.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    children: Mutex<Vec<Child>>,
}

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            children: Mutex::new(Vec::new()),
        }
    }
}

impl SpanLog {
    /// Nanoseconds since the log was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn push(&self, name: &'static str, start_ns: u64, end_ns: u64, bytes: u64) {
        self.children
            .lock()
            .expect("span buffer lock is never held across a panic")
            .push(Child {
                name,
                start_ns,
                end_ns,
                bytes,
            });
    }

    /// Move the buffered children into `out` (cleared first).
    pub fn drain_into(&self, out: &mut Vec<Child>) {
        out.clear();
        out.append(
            &mut self
                .children
                .lock()
                .expect("span buffer lock is never held across a panic"),
        );
    }
}

/// Per-name totals across the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug, PartialEq, Eq)]
struct KeptOp {
    dur_ns: u64,
    op_id: u64,
    name: &'static str,
    start_ns: u64,
    children: Vec<Child>,
    /// Children beyond [`CHILDREN_KEPT`], not written out.
    children_dropped: usize,
}

impl Ord for KeptOp {
    fn cmp(&self, other: &KeptOp) -> std::cmp::Ordering {
        (self.dur_ns, self.op_id).cmp(&(other.dur_ns, other.op_id))
    }
}

impl PartialOrd for KeptOp {
    fn partial_cmp(&self, other: &KeptOp) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Collects closed ops: aggregates every span by name, and keeps full
/// spans for a 1/1024 sample plus the slowest ops of each kind.
#[derive(Debug, Default)]
pub struct Collector {
    aggregates: BTreeMap<&'static str, Aggregate>,
    sampled: Vec<KeptOp>,
    slowest: BTreeMap<&'static str, BinaryHeap<Reverse<KeptOp>>>,
}

/// Length of the union of `children` clipped to `[start, end]`.
pub fn cover_ns(start: u64, end: u64, children: &[Child]) -> u64 {
    let mut spans: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(start), c.end_ns.min(end)))
        .filter(|(s, e)| e > s)
        .collect();
    spans.sort_unstable();
    let (mut covered, mut reach) = (0, start);
    for (s, e) in spans {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    covered
}

impl Collector {
    /// Close op `op_id` named `name` with its drained `children`.
    pub fn close_op(
        &mut self,
        name: &'static str,
        op_id: u64,
        start_ns: u64,
        end_ns: u64,
        children: &[Child],
    ) {
        let dur_ns = end_ns.saturating_sub(start_ns);
        let agg = self.aggregates.entry(name).or_default();
        agg.count += 1;
        agg.total_ns += dur_ns;
        agg.self_ns += dur_ns - cover_ns(start_ns, end_ns, children);
        for c in children {
            let agg = self.aggregates.entry(c.name).or_default();
            let d = c.end_ns.saturating_sub(c.start_ns);
            agg.count += 1;
            agg.total_ns += d;
            agg.self_ns += d;
        }
        let keep = || KeptOp {
            dur_ns,
            op_id,
            name,
            start_ns,
            children: children[..children.len().min(CHILDREN_KEPT)].to_vec(),
            children_dropped: children.len().saturating_sub(CHILDREN_KEPT),
        };
        if op_id.is_multiple_of(SAMPLE_EVERY) {
            self.sampled.push(keep());
            return;
        }
        let heap = self.slowest.entry(name).or_default();
        if heap.len() < SLOWEST_KEPT {
            heap.push(Reverse(keep()));
        } else if heap.peek().is_some_and(|Reverse(min)| dur_ns > min.dur_ns) {
            heap.pop();
            heap.push(Reverse(keep()));
        }
    }

    /// Record a standalone span (probes).
    pub fn standalone(&mut self, name: &'static str, op_id: u64, start_ns: u64, end_ns: u64) {
        let agg = self.aggregates.entry(name).or_default();
        let dur_ns = end_ns.saturating_sub(start_ns);
        agg.count += 1;
        agg.total_ns += dur_ns;
        agg.self_ns += dur_ns;
        self.sampled.push(KeptOp {
            dur_ns,
            op_id,
            name,
            start_ns,
            children: Vec::new(),
            children_dropped: 0,
        });
    }

    #[cfg(test)]
    pub fn aggregate(&self, name: &str) -> Aggregate {
        self.aggregates.get(name).copied().unwrap_or_default()
    }

    /// Render the kept spans and the per-name aggregates as JSON lines:
    /// one line per span (`span` 0 is the op, its children count from 1
    /// with `parent` 0; spans of one op share `op`; `children_dropped`
    /// says how many children past the first 512 were left out), then
    /// one `summary` line per span name.
    pub fn render_jsonl(&self) -> String {
        let mut kept: Vec<&KeptOp> = self
            .sampled
            .iter()
            .chain(self.slowest.values().flatten().map(|Reverse(op)| op))
            .collect();
        kept.sort_by_key(|op| (op.start_ns, op.op_id));
        let mut out = String::new();
        for op in kept {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"span\":0,\"parent\":null,\"start_ns\":{},\"end_ns\":{},\"children_dropped\":{}}}",
                op.name,
                op.op_id,
                op.start_ns,
                op.start_ns + op.dur_ns,
                op.children_dropped
            );
            for (i, c) in op.children.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "{{\"name\":\"{}\",\"op\":{},\"span\":{},\"parent\":0,\"start_ns\":{},\"end_ns\":{},\"bytes\":{}}}",
                    c.name,
                    op.op_id,
                    i + 1,
                    c.start_ns,
                    c.end_ns,
                    c.bytes
                );
            }
        }
        for (name, agg) in &self.aggregates {
            let _ = writeln!(
                out,
                "{{\"summary\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                name, agg.count, agg.total_ns, agg.self_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn child(name: &'static str, start_ns: u64, end_ns: u64) -> Child {
        Child {
            name,
            start_ns,
            end_ns,
            bytes: 0,
        }
    }

    #[test]
    fn cover_is_the_clipped_union() {
        let kids = [
            child("a", 10, 20),
            child("b", 15, 30),
            child("c", 40, 50),
            child("d", 90, 200),
        ];
        // [10,30) + [40,50) + [90,100) = 40.
        assert_eq!(cover_ns(0, 100, &kids), 40);
        assert_eq!(cover_ns(0, 100, &[]), 0);
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut c = Collector::default();
        c.close_op("op.get", 1, 0, 100, &[child("vfs.sst.read", 10, 40)]);
        c.close_op("op.get", 2, 100, 150, &[]);
        assert_eq!(
            c.aggregate("op.get"),
            Aggregate {
                count: 2,
                total_ns: 150,
                self_ns: 120
            }
        );
        assert_eq!(c.aggregate("vfs.sst.read").total_ns, 30);
        assert_eq!(c.aggregate("missing"), Aggregate::default());
    }

    #[test]
    fn keeps_the_sample_and_the_slowest() {
        let mut c = Collector::default();
        for id in 1..=3000u64 {
            c.close_op("op.put", id, id * 10, id * 10 + id, &[]);
        }
        c.standalone("probe.x", 0, 0, 5);
        let text = c.render_jsonl();
        let spans = text
            .lines()
            .filter(|l| l.contains("\"op.put\"") && l.contains("\"span\":0"));
        // Ops 1024 and 2048 by sampling, plus the 1000 slowest.
        assert_eq!(spans.count(), 1002);
        assert!(text.contains("{\"name\":\"op.put\",\"op\":3000,\"span\":0,\"parent\":null,\"start_ns\":30000,\"end_ns\":33000,\"children_dropped\":0}"));
        assert!(!text.contains("\"op\":1999,"));
        assert!(text.contains("{\"summary\":\"op.put\",\"count\":3000,"));
        assert!(text.contains("\"name\":\"probe.x\""));
    }

    #[test]
    fn a_kept_op_writes_out_a_bounded_number_of_children() {
        let mut c = Collector::default();
        let kids: Vec<Child> = (0..600).map(|i| child("vfs.sst.write", i, i + 1)).collect();
        c.close_op("op.put", 1, 0, 1_000, &kids);
        let text = c.render_jsonl();
        assert_eq!(text.matches("\"parent\":0,").count(), CHILDREN_KEPT);
        assert!(text.contains("\"children_dropped\":88}"));
        // The aggregate still counts every child.
        assert_eq!(c.aggregate("vfs.sst.write").count, 600);
    }

    #[test]
    fn span_log_drains_what_was_pushed() {
        let log = SpanLog::default();
        log.push("vfs.wal.write", 1, 2, 0);
        let mut out = vec![child("stale", 0, 0)];
        log.drain_into(&mut out);
        assert_eq!(out, vec![child("vfs.wal.write", 1, 2)]);
        log.drain_into(&mut out);
        assert!(out.is_empty());
        assert!(log.now_ns() < 60_000_000_000);
    }
}
