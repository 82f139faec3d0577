//! Metric names and units — the benchmark's contract with
//! `BENCHMARK.json` (a unit test checks the two agree) — and the result
//! line every run prints last.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// An end-to-end metric: reported by every workload, never zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the reference median by which a set's median may worsen
    /// before it counts as a regression.
    pub bound: f64,
    /// A count that repeats to the last digit for a seed.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
        exact,
    }
}

/// Bounds come from ten-seed spreads on the reference host: the host's
/// speed drifts by a fifth over minutes, so every timing carries the
/// cap; the counts repeat exactly for a seed and move by a few percent
/// between seeds.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", false, 0.25, false),
    e2e("ops_per_s", "ops/s", true, 0.25, false),
    e2e("cpu_us_per_op", "us", false, 0.25, false),
    e2e("get_p50_us", "us", false, 0.25, false),
    e2e("write_p50_us", "us", false, 0.25, false),
    e2e("scan_p50_us", "us", false, 0.25, false),
    e2e("write_amp", "ratio", false, 0.06, true),
    e2e("space_amp", "ratio", false, 0.15, true),
    e2e("dth_worst_age_frac", "ratio", false, 0.1, true),
    e2e("peak_rss_mb", "MiB", false, 0.15, false),
];

/// `(name, unit)` of every end-to-end metric, in order.
pub fn end_to_end_table() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
}

/// Per-layer metrics of the traced run. A metric a workload cannot
/// observe (client stages on an embedded run, say) reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("vfs.wal.write_calls_per_op", "count"),
    ("vfs.wal.bytes_per_op", "B"),
    ("vfs.wal.syncs_per_op", "count"),
    ("vfs.wal.busy_ns_per_op", "ns"),
    ("vfs.sst.write_bytes_per_user_byte", "ratio"),
    ("vfs.vlog.write_bytes_per_user_byte", "ratio"),
    ("vfs.manifest.write_calls", "count"),
    ("vfs.files_created", "count"),
    ("vfs.files_deleted", "count"),
    ("vfs.sst.read_calls_per_get", "count"),
    ("vfs.sst.read_bytes_per_get", "B"),
    ("vfs.sst.read_busy_ns_per_get", "ns"),
    ("vfs.vlog.read_calls_per_get", "count"),
    ("read_ios_per_get", "count"),
    ("core.commit.groups_per_op", "count"),
    ("core.commit.wal_syncs_per_op", "count"),
    ("core.commit.wal_us_per_write", "us"),
    ("core.commit.inline_maint_us_per_write", "us"),
    ("core.commit.stalls", "count"),
    ("core.commit.slowdowns", "count"),
    ("core.commit.stall_us_total", "us"),
    ("core.read.imm_probes_per_get", "count"),
    ("core.read.table_probes_per_get", "count"),
    ("core.read.bloom_prescreen_skips_per_get", "count"),
    ("core.read.seqno_skips_per_get", "count"),
    ("core.read.cache_hit_pages_per_get", "count"),
    ("core.read.cache_miss_pages_per_get", "count"),
    ("core.read.vlog_derefs_per_get", "count"),
    ("core.read.view_swaps", "count"),
    ("sstable.bloom_false_positive_rate", "ratio"),
    ("cache.hit_rate", "ratio"),
    ("cache.evictions_per_get", "count"),
    ("cache.used_mb", "MiB"),
    ("core.maint.flushes", "count"),
    ("core.maint.flush_us_p50", "us"),
    ("core.maint.compactions", "count"),
    ("core.maint.ttl_compaction_share", "ratio"),
    ("core.maint.compaction_us_p50", "us"),
    ("core.maint.compaction_us_max", "us"),
    ("core.maint.compaction_bytes_in_per_user_byte", "ratio"),
    ("core.maint.compaction_bytes_out_per_user_byte", "ratio"),
    ("core.maint.busy_share", "ratio"),
    ("core.maint.entries_shadowed", "count"),
    ("core.maint.tombstones_purged", "count"),
    ("core.maint.pages_dropped", "count"),
    ("core.fade.persistence_p50_ticks", "ticks"),
    ("core.fade.persistence_max_ticks", "ticks"),
    ("core.fade.live_tombstones_end", "count"),
    ("core.fade.live_range_tombstones_end", "count"),
    ("core.fade.audit_violating_cohorts", "count"),
    ("core.vlog.gc_rewritten_bytes_per_user_byte", "ratio"),
    ("core.vlog.gc_reclaimed_mb", "MiB"),
    ("core.vlog.segments_deleted", "count"),
    ("core.vlog.oldest_dead_age_frac", "ratio"),
    ("core.recovery.reopen_ms", "ms"),
    ("sharded.ops_per_shard_cv", "ratio"),
    ("sharded.router_tax_share", "ratio"),
    ("client.encode_ns_per_op", "ns"),
    ("client.write_ns_per_op", "ns"),
    ("client.wait_ns_per_op", "ns"),
    ("client.decode_ns_per_op", "ns"),
    ("client.write_syscalls_per_op", "count"),
    ("client.read_syscalls_per_op", "count"),
    ("client.burst_p99_us", "us"),
    ("server.read_service_us_mean", "us"),
    ("server.write_service_us_mean", "us"),
    ("server.bytes_in_per_op", "B"),
    ("server.bytes_out_per_op", "B"),
    ("server.busy_responses", "count"),
    ("server.protocol_errors", "count"),
    ("wire.tax_ns_per_op", "ns"),
    ("wire.vs_embedded_ratio", "ratio"),
    ("probe.memtable.insert_ns", "ns"),
    ("probe.memtable.get_hit_ns", "ns"),
    ("probe.memtable.get_miss_ns", "ns"),
    ("probe.wal.add_record_ns", "ns"),
    ("probe.wal.sync_ns", "ns"),
    ("probe.vlog.append_ns", "ns"),
    ("probe.vlog.get_ns", "ns"),
    ("probe.sstable.get_hit_cached_ns", "ns"),
    ("probe.sstable.get_hit_uncached_ns", "ns"),
    ("probe.sstable.get_bloom_negative_ns", "ns"),
    ("probe.bloom.decode_ns", "ns"),
    ("probe.bloom.may_contain_ns", "ns"),
    ("probe.block.seek_ns", "ns"),
    ("probe.cache.get_hit_ns", "ns"),
    ("probe.cache.insert_evict_ns", "ns"),
    ("probe.sstable.build_ns_per_entry", "ns"),
    ("probe.sstable.iter_ns_per_entry", "ns"),
    ("probe.merge.next_ns_per_entry", "ns"),
    ("probe.wire.request_encode_ns", "ns"),
    ("probe.wire.request_decode_ns", "ns"),
    ("probe.wire.response_encode_ns", "ns"),
    ("probe.wire.frame_decode_ns", "ns"),
    ("probe.wire.scan_response_encode_ns_per_entry", "ns"),
    ("probe.sharded.route_ns", "ns"),
    ("probe.sharded.scan_merge_ns_per_entry", "ns"),
    ("probe.types.crc32c_ns_per_kib", "ns"),
    ("probe.types.ikey_compare_ns", "ns"),
    ("driver.overhead_ns_per_op", "ns"),
    ("driver.calib_drift", "ratio"),
    ("driver.host_slowdown", "ratio"),
    ("driver.steal_share", "ratio"),
    ("driver.get_p99_us", "us"),
    ("driver.write_p99_us", "us"),
    ("driver.get_ptail_us", "us"),
    ("driver.write_ptail_us", "us"),
    ("driver.ptail_percentile", "%"),
    ("driver.samples", "count"),
    ("driver.failed_op_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Values gathered during a run, keyed by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// What a run reports on its last line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    /// Every metric of `table`, in order; a name `values` lacks reads 0.
    pub fn new(
        correct: bool,
        attempted: u64,
        failed: u64,
        table: &[(&'static str, &'static str)],
        values: &Values,
    ) -> RunResult {
        RunResult {
            correct,
            attempted,
            failed,
            metrics: table
                .iter()
                .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
                .collect(),
        }
    }

    /// The one-line JSON object the driver parses.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        out.push_str("}}");
        out
    }

    /// A human-readable table of the same numbers.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "  {name:<48} {value:>16.4} {unit}");
        }
        out
    }
}

/// A finite JSON number with all its digits (never `NaN`/`inf`).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Parse a result line printed by [`RunResult::to_json`]. The parser
/// reads only that one shape: it is how `selfcheck` reads its children.
pub fn parse_result(line: &str) -> Option<(bool, u64, u64, BTreeMap<String, f64>)> {
    let field = |key: &str| -> Option<&str> {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        Some(rest[..rest.find([',', '}'])?].trim())
    };
    let correct = field("correct")? == "true";
    let attempted = field("attempted")?.parse().ok()?;
    let failed = field("failed")?.parse().ok()?;
    let body = &line[line.find("\"metrics\": {")? + 12..];
    let mut metrics = BTreeMap::new();
    for entry in body
        .split("\"unit\": ")
        .filter(|e| e.contains("\"value\": "))
    {
        let name_end = entry.find("\": {\"value\": ")?;
        let name_start = entry[..name_end].rfind('"')? + 1;
        let value = &entry[name_end + 13..];
        let value = value[..value.find(',')?].trim();
        metrics.insert(entry[name_start..name_end].to_string(), value.parse().ok()?);
    }
    Some((correct, attempted, failed, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let mut values = Values::new();
        values.insert("setup_s", 0.8127);
        values.insert("ops_per_s", 36123.5);
        let r = RunResult::new(true, 1000, 2, &end_to_end_table(), &values);
        let line = r.to_json();
        assert!(line.starts_with(
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 2, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, "
        ));
        assert!(!line.contains('\n'));
        let (correct, attempted, failed, metrics) = parse_result(&line).unwrap();
        assert!(correct);
        assert_eq!((attempted, failed), (1000, 2));
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics["ops_per_s"], 36123.5);
        assert_eq!(metrics["peak_rss_mb"], 0.0);
        assert_eq!(parse_result("not json"), None);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in end_to_end_table().iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(end_to_end_table().contains(&("setup_s", "s")));
        // Set-up time carries the largest bound; none exceeds the cap.
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(END_TO_END[0].bound, widest);
        assert!(widest <= 0.25);
    }

    /// `BENCHMARK.json` must list exactly these metrics with these units.
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = |section: &str| -> Vec<(String, String)> {
            let start = json
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &json[start..start + json[start..].find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let grab = |key: &str| {
                        let at = entry.find(&format!("\"{key}\"")).expect("key present");
                        let rest = &entry[at + key.len() + 2..];
                        let open = rest.find('"').expect("string opens") + 1;
                        let close = open + rest[open..].find('"').expect("string closes");
                        rest[open..close].to_string()
                    };
                    (grab("name"), grab("unit"))
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&end_to_end_table()));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
        for m in END_TO_END {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in crate::gen::Workload::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }
}
