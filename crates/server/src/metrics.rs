//! Server-side observability: per-operation latency histograms plus
//! connection / byte / error counters, all lock-free and shared across
//! connection threads. Surfaced through the `stats` wire command and
//! the SERVE-mode status line.

use std::sync::atomic::Ordering;

acheron::metric_table! {
    /// Counters and histograms for one server instance.
    pub struct ServerMetrics;
    /// Connections accepted over the server's lifetime.
    connections_opened: counter, "server_connections_opened";
    /// Connections that have fully terminated.
    connections_closed: counter, "server_connections_closed";
    /// Connections refused because the pool was at `max_connections`.
    connections_rejected: counter, "server_connections_rejected";
    /// Request frames decoded.
    requests: counter, "server_requests";
    /// Requests shed with a `Busy` response under stall pressure.
    busy_responses: counter, "server_busy_responses";
    /// Requests shed with a `Busy` response by per-connection
    /// admission control (token bucket), before reaching any engine.
    rate_limited: counter, "server_rate_limited";
    /// Requests answered with an `Err` response.
    error_responses: counter, "server_error_responses";
    /// Connections dropped for protocol violations (bad frame, bad
    /// checksum, oversize, trailing garbage).
    protocol_errors: counter, "server_protocol_errors";
    /// Bytes received on the wire (frame headers included).
    bytes_in: counter, "server_bytes_in";
    /// Bytes sent on the wire (frame headers included).
    bytes_out: counter, "server_bytes_out";
    /// Times a write batch was delayed by slowdown throttling.
    throttle_sleeps: counter, "server_throttle_sleeps";
    /// Service latency (decode → response queued) for write ops, µs.
    write_latency: histogram, "server_write_us";
    /// Service latency for read ops (get/scan), µs.
    read_latency: histogram, "server_read_us";
}

impl ServerMetrics {
    /// Connections currently open.
    pub fn open_connections(&self) -> u64 {
        self.connections_opened
            .load(Ordering::Relaxed)
            .saturating_sub(self.connections_closed.load(Ordering::Relaxed))
    }

    /// Flatten everything into `(name, value)` pairs for the `stats`
    /// wire response; histograms expand to `_{count,p50,p99,max}`.
    pub fn to_pairs(&self) -> Vec<(String, u64)> {
        let mut pairs: Vec<(String, u64)> = self
            .counters()
            .into_iter()
            .map(|(name, value)| (name.to_string(), value))
            .collect();
        // The derived gauge sits right after the three counters it comes
        // from; the wire order is pinned (tests/golden.rs).
        pairs.insert(
            3,
            ("server_connections_open".into(), self.open_connections()),
        );
        for (name, s) in self.histograms() {
            for (stat, value) in [
                ("count", s.count),
                ("p50", s.p50),
                ("p99", s.p99),
                ("max", s.max),
            ] {
                pairs.push((format!("{name}_{stat}"), value));
            }
        }
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_cover_counters_and_histograms() {
        let m = ServerMetrics::default();
        m.connections_opened.store(3, Ordering::Relaxed);
        m.connections_closed.store(1, Ordering::Relaxed);
        m.read_latency.record(100);
        let pairs = m.to_pairs();
        let get = |k: &str| pairs.iter().find(|(n, _)| n == k).map(|(_, v)| *v).unwrap();
        assert_eq!(get("server_connections_open"), 2);
        assert_eq!(get("server_read_us_count"), 1);
        assert!(pairs.iter().any(|(n, _)| n == "server_write_us_p99"));
    }
}
