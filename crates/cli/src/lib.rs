//! Command interpreter behind the `acheron` demo binary.
//!
//! The Acheron paper is a SIGMOD *demonstration*: its interface lets an
//! operator issue writes and deletes, turn the FADE/KiWi knobs, advance
//! time, and watch tombstones age and get purged. This module is that
//! demo as a deterministic, scriptable interpreter (the binary wraps it
//! around stdin); being a plain function of `&str -> String` it is fully
//! unit-testable.

#![forbid(unsafe_code)]

use std::sync::Arc;

use acheron::{CompactionLayout, Db, DbOptions};
use acheron_server::Client;
use acheron_vfs::MemFs;
use acheron_workload::{run_ops, KeyDistribution, OpMix, WorkloadGen, WorkloadSpec};

/// Interpreter state: one open database plus its configuration.
pub struct Session {
    db: Db,
    opts: DbOptions,
    /// When on, every `put`/`get`/`del` runs force-traced and prints
    /// its span breakdown after the ordinary output.
    tracing: bool,
}

/// What the interpreter did with a line.
#[derive(Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Output to print (may be multi-line or empty).
    Text(String),
    /// The user asked to leave.
    Quit,
}

fn help_text() -> String {
    "\
commands:
  put <key> <value> [dkey]     insert/update (dkey = secondary delete key)
  get <key>                    point lookup
  del <key>                    point delete (inserts a tombstone)
  rdel <lo> <hi>               secondary range delete over delete keys
  delrange <start> <end>       sort-key range delete (inclusive bounds)
  scan <lo> <hi>               range scan over sort keys (inclusive)
  workload <n> <put%> <del%> <get%> <scan%>   run n generated ops
  tick <n>                     advance the logical clock n ticks
  maintain                     run pending compactions (FADE enforcement)
  compact                      full manual compaction
  flush                        flush the memtable
  tree                         show level occupancy
  tombstones                   show tombstone population and ages
  stats                        show engine counters
  metrics                      Prometheus-style metrics exposition
  events                       recent engine events (flight recorder)
  trace on|off                 trace every data op and print its spans
  traces                       recently sampled per-op traces
  audit                        delete-lifecycle audit (D_th compliance)
  reopen [fade <D_th>] [tile <h>] [tiering|leveling|lazy]
                               restart with fresh options (data is kept)
  help                         this text
  quit                         exit"
        .to_string()
}

impl Session {
    /// A fresh in-memory session with the given options.
    pub fn new(opts: DbOptions) -> Session {
        let db = Db::open(Arc::new(MemFs::new()), "demo", opts.clone()).expect("open demo db");
        Session {
            db,
            opts,
            tracing: false,
        }
    }

    /// A session with demo-friendly defaults (small buffers, FADE on).
    pub fn demo() -> Session {
        Session::new(DbOptions::small().with_fade(50_000))
    }

    /// Access the underlying database (tests).
    pub fn db(&self) -> &Db {
        &self.db
    }

    /// Execute one command line.
    pub fn execute(&mut self, line: &str) -> Outcome {
        let mut parts = line.split_whitespace();
        let Some(cmd) = parts.next() else {
            return Outcome::Text(String::new());
        };
        let args: Vec<&str> = parts.collect();
        let result = match cmd {
            "help" => Ok(help_text()),
            "quit" | "exit" => return Outcome::Quit,
            "put" => self.cmd_put(&args),
            "get" => self.cmd_get(&args),
            "del" => self.cmd_del(&args),
            "rdel" => self.cmd_rdel(&args),
            "delrange" => self.cmd_delrange(&args),
            "scan" => self.cmd_scan(&args),
            "workload" => self.cmd_workload(&args),
            "tick" => self.cmd_tick(&args),
            "maintain" => self
                .db
                .maintain()
                .map(|_| "ok".to_string())
                .map_err(|e| e.to_string()),
            "compact" => self
                .db
                .compact_all()
                .map(|_| "ok".to_string())
                .map_err(|e| e.to_string()),
            "flush" => self
                .db
                .flush()
                .map(|_| "ok".to_string())
                .map_err(|e| e.to_string()),
            "tree" => Ok(self.render_tree()),
            "tombstones" => Ok(self.render_tombstones()),
            "stats" => Ok(self.render_stats()),
            "metrics" => Ok(self.render_metrics()),
            "events" => Ok(self.render_events()),
            "trace" => self.cmd_trace(&args),
            "traces" => Ok(acheron::render_traces(&self.db.recent_traces())
                .trim_end()
                .to_string()),
            "audit" => Ok(self.db.delete_audit().render().trim_end().to_string()),
            "reopen" => self.cmd_reopen(&args),
            other => Err(format!("unknown command {other:?}; try `help`")),
        };
        Outcome::Text(match result {
            Ok(s) => s,
            Err(e) => format!("error: {e}"),
        })
    }

    fn cmd_trace(&mut self, args: &[&str]) -> Result<String, String> {
        match args {
            ["on"] => {
                self.tracing = true;
                Ok("tracing on: data ops print their span breakdown".into())
            }
            ["off"] => {
                self.tracing = false;
                Ok("tracing off".into())
            }
            _ => Err("usage: trace on|off".into()),
        }
    }

    fn cmd_put(&mut self, args: &[&str]) -> Result<String, String> {
        match args {
            [key, value] if self.tracing => {
                let trace = self
                    .db
                    .put_traced(key.as_bytes(), value.as_bytes(), None)
                    .map_err(|e| e.to_string())?;
                Ok(format!("ok\n{}", trace.render().trim_end()))
            }
            [key, value] => {
                self.db
                    .put(key.as_bytes(), value.as_bytes())
                    .map_err(|e| e.to_string())?;
                Ok("ok".into())
            }
            [key, value, dkey] => {
                let d: u64 = dkey
                    .parse()
                    .map_err(|_| "dkey must be a number".to_string())?;
                self.db
                    .put_with_dkey(key.as_bytes(), value.as_bytes(), d)
                    .map_err(|e| e.to_string())?;
                Ok("ok".into())
            }
            _ => Err("usage: put <key> <value> [dkey]".into()),
        }
    }

    fn cmd_get(&mut self, args: &[&str]) -> Result<String, String> {
        let [key] = args else {
            return Err("usage: get <key>".into());
        };
        if self.tracing {
            let (value, trace) = self
                .db
                .get_traced(key.as_bytes(), None)
                .map_err(|e| e.to_string())?;
            let shown = match value {
                Some(v) => String::from_utf8_lossy(&v).into_owned(),
                None => "(not found)".into(),
            };
            return Ok(format!("{shown}\n{}", trace.render().trim_end()));
        }
        match self.db.get(key.as_bytes()).map_err(|e| e.to_string())? {
            Some(v) => Ok(String::from_utf8_lossy(&v).into_owned()),
            None => Ok("(not found)".into()),
        }
    }

    fn cmd_del(&mut self, args: &[&str]) -> Result<String, String> {
        let [key] = args else {
            return Err("usage: del <key>".into());
        };
        if self.tracing {
            let trace = self
                .db
                .delete_traced(key.as_bytes(), None)
                .map_err(|e| e.to_string())?;
            return Ok(format!(
                "tombstone inserted at tick {}\n{}",
                self.db.now(),
                trace.render().trim_end()
            ));
        }
        self.db.delete(key.as_bytes()).map_err(|e| e.to_string())?;
        Ok(format!("tombstone inserted at tick {}", self.db.now()))
    }

    fn cmd_rdel(&mut self, args: &[&str]) -> Result<String, String> {
        let [lo, hi] = args else {
            return Err("usage: rdel <lo> <hi>".into());
        };
        let lo: u64 = lo.parse().map_err(|_| "lo must be a number".to_string())?;
        let hi: u64 = hi.parse().map_err(|_| "hi must be a number".to_string())?;
        self.db
            .range_delete_secondary(lo, hi)
            .map_err(|e| e.to_string())?;
        Ok(format!(
            "range tombstone registered; {} live",
            self.db.live_range_tombstones().len()
        ))
    }

    fn cmd_delrange(&mut self, args: &[&str]) -> Result<String, String> {
        let [start, end] = args else {
            return Err("usage: delrange <start> <end>".into());
        };
        self.db
            .range_delete_keys(start.as_bytes(), end.as_bytes())
            .map_err(|e| e.to_string())?;
        Ok(format!(
            "range tombstone inserted at tick {}; {} live",
            self.db.now(),
            self.db.live_key_range_tombstones()
        ))
    }

    fn cmd_scan(&mut self, args: &[&str]) -> Result<String, String> {
        let [lo, hi] = args else {
            return Err("usage: scan <lo> <hi>".into());
        };
        let rows = self
            .db
            .scan(lo.as_bytes(), hi.as_bytes())
            .map_err(|e| e.to_string())?;
        let mut out = String::new();
        for (k, v) in &rows {
            out.push_str(&format!(
                "{} = {}\n",
                String::from_utf8_lossy(k),
                String::from_utf8_lossy(v)
            ));
        }
        out.push_str(&format!("({} rows)", rows.len()));
        Ok(out)
    }

    fn cmd_workload(&mut self, args: &[&str]) -> Result<String, String> {
        let [n, put, del, get, scan] = args else {
            return Err("usage: workload <n> <put%> <del%> <get%> <scan%>".into());
        };
        let n: usize = n.parse().map_err(|_| "n must be a number".to_string())?;
        let pct = |s: &str| {
            s.parse::<u32>()
                .map_err(|_| "percentages must be numbers".to_string())
        };
        let (p, d, g, sc) = (pct(put)?, pct(del)?, pct(get)?, pct(scan)?);
        if p + d + g + sc != 100 {
            return Err("percentages must sum to 100".into());
        }
        let mix = OpMix {
            put_pct: p,
            delete_pct: d,
            get_pct: g,
            scan_pct: sc,
        };
        let spec = WorkloadSpec::new(mix, KeyDistribution::uniform(50_000));
        let ops = WorkloadGen::new(spec).take(n);
        let report = run_ops(&self.db, &ops).map_err(|e| e.to_string())?;
        Ok(format!(
            "ran {} ops in {:.2}ms ({:.0} ops/s); {} hits, {} misses, {} scan rows",
            report.ops,
            report.elapsed_secs * 1e3,
            report.ops_per_sec(),
            report.get_hits,
            report.get_misses,
            report.scan_rows
        ))
    }

    fn cmd_tick(&mut self, args: &[&str]) -> Result<String, String> {
        let [n] = args else {
            return Err("usage: tick <n>".into());
        };
        let n: u64 = n.parse().map_err(|_| "n must be a number".to_string())?;
        self.db.advance_clock(n);
        Ok(format!("clock now at {}", self.db.now()))
    }

    fn cmd_reopen(&mut self, args: &[&str]) -> Result<String, String> {
        let mut opts = self.opts.clone();
        opts.fade = None;
        let mut i = 0;
        while i < args.len() {
            match args[i] {
                "fade" => {
                    let d = args
                        .get(i + 1)
                        .and_then(|s| s.parse::<u64>().ok())
                        .ok_or("fade needs a numeric D_th")?;
                    opts = opts.with_fade(d);
                    i += 2;
                }
                "tile" => {
                    let h = args
                        .get(i + 1)
                        .and_then(|s| s.parse::<usize>().ok())
                        .ok_or("tile needs a numeric h")?;
                    opts = opts.with_tile(h);
                    i += 2;
                }
                "tiering" => {
                    opts.layout = CompactionLayout::Tiering;
                    i += 1;
                }
                "leveling" => {
                    opts.layout = CompactionLayout::Leveling;
                    i += 1;
                }
                "lazy" => {
                    opts.layout = CompactionLayout::LazyLeveling;
                    i += 1;
                }
                other => return Err(format!("unknown reopen option {other:?}")),
            }
        }
        // Reopen over the same filesystem keeps the data.
        let fs = self.db.vfs();
        let db = Db::open(fs, "demo", opts.clone()).map_err(|e| e.to_string())?;
        self.db = db;
        self.opts = opts;
        Ok(format!("reopened with {:?}", self.opts))
    }

    fn render_tree(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("clock tick: {}\n", self.db.now()));
        for level in self.db.level_summary() {
            if level.files == 0 {
                continue;
            }
            let bar = "#".repeat(((level.bytes / 4096) as usize).clamp(1, 50));
            out.push_str(&format!(
                "L{} {:<50} {:>4} files {:>2} runs {:>9} B {:>7} entries {:>6} tombstones {:>4} woven\n",
                level.level,
                bar,
                level.files,
                level.runs,
                level.bytes,
                level.entries,
                level.tombstones,
                level.woven_files
            ));
        }
        if out.lines().count() <= 1 {
            out.push_str("(tree is empty)\n");
        }
        out.pop();
        out
    }

    fn render_tombstones(&self) -> String {
        use std::sync::atomic::Ordering::Relaxed;
        let s = self.db.stats();
        let mut out = String::new();
        out.push_str(&format!(
            "live point tombstones: {}\n",
            self.db.live_tombstones()
        ));
        match self.db.oldest_live_tombstone_age() {
            Some(age) => out.push_str(&format!("oldest live tombstone age: {age} ticks\n")),
            None => out.push_str("oldest live tombstone age: -\n"),
        }
        if let Some(f) = &self.db.options().fade {
            out.push_str(&format!(
                "FADE threshold D_th: {} ticks\n",
                f.delete_persistence_threshold
            ));
        } else {
            out.push_str("FADE: off (tombstones live until saturation reaches them)\n");
        }
        out.push_str(&format!(
            "purged: {} (max latency {}, p99 {}, mean {:.1})\n",
            s.tombstones_purged.load(Relaxed),
            s.persistence_latency.max(),
            s.persistence_latency.quantile(0.99),
            s.persistence_latency.mean(),
        ));
        out.push_str(&format!(
            "live range tombstones: {}\n",
            self.db.live_range_tombstones().len()
        ));
        out.push_str(&format!(
            "live sort-key range tombstones: {}",
            self.db.live_key_range_tombstones()
        ));
        if let Some(age) = self.db.oldest_live_key_range_tombstone_age() {
            out.push_str(&format!(
                "\noldest sort-key range tombstone age: {age} ticks"
            ));
        }
        out
    }

    fn render_metrics(&self) -> String {
        acheron::obs::render_prometheus(
            &self.db.stats().snapshot().to_pairs(),
            &self.db.tombstone_gauges(),
            self.db.now(),
            self.opts
                .fade
                .as_ref()
                .map(|f| f.delete_persistence_threshold),
        )
        .trim_end()
        .to_string()
    }

    fn render_events(&self) -> String {
        acheron::obs::render_events(&self.db.events())
            .trim_end()
            .to_string()
    }

    fn render_stats(&self) -> String {
        use std::sync::atomic::Ordering::Relaxed;
        let s = self.db.stats();
        format!(
            "puts {} | deletes {} | range-deletes {} | gets {} | scans {}\n\
             flushes {} | compactions {} (ttl {}) | write-amp {:.2}\n\
             shadowed {} | range-purged {} | pages dropped {} | table bytes {}",
            s.puts.load(Relaxed),
            s.deletes.load(Relaxed),
            s.range_deletes.load(Relaxed),
            s.gets.load(Relaxed),
            s.scans.load(Relaxed),
            s.flushes.load(Relaxed),
            s.compactions.load(Relaxed),
            s.ttl_compactions.load(Relaxed),
            s.write_amplification(),
            s.entries_shadowed.load(Relaxed),
            s.entries_range_purged.load(Relaxed),
            s.pages_dropped.load(Relaxed),
            self.db.table_bytes(),
        )
    }
}

fn remote_help_text() -> String {
    "\
remote commands:
  put <key> <value> [dkey]     insert/update (dkey = secondary delete key)
  get <key>                    point lookup
  del <key>                    point delete
  rdel <lo> <hi>               secondary range delete over delete keys
  delrange <start> <end>       sort-key range delete (inclusive bounds)
  scan <lo> <hi>               range scan over sort keys (inclusive)
  stats                        engine + server counters
  metrics                      Prometheus-style metrics exposition
  events                       recent engine events (flight recorder)
  trace on|off                 force-trace data ops and print their spans
  traces                       server's recently sampled per-op traces
  audit                        delete-lifecycle audit (D_th compliance)
  ping                         liveness probe
  help                         this text
  quit                         close the connection and exit"
        .to_string()
}

/// Interpreter over a *remote* database: the same command surface as
/// [`Session`] (minus the embedded-only introspection commands),
/// executed through the wire protocol via [`acheron_server::Client`].
pub struct RemoteSession {
    client: Client,
    /// When on, `put`/`get`/`del` ride the wire force-traced and print
    /// the server-side span breakdown.
    tracing: bool,
    /// Client-chosen trace ids for forced traces, so the printed spans
    /// can be matched against the server's `traces` listing.
    next_trace_id: u64,
}

impl RemoteSession {
    /// Connect to a running `acheron serve` instance.
    pub fn connect(addr: &str) -> Result<RemoteSession, String> {
        let client = Client::connect(addr).map_err(|e| e.to_string())?;
        Ok(RemoteSession::from_client(client))
    }

    /// Wrap an already-connected client (tests).
    pub fn from_client(client: Client) -> RemoteSession {
        RemoteSession {
            client,
            tracing: false,
            next_trace_id: 1,
        }
    }

    fn take_trace_id(&mut self) -> u64 {
        let id = self.next_trace_id;
        self.next_trace_id += 1;
        id
    }

    fn render_wire_trace(result: &acheron_server::TracedResult) -> String {
        let mut out = format!("trace {} {}", result.trace_id, result.op);
        for (name, value) in &result.spans {
            out.push_str(&format!("\n  {name:<28} {value}"));
        }
        out
    }

    /// Execute one command line against the server.
    pub fn execute(&mut self, line: &str) -> Outcome {
        let mut parts = line.split_whitespace();
        let Some(cmd) = parts.next() else {
            return Outcome::Text(String::new());
        };
        let args: Vec<&str> = parts.collect();
        let result = match cmd {
            "help" => Ok(remote_help_text()),
            "quit" | "exit" => return Outcome::Quit,
            "ping" => self
                .client
                .ping()
                .map(|()| "pong".to_string())
                .map_err(|e| e.to_string()),
            "put" => self.cmd_put(&args),
            "get" => self.cmd_get(&args),
            "del" => self.cmd_del(&args),
            "rdel" => self.cmd_rdel(&args),
            "delrange" => self.cmd_delrange(&args),
            "scan" => self.cmd_scan(&args),
            "stats" => self.cmd_stats(),
            "metrics" => self
                .client
                .metrics()
                .map(|t| t.trim_end().to_string())
                .map_err(|e| e.to_string()),
            "events" => self
                .client
                .events()
                .map(|t| t.trim_end().to_string())
                .map_err(|e| e.to_string()),
            "trace" => self.cmd_trace(&args),
            "traces" => self
                .client
                .traces()
                .map(|t| t.trim_end().to_string())
                .map_err(|e| e.to_string()),
            "audit" => self
                .client
                .audit()
                .map(|(violation, text)| {
                    let text = text.trim_end().to_string();
                    if violation {
                        format!("{text}\nAUDIT VIOLATION")
                    } else {
                        text
                    }
                })
                .map_err(|e| e.to_string()),
            other => Err(format!("unknown command {other:?}; try `help`")),
        };
        Outcome::Text(match result {
            Ok(s) => s,
            Err(e) => format!("error: {e}"),
        })
    }

    fn cmd_trace(&mut self, args: &[&str]) -> Result<String, String> {
        match args {
            ["on"] => {
                self.tracing = true;
                Ok("tracing on: data ops print the server-side span breakdown".into())
            }
            ["off"] => {
                self.tracing = false;
                Ok("tracing off".into())
            }
            _ => Err("usage: trace on|off".into()),
        }
    }

    fn cmd_put(&mut self, args: &[&str]) -> Result<String, String> {
        match args {
            [key, value] if self.tracing => {
                let id = self.take_trace_id();
                let traced = self
                    .client
                    .put_traced(key.as_bytes(), value.as_bytes(), id)
                    .map_err(|e| e.to_string())?;
                Ok(format!("ok\n{}", Self::render_wire_trace(&traced)))
            }
            [key, value] => {
                self.client
                    .put(key.as_bytes(), value.as_bytes())
                    .map_err(|e| e.to_string())?;
                Ok("ok".into())
            }
            [key, value, dkey] => {
                let d: u64 = dkey
                    .parse()
                    .map_err(|_| "dkey must be a number".to_string())?;
                self.client
                    .put_with_dkey(key.as_bytes(), value.as_bytes(), d)
                    .map_err(|e| e.to_string())?;
                Ok("ok".into())
            }
            _ => Err("usage: put <key> <value> [dkey]".into()),
        }
    }

    fn cmd_get(&mut self, args: &[&str]) -> Result<String, String> {
        let [key] = args else {
            return Err("usage: get <key>".into());
        };
        if self.tracing {
            let id = self.take_trace_id();
            let traced = self
                .client
                .get_traced(key.as_bytes(), id)
                .map_err(|e| e.to_string())?;
            let shown = match &traced.value {
                Some(v) => String::from_utf8_lossy(v).into_owned(),
                None => "(not found)".into(),
            };
            return Ok(format!("{shown}\n{}", Self::render_wire_trace(&traced)));
        }
        match self.client.get(key.as_bytes()).map_err(|e| e.to_string())? {
            Some(v) => Ok(String::from_utf8_lossy(&v).into_owned()),
            None => Ok("(not found)".into()),
        }
    }

    fn cmd_del(&mut self, args: &[&str]) -> Result<String, String> {
        let [key] = args else {
            return Err("usage: del <key>".into());
        };
        if self.tracing {
            let id = self.take_trace_id();
            let traced = self
                .client
                .delete_traced(key.as_bytes(), id)
                .map_err(|e| e.to_string())?;
            return Ok(format!("ok\n{}", Self::render_wire_trace(&traced)));
        }
        self.client
            .delete(key.as_bytes())
            .map_err(|e| e.to_string())?;
        Ok("ok".into())
    }

    fn cmd_rdel(&mut self, args: &[&str]) -> Result<String, String> {
        let [lo, hi] = args else {
            return Err("usage: rdel <lo> <hi>".into());
        };
        let lo: u64 = lo.parse().map_err(|_| "lo must be a number".to_string())?;
        let hi: u64 = hi.parse().map_err(|_| "hi must be a number".to_string())?;
        self.client
            .range_delete_secondary(lo, hi)
            .map_err(|e| e.to_string())?;
        Ok("ok".into())
    }

    fn cmd_delrange(&mut self, args: &[&str]) -> Result<String, String> {
        let [start, end] = args else {
            return Err("usage: delrange <start> <end>".into());
        };
        self.client
            .range_delete_keys(start.as_bytes(), end.as_bytes())
            .map_err(|e| e.to_string())?;
        Ok("ok".into())
    }

    fn cmd_scan(&mut self, args: &[&str]) -> Result<String, String> {
        let [lo, hi] = args else {
            return Err("usage: scan <lo> <hi>".into());
        };
        let rows = self
            .client
            .scan(lo.as_bytes(), hi.as_bytes())
            .map_err(|e| e.to_string())?;
        let mut out = String::new();
        for (k, v) in &rows {
            out.push_str(&format!(
                "{} = {}\n",
                String::from_utf8_lossy(k),
                String::from_utf8_lossy(v)
            ));
        }
        out.push_str(&format!("({} rows)", rows.len()));
        Ok(out)
    }

    fn cmd_stats(&mut self) -> Result<String, String> {
        let pairs = self.client.stats().map_err(|e| e.to_string())?;
        let mut out = String::new();
        for (name, value) in &pairs {
            out.push_str(&format!("{name:<32} {value}\n"));
        }
        out.pop();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(outcome: Outcome) -> String {
        match outcome {
            Outcome::Text(s) => s,
            Outcome::Quit => panic!("unexpected quit"),
        }
    }

    #[test]
    fn put_get_del_cycle() {
        let mut s = Session::demo();
        assert_eq!(text(s.execute("put k hello")), "ok");
        assert_eq!(text(s.execute("get k")), "hello");
        assert!(text(s.execute("del k")).contains("tombstone inserted"));
        assert_eq!(text(s.execute("get k")), "(not found)");
    }

    #[test]
    fn scan_renders_rows() {
        let mut s = Session::demo();
        s.execute("put a 1");
        s.execute("put b 2");
        s.execute("put c 3");
        let out = text(s.execute("scan a b"));
        assert!(out.contains("a = 1"));
        assert!(out.contains("b = 2"));
        assert!(!out.contains("c = 3"));
        assert!(out.contains("(2 rows)"));
    }

    #[test]
    fn rdel_by_dkey() {
        let mut s = Session::demo();
        s.execute("put a v1 10");
        s.execute("put b v2 20");
        assert!(text(s.execute("rdel 15 25")).contains("1 live"));
        assert_eq!(text(s.execute("get a")), "v1");
        assert_eq!(text(s.execute("get b")), "(not found)");
    }

    #[test]
    fn delrange_erases_a_key_interval() {
        let mut s = Session::demo();
        s.execute("put user:1 a");
        s.execute("put user:2 b");
        s.execute("put zebra c");
        let out = text(s.execute("delrange user:1 user:9"));
        assert!(out.contains("1 live"), "{out}");
        assert_eq!(text(s.execute("get user:1")), "(not found)");
        assert_eq!(text(s.execute("get user:2")), "(not found)");
        assert_eq!(text(s.execute("get zebra")), "c");
        let ts = text(s.execute("tombstones"));
        assert!(ts.contains("live sort-key range tombstones: 1"), "{ts}");
        assert!(ts.contains("oldest sort-key range tombstone age"), "{ts}");
        assert!(text(s.execute("delrange onlyone")).contains("usage"));
    }

    #[test]
    fn workload_and_views_run() {
        let mut s = Session::demo();
        let out = text(s.execute("workload 2000 70 10 15 5"));
        assert!(out.contains("ran 2000 ops"), "{out}");
        let tree = text(s.execute("tree"));
        assert!(tree.contains("files"), "{tree}");
        let ts = text(s.execute("tombstones"));
        assert!(ts.contains("live point tombstones"), "{ts}");
        let st = text(s.execute("stats"));
        assert!(st.contains("write-amp"), "{st}");
        let m = text(s.execute("metrics"));
        assert!(m.contains("puts "), "{m}");
        assert!(m.contains("db_live_tombstones"), "{m}");
        assert!(m.contains("db_tombstone_age_ticks_bucket"), "{m}");
        let ev = text(s.execute("events"));
        assert!(ev.contains("memtable_sealed"), "{ev}");
    }

    #[test]
    fn tick_and_maintain_purge_tombstones() {
        let mut s = Session::demo();
        s.execute("workload 3000 60 40 0 0");
        s.execute("flush");
        // Step time past the FADE threshold with maintenance.
        for _ in 0..40 {
            s.execute("tick 2000");
            s.execute("maintain");
        }
        assert_eq!(s.db().live_tombstones(), 0);
    }

    #[test]
    fn reopen_switches_configuration_and_keeps_data() {
        let mut s = Session::demo();
        s.execute("put survivor here");
        let out = text(s.execute("reopen tiering tile 4 fade 1000"));
        assert!(out.contains("Tiering"), "{out}");
        assert_eq!(text(s.execute("get survivor")), "here");
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut s = Session::demo();
        assert!(text(s.execute("bogus")).contains("unknown command"));
        assert!(text(s.execute("put onlykey")).contains("usage"));
        assert!(text(s.execute("rdel 5 x")).contains("number"));
        assert!(text(s.execute("workload 10 50 50 50 50")).contains("sum to 100"));
        assert!(text(s.execute("tick abc")).contains("number"));
        // Still usable afterwards.
        assert_eq!(text(s.execute("put k v")), "ok");
    }

    #[test]
    fn quit_and_empty_lines() {
        let mut s = Session::demo();
        assert_eq!(s.execute(""), Outcome::Text(String::new()));
        assert_eq!(s.execute("quit"), Outcome::Quit);
    }

    #[test]
    fn remote_session_mirrors_the_embedded_command_surface() {
        use acheron_server::{Server, ServerOptions};
        let db = Arc::new(
            Db::open(
                Arc::new(MemFs::new()),
                "demo",
                DbOptions::small().with_fade(50_000),
            )
            .unwrap(),
        );
        let mut server = Server::start(db, "127.0.0.1:0", ServerOptions::default()).unwrap();
        let mut s = RemoteSession::connect(&server.local_addr().to_string()).unwrap();
        assert_eq!(text(s.execute("ping")), "pong");
        assert_eq!(text(s.execute("put k hello")), "ok");
        assert_eq!(text(s.execute("get k")), "hello");
        assert_eq!(text(s.execute("del k")), "ok");
        assert_eq!(text(s.execute("get k")), "(not found)");
        s.execute("put a v1 10");
        s.execute("put b v2 20");
        assert_eq!(text(s.execute("rdel 15 25")), "ok");
        assert_eq!(text(s.execute("get b")), "(not found)");
        s.execute("put user:1 x");
        assert_eq!(text(s.execute("delrange user: user:~")), "ok");
        assert_eq!(text(s.execute("get user:1")), "(not found)");
        let scan = text(s.execute("scan a z"));
        assert!(scan.contains("a = v1"), "{scan}");
        let stats = text(s.execute("stats"));
        assert!(stats.contains("server_requests"), "{stats}");
        assert!(stats.contains("puts"), "{stats}");
        let metrics = text(s.execute("metrics"));
        assert!(metrics.contains("db_live_tombstones"), "{metrics}");
        assert!(metrics.contains("server_requests"), "{metrics}");
        let events = text(s.execute("events"));
        assert!(events.contains("wal_group_commit"), "{events}");
        assert!(text(s.execute("trace on")).contains("tracing on"));
        let traced_put = text(s.execute("put traced:1 v"));
        assert!(traced_put.contains("trace 1 put"), "{traced_put}");
        assert!(traced_put.contains("total_micros"), "{traced_put}");
        let traced_get = text(s.execute("get traced:1"));
        assert!(traced_get.starts_with("v\n"), "{traced_get}");
        assert!(traced_get.contains("memtable_probe_micros"), "{traced_get}");
        assert!(text(s.execute("trace off")).contains("tracing off"));
        let traces = text(s.execute("traces"));
        assert!(traces.contains("put"), "{traces}");
        let audit = text(s.execute("audit"));
        assert!(audit.contains("D_th"), "{audit}");
        assert!(!audit.contains("AUDIT VIOLATION"), "{audit}");
        assert!(text(s.execute("bogus")).contains("unknown command"));
        assert_eq!(s.execute("quit"), Outcome::Quit);
        server.shutdown();
    }

    #[test]
    fn help_lists_every_command() {
        let mut s = Session::demo();
        let h = text(s.execute("help"));
        for cmd in [
            "put",
            "get",
            "del",
            "rdel",
            "delrange",
            "scan",
            "workload",
            "tick",
            "tree",
            "stats",
            "metrics",
            "events",
            "trace on|off",
            "traces",
            "audit",
        ] {
            assert!(h.contains(cmd), "help missing {cmd}");
        }
    }

    #[test]
    fn trace_mode_prints_span_breakdowns() {
        let mut s = Session::demo();
        assert!(text(s.execute("trace on")).contains("tracing on"));
        let put = text(s.execute("put k hello"));
        assert!(put.starts_with("ok\n"), "{put}");
        assert!(put.contains("total_micros"), "{put}");
        assert!(put.contains("memtable_insert_micros"), "{put}");
        let get = text(s.execute("get k"));
        assert!(get.starts_with("hello\n"), "{get}");
        assert!(get.contains("memtable_probe_micros"), "{get}");
        let del = text(s.execute("del k"));
        assert!(del.contains("tombstone inserted"), "{del}");
        assert!(del.contains("total_micros"), "{del}");
        // Forced traces land in the recent ring.
        let traces = text(s.execute("traces"));
        assert!(traces.contains("put"), "{traces}");
        assert!(traces.contains("get"), "{traces}");
        assert!(text(s.execute("trace off")).contains("tracing off"));
        assert_eq!(text(s.execute("put k2 v2")), "ok");
        assert!(text(s.execute("trace sideways")).contains("usage"));
    }

    #[test]
    fn audit_reports_cohort_compliance() {
        let mut s = Session::demo();
        s.execute("put a 1");
        s.execute("del a");
        s.execute("flush");
        let audit = text(s.execute("audit"));
        assert!(audit.contains("D_th"), "{audit}");
        assert!(audit.contains("cohort"), "{audit}");
    }
}
