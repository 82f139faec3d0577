//! Command interpreter behind the `acheron` demo binary.
//!
//! The Acheron paper is a SIGMOD *demonstration*: its interface lets an
//! operator issue writes and deletes, turn the FADE/KiWi knobs, advance
//! time, and watch tombstones age and get purged. This module is that
//! demo as a deterministic, scriptable interpreter (the binary wraps it
//! around stdin); being a plain function of `&str -> String` it is fully
//! unit-testable.
//!
//! One [`Session`] runs on either [`Backend`]: an engine in this
//! process, answered by [`acheron_server::answer`] — the function a
//! server answers its connections with — or a running server over the
//! wire. The shared commands parse into a wire [`Request`] and each
//! [`Response`] kind renders one way, so a command reads the same
//! embedded and remote.

#![forbid(unsafe_code)]

use std::path::Path;
use std::str::FromStr;
use std::sync::Arc;

use acheron::{CompactionLayout, Db, DbOptions, ShardedDb};
use acheron_server::{answer, Client, Request, Response};
use acheron_vfs::{MemFs, StdFs};
use acheron_workload::{run_ops, KeyDistribution, OpMix, WorkloadGen, WorkloadSpec};

/// Where a session's commands run.
pub enum Backend {
    /// An engine in this process: a fleet of one in the REPL, whichever
    /// shape a database directory holds for a one-shot subcommand.
    Local(ShardedDb),
    /// A running `acheron serve`, over the wire.
    Remote(Client),
}

impl Backend {
    /// Resolve a one-shot subcommand's target. An existing directory
    /// opens offline (recovery events included) and is tried first, so
    /// a directory whose path holds a `:` is still a directory; any
    /// other target with a `:` is a server address. A directory opens
    /// without background workers: nothing compacts the tree a one-shot
    /// command reads.
    pub fn resolve(target: &str) -> Result<Backend, String> {
        if Path::new(target).is_dir() {
            let opts = DbOptions {
                background_threads: 0,
                ..DbOptions::default()
            };
            ShardedDb::open_root(Arc::new(StdFs::new(false)), target, opts)
                .map(Backend::Local)
                .map_err(|e| format!("open {target}: {e}"))
        } else if target.contains(':') {
            Client::connect(target)
                .map(Backend::Remote)
                .map_err(|e| format!("query {target}: {e}"))
        } else {
            Err(format!(
                "{target} is neither a host:port address nor a database directory"
            ))
        }
    }

    /// Answer one request: in process through [`answer`] (with no
    /// server pairs), or over the wire, where a request the server sheds
    /// as busy is retried with backoff.
    pub fn call(&mut self, req: &Request) -> Result<Response, String> {
        match self {
            Backend::Local(engine) => Ok(answer(engine, req, &[])),
            Backend::Remote(client) => client.request_retrying_busy(req).map_err(|e| e.to_string()),
        }
    }
}

/// Interpreter state: a backend plus the session's trace switch.
pub struct Session {
    backend: Backend,
    /// When on, every `put`/`get`/`del` runs force-traced and prints
    /// its span breakdown after the ordinary output.
    tracing: bool,
    /// The id of the next forced trace, so the printed spans can be
    /// matched against the `traces` listing.
    next_trace_id: u64,
}

/// What the interpreter did with a line.
#[derive(Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Output to print (may be multi-line or empty).
    Text(String),
    /// The user asked to leave.
    Quit,
}

/// Every command's usage and what it does; the help text and the usage
/// errors both read it.
const COMMANDS: &[(&str, &str)] = &[
    (
        "put <key> <value> [dkey]",
        "insert/update (dkey = secondary delete key)",
    ),
    ("get <key>", "point lookup"),
    ("del <key>", "point delete (inserts a tombstone)"),
    ("rdel <lo> <hi>", "secondary range delete over delete keys"),
    (
        "delrange <start> <end>",
        "sort-key range delete (inclusive bounds)",
    ),
    ("scan <lo> <hi>", "range scan over sort keys (inclusive)"),
    ("stats", "engine counters (+ server counters when remote)"),
    ("metrics", "Prometheus-style metrics exposition"),
    ("events", "recent engine events (flight recorder)"),
    ("trace on|off", "trace every data op and print its spans"),
    ("traces", "recently sampled per-op traces"),
    ("audit", "delete-lifecycle audit (D_th compliance)"),
    (
        "workload <n> <put%> <del%> <get%> <scan%>",
        "run n generated ops (embedded)",
    ),
    ("tick <n>", "advance the logical clock n ticks (embedded)"),
    (
        "maintain",
        "run pending compactions, FADE enforcement (embedded)",
    ),
    ("compact", "full manual compaction (embedded)"),
    ("flush", "flush the memtable (embedded)"),
    ("tree", "level occupancy and write amplification (embedded)"),
    ("tombstones", "tombstone population and ages (embedded)"),
    (
        "reopen [fade <D_th>] [tile <h>] [tiering|leveling|lazy]",
        "restart with fresh options, data kept (embedded)",
    ),
    ("ping", "liveness probe (remote)"),
    ("help", "this text"),
    ("quit", "exit"),
];

/// The commands that act on the in-process engine itself.
const EMBEDDED_ONLY: [&str; 8] = [
    "workload",
    "tick",
    "maintain",
    "compact",
    "flush",
    "tree",
    "tombstones",
    "reopen",
];

fn help_text() -> String {
    let mut out = String::from("commands:");
    for (usage, what) in COMMANDS {
        // A usage too long for the column puts its text on the next line.
        let gap = if usage.len() > 28 {
            format!("\n{:31}", "")
        } else {
            " ".into()
        };
        out.push_str(&format!("\n  {usage:<28}{gap}{what}"));
    }
    out
}

fn usage(cmd: &str) -> String {
    let line = COMMANDS
        .iter()
        .map(|(usage, _)| *usage)
        .find(|usage| usage.split(' ').next() == Some(cmd))
        .unwrap_or(cmd);
    format!("usage: {line}")
}

fn number<T: FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{what} must be a number"))
}

/// Parse a shared command into its wire request; `Ok(None)` when `cmd`
/// is not one.
fn parse_request(cmd: &str, args: &[&str]) -> Result<Option<Request>, String> {
    let bytes = |s: &str| s.as_bytes().to_vec();
    let req = match (cmd, args) {
        ("put", [key, value]) => Request::Put {
            key: bytes(key),
            value: bytes(value),
            dkey: None,
        },
        ("put", [key, value, dkey]) => Request::Put {
            key: bytes(key),
            value: bytes(value),
            dkey: Some(number(dkey, "dkey")?),
        },
        ("get", [key]) => Request::Get { key: bytes(key) },
        ("del", [key]) => Request::Delete { key: bytes(key) },
        ("rdel", [lo, hi]) => Request::RangeDeleteSecondary {
            lo: number(lo, "lo")?,
            hi: number(hi, "hi")?,
        },
        ("delrange", [start, end]) => Request::RangeDeleteKeys {
            lo: bytes(start),
            hi: bytes(end),
        },
        ("scan", [lo, hi]) => Request::Scan {
            lo: bytes(lo),
            hi: bytes(hi),
        },
        ("put" | "get" | "del" | "rdel" | "delrange" | "scan", _) => return Err(usage(cmd)),
        ("stats", _) => Request::Stats,
        ("metrics", _) => Request::Metrics,
        ("events", _) => Request::Events,
        ("traces", _) => Request::Traces,
        ("audit", _) => Request::Audit,
        _ => return Ok(None),
    };
    Ok(Some(req))
}

/// Render a response, each kind one way whichever backend answered it.
/// `Busy` and `Err` become the error text.
pub fn render(resp: Response) -> Result<String, String> {
    let lossy = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    Ok(match resp {
        Response::Unit => "ok".into(),
        Response::Value(Some(v)) => lossy(&v),
        Response::Value(None) => "(not found)".into(),
        Response::Rows(rows) => {
            let mut out = String::new();
            for (k, v) in &rows {
                out.push_str(&format!("{} = {}\n", lossy(k), lossy(v)));
            }
            out.push_str(&format!("({} rows)", rows.len()));
            out
        }
        Response::Stats(pairs) => pairs
            .iter()
            .map(|(name, value)| format!("{name:<32} {value}"))
            .collect::<Vec<_>>()
            .join("\n"),
        Response::Text(text) => text.trim_end().to_string(),
        Response::Audit { violation, text } => {
            let text = text.trim_end();
            if violation {
                format!("{text}\nAUDIT VIOLATION")
            } else {
                text.to_string()
            }
        }
        Response::Trace {
            trace_id,
            op,
            spans,
            inner,
        } => {
            let mut out = format!("{}\ntrace {trace_id} {op}", render(*inner)?);
            for (name, value) in &spans {
                out.push_str(&format!("\n  {name:<28} {value}"));
            }
            out
        }
        Response::Busy => return Err("server busy; try again".into()),
        Response::Err(message) => return Err(message),
    })
}

impl Session {
    /// A fresh in-memory session with the given options: the engine is
    /// served to the session as a fleet of one.
    pub fn new(opts: DbOptions) -> Session {
        let db = Db::open(Arc::new(MemFs::new()), "demo", opts).expect("open demo db");
        Session::on(Backend::Local(ShardedDb::from(db)))
    }

    /// A session with demo-friendly defaults (small buffers, FADE on).
    pub fn demo() -> Session {
        Session::new(DbOptions::small().with_fade(50_000))
    }

    /// A session on a running `acheron serve` instance.
    pub fn connect(addr: &str) -> Result<Session, String> {
        Client::connect(addr)
            .map(|client| Session::on(Backend::Remote(client)))
            .map_err(|e| e.to_string())
    }

    fn on(backend: Backend) -> Session {
        Session {
            backend,
            tracing: false,
            next_trace_id: 1,
        }
    }

    /// Execute one command line.
    pub fn execute(&mut self, line: &str) -> Outcome {
        let mut parts = line.split_whitespace();
        let Some(cmd) = parts.next() else {
            return Outcome::Text(String::new());
        };
        if matches!(cmd, "quit" | "exit") {
            return Outcome::Quit;
        }
        let args: Vec<&str> = parts.collect();
        Outcome::Text(
            self.run(cmd, &args)
                .unwrap_or_else(|e| format!("error: {e}")),
        )
    }

    fn run(&mut self, cmd: &str, args: &[&str]) -> Result<String, String> {
        if let Some(mut req) = parse_request(cmd, args)? {
            if self.tracing
                && matches!(
                    req,
                    Request::Put { .. } | Request::Get { .. } | Request::Delete { .. }
                )
            {
                req = Request::Traced {
                    trace_id: self.next_trace_id,
                    inner: Box::new(req),
                };
                self.next_trace_id += 1;
            }
            return render(self.backend.call(&req)?);
        }
        match (cmd, &self.backend) {
            ("help", _) => Ok(help_text()),
            ("trace", _) => self.cmd_trace(args),
            ("ping", Backend::Remote(_)) => {
                render(self.backend.call(&Request::Ping)?)?;
                Ok("pong".into())
            }
            ("ping", Backend::Local(_)) => Err("`ping` needs a server (acheron connect)".into()),
            ("reopen", Backend::Local(fleet)) => {
                let fleet = reopen(fleet, args)?;
                let shown = format!("reopened with {:?}", fleet.options());
                self.backend = Backend::Local(fleet);
                Ok(shown)
            }
            (cmd, Backend::Local(fleet)) if EMBEDDED_ONLY.contains(&cmd) => {
                embedded(fleet, cmd, args)
            }
            (cmd, Backend::Remote(_)) if EMBEDDED_ONLY.contains(&cmd) => {
                Err(format!("`{cmd}` acts on the embedded engine only"))
            }
            (other, _) => Err(format!("unknown command {other:?}; try `help`")),
        }
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
            _ => Err(usage("trace")),
        }
    }
}

/// Restart the session's engine over the same filesystem, so the data
/// is kept, with the given options in place of its own.
fn reopen(fleet: &ShardedDb, args: &[&str]) -> Result<ShardedDb, String> {
    let mut opts = fleet.options().clone();
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
    let db = Db::open(fleet.shard(0).vfs(), "demo", opts).map_err(|e| e.to_string())?;
    Ok(ShardedDb::from(db))
}

/// The commands that act on the in-process engine itself rather than
/// through a request.
fn embedded(fleet: &ShardedDb, cmd: &str, args: &[&str]) -> Result<String, String> {
    let db = fleet.shard(0);
    let done =
        |r: acheron_types::Result<()>| r.map(|()| "ok".to_string()).map_err(|e| e.to_string());
    match (cmd, args) {
        ("workload", [n, put, del, get, scan]) => {
            let n: usize = number(n, "n")?;
            let (p, d, g, sc) = (
                number(put, "percentages")?,
                number(del, "percentages")?,
                number(get, "percentages")?,
                number(scan, "percentages")?,
            );
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
            let report = run_ops(fleet, &ops).map_err(|e| e.to_string())?;
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
        ("tick", [n]) => {
            fleet.advance_clock(number(n, "n")?);
            Ok(format!("clock now at {}", fleet.now()))
        }
        ("maintain", _) => done(fleet.maintain()),
        ("compact", _) => done(db.compact_all()),
        ("flush", _) => done(fleet.flush()),
        ("tree", _) => Ok(render_tree(db)),
        ("tombstones", _) => Ok(render_tombstones(db)),
        _ => Err(usage(cmd)),
    }
}

fn render_tree(db: &Db) -> String {
    let mut out = format!(
        "clock tick: {} | write-amp {:.2} | table bytes {}\n",
        db.now(),
        db.stats().write_amplification(),
        db.table_bytes()
    );
    for level in db.tombstone_gauges().levels {
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

fn render_tombstones(db: &Db) -> String {
    use std::sync::atomic::Ordering::Relaxed;
    let s = db.stats();
    let mut out = String::new();
    out.push_str(&format!(
        "live point tombstones: {}\n",
        db.live_tombstones()
    ));
    match db.oldest_live_tombstone_age() {
        Some(age) => out.push_str(&format!("oldest live tombstone age: {age} ticks\n")),
        None => out.push_str("oldest live tombstone age: -\n"),
    }
    if let Some(f) = &db.options().fade {
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
        db.live_range_tombstones().len()
    ));
    out.push_str(&format!(
        "live sort-key range tombstones: {}",
        db.live_key_range_tombstones()
    ));
    if let Some(age) = db.oldest_live_key_range_tombstone_age() {
        out.push_str(&format!(
            "\noldest sort-key range tombstone age: {age} ticks"
        ));
    }
    out
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
        assert_eq!(text(s.execute("del k")), "ok");
        assert_eq!(text(s.execute("get k")), "(not found)");
        s.execute("flush");
        let ts = text(s.execute("tombstones"));
        assert!(ts.contains("live point tombstones: 1"), "{ts}");
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
        assert_eq!(text(s.execute("rdel 15 25")), "ok");
        assert_eq!(text(s.execute("get a")), "v1");
        assert_eq!(text(s.execute("get b")), "(not found)");
        let ts = text(s.execute("tombstones"));
        assert!(ts.contains("live range tombstones: 1"), "{ts}");
    }

    #[test]
    fn delrange_erases_a_key_interval() {
        let mut s = Session::demo();
        s.execute("put user:1 a");
        s.execute("put user:2 b");
        s.execute("put zebra c");
        assert_eq!(text(s.execute("delrange user:1 user:9")), "ok");
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
        assert!(tree.contains("write-amp"), "{tree}");
        let ts = text(s.execute("tombstones"));
        assert!(ts.contains("live point tombstones"), "{ts}");
        let st = text(s.execute("stats"));
        assert!(st.contains("compaction_bytes_out"), "{st}");
        assert!(!st.contains("server_requests"), "{st}");
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
        let ts = text(s.execute("tombstones"));
        assert!(ts.contains("live point tombstones: 0"), "{ts}");
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
        assert!(text(s.execute("ping")).contains("needs a server"));
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
        let addr = server.local_addr().to_string();
        assert!(matches!(Backend::resolve(&addr), Ok(Backend::Remote(_))));
        let mut s = Session::connect(&addr).unwrap();
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
        assert!(text(s.execute("tree")).contains("embedded engine only"));
        assert_eq!(s.execute("quit"), Outcome::Quit);
        server.shutdown();
    }

    /// One script through an embedded session and through a remote one
    /// against a server over an equal engine: the data commands print
    /// the same bytes, and the audits reach the same verdict.
    #[test]
    fn embedded_and_remote_sessions_answer_alike() {
        use acheron_server::{Server, ServerOptions};
        // Each engine gets its own options, and so its own clock.
        let opts = || DbOptions::small().with_fade(10);
        let served = Db::open(Arc::new(MemFs::new()), "demo", opts()).unwrap();
        let mut server =
            Server::start(Arc::new(served), "127.0.0.1:0", ServerOptions::default()).unwrap();
        let mut local = Session::new(opts());
        let mut remote = Session::connect(&server.local_addr().to_string()).unwrap();
        let script = [
            "put a 1",
            "put b 2 10",
            "put user:1 x",
            "put user:2 y",
            "get a",
            "get nothing",
            "del a",
            "get a",
            "rdel 5 15",
            "get b",
            "delrange user:1 user:1",
            "get user:1",
            "get user:2",
            "scan a z",
            "scan",
            "rdel 1 x",
        ];
        let run = |s: &mut Session| -> Vec<String> {
            script.iter().map(|line| text(s.execute(line))).collect()
        };
        let embedded = run(&mut local);
        assert_eq!(embedded, run(&mut remote));
        assert_eq!(embedded[13], "user:2 = y\n(1 rows)");
        let verdict = |s: &mut Session| text(s.execute("audit")).contains("AUDIT VIOLATION");
        assert_eq!(verdict(&mut local), verdict(&mut remote));
        server.shutdown();
    }

    #[test]
    fn a_directory_target_resolves_before_an_address() {
        let dir = acheron_vfs::temp::TempDir::new("db:1");
        assert!(matches!(
            Backend::resolve(dir.path_str()),
            Ok(Backend::Local(_))
        ));
        match Backend::resolve("no-such-target") {
            Err(e) => assert!(e.contains("neither"), "{e}"),
            Ok(_) => panic!("resolved a target that is neither"),
        }
    }

    /// A one-shot `acheron audit <dir>` judges the tree the directory
    /// holds and leaves it so, over a three-shard root whose shards'
    /// L0s hold their file limit: the doctor reports the same tree
    /// before and after, and the offline and online verdicts agree at
    /// the oldest delete's age and one tick under it.
    #[test]
    fn one_shot_audit_judges_the_tree_on_disk_and_leaves_it() {
        use acheron::{check_root, DeleteAudit};
        let dir = acheron_vfs::temp::TempDir::new("audit-root");
        let root = dir.path_str();
        let fs = StdFs::new(false);
        let opts = DbOptions::small();
        let l0_limit = opts.level0_file_limit;
        let fleet = ShardedDb::open(Arc::new(StdFs::new(false)), root, opts, 3).unwrap();
        // Each flush of a buffer too small to seal adds one L0 file per
        // shard; a flush compacts nothing.
        for round in 0..l0_limit {
            for k in 0..40 {
                let key = format!("key{round}-{k:02}");
                fleet.put(key.as_bytes(), b"v").unwrap();
                if k % 4 == 0 {
                    fleet.delete(key.as_bytes()).unwrap();
                }
            }
            fleet.flush().unwrap();
        }
        drop(fleet);

        let doctor = |d_th| check_root(&fs, root, Some(d_th)).unwrap();
        let tree = |d_th| -> Vec<String> {
            (doctor(d_th).iter())
                .map(|r| format!("{} {:?} {:?}", r.entries, r.levels, r.audit))
                .collect()
        };
        let before = doctor(0);
        assert!(
            (before.iter()).any(|r| r.levels.first().is_some_and(|l| l.files == l0_limit as u64)),
            "{before:?}"
        );
        let offline = DeleteAudit::fleet(before.into_iter().map(|r| r.audit));
        let oldest = offline
            .oldest_live_tombstone_tick
            .expect("deletes stay live");
        let age = offline.now - oldest;
        let verdicts = [age, age - 1]
            .map(|d_th| DeleteAudit::fleet(doctor(d_th).into_iter().map(|r| r.audit)).ok());
        assert_eq!(verdicts, [true, false]);
        let tree_before = tree(age);

        // What `acheron audit <dir> --d-th <ticks>` runs.
        let Ok(Backend::Local(fleet)) = Backend::resolve(root) else {
            panic!("{root} did not open as a directory");
        };
        let online = fleet.delete_audit();
        drop(fleet);
        let judged = [age, age - 1].map(|d_th| {
            DeleteAudit {
                d_th: Some(d_th),
                ..online.clone()
            }
            .ok()
        });
        assert_eq!(judged, verdicts, "offline {offline:?}\nonline {online:?}");
        assert_eq!(tree(age), tree_before, "the audit changed the tree");
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
        assert!(del.starts_with("ok\ntrace 3 delete"), "{del}");
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
