//! `acheron` — interactive terminal demo of the delete-aware LSM engine.
//!
//! Three modes:
//!
//! ```text
//! $ cargo run -p acheron-cli                     # embedded REPL
//! acheron demo (FADE D_th=50000, in-memory). `help` for commands.
//! > put user:1 alice
//! ok
//!
//! $ cargo run -p acheron-cli -- serve 127.0.0.1:7878    # network server
//! serving on 127.0.0.1:7878 (`status` for a status line, `quit` to stop)
//!
//! $ cargo run -p acheron-cli -- serve 127.0.0.1:7878 --shards 4 \
//!       --rate-limit 50000 --burst 1000    # sharded + admission control
//!
//! $ cargo run -p acheron-cli -- connect 127.0.0.1:7878  # network client
//! connected to 127.0.0.1:7878. `help` for commands.
//! > get user:1
//! ```
//!
//! One-shot observability (`host:port` hits a running server over the
//! wire; a directory opens the database offline):
//!
//! ```text
//! $ cargo run -p acheron-cli -- stats 127.0.0.1:7878     # metrics text
//! $ cargo run -p acheron-cli -- events /path/to/db      # event ring
//! $ cargo run -p acheron-cli -- trace 127.0.0.1:7878    # sampled op traces
//! $ cargo run -p acheron-cli -- audit /path/to/db       # D_th compliance
//! ```
//!
//! `audit` exits 0 when every delete family is within `D_th` and 1 on
//! a violation, so it can gate a deployment pipeline directly.
//!
//! Also scriptable: `echo "put a 1\nget a" | cargo run -p acheron-cli`.

#![forbid(unsafe_code)]

use std::io::{BufRead, Write};
use std::sync::Arc;

use acheron::{DbOptions, ShardedDb};
use acheron_cli::{Outcome, RemoteSession, Session};
use acheron_server::{Client, RateLimitConfig, Server, ServerOptions};
use acheron_vfs::{MemFs, StdFs};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("serve") => match ServeArgs::parse(&args[2..]) {
            Ok(serve_args) => serve(&serve_args),
            Err(e) => {
                eprintln!("{e}");
                eprintln!(
                    "usage: acheron serve [addr] [--shards N] [--memory-budget BYTES] \
                     [--rate-limit OPS] [--burst B]"
                );
                std::process::exit(2);
            }
        },
        Some("connect") => {
            let addr = args.get(2).map(String::as_str).unwrap_or("127.0.0.1:7878");
            match RemoteSession::connect(addr) {
                Ok(session) => repl(
                    session,
                    &format!("connected to {addr}. `help` for commands."),
                ),
                Err(e) => {
                    eprintln!("connect failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        Some(cmd @ ("stats" | "events")) => {
            let Some(target) = args.get(2) else {
                eprintln!("usage: acheron {cmd} <host:port | db-directory>");
                std::process::exit(2);
            };
            expose(cmd, target);
        }
        Some("trace") => {
            let Some(target) = args.get(2) else {
                eprintln!("usage: acheron trace <host:port>");
                std::process::exit(2);
            };
            trace_listing(target);
        }
        Some("audit") => match AuditArgs::parse(&args[2..]) {
            Ok(audit_args) => audit(&audit_args),
            Err(e) => {
                eprintln!("{e}");
                eprintln!("usage: acheron audit <host:port | db-directory> [--d-th TICKS]");
                std::process::exit(2);
            }
        },
        _ => repl(
            Session::demo(),
            "acheron demo (FADE D_th=50000, in-memory). `help` for commands.",
        ),
    }
}

/// One-shot exposition: print the metrics text (`stats`) or the event
/// ring (`events`) and exit. A `host:port` target queries a running
/// server over the wire; anything else is treated as a database
/// directory and opened offline (recovery events included).
fn expose(cmd: &str, target: &str) {
    let result = if target.contains(':') {
        Client::connect(target)
            .and_then(|mut client| match cmd {
                "stats" => client.metrics(),
                _ => client.events(),
            })
            .map_err(|e| format!("query {target}: {e}"))
    } else if std::path::Path::new(target).is_dir() {
        // The same text a server over this root would send, less the
        // server's own pairs.
        open_dir(target).map(|db| match cmd {
            "stats" => db.render_metrics(&[]),
            _ => db.events_text(),
        })
    } else {
        Err(format!(
            "{target} is neither a host:port address nor a database directory"
        ))
    };
    match result {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

/// Open the database directory `dir` offline, whichever shape it holds
/// (recovery events included).
fn open_dir(dir: &str) -> Result<ShardedDb, String> {
    ShardedDb::open_root(Arc::new(StdFs::new(false)), dir, DbOptions::default())
        .map_err(|e| format!("open {dir}: {e}"))
}

/// One-shot trace listing: print the server's recently sampled per-op
/// traces. Traces are runtime state held in the engine's retention
/// ring, so only a live server can answer — a directory has none.
fn trace_listing(target: &str) {
    if !target.contains(':') {
        eprintln!("traces are runtime state; `acheron trace` needs a running server (host:port)");
        std::process::exit(2);
    }
    match Client::connect(target).and_then(|mut client| client.traces()) {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("query {target}: {e}");
            std::process::exit(1);
        }
    }
}

/// Parsed `audit` subcommand arguments.
struct AuditArgs {
    target: String,
    d_th: Option<u64>,
}

impl AuditArgs {
    fn parse(args: &[String]) -> Result<AuditArgs, String> {
        let mut target = None;
        let mut d_th = None;
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--d-th" => {
                    let v = it.next().ok_or("--d-th requires a value")?;
                    d_th = Some(
                        v.parse()
                            .map_err(|_| "--d-th must be an integer (ticks)".to_string())?,
                    );
                }
                other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
                other => {
                    if target.replace(other.to_string()).is_some() {
                        return Err(format!("unexpected extra argument {other}"));
                    }
                }
            }
        }
        Ok(AuditArgs {
            target: target.ok_or("audit needs a target")?,
            d_th,
        })
    }
}

/// One-shot delete-lifecycle audit. Prints the per-cohort report and
/// exits 0 when every delete family is within `D_th`, 1 on a
/// violation. A `host:port` target asks a running server (which judges
/// by its own configured threshold); a directory is opened offline —
/// the cohort ledger is runtime state, so an offline audit judges by
/// the persistent gauges alone. `--d-th` overrides the threshold for
/// directory targets.
fn audit(args: &AuditArgs) {
    let target = args.target.as_str();
    if target.contains(':') {
        if args.d_th.is_some() {
            eprintln!("--d-th applies to directory targets; a server judges by its own threshold");
            std::process::exit(2);
        }
        match Client::connect(target).and_then(|mut client| client.audit()) {
            Ok((violation, text)) => {
                print!("{text}");
                std::process::exit(i32::from(violation));
            }
            Err(e) => {
                eprintln!("query {target}: {e}");
                std::process::exit(1);
            }
        }
    }
    if !std::path::Path::new(target).is_dir() {
        eprintln!("{target} is neither a host:port address nor a database directory");
        std::process::exit(2);
    }
    match open_dir(target).map(|db| db.delete_audit()) {
        Ok(mut report) => {
            if args.d_th.is_some() {
                report.d_th = args.d_th;
            }
            print!("{}", report.render());
            std::process::exit(i32::from(!report.ok()));
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

/// Parsed `serve` subcommand arguments.
struct ServeArgs {
    addr: String,
    shards: usize,
    /// One unified byte budget across memtables, the shared block
    /// cache, and pinned filters (`DbOptions::memory_budget_bytes`);
    /// 0 keeps the preset's static sizing.
    memory_budget: usize,
    rate_limit: Option<RateLimitConfig>,
}

impl ServeArgs {
    /// Parse `[addr] [--shards N] [--memory-budget BYTES]
    /// [--rate-limit OPS] [--burst B]`. `--burst` without
    /// `--rate-limit` is rejected (a burst cap is meaningless with no
    /// sustained rate to refill at).
    fn parse(args: &[String]) -> Result<ServeArgs, String> {
        let mut addr = None;
        let mut shards = 1usize;
        let mut memory_budget = 0usize;
        let mut rate: Option<u64> = None;
        let mut burst: Option<u64> = None;
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut flag_value =
                |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
            match arg.as_str() {
                "--shards" => {
                    shards = flag_value("--shards")?
                        .parse()
                        .map_err(|_| "--shards must be a positive integer".to_string())?;
                    if shards == 0 {
                        return Err("--shards must be at least 1".into());
                    }
                }
                "--memory-budget" => {
                    memory_budget = flag_value("--memory-budget")?
                        .parse()
                        .map_err(|_| "--memory-budget must be an integer (bytes)".to_string())?;
                    if memory_budget > 0 && memory_budget < 64 * 1024 {
                        return Err("--memory-budget must be 0 or at least 65536 bytes".into());
                    }
                }
                "--rate-limit" => {
                    rate =
                        Some(flag_value("--rate-limit")?.parse().map_err(|_| {
                            "--rate-limit must be an integer (ops/sec)".to_string()
                        })?);
                }
                "--burst" => {
                    burst = Some(
                        flag_value("--burst")?
                            .parse()
                            .map_err(|_| "--burst must be an integer".to_string())?,
                    );
                }
                other if other.starts_with("--") => {
                    return Err(format!("unknown flag {other}"));
                }
                other => {
                    if addr.replace(other.to_string()).is_some() {
                        return Err(format!("unexpected extra argument {other}"));
                    }
                }
            }
        }
        let rate_limit = match (rate, burst) {
            (Some(ops_per_sec), burst) => Some(RateLimitConfig {
                ops_per_sec,
                burst: burst.unwrap_or(ops_per_sec.max(1)),
            }),
            (None, Some(_)) => return Err("--burst requires --rate-limit".into()),
            (None, None) => None,
        };
        Ok(ServeArgs {
            addr: addr.unwrap_or_else(|| "127.0.0.1:7878".into()),
            shards,
            memory_budget,
            rate_limit,
        })
    }
}

/// Serve an in-memory demo database until stdin closes or says `quit`.
/// Any other input line prints the server status line, so an operator
/// can watch connections, throughput, and backpressure state live.
/// `--shards N` partitions the keyspace across N engines;
/// `--memory-budget BYTES` puts memtables, the block cache, and pinned
/// filters under one adaptively split budget; `--rate-limit` adds
/// per-connection token-bucket admission control.
fn serve(args: &ServeArgs) {
    let mut opts = DbOptions::small().with_fade(50_000);
    if args.memory_budget > 0 {
        opts = opts.with_memory_budget(args.memory_budget);
    }
    // A fresh root: `--shards N` lays out a fleet, otherwise the root
    // opens as one plain engine.
    let fs = Arc::new(MemFs::new());
    let opened = if args.shards > 1 {
        ShardedDb::open(fs, "serve-db", opts, args.shards)
    } else {
        ShardedDb::open_root(fs, "serve-db", opts)
    };
    let engine = match opened {
        Ok(db) => Arc::new(db),
        Err(e) => {
            eprintln!("open failed: {e}");
            std::process::exit(1);
        }
    };
    let server_opts = ServerOptions {
        rate_limit: args.rate_limit,
        ..ServerOptions::default()
    };
    let mut server = match Server::start(engine, args.addr.as_str(), server_opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "serving on {} (`status` for a status line, `quit` to stop)",
        server.local_addr()
    );
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line.trim() == "quit" => break,
            Ok(_) => println!("{}", server.status_line()),
            Err(_) => break,
        }
    }
    // Shutdown ordering: stop the service (drains in-flight requests),
    // then drop the engine handle (joins its background executor).
    server.shutdown();
    println!("stopped: {}", server.status_line());
}

/// The REPL loop, generic over embedded and remote sessions.
trait Exec {
    fn exec(&mut self, line: &str) -> Outcome;
}

impl Exec for Session {
    fn exec(&mut self, line: &str) -> Outcome {
        self.execute(line)
    }
}

impl Exec for RemoteSession {
    fn exec(&mut self, line: &str) -> Outcome {
        self.execute(line)
    }
}

fn repl(mut session: impl Exec, banner: &str) {
    let interactive = std::env::args().all(|a| a != "--quiet");
    if interactive {
        println!("{banner}");
    }
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    loop {
        if interactive {
            print!("> ");
            let _ = stdout.flush();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        match session.exec(line.trim()) {
            Outcome::Quit => break,
            Outcome::Text(t) => {
                if !t.is_empty() {
                    println!("{t}");
                }
            }
        }
    }
}
