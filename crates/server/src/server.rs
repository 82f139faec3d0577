//! The TCP server: a bounded thread-per-connection accept loop over a
//! shared [`ShardedDb`] (a fleet, or a plain `Db` served as a fleet of
//! one), with graceful shutdown.
//!
//! # Threading
//!
//! One accept thread owns the (nonblocking) listener and spawns one
//! handler thread per connection, up to
//! [`ServerOptions::max_connections`]; beyond that, new connections are
//! greeted with an `Err` frame and closed immediately rather than
//! queued. Handler threads share the engine through an `Arc` — each
//! engine's own write mutex and versioned reads make that safe (see
//! `ARCHITECTURE.md`).
//!
//! # Shutdown ordering
//!
//! [`Server::shutdown`] (1) flips the shutdown flag so the accept loop
//! stops taking connections, (2) joins the accept thread, (3) waits for
//! every handler to drain the complete request frames it has already
//! buffered and exit, then returns. Only after that should the caller
//! drop its `Db` handle, which joins the engine's background executor
//! and (on the last handle) closes the WAL.

use std::net::{TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use acheron::{Db, ShardedDb};
use acheron_types::{Error, Result};
use parking_lot::Mutex;

use crate::conn;
use crate::metrics::ServerMetrics;
use crate::rate_limit::RateLimitConfig;
use crate::wire::DEFAULT_MAX_FRAME_BYTES;

/// Tunables for a server instance.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Connection pool bound; further connections are refused with an
    /// `Err` frame (never silently queued).
    pub max_connections: usize,
    /// Per-frame payload cap enforced before buffering.
    pub max_frame_bytes: usize,
    /// How long a blocked read/accept waits before re-checking the
    /// shutdown flag. Also the per-connection read timeout granularity.
    pub poll_interval: Duration,
    /// Idle time after which a silent connection is dropped. `None`
    /// keeps idle connections forever.
    pub idle_timeout: Option<Duration>,
    /// Per-connection write timeout for response frames.
    pub write_timeout: Duration,
    /// Per-connection admission control: data operations beyond the
    /// token bucket's allowance are shed as `Busy` before reaching any
    /// engine. `None` (the default) admits everything.
    pub rate_limit: Option<RateLimitConfig>,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            max_connections: 64,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            poll_interval: Duration::from_millis(5),
            idle_timeout: None,
            write_timeout: Duration::from_secs(30),
            rate_limit: None,
        }
    }
}

/// What [`Server::start`] serves: a fleet, or a plain engine, which is
/// served as a fleet of one ([`ShardedDb::from`]).
pub trait IntoFleet {
    /// The handle every connection dispatches to.
    fn into_fleet(self) -> Arc<ShardedDb>;
}

impl IntoFleet for Arc<Db> {
    fn into_fleet(self) -> Arc<ShardedDb> {
        Arc::new(ShardedDb::from(Db::clone(&self)))
    }
}

impl IntoFleet for Arc<ShardedDb> {
    fn into_fleet(self) -> Arc<ShardedDb> {
        self
    }
}

/// State shared between the accept loop and every connection handler.
pub(crate) struct Shared {
    pub(crate) engine: Arc<ShardedDb>,
    pub(crate) opts: ServerOptions,
    pub(crate) metrics: Arc<ServerMetrics>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) conns: Mutex<Vec<JoinHandle<()>>>,
}

/// A running server. Dropping the handle does *not* stop it; call
/// [`Server::shutdown`].
pub struct Server {
    shared: Arc<Shared>,
    local_addr: std::net::SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` and start serving `engine` on background threads:
    /// an `Arc<ShardedDb>` fleet or a plain `Arc<Db>` (see
    /// [`IntoFleet`]).
    pub fn start(
        engine: impl IntoFleet,
        addr: impl ToSocketAddrs,
        opts: ServerOptions,
    ) -> Result<Server> {
        let engine = engine.into_fleet();
        let listener = TcpListener::bind(addr).map_err(|e| Error::io("server bind", e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| Error::io("server local_addr", e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| Error::io("server set_nonblocking", e))?;
        let shared = Arc::new(Shared {
            engine,
            opts,
            metrics: Arc::new(ServerMetrics::default()),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = thread::Builder::new()
            .name("acheron-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(|e| Error::io("spawn accept thread", e))?;
        Ok(Server {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// This server's metrics registry.
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// One-line status summary for interactive SERVE mode.
    pub fn status_line(&self) -> String {
        let m = &self.shared.metrics;
        let wp = self.shared.engine.write_pressure();
        format!(
            "shards={} conns={} reqs={} busy={} proto_errs={} in={}B out={}B l0={}{}",
            self.shared.engine.shard_count(),
            m.open_connections(),
            m.requests.load(Ordering::Relaxed),
            m.busy_responses.load(Ordering::Relaxed),
            m.protocol_errors.load(Ordering::Relaxed),
            m.bytes_in.load(Ordering::Relaxed),
            m.bytes_out.load(Ordering::Relaxed),
            wp.l0_files,
            if wp.stall {
                " [STALL]"
            } else if wp.slowdown {
                " [SLOWDOWN]"
            } else {
                ""
            },
        )
    }

    /// Stop accepting, drain in-flight requests, and join every server
    /// thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // The accept thread has exited, so no new handles can appear.
        let handles = std::mem::take(&mut *self.shared.conns.lock());
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Reap finished handlers so the handle list doesn't grow
                // without bound on long-lived servers.
                shared.conns.lock().retain(|h| !h.is_finished());
                let open = shared.metrics.open_connections() as usize;
                if open >= shared.opts.max_connections {
                    shared
                        .metrics
                        .connections_rejected
                        .fetch_add(1, Ordering::Relaxed);
                    conn::refuse(stream, &shared);
                    continue;
                }
                shared
                    .metrics
                    .connections_opened
                    .fetch_add(1, Ordering::Relaxed);
                let conn_shared = Arc::clone(&shared);
                match thread::Builder::new()
                    .name("acheron-conn".into())
                    .spawn(move || conn::run(stream, conn_shared))
                {
                    Ok(handle) => shared.conns.lock().push(handle),
                    Err(_) => {
                        shared
                            .metrics
                            .connections_closed
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(shared.opts.poll_interval);
            }
            Err(_) => thread::sleep(shared.opts.poll_interval),
        }
    }
}
