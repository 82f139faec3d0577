//! # Acheron service layer
//!
//! Everything needed to serve an [`acheron::Db`] over TCP and talk to
//! it, with **no async runtime and no networking dependencies** — just
//! `std::net` and threads, matching the rest of the workspace's
//! std-only discipline:
//!
//! * [`wire`] — the length-prefixed, CRC32C-framed binary protocol
//!   (requests, responses, and an incremental [`wire::FrameDecoder`]).
//! * [`answer`] — the one map from a [`Request`] to the engine. A
//!   server connection answers through it, and so do the embedded REPL
//!   and the offline one-shot subcommands of `acheron-cli`.
//! * [`Server`] — a bounded thread-per-connection TCP server with
//!   server-side write batching, end-to-end backpressure (engine stall
//!   → wire [`wire::Response::Busy`]; at slowdown the engine delays
//!   each write itself), and graceful shutdown. It serves one
//!   `Arc<acheron::ShardedDb>`: a hash-partitioned fleet, or a plain
//!   `Arc<Db>` served as a fleet of one (see [`IntoFleet`]) — one code
//!   path for both shapes, whose rendering differences live in
//!   `acheron::sharded`.
//! * [`RateLimitConfig`] — per-connection token-bucket admission
//!   control; over-rate data operations are shed as `Busy` before they
//!   reach any engine, composing with the engine's own stall/slowdown
//!   tiers.
//! * [`Client`] — a synchronous, pipelined client with
//!   reconnect-on-drop and busy backoff; it implements
//!   [`acheron_workload::OpSink`], so one seeded workload can drive
//!   the engine embedded or over the wire and be checked for
//!   result-identity.
//! * [`ServerMetrics`] — per-op latency histograms plus
//!   connection/byte/error counters, exposed through the `stats` wire
//!   command.
//!
//! ```no_run
//! use acheron::{Db, DbOptions};
//! use acheron_server::{Client, Server, ServerOptions};
//! use acheron_vfs::MemFs;
//! use std::sync::Arc;
//!
//! let db = Arc::new(Db::open(Arc::new(MemFs::new()), "db", DbOptions::small()).unwrap());
//! let mut server = Server::start(db, "127.0.0.1:0", ServerOptions::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! client.put(b"k", b"v").unwrap();
//! assert_eq!(client.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod answer;
pub mod client;
mod conn;
pub mod metrics;
pub mod rate_limit;
pub mod server;
pub mod wire;

pub use answer::answer;
pub use client::{Client, ClientOptions, TracedResult};
pub use metrics::ServerMetrics;
pub use rate_limit::{RateLimitConfig, TokenBucket};
pub use server::{IntoFleet, Server, ServerOptions};
pub use wire::{Request, Response};
