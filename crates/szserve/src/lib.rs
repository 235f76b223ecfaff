//! The experiment service daemon (`sz-serve`) and its client library.
//!
//! Every paper artifact in this repository began life as a one-shot
//! `sz-bench` binary that recomputes its figures from scratch. This
//! crate turns the same experiment engine into a long-lived service:
//!
//! - [`proto`] — a line-delimited JSON wire protocol over TCP, parsed
//!   and encoded with [`sz_harness::report::Json`] (no new
//!   dependencies);
//! - [`scheduler`] — a bounded job queue over worker threads, with
//!   per-job deadlines, cancellation, and reject-with-retry-after
//!   backpressure so a flood of clients degrades gracefully;
//! - [`cache`] — a deterministic content-addressed result cache: runs
//!   are bit-identical for any thread count (pinned by
//!   `tests/determinism.rs`), so a hit can return the exact sample
//!   vectors and period snapshots of a prior computation;
//! - [`adaptive`] — adaptive sequential sampling: batches of
//!   re-randomized runs that stop early once the confidence interval
//!   on the effect size is narrower than a requested half-width
//!   (Kalibera & Jones' protocol), reporting samples saved vs the
//!   fixed 30-run paper methodology;
//! - [`event_loop`] — only `poll(2)`, declared locally (no new
//!   dependencies), for the accept loop, the load generator and
//!   sz-benchmark's client;
//! - [`loadgen`] — a poll-driven open-loop load generator (the
//!   `sz-loadgen` binary) that drives N concurrent clients and reports
//!   an HDR-style latency histogram;
//! - [`server`] — the single-node TCP daemon tying it together: one
//!   thread per connection answers each request before reading the
//!   next, and the sentinel's alerts are pushed to `watch`
//!   subscribers; the `sz-serve` and `szctl` binaries wrap it.
//!
//! # Example
//!
//! ```no_run
//! use sz_serve::server::{Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig::default()).unwrap();
//! println!("listening on {}", server.local_addr().unwrap());
//! server.serve(); // blocks until a shutdown request
//! ```

pub mod adaptive;
pub mod cache;
pub mod event_loop;
pub mod exec;
pub mod loadgen;
pub mod proto;
pub mod scheduler;
pub mod server;

pub use cache::{CacheKey, ResultCache};
pub use exec::JobOutput;
pub use proto::{AdaptiveParams, Experiment, Request, RunRequest, DEFAULT_ADDR};
pub use server::{FederationConfig, Server, ServerConfig};
