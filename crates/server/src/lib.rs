//! `reordd` — the reordering pipeline as a long-running concurrent
//! service.
//!
//! The paper's economics (§I-E) hinge on amortising analysis cost across
//! many executions of the same program. This crate turns that into a
//! deployable shape: a TCP daemon that runs the `reorder` pipeline
//! behind a **content-addressed result cache** (one computation per
//! distinct `(program, config)`, LRU-bounded, single-flight
//! deduplicated), with **overload shedding** at a bounded accept queue,
//! **per-request time budgets**, **panic isolation**, and a `stats`
//! surface that reuses the pipeline's [`reorder::RunStats`] encoding.
//!
//! Wire format: length-prefixed JSON, specified in `PROTOCOL.md` and
//! implemented in [`proto`] (`std`-only — no external dependencies).
//!
//! Binaries:
//! * `reordd` — the daemon.
//! * `reordd-bench` — a concurrent load generator over the evaluation
//!   workloads (`prolog-workloads`) and difftest-generated programs,
//!   reporting throughput and cold/cached latency percentiles.

pub mod cache;
pub mod client;
pub mod conn;
pub mod loadgen;
pub mod metrics;
pub mod proto;
pub mod reactor;
pub mod ring;
pub mod service;
pub mod store;

/// Version of the benchmark trajectory document the serving rows are
/// published into. Owned here (rather than in the bench crate) so the
/// serving section's producer and the schema gate can never drift apart;
/// `crates/bench` re-exports it as `BENCH_SCHEMA_VERSION`.
///
/// v4: `serving` section (open-loop health + warm-start hit ratio)
/// added alongside the v3 sections. v5: every wall-clock field dropped
/// (latency percentiles, `wall_us`); the document carries counts only
/// and `perfbench` owns time.
pub const TRAJECTORY_SCHEMA_VERSION: u64 = 5;

pub use cache::{content_key, CacheCounters, CachedOutcome, Fetch, ResultCache};
pub use client::Client;
pub use metrics::Metrics;
pub use proto::{
    read_frame, write_frame, ErrorCode, Json, Request, Response, WireConfig, WireError, MAX_FRAME,
    PROTOCOL_VERSION,
};
pub use ring::Ring;
pub use service::{install_signal_handlers, Server, ServerConfig};
pub use store::{DiskStore, StoreStats};
