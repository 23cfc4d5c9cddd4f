//! Differential testing of the reordering pipeline.
//!
//! The paper's safety argument — fixity, semifixity, barriers, and legal
//! modes guarantee the transformed program computes the same answers —
//! is only as good as the workloads it is checked on. This crate widens
//! the check from three hand-written workloads to an unbounded family of
//! generated ones:
//!
//! * [`generate`] draws well-formed, mode-exercising Prolog programs from
//!   a seeded stream: facts over small Herbrand domains, stratified rule
//!   layers, bounded recursion, cut, negation, disjunction, if-then-else,
//!   arithmetic and test built-ins, and fixed (side-effecting)
//!   predicates — plus per-program query workloads in several
//!   instantiation modes.
//! * [`oracle`] runs each program and its reordered output through the
//!   real engine and demands: identical solution multisets per query,
//!   side-effect output preserved (as a line multiset), call counters
//!   within a configurable budget, and byte-identical emission across
//!   `--jobs 1/2/8`.
//! * [`shrink`] minimises a failing case by deleting queries, clauses,
//!   and goals while the discrepancy persists, so a failure is reported
//!   as a small, seed-reproducible program.
//! * [`corpus`] persists shrunk reproducers under `tests/corpus/` where a
//!   replay test turns them into permanent regression fixtures.
//! * [`backends`] cross-checks each generated program's Datalog-safe
//!   fragment against the bottom-up semi-naive backend: the same
//!   solution sets top-down and bottom-up (modulo multiplicity — bottom-up
//!   is set-semantics), and the same fixpoint under every body-ordering
//!   strategy.
//!
//! The `difftest` binary drives all of these (see `src/bin/difftest.rs`).

pub mod backends;
pub mod corpus;
pub mod generate;
pub mod oracle;
pub mod shrink;

pub use backends::{run_cross_backend, BackendConfig, BackendDiscrepancy, BackendOutcome};
pub use corpus::{load_case, render_case, save_case};
pub use generate::{corpus_texts, generate_case, Features, GenConfig, Query, TestCase};
pub use oracle::{run_case, CaseOutcome, Discrepancy, InjectedBug, OracleConfig};
pub use shrink::{shrink_case, ShrinkStats};
