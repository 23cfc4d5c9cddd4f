//! Cost-driven source-to-source reordering of Prolog programs — the
//! primary contribution of Gooley & Wah, *Efficient Reordering of Prolog
//! Programs* (ICDE 1988).
//!
//! Given a Prolog program, the reorderer:
//!
//! 1. runs the static analyses (fixity, semifixity, recursion, legal
//!    modes — see `prolog-analysis`);
//! 2. estimates a success probability and expected cost for every
//!    predicate in every calling mode, propagating bottom-up over the call
//!    graph with the absorbing-Markov-chain clause model
//!    (`prolog-markov`);
//! 3. for each predicate and each legal `+`/`-` calling mode, picks the
//!    cheapest legal order of goals in every clause (exhaustive search for
//!    short bodies, best-first A* otherwise) and the best order of clauses
//!    (decreasing `p/c`), honouring every restriction of paper §IV;
//! 4. emits a **mode-specialised** program: one version per calling mode
//!    (`aunt_uu`, `aunt_ui`, …) plus `var/1`-test dispatchers, exactly the
//!    output format of paper §VII.
//!
//! # Quickstart
//!
//! ```
//! use reorder::{ReorderConfig, Reorderer};
//!
//! let src = "
//!     girl(ann). girl(sue).
//!     wife(tom, amy). wife(jim, eve).
//!     female(X) :- girl(X).
//!     female(X) :- wife(_, X).
//!     grandmother(GC, GM) :- grandparent(GC, GM), female(GM).
//!     grandparent(GC, GP) :- parent(P, GP), parent(GC, P).
//!     parent(C, P) :- mother(C, P).
//!     parent(C, P) :- mother(C, M), wife(P, M).
//!     mother(bob, ann). mother(tom, sue).
//! ";
//! let program = prolog_syntax::parse_program(src).unwrap();
//! let result = Reorderer::new(&program, ReorderConfig::default()).run();
//! // The reordered program contains mode-specialised versions …
//! assert!(result
//!     .program
//!     .predicates()
//!     .iter()
//!     .any(|p| p.name.as_str() == "grandmother_uu"));
//! // … and the report records the per-mode decisions.
//! assert!(!result.report.predicates.is_empty());
//! ```

pub mod blocks;
pub mod clause_order;
pub mod config;
pub mod costs;
pub mod driver;
pub mod empirical;
pub mod entry;
pub mod oracle;
pub mod report;
pub mod scan;
pub mod search;
pub mod specialize;
pub mod unfold;
pub mod warren;

pub use config::{CostModelKind, ReorderConfig};
pub use costs::Estimator;
pub use driver::{ReorderResult, Reorderer};
pub use empirical::{
    calibrate, calibrate_detailed, calibrate_loop, harvest_universe, ArgDomains, CalibrationConfig,
    CalibrationOptions, CalibrationOutcome, CalibrationRound, DetailedCosts, DivergenceRow,
    MeasuredCosts, PairMeasurement,
};
pub use entry::{
    calibrate_source, reorder_source, reorder_source_calibrated, reorder_source_with, SourceOutcome,
};
pub use oracle::ModeOracle;
pub use report::{ModeReport, PredicateReport, ReorderReport, RunStats};
pub use unfold::{unfold_program, UnfoldConfig};
