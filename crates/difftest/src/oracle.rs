//! The metamorphic oracle: a generated program and its reordered output
//! must be observationally equivalent.
//!
//! Per query, in every generated instantiation mode:
//!
//! * the **solution multisets** must be identical (answers may arrive in
//!   a different order, but none may appear, disappear, or change
//!   multiplicity);
//! * **side-effect output** must match as a line multiset (clause
//!   reordering of pure predicates legitimately permutes the solution
//!   order feeding a fixed caller, so the set of written lines — not
//!   their interleaving — is the invariant);
//! * the reordered run's **call counters** must stay within a
//!   configurable budget of the original's (a reordering that explodes
//!   cost is a bug even when the answers agree);
//! * **emission is byte-identical** across `--jobs 1/2/8`.
//!
//! Queries whose *original* run errors (an illegal instantiation mode,
//! e.g. arithmetic on an unbound variable) or truncates at the solution
//! cap are skipped and counted — the transformation makes no promise for
//! illegal modes. An error in the *reordered* run alone is a discrepancy.

use crate::generate::{Features, Query, TestCase};
use prolog_engine::{Engine, MachineConfig, QueryOutcome};
use prolog_syntax::{Body, SourceProgram};
use reorder::{ReorderConfig, Reorderer};
use std::fmt;

/// A deliberately broken reordering, used to validate that the harness
/// catches and shrinks real transformation bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InjectedBug {
    #[default]
    None,
    /// Swap the first two top-level goals of the first multi-goal clause,
    /// ignoring every legality restriction.
    SwapGoals,
    /// Delete the last clause of the first multi-clause predicate.
    DropClause,
    /// Swap the first two clauses of the first multi-clause predicate
    /// (unsound in the presence of cut or side effects).
    SwapClauses,
}

impl InjectedBug {
    pub fn parse(s: &str) -> Option<InjectedBug> {
        match s {
            "none" => Some(InjectedBug::None),
            "swap-goals" => Some(InjectedBug::SwapGoals),
            "drop-clause" => Some(InjectedBug::DropClause),
            "swap-clauses" => Some(InjectedBug::SwapClauses),
            _ => None,
        }
    }
}

/// Oracle tuning.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Call budget for the original run; queries that exceed it are
    /// skipped as too expensive.
    pub max_calls: u64,
    /// Activation-depth guard for both runs.
    pub max_depth: usize,
    /// Solution cap; queries that truncate are skipped (their prefixes
    /// are not order-comparable).
    pub max_solutions: usize,
    /// The reordered run may use at most
    /// `original_calls * budget_factor + budget_slack` calls.
    pub budget_factor: f64,
    pub budget_slack: u64,
    /// Also check that emission is byte-identical across jobs 1/2/8.
    pub check_jobs: bool,
    /// Corrupt the reordered program to validate the harness itself.
    pub inject: InjectedBug,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            max_calls: 200_000,
            max_depth: 10_000,
            max_solutions: 2_000,
            budget_factor: 16.0,
            budget_slack: 10_000,
            check_jobs: true,
            inject: InjectedBug::None,
        }
    }
}

/// One way a case can fail the oracle.
#[derive(Debug, Clone, PartialEq)]
pub enum Discrepancy {
    /// Emitted program text differs between worker counts.
    JobsDivergence { jobs: usize },
    /// The reordered program raised an error on a query the original ran
    /// cleanly (includes blowing the call budget).
    ReorderedError { query: String, error: String },
    /// Solution multisets differ.
    SolutionMismatch {
        query: String,
        missing: Vec<String>,
        extra: Vec<String>,
    },
    /// Side-effect output differs as a line multiset.
    OutputMismatch {
        query: String,
        original: String,
        reordered: String,
    },
    /// Counters diverged past the budget without erroring.
    BudgetExceeded {
        query: String,
        original_calls: u64,
        reordered_calls: u64,
        budget: u64,
    },
}

impl fmt::Display for Discrepancy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Discrepancy::JobsDivergence { jobs } => {
                write!(f, "emission differs between --jobs 1 and --jobs {jobs}")
            }
            Discrepancy::ReorderedError { query, error } => {
                write!(f, "reordered program errors on `{query}`: {error}")
            }
            Discrepancy::SolutionMismatch {
                query,
                missing,
                extra,
            } => {
                write!(
                    f,
                    "solution multiset mismatch on `{query}`: {} missing, {} extra",
                    missing.len(),
                    extra.len()
                )?;
                for m in missing.iter().take(3) {
                    write!(f, "\n  missing: {m}")?;
                }
                for e in extra.iter().take(3) {
                    write!(f, "\n  extra:   {e}")?;
                }
                Ok(())
            }
            Discrepancy::OutputMismatch { query, .. } => {
                write!(f, "side-effect output differs on `{query}`")
            }
            Discrepancy::BudgetExceeded {
                query,
                original_calls,
                reordered_calls,
                budget,
            } => write!(
                f,
                "counter divergence on `{query}`: {original_calls} calls originally, \
                 {reordered_calls} reordered (budget {budget})"
            ),
        }
    }
}

/// What running one case produced.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// The first discrepancy found, if any.
    pub discrepancy: Option<Discrepancy>,
    /// Queries compared end to end.
    pub compared: usize,
    /// Queries skipped because the original run errored or truncated.
    pub skipped: usize,
    /// The case's construct coverage (copied from the generator).
    pub features: Features,
}

/// Budget for the reordered run, derived from the original's cost.
fn reordered_budget(config: &OracleConfig, original_calls: u64) -> u64 {
    (original_calls as f64 * config.budget_factor) as u64 + config.budget_slack
}

/// Multiset of output lines, order-insensitive.
fn line_multiset(s: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = s.lines().collect();
    lines.sort_unstable();
    lines
}

/// Applies the injected bug to the reordered program.
fn corrupt(program: &mut SourceProgram, bug: InjectedBug) {
    match bug {
        InjectedBug::None => {}
        InjectedBug::SwapGoals => {
            for clause in program.clauses.iter_mut() {
                let conjuncts: Vec<Body> = clause.body.conjuncts().into_iter().cloned().collect();
                let calls = conjuncts
                    .iter()
                    .filter(|g| matches!(g, Body::Call(_)))
                    .count();
                if calls >= 2 {
                    let mut goals = conjuncts;
                    let first = goals
                        .iter()
                        .position(|g| matches!(g, Body::Call(_)))
                        .expect("counted above");
                    let second = goals
                        .iter()
                        .skip(first + 1)
                        .position(|g| matches!(g, Body::Call(_)))
                        .map(|i| i + first + 1)
                        .expect("counted above");
                    goals.swap(first, second);
                    clause.body = Body::conjoin(&goals);
                    return;
                }
            }
        }
        InjectedBug::DropClause => {
            if let Some(pred) = first_multi_clause_pred(program) {
                let last = program
                    .clauses
                    .iter()
                    .rposition(|c| c.pred_id() == pred)
                    .expect("predicate has clauses");
                program.clauses.remove(last);
            }
        }
        InjectedBug::SwapClauses => {
            if let Some(pred) = first_multi_clause_pred(program) {
                let idx: Vec<usize> = program
                    .clauses
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.pred_id() == pred)
                    .map(|(i, _)| i)
                    .collect();
                program.clauses.swap(idx[0], idx[1]);
            }
        }
    }
}

fn first_multi_clause_pred(program: &SourceProgram) -> Option<prolog_syntax::PredId> {
    program
        .predicates()
        .into_iter()
        .find(|&p| program.clauses_of(p).len() >= 2)
}

/// Runs the full oracle over one case.
pub fn run_case(case: &TestCase, config: &OracleConfig) -> CaseOutcome {
    let outcome = |discrepancy, compared, skipped| CaseOutcome {
        discrepancy,
        compared,
        skipped,
        features: case.features,
    };

    // Reorder serially; that run is the reference output.
    let reorder_config = ReorderConfig {
        jobs: 1,
        ..Default::default()
    };
    let result = Reorderer::new(&case.program, reorder_config).run();
    let mut reordered = result.program;

    // Emission determinism across worker counts.
    if config.check_jobs {
        let reference = prolog_syntax::pretty::program_to_string(&reordered);
        for jobs in [2, 8] {
            let parallel = Reorderer::new(
                &case.program,
                ReorderConfig {
                    jobs,
                    ..Default::default()
                },
            )
            .run();
            if prolog_syntax::pretty::program_to_string(&parallel.program) != reference {
                return outcome(Some(Discrepancy::JobsDivergence { jobs }), 0, 0);
            }
        }
    }

    corrupt(&mut reordered, config.inject);

    // Shrinking can orphan calls; undefined predicates must fail, not
    // abort, and identically so on both sides.
    let machine_config = MachineConfig {
        max_calls: config.max_calls,
        max_depth: config.max_depth,
        unknown_fails: true,
        ..Default::default()
    };
    let mut original_engine = Engine::with_config(machine_config);
    original_engine.load(&case.program);
    let mut reordered_engine = Engine::with_config(machine_config);
    reordered_engine.load(&reordered);

    let mut compared = 0;
    let mut skipped = 0;
    for query in &case.queries {
        match compare_query(query, &mut original_engine, &mut reordered_engine, config) {
            QueryVerdict::Agree => compared += 1,
            QueryVerdict::Skipped => skipped += 1,
            QueryVerdict::Diverged(d) => return outcome(Some(d), compared, skipped),
        }
    }
    outcome(None, compared, skipped)
}

enum QueryVerdict {
    Agree,
    Skipped,
    Diverged(Discrepancy),
}

fn compare_query(
    query: &Query,
    original_engine: &mut Engine,
    reordered_engine: &mut Engine,
    config: &OracleConfig,
) -> QueryVerdict {
    let label = query.to_string();

    original_engine.config.max_calls = config.max_calls;
    let original: QueryOutcome =
        match original_engine.query_term(&query.goal, &query.var_names, config.max_solutions) {
            Ok(out) if out.truncated => return QueryVerdict::Skipped,
            Ok(out) => out,
            // Illegal instantiation mode (or over budget): out of scope.
            Err(_) => return QueryVerdict::Skipped,
        };

    let budget = reordered_budget(config, original.counters.calls());
    reordered_engine.config.max_calls = budget;
    let reordered =
        match reordered_engine.query_term(&query.goal, &query.var_names, config.max_solutions) {
            Ok(out) => out,
            Err(e) => {
                return QueryVerdict::Diverged(Discrepancy::ReorderedError {
                    query: label,
                    error: e.to_string(),
                })
            }
        };

    let mut a = original.solution_set();
    let mut b = reordered.solution_set();
    if a != b {
        // Report the symmetric difference, as multisets.
        let missing = multiset_minus(&a, &b);
        let extra = multiset_minus(&b, &a);
        a.clear();
        b.clear();
        return QueryVerdict::Diverged(Discrepancy::SolutionMismatch {
            query: label,
            missing,
            extra,
        });
    }

    if line_multiset(&original.output) != line_multiset(&reordered.output) {
        return QueryVerdict::Diverged(Discrepancy::OutputMismatch {
            query: label,
            original: original.output.clone(),
            reordered: reordered.output.clone(),
        });
    }

    if reordered.counters.calls() > budget {
        return QueryVerdict::Diverged(Discrepancy::BudgetExceeded {
            query: label,
            original_calls: original.counters.calls(),
            reordered_calls: reordered.counters.calls(),
            budget,
        });
    }
    QueryVerdict::Agree
}

/// Multiset difference `a − b` over sorted string vectors.
pub(crate) fn multiset_minus(a: &[String], b: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() {
        if j >= b.len() || a[i] < b[j] {
            out.push(a[i].clone());
            i += 1;
        } else if a[i] == b[j] {
            i += 1;
            j += 1;
        } else {
            j += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_case, GenConfig};

    #[test]
    fn multiset_difference() {
        let a = vec!["x".to_string(), "x".to_string(), "y".to_string()];
        let b = vec!["x".to_string(), "z".to_string()];
        assert_eq!(multiset_minus(&a, &b), vec!["x", "y"]);
        assert_eq!(multiset_minus(&b, &a), vec!["z"]);
    }

    #[test]
    fn clean_pipeline_passes_first_seeds() {
        let gen_config = GenConfig::default();
        let oracle_config = OracleConfig {
            check_jobs: false, // covered by the determinism suite
            ..Default::default()
        };
        for seed in 0..25 {
            let case = generate_case(seed, &gen_config);
            let out = run_case(&case, &oracle_config);
            assert!(
                out.discrepancy.is_none(),
                "seed {seed}: {}\nprogram:\n{}",
                out.discrepancy.unwrap(),
                prolog_syntax::pretty::program_to_string(&case.program)
            );
            assert!(
                out.compared + out.skipped > 0,
                "seed {seed}: no queries ran"
            );
        }
    }

    #[test]
    fn dropped_clause_is_detected() {
        // A deliberately corrupted transformation must be caught on some
        // early seed (not necessarily every one — the dropped clause may
        // be unreachable from the queries).
        let gen_config = GenConfig::default();
        let oracle_config = OracleConfig {
            check_jobs: false,
            inject: InjectedBug::DropClause,
            ..Default::default()
        };
        let caught = (0..20).any(|seed| {
            let case = generate_case(seed, &gen_config);
            run_case(&case, &oracle_config).discrepancy.is_some()
        });
        assert!(
            caught,
            "20 seeds with a dropped clause: no discrepancy found"
        );
    }
}
