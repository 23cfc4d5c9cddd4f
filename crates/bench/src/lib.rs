//! Shared machinery for regenerating the paper's tables and figures.
//!
//! `bench-suite` prints every table and the ablation from [`suite`] (see
//! DESIGN.md §5); the other binaries in `src/bin/` draw the figures. The
//! core loop is always: load the original program, run the reorderer,
//! execute the same query set on both, and compare **predicate call
//! counts** — the paper's metric. Wall time is measured by `perfbench`,
//! never here.

pub mod suite;

use prolog_engine::{Counters, Engine, MachineConfig};
use prolog_syntax::{PredId, SourceProgram, Term};
use reorder::{ReorderConfig, ReorderResult, Reorderer};

/// Result of running a query set against one program.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub counters: Counters,
    /// Per-query solution sets (order-insensitive), for equivalence checks.
    pub solutions: Vec<Vec<String>>,
}

impl Measurement {
    /// The cost reported in the tables: **user predicate calls**. The
    /// paper's reordered programs dispatch through a "dummy predicate"
    /// whose `var/1` tests compile to tag-bit checks ("the Prolog engine
    /// needs merely to test two tag bits", §VII), so built-in test calls
    /// are not counted as predicate calls; we follow suit, and the choice
    /// applies identically to both sides of every comparison.
    pub fn calls(&self) -> u64 {
        self.counters.user_calls
    }
}

/// Runs `queries` (each a goal term) against a fresh default engine
/// loaded with `program`.
pub fn measure_queries(program: &SourceProgram, queries: &[Term]) -> Measurement {
    measure_queries_with(program, queries, MachineConfig::default())
}

/// [`measure_queries`] with an explicit machine configuration — the
/// ablation's indexing-off row runs the unreordered program without
/// first-argument indexing.
pub fn measure_queries_with(
    program: &SourceProgram,
    queries: &[Term],
    config: MachineConfig,
) -> Measurement {
    let mut engine = Engine::with_config(config);
    engine.load(program);
    let mut counters = Counters::default();
    let mut solutions = Vec::with_capacity(queries.len());
    for goal in queries {
        let nvars = goal.variables().len();
        let names: Vec<String> = (0..nvars).map(|i| format!("V{i}")).collect();
        let outcome = engine
            .query_term(goal, &names, usize::MAX)
            .unwrap_or_else(|e| panic!("query {goal} failed: {e}"));
        counters.add(&outcome.counters);
        solutions.push(outcome.solution_set());
    }
    Measurement {
        counters,
        solutions,
    }
}

/// Parses a list of textual queries.
pub fn parse_queries(texts: &[&str]) -> Vec<Term> {
    texts
        .iter()
        .map(|t| prolog_syntax::parse_term(t).expect("query parses").0)
        .collect()
}

/// Reorders a program with default configuration.
pub fn reorder_default(program: &SourceProgram) -> ReorderResult {
    Reorderer::new(program, ReorderConfig::default()).run()
}

/// One row of a results table.
#[derive(Debug, Clone)]
pub struct Row {
    pub label: String,
    pub original: u64,
    pub reordered: u64,
    /// Cheapest variant found by exhaustive enumeration, when practical.
    pub best: Option<u64>,
    /// Did original and reordered produce identical solution sets?
    pub equivalent: bool,
}

impl Row {
    /// `original / reordered`, the paper's speedup metric. Always
    /// finite — the trajectory JSON prints it with `{:.4}`, and `inf` /
    /// `NaN` are not valid JSON. A zero `reordered` count with a
    /// nonzero `original` clamps the divisor to one call (reading as
    /// "at least `original`×") instead of the old silently-neutral 1.0;
    /// `0/0` stays 1.0. `bench-diff` treats a collapse to zero as a
    /// regression regardless of this value — a measurement that stopped
    /// calling anything is broken, not infinitely fast.
    pub fn ratio(&self) -> f64 {
        match (self.original, self.reordered) {
            (0, 0) => 1.0,
            (original, 0) => original as f64,
            (original, reordered) => original as f64 / reordered as f64,
        }
    }
}

/// Builds a row by measuring both programs on the same query set.
pub fn compare_row(
    label: impl Into<String>,
    original: &SourceProgram,
    reordered: &SourceProgram,
    queries: &[Term],
) -> Row {
    let a = measure_queries(original, queries);
    let b = measure_queries(reordered, queries);
    Row {
        label: label.into(),
        original: a.calls(),
        reordered: b.calls(),
        best: None,
        equivalent: set_equivalent(&a, &b),
    }
}

/// Set-equivalence (§II): per query, the same *set* of solutions.
pub fn set_equivalent(a: &Measurement, b: &Measurement) -> bool {
    a.solutions == b.solutions
}

/// Prints a table in the paper's layout.
pub fn print_table(title: &str, header: &str, rows: &[Row]) {
    println!("\n=== {title} ===");
    println!(
        "{header:<28} {:>12} {:>12} {:>10} {:>8}  set-equal",
        "original", "reordered", "best", "ratio"
    );
    for row in rows {
        let best = row
            .best
            .map(|b| b.to_string())
            .unwrap_or_else(|| "-".into());
        println!(
            "{:<28} {:>12} {:>12} {:>10} {:>8.2}  {}",
            row.label,
            row.original,
            row.reordered,
            best,
            row.ratio(),
            if row.equivalent { "yes" } else { "NO" },
        );
    }
}

/// Exhaustively searches the *measured-best* variant of one predicate in
/// the reordered program: all permutations of each clause's goals × all
/// clause orders, measured on the real engine (the paper's "cheapest
/// reordering possible (found by exhaustive enumeration when practical)").
/// Variants whose solution sets differ from the unmodified program's (a
/// reordering can silently change the meaning of semifixed goals) are
/// rejected — only set-equivalent variants compete.
///
/// `target` names the predicate *in the reordered program* whose clauses
/// are permuted (for specialised programs, the version serving the mode).
/// Skipped (returns `None`) when the variant count exceeds `max_variants`.
pub fn measured_best(
    program: &SourceProgram,
    target: PredId,
    queries: &[Term],
    max_variants: usize,
) -> Option<u64> {
    let reference = measure_queries(program, queries).solutions;
    let clauses: Vec<_> = program.clauses_of(target).into_iter().cloned().collect();
    if clauses.is_empty() {
        return None;
    }
    // Enumerate goal permutations per clause.
    let per_clause: Vec<Vec<prolog_syntax::Body>> = clauses
        .iter()
        .map(|c| c.body.conjuncts().into_iter().cloned().collect())
        .collect();
    let mut variant_counts = 1usize;
    for goals in &per_clause {
        variant_counts = variant_counts.saturating_mul(factorial(goals.len().max(1)));
    }
    variant_counts = variant_counts.saturating_mul(factorial(clauses.len()));
    if variant_counts > max_variants {
        return None;
    }

    let mut best: Option<u64> = None;
    let clause_perms = permutations(clauses.len());
    let goal_perm_sets: Vec<Vec<Vec<usize>>> = per_clause
        .iter()
        .map(|goals| permutations(goals.len().max(1)))
        .collect();
    // Cartesian product over per-clause goal orders.
    let mut indices = vec![0usize; clauses.len()];
    loop {
        // Build the clause set with these goal orders.
        let bodies: Vec<prolog_syntax::Body> = clauses
            .iter()
            .enumerate()
            .map(|(ci, _)| {
                let goals = &per_clause[ci];
                let perm = &goal_perm_sets[ci][indices[ci]];
                let reordered: Vec<prolog_syntax::Body> =
                    perm.iter().map(|&g| goals[g].clone()).collect();
                prolog_syntax::Body::conjoin(&reordered)
            })
            .collect();
        for clause_perm in &clause_perms {
            let mut variant = SourceProgram {
                directives: program.directives.clone(),
                clauses: Vec::with_capacity(program.clauses.len()),
            };
            // All clauses except target's, in place; target's in permuted
            // order at the position of the first original clause.
            let mut inserted = false;
            for clause in &program.clauses {
                if clause.pred_id() == target {
                    if !inserted {
                        inserted = true;
                        for &orig_idx in clause_perm {
                            variant.clauses.push(prolog_syntax::Clause {
                                head: clauses[orig_idx].head.clone(),
                                body: bodies[orig_idx].clone(),
                                var_names: clauses[orig_idx].var_names.clone(),
                            });
                        }
                    }
                } else {
                    variant.clauses.push(clause.clone());
                }
            }
            // Some permutations are illegal (instantiation errors) or not
            // set-equivalent: skip those.
            if let Some(m) = try_measure(&variant, queries, &reference) {
                best = Some(best.map_or(m, |b: u64| b.min(m)));
            }
        }
        // advance indices
        let mut pos = 0;
        loop {
            if pos == indices.len() {
                return best;
            }
            indices[pos] += 1;
            if indices[pos] < goal_perm_sets[pos].len() {
                break;
            }
            indices[pos] = 0;
            pos += 1;
        }
    }
}

fn try_measure(
    program: &SourceProgram,
    queries: &[Term],
    reference: &[Vec<String>],
) -> Option<u64> {
    let mut engine = Engine::with_config(MachineConfig {
        max_calls: 10_000_000,
        ..Default::default()
    });
    engine.load(program);
    let mut total = 0u64;
    for (goal, expected) in queries.iter().zip(reference) {
        let nvars = goal.variables().len();
        let names: Vec<String> = (0..nvars).map(|i| format!("V{i}")).collect();
        match engine.query_term(goal, &names, usize::MAX) {
            Ok(outcome) => {
                if outcome.solution_set() != *expected {
                    return None; // not set-equivalent
                }
                total += outcome.counters.user_calls;
            }
            Err(_) => return None, // illegal variant
        }
    }
    Some(total)
}

fn factorial(n: usize) -> usize {
    (1..=n).product::<usize>().max(1)
}

/// All permutations of `0..n` in lexicographic order.
pub fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current: Vec<usize> = (0..n).collect();
    let mut used = vec![false; n];
    fn rec(
        n: usize,
        current: &mut Vec<usize>,
        used: &mut Vec<bool>,
        depth: usize,
        out: &mut Vec<Vec<usize>>,
    ) {
        if depth == n {
            out.push(current[..n].to_vec());
            return;
        }
        for i in 0..n {
            if !used[i] {
                used[i] = true;
                current[depth] = i;
                rec(n, current, used, depth + 1, out);
                used[i] = false;
            }
        }
    }
    if n == 0 {
        return vec![vec![]];
    }
    rec(n, &mut current, &mut used, 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use prolog_syntax::parse_program;

    #[test]
    fn permutations_enumerate_n_factorial() {
        assert_eq!(permutations(0), vec![Vec::<usize>::new()]);
        assert_eq!(permutations(1).len(), 1);
        assert_eq!(permutations(3).len(), 6);
        let p4 = permutations(4);
        assert_eq!(p4.len(), 24);
        // all distinct
        let mut sorted = p4.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 24);
    }

    #[test]
    fn ratio_stays_finite_on_zero_counts() {
        let row = |original, reordered| Row {
            label: "r".into(),
            original,
            reordered,
            best: None,
            equivalent: true,
        };
        assert_eq!(row(100, 50).ratio(), 2.0);
        assert_eq!(row(0, 0).ratio(), 1.0);
        // A collapse to zero reads as "at least original×", never inf/NaN:
        // the trajectory JSON prints ratios raw, and inf is not JSON.
        let collapsed = row(100, 0).ratio();
        assert!(collapsed.is_finite());
        assert_eq!(collapsed, 100.0);
        let grown = row(0, 37).ratio();
        assert!(grown.is_finite());
        assert_eq!(grown, 0.0);
    }

    #[test]
    fn compare_row_checks_equivalence() {
        let a = parse_program("p(1). p(2).").unwrap();
        let b = parse_program("p(2). p(1).").unwrap();
        let queries = parse_queries(&["p(X)"]);
        let row = compare_row("p", &a, &b, &queries);
        assert!(row.equivalent, "set equivalence ignores order");
        let c = parse_program("p(1). p(3).").unwrap();
        let row = compare_row("p", &a, &c, &queries);
        assert!(!row.equivalent);
    }

    #[test]
    fn measured_best_finds_cheaper_goal_order() {
        let src = "
            q(X) :- gen(X), expensive(X).
            gen(1). gen(2). gen(3). gen(4). gen(5).
            expensive(X) :- e(X, A), e(A, B), e(B, _).
            e(1, 2). e(2, 3). e(3, 4). e(4, 5). e(5, 1).
        ";
        let program = parse_program(src).unwrap();
        let queries = parse_queries(&["q(3)"]);
        let base = measure_queries(&program, &queries).calls();
        let best = measured_best(&program, PredId::new("q", 1), &queries, 1000).unwrap();
        assert!(best <= base);
    }

    #[test]
    fn measured_best_respects_variant_budget() {
        let program = parse_program(
            "q(X) :- a(X), b(X), c(X), d(X), e(X), f(X), g(X).
            a(1). b(1). c(1). d(1). e(1). f(1). g(1).",
        )
        .unwrap();
        let queries = parse_queries(&["q(1)"]);
        assert!(measured_best(&program, PredId::new("q", 1), &queries, 100).is_none());
    }
}
