//! Semi-naive evaluation correctness: multi-round fixpoints, stratified
//! negation, and cross-checks of the bottom-up solution sets against the
//! top-down SLD engine on the sample workloads.

use prolog_datalog::{certify, evaluate, Evaluation, OrderStrategy};
use prolog_engine::Engine;
use prolog_syntax::{parse_program, parse_term, SourceProgram};
use prolog_workloads::{corporate_program, family_program, CorporateConfig, FamilyConfig};

fn eval_src(src: &str, strategy: OrderStrategy) -> Evaluation {
    let program = parse_program(src).expect("test program parses");
    let cert = certify(&program);
    assert!(cert.fully_safe(), "rejections: {:?}", cert.rejections);
    evaluate(&cert, strategy)
}

fn datalog_answers(eval: &Evaluation, query: &str) -> Vec<String> {
    let (goal, var_names) = parse_term(query).expect("query parses");
    eval.query(&goal, &var_names)
        .unwrap_or_else(|| panic!("{query} should be answerable bottom-up"))
}

/// Runs every query on both backends and compares solution sets. SLD
/// enumerates a multiset in proof order; bottom-up materialises a set, so
/// the SLD side is sorted and deduplicated before comparison.
fn cross_check(program: &SourceProgram, queries: &[&str]) {
    let cert = certify(program);
    let eval = evaluate(&cert, OrderStrategy::ChainCost);
    let mut engine = Engine::new();
    engine.load(program);
    for query in queries {
        let bottom_up = datalog_answers(&eval, query);
        let outcome = engine.query(query).expect("SLD query runs");
        assert!(!outcome.truncated, "{query} truncated under SLD");
        let mut sld = outcome.solution_set();
        sld.dedup();
        assert_eq!(bottom_up, sld, "backends disagree on {query}");
    }
}

const ANCESTOR: &str = "parent(a1, a2). parent(a2, a3). parent(a3, a4).\n\
     parent(a4, a5). parent(a5, a6). parent(a2, b1).\n\
     ancestor(X, Y) :- parent(X, Y).\n\
     ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).\n";

#[test]
fn transitive_closure_reaches_fixpoint_over_multiple_rounds() {
    let eval = eval_src(ANCESTOR, OrderStrategy::ChainCost);
    // Chain of 6 gives 5+4+3+2+1 pairs, plus b1 reachable from a1 and a2.
    assert_eq!(eval.stats.idb_tuples, 17);
    // The recursive rule needs one round per extra level of depth.
    assert!(
        eval.stats.rounds >= 4,
        "expected multi-round fixpoint, got {} rounds",
        eval.stats.rounds
    );
    assert!(!eval.stats.delta_sizes.is_empty());
    assert!(eval.stats.tuples_joined > 0);

    assert_eq!(
        datalog_answers(&eval, "ancestor(a4, X)"),
        vec!["X = a5", "X = a6"]
    );
    assert_eq!(datalog_answers(&eval, "ancestor(a1, a6)"), vec!["true"]);
    assert_eq!(
        datalog_answers(&eval, "ancestor(X, b1)"),
        vec!["X = a1", "X = a2"]
    );
    assert!(datalog_answers(&eval, "ancestor(a6, X)").is_empty());
}

#[test]
fn all_order_strategies_compute_the_same_fixpoint() {
    let baseline = eval_src(ANCESTOR, OrderStrategy::AsWritten).idb_fingerprint();
    for strategy in [OrderStrategy::BoundFirst, OrderStrategy::ChainCost] {
        let eval = eval_src(ANCESTOR, strategy);
        assert_eq!(
            eval.idb_fingerprint(),
            baseline,
            "{} diverged",
            strategy.label()
        );
    }
}

#[test]
fn stratified_negation_matches_the_sld_engine() {
    let src = "person(a). person(b). person(c). person(d).\n\
         married_to(a, c).\n\
         spouse(X) :- married_to(X, _).\n\
         spouse(X) :- married_to(_, X).\n\
         bachelor(X) :- person(X), \\+ spouse(X).\n";
    let program = parse_program(src).expect("parses");
    cross_check(&program, &["bachelor(X)", "bachelor(a)", "bachelor(b)"]);

    let eval = eval_src(src, OrderStrategy::ChainCost);
    assert_eq!(
        datalog_answers(&eval, "bachelor(X)"),
        vec!["X = b", "X = d"]
    );
    // Negating a derived relation forces a second evaluation stratum:
    // spouse must be complete before bachelor's rule runs.
    assert_eq!(eval.stats.strata, 2);
}

#[test]
fn family_solution_sets_match_the_sld_engine() {
    let (program, _) = family_program(&FamilyConfig::default());
    cross_check(
        &program,
        &[
            "father(X, Y)",
            "parent(X, Y)",
            "siblings(X, Y)",
            "sister(X, Y)",
            "brother(X, Y)",
            "grandmother(X, Y)",
            "cousins(X, Y)",
            "aunt(X, Y)",
            "married(X, Y)",
            "female(X)",
        ],
    );
}

#[test]
fn corporate_solution_sets_match_the_sld_engine() {
    let (program, _) = corporate_program(&CorporateConfig::default());
    cross_check(
        &program,
        &[
            "benefits(E, B)",
            "pay(E, N, P)",
            "maternity(E, N)",
            "tax(E, T)",
            "dept_salary(D, S)",
            "benefits(e7, B)",
        ],
    );
}

/// Both backends evaluate integer `//` and `mod` alike: `//` truncates
/// toward zero, and `mod` is ISO's floored remainder, which takes the
/// divisor's sign.
#[test]
fn integer_division_and_mod_agree_across_backends() {
    let src = "n(-7). n(7). d(-3). d(3).
               r(X, Y, M, Q) :- n(X), d(Y), M is X mod Y, Q is X // Y.";
    let program = parse_program(src).expect("test program parses");
    cross_check(&program, &["r(X, Y, M, Q)"]);
    let eval = eval_src(src, OrderStrategy::ChainCost);
    assert_eq!(
        datalog_answers(&eval, "r(X, Y, M, Q)"),
        [
            "X = -7, Y = -3, M = -1, Q = 2",
            "X = -7, Y = 3, M = 2, Q = -2",
            "X = 7, Y = -3, M = -2, Q = -2",
            "X = 7, Y = 3, M = 1, Q = 2",
        ]
    );
}

#[test]
fn derived_duplicates_collapse_to_set_semantics() {
    // Both rules derive overlap(a): bottom-up must keep a single copy
    // where SLD would enumerate the answer twice.
    let src = "p(a). q(a).\n\
         overlap(X) :- p(X).\n\
         overlap(X) :- q(X).\n";
    let eval = eval_src(src, OrderStrategy::BoundFirst);
    assert_eq!(eval.stats.idb_tuples, 1);
    assert_eq!(datalog_answers(&eval, "overlap(X)"), vec!["X = a"]);

    let program = parse_program(src).expect("parses");
    let mut engine = Engine::new();
    engine.load(&program);
    let sld = engine.query("overlap(X)").expect("runs").solution_set();
    assert_eq!(sld.len(), 2, "SLD enumerates the duplicate derivation");
}
