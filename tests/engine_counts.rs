//! Exact engine counts on the paper's workloads: solutions, user calls,
//! built-in calls and head-unification attempts per query.
//!
//! These are the paper's cost metric, so a change to how the engine
//! selects clauses or unifies heads must leave every figure here exactly
//! as it is. The figures were recorded with first-argument indexing on
//! and the default `MachineConfig`.

use prolog_engine::{Counters, Engine};
use prolog_workloads::family_scaled;
use prolog_workloads::kmbench::{kmbench_program, KmbenchConfig};

fn sample(name: &str) -> Engine {
    let path = format!("{}/../../samples/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut engine = Engine::new();
    engine.consult(&src).expect("sample parses");
    engine
}

/// Runs `query` and checks (solutions, user calls, built-in calls,
/// unifications).
fn assert_counts(engine: &mut Engine, query: &str, expected: (usize, u64, u64, u64)) {
    let outcome = engine.query(query).expect("query runs");
    let Counters {
        user_calls,
        builtin_calls,
        unifications,
    } = outcome.counters;
    assert_eq!(
        (
            outcome.solutions.len(),
            user_calls,
            builtin_calls,
            unifications
        ),
        expected,
        "{query}: (solutions, user calls, builtin calls, unifications)"
    );
}

#[test]
fn family_sample_counts() {
    let mut e = sample("family.pl");
    assert_counts(&mut e, "aunt(X, Y)", (90, 1_427, 222, 6_983));
    assert_counts(&mut e, "cousins(X, Y)", (240, 52_688, 7_731, 186_340));
    assert_counts(&mut e, "grandmother(X, Y)", (21, 107, 0, 739));
    assert_counts(&mut e, "brother(X, Y)", (44, 524, 128, 2_843));
}

#[test]
fn corporate_sample_counts() {
    let mut e = sample("corporate.pl");
    assert_counts(&mut e, "benefits(E, B)", (129, 551, 360, 910));
    assert_counts(&mut e, "pay(E, N, P)", (120, 242, 120, 361));
    assert_counts(&mut e, "tax(E, T)", (120, 363, 480, 602));
}

#[test]
fn kmbench_run_all_counts() {
    let mut e = Engine::new();
    e.load(&kmbench_program(&KmbenchConfig::default()));
    assert_counts(&mut e, "run_all", (1, 167_114, 0, 168_695));
}

#[test]
fn family_scaled_1000_aunt_counts() {
    let mut e = Engine::new();
    e.load(&family_scaled(1000).program);
    assert_counts(&mut e, "aunt(X, Y)", (1_134, 19_820, 2_998, 1_368_333));
}
