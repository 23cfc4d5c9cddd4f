//! Exact search counts: how many orders the goal-order search examines,
//! how many placements legality rejects, and how many bytes the
//! reorderer emits, on the benchmark's heaviest generated programs and on
//! four corpus programs.
//!
//! The search may get cheaper, but it must explore exactly the same
//! orders and choose exactly the same ones, so every figure here stays as
//! it is. The generated programs are difftest cases of vetted
//! `(max_goals, seed)` pairs, printed with `program_to_string` as the
//! benchmark prints them; the seed of the first is the program whose four
//! 10-goal blocks each use up the whole A* budget.

use prolog_difftest::{generate_case, GenConfig};
use prolog_syntax::pretty::program_to_string;
use prolog_workloads::corpus_program;
use reorder::{reorder_source, ReorderConfig};

/// Reorders `src` with the default configuration and checks
/// (orders explored, placements rejected, emitted bytes).
fn assert_counts(name: &str, src: &str, expected: (usize, usize, usize)) {
    let out = reorder_source(src, &ReorderConfig::default()).expect("program parses");
    let stats = &out.report.stats;
    assert_eq!(
        (stats.orders_explored, stats.orders_rejected, out.text.len()),
        expected,
        "{name}: (orders explored, placements rejected, emitted bytes)"
    );
}

fn generated(max_goals: usize, seed: u64) -> String {
    let config = GenConfig {
        max_goals,
        ..GenConfig::default()
    };
    program_to_string(&generate_case(seed, &config).program)
}

fn corpus(name: &str) -> String {
    corpus_program(name).expect("corpus program").text
}

#[test]
fn ten_goal_program_that_exhausts_the_astar_budget() {
    let src = generated(10, 6834029275373919920);
    assert_counts("seed 6834029275373919920", &src, (80170, 1058, 1175));
}

#[test]
fn generated_program_counts() {
    for (max_goals, seed, expected) in [
        (8, 10382661253770489828, (23732, 7070, 1150)),
        (7, 356372739882649656, (5057, 1214, 3688)),
        (10, 11246615307475132684, (3316, 6, 478)),
    ] {
        let src = generated(max_goals, seed);
        assert_counts(&format!("seed {seed}"), &src, expected);
    }
}

#[test]
fn corpus_program_counts() {
    for (name, expected) in [
        ("team", (4079, 59, 1630)),
        ("corporate", (101, 322, 17391)),
        ("family", (70, 9, 3969)),
        ("meal", (18, 208, 1015)),
    ] {
        assert_counts(name, &corpus(name), expected);
    }
}
