//! The closed calibration loop (`reorder::calibrate_loop`): first-round
//! measurements change the plan, the loop reaches a fixed point within
//! its round budget, the converged emission is byte-identical however
//! many worker threads plan it, and measured regressions — including the
//! meta-call dispatcher tax inside `findall/3` — are repaired rather
//! than shipped.

use prolog_engine::{Engine, MachineConfig};
use prolog_syntax::{PredId, SourceProgram};
use prolog_workloads::corporate::{corporate_program, CorporateConfig};
use prolog_workloads::family::{family_program, FamilyConfig};
use reorder::{CalibrationConfig, CalibrationOptions, ReorderConfig, Reorderer};

/// A 15-person family tree: big enough that the static model diverges
/// from measurement, small enough for debug-build engines.
fn small_family() -> SourceProgram {
    family_program(&FamilyConfig {
        seed: 3,
        couples: 5,
        founder_couples: 2,
        girls: 3,
        boys: 2,
        mother_facts: 9,
    })
    .0
}

fn quick_opts(rounds: usize) -> CalibrationOptions {
    CalibrationOptions {
        rounds,
        sample: CalibrationConfig {
            max_queries_per_mode: 16,
            max_calls_per_query: 200_000,
        },
        ..Default::default()
    }
}

/// Total user-predicate calls to exhaust every solution of `goal`.
fn calls(program: &SourceProgram, goal: &str) -> u64 {
    let mut engine = Engine::with_config(MachineConfig {
        unknown_fails: true,
        max_calls: 10_000_000,
        ..Default::default()
    });
    engine.load(program);
    let (term, names) = prolog_syntax::parse_term(goal).expect("query parses");
    let outcome = engine
        .query_term(&term, &names, usize::MAX)
        .expect("query runs");
    outcome.counters.user_calls
}

#[test]
fn first_round_overrides_change_the_plan_and_the_loop_converges() {
    let program = small_family();
    let outcome = reorder::calibrate_loop(&program, &ReorderConfig::default(), &quick_opts(4));

    // Round 0 plans with measured costs installed; if that never moved
    // the plan away from the static one, the loop would be a no-op.
    assert!(
        outcome.rounds[0].plan_changed,
        "first-round measurements must change the static plan"
    );
    assert!(
        outcome.converged,
        "loop must reach its fixed point within 4 rounds: {:?}",
        outcome
            .rounds
            .iter()
            .map(|r| (r.round, r.plan_changed, r.max_cost_delta))
            .collect::<Vec<_>>()
    );
    let last = outcome.rounds.last().unwrap();
    assert!(last.new_pins.is_empty());
    assert!(!last.plan_changed || last.max_cost_delta <= 0.5);

    // The fixed point is real: re-planning with the converged override
    // set and pins emits the very same bytes.
    let config = ReorderConfig {
        pinned: outcome.pinned.clone(),
        ..ReorderConfig::default()
    };
    let replay = Reorderer::new(&program, config)
        .with_measured_costs(outcome.measured.clone())
        .run();
    assert_eq!(
        prolog_syntax::pretty::program_to_string(&replay.program),
        prolog_syntax::pretty::program_to_string(&outcome.result.program),
        "converged emission must be reproducible from its own overrides"
    );

    // The divergence table (the `--calibrate-report` payload) covers the
    // pairs the report planned.
    assert!(!outcome.divergence.is_empty());
}

#[test]
fn converged_emission_is_identical_across_jobs() {
    let program = small_family();
    let src = prolog_syntax::pretty::program_to_string(&program);
    let texts: Vec<String> = [1usize, 2, 8]
        .iter()
        .map(|&jobs| {
            let config = ReorderConfig {
                jobs,
                ..ReorderConfig::default()
            };
            let (outcome, _) =
                reorder::calibrate_source(&src, &config, &quick_opts(3)).expect("source parses");
            outcome.text
        })
        .collect();
    assert_eq!(texts[0], texts[1], "jobs=1 vs jobs=2");
    assert_eq!(texts[0], texts[2], "jobs=1 vs jobs=8");
}

#[test]
fn calibration_does_not_pessimise_brother_on_net() {
    // brother/2 is one of the predicates the static model misjudges
    // (BENCH trajectory: 0.86x all-free before calibration). After the
    // loop, the benchmark call mix must be no worse than the input
    // program — per predicate, summed over its queried modes.
    let (program, people) = family_program(&FamilyConfig::default());
    let outcome = reorder::calibrate_loop(&program, &ReorderConfig::default(), &quick_opts(4));

    let version_for = |suffix: &str| {
        outcome
            .result
            .report
            .predicate(PredId::new("brother", 2))
            .and_then(|pr| {
                pr.modes
                    .iter()
                    .find(|m| m.mode.suffix() == suffix)
                    .map(|m| m.version.clone())
            })
            .unwrap_or_else(|| "brother".to_string())
    };
    let mut orig_total = 0u64;
    let mut calibrated_total = 0u64;
    // All-free exhaustion plus every bound-first-argument query: the
    // call mix the workload's benchmark tables use.
    orig_total += calls(&program, "brother(X, Y)");
    calibrated_total += calls(
        &outcome.result.program,
        &format!("{}(X, Y)", version_for("uu")),
    );
    for person in &people {
        orig_total += calls(&program, &format!("brother({person}, Y)"));
        calibrated_total += calls(
            &outcome.result.program,
            &format!("{}({person}, Y)", version_for("iu")),
        );
    }
    assert!(
        calibrated_total <= orig_total,
        "brother/2 net: calibrated {calibrated_total} calls vs original {orig_total}"
    );
}

#[test]
fn dispatcher_tax_inside_findall_is_pinned_away() {
    // `average_pay/2` runs `dept_salary/2` as a findall meta-goal: if
    // dept_salary is specialised, every meta-activation pays the var/1
    // dispatcher — a cost the static model never charges. The loop must
    // measure the regression on the (skipped) caller and pin the callee.
    let (program, _) = corporate_program(&CorporateConfig {
        seed: 42,
        employees: 24,
    });
    let outcome = reorder::calibrate_loop(&program, &ReorderConfig::default(), &quick_opts(4));

    let orig = calls(&program, "average_pay(D, A)");
    let calibrated = calls(&outcome.result.program, "average_pay(D, A)");
    assert!(
        calibrated <= orig,
        "average_pay(-,-): calibrated {calibrated} calls vs original {orig} \
         (pinned: {:?})",
        outcome.pinned
    );

    // The uncalibrated reorder ships the dispatcher tax (this is the bug
    // the loop exists to fix) — make sure the test would catch it.
    let static_result = Reorderer::new(&program, ReorderConfig::default()).run();
    let static_calls = calls(&static_result.program, "average_pay(D, A)");
    assert!(
        static_calls > orig,
        "expected the static plan to regress average_pay (got {static_calls} vs {orig}); \
         if this no longer holds the workload needs rebalancing"
    );
}
