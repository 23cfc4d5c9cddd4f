//! Property tests for the machine over difftest-generated programs.
//! Where the difftest oracle checks *external* observables (solutions,
//! counters, output), these properties pin the machine's internal
//! discipline:
//!
//! * the trail is empty before a query and empty again once its search
//!   is exhausted — every binding made was undone;
//! * the store (heap) only grows while a query runs, and never shrinks
//!   between solutions — cells are observable via `==`/`@<`, so
//!   reclaiming them early would change term ordering.

use prolog_difftest::generate_case;
use prolog_engine::{Database, Flow, Machine, MachineConfig};
use prolog_syntax::Body;
use proptest::prelude::*;

/// The default machine with budgets small enough that a generated
/// program's runaway query errors out quickly instead of running long.
fn bounded_config() -> MachineConfig {
    MachineConfig {
        max_calls: 50_000,
        max_depth: 5_000,
        unknown_fails: true,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn trail_drains_and_heap_grows_monotonically(seed in 0u64..1_000_000) {
        let case = generate_case(seed, &Default::default());
        let mut db = Database::new();
        db.load(&case.program);
        for query in &case.queries {
            let mut machine = Machine::new(&db, bounded_config());
            machine.store.alloc(query.var_names.len());
            prop_assert_eq!(machine.store.trail_len(), 0);
            let base_len = machine.store.len();
            let mut last_len = base_len;
            let mut solutions = 0u32;
            let body = Body::from_term(&query.goal);
            let run = machine.run(&body, &mut |m| {
                assert!(
                    m.store.len() >= last_len,
                    "heap shrank between solutions: {} -> {}",
                    last_len,
                    m.store.len()
                );
                last_len = m.store.len();
                solutions += 1;
                if solutions >= 500 { Flow::Stop } else { Flow::Continue }
            });
            // Exhausted (`Ok(false)`): every choicepoint was popped, so
            // every trailed binding must have been undone. Stopped
            // mid-search or errored out of the solver: the trail
            // legitimately still holds the live bindings, but the heap
            // must never have shrunk below the query frame.
            if let Ok(false) = run {
                prop_assert_eq!(
                    machine.store.trail_len(),
                    0,
                    "seed {}: trail not drained after `{}`",
                    seed,
                    query
                );
            }
            prop_assert!(machine.store.len() >= base_len);
        }
    }

    #[test]
    fn failed_queries_leave_no_bindings(seed in 0u64..1_000_000) {
        // A goal that cannot match anything: the machine must wind the
        // trail all the way back even though clause attempts allocated
        // and bound frame cells along the way.
        let case = generate_case(seed, &Default::default());
        let mut db = Database::new();
        db.load(&case.program);
        let Some(&id) = db.predicates().first() else {
            return;
        };
        let args = (0..id.arity)
            .map(|_| prolog_syntax::Term::atom("zz_unmatched"))
            .collect::<Vec<_>>();
        if args.is_empty() {
            // Arity 0 always matches trivially; nothing to probe.
            return;
        }
        let goal = prolog_syntax::Term::struct_(id.name, args);
        let mut machine = Machine::new(&db, bounded_config());
        let run = machine.run(&Body::from_term(&goal), &mut |_| Flow::Continue);
        if run.is_ok() {
            prop_assert_eq!(machine.store.trail_len(), 0, "seed {}", seed);
        }
    }
}
