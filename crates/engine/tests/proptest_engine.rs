//! Property tests for the engine: unification laws, trail discipline, and
//! the semantic invariances the reorderer relies on — clause order never
//! changes the *set* of solutions of a pure program, and neither does
//! goal order when all goals are pure.

use prolog_engine::store::Store;
use prolog_engine::unify::{unify, unify_renamed};
use prolog_engine::{Engine, MachineConfig};
use prolog_syntax::{parse_program, SourceProgram, Term};
use proptest::prelude::*;

// ------------------------------------------------------------------------
// Random pure fact/rule programs over a tiny universe.
// ------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct PureProgram {
    facts_p: Vec<(u8, u8)>,
    facts_q: Vec<(u8, u8)>,
    /// rule bodies: subsets/orders of {p(X,Z), q(Z,Y)} variants
    rule_goals: Vec<u8>,
}

fn pure_program() -> impl Strategy<Value = PureProgram> {
    (
        prop::collection::vec((0u8..5, 0u8..5), 1..8),
        prop::collection::vec((0u8..5, 0u8..5), 1..8),
        prop::collection::vec(0u8..4, 1..3),
    )
        .prop_map(|(facts_p, facts_q, rule_goals)| PureProgram {
            facts_p,
            facts_q,
            rule_goals,
        })
}

impl PureProgram {
    fn source(&self, permute_clauses: bool, permute_goals: bool) -> String {
        let mut src = String::new();
        let mut p_facts: Vec<String> = self
            .facts_p
            .iter()
            .map(|(a, b)| format!("p(c{a}, c{b})."))
            .collect();
        let mut q_facts: Vec<String> = self
            .facts_q
            .iter()
            .map(|(a, b)| format!("q(c{a}, c{b})."))
            .collect();
        if permute_clauses {
            p_facts.reverse();
            q_facts.reverse();
        }
        for f in p_facts.iter().chain(&q_facts) {
            src.push_str(f);
            src.push('\n');
        }
        for (i, &variant) in self.rule_goals.iter().enumerate() {
            let (g1, g2) = match variant % 4 {
                0 => ("p(X, Z)", "q(Z, Y)"),
                1 => ("p(X, Z)", "q(Y, Z)"),
                2 => ("q(X, Z)", "p(Z, Y)"),
                _ => ("p(X, Z)", "p(Z, Y)"),
            };
            if permute_goals {
                src.push_str(&format!("r{i}(X, Y) :- {g2}, {g1}.\n"));
            } else {
                src.push_str(&format!("r{i}(X, Y) :- {g1}, {g2}.\n"));
            }
        }
        src
    }
}

fn answers(program: &SourceProgram, query: &str) -> Vec<String> {
    let mut e = Engine::new();
    e.load(program);
    e.query(query).expect("pure query runs").solution_set()
}

// ------------------------------------------------------------------------
// Goal/head pairs for head unification through an offset.
// ------------------------------------------------------------------------

/// Goal terms range over store cells `0..GOAL_VARS`; head templates over
/// template variables `0..HEAD_VARS`, i.e. cells `base..base + HEAD_VARS`.
const GOAL_VARS: usize = 4;
const HEAD_VARS: usize = 3;

/// Terms over variables `0..vars` and a small alphabet, so that goal and
/// head often agree on functors and unification gets deep.
fn term(vars: usize) -> BoxedStrategy<Term> {
    let leaf = prop_oneof![
        (0..vars).prop_map(Term::Var),
        (0usize..2).prop_map(|i| Term::atom(["a", "b"][i])),
        Just(Term::Int(0)),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        (0usize..2, prop::collection::vec(inner, 1..3))
            .prop_map(|(f, args)| Term::app(["f", "g"][f], args))
    })
}

/// A store with the goal's cells (the last one optionally bound to `pre`,
/// a term over the others), `extra` spare cells, then the head's cells.
/// Returns the store and the head's `base`.
fn goal_store(pre: Option<&Term>, extra: usize) -> (Store, usize) {
    let mut store = Store::new();
    store.alloc(GOAL_VARS);
    if let Some(t) = pre {
        store.bind(GOAL_VARS - 1, t.clone());
    }
    store.alloc(extra);
    let base = store.alloc(HEAD_VARS);
    (store, base)
}

/// `store.resolve(t)`, cut off `depth` levels down: without the occurs
/// check, unification may bind a cell to a term that contains it.
fn resolve_to(store: &Store, t: &Term, depth: usize) -> Term {
    match store.deref(t) {
        Term::Struct(f, args) if depth > 0 => Term::struct_(
            f,
            args.iter()
                .map(|a| resolve_to(store, a, depth - 1))
                .collect(),
        ),
        Term::Struct(..) => Term::atom("..."),
        other => other,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn unify_renamed_matches_unify_against_the_renamed_head(
        goal_args in prop::collection::vec(term(GOAL_VARS), 2..3),
        head_args in prop::collection::vec(term(HEAD_VARS), 2..3),
        pre in term(GOAL_VARS - 1),
        bind_pre in 0u8..2,
        extra in 0usize..3,
    ) {
        let goal = Term::app("p", goal_args);
        let head = Term::app("p", head_args);
        let pre = (bind_pre == 1).then_some(&pre);
        for occurs_check in [false, true] {
            let (mut renamed, base) = goal_store(pre, extra);
            let (mut copied, _) = goal_store(pre, extra);
            let a = unify_renamed(&mut renamed, &goal, &head, base, occurs_check);
            let b = unify(&mut copied, &goal, &head.offset_vars(base), occurs_check);
            prop_assert_eq!(a, b, "{} = {} (occurs check {})", goal, head, occurs_check);
            prop_assert_eq!(renamed.trail_len(), copied.trail_len());
            for cell in 0..renamed.len() {
                let v = Term::Var(cell);
                prop_assert_eq!(
                    resolve_to(&renamed, &v, 12),
                    resolve_to(&copied, &v, 12),
                    "cell {} after {} = {}",
                    cell,
                    goal,
                    head
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn clause_order_never_changes_solution_sets(prog in pure_program()) {
        let a = parse_program(&prog.source(false, false)).unwrap();
        let b = parse_program(&prog.source(true, false)).unwrap();
        for i in 0..prog.rule_goals.len() {
            let q = format!("r{i}(X, Y)");
            prop_assert_eq!(answers(&a, &q), answers(&b, &q));
        }
        prop_assert_eq!(answers(&a, "p(X, Y)"), answers(&b, "p(X, Y)"));
    }

    #[test]
    fn goal_order_never_changes_solution_sets_of_pure_rules(prog in pure_program()) {
        let a = parse_program(&prog.source(false, false)).unwrap();
        let b = parse_program(&prog.source(false, true)).unwrap();
        for i in 0..prog.rule_goals.len() {
            let q = format!("r{i}(X, Y)");
            prop_assert_eq!(answers(&a, &q), answers(&b, &q));
        }
    }

    #[test]
    fn indexing_never_changes_solution_sets(prog in pure_program()) {
        let program = parse_program(&prog.source(false, false)).unwrap();
        let mut indexed = Engine::new();
        indexed.load(&program);
        let mut scanning =
            Engine::with_config(MachineConfig { indexing: false, ..Default::default() });
        scanning.load(&program);
        for q in ["p(X, Y)", "p(c1, Y)", "p(X, c2)", "r0(X, Y)", "r0(c0, Y)"] {
            let a = indexed.query(q).expect("runs").solution_set();
            let b = scanning.query(q).expect("runs").solution_set();
            prop_assert_eq!(a, b, "query {}", q);
        }
    }

    #[test]
    fn repeated_queries_are_deterministic(prog in pure_program()) {
        let program = parse_program(&prog.source(false, false)).unwrap();
        let mut e = Engine::new();
        e.load(&program);
        let first = e.query("r0(X, Y)").expect("runs");
        let second = e.query("r0(X, Y)").expect("runs");
        prop_assert_eq!(first.solutions, second.solutions);
        prop_assert_eq!(first.counters, second.counters);
    }

    #[test]
    fn double_negation_of_ground_goals_agrees(prog in pure_program(), a in 0u8..5, b in 0u8..5) {
        let program = parse_program(&prog.source(false, false)).unwrap();
        let mut e = Engine::new();
        e.load(&program);
        let plain = e.query(&format!("p(c{a}, c{b})")).unwrap().succeeded();
        let doubled = e
            .query(&format!("\\+ \\+ p(c{a}, c{b})"))
            .unwrap()
            .succeeded();
        prop_assert_eq!(plain, doubled);
    }

    #[test]
    fn findall_counts_match_enumeration(prog in pure_program()) {
        let program = parse_program(&prog.source(false, false)).unwrap();
        let mut e = Engine::new();
        e.load(&program);
        let direct = e.query("p(X, Y)").unwrap().solutions.len();
        let collected = e.query("findall(X-Y, p(X, Y), L)").unwrap();
        let list = collected.solutions[0].get("L").unwrap().clone();
        let n = list.as_list().map(|v| v.len()).unwrap_or(0);
        prop_assert_eq!(direct, n);
    }
}
