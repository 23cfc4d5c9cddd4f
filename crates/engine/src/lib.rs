//! An instrumented Prolog engine: the execution substrate of the paper.
//!
//! The reordering experiments in Gooley & Wah measure the **number of
//! predicate calls** a query makes under standard depth-first SLD
//! resolution. This crate provides that substrate: a complete interpreter
//! with unification, backtracking, the cut, control constructs
//! (`;`/`->`/`\+`), first-argument clause indexing, the built-ins the
//! paper's programs use, and [`Counters`] incremented at the same points an
//! instrumented C-Prolog would count.
//!
//! # Example
//!
//! ```
//! use prolog_engine::Engine;
//!
//! let mut engine = Engine::new();
//! engine
//!     .consult(
//!         "parent(C, P) :- mother(C, P).
//!          mother(john, joan).
//!          mother(jane, joan).",
//!     )
//!     .unwrap();
//! let outcome = engine.query("parent(john, X)").unwrap();
//! assert_eq!(outcome.solutions.len(), 1);
//! assert_eq!(outcome.solutions[0].to_string(), "X = joan");
//! assert!(outcome.counters.calls() > 0);
//! ```

pub mod builtins;
pub mod counters;
pub mod database;
pub mod engine;
pub mod error;
pub mod machine;
pub mod store;
pub mod unify;

pub use counters::{Counters, PredProfile};
pub use database::{Database, IndexKey};
pub use engine::{Engine, QueryError, QueryOutcome, Solution};
pub use error::EngineError;
pub use machine::{Flow, Machine, MachineConfig};

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(src: &str) -> Engine {
        let mut e = Engine::new();
        e.consult(src).expect("test program parses");
        e
    }

    fn answers(e: &mut Engine, q: &str) -> Vec<String> {
        e.query(q).unwrap().solution_set()
    }

    #[test]
    fn facts_and_rules() {
        let mut e = engine(
            "mother(john, joan). mother(jane, joan). mother(joan, granny).
             parent(C, P) :- mother(C, P).",
        );
        assert_eq!(
            answers(&mut e, "parent(X, joan)"),
            vec!["X = jane", "X = john"]
        );
        assert!(!e.query("parent(granny, _)").unwrap().succeeded());
    }

    #[test]
    fn conjunction_and_backtracking() {
        let mut e = engine(
            "p(1). p(2). p(3). q(2). q(3).
             both(X) :- p(X), q(X).",
        );
        assert_eq!(answers(&mut e, "both(X)"), vec!["X = 2", "X = 3"]);
    }

    #[test]
    fn disjunction() {
        let mut e = engine("c(X) :- X = a ; X = b.");
        assert_eq!(answers(&mut e, "c(X)"), vec!["X = a", "X = b"]);
    }

    #[test]
    fn cut_commits_to_first_clause() {
        let mut e = engine(
            "max(X, Y, X) :- X >= Y, !.
             max(_, Y, Y).",
        );
        assert_eq!(answers(&mut e, "max(3, 1, M)"), vec!["M = 3"]);
        assert_eq!(answers(&mut e, "max(1, 3, M)"), vec!["M = 3"]);
    }

    #[test]
    fn cut_inside_disjunction_cuts_the_clause() {
        let mut e = engine(
            "t(X) :- (X = 1, ! ; X = 2).
             t(3).",
        );
        // The cut in the first disjunct prunes both the second disjunct and
        // the second clause.
        assert_eq!(answers(&mut e, "t(X)"), vec!["X = 1"]);
    }

    #[test]
    fn cut_is_local_to_its_predicate() {
        let mut e = engine(
            "inner(1) :- !.
             inner(2).
             outer(X, Y) :- member_(X, [a, b]), inner(Y).
             member_(X, [X|_]).
             member_(X, [_|T]) :- member_(X, T).",
        );
        // inner's cut must not prune member_'s choicepoints.
        assert_eq!(
            answers(&mut e, "outer(X, Y)"),
            vec!["X = a, Y = 1", "X = b, Y = 1"]
        );
    }

    #[test]
    fn if_then_else() {
        let mut e = engine(
            "classify(X, neg) :- (X < 0 -> true ; fail).
             sign_of(X, S) :- (X < 0 -> S = neg ; X > 0 -> S = pos ; S = zero).",
        );
        assert_eq!(answers(&mut e, "sign_of(-5, S)"), vec!["S = neg"]);
        assert_eq!(answers(&mut e, "sign_of(5, S)"), vec!["S = pos"]);
        assert_eq!(answers(&mut e, "sign_of(0, S)"), vec!["S = zero"]);
        assert!(e.query("classify(1, _)").unwrap().solutions.is_empty());
    }

    #[test]
    fn if_then_else_commits_to_first_condition_solution() {
        let mut e = engine(
            "p(1). p(2).
             q(X) :- (p(X) -> true ; fail).",
        );
        assert_eq!(answers(&mut e, "q(X)"), vec!["X = 1"]);
    }

    #[test]
    fn negation_as_failure() {
        let mut e = engine(
            "girl(ann). wife(tom, sue).
             female(X) :- girl(X).
             female(X) :- wife(_, X).
             male_name(X) :- name_(X), \\+ female(X).
             name_(ann). name_(sue). name_(tom).",
        );
        assert_eq!(answers(&mut e, "male_name(X)"), vec!["X = tom"]);
    }

    #[test]
    fn negation_exports_no_bindings() {
        let mut e = engine("p(1). q(X) :- \\+ (p(X), fail), true.");
        let out = e.query("q(X)").unwrap();
        assert_eq!(out.solutions[0].to_string(), "X = _G0");
    }

    #[test]
    fn recursion_over_lists() {
        let mut e = engine(
            "append_([], X, X).
             append_([H|T], Y, [H|Z]) :- append_(T, Y, Z).",
        );
        assert_eq!(
            answers(&mut e, "append_([1,2], [3], L)"),
            vec!["L = [1, 2, 3]"]
        );
        let out = e.query("append_(A, B, [1, 2])").unwrap();
        assert_eq!(out.solutions.len(), 3);
    }

    #[test]
    fn paper_length_example() {
        // §III-A: the clause order with the recursive clause first.
        let mut e = engine(
            "len([_|List], C, L) :- C1 is C + 1, len(List, C1, L).
             len([], L, L).",
        );
        assert_eq!(answers(&mut e, "len([a,b,c], 0, N)"), vec!["N = 3"]);
    }

    #[test]
    fn arithmetic() {
        let mut e = engine("double(X, Y) :- Y is X * 2.");
        assert_eq!(answers(&mut e, "double(21, X)"), vec!["X = 42"]);
        assert_eq!(answers(&mut e, "X is 7 mod 3"), vec!["X = 1"]);
        assert_eq!(answers(&mut e, "X is -7 mod 3"), vec!["X = 2"]);
        // ISO's floored `mod` takes the divisor's sign; `//` truncates.
        assert!(e.query("7 mod -3 =:= -2").unwrap().succeeded());
        assert!(e.query("-7 mod -3 =:= -1").unwrap().succeeded());
        assert!(e.query("-7 // 2 =:= -3").unwrap().succeeded());
        // The one quotient that overflows: `mod` answers 0, as `rem` does.
        let min_int = "(-9223372036854775807 - 1)";
        assert_eq!(
            answers(&mut e, &format!("X is {min_int} mod -1")),
            vec!["X = 0"]
        );
        assert_eq!(
            answers(&mut e, &format!("X is {min_int} rem -1")),
            vec!["X = 0"]
        );
        assert_eq!(answers(&mut e, "X is 2 ^ 10"), vec!["X = 1024"]);
        assert_eq!(answers(&mut e, "X is min(3, 1) + max(3, 1)"), vec!["X = 4"]);
        assert!(e.query("1 < 2").unwrap().succeeded());
        assert!(!e.query("2 =:= 3").unwrap().succeeded());
    }

    #[test]
    fn arithmetic_errors() {
        let mut e = engine("p.");
        match e.query("X is Y + 1") {
            Err(QueryError::Engine(EngineError::Instantiation(_))) => {}
            other => panic!("expected instantiation error, got {other:?}"),
        }
        match e.query("X is 1 // 0") {
            Err(QueryError::Engine(EngineError::Arithmetic(_))) => {}
            other => panic!("expected arithmetic error, got {other:?}"),
        }
        match e.query("X is foo + 1") {
            Err(QueryError::Engine(EngineError::Type { .. })) => {}
            other => panic!("expected type error, got {other:?}"),
        }
    }

    #[test]
    fn type_tests() {
        let mut e = engine("p.");
        assert!(e.has_solution("var(_)").unwrap());
        assert!(e.has_solution("nonvar(a)").unwrap());
        assert!(e.has_solution("atom(a)").unwrap());
        assert!(!e.has_solution("atom(1)").unwrap());
        assert!(e.has_solution("integer(3)").unwrap());
        assert!(e.has_solution("compound(f(x))").unwrap());
        assert!(e.has_solution("atomic(3.5)").unwrap());
        assert!(e.has_solution("is_list([1,2])").unwrap());
        assert!(!e.has_solution("is_list([1|_])").unwrap());
        assert!(e.has_solution("ground(f(a, b))").unwrap());
        assert!(!e.has_solution("ground(f(a, _))").unwrap());
    }

    #[test]
    fn functor_modes() {
        let mut e = engine("p.");
        assert_eq!(
            answers(&mut e, "functor(foo(a, b), N, A)"),
            vec!["N = foo, A = 2"]
        );
        assert_eq!(
            answers(&mut e, "functor(T, foo, 2)"),
            vec!["T = foo(_G0, _G1)"]
        );
        assert_eq!(answers(&mut e, "functor(T, foo, 0)"), vec!["T = foo"]);
        // the paper's example: name-only or arity-only is a run-time error
        assert!(matches!(
            e.query("functor(T, foo, A)"),
            Err(QueryError::Engine(EngineError::Instantiation(_)))
        ));
        assert!(matches!(
            e.query("functor(T, N, 2)"),
            Err(QueryError::Engine(EngineError::Instantiation(_)))
        ));
    }

    #[test]
    fn univ_and_arg() {
        let mut e = engine("p.");
        assert_eq!(answers(&mut e, "foo(a, b) =.. L"), vec!["L = [foo, a, b]"]);
        assert_eq!(answers(&mut e, "T =.. [foo, x]"), vec!["T = foo(x)"]);
        assert_eq!(answers(&mut e, "T =.. [42]"), vec!["T = 42"]);
        assert_eq!(answers(&mut e, "arg(2, foo(a, b, c), X)"), vec!["X = b"]);
        assert!(!e.has_solution("arg(9, foo(a), _)").unwrap());
    }

    #[test]
    fn identity_and_order() {
        let mut e = engine("p.");
        assert!(e.has_solution("a == a").unwrap());
        assert!(!e.has_solution("X == Y").unwrap());
        assert!(e.has_solution("X == X").unwrap());
        assert!(e.has_solution("a @< b").unwrap());
        assert!(e.has_solution("a @< f(a)").unwrap());
        assert!(e.has_solution("1 @< a").unwrap());
        assert_eq!(answers(&mut e, "compare(O, 1, 2)"), vec!["O = <"]);
    }

    #[test]
    fn findall_collects_all() {
        let mut e = engine("p(1). p(2). p(3).");
        assert_eq!(
            answers(&mut e, "findall(X, p(X), L)"),
            vec!["X = _G0, L = [1, 2, 3]"]
        );
        assert_eq!(
            answers(&mut e, "findall(X, fail, L)"),
            vec!["X = _G0, L = []"]
        );
        let mut e = engine("q(f(_)).");
        assert_eq!(
            answers(&mut e, "findall(X, q(X), L)"),
            vec!["X = _G0, L = [f(_G1)]"]
        );
    }

    #[test]
    fn bagof_and_setof() {
        let mut e = engine("p(3). p(1). p(2). p(1).");
        assert_eq!(
            answers(&mut e, "bagof(X, p(X), L)"),
            vec!["X = _G0, L = [3, 1, 2, 1]"]
        );
        assert_eq!(
            answers(&mut e, "setof(X, p(X), L)"),
            vec!["X = _G0, L = [1, 2, 3]"]
        );
        assert!(!e.has_solution("bagof(X, fail, L)").unwrap());
        let mut e = engine("r(1, a). r(2, b).");
        assert_eq!(
            answers(&mut e, "setof(X, Y^r(X, Y), L)"),
            vec!["X = _G0, Y = _G1, L = [1, 2]"]
        );
    }

    #[test]
    fn length_and_between() {
        let mut e = engine("p.");
        assert_eq!(answers(&mut e, "length([a,b,c], N)"), vec!["N = 3"]);
        assert_eq!(answers(&mut e, "length(L, 2)"), vec!["L = [_G0, _G1]"]);
        assert!(matches!(
            e.query("length(L, N)"),
            Err(QueryError::Engine(EngineError::Instantiation(_)))
        ));
        assert_eq!(
            answers(&mut e, "between(1, 3, X)"),
            vec!["X = 1", "X = 2", "X = 3"]
        );
        assert!(e.has_solution("between(1, 3, 2)").unwrap());
        assert!(!e.has_solution("between(1, 3, 9)").unwrap());
    }

    #[test]
    fn sort_and_msort() {
        let mut e = engine("p.");
        assert_eq!(
            answers(&mut e, "sort([c, a, b, a], L)"),
            vec!["L = [a, b, c]"]
        );
        assert_eq!(
            answers(&mut e, "msort([c, a, b, a], L)"),
            vec!["L = [a, a, b, c]"]
        );
    }

    #[test]
    fn failure_driven_loop_writes_all_tuples() {
        // §IV-D.4: the show_all idiom.
        let mut e = engine(
            "t(1, a). t(2, b).
             show_all :- t(X, Y), write(X-Y), nl, fail.
             show_all.",
        );
        let out = e.query("show_all").unwrap();
        assert!(out.succeeded());
        assert_eq!(out.output, "1 - a\n2 - b\n");
    }

    #[test]
    fn side_effects_survive_backtracking() {
        let mut e = engine("p(1). p(2).");
        let out = e.query("p(X), write(X), fail ; true").unwrap();
        assert_eq!(out.output, "12");
    }

    #[test]
    fn call_meta() {
        let mut e = engine("p(1). p(2).");
        assert_eq!(answers(&mut e, "call(p(X))"), vec!["X = 1", "X = 2"]);
        assert!(matches!(
            e.query("call(G)"),
            Err(QueryError::Engine(EngineError::VariableGoal))
        ));
    }

    #[test]
    fn forall_checks_all() {
        let mut e = engine("p(2). p(4). q(X) :- 0 is X mod 2.");
        assert!(e.has_solution("forall(p(X), q(X))").unwrap());
        let mut e = engine("p(2). p(3). q(X) :- 0 is X mod 2.");
        assert!(!e.has_solution("forall(p(X), q(X))").unwrap());
    }

    #[test]
    fn counters_count_calls_and_unifications() {
        let mut e = engine("f(1). f(2). g(X) :- f(X).");
        let out = e.query("g(X)").unwrap();
        // g called once, f called once (redo is not a new call); head
        // unifications: 1 for g's clause + 2 for f's clauses.
        assert_eq!(out.counters.user_calls, 2);
        assert_eq!(out.counters.unifications, 3);
    }

    #[test]
    fn existence_error_and_unknown_fails_flag() {
        let mut e = engine("p.");
        assert!(matches!(
            e.query("nosuch(1)"),
            Err(QueryError::Engine(EngineError::Existence(_)))
        ));
        e.config.unknown_fails = true;
        assert!(!e.has_solution("nosuch(1)").unwrap());
    }

    #[test]
    fn call_limit_catches_infinite_enumeration() {
        // delete/3 in its illegal mode (§V-B) produces infinitely many
        // solutions; the call budget turns that into an error.
        let mut e = engine(
            "delete(X, [X|Y], Y).
             delete(U, [X|Y], [X|V]) :- delete(U, Y, V).",
        );
        e.config.max_calls = 500;
        match e.query("delete(a, L, R)") {
            Err(QueryError::Engine(EngineError::CallLimit(_))) => {}
            other => panic!("expected call limit, got {other:?}"),
        }
    }

    #[test]
    fn depth_limit_catches_nonproductive_recursion() {
        let mut e = engine("loop :- loop.");
        e.config.max_depth = 500;
        match e.query("loop") {
            Err(QueryError::Engine(EngineError::DepthLimit(_))) => {}
            other => panic!("expected depth limit, got {other:?}"),
        }
    }

    #[test]
    fn the_default_depth_limit_holds_on_a_reused_query_thread() {
        // The query thread's big stack exists for these 100,000
        // activations; reusing the thread must not eat into it, and the
        // caller's own stack must not matter.
        let mut e = engine("loop :- loop.");
        let limit = QueryError::Engine(EngineError::DepthLimit(100_000));
        assert_eq!(e.query("loop").unwrap_err(), limit);
        assert_eq!(e.query("loop").unwrap_err(), limit);
        let from_small_stack = std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(move || e.query("loop").unwrap_err())
            .expect("spawn caller")
            .join()
            .expect("caller returns");
        assert_eq!(from_small_stack, limit);
    }

    #[test]
    fn a_panicking_query_leaves_the_engine_whole() {
        use prolog_syntax::{sym, Term};
        let mut e = engine("p(1). p(2).");
        assert_eq!(answers(&mut e, "p(X)"), vec!["X = 1", "X = 2"]);
        let before = e.total_counters();
        // `_3` is store cell 3, but no variable names means no cells.
        let goal = Term::struct_(sym("p"), vec![Term::Var(3)]);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.query_term(&goal, &[], usize::MAX)
        }))
        .expect_err("a goal variable without a cell panics");
        let message = payload
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert!(
            message.contains("index out of bounds"),
            "the query's own payload, got {message:?}"
        );
        assert_eq!(e.total_counters(), before);
        assert_eq!(answers(&mut e, "p(X)"), vec!["X = 1", "X = 2"]);
    }

    #[test]
    fn indexing_reduces_unifications_but_not_solutions() {
        let src = "color(red, 1). color(green, 2). color(blue, 3).";
        let mut indexed = engine(src);
        let mut scan = engine(src);
        scan.config.indexing = false;
        let a = indexed.query("color(blue, X)").unwrap();
        let b = scan.query("color(blue, X)").unwrap();
        assert_eq!(a.solution_set(), b.solution_set());
        assert!(a.counters.unifications < b.counters.unifications);
        assert_eq!(a.counters.unifications, 1);
        assert_eq!(b.counters.unifications, 3);
    }

    #[test]
    fn paper_intro_grandmother_example() {
        let mut e = engine(
            "wife(john, jane). mother(john, joan). mother(jane, joan).
             mother(joan, granny).
             female(W) :- girl(W).
             female(W) :- wife(_, W).
             girl(ann). girl(granny).
             grandmother(GC, GM) :- grandparent(GC, GM), female(GM).
             grandparent(GC, GP) :- parent(P, GP), parent(GC, P).
             parent(C, P) :- mother(C, P).
             parent(C, P) :- mother(C, M), wife(P, M).",
        );
        let out = e.query("grandmother(X, Y)").unwrap();
        assert!(out.succeeded());
        for s in &out.solutions {
            assert_eq!(s.get("Y").unwrap(), &prolog_syntax::Term::atom("granny"));
        }
    }

    #[test]
    fn permutation_works_forwards() {
        let mut e = engine(
            "select_(X, [X|Xs], Xs).
             select_(X, [Y|Xs], [Y|Ys]) :- select_(X, Xs, Ys).
             permutation([], []).
             permutation(Xs, [X|Ys]) :- select_(X, Xs, Zs), permutation(Zs, Ys).",
        );
        let out = e.query("permutation([1,2,3], P)").unwrap();
        assert_eq!(out.solutions.len(), 6);
    }

    #[test]
    fn query_limit_truncates() {
        let mut e = engine("n(X) :- between(1, 1000000, X).");
        let out = e.query_limit("n(X)", 5).unwrap();
        assert_eq!(out.solutions.len(), 5);
        assert!(out.truncated);
    }

    #[test]
    fn anonymous_variables_not_reported() {
        let mut e = engine("p(1, 2).");
        let out = e.query("p(_, X)").unwrap();
        assert_eq!(out.solutions[0].to_string(), "X = 2");
    }

    #[test]
    fn read_consumes_terms_and_reports_eof() {
        let mut e = engine("collect(X, Y) :- read(X), read(Y).");
        e.set_input_terms(vec![
            prolog_syntax::parse_term("point(1, 2)").unwrap().0,
            prolog_syntax::Term::atom("stop"),
        ]);
        let out = e.query("collect(A, B)").unwrap();
        assert_eq!(out.solutions[0].to_string(), "A = point(1, 2), B = stop");
        // input was consumed by that query; the next read sees EOF
        let out = e.query("read(T)").unwrap();
        assert_eq!(out.solutions[0].to_string(), "T = end_of_file");
    }

    #[test]
    fn read_is_not_undone_by_backtracking() {
        // Two reads on two clause attempts consume two terms: the stream
        // position is a side effect.
        let mut e = engine(
            "try(X) :- read(X), X = no.
             try(X) :- read(X).",
        );
        e.set_input_terms(vec![
            prolog_syntax::Term::atom("first"),
            prolog_syntax::Term::atom("second"),
        ]);
        let out = e.query("try(V)").unwrap();
        assert_eq!(out.solutions[0].to_string(), "V = second");
    }

    #[test]
    fn get_and_put_characters() {
        let mut e = engine("shout :- get(C), D is C - 32, put(D).");
        e.set_input_text("a");
        let out = e.query("shout").unwrap();
        assert_eq!(out.output, "A");
        // EOF yields -1
        let out = e.query("get(C)").unwrap();
        assert_eq!(out.solutions[0].to_string(), "C = -1");
    }

    #[test]
    fn double_negation() {
        let mut e = engine("p(1).");
        assert!(e.has_solution("\\+ \\+ p(1)").unwrap());
        assert!(!e.has_solution("\\+ p(1)").unwrap());
    }

    #[test]
    fn indexed_call_tries_the_matching_and_var_headed_clauses() {
        // Indexing narrows p(a, N) to the two a-clauses plus the
        // var-headed one: one user call, three head unifications.
        let mut e = engine("p(a, 1). p(b, 2). p(a, 3). p(X, 4).");
        let out = e.query("p(a, N)").unwrap();
        assert_eq!(out.solutions.len(), 3);
        assert_eq!(out.counters.user_calls, 1);
        assert_eq!(out.counters.unifications, 3);
    }

    #[test]
    fn occurs_check_fails_a_cyclic_head_binding() {
        let mut e = engine("grow(X, f(X)).");
        e.config.occurs_check = true;
        // X = f(X) must fail under the occurs check.
        assert!(!e.query("grow(Y, Y)").unwrap().succeeded());
    }

    #[test]
    fn a_clause_consulted_after_a_query_is_visible_to_the_next() {
        let mut e = engine("p(1).");
        assert_eq!(e.query("p(X)").unwrap().solutions.len(), 1);
        e.consult("p(2).").unwrap();
        assert_eq!(e.query("p(X)").unwrap().solutions.len(), 2);
    }
}
