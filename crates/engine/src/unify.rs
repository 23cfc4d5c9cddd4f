//! Unification over the binding store.

use crate::store::Store;
use prolog_syntax::Term;

/// Unifies `a` and `b` in `store`, trailing any bindings made. On failure
/// the caller must undo to its own mark (partial bindings may remain).
///
/// `occurs_check` enables the occurs check; standard Prolog (and the
/// paper's systems) run without it.
pub fn unify(store: &mut Store, a: &Term, b: &Term, occurs_check: bool) -> bool {
    let a = store.deref(a);
    let b = store.deref(b);
    match (&a, &b) {
        (Term::Var(x), Term::Var(y)) => {
            if x != y {
                // Bind the younger variable to the older to keep chains
                // short and avoid dangling references under store shrink.
                if x > y {
                    store.bind(*x, Term::Var(*y));
                } else {
                    store.bind(*y, Term::Var(*x));
                }
            }
            true
        }
        (Term::Var(x), t) => {
            if occurs_check && occurs(store, *x, t) {
                return false;
            }
            store.bind(*x, t.clone());
            true
        }
        (t, Term::Var(y)) => {
            if occurs_check && occurs(store, *y, t) {
                return false;
            }
            store.bind(*y, t.clone());
            true
        }
        (Term::Atom(p), Term::Atom(q)) => p == q,
        (Term::Int(m), Term::Int(n)) => m == n,
        (Term::Float(x), Term::Float(y)) => x == y,
        (Term::Struct(f, fa), Term::Struct(g, ga)) => {
            if f != g || fa.len() != ga.len() {
                return false;
            }
            fa.iter()
                .zip(ga.iter())
                .all(|(x, y)| unify(store, x, y, occurs_check))
        }
        _ => false,
    }
}

/// Unifies `goal` with a clause-head template `head` whose `Var(i)` stands
/// for store cell `base + i`, without renaming the template first. It makes
/// the same bindings, in the same order and direction, as
/// `unify(store, goal, &head.offset_vars(base), occurs_check)`, but copies
/// a template subterm only when a goal variable is bound to it.
pub fn unify_renamed(
    store: &mut Store,
    goal: &Term,
    head: &Term,
    base: usize,
    occurs_check: bool,
) -> bool {
    match head {
        Term::Var(i) => unify(store, goal, &Term::Var(base + i), occurs_check),
        Term::Struct(g, ga) => match store.deref(goal) {
            Term::Var(x) => {
                let t = head.offset_vars(base);
                if occurs_check && occurs(store, x, &t) {
                    return false;
                }
                store.bind(x, t);
                true
            }
            Term::Struct(f, fa) => {
                f == *g
                    && fa.len() == ga.len()
                    && fa
                        .iter()
                        .zip(ga.iter())
                        .all(|(x, y)| unify_renamed(store, x, y, base, occurs_check))
            }
            _ => false,
        },
        atomic => unify(store, goal, atomic, occurs_check),
    }
}

/// `true` if variable `v` occurs in `t` (after dereferencing).
pub fn occurs(store: &Store, v: usize, t: &Term) -> bool {
    match store.deref(t) {
        Term::Var(w) => v == w,
        Term::Struct(_, args) => args.iter().any(|a| occurs(store, v, a)),
        _ => false,
    }
}

/// Structural identity `==/2`: equal without binding anything.
pub fn identical(store: &Store, a: &Term, b: &Term) -> bool {
    let a = store.deref(a);
    let b = store.deref(b);
    match (&a, &b) {
        (Term::Var(x), Term::Var(y)) => x == y,
        (Term::Atom(p), Term::Atom(q)) => p == q,
        (Term::Int(m), Term::Int(n)) => m == n,
        (Term::Float(x), Term::Float(y)) => x == y,
        (Term::Struct(f, fa), Term::Struct(g, ga)) => {
            f == g
                && fa.len() == ga.len()
                && fa
                    .iter()
                    .zip(ga.iter())
                    .all(|(x, y)| identical(store, x, y))
        }
        _ => false,
    }
}

/// Standard order comparison respecting current bindings.
pub fn compare(store: &Store, a: &Term, b: &Term) -> std::cmp::Ordering {
    store.resolve(a).compare(&store.resolve(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> Store {
        Store::new()
    }

    #[test]
    fn atoms_unify_iff_equal() {
        let mut s = store();
        assert!(unify(&mut s, &Term::atom("a"), &Term::atom("a"), false));
        assert!(!unify(&mut s, &Term::atom("a"), &Term::atom("b"), false));
    }

    #[test]
    fn var_binds_to_term() {
        let mut s = store();
        let v = s.new_var();
        assert!(unify(&mut s, &Term::Var(v), &Term::Int(5), false));
        assert_eq!(s.deref(&Term::Var(v)), Term::Int(5));
    }

    #[test]
    fn structs_unify_recursively() {
        let mut s = store();
        let x = s.new_var();
        let y = s.new_var();
        let a = Term::app("f", vec![Term::Var(x), Term::atom("b")]);
        let b = Term::app("f", vec![Term::atom("a"), Term::Var(y)]);
        assert!(unify(&mut s, &a, &b, false));
        assert_eq!(s.deref(&Term::Var(x)), Term::atom("a"));
        assert_eq!(s.deref(&Term::Var(y)), Term::atom("b"));
    }

    #[test]
    fn arity_mismatch_fails() {
        let mut s = store();
        let a = Term::app("f", vec![Term::Int(1)]);
        let b = Term::app("f", vec![Term::Int(1), Term::Int(2)]);
        assert!(!unify(&mut s, &a, &b, false));
    }

    #[test]
    fn aliased_vars_unify_together() {
        let mut s = store();
        let x = s.new_var();
        let y = s.new_var();
        assert!(unify(&mut s, &Term::Var(x), &Term::Var(y), false));
        // binding one now binds the other
        assert!(unify(&mut s, &Term::Var(x), &Term::atom("k"), false));
        assert_eq!(s.deref(&Term::Var(y)), Term::atom("k"));
    }

    #[test]
    fn occurs_check_blocks_cyclic_terms() {
        let mut s = store();
        let x = s.new_var();
        let t = Term::app("f", vec![Term::Var(x)]);
        assert!(!unify(&mut s, &Term::Var(x), &t, true));
        // without the check it binds (creating a rational tree we never print)
        let mut s2 = store();
        let y = s2.new_var();
        let t2 = Term::app("f", vec![Term::Var(y)]);
        assert!(unify(&mut s2, &Term::Var(y), &t2, false));
    }

    #[test]
    fn identical_does_not_bind() {
        let mut s = store();
        let x = s.new_var();
        assert!(!identical(&s, &Term::Var(x), &Term::atom("a")));
        assert!(s.is_unbound(&Term::Var(x)));
        assert!(identical(&s, &Term::Var(x), &Term::Var(x)));
        s.bind(x, Term::atom("a"));
        assert!(identical(&s, &Term::Var(x), &Term::atom("a")));
    }

    #[test]
    fn failure_may_leave_partial_bindings_undo_restores() {
        let mut s = store();
        let x = s.new_var();
        let m = s.mark();
        let a = Term::app("f", vec![Term::Var(x), Term::atom("b")]);
        let b = Term::app("f", vec![Term::atom("a"), Term::atom("c")]);
        assert!(!unify(&mut s, &a, &b, false));
        s.undo_to(m);
        assert!(s.is_unbound(&Term::Var(x)));
    }
}
