//! Clause storage with optional first-argument indexing.
//!
//! The paper (§III-A) notes that clause indexing "can have the same effect"
//! as some clause reorderings: the engine checks the type of the first
//! argument of a call and tries only clauses whose heads might unify. The
//! database implements exactly that filter, switchable per engine, so the
//! benchmark harness can measure reordering with and without indexing.

use prolog_syntax::{Body, Clause, PredId, SourceProgram, Term};
use std::collections::HashMap;
use std::sync::Arc;

/// Index key extracted from a (dereferenced) first argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKey {
    Atom(prolog_syntax::Symbol),
    Int(i64),
    /// Functor name/arity; float keys also land here rarely enough that we
    /// fall back to scanning for them.
    Struct(prolog_syntax::Symbol, usize),
}

impl IndexKey {
    /// Key of a term, if it is indexable (bound and not a float).
    pub fn of(term: &Term) -> Option<IndexKey> {
        match term {
            Term::Atom(a) => Some(IndexKey::Atom(*a)),
            Term::Int(n) => Some(IndexKey::Int(*n)),
            Term::Struct(f, args) => Some(IndexKey::Struct(*f, args.len())),
            Term::Var(_) | Term::Float(_) => None,
        }
    }
}

/// One predicate's clauses, in program order, plus its first-argument index.
#[derive(Debug, Default)]
pub struct Predicate {
    pub clauses: Vec<Arc<Clause>>,
    /// Positions of clauses whose head's first argument matches each key.
    index: HashMap<IndexKey, Vec<usize>>,
    /// Positions of clauses whose head's first argument is a variable (or
    /// the predicate has arity 0 / an unindexable first argument): these
    /// match any call.
    unindexed: Vec<usize>,
}

impl Predicate {
    fn push(&mut self, clause: Arc<Clause>) {
        let pos = self.clauses.len();
        let key = clause.head.args().first().and_then(IndexKey::of);
        match key {
            Some(k) => self.index.entry(k).or_default().push(pos),
            None => {
                // A var-headed clause matches every key: append to every
                // existing bucket and remember it for future buckets.
                for bucket in self.index.values_mut() {
                    bucket.push(pos);
                }
                self.unindexed.push(pos);
            }
        }
        self.clauses.push(clause);
    }

    /// Clause positions to try for a call whose first argument has `key`,
    /// in program order.
    fn candidates(&self, key: Option<IndexKey>) -> Vec<usize> {
        match key {
            None => (0..self.clauses.len()).collect(),
            Some(k) => {
                let mut out: Vec<usize> = self.index.get(&k).cloned().unwrap_or_default();
                // Merge in var-headed clauses not already in the bucket
                // (those added before the bucket existed).
                for &pos in &self.unindexed {
                    if !out.contains(&pos) {
                        out.push(pos);
                    }
                }
                out.sort_unstable();
                out
            }
        }
    }
}

/// The loaded program: predicates keyed by name/arity.
#[derive(Debug, Default)]
pub struct Database {
    preds: HashMap<PredId, Predicate>,
    /// Definition order, for listings.
    order: Vec<PredId>,
}

impl Database {
    pub fn new() -> Database {
        Database::default()
    }

    /// Loads every clause of a source program. Directives are ignored here;
    /// the analysis crate interprets them.
    pub fn load(&mut self, program: &SourceProgram) {
        for clause in &program.clauses {
            self.add_clause(clause.clone());
        }
    }

    pub fn add_clause(&mut self, clause: Clause) {
        let id = clause.pred_id();
        if !self.preds.contains_key(&id) {
            self.order.push(id);
        }
        self.preds.entry(id).or_default().push(Arc::new(clause));
    }

    /// Replaces all clauses of a predicate (used when swapping in a
    /// reordered version).
    pub fn replace_predicate(&mut self, id: PredId, clauses: Vec<Clause>) {
        let pred = self.preds.entry(id).or_default();
        *pred = Predicate::default();
        for c in clauses {
            assert_eq!(c.pred_id(), id, "clause belongs to a different predicate");
            pred.push(Arc::new(c));
        }
        if !self.order.contains(&id) {
            self.order.push(id);
        }
    }

    pub fn contains(&self, id: PredId) -> bool {
        self.preds.contains_key(&id)
    }

    /// All clauses of `id` in program order (empty if unknown).
    pub fn clauses(&self, id: PredId) -> &[Arc<Clause>] {
        self.preds
            .get(&id)
            .map(|p| p.clauses.as_slice())
            .unwrap_or(&[])
    }

    /// Clauses to try for a call, respecting first-argument indexing when
    /// `indexing` is on and the call's first argument is bound.
    pub fn matching_clauses(
        &self,
        id: PredId,
        first_arg_key: Option<IndexKey>,
        indexing: bool,
    ) -> Vec<Arc<Clause>> {
        let Some(pred) = self.preds.get(&id) else {
            return Vec::new();
        };
        if !indexing || id.arity == 0 {
            return pred.clauses.clone();
        }
        pred.candidates(first_arg_key)
            .into_iter()
            .map(|pos| pred.clauses[pos].clone())
            .collect()
    }

    /// Predicates in definition order.
    pub fn predicates(&self) -> &[PredId] {
        &self.order
    }

    /// Reconstructs a source program from the database (loses directives).
    pub fn to_source(&self) -> SourceProgram {
        let mut out = SourceProgram::default();
        for id in &self.order {
            for clause in self.clauses(*id) {
                out.clauses.push((**clause).clone());
            }
        }
        out
    }

    /// Number of clauses whose body is `true` for the predicate — used by
    /// cost estimation for fact tables.
    pub fn fact_count(&self, id: PredId) -> usize {
        self.clauses(id)
            .iter()
            .filter(|c| matches!(c.body, Body::True))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prolog_syntax::parse_program;

    fn db(src: &str) -> Database {
        let mut d = Database::new();
        d.load(&parse_program(src).unwrap());
        d
    }

    #[test]
    fn load_groups_by_predicate() {
        let d = db("a(1). a(2). b(x) :- a(x).");
        assert_eq!(d.clauses(PredId::new("a", 1)).len(), 2);
        assert_eq!(d.clauses(PredId::new("b", 1)).len(), 1);
        assert_eq!(d.predicates().len(), 2);
    }

    #[test]
    fn indexing_filters_by_first_argument() {
        let d = db("p(a, 1). p(b, 2). p(a, 3). p(X, 4).");
        let id = PredId::new("p", 2);
        let all = d.matching_clauses(id, Some(IndexKey::Atom(prolog_syntax::sym("a"))), false);
        assert_eq!(all.len(), 4);
        let filtered = d.matching_clauses(id, Some(IndexKey::Atom(prolog_syntax::sym("a"))), true);
        // two a-clauses plus the var-headed clause
        assert_eq!(filtered.len(), 3);
        // order preserved
        assert_eq!(filtered[0].head.args()[1], Term::Int(1));
        assert_eq!(filtered[1].head.args()[1], Term::Int(3));
        assert_eq!(filtered[2].head.args()[1], Term::Int(4));
    }

    #[test]
    fn unbound_first_argument_tries_all_clauses() {
        let d = db("p(a). p(b).");
        let id = PredId::new("p", 1);
        assert_eq!(d.matching_clauses(id, None, true).len(), 2);
    }

    #[test]
    fn var_headed_clause_matches_unseen_keys() {
        let d = db("p(X, any). p(a, 1).");
        let id = PredId::new("p", 2);
        let hits = d.matching_clauses(id, Some(IndexKey::Atom(prolog_syntax::sym("zzz"))), true);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].head.args()[1], Term::atom("any"));
    }

    #[test]
    fn struct_keys_index_by_functor_and_arity() {
        let d = db("q(f(1), one). q(f(1,2), two). q(g(1), three).");
        let id = PredId::new("q", 2);
        let key = IndexKey::of(&Term::app("f", vec![Term::Int(9)]));
        let hits = d.matching_clauses(id, key, true);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].head.args()[1], Term::atom("one"));
    }

    #[test]
    fn replace_predicate_swaps_clauses() {
        let mut d = db("p(a). p(b).");
        let id = PredId::new("p", 1);
        let newc = parse_program("p(c).").unwrap().clauses;
        d.replace_predicate(id, newc);
        assert_eq!(d.clauses(id).len(), 1);
    }

    #[test]
    fn fact_count_ignores_rules() {
        let d = db("p(a). p(b). p(X) :- q(X).");
        assert_eq!(d.fact_count(PredId::new("p", 1)), 2);
    }

    #[test]
    fn unknown_predicate_has_no_clauses() {
        let d = db("p(a).");
        assert!(d.clauses(PredId::new("nope", 3)).is_empty());
        assert!(!d.contains(PredId::new("nope", 3)));
    }
}
