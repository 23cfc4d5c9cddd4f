//! Clause storage with optional first-argument indexing.
//!
//! The paper (§III-A) notes that clause indexing "can have the same effect"
//! as some clause reorderings: the engine checks the type of the first
//! argument of a call and tries only clauses whose heads might unify. The
//! database implements exactly that filter, switchable per engine, so the
//! benchmark harness can measure reordering with and without indexing.

use prolog_syntax::{Body, Clause, PredId, SourceProgram, Term};
use std::collections::HashMap;

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
    clauses: Vec<Clause>,
    /// `Clause::num_vars` of each clause, counted once at load.
    num_vars: Vec<usize>,
    /// Every position, for calls the index cannot narrow.
    all: Vec<usize>,
    /// For each key, the positions of the clauses whose head's first
    /// argument has that key or is a variable, in program order.
    index: HashMap<IndexKey, Vec<usize>>,
    /// Positions of clauses whose head's first argument is a variable (or
    /// the predicate has arity 0 / an unindexable first argument): these
    /// match any call, so they are the candidates for a key with no bucket.
    unindexed: Vec<usize>,
}

impl Predicate {
    fn push(&mut self, clause: Clause) {
        let pos = self.clauses.len();
        match clause.head.args().first().and_then(IndexKey::of) {
            Some(k) => self
                .index
                .entry(k)
                .or_insert_with(|| self.unindexed.clone())
                .push(pos),
            None => {
                // A var-headed clause matches every key.
                for bucket in self.index.values_mut() {
                    bucket.push(pos);
                }
                self.unindexed.push(pos);
            }
        }
        self.num_vars.push(clause.num_vars());
        self.all.push(pos);
        self.clauses.push(clause);
    }

    /// Clause positions to try for a call whose first argument has `key`
    /// (`None`: unbound, unindexable, or indexing off), in program order.
    fn candidates(&self, key: Option<IndexKey>) -> &[usize] {
        match key {
            Some(k) => self.index.get(&k).unwrap_or(&self.unindexed),
            None => &self.all,
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
        self.preds.entry(id).or_default().push(clause);
    }

    /// Replaces all clauses of a predicate (used when swapping in a
    /// reordered version).
    pub fn replace_predicate(&mut self, id: PredId, clauses: Vec<Clause>) {
        let pred = self.preds.entry(id).or_default();
        *pred = Predicate::default();
        for c in clauses {
            assert_eq!(c.pred_id(), id, "clause belongs to a different predicate");
            pred.push(c);
        }
        if !self.order.contains(&id) {
            self.order.push(id);
        }
    }

    /// All clauses of `id` in program order (empty if unknown).
    pub fn clauses(&self, id: PredId) -> &[Clause] {
        self.preds
            .get(&id)
            .map(|p| p.clauses.as_slice())
            .unwrap_or(&[])
    }

    /// Clauses to try for a call, each with its variable count, in program
    /// order: those whose head's first argument might match
    /// `first_arg_key` when `indexing` is on, else all of them. `None` if
    /// the predicate is unknown.
    pub fn matching_clauses(
        &self,
        id: PredId,
        first_arg_key: Option<IndexKey>,
        indexing: bool,
    ) -> Option<impl Iterator<Item = (&Clause, usize)>> {
        let pred = self.preds.get(&id)?;
        let key = first_arg_key.filter(|_| indexing);
        Some(
            pred.candidates(key)
                .iter()
                .map(move |&pos| (&pred.clauses[pos], pred.num_vars[pos])),
        )
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
                out.clauses.push(clause.clone());
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
    use prolog_syntax::{parse_program, sym};

    fn db(src: &str) -> Database {
        let mut d = Database::new();
        d.load(&parse_program(src).unwrap());
        d
    }

    /// Second head argument of each clause `matching_clauses` yields.
    fn seconds(d: &Database, id: PredId, key: Option<IndexKey>, indexing: bool) -> Vec<Term> {
        d.matching_clauses(id, key, indexing)
            .expect("known predicate")
            .map(|(c, _)| c.head.args()[1].clone())
            .collect()
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
        let a = Some(IndexKey::Atom(sym("a")));
        assert_eq!(seconds(&d, id, a, false).len(), 4);
        // two a-clauses plus the var-headed clause, in program order
        let ints = |ns: &[i64]| ns.iter().map(|&n| Term::Int(n)).collect::<Vec<_>>();
        assert_eq!(seconds(&d, id, a, true), ints(&[1, 3, 4]));
    }

    #[test]
    fn unbound_first_argument_tries_all_clauses() {
        let d = db("p(a). p(b).");
        let id = PredId::new("p", 1);
        assert_eq!(d.matching_clauses(id, None, true).unwrap().count(), 2);
    }

    #[test]
    fn var_headed_clause_matches_unseen_keys() {
        let d = db("p(X, any). p(a, 1).");
        let id = PredId::new("p", 2);
        let zzz = Some(IndexKey::Atom(sym("zzz")));
        assert_eq!(seconds(&d, id, zzz, true), vec![Term::atom("any")]);
    }

    #[test]
    fn buckets_built_after_var_headed_clauses_keep_program_order() {
        let d = db("p(X, any). p(a, 1). p(Y, other). p(a, 2). p(b, 3).");
        let pred = &d.preds[&PredId::new("p", 2)];
        let key = |name: &str| Some(IndexKey::Atom(sym(name)));
        assert_eq!(pred.candidates(key("a")), [0, 1, 2, 3]);
        assert_eq!(pred.candidates(key("b")), [0, 2, 4]);
        assert_eq!(pred.candidates(key("unseen")), [0, 2]);
        assert_eq!(pred.candidates(None), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn variable_counts_are_recorded_at_load() {
        let d = db("p(a, b). p(X, Y) :- q(Y, Z), r(Z, X).");
        let id = PredId::new("p", 2);
        let counts: Vec<usize> = d
            .matching_clauses(id, None, true)
            .unwrap()
            .map(|(_, n)| n)
            .collect();
        assert_eq!(counts, [0, 3]);
    }

    #[test]
    fn struct_keys_index_by_functor_and_arity() {
        let d = db("q(f(1), one). q(f(1,2), two). q(g(1), three).");
        let id = PredId::new("q", 2);
        let key = IndexKey::of(&Term::app("f", vec![Term::Int(9)]));
        assert_eq!(seconds(&d, id, key, true), vec![Term::atom("one")]);
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
        assert!(d
            .matching_clauses(PredId::new("nope", 3), None, true)
            .is_none());
    }
}
