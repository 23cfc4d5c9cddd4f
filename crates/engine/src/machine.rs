//! The SLD-resolution machine: depth-first search with backtracking, cut,
//! control constructs, and instrumentation.
//!
//! The solver is written in continuation-passing style: `solve(body, level,
//! k)` proves `body` and invokes `k` once per solution; `k` returning
//! [`Ctl::Fail`] asks for the next solution, anything else unwinds the
//! search. The cut is implemented with *levels*: every predicate activation
//! (and every locally-scoped construct: `\+`, if-then-else conditions,
//! meta-calls) gets a fresh level, and executing `!` converts the eventual
//! failure of its continuation into [`Ctl::CutTo`] that level, which the
//! owning clause loop turns into plain failure without trying further
//! clauses.

use crate::builtins;
use crate::counters::{Counters, PredProfile};
use crate::database::{Database, IndexKey};
use crate::error::EngineError;
use crate::store::Store;
use crate::unify::unify_renamed;
use prolog_syntax::{Body, PredId, Term};

/// Search-control signal threaded through the solver.
#[derive(Debug)]
pub enum Ctl {
    /// No (more) solutions along this path; keep backtracking.
    Fail,
    /// A solution consumer asked to stop; unwind without undoing bindings.
    Stop,
    /// Backtracking reached a cut with the given level; unwind to the
    /// owning activation, then fail it.
    CutTo(usize),
    /// A run-time error; aborts the query.
    Err(EngineError),
}

/// Should the search continue after a solution?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    Continue,
    Stop,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct MachineConfig {
    /// First-argument clause indexing (§III-A). On by default, as in the
    /// paper's host systems.
    pub indexing: bool,
    /// Occurs check in unification. Off by default, as in DEC-10 Prolog.
    pub occurs_check: bool,
    /// Abort after this many predicate calls (0 = unlimited).
    pub max_calls: u64,
    /// Abort beyond this activation depth (guards infinite recursion).
    pub max_depth: usize,
    /// If `true`, calling an undefined predicate fails silently instead of
    /// raising an existence error.
    pub unknown_fails: bool,
    /// Collect the per-predicate call/backtrack profile for this machine
    /// even when tracing is off. Calibration runs
    /// ([`reorder::calibrate`]-style measurement passes) use this to
    /// attribute calls to specialised versions without paying the global
    /// tracing overhead.
    pub profile: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            indexing: true,
            occurs_check: false,
            max_calls: 50_000_000,
            max_depth: 100_000,
            unknown_fails: false,
            profile: false,
        }
    }
}

/// A single query execution over a database.
pub struct Machine<'db> {
    pub(crate) db: &'db Database,
    pub store: Store,
    pub counters: Counters,
    /// Text emitted by `write/1` and friends during the query.
    pub output: String,
    /// Pending terms for `read/1` (consumed front-to-back; reading from an
    /// empty queue yields `end_of_file`, as real systems do at EOF).
    pub input_terms: std::collections::VecDeque<prolog_syntax::Term>,
    /// Pending character codes for `get/1`; empty yields -1 (EOF).
    pub input_chars: std::collections::VecDeque<char>,
    pub(crate) config: MachineConfig,
    /// Per-predicate call/backtrack attribution; allocated only when
    /// tracing was enabled at machine construction or the config asked
    /// for profiling, so the hot path pays a single `Option` check per
    /// event otherwise.
    profile: Option<std::collections::HashMap<PredId, PredProfile>>,
    next_level: usize,
    pub(crate) depth: usize,
}

impl<'db> Machine<'db> {
    pub fn new(db: &'db Database, config: MachineConfig) -> Machine<'db> {
        Machine {
            db,
            store: Store::new(),
            counters: Counters::default(),
            output: String::new(),
            input_terms: Default::default(),
            input_chars: Default::default(),
            config,
            profile: (config.profile || prolog_trace::enabled()).then(Default::default),
            next_level: 0,
            depth: 0,
        }
    }

    /// Drains the per-predicate profile as deterministic `name/arity`-keyed
    /// rows, sorted by predicate name. Empty when tracing was disabled at
    /// construction.
    pub fn take_profile(&mut self) -> Vec<(String, PredProfile)> {
        let mut rows: Vec<(String, PredProfile)> = self
            .profile
            .take()
            .map(|m| m.into_iter().map(|(id, p)| (id.to_string(), p)).collect())
            .unwrap_or_default();
        rows.sort();
        rows
    }

    #[inline]
    fn note_call(&mut self, id: PredId) {
        if let Some(profile) = self.profile.as_mut() {
            profile.entry(id).or_default().calls += 1;
        }
    }

    #[inline]
    fn note_backtrack(&mut self, id: PredId) {
        if let Some(profile) = self.profile.as_mut() {
            profile.entry(id).or_default().backtracks += 1;
        }
    }

    pub(crate) fn fresh_level(&mut self) -> usize {
        self.next_level += 1;
        self.next_level
    }

    /// Proves `body`, invoking `on_solution` once per solution with the
    /// machine (bindings in place). Returns `Ok(true)` if the search was
    /// stopped by the callback, `Ok(false)` if it exhausted all solutions.
    pub fn run(
        &mut self,
        body: &Body,
        on_solution: &mut dyn FnMut(&mut Machine<'db>) -> Flow,
    ) -> Result<bool, EngineError> {
        let level = self.fresh_level();
        let mut k = |m: &mut Machine<'db>| match on_solution(m) {
            Flow::Continue => Ctl::Fail,
            Flow::Stop => Ctl::Stop,
        };
        match self.solve(body, level, &mut k) {
            Ctl::Fail | Ctl::CutTo(_) => Ok(false),
            Ctl::Stop => Ok(true),
            Ctl::Err(e) => Err(e),
        }
    }

    /// Proves `body` once, leaving the bindings of its first solution in
    /// place. Returns whether it succeeded.
    pub fn prove_once(&mut self, body: &Body) -> Result<bool, EngineError> {
        self.run(body, &mut |_| Flow::Stop)
    }

    /// The core CPS solver.
    pub(crate) fn solve(
        &mut self,
        body: &Body,
        level: usize,
        k: &mut dyn FnMut(&mut Machine<'db>) -> Ctl,
    ) -> Ctl {
        match body {
            Body::True => k(self),
            Body::Fail => Ctl::Fail,
            Body::Cut => match k(self) {
                Ctl::Fail => Ctl::CutTo(level),
                other => other,
            },
            Body::And(a, b) => {
                let mut k2 = |m: &mut Machine<'db>| m.solve(b, level, &mut *k);
                self.solve(a, level, &mut k2)
            }
            Body::Or(a, b) => {
                let mark = self.store.mark();
                match self.solve(a, level, k) {
                    Ctl::Fail => {
                        self.store.undo_to(mark);
                        self.solve(b, level, k)
                    }
                    other => other,
                }
            }
            Body::IfThenElse(c, t, e) => {
                let mark = self.store.mark();
                let cond_level = self.fresh_level();
                // Solve the condition once; commit to its first solution.
                let mut once = |_: &mut Machine<'db>| Ctl::Stop;
                match self.solve(c, cond_level, &mut once) {
                    Ctl::Stop => self.solve(t, level, k),
                    Ctl::Fail => {
                        self.store.undo_to(mark);
                        self.solve(e, level, k)
                    }
                    Ctl::CutTo(l) if l == cond_level => {
                        self.store.undo_to(mark);
                        self.solve(e, level, k)
                    }
                    other => other,
                }
            }
            Body::Not(g) => {
                let mark = self.store.mark();
                let not_level = self.fresh_level();
                let mut once = |_: &mut Machine<'db>| Ctl::Stop;
                match self.solve(g, not_level, &mut once) {
                    Ctl::Stop => {
                        // Negation never exports bindings (§IV-D.5).
                        self.store.undo_to(mark);
                        Ctl::Fail
                    }
                    Ctl::Fail => {
                        self.store.undo_to(mark);
                        k(self)
                    }
                    Ctl::CutTo(l) if l == not_level => {
                        self.store.undo_to(mark);
                        k(self)
                    }
                    other => other,
                }
            }
            Body::Call(goal) => self.call(goal, k),
        }
    }

    /// Calls a goal term: dispatches to a built-in or resolves against the
    /// database.
    fn call(&mut self, goal: &Term, k: &mut dyn FnMut(&mut Machine<'db>) -> Ctl) -> Ctl {
        let goal = self.store.deref(goal);
        let id = match &goal {
            Term::Var(_) => return Ctl::Err(EngineError::VariableGoal),
            Term::Int(_) | Term::Float(_) => {
                return Ctl::Err(EngineError::Type {
                    expected: "callable",
                    found: goal.clone(),
                })
            }
            callable => callable.pred_id().expect("atoms and structs are callable"),
        };

        if builtins::is_builtin(id) {
            self.counters.builtin_calls += 1;
            if let Some(err) = self.check_limits() {
                return Ctl::Err(err);
            }
            let mark = self.store.mark();
            let r = builtins::dispatch(self, id, goal.args(), k);
            if matches!(r, Ctl::Fail) {
                self.store.undo_to(mark);
            }
            return r;
        }

        self.counters.user_calls += 1;
        self.note_call(id);
        if let Some(err) = self.check_limits() {
            return Ctl::Err(err);
        }
        let first_key = goal
            .args()
            .first()
            .map(|a| self.store.deref(a))
            .as_ref()
            .and_then(IndexKey::of);
        // A copy of the `&'db` reference: the candidates borrow the
        // database, not `self`.
        let db = self.db;
        let Some(clauses) = db.matching_clauses(id, first_key, self.config.indexing) else {
            if self.config.unknown_fails {
                return Ctl::Fail;
            }
            return Ctl::Err(EngineError::Existence(id));
        };

        let call_level = self.fresh_level();
        self.depth += 1;
        if self.depth > self.config.max_depth {
            self.depth -= 1;
            return Ctl::Err(EngineError::DepthLimit(self.config.max_depth));
        }

        let occurs_check = self.config.occurs_check;
        for (clause, num_vars) in clauses {
            let mark = self.store.mark();
            // Note: fresh cells are deliberately NOT reclaimed on failure —
            // terms collected by findall/3 (and bindings exported through
            // if-then-else conditions) may reference them.
            let base = self.store.alloc(num_vars);
            self.counters.unifications += 1;
            if unify_renamed(&mut self.store, &goal, &clause.head, base, occurs_check) {
                let body = clause.body.map_vars(&mut |v| Term::Var(v + base));
                match self.solve(&body, call_level, k) {
                    Ctl::Fail => {
                        self.store.undo_to(mark);
                        self.note_backtrack(id);
                    }
                    Ctl::CutTo(l) if l == call_level => {
                        self.store.undo_to(mark);
                        self.depth -= 1;
                        return Ctl::Fail;
                    }
                    other => {
                        self.depth -= 1;
                        return other;
                    }
                }
            } else {
                self.store.undo_to(mark);
                self.note_backtrack(id);
            }
        }
        self.depth -= 1;
        Ctl::Fail
    }

    fn check_limits(&self) -> Option<EngineError> {
        if self.config.max_calls > 0 && self.counters.calls() > self.config.max_calls {
            return Some(EngineError::CallLimit(self.config.max_calls));
        }
        None
    }

    /// Copies `t` (resolved against the store) with all unbound variables
    /// replaced by fresh store variables — `copy_term/2`, also used by
    /// `findall/3` to detach collected solutions from the trail.
    pub fn copy_with_fresh_vars(&mut self, t: &Term) -> Term {
        let resolved = self.store.resolve(t);
        let mut map = std::collections::HashMap::new();
        self.copy_rec(&resolved, &mut map)
    }

    fn copy_rec(&mut self, t: &Term, map: &mut std::collections::HashMap<usize, usize>) -> Term {
        match t {
            Term::Var(v) => {
                let fresh = *map.entry(*v).or_insert_with(|| self.store.new_var());
                Term::Var(fresh)
            }
            Term::Struct(name, args) => {
                Term::struct_(*name, args.iter().map(|a| self.copy_rec(a, map)).collect())
            }
            other => other.clone(),
        }
    }
}
