//! The user-facing engine: load programs, run queries, read counters.

use crate::counters::{Counters, PredProfile};
use crate::database::Database;
use crate::error::EngineError;
use crate::machine::{Flow, Machine, MachineConfig};
use prolog_syntax::{parse_program, parse_term, Body, ParseError, SourceProgram, Term};
use std::collections::HashMap;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::{self, JoinHandle};

/// One solution to a query: the query's variables (by name) bound to
/// resolved terms. Unbound variables are canonically renumbered `0, 1, …`
/// in order of appearance, so solutions compare structurally across runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    pub bindings: Vec<(String, Term)>,
}

impl Solution {
    /// The binding of a variable, by source name.
    pub fn get(&self, name: &str) -> Option<&Term> {
        self.bindings
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t)
    }
}

impl fmt::Display for Solution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bindings.is_empty() {
            return write!(f, "true");
        }
        for (i, (name, term)) in self.bindings.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name} = {term}")?;
        }
        Ok(())
    }
}

/// The outcome of running a query to completion (or to its solution limit).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    pub solutions: Vec<Solution>,
    /// Counters for this query alone.
    pub counters: Counters,
    /// Text written by the query.
    pub output: String,
    /// `true` if enumeration stopped at the solution limit rather than by
    /// exhausting the search space.
    pub truncated: bool,
    /// Per-predicate call/backtrack attribution (`"name/arity"` rows,
    /// sorted). Populated when tracing was enabled when the query started
    /// or the engine was configured with [`MachineConfig::profile`];
    /// empty otherwise.
    pub profile: Vec<(String, PredProfile)>,
}

impl QueryOutcome {
    pub fn succeeded(&self) -> bool {
        !self.solutions.is_empty()
    }

    /// Solutions as a multiset-comparable, order-insensitive key — used by
    /// the set-equivalence checks (§II).
    pub fn solution_set(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.solutions.iter().map(|s| s.to_string()).collect();
        keys.sort();
        keys
    }
}

/// A loaded Prolog system: database + configuration + accumulated counters.
pub struct Engine {
    db: Database,
    pub config: MachineConfig,
    /// Counters accumulated over every query run on this engine.
    total: Counters,
    /// Terms served to `read/1` by the next query (then cleared).
    pending_input_terms: Vec<Term>,
    /// Characters served to `get/1` by the next query (then cleared).
    pending_input_chars: Vec<char>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    pub fn new() -> Engine {
        Engine {
            db: Database::new(),
            config: MachineConfig::default(),
            total: Counters::default(),
            pending_input_terms: Vec::new(),
            pending_input_chars: Vec::new(),
        }
    }

    pub fn with_config(config: MachineConfig) -> Engine {
        Engine {
            config,
            ..Engine::new()
        }
    }

    /// Queues terms for the next query's `read/1` calls.
    pub fn set_input_terms(&mut self, terms: Vec<Term>) {
        self.pending_input_terms = terms;
    }

    /// Queues text for the next query's `get/1` calls.
    pub fn set_input_text(&mut self, text: &str) {
        self.pending_input_chars = text.chars().collect();
    }

    /// Parses and loads Prolog source text.
    pub fn consult(&mut self, src: &str) -> Result<(), ParseError> {
        let program = parse_program(src)?;
        self.db.load(&program);
        Ok(())
    }

    /// Loads an already-parsed program.
    pub fn load(&mut self, program: &SourceProgram) {
        self.db.load(program);
    }

    pub fn db(&self) -> &Database {
        &self.db
    }

    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Counters accumulated across all queries so far.
    pub fn total_counters(&self) -> Counters {
        self.total
    }

    /// Runs a textual query (e.g. `"aunt(X, Y)"`), collecting all solutions.
    pub fn query(&mut self, goal_src: &str) -> Result<QueryOutcome, QueryError> {
        self.query_limit(goal_src, usize::MAX)
    }

    /// Runs a textual query collecting at most `max_solutions`.
    pub fn query_limit(
        &mut self,
        goal_src: &str,
        max_solutions: usize,
    ) -> Result<QueryOutcome, QueryError> {
        let (goal, var_names) = parse_term(goal_src).map_err(QueryError::Parse)?;
        self.query_term(&goal, &var_names, max_solutions)
            .map_err(QueryError::Engine)
    }

    /// Runs a parsed query term whose variables `Var(i)` are named
    /// `var_names[i]`.
    ///
    /// The query runs on the calling thread's query thread, which has a
    /// large stack: the solver is recursive, so a deep Prolog proof needs a
    /// deep Rust stack. The logical guard is still
    /// [`MachineConfig::max_depth`].
    ///
    /// # Panics
    ///
    /// A goal variable `Var(i)` needs `i < var_names.len()`. A panic inside
    /// the query is raised again here with its own payload, and the engine
    /// keeps its clauses and its total counters.
    pub fn query_term(
        &mut self,
        goal: &Term,
        var_names: &[String],
        max_solutions: usize,
    ) -> Result<QueryOutcome, EngineError> {
        let job = Job {
            db: std::mem::take(&mut self.db),
            goal: goal.clone(),
            var_names: var_names.to_vec(),
            config: self.config,
            max_solutions,
            input_terms: std::mem::take(&mut self.pending_input_terms),
            input_chars: std::mem::take(&mut self.pending_input_chars),
        };
        let (db, result) = QUERY_THREAD.with(|query_thread| query_thread.run(job));
        self.db = db;
        let (outcome, counters) = result.unwrap_or_else(|payload| panic::resume_unwind(payload));
        self.total.add(&counters);
        outcome
    }

    /// `true` if the query has at least one solution.
    pub fn has_solution(&mut self, goal_src: &str) -> Result<bool, QueryError> {
        Ok(self.query_limit(goal_src, 1)?.succeeded())
    }
}

/// Stack of a query thread. The solver recurses once per goal of the
/// current derivation, so [`MachineConfig::max_depth`] activations need
/// far more than a default thread's stack. Virtual: pages commit on use.
const QUERY_STACK_BYTES: usize = 1 << 30;

thread_local! {
    /// The calling thread's query thread, spawned by its first query.
    static QUERY_THREAD: QueryThread = QueryThread::spawn();
}

/// One query with everything it runs over, owned, for a query thread.
struct Job {
    db: Database,
    goal: Term,
    var_names: Vec<String>,
    config: MachineConfig,
    max_solutions: usize,
    input_terms: Vec<Term>,
    input_chars: Vec<char>,
}

/// The job's database, handed back, and the query's result or the payload
/// of its panic.
type Reply = (
    Database,
    thread::Result<(Result<QueryOutcome, EngineError>, Counters)>,
);

/// A long-lived thread with a [`QUERY_STACK_BYTES`] stack that runs one
/// calling thread's queries, one at a time. Dropping it, when the calling
/// thread exits, closes the job channel and joins the thread.
struct QueryThread {
    jobs: Option<Sender<Job>>,
    replies: Receiver<Reply>,
    handle: Option<JoinHandle<()>>,
}

impl QueryThread {
    fn spawn() -> QueryThread {
        let (jobs, inbox) = mpsc::channel::<Job>();
        let (outbox, replies) = mpsc::channel();
        let handle = thread::Builder::new()
            .stack_size(QUERY_STACK_BYTES)
            .name("prolog-query".into())
            .spawn(move || {
                for job in inbox {
                    // A query only reads the database, so a panic leaves it
                    // whole for the caller.
                    let result = panic::catch_unwind(AssertUnwindSafe(|| {
                        run_query(
                            &job.db,
                            job.config,
                            &job.goal,
                            &job.var_names,
                            job.max_solutions,
                            job.input_terms,
                            job.input_chars,
                        )
                    }));
                    if outbox.send((job.db, result)).is_err() {
                        return;
                    }
                }
            })
            .expect("spawn query thread");
        QueryThread {
            jobs: Some(jobs),
            replies,
            handle: Some(handle),
        }
    }

    /// Hands `job` to the query thread and waits for its reply.
    fn run(&self, job: Job) -> Reply {
        self.jobs
            .as_ref()
            .expect("the job channel closes only on drop")
            .send(job)
            .expect("query thread runs while its caller lives");
        self.replies
            .recv()
            .expect("query thread replies to every job")
    }
}

impl Drop for QueryThread {
    fn drop(&mut self) {
        // Closing the job channel ends the thread's loop. Every query
        // panic was caught, so the join has nothing to report.
        self.jobs = None;
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// The body of every query, run on a query thread.
fn run_query(
    db: &Database,
    config: MachineConfig,
    goal: &Term,
    var_names: &[String],
    max_solutions: usize,
    input_terms: Vec<Term>,
    input_chars: Vec<char>,
) -> (Result<QueryOutcome, EngineError>, Counters) {
    let _query_span = prolog_trace::span_with("engine.query", || {
        prolog_trace::fields::Obj::new()
            .str("goal", goal.to_string())
            .u64("max_solutions", max_solutions as u64)
    });
    let body = Body::from_term(goal);
    let mut machine = Machine::new(db, config);
    machine.input_terms = input_terms.into_iter().collect();
    machine.input_chars = input_chars.into_iter().collect();
    // Allocate the query's variables as the first store cells, so
    // `Var(i)` in the query term refers to cell `i`.
    let nvars = var_names.len();
    machine.store.alloc(nvars);

    let mut solutions = Vec::new();
    let mut truncated = false;
    // Skip anonymous `_Axx` variables in reported solutions, as a
    // top-level would.
    let reported: Vec<(usize, String)> = var_names
        .iter()
        .enumerate()
        .filter(|(_, n)| !n.starts_with('_'))
        .map(|(i, n)| (i, n.clone()))
        .collect();

    let run = machine.run(&body, &mut |m| {
        let mut canon = Canonicalizer::default();
        let bindings = reported
            .iter()
            .map(|(i, name)| {
                let t = m.store.resolve(&Term::Var(*i));
                (name.clone(), canon.apply(&t))
            })
            .collect();
        solutions.push(Solution { bindings });
        if solutions.len() >= max_solutions {
            truncated = true;
            Flow::Stop
        } else {
            Flow::Continue
        }
    });
    let counters = machine.counters;
    let profile = machine.take_profile();
    for (pred, p) in &profile {
        prolog_trace::instant_with("engine.pred", || {
            prolog_trace::fields::Obj::new()
                .str("pred", pred.clone())
                .u64("calls", p.calls)
                .u64("backtracks", p.backtracks)
        });
    }
    prolog_trace::instant_with("engine.query_counters", || {
        prolog_trace::fields::Obj::new()
            .u64("user_calls", counters.user_calls)
            .u64("builtin_calls", counters.builtin_calls)
            .u64("unifications", counters.unifications)
            .u64("solutions", solutions.len() as u64)
    });
    match run {
        Ok(_) => (
            Ok(QueryOutcome {
                solutions,
                counters,
                output: machine.output,
                truncated,
                profile,
            }),
            counters,
        ),
        Err(e) => (Err(e), counters),
    }
}

/// Renumbers residual free variables `0, 1, …` in order of appearance so
/// solutions are comparable across runs with different store layouts.
#[derive(Default)]
struct Canonicalizer {
    map: HashMap<usize, usize>,
}

impl Canonicalizer {
    fn apply(&mut self, t: &Term) -> Term {
        match t {
            Term::Var(v) => {
                let next = self.map.len();
                Term::Var(*self.map.entry(*v).or_insert(next))
            }
            Term::Struct(name, args) => {
                Term::struct_(*name, args.iter().map(|a| self.apply(a)).collect())
            }
            other => other.clone(),
        }
    }
}

/// Error from a textual query: parse or run-time.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    Parse(ParseError),
    Engine(EngineError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "{e}"),
            QueryError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for QueryError {}
