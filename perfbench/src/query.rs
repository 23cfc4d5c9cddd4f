//! The query boundary: query to solutions, on the original and on the
//! reordered programs, top-down through `Engine::load` and
//! `Engine::query_term`, and bottom-up through `certify`, `evaluate` and
//! `Evaluation::query`.
//!
//! Queries on the reordered side are retargeted to the mode-specialised
//! version the reorderer made for their calling mode, as the paper's
//! tables do: the `var/1` dispatcher in front of the versions is a
//! tag test in the paper's systems, not a predicate call.

use crate::inputs::{Program, Query};
use crate::reorder::Reference;
use prolog_datalog::{certify, evaluate, OrderStrategy};
use prolog_engine::{Counters, Engine};
use prolog_syntax::{parse_program, SourceProgram, Term};
use reorder::ReorderReport;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Original,
    Reordered,
}

/// The query aimed at the version that serves its calling mode.
fn retarget(query: &Query, report: &ReorderReport) -> Query {
    let (Some(mode), Some(pred)) = (query.mode(), query.goal.pred_id()) else {
        return query.clone();
    };
    let version = report
        .predicate(pred)
        .and_then(|r| r.modes.iter().find(|m| m.mode == mode))
        .map(|m| m.version.as_str());
    match version {
        Some(v) if v != pred.name.as_str() => Query {
            goal: Term::struct_(prolog_syntax::sym(v), query.goal.args().to_vec()),
            var_names: query.var_names.clone(),
        },
        _ => query.clone(),
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Pass/fail tally of a correctness check.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

// ---------------------------------------------------------------------------
// Top-down
// ---------------------------------------------------------------------------

struct SldProgram {
    name: String,
    original: Engine,
    reordered: Engine,
    /// (original-side query, reordered-side query)
    queries: Vec<(Query, Query)>,
}

/// What one top-down pass over the query set measured.
#[derive(Debug, Default, Clone)]
pub struct SldPass {
    /// `query_term` time, summed over the pass.
    pub query_ms: f64,
    /// `query_term` time of each query, in pass order.
    pub item_ms: Vec<f64>,
    /// Wall time of the whole pass, result checks included.
    pub wall_ms: f64,
    pub queries: u64,
    pub counters: Counters,
    pub backtracks: u64,
    pub fingerprint: u64,
}

/// The top-down query set of a workload, loaded in both engines.
pub struct SldSet {
    programs: Vec<SldProgram>,
    pub load_ms: f64,
    /// Set by [`SldSet::check`]; every later pass must reproduce it.
    pub expected_fingerprint: u64,
    /// User calls of one pass on the reordered side (exact).
    pub user_calls: u64,
    /// Original-side solution sets by (program name, goal text), for the
    /// bottom-up cross-check.
    pub answers: HashMap<(String, String), Vec<String>>,
}

impl SldSet {
    /// Loads the original and the reordered programs into engines.
    pub fn setup(programs: &[Program], references: &[Reference]) -> Result<SldSet, String> {
        let mut set = SldSet {
            programs: Vec::new(),
            load_ms: 0.0,
            expected_fingerprint: 0,
            user_calls: 0,
            answers: HashMap::new(),
        };
        for (program, reference) in programs.iter().zip(references) {
            if program.queries.is_empty() {
                continue;
            }
            let parsed = parse_program(&program.text).map_err(|e| e.to_string())?;
            let reparsed = parse_program(&reference.text).map_err(|e| e.to_string())?;
            let mut original = Engine::new();
            let mut reordered = Engine::new();
            let t = Instant::now();
            original.load(&parsed);
            reordered.load(&reparsed);
            set.load_ms += ms_since(t);
            let queries = program
                .queries
                .iter()
                .map(|q| (q.clone(), retarget(q, &reference.report)))
                .collect();
            set.programs.push(SldProgram {
                name: program.name.clone(),
                original,
                reordered,
                queries,
            });
        }
        Ok(set)
    }

    /// The check pass: drops the queries the original program cannot
    /// answer (an illegal calling mode raises an error there), checks that
    /// the reordered side gives the same solution set for the rest, and
    /// records the answers later passes must reproduce.
    pub fn check(&mut self) -> Tally {
        let mut tally = Tally::default();
        let mut expected: Vec<Vec<String>> = Vec::new();
        for p in &mut self.programs {
            let mut kept = Vec::new();
            for (q, target) in std::mem::take(&mut p.queries) {
                let Ok(original) = p.original.query_term(&q.goal, &q.var_names, usize::MAX) else {
                    continue;
                };
                let want = original.solution_set();
                let got = p
                    .reordered
                    .query_term(&target.goal, &target.var_names, usize::MAX);
                let same = matches!(&got, Ok(o) if o.solution_set() == want);
                tally.check(same, || {
                    format!("{}: `{}` answers differ after reordering", p.name, q.goal)
                });
                if let Ok(o) = &got {
                    self.user_calls += o.counters.user_calls;
                }
                self.answers
                    .insert((p.name.clone(), q.goal.to_string()), want.clone());
                expected.push(want);
                kept.push((q, target));
            }
            p.queries = kept;
        }
        self.expected_fingerprint = fingerprint(expected.iter().map(Vec::as_slice));
        tally
    }

    pub fn is_empty(&self) -> bool {
        self.programs.iter().all(|p| p.queries.is_empty())
    }

    /// One pass over every query on one side. `profile` turns on the
    /// engine's per-predicate profile, which counts backtracks.
    pub fn pass(&mut self, side: Side, profile: bool) -> SldPass {
        let mut out = SldPass::default();
        let mut hasher = DefaultHasher::new();
        let start = Instant::now();
        for p in &mut self.programs {
            let engine = match side {
                Side::Original => &mut p.original,
                Side::Reordered => &mut p.reordered,
            };
            engine.config.profile = profile;
            for (original, reordered) in &p.queries {
                let q = match side {
                    Side::Original => original,
                    Side::Reordered => reordered,
                };
                let t = Instant::now();
                let result = engine.query_term(&q.goal, &q.var_names, usize::MAX);
                let ms = ms_since(t);
                out.query_ms += ms;
                out.item_ms.push(ms);
                out.queries += 1;
                match result {
                    Ok(o) => {
                        out.counters.add(&o.counters);
                        out.backtracks += o.profile.iter().map(|(_, p)| p.backtracks).sum::<u64>();
                        o.solution_set().hash(&mut hasher);
                    }
                    Err(e) => {
                        eprintln!("{}: `{}` raised {e}", p.name, q.goal);
                        "error".hash(&mut hasher);
                    }
                }
            }
            engine.config.profile = false;
        }
        out.wall_ms = ms_since(start);
        out.fingerprint = hasher.finish();
        out
    }

    /// Median cost of one `query_term` call that does no resolution work
    /// (`true`), in microseconds, over `calls` calls.
    pub fn null_query_us(&mut self, calls: usize) -> f64 {
        let Some(p) = self.programs.first_mut() else {
            return f64::NAN;
        };
        let goal = Term::atom("true");
        let samples: Vec<f64> = (0..calls)
            .map(|_| {
                let t = Instant::now();
                let _ = std::hint::black_box(p.reordered.query_term(&goal, &[], usize::MAX));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        crate::stats::median(&samples)
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}

/// Runs `f` with the calling thread pinned to the lowest-numbered
/// processor it may run on, then gives it back its processor set. The
/// threads `f` spawns inherit the pin.
///
/// Top-down passes run pinned because `Engine::query_term` runs every
/// query on a thread of its own: unpinned, where the scheduler put those
/// threads was a property of the whole process, and the per-query fixed
/// cost, most of `query_wall_ms` on the generated programs, read about
/// 58 or about 105 ms on `serve-mixed` from one process to the next.
/// The engine itself reads no processor count, so pinning changes no
/// code path.
pub fn pinned<T>(f: impl FnOnce() -> T) -> T {
    // A `cpu_set_t`: one bit per processor, 1024 processors.
    let mut mask = [0u8; 128];
    // SAFETY: `mask` is writable for the size passed, and pid 0 names
    // the calling thread.
    let read = unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } == 0;
    let lowest = mask
        .iter()
        .position(|&b| b != 0)
        .map(|i| i * 8 + mask[i].trailing_zeros() as usize);
    let (true, Some(cpu)) = (read, lowest) else {
        return f();
    };
    let mut one = [0u8; 128];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is readable for the size passed and names a processor
    // the thread may run on.
    unsafe { sched_setaffinity(0, one.len(), one.as_ptr()) };
    let out = f();
    // SAFETY: `mask` is the thread's own processor set, read above.
    unsafe { sched_setaffinity(0, mask.len(), mask.as_ptr()) };
    out
}

fn fingerprint<'a>(sets: impl Iterator<Item = &'a [String]>) -> u64 {
    let mut hasher = DefaultHasher::new();
    for set in sets {
        set.hash(&mut hasher);
    }
    hasher.finish()
}

// ---------------------------------------------------------------------------
// Bottom-up
// ---------------------------------------------------------------------------

struct BuProgram {
    name: String,
    original: SourceProgram,
    reordered: SourceProgram,
    queries: Vec<(Query, Query)>,
}

/// What one bottom-up pass measured.
#[derive(Debug, Default, Clone)]
pub struct BuPass {
    /// Certify + evaluate + query time of each program, in pass order.
    pub item_ms: Vec<f64>,
    pub certify_ms: f64,
    pub eval_ms: f64,
    pub query_ms: f64,
    pub tuples_joined: u64,
    pub facts_derived: u64,
    pub rounds: u64,
    pub fingerprint: u64,
    /// Per query: the answer set, or `None` outside the certified fragment.
    answers: Vec<Option<Vec<String>>>,
}

impl BuPass {
    pub fn total_ms(&self) -> f64 {
        self.certify_ms + self.eval_ms + self.query_ms
    }
}

fn bottom_up(program: &SourceProgram, queries: &[&Query], out: &mut BuPass) {
    let t = Instant::now();
    let cert = certify(program);
    out.certify_ms += ms_since(t);
    let t = Instant::now();
    let eval = evaluate(&cert, OrderStrategy::default());
    out.eval_ms += ms_since(t);
    out.tuples_joined += eval.stats.tuples_joined;
    out.facts_derived += eval.stats.facts_derived;
    out.rounds += eval.stats.rounds;
    let t = Instant::now();
    for q in queries {
        out.answers.push(eval.query(&q.goal, &q.var_names));
    }
    out.query_ms += ms_since(t);
}

/// The bottom-up query set of a workload: the Datalog-safe queries, on
/// both the original and the reordered programs.
pub struct BuSet {
    programs: Vec<BuProgram>,
    /// Set by [`BuSet::check`]; every later pass must reproduce it.
    pub expected_fingerprint: u64,
}

impl BuSet {
    /// Parses the original and the reordered programs.
    pub fn setup(programs: &[Program], references: &[Reference]) -> Result<BuSet, String> {
        let mut set = BuSet {
            programs: Vec::new(),
            expected_fingerprint: 0,
        };
        for (program, reference) in programs.iter().zip(references) {
            if program.queries.is_empty() {
                continue;
            }
            set.programs.push(BuProgram {
                name: program.name.clone(),
                original: parse_program(&program.text).map_err(|e| e.to_string())?,
                reordered: parse_program(&reference.text).map_err(|e| e.to_string())?,
                queries: program
                    .queries
                    .iter()
                    .map(|q| (q.clone(), retarget(q, &reference.report)))
                    .collect(),
            });
        }
        Ok(set)
    }

    /// The check pass: keeps the queries both sides answer bottom-up,
    /// checks that the two sides agree and, where `sld` holds the same
    /// query, that they agree with the top-down answers, and records the
    /// answers later passes must reproduce.
    pub fn check(&mut self, sld: Option<&SldSet>) -> Tally {
        let mut tally = Tally::default();
        let mut expected: Vec<Vec<String>> = Vec::new();
        for p in &mut self.programs {
            let (mut a, mut b) = (BuPass::default(), BuPass::default());
            bottom_up(
                &p.original,
                &p.queries.iter().map(|c| &c.0).collect::<Vec<_>>(),
                &mut a,
            );
            bottom_up(
                &p.reordered,
                &p.queries.iter().map(|c| &c.1).collect::<Vec<_>>(),
                &mut b,
            );
            let mut kept = Vec::new();
            let answers = a.answers.into_iter().zip(b.answers);
            for ((q, target), answers) in std::mem::take(&mut p.queries).into_iter().zip(answers) {
                let (Some(x), Some(y)) = answers else {
                    continue;
                };
                tally.check(x == y, || {
                    format!(
                        "{}: `{}` bottom-up answers differ after reordering",
                        p.name, q.goal
                    )
                });
                let key = (p.name.clone(), q.goal.to_string());
                if let Some(top_down) = sld.and_then(|s| s.answers.get(&key)) {
                    let mut top_down = top_down.clone();
                    top_down.dedup();
                    tally.check(top_down == x, || {
                        format!(
                            "{}: `{}` top-down and bottom-up answers differ",
                            p.name, q.goal
                        )
                    });
                }
                expected.push(x);
                kept.push((q, target));
            }
            p.queries = kept;
        }
        self.expected_fingerprint = fingerprint(expected.iter().map(Vec::as_slice));
        tally
    }

    pub fn is_empty(&self) -> bool {
        self.programs.iter().all(|p| p.queries.is_empty())
    }

    pub fn pass(&self, side: Side) -> BuPass {
        let mut out = BuPass::default();
        for p in &self.programs {
            let (program, queries): (&SourceProgram, Vec<&Query>) = match side {
                Side::Original => (&p.original, p.queries.iter().map(|q| &q.0).collect()),
                Side::Reordered => (&p.reordered, p.queries.iter().map(|q| &q.1).collect()),
            };
            let before = out.total_ms();
            bottom_up(program, &queries, &mut out);
            out.item_ms.push(out.total_ms() - before);
        }
        let answers = std::mem::take(&mut out.answers);
        out.fingerprint = fingerprint(answers.iter().map(|a| a.as_deref().unwrap_or(&[])));
        out
    }
}
