//! Empirical cost calibration — the paper's "extended Warren's method"
//! (§I-E).
//!
//! "We call each predicate, forcing repeated backtracking, and count the
//! solution-tuples." The paper used this before the Markov model and
//! notes it is expensive but effective; Ledeniov & Markovitch later
//! argued the same point from the other side: guessed subgoal costs are
//! exactly what makes a reorderer occasionally *pessimise* a program.
//!
//! Two layers live here:
//!
//! * [`calibrate`] / [`calibrate_detailed`] — the one-shot measurement
//!   pass: run every `+`/`-` mode of the listed predicates against the
//!   real engine and record mean call costs and solution counts. Each
//!   mode gets a fresh engine (no state can leak between measurements)
//!   and each sample is judged individually: a sample that exhausts its
//!   call budget is skipped, a sample that is *illegal* in the mode
//!   (instantiation or type error) discards the whole mode, and a mode
//!   whose every sample diverges is discarded as unmeasurable.
//!
//! * [`calibrate_loop`] — the closed feedback loop: measure the input
//!   program, install the measurements as estimator overrides, re-plan,
//!   re-emit, then measure the *emitted* specialised versions (their
//!   per-predicate call attribution comes from [`QueryOutcome::profile`])
//!   and feed those measurements back as the next round's overrides.
//!   Pairs whose specialisation measured worse than the input ordering
//!   are repaired: when the run's profile shows a dispatcher was hit
//!   (a meta-call routed through the `var/1` dispatcher on every
//!   activation, a cost the static model never charges), the dispatching
//!   predicate is pinned to its original definition; a predicate that is
//!   a net measured loss across all its modes is pinned likewise. The
//!   loop stops at a fixed point — emitted bytes unchanged, or every
//!   re-measured cost within `epsilon` of the previous round — or at the
//!   bounded round count.
//!
//! [`QueryOutcome::profile`]: prolog_engine::QueryOutcome

use crate::config::ReorderConfig;
use crate::costs::{p_to_solutions, solutions_to_p};
use crate::driver::{ReorderResult, Reorderer};
use prolog_analysis::{Mode, ModeItem};
use prolog_engine::{Engine, EngineError, MachineConfig, PredProfile};
use prolog_markov::GoalStats;
use prolog_syntax::{sym, Body, PredId, SourceProgram, Symbol, Term};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Limits for the calibration runs.
#[derive(Debug, Clone)]
pub struct CalibrationConfig {
    /// Sample at most this many bound-argument combinations per mode.
    pub max_queries_per_mode: usize,
    /// Abort a runaway query after this many calls. The sample is then
    /// skipped; the mode survives if any other sample completed.
    pub max_calls_per_query: u64,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            max_queries_per_mode: 64,
            max_calls_per_query: 1_000_000,
        }
    }
}

/// Measured statistics for `(predicate, mode)` pairs.
pub type MeasuredCosts = HashMap<(PredId, Mode), GoalStats>;

/// One `(pred, mode)` measurement with its sampling bookkeeping — what
/// the closed loop and the divergence report need beyond the bare stats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairMeasurement {
    /// Mean cost (predicate calls) and mean solutions per query, encoded
    /// the way the estimator consumes them.
    pub stats: GoalStats,
    /// Total predicate calls across the completed samples.
    pub total_calls: u64,
    /// Samples that ran to completion.
    pub measured: usize,
    /// Samples skipped for exhausting the per-query call budget.
    pub skipped: usize,
}

/// Detailed measurements per `(predicate, mode)` pair.
pub type DetailedCosts = HashMap<(PredId, Mode), PairMeasurement>;

/// Runs every `+`/`-` mode of every listed predicate against the real
/// engine, measuring mean predicate calls and mean solution counts.
///
/// `universe` supplies the constants substituted into `+` positions.
pub fn calibrate(
    program: &SourceProgram,
    preds: &[PredId],
    universe: &[Term],
    config: &CalibrationConfig,
) -> MeasuredCosts {
    calibrate_detailed(program, preds, universe, config)
        .into_iter()
        .map(|(key, m)| (key, m.stats))
        .collect()
}

/// [`calibrate`], keeping the per-pair sampling detail.
pub fn calibrate_detailed(
    program: &SourceProgram,
    preds: &[PredId],
    universe: &[Term],
    config: &CalibrationConfig,
) -> DetailedCosts {
    calibrate_pairs(program, preds, universe, None, config)
}

/// The measurement pass behind [`calibrate_detailed`]. With `domains`,
/// each `+` position samples from its inferred argument domain (the
/// closed loop's path); without, every position samples the flat
/// `fallback` universe (the public one-shot API, which keeps the paper's
/// "one call for each possible instantiation" protocol).
fn calibrate_pairs(
    program: &SourceProgram,
    preds: &[PredId],
    fallback: &[Term],
    domains: Option<&ArgDomains>,
    config: &CalibrationConfig,
) -> DetailedCosts {
    let mut out = DetailedCosts::new();
    for &pred in preds {
        let universes = position_universes(pred, pred.arity, domains, fallback);
        for mode in Mode::enumerate_plus_minus(pred.arity) {
            let queries =
                sample_queries_each(pred.name, &mode, &universes, config.max_queries_per_mode);
            if queries.is_empty() {
                continue;
            }
            // A fresh engine per mode: no counters, buffered input, or
            // other engine state can leak from one measurement into the
            // next, so interleaved and isolated runs measure identically.
            let mut engine = fresh_engine(program, config);
            if let Some((m, _)) = measure_queries_on(&mut engine, &queries) {
                out.insert((pred, mode), m);
            }
        }
    }
    out
}

/// One sampling universe per argument position of `pred`: its inferred
/// domain when available, the flat fallback otherwise.
fn position_universes<'a>(
    pred: PredId,
    arity: usize,
    domains: Option<&'a ArgDomains>,
    fallback: &'a [Term],
) -> Vec<&'a [Term]> {
    (0..arity)
        .map(|pos| match domains {
            Some(d) => d.universe(pred, pos, fallback),
            None => fallback,
        })
        .collect()
}

fn fresh_engine(program: &SourceProgram, config: &CalibrationConfig) -> Engine {
    let mut engine = Engine::with_config(MachineConfig {
        max_calls: config.max_calls_per_query,
        unknown_fails: true,
        profile: true,
        ..Default::default()
    });
    engine.load(program);
    engine
}

/// Runs the sampled queries, aggregating counters, solutions, and the
/// per-predicate profile. Returns `None` when the mode is unmeasurable:
/// a sample raised a run-time error other than a resource limit (the
/// mode is illegal), or every sample exhausted its budget (the mode
/// diverges).
fn measure_queries_on(
    engine: &mut Engine,
    queries: &[Term],
) -> Option<(PairMeasurement, BTreeMap<PredId, PredProfile>)> {
    let mut total_calls = 0u64;
    let mut total_solutions = 0usize;
    let mut measured = 0usize;
    let mut skipped = 0usize;
    let mut profile: BTreeMap<PredId, PredProfile> = BTreeMap::new();
    for goal in queries {
        let nvars = goal.variables().len();
        let names: Vec<String> = (0..nvars).map(|i| format!("V{i}")).collect();
        match engine.query_term(goal, &names, usize::MAX) {
            Ok(outcome) => {
                total_calls += outcome.counters.user_calls;
                total_solutions += outcome.solutions.len();
                measured += 1;
                for (name, p) in &outcome.profile {
                    if let Some(id) = parse_pred_row(name) {
                        let entry = profile.entry(id).or_default();
                        entry.calls += p.calls;
                        entry.backtracks += p.backtracks;
                    }
                }
            }
            // The budget bounding one instantiation says nothing about
            // the others: skip the sample, keep the mode.
            Err(EngineError::CallLimit(_)) | Err(EngineError::DepthLimit(_)) => {
                skipped += 1;
            }
            // Illegal in this mode (instantiation, type, …): the mode
            // itself is unusable, however the other samples fared.
            Err(_) => return None,
        }
    }
    if measured == 0 {
        return None;
    }
    let mean_cost = (total_calls as f64 / measured as f64).max(1.0);
    let mean_solutions = total_solutions as f64 / measured as f64;
    Some((
        PairMeasurement {
            stats: GoalStats::new(solutions_to_p(mean_solutions), mean_cost),
            total_calls,
            measured,
            skipped,
        },
        profile,
    ))
}

/// Parses a `"name/arity"` profile row back into a [`PredId`].
fn parse_pred_row(row: &str) -> Option<PredId> {
    let (name, arity) = row.rsplit_once('/')?;
    Some(PredId::new(name, arity.parse().ok()?))
}

/// Builds up to `max` query terms for a mode: the mixed-radix cartesian
/// product over the `+` positions, each drawing from its own universe,
/// sampled with a fixed stride when it exceeds the budget. Any bound
/// position with an empty universe makes the mode unsampleable.
fn sample_queries_each(name: Symbol, mode: &Mode, universes: &[&[Term]], max: usize) -> Vec<Term> {
    let sizes: Vec<usize> = mode
        .items()
        .iter()
        .enumerate()
        .filter(|(_, m)| **m == ModeItem::Plus)
        .map(|(i, _)| universes[i].len())
        .collect();
    if sizes.contains(&0) {
        return Vec::new();
    }
    let total: usize = sizes
        .iter()
        .fold(1usize, |acc, &n| acc.saturating_mul(n))
        .max(1);
    let take = total.min(max);
    let stride = (total / take.max(1)).max(1);
    let mut out = Vec::with_capacity(take);
    let mut index = 0usize;
    while out.len() < take {
        let mut combo = index;
        let mut args = Vec::with_capacity(mode.arity());
        let mut var_idx = 0;
        for (pos, item) in mode.items().iter().enumerate() {
            match item {
                ModeItem::Plus => {
                    let domain = universes[pos];
                    args.push(domain[combo % domain.len()].clone());
                    combo /= domain.len();
                }
                _ => {
                    args.push(Term::Var(var_idx));
                    var_idx += 1;
                }
            }
        }
        out.push(Term::struct_(name, args));
        index += stride;
    }
    out
}

/// Collects up to `max` distinct constants (atoms and integers) from the
/// program's fact arguments, in first-appearance order — the default
/// calibration universe when the caller supplies none.
pub fn harvest_universe(program: &SourceProgram, max: usize) -> Vec<Term> {
    let mut seen: HashSet<String> = HashSet::new();
    let mut out = Vec::new();
    for clause in &program.clauses {
        if !clause.is_fact() {
            continue;
        }
        for arg in clause.head.args() {
            let constant = match arg {
                Term::Atom(_) | Term::Int(_) => arg.clone(),
                _ => continue,
            };
            if seen.insert(constant.to_string()) {
                out.push(constant);
                if out.len() >= max {
                    return out;
                }
            }
        }
    }
    out
}

/// Per-position argument domains inferred from the program.
///
/// A flat constant universe poisons `+`-mode measurements the moment a
/// program mixes value kinds: sampling `employee(+)` over department
/// names drags its measured selectivity down and the re-planned orders
/// inherit the skew. The inference here is a union-find over the
/// `(predicate, argument position)` slots of user-defined predicates:
/// every clause that threads one variable through two slots links them,
/// and every constant observed at a slot seeds its class. Each
/// equivalence class approximates a monomorphic argument type, so a `+`
/// position is instantiated only with values the program itself passes
/// (or stores) there.
pub struct ArgDomains {
    domains: HashMap<(PredId, usize), Vec<Term>>,
}

impl ArgDomains {
    /// Infers the domains of `program`, keeping at most `cap` constants
    /// per equivalence class (first-appearance order, like
    /// [`harvest_universe`]).
    pub fn infer(program: &SourceProgram, cap: usize) -> ArgDomains {
        let defined: HashSet<PredId> = program.predicates().into_iter().collect();
        let mut slot_of: HashMap<(PredId, usize), usize> = HashMap::new();
        for pred in program.predicates() {
            for pos in 0..pred.arity {
                let next = slot_of.len();
                slot_of.entry((pred, pos)).or_insert(next);
            }
        }
        let mut parent: Vec<usize> = (0..slot_of.len()).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }

        // Pass 1: link slots that share a variable within one clause.
        for clause in &program.clauses {
            let mut var_slot: HashMap<usize, usize> = HashMap::new();
            for (pred, args) in clause_call_sites(clause, &defined) {
                for (pos, arg) in args.iter().enumerate() {
                    let Term::Var(v) = arg else { continue };
                    let slot = slot_of[&(pred, pos)];
                    match var_slot.get(v) {
                        Some(&first) => {
                            let (a, b) = (find(&mut parent, first), find(&mut parent, slot));
                            parent[a] = b;
                        }
                        None => {
                            var_slot.insert(*v, slot);
                        }
                    }
                }
            }
        }

        // Pass 2: seed every class with the constants observed at its
        // slots, in program order, deduplicated, capped.
        let mut consts: HashMap<usize, Vec<Term>> = HashMap::new();
        let mut seen: HashMap<usize, HashSet<String>> = HashMap::new();
        for clause in &program.clauses {
            for (pred, args) in clause_call_sites(clause, &defined) {
                for (pos, arg) in args.iter().enumerate() {
                    let constant = match arg {
                        Term::Atom(_) | Term::Int(_) => arg.clone(),
                        _ => continue,
                    };
                    let root = find(&mut parent, slot_of[&(pred, pos)]);
                    let class = consts.entry(root).or_default();
                    if class.len() < cap
                        && seen.entry(root).or_default().insert(constant.to_string())
                    {
                        class.push(constant);
                    }
                }
            }
        }

        let domains = slot_of
            .iter()
            .map(|(&key, &slot)| {
                let root = find(&mut parent, slot);
                (key, consts.get(&root).cloned().unwrap_or_default())
            })
            .collect();
        ArgDomains { domains }
    }

    /// The sampling universe for a `+` position: the inferred domain, or
    /// `fallback` when the position's class observed no constants.
    pub fn universe<'a>(&'a self, pred: PredId, pos: usize, fallback: &'a [Term]) -> &'a [Term] {
        match self.domains.get(&(pred, pos)) {
            Some(domain) if !domain.is_empty() => domain,
            _ => fallback,
        }
    }
}

/// Every call site of a clause whose predicate is user-defined — the
/// head plus each plain goal anywhere in the body tree (negations and
/// if-then-else branches included) — with its argument terms.
fn clause_call_sites<'a>(
    clause: &'a prolog_syntax::Clause,
    defined: &HashSet<PredId>,
) -> Vec<(PredId, &'a [Term])> {
    fn walk<'a>(body: &'a Body, defined: &HashSet<PredId>, out: &mut Vec<(PredId, &'a [Term])>) {
        match body {
            Body::Call(t) => {
                if let Some(id) = t.pred_id() {
                    if defined.contains(&id) {
                        out.push((id, t.args()));
                    }
                }
            }
            Body::And(a, b) | Body::Or(a, b) => {
                walk(a, defined, out);
                walk(b, defined, out);
            }
            Body::IfThenElse(c, t, e) => {
                walk(c, defined, out);
                walk(t, defined, out);
                walk(e, defined, out);
            }
            Body::Not(g) => walk(g, defined, out),
            Body::True | Body::Fail | Body::Cut => {}
        }
    }
    let mut out = Vec::new();
    if let Some(id) = clause.head.pred_id() {
        if defined.contains(&id) {
            out.push((id, clause.head.args()));
        }
    }
    walk(&clause.body, defined, &mut out);
    out
}

/// Knobs of the closed calibration loop.
#[derive(Debug, Clone)]
pub struct CalibrationOptions {
    /// Maximum measure → re-plan rounds (the CLI's `--calibrate N`).
    pub rounds: usize,
    /// Per-round sampling limits.
    pub sample: CalibrationConfig,
    /// Convergence threshold: the loop stops when no re-measured cost
    /// moved by more than this many calls (and no new pin was needed).
    pub epsilon: f64,
    /// Cap on the constants harvested into the calibration universe.
    pub max_universe: usize,
    /// Only predicates with arity `1..=max_arity` are measured directly
    /// (the cartesian query sets above that are uninformative anyway).
    pub max_arity: usize,
}

impl Default for CalibrationOptions {
    fn default() -> Self {
        CalibrationOptions {
            rounds: 2,
            sample: CalibrationConfig::default(),
            epsilon: 0.5,
            max_universe: 64,
            max_arity: 3,
        }
    }
}

/// Static-estimate vs. measurement for one `(pred, mode)` pair.
#[derive(Debug, Clone)]
pub struct DivergenceRow {
    pub pred: PredId,
    pub mode: Mode,
    /// Cost the static model assigned the pair (no overrides installed).
    pub static_cost: f64,
    /// Mean cost measured on the input program.
    pub measured_cost: f64,
    /// Expected solutions under the static model.
    pub static_solutions: f64,
    /// Mean solutions measured on the input program.
    pub measured_solutions: f64,
}

impl DivergenceRow {
    /// How far off the static cost was, as a factor (`measured/static`).
    pub fn cost_ratio(&self) -> f64 {
        if self.static_cost <= 0.0 {
            return f64::INFINITY;
        }
        self.measured_cost / self.static_cost
    }
}

/// What one round of the loop did.
#[derive(Debug, Clone)]
pub struct CalibrationRound {
    /// 0-based round index.
    pub round: usize,
    /// Override pairs installed for this round's planning.
    pub overrides: usize,
    /// Emitted bytes differ from the previous round (round 0 compares
    /// against the uncalibrated plan).
    pub plan_changed: bool,
    /// Largest cost movement across the pairs re-measured this round.
    pub max_cost_delta: f64,
    /// Predicates newly pinned by this round's validation, sorted.
    pub new_pins: Vec<PredId>,
}

/// Product of [`calibrate_loop`].
pub struct CalibrationOutcome {
    /// The final (converged or round-capped) reordering run.
    pub result: ReorderResult,
    /// The override set behind the final run.
    pub measured: MeasuredCosts,
    /// Predicates pinned to their original definition, sorted.
    pub pinned: Vec<PredId>,
    /// Per-round log.
    pub rounds: Vec<CalibrationRound>,
    /// The loop reached its fixed point within the round budget.
    pub converged: bool,
    /// Static vs. measured estimates on the input program, sorted by
    /// pair; the `--calibrate-report` table.
    pub divergence: Vec<DivergenceRow>,
}

impl CalibrationOutcome {
    /// Human-readable account of the loop — the round log, the pins, and
    /// the static-vs-measured divergence table (`--calibrate-report`).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "calibration: {} round(s), {}",
            self.rounds.len(),
            if self.converged {
                "converged"
            } else {
                "round budget exhausted"
            }
        );
        for r in &self.rounds {
            let pins = if r.new_pins.is_empty() {
                String::new()
            } else {
                format!(
                    ", pinned {}",
                    r.new_pins
                        .iter()
                        .map(|p| p.to_string())
                        .collect::<Vec<_>>()
                        .join(" ")
                )
            };
            let _ = writeln!(
                out,
                "  round {}: {} overrides, plan {}, max cost delta {:.1}{}",
                r.round,
                r.overrides,
                if r.plan_changed {
                    "changed"
                } else {
                    "unchanged"
                },
                r.max_cost_delta,
                pins
            );
        }
        if !self.pinned.is_empty() {
            let _ = writeln!(
                out,
                "pinned to original definition: {}",
                self.pinned
                    .iter()
                    .map(|p| p.to_string())
                    .collect::<Vec<_>>()
                    .join(" ")
            );
        }
        let _ = writeln!(
            out,
            "divergence (static estimate vs measured, input program):"
        );
        let _ = writeln!(
            out,
            "  {:<20} {:<6} {:>12} {:>12} {:>8} {:>10} {:>10}",
            "pred", "mode", "static-cost", "meas-cost", "ratio", "static-sol", "meas-sol"
        );
        for row in &self.divergence {
            let _ = writeln!(
                out,
                "  {:<20} {:<6} {:>12.1} {:>12.1} {:>8.2} {:>10.2} {:>10.2}",
                row.pred.to_string(),
                row.mode.suffix(),
                row.static_cost,
                row.measured_cost,
                row.cost_ratio(),
                row.static_solutions,
                row.measured_solutions
            );
        }
        out
    }
}

/// Runs the closed measure → override → re-plan → validate loop on
/// `program` and returns the final reordering together with the log.
pub fn calibrate_loop(
    program: &SourceProgram,
    config: &ReorderConfig,
    opts: &CalibrationOptions,
) -> CalibrationOutcome {
    let universe = harvest_universe(program, opts.max_universe);
    let domains = ArgDomains::infer(program, opts.max_universe);
    let preds: Vec<PredId> = program
        .predicates()
        .into_iter()
        .filter(|p| (1..=opts.max_arity).contains(&p.arity))
        .collect();

    // Ground truth: how the *input* ordering behaves. Also the baseline
    // every emitted version must beat (or match) to survive validation.
    let base = calibrate_pairs(program, &preds, &universe, Some(&domains), &opts.sample);
    let mut measured: DetailedCosts = base.clone();
    let mut pinned: BTreeSet<PredId> = config.pinned.iter().copied().collect();

    // The uncalibrated plan, for the divergence report (its per-mode
    // `original` stats are the static estimates — no overrides are
    // installed) and as round 0's "previous" emission.
    let static_result = Reorderer::new(program, config.clone()).run();
    let divergence = divergence_rows(&static_result, &base);
    let mut prev_text = prolog_syntax::pretty::program_to_string(&static_result.program);

    let mut rounds = Vec::new();
    let mut converged = false;
    let mut last: Option<ReorderResult> = None;
    for round in 0..opts.rounds.max(1) {
        let round_config = ReorderConfig {
            pinned: pinned.iter().copied().collect(),
            ..config.clone()
        };
        let overrides: MeasuredCosts = measured
            .iter()
            .map(|(key, m)| (key.clone(), m.stats))
            .collect();
        let result = Reorderer::new(program, round_config)
            .with_measured_costs(overrides.clone())
            .run();
        let text = prolog_syntax::pretty::program_to_string(&result.program);
        let plan_changed = text != prev_text;

        // Measure the emitted versions and validate them against the
        // input-ordering baseline. Predicates the planner skipped are
        // measured too (under their original names): a regression there
        // is a callee's dispatcher charging meta-calls inside a body the
        // planner never touched.
        let emitted = measure_versions(&result, &base, &domains, &universe, &opts.sample);
        let specialized: HashSet<PredId> = result
            .report
            .predicates
            .iter()
            .filter(|p| p.skipped.is_none() && !p.modes.is_empty())
            .map(|p| p.pred)
            .collect();
        let mut new_pins: BTreeSet<PredId> = BTreeSet::new();
        let mut net: BTreeMap<PredId, f64> = BTreeMap::new();
        for ((pred, mode), em) in emitted.iter() {
            let Some(b) = base.get(&(*pred, mode.clone())) else {
                continue;
            };
            *net.entry(*pred).or_default() += em.measurement.stats.cost - b.stats.cost;
            if em.measurement.stats.cost > b.stats.cost {
                // The version measured worse than the input ordering.
                // Dispatchers hit during the run are the usual culprit (a
                // per-meta-call hop the model never charged); pin them. A
                // predicate that regressed with no dispatcher in sight is
                // judged on its net cost below.
                for &culprit in &em.dispatchers_hit {
                    if !pinned.contains(&culprit) {
                        new_pins.insert(culprit);
                    }
                }
            }
        }
        // Net losers with no dispatcher to blame: pin the predicate
        // itself — reordering it was a measured pessimisation. Only
        // specialised predicates qualify; a skipped predicate is already
        // emitted verbatim, so pinning it would change nothing (and the
        // loop would re-pin it forever).
        if new_pins.is_empty() {
            for (&pred, &delta) in &net {
                if delta > 0.0 && specialized.contains(&pred) && !pinned.contains(&pred) {
                    new_pins.insert(pred);
                }
            }
        }

        // Feedback: the emitted measurements become the next round's
        // estimates, except for freshly pinned predicates (their next
        // emission is the input definition, so the input measurement is
        // the right estimate again).
        let mut max_cost_delta = 0.0f64;
        for ((pred, mode), em) in emitted.iter() {
            if new_pins.contains(pred) {
                continue;
            }
            let key = (*pred, mode.clone());
            let previous = measured.get(&key).map(|m| m.stats.cost);
            if let Some(prev) = previous {
                max_cost_delta = max_cost_delta.max((em.measurement.stats.cost - prev).abs());
            }
            measured.insert(key, em.measurement);
        }
        for pin in &new_pins {
            for ((pred, mode), b) in base.iter() {
                if pred == pin {
                    measured.insert((*pred, mode.clone()), *b);
                }
            }
        }

        rounds.push(CalibrationRound {
            round,
            overrides: overrides.len(),
            plan_changed,
            max_cost_delta,
            new_pins: new_pins.iter().copied().collect(),
        });
        last = Some(result);
        if new_pins.is_empty() && (!plan_changed || max_cost_delta <= opts.epsilon) {
            converged = true;
            break;
        }
        pinned.extend(new_pins);
        prev_text = text;
    }

    CalibrationOutcome {
        result: last.expect("at least one calibration round runs"),
        measured: measured
            .into_iter()
            .map(|(key, m)| (key, m.stats))
            .collect(),
        pinned: pinned.into_iter().collect(),
        rounds,
        converged,
        divergence,
    }
}

/// An emitted `(pred, mode)` version's measurement, plus the dispatcher
/// predicates its run was routed through (harvested from the engine's
/// per-predicate profile).
struct EmittedPair {
    measurement: PairMeasurement,
    dispatchers_hit: Vec<PredId>,
}

/// Measures every `(pred, mode)` version of a reorder result by querying
/// the version directly (the bench harness's convention), on a fresh
/// engine per mode with profiling on. Skipped predicates — emitted
/// verbatim under their original names — are measured in every mode the
/// input baseline established, so regressions caused by *callees'*
/// dispatchers still surface and get attributed.
fn measure_versions(
    result: &ReorderResult,
    base: &DetailedCosts,
    domains: &ArgDomains,
    fallback: &[Term],
    sample: &CalibrationConfig,
) -> BTreeMap<(PredId, Mode), EmittedPair> {
    // Predicates that dispatch: specialised into versions distinct from
    // the original name, which therefore carries the `var/1` dispatcher.
    let dispatching: HashSet<PredId> = result
        .report
        .predicates
        .iter()
        .filter(|p| p.skipped.is_none())
        .filter(|p| p.modes.iter().any(|m| m.version != p.pred.name.as_str()))
        .map(|p| p.pred)
        .collect();

    let mut out = BTreeMap::new();
    for pred_report in &result.report.predicates {
        let pred = pred_report.pred;
        let universes = position_universes(pred, pred.arity, Some(domains), fallback);
        // (version symbol, mode) pairs to run for this predicate.
        let targets: Vec<(Symbol, Mode)> = if pred_report.skipped.is_some() {
            let mut modes: Vec<Mode> = base
                .keys()
                .filter(|(p, _)| *p == pred)
                .map(|(_, m)| m.clone())
                .collect();
            modes.sort_by_key(|m| m.suffix());
            modes.into_iter().map(|m| (pred.name, m)).collect()
        } else {
            pred_report
                .modes
                .iter()
                .map(|m| (sym(&m.version), m.mode.clone()))
                .collect()
        };
        for (version, mode) in targets {
            let queries =
                sample_queries_each(version, &mode, &universes, sample.max_queries_per_mode);
            if queries.is_empty() {
                continue;
            }
            let mut engine = fresh_engine(&result.program, sample);
            let Some((measurement, profile)) = measure_queries_on(&mut engine, &queries) else {
                continue;
            };
            let dispatchers_hit: Vec<PredId> = profile
                .keys()
                .filter(|id| dispatching.contains(id))
                .copied()
                .collect();
            out.insert(
                (pred, mode),
                EmittedPair {
                    measurement,
                    dispatchers_hit,
                },
            );
        }
    }
    out
}

/// Builds the divergence table: the uncalibrated run's static estimates
/// against the input-program measurements, for every pair both sides
/// know.
fn divergence_rows(static_result: &ReorderResult, base: &DetailedCosts) -> Vec<DivergenceRow> {
    let mut rows = Vec::new();
    for pred_report in &static_result.report.predicates {
        if pred_report.skipped.is_some() {
            continue;
        }
        for mode_report in &pred_report.modes {
            let Some(b) = base.get(&(pred_report.pred, mode_report.mode.clone())) else {
                continue;
            };
            rows.push(DivergenceRow {
                pred: pred_report.pred,
                mode: mode_report.mode.clone(),
                static_cost: mode_report.original.cost,
                measured_cost: b.stats.cost,
                static_solutions: p_to_solutions(mode_report.original.p),
                measured_solutions: p_to_solutions(b.stats.p),
            });
        }
    }
    rows.sort_by_key(|a| (a.pred, a.mode.suffix()));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use prolog_syntax::parse_program;

    fn universe(names: &[&str]) -> Vec<Term> {
        names.iter().map(|n| Term::atom(n)).collect()
    }

    #[test]
    fn measures_fact_predicates_exactly() {
        let p = parse_program("f(a). f(b). f(c).").unwrap();
        let costs = calibrate(
            &p,
            &[PredId::new("f", 1)],
            &universe(&["a", "b", "c", "d"]),
            &CalibrationConfig::default(),
        );
        let free = costs[&(PredId::new("f", 1), Mode::parse("-").unwrap())];
        // one call, three solutions
        assert_eq!(free.cost, 1.0);
        assert!((crate::costs::p_to_solutions(free.p) - 3.0).abs() < 1e-9);
        let bound = costs[&(PredId::new("f", 1), Mode::parse("+").unwrap())];
        // 3 of 4 constants succeed
        assert!((crate::costs::p_to_solutions(bound.p) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn measures_rule_costs_including_descendants() {
        let p = parse_program(
            "r(X) :- f(X), g(X).
             f(a). f(b). g(b).",
        )
        .unwrap();
        let costs = calibrate(
            &p,
            &[PredId::new("r", 1)],
            &universe(&["a", "b"]),
            &CalibrationConfig::default(),
        );
        let free = costs[&(PredId::new("r", 1), Mode::parse("-").unwrap())];
        assert!(free.cost > 1.0, "rule cost includes callees: {}", free.cost);
    }

    #[test]
    fn divergent_modes_are_skipped() {
        let p = parse_program(
            "d(X, [X|Y], Y).
             d(U, [X|Y], [X|V]) :- d(U, Y, V).",
        )
        .unwrap();
        let config = CalibrationConfig {
            max_calls_per_query: 2_000,
            ..Default::default()
        };
        let costs = calibrate(&p, &[PredId::new("d", 3)], &universe(&["a"]), &config);
        // (+,-,-) diverges: must be absent
        assert!(!costs.contains_key(&(PredId::new("d", 3), Mode::parse("+--").unwrap())));
        // Whatever modes did measure belong to the requested predicate.
        assert!(costs.keys().all(|(pred, _)| *pred == PredId::new("d", 3)));
    }

    #[test]
    fn budget_exhausted_samples_are_skipped_without_discarding_the_mode() {
        // p(a) diverges; p(b) measures in one call. The mode survives on
        // the samples that completed.
        let p = parse_program("p(a) :- p(a). p(b).").unwrap();
        let config = CalibrationConfig {
            max_calls_per_query: 1_000,
            ..Default::default()
        };
        let detailed =
            calibrate_detailed(&p, &[PredId::new("p", 1)], &universe(&["a", "b"]), &config);
        let bound = detailed[&(PredId::new("p", 1), Mode::parse("+").unwrap())];
        assert_eq!(bound.measured, 1, "only p(b) completes");
        assert_eq!(bound.skipped, 1, "p(a) exhausts its budget");
        assert_eq!(bound.stats.cost, 1.0);
        // The free mode finds p(a) first and diverges on every (single)
        // sample: unmeasurable, discarded.
        assert!(!detailed.contains_key(&(PredId::new("p", 1), Mode::parse("-").unwrap())));
    }

    #[test]
    fn illegal_modes_are_discarded_even_with_completed_samples() {
        // q(1) measures fine; q(a) raises a type error from `is/2`. The
        // error marks the mode illegal, so the pair must be absent even
        // though one sample completed first.
        let p = parse_program("q(X) :- Y is X + 1, r(Y). r(_).").unwrap();
        let u = vec![Term::Int(1), Term::atom("a")];
        let detailed = calibrate_detailed(
            &p,
            &[PredId::new("q", 1)],
            &u,
            &CalibrationConfig::default(),
        );
        assert!(!detailed.contains_key(&(PredId::new("q", 1), Mode::parse("+").unwrap())));
        // The free mode is illegal outright (unbound arithmetic).
        assert!(!detailed.contains_key(&(PredId::new("q", 1), Mode::parse("-").unwrap())));
    }

    #[test]
    fn interleaved_modes_measure_identically_to_isolated_runs() {
        let src = "r(X) :- f(X), g(X).
                   s(X) :- g(X), f(X).
                   f(a). f(b). f(c). g(b). g(c).";
        let p = parse_program(src).unwrap();
        let u = universe(&["a", "b", "c"]);
        let config = CalibrationConfig::default();
        let together = calibrate_detailed(
            &p,
            &[
                PredId::new("r", 1),
                PredId::new("s", 1),
                PredId::new("f", 1),
            ],
            &u,
            &config,
        );
        for pred in ["r", "s", "f"] {
            let alone = calibrate_detailed(&p, &[PredId::new(pred, 1)], &u, &config);
            for (key, m) in alone {
                assert_eq!(
                    together.get(&key),
                    Some(&m),
                    "{key:?} must measure the same interleaved and isolated"
                );
            }
        }
    }

    #[test]
    fn sampling_respects_the_budget() {
        let u: Vec<Term> = (0..50).map(Term::Int).collect();
        let qs = sample_queries_each(
            PredId::new("big", 2).name,
            &Mode::parse("++").unwrap(),
            &[&u, &u],
            64,
        );
        assert_eq!(qs.len(), 64); // 2500 combinations sampled down to 64
    }

    #[test]
    fn argument_domains_follow_variable_links_and_stay_typed() {
        let p = parse_program(
            "dept(sales). dept(hr).
             emp(e1). emp(e2). emp(e3).
             works(e1, sales). works(e2, hr). works(e3, hr).
             staff(E) :- emp(E), works(E, _D).
             where(E, D) :- works(E, D), dept(D).",
        )
        .unwrap();
        let domains = ArgDomains::infer(&p, 16);
        let fallback = universe(&["zzz"]);
        let names = |pred: &str, arity: usize, pos: usize| -> Vec<String> {
            domains
                .universe(PredId::new(pred, arity), pos, &fallback)
                .iter()
                .map(|t| t.to_string())
                .collect()
        };
        // staff/1's argument is linked to emp/1 and works/2 position 0:
        // employees only, no departments.
        assert_eq!(names("staff", 1, 0), ["e1", "e2", "e3"]);
        // where/2 keeps its positions apart: employees left, depts right.
        assert_eq!(names("where", 2, 0), ["e1", "e2", "e3"]);
        assert_eq!(names("where", 2, 1), ["sales", "hr"]);
        // A predicate the program never constrains falls back.
        assert_eq!(
            domains.universe(PredId::new("ghost", 1), 0, &fallback),
            &fallback[..]
        );
    }

    #[test]
    fn universe_harvest_is_deterministic_and_capped() {
        let p = parse_program("f(a). f(b). g(a, 3). h(X) :- f(X). g(c, 4).").unwrap();
        let u = harvest_universe(&p, 10);
        let names: Vec<String> = u.iter().map(|t| t.to_string()).collect();
        assert_eq!(names, ["a", "b", "3", "c", "4"]);
        assert_eq!(harvest_universe(&p, 2).len(), 2);
    }
}
