//! Bottom-up semi-naive evaluation.
//!
//! Strata run in order; inside a stratum, round 0 evaluates every rule in
//! full, then semi-naive rounds rewrite each rule once per occurrence of
//! a same-stratum relation in its body: that occurrence reads only the
//! *delta* (the contiguous row-id range appended since the previous
//! round) while the others read the full relation. Dedup in
//! [`Relation::insert`] makes repeated derivations harmless and
//! termination follows from the finite Herbrand base the certifier
//! guarantees.
//!
//! Every rule execution is a nested-loop hash join: body literals run in
//! the order chosen by [`crate::order::choose_order`] under the selected
//! [`OrderStrategy`], positive literals probe indexes keyed by their
//! bound-column signature, and tests/negation/arithmetic filter bound
//! tuples. The `tuples_joined` statistic — index probes plus candidate
//! tuples enumerated — is the evaluator's analogue of the paper's
//! call-count metric, and is what the `datalog` trajectory ablation
//! reports.

use crate::interner::{ConstId, Interner};
use crate::order::{choose_order, LitEstimator, OrderStrategy};
use crate::program::{Arg, ArithOp, CmpOp, DatalogProgram, Expr, Lit, OrdOp, RelId, RelKind, Rule};
use crate::relation::{ColMask, Relation};
use crate::safety::Certification;
use prolog_syntax::arith::{int_div, int_mod};
use prolog_syntax::{PredId, Term};
use std::collections::HashMap;

/// Evaluation statistics, reported into the `datalog` trajectory section.
#[derive(Debug, Clone, Default)]
pub struct EvalStats {
    /// Index probes plus candidate tuples enumerated across all joins —
    /// the bottom-up analogue of the paper's call counts.
    pub tuples_joined: u64,
    /// Distinct new facts derived by rules (excludes loaded facts).
    pub facts_derived: u64,
    /// Ground facts loaded before evaluation.
    pub facts_loaded: u64,
    /// Total tuples across materialised IDB relations when done.
    pub idb_tuples: u64,
    /// Semi-naive rounds across all strata (round 0 of each included).
    pub rounds: u64,
    /// New tuples per round, in execution order.
    pub delta_sizes: Vec<u64>,
    /// Number of strata evaluated (excluding the EDB load).
    pub strata: u64,
    /// Wall-clock time of `evaluate` in microseconds.
    pub wall_us: u64,
}

/// A finished evaluation: materialised relations plus statistics.
pub struct Evaluation {
    program: DatalogProgram,
    rels: Vec<Relation>,
    interner: Interner,
    pub strategy: OrderStrategy,
    pub stats: EvalStats,
    /// Round-0 body order chosen per rule (indexes into the rule body).
    pub rule_orders: Vec<Vec<usize>>,
}

/// How one plan step reads its data.
#[derive(Debug, Clone)]
enum Access {
    /// Non-positive literal: filter or binder.
    Filter,
    /// Positive literal with no bound columns: full scan.
    Scan { rel: RelId },
    /// Positive literal probing the index for `mask`.
    Probe { rel: RelId, mask: ColMask },
    /// The semi-naive delta occurrence: scan rows `lo..hi`.
    Delta { rel: RelId, lo: usize, hi: usize },
}

#[derive(Debug, Clone)]
struct Plan {
    order: Vec<usize>,
    access: Vec<Access>,
}

/// Estimates literal costs from the live relations (exact probe counts
/// for constant-bound columns, distinct-value division for variable-bound
/// ones). Relations still being fixed in the current stratum get a size
/// floor so an empty-so-far recursive relation is not mistaken for free.
struct RelEstimator<'a> {
    rels: &'a mut [Relation],
    rel_of: &'a HashMap<PredId, RelId>,
    incomplete: &'a [bool],
}

const INCOMPLETE_FLOOR: usize = 16;

impl RelEstimator<'_> {
    fn pos_stats(&mut self, pred: PredId, args: &[Arg], bound: &[bool]) -> (f64, f64) {
        let Some(&rid) = self.rel_of.get(&pred) else {
            return (1.0, 1e-3); // unknown predicate: empty relation
        };
        let rel = &mut self.rels[rid];
        let mut n = rel.len();
        if self.incomplete[rid] {
            n = n.max(INCOMPLETE_FLOOR);
        }
        let mut const_mask: ColMask = 0;
        let mut const_key: Vec<ConstId> = Vec::new();
        let mut var_cols: Vec<usize> = Vec::new();
        for (col, arg) in args.iter().enumerate() {
            match arg {
                Arg::Const(c) => {
                    const_mask |= 1 << col;
                    const_key.push(*c);
                }
                Arg::Var(v) if bound[*v] => var_cols.push(col),
                Arg::Var(_) => {}
            }
        }
        if const_mask == 0 && var_cols.is_empty() {
            return (1.0 + n as f64, n as f64);
        }
        let mut est = if const_mask != 0 {
            let exact = rel.probe_count(const_mask, &const_key) as f64;
            if self.incomplete[rid] && !rel.is_empty() {
                exact * (n as f64 / rel.len() as f64)
            } else if rel.is_empty() {
                n as f64
            } else {
                exact
            }
        } else {
            n as f64
        };
        for col in var_cols {
            est /= rel.distinct_in_col(col).max(1) as f64;
        }
        let est = est.max(1e-3);
        (1.0 + est, est)
    }
}

impl LitEstimator for RelEstimator<'_> {
    fn stats(&mut self, lit: &Lit, bound: &[bool]) -> (f64, f64) {
        match lit {
            Lit::Pos { pred, args } => self.pos_stats(*pred, args, bound),
            Lit::Neg { .. } => (1.0, 0.8),
            Lit::Call { .. } => (1.0, 0.5),
            Lit::Is { .. } => (1.0, 1.0),
            Lit::Unify { a, b } => {
                let known = |arg: &Arg| match arg {
                    Arg::Const(_) => true,
                    Arg::Var(v) => bound[*v],
                };
                if known(a) && known(b) {
                    (1.0, 0.5)
                } else {
                    (1.0, 1.0)
                }
            }
            Lit::Cmp { .. } => (1.0, 0.5),
            Lit::Ord { op, .. } => match op {
                OrdOp::Eq => (1.0, 0.1),
                OrdOp::Ne => (1.0, 0.9),
                _ => (1.0, 0.5),
            },
        }
    }
}

/// Evaluates the certified program under one ordering strategy.
pub fn evaluate(cert: &Certification, strategy: OrderStrategy) -> Evaluation {
    let start = std::time::Instant::now();
    let program = cert.program.clone();
    let _span = prolog_trace::span_with("datalog.eval", || {
        prolog_trace::fields::Obj::new()
            .str("strategy", strategy.label().to_string())
            .u64("relations", program.rels.len() as u64)
            .u64("rules", program.rules.len() as u64)
    });
    let mut rels: Vec<Relation> = program
        .rels
        .iter()
        .map(|decl| Relation::new(decl.pred.arity))
        .collect();
    let mut interner = program.interner.clone();
    let mut stats = EvalStats::default();

    // Load ground facts (EDB tuples and ground IDB fact clauses).
    for (rid, tuple) in &program.facts {
        if rels[*rid].insert(tuple) {
            stats.facts_loaded += 1;
        }
    }

    let mut rule_orders: Vec<Vec<usize>> = vec![Vec::new(); program.rules.len()];

    for (si, stratum) in program.strata.iter().enumerate().skip(1) {
        let _sspan = prolog_trace::span_with("datalog.stratum", || {
            prolog_trace::fields::Obj::new()
                .u64("stratum", si as u64)
                .u64("rules", stratum.rules.len() as u64)
        });
        let mut incomplete = vec![false; rels.len()];
        for &rid in &stratum.rels {
            incomplete[rid] = true;
        }

        // Round 0: full evaluation of every rule in the stratum.
        stats.rounds += 1;
        let mut round_new = 0u64;
        for &ri in &stratum.rules {
            let rule = &program.rules[ri];
            let plan = make_plan(
                rule,
                None,
                strategy,
                &mut rels,
                &program.rel_of,
                &incomplete,
            );
            rule_orders[ri] = plan.order.clone();
            round_new += run_rule(rule, &plan, &mut rels, &mut interner, &program, &mut stats);
        }
        prolog_trace::instant_with("datalog.delta", || {
            prolog_trace::fields::Obj::new()
                .u64("stratum", si as u64)
                .u64("round", 0)
                .u64("new_tuples", round_new)
        });
        stats.delta_sizes.push(round_new);

        // Delta ranges cover facts plus round-0 derivations.
        let mut delta: HashMap<RelId, (usize, usize)> = stratum
            .rels
            .iter()
            .map(|&rid| (rid, (0, rels[rid].len())))
            .collect();
        // The same-stratum positive occurrences of each rule.
        let occurrences: Vec<(usize, Vec<usize>)> = stratum
            .rules
            .iter()
            .map(|&ri| {
                let rule = &program.rules[ri];
                let occs = rule
                    .body
                    .iter()
                    .enumerate()
                    .filter(|(_, lit)| {
                        lit.rel_pred()
                            .and_then(|p| program.rel_of.get(&p))
                            .is_some_and(|rid| {
                                matches!(lit, Lit::Pos { .. }) && delta.contains_key(rid)
                            })
                    })
                    .map(|(i, _)| i)
                    .collect();
                (ri, occs)
            })
            .collect();

        let mut delta_plans: HashMap<(usize, usize), Plan> = HashMap::new();
        let mut round = 0u64;
        loop {
            if delta.values().all(|(lo, hi)| lo == hi) {
                break;
            }
            round += 1;
            stats.rounds += 1;
            let marks: HashMap<RelId, usize> = delta.keys().map(|&r| (r, rels[r].len())).collect();
            let mut new_this_round = 0u64;
            for (ri, occs) in &occurrences {
                let rule = &program.rules[*ri];
                for &occ in occs {
                    let occ_pred = rule.body[occ]
                        .rel_pred()
                        .expect("occurrence is a positive relation literal");
                    let rid = program.rel_of[&occ_pred];
                    let (lo, hi) = delta[&rid];
                    if lo == hi {
                        continue;
                    }
                    let plan = delta_plans.entry((*ri, occ)).or_insert_with(|| {
                        make_plan(
                            rule,
                            Some(occ),
                            strategy,
                            &mut rels,
                            &program.rel_of,
                            &incomplete,
                        )
                    });
                    // Re-point the delta window at this round's range.
                    let mut plan = plan.clone();
                    for access in plan.access.iter_mut() {
                        if let Access::Delta {
                            rel,
                            lo: plo,
                            hi: phi,
                        } = access
                        {
                            *plo = lo;
                            *phi = hi;
                            debug_assert_eq!(*rel, rid);
                        }
                    }
                    new_this_round +=
                        run_rule(rule, &plan, &mut rels, &mut interner, &program, &mut stats);
                }
            }
            for (rid, range) in delta.iter_mut() {
                *range = (marks[rid], rels[*rid].len());
            }
            let si_u = si as u64;
            prolog_trace::instant_with("datalog.delta", || {
                prolog_trace::fields::Obj::new()
                    .u64("stratum", si_u)
                    .u64("round", round)
                    .u64("new_tuples", new_this_round)
            });
            stats.delta_sizes.push(new_this_round);
        }
        stats.strata += 1;
    }

    stats.idb_tuples = program
        .rels
        .iter()
        .enumerate()
        .filter(|(_, d)| d.kind == RelKind::Idb)
        .map(|(rid, _)| rels[rid].len() as u64)
        .sum();
    stats.wall_us = start.elapsed().as_micros() as u64;
    Evaluation {
        program,
        rels,
        interner,
        strategy,
        stats,
        rule_orders,
    }
}

/// Chooses an order and precomputes per-step access for one rule.
fn make_plan(
    rule: &Rule,
    delta_occ: Option<usize>,
    strategy: OrderStrategy,
    rels: &mut [Relation],
    rel_of: &HashMap<PredId, RelId>,
    incomplete: &[bool],
) -> Plan {
    let initial_bound = vec![false; rule.nvars.max(1)];
    let mut est = RelEstimator {
        rels,
        rel_of,
        incomplete,
    };
    let order = choose_order(&rule.body, &initial_bound, strategy, &mut est, delta_occ);

    // Static bound-set evolution gives each positive literal its probe
    // signature; build the indexes now so execution never mutates.
    let mut bound = initial_bound;
    let mut access = Vec::with_capacity(order.len());
    for (pos, &li) in order.iter().enumerate() {
        let lit = &rule.body[li];
        let a = match lit {
            Lit::Pos { pred, args } => {
                let rid = rel_of
                    .get(pred)
                    .copied()
                    .expect("certified positive literal has a relation");
                if delta_occ == Some(li) {
                    debug_assert_eq!(pos, 0, "delta occurrence leads its join");
                    Access::Delta {
                        rel: rid,
                        lo: 0,
                        hi: 0,
                    }
                } else {
                    let mut mask: ColMask = 0;
                    for (col, arg) in args.iter().enumerate() {
                        let is_bound = match arg {
                            Arg::Const(_) => true,
                            Arg::Var(v) => bound[*v],
                        };
                        if is_bound {
                            mask |= 1 << col;
                        }
                    }
                    if mask == 0 {
                        Access::Scan { rel: rid }
                    } else {
                        rels[rid].ensure_index(mask);
                        Access::Probe { rel: rid, mask }
                    }
                }
            }
            _ => Access::Filter,
        };
        for v in lit.bound_vars() {
            bound[v] = true;
        }
        access.push(a);
    }
    Plan { order, access }
}

/// Executes one rule under one plan; returns the number of new tuples.
fn run_rule(
    rule: &Rule,
    plan: &Plan,
    rels: &mut [Relation],
    interner: &mut Interner,
    program: &DatalogProgram,
    stats: &mut EvalStats,
) -> u64 {
    let mut bindings: Vec<Option<ConstId>> = vec![None; rule.nvars.max(1)];
    let mut derived: Vec<Vec<ConstId>> = Vec::new();
    join_step(
        rule,
        plan,
        0,
        rels,
        interner,
        program,
        stats,
        &mut bindings,
        &mut derived,
    );
    let head_rid = program.rel_of[&rule.head];
    let mut new = 0u64;
    for tuple in derived {
        if rels[head_rid].insert(&tuple) {
            new += 1;
        }
    }
    stats.facts_derived += new;
    new
}

#[allow(clippy::too_many_arguments)]
fn join_step(
    rule: &Rule,
    plan: &Plan,
    depth: usize,
    rels: &[Relation],
    interner: &mut Interner,
    program: &DatalogProgram,
    stats: &mut EvalStats,
    bindings: &mut Vec<Option<ConstId>>,
    derived: &mut Vec<Vec<ConstId>>,
) {
    if depth == plan.order.len() {
        let tuple: Vec<ConstId> = rule
            .head_args
            .iter()
            .map(|arg| resolve(arg, bindings).expect("head variable bound by certification"))
            .collect();
        derived.push(tuple);
        return;
    }
    let li = plan.order[depth];
    let lit = &rule.body[li];
    match &plan.access[depth] {
        Access::Filter => {
            let mut trail = Vec::new();
            if eval_filter(lit, rels, interner, program, stats, bindings, &mut trail) {
                join_step(
                    rule,
                    plan,
                    depth + 1,
                    rels,
                    interner,
                    program,
                    stats,
                    bindings,
                    derived,
                );
            }
            for v in trail {
                bindings[v] = None;
            }
        }
        Access::Scan { rel } => {
            stats.tuples_joined += 1;
            let r = &rels[*rel];
            for row_id in 0..r.len() {
                try_row(
                    rule,
                    plan,
                    depth,
                    lit,
                    r.row(row_id),
                    rels,
                    interner,
                    program,
                    stats,
                    bindings,
                    derived,
                );
            }
        }
        Access::Delta { rel, lo, hi } => {
            stats.tuples_joined += 1;
            let r = &rels[*rel];
            for row_id in *lo..*hi {
                try_row(
                    rule,
                    plan,
                    depth,
                    lit,
                    r.row(row_id),
                    rels,
                    interner,
                    program,
                    stats,
                    bindings,
                    derived,
                );
            }
        }
        Access::Probe { rel, mask } => {
            stats.tuples_joined += 1;
            let args = match lit {
                Lit::Pos { args, .. } => args,
                _ => unreachable!("probe access on a positive literal"),
            };
            let mut key = Vec::with_capacity(mask.count_ones() as usize);
            for (col, arg) in args.iter().enumerate() {
                if mask & (1 << col) != 0 {
                    key.push(resolve(arg, bindings).expect("masked column is bound"));
                }
            }
            let r = &rels[*rel];
            for &row_id in r.probe(*mask, &key) {
                try_row(
                    rule,
                    plan,
                    depth,
                    lit,
                    r.row(row_id as usize),
                    rels,
                    interner,
                    program,
                    stats,
                    bindings,
                    derived,
                );
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn try_row(
    rule: &Rule,
    plan: &Plan,
    depth: usize,
    lit: &Lit,
    row: &[ConstId],
    rels: &[Relation],
    interner: &mut Interner,
    program: &DatalogProgram,
    stats: &mut EvalStats,
    bindings: &mut Vec<Option<ConstId>>,
    derived: &mut Vec<Vec<ConstId>>,
) {
    stats.tuples_joined += 1;
    let args = match lit {
        Lit::Pos { args, .. } => args,
        _ => unreachable!("row access on a positive literal"),
    };
    let mut trail = Vec::new();
    if match_tuple(args, row, bindings, &mut trail) {
        join_step(
            rule,
            plan,
            depth + 1,
            rels,
            interner,
            program,
            stats,
            bindings,
            derived,
        );
    }
    for v in trail {
        bindings[v] = None;
    }
}

fn resolve(arg: &Arg, bindings: &[Option<ConstId>]) -> Option<ConstId> {
    match arg {
        Arg::Const(c) => Some(*c),
        Arg::Var(v) => bindings[*v],
    }
}

/// Matches a tuple against literal arguments, binding free variables
/// (recording them on `trail`) and checking bound ones.
fn match_tuple(
    args: &[Arg],
    row: &[ConstId],
    bindings: &mut [Option<ConstId>],
    trail: &mut Vec<usize>,
) -> bool {
    for (arg, value) in args.iter().zip(row.iter()) {
        match arg {
            Arg::Const(c) => {
                if c != value {
                    return false;
                }
            }
            Arg::Var(v) => match bindings[*v] {
                Some(bound) => {
                    if bound != *value {
                        return false;
                    }
                }
                None => {
                    bindings[*v] = Some(*value);
                    trail.push(*v);
                }
            },
        }
    }
    true
}

/// Evaluates a non-generating literal; may bind via `is`/`=` (trailed).
fn eval_filter(
    lit: &Lit,
    rels: &[Relation],
    interner: &mut Interner,
    program: &DatalogProgram,
    stats: &mut EvalStats,
    bindings: &mut [Option<ConstId>],
    trail: &mut Vec<usize>,
) -> bool {
    match lit {
        Lit::Pos { .. } => unreachable!("positive literals have scan/probe access"),
        Lit::Neg { pred, args } => {
            stats.tuples_joined += 1;
            let vals: Vec<ConstId> = args
                .iter()
                .map(|a| resolve(a, bindings).expect("negation runs fully bound"))
                .collect();
            if program.tests.contains_key(pred) {
                !eval_test(*pred, &vals, rels, interner, program, stats)
            } else if let Some(&rid) = program.rel_of.get(pred) {
                !rels[rid].contains(&vals)
            } else {
                true // unknown predicate: \+ p succeeds
            }
        }
        Lit::Call { pred, args } => {
            stats.tuples_joined += 1;
            let vals: Vec<ConstId> = args
                .iter()
                .map(|a| resolve(a, bindings).expect("test call runs fully bound"))
                .collect();
            eval_test(*pred, &vals, rels, interner, program, stats)
        }
        Lit::Is { var, expr } => match eval_expr(expr, bindings, interner) {
            Some(n) => {
                let id = interner.intern_int(n);
                match bindings[*var] {
                    Some(bound) => bound == id,
                    None => {
                        bindings[*var] = Some(id);
                        trail.push(*var);
                        true
                    }
                }
            }
            None => false,
        },
        Lit::Unify { a, b } => match (resolve(a, bindings), resolve(b, bindings)) {
            (Some(x), Some(y)) => x == y,
            (Some(x), None) => {
                let v = b.var().expect("unbound side is a variable");
                bindings[v] = Some(x);
                trail.push(v);
                true
            }
            (None, Some(y)) => {
                let v = a.var().expect("unbound side is a variable");
                bindings[v] = Some(y);
                trail.push(v);
                true
            }
            (None, None) => false,
        },
        Lit::Cmp { op, lhs, rhs } => {
            let (Some(l), Some(r)) = (
                eval_expr(lhs, bindings, interner),
                eval_expr(rhs, bindings, interner),
            ) else {
                return false;
            };
            match op {
                CmpOp::Lt => l < r,
                CmpOp::Le => l <= r,
                CmpOp::Gt => l > r,
                CmpOp::Ge => l >= r,
                CmpOp::ArithEq => l == r,
                CmpOp::ArithNe => l != r,
            }
        }
        Lit::Ord { op, a, b } => {
            let (Some(x), Some(y)) = (resolve(a, bindings), resolve(b, bindings)) else {
                return false;
            };
            let ord = interner.compare(x, y);
            match op {
                OrdOp::Eq => ord == std::cmp::Ordering::Equal,
                OrdOp::Ne => ord != std::cmp::Ordering::Equal,
                OrdOp::Before => ord == std::cmp::Ordering::Less,
                OrdOp::BeforeEq => ord != std::cmp::Ordering::Greater,
                OrdOp::After => ord == std::cmp::Ordering::Greater,
                OrdOp::AfterEq => ord != std::cmp::Ordering::Less,
            }
        }
    }
}

/// Runs a demand-evaluated test predicate over ground values.
fn eval_test(
    pred: PredId,
    vals: &[ConstId],
    rels: &[Relation],
    interner: &mut Interner,
    program: &DatalogProgram,
    stats: &mut EvalStats,
) -> bool {
    let test = &program.tests[&pred];
    'clauses: for clause in &test.clauses {
        let mut bindings: Vec<Option<ConstId>> = vec![None; clause.nvars.max(1)];
        for (param, value) in clause.params.iter().zip(vals.iter()) {
            match param {
                Arg::Const(c) => {
                    if c != value {
                        continue 'clauses;
                    }
                }
                Arg::Var(v) => match bindings[*v] {
                    Some(bound) => {
                        if bound != *value {
                            continue 'clauses;
                        }
                    }
                    None => bindings[*v] = Some(*value),
                },
            }
        }
        let mut trail = Vec::new();
        let ok = clause.body.iter().all(|lit| {
            eval_filter(
                lit,
                rels,
                interner,
                program,
                stats,
                &mut bindings,
                &mut trail,
            )
        });
        if ok {
            return true;
        }
    }
    false
}

fn eval_expr(expr: &Expr, bindings: &[Option<ConstId>], interner: &Interner) -> Option<i64> {
    match expr {
        Expr::Arg(arg) => {
            let id = resolve(arg, bindings)?;
            interner.as_int(id)
        }
        Expr::Neg(e) => eval_expr(e, bindings, interner)?.checked_neg(),
        Expr::Abs(e) => eval_expr(e, bindings, interner)?.checked_abs(),
        Expr::Bin(op, a, b) => {
            let a = eval_expr(a, bindings, interner)?;
            let b = eval_expr(b, bindings, interner)?;
            match op {
                ArithOp::Add => a.checked_add(b),
                ArithOp::Sub => a.checked_sub(b),
                ArithOp::Mul => a.checked_mul(b),
                ArithOp::IntDiv => int_div(a, b),
                ArithOp::Mod => int_mod(a, b),
                ArithOp::Min => Some(a.min(b)),
                ArithOp::Max => Some(a.max(b)),
            }
        }
    }
}

impl Evaluation {
    /// The materialised relation behind a predicate, if it has one.
    pub fn relation(&self, pred: PredId) -> Option<&Relation> {
        self.program.rel(pred).map(|rid| &self.rels[rid])
    }

    /// Runs a query goal against the materialised program. Returns the
    /// deduplicated, sorted solution strings (set semantics), formatted
    /// identically to [`prolog_engine`'s] solution display — or `None` if
    /// the goal's predicate is outside the certified fragment or (for
    /// test predicates) not ground.
    pub fn query(&self, goal: &Term, var_names: &[String]) -> Option<Vec<String>> {
        let pred = goal.pred_id()?;
        let args: Vec<Term> = match goal {
            Term::Struct(_, a) => a.to_vec(),
            _ => Vec::new(),
        };
        let reported: Vec<(usize, String)> = var_names
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.starts_with('_'))
            .map(|(i, n)| (i, n.clone()))
            .collect();

        if let Some(rid) = self.program.rel(pred) {
            // Compile query args: a variable or an interned constant; a
            // constant the program never mentions matches nothing.
            let mut pattern: Vec<Result<usize, Option<ConstId>>> = Vec::new();
            for a in &args {
                match a {
                    Term::Var(v) => pattern.push(Ok(*v)),
                    t if t.is_ground() => pattern.push(Err(self.lookup(t))),
                    _ => return None, // non-ground compound argument
                }
            }
            let rel = &self.rels[rid];
            let mut out: Vec<String> = Vec::new();
            'rows: for i in 0..rel.len() {
                let row = rel.row(i);
                let mut bindings: Vec<Option<ConstId>> = vec![None; var_names.len().max(1)];
                for (pat, value) in pattern.iter().zip(row.iter()) {
                    match pat {
                        Err(Some(c)) => {
                            if c != value {
                                continue 'rows;
                            }
                        }
                        Err(None) => continue 'rows,
                        Ok(v) => match bindings[*v] {
                            Some(bound) => {
                                if bound != *value {
                                    continue 'rows;
                                }
                            }
                            None => bindings[*v] = Some(*value),
                        },
                    }
                }
                out.push(self.render_solution(&reported, &bindings));
            }
            out.sort();
            out.dedup();
            return Some(out);
        }
        if self.program.tests.contains_key(&pred) {
            // Tests are only queryable fully ground (demand evaluation).
            let mut vals = Vec::new();
            for a in &args {
                if !a.is_ground() {
                    return None;
                }
                match self.lookup(a) {
                    Some(c) => vals.push(c),
                    None => return Some(Vec::new()),
                }
            }
            let mut interner = self.interner.clone();
            let mut stats = EvalStats::default();
            let ok = eval_test(
                pred,
                &vals,
                &self.rels,
                &mut interner,
                &self.program,
                &mut stats,
            );
            return Some(if ok {
                vec!["true".to_string()]
            } else {
                Vec::new()
            });
        }
        None
    }

    fn lookup(&self, term: &Term) -> Option<ConstId> {
        self.interner.lookup(term)
    }

    fn render_solution(
        &self,
        reported: &[(usize, String)],
        bindings: &[Option<ConstId>],
    ) -> String {
        if reported.is_empty() {
            return "true".to_string();
        }
        let parts: Vec<String> = reported
            .iter()
            .map(|(i, name)| {
                let term = bindings[*i]
                    .map(|c| self.interner.term(c).to_string())
                    .unwrap_or_else(|| "_".to_string());
                format!("{name} = {term}")
            })
            .collect();
        parts.join(", ")
    }

    /// Order-independent fingerprint over all IDB relations; equal across
    /// evaluations iff they materialised the same tuple sets.
    pub fn idb_fingerprint(&self) -> u64 {
        let mut acc: u64 = 0;
        for (rid, decl) in self.program.rels.iter().enumerate() {
            if decl.kind == RelKind::Idb {
                acc = acc
                    .rotate_left(9)
                    .wrapping_add(self.rels[rid].fingerprint(&self.interner));
            }
        }
        acc
    }

    pub fn program(&self) -> &DatalogProgram {
        &self.program
    }
}
