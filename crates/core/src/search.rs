//! Goal-order search (paper §VI-A.3, §VI-B.1).
//!
//! For a mobile block of `n` goals, the best legal order is found either
//! by exhaustive enumeration with legality pruning (small `n`) or by
//! best-first search à la Smith & Genesereth: nodes are ordered legal
//! prefixes, and the path cost is the all-solutions Markov-chain cost of
//! the prefix — an admissible heuristic because appending a goal can only
//! add cost (§VI-A.3). Both searches honour the semifixity constraint:
//! a culprit variable must have the same instantiation state at its goal's
//! activation as in the original order (§IV-C).

use crate::config::ReorderConfig;
use crate::costs::Estimator;
use crate::scan::{scan_goal, ScannedGoal};
use prolog_analysis::{AbstractState, ModeItem, SemifixityAnalysis};
use prolog_syntax::Body;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Result of ordering one mobile block.
#[derive(Debug, Clone)]
pub struct OrderOutcome {
    /// Permutation: `order[k]` is the index (into the input slice) of the
    /// goal that runs `k`-th.
    pub order: Vec<usize>,
    /// The goals, annotated, in the chosen order.
    pub scanned: Vec<ScannedGoal>,
    /// All-solutions expected cost of the block in the chosen order.
    pub cost: f64,
    /// Exit instantiation state after the block.
    pub exit_state: AbstractState,
    /// Number of orders the search examined (for reports/ablation).
    pub explored: usize,
    /// Candidate placements rejected by legality: culprit-state
    /// violations and goals unscannable in the candidate prefix's mode.
    pub rejected: usize,
}

/// Built-ins whose *meaning* depends on their arguments' instantiation:
/// semifixed in every variable (§IV-C names `var/1` as the canonical
/// example; identity tests and the set predicates behave likewise,
/// §IV-D.5–6).
fn builtin_is_instantiation_sensitive(name: &str) -> bool {
    matches!(
        name,
        "var"
            | "nonvar"
            | "atom"
            | "atomic"
            | "number"
            | "integer"
            | "float"
            | "compound"
            | "callable"
            | "ground"
            | "is_list"
            | "=="
            | "\\=="
            | "\\="
            | "@<"
            | "@>"
            | "@=<"
            | "@>="
            | "compare"
            | "findall"
            | "bagof"
            | "setof"
            | "not"
            | "\\+"
            | "call"
            | "forall"
            | "copy_term"
    )
}

/// The culprit variables of a goal: variables whose instantiation state at
/// this goal's activation must be preserved (§IV-C, §IV-D.5).
fn culprit_vars(goal: &Body, semifix: &SemifixityAnalysis) -> Vec<usize> {
    match goal {
        Body::Call(t) => {
            if t.pred_id()
                .is_some_and(|id| builtin_is_instantiation_sensitive(id.name.as_str()))
            {
                return t.variables();
            }
            semifix.culprit_vars_of_goal(t)
        }
        // Negation is semifixed in all its variables.
        Body::Not(g) => g.to_term().variables(),
        _ => Vec::new(),
    }
}

/// Widest block the order search plans: both searches mark placed goals
/// in a `u64`. A wider block keeps its written order, the same fallback
/// an exhausted A* budget takes.
const MAX_SEARCH_GOALS: usize = u64::BITS as usize;

/// Finds the cheapest legal order of `goals` starting from `entry`.
/// Returns `None` when even the original order cannot be scanned (the
/// block is then left untouched by the caller).
pub fn best_order(
    goals: &[Body],
    entry: &AbstractState,
    est: &Estimator<'_>,
    semifix: &SemifixityAnalysis,
    config: &ReorderConfig,
) -> Option<OrderOutcome> {
    let n = goals.len();
    // Baseline: the original order. It also yields the culprit-state trace
    // that candidate orders must reproduce.
    let mut trace: Vec<Vec<(usize, ModeItem)>> = Vec::with_capacity(n);
    let mut base_state = entry.clone();
    let mut base_scanned = Vec::with_capacity(n);
    let mut base = Prefix::new(config.cost_model);
    for goal in goals {
        let culprits: Vec<(usize, ModeItem)> = culprit_vars(goal, semifix)
            .into_iter()
            .map(|v| (v, base_state.get(v)))
            .collect();
        trace.push(culprits);
        let scanned = scan_goal(goal, &mut base_state, est)?;
        base.push(&scanned);
        base_scanned.push(scanned);
    }
    let original = OrderOutcome {
        order: (0..n).collect(),
        scanned: base_scanned,
        cost: base.g,
        exit_state: base_state,
        explored: 1,
        rejected: 0,
    };
    if n <= 1 || n > MAX_SEARCH_GOALS {
        return Some(original);
    }

    let (found, explored, rejected) = if n <= config.exhaustive_threshold {
        exhaustive(goals, entry, est, &trace, original.cost, config.cost_model)
    } else {
        astar(
            goals,
            entry,
            est,
            &trace,
            config.max_search_nodes,
            config.cost_model,
        )
    };
    match found {
        // Require a strict improvement; ties keep the source order.
        Some(better) if better.cost < original.cost - 1e-9 => Some(OrderOutcome {
            explored: explored + 1,
            rejected,
            ..better
        }),
        _ => Some(OrderOutcome {
            explored: explored + 1,
            rejected,
            ..original
        }),
    }
}

/// Incremental all-solutions cost of a goal prefix. Under the paper's
/// chain model, `v_i = (Π_{j<i} p_j) / (Π_{j≤i} (1−p_j))` visits at cost
/// `c_i` each; under the generator-tree refinement, each goal's full cost
/// once per `Π_{j<i} E_j` fresh activations. Both are monotone in prefix
/// extension, so either keeps the best-first search admissible.
#[derive(Debug, Clone)]
struct Prefix {
    model: crate::config::CostModelKind,
    prod_p: f64,
    prod_q: f64,
    /// Fresh activations of the next goal: Π E_j over placed goals.
    activations: f64,
    g: f64,
}

impl Prefix {
    fn new(model: crate::config::CostModelKind) -> Prefix {
        Prefix {
            model,
            prod_p: 1.0,
            prod_q: 1.0,
            activations: 1.0,
            g: 0.0,
        }
    }

    /// Positive floor for the running products: a long prefix of
    /// near-certain goals (each clamped to `1 − 1e-6`) multiplies
    /// `prod_q` below `f64::MIN_POSITIVE` after ~50 goals. Left to
    /// underflow to `0.0`, `visits` becomes `inf` and poisons both the
    /// branch-and-bound bound and every downstream comparison.
    const FLOOR: f64 = 1e-300;

    fn push(&mut self, goal: &ScannedGoal) {
        let s = goal.stats.clamped();
        match self.model {
            crate::config::CostModelKind::MarkovChain => {
                self.prod_q = (self.prod_q * (1.0 - s.p)).max(Self::FLOOR);
                let visits = self.prod_p / self.prod_q;
                self.g += visits * s.cost;
                self.prod_p *= s.p;
            }
            crate::config::CostModelKind::GeneratorTree => {
                self.g += self.activations * s.cost;
                // Symmetric guard: Π E_j overflows to inf just as easily
                // for a prefix of prolific generators.
                self.activations = (self.activations * (s.p / (1.0 - s.p))).min(1.0 / Self::FLOOR);
            }
        }
    }
}

/// Does placing `goal` now satisfy its culprit-state constraint?
fn culprits_ok(goal_idx: usize, state: &AbstractState, trace: &[Vec<(usize, ModeItem)>]) -> bool {
    trace[goal_idx]
        .iter()
        .all(|(v, item)| state.get(*v) == *item)
}

/// Depth-first enumeration with legality pruning and branch-and-bound.
/// Returns `(improvement, orders examined, placements rejected)`.
fn exhaustive(
    goals: &[Body],
    entry: &AbstractState,
    est: &Estimator<'_>,
    trace: &[Vec<(usize, ModeItem)>],
    bound: f64,
    model: crate::config::CostModelKind,
) -> (Option<OrderOutcome>, usize, usize) {
    struct Search<'a, 'p> {
        goals: &'a [Body],
        est: &'a Estimator<'p>,
        trace: &'a [Vec<(usize, ModeItem)>],
        best: Option<OrderOutcome>,
        bound: f64,
        explored: usize,
        rejected: usize,
    }

    impl Search<'_, '_> {
        fn dfs(
            &mut self,
            used: u64,
            order: &mut Vec<usize>,
            scanned: &mut Vec<ScannedGoal>,
            state: &AbstractState,
            prefix: &Prefix,
        ) {
            let n = self.goals.len();
            if order.len() == n {
                self.explored += 1;
                if prefix.g < self.bound - 1e-12 {
                    self.bound = prefix.g;
                    self.best = Some(OrderOutcome {
                        order: order.clone(),
                        scanned: scanned.clone(),
                        cost: prefix.g,
                        exit_state: state.clone(),
                        explored: 0,
                        rejected: 0,
                    });
                }
                return;
            }
            for i in 0..n {
                if used & (1 << i) != 0 {
                    continue;
                }
                if !culprits_ok(i, state, self.trace) {
                    self.rejected += 1;
                    continue;
                }
                let mut next_state = state.clone();
                let Some(sg) = scan_goal(&self.goals[i], &mut next_state, self.est) else {
                    self.rejected += 1;
                    continue; // illegal order: prune this branch
                };
                let mut next_prefix = prefix.clone();
                next_prefix.push(&sg);
                if next_prefix.g >= self.bound - 1e-12 {
                    continue; // cannot beat the incumbent
                }
                order.push(i);
                scanned.push(sg);
                self.dfs(used | (1 << i), order, scanned, &next_state, &next_prefix);
                order.pop();
                scanned.pop();
            }
        }
    }

    let mut search = Search {
        goals,
        est,
        trace,
        best: None,
        bound,
        explored: 0,
        rejected: 0,
    };
    search.dfs(
        0,
        &mut Vec::new(),
        &mut Vec::new(),
        entry,
        &Prefix::new(model),
    );
    (search.best, search.explored, search.rejected)
}

/// Best-first (uniform-cost) search over legal ordered prefixes.
/// Returns `(solution, nodes expanded, placements rejected)`.
fn astar(
    goals: &[Body],
    entry: &AbstractState,
    est: &Estimator<'_>,
    trace: &[Vec<(usize, ModeItem)>],
    max_nodes: usize,
    model: crate::config::CostModelKind,
) -> (Option<OrderOutcome>, usize, usize) {
    struct Node {
        order: Vec<usize>,
        scanned: Vec<ScannedGoal>,
        state: AbstractState,
        prefix: Prefix,
    }

    struct Entry(f64, usize); // (g, node index)

    impl PartialEq for Entry {
        fn eq(&self, other: &Self) -> bool {
            self.0 == other.0
        }
    }
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            // Min-heap on g: reverse the comparison.
            other.0.partial_cmp(&self.0).unwrap_or(Ordering::Equal)
        }
    }

    let n = goals.len();
    let mut arena: Vec<Node> = vec![Node {
        order: Vec::new(),
        scanned: Vec::new(),
        state: entry.clone(),
        prefix: Prefix::new(model),
    }];
    let mut heap = BinaryHeap::new();
    heap.push(Entry(0.0, 0));
    let mut expanded = 0;
    let mut rejected = 0;

    while let Some(Entry(g, idx)) = heap.pop() {
        expanded += 1;
        if expanded > max_nodes {
            // Search budget exhausted: caller keeps the original order.
            return (None, expanded, rejected);
        }
        let (order_len, used): (usize, u64) = {
            let node = &arena[idx];
            (
                node.order.len(),
                node.order.iter().fold(0, |m, &i| m | 1 << i),
            )
        };
        if order_len == n {
            let node = &arena[idx];
            let found = OrderOutcome {
                order: node.order.clone(),
                scanned: node.scanned.clone(),
                cost: g,
                exit_state: node.state.clone(),
                explored: expanded,
                rejected,
            };
            return (Some(found), expanded, rejected);
        }
        for (i, goal) in goals.iter().enumerate() {
            if used & (1 << i) != 0 {
                continue;
            }
            let (mut next_state, culps_ok) = {
                let node = &arena[idx];
                (node.state.clone(), culprits_ok(i, &node.state, trace))
            };
            if !culps_ok {
                rejected += 1;
                continue;
            }
            let Some(sg) = scan_goal(goal, &mut next_state, est) else {
                rejected += 1;
                continue;
            };
            let (mut order, mut scanned, mut prefix) = {
                let node = &arena[idx];
                (
                    node.order.clone(),
                    node.scanned.clone(),
                    node.prefix.clone(),
                )
            };
            prefix.push(&sg);
            order.push(i);
            scanned.push(sg);
            let g_new = prefix.g;
            arena.push(Node {
                order,
                scanned,
                state: next_state,
                prefix,
            });
            heap.push(Entry(g_new, arena.len() - 1));
        }
    }
    (None, expanded, rejected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ModeOracle;
    use prolog_analysis::{CallGraph, Declarations, Mode, RecursionAnalysis};
    use prolog_syntax::parse_program;

    /// Runs best_order over the body of the first clause of `pred_src`,
    /// returning the chosen order of goal indices.
    fn choose(src: &str, head_mode: &str, threshold: usize) -> Vec<usize> {
        let program = parse_program(src).unwrap();
        let declarations = Declarations::from_program(&program);
        let graph = CallGraph::build(&program);
        let recursion = RecursionAnalysis::compute(&graph);
        let semifix = prolog_analysis::SemifixityAnalysis::compute(&program, &graph);
        let config = ReorderConfig {
            exhaustive_threshold: threshold,
            ..Default::default()
        };
        let oracle = ModeOracle::new(&program, &declarations);
        let est = Estimator::new(&program, &oracle, &declarations, &recursion, &config);
        let clause = &program.clauses[0];
        let goals: Vec<Body> = clause.body.conjuncts().into_iter().cloned().collect();
        let entry = crate::scan::head_state(&clause.head, &Mode::parse(head_mode).unwrap());
        let out = best_order(&goals, &entry, &est, &semifix, &config).expect("scannable");
        out.order
    }

    const GRANDMOTHER: &str = "
        grandmother(GC, GM) :- grandparent(GC, GM), female(GM).
        grandparent(GC, GP) :- parent(P, GP), parent(GC, P).
        parent(C, P) :- mother(C, P).
        parent(C, P) :- mother(C, M), wife(P, M).
        female(W) :- girl(W).
        female(W) :- wife(_, W).
        girl(g1). girl(g2). girl(g3).
        wife(h1, w1). wife(h2, w2). wife(h3, w3). wife(h4, w4).
        mother(c1, m1). mother(c2, m2). mother(c3, m3). mother(c4, m4).
        mother(c5, m1). mother(c6, m2). mother(c7, m3). mother(c8, m4).
        mother(m1, w1). mother(m2, w1). mother(m3, w2). mother(m4, w2).
    ";

    #[test]
    fn paper_intro_example_moves_female_first() {
        // §I-D: female/1 is cheap and instantiates GM; grandparent/2 is
        // expensive. The reorderer should put female(GM) first for the
        // uninstantiated mode.
        let order = choose(GRANDMOTHER, "--", 6);
        assert_eq!(order, vec![1, 0], "female should run before grandparent");
    }

    #[test]
    fn astar_agrees_with_exhaustive() {
        // Force the A* path with threshold 0 and compare.
        let ex = choose(GRANDMOTHER, "--", 6);
        let astar = choose(GRANDMOTHER, "--", 0);
        assert_eq!(ex, astar);
    }

    #[test]
    fn illegal_orders_are_never_chosen() {
        // inc demands X; the only legal order keeps gen(X) before it.
        let src = "
            p(Y) :- gen(X), inc(X, Y).
            gen(1). gen(2). gen(3). gen(4). gen(5).
            inc(X, Y) :- Y is X + 1.
        ";
        // Even though inc is cheap and would be 'better' first, it is
        // illegal first: order must stay [0, 1].
        let order = choose(src, "-", 6);
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn cheap_test_moves_before_expensive_generator() {
        let src = "
            q(X) :- expensive(X, _), cheap(X).
            cheap(a1).
            expensive(X, Y) :- e1(X, Y1), e1(Y1, Y2), e1(Y2, Y).
            e1(a1, a2). e1(a2, a3). e1(a3, a4). e1(a4, a5). e1(a5, a6).
            e1(b1, b2). e1(b2, b3). e1(b3, b4). e1(b4, b5). e1(b5, b6).
        ";
        let order = choose(src, "-", 6);
        assert_eq!(order, vec![1, 0], "cheap test should lead");
    }

    #[test]
    fn negation_does_not_cross_its_binder() {
        // \+ taken(X) is semifixed in X: it must not run before gen(X)
        // instantiates X (its result would change).
        let src = "
            free(X) :- gen(X), \\+ taken(X).
            gen(1). gen(2). gen(3). gen(4). gen(5). gen(6). gen(7).
            taken(2). taken(3). taken(5).
        ";
        let order = choose(src, "-", 6);
        assert_eq!(order, vec![0, 1], "negation must stay after its binder");
    }

    #[test]
    fn single_goal_is_trivial() {
        let order = choose("one(X) :- only(X). only(1).", "-", 6);
        assert_eq!(order, vec![0]);
    }

    /// Regression: a long run of near-certain goals (clamped to
    /// `p = 1 − 1e-6`) used to underflow `prod_q` to `0.0` after ~50
    /// pushes, turning the visit count — and thus `g` — into `inf` and
    /// poisoning every branch-and-bound comparison downstream.
    #[test]
    fn markov_prefix_stays_finite_on_long_near_certain_chains() {
        let near_certain = ScannedGoal {
            goal: Body::True,
            call_mode: None,
            stats: prolog_markov::GoalStats::new(1.0, 1.0),
        };
        let mut prefix = Prefix::new(crate::config::CostModelKind::MarkovChain);
        for i in 0..200 {
            prefix.push(&near_certain);
            assert!(
                prefix.g.is_finite(),
                "g became non-finite after {} goals",
                i + 1
            );
        }
        assert!(prefix.prod_q > 0.0, "prod_q underflowed to zero");
        // The cost must still be usable as a branch-and-bound bound.
        assert!(prefix.g < f64::MAX);
    }

    #[test]
    fn generator_prefix_stays_finite_on_long_generator_chains() {
        let generator = ScannedGoal {
            goal: Body::True,
            call_mode: None,
            stats: prolog_markov::GoalStats::new(1.0, 1.0),
        };
        let mut prefix = Prefix::new(crate::config::CostModelKind::GeneratorTree);
        for _ in 0..200 {
            prefix.push(&generator);
        }
        assert!(prefix.activations.is_finite());
        assert!(prefix.g.is_finite());
    }

    /// A body wider than the search's `u64` visited set keeps its written
    /// order instead of shifting past bit 63 (a panic in debug builds and
    /// silently aliased goals in release). The body is §I-D's
    /// `grandparent, female` pair, which a planned block reorders, padded
    /// with cheap goals.
    #[test]
    fn seventy_goal_body_keeps_its_written_order() {
        let with_padding = |pad: usize| {
            let mut goals = vec!["grandparent(GC, GM)".to_string(), "female(GM)".to_string()];
            goals.extend((0..pad).map(|i| format!("t{i}")));
            let facts: String = (0..pad).map(|i| format!("t{i}.\n")).collect();
            let src = GRANDMOTHER.replacen("grandparent(GC, GM), female(GM)", &goals.join(", "), 1);
            choose(&format!("{src}{facts}"), "--", 6)
        };
        assert_eq!(with_padding(68), (0..70).collect::<Vec<_>>());
        let planned = with_padding(2);
        let at = |goal: usize| planned.iter().position(|&g| g == goal);
        assert!(
            at(1) < at(0),
            "a block the search can plan still moves female first: {planned:?}"
        );
    }
}
