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
//!
//! Both run on a per-block `Kernel`: a candidate prefix is only the
//! states of the block's own variables, and each goal is scanned once per
//! distinct state of its variables, not once per candidate. The winning
//! order is scanned once more from the entry state at the end.

use crate::config::ReorderConfig;
use crate::costs::Estimator;
use crate::scan::{scan_goal, ScannedGoal};
use prolog_analysis::{AbstractState, ModeItem, SemifixityAnalysis};
use prolog_markov::GoalStats;
use prolog_syntax::Body;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

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
        base.push(scanned.stats);
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

    let mut kernel = Kernel::new(goals, entry, est, &trace);
    let (found, explored, rejected) = if n <= config.exhaustive_threshold {
        exhaustive(&mut kernel, original.cost, config.cost_model)
    } else {
        astar(&mut kernel, config.max_search_nodes, config.cost_model)
    };
    match found {
        // Require a strict improvement; ties keep the source order.
        Some((order, cost)) if cost < original.cost - 1e-9 => {
            // One more scan from the entry state annotates the goals and
            // gives the exit state just as the baseline's scan does.
            let mut exit_state = entry.clone();
            let scanned = order
                .iter()
                .map(|&i| scan_goal(&goals[i], &mut exit_state, est))
                .collect::<Option<Vec<_>>>()
                .expect("the search placed every goal of the order legally");
            Some(OrderOutcome {
                order,
                scanned,
                cost,
                exit_state,
                explored: explored + 1,
                rejected,
            })
        }
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
#[derive(Debug, Clone, Copy)]
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

    fn push(&mut self, stats: GoalStats) {
        let s = stats.clamped();
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

/// What placing a goal does, given the states of its variables: its
/// stats and the states of those variables after it, or `None` when the
/// goal cannot be scanned in that mode.
type Placement = Option<(GoalStats, Box<[ModeItem]>)>;

/// One block's search state, shared by every candidate prefix.
///
/// The block's variables are numbered `0..k`; a prefix is represented by
/// the `k` states it leaves them in (every other variable keeps its entry
/// state, since a goal's scan reads and writes only its own variables).
/// For the same reason a goal's placement depends only on the states of
/// its own variables, so each is scanned once per distinct such state.
struct Kernel<'a, 'p> {
    goals: &'a [Body],
    est: &'a Estimator<'p>,
    /// `vars[l]` is the clause variable numbered `l` in this block.
    vars: Vec<usize>,
    /// The block's states at entry.
    entry: Vec<ModeItem>,
    /// Per goal: the block numbers of its variables.
    goal_vars: Vec<Vec<usize>>,
    /// Per goal: the states its culprit variables must have when it runs.
    culprits: Vec<Vec<(usize, ModeItem)>>,
    /// Per goal: states of its variables → its placement.
    memo: Vec<HashMap<Box<[ModeItem]>, Placement>>,
    /// Lookup key, reused: the states of one goal's variables.
    key: Vec<ModeItem>,
}

impl<'a, 'p> Kernel<'a, 'p> {
    fn new(
        goals: &'a [Body],
        entry: &AbstractState,
        est: &'a Estimator<'p>,
        trace: &[Vec<(usize, ModeItem)>],
    ) -> Self {
        let mut vars: Vec<usize> = Vec::new();
        let goal_vars = goals
            .iter()
            .map(|goal| {
                goal.variables()
                    .into_iter()
                    .map(|v| {
                        vars.iter().position(|&w| w == v).unwrap_or_else(|| {
                            vars.push(v);
                            vars.len() - 1
                        })
                    })
                    .collect()
            })
            .collect();
        // Culprit variables are variables of their goal.
        let local = |v: usize| vars.iter().position(|&w| w == v).expect("block variable");
        let culprits = trace
            .iter()
            .map(|c| c.iter().map(|&(v, item)| (local(v), item)).collect())
            .collect();
        Kernel {
            goals,
            est,
            entry: vars.iter().map(|&v| entry.get(v)).collect(),
            vars,
            goal_vars,
            culprits,
            memo: vec![HashMap::new(); goals.len()],
            key: Vec::new(),
        }
    }

    /// Places goal `i` after a prefix that leaves the block in `before`:
    /// writes the states after the goal to `after` and returns its stats,
    /// or `None` when the placement is illegal (a culprit variable's state
    /// differs from the original order's, or the goal is unscannable).
    fn place(
        &mut self,
        i: usize,
        before: &[ModeItem],
        after: &mut [ModeItem],
    ) -> Option<GoalStats> {
        if self.culprits[i].iter().any(|&(l, item)| before[l] != item) {
            return None;
        }
        self.key.clear();
        self.key
            .extend(self.goal_vars[i].iter().map(|&l| before[l]));
        let placement = match self.memo[i].get(self.key.as_slice()) {
            Some(placement) => placement,
            None => {
                let placement = self.scan(i);
                self.memo[i]
                    .entry(self.key.as_slice().into())
                    .or_insert(placement)
            }
        };
        let (stats, states) = placement.as_ref()?;
        after.copy_from_slice(before);
        for (&l, &item) in self.goal_vars[i].iter().zip(states.iter()) {
            after[l] = item;
        }
        Some(*stats)
    }

    /// Scans goal `i` with its variables in the states of `self.key`.
    fn scan(&self, i: usize) -> Placement {
        let mut state = AbstractState::default();
        for (&l, &item) in self.goal_vars[i].iter().zip(&self.key) {
            state.set(self.vars[l], item);
        }
        let scanned = scan_goal(&self.goals[i], &mut state, self.est)?;
        let after = self.goal_vars[i].iter().map(|&l| state.get(self.vars[l]));
        Some((scanned.stats, after.collect()))
    }
}

/// A found order and its cost.
type Found = Option<(Vec<usize>, f64)>;

/// Depth-first enumeration with legality pruning and branch-and-bound.
/// Returns `(improvement, orders examined, placements rejected)`.
fn exhaustive(
    kernel: &mut Kernel<'_, '_>,
    bound: f64,
    model: crate::config::CostModelKind,
) -> (Found, usize, usize) {
    struct Search<'k, 'a, 'p> {
        kernel: &'k mut Kernel<'a, 'p>,
        /// The block states at each depth: depth `d` at `d*k..(d+1)*k`.
        states: Vec<ModeItem>,
        order: Vec<usize>,
        best: Found,
        bound: f64,
        explored: usize,
        rejected: usize,
    }

    impl Search<'_, '_, '_> {
        fn dfs(&mut self, used: u64, prefix: &Prefix) {
            let n = self.kernel.goals.len();
            let depth = self.order.len();
            if depth == n {
                self.explored += 1;
                if prefix.g < self.bound - 1e-12 {
                    self.bound = prefix.g;
                    self.best = Some((self.order.clone(), prefix.g));
                }
                return;
            }
            let k = self.kernel.vars.len();
            for i in 0..n {
                if used & (1 << i) != 0 {
                    continue;
                }
                let (done, rest) = self.states.split_at_mut((depth + 1) * k);
                let Some(stats) = self.kernel.place(i, &done[depth * k..], &mut rest[..k]) else {
                    self.rejected += 1;
                    continue; // illegal order: prune this branch
                };
                let mut next_prefix = *prefix;
                next_prefix.push(stats);
                if next_prefix.g >= self.bound - 1e-12 {
                    continue; // cannot beat the incumbent
                }
                self.order.push(i);
                self.dfs(used | (1 << i), &next_prefix);
                self.order.pop();
            }
        }
    }

    let n = kernel.goals.len();
    let mut states = kernel.entry.clone();
    states.resize((n + 1) * kernel.vars.len(), ModeItem::Minus);
    let mut search = Search {
        kernel,
        states,
        order: Vec::with_capacity(n),
        best: None,
        bound,
        explored: 0,
        rejected: 0,
    };
    search.dfs(0, &Prefix::new(model));
    (search.best, search.explored, search.rejected)
}

/// Best-first (uniform-cost) search over legal ordered prefixes.
/// Returns `(solution, nodes expanded, placements rejected)`.
fn astar(
    kernel: &mut Kernel<'_, '_>,
    max_nodes: usize,
    model: crate::config::CostModelKind,
) -> (Found, usize, usize) {
    /// A legal prefix: the prefix of node `parent` followed by `goal`.
    /// Its block states are `states[index*k..(index+1)*k]`.
    struct Node {
        parent: usize,
        goal: usize,
        used: u64,
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

    let n = kernel.goals.len();
    let k = kernel.vars.len();
    let mut arena = vec![Node {
        parent: 0,
        goal: 0,
        used: 0,
        prefix: Prefix::new(model),
    }];
    let mut states = kernel.entry.clone();
    let mut next = vec![ModeItem::Minus; k];
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
        let (used, prefix) = (arena[idx].used, arena[idx].prefix);
        if used.count_ones() as usize == n {
            let mut order = Vec::with_capacity(n);
            let mut at = idx;
            while at != 0 {
                order.push(arena[at].goal);
                at = arena[at].parent;
            }
            order.reverse();
            return (Some((order, g)), expanded, rejected);
        }
        for i in 0..n {
            if used & (1 << i) != 0 {
                continue;
            }
            let Some(stats) = kernel.place(i, &states[idx * k..(idx + 1) * k], &mut next) else {
                rejected += 1;
                continue;
            };
            let mut child = prefix;
            child.push(stats);
            arena.push(Node {
                parent: idx,
                goal: i,
                used: used | 1 << i,
                prefix: child,
            });
            states.extend_from_slice(&next);
            heap.push(Entry(child.g, arena.len() - 1));
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
        let near_certain = GoalStats::new(1.0, 1.0);
        let mut prefix = Prefix::new(crate::config::CostModelKind::MarkovChain);
        for i in 0..200 {
            prefix.push(near_certain);
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
        let generator = GoalStats::new(1.0, 1.0);
        let mut prefix = Prefix::new(crate::config::CostModelKind::GeneratorTree);
        for _ in 0..200 {
            prefix.push(generator);
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
