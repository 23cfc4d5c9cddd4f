//! Workload inputs, made from the run's seed alone: the same seed always
//! yields the same programs, queries and request schedules, and the
//! program under test sees nothing but these generated inputs.

use prolog_analysis::Mode;
use prolog_difftest::{generate_case, GenConfig};
use prolog_syntax::pretty::program_to_string;
use prolog_syntax::{parse_term, SourceProgram, Term};
use prolog_workloads::kmbench::{kmbench_program, KmbenchConfig};
use prolog_workloads::puzzles::{
    meal_program, meal_universe, p58_program, p58_universe, team_program, team_universe,
};
use prolog_workloads::{
    corporate_program, family_program, family_scaled, mode_queries, CorporateConfig, FamilyConfig,
    QuerySpec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The workloads, named as in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReorderRules,
    QueryPaper,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ReorderRules,
        Workload::QueryPaper,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReorderRules => "reorder-rules",
            Workload::QueryPaper => "query-paper",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The boundary the workload is named for.
    pub fn boundary(self) -> Boundary {
        match self {
            Workload::ReorderRules => Boundary::Reorder,
            Workload::QueryPaper => Boundary::Query,
            Workload::ServeMixed => Boundary::Serve,
        }
    }
}

/// The three boundaries a run times: source text to reordered text,
/// query to solutions, and request frame to reply frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    Reorder,
    Query,
    Serve,
}

/// A query goal whose `Var(i)` is named `var_names[i]`.
#[derive(Debug, Clone)]
pub struct Query {
    pub goal: Term,
    pub var_names: Vec<String>,
}

impl Query {
    fn parse(src: &str) -> Query {
        let (goal, var_names) = parse_term(src).expect("benchmark query parses");
        Query { goal, var_names }
    }

    fn from_term(goal: Term) -> Query {
        let var_names = (0..goal.variables().len())
            .map(|i| format!("V{i}"))
            .collect();
        Query { goal, var_names }
    }

    /// The `+`/`-` calling mode of the goal: `+` for a ground argument.
    pub fn mode(&self) -> Option<Mode> {
        let Term::Struct(_, args) = &self.goal else {
            return None;
        };
        let text: String = args
            .iter()
            .map(|a| if a.is_ground() { '+' } else { '-' })
            .collect();
        Mode::parse(&text)
    }
}

/// One program of a workload with the queries asked of it.
#[derive(Debug, Clone)]
pub struct Program {
    pub name: String,
    pub text: String,
    pub queries: Vec<Query>,
}

impl Program {
    fn from_source(name: impl Into<String>, program: &SourceProgram, queries: Vec<Query>) -> Self {
        Program {
            name: name.into(),
            text: program_to_string(program),
            queries,
        }
    }
}

/// The open-loop arrival rate, requests per second over all connections,
/// the same on every workload: see `README.md` (Serving phase) for how
/// it was set against the measured closed-loop capacity.
pub const RATE_RPS: f64 = 150.0;

/// The request mix the daemon is driven with.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Open-loop arrival rate, requests per second, over all connections.
    pub rate_rps: f64,
    /// Every `fresh_every`-th request of a connection carries a program
    /// never sent before (a fixed count, so the misses a run sees do not
    /// vary with the draw).
    pub fresh_every: u64,
    /// Zipf exponent of the draw over the pool; rank `r` is the pool's
    /// `r`-th program, so which programs are hot is fixed.
    pub zipf_s: f64,
    /// A never-seen program is one of the first `fresh_bases` pool
    /// programs with a unique comment appended: new to the cache, so it
    /// takes the whole write path, at a reorder cost the pool already
    /// bounds (a random generated program can take half a second, which
    /// would stall its connection and swamp the latency figures).
    pub fresh_bases: usize,
}

/// Everything a run of one workload needs, made from its seed.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    /// Programs reordered, queried and served.
    pub programs: Vec<Program>,
    pub serve: ServeSpec,
}

/// A 64-bit mix of a seed, a stream tag and an index (splitmix64), so
/// independent draws never share a generator state.
pub fn mix(seed: u64, tag: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(index.wrapping_mul(0xd1b5_4a32_d192_ed03));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
}

/// Generator seeds whose programs pass every check of this benchmark,
/// one `max_goals seed` pair a line, made by `perfbench --vet` (see
/// `README.md`). Workloads draw generated programs only from this list:
/// a listed program that fails a check later shows that a change broke
/// the reorderer or a backend, not that a new seed found an old bug.
const VETTED: &str = include_str!("../vetted.txt");

/// How many vetted seeds `--vet` keeps per maximum body length.
/// These are the counts the workloads draw: six each of 2 and 3 goals and
/// three each of 5 to 10 for `reorder-rules`, and the 293 of 4 goals that
/// fill the `serve-mixed` pool (its first six are `reorder-rules`' too).
pub const VET_TARGETS: [(usize, usize); 9] = [
    (2, 6),
    (3, 6),
    (4, 293),
    (5, 3),
    (6, 3),
    (7, 3),
    (8, 3),
    (9, 3),
    (10, 3),
];

/// The `index`-th candidate seed `--vet` tries for `max_goals`.
pub fn candidate_seed(max_goals: usize, index: u64) -> u64 {
    mix(0x5EED_1988, max_goals as u64, index)
}

/// The vetted seeds for `max_goals`, in list order.
pub fn vetted(max_goals: usize) -> Vec<u64> {
    VETTED
        .lines()
        .filter_map(|line| {
            let (g, seed) = line.split_once(' ')?;
            (g.parse::<usize>().ok()? == max_goals).then(|| seed.parse().ok())?
        })
        .collect()
}

pub fn generated(name: &str, seed: u64, config: &GenConfig) -> Program {
    let case = generate_case(seed, config);
    let queries = case
        .queries
        .into_iter()
        .map(|q| Query {
            goal: q.goal,
            var_names: q.var_names,
        })
        .collect();
    Program::from_source(format!("{name}-{seed:x}"), &case.program, queries)
}

pub fn with_goals(max_goals: usize) -> GenConfig {
    GenConfig {
        max_goals,
        ..GenConfig::default()
    }
}

/// The seven corpus programs, reorder-only.
fn corpus() -> Vec<Program> {
    prolog_workloads::corpus()
        .into_iter()
        .map(|p| Program {
            name: p.name.to_string(),
            text: p.text,
            queries: Vec::new(),
        })
        .collect()
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64) -> Inputs {
        let mut rng = StdRng::seed_from_u64(mix(seed, 1, 0));
        let default_serve = ServeSpec {
            rate_rps: RATE_RPS,
            fresh_every: 10,
            zipf_s: 1.0,
            fresh_bases: 5,
        };
        let (mut programs, serve) = match workload {
            Workload::ReorderRules => {
                // The generated programs are the same for every seed:
                // their search cost is heavy-tailed (one 9-goal body can
                // cost more than fifty other programs together), so a
                // per-seed draw would move the totals by more than any
                // bound. The seed orders the passes, the queries and the
                // requests.
                let mut programs = Vec::new();
                for goals in 2..=10usize {
                    let count = if goals <= 4 { 6 } else { 3 };
                    for s in vetted(goals).into_iter().take(count) {
                        programs.push(generated("gen", s, &with_goals(goals)));
                    }
                }
                programs.extend(corpus());
                // The 18 short-body programs come first.
                let serve = ServeSpec {
                    fresh_bases: 18,
                    ..default_serve
                };
                (programs, serve)
            }
            Workload::QueryPaper => (paper_programs(), default_serve),
            Workload::ServeMixed => {
                // A pool larger than the daemon's 256-entry memory tier:
                // generated programs at the hot end, the corpus, large
                // programs included, at the cold end.
                let mut programs: Vec<Program> = vetted(4)
                    .into_iter()
                    .take(293)
                    .map(|s| generated("pool", s, &GenConfig::default()))
                    .collect();
                programs.extend(corpus());
                let serve = ServeSpec {
                    fresh_bases: 293,
                    ..default_serve
                };
                (programs, serve)
            }
        };
        for p in &mut programs {
            shuffle(&mut p.queries, &mut rng);
        }
        Inputs {
            workload,
            seed,
            programs,
            serve,
        }
    }
}

/// The programs and queries of the paper's Tables II–IV.
fn paper_programs() -> Vec<Program> {
    let sweep = |name: &str, mode: &str, universe: &[String]| -> Vec<Query> {
        mode_queries(&QuerySpec {
            name: name.to_string(),
            mode: Mode::parse(mode).expect("valid mode"),
            universe: universe.to_vec(),
        })
        .into_iter()
        .map(Query::from_term)
        .collect()
    };
    let parsed = |srcs: &[&str]| srcs.iter().map(|s| Query::parse(s)).collect::<Vec<_>>();

    // Table II: the per-mode sweeps of the family tree, with the
    // 3025-query aunt(+,+) sweep.
    let (family, people) = family_program(&FamilyConfig::default());
    let mut family_queries = Vec::new();
    for pred in ["aunt", "brother", "cousins", "grandmother"] {
        for mode in ["--", "-+", "+-"] {
            family_queries.extend(sweep(pred, mode, &people));
        }
    }
    family_queries.extend(sweep("aunt", "++", &people));

    // Table III: the corporate database.
    let (corporate, _) = corporate_program(&CorporateConfig::default());
    let corporate_queries = parsed(&[
        "benefits(E, B)",
        "pay(E, N, P)",
        "pay(E, jane, P)",
        "maternity(E, N)",
        "maternity(E, jane)",
        "average_pay(D, A)",
        "tax(E, T)",
        "tax(e1, T)",
    ]);

    // Table IV: the small programs and kmbench.
    let (apps, mains, _) = meal_universe();
    let mut meal_queries = parsed(&["meal(A, M, D)"]);
    for a in &apps {
        for m in &mains {
            meal_queries.push(Query::parse(&format!("meal({a}, {m}, D)")));
        }
    }
    let mut team_queries = parsed(&["team(L, M)"]);
    team_queries.extend(sweep("team", "++", &team_universe()));

    // A family tree of about 10^3 facts, where clause selection dominates.
    let scaled = family_scaled(1000);

    // The two 17 KB programs come last, so they are the serving pool's
    // coldest (12% of requests) and never the base of a new program.
    vec![
        Program::from_source("family", &family, family_queries),
        Program::from_source("p58", &p58_program(), sweep("p58", "++", &p58_universe())),
        Program::from_source("meal", &meal_program(), meal_queries),
        Program::from_source("team", &team_program(), team_queries),
        Program::from_source(
            "kmbench",
            &kmbench_program(&KmbenchConfig::default()),
            parsed(&["run_all"]),
        ),
        Program::from_source("corporate", &corporate, corporate_queries),
        Program::from_source(
            "family_scaled-1000",
            &scaled.program,
            // cousins(X, Y) is left out: the original order makes 1.2·10^7
            // calls (about 100 s) at this size.
            parsed(&["aunt(X, Y)", "grandmother(X, Y)", "sister(X, Y)"]),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(inputs: &Inputs) -> Vec<String> {
        inputs
            .programs
            .iter()
            .map(|p| {
                let queries: Vec<String> = p.queries.iter().map(|q| q.goal.to_string()).collect();
                format!("{}|{}|{}", p.name, p.text, queries.join(";"))
            })
            .collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_programs_and_queries() {
        for workload in Workload::ALL {
            let a = Inputs::new(workload, 7);
            let b = Inputs::new(workload, 7);
            assert_eq!(fingerprint(&a), fingerprint(&b), "{}", workload.name());
        }
    }

    #[test]
    fn another_seed_changes_the_draw() {
        let a = Inputs::new(Workload::ReorderRules, 1);
        let b = Inputs::new(Workload::ReorderRules, 2);
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn the_serving_pool_outgrows_the_memory_tier() {
        let inputs = Inputs::new(Workload::ServeMixed, 1);
        assert!(inputs.programs.len() > reordd::ServerConfig::default().cache_capacity);
    }

    #[test]
    fn modes_follow_argument_groundness() {
        let q = Query::parse("aunt(ann, X)");
        assert_eq!(
            q.mode().unwrap().suffix(),
            Mode::parse("+-").unwrap().suffix()
        );
    }
}
