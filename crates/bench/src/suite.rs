//! The benchmark-trajectory suite behind the `bench-suite` binary.
//!
//! One run reproduces the paper's evaluation (Tables II/III/IV and the
//! ablation), the closed-loop calibration headline, the fact-scaled
//! workloads evaluated bottom-up under each body-ordering strategy, and an
//! open-loop serving run against a store-backed `reordd`, and serialises
//! all of it into a schema-versioned trajectory JSON (`BENCH_PR13.json`).
//! The trajectory is the regression gate: `bench-diff` compares two of
//! these files and fails on call-count regressions, so the committed
//! baseline pins the reorderer's measured quality, not just its output
//! bytes. It carries exact counts only; wall time is `perfbench`'s.
//!
//! Call counts are deterministic (fixed workload seeds, fixed configs),
//! so every [`Depth`] measures its rows identically and deeper runs only
//! *add* rows — a `--quick` CI run diffs cleanly against a committed
//! full-depth baseline.

use crate::{
    measure_queries, measure_queries_with, measured_best, parse_queries, reorder_default,
    set_equivalent, Measurement, Row,
};
use prolog_analysis::Mode;
use prolog_engine::MachineConfig;
use prolog_syntax::{PredId, SourceProgram, Term};
use prolog_trace::fields::write_str;
use prolog_workloads::corporate::{corporate_program, CorporateConfig};
use prolog_workloads::family::{family_program, FamilyConfig};
use prolog_workloads::kmbench::{kmbench_program, KmbenchConfig};
use prolog_workloads::puzzles::{
    meal_program, meal_universe, p58_program, p58_universe, team_program, team_universe,
};
use prolog_workloads::queries::{mode_queries, QuerySpec};
use prolog_workloads::scaled::{corporate_scaled, family_scaled, ScaledWorkload};
use reorder::{calibrate_loop, CalibrationOptions, ReorderConfig, ReorderResult, Reorderer};
use std::fmt::Write as _;
use std::time::Duration;

/// Version of the trajectory JSON layout. Bump when field names or the
/// section structure change; `bench-diff` refuses to compare across
/// versions. v2 added the `datalog` section and top-level object; v3
/// added the `engine` section (interp-vs-compiled call identity); v4
/// added the `serving` section (open-loop health + warm-start hit
/// ratio); v5 dropped every wall-clock field; v6 dropped the `engine`
/// section. The number is owned by the `reordd` crate — the serving
/// rows' producer (`reordd-bench --trajectory-out`) and this consumer
/// must never drift apart.
pub const BENCH_SCHEMA_VERSION: u64 = reordd::TRAJECTORY_SCHEMA_VERSION;

/// Discriminator stored in the file so tooling can recognise it.
pub const BENCH_KIND: &str = "reorder-bench-trajectory";

/// How much of the evaluation to run. Depths only add rows — a row
/// measured at one depth has identical counts at every other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Depth {
    /// CI smoke: the cheap modes of each table, no exhaustive search.
    Quick,
    /// Everything except the 3025-query `(+,+)` sweeps, exhaustive
    /// measured-best enumeration, and the ablation's one-shot
    /// calibrated-costs row. (The closed-loop `calibration` section
    /// runs at every depth — CI gates it.)
    Default,
    /// The paper's complete protocol.
    Full,
}

impl Depth {
    pub fn as_str(&self) -> &'static str {
        match self {
            Depth::Quick => "quick",
            Depth::Default => "default",
            Depth::Full => "full",
        }
    }
}

/// One named group of measurement rows ("table2", "ablation", …).
pub struct Section {
    pub name: &'static str,
    /// Heading `bench-suite` prints above the rows (the paper's table
    /// title for Tables II–IV).
    pub title: &'static str,
    /// Heading of the row-label column.
    pub header: &'static str,
    pub rows: Vec<Row>,
}

/// Serving health measured end to end: open-loop load against a
/// store-backed daemon (cold), a graceful drain (which flushes the
/// persistent tier), and a restart over the same directory that must
/// serve the repeated workload warm. The section rows gate health
/// (`ok/attempted`) and the warm-start hit percentage; latency is
/// `perfbench`'s `serve-mixed` workload.
pub struct ServingProbe {
    pub connections: u64,
    pub rounds: u64,
    pub attempted: u64,
    pub ok: u64,
    pub cached: u64,
    pub dropped: u64,
    pub retries: u64,
    /// Percentage of the warm (post-restart) run answered from cache.
    pub warm_cached_pct: u64,
    /// Disk-tier hits the restarted daemon reported — proof the warm
    /// start was fed by the store, not silent recomputation.
    pub warm_disk_hits: u64,
}

/// One body-ordering strategy's cost on one bottom-up evaluation.
pub struct DatalogStrategyStats {
    pub strategy: &'static str,
    /// Index probes plus candidate tuples touched — the bottom-up
    /// analogue of the paper's call counts.
    pub tuples_joined: u64,
    pub rounds: u64,
}

/// One fact-scaled workload evaluated bottom-up under every strategy.
pub struct DatalogRun {
    /// `"family/100000"`-style label, shared with the section row.
    pub label: String,
    pub facts: u64,
    pub facts_derived: u64,
    pub strata: u64,
    /// Per-round delta sizes of the chain-cost run.
    pub delta_sizes: Vec<u64>,
    pub strategies: Vec<DatalogStrategyStats>,
    /// All strategies reached the same fixpoint.
    pub equivalent: bool,
}

/// Everything one `bench-suite` run measured.
pub struct Suite {
    pub depth: Depth,
    pub sections: Vec<Section>,
    /// Bottom-up evaluation details behind the `datalog` section rows.
    pub datalog: Vec<DatalogRun>,
    /// Open-loop + warm-start details behind the `serving` section rows.
    pub serving: Option<ServingProbe>,
}

/// Table II — the family tree, per predicate and mode. As in the paper,
/// the reordered program is entered through the mode-tuned version
/// (`aunt_uu`, …) directly; the dispatcher costs only its `var/1` tests.
pub fn table2_rows(depth: Depth) -> Section {
    let config = FamilyConfig::default();
    let (program, people) = family_program(&config);
    let result = reorder_default(&program);
    let preds: &[&str] = match depth {
        Depth::Quick => &["aunt", "grandmother"],
        _ => &["aunt", "brother", "cousins", "grandmother"],
    };
    let modes: &[&str] = match depth {
        Depth::Quick => &["--", "-+"],
        Depth::Default => &["--", "-+", "+-"],
        Depth::Full => &["--", "-+", "+-", "++"],
    };
    let mut rows = Vec::new();
    for pred in preds {
        let pred_report = result
            .report
            .predicate(PredId::new(*pred, 2))
            .expect("family predicates are reordered");
        for mode_s in modes {
            let mode = Mode::parse(mode_s).unwrap();
            let version = pred_report
                .modes
                .iter()
                .find(|m| m.mode == mode)
                .map(|m| m.version.clone())
                .unwrap_or_else(|| pred.to_string());
            let queries = mode_queries(&QuerySpec {
                name: pred.to_string(),
                mode: mode.clone(),
                universe: people.clone(),
            });
            let version_queries = mode_queries(&QuerySpec {
                name: version.clone(),
                mode: mode.clone(),
                universe: people.clone(),
            });
            let original = measure_queries(&program, &queries);
            let reordered = measure_queries(&result.program, &version_queries);
            let best = if depth == Depth::Full && queries.len() <= 56 {
                measured_best(
                    &result.program,
                    PredId::new(version.as_str(), 2),
                    &version_queries,
                    60,
                )
            } else {
                None
            };
            rows.push(Row {
                label: format!("{pred}({})", pretty_mode(mode_s)),
                original: original.calls(),
                reordered: reordered.calls(),
                best,
                equivalent: set_equivalent(&original, &reordered),
            });
        }
    }
    Section {
        name: "table2",
        title: "Table II — reordering the family-tree program (predicate calls)",
        header: "predicate (mode)",
        rows,
    }
}

/// Table III — the corporate database rules.
pub fn table3_rows(_depth: Depth) -> Section {
    let config = CorporateConfig::default();
    let (program, _ids) = corporate_program(&config);
    let result = reorder_default(&program);
    let cases: &[(&str, &str)] = &[
        ("benefits(-,-)", "benefits(E, B)"),
        ("pay(-,-,-)", "pay(E, N, P)"),
        ("pay(-,jane,-)", "pay(E, jane, P)"),
        ("maternity(-,-)", "maternity(E, N)"),
        ("maternity(-,jane)", "maternity(E, jane)"),
        ("average_pay(-,-)", "average_pay(D, A)"),
        ("tax(-,-)", "tax(E, T)"),
        ("tax(e1,-)", "tax(e1, T)"),
    ];
    let rows = cases
        .iter()
        .map(|(label, query)| {
            let queries = parse_queries(&[query]);
            crate::compare_row(*label, &program, &result.program, &queries)
        })
        .collect();
    Section {
        name: "table3",
        title: "Table III — reordering the corporate database (predicate calls)",
        header: "rule (mode)",
        rows,
    }
}

/// Resolves the specialised version serving `mode` in a reorder result.
fn version_of(result: &ReorderResult, pred: PredId, mode: &str) -> String {
    result
        .report
        .predicate(pred)
        .and_then(|pr| {
            let mode = Mode::parse(mode).unwrap();
            pr.modes
                .iter()
                .find(|m| m.mode == mode)
                .map(|m| m.version.clone())
        })
        .unwrap_or_else(|| pred.name.as_str().to_string())
}

/// Rewrites queries to target the mode-tuned version directly.
fn retarget(queries: &[Term], version: &str) -> Vec<Term> {
    queries
        .iter()
        .map(|q| Term::struct_(prolog_syntax::sym(version), q.args().to_vec()))
        .collect()
}

fn compare_versions(
    label: &str,
    program: &SourceProgram,
    reordered: &SourceProgram,
    queries: &[Term],
    version_queries: &[Term],
) -> Row {
    let a = measure_queries(program, queries);
    let b = measure_queries(reordered, version_queries);
    Row {
        label: label.to_string(),
        original: a.calls(),
        reordered: b.calls(),
        best: None,
        equivalent: set_equivalent(&a, &b),
    }
}

/// Table IV — several small programs.
pub fn table4_rows(depth: Depth) -> Section {
    let mut rows = Vec::new();

    let p58 = p58_program();
    let p58_re = reorder_default(&p58);
    let qs = mode_queries(&QuerySpec {
        name: "p58".into(),
        mode: Mode::parse("++").unwrap(),
        universe: p58_universe(),
    });
    let v = version_of(&p58_re, PredId::new("p58", 2), "++");
    rows.push(compare_versions(
        "p58(+,+)",
        &p58,
        &p58_re.program,
        &qs,
        &retarget(&qs, &v),
    ));

    let meal = meal_program();
    let meal_re = reorder_default(&meal);
    let qs = parse_queries(&["meal(A, M, D)"]);
    let v = version_of(&meal_re, PredId::new("meal", 3), "---");
    rows.push(compare_versions(
        "meal(-,-,-)",
        &meal,
        &meal_re.program,
        &qs,
        &retarget(&qs, &v),
    ));

    let team = team_program();
    let team_re = reorder_default(&team);
    let qs = parse_queries(&["team(L, M)"]);
    let v = version_of(&team_re, PredId::new("team", 2), "--");
    rows.push(compare_versions(
        "team(-,-)",
        &team,
        &team_re.program,
        &qs,
        &retarget(&qs, &v),
    ));

    if depth >= Depth::Default {
        let (apps, mains, _) = meal_universe();
        let mut partial = Vec::new();
        for a in &apps {
            for m in &mains {
                partial.push(
                    prolog_syntax::parse_term(&format!("meal({a}, {m}, D)"))
                        .unwrap()
                        .0,
                );
            }
        }
        let v = version_of(&meal_re, PredId::new("meal", 3), "++-");
        rows.push(compare_versions(
            "meal(+,+,-)",
            &meal,
            &meal_re.program,
            &partial,
            &retarget(&partial, &v),
        ));

        let qs = mode_queries(&QuerySpec {
            name: "team".into(),
            mode: Mode::parse("++").unwrap(),
            universe: team_universe(),
        });
        let v = version_of(&team_re, PredId::new("team", 2), "++");
        rows.push(compare_versions(
            "team(+,+)",
            &team,
            &team_re.program,
            &qs,
            &retarget(&qs, &v),
        ));

        let km = kmbench_program(&KmbenchConfig::default());
        let km_re = reorder_default(&km);
        let qs = parse_queries(&["run_all"]);
        rows.push(compare_versions(
            "kmbench",
            &km,
            &km_re.program,
            &qs,
            &qs.clone(),
        ));
    }

    Section {
        name: "table4",
        title: "Table IV — reordering several programs (predicate calls)",
        header: "program (mode)",
        rows,
    }
}

/// The design-choice ablation: each row reorders the family tree under
/// one configuration and runs the headline `(-,-)` queries. `original`
/// is the unreordered baseline in every row, so `ratio()` reads as the
/// configuration's speedup.
pub fn ablation_rows(depth: Depth) -> Section {
    let (program, people) = family_program(&FamilyConfig::default());
    let queries = parse_queries(&[
        "aunt(X, Y)",
        "cousins(X, Y)",
        "grandmother(X, Y)",
        "brother(X, Y)",
        "sister(X, Y)",
    ]);
    let baseline = measure_queries(&program, &queries);
    let mut rows = Vec::new();
    let mut push_measured = |label: &str, measured: Measurement| {
        rows.push(Row {
            label: label.to_string(),
            original: baseline.calls(),
            reordered: measured.calls(),
            best: None,
            equivalent: set_equivalent(&baseline, &measured),
        });
    };
    let mut push = |label: &str, result: &ReorderResult| {
        push_measured(label, measure_queries(&result.program, &queries));
    };

    push(
        "full system",
        &Reorderer::new(&program, ReorderConfig::default()).run(),
    );
    push(
        "goal reordering only",
        &Reorderer::new(
            &program,
            ReorderConfig {
                reorder_clauses: false,
                ..Default::default()
            },
        )
        .run(),
    );
    push(
        "clause reordering only",
        &Reorderer::new(
            &program,
            ReorderConfig {
                reorder_goals: false,
                ..Default::default()
            },
        )
        .run(),
    );
    push(
        "no mode specialisation",
        &Reorderer::new(
            &program,
            ReorderConfig {
                specialize_modes: false,
                ..Default::default()
            },
        )
        .run(),
    );

    if depth >= Depth::Default {
        push(
            "best-first search only",
            &Reorderer::new(
                &program,
                ReorderConfig {
                    exhaustive_threshold: 0,
                    ..Default::default()
                },
            )
            .run(),
        );
        push(
            "markov-chain cost model",
            &Reorderer::new(
                &program,
                ReorderConfig {
                    cost_model: reorder::CostModelKind::MarkovChain,
                    ..Default::default()
                },
            )
            .run(),
        );
    }

    if depth == Depth::Full {
        let universe: Vec<Term> = people.iter().map(|p| Term::atom(p)).collect();
        let preds: Vec<PredId> = program
            .predicates()
            .into_iter()
            .filter(|p| p.arity <= 2)
            .collect();
        let measured = reorder::calibrate(
            &program,
            &preds,
            &universe,
            &reorder::CalibrationConfig {
                max_queries_per_mode: 16,
                max_calls_per_query: 500_000,
            },
        );
        push(
            "empirically calibrated costs",
            &Reorderer::new(&program, ReorderConfig::default())
                .with_measured_costs(measured)
                .run(),
        );
        let (unfolded, _) = reorder::unfold_program(&program, &reorder::UnfoldConfig::default());
        push(
            "unfold + reorder",
            &Reorderer::new(&unfolded, ReorderConfig::default()).run(),
        );
        // Calls are counted at the call port, so indexing shows up in
        // unification counts only: the unreordered program with
        // first-argument indexing off must read 1.00 here.
        push_measured(
            "first-argument indexing off",
            measure_queries_with(
                &program,
                &queries,
                MachineConfig {
                    indexing: false,
                    ..Default::default()
                },
            ),
        );
    }

    Section {
        name: "ablation",
        title: "Ablation — family-tree (-,-) queries under each configuration (predicate calls)",
        header: "configuration",
        rows,
    }
}

/// `"-+"` → `"-,+"`, the row-label convention of the tables.
fn pretty_mode(mode_s: &str) -> String {
    mode_s
        .chars()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// The closed-loop recalibration headline: each row compares the
/// **calibrated** reordering (`calibrate_loop`, the CLI's
/// `--calibrate N`) against the unreordered program, on exactly the
/// modes that regressed below 1.0 under purely static planning. Runs at
/// every depth — Quick included — because CI's calibrate-smoke job
/// gates these rows with `bench-diff --min-ratio calibration:1.0`: a
/// calibrated mode slower than the original program is a bug, not a
/// tolerance question.
pub fn calibration_rows(_depth: Depth) -> Section {
    let opts = CalibrationOptions {
        rounds: 3,
        ..Default::default()
    };
    let mut rows = Vec::new();

    let (family, people) = family_program(&FamilyConfig::default());
    let family_cal = calibrate_loop(&family, &ReorderConfig::default(), &opts);
    for (pred, mode_s) in [
        ("brother", "--"),
        ("brother", "+-"),
        ("aunt", "+-"),
        ("aunt", "-+"),
        ("cousins", "-+"),
    ] {
        let mode = Mode::parse(mode_s).unwrap();
        let version = version_of(&family_cal.result, PredId::new(pred, 2), mode_s);
        let queries = mode_queries(&QuerySpec {
            name: pred.to_string(),
            mode: mode.clone(),
            universe: people.clone(),
        });
        let version_queries = mode_queries(&QuerySpec {
            name: version,
            mode,
            universe: people.clone(),
        });
        rows.push(compare_versions(
            &format!("{pred}({})", pretty_mode(mode_s)),
            &family,
            &family_cal.result.program,
            &queries,
            &version_queries,
        ));
    }

    let (corporate, _ids) = corporate_program(&CorporateConfig::default());
    let corporate_cal = calibrate_loop(&corporate, &ReorderConfig::default(), &opts);
    let queries = parse_queries(&["average_pay(D, A)"]);
    rows.push(crate::compare_row(
        "average_pay(-,-)",
        &corporate,
        &corporate_cal.result.program,
        &queries,
    ));

    Section {
        name: "calibration",
        title: "Closed-loop calibration — calibrated vs original program (predicate calls)",
        header: "predicate (mode)",
        rows,
    }
}

/// The bottom-up ablation: each fact-scaled workload is certified once
/// and evaluated to fixpoint under every body-ordering strategy. The
/// section row reads heuristic-vs-model: `original` is
/// bound-variables-first tuples joined, `reordered` is chain-cost, so
/// `ratio()` is the Markov-chain model's win over the classic Datalog
/// heuristic. Tuple counts are deterministic (seeded workloads, total
/// cost orders).
pub fn datalog_rows(depth: Depth) -> (Section, Vec<DatalogRun>) {
    use prolog_datalog::{certify, evaluate, OrderStrategy};

    let mut scales: Vec<ScaledWorkload> = vec![family_scaled(2_000), corporate_scaled(2_000)];
    if depth >= Depth::Default {
        scales.push(family_scaled(100_000));
        scales.push(corporate_scaled(100_000));
    }
    if depth == Depth::Full {
        scales.push(family_scaled(300_000));
        scales.push(corporate_scaled(500_000));
    }

    let mut rows = Vec::new();
    let mut runs = Vec::new();
    for workload in &scales {
        let cert = certify(&workload.program);
        // As-written is part of the ablation only at the small scale: its
        // family joins are quadratic (a 650x blowup at 2k facts already),
        // so at 10^5+ facts it would dominate the suite's wall time.
        let mut strategies = Vec::new();
        if workload.requested_facts <= 2_000 {
            strategies.push(OrderStrategy::AsWritten);
        }
        strategies.push(OrderStrategy::BoundFirst);
        strategies.push(OrderStrategy::ChainCost);
        let evals: Vec<_> = strategies
            .into_iter()
            .map(|strategy| evaluate(&cert, strategy))
            .collect();
        let equivalent = evals
            .windows(2)
            .all(|w| w[0].idb_fingerprint() == w[1].idb_fingerprint());
        let bound_first = &evals[evals.len() - 2];
        let chain = &evals[evals.len() - 1];
        let label = format!("{}/{}", workload.name, workload.requested_facts);
        rows.push(Row {
            label: label.clone(),
            original: bound_first.stats.tuples_joined,
            reordered: chain.stats.tuples_joined,
            best: None,
            equivalent,
        });
        runs.push(DatalogRun {
            label,
            facts: workload.fact_count as u64,
            facts_derived: chain.stats.facts_derived,
            strata: chain.stats.strata,
            delta_sizes: chain.stats.delta_sizes.clone(),
            strategies: evals
                .iter()
                .map(|e| DatalogStrategyStats {
                    strategy: e.strategy.label(),
                    tuples_joined: e.stats.tuples_joined,
                    rounds: e.stats.rounds,
                })
                .collect(),
            equivalent,
        });
    }
    (
        Section {
            name: "datalog",
            title: "Datalog — bound-first vs chain-cost join order (tuples joined)",
            header: "workload",
            rows,
        },
        runs,
    )
}

/// Load shape of the serving probe. Identical at every depth so the
/// `open-loop/64x4` row joins across quick/default/full trajectories.
const SERVING_CONNECTIONS: usize = 64;
const SERVING_ROUNDS: usize = 4;

/// Boots a store-backed `reordd`, drives it open-loop over the workload
/// corpus, drains it (flushing the persistent tier), restarts over the
/// same directory, and drives the identical load again — which must now
/// be answered warm, from the recovered store.
pub fn serving_probe() -> (Section, ServingProbe) {
    use reordd::loadgen::{open_loop, NodePlan, OpenLoopPlan};
    use reordd::{Client, Json, Request, Response, Server, ServerConfig, WireConfig};
    use std::collections::HashMap;

    let store_dir =
        std::env::temp_dir().join(format!("reordd-serving-probe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);

    let programs: Vec<String> = prolog_workloads::corpus()
        .into_iter()
        .map(|p| p.text)
        .collect();
    let reorder_config = WireConfig::default().to_reorder_config(1);
    let expected: HashMap<String, String> = programs
        .iter()
        .map(|text| {
            let outcome =
                reorder::reorder_source(text, &reorder_config).expect("corpus programs parse");
            (text.clone(), outcome.text)
        })
        .collect();

    let boot = || {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 256,
            store_dir: Some(store_dir.clone()),
            ..Default::default()
        })
        .expect("bind serving-probe reordd");
        let addr = server.local_addr().to_string();
        (addr, std::thread::spawn(move || server.run()))
    };
    let drive = |addr: &str| {
        open_loop(&OpenLoopPlan {
            nodes: vec![NodePlan {
                addr: addr.to_string(),
                programs: programs.clone(),
            }],
            connections: SERVING_CONNECTIONS,
            rounds: SERVING_ROUNDS,
            budget_ms: None,
            expected: expected.clone(),
            deadline: Duration::from_secs(120),
        })
        .expect("open-loop driver")
    };
    let disk_hits = |addr: &str| -> u64 {
        let mut client =
            Client::connect(addr, Duration::from_secs(10)).expect("connect to serving probe");
        match client.call(&Request::Stats) {
            Ok(Response::Stats(body)) => body
                .get("cache")
                .and_then(|c| c.get("disk_hits"))
                .and_then(Json::as_u64)
                .unwrap_or(0),
            other => panic!("expected stats, got {other:?}"),
        }
    };
    let shut = |addr: &str, handle: std::thread::JoinHandle<std::io::Result<()>>| {
        let mut client =
            Client::connect(addr, Duration::from_secs(10)).expect("connect to serving probe");
        match client.call(&Request::Shutdown) {
            Ok(Response::ShuttingDown) => {}
            other => panic!("expected shutdown ack, got {other:?}"),
        }
        handle.join().expect("server thread").expect("server run");
    };

    // Cold pass: every corpus program computed exactly once (single
    // flight), the rest served by the memory tier; the drain flushes
    // the store.
    let (addr, handle) = boot();
    let cold = drive(&addr);
    shut(&addr, handle);

    // Warm pass: the same load against the recovered store.
    let (addr, handle) = boot();
    let warm = drive(&addr);
    let warm_disk_hits = disk_hits(&addr);
    shut(&addr, handle);
    let _ = std::fs::remove_dir_all(&store_dir);

    let warm_cached_pct = (warm.cached * 100).checked_div(warm.ok).unwrap_or(0);
    let probe = ServingProbe {
        connections: SERVING_CONNECTIONS as u64,
        rounds: SERVING_ROUNDS as u64,
        attempted: cold.attempted,
        ok: cold.ok,
        cached: cold.cached,
        dropped: cold.dropped,
        retries: cold.retries,
        warm_cached_pct,
        warm_disk_hits,
    };
    let section = Section {
        name: "serving",
        title: "Serving — open loop against reordd, then a warm restart (requests)",
        header: "run",
        rows: vec![
            // ok/attempted: exactly 1.0 when nothing dropped or errored,
            // so `--min-ratio serving:1.0` pins "zero dropped requests".
            Row {
                label: format!("open-loop/{SERVING_CONNECTIONS}x{SERVING_ROUNDS}"),
                original: cold.ok,
                reordered: cold.attempted,
                best: None,
                equivalent: cold.clean() && warm.clean(),
            },
            // warm%/90: at or above 1.0 iff the restart actually served
            // >=90% of the repeated workload from the persistent tier.
            Row {
                label: "warm-start".to_string(),
                original: warm_cached_pct,
                reordered: 90,
                best: None,
                equivalent: warm.clean() && warm_disk_hits > 0,
            },
        ],
    };
    (section, probe)
}

/// Runs the whole suite at `depth`. The serving probe binds sockets and
/// writes a temp store, so `serve = false` (`--no-reordd`) skips it in
/// network-less environments.
pub fn run_suite(depth: Depth, serve: bool) -> Suite {
    let (datalog_section, datalog) = datalog_rows(depth);
    let mut sections = vec![
        table2_rows(depth),
        table3_rows(depth),
        table4_rows(depth),
        ablation_rows(depth),
        calibration_rows(depth),
        datalog_section,
    ];
    let serving = serve.then(|| {
        let (section, probe) = serving_probe();
        sections.push(section);
        probe
    });
    Suite {
        depth,
        sections,
        datalog,
        serving,
    }
}

/// Serialises the suite as the trajectory JSON. Key order is part of the
/// pinned schema (see `tests/bench_schema_golden.rs`).
pub fn encode_trajectory(suite: &Suite, git_rev: &str) -> String {
    let mut out = String::with_capacity(4096);
    let _ = write!(
        out,
        "{{\"schema_version\":{BENCH_SCHEMA_VERSION},\"kind\":\"{BENCH_KIND}\",\"depth\":\"{}\",\"git_rev\":",
        suite.depth.as_str()
    );
    write_str(&mut out, git_rev);
    out.push_str(",\"sections\":[");
    for (i, section) in suite.sections.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"name\":\"{}\",\"rows\":[", section.name);
        for (j, row) in section.rows.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("{\"label\":");
            write_str(&mut out, &row.label);
            let _ = write!(
                out,
                ",\"original\":{},\"reordered\":{}",
                row.original, row.reordered
            );
            match row.best {
                Some(b) => {
                    let _ = write!(out, ",\"best\":{b}");
                }
                None => out.push_str(",\"best\":null"),
            }
            let _ = write!(
                out,
                ",\"equivalent\":{},\"ratio\":{:.4}}}",
                row.equivalent,
                row.ratio()
            );
        }
        out.push_str("]}");
    }
    out.push_str("],\"datalog\":[");
    for (i, run) in suite.datalog.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"label\":");
        write_str(&mut out, &run.label);
        let _ = write!(
            out,
            ",\"facts\":{},\"facts_derived\":{},\"strata\":{},\"delta_sizes\":[",
            run.facts, run.facts_derived, run.strata
        );
        for (j, d) in run.delta_sizes.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{d}");
        }
        out.push_str("],\"strategies\":[");
        for (j, s) in run.strategies.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"strategy\":\"{}\",\"tuples_joined\":{},\"rounds\":{}}}",
                s.strategy, s.tuples_joined, s.rounds
            );
        }
        let _ = write!(out, "],\"equivalent\":{}}}", run.equivalent);
    }
    out.push(']');
    if let Some(serving) = &suite.serving {
        let _ = write!(
            out,
            ",\"serving\":{{\"connections\":{},\"rounds\":{},\"attempted\":{},\"ok\":{},\
             \"cached\":{},\"dropped\":{},\"retries\":{},\"warm_cached_pct\":{},\
             \"warm_disk_hits\":{}}}",
            serving.connections,
            serving.rounds,
            serving.attempted,
            serving.ok,
            serving.cached,
            serving.dropped,
            serving.retries,
            serving.warm_cached_pct,
            serving.warm_disk_hits
        );
    }
    out.push('}');
    out
}

/// Best-effort short git revision, `"unknown"` outside a checkout.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depths_are_ordered() {
        assert!(Depth::Quick < Depth::Default);
        assert!(Depth::Default < Depth::Full);
    }

    #[test]
    fn trajectory_encoding_is_valid_json_with_pinned_top_level() {
        let suite = Suite {
            depth: Depth::Quick,
            sections: vec![Section {
                name: "table2",
                title: "Table II",
                header: "predicate (mode)",
                rows: vec![Row {
                    label: "aunt(-,-)".into(),
                    original: 100,
                    reordered: 50,
                    best: None,
                    equivalent: true,
                }],
            }],
            datalog: vec![DatalogRun {
                label: "family/2000".into(),
                facts: 2000,
                facts_derived: 5000,
                strata: 3,
                delta_sizes: vec![4000, 900, 100],
                strategies: vec![DatalogStrategyStats {
                    strategy: "chain-cost",
                    tuples_joined: 123,
                    rounds: 4,
                }],
                equivalent: true,
            }],
            serving: Some(ServingProbe {
                connections: 64,
                rounds: 4,
                attempted: 256,
                ok: 256,
                cached: 245,
                dropped: 0,
                retries: 0,
                warm_cached_pct: 100,
                warm_disk_hits: 11,
            }),
        };
        let json = encode_trajectory(&suite, "abc1234");
        let parsed = reordd::Json::parse(&json).expect("trajectory is valid JSON");
        assert_eq!(
            parsed.get("schema_version").and_then(reordd::Json::as_u64),
            Some(BENCH_SCHEMA_VERSION)
        );
        match parsed.get("sections") {
            Some(reordd::Json::Arr(sections)) => assert_eq!(sections.len(), 1),
            other => panic!("sections must be an array, got {other:?}"),
        }
        match parsed.get("datalog") {
            Some(reordd::Json::Arr(runs)) => {
                assert_eq!(runs.len(), 1);
                assert_eq!(
                    runs[0].get("facts").and_then(reordd::Json::as_u64),
                    Some(2000)
                );
            }
            other => panic!("datalog must be an array, got {other:?}"),
        }
        assert_eq!(
            parsed
                .get("serving")
                .and_then(|s| s.get("warm_cached_pct"))
                .and_then(reordd::Json::as_u64),
            Some(100)
        );
        // Counts only: wall time is perfbench's, never the trajectory's.
        assert!(!json.contains("_us\""), "no wall-clock key: {json}");
    }
}
