//! The reordering system as a command-line tool — the paper's Fig. 3
//! pipeline: program in, reordered program out, with the decision report
//! on stderr.
//!
//! ```text
//! usage: reorder-prolog INPUT.pl [-o OUTPUT.pl] [--report] [--timings]
//!                       [--timings-json] [--jobs N] [--no-specialize]
//!                       [--no-goals] [--no-clauses] [--unfold]
//!                       [--calibrate N] [--calibrate-report]
//!                       [--markov-model] [--trace-out PATH] [--trace-summary]
//!                       [--backend sld|datalog] [--datalog-report]
//!                       [--datalog-order STRATEGY]
//! ```
//!
//! `INPUT.pl` may be `-` to read the program from stdin. Parse errors
//! exit nonzero with a `file:line:col: message` diagnostic.
//!
//! `--backend datalog` routes the program through the bottom-up
//! semi-naive backend instead of the SLD pipeline: the Datalog-safe
//! fragment is certified, evaluated bottom-up, and the join orders the
//! evaluator chose are written back onto the pure-conjunction clause
//! bodies of the emitted program. `--datalog-report` prints the
//! safety/stratification certificate and evaluation statistics on
//! stderr (and implies `--backend datalog`).

use prolog_datalog::{certify, evaluate, OrderStrategy};
use prolog_syntax::ast::{Body, SourceProgram};
use reorder::{CalibrationOptions, ReorderConfig, UnfoldConfig};
use std::io::Read;

/// Which evaluation pipeline `reorder-prolog` runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Backend {
    /// The paper's top-down pipeline (the default).
    Sld,
    /// The bottom-up semi-naive Datalog backend.
    Datalog,
}

/// Writes the evaluator's chosen join orders back onto the source: each
/// pure-conjunction rule body is re-emitted in its round-0 join order
/// (delta-rewritten recursive occurrences keep their per-round orders
/// internally; the round-0 order is the representative one). Clauses the
/// certifier rejected, facts, and disjunction-expanded clauses are
/// emitted unchanged.
fn datalog_reordered(source: &SourceProgram, eval: &prolog_datalog::Evaluation) -> SourceProgram {
    let mut out = source.clone();
    for (ri, rule) in eval.program().rules.iter().enumerate() {
        let Some(map) = &rule.conjunct_map else {
            continue;
        };
        let order = &eval.rule_orders[ri];
        if order.len() != map.len() {
            continue;
        }
        let clause = &mut out.clauses[rule.clause_index];
        // Mirror the certifier's goal list: a pure conjunction with any
        // `true` conjuncts dropped (they compile to nothing).
        let goals: Vec<Body> = clause
            .body
            .conjuncts()
            .into_iter()
            .filter(|g| !matches!(g, Body::True))
            .cloned()
            .collect();
        if map.iter().any(|&gi| gi >= goals.len()) {
            continue;
        }
        let mut chosen: Vec<usize> = order.iter().map(|&li| map[li]).collect();
        for gi in 0..goals.len() {
            if !chosen.contains(&gi) {
                chosen.push(gi);
            }
        }
        let reordered: Vec<Body> = chosen.into_iter().map(|gi| goals[gi].clone()).collect();
        clause.body = Body::conjoin(&reordered);
    }
    out
}

/// The `--backend datalog` path: certify, evaluate bottom-up, emit the
/// program with evaluator-chosen body orders. Returns the emitted text.
fn run_datalog(src: &str, name: &str, strategy: OrderStrategy, report: bool) -> String {
    let program = match prolog_syntax::parse_program(src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {name}:{}:{}: {}", e.pos.line, e.pos.col, e.message);
            std::process::exit(1);
        }
    };
    let cert = certify(&program);
    let eval = evaluate(&cert, strategy);
    if report {
        eprint!("{}", prolog_datalog::render_certification(&cert));
        eprint!("{}", prolog_datalog::render_evaluation(&eval));
    }
    prolog_syntax::pretty::program_to_string(&datalog_reordered(&program, &eval))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut input: Option<String> = None;
    let mut output: Option<String> = None;
    let mut report = false;
    let mut timings = false;
    let mut timings_json = false;
    let mut unfold = false;
    let mut calibrate_rounds: Option<usize> = None;
    let mut calibrate_report = false;
    let mut trace_out: Option<String> = None;
    let mut trace_summary = false;
    let mut backend = Backend::Sld;
    let mut datalog_report = false;
    let mut datalog_order = OrderStrategy::ChainCost;
    let mut config = ReorderConfig::default();

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-o" => {
                i += 1;
                output = args.get(i).cloned();
                if output.is_none() {
                    eprintln!("error: -o needs a path");
                    std::process::exit(2);
                }
            }
            "--jobs" | "-j" => {
                i += 1;
                config.jobs = match args.get(i).map(|s| s.parse::<usize>()) {
                    Some(Ok(n)) => n,
                    _ => {
                        eprintln!("error: --jobs needs a number (0 = auto)");
                        std::process::exit(2);
                    }
                };
            }
            "--report" => report = true,
            "--timings" => timings = true,
            "--timings-json" => timings_json = true,
            "--no-specialize" => config.specialize_modes = false,
            "--no-goals" => config.reorder_goals = false,
            "--no-clauses" => config.reorder_clauses = false,
            "--unfold" => unfold = true,
            "--calibrate" => {
                i += 1;
                calibrate_rounds = match args.get(i).map(|s| s.parse::<usize>()) {
                    Some(Ok(n)) if n >= 1 => Some(n),
                    _ => {
                        eprintln!("error: --calibrate needs a round count (>= 1)");
                        std::process::exit(2);
                    }
                };
            }
            "--calibrate-report" => calibrate_report = true,
            "--markov-model" => config.cost_model = reorder::CostModelKind::MarkovChain,
            "--trace-out" => {
                i += 1;
                trace_out = args.get(i).cloned();
                if trace_out.is_none() {
                    eprintln!("error: --trace-out needs a path");
                    std::process::exit(2);
                }
            }
            "--trace-summary" => trace_summary = true,
            "--backend" => {
                i += 1;
                backend = match args.get(i).map(String::as_str) {
                    Some("sld") => Backend::Sld,
                    Some("datalog") => Backend::Datalog,
                    _ => {
                        eprintln!("error: --backend needs `sld` or `datalog`");
                        std::process::exit(2);
                    }
                };
            }
            "--datalog-report" => {
                datalog_report = true;
                backend = Backend::Datalog;
            }
            "--datalog-order" => {
                i += 1;
                datalog_order = match args.get(i).and_then(|s| OrderStrategy::parse(s)) {
                    Some(strategy) => strategy,
                    None => {
                        eprintln!(
                            "error: --datalog-order needs as-written | bound-first | chain-cost"
                        );
                        std::process::exit(2);
                    }
                };
                backend = Backend::Datalog;
            }
            "-h" | "--help" => {
                eprintln!(
                    "usage: reorder-prolog INPUT.pl [-o OUTPUT.pl] [--report] \
                     [--timings] [--timings-json] [--jobs N] [--no-specialize] \
                     [--no-goals] [--no-clauses] [--unfold] [--markov-model]\n\
                     \n\
                     INPUT.pl may be - to read the program from stdin\n\
                     --jobs N        worker threads for the reordering stage \
                     (0 = all cores, 1 = serial; output is identical either way)\n\
                     --calibrate N   run up to N measure -> re-plan rounds: \
                     predicate costs are measured on the real engine and fed \
                     back as estimates until the plan reaches a fixed point\n\
                     --calibrate-report  print the calibration round log and \
                     the static-vs-measured divergence table on stderr \
                     (implies --calibrate 2 unless given)\n\
                     --timings       print per-stage wall-clock and cache counters \
                     on stderr\n\
                     --timings-json  print the same stats as one JSON object \
                     on stderr\n\
                     --trace-out PATH  enable tracing; write a Chrome trace-event \
                     JSON of the run to PATH (load in chrome://tracing)\n\
                     --trace-summary   enable tracing; print a per-span profile \
                     table on stderr\n\
                     --backend B     sld (default) or datalog: evaluate the \
                     Datalog-safe fragment bottom-up (semi-naive) and emit the \
                     program with the evaluator's chosen join orders\n\
                     --datalog-report  print the safety/stratification \
                     certificate and evaluation statistics on stderr \
                     (implies --backend datalog)\n\
                     --datalog-order S  join-order strategy: as-written | \
                     bound-first | chain-cost (default; implies --backend datalog)"
                );
                return;
            }
            other if input.is_none() => input = Some(other.to_string()),
            other => {
                eprintln!("error: unexpected argument {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let Some(input) = input else {
        eprintln!("error: no input file (try --help)");
        std::process::exit(2);
    };
    let (name, src) = if input == "-" {
        let mut src = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut src) {
            eprintln!("error: cannot read stdin: {e}");
            std::process::exit(1);
        }
        ("<stdin>".to_string(), src)
    } else {
        match std::fs::read_to_string(&input) {
            Ok(s) => (input.clone(), s),
            Err(e) => {
                eprintln!("error: cannot read {input}: {e}");
                std::process::exit(1);
            }
        }
    };

    if trace_out.is_some() || trace_summary {
        prolog_trace::enable();
    }
    if backend == Backend::Datalog {
        if calibrate_rounds.is_some() || unfold {
            eprintln!("error: --backend datalog cannot be combined with --calibrate or --unfold");
            std::process::exit(2);
        }
        let text = run_datalog(&src, &name, datalog_order, datalog_report);
        if trace_out.is_some() || trace_summary {
            let trace = prolog_trace::drain();
            if let Some(path) = &trace_out {
                if let Err(e) = std::fs::write(path, trace.to_chrome_json()) {
                    eprintln!("error: cannot write trace to {path}: {e}");
                    std::process::exit(1);
                }
                eprintln!("% trace: {} events -> {path}", trace.records.len());
            }
            if trace_summary {
                eprint!("{}", trace.summary());
            }
        }
        match output {
            Some(path) => {
                if let Err(e) = std::fs::write(&path, &text) {
                    eprintln!("error: cannot write {path}: {e}");
                    std::process::exit(1);
                }
                eprintln!("% wrote {path}");
            }
            None => print!("{text}"),
        }
        return;
    }
    if calibrate_report && calibrate_rounds.is_none() {
        calibrate_rounds = Some(CalibrationOptions::default().rounds);
    }
    if calibrate_rounds.is_some() && unfold {
        eprintln!("error: --calibrate cannot be combined with --unfold");
        std::process::exit(2);
    }
    let unfold_config = unfold.then(UnfoldConfig::default);
    let outcome = match calibrate_rounds {
        Some(rounds) => {
            let opts = CalibrationOptions {
                rounds,
                ..Default::default()
            };
            match reorder::calibrate_source(&src, &config, &opts) {
                Ok((outcome, calibration)) => {
                    if calibrate_report {
                        eprint!("{}", calibration.render());
                    }
                    outcome
                }
                Err(e) => {
                    eprintln!("error: {name}:{}:{}: {}", e.pos.line, e.pos.col, e.message);
                    std::process::exit(1);
                }
            }
        }
        None => match reorder::reorder_source_with(&src, &config, unfold_config.as_ref()) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("error: {name}:{}:{}: {}", e.pos.line, e.pos.col, e.message);
                std::process::exit(1);
            }
        },
    };
    if unfold {
        eprintln!("% unfolded {} goals", outcome.unfolded_goals);
    }
    if report {
        eprintln!("{}", outcome.report);
    }
    if timings {
        eprint!("{}", outcome.report.stats.render());
    }
    if timings_json {
        eprintln!("{}", outcome.report.stats.to_json());
    }
    for warning in &outcome.report.warnings {
        eprintln!("warning: {warning}");
    }
    if trace_out.is_some() || trace_summary {
        let trace = prolog_trace::drain();
        if let Some(path) = &trace_out {
            if let Err(e) = std::fs::write(path, trace.to_chrome_json()) {
                eprintln!("error: cannot write trace to {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("% trace: {} events -> {path}", trace.records.len());
        }
        if trace_summary {
            eprint!("{}", trace.summary());
        }
    }

    match output {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &outcome.text) {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("% wrote {path}");
        }
        None => print!("{}", outcome.text),
    }
}
