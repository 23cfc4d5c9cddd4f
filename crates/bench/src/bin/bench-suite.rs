//! `bench-suite` — one run of the paper's whole evaluation, printed in
//! the paper's layout and serialised as a regression-gated trajectory
//! file.
//!
//! ```text
//! usage: bench-suite [--quick | --full] [--out PATH] [--no-reordd]
//! ```
//!
//! Reproduces Tables II/III/IV, the ablation, and the closed-loop
//! calibration headline (predicate-call counts), evaluates the
//! fact-scaled workloads bottom-up under each body-ordering strategy,
//! checks that the compiled engine calls exactly what the interpreter
//! calls (the `engine` section), drives a store-backed `reordd` open-loop
//! and through a warm restart (the `serving` section), prints each
//! section under its title, and writes everything as schema-versioned
//! JSON (default `BENCH_PR12.json`). The file holds exact counts only;
//! wall time is measured by `perfbench`. Compare two trajectories with
//! `bench-diff`; CI runs `--quick` and diffs against the committed
//! baseline. Depths only add rows — the counts of a row are identical at
//! every depth, so a quick run diffs cleanly against a full baseline.

use bench_harness::print_table;
use bench_harness::suite::{encode_trajectory, git_rev, run_suite, Depth};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut depth = Depth::Default;
    let mut out = "BENCH_PR12.json".to_string();
    let mut serve = true;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => depth = Depth::Quick,
            "--full" => depth = Depth::Full,
            "--no-reordd" => serve = false,
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(path) => out = path.clone(),
                    None => {
                        eprintln!("error: --out needs a path");
                        std::process::exit(2);
                    }
                }
            }
            "-h" | "--help" => {
                eprintln!(
                    "usage: bench-suite [--quick | --full] [--out PATH] [--no-reordd]\n\
                     \n\
                     --quick      CI smoke subset (cheap modes only)\n\
                     --full       the paper's complete protocol (includes the\n\
                     \x20            3025-query (+,+) sweeps and measured-best search)\n\
                     --out PATH   trajectory JSON path (default BENCH_PR12.json)\n\
                     --no-reordd  skip the serving section (boots reordd on loopback)"
                );
                return;
            }
            other => {
                eprintln!("error: unexpected argument {other} (try --help)");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    eprintln!("bench-suite: depth={} -> {out}", depth.as_str());
    let suite = run_suite(depth, serve);

    for section in &suite.sections {
        print_table(section.title, section.header, &section.rows);
    }
    if !suite.datalog.is_empty() {
        println!("\n=== Datalog — bottom-up evaluation per strategy ===");
        println!(
            "{:<20} {:>10} {:>10} {:>7}  per-strategy tuples joined",
            "workload", "facts", "derived", "strata"
        );
        for run in &suite.datalog {
            let per_strategy = run
                .strategies
                .iter()
                .map(|s| format!("{}={}", s.strategy, s.tuples_joined))
                .collect::<Vec<_>>()
                .join(", ");
            println!(
                "{:<20} {:>10} {:>10} {:>7}  {}",
                run.label, run.facts, run.facts_derived, run.strata, per_strategy
            );
        }
    }
    if let Some(serving) = &suite.serving {
        println!("\n=== Serving — open loop and warm restart ===");
        println!(
            "{}x{}: {}/{} ok ({} cached, {} dropped, {} retries)",
            serving.connections,
            serving.rounds,
            serving.ok,
            serving.attempted,
            serving.cached,
            serving.dropped,
            serving.retries
        );
        println!(
            "warm restart: {}% served from cache ({} disk hits)",
            serving.warm_cached_pct, serving.warm_disk_hits
        );
    }

    // Hard gate: a trajectory with broken equivalence must never become
    // a baseline.
    assert!(
        suite
            .sections
            .iter()
            .flat_map(|s| &s.rows)
            .all(|r| r.equivalent),
        "set-equivalence must hold for every row"
    );

    let json = encode_trajectory(&suite, &git_rev());
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
    }
    eprintln!("bench-suite: wrote {out} ({} bytes)", json.len());
}
