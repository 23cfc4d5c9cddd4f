//! Differential-testing driver.
//!
//! ```text
//! cargo run -p prolog-difftest -- --cases 200 --seed 42
//! ```
//!
//! Generates `--cases` programs from a seeded stream, runs each through
//! the reordering-equivalence oracle, and on failure shrinks the case to
//! a minimal reproducer, prints it with its seed, and persists it under
//! `--corpus-dir` (default `tests/corpus/`). Exit status is nonzero on
//! any discrepancy — inverted under `--expect-discrepancies`, which is
//! how CI checks that an injected bug (`--inject-bug`) is caught.

use prolog_difftest::{
    generate_case, run_case, run_cross_backend, shrink_case, BackendConfig, CaseOutcome, GenConfig,
    InjectedBug, OracleConfig,
};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    cases: u64,
    seed: u64,
    /// Replay exactly one generator seed instead of a seeded stream.
    case_seed: Option<u64>,
    corpus_dir: PathBuf,
    inject: InjectedBug,
    expect_discrepancies: bool,
    shrink_budget: usize,
    quiet: bool,
    /// Compare the SLD engine against the bottom-up Datalog backend
    /// instead of running the reordering-equivalence oracle.
    cross_backend: bool,
    gen_config: GenConfig,
    oracle_config: OracleConfig,
    backend_config: BackendConfig,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            cases: 200,
            seed: 42,
            case_seed: None,
            corpus_dir: PathBuf::from("tests/corpus"),
            inject: InjectedBug::None,
            expect_discrepancies: false,
            shrink_budget: 600,
            quiet: false,
            cross_backend: false,
            gen_config: GenConfig::default(),
            oracle_config: OracleConfig::default(),
            backend_config: BackendConfig::default(),
        }
    }
}

const USAGE: &str = "\
usage: difftest [options]

  --cases N              cases to generate and check (default 200)
  --seed N               master seed for the case stream (default 42)
  --case-seed N          replay a single generator seed (as printed on failure)
  --corpus-dir DIR       where shrunk reproducers are saved (default tests/corpus)
  --max-depth N          engine activation-depth guard
  --max-calls N          call budget for the original run
  --max-solutions N      per-query solution cap
  --budget-factor F      reordered run may cost F x original calls (+ slack)
  --inject-bug KIND      corrupt the reordered program: swap-goals |
                         drop-clause | swap-clauses (disables corpus writes)
  --expect-discrepancies invert the exit status (harness self-check)
  --cross-backend        compare the SLD engine against the bottom-up
                         Datalog backend on each case's safe fragment
  --no-dedup             cross-backend: compare the raw SLD solution
                         multiset (bottom-up is set-semantics, so
                         duplicate SLD derivations become mismatches)
  --no-jobs-check        skip the jobs 1/2/8 emission-determinism check
  --shrink-budget N      max oracle runs spent shrinking one failure (default 600)
  --quiet                only print failures and the final summary
";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn number<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T, String> {
        raw.parse()
            .map_err(|_| format!("{flag}: bad value `{raw}`"))
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cases" => opts.cases = number(&value(&mut args, "--cases")?, "--cases")?,
            "--seed" => opts.seed = number(&value(&mut args, "--seed")?, "--seed")?,
            "--case-seed" => {
                opts.case_seed = Some(number(&value(&mut args, "--case-seed")?, "--case-seed")?)
            }
            "--corpus-dir" => opts.corpus_dir = PathBuf::from(value(&mut args, "--corpus-dir")?),
            "--max-depth" => {
                opts.oracle_config.max_depth =
                    number(&value(&mut args, "--max-depth")?, "--max-depth")?
            }
            "--max-calls" => {
                opts.oracle_config.max_calls =
                    number(&value(&mut args, "--max-calls")?, "--max-calls")?
            }
            "--max-solutions" => {
                opts.oracle_config.max_solutions =
                    number(&value(&mut args, "--max-solutions")?, "--max-solutions")?
            }
            "--budget-factor" => {
                opts.oracle_config.budget_factor =
                    number(&value(&mut args, "--budget-factor")?, "--budget-factor")?
            }
            "--inject-bug" => {
                let raw = value(&mut args, "--inject-bug")?;
                opts.inject = InjectedBug::parse(&raw)
                    .ok_or_else(|| format!("--inject-bug: unknown kind `{raw}`"))?;
            }
            "--expect-discrepancies" => opts.expect_discrepancies = true,
            "--cross-backend" => opts.cross_backend = true,
            "--no-dedup" => opts.backend_config.dedup = false,
            "--no-jobs-check" => opts.oracle_config.check_jobs = false,
            "--shrink-budget" => {
                opts.shrink_budget =
                    number(&value(&mut args, "--shrink-budget")?, "--shrink-budget")?
            }
            "--quiet" => opts.quiet = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    opts.oracle_config.inject = opts.inject;
    opts.backend_config.max_calls = opts.oracle_config.max_calls;
    opts.backend_config.max_depth = opts.oracle_config.max_depth;
    opts.backend_config.max_solutions = opts.oracle_config.max_solutions;
    Ok(opts)
}

/// SplitMix64: spreads the master seed into a stream of case seeds so
/// `--seed 42` and `--seed 43` explore disjoint programs.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Coverage counters over a run: how many cases exercised each construct.
#[derive(Default)]
struct Coverage {
    counts: [u64; 7],
}

impl Coverage {
    fn record(&mut self, outcome: &CaseOutcome) {
        for (slot, (_, present)) in self.counts.iter_mut().zip(outcome.features.items()) {
            *slot += u64::from(present);
        }
    }

    fn render(&self, cases: u64) -> String {
        prolog_difftest::Features::default()
            .items()
            .iter()
            .zip(self.counts.iter())
            .map(|((label, _), count)| format!("  {label:<13} {count:>5} / {cases}"))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// `--cross-backend`: run every case's safe fragment on both backends.
fn run_backend_mode(opts: &Options, seeds: &[u64]) -> ExitCode {
    let mut discrepancies = 0u64;
    let mut compared = 0usize;
    let mut skipped = 0usize;
    let mut certified = 0usize;
    let mut rejected = 0usize;
    for (i, &case_seed) in seeds.iter().enumerate() {
        let case = generate_case(case_seed, &opts.gen_config);
        let outcome = run_cross_backend(&case, &opts.backend_config);
        compared += outcome.compared;
        skipped += outcome.skipped;
        certified += outcome.certified_preds;
        rejected += outcome.rejected_preds;
        if let Some(discrepancy) = outcome.discrepancy {
            discrepancies += 1;
            println!("\ncase {i} FAILED (generator seed {case_seed}):");
            println!("  {discrepancy}");
            println!("--- program ---");
            print!(
                "{}",
                prolog_syntax::pretty::program_to_string(&case.program)
            );
            println!("--- replay with: difftest --cross-backend --case-seed {case_seed} ---");
        }
    }
    println!(
        "\ndifftest --cross-backend: {} case(s), {} quer{} compared, {} skipped, \
         {} predicate(s) certified, {} rejected, {} discrepanc{}",
        seeds.len(),
        compared,
        if compared == 1 { "y" } else { "ies" },
        skipped,
        certified,
        rejected,
        discrepancies,
        if discrepancies == 1 { "y" } else { "ies" }
    );
    let failed = if opts.expect_discrepancies {
        if discrepancies == 0 {
            eprintln!("difftest: expected discrepancies, found none (harness self-check FAILED)");
        }
        discrepancies == 0
    } else {
        discrepancies > 0
    };
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("difftest: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let seeds: Vec<u64> = match opts.case_seed {
        Some(seed) => vec![seed],
        None => {
            let mut state = opts.seed;
            (0..opts.cases).map(|_| splitmix64(&mut state)).collect()
        }
    };

    if !opts.quiet {
        println!(
            "difftest: {} case(s), master seed {}, inject={:?}",
            seeds.len(),
            opts.seed,
            opts.inject
        );
    }

    if opts.cross_backend {
        return run_backend_mode(&opts, &seeds);
    }

    let mut coverage = Coverage::default();
    let mut discrepancies = 0u64;
    let mut compared = 0usize;
    let mut skipped = 0usize;
    for (i, &case_seed) in seeds.iter().enumerate() {
        let case = generate_case(case_seed, &opts.gen_config);
        let outcome = run_case(&case, &opts.oracle_config);
        coverage.record(&outcome);
        compared += outcome.compared;
        skipped += outcome.skipped;
        let Some(discrepancy) = outcome.discrepancy else {
            continue;
        };
        discrepancies += 1;
        println!("\ncase {i} FAILED (generator seed {case_seed}):");
        println!("  {discrepancy}");

        let (minimal, stats) = shrink_case(&case, &opts.oracle_config, opts.shrink_budget);
        let final_discrepancy = run_case(&minimal, &opts.oracle_config)
            .discrepancy
            .map(|d| d.to_string())
            .unwrap_or_else(|| discrepancy.to_string());
        println!(
            "  shrunk in {} oracle run(s): -{} queries, -{} clauses, -{} goals{}",
            stats.oracle_runs,
            stats.queries_removed,
            stats.clauses_removed,
            stats.goals_removed,
            if stats.budget_exhausted {
                " (budget exhausted)"
            } else {
                ""
            }
        );
        let rendered = prolog_difftest::corpus::render_case(&minimal, &final_discrepancy);
        println!("--- minimal reproducer ---");
        print!("{rendered}");
        println!("--- replay with: difftest --case-seed {case_seed} ---");

        // An injected bug is a harness self-check, not a real regression;
        // don't pollute the corpus with it.
        if opts.inject == InjectedBug::None {
            match prolog_difftest::save_case(&opts.corpus_dir, &minimal, &final_discrepancy) {
                Ok(path) => println!("saved reproducer to {}", path.display()),
                Err(e) => eprintln!("difftest: could not save reproducer: {e}"),
            }
        }
    }

    println!(
        "\ndifftest: {} case(s), {} quer{} compared, {} skipped, {} discrepanc{}",
        seeds.len(),
        compared,
        if compared == 1 { "y" } else { "ies" },
        skipped,
        discrepancies,
        if discrepancies == 1 { "y" } else { "ies" }
    );
    println!("construct coverage (cases exercising each):");
    println!("{}", coverage.render(seeds.len() as u64));

    let failed = if opts.expect_discrepancies {
        if discrepancies == 0 {
            eprintln!("difftest: expected discrepancies, found none (harness self-check FAILED)");
        }
        discrepancies == 0
    } else {
        discrepancies > 0
    };
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
