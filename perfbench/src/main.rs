//! `perfbench`: the repository's benchmark. It times the three boundaries
//! of the system — source text to reordered text
//! (`reorder::reorder_source`), query to solutions (the engine, top-down,
//! and the Datalog backend, bottom-up), and request frame to reply frame
//! (`reordd`) — with the shipped configurations. Each workload gives most
//! of its measuring time to the boundary it is named for.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the last line of standard output is the end-to-end
//! result; with `--trace 1` it is the per-layer ledger, timed from
//! outside by wrapping calls into each layer's public functions. The line
//! before it is the run record: host, seed, and each metric's unit,
//! better direction and exactness. See `README.md` beside this file.

mod inputs;
mod query;
mod record;
mod reorder;
mod serve;
mod stats;

use inputs::{Boundary, Inputs, Workload};
use query::{BuPass, BuSet, Side, SldPass, SldSet, Tally};
use record::{Host, Values, END_TO_END, PER_LAYER};
use serve::{Record, Served};
use stats::{iqr_share, median, percentile, sorted, tail};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Share of the measuring time given to the workload's own boundary; the
/// other two boundaries get half the rest each. Every result must carry
/// every end-to-end metric, so every boundary runs on every workload.
const OWN_SHARE: f64 = 0.7;
/// Rounds a run's measuring time is cut into; see [`run`].
const ROUNDS: u32 = 8;
/// Where a run keeps its daemon stores, relative to the checkout root.
const WORK_DIR: &str = ".bench_work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{} needs a whole number, got {value:?}", args[i]))
        };
        match args[i].as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unexpected argument {other:?}")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// The serving latency limit, read from the `serve-mixed` entry of
/// `BENCHMARK.json` (`… SLO <n> ms …`), so it is fixed in one place.
fn slo_ms() -> Result<f64, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let doc = reordd::Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let why = match doc.get("workloads") {
        Some(reordd::Json::Arr(items)) => items
            .iter()
            .find(|w| w.get("name").and_then(reordd::Json::as_str) == Some("serve-mixed"))
            .and_then(|w| w.get("why"))
            .and_then(reordd::Json::as_str),
        _ => None,
    }
    .ok_or("BENCHMARK.json has no serve-mixed workload")?;
    why.split("SLO ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok())
        .ok_or_else(|| "the serve-mixed why names no `SLO <n> ms`".to_string())
}

/// Everything made before measuring starts.
struct Setup {
    inputs: Inputs,
    references: Vec<reorder::Reference>,
    /// Top-down query set over the workload's programs.
    sld: SldSet,
    /// Bottom-up query set over the same programs: the cross-check.
    bu: BuSet,
    served: Served,
    tally: Tally,
}

impl Setup {
    fn new(workload: Workload, seed: u64, store: PathBuf) -> Result<Setup, String> {
        let inputs = Inputs::new(workload, seed);
        let references = reorder::references(&inputs.programs)?;
        let sld = SldSet::setup(&inputs.programs, &references)?;
        let bu = BuSet::setup(&inputs.programs, &references)?;
        let served = Served::setup(&inputs.programs, &references, &inputs.serve, seed, store)
            .map_err(|e| e.to_string())?;
        let tally = served.tally;
        Ok(Setup {
            inputs,
            references,
            sld,
            bu,
            served,
            tally,
        })
    }

    /// The check pass over both query sets, before any timed pass.
    fn check_queries(&mut self) -> Result<Tally, String> {
        let mut tally = self.sld.check();
        tally.add(self.bu.check(Some(&self.sld)));
        if self.sld.is_empty() || self.bu.is_empty() {
            return Err(format!(
                "{}: an empty query set",
                self.inputs.workload.name()
            ));
        }
        Ok(tally)
    }
}

/// Per-layer sums of the traced query passes.
#[derive(Default)]
struct QueryLedger {
    sld_passes: u64,
    sld: SldPass,
    bu_passes: u64,
    bu: BuPass,
    /// End-to-end time of the traced primary passes, and its untraced twin.
    traced_ms: Vec<f64>,
    /// Layer time inside `traced_ms`.
    layers_ms: f64,
}

fn add_sld(into: &mut SldPass, p: &SldPass) {
    into.query_ms += p.query_ms;
    into.wall_ms += p.wall_ms;
    into.queries += p.queries;
    into.counters.add(&p.counters);
    into.backtracks += p.backtracks;
}

fn add_bu(into: &mut BuPass, p: &BuPass) {
    into.certify_ms += p.certify_ms;
    into.eval_ms += p.eval_ms;
    into.query_ms += p.query_ms;
    into.tuples_joined += p.tuples_joined;
    into.facts_derived += p.facts_derived;
    into.rounds += p.rounds;
}

struct QueryOutcome {
    /// Untraced pass totals per side, for the within-run spread.
    original_ms: Vec<f64>,
    reordered_ms: Vec<f64>,
    /// Every untraced `query_term` time per side, by query.
    original_items: Vec<Vec<f64>>,
    reordered_items: Vec<Vec<f64>>,
    ledger: QueryLedger,
    tally: Tally,
}

/// Appends one pass's per-query times to the per-query samples.
fn push_items(items: &mut Vec<Vec<f64>>, item_ms: &[f64]) {
    items.resize(item_ms.len(), Vec::new());
    for (samples, &ms) in items.iter_mut().zip(item_ms) {
        samples.push(ms);
    }
}

/// The sum over queries of each query's best (least) time; see
/// [`reorder::Outcome::program_best`] for why the least.
fn sum_of_best(items: &[Vec<f64>]) -> f64 {
    items
        .iter()
        .map(|s| s.iter().copied().fold(f64::INFINITY, f64::min))
        .sum()
}

/// Top-down passes over the query set, run a slice of the measuring time
/// at a time after the check pass: original and reordered side each time
/// (which side goes first alternates too). With `trace`, every other pass
/// is traced: the engine profile is on, and the bottom-up backend also
/// answers its query set for the per-layer figures.
struct QueryRunner {
    trace: bool,
    pass: u64,
    out: QueryOutcome,
}

impl QueryRunner {
    fn new(setup: &mut Setup, trace: bool) -> Result<QueryRunner, String> {
        Ok(QueryRunner {
            trace,
            pass: 0,
            out: QueryOutcome {
                original_ms: Vec::new(),
                reordered_ms: Vec::new(),
                original_items: Vec::new(),
                reordered_items: Vec::new(),
                ledger: QueryLedger::default(),
                tally: setup.check_queries()?,
            },
        })
    }

    /// Whole passes until `budget` is spent, at least one; pinned (see
    /// [`query::pinned`]).
    fn run(&mut self, setup: &mut Setup, budget: Duration) {
        let start = Instant::now();
        query::pinned(|| loop {
            self.one_pass(setup);
            if start.elapsed() >= budget {
                return;
            }
        })
    }

    /// The outcome, once an untraced pass (and with `trace` a traced one)
    /// has run.
    fn finish(mut self, setup: &mut Setup) -> QueryOutcome {
        query::pinned(|| {
            while self.out.reordered_ms.is_empty()
                || (self.trace && self.out.ledger.sld_passes == 0)
            {
                self.one_pass(setup);
            }
        });
        self.out
    }

    fn one_pass(&mut self, setup: &mut Setup) {
        let pass = self.pass;
        self.pass += 1;
        let out = &mut self.out;
        let traced = self.trace && pass % 2 == 1;
        let sides = if pass % 4 < 2 {
            [Side::Original, Side::Reordered]
        } else {
            [Side::Reordered, Side::Original]
        };
        let mut pass_ms = 0.0;
        for side in sides {
            let p = setup.sld.pass(side, traced);
            out.tally
                .check(p.fingerprint == setup.sld.expected_fingerprint, || {
                    format!("top-down {side:?} pass answered differently")
                });
            pass_ms += p.query_ms;
            match (traced, side) {
                (true, Side::Reordered) => {
                    out.ledger.sld_passes += 1;
                    add_sld(&mut out.ledger.sld, &p);
                }
                (false, Side::Original) => {
                    out.original_ms.push(p.query_ms);
                    push_items(&mut out.original_items, &p.item_ms);
                }
                (false, Side::Reordered) => {
                    out.reordered_ms.push(p.query_ms);
                    push_items(&mut out.reordered_items, &p.item_ms);
                }
                (true, Side::Original) => {}
            }
        }
        if traced {
            // The engine's `query_term` time is its layer.
            out.ledger.traced_ms.push(pass_ms);
            out.ledger.layers_ms += pass_ms;
            let p = setup.bu.pass(Side::Reordered);
            out.tally
                .check(p.fingerprint == setup.bu.expected_fingerprint, || {
                    "bottom-up cross-check answered differently".to_string()
                });
            out.ledger.bu_passes += 1;
            add_bu(&mut out.ledger.bu, &p);
        }
    }
}

struct ServeOutcome {
    open: Vec<Record>,
    open_duration: Duration,
    backlog_max: usize,
    /// Only with `--trace 1`, which measures `serve_capacity_rps`.
    closed: Vec<Record>,
    closed_elapsed: Duration,
    tally: Tally,
    /// Only with `--trace 1`: the daemon's figures after the open loop,
    /// the per-request transport cost, and the open loop's codec time.
    daemon: Option<serve::DaemonStats>,
    transport_ms: f64,
    codec_ms: f64,
}

/// Open-loop segments, one a round; at the end, with `trace`, the closed
/// loop over the rest of the serving budget and the serving ledger.
#[derive(Default)]
struct ServeRunner {
    segments: u64,
    open: Vec<Record>,
    open_duration: Duration,
    backlog_max: usize,
}

/// Share of the serving budget the open loop gets in a traced run; the
/// closed loop gets the rest.
const TRACED_OPEN_SHARE: f64 = 0.6;

impl ServeRunner {
    /// One open-loop segment over `budget` (with `trace`, over its
    /// open-loop share).
    fn run(&mut self, setup: &Setup, budget: Duration, trace: bool) -> Result<(), String> {
        let duration = if trace {
            budget.mul_f64(TRACED_OPEN_SHARE)
        } else {
            budget
        };
        let (records, backlog) =
            serve::open_loop(&setup.served, &setup.inputs, self.segments, duration)
                .map_err(|e| format!("open loop: {e}"))?;
        self.segments += 1;
        self.open.extend(records);
        self.open_duration += duration;
        self.backlog_max = self.backlog_max.max(backlog);
        Ok(())
    }

    /// Checks every reply; with `trace`, runs the closed loop over the
    /// rest of the serving `budget` and measures the serving ledger.
    fn finish(self, setup: &Setup, budget: Duration, trace: bool) -> Result<ServeOutcome, String> {
        let served = &setup.served;
        let stats = || -> Result<serve::DaemonStats, String> {
            let json = served.daemon.stats().map_err(|e| format!("stats: {e}"))?;
            Ok(serve::daemon_stats(&json))
        };
        // The ledger explains the open loop's latencies, so the daemon's
        // figures are read before the closed loop adds its own.
        let after_open = if trace { Some(stats()?) } else { None };
        let (mut closed, closed_elapsed) = if trace {
            serve::closed_loop(
                served,
                &setup.inputs,
                budget.mul_f64(1.0 - TRACED_OPEN_SHARE),
            )
            .map_err(|e| format!("closed loop: {e}"))?
        } else {
            (Vec::new(), Duration::ZERO)
        };
        let mut open = self.open;
        let mut tally = serve::verify(&mut open, served);
        tally.add(serve::verify(&mut closed, served));
        let mut out = ServeOutcome {
            open,
            open_duration: self.open_duration,
            backlog_max: self.backlog_max,
            closed,
            closed_elapsed,
            tally,
            daemon: after_open,
            transport_ms: f64::NAN,
            codec_ms: f64::NAN,
        };
        if trace {
            // Transport: a ping's round trip less the queue wait the daemon
            // reports for it.
            let before = stats()?;
            let ping =
                serve::ping_rtt_ms(served.daemon.addr, 200).map_err(|e| format!("ping: {e}"))?;
            let after = stats()?;
            let ping_queue_ms =
                (after.queue_ms - before.queue_ms) / (after.queue_count - before.queue_count);
            out.transport_ms = ping - ping_queue_ms;
            // Codec cost per distinct request, summed over the open loop.
            let mut per_slot: HashMap<serve::Slot, f64> = HashMap::new();
            let mut codec = 0.0;
            for r in &out.open {
                codec += *per_slot.entry(r.slot).or_insert_with(|| {
                    let request = match r.slot {
                        serve::Slot::Pool(i) => served.pool[i as usize].clone(),
                        serve::Slot::Fresh(i) => serve::reorder_request(served.fresh_text(i)),
                    };
                    serve::codec_ms(&request, &setup.references[served.answer_of(r.slot)].text)
                });
            }
            out.codec_ms = codec;
        }
        Ok(out)
    }
}

fn ms_values(records: &[Record], f: impl Fn(&Record) -> Option<f64>) -> Vec<f64> {
    sorted(&records.iter().filter_map(f).collect::<Vec<_>>())
}

/// `perfbench --vet`: prints the vetted generator seeds (`vetted.txt`):
/// for each maximum body length, the first candidates whose program
/// reorders deterministically and passes every top-down and bottom-up
/// answer check this benchmark makes.
fn vet() {
    for (goals, target) in inputs::VET_TARGETS {
        let config = inputs::with_goals(goals);
        let mut kept = 0;
        let mut index = 0;
        while kept < target {
            let seed = inputs::candidate_seed(goals, index);
            index += 1;
            let programs = [inputs::generated("vet", seed, &config)];
            let passes = || -> Result<bool, String> {
                let references = reorder::references(&programs)?;
                let again = reorder::references(&programs)?;
                let mut sld = SldSet::setup(&programs, &references)?;
                let mut bu = BuSet::setup(&programs, &references)?;
                let top_down = sld.check();
                let bottom_up = bu.check(Some(&sld));
                Ok(references[0].text == again[0].text
                    && !sld.is_empty()
                    && top_down.failed == 0
                    && bottom_up.failed == 0)
            };
            if passes().unwrap_or(false) {
                println!("{goals} {seed}");
                kept += 1;
            } else {
                eprintln!("vet: {goals} goals, seed {seed} rejected");
            }
        }
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--vet") {
        vet();
        return;
    }
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
        std::process::exit(2);
    });
    let slo = slo_ms().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let run_dir = Path::new(WORK_DIR).join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let result = run(&args, slo, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    let _ = std::fs::remove_dir(WORK_DIR);
    match result {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// One run: set-ups, the rounds, and the two output lines.
fn run(args: &Args, slo: f64, run_dir: &Path) -> Result<Vec<String>, String> {
    let host = Host::detect();
    let seconds = Duration::from_secs(args.seconds);

    let mut setup_s = Vec::new();
    let mut setup: Option<Setup> = None;
    for rep in 0..SETUPS {
        if let Some(previous) = setup.take() {
            previous.served.teardown().map_err(|e| e.to_string())?;
        }
        let t = Instant::now();
        setup = Some(Setup::new(
            args.workload,
            args.seed,
            run_dir.join(format!("store-{rep}")),
        )?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut setup = setup.expect("at least one set-up");
    let own = setup.inputs.workload.boundary();
    let budget = |boundary: Boundary| {
        let share = if boundary == own {
            OWN_SHARE
        } else {
            (1.0 - OWN_SHARE) / 2.0
        };
        seconds.mul_f64(share)
    };

    // The boundaries take turns, a slice each per round, so that each one's
    // samples spread over the whole run and not over one stretch of it.
    let slice = |boundary| budget(boundary).div_f64(ROUNDS as f64);
    let n = setup.inputs.programs.len();
    let mut reorders = reorder::Runner::new(n, args.trace, inputs::mix(args.seed, 8, 0));
    let mut queries = QueryRunner::new(&mut setup, args.trace)?;
    let mut serving = ServeRunner::default();
    for _ in 0..ROUNDS {
        reorders.run(
            &setup.inputs.programs,
            &setup.references,
            slice(Boundary::Reorder),
        );
        queries.run(&mut setup, slice(Boundary::Query));
        serving.run(&setup, slice(Boundary::Serve), args.trace)?;
    }
    let reordered = reorders.finish(&setup.inputs.programs, &setup.references);
    let queried = queries.finish(&mut setup);
    let null_query_us = if args.trace {
        query::pinned(|| setup.sld.null_query_us(1000))
    } else {
        f64::NAN
    };
    let served = serving.finish(&setup, budget(Boundary::Serve), args.trace)?;

    let mut tally = setup.tally;
    tally.add(Tally {
        attempted: reordered.attempted,
        failed: reordered.failed,
    });
    tally.add(queried.tally);
    tally.add(served.tally);

    let mut notes = BTreeMap::new();
    let mut v = Values::default();
    let programs_tail = reordered.tail();
    let open_latency = ms_values(&served.open, Record::latency_ms);
    let serve_tail = tail(&open_latency);
    notes.insert("programs".into(), setup.inputs.programs.len().to_string());
    notes.insert(
        "reorder_passes".into(),
        reordered.untraced_passes.to_string(),
    );
    notes.insert(
        "query_passes".into(),
        queried.reordered_ms.len().to_string(),
    );
    notes.insert("open_loop_requests".into(), served.open.len().to_string());
    notes.insert(
        "closed_loop_requests".into(),
        served.closed.len().to_string(),
    );
    notes.insert("slo_ms".into(), slo.to_string());
    // Within-run spread of the pass totals, beside the across-seed spread
    // the bounds in BENCHMARK.json are set against.
    notes.insert(
        "reorder_pass_ms.iqr_share".into(),
        format!("{:.4}", iqr_share(&reordered.pass_ms)),
    );
    notes.insert(
        "query_wall_ms.iqr_share".into(),
        format!("{:.4}", iqr_share(&queried.reordered_ms)),
    );
    if let Some(t) = programs_tail {
        notes.insert(
            "reorder_ms_tail".into(),
            format!("{} of {} programs", t.label(), setup.inputs.programs.len()),
        );
    }
    if let Some(t) = serve_tail {
        notes.insert(
            "serve_ms_tail".into(),
            format!("{} of {} requests", t.label(), open_latency.len()),
        );
    }

    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    if !args.trace {
        let best = reordered.program_best();
        v.set("reorder_ms_p50", percentile(&best, 500).unwrap_or(f64::NAN));
        v.set(
            "reorder_ms_tail",
            programs_tail.map_or(f64::NAN, |t| t.value),
        );
        v.set("reorder_pps", reordered.programs_per_s());
        let bytes: usize = setup.references.iter().map(|r| r.text.len()).sum();
        v.set("output_bytes", bytes as f64);
        let re = sum_of_best(&queried.reordered_items);
        v.set("query_wall_ms", re);
        v.set("query_speedup", sum_of_best(&queried.original_items) / re);
        v.set("user_calls", setup.sld.user_calls as f64);
        v.set(
            "serve_ms_p50",
            percentile(&open_latency, 500).unwrap_or(f64::NAN),
        );
        let within = served
            .open
            .iter()
            .filter(|r| r.ok && r.latency_ms().is_some_and(|ms| ms <= slo))
            .count();
        v.set(
            "serve_slo_share",
            within as f64 / served.open.len().max(1) as f64,
        );
        v.set(
            "ok_share",
            1.0 - tally.failed as f64 / tally.attempted.max(1) as f64,
        );
        v.set("setup_s", median(&setup_s));
        v.set("peak_rss_mb", record::peak_rss_mb());
    } else {
        v.set("serve_ms_tail", serve_tail.map_or(f64::NAN, |t| t.value));
        let answered = served.closed.iter().filter(|r| r.ok).count();
        v.set(
            "serve_capacity_rps",
            answered as f64 / served.closed_elapsed.as_secs_f64(),
        );
        layer_values(
            &mut v,
            &setup,
            &reordered,
            &queried,
            &served,
            null_query_us,
            &mut notes,
        );
        v.set(
            "failed_share",
            tally.failed as f64 / tally.attempted.max(1) as f64,
        );
    }

    for def in defs {
        if !v.get(def.name).is_some_and(f64::is_finite) {
            notes.insert(format!("unmeasured:{}", def.name), "no samples".into());
        }
    }
    Ok(vec![
        record::record_line(
            &host,
            args.workload.name(),
            args.seed,
            args.seconds,
            args.trace,
            defs,
            &notes,
        ),
        record::result_line(tally.failed == 0, tally.attempted, tally.failed, defs, &v),
    ])
}

/// The per-layer ledger of a traced run.
fn layer_values(
    v: &mut Values,
    setup: &Setup,
    reordered: &reorder::Outcome,
    queried: &QueryOutcome,
    served: &ServeOutcome,
    null_query_us: f64,
    notes: &mut BTreeMap<String, String>,
) {
    // Reorder boundary: per traced pass.
    let l = &reordered.ledger;
    let per = |x: f64| x / l.passes.max(1) as f64;
    let s = &l.stats;
    v.set("syntax.parse_ms", per(l.parse_ms));
    v.set(
        "syntax.parse_mb_s",
        l.parse_bytes / 1e6 / (l.parse_ms / 1e3),
    );
    v.set("syntax.emit_ms", per(l.emit_ms));
    v.set("syntax.clauses", per(l.clauses));
    v.set("analysis.ms", per(l.analysis_ms));
    v.set("core.planning_ms", per(l.planning_ms));
    v.set("core.search_ms", per(l.search_ms));
    v.set("core.assembly_ms", per(l.assembly_ms));
    v.set("core.tasks", per(s.tasks as f64));
    v.set("core.orders_explored", per(s.orders_explored as f64));
    v.set("core.orders_rejected", per(s.orders_rejected as f64));
    let ratio = |a: f64, b: f64| if a + b > 0.0 { a / (a + b) } else { 0.0 };
    v.set(
        "core.search_yield",
        ratio(s.orders_explored as f64, s.orders_rejected as f64),
    );
    v.set(
        "core.estimate_hit_ratio",
        ratio(s.estimate_hits as f64, s.estimate_misses as f64),
    );
    v.set(
        "core.mode_hit_ratio",
        ratio(s.mode_hits as f64, s.mode_misses as f64),
    );
    v.set("markov.chain_solves", per(s.chain_misses as f64));
    v.set(
        "markov.chain_hit_ratio",
        ratio(s.chain_hits as f64, s.chain_misses as f64),
    );

    // Query boundary: per traced pass, reordered side.
    let q = &queried.ledger;
    let sp = |x: f64| x / q.sld_passes.max(1) as f64;
    let sld = &q.sld;
    let calls = (sld.counters.user_calls + sld.counters.builtin_calls) as f64;
    v.set("engine.load_ms", setup.sld.load_ms);
    v.set("engine.null_query_us", null_query_us);
    v.set("engine.query_ms", sp(sld.query_ms));
    v.set("engine.queries", sp(sld.queries as f64));
    v.set("engine.user_calls", sp(sld.counters.user_calls as f64));
    v.set(
        "engine.builtin_calls",
        sp(sld.counters.builtin_calls as f64),
    );
    v.set("engine.unifications", sp(sld.counters.unifications as f64));
    v.set(
        "engine.unify_per_call",
        sld.counters.unifications as f64 / calls.max(1.0),
    );
    v.set("engine.calls_per_s", calls / (sld.query_ms / 1e3));
    v.set("engine.backtracks", sp(sld.backtracks as f64));
    let bp = |x: f64| x / q.bu_passes.max(1) as f64;
    let bu = &q.bu;
    v.set("datalog.certify_ms", bp(bu.certify_ms));
    v.set("datalog.eval_ms", bp(bu.eval_ms));
    v.set("datalog.query_ms", bp(bu.query_ms));
    v.set("datalog.tuples_joined", bp(bu.tuples_joined as f64));
    v.set("datalog.facts_derived", bp(bu.facts_derived as f64));
    v.set("datalog.rounds", bp(bu.rounds as f64));

    // Serving boundary.
    let open = &served.open;
    let rtt = |cached: bool| {
        let ms = ms_values(open, |r| {
            if r.cached() == cached {
                r.rtt_ms()
            } else {
                None
            }
        });
        percentile(&ms, 500).unwrap_or(0.0)
    };
    v.set("reordd.rtt_hit_ms_p50", rtt(true));
    v.set("reordd.rtt_miss_ms_p50", rtt(false));
    let conn_wait_ms: f64 = open.iter().map(|r| r.conn_wait.as_secs_f64() * 1e3).sum();
    v.set(
        "reordd.conn_wait_ms_mean",
        conn_wait_ms / open.len().max(1) as f64,
    );
    let daemon = served.daemon.as_ref();
    for (name, value) in daemon.map(|d| d.values.clone()).unwrap_or_default() {
        v.set(name, value);
    }
    v.set("store.recover_ms", setup.served.recover_ms);
    v.set("store.flush_ms", setup.served.flush_ms);
    v.set(
        "loadgen.offered_rps",
        open.len() as f64 / served.open_duration.as_secs_f64(),
    );
    let lag = ms_values(open, Record::lag_ms);
    if let Some(t) = tail(&lag) {
        notes.insert("loadgen.lag_ms_tail".into(), t.label());
        v.set("loadgen.lag_ms_tail", t.value);
    }
    v.set("loadgen.backlog_max", served.backlog_max as f64);

    // Coverage: each boundary's end-to-end time against its layers. For
    // serving that is the open loop's latency, from the intended send.
    let serve_e2e: f64 = open.iter().filter_map(Record::latency_ms).sum();
    let lag_total: f64 = lag.iter().sum();
    let daemon_ms = daemon.map_or(0.0, |d| d.queue_ms + d.service_ms);
    let transport_total = open.len() as f64 * served.transport_ms;
    let serve_layers = lag_total + conn_wait_ms + daemon_ms + served.codec_ms + transport_total;
    notes.insert(
        "trace.serve_ms".into(),
        format!(
            "latency {serve_e2e:.1} = lag {lag_total:.1} + conn_wait {conn_wait_ms:.1} + daemon {daemon_ms:.1} + codec {:.1} + transport {transport_total:.1} + untraced",
            served.codec_ms
        ),
    );
    let reorder_e2e = l.e2e_ms;
    let query_e2e: f64 = q.traced_ms.iter().sum();
    let e2e = reorder_e2e + query_e2e + serve_e2e;
    let layers = l.layers_ms() + q.layers_ms + serve_layers;
    notes.insert(
        "trace.coverage".into(),
        format!(
            "reorder {:.4}, query {:.4}, serve {:.4}",
            l.layers_ms() / reorder_e2e,
            q.layers_ms / query_e2e,
            serve_layers / serve_e2e
        ),
    );
    v.set("trace.coverage_share", layers / e2e);
    v.set("trace.untraced_ms", (e2e - layers).max(0.0));
    // Overhead: traced against untraced passes of the same boundary.
    let untraced =
        median(&reordered.pass_ms) + median(&queried.reordered_ms) + median(&queried.original_ms);
    let traced = per(l.e2e_ms) + median(&q.traced_ms);
    v.set("trace.overhead_share", traced / untraced - 1.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The four exact counts of a small `reorder-rules` set-up: its check
    /// pass, one traced reorder pass and one bottom-up pass, made as a run
    /// makes them.
    fn exact_counts(seed: u64) -> [u64; 4] {
        let mut inputs = Inputs::new(Workload::ReorderRules, seed);
        // The twelve programs of 2 and 3 goals keep the test quick.
        inputs.programs.truncate(12);
        let references = reorder::references(&inputs.programs).unwrap();
        let mut sld = SldSet::setup(&inputs.programs, &references).unwrap();
        let mut bu = BuSet::setup(&inputs.programs, &references).unwrap();
        assert_eq!(sld.check().failed, 0);
        assert_eq!(bu.check(Some(&sld)).failed, 0);
        let mut runner = reorder::Runner::new(inputs.programs.len(), true, seed);
        runner.run(&inputs.programs, &references, Duration::ZERO);
        let reordered = runner.finish(&inputs.programs, &references);
        assert_eq!(reordered.ledger.passes, 1);
        let output_bytes = references.iter().map(|r| r.text.len() as u64).sum();
        [
            sld.user_calls,
            output_bytes,
            reordered.ledger.stats.orders_explored as u64,
            bu.pass(Side::Reordered).tuples_joined,
        ]
    }

    #[test]
    fn exact_counts_repeat_run_to_run() {
        let first = exact_counts(5);
        assert!(first.iter().all(|&count| count > 0), "{first:?}");
        assert_eq!(first, exact_counts(5));
    }
}
