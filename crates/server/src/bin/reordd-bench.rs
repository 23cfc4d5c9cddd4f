//! `reordd-bench` — load generator for one `reordd` daemon or a
//! consistent-hash-sharded fleet of them.
//!
//! ```text
//! usage: reordd-bench (--addr HOST:PORT | --nodes H:P,H:P,...)
//!                     [--connections N] [--requests N] [--rounds N]
//!                     [--gen N] [--seed S] [--malformed-pct P]
//!                     [--dup-pct P] [--budget-ms N] [--deadline-ms N]
//!                     [--open-loop] [--quick] [--warm-row]
//!                     [--trajectory-out PATH] [--no-verify]
//!                     [--require-hits] [--shutdown]
//! ```
//!
//! Two drive modes share one corpus (`prolog-workloads::corpus` plus
//! difftest-generated programs) and one verification oracle (the local
//! pipeline, byte-for-byte):
//!
//! * **Closed loop** (default): `--connections` threads race through
//!   `--requests` total requests mixing valid, duplicate (cache
//!   exercising), and malformed payloads. With `--nodes`, each request
//!   routes over the consistent-hash ring by content key — the same
//!   placement every client computes — and stats are reported per node.
//! * **Open loop** (`--open-loop`): `--connections` sockets are all
//!   opened up front on a single event-loop thread (10k connections is
//!   the point, not a problem) and each runs `--rounds` sequential
//!   requests; overload/timeout replies are retried with backoff and
//!   only count as dropped past the attempt cap or `--deadline-ms`.
//!   Latency is first-send → final-reply, reported as p50/p99/p999 with
//!   the *effective* quantile annotated when the sample is too small to
//!   resolve the requested one.
//!
//! `--trajectory-out PATH` (open loop only) writes a `serving`
//! trajectory section — schema-versioned, `bench-diff`-compatible — so
//! CI can gate the serving rows with `--min-ratio serving:1.0`. The
//! open-loop row encodes health as `ok/attempted`; with `--warm-row` a
//! `warm-start` row encodes the server-reported cache-hit percentage
//! against a 90% floor.
//!
//! Exit status: nonzero on any unexpected error, verification mismatch,
//! dropped open-loop request, or (with `--require-hits`) a zero
//! server-side cache-hit count summed across the fleet.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reordd::loadgen::{open_loop, quantile, quantile_label, shard_programs, OpenLoopPlan};
use reordd::{content_key, Client, ErrorCode, Json, Request, Response, Ring, WireConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

struct Opts {
    nodes: Vec<String>,
    connections: usize,
    requests: usize,
    rounds: usize,
    gen: usize,
    seed: u64,
    malformed_pct: u32,
    dup_pct: u32,
    budget_ms: Option<u64>,
    deadline_ms: u64,
    verify: bool,
    require_hits: bool,
    open_loop: bool,
    warm_row: bool,
    trajectory_out: Option<String>,
    shutdown: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            nodes: Vec::new(),
            connections: 8,
            requests: 200,
            rounds: 4,
            gen: 8,
            seed: 42,
            malformed_pct: 10,
            dup_pct: 50,
            budget_ms: None,
            deadline_ms: 120_000,
            verify: true,
            require_hits: false,
            open_loop: false,
            warm_row: false,
            trajectory_out: None,
            shutdown: false,
        }
    }
}

const MALFORMED: &[&str] = &[
    "p(1. q(",
    ":- broken(((.",
    "head :- body, .",
    "p(X) :- q(X), ",
    "\"unterminated",
];

#[derive(Default, Clone)]
struct NodeTally {
    ok: u64,
    cached: u64,
    sheds: u64,
    mismatches: u64,
}

struct ThreadResult {
    cold_us: Vec<u64>,
    hit_us: Vec<u64>,
    parse_errors: usize,
    sheds: usize,
    timeouts: usize,
    unexpected: Vec<String>,
    mismatches: usize,
    nodes: Vec<NodeTally>,
}

impl ThreadResult {
    fn new(node_count: usize) -> ThreadResult {
        ThreadResult {
            cold_us: Vec::new(),
            hit_us: Vec::new(),
            parse_errors: 0,
            sheds: 0,
            timeouts: 0,
            unexpected: Vec::new(),
            mismatches: 0,
            nodes: vec![NodeTally::default(); node_count],
        }
    }
}

fn main() {
    let opts = parse_args();
    let corpus = build_corpus(&opts);

    // Local ground truth for byte-identity checks: the same entry point
    // the CLI uses. Keyed by name for the closed loop and by program
    // text for the open-loop driver.
    let mut expected_by_name: HashMap<String, String> = HashMap::new();
    let mut expected_by_text: HashMap<String, String> = HashMap::new();
    if opts.verify {
        let config = WireConfig::default().to_reorder_config(1);
        for (name, text) in &corpus {
            let outcome = reorder::reorder_source(text, &config)
                .unwrap_or_else(|e| panic!("corpus program {name} must parse: {e}"));
            expected_by_name.insert(name.clone(), outcome.text.clone());
            expected_by_text.insert(text.clone(), outcome.text);
        }
    }

    if opts.open_loop {
        run_open_loop(&opts, &corpus, expected_by_text);
    } else {
        run_closed_loop(&opts, &corpus, &expected_by_name);
    }
}

// ---------------------------------------------------------------------------
// Open loop
// ---------------------------------------------------------------------------

fn run_open_loop(opts: &Opts, corpus: &[(String, String)], expected: HashMap<String, String>) {
    let programs: Vec<String> = corpus.iter().map(|(_, text)| text.clone()).collect();
    let plans = shard_programs(&opts.nodes, &programs);
    eprintln!(
        "reordd-bench: open loop, {} connections x {} rounds over {} programs, {} node(s)",
        opts.connections,
        opts.rounds,
        programs.len(),
        plans.len()
    );
    for plan in &plans {
        eprintln!("  {} <- {} programs", plan.addr, plan.programs.len());
    }

    let plan = OpenLoopPlan {
        nodes: plans,
        connections: opts.connections,
        rounds: opts.rounds,
        budget_ms: opts.budget_ms,
        expected,
        deadline: Duration::from_millis(opts.deadline_ms),
    };
    let report = match open_loop(&plan) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("FAIL: open-loop driver: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "completed {}/{} requests in {:.3} s ({:.1} req/s)",
        report.ok,
        report.attempted,
        report.wall.as_secs_f64(),
        report.ok as f64 / report.wall.as_secs_f64().max(1e-9)
    );
    println!(
        "  ok: {} (cached {}), dropped: {}, retries: {}, verify failures: {}",
        report.ok, report.cached, report.dropped, report.retries, report.verify_failures
    );
    println!(
        "  latency p50: {}, p99: {}, p999: {}",
        quantile_label(&report.latencies_us, 500),
        quantile_label(&report.latencies_us, 990),
        quantile_label(&report.latencies_us, 999),
    );
    for node in &report.nodes {
        println!(
            "  node {}: attempted={} ok={} cached={} retries={} dropped={} verify_failures={}",
            node.addr,
            node.attempted,
            node.ok,
            node.cached,
            node.retries,
            node.dropped,
            node.verify_failures
        );
    }

    let server_hits = fleet_stats(opts);
    if let Some(path) = &opts.trajectory_out {
        let doc = serving_trajectory(opts, &report);
        if let Err(e) = std::fs::write(path, doc.encode()) {
            eprintln!("FAIL: cannot write trajectory to {path}: {e}");
            std::process::exit(1);
        }
        println!("serving trajectory -> {path}");
    }
    shutdown_fleet(opts);

    let mut failed = false;
    if !report.clean() {
        eprintln!(
            "FAIL: open loop not clean ({} dropped, {} verify failures, {}/{} ok)",
            report.dropped, report.verify_failures, report.ok, report.attempted
        );
        failed = true;
    }
    if opts.require_hits && server_hits == Some(0) {
        eprintln!("FAIL: --require-hits set but the fleet reports zero cache hits");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

/// The open-loop run as a `bench-diff`-compatible trajectory document:
/// one `serving` section whose rows encode health as `original` vs
/// `reordered` counts, so `--min-ratio serving:1.0` gates them exactly
/// like the evaluation sections. Counts only: the latencies printed
/// above stay on the console.
fn serving_trajectory(opts: &Opts, report: &reordd::loadgen::OpenLoopReport) -> Json {
    let num = |n: u64| Json::Num(n as f64);
    let mut rows = vec![Json::Obj(vec![
        (
            "label".to_string(),
            Json::Str(format!("open-loop/{}x{}", opts.connections, opts.rounds)),
        ),
        // ok/attempted == 1.0 exactly when nothing dropped or errored:
        // the `--min-ratio serving:1.0` encoding of "zero dropped".
        ("original".to_string(), num(report.ok)),
        ("reordered".to_string(), num(report.attempted)),
        ("equivalent".to_string(), Json::Bool(report.clean())),
        ("cached".to_string(), num(report.cached)),
        ("dropped".to_string(), num(report.dropped)),
        ("retries".to_string(), num(report.retries)),
    ])];
    if opts.warm_row {
        let cached_pct = (report.cached * 100).checked_div(report.ok).unwrap_or(0);
        rows.push(Json::Obj(vec![
            ("label".to_string(), Json::Str("warm-start".to_string())),
            // cached% over the 90% floor: ratio >= 1.0 iff the restart
            // actually served the repeated workload from the store.
            ("original".to_string(), num(cached_pct)),
            ("reordered".to_string(), num(90)),
            (
                "equivalent".to_string(),
                Json::Bool(report.verify_failures == 0),
            ),
        ]));
    }
    Json::Obj(vec![
        (
            "schema_version".to_string(),
            num(reordd::TRAJECTORY_SCHEMA_VERSION),
        ),
        (
            "kind".to_string(),
            Json::Str("reorder-bench-trajectory".to_string()),
        ),
        ("depth".to_string(), Json::Str("serving".to_string())),
        ("nodes".to_string(), num(opts.nodes.len() as u64)),
        (
            "sections".to_string(),
            Json::Arr(vec![Json::Obj(vec![
                ("name".to_string(), Json::Str("serving".to_string())),
                ("rows".to_string(), Json::Arr(rows)),
            ])]),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Closed loop
// ---------------------------------------------------------------------------

fn run_closed_loop(opts: &Opts, corpus: &[(String, String)], expected: &HashMap<String, String>) {
    eprintln!(
        "reordd-bench: {} programs ({} generated), {} connections, {} requests -> {}",
        corpus.len(),
        opts.gen,
        opts.connections,
        opts.requests,
        opts.nodes.join(",")
    );

    let ring = Ring::new(opts.nodes.clone());
    let key_part = WireConfig::default().cache_key_part();
    let next_request = AtomicUsize::new(0);
    let results: Mutex<Vec<ThreadResult>> = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for thread_id in 0..opts.connections {
            let corpus = &corpus;
            let next_request = &next_request;
            let results = &results;
            let ring = &ring;
            let key_part = key_part.as_str();
            scope.spawn(move || {
                let result = drive_connection(
                    opts,
                    corpus,
                    expected,
                    ring,
                    key_part,
                    next_request,
                    thread_id,
                );
                results.lock().unwrap().push(result);
            });
        }
    });
    let elapsed = started.elapsed();
    let results = results.into_inner().unwrap();

    let mut cold: Vec<u64> = Vec::new();
    let mut hit: Vec<u64> = Vec::new();
    let (mut parse_errors, mut sheds, mut timeouts, mut mismatches) = (0, 0, 0, 0);
    let mut unexpected: Vec<String> = Vec::new();
    let mut nodes: Vec<NodeTally> = vec![NodeTally::default(); opts.nodes.len()];
    for r in results {
        cold.extend(r.cold_us);
        hit.extend(r.hit_us);
        parse_errors += r.parse_errors;
        sheds += r.sheds;
        timeouts += r.timeouts;
        mismatches += r.mismatches;
        unexpected.extend(r.unexpected);
        for (total, tally) in nodes.iter_mut().zip(&r.nodes) {
            total.ok += tally.ok;
            total.cached += tally.cached;
            total.sheds += tally.sheds;
            total.mismatches += tally.mismatches;
        }
    }
    cold.sort_unstable();
    hit.sort_unstable();

    let ok = cold.len() + hit.len();
    println!(
        "completed {} requests in {:.3} s ({:.1} req/s)",
        opts.requests,
        elapsed.as_secs_f64(),
        opts.requests as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    println!(
        "  ok: {ok} (cold {}, cached {}), parse errors (expected): {parse_errors}, \
         shed: {sheds}, timeouts: {timeouts}, unexpected: {}",
        cold.len(),
        hit.len(),
        unexpected.len()
    );
    print_latency("cold  ", &cold);
    print_latency("cached", &hit);
    if let (Some(cold_p50), Some(hit_p50)) = (quantile(&cold, 500), quantile(&hit, 500)) {
        println!(
            "  cold/cached p50 ratio: {:.1}x",
            cold_p50.value as f64 / (hit_p50.value as f64).max(1.0)
        );
    }
    if opts.verify {
        println!(
            "  verify: {}/{ok} byte-identical to the local pipeline",
            ok - mismatches
        );
    }
    if opts.nodes.len() > 1 {
        for (addr, tally) in opts.nodes.iter().zip(&nodes) {
            println!(
                "  node {addr}: ok={} cached={} shed={} mismatches={}",
                tally.ok, tally.cached, tally.sheds, tally.mismatches
            );
        }
    }
    for (i, e) in unexpected.iter().take(5).enumerate() {
        eprintln!("  unexpected[{i}]: {e}");
    }

    let server_hits = fleet_stats(opts);
    shutdown_fleet(opts);

    let mut failed = false;
    if !unexpected.is_empty() || mismatches > 0 {
        eprintln!(
            "FAIL: {} unexpected errors, {mismatches} mismatches",
            unexpected.len()
        );
        failed = true;
    }
    if opts.require_hits && server_hits == Some(0) {
        eprintln!("FAIL: --require-hits set but the fleet reports zero cache hits");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

#[allow(clippy::too_many_arguments)]
fn drive_connection(
    opts: &Opts,
    corpus: &[(String, String)],
    expected: &HashMap<String, String>,
    ring: &Ring,
    key_part: &str,
    next_request: &AtomicUsize,
    thread_id: usize,
) -> ThreadResult {
    let mut rng = StdRng::seed_from_u64(opts.seed.wrapping_add(thread_id as u64));
    let mut result = ThreadResult::new(opts.nodes.len());
    let mut clients: Vec<Option<Client>> = (0..opts.nodes.len()).map(|_| None).collect();
    loop {
        let i = next_request.fetch_add(1, Ordering::Relaxed);
        if i >= opts.requests {
            return result;
        }
        // Build the request: malformed / duplicate / round-robin.
        let roll: u32 = rng.gen_range(0..100);
        let (name, program) = if roll < opts.malformed_pct {
            ("malformed", MALFORMED[i % MALFORMED.len()])
        } else if roll < opts.malformed_pct + opts.dup_pct {
            // Duplicates concentrate on two programs to exercise the
            // cache and single-flight paths.
            let (name, text) = &corpus[i % 2.min(corpus.len())];
            (name.as_str(), text.as_str())
        } else {
            let (name, text) = &corpus[i % corpus.len()];
            (name.as_str(), text.as_str())
        };
        // Route by content key: every client computes the same placement,
        // so duplicates land where the cache entry lives.
        let node = if opts.nodes.len() > 1 {
            ring.route(content_key(program, key_part))
        } else {
            0
        };
        let request = Request::Reorder {
            program: program.to_string(),
            config: WireConfig::default(),
            budget_ms: opts.budget_ms,
        };

        // Send with reconnect-and-retry: sheds and transport errors are
        // survivable; give up on a request after a few attempts.
        let mut attempts = 0;
        loop {
            attempts += 1;
            if attempts > 5 {
                result
                    .unexpected
                    .push(format!("request {i} ({name}): gave up after retries"));
                break;
            }
            let c = match clients[node].as_mut() {
                Some(c) => c,
                None => match Client::connect(&opts.nodes[node], Duration::from_secs(10)) {
                    Ok(c) => {
                        clients[node] = Some(c);
                        clients[node].as_mut().unwrap()
                    }
                    Err(_) => {
                        std::thread::sleep(Duration::from_millis(20 * attempts));
                        continue;
                    }
                },
            };
            let t0 = Instant::now();
            match c.call(&request) {
                Ok(Response::Reordered {
                    program: reordered,
                    cached,
                    ..
                }) => {
                    let us = t0.elapsed().as_micros() as u64;
                    result.nodes[node].ok += 1;
                    if cached {
                        result.nodes[node].cached += 1;
                        result.hit_us.push(us);
                    } else {
                        result.cold_us.push(us);
                    }
                    if name != "malformed" {
                        if let Some(want) = expected.get(name) {
                            if *want != reordered {
                                result.mismatches += 1;
                                result.nodes[node].mismatches += 1;
                            }
                        }
                    } else {
                        result
                            .unexpected
                            .push(format!("request {i}: malformed program was accepted"));
                    }
                    break;
                }
                Ok(Response::Error(err)) => match err.code {
                    ErrorCode::Parse if name == "malformed" => {
                        result.parse_errors += 1;
                        break;
                    }
                    ErrorCode::Overload => {
                        // Request-level shed: the connection stays open,
                        // only the request is refused. Back off, retry.
                        result.sheds += 1;
                        result.nodes[node].sheds += 1;
                        std::thread::sleep(Duration::from_millis(10 * attempts));
                    }
                    ErrorCode::Timeout => {
                        result.timeouts += 1;
                        std::thread::sleep(Duration::from_millis(5));
                        // retry: the computation lands in the cache
                    }
                    _ => {
                        result.unexpected.push(format!(
                            "request {i} ({name}): {:?} {}",
                            err.code, err.message
                        ));
                        break;
                    }
                },
                Ok(other) => {
                    result
                        .unexpected
                        .push(format!("request {i} ({name}): unexpected reply {other:?}"));
                    break;
                }
                Err(_) => {
                    clients[node] = None;
                    std::thread::sleep(Duration::from_millis(10 * attempts));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Shared plumbing
// ---------------------------------------------------------------------------

fn build_corpus(opts: &Opts) -> Vec<(String, String)> {
    let mut corpus: Vec<(String, String)> = prolog_workloads::corpus()
        .into_iter()
        .map(|p| (p.name.to_string(), p.text))
        .collect();
    corpus.extend(prolog_difftest::corpus_texts(
        opts.gen,
        opts.seed,
        &prolog_difftest::GenConfig::default(),
    ));
    corpus
}

fn print_latency(label: &str, sorted: &[u64]) {
    if sorted.is_empty() {
        println!("  {label} latency: no samples");
        return;
    }
    println!(
        "  {label} latency p50: {}, p90: {}, p99: {}, max: {} us (n={})",
        quantile_label(sorted, 500),
        quantile_label(sorted, 900),
        quantile_label(sorted, 990),
        sorted.last().unwrap(),
        sorted.len()
    );
}

/// Fetches and prints every node's stats; returns the fleet-wide
/// cache-hit sum when at least one node answered.
fn fleet_stats(opts: &Opts) -> Option<u64> {
    let mut total: Option<u64> = None;
    for addr in &opts.nodes {
        if let Some(hits) = report_server_stats(addr) {
            total = Some(total.unwrap_or(0) + hits);
        }
    }
    total
}

fn shutdown_fleet(opts: &Opts) {
    if !opts.shutdown {
        return;
    }
    for addr in &opts.nodes {
        match Client::connect(addr, Duration::from_secs(5))
            .and_then(|mut c| c.call(&Request::Shutdown))
        {
            Ok(Response::ShuttingDown) => println!("{addr} acknowledged shutdown"),
            Ok(other) => eprintln!("warning: {addr}: unexpected shutdown reply {other:?}"),
            Err(e) => eprintln!("warning: {addr}: shutdown request failed: {e}"),
        }
    }
}

/// Fetches and prints one node's stats; returns its cache-hit count
/// when available.
fn report_server_stats(addr: &str) -> Option<u64> {
    let mut client = match Client::connect(addr, Duration::from_secs(5)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("warning: cannot fetch server stats from {addr}: {e}");
            return None;
        }
    };
    match client.call(&Request::Stats) {
        Ok(Response::Stats(body)) => {
            let path = |keys: &[&str]| -> u64 {
                let mut node = &body;
                for k in keys {
                    match node.get(k) {
                        Some(next) => node = next,
                        None => return 0,
                    }
                }
                node.as_u64().unwrap_or(0)
            };
            let hits = path(&["cache", "hits"]);
            println!(
                "server stats [{addr}]: requests={} reorder={} cache_hits={hits} \
                 disk_hits={} misses={} coalesced={} shed={} evictions={} queue_peak={} \
                 pipeline_tasks={}",
                path(&["requests", "total"]),
                path(&["requests", "reorder"]),
                path(&["cache", "disk_hits"]),
                path(&["cache", "misses"]),
                path(&["cache", "coalesced"]),
                path(&["shed"]),
                path(&["cache", "evictions"]),
                path(&["queue", "peak"]),
                path(&["pipeline", "tasks"]),
            );
            // Server-side request latency excludes client queueing, so
            // it is the honest cold-vs-cached comparison.
            let cold_mean = path(&["latency", "cold", "mean_us"]);
            let hit_mean = path(&["latency", "hit", "mean_us"]);
            println!(
                "server latency [{addr}]: cold mean {cold_mean} us (n={}), cached mean \
                 {hit_mean} us (n={}), ratio {:.1}x",
                path(&["latency", "cold", "count"]),
                path(&["latency", "hit", "count"]),
                cold_mean as f64 / (hit_mean as f64).max(1.0)
            );
            // Queue wait (time in the accept queue) and service time
            // (dispatch to reply) are separate accumulators; reporting
            // them apart shows whether latency came from load or from
            // the pipeline itself.
            println!(
                "server queueing [{addr}]: queue-wait mean {} us / max {} us (n={}), \
                 service mean {} us / max {} us (n={})",
                path(&["latency", "queue_wait", "mean_us"]),
                path(&["latency", "queue_wait", "max_us"]),
                path(&["latency", "queue_wait", "count"]),
                path(&["latency", "service", "mean_us"]),
                path(&["latency", "service", "max_us"]),
                path(&["latency", "service", "count"]),
            );
            Some(hits)
        }
        Ok(other) => {
            eprintln!("warning: {addr}: unexpected stats reply {other:?}");
            None
        }
        Err(e) => {
            eprintln!("warning: {addr}: stats request failed: {e}");
            None
        }
    }
}

fn parse_args() -> Opts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts::default();
    let mut quick = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "-h" | "--help" => {
                eprintln!(
                    "usage: reordd-bench (--addr HOST:PORT | --nodes H:P,H:P,...) \
                     [--connections N] [--requests N] [--rounds N] [--gen N] [--seed S] \
                     [--malformed-pct P] [--dup-pct P] [--budget-ms N] [--deadline-ms N] \
                     [--open-loop] [--quick] [--warm-row] [--trajectory-out PATH] \
                     [--no-verify] [--require-hits] [--shutdown]\n\
                     \n\
                     --nodes H:P,...       shard requests across these nodes by\n\
                     \x20                     consistent-hash on the content key\n\
                     --open-loop           N concurrent sockets x --rounds requests each\n\
                     \x20                     on one event loop (p50/p99/p999 reported)\n\
                     --quick               CI shape: fewer generated programs and rounds\n\
                     --warm-row            add a warm-start row (cached%% vs 90%% floor)\n\
                     \x20                     to the serving trajectory\n\
                     --trajectory-out P    write a bench-diff-compatible serving\n\
                     \x20                     trajectory JSON (open loop only)"
                );
                std::process::exit(0);
            }
            "--no-verify" => opts.verify = false,
            "--require-hits" => opts.require_hits = true,
            "--shutdown" => opts.shutdown = true,
            "--open-loop" => opts.open_loop = true,
            "--quick" => quick = true,
            "--warm-row" => opts.warm_row = true,
            "--addr" | "--nodes" | "--connections" | "--requests" | "--rounds" | "--gen"
            | "--seed" | "--malformed-pct" | "--dup-pct" | "--budget-ms" | "--deadline-ms"
            | "--trajectory-out" => {
                i += 1;
                let Some(value) = args.get(i) else {
                    eprintln!("error: {flag} needs a value");
                    std::process::exit(2);
                };
                let num = || -> u64 {
                    value.parse().unwrap_or_else(|_| {
                        eprintln!("error: {flag} needs a number, got {value:?}");
                        std::process::exit(2);
                    })
                };
                match flag {
                    "--addr" => opts.nodes = vec![value.clone()],
                    "--nodes" => {
                        opts.nodes = value
                            .split(',')
                            .map(str::trim)
                            .filter(|s| !s.is_empty())
                            .map(str::to_string)
                            .collect();
                    }
                    "--connections" => opts.connections = num().max(1) as usize,
                    "--requests" => opts.requests = num() as usize,
                    "--rounds" => opts.rounds = num().max(1) as usize,
                    "--gen" => opts.gen = num() as usize,
                    "--seed" => opts.seed = num(),
                    "--malformed-pct" => opts.malformed_pct = num().min(100) as u32,
                    "--dup-pct" => opts.dup_pct = num().min(100) as u32,
                    "--budget-ms" => opts.budget_ms = Some(num()),
                    "--deadline-ms" => opts.deadline_ms = num().max(1),
                    "--trajectory-out" => opts.trajectory_out = Some(value.clone()),
                    _ => unreachable!(),
                }
            }
            other => {
                eprintln!("error: unexpected argument {other} (try --help)");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if opts.nodes.is_empty() {
        eprintln!("error: --addr or --nodes is required (try --help)");
        std::process::exit(2);
    }
    if opts.malformed_pct + opts.dup_pct > 100 {
        eprintln!("error: --malformed-pct + --dup-pct must be <= 100");
        std::process::exit(2);
    }
    if quick {
        // The CI shape: the full workload corpus but fewer generated
        // programs and rounds, so a 1000-connection run stays seconds.
        opts.gen = opts.gen.min(4);
        opts.rounds = opts.rounds.min(2);
        opts.requests = opts.requests.min(200);
    }
    opts
}
