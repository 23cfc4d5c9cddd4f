//! End-to-end smoke tests against a real `reordd` process: protocol
//! round-trips, cache behaviour, parse/malformed-input robustness,
//! budget expiry, overload shedding, and graceful shutdown.

use reordd::{Client, ErrorCode, Json, Request, Response, WireConfig};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const CONNECT_TIMEOUT: Duration = Duration::from_secs(30);

/// A `reordd` child process bound to an ephemeral port.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(extra_args: &[&str]) -> Daemon {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let port_file = std::env::temp_dir().join(format!(
            "reordd-smoke-{}-{}.port",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = std::fs::remove_file(&port_file);
        let child = Command::new(env!("CARGO_BIN_EXE_reordd"))
            .args(["--addr", "127.0.0.1:0", "--port-file"])
            .arg(&port_file)
            .args(extra_args)
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn reordd");
        let deadline = Instant::now() + Duration::from_secs(30);
        let addr = loop {
            if let Ok(contents) = std::fs::read_to_string(&port_file) {
                let trimmed = contents.trim();
                if !trimmed.is_empty() {
                    break trimmed.to_string();
                }
            }
            assert!(
                Instant::now() < deadline,
                "reordd did not write its port file"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        let _ = std::fs::remove_file(&port_file);
        Daemon { child, addr }
    }

    fn client(&self) -> Client {
        Client::connect(self.addr.as_str(), CONNECT_TIMEOUT).expect("connect to reordd")
    }

    /// Sends `shutdown`, expects the acknowledgement, and waits for the
    /// process to drain and exit 0.
    fn shutdown_and_wait(mut self, client: &mut Client) {
        match client.call(&Request::Shutdown) {
            Ok(Response::ShuttingDown) => {}
            other => panic!("expected shutting_down, got {other:?}"),
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait().expect("wait for reordd") {
                Some(status) => {
                    assert!(status.success(), "reordd exited with {status}");
                    return;
                }
                None => {
                    assert!(
                        Instant::now() < deadline,
                        "reordd did not exit after shutdown"
                    );
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Idempotent: kill errors if the child already exited cleanly.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn stat(body: &Json, path: &[&str]) -> u64 {
    let mut node = body;
    for key in path {
        node = node
            .get(key)
            .unwrap_or_else(|| panic!("stats reply missing {path:?}"));
    }
    node.as_u64()
        .unwrap_or_else(|| panic!("stats field {path:?} is not a number"))
}

fn reorder_request(program: &str) -> Request {
    Request::Reorder {
        program: program.to_string(),
        config: WireConfig::default(),
        budget_ms: None,
    }
}

#[test]
fn smoke_roundtrip_cache_and_robustness() {
    let daemon = Daemon::spawn(&[]);
    let mut client = daemon.client();

    // Liveness.
    assert!(matches!(client.call(&Request::Ping), Ok(Response::Pong)));

    // First reorder is a cold run, byte-identical to the library (and so,
    // transitively via the CLI tests, to `reorder-prolog`).
    let source = prolog_workloads::corpus_program("family")
        .expect("family workload exists")
        .text;
    let expected = reorder::reorder_source(&source, &WireConfig::default().to_reorder_config(1))
        .expect("family parses")
        .text;
    let (program, cached, pipeline) = match client.call(&reorder_request(&source)) {
        Ok(Response::Reordered {
            program,
            cached,
            pipeline,
            ..
        }) => (program, cached, pipeline),
        other => panic!("expected a result, got {other:?}"),
    };
    assert!(!cached, "first request must be a cold run");
    assert_eq!(program, expected, "service output must match the library");
    assert!(
        pipeline.get("total_us").and_then(Json::as_u64).is_some(),
        "cold result carries pipeline stats"
    );

    // Second identical request is a cache hit with identical bytes.
    match client.call(&reorder_request(&source)) {
        Ok(Response::Reordered {
            program, cached, ..
        }) => {
            assert!(cached, "second request must hit the cache");
            assert_eq!(program, expected, "hit must be byte-identical to miss");
        }
        other => panic!("expected a result, got {other:?}"),
    }

    // A malformed program gets a structured parse error with a position —
    // and does not disturb the connection.
    match client.call(&reorder_request("p(1).\nq(")) {
        Ok(Response::Error(err)) => {
            assert_eq!(err.code, ErrorCode::Parse);
            assert_eq!(err.line, 2, "parse error reports the offending line");
            assert!(err.col > 0);
        }
        other => panic!("expected a parse error, got {other:?}"),
    }

    // A frame that is not even JSON gets `bad_request`; framing stays
    // intact, so the connection remains usable.
    match client.call_raw(b"this is not json") {
        Ok(Response::Error(err)) => assert_eq!(err.code, ErrorCode::BadRequest),
        other => panic!("expected bad_request, got {other:?}"),
    }
    match client.call_raw(br#"{"v":1,"type":"no-such-type"}"#) {
        Ok(Response::Error(err)) => assert_eq!(err.code, ErrorCode::BadRequest),
        other => panic!("expected bad_request, got {other:?}"),
    }
    assert!(
        matches!(client.call(&Request::Ping), Ok(Response::Pong)),
        "connection survives malformed payloads"
    );

    // Stats reflect all of the above.
    let stats = match client.call(&Request::Stats) {
        Ok(Response::Stats(body)) => body,
        other => panic!("expected stats, got {other:?}"),
    };
    assert_eq!(stat(&stats, &["requests", "reorder"]), 3);
    assert_eq!(stat(&stats, &["cache", "hits"]), 1);
    assert_eq!(stat(&stats, &["cache", "misses"]), 2); // family + malformed
    assert_eq!(stat(&stats, &["requests", "parse_errors"]), 1);
    assert_eq!(stat(&stats, &["requests", "bad_requests"]), 2);
    assert_eq!(stat(&stats, &["requests", "panics"]), 0);
    assert!(stat(&stats, &["cache", "entries"]) >= 2);
    assert_eq!(stat(&stats, &["shed"]), 0);
    assert!(
        stat(&stats, &["pipeline", "total_us"]) > 0,
        "stats carry aggregated pipeline timings"
    );

    // Queue wait and service time are exposed as separate accumulators
    // (the `stat` helper panics if either path is missing). Service time
    // covers exactly the successful reorders — cold plus cached — while
    // queue wait counts connections handed to a worker.
    let service_count = stat(&stats, &["latency", "service", "count"]);
    assert_eq!(
        service_count,
        stat(&stats, &["latency", "cold", "count"]) + stat(&stats, &["latency", "hit", "count"]),
        "service time aggregates cold and cached requests"
    );
    assert_eq!(service_count, 2);
    assert!(
        stat(&stats, &["latency", "queue_wait", "count"]) >= 1,
        "every accepted connection records its queue wait"
    );
    let _ = stat(&stats, &["latency", "queue_wait", "mean_us"]);
    let _ = stat(&stats, &["latency", "queue_wait", "max_us"]);
    let _ = stat(&stats, &["latency", "service", "mean_us"]);

    daemon.shutdown_and_wait(&mut client);
}

#[test]
fn calibrate_installs_overrides_and_invalidates_stale_cache_entries() {
    let daemon = Daemon::spawn(&[]);
    let mut client = daemon.client();

    let source = "girl(ann). girl(sue).\n\
                  wife(tom, amy). wife(jim, eve).\n\
                  female(X) :- girl(X).\n\
                  female(X) :- wife(_, X).\n\
                  grandmother(GC, GM) :- grandparent(GC, GM), female(GM).\n\
                  grandparent(GC, GP) :- parent(P, GP), parent(GC, P).\n\
                  parent(C, P) :- mother(C, P).\n\
                  parent(C, P) :- mother(C, M), wife(P, M).\n\
                  mother(bob, ann). mother(tom, sue).\n";

    // Seed the cache with the uncalibrated result.
    match client.call(&reorder_request(source)) {
        Ok(Response::Reordered { cached, .. }) => assert!(!cached),
        other => panic!("expected a result, got {other:?}"),
    }
    match client.call(&reorder_request(source)) {
        Ok(Response::Reordered { cached, .. }) => assert!(cached),
        other => panic!("expected a result, got {other:?}"),
    }

    // Calibrate: the reply matches the library loop byte for byte, and
    // the stale uncalibrated cache entry is invalidated.
    let calibrate = Request::Calibrate {
        program: source.to_string(),
        config: WireConfig::default(),
        rounds: 3,
        budget_ms: None,
    };
    let expected = reorder::calibrate_source(
        source,
        &WireConfig::default().to_reorder_config(1),
        &reorder::CalibrationOptions {
            rounds: 3,
            ..Default::default()
        },
    )
    .expect("program parses")
    .0
    .text;
    let calibrated_text = match client.call(&calibrate) {
        Ok(Response::Calibrated {
            program,
            cached,
            rounds,
            converged,
            invalidated,
            pipeline,
            ..
        }) => {
            assert!(!cached, "first calibrate must run the loop");
            assert_eq!(program, expected, "daemon loop must match the library");
            assert!((1..=3).contains(&rounds));
            assert!(converged, "the toy program must reach its fixed point");
            assert!(
                invalidated >= 1,
                "the stale uncalibrated entry must be invalidated"
            );
            assert!(pipeline.get("total_us").and_then(Json::as_u64).is_some());
            program
        }
        other => panic!("expected a calibrated result, got {other:?}"),
    };

    // A reorder for the same (program, config) now keys on the override
    // set: it is a recompute (the old entry is gone, the new key cannot
    // collide with it) and serves the calibrated plan.
    match client.call(&reorder_request(source)) {
        Ok(Response::Reordered {
            program, cached, ..
        }) => {
            assert!(!cached, "invalidation must force a recompute");
            assert_eq!(
                program, calibrated_text,
                "post-calibration reorders serve the calibrated plan"
            );
        }
        other => panic!("expected a result, got {other:?}"),
    }
    match client.call(&reorder_request(source)) {
        Ok(Response::Reordered {
            program, cached, ..
        }) => {
            assert!(cached, "the calibrated entry is cached under its own key");
            assert_eq!(program, calibrated_text);
        }
        other => panic!("expected a result, got {other:?}"),
    }

    // Re-calibrating the same request is a cache hit with nothing new to
    // invalidate.
    match client.call(&calibrate) {
        Ok(Response::Calibrated {
            cached,
            invalidated,
            ..
        }) => {
            assert!(cached);
            assert_eq!(invalidated, 0);
        }
        other => panic!("expected a calibrated result, got {other:?}"),
    }

    let stats = match client.call(&Request::Stats) {
        Ok(Response::Stats(body)) => body,
        other => panic!("expected stats, got {other:?}"),
    };
    assert_eq!(stat(&stats, &["requests", "calibrate"]), 2);
    assert_eq!(stat(&stats, &["calibration", "requests"]), 2);
    assert_eq!(stat(&stats, &["calibration", "stored"]), 1);
    assert!(stat(&stats, &["cache", "invalidations"]) >= 1);

    daemon.shutdown_and_wait(&mut client);
}

#[test]
fn trace_out_writes_chrome_json_on_drain() {
    let trace_path =
        std::env::temp_dir().join(format!("reordd-smoke-{}.trace.json", std::process::id()));
    let _ = std::fs::remove_file(&trace_path);
    let daemon = Daemon::spawn(&["--trace-out", trace_path.to_str().unwrap()]);
    let mut client = daemon.client();

    let source = prolog_workloads::corpus_program("family")
        .expect("family workload exists")
        .text;
    assert!(matches!(
        client.call(&reorder_request(&source)),
        Ok(Response::Reordered { .. })
    ));
    daemon.shutdown_and_wait(&mut client);

    let json = std::fs::read_to_string(&trace_path).expect("trace file written on drain");
    let _ = std::fs::remove_file(&trace_path);
    assert!(json.starts_with("{\"schema_version\":"));
    assert!(json.contains("\"traceEvents\":["));
    // The request path's own spans are present alongside the pipeline's.
    assert!(json.contains("\"reordd.request\""));
    assert!(json.contains("\"reordd.cache_fetch\""));
    assert!(json.contains("\"reordd.compute\""));
    assert!(json.contains("\"reordd.encode\""));
    assert!(json.contains("\"reordd.queue_wait\""));
    assert!(json.contains("\"reorder.run\""));
    assert!(json.ends_with("]}"));
}

#[test]
fn zero_budget_times_out_then_retry_is_served_from_cache() {
    let daemon = Daemon::spawn(&[]);
    let mut client = daemon.client();

    let source = prolog_workloads::corpus_program("kmbench")
        .expect("kmbench workload exists")
        .text;
    let expected = reorder::reorder_source(&source, &WireConfig::default().to_reorder_config(1))
        .expect("kmbench parses")
        .text;

    // A zero budget expires before any pipeline run can finish; the
    // reply is a structured timeout, not a hang or a dropped connection.
    let request = Request::Reorder {
        program: source.clone(),
        config: WireConfig::default(),
        budget_ms: Some(0),
    };
    match client.call(&request) {
        Ok(Response::Error(err)) => {
            assert_eq!(err.code, ErrorCode::Timeout);
            assert!(err.message.contains("retry"));
        }
        other => panic!("expected a timeout, got {other:?}"),
    }

    // The computation kept running and lands in the cache: retrying the
    // same request (with a real budget) succeeds with identical bytes.
    let deadline = Instant::now() + Duration::from_secs(60);
    let program = loop {
        match client.call(&reorder_request(&source)) {
            Ok(Response::Reordered { program, .. }) => break program,
            Ok(Response::Error(err)) if err.code == ErrorCode::Timeout => {
                assert!(Instant::now() < deadline, "retry never completed");
                std::thread::sleep(Duration::from_millis(50));
            }
            other => panic!("expected a result or timeout, got {other:?}"),
        }
    };
    assert_eq!(program, expected);

    // By now the entry is resident: one more request must be a hit.
    match client.call(&reorder_request(&source)) {
        Ok(Response::Reordered { cached, .. }) => assert!(cached),
        other => panic!("expected a result, got {other:?}"),
    }

    let stats = match client.call(&Request::Stats) {
        Ok(Response::Stats(body)) => body,
        other => panic!("expected stats, got {other:?}"),
    };
    assert!(stat(&stats, &["requests", "timeouts"]) >= 1);

    daemon.shutdown_and_wait(&mut client);
}

/// A program whose reorder run takes many seconds: hundreds of clauses,
/// each at the exhaustive-search width. Occupying the single worker with
/// it (under a bounding budget) makes overload deterministic.
fn slow_program() -> String {
    let mut text = String::new();
    for c in 0..300 {
        let goals: Vec<String> = (0..6).map(|g| format!("q{c}_{g}(A,B,C,D,E,F,G)")).collect();
        text.push_str(&format!("p{c}(A,B,C,D,E,F,G) :- {}.\n", goals.join(", ")));
        for g in 0..6 {
            text.push_str(&format!("q{c}_{g}(a,b,c,d,e,f,g).\n"));
        }
    }
    text
}

#[test]
fn overload_sheds_the_request_and_the_connection_survives() {
    // One worker, queue depth one: a slow request holds the worker, one
    // queued request fills the queue, and the next request must be shed.
    let daemon = Daemon::spawn(&["--workers", "1", "--queue", "1"]);

    // A occupies the only worker: a many-second reorder, bounded by its
    // budget so the worker frees itself even if the box is fast.
    let mut conn_a = daemon.client();
    conn_a
        .send(&Request::Reorder {
            program: slow_program(),
            config: WireConfig::default(),
            budget_ms: Some(5_000),
        })
        .expect("send slow request");
    std::thread::sleep(Duration::from_millis(400));

    // B fills the one queue slot.
    let mut conn_b = daemon.client();
    conn_b.send(&Request::Ping).expect("send queued ping");
    std::thread::sleep(Duration::from_millis(200));

    // C's request must be shed with a structured overload reply — and
    // the connection must stay open: shedding is per request now, so a
    // retry needs no reconnect.
    let mut conn_c = daemon.client();
    match conn_c.call(&Request::Ping) {
        Ok(Response::Error(err)) => {
            assert_eq!(err.code, ErrorCode::Overload);
            assert!(err.message.contains("retry"));
        }
        other => panic!("expected an overload reply, got {other:?}"),
    }

    // Once the worker frees (budget expiry at the latest), B's queued
    // ping is served — the daemon recovered without restarting anything.
    assert!(
        matches!(conn_b.read_reply(), Ok(Response::Pong)),
        "queued request is served when the worker frees"
    );
    // And C retries on the SAME socket, successfully.
    let stats = match conn_c.call(&Request::Stats) {
        Ok(Response::Stats(body)) => body,
        other => panic!("expected stats on the previously-shed connection, got {other:?}"),
    };
    assert!(stat(&stats, &["shed"]) >= 1, "the shed request is counted");
    assert_eq!(stat(&stats, &["workers", "total"]), 1);

    // A's slow request resolves as a result or a structured timeout —
    // never a dropped connection.
    match conn_a.read_reply() {
        Ok(Response::Reordered { .. }) => {}
        Ok(Response::Error(err)) => assert_eq!(err.code, ErrorCode::Timeout),
        other => panic!("expected a result or timeout, got {other:?}"),
    }

    daemon.shutdown_and_wait(&mut conn_c);
}

/// `p(f(f(…a…)))` whose innermost `a` is read at nesting `depth`.
fn nested_fact(depth: usize) -> String {
    format!("p({}a{}.", "f(".repeat(depth - 2), ")".repeat(depth - 1))
}

/// Reading a 200k-deep term without a limit overflows a compute
/// thread's stack, which aborts the whole daemon (`catch_unwind` cannot
/// stop it). Past the reader's nesting limit the request gets a
/// positioned `parse` reply, and the daemon keeps serving.
#[test]
fn a_200k_deep_term_gets_a_parse_reply_and_the_daemon_keeps_serving() {
    let daemon = Daemon::spawn(&[]);
    let mut client = daemon.client();
    match client.call(&reorder_request(&nested_fact(200_000))) {
        Ok(Response::Error(err)) => {
            assert_eq!(err.code, ErrorCode::Parse, "{}", err.message);
            assert_eq!(err.line, 1);
            assert!(err.col > 0);
        }
        other => panic!("expected a parse error, got {other:?}"),
    }
    assert!(matches!(client.call(&Request::Ping), Ok(Response::Pong)));
    daemon.shutdown_and_wait(&mut client);
}

/// The nesting limit leaves room for every stage after the reader:
/// programs whose deepest term sits exactly at the limit — nested
/// arguments, lists, parentheses, negations, and conjunction and
/// disjunction chains — reorder on the daemon's compute thread, and one
/// level deeper is a `parse` reply.
#[test]
fn terms_at_the_nesting_limit_reorder_on_the_compute_thread() {
    // In the goal forms the innermost goal's argument `X` is the deepest
    // term.
    let forms: [fn(usize) -> String; 6] = [
        nested_fact,
        |d| format!("p({}a{}).", "[".repeat(d - 2), "]".repeat(d - 2)),
        |d| format!("p(X) :- {}q(X){}.", "(".repeat(d - 3), ")".repeat(d - 3)),
        |d| format!("p(X) :- {}q(X).", "\\+ ".repeat(d - 3)),
        |d| format!("p(X) :- {}q(X).", "q(X), ".repeat(d - 3)),
        |d| format!("p(X) :- {}q(X).", "q(X) ; ".repeat(d - 3)),
    ];
    let d = prolog_syntax::MAX_TERM_DEPTH;
    let daemon = Daemon::spawn(&[]);
    let mut client = daemon.client();
    for form in forms {
        let program = format!("{}\nq(1). q(2).\n", form(d));
        match client.call(&reorder_request(&program)) {
            Ok(Response::Reordered { .. }) => {}
            other => panic!("{program:.40}…: expected a result, got {other:?}"),
        }
        match client.call(&reorder_request(&form(d + 1))) {
            Ok(Response::Error(err)) => assert_eq!(err.code, ErrorCode::Parse),
            other => panic!("{program:.40}…: expected a parse error, got {other:?}"),
        }
    }
    daemon.shutdown_and_wait(&mut client);
}
