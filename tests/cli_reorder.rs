//! End-to-end tests for the `reorder-prolog` binary: stdin input, parse
//! diagnostics, and the machine-readable timings surface.

use std::io::Write;
use std::process::{Command, Output, Stdio};

const PROGRAM: &str = "girl(ann). girl(sue).\n\
                       wife(tom, amy). wife(jim, eve).\n\
                       female(X) :- girl(X).\n\
                       female(X) :- wife(_, X).\n";

fn run_cli(args: &[&str], stdin_text: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_reorder-prolog"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    // Ignore write errors: the error-path cases exit during argument
    // parsing without reading stdin, so the pipe may already be closed.
    let _ = child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(stdin_text.as_bytes());
    child.wait_with_output().unwrap()
}

fn temp_file(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("reorder-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path
}

#[test]
fn stdin_input_matches_the_library_pipeline() {
    let out = run_cli(&["-"], PROGRAM);
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    let expected = reorder::reorder_source(PROGRAM, &reorder::ReorderConfig::default())
        .unwrap()
        .text;
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
}

#[test]
fn calibrate_flags_run_the_loop_and_print_the_report() {
    let out = run_cli(&["-", "--calibrate", "2", "--calibrate-report"], PROGRAM);
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    let text = String::from_utf8_lossy(&out.stdout);
    prolog_syntax::parse_program(&text).expect("calibrated output parses");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("calibration:"), "stderr: {stderr}");
    assert!(stderr.contains("divergence"), "stderr: {stderr}");
    assert!(stderr.contains("round 0:"), "stderr: {stderr}");
    // The CLI result matches the library loop byte for byte.
    let (expected, _) = reorder::calibrate_source(
        PROGRAM,
        &reorder::ReorderConfig::default(),
        &reorder::CalibrationOptions {
            rounds: 2,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(text, expected.text);
}

#[test]
fn calibrate_rejects_a_missing_round_count() {
    let out = run_cli(&["-", "--calibrate"], PROGRAM);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--calibrate needs"), "got: {stderr}");
}

#[test]
fn stdin_and_file_input_agree_byte_for_byte() {
    let path = temp_file("fam.pl", PROGRAM);
    let from_file = run_cli(&[path.to_str().unwrap()], "");
    let from_stdin = run_cli(&["-"], PROGRAM);
    assert!(from_file.status.success());
    assert_eq!(from_file.stdout, from_stdin.stdout);
}

#[test]
fn parse_error_in_file_exits_nonzero_with_position() {
    let path = temp_file("bad.pl", "p(1).\nq(oops.\n");
    let out = run_cli(&[path.to_str().unwrap()], "");
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "no program on stdout");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let file = path.to_string_lossy();
    assert!(
        stderr.contains(&format!("{file}:2:")),
        "diagnostic should carry file:line, got: {stderr}"
    );
    assert!(stderr.starts_with("error: "), "got: {stderr}");
}

/// Reading a 200k-deep term without a limit overflows the stack and
/// aborts the process (exit 134); past the nesting limit it is an
/// ordinary positioned diagnostic.
#[test]
fn a_200k_deep_term_is_a_diagnostic_not_an_abort() {
    let depth = 200_000;
    let text = format!("p({}a{}.\n", "f(".repeat(depth), ")".repeat(depth + 1));
    let path = temp_file("deep.pl", &text);
    let out = run_cli(&[path.to_str().unwrap()], "");
    assert_eq!(out.status.code(), Some(1), "{:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let file = path.to_string_lossy();
    assert!(
        stderr.starts_with(&format!("error: {file}:1:")) && stderr.contains("nested deeper"),
        "diagnostic should carry file:line:col, got: {stderr}"
    );
}

#[test]
fn parse_error_on_stdin_names_stdin() {
    let out = run_cli(&["-"], "p(1).\n\nbroken(.\n");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("<stdin>:3:"),
        "diagnostic should carry <stdin>:line, got: {stderr}"
    );
}

#[test]
fn timings_json_emits_the_shared_runstats_encoding() {
    let out = run_cli(&["-", "--timings-json"], PROGRAM);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let json_line = stderr
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("a JSON object line on stderr");
    assert!(json_line.ends_with('}'));
    for key in [
        "\"jobs\":",
        "\"tasks\":",
        "\"planning_us\":",
        "\"reordering_us\":",
        "\"emission_us\":",
        "\"total_us\":",
        "\"estimate_hits\":",
    ] {
        assert!(json_line.contains(key), "missing {key} in {json_line}");
    }
    // The human format stays human (and absent unless asked for).
    assert!(!stderr.contains("stage timings"));
    let human = run_cli(&["-", "--timings"], PROGRAM);
    let human_err = String::from_utf8_lossy(&human.stderr);
    assert!(human_err.contains("stage timings"));
    assert!(!human_err.contains("\"planning_us\""));
    // The program on stdout is unaffected by either flag.
    assert_eq!(out.stdout, human.stdout);
}

#[test]
fn datalog_backend_reorders_bodies_and_reports() {
    const DATALOG: &str = "parent(a, b). parent(b, c). parent(a, d).\n\
                           sibling(X, Y) :- parent(P, X), parent(P, Y), X \\== Y.\n\
                           anc(X, Y) :- parent(X, Y).\n\
                           anc(X, Y) :- anc(X, Z), parent(Z, Y).\n\
                           max(X, Y, X) :- X >= Y, !.\n\
                           max(_, Y, Y).\n";
    let out = run_cli(&["-", "--backend", "datalog", "--datalog-report"], DATALOG);
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    let text = String::from_utf8_lossy(&out.stdout);
    prolog_syntax::parse_program(&text).expect("datalog output parses");
    // The safe fragment is emitted (possibly reordered); the rejected
    // clause passes through unchanged.
    assert!(text.contains("sibling(X, Y) :- "), "got: {text}");
    assert!(text.contains("max(X, Y, X) :- X >= Y, !."), "got: {text}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("datalog safety: 3 predicate(s) certified, 1 rejected"),
        "got: {stderr}"
    );
    assert!(
        stderr.contains("max/3 clause 1: cut is not expressible in Datalog"),
        "got: {stderr}"
    );
    assert!(
        stderr.contains("evaluation (chain-cost ordering):"),
        "got: {stderr}"
    );
    assert!(stderr.contains("facts derived:  6"), "got: {stderr}");
}

#[test]
fn datalog_order_strategies_are_selectable_and_as_written_is_identity() {
    const DATALOG: &str = "p(a). p(b). q(b).\n\
                           r(X) :- p(X), q(X).\n";
    let as_written = run_cli(&["-", "--datalog-order", "as-written"], DATALOG);
    assert!(
        as_written.status.success(),
        "stderr: {:?}",
        as_written.stderr
    );
    let text = String::from_utf8_lossy(&as_written.stdout);
    assert!(text.contains("r(X) :- p(X), q(X)."), "got: {text}");
    let bad = run_cli(&["-", "--datalog-order", "sideways"], DATALOG);
    assert_eq!(bad.status.code(), Some(2));
    let incompatible = run_cli(&["-", "--backend", "datalog", "--calibrate", "2"], DATALOG);
    assert_eq!(incompatible.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&incompatible.stderr);
    assert!(stderr.contains("cannot be combined"), "got: {stderr}");
}

/// The acceptance path for the tracing tentpole: a full run on the
/// family workload with `--trace-out` writes Chrome trace-event JSON
/// that parses, carries the golden envelope, pairs every B with an E,
/// and contains the pipeline's stage spans.
#[test]
fn trace_out_on_the_family_workload_is_valid_chrome_json() {
    use reordd::Json;

    let family = concat!(env!("CARGO_MANIFEST_DIR"), "/../../samples/family.pl");
    let trace_path = temp_file("family-trace.json", "");
    let out = run_cli(
        &[
            family,
            "-o",
            "/dev/null",
            "--trace-out",
            trace_path.to_str().unwrap(),
        ],
        "",
    );
    assert!(out.status.success(), "stderr: {:?}", out.stderr);

    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    let doc = Json::parse(&text).expect("trace parses as JSON");
    assert_eq!(
        doc.get("schema_version").and_then(Json::as_u64),
        Some(prolog_trace::TRACE_SCHEMA_VERSION)
    );
    assert_eq!(doc.get("dropped").and_then(Json::as_u64), Some(0));
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("traceEvents must be an array");
    };
    assert!(!events.is_empty());

    // Every event has the chrome-required fields; B/E counts balance.
    let mut begins = 0i64;
    let mut names = std::collections::HashSet::new();
    for event in events {
        for field in ["name", "cat", "ph", "ts", "pid", "tid"] {
            assert!(event.get(field).is_some(), "event missing {field}");
        }
        let name = event.get("name").and_then(Json::as_str).unwrap();
        names.insert(name.to_string());
        match event.get("ph").and_then(Json::as_str).unwrap() {
            "B" => begins += 1,
            "E" => begins -= 1,
            "i" => assert_eq!(event.get("s").and_then(Json::as_str), Some("t")),
            "C" => {}
            other => panic!("unexpected phase {other}"),
        }
        assert!(begins >= 0, "E before its B");
    }
    assert_eq!(begins, 0, "every span must close");

    for expected in [
        "reorder.pipeline",
        "reorder.parse",
        "reorder.run",
        "reorder.planning",
        "reorder.emit_text",
    ] {
        assert!(
            names.contains(expected),
            "missing span {expected}: {names:?}"
        );
    }
}
