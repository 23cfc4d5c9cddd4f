//! Golden schema tests: pin the two JSON surfaces downstream tooling
//! consumes — the committed `BENCH_PR13.json` trajectory and the Chrome
//! trace-event export — so a schema change is a deliberate diff here
//! (and a `schema_version` bump), never an accident.

use bench_harness::suite::{encode_trajectory, run_suite, Depth, BENCH_KIND, BENCH_SCHEMA_VERSION};
use reordd::Json;

fn keys(value: &Json) -> Vec<&str> {
    match value {
        Json::Obj(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn arr(value: &Json) -> &[Json] {
    match value {
        Json::Arr(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

/// The golden trajectory schema, field order included (the encoder emits
/// a stable order; tools may rely on it for diffs).
fn check_trajectory_schema(doc: &Json, expect_reordd: bool) {
    let mut top = vec![
        "schema_version",
        "kind",
        "depth",
        "git_rev",
        "sections",
        "datalog",
    ];
    if expect_reordd {
        top.push("serving");
    }
    assert_eq!(keys(doc), top, "top-level keys");
    assert_eq!(
        doc.get("schema_version").and_then(Json::as_u64),
        Some(BENCH_SCHEMA_VERSION)
    );
    assert_eq!(doc.get("kind").and_then(Json::as_str), Some(BENCH_KIND));

    let sections = arr(doc.get("sections").expect("sections"));
    assert!(!sections.is_empty());
    // The serving section rides the reordd probe switch: it boots real
    // store-backed daemons, which `--no-reordd` environments skip.
    let mut expected_sections = vec![
        "table2",
        "table3",
        "table4",
        "ablation",
        "calibration",
        "datalog",
    ];
    if expect_reordd {
        expected_sections.push("serving");
    }
    assert_eq!(
        sections.len(),
        expected_sections.len(),
        "every section is present at every depth"
    );
    for (section, expected_name) in sections.iter().zip(expected_sections) {
        assert_eq!(keys(section), ["name", "rows"]);
        assert_eq!(
            section.get("name").and_then(Json::as_str),
            Some(expected_name)
        );
        for row in arr(section.get("rows").expect("rows")) {
            assert_eq!(
                keys(row),
                [
                    "label",
                    "original",
                    "reordered",
                    "best",
                    "equivalent",
                    "ratio"
                ],
                "row keys in section {expected_name}"
            );
            assert!(row.get("original").and_then(Json::as_u64).is_some());
            assert!(row.get("reordered").and_then(Json::as_u64).is_some());
            assert!(row.get("equivalent").and_then(Json::as_bool).is_some());
        }
    }

    let datalog = arr(doc.get("datalog").expect("datalog"));
    assert!(
        !datalog.is_empty(),
        "datalog info is present at every depth"
    );
    for run in datalog {
        assert_eq!(
            keys(run),
            [
                "label",
                "facts",
                "facts_derived",
                "strata",
                "delta_sizes",
                "strategies",
                "equivalent"
            ],
            "datalog run keys"
        );
        let strategies = arr(run.get("strategies").expect("strategies"));
        // Bound-first and chain-cost always; as-written joins at the
        // small scale only (quadratic blowup at 10^5+ facts).
        assert!(
            strategies.len() == 2 || strategies.len() == 3,
            "two or three strategies per run"
        );
        let names: Vec<_> = strategies
            .iter()
            .map(|s| s.get("strategy").and_then(Json::as_str).unwrap())
            .collect();
        assert!(names.contains(&"bound-first") && names.contains(&"chain-cost"));
        for strategy in strategies {
            assert_eq!(keys(strategy), ["strategy", "tuples_joined", "rounds"]);
        }
        assert_eq!(run.get("equivalent").and_then(Json::as_bool), Some(true));
    }

    if expect_reordd {
        assert_eq!(
            keys(doc.get("serving").expect("serving")),
            [
                "connections",
                "rounds",
                "attempted",
                "ok",
                "cached",
                "dropped",
                "retries",
                "warm_cached_pct",
                "warm_disk_hits",
            ]
        );
        // The serving gates the committed baseline must always clear:
        // nothing dropped, and the restart served >=90% warm.
        let serving = doc.get("serving").unwrap();
        assert_eq!(
            serving.get("dropped").and_then(Json::as_u64),
            Some(0),
            "baseline serving run dropped requests"
        );
        assert!(
            serving.get("warm_cached_pct").and_then(Json::as_u64) >= Some(90),
            "baseline warm start below the 90% floor"
        );
    }
}

/// The committed baseline at the repo root parses and matches the golden
/// schema — regenerate it with `cargo run -p prolog-bench --bin
/// bench-suite` whenever the encoder changes.
#[test]
fn committed_baseline_matches_golden_schema() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR13.json");
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("committed BENCH_PR13.json must exist at the repo root: {e}"));
    let doc = Json::parse(&text).expect("committed baseline parses");
    check_trajectory_schema(&doc, true);
    assert_eq!(doc.get("depth").and_then(Json::as_str), Some("default"));
}

/// The baseline bump that dropped the `engine` section kept every
/// count: each gated row of `BENCH_PR13.json` carries the counts and
/// equivalence it had in `BENCH_PR12.json` (row by row, because
/// `bench-diff` refuses to compare across schema versions).
#[test]
fn committed_baseline_keeps_the_previous_baselines_counts() {
    let load = |name: &str| {
        let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
        Json::parse(&std::fs::read_to_string(&path).expect("baseline readable"))
            .expect("baseline parses")
    };
    let (new, old) = (load("BENCH_PR13.json"), load("BENCH_PR12.json"));
    let sections = |doc: &Json| arr(doc.get("sections").unwrap()).to_vec();
    let mut compared = 0;
    for section in sections(&new) {
        let name = section.get("name").and_then(Json::as_str).unwrap();
        if name == "serving" {
            continue; // health of one run, not a deterministic count
        }
        let old_section = sections(&old)
            .into_iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("section {name} exists in BENCH_PR12.json"));
        let old_rows = arr(old_section.get("rows").unwrap());
        for row in arr(section.get("rows").unwrap()) {
            let label = row.get("label").and_then(Json::as_str).unwrap();
            let old_row = old_rows
                .iter()
                .find(|r| r.get("label").and_then(Json::as_str) == Some(label))
                .unwrap_or_else(|| panic!("row {name}/{label} exists in BENCH_PR12.json"));
            for field in ["original", "reordered", "equivalent"] {
                assert_eq!(row.get(field), old_row.get(field), "{name}/{label}/{field}");
            }
            compared += 1;
        }
    }
    assert!(compared >= 40, "only {compared} rows compared");
}

/// A fresh quick run emits the same schema (modulo the optional reordd
/// probe) and identical call counts on the rows it shares with the
/// committed baseline — the determinism bench-diff relies on.
#[test]
fn fresh_quick_run_matches_schema_and_baseline_counts() {
    let suite = run_suite(Depth::Quick, false);
    let encoded = encode_trajectory(&suite, "test");
    let doc = Json::parse(&encoded).expect("fresh trajectory parses");
    check_trajectory_schema(&doc, false);

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR13.json");
    let baseline = Json::parse(&std::fs::read_to_string(path).expect("baseline readable"))
        .expect("baseline parses");
    let mut shared = 0;
    for (section, base_section) in arr(doc.get("sections").unwrap())
        .iter()
        .zip(arr(baseline.get("sections").unwrap()))
    {
        for row in arr(section.get("rows").unwrap()) {
            let label = row.get("label").and_then(Json::as_str).unwrap();
            let base_row = arr(base_section.get("rows").unwrap())
                .iter()
                .find(|r| r.get("label").and_then(Json::as_str) == Some(label))
                .unwrap_or_else(|| panic!("quick row {label} must exist in the baseline"));
            for field in ["original", "reordered"] {
                assert_eq!(
                    row.get(field).and_then(Json::as_u64),
                    base_row.get(field).and_then(Json::as_u64),
                    "call counts are deterministic: {label}/{field}"
                );
            }
            shared += 1;
        }
    }
    assert!(shared >= 10, "quick run shares >=10 rows with the baseline");
}

/// The Chrome trace-event export schema: envelope keys, duration-event
/// pairing fields, instant scope, and counter shape.
#[test]
fn chrome_trace_export_matches_golden_schema() {
    // Process-global tracing: serialise with anything else that toggles it.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());

    let _ = prolog_trace::drain();
    prolog_trace::enable();
    {
        let _outer = prolog_trace::span_with("golden.outer", || {
            prolog_trace::fields::Obj::new().u64("k", 7)
        });
        prolog_trace::instant("golden.tick");
        prolog_trace::counter("golden.count", 2.0);
    }
    prolog_trace::disable();
    let trace = prolog_trace::drain();
    let json = trace.to_chrome_json();
    let doc = Json::parse(&json).expect("chrome export parses");

    assert_eq!(keys(&doc), ["schema_version", "dropped", "traceEvents"]);
    assert_eq!(
        doc.get("schema_version").and_then(Json::as_u64),
        Some(prolog_trace::TRACE_SCHEMA_VERSION)
    );
    assert_eq!(doc.get("dropped").and_then(Json::as_u64), Some(0));

    let events = arr(doc.get("traceEvents").expect("traceEvents"));
    let find = |name: &str, ph: &str| {
        events
            .iter()
            .find(|e| {
                e.get("name").and_then(Json::as_str) == Some(name)
                    && e.get("ph").and_then(Json::as_str) == Some(ph)
            })
            .unwrap_or_else(|| panic!("no {ph} event named {name}"))
    };

    let begin = find("golden.outer", "B");
    for field in ["name", "cat", "ph", "ts", "pid", "tid", "args"] {
        assert!(begin.get(field).is_some(), "B event missing {field}");
    }
    assert_eq!(begin.get("cat").and_then(Json::as_str), Some("reorder"));
    assert_eq!(begin.get("pid").and_then(Json::as_u64), Some(1));
    let args = begin.get("args").expect("B args");
    assert!(args.get("span_id").and_then(Json::as_u64).is_some());
    assert_eq!(args.get("k").and_then(Json::as_u64), Some(7));

    let end = find("golden.outer", "E");
    assert_eq!(
        end.get("args")
            .and_then(|a| a.get("span_id"))
            .and_then(Json::as_u64),
        args.get("span_id").and_then(Json::as_u64),
        "B/E pair shares a span_id"
    );

    let instant = find("golden.tick", "i");
    assert_eq!(
        instant.get("s").and_then(Json::as_str),
        Some("t"),
        "instants are thread-scoped"
    );
    assert_eq!(
        instant
            .get("args")
            .and_then(|a| a.get("span_id"))
            .and_then(Json::as_u64),
        args.get("span_id").and_then(Json::as_u64),
        "instant attributes to the enclosing span"
    );

    let counter = find("golden.count", "C");
    assert_eq!(
        counter
            .get("args")
            .and_then(|a| a.get("value"))
            .and_then(Json::as_f64),
        Some(2.0)
    );
}
