//! Gate semantics of the `bench-diff` binary, driven end to end: the
//! zero edges (growth from a zero baseline, collapse to zero) fail
//! outright, malformed counts are a schema error rather than an
//! implicit zero, and `--min-ratio SECTION:R` floors a section's
//! `original/reordered` ratios (and refuses a section the new run lacks).
//! Each test writes two small trajectory files and checks the exit code
//! and diagnostics of a real run.

use bench_harness::suite::BENCH_SCHEMA_VERSION;
use std::fmt::Write as _;
use std::process::Command;

/// One trajectory row as raw JSON (so tests can also produce malformed
/// rows the library encoder never would).
struct RawRow {
    section: &'static str,
    body: String,
}

fn row(section: &'static str, label: &str, original: u64, reordered: u64) -> RawRow {
    RawRow {
        section,
        body: format!(
            "{{\"label\":\"{label}\",\"original\":{original},\"reordered\":{reordered},\
             \"best\":null,\"equivalent\":true,\"ratio\":1.0}}"
        ),
    }
}

fn trajectory(rows: &[RawRow]) -> String {
    let mut sections: Vec<(&str, Vec<&str>)> = Vec::new();
    for r in rows {
        match sections.iter_mut().find(|(name, _)| *name == r.section) {
            Some((_, bodies)) => bodies.push(&r.body),
            None => sections.push((r.section, vec![&r.body])),
        }
    }
    let mut out = format!("{{\"schema_version\":{BENCH_SCHEMA_VERSION},\"sections\":[");
    for (i, (name, bodies)) in sections.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{name}\",\"rows\":[{}]}}",
            bodies.join(",")
        );
    }
    out.push_str("]}");
    out
}

/// Writes both trajectories to unique temp files and runs bench-diff.
fn run(test: &str, base: &str, new: &str, extra_args: &[&str]) -> (i32, String, String) {
    let dir = std::env::temp_dir();
    let base_path = dir.join(format!(
        "bench_diff_gate_{test}_base_{}.json",
        std::process::id()
    ));
    let new_path = dir.join(format!(
        "bench_diff_gate_{test}_new_{}.json",
        std::process::id()
    ));
    std::fs::write(&base_path, base).expect("write baseline");
    std::fs::write(&new_path, new).expect("write new run");
    let output = Command::new(env!("CARGO_BIN_EXE_bench-diff"))
        .arg(&base_path)
        .arg(&new_path)
        .args(extra_args)
        .output()
        .expect("bench-diff runs");
    let _ = std::fs::remove_file(&base_path);
    let _ = std::fs::remove_file(&new_path);
    (
        output.status.code().expect("bench-diff exits normally"),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn identical_trajectories_pass() {
    let doc = trajectory(&[row("table2", "aunt(-,-)", 100, 50)]);
    let (code, stdout, _) = run("identical", &doc, &doc, &[]);
    assert_eq!(code, 0, "identical trajectories must pass");
    assert!(stdout.contains("1 rows compared"), "stdout: {stdout}");
}

#[test]
fn growth_from_a_zero_baseline_fails_whatever_the_threshold() {
    let base = trajectory(&[row("table2", "aunt(-,-)", 100, 0)]);
    let new = trajectory(&[row("table2", "aunt(-,-)", 100, 5)]);
    // Even an absurdly permissive percentage threshold cannot excuse
    // growth from zero: a percentage of zero gates nothing.
    let (code, _, stderr) = run("zero_growth", &base, &new, &["--threshold", "100000"]);
    assert_eq!(code, 1, "0 -> N must fail; stderr: {stderr}");
    assert!(stderr.contains("zero baseline"), "stderr: {stderr}");
}

#[test]
fn collapse_to_zero_fails_instead_of_counting_as_an_improvement() {
    let base = trajectory(&[row("table2", "aunt(-,-)", 100, 50)]);
    let new = trajectory(&[row("table2", "aunt(-,-)", 100, 0)]);
    let (code, stdout, stderr) = run("zero_collapse", &base, &new, &[]);
    assert_eq!(code, 1, "N -> 0 must fail; stderr: {stderr}");
    assert!(stderr.contains("collapsed"), "stderr: {stderr}");
    assert!(
        !stdout.contains("improvement"),
        "a collapse must not read as an improvement: {stdout}"
    );
}

#[test]
fn both_sides_zero_is_not_a_regression() {
    let doc = trajectory(&[row("table2", "noop", 0, 0)]);
    let (code, _, stderr) = run("zero_zero", &doc, &doc, &[]);
    assert_eq!(code, 0, "0 -> 0 is stable, not broken; stderr: {stderr}");
}

#[test]
fn a_missing_count_is_a_schema_error_not_an_implicit_zero() {
    let good = trajectory(&[row("table2", "aunt(-,-)", 100, 50)]);
    let mut bad_rows = vec![row("table2", "aunt(-,-)", 100, 50)];
    bad_rows[0].body = "{\"label\":\"aunt(-,-)\",\"original\":100,\
                        \"best\":null,\"equivalent\":true,\"ratio\":1.0}"
        .to_string();
    let bad = trajectory(&bad_rows);
    let (code, _, stderr) = run("missing_count", &good, &bad, &[]);
    assert_eq!(
        code, 2,
        "missing \"reordered\" is a schema error; stderr: {stderr}"
    );
    assert!(stderr.contains("reordered"), "stderr: {stderr}");
    // Same on the baseline side.
    let (code, _, _) = run("missing_count_base", &bad, &good, &[]);
    assert_eq!(code, 2);
}

#[test]
fn a_non_integer_count_is_a_schema_error() {
    let good = trajectory(&[row("table2", "aunt(-,-)", 100, 50)]);
    let mut bad_rows = vec![row("table2", "aunt(-,-)", 100, 50)];
    bad_rows[0].body = "{\"label\":\"aunt(-,-)\",\"original\":100,\"reordered\":49.5,\
                        \"best\":null,\"equivalent\":true,\"ratio\":1.0}"
        .to_string();
    let bad = trajectory(&bad_rows);
    let (code, _, stderr) = run("fractional_count", &good, &bad, &[]);
    assert_eq!(
        code, 2,
        "a fractional count is a schema error; stderr: {stderr}"
    );
}

#[test]
fn min_ratio_floors_one_section_and_leaves_the_rest_alone() {
    // calibration row at ratio 0.9, table2 row at ratio 0.5.
    let base = trajectory(&[
        row("calibration", "brother(-,-)", 90, 100),
        row("table2", "aunt(-,-)", 50, 100),
    ]);
    let (code, _, stderr) = run(
        "min_ratio_fail",
        &base,
        &base,
        &["--min-ratio", "calibration:1.0"],
    );
    assert_eq!(code, 1, "0.9 is below the 1.0 floor; stderr: {stderr}");
    assert!(
        stderr.contains("calibration/brother(-,-)"),
        "stderr: {stderr}"
    );
    assert!(
        !stderr.contains("table2"),
        "the floor is per-section; stderr: {stderr}"
    );

    let (code, _, stderr) = run(
        "min_ratio_pass",
        &base,
        &base,
        &["--min-ratio", "calibration:0.8"],
    );
    assert_eq!(code, 0, "0.9 clears a 0.8 floor; stderr: {stderr}");
}

#[test]
fn min_ratio_gates_rows_missing_from_the_baseline() {
    // An unmatched new row is normally informational only — but a ratio
    // floor judges the new run on its own, so it still fails.
    let base = trajectory(&[row("table2", "aunt(-,-)", 100, 50)]);
    let new = trajectory(&[
        row("table2", "aunt(-,-)", 100, 50),
        row("calibration", "average_pay(-,-)", 80, 100),
    ]);
    let (code, _, stderr) = run(
        "min_ratio_unmatched",
        &base,
        &new,
        &["--min-ratio", "calibration:1.0"],
    );
    assert_eq!(
        code, 1,
        "the floor applies without a baseline row; stderr: {stderr}"
    );
}

#[test]
fn malformed_min_ratio_arguments_are_usage_errors() {
    let doc = trajectory(&[row("table2", "aunt(-,-)", 100, 50)]);
    for bad in ["calibration", ":1.0", "calibration:fast", "calibration:-1"] {
        let (code, _, stderr) = run("min_ratio_bad", &doc, &doc, &["--min-ratio", bad]);
        assert_eq!(
            code, 2,
            "--min-ratio {bad} must be rejected; stderr: {stderr}"
        );
    }
}

#[test]
fn min_ratio_on_a_section_without_rows_is_a_usage_error() {
    // A floor that matches no new-run row gates nothing, so a misspelt
    // section, or one the new run no longer has, must not pass.
    let base = trajectory(&[
        row("calibration", "brother(-,-)", 120, 100),
        row("engine", "family", 100, 100),
    ]);
    let new = trajectory(&[row("calibration", "brother(-,-)", 120, 100)]);
    for floor in ["calbration:99", "engine:1.0"] {
        let (code, _, stderr) = run("min_ratio_absent", &base, &new, &["--min-ratio", floor]);
        assert_eq!(
            code, 2,
            "--min-ratio {floor} names no new-run section; stderr: {stderr}"
        );
        let section = floor.split_once(':').unwrap().0;
        assert!(stderr.contains(section), "stderr: {stderr}");
    }
}

#[test]
fn threshold_still_gates_ordinary_regressions() {
    let base = trajectory(&[row("table2", "aunt(-,-)", 100, 50)]);
    let new = trajectory(&[row("table2", "aunt(-,-)", 100, 60)]);
    let (code, _, _) = run("threshold_fail", &base, &new, &[]);
    assert_eq!(code, 1, "a 20% growth breaks the 10% default threshold");
    let (code, _, _) = run("threshold_pass", &base, &new, &["--threshold", "25"]);
    assert_eq!(code, 0, "the same growth clears a 25% threshold");
}
