//! `bench-diff` — the regression gate over two `bench-suite` trajectory
//! files.
//!
//! ```text
//! usage: bench-diff BASELINE.json NEW.json [--threshold PCT] [--min-ratio SECTION:R]...
//! ```
//!
//! Joins the two files' section rows by `(section, label)` and exits
//! nonzero when any matched row's **reordered call count** regressed by
//! more than the threshold (default 10%), when a row lost set
//! equivalence, or when the schema versions differ. Rows present in only
//! one file are reported but do not fail the diff — a `--quick` run is a
//! strict subset of a full baseline, and counts are deterministic, so
//! subset-vs-full comparisons are exact on the shared rows. Wall times
//! and latencies are never gated: they belong to the machine, the call
//! counts belong to the algorithm.
//!
//! Zero is never neutral. A count that *grows from* a zero baseline or
//! *collapses to* zero fails outright, whatever the threshold — a
//! percentage of zero gates nothing, and a measurement that stopped
//! calling anything is broken, not infinitely fast. Rows missing their
//! `original`/`reordered` counts (or carrying non-integer values) are a
//! schema error (exit 2), not an implicit zero: a malformed trajectory
//! must never read as a pass.
//!
//! `--min-ratio SECTION:R` (repeatable) additionally gates every new-run
//! row of `SECTION` on its `original/reordered` ratio, recomputed from
//! the counts: below `R` fails. CI uses `--min-ratio calibration:1.0` to
//! pin the closed-loop recalibration at "never slower than the original
//! program". A floor on a section with no row in the new run is a usage
//! error (exit 2): it would gate nothing, so a misspelt or vanished
//! section must not read as a pass.

use bench_harness::suite::BENCH_SCHEMA_VERSION;
use reordd::Json;

struct RowKey {
    section: String,
    label: String,
}

struct RowData {
    original: u64,
    reordered: u64,
    equivalent: bool,
}

impl RowData {
    /// `original / reordered`, recomputed from the counts (the stored
    /// `ratio` field is presentation, not the source of truth). Same
    /// zero conventions as `bench_harness::Row::ratio`: finite always,
    /// `0/0` neutral, collapse-to-zero reads as `original`.
    fn ratio(&self) -> f64 {
        match (self.original, self.reordered) {
            (0, 0) => 1.0,
            (original, 0) => original as f64,
            (original, reordered) => original as f64 / reordered as f64,
        }
    }
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(2);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("error: {path} is not valid JSON: {e:?}");
        std::process::exit(2);
    })
}

fn rows(doc: &Json, path: &str) -> Vec<(RowKey, RowData)> {
    let Some(Json::Arr(sections)) = doc.get("sections") else {
        eprintln!("error: {path} has no sections array");
        std::process::exit(2);
    };
    let mut out = Vec::new();
    for section in sections {
        let name = section
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let Some(Json::Arr(rows)) = section.get("rows") else {
            continue;
        };
        for row in rows {
            let label = row
                .get("label")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string();
            // Counts are required: defaulting an absent or non-integer
            // count to 0 would let a malformed row sail under every
            // gate (0 is never over any limit).
            let count = |field: &str| -> u64 {
                row.get(field).and_then(Json::as_u64).unwrap_or_else(|| {
                    eprintln!(
                        "error: {path}: row {name}/{label} has no integer \"{field}\" \
                         (malformed trajectories do not gate as zero)"
                    );
                    std::process::exit(2);
                })
            };
            let original = count("original");
            let reordered = count("reordered");
            let equivalent = row
                .get("equivalent")
                .and_then(Json::as_bool)
                .unwrap_or(false);
            out.push((
                RowKey {
                    section: name.clone(),
                    label,
                },
                RowData {
                    original,
                    reordered,
                    equivalent,
                },
            ));
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<String> = Vec::new();
    let mut threshold_pct = 10.0f64;
    let mut min_ratios: Vec<(String, f64)> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threshold" => {
                i += 1;
                threshold_pct = match args.get(i).map(|s| s.parse::<f64>()) {
                    Some(Ok(p)) if p >= 0.0 => p,
                    _ => {
                        eprintln!("error: --threshold needs a non-negative percentage");
                        std::process::exit(2);
                    }
                };
            }
            "--min-ratio" => {
                i += 1;
                let parsed = args.get(i).and_then(|s| {
                    let (section, ratio) = s.split_once(':')?;
                    let ratio: f64 = ratio.parse().ok()?;
                    (!section.is_empty() && ratio.is_finite() && ratio >= 0.0)
                        .then(|| (section.to_string(), ratio))
                });
                match parsed {
                    Some(pair) => min_ratios.push(pair),
                    None => {
                        eprintln!(
                            "error: --min-ratio needs SECTION:RATIO with a \
                             non-negative finite ratio (e.g. calibration:1.0)"
                        );
                        std::process::exit(2);
                    }
                }
            }
            "-h" | "--help" => {
                eprintln!(
                    "usage: bench-diff BASELINE.json NEW.json [--threshold PCT] \
                     [--min-ratio SECTION:R]..."
                );
                return;
            }
            other => paths.push(other.to_string()),
        }
        i += 1;
    }
    if paths.len() != 2 {
        eprintln!("error: expected exactly two trajectory files (try --help)");
        std::process::exit(2);
    }
    let (base_path, new_path) = (&paths[0], &paths[1]);
    let base = load(base_path);
    let new = load(new_path);

    for (doc, path) in [(&base, base_path), (&new, new_path)] {
        match doc.get("schema_version").and_then(Json::as_u64) {
            Some(BENCH_SCHEMA_VERSION) => {}
            got => {
                eprintln!(
                    "error: {path} has schema_version {got:?}, this bench-diff speaks {BENCH_SCHEMA_VERSION}"
                );
                std::process::exit(2);
            }
        }
    }

    let base_rows = rows(&base, base_path);
    let new_rows = rows(&new, new_path);
    for (section, _) in &min_ratios {
        if !new_rows.iter().any(|(k, _)| k.section == *section) {
            eprintln!(
                "error: --min-ratio {section}: {new_path} has no row in section \"{section}\""
            );
            std::process::exit(2);
        }
    }
    let factor = 1.0 + threshold_pct / 100.0;

    let mut matched = 0usize;
    let mut regressions = 0usize;
    let mut improvements = 0usize;
    for (key, new_row) in &new_rows {
        // The ratio floors gate the new run on its own, join or no join:
        // a row below its section's floor is a regression even if the
        // baseline never measured it.
        for (section, floor) in &min_ratios {
            if key.section == *section && new_row.ratio() < *floor {
                eprintln!(
                    "REGRESSION {}/{}: ratio {:.4} below the {floor:.4} floor \
                     ({} original vs {} reordered calls)",
                    key.section,
                    key.label,
                    new_row.ratio(),
                    new_row.original,
                    new_row.reordered
                );
                regressions += 1;
            }
        }
        let Some((_, base_row)) = base_rows
            .iter()
            .find(|(k, _)| k.section == key.section && k.label == key.label)
        else {
            println!("  new row (not in baseline): {}/{}", key.section, key.label);
            continue;
        };
        matched += 1;
        if !new_row.equivalent {
            eprintln!(
                "REGRESSION {}/{}: set equivalence lost",
                key.section, key.label
            );
            regressions += 1;
            continue;
        }
        // The zero edges bypass the percentage threshold entirely: a
        // percentage of zero gates nothing, and both directions signal
        // a broken measurement, not a performance delta.
        if base_row.reordered == 0 && new_row.reordered > 0 {
            eprintln!(
                "REGRESSION {}/{}: reordered calls grew from a zero baseline to {}",
                key.section, key.label, new_row.reordered
            );
            regressions += 1;
            continue;
        }
        if base_row.reordered > 0 && new_row.reordered == 0 {
            eprintln!(
                "REGRESSION {}/{}: reordered calls collapsed {} -> 0 \
                 (the measurement stopped calling anything)",
                key.section, key.label, base_row.reordered
            );
            regressions += 1;
            continue;
        }
        let limit = (base_row.reordered as f64 * factor).ceil() as u64;
        if new_row.reordered > limit {
            eprintln!(
                "REGRESSION {}/{}: reordered calls {} -> {} (>{:.0}% over baseline)",
                key.section, key.label, base_row.reordered, new_row.reordered, threshold_pct
            );
            regressions += 1;
        } else if new_row.reordered < base_row.reordered {
            println!(
                "  improvement {}/{}: {} -> {}",
                key.section, key.label, base_row.reordered, new_row.reordered
            );
            improvements += 1;
        }
    }
    for (key, _) in &base_rows {
        if !new_rows
            .iter()
            .any(|(k, _)| k.section == key.section && k.label == key.label)
        {
            println!(
                "  baseline row not measured in new run: {}/{}",
                key.section, key.label
            );
        }
    }

    println!(
        "bench-diff: {matched} rows compared, {improvements} improved, {regressions} regressed \
         (threshold {threshold_pct:.0}%)"
    );
    if regressions > 0 {
        std::process::exit(1);
    }
}
