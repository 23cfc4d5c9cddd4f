//! Replays every persisted reproducer under `tests/corpus/` through the
//! oracle. A shrunk case lands there when the difftest CLI catches a
//! real reordering discrepancy; once the underlying bug is fixed, the
//! file stays as a permanent regression fixture — this test is what
//! keeps it honest. An empty (or absent) corpus passes trivially.

use prolog_difftest::{load_case, run_case, OracleConfig};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

fn corpus_paths() -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(corpus_dir()) else {
        return Vec::new(); // no corpus yet
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "pl"))
        .collect();
    paths.sort();
    paths
}

#[test]
fn every_corpus_case_passes_the_oracle() {
    let config = OracleConfig::default();
    let mut failures = Vec::new();
    for path in corpus_paths() {
        let case = load_case(&path).unwrap_or_else(|e| panic!("{e}"));
        let outcome = run_case(&case, &config);
        if let Some(discrepancy) = outcome.discrepancy {
            failures.push(format!("{}: {discrepancy}", path.display()));
        }
    }
    assert!(
        failures.is_empty(),
        "{} corpus case(s) still fail the oracle:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
