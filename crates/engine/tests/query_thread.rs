//! Each thread that runs queries gets one long-lived query thread, which
//! every engine it queries shares.
//!
//! The trace tells threads apart: every record carries its thread's `tid`,
//! and `engine.query` spans open on the thread that runs the query. This
//! file holds one test on purpose: tracing is process-wide.

use prolog_engine::Engine;
use prolog_trace::fields::Value;
use prolog_trace::Record;

fn engine() -> Engine {
    let mut e = Engine::new();
    e.consult("p(1). p(2).").expect("test program parses");
    e
}

#[test]
fn a_calling_thread_runs_every_query_on_one_query_thread() {
    let _ = prolog_trace::drain();
    prolog_trace::enable();
    {
        let _caller = prolog_trace::span("test.caller");
        let mut first = engine();
        assert!(first.has_solution("p(1)").unwrap());
        assert!(first.has_solution("p(1)").unwrap());
        assert!(engine().has_solution("p(1)").unwrap());
    }
    std::thread::spawn(|| assert!(engine().has_solution("p(2)").unwrap()))
        .join()
        .expect("spawned caller");
    prolog_trace::disable();
    let trace = prolog_trace::drain();

    // (span name, its `goal` field, tid) of every span opened.
    let begins: Vec<(&str, Option<&Value>, u64)> = trace
        .records
        .iter()
        .filter_map(|r| match r {
            Record::Begin {
                name, tid, args, ..
            } => Some((*name, args.as_ref().and_then(|a| a.get("goal")), *tid)),
            _ => None,
        })
        .collect();
    let tids = |name: &str, goal: Option<&str>| -> Vec<u64> {
        let goal = goal.map(|g| Value::Str(g.into()));
        begins
            .iter()
            .filter(|(n, g, _)| *n == name && *g == goal.as_ref())
            .map(|&(_, _, tid)| tid)
            .collect()
    };
    let caller = tids("test.caller", None);
    let here = tids("engine.query", Some("p(1)"));
    let there = tids("engine.query", Some("p(2)"));
    assert_eq!(caller.len(), 1);
    assert_eq!(here.len(), 3, "three queries from the test thread");
    assert!(
        here.iter().all(|&t| t == here[0]),
        "one query thread: {here:?}"
    );
    assert_ne!(here[0], caller[0], "queries leave the calling thread");
    assert_eq!(there.len(), 1);
    assert_ne!(
        there[0], here[0],
        "another calling thread, another query thread"
    );
}
