//! The run record: metric definitions (unit, better direction, exact or
//! measured), the host fingerprint, and the JSON lines a run prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric as `BENCHMARK.json` names it. `exact` marks a count that
/// repeats exactly run to run for a given seed — the only figures a
/// later change may base a count claim on.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// Printed with `--trace 0`, by every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("reorder_ms_p50", "ms", Lower),
    m("reorder_ms_tail", "ms", Lower),
    m("reorder_pps", "1/s", Higher),
    exact("output_bytes", "bytes", Lower),
    m("query_wall_ms", "ms", Lower),
    m("query_speedup", "x", Higher),
    exact("user_calls", "count", Lower),
    m("serve_ms_p50", "ms", Lower),
    m("serve_slo_share", "share", Higher),
    m("ok_share", "share", Higher),
    m("setup_s", "s", Lower),
    m("peak_rss_mb", "MB", Lower),
];

/// Printed with `--trace 1`, by every workload.
pub const PER_LAYER: &[MetricDef] = &[
    m("syntax.parse_ms", "ms", Lower),
    m("syntax.parse_mb_s", "MB/s", Higher),
    m("syntax.emit_ms", "ms", Lower),
    m("syntax.clauses", "count", Lower),
    m("analysis.ms", "ms", Lower),
    m("core.planning_ms", "ms", Lower),
    m("core.search_ms", "ms", Lower),
    m("core.assembly_ms", "ms", Lower),
    m("core.tasks", "count", Lower),
    exact("core.orders_explored", "count", Lower),
    m("core.orders_rejected", "count", Lower),
    m("core.search_yield", "share", Higher),
    m("core.estimate_hit_ratio", "share", Higher),
    m("core.mode_hit_ratio", "share", Higher),
    m("markov.chain_solves", "count", Lower),
    m("markov.chain_hit_ratio", "share", Higher),
    m("engine.load_ms", "ms", Lower),
    m("engine.null_query_us", "us", Lower),
    m("engine.query_ms", "ms", Lower),
    m("engine.queries", "count", Lower),
    m("engine.user_calls", "count", Lower),
    m("engine.builtin_calls", "count", Lower),
    m("engine.unifications", "count", Lower),
    m("engine.unify_per_call", "ratio", Lower),
    m("engine.calls_per_s", "1/s", Higher),
    m("engine.backtracks", "count", Lower),
    m("datalog.certify_ms", "ms", Lower),
    m("datalog.eval_ms", "ms", Lower),
    m("datalog.query_ms", "ms", Lower),
    exact("datalog.tuples_joined", "count", Lower),
    m("datalog.facts_derived", "count", Lower),
    m("datalog.rounds", "count", Lower),
    m("serve_ms_tail", "ms", Lower),
    m("serve_capacity_rps", "1/s", Higher),
    m("reordd.rtt_hit_ms_p50", "ms", Lower),
    m("reordd.rtt_miss_ms_p50", "ms", Lower),
    m("reordd.conn_wait_ms_mean", "ms", Lower),
    m("reordd.queue_wait_us_mean", "us", Lower),
    m("reordd.service_us_mean", "us", Lower),
    m("reordd.cold_us_mean", "us", Lower),
    m("reordd.hit_us_mean", "us", Lower),
    m("reordd.cache_hit_ratio", "share", Higher),
    m("reordd.disk_hits", "count", Higher),
    m("reordd.shed", "count", Lower),
    m("reordd.timeouts", "count", Lower),
    m("store.recover_ms", "ms", Lower),
    m("store.flush_ms", "ms", Lower),
    m("loadgen.offered_rps", "1/s", Higher),
    m("loadgen.lag_ms_tail", "ms", Lower),
    m("loadgen.backlog_max", "count", Lower),
    m("trace.coverage_share", "share", Higher),
    m("trace.untraced_ms", "ms", Lower),
    m("trace.overhead_share", "share", Lower),
    m("failed_share", "share", Lower),
];

/// Metric values of one run, by name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A finite number with all its digits (Rust's shortest round-trip form).
fn json_num(out: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(out, "{value}");
    } else {
        out.push_str("null");
    }
}

/// The last line of a run: `correct`, `attempted`, `failed` and each
/// defined metric with its value and unit. A metric the run could not
/// measure prints as `null`, which no reader mistakes for a measurement.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Values,
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, def) in defs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_str(&mut out, def.name);
        out.push_str(": {\"value\": ");
        json_num(&mut out, values.get(def.name).unwrap_or(f64::NAN));
        out.push_str(", \"unit\": ");
        json_str(&mut out, def.unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// What the run ran on and with.
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub git_rev: String,
}

impl Host {
    pub fn detect() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            git_rev: git_rev(),
        }
    }
}

/// The processor's brand string, read with `cpuid`.
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // SAFETY: `cpuid` exists on every x86-64 processor; leaves
    // 0x8000_0002..=0x8000_0004 are read only after leaf 0x8000_0000
    // reports them.
    #[allow(unused_unsafe)]
    let bytes: Vec<u8> = unsafe {
        if __cpuid(0x8000_0000).eax < 0x8000_0004 {
            return "unknown".to_string();
        }
        (0x8000_0002u32..=0x8000_0004)
            .flat_map(|leaf| {
                let r = __cpuid(leaf);
                [r.eax, r.ebx, r.ecx, r.edx]
            })
            .flat_map(u32::to_le_bytes)
            .collect()
    };
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".to_string()
}

/// The checkout's git revision, or `unknown` outside a git repository.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a writable `struct rusage` of the Linux layout
    // (two timevals, then fourteen longs) that outlives the call.
    if unsafe { getrusage(RUSAGE_SELF, &mut usage) } != 0 {
        return f64::NAN;
    }
    // Linux reports kilobytes.
    usage.maxrss as f64 / 1024.0
}

/// The run-record line: host fingerprint, seed, workload, every metric's
/// unit and better direction with its exactness, and the notes (such as
/// which percentile each `_tail` was read at).
pub fn record_line(
    host: &Host,
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    defs: &[MetricDef],
    notes: &BTreeMap<String, String>,
) -> String {
    let mut out = String::from("{\"run_record\": {\"host\": {\"nproc\": ");
    let _ = write!(out, "{}, \"cpu_model\": ", host.nproc);
    json_str(&mut out, &host.cpu_model);
    out.push_str(", \"rustc\": ");
    json_str(&mut out, host.rustc);
    out.push_str("}, \"git_rev\": ");
    json_str(&mut out, &host.git_rev);
    out.push_str(", \"workload\": ");
    json_str(&mut out, workload);
    let _ = write!(
        out,
        ", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \"metrics\": {{"
    );
    for (i, def) in defs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_str(&mut out, def.name);
        out.push_str(": {\"unit\": ");
        json_str(&mut out, def.unit);
        out.push_str(", \"better\": ");
        json_str(&mut out, def.better.as_str());
        let _ = write!(out, ", \"exact\": {}}}", def.exact);
    }
    out.push_str("}, \"notes\": {");
    for (i, (k, v)) in notes.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_str(&mut out, k);
        out.push_str(": ");
        json_str(&mut out, v);
    }
    out.push_str("}}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use reordd::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json is valid JSON")
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|item| {
                let field = |k: &str| item.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn defined(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.as_str().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn the_metric_table_matches_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(declared(&doc, "end_to_end"), defined(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), defined(PER_LAYER));
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut values = Values::default();
        values.set("setup_s", 0.5);
        let line = result_line(true, 3, 0, &END_TO_END[10..11], &values);
        let doc = Json::parse(&line).unwrap();
        let Json::Obj(members) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.5));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "{} twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def.name.chars().next().unwrap().is_ascii_alphanumeric());
        }
    }
}
