//! The reorder boundary: program text in, reordered text out, through
//! `reorder::reorder_source` with the shipped configuration.
//!
//! The traced variant makes the same three calls `reorder_source` makes
//! — `parse_program`, `Reorderer::run`, `program_to_string` — timing each
//! from outside and reading the stage durations `Reorderer::run` already
//! reports in `RunStats`.

use crate::inputs::Program;
use crate::stats::{sorted, tail, Tail};
use prolog_analysis::ProgramAnalysis;
use prolog_syntax::pretty::program_to_string;
use reorder::{reorder_source, ReorderConfig, ReorderReport, Reorderer, RunStats};
use std::time::{Duration, Instant};

/// The reordered text and decision report of one program, made in setup;
/// every later pass must reproduce the text byte for byte.
#[derive(Clone)]
pub struct Reference {
    pub text: String,
    pub report: ReorderReport,
}

/// Reorders every program once.
pub fn references(programs: &[Program]) -> Result<Vec<Reference>, String> {
    let config = ReorderConfig::default();
    programs
        .iter()
        .map(|p| {
            reorder_source(&p.text, &config)
                .map(|out| Reference {
                    text: out.text,
                    report: out.report,
                })
                .map_err(|e| format!("{}: {e}", p.name))
        })
        .collect()
}

/// Self time of the reorder boundary's layers, summed over traced passes.
#[derive(Debug, Default)]
pub struct Ledger {
    pub passes: u64,
    /// Wall time of the three calls per program, summed.
    pub e2e_ms: f64,
    pub parse_ms: f64,
    pub parse_bytes: f64,
    pub clauses: f64,
    pub planning_ms: f64,
    pub search_ms: f64,
    pub assembly_ms: f64,
    pub emit_ms: f64,
    /// A separate `ProgramAnalysis::analyze` call per program: part of
    /// planning, so it is reported but not added to the layer total.
    pub analysis_ms: f64,
    pub stats: RunStats,
}

impl Ledger {
    pub fn layers_ms(&self) -> f64 {
        self.parse_ms + self.planning_ms + self.search_ms + self.assembly_ms + self.emit_ms
    }
}

#[derive(Debug, Default)]
pub struct Outcome {
    /// Untraced latency samples, per program, in milliseconds.
    pub samples: Vec<Vec<f64>>,
    pub untraced_passes: u64,
    /// Wall time of every untraced pass, in milliseconds.
    pub pass_ms: Vec<f64>,
    pub ledger: Ledger,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    /// Each program's best (least) untraced reorder time, ascending: the
    /// samples the p50 and tail are read from, so each program counts
    /// once however many passes ran.
    ///
    /// The least, not the median: processor speed on the hosts this was
    /// built on switches between two levels about 1.7x apart every few
    /// seconds, and the median of such a mixture jumps from one level to
    /// the other with the share of slow seconds in a run. The least reads
    /// the fast level whenever a program was timed in it at least once.
    pub fn program_best(&self) -> Vec<f64> {
        sorted(
            &self
                .samples
                .iter()
                .filter(|s| !s.is_empty())
                .map(|s| s.iter().copied().fold(f64::INFINITY, f64::min))
                .collect::<Vec<_>>(),
        )
    }

    pub fn tail(&self) -> Option<Tail> {
        tail(&self.program_best())
    }

    /// Programs reordered per second over the whole set, each at its
    /// best time.
    pub fn programs_per_s(&self) -> f64 {
        let best = self.program_best();
        best.len() as f64 / (best.iter().sum::<f64>() / 1000.0)
    }
}

/// One traced reorder of `text`: parse, run, print, each timed.
fn traced(text: &str, config: &ReorderConfig, ledger: &mut Ledger) -> Result<String, String> {
    let t0 = Instant::now();
    let program = prolog_syntax::parse_program(text).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let result = Reorderer::new(&program, config.clone()).run();
    let t2 = Instant::now();
    let out = program_to_string(&result.program);
    let t3 = Instant::now();
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    let stats = &result.report.stats;
    ledger.e2e_ms += ms(t0, t3);
    ledger.parse_ms += ms(t0, t1);
    ledger.parse_bytes += text.len() as f64;
    ledger.clauses += program.clauses.len() as f64;
    ledger.planning_ms += stats.planning.as_secs_f64() * 1e3;
    ledger.search_ms += stats.reordering.as_secs_f64() * 1e3;
    ledger.assembly_ms += stats.emission.as_secs_f64() * 1e3;
    ledger.emit_ms += ms(t2, t3);
    ledger.stats.merge(stats);

    let t4 = Instant::now();
    std::hint::black_box(ProgramAnalysis::analyze(&program));
    ledger.analysis_ms += t4.elapsed().as_secs_f64() * 1e3;
    Ok(out)
}

/// Reorder passes over every program, run a slice of the measuring time
/// at a time, so that the passes spread over the whole run. With `trace`,
/// passes alternate between untraced and traced.
pub struct Runner {
    config: ReorderConfig,
    rng: rand::rngs::StdRng,
    order: Vec<usize>,
    trace: bool,
    pass: u64,
    out: Outcome,
}

impl Runner {
    pub fn new(programs: usize, trace: bool, order_seed: u64) -> Runner {
        Runner {
            config: ReorderConfig::default(),
            rng: <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(order_seed),
            order: (0..programs).collect(),
            trace,
            pass: 0,
            out: Outcome {
                samples: vec![Vec::new(); programs],
                ..Default::default()
            },
        }
    }

    /// Whole passes until `budget` is spent, at least one.
    pub fn run(&mut self, programs: &[Program], references: &[Reference], budget: Duration) {
        let start = Instant::now();
        loop {
            self.one_pass(programs, references);
            if start.elapsed() >= budget {
                return;
            }
        }
    }

    /// The outcome, once an untraced pass (and with `trace` a traced one)
    /// has run.
    pub fn finish(mut self, programs: &[Program], references: &[Reference]) -> Outcome {
        while self.out.untraced_passes == 0 || (self.trace && self.out.ledger.passes == 0) {
            self.one_pass(programs, references);
        }
        self.out
    }

    fn one_pass(&mut self, programs: &[Program], references: &[Reference]) {
        let traced_pass = self.trace && self.pass % 2 == 1;
        crate::inputs::shuffle(&mut self.order, &mut self.rng);
        let out = &mut self.out;
        let mut pass_ms = 0.0;
        for &i in &self.order {
            let text = &programs[i].text;
            let result = if traced_pass {
                traced(text, &self.config, &mut out.ledger)
            } else {
                let t = Instant::now();
                let result = reorder_source(text, &self.config)
                    .map(|o| o.text)
                    .map_err(|e| e.to_string());
                let ms = t.elapsed().as_secs_f64() * 1e3;
                out.samples[i].push(ms);
                pass_ms += ms;
                result
            };
            out.attempted += 1;
            match result {
                Ok(text) if text == references[i].text => {}
                Ok(_) => {
                    out.failed += 1;
                    eprintln!("reorder: {} emitted different bytes", programs[i].name);
                }
                Err(e) => {
                    out.failed += 1;
                    eprintln!("reorder: {}: {e}", programs[i].name);
                }
            }
        }
        if traced_pass {
            out.ledger.passes += 1;
        } else {
            out.untraced_passes += 1;
            out.pass_ms.push(pass_ms);
        }
        self.pass += 1;
    }
}
