//! The `sim` section: a fixed `mta-sim` kernel corpus on `tera(1)` and
//! `tera(2)`, every run through `Machine::run`.
//!
//! The corpus spans the paper's utilization range (one stream is
//! latency-bound, 128 saturate a processor), thread creation, full/empty
//! synchronization and fetch-add. Every run is compared with goldens
//! recorded from `Machine::run`: cycles, the full `RunResult` (including
//! `SimStats`), and an FNV digest of the final memory and its full/empty
//! bits. The inputs are fixed, so this section ignores the seed.

use crate::stats::{fastest, median};
use crate::trace::Tracer;
use crate::Section;
use mta_sim::kernels;
use mta_sim::{Machine, MtaConfig, Program, RunResult};

/// Simulated memory: enough for every corpus layout.
const MEM_WORDS: usize = 1 << 18;
/// Machine sizes every kernel runs on.
const PROCESSORS: [usize; 2] = [1, 2];
/// Cycle cap per run; the corpus finishes far below it.
const MAX_CYCLES: u64 = 2_000_000_000;

/// Goldens recorded from `Machine::run`, one line per corpus run.
const GOLDENS: &str = include_str!("../goldens/sim.txt");

/// The corpus kernel names, in run order.
pub const CORPUS: [&str; 7] = [
    "mixed1",
    "mixed16",
    "mixed128",
    "chunked_scan",
    "pipeline",
    "reduce",
    "ray_sweep",
];

/// Per-layer metrics this section prints in the traced run.
pub fn layer_names() -> Vec<(String, &'static str)> {
    let mut v = Vec::new();
    for k in CORPUS {
        v.push((format!("mta_sim.run_s.{k}"), "s"));
        v.push((format!("mta_sim.instr.{k}"), "count"));
        v.push((format!("mta_sim.cycles.{k}"), "count"));
        v.push((format!("mta_sim.util.{k}"), "ratio"));
    }
    for c in ["sync_blocked", "forks", "bank_queue_cycles"] {
        v.push((format!("mta_sim.{c}"), "count"));
    }
    v.push(("mta_sim.setup_s".into(), "s"));
    v
}

/// A ready-to-run machine: program assembled, memory initialized, main
/// stream spawned.
fn machine(kernel: &str, procs: usize) -> Machine {
    let cfg = MtaConfig {
        mem_words: MEM_WORDS,
        ..MtaConfig::tera(procs)
    };
    let new =
        |program: Program| Machine::new(cfg.clone(), program).expect("corpus kernel validates");
    let mut m = match kernel {
        "mixed1" => new(kernels::mixed_kernel(1, 4000, 3, 100_000)),
        "mixed16" => new(kernels::mixed_kernel(16, 4000, 3, 100_000)),
        "mixed128" => new(kernels::mixed_kernel(128, 2000, 3, 100_000)),
        "chunked_scan" => {
            let (p, l) = kernels::chunked_scan_kernel(800, 300, 256);
            let mut m = new(p);
            for pair in 0..l.n_pairs {
                let start = (pair * 7 % 13) as u64;
                let base = l.windows_base + 2 * pair;
                m.memory_mut().store(base, start);
                m.memory_mut().store(base + 1, start + (pair % 3) as u64);
            }
            m
        }
        "pipeline" => {
            let (p, l) = kernels::pipeline_kernel(8, 2000);
            let mut m = new(p);
            for c in l.chan_base..=l.chan_base + l.stages {
                m.memory_mut().set_empty(c);
            }
            m
        }
        "reduce" => {
            let (p, l) = kernels::reduce_kernel(20_000, 64);
            let mut m = new(p);
            for i in 0..l.n {
                m.memory_mut().store(l.data_base + i, (i * i % 1009) as u64);
            }
            m
        }
        "ray_sweep" => {
            let (p, l) = kernels::ray_sweep_kernel(256, 200, 128);
            let mut m = new(p);
            for i in 0..l.n_rays * l.len {
                let slope = ((i * 37 % 101) as f64 - 50.0) / 7.0;
                m.memory_mut().store_f64(l.slopes_base + i, slope);
            }
            m
        }
        _ => unreachable!("unknown corpus kernel {kernel}"),
    };
    m.spawn(0, 0).expect("spawn the main stream");
    m
}

fn fnv(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(0x0000_0100_0000_01b3);
}

/// The golden line of one finished run: cycles, instructions, a digest
/// of the whole `RunResult`, and a digest of memory words and full/empty
/// bits.
fn golden_line(kernel: &str, procs: usize, m: &Machine, r: &RunResult) -> String {
    let mut result = 0xcbf2_9ce4_8422_2325;
    for b in format!("{r:?}").bytes() {
        fnv(&mut result, u64::from(b));
    }
    let mut mem = 0xcbf2_9ce4_8422_2325;
    for addr in 0..m.memory().len() {
        fnv(&mut mem, m.memory().load(addr));
        fnv(&mut mem, u64::from(m.memory().is_full(addr)));
    }
    format!(
        "{kernel} p{procs} cycles={} instr={} result={result:016x} memory={mem:016x}",
        r.cycles,
        r.stats.instructions()
    )
}

/// One corpus pass's numbers.
struct Pass {
    setup_s: f64,
    run_s: [f64; CORPUS.len()],
    lines: Vec<String>,
    results: Vec<RunResult>,
}

fn pass(tracer: &Tracer, parent: Option<u64>) -> Pass {
    let mut p = Pass {
        setup_s: 0.0,
        run_s: [0.0; CORPUS.len()],
        lines: Vec::new(),
        results: Vec::new(),
    };
    for (i, k) in CORPUS.iter().enumerate() {
        for procs in PROCESSORS {
            let (mut m, setup) = tracer.span("mta_sim.setup", parent, |_| machine(k, procs));
            let (r, secs) = tracer.span(&format!("mta_sim.run.{k}"), parent, |_| m.run(MAX_CYCLES));
            p.setup_s += setup;
            p.run_s[i] += secs;
            p.lines.push(golden_line(k, procs, &m, &r));
            p.results.push(r);
        }
    }
    p
}

/// The section's state across corpus passes.
#[derive(Default)]
pub struct Sim {
    sec: Section,
    setups: Vec<f64>,
    /// Per untraced pass: host seconds in `Machine::run` per kernel.
    run_s: Vec<[f64; CORPUS.len()]>,
    /// Simulated instructions of one pass.
    instr: u64,
    traced: Vec<Pass>,
}

impl Sim {
    /// One corpus pass, checked against the goldens.
    pub fn rep(&mut self, tracer: &Tracer) {
        let goldens: Vec<&str> = GOLDENS.lines().filter(|l| !l.starts_with('#')).collect();
        let (p, wall) = tracer.span("mta_sim.corpus", None, |id| pass(tracer, id));
        let sec = &mut self.sec;
        if goldens.len() != p.lines.len() {
            sec.problems.push(format!(
                "goldens/sim.txt has {} runs, the corpus {}",
                goldens.len(),
                p.lines.len()
            ));
        }
        for (line, (golden, r)) in p.lines.iter().zip(goldens.iter().zip(&p.results)) {
            sec.attempted += 1;
            if !r.completed || golden != line {
                sec.failed += 1;
                sec.problems
                    .push(format!("sim run differs from its golden: {line}"));
            }
        }
        self.setups.push(p.setup_s);
        if tracer.on() {
            sec.overhead_walls.1.push(wall);
            self.traced.push(p);
        } else {
            sec.overhead_walls.0.push(wall);
            self.instr = p.results.iter().map(|r| r.stats.instructions()).sum();
            self.run_s.push(p.run_s);
        }
    }

    /// Report: MIPS over each kernel's fastest pass, or the traced
    /// passes' layers.
    pub fn finish(mut self, tracer: &Tracer) -> Section {
        self.sec.setup_s = median(&self.setups);
        if !tracer.on() {
            let secs: f64 = (0..CORPUS.len())
                .map(|k| fastest(&self.run_s.iter().map(|p| p[k]).collect::<Vec<_>>()))
                .sum();
            let mips = self.instr as f64 / secs / 1e6;
            self.sec.e2e.push("sim_mips", mips, "MIPS");
            return self.sec;
        }
        let m = &mut self.sec.layer;
        let traced = &self.traced;
        let runs = &traced[0].results;
        for (i, k) in CORPUS.iter().enumerate() {
            let pair = &runs[i * PROCESSORS.len()..(i + 1) * PROCESSORS.len()];
            let instr: u64 = pair.iter().map(|r| r.stats.instructions()).sum();
            let cycles: u64 = pair.iter().map(|r| r.cycles).sum();
            let slots: u64 = pair
                .iter()
                .zip(PROCESSORS)
                .map(|(r, p)| r.cycles * p as u64)
                .sum();
            let secs: Vec<f64> = traced.iter().map(|p| p.run_s[i]).collect();
            m.push(format!("mta_sim.run_s.{k}"), median(&secs), "s");
            m.push(format!("mta_sim.instr.{k}"), instr as f64, "count");
            m.push(format!("mta_sim.cycles.{k}"), cycles as f64, "count");
            m.push(
                format!("mta_sim.util.{k}"),
                instr as f64 / slots as f64,
                "ratio",
            );
        }
        let total = |f: &dyn Fn(&RunResult) -> u64| runs.iter().map(f).sum::<u64>() as f64;
        m.push(
            "mta_sim.sync_blocked",
            total(&|r| r.stats.sync.blocked),
            "count",
        );
        m.push("mta_sim.forks", total(&|r| r.stats.threads.forks), "count");
        m.push(
            "mta_sim.bank_queue_cycles",
            total(&|r| r.stats.memory.bank_queue_cycles),
            "count",
        );
        let setups: Vec<f64> = traced.iter().map(|p| p.setup_s).collect();
        m.push("mta_sim.setup_s", median(&setups), "s");
        self.sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regenerate `goldens/sim.txt` from `Machine::run`:
    /// `cargo test --release --manifest-path perfbench/Cargo.toml -- --ignored record_sim_goldens`.
    /// Only do this when a change is meant to alter simulated results.
    #[test]
    #[ignore]
    fn record_sim_goldens() {
        let p = pass(&Tracer::new(false), None);
        let mut text =
            String::from("# kernel procs cycles instructions RunResult-digest memory-digest\n");
        for line in &p.lines {
            text.push_str(line);
            text.push('\n');
        }
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/goldens/sim.txt");
        std::fs::write(path, text).expect("write goldens/sim.txt");
    }

    #[test]
    fn every_corpus_kernel_completes_on_both_machines() {
        for k in CORPUS {
            for procs in PROCESSORS {
                let r = machine(k, procs).run(MAX_CYCLES);
                assert!(r.completed && r.faults.is_empty(), "{k} p{procs}: {r:?}");
            }
        }
    }
}
