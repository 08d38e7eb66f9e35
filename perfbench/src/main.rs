//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload paper|reduced --seed N --seconds S --trace 0|1
//! ```
//!
//! One run executes four sections in one process — `pipeline` (what
//! `repro all` does, cold and warm), `service` (closed-loop bursts and, in
//! the traced run, open-loop traffic through the socket server), `kernels`
//! (every host variant of both benchmarks) and `sim` (an `mta-sim` kernel
//! corpus) — checks every output, and
//! prints one JSON line: the end-to-end metrics with `--trace 0`, or the
//! per-layer metrics derived from spans with `--trace 1`. The workload
//! picks the input scale. See `perfbench/WORKLOADS.md`.

mod json;
mod kernels;
mod metrics;
mod pipeline;
mod service;
mod sim;
mod stats;
mod trace;

use eval_core::WorkloadScale;
use metrics::{Metrics, END_TO_END};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The workloads `--workload` accepts, with the input scale each uses.
pub const WORKLOADS: &[(&str, WorkloadScale)] = &[
    ("paper", WorkloadScale::Paper),
    ("reduced", WorkloadScale::Reduced),
];

/// Rounds at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;

/// Closed-loop service bursts per round: a burst is short, so it is
/// repeated like the warm pipeline pass.
const BURSTS_PER_ROUND: usize = 3;

/// What every section reads.
pub struct Ctx {
    /// Input scale of this workload.
    pub scale: WorkloadScale,
    /// Seed for every generated input.
    pub seed: u64,
    /// Pool width: the host's available parallelism.
    pub threads: usize,
    /// This process's scratch directory (relative to the repository root).
    pub work: PathBuf,
    /// The service section's snapshot-cache directory.
    pub primed: PathBuf,
}

/// One section's results.
#[derive(Default)]
pub struct Section {
    /// Median set-up seconds.
    pub setup_s: f64,
    /// End-to-end metrics (untraced runs).
    pub e2e: Metrics,
    /// Per-layer metrics (traced run).
    pub layer: Metrics,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// Human-readable output-check failures.
    pub problems: Vec<String>,
    /// Wall seconds of untraced and traced repetitions, for the tracing
    /// overhead.
    pub overhead_walls: (Vec<f64>, Vec<f64>),
}

/// Every per-layer metric a traced run prints.
pub fn layer_names() -> Vec<(String, &'static str)> {
    let mut v = vec![
        ("trace.overhead_ratio".to_string(), "ratio"),
        ("trace.spans".to_string(), "count"),
    ];
    v.extend(pipeline::layer_names());
    v.extend(service::layer_names());
    v.extend(kernels::layer_names());
    v.extend(sim::layer_names());
    v
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn run(args: &Args) -> Result<String, String> {
    let scale = WORKLOADS
        .iter()
        .find(|(n, _)| *n == args.workload)
        .map(|&(_, s)| s)
        .ok_or_else(|| format!("unknown workload '{}'", args.workload))?;
    // Paths below are relative to the repository root, which keeps the
    // Unix socket path short wherever the checkout lives.
    std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .map_err(|e| format!("cannot enter the repository root: {e}"))?;
    let work = PathBuf::from(format!("perfbench/work/{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {work:?}: {e}"))?;
    let ctx = Ctx {
        scale,
        seed: args.seed,
        threads: sthreads::ThreadPool::global().n_threads(),
        primed: work.join("primed"),
        work,
    };
    let tracer = Tracer::new(args.trace);
    let quiet = Tracer::new(false);
    let budget = Duration::from_secs(args.seconds);

    // Every section is set up first; then repetitions run in rounds, one
    // of each section per round, so that each samples the whole measuring
    // window of the run rather than one stretch of it.
    let mut pipeline = pipeline::Pipeline::new(&ctx);
    let mut kernels = kernels::Kernels::new(&ctx, &tracer);
    let mut service = service::ServiceSection::new(&ctx, &tracer);
    let mut sim = sim::Sim::default();
    let started = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS * (1 + usize::from(args.trace)) || started.elapsed() < budget {
        // In the traced run, rounds alternate untraced and traced, so the
        // two can be compared for the tracing overhead.
        let traced = args.trace && round % 2 == 1;
        let tr = if traced { &tracer } else { &quiet };
        sthreads::stats::set_timing(traced);
        pipeline.rep(&ctx, tr);
        kernels.rep(&ctx, tr);
        sim.rep(tr);
        for _ in 0..BURSTS_PER_ROUND {
            service.burst(tr);
        }
        sthreads::stats::set_timing(false);
        round += 1;
    }
    let sections = [
        pipeline.finish(&ctx, &tracer),
        service.finish(&ctx, &tracer),
        kernels.finish(&tracer),
        sim.finish(&tracer),
    ];
    let _ = std::fs::remove_dir_all(&ctx.work);

    let mut out = Metrics::default();
    let (mut attempted, mut failed) = (0, 0);
    let mut problems = Vec::new();
    let mut setup_s = 0.0;
    let (mut untraced, mut traced) = (0.0, 0.0);
    for s in sections {
        attempted += s.attempted;
        failed += s.failed;
        problems.extend(s.problems);
        setup_s += s.setup_s;
        if args.trace {
            out.extend(s.layer);
            if !s.overhead_walls.0.is_empty() {
                untraced += stats::median(&s.overhead_walls.0);
                traced += stats::median(&s.overhead_walls.1);
            }
        } else {
            out.extend(s.e2e);
        }
    }
    let declared = if args.trace {
        out.push("trace.overhead_ratio", traced / untraced, "ratio");
        out.push("trace.spans", tracer.spans().len() as f64, "count");
        let path = ctx
            .work
            .with_file_name(format!("trace-{}-{}.json", args.workload, args.seed));
        std::fs::write(&path, json::to_string(&tracer.to_json())?)
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        eprintln!("perfbench: spans written to {}", path.display());
        layer_names()
    } else {
        out.push("setup_s", setup_s, "s");
        out.push("peak_rss_mb", peak_rss_mb()?, "MB");
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    for (name, value, unit) in out.iter() {
        eprintln!("perfbench: {name} = {value} {unit}");
    }
    out.check_against(&declared)?;
    for p in &problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    Ok(metrics::result_line(
        problems.is_empty() && failed == 0,
        attempted,
        failed,
        &out,
    ))
}

fn main() {
    let result = parse_args(std::env::args().skip(1)).and_then(|args| run(&args));
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload paper|reduced --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json: {key} is not an array");
        };
        items
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
                _ => panic!("BENCHMARK.json: malformed {key} entry {m:?}"),
            })
            .collect()
    }

    fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
        v.sort();
        v
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_runs_print() {
        let doc = benchmark_json();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(sorted(declared(&doc, "end_to_end")), sorted(e2e));
        let layers: Vec<(String, String)> = layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(sorted(declared(&doc, "per_layer")), sorted(layers));
        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            panic!("BENCHMARK.json: workloads is not an array");
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| match w.get("name") {
                Some(Json::Str(n)) => n.as_str(),
                _ => panic!("workload without a name"),
            })
            .collect();
        assert_eq!(names, WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>());
    }

    #[test]
    fn every_declared_name_is_well_formed_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        names.extend(layer_names().into_iter().map(|m| m.0));
        names.extend(WORKLOADS.iter().map(|w| w.0.to_string()));
        for n in &names {
            assert!(metrics::valid_name(n), "{n}");
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(layer_names().len() <= 128);
        for (_, u) in layer_names() {
            assert!(metrics::valid_unit(u), "{u}");
        }
    }

    #[test]
    fn arguments_parse_strictly() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload paper --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("paper", 3, 10, true)
        );
        assert!(parse("--workload paper --seed 3 --seconds 10").is_err());
        assert!(parse("--workload paper --seed x --seconds 10 --trace 0").is_err());
        assert!(parse("--workload paper --seed 3 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload paper --seed 3 --seconds 10 --trace 0 --bogus 1").is_err());
    }
}
