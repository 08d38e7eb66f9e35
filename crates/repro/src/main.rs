//! `repro` — regenerate every table and figure of the SC'98 paper.
//!
//! ```text
//! repro [--reduced] [--no-cache] [--timing] [--profile] [--gate FILE]
//!       [--csv DIR] [--out FILE] [SECTION...]
//! repro --serve ADDR [--reduced] [--threads N]
//! repro --load ADDR [--requests N] [--conns N] [--mix-seed S] [--stop-server]
//!
//! SECTIONs: tables (default), figures, utilization, autopar, table-auto,
//!           scalability, sensitivity, all
//! ```
//!
//! With no arguments the binary measures the paper-scale workload,
//! calibrates the machine models, and prints Tables 1–12 with the paper's
//! published value next to every modeled value, followed by ASCII
//! renditions of Figures 1–4. `--reduced` uses the smaller test workload
//! (same structure, faster). `--csv DIR` additionally writes one CSV per
//! table.
//!
//! The expensive workload measurement is memoized on disk (see
//! `eval_core::cache`); `--no-cache` forces a fresh measurement without
//! reading or writing snapshots. `--timing` times the harness's own
//! parallelization (1 host thread vs all of them), verifies the outputs
//! are byte-identical, and writes the report to `BENCH_harness.json`.
//!
//! `--profile` turns on the `sthreads::stats` nano-timing tier for the
//! whole run and appends an observability report: where the pool's time
//! went (dispatch, imbalance, useful work), the work-stealing counters
//! (steals, stolen items, failed steals, victim misses) with the last
//! timed region's per-worker busy breakdown, plus a sample `mta-sim`
//! run's machine counters (issue slots, bank-queue histogram, full/empty
//! retry traffic).
//!
//! `--serve ADDR` loads the workload once and serves scenario-evaluation
//! requests over a socket (Unix path if ADDR contains `/`, else TCP)
//! through `eval_core::service`'s bounded batching queue; `--load ADDR`
//! replays a fuzzer-generated request mix against such a server, checks
//! every response against a direct sequential evaluation, and writes
//! `BENCH_service.json` (p50/p90/p99 latency, throughput, and the
//! bit-identity verdict).
//!
//! `--gate FILE` parses FILE as either a `BENCH_harness.json` or a
//! `BENCH_service.json` (dispatching on shape), checks it against that
//! report's invariants (every phase bit-identical and speedups at their
//! gates; or full completion, ordered positive percentiles and
//! `identical_output: true`), and exits non-zero on any violation — this
//! is what `ci.sh` runs.
//!
//! Every flag that takes an operand (`--csv`, `--json`, `--out`,
//! `--gate`, `--fuzz`, `--fuzz-seed`, `--threads`, `--serve`, `--load`,
//! `--requests`, `--conns`, `--mix-seed`) exits with the usage message
//! when the operand is missing or flag-like — a bare `repro --json` is a
//! mistake, not a request to skip JSON output.

use eval_core::cache;
use eval_core::experiments::{self, Figure, HarnessReport};
use eval_core::service::SERVICE_SCHEMA;
use eval_core::workload::WorkloadScale;
use eval_core::{Client, Evaluator, Server, Service, ServiceConfig, ServiceReport};
use mta_sim::kernels::measure_utilization_sweep;
use std::io::Write;
use std::time::Instant;
use sthreads::ThreadPool;

#[derive(Debug)]
struct Options {
    scale: WorkloadScale,
    csv_dir: Option<String>,
    json_file: Option<String>,
    out_file: Option<String>,
    use_cache: bool,
    timing: bool,
    profile: bool,
    gate: Option<String>,
    n_threads: Option<usize>,
    fuzz: Option<usize>,
    fuzz_seed: u64,
    serve: Option<String>,
    load: Option<String>,
    requests: usize,
    conns: usize,
    mix_seed: u64,
    stop_server: bool,
    sections: Vec<String>,
}

const USAGE: &str = "usage: repro [--reduced] [--no-cache] [--timing] [--profile] \
     [--gate FILE] [--fuzz N] [--fuzz-seed S] [--threads N] [--csv DIR] \
     [--json FILE] [--out FILE] [--serve ADDR] \
     [--load ADDR [--requests N] [--conns N] [--mix-seed S] [--stop-server]] \
     [tables|figures|utilization|autopar|table-auto|scalability|sensitivity|all]...";

/// The operand of a value-taking flag. Missing operands and operands
/// that look like the next flag are both hard errors: `repro --json`
/// must not silently behave like `repro`.
fn operand(
    flag: &str,
    what: &str,
    args: &mut impl Iterator<Item = String>,
) -> Result<String, String> {
    match args.next() {
        Some(v) if !v.starts_with("--") => Ok(v),
        Some(v) => Err(format!("{flag} requires {what}, got flag '{v}'")),
        None => Err(format!("{flag} requires {what}")),
    }
}

/// [`operand`], parsed into a numeric type.
fn parsed_operand<T: std::str::FromStr>(
    flag: &str,
    what: &str,
    args: &mut impl Iterator<Item = String>,
) -> Result<T, String> {
    let v = operand(flag, what, args)?;
    v.parse()
        .map_err(|_| format!("{flag}: cannot parse '{v}' as {what}"))
}

fn parse_args_from(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        scale: WorkloadScale::Paper,
        csv_dir: None,
        json_file: None,
        out_file: None,
        use_cache: true,
        timing: false,
        profile: false,
        gate: None,
        n_threads: None,
        fuzz: None,
        fuzz_seed: 1,
        serve: None,
        load: None,
        requests: 64,
        conns: 4,
        mix_seed: 1,
        stop_server: false,
        sections: Vec::new(),
    };
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--reduced" => opts.scale = WorkloadScale::Reduced,
            "--csv" => opts.csv_dir = Some(operand("--csv", "a directory", &mut args)?),
            "--json" => opts.json_file = Some(operand("--json", "a file path", &mut args)?),
            "--out" => opts.out_file = Some(operand("--out", "a file path", &mut args)?),
            "--no-cache" => opts.use_cache = false,
            "--timing" => opts.timing = true,
            "--profile" => opts.profile = true,
            "--gate" => {
                opts.gate = Some(operand(
                    "--gate",
                    "a BENCH_harness.json or BENCH_service.json path",
                    &mut args,
                )?)
            }
            "--fuzz" => opts.fuzz = Some(parsed_operand("--fuzz", "a case count", &mut args)?),
            "--fuzz-seed" => {
                opts.fuzz_seed = parsed_operand("--fuzz-seed", "a u64 seed", &mut args)?
            }
            "--threads" => {
                let n: std::num::NonZeroUsize =
                    parsed_operand("--threads", "a positive integer", &mut args)?;
                opts.n_threads = Some(n.get())
            }
            "--serve" => {
                opts.serve = Some(operand(
                    "--serve",
                    "a socket address (host:port or unix path)",
                    &mut args,
                )?)
            }
            "--load" => {
                opts.load = Some(operand(
                    "--load",
                    "a socket address (host:port or unix path)",
                    &mut args,
                )?)
            }
            "--requests" => {
                opts.requests = parsed_operand("--requests", "a request count", &mut args)?
            }
            "--conns" => opts.conns = parsed_operand("--conns", "a connection count", &mut args)?,
            "--mix-seed" => opts.mix_seed = parsed_operand("--mix-seed", "a u64 seed", &mut args)?,
            "--stop-server" => opts.stop_server = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            s if s.starts_with('-') => return Err(format!("unknown flag '{s}'")),
            s => opts.sections.push(s.to_string()),
        }
    }
    if opts.sections.is_empty() {
        opts.sections.push("all".to_string());
    }
    Ok(opts)
}

fn parse_args() -> Options {
    match parse_args_from(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("repro: {msg}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

fn want(opts: &Options, section: &str) -> bool {
    opts.sections.iter().any(|s| s == section || s == "all")
}

/// `--gate FILE`: validate a benchmark report and exit. The file's shape
/// picks the schema: a parseable `BENCH_service.json` is checked against
/// the service gate, anything else against the harness invariants. Any
/// problem — unreadable file, schema mismatch, invariant violation —
/// exits 1 with every violation listed, so CI output shows the whole
/// picture at once.
fn run_gate(path: &str) -> ! {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("gate: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    if let Ok(report) = serde_json::from_str::<ServiceReport>(&text) {
        match report.validate() {
            Ok(()) => {
                println!(
                    "gate: {path} OK — service bench: {} requests over {} connections, \
                     p50 {:.3} ms / p99 {:.3} ms, {:.1} req/s, every response bit-identical \
                     to direct evaluation",
                    report.requests,
                    report.connections,
                    report.p50_ms,
                    report.p99_ms,
                    report.throughput_rps,
                );
                std::process::exit(0);
            }
            Err(errs) => {
                for e in &errs {
                    eprintln!("gate: FAIL: {e}");
                }
                std::process::exit(1);
            }
        }
    }
    let report: HarnessReport = match serde_json::from_str(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "gate: {path} matches neither the BENCH_harness.json nor the \
                 BENCH_service.json ({SERVICE_SCHEMA}) schema: {e}"
            );
            std::process::exit(1);
        }
    };
    match report.validate() {
        Ok(()) => {
            let fg = report
                .phases
                .iter()
                .find(|p| p.phase == "fine_grain")
                .expect("validate() guarantees the phase exists");
            println!(
                "gate: {path} OK — {} phases identical, fine_grain stealing vs shared queue {:.2}x (gate {}), \
                 kernels vs scalar baseline {:.2}x (gate {})",
                report.phases.len(),
                fg.speedup,
                experiments::FINE_GRAIN_SPEEDUP_GATE,
                report.kernels.speedup,
                experiments::KERNELS_SPEEDUP_GATE,
            );
            std::process::exit(0);
        }
        Err(errs) => {
            for e in &errs {
                eprintln!("gate: FAIL: {e}");
            }
            std::process::exit(1);
        }
    }
}

/// `--serve ADDR`: load the workload **once** into a long-lived
/// [`Evaluator`], put the bounded batching [`Service`] in front of it,
/// and serve the framed-JSON protocol until a client sends `Shutdown`.
fn run_serve(addr: &str, scale: WorkloadScale, use_cache: bool, n_threads: usize) -> ! {
    eprintln!("serve: loading workload ({scale:?} scale) and calibrating models...");
    let (evaluator, status) = Evaluator::load(scale, use_cache);
    eprintln!(
        "serve: workload {status:?} (snapshot dir {})",
        cache::cache_dir().display()
    );
    let config = ServiceConfig {
        n_threads,
        ..ServiceConfig::default()
    };
    let service = Service::start(evaluator, config);
    let server = match Server::bind(addr, service) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!("serving on {}", server.local_addr());
    std::io::stdout().flush().ok();
    match server.run() {
        Ok(()) => {
            eprintln!("serve: shutdown complete");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("serve: accept loop failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Per-connection tally from one load-generator thread.
#[derive(Default)]
struct ConnStats {
    latencies_ns: Vec<u64>,
    rejected: usize,
    completed: usize,
    mismatches: Vec<String>,
}

/// Replay the slice of `mix` owned by connection `conn` (indices
/// congruent to `conn` mod `stride`) over one connection. Overload
/// rejections back off by the server's hint and retry the same request;
/// every completed response is compared byte-for-byte against the local
/// direct evaluation.
fn replay_connection(
    addr: &str,
    mix: &[eval_core::EvalRequest],
    evaluator: &Evaluator,
    conn: usize,
    stride: usize,
) -> ConnStats {
    let mut client = Client::connect(addr)
        .unwrap_or_else(|e| panic!("load: connection {conn} cannot reach {addr}: {e}"));
    let mut stats = ConnStats::default();
    let mut i = conn;
    while i < mix.len() {
        let req = &mix[i];
        loop {
            let t = Instant::now();
            let resp = client
                .call(req.clone())
                .unwrap_or_else(|e| panic!("load: connection {conn} request {i} failed: {e}"));
            match resp.error {
                Some(err) if err.kind == "overloaded" => {
                    stats.rejected += 1;
                    let back_off = err.retry_after_ms.unwrap_or(5).max(1);
                    std::thread::sleep(std::time::Duration::from_millis(back_off));
                }
                Some(err) => {
                    stats.mismatches.push(format!(
                        "request {i}: server error {}: {}",
                        err.kind, err.message
                    ));
                    break;
                }
                None => {
                    stats.latencies_ns.push(t.elapsed().as_nanos() as u64);
                    stats.completed += 1;
                    let served = resp.ok.unwrap_or_default();
                    match evaluator.evaluate(req) {
                        Ok(expected) if expected == served => {}
                        Ok(expected) => stats.mismatches.push(format!(
                            "request {i}: served response differs from direct evaluation \
                             ({} vs {} bytes)",
                            served.len(),
                            expected.len()
                        )),
                        Err(e) => stats
                            .mismatches
                            .push(format!("request {i}: direct evaluation failed: {e}")),
                    }
                    break;
                }
            }
        }
        i += stride;
    }
    stats
}

/// Exact percentile over a sorted latency list (nearest-rank), in ms.
fn percentile_ms(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64 / 1e6
}

/// `--load ADDR`: replay a seeded request mix against a running server,
/// verify bit-identity against direct sequential evaluation, and write
/// `BENCH_service.json`. Exits non-zero if any response differed or any
/// request was dropped.
fn run_load(addr: &str, opts: &Options) -> ! {
    let requests = opts.requests;
    let conns = opts.conns.clamp(1, requests.max(1));
    eprintln!(
        "load: {requests} requests over {conns} connections (mix seed {}) against {addr}",
        opts.mix_seed
    );
    // The reference evaluator loads the same snapshot (same scale, same
    // cache dir): workload measurement is deterministic, so the direct
    // sequential evaluation here is the bit-exact oracle for every
    // served response.
    let (evaluator, status) = Evaluator::load(opts.scale, opts.use_cache);
    eprintln!("load: reference workload {status:?}");
    let mix = c3i_fuzz::generate_mix(opts.mix_seed, requests);

    let t0 = Instant::now();
    let per_conn: Vec<ConnStats> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let mix = &mix;
                let evaluator = &evaluator;
                s.spawn(move || replay_connection(addr, mix, evaluator, c, conns))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load connection thread panicked"))
            .collect()
    });
    let wall = t0.elapsed();

    if opts.stop_server {
        match Client::connect(addr).map(|mut c| c.shutdown_server()) {
            Ok(Ok(_)) => eprintln!("load: server acknowledged shutdown"),
            Ok(Err(e)) => eprintln!("load: shutdown request failed: {e}"),
            Err(e) => eprintln!("load: cannot reconnect for shutdown: {e}"),
        }
    }

    let mut latencies: Vec<u64> = per_conn
        .iter()
        .flat_map(|c| c.latencies_ns.clone())
        .collect();
    latencies.sort_unstable();
    let completed: usize = per_conn.iter().map(|c| c.completed).sum();
    let rejected: usize = per_conn.iter().map(|c| c.rejected).sum();
    let mismatches: Vec<&String> = per_conn.iter().flat_map(|c| &c.mismatches).collect();

    let report = ServiceReport {
        schema: SERVICE_SCHEMA.to_string(),
        scale: format!("{:?}", opts.scale),
        requests,
        completed,
        rejected,
        connections: conns,
        mix_seed: opts.mix_seed,
        p50_ms: percentile_ms(&latencies, 0.50),
        p90_ms: percentile_ms(&latencies, 0.90),
        p99_ms: percentile_ms(&latencies, 0.99),
        max_ms: latencies.last().map_or(0.0, |&ns| ns as f64 / 1e6),
        throughput_rps: completed as f64 / wall.as_secs_f64().max(1e-9),
        identical_output: mismatches.is_empty(),
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize service report");
    std::fs::write("BENCH_service.json", &json).expect("write BENCH_service.json");
    eprintln!("wrote BENCH_service.json");
    print!("{}", report.render());
    for m in mismatches.iter().take(10) {
        eprintln!("load: MISMATCH: {m}");
    }
    if mismatches.len() > 10 {
        eprintln!("load: ... and {} more mismatches", mismatches.len() - 10);
    }
    if let Err(errs) = report.validate() {
        for e in &errs {
            eprintln!("load: note (would fail --gate): {e}");
        }
    }
    if mismatches.is_empty() && completed == requests {
        std::process::exit(0);
    }
    std::process::exit(1);
}

fn utilization_report(n_threads: usize) -> String {
    let mut out = String::new();
    out.push_str("Processor utilization vs hardware streams (mta-sim, 20% memory mix)\n");
    out.push_str("  paper Section 5/7: single stream ~5%; ~80 streams for full utilization\n");
    out.push_str("  streams  measured   model min(1, s/L)\n");
    // mixed_kernel with alu_per_iter = 3: 5 instructions per iteration,
    // 1 load => L = (4*21 + 70)/5 = 30.8 cycles.
    let l = (4.0 * 21.0 + 70.0) / 5.0;
    let measured = measure_utilization_sweep(
        &experiments::util_cfg(),
        &experiments::UTIL_STREAMS,
        400,
        3,
        n_threads,
    );
    for (&s, u) in experiments::UTIL_STREAMS.iter().zip(measured) {
        let model = (s as f64 / l).min(1.0);
        out.push_str(&format!("  {s:>7}  {u:>8.3}   {model:>8.3}\n"));
    }
    out
}

/// The `--profile` report: process-lifetime pool counters (the always-on
/// tier plus the nano-timing tier enabled at startup) and a sample
/// simulator run's structured machine counters.
fn profile_report() -> String {
    use sthreads::stats;
    let s = stats::snapshot();
    let mut out = String::new();
    out.push_str("Observability profile (sthreads::stats, process lifetime)\n");
    out.push_str(&format!(
        "  pool regions          {:>10}  (nested fallback {}, serial cutoff {})\n",
        s.regions, s.nested_regions, s.serial_cutoff_regions
    ));
    out.push_str(&format!(
        "  tasks / batches       {:>10} / {} (mean batch {:.1} tasks)\n",
        s.tasks,
        s.batches,
        s.mean_batch_items()
    ));
    out.push_str(&format!(
        "  worker parks / wakes  {:>10} / {}\n",
        s.parks, s.wakes
    ));
    out.push_str(&format!(
        "  dispatch / imbalance  {:>10.3} ms / {:.3} ms  (floor {} ns/region)\n",
        s.dispatch_ns as f64 / 1e6,
        s.imbalance_ns as f64 / 1e6,
        stats::dispatch_floor_ns()
    ));
    out.push_str(&format!(
        "  busy / idle           {:>10.3} ms / {:.3} ms\n",
        s.busy_ns as f64 / 1e6,
        s.idle_ns as f64 / 1e6
    ));
    out.push_str(&format!(
        "  steals / items        {:>10} / {} (mean {:.1} items/steal)\n",
        s.steals,
        s.stolen_items,
        s.mean_stolen_items()
    ));
    out.push_str(&format!(
        "  steal fails / misses  {:>10} / {} (contention {:.1}%)\n",
        s.steal_fails,
        s.victim_misses,
        100.0 * s.steal_contention()
    ));
    let lat = stats::service_latency();
    if lat.count() > 0 {
        out.push_str(&format!(
            "  service latency       {:>10} requests, p50 <= {:.3} ms, p99 <= {:.3} ms\n",
            lat.count(),
            lat.quantile_ns(0.50) as f64 / 1e6,
            lat.quantile_ns(0.99) as f64 / 1e6,
        ));
    }
    let busy = stats::last_region_worker_busy();
    if !busy.is_empty() {
        let max = busy.iter().copied().max().unwrap_or(0).max(1) as f64;
        out.push_str("  last timed region, per-worker busy (caller first):\n");
        for (w, &ns) in busy.iter().enumerate() {
            out.push_str(&format!(
                "    worker {w:>2}  {:>10.3} ms  {:.0}%\n",
                ns as f64 / 1e6,
                100.0 * ns as f64 / max
            ));
        }
    }

    // One deterministic simulator run, profiled through SimStats: 32
    // streams of the standard utilization mix plus a fetch-add hot word.
    let (_, r) = mta_sim::kernels::run_kernel(
        experiments::util_cfg(),
        mta_sim::kernels::mixed_kernel(32, 400, 3, 4096),
        &[],
    );
    let st = &r.stats;
    out.push_str("\nSimulator machine counters (mixed kernel, 32 streams, 1 processor)\n");
    out.push_str(&format!(
        "  cycles / instructions {:>10} / {}  (utilization {:.1}%)\n",
        r.cycles,
        st.instructions(),
        100.0 * r.utilization()
    ));
    let active_slots: usize = st
        .streams
        .issued_per_slot
        .iter()
        .map(|p| p.iter().filter(|&&n| n > 0).count())
        .sum();
    out.push_str(&format!(
        "  issue slots used      {:>10}  (peak live {:?})\n",
        active_slots, st.streams.peak_live_per_processor
    ));
    out.push_str(&format!(
        "  threads               {:>10} forks, {} soft spawns\n",
        st.threads.forks, st.threads.soft_spawns
    ));
    out.push_str(&format!(
        "  full/empty sync       {:>10} retries, {} wakes, {} reparks\n",
        st.sync.blocked, st.sync.wakes, st.sync.reparks
    ));
    out.push_str(&format!(
        "  memory accesses       {:>10}  ({:.1}% queued; {} bank-queue cycles)\n",
        st.memory.accesses,
        100.0 * st.memory.queued_fraction(),
        st.memory.bank_queue_cycles
    ));
    out.push_str(&format!(
        "  queue-wait histogram  {:>10?}  (cycles: 0, 1-4, 5-16, 17-64, 65+)\n",
        st.memory.queue_wait_hist
    ));
    out
}

/// `--fuzz N [--fuzz-seed S]`: run the differential fuzzing campaign and
/// exit. Every generated scenario runs through sequential oracle ×
/// {coarse, fine, chunked} × {Static, Dynamic, Stealing} × {1, 2, 8}
/// workers; any failure is ddmin-minimized, written under
/// `target/c3i-fuzz/`, and the process exits 1.
fn run_fuzz(n_cases: usize, seed: u64, reduced: bool) -> ! {
    use c3i_fuzz::CaseOutcome;
    eprintln!(
        "fuzz: {n_cases} cases, seed {seed}{} — oracle x {{coarse, fine, chunked}} x \
         {{Static, Dynamic, Stealing}} x {{1, 2, 8}} workers",
        if reduced { ", reduced sizes" } else { "" }
    );
    let report = c3i_fuzz::run_campaign(
        &c3i_fuzz::CampaignConfig {
            n_cases,
            seed,
            reduced,
        },
        |index, outcome| match outcome {
            CaseOutcome::Passed => {
                if (index + 1) % 25 == 0 {
                    eprintln!("fuzz: {}/{n_cases} cases checked", index + 1);
                }
            }
            CaseOutcome::Rejected(msg) => {
                eprintln!("fuzz: case {index} rejected by validation: {msg}")
            }
            CaseOutcome::Failed(f) => eprintln!("fuzz: case {index} FAILED: {f}"),
        },
    );
    println!(
        "fuzz: {} cases — {} passed, {} rejected, {} failed (seed {seed})",
        report.n_cases,
        report.n_passed,
        report.n_rejected,
        report.failures.len()
    );
    if report.ok() {
        std::process::exit(0);
    }
    let dir = std::path::Path::new("target/c3i-fuzz");
    std::fs::create_dir_all(dir).expect("create target/c3i-fuzz");
    for f in &report.failures {
        let path = dir.join(format!("seed{seed}-case{}.json", f.index));
        c3i_fuzz::save_case(&f.case, &path).expect("write minimized failure");
        println!(
            "fuzz: case {} minimized to {} — {}\n      reproduce: repro --fuzz {} --fuzz-seed {seed}\n      \
             pin it: fix the bug, then copy {} into tests/corpus/",
            f.index,
            path.display(),
            f.failure,
            f.index + 1,
            path.display()
        );
    }
    std::process::exit(1);
}

fn main() {
    let opts = parse_args();
    if let Some(path) = &opts.gate {
        run_gate(path);
    }
    if let Some(n_cases) = opts.fuzz {
        run_fuzz(
            n_cases,
            opts.fuzz_seed,
            opts.scale == WorkloadScale::Reduced,
        );
    }
    if opts.profile {
        // Enable the clock-reading tier up front so every phase below is
        // attributed, not just the --timing section.
        sthreads::stats::set_timing(true);
    }
    let n_threads = opts
        .n_threads
        .unwrap_or_else(|| ThreadPool::global().n_threads());
    if let Some(addr) = &opts.serve {
        run_serve(addr, opts.scale, opts.use_cache, n_threads);
    }
    if let Some(addr) = &opts.load {
        run_load(addr, &opts);
    }
    let mut out = String::new();

    // "table-auto" is the living auto-vs-manual comparison (ISSUE 10):
    // every cell is deterministic text and the execution checks run on
    // small fixed scenarios, so it needs no workload measurement and no
    // calibration. It renders first, and when it is the only requested
    // section repro exits here — that path is the CI smoke that diffs
    // the CSV against the pinned results/table_auto.csv.
    if want(&opts, "table-auto") {
        let t = experiments::Experiments::table_auto(n_threads);
        out.push_str(&t.render());
        out.push('\n');
        if let Some(dir) = &opts.csv_dir {
            std::fs::create_dir_all(dir).expect("create csv dir");
            let path = format!("{dir}/{}.csv", t.id.to_lowercase().replace(' ', "_"));
            std::fs::write(&path, t.to_csv()).expect("write csv");
            eprintln!("wrote {path}");
        }
        if opts.sections.iter().all(|s| s == "table-auto") {
            print!("{out}");
            if let Some(path) = &opts.out_file {
                std::fs::write(path, out.as_bytes()).expect("write out file");
                eprintln!("wrote {path}");
            }
            return;
        }
    }

    eprintln!(
        "loading workload ({:?} scale) and calibrating models...",
        opts.scale
    );
    let (evaluator, status) = Evaluator::load(opts.scale, opts.use_cache);
    eprintln!(
        "workload: {status:?} (snapshot dir {})",
        cache::cache_dir().display()
    );
    let exps = evaluator.experiments();
    out.push_str(&format!(
        "Reproduction of \"An Initial Evaluation of the Tera Multithreaded Architecture\n\
         and Programming System Using the C3I Parallel Benchmark Suite\" (SC'98).\n\
         Workload scale: {:?}. Calibration: S_TA={:.1} S_TM={:.1} eta2={:.3} kappa={:.1}\n\n",
        exps.workload.scale,
        exps.cal.s_ta,
        exps.cal.s_tm,
        exps.cal.tera.eta2,
        exps.cal.tera.spawn_cycles_per_task
    ));

    if want(&opts, "tables") {
        let tables = exps.all_tables();
        if let Some(path) = &opts.json_file {
            let json = serde_json::to_string_pretty(&tables).expect("serialize tables");
            std::fs::write(path, json).expect("write json");
            eprintln!("wrote {path}");
        }
        for t in &tables {
            out.push_str(&t.render());
            out.push('\n');
            if let Some(dir) = &opts.csv_dir {
                std::fs::create_dir_all(dir).expect("create csv dir");
                let path = format!("{dir}/{}.csv", t.id.to_lowercase().replace(' ', "_"));
                std::fs::write(&path, t.to_csv()).expect("write csv");
            }
        }
    }

    if want(&opts, "figures") {
        for f in [
            Figure::ThreatPPro,
            Figure::ThreatExemplar,
            Figure::TerrainPPro,
            Figure::TerrainExemplar,
        ] {
            out.push_str(&exps.figure(f));
            out.push('\n');
        }
    }

    if want(&opts, "autopar") {
        let summary = exps.autopar_report();
        out.push_str("Automatic parallelization (modeled Tera/Exemplar compilers):\n");
        out.push_str(&summary.report.to_string());
        out.push_str(
            "\nDataflow pass (reductions, privatization, compaction, purity summaries):\n",
        );
        out.push_str(&summary.dataflow.to_string());
        out.push('\n');
    }

    if want(&opts, "scalability") {
        out.push_str(
            &exps
                .scalability_projection(&[1, 2, 4, 8, 16, 32, 64, 128, 256])
                .render(),
        );
        out.push('\n');
    }

    if want(&opts, "sensitivity") {
        out.push_str(&exps.sensitivity().render());
        out.push('\n');
    }

    if want(&opts, "utilization") {
        out.push_str(&utilization_report(n_threads));
        out.push('\n');
    }

    if opts.timing {
        let report = experiments::harness_timing(opts.scale, n_threads);
        let json = serde_json::to_string_pretty(&report).expect("serialize timing report");
        std::fs::write("BENCH_harness.json", &json).expect("write BENCH_harness.json");
        eprintln!("wrote BENCH_harness.json");
        out.push_str(&report.render());
        out.push('\n');
    }

    if opts.profile {
        out.push_str(&profile_report());
        out.push('\n');
    }

    print!("{out}");
    if let Some(path) = &opts.out_file {
        let mut f = std::fs::File::create(path).expect("create out file");
        f.write_all(out.as_bytes()).expect("write out file");
        eprintln!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args_from(args.iter().map(|s| s.to_string()))
    }

    /// The PR-8 satellite bug: `repro --json` (missing operand) silently
    /// behaved like plain `repro`. Every value-taking flag must reject a
    /// missing or flag-like operand, naming the flag in the error.
    #[test]
    fn value_flags_reject_missing_or_flaglike_operands() {
        const VALUE_FLAGS: &[&str] = &[
            "--csv",
            "--json",
            "--out",
            "--gate",
            "--fuzz",
            "--fuzz-seed",
            "--threads",
            "--serve",
            "--load",
            "--requests",
            "--conns",
            "--mix-seed",
        ];
        for flag in VALUE_FLAGS {
            let err = parse(&[flag]).expect_err(flag);
            assert!(
                err.contains(flag),
                "{flag}: error '{err}' must name the flag"
            );
            let err = parse(&[flag, "--reduced"]).expect_err(flag);
            assert!(
                err.contains(flag),
                "{flag} with a flag as operand: error '{err}' must name the flag"
            );
        }
    }

    #[test]
    fn numeric_operands_must_parse() {
        for bad in [
            &["--fuzz", "many"][..],
            &["--fuzz-seed", "1.5"],
            &["--threads", "-2"],
            &["--threads", "0"],
            &["--requests", "x"],
            &["--conns", ""],
            &["--mix-seed", "-1"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert!(parse(&["--bogus"]).unwrap_err().contains("--bogus"));
    }

    #[test]
    fn valid_invocations_parse() {
        let o = parse(&["--reduced", "--csv", "outdir", "--json", "t.json", "tables"]).unwrap();
        assert_eq!(o.scale, WorkloadScale::Reduced);
        assert_eq!(o.csv_dir.as_deref(), Some("outdir"));
        assert_eq!(o.json_file.as_deref(), Some("t.json"));
        assert_eq!(o.sections, ["tables"]);

        let o = parse(&["--serve", "target/c3i.sock", "--threads", "2", "--no-cache"]).unwrap();
        assert_eq!(o.serve.as_deref(), Some("target/c3i.sock"));
        assert_eq!(o.n_threads, Some(2));
        assert!(!o.use_cache);

        let o = parse(&[
            "--load",
            "127.0.0.1:9311",
            "--requests",
            "40",
            "--conns",
            "4",
            "--mix-seed",
            "7",
            "--stop-server",
        ])
        .unwrap();
        assert_eq!(o.load.as_deref(), Some("127.0.0.1:9311"));
        assert_eq!(o.requests, 40);
        assert_eq!(o.conns, 4);
        assert_eq!(o.mix_seed, 7);
        assert!(o.stop_server);

        // Defaults when no sections are given.
        let o = parse(&[]).unwrap();
        assert_eq!(o.sections, ["all"]);
        assert_eq!(o.requests, 64);
        assert_eq!(o.conns, 4);
        assert!(o.use_cache);
    }
}
