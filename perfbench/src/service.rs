//! The `service` section: an in-process `Server` on a Unix socket.
//!
//! Every run drives it with closed-loop bursts: a fixed mix sent back to
//! back over `CONNS` connections (`closed_rps`). The traced run also drives
//! it with an open loop of independent users: Poisson arrivals at two
//! fixed rates (`low`, `high`) and then on a ladder above `high`, the
//! arrival times and the `c3i_fuzz::mix` requests both from the seed. Each
//! open-loop request is timed from the moment it was due, so a stalled
//! connection charges its wait to every request queued behind it. Sends
//! are scheduled with sleeps, never with socket read timeouts, and the
//! generator reports how late it ran.

use crate::metrics::Metrics;
use crate::stats::{fastest, median, nearest_rank};
use crate::trace::Tracer;
use crate::{Ctx, Section};
use eval_core::{Client, EvalRequest, Evaluator, Experiments, Server, Service, ServiceConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Requests per second of the `low` fixed rate.
pub const LOW_RPS: u32 = 200;
/// Requests per second of the `high` fixed rate.
pub const HIGH_RPS: u32 = 400;
/// Ladder step above `high` for `max_rps`.
pub const STEP_RPS: u32 = 100;
/// Highest ladder rung tried.
pub const LADDER_MAX_RPS: u32 = 3000;
/// Time the ladder may take.
const LADDER_BUDGET: Duration = Duration::from_secs(20);
/// The latency limit: p99 at or under this many milliseconds.
pub const LIMIT_MS: f64 = 100.0;
/// Requests per block: a block's p99 has ten samples beyond it. Each
/// ladder rung is one block.
pub const SAMPLES: usize = 1000;
/// Blocks per fixed rate; the fixed-rate percentiles are medians over
/// blocks.
pub const BLOCKS: usize = 3;
/// Client connections (and load-generator threads), one per host core.
pub const CONNS: usize = 2;
/// Service set-ups timed per run; `setup_s` takes their median.
const SETUPS: usize = 3;
/// Requests per closed-loop burst.
pub const BURST: usize = 400;
/// Mix seed of the burst. The burst is the same work in every run (the
/// mix `repro --load` replays by default), so its best repetition tracks
/// the code; the seeded traffic is the open-loop part of the traced run.
const BURST_MIX_SEED: u64 = 1;

/// Request kinds the mix generates, in report order.
pub const KINDS: [&str; 7] = [
    "Ping",
    "Table",
    "FigurePlot",
    "ThreatModel",
    "TerrainModel",
    "Scalability",
    "Sensitivity",
];

/// The kind name of `req`.
pub fn kind(req: &EvalRequest) -> &'static str {
    match req {
        EvalRequest::Ping => "Ping",
        EvalRequest::Table { .. } => "Table",
        EvalRequest::FigurePlot { .. } => "FigurePlot",
        EvalRequest::ThreatModel { .. } => "ThreatModel",
        EvalRequest::TerrainModel { .. } => "TerrainModel",
        EvalRequest::Scalability { .. } => "Scalability",
        EvalRequest::Sensitivity => "Sensitivity",
        EvalRequest::Sleep { .. } => "Sleep",
    }
}

/// Per-layer metrics this section prints in the traced run.
pub fn layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![
        ("svc.closed_p50_ms".into(), "ms"),
        ("svc.p50_ms.low".into(), "ms"),
        ("svc.p99_ms.low".into(), "ms"),
        ("svc.p50_ms.high".into(), "ms"),
        ("svc.p99_ms.high".into(), "ms"),
        ("svc.max_rps".into(), "1/s"),
    ];
    v.extend(KINDS.iter().map(|k| (format!("core.eval_us.{k}"), "us")));
    v.push(("core.eval_mean_us".into(), "us"));
    v.push(("core.eval_count".into(), "count"));
    v.push(("core.service.p50_ms.high".into(), "ms"));
    v.push(("core.service.p99_ms.high".into(), "ms"));
    v.push(("core.service.wait_p99_ms.high".into(), "ms"));
    v.push(("core.wire.overhead_p50_ms".into(), "ms"));
    v.extend(KINDS.iter().map(|k| (format!("svc.kind_p99_ms.{k}"), "ms")));
    v.push(("core.service.server_p99_ms".into(), "ms"));
    v.push(("svc.rejected".into(), "count"));
    v.push(("svc.backlog_growth".into(), "ms"));
    v.push(("gen.late_p99_ms".into(), "ms"));
    v.push(("sthreads.service.regions".into(), "count"));
    v.push(("sthreads.service.serial_cutoff_regions".into(), "count"));
    v.push(("sthreads.service.tasks".into(), "count"));
    v
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Scheduled {
    /// Unique across the run; also the mix index.
    pub id: u64,
    /// Nanoseconds after the phase start when the request is due.
    pub due_ns: u64,
    /// The request.
    pub req: EvalRequest,
}

/// The open-loop schedule of `n` requests at `rate` per second: Poisson
/// arrivals (exponential gaps) and mix requests `first_id..first_id+n`,
/// both from `seed`.
pub fn schedule(seed: u64, rate: u32, first_id: u64, n: usize) -> Vec<Scheduled> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (u64::from(rate) << 32) ^ first_id);
    let mut t = 0.0f64;
    (0..n as u64)
        .map(|i| {
            let u: f64 = rng.random_range(0.0..1.0);
            t += -(1.0 - u).ln() / f64::from(rate);
            Scheduled {
                id: first_id + i,
                due_ns: (t * 1e9) as u64,
                req: c3i_fuzz::generate_request(seed, (first_id + i) as usize),
            }
        })
        .collect()
}

/// The outcome of one request of a phase.
#[derive(Debug, Clone)]
struct Sample {
    /// Due to answered, nanoseconds.
    latency_ns: u64,
    /// How late the generator sent it: send time minus the later of its
    /// due time and the previous answer on its connection.
    late_ns: u64,
    /// Sent to answered, nanoseconds.
    rtt_ns: u64,
    /// The response body, or why there is none.
    body: Result<String, String>,
}

/// One phase's samples in schedule order, judged against the expected
/// responses.
struct Phase {
    /// Per request: latency in ns, `u64::MAX` for a failed request.
    latency_ns: Vec<u64>,
    late_ns: Vec<u64>,
    failed: u64,
    rejected: u64,
    problems: Vec<String>,
}

impl Phase {
    fn judge(rate: u32, sched: &[Scheduled], samples: Vec<Sample>, expected: &Expected) -> Self {
        let mut p = Phase {
            latency_ns: Vec::with_capacity(samples.len()),
            late_ns: Vec::with_capacity(samples.len()),
            failed: 0,
            rejected: 0,
            problems: Vec::new(),
        };
        for (s, sample) in sched.iter().zip(samples) {
            p.late_ns.push(sample.late_ns);
            let ok = match &sample.body {
                Ok(body) if *body == expected.body(&s.req) => true,
                Ok(_) => {
                    p.problems.push(format!(
                        "request {} at {rate}/s: response differs from direct evaluation",
                        s.id
                    ));
                    false
                }
                Err(e) => {
                    if e.starts_with("overloaded") {
                        p.rejected += 1;
                    }
                    p.problems
                        .push(format!("request {} at {rate}/s failed: {e}", s.id));
                    false
                }
            };
            if ok {
                p.latency_ns.push(sample.latency_ns);
            } else {
                p.failed += 1;
                p.latency_ns.push(u64::MAX);
            }
        }
        p
    }

    fn pct_ms(&self, q: f64) -> f64 {
        let mut v = self.latency_ns.clone();
        v.sort_unstable();
        ns_to_ms(nearest_rank(&v, q))
    }

    /// The median over consecutive blocks of `SAMPLES` requests of each
    /// block's percentile `q`.
    fn block_pct_ms(&self, q: f64) -> f64 {
        let per_block: Vec<f64> = self
            .latency_ns
            .chunks(SAMPLES)
            .map(|b| {
                let mut v = b.to_vec();
                v.sort_unstable();
                ns_to_ms(nearest_rank(&v, q))
            })
            .collect();
        median(&per_block)
    }

    /// Median latency of the last quarter of the schedule minus that of
    /// the first quarter: near zero when the backlog is stable.
    fn backlog_growth_ms(&self) -> f64 {
        let q = self.latency_ns.len() / 4;
        let quarter_p50 = |s: &[u64]| {
            let mut v = s.to_vec();
            v.sort_unstable();
            ns_to_ms(nearest_rank(&v, 0.5))
        };
        let n = self.latency_ns.len();
        quarter_p50(&self.latency_ns[n - q..]) - quarter_p50(&self.latency_ns[..q])
    }

    /// Meets the limit: nothing failed, p99 within `LIMIT_MS`, and no
    /// backlog growing by more than half the limit across the phase.
    fn meets_limit(&self) -> bool {
        self.failed == 0
            && self.pct_ms(0.99) <= LIMIT_MS
            && self.backlog_growth_ms() <= LIMIT_MS / 2.0
    }
}

fn ns_to_ms(ns: u64) -> f64 {
    if ns == u64::MAX {
        f64::INFINITY
    } else {
        ns as f64 / 1e6
    }
}

/// Direct evaluations of every distinct request, computed before the
/// timed phases.
struct Expected {
    bodies: HashMap<String, String>,
}

fn key(req: &EvalRequest) -> String {
    serde_json::to_string(req).expect("requests serialize")
}

impl Expected {
    fn new(evaluator: &Evaluator, scheds: &[&[Scheduled]]) -> Self {
        let mut bodies = HashMap::new();
        for s in scheds.iter().flat_map(|s| s.iter()) {
            bodies.entry(key(&s.req)).or_insert_with(|| {
                evaluator
                    .evaluate(&s.req)
                    .unwrap_or_else(|e| format!("direct evaluation failed: {e}"))
            });
        }
        Self { bodies }
    }

    fn body(&self, req: &EvalRequest) -> &str {
        &self.bodies[&key(req)]
    }
}

/// Replay `sched` open-loop over `CONNS` sender threads. `send` performs
/// one request on the thread's own connection state.
fn replay<C>(
    sched: &[Scheduled],
    connect: impl Fn() -> C + Sync,
    send: impl Fn(&mut C, &EvalRequest) -> Result<String, String> + Sync,
    tracer: &Tracer,
    span_name: &str,
    parent: Option<u64>,
) -> Vec<Sample> {
    // Give both senders time to connect before the first request is due.
    let t0 = Instant::now() + Duration::from_millis(20);
    let per_conn: Vec<Vec<(usize, Sample)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let (connect, send) = (&connect, &send);
                s.spawn(move || {
                    let mut conn = connect();
                    let mut prev_done = t0;
                    let mut out = Vec::with_capacity(sched.len() / CONNS + 1);
                    for (i, item) in sched.iter().enumerate().skip(c).step_by(CONNS) {
                        let due = t0 + Duration::from_nanos(item.due_ns);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let body = send(&mut conn, &item.req);
                        let done = Instant::now();
                        tracer.request(span_name, parent, sent, done, item.id, kind(&item.req));
                        out.push((
                            i,
                            Sample {
                                latency_ns: (done - due).as_nanos() as u64,
                                late_ns: sent
                                    .saturating_duration_since(due.max(prev_done))
                                    .as_nanos() as u64,
                                rtt_ns: (done - sent).as_nanos() as u64,
                                body,
                            },
                        ));
                        prev_done = done;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let mut all: Vec<(usize, Sample)> = per_conn.into_iter().flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, s)| s).collect()
}

fn wire_send(client: &mut Client, req: &EvalRequest) -> Result<String, String> {
    match client.call(req.clone()) {
        Ok(resp) => match (resp.ok, resp.error) {
            (Some(body), None) => Ok(body),
            (_, Some(err)) => Err(format!("{}: {}", err.kind, err.message)),
            (None, None) => Err("empty response".into()),
        },
        Err(e) => Err(format!("transport: {e}")),
    }
}

fn in_process_send(service: &Service, req: &EvalRequest) -> Result<String, String> {
    match service.submit(req.clone()) {
        Ok(pending) => pending.wait().map_err(|e| e.to_string()),
        Err(e @ eval_core::EvalError::Overloaded { .. }) => Err(format!("overloaded: {e}")),
        Err(e) => Err(e.to_string()),
    }
}

fn experiments_from(dir: &Path, ctx: &Ctx) -> Experiments {
    let (workload, cal, _) = eval_core::cache::load_or_measure_in(dir, ctx.scale, true);
    Experiments { workload, cal }
}

/// The section's state: a running server, its reference evaluator, and
/// the closed-loop bursts measured so far.
pub struct ServiceSection {
    sec: Section,
    config: ServiceConfig,
    reference: Evaluator,
    addr: String,
    server: Option<std::thread::JoinHandle<std::io::Result<()>>>,
    burst: Vec<Scheduled>,
    expected: Expected,
    /// Per untraced burst: requests per second and median round trip.
    rps: Vec<f64>,
    rtt_p50_ms: Vec<f64>,
}

impl ServiceSection {
    /// Set up: prime the snapshot (untimed), then time snapshot load +
    /// `Service::start` + `Server::bind` several times, keeping the last
    /// server running.
    pub fn new(ctx: &Ctx, tracer: &Tracer) -> Self {
        let mut sec = Section::default();
        let config = ServiceConfig {
            n_threads: ctx.threads,
            ..ServiceConfig::default()
        };
        let reference = Evaluator::new(experiments_from(&ctx.primed, ctx), ctx.scale);
        let sock = ctx.work.join("svc.sock");
        let addr = sock.to_str().expect("work path is UTF-8").to_string();
        let mut setups = Vec::new();
        let mut server = None;
        for _ in 0..SETUPS {
            drop(server.take());
            let (s, secs) = tracer.span("service.setup", None, |id| {
                let exps = tracer
                    .span("core.cache_load", id, |_| {
                        experiments_from(&ctx.primed, ctx)
                    })
                    .0;
                let service = Service::start(Evaluator::new(exps, ctx.scale), config);
                Server::bind(&addr, service).expect("bind the benchmark's unix socket")
            });
            setups.push(secs);
            server = Some(s);
        }
        sec.setup_s = median(&setups);
        let server = server.expect("at least one set-up");
        let burst: Vec<Scheduled> = c3i_fuzz::generate_mix(BURST_MIX_SEED, BURST)
            .into_iter()
            .zip(0..)
            .map(|(req, id)| Scheduled { id, due_ns: 0, req })
            .collect();
        let expected = Expected::new(&reference, &[&burst]);
        Self {
            sec,
            config,
            reference,
            server: Some(std::thread::spawn(move || server.run())),
            addr,
            burst,
            expected,
            rps: Vec::new(),
            rtt_p50_ms: Vec::new(),
        }
    }

    fn connect(&self) -> Client {
        Client::connect(&self.addr).expect("connect to the benchmark server")
    }

    /// One closed-loop burst: both connections send their half of the
    /// burst back to back.
    pub fn burst(&mut self, tracer: &Tracer) {
        let (samples, _) = tracer.span("service.burst", None, |id| {
            replay(
                &self.burst,
                || self.connect(),
                wire_send,
                tracer,
                "service.request",
                id,
            )
        });
        let wall_ns = samples.iter().map(|s| s.latency_ns).max().unwrap_or(1);
        let mut rtt: Vec<u64> = samples.iter().map(|s| s.rtt_ns).collect();
        let phase = Phase::judge(0, &self.burst, samples, &self.expected);
        self.sec.attempted += phase.latency_ns.len() as u64;
        self.sec.failed += phase.failed;
        self.sec.problems.extend(phase.problems.into_iter().take(5));
        rtt.sort_unstable();
        self.rtt_p50_ms.push(ns_to_ms(nearest_rank(&rtt, 0.5)));
        if !tracer.on() {
            self.rps.push(BURST as f64 / (wall_ns as f64 / 1e9));
        }
    }

    /// Report, then stop the server. The traced run first drives the
    /// open-loop phases: the fixed rates, the `max_rps` ladder, and the
    /// same schedules in process.
    pub fn finish(mut self, ctx: &Ctx, tracer: &Tracer) -> Section {
        if tracer.on() {
            self.sec
                .layer
                .push("svc.closed_p50_ms", fastest(&self.rtt_p50_ms), "ms");
            self.open_loop(ctx, tracer);
        } else {
            // The best burst, for the same reason as `stats::fastest`.
            let best_rps = self.rps.iter().copied().fold(0.0, f64::max);
            self.sec.e2e.push("closed_rps", best_rps, "1/s");
        }
        self.connect()
            .shutdown_server()
            .expect("stop the benchmark server");
        self.server
            .take()
            .expect("server started in new")
            .join()
            .expect("server thread panicked")
            .expect("server accept loop");
        self.sec
    }

    fn open_loop(&mut self, ctx: &Ctx, tracer: &Tracer) {
        let fixed = (BLOCKS * SAMPLES) as u64;
        let low = schedule(ctx.seed, LOW_RPS, 0, BLOCKS * SAMPLES);
        let high = schedule(ctx.seed, HIGH_RPS, fixed, BLOCKS * SAMPLES);
        let ladder: Vec<(u32, Vec<Scheduled>)> = (1..)
            .map(|k| HIGH_RPS + k * STEP_RPS)
            .take_while(|&r| r <= LADDER_MAX_RPS)
            .enumerate()
            .map(|(k, r)| {
                (
                    r,
                    schedule(ctx.seed, r, 2 * fixed + (k * SAMPLES) as u64, SAMPLES),
                )
            })
            .collect();
        let mut all: Vec<&[Scheduled]> = vec![&low, &high];
        all.extend(ladder.iter().map(|(_, s)| s.as_slice()));
        let expected = Expected::new(&self.reference, &all);

        let before = sthreads::stats::snapshot();
        let wire_phase = |rate: u32, sched: &[Scheduled]| {
            let (samples, _) = tracer.span(&format!("service.wire.{rate}"), None, |id| {
                replay(
                    sched,
                    || self.connect(),
                    wire_send,
                    tracer,
                    "service.request",
                    id,
                )
            });
            Phase::judge(rate, sched, samples, &expected)
        };
        let p_low = wire_phase(LOW_RPS, &low);
        let p_high = wire_phase(HIGH_RPS, &high);
        let mut rungs = vec![];
        let mut max_rps = [(&p_high, HIGH_RPS), (&p_low, LOW_RPS)]
            .iter()
            .find(|(p, _)| p.meets_limit())
            .map_or(0, |&(_, r)| r);
        // A rung passes if either of two attempts meets the limit, so one
        // cluster of heavy requests does not end the ladder; the ladder
        // stops at the first rung that misses twice.
        let started = Instant::now();
        if max_rps == HIGH_RPS {
            'ladder: for (rate, sched) in &ladder {
                for _ in 0..2 {
                    if started.elapsed() > LADDER_BUDGET {
                        break 'ladder;
                    }
                    let p = wire_phase(*rate, sched);
                    let pass = p.meets_limit();
                    rungs.push(p);
                    if pass {
                        max_rps = *rate;
                        continue 'ladder;
                    }
                }
                break;
            }
        }
        let server_p99_ms = sthreads::stats::service_latency().quantile_ns(0.99) as f64 / 1e6;
        let pool = sthreads::stats::snapshot() - before;
        for p in [&p_low, &p_high].into_iter().chain(&rungs) {
            self.sec.attempted += p.latency_ns.len() as u64;
            self.sec.failed += p.failed;
            self.sec.problems.extend(p.problems.iter().take(5).cloned());
        }

        let m = &mut self.sec.layer;
        m.push("svc.p50_ms.low", p_low.block_pct_ms(0.50), "ms");
        m.push("svc.p99_ms.low", p_low.block_pct_ms(0.99), "ms");
        m.push("svc.p50_ms.high", p_high.block_pct_ms(0.50), "ms");
        m.push("svc.p99_ms.high", p_high.block_pct_ms(0.99), "ms");
        m.push("svc.max_rps", f64::from(max_rps), "1/s");
        m.extend(in_process_layers(
            ctx,
            tracer,
            &self.reference,
            &expected,
            [&low, &high],
            &p_low,
            self.config,
        ));
        for k in KINDS {
            let mut v: Vec<u64> = high
                .iter()
                .zip(&p_high.latency_ns)
                .filter(|(s, _)| kind(&s.req) == k)
                .map(|(_, &l)| l)
                .collect();
            v.sort_unstable();
            let p99 = if v.is_empty() {
                0.0
            } else {
                ns_to_ms(nearest_rank(&v, 0.99))
            };
            m.push(format!("svc.kind_p99_ms.{k}"), p99, "ms");
        }
        m.push("core.service.server_p99_ms", server_p99_ms, "ms");
        let rejected: u64 = [&p_low, &p_high]
            .into_iter()
            .chain(&rungs)
            .map(|p| p.rejected)
            .sum();
        m.push("svc.rejected", rejected as f64, "count");
        m.push("svc.backlog_growth", p_high.backlog_growth_ms(), "ms");
        let mut late = p_high.late_ns.clone();
        late.sort_unstable();
        m.push("gen.late_p99_ms", ns_to_ms(nearest_rank(&late, 0.99)), "ms");
        m.push("sthreads.service.regions", pool.regions as f64, "count");
        m.push(
            "sthreads.service.serial_cutoff_regions",
            pool.serial_cutoff_regions as f64,
            "count",
        );
        m.push("sthreads.service.tasks", pool.tasks as f64, "count");
    }
}

/// Direct evaluation per kind, and the same schedules replayed in process
/// (no wire) to split queueing from transport: the low schedule's first
/// block and the whole high schedule.
fn in_process_layers(
    ctx: &Ctx,
    tracer: &Tracer,
    reference: &Evaluator,
    expected: &Expected,
    [low, high]: [&[Scheduled]; 2],
    wire_low: &Phase,
    config: ServiceConfig,
) -> Metrics {
    let mut m = Metrics::default();
    let mut per_kind: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut eval_ns: HashMap<String, u64> = HashMap::new();
    for s in high {
        let k = kind(&s.req);
        let start = Instant::now();
        let _ = std::hint::black_box(reference.evaluate(std::hint::black_box(&s.req)));
        let end = Instant::now();
        tracer.request("core.evaluate", None, start, end, s.id, k);
        per_kind
            .entry(k)
            .or_default()
            .push((end - start).as_secs_f64() * 1e6);
        eval_ns.insert(key(&s.req), (end - start).as_nanos() as u64);
    }
    let mut total = 0.0;
    for k in KINDS {
        let v = per_kind.get(k).map(Vec::as_slice).unwrap_or(&[]);
        total += v.iter().sum::<f64>();
        let mean = if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        };
        m.push(format!("core.eval_us.{k}"), mean, "us");
    }
    m.push("core.eval_mean_us", total / high.len() as f64, "us");
    m.push("core.eval_count", high.len() as f64, "count");

    let service = Service::start(
        Evaluator::new(experiments_from(&ctx.primed, ctx), ctx.scale),
        config,
    );
    let in_proc = |rate: u32, sched: &[Scheduled]| {
        let (samples, _) = tracer.span(&format!("service.in_process.{rate}"), None, |id| {
            replay(
                sched,
                || (),
                |_, req| in_process_send(&service, req),
                tracer,
                "service.submit",
                id,
            )
        });
        Phase::judge(rate, sched, samples, expected)
    };
    let ip_low = in_proc(LOW_RPS, &low[..SAMPLES]);
    let ip_high = in_proc(HIGH_RPS, high);
    drop(service);
    m.push("core.service.p50_ms.high", ip_high.block_pct_ms(0.50), "ms");
    m.push("core.service.p99_ms.high", ip_high.block_pct_ms(0.99), "ms");
    let mut waits: Vec<u64> = high
        .iter()
        .zip(&ip_high.latency_ns)
        .map(|(s, &l)| l.saturating_sub(eval_ns[&key(&s.req)]))
        .collect();
    waits.sort_unstable();
    m.push(
        "core.service.wait_p99_ms.high",
        ns_to_ms(nearest_rank(&waits, 0.99)),
        "ms",
    );
    let mut wire_first: Vec<u64> = wire_low.latency_ns[..SAMPLES].to_vec();
    wire_first.sort_unstable();
    m.push(
        "core.wire.overhead_p50_ms",
        ns_to_ms(nearest_rank(&wire_first, 0.5)) - ip_low.pct_ms(0.50),
        "ms",
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_schedule_and_mix() {
        let a = schedule(7, HIGH_RPS, 1000, 500);
        let b = schedule(7, HIGH_RPS, 1000, 500);
        assert_eq!(a, b);
        let c = schedule(8, HIGH_RPS, 1000, 500);
        assert_ne!(
            a.iter().map(|s| s.due_ns).collect::<Vec<_>>(),
            c.iter().map(|s| s.due_ns).collect::<Vec<_>>()
        );
        assert_ne!(
            a.iter().map(|s| &s.req).collect::<Vec<_>>(),
            c.iter().map(|s| &s.req).collect::<Vec<_>>()
        );
    }

    #[test]
    fn arrivals_are_increasing_at_roughly_the_rate() {
        let s = schedule(3, LOW_RPS, 0, SAMPLES);
        assert!(s.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert_eq!(
            s.iter().map(|x| x.id).collect::<Vec<_>>(),
            (0..SAMPLES as u64).collect::<Vec<_>>()
        );
        // 1000 exponential gaps: the mean is within 10% of 1/rate.
        let span_s = s.last().unwrap().due_ns as f64 / 1e9;
        let expected = SAMPLES as f64 / f64::from(LOW_RPS);
        assert!(
            (span_s / expected - 1.0).abs() < 0.1,
            "{span_s} vs {expected}"
        );
    }

    #[test]
    fn the_mix_only_generates_known_kinds() {
        for s in schedule(11, HIGH_RPS, 0, 2000) {
            assert!(KINDS.contains(&kind(&s.req)), "{:?}", s.req);
        }
    }
}
