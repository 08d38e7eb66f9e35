//! The `pipeline` section: everything `repro all` does, cold and warm.
//!
//! Cold runs `cache::load_or_measure_in` against a fresh directory
//! (`Workload::build`, `calibrate`, snapshot store) and then every
//! generator; warm runs the same steps against the now-primed directory
//! (snapshot load). The inputs are the repository's fixed suite at the
//! workload's scale, so this section ignores the seed.

use crate::stats::{fastest, median};
use crate::trace::Tracer;
use crate::{Ctx, Section};
use c3i::{terrain, threat};
use eval_core::cache::{self, CacheStatus, Snapshot};
use eval_core::experiments::{self, Experiments, Figure};
use eval_core::workload::{Workload, WorkloadScale, TM_BLOCKS};
use std::path::Path;
use std::time::Instant;
use sthreads::Schedule;

/// Warm passes per cold pass: a warm pass is short, so it is repeated to
/// give the fastest-of statistic as many chances as the others get.
const WARM_PASSES: usize = 3;

/// Processor counts of `repro scalability`.
const SCALABILITY_PROCS: [usize; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// The generator steps, each timed as its own layer span.
const STEPS: [&str; 7] = [
    "core.table_auto",
    "core.tables",
    "core.figures",
    "mta_sim.util_sweep",
    "autopar.report",
    "core.scalability",
    "core.sensitivity",
];

/// Counting kernels run once per scenario, from outside the workload
/// build, in the traced run.
const COUNTS: [&str; 5] = [
    "c3i.count.ta_per_threat",
    "c3i.count.ta_seq",
    "c3i.count.tm_per_threat",
    "c3i.count.tm_seq",
    "c3i.count.tm_fine",
];

const POOL: [(&str, &str); 6] = [
    ("regions", "count"),
    ("tasks", "count"),
    ("parks", "count"),
    ("dispatch_ms", "ms"),
    ("imbalance_ms", "ms"),
    ("busy_ms", "ms"),
];

/// Per-layer metrics this section prints in the traced run.
pub fn layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![("c3i.suite_gen_s".into(), "s")];
    v.extend(COUNTS.iter().map(|c| (format!("{c}_s"), "s")));
    for n in [
        "core.workload_build_s",
        "core.workload_build_1t_s",
        "core.calibrate_s",
        "core.cache_store_s",
        "core.cache_measure_s",
        "core.cache_load_s",
    ] {
        v.push((n.into(), "s"));
    }
    v.push(("core.snapshot_bytes".into(), "bytes"));
    v.extend(STEPS.iter().map(|s| (format!("{s}_s"), "s")));
    v.extend(
        POOL.iter()
            .map(|(c, u)| (format!("sthreads.pipeline.{c}"), *u)),
    );
    v
}

/// Every output of one pass, as text, for byte comparison.
#[derive(Debug, PartialEq)]
struct Outputs {
    /// `to_csv()` of Tables 1–12, in order.
    tables: Vec<String>,
    table_auto: String,
    /// Figures, utilization sweep, autopar report, scalability and
    /// sensitivity, rendered.
    rest: Vec<String>,
}

fn generate(exps: &Experiments, threads: usize, tracer: &Tracer, parent: Option<u64>) -> Outputs {
    let t = |i: usize| STEPS[i];
    let table_auto = tracer
        .span(t(0), parent, |_| Experiments::table_auto(threads))
        .0
        .to_csv();
    let tables = tracer.span(t(1), parent, |_| exps.all_tables()).0;
    let figures = tracer
        .span(t(2), parent, |_| {
            [
                Figure::ThreatPPro,
                Figure::ThreatExemplar,
                Figure::TerrainPPro,
                Figure::TerrainExemplar,
            ]
            .map(|f| exps.figure(f))
        })
        .0;
    let util = tracer
        .span(t(3), parent, |_| {
            mta_sim::kernels::measure_utilization_sweep(
                &experiments::util_cfg(),
                &experiments::UTIL_STREAMS,
                400,
                3,
                threads,
            )
        })
        .0;
    let autopar = tracer.span(t(4), parent, |_| exps.autopar_report()).0;
    let scal = tracer
        .span(t(5), parent, |_| {
            exps.scalability_projection(&SCALABILITY_PROCS)
        })
        .0;
    let sens = tracer.span(t(6), parent, |_| exps.sensitivity()).0;
    let mut rest = figures.to_vec();
    rest.push(format!("{util:?}"));
    rest.push(format!("{}\n{}", autopar.report, autopar.dataflow));
    rest.push(scal.render());
    rest.push(sens.render());
    Outputs {
        tables: tables.iter().map(|t| t.to_csv()).collect(),
        table_auto,
        rest,
    }
}

/// One pass: load (or measure) through the cache at `dir`, then every
/// generator. Returns the outputs, the cache status, and wall seconds.
fn pass(
    ctx: &Ctx,
    dir: &Path,
    tracer: &Tracer,
    name: &str,
    load_span: &str,
) -> (Outputs, CacheStatus, f64) {
    let ((outputs, status), secs) = tracer.span(name, None, |id| {
        let ((workload, cal, status), _) = tracer.span(load_span, id, |_| {
            cache::load_or_measure_in(dir, ctx.scale, true)
        });
        let exps = Experiments { workload, cal };
        (generate(&exps, ctx.threads, tracer, id), status)
    });
    (outputs, status, secs)
}

/// The pinned `results/` CSVs: the paper-scale oracle.
fn pinned() -> Result<(Vec<String>, String), String> {
    let read = |name: &str| {
        std::fs::read_to_string(format!("results/{name}.csv"))
            .map_err(|e| format!("cannot read results/{name}.csv: {e}"))
    };
    let tables = (1..=12)
        .map(|n| read(&format!("table_{n}")))
        .collect::<Result<_, _>>()?;
    Ok((tables, read("table_auto")?))
}

/// The section's state across repetitions.
pub struct Pipeline {
    sec: Section,
    pinned: Option<(Vec<String>, String)>,
    cold: Vec<f64>,
    warm: Vec<f64>,
    reference: Option<Outputs>,
    reps: usize,
}

impl Pipeline {
    /// Set up: wake the pool and read the pinned tables.
    pub fn new(ctx: &Ctx) -> Self {
        let mut sec = Section::default();
        let t = Instant::now();
        sthreads::ThreadPool::global().warm(ctx.threads);
        let pinned = pinned();
        sec.setup_s = t.elapsed().as_secs_f64();
        let pinned = pinned.map_err(|e| sec.problems.push(e)).ok();
        Self {
            sec,
            pinned,
            cold: Vec::new(),
            warm: Vec::new(),
            reference: None,
            reps: 0,
        }
    }

    /// One cold pass and `WARM_PASSES` warm ones, checked after each is
    /// timed.
    pub fn rep(&mut self, ctx: &Ctx, tracer: &Tracer) {
        let (sec, rep) = (&mut self.sec, self.reps);
        let dir = ctx.work.join(format!("cache-{rep}"));
        let _ = std::fs::remove_dir_all(&dir);
        let (c_out, c_status, c_s) = pass(ctx, &dir, tracer, "pipeline.cold", "core.cache_measure");
        sec.attempted += 1;
        if c_status != CacheStatus::Miss {
            sec.failed += 1;
            sec.problems.push(format!(
                "pipeline cold pass: cache {c_status:?}, expected Miss"
            ));
        }
        let mut wall = c_s;
        for _ in 0..WARM_PASSES {
            let (w_out, w_status, w_s) =
                pass(ctx, &dir, tracer, "pipeline.warm", "core.cache_load");
            sec.attempted += 1;
            if w_status != CacheStatus::Hit || w_out != c_out {
                sec.failed += 1;
                sec.problems.push(format!(
                    "pipeline warm pass: cache {w_status:?} (expected Hit), outputs {} the cold pass's",
                    if w_out == c_out { "equal to" } else { "differ from" }
                ));
            }
            wall += w_s;
            if !tracer.on() {
                self.warm.push(w_s);
            }
        }
        match &self.reference {
            None => {
                check_pinned(ctx.scale, &c_out, self.pinned.as_ref(), sec);
                self.reference = Some(c_out);
            }
            Some(r) if *r != c_out => {
                sec.failed += 1;
                sec.problems
                    .push(format!("pipeline rep {rep}: outputs differ from rep 0"));
            }
            Some(_) => {}
        }
        if tracer.on() {
            sec.overhead_walls.1.push(wall);
        } else {
            sec.overhead_walls.0.push(wall);
            self.cold.push(c_s);
        }
        if rep > 0 {
            let _ = std::fs::remove_dir_all(ctx.work.join(format!("cache-{}", rep - 1)));
        }
        self.reps += 1;
    }

    /// Report: the fastest passes, or the traced passes' layers.
    pub fn finish(mut self, ctx: &Ctx, tracer: &Tracer) -> Section {
        if tracer.on() {
            traced_layers(ctx, tracer, &mut self.sec);
        } else {
            self.sec.e2e.push("cold_s", fastest(&self.cold), "s");
            self.sec.e2e.push("warm_s", fastest(&self.warm), "s");
        }
        self.sec
    }
}

/// Tables must match the pinned CSVs byte for byte at paper scale; the
/// scale-independent auto-vs-manual table must match at every scale.
fn check_pinned(
    scale: WorkloadScale,
    out: &Outputs,
    pinned: Option<&(Vec<String>, String)>,
    sec: &mut Section,
) {
    let Some((tables, table_auto)) = pinned else {
        return;
    };
    if out.table_auto != *table_auto {
        sec.failed += 1;
        sec.problems
            .push("table_auto differs from results/table_auto.csv".into());
    }
    if scale == WorkloadScale::Paper {
        for (i, (got, want)) in out.tables.iter().zip(tables).enumerate() {
            if got != want {
                sec.failed += 1;
                sec.problems.push(format!(
                    "Table {} differs from results/table_{}.csv",
                    i + 1,
                    i + 1
                ));
            }
        }
    }
}

/// The scenario suite `Workload::build` measures at `scale`.
fn suite(scale: WorkloadScale) -> (Vec<threat::ThreatScenario>, Vec<terrain::TerrainScenario>) {
    match scale {
        WorkloadScale::Paper => (threat::benchmark_suite(), terrain::benchmark_suite()),
        // The reduced suite as `eval_core::workload` defines it.
        WorkloadScale::Reduced => (
            (1..=5)
                .map(|seed| {
                    threat::generate(threat::ThreatScenarioParams {
                        n_threats: 1000,
                        n_weapons: 3,
                        seed,
                        theater_m: 400_000.0,
                        launch_window_s: 900.0,
                    })
                })
                .collect(),
            (1..=5)
                .map(|seed| {
                    terrain::generate(terrain::TerrainScenarioParams {
                        grid_size: 512,
                        n_threats: 30,
                        seed,
                        ..Default::default()
                    })
                })
                .collect(),
        ),
    }
}

/// The traced run's per-layer numbers: medians of the repetition spans,
/// plus each layer `repro` hides inside `load_or_measure_in`, called
/// once from outside.
fn traced_layers(ctx: &Ctx, tracer: &Tracer, sec: &mut Section) {
    let m = &mut sec.layer;
    let med = |name: &str| median(&tracer.secs(name));
    let ((ta, tm), suite_s) = tracer.span("c3i.suite_gen", None, |_| suite(ctx.scale));
    m.push("c3i.suite_gen_s", suite_s, "s");
    let counts: [&dyn Fn(); 5] = [
        &|| {
            ta.iter()
                .for_each(|s| drop(std::hint::black_box(threat::per_threat_counts(s))))
        },
        &|| {
            ta.iter()
                .for_each(|s| drop(std::hint::black_box(threat::threat_analysis_profile(s))))
        },
        &|| {
            tm.iter().for_each(|s| {
                drop(std::hint::black_box(terrain::per_threat_counts(
                    s, TM_BLOCKS,
                )))
            })
        },
        &|| {
            tm.iter()
                .for_each(|s| drop(std::hint::black_box(terrain::terrain_masking_profile(s))))
        },
        &|| {
            tm.iter()
                .for_each(|s| drop(std::hint::black_box(terrain::terrain_masking_fine(s))))
        },
    ];
    for (name, f) in COUNTS.iter().zip(counts) {
        m.push(format!("{name}_s"), tracer.span(name, None, |_| f()).1, "s");
    }

    sthreads::stats::set_timing(true);
    let before = sthreads::stats::snapshot();
    let (workload, build_s) =
        tracer.span("core.workload_build", None, |_| Workload::build(ctx.scale));
    let pool = sthreads::stats::snapshot() - before;
    sthreads::stats::set_timing(false);
    let (seq, build_1t_s) = tracer.span("core.workload_build_1t", None, |_| {
        Workload::build_with(ctx.scale, 1, Schedule::Dynamic)
    });
    sec.attempted += 1;
    if seq != workload {
        sec.failed += 1;
        sec.problems
            .push("Workload::build differs from its 1-thread oracle".into());
    }
    m.push("core.workload_build_s", build_s, "s");
    m.push("core.workload_build_1t_s", build_1t_s, "s");
    let (cal, cal_s) = tracer.span("core.calibrate", None, |_| eval_core::calibrate(&workload));
    m.push("core.calibrate_s", cal_s, "s");
    let snap = Snapshot {
        fingerprint: cache::code_fingerprint(),
        workload,
        cal,
    };
    let path = ctx.work.join("store-probe.json");
    let (bytes, store_s) = tracer.span("core.cache_store", None, |_| {
        let text = serde_json::to_string(&snap).expect("snapshot serializes");
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &text).expect("write the snapshot probe");
        std::fs::rename(&tmp, &path).expect("rename the snapshot probe");
        text.len()
    });
    m.push("core.cache_store_s", store_s, "s");
    m.push("core.cache_measure_s", med("core.cache_measure"), "s");
    m.push("core.cache_load_s", med("core.cache_load"), "s");
    m.push("core.snapshot_bytes", bytes as f64, "bytes");
    for s in STEPS {
        m.push(format!("{s}_s"), med(s), "s");
    }
    let ms = |ns: u64| ns as f64 / 1e6;
    for ((c, u), v) in POOL.iter().zip([
        pool.regions as f64,
        pool.tasks as f64,
        pool.parks as f64,
        ms(pool.dispatch_ns),
        ms(pool.imbalance_ns),
        ms(pool.busy_ns),
    ]) {
        m.push(format!("sthreads.pipeline.{c}"), v, u);
    }
}
