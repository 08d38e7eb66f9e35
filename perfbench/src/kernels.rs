//! The `kernels` section: seeded scenarios of the paper's shape through
//! every host variant the paper evaluates, at pool width.
//!
//! This is the only section that runs the `NoRec` host kernels and the
//! `sthreads` Static/Dynamic/Stealing paths with many tiny tasks. Every
//! output is compared with the sequential oracle, which is itself checked
//! by `verify_intervals` / `verify_masking`.

use crate::stats::{fastest, median};
use crate::trace::Tracer;
use crate::{Ctx, Section};
use c3i::terrain::{self, TerrainScenario, TerrainScenarioParams};
use c3i::threat::{self, Interval, ThreatScenario, ThreatScenarioParams};
use c3i::Grid;
use eval_core::workload::{WorkloadScale, TM_BLOCKS};

/// Scenario generations timed per run; `setup_s` takes their median.
const SETUPS: usize = 3;

const THREAT: [&str; 4] = ["seq", "chunked", "chunked256", "fine"];
const TERRAIN: [&str; 3] = ["seq", "coarse", "fine"];
const POOL: [(&str, &str); 6] = [
    ("regions", "count"),
    ("steals", "count"),
    ("steal_fails", "count"),
    ("dispatch_ms", "ms"),
    ("imbalance_ms", "ms"),
    ("busy_ms", "ms"),
];

/// Per-layer metrics this section prints in the traced run.
pub fn layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = THREAT
        .iter()
        .map(|t| (format!("c3i.threat.{t}_s"), "s"))
        .chain(TERRAIN.iter().map(|t| (format!("c3i.terrain.{t}_s"), "s")))
        .collect();
    v.extend(
        POOL.iter()
            .map(|(c, u)| (format!("sthreads.kernels.{c}"), *u)),
    );
    v.push(("c3i.scenario_gen_s".into(), "s"));
    v.push(("c3i.intervals".into(), "count"));
    v.push(("c3i.masked_cells".into(), "count"));
    v
}

/// The section's inputs: paper-shape scenarios (or the reduced workload's
/// shape), generated from the seed.
/// How much a scenario's work varies with its seed is averaged over several
/// scenarios per repetition; the reduced scale runs more of its smaller
/// ones.
fn scenarios(ctx: &Ctx) -> (Vec<ThreatScenario>, Vec<TerrainScenario>) {
    let (n_weapons, grid_size, n_threats, n_ta, n_tm) = match ctx.scale {
        WorkloadScale::Paper => (25, 1024, 60, 3, 2),
        WorkloadScale::Reduced => (3, 512, 30, 24, 8),
    };
    let seed = |i: u64, n: u64| ctx.seed.wrapping_mul(n).wrapping_add(i);
    let ta = (0..n_ta)
        .map(|i| {
            threat::generate(ThreatScenarioParams {
                n_threats: 1000,
                n_weapons,
                seed: seed(i, n_ta),
                ..ThreatScenarioParams::default()
            })
        })
        .collect();
    let tm = (0..n_tm)
        .map(|i| {
            terrain::generate(TerrainScenarioParams {
                grid_size,
                n_threats,
                seed: seed(i, n_tm),
                ..TerrainScenarioParams::default()
            })
        })
        .collect();
    (ta, tm)
}

fn same_grid(a: &Grid<f64>, b: &Grid<f64>) -> bool {
    a.x_size() == b.x_size()
        && a.y_size() == b.y_size()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One repetition's outputs, kept for the checks after the timed window.
struct Rep {
    threat_s: [f64; 4],
    terrain_s: [f64; 3],
    /// Per TA scenario: seq, chunked, chunked256 (flattened), fine.
    threat: Vec<[Vec<Interval>; 4]>,
    /// Per TM scenario: seq, coarse, fine.
    terrain: Vec<[Grid<f64>; 3]>,
}

fn rep(ctx: &Ctx, tracer: &Tracer, ta: &[ThreatScenario], tm: &[TerrainScenario]) -> Rep {
    let n = ctx.threads;
    let mut threat_s = [0.0; 4];
    let mut threat_out = Vec::new();
    for s in ta {
        let span = |i: usize, f: &dyn Fn() -> Vec<Interval>| {
            let (v, secs) = tracer.span(&format!("c3i.threat.{}", THREAT[i]), None, |_| f());
            threat_s[i] += secs;
            v
        };
        let mut span = span;
        threat_out.push([
            span(0, &|| threat::threat_analysis_host(s)),
            span(1, &|| {
                threat::threat_analysis_chunked_host(s, n, n).flatten()
            }),
            span(2, &|| {
                threat::threat_analysis_chunked_host(s, 256, n).flatten()
            }),
            span(3, &|| threat::threat_analysis_fine_host(s, n).intervals),
        ]);
    }
    let mut terrain_s = [0.0; 3];
    let mut terrain_out = Vec::new();
    for s in tm {
        let mut span = |i: usize, f: &dyn Fn() -> Grid<f64>| {
            let (g, secs) = tracer.span(&format!("c3i.terrain.{}", TERRAIN[i]), None, |_| f());
            terrain_s[i] += secs;
            g
        };
        terrain_out.push([
            span(0, &|| terrain::terrain_masking_host(s)),
            span(1, &|| terrain::terrain_masking_coarse_host(s, n, TM_BLOCKS)),
            span(2, &|| terrain::terrain_masking_fine_host(s, n)),
        ]);
    }
    Rep {
        threat_s,
        terrain_s,
        threat: threat_out,
        terrain: terrain_out,
    }
}

/// The section's state across repetitions.
pub struct Kernels {
    sec: Section,
    ta: Vec<ThreatScenario>,
    tm: Vec<TerrainScenario>,
    /// Sequential outputs, verified against the scenarios.
    seq_ta: Vec<Vec<Interval>>,
    canon_ta: Vec<Vec<Interval>>,
    seq_tm: Vec<Grid<f64>>,
    /// Per untraced repetition: seconds of each variant.
    untraced: Vec<([f64; 4], [f64; 3])>,
    /// Per traced repetition: variant seconds and the pool's counters.
    traced: Vec<([f64; 4], [f64; 3], sthreads::StatsSnapshot)>,
}

impl Kernels {
    /// Set up: generate the scenarios (timed, several times) and compute
    /// and verify the sequential oracles (untimed).
    pub fn new(ctx: &Ctx, tracer: &Tracer) -> Self {
        let mut sec = Section::default();
        let mut gen_s = Vec::new();
        let mut inputs = None;
        for _ in 0..SETUPS {
            let (s, secs) = tracer.span("c3i.scenario_gen", None, |_| scenarios(ctx));
            gen_s.push(secs);
            inputs = Some(s);
        }
        sec.setup_s = median(&gen_s);
        let (ta, tm) = inputs.expect("at least one set-up");
        let seq_ta: Vec<Vec<Interval>> = ta.iter().map(threat::threat_analysis_host).collect();
        let seq_tm: Vec<Grid<f64>> = tm.iter().map(terrain::terrain_masking_host).collect();
        for (s, iv) in ta.iter().zip(&seq_ta) {
            if let Err(e) = threat::verify_intervals(s, iv) {
                sec.problems.push(format!(
                    "sequential Threat Analysis fails verification: {e:?}"
                ));
            }
        }
        for (s, g) in tm.iter().zip(&seq_tm) {
            if let Err(e) = terrain::verify_masking(s, g) {
                sec.problems.push(format!(
                    "sequential Terrain Masking fails verification: {e:?}"
                ));
            }
        }
        let canon_ta = seq_ta
            .iter()
            .map(|v| threat::canonical(v.clone()))
            .collect();
        Self {
            sec,
            ta,
            tm,
            seq_ta,
            canon_ta,
            seq_tm,
            untraced: Vec::new(),
            traced: Vec::new(),
        }
    }

    /// Every variant once, then every output checked against the oracle.
    pub fn rep(&mut self, ctx: &Ctx, tracer: &Tracer) {
        let before = sthreads::stats::snapshot();
        let r = rep(ctx, tracer, &self.ta, &self.tm);
        let pool = sthreads::stats::snapshot() - before;
        let (threat_s, terrain_s) = (
            r.threat_s.iter().sum::<f64>(),
            r.terrain_s.iter().sum::<f64>(),
        );
        let sec = &mut self.sec;
        if tracer.on() {
            sec.overhead_walls.1.push(threat_s + terrain_s);
            self.traced.push((r.threat_s, r.terrain_s, pool));
        } else {
            sec.overhead_walls.0.push(threat_s + terrain_s);
            self.untraced.push((r.threat_s, r.terrain_s));
        }
        for (i, [seq, chunked, chunked256, fine]) in r.threat.into_iter().enumerate() {
            let checks = [
                ("seq", seq == self.seq_ta[i]),
                ("chunked", chunked == self.seq_ta[i]),
                ("chunked256", chunked256 == self.seq_ta[i]),
                ("fine", threat::canonical(fine) == self.canon_ta[i]),
            ];
            for (name, ok) in checks {
                sec.attempted += 1;
                if !ok {
                    sec.failed += 1;
                    sec.problems.push(format!(
                        "threat {name} differs from the oracle on scenario {i}"
                    ));
                }
            }
        }
        for (i, grids) in r.terrain.iter().enumerate() {
            for (name, g) in TERRAIN.iter().zip(grids) {
                sec.attempted += 1;
                if !same_grid(g, &self.seq_tm[i]) {
                    sec.failed += 1;
                    sec.problems.push(format!(
                        "terrain {name} differs from the oracle on scenario {i}"
                    ));
                }
            }
        }
    }

    /// Report: end-to-end walls, or the traced repetitions' layers.
    pub fn finish(mut self, tracer: &Tracer) -> Section {
        if !tracer.on() {
            // Each variant's fastest repetition, summed over the variants.
            let u = &self.untraced;
            let best = |f: &dyn Fn(usize) -> Vec<f64>, n: usize| {
                (0..n).map(|i| fastest(&f(i))).sum::<f64>()
            };
            let threat = best(&|i| u.iter().map(|r| r.0[i]).collect(), THREAT.len());
            let terrain = best(&|i| u.iter().map(|r| r.1[i]).collect(), TERRAIN.len());
            self.sec.e2e.push("threat_s", threat, "s");
            self.sec.e2e.push("terrain_s", terrain, "s");
            return self.sec;
        }
        let m = &mut self.sec.layer;
        let traced = &self.traced;
        for (i, t) in THREAT.iter().enumerate() {
            let v: Vec<f64> = traced.iter().map(|r| r.0[i]).collect();
            m.push(format!("c3i.threat.{t}_s"), median(&v), "s");
        }
        for (i, t) in TERRAIN.iter().enumerate() {
            let v: Vec<f64> = traced.iter().map(|r| r.1[i]).collect();
            m.push(format!("c3i.terrain.{t}_s"), median(&v), "s");
        }
        // Pool counters per repetition, summed over the traced ones.
        let per_rep = |f: &dyn Fn(&sthreads::StatsSnapshot) -> u64| {
            traced.iter().map(|r| f(&r.2)).sum::<u64>() as f64 / traced.len() as f64
        };
        for ((c, u), v) in POOL.iter().zip([
            per_rep(&|p| p.regions),
            per_rep(&|p| p.steals),
            per_rep(&|p| p.steal_fails),
            per_rep(&|p| p.dispatch_ns) / 1e6,
            per_rep(&|p| p.imbalance_ns) / 1e6,
            per_rep(&|p| p.busy_ns) / 1e6,
        ]) {
            m.push(format!("sthreads.kernels.{c}"), v, u);
        }
        m.push("c3i.scenario_gen_s", self.sec.setup_s, "s");
        let intervals: usize = self.seq_ta.iter().map(Vec::len).sum();
        m.push("c3i.intervals", intervals as f64, "count");
        let masked: usize = self
            .seq_tm
            .iter()
            .map(|g| g.as_slice().iter().filter(|v| v.is_finite()).count())
            .sum();
        m.push("c3i.masked_cells", masked as f64, "count");
        self.sec
    }
}
