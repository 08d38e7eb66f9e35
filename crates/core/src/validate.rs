//! Benchmark-derived trace validation: the conventional machine model
//! rests on a two-class memory-cost split (cache-resident vs streaming).
//! This module derives *actual address traces* from the benchmark
//! programs' loop structure and plays them through the `smp-sim` cache
//! simulator, confirming that:
//!
//! * Threat Analysis touches a per-pair working set of a few dozen words
//!   over and over — its trace hits in any realistic cache (the paper's
//!   "execute mostly within cache");
//! * Terrain Masking's copy/reset/compute/merge loops sweep megabyte
//!   arrays with line-level reuse only — its trace misses at the
//!   line-size rate, which is exactly what `stream_cost` charges.

use c3i::terrain::TerrainScenario;
use c3i::threat::ThreatScenario;
use smp_sim::{CacheConfig, CpuConfig, Op, SmpConfig, SmpMachine, SmpResult};

/// Memory layout used by the trace builders (word addresses).
mod layout {
    /// Threat records start here; 8 words per threat.
    pub const THREATS: usize = 0x1000;
    /// Weapon records; 8 words per weapon.
    pub const WEAPONS: usize = 0x9000;
    /// Interval output array.
    pub const INTERVALS: usize = 0xA000;
    /// Terrain elevations (row-major).
    pub const TERRAIN: usize = 0x10_0000;
    /// The shared masking array.
    pub const MASKING: usize = 0x40_0000;
    /// The temp array.
    pub const TEMP: usize = 0x70_0000;
}

/// The memory trace of sequential Threat Analysis over the first
/// `max_pairs` (threat, weapon) pairs: per time step the predicate
/// re-reads the threat and weapon records and does a fixed amount of
/// arithmetic; each emitted interval appends to the output array.
pub fn threat_analysis_trace(scenario: &ThreatScenario, max_pairs: usize) -> Vec<Op> {
    let mut trace = Vec::new();
    let mut out_ptr = layout::INTERVALS;
    let mut pairs = 0usize;
    'outer: for (ti, threat) in scenario.threats.iter().enumerate() {
        for wi in 0..scenario.weapons.len() {
            if pairs >= max_pairs {
                break 'outer;
            }
            pairs += 1;
            let t_addr = layout::THREATS + 8 * ti;
            let w_addr = layout::WEAPONS + 8 * wi;
            let steps = (threat.last_step().saturating_sub(threat.first_step())) as usize;
            for s in 0..steps {
                // The predicate touches a handful of record words...
                for k in 0..3 {
                    trace.push(Op::Mem {
                        addr: t_addr + k,
                        write: false,
                    });
                }
                for k in 0..2 {
                    trace.push(Op::Mem {
                        addr: w_addr + k,
                        write: false,
                    });
                }
                // ...and computes (trajectory + envelope + flyout).
                trace.push(Op::Compute(25));
                // Occasionally an interval is written out (streaming).
                if s % 97 == 96 {
                    for k in 0..4 {
                        trace.push(Op::Mem {
                            addr: out_ptr + k,
                            write: true,
                        });
                    }
                    out_ptr += 4;
                }
            }
        }
    }
    trace
}

/// The memory trace of sequential Terrain Masking over the first
/// `max_threats` threats: the four bulk loops of Program 3 with their
/// real row-major address patterns over the full-size arrays.
pub fn terrain_masking_trace(scenario: &TerrainScenario, max_threats: usize) -> Vec<Op> {
    let mut trace = Vec::new();
    let terrain = &scenario.terrain;
    let xs = terrain.x_size();
    for threat in scenario.threats.iter().take(max_threats) {
        let region = c3i::terrain::Region::of_checked(threat, xs, terrain.y_size());
        let cell = |x: usize, y: usize| y * xs + x;
        // temp[c] = masking[c]
        for (x, y) in region.cells() {
            trace.push(Op::Mem {
                addr: layout::MASKING + cell(x, y),
                write: false,
            });
            trace.push(Op::Mem {
                addr: layout::TEMP + cell(x, y),
                write: true,
            });
        }
        // masking[c] = INF
        for (x, y) in region.cells() {
            trace.push(Op::Mem {
                addr: layout::MASKING + cell(x, y),
                write: true,
            });
        }
        // recurrence: read parents (nearby ring cells) + terrain, write cell
        for (x, y) in region.cells() {
            trace.push(Op::Compute(12));
            trace.push(Op::Mem {
                addr: layout::MASKING + cell(x, y),
                write: false,
            });
            trace.push(Op::Mem {
                addr: layout::TERRAIN + cell(x, y),
                write: false,
            });
            trace.push(Op::Mem {
                addr: layout::MASKING + cell(x, y),
                write: true,
            });
        }
        // masking[c] = min(masking[c], temp[c])
        for (x, y) in region.cells() {
            trace.push(Op::Mem {
                addr: layout::MASKING + cell(x, y),
                write: false,
            });
            trace.push(Op::Mem {
                addr: layout::TEMP + cell(x, y),
                write: false,
            });
            trace.push(Op::Compute(2));
            trace.push(Op::Mem {
                addr: layout::MASKING + cell(x, y),
                write: true,
            });
        }
    }
    trace
}

/// A 1998-class processor cache for the validation runs: 1 MB (128 K
/// words), 32-byte (4-word) lines, 4-way.
pub fn validation_cpu() -> CpuConfig {
    CpuConfig {
        cache: CacheConfig {
            words: 128 * 1024,
            line_words: 4,
            ways: 4,
        },
        hit_cycles: 1,
        miss_extra_cycles: 40,
    }
}

/// Run a single-processor trace through `smp-sim`.
pub fn run_trace(trace: Vec<Op>) -> SmpResult {
    let mut m = SmpMachine::new(SmpConfig {
        n_cpus: 1,
        cpu: validation_cpu(),
        bus_per_transaction: 6,
    });
    m.run(&[trace])
}

/// The parallel coarse-grained Terrain Masking traces: threats dealt
/// round-robin over `n_cpus` processors, each processor running the
/// Program 4 loops (private temp compute, shared-masking merge) over its
/// threats. Shared-array writes produce real coherence traffic in the
/// simulator.
pub fn terrain_masking_parallel_traces(
    scenario: &TerrainScenario,
    n_cpus: usize,
    max_threats: usize,
) -> Vec<Vec<Op>> {
    let terrain = &scenario.terrain;
    let xs = terrain.x_size();
    let mut traces: Vec<Vec<Op>> = vec![Vec::new(); n_cpus];
    for (ti, threat) in scenario.threats.iter().take(max_threats).enumerate() {
        let trace = &mut traces[ti % n_cpus];
        let region = c3i::terrain::Region::of_checked(threat, xs, terrain.y_size());
        let cell = |x: usize, y: usize| y * xs + x;
        // Private temp arrays per cpu (disjoint address ranges).
        let temp_base = layout::TEMP + (ti % n_cpus) * 0x8_0000;
        // temp = INF; temp = recurrence(terrain)
        for (x, y) in region.cells() {
            trace.push(Op::Mem {
                addr: temp_base + cell(x, y),
                write: true,
            });
        }
        for (x, y) in region.cells() {
            trace.push(Op::Compute(12));
            trace.push(Op::Mem {
                addr: temp_base + cell(x, y),
                write: false,
            });
            trace.push(Op::Mem {
                addr: layout::TERRAIN + cell(x, y),
                write: false,
            });
            trace.push(Op::Mem {
                addr: temp_base + cell(x, y),
                write: true,
            });
        }
        // masking = min(masking, temp) under block locks (lock cost folded
        // into compute).
        for (x, y) in region.cells() {
            trace.push(Op::Mem {
                addr: layout::MASKING + cell(x, y),
                write: false,
            });
            trace.push(Op::Mem {
                addr: temp_base + cell(x, y),
                write: false,
            });
            trace.push(Op::Compute(2));
            trace.push(Op::Mem {
                addr: layout::MASKING + cell(x, y),
                write: true,
            });
        }
    }
    traces
}

/// Run one trace per CPU on the SMP model and return the result.
pub fn run_smp_traces(traces: Vec<Vec<Op>>) -> SmpResult {
    let n = traces.len();
    let mut m = SmpMachine::new(SmpConfig {
        n_cpus: n,
        cpu: validation_cpu(),
        bus_per_transaction: 6,
    });
    m.run(&traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use c3i::terrain::TerrainScenarioParams;
    use c3i::threat::ThreatScenarioParams;

    #[test]
    fn threat_analysis_trace_is_cache_resident() {
        let scenario = c3i::threat::generate(ThreatScenarioParams {
            n_threats: 20,
            n_weapons: 4,
            seed: 1,
            ..Default::default()
        });
        let trace = threat_analysis_trace(&scenario, 40);
        assert!(trace.len() > 10_000, "trace too small: {}", trace.len());
        let r = run_trace(trace);
        assert!(
            r.hit_rate() > 0.97,
            "Threat Analysis must run in cache: hit rate {}",
            r.hit_rate()
        );
    }

    #[test]
    fn terrain_masking_trace_streams_at_the_line_rate() {
        let scenario = c3i::terrain::generate(TerrainScenarioParams {
            grid_size: 512,
            n_threats: 4,
            seed: 1,
            ..Default::default()
        });
        let trace = terrain_masking_trace(&scenario, 4);
        assert!(trace.len() > 100_000);
        let r = run_trace(trace);
        // The four loops re-touch each cell several times within a short
        // window (temporal reuse inside one loop body) but each *loop*
        // re-streams the arrays. Expect a hit rate well below the
        // resident case and mem stalls dominating.
        assert!(
            r.hit_rate() < 0.95,
            "Terrain Masking must miss substantially: hit rate {}",
            r.hit_rate()
        );
        let stalls = r.mem_stalls[0] as f64;
        let total = r.finish[0] as f64;
        assert!(
            stalls / total > 0.3,
            "memory stalls must dominate the memory-bound trace: {}",
            stalls / total
        );
    }

    #[test]
    fn parallel_terrain_traces_saturate_like_figure_4() {
        // Fixed total work split over 1/4/16 CPUs in the cache/bus
        // simulator: speedup must saturate well below linear — the shape
        // the analytic Exemplar model predicts for Table 10.
        let scenario = c3i::terrain::generate(TerrainScenarioParams {
            grid_size: 512,
            n_threats: 16,
            seed: 9,
            ..Default::default()
        });
        let time =
            |n: usize| run_smp_traces(terrain_masking_parallel_traces(&scenario, n, 16)).makespan();
        let t1 = time(1);
        let t4 = time(4);
        let t16 = time(16);
        let s4 = t1 as f64 / t4 as f64;
        let s16 = t1 as f64 / t16 as f64;
        assert!(s4 > 1.8, "some speedup at 4 CPUs: {s4}");
        assert!(s16 < 10.0, "16-CPU speedup must saturate: {s16}");
        assert!(s16 < 16.0 * 0.65, "well below linear: {s16}");
        // And the coherence traffic on the shared masking array is real.
        let r16 = run_smp_traces(terrain_masking_parallel_traces(&scenario, 16, 16));
        assert!(r16.invalidations > 0, "shared-array writes must invalidate");
    }

    #[test]
    fn the_two_traces_separate_cleanly() {
        let ts = c3i::threat::generate(ThreatScenarioParams {
            n_threats: 10,
            n_weapons: 4,
            seed: 2,
            ..Default::default()
        });
        let tm = c3i::terrain::generate(TerrainScenarioParams {
            grid_size: 384,
            n_threats: 3,
            seed: 2,
            ..Default::default()
        });
        let ta_run = run_trace(threat_analysis_trace(&ts, 30));
        let tm_run = run_trace(terrain_masking_trace(&tm, 3));
        let ta_stall = ta_run.mem_stalls[0] as f64 / ta_run.finish[0] as f64;
        let tm_stall = tm_run.mem_stalls[0] as f64 / tm_run.finish[0] as f64;
        assert!(
            tm_stall > 3.0 * ta_stall,
            "stall fractions must separate: TA {ta_stall:.3} vs TM {tm_stall:.3}"
        );
    }
}
