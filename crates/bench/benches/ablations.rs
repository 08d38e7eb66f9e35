//! Ablation studies of the design choices the paper discusses:
//!
//! * block-lock granularity for coarse Terrain Masking (the paper fixes
//!   "ten-by-ten blocking" — what if it hadn't?);
//! * static vs dynamic scheduling of the irregular threat workload;
//! * chunk-count sensitivity on conventional SMPs (the paper only sweeps
//!   chunks on the Tera);
//! * MTA model parameter sensitivity (pipeline depth, memory latency) —
//!   which architectural numbers actually drive the headline results.

use bench::experiments;
use c3i::terrain::{self, TerrainScenarioParams};
use c3i::threat::{self, ThreatScenarioParams};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use sthreads::ThreadCounts;

fn bench_block_granularity(c: &mut Criterion) {
    let scenario = terrain::generate(TerrainScenarioParams {
        grid_size: 256,
        n_threats: 15,
        seed: 2,
        ..Default::default()
    });
    // Report lock traffic per granularity once (the modeled cost trade).
    println!("block-lock granularity (coarse Terrain Masking, 4 threads):");
    for blocks in [1usize, 4, 10, 20, 40] {
        let (_, profile) = terrain::terrain_masking_coarse(&scenario, 4, blocks);
        println!(
            "  {blocks:>2}x{blocks:<2} blocks: {} lock ops",
            profile.parallel.total().sync_ops
        );
    }
    let mut g = c.benchmark_group("ablation_block_granularity");
    g.sample_size(10);
    for blocks in [1usize, 10, 40] {
        g.bench_function(format!("{blocks}x{blocks}"), |b| {
            b.iter(|| black_box(terrain::terrain_masking_coarse_host(&scenario, 4, blocks)))
        });
    }
    g.finish();
}

fn bench_scheduling(c: &mut Criterion) {
    // Static chunking vs dynamic self-scheduling on the irregular threat
    // mix: compare modeled makespan imbalance.
    let e = experiments();
    let per_threat = &e.workload.tm_per_threat[0];
    let n_threads = 8;
    let dynamic = terrain::greedy_bins(per_threat, n_threads);
    let static_bins: Vec<sthreads::OpCounts> = (0..n_threads)
        .map(|t| {
            let r = sthreads::chunk_range(t, per_threat.len(), n_threads);
            per_threat[r].iter().copied().sum()
        })
        .collect();
    let static_tc = ThreadCounts::new(static_bins);
    println!(
        "scheduling imbalance over {} irregular threats on {n_threads} threads: static {:.3}, dynamic {:.3}",
        per_threat.len(),
        static_tc.imbalance(),
        dynamic.imbalance()
    );
    assert!(dynamic.imbalance() <= static_tc.imbalance() + 1e-9);

    let scenario = threat::generate(ThreatScenarioParams {
        n_threats: 400,
        n_weapons: 8,
        seed: 3,
        ..Default::default()
    });
    let mut g = c.benchmark_group("ablation_scheduling");
    g.sample_size(10);
    g.bench_function("static_chunks", |b| {
        b.iter(|| black_box(threat::threat_analysis_chunked_host(&scenario, 4, 4)))
    });
    g.bench_function("dynamic_fine", |b| {
        b.iter(|| black_box(threat::threat_analysis_fine_host(&scenario, 4)))
    });
    g.finish();
}

fn bench_chunk_count_model(c: &mut Criterion) {
    // Chunk-count sensitivity across platforms (Table 6 is Tera-only in
    // the paper; the model extends it).
    let e = experiments();
    println!("chunk-count sweep, modeled seconds (Threat Analysis):");
    println!("  chunks   Tera(2p)   Exemplar(16p)");
    for chunks in [8usize, 16, 32, 64, 128, 256] {
        let tera = e.ta_tera(chunks, 2);
        let exemplar: f64 = e
            .workload
            .ta_chunked(chunks)
            .iter()
            .map(|p| e.cal.exemplar.parallel_seconds(p, 16, e.cal.s_ta))
            .sum();
        println!("  {chunks:>6}   {tera:>8.1}   {exemplar:>8.1}");
    }
    let mut g = c.benchmark_group("ablation_chunk_count");
    g.sample_size(20);
    for chunks in [8usize, 256] {
        g.bench_function(format!("model_tera_{chunks}chunks"), |b| {
            b.iter(|| black_box(e.ta_tera(chunks, 2)))
        });
    }
    g.finish();
}

fn bench_machine_parameter_sensitivity(c: &mut Criterion) {
    // Which MTA parameters drive the sequential-slowness headline?
    let e = experiments();
    let base = e.cal.tera.clone();
    println!("MTA parameter sensitivity (sequential Threat Analysis, modeled):");
    for (label, issue, mem) in [
        ("paper (21-cycle pipe, 70-cycle mem)", 21.0, 70.0),
        ("shallow pipe (7-cycle)", 7.0, 70.0),
        ("fast memory (35-cycle)", 21.0, 35.0),
        ("both halved", 10.5, 35.0),
    ] {
        let mut m = base.clone();
        m.issue_latency = issue;
        m.mem_latency = mem;
        let secs: f64 = e
            .workload
            .ta_seq
            .iter()
            .map(|p| m.seq_seconds(p, e.cal.s_ta))
            .sum();
        println!("  {label:<38} {secs:>8.1} s");
    }
    let mut g = c.benchmark_group("ablation_machine_params");
    g.sample_size(20);
    g.bench_function("seq_model_eval", |b| {
        b.iter(|| {
            let s: f64 = e
                .workload
                .ta_seq
                .iter()
                .map(|p| e.cal.tera.seq_seconds(p, e.cal.s_ta))
                .sum();
            black_box(s)
        })
    });
    g.finish();
}

fn bench_lookahead(c: &mut Criterion) {
    // The MTA's explicit-dependence lookahead, simulated: how much
    // single-stream memory latency can the compiler hide? (The paper's
    // measured codes behave like lookahead 1; the hardware supported 8.)
    use mta_sim::kernels::{mem_kernel, run_kernel};
    use mta_sim::MtaConfig;
    let cfg = |lookahead: u64| MtaConfig {
        mem_words: 1 << 23,
        lookahead,
        ..MtaConfig::tera(1)
    };
    println!("lookahead ablation (single stream, unit-stride loads):");
    for la in [1u64, 2, 4, 8] {
        let (_, r) = run_kernel(cfg(la), mem_kernel(1, 400, 1, 4096), &[]);
        let cpi = r.cycles as f64 / r.stats.instructions() as f64;
        println!("  lookahead {la}: {cpi:.1} cycles/instruction");
    }
    let mut g = c.benchmark_group("ablation_lookahead");
    g.sample_size(10);
    for la in [1u64, 8] {
        g.bench_function(format!("lookahead{la}"), |b| {
            b.iter(|| black_box(run_kernel(cfg(la), mem_kernel(1, 200, 1, 4096), &[]).1))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_block_granularity,
    bench_scheduling,
    bench_chunk_count_model,
    bench_machine_parameter_sensitivity,
    bench_lookahead
);
criterion_main!(benches);
