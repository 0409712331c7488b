//! Ablation benchmarks for the design choices the README's "Paper
//! experiments" section calls out:
//! uniform vs pair-balanced slicing, context exchange on/off, early-KV
//! exchange on/off, vocabulary parallelism on/off, and chunked vs
//! monolithic KV handling in the real executor.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use slimpipe_bench::{scheme_env, scheme_schedule};
use slimpipe_core::slicing::Slicing;
use slimpipe_core::theory::Scheme;
use slimpipe_exec::model::ExecConfig;
use slimpipe_exec::schedule::PipelineKind;
use slimpipe_exec::train::try_run_pipeline_traced;
use slimpipe_exec::TraceSession;
use slimpipe_model::{Checkpoint, ModelConfig};
use slimpipe_sim::cost::CostModel;
use slimpipe_sim::engine::simulate;
use std::hint::black_box;

/// Uniform vs pair-balanced slicing: workload imbalance each must absorb.
fn ablation_slicing(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_slicing");
    for &n in &[8usize, 32] {
        g.bench_with_input(BenchmarkId::new("uniform", n), &n, |b, &n| {
            b.iter(|| black_box(Slicing::uniform(n as u64 * 4096, n).imbalance()))
        });
        g.bench_with_input(BenchmarkId::new("pair_balanced", n), &n, |b, &n| {
            b.iter(|| black_box(Slicing::pair_balanced(n as u64 * 4096, n).imbalance()))
        });
    }
    g.finish();
}

/// Context exchange on/off in the simulator: the imbalance-bubble cost.
fn ablation_exchange(c: &mut Criterion) {
    let model = ModelConfig::llama_13b();
    let sched = scheme_schedule(Scheme::SlimPipe, 4, 4, 16, 1).unwrap();
    let mut g = c.benchmark_group("ablation_exchange");
    g.sample_size(20);
    for (name, on) in [("off", false), ("on", true)] {
        let mut env = scheme_env(&model, Scheme::SlimPipe, 262_144, 8, Checkpoint::Full);
        env.exchange = on;
        g.bench_function(name, |b| {
            b.iter(|| black_box(simulate(&CostModel::new(&sched, &env)).bubble_fraction))
        });
    }
    g.finish();
}

/// Early KV exchange on/off: exposed communication per simulated iteration.
fn ablation_early_kv(c: &mut Criterion) {
    let model = ModelConfig::llama_13b();
    let sched = scheme_schedule(Scheme::SlimPipe, 4, 4, 16, 1).unwrap();
    let mut g = c.benchmark_group("ablation_early_kv");
    g.sample_size(20);
    for (name, early) in [("overlapped", true), ("blocking", false)] {
        let mut env = scheme_env(&model, Scheme::SlimPipe, 262_144, 8, Checkpoint::Full);
        env.early_kv = early;
        g.bench_function(name, |b| {
            b.iter(|| black_box(simulate(&CostModel::new(&sched, &env)).makespan))
        });
    }
    g.finish();
}

/// Vocabulary parallelism on/off in the real executor.
fn ablation_vocab_parallel(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_vocab_parallel");
    g.sample_size(10);
    for (name, vp) in [("classic", false), ("vocab_parallel", true)] {
        let cfg = ExecConfig {
            stages: 2,
            slices: 4,
            microbatches: 2,
            vocab_parallel: vp,
            ..ExecConfig::small()
        };
        let off = TraceSession::disabled();
        g.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    try_run_pipeline_traced(&cfg, PipelineKind::SlimPipe, 1, 0.1, &off)
                        .expect("clean run"),
                )
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    ablation_slicing,
    ablation_exchange,
    ablation_early_kv,
    ablation_vocab_parallel
);
criterion_main!(benches);
