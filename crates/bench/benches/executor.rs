//! Executor benchmarks: real threaded pipeline training steps under each
//! scheme, with the feature toggles on and off, plus the end-to-end effect
//! of the tensor buffer pool (cold vs. warm training steps).
//!
//! `cargo bench --bench executor` writes `BENCH_executor.json`, the
//! executor-level perf snapshot later PRs regress against.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use slimpipe_exec::checkpoint::snapshot_path;
use slimpipe_exec::fault::InjectedPanic;
use slimpipe_exec::model::{CheckpointCfg, ExecConfig};
use slimpipe_exec::schedule::PipelineKind;
use slimpipe_exec::train::{run_reference, try_run_pipeline_traced, RunResult};
use slimpipe_exec::{
    run_elastic_traced, DriverCfg, FaultKind, FaultPlan, FaultSite, ShrinkReplanner,
    SlicePolicy, TraceSession,
};
use slimpipe_tensor::pool;
use std::hint::black_box;

fn cfg() -> ExecConfig {
    ExecConfig {
        stages: 2,
        slices: 4,
        microbatches: 2,
        ..ExecConfig::small()
    }
}

/// One untraced training step of a known-clean config.
fn step(cfg: &ExecConfig, kind: PipelineKind) -> RunResult {
    try_run_pipeline_traced(cfg, kind, 1, 0.1, &TraceSession::disabled()).expect("clean run")
}

fn bench_reference(c: &mut Criterion) {
    let mut g = c.benchmark_group("executor");
    g.sample_size(10);
    g.bench_function("reference_step", |b| {
        b.iter(|| black_box(run_reference(&cfg(), 1, 0.1)))
    });
    g.finish();
}

fn bench_pipelines(c: &mut Criterion) {
    let mut g = c.benchmark_group("executor_pipeline_step");
    g.sample_size(10);
    let base = cfg();
    for (name, kind, slices) in [
        ("gpipe", PipelineKind::GPipe, 1usize),
        ("1f1b", PipelineKind::OneFOneB, 1),
        ("terapipe", PipelineKind::TeraPipe, 4),
        ("slimpipe", PipelineKind::SlimPipe, 4),
    ] {
        let c2 = ExecConfig { slices, ..base.clone() };
        g.bench_with_input(BenchmarkId::new("scheme", name), &kind, |b, &k| {
            b.iter(|| black_box(step(&c2, k)))
        });
    }
    g.finish();
}

fn bench_feature_toggles(c: &mut Criterion) {
    let mut g = c.benchmark_group("executor_features");
    g.sample_size(10);
    let base = ExecConfig { slices: 8, ..cfg() };
    for (name, exchange, vp) in [
        ("plain", false, false),
        ("exchange", true, false),
        ("vocab_parallel", false, true),
        ("both", true, true),
    ] {
        let c2 = ExecConfig { exchange, vocab_parallel: vp, ..base.clone() };
        g.bench_with_input(BenchmarkId::new("features", name), &name, |b, _| {
            b.iter(|| black_box(step(&c2, PipelineKind::SlimPipe)))
        });
    }
    g.finish();
}

/// The slicing-policy axis: one SlimPipe step per policy (exchange on —
/// the interesting case, since non-uniform partitions change the exchange
/// plan), plus a ragged-microbatch run. Series ids embed the policy tag,
/// so they never collide across policies; snapshot-level tagging for
/// forced sweeps comes from `BENCH_SLICING_POLICY` (see the criterion
/// shim + `bench_check`).
fn bench_slicing_policies(c: &mut Criterion) {
    let mut g = c.benchmark_group("executor_slicing");
    g.sample_size(10);
    let base = ExecConfig { slices: 8, exchange: true, ..cfg() };
    for (tag, policy) in [
        ("uniform", SlicePolicy::Uniform),
        ("pair_balanced", SlicePolicy::PairBalanced),
    ] {
        let c2 = ExecConfig { slicing: policy, ..base.clone() };
        g.bench_with_input(BenchmarkId::new("policy", tag), &tag, |b, _| {
            b.iter(|| black_box(step(&c2, PipelineKind::SlimPipe)))
        });
    }
    let ragged = ExecConfig { mb_seqs: Some(vec![48, 80]), ..base };
    g.bench_with_input(BenchmarkId::new("policy", "uniform_ragged"), &0, |b, _| {
        b.iter(|| black_box(step(&ragged, PipelineKind::SlimPipe)))
    });
    g.finish();
}

/// The fault-tolerance hot-path tax: identical training steps with the
/// runtime fully armed — a fault plan that is consulted at every op but
/// never fires, and the guarded rendezvous/watchdog machinery live on
/// every channel wait. Each armed
/// series is measured back-to-back with a clean twin of the same workload
/// (temporal noise on a shared host dwarfs the effect when the comparison
/// spans the whole bench run); `bench_check` holds armed within the
/// regression gate of its twin: recovery must cost nothing when nothing
/// fails.
fn bench_fault_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("executor_fault_overhead");
    g.sample_size(10);
    let base = ExecConfig { slices: 8, ..cfg() };
    // Armed but idle: the site is valid geometry but the iteration is
    // never reached, so the plan is scanned on every forward op and never
    // matches.
    let idle_plan = FaultPlan::single(
        FaultSite { iteration: usize::MAX, stage: 1, mb: 0, slice: 0 },
        FaultKind::StagePanic,
    );
    for (name, exchange, vp) in [("plain", false, false), ("both", true, true)] {
        let clean = ExecConfig { exchange, vocab_parallel: vp, ..base.clone() };
        let armed = ExecConfig {
            fault_plan: Some(idle_plan.clone()),
            ..clean.clone()
        };
        g.bench_with_input(BenchmarkId::new("clean", name), &name, |b, _| {
            b.iter(|| black_box(step(&clean, PipelineKind::SlimPipe)))
        });
        g.bench_with_input(BenchmarkId::new("armed", name), &name, |b, _| {
            b.iter(|| black_box(step(&armed, PipelineKind::SlimPipe)))
        });
    }
    g.finish();
}

/// The elastic recovery tax, end to end: the same supervised 6-iteration
/// job run clean vs. with a stage panic at iteration 3. The failing run
/// pays detection of the contained panic, the shrink-to-survivors re-plan,
/// the snapshot restore (regrouped onto one stage), and the re-executed
/// iterations since the iteration-2 snapshot. `bench_check` holds recover
/// within 2.5× clean — fail-and-recover is a bounded tax, not a
/// restart-the-world cost. Both series recreate the checkpoint files every
/// iteration so the fs work cancels out of the comparison.
fn bench_recovery(c: &mut Criterion) {
    // Injected panics are expected here; keep them out of the bench log.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<InjectedPanic>().is_none() {
            prev(info);
        }
    }));
    let path = std::env::temp_dir()
        .join(format!("slimpipe_bench_recovery_{}.ckpt", std::process::id()));
    let clean_files = || {
        let _ = std::fs::remove_file(&path);
        for it in 0..8 {
            let _ = std::fs::remove_file(snapshot_path(&path, it));
        }
    };
    let base = ExecConfig {
        checkpoint: Some(CheckpointCfg { every: 2, path: path.clone(), keep_last: 1 }),
        ..cfg()
    };
    let faulty = ExecConfig {
        fault_plan: Some(FaultPlan::single(
            FaultSite { iteration: 3, stage: 1, mb: 0, slice: 1 },
            FaultKind::StagePanic,
        )),
        ..base.clone()
    };
    let (driver, off) = (DriverCfg::default(), TraceSession::disabled());
    let mut g = c.benchmark_group("executor_recovery");
    g.sample_size(10);
    g.bench_function("clean", |b| {
        b.iter(|| {
            clean_files();
            black_box(
                run_elastic_traced(&base, &driver, 6, 0.1, &mut ShrinkReplanner, &off)
                    .expect("clean supervised run"),
            )
        })
    });
    g.bench_function("recover", |b| {
        b.iter(|| {
            clean_files();
            black_box(
                run_elastic_traced(&faulty, &driver, 6, 0.1, &mut ShrinkReplanner, &off)
                    .expect("recoverable fault must heal"),
            )
        })
    });
    g.finish();
    clean_files();
}

/// The tracing tax: identical SlimPipe steps untraced (a disabled session —
/// the recorder's `clock()` is a `None` branch, no clock reads, no
/// locking) vs. recording into a live session every iteration.
/// `bench_check` holds traced within the 10% noise gate of untraced —
/// observability must be free when off and near-free when on.
fn bench_trace_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("executor_trace_overhead");
    g.sample_size(10);
    let base = ExecConfig { slices: 8, exchange: true, ..cfg() };
    g.bench_function("untraced", |b| {
        b.iter(|| black_box(step(&base, PipelineKind::SlimPipe)))
    });
    g.bench_function("traced", |b| {
        b.iter(|| {
            let trace = TraceSession::new();
            black_box(
                try_run_pipeline_traced(&base, PipelineKind::SlimPipe, 1, 0.1, &trace)
                    .expect("clean traced run"),
            )
        })
    });
    g.finish();
}

/// The pool's end-to-end effect: identical training steps with the pool
/// emptied before every iteration (every kernel allocation is a fresh
/// malloc) vs. left warm (steady-state, allocation-free).
fn bench_pool_cold_vs_warm(c: &mut Criterion) {
    let cfg = ExecConfig {
        stages: 1,
        slices: 4,
        microbatches: 2,
        ..ExecConfig::small()
    };
    let mut g = c.benchmark_group("executor_pool");
    g.sample_size(10);
    g.bench_function("step_cold_pool", |b| {
        b.iter(|| {
            pool::clear();
            black_box(run_reference(&cfg, 1, 0.1))
        })
    });
    // Warm the pool once, then measure steady-state steps.
    let _ = run_reference(&cfg, 1, 0.1);
    g.bench_function("step_warm_pool", |b| {
        b.iter(|| black_box(run_reference(&cfg, 1, 0.1)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_reference,
    bench_pipelines,
    bench_feature_toggles,
    bench_fault_overhead,
    bench_recovery,
    bench_slicing_policies,
    bench_trace_overhead,
    bench_pool_cold_vs_warm,
);
criterion_main!(benches);
