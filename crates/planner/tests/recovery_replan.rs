//! The planner-backed elastic recovery loop: a job that loses a stage
//! mid-run re-plans onto the survivors with the calibrated search
//! (`recovery_replanner`), restores the newest snapshot, and finishes with
//! bits identical to a clean resume launched at the surviving geometry
//! from the same snapshot.
//!
//! Runs under the CI determinism matrix (`RAYON_NUM_THREADS ∈ {1, 4}`).

use slimpipe_exec::checkpoint::snapshot_path;
use slimpipe_exec::fault::InjectedPanic;
use slimpipe_exec::schedule::PipelineKind;
use slimpipe_exec::train::try_resume_pipeline_from_traced;
use slimpipe_exec::verify::assert_bit_identical;
use slimpipe_exec::{
    run_elastic_traced, CheckpointCfg, CheckpointState, DriverCfg, ExecConfig, ExecError,
    FaultKind, FaultPlan, FaultSite, TraceSession,
};
use slimpipe_planner::{
    recovery_replanner, reference_profile, replan_for_stages, shape_of, CostProfile, PlanError,
};
use std::sync::Once;

/// Injected panics are expected; keep them out of the test output.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                prev(info);
            }
        }));
    });
}

fn site(iteration: usize, stage: usize, mb: u32, slice: u32) -> FaultSite {
    FaultSite { iteration, stage, mb, slice }
}

fn unique_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("slimpipe_replan_{}_{tag}.ckpt", std::process::id()))
}

/// Remove the retention manifest and every snapshot a test may have left.
fn clean_ckpt_files(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    for it in 0..16 {
        let _ = std::fs::remove_file(snapshot_path(path, it));
    }
}

/// The tentpole loop, planner edition: stage 1 of 2 panics mid-job, the
/// calibrated search re-plans the job onto the single survivor (with the
/// degraded link priced and the slicing re-derived), the driver restores
/// the newest snapshot, and the finished weights are bit-identical to a
/// clean resume of the re-planned config from that same snapshot.
///
/// Two inputs: the small config (panic at iteration 3, snapshots every 2)
/// and the benchmark's `elastic_job` shape at `seq / 8` — exchange and
/// vocabulary parallelism on, 12 iterations, snapshots every 3 keeping 2,
/// panic at `(7, 1, 0, 1)`. Both re-plan with the reference coefficients
/// (labelled with the config's shape), so the searched plan is the same
/// on every host.
#[test]
fn planner_replanner_recovers_bit_identically() {
    quiet_injected_panics();
    let small = ExecConfig {
        fault_plan: Some(FaultPlan::single(site(3, 1, 0, 1), FaultKind::StagePanic)),
        ..ExecConfig::small()
    };
    recovers_bit_identically("tentpole", small, 2, 0, 6, 0.2, 2);
    let elastic_job = ExecConfig {
        layers: 4,
        heads: 8,
        kv_heads: 2,
        head_dim: 8,
        ffn: 192,
        vocab: 1024,
        seq: 128,
        slices: 8,
        stages: 2,
        microbatches: 2,
        exchange: true,
        vocab_parallel: true,
        fault_plan: Some(FaultPlan::single(site(7, 1, 0, 1), FaultKind::StagePanic)),
        ..ExecConfig::small()
    };
    recovers_bit_identically("elastic_job", elastic_job, 3, 2, 12, 0.05, 6);
}

/// Run `cfg` (which carries one recoverable fault) as a supervised job
/// with snapshots every `every` iterations, and assert the recovery
/// contract: exactly one event 2→1 restoring the snapshot at
/// `resumed_from`, a searched (not merely shrunk) slicing, and results
/// bit-identical to a clean resume from that snapshot.
fn recovers_bit_identically(
    tag: &str,
    cfg: ExecConfig,
    every: usize,
    keep_last: usize,
    steps: usize,
    lr: f32,
    resumed_from: usize,
) {
    let path = unique_path(tag);
    clean_ckpt_files(&path);
    let cfg = ExecConfig {
        checkpoint: Some(CheckpointCfg { every, path: path.clone(), keep_last }),
        ..cfg
    };
    let profile = CostProfile { shape: shape_of(&cfg), ..reference_profile() };
    let mut replanner = recovery_replanner(profile, None);
    let trace = TraceSession::from_env().0;
    let outcome = run_elastic_traced(&cfg, &DriverCfg::default(), steps, lr, &mut replanner, &trace)
        .unwrap_or_else(|e| panic!("{tag}: recoverable fault must heal: {e}"));
    assert_eq!(outcome.log.events.len(), 1, "{tag}: exactly one recovery:\n{}", outcome.log);
    let ev = &outcome.log.events[0];
    assert_eq!((ev.from_stages, ev.to_stages), (2, 1), "{tag}");
    assert_eq!(ev.resumed_from, resumed_from, "{tag}: newest snapshot is the restore point");
    assert_eq!(outcome.final_config.stages, 1, "{tag}");
    assert_eq!(
        outcome.final_config.slicing.tag(),
        "planned",
        "{tag}: search output, not a bare shrink"
    );

    // Clean twin: resume the re-planned config (faults stripped) from the
    // same 2-stage snapshot the driver restored.
    let clean_cfg = ExecConfig { fault_plan: None, ..outcome.final_config.clone() };
    let snap = CheckpointState::load(&snapshot_path(&path, resumed_from as u64), &clean_cfg)
        .unwrap_or_else(|e| panic!("{tag}: the 2-stage snapshot must still be loadable: {e}"));
    let kind = PipelineKind::SlimPipe;
    let want = try_resume_pipeline_from_traced(&clean_cfg, kind, steps, lr, snap, &trace)
        .unwrap_or_else(|e| panic!("{tag}: clean resume: {e}"));
    assert_bit_identical(&outcome.result, &want);
    clean_ckpt_files(&path);
}

/// `replan_for_stages` emits a validated config at the surviving geometry
/// with the job unchanged, and refuses geometries the model cannot split.
#[test]
fn replan_for_stages_respects_geometry() {
    let base = ExecConfig::small();
    let profile = reference_profile();
    let cfg = replan_for_stages(&base, &profile, 1, None).expect("1 stage always splits");
    assert_eq!(cfg.stages, 1);
    assert_eq!((cfg.layers, cfg.seed, cfg.microbatches), (base.layers, base.seed, base.microbatches));
    cfg.validate().expect("replanned config validates");
    // 4 layers cannot spread over 3 survivors.
    assert!(matches!(
        replan_for_stages(&base, &profile, 3, None),
        Err(PlanError::Infeasible(_))
    ));
}

/// An impossible memory cap at the degraded geometry surfaces as a
/// structured driver error, not a hang or a panic: the byte-model cap is
/// re-enforced at re-plan time, when the survivors hold more layers.
#[test]
fn infeasible_cap_fails_recovery_with_a_structured_error() {
    quiet_injected_panics();
    let path = unique_path("cap");
    clean_ckpt_files(&path);
    let cfg = ExecConfig {
        checkpoint: Some(CheckpointCfg { every: 2, path: path.clone(), keep_last: 0 }),
        fault_plan: Some(FaultPlan::single(site(3, 1, 0, 1), FaultKind::StagePanic)),
        ..ExecConfig::small()
    };
    let mut replanner = recovery_replanner(reference_profile(), Some(16));
    let trace = TraceSession::from_env().0;
    let err = run_elastic_traced(&cfg, &DriverCfg::default(), 6, 0.2, &mut replanner, &trace)
        .expect_err("a 16-byte cap cannot fit any plan");
    assert!(
        matches!(err, ExecError::InvalidConfig(ref s) if s.contains("recovery re-plan")),
        "unexpected error: {err}"
    );
    clean_ckpt_files(&path);
}
