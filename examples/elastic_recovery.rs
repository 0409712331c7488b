//! Elastic recovery demo: a supervised training job loses a pipeline
//! stage mid-run, re-plans onto the survivor with the calibrated planner,
//! restores the latest checkpoint, and finishes — then proves the healed
//! run is bit-identical to a clean resume at the surviving geometry.
//!
//! ```bash
//! cargo run --release --example elastic_recovery
//! # or bring your own fault schedule:
//! SLIMPIPE_FAULT_PLAN='{"faults": [{"iteration": 3, "stage": 1, "mb": 0, "slice": 1, "kind": "stage_panic"}]}' \
//!   cargo run --release --example elastic_recovery
//! ```

use slimpipe::exec::checkpoint::snapshot_path;
use slimpipe::exec::fault::InjectedPanic;
use slimpipe::exec::model::{CheckpointCfg, ExecConfig};
use slimpipe::exec::schedule::PipelineKind;
use slimpipe::exec::train::try_resume_pipeline_from_traced;
use slimpipe::exec::verify::assert_bit_identical;
use slimpipe::exec::{
    run_elastic_traced, CheckpointState, DriverCfg, FaultKind, FaultPlan, FaultSite, TraceSession,
};
use slimpipe::planner::{recovery_replanner, reference_profile};

fn main() {
    // Injected panics are part of the demo; keep them off stderr.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<InjectedPanic>().is_none() {
            prev(info);
        }
    }));

    let path = std::env::temp_dir()
        .join(format!("slimpipe_elastic_demo_{}.ckpt", std::process::id()));
    let clean_files = || {
        let _ = std::fs::remove_file(&path);
        for it in 0..16 {
            let _ = std::fs::remove_file(snapshot_path(&path, it));
        }
    };
    clean_files();

    // 2-stage job, checkpoint every 2 iterations, keep the newest 2
    // snapshots. The default fault: stage 1 panics at iteration 3 (the
    // env hook `SLIMPIPE_FAULT_PLAN` overrides it when set).
    let default_site = FaultSite { iteration: 3, stage: 1, mb: 0, slice: 1 };
    let fault_plan = FaultPlan::from_env()
        .expect("SLIMPIPE_FAULT_PLAN must name a valid fault plan")
        .unwrap_or_else(|| FaultPlan::single(default_site, FaultKind::StagePanic));
    let cfg = ExecConfig {
        checkpoint: Some(CheckpointCfg { every: 2, path: path.clone(), keep_last: 2 }),
        fault_plan: Some(fault_plan),
        ..ExecConfig::small()
    };
    let steps = 6;
    let lr = 0.2;
    println!(
        "elastic job: {} layers over {} stages, {steps} iterations, checkpoint every {}",
        cfg.layers,
        cfg.stages,
        cfg.checkpoint.as_ref().unwrap().every
    );
    println!("armed faults: {:?}\n", cfg.fault_plan);

    // The planner-backed replanner re-runs the calibrated search at the
    // surviving geometry, pricing the degraded boundary link.
    let mut replanner = recovery_replanner(reference_profile(), None);
    let (driver, untraced) = (DriverCfg::default(), TraceSession::disabled());
    let outcome = run_elastic_traced(&cfg, &driver, steps, lr, &mut replanner, &untraced)
        .expect("the demo fault is recoverable");

    print!("{}", outcome.log);
    println!(
        "final geometry: {} stage(s), slicing `{}`, last loss {:.6}",
        outcome.final_config.stages,
        outcome.final_config.slicing.tag(),
        outcome.result.losses.last().copied().unwrap_or(f64::NAN),
    );

    // Determinism contract: the healed run's bits match a clean resume of
    // the re-planned config from the snapshot the driver restored.
    if let Some(ev) = outcome.log.events.first().filter(|e| e.resumed_from > 0) {
        let clean_cfg = ExecConfig { fault_plan: None, ..outcome.final_config.clone() };
        let snap = CheckpointState::load(&snapshot_path(&path, ev.resumed_from as u64), &clean_cfg)
            .expect("restore-point snapshot");
        let kind = PipelineKind::SlimPipe;
        let want = try_resume_pipeline_from_traced(&clean_cfg, kind, steps, lr, snap, &untraced)
            .expect("clean resume");
        assert_bit_identical(&outcome.result, &want);
        println!("bit-identity vs clean resume at the surviving geometry: OK");
    }
    clean_files();
}
