//! The run entry points read no environment. With `SLIMPIPE_FAULT_PLAN`
//! and `SLIMPIPE_TRACE` both set, the reference run and an explicit
//! untraced pipeline run with no fault plan must stay clean, bit-identical
//! to the same calls with the variables removed, and write no trace file.
//!
//! This file holds exactly one test, so no other test shares the process
//! environment it mutates.

use slimpipe_exec::fault::InjectedPanic;
use slimpipe_exec::schedule::PipelineKind;
use slimpipe_exec::train::{run_reference, try_run_pipeline_traced, RunResult};
use slimpipe_exec::verify::assert_bit_identical;
use slimpipe_exec::{ExecConfig, FaultKind, FaultPlan, FaultSite, TraceSession};

fn runs(cfg: &ExecConfig) -> (RunResult, RunResult) {
    let reference = run_reference(cfg, 2, 0.2);
    let untraced = TraceSession::disabled();
    let pipeline = try_run_pipeline_traced(cfg, PipelineKind::SlimPipe, 2, 0.2, &untraced)
        .expect("a config without a fault plan runs clean");
    (reference, pipeline)
}

#[test]
fn entry_points_ignore_the_fault_plan_and_trace_env_hooks() {
    // A stray injected panic would be the bug under test; keep the report
    // to the assertion that catches it.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<InjectedPanic>().is_none() {
            prev(info);
        }
    }));
    let cfg = ExecConfig { fault_plan: None, ..ExecConfig::small() };
    let trace_path = std::env::temp_dir()
        .join(format!("slimpipe_env_isolation_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&trace_path);

    let plan = FaultPlan::single(
        FaultSite { iteration: 0, stage: 0, mb: 0, slice: 0 },
        FaultKind::StagePanic,
    );
    std::env::set_var("SLIMPIPE_FAULT_PLAN", plan.to_json());
    std::env::set_var("SLIMPIPE_TRACE", &trace_path);
    let (reference_env, pipeline_env) = runs(&cfg);

    std::env::remove_var("SLIMPIPE_FAULT_PLAN");
    std::env::remove_var("SLIMPIPE_TRACE");
    let (reference, pipeline) = runs(&cfg);

    assert_bit_identical(&reference_env, &reference);
    assert_bit_identical(&pipeline_env, &pipeline);
    assert!(!trace_path.exists(), "an entry point wrote {}", trace_path.display());
}
