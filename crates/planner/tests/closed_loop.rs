//! The closed loop the planner exists for: `plan(workload, profile,
//! mem_cap) → ExecConfig → the real executor runs it` — verified against
//! the single-device reference, bit-reproducible across worker-pool
//! widths, bit-identical with context exchange on/off, and with the
//! plan's predictions checked against both the discrete-event simulation
//! and the executor's byte-exact memory accounting.
//!
//! Runs under the CI determinism matrix (`RAYON_NUM_THREADS ∈ {1, 4}`).

use slimpipe_cluster::Link;
use slimpipe_core::SlicePolicy;
use slimpipe_exec::schedule::PipelineKind;
use slimpipe_exec::train::{run_reference, RunResult};
use slimpipe_exec::verify;
use slimpipe_exec::ExecConfig;
use slimpipe_planner::{
    plan, reference_profile, simulate_config, Plan, PlanOpts, ProfiledCostModel,
};
use std::sync::Mutex;

/// Serialises the tests that install a process-wide width override.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

fn assert_bits_equal(got: &RunResult, want: &RunResult, what: &str) {
    assert_eq!(got.losses, want.losses, "{what}: losses differ");
    for (li, (a, b)) in got.layer_grads.iter().zip(&want.layer_grads).enumerate() {
        for ((name, ga), (_, gb)) in a.tensors().iter().zip(b.tensors().iter()) {
            assert_eq!(ga.max_abs_diff(gb), 0.0, "{what}: layer{li}.{name} bits differ");
        }
    }
    assert_eq!(got.embed_grad.max_abs_diff(&want.embed_grad), 0.0, "{what}: embedding");
    assert_eq!(got.out_grad.max_abs_diff(&want.out_grad), 0.0, "{what}: output");
}

/// The uniform reference workload.
fn reference_workload() -> ExecConfig {
    ExecConfig {
        stages: 2,
        microbatches: 2,
        seq: 64,
        ..ExecConfig::small()
    }
}

/// A ragged workload with a 6× length spread — the regime per-microbatch
/// slice counts exist for (under the committed profile the planner gives
/// the short microbatch a fraction of the long one's slices).
fn ragged_workload() -> ExecConfig {
    ExecConfig {
        stages: 2,
        microbatches: 2,
        seq: 192,
        mb_seqs: Some(vec![32, 192]),
        ..ExecConfig::small()
    }
}

fn planned(cfg: &ExecConfig) -> (Plan, ExecConfig) {
    let profile = reference_profile();
    let p = plan(cfg, &profile, &PlanOpts::default()).expect("plannable workload");
    let lowered = p.to_exec_config(cfg);
    (p, lowered)
}

/// Planner-emitted plans for the uniform and ragged workloads execute on
/// the real pipeline and reproduce the single-device reference.
#[test]
fn planned_configs_match_the_reference() {
    for (name, base) in [("uniform", reference_workload()), ("ragged", ragged_workload())] {
        let (_, cfg) = planned(&base);
        let want = run_reference(&cfg, 2, 0.2);
        let got = verify::run(&cfg, PipelineKind::SlimPipe, 2, 0.2).unwrap();
        let c = verify::compare(&got, &want);
        assert!(
            c.max_loss_diff < 3e-3 && c.worst_grad_rel < 3e-3,
            "{name}: loss diff {} / worst grad {} at {}",
            c.max_loss_diff,
            c.worst_grad_rel,
            c.worst_grad_name
        );
    }
}

/// The ragged plan actually uses the new axis: non-global per-microbatch
/// slice counts (a 4× length spread earns shorter microbatches fewer
/// slices under the committed profile's per-slice constants).
#[test]
fn ragged_plan_has_non_global_slice_counts() {
    let (p, cfg) = planned(&ragged_workload());
    assert!(
        p.has_per_mb_counts(),
        "expected per-microbatch counts, got {:?}",
        p.mb_slices
    );
    assert!(cfg.mb_slices.is_some());
    // Longest microbatch gets the most slices.
    let longest = 1; // mb_seqs[1] == 192
    assert_eq!(
        p.mb_slices.iter().copied().max().unwrap(),
        p.mb_slices[longest]
    );
}

/// Planned runs are bit-reproducible across worker-pool widths and
/// bit-identical with context exchange on vs off.
#[test]
fn planned_runs_are_bit_deterministic_and_exchange_invariant() {
    let _g = WIDTH_LOCK.lock().unwrap();
    for base in [reference_workload(), ragged_workload()] {
        let (_, cfg) = planned(&base);
        rayon::set_num_threads(1);
        let narrow = verify::run(&cfg, PipelineKind::SlimPipe, 2, 0.2).unwrap();
        rayon::set_num_threads(4);
        let wide = verify::run(&cfg, PipelineKind::SlimPipe, 2, 0.2).unwrap();
        let exchanged = verify::run(
            &ExecConfig { exchange: true, ..cfg.clone() },
            PipelineKind::SlimPipe,
            2,
            0.2,
        )
        .unwrap();
        rayon::set_num_threads(0);
        assert_bits_equal(&wide, &narrow, "planned width 4 vs width 1");
        assert_bits_equal(&exchanged, &narrow, "planned exchange vs local");
    }
}

/// The acceptance comparison: on the reference workload the planned
/// bounds' simulated bubble fraction is ≤ `PairBalanced`'s (and
/// `Uniform`'s) at the same slice counts — the planner evaluates both as
/// candidates, so it can tie but never lose.
#[test]
fn planned_bubble_beats_or_ties_the_baselines() {
    let base = reference_workload();
    let profile = reference_profile();
    let (p, cfg) = planned(&base);
    let planned_report = simulate_config(&cfg, &profile);
    assert!(
        (planned_report.bubble_fraction - p.simulated_bubble).abs() < 1e-9,
        "plan self-report must match re-simulation"
    );
    for policy in [SlicePolicy::PairBalanced, SlicePolicy::Uniform] {
        let tag = policy.tag();
        let baseline_cfg = ExecConfig {
            slicing: policy,
            slices: cfg.slices,
            mb_slices: cfg.mb_slices.clone(),
            ..base.clone()
        };
        let baseline = simulate_config(&baseline_cfg, &profile);
        assert!(
            planned_report.bubble_fraction <= baseline.bubble_fraction + 1e-9,
            "planned bubble {} > {tag} {}",
            planned_report.bubble_fraction,
            baseline.bubble_fraction
        );
        assert!(
            planned_report.makespan <= baseline.makespan + 1e-12,
            "planned makespan {} > {tag} {}",
            planned_report.makespan,
            baseline.makespan
        );
    }
}

/// Predicted-vs-simulated bubble: the closed-form prediction the plan
/// reports must agree with the discrete-event engine to well within an
/// order of magnitude (it is a fill/drain estimate, not a simulation).
#[test]
fn predicted_bubble_tracks_simulated() {
    for base in [reference_workload(), ragged_workload()] {
        let (p, _) = planned(&base);
        assert!(p.predicted_makespan > 0.0 && p.simulated_makespan > 0.0);
        let ratio = p.predicted_makespan / p.simulated_makespan;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "predicted {} vs simulated {} (ratio {ratio})",
            p.predicted_makespan,
            p.simulated_makespan
        );
        assert!(p.predicted_bubble >= 0.0 && p.predicted_bubble < 1.0);
    }
}

/// Comm-priced closed loop: on the planned reference workload over a real
/// boundary link, the simulator prices the async (overlapped) exchange
/// regime no slower than the serialized one, and neither regime's
/// simulated makespan leaves the existing predicted-vs-simulated 2×
/// envelope — overlap pricing refines the model, it does not break the
/// planner's calibration contract.
#[test]
fn overlap_pricing_stays_within_the_prediction_envelope() {
    let base = reference_workload();
    let profile = reference_profile();
    let (p, cfg) = planned(&base);
    let counts: Vec<usize> = (0..cfg.microbatches).map(|mb| cfg.slices_of(mb)).collect();
    let sched = slimpipe_core::schedule::generate_var(cfg.stages, &counts).unwrap();
    // A 400 Gb/s NIC-class link; fp32 activations at hidden = 32.
    let link = Link { bandwidth: 50e9, latency: 10e-6 };
    let priced = |overlap: f64| {
        let cm = ProfiledCostModel::new(&sched, &profile, cfg.layers_per_stage(), cfg.slicings())
            .with_comm(link, 4.0 * 32.0, overlap);
        slimpipe_sim::simulate(&cm).makespan
    };
    let serialized = priced(0.0);
    let overlapped = priced(1.0);
    assert!(
        overlapped <= serialized + 1e-12,
        "overlapped {overlapped} priced above serialized {serialized}"
    );
    for (tag, makespan) in [("serialized", serialized), ("overlapped", overlapped)] {
        let ratio = p.predicted_makespan / makespan;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "{tag}: predicted {} vs comm-priced {makespan} (ratio {ratio})",
            p.predicted_makespan
        );
    }
}

/// The byte model the memory cap is enforced against tracks the executor's
/// measured byte-exact accounting: the predicted per-device peak is an
/// accurate estimate of the real one.
#[test]
fn predicted_peak_bytes_track_the_executor() {
    for (name, base) in [("uniform", reference_workload()), ("ragged", ragged_workload())] {
        let (p, cfg) = planned(&base);
        let run = verify::run(&cfg, PipelineKind::SlimPipe, 1, 0.1).unwrap();
        for (d, (&measured, &predicted)) in
            run.peak_act_bytes.iter().zip(&p.predicted_peak_bytes).enumerate()
        {
            let rel = (measured as f64 - predicted).abs() / predicted;
            assert!(
                rel < 0.25,
                "{name} device {d}: measured {measured} vs predicted {predicted} (rel {rel:.3})"
            );
        }
    }
}

/// A plan produced under a real memory cap executes within that cap on
/// the real executor — the planner's constraint means what it says.
#[test]
fn capped_plan_executes_within_the_cap() {
    let base = reference_workload();
    let profile = reference_profile();
    let free = plan(&base, &profile, &PlanOpts::default()).unwrap();
    let free_peak = free.predicted_peak_bytes.iter().copied().fold(0.0, f64::max);
    let cap = (free_peak * 0.9) as u64;
    let opts = PlanOpts { mem_cap_bytes: Some(cap), ..PlanOpts::default() };
    match plan(&base, &profile, &opts) {
        Ok(p) => {
            let cfg = p.to_exec_config(&base);
            let run = verify::run(&cfg, PipelineKind::SlimPipe, 1, 0.1).unwrap();
            let worst = *run.peak_act_bytes.iter().max().unwrap();
            assert!(
                (worst as f64) < cap as f64 * 1.25,
                "executed peak {worst} far above planned cap {cap}"
            );
        }
        Err(e) => panic!("a 10% trim should stay feasible: {e}"),
    }
}
