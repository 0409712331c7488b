//! Executor stress tests: deeper pipelines, wider models, GQA variants,
//! and feature-combination sweeps — every configuration must match the
//! single-device reference.

use slimpipe_exec::model::ExecConfig;
use slimpipe_exec::schedule::PipelineKind;
use slimpipe_exec::train::run_reference;
use slimpipe_exec::verify::{self, assert_equivalent};

#[test]
fn four_stage_pipeline_matches_reference() {
    let cfg = ExecConfig {
        layers: 8,
        stages: 4,
        slices: 8,
        microbatches: 2,
        exchange: true,
        vocab_parallel: true,
        ..ExecConfig::small()
    };
    let want = run_reference(&cfg, 1, 0.2);
    let got = verify::run(&cfg, PipelineKind::SlimPipe, 1, 0.2).unwrap();
    assert_equivalent(&got, &want, 3e-3);
}

#[test]
fn multi_query_attention_matches_reference() {
    // kv_heads = 1: the extreme GQA case.
    let cfg = ExecConfig {
        heads: 4,
        kv_heads: 1,
        stages: 2,
        slices: 4,
        exchange: true,
        ..ExecConfig::small()
    };
    let want = run_reference(&cfg, 1, 0.2);
    let got = verify::run(&cfg, PipelineKind::SlimPipe, 1, 0.2).unwrap();
    assert_equivalent(&got, &want, 2e-3);
}

#[test]
fn full_multi_head_attention_matches_reference() {
    let cfg = ExecConfig {
        heads: 4,
        kv_heads: 4,
        stages: 2,
        slices: 4,
        ..ExecConfig::small()
    };
    let want = run_reference(&cfg, 1, 0.2);
    let got = verify::run(&cfg, PipelineKind::SlimPipe, 1, 0.2).unwrap();
    assert_equivalent(&got, &want, 2e-3);
}

#[test]
fn many_microbatches_match_reference() {
    let cfg = ExecConfig {
        microbatches: 6,
        stages: 2,
        slices: 4,
        ..ExecConfig::small()
    };
    let want = run_reference(&cfg, 1, 0.2);
    let got = verify::run(&cfg, PipelineKind::SlimPipe, 1, 0.2).unwrap();
    assert_equivalent(&got, &want, 2e-3);
}

#[test]
fn slices_equal_to_stages_is_the_minimum_and_works() {
    // n = p is SlimPipe's lower bound on slicing.
    let cfg = ExecConfig {
        stages: 4,
        slices: 4,
        layers: 8,
        microbatches: 2,
        ..ExecConfig::small()
    };
    let want = run_reference(&cfg, 1, 0.2);
    let got = verify::run(&cfg, PipelineKind::SlimPipe, 1, 0.2).unwrap();
    assert_equivalent(&got, &want, 2e-3);
}

#[test]
fn three_steps_of_sgd_stay_in_lockstep() {
    let cfg = ExecConfig {
        stages: 2,
        slices: 4,
        microbatches: 2,
        exchange: true,
        vocab_parallel: true,
        ..ExecConfig::small()
    };
    let want = run_reference(&cfg, 3, 0.3);
    let got = verify::run(&cfg, PipelineKind::SlimPipe, 3, 0.3).unwrap();
    assert_equivalent(&got, &want, 5e-3);
    // Training must actually make progress.
    assert!(got.losses[2] < got.losses[0]);
}

#[test]
fn single_slice_slimpipe_degenerates_to_1f1b() {
    // n = p = 1 slicing on 1 stage is the trivial case; with p=2 and n=2
    // (minimum multiple) the schedule is still valid and exact.
    let cfg = ExecConfig {
        stages: 2,
        slices: 2,
        microbatches: 3,
        ..ExecConfig::small()
    };
    let want = run_reference(&cfg, 1, 0.2);
    let got = verify::run(&cfg, PipelineKind::SlimPipe, 1, 0.2).unwrap();
    assert_equivalent(&got, &want, 2e-3);
}

#[test]
fn peak_memory_ranking_is_stable_across_depths() {
    for stages in [2usize, 4] {
        let slim_cfg = ExecConfig {
            stages,
            layers: 8,
            slices: 8,
            microbatches: 4,
            ..ExecConfig::small()
        };
        let classic_cfg = ExecConfig { slices: 1, ..slim_cfg.clone() };
        let slim = verify::run(&slim_cfg, PipelineKind::SlimPipe, 1, 0.1).unwrap();
        let classic = verify::run(&classic_cfg, PipelineKind::OneFOneB, 1, 0.1).unwrap();
        assert!(
            slim.peak_act_bytes[0] < classic.peak_act_bytes[0],
            "stages={stages}: slim {} vs classic {}",
            slim.peak_act_bytes[0],
            classic.peak_act_bytes[0]
        );
    }
}
