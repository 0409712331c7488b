//! Conformance of the explicit slicing axis: pair-balanced (TeraPipe-style)
//! partitions and ragged (variable-length) microbatches must run the real
//! pipeline — exchange on/off, vocabulary parallelism on/off — and
//! reproduce the single-device reference, with the usual bit-determinism
//! guarantees:
//!
//! * context exchange stays a pure relocation of work under unequal slice
//!   volumes (bit-identical to local execution);
//! * the worker-pool width never changes a bit;
//! * a `SlicePolicy::Explicit` spelling of the uniform bounds is
//!   bit-identical to `SlicePolicy::Uniform` — including the byte-exact
//!   per-device peak-activation accounting, which pins the refactor to the
//!   pre-refactor uniform behaviour.

use slimpipe_exec::model::ExecConfig;
use slimpipe_exec::schedule::PipelineKind;
use slimpipe_exec::train::{run_reference, RunResult};
use slimpipe_exec::verify::{self, assert_equivalent};
use slimpipe_exec::SlicePolicy;
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
    assert_eq!(got.final_norm_grad, want.final_norm_grad, "{what}: final norm");
}

fn pair_balanced_base() -> ExecConfig {
    ExecConfig {
        stages: 2,
        slices: 8,
        microbatches: 2,
        slicing: SlicePolicy::PairBalanced,
        ..ExecConfig::small()
    }
}

fn ragged_base() -> ExecConfig {
    // Variable-length microbatches; the second is deliberately not a
    // multiple of the slice count, so uniform policy takes the `even`
    // (remainder-spreading) bounds.
    ExecConfig {
        stages: 2,
        slices: 4,
        microbatches: 3,
        mb_seqs: Some(vec![64, 46, 80]),
        ..ExecConfig::small()
    }
}

/// Pair-balanced slicing across the feature matrix must match the
/// single-device reference.
#[test]
fn pair_balanced_matches_reference_across_features() {
    let base = pair_balanced_base();
    let configs = [
        ("plain", base.clone()),
        ("exchange", ExecConfig { exchange: true, ..base.clone() }),
        ("vocab_parallel", ExecConfig { vocab_parallel: true, ..base.clone() }),
        (
            "exchange+vocab_parallel",
            ExecConfig { exchange: true, vocab_parallel: true, ..base.clone() },
        ),
    ];
    for (name, cfg) in configs {
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

/// Ragged microbatches across the feature matrix must match the reference
/// (which runs the same ragged data unsliced on one device).
#[test]
fn ragged_microbatches_match_reference_across_features() {
    let base = ragged_base();
    let configs = [
        ("plain", base.clone()),
        ("exchange", ExecConfig { exchange: true, ..base.clone() }),
        ("vocab_parallel", ExecConfig { vocab_parallel: true, ..base.clone() }),
        (
            "everything",
            ExecConfig {
                exchange: true,
                vocab_parallel: true,
                slicing: SlicePolicy::PairBalanced,
                ..base.clone()
            },
        ),
    ];
    for (name, cfg) in configs {
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

/// TeraPipe's schedule with its natural (pair-balanced) partition — the
/// ablation the paper argues against, now executable for real.
#[test]
fn terapipe_schedule_with_pair_balanced_slices_matches_reference() {
    let cfg = ExecConfig {
        slicing: SlicePolicy::PairBalanced,
        slices: 4,
        microbatches: 2,
        ..ExecConfig::small()
    };
    let want = run_reference(&cfg, 1, 0.2);
    let got = verify::run(&cfg, PipelineKind::TeraPipe, 1, 0.2).unwrap();
    assert_equivalent(&got, &want, 2e-3);
}

/// Context exchange under unequal slice volumes is still a pure relocation
/// of work: bit-identical to local execution, at any pool width.
#[test]
fn pair_balanced_exchange_is_bit_identical_to_local() {
    let _g = WIDTH_LOCK.lock().unwrap();
    let cfg = pair_balanced_base();
    let local = verify::run(&cfg, PipelineKind::SlimPipe, 2, 0.2).unwrap();
    let exchanged = verify::run(
        &ExecConfig { exchange: true, ..cfg.clone() },
        PipelineKind::SlimPipe,
        2,
        0.2,
    )
    .unwrap();
    assert_bits_equal(&exchanged, &local, "pair-balanced exchange vs local");

    rayon::set_num_threads(4);
    let exchanged_wide = verify::run(
        &ExecConfig { exchange: true, ..cfg },
        PipelineKind::SlimPipe,
        2,
        0.2,
    )
    .unwrap();
    rayon::set_num_threads(0);
    assert_bits_equal(&exchanged_wide, &local, "pair-balanced exchange at width 4");
}

/// Ragged runs are bit-reproducible and pool-width independent.
#[test]
fn ragged_runs_are_bit_reproducible_and_width_independent() {
    let _g = WIDTH_LOCK.lock().unwrap();
    let cfg = ExecConfig { exchange: true, ..ragged_base() };
    rayon::set_num_threads(1);
    let narrow = verify::run(&cfg, PipelineKind::SlimPipe, 2, 0.2).unwrap();
    let narrow2 = verify::run(&cfg, PipelineKind::SlimPipe, 2, 0.2).unwrap();
    rayon::set_num_threads(4);
    let wide = verify::run(&cfg, PipelineKind::SlimPipe, 2, 0.2).unwrap();
    rayon::set_num_threads(0);
    assert_bits_equal(&narrow2, &narrow, "ragged re-run at width 1");
    assert_bits_equal(&wide, &narrow, "ragged width 4 vs width 1");
}

/// `Explicit` bounds spelling the uniform partition must be bit-identical
/// to `Uniform` — losses, gradients, *and* the byte-exact per-device peak
/// activation accounting (the pre-refactor uniform behaviour).
#[test]
fn explicit_uniform_bounds_reproduce_uniform_accounting() {
    let uniform = ExecConfig {
        stages: 2,
        slices: 8,
        microbatches: 2,
        ..ExecConfig::small()
    };
    let l = (uniform.seq / uniform.slices) as u64;
    let bounds: Vec<u64> = (0..=uniform.slices as u64).map(|i| i * l).collect();
    let explicit = ExecConfig {
        slicing: SlicePolicy::Explicit(bounds),
        ..uniform.clone()
    };
    let a = verify::run(&uniform, PipelineKind::SlimPipe, 2, 0.2).unwrap();
    let b = verify::run(&explicit, PipelineKind::SlimPipe, 2, 0.2).unwrap();
    assert_bits_equal(&b, &a, "explicit-uniform vs uniform");
    assert_eq!(
        a.peak_act_bytes, b.peak_act_bytes,
        "peak activation accounting must not depend on the policy spelling"
    );
}

/// Per-microbatch slice counts (the planner's output axis): microbatches
/// cut at different granularities run the real pipeline and match the
/// reference, with and without ragged lengths / exchange / vocabulary
/// parallelism.
#[test]
fn per_microbatch_slice_counts_match_reference() {
    let base = ExecConfig {
        stages: 2,
        slices: 8,
        microbatches: 3,
        mb_slices: Some(vec![2, 4, 8]),
        ..ExecConfig::small()
    };
    let ragged = ExecConfig {
        mb_seqs: Some(vec![48, 64, 96]),
        mb_slices: Some(vec![2, 4, 6]),
        ..base.clone()
    };
    let configs = [
        ("plain", base.clone()),
        ("exchange", ExecConfig { exchange: true, ..base.clone() }),
        ("vocab_parallel", ExecConfig { vocab_parallel: true, ..base.clone() }),
        ("ragged", ragged.clone()),
        (
            "ragged+everything",
            ExecConfig { exchange: true, vocab_parallel: true, ..ragged },
        ),
    ];
    for (name, cfg) in configs {
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

/// Exchange under per-microbatch slice counts stays a pure relocation of
/// work: bit-identical to local execution at every pool width.
#[test]
fn per_microbatch_counts_exchange_is_bit_identical_to_local() {
    let _g = WIDTH_LOCK.lock().unwrap();
    let cfg = ExecConfig {
        stages: 2,
        slices: 8,
        microbatches: 2,
        mb_slices: Some(vec![8, 4]),
        mb_seqs: Some(vec![64, 48]),
        ..ExecConfig::small()
    };
    let local = verify::run(&cfg, PipelineKind::SlimPipe, 2, 0.2).unwrap();
    let exchanged = verify::run(
        &ExecConfig { exchange: true, ..cfg.clone() },
        PipelineKind::SlimPipe,
        2,
        0.2,
    )
    .unwrap();
    assert_bits_equal(&exchanged, &local, "per-mb-count exchange vs local");

    rayon::set_num_threads(4);
    let exchanged_wide = verify::run(
        &ExecConfig { exchange: true, ..cfg },
        PipelineKind::SlimPipe,
        2,
        0.2,
    )
    .unwrap();
    rayon::set_num_threads(0);
    assert_bits_equal(&exchanged_wide, &local, "per-mb-count exchange at width 4");
}

/// A global slice count spelled as per-microbatch counts is bit-identical
/// to the global spelling — schedules, stashes, exchange maps, and the
/// byte-exact memory accounting all collapse to the same run.
#[test]
fn per_microbatch_spelling_of_global_count_is_bit_identical() {
    let global = ExecConfig {
        stages: 2,
        slices: 4,
        microbatches: 2,
        ..ExecConfig::small()
    };
    let per_mb = ExecConfig { mb_slices: Some(vec![4, 4]), ..global.clone() };
    let a = verify::run(&global, PipelineKind::SlimPipe, 2, 0.2).unwrap();
    let b = verify::run(&per_mb, PipelineKind::SlimPipe, 2, 0.2).unwrap();
    assert_bits_equal(&b, &a, "per-mb spelling vs global");
    assert_eq!(a.peak_act_bytes, b.peak_act_bytes);
}

/// Peak-memory story survives the policy axis: pair-balanced slicing's
/// early slices are *long* (the §4.1.1 memory problem), so its device-0
/// peak is at least the uniform run's.
#[test]
fn pair_balanced_peaks_at_least_uniform() {
    let uniform = ExecConfig {
        stages: 2,
        slices: 8,
        microbatches: 2,
        ..ExecConfig::small()
    };
    let balanced = ExecConfig { slicing: SlicePolicy::PairBalanced, ..uniform.clone() };
    let u = verify::run(&uniform, PipelineKind::SlimPipe, 1, 0.1).unwrap();
    let b = verify::run(&balanced, PipelineKind::SlimPipe, 1, 0.1).unwrap();
    assert!(
        b.peak_act_bytes[0] >= u.peak_act_bytes[0],
        "pair-balanced {} vs uniform {}",
        b.peak_act_bytes[0],
        u.peak_act_bytes[0]
    );
}
