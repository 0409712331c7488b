//! Cross-crate integration: the *real* threaded executor's measured
//! activation bytes must follow the paper's Eq. 1 scaling, and the
//! executor must agree with the analytical model about who saves memory.

use slimpipe::exec::model::ExecConfig;
use slimpipe::exec::schedule::PipelineKind;
use slimpipe::exec::verify;

fn base() -> ExecConfig {
    ExecConfig {
        stages: 2,
        slices: 8,
        microbatches: 4,
        ..ExecConfig::small()
    }
}

#[test]
fn executor_peak_scales_down_with_slice_count() {
    // Eq. 1: accumulation ∝ (n + 2(p-1))/n per device-share; more slices →
    // smaller peak, saturating at 1/p.
    let mut peaks = Vec::new();
    for n in [2usize, 4, 8, 16] {
        let cfg = ExecConfig { slices: n, ..base() };
        let r = verify::run(&cfg, PipelineKind::SlimPipe, 1, 0.1).unwrap();
        peaks.push((n, r.peak_act_bytes[0]));
    }
    for w in peaks.windows(2) {
        assert!(
            w[1].1 < w[0].1,
            "peak should shrink with n: {:?}",
            peaks
        );
    }
    // Eq. 1 ratio check between n=2 and n=16 at p=2:
    // (2 + 2)/2 = 2 units vs (16 + 2)/16 = 1.125 units → ratio ≈ 1.78,
    // diluted by the per-slice head stash; accept a broad band.
    let ratio = peaks[0].1 as f64 / peaks[3].1 as f64;
    assert!(ratio > 1.4 && ratio < 2.4, "Eq.1 ratio {ratio}");
}

#[test]
fn executor_scheme_memory_ordering_matches_table2() {
    // SlimPipe < 1F1B < TeraPipe ≈ GPipe in executor-measured bytes.
    let slim = verify::run(&base(), PipelineKind::SlimPipe, 1, 0.1).unwrap();
    let tera = verify::run(&base(), PipelineKind::TeraPipe, 1, 0.1).unwrap();
    let classic_cfg = ExecConfig { slices: 1, ..base() };
    let ofob = verify::run(&classic_cfg, PipelineKind::OneFOneB, 1, 0.1).unwrap();
    let gpipe = verify::run(&classic_cfg, PipelineKind::GPipe, 1, 0.1).unwrap();

    let d0 = |r: &slimpipe::exec::train::RunResult| r.peak_act_bytes[0];
    assert!(d0(&slim) < d0(&ofob), "slim {} < 1f1b {}", d0(&slim), d0(&ofob));
    assert!(d0(&ofob) <= d0(&gpipe), "1f1b {} <= gpipe {}", d0(&ofob), d0(&gpipe));
    assert!(d0(&slim) < d0(&tera), "slim {} < terapipe {}", d0(&slim), d0(&tera));
}

#[test]
fn first_device_holds_more_than_last_under_slimpipe() {
    // §6.2: the first device accumulates 2(p-1) extra slices.
    let r = verify::run(&base(), PipelineKind::SlimPipe, 1, 0.1).unwrap();
    assert!(
        r.peak_act_bytes[0] > r.peak_act_bytes[1],
        "first {} vs last {}",
        r.peak_act_bytes[0],
        r.peak_act_bytes[1]
    );
}

#[test]
fn exchange_and_vocab_parallel_do_not_change_losses() {
    // Feature toggles are pure re-schedulings: same losses either way.
    let plain = verify::run(&base(), PipelineKind::SlimPipe, 2, 0.2).unwrap();
    let full = verify::run(
        &ExecConfig { exchange: true, vocab_parallel: true, ..base() },
        PipelineKind::SlimPipe,
        2,
        0.2,
    )
    .unwrap();
    for (a, b) in plain.losses.iter().zip(&full.losses) {
        assert!((a - b).abs() < 1e-4, "{a} vs {b}");
    }
}
