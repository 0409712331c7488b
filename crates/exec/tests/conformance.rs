//! Differential conformance of the executor: every pipeline schedule the
//! executor can run must reproduce the single-device, unsliced reference —
//! within f32-reassociation tolerance for the schedule/feature matrix, and
//! **bit-for-bit** where the docs claim determinism:
//!
//! * the same configuration re-run is bit-identical (seeded params, seeded
//!   data, static schedules, per-chunk reply channels);
//! * the worker-pool width (`RAYON_NUM_THREADS` / `rayon::set_num_threads`)
//!   never changes a single output bit — kernels partition work into
//!   disjoint-output tasks and reduce partials in fixed task order;
//! * context exchange is a pure *relocation* of work: partials and dQ
//!   contributions fold in ascending chunk order on both paths, so an
//!   exchange run is bit-identical to a local run;
//! * after warm-up, training spawns zero new pool threads — parallel
//!   regions reuse the persistent workers.

use slimpipe_exec::layer::{
    layer_backward, layer_forward, DkvAccum, KvCache, LayerGrads, LayerParams, LocalAttn,
    SliceCache,
};
use slimpipe_exec::model::ExecConfig;
use slimpipe_exec::schedule::PipelineKind;
use slimpipe_exec::train::{run_reference, RunResult};
use slimpipe_exec::verify::{self, assert_equivalent};
use slimpipe_tensor::attention::HeadCfg;
use slimpipe_tensor::init::seeded_uniform;
use slimpipe_tensor::matmul::{matmul, matmul_nt, matmul_tn, with_kernel_nr};
use slimpipe_tensor::{pool, rmsnorm, swiglu, Tensor};
use std::sync::Mutex;

/// Serialises the tests that install a process-wide width override.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

/// Bit-level equality of everything a run produces.
fn assert_bits_equal(got: &RunResult, want: &RunResult, what: &str) {
    assert_eq!(got.losses, want.losses, "{what}: losses differ");
    assert_eq!(got.layer_grads.len(), want.layer_grads.len(), "{what}");
    for (li, (a, b)) in got.layer_grads.iter().zip(&want.layer_grads).enumerate() {
        for ((name, ga), (_, gb)) in a.tensors().iter().zip(b.tensors().iter()) {
            assert_eq!(
                ga.max_abs_diff(gb),
                0.0,
                "{what}: layer{li}.{name} gradient bits differ"
            );
        }
        assert_eq!(a.norm1, b.norm1, "{what}: layer{li}.norm1");
        assert_eq!(a.norm2, b.norm2, "{what}: layer{li}.norm2");
    }
    assert_eq!(got.embed_grad.max_abs_diff(&want.embed_grad), 0.0, "{what}: embedding");
    assert_eq!(got.out_grad.max_abs_diff(&want.out_grad), 0.0, "{what}: output");
    assert_eq!(got.final_norm_grad, want.final_norm_grad, "{what}: final norm");
}

/// Every `PipelineKind` the executor can run, against the reference.
#[test]
fn every_pipeline_kind_matches_the_reference() {
    let base = ExecConfig::small();
    let matrix = [
        (PipelineKind::GPipe, ExecConfig { slices: 1, microbatches: 3, ..base.clone() }),
        (PipelineKind::OneFOneB, ExecConfig { slices: 1, microbatches: 4, ..base.clone() }),
        (PipelineKind::TeraPipe, ExecConfig { slices: 4, microbatches: 2, ..base.clone() }),
        (PipelineKind::SlimPipe, ExecConfig { slices: 4, microbatches: 2, ..base.clone() }),
    ];
    for (kind, cfg) in matrix {
        let want = run_reference(&cfg, 2, 0.2);
        let got = verify::run(&cfg, kind, 2, 0.2).unwrap();
        assert_equivalent(&got, &want, 2e-3);
    }
}

/// The feature configs the paper leans on: vocabulary parallelism, context
/// exchange, activation offloading — alone and combined.
#[test]
fn feature_configs_match_the_reference() {
    let base = ExecConfig { stages: 2, slices: 8, microbatches: 2, ..ExecConfig::small() };
    let configs = [
        ("vocab_parallel", ExecConfig { vocab_parallel: true, ..base.clone() }),
        ("exchange", ExecConfig { exchange: true, ..base.clone() }),
        ("offload", ExecConfig { offload_budget: Some(80_000), ..base.clone() }),
        (
            "everything_on",
            ExecConfig {
                vocab_parallel: true,
                exchange: true,
                offload_budget: Some(80_000),
                ..base
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

/// Re-running a configuration is bit-identical, and the worker-pool width
/// never changes a bit — at a size whose attention genuinely fans out
/// (4 heads × 64 × 64 × 8 = PAR_ATTN_WORK).
#[test]
fn runs_are_bit_reproducible_and_width_independent() {
    let _g = WIDTH_LOCK.lock().unwrap();
    let cfg = ExecConfig {
        stages: 2,
        slices: 2,
        seq: 128,
        microbatches: 2,
        ..ExecConfig::small()
    };
    rayon::set_num_threads(1);
    let narrow = verify::run(&cfg, PipelineKind::SlimPipe, 2, 0.2).unwrap();
    let narrow2 = verify::run(&cfg, PipelineKind::SlimPipe, 2, 0.2).unwrap();
    rayon::set_num_threads(8);
    let wide = verify::run(&cfg, PipelineKind::SlimPipe, 2, 0.2).unwrap();
    rayon::set_num_threads(0);
    assert_bits_equal(&narrow2, &narrow, "re-run at width 1");
    assert_bits_equal(&wide, &narrow, "width 8 vs width 1");
}

/// Context exchange relocates chunk work to peer devices; since both paths
/// fold partials and dQ in ascending chunk order, the gradients and losses
/// must be bit-identical, not merely close.
#[test]
fn context_exchange_is_bit_identical_to_local_execution() {
    let _g = WIDTH_LOCK.lock().unwrap();
    let cfg = ExecConfig { stages: 2, slices: 8, microbatches: 2, ..ExecConfig::small() };
    let local = verify::run(&cfg, PipelineKind::SlimPipe, 2, 0.2).unwrap();
    let exchanged = verify::run(
        &ExecConfig { exchange: true, ..cfg.clone() },
        PipelineKind::SlimPipe,
        2,
        0.2,
    )
    .unwrap();
    assert_bits_equal(&exchanged, &local, "exchange vs local");

    // And under a forced pool width, still the same bits.
    rayon::set_num_threads(4);
    let exchanged_wide = verify::run(
        &ExecConfig { exchange: true, ..cfg.clone() },
        PipelineKind::SlimPipe,
        2,
        0.2,
    )
    .unwrap();
    rayon::set_num_threads(0);
    assert_bits_equal(&exchanged_wide, &local, "exchange at width 4 vs local");
}

// ---- fused ≡ unfused: the separate-pass layer (the PR 3 hot loop,
// reconstructed from the standalone kernels) against today's GEMM-fused
// layer, bit-for-bit ----

/// PR 3's layer forward: materialised RMSNorm / SwiGLU passes and
/// separate residual adds around plain GEMMs.
fn unfused_layer_forward(
    p: &LayerParams,
    hc: HeadCfg,
    x: Tensor,
    kv: &mut KvCache,
    slice: usize,
    q_offset: usize,
) -> (Tensor, SliceCache) {
    let normed1 = rmsnorm::forward(&x, &p.norm1);
    let q = matmul(&normed1, p.wq.tensor());
    let k = matmul(&normed1, p.wk.tensor());
    let v = matmul(&normed1, p.wv.tensor());
    normed1.recycle();
    kv.push(k, v, q_offset);
    let part = {
        let (chunks, offsets) = kv.visible(slice);
        slimpipe_tensor::attention::forward_chunked(&q, &chunks, &offsets, hc, q_offset)
    };
    let mut resid_mid = matmul(&part.o, p.wo.tensor());
    resid_mid.add_assign(&x);
    let normed2 = rmsnorm::forward(&resid_mid, &p.norm2);
    let gate = matmul(&normed2, p.w_gate.tensor());
    let up = matmul(&normed2, p.w_up.tensor());
    normed2.recycle();
    let act = swiglu::forward(&gate, &up);
    let mut y = matmul(&act, p.w_down.tensor());
    act.recycle();
    y.add_assign(&resid_mid);
    let cache = SliceCache { x_in: x, q, attn_out: part.o, lse: part.lse, resid_mid, gate, up };
    (y, cache)
}

/// PR 3's layer backward, same deal.
#[allow(clippy::too_many_arguments)]
fn unfused_layer_backward(
    p: &LayerParams,
    g: &mut LayerGrads,
    hc: HeadCfg,
    cache: SliceCache,
    d_y: Tensor,
    kv: &mut KvCache,
    dkv: &mut DkvAccum,
    slice: usize,
    q_offset: usize,
) -> Tensor {
    dkv.ensure(slice + 1);
    let normed2 = rmsnorm::forward(&cache.resid_mid, &p.norm2);
    let act = swiglu::forward(&cache.gate, &cache.up);
    g.w_down.add_assign_recycle(matmul_tn(&act, &d_y));
    act.recycle();
    let d_act = matmul_nt(&d_y, p.w_down.tensor());
    let (d_gate, d_up) = swiglu::backward(&cache.gate, &cache.up, &d_act);
    d_act.recycle();
    g.w_gate.add_assign_recycle(matmul_tn(&normed2, &d_gate));
    g.w_up.add_assign_recycle(matmul_tn(&normed2, &d_up));
    normed2.recycle();
    let mut d_normed2 = matmul_nt(&d_gate, p.w_gate.tensor());
    d_normed2.add_assign_recycle(matmul_nt(&d_up, p.w_up.tensor()));
    d_gate.recycle();
    d_up.recycle();
    let (d_resid_from_norm, d_norm2) = rmsnorm::backward(&cache.resid_mid, &p.norm2, &d_normed2);
    d_normed2.recycle();
    for (a, b) in g.norm2.iter_mut().zip(&d_norm2) {
        *a += b;
    }
    pool::recycle(d_norm2);
    let mut d_resid_mid = d_y;
    d_resid_mid.add_assign_recycle(d_resid_from_norm);

    g.wo.add_assign_recycle(matmul_tn(&cache.attn_out, &d_resid_mid));
    let d_o = matmul_nt(&d_resid_mid, p.wo.tensor());

    let (d_q, per_chunk) = {
        let (chunks, offsets) = kv.visible(slice);
        slimpipe_tensor::attention::backward_chunked(
            &cache.q, &chunks, &offsets, &d_o, &cache.attn_out, &cache.lse, hc, q_offset,
        )
    };
    d_o.recycle();
    let mut d_k_own = None;
    let mut d_v_own = None;
    for (c, (dk, dv)) in per_chunk.into_iter().enumerate() {
        if c == slice {
            d_k_own = Some(dk);
            d_v_own = Some(dv);
        } else {
            dkv.add(c, dk, dv);
        }
    }
    let (mut d_k, mut d_v) = (d_k_own.expect("diagonal chunk"), d_v_own.expect("diagonal"));
    if let Some((ak, av)) = dkv.take(slice) {
        d_k.add_assign_recycle(ak);
        d_v.add_assign_recycle(av);
    }
    kv.release(slice);

    let normed1 = rmsnorm::forward(&cache.x_in, &p.norm1);
    g.wq.add_assign_recycle(matmul_tn(&normed1, &d_q));
    g.wk.add_assign_recycle(matmul_tn(&normed1, &d_k));
    g.wv.add_assign_recycle(matmul_tn(&normed1, &d_v));
    normed1.recycle();
    let mut d_normed1 = matmul_nt(&d_q, p.wq.tensor());
    d_normed1.add_assign_recycle(matmul_nt(&d_k, p.wk.tensor()));
    d_normed1.add_assign_recycle(matmul_nt(&d_v, p.wv.tensor()));
    d_q.recycle();
    d_k.recycle();
    d_v.recycle();
    let (d_x_from_norm, d_norm1) = rmsnorm::backward(&cache.x_in, &p.norm1, &d_normed1);
    d_normed1.recycle();
    for (a, b) in g.norm1.iter_mut().zip(&d_norm1) {
        *a += b;
    }
    pool::recycle(d_norm1);
    let mut d_x = d_resid_mid;
    d_x.add_assign_recycle(d_x_from_norm);
    cache.recycle();
    d_x
}

/// The GEMM-fused layer (packed weights, prologue/epilogue fusion) must be
/// **bit-identical** to the separate-pass composition — across worker-pool
/// widths and both micro-kernel widths. This is the executor-level anchor
/// of the fusion rework: pipeline losses cannot drift from the PR 3
/// reference because not a single layer bit does.
#[test]
fn fused_layer_is_bit_identical_to_unfused_composition() {
    let _g = WIDTH_LOCK.lock().unwrap();
    let cfg = ExecConfig { seq: 128, slices: 2, ..ExecConfig::small() };
    let hc = cfg.head_cfg();
    let p = LayerParams::build(&cfg, 0);
    let x = seeded_uniform(cfg.seq, cfg.hidden(), 300);
    let d_y = seeded_uniform(cfg.seq, cfg.hidden(), 301);
    let l = cfg.slice_len();

    let run = |fused: bool| {
        let mut kv = KvCache::default();
        let mut caches = Vec::new();
        let mut y_cat = Tensor::zeros(cfg.seq, cfg.hidden());
        for j in 0..cfg.slices {
            let xs = x.rows_slice(j * l, l);
            let (y, c) = if fused {
                layer_forward(&p, hc, xs, &mut kv, j, j * l, &mut LocalAttn).expect("local attn")
            } else {
                unfused_layer_forward(&p, hc, xs, &mut kv, j, j * l)
            };
            y_cat.set_rows(j * l, &y);
            y.recycle();
            caches.push(c);
        }
        let mut g = LayerGrads::zeros(&cfg);
        let mut dkv = DkvAccum::default();
        dkv.ensure(cfg.slices);
        let mut dx_cat = Tensor::zeros(cfg.seq, cfg.hidden());
        for j in (0..cfg.slices).rev() {
            let dys = d_y.rows_slice(j * l, l);
            let cache = caches.pop().expect("LIFO stash");
            let dx = if fused {
                layer_backward(&p, &mut g, hc, cache, dys, &mut kv, &mut dkv, j, j * l, &mut LocalAttn)
                    .expect("local attn")
            } else {
                unfused_layer_backward(&p, &mut g, hc, cache, dys, &mut kv, &mut dkv, j, j * l)
            };
            dx_cat.set_rows(j * l, &dx);
            dx.recycle();
        }
        (y_cat, dx_cat, g)
    };

    for nr in [8usize, 16] {
        for threads in [1usize, 4] {
            with_kernel_nr(nr, || {
                rayon::set_num_threads(threads);
                let (y_f, dx_f, g_f) = run(true);
                let (y_u, dx_u, g_u) = run(false);
                rayon::set_num_threads(0);
                assert_eq!(y_f, y_u, "forward bits differ (nr={nr}, threads={threads})");
                assert_eq!(dx_f, dx_u, "dX bits differ (nr={nr}, threads={threads})");
                for ((name, a), (_, b)) in g_f.tensors().iter().zip(g_u.tensors().iter()) {
                    assert_eq!(
                        a.max_abs_diff(b),
                        0.0,
                        "grad {name} bits differ (nr={nr}, threads={threads})"
                    );
                }
                assert_eq!(g_f.norm1, g_u.norm1, "norm1 (nr={nr}, threads={threads})");
                assert_eq!(g_f.norm2, g_u.norm2, "norm2 (nr={nr}, threads={threads})");
            });
        }
    }
}

/// Whole-pipeline runs must not change a bit when the micro-kernel width
/// flips: the k-accumulation order per C element is width-independent.
#[test]
fn kernel_width_never_changes_pipeline_bits() {
    let _g = WIDTH_LOCK.lock().unwrap();
    let cfg = ExecConfig { stages: 2, slices: 4, microbatches: 2, ..ExecConfig::small() };
    let narrow = with_kernel_nr(8, || verify::run(&cfg, PipelineKind::SlimPipe, 2, 0.2).unwrap());
    let wide = with_kernel_nr(16, || verify::run(&cfg, PipelineKind::SlimPipe, 2, 0.2).unwrap());
    assert_bits_equal(&wide, &narrow, "kernel width 16 vs 8");
}

/// The acceptance criterion on the pool lifecycle: once the pool is warm,
/// further training — more steps, more runs, different schedules — spawns
/// zero new pool threads. (Stage and server threads are per-run executor
/// architecture, not pool traffic; the pool counter isolates the kernels'
/// fan-out.)
#[test]
fn steady_state_training_spawns_zero_pool_threads() {
    let _g = WIDTH_LOCK.lock().unwrap();
    let cfg = ExecConfig {
        stages: 2,
        slices: 2,
        seq: 128,
        microbatches: 2,
        ..ExecConfig::small()
    };
    rayon::set_num_threads(4);
    // Warm-up: first parallel regions may grow the pool to width - 1.
    let _ = verify::run(&cfg, PipelineKind::SlimPipe, 1, 0.2).unwrap();
    let warm = rayon::pool_thread_spawns();
    assert!(rayon::pool_size() >= 3, "pool must hold the warm-up workers");
    // Steady state: multi-step training and fresh runs spawn nothing.
    let _ = verify::run(&cfg, PipelineKind::SlimPipe, 3, 0.2).unwrap();
    let _ = run_reference(&cfg, 2, 0.2);
    let _ = verify::run(&cfg, PipelineKind::TeraPipe, 1, 0.2).unwrap();
    // Read the counter before releasing the width override: concurrent
    // tests in this binary could otherwise grow the pool to the host's
    // full parallelism in the gap and fail this assertion spuriously.
    let spawns_after = rayon::pool_thread_spawns();
    rayon::set_num_threads(0);
    assert_eq!(spawns_after, warm, "steady-state training must not spawn pool threads");
}
