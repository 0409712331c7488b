//! Micro-profiling harness: fit a [`CostProfile`] by timing the *real*
//! executor kernels — the packed-GEMM + chunked-attention layer pass
//! (`slimpipe_exec::layer`), the classic loss head, and the embedding
//! edges — at a few token-range sizes.
//!
//! The harness runs each `(tokens, prior-chunks)` point a few times and
//! keeps the median, then least-squares-fits the `c0 + ct·t + cp·pairs`
//! form per op family. On a quiet host a handful of repeats is plenty (the
//! kernels are deterministic); on a noisy host the committed JSON profile
//! (`profiles/reference.json`) is the stable artifact tests pin against —
//! calibration here exists to *produce* that artifact and to re-derive it
//! on new hosts.

use crate::profile::{fit_linear3, CostProfile, ProfileShape, Sample};
use slimpipe_exec::layer::{
    layer_backward, layer_forward, DkvAccum, KvCache, LayerGrads, LayerParams, LocalAttn,
};
use slimpipe_exec::schedule::PipelineKind;
use slimpipe_exec::{run_pipeline, ExecConfig};
use slimpipe_model::causal_pairs;
use slimpipe_tensor::crossentropy;
use slimpipe_tensor::init::{seeded_tokens, seeded_uniform};
use slimpipe_tensor::matmul::{matmul_fused, matmul_tn_acc};
use slimpipe_tensor::{pool, rmsnorm, Epilogue, PackedWeight, Prologue, Tensor};
use std::time::Instant;

/// Calibration knobs. The defaults cover the executor's operating range
/// (slices of a few dozen tokens) with a 3×3 grid, 3 repeats per point.
#[derive(Clone, Debug)]
pub struct CalibrationOpts {
    /// Slice lengths (tokens) to sample.
    pub token_sizes: Vec<usize>,
    /// Numbers of *prior* KV chunks to sample (0 = first slice).
    pub chunk_counts: Vec<usize>,
    /// Timed repeats per point; the median is kept.
    pub repeats: usize,
}

impl Default for CalibrationOpts {
    fn default() -> Self {
        Self {
            token_sizes: vec![8, 16, 32],
            chunk_counts: vec![0, 1, 3],
            repeats: 3,
        }
    }
}

/// Profile shape of an executor configuration.
pub fn shape_of(cfg: &ExecConfig) -> ProfileShape {
    ProfileShape {
        heads: cfg.heads,
        kv_heads: cfg.kv_heads,
        head_dim: cfg.head_dim,
        ffn: cfg.ffn,
        vocab: cfg.vocab,
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// Time one forward of slice `c` (with `c` prior chunks resident) and one
/// backward of the same slice, returning `(fwd_ns, bwd_ns)`.
fn time_layer_point(cfg: &ExecConfig, params: &LayerParams, t: usize, c: usize) -> (f64, f64) {
    let hc = cfg.head_cfg();
    let h = cfg.hidden();
    let mut kv = KvCache::default();
    let mut caches = Vec::new();
    // Prior slices fill the cache (untimed).
    for j in 0..c {
        let x = seeded_uniform(t, h, 40 + j as u64);
        let (y, cache) =
            layer_forward(params, hc, x, &mut kv, j, j * t, &mut LocalAttn).expect("local attn");
        y.recycle();
        caches.push(cache);
    }
    // Timed forward of slice c.
    let x = seeded_uniform(t, h, 40 + c as u64);
    let t0 = Instant::now();
    let (y, cache) =
        layer_forward(params, hc, x, &mut kv, c, c * t, &mut LocalAttn).expect("local attn");
    let fwd_ns = t0.elapsed().as_nanos() as f64;
    y.recycle();
    caches.push(cache);
    // Timed backward of slice c (the LIFO head — its stash is on top).
    let mut grads = LayerGrads::zeros(cfg);
    let mut dkv = DkvAccum::default();
    dkv.ensure(c + 1);
    let d_y = seeded_uniform(t, h, 90);
    let cache = caches.pop().expect("stash for slice c");
    let t0 = Instant::now();
    let dx = layer_backward(
        params, &mut grads, hc, cache, d_y, &mut kv, &mut dkv, c, c * t, &mut LocalAttn,
    )
    .expect("local attn");
    let bwd_ns = t0.elapsed().as_nanos() as f64;
    dx.recycle();
    // Unwind the prior slices so every pool buffer returns home.
    for j in (0..c).rev() {
        let d_y = seeded_uniform(t, h, 91);
        let cache = caches.pop().expect("prior stash");
        let dx = layer_backward(
            params, &mut grads, hc, cache, d_y, &mut kv, &mut dkv, j, j * t, &mut LocalAttn,
        )
        .expect("local attn");
        dx.recycle();
    }
    (fwd_ns, bwd_ns)
}

/// Time the classic loss head (final-norm-fused logits GEMM +
/// cross-entropy) forward and backward at `t` tokens.
fn time_head_point(cfg: &ExecConfig, out_w: &PackedWeight, t: usize) -> (f64, f64) {
    let h = cfg.hidden();
    let gain = vec![1.0f32; h];
    let hidden_in = seeded_uniform(t, h, 300);
    let targets = seeded_tokens(t, cfg.vocab, 301);

    let t0 = Instant::now();
    let inv = rmsnorm::inv_rms(&hidden_in);
    let logits = matmul_fused(
        &hidden_in,
        out_w.nn(),
        Prologue::NormRows { inv: &inv, gain: &gain },
        Epilogue::None,
    );
    pool::recycle(inv);
    let (_loss, d_logits) = crossentropy::forward_backward(&logits, &targets);
    let fwd_ns = t0.elapsed().as_nanos() as f64;
    logits.recycle();

    let mut wg = Tensor::zeros(h, cfg.vocab);
    let t0 = Instant::now();
    let inv = rmsnorm::inv_rms(&hidden_in);
    matmul_tn_acc(
        &mut wg,
        &hidden_in,
        &d_logits,
        Prologue::NormCols { inv: &inv, gain: &gain },
    );
    pool::recycle(inv);
    let d_normed = matmul_fused(&d_logits, out_w.nt(), Prologue::None, Epilogue::None);
    let (d_hidden, d_gain) = rmsnorm::backward(&hidden_in, &gain, &d_normed);
    let bwd_ns = t0.elapsed().as_nanos() as f64;
    d_normed.recycle();
    d_hidden.recycle();
    pool::recycle(d_gain);
    d_logits.recycle();
    hidden_in.recycle();
    (fwd_ns, bwd_ns)
}

/// Time the embedding lookup and scatter-add at `t` tokens.
fn time_embed_point(cfg: &ExecConfig, table: &Tensor, t: usize) -> (f64, f64) {
    let toks = seeded_tokens(t, cfg.vocab, 400);
    let t0 = Instant::now();
    let x = slimpipe_tensor::embedding::forward(table, &toks);
    let fwd_ns = t0.elapsed().as_nanos() as f64;
    let d_y = seeded_uniform(t, cfg.hidden(), 401);
    let mut grad = Tensor::zeros(cfg.vocab, cfg.hidden());
    let t0 = Instant::now();
    slimpipe_tensor::embedding::backward(&toks, &d_y, &mut grad);
    let bwd_ns = t0.elapsed().as_nanos() as f64;
    x.recycle();
    d_y.recycle();
    (fwd_ns, bwd_ns)
}

/// Measure the comm-overlap fraction: wall-clock one exchange-enabled
/// pipeline step with the async runtime on, then with it off, and report
/// how much of the serialized time the overlapped regime hides. On a
/// single-core host the two regimes interleave on the same CPU and the
/// honest answer is ≈ 0 — the fraction only opens up when stage threads
/// (and the exchange servers they post to) actually run concurrently.
fn measure_overlap(cfg: &ExecConfig, repeats: usize) -> f64 {
    let step = |asynchronous: bool| -> f64 {
        let run_cfg = ExecConfig {
            stages: 2,
            microbatches: 2,
            exchange: true,
            vocab_parallel: false,
            async_exchange: asynchronous,
            fault_plan: None,
            checkpoint: None,
            ..cfg.clone()
        };
        let t0 = Instant::now();
        let _ = run_pipeline(&run_cfg, PipelineKind::SlimPipe, 1, 1e-3);
        t0.elapsed().as_nanos() as f64
    };
    // Warm both paths once (thread spawn + pool growth), then time.
    step(true);
    step(false);
    let overlapped = median((0..repeats).map(|_| step(true)).collect());
    let serialized = median((0..repeats).map(|_| step(false)).collect());
    if serialized <= 0.0 || !serialized.is_finite() {
        return 0.0;
    }
    (1.0 - overlapped / serialized).clamp(0.0, 1.0)
}

/// Run the calibration harness for `cfg`'s model shape and fit a profile.
pub fn calibrate(cfg: &ExecConfig, opts: &CalibrationOpts) -> CostProfile {
    assert!(opts.repeats >= 1);
    let params = LayerParams::build(cfg, 0);
    let out_w = PackedWeight::new(cfg.build_output());
    let table = cfg.build_embedding();

    let mut fwd = Vec::new();
    let mut bwd = Vec::new();
    for &t in &opts.token_sizes {
        for &c in &opts.chunk_counts {
            let pairs = causal_pairs((c * t) as u64, t as u64) as f64;
            let timed: Vec<(f64, f64)> = (0..opts.repeats)
                .map(|_| time_layer_point(cfg, &params, t, c))
                .collect();
            let f = median(timed.iter().map(|x| x.0).collect());
            let b = median(timed.iter().map(|x| x.1).collect());
            fwd.push(Sample { tokens: t as f64, pairs, ns: f });
            bwd.push(Sample { tokens: t as f64, pairs, ns: b });
        }
    }
    let (f0, ft, fp) = fit_linear3(&fwd);
    let (b0, bt, bp) = fit_linear3(&bwd);

    let mut head_f = Vec::new();
    let mut head_b = Vec::new();
    let mut emb_f = Vec::new();
    let mut emb_b = Vec::new();
    for &t in &opts.token_sizes {
        let timed: Vec<(f64, f64)> =
            (0..opts.repeats).map(|_| time_head_point(cfg, &out_w, t)).collect();
        head_f.push(Sample {
            tokens: t as f64,
            pairs: 0.0,
            ns: median(timed.iter().map(|x| x.0).collect()),
        });
        head_b.push(Sample {
            tokens: t as f64,
            pairs: 0.0,
            ns: median(timed.iter().map(|x| x.1).collect()),
        });
        let timed: Vec<(f64, f64)> =
            (0..opts.repeats).map(|_| time_embed_point(cfg, &table, t)).collect();
        emb_f.push(Sample {
            tokens: t as f64,
            pairs: 0.0,
            ns: median(timed.iter().map(|x| x.0).collect()),
        });
        emb_b.push(Sample {
            tokens: t as f64,
            pairs: 0.0,
            ns: median(timed.iter().map(|x| x.1).collect()),
        });
    }
    let (hf0, hft, _) = fit_linear3(&head_f);
    let (hb0, hbt, _) = fit_linear3(&head_b);
    // Embedding constants fold into the slope (the lookup has no fixed
    // setup worth modelling separately at slice granularity).
    let (_, ef, _) = fit_linear3(&emb_f);
    let (_, eb, _) = fit_linear3(&emb_b);

    let ov = measure_overlap(cfg, opts.repeats);

    CostProfile {
        shape: shape_of(cfg),
        f0,
        ft,
        fp,
        b0,
        bt,
        bp,
        hf0,
        hft,
        hb0,
        hbt,
        ef,
        eb,
        ov,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_produces_a_valid_profile() {
        // Quick single-repeat calibration: on any host (arbitrarily noisy)
        // the fitted profile must still be structurally valid.
        let cfg = ExecConfig::small();
        let opts = CalibrationOpts {
            token_sizes: vec![8, 16, 32],
            chunk_counts: vec![0, 2],
            repeats: 1,
        };
        let p = calibrate(&cfg, &opts);
        p.validate().unwrap();
        assert_eq!(p.shape, shape_of(&cfg));
        // Backward is more work than forward in aggregate: compare priced
        // costs at a representative point rather than raw coefficients
        // (noise can land in different terms).
        let price = |c0: f64, ct: f64, cp: f64| c0 + ct * 32.0 + cp * 1000.0;
        assert!(
            price(p.b0, p.bt, p.bp) > 0.0 && price(p.f0, p.ft, p.fp) > 0.0,
            "priced costs must be positive"
        );
    }
}
