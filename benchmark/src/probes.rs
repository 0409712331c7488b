//! Per-layer probes: timed calls into public functions of each layer, each
//! wrapped in the benchmark's own spans. Single caller thread; the
//! program's rayon pool keeps its default width.

use crate::metrics::median;
use crate::spans::Spans;
use slimpipe_exec::checkpoint::CheckpointState;
use slimpipe_exec::comm::build_vocab_shards;
use slimpipe_exec::layer::{
    layer_backward, layer_forward, DkvAccum, KvCache, LayerGrads, LayerParams, LocalAttn,
};
use slimpipe_exec::schedule::{build_schedule, PipelineKind};
use slimpipe_exec::stage::{Stage, StageOutput};
use slimpipe_exec::train::make_data;
use slimpipe_exec::ExecConfig;
use slimpipe_planner::CostProfile;
use slimpipe_sched::PassKind;
use slimpipe_tensor::init::{seeded_tokens, seeded_uniform};
use slimpipe_tensor::matmul::{matmul, matmul_fused};
use slimpipe_tensor::{attention, crossentropy, Epilogue, PackedMat, Prologue};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Timed repeats after the warm one.
const REPEATS: usize = 5;
/// A probe whose warm repeat already takes this long is reported from that
/// one repeat: at that length warm-up effects are a rounding error, and
/// five more would not fit a run.
const LONG_REPEAT_S: f64 = 1.0;

/// Run `f` once warm and then [`REPEATS`] times, each in its own span
/// under a span named `name`; `f` returns the durations it timed itself
/// (set-up inside `f` is then excluded). Returns element-wise medians.
fn repeat(sp: &mut Spans, name: &str, mut f: impl FnMut() -> Vec<f64>) -> Vec<f64> {
    sp.scope(name, |sp| {
        let (warm, warm_s) = sp.scope("warm", |_| f());
        if warm_s >= LONG_REPEAT_S {
            return warm;
        }
        let runs: Vec<Vec<f64>> = (0..REPEATS)
            .map(|_| sp.scope("repeat", |_| f()).0)
            .collect();
        (0..warm.len())
            .map(|i| median(&runs.iter().map(|r| r[i]).collect::<Vec<_>>()))
            .collect()
    })
    .0
}

/// [`repeat`] for a probe that is one timed call.
fn repeat_call<R>(sp: &mut Spans, name: &str, mut f: impl FnMut() -> R) -> f64 {
    repeat(sp, name, || {
        let t0 = Instant::now();
        black_box(f());
        vec![t0.elapsed().as_secs_f64()]
    })[0]
}

/// `(query, key)` pairs `len` causal queries starting at `start` attend.
pub fn causal_pairs(start: usize, len: usize) -> f64 {
    slimpipe_model::causal_pairs(start as u64, len as u64) as f64
}

/// Forward + backward FLOPs of one layer over one `seq`-token microbatch,
/// with the conventions of `approx_flops_per_iteration` (6 per parameter
/// per token; 12·h per causal pair, pairs ≈ seq²/2).
pub fn layer_flops(cfg: &ExecConfig, seq: usize) -> f64 {
    let (h, kv, ffn, s) = (
        cfg.hidden() as f64,
        cfg.kv_hidden() as f64,
        cfg.ffn as f64,
        seq as f64,
    );
    6.0 * s * (2.0 * h * h + 2.0 * h * kv + 3.0 * h * ffn) + 12.0 * (s * s / 2.0) * h
}

const PEAK_DIM: usize = 512;

/// `tensor.matmul.peak_gflops`: `matmul` at 512³.
pub fn matmul_peak_gflops(sp: &mut Spans) -> f64 {
    let a = seeded_uniform(PEAK_DIM, PEAK_DIM, 1);
    let b = seeded_uniform(PEAK_DIM, PEAK_DIM, 2);
    let s = repeat_call(sp, "tensor.matmul.peak", || matmul(&a, &b).recycle());
    2.0 * (PEAK_DIM as f64).powi(3) / s / 1e9
}

/// `tensor.matmul.shape_gflops`: `matmul_fused` at the workload's own
/// (slice_len × hidden × ffn) against a packed weight.
pub fn matmul_shape_gflops(sp: &mut Spans, cfg: &ExecConfig) -> f64 {
    let (t, h, f) = (cfg.slice_len(), cfg.hidden(), cfg.ffn);
    let x = seeded_uniform(t, h, 3);
    let w = PackedMat::pack_nn(&seeded_uniform(h, f, 4));
    let s = repeat_call(sp, "tensor.matmul.shape", || {
        matmul_fused(&x, &w, Prologue::None, Epilogue::None).recycle()
    });
    2.0 * (t * h * f) as f64 / s / 1e9
}

/// `tensor.attention.{fwd,bwd}_gflops`: the last slice against the full
/// resident prefix, through `forward_chunked` / `backward_chunked`.
pub fn attention_chunked_gflops(sp: &mut Spans, cfg: &ExecConfig) -> (f64, f64) {
    let (hc, t, n) = (cfg.head_cfg(), cfg.slice_len(), cfg.slices);
    let q_offset = (n - 1) * t;
    let q = seeded_uniform(t, hc.q_width(), 10);
    let d_o = seeded_uniform(t, hc.q_width(), 11);
    let kv: Vec<_> = (0..n as u64)
        .map(|c| {
            (
                seeded_uniform(t, hc.kv_width(), 20 + c),
                seeded_uniform(t, hc.kv_width(), 60 + c),
            )
        })
        .collect();
    let chunks: Vec<_> = kv.iter().map(|(k, v)| (k, v)).collect();
    let offsets: Vec<usize> = (0..n).map(|c| c * t).collect();
    let fwd_s = repeat_call(sp, "tensor.attention.fwd", || {
        attention::forward_chunked(&q, &chunks, &offsets, hc, q_offset).recycle()
    });
    let part = attention::forward_chunked(&q, &chunks, &offsets, hc, q_offset);
    let bwd_s = repeat_call(sp, "tensor.attention.bwd", || {
        let (dq, dkv) = attention::backward_chunked(
            &q, &chunks, &offsets, &d_o, &part.o, &part.lse, hc, q_offset,
        );
        dq.recycle();
        for (dk, dv) in dkv {
            dk.recycle();
            dv.recycle();
        }
    });
    part.recycle();
    // Two score-sized GEMMs forward, four backward (the analytic count:
    // recomputing the scores is not useful work).
    let pair_flops = causal_pairs(q_offset, t) * hc.q_width() as f64;
    (
        4.0 * pair_flops / fwd_s / 1e9,
        8.0 * pair_flops / bwd_s / 1e9,
    )
}

/// `tensor.attention.mono_fwd_gflops`: `forward_full` at the whole sequence.
pub fn attention_mono_gflops(sp: &mut Spans, cfg: &ExecConfig) -> f64 {
    let hc = cfg.head_cfg();
    let q = seeded_uniform(cfg.seq, hc.q_width(), 12);
    let k = seeded_uniform(cfg.seq, hc.kv_width(), 13);
    let v = seeded_uniform(cfg.seq, hc.kv_width(), 14);
    let s = repeat_call(sp, "tensor.attention.mono_fwd", || {
        attention::forward_full(&q, &k, &v, hc).recycle()
    });
    4.0 * causal_pairs(0, cfg.seq) * hc.q_width() as f64 / s / 1e9
}

/// `tensor.crossentropy.fwd_bwd_s`: `forward_backward` at slice_len × vocab.
pub fn crossentropy_s(sp: &mut Spans, cfg: &ExecConfig) -> f64 {
    let logits = seeded_uniform(cfg.slice_len(), cfg.vocab, 15);
    let targets = seeded_tokens(cfg.slice_len(), cfg.vocab, 16);
    repeat_call(sp, "tensor.crossentropy.fwd_bwd", || {
        crossentropy::forward_backward(&logits, &targets)
            .1
            .recycle()
    })
}

/// Per-slice times of one layer over one microbatch.
pub struct LayerPass {
    /// `(start, len)` of each slice.
    pub slices: Vec<(usize, usize)>,
    pub fwd_s: Vec<f64>,
    pub bwd_s: Vec<f64>,
}

/// `exec.layer.*`: every slice of microbatch 0 forward through one layer
/// with `LocalAttn` (the prefix stays resident in the KV cache), then
/// backward in LIFO order — the `calibrate.rs` pattern, at the workload's
/// own slice length and prefix depth.
pub fn layer_pass(sp: &mut Spans, cfg: &ExecConfig) -> LayerPass {
    let (hc, h) = (cfg.head_cfg(), cfg.hidden());
    let params = LayerParams::build(cfg, 0);
    let mut grads = LayerGrads::zeros(cfg);
    let slices: Vec<(usize, usize)> = cfg.slice_map()[0]
        .iter()
        .map(|r| (r.start, r.len()))
        .collect();
    let n = slices.len();
    let times = repeat(sp, "exec.layer.pass", || {
        let mut kv = KvCache::default();
        let mut dkv = DkvAccum::default();
        let mut stash = Vec::with_capacity(n);
        let mut times = vec![0.0; 2 * n];
        for (j, &(start, len)) in slices.iter().enumerate() {
            let x = seeded_uniform(len, h, 40 + j as u64);
            let t0 = Instant::now();
            let (y, cache) = layer_forward(&params, hc, x, &mut kv, j, start, &mut LocalAttn)
                .expect("local attention cannot fail");
            times[j] = t0.elapsed().as_secs_f64();
            y.recycle();
            stash.push(cache);
        }
        for (j, &(start, len)) in slices.iter().enumerate().rev() {
            let d_y = seeded_uniform(len, h, 90 + j as u64);
            let cache = stash.pop().expect("one stash per slice");
            let t0 = Instant::now();
            let dx = layer_backward(
                &params,
                &mut grads,
                hc,
                cache,
                d_y,
                &mut kv,
                &mut dkv,
                j,
                start,
                &mut LocalAttn,
            )
            .expect("local attention cannot fail");
            times[n + j] = t0.elapsed().as_secs_f64();
            dx.recycle();
        }
        times
    });
    LayerPass {
        slices,
        fwd_s: times[..n].to_vec(),
        bwd_s: times[n..].to_vec(),
    }
}

/// `planner.calibrate.layer_err`: mean relative distance between the
/// profile's `c0 + ct·t + cp·pairs` and the measured per-slice times.
pub fn layer_err(profile: &CostProfile, pass: &LayerPass) -> f64 {
    let mut errs = Vec::new();
    for (j, &(start, len)) in pass.slices.iter().enumerate() {
        let (t, pairs) = (len as f64, causal_pairs(start, len));
        let fwd = (profile.f0 + profile.ft * t + profile.fp * pairs) * 1e-9;
        let bwd = (profile.b0 + profile.bt * t + profile.bp * pairs) * 1e-9;
        errs.push((fwd - pass.fwd_s[j]).abs() / pass.fwd_s[j]);
        errs.push((bwd - pass.bwd_s[j]).abs() / pass.bwd_s[j]);
    }
    errs.iter().sum::<f64>() / errs.len() as f64
}

/// `exec.stage.build_s`: `Stage::build(cfg, 0)` (weight init + pack).
pub fn stage_build_s(sp: &mut Spans, cfg: &ExecConfig) -> f64 {
    repeat_call(sp, "exec.stage.build", || Stage::build(cfg, 0))
}

/// `exec.stage.iter_s`: one thread drives stage 0's whole iteration —
/// `Stage::forward` / `backward` in schedule order, then `sgd_step` — with
/// `LocalAttn` and seeded downstream gradients, so nothing waits on a peer.
pub fn stage_iter_s(sp: &mut Spans, cfg: &ExecConfig, kind: PipelineKind) -> f64 {
    let sched = build_schedule(kind, cfg);
    let data = make_data(cfg);
    let map = cfg.slice_map();
    let h = cfg.hidden();
    let mut stage = Stage::build(cfg, 0);
    repeat(sp, "exec.stage.iter", || {
        // Inputs first, so only stage work is on the clock.
        let mut inputs: Vec<_> = sched.ops[0]
            .iter()
            .map(|op| {
                let r = map[op.mb as usize][op.slice as usize].clone();
                match op.kind {
                    PassKind::Forward => Err(data[op.mb as usize].0[r].to_vec()),
                    _ => Ok(seeded_uniform(r.len(), h, 500 + u64::from(op.slice))),
                }
            })
            .collect();
        let t0 = Instant::now();
        for (op, input) in sched.ops[0].iter().zip(inputs.drain(..)) {
            match input {
                Err(tokens) => {
                    let out = stage
                        .forward(op.mb, op.slice, Err(tokens), None, &mut LocalAttn, None)
                        .expect("local attention cannot fail");
                    if let StageOutput::Activation(y) = out {
                        y.recycle();
                    }
                }
                Ok(d_y) => {
                    let up = stage
                        .backward(op.mb, op.slice, Some(d_y), None, &mut LocalAttn, None)
                        .expect("local attention cannot fail");
                    assert!(up.is_none(), "stage 0 ends the backward");
                }
            }
        }
        stage.sgd_step(crate::workloads::LR);
        vec![t0.elapsed().as_secs_f64()]
    })[0]
}

pub struct CheckpointProbe {
    pub save_s: f64,
    pub load_s: f64,
    pub regroup_s: f64,
    pub bytes: u64,
}

/// `exec.checkpoint.*`: capture the freshly built model, save it, load it
/// back, and regroup it onto one stage. `path` must be in an existing
/// directory; the file is removed afterwards.
pub fn checkpoint(sp: &mut Spans, cfg: &ExecConfig, path: &Path) -> CheckpointProbe {
    let stages: Vec<Stage> = (0..cfg.stages).map(|d| Stage::build(cfg, d)).collect();
    let shards = cfg.vocab_parallel.then(|| build_vocab_shards(cfg));
    let state = CheckpointState::capture(0, &stages, shards.as_deref());
    drop((stages, shards));
    let save_s = repeat_call(sp, "exec.checkpoint.save", || {
        state.save(path, cfg).expect("save")
    });
    let bytes = std::fs::metadata(path).expect("saved checkpoint").len();
    let load_s = repeat_call(sp, "exec.checkpoint.load", || {
        CheckpointState::load(path, cfg).expect("load")
    });
    let one = ExecConfig {
        stages: 1,
        ..cfg.clone()
    };
    let regroup_s = repeat_call(sp, "exec.checkpoint.regroup", || {
        state.regroup(&one).expect("regroup")
    });
    let _ = std::fs::remove_file(path);
    CheckpointProbe {
        save_s,
        load_s,
        regroup_s,
        bytes,
    }
}

/// `planner.search.{plan,replan}_s`.
pub fn planner_search_s(sp: &mut Spans, cfg: &ExecConfig, profile: &CostProfile) -> (f64, f64) {
    let plan_s = repeat_call(sp, "planner.search.plan", || {
        slimpipe_planner::plan(cfg, profile, &slimpipe_planner::PlanOpts::default()).expect("plan")
    });
    let replan_s = repeat_call(sp, "planner.search.replan", || {
        slimpipe_planner::replan_for_stages(cfg, profile, 1, None).expect("replan onto one stage")
    });
    (plan_s, replan_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_flops_add_up_to_the_executor_count() {
        let cfg = ExecConfig {
            seq: 128,
            ..ExecConfig::small()
        };
        let head = 6.0 * cfg.total_tokens() as f64 * (cfg.hidden() * cfg.vocab) as f64;
        let layers = (cfg.layers * cfg.microbatches) as f64 * layer_flops(&cfg, cfg.seq);
        let want = slimpipe_exec::approx_flops_per_iteration(&cfg);
        assert!(((layers + head) / want - 1.0).abs() < 1e-12);
    }
}
