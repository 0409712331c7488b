//! Per-device pipeline stage: local layers, activation stash, chunked KV
//! caches, deferred dK/dV accumulators, and (on the edges) the embedding
//! and the loss head.
//!
//! Every stash insertion/removal is mirrored into a byte-exact
//! [`MemCounter`], so a pipeline run reports true per-device peak
//! activation bytes — the executor-side analogue of the paper's Figure 10
//! measurement.

use crate::comm::VocabParallel;
use crate::fault::ExecError;
use crate::layer::{
    layer_backward, layer_forward, AttnExecutor, DkvAccum, KvCache, LayerGrads, LayerParams,
    SliceCache,
};
use crate::model::ExecConfig;
use slimpipe_core::Slicing;
use slimpipe_tensor::crossentropy;
use slimpipe_tensor::matmul::{matmul_fused, matmul_tn_acc};
use slimpipe_tensor::{
    embedding, pool, rmsnorm, Epilogue, MemCounter, PackedWeight, Prologue, Tensor,
};
use std::collections::HashMap;

/// Loss-head stash for one in-flight unit on the last stage.
enum HeadCache {
    /// Classic placement: the fp32 `d_logits` (same size as the logits the
    /// paper says dominate the last device, §3/§4.3) is stored until the
    /// unit's backward.
    Classic { hidden_in: Tensor, d_logits: Tensor },
    /// Vocabulary-parallel: only the pre-norm hidden and scalar statistics
    /// stay resident; logits are recomputed shard-locally in backward.
    VocabParallel { hidden_in: Tensor, lse: Vec<f32> },
}

impl HeadCache {
    fn bytes(&self) -> u64 {
        match self {
            HeadCache::Classic { hidden_in, d_logits } => {
                hidden_in.bytes() + d_logits.bytes()
            }
            HeadCache::VocabParallel { hidden_in, lse } => {
                hidden_in.bytes() + (lse.len() * 4) as u64
            }
        }
    }
}

/// What a forward op produces.
pub enum StageOutput {
    /// Boundary activation to ship downstream.
    Activation(Tensor),
    /// This unit's summed loss (last stage).
    Loss(f64),
}

/// One pipeline device's full state.
pub struct Stage {
    pub cfg: ExecConfig,
    /// Per-microbatch slice partitions — the `(mb, slice) → token range`
    /// source of truth this stage indexes KV caches, stashes, and dK/dV
    /// accumulators by (precomputed once; ragged microbatches differ).
    slicings: Vec<Slicing>,
    pub device: usize,
    pub layers: Vec<LayerParams>,
    pub grads: Vec<LayerGrads>,
    /// Embedding table + gradient (stage 0 only).
    pub embed: Option<(Tensor, Tensor)>,
    /// Final-norm gain + gradient (last stage only).
    pub final_norm: Option<(Vec<f32>, Vec<f32>)>,
    /// Full output projection (packed once) + gradient (last stage,
    /// classic mode only).
    pub out_proj: Option<(PackedWeight, Tensor)>,
    /// Per-(mb, slice): token ids (stage 0, for embedding backward).
    tokens: HashMap<(u32, u32), Vec<u32>>,
    /// Per-(mb, slice): per-layer stashes.
    stash: HashMap<(u32, u32), Vec<SliceCache>>,
    /// Per-mb: per-layer chunked KV caches.
    kv: HashMap<u32, Vec<KvCache>>,
    /// Per-mb: per-layer dK/dV accumulators.
    dkv: HashMap<u32, Vec<DkvAccum>>,
    head_stash: HashMap<(u32, u32), HeadCache>,
    /// Byte-exact activation accounting.
    pub mem: MemCounter,
}

impl Stage {
    /// Build stage `device` of `p` with deterministic parameters.
    pub fn build(cfg: &ExecConfig, device: usize) -> Self {
        let lps = cfg.layers_per_stage();
        let first = device * lps;
        let layers: Vec<LayerParams> =
            (first..first + lps).map(|l| LayerParams::build(cfg, l)).collect();
        let grads = (0..lps).map(|_| LayerGrads::zeros(cfg)).collect();
        let is_first = device == 0;
        let is_last = device == cfg.stages - 1;
        Self {
            cfg: cfg.clone(),
            slicings: cfg.slicings(),
            device,
            layers,
            grads,
            embed: is_first.then(|| {
                let t = cfg.build_embedding();
                let g = Tensor::zeros(cfg.vocab, cfg.hidden());
                (t, g)
            }),
            final_norm: is_last.then(|| (cfg.build_final_norm(), vec![0.0; cfg.hidden()])),
            out_proj: (is_last && !cfg.vocab_parallel).then(|| {
                let w = PackedWeight::new(cfg.build_output());
                let g = Tensor::zeros(cfg.hidden(), cfg.vocab);
                (w, g)
            }),
            tokens: HashMap::new(),
            stash: HashMap::new(),
            kv: HashMap::new(),
            dkv: HashMap::new(),
            head_stash: HashMap::new(),
            mem: MemCounter::new(),
        }
    }

    fn is_first(&self) -> bool {
        self.device == 0
    }

    fn is_last(&self) -> bool {
        self.device == self.cfg.stages - 1
    }

    /// Loss normaliser: mean over every token of the iteration (ragged
    /// microbatches contribute their actual lengths).
    fn loss_scale(&self) -> f32 {
        1.0 / self.cfg.total_tokens() as f32
    }

    /// Global token offset of `(mb, slice)` within its microbatch.
    fn q_offset(&self, mb: u32, slice: u32) -> usize {
        self.slicings[mb as usize].bounds[slice as usize] as usize
    }

    /// Forward one unit. Stage 0 takes `input` as token ids (embedded
    /// here); later stages take the upstream activation. The last stage
    /// needs `targets` for this slice and, in vocabulary-parallel mode, the
    /// cooperative loss helper.
    pub fn forward(
        &mut self,
        mb: u32,
        slice: u32,
        input: Result<Tensor, Vec<u32>>,
        targets: Option<&[u32]>,
        attn: &mut dyn AttnExecutor,
        vp: Option<&VocabParallel<'_>>,
    ) -> Result<StageOutput, ExecError> {
        let x = match input {
            Ok(act) => act,
            Err(toks) => {
                let (table, _) = self.embed.as_ref().expect("tokens only enter stage 0");
                let x = embedding::forward(table, &toks);
                self.tokens.insert((mb, slice), toks);
                x
            }
        };
        let q_offset = self.q_offset(mb, slice);
        let kv = self
            .kv
            .entry(mb)
            .or_insert_with(|| (0..self.layers.len()).map(|_| KvCache::default()).collect());
        let hc = self.cfg.head_cfg();
        let kv_before: u64 = kv.iter().map(|c| c.bytes()).sum();
        let mut cur = x;
        let mut caches = Vec::with_capacity(self.layers.len());
        for (li, layer) in self.layers.iter().enumerate() {
            let (y, cache) =
                layer_forward(layer, hc, cur, &mut kv[li], slice as usize, q_offset, attn)?;
            cur = y;
            caches.push(cache);
        }
        let kv_after: u64 = kv.iter().map(|c| c.bytes()).sum();
        let stash_bytes: u64 = caches.iter().map(|c| c.bytes()).sum();
        self.mem.alloc(stash_bytes + (kv_after - kv_before));
        self.stash.insert((mb, slice), caches);

        if !self.is_last() {
            return Ok(StageOutput::Activation(cur));
        }
        // ---- loss head ----
        let targets = targets.expect("last stage needs targets");
        let (norm_gain, _) = self.final_norm.as_ref().expect("last stage has final norm");
        let (loss, head_cache) = if let Some(vp) = vp {
            // Vocabulary-parallel: the normed hidden ships to the shard
            // servers, so it must be materialised here.
            let normed = rmsnorm::forward(&cur, norm_gain);
            let r = vp.loss_forward(&normed, targets);
            normed.recycle();
            let (loss, lse) = r?;
            (loss, HeadCache::VocabParallel { hidden_in: cur, lse })
        } else {
            // Classic: the final norm rides the logits GEMM's pack.
            let (w, _) = self.out_proj.as_ref().expect("classic head has out_proj");
            let inv = rmsnorm::inv_rms(&cur);
            let logits = matmul_fused(
                &cur,
                w.nn(),
                Prologue::NormRows { inv: &inv, gain: norm_gain },
                Epilogue::None,
            );
            pool::recycle(inv);
            let (loss, mut d_logits) = crossentropy::forward_backward(&logits, targets);
            logits.recycle();
            d_logits.scale(self.loss_scale());
            (loss, HeadCache::Classic { hidden_in: cur, d_logits })
        };
        self.mem.alloc(head_cache.bytes());
        self.head_stash.insert((mb, slice), head_cache);
        Ok(StageOutput::Loss(loss * self.loss_scale() as f64))
    }

    /// Backward one unit. The last stage generates its own `d_y` from the
    /// head; others receive it from downstream. Returns the gradient to
    /// ship upstream (`None` from stage 0, which scatters into the
    /// embedding gradient instead).
    pub fn backward(
        &mut self,
        mb: u32,
        slice: u32,
        d_from_downstream: Option<Tensor>,
        targets: Option<&[u32]>,
        attn: &mut dyn AttnExecutor,
        vp: Option<&VocabParallel<'_>>,
    ) -> Result<Option<Tensor>, ExecError> {
        let mut d_y = if self.is_last() {
            let head = self.head_stash.remove(&(mb, slice)).expect("head stash missing");
            self.mem.free(head.bytes());
            let (norm_gain, norm_grad) =
                self.final_norm.as_mut().expect("last stage has final norm");
            let (hidden_in, d_normed) = match head {
                HeadCache::Classic { hidden_in, d_logits } => {
                    let (w, wg) = self.out_proj.as_mut().expect("classic head");
                    // normed recomputes inside the dW pack prologue.
                    let inv = rmsnorm::inv_rms(&hidden_in);
                    matmul_tn_acc(
                        wg,
                        &hidden_in,
                        &d_logits,
                        Prologue::NormCols { inv: &inv, gain: norm_gain },
                    );
                    pool::recycle(inv);
                    let d_normed = matmul_fused(&d_logits, w.nt(), Prologue::None, Epilogue::None);
                    d_logits.recycle();
                    (hidden_in, d_normed)
                }
                HeadCache::VocabParallel { hidden_in, lse } => {
                    let vp = vp.expect("vp helper required in vocab-parallel mode");
                    let normed = rmsnorm::forward(&hidden_in, norm_gain);
                    let targets = targets.expect("last stage needs targets");
                    let scale = 1.0 / self.cfg.total_tokens() as f32;
                    let r = vp.loss_backward(&normed, targets, &lse, scale);
                    normed.recycle();
                    (hidden_in, r?)
                }
            };
            let (d_hidden, d_gain) = rmsnorm::backward(&hidden_in, norm_gain, &d_normed);
            d_normed.recycle();
            hidden_in.recycle();
            for (a, b) in norm_grad.iter_mut().zip(&d_gain) {
                *a += b;
            }
            pool::recycle(d_gain);
            d_hidden
        } else {
            d_from_downstream.expect("non-last stage needs downstream gradient")
        };

        let mut caches = self.stash.remove(&(mb, slice)).expect("forward stash missing");
        self.mem.free(caches.iter().map(|c| c.bytes()).sum());
        let hc = self.cfg.head_cfg();
        let q_offset = self.q_offset(mb, slice);
        let kv = self.kv.get_mut(&mb).expect("kv cache missing");
        let dkv = self
            .dkv
            .entry(mb)
            .or_insert_with(|| (0..self.layers.len()).map(|_| DkvAccum::default()).collect());
        for li in (0..self.layers.len()).rev() {
            let cache = caches.pop().expect("one stash per layer");
            let kv_before = kv[li].bytes() + dkv[li].bytes();
            d_y = layer_backward(
                &self.layers[li],
                &mut self.grads[li],
                hc,
                cache,
                d_y,
                &mut kv[li],
                &mut dkv[li],
                slice as usize,
                q_offset,
                attn,
            )?;
            let kv_after = kv[li].bytes() + dkv[li].bytes();
            // KV chunks freed minus dK/dV deposited for earlier chunks.
            if kv_after > kv_before {
                self.mem.alloc(kv_after - kv_before);
            } else {
                self.mem.free(kv_before - kv_after);
            }
        }
        if self.is_first() {
            let toks = self.tokens.remove(&(mb, slice)).expect("tokens missing");
            let (_, table_grad) = self.embed.as_mut().expect("stage 0 owns the embedding");
            embedding::backward(&toks, &d_y, table_grad);
            d_y.recycle();
            Ok(None)
        } else {
            Ok(Some(d_y))
        }
    }

    /// Apply one SGD step on everything this stage owns and clear grads
    /// (in place — the optimizer allocates nothing in steady state).
    pub fn sgd_step(&mut self, lr: f32) {
        for (layer, g) in self.layers.iter_mut().zip(&self.grads) {
            layer.sgd_step(g, lr);
        }
        for g in &mut self.grads {
            g.reset();
        }
        if let Some((t, g)) = &mut self.embed {
            t.axpy(-lr, g);
            g.fill(0.0);
        }
        if let Some((w, g)) = &mut self.out_proj {
            // In-place update of the tensor and both packed forms.
            w.axpy(-lr, g);
            g.fill(0.0);
        }
        if let Some((gain, g)) = &mut self.final_norm {
            for (p, d) in gain.iter_mut().zip(g.iter()) {
                *p -= lr * d;
            }
            for d in g.iter_mut() {
                *d = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LocalAttn;
    use slimpipe_tensor::init::seeded_tokens;

    fn single_stage_cfg() -> ExecConfig {
        ExecConfig {
            stages: 1,
            slices: 1,
            microbatches: 1,
            ..ExecConfig::small()
        }
    }

    #[test]
    fn single_stage_forward_backward_runs_and_frees_memory() {
        let cfg = single_stage_cfg();
        let mut st = Stage::build(&cfg, 0);
        let toks = seeded_tokens(cfg.seq, cfg.vocab, 1);
        let targets = seeded_tokens(cfg.seq, cfg.vocab, 2);
        let out = st.forward(0, 0, Err(toks), Some(&targets), &mut LocalAttn, None).unwrap();
        let StageOutput::Loss(loss) = out else { panic!("expected loss") };
        assert!(loss.is_finite() && loss > 0.0);
        assert!(st.mem.current() > 0, "stash should be resident");
        let up = st.backward(0, 0, None, Some(&targets), &mut LocalAttn, None).unwrap();
        assert!(up.is_none(), "stage 0 ends the backward");
        assert_eq!(st.mem.current(), 0, "all stashes freed after backward");
        // Gradients are non-zero.
        assert!(st.grads[0].wq.sq_norm() > 0.0);
        assert!(st.embed.as_ref().unwrap().1.sq_norm() > 0.0);
    }

    #[test]
    fn losses_decrease_under_sgd() {
        let cfg = single_stage_cfg();
        let mut st = Stage::build(&cfg, 0);
        let toks = seeded_tokens(cfg.seq, cfg.vocab, 1);
        let targets = seeded_tokens(cfg.seq, cfg.vocab, 2);
        let mut losses = Vec::new();
        for _ in 0..5 {
            let StageOutput::Loss(l) = st
                .forward(0, 0, Err(toks.clone()), Some(&targets), &mut LocalAttn, None)
                .unwrap()
            else {
                panic!()
            };
            st.backward(0, 0, None, Some(&targets), &mut LocalAttn, None).unwrap();
            st.sgd_step(0.5);
            losses.push(l);
        }
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "training should reduce loss: {losses:?}"
        );
    }

    #[test]
    fn classic_head_stash_is_vocab_sized() {
        // The §4.3 memory story, measured: classic keeps an l×V fp32
        // tensor per in-flight unit; the hidden is only l×h.
        let cfg = single_stage_cfg();
        let mut st = Stage::build(&cfg, 0);
        let toks = seeded_tokens(cfg.seq, cfg.vocab, 1);
        let targets = seeded_tokens(cfg.seq, cfg.vocab, 2);
        st.forward(0, 0, Err(toks), Some(&targets), &mut LocalAttn, None).unwrap();
        let head_bytes = st.head_stash.values().map(|h| h.bytes()).sum::<u64>();
        let logits_bytes = (cfg.seq * cfg.vocab * 4) as u64;
        assert!(head_bytes >= logits_bytes, "classic head must hold the logits");
    }
}
