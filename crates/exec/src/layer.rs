//! One transformer layer with a chunked KV cache and slice-wise
//! forward/backward.
//!
//! The forward of slice `j` appends its keys/values as chunk `j` of the
//! layer's KV cache (§5 *Chunked KV Cache*: "we store them in slice-sized
//! chunks") and attends chunks `0..=j` by online softmax. Chunks are
//! token *ranges*, not fixed-length blocks: every entry point takes the
//! slice's global `q_offset` and the cache records each chunk's own
//! offset (both derived from the stage's per-microbatch `Slicing`
//! bounds), so non-uniform and ragged partitions run through the same
//! code path as uniform slicing. The backward of
//! slice `j` produces `dK/dV` contributions for every chunk `c ≤ j`; the
//! contributions for `c < j` are parked in a [`DkvAccum`] until the LIFO
//! order reaches slice `c`, whose own backward drains the accumulator into
//! its QKV-projection backward and releases both the KV chunk and the
//! accumulator slot.
//!
//! RMSNorm outputs and the SwiGLU product are recomputed in the backward
//! pass (the paper's §5 activation savings) — the stash holds exactly the
//! components `slimpipe_model`'s `ActBreakdown` documents.
//!
//! Steady-state compute path: every weight is a [`PackedWeight`] — packed
//! once at build into the GEMM's panel layout for both orientations and
//! kept in sync by in-place optimizer updates, so none of the `S × M`
//! slice GEMMs of a training step re-packs anything
//! (`slimpipe_tensor::matmul::gemm_packs_per_step` reads zero). The
//! RMSNorm scaling, the SwiGLU product, and the residual adds are fused
//! into the GEMMs as pack prologues / writeback epilogues with *exactly*
//! the standalone kernels' elementwise arithmetic, so the fused layer is
//! bit-identical to the separate-pass composition (property-tested in
//! `tests/conformance.rs` and the tensor crate).
//!
//! Buffer discipline: the forward takes its input *by value* and stashes it
//! (no clones anywhere on the residual stream), the backward consumes its
//! upstream gradient and the slice stash, and every transient — recomputed
//! norms, SwiGLU products, per-chunk `dK`/`dV`, drained accumulator slots,
//! released KV chunks — is returned to the `slimpipe_tensor::pool`. After
//! one warm-up iteration a training step performs zero kernel-path heap
//! allocations (asserted in `tests/pool_steady_state.rs`).
//!
//! Determinism of the dKV accumulation path: the kernels below
//! `attn_backward` produce per-chunk `dK`/`dV` whose bits do not depend on
//! the worker-pool thread count (fixed-order partial reduction inside
//! `backward_chunk`), and everything *above* the kernels — the [`DkvAccum`]
//! slot folds, the diagonal-chunk combination, the `add_assign` of `dQ`
//! across chunks — runs on the stage thread in schedule order (LIFO over
//! slices, ascending over chunks). A layer backward is therefore
//! bit-identical for every `RAYON_NUM_THREADS`, which is what the
//! executor-level determinism claims in `tests/conformance.rs` rest on.

use crate::fault::ExecError;
use crate::model::ExecConfig;
use slimpipe_tensor::attention::{AttnPartial, HeadCfg};
use slimpipe_tensor::init::seeded_xavier;
use slimpipe_tensor::matmul::{matmul_fused, matmul_fused_acc, matmul_tn_acc};
use slimpipe_tensor::{attention, pool, rmsnorm, swiglu, Epilogue, PackedWeight, Prologue, Tensor};

/// Weights of one layer, each packed once for both GEMM orientations.
#[derive(Clone, Debug)]
pub struct LayerParams {
    pub wq: PackedWeight,
    pub wk: PackedWeight,
    pub wv: PackedWeight,
    pub wo: PackedWeight,
    pub w_gate: PackedWeight,
    pub w_up: PackedWeight,
    pub w_down: PackedWeight,
    pub norm1: Vec<f32>,
    pub norm2: Vec<f32>,
}

impl LayerParams {
    /// Deterministic build of global layer `layer` (packs every weight —
    /// the only pack site in a training run).
    pub fn build(cfg: &ExecConfig, layer: usize) -> Self {
        let (h, hkv, f) = (cfg.hidden(), cfg.kv_hidden(), cfg.ffn);
        let s = |w: u64| cfg.param_seed(layer, w);
        Self {
            wq: PackedWeight::new(seeded_xavier(h, h, s(1))),
            wk: PackedWeight::new(seeded_xavier(h, hkv, s(2))),
            wv: PackedWeight::new(seeded_xavier(h, hkv, s(3))),
            wo: PackedWeight::new(seeded_xavier(h, h, s(4))),
            w_gate: PackedWeight::new(seeded_xavier(h, f, s(5))),
            w_up: PackedWeight::new(seeded_xavier(h, f, s(6))),
            w_down: PackedWeight::new(seeded_xavier(f, h, s(7))),
            norm1: vec![1.0; h],
            norm2: vec![1.0; h],
        }
    }

    /// Apply one SGD step and clear nothing (caller owns grads). Updates
    /// land in the packed forms in place — no re-packing.
    pub fn sgd_step(&mut self, g: &LayerGrads, lr: f32) {
        self.wq.axpy(-lr, &g.wq);
        self.wk.axpy(-lr, &g.wk);
        self.wv.axpy(-lr, &g.wv);
        self.wo.axpy(-lr, &g.wo);
        self.w_gate.axpy(-lr, &g.w_gate);
        self.w_up.axpy(-lr, &g.w_up);
        self.w_down.axpy(-lr, &g.w_down);
        for (p, d) in self.norm1.iter_mut().zip(&g.norm1) {
            *p -= lr * d;
        }
        for (p, d) in self.norm2.iter_mut().zip(&g.norm2) {
            *p -= lr * d;
        }
    }
}

/// Gradient accumulators matching [`LayerParams`].
#[derive(Clone, Debug)]
pub struct LayerGrads {
    pub wq: Tensor,
    pub wk: Tensor,
    pub wv: Tensor,
    pub wo: Tensor,
    pub w_gate: Tensor,
    pub w_up: Tensor,
    pub w_down: Tensor,
    pub norm1: Vec<f32>,
    pub norm2: Vec<f32>,
}

impl LayerGrads {
    pub fn zeros(cfg: &ExecConfig) -> Self {
        let (h, hkv, f) = (cfg.hidden(), cfg.kv_hidden(), cfg.ffn);
        Self {
            wq: Tensor::zeros(h, h),
            wk: Tensor::zeros(h, hkv),
            wv: Tensor::zeros(h, hkv),
            wo: Tensor::zeros(h, h),
            w_gate: Tensor::zeros(h, f),
            w_up: Tensor::zeros(h, f),
            w_down: Tensor::zeros(f, h),
            norm1: vec![0.0; h],
            norm2: vec![0.0; h],
        }
    }

    /// Zero every accumulator in place — no reallocation, so the optimizer
    /// step stays off the allocator in steady state. `fill`, not
    /// `scale(0.0)`: a NaN/Inf that entered an accumulator must not
    /// survive the reset.
    pub fn reset(&mut self) {
        self.wq.fill(0.0);
        self.wk.fill(0.0);
        self.wv.fill(0.0);
        self.wo.fill(0.0);
        self.w_gate.fill(0.0);
        self.w_up.fill(0.0);
        self.w_down.fill(0.0);
        self.norm1.fill(0.0);
        self.norm2.fill(0.0);
    }

    /// Flat view for fingerprinting / comparisons.
    pub fn tensors(&self) -> Vec<(&'static str, &Tensor)> {
        vec![
            ("wq", &self.wq),
            ("wk", &self.wk),
            ("wv", &self.wv),
            ("wo", &self.wo),
            ("w_gate", &self.w_gate),
            ("w_up", &self.w_up),
            ("w_down", &self.w_down),
        ]
    }
}

/// Chunked KV cache of one layer for one microbatch.
#[derive(Default)]
pub struct KvCache {
    /// `chunks[c] = Some((k, v))` while slice `c` is in flight.
    pub chunks: Vec<Option<(Tensor, Tensor)>>,
    /// Global token offset of each chunk.
    pub offsets: Vec<usize>,
}

impl KvCache {
    /// Append slice `j`'s chunk (must arrive in order).
    pub fn push(&mut self, k: Tensor, v: Tensor, offset: usize) {
        self.offsets.push(offset);
        self.chunks.push(Some((k, v)));
    }

    /// Bytes resident.
    pub fn bytes(&self) -> u64 {
        self.chunks
            .iter()
            .flatten()
            .map(|(k, v)| k.bytes() + v.bytes())
            .sum()
    }

    /// Release chunk `c` (after slice `c`'s backward), returning its
    /// buffers to the pool. Returns freed bytes. Once every chunk is gone
    /// the cache resets so the next microbatch reuses the slots — §5:
    /// "These chunks will be precisely reused between two adjacent
    /// microbatches in the pipeline."
    pub fn release(&mut self, c: usize) -> u64 {
        let freed = match self.chunks[c].take() {
            Some((k, v)) => {
                let b = k.bytes() + v.bytes();
                k.recycle();
                v.recycle();
                b
            }
            None => 0,
        };
        if self.chunks.iter().all(Option::is_none) {
            self.chunks.clear();
            self.offsets.clear();
        }
        freed
    }

    /// Visible chunks for a query at slice `j` (chunks `0..=j`).
    pub fn visible(&self, j: usize) -> (Vec<(&Tensor, &Tensor)>, Vec<usize>) {
        let mut ch = Vec::with_capacity(j + 1);
        let mut off = Vec::with_capacity(j + 1);
        for c in 0..=j {
            let (k, v) = self.chunks[c]
                .as_ref()
                .expect("KV chunk released before its last reader");
            ch.push((k, v));
            off.push(self.offsets[c]);
        }
        (ch, off)
    }
}

/// Deferred dK/dV contributions per chunk (from later slices' backwards).
#[derive(Default)]
pub struct DkvAccum {
    pub slots: Vec<Option<(Tensor, Tensor)>>,
}

impl DkvAccum {
    pub fn ensure(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize_with(n, || None);
        }
    }

    /// Fold a later slice's contribution into chunk `c`'s slot, consuming
    /// the incoming tensors (recycled when the slot already exists).
    pub fn add(&mut self, c: usize, dk: Tensor, dv: Tensor) {
        match &mut self.slots[c] {
            Some((ak, av)) => {
                ak.add_assign_recycle(dk);
                av.add_assign_recycle(dv);
            }
            slot @ None => *slot = Some((dk, dv)),
        }
    }

    /// Drain chunk `c`'s accumulated gradients (may be absent when no later
    /// slice existed).
    pub fn take(&mut self, c: usize) -> Option<(Tensor, Tensor)> {
        self.slots[c].take()
    }

    pub fn bytes(&self) -> u64 {
        self.slots
            .iter()
            .flatten()
            .map(|(k, v)| k.bytes() + v.bytes())
            .sum()
    }
}

/// Stash of one slice's forward pass through one layer.
pub struct SliceCache {
    pub x_in: Tensor,
    pub q: Tensor,
    pub attn_out: Tensor,
    pub lse: Vec<f32>,
    pub resid_mid: Tensor,
    pub gate: Tensor,
    pub up: Tensor,
}

impl SliceCache {
    pub fn bytes(&self) -> u64 {
        self.x_in.bytes()
            + self.q.bytes()
            + self.attn_out.bytes()
            + (self.lse.len() * 4) as u64
            + self.resid_mid.bytes()
            + self.gate.bytes()
            + self.up.bytes()
    }

    /// Return every stashed buffer to the pool (after the backward consumed
    /// the stash).
    pub fn recycle(self) {
        self.x_in.recycle();
        self.q.recycle();
        self.attn_out.recycle();
        pool::recycle(self.lse);
        self.resid_mid.recycle();
        self.gate.recycle();
        self.up.recycle();
    }
}

/// How attention chunk work is executed (locally, or partly shipped to
/// other devices by context exchange). The closure receives the chunk task
/// list and must return the merged partial — see `crate::comm`. Fallible:
/// the exchange runtime can fail a rendezvous (dead server, exhausted
/// retries) and reports it as a structured [`ExecError`] instead of
/// panicking, so a lost device drains the pipeline rather than aborting
/// the process.
pub trait AttnExecutor {
    /// Forward: attention of `q` against visible chunks; returns merged
    /// output + lse.
    fn attn_forward(
        &mut self,
        q: &Tensor,
        chunks: &[(&Tensor, &Tensor)],
        offsets: &[usize],
        cfg: HeadCfg,
        q_offset: usize,
    ) -> Result<AttnPartial, ExecError>;

    /// Backward: per-chunk dK/dV plus the summed dQ.
    #[allow(clippy::too_many_arguments)]
    fn attn_backward(
        &mut self,
        q: &Tensor,
        chunks: &[(&Tensor, &Tensor)],
        offsets: &[usize],
        d_o: &Tensor,
        o: &Tensor,
        lse: &[f32],
        cfg: HeadCfg,
        q_offset: usize,
    ) -> Result<(Tensor, Vec<(Tensor, Tensor)>), ExecError>;
}

/// Purely local execution (infallible — errors only arise from exchange).
pub struct LocalAttn;

impl AttnExecutor for LocalAttn {
    fn attn_forward(
        &mut self,
        q: &Tensor,
        chunks: &[(&Tensor, &Tensor)],
        offsets: &[usize],
        cfg: HeadCfg,
        q_offset: usize,
    ) -> Result<AttnPartial, ExecError> {
        Ok(attention::forward_chunked(q, chunks, offsets, cfg, q_offset))
    }

    fn attn_backward(
        &mut self,
        q: &Tensor,
        chunks: &[(&Tensor, &Tensor)],
        offsets: &[usize],
        d_o: &Tensor,
        o: &Tensor,
        lse: &[f32],
        cfg: HeadCfg,
        q_offset: usize,
    ) -> Result<(Tensor, Vec<(Tensor, Tensor)>), ExecError> {
        Ok(attention::backward_chunked(q, chunks, offsets, d_o, o, lse, cfg, q_offset))
    }
}

/// Forward one slice through one layer. Consumes `x` (it becomes the
/// stash's residual input), appends to `kv`, and returns `(output, stash)`.
///
/// Fully fused: the RMSNorm scalings ride the QKV / gate / up GEMM packs
/// (only the per-row inverse RMS is computed separately, once), the SwiGLU
/// product rides the down-projection pack, and both residual adds are GEMM
/// epilogues — no normalised, activated, or summed tensor is ever
/// materialised.
pub fn layer_forward(
    p: &LayerParams,
    cfg: HeadCfg,
    x: Tensor,
    kv: &mut KvCache,
    slice: usize,
    q_offset: usize,
    attn: &mut dyn AttnExecutor,
) -> Result<(Tensor, SliceCache), ExecError> {
    let inv1 = rmsnorm::inv_rms(&x);
    let pro1 = Prologue::NormRows { inv: &inv1, gain: &p.norm1 };
    let q = matmul_fused(&x, p.wq.nn(), pro1, Epilogue::None);
    let k = matmul_fused(&x, p.wk.nn(), pro1, Epilogue::None);
    let v = matmul_fused(&x, p.wv.nn(), pro1, Epilogue::None);
    pool::recycle(inv1);
    kv.push(k, v, q_offset);
    let part = {
        let (chunks, offsets) = kv.visible(slice);
        attn.attn_forward(&q, &chunks, &offsets, cfg, q_offset)?
    };
    // resid_mid = x + attn_proj, the add fused into the projection's
    // writeback.
    let resid_mid = matmul_fused(&part.o, p.wo.nn(), Prologue::None, Epilogue::Add(&x));
    let inv2 = rmsnorm::inv_rms(&resid_mid);
    let pro2 = Prologue::NormRows { inv: &inv2, gain: &p.norm2 };
    let gate = matmul_fused(&resid_mid, p.w_gate.nn(), pro2, Epilogue::None);
    let up = matmul_fused(&resid_mid, p.w_up.nn(), pro2, Epilogue::None);
    pool::recycle(inv2);
    // y = silu(gate)∘up · W_down + resid_mid: the SwiGLU product is the
    // down-projection's pack prologue, the residual its epilogue.
    let y = matmul_fused(
        &gate,
        p.w_down.nn(),
        Prologue::SwigluRows { up: &up },
        Epilogue::Add(&resid_mid),
    );
    let cache = SliceCache {
        x_in: x,
        q,
        attn_out: part.o,
        lse: part.lse,
        resid_mid,
        gate,
        up,
    };
    Ok((y, cache))
}

/// Backward one slice through one layer (must run in LIFO slice order).
/// Consumes the upstream gradient and the slice stash; returns `d_x`.
#[allow(clippy::too_many_arguments)]
pub fn layer_backward(
    p: &LayerParams,
    g: &mut LayerGrads,
    cfg: HeadCfg,
    cache: SliceCache,
    d_y: Tensor,
    kv: &mut KvCache,
    dkv: &mut DkvAccum,
    slice: usize,
    q_offset: usize,
    attn: &mut dyn AttnExecutor,
) -> Result<Tensor, ExecError> {
    dkv.ensure(slice + 1);
    // ---- MLP path (normed2 and the SwiGLU product are recomputed inside
    // the GEMM packs; `d_gate`/`d_up` are computed once and feed four GEMMs) ----
    let inv2 = rmsnorm::inv_rms(&cache.resid_mid);
    matmul_tn_acc(&mut g.w_down, &cache.gate, &d_y, Prologue::SwigluCols { up: &cache.up });
    let d_act = matmul_fused(&d_y, p.w_down.nt(), Prologue::None, Epilogue::None);
    let (d_gate, d_up) = swiglu::backward(&cache.gate, &cache.up, &d_act);
    d_act.recycle();
    let pro_n2 = Prologue::NormCols { inv: &inv2, gain: &p.norm2 };
    matmul_tn_acc(&mut g.w_gate, &cache.resid_mid, &d_gate, pro_n2);
    matmul_tn_acc(&mut g.w_up, &cache.resid_mid, &d_up, pro_n2);
    pool::recycle(inv2);
    let mut d_normed2 = matmul_fused(&d_gate, p.w_gate.nt(), Prologue::None, Epilogue::None);
    matmul_fused_acc(&mut d_normed2, &d_up, p.w_up.nt());
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

    // ---- attention output projection ----
    matmul_tn_acc(&mut g.wo, &cache.attn_out, &d_resid_mid, Prologue::None);
    let d_o = matmul_fused(&d_resid_mid, p.wo.nt(), Prologue::None, Epilogue::None);

    // ---- chunked attention backward ----
    let (d_q, per_chunk) = {
        let (chunks, offsets) = kv.visible(slice);
        attn.attn_backward(
            &cache.q,
            &chunks,
            &offsets,
            &d_o,
            &cache.attn_out,
            &cache.lse,
            cfg,
            q_offset,
        )?
    };
    d_o.recycle();
    // Park contributions for earlier chunks; combine our own (diagonal)
    // chunk with what later slices already deposited.
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

    // ---- QKV projections (normed1 recomputed from the stashed input,
    // inside the dW GEMM packs) ----
    let inv1 = rmsnorm::inv_rms(&cache.x_in);
    let pro_n1 = Prologue::NormCols { inv: &inv1, gain: &p.norm1 };
    matmul_tn_acc(&mut g.wq, &cache.x_in, &d_q, pro_n1);
    matmul_tn_acc(&mut g.wk, &cache.x_in, &d_k, pro_n1);
    matmul_tn_acc(&mut g.wv, &cache.x_in, &d_v, pro_n1);
    pool::recycle(inv1);
    let mut d_normed1 = matmul_fused(&d_q, p.wq.nt(), Prologue::None, Epilogue::None);
    matmul_fused_acc(&mut d_normed1, &d_k, p.wk.nt());
    matmul_fused_acc(&mut d_normed1, &d_v, p.wv.nt());
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
    Ok(d_x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimpipe_tensor::init::seeded_uniform;

    /// Sliced forward+backward must equal the unsliced (n=1) run.
    #[test]
    fn sliced_layer_matches_monolithic() {
        let cfg = ExecConfig {
            slices: 4,
            ..ExecConfig::small()
        };
        let hc = cfg.head_cfg();
        let p = LayerParams::build(&cfg, 0);
        let x = seeded_uniform(cfg.seq, cfg.hidden(), 100);
        let d_y = seeded_uniform(cfg.seq, cfg.hidden(), 101);

        // Monolithic.
        let mut kv1 = KvCache::default();
        let (y_ref, cache_ref) =
            layer_forward(&p, hc, x.clone(), &mut kv1, 0, 0, &mut LocalAttn).unwrap();
        let mut g_ref = LayerGrads::zeros(&cfg);
        let mut dkv1 = DkvAccum::default();
        let dx_ref = layer_backward(
            &p, &mut g_ref, hc, cache_ref, d_y.clone(), &mut kv1, &mut dkv1, 0, 0,
            &mut LocalAttn,
        )
        .unwrap();

        // Sliced: forward in order, backward LIFO.
        let l = cfg.slice_len();
        let mut kv = KvCache::default();
        let mut caches = Vec::new();
        let mut y_cat = Tensor::zeros(cfg.seq, cfg.hidden());
        for j in 0..cfg.slices {
            let xs = x.rows_slice(j * l, l);
            let (y, c) = layer_forward(&p, hc, xs, &mut kv, j, j * l, &mut LocalAttn).unwrap();
            y_cat.set_rows(j * l, &y);
            caches.push(c);
        }
        assert!(y_cat.max_abs_diff(&y_ref) < 1e-4, "forward mismatch");

        let mut g = LayerGrads::zeros(&cfg);
        let mut dkv = DkvAccum::default();
        dkv.ensure(cfg.slices);
        let mut dx_cat = Tensor::zeros(cfg.seq, cfg.hidden());
        for j in (0..cfg.slices).rev() {
            let dys = d_y.rows_slice(j * l, l);
            let cache = caches.pop().expect("LIFO stash");
            let dx = layer_backward(
                &p, &mut g, hc, cache, dys, &mut kv, &mut dkv, j, j * l,
                &mut LocalAttn,
            )
            .unwrap();
            dx_cat.set_rows(j * l, &dx);
        }
        assert!(dx_cat.max_abs_diff(&dx_ref) < 1e-3, "dx mismatch");
        for ((name, a), (_, b)) in g.tensors().iter().zip(g_ref.tensors().iter()) {
            assert!(a.max_abs_diff(b) < 1e-3, "grad {name} mismatch");
        }
    }

    /// The whole sliced layer forward + LIFO backward — including the
    /// DkvAccum folds — must be bit-identical across forced pool widths.
    /// Sized past the kernels' parallel thresholds so the widths really
    /// diverge in execution: per-chunk attention work is
    /// 4 heads × 128 × 128 × 8 = 2^19 ≥ PAR_ATTN_WORK, with two q-blocks
    /// per chunk, so the MQA backward fans out over the pool at width 4.
    #[test]
    fn sliced_layer_is_bit_deterministic_across_thread_counts() {
        let cfg = ExecConfig {
            heads: 4,
            kv_heads: 1, // MQA: the case the (group, q-block) split exists for
            seq: 256,
            slices: 2,
            ..ExecConfig::small()
        };
        let hc = cfg.head_cfg();
        let p = LayerParams::build(&cfg, 0);
        let x = seeded_uniform(cfg.seq, cfg.hidden(), 200);
        let d_y = seeded_uniform(cfg.seq, cfg.hidden(), 201);
        let l = cfg.slice_len();

        let run = || {
            let mut kv = KvCache::default();
            let mut caches = Vec::new();
            for j in 0..cfg.slices {
                let (_, c) =
                    layer_forward(&p, hc, x.rows_slice(j * l, l), &mut kv, j, j * l, &mut LocalAttn)
                        .unwrap();
                caches.push(c);
            }
            let mut g = LayerGrads::zeros(&cfg);
            let mut dkv = DkvAccum::default();
            dkv.ensure(cfg.slices);
            let mut dx_cat = Tensor::zeros(cfg.seq, cfg.hidden());
            for j in (0..cfg.slices).rev() {
                let dys = d_y.rows_slice(j * l, l);
                let cache = caches.pop().expect("LIFO stash");
                let dx = layer_backward(
                    &p, &mut g, hc, cache, dys, &mut kv, &mut dkv, j, j * l, &mut LocalAttn,
                )
                .unwrap();
                dx_cat.set_rows(j * l, &dx);
            }
            (dx_cat, g)
        };
        let (dx1, g1) = rayon::with_num_threads(1, run);
        let (dx4, g4) = rayon::with_num_threads(4, run);
        assert_eq!(dx1, dx4, "dX must not depend on the pool width");
        for ((name, a), (_, b)) in g1.tensors().iter().zip(g4.tensors().iter()) {
            assert_eq!(a.max_abs_diff(b), 0.0, "grad {name} differs across widths");
        }
    }

    #[test]
    fn kv_chunks_are_released_by_lifo_backward() {
        let cfg = ExecConfig::small();
        let hc = cfg.head_cfg();
        let p = LayerParams::build(&cfg, 0);
        let l = cfg.slice_len();
        let x = seeded_uniform(cfg.seq, cfg.hidden(), 102);
        let mut kv = KvCache::default();
        let mut caches = Vec::new();
        for j in 0..cfg.slices {
            let xs = x.rows_slice(j * l, l);
            let (_, c) = layer_forward(&p, hc, xs, &mut kv, j, j * l, &mut LocalAttn).unwrap();
            caches.push(c);
        }
        let full = kv.bytes();
        assert!(full > 0);
        let mut g = LayerGrads::zeros(&cfg);
        let mut dkv = DkvAccum::default();
        dkv.ensure(cfg.slices);
        for j in (0..cfg.slices).rev() {
            let d_y = seeded_uniform(l, cfg.hidden(), 103);
            let cache = caches.pop().expect("LIFO stash");
            layer_backward(
                &p, &mut g, hc, cache, d_y, &mut kv, &mut dkv, j, j * l,
                &mut LocalAttn,
            )
            .unwrap();
            // Chunk j gone; chunks 0..j still resident.
            assert_eq!(kv.bytes(), full * j as u64 / cfg.slices as u64);
        }
        assert_eq!(kv.bytes(), 0);
        assert_eq!(dkv.bytes(), 0, "accumulators fully drained");
    }

    #[test]
    #[should_panic(expected = "released before its last reader")]
    fn reading_a_released_chunk_panics() {
        let mut kv = KvCache::default();
        kv.push(Tensor::zeros(2, 4), Tensor::zeros(2, 4), 0);
        kv.push(Tensor::zeros(2, 4), Tensor::zeros(2, 4), 2);
        kv.release(0);
        let _ = kv.visible(1);
    }

    #[test]
    fn sgd_step_moves_parameters() {
        let cfg = ExecConfig::small();
        let mut p = LayerParams::build(&cfg, 0);
        let before = p.wq.tensor().clone();
        let mut g = LayerGrads::zeros(&cfg);
        *g.wq.at_mut(0, 0) = 1.0;
        p.sgd_step(&g, 0.1);
        assert!((p.wq.tensor().at(0, 0) - (before.at(0, 0) - 0.1)).abs() < 1e-6);
        assert_eq!(p.wq.tensor().at(1, 1), before.at(1, 1));
    }

    #[test]
    fn grads_reset_in_place() {
        let cfg = ExecConfig::small();
        let mut g = LayerGrads::zeros(&cfg);
        *g.wq.at_mut(0, 0) = 3.0;
        g.norm1[1] = 2.0;
        g.reset();
        assert_eq!(g.wq.sq_norm(), 0.0);
        assert!(g.norm1.iter().all(|&x| x == 0.0));
    }
}
