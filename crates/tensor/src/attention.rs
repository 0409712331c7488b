//! Chunked causal attention with online softmax — the kernel contract
//! SlimPipe builds on.
//!
//! The paper computes attention "slice by slice" over a chunked KV cache
//! (§4.1.2, §5 *Chunked KV Cache*) and rebalances work by letting a remote
//! device compute attention for a `(Q, KV-chunk)` pair and merging the
//! partial output back "via the online softmax method" (§4.2.2, citing
//! Milakov & Gimelshein). That requires three properties, all provided here:
//!
//! 1. **Forward** streams over KV chunks keeping only a running
//!    `(max, sum, out)` per query row; the result is exact (not an
//!    approximation) and the saved state is one log-sum-exp scalar per
//!    query row per head ([`FlashStats`]).
//! 2. **Partial results compose**: [`partial`] over any subset of KV chunks
//!    yields an [`AttnPartial`] and [`merge_partials`] combines two partials
//!    into the partial over the union — associatively and exactly.
//! 3. **Backward is chunk-local**: given `(Q, K_chunk, V_chunk, dO, lse, D)`
//!    — with `D = rowsum(dO ∘ O)` — [`backward_chunk`] produces
//!    `(dQ_partial, dK_chunk, dV_chunk)` without any other chunk, so the
//!    backward of an exchanged chunk can also run remotely.
//!
//! Supports grouped-query attention (GQA): `n_heads` query heads share
//! `n_kv_heads` key/value heads.
//!
//! **Execution model.** Every matrix product runs through the blocked
//! GEMM micro-kernel ([`gemm_tile`]) — the per-pair scalar loops survive
//! only as the test [`oracle`]. The forward is a single-pass online
//! softmax merged tile by tile, parallelized over `(head, q-block)`
//! tasks: each task owns a disjoint `(row-range × head-band)` region of
//! the output and a disjoint `lse` range, handed out through
//! [`SyncSliceMut`]. The backward fans out
//! over `(KV-head group, q-block)` tasks, so MQA/GQA backward (`n_kv`
//! small) scales with cores exactly like the forward: a task owns its
//! q-block's rows of its group's `dQ` bands outright (disjoint — written
//! directly), while its `dK`/`dV` contributions go to **per-task partial
//! buffers** that the caller reduces *in fixed task order* after the fan-in.
//! Sequential and parallel execution run the identical task decomposition
//! and the identical reduction order, so gradients are bit-identical for
//! every thread count (locked down in `tests/determinism.rs`).
//! All outputs and scratch come from the [`crate::pool`]; workers
//! never touch the pool — scratch is taken and recycled on the calling
//! thread — so pool counters stay deterministic. Below
//! [`PAR_ATTN_WORK`] everything runs inline on the caller.

use crate::matmul::{gemm_tile, gemm_tile_scratch_len, TileView, TileWrite};
use crate::ops::exp_sub_row;
use crate::pool;
use crate::shared::SyncSliceMut;
use crate::tensor::Tensor;
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Rows per forward q-block task.
const Q_BLOCK: usize = 64;

/// Approximate multiply-add count under which attention stays sequential.
const PAR_ATTN_WORK: usize = 1 << 17;

/// Keys per score tile: the online-softmax merge runs
/// tile-by-tile instead of key-by-key, and one `Q_BLOCK × KV_TILE` tile
/// (64 KiB of probabilities) stays cache-resident between the score and
/// value GEMMs.
const KV_TILE: usize = 256;

/// Tag of the one attention kernel. `benchmark/src/run.rs` records
/// `attn_kernel().as_str()` in its info block and `benchmark/` is frozen
/// between benchmark PRs — that line is the only reason these two names
/// still exist; drop them with it.
pub struct AttnKernel;

impl AttnKernel {
    pub fn as_str(&self) -> &'static str {
        "gemm"
    }
}

pub fn attn_kernel() -> AttnKernel {
    AttnKernel
}

/// Task indices claimed per `fetch_add` in the attention fan-outs
/// (`ParRange::with_min_len` chunked claiming): long sequences and MQA
/// produce many small q-block tasks, and batching a couple per claim cuts
/// the atomic traffic without costing balance. Claiming order never affects
/// results — tasks own disjoint outputs and partials reduce in fixed order.
const ATTN_CLAIM_BATCH: usize = 2;

/// Batch claims only when tasks clearly outnumber the workers; small
/// regions keep single-index claiming so batching never shrinks the
/// effective width (bits are identical either way — this is purely a
/// contention knob).
fn claim_batch(n_tasks: usize) -> usize {
    if n_tasks >= 4 * rayon::current_num_threads() * ATTN_CLAIM_BATCH {
        ATTN_CLAIM_BATCH
    } else {
        1
    }
}

/// Per-(head, query-row) log-sum-exp saved by the forward pass.
/// Layout: `lse[h * rows + i]`.
#[derive(Clone, Debug)]
pub struct FlashStats {
    pub lse: Vec<f32>,
}

/// A (possibly partial) attention result: normalised output plus the
/// log-sum-exp of the score mass it covers. Two partials over disjoint KV
/// ranges merge exactly into the partial over the union.
#[derive(Clone, Debug)]
pub struct AttnPartial {
    /// `(rows, n_heads * head_dim)` output, already normalised by this
    /// partial's own softmax denominator.
    pub o: Tensor,
    /// `lse[h * rows + i]`; `-inf` where the partial saw no visible key.
    pub lse: Vec<f32>,
}

impl AttnPartial {
    /// Return both buffers to the [`crate::pool`].
    pub fn recycle(self) {
        self.o.recycle();
        pool::recycle(self.lse);
    }
}

/// Head geometry shared by every entry point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeadCfg {
    pub n_heads: usize,
    pub n_kv_heads: usize,
    pub head_dim: usize,
}

impl HeadCfg {
    pub fn new(n_heads: usize, n_kv_heads: usize, head_dim: usize) -> Self {
        assert!(n_heads.is_multiple_of(n_kv_heads), "GQA requires n_kv_heads | n_heads");
        Self { n_heads, n_kv_heads, head_dim }
    }

    #[inline]
    pub fn q_width(&self) -> usize {
        self.n_heads * self.head_dim
    }

    #[inline]
    pub fn kv_width(&self) -> usize {
        self.n_kv_heads * self.head_dim
    }

    #[inline]
    fn kv_head_of(&self, q_head: usize) -> usize {
        q_head / (self.n_heads / self.n_kv_heads)
    }

    #[inline]
    fn scale(&self) -> f32 {
        1.0 / (self.head_dim as f32).sqrt()
    }
}

#[inline(always)]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// One dense masked score tile through the blocked micro-kernel:
/// `buf[li * buf_rs + j] = scale · ⟨Q[i0+li] head h, K[t0+j]⟩` where the
/// key is causally visible, `-inf` where it is masked — *the* maskable
/// score implementation, shared by the forward/backward kernels and
/// [`masked_scores`]. `pack` is micro-kernel pack scratch sized by
/// [`gemm_tile_scratch_len`]`(rows, tw, head_dim)`.
#[allow(clippy::too_many_arguments)]
fn score_tile(
    q: &Tensor,
    k: &Tensor,
    cfg: HeadCfg,
    h: usize,
    q_offset: usize,
    kv_offset: usize,
    i0: usize,
    rows: usize,
    t0: usize,
    tw: usize,
    buf: &mut [f32],
    buf_rs: usize,
    pack: &mut [f32],
) {
    let dh = cfg.head_dim;
    let (qc0, kc0) = (h * dh, cfg.kv_head_of(h) * dh);
    gemm_tile(
        rows,
        tw,
        dh,
        TileView { data: &q.as_slice()[i0 * cfg.q_width() + qc0..], rs: cfg.q_width(), cs: 1 },
        TileView { data: &k.as_slice()[t0 * cfg.kv_width() + kc0..], rs: 1, cs: cfg.kv_width() },
        buf,
        buf_rs,
        TileWrite::ScaledCausal {
            scale: cfg.scale(),
            q_base: q_offset + i0,
            kv_offset: kv_offset + t0,
        },
        pack,
    );
}

/// Dense `(lq, lc)` causally-masked score matrix for one query head:
/// scaled scores where visible, `-inf` where masked. Reference/debug
/// entry point (the kernels never materialise this); pooled — recycle it.
pub fn masked_scores(
    q: &Tensor,
    k: &Tensor,
    cfg: HeadCfg,
    h: usize,
    q_offset: usize,
    kv_offset: usize,
) -> Tensor {
    let (lq, lc) = (q.rows(), k.rows());
    let mut s = Tensor::zeros_pooled(lq, lc);
    let mut pack = pool::take_raw(gemm_tile_scratch_len(lq, lc, cfg.head_dim));
    score_tile(q, k, cfg, h, q_offset, kv_offset, 0, lq, 0, lc, s.as_mut_slice(), lc, &mut pack);
    pool::recycle(pack);
    s
}

/// Attention of `q` (rows at global positions `q_offset..`) against a single
/// KV chunk whose first row sits at global position `kv_offset`. Causal
/// masking is positional: query `i` sees key `j` iff `j <= i` globally.
///
/// `(head, q-block)` tasks each stream over [`KV_TILE`]-key score tiles
/// computed by the blocked micro-kernel ([`score_tile`]) and merge them
/// with a per-*tile* online softmax — rescale the running
/// `(max, sum, acc)` once per tile, turn the score tile into probabilities
/// in place, then accumulate `P·V` through the micro-kernel again.
/// Bit-deterministic across thread counts (disjoint task regions, fixed
/// per-task tile order) and across `SLIMPIPE_GEMM_NR` because `gemm_tile`
/// keeps per-element k-order independent of the sliver width.
pub fn partial(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    cfg: HeadCfg,
    q_offset: usize,
    kv_offset: usize,
) -> AttnPartial {
    assert_eq!(q.cols(), cfg.q_width(), "q width mismatch");
    assert_eq!(k.cols(), cfg.kv_width(), "k width mismatch");
    assert_eq!(v.cols(), cfg.kv_width(), "v width mismatch");
    assert_eq!(k.rows(), v.rows(), "k/v row mismatch");
    let (lq, dh) = (q.rows(), cfg.head_dim);
    let lc = k.rows();
    let mut o = Tensor::zeros_pooled(lq, cfg.q_width());
    let mut lse = pool::take_raw(cfg.n_heads * lq);

    let n_qblocks = lq.div_ceil(Q_BLOCK).max(1);
    let n_tasks = cfg.n_heads * n_qblocks;
    let work = cfg.n_heads * lq * lc * dh;
    let parallel = work >= PAR_ATTN_WORK && n_tasks > 1 && rayon::current_num_threads() > 1;

    // Per-task scratch: probability tile (rows × tile), unnormalised output
    // accumulator (rows × dh), running max and sum (rows each), plus
    // micro-kernel pack scratch for the larger of the two tile GEMMs. A
    // task's result never depends on which block it ran in, so scratch is
    // sized by tasks in flight: one block per slot, each slot claiming
    // task indices until none remain.
    let rows_of = |qb: usize| (lq - qb * Q_BLOCK).min(Q_BLOCK);
    let bound_of = |qb: usize| -> usize {
        (q_offset + qb * Q_BLOCK + rows_of(qb)).saturating_sub(kv_offset).min(lc)
    };
    let per = |qb: usize| -> usize {
        let (rows, bound) = (rows_of(qb), bound_of(qb));
        if bound == 0 {
            return 0;
        }
        let tw = bound.min(KV_TILE);
        let pack = gemm_tile_scratch_len(rows, tw, dh).max(gemm_tile_scratch_len(rows, dh, tw));
        rows * tw + rows * dh + 2 * rows + pack
    };
    let block_len = (0..n_qblocks).map(per).max().unwrap_or(0);
    let slots = if parallel { rayon::current_num_threads().min(n_tasks) } else { 1 };

    let mut scratch = pool::take_raw(slots * block_len);
    {
        let o_view = SyncSliceMut::new(o.as_mut_slice());
        let scratch_view = SyncSliceMut::new(&mut scratch);
        let lse_view = SyncSliceMut::new(&mut lse);
        let next_task = AtomicUsize::new(0);
        let run_slot = |slot: usize| {
            // Safety: one exclusive scratch block per slot index.
            let block = unsafe { scratch_view.range_mut(slot * block_len, block_len) };
            loop {
                // Relaxed: the counter only hands out indices; results are
                // published to the caller by the fan-in join.
                let t = next_task.fetch_add(1, Ordering::Relaxed);
                if t >= n_tasks {
                    return;
                }
                let (h, qb) = (t / n_qblocks, t % n_qblocks);
                let i0 = qb * Q_BLOCK;
                let rows = rows_of(qb);
                // Safety: disjoint (head, q-block) lse ranges per task.
                let lse_rows = unsafe { lse_view.range_mut(h * lq + i0, rows) };
                let bound = bound_of(qb);
                if bound == 0 {
                    lse_rows.fill(f32::NEG_INFINITY); // o rows stay zero
                    continue;
                }
                partial_task(
                    q,
                    k,
                    v,
                    cfg,
                    q_offset,
                    kv_offset,
                    h,
                    i0,
                    rows,
                    bound,
                    &o_view,
                    lse_rows,
                    &mut block[..per(qb)],
                );
            }
        };
        if parallel {
            (0..slots).into_par_iter().for_each(run_slot);
        } else {
            run_slot(0);
        }
    }
    pool::recycle(scratch);
    AttnPartial { o, lse }
}

/// One forward task: head `h`, query rows `[i0, i0 + rows)`, tile-wise
/// online softmax against the `bound` visible keys of one chunk.
#[allow(clippy::too_many_arguments)]
fn partial_task(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    cfg: HeadCfg,
    q_offset: usize,
    kv_offset: usize,
    h: usize,
    i0: usize,
    rows: usize,
    bound: usize,
    o_view: &SyncSliceMut<'_, f32>,
    lse_rows: &mut [f32],
    block: &mut [f32],
) {
    let dh = cfg.head_dim;
    let lc = k.rows();
    let kvw = cfg.kv_width();
    let kc0 = cfg.kv_head_of(h) * dh;
    let tile = bound.min(KV_TILE);
    let (p_buf, rest) = block.split_at_mut(rows * tile);
    let (acc, rest) = rest.split_at_mut(rows * dh);
    let (mrow, rest) = rest.split_at_mut(rows);
    let (srow, pack) = rest.split_at_mut(rows);
    mrow.fill(f32::NEG_INFINITY);
    srow.fill(0.0);
    acc.fill(0.0);
    for t0 in (0..bound).step_by(tile) {
        let tw = (bound - t0).min(tile);
        score_tile(q, k, cfg, h, q_offset, kv_offset, i0, rows, t0, tw, p_buf, tile, pack);
        // Per-row tile merge: rescale the running (sum, acc) when this tile
        // raises the max (exp(-inf) = 0 covers the first visible tile),
        // then overwrite scores with exp(s - m) in place, zeroing the
        // masked tail so the value GEMM reads a dense tile.
        for li in 0..rows {
            let gvis = (q_offset + i0 + li + 1).saturating_sub(kv_offset).min(lc);
            let vis = gvis.saturating_sub(t0).min(tw);
            let row = &mut p_buf[li * tile..li * tile + tw];
            if vis == 0 {
                row.fill(0.0);
                continue;
            }
            let mut tmax = f32::NEG_INFINITY;
            for &s in &row[..vis] {
                if s > tmax {
                    tmax = s;
                }
            }
            if tmax > mrow[li] {
                let corr = (mrow[li] - tmax).exp();
                srow[li] *= corr;
                for a in &mut acc[li * dh..(li + 1) * dh] {
                    *a *= corr;
                }
                mrow[li] = tmax;
            }
            srow[li] += exp_sub_row(&mut row[..vis], mrow[li]);
            row[vis..].fill(0.0);
        }
        // acc += P · V_tile through the micro-kernel.
        gemm_tile(
            rows,
            dh,
            tw,
            TileView { data: p_buf, rs: tile, cs: 1 },
            TileView { data: &v.as_slice()[t0 * kvw + kc0..], rs: kvw, cs: 1 },
            acc,
            dh,
            TileWrite::Accumulate,
            pack,
        );
    }
    let width = cfg.q_width();
    let qc0 = h * dh;
    for (li, lse_out) in lse_rows.iter_mut().enumerate() {
        if mrow[li] == f32::NEG_INFINITY {
            *lse_out = f32::NEG_INFINITY; // o row is pre-zeroed
            continue;
        }
        let inv = 1.0 / srow[li];
        // Safety: task regions — (row, head-band) pairs — are pairwise
        // disjoint by construction of the (head, q-block) partition.
        let orow = unsafe { o_view.range_mut((i0 + li) * width + qc0, dh) };
        for (oo, a) in orow.iter_mut().zip(&acc[li * dh..(li + 1) * dh]) {
            *oo = a * inv;
        }
        *lse_out = mrow[li] + srow[li].ln();
    }
}

/// Merge two partials over disjoint KV ranges into the partial over their
/// union (exact online-softmax combination).
pub fn merge_partials(a: &AttnPartial, b: &AttnPartial, cfg: HeadCfg) -> AttnPartial {
    let mut out = AttnPartial {
        o: a.o.copy_pooled(),
        lse: {
            let mut l = pool::take_raw(a.lse.len());
            l.copy_from_slice(&a.lse);
            l
        },
    };
    merge_partials_into(&mut out, b, cfg);
    out
}

/// Fold `b` into the accumulator `a` in place — identical arithmetic to
/// [`merge_partials`], without allocating. This is what the chunk loops use
/// so a whole forward keeps exactly one accumulator.
pub fn merge_partials_into(a: &mut AttnPartial, b: &AttnPartial, cfg: HeadCfg) {
    assert_eq!(a.o.shape(), b.o.shape(), "merge shape mismatch");
    let (lq, dh) = (a.o.rows(), cfg.head_dim);
    for h in 0..cfg.n_heads {
        let c0 = h * dh;
        for i in 0..lq {
            let idx = h * lq + i;
            let (la, lb) = (a.lse[idx], b.lse[idx]);
            if lb == f32::NEG_INFINITY {
                continue; // nothing to fold in; a's entry stands
            }
            if la == f32::NEG_INFINITY {
                a.lse[idx] = lb;
                let arow = &mut a.o.row_mut(i)[c0..c0 + dh];
                arow.copy_from_slice(&b.o.row(i)[c0..c0 + dh]);
                continue;
            }
            let m = la.max(lb);
            let (wa, wb) = ((la - m).exp(), (lb - m).exp());
            let denom = wa + wb;
            a.lse[idx] = m + denom.ln();
            let (fa, fb) = (wa / denom, wb / denom);
            let arow = &mut a.o.row_mut(i)[c0..c0 + dh];
            let brow = &b.o.row(i)[c0..c0 + dh];
            for (aa, bb) in arow.iter_mut().zip(brow) {
                *aa = fa * *aa + fb * bb;
            }
        }
    }
}

/// Fold one more partial into a running accumulator, consuming (and
/// recycling) the incoming partial — the one canonical way every chunk
/// loop (local, context-exchange, ring-CP) accumulates partials.
pub fn fold_partial(acc: &mut Option<AttnPartial>, p: AttnPartial, cfg: HeadCfg) {
    match acc {
        None => *acc = Some(p),
        Some(prev) => {
            merge_partials_into(prev, &p, cfg);
            p.recycle();
        }
    }
}

/// Forward over an ordered list of KV chunks (the chunked KV cache).
/// `chunk_offsets[c]` is the global position of chunk `c`'s first row.
pub fn forward_chunked(
    q: &Tensor,
    chunks: &[(&Tensor, &Tensor)],
    chunk_offsets: &[usize],
    cfg: HeadCfg,
    q_offset: usize,
) -> AttnPartial {
    assert_eq!(chunks.len(), chunk_offsets.len(), "chunk/offset length mismatch");
    assert!(!chunks.is_empty(), "attention needs at least one KV chunk");
    let mut acc: Option<AttnPartial> = None;
    for (c, (k, v)) in chunks.iter().enumerate() {
        let p = partial(q, k, v, cfg, q_offset, chunk_offsets[c]);
        fold_partial(&mut acc, p, cfg);
    }
    acc.expect("non-empty chunks")
}

/// Convenience: full causal self-attention over one contiguous sequence.
pub fn forward_full(q: &Tensor, k: &Tensor, v: &Tensor, cfg: HeadCfg) -> AttnPartial {
    forward_chunked(q, &[(k, v)], &[0], cfg, 0)
}

/// `D[h*rows + i] = Σ_c dO[i, h*dh + c] * O[i, h*dh + c]` — precomputed once
/// per backward and shared by every chunk.
pub fn d_rows(d_o: &Tensor, o: &Tensor, cfg: HeadCfg) -> Vec<f32> {
    assert_eq!(d_o.shape(), o.shape(), "d_rows shape mismatch");
    let (lq, dh) = (o.rows(), cfg.head_dim);
    let mut d = pool::take_raw(cfg.n_heads * lq);
    for h in 0..cfg.n_heads {
        let c0 = h * dh;
        for i in 0..lq {
            d[h * lq + i] = dot(&d_o.row(i)[c0..c0 + dh], &o.row(i)[c0..c0 + dh]);
        }
    }
    d
}

/// Deterministic dK/dV fan-in: every (group, key row) sums its q-block
/// partials in ascending q-block order — the same order no matter how
/// tasks were scheduled. Each task block starts with
/// `[dK partial (bound × dh) | dV partial (bound × dh)]`, so the reducer
/// only needs the `task_bound`/`offset_of` geometry.
fn reduce_dkv_partials(
    scratch: &[f32],
    dk: &mut Tensor,
    dv: &mut Tensor,
    cfg: HeadCfg,
    n_qblocks: usize,
    task_bound: impl Fn(usize) -> usize,
    offset_of: impl Fn(usize, usize) -> usize,
) {
    let dh = cfg.head_dim;
    let kv_width = cfg.kv_width();
    let (dks, dvs) = (dk.as_mut_slice(), dv.as_mut_slice());
    for kvh in 0..cfg.n_kv_heads {
        let kc0 = kvh * dh;
        for qb in 0..n_qblocks {
            let bound = task_bound(qb);
            let off = offset_of(kvh, qb);
            let (dk_part, dv_part) = scratch[off..off + 2 * bound * dh].split_at(bound * dh);
            for j in 0..bound {
                let dst = &mut dks[j * kv_width + kc0..j * kv_width + kc0 + dh];
                for (a, b) in dst.iter_mut().zip(&dk_part[j * dh..(j + 1) * dh]) {
                    *a += b;
                }
                let dst = &mut dvs[j * kv_width + kc0..j * kv_width + kc0 + dh];
                for (a, b) in dst.iter_mut().zip(&dv_part[j * dh..(j + 1) * dh]) {
                    *a += b;
                }
            }
        }
    }
}

/// Chunk-local backward: gradients of one KV chunk plus this chunk's
/// contribution to `dQ`, from `(q, k, v, dO, lse, D)` only.
///
/// Probabilities are recomputed as `exp(score - lse)` — nothing beyond the
/// forward's per-row statistics is needed, which is what lets SlimPipe ship
/// this computation to another pipeline device during context exchange.
///
/// Parallelism: `(KV-head group, q-block)` tasks with per-task `dK`/`dV`
/// partials; the caller reduces the partials in ascending q-block order, so
/// the summation order — and therefore every output bit — is independent of
/// the thread count. With `n_kv = 1` (MQA) there are still
/// `ceil(lq / Q_BLOCK)` tasks, which is what lets the MQA backward scale
/// with cores instead of serialising on the single KV head.
///
/// Every matrix product inside a task — scores `Q·Kᵀ`, `dP = dO·Vᵀ`,
/// `dV += Pᵀ·dO`, `dK += dSᵀ·Q`, `dQ += dS·K` — runs through the blocked
/// micro-kernel over [`KV_TILE`]-key tiles. Probabilities are recomputed as
/// `exp(score − lse)` per tile (masked entries zeroed so the tile GEMMs
/// read dense data), and `dS = P ∘ (dP − D) · scale` is formed in place
/// over the dP tile.
#[allow(clippy::too_many_arguments)]
pub fn backward_chunk(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    d_o: &Tensor,
    lse: &[f32],
    d: &[f32],
    cfg: HeadCfg,
    q_offset: usize,
    kv_offset: usize,
) -> (Tensor, Tensor, Tensor) {
    let (lq, dh) = (q.rows(), cfg.head_dim);
    let lc = k.rows();
    let mut dq = Tensor::zeros_pooled(lq, cfg.q_width());
    let mut dk = Tensor::zeros_pooled(lc, cfg.kv_width());
    let mut dv = Tensor::zeros_pooled(lc, cfg.kv_width());

    let n_qblocks = lq.div_ceil(Q_BLOCK).max(1);
    let n_tasks = cfg.n_kv_heads * n_qblocks;
    let work = cfg.n_heads * lq * lc * dh;
    let parallel = work >= PAR_ATTN_WORK && n_tasks > 1 && rayon::current_num_threads() > 1;

    let rows_of = |qb: usize| (lq - qb * Q_BLOCK).min(Q_BLOCK);
    let task_bound = |qb: usize| -> usize {
        (q_offset + qb * Q_BLOCK + rows_of(qb)).saturating_sub(kv_offset).min(lc)
    };
    // Per-task scratch: dK/dV partials (`bound × dh` each, group band only,
    // reduced by the shared fan-in), a dQ accumulator (rows × dh), the
    // probability and dP/dS tiles (rows × tile each), and micro-kernel pack
    // scratch for the largest of the five tile GEMM shapes.
    let per = |qb: usize| -> usize {
        let bound = task_bound(qb);
        if bound == 0 {
            return 0;
        }
        let rows = rows_of(qb);
        let tw = bound.min(KV_TILE);
        let pack = gemm_tile_scratch_len(rows, tw, dh)
            .max(gemm_tile_scratch_len(tw, dh, rows))
            .max(gemm_tile_scratch_len(rows, dh, tw));
        2 * bound * dh + rows * dh + 2 * rows * tw + pack
    };
    let stride: usize = (0..n_qblocks).map(per).sum();
    let offset_of = |kvh: usize, qb: usize| kvh * stride + (0..qb).map(per).sum::<usize>();

    let mut scratch = pool::take_raw(cfg.n_kv_heads * stride);
    {
        let dq_view = SyncSliceMut::new(dq.as_mut_slice());
        let scratch_view = SyncSliceMut::new(&mut scratch);
        let run_task = |t: usize| {
            let (kvh, qb) = (t / n_qblocks, t % n_qblocks);
            let bound = task_bound(qb);
            if bound == 0 {
                return; // no visible key: nothing written, nothing reduced
            }
            // Safety: one exclusive scratch block per task index.
            let block = unsafe { scratch_view.range_mut(offset_of(kvh, qb), per(qb)) };
            backward_task(
                q,
                k,
                v,
                d_o,
                lse,
                d,
                cfg,
                q_offset,
                kv_offset,
                kvh,
                qb * Q_BLOCK,
                rows_of(qb),
                bound,
                &dq_view,
                block,
            );
        };
        if parallel {
            (0..n_tasks)
                .into_par_iter()
                .with_min_len(claim_batch(n_tasks))
                .for_each(run_task);
        } else {
            for t in 0..n_tasks {
                run_task(t);
            }
        }
    }
    // Zero-bound tasks have zero-length blocks, so the fan-in geometry
    // below only ever touches blocks whose partials were initialised.
    reduce_dkv_partials(&scratch, &mut dk, &mut dv, cfg, n_qblocks, task_bound, offset_of);
    pool::recycle(scratch);
    (dq, dk, dv)
}

/// One backward task: every query head of KV-head group `kvh`, query rows
/// `[i0, i0 + rows)`, against the `bound` visible keys of one chunk, tile by
/// tile.
#[allow(clippy::too_many_arguments)]
fn backward_task(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    d_o: &Tensor,
    lse: &[f32],
    d: &[f32],
    cfg: HeadCfg,
    q_offset: usize,
    kv_offset: usize,
    kvh: usize,
    i0: usize,
    rows: usize,
    bound: usize,
    dq_view: &SyncSliceMut<'_, f32>,
    block: &mut [f32],
) {
    let (lq, dh) = (q.rows(), cfg.head_dim);
    let lc = k.rows();
    let scale = cfg.scale();
    let group = cfg.n_heads / cfg.n_kv_heads;
    let kc0 = kvh * dh;
    let q_width = cfg.q_width();
    let kvw = cfg.kv_width();
    let tile = bound.min(KV_TILE);
    let (dk_part, rest) = block.split_at_mut(bound * dh);
    let (dv_part, rest) = rest.split_at_mut(bound * dh);
    let (dq_acc, rest) = rest.split_at_mut(rows * dh);
    let (p_buf, rest) = rest.split_at_mut(rows * tile);
    let (ds_buf, pack) = rest.split_at_mut(rows * tile);
    // The reduction reads every element, so the partials must start clean.
    dk_part.fill(0.0);
    dv_part.fill(0.0);
    for h in kvh * group..(kvh + 1) * group {
        let qc0 = h * dh;
        dq_acc.fill(0.0);
        for t0 in (0..bound).step_by(tile) {
            let tw = (bound - t0).min(tile);
            score_tile(q, k, cfg, h, q_offset, kv_offset, i0, rows, t0, tw, p_buf, tile, pack);
            // P = exp(S − lse) on the visible prefix; masked tail and
            // zero-mass rows zeroed so the tile GEMMs read dense data.
            for li in 0..rows {
                let i = i0 + li;
                let l = lse[h * lq + i];
                let gvis = (q_offset + i + 1).saturating_sub(kv_offset).min(lc);
                let vis = gvis.saturating_sub(t0).min(tw);
                let row = &mut p_buf[li * tile..li * tile + tw];
                if vis == 0 || l == f32::NEG_INFINITY {
                    row.fill(0.0);
                    continue;
                }
                exp_sub_row(&mut row[..vis], l);
                row[vis..].fill(0.0);
            }
            // dP = dO · V_tileᵀ
            gemm_tile(
                rows,
                tw,
                dh,
                TileView { data: &d_o.as_slice()[i0 * q_width + qc0..], rs: q_width, cs: 1 },
                TileView { data: &v.as_slice()[t0 * kvw + kc0..], rs: 1, cs: kvw },
                ds_buf,
                tile,
                TileWrite::Assign,
                pack,
            );
            // dV_part += Pᵀ · dO
            gemm_tile(
                tw,
                dh,
                rows,
                TileView { data: p_buf, rs: 1, cs: tile },
                TileView { data: &d_o.as_slice()[i0 * q_width + qc0..], rs: q_width, cs: 1 },
                &mut dv_part[t0 * dh..],
                dh,
                TileWrite::Accumulate,
                pack,
            );
            // dS = P ∘ (dP − D) · scale, in place over the dP tile —
            // masked entries have P = 0 and stay exactly 0.
            for li in 0..rows {
                let di = d[h * lq + i0 + li];
                let prow = &p_buf[li * tile..li * tile + tw];
                let dsrow = &mut ds_buf[li * tile..li * tile + tw];
                for (ds, &p) in dsrow.iter_mut().zip(prow) {
                    *ds = p * (*ds - di) * scale;
                }
            }
            // dK_part += dSᵀ · Q
            gemm_tile(
                tw,
                dh,
                rows,
                TileView { data: ds_buf, rs: 1, cs: tile },
                TileView { data: &q.as_slice()[i0 * q_width + qc0..], rs: q_width, cs: 1 },
                &mut dk_part[t0 * dh..],
                dh,
                TileWrite::Accumulate,
                pack,
            );
            // dQ_acc += dS · K_tile
            gemm_tile(
                rows,
                dh,
                tw,
                TileView { data: ds_buf, rs: tile, cs: 1 },
                TileView { data: &k.as_slice()[t0 * kvw + kc0..], rs: kvw, cs: 1 },
                dq_acc,
                dh,
                TileWrite::Accumulate,
                pack,
            );
        }
        for li in 0..rows {
            // Safety: each (row, query-head band) belongs to exactly one
            // (group, q-block) task.
            let dqrow = unsafe { dq_view.range_mut((i0 + li) * q_width + qc0, dh) };
            for (a, b) in dqrow.iter_mut().zip(&dq_acc[li * dh..(li + 1) * dh]) {
                *a += b;
            }
        }
    }
}

/// Backward over every chunk of a chunked KV cache. Returns
/// `(dQ, per-chunk (dK, dV))`.
#[allow(clippy::too_many_arguments)]
pub fn backward_chunked(
    q: &Tensor,
    chunks: &[(&Tensor, &Tensor)],
    chunk_offsets: &[usize],
    d_o: &Tensor,
    o: &Tensor,
    lse: &[f32],
    cfg: HeadCfg,
    q_offset: usize,
) -> (Tensor, Vec<(Tensor, Tensor)>) {
    let d = d_rows(d_o, o, cfg);
    let mut dq = Tensor::zeros_pooled(q.rows(), cfg.q_width());
    let mut dkv = Vec::with_capacity(chunks.len());
    for (c, (k, v)) in chunks.iter().enumerate() {
        let (dq_c, dk, dv) =
            backward_chunk(q, k, v, d_o, lse, &d, cfg, q_offset, chunk_offsets[c]);
        dq.add_assign(&dq_c);
        dq_c.recycle();
        dkv.push((dk, dv));
    }
    pool::recycle(d);
    (dq, dkv)
}

/// Scalar reference kernels: per-`(q, k)` dot loops with a per-key online
/// softmax, one sequential pass, no tiling and no micro-kernel. They exist
/// so the tolerance tests can check the production kernels against an
/// independent implementation of the same contract — nothing outside the
/// tests calls them. Agreement is up to float summation order.
pub mod oracle {
    use super::{dot, pool, AttnPartial, HeadCfg, Tensor};

    /// Reference for [`super::partial`].
    pub fn partial(
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
        cfg: HeadCfg,
        q_offset: usize,
        kv_offset: usize,
    ) -> AttnPartial {
        let (lq, lc, dh) = (q.rows(), k.rows(), cfg.head_dim);
        let scale = cfg.scale();
        let mut o = Tensor::zeros_pooled(lq, cfg.q_width());
        let mut lse = pool::take_raw(cfg.n_heads * lq);
        let mut acc = vec![0.0f32; dh];
        for h in 0..cfg.n_heads {
            let (qc0, kc0) = (h * dh, cfg.kv_head_of(h) * dh);
            for i in 0..lq {
                let visible = (q_offset + i + 1).saturating_sub(kv_offset).min(lc);
                if visible == 0 {
                    lse[h * lq + i] = f32::NEG_INFINITY; // o row is pre-zeroed
                    continue;
                }
                let qi = &q.row(i)[qc0..qc0 + dh];
                let mut m = f32::NEG_INFINITY;
                let mut sum = 0.0f32;
                acc.fill(0.0);
                for j in 0..visible {
                    let s = dot(qi, &k.row(j)[kc0..kc0 + dh]) * scale;
                    if s > m {
                        // Rescale the running accumulator to the new max
                        // (exp(-inf) = 0 covers the first visible key).
                        let corr = (m - s).exp();
                        sum *= corr;
                        for a in acc.iter_mut() {
                            *a *= corr;
                        }
                        m = s;
                    }
                    let w = (s - m).exp();
                    sum += w;
                    for (a, vv) in acc.iter_mut().zip(&v.row(j)[kc0..kc0 + dh]) {
                        *a += w * vv;
                    }
                }
                let inv = 1.0 / sum;
                for (oo, a) in o.row_mut(i)[qc0..qc0 + dh].iter_mut().zip(&acc) {
                    *oo = a * inv;
                }
                lse[h * lq + i] = m + sum.ln();
            }
        }
        AttnPartial { o, lse }
    }

    /// Reference for [`super::backward_chunk`].
    #[allow(clippy::too_many_arguments)]
    pub fn backward_chunk(
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
        d_o: &Tensor,
        lse: &[f32],
        d: &[f32],
        cfg: HeadCfg,
        q_offset: usize,
        kv_offset: usize,
    ) -> (Tensor, Tensor, Tensor) {
        let (lq, lc, dh) = (q.rows(), k.rows(), cfg.head_dim);
        let scale = cfg.scale();
        let mut dq = Tensor::zeros_pooled(lq, cfg.q_width());
        let mut dk = Tensor::zeros_pooled(lc, cfg.kv_width());
        let mut dv = Tensor::zeros_pooled(lc, cfg.kv_width());
        for h in 0..cfg.n_heads {
            let (qc0, kc0) = (h * dh, cfg.kv_head_of(h) * dh);
            for i in 0..lq {
                let visible = (q_offset + i + 1).saturating_sub(kv_offset).min(lc);
                let l = lse[h * lq + i];
                if visible == 0 || l == f32::NEG_INFINITY {
                    continue;
                }
                let di = d[h * lq + i];
                let qi = &q.row(i)[qc0..qc0 + dh];
                let doi = &d_o.row(i)[qc0..qc0 + dh];
                for j in 0..visible {
                    let kj = &k.row(j)[kc0..kc0 + dh];
                    let p = (dot(qi, kj) * scale - l).exp();
                    // dV_j += p · dO_i ; dP = dO_i · V_j ; dS = p · (dP − D_i)
                    let ds = p * (dot(doi, &v.row(j)[kc0..kc0 + dh]) - di) * scale;
                    for (dvv, dd) in dv.row_mut(j)[kc0..kc0 + dh].iter_mut().zip(doi) {
                        *dvv += p * dd;
                    }
                    for (dkk, qq) in dk.row_mut(j)[kc0..kc0 + dh].iter_mut().zip(qi) {
                        *dkk += ds * qq;
                    }
                    for (dqq, kk) in dq.row_mut(i)[qc0..qc0 + dh].iter_mut().zip(kj) {
                        *dqq += ds * kk;
                    }
                }
            }
        }
        (dq, dk, dv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_uniform;

    /// Naive full causal attention (explicit libm softmax) for one head layout —
    /// scores come from the shared maskable implementation
    /// ([`masked_scores`]), so there is exactly one score/mask code path.
    fn naive_full(q: &Tensor, k: &Tensor, v: &Tensor, cfg: HeadCfg) -> Tensor {
        let (lq, dh) = (q.rows(), cfg.head_dim);
        let mut o = Tensor::zeros(lq, cfg.q_width());
        for h in 0..cfg.n_heads {
            let kvh = h / (cfg.n_heads / cfg.n_kv_heads);
            let mut scores = masked_scores(q, k, cfg, h, 0, 0);
            for i in 0..lq {
                let row = scores.row_mut(i);
                let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                row.iter_mut().for_each(|s| *s = (*s - m).exp());
                let sum: f32 = row.iter().sum();
                row.iter_mut().for_each(|s| *s /= sum);
            }
            for i in 0..lq {
                for c in 0..dh {
                    let mut acc = 0.0;
                    for j in 0..k.rows() {
                        acc += scores.at(i, j) * v.at(j, kvh * dh + c);
                    }
                    *o.at_mut(i, h * dh + c) = acc;
                }
            }
            scores.recycle();
        }
        o
    }

    #[test]
    fn full_matches_naive() {
        let cfg = HeadCfg::new(4, 4, 8);
        let q = seeded_uniform(12, 32, 1);
        let k = seeded_uniform(12, 32, 2);
        let v = seeded_uniform(12, 32, 3);
        let got = forward_full(&q, &k, &v, cfg);
        assert!(got.o.max_abs_diff(&naive_full(&q, &k, &v, cfg)) < 1e-4);
    }

    #[test]
    fn gqa_matches_naive() {
        let cfg = HeadCfg::new(4, 2, 6);
        let q = seeded_uniform(10, 24, 4);
        let k = seeded_uniform(10, 12, 5);
        let v = seeded_uniform(10, 12, 6);
        let got = forward_full(&q, &k, &v, cfg);
        assert!(got.o.max_abs_diff(&naive_full(&q, &k, &v, cfg)) < 1e-4);
    }

    #[test]
    fn chunked_equals_full_for_any_split() {
        let cfg = HeadCfg::new(2, 2, 4);
        let s = 16;
        let q = seeded_uniform(s, 8, 7);
        let k = seeded_uniform(s, 8, 8);
        let v = seeded_uniform(s, 8, 9);
        let full = forward_full(&q, &k, &v, cfg);
        for &nchunks in &[2usize, 4, 8] {
            let lc = s / nchunks;
            let ks: Vec<Tensor> = (0..nchunks).map(|c| k.rows_slice(c * lc, lc)).collect();
            let vs: Vec<Tensor> = (0..nchunks).map(|c| v.rows_slice(c * lc, lc)).collect();
            let chunks: Vec<(&Tensor, &Tensor)> = ks.iter().zip(vs.iter()).collect();
            let offsets: Vec<usize> = (0..nchunks).map(|c| c * lc).collect();
            let got = forward_chunked(&q, &chunks, &offsets, cfg, 0);
            assert!(got.o.max_abs_diff(&full.o) < 1e-4, "nchunks={nchunks}");
            for (a, b) in got.lse.iter().zip(&full.lse) {
                assert!((a - b).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn sliced_queries_reconstruct_full_sequence() {
        // The SlimPipe pattern: process queries slice by slice against the
        // accumulated KV cache; concatenated outputs must equal monolithic
        // attention over the whole sequence.
        let cfg = HeadCfg::new(2, 1, 4);
        let (s, n) = (24, 4);
        let l = s / n;
        let q = seeded_uniform(s, 8, 10);
        let k = seeded_uniform(s, 4, 11);
        let v = seeded_uniform(s, 4, 12);
        let full = forward_full(&q, &k, &v, cfg);

        let mut rebuilt = Tensor::zeros(s, 8);
        for sl in 0..n {
            let qs = q.rows_slice(sl * l, l);
            let ks: Vec<Tensor> = (0..=sl).map(|c| k.rows_slice(c * l, l)).collect();
            let vs: Vec<Tensor> = (0..=sl).map(|c| v.rows_slice(c * l, l)).collect();
            let chunks: Vec<(&Tensor, &Tensor)> = ks.iter().zip(vs.iter()).collect();
            let offsets: Vec<usize> = (0..=sl).map(|c| c * l).collect();
            let got = forward_chunked(&qs, &chunks, &offsets, cfg, sl * l);
            rebuilt.set_rows(sl * l, &got.o);
        }
        assert!(rebuilt.max_abs_diff(&full.o) < 1e-4);
    }

    #[test]
    fn merge_is_order_insensitive() {
        let cfg = HeadCfg::new(2, 2, 4);
        let q = seeded_uniform(6, 8, 13);
        let k = seeded_uniform(12, 8, 14);
        let v = seeded_uniform(12, 8, 15);
        // queries at offset 6..12 so both chunks are fully/partially visible
        let p0 = partial(&q, &k.rows_slice(0, 6), &v.rows_slice(0, 6), cfg, 6, 0);
        let p1 = partial(&q, &k.rows_slice(6, 6), &v.rows_slice(6, 6), cfg, 6, 6);
        let ab = merge_partials(&p0, &p1, cfg);
        let ba = merge_partials(&p1, &p0, cfg);
        assert!(ab.o.max_abs_diff(&ba.o) < 1e-5);
        let full = partial(&q, &k, &v, cfg, 6, 0);
        assert!(ab.o.max_abs_diff(&full.o) < 1e-4);
    }

    #[test]
    fn empty_visibility_yields_zero_mass() {
        let cfg = HeadCfg::new(1, 1, 4);
        let q = seeded_uniform(2, 4, 16);
        let k = seeded_uniform(4, 4, 17);
        let v = seeded_uniform(4, 4, 18);
        // Keys live at positions 10..14; queries at 0..2 see none of them.
        let p = partial(&q, &k, &v, cfg, 0, 10);
        assert!(p.lse.iter().all(|&l| l == f32::NEG_INFINITY));
        assert_eq!(p.o.sq_norm(), 0.0);
    }

    /// Forcing the (head, q-block) parallel path must reproduce the
    /// sequential result bit for bit: tasks own disjoint output regions,
    /// and per-element accumulation order is thread-count-independent.
    #[test]
    fn parallel_forward_and_backward_are_bit_deterministic() {
        let cfg = HeadCfg::new(8, 2, 16);
        let s = 96; // n_heads * s * s * dh > PAR_ATTN_WORK
        let q = seeded_uniform(s, cfg.q_width(), 60);
        let k = seeded_uniform(s, cfg.kv_width(), 61);
        let v = seeded_uniform(s, cfg.kv_width(), 62);
        let d_o = seeded_uniform(s, cfg.q_width(), 63);

        let seq = rayon::with_num_threads(1, || forward_full(&q, &k, &v, cfg));
        let par = rayon::with_num_threads(4, || forward_full(&q, &k, &v, cfg));
        assert_eq!(seq.o, par.o);
        assert_eq!(seq.lse, par.lse);

        let (dq_s, dkv_s) = rayon::with_num_threads(1, || {
            backward_chunked(&q, &[(&k, &v)], &[0], &d_o, &seq.o, &seq.lse, cfg, 0)
        });
        let (dq_p, dkv_p) = rayon::with_num_threads(4, || {
            backward_chunked(&q, &[(&k, &v)], &[0], &d_o, &seq.o, &seq.lse, cfg, 0)
        });
        assert_eq!(dq_s, dq_p);
        assert_eq!(dkv_s[0].0, dkv_p[0].0);
        assert_eq!(dkv_s[0].1, dkv_p[0].1);
    }

    /// The scalar oracle and the production kernels compute the same
    /// attention up to float summation order — forward, lse, and all three
    /// chunk gradients — including across a ragged chunk split.
    #[test]
    fn production_kernels_agree_with_scalar_oracle() {
        let cfg = HeadCfg::new(4, 2, 16);
        let s = 70; // ragged vs Q_BLOCK and KV_TILE
        let q = seeded_uniform(s, cfg.q_width(), 80);
        let k = seeded_uniform(s, cfg.kv_width(), 81);
        let v = seeded_uniform(s, cfg.kv_width(), 82);
        let d_o = seeded_uniform(s, cfg.q_width(), 83);

        // Each side differentiates through its own forward statistics.
        let f_s = oracle::partial(&q, &k, &v, cfg, 0, 0);
        let d_s = d_rows(&d_o, &f_s.o, cfg);
        let (dq_s, dk_s, dv_s) =
            oracle::backward_chunk(&q, &k, &v, &d_o, &f_s.lse, &d_s, cfg, 0, 0);
        let f_g = forward_full(&q, &k, &v, cfg);
        let (dq_g, dkv_g) = backward_chunked(&q, &[(&k, &v)], &[0], &d_o, &f_g.o, &f_g.lse, cfg, 0);
        assert!(f_s.o.max_abs_diff(&f_g.o) < 1e-4);
        for (a, b) in f_s.lse.iter().zip(&f_g.lse) {
            assert!((a - b).abs() < 1e-4);
        }
        assert!(dq_s.max_abs_diff(&dq_g) < 1e-3);
        assert!(dk_s.max_abs_diff(&dkv_g[0].0) < 1e-3);
        assert!(dv_s.max_abs_diff(&dkv_g[0].1) < 1e-3);

        // Ragged split, queries offset so chunks are partially visible.
        let (kc, vc) = (k.rows_slice(3, 41), v.rows_slice(3, 41));
        let p_s = oracle::partial(&q, &kc, &vc, cfg, 10, 3);
        let p_g = partial(&q, &kc, &vc, cfg, 10, 3);
        assert!(p_s.o.max_abs_diff(&p_g.o) < 1e-4);
        for (a, b) in p_s.lse.iter().zip(&p_g.lse) {
            assert!(a == b || (a - b).abs() < 1e-4);
        }
    }

    /// merge_partials_into must equal merge_partials exactly.
    #[test]
    fn in_place_merge_equals_allocating_merge() {
        let cfg = HeadCfg::new(2, 2, 4);
        let q = seeded_uniform(6, 8, 70);
        let k = seeded_uniform(12, 8, 71);
        let v = seeded_uniform(12, 8, 72);
        let p0 = partial(&q, &k.rows_slice(0, 6), &v.rows_slice(0, 6), cfg, 6, 0);
        let p1 = partial(&q, &k.rows_slice(6, 6), &v.rows_slice(6, 6), cfg, 6, 6);
        let want = merge_partials(&p0, &p1, cfg);
        let mut acc = p0;
        merge_partials_into(&mut acc, &p1, cfg);
        assert_eq!(acc.o, want.o);
        assert_eq!(acc.lse, want.lse);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let cfg = HeadCfg::new(2, 1, 4);
        let s = 8;
        let q = seeded_uniform(s, 8, 20);
        let k = seeded_uniform(s, 4, 21);
        let v = seeded_uniform(s, 4, 22);
        let d_o = seeded_uniform(s, 8, 23);

        let fwd = forward_full(&q, &k, &v, cfg);
        let (dq, dkv) = backward_chunked(
            &q,
            &[(&k, &v)],
            &[0],
            &d_o,
            &fwd.o,
            &fwd.lse,
            cfg,
            0,
        );
        let (dk, dv) = (&dkv[0].0, &dkv[0].1);

        let loss = |qq: &Tensor, kk: &Tensor, vv: &Tensor| -> f64 {
            forward_full(qq, kk, vv, cfg)
                .o
                .as_slice()
                .iter()
                .zip(d_o.as_slice())
                .map(|(a, b)| (*a as f64) * (*b as f64))
                .sum()
        };
        let eps = 1e-2f32;
        for idx in [0usize, 13, 37, 63] {
            let mut qp = q.clone();
            qp.as_mut_slice()[idx] += eps;
            let mut qm = q.clone();
            qm.as_mut_slice()[idx] -= eps;
            let fd = (loss(&qp, &k, &v) - loss(&qm, &k, &v)) / (2.0 * eps as f64);
            assert!(
                (fd - dq.as_slice()[idx] as f64).abs() < 2e-2,
                "dq[{idx}] fd={fd} got={}",
                dq.as_slice()[idx]
            );
        }
        for idx in [0usize, 9, 21, 31] {
            let mut kp = k.clone();
            kp.as_mut_slice()[idx] += eps;
            let mut km = k.clone();
            km.as_mut_slice()[idx] -= eps;
            let fd = (loss(&q, &kp, &v) - loss(&q, &km, &v)) / (2.0 * eps as f64);
            assert!((fd - dk.as_slice()[idx] as f64).abs() < 2e-2, "dk[{idx}]");

            let mut vp = v.clone();
            vp.as_mut_slice()[idx] += eps;
            let mut vm = v.clone();
            vm.as_mut_slice()[idx] -= eps;
            let fd = (loss(&q, &k, &vp) - loss(&q, &k, &vm)) / (2.0 * eps as f64);
            assert!((fd - dv.as_slice()[idx] as f64).abs() < 2e-2, "dv[{idx}]");
        }
    }

    #[test]
    fn chunked_backward_equals_monolithic_backward() {
        let cfg = HeadCfg::new(2, 2, 4);
        let s = 12;
        let q = seeded_uniform(s, 8, 30);
        let k = seeded_uniform(s, 8, 31);
        let v = seeded_uniform(s, 8, 32);
        let d_o = seeded_uniform(s, 8, 33);

        let fwd = forward_full(&q, &k, &v, cfg);
        let (dq_ref, dkv_ref) =
            backward_chunked(&q, &[(&k, &v)], &[0], &d_o, &fwd.o, &fwd.lse, cfg, 0);

        let lc = 4;
        let ks: Vec<Tensor> = (0..3).map(|c| k.rows_slice(c * lc, lc)).collect();
        let vs: Vec<Tensor> = (0..3).map(|c| v.rows_slice(c * lc, lc)).collect();
        let chunks: Vec<(&Tensor, &Tensor)> = ks.iter().zip(vs.iter()).collect();
        let offsets = [0, 4, 8];
        let fwd2 = forward_chunked(&q, &chunks, &offsets, cfg, 0);
        let (dq, dkv) =
            backward_chunked(&q, &chunks, &offsets, &d_o, &fwd2.o, &fwd2.lse, cfg, 0);

        assert!(dq.max_abs_diff(&dq_ref) < 1e-4);
        let mut dk_cat = Tensor::zeros(s, 8);
        let mut dv_cat = Tensor::zeros(s, 8);
        for (c, (dk, dv)) in dkv.iter().enumerate() {
            dk_cat.set_rows(c * lc, dk);
            dv_cat.set_rows(c * lc, dv);
        }
        assert!(dk_cat.max_abs_diff(&dkv_ref[0].0) < 1e-4);
        assert!(dv_cat.max_abs_diff(&dkv_ref[0].1) < 1e-4);
    }
}
