//! Bit-determinism of the parallel kernels under forced worker-pool widths.
//!
//! The worker pool distributes `(head, q-block)` forward tasks and
//! `(KV-head group, q-block)` backward tasks over however many threads the
//! caller requests; every kernel partitions its outputs into disjoint task
//! regions and reduces cross-task partials in fixed task order, so the
//! *bits* of every result must be independent of the width. These property
//! tests force widths 1, 2, 4, and 8 (`rayon::with_num_threads` — the
//! same switch `RAYON_NUM_THREADS` flips process-wide) on arbitrary GQA
//! geometries, covering `n_kv ∈ {1, 2, n_heads}` — MQA, grouped, and full
//! multi-head — over both the chunked paths (`forward_chunked` /
//! `backward_chunked`) and the exchanged path (`backward_chunk` of a
//! non-diagonal chunk at a remote `kv_offset`, exactly what context
//! exchange ships to another device).
//!
//! Sizes are chosen to clear the `PAR_ATTN_WORK` threshold with several
//! q-blocks, so the parallel decomposition is actually exercised rather
//! than the sequential fallback.

use proptest::prelude::*;
use slimpipe_tensor::attention::{
    backward_chunk, backward_chunked, d_rows, forward_chunked, partial, HeadCfg,
};
use slimpipe_tensor::init::seeded_uniform;
use slimpipe_tensor::Tensor;

const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// One full forward + chunked backward + exchanged single-chunk backward,
/// at a given pool width. Returns every produced buffer for bit comparison.
#[allow(clippy::type_complexity)]
fn run_all_paths(
    width: usize,
    cfg: HeadCfg,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    d_o: &Tensor,
    nchunks: usize,
) -> (Tensor, Vec<f32>, Tensor, Vec<(Tensor, Tensor)>, (Tensor, Tensor, Tensor)) {
    rayon::with_num_threads(width, || {
        let s = q.rows();
        let lc = s / nchunks;
        let ks: Vec<Tensor> = (0..nchunks).map(|c| k.rows_slice(c * lc, lc)).collect();
        let vs: Vec<Tensor> = (0..nchunks).map(|c| v.rows_slice(c * lc, lc)).collect();
        let chunks: Vec<(&Tensor, &Tensor)> = ks.iter().zip(vs.iter()).collect();
        let offsets: Vec<usize> = (0..nchunks).map(|c| c * lc).collect();

        let fwd = forward_chunked(q, &chunks, &offsets, cfg, 0);
        let (dq, dkv) =
            backward_chunked(q, &chunks, &offsets, d_o, &fwd.o, &fwd.lse, cfg, 0);

        // The exchanged path: the backward of one non-diagonal chunk in
        // isolation, exactly the job context exchange ships to a remote
        // device (chunk 0 as seen by the *last* slice's queries).
        let d = d_rows(d_o, &fwd.o, cfg);
        let exchanged = backward_chunk(q, &ks[0], &vs[0], d_o, &fwd.lse, &d, cfg, 0, 0);
        (fwd.o, fwd.lse, dq, dkv, exchanged)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Forward AND backward bits are identical across pool widths 1/2/4/8
    /// for every GQA grouping, on chunked and exchanged paths alike.
    #[test]
    fn attention_is_bit_identical_across_widths(
        kv_sel in 0usize..3,
        size_sel in 0usize..2,
        nchunks in 1usize..3,
        seed in 0u64..200,
    ) {
        let n_heads = 8;
        let n_kv = [1, 2, n_heads][kv_sel]; // MQA, grouped, full MHA
        let cfg = HeadCfg::new(n_heads, n_kv, 16);
        // ≥ 2 q-blocks (Q_BLOCK = 64) and comfortably past PAR_ATTN_WORK.
        let s = [96usize, 128][size_sel];
        let q = seeded_uniform(s, cfg.q_width(), seed);
        let k = seeded_uniform(s, cfg.kv_width(), seed + 1);
        let v = seeded_uniform(s, cfg.kv_width(), seed + 2);
        let d_o = seeded_uniform(s, cfg.q_width(), seed + 3);

        let reference = run_all_paths(WIDTHS[0], cfg, &q, &k, &v, &d_o, nchunks);
        for &w in &WIDTHS[1..] {
            let got = run_all_paths(w, cfg, &q, &k, &v, &d_o, nchunks);
            prop_assert_eq!(&got.0, &reference.0, "forward O differs at width {}", w);
            prop_assert_eq!(&got.1, &reference.1, "lse differs at width {}", w);
            prop_assert_eq!(&got.2, &reference.2, "dQ differs at width {}", w);
            prop_assert_eq!(got.3.len(), reference.3.len());
            for (c, ((dk, dv), (rk, rv))) in got.3.iter().zip(&reference.3).enumerate() {
                prop_assert_eq!(dk, rk, "dK chunk {} differs at width {}", c, w);
                prop_assert_eq!(dv, rv, "dV chunk {} differs at width {}", c, w);
            }
            prop_assert_eq!(&got.4.0, &reference.4.0, "exchanged dQ differs at width {}", w);
            prop_assert_eq!(&got.4.1, &reference.4.1, "exchanged dK differs at width {}", w);
            prop_assert_eq!(&got.4.2, &reference.4.2, "exchanged dV differs at width {}", w);
        }
    }

    /// `partial` runs its tasks through one scratch block per slot (at
    /// most the pool width), so at this size every slot runs many tasks in
    /// whatever order it claims them; the bits must not notice. Covers a
    /// ragged, partially visible chunk (queries offset past the keys).
    #[test]
    fn partial_is_bit_identical_across_widths_with_many_tasks_per_slot(
        kv_sel in 0usize..3,
        ragged in 0usize..2,
        seed in 0u64..200,
    ) {
        let n_heads = 8;
        let cfg = HeadCfg::new(n_heads, [1, 2, n_heads][kv_sel], 16);
        // 8 heads × 7–8 q-blocks: 56–64 tasks against at most 8 slots.
        let (lq, lc, q_offset, kv_offset) = [(512, 512, 0, 0), (449, 301, 120, 37)][ragged];
        let q = seeded_uniform(lq, cfg.q_width(), seed);
        let k = seeded_uniform(lc, cfg.kv_width(), seed + 1);
        let v = seeded_uniform(lc, cfg.kv_width(), seed + 2);
        let run = |w: usize| {
            rayon::with_num_threads(w, || partial(&q, &k, &v, cfg, q_offset, kv_offset))
        };
        let reference = run(WIDTHS[0]);
        for &w in &WIDTHS[1..] {
            let got = run(w);
            prop_assert_eq!(&got.o, &reference.o, "partial O differs at width {}", w);
            prop_assert_eq!(&got.lse, &reference.lse, "partial lse differs at width {}", w);
        }
    }

    /// The tiled GEMM row-block dispatch is width-independent too — the
    /// other kernel the executor's determinism guarantee leans on.
    #[test]
    fn gemm_is_bit_identical_across_widths(
        m in 65usize..200,
        k in 64usize..300,
        n in 64usize..128,
        seed in 0u64..200,
    ) {
        use slimpipe_tensor::matmul::{matmul, matmul_nt, matmul_tn};
        let a = seeded_uniform(m, k, seed);
        let b = seeded_uniform(k, n, seed + 1);
        let bt = b.transposed();
        let at = a.transposed();
        let (c1, nt1, tn1) = rayon::with_num_threads(1, || {
            (matmul(&a, &b), matmul_nt(&a, &bt), matmul_tn(&at, &b))
        });
        for &w in &WIDTHS[1..] {
            let (cw, ntw, tnw) = rayon::with_num_threads(w, || {
                (matmul(&a, &b), matmul_nt(&a, &bt), matmul_tn(&at, &b))
            });
            prop_assert_eq!(&cw, &c1, "nn differs at width {}", w);
            prop_assert_eq!(&ntw, &nt1, "nt differs at width {}", w);
            prop_assert_eq!(&tnw, &tn1, "tn differs at width {}", w);
        }
    }
}
