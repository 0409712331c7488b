//! Softmax cross-entropy, monolithic and vocabulary-sharded.
//!
//! Vocabulary parallelism (paper §4.3) computes the output-layer GEMM
//! column-wise across pipeline devices and derives the loss "from the
//! sharded logits", synchronising only scalar statistics per token. The
//! sharded path here mirrors that exactly: each shard reports a per-row
//! `(max, sumexp, target-logit)` triple; combining the triples yields the
//! global log-sum-exp, and each shard then computes its own slice of
//! `d_logits` locally. Communication is `O(rows)` scalars instead of
//! `O(rows × vocab)` logits — the paper's "drastically reduced" volume.

use crate::ops::exp_sub_row;
use crate::tensor::Tensor;

/// Monolithic reference: returns `(summed loss, d_logits)` where
/// `d_logits = softmax(logits) - onehot(target)` (unscaled; callers divide
/// by the global token count).
#[allow(clippy::needless_range_loop)] // `r` indexes logits, d, and targets in lockstep
pub fn forward_backward(logits: &Tensor, targets: &[u32]) -> (f64, Tensor) {
    assert_eq!(logits.rows(), targets.len(), "row/target mismatch");
    let mut d = logits.copy_pooled();
    let mut loss = 0.0f64;
    for r in 0..logits.rows() {
        let row = d.row_mut(r);
        let t = targets[r] as usize;
        assert!(t < row.len(), "target out of vocabulary");
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let sum = exp_sub_row(row, m);
        let lse = m + sum.ln();
        loss += (lse - logits.at(r, t)) as f64;
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
        row[t] -= 1.0;
    }
    (loss, d)
}

/// Per-shard statistics for one slice of rows. `target_logit` is finite only
/// on the shard that owns the target column.
#[derive(Clone, Debug)]
pub struct ShardStats {
    pub max: Vec<f32>,
    pub sumexp: Vec<f32>,
    pub target_logit: Vec<f32>,
}

/// Globally combined statistics.
#[derive(Clone, Debug)]
pub struct GlobalStats {
    pub lse: Vec<f32>,
    pub target_logit: Vec<f32>,
}

/// Pass 1 on one vocabulary shard: local max / sum-exp / target pick-up.
/// The shard is the kernel's scratch: on return each row holds
/// `exp(logit − row max)`.
#[allow(clippy::needless_range_loop)] // `r` indexes the shard and targets in lockstep
pub fn shard_stats(logits_shard: &mut Tensor, targets: &[u32], vocab_offset: usize) -> ShardStats {
    assert_eq!(logits_shard.rows(), targets.len(), "row/target mismatch");
    let w = logits_shard.cols();
    let mut max = Vec::with_capacity(targets.len());
    let mut sumexp = Vec::with_capacity(targets.len());
    let mut target_logit = Vec::with_capacity(targets.len());
    for r in 0..logits_shard.rows() {
        let row = logits_shard.row_mut(r);
        let t = targets[r] as usize;
        target_logit.push(if t >= vocab_offset && t < vocab_offset + w {
            row[t - vocab_offset]
        } else {
            f32::NEG_INFINITY
        });
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        max.push(m);
        sumexp.push(exp_sub_row(row, m));
    }
    ShardStats { max, sumexp, target_logit }
}

/// Combine per-shard statistics (the scalar all-reduce of §4.3).
#[allow(clippy::needless_range_loop)] // `r` indexes every shard vector in lockstep
pub fn combine_stats(stats: &[ShardStats]) -> GlobalStats {
    assert!(!stats.is_empty(), "need at least one shard");
    let rows = stats[0].max.len();
    let mut lse = Vec::with_capacity(rows);
    let mut target_logit = vec![f32::NEG_INFINITY; rows];
    for r in 0..rows {
        let m = stats.iter().map(|s| s.max[r]).fold(f32::NEG_INFINITY, f32::max);
        let z: f32 = stats.iter().map(|s| s.sumexp[r] * (s.max[r] - m).exp()).sum();
        lse.push(m + z.ln());
        for s in stats {
            if s.target_logit[r] > target_logit[r] {
                target_logit[r] = s.target_logit[r];
            }
        }
    }
    GlobalStats { lse, target_logit }
}

/// Summed loss from the combined statistics.
pub fn loss_from_stats(g: &GlobalStats) -> f64 {
    g.lse
        .iter()
        .zip(&g.target_logit)
        .map(|(l, t)| (*l - *t) as f64)
        .sum()
}

/// Pass 2 on one shard: local slice of `d_logits` from the global lse.
pub fn shard_backward(
    logits_shard: &Tensor,
    targets: &[u32],
    vocab_offset: usize,
    lse: &[f32],
) -> Tensor {
    let w = logits_shard.cols();
    let mut d = logits_shard.copy_pooled();
    for r in 0..d.rows() {
        let l = lse[r];
        let row = d.row_mut(r);
        exp_sub_row(row, l);
        let t = targets[r] as usize;
        if t >= vocab_offset && t < vocab_offset + w {
            row[t - vocab_offset] -= 1.0;
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{seeded_tokens, seeded_uniform};

    #[test]
    fn loss_of_perfect_prediction_is_small() {
        // Huge logit on the target → near-zero loss.
        let mut logits = Tensor::zeros(2, 4);
        *logits.at_mut(0, 1) = 30.0;
        *logits.at_mut(1, 3) = 30.0;
        let (loss, _) = forward_backward(&logits, &[1, 3]);
        assert!(loss < 1e-4);
    }

    #[test]
    fn d_logits_rows_sum_to_zero() {
        let logits = seeded_uniform(5, 11, 1);
        let targets = seeded_tokens(5, 11, 2);
        let (_, d) = forward_backward(&logits, &targets);
        for r in 0..5 {
            let s: f32 = d.row(r).iter().sum();
            assert!(s.abs() < 1e-5);
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits = seeded_uniform(3, 7, 3);
        let targets = seeded_tokens(3, 7, 4);
        let (_, d) = forward_backward(&logits, &targets);
        let eps = 1e-2f32;
        for idx in [0usize, 8, 20] {
            let mut lp = logits.clone();
            lp.as_mut_slice()[idx] += eps;
            let mut lm = logits.clone();
            lm.as_mut_slice()[idx] -= eps;
            let fp = forward_backward(&lp, &targets).0;
            let fm = forward_backward(&lm, &targets).0;
            let fd = (fp - fm) / (2.0 * eps as f64);
            assert!((fd - d.as_slice()[idx] as f64).abs() < 1e-3, "idx={idx}");
        }
    }

    #[test]
    fn sharded_equals_monolithic() {
        let rows = 6;
        let vocab = 12;
        let logits = seeded_uniform(rows, vocab, 5);
        let targets = seeded_tokens(rows, vocab, 6);
        let (ref_loss, ref_d) = forward_backward(&logits, &targets);

        for &shards in &[2usize, 3, 4] {
            let w = vocab / shards;
            let stats: Vec<ShardStats> = (0..shards)
                .map(|s| shard_stats(&mut logits.cols_slice(s * w, w), &targets, s * w))
                .collect();
            let g = combine_stats(&stats);
            let loss = loss_from_stats(&g);
            assert!((loss - ref_loss).abs() < 1e-4, "shards={shards}");

            let mut d_cat = Tensor::zeros(rows, vocab);
            for s in 0..shards {
                let ds =
                    shard_backward(&logits.cols_slice(s * w, w), &targets, s * w, &g.lse);
                d_cat.set_cols(s * w, &ds);
            }
            assert!(d_cat.max_abs_diff(&ref_d) < 1e-5, "shards={shards}");
        }
    }

    #[test]
    fn scalar_sync_volume_is_rows_not_rows_times_vocab() {
        // The whole point of §4.3: a shard's synchronised state is 3 scalars
        // per row regardless of vocabulary width.
        let logits = seeded_uniform(4, 1024, 7);
        let targets = seeded_tokens(4, 1024, 8);
        let s = shard_stats(&mut logits.cols_slice(0, 512), &targets, 0);
        assert_eq!(s.max.len() + s.sumexp.len() + s.target_logit.len(), 12);
    }
}
