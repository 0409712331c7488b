//! Executor-level model configuration and deterministic parameter builds.
//!
//! The slicing axis is explicit: every microbatch's sequence is partitioned
//! by a [`SlicePolicy`] into a [`Slicing`] (token-range bounds), and every
//! consumer — stages, the exchange planner, the training driver — indexes
//! KV chunks, stashes, and channel messages by those *ranges*, never by
//! `slice * slice_len`. Microbatches may be ragged (per-microbatch sequence
//! lengths via [`ExecConfig::mb_seqs`]).

use crate::fault::{FaultKind, FaultPlan};
use slimpipe_core::{SlicePolicy, Slicing};
use slimpipe_tensor::attention::HeadCfg;
use slimpipe_tensor::init::seeded_xavier;
use slimpipe_tensor::Tensor;
use std::ops::Range;
use std::path::PathBuf;

/// Iteration-boundary checkpointing: write a snapshot to an immutable
/// `{path}.it{N}` sibling after every `every` completed iterations, with
/// `path` itself the crash-safe *latest* manifest naming the newest
/// snapshot (see `crate::checkpoint`).
#[derive(Clone, Debug)]
pub struct CheckpointCfg {
    pub every: usize,
    pub path: PathBuf,
    /// Retention: prune all but the newest `keep_last` snapshots after each
    /// save; `0` keeps every snapshot (unbounded).
    pub keep_last: usize,
}

/// Shape and run parameters of an executor model. Kept small — these train
/// for real on CPU threads.
#[derive(Clone, Debug)]
pub struct ExecConfig {
    pub layers: usize,
    pub heads: usize,
    pub kv_heads: usize,
    pub head_dim: usize,
    pub ffn: usize,
    pub vocab: usize,
    /// Default sequence length of a microbatch (tokens). Individual
    /// microbatches may override it through [`ExecConfig::mb_seqs`].
    pub seq: usize,
    /// Slices per microbatch (1 = microbatch granularity). Individual
    /// microbatches may override it through [`ExecConfig::mb_slices`].
    pub slices: usize,
    /// Per-microbatch slice counts (must have `microbatches` entries when
    /// set). `None` = every microbatch is cut into `slices` slices. What
    /// the slicing planner emits for workloads whose microbatches deserve
    /// different granularities.
    pub mb_slices: Option<Vec<usize>>,
    /// How each microbatch's sequence is cut into those slices.
    pub slicing: SlicePolicy,
    pub microbatches: usize,
    /// Ragged microbatches: per-microbatch sequence lengths (must have
    /// `microbatches` entries). `None` = every microbatch is `seq` tokens.
    pub mb_seqs: Option<Vec<usize>>,
    /// Pipeline stages (threads).
    pub stages: usize,
    pub vocab_parallel: bool,
    pub exchange: bool,
    /// Must be `true`: the overlapped exchange runtime (bounded
    /// double-buffered boundary channels with a non-blocking posted-send
    /// overflow; exchange dispatches every remote chunk before computing
    /// local ones) is the only one, and [`Self::validate`] rejects `false`.
    /// The field remains only because the benchmark harness names it; the
    /// next benchmark revision removes it.
    pub async_exchange: bool,
    pub seed: u64,
    /// Deterministic fault-injection schedule (`None` = clean run).
    pub fault_plan: Option<FaultPlan>,
    /// Stuck-rendezvous watchdog per blocking wait, in milliseconds.
    pub watchdog_ms: u64,
    /// Per-attempt timeout for an exchange reply, in milliseconds.
    pub exchange_timeout_ms: u64,
    /// Resubmission budget for a timed-out exchange reply.
    pub exchange_retries: u32,
    /// Iteration-boundary checkpointing (`None` = never snapshot).
    pub checkpoint: Option<CheckpointCfg>,
}

impl ExecConfig {
    /// A small but non-trivial default: GQA, 2 slices per stage worth of
    /// layers, divisible everywhere.
    pub fn small() -> Self {
        Self {
            layers: 4,
            heads: 4,
            kv_heads: 2,
            head_dim: 8,
            ffn: 64,
            vocab: 96,
            seq: 64,
            slices: 4,
            mb_slices: None,
            slicing: SlicePolicy::Uniform,
            microbatches: 2,
            mb_seqs: None,
            stages: 2,
            vocab_parallel: false,
            exchange: false,
            async_exchange: true,
            seed: 7,
            fault_plan: None,
            // Generous defaults: on an unloaded host a healthy rendezvous
            // completes in microseconds; these only fire when a peer is
            // genuinely gone or wedged.
            watchdog_ms: 10_000,
            exchange_timeout_ms: 2_000,
            exchange_retries: 3,
            checkpoint: None,
        }
    }

    pub fn hidden(&self) -> usize {
        self.heads * self.head_dim
    }

    pub fn kv_hidden(&self) -> usize {
        self.kv_heads * self.head_dim
    }

    pub fn head_cfg(&self) -> HeadCfg {
        HeadCfg::new(self.heads, self.kv_heads, self.head_dim)
    }

    /// Sequence length of microbatch `mb` (ragged-aware).
    pub fn mb_seq(&self, mb: usize) -> usize {
        match &self.mb_seqs {
            Some(seqs) => seqs[mb],
            None => self.seq,
        }
    }

    /// Slice count of microbatch `mb` (per-microbatch counts respected).
    pub fn slices_of(&self, mb: usize) -> usize {
        match &self.mb_slices {
            Some(ns) => ns[mb],
            None => self.slices,
        }
    }

    /// Tokens across the whole iteration — the loss normaliser.
    pub fn total_tokens(&self) -> usize {
        (0..self.microbatches).map(|mb| self.mb_seq(mb)).sum()
    }

    /// The slice partition of microbatch `mb` under this config's policy.
    pub fn slicing_of(&self, mb: usize) -> Slicing {
        Slicing::for_microbatch(&self.slicing, mb, self.mb_seq(mb) as u64, self.slices_of(mb))
    }

    /// All microbatch slicings, in order — what stages and the driver
    /// precompute once per run instead of rederiving offsets per op.
    pub fn slicings(&self) -> Vec<Slicing> {
        (0..self.microbatches).map(|mb| self.slicing_of(mb)).collect()
    }

    /// `(mb, slice) → token range` table: `map[mb][slice]` is the global
    /// token range of that unit within its microbatch's sequence.
    pub fn slice_map(&self) -> Vec<Vec<Range<usize>>> {
        self.slicings()
            .iter()
            .map(|s| {
                (0..s.n())
                    .map(|i| {
                        let (start, len) = s.slice(i);
                        start as usize..(start + len) as usize
                    })
                    .collect()
            })
            .collect()
    }

    /// Uniform slice length — only meaningful for non-ragged
    /// [`SlicePolicy::Uniform`] configs with divisible geometry (the
    /// pre-refactor invariant; ranged consumers use [`Self::slice_map`]).
    pub fn slice_len(&self) -> usize {
        assert_eq!(self.slicing, SlicePolicy::Uniform, "slice_len is uniform-only");
        assert!(self.mb_seqs.is_none(), "slice_len is non-ragged-only");
        assert!(self.mb_slices.is_none(), "slice_len needs a global slice count");
        assert!(self.seq.is_multiple_of(self.slices), "slices must divide seq");
        self.seq / self.slices
    }

    /// Config sanity: every microbatch must slice into `slices` non-empty
    /// token ranges, explicit bounds must match every microbatch's length,
    /// and the pipeline geometry must divide. Called by the executor before
    /// building schedules or stages.
    pub fn validate(&self) -> Result<(), String> {
        if self.layers == 0 || self.stages == 0 || self.microbatches == 0 || self.slices == 0 {
            return Err("layers, stages, microbatches, slices must be positive".into());
        }
        if !self.layers.is_multiple_of(self.stages) {
            return Err(format!(
                "stages ({}) must divide layers ({})",
                self.stages, self.layers
            ));
        }
        if self.vocab_parallel && !self.vocab.is_multiple_of(self.stages) {
            return Err(format!(
                "vocabulary parallelism needs stages ({}) to divide vocab ({})",
                self.stages, self.vocab
            ));
        }
        if let Some(seqs) = &self.mb_seqs {
            if seqs.len() != self.microbatches {
                return Err(format!(
                    "mb_seqs has {} entries for {} microbatches",
                    seqs.len(),
                    self.microbatches
                ));
            }
        }
        if let Some(ns) = &self.mb_slices {
            if ns.len() != self.microbatches {
                return Err(format!(
                    "mb_slices has {} entries for {} microbatches",
                    ns.len(),
                    self.microbatches
                ));
            }
            if ns.contains(&0) {
                return Err("per-microbatch slice counts must be positive".into());
            }
        }
        if let SlicePolicy::ExplicitPerMb(per_mb) = &self.slicing {
            if per_mb.len() != self.microbatches {
                return Err(format!(
                    "per-microbatch bounds cover {} of {} microbatches",
                    per_mb.len(),
                    self.microbatches
                ));
            }
        }
        for mb in 0..self.microbatches {
            let seq = self.mb_seq(mb);
            let n = self.slices_of(mb);
            if seq < n {
                return Err(format!(
                    "microbatch {mb}: {seq} tokens cannot fill {n} slices"
                ));
            }
            let bounds = match &self.slicing {
                SlicePolicy::Explicit(bounds) => Some(bounds),
                SlicePolicy::ExplicitPerMb(per_mb) => Some(&per_mb[mb]),
                _ => None,
            };
            if let Some(bounds) = bounds {
                if bounds.len() != n + 1 {
                    return Err(format!(
                        "microbatch {mb}: explicit bounds have {} entries for {n} slices",
                        bounds.len()
                    ));
                }
                // Shared invariants (start at 0, strictly increasing, end
                // at this microbatch's seq) live in Slicing::try_explicit.
                Slicing::try_explicit(seq as u64, bounds.clone())
                    .map_err(|e| format!("microbatch {mb}: {e}"))?;
            }
        }
        if let Some(plan) = &self.fault_plan {
            for (site, kind) in &plan.faults {
                if site.stage >= self.stages {
                    return Err(format!(
                        "fault site names stage {} of {}",
                        site.stage, self.stages
                    ));
                }
                if site.mb as usize >= self.microbatches {
                    return Err(format!(
                        "fault site names microbatch {} of {}",
                        site.mb, self.microbatches
                    ));
                }
                if matches!(kind, FaultKind::CorruptActivation) && site.stage == 0 {
                    return Err(
                        "CorruptActivation models transfer corruption: stage 0 receives \
                         tokens, not activations"
                            .into(),
                    );
                }
                if let FaultKind::ServerDeath { device } = kind {
                    if *device >= self.stages {
                        return Err(format!(
                            "fault kills server {} of {}",
                            device, self.stages
                        ));
                    }
                }
            }
        }
        if let Some(ck) = &self.checkpoint {
            if ck.every == 0 {
                return Err("checkpoint interval must be positive".into());
            }
        }
        if self.watchdog_ms == 0 || self.exchange_timeout_ms == 0 {
            return Err("watchdog and exchange timeouts must be positive".into());
        }
        if !self.async_exchange {
            return Err("async_exchange = false is not supported: the overlapped exchange \
                        runtime is the only one"
                .into());
        }
        Ok(())
    }

    pub fn layers_per_stage(&self) -> usize {
        assert!(self.layers.is_multiple_of(self.stages), "stages must divide layers");
        self.layers / self.stages
    }

    /// Deterministic seed for parameter matrix `which` of global layer
    /// `layer` — identical regardless of which stage materialises it.
    pub fn param_seed(&self, layer: usize, which: u64) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((layer as u64).wrapping_mul(131))
            .wrapping_add(which)
    }

    /// Embedding table (tied with the output projection).
    pub fn build_embedding(&self) -> Tensor {
        seeded_xavier(self.vocab, self.hidden(), self.param_seed(usize::MAX - 1, 0))
    }

    /// Final-norm gain.
    pub fn build_final_norm(&self) -> Vec<f32> {
        vec![1.0; self.hidden()]
    }

    /// Output projection `(hidden, vocab)`. Independent weights (untied)
    /// keep the gradient bookkeeping in tests simple.
    pub fn build_output(&self) -> Tensor {
        seeded_xavier(self.hidden(), self.vocab, self.param_seed(usize::MAX - 2, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_stable_and_distinct() {
        let c = ExecConfig::small();
        assert_eq!(c.param_seed(2, 3), c.param_seed(2, 3));
        assert_ne!(c.param_seed(2, 3), c.param_seed(3, 3));
        assert_ne!(c.param_seed(2, 3), c.param_seed(2, 4));
    }

    #[test]
    fn geometry_is_divisible() {
        let c = ExecConfig::small();
        assert_eq!(c.hidden(), 32);
        assert_eq!(c.kv_hidden(), 16);
        assert_eq!(c.slice_len(), 16);
        assert_eq!(c.layers_per_stage(), 2);
    }

    #[test]
    fn embedding_is_deterministic() {
        let c = ExecConfig::small();
        assert_eq!(c.build_embedding(), c.build_embedding());
    }

    #[test]
    fn slice_map_covers_each_microbatch_contiguously() {
        let c = ExecConfig {
            slicing: SlicePolicy::PairBalanced,
            mb_seqs: Some(vec![48, 80]),
            ..ExecConfig::small()
        };
        c.validate().unwrap();
        let map = c.slice_map();
        assert_eq!(map.len(), 2);
        for (mb, ranges) in map.iter().enumerate() {
            assert_eq!(ranges.len(), c.slices);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, c.mb_seq(mb));
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "ranges must tile the sequence");
                assert!(!w[0].is_empty() && !w[1].is_empty());
            }
        }
        assert_eq!(c.total_tokens(), 128);
    }

    #[test]
    fn validate_rejects_bad_geometry() {
        let base = ExecConfig::small();
        assert!(ExecConfig { mb_seqs: Some(vec![64]), ..base.clone() }
            .validate()
            .is_err());
        assert!(ExecConfig { mb_seqs: Some(vec![64, 2]), slices: 4, ..base.clone() }
            .validate()
            .is_err());
        assert!(ExecConfig {
            slicing: SlicePolicy::Explicit(vec![0, 10, 63]),
            slices: 2,
            ..base.clone()
        }
        .validate()
        .is_err());
        // Non-monotone and non-zero-start bounds are rejected gracefully,
        // not left to panic downstream in Slicing::explicit.
        assert!(ExecConfig {
            slicing: SlicePolicy::Explicit(vec![0, 40, 30, 64]),
            slices: 3,
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(ExecConfig {
            slicing: SlicePolicy::Explicit(vec![4, 30, 64]),
            slices: 2,
            ..base.clone()
        }
        .validate()
        .is_err());
        let err = ExecConfig { async_exchange: false, ..base.clone() }.validate().unwrap_err();
        assert!(err.contains("async_exchange"), "{err}");
        assert!(base.validate().is_ok());
    }

    #[test]
    fn slice_len_matches_uniform_slicing() {
        let c = ExecConfig::small();
        let s = c.slicing_of(0);
        for i in 0..c.slices {
            assert_eq!(s.len(i) as usize, c.slice_len());
        }
    }
}
