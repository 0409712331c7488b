//! Kernel efficiency curves: FLOPs → seconds.
//!
//! Three effects the paper leans on are modelled here:
//!
//! 1. **Arithmetic-intensity saturation** — "Slices are prevented from being
//!    too short to maintain sufficient arithmetic intensity" (§4.1.1) and
//!    Figure 11's MFU collapse at large slice counts. Efficiency follows a
//!    saturating curve `η(x) = η_max · x / (x + x_half)` in the number of
//!    tokens (GEMM) or mean attended length (attention).
//! 2. **Forward/backward MFU disparity** — §2.2: "When accounting for modern
//!    optimizations like Flash Attention and the inherent MFU disparity
//!    between forward/backward passes, the situation further deteriorates."
//! 3. **Kernel launch overhead** — a fixed per-kernel cost that penalises
//!    very fine-grained passes.
//!
//! The constants are calibrated so end-to-end simulated MFUs land in the
//! paper's reported 15–50 % band; `fig12_end_to_end` and `fig13_scheme_mfu`
//! print them (README, "Paper experiments").

/// Operator class, for efficiency selection and ZB-V's B/W decomposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Dense projections (QKV/out/MLP/vocab) — weight-bearing GEMMs.
    Gemm,
    /// Core attention `softmax(QKᵀ)V` — weight-free.
    Attention,
}

/// Forward or backward pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    Forward,
    Backward,
}

/// Efficiency model for one GPU generation.
#[derive(Clone, Copy, Debug)]
pub struct Efficiency {
    /// Peak fraction achieved by large forward GEMMs.
    pub gemm_fwd: f64,
    /// Peak fraction achieved by large backward GEMMs.
    pub gemm_bwd: f64,
    /// Peak fraction of flash-attention forward.
    pub attn_fwd: f64,
    /// Peak fraction of flash-attention backward (markedly lower — the ZB-V
    /// imbalance driver).
    pub attn_bwd: f64,
    /// Tokens at which a GEMM reaches half its peak fraction.
    pub gemm_half_tokens: f64,
    /// Mean attended KV length at which attention reaches half its peak.
    pub attn_half_len: f64,
    /// Seconds of fixed overhead per kernel launch.
    pub launch_overhead: f64,
    /// Kernel launches per transformer layer per pass (forward).
    pub kernels_per_layer: f64,
}

impl Efficiency {
    /// Calibrated Hopper-class defaults.
    pub fn hopper() -> Self {
        Self {
            gemm_fwd: 0.85,
            gemm_bwd: 0.78,
            attn_fwd: 0.60,
            attn_bwd: 0.42,
            gemm_half_tokens: 1024.0,
            attn_half_len: 2048.0,
            launch_overhead: 6e-6,
            kernels_per_layer: 8.0,
        }
    }

    /// Achieved fraction of peak for an op of `class`/`phase` whose
    /// saturation variable (tokens or mean KV length) is `x`.
    pub fn fraction(&self, class: OpClass, phase: Phase, x: f64) -> f64 {
        let (max, half) = match (class, phase) {
            (OpClass::Gemm, Phase::Forward) => (self.gemm_fwd, self.gemm_half_tokens),
            (OpClass::Gemm, Phase::Backward) => (self.gemm_bwd, self.gemm_half_tokens),
            (OpClass::Attention, Phase::Forward) => (self.attn_fwd, self.attn_half_len),
            (OpClass::Attention, Phase::Backward) => (self.attn_bwd, self.attn_half_len),
        };
        if x <= 0.0 {
            return max * 1e-3; // degenerate op: crawl, don't divide by zero
        }
        max * x / (x + half)
    }

    /// Seconds for `flops` of work at saturation variable `x` on a device
    /// with `peak_flops`.
    pub fn op_time(
        &self,
        class: OpClass,
        phase: Phase,
        flops: f64,
        x: f64,
        peak_flops: f64,
    ) -> f64 {
        if flops <= 0.0 {
            return 0.0;
        }
        flops / (peak_flops * self.fraction(class, phase, x))
    }

    /// Fixed overhead of one layer's worth of kernels in `phase`
    /// (backward launches roughly twice the kernels).
    pub fn layer_overhead(&self, phase: Phase) -> f64 {
        let mult = match phase {
            Phase::Forward => 1.0,
            Phase::Backward => 2.0,
        };
        self.kernels_per_layer * self.launch_overhead * mult
    }
}

impl Default for Efficiency {
    fn default() -> Self {
        Self::hopper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturation_is_monotone_and_bounded() {
        let e = Efficiency::hopper();
        let f1 = e.fraction(OpClass::Gemm, Phase::Forward, 128.0);
        let f2 = e.fraction(OpClass::Gemm, Phase::Forward, 4096.0);
        let f3 = e.fraction(OpClass::Gemm, Phase::Forward, 1e9);
        assert!(f1 < f2 && f2 < f3);
        assert!(f3 <= e.gemm_fwd);
    }

    #[test]
    fn attention_backward_is_least_efficient() {
        // The §2.2 argument against ZB-V: attention backward is both 2× the
        // FLOPs and lower MFU.
        let e = Efficiency::hopper();
        let big = 1e6;
        assert!(
            e.fraction(OpClass::Attention, Phase::Backward, big)
                < e.fraction(OpClass::Attention, Phase::Forward, big)
        );
        assert!(
            e.fraction(OpClass::Attention, Phase::Forward, big)
                < e.fraction(OpClass::Gemm, Phase::Forward, big)
        );
    }

    #[test]
    fn op_time_scales_inversely_with_efficiency() {
        let e = Efficiency::hopper();
        let t_small = e.op_time(OpClass::Gemm, Phase::Forward, 1e12, 64.0, 1e15);
        let t_big = e.op_time(OpClass::Gemm, Phase::Forward, 1e12, 65536.0, 1e15);
        assert!(t_small > t_big);
    }

    #[test]
    fn zero_flops_take_zero_time() {
        let e = Efficiency::hopper();
        assert_eq!(e.op_time(OpClass::Gemm, Phase::Forward, 0.0, 0.0, 1e15), 0.0);
    }
}
