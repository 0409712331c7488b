//! Pricing a schedule with a calibrated [`CostProfile`]: the planner-side
//! [`UnitCostModel`] the discrete-event engine simulates, plus the byte
//! model that predicts the executor's per-device peak activation bytes
//! (the hard memory cap the search enforces).

use crate::profile::CostProfile;
use slimpipe_cluster::Link;
use slimpipe_core::memory::peak_bytes_by;
use slimpipe_core::Slicing;
use slimpipe_exec::ExecConfig;
use slimpipe_sched::{PassKind, Schedule, WorkItem};
use slimpipe_sim::{OpCost, UnitCostModel};

/// Calibrated cost model for one (schedule, slicings) pair. Durations are
/// seconds (converted from the profile's nanoseconds). By default
/// inter-stage sends are free — executor stages are threads passing
/// pointers, so the schedule's structure, not the transport, is what the
/// planner shapes — but [`ProfiledCostModel::with_comm`] prices a real
/// boundary link, with the profile's calibrated overlap fraction deciding
/// how much of each edge transfer the async exchange runtime hides.
pub struct ProfiledCostModel<'a> {
    pub sched: &'a Schedule,
    pub profile: &'a CostProfile,
    pub layers_per_stage: usize,
    /// Per-microbatch slice partitions (must agree with the schedule's
    /// per-microbatch slice counts).
    pub slicings: Vec<Slicing>,
    /// Link between adjacent pipeline stages (free by default).
    pub link: Link,
    /// Boundary activation traffic per token of the sending unit (0 by
    /// default — same-process channels pass pointers).
    pub send_bytes_per_token: f64,
    /// Fraction of each edge transfer hidden behind compute, `[0, 1]`
    /// (initialized from the profile's calibrated `ov`).
    pub overlap: f64,
}

impl<'a> ProfiledCostModel<'a> {
    pub fn new(
        sched: &'a Schedule,
        profile: &'a CostProfile,
        layers_per_stage: usize,
        slicings: Vec<Slicing>,
    ) -> Self {
        assert_eq!(slicings.len(), sched.microbatches, "one slicing per microbatch");
        for (mb, s) in slicings.iter().enumerate() {
            assert_eq!(
                s.n(),
                sched.slices_of(mb),
                "microbatch {mb}: slicing and schedule disagree on the slice count"
            );
        }
        Self {
            sched,
            profile,
            layers_per_stage,
            slicings,
            link: Link { bandwidth: f64::MAX, latency: 0.0 },
            send_bytes_per_token: 0.0,
            overlap: profile.ov,
        }
    }

    /// Price boundary traffic over a real link: `bytes_per_token` of
    /// activation per boundary crossing, with `overlap` of the transfer
    /// hidden behind compute (the profile's measured `ov`) — `overlap = 0`
    /// prices a fully exposed handoff.
    pub fn with_comm(mut self, link: Link, bytes_per_token: f64, overlap: f64) -> Self {
        self.link = link;
        self.send_bytes_per_token = bytes_per_token;
        self.overlap = overlap.clamp(0.0, 1.0);
        self
    }

    fn unit(&self, op: &WorkItem) -> (f64, f64) {
        let s = &self.slicings[op.mb as usize];
        (s.len(op.slice as usize) as f64, s.pairs(op.slice as usize) as f64)
    }
}

impl UnitCostModel for ProfiledCostModel<'_> {
    fn schedule(&self) -> &Schedule {
        self.sched
    }

    fn op_cost(&self, device: usize, op: &WorkItem) -> OpCost {
        let p = self.profile;
        let (t, pairs) = self.unit(op);
        let l = self.layers_per_stage as f64;
        let first = device == 0;
        let last = device == self.sched.devices - 1;
        let ns = match op.kind {
            PassKind::Forward => {
                let mut ns = l * (p.f0 + p.ft * t + p.fp * pairs);
                if first {
                    ns += p.ef * t;
                }
                if last {
                    ns += p.hf0 + p.hft * t;
                }
                ns
            }
            PassKind::Backward => {
                let mut ns = l * (p.b0 + p.bt * t + p.bp * pairs);
                if first {
                    ns += p.eb * t;
                }
                if last {
                    ns += p.hb0 + p.hbt * t;
                }
                ns
            }
            PassKind::BackwardWeight => {
                unreachable!("the executor's schemes do not split backward")
            }
        };
        OpCost { duration: ns * 1e-9, send_bytes: self.send_bytes_per_token * t }
    }

    fn pipeline_link(&self) -> Link {
        self.link
    }

    fn edge_overlap(&self, _src: usize, _dst: usize) -> f64 {
        self.overlap
    }
}

/// Per-unit resident-byte model mirroring the executor's byte-exact
/// accounting (`SliceCache` + chunked KV per layer, plus the loss-head
/// stash on the last stage). `crates/planner/tests/closed_loop.rs` checks
/// the prediction against the executor's measured `peak_act_bytes`.
#[derive(Clone, Copy, Debug)]
pub struct ByteModel {
    pub hidden: usize,
    pub kv_hidden: usize,
    pub ffn: usize,
    pub heads: usize,
    pub vocab: usize,
    pub layers_per_stage: usize,
    pub stages: usize,
    pub vocab_parallel: bool,
}

impl ByteModel {
    pub fn from_config(cfg: &ExecConfig) -> Self {
        Self {
            hidden: cfg.hidden(),
            kv_hidden: cfg.kv_hidden(),
            ffn: cfg.ffn,
            heads: cfg.heads,
            vocab: cfg.vocab,
            layers_per_stage: cfg.layers_per_stage(),
            stages: cfg.stages,
            vocab_parallel: cfg.vocab_parallel,
        }
    }

    /// Resident bytes one in-flight unit of `t` tokens holds on `device`:
    /// per local layer the stash (`x_in`, `q`, `attn_out`, `resid_mid` at
    /// `t×h`, `gate`/`up` at `t×ffn`, `lse` at `heads·t` floats) and the KV
    /// chunk (`t×kv_hidden` twice); the last stage adds its head stash.
    pub fn unit_bytes(&self, device: usize, t: f64) -> f64 {
        let stash = 4.0 * t * (4.0 * self.hidden as f64 + 2.0 * self.ffn as f64)
            + 4.0 * self.heads as f64 * t;
        let kv = 8.0 * t * self.kv_hidden as f64;
        let mut bytes = self.layers_per_stage as f64 * (stash + kv);
        if device == self.stages - 1 {
            bytes += if self.vocab_parallel {
                // hidden_in + per-row lse.
                4.0 * t * self.hidden as f64 + 4.0 * t
            } else {
                // hidden_in + fp32 d_logits.
                4.0 * t * (self.hidden as f64 + self.vocab as f64)
            };
        }
        bytes
    }

    /// Predicted peak activation bytes on `device` — the weighted schedule
    /// walk over the plan's actual token ranges.
    pub fn predicted_peak(&self, sched: &Schedule, slicings: &[Slicing], device: usize) -> f64 {
        peak_bytes_by(sched, device, &|op: &WorkItem| {
            self.unit_bytes(device, slicings[op.mb as usize].len(op.slice as usize) as f64)
        })
    }

    /// Worst predicted peak across devices.
    pub fn worst_predicted_peak(&self, sched: &Schedule, slicings: &[Slicing]) -> f64 {
        (0..sched.devices)
            .map(|d| self.predicted_peak(sched, slicings, d))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ProfileShape;

    fn toy_profile() -> CostProfile {
        CostProfile {
            shape: ProfileShape { heads: 4, kv_heads: 2, head_dim: 8, ffn: 64, vocab: 96 },
            f0: 1000.0,
            ft: 50.0,
            fp: 2.0,
            b0: 2000.0,
            bt: 110.0,
            bp: 4.5,
            hf0: 500.0,
            hft: 80.0,
            hb0: 600.0,
            hbt: 95.0,
            ef: 3.0,
            eb: 5.0,
            ov: 0.0,
        }
    }

    #[test]
    fn op_costs_follow_the_linear_form() {
        let sched = slimpipe_core::schedule::generate(2, 1, 2).unwrap();
        let profile = toy_profile();
        let slicings = vec![Slicing::even(64, 2)];
        let cm = ProfiledCostModel::new(&sched, &profile, 2, slicings);
        let f = cm.op_cost(0, &WorkItem::f(0, 0, 0)).duration / 1e-9;
        // Stage 0: 2 layers + embedding, slice 0 = 32 tokens, 528 pairs.
        let want = 2.0 * (1000.0 + 50.0 * 32.0 + 2.0 * 528.0) + 3.0 * 32.0;
        assert!((f - want).abs() < 1e-6, "{f} vs {want}");
        // Last stage adds the head; slice 1 attends more pairs.
        let b = cm.op_cost(1, &WorkItem::b(0, 1, 0)).duration / 1e-9;
        let pairs1 = slimpipe_model::causal_pairs(32, 32) as f64;
        let want = 2.0 * (2000.0 + 110.0 * 32.0 + 4.5 * pairs1) + 600.0 + 95.0 * 32.0;
        assert!((b - want).abs() < 1e-6, "{b} vs {want}");
    }

    #[test]
    fn simulation_runs_on_a_profiled_model() {
        let sched = slimpipe_core::schedule::generate_var(2, &[4, 2]).unwrap();
        let profile = toy_profile();
        let slicings = vec![Slicing::even(64, 4), Slicing::even(48, 2)];
        let cm = ProfiledCostModel::new(&sched, &profile, 2, slicings);
        let r = slimpipe_sim::simulate(&cm);
        assert!(r.makespan > 0.0 && r.bubble_fraction >= 0.0 && r.bubble_fraction < 1.0);
        assert_eq!(r.total_ops, 2 * 2 * (4 + 2));
    }

    #[test]
    fn overlap_prices_below_serialized_on_a_real_link() {
        let sched = slimpipe_core::schedule::generate(2, 2, 4).unwrap();
        let profile = toy_profile();
        let slicings = vec![Slicing::even(64, 4), Slicing::even(64, 4)];
        // A deliberately slow link so edge transfers dominate.
        let link = Link { bandwidth: 1e6, latency: 1e-5 };
        let serialized = ProfiledCostModel::new(&sched, &profile, 2, slicings.clone())
            .with_comm(link, 256.0, 0.0);
        let overlapped = ProfiledCostModel::new(&sched, &profile, 2, slicings)
            .with_comm(link, 256.0, 1.0);
        let s = slimpipe_sim::simulate(&serialized).makespan;
        let o = slimpipe_sim::simulate(&overlapped).makespan;
        assert!(
            o < s,
            "fully hidden edges must shorten the makespan: overlapped={o} serialized={s}"
        );
    }

    #[test]
    fn free_link_defaults_price_like_before() {
        // The default constructor must keep the historical free-transport
        // pricing bit-for-bit (the search's scores depend on it).
        let sched = slimpipe_core::schedule::generate(2, 1, 2).unwrap();
        let profile = toy_profile();
        let cm = ProfiledCostModel::new(&sched, &profile, 2, vec![Slicing::even(64, 2)]);
        assert_eq!(cm.op_cost(0, &WorkItem::f(0, 0, 0)).send_bytes, 0.0);
        assert_eq!(cm.pipeline_link().latency, 0.0);
    }

    #[test]
    fn byte_model_weighs_long_slices_more() {
        let cfg = ExecConfig::small();
        let bm = ByteModel::from_config(&cfg);
        let sched = slimpipe_core::schedule::generate(2, 2, 4).unwrap();
        let uniform = vec![Slicing::even(64, 4), Slicing::even(64, 4)];
        let skewed = vec![
            Slicing::explicit(64, vec![0, 40, 50, 60, 64]),
            Slicing::even(64, 4),
        ];
        // Device 0 stashes the earliest (long) slices first — the skewed
        // partition must predict a higher warm-up peak.
        let u = bm.predicted_peak(&sched, &uniform, 0);
        let s = bm.predicted_peak(&sched, &skewed, 0);
        assert!(s > u, "skewed {s} should exceed uniform {u}");
    }
}
