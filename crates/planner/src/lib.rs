//! Slicing planner: a calibrated cost-model search that turns a workload
//! description into an executable `Explicit` slice plan — per-microbatch
//! slice counts *and* token bounds.
//!
//! SlimPipe's uniform slicing plus context exchange drives bubbles near
//! zero when exchange is available; without it (or under ragged,
//! variable-length microbatches — the regime InfiniPipe studies) *choosing
//! the partition* becomes a genuine search problem: causal attention makes
//! late slices quadratically heavier, GEMM work is token-linear, and the
//! §4.1.1 memory argument caps how long an early slice may be. This crate
//! closes the repo's simulator↔executor loop around that decision:
//!
//! 1. **Calibrate** ([`calibrate`]) — time the real tensor kernels (the
//!    packed-GEMM fused layer pass, chunked attention forward/backward,
//!    loss head, embedding) at a few token-range sizes and fit a linear
//!    [`CostProfile`] (`c0 + ct·tokens + cp·pairs` per op family). The
//!    profile serialises to JSON so a noisy host can pin a committed
//!    reference profile for deterministic tests
//!    (`crates/planner/profiles/reference.json`).
//! 2. **Search** ([`search`]) — optimise explicit bounds and per-microbatch
//!    slice counts against the discrete-event engine's makespan
//!    (`slimpipe_sim::simulate` over a [`cost::ProfiledCostModel`]), with
//!    `slimpipe_core::memory`'s weighted byte walk as a hard peak-memory
//!    cap. Candidates: proportional/flat count vectors × {min-max DP,
//!    even, pair-balanced} bounds, then bound-level hill climbing.
//! 3. **Emit** ([`plan::Plan`]) — the plan lowers directly into an
//!    [`slimpipe_exec::ExecConfig`] (`SlicePolicy::ExplicitPerMb` +
//!    `mb_slices`), which the executor runs and verifies against the
//!    single-device reference.
//!
//! ```no_run
//! use slimpipe_planner::{calibrate, plan, CalibrationOpts, PlanOpts};
//! let workload = slimpipe_exec::ExecConfig::small();
//! let profile = calibrate(&workload, &CalibrationOpts::default());
//! let plan = plan(&workload, &profile, &PlanOpts::default()).unwrap();
//! let cfg = plan.to_exec_config(&workload);
//! ```

pub mod calibrate;
pub mod compare;
pub mod cost;
pub mod plan;
pub mod profile;
pub mod search;

pub use calibrate::{calibrate, shape_of, CalibrationOpts};
pub use compare::{compare_run, Comparison, UnitComparison};
pub use cost::{ByteModel, ProfiledCostModel};
pub use plan::Plan;
pub use profile::{CostProfile, ProfileShape};
pub use search::{
    plan, replan_for_stages, simulate_config, CommOpts, PlanError, PlanOpts, DEGRADED_LINK,
};

/// A planner-backed replanner for [`slimpipe_exec::run_elastic_traced`]: on each
/// recovery it re-runs the calibrated search for the surviving stage count
/// ([`replan_for_stages`], with [`DEGRADED_LINK`] pricing the degraded
/// boundary traffic and `mem_cap_bytes` re-enforced against the byte
/// model) and lowers the winner into the config the driver resumes.
/// Planner failures surface as `ExecError::InvalidConfig`, which the
/// driver reports as an unrecoverable job error.
pub fn recovery_replanner(
    profile: CostProfile,
    mem_cap_bytes: Option<u64>,
) -> impl FnMut(
    &slimpipe_exec::ExecConfig,
    usize,
) -> Result<slimpipe_exec::ExecConfig, slimpipe_exec::ExecError> {
    move |base: &slimpipe_exec::ExecConfig, survivors: usize| {
        replan_for_stages(base, &profile, survivors, mem_cap_bytes)
            .map_err(|e| slimpipe_exec::ExecError::InvalidConfig(format!("recovery re-plan: {e}")))
    }
}

/// The committed reference profile: calibrated once on the dev host for
/// [`slimpipe_exec::ExecConfig::small`]'s model shape, pinned so planner
/// tests are deterministic on any (arbitrarily noisy) machine.
pub fn reference_profile() -> CostProfile {
    CostProfile::from_json(include_str!("../profiles/reference.json"))
        .expect("committed reference profile must parse")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_profile_parses_and_matches_the_small_shape() {
        let p = reference_profile();
        p.validate().unwrap();
        assert_eq!(p.shape, shape_of(&slimpipe_exec::ExecConfig::small()));
    }
}
