//! Elastic recovery driver: supervise → fail → re-plan → restore →
//! continue.
//!
//! [`run_elastic`] runs a multi-iteration job and, when the run dies with a
//! *recoverable* [`ExecError`] (a contained [`ExecError::StagePanic`], a
//! dead compute server, a wedged or retry-exhausted exchange — see
//! [`ExecError::is_recoverable`]), it shrinks the pipeline onto the
//! surviving stage count, asks a [`Replanner`] for a fresh [`ExecConfig`]
//! at that geometry, restores the newest checkpoint snapshot (re-sharded
//! across the survivors by `CheckpointState::regroup`), and continues —
//! recording every transition in a [`RecoveryLog`].
//!
//! **Determinism contract.** A job that hits a fault at iteration k and
//! re-plans to p′ stages produces final weights bit-identical to a clean
//! run launched at the p′ geometry from the same snapshot: restore copies
//! exact f32 bit patterns, regrouping is a pure relabeling of the same
//! parameters, the optimizer is stateless, and training data is a pure
//! function of `(seed, mb)`. `crates/exec/tests/recovery.rs` proves this
//! across fault class × surviving geometry × worker widths × async
//! exchange on/off.
//!
//! **Re-planning.** The driver talks to the planner through the
//! [`Replanner`] hook rather than linking it (the dependency points the
//! other way: `slimpipe-planner` builds on `slimpipe-exec`). The
//! production replanner is `slimpipe_planner::recovery_replanner`,
//! which re-partitions layers and per-microbatch slicings under the
//! byte-model memory cap with the calibrated `CostProfile`; the built-in
//! [`ShrinkReplanner`] is the dependency-free fallback that keeps the
//! current slicing (token bounds are geometry-independent) and only
//! shrinks the stage count.

use crate::checkpoint::CheckpointState;
use crate::fault::{ExecError, FaultKind, FaultPlan, FaultSite};
use crate::model::ExecConfig;
use crate::schedule::PipelineKind;
use crate::train::{
    try_resume_pipeline_from_traced, try_run_pipeline_traced, with_env_fault_plan, with_env_trace,
    RunResult,
};
use slimpipe_obs::{counters as obs_counters, RecoveryPhase, SpanKind, TraceSession};
use std::fmt;
use std::sync::Arc;

/// Supervision parameters of one elastic job.
#[derive(Clone, Copy, Debug)]
pub struct DriverCfg {
    pub kind: PipelineKind,
    /// Recovery budget: how many fail→re-plan→restore transitions the
    /// driver will attempt before surfacing the error. Bounds liveness —
    /// a fault schedule can never loop the driver forever.
    pub max_recoveries: usize,
    /// Never shrink below this stage count (a job may need a floor for
    /// memory reasons: fewer stages means more layers per device).
    pub min_stages: usize,
}

impl Default for DriverCfg {
    fn default() -> Self {
        Self { kind: PipelineKind::SlimPipe, max_recoveries: 3, min_stages: 1 }
    }
}

/// Produces the degraded-geometry config after a fault: given the last
/// config (fault plan already disarmed/filtered for the survivors) and the
/// surviving stage count, return a validated config at that geometry with
/// the same model shape, seed, and workload.
pub trait Replanner {
    fn replan(&mut self, base: &ExecConfig, survivors: usize) -> Result<ExecConfig, ExecError>;
}

impl<F: FnMut(&ExecConfig, usize) -> Result<ExecConfig, ExecError>> Replanner for F {
    fn replan(&mut self, base: &ExecConfig, survivors: usize) -> Result<ExecConfig, ExecError> {
        self(base, survivors)
    }
}

/// The dependency-free fallback replanner: keep the slicing (explicit
/// per-microbatch token bounds do not mention stages) and shrink the stage
/// count. The planner-backed `recovery_replanner` re-derives bounds under
/// the degraded geometry's memory cap instead.
pub struct ShrinkReplanner;

impl Replanner for ShrinkReplanner {
    fn replan(&mut self, base: &ExecConfig, survivors: usize) -> Result<ExecConfig, ExecError> {
        let cfg = ExecConfig { stages: survivors, ..base.clone() };
        cfg.validate().map_err(ExecError::InvalidConfig)?;
        Ok(cfg)
    }
}

/// One supervise-loop transition: what failed, what geometry the job moved
/// to, and where the healed run restarted from.
#[derive(Clone, Debug)]
pub struct RecoveryEvent {
    /// 1-based recovery attempt number.
    pub attempt: usize,
    /// Iteration the healed run resumed from (`0` = no snapshot existed
    /// yet; the job restarted from scratch at the new geometry).
    pub resumed_from: usize,
    /// The recoverable error that triggered this transition.
    pub fault: ExecError,
    pub from_stages: usize,
    pub to_stages: usize,
    /// Recoveries still in budget after this one.
    pub retries_left: usize,
}

impl fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recovery {}: {} -> {} stages, resumed from iteration {}, {} retries left ({})",
            self.attempt,
            self.from_stages,
            self.to_stages,
            self.resumed_from,
            self.retries_left,
            self.fault
        )
    }
}

/// Every transition the driver made, in order. Empty for a clean run.
#[derive(Clone, Debug, Default)]
pub struct RecoveryLog {
    pub events: Vec<RecoveryEvent>,
}

impl fmt::Display for RecoveryLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.events.is_empty() {
            return writeln!(f, "clean run: no recoveries");
        }
        for e in &self.events {
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}

/// A finished elastic job: the final run's result (losses cover the last
/// segment the job actually executed), the transition log, and the config
/// the job ended on (the degraded geometry after recoveries).
#[derive(Debug)]
pub struct DriverOutcome {
    pub result: RunResult,
    pub log: RecoveryLog,
    pub final_config: ExecConfig,
}

/// Largest viable surviving stage count below the current one: layers must
/// split evenly, and vocab parallelism (when on) must shard evenly.
fn shrink_geometry(cfg: &ExecConfig, min_stages: usize) -> Option<usize> {
    (min_stages.max(1)..cfg.stages)
        .rev()
        .find(|&s| {
            cfg.layers.is_multiple_of(s) && (!cfg.vocab_parallel || cfg.vocab.is_multiple_of(s))
        })
}

/// Disarm the fault plan after `err` fired: remove the fault(s) the
/// observed error traces back to (by site/kind match), then drop sites the
/// degraded geometry cannot express. Removing the matched fault is what
/// makes recovery *converge* — a deterministic schedule would otherwise
/// re-fire the same fault on every healed run — and it is exactly the
/// physical story being simulated: the stage that panicked / the device
/// that died is no longer part of the job.
fn disarm(plan: &FaultPlan, err: &ExecError, survivors: usize) -> Option<FaultPlan> {
    let matched = |site: &FaultSite, kind: &FaultKind| -> bool {
        match err {
            ExecError::StagePanic { stage, iteration, mb, slice, .. } => {
                matches!(kind, FaultKind::StagePanic)
                    && site.stage == *stage
                    && site.iteration == *iteration
                    && site.mb == *mb
                    && site.slice == *slice
            }
            ExecError::ServerDied { device, .. } => {
                matches!(kind, FaultKind::ServerDeath { device: d } if d == device)
            }
            ExecError::ExchangeTimeout { mb, slice, .. } => {
                matches!(kind, FaultKind::DropReply | FaultKind::DelayReply { .. })
                    && site.mb == *mb
                    && site.slice == *slice
            }
            // A wedged rendezvous or silent disconnect cannot always be
            // traced to one site; disarm every fault kind that wedges.
            ExecError::RendezvousStuck { .. } | ExecError::Disconnected { .. } => matches!(
                kind,
                FaultKind::Stall | FaultKind::ServerDeath { .. } | FaultKind::DelayReply { .. }
            ),
            _ => false,
        }
    };
    let faults: Vec<(FaultSite, FaultKind)> = plan
        .faults
        .iter()
        .filter(|(s, k)| !matched(s, k))
        .filter(|(s, k)| {
            s.stage < survivors
                && !matches!(k, FaultKind::ServerDeath { device } if *device >= survivors)
        })
        .cloned()
        .collect();
    (!faults.is_empty()).then_some(FaultPlan { faults })
}

/// The replanner controls geometry and slicing — nothing else. Anything
/// that would change the *job* (model shape, seed, workload) or sabotage
/// recovery (rearmed faults, dropped checkpointing) is refused here.
fn check_replanned(
    base: &ExecConfig,
    new: &ExecConfig,
    survivors: usize,
) -> Result<(), ExecError> {
    if new.stages != survivors {
        return Err(ExecError::InvalidConfig(format!(
            "replanner produced {} stages, expected {survivors}",
            new.stages
        )));
    }
    let same_job = new.layers == base.layers
        && new.heads == base.heads
        && new.kv_heads == base.kv_heads
        && new.head_dim == base.head_dim
        && new.ffn == base.ffn
        && new.vocab == base.vocab
        && new.seq == base.seq
        && new.microbatches == base.microbatches
        && new.mb_seqs == base.mb_seqs
        && new.seed == base.seed;
    if !same_job {
        return Err(ExecError::InvalidConfig(
            "replanner changed the model or workload, not just the geometry".into(),
        ));
    }
    new.validate().map_err(ExecError::InvalidConfig)
}

/// Run an elastic job: `steps` iterations of `cfg` under supervision,
/// healing recoverable failures by re-planning onto survivors and resuming
/// from the newest checkpoint. Returns the last run's [`RunResult`] plus
/// the [`RecoveryLog`]; unrecoverable errors (and recoverable ones past
/// the retry budget or below `min_stages`) surface as `Err` — structured,
/// never a hang or a panic.
pub fn run_elastic(
    cfg: &ExecConfig,
    driver: &DriverCfg,
    steps: usize,
    lr: f32,
    replanner: &mut dyn Replanner,
) -> Result<DriverOutcome, ExecError> {
    with_env_trace(|trace| run_elastic_traced(cfg, driver, steps, lr, replanner, trace))
}

/// [`run_elastic`] recording into an explicit trace session. One session
/// spans every attempt, so a healed run's trace shows the failed attempt's
/// spans, the `Recovery` transition spans on the `driver` track, and the
/// resumed run, in one timeline.
pub fn run_elastic_traced(
    cfg: &ExecConfig,
    driver: &DriverCfg,
    steps: usize,
    lr: f32,
    replanner: &mut dyn Replanner,
    trace: &Arc<TraceSession>,
) -> Result<DriverOutcome, ExecError> {
    // Adopt the env fault plan here so the supervise loop sees (and can
    // disarm) the same schedule the runs execute.
    let mut cfg = with_env_fault_plan(cfg)?;
    let mut rec = trace.recorder("driver");
    let mut log = RecoveryLog::default();
    let mut attempt = 0usize;
    let mut pending: Option<CheckpointState> = None;
    loop {
        let res = match pending.take() {
            Some(state) => {
                try_resume_pipeline_from_traced(&cfg, driver.kind, steps, lr, state, trace)
            }
            None => try_run_pipeline_traced(&cfg, driver.kind, steps, lr, trace),
        };
        let err = match res {
            Ok(result) => return Ok(DriverOutcome { result, log, final_config: cfg }),
            Err(e) => e,
        };
        // An instant span marking failure detection (attempt numbering is
        // 1-based to match RecoveryEvent).
        if let Some(t0) = rec.clock() {
            rec.push(
                SpanKind::Recovery { attempt: attempt + 1, phase: RecoveryPhase::Fail },
                t0,
            );
        }
        if !err.is_recoverable() || attempt >= driver.max_recoveries {
            rec.flush();
            return Err(err);
        }
        let Some(survivors) = shrink_geometry(&cfg, driver.min_stages) else {
            rec.flush();
            return Err(err);
        };
        attempt += 1;
        obs_counters::RECOVERIES.incr();
        // Disarm before re-planning: the replanner validates its output,
        // and sites naming dead stages would (rightly) fail validation. A
        // fully-disarmed plan stays `Some(empty)` rather than `None`, so
        // the healed run cannot re-adopt the env plan and re-fire.
        let t_replan = rec.clock();
        let mut base = cfg.clone();
        base.fault_plan = base
            .fault_plan
            .as_ref()
            .map(|p| disarm(p, &err, survivors).unwrap_or_default());
        let mut new_cfg = replanner.replan(&base, survivors)?;
        // Durability policy and the (disarmed) fault schedule are the
        // driver's to carry across the transition, not the replanner's.
        new_cfg.checkpoint = base.checkpoint.clone();
        new_cfg.fault_plan = base.fault_plan.clone();
        check_replanned(&base, &new_cfg, survivors)?;
        if let Some(t0) = t_replan {
            rec.push(SpanKind::Recovery { attempt, phase: RecoveryPhase::Replan }, t0);
        }
        // Restore point: the newest usable snapshot, re-sharded onto the
        // survivors. No snapshot yet means the job restarts from scratch
        // at the degraded geometry.
        let t_restore = rec.clock();
        pending = new_cfg
            .checkpoint
            .as_ref()
            .and_then(|ck| CheckpointState::load_latest(ck, &new_cfg).ok());
        if let Some(t0) = t_restore {
            rec.push(SpanKind::Recovery { attempt, phase: RecoveryPhase::Restore }, t0);
            // Transitions land in the session immediately: a replanner (or
            // a test) reading the trace mid-recovery must see them.
            rec.flush();
        }
        log.events.push(RecoveryEvent {
            attempt,
            resumed_from: pending.as_ref().map(|s| s.iteration as usize).unwrap_or(0),
            fault: err,
            from_stages: cfg.stages,
            to_stages: survivors,
            retries_left: driver.max_recoveries - attempt,
        });
        cfg = new_cfg;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(iteration: usize, stage: usize, mb: u32, slice: u32) -> FaultSite {
        FaultSite { iteration, stage, mb, slice }
    }

    #[test]
    fn shrink_geometry_respects_divisibility_and_floor() {
        let cfg = ExecConfig { layers: 6, stages: 3, ..ExecConfig::small() };
        assert_eq!(shrink_geometry(&cfg, 1), Some(2));
        assert_eq!(shrink_geometry(&cfg, 2), Some(2));
        assert_eq!(shrink_geometry(&cfg, 3), None);
        let one = ExecConfig { stages: 1, ..ExecConfig::small() };
        assert_eq!(shrink_geometry(&one, 1), None, "nothing below one stage");
        // 7 layers on 2 stages never validates, but the shrink logic must
        // still refuse an uneven split on its own.
        let odd = ExecConfig { layers: 7, stages: 7, ..ExecConfig::small() };
        assert_eq!(shrink_geometry(&odd, 1), Some(1));
    }

    #[test]
    fn disarm_removes_the_matched_fault_and_dead_geometry_sites() {
        let plan = FaultPlan {
            faults: vec![
                (site(3, 1, 0, 1), FaultKind::StagePanic),
                (site(5, 0, 1, 0), FaultKind::StagePanic),
                (site(2, 0, 0, 0), FaultKind::ServerDeath { device: 1 }),
            ],
        };
        let err = ExecError::StagePanic {
            stage: 1,
            iteration: 3,
            mb: 0,
            slice: 1,
            msg: "injected".into(),
        };
        // Shrinking to 1 stage: the matched panic goes, the stage-1 sites
        // and dead-device faults go, the stage-0 panic survives.
        let left = disarm(&plan, &err, 1).unwrap();
        assert_eq!(left.faults, vec![(site(5, 0, 1, 0), FaultKind::StagePanic)]);
        // Same error, shrinking 3 -> 2: the unmatched server-death on a
        // still-alive device survives.
        let err2 = ExecError::ServerDied { device: 0, stage: 1, mb: 0, slice: 0 };
        let plan2 = FaultPlan {
            faults: vec![
                (site(2, 0, 0, 0), FaultKind::ServerDeath { device: 0 }),
                (site(4, 0, 0, 0), FaultKind::ServerDeath { device: 1 }),
            ],
        };
        let left2 = disarm(&plan2, &err2, 2).unwrap();
        assert_eq!(left2.faults, vec![(site(4, 0, 0, 0), FaultKind::ServerDeath { device: 1 })]);
        // Everything disarmed -> None (the healed run is clean).
        assert!(disarm(&plan2, &err2, 1).is_none());
    }

    #[test]
    fn replan_checks_refuse_job_changes() {
        let base = ExecConfig::small();
        let mut sneaky = ExecConfig { stages: 1, seed: base.seed + 1, ..base.clone() };
        assert!(matches!(
            check_replanned(&base, &sneaky, 1),
            Err(ExecError::InvalidConfig(_))
        ));
        sneaky.seed = base.seed;
        assert!(check_replanned(&base, &sneaky, 1).is_ok());
        assert!(matches!(
            check_replanned(&base, &sneaky, 2),
            Err(ExecError::InvalidConfig(_))
        ));
    }
}
