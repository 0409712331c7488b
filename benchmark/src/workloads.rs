//! The four workloads, their configurations, and what one *op* is.
//!
//! An op is one timed call through a public entry point with an explicit
//! trace session (`try_run_pipeline_traced` / `run_elastic_traced`), so
//! the `SLIMPIPE_TRACE` env hook cannot leak into a timed op.

use slimpipe_exec::obs::TraceSession;
use slimpipe_exec::schedule::PipelineKind;
use slimpipe_exec::verify;
use slimpipe_exec::{
    run_elastic_traced, run_reference, try_run_pipeline_traced, CheckpointCfg, DriverCfg,
    ExecConfig, FaultKind, FaultPlan, FaultSite, RecoveryLog, RunResult,
};
use slimpipe_planner::{calibrate, recovery_replanner, CalibrationOpts, CostProfile};
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub const LR: f32 = 0.05;
/// Tolerance of `crates/exec/tests/conformance.rs`.
pub const CONFORMANCE_TOL: f64 = 2e-3;
/// The set-up's output check and `--smoke` run the same model, slicing and
/// features at `seq / SCALE`.
pub const SCALE: usize = 8;

pub const NAMES: [&str; 4] = ["long_slim", "long_1f1b", "fine_slices", "elastic_job"];

/// Supervised-job parameters of `elastic_job`.
#[derive(Clone, Copy)]
pub struct ElasticSpec {
    pub iterations: usize,
    pub ckpt_every: usize,
    pub keep_last: usize,
    pub fault: FaultSite,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: PipelineKind,
    /// The configuration an op runs. For `elastic_job` this is also the
    /// configuration of one training step of the job.
    pub cfg: ExecConfig,
    /// `cfg` at `seq / SCALE`: the output check and the calibration run on it.
    pub scaled: ExecConfig,
    pub elastic: Option<ElasticSpec>,
}

fn model(head_dim: usize, ffn: usize, vocab: usize) -> ExecConfig {
    ExecConfig {
        layers: 4,
        heads: 8,
        kv_heads: 2,
        head_dim,
        ffn,
        vocab,
        stages: 2,
        microbatches: 2,
        exchange: true,
        vocab_parallel: true,
        async_exchange: true,
        ..ExecConfig::small()
    }
}

/// hidden 256: attention is about half the FLOPs at seq 4096.
fn m256() -> ExecConfig {
    model(32, 768, 4096)
}

/// hidden 64: kernels are cheap, so per-slice overhead shows.
fn s64() -> ExecConfig {
    model(8, 192, 1024)
}

impl Workload {
    pub fn new(name: &str, seed: u64, smoke: bool) -> Option<Self> {
        let (name, kind, full, elastic) = match name {
            "long_slim" => (
                "long_slim",
                PipelineKind::SlimPipe,
                ExecConfig {
                    seq: 4096,
                    slices: 8,
                    ..m256()
                },
                None,
            ),
            "long_1f1b" => (
                "long_1f1b",
                PipelineKind::OneFOneB,
                ExecConfig {
                    seq: 4096,
                    slices: 1,
                    exchange: false,
                    vocab_parallel: false,
                    ..m256()
                },
                None,
            ),
            "fine_slices" => (
                "fine_slices",
                PipelineKind::SlimPipe,
                ExecConfig {
                    seq: 1024,
                    slices: 16,
                    ..s64()
                },
                None,
            ),
            "elastic_job" => (
                "elastic_job",
                PipelineKind::SlimPipe,
                ExecConfig {
                    seq: 1024,
                    slices: 8,
                    ..s64()
                },
                Some(ElasticSpec {
                    iterations: 12,
                    ckpt_every: 3,
                    keep_last: 2,
                    fault: FaultSite {
                        iteration: 7,
                        stage: 1,
                        mb: 0,
                        slice: 1,
                    },
                }),
            ),
            _ => return None,
        };
        let full = ExecConfig { seed, ..full };
        let scaled = ExecConfig {
            seq: full.seq / SCALE,
            ..full.clone()
        };
        let cfg = if smoke { scaled.clone() } else { full };
        Some(Self {
            name,
            kind,
            cfg,
            scaled,
            elastic,
        })
    }

    /// Trained (useful) tokens of one op.
    pub fn tokens_per_op(&self) -> f64 {
        let iterations = self.elastic.map_or(1, |e| e.iterations);
        (iterations * self.cfg.total_tokens()) as f64
    }

    /// `calibrate(cfg, default)` on the scaled configuration: the profile
    /// depends on the model shape only, and calibration's overlap
    /// measurement runs eight SlimPipe steps of whatever `seq` it is given
    /// (so it also needs a slice count the pipeline size divides).
    pub fn calibrate(&self) -> CostProfile {
        let cfg = ExecConfig {
            slices: self.scaled.slices.max(self.scaled.stages),
            ..self.scaled.clone()
        };
        calibrate(&cfg, &CalibrationOpts::default())
    }
}

/// What one op produced, reduced to what the benchmark checks and reports.
pub struct OpOutcome {
    /// The loss whose bits must repeat across ops: the step's loss, or the
    /// job's final-iteration loss.
    pub loss: f64,
    pub result: RunResult,
    /// Elastic jobs only: the supervise loop's transitions.
    pub log: Option<RecoveryLog>,
}

impl OpOutcome {
    pub fn peak_act_bytes_max(&self) -> u64 {
        self.result
            .peak_act_bytes
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }
}

/// Where an elastic job's checkpoint files live for this process.
pub fn ckpt_path(out_dir: &Path, name: &str) -> PathBuf {
    out_dir
        .join(format!("ckpt_{name}_{}", std::process::id()))
        .join("job.ckpt")
}

/// Empty the checkpoint directory (not part of the op: done before the
/// clock starts).
pub fn reset_ckpt_dir(path: &Path) {
    let dir = path.parent().expect("checkpoint path has a directory");
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create checkpoint directory");
}

/// The supervised job on `cfg`: checkpointing on, and — unless `clean` —
/// the stage panic armed. Fails unless the log shows exactly one recovery
/// ending on one stage (none for the clean twin).
pub fn elastic_op(
    cfg: &ExecConfig,
    spec: &ElasticSpec,
    profile: &CostProfile,
    ckpt: &Path,
    clean: bool,
    trace: &Arc<TraceSession>,
) -> Result<OpOutcome, String> {
    let job = ExecConfig {
        checkpoint: Some(CheckpointCfg {
            every: spec.ckpt_every,
            path: ckpt.to_path_buf(),
            keep_last: spec.keep_last,
        }),
        fault_plan: (!clean).then(|| FaultPlan::single(spec.fault, FaultKind::StagePanic)),
        ..cfg.clone()
    };
    let mut replanner = recovery_replanner(*profile, None);
    let out = run_elastic_traced(
        &job,
        &DriverCfg::default(),
        spec.iterations,
        LR,
        &mut replanner,
        trace,
    )
    .map_err(|e| format!("elastic job failed: {e}"))?;
    let want = usize::from(!clean);
    if out.log.events.len() != want || out.log.events.iter().any(|e| e.to_stages != 1) {
        return Err(format!(
            "expected {want} recovery ending on 1 stage, got:\n{}",
            out.log
        ));
    }
    let loss = *out
        .result
        .losses
        .last()
        .ok_or("elastic job returned no loss")?;
    Ok(OpOutcome {
        loss,
        result: out.result,
        log: Some(out.log),
    })
}

/// One training step of `cfg`.
pub fn step_op(
    cfg: &ExecConfig,
    kind: PipelineKind,
    trace: &Arc<TraceSession>,
) -> Result<OpOutcome, String> {
    let result = try_run_pipeline_traced(cfg, kind, 1, LR, trace)
        .map_err(|e| format!("step failed: {e}"))?;
    Ok(OpOutcome {
        loss: result.losses[0],
        result,
        log: None,
    })
}

impl Workload {
    /// One op of this workload on `cfg` (`self.cfg`, or `self.scaled` for
    /// the output check). `profile` is needed by elastic jobs only, which
    /// also expect an empty checkpoint directory ([`reset_ckpt_dir`]).
    pub fn op(
        &self,
        cfg: &ExecConfig,
        profile: Option<&CostProfile>,
        ckpt: &Path,
        trace: &Arc<TraceSession>,
    ) -> Result<OpOutcome, String> {
        match &self.elastic {
            None => step_op(cfg, self.kind, trace),
            Some(spec) => {
                let profile = profile.ok_or("elastic job needs a calibrated profile")?;
                elastic_op(cfg, spec, profile, ckpt, false, trace)
            }
        }
    }

    /// The output check: the scaled configuration through the workload's
    /// entry point must match the single-device reference within the
    /// conformance tolerance. An elastic job's result covers the
    /// iterations after the restore, so the reference's tail is compared.
    pub fn check_output(&self, profile: Option<&CostProfile>, ckpt: &Path) -> Result<(), String> {
        reset_ckpt_dir(ckpt);
        let got = self
            .op(&self.scaled, profile, ckpt, &TraceSession::disabled())?
            .result;
        let iterations = self.elastic.map_or(1, |e| e.iterations);
        let mut want = run_reference(&self.scaled, iterations, LR);
        want.losses.drain(..iterations - got.losses.len());
        let c = verify::compare(&got, &want);
        if c.max_loss_diff < CONFORMANCE_TOL && f64::from(c.worst_grad_rel) < CONFORMANCE_TOL {
            Ok(())
        } else {
            Err(format!(
                "{}: output check failed: loss diff {:e}, gradient {} off by {:e} (tolerance {CONFORMANCE_TOL:e})",
                self.name, c.max_loss_diff, c.worst_grad_name, c.worst_grad_rel
            ))
        }
    }
}
