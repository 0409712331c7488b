//! Elastic recovery matrix: the supervise → fail → re-plan → restore →
//! continue loop must heal every recoverable fault class at every
//! surviving geometry, across worker-pool widths and async exchange
//! on/off — and the healed run's final numbers must be **bit-identical**
//! to a clean run launched at the surviving geometry from the same
//! snapshot. Plus: seeded chaos liveness (random fault schedules end in a
//! result or a structured error within a wall-clock bound — never a hang,
//! never a bare panic).
//!
//! Runs under the CI determinism matrix (`RAYON_NUM_THREADS ∈ {1, 4}`)
//! and the chaos matrix (`SLIMPIPE_CHAOS_SEED ∈ {1, 2, 3}`).

use slimpipe_exec::checkpoint::snapshot_path;
use slimpipe_exec::fault::InjectedPanic;
use slimpipe_exec::model::{CheckpointCfg, ExecConfig};
use slimpipe_exec::schedule::PipelineKind;
use slimpipe_exec::train::try_resume_pipeline_from_traced;
use slimpipe_exec::verify::{self, assert_bit_identical};
use slimpipe_exec::{
    run_elastic_traced, CheckpointState, DriverCfg, DriverOutcome, ExecError, FaultKind,
    FaultPlan, FaultSite, ShrinkReplanner, TraceSession,
};
use std::sync::{Mutex, Once};
use std::time::{Duration, Instant};

/// `rayon::set_num_threads` is process-global: tests that change the pool
/// width serialize on this lock and restore the default on exit.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

fn width_lock() -> std::sync::MutexGuard<'static, ()> {
    WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Injected panics are expected; keep them out of the test output.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Snappy failure detection for tests (the defaults are sized for real
/// runs).
fn fast_cfg() -> ExecConfig {
    ExecConfig {
        watchdog_ms: 2_000,
        exchange_timeout_ms: 100,
        exchange_retries: 2,
        ..ExecConfig::small()
    }
}

fn site(iteration: usize, stage: usize, mb: u32, slice: u32) -> FaultSite {
    FaultSite { iteration, stage, mb, slice }
}

fn unique_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("slimpipe_recovery_{}_{tag}.ckpt", std::process::id()))
}

/// Remove the retention manifest and every snapshot a test may have left.
fn clean_ckpt_files(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    for it in 0..16 {
        let _ = std::fs::remove_file(snapshot_path(path, it));
    }
}

/// The elastic driver with the fallback replanner, recording into the
/// session `SLIMPIPE_TRACE` selects.
fn supervise(
    cfg: &ExecConfig,
    driver: &DriverCfg,
    steps: usize,
) -> Result<DriverOutcome, ExecError> {
    let trace = TraceSession::from_env().0;
    run_elastic_traced(cfg, driver, steps, 0.2, &mut ShrinkReplanner, &trace)
}

/// Run the elastic driver and prove the determinism contract: the healed
/// run's result is bit-identical to a clean resume of the driver's final
/// config (faults stripped) from the snapshot at `expect_resume_from`.
/// `expect_resume_from == 0` means no snapshot existed: the clean twin is
/// a from-scratch run at the surviving geometry.
fn assert_recovers_bit_identically(
    cfg: &ExecConfig,
    steps: usize,
    expect_to_stages: usize,
    expect_resume_from: usize,
    what: &str,
) -> DriverOutcome {
    let outcome = supervise(cfg, &DriverCfg::default(), steps)
        .unwrap_or_else(|e| panic!("{what}: recoverable fault must heal, got {e}"));
    assert_eq!(outcome.log.events.len(), 1, "{what}: one recovery:\n{}", outcome.log);
    let ev = &outcome.log.events[0];
    assert_eq!(ev.to_stages, expect_to_stages, "{what}: surviving geometry");
    assert_eq!(ev.resumed_from, expect_resume_from, "{what}: restore point");
    let clean_cfg = ExecConfig { fault_plan: None, ..outcome.final_config.clone() };
    let want = if expect_resume_from == 0 {
        verify::run(&clean_cfg, PipelineKind::SlimPipe, steps, 0.2)
            .unwrap_or_else(|e| panic!("{what}: clean from-scratch run: {e}"))
    } else {
        let ck = cfg.checkpoint.as_ref().expect("checkpointed job");
        let snap =
            CheckpointState::load(&snapshot_path(&ck.path, expect_resume_from as u64), &clean_cfg)
                .unwrap_or_else(|e| panic!("{what}: restore-point snapshot must load: {e}"));
        let trace = TraceSession::from_env().0;
        let kind = PipelineKind::SlimPipe;
        try_resume_pipeline_from_traced(&clean_cfg, kind, steps, 0.2, snap, &trace)
            .unwrap_or_else(|e| panic!("{what}: clean resume: {e}"))
    };
    assert_bit_identical(&outcome.result, &want);
    outcome
}

// ---- the kill matrix ----

/// Stage panic at iteration 3 of a 2-stage exchange job, across worker
/// widths: the driver shrinks to 1 stage, restores the iteration-2
/// snapshot, and finishes bit-identical to the clean twin.
#[test]
fn stage_panic_recovery_matrix() {
    quiet_injected_panics();
    let _g = width_lock();
    for threads in [1usize, 4] {
        rayon::set_num_threads(threads);
        let tag = format!("panic_t{threads}");
        let path = unique_path(&tag);
        clean_ckpt_files(&path);
        let cfg = ExecConfig {
            exchange: true,
            checkpoint: Some(CheckpointCfg { every: 2, path: path.clone(), keep_last: 0 }),
            fault_plan: Some(FaultPlan::single(site(3, 1, 0, 1), FaultKind::StagePanic)),
            ..fast_cfg()
        };
        assert_recovers_bit_identically(&cfg, 6, 1, 2, &tag);
        clean_ckpt_files(&path);
    }
    rayon::set_num_threads(0);
}

/// Device loss: killing a vocabulary-shard server mid-run is a recoverable
/// `ServerDied` (or the watchdog's `RendezvousStuck`); the survivors
/// re-shard the vocabulary on restore and the healed run is bit-identical.
#[test]
fn server_death_recovery_matrix() {
    quiet_injected_panics();
    let _g = width_lock();
    for threads in [1usize, 4] {
        rayon::set_num_threads(threads);
        let tag = format!("srvdeath_t{threads}");
        let path = unique_path(&tag);
        clean_ckpt_files(&path);
        let cfg = ExecConfig {
            vocab_parallel: true,
            checkpoint: Some(CheckpointCfg { every: 2, path: path.clone(), keep_last: 0 }),
            fault_plan: Some(FaultPlan::single(
                site(3, 1, 0, 0),
                FaultKind::ServerDeath { device: 0 },
            )),
            ..fast_cfg()
        };
        assert_recovers_bit_identically(&cfg, 6, 1, 2, &tag);
        clean_ckpt_files(&path);
    }
    rayon::set_num_threads(0);
}

/// A 3-stage vocabulary-parallel job loses a stage and re-plans onto 2:
/// the snapshot's 3 vocab shards are gathered and re-sliced into 2 by
/// `regroup`, and the healed run is still bit-identical to the clean twin.
#[test]
fn three_stage_vocab_parallel_shrinks_to_two() {
    quiet_injected_panics();
    let path = unique_path("vp3to2");
    clean_ckpt_files(&path);
    let cfg = ExecConfig {
        layers: 6,
        stages: 3,
        slices: 6,
        vocab_parallel: true,
        checkpoint: Some(CheckpointCfg { every: 2, path: path.clone(), keep_last: 0 }),
        fault_plan: Some(FaultPlan::single(site(3, 2, 0, 1), FaultKind::StagePanic)),
        ..fast_cfg()
    };
    assert_recovers_bit_identically(&cfg, 6, 2, 2, "vp3to2");
    clean_ckpt_files(&path);
}

/// A fault before the first snapshot: nothing to restore, so the job
/// restarts from scratch at the surviving geometry (`resumed_from == 0`)
/// and must match a clean from-scratch run there.
#[test]
fn fault_before_first_snapshot_restarts_from_scratch() {
    quiet_injected_panics();
    let path = unique_path("scratch");
    clean_ckpt_files(&path);
    let cfg = ExecConfig {
        checkpoint: Some(CheckpointCfg { every: 4, path: path.clone(), keep_last: 0 }),
        fault_plan: Some(FaultPlan::single(site(1, 1, 0, 1), FaultKind::StagePanic)),
        ..fast_cfg()
    };
    assert_recovers_bit_identically(&cfg, 6, 1, 0, "scratch");
    clean_ckpt_files(&path);
}

/// A stage-0 fault site survives the geometry filter (stage 0 exists at
/// every geometry) — the exact-site disarm is what stops it re-firing on
/// the healed run.
#[test]
fn stage_zero_fault_is_disarmed_by_site_match() {
    quiet_injected_panics();
    let path = unique_path("stage0");
    clean_ckpt_files(&path);
    let cfg = ExecConfig {
        checkpoint: Some(CheckpointCfg { every: 2, path: path.clone(), keep_last: 0 }),
        fault_plan: Some(FaultPlan::single(site(3, 0, 0, 1), FaultKind::StagePanic)),
        ..fast_cfg()
    };
    assert_recovers_bit_identically(&cfg, 6, 1, 2, "stage0");
    clean_ckpt_files(&path);
}

/// An exhausted recovery budget surfaces the original structured error
/// instead of looping.
#[test]
fn exhausted_budget_surfaces_the_fault() {
    quiet_injected_panics();
    let cfg = ExecConfig {
        fault_plan: Some(FaultPlan::single(site(0, 1, 0, 1), FaultKind::StagePanic)),
        ..fast_cfg()
    };
    let driver = DriverCfg { max_recoveries: 0, ..DriverCfg::default() };
    let err = supervise(&cfg, &driver, 2)
        .expect_err("zero budget must not heal");
    assert!(matches!(err, ExecError::StagePanic { stage: 1, .. }), "got {err}");
}

/// A single-stage job has nowhere to shrink: the fault surfaces as the
/// structured error even with budget left.
#[test]
fn single_stage_fault_cannot_shrink() {
    quiet_injected_panics();
    let cfg = ExecConfig {
        stages: 1,
        fault_plan: Some(FaultPlan::single(site(0, 0, 0, 1), FaultKind::StagePanic)),
        ..fast_cfg()
    };
    let err = supervise(&cfg, &DriverCfg::default(), 2)
        .expect_err("no survivors to shrink onto");
    assert!(matches!(err, ExecError::StagePanic { stage: 0, .. }), "got {err}");
}

// ---- chaos liveness ----

/// Deterministic split-free PRNG for the chaos schedules.
fn lcg(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *seed >> 33
}

/// A random (but seed-deterministic) fault schedule over the job's
/// geometry. `CorruptActivation` keeps off stage 0 (tokens, not floats —
/// `validate` rejects it there).
fn chaos_plan(seed: &mut u64, stages: usize) -> FaultPlan {
    let n = 1 + (lcg(seed) % 3) as usize;
    let faults = (0..n)
        .map(|_| {
            let stage = (lcg(seed) % stages as u64) as usize;
            let s = site(
                (lcg(seed) % 5) as usize,
                stage,
                (lcg(seed) % 2) as u32,
                (lcg(seed) % 4) as u32,
            );
            let kind = match lcg(seed) % 6 {
                0 => FaultKind::StagePanic,
                1 => FaultKind::ServerDeath { device: (lcg(seed) % stages as u64) as usize },
                2 => FaultKind::DropReply,
                3 => FaultKind::DelayReply { ms: 1 + lcg(seed) % 50 },
                4 => FaultKind::CorruptActivation,
                _ => FaultKind::Stall,
            };
            if matches!(kind, FaultKind::CorruptActivation) && s.stage == 0 {
                (FaultSite { stage: 1, ..s }, kind)
            } else {
                (s, kind)
            }
        })
        .collect();
    FaultPlan { faults }
}

/// Chaos liveness: under seeded-random fault schedules the elastic driver
/// always ends — a completed (possibly degraded) run or a structured
/// `ExecError` — within a generous wall-clock bound. No hangs, no bare
/// panics, no process aborts.
#[test]
fn chaos_schedules_always_terminate() {
    quiet_injected_panics();
    let seeds: Vec<u64> = match std::env::var("SLIMPIPE_CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("SLIMPIPE_CHAOS_SEED must be an integer")],
        Err(_) => vec![11, 12, 13],
    };
    for seed0 in seeds {
        let mut seed = seed0;
        let tag = format!("chaos{seed0}");
        let path = unique_path(&tag);
        clean_ckpt_files(&path);
        let cfg = ExecConfig {
            exchange: true,
            watchdog_ms: 1_000,
            checkpoint: Some(CheckpointCfg { every: 2, path: path.clone(), keep_last: 1 }),
            fault_plan: Some(chaos_plan(&mut seed, 2)),
            ..fast_cfg()
        };
        let start = Instant::now();
        let res = supervise(&cfg, &DriverCfg::default(), 4);
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_secs(120),
            "seed {seed0}: driver took {elapsed:?} — liveness bound blown"
        );
        match res {
            Ok(outcome) => {
                assert!(!outcome.result.losses.is_empty(), "seed {seed0}: empty healed run");
                assert!(outcome.final_config.stages >= 1 && outcome.final_config.stages <= 2);
            }
            Err(e) => {
                // Structured, printable, and not a config bug: the chaos
                // generator only emits geometry-valid schedules.
                let msg = e.to_string();
                assert!(!msg.is_empty());
                assert!(
                    !matches!(e, ExecError::InvalidConfig(_)),
                    "seed {seed0}: chaos plan should validate, got {e}"
                );
            }
        }
        clean_ckpt_files(&path);
    }
}

/// The observability layer × the elastic driver: one trace session spans
/// the failed attempt, the recovery transitions, and the healed resume.
/// The driver's `Fail → Replan → Restore` phases land as spans on the
/// `driver` track, and — the iteration-boundary invariant — a trace
/// drained *mid-recovery* (from inside the replanner, between attempts)
/// sees exactly the checkpoint saves that happened, no duplicates, no
/// drops, with the final report a superset in the same order.
#[test]
fn recovery_transitions_appear_in_the_trace() {
    use slimpipe_exec::obs::{RecoveryPhase, SpanKind, TraceReport};
    use slimpipe_exec::Replanner;

    quiet_injected_panics();
    let path = unique_path("traced");
    clean_ckpt_files(&path);
    // every=2, panic at iteration 3, 6 steps: attempt 1 saves at 2 and
    // dies at 3; the healed resume restores 2, saves at 4, finishes at 6.
    let cfg = ExecConfig {
        exchange: true,
        checkpoint: Some(CheckpointCfg { every: 2, path: path.clone(), keep_last: 0 }),
        fault_plan: Some(FaultPlan::single(site(3, 1, 0, 1), FaultKind::StagePanic)),
        ..fast_cfg()
    };
    let ckpt_iterations = |report: &TraceReport| -> Vec<usize> {
        report.track("driver").map_or(Vec::new(), |t| {
            t.spans
                .iter()
                .filter_map(|s| match s.kind {
                    SpanKind::CkptSave { iteration } => Some(iteration),
                    _ => None,
                })
                .collect()
        })
    };
    let trace = TraceSession::new();
    let mut mid_saves: Option<Vec<usize>> = None;
    {
        let mid_session = trace.clone();
        let mut replanner = |base: &ExecConfig, survivors: usize| {
            mid_saves = Some(ckpt_iterations(&mid_session.report()));
            ShrinkReplanner.replan(base, survivors)
        };
        let outcome =
            run_elastic_traced(&cfg, &DriverCfg::default(), 6, 0.2, &mut replanner, &trace)
                .expect("recoverable fault must heal");
        assert_eq!(outcome.log.events.len(), 1, "one recovery:\n{}", outcome.log);
        assert_eq!(outcome.log.events[0].resumed_from, 2);
    }
    assert_eq!(
        mid_saves.as_deref(),
        Some(&[2usize][..]),
        "mid-recovery drain must see the attempt-1 save exactly once"
    );
    let report = trace.report();
    assert_eq!(
        ckpt_iterations(&report),
        vec![2, 4],
        "final trace: attempt-1 and healed-run saves, neither duplicated nor dropped"
    );
    let driver = report.track("driver").expect("driver track recorded");
    for want in [RecoveryPhase::Fail, RecoveryPhase::Replan, RecoveryPhase::Restore] {
        assert!(
            driver.spans.iter().any(|s| matches!(
                s.kind,
                SpanKind::Recovery { attempt: 1, phase } if phase == want
            )),
            "driver track is missing the {want:?} span"
        );
    }
    // Both attempts' stage threads recorded onto the shared stage tracks.
    let stage0 = report.track("stage0").expect("stage0 track");
    assert!(
        stage0.spans.iter().any(|s| matches!(s.kind, SpanKind::Compute { .. })),
        "healed run recorded compute spans"
    );
    clean_ckpt_files(&path);
}
