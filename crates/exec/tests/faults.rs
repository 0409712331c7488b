//! Fault-injection matrix: every fault class from [`FaultKind`], crossed
//! with the degradation policies and worker-pool widths, must end in one
//! of exactly two ways — a structured [`ExecError`] naming the failed
//! unit, or a completed run whose numbers are *bit-identical* to the
//! clean run. Never a hang, never a process abort, never a silently
//! different result.
//!
//! The checkpoint/restore tests assert the strongest form of the recovery
//! guarantee: a run killed mid-training and resumed from its snapshot
//! produces the same bits as the run that never died.

use slimpipe_exec::comm::ExchangeMap;
use slimpipe_exec::fault::InjectedPanic;
use slimpipe_exec::model::{CheckpointCfg, ExecConfig};
use slimpipe_exec::schedule::PipelineKind;
use slimpipe_exec::train::{try_resume_pipeline_from_traced, RunResult};
use slimpipe_exec::verify::{self, assert_bit_identical};
use slimpipe_exec::{
    CheckpointState, DegradePolicy, ExecError, FaultKind, FaultPlan, FaultSite, TraceSession,
};
use std::sync::{Mutex, Once};
use std::time::{Duration, Instant};

/// `rayon::set_num_threads` is process-global: tests that change the pool
/// width serialize on this lock and restore the default on exit.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

/// Take the width lock even if a failing sibling poisoned it — the guard
/// protects a process global, not data that an unwind can corrupt.
fn width_lock() -> std::sync::MutexGuard<'static, ()> {
    WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Injected panics are expected; keep them out of the test output. Real
/// panics still print through the default hook.
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

/// Snappy failure detection for tests: the defaults are sized for real
/// runs (seconds); these keep a deliberately-broken run short.
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
    std::env::temp_dir().join(format!("slimpipe_faults_{}_{tag}.ckpt", std::process::id()))
}

/// Resume a SlimPipe run from the newest usable snapshot under
/// `cfg.checkpoint` and train to `steps` total iterations.
fn resume_latest(cfg: &ExecConfig, steps: usize) -> Result<RunResult, ExecError> {
    let ck = cfg.checkpoint.as_ref().expect("resume needs cfg.checkpoint");
    let state = CheckpointState::load_latest(ck, cfg)?;
    let trace = TraceSession::from_env().0;
    try_resume_pipeline_from_traced(cfg, PipelineKind::SlimPipe, steps, 0.2, state, &trace)
}

// ---- panic containment ----

#[test]
fn stage_panic_is_contained_and_names_the_unit() {
    quiet_injected_panics();
    let _g = width_lock();
    for threads in [1usize, 4] {
        for policy in [DegradePolicy::Abort, DegradePolicy::SkipMicrobatch] {
            rayon::set_num_threads(threads);
            let cfg = ExecConfig {
                policy,
                fault_plan: Some(FaultPlan::single(site(0, 1, 1, 2), FaultKind::StagePanic)),
                ..fast_cfg()
            };
            let err = verify::run(&cfg, PipelineKind::SlimPipe, 1, 0.2)
                .expect_err("injected panic must fail the run");
            rayon::set_num_threads(0);
            match err {
                ExecError::StagePanic { stage: 1, iteration: 0, mb: 1, slice: 2, ref msg } => {
                    assert!(msg.contains("injected"), "unexpected message: {msg}")
                }
                other => panic!("threads={threads}: expected StagePanic(1,0,1,2), got {other}"),
            }
        }
    }
}

#[test]
fn injected_failures_are_deterministic_across_runs() {
    quiet_injected_panics();
    let _g = width_lock();
    let cfg = ExecConfig {
        fault_plan: Some(FaultPlan::single(site(0, 0, 0, 1), FaultKind::StagePanic)),
        ..fast_cfg()
    };
    let a = verify::run(&cfg, PipelineKind::SlimPipe, 1, 0.2).unwrap_err();
    let b = verify::run(&cfg, PipelineKind::SlimPipe, 1, 0.2).unwrap_err();
    assert_eq!(a, b, "same fault plan must produce the same structured error");
}

// ---- exchange-server faults ----

/// A `(stage, slice, peer)` where `stage` actually ships chunks to
/// `peer`'s server — a fault armed on a purely-local op would never be
/// consumed. (With p=2, n=8 only the deepest slice exchanges.)
fn remote_site(cfg: &ExecConfig) -> (usize, u32, usize) {
    let map = ExchangeMap::build(cfg.stages, cfg.slices, (cfg.seq / cfg.slices) as u64);
    for d in 0..cfg.stages {
        for j in 0..cfg.slices {
            if let Some(&(_, peer)) = map.remote_chunks(d, j).first() {
                return (d, j as u32, peer);
            }
        }
    }
    panic!("no slice of this configuration exchanges");
}

#[test]
fn server_death_aborts_or_falls_back_by_policy() {
    let _g = width_lock();
    let base = ExecConfig { stages: 2, slices: 8, exchange: true, ..fast_cfg() };
    let (st, sl, peer) = remote_site(&base);
    let plan = FaultPlan::single(site(0, st, 0, sl), FaultKind::ServerDeath { device: peer });
    let clean = verify::run(&base, PipelineKind::SlimPipe, 1, 0.2).unwrap();
    for threads in [1usize, 4] {
        rayon::set_num_threads(threads);
        // Abort: the dead server is a structured failure.
        let cfg = ExecConfig { fault_plan: Some(plan.clone()), ..base.clone() };
        let err = verify::run(&cfg, PipelineKind::SlimPipe, 1, 0.2)
            .expect_err("abort policy must surface the dead server");
        assert!(
            matches!(err, ExecError::ServerDied { .. } | ExecError::ExchangeTimeout { .. }),
            "threads={threads}: got {err}"
        );
        // Degrading policies: the chunk is recomputed locally, and since
        // exchange is an exact optimization the run's numbers match the
        // clean run bit for bit.
        for policy in [DegradePolicy::SkipMicrobatch, DegradePolicy::LocalFallback] {
            let cfg = ExecConfig { policy, fault_plan: Some(plan.clone()), ..base.clone() };
            let r = verify::run(&cfg, PipelineKind::SlimPipe, 1, 0.2)
                .expect("degrading policy must survive a dead server");
            assert!(
                r.fault_stats.local_fallbacks >= 1,
                "threads={threads}, {policy:?}: no fallback recorded"
            );
            assert_bit_identical(&r, &clean);
        }
        rayon::set_num_threads(0);
    }
}

#[test]
fn dropped_reply_recovers_via_retry() {
    let _g = width_lock();
    let base = ExecConfig { stages: 2, slices: 8, exchange: true, ..fast_cfg() };
    let (st, sl, _) = remote_site(&base);
    let clean = verify::run(&base, PipelineKind::SlimPipe, 1, 0.2).unwrap();
    for threads in [1usize, 4] {
        rayon::set_num_threads(threads);
        let cfg = ExecConfig {
            fault_plan: Some(FaultPlan::single(site(0, st, 0, sl), FaultKind::DropReply)),
            ..base.clone()
        };
        // Retry is recovery, not degradation: even the abort policy rides
        // through a lost reply.
        let r = verify::run(&cfg, PipelineKind::SlimPipe, 1, 0.2)
            .expect("a dropped reply must be retried, not fatal");
        rayon::set_num_threads(0);
        assert!(r.fault_stats.exchange_retries >= 1, "threads={threads}: no retry recorded");
        assert_bit_identical(&r, &clean);
    }
}

#[test]
fn delayed_reply_recovers_within_backoff() {
    let _g = width_lock();
    let base = ExecConfig { stages: 2, slices: 8, exchange: true, ..fast_cfg() };
    let (st, sl, _) = remote_site(&base);
    let clean = verify::run(&base, PipelineKind::SlimPipe, 1, 0.2).unwrap();
    let cfg = ExecConfig {
        fault_plan: Some(FaultPlan::single(
            site(0, st, 0, sl),
            FaultKind::DelayReply { ms: 250 },
        )),
        ..base
    };
    let r = verify::run(&cfg, PipelineKind::SlimPipe, 1, 0.2)
        .expect("a delayed reply must be absorbed by timeout + backoff");
    assert!(r.fault_stats.exchange_retries >= 1, "delay never tripped the timeout");
    assert_bit_identical(&r, &clean);
}

// ---- non-finite degradation ----

#[test]
fn corrupt_activation_policy_matrix() {
    let _g = width_lock();
    let plan = FaultPlan::single(site(0, 1, 0, 1), FaultKind::CorruptActivation);
    for threads in [1usize, 4] {
        rayon::set_num_threads(threads);
        // Abort: poison is detected at the loss and named.
        let cfg = ExecConfig { fault_plan: Some(plan.clone()), ..fast_cfg() };
        let err = verify::run(&cfg, PipelineKind::SlimPipe, 1, 0.2)
            .expect_err("NaN loss under abort policy must fail");
        match err {
            ExecError::NonFinite { stage: 1, iteration: 0, mb: 0, ref what, .. } => {
                assert_eq!(what, "loss")
            }
            other => panic!("threads={threads}: expected NonFinite, got {other}"),
        }
        // Skip-and-renormalize (LocalFallback degrades NaNs the same way):
        // the poisoned microbatch is dropped, the run completes finite.
        for policy in [DegradePolicy::SkipMicrobatch, DegradePolicy::LocalFallback] {
            let cfg = ExecConfig { policy, fault_plan: Some(plan.clone()), ..fast_cfg() };
            let r = verify::run(&cfg, PipelineKind::SlimPipe, 2, 0.2)
                .expect("skip policy must survive a poisoned microbatch");
            assert_eq!(r.fault_stats.skipped_microbatches, 1, "threads={threads}");
            assert_eq!(r.losses.len(), 2);
            assert!(r.losses.iter().all(|l| l.is_finite()), "losses: {:?}", r.losses);
            assert!(
                r.layer_grads
                    .iter()
                    .flat_map(|g| g.tensors())
                    .all(|(_, t)| t.as_slice().iter().all(|v| v.is_finite())),
                "threads={threads}: non-finite gradient leaked through the skip"
            );
        }
        rayon::set_num_threads(0);
    }
}

#[test]
fn skip_and_renormalize_is_deterministic() {
    let _g = width_lock();
    let cfg = ExecConfig {
        policy: DegradePolicy::SkipMicrobatch,
        fault_plan: Some(FaultPlan::single(site(0, 1, 1, 0), FaultKind::CorruptActivation)),
        ..fast_cfg()
    };
    let a = verify::run(&cfg, PipelineKind::SlimPipe, 2, 0.2).unwrap();
    let b = verify::run(&cfg, PipelineKind::SlimPipe, 2, 0.2).unwrap();
    assert_eq!(a.fault_stats, b.fault_stats);
    assert_bit_identical(&a, &b);
}

// ---- watchdog ----

#[test]
fn stalled_stage_trips_the_peer_watchdog() {
    let _g = width_lock();
    let cfg = ExecConfig {
        watchdog_ms: 300,
        fault_plan: Some(FaultPlan::single(site(0, 1, 0, 0), FaultKind::Stall)),
        ..fast_cfg()
    };
    let t0 = Instant::now();
    let err = verify::run(&cfg, PipelineKind::SlimPipe, 1, 0.2)
        .expect_err("a wedged stage must be detected");
    // The watchdog reports the *blocked* (stage, unit) pair; the stalled
    // stage itself drains as a secondary Aborted.
    match err {
        ExecError::RendezvousStuck { stage, waited_ms, .. } => {
            assert_ne!(stage, 1, "the report names the waiter, not the wedge");
            assert!(waited_ms >= 300);
        }
        other => panic!("expected RendezvousStuck, got {other}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "watchdog took {:?} — effectively a hang",
        t0.elapsed()
    );
}

// ---- vocabulary-parallel faults ----

#[test]
fn vocab_server_death_is_a_structured_error() {
    let _g = width_lock();
    // Vocabulary shards have no local fallback (the weights live in the
    // server): death is fatal under every policy.
    for policy in [DegradePolicy::Abort, DegradePolicy::LocalFallback] {
        let cfg = ExecConfig {
            vocab_parallel: true,
            policy,
            fault_plan: Some(FaultPlan::single(
                site(0, 1, 0, 0),
                FaultKind::ServerDeath { device: 0 },
            )),
            ..fast_cfg()
        };
        let err = verify::run(&cfg, PipelineKind::SlimPipe, 1, 0.2)
            .expect_err("vocab shard death must fail the run");
        assert!(
            matches!(
                err,
                ExecError::ServerDied { device: 0, .. } | ExecError::RendezvousStuck { .. }
            ),
            "{policy:?}: got {err}"
        );
    }
}

// ---- checkpoint / restore ----

#[test]
fn resume_after_crash_is_bit_identical_to_uninterrupted_run() {
    quiet_injected_panics();
    let _g = width_lock();
    let path = unique_path("resume");
    let base = ExecConfig {
        vocab_parallel: true,
        checkpoint: Some(CheckpointCfg { every: 2, path: path.clone(), keep_last: 1 }),
        ..fast_cfg()
    };
    // The uninterrupted run: same model, no checkpointing at all — the
    // comparison also proves segmentation itself perturbs nothing.
    let full_cfg = ExecConfig { checkpoint: None, ..base.clone() };
    let full = verify::run(&full_cfg, PipelineKind::SlimPipe, 6, 0.2).unwrap();

    // Crash at iteration 4 (segment boundaries at 2 and 4, so the
    // snapshot at 4 exists and the one at 2 has been superseded).
    let crash_cfg = ExecConfig {
        fault_plan: Some(FaultPlan::single(site(4, 1, 0, 0), FaultKind::StagePanic)),
        ..base.clone()
    };
    let err = verify::run(&crash_cfg, PipelineKind::SlimPipe, 6, 0.2)
        .expect_err("the injected crash must interrupt training");
    assert!(matches!(err, ExecError::StagePanic { iteration: 4, .. }), "got {err}");

    // Resume from the snapshot with the fault cleared.
    let resumed = resume_latest(&base, 6).expect("resume from the iteration-4 snapshot");
    assert_eq!(resumed.losses.len(), 2, "resume covers iterations 4 and 5");
    let tail = RunResult { losses: full.losses[4..].to_vec(), ..full };
    assert_bit_identical(&resumed, &tail);
    clean_ckpt_files(&path);
}

/// Remove the retention manifest and every `{path}.it{N}` snapshot a test
/// run left in the temp dir.
fn clean_ckpt_files(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    for it in 0..16u64 {
        let _ = std::fs::remove_file(slimpipe_exec::checkpoint::snapshot_path(path, it));
    }
}

#[test]
fn corrupted_checkpoint_is_detected_not_trusted() {
    let _g = width_lock();
    let path = unique_path("corrupt");
    let cfg = ExecConfig {
        checkpoint: Some(CheckpointCfg { every: 1, path: path.clone(), keep_last: 0 }),
        ..fast_cfg()
    };
    verify::run(&cfg, PipelineKind::SlimPipe, 2, 0.2).unwrap();
    // Corrupt the only snapshot (the `latest` manifest at `path` names it).
    let snap = slimpipe_exec::checkpoint::snapshot_path(&path, 1);
    let mut bytes = std::fs::read(&snap).expect("snapshot written at iteration 1");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&snap, &bytes).unwrap();
    match resume_latest(&cfg, 4) {
        Err(ExecError::Checkpoint(msg)) => {
            assert!(msg.contains("checksum") || msg.contains("corrupt"), "message: {msg}")
        }
        other => panic!("expected checksum failure, got {:?}", other.map(|_| "ok")),
    }
    clean_ckpt_files(&path);
}

#[test]
fn resume_past_the_end_is_rejected() {
    let _g = width_lock();
    let path = unique_path("past_end");
    let cfg = ExecConfig {
        checkpoint: Some(CheckpointCfg { every: 1, path: path.clone(), keep_last: 0 }),
        ..fast_cfg()
    };
    verify::run(&cfg, PipelineKind::SlimPipe, 2, 0.2).unwrap();
    // The snapshot is at iteration 1; a 1-step run is already covered.
    match resume_latest(&cfg, 1) {
        Err(ExecError::Checkpoint(_)) => {}
        other => panic!("expected Checkpoint error, got {:?}", other.map(|_| "ok")),
    }
    clean_ckpt_files(&path);
}
