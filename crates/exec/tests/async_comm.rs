//! Exchange runtime matrix: the overlapped, double-buffered posted-send
//! runtime must be bit-identical to exchange-off local compute and track
//! the single-device reference — across worker-pool widths and under the
//! fault matrix with sends in flight.

use slimpipe_exec::comm::ExchangeMap;
use slimpipe_exec::model::ExecConfig;
use slimpipe_exec::schedule::PipelineKind;
use slimpipe_exec::train::run_reference;
use slimpipe_exec::verify::{self, assert_bit_identical};
use slimpipe_exec::{DegradePolicy, ExecError, FaultKind, FaultPlan, FaultSite};
use std::sync::Mutex;

/// `rayon::set_num_threads` is process-global: tests that change the pool
/// width serialize on this lock and restore the default on exit.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

fn width_lock() -> std::sync::MutexGuard<'static, ()> {
    WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Snappy failure detection for tests (mirrors `tests/faults.rs`).
fn fast_cfg() -> ExecConfig {
    ExecConfig {
        watchdog_ms: 2_000,
        exchange_timeout_ms: 100,
        exchange_retries: 2,
        ..ExecConfig::small()
    }
}

/// An exchange-enabled workload deep enough that remote chunks exist.
fn exchange_cfg() -> ExecConfig {
    ExecConfig {
        stages: 2,
        slices: 8,
        exchange: true,
        ..fast_cfg()
    }
}

fn site(iteration: usize, stage: usize, mb: u32, slice: u32) -> FaultSite {
    FaultSite { iteration, stage, mb, slice }
}

/// First `(stage, slice, peer)` whose forward pass actually ships chunks
/// to a remote exchange server (mirrors `tests/faults.rs`).
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

// ---- determinism matrix ----

/// The tentpole guarantee: overlapped exchange ≡ exchange-off, bit for
/// bit, at every worker-pool width — and both track the single-device
/// reference within the usual accumulation tolerance.
#[test]
fn async_regime_is_bit_identical_across_widths_and_transports() {
    let _g = width_lock();
    let cfg = exchange_cfg();
    let want = run_reference(&cfg, 2, 0.2);
    rayon::set_num_threads(1);
    let narrow = verify::run(&cfg, PipelineKind::SlimPipe, 2, 0.2).unwrap();
    rayon::set_num_threads(0);
    for threads in [1usize, 4] {
        rayon::set_num_threads(threads);
        let exchanged = verify::run(&cfg, PipelineKind::SlimPipe, 2, 0.2).unwrap();
        let local = verify::run(
            &ExecConfig { exchange: false, ..cfg.clone() },
            PipelineKind::SlimPipe,
            2,
            0.2,
        )
        .unwrap();
        rayon::set_num_threads(0);
        assert_bit_identical(&exchanged, &narrow);
        assert_bit_identical(&local, &narrow);
        let c = verify::compare(&exchanged, &want);
        assert!(
            c.max_loss_diff < 3e-3 && c.worst_grad_rel < 3e-3,
            "threads={threads}: loss diff {} / worst grad {} at {}",
            c.max_loss_diff,
            c.worst_grad_rel,
            c.worst_grad_name
        );
    }
}

/// Posted-send observability: the runtime actually posts (the counter
/// moves), and a clean run's fault statistics stay clean.
#[test]
fn posted_sends_counter_tracks_the_regime() {
    let _g = width_lock();
    let r = verify::run(&exchange_cfg(), PipelineKind::SlimPipe, 1, 0.2).unwrap();
    assert!(r.posted_sends > 0, "run posted no boundary sends (counter stuck at 0)");
    assert_eq!(r.fault_stats, Default::default(), "clean run degraded");
}

// ---- fault matrix with sends in flight ----

/// The fault guarantees hold with sends in flight: reply faults at a
/// remote site recover bit-identically to the clean run, and a dead
/// server degrades by policy.
#[test]
fn reply_faults_recover_under_both_regimes() {
    let _g = width_lock();
    let base = exchange_cfg();
    let (st, sl, peer) = remote_site(&base);
    let clean = verify::run(&base, PipelineKind::SlimPipe, 1, 0.2).unwrap();
    for kind in [FaultKind::DropReply, FaultKind::DelayReply { ms: 250 }] {
        let cfg = ExecConfig {
            fault_plan: Some(FaultPlan::single(site(0, st, 0, sl), kind.clone())),
            ..base.clone()
        };
        let r = verify::run(&cfg, PipelineKind::SlimPipe, 1, 0.2)
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        assert!(r.fault_stats.exchange_retries >= 1, "{kind:?}: no retry recorded");
        assert_bit_identical(&r, &clean);
    }
    // Dead server: structured failure under Abort, bit-identical local
    // recompute under the degrading policies.
    let plan = FaultPlan::single(site(0, st, 0, sl), FaultKind::ServerDeath { device: peer });
    let cfg = ExecConfig { fault_plan: Some(plan.clone()), ..base.clone() };
    let err = verify::run(&cfg, PipelineKind::SlimPipe, 1, 0.2)
        .expect_err("abort policy must surface the dead server");
    assert!(
        matches!(err, ExecError::ServerDied { .. } | ExecError::ExchangeTimeout { .. }),
        "got {err}"
    );
    for policy in [DegradePolicy::SkipMicrobatch, DegradePolicy::LocalFallback] {
        let cfg = ExecConfig { policy, fault_plan: Some(plan.clone()), ..base.clone() };
        let r = verify::run(&cfg, PipelineKind::SlimPipe, 1, 0.2)
            .expect("degrading policy must survive a dead server");
        assert!(r.fault_stats.local_fallbacks >= 1, "{policy:?}");
        assert_bit_identical(&r, &clean);
    }
}

// ---- retry/backoff accounting ----

/// The count-once contract: a reply that needed resubmission is one
/// retry, however many resubmissions it took — and a *recovered* retry
/// leaves no other trace. Exactly one retry, zero fallbacks, zero skips,
/// bit-identical numbers, and the per-stage completion cursors land on
/// the same unit as the clean run.
#[test]
fn recovered_retry_counts_once_and_leaves_the_cursor_clean() {
    let _g = width_lock();
    let base = exchange_cfg();
    let (st, sl, _) = remote_site(&base);
    let clean = verify::run(&base, PipelineKind::SlimPipe, 1, 0.2).unwrap();
    for kind in [FaultKind::DropReply, FaultKind::DelayReply { ms: 250 }] {
        let cfg = ExecConfig {
            fault_plan: Some(FaultPlan::single(site(0, st, 0, sl), kind.clone())),
            ..base.clone()
        };
        let r = verify::run(&cfg, PipelineKind::SlimPipe, 1, 0.2)
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        assert_eq!(
            r.fault_stats.exchange_retries, 1,
            "{kind:?}: one faulted reply must count exactly one retry"
        );
        assert_eq!(r.fault_stats.local_fallbacks, 0, "{kind:?}: recovery is not degradation");
        assert_eq!(r.fault_stats.skipped_microbatches, 0, "{kind:?}");
        assert_bit_identical(&r, &clean);
        assert_eq!(
            r.final_cursors, clean.final_cursors,
            "{kind:?}: a recovered retry must not move the completion cursor"
        );
    }
}

// ---- degenerate timeout configs ----

/// Zero timeouts would turn every blocking wait into an instant (or
/// never-firing) watchdog; they are rejected up front as structured
/// configuration errors, not discovered as spurious runtime faults.
#[test]
fn zero_timeouts_are_rejected_as_invalid_config() {
    for cfg in [
        ExecConfig { watchdog_ms: 0, ..fast_cfg() },
        ExecConfig { exchange_timeout_ms: 0, ..exchange_cfg() },
    ] {
        match verify::run(&cfg, PipelineKind::SlimPipe, 1, 0.2) {
            Err(ExecError::InvalidConfig(msg)) => {
                assert!(
                    msg.contains("watchdog") || msg.contains("timeout"),
                    "message should name the degenerate knob: {msg}"
                );
            }
            other => panic!("expected InvalidConfig, got {:?}", other.map(|_| "ok")),
        }
    }
}
