//! The observability layer's contract with the executor:
//!
//! * **determinism-neutral** — a traced run is bit-identical to an
//!   untraced run of the same config (recording reads the clock and a
//!   thread-local buffer, never the math);
//! * **zero when off** — a disabled session records nothing and the
//!   span-derived metrics stay `None`;
//! * **useful when on** — per-stage spans land on named tracks, derived
//!   metrics populate, the Chrome-trace export is well-formed JSON, and a
//!   failed run leaves a flight recording behind.

use slimpipe_exec::fault::InjectedPanic;
use slimpipe_exec::obs;
use slimpipe_exec::schedule::PipelineKind;
use slimpipe_exec::train::{try_run_pipeline_traced, RunResult};
use slimpipe_exec::{ExecConfig, FaultKind, FaultPlan, FaultSite, TraceSession};

fn cfg() -> ExecConfig {
    ExecConfig {
        stages: 2,
        slices: 4,
        microbatches: 2,
        exchange: true,
        ..ExecConfig::small()
    }
}

fn assert_bits_equal(got: &RunResult, want: &RunResult, what: &str) {
    assert_eq!(got.losses, want.losses, "{what}: losses differ");
    for (li, (a, b)) in got.layer_grads.iter().zip(&want.layer_grads).enumerate() {
        for ((name, ga), (_, gb)) in a.tensors().iter().zip(b.tensors().iter()) {
            assert_eq!(ga.max_abs_diff(gb), 0.0, "{what}: layer{li}.{name} bits differ");
        }
    }
    assert_eq!(got.embed_grad.max_abs_diff(&want.embed_grad), 0.0, "{what}: embedding");
    assert_eq!(got.out_grad.max_abs_diff(&want.out_grad), 0.0, "{what}: output");
}

/// The tentpole contract: recording spans must not perturb the numerics.
#[test]
fn traced_run_is_bit_identical_to_untraced() {
    let cfg = cfg();
    let untraced =
        try_run_pipeline_traced(&cfg, PipelineKind::SlimPipe, 3, 0.1, &TraceSession::disabled())
            .expect("clean untraced run");
    let trace = TraceSession::new();
    let traced = try_run_pipeline_traced(&cfg, PipelineKind::SlimPipe, 3, 0.1, &trace)
        .expect("clean traced run");
    assert_bits_equal(&traced, &untraced, "traced vs untraced");
    assert!(trace.report().span_count() > 0, "the traced run actually recorded");
}

/// Zero-cost-when-off: a disabled session sees no spans and the run's
/// span-derived metrics stay `None` (counters still tally — they are the
/// always-on registry).
#[test]
fn disabled_session_records_nothing() {
    let trace = TraceSession::disabled();
    let r = try_run_pipeline_traced(&cfg(), PipelineKind::SlimPipe, 2, 0.1, &trace)
        .expect("clean run");
    assert_eq!(trace.report().span_count(), 0);
    assert!(r.metrics.measured_makespan_s.is_none());
    assert!(r.metrics.measured_bubble.is_none());
    assert!(r.metrics.mfu.is_none());
    assert!(r.metrics.stage_busy_s.is_empty());
    // The always-on counter registry still saw the run.
    assert!(r.metrics.counters.weight_packs > 0, "stage builds pack weights");
}

/// A live session: every stage and server gets a named track, spans carry
/// sane timestamps, and the derived metrics populate.
#[test]
fn traced_run_populates_tracks_and_metrics() {
    let cfg = cfg();
    let trace = TraceSession::new();
    let r = try_run_pipeline_traced(&cfg, PipelineKind::SlimPipe, 3, 0.1, &trace)
        .expect("clean traced run");
    let report = trace.report();
    for d in 0..cfg.stages {
        let track = report.track(&format!("stage{d}")).expect("stage track exists");
        assert!(!track.spans.is_empty());
        assert!(track.spans.iter().all(|s| s.start_us >= 0.0 && s.dur_us >= 0.0));
        let computes = track
            .spans
            .iter()
            .filter(|s| matches!(s.kind, obs::SpanKind::Compute { .. }))
            .count();
        assert!(computes > 0, "stage {d} recorded compute spans");
    }
    // Exchange is on and sliced: the waits must have been recorded too.
    assert!(
        report.tracks.iter().flat_map(|t| &t.spans).any(|s| matches!(
            s.kind,
            obs::SpanKind::ExchangeWait { .. }
        )),
        "exchange-on run records waits"
    );
    let m = &r.metrics;
    assert_eq!(m.stage_busy_s.len(), cfg.stages);
    assert!(m.stage_busy_s.iter().all(|&b| b > 0.0));
    assert!(m.measured_makespan_s.unwrap() > 0.0);
    let bubble = m.measured_bubble.unwrap();
    assert!((0.0..1.0).contains(&bubble), "bubble {bubble}");
    assert!(m.mfu.unwrap() > 0.0);
    let ov = m.overlap_efficiency.unwrap();
    assert!((0.0..=1.0).contains(&ov), "overlap {ov}");
}

/// The Chrome-trace exporter produces structurally valid JSON (balanced
/// brackets outside string literals, the envelope keys Perfetto expects,
/// one metadata record per track).
#[test]
fn chrome_trace_export_is_well_formed() {
    let trace = TraceSession::new();
    try_run_pipeline_traced(&cfg(), PipelineKind::SlimPipe, 2, 0.1, &trace).expect("clean run");
    let report = trace.report();
    let json = obs::chrome::chrome_trace_json(&report);
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"displayTimeUnit\":\"ms\""));
    assert!(json.contains("\"thread_name\""));
    assert!(json.matches("\"ph\":\"X\"").count() == report.span_count());
    // String-aware bracket balance: a span name with a quote or brace must
    // not break the envelope.
    let (mut depth, mut in_str, mut esc) = (0i64, false, false);
    for ch in json.chars() {
        if esc {
            esc = false;
            continue;
        }
        match ch {
            '\\' if in_str => esc = true,
            '"' => in_str = !in_str,
            '{' | '[' if !in_str => depth += 1,
            '}' | ']' if !in_str => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0, "close before open");
    }
    assert_eq!(depth, 0, "unbalanced JSON");
    assert!(!in_str, "unterminated string");
}

/// The `SLIMPIPE_TRACE` env hook: a non-empty value enables the session
/// and names the output file; empty means disabled.
#[test]
fn env_hook_controls_the_session() {
    // Narrow scope: from_env reads the var immediately; other tests in
    // this binary never read it (they build sessions programmatically).
    std::env::set_var("SLIMPIPE_TRACE", "/tmp/slimpipe_test_trace.json");
    let (session, path) = TraceSession::from_env();
    std::env::remove_var("SLIMPIPE_TRACE");
    assert!(session.enabled());
    assert_eq!(path.unwrap().to_str().unwrap(), "/tmp/slimpipe_test_trace.json");
    let (session, path) = TraceSession::from_env();
    assert!(!session.enabled());
    assert!(path.is_none());
}

/// On an unrecoverable traced failure the last spans per track survive in
/// the global flight-recorder slot for post-mortem.
#[test]
fn flight_recorder_captures_failed_runs() {
    // Injected panics are expected; keep them out of the test log.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<InjectedPanic>().is_none() {
            prev(info);
        }
    }));
    let faulty = ExecConfig {
        fault_plan: Some(FaultPlan::single(
            FaultSite { iteration: 1, stage: 1, mb: 0, slice: 1 },
            FaultKind::StagePanic,
        )),
        ..cfg()
    };
    let trace = TraceSession::new();
    let err = try_run_pipeline_traced(&faulty, PipelineKind::SlimPipe, 3, 0.1, &trace)
        .expect_err("the injected panic must surface");
    assert!(err.is_recoverable(), "a contained stage panic");
    let rec = obs::flight::take().expect("flight recording stored on error");
    assert!(!rec.is_empty());
    // Iteration 0 completed before the iteration-1 fault, so the failed
    // stage's track holds flushed compute spans up to the failure.
    assert!(rec.tracks.iter().any(|(name, spans)| name == "stage1" && !spans.is_empty()));
    let shown = format!("{rec}");
    assert!(shown.contains("flight recorder") && shown.contains("stage1"));
    // The slot is take-once.
    assert!(obs::flight::take().is_none());
}
