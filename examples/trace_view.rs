//! Trace a real 4-stage pipeline run and render what the observability
//! layer captured: a per-stage ASCII timeline of the recorded spans, the
//! derived run metrics (busy/wait, bubble, MFU, overlap), the unified
//! counter registry, and a Chrome-trace JSON file you can drop into
//! `chrome://tracing` or Perfetto.
//!
//! ```bash
//! cargo run --release --example trace_view
//! ```

use slimpipe::exec::schedule::PipelineKind;
use slimpipe::exec::train::try_run_pipeline_traced;
use slimpipe::exec::{ExecConfig, TraceSession};
use slimpipe::obs::{chrome, OpTag, SpanKind, TraceReport};

/// One timeline row: the track's spans bucketed onto `width` columns of
/// the session's `[t0, t1]` window, densest-kind-wins per column.
fn ascii_row(report: &TraceReport, name: &str, t0: f64, t1: f64, width: usize) -> String {
    let mut cols = vec![' '; width];
    let span_of = |us: f64| -> usize {
        (((us - t0) / (t1 - t0).max(1e-9)) * width as f64).clamp(0.0, (width - 1) as f64) as usize
    };
    if let Some(track) = report.track(name) {
        for s in &track.spans {
            let glyph = match s.kind {
                SpanKind::Compute { op: OpTag::Fwd, .. } => 'F',
                SpanKind::Compute { op: OpTag::Bwd, .. } => 'B',
                SpanKind::Compute { op: OpTag::Server, .. } => 's',
                SpanKind::ExchangeWait { .. } => 'x',
                SpanKind::PostFlush { .. } => '.',
                SpanKind::CkptSave { .. } => 'C',
                SpanKind::Recovery { .. } => 'R',
            };
            for c in cols.iter_mut().take(span_of(s.start_us + s.dur_us) + 1).skip(span_of(s.start_us))
            {
                // Compute wins over waits/flushes sharing a column.
                if *c == ' ' || matches!(glyph, 'F' | 'B') {
                    *c = glyph;
                }
            }
        }
    }
    cols.into_iter().collect()
}

fn main() {
    let cfg = ExecConfig {
        stages: 4,
        layers: 4,
        slices: 4,
        microbatches: 4,
        seq: 128,
        exchange: true,
        ..ExecConfig::small()
    };
    let steps = 3;
    let trace = TraceSession::new();
    let result = try_run_pipeline_traced(&cfg, PipelineKind::SlimPipe, steps, 0.1, &trace)
        .expect("clean traced run");
    let report = trace.report();

    // Window: extremes over every recorded span.
    let (mut t0, mut t1) = (f64::INFINITY, f64::NEG_INFINITY);
    for track in &report.tracks {
        for s in &track.spans {
            t0 = t0.min(s.start_us);
            t1 = t1.max(s.start_us + s.dur_us);
        }
    }
    println!(
        "traced {} stages x {} steps: {} spans over {:.2} ms\n",
        cfg.stages,
        steps,
        report.span_count(),
        (t1 - t0) / 1e3
    );

    let width = 72;
    println!("timeline  (F=fwd  B=bwd  x=exchange-wait  .=post-flush  s=server)");
    let mut names: Vec<&str> = report.tracks.iter().map(|t| t.name.as_str()).collect();
    names.sort_unstable();
    for name in names {
        println!("  {name:>8} |{}|", ascii_row(&report, name, t0, t1, width));
    }

    let m = &result.metrics;
    println!("\nderived metrics");
    for d in 0..cfg.stages {
        println!(
            "  stage {d}: busy {:8.3} ms   exchange-wait {:8.3} ms",
            m.stage_busy_s[d] * 1e3,
            m.exchange_wait_s[d] * 1e3
        );
    }
    println!("  makespan          {:8.3} ms", m.measured_makespan_s.unwrap_or(0.0) * 1e3);
    println!("  bubble fraction   {:8.3}", m.measured_bubble.unwrap_or(0.0));
    println!("  relative MFU      {:8.3}", m.mfu.unwrap_or(0.0));
    println!("  overlap efficiency{:8.3}", m.overlap_efficiency.unwrap_or(0.0));

    println!("\ncounters (this run)");
    for (name, value) in m.counters.rows() {
        if value > 0 {
            println!("  {name:<24} {value:>10}");
        }
    }

    let path = std::env::temp_dir().join("slimpipe_trace_view.json");
    chrome::write_chrome_trace(&report, &path).expect("write chrome trace");
    println!("\nchrome trace written to {} — open in chrome://tracing or Perfetto", path.display());
}
