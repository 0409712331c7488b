//! Plan-vs-reality comparator: line a traced run's measured spans up
//! against the calibrated simulator's predicted timeline, unit by unit.
//!
//! The executor and the simulator execute the *same* per-device op lists
//! (both derive them from `generate_var` over the config's slice counts),
//! so a clean traced run yields exactly one `Compute` span per simulated
//! timeline entry per iteration, in the same order. That alignment makes
//! the comparison purely positional — no fuzzy matching: the k-th compute
//! span of `stage{d}`'s last full iteration corresponds to
//! `sim.timeline[d][k]`. The report answers the closed-loop question
//! directly: *how far off was the plan, and where?*

use crate::calibrate::shape_of;
use crate::profile::CostProfile;
use crate::search::simulate_config;
use slimpipe_core::schedule::generate_var;
use slimpipe_exec::ExecConfig;
use slimpipe_obs::{OpTag, Span, SpanKind, TraceReport};
use slimpipe_sched::PassKind;
use std::fmt;

/// One schedule op compared: the simulator's predicted duration against
/// the span the executor actually recorded for it.
#[derive(Clone, Debug)]
pub struct UnitComparison {
    pub device: usize,
    pub op: PassKind,
    pub mb: u32,
    pub slice: u32,
    /// Measured span duration, seconds.
    pub measured_s: f64,
    /// Simulated duration (`end − start` of the timeline entry), seconds.
    pub predicted_s: f64,
    /// `measured / predicted` (`inf` if the model predicted zero).
    pub ratio: f64,
}

/// The comparator's full report for one traced run.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Every op of the last full measured iteration, device-major in
    /// schedule order.
    pub units: Vec<UnitComparison>,
    /// Wall-clock of the last full measured iteration (first compute start
    /// to last compute end across devices), seconds.
    pub measured_makespan_s: f64,
    /// The simulator's one-iteration makespan, seconds.
    pub predicted_makespan_s: f64,
    /// `measured / predicted` makespan.
    pub makespan_ratio: f64,
    /// Bubble fraction of the measured last iteration.
    pub measured_bubble: f64,
    /// The simulator's bubble fraction.
    pub predicted_bubble: f64,
    /// Mean of `|measured − predicted| / predicted` over `units`.
    pub mean_abs_unit_error: f64,
    /// Full iterations of spans the trace held (the comparison uses the
    /// last one — steady state, past warmup).
    pub iterations_measured: usize,
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "makespan: measured {:.3} ms vs predicted {:.3} ms (ratio {:.2})",
            self.measured_makespan_s * 1e3,
            self.predicted_makespan_s * 1e3,
            self.makespan_ratio
        )?;
        writeln!(
            f,
            "bubble:   measured {:.3} vs predicted {:.3}",
            self.measured_bubble, self.predicted_bubble
        )?;
        write!(
            f,
            "per-unit: mean |error| {:.1}% over {} units ({} iterations measured)",
            self.mean_abs_unit_error * 100.0,
            self.units.len(),
            self.iterations_measured
        )
    }
}

fn is_compute(s: &Span) -> bool {
    matches!(s.kind, SpanKind::Compute { op: OpTag::Fwd | OpTag::Bwd, .. })
}

/// Compare a traced executor run of `cfg` against the calibrated
/// simulation of the same config. `report` must come from a completed
/// traced run, with at least one full iteration recorded per stage.
pub fn compare_run(
    cfg: &ExecConfig,
    profile: &CostProfile,
    report: &TraceReport,
) -> Result<Comparison, String> {
    if profile.shape != shape_of(cfg) {
        return Err(format!(
            "profile shape {:?} does not match workload shape {:?}",
            profile.shape,
            shape_of(cfg)
        ));
    }
    let sim = simulate_config(cfg, profile);
    let counts: Vec<usize> = (0..cfg.microbatches).map(|mb| cfg.slices_of(mb)).collect();
    let sched = generate_var(cfg.stages, &counts)
        .map_err(|e| format!("workload geometry rejected: {e}"))?;
    let p = cfg.stages;

    let mut units = Vec::new();
    let (mut t_min, mut t_max) = (f64::INFINITY, f64::NEG_INFINITY);
    let mut busy = vec![0.0f64; p];
    let mut iterations = usize::MAX;
    #[allow(clippy::needless_range_loop)] // d indexes tracks, timeline, ops, and busy alike
    for d in 0..p {
        let track = report
            .track(&format!("stage{d}"))
            .ok_or_else(|| format!("trace has no spans for stage {d} — was the run traced?"))?;
        let compute: Vec<&Span> = track.spans.iter().filter(|s| is_compute(s)).collect();
        let len = sim.timeline[d].len();
        debug_assert_eq!(len, sched.ops[d].len(), "simulator and schedule disagree on op count");
        let iters = compute.len() / len;
        if iters == 0 {
            return Err(format!(
                "stage {d} recorded {} compute spans, fewer than one iteration ({len} ops)",
                compute.len()
            ));
        }
        if !compute.len().is_multiple_of(len) {
            return Err(format!(
                "stage {d} recorded {} compute spans, not a multiple of {len} ops per \
                 iteration — the run was not clean",
                compute.len()
            ));
        }
        iterations = iterations.min(iters);
        // The last full iteration: steady state, clear of pool/pack warmup.
        let last = &compute[(iters - 1) * len..iters * len];
        for (k, span) in last.iter().enumerate() {
            let op = &sched.ops[d][k];
            let (start, end) = sim.timeline[d][k];
            let measured_s = span.dur_us * 1e-6;
            let predicted_s = end - start;
            units.push(UnitComparison {
                device: d,
                op: op.kind,
                mb: op.mb,
                slice: op.slice,
                measured_s,
                predicted_s,
                ratio: measured_s / predicted_s,
            });
            busy[d] += measured_s;
            t_min = t_min.min(span.start_us);
            t_max = t_max.max(span.start_us + span.dur_us);
        }
    }

    let measured_makespan_s = ((t_max - t_min) * 1e-6).max(0.0);
    let mean_abs_unit_error = if units.is_empty() {
        0.0
    } else {
        units
            .iter()
            .map(|u| ((u.measured_s - u.predicted_s) / u.predicted_s).abs())
            .sum::<f64>()
            / units.len() as f64
    };
    Ok(Comparison {
        measured_makespan_s,
        predicted_makespan_s: sim.makespan,
        makespan_ratio: measured_makespan_s / sim.makespan,
        measured_bubble: slimpipe_sim::metrics::bubble_fraction(&busy, measured_makespan_s),
        predicted_bubble: sim.bubble_fraction,
        mean_abs_unit_error,
        iterations_measured: iterations,
        units,
    })
}
