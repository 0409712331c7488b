//! The metric tables — the names later issues refer to — and the small
//! statistics the report uses. `BENCHMARK.json` repeats the names, units
//! and directions of [`END_TO_END`] and [`PER_LAYER`]; `tests/contract.rs`
//! fails when the two drift apart.

use crate::json::Value;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Which end-to-end metric this should move, on which workload (for
    /// end-to-end metrics: what the user pays for).
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        moves,
    }
}

/// Reported by every workload with `--trace 0`. Bounds live in
/// `BENCHMARK.json` (they are the contract with the driver, not code).
#[rustfmt::skip]
pub const END_TO_END: &[MetricDef] = &[
    m("tokens_per_s", "tokens/s", "higher", "trained tokens per op / median op wall time"),
    m("peak_act_bytes_max", "bytes", "lower", "max over devices of RunResult::peak_act_bytes"),
    m("peak_rss_bytes", "bytes", "lower", "VmHWM of the process after the last timed op"),
    m("setup_s", "s", "lower", "config + data + scaled conformance check (+ calibration)"),
];

/// Reported by every workload with `--trace 1`.
#[rustfmt::skip]
pub const PER_LAYER: &[MetricDef] = &[
    m("tensor.matmul.peak_gflops", "GFLOP/s", "higher", "denominator of every *_frac; tokens_per_s on long_*"),
    m("tensor.matmul.shape_gflops", "GFLOP/s", "higher", "tokens_per_s on long_*; exposes small-m loss on fine_slices"),
    m("tensor.attention.fwd_gflops", "GFLOP/s", "higher", "tokens_per_s on long_slim; little on fine_slices"),
    m("tensor.attention.bwd_gflops", "GFLOP/s", "higher", "tokens_per_s on long_slim; little on fine_slices"),
    m("tensor.attention.mono_fwd_gflops", "GFLOP/s", "higher", "tokens_per_s on long_1f1b only"),
    m("tensor.crossentropy.fwd_bwd_s", "s", "lower", "last-stage busy -> tokens_per_s on long_1f1b"),
    m("tensor.pool.ops_per_step", "count", "lower", "tokens_per_s on fine_slices; peak_rss_bytes everywhere"),
    m("tensor.pool.hit_rate", "ratio", "higher", "tokens_per_s on fine_slices; peak_rss_bytes everywhere"),
    m("tensor.matmul.weight_packs", "count", "lower", "tokens_per_s on elastic_job (per-segment rebuild)"),
    m("rayon.thread_spawns", "count", "lower", "tokens_per_s on fine_slices (expect 0)"),
    m("exec.layer.fwd_first_s", "s", "lower", "tokens_per_s on long_*"),
    m("exec.layer.fwd_last_s", "s", "lower", "tokens_per_s on long_*; last / first is the causal imbalance"),
    m("exec.layer.bwd_first_s", "s", "lower", "tokens_per_s on long_*"),
    m("exec.layer.bwd_last_s", "s", "lower", "tokens_per_s on long_*; last / first is the causal imbalance"),
    m("exec.stage.build_s", "s", "lower", "setup_s; tokens_per_s on elastic_job"),
    m("exec.stage.iter_s", "s", "lower", "tokens_per_s on all step workloads"),
    m("exec.train.makespan_s", "s", "lower", "tokens_per_s"),
    m("exec.train.bubble", "ratio", "lower", "tokens_per_s on long_slim vs long_1f1b"),
    m("exec.train.stage_busy_max_s", "s", "lower", "tokens_per_s"),
    m("exec.train.call_fixed_s", "s", "lower", "tokens_per_s on elastic_job and fine_slices; nothing on long_*"),
    m("exec.train.posted_sends", "count", "lower", "none (shape check, exact)"),
    m("exec.comm.wait_frac", "ratio", "lower", "tokens_per_s on long_slim, fine_slices; 0 on long_1f1b"),
    m("exec.comm.overlap_eff", "ratio", "higher", "tokens_per_s on long_slim, fine_slices"),
    m("exec.comm.retries", "count", "lower", "failure share (expect 0)"),
    m("exec.checkpoint.save_s", "s", "lower", "tokens_per_s on elastic_job only"),
    m("exec.checkpoint.load_s", "s", "lower", "tokens_per_s on elastic_job only"),
    m("exec.checkpoint.regroup_s", "s", "lower", "tokens_per_s on elastic_job only"),
    m("exec.checkpoint.bytes", "bytes", "lower", "tokens_per_s on elastic_job only"),
    m("planner.calibrate.s", "s", "lower", "setup_s on elastic_job"),
    m("planner.calibrate.layer_err", "ratio", "lower", "none (residual of c0 + ct*t + cp*pairs at real shapes)"),
    m("planner.search.plan_s", "s", "lower", "none today (planning is off the step path)"),
    m("planner.search.replan_s", "s", "lower", "tokens_per_s on elastic_job"),
    m("planner.cost.byte_model_ratio", "ratio", "higher", "peak_act_bytes_max explanations; predicted / measured"),
    m("obs.trace_overhead", "ratio", "lower", "validity of every traced number (<= 0.10)"),
    m("obs.spans", "count", "lower", "validity of every traced number"),
    m("obs.spans_dropped", "count", "lower", "validity of every traced number (expect 0)"),
    m("ladder.kernel_gflops", "GFLOP/s", "higher", "tokens_per_s everywhere"),
    m("ladder.layer_gflops", "GFLOP/s", "higher", "tokens_per_s everywhere"),
    m("ladder.unit_gflops", "GFLOP/s", "higher", "tokens_per_s everywhere"),
    m("ladder.stage_gflops", "GFLOP/s", "higher", "tokens_per_s everywhere"),
    m("ladder.step_gflops", "GFLOP/s", "higher", "tokens_per_s everywhere"),
    m("ladder.layer_frac", "ratio", "higher", "layer rung / kernel rung"),
    m("ladder.unit_frac", "ratio", "higher", "unit rung / layer rung"),
    m("ladder.stage_frac", "ratio", "higher", "stage rung / unit rung"),
    m("ladder.step_frac", "ratio", "higher", "step rung / stage rung"),
];

/// Printed by name with their unit, and written to the trace file, on the
/// workloads they apply to — but not part of the result line, whose metric
/// set must be the same on every workload.
#[rustfmt::skip]
pub const EXTRA: &[MetricDef] = &[
    m("exec.comm.exchange_wait_s", "s", "lower", "tokens_per_s on long_slim, fine_slices, elastic_job"),
    m("planner.compare.makespan_ratio", "ratio", "lower", "none; measured / predicted, read as distance from 1"),
    m("planner.compare.unit_err", "ratio", "lower", "none; must not drift when cost models are merged"),
    m("sim.pred_bubble", "ratio", "lower", "none; must not drift when cost models are merged"),
    m("exec.driver.recover_over_clean", "ratio", "lower", "tokens_per_s on elastic_job only"),
    m("exec.driver.recovery_s", "s", "lower", "tokens_per_s on elastic_job only"),
    m("exec.driver.redo_iters", "count", "lower", "tokens_per_s on elastic_job only"),
    m("exec.driver.recoveries", "count", "lower", "elastic_job only (expect 1)"),
    m("ladder.job_gflops", "GFLOP/s", "higher", "tokens_per_s on elastic_job only"),
    m("ladder.job_frac", "ratio", "higher", "job rung / step rung, elastic_job only"),
];

fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(EXTRA)
        .find(|d| d.name == name)
}

/// Measured values in the order they were set.
#[derive(Default)]
pub struct Metrics(Vec<(&'static MetricDef, f64)>);

impl Metrics {
    /// Record `name`; an unknown name or a non-finite value is a bug in
    /// the benchmark, not a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        let d = def(name).unwrap_or_else(|| panic!("metric {name} is not in the tables"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.get(name).is_none(), "metric {name} set twice");
        self.0.push((d, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(d, _)| d.name == name).map(|&(_, v)| v)
    }

    /// Print every value by name with its unit.
    pub fn print(&self) {
        for (d, v) in &self.0 {
            println!("metric {:<34} {:>18.6} {}", d.name, v, d.unit);
        }
    }

    /// The result line's `metrics` object: exactly the metrics of `table`.
    pub fn result_object(&self, table: &[MetricDef]) -> Value {
        Value::obj(table.iter().map(|d| {
            let v = self
                .get(d.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
            (d.name, entry(d, v))
        }))
    }

    /// Everything measured, tables or not (for the trace file).
    pub fn all_object(&self) -> Value {
        Value::obj(self.0.iter().map(|&(d, v)| (d.name, entry(d, v))))
    }
}

fn entry(d: &MetricDef, value: f64) -> Value {
    Value::obj([("value", Value::Num(value)), ("unit", Value::str(d.unit))])
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of `xs` (any order, non-empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}
