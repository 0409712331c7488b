//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the paper (the README's "Paper experiments" section is the
//! index).
//!
//! Each binary prints the same rows/series the paper reports. Run any of
//! them with `cargo run --release -p slimpipe-bench --bin <id>`.

use slimpipe_cluster::{Cluster, Efficiency};
use slimpipe_core::theory::Scheme;
use slimpipe_model::{Checkpoint, ModelConfig};
use slimpipe_sched::{Schedule, ScheduleError};
use slimpipe_sim::cost::PipelineEnv;

/// Fixed-width text table printer.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// ASCII bar for quick visual comparison in terminal output.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round().max(0.0) as usize;
    "█".repeat(n.min(width))
}

/// Human-readable context length ("64K", "2048K").
pub fn ctx_label(seq: u64) -> String {
    format!("{}K", seq / 1024)
}

/// Build the schedule for one of the Figure 13/14 schemes.
pub fn scheme_schedule(
    scheme: Scheme,
    p: usize,
    m: usize,
    n: usize,
    v: usize,
) -> Result<Schedule, ScheduleError> {
    scheme_schedule_with_costs(scheme, p, m, n, v, slimpipe_sched::zbv::ZbCosts::default())
}

/// Like [`scheme_schedule`], but lets the ZB greedy scheduler see realistic
/// `(T_f, T_b, T_w)` ratios (it synthesises its static order from them,
/// exactly as the original ZB artifact does).
pub fn scheme_schedule_with_costs(
    scheme: Scheme,
    p: usize,
    m: usize,
    n: usize,
    v: usize,
    zb: slimpipe_sched::zbv::ZbCosts,
) -> Result<Schedule, ScheduleError> {
    match scheme {
        Scheme::GPipe => slimpipe_sched::gpipe::generate(p, m),
        Scheme::TeraPipe => slimpipe_sched::terapipe::generate(p, m, n),
        Scheme::OneFOneB => slimpipe_sched::onefoneb::generate(p, m),
        Scheme::Interleaved => slimpipe_sched::interleaved::generate(p, v, m),
        Scheme::ZbV => slimpipe_sched::zbv::generate_zbv(p, m, zb),
        Scheme::VHalf => slimpipe_sched::zbv::generate_vhalf(p, m, zb),
        Scheme::SlimPipe => slimpipe_core::interleaved::generate(p, v, m, n),
    }
}

/// Estimated `(T_f, T_b, T_w)` ratios at an operating point — what a ZB
/// scheduler would measure before synthesising its order.
pub fn zb_costs(model: &ModelConfig, env: &PipelineEnv) -> slimpipe_sched::zbv::ZbCosts {
    use slimpipe_cluster::{OpClass, Phase};
    use slimpipe_model::causal_pairs;
    let lf = model.layer_fwd_flops(env.seq, causal_pairs(0, env.seq));
    let peak = env.cluster.gpu.peak_flops;
    let mean_kv = causal_pairs(0, env.seq) as f64 / env.seq as f64;
    let tokens = env.seq as f64;
    let e = &env.eff;
    let tf = e.op_time(OpClass::Gemm, Phase::Forward, lf.gemm, tokens, peak)
        + e.op_time(OpClass::Attention, Phase::Forward, lf.attn, mean_kv, peak);
    let tb = e.op_time(OpClass::Gemm, Phase::Backward, lf.gemm, tokens, peak)
        + e.op_time(OpClass::Attention, Phase::Backward, 2.0 * lf.attn, mean_kv, peak);
    let tw = e.op_time(OpClass::Gemm, Phase::Backward, lf.gemm, tokens, peak);
    slimpipe_sched::zbv::ZbCosts { tf, tb, tw }
}

/// Environment for a scheme at a Figure 13/14-style operating point.
pub fn scheme_env(
    model: &ModelConfig,
    scheme: Scheme,
    seq: u64,
    tp: usize,
    ckpt: Checkpoint,
) -> PipelineEnv {
    let slim = scheme == Scheme::SlimPipe;
    PipelineEnv {
        model: model.clone(),
        cluster: Cluster::hopper_nvlink(),
        eff: Efficiency::hopper(),
        tp,
        cp: 1,
        ep: 1,
        seq,
        mb_seqs: None,
        slicing: slimpipe_core::SlicePolicy::Uniform,
        ckpt,
        exchange: slim,
        early_kv: true,
        vocab_parallel: slim,
        comm_overlap: 0.5,
        pipeline_overlap: 0.0,
    }
}

/// MFU of one simulated pipeline iteration (TP×PP GPUs, DP = 1).
pub fn pipeline_mfu(
    model: &ModelConfig,
    env: &PipelineEnv,
    sched: &Schedule,
    seqs_per_iter: u64,
) -> f64 {
    let cm = slimpipe_sim::cost::CostModel::new(sched, env);
    let report = slimpipe_sim::engine::simulate(&cm);
    let flops = model.model_flops_per_iter(env.seq, seqs_per_iter);
    let gpus = env.tp * env.cp * env.ep * sched.devices;
    slimpipe_sim::metrics::mfu(flops, report.makespan, gpus, env.cluster.gpu.peak_flops)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10).chars().count(), 5);
        assert_eq!(bar(0.0, 10.0, 10), "");
    }

    #[test]
    fn ctx_labels() {
        assert_eq!(ctx_label(65_536), "64K");
        assert_eq!(ctx_label(2 << 20), "2048K");
    }

    #[test]
    fn all_schemes_build() {
        for s in Scheme::table2() {
            let sched = scheme_schedule(s, 4, 4, 8, 2).unwrap();
            slimpipe_sched::validate(&sched).unwrap();
        }
    }
}
