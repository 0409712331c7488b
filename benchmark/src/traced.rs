//! `--trace 1`: the per-layer metrics, from one traced op through the
//! workload's entry point, the probes of [`crate::probes`], and the ladder
//! built from both.

use crate::json::{self, Value};
use crate::metrics::{median, Metrics};
use crate::probes::{self, LayerPass};
use crate::run::{nproc, print_op_times, set_up, timed_ops, Args, Tally};
use crate::spans::Spans;
use crate::workloads::{elastic_op, reset_ckpt_dir, step_op, ElasticSpec, OpOutcome, Workload};
use slimpipe_exec::obs::{self, RecoveryPhase, SpanKind, TraceSession};
use slimpipe_exec::schedule::{build_schedule, PipelineKind};
use slimpipe_exec::{approx_flops_per_iteration, ExecConfig};
use slimpipe_planner::{compare_run, ByteModel, CostProfile};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One traced op: its outcome, wall time, and what the session recorded.
struct Traced {
    outcome: OpOutcome,
    wall_s: f64,
    report: obs::TraceReport,
    counters: obs::CounterSnapshot,
}

fn traced_call(
    sp: &mut Spans,
    name: &str,
    f: impl FnOnce(&Arc<TraceSession>) -> Result<OpOutcome, String>,
) -> Result<Traced, String> {
    let session = TraceSession::new();
    let c0 = obs::snapshot();
    let (out, wall_s) = sp.scope(name, |_| f(&session));
    let counters = obs::snapshot().delta(&c0);
    Ok(Traced {
        outcome: out?,
        wall_s,
        report: session.report(),
        counters,
    })
}

/// What the traced step says about the pipeline (`exec.train.*`,
/// `exec.comm.*`, `tensor.pool.*`). Returns the stages' summed busy time.
fn step_metrics(m: &mut Metrics, cfg: &ExecConfig, step: &Traced) -> Result<f64, String> {
    let rm = &step.outcome.result.metrics;
    let makespan = rm
        .measured_makespan_s
        .ok_or("traced step recorded no compute spans")?;
    let busy: f64 = rm.stage_busy_s.iter().sum();
    let wait: f64 = rm.exchange_wait_s.iter().sum();
    m.set("exec.train.makespan_s", makespan);
    m.set("exec.train.bubble", rm.measured_bubble.unwrap_or(0.0));
    m.set(
        "exec.train.stage_busy_max_s",
        rm.stage_busy_s.iter().copied().fold(0.0, f64::max),
    );
    m.set("exec.train.call_fixed_s", step.wall_s - makespan);
    m.set(
        "exec.train.posted_sends",
        step.outcome.result.posted_sends as f64,
    );
    m.set("exec.comm.wait_frac", wait / busy);
    m.set(
        "exec.comm.overlap_eff",
        rm.overlap_efficiency.unwrap_or(1.0),
    );
    m.set("exec.comm.retries", rm.counters.exchange_retries as f64);
    if cfg.exchange || cfg.vocab_parallel {
        m.set("exec.comm.exchange_wait_s", wait);
    }
    let pool_ops = rm.counters.pool_hits + rm.counters.pool_misses;
    m.set("tensor.pool.ops_per_step", pool_ops as f64);
    m.set(
        "tensor.pool.hit_rate",
        rm.counters.pool_hits as f64 / pool_ops.max(1) as f64,
    );
    Ok(busy)
}

/// What the ladder needs from the probes.
struct Probed {
    peak_gflops: f64,
    pass: LayerPass,
    iter_s: f64,
}

/// The `tensor.*`, `exec.layer.*`, `exec.stage.*` and `exec.checkpoint.*`
/// probes.
fn probe_metrics(m: &mut Metrics, sp: &mut Spans, w: &Workload, ckpt: &Path) -> Probed {
    let cfg = &w.cfg;
    let peak_gflops = probes::matmul_peak_gflops(sp);
    m.set("tensor.matmul.peak_gflops", peak_gflops);
    m.set(
        "tensor.matmul.shape_gflops",
        probes::matmul_shape_gflops(sp, cfg),
    );
    let (fwd, bwd) = probes::attention_chunked_gflops(sp, cfg);
    m.set("tensor.attention.fwd_gflops", fwd);
    m.set("tensor.attention.bwd_gflops", bwd);
    m.set(
        "tensor.attention.mono_fwd_gflops",
        probes::attention_mono_gflops(sp, cfg),
    );
    m.set(
        "tensor.crossentropy.fwd_bwd_s",
        probes::crossentropy_s(sp, cfg),
    );

    let pass = probes::layer_pass(sp, cfg);
    let n = pass.slices.len();
    m.set("exec.layer.fwd_first_s", pass.fwd_s[0]);
    m.set("exec.layer.fwd_last_s", pass.fwd_s[n - 1]);
    m.set("exec.layer.bwd_first_s", pass.bwd_s[0]);
    m.set("exec.layer.bwd_last_s", pass.bwd_s[n - 1]);
    m.set("exec.stage.build_s", probes::stage_build_s(sp, cfg));
    let iter_s = probes::stage_iter_s(sp, cfg, w.kind);
    m.set("exec.stage.iter_s", iter_s);

    let ck = probes::checkpoint(sp, cfg, &ckpt.with_file_name("probe.ckpt"));
    m.set("exec.checkpoint.save_s", ck.save_s);
    m.set("exec.checkpoint.load_s", ck.load_s);
    m.set("exec.checkpoint.regroup_s", ck.regroup_s);
    m.set("exec.checkpoint.bytes", ck.bytes as f64);
    Probed {
        peak_gflops,
        pass,
        iter_s,
    }
}

/// Calibration, its residual at this workload's shapes, the searches,
/// plan-vs-reality on the traced step, and the byte model.
fn planner_metrics(
    m: &mut Metrics,
    sp: &mut Spans,
    w: &Workload,
    pass: &LayerPass,
    step: &Traced,
) -> Result<(), String> {
    let cfg = &w.cfg;
    let (profile, calibrate_s) = sp.scope("planner.calibrate", |_| w.calibrate());
    m.set("planner.calibrate.s", calibrate_s);
    m.set(
        "planner.calibrate.layer_err",
        probes::layer_err(&profile, pass),
    );
    let (plan_s, replan_s) = probes::planner_search_s(sp, cfg, &profile);
    m.set("planner.search.plan_s", plan_s);
    m.set("planner.search.replan_s", replan_s);
    // The planner models slice-wise SlimPipe schedules only.
    if w.kind == PipelineKind::SlimPipe {
        let (cmp, _) = sp.scope("planner.compare", |_| {
            compare_run(cfg, &profile, &step.report)
        });
        let cmp = cmp?;
        m.set("planner.compare.makespan_ratio", cmp.makespan_ratio);
        m.set("planner.compare.unit_err", cmp.mean_abs_unit_error);
        m.set("sim.pred_bubble", cmp.predicted_bubble);
    }
    let predicted_peak = ByteModel::from_config(cfg)
        .worst_predicted_peak(&build_schedule(w.kind, cfg), &cfg.slicings());
    m.set(
        "planner.cost.byte_model_ratio",
        predicted_peak / step.outcome.peak_act_bytes_max() as f64,
    );
    Ok(())
}

/// `exec.driver.*`: a clean twin of the job (no fault) against the
/// untraced median job wall `op_s`, and the traced job's recovery record.
fn driver_metrics(
    m: &mut Metrics,
    sp: &mut Spans,
    (cfg, spec): (&ExecConfig, &ElasticSpec),
    profile: &CostProfile,
    ckpt: &Path,
    job: &Traced,
    op_s: f64,
) -> Result<(), String> {
    reset_ckpt_dir(ckpt);
    let (clean, clean_s) = sp.scope("exec.driver.clean_twin", |_| {
        elastic_op(cfg, spec, profile, ckpt, true, &TraceSession::disabled())
    });
    clean?;
    let log = job.outcome.log.as_ref().expect("elastic op keeps its log");
    let transitions = |s: &&obs::Span| {
        matches!(
            s.kind,
            SpanKind::Recovery {
                phase: RecoveryPhase::Replan | RecoveryPhase::Restore,
                ..
            }
        )
    };
    let recovery_us: f64 = job.report.track("driver").map_or(0.0, |t| {
        t.spans.iter().filter(transitions).map(|s| s.dur_us).sum()
    });
    let redo: usize = log
        .events
        .iter()
        .map(|e| spec.fault.iteration - e.resumed_from)
        .sum();
    m.set("exec.driver.recover_over_clean", op_s / clean_s);
    m.set("exec.driver.recovery_s", recovery_us * 1e-6);
    m.set("exec.driver.redo_iters", redo as f64);
    m.set("exec.driver.recoveries", log.events.len() as f64);
    Ok(())
}

/// The ladder: per-thread GFLOP/s on the analytic FLOPs each rung covers,
/// each as a fraction of the rung below. Probes run on one caller thread
/// with the whole rayon pool; the pipelined rungs are divided among the
/// stage threads. `busy_s` is the stages' summed busy time of the traced
/// step, `step_s` and `job_s` untraced medians.
fn ladder(m: &mut Metrics, w: &Workload, probed: &Probed, busy_s: f64, step_s: f64, job_s: f64) {
    let cfg = &w.cfg;
    let threads = rayon::current_num_threads().min(nproc()) as f64;
    let stages = cfg.stages as f64;
    let step_flops = approx_flops_per_iteration(cfg);
    let layer_flops = probes::layer_flops(cfg, cfg.seq);
    let layer_s: f64 = probed.pass.fwd_s.iter().chain(&probed.pass.bwd_s).sum();
    let stage0_flops = (cfg.layers_per_stage() * cfg.microbatches) as f64 * layer_flops;
    let mut rungs = vec![
        ("kernel", probed.peak_gflops / threads),
        ("layer", layer_flops / layer_s / threads / 1e9),
        ("unit", stage0_flops / probed.iter_s / threads / 1e9),
        ("stage", step_flops / busy_s / 1e9),
        ("step", step_flops / step_s / stages / 1e9),
    ];
    if let Some(spec) = &w.elastic {
        let job_flops = spec.iterations as f64 * step_flops;
        rungs.push(("job", job_flops / job_s / stages / 1e9));
    }
    // tokens/s of a rung = tokens of a step × its GFLOP/s × threads that
    // run a step ÷ FLOPs of a step.
    let tokens_per_gflop = cfg.total_tokens() as f64 * stages / (step_flops / 1e9);
    println!(
        "ladder {:<8} {:>12} {:>14} {:>10}",
        "rung", "GFLOP/s", "tokens/s", "of below"
    );
    for (i, &(name, gflops)) in rungs.iter().enumerate() {
        m.set(&format!("ladder.{name}_gflops"), gflops);
        let frac = (i > 0).then(|| gflops / rungs[i - 1].1);
        if let Some(f) = frac {
            m.set(&format!("ladder.{name}_frac"), f);
        }
        println!(
            "ladder {name:<8} {gflops:>12.3} {:>14.1} {:>10}",
            gflops * tokens_per_gflop,
            frac.map_or("-".to_string(), |f| format!("{f:.3}"))
        );
    }
}

/// Run the traced phase of `w`. Returns the metrics and the program's
/// Chrome trace of the traced op.
pub(crate) fn traced(
    w: &Workload,
    args: &Args,
    ckpt: &Path,
    tally: &mut Tally,
    sp: &mut Spans,
) -> Result<(Metrics, Value), String> {
    let cfg = &w.cfg;
    let mut m = Metrics::default();
    let (profile, _) = sp.scope("setup", |_| set_up(w, ckpt));
    let profile = profile?;

    // Untraced baseline for the tracing overhead and the step rung, in half
    // the run's budget; two ops at least, so one cold op cannot set it.
    let spawns0 = rayon::pool_thread_spawns();
    let ((times, _), _) = sp.scope("ops.untraced", |_| {
        timed_ops(w, profile.as_ref(), ckpt, args.seconds / 2.0, 2, tally)
    });
    if times.is_empty() {
        return Err("no untraced op succeeded".into());
    }
    print_op_times(&times);
    let op_s = median(&times);
    m.set(
        "rayon.thread_spawns",
        (rayon::pool_thread_spawns() - spawns0) as f64,
    );

    // The traced op, through the same entry point.
    if w.elastic.is_some() {
        reset_ckpt_dir(ckpt);
    }
    let job = traced_call(sp, "op.traced", |s| w.op(cfg, profile.as_ref(), ckpt, s));
    let job = tally
        .record(job, |t| t.outcome.loss)
        .ok_or("the traced op failed")?;
    m.set("obs.trace_overhead", job.wall_s / op_s - 1.0);
    m.set("obs.spans", job.report.span_count() as f64);
    m.set("obs.spans_dropped", job.counters.spans_dropped as f64);
    m.set(
        "tensor.matmul.weight_packs",
        job.counters.weight_packs as f64,
    );

    // One training step of the workload's configuration: the op itself,
    // or — for the elastic job — a step of what the job repeats.
    let elastic_step;
    let (step, step_s) = if w.elastic.is_some() {
        let off = TraceSession::disabled();
        let (untraced_steps, _) = sp.scope("step.untraced", |_| {
            (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    step_op(cfg, w.kind, &off).map(|_| t0.elapsed().as_secs_f64())
                })
                .collect::<Result<Vec<f64>, String>>()
        });
        elastic_step = traced_call(sp, "step.traced", |s| step_op(cfg, w.kind, s))?;
        (&elastic_step, median(&untraced_steps?))
    } else {
        (&job, op_s)
    };

    let busy_s = step_metrics(&mut m, cfg, step)?;
    let probed = probe_metrics(&mut m, sp, w, ckpt);
    planner_metrics(&mut m, sp, w, &probed.pass, step)?;
    if let Some(spec) = &w.elastic {
        let profile = profile.as_ref().expect("elastic set-up calibrates");
        driver_metrics(&mut m, sp, (cfg, spec), profile, ckpt, &job, op_s)?;
    }
    ladder(&mut m, w, &probed, busy_s, step_s, op_s);

    let chrome = json::parse(&obs::chrome::chrome_trace_json(&job.report))
        .map_err(|e| format!("obs chrome trace is not JSON: {e}"))?;
    Ok((m, chrome))
}
