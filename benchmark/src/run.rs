//! One workload in this process: set-up, the timed (untraced) ops, and the
//! result line. The `--trace 1` half is in [`crate::traced`].

use crate::json::Value;
use crate::metrics::{median, quantile, Metrics, END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::workloads::{ckpt_path, reset_ckpt_dir, OpOutcome, Workload};
use slimpipe_exec::fault::InjectedPanic;
use slimpipe_exec::obs::TraceSession;
use slimpipe_exec::train::make_data;
use slimpipe_planner::CostProfile;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// Where results, traces and checkpoint files go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Set-up repeats per run; `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 20;
/// Fewest timed ops per run, whatever `--seconds` says.
const MIN_OPS: usize = 3;

/// Ops attempted and failed so far. An op fails if it returns an error,
/// its loss is not finite, or its loss bits differ from the first op's.
#[derive(Default)]
pub(crate) struct Tally {
    attempted: u64,
    failed: u64,
    first_loss: Option<f64>,
}

impl Tally {
    /// Count one op. `loss` reads the loss whose bits must repeat.
    pub(crate) fn record<T>(
        &mut self,
        out: Result<T, String>,
        loss: impl Fn(&T) -> f64,
    ) -> Option<T> {
        self.attempted += 1;
        let verdict = out.and_then(|o| {
            let l = loss(&o);
            let first = *self.first_loss.get_or_insert(l);
            if !l.is_finite() {
                Err(format!("loss is not finite: {l}"))
            } else if l.to_bits() != first.to_bits() {
                Err(format!("loss {l:e} differs from the first op's {first:e}"))
            } else {
                Ok(o)
            }
        });
        verdict
            .inspect_err(|e| {
                self.failed += 1;
                eprintln!("op {} failed: {e}", self.attempted);
            })
            .ok()
    }
}

/// Config + data, calibration where the op uses a profile, and the output
/// check at `seq / 8` — which also walks every code path the ops take, so
/// thread pools and lazy statics are up before the first timed op.
/// Returns the profile the ops need (the elastic job re-plans with it).
pub(crate) fn set_up(w: &Workload, ckpt: &Path) -> Result<Option<CostProfile>, String> {
    w.cfg.validate()?;
    black_box(make_data(&w.cfg));
    let profile = w.elastic.is_some().then(|| w.calibrate());
    w.check_output(profile.as_ref(), ckpt)?;
    Ok(profile)
}

fn vm_hwm_bytes() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb * 1024.0
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_default()
}

fn info(key: &str, value: impl std::fmt::Display) {
    println!("info {key} {value}");
}

/// Run untraced ops back to back until `seconds` have passed and at least
/// `min_ops` ran. Returns the successful ops' wall times and the last
/// successful outcome.
pub(crate) fn timed_ops(
    w: &Workload,
    profile: Option<&CostProfile>,
    ckpt: &Path,
    seconds: f64,
    min_ops: usize,
    tally: &mut Tally,
) -> (Vec<f64>, Option<OpOutcome>) {
    let off = TraceSession::disabled();
    let (mut times, mut last) = (Vec::new(), None);
    let start = Instant::now();
    let mut ops = 0;
    while ops < min_ops || start.elapsed().as_secs_f64() < seconds {
        if w.elastic.is_some() {
            reset_ckpt_dir(ckpt);
        }
        let t0 = Instant::now();
        let out = w.op(&w.cfg, profile, ckpt, &off);
        let dt = t0.elapsed().as_secs_f64();
        ops += 1;
        if let Some(o) = tally.record(out, |o| o.loss) {
            times.push(dt);
            last = Some(o);
        }
    }
    (times, last)
}

pub(crate) fn print_op_times(times: &[f64]) {
    info("ops_timed", times.len());
    info(
        "op_time_s",
        format!(
            "median {:.6} q1 {:.6} q3 {:.6} min {:.6} max {:.6}",
            median(times),
            quantile(times, 0.25),
            quantile(times, 0.75),
            quantile(times, 0.0),
            quantile(times, 1.0)
        ),
    );
}

/// `--trace 0`: the end-to-end metrics.
fn untraced(w: &Workload, args: &Args, ckpt: &Path, tally: &mut Tally) -> Result<Metrics, String> {
    // Set up several times and report the median; a short set-up repeats
    // until a second has gone into it, so its median is steady too.
    let (min_setups, max_setups) = if args.smoke {
        (1, 1)
    } else {
        (MIN_SETUPS, MAX_SETUPS)
    };
    let mut setup_times = Vec::new();
    let mut profile = None;
    while setup_times.len() < min_setups
        || (setup_times.len() < max_setups && setup_times.iter().sum::<f64>() < 1.0)
    {
        let t0 = Instant::now();
        profile = set_up(w, ckpt)?;
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    info("setups", setup_times.len());
    let spawns0 = rayon::pool_thread_spawns();
    let min_ops = if args.smoke { 2 } else { MIN_OPS };
    let (times, last) = timed_ops(w, profile.as_ref(), ckpt, args.seconds, min_ops, tally);
    let rss = vm_hwm_bytes();
    let last = last.ok_or("no op succeeded")?;
    print_op_times(&times);
    info(
        "first_loss",
        format!("{:e}", tally.first_loss.unwrap_or(f64::NAN)),
    );
    info(
        "thread_spawns_while_timed",
        rayon::pool_thread_spawns() - spawns0,
    );
    let mut m = Metrics::default();
    m.set("tokens_per_s", w.tokens_per_op() / median(&times));
    m.set("peak_act_bytes_max", last.peak_act_bytes_max() as f64);
    m.set("peak_rss_bytes", rss);
    m.set("setup_s", median(&setup_times));
    Ok(m)
}

pub(crate) fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run one workload and print its result line. Returns the process exit
/// code: 0 unless set-up (including the output check) failed.
pub fn run(args: &Args) -> u8 {
    // Both are read inside the entry points and would silently change an
    // "untraced, clean" op.
    std::env::remove_var("SLIMPIPE_TRACE");
    std::env::remove_var("SLIMPIPE_FAULT_PLAN");
    // The elastic job's injected panic is expected; keep it off stderr.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |i| {
        if i.payload().downcast_ref::<InjectedPanic>().is_none() {
            prev(i);
        }
    }));
    let Some(w) = Workload::new(&args.workload, args.seed, args.smoke) else {
        eprintln!(
            "unknown workload {:?}; one of {:?}",
            args.workload,
            crate::workloads::NAMES
        );
        return 2;
    };
    let out = out_dir();
    std::fs::create_dir_all(&out).expect("create benchmark/out");
    let ckpt = ckpt_path(&out, w.name);
    reset_ckpt_dir(&ckpt);

    info("workload", w.name);
    info("seed", args.seed);
    info("nproc", nproc());
    info("rayon_width", rayon::current_num_threads());
    info("attn_kernel", slimpipe_tensor::attn_kernel().as_str());
    info("kernel_nr", slimpipe_tensor::matmul::kernel_nr());
    info("oversubscribed", w.cfg.stages > nproc());
    info("loadavg_before", loadavg());

    let mut tally = Tally::default();
    let mut sp = Spans::new(w.name);
    let result = if args.trace {
        crate::traced::traced(&w, args, &ckpt, &mut tally, &mut sp).map(|(m, chrome)| {
            let doc = Value::obj([
                ("workload", Value::str(w.name)),
                ("seed", Value::Num(args.seed as f64)),
                ("metrics", m.all_object()),
                ("bench_spans", sp.to_json()),
                ("chrome_trace", chrome),
            ]);
            let path = out.join(format!("trace_{}.json", w.name));
            std::fs::write(&path, doc.render()).expect("write trace file");
            info("trace_file", path.display());
            (m, PER_LAYER)
        })
    } else {
        untraced(&w, args, &ckpt, &mut tally).map(|m| (m, END_TO_END))
    };
    let _ = std::fs::remove_dir_all(ckpt.parent().expect("checkpoint directory"));
    info("loadavg_after", loadavg());

    let line = |correct: bool, tally: &Tally, metrics: Value| {
        Value::obj([
            ("correct", Value::Bool(correct)),
            ("attempted", Value::Num(tally.attempted as f64)),
            ("failed", Value::Num(tally.failed as f64)),
            ("metrics", metrics),
        ])
        .render()
    };
    match result {
        Ok((m, table)) => {
            m.print();
            println!(
                "{}",
                line(tally.failed == 0, &tally, m.result_object(table))
            );
            0
        }
        Err(e) => {
            // A failed check aborts the workload: all its ops count as failed.
            eprintln!("{}: aborted: {e}", w.name);
            tally.attempted = tally.attempted.max(MIN_OPS as u64);
            tally.failed = tally.attempted;
            println!("{}", line(false, &tally, Value::Obj(Vec::new())));
            1
        }
    }
}
