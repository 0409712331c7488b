//! The repo benchmark. Two ways in:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and prints its result as the last line
//!   (what `BENCHMARK.json`'s command is given);
//! * without `--workload`, the suite: every workload in a child process of
//!   its own, untraced then traced, a summary, and `out/results.json`
//!   (`--repeat-check` runs the untraced suite twice and compares).
//!
//! See `README.md` for what is measured and why.

use slimpipe_benchmark::json::{self, Value};
use slimpipe_benchmark::metrics::END_TO_END;
use slimpipe_benchmark::{run, workloads};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: slimpipe-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--smoke] [--repeat-check]";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat_check: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 7,
        seconds: None,
        trace: false,
        smoke: false,
        repeat_check: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err(format!("--seconds: {s} is not a duration"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other}")),
                }
            }
            "--smoke" => cli.smoke = true,
            "--repeat-check" => cli.repeat_check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// `BENCHMARK.json` at the repo root: the suite takes its run length and
/// its regression bounds from the same file the driver reads.
fn contract() -> Result<Value, String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// How long a run measures: `--seconds`, else nothing for `--smoke`, else
/// the contract's `run_seconds`.
fn seconds(cli: &Cli) -> Result<f64, String> {
    match cli.seconds {
        Some(s) => Ok(s),
        None if cli.smoke => Ok(0.0),
        None => contract()?
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("BENCHMARK.json: run_seconds missing".into()),
    }
}

/// One child run: its `info` lines and its parsed result line.
struct ChildRun {
    info: Vec<(String, Value)>,
    result: Value,
    ok: bool,
}

impl ChildRun {
    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    fn info(&self, key: &str) -> Option<&str> {
        self.info
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_str())
    }

    fn to_json(&self) -> Value {
        Value::obj([
            ("exit_ok", Value::Bool(self.ok)),
            ("info", Value::Obj(self.info.clone())),
            ("result", self.result.clone()),
        ])
    }
}

/// Run one workload in a child process with the env hooks removed, echo
/// its output, and parse it.
fn child(cli: &Cli, seconds: f64, workload: &str, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &cli.seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .env_remove("SLIMPIPE_TRACE")
        .env_remove("SLIMPIPE_FAULT_PLAN")
        .stdout(Stdio::piped());
    if cli.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    let info = text
        .lines()
        .filter_map(|l| l.strip_prefix("info "))
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), Value::str(v)))
        .collect();
    let last = text
        .lines()
        .last()
        .ok_or(format!("{workload}: no output"))?;
    let result = json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    Ok(ChildRun {
        info,
        result,
        ok: out.status.success(),
    })
}

/// `(run 2 is not worse than run 1 by more than bound, relative change)`.
fn within_bound(better: &str, bound: f64, first: f64, second: f64) -> (bool, f64) {
    let worse_by = if better == "higher" {
        (first - second) / first
    } else {
        (second - first) / first
    };
    (worse_by <= bound, (second - first) / first)
}

/// `--repeat-check`: one row per (end-to-end metric, workload) saying
/// whether run 2 is within the metric's bound of run 1, and whether all are.
fn repeat_rows(
    contract: &Value,
    run1: &[ChildRun],
    run2: &[ChildRun],
) -> Result<(Vec<Value>, bool), String> {
    let (mut rows, mut pass) = (Vec::new(), true);
    let e2e = contract.get("end_to_end").and_then(Value::as_arr);
    for metric in e2e.ok_or("end_to_end missing")? {
        let field = |k: &str| {
            metric
                .get(k)
                .and_then(Value::as_str)
                .ok_or(format!("end_to_end.{k}"))
        };
        let (name, better) = (field("name")?, field("better")?);
        let bound = metric
            .get("bound")
            .and_then(Value::as_f64)
            .ok_or("end_to_end.bound")?;
        for (w, (r1, r2)) in workloads::NAMES.iter().zip(run1.iter().zip(run2)) {
            let (a, b) = (r1.metric(name), r2.metric(name));
            let (ok, change) = a.zip(b).map_or((false, f64::NAN), |(a, b)| {
                within_bound(better, bound, a, b)
            });
            pass &= ok;
            let verdict = if ok { "ok" } else { "FAILED" };
            println!("repeat {w:<12} {name:<20} change {change:>+8.4} bound {bound:.2} {verdict}");
            rows.push(Value::obj([
                ("workload", Value::str(*w)),
                ("metric", Value::str(name)),
                ("run1", a.map_or(Value::Null, Value::Num)),
                ("run2", b.map_or(Value::Null, Value::Num)),
                ("bound", Value::Num(bound)),
                ("ok", Value::Bool(ok)),
            ]));
        }
    }
    Ok((rows, pass))
}

fn suite(cli: &Cli) -> Result<bool, String> {
    let seconds = seconds(cli)?;
    let names = workloads::NAMES;
    let mut pass = true;

    // Untraced first (twice for --repeat-check), then traced.
    let rounds = if cli.repeat_check { 2 } else { 1 };
    let mut untraced: Vec<Vec<ChildRun>> = Vec::new();
    for round in 0..rounds {
        println!("== untraced suite, run {} of {rounds} ==", round + 1);
        let runs = names
            .iter()
            .map(|w| child(cli, seconds, w, false))
            .collect::<Result<_, _>>()?;
        untraced.push(runs);
    }
    println!("== traced suite ==");
    let traced: Vec<ChildRun> = names
        .iter()
        .map(|w| child(cli, seconds, w, true))
        .collect::<Result<_, _>>()?;

    println!("== summary ==");
    for (w, (u, t)) in names.iter().zip(untraced[0].iter().zip(&traced)) {
        for r in [u, t] {
            let failed = r
                .result
                .get("failed")
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN);
            let attempted = r
                .result
                .get("attempted")
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN);
            if !r.ok || failed != 0.0 {
                pass = false;
                println!(
                    "{w}: FAILED ({failed} of {attempted} ops failed, exit ok: {})",
                    r.ok
                );
            }
        }
        for d in END_TO_END {
            if let Some(v) = u.metric(d.name) {
                println!("{w:<12} {:<20} {v:>18.4} {}", d.name, d.unit);
            }
        }
    }

    // Derived ratios, for reading only, and the cross-check that both long
    // workloads trained the same model on the same data.
    let by_name = |w: &str| names.iter().position(|n| *n == w).map(|i| &untraced[0][i]);
    let (slim, classic) = (by_name("long_slim").unwrap(), by_name("long_1f1b").unwrap());
    let ratio = |a: Option<f64>, b: Option<f64>| a.zip(b).map(|(a, b)| a / b);
    let speed = ratio(classic.metric("tokens_per_s"), slim.metric("tokens_per_s"));
    let memory = ratio(
        slim.metric("peak_act_bytes_max"),
        classic.metric("peak_act_bytes_max"),
    );
    if let (Some(s), Some(m)) = (speed, memory) {
        println!("derived long_1f1b.tokens_per_s / long_slim.tokens_per_s = {s:.4}");
        println!("derived long_slim.peak_act_bytes_max / long_1f1b.peak_act_bytes_max = {m:.4}");
    }
    let loss = |r: &ChildRun| r.info("first_loss").and_then(|s| s.parse::<f64>().ok());
    let loss_rel = loss(slim)
        .zip(loss(classic))
        .map(|(a, b)| ((a - b) / b).abs());
    match loss_rel {
        Some(rel) if rel <= 1e-6 => {
            println!("cross-check long_slim vs long_1f1b first loss: rel {rel:e} ok")
        }
        other => {
            pass = false;
            println!("cross-check long_slim vs long_1f1b first loss FAILED: {other:?}");
        }
    }

    let runs_json =
        |runs: &[ChildRun]| Value::obj(names.iter().zip(runs).map(|(w, r)| (*w, r.to_json())));
    let out = run::out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    if cli.repeat_check {
        let (rows, within) = repeat_rows(&contract()?, &untraced[0], &untraced[1])?;
        pass &= within;
        let doc = Value::obj([
            ("run1", runs_json(&untraced[0])),
            ("run2", runs_json(&untraced[1])),
            ("rows", Value::Arr(rows)),
            ("pass", Value::Bool(pass)),
        ]);
        std::fs::write(out.join("repeat.json"), doc.render())
            .map_err(|e| format!("repeat.json: {e}"))?;
    }
    let doc = Value::obj([
        ("seed", Value::Num(cli.seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("smoke", Value::Bool(cli.smoke)),
        ("untraced", runs_json(&untraced[0])),
        ("traced", runs_json(&traced)),
        (
            "derived",
            Value::obj([
                (
                    "long_1f1b_over_long_slim_tokens_per_s",
                    speed.map_or(Value::Null, Value::Num),
                ),
                (
                    "long_slim_over_long_1f1b_peak_act_bytes_max",
                    memory.map_or(Value::Null, Value::Num),
                ),
                (
                    "long_first_loss_rel_diff",
                    loss_rel.map_or(Value::Null, Value::Num),
                ),
            ]),
        ),
        ("pass", Value::Bool(pass)),
        ("claim", Value::Null),
    ]);
    std::fs::write(out.join("results.json"), doc.render())
        .map_err(|e| format!("results.json: {e}"))?;
    println!("wrote {}", out.join("results.json").display());
    Ok(pass)
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(workload) = &cli.workload {
        return match seconds(&cli) {
            Ok(seconds) => ExitCode::from(run::run(&run::Args {
                workload: workload.clone(),
                seed: cli.seed,
                seconds,
                trace: cli.trace,
                smoke: cli.smoke,
            })),
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    match suite(&cli) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("suite: {e}");
            ExitCode::from(1)
        }
    }
}
