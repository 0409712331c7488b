//! The benchmark's contract: `BENCHMARK.json` is inside the driver's
//! limits and agrees with the metric tables, and every workload's
//! `--smoke` run prints a result line of the agreed shape.

use slimpipe_benchmark::json::{self, Value};
use slimpipe_benchmark::metrics::{MetricDef, END_TO_END, EXTRA, PER_LAYER};
use slimpipe_benchmark::workloads::NAMES;
use std::process::Command;

fn contract() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).expect("valid JSON")
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("string field {key}"))
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.as_bytes()[0].is_ascii_alphanumeric()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// A metric list of `BENCHMARK.json` must repeat a table: same names, in
/// order, same unit and direction, and exactly `entry_keys` per entry.
fn assert_matches_table(list: &[Value], table: &[MetricDef], entry_keys: &[&str]) {
    assert_eq!(
        list.len(),
        table.len(),
        "metric count differs from the table"
    );
    for (entry, def) in list.iter().zip(table) {
        assert_eq!(keys(entry), entry_keys, "{}", def.name);
        assert_eq!(text(entry, "name"), def.name);
        assert_eq!(text(entry, "unit"), def.unit, "{}", def.name);
        assert_eq!(text(entry, "better"), def.better, "{}", def.name);
    }
}

#[test]
fn benchmark_json_is_within_the_limits_and_matches_the_tables() {
    let c = contract();
    assert_eq!(
        keys(&c),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let command = c.get("command").and_then(Value::as_arr).unwrap();
    assert!(
        command.len() <= 32
            && command
                .iter()
                .all(|a| a.as_str().is_some_and(|s| s.len() <= 200))
    );
    assert_eq!(
        c.get("paths").unwrap().as_arr().unwrap(),
        [Value::str("benchmark")]
    );
    let run_seconds = c.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!(run_seconds.fract() == 0.0 && (1.0..=60.0).contains(&run_seconds));

    let workloads = c.get("workloads").and_then(Value::as_arr).unwrap();
    assert!((2..=8).contains(&workloads.len()));
    let names: Vec<&str> = workloads.iter().map(|w| text(w, "name")).collect();
    assert_eq!(names, NAMES);
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = text(w, "why");
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{why}"
        );
    }

    let e2e = c.get("end_to_end").and_then(Value::as_arr).unwrap();
    let per_layer = c.get("per_layer").and_then(Value::as_arr).unwrap();
    assert!((1..=16).contains(&e2e.len()) && (1..=128).contains(&per_layer.len()));
    assert_matches_table(e2e, END_TO_END, &["name", "unit", "better", "bound"]);
    assert_matches_table(per_layer, PER_LAYER, &["name", "unit", "better"]);
    for e in e2e {
        let bound = e.get("bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{}", text(e, "name"));
    }
    let setup = e2e
        .iter()
        .find(|e| text(e, "name") == "setup_s")
        .expect("setup_s is required");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
    let widest = e2e
        .iter()
        .map(|e| e.get("bound").unwrap().as_f64().unwrap())
        .fold(0.0, f64::max);
    assert_eq!(
        setup.get("bound").unwrap().as_f64(),
        Some(widest),
        "setup_s has the largest bound"
    );
}

#[test]
fn every_name_is_well_formed_and_used_once() {
    let mut seen = std::collections::BTreeSet::new();
    for d in END_TO_END.iter().chain(PER_LAYER).chain(EXTRA) {
        assert!(is_name(d.name), "{}", d.name);
        assert!(is_unit(d.unit), "{}: {}", d.name, d.unit);
        assert!(["higher", "lower"].contains(&d.better), "{}", d.name);
        assert!(
            !d.moves.is_empty(),
            "{} must say what it should move",
            d.name
        );
        assert!(seen.insert(d.name), "{} is used twice", d.name);
    }
    for w in NAMES {
        assert!(is_name(w) && seen.insert(w), "{w}");
    }
}

/// Run one workload at `--smoke` size and check its result line.
fn smoke(workload: &str, trace: bool, table: &[MetricDef]) {
    let out = Command::new(env!("CARGO_BIN_EXE_slimpipe-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "11",
            "--trace",
            if trace { "1" } else { "0" },
            "--smoke",
        ])
        .output()
        .expect("spawn the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result =
        json::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON");
    assert_eq!(
        keys(&result),
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}"
    );
    let attempted = result.get("attempted").and_then(Value::as_f64).unwrap();
    assert!(attempted >= 1.0 && attempted.fract() == 0.0);
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    let metrics = result.get("metrics").unwrap();
    assert_eq!(
        keys(metrics),
        table.iter().map(|d| d.name).collect::<Vec<_>>(),
        "{workload}"
    );
    for d in table {
        let m = metrics.get(d.name).unwrap();
        assert_eq!(keys(m), ["value", "unit"], "{}", d.name);
        assert!(
            m.get("value")
                .and_then(Value::as_f64)
                .is_some_and(f64::is_finite),
            "{}",
            d.name
        );
        assert_eq!(text(m, "unit"), d.unit, "{}", d.name);
    }
    // Every metric is also printed by name with its unit.
    for d in table {
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&format!("metric {} ", d.name)) && l.ends_with(d.unit)),
            "{workload}: {} is not printed",
            d.name
        );
    }
}

#[test]
fn smoke_runs_print_the_result_schema() {
    for w in NAMES {
        smoke(w, false, END_TO_END);
        smoke(w, true, PER_LAYER);
    }
}

#[test]
fn an_unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_slimpipe-benchmark"))
        .args(["--workload", "nope", "--trace", "0"])
        .output()
        .expect("spawn the benchmark");
    assert!(!out.status.success() && out.stdout.is_empty());
}
