//! Perf-regression gate over the criterion shim's `BENCH_<name>.json`
//! snapshots: compare a freshly measured snapshot against a committed
//! baseline and fail when any shared series regressed by more than the
//! threshold.
//!
//! ```text
//! bench_check <baseline.json> <fresh.json> [--pct <percent>]
//! ```
//!
//! The threshold defaults to 20% and can also be set with
//! `BENCH_REGRESSION_PCT`. Series present in only one snapshot are
//! reported but never fail the gate (new benches appear, old ones retire);
//! a fresh snapshot measured under a different *regime* than the baseline
//! downgrades the id-by-id comparison to report-only, because absolute
//! times across regimes are not comparable. A regime is the thread
//! metadata (`threads` / `rayon_num_threads`) **and** the slicing-policy
//! tag (`slicing_policy`, set by `BENCH_SLICING_POLICY` during slice-sweep
//! runs) — a pair-balanced sweep never gates against a uniform baseline.
//!
//! Machine-independent **ratio invariants** inside the *fresh* snapshot
//! gate in every regime (CI runners never match the committed baseline's
//! host): the tiled GEMM must stay well ahead of the seed kernel, the pool
//! must stay well ahead of malloc, the softmax row kernel must stay well
//! ahead of libm `exp`, and the thread-scaling series must never be slower
//! than their single-thread twins beyond noise.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Metadata keys the scanner understands. Anything else in the snapshot
/// header is tolerated and flagged (a newer shim may stamp new regime
/// metadata; an old checker must keep working, loudly).
const KNOWN_METADATA: &[&str] = &["bench", "threads", "rayon_num_threads", "slicing_policy"];

/// Minimal field scanner for the snapshot format the criterion shim
/// writes — one `{"id": ..., "ns_per_iter": ...}` object per line.
/// Returns `(series, regime, unknown metadata keys)`.
fn parse_snapshot(text: &str) -> (BTreeMap<String, f64>, Option<String>, Vec<String>) {
    let mut results = BTreeMap::new();
    let mut regime = None;
    let mut unknown = Vec::new();
    let mut in_header = true;
    for line in text.lines() {
        let t = line.trim().trim_end_matches(',');
        if t.starts_with("\"results\":") {
            in_header = false;
        }
        if in_header {
            if let Some(key) = t
                .strip_prefix('"')
                .and_then(|r| r.split_once('"'))
                .filter(|(_, rest)| rest.starts_with(':'))
                .map(|(k, _)| k)
            {
                if !KNOWN_METADATA.contains(&key) {
                    unknown.push(key.to_string());
                }
            }
        }
        if let Some(v) = t.strip_prefix("\"threads\":") {
            regime = Some(format!("threads={}", v.trim()));
        }
        if let Some(v) = t.strip_prefix("\"rayon_num_threads\":") {
            if let Some(r) = &mut regime {
                r.push_str(&format!(" rayon_num_threads={}", v.trim()));
            }
        }
        if let Some(v) = t.strip_prefix("\"slicing_policy\":") {
            let tag = v.trim().trim_matches('"');
            // Absent metadata (old snapshots) and an explicit null both
            // mean the default (uniform) policy regime.
            if tag != "null" {
                regime
                    .get_or_insert_with(String::new)
                    .push_str(&format!(" slicing_policy={tag}"));
            }
        }
        let Some(idx) = t.find("\"id\":") else { continue };
        let rest = &t[idx + 5..];
        let Some(open) = rest.find('"') else { continue };
        let Some(close) = rest[open + 1..].find('"') else { continue };
        let id = rest[open + 1..open + 1 + close].to_string();
        let Some(nidx) = t.find("\"ns_per_iter\":") else { continue };
        let num: String = t[nidx + 14..]
            .chars()
            .skip_while(|c| c.is_whitespace())
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
            .collect();
        if let Ok(ns) = num.parse::<f64>() {
            results.insert(id, ns);
        }
    }
    (results, regime, unknown)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut pct: f64 = std::env::var("BENCH_REGRESSION_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20.0);
    let mut paths = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--pct" => {
                pct = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--pct needs a numeric argument");
            }
            p => paths.push(p.to_string()),
        }
    }
    if paths.len() != 2 {
        eprintln!("usage: bench_check <baseline.json> <fresh.json> [--pct <percent>]");
        return ExitCode::from(2);
    }
    let read = |p: &str| {
        std::fs::read_to_string(p).unwrap_or_else(|e| panic!("cannot read {p}: {e}"))
    };
    let (base, base_regime, base_unknown) = parse_snapshot(&read(&paths[0]));
    let (fresh, fresh_regime, fresh_unknown) = parse_snapshot(&read(&paths[1]));
    assert!(!base.is_empty(), "no results parsed from baseline {}", paths[0]);
    assert!(!fresh.is_empty(), "no results parsed from fresh {}", paths[1]);
    for (which, keys) in [("baseline", &base_unknown), ("fresh", &fresh_unknown)] {
        for key in keys {
            println!("note: {which} snapshot has unknown metadata key \"{key}\" — ignored");
        }
    }

    let comparable = base_regime == fresh_regime;
    if !comparable {
        println!(
            "note: thread regimes differ ({} vs {}) — reporting only, not gating",
            base_regime.as_deref().unwrap_or("?"),
            fresh_regime.as_deref().unwrap_or("?")
        );
    }

    let mut failures = 0usize;
    println!("{:<48} {:>12} {:>12} {:>8}", "series", "baseline", "fresh", "ratio");
    for (id, &b) in &base {
        match fresh.get(id) {
            Some(&f) => {
                let ratio = f / b;
                let flag = if ratio > 1.0 + pct / 100.0 { " REGRESSED" } else { "" };
                if !flag.is_empty() && comparable {
                    failures += 1;
                }
                println!("{id:<48} {b:>12.0} {f:>12.0} {ratio:>7.2}x{flag}");
            }
            None => println!("{id:<48} {b:>12.0} {:>12} {:>8}", "-", "gone"),
        }
    }
    for id in fresh.keys().filter(|id| !base.contains_key(*id)) {
        println!("{id:<48} {:>12} {:>12.0} {:>8}", "-", fresh[id], "new");
    }
    // Ratio invariants over the fresh snapshot: (fast, slow, min slow/fast).
    // Values below 1.0 mean "fast may be up to 1/min slower than slow" —
    // used for thread-scaling pairs that coincide on 1-core hosts.
    const INVARIANTS: &[(&str, &str, f64)] = &[
        ("matmul/tiled/512", "matmul/seed_ikj/512", 1.5),
        ("matmul/tiled/1024", "matmul/seed_ikj/1024", 1.5),
        ("pool/take_recycle", "pool/fresh_alloc", 10.0),
        // The softmax row kernel (polynomial exp, 16-lane sum) must stay
        // well ahead of per-element libm `exp` with a serial sum.
        ("softmax_row/simd", "softmax_row/libm", 1.5),
        ("attention_scaling/fwd_threads_max", "attention_scaling/fwd_threads_1", 0.77),
        ("attention_scaling/bwd_mqa_threads_max", "attention_scaling/bwd_mqa_threads_1", 0.77),
        // The persistent packed-weight cache must never lose to per-call
        // packing, and the fused prologue/epilogue must never lose to the
        // separate-pass composition (0.9 = 10% noise allowance).
        ("gemm_packed_cache/nn_packed/512", "gemm_packed_cache/nn_unpacked/512", 0.9),
        ("gemm_packed_cache/nt_packed/512", "gemm_packed_cache/nt_unpacked/512", 0.9),
        ("fused_layer/norm_gemm_fused", "fused_layer/norm_gemm_unfused", 0.9),
        ("fused_layer/swiglu_resid_gemm_fused", "fused_layer/swiglu_resid_gemm_unfused", 0.9),
        // The fully-armed fault-tolerant runtime (idle fault plan, guarded
        // rendezvous, watchdog) must stay within the 20% gate of its clean
        // twin, measured back-to-back on the same workload: 0.83 ≈ 1/1.2.
        ("executor_fault_overhead/armed/plain", "executor_fault_overhead/clean/plain", 0.83),
        ("executor_fault_overhead/armed/both", "executor_fault_overhead/clean/both", 0.83),
        // The async (overlapped) exchange runtime must never lose to its
        // serialized fallback beyond noise, measured back-to-back: on a
        // multi-core host it should win, on 1 core it may tie.
        ("executor_async_overlap/overlapped", "executor_async_overlap/serialized", 0.83),
        // Fail-and-recover (panic detection + shrink re-plan + snapshot
        // restore + re-executed iterations) must stay within 2.5× the
        // clean twin of the same supervised job: recovery is a bounded
        // tax, never a restart-the-world cost (0.4 = 1/2.5).
        ("executor_recovery/recover", "executor_recovery/clean", 0.4),
        // Span recording (per-thread ring buffers, drained at iteration
        // boundaries) must stay within the 10% noise gate of the untraced
        // twin, back-to-back on the same exchange-heavy workload.
        ("executor_trace_overhead/traced", "executor_trace_overhead/untraced", 0.9),
    ];
    let mut checked = 0usize;
    for &(fast, slow, min) in INVARIANTS {
        let (Some(&f), Some(&s)) = (fresh.get(fast), fresh.get(slow)) else { continue };
        checked += 1;
        let ratio = s / f;
        let ok = ratio >= min;
        println!("invariant {slow} / {fast} = {ratio:.2} (min {min}){}", if ok { "" } else { " VIOLATED" });
        if !ok {
            failures += 1;
        }
    }

    if failures > 0 {
        eprintln!("\n{failures} regression(s)/invariant violation(s) beyond the gate");
        return ExitCode::FAILURE;
    }
    println!(
        "\nno regression beyond {pct}% across {} shared series; {checked} invariants hold",
        base.len()
    );
    ExitCode::SUCCESS
}
