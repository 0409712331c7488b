//! The repo benchmark's library half: workloads, the per-workload run, the
//! per-layer probes, the metric tables. `main.rs` is the command line and
//! the suite runner; `tests/contract.rs` checks the tables against
//! `BENCHMARK.json` and the binary's output against the result schema.

pub mod json;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod spans;
mod traced;
pub mod workloads;
