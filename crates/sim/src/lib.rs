//! Discrete-event simulator: executes any pipeline [`Schedule`] against the
//! model and cluster cost models and reports makespan, per-device busy
//! time, bubble fraction, and peak memory.
//!
//! This is the stand-in for the paper's 128–512-GPU testbed (README,
//! "Paper experiments"): the *schedules* are exactly the ones the systems
//! would run, the costs come from one shared FLOPs/bytes model, and every
//! scheme flows through the same engine — so relative comparisons (scheme
//! ordering, crossover points, OOM boundaries) are preserved even though
//! absolute seconds are synthetic.
//!
//! [`Schedule`]: slimpipe_sched::Schedule

pub mod cost;
pub mod engine;
pub mod memory;
pub mod metrics;

pub use cost::{CostModel, OpCost, PipelineEnv, UnitCostModel};
pub use engine::{simulate, SimReport};
