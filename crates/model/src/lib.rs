//! Analytical transformer cost model.
//!
//! Everything the simulator and the hybrid-parallelism planner need to know
//! about a model, derived from first principles and calibrated against the
//! anchors the paper states explicitly (README, "Paper experiments"):
//!
//! * the model zoo of Table 3 (parameter counts verified against the paper),
//! * FLOP counts per operator, with exact *attended-pair* accounting for
//!   causal attention over arbitrary sequence slices (the quantity SlimPipe's
//!   workload redistribution balances),
//! * activation bytes per layer per token with a documented component
//!   breakdown under the paper's §5 kernel optimisations, for each
//!   checkpointing mode,
//! * model-state bytes (bf16 params, fp32 grad accumulation, Adam fp32
//!   states), and
//! * output-layer (vocabulary) compute and logits memory.

pub mod activation;
pub mod config;
pub mod flops;
pub mod states;
pub mod vocab;

pub use activation::{ActBreakdown, Checkpoint};
pub use config::{ModelConfig, MoeConfig};
pub use flops::causal_pairs;

/// Bytes per GiB, used throughout the memory model.
pub const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// Bytes per bf16 element.
pub const BF16: f64 = 2.0;

/// Bytes per fp32 element.
pub const FP32: f64 = 4.0;
