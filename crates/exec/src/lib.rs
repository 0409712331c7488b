//! Real multithreaded pipeline-parallel training executor.
//!
//! This crate *runs* SlimPipe rather than modelling it: OS threads are the
//! pipeline devices, crossbeam channels are the interconnect, and a real
//! (small) Llama-style transformer trains across them in f32. Everything
//! §4 of the paper describes is executed for real:
//!
//! * uniform sequence slicing with the slice-wise 1F1B schedule (the op
//!   lists come from the same generators the simulator uses),
//! * a chunked KV cache appended slice by slice and released chunk by
//!   chunk as the LIFO backward retires slices,
//! * attention context exchange: heavy devices ship `(Q, KV-chunk)` jobs to
//!   light devices' compute servers and merge the partial outputs by online
//!   softmax — in the backward direction too,
//! * vocabulary parallelism: every device owns a vocabulary shard; the
//!   cross-entropy is computed from sharded logits with scalar statistics
//!   only,
//! * byte-exact activation accounting per device.
//!
//! §5's commutated context parallelism is priced analytically by
//! `slimpipe_sim::cost`, not executed here. The run entry points take
//! every input as an argument and read no environment.
//!
//! The harness in [`verify`] proves numerical equivalence: a pipeline run
//! (any scheme, any slicing, exchange on or off) produces the same losses
//! and the same parameter gradients as a single-device reference, to f32
//! reassociation tolerance.

pub mod checkpoint;
pub mod comm;
pub mod driver;
pub mod fault;
pub mod layer;
pub mod model;
pub mod offload;
pub mod schedule;
pub mod stage;
pub mod train;
pub mod verify;

pub use checkpoint::CheckpointState;
pub use driver::{
    run_elastic_traced, DriverCfg, DriverOutcome, RecoveryEvent, RecoveryLog, Replanner,
    ShrinkReplanner,
};
pub use fault::{DegradePolicy, ExecError, FaultKind, FaultPlan, FaultSite};
pub use model::{CheckpointCfg, ExecConfig};
pub use slimpipe_core::{SlicePolicy, Slicing};
pub use slimpipe_obs as obs;
pub use slimpipe_obs::TraceSession;
pub use train::{
    approx_flops_per_iteration, run_reference, try_resume_pipeline_from_traced,
    try_run_pipeline_traced, RunMetrics, RunResult,
};
