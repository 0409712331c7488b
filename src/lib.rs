//! Umbrella crate re-exporting the full SlimPipe reproduction workspace.
//!
//! See the README's "Workspace layout" section for the crate inventory and
//! its "Paper experiments" section for the per-experiment index.

pub use slimpipe_cluster as cluster;
pub use slimpipe_core as core;
pub use slimpipe_exec as exec;
pub use slimpipe_model as model;
pub use slimpipe_obs as obs;
pub use slimpipe_parallel as parallel;
pub use slimpipe_planner as planner;
pub use slimpipe_sched as sched;
pub use slimpipe_sim as sim;
pub use slimpipe_tensor as tensor;
