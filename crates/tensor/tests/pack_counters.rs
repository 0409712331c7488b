//! Weight-pack accounting against the process-global pack counters.
//!
//! This file holds exactly one test, so no other test packs weights in the
//! same process while the counters are read.

use slimpipe_tensor::init::seeded_uniform;
use slimpipe_tensor::matmul::{
    begin_pack_epoch, gemm_packs_per_step, matmul_fused, weight_packs_total,
};
use slimpipe_tensor::{Epilogue, PackedWeight, Prologue};

/// Weight-pack accounting: packs count, in-place axpy does not.
#[test]
fn pack_counters_track_packs_not_updates() {
    let before = weight_packs_total();
    let w = seeded_uniform(16, 16, 90);
    let mut pw = PackedWeight::new(w); // nn + nt
    assert_eq!(weight_packs_total() - before, 2);
    begin_pack_epoch();
    let g = seeded_uniform(16, 16, 91);
    pw.axpy(-0.1, &g);
    let a = seeded_uniform(4, 16, 92);
    let _ = matmul_fused(&a, pw.nn(), Prologue::None, Epilogue::None);
    assert_eq!(gemm_packs_per_step(), 0, "updates and GEMMs must not re-pack");
    let _clone = pw.clone(); // clones re-pack by design
    assert_eq!(gemm_packs_per_step(), 2);
}
