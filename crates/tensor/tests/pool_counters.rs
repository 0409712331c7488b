//! Buffer-pool behaviour asserted on the process-global pool counters.
//!
//! These tests run in their own process, so no unrelated test takes or
//! recycles pool buffers while the counters are read; the lock keeps the
//! four from interleaving with each other.

use slimpipe_tensor::pool::{
    banked_mem, clear, recycle, recycle_aligned, stats, take, take_aligned, take_raw, BUF_ALIGN,
};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

#[test]
fn take_recycle_take_hits() {
    let _g = LOCK.lock().unwrap();
    clear();
    let before = stats();
    let mut v = take(1024);
    assert_eq!(v.len(), 1024);
    v[0] = 42.0;
    recycle(v);
    let banked_now = banked_mem().current();
    assert!(banked_now >= 4096);
    let v2 = take(1024);
    assert_eq!(v2[0], 0.0, "zeroed takes scrub recycled contents");
    let after = stats();
    assert_eq!(after.hits - before.hits, 1);
    assert_eq!(after.misses - before.misses, 1);
    assert_eq!(banked_mem().current(), banked_now - 4096);
    recycle(v2);
}

#[test]
fn raw_take_keeps_contents_and_exact_sizes_only() {
    let _g = LOCK.lock().unwrap();
    clear();
    let mut v = take_raw(64);
    v[7] = 7.0;
    recycle(v);
    // A different size must miss; the same size must hit with contents.
    let w = take_raw(65);
    assert_eq!(w.len(), 65);
    let v2 = take_raw(64);
    assert_eq!(v2[7], 7.0, "raw takes may observe recycled garbage");
    recycle(w);
    recycle(v2);
}

#[test]
fn aligned_takes_round_trip_and_stay_aligned() {
    let _g = LOCK.lock().unwrap();
    clear();
    let before = stats();
    let mut v = take_aligned(1000);
    assert_eq!(v.len(), 1000);
    assert_eq!(v.as_ptr() as usize % BUF_ALIGN, 0, "fresh buffer misaligned");
    v[3] = 3.0;
    recycle_aligned(v);
    let v2 = take_aligned(1000);
    assert_eq!(v2.as_ptr() as usize % BUF_ALIGN, 0, "recycled buffer misaligned");
    assert_eq!(v2[3], 3.0, "aligned takes are raw — contents survive");
    let after = stats();
    assert_eq!(after.hits - before.hits, 1);
    assert_eq!(after.misses - before.misses, 1);
    // Plain and aligned lists are distinct: a same-size plain take
    // must not be served the aligned buffer (or vice versa).
    recycle_aligned(v2);
    let plain = take_raw(1000);
    assert_eq!(stats().misses - before.misses, 2, "plain take must miss");
    recycle(plain);
    clear();
    assert_eq!(banked_mem().current(), 0, "clear drains aligned lists too");
}

#[test]
fn clear_returns_banked_bytes() {
    let _g = LOCK.lock().unwrap();
    clear();
    recycle(vec![0.0; 100]);
    assert!(banked_mem().current() >= 400);
    clear();
    assert_eq!(banked_mem().current(), 0);
}
