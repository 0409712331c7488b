//! Global tensor buffer pool: size-keyed free lists of `Vec<f32>` backing
//! buffers, so the steady-state training loop performs zero kernel-path
//! heap allocations after warm-up.
//!
//! The paper's §5 observation — slice-sized KV chunks are "precisely reused
//! between two adjacent microbatches" — generalises to every activation and
//! gradient tensor the executor touches: a pipeline iteration is a fixed
//! sequence of fixed-shape ops, so after one warm-up iteration every buffer
//! a kernel needs is already banked. Kernels `take` their outputs here and
//! the executor `recycle`s every tensor it consumes; the hit/miss counters
//! make the "allocation-free after warm-up" claim *testable* (see
//! `crates/exec/tests/pool_steady_state.rs`).
//!
//! The pool is process-global and thread-safe, because activations
//! allocated on one pipeline stage's thread retire on another (forward
//! activations ship downstream, gradients ship upstream). The free lists
//! are **sharded by size-class**: a buffer length hashes to one of
//! [`POOL_SHARDS`] independently locked maps, so deep pipelines and ragged
//! runs — whose stages hit many distinct size classes concurrently — don't
//! serialise on a single mutex (each lock is held for a pop/push, never
//! while zeroing or computing). Parallel kernel *workers* never touch the
//! pool: kernels take scratch on the calling thread and hand disjoint
//! views to workers, which keeps the counters deterministic for
//! single-threaded runs.
//!
//! Memtrack integration: a [`MemCounter`] meters the bytes *banked* in the
//! free lists (alloc on recycle, free on hit), so tests and benches can
//! watch the pool's resident footprint and its high-water mark exactly
//! like any other tracked memory.

use crate::memtrack::MemCounter;
use std::collections::HashMap;
use slimpipe_obs::counters as obs;
use std::sync::{Mutex, OnceLock};

/// Alignment of [`AlignedVec`] buffers: one cache line, which is also the
/// widest SIMD vector (AVX-512) — pack panels start on a clean boundary.
pub const BUF_ALIGN: usize = 64;

/// A heap buffer of `f32` whose base address is [`BUF_ALIGN`]-byte aligned.
///
/// `Vec<f32>` only guarantees 4-byte alignment, and a `Vec` constructed
/// from an over-aligned allocation would be UB to drop (the deallocation
/// layout must match), so aligned buffers get their own owning type. The
/// GEMM pack panels live in these: the micro-kernel streams them with full
/// cache-line loads and no split-line penalty. Dropping an `AlignedVec`
/// frees the memory; hot-path users return buffers via
/// [`recycle_aligned`] instead so steady-state packs stay allocation-free.
pub struct AlignedVec {
    ptr: std::ptr::NonNull<f32>,
    len: usize,
}

// Safety: the buffer is uniquely owned heap memory; f32 is Send + Sync.
unsafe impl Send for AlignedVec {}
unsafe impl Sync for AlignedVec {}

impl AlignedVec {
    fn layout(len: usize) -> std::alloc::Layout {
        std::alloc::Layout::from_size_align(len * 4, BUF_ALIGN).expect("aligned layout")
    }

    /// Freshly allocated, zero-filled buffer of `len` elements.
    pub fn new(len: usize) -> Self {
        if len == 0 {
            return Self { ptr: std::ptr::NonNull::dangling(), len: 0 };
        }
        // Safety: len > 0 so the layout is non-zero-sized.
        let raw = unsafe { std::alloc::alloc_zeroed(Self::layout(len)) } as *mut f32;
        let ptr = std::ptr::NonNull::new(raw)
            .unwrap_or_else(|| std::alloc::handle_alloc_error(Self::layout(len)));
        Self { ptr, len }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The base address is always [`BUF_ALIGN`]-byte aligned (asserted in
    /// `tests/pool_stress.rs`).
    #[inline]
    pub fn as_ptr(&self) -> *const f32 {
        self.ptr.as_ptr()
    }
}

impl std::ops::Deref for AlignedVec {
    type Target = [f32];
    #[inline]
    fn deref(&self) -> &[f32] {
        // Safety: ptr/len describe a live allocation we own (or a dangling
        // pointer with len 0, which is a valid empty slice).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl std::ops::DerefMut for AlignedVec {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f32] {
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for AlignedVec {
    fn drop(&mut self) {
        if self.len > 0 {
            // Safety: allocated with exactly this layout in `new`.
            unsafe { std::alloc::dealloc(self.ptr.as_ptr() as *mut u8, Self::layout(self.len)) }
        }
    }
}

impl std::fmt::Debug for AlignedVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AlignedVec(len={})", self.len)
    }
}

/// Free buffers kept per exact size before further recycles are dropped.
const MAX_BUFFERS_PER_SIZE: usize = 256;

/// Independently locked free-list shards; a size class lives entirely in
/// one shard, picked by hashing the buffer length.
const POOL_SHARDS: usize = 16;

/// One free-list shard: size class → stack of returned buffers.
type Shard = Mutex<HashMap<usize, Vec<Vec<f32>>>>;

/// One aligned-free-list shard (same sharding scheme, [`AlignedVec`]s).
type AlignedShard = Mutex<HashMap<usize, Vec<AlignedVec>>>;

static FREE: OnceLock<Vec<Shard>> = OnceLock::new();
static ALIGNED_FREE: OnceLock<Vec<AlignedShard>> = OnceLock::new();
static BANKED: OnceLock<MemCounter> = OnceLock::new();
// Hit/miss/recycle/discard accounting lives in the unified observability
// registry (`slimpipe_obs::counters::POOL_*`); `stats`/`reset_stats` below
// are thin shims over it so existing callers keep working.

fn shards() -> &'static [Shard] {
    FREE.get_or_init(|| (0..POOL_SHARDS).map(|_| Mutex::new(HashMap::new())).collect())
}

fn aligned_shards() -> &'static [AlignedShard] {
    ALIGNED_FREE.get_or_init(|| (0..POOL_SHARDS).map(|_| Mutex::new(HashMap::new())).collect())
}

/// Shard index owning size class `len` (Fibonacci hash — adjacent tensor
/// sizes land on different shards). Keeps 16 well-mixed top bits before
/// the modulo, so raising `POOL_SHARDS` really adds shards. The plain and
/// aligned free lists share the scheme.
fn shard_idx(len: usize) -> usize {
    let h = (len as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> 48) as usize % POOL_SHARDS
}

fn shard_for(len: usize) -> &'static Shard {
    &shards()[shard_idx(len)]
}

/// Byte meter of buffers currently banked in the pool (peak tracked).
pub fn banked_mem() -> &'static MemCounter {
    BANKED.get_or_init(MemCounter::new)
}

/// Pool activity counters since process start (or [`reset_stats`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolStats {
    /// Takes served from a free list.
    pub hits: u64,
    /// Takes that had to allocate fresh memory.
    pub misses: u64,
    /// Buffers returned to the pool.
    pub recycles: u64,
    /// Returned buffers dropped because their size class was full.
    pub discards: u64,
}

/// Current counters.
pub fn stats() -> PoolStats {
    PoolStats {
        hits: obs::POOL_HITS.get(),
        misses: obs::POOL_MISSES.get(),
        recycles: obs::POOL_RECYCLES.get(),
        discards: obs::POOL_DISCARDS.get(),
    }
}

/// Zero the counters (buffers stay banked).
pub fn reset_stats() {
    obs::POOL_HITS.reset();
    obs::POOL_MISSES.reset();
    obs::POOL_RECYCLES.reset();
    obs::POOL_DISCARDS.reset();
}

/// Drop every banked buffer (counters stay). Tests use this to compare a
/// cold pool against a warm one.
pub fn clear() {
    for shard in shards() {
        let mut map = shard.lock().unwrap();
        for (len, bucket) in map.drain() {
            banked_mem().free((len * bucket.len() * 4) as u64);
        }
    }
    for shard in aligned_shards() {
        let mut map = shard.lock().unwrap();
        for (len, bucket) in map.drain() {
            banked_mem().free((len * bucket.len() * 4) as u64);
        }
    }
}

fn pop(len: usize) -> Option<Vec<f32>> {
    let mut map = shard_for(len).lock().unwrap();
    let v = map.get_mut(&len)?.pop()?;
    banked_mem().free((len * 4) as u64);
    Some(v)
}

/// A buffer of exactly `len` elements with **arbitrary contents** (recycled
/// data or zeros). For outputs every element of which is overwritten.
pub fn take_raw(len: usize) -> Vec<f32> {
    if let Some(v) = pop(len) {
        obs::POOL_HITS.incr();
        debug_assert_eq!(v.len(), len);
        v
    } else {
        obs::POOL_MISSES.incr();
        vec![0.0; len]
    }
}

/// A zeroed buffer of exactly `len` elements.
pub fn take(len: usize) -> Vec<f32> {
    if let Some(mut v) = pop(len) {
        obs::POOL_HITS.incr();
        debug_assert_eq!(v.len(), len);
        v.fill(0.0);
        v
    } else {
        obs::POOL_MISSES.incr();
        vec![0.0; len]
    }
}

/// Return a buffer to the pool. Buffers of any provenance are accepted;
/// capacity slack (from callers that shrank a `Vec`) is re-extended so the
/// buffer files under its full size.
pub fn recycle(mut v: Vec<f32>) {
    if v.capacity() == 0 {
        return;
    }
    if v.len() != v.capacity() {
        v.resize(v.capacity(), 0.0);
    }
    let len = v.len();
    let mut map = shard_for(len).lock().unwrap();
    let bucket = map.entry(len).or_default();
    if bucket.len() >= MAX_BUFFERS_PER_SIZE {
        obs::POOL_DISCARDS.incr();
        return;
    }
    bucket.push(v);
    banked_mem().alloc((len * 4) as u64);
    obs::POOL_RECYCLES.incr();
}

/// A [`BUF_ALIGN`]-byte-aligned buffer of exactly `len` elements with
/// **arbitrary contents** — the allocation behind GEMM pack panels, whose
/// every element the pack step overwrites. Counted in the same
/// hit/miss/recycle stats as the plain takes, so the steady-state
/// "allocation-free" assertions cover the packed-weight path too.
pub fn take_aligned(len: usize) -> AlignedVec {
    let popped = {
        let mut map = aligned_shards()[shard_idx(len)].lock().unwrap();
        map.get_mut(&len).and_then(Vec::pop)
    };
    if let Some(v) = popped {
        banked_mem().free((len * 4) as u64);
        obs::POOL_HITS.incr();
        debug_assert_eq!(v.len(), len);
        v
    } else {
        obs::POOL_MISSES.incr();
        AlignedVec::new(len)
    }
}

/// Return an aligned buffer to the pool (the counterpart of
/// [`take_aligned`]; a plain drop would free the memory instead).
pub fn recycle_aligned(v: AlignedVec) {
    if v.is_empty() {
        return;
    }
    let len = v.len();
    let mut map = aligned_shards()[shard_idx(len)].lock().unwrap();
    let bucket = map.entry(len).or_default();
    if bucket.len() >= MAX_BUFFERS_PER_SIZE {
        obs::POOL_DISCARDS.incr();
        return;
    }
    bucket.push(v);
    banked_mem().alloc((len * 4) as u64);
    obs::POOL_RECYCLES.incr();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_size_classes_spread_over_shards() {
        clear();
        // A spread of realistic tensor sizes must not all hash to one
        // shard, or the sharding buys nothing.
        let sizes: Vec<usize> = (1..=64).map(|i| i * 512).collect();
        let mut used = std::collections::HashSet::new();
        for &s in &sizes {
            let ptr = shard_for(s) as *const _ as usize;
            used.insert(ptr);
        }
        assert!(used.len() >= POOL_SHARDS / 2, "only {} shards used", used.len());
        // Round-trips still work across shard boundaries.
        for &s in &sizes {
            recycle(vec![0.0; s]);
        }
        for &s in &sizes {
            assert_eq!(take_raw(s).len(), s);
        }
        clear();
    }
}
