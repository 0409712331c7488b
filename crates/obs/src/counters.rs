//! Unified registry of process-wide monotonic counters.
//!
//! Every ad-hoc counter that used to live as a private `static AtomicU64`
//! somewhere in the workspace (pool hit/miss, weight packs, worker
//! spawns, posted sends, fault retries, watchdog wakeups) is a named
//! [`Counter`] here. The owning modules keep their old accessors as thin
//! shims over these statics, and one [`snapshot`] call returns the whole
//! set; [`CounterSnapshot::delta`] between two snapshots describes a
//! single run.
//!
//! All operations are `Relaxed`: counters are statistics, not
//! synchronization, and must never order the computation they observe.

use std::sync::atomic::{AtomicU64, Ordering};

/// A process-wide monotonic event counter.
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zeroed counter (usable in `static` initializers).
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        if n > 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Record one event.
    #[inline]
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Reset to zero (tests and `pool::reset_stats` only).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

// Tensor arena (crates/tensor/src/pool.rs).
pub static POOL_HITS: Counter = Counter::new();
pub static POOL_MISSES: Counter = Counter::new();
pub static POOL_RECYCLES: Counter = Counter::new();
pub static POOL_DISCARDS: Counter = Counter::new();
// GEMM weight packing (crates/tensor/src/matmul.rs).
pub static WEIGHT_PACKS: Counter = Counter::new();
// Worker-pool thread spawns (crates/shims/rayon).
pub static POOL_THREAD_SPAWNS: Counter = Counter::new();
// Executor comm runtime (crates/exec): cumulative across runs; the
// per-run figures stay on `RunCtl`/`RunResult` and are mirrored here at
// the end of each run.
pub static POSTED_SENDS: Counter = Counter::new();
pub static EXCHANGE_RETRIES: Counter = Counter::new();
// Guarded-receive watchdog timeouts that woke only to re-check liveness.
pub static WATCHDOG_WAKEUPS: Counter = Counter::new();
// Checkpoint segments saved and elastic-driver recoveries completed.
pub static CKPT_SAVES: Counter = Counter::new();
pub static RECOVERIES: Counter = Counter::new();
// Spans overwritten in a full recorder ring before they could be drained.
pub static SPANS_DROPPED: Counter = Counter::new();

/// Point-in-time copy of every counter in the registry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pool_recycles: u64,
    pub pool_discards: u64,
    pub weight_packs: u64,
    pub pool_thread_spawns: u64,
    pub posted_sends: u64,
    pub exchange_retries: u64,
    pub watchdog_wakeups: u64,
    pub ckpt_saves: u64,
    pub recoveries: u64,
    pub spans_dropped: u64,
}

/// Read every counter at once.
pub fn snapshot() -> CounterSnapshot {
    CounterSnapshot {
        pool_hits: POOL_HITS.get(),
        pool_misses: POOL_MISSES.get(),
        pool_recycles: POOL_RECYCLES.get(),
        pool_discards: POOL_DISCARDS.get(),
        weight_packs: WEIGHT_PACKS.get(),
        pool_thread_spawns: POOL_THREAD_SPAWNS.get(),
        posted_sends: POSTED_SENDS.get(),
        exchange_retries: EXCHANGE_RETRIES.get(),
        watchdog_wakeups: WATCHDOG_WAKEUPS.get(),
        ckpt_saves: CKPT_SAVES.get(),
        recoveries: RECOVERIES.get(),
        spans_dropped: SPANS_DROPPED.get(),
    }
}

impl CounterSnapshot {
    /// Events since `earlier` (saturating: a counter reset between the
    /// two snapshots reads as zero, not as a wrap).
    pub fn delta(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            pool_hits: self.pool_hits.saturating_sub(earlier.pool_hits),
            pool_misses: self.pool_misses.saturating_sub(earlier.pool_misses),
            pool_recycles: self.pool_recycles.saturating_sub(earlier.pool_recycles),
            pool_discards: self.pool_discards.saturating_sub(earlier.pool_discards),
            weight_packs: self.weight_packs.saturating_sub(earlier.weight_packs),
            pool_thread_spawns: self
                .pool_thread_spawns
                .saturating_sub(earlier.pool_thread_spawns),
            posted_sends: self.posted_sends.saturating_sub(earlier.posted_sends),
            exchange_retries: self.exchange_retries.saturating_sub(earlier.exchange_retries),
            watchdog_wakeups: self.watchdog_wakeups.saturating_sub(earlier.watchdog_wakeups),
            ckpt_saves: self.ckpt_saves.saturating_sub(earlier.ckpt_saves),
            recoveries: self.recoveries.saturating_sub(earlier.recoveries),
            spans_dropped: self.spans_dropped.saturating_sub(earlier.spans_dropped),
        }
    }

    /// `(name, value)` rows in registry order, for table printing.
    pub fn rows(&self) -> [(&'static str, u64); 12] {
        [
            ("pool_hits", self.pool_hits),
            ("pool_misses", self.pool_misses),
            ("pool_recycles", self.pool_recycles),
            ("pool_discards", self.pool_discards),
            ("weight_packs", self.weight_packs),
            ("pool_thread_spawns", self.pool_thread_spawns),
            ("posted_sends", self.posted_sends),
            ("exchange_retries", self.exchange_retries),
            ("watchdog_wakeups", self.watchdog_wakeups),
            ("ckpt_saves", self.ckpt_saves),
            ("recoveries", self.recoveries),
            ("spans_dropped", self.spans_dropped),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_add_incr_get() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.incr();
        c.add(4);
        c.add(0);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn snapshot_delta_is_fieldwise_and_saturating() {
        let a = CounterSnapshot {
            pool_hits: 10,
            posted_sends: 3,
            ..Default::default()
        };
        let b = CounterSnapshot {
            pool_hits: 25,
            posted_sends: 2, // reset in between
            watchdog_wakeups: 7,
            ..Default::default()
        };
        let d = b.delta(&a);
        assert_eq!(d.pool_hits, 15);
        assert_eq!(d.posted_sends, 0);
        assert_eq!(d.watchdog_wakeups, 7);
    }

    #[test]
    fn rows_cover_every_field_once() {
        let snap = CounterSnapshot {
            pool_hits: 1,
            pool_misses: 2,
            pool_recycles: 3,
            pool_discards: 4,
            weight_packs: 5,
            pool_thread_spawns: 6,
            posted_sends: 7,
            exchange_retries: 8,
            watchdog_wakeups: 9,
            ckpt_saves: 10,
            recoveries: 11,
            spans_dropped: 12,
        };
        let rows = snap.rows();
        let sum: u64 = rows.iter().map(|(_, v)| v).sum();
        assert_eq!(sum, (1..=12).sum::<u64>());
        let mut names: Vec<_> = rows.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12, "duplicate row name");
    }
}
