//! Activation offloading (§6.5) — executed for real.
//!
//! The paper integrates "pipeline-parallelism-aware offloading" to push
//! context length to 4096K: a fraction of the activation stash moves to
//! host memory and returns before its backward. This module implements the
//! mechanism in the executor: a per-device [`OffloadEngine`] with a device
//! byte budget spills the *oldest* stashed slices (they are the last to be
//! consumed — backward is LIFO within a microbatch, so the oldest forward
//! stash has the longest residency) and fetches them back on demand.
//! KV chunks stay resident: later slices' attention reads them on the
//! forward path, so they are the wrong thing to spill mid-microbatch.
//!
//! All traffic is metered, so tests can assert both the memory ceiling and
//! the paper's trade-off (offload trades transfer volume for peak bytes,
//! never correctness).

use crate::layer::SliceCache;
use slimpipe_tensor::MemCounter;
use std::collections::{HashMap, VecDeque};

/// Host-side spill store for one device.
pub struct OffloadEngine {
    /// Device-resident stash budget in bytes; beyond it, spill.
    pub device_budget: u64,
    /// Spilled stashes by unit key.
    host: HashMap<(u32, u32), Vec<SliceCache>>,
    /// Device-resident unit keys, oldest first.
    resident_order: VecDeque<(u32, u32)>,
    /// Host-resident bytes (peak tracked).
    pub host_mem: MemCounter,
    /// Cumulative bytes moved device→host and host→device.
    pub transferred: u64,
}

impl OffloadEngine {
    pub fn new(device_budget: u64) -> Self {
        Self {
            device_budget,
            host: HashMap::new(),
            resident_order: VecDeque::new(),
            host_mem: MemCounter::new(),
            transferred: 0,
        }
    }

    /// Register a freshly stashed unit in the residency order.
    pub fn push_key(&mut self, key: (u32, u32)) {
        self.resident_order.push_back(key);
    }

    /// Oldest resident unit other than `exclude` (the one just produced,
    /// which the last stage consumes immediately), removed from the order.
    pub fn pop_oldest_excluding(&mut self, exclude: (u32, u32)) -> Option<(u32, u32)> {
        let pos = self.resident_order.iter().position(|&k| k != exclude)?;
        self.resident_order.remove(pos)
    }

    /// Move a unit's stash to the host store.
    pub fn spill(&mut self, key: (u32, u32), caches: Vec<SliceCache>, device_mem: &MemCounter) {
        let bytes: u64 = caches.iter().map(|c| c.bytes()).sum();
        device_mem.free(bytes);
        self.host_mem.alloc(bytes);
        self.transferred += bytes;
        self.host.insert(key, caches);
    }

    /// Fetch a unit back for its backward (no-op if it never spilled).
    pub fn fetch(
        &mut self,
        key: (u32, u32),
        device_mem: &MemCounter,
    ) -> Option<Vec<SliceCache>> {
        let caches = self.host.remove(&key)?;
        let bytes: u64 = caches.iter().map(|c| c.bytes()).sum();
        self.host_mem.free(bytes);
        device_mem.alloc(bytes);
        self.transferred += bytes;
        Some(caches)
    }

    /// Drop a unit from the residency order (its backward consumed it).
    pub fn note_consumed(&mut self, key: (u32, u32)) {
        if let Some(pos) = self.resident_order.iter().position(|&k| k == key) {
            self.resident_order.remove(pos);
        }
    }

    /// Nothing may remain spilled at iteration end.
    pub fn assert_drained(&self) {
        assert!(self.host.is_empty(), "spilled stashes left behind");
        assert_eq!(self.host_mem.current(), 0);
    }
}

#[cfg(test)]
mod tests {
    use crate::model::ExecConfig;
    use crate::schedule::PipelineKind;
    use crate::train::run_reference;
    use crate::verify::{assert_equivalent, run};

    fn cfg(budget: Option<u64>) -> ExecConfig {
        ExecConfig {
            stages: 2,
            slices: 8,
            microbatches: 2,
            offload_budget: budget,
            ..ExecConfig::small()
        }
    }

    #[test]
    fn offload_preserves_numerics_exactly() {
        let want = run_reference(&cfg(None), 2, 0.2);
        // A budget tight enough to force spilling on device 0.
        let got = run(&cfg(Some(80_000)), PipelineKind::SlimPipe, 2, 0.2).unwrap();
        assert_equivalent(&got, &want, 3e-3);
    }

    #[test]
    fn offload_cuts_peak_and_costs_transfers() {
        let base = run(&cfg(None), PipelineKind::SlimPipe, 1, 0.1).unwrap();
        let off = run(&cfg(Some(80_000)), PipelineKind::SlimPipe, 1, 0.1).unwrap();
        assert!(
            off.peak_act_bytes[0] < base.peak_act_bytes[0],
            "offload should lower the device peak: {} vs {}",
            off.peak_act_bytes[0],
            base.peak_act_bytes[0]
        );
        assert!(off.offload_transferred[0] > 0, "spilling must have happened");
        assert_eq!(base.offload_transferred[0], 0, "no budget, no traffic");
    }

    #[test]
    fn generous_budget_never_spills() {
        let r = run(&cfg(Some(u64::MAX)), PipelineKind::SlimPipe, 1, 0.1).unwrap();
        assert!(r.offload_transferred.iter().all(|&t| t == 0));
    }
}
