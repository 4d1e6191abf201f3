//! Performance counters — the detailed counters the paper's §IV-D2
//! analysis reads from simulation ("we look into the detailed performance
//! counters obtained from simulation").

use crate::lifecycle::LifecycleDigest;
use serde::{Deserialize, Serialize};
use uncore::Hist;

/// Top-down CPI stack: every commit-slot cycle charged to exactly one
/// component, so `sum(components) == cycles * commit_width` holds by
/// construction (enforced per tick by the attributor in `core.rs`).
///
/// The taxonomy follows the top-down methodology the paper's §IV-D2
/// analysis applies informally: retired work first, then the dominant
/// reason each empty slot could not retire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CpiStack {
    /// Slots that retired a micro-op.
    pub retired: u64,
    /// Empty slots with an empty ROB: the frontend supplied nothing.
    pub frontend_starved: u64,
    /// Empty slots inside a mispredict-recovery window (flush until the
    /// first post-recovery commit).
    pub mispredict_recovery: u64,
    /// Empty slots waiting on a memory access at the ROB head (load/store
    /// in flight, or a store blocked on a full store buffer).
    pub memory_stall: u64,
    /// Rename blocked this cycle because the ROB was full.
    pub rob_full: u64,
    /// Rename blocked this cycle because an issue queue was full.
    pub iq_full: u64,
    /// Serializing work at the head: commit-time execution (CSR, system,
    /// atomics), exceptions, or a serializing-flush recovery window.
    pub serialization: u64,
    /// Anything else (execution latency, writeback contention, halt).
    pub other: u64,
}

impl CpiStack {
    /// Total attributed slots (`cycles * commit_width` when the identity
    /// holds).
    pub fn total(&self) -> u64 {
        self.components().iter().map(|(_, v)| v).sum()
    }

    /// All components with stable display names, stack order.
    pub fn components(&self) -> [(&'static str, u64); 8] {
        [
            ("retired", self.retired),
            ("frontend_starved", self.frontend_starved),
            ("mispredict_recovery", self.mispredict_recovery),
            ("memory_stall", self.memory_stall),
            ("rob_full", self.rob_full),
            ("iq_full", self.iq_full),
            ("serialization", self.serialization),
            ("other", self.other),
        ]
    }

    /// Component-wise saturating difference — the stack of a simulation
    /// *window* given the cumulative stacks at its two endpoints (the
    /// triage replay charges only the re-executed failure window).
    pub fn saturating_sub(&self, start: &CpiStack) -> CpiStack {
        CpiStack {
            retired: self.retired.saturating_sub(start.retired),
            frontend_starved: self.frontend_starved.saturating_sub(start.frontend_starved),
            mispredict_recovery: self
                .mispredict_recovery
                .saturating_sub(start.mispredict_recovery),
            memory_stall: self.memory_stall.saturating_sub(start.memory_stall),
            rob_full: self.rob_full.saturating_sub(start.rob_full),
            iq_full: self.iq_full.saturating_sub(start.iq_full),
            serialization: self.serialization.saturating_sub(start.serialization),
            other: self.other.saturating_sub(start.other),
        }
    }

    /// The largest non-retired component (name, slots).
    pub fn top_stall(&self) -> (&'static str, u64) {
        self.components()[1..]
            .iter()
            .max_by_key(|(_, v)| *v)
            .copied()
            .unwrap_or(("other", 0))
    }
}

/// Aggregated per-core performance counters.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PerfCounters {
    /// Elapsed cycles.
    pub cycles: u64,
    /// Architecturally retired instructions (fused pairs count as two).
    pub instret: u64,
    /// Committed micro-ops (fused pairs count as one).
    pub uops: u64,
    /// Committed fused macro-ops.
    pub fused_pairs: u64,
    /// Committed conditional branches.
    pub branches: u64,
    /// Mispredicted conditional branches.
    pub branch_mispredicts: u64,
    /// Committed loads.
    pub loads: u64,
    /// Committed stores.
    pub stores: u64,
    /// Loads satisfied by store-to-load forwarding.
    pub load_forwards: u64,
    /// Pipeline flushes due to branch mispredicts.
    pub flushes_mispredict: u64,
    /// Pipeline flushes due to memory-order violations.
    pub flushes_violation: u64,
    /// Pipeline flushes after serializing (system) instructions.
    pub flushes_system: u64,
    /// Architectural exceptions taken.
    pub exceptions: u64,
    /// SC instructions that failed.
    pub sc_failures: u64,
    /// SC instructions that succeeded (decided at commit).
    pub sc_successes: u64,
    /// LR reservations killed by a remote hart's store (snoop).
    pub reservation_snoop_kills: u64,
    /// Committed stores drained from the store buffer into the hierarchy
    /// (plus atomic writes).
    pub sbuffer_drains: u64,
    /// Register moves eliminated at rename.
    pub moves_eliminated: u64,
    /// Cycles in which rename stalled because the ROB was full.
    pub rob_full_cycles: u64,
    /// Distribution over cycles of the number of ready-to-issue
    /// instructions in the ALU issue queues (Fig. 15); bucket 15 is
    /// ">= 15".
    pub ready_hist: [u64; 16],
    /// Instructions dispatched with the PUBS high-priority mark.
    pub high_priority_dispatched: u64,
    /// Total dispatched instructions.
    pub dispatched: u64,
    /// Top-down CPI stack (always on; a few adds per cycle).
    pub cpi: CpiStack,
    /// Per-instruction lifecycle digest (always on; a handful of adds
    /// per retired/squashed uop). Cross-checked against the CPI stack by
    /// [`LifecycleDigest::cross_check`].
    pub lifecycle: LifecycleDigest,
    /// Per-cycle ROB occupancy (telemetry-gated, like all Hists below).
    pub rob_occupancy: Hist,
    /// Per-cycle ALU issue-queue occupancy (both ALU queues summed).
    pub iq_alu_occupancy: Hist,
    /// Per-cycle load/store issue-queue occupancy.
    pub iq_ls_occupancy: Hist,
    /// Per-cycle committed-store-buffer occupancy.
    pub sbuffer_occupancy: Hist,
    /// Per-cycle L1D in-flight transaction (MSHR) occupancy.
    pub l1d_mshr_occupancy: Hist,
    /// Load-to-use latency: cycles from load issue to writeback.
    pub load_to_use: Hist,
}

impl PerfCounters {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instret as f64 / self.cycles as f64
        }
    }

    /// Branch mispredictions per kilo-instruction (the PUBS paper's
    /// selection metric).
    pub fn mpki(&self) -> f64 {
        if self.instret == 0 {
            0.0
        } else {
            1000.0 * self.branch_mispredicts as f64 / self.instret as f64
        }
    }

    /// Record `n` cycles of one ready count in the Fig. 15 histogram
    /// (`n > 1`: a skipped idle span, where the count cannot change).
    pub fn record_ready_n(&mut self, ready: usize, n: u64) {
        self.ready_hist[ready.min(15)] += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_mpki() {
        let mut p = PerfCounters::default();
        assert_eq!(p.ipc(), 0.0);
        p.cycles = 100;
        p.instret = 250;
        assert!((p.ipc() - 2.5).abs() < 1e-12);
        p.branch_mispredicts = 5;
        assert!((p.mpki() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn cpi_stack_totals_and_top_stall() {
        let s = CpiStack {
            retired: 50,
            frontend_starved: 10,
            memory_stall: 30,
            iq_full: 5,
            other: 5,
            ..Default::default()
        };
        assert_eq!(s.total(), 100);
        assert_eq!(s.top_stall(), ("memory_stall", 30));
        assert_eq!(s.components()[0], ("retired", 50));
    }

    #[test]
    fn cpi_stack_window_difference() {
        let start = CpiStack {
            retired: 40,
            memory_stall: 10,
            ..Default::default()
        };
        let end = CpiStack {
            retired: 100,
            memory_stall: 25,
            frontend_starved: 7,
            ..Default::default()
        };
        let window = end.saturating_sub(&start);
        assert_eq!(window.retired, 60);
        assert_eq!(window.memory_stall, 15);
        assert_eq!(window.frontend_starved, 7);
        // Differences never underflow.
        assert_eq!(start.saturating_sub(&end).retired, 0);
    }

    #[test]
    fn ready_histogram() {
        let mut p = PerfCounters::default();
        p.record_ready_n(0, 1);
        p.record_ready_n(2, 1);
        p.record_ready_n(3, 1);
        p.record_ready_n(99, 1);
        assert_eq!(p.ready_hist[0], 1);
        assert_eq!(p.ready_hist[2], 1);
        assert_eq!(p.ready_hist[15], 1);
    }
}
