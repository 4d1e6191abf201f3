//! Memory-controller timing models.
//!
//! Two models mirror the paper's two evaluation platforms (§IV-B):
//!
//! - [`DramModel::fixed`]: a constant access latency with unlimited
//!   bandwidth — the FPGA platform's "padding cycles" configuration
//!   (YQH-FPGA-90C-AMAT, NH-FPGA-250C-AMAT).
//! - [`DramModel::ddr`]: a bank/row-buffer model with a shared data bus —
//!   the DDR4-1600/2400 configurations used for chips and RTL simulation.

use serde::{Deserialize, Serialize};

/// Configuration of the DDR timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DdrConfig {
    /// Number of banks.
    pub banks: usize,
    /// Latency of a row-buffer hit (CAS), in core cycles.
    pub row_hit: u64,
    /// Latency of a row-buffer miss (precharge + activate + CAS).
    pub row_miss: u64,
    /// Minimum core cycles between successive data bursts (bandwidth).
    pub bus_interval: u64,
}

impl DdrConfig {
    /// A DDR4-2400-like part as seen from a 2 GHz core.
    pub fn ddr4_2400() -> Self {
        DdrConfig {
            banks: 16,
            row_hit: 60,
            row_miss: 110,
            bus_interval: 4,
        }
    }

    /// A DDR4-1600-like part as seen from a 1 GHz core.
    pub fn ddr4_1600() -> Self {
        DdrConfig {
            banks: 16,
            row_hit: 45,
            row_miss: 85,
            bus_interval: 5,
        }
    }
}

/// Aggregate memory-controller statistics (telemetry export).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramStats {
    /// Line accesses serviced.
    pub accesses: u64,
    /// Row-buffer hits (DDR model only).
    pub row_hits: u64,
    /// Row-buffer misses (DDR model only).
    pub row_misses: u64,
}

/// The memory-controller timing model and what it has counted.
#[derive(Debug, Clone)]
pub struct DramModel {
    timing: Timing,
    stats: DramStats,
}

#[derive(Debug, Clone)]
enum Timing {
    /// Constant latency, unlimited bandwidth (FPGA-style AMAT padding).
    Fixed(u64),
    /// Banked row-buffer model with a shared data bus.
    Ddr {
        cfg: DdrConfig,
        /// Open row per bank.
        open_rows: Vec<Option<u64>>,
        /// Cycle until which each bank is busy.
        bank_busy: Vec<u64>,
        /// Cycle until which the data bus is busy.
        bus_busy: u64,
    },
}

impl DramModel {
    /// Create the fixed-AMAT model.
    pub fn fixed(latency: u64) -> Self {
        DramModel {
            timing: Timing::Fixed(latency),
            stats: DramStats::default(),
        }
    }

    /// Create the DDR model.
    pub fn ddr(cfg: DdrConfig) -> Self {
        let timing = Timing::Ddr {
            open_rows: vec![None; cfg.banks],
            bank_busy: vec![0; cfg.banks],
            bus_busy: 0,
            cfg,
        };
        DramModel {
            timing,
            stats: DramStats::default(),
        }
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Latency (from `now`) of an access to line address `line`.
    pub fn access(&mut self, line: u64, now: u64) -> u64 {
        self.stats.accesses += 1;
        let (cfg, open_rows, bank_busy, bus_busy) = match &mut self.timing {
            Timing::Fixed(latency) => return *latency,
            Timing::Ddr {
                cfg,
                open_rows,
                bank_busy,
                bus_busy,
            } => (cfg, open_rows, bank_busy, bus_busy),
        };
        let bank = ((line >> 6) as usize) % cfg.banks;
        let row = line >> 13;
        let start = now.max(bank_busy[bank]).max(*bus_busy);
        let service = if open_rows[bank] == Some(row) {
            self.stats.row_hits += 1;
            cfg.row_hit
        } else {
            self.stats.row_misses += 1;
            open_rows[bank] = Some(row);
            cfg.row_miss
        };
        let done = start + service;
        bank_busy[bank] = done;
        *bus_busy = start + cfg.bus_interval;
        done - now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_amat_is_constant() {
        let mut d = DramModel::fixed(90);
        assert_eq!(d.access(0x0, 0), 90);
        assert_eq!(d.access(0x40, 5), 90);
        assert_eq!(d.access(0x0, 1000), 90);
    }

    #[test]
    fn ddr_row_hits_are_faster() {
        let mut d = DramModel::ddr(DdrConfig::ddr4_2400());
        let miss = d.access(0x0, 0);
        // Same bank (bank stride = 16 lines) and same row, queried later
        // so no queueing effects remain.
        let hit = d.access(0x400, 1000);
        assert!(hit < miss, "row hit {hit} must beat row miss {miss}");
    }

    #[test]
    fn ddr_bank_conflicts_queue() {
        let cfg = DdrConfig::ddr4_2400();
        let mut d = DramModel::ddr(cfg);
        // Two accesses to the same bank, different rows, back to back.
        let first = d.access(0x0, 0);
        let second = d.access(0x0 + (1 << 13), 0);
        assert!(second > first, "bank conflict must serialize");
    }

    #[test]
    fn ddr_bus_limits_bandwidth() {
        let cfg = DdrConfig::ddr4_2400();
        let mut d = DramModel::ddr(cfg);
        // Burst to distinct banks at the same instant: bus spacing shows up.
        let l0 = d.access(0x000, 0);
        let l1 = d.access(0x040, 0);
        let l2 = d.access(0x080, 0);
        assert!(l1 >= l0.min(cfg.row_miss));
        assert!(l2 > cfg.row_miss, "third burst delayed by bus");
    }
}
