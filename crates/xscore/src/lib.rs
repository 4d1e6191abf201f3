//! A cycle-level model of XIANGSHAN, the superscalar out-of-order RISC-V
//! processor of the paper (§IV) — the DUT of this reproduction.
//!
//! The model implements the Fig. 10 micro-architecture at stage
//! granularity: a decoupled BPU (uBTB / BTB / TAGE-SC / ITTAGE / RAS) in
//! front of the IFU, 6-wide decode with macro-op fusion, rename with
//! reference-counted move elimination, a 192/256-entry ROB, distributed
//! issue queues with the AGE or PUBS policy, ALU/MDU/FMA/FMISC pipelines,
//! a load/store unit with store-to-load forwarding, memory-order
//! violation recovery and a lazily draining store buffer, two-level TLBs
//! with a timed page walker, and the coherent cache hierarchy from the
//! `uncore` crate. Both tape-out parameter sets of Table II are provided
//! as presets ([`XsConfig::yqh`], [`XsConfig::nh`]).
//!
//! # Example
//!
//! ```
//! use riscv_isa::asm::{reg::*, Asm};
//! use xscore::{XsConfig, XsSystem};
//!
//! let mut a = Asm::new(0x8000_0000);
//! a.li(A0, 42);
//! a.ebreak();
//! let program = a.assemble();
//!
//! let mut sys = XsSystem::new(XsConfig::yqh(), &program);
//! assert_eq!(sys.run(100_000), Some(42));
//! ```

mod atomics;
pub mod bpu;
mod commit;
pub mod config;
pub mod core;
mod exec;
mod frontend;
pub mod issue;
pub mod lifecycle;
pub mod lsu;
mod lsu_issue;
pub mod perf;
pub mod prf;
mod rename;
pub mod rob;
pub mod system;
pub mod tage;
#[cfg(test)]
mod testing;
pub mod tlbs;
pub mod uop;

pub use config::{InjectedBug, IssuePolicy, MemoryModel, RunKnobs, XsConfig, MAX_CORES};
pub use core::{Core, CycleOutput};
pub use lifecycle::{
    render_gap_summary, render_o3pipeview, render_waterfall, LifeStamps, Lifecycle,
    LifecycleDigest, LifecycleRing, SquashCause, LIFECYCLE_RING_CAP,
};
pub use perf::{CpiStack, PerfCounters};
pub use system::XsSystem;
pub use uop::{CommitEvent, CommitMem, SbufferDrainEvent};
