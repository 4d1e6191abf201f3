//! MINJIE — the agile processor-development platform of the paper,
//! reproduced in Rust.
//!
//! The platform integrates (Fig. 2):
//!
//! - [`rules`] — DRAV: the diff-rule vocabulary and the ≥120-entry CSR
//!   field-rule table (§III-A, §III-B2),
//! - [`difftest`] — the co-simulation verification framework with
//!   information-probe-fed checkers, the Global Memory multi-core rule,
//!   forced page faults and SC failures (§III-B),
//! - [`lightsss`] — the lightweight copy-on-write simulation snapshot
//!   manager and the eager SSS baseline (§III-C, Table I, Fig. 6),
//! - [`archdb`] — the probe-schema event database (§III-B3),
//! - [`cosim`] — the integrated workflow: DUT + REFs + DiffTest +
//!   LightSSS + ArchDB: a run stops at the divergence and hands back its
//!   rollback point, and [`debug_window`] replays it in debug mode on
//!   demand (§III-E, §IV-C),
//! - [`files`] — the schema gate every file read back passes through.
//!
//! The DUT is the `xscore` cycle-level XiangShan model; the REF is a
//! `nemu` architectural hart per core — the same N-to-1 arrangement the
//! paper advocates.
//!
//! # Example
//!
//! ```
//! use minjie::{CoSim, CoSimEnd};
//! use riscv_isa::asm::{reg::*, Asm};
//! use xscore::XsConfig;
//!
//! let mut a = Asm::new(0x8000_0000);
//! a.li(A0, 7);
//! a.ebreak();
//! let program = a.assemble();
//!
//! let mut cosim = CoSim::new(XsConfig::yqh(), &program).with_lightsss(10_000);
//! match cosim.run(200_000) {
//!     CoSimEnd::Halted(code) => assert_eq!(code, 7),
//!     other => panic!("{other:?}"),
//! }
//! ```

pub mod archdb;
pub mod cosim;
pub mod coverage;
pub mod difftest;
pub mod files;
pub mod lightsss;
pub mod rules;
pub mod telemetry;

pub use archdb::ArchDb;
pub use cosim::{
    debug_window, panic_message, run_isolated, within_deadline, BugReport, CoSim, CoSimEnd,
    CoSimState, DebugWindow, RunStats, Salvage, SampleWindowStats,
};
pub use coverage::{bucket, CommitCoverage, CoverageMap, FU_CLASS_COUNT, OP_COUNT};
pub use difftest::{
    AnyRef, DiffError, DiffTest, GlobalMemory, NemuRef, RefModel, ARCH_REF_NAME, DEFAULT_REF_NAME,
};
pub use lightsss::{LightSss, Snapshot, Snapshotable, Sss};
pub use rules::{csr_field_rules, CsrFieldKind, CsrFieldRule, DiffRule, RuleStats};
pub use telemetry::{BpuStats, CacheSnap, CoreSnapshot, PerfSnapshot, TlbStats};
