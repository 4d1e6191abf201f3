//! RV64GCB instruction-set substrate for the MINJIE/XiangShan reproduction.
//!
//! This crate provides everything the rest of the workspace builds on:
//!
//! - [`op`] / [`decode`](mod@decode) / [`encode`] / [`disasm`]: the RV64IMAFDC + Zba/Zbb
//!   instruction set — one table in [`op`] with a row per instruction, from
//!   which the decoder of 32-bit words, the encoder, the disassembler and
//!   every per-operation predicate are generated or driven (compressed
//!   encodings are decoded by hand into the same operations),
//! - [`exec`]: pure functions giving the architectural semantics of the
//!   integer instructions (shared by every interpreter and the core model),
//! - [`csr`] / [`trap`]: machine- and supervisor-mode CSRs, privilege
//!   levels, and trap entry/return,
//! - [`mmu`]: the Sv39 page-table walker,
//! - [`mem`]: a sparse, copy-on-write physical memory (the substrate of the
//!   LightSSS snapshot mechanism),
//! - [`softfloat`]: exact-rounding software floating point (the analogue of
//!   Berkeley SoftFloat used by the Spike-like baseline interpreter),
//! - [`fpu`]: host-float-backed floating point with RISC-V NaN boxing (the
//!   analogue of NEMU's host-FP fast path),
//! - [`asm`]: an in-Rust assembler/program builder used by the workload
//!   suite,
//! - [`state`]: the architectural-state container that DiffTest compares.
//!
//! # Example
//!
//! ```
//! use riscv_isa::decode::decode32;
//! use riscv_isa::op::Op;
//!
//! // addi x5, x0, 42
//! let inst = decode32(0x02a0_0293);
//! assert_eq!(inst.op, Op::Addi);
//! assert_eq!(inst.rd, 5);
//! assert_eq!(inst.imm, 42);
//! ```

pub mod asm;
pub mod csr;
pub mod decode;
pub mod disasm;
pub mod encode;
pub mod exec;
pub mod fpu;
pub mod mem;
pub mod mmu;
pub mod op;
pub mod softfloat;
pub mod state;
pub mod trap;

pub use decode::{decode, decode16, decode32};
pub use mem::SparseMemory;
pub use op::{DecodedInst, Op};
pub use state::ArchState;
pub use trap::Exception;

/// Number of integer architectural registers.
pub const NUM_GPR: usize = 32;
/// Number of floating-point architectural registers.
pub const NUM_FPR: usize = 32;
