//! The twelve SPEC-like kernels.
//!
//! Naming follows the SPEC CPU2006 program each kernel's control/memory
//! behavior is modeled on. All kernels run bare-metal at 0x8000_0000,
//! use memory above 0x8002_0000 as their data segment, leave a checksum
//! in `a0`, and halt with `ebreak`.

use riscv_isa::asm::{reg::*, Asm, Program};

/// Problem-size selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small inputs for unit/integration tests (≈10⁴–10⁵ instructions).
    Test,
    /// Cycle-model benchmarking inputs: moderate instruction counts but
    /// multi-megabyte working sets, so cache-hierarchy capacity (the
    /// Fig. 12 LLC sweep) actually matters.
    Bench,
    /// Large inputs for interpreter benchmarking (≈10⁶–10⁷ instructions).
    Ref,
}

impl Scale {
    fn n3(self, test: i64, bench: i64, reference: i64) -> i64 {
        match self {
            Scale::Test => test,
            Scale::Bench => bench,
            Scale::Ref => reference,
        }
    }
}

/// Integer or floating-point dominated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// SPECint-like.
    Int,
    /// SPECfp-like.
    Fp,
}

/// One benchmark kernel.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Kernel name (modeled-on SPEC program).
    pub name: &'static str,
    /// Int or FP class.
    pub class: WorkloadClass,
    /// The assembled program.
    pub program: Program,
}

const BASE: u64 = 0x8000_0000;
const DATA: i64 = 0x8002_0000;
const GOLDEN: i64 = 0x9e3779b97f4a7c15u64 as i64;

/// Build every kernel at the given scale.
pub fn all_workloads(scale: Scale) -> Vec<Workload> {
    NAMES.iter().map(|n| workload(n, scale)).collect()
}

/// Kernel names in suite order (int first, then fp).
pub const NAMES: [&str; 12] = [
    "sjeng", "mcf", "bzip2", "gobmk", "hmmer", "libquantum", "gcc", "astar", "bwaves", "namd",
    "milc", "lbm",
];

/// Build one kernel by name.
///
/// # Panics
///
/// Panics on an unknown name.
pub fn workload(name: &str, scale: Scale) -> Workload {
    let (class, program) = match name {
        "sjeng" => (WorkloadClass::Int, sjeng(scale)),
        "mcf" => (WorkloadClass::Int, mcf(scale)),
        "bzip2" => (WorkloadClass::Int, bzip2(scale)),
        "gobmk" => (WorkloadClass::Int, gobmk(scale)),
        "hmmer" => (WorkloadClass::Int, hmmer(scale)),
        "libquantum" => (WorkloadClass::Int, libquantum(scale)),
        "gcc" => (WorkloadClass::Int, gcc(scale)),
        "astar" => (WorkloadClass::Int, astar(scale)),
        "bwaves" => (WorkloadClass::Fp, bwaves(scale)),
        "namd" => (WorkloadClass::Fp, namd(scale)),
        "milc" => (WorkloadClass::Fp, milc(scale)),
        "lbm" => (WorkloadClass::Fp, lbm(scale)),
        other => panic!("unknown workload {other}"),
    };
    let name = NAMES
        .iter()
        .find(|n| **n == name)
        .expect("known name");
    Workload {
        name,
        class,
        program,
    }
}

/// sjeng-like: game-tree search flavor — data-dependent branches on a
/// pseudo-random stream, with a small "board" table updated on the way
/// (the paper's §IV-D PUBS case study uses sjeng for its high MPKI).
fn sjeng(scale: Scale) -> Program {
    let n = scale.n3(4_000, 150_000, 400_000);
    let mut a = Asm::new(BASE);
    a.li(S0, 0); // i
    a.li(S1, n);
    a.li(A0, 0); // acc
    a.li(S2, GOLDEN);
    a.li(S3, DATA); // board
    a.li(S4, 0x1234_5678);
    let top = a.bound_label();
    let b1 = a.label();
    let b2 = a.label();
    let b3 = a.label();
    let next = a.label();
    // x = hash(i)
    a.mul(T0, S0, S2);
    a.xor(T0, T0, S4);
    a.srli(T1, T0, 33);
    a.xor(T0, T0, T1);
    // Three data-dependent branches (hard to predict).
    a.andi(T1, T0, 1);
    a.beqz(T1, b1);
    a.addi(A0, A0, 3);
    a.bind(b1);
    a.srli(T1, T0, 7);
    a.andi(T1, T1, 3);
    a.li(T2, 2);
    a.blt(T1, T2, b2);
    a.xor(A0, A0, T0);
    a.bind(b2);
    a.srli(T1, T0, 13);
    a.andi(T1, T1, 7);
    a.li(T2, 5);
    a.bge(T1, T2, b3);
    // "Move generation": touch the board.
    a.andi(T3, T0, 0x3f8);
    a.add(T3, T3, S3);
    a.ld(T4, 0, T3);
    a.add(T4, T4, T0);
    a.sd(T4, 0, T3);
    a.j(next);
    a.bind(b3);
    a.rol(A0, A0, T1);
    a.bind(next);
    a.addi(S0, S0, 1);
    a.bne(S0, S1, top);
    a.ebreak();
    a.assemble()
}

/// mcf-like: pointer chasing through a pseudo-random linked list —
/// latency bound, cache-hostile.
fn mcf(scale: Scale) -> Program {
    let nodes = scale.n3(512, 65_536, 16_384); // Bench: 4 MiB of nodes
    let hops = scale.n3(3_000, 250_000, 600_000);
    let mut a = Asm::new(BASE);
    // Build a singly linked list: node i at DATA + 64*i points to node
    // (i * 2654435761 + 1) % nodes.
    a.li(S0, DATA);
    a.li(T0, 0);
    a.li(T1, nodes);
    a.li(S2, 0x9e37_79b1);
    let build = a.bound_label();
    a.mul(T2, T0, S2);
    a.addi(T2, T2, 1);
    a.remu(T2, T2, T1); // next index
    a.slli(T2, T2, 6);
    a.add(T2, T2, S0); // next pointer
    a.slli(T3, T0, 6);
    a.add(T3, T3, S0);
    a.sd(T2, 0, T3); // node->next
    a.sd(T0, 8, T3); // node->cost = i
    a.addi(T0, T0, 1);
    a.bne(T0, T1, build);
    // Chase.
    a.mv(T0, S0);
    a.li(S1, hops);
    a.li(A0, 0);
    let chase = a.bound_label();
    a.ld(T2, 8, T0); // cost
    a.add(A0, A0, T2);
    a.ld(T0, 0, T0); // next (dependent load)
    a.addi(S1, S1, -1);
    a.bnez(S1, chase);
    a.andi(A0, A0, -1); // meant 0xff_ffff (checksum mask); 12 bits hold only -1: ROADMAP 1(c)
    a.ebreak();
    a.assemble()
}

/// bzip2-like: byte-granularity compression flavor — histogram plus
/// run-length detection over a pseudo-random buffer.
fn bzip2(scale: Scale) -> Program {
    let len = scale.n3(4_096, 131_072, 262_144);
    let mut a = Asm::new(BASE);
    // Generate bytes with a xorshift and store them.
    a.li(S0, DATA);
    a.li(T0, 0);
    a.li(T1, len);
    a.li(S2, 88172645463325252u64 as i64);
    let genl = a.bound_label();
    a.slli(T2, S2, 13);
    a.xor(S2, S2, T2);
    a.srli(T2, S2, 7);
    a.xor(S2, S2, T2);
    a.slli(T2, S2, 17);
    a.xor(S2, S2, T2);
    a.add(T3, S0, T0);
    a.sb(S2, 0, T3);
    a.addi(T0, T0, 1);
    a.bne(T0, T1, genl);
    // Histogram + run detection.
    a.li(S3, DATA + 0x8_0000); // histogram base
    a.li(T0, 0);
    a.li(A0, 0);
    a.li(S4, -1); // prev byte
    let scan = a.bound_label();
    let norun = a.label();
    a.add(T3, S0, T0);
    a.lbu(T4, 0, T3);
    // histogram[byte]++
    a.slli(T5, T4, 3);
    a.add(T5, T5, S3);
    a.ld(T6, 0, T5);
    a.addi(T6, T6, 1);
    a.sd(T6, 0, T5);
    // run detection
    a.bne(T4, S4, norun);
    a.addi(A0, A0, 1);
    a.bind(norun);
    a.mv(S4, T4);
    a.addi(T0, T0, 1);
    a.bne(T0, T1, scan);
    // checksum: runs + histogram[0]
    a.ld(T6, 0, S3);
    a.add(A0, A0, T6);
    a.ebreak();
    a.assemble()
}

/// gobmk-like: board scanning with nested position-dependent branches.
fn gobmk(scale: Scale) -> Program {
    let iters = scale.n3(40, 150, 2_500);
    let mut a = Asm::new(BASE);
    a.li(S0, DATA); // 19x19 board, 1 byte per point (we use 32x32)
    a.li(S5, 0);
    a.li(S6, iters);
    a.li(A0, 0);
    let game = a.bound_label();
    a.li(T0, 0); // point index
    a.li(T1, 1024);
    let scan = a.bound_label();
    let empty = a.label();
    let liberty = a.label();
    let nextp = a.label();
    a.add(T2, S0, T0);
    a.lbu(T3, 0, T2);
    a.beqz(T3, empty);
    // occupied: check "liberties" of the two neighbors
    a.lbu(T4, 1, T2);
    a.beqz(T4, liberty);
    a.lbu(T4, 32, T2);
    a.beqz(T4, liberty);
    a.addi(A0, A0, 1); // captured-ish
    a.j(nextp);
    a.bind(liberty);
    a.addi(A0, A0, 2);
    a.j(nextp);
    a.bind(empty);
    // place a stone pseudo-randomly
    a.mul(T5, T0, S6);
    a.add(T5, T5, S5);
    a.andi(T5, T5, 3);
    a.sb(T5, 0, T2);
    a.bind(nextp);
    a.addi(T0, T0, 1);
    a.bne(T0, T1, scan);
    a.addi(S5, S5, 1);
    a.bne(S5, S6, game);
    a.andi(A0, A0, -1); // meant 0xff_ffff (checksum mask); 12 bits hold only -1: ROADMAP 1(c)
    a.ebreak();
    a.assemble()
}

/// hmmer-like: dynamic-programming inner loop (max/add recurrences) —
/// high ILP integer code, few branch mispredicts.
fn hmmer(scale: Scale) -> Program {
    let rows = scale.n3(60, 1_200, 4_000);
    let mut a = Asm::new(BASE);
    a.li(S0, DATA); // dp row
    a.li(S5, 0); // row
    a.li(S6, rows);
    a.li(A0, 0);
    a.li(S2, GOLDEN);
    let row = a.bound_label();
    a.li(T0, 0);
    a.li(T1, 128); // columns
    let col = a.bound_label();
    a.slli(T2, T0, 3);
    a.add(T2, T2, S0);
    a.ld(T3, 0, T2); // dp[j]
    a.ld(T4, 8, T2); // dp[j+1]
    a.mul(T5, S5, S2);
    a.xor(T5, T5, T0);
    a.add(T3, T3, T5); // match score
    a.addi(T4, T4, 3); // gap score
    a.max(T3, T3, T4);
    a.sd(T3, 0, T2);
    a.add(A0, A0, T3);
    a.addi(T0, T0, 1);
    a.bne(T0, T1, col);
    a.addi(S5, S5, 1);
    a.bne(S5, S6, row);
    a.andi(A0, A0, -1); // meant 0xfff_ffff (checksum mask); 12 bits hold only -1: ROADMAP 1(c)
    a.ebreak();
    a.assemble()
}

/// libquantum-like: long streaming passes toggling bits in a large array
/// — bandwidth bound, trivially predictable branches.
fn libquantum(scale: Scale) -> Program {
    let len = scale.n3(2_048, 262_144, 131_072); // 8-byte elements (Bench: 2 MiB)
    let passes = scale.n3(4, 2, 40);
    let mut a = Asm::new(BASE);
    a.li(S0, DATA);
    a.li(S5, 0);
    a.li(S6, passes);
    a.li(A0, 0);
    let pass = a.bound_label();
    a.li(T0, 0);
    a.li(T1, len);
    let inner = a.bound_label();
    a.slli(T2, T0, 3);
    a.add(T2, T2, S0);
    a.ld(T3, 0, T2);
    a.xor(T3, T3, S5); // toggle control bit
    a.addi(T3, T3, 1);
    a.sd(T3, 0, T2);
    a.addi(T0, T0, 1);
    a.bne(T0, T1, inner);
    a.addi(S5, S5, 1);
    a.bne(S5, S6, pass);
    // checksum first/last
    a.ld(T3, 0, S0);
    a.add(A0, A0, T3);
    a.andi(A0, A0, -1); // meant 0xfff_ffff (checksum mask); 12 bits hold only -1: ROADMAP 1(c)
    a.ebreak();
    a.assemble()
}

/// gcc-like: hash-table insert/lookup churn — irregular control plus
/// pointer-ish memory access.
fn gcc(scale: Scale) -> Program {
    let ops = scale.n3(3_000, 100_000, 300_000);
    let mut a = Asm::new(BASE);
    a.li(S0, DATA); // 4096-entry open-addressed table of (key,value)
    a.li(S1, ops);
    a.li(S2, GOLDEN);
    a.li(S5, 0);
    a.li(A0, 0);
    let top = a.bound_label();
    let probe = a.label();
    let insert = a.label();
    let found = a.label();
    let next = a.label();
    // Key index: each key is used twice (insert, then lookup), and the
    // distinct-key space is capped below the table size so probing always
    // terminates.
    a.srli(T6, S5, 1);
    a.andi(T6, T6, 0x7ff);
    a.mul(T0, T6, S2);
    a.ori(T0, T0, 1); // never key 0 (0 marks empty slots)
    a.srli(T1, T0, 17);
    a.andi(T1, T1, -1); // meant 0xfff (slot mask); 12 bits hold only -1: ROADMAP 1(c)
    a.bind(probe);
    a.slli(T2, T1, 4);
    a.add(T2, T2, S0);
    a.ld(T3, 0, T2); // key
    a.beqz(T3, insert);
    a.beq(T3, T0, found);
    a.addi(T1, T1, 1);
    a.andi(T1, T1, -1); // meant 0xfff (slot mask); 12 bits hold only -1: ROADMAP 1(c)
    a.j(probe);
    a.bind(insert);
    a.sd(T0, 0, T2);
    a.sd(S5, 8, T2);
    a.addi(A0, A0, 1);
    a.j(next);
    a.bind(found);
    a.ld(T4, 8, T2);
    a.add(A0, A0, T4);
    a.bind(next);
    a.addi(S5, S5, 1);
    a.bne(S5, S1, top);
    a.andi(A0, A0, -1); // meant 0xfff_ffff (checksum mask); 12 bits hold only -1: ROADMAP 1(c)
    a.ebreak();
    a.assemble()
}

/// astar-like: grid path walking with direction branches.
fn astar(scale: Scale) -> Program {
    let steps = scale.n3(4_000, 150_000, 400_000);
    let grid_mask = scale.n3(0xffff, 0xfffff, 0xfffff); // Bench/Ref: 1 MiB grid
    let mut a = Asm::new(BASE);
    a.li(S0, DATA); // byte-cost grid (64 KiB test, 1 MiB bench/ref)
    a.li(S1, steps);
    a.li(S2, GOLDEN);
    a.li(T0, 128 * 256 + 128); // position
    a.li(S5, 0);
    a.li(A0, 0);
    let top = a.bound_label();
    let right = a.label();
    let down = a.label();
    let move_done = a.label();
    a.mul(T1, S5, S2);
    a.srli(T2, T1, 21);
    a.andi(T2, T2, 3);
    a.li(T3, 1);
    a.beq(T2, T3, right);
    a.li(T3, 2);
    a.beq(T2, T3, down);
    a.addi(T0, T0, -1); // left
    a.j(move_done);
    a.bind(right);
    a.addi(T0, T0, 1);
    a.j(move_done);
    a.bind(down);
    a.addi(T0, T0, 256);
    a.bind(move_done);
    a.li(T4, grid_mask);
    a.and(T0, T0, T4);
    a.add(T5, S0, T0);
    a.lbu(T6, 0, T5);
    a.add(A0, A0, T6);
    a.addi(T6, T6, 1);
    a.sb(T6, 0, T5);
    a.addi(S5, S5, 1);
    a.bne(S5, S1, top);
    a.andi(A0, A0, -1); // meant 0xfff_ffff (checksum mask); 12 bits hold only -1: ROADMAP 1(c)
    a.ebreak();
    a.assemble()
}

/// bwaves-like: dense FP stencil sweep (fmadd-heavy, streaming).
fn bwaves(scale: Scale) -> Program {
    let len = scale.n3(1_024, 262_144, 65_536); // Bench: 2 MiB array
    let passes = scale.n3(6, 2, 60);
    let mut a = Asm::new(BASE);
    // Initialize array with i as doubles.
    a.li(S0, DATA);
    a.li(T0, 0);
    a.li(T1, len);
    let init = a.bound_label();
    a.fcvt_d_l(FT0, T0);
    a.slli(T2, T0, 3);
    a.add(T2, T2, S0);
    a.fsd(FT0, 0, T2);
    a.addi(T0, T0, 1);
    a.bne(T0, T1, init);
    // Stencil passes: x[i] = 0.25*x[i-1] + 0.5*x[i] + 0.25*x[i+1].
    a.li(T3, 1);
    a.fcvt_d_l(FT1, T3);
    a.li(T3, 4);
    a.fcvt_d_l(FT2, T3);
    a.fdiv_d(FT2, FT1, FT2); // 0.25
    a.fadd_d(FT3, FT2, FT2); // 0.5
    a.li(S5, 0);
    a.li(S6, passes);
    let pass = a.bound_label();
    a.li(T0, 1);
    a.addi(T1, T1, 0);
    let inner = a.bound_label();
    a.slli(T2, T0, 3);
    a.add(T2, T2, S0);
    a.fld(FT4, -8, T2);
    a.fld(FT5, 0, T2);
    a.fld(FT6, 8, T2);
    a.fmul_d(FT7, FT4, FT2);
    a.fmadd_d(FT7, FT5, FT3, FT7);
    a.fmadd_d(FT7, FT6, FT2, FT7);
    a.fsd(FT7, 0, T2);
    a.addi(T0, T0, 1);
    a.addi(T4, T1, -1);
    a.bne(T0, T4, inner);
    a.addi(S5, S5, 1);
    a.bne(S5, S6, pass);
    // checksum: x[len/2] as integer
    a.srli(T0, T1, 1);
    a.slli(T0, T0, 3);
    a.add(T0, T0, S0);
    a.fld(FT4, 0, T0);
    a.fcvt_l_d(A0, FT4);
    a.ebreak();
    a.assemble()
}

/// namd-like: particle-force flavor — chained FMAs with reciprocal-ish
/// scaling, high FP ILP.
fn namd(scale: Scale) -> Program {
    let n = scale.n3(2_000, 150_000, 200_000);
    let mut a = Asm::new(BASE);
    a.li(T0, 3);
    a.fcvt_d_l(FT0, T0); // dx = 3
    a.li(T0, 5);
    a.fcvt_d_l(FT1, T0); // dy = 5
    a.li(T0, 7);
    a.fcvt_d_l(FT2, T0); // dz = 7
    a.li(T0, 1);
    a.fcvt_d_l(FT3, T0); // force accumulator
    a.fmv_d_x(FA0, ZERO); // energy
    a.li(S0, 0);
    a.li(S1, n);
    let top = a.bound_label();
    // r2 = dx*dx + dy*dy + dz*dz (dx varies slowly)
    a.fmul_d(FT4, FT0, FT0);
    a.fmadd_d(FT4, FT1, FT1, FT4);
    a.fmadd_d(FT4, FT2, FT2, FT4);
    a.fsqrt_d(FT5, FT4);
    a.fdiv_d(FT6, FT3, FT5); // 1/r-ish
    a.fmadd_d(FA0, FT6, FT6, FA0); // energy += (1/r)^2
    a.fadd_d(FT0, FT0, FT6); // drift dx
    a.fmin_d(FT0, FT0, FT4); // keep bounded
    a.addi(S0, S0, 1);
    a.bne(S0, S1, top);
    a.fcvt_l_d(A0, FA0);
    a.ebreak();
    a.assemble()
}

/// milc-like: small-matrix (2x2, representing SU(3)-ish work) repeated
/// multiplications from memory.
fn milc(scale: Scale) -> Program {
    let n = scale.n3(1_500, 80_000, 150_000);
    let mut a = Asm::new(BASE);
    // Seed a 2x2 matrix in memory as doubles [1, 2, 3, 4].
    a.li(S0, DATA);
    for (i, v) in [1i64, 2, 3, 4].iter().enumerate() {
        a.li(T0, *v);
        a.fcvt_d_l(FT0, T0);
        a.fsd(FT0, (i * 8) as i64, S0);
    }
    // acc = I
    a.li(T0, 1);
    a.fcvt_d_l(FS0, T0);
    a.fmv_d_x(FS1, ZERO);
    a.fmv_d_x(FT10, ZERO);
    a.li(T0, 1);
    a.fcvt_d_l(FT11, T0);
    a.li(S1, n);
    a.li(S5, 0);
    // Scale factor to keep values bounded: 1/8.
    a.li(T0, 8);
    a.fcvt_d_l(FA1, T0);
    let top = a.bound_label();
    a.fld(FT0, 0, S0);
    a.fld(FT1, 8, S0);
    a.fld(FT2, 16, S0);
    a.fld(FT3, 24, S0);
    // acc = (acc * m) / 8 elementwise-ish (2x2 matmul)
    a.fmul_d(FT4, FS0, FT0);
    a.fmadd_d(FT4, FS1, FT2, FT4);
    a.fmul_d(FT5, FS0, FT1);
    a.fmadd_d(FT5, FS1, FT3, FT5);
    a.fmul_d(FA2, FT10, FT0);
    a.fmadd_d(FA2, FT11, FT2, FA2);
    a.fmul_d(FA3, FT10, FT1);
    a.fmadd_d(FA3, FT11, FT3, FA3);
    a.fdiv_d(FS0, FT4, FA1);
    a.fdiv_d(FS1, FT5, FA1);
    a.fdiv_d(FT10, FA2, FA1);
    a.fdiv_d(FT11, FA3, FA1);
    a.addi(S5, S5, 1);
    a.bne(S5, S1, top);
    a.fadd_d(FT4, FS0, FT11);
    a.fcvt_l_d(A0, FT4);
    a.ebreak();
    a.assemble()
}

/// lbm-like: lattice streaming update — FP loads/stores dominate.
fn lbm(scale: Scale) -> Program {
    let cells = scale.n3(1_024, 262_144, 65_536); // Bench: 4 MiB lattice
    let passes = scale.n3(5, 2, 50);
    let mut a = Asm::new(BASE);
    a.li(S0, DATA);
    a.li(T0, 0);
    a.li(T1, cells);
    let init = a.bound_label();
    a.fcvt_d_l(FT0, T0);
    a.slli(T2, T0, 4); // two doubles per cell
    a.add(T2, T2, S0);
    a.fsd(FT0, 0, T2);
    a.fsd(FT0, 8, T2);
    a.addi(T0, T0, 1);
    a.bne(T0, T1, init);
    a.li(T0, 2);
    a.fcvt_d_l(FT9, T0); // relaxation divisor
    a.li(S5, 0);
    a.li(S6, passes);
    let pass = a.bound_label();
    a.li(T0, 1);
    let inner = a.bound_label();
    a.slli(T2, T0, 4);
    a.add(T2, T2, S0);
    a.fld(FT0, 0, T2); // density
    a.fld(FT1, 8, T2); // momentum
    a.fld(FT2, -16, T2); // neighbor density
    a.fadd_d(FT3, FT0, FT2);
    a.fdiv_d(FT3, FT3, FT9); // average (collide)
    a.fsd(FT3, 0, T2);
    a.fadd_d(FT1, FT1, FT3);
    a.fsd(FT1, 8, T2); // stream
    a.addi(T0, T0, 1);
    a.bne(T0, T1, inner);
    a.addi(S5, S5, 1);
    a.bne(S5, S6, pass);
    a.fld(FT0, 16, S0);
    a.fcvt_l_d(A0, FT0);
    a.ebreak();
    a.assemble()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemu::{DromajoLike, Interpreter, Nemu, QemuTciLike, SpikeLike};

    #[test]
    fn all_kernels_terminate_on_nemu() {
        for w in all_workloads(Scale::Test) {
            let mut n = Nemu::new(&w.program);
            let r = n.run(80_000_000);
            assert!(
                r.exit_code.is_some(),
                "{} did not halt ({} insts)",
                w.name,
                r.instructions
            );
            assert!(
                r.instructions > 3_000,
                "{} too small: {} insts",
                w.name,
                r.instructions
            );
        }
    }

    #[test]
    fn interpreters_agree_on_every_kernel() {
        for w in all_workloads(Scale::Test) {
            let mut n = Nemu::new(&w.program);
            let mut s = SpikeLike::new(&w.program);
            let rn = n.run(80_000_000);
            let rs = s.run(80_000_000);
            assert_eq!(rn.exit_code, rs.exit_code, "{}", w.name);
            assert_eq!(rn.instructions, rs.instructions, "{}", w.name);
            assert_eq!(
                n.hart().state.gpr,
                s.hart().state.gpr,
                "{} final registers",
                w.name
            );
        }
    }

    #[test]
    fn baselines_agree_on_fp_kernels() {
        for w in all_workloads(Scale::Test) {
            if w.class != WorkloadClass::Fp {
                continue;
            }
            let mut d = DromajoLike::new(&w.program);
            let mut q = QemuTciLike::new(&w.program);
            assert_eq!(
                d.run(80_000_000).exit_code,
                q.run(80_000_000).exit_code,
                "{}",
                w.name
            );
            assert_eq!(d.hart().state.fpr, q.hart().state.fpr, "{}", w.name);
        }
    }

    #[test]
    fn suite_composition() {
        let all = all_workloads(Scale::Test);
        assert_eq!(all.len(), 12);
        assert_eq!(
            all.iter().filter(|w| w.class == WorkloadClass::Int).count(),
            8
        );
        assert_eq!(
            all.iter().filter(|w| w.class == WorkloadClass::Fp).count(),
            4
        );
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn unknown_name_panics() {
        let _ = workload("perlbench", Scale::Test);
    }
}
