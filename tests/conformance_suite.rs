//! Cross-interpreter conformance tier.
//!
//! Every block below runs one hand-written per-extension program through
//! every interpreter personality in [`nemu::registry`] — plain
//! decode-and-execute (`dromajo-like`), bytecode dispatch
//! (`qemu-tci-like`), decode cache + SoftFloat (`spike-like`), the fast
//! block-chaining uop cache (`nemu`), and the superblock trace tier
//! (`nemu-trace`) — and asserts identical architectural state afterwards:
//! exit code, PC, all 32 GPRs, all 32 FPRs, and the retired-instruction
//! count.
//!
//! This is where fast-path specialization bugs show up: `li`/`mv`/`ret`/
//! `auipc` shortcuts, discarded x0 writes, block chaining, superblock
//! formation, exit-edge patching, and load/store micro-TLBs only exist
//! in the fast tiers, so any divergence from the baselines pins the bug
//! to that specialization. The matrix is registry-driven: adding a
//! personality automatically enrolls it here. A second, pure tier
//! cross-checks the interpreters against `riscv_isa::exec` directly: for
//! an op and operand matrix, the architectural exit code must equal what
//! [`int_compute`] / [`branch_taken`] / [`amo_compute`] say in isolation.
//! A final block pins the trace-tier invalidation rules (`fence.i`,
//! `sfence.vma`, satp rewrite, indirect-jump retarget) and the decode
//! caches' flush on `mret` with programs whose *results* change if stale
//! traces, decodes or micro-TLB entries survive. The last block runs
//! co-simulated jobs under DiffTest's default REF and under the
//! cache-free `arch` stepper and asserts identical job records.

use nemu::registry::PERSONALITIES;
use nemu::{Interpreter, NemuTrace};
use riscv_isa::asm::{reg::*, Asm, Program};
use riscv_isa::exec::{amo_compute, branch_taken, int_compute};
use riscv_isa::Op;

const FUEL: u64 = 2_000_000;
mod common;

const BASE: u64 = 0x8000_0000;

/// Run `p` on every registered interpreter personality; assert they all
/// halt with identical architectural state and UART output, and return
/// the common exit code.
fn conform(p: &Program) -> u64 {
    let mut engines: Vec<(&'static str, Box<dyn Interpreter>)> = PERSONALITIES
        .iter()
        .map(|pers| (pers.name, (pers.build)(p)))
        .collect();
    assert!(
        engines.len() >= 5,
        "personality registry lost a tier: {:?}",
        nemu::registry::names()
    );
    let (head, rest) = engines.split_first_mut().expect("registry is non-empty");
    let r0 = head.1.run(FUEL);
    assert!(
        r0.exit_code.is_some(),
        "program did not halt under {}",
        head.0
    );
    for (name, e) in rest {
        let r = e.run(FUEL);
        assert_eq!(r0.exit_code, r.exit_code, "{name}: exit code");
        assert_eq!(r0.instructions, r.instructions, "{name}: instret");
        assert_eq!(head.1.hart().state.pc, e.hart().state.pc, "{name}: pc");
        assert_eq!(head.1.hart().state.gpr, e.hart().state.gpr, "{name}: gpr file");
        assert_eq!(head.1.hart().state.fpr, e.hart().state.fpr, "{name}: fpr file");
        assert_eq!(head.1.hart().output, e.hart().output, "{name}: UART output");
    }
    r0.exit_code.unwrap()
}

/// Interesting 64-bit operand values for the exec cross-check matrix.
const OPERANDS: [u64; 8] = [
    0,
    1,
    u64::MAX,                  // -1
    i64::MIN as u64,           // signed-overflow edge for div/rem
    0x8000_0000,               // W-op sign boundary
    0x0123_4567_89ab_cdef,     // byte-distinct pattern
    0xffff_ffff_0000_0001,     // upper-half set
    63,                        // full shift amount
];

// ---------------------------------------------------------------------
// RV64I
// ---------------------------------------------------------------------

#[test]
fn rv64i_alu_register_register() {
    let mut a = Asm::new(BASE);
    a.li(T0, 0x0123_4567_89ab_cdefu64 as i64);
    a.li(T1, -7);
    a.add(T2, T0, T1);
    a.sub(T3, T0, T1);
    a.sll(T4, T0, T1); // shift amount masked to 63
    a.srl(T5, T0, T1);
    a.sra(T6, T0, T1);
    a.slt(S0, T1, T0);
    a.sltu(S1, T1, T0);
    a.xor(S2, T0, T1);
    a.or(S3, T0, T1);
    a.and(S4, T0, T1);
    a.addw(S5, T0, T1);
    a.subw(S6, T0, T1);
    a.sllw(S7, T0, T1);
    a.srlw(S8, T0, T1);
    a.sraw(S9, T0, T1);
    // Fold everything into one checksum so a single wrong lane flips it.
    a.mv(A0, T2);
    for r in [T3, T4, T5, T6, S0, S1, S2, S3, S4, S5, S6, S7, S8, S9] {
        a.add(A0, A0, r);
    }
    a.ebreak();
    conform(&a.assemble());
}

#[test]
fn rv64i_alu_immediates() {
    let mut a = Asm::new(BASE);
    a.li(T0, 0xdead_beef_cafe_f00du64 as i64);
    a.addi(T1, T0, -2048);
    a.slti(T2, T0, 2047);
    a.sltiu(T3, T0, 2047);
    a.xori(T4, T0, -1); // pseudo `not`
    a.ori(S0, T0, 0x555);
    a.andi(S1, T0, 0x555);
    a.slli(S2, T0, 13);
    a.srli(S3, T0, 13);
    a.srai(S4, T0, 13);
    a.addiw(S5, T0, 100);
    a.slliw(S6, T0, 5);
    a.srliw(S7, T0, 5);
    a.sraiw(S8, T0, 5);
    a.mv(A0, T1);
    for r in [T2, T3, T4, S0, S1, S2, S3, S4, S5, S6, S7, S8] {
        a.add(A0, A0, r);
    }
    a.ebreak();
    conform(&a.assemble());
}

#[test]
fn rv64i_loads_and_stores_all_widths() {
    let mut a = Asm::new(BASE);
    let data = a.label();
    a.la(S0, data);
    a.li(T0, 0x8182_8384_8586_8788u64 as i64); // every byte has bit 7 set
    a.sd(T0, 0, S0);
    a.sw(T0, 8, S0);
    a.sh(T0, 12, S0);
    a.sb(T0, 14, S0);
    // Reload through every width; signed widths must sign-extend.
    a.ld(T1, 0, S0);
    a.lw(T2, 0, S0);
    a.lwu(T3, 0, S0);
    a.lh(T4, 0, S0);
    a.lhu(T5, 0, S0);
    a.lb(T6, 0, S0);
    a.lbu(S1, 0, S0);
    a.lw(S2, 8, S0);
    a.lhu(S3, 12, S0);
    a.lbu(S4, 14, S0);
    a.mv(A0, T1);
    for r in [T2, T3, T4, T5, T6, S1, S2, S3, S4] {
        a.add(A0, A0, r);
    }
    a.ebreak();
    a.align(3);
    a.bind(data);
    a.zeros(32);
    conform(&a.assemble());
}

/// The MMIO edges, through `run()` and through `step_one()` on every
/// personality, with a nonzero `time`: `MTIME` answers 8-byte loads only,
/// integer (`ld`) or FP (`fld`), so a narrower load there reads memory;
/// `UART_TX` takes every store, integer (`sd`) or FP (`fsd`), and none of
/// them reaches memory.
#[test]
fn mmio_edges_conform() {
    use riscv_isa::mem::{MTIME, UART_TX};
    const TIME: u64 = 0x1234_5678_9abc_def0;
    let mut a = Asm::new(BASE);
    a.li(T0, MTIME as i64);
    a.lw(S1, 0, T0);
    a.lh(S2, 0, T0);
    a.lb(S3, 0, T0);
    a.ld(S4, 0, T0);
    a.fld(FT0, 0, T0);
    a.li(T1, UART_TX as i64);
    a.li(T2, b'A' as i64);
    a.sd(T2, 0, T1);
    a.li(T2, b'B' as i64);
    a.fmv_d_x(FT1, T2);
    a.fsd(FT1, 0, T1);
    a.ld(S5, 0, T1);
    a.li(A0, 7);
    a.ebreak();
    let p = a.assemble();
    for pers in PERSONALITIES {
        for stepped in [false, true] {
            let mut e = (pers.build)(&p);
            e.hart_mut().state.csr.time = TIME;
            if stepped {
                for _ in 0..FUEL {
                    if e.step_one().halted {
                        break;
                    }
                }
            } else {
                e.run(FUEL);
            }
            let via = format!("{} via {}", pers.name, if stepped { "step_one()" } else { "run()" });
            let h = e.hart();
            assert_eq!(h.halted, Some(7), "{via}: exit code");
            let loads = [S1, S2, S3, S4, S5].map(|r| h.state.gpr[r as usize]);
            assert_eq!(loads, [0, 0, 0, TIME, 0], "{via}: lw/lh/lb/ld from MTIME, ld from UART_TX");
            assert_eq!(h.state.fpr[FT0 as usize], TIME, "{via}: fld from MTIME");
            assert_eq!(h.output, b"AB", "{via}: sd and fsd to UART_TX");
        }
    }
}

#[test]
fn rv64i_branches_jumps_lui_auipc() {
    let mut a = Asm::new(BASE);
    a.li(A0, 0);
    a.li(T0, -5);
    a.li(T1, 5);
    // Each taken/not-taken edge adds a distinct weight to A0.
    let l1 = a.label();
    a.blt(T0, T1, l1);
    a.addi(A0, A0, 1000); // skipped
    a.bind(l1);
    a.addi(A0, A0, 1);
    let l2 = a.label();
    a.bltu(T0, T1, l2); // NOT taken: -5 is huge unsigned
    a.addi(A0, A0, 2);
    a.bind(l2);
    let l3 = a.label();
    a.bge(T1, T0, l3);
    a.addi(A0, A0, 1000); // skipped
    a.bind(l3);
    let l4 = a.label();
    a.bgeu(T1, T0, l4); // NOT taken
    a.addi(A0, A0, 4);
    a.bind(l4);
    let l5 = a.label();
    a.beq(T0, T0, l5);
    a.addi(A0, A0, 1000); // skipped
    a.bind(l5);
    let l6 = a.label();
    a.bne(T0, T0, l6); // NOT taken
    a.addi(A0, A0, 8);
    a.bind(l6);
    // lui/auipc: both PC-relative and absolute upper-immediate forms.
    a.lui(T2, 0x12345 << 12);
    a.srli(T2, T2, 12);
    a.add(A0, A0, T2);
    a.auipc(T3, 0);
    a.auipc(T4, 0);
    a.sub(T4, T4, T3); // distance between the two auipcs = 4
    a.add(A0, A0, T4);
    // jal/jalr round trip.
    let fun = a.label();
    let done = a.label();
    a.call(fun);
    a.j(done);
    a.bind(fun);
    a.addi(A0, A0, 16);
    a.ret();
    a.bind(done);
    a.ebreak();
    assert_eq!(conform(&a.assemble()), 1 + 2 + 4 + 8 + 0x12345 + 4 + 16);
}

// ---------------------------------------------------------------------
// RV64M — including division edge cases
// ---------------------------------------------------------------------

#[test]
fn rv64m_muldiv_edges() {
    let mut a = Asm::new(BASE);
    a.li(T0, i64::MIN);
    a.li(T1, -1);
    a.li(T2, 0);
    // Signed-overflow and divide-by-zero cases are fully defined in
    // RISC-V; all engines must produce the same architected values.
    a.div(T3, T0, T1); // MIN / -1 = MIN
    a.rem(T4, T0, T1); // MIN % -1 = 0
    a.div(T5, T0, T2); // x / 0 = -1
    a.rem(T6, T0, T2); // x % 0 = x
    a.divu(S0, T0, T2); // = u64::MAX
    a.remu(S1, T0, T2); // = x
    a.divw(S2, T0, T1); // i32 path sees 0 / -1
    a.remw(S3, T0, T2);
    a.divuw(S4, T0, T2);
    a.remuw(S5, T0, T2);
    a.mulh(S6, T0, T1);
    a.mulhu(S7, T0, T1);
    a.mulhsu(S8, T0, T1);
    a.mul(S9, T0, T0);
    a.mulw(S10, T0, T1);
    a.mv(A0, T3);
    for r in [T4, T5, T6, S0, S1, S2, S3, S4, S5, S6, S7, S8, S9, S10] {
        a.add(A0, A0, r);
    }
    a.ebreak();
    conform(&a.assemble());
}

// ---------------------------------------------------------------------
// RV64A — LR/SC and AMOs
// ---------------------------------------------------------------------

#[test]
fn rv64a_lrsc_and_amos() {
    let mut a = Asm::new(BASE);
    let cell = a.label();
    a.la(S0, cell);
    a.li(T0, 41);
    a.sd(T0, 0, S0);
    // LR/SC increment loop: retry until the SC succeeds.
    let retry = a.bound_label();
    a.lr_d(T1, S0);
    a.addi(T1, T1, 1);
    a.sc_d(T2, T1, S0);
    a.bnez(T2, retry);
    // AMOs over the same cell; rd gets the old value each time.
    a.li(T3, 100);
    a.amoadd_d(T4, T3, S0); // old=42, cell=142
    a.li(T3, -1);
    a.amoadd_w(T5, T3, S0); // W-width wrap, old=142 sext
    a.li(T3, 7);
    a.amoswap_w(T6, T3, S0); // old=141 sext, cell low word = 7
    a.ld(S1, 0, S0);
    a.add(A0, T4, T5);
    a.add(A0, A0, T6);
    a.add(A0, A0, S1);
    a.ebreak();
    a.align(3);
    a.bind(cell);
    a.zeros(8);
    // Cross-check the AMO chain against the pure semantics: rd receives
    // the OLD value, amo_compute yields the NEW memory word.
    let splice = |cell: u64, word: u64| (cell & !0xffff_ffff) | (word & 0xffff_ffff);
    let t4 = 42u64; // old value seen by amoadd_d
    let cell1 = amo_compute(Op::AmoaddD, t4, 100);
    let t5 = riscv_isa::exec::load_extend(Op::Lw, cell1); // old word seen by amoadd_w
    let cell2 = splice(cell1, amo_compute(Op::AmoaddW, cell1, u64::MAX));
    let t6 = riscv_isa::exec::load_extend(Op::Lw, cell2); // old word seen by amoswap_w
    let cell3 = splice(cell2, amo_compute(Op::AmoswapW, cell2, 7));
    let expect = t4
        .wrapping_add(t5)
        .wrapping_add(t6)
        .wrapping_add(cell3);
    assert_eq!(conform(&a.assemble()), expect);
}

// ---------------------------------------------------------------------
// RV64F/D — SoftFloat vs host-float paths
// ---------------------------------------------------------------------

#[test]
fn rv64fd_arithmetic_agrees() {
    let mut a = Asm::new(BASE);
    a.li(T0, 3);
    a.fcvt_d_l(FT0, T0); // 3.0
    a.li(T0, 4);
    a.fcvt_d_l(FT1, T0); // 4.0
    a.fmul_d(FT2, FT0, FT0); // 9.0
    a.fmadd_d(FT2, FT1, FT1, FT2); // 9 + 16 = 25.0
    a.fsqrt_d(FT3, FT2); // 5.0
    a.fdiv_d(FT4, FT2, FT3); // 5.0
    a.fsub_d(FT5, FT4, FT3); // 0.0
    a.fadd_d(FT6, FT3, FT4); // 10.0
    a.fmin_d(FT7, FT3, FT6);
    a.fmax_d(FA0, FT3, FT6);
    a.feq_d(T1, FT3, FT4); // 1
    a.flt_d(T2, FT3, FT6); // 1
    a.fle_d(T3, FT6, FT3); // 0
    a.fcvt_l_d(T4, FA0); // 10
    a.fmv_x_d(T5, FT5); // bits of 0.0 = 0
    a.add(A0, T1, T2);
    a.add(A0, A0, T3);
    a.add(A0, A0, T4);
    a.add(A0, A0, T5);
    a.ebreak();
    assert_eq!(conform(&a.assemble()), 1 + 1 + 0 + 10 + 0);
}

// ---------------------------------------------------------------------
// Zba / Zbb
// ---------------------------------------------------------------------

#[test]
fn zba_zbb_bitmanip() {
    let mut a = Asm::new(BASE);
    a.li(T0, 0xf0f0_f0f0_1234_5678u64 as i64);
    a.li(T1, 0x1111);
    a.sh1add(T2, T0, T1);
    a.sh2add(T3, T0, T1);
    a.sh3add(T4, T0, T1);
    a.add_uw(T5, T0, T1);
    a.slli_uw(T6, T0, 4);
    a.andn(S0, T0, T1);
    a.orn(S1, T0, T1);
    a.xnor(S2, T0, T1);
    a.max(S3, T0, T1);
    a.min(S4, T0, T1);
    a.maxu(S5, T0, T1);
    a.minu(S6, T0, T1);
    a.rol(S7, T0, T1);
    a.ror(S8, T0, T1);
    a.rori(S9, T0, 17);
    a.clz(S10, T1);
    a.ctz(S11, T0);
    a.cpop(A1, T0);
    a.sext_b(A2, T0);
    a.sext_h(A3, T0);
    a.zext_h(A4, T0);
    a.orc_b(A5, T0);
    a.rev8(A6, T0);
    a.mv(A0, T2);
    for r in [
        T3, T4, T5, T6, S0, S1, S2, S3, S4, S5, S6, S7, S8, S9, S10, S11, A1, A2, A3, A4, A5, A6,
    ] {
        a.add(A0, A0, r);
    }
    a.ebreak();
    conform(&a.assemble());
}

// ---------------------------------------------------------------------
// RVC — compressed/uncompressed interleave
// ---------------------------------------------------------------------

#[test]
fn rvc_mixed_width_stream() {
    let mut a = Asm::new(BASE);
    a.c_li(T0, 31);
    a.c_addi(T0, -3); // 28
    a.c_nop();
    a.li(T1, 1000); // 32-bit sequence at a 2-byte-shifted offset
    a.c_mv(T2, T1);
    a.c_nop();
    a.add(A0, T0, T2); // 1028
    a.c_addi(A0, 4); // 1032
    a.ebreak();
    assert_eq!(conform(&a.assemble()), 1032);
}

// ---------------------------------------------------------------------
// Fast-path specializations: li/mv/ret/auipc shortcuts, x0 writes,
// block chaining
// ---------------------------------------------------------------------

#[test]
fn fastpath_li_constant_materialization() {
    // li expands differently per constant class (addi, lui+addiw,
    // recursive shift+add); each class exercises a distinct fast path.
    let consts: [i64; 8] = [
        0,
        2047,
        -2048,
        0x7fff_f000,
        i32::MIN as i64,
        0x0123_4567_89ab_cdef,
        i64::MIN,
        -1,
    ];
    let mut a = Asm::new(BASE);
    a.li(A0, 0);
    for (i, &c) in consts.iter().enumerate() {
        a.li(T0, c);
        // Mix position in so reordering bugs change the checksum.
        a.li(T1, i as i64 + 1);
        a.mul(T0, T0, T1);
        a.add(A0, A0, T0);
    }
    a.ebreak();
    let expect = consts
        .iter()
        .enumerate()
        .fold(0u64, |acc, (i, &c)| {
            acc.wrapping_add((c as u64).wrapping_mul(i as u64 + 1))
        });
    assert_eq!(conform(&a.assemble()), expect);
}

#[test]
fn fastpath_writes_to_x0_are_discarded() {
    let mut a = Asm::new(BASE);
    a.li(ZERO, 12345); // architectural nop
    a.addi(ZERO, ZERO, 77);
    a.add(ZERO, ZERO, ZERO);
    a.lui(ZERO, 0x7000_0000);
    let data = a.label();
    a.la(T0, data);
    a.ld(ZERO, 0, T0); // load to x0: access happens, write discarded
    a.auipc(ZERO, 0);
    a.mv(A0, ZERO); // must read 0
    a.addi(A0, A0, 9);
    a.ebreak();
    a.align(3);
    a.bind(data);
    a.data_u64(0xffff_ffff_ffff_ffff);
    assert_eq!(conform(&a.assemble()), 9);
}

#[test]
fn fastpath_block_chaining_tight_loops() {
    // Nested loops with shared blocks: the fast interpreter chains
    // translated blocks, so a stale-chain bug double-counts or skips.
    let mut a = Asm::new(BASE);
    a.li(A0, 0);
    a.li(T0, 0); // outer counter
    let outer = a.bound_label();
    a.li(T1, 0); // inner counter
    let inner = a.bound_label();
    a.add(A0, A0, T1);
    a.addi(T1, T1, 1);
    a.li(T2, 7);
    a.bltu(T1, T2, inner);
    a.addi(T0, T0, 1);
    a.li(T2, 11);
    a.bltu(T0, T2, outer);
    a.ebreak();
    assert_eq!(conform(&a.assemble()), 11 * (0..7u64).sum::<u64>());
}

#[test]
fn fastpath_ret_and_call_specialization() {
    // Alternating call/ret through two functions: exercises the
    // jalr-as-ret shortcut and return-address tracking.
    let mut a = Asm::new(BASE);
    let f1 = a.label();
    let f2 = a.label();
    let done = a.label();
    a.li(A0, 0);
    a.li(S0, 0);
    let loop_top = a.bound_label();
    a.call(f1);
    a.call(f2);
    a.addi(S0, S0, 1);
    a.li(T0, 5);
    a.bltu(S0, T0, loop_top);
    a.j(done);
    a.bind(f1);
    a.addi(A0, A0, 3);
    a.ret();
    a.bind(f2);
    a.addi(A0, A0, 4);
    a.ret();
    a.bind(done);
    a.ebreak();
    assert_eq!(conform(&a.assemble()), 5 * 7);
}

// ---------------------------------------------------------------------
// Pure tier: interpreters vs riscv_isa::exec in isolation
// ---------------------------------------------------------------------

#[test]
fn exec_int_compute_matrix() {
    type Emit = fn(&mut Asm, u8, u8, u8);
    let ops: [(Op, Emit); 30] = [
        (Op::Add, Asm::add),
        (Op::Sub, Asm::sub),
        (Op::Sll, Asm::sll),
        (Op::Slt, Asm::slt),
        (Op::Sltu, Asm::sltu),
        (Op::Xor, Asm::xor),
        (Op::Srl, Asm::srl),
        (Op::Sra, Asm::sra),
        (Op::Or, Asm::or),
        (Op::And, Asm::and),
        (Op::Addw, Asm::addw),
        (Op::Subw, Asm::subw),
        (Op::Sllw, Asm::sllw),
        (Op::Srlw, Asm::srlw),
        (Op::Sraw, Asm::sraw),
        (Op::Mul, Asm::mul),
        (Op::Mulh, Asm::mulh),
        (Op::Mulhu, Asm::mulhu),
        (Op::Mulhsu, Asm::mulhsu),
        (Op::Div, Asm::div),
        (Op::Divu, Asm::divu),
        (Op::Rem, Asm::rem),
        (Op::Remu, Asm::remu),
        (Op::Divw, Asm::divw),
        (Op::Remw, Asm::remw),
        (Op::Sh3add, Asm::sh3add),
        (Op::AddUw, Asm::add_uw),
        (Op::Andn, Asm::andn),
        (Op::Maxu, Asm::maxu),
        (Op::Ror, Asm::ror),
    ];
    // One program per op covering the whole operand matrix keeps the
    // test fast (5 engines x 30 programs, not x 30 x 64).
    for (op, emit) in ops {
        let mut a = Asm::new(BASE);
        let mut expect = 0u64;
        a.li(A0, 0);
        for &x in &OPERANDS {
            for &y in &OPERANDS {
                a.li(A1, x as i64);
                a.li(A2, y as i64);
                emit(&mut a, A3, A1, A2);
                a.add(A0, A0, A3);
                expect = expect.wrapping_add(
                    int_compute(op, x, y).unwrap_or_else(|| panic!("{op:?} not pure")),
                );
            }
        }
        a.ebreak();
        assert_eq!(conform(&a.assemble()), expect, "{op:?} matrix");
    }
}

/// The immediate forms against the same oracle, at the edges of the
/// 12-bit immediate and of the shift amounts (5 bits for the W forms).
/// `addi` with a zero immediate is the fast tiers' `mv`; each of these
/// ops is a handler of its own in `nemu` or `nemu-trace`, or both.
#[test]
fn exec_int_compute_imm_matrix() {
    type EmitI = fn(&mut Asm, u8, u8, i64);
    const IMMS: [i64; 5] = [-2048, -1, 0, 1, 2047];
    const SHAMTS: [i64; 5] = [0, 1, 31, 32, 63];
    const SHAMTS_W: [i64; 3] = [0, 1, 31];
    let ops: [(Op, EmitI, &[i64]); 13] = [
        (Op::Addi, Asm::addi, &IMMS),
        (Op::Slti, Asm::slti, &IMMS),
        (Op::Sltiu, Asm::sltiu, &IMMS),
        (Op::Xori, Asm::xori, &IMMS),
        (Op::Ori, Asm::ori, &IMMS),
        (Op::Andi, Asm::andi, &IMMS),
        (Op::Slli, Asm::slli, &SHAMTS),
        (Op::Srli, Asm::srli, &SHAMTS),
        (Op::Srai, Asm::srai, &SHAMTS),
        (Op::Addiw, Asm::addiw, &IMMS),
        (Op::Slliw, Asm::slliw, &SHAMTS_W),
        (Op::Srliw, Asm::srliw, &SHAMTS_W),
        (Op::Sraiw, Asm::sraiw, &SHAMTS_W),
    ];
    for (op, emit, imms) in ops {
        let mut a = Asm::new(BASE);
        let mut expect = 0u64;
        a.li(A0, 0);
        for &x in &OPERANDS {
            for &imm in imms {
                a.li(A1, x as i64);
                emit(&mut a, A3, A1, imm);
                a.add(A0, A0, A3);
                expect = expect.wrapping_add(
                    int_compute(op, x, imm as u64).unwrap_or_else(|| panic!("{op:?} not pure")),
                );
            }
        }
        a.ebreak();
        assert_eq!(conform(&a.assemble()), expect, "{op:?} matrix");
    }
}

#[test]
fn exec_branch_taken_matrix() {
    type EmitB = fn(&mut Asm, u8, u8, riscv_isa::asm::Label);
    let branches: [(Op, EmitB); 6] = [
        (Op::Beq, Asm::beq),
        (Op::Bne, Asm::bne),
        (Op::Blt, Asm::blt),
        (Op::Bge, Asm::bge),
        (Op::Bltu, Asm::bltu),
        (Op::Bgeu, Asm::bgeu),
    ];
    for (op, emit) in branches {
        let mut a = Asm::new(BASE);
        let mut expect = 0u64;
        a.li(A0, 0);
        for &x in &OPERANDS {
            for &y in &OPERANDS {
                a.li(A1, x as i64);
                a.li(A2, y as i64);
                let taken = a.label();
                let join = a.label();
                emit(&mut a, A1, A2, taken);
                a.j(join);
                a.bind(taken);
                a.addi(A0, A0, 1);
                a.bind(join);
                if branch_taken(op, x, y) {
                    expect += 1;
                }
            }
        }
        a.ebreak();
        assert_eq!(conform(&a.assemble()), expect, "{op:?} matrix");
    }
}

// ---------------------------------------------------------------------
// Trace-tier invalidation pins
//
// Each program is built so its *architectural result* changes if the
// superblock tier keeps a stale trace, chain link, or micro-TLB entry
// across the invalidation event. conform() then catches any divergence
// against the cache-free baselines, and a direct NemuTrace run asserts
// the invalidation machinery actually fired (rather than the test
// passing because nothing was ever cached).
// ---------------------------------------------------------------------

/// Sv39 leaf PTE: valid, readable, writable, executable, accessed,
/// dirty. A/D preset so the walker never writes PTEs mid-test.
const PTE_FLAGS: u64 = 0xcf;

#[test]
fn trace_pin_fence_i_invalidates_traces() {
    // A function is called, overwritten in memory with a template that
    // adds a different constant, then called twice more after fence.i.
    // A trace tier that keeps executing the memoized body returns 3
    // instead of 5.
    let mut a = Asm::new(BASE);
    let f = a.label();
    let template = a.label();
    let done = a.label();
    a.li(A0, 0);
    a.call(f); // +1
    a.la(T0, template);
    a.ld(T1, 0, T0); // addi a0,a0,2 ; ret  (8 bytes, both 32-bit)
    a.la(T2, f);
    a.sd(T1, 0, T2);
    a.fence_i();
    a.call(f); // +2
    a.call(f); // +2
    a.j(done);
    a.bind(f);
    a.addi(A0, A0, 1);
    a.ret();
    a.bind(template);
    a.addi(A0, A0, 2);
    a.ret();
    a.bind(done);
    a.ebreak();
    let p = a.assemble();
    assert_eq!(conform(&p), 5);
    let mut t = NemuTrace::new(&p);
    assert_eq!(t.run(FUEL).exit_code, Some(5));
    assert!(t.stats.flushes >= 1, "fence.i never flushed the trace tier");
}

#[test]
fn trace_pin_sfence_vma_invalidates_translations() {
    // Sv39 via mstatus.MPRV: a root table maps VA 0x4000_0000 to one
    // 1 GiB frame and identity-maps 0x8000_0000 so the page table
    // itself stays reachable. The PTE is rewritten in place to point at
    // a second frame, then sfence.vma. A stale load micro-TLB entry
    // returns 111 again instead of 222.
    let root: u64 = 0x8300_0000;
    let pte_lo = (0x8000_0000u64 >> 12) << 10 | PTE_FLAGS; // frame A
    let pte_hi = (0xc000_0000u64 >> 12) << 10 | PTE_FLAGS; // frame B
    let pte_id = (0x8000_0000u64 >> 12) << 10 | PTE_FLAGS; // identity
    let mut a = Asm::new(BASE);
    // Plant the two observable values (M-mode, still bare).
    a.li(T0, 111);
    a.li(T1, 0x8010_0000);
    a.sd(T0, 0, T1);
    a.li(T0, 222);
    a.li(T1, 0xc010_0000u64 as i64);
    a.sd(T0, 0, T1);
    // Root table: entry 1 (VA 0x4000_0000) -> frame A, entry 2 identity.
    a.li(T0, pte_lo as i64);
    a.li(T1, (root + 8) as i64);
    a.sd(T0, 0, T1);
    a.li(T0, pte_id as i64);
    a.li(T1, (root + 16) as i64);
    a.sd(T0, 0, T1);
    // satp = Sv39 @ root; mstatus.MPRV with MPP=S: data accesses now
    // translate while fetches stay M-mode bare.
    a.li(T0, ((8u64 << 60) | (root >> 12)) as i64);
    a.csrrw(ZERO, riscv_isa::csr::addr::SATP, T0);
    a.li(T0, ((1u64 << 17) | (1 << 11)) as i64);
    a.csrrs(ZERO, riscv_isa::csr::addr::MSTATUS, T0);
    a.li(S0, 0x4010_0000);
    a.ld(A0, 0, S0); // frame A: 111
    // Rewrite the PTE through the identity window, then fence.
    a.li(T0, pte_hi as i64);
    a.li(T1, (root + 8) as i64);
    a.sd(T0, 0, T1);
    a.sfence_vma(ZERO, ZERO);
    a.ld(A1, 0, S0); // frame B: 222
    a.add(A0, A0, A1);
    a.ebreak();
    let p = a.assemble();
    assert_eq!(conform(&p), 333);
    let mut t = NemuTrace::new(&p);
    assert_eq!(t.run(FUEL).exit_code, Some(333));
    assert!(t.stats.flushes >= 1, "sfence.vma never flushed");
}

#[test]
fn trace_pin_satp_rewrite_invalidates_micro_tlbs() {
    // Two root tables map the same VA to different frames; switching
    // satp between them (csrrw, no sfence) must drop the load micro-TLB
    // entry filled under the first root. This implementation treats a
    // satp write as a full address-space switch, like sfence.
    let r1: u64 = 0x8300_0000;
    let r2: u64 = 0x8300_1000;
    let pte_a = (0x8000_0000u64 >> 12) << 10 | PTE_FLAGS;
    let pte_b = (0xc000_0000u64 >> 12) << 10 | PTE_FLAGS;
    let mut a = Asm::new(BASE);
    a.li(T0, 111);
    a.li(T1, 0x8010_0000);
    a.sd(T0, 0, T1);
    a.li(T0, 222);
    a.li(T1, 0xc010_0000u64 as i64);
    a.sd(T0, 0, T1);
    a.li(T0, pte_a as i64);
    a.li(T1, (r1 + 8) as i64);
    a.sd(T0, 0, T1);
    a.li(T0, pte_b as i64);
    a.li(T1, (r2 + 8) as i64);
    a.sd(T0, 0, T1);
    a.li(T0, ((8u64 << 60) | (r1 >> 12)) as i64);
    a.csrrw(ZERO, riscv_isa::csr::addr::SATP, T0);
    a.li(T0, ((1u64 << 17) | (1 << 11)) as i64);
    a.csrrs(ZERO, riscv_isa::csr::addr::MSTATUS, T0);
    // Two loads per root: the first fills the load micro-TLB, the
    // second *hits* it, so a stale entry surviving the satp switch
    // changes the sum (555 instead of 666).
    a.li(S0, 0x4010_0000);
    a.ld(A0, 0, S0); // under r1: 111 (TLB fill)
    a.ld(A1, 0, S0); // under r1: 111 (TLB hit)
    a.li(T0, ((8u64 << 60) | (r2 >> 12)) as i64);
    a.csrrw(ZERO, riscv_isa::csr::addr::SATP, T0);
    a.ld(A2, 0, S0); // under r2: 222 (must re-walk, not hit stale)
    a.ld(A3, 0, S0); // under r2: 222 (TLB hit on the refilled entry)
    a.add(A0, A0, A1);
    a.add(A0, A0, A2);
    a.add(A0, A0, A3);
    a.ebreak();
    let p = a.assemble();
    assert_eq!(conform(&p), 666);
    let mut t = NemuTrace::new(&p);
    assert_eq!(t.run(FUEL).exit_code, Some(666));
    assert!(t.stats.flushes >= 1, "satp rewrite never flushed");
    assert!(t.stats.tlb_hits >= 1, "micro-TLBs never engaged");
}

#[test]
fn trace_pin_indirect_jump_retarget_repatches_chains() {
    // A loop calls through a function pointer that is retargeted midway.
    // The trace tier memoizes the jalr exit edge as a monomorphic inline
    // cache; a cache that skips re-validation keeps crediting the old
    // callee and returns 30 instead of 50.
    let mut a = Asm::new(BASE);
    let f1 = a.label();
    let f2 = a.label();
    let skip = a.label();
    let done = a.label();
    a.li(A0, 0);
    a.li(S0, 0);
    a.la(S1, f1);
    a.la(S2, f2);
    let loop_top = a.bound_label();
    a.jalr(RA, S1, 0);
    a.addi(S0, S0, 1);
    a.li(T0, 5);
    a.bne(S0, T0, skip);
    a.mv(S1, S2); // retarget the pointer after 5 calls
    a.bind(skip);
    a.li(T0, 10);
    a.bltu(S0, T0, loop_top);
    a.j(done);
    a.bind(f1);
    a.addi(A0, A0, 3);
    a.ret();
    a.bind(f2);
    a.addi(A0, A0, 7);
    a.ret();
    a.bind(done);
    a.ebreak();
    let p = a.assemble();
    assert_eq!(conform(&p), 5 * 3 + 5 * 7);
    let mut t = NemuTrace::new(&p);
    assert_eq!(t.run(FUEL).exit_code, Some(50));
    assert!(
        t.stats.links_patched >= 2,
        "indirect-edge inline cache never repatched: {:?}",
        t.stats
    );
}

#[test]
fn decode_caches_pin_mret_into_a_new_address_space() {
    // M-mode runs `f: addi a0,a0,1; ecall`. The handler copies `addi
    // a0,a0,2; ecall` to f's offset in frame 0xc000_0000, maps VA
    // 0x8000_0000 there with a 1 GiB Sv39 leaf and `mret`s to f in
    // S-mode; the S-mode ecall ends the run. Same virtual pc, other
    // instruction: a decode cache keyed by virtual pc that survives the
    // `mret` returns 2 instead of 3.
    let root: u64 = 0x8300_0000;
    let frame: u64 = 0xc000_0000;
    let pte = (frame >> 12) << 10 | PTE_FLAGS;
    let mut a = Asm::new(BASE);
    let (f, handler, second, template) = (a.label(), a.label(), a.label(), a.label());
    a.la(T0, handler);
    a.csrrw(ZERO, riscv_isa::csr::addr::MTVEC, T0);
    a.li(A0, 0);
    a.li(S1, 0);
    a.bind(f);
    a.addi(A0, A0, 1);
    a.ecall();
    a.align(2);
    a.bind(handler);
    a.bnez(S1, second);
    a.li(S1, 1);
    // Copy the template to f's offset in the frame.
    a.la(T0, template);
    a.la(T1, f);
    a.li(T2, (frame - BASE) as i64);
    a.add(T2, T2, T1);
    a.lw(T3, 0, T0);
    a.sw(T3, 0, T2);
    a.lw(T3, 4, T0);
    a.sw(T3, 4, T2);
    // Root entry 2 (VA 0x8000_0000) -> the frame; satp = Sv39 @ root.
    a.li(T0, pte as i64);
    a.li(T2, (root + 16) as i64);
    a.sd(T0, 0, T2);
    a.li(T0, ((8u64 << 60) | (root >> 12)) as i64);
    a.csrrw(ZERO, riscv_isa::csr::addr::SATP, T0);
    // MPP = S, mepc = f.
    a.li(T0, 3 << 11);
    a.csrrc(ZERO, riscv_isa::csr::addr::MSTATUS, T0);
    a.li(T0, 1 << 11);
    a.csrrs(ZERO, riscv_isa::csr::addr::MSTATUS, T0);
    a.csrrw(ZERO, riscv_isa::csr::addr::MEPC, T1);
    a.mret();
    a.bind(second);
    a.ebreak();
    a.align(2);
    a.bind(template);
    a.addi(A0, A0, 2);
    a.ecall();
    let p = a.assemble();
    assert_eq!(conform(&p), 3);
    for pers in PERSONALITIES {
        let mut e = (pers.build)(&p);
        for _ in 0..FUEL {
            if e.step_one().halted {
                break;
            }
        }
        assert_eq!(e.hart().halted, Some(3), "{}: step_one()", pers.name);
    }
}

// ---------------------------------------------------------------------
// RV64A — full AMO matrix and SC corner cases (the REF side of the
// multi-hart litmus oracle, pinned single-hart first)
// ---------------------------------------------------------------------

/// Encode an AMO/LR/SC instruction with explicit aq/rl bits (the asm
/// helpers only cover the relaxed forms).
fn amo32(funct5: u32, aq: bool, rl: bool, width_d: bool, rd: u8, rs2: u8, rs1: u8) -> u32 {
    funct5 << 27
        | (aq as u32) << 26
        | (rl as u32) << 25
        | (rs2 as u32) << 20
        | (rs1 as u32) << 15
        | (if width_d { 0b011 } else { 0b010 }) << 12
        | (rd as u32) << 7
        | 0x2f
}

/// amoswap/amoadd/amoand/amoor/amomin/amomax × {w, d} × {aq, rl}
/// combinations, all personalities against the pure `amo_compute`
/// semantics: `rd` receives the old (width-extended) value, memory the
/// computed word.
#[test]
fn rv64a_amo_matrix_all_widths_aqrl() {
    const OPS: &[(u32, Op, Op)] = &[
        (0b00001, Op::AmoswapW, Op::AmoswapD),
        (0b00000, Op::AmoaddW, Op::AmoaddD),
        (0b01100, Op::AmoandW, Op::AmoandD),
        (0b01000, Op::AmoorW, Op::AmoorD),
        (0b10000, Op::AmominW, Op::AmominD),
        (0b10100, Op::AmomaxW, Op::AmomaxD),
    ];
    let splice = |cell: u64, word: u64| (cell & !0xffff_ffff) | (word & 0xffff_ffff);
    let mut a = Asm::new(BASE);
    let cell = a.label();
    a.la(S0, cell);
    let init = 0xfedc_ba98_7654_3210u64;
    a.li(T0, init as i64);
    a.sd(T0, 0, S0);
    a.li(A0, 0);
    let mut model_cell = init;
    let mut model_a0 = 0u64;
    let mut case = 0u64;
    for &(funct5, op_w, op_d) in OPS {
        for width_d in [false, true] {
            for (aq, rl) in [(false, false), (true, false), (false, true), (true, true)] {
                // Deterministic source value with sign-bit coverage in
                // both widths.
                case += 1;
                let src = 0x9e37_79b9_7f4a_7c15u64
                    .wrapping_mul(case)
                    .rotate_left((case % 61) as u32);
                a.li(T3, src as i64);
                a.raw32(amo32(funct5, aq, rl, width_d, T4, T3, S0));
                a.add(A0, A0, T4);
                let (old_rd, new_cell) = if width_d {
                    (model_cell, amo_compute(op_d, model_cell, src))
                } else {
                    (
                        riscv_isa::exec::load_extend(Op::Lw, model_cell),
                        splice(model_cell, amo_compute(op_w, model_cell, src)),
                    )
                };
                model_a0 = model_a0.wrapping_add(old_rd);
                model_cell = new_cell;
            }
        }
    }
    a.ld(S1, 0, S0);
    a.add(A0, A0, S1);
    a.ebreak();
    a.align(3);
    a.bind(cell);
    a.zeros(8);
    assert_eq!(conform(&a.assemble()), model_a0.wrapping_add(model_cell));
}

// ---------------------------------------------------------------------
// Checkpoint restore (paper Fig. 9): the ISA-level restore loader is
// interpreter-agnostic
// ---------------------------------------------------------------------

/// A checkpoint restored through `Checkpoint::restore_loader` — base-ISA
/// instructions only, no debug mode — must behave identically on every
/// registered personality: each one boots the loader over the checkpoint
/// image, lands on the checkpointed pc, and after one further profiling
/// interval of execution agrees on (pc, gprs, fprs, instructions) both
/// mutually and with a raw NEMU hart that ran the workload from the
/// beginning. This pins the whole sampling premise: a checkpoint is the
/// program, not an artifact of the engine that produced it.
#[test]
fn checkpoint_restore_conforms_across_personalities() {
    use nemu::hart::{self, Hart};

    let interval_len: u64 = 5_000;
    let program = workloads::workload("mcf", workloads::Scale::Test).program;
    let set =
        checkpoint::generate_checkpoints_with_ref("nemu-trace", &program, interval_len, 3, 50_000_000);
    // A mid-run checkpoint: live GPRs/FPRs/CSRs, and at least one full
    // interval of execution still ahead of it.
    let c = set
        .checkpoints
        .iter()
        .filter(|c| (c.interval as u64) + 1 < set.total_intervals)
        .max_by_key(|c| c.interval)
        .expect("a mid-run checkpoint exists");
    assert!(c.instret > 0, "checkpoint must not be the reset state");

    // Reference continuation: a raw hart stepped from program start for
    // instret + interval_len instructions.
    let mut ref_mem = riscv_isa::mem::SparseMemory::new();
    program.load_into(&mut ref_mem);
    let mut ref_hart = Hart::new(program.entry, 0);
    while ref_hart.instret < c.instret + interval_len && !ref_hart.is_halted() {
        hart::step(&mut ref_hart, &mut ref_mem);
    }
    let ref_executed = ref_hart.instret - c.instret;

    let loader = c.restore_loader();
    for pers in PERSONALITIES {
        let mut e = (pers.build)(&loader);
        // The restored address space: the checkpoint image with the
        // loader (code + fpr staging table) planted beside it.
        let mut mem = c.memory.clone();
        loader.load_into(&mut mem);
        *e.mem_mut() = mem;
        // Phase 1: the loader rebuilds the state and mrets to the pc.
        let mut fuel = 100_000u64;
        while e.hart().state.pc != c.state.pc {
            assert!(fuel > 0, "{}: loader never reached the pc", pers.name);
            assert!(!e.hart().is_halted(), "{}: loader halted early", pers.name);
            e.step_one();
            fuel -= 1;
        }
        assert_eq!(e.hart().state.gpr, c.state.gpr, "{}: restored gprs", pers.name);
        assert_eq!(e.hart().state.fpr, c.state.fpr, "{}: restored fprs", pers.name);
        // Phase 2: one profiling interval of real workload execution.
        let base = e.hart().instret;
        while e.hart().instret - base < interval_len && !e.hart().is_halted() {
            e.step_one();
        }
        assert_eq!(
            e.hart().instret - base,
            ref_executed,
            "{}: executed a different interval",
            pers.name
        );
        assert_eq!(e.hart().state.pc, ref_hart.state.pc, "{}: pc after interval", pers.name);
        assert_eq!(e.hart().state.gpr, ref_hart.state.gpr, "{}: gprs after interval", pers.name);
        assert_eq!(e.hart().state.fpr, ref_hart.state.fpr, "{}: fprs after interval", pers.name);
    }
}

/// SC without a prior LR fails; SC to a different reservation granule
/// than the LR fails and leaves memory intact; a failed SC consumes the
/// reservation, so the next LR/SC pair (with aq/rl set) succeeds.
#[test]
fn rv64a_sc_corner_cases() {
    let mut a = Asm::new(BASE);
    let cell_a = a.label();
    let cell_b = a.label();
    a.la(S0, cell_a);
    a.la(S1, cell_b);
    a.li(T0, 0x11);
    a.sd(T0, 0, S0);
    a.li(T0, 0x22);
    a.sd(T0, 0, S1);
    a.li(T1, 0x99);
    // SC with no reservation at all: both widths fail.
    a.sc_d(T2, T1, S0); // t2 = 1
    a.sc_w(T3, T1, S0); // t3 = 1
    // LR cell A, SC cell B (a different 64-byte granule): fails, and
    // cell B keeps its value.
    a.lr_d(T4, S0); // t4 = 0x11
    a.sc_d(T5, T1, S1); // t5 = 1
    // The failed SC consumed the reservation; a fresh LR.aq/SC.rl pair
    // (raw-encoded — the helpers are relaxed-only) succeeds.
    a.raw32(amo32(0b00010, true, false, true, T6, ZERO, S0)); // lr.d.aq t6 = 0x11
    a.addi(T6, T6, 1);
    a.raw32(amo32(0b00011, false, true, true, S2, T6, S0)); // sc.d.rl s2 = 0
    a.ld(S3, 0, S0); // 0x12
    a.ld(S4, 0, S1); // 0x22 (unharmed by the wrong-granule SC)
    a.add(A0, T2, T3);
    a.add(A0, A0, T5);
    a.slli(S2, S2, 4); // any successful-SC drift lands loudly in a0
    a.add(A0, A0, S2);
    a.add(A0, A0, T4);
    a.add(A0, A0, S3);
    a.add(A0, A0, S4);
    a.ebreak();
    a.align(3);
    a.bind(cell_a);
    a.zeros(64);
    a.bind(cell_b);
    a.zeros(8);
    assert_eq!(conform(&a.assemble()), 1 + 1 + 1 + 0x11 + 0x12 + 0x22);
}

// ---------------------------------------------------------------------
// Zicsr, across the CSR table
// ---------------------------------------------------------------------

#[test]
fn csr_table_walk_conforms() {
    conform(&common::csr_table_walk());
}

// ---------------------------------------------------------------------
// DiffTest's default REF against the cache-free `arch` stepper
// ---------------------------------------------------------------------

/// Which REF DiffTest steps is invisible to results: every golden kernel
/// on every single-hart preset, a two-hart litmus job and a torture job
/// per injected-bug arm produce the same job record — verdict (the
/// divergence, for the bugs), cycles, commits checked, instret, rule
/// applications, replay commit and perf snapshot — under the default REF
/// and under `--ref arch`.
#[test]
fn the_default_ref_is_invisible_to_results() {
    use campaign::{Campaign, JobSpec, Verdict, WorkloadSource};
    use xscore::InjectedBug;

    let mut jobs = Vec::new();
    for config in ["yqh", "nh", "small-nh", "small-yqh"] {
        for kernel in ["sjeng", "hmmer", "mcf", "libquantum"] {
            jobs.push(JobSpec::new(WorkloadSource::kernel(kernel), config));
        }
    }
    let litmus = WorkloadSource::litmus(3, workloads::LitmusConfig::default());
    jobs.push(JobSpec::new(litmus, "small-nh").with_cores(2));
    // Listing the arms through a match makes a new one fail to compile
    // until it is added here.
    let bugs = [InjectedBug::MulLowBit, InjectedBug::AddwNoSext].map(|bug| match bug {
        InjectedBug::MulLowBit | InjectedBug::AddwNoSext => bug,
    });
    for bug in bugs {
        // Seed 4 retires a `mul` and an `addw` whose result needs the
        // sign extension, so either bug corrupts a writeback.
        let torture = WorkloadSource::torture(4, workloads::TortureConfig::default());
        let spec = JobSpec::new(torture, "small-nh").with_injected_bug(bug);
        jobs.push(spec.with_lightsss(2_000));
    }
    let run = |ref_model: Option<&str>| {
        let specs = jobs.iter().map(|s| match ref_model {
            Some(r) => s.clone().with_ref(r),
            None => s.clone(),
        });
        let campaign = Campaign::new(specs.collect()).with_workers(2);
        campaign.with_minimization(false).with_triage(false).run().jobs
    };
    let (default, arch) = (run(None), run(Some(minjie::ARCH_REF_NAME)));
    for (d, a) in default.iter().zip(&arch) {
        let label = format!("{} on {}", d.workload, d.config);
        assert_eq!(
            serde_json::to_string(d).expect("records serialize"),
            serde_json::to_string(a).expect("records serialize"),
            "{label}: the default REF and `arch` disagree"
        );
    }
    let verdicts: Vec<_> = default.iter().map(|j| &j.verdict).collect();
    let (clean, caught) = verdicts.split_at(verdicts.len() - bugs.len());
    assert!(clean.iter().all(|v| matches!(v, Verdict::Halted { .. })), "{clean:?}");
    assert!(caught.iter().all(|v| matches!(v, Verdict::Diverged { .. })), "{caught:?}");
    for j in &default[default.len() - bugs.len()..] {
        let replay = j.replay.as_ref().expect("a divergence under LightSSS replays");
        assert!(replay.reproduced && replay.at_commit > 0, "{replay:?}");
    }
}
