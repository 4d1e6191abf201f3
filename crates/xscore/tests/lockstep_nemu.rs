//! Commit-stream equivalence between the xscore cycle model (DUT) and the
//! NEMU architectural executor (REF) — the raw material DiffTest builds
//! on. Every committed (pc, writeback) pair must match instruction for
//! instruction.

use nemu::{hart, Hart};
use riscv_isa::asm::{reg::*, Asm};
use riscv_isa::mem::SparseMemory;
use xscore::{XsConfig, XsSystem};

fn small_cfg() -> XsConfig {
    let mut c = XsConfig::nh();
    c.l1i = uncore::CacheConfig::new("l1i", 8192, 2, 2, 4);
    c.l1d = uncore::CacheConfig::new("l1d", 8192, 2, 4, 8);
    c.l2 = uncore::CacheConfig::new("l2", 32768, 4, 10, 8);
    c.l3 = Some(uncore::CacheConfig::new("l3", 131072, 4, 20, 16));
    c.memory = xscore::MemoryModel::FixedAmat(40);
    c
}

/// Run DUT and REF in lockstep over the commit stream.
fn lockstep(program: &riscv_isa::asm::Program, max_cycles: u64) -> (u64, u64) {
    let mut sys = XsSystem::new(small_cfg(), program);
    let mut mem = SparseMemory::new();
    program.load_into(&mut mem);
    let mut ref_hart = Hart::new(program.entry, 0);
    let mut compared = 0u64;
    for _ in 0..max_cycles {
        if sys.all_halted() {
            break;
        }
        let outs = sys.tick();
        for commit in &outs[0].commits {
            let mut info = hart::step(&mut ref_hart, &mut mem);
            assert_eq!(
                info.pc, commit.pc,
                "pc diverged after {compared} commits (dut inst {:?})",
                commit.inst.op
            );
            compared += 1;
            // Macro-fusion diff-rule: the DUT commits the pair as one
            // event, so the REF steps twice and the *final* writeback is
            // compared (paper §III-B2c).
            if commit.fused.is_some() {
                info = hart::step(&mut ref_hart, &mut mem);
                compared += 1;
            }
            if let Some((dut_fp, dut_rd, dut_v)) = commit.wb {
                let (ref_fp, ref_rd, ref_v) =
                    info.wb.unwrap_or_else(|| panic!("REF no wb at {:#x}", info.pc));
                assert_eq!((dut_fp, dut_rd), (ref_fp, ref_rd), "wb reg at {:#x}", info.pc);
                assert_eq!(dut_v, ref_v, "wb value at {:#x} ({:?})", info.pc, commit.inst.op);
            }
        }
    }
    assert!(sys.all_halted(), "DUT did not halt");
    assert_eq!(
        sys.cores[0].halted,
        ref_hart.halted,
        "exit codes differ"
    );
    (compared, sys.cores[0].perf.cycles)
}

#[test]
fn lockstep_branchy_hash_kernel() {
    let mut a = Asm::new(0x8000_0000);
    a.li(S0, 0); // i
    a.li(S1, 3000); // n
    a.li(A0, 0); // acc
    a.li(S2, 0x9e3779b97f4a7c15u64 as i64);
    let top = a.bound_label();
    let skip = a.label();
    a.mul(T0, S0, S2);
    a.srli(T1, T0, 29);
    a.andi(T1, T1, 7);
    a.beqz(T1, skip);
    a.xor(A0, A0, T0);
    a.bind(skip);
    a.rol(A0, A0, T1);
    a.addi(S0, S0, 1);
    a.bne(S0, S1, top);
    a.andi(A0, A0, 0xff);
    a.ebreak();
    let p = a.assemble();
    let (compared, _) = lockstep(&p, 2_000_000);
    assert!(compared > 10_000);
}

#[test]
fn lockstep_memory_kernel() {
    let mut a = Asm::new(0x8000_0000);
    // Fill an array, then pointer-walk it with dependent loads and
    // read-modify-write stores.
    a.li(S0, 0x8002_0000); // base
    a.li(T0, 0);
    a.li(T1, 256);
    let fill = a.bound_label();
    a.slli(T2, T0, 3);
    a.add(T2, T2, S0);
    a.mul(T3, T0, T0);
    a.sd(T3, 0, T2);
    a.addi(T0, T0, 1);
    a.bne(T0, T1, fill);
    // Walk.
    a.li(A0, 0);
    a.li(T0, 0);
    let walk = a.bound_label();
    a.slli(T2, T0, 3);
    a.add(T2, T2, S0);
    a.ld(T3, 0, T2);
    a.add(A0, A0, T3);
    a.andi(T4, T3, 0x7f8);
    a.add(T5, S0, T4);
    a.ld(T6, 0, T5); // dependent load
    a.xor(A0, A0, T6);
    a.sd(A0, 0, T2); // rmw store
    a.addi(T0, T0, 2);
    a.li(T6, 256);
    a.blt(T0, T6, walk);
    a.andi(A0, A0, -1); // meant 0xffff; a 12-bit immediate holds only -1
    a.ebreak();
    let p = a.assemble();
    let (compared, _) = lockstep(&p, 2_000_000);
    assert!(compared > 1_000);
}

#[test]
fn lockstep_call_tree_kernel() {
    // Recursive-ish call pattern exercising RAS and stack memory.
    let mut a = Asm::new(0x8000_0000);
    let fib = a.label();
    let done = a.label();
    a.li(SP, 0x8008_0000);
    a.li(A0, 13);
    a.call(fib);
    a.j(done);
    // fib(n): naive recursion
    a.bind(fib);
    let base = a.label();
    let rec = a.label();
    a.li(T0, 2);
    a.blt(A0, T0, base);
    a.j(rec);
    a.bind(base);
    a.ret();
    a.bind(rec);
    a.addi(SP, SP, -24);
    a.sd(RA, 0, SP);
    a.sd(A0, 8, SP);
    a.addi(A0, A0, -1);
    a.call(fib);
    a.sd(A0, 16, SP);
    a.ld(A0, 8, SP);
    a.addi(A0, A0, -2);
    a.call(fib);
    a.ld(T1, 16, SP);
    a.add(A0, A0, T1);
    a.ld(RA, 0, SP);
    a.addi(SP, SP, 24);
    a.ret();
    a.bind(done);
    a.ebreak();
    let p = a.assemble();
    let (compared, _) = lockstep(&p, 4_000_000);
    assert!(compared > 2_000);
}

#[test]
fn lockstep_fp_kernel() {
    let mut a = Asm::new(0x8000_0000);
    a.li(T0, 1);
    a.fcvt_d_l(FT0, T0); // 1.0
    a.li(T0, 3);
    a.fcvt_d_l(FT1, T0); // 3.0
    a.fmv_d_x(FT2, ZERO); // acc = 0
    a.fdiv_d(FT3, FT0, FT1); // 1/3
    a.li(S0, 500);
    let top = a.bound_label();
    a.fmadd_d(FT2, FT3, FT1, FT2); // acc += 1
    a.fsub_d(FT4, FT2, FT0);
    a.fmax_d(FT2, FT2, FT4);
    a.addi(S0, S0, -1);
    a.bnez(S0, top);
    a.fcvt_l_d(A0, FT2);
    a.ebreak();
    let p = a.assemble();
    lockstep(&p, 2_000_000);
}

#[test]
fn yqh_and_nh_both_run() {
    let mut a = Asm::new(0x8000_0000);
    a.li(T0, 0);
    a.li(T1, 2000);
    a.li(T2, 0);
    let top = a.bound_label();
    a.add(T2, T2, T0);
    a.xor(T3, T2, T0);
    a.and(T2, T2, T3);
    a.addi(T0, T0, 1);
    a.bne(T0, T1, top);
    a.mv(A0, T2);
    a.ebreak();
    let p = a.assemble();

    let mut yqh = XsSystem::new(XsConfig::yqh(), &p);
    let mut nh = XsSystem::new(XsConfig::nh(), &p);
    let cy = yqh.run(5_000_000);
    let cn = nh.run(5_000_000);
    assert_eq!(cy, cn, "same architectural result");
    let ipc_y = yqh.cores[0].perf.ipc();
    let ipc_n = nh.cores[0].perf.ipc();
    assert!(ipc_y > 0.3, "YQH ipc {ipc_y}");
    assert!(ipc_n > 0.3, "NH ipc {ipc_n}");
}
