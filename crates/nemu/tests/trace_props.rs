//! Property tier for the superblock trace interpreter and the stepping
//! contract.
//!
//! [`NemuTrace`] is the most aggressive specialization in the crate —
//! memoized superblocks, chained exits, micro-TLBs — so it gets its own
//! differential oracle: for random torture recipes it must match the
//! plain decode-and-execute [`DromajoLike`] interpreter commit for
//! commit (pc, every register write, instret), not just at the final
//! state. Chunked execution keeps the comparison granular while still
//! letting traces form, chain, and flush mid-property.

//!
//! The second half pins the stepping contract every tier shares
//! ([`Interpreter::step_one`] + [`Interpreter::run_until`]): every
//! personality's own `step_one()` must report `hart::step`'s
//! [`StepInfo`] stream field for field, and every personality's
//! block-granular stream must be the one [`CommitSink`]'s rule derives
//! from it.

use nemu::hart::{self, Hart};
use nemu::{CommitSink, DromajoLike, Granularity, Interpreter, NemuTrace, RunResult, StepInfo};
use proptest::prelude::*;
use riscv_isa::asm::{reg::*, Asm, Program};
use riscv_isa::csr::{addr as csr, mstatus};
use riscv_isa::mem::{SparseMemory, MTIME, UART_TX};
use riscv_isa::op::{DecodedInst, Op};
use riscv_isa::trap::{Exception, Trap};
use workloads::{random_program, TortureConfig};

const FUEL: u64 = 5_000_000;

fn torture_cfg() -> TortureConfig {
    TortureConfig {
        body_len: 40,
        iterations: 20,
        ..Default::default()
    }
}

/// Assert the two harts expose identical architectural state.
fn assert_state_eq(t: &NemuTrace, d: &DromajoLike, ctx: &str) {
    assert_eq!(t.hart().state.pc, d.hart().state.pc, "{ctx}: pc");
    assert_eq!(t.hart().instret, d.hart().instret, "{ctx}: instret");
    assert_eq!(t.hart().state.gpr, d.hart().state.gpr, "{ctx}: gpr file");
    assert_eq!(t.hart().state.fpr, d.hart().state.fpr, "{ctx}: fpr file");
    assert_eq!(t.hart().halted, d.hart().halted, "{ctx}: halt state");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Final state agreement on whole random programs: exit code, pc,
    /// register files, and retired-instruction count all match the
    /// reference interpreter exactly.
    #[test]
    fn trace_matches_interp_on_torture(seed in 0u64..10_000) {
        let p = random_program(seed, &torture_cfg());
        let mut d = DromajoLike::new(&p);
        let rd = d.run(FUEL);
        prop_assert!(rd.exit_code.is_some(), "seed {} did not halt", seed);
        let mut t = NemuTrace::new(&p);
        let rt = t.run(FUEL);
        prop_assert_eq!(rd.exit_code, rt.exit_code);
        prop_assert_eq!(rd.instructions, rt.instructions);
        assert_state_eq(&t, &d, "final");
    }

    /// Commit-for-commit agreement: the trace tier is advanced in small
    /// irregular fuel chunks (forcing mid-trace fuel exits and resumes)
    /// while the reference advances by exactly the same number of
    /// retires; architectural state must agree at every boundary. A
    /// wrong pc on a chained exit, a stale micro-TLB entry, or a
    /// misplaced instret adjustment on a sentinel shows up at the first
    /// chunk boundary after the bug, pinning it to a ~7-instruction
    /// window.
    #[test]
    fn trace_commits_match_interp_chunkwise(seed in 0u64..5_000, chunk in 1u64..8) {
        let p = random_program(seed, &torture_cfg());
        let mut t = NemuTrace::new(&p);
        let mut d = DromajoLike::new(&p);
        let mut total = 0u64;
        while !t.hart().is_halted() && total < FUEL {
            let rt = t.run(chunk);
            // Advance the reference by the same number of *retires*; a
            // trap entry retires nothing but redirects pc, which the
            // state compare below still checks.
            let rd = d.run(rt.instructions.max(1));
            prop_assert_eq!(rt.instructions, rd.instructions);
            assert_state_eq(&t, &d, "chunk boundary");
            total += chunk;
        }
        prop_assert!(t.hart().is_halted(), "seed {} did not halt", seed);
    }

    /// A tiny trace buffer (forcing repeated buffer-full flushes and
    /// rebuilds mid-program) must not change a single architectural
    /// result.
    #[test]
    fn buffer_full_flushes_preserve_semantics(seed in 0u64..5_000) {
        let p = random_program(seed, &torture_cfg());
        let mut d = DromajoLike::new(&p);
        let rd = d.run(FUEL);
        prop_assert!(rd.exit_code.is_some(), "seed {} did not halt", seed);
        // 300 slots is barely more than one max-length superblock, so
        // any program needing more than ~43 uops of trace recycles the
        // whole buffer every few fills. (Flush *occurrence* is pinned by
        // the deterministic capacity test in trace.rs; tiny programs may
        // legitimately fit without flushing.)
        let mut t = NemuTrace::with_capacity(&p, 300);
        let rt = t.run(FUEL);
        prop_assert_eq!(rd.exit_code, rt.exit_code);
        prop_assert_eq!(rd.instructions, rt.instructions);
        assert_state_eq(&t, &d, "final (capacity 300)");
    }

    /// Trace construction is deterministic: two runs of the same seed
    /// build the same traces in the same order and take the same
    /// fast/slow paths, instrumentation included.
    #[test]
    fn trace_construction_is_deterministic(seed in 0u64..5_000) {
        let p = random_program(seed, &torture_cfg());
        let mut a = NemuTrace::new(&p);
        let mut b = NemuTrace::new(&p);
        let ra = a.run(FUEL);
        let rb = b.run(FUEL);
        prop_assert_eq!(ra.exit_code, rb.exit_code);
        prop_assert_eq!(ra.instructions, rb.instructions);
        prop_assert_eq!(a.stats, b.stats);
        prop_assert_eq!(a.hart().state.pc, b.hart().state.pc);
        prop_assert_eq!(&a.hart().state.gpr, &b.hart().state.gpr);
    }
}

// ---------------------------------------------------------------------
// The stepping contract: step_one + run_until.
// ---------------------------------------------------------------------

/// What torture programs never do: FP loads/stores/FMA, CSR
/// read-modify-writes and counter reads, `ecall` traps through an
/// `mtvec` handler that returns with `mret`, RVC, and code that patches
/// itself behind a `fence.i` — all in one loop whose trip count and
/// constants come from `seed`.
fn system_program(seed: u64) -> Program {
    let addi_a0 = |imm: i64| {
        riscv_isa::encode::encode(&DecodedInst {
            op: Op::Addi,
            rd: A0,
            rs1: A0,
            imm,
            ..Default::default()
        })
        .expect("addi encodes")
    };
    let mut a = Asm::new(0x8000_0000);
    let (handler, site, variants) = (a.label(), a.label(), a.label());
    a.la(T0, handler);
    a.csrrw(ZERO, csr::MTVEC, T0);
    a.li(S0, 3 + (seed % 5) as i64);
    a.li(S1, (seed as i64 % 1000) + 2);
    a.li(S2, 0x8004_0000);
    a.li(A0, 0);
    let top = a.bound_label();
    // Floating point through memory.
    a.fcvt_d_l(FT0, S1);
    a.fsd(FT0, 8, S2);
    a.fld(FT1, 8, S2);
    a.fmadd_d(FT2, FT0, FT1, FT2);
    a.fcvt_l_d(T1, FT2);
    a.add(A0, A0, T1);
    // CSR traffic, counters included: a tier that credits `mcycle` or
    // `minstret` differently from `hart::step` shows in t4/t5.
    a.csrrw(T2, csr::MSCRATCH, S1);
    a.csrrs(T3, csr::MSCRATCH, ZERO);
    a.csrrs(T4, csr::MCYCLE, ZERO);
    a.csrrs(T5, csr::MINSTRET, ZERO);
    a.csrrs(T6, csr::FCSR, ZERO);
    a.xor(A0, A0, T3);
    a.add(A0, A0, T6);
    // A trap and its return.
    a.ecall();
    // Run the instruction at `site` (so it is cached), rewrite it,
    // alternating between two encodings, make that visible with fence.i
    // and run it again: no trap in between flushes anything by accident.
    a.call(site);
    a.la(T0, site);
    a.la(T1, variants);
    a.andi(T2, S0, 1);
    a.slli(T2, T2, 2);
    a.add(T1, T1, T2);
    a.lw(T2, 0, T1);
    a.sw(T2, 0, T0);
    a.fence_i();
    a.call(site);
    // RVC, leaving the rest of the loop 2-byte aligned.
    a.c_addi(A0, 3);
    a.c_mv(T1, A0);
    a.c_nop();
    a.addi(S0, S0, -1);
    a.bnez(S0, top);
    a.ebreak();
    a.bind(site);
    a.addi(A0, A0, 1);
    a.ret();
    a.align(2); // mtvec's low bits are its mode
    a.bind(handler);
    a.csrrs(T0, csr::MEPC, ZERO);
    a.addi(T0, T0, 4);
    a.csrrw(ZERO, csr::MEPC, T0);
    a.mret();
    a.align(2);
    a.bind(variants);
    a.data_u32(addi_a0(5 + (seed % 7) as i64));
    a.data_u32(addi_a0(-3));
    a.assemble()
}

/// What the caching tiers' per-op arms special-case or decline, each
/// beside what `hart::step` does with it: `MTIME` read at every load
/// width (only 8-byte loads answer `time`), `UART_TX` written at every
/// store width, integer and FP, accesses that straddle a page, loads, ALU
/// ops, `jal` and an FP op with rd = x0, an FP op and the FP loads,
/// stores and moves with `mstatus.FS` off, dynamic-`rm` ops under each
/// `frm` (5–7 trap) and a static `rm` of 5 (illegal), a taken branch into
/// another trace and back, and one non-`ret` `jalr` sent to two targets
/// in turn (every trap flushes the caching tiers, so the two visits share
/// no trap) — in a loop whose trip count and values come from `seed`.
/// Every trap returns past its (4-byte) instruction.
fn edge_program(seed: u64) -> Program {
    let word = |d: DecodedInst| riscv_isa::encode::encode(&d).expect("the word encodes");
    let fp = |op, rd, rs1, rs2, rm| DecodedInst {
        op,
        rd,
        rs1,
        rs2,
        rm,
        ..Default::default()
    };
    let mut a = Asm::new(0x8000_0000);
    let (handler, away, back) = (a.label(), a.label(), a.label());
    let (targets, joined) = (a.label(), a.label());
    a.la(T0, handler);
    a.csrrw(ZERO, csr::MTVEC, T0);
    a.li(S0, 2 + (seed % 3) as i64);
    a.li(S1, (seed as i64 % 997) + 3);
    a.li(S2, 0x8004_0ffc); // 8 bytes from here cross a page
    a.li(S3, MTIME as i64);
    a.li(S4, UART_TX as i64);
    a.li(S5, mstatus::FS as i64);
    // 1 + 2^-24 + 2^-40: rounding it to a single shows the mode.
    a.li(
        T0,
        (1.0f64 + 2f64.powi(-24) + 2f64.powi(-40)).to_bits() as i64,
    );
    a.fmv_d_x(FS0, T0);
    a.li(A0, 0);
    let top = a.bound_label();
    // MTIME at every load width.
    a.ld(T1, 0, S3);
    a.fld(FT3, 0, S3);
    a.lw(T2, 0, S3);
    a.lh(T3, 0, S3);
    a.lb(T4, 0, S3);
    a.flw(FT4, 0, S3);
    // UART_TX at every store width.
    a.sb(S1, 0, S4);
    a.sh(S1, 0, S4);
    a.sw(S1, 0, S4);
    a.sd(S1, 0, S4);
    a.fsw(FS0, 0, S4);
    a.fsd(FS0, 0, S4);
    // Page-straddling stores and loads.
    a.sd(S1, 0, S2);
    a.sw(S0, 2, S2);
    a.ld(T5, 0, S2);
    a.lhu(T6, 3, S2);
    a.fsd(FS0, 0, S2);
    a.fld(FT5, 0, S2);
    a.add(A0, A0, T5);
    // rd = x0.
    a.ld(ZERO, 0, S2);
    a.lw(ZERO, 0, S3);
    a.add(ZERO, S1, S1);
    a.addi(ZERO, S1, 5);
    a.fcvt_l_d(ZERO, FS0);
    let next = a.label();
    a.jal(ZERO, next);
    a.bind(next);
    // Dynamic rounding under each `frm`, then a static rm of 5.
    for frm in 0..8 {
        a.csrrwi(ZERO, csr::FRM, frm);
        a.data_u32(word(fp(Op::FcvtSD, FT6, FS0, 0, 7)));
        a.data_u32(word(fp(Op::FaddD, FT7, FS0, FT5, 7)));
    }
    a.csrrwi(ZERO, csr::FRM, 0);
    a.data_u32(word(fp(Op::FaddD, FT7, FS0, FT5, 0)) | 5 << 12);
    a.fmv_x_d(T0, FT6);
    a.xor(A0, A0, T0);
    // FP with mstatus.FS off: the op, the loads, stores and moves trap.
    a.csrrc(ZERO, csr::MSTATUS, S5);
    a.data_u32(word(fp(Op::FaddD, FT7, FS0, FS0, 0)));
    a.flw(FT7, -8, S2);
    a.fld(FT7, -8, S2);
    a.fsw(FS0, -8, S2);
    a.fsd(FS0, -8, S2);
    a.fmv_x_d(T0, FS0);
    a.fmv_d_x(FT7, S1);
    a.csrrs(ZERO, csr::MSTATUS, S5);
    // One `jalr` (not a `ret`) taken twice with no trap between, to the
    // second target and then the first.
    a.li(T3, 2);
    let again = a.bound_label();
    a.la(T1, targets);
    a.andi(T2, T3, 1);
    a.slli(T2, T2, 3);
    a.add(T1, T1, T2);
    a.jalr(ZERO, T1, 0);
    a.bind(joined);
    a.addi(T3, T3, -1);
    a.blt(ZERO, T3, again);
    // A taken branch into another trace, and a jump back.
    a.bnez(S1, away);
    a.bind(back);
    a.addi(S0, S0, -1);
    a.bnez(S0, top);
    a.ebreak();
    a.bind(away);
    a.addi(A0, A0, 1);
    a.j(back);
    a.bind(targets);
    a.addi(A0, A0, 5);
    a.j(joined);
    a.xori(A0, A0, 9);
    a.j(joined);
    a.align(2); // mtvec's low bits are its mode
    a.bind(handler);
    a.csrrs(T0, csr::MEPC, ZERO);
    a.addi(T0, T0, 4);
    a.csrrw(ZERO, csr::MEPC, T0);
    a.mret();
    a.assemble()
}

/// `seed` picks the program: a torture body (with RVC sprinkled in for
/// one residue), the system program or the edge program.
fn contract_program(seed: u64) -> Program {
    match seed % 4 {
        0 => system_program(seed / 4),
        3 => edge_program(seed / 4),
        n => random_program(
            seed / 4,
            &TortureConfig {
                compressed: n == 2,
                ..torture_cfg()
            },
        ),
    }
}

fn assert_arch_eq(t: &Hart, r: &Hart, ctx: &str) {
    assert_eq!(
        t.state, r.state,
        "{ctx}: architectural state (CSRs included)"
    );
    assert_eq!(t.instret, r.instret, "{ctx}: instret");
    assert_eq!(t.halted, r.halted, "{ctx}: halt state");
    assert_eq!(t.reservation, r.reservation, "{ctx}: reservation");
}

/// Drive `tier` through `script` beside a bare `hart::step` reference:
/// `(0 | 1, k)` is `k` calls of `step_one()`, each compared field for
/// field; `(2, k)` is one `run(k)`; `(3, k)` patches a GPR from outside
/// and calls the tier's `resync`.
fn check_stepping(mut tier: Box<dyn Interpreter>, p: &Program, script: &[(u8, u64)]) {
    let (mut rh, mut rm): (Hart, SparseMemory) = nemu::boot(p);
    for (n, &(action, k)) in script.iter().enumerate() {
        let ctx = format!("{} action {n} = ({action}, {k})", tier.name());
        match action % 4 {
            2 => {
                let ran = tier.run(k);
                let before = rh.instret;
                for _ in 0..k {
                    if rh.is_halted() {
                        break;
                    }
                    hart::step(&mut rh, &mut rm);
                }
                assert_eq!(ran.instructions, rh.instret - before, "{ctx}: retires");
            }
            3 => {
                // a0..a5 never hold an address in either program family.
                let (rd, value) = (A0 + (k % 6) as u8, k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                tier.hart_mut().state.write_gpr(rd, value);
                tier.resync();
                rh.state.write_gpr(rd, value);
            }
            _ => {
                for i in 0..k {
                    let want = hart::step(&mut rh, &mut rm);
                    assert_eq!(*tier.step_one(), want, "{ctx}: step {i}");
                }
            }
        }
        assert_arch_eq(tier.hart(), &rh, &ctx);
    }
}

/// Collects a block-granular stream.
#[derive(Default)]
struct Blocks(Vec<(u64, u64)>);

impl CommitSink for Blocks {
    fn granularity(&self) -> Granularity {
        Granularity::Block
    }
    fn block(&mut self, pc: u64, len: u64) {
        self.0.push((pc, len));
    }
}

/// The block stream of one `run_until(fuel)` as today's rule derives it
/// from `hart::step`'s [`StepInfo`]s: a block ends at `ends_block()`
/// (control flow, system instruction, trap); what fuel cuts off is
/// reported as a block of its own.
fn derived_blocks(h: &mut Hart, m: &mut SparseMemory, fuel: u64) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let (mut pc, mut len) = (h.state.pc, 0);
    for _ in 0..fuel {
        if h.is_halted() {
            break;
        }
        let info: StepInfo = hart::step(h, m);
        len += 1;
        if info.ends_block() {
            out.push((pc, len));
            (pc, len) = (h.state.pc, 0);
        }
    }
    if len > 0 {
        out.push((pc, len));
    }
    out
}

/// Every registry personality, fed `fuels` in turn (cycled until halt),
/// must report exactly the derived block stream and land on the
/// reference's state at every fuel boundary.
fn check_blocks(p: &Program, fuels: &[u64]) {
    for pers in nemu::registry::PERSONALITIES {
        let mut tier = (pers.build)(p);
        let (mut rh, mut rm) = nemu::boot(p);
        for (n, &fuel) in fuels.iter().cycle().enumerate() {
            if rh.is_halted() {
                break;
            }
            let before = rh.instret;
            let want = derived_blocks(&mut rh, &mut rm, fuel);
            let mut got = Blocks::default();
            let ran: RunResult = tier.run_until(fuel, &mut got);
            let ctx = format!("{} chunk {n} (fuel {fuel})", pers.name);
            assert_eq!(got.0, want, "{ctx}: block stream");
            assert_eq!(ran.instructions, rh.instret - before, "{ctx}: retires");
            assert_eq!(ran.exit_code, rh.halted, "{ctx}: exit");
            assert_eq!(tier.hart().state.pc, rh.state.pc, "{ctx}: pc");
            assert_eq!(tier.hart().state.gpr, rh.state.gpr, "{ctx}: gpr file");
        }
        assert!(tier.hart().is_halted(), "{}: still running", pers.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) Every personality's own `step_one()` is `hart::step`, field
    /// for field — across cached-decode hits, fills, the flush events
    /// (`fence.i`, traps, `mret`), RVC, FP and counter reads — however it
    /// is interleaved with `run(k)` chunks (which switch the caching
    /// tiers to their shadow register file and back) and external GPR
    /// patches.
    #[test]
    fn step_one_streams_match_hart_step(
        seed in 0u64..30_000,
        script in prop::collection::vec((0u8..4, 1u64..60), 8..40),
    ) {
        let p = contract_program(seed);
        for pers in nemu::registry::PERSONALITIES {
            check_stepping((pers.build)(&p), &p, &script);
        }
    }

    /// (b) The block-granular stream of every personality is the one
    /// derived from the commit stream, for irregular fuel that cuts
    /// blocks (and traces) anywhere.
    #[test]
    fn block_streams_match_the_derived_rule(
        seed in 0u64..30_000,
        fuels in prop::collection::vec(1u64..90, 1..6),
    ) {
        check_blocks(&contract_program(seed), &fuels);
    }
}

/// The contract programs are only useful if they halt; the system
/// program only if it really traps, patches itself and touches FP; the
/// edge program only if every iteration takes its fourteen illegal-
/// instruction traps (`frm` 5–7 twice, static rm 5, seven FP instructions
/// with FS off), makes its eight MMIO accesses (two `time` reads, six
/// UART stores), straddles a page seven times, and its `jalr` reaches
/// both targets.
#[test]
fn contract_programs_halt_and_exercise_the_system_paths() {
    for seed in 0..80 {
        let p = contract_program(seed);
        let (mut h, mut m) = nemu::boot(&p);
        let (mut traps, mut fence_i, mut fp) = (0, 0, 0);
        let (mut illegal, mut mmio, mut straddles, mut branches) = (0, 0, 0, 0);
        let mut jalr_targets = std::collections::BTreeSet::new();
        for _ in 0..FUEL {
            if h.is_halted() {
                break;
            }
            let info = hart::step(&mut h, &mut m);
            traps += u64::from(info.trap.is_some());
            fence_i += u64::from(info.inst.op == Op::FenceI);
            fp += u64::from(matches!(info.wb, Some((true, _, _))));
            illegal += u64::from(matches!(
                info.trap,
                Some(Trap::Exception(Exception::IllegalInstruction, _))
            ));
            if let Some(a) = info.mem {
                mmio += u64::from(a.mmio);
                straddles += u64::from((a.vaddr & 0xfff) + a.size > 0x1000);
            }
            branches += u64::from(info.inst.op == Op::Bne);
            if info.inst.op == Op::Jalr {
                jalr_targets.insert(h.state.pc);
            }
        }
        assert!(h.is_halted(), "seed {seed} did not halt");
        match seed % 4 {
            0 => assert!(
                traps >= 3 && fence_i >= 3 && fp >= 3,
                "seed {seed}: {traps} {fence_i} {fp}"
            ),
            3 => {
                // Two `bnez` an iteration.
                let n = branches / 2;
                assert!(n >= 2, "seed {seed}: {n} iterations");
                assert_eq!(
                    (illegal, mmio, straddles, jalr_targets.len()),
                    (14 * n, 8 * n, 7 * n, 2),
                    "seed {seed}"
                );
            }
            _ => {}
        }
    }
}

/// A `resync` directly followed by a step, on every program family and
/// every personality: the step must see the patched register (a tier
/// that reads a shadow file, or a stale cursor, shows in the record).
#[test]
fn a_resync_is_followed_by_a_faithful_step() {
    let script = [
        (2, 9),
        (3, 1),
        (0, 1),
        (0, 4),
        (3, 2),
        (3, 5),
        (1, 1),
        (2, 40),
        (3, 4),
        (0, 30),
        (2, 3),
        (3, 0),
        (1, 2),
    ];
    for seed in 0..8 {
        let p = contract_program(seed);
        for pers in nemu::registry::PERSONALITIES {
            check_stepping((pers.build)(&p), &p, &script);
        }
    }
}

/// A long straight line overruns the uop cache's 64-uop trace cap (a
/// `Goto` sentinel continues it) and the superblock tier's 256-uop cap:
/// neither sentinel may end a block, add to one, or lose the partial
/// block when fuel runs out on top of it.
#[test]
fn block_stream_spans_trace_length_caps() {
    let mut a = Asm::new(0x8000_0000);
    for round in 0..3 {
        for _ in 0..(300 + round) {
            a.addi(T0, T0, 1);
        }
        let next = a.label();
        a.j(next);
        a.bind(next);
    }
    a.mv(A0, T0);
    a.ebreak();
    let p = a.assemble();
    for fuels in [&[1_000_000][..], &[64], &[63, 1, 65], &[256, 257], &[7]] {
        check_blocks(&p, fuels);
    }
}

/// A halted hart executes nothing: `step_one()` reports `halted`,
/// `run_until` reports no block and no commit.
#[test]
fn halted_hart_reports_nothing() {
    let mut a = Asm::new(0x8000_0000);
    a.li(A0, 7);
    a.ebreak();
    let p = a.assemble();
    for pers in nemu::registry::PERSONALITIES {
        let mut tier = (pers.build)(&p);
        assert_eq!(tier.run(100).exit_code, Some(7));
        let (pc, instret) = (tier.hart().state.pc, tier.hart().instret);
        let info = tier.step_one();
        assert!(
            info.halted && info.trap.is_none() && info.wb.is_none(),
            "{}",
            pers.name
        );
        assert_eq!(info.pc, pc, "{}", pers.name);
        let mut blocks = Blocks::default();
        assert_eq!(tier.run_until(10, &mut blocks).instructions, 0);
        assert!(blocks.0.is_empty(), "{}", pers.name);
        assert_eq!(tier.hart().instret, instret, "{}", pers.name);
    }
}

/// `step_one()` lends the tier's own record, refilled by every step, so
/// nothing a step sets may survive into the next one. Each setter below
/// (a store, a forced SC failure, an `ecall`, an FP write, `ebreak`) is
/// followed by an instruction that leaves its field clear, and every
/// record is `hart::step`'s on a twin hart, field for field.
#[test]
fn a_lent_record_carries_nothing_over() {
    let mut a = Asm::new(0x8000_0000);
    let handler = a.label();
    a.la(T0, handler);
    a.csrrw(ZERO, csr::MTVEC, T0);
    a.li(T1, 0x8001_0000);
    a.sd(T1, 0, T1); // mem
    a.addi(T2, T2, 1);
    a.lr_d(T3, T1);
    a.sc_d(T4, T3, T1); // sc_failed: forced below
    a.addi(T2, T2, 1);
    a.fcvt_d_l(FT0, T2); // wb to an FPR
    a.add(T5, T2, T2);
    a.ecall(); // trap
    a.bind(handler);
    a.li(A0, 7);
    a.ebreak(); // halted
    let p = a.assemble();
    type Field = (&'static str, fn(&StepInfo) -> bool);
    let fields: [Field; 5] = [
        ("mem", |i| i.mem.is_some()),
        ("sc_failed", |i| i.sc_failed),
        ("trap", |i| i.trap.is_some()),
        ("FP wb", |i| matches!(i.wb, Some((true, _, _)))),
        ("halted", |i| i.halted),
    ];
    for pers in nemu::registry::PERSONALITIES {
        let mut tier = (pers.build)(&p);
        let (mut rh, mut rm): (Hart, SparseMemory) = nemu::boot(&p);
        // The program's one SC fails: the flag waits for it.
        tier.hart_mut().force_sc_fail = true;
        rh.force_sc_fail = true;
        let mut set_by = [None; 5];
        let mut step = 0;
        while !rh.is_halted() {
            let want = hart::step(&mut rh, &mut rm);
            let got = tier.step_one();
            assert_eq!(*got, want, "{}: step {step}", pers.name);
            for (f, (name, is_set)) in fields.iter().enumerate() {
                match set_by[f] {
                    Some(s) if s + 1 == step => {
                        assert!(
                            !is_set(got),
                            "{}: {name} of step {s} left in step {step}",
                            pers.name
                        )
                    }
                    None if is_set(got) => set_by[f] = Some(step),
                    _ => {}
                }
            }
            step += 1;
        }
        for (f, (name, _)) in fields.iter().enumerate() {
            assert!(set_by[f].is_some(), "{}: no step set {name}", pers.name);
        }
        assert_arch_eq(tier.hart(), &rh, pers.name);
    }
}
