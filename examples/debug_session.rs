//! The §IV-C debugging story, end to end: a dual-core run with the
//! L2 Probe/GrantData race injected, DiffTest catching the data mismatch,
//! LightSSS rolling back and replaying in debug mode, and ArchDB
//! filtering the captured events around the failure.
//!
//! ```text
//! cargo run --release --example debug_session
//! ```

use minjie::{debug_window, CoSim, CoSimEnd};
use riscv_isa::asm::{reg::*, Asm};
use riscv_isa::csr::addr as csr;
use xscore::XsConfig;

fn shared_counter_program(rounds: i64) -> riscv_isa::asm::Program {
    let counter = 0x8002_0000i64;
    let done = 0x8002_0100i64;
    let mut a = Asm::new(0x8000_0000);
    let hart1 = a.label();
    let finish = a.label();
    a.csrrs(T0, csr::MHARTID, ZERO);
    a.bnez(T0, hart1);
    a.li(T1, counter);
    a.li(T2, 1);
    a.li(S0, rounds);
    let l0 = a.bound_label();
    a.amoadd_d(ZERO, T2, T1);
    a.addi(S0, S0, -1);
    a.bnez(S0, l0);
    a.li(T3, done);
    let wait = a.bound_label();
    a.ld(T4, 0, T3);
    a.beqz(T4, wait);
    a.j(finish);
    a.bind(hart1);
    a.li(T1, counter);
    a.li(T2, 2);
    a.li(S0, rounds);
    let l1 = a.bound_label();
    a.amoadd_d(ZERO, T2, T1);
    a.addi(S0, S0, -1);
    a.bnez(S0, l1);
    a.li(T3, done);
    a.li(T4, 1);
    a.sd(T4, 0, T3);
    a.li(A0, 0);
    a.ebreak();
    a.bind(finish);
    a.li(T1, counter);
    a.ld(A0, 0, T1);
    a.ebreak();
    a.assemble()
}

fn main() {
    let mut cfg = XsConfig::nh_dual();
    cfg.memory = xscore::MemoryModel::FixedAmat(60);
    let program = shared_counter_program(60);

    println!("== clean run (no fault) ==");
    let mut clean = CoSim::new(cfg.clone(), &program).with_lightsss(10_000);
    match clean.run(20_000_000) {
        CoSimEnd::Halted(code) => println!(
            "halted, counter = {code} (expected {}), {} commits verified, rules: {:?}",
            60 * 3,
            clean.state.diff.commits_checked,
            clean.state.diff.stats.all()
        ),
        other => panic!("clean run failed: {other:?}"),
    }

    println!();
    println!("== run with the L2 Probe/GrantData race injected into core 0 ==");
    // The fault is part of the boot, so the reset state LightSSS falls
    // back to carries it too. The model is deterministic: the race fires.
    cfg.run.inject_l2_race = true;
    let mut buggy = CoSim::new(cfg, &shared_counter_program(80)).with_lightsss(10_000);
    let CoSimEnd::Bug(report) = buggy.run(30_000_000) else {
        panic!("the injected race must diverge");
    };
    println!("DiffTest reports: {:?}", report.error);
    println!("detected at cycle {}", report.at_cycle);
    // On demand (§III-C3): roll back to the older LightSSS snapshot and
    // re-execute the window in debug mode until the failure strikes again.
    let from = buggy.rollback_point();
    let from_cycle = from.snapshot_cycle;
    let replay = debug_window(Box::new(move || from.state), report.at_cycle - from_cycle + 10_000);
    let reproduced =
        replay.error.as_ref() == Some(&report.error) && replay.at_commit == report.at_commit;
    println!(
        "LightSSS: restored the snapshot at cycle {from_cycle}, replayed {} cycles in debug mode, reproduced = {reproduced}",
        replay.at_cycle - from_cycle
    );
    // ArchDB: the debug-mode trace around the failure, rendered by the
    // timeline viewer (the repo's stand-in for the paper's Waveform
    // Terminator).
    let commits = &replay.trace.instr_commit;
    println!("ArchDB captured {} commit events.", commits.len());
    let last = commits.rows().last().map_or(0, |c| c.cycle);
    print!("{}", replay.trace.render_timeline("instr_commit", last.saturating_sub(40), last));
}
