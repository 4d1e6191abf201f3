//! End-to-end reproductions of the paper's diff-rule scenarios:
//!
//! - Fig. 3: the speculative-TLB page fault (a PTE store lingering in the
//!   store buffer makes the DUT fault where the REF does not),
//! - §III-B2c: micro-architectural SC failures,
//! - §IV-C: the injected L2 Probe/GrantData race on a dual-core system,
//!   caught by the global-memory rule and debugged through LightSSS.
//!
//! and the walk over the CSR table (`common::csr_table_walk`): the one
//! programme that drives the DUT's serialising CSR path across every row,
//! under DiffTest, ending in the total full-state comparison.
//!
//! The declarative scenarios (Fig. 3, the dual-core counter, the clean
//! reader/writer) run as inline-program campaign jobs, asserting rule
//! firings and exception counts through the campaign's job records. The
//! SC-failure and injected-L2-race scenarios keep driving `CoSim`
//! directly: both mutate the DUT after construction (`force_sc_fail`,
//! `inject_l2_race_bug`), which a job spec deliberately cannot express.

use campaign::{Campaign, JobRecord, JobSpec, Verdict, WorkloadSource};
use minjie::{CoSim, CoSimEnd, DiffRule};
use riscv_isa::asm::{reg::*, Asm, Program};
use riscv_isa::csr::addr as csr;
use xscore::XsConfig;

mod common;

fn small_nh(cores: usize) -> XsConfig {
    let mut c = XsConfig::preset("small-nh").expect("preset exists");
    c.cores = cores;
    c
}

/// Run one inline program on `small-nh` through the campaign and return
/// its record, requiring the given exit code.
fn run_scenario(name: &str, program: Program, cores: usize, expect_exit: u64) -> JobRecord {
    let spec = JobSpec::new(WorkloadSource::inline(name, program), "small-nh")
        .with_cores(cores)
        .with_max_cycles(8_000_000);
    let report = Campaign::new(vec![spec]).with_workers(1).run();
    let record = report.jobs.into_iter().next().expect("one record");
    match &record.verdict {
        Verdict::Halted { exit_code } => assert_eq!(*exit_code, expect_exit, "{name}"),
        other => panic!("{name}: {other:?}"),
    }
    record
}

/// Count a rule in a job record's sorted `(name, count)` list.
fn rule_count(record: &JobRecord, rule: DiffRule) -> u64 {
    record
        .rule_counts
        .iter()
        .find(|(n, _)| n == rule.name())
        .map(|(_, c)| *c)
        .unwrap_or(0)
}

/// The Fig. 3 program: an S-mode PTE store immediately followed by a load
/// through the page it maps. On the DUT the store sits in the store
/// buffer while the PTW walks stale memory — a page fault the REF never
/// takes.
fn fig3_program() -> Program {
    let mut a = Asm::new(0x8000_0000);
    let handler = a.label();
    let s_entry = a.label();
    let root: i64 = 0x8100_0000;
    // Identity 1 GiB superpage for the 0x8000_0000 region (code + tables).
    a.li(T0, root);
    a.li(T1, ((0x8000_0000u64 >> 12) << 10) as i64 | 0xcf); // V R W X A D
    a.sd(T1, 16, T0); // PTE[vpn2=2]
    a.sd(ZERO, 8, T0); // PTE[vpn2=1] — target page, initially INVALID
    a.fence(); // drain the setup stores before enabling translation
    a.la(T2, handler);
    a.csrrw(ZERO, csr::MTVEC, T2);
    a.li(T3, (8i64 << 60) | (root >> 12));
    a.csrrw(ZERO, csr::SATP, T3);
    a.li(GP, 0); // page-fault counter
    // Registers for the S-mode body.
    a.li(S0, root + 8); // &PTE[1]
    a.li(S1, ((0x4000_0000u64 >> 12) << 10) as i64 | 0xcf); // valid leaf
    a.li(S2, 0x4000_0000); // target VA
    a.la(T4, s_entry);
    a.csrrw(ZERO, csr::MEPC, T4);
    a.li(T5, (1 << 11) | (3 << 13)); // MPP = S, FS on
    a.csrrw(ZERO, csr::MSTATUS, T5);
    a.mret();
    // ---- S-mode ----
    a.bind(s_entry);
    a.sd(S1, 0, S0); // the PTE store (lingers in the DUT's store buffer)
    a.ld(A1, 0, S2); // speculative-TLB page fault on the DUT
    a.mv(A0, GP); // exit code = observed faults
    a.ebreak();
    // ---- M-mode trap handler ----
    a.bind(handler);
    a.addi(GP, GP, 1);
    a.sfence_vma(ZERO, ZERO);
    // Let the store buffer drain before retrying.
    a.li(T6, 40);
    let spin = a.bound_label();
    a.addi(T6, T6, -1);
    a.bnez(T6, spin);
    a.mret(); // mepc still points at the faulting load: retry
    a.assemble()
}

#[test]
fn fig3_speculative_page_fault_rule() {
    // Exit code 1: exactly one page fault observed by the program.
    let record = run_scenario("fig3-spec-pf", fig3_program(), 1, 1);
    assert_eq!(
        rule_count(&record, DiffRule::SpeculativePageFault),
        1,
        "the DUT-only fault must be reconciled by the rule: {:?}",
        record.rule_counts
    );
    // The DUT really took the fault for the micro-architectural reason:
    // its PTW walked memory while the PTE store sat in the store buffer.
    assert!(record.exceptions >= 1);
}

#[test]
fn fig3_program_is_fault_free_on_the_ref_alone() {
    // Sanity: NEMU alone (no store buffer) never faults on this program.
    use nemu::Interpreter;
    let mut n = nemu::Nemu::new(&fig3_program());
    let r = n.run(10_000_000);
    assert_eq!(r.exit_code, Some(0), "REF sees no page fault");
}

#[test]
fn sc_failure_rule_reconciles_forced_timeout() {
    // LR/SC retry loop; the DUT's first SC is forced to fail (modeling a
    // reservation timeout). The rule notifies the REF; the program's
    // retry loop converges on both.
    let mut a = Asm::new(0x8000_0000);
    a.li(T0, 0x8002_0000);
    a.li(T2, 7);
    let retry = a.bound_label();
    a.lr_d(T1, T0);
    a.add(T1, T1, T2);
    a.sc_d(T3, T1, T0);
    a.bnez(T3, retry);
    a.ld(A0, 0, T0); // 7
    a.ebreak();
    let p = a.assemble();
    let mut cosim = CoSim::new(small_nh(1), &p);
    cosim.state.sys.cores[0].force_sc_fail();
    match cosim.run(2_000_000) {
        CoSimEnd::Halted(code) => assert_eq!(code, 7),
        other => panic!("{other:?}"),
    }
    assert_eq!(cosim.state.diff.stats.count(DiffRule::ScFailure), 1);
    assert_eq!(cosim.state.sys.cores[0].perf.sc_failures, 1);
}

/// Dual-core shared-counter program (amoadd from both harts, then hart 0
/// reads the total after hart 1 raises a done flag).
fn dual_core_program(rounds: i64) -> Program {
    let counter = 0x8002_0000i64;
    let done_flag = 0x8002_0100i64;
    let mut a = Asm::new(0x8000_0000);
    let hart1 = a.label();
    let finish = a.label();
    a.csrrs(T0, csr::MHARTID, ZERO);
    a.bnez(T0, hart1);
    // hart 0
    a.li(T1, counter);
    a.li(T2, 1);
    a.li(S0, rounds);
    let l0 = a.bound_label();
    a.amoadd_d(ZERO, T2, T1);
    a.addi(S0, S0, -1);
    a.bnez(S0, l0);
    a.li(T3, done_flag);
    let wait = a.bound_label();
    a.ld(T4, 0, T3);
    a.beqz(T4, wait);
    a.j(finish);
    // hart 1
    a.bind(hart1);
    a.li(T1, counter);
    a.li(T2, 2);
    a.li(S0, rounds);
    let l1 = a.bound_label();
    a.amoadd_d(ZERO, T2, T1);
    a.addi(S0, S0, -1);
    a.bnez(S0, l1);
    a.li(T3, done_flag);
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

#[test]
fn dual_core_difftest_with_global_memory_rule() {
    let rounds = 25;
    // Exit code: all increments visible (rounds × (1 + 2)).
    let record = run_scenario(
        "dual-core-counter",
        dual_core_program(rounds),
        2,
        (rounds * 3) as u64,
    );
    // The interleaved AMOs force the rule: each hart's single-core REF
    // cannot know the other's increments.
    assert!(
        rule_count(&record, DiffRule::GlobalMemoryLoad) > 0,
        "global-memory rule must have been exercised: {:?}",
        record.rule_counts
    );
}

/// Reader/writer program: hart 1 increments the shared counter with
/// AMOs; hart 0 polls it (holding a read-only copy that the coherence
/// protocol must keep invalidating) until the done flag rises.
fn reader_writer_program(rounds: i64) -> Program {
    let counter = 0x8002_0000i64;
    let done_flag = 0x8002_0100i64;
    let mut a = Asm::new(0x8000_0000);
    let hart1 = a.label();
    a.csrrs(T0, csr::MHARTID, ZERO);
    a.bnez(T0, hart1);
    // hart 0: poll the counter until done.
    a.li(T1, counter);
    a.li(T3, done_flag);
    let poll = a.bound_label();
    a.ld(T4, 0, T1); // the load whose staleness betrays the bug
    a.ld(T5, 0, T3);
    a.beqz(T5, poll);
    a.ld(A0, 0, T1);
    a.ebreak();
    // hart 1: increment, then raise the flag.
    a.bind(hart1);
    a.li(T1, counter);
    a.li(T2, 2);
    a.li(S0, rounds);
    let l1 = a.bound_label();
    a.amoadd_d(ZERO, T2, T1);
    a.addi(S0, S0, -1);
    a.bnez(S0, l1);
    a.li(T3, done_flag);
    a.li(T4, 1);
    a.sd(T4, 0, T3);
    a.li(A0, 0);
    a.ebreak();
    a.assemble()
}

#[test]
fn dual_core_reader_writer_is_clean_without_bug() {
    let rounds = 30;
    run_scenario(
        "reader-writer-clean",
        reader_writer_program(rounds),
        2,
        (rounds * 2) as u64,
    );
}

#[test]
fn dual_core_l2_race_bug_is_caught_and_replayed() {
    // The §IV-C case study: inject the Probe/GrantData overlap bug into
    // core 0's L2 and run the reader/writer workload under full
    // co-simulation with LightSSS. The buggy L2 keeps hart 0's read-only
    // copy alive through an invalidating probe, so hart 0 reads values
    // that are neither its REF's nor (after the history window) the
    // Global Memory's — the paper's "data mismatch" detection.
    let mut caught = None;
    for attempt in 0..3u64 {
        let rounds = 60 + attempt as i64 * 30;
        let mut cosim =
            CoSim::new(small_nh(2), &reader_writer_program(rounds)).with_lightsss(5_000);
        cosim.state.sys.mem.inject_l2_race_bug(0);
        match cosim.run(10_000_000) {
            CoSimEnd::Bug(report) => {
                caught = Some((cosim, report));
                break;
            }
            CoSimEnd::Halted(code) => {
                if code as i64 != rounds * 2 {
                    panic!("lost update escaped DiffTest: count {code}");
                }
            }
            CoSimEnd::OutOfCycles => panic!("did not converge"),
        }
    }
    let (cosim, report) = caught.expect("the injected L2 race must be detected");
    assert!(
        matches!(report.error, minjie::DiffError::Writeback { .. }),
        "{:?}",
        report.error
    );
    // The replay from the LightSSS rollback point stays within the 2N
    // window and captures debug events.
    let from = cosim.rollback_point();
    let from_cycle = from.snapshot_cycle;
    let budget = report.at_cycle - from_cycle + 10_000;
    let replay = minjie::debug_window(Box::new(move || from.state), budget);
    assert!(from_cycle <= report.at_cycle);
    assert!(
        replay.trace.records_inserted() > 0,
        "debug-mode trace captured"
    );
}

#[test]
fn csr_table_walk_halts_clean_under_difftest() {
    use nemu::Interpreter;
    let p = common::csr_table_walk();
    let want = nemu::Nemu::new(&p).run(10_000_000).exit_code.expect("the REF alone halts");
    for preset in ["small-nh", "small-yqh"] {
        let mut cosim = CoSim::new(XsConfig::preset(preset).expect("preset exists"), &p);
        match cosim.run(8_000_000) {
            CoSimEnd::Halted(code) => assert_eq!(code, want, "{preset}"),
            other => panic!("{preset}: {other:?}"),
        }
        // Every free-running row was read: the DUT's values stood.
        assert!(cosim.state.diff.stats.count(DiffRule::CounterRead) > 0, "{preset}");
    }
}
