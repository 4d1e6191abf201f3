//! Golden pins for the per-instruction pipeline lifecycle tracer.
//!
//! Three fixed programs on the `small-nh` preset with `--lifecycle` on:
//! a load-to-use dependency chain, a data-dependent mispredicting
//! branch, and a failing store-conditional. Stage stamps (fetch /
//! rename / issue / writeback / commit cycles) are pinned *exactly* —
//! the tracer is an observability surface, so any drift in fetch,
//! scheduling, or the memory pipeline must be acknowledged here. A
//! byte-identical rerun guard, the digest folded from a whole trace
//! against the core's own, and proptest invariants (monotone stamps on
//! retired uops, cause tags on squashed ones) ride along.

use minjie::{CoSim, CoSimEnd, PerfSnapshot};
use proptest::prelude::*;
use riscv_isa::asm::{reg::*, Asm, Program};
use workloads::{random_litmus, random_program, workload, LitmusConfig, Scale, TortureConfig};
use xscore::{Lifecycle, LifecycleDigest, SquashCause, XsConfig};

const BASE: u64 = 0x8000_0000;
const DATA: i64 = 0x8002_0000;

/// Run `program` with full lifecycle tracing and return the drained
/// trace (plus the end condition, for halt assertions).
fn lifecycle_trace(program: &Program, max_cycles: u64) -> (Vec<Lifecycle>, CoSimEnd) {
    let cfg = XsConfig::preset("small-nh").expect("preset").with_lifecycle();
    lifecycle_trace_cfg(cfg, program, max_cycles)
}

/// [`lifecycle_trace`] with an explicit configuration (the equivalence
/// suite flips `event_driven` on the same preset).
fn lifecycle_trace_cfg(
    cfg: XsConfig,
    program: &Program,
    max_cycles: u64,
) -> (Vec<Lifecycle>, CoSimEnd) {
    let mut cosim = CoSim::new(cfg, program);
    let end = cosim.run(max_cycles);
    (cosim.archdb.lifecycle.rows().copied().collect(), end)
}

/// The retired record executing `pc`, if any (first dynamic instance).
fn retired_at(trace: &[Lifecycle], pc: u64) -> Option<&Lifecycle> {
    trace.iter().find(|r| r.pc == pc && r.retired())
}

/// Load-to-use: `sd` seeds memory, `ld` reads it back, `addi` consumes
/// the loaded value the very next instruction. Returns the program and
/// the PCs of the `ld` and its dependent `addi`.
fn load_use_program() -> (Program, u64, u64) {
    let mut a = Asm::new(BASE);
    a.li(S1, DATA);
    a.li(T0, 42);
    a.sd(T0, 0, S1);
    let ld_pc = a.here();
    a.ld(T1, 0, S1);
    let use_pc = a.here();
    a.addi(A0, T1, 1); // load-to-use dependence
    a.ebreak();
    (a.assemble(), ld_pc, use_pc)
}

/// A loop whose back-edge branch depends on a hashed counter bit: the
/// predictor cannot learn it, so the run must contain mispredict
/// squashes.
fn mispredict_program() -> Program {
    let mut a = Asm::new(BASE);
    a.li(S0, 0);
    a.li(S1, 64);
    a.li(S2, 0x9e37_79b9);
    a.li(A0, 0);
    let top = a.bound_label();
    let skip = a.label();
    a.mul(T0, S0, S2);
    a.srli(T0, T0, 13);
    a.andi(T0, T0, 1);
    a.beqz(T0, skip);
    a.addi(A0, A0, 1);
    a.bind(skip);
    a.addi(S0, S0, 1);
    a.blt(S0, S1, top);
    a.ebreak();
    a.assemble()
}

/// A store-conditional with no matching reservation: `sc.d` must fail
/// (rd = 1) and still retire through the atomic unit. Returns the
/// program and the PC of the `sc.d`.
fn sc_fail_program() -> (Program, u64) {
    let mut a = Asm::new(BASE);
    a.li(S1, DATA);
    a.li(T0, 7);
    let sc_pc = a.here();
    a.sc_d(A0, T0, S1); // no prior lr.d: fails, A0 = 1
    a.addi(A1, A0, 0); // consumes the failure code
    a.ebreak();
    (a.assemble(), sc_pc)
}

#[test]
fn load_to_use_chain_stamps_pin() {
    let (program, ld_pc, use_pc) = load_use_program();
    let (trace, end) = lifecycle_trace(&program, 100_000);
    assert!(matches!(end, CoSimEnd::Halted(_)), "did not halt: {end:?}");

    let ld = retired_at(&trace, ld_pc).expect("ld retired");
    assert!(ld.mem, "ld must be tagged as a memory op");
    let use_ = retired_at(&trace, use_pc).expect("addi retired");

    // Exact stage stamps, harvested from the pinned model. The `ld`
    // issues, gets its line, and writes back before the dependent
    // `addi` can issue: the use must issue no earlier than the load's
    // writeback cycle.
    assert_eq!(
        (
            ld.stamps.fetched,
            ld.stamps.renamed,
            ld.stamps.issued,
            ld.stamps.writeback,
            ld.committed,
        ),
        LD_PIN,
        "ld lifecycle drifted: {ld:?}"
    );
    assert_eq!(
        (
            use_.stamps.fetched,
            use_.stamps.renamed,
            use_.stamps.issued,
            use_.stamps.writeback,
            use_.committed,
        ),
        USE_PIN,
        "dependent addi lifecycle drifted: {use_:?}"
    );
    assert!(
        use_.stamps.issued >= ld.stamps.writeback,
        "use issued at {} before the load wrote back at {}",
        use_.stamps.issued,
        ld.stamps.writeback
    );
}

/// `(fetched, renamed, issued, writeback, committed)` for the load and
/// its dependent use in `load_use_program` on small-nh.
const LD_PIN: (u64, u64, u64, u64, u64) = (81, 81, 85, 87, 88);
const USE_PIN: (u64, u64, u64, u64, u64) = (81, 82, 87, 88, 88);

#[test]
fn mispredicted_branch_squashes_with_cause() {
    let (trace, end) = lifecycle_trace(&mispredict_program(), 100_000);
    assert!(matches!(end, CoSimEnd::Halted(_)), "did not halt: {end:?}");

    let squashed: Vec<&Lifecycle> = trace.iter().filter(|r| !r.retired()).collect();
    assert!(!squashed.is_empty(), "unpredictable branch squashed nothing");
    assert!(
        squashed
            .iter()
            .any(|r| r.cause == Some(SquashCause::Mispredict)),
        "no squash carries the Mispredict cause tag"
    );
    // Every squashed record is tagged, stamped with its squash cycle,
    // and has made it at least through fetch.
    for r in &squashed {
        assert!(r.cause.is_some(), "untagged squash: {r:?}");
        assert!(r.squashed_at > 0, "unstamped squash: {r:?}");
        assert!(r.stamps.fetched > 0, "squashed uop never fetched: {r:?}");
        assert!(r.committed == 0, "record both retired and squashed: {r:?}");
    }
    // The exact number of mispredict squashes is a pinned model output.
    let mispredicts = squashed
        .iter()
        .filter(|r| r.cause == Some(SquashCause::Mispredict))
        .count();
    assert_eq!(mispredicts, MISPREDICT_SQUASH_PIN, "squash volume drifted");
}

/// Number of uops squashed by mispredict recovery in
/// `mispredict_program` on small-nh.
const MISPREDICT_SQUASH_PIN: usize = 166;

#[test]
fn sc_failure_retires_through_atomic_unit() {
    let (program, sc_pc) = sc_fail_program();
    let (trace, end) = lifecycle_trace(&program, 100_000);
    let CoSimEnd::Halted(exit) = end else {
        panic!("did not halt: {end:?}");
    };
    // a0 holds the SC failure code (1) at the ebreak.
    assert_eq!(exit, 1, "sc.d with no reservation must fail");

    let sc = retired_at(&trace, sc_pc).expect("sc.d retired");
    assert!(sc.mem, "sc.d must be tagged as a memory op");
    assert_eq!(
        (
            sc.stamps.fetched,
            sc.stamps.renamed,
            sc.stamps.issued,
            sc.stamps.writeback,
            sc.committed,
        ),
        SC_PIN,
        "sc.d lifecycle drifted: {sc:?}"
    );
}

/// `(fetched, renamed, issued, writeback, committed)` for the failing
/// `sc.d` in `sc_fail_program` on small-nh.
const SC_PIN: (u64, u64, u64, u64, u64) = (81, 81, 86, 86, 86);

#[test]
fn squashed_lr_leaves_no_reservation_for_sc() {
    // A cold conditional branch is predicted taken (predecoded target),
    // and its condition hangs off a 20-cycle divide, so it resolves
    // late. The branch is architecturally NOT taken: the wrong path at
    // the predicted target — an `lr.d` — is fetched and dispatched, then
    // squashed by the mispredict recovery. The squashed LR must leave no
    // reservation (and no stale `lr_cycle` window) behind: the `sc.d` on
    // the correct fall-through path, to the very same address, must
    // still fail.
    let mut a = Asm::new(BASE);
    a.li(S1, DATA);
    a.li(T0, 7);
    a.li(T1, 3);
    a.div(T3, T1, T1); // T3 = 1, available ~20 cycles after issue
    let lr_block = a.label();
    a.beqz(T3, lr_block); // T3 = 1: not taken; cold predictor takes it
    let sc_pc = a.here();
    a.sc_d(A0, T0, S1); // no architectural reservation: must fail, A0 = 1
    a.ebreak();
    a.bind(lr_block);
    let lr_pc = a.here();
    a.lr_d(T2, S1); // wrong path: fetched, squashed, never executed
    a.ebreak();
    let program = a.assemble();

    let (trace, end) = lifecycle_trace(&program, 100_000);
    let CoSimEnd::Halted(exit) = end else {
        panic!("did not halt: {end:?}");
    };
    assert_eq!(exit, 1, "sc.d after a squashed lr.d must fail");

    // The wrong-path LR shows up in the trace as a mispredict squash —
    // proof the hazard path was actually exercised.
    let lr = trace
        .iter()
        .find(|r| r.pc == lr_pc)
        .expect("wrong-path lr.d was fetched");
    assert!(!lr.retired(), "wrong-path lr.d retired: {lr:?}");
    assert_eq!(lr.cause, Some(SquashCause::Mispredict), "{lr:?}");

    let sc = retired_at(&trace, sc_pc).expect("sc.d retired");
    assert!(sc.mem, "sc.d must be tagged as a memory op");
}

#[test]
fn lifecycle_trace_unchanged_by_event_skip() {
    // Cycle-skip equivalence on the observability surface: with the
    // event queue force-disabled, the full lifecycle trace (every stage
    // stamp of every uop, retired and squashed) must be byte-identical
    // to the skipping run's.
    let p = mispredict_program();
    let run = |on: bool| {
        let mut cfg = XsConfig::preset("small-nh").expect("preset").with_lifecycle();
        cfg.run.event_driven = on;
        let (trace, end) = lifecycle_trace_cfg(cfg, &p, 100_000);
        assert!(
            matches!(end, CoSimEnd::Halted(_)),
            "event_driven={on} did not halt: {end:?}"
        );
        serde_json::to_string(&trace).expect("trace serializes")
    };
    let skipping = run(true);
    let tick_by_tick = run(false);
    assert_eq!(skipping, tick_by_tick, "lifecycle traces diverged");
}

#[test]
fn lifecycle_trace_is_byte_identical_across_reruns() {
    let p = mispredict_program();
    let (a, _) = lifecycle_trace(&p, 100_000);
    let (b, _) = lifecycle_trace(&p, 100_000);
    let ja = serde_json::to_string(&a).expect("trace serializes");
    let jb = serde_json::to_string(&b).expect("trace serializes");
    assert_eq!(ja, jb, "same-seed lifecycle traces differ");
    assert!(!a.is_empty(), "trace is empty");
}

#[test]
fn the_digest_of_the_trace_is_the_cores_own() {
    // The digest a reader folds from records (`replay`'s gap summary)
    // is the one the core keeps: on a kernel and a two-hart litmus
    // program whose whole trace fits the table, they agree field for
    // field.
    let cfg = XsConfig::preset("small-nh").expect("preset").with_lifecycle();
    let mut dual = cfg.clone();
    dual.cores = 2;
    let runs = [
        (cfg, workload("sjeng", Scale::Test).program),
        (dual, random_litmus(1, &LitmusConfig::default())),
    ];
    for (cfg, program) in runs {
        let mut cosim = CoSim::new(cfg, &program);
        let end = cosim.run(6_000_000);
        assert!(matches!(end, CoSimEnd::Halted(_)), "did not halt: {end:?}");
        let (db, sys) = (&cosim.archdb, &cosim.state.sys);
        assert_eq!(db.lifecycle.len() as u64, db.records_inserted(), "the trace overflowed its table");
        let trace: Vec<Lifecycle> = db.lifecycle.rows().copied().collect();
        assert_eq!(LifecycleDigest::of(&trace), PerfSnapshot::collect(sys).lifecycle_digest());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On random torture programs every retired uop's stamps are
    /// monotone through the pipe and every squashed uop carries a
    /// cause tag — the invariants the ring's waterfall rendering
    /// relies on.
    #[test]
    fn stamps_monotone_and_squashes_tagged(seed in 0u64..10_000) {
        let cfg = TortureConfig { body_len: 60, iterations: 8, ..TortureConfig::default() }
            .clamped();
        let program = random_program(seed, &cfg);
        let (trace, _) = lifecycle_trace(&program, 200_000);
        prop_assert!(!trace.is_empty(), "seed {} traced nothing", seed);
        for r in &trace {
            let s = &r.stamps;
            if r.retired() {
                prop_assert!(s.fetched > 0 && r.committed > 0, "zero stamps: {:?}", r);
                prop_assert!(s.fetched <= s.decoded, "fetch/decode: {:?}", r);
                prop_assert!(s.decoded <= s.renamed, "decode/rename: {:?}", r);
                prop_assert!(s.renamed <= s.dispatched, "rename/dispatch: {:?}", r);
                prop_assert!(s.dispatched <= s.issued, "dispatch/issue: {:?}", r);
                prop_assert!(s.issued <= s.executed, "issue/execute: {:?}", r);
                prop_assert!(s.executed <= s.writeback, "execute/wb: {:?}", r);
                prop_assert!(s.writeback <= r.committed, "wb/commit: {:?}", r);
                prop_assert!(r.squashed_at == 0 && r.cause.is_none(), "retired+squashed: {:?}", r);
            } else {
                prop_assert!(r.squashed_at > 0, "squash not stamped: {:?}", r);
                prop_assert!(r.cause.is_some(), "squash not tagged: {:?}", r);
                prop_assert!(s.fetched > 0, "squashed uop never fetched: {:?}", r);
                prop_assert!(s.fetched <= r.squashed_at, "squashed before fetch: {:?}", r);
            }
        }
    }
}
