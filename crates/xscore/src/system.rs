//! Whole-system wrapper: one or two cores over the shared memory
//! hierarchy, with cross-core reservation snooping.

use crate::config::XsConfig;
use crate::core::{Core, CycleOutput};
use riscv_isa::asm::Program;
use riscv_isa::mem::SparseMemory;
use riscv_isa::state::ArchState;
use uncore::{Completion, MemSystem};

/// A single- or dual-core XiangShan system.
#[derive(Debug, Clone)]
pub struct XsSystem {
    /// The cores.
    pub cores: Vec<Core>,
    /// The shared memory hierarchy.
    pub mem: MemSystem,
    /// Reusable buffer for a cycle's memory completions (empty between
    /// ticks).
    completions: Vec<Completion>,
}

impl XsSystem {
    /// Boot a program on all cores (every hart starts at the entry).
    pub fn new(cfg: XsConfig, program: &Program) -> Self {
        let mut backing = SparseMemory::new();
        program.load_into(&mut backing);
        Self::from_memory(cfg, backing, program.entry)
    }

    /// Build from a pre-populated physical memory.
    pub fn from_memory(cfg: XsConfig, backing: SparseMemory, boot_pc: u64) -> Self {
        let mut mem = MemSystem::new(cfg.mem_system_config(), cfg.memory.build(), backing);
        if cfg.run.inject_l2_race {
            mem.inject_l2_race_bug(0);
        }
        let cores = (0..cfg.cores)
            .map(|h| Core::new(cfg.clone(), h, boot_pc))
            .collect();
        XsSystem { cores, mem, completions: Vec::new() }
    }

    /// Restore a checkpointed architectural state into core 0.
    pub fn restore(&mut self, state: &ArchState) {
        self.cores[0].restore_arch_state(state);
    }

    /// Advance one cycle; returns each core's output.
    pub fn tick(&mut self) -> Vec<CycleOutput> {
        let mut outs = Vec::new();
        self.tick_into(&mut outs);
        outs
    }

    /// Advance one cycle, writing each core's output into a caller-owned
    /// buffer (resized to one entry per core, entries cleared). Reusing
    /// one buffer across cycles keeps the driver loop allocation-free.
    pub fn tick_into(&mut self, outs: &mut Vec<CycleOutput>) {
        outs.resize_with(self.cores.len(), CycleOutput::default);
        let Self { cores, mem, completions } = self;
        mem.tick_into(completions);
        if cores.len() == 1 {
            // Single-core fast path: every completion is ours.
            cores[0].tick_into(mem, completions, &mut outs[0]);
        } else {
            // Partitioned once, by core: the sort is stable (and in place
            // at a cycle's handful of completions), so each core's slice
            // keeps the order in which its completions came due.
            completions.sort_by_key(|c| c.req.core);
            let mut rest = &completions[..];
            for h in 0..cores.len() {
                let (mine, others) = rest.split_at(rest.partition_point(|c| c.req.core <= h));
                rest = others;
                cores[h].tick_into(mem, mine, &mut outs[h]);
                // Same-cycle reservation snoop: an SC success or AMO write
                // decided during hart `h`'s tick linearizes *now* — later
                // harts in this cycle (and everyone next cycle) must see
                // their reservation dead before deciding their own SC.
                // Waiting for the store's completion drain leaves a full
                // round-trip window where both harts' SCs succeed from the
                // same loaded value.
                for &(paddr, size) in &outs[h].res_kills {
                    snoop_others(cores, h, paddr, size);
                }
            }
            // Cross-core reservation snooping on drained stores (plain-
            // store visibility; atomic kills already fired at decision
            // time above, a second overlapping snoop is a harmless no-op).
            for d in outs.iter().flat_map(|o| &o.drains) {
                snoop_others(cores, d.hart, d.paddr, d.size);
            }
        }
        completions.clear();
    }

    /// Advance one cycle; when event-driven skipping is enabled
    /// (`cfg.run.event_driven`) and every core's tick was a provable no-op,
    /// additionally bulk-advance the clock to just before the next
    /// scheduled event — memory-system delivery/completion or per-core
    /// queued work — charging the skipped span so every counter,
    /// histogram, and CSR lands exactly where cycle-by-cycle execution
    /// would put it (DESIGN §4 "`xscore` pipeline"). `limit` is a cycle
    /// the clock may land on exactly but never pass (run deadline,
    /// snapshot boundary). See [`XsSystem::tick_into`] for the buffer
    /// contract.
    pub fn tick_skipping_into(&mut self, limit: u64, outs: &mut Vec<CycleOutput>) {
        self.tick_into(outs);
        if !self.cores[0].cfg.run.event_driven || self.cores.iter().any(|c| c.made_progress()) {
            return;
        }
        let now = self.mem.cycle();
        // Events at cycle E must run a real tick landing on E, so the
        // skip stops at E - 1. With no events anywhere the system is
        // provably idle (halted or deadlocked) through `limit`.
        let mut stop = limit;
        if let Some(e) = self.mem.next_event_cycle() {
            stop = stop.min(e.saturating_sub(1));
        }
        for core in &mut self.cores {
            if let Some(e) = core.next_event_cycle() {
                stop = stop.min(e.saturating_sub(1));
            }
        }
        if stop > now {
            let n = stop - now;
            self.mem.advance_idle(n);
            for core in &mut self.cores {
                core.charge_idle_cycles(&self.mem, n);
            }
        }
    }

    /// True when every core halted.
    pub fn all_halted(&self) -> bool {
        self.cores.iter().all(|c| c.is_halted())
    }

    /// Run until all cores halt or `max_cycles` elapse, handing each
    /// cycle's outputs to `sink`.
    fn run_with(&mut self, max_cycles: u64, mut sink: impl FnMut(&mut [CycleOutput])) {
        let deadline = self.cores[0].cycle() + max_cycles;
        let mut outs = Vec::new();
        while self.cores[0].cycle() < deadline && !self.all_halted() {
            self.tick_skipping_into(deadline, &mut outs);
            sink(&mut outs);
        }
    }

    /// Run until all cores halt or `max_cycles` elapse. Returns core 0's
    /// exit code.
    pub fn run(&mut self, max_cycles: u64) -> Option<u64> {
        self.run_with(max_cycles, |_| {});
        self.cores[0].halted
    }

    /// Run, additionally collecting every commit event (single-threaded
    /// DiffTest-style consumption).
    pub fn run_collect(&mut self, max_cycles: u64) -> Vec<crate::uop::CommitEvent> {
        let mut all = Vec::new();
        self.run_with(max_cycles, |outs| outs.iter_mut().for_each(|o| all.append(&mut o.commits)));
        all
    }
}

/// Show hart `h`'s store to every other core's reservation.
fn snoop_others(cores: &mut [Core], h: usize, paddr: u64, size: u64) {
    for (other, core) in cores.iter_mut().enumerate() {
        if other != h {
            core.snoop_remote_store(paddr, size);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_isa::asm::{reg::*, Asm};

    fn tiny_cfg() -> XsConfig {
        // NH shrunk for fast unit tests.
        let mut c = XsConfig::nh();
        c.l1i = uncore::CacheConfig::new("l1i", 8192, 2, 2, 4);
        c.l1d = uncore::CacheConfig::new("l1d", 8192, 2, 4, 8);
        c.l2 = uncore::CacheConfig::new("l2", 32768, 4, 10, 8);
        c.l3 = Some(uncore::CacheConfig::new("l3", 131072, 4, 20, 16));
        c.memory = crate::config::MemoryModel::FixedAmat(50);
        c
    }

    fn run_program(build: impl FnOnce(&mut Asm), max_cycles: u64) -> (Option<u64>, XsSystem) {
        let mut a = Asm::new(0x8000_0000);
        build(&mut a);
        let p = a.assemble();
        let mut sys = XsSystem::new(tiny_cfg(), &p);
        let code = sys.run(max_cycles);
        (code, sys)
    }

    #[test]
    fn simple_arithmetic() {
        let (code, _) = run_program(
            |a| {
                a.li(T0, 20);
                a.li(T1, 22);
                a.add(A0, T0, T1);
                a.ebreak();
            },
            20_000,
        );
        assert_eq!(code, Some(42));
    }

    #[test]
    fn loop_sum() {
        let (code, sys) = run_program(
            |a| {
                a.li(T0, 0);
                a.li(T1, 100);
                a.li(T2, 0);
                let top = a.bound_label();
                a.add(T2, T2, T0);
                a.addi(T0, T0, 1);
                a.bne(T0, T1, top);
                a.mv(A0, T2);
                a.ebreak();
            },
            100_000,
        );
        assert_eq!(code, Some(4950));
        let perf = &sys.cores[0].perf;
        assert!(perf.instret > 300);
        assert!(perf.ipc() > 0.3, "ipc {}", perf.ipc());
    }

    #[test]
    fn loads_and_stores() {
        let (code, _) = run_program(
            |a| {
                a.li(T0, 0x8001_0000);
                a.li(T1, 0x1234_5678_9abc_def0u64 as i64);
                a.sd(T1, 0, T0);
                a.ld(T2, 0, T0);
                a.lw(T3, 0, T0); // sign-extended low word
                a.lbu(T4, 7, T0);
                a.sub(A0, T2, T1); // 0 if roundtrip worked
                a.ebreak();
            },
            50_000,
        );
        assert_eq!(code, Some(0));
    }

    #[test]
    fn store_to_load_forwarding() {
        let (code, sys) = run_program(
            |a| {
                a.li(T0, 0x8001_0000);
                a.li(A0, 0);
                a.li(T1, 64);
                let top = a.bound_label();
                a.sd(T1, 0, T0);
                a.ld(T2, 0, T0); // forwarded from the store
                a.add(A0, A0, T2);
                a.addi(T1, T1, -1);
                a.bnez(T1, top);
                a.ebreak();
            },
            200_000,
        );
        assert_eq!(code, Some((1..=64u64).sum::<u64>()));
        assert!(
            sys.cores[0].perf.load_forwards > 0,
            "forwarding must trigger"
        );
    }

    #[test]
    fn function_calls() {
        let (code, _) = run_program(
            |a| {
                let f = a.label();
                let done = a.label();
                a.li(A0, 0);
                a.li(S0, 10);
                let top = a.bound_label();
                a.call(f);
                a.addi(S0, S0, -1);
                a.bnez(S0, top);
                a.j(done);
                a.bind(f);
                a.addi(A0, A0, 7);
                a.ret();
                a.bind(done);
                a.ebreak();
            },
            100_000,
        );
        assert_eq!(code, Some(70));
    }

    #[test]
    fn branch_misprediction_recovery() {
        // Data-dependent unpredictable-ish branches with side effects on
        // both paths must still produce the architectural result.
        let (code, _) = run_program(
            |a| {
                a.li(T0, 0); // i
                a.li(T1, 200); // n
                a.li(A0, 0); // acc
                a.li(T3, 0x9e3779b9); // hash constant
                let top = a.bound_label();
                let odd = a.label();
                let next = a.label();
                // pseudo-random bit from i*K >> 13
                a.mul(T4, T0, T3);
                a.srli(T4, T4, 13);
                a.andi(T4, T4, 1);
                a.bnez(T4, odd);
                a.addi(A0, A0, 3);
                a.j(next);
                a.bind(odd);
                a.addi(A0, A0, 5);
                a.bind(next);
                a.addi(T0, T0, 1);
                a.bne(T0, T1, top);
                a.ebreak();
            },
            400_000,
        );
        // Compute expected on the host.
        let mut acc = 0u64;
        for i in 0..200u64 {
            let t = (i.wrapping_mul(0x9e37_79b9) >> 13) & 1;
            acc += if t != 0 { 5 } else { 3 };
        }
        assert_eq!(code, Some(acc));
    }

    #[test]
    fn csr_and_system() {
        let (code, _) = run_program(
            |a| {
                a.li(T0, 0x1234);
                a.csrrw(ZERO, riscv_isa::csr::addr::MSCRATCH, T0);
                a.csrrs(A0, riscv_isa::csr::addr::MSCRATCH, ZERO);
                a.ebreak();
            },
            50_000,
        );
        assert_eq!(code, Some(0x1234));
    }

    #[test]
    fn exception_and_trap_handler() {
        let (code, sys) = run_program(
            |a| {
                let handler = a.label();
                a.la(T0, handler);
                a.csrrw(ZERO, riscv_isa::csr::addr::MTVEC, T0);
                a.ecall();
                a.li(A0, 1); // skipped
                a.ebreak();
                a.bind(handler);
                a.li(A0, 99);
                a.ebreak();
            },
            50_000,
        );
        assert_eq!(code, Some(99));
        assert_eq!(
            sys.cores[0].csr.mcause,
            riscv_isa::trap::Exception::EcallFromM.code()
        );
    }

    #[test]
    fn fp_pipeline() {
        let (code, _) = run_program(
            |a| {
                a.li(T0, 3);
                a.fcvt_d_l(FT0, T0);
                a.li(T1, 4);
                a.fcvt_d_l(FT1, T1);
                a.fmadd_d(FT2, FT0, FT1, FT0); // 3*4+3 = 15
                a.fsqrt_d(FT3, FT1); // 2.0
                a.fmul_d(FT2, FT2, FT3); // 30
                a.fcvt_l_d(A0, FT2);
                a.ebreak();
            },
            50_000,
        );
        assert_eq!(code, Some(30));
    }

    #[test]
    fn amo_and_lrsc() {
        let (code, _) = run_program(
            |a| {
                a.li(T0, 0x8001_0000);
                a.li(T1, 5);
                a.amoadd_d(T2, T1, T0); // mem=5, t2=0
                a.amoadd_d(T3, T1, T0); // mem=10, t3=5
                a.lr_d(T4, T0); // t4=10
                a.addi(T4, T4, 1);
                a.sc_d(T5, T4, T0); // success: t5=0, mem=11
                a.ld(T6, 0, T0);
                // a0 = t3*100 + t5*10 + t6 = 500 + 0 + 11
                a.li(A1, 100);
                a.mul(A0, T3, A1);
                a.li(A1, 10);
                a.mul(T5, T5, A1);
                a.add(A0, A0, T5);
                a.add(A0, A0, T6);
                a.ebreak();
            },
            100_000,
        );
        assert_eq!(code, Some(511));
    }

    #[test]
    fn uart_mmio_store() {
        let (code, sys) = run_program(
            |a| {
                a.li(T0, riscv_isa::mem::UART_TX as i64);
                a.li(T1, b'O' as i64);
                a.sb(T1, 0, T0);
                a.li(T1, b'K' as i64);
                a.sb(T1, 0, T0);
                a.li(A0, 0);
                a.ebreak();
            },
            50_000,
        );
        assert_eq!(code, Some(0));
        assert_eq!(sys.cores[0].output, b"OK");
    }

    #[test]
    fn memory_order_violation_recovers() {
        // A pointer-chased store followed closely by a load of the same
        // address: the load may speculate past the store and must replay.
        let (code, _) = run_program(
            |a| {
                a.li(T0, 0x8001_0000);
                a.li(A0, 0);
                a.li(S0, 50);
                let top = a.bound_label();
                // Make the store address slow to compute.
                a.mul(T1, S0, S0);
                a.div(T1, T1, S0); // t1 = s0
                a.andi(T1, T1, 0);
                a.add(T2, T0, T1); // t2 = t0 (slowly)
                a.sd(S0, 0, T2);
                a.ld(T3, 0, T0); // same address, fast to compute
                a.add(A0, A0, T3);
                a.addi(S0, S0, -1);
                a.bnez(S0, top);
                a.ebreak();
            },
            500_000,
        );
        assert_eq!(code, Some((1..=50u64).sum::<u64>()));
    }

    #[test]
    fn dual_core_shared_counter() {
        let mut a = Asm::new(0x8000_0000);
        // Each hart adds its (hartid+1) 50 times to a shared counter with
        // amoadd, then hart 0 waits for hart 1's done flag.
        let counter = 0x8002_0000i64;
        let done_flag = 0x8002_0040i64;
        let hart1 = a.label();
        let finish = a.label();
        a.csrrs(T0, riscv_isa::csr::addr::MHARTID, ZERO);
        a.bnez(T0, hart1);
        // hart 0:
        a.li(T1, counter);
        a.li(T2, 1);
        a.li(S0, 50);
        let l0 = a.bound_label();
        a.amoadd_d(ZERO, T2, T1);
        a.addi(S0, S0, -1);
        a.bnez(S0, l0);
        // wait for hart 1
        a.li(T3, done_flag);
        let wait = a.bound_label();
        a.ld(T4, 0, T3);
        a.beqz(T4, wait);
        a.j(finish);
        // hart 1:
        a.bind(hart1);
        a.li(T1, counter);
        a.li(T2, 2);
        a.li(S0, 50);
        let l1 = a.bound_label();
        a.amoadd_d(ZERO, T2, T1);
        a.addi(S0, S0, -1);
        a.bnez(S0, l1);
        a.li(T3, done_flag);
        a.li(T4, 1);
        a.sd(T4, 0, T3);
        a.fence();
        // hart 1 exits with its own code
        a.li(A0, 0);
        a.ebreak();
        a.bind(finish);
        a.li(T1, counter);
        a.ld(A0, 0, T1);
        a.ebreak();
        let p = a.assemble();
        let mut cfg = tiny_cfg();
        cfg.cores = 2;
        let mut sys = XsSystem::new(cfg, &p);
        let code = sys.run(2_000_000);
        assert_eq!(code, Some(150), "50*1 + 50*2 from both harts");
    }

    /// Build the two-hart reservation-kill scenario: hart 0 takes an LR
    /// on `line`, signals hart 1, waits for hart 1 to store `0xaa` at
    /// `victim` and acknowledge, then attempts the SC back to `line`.
    /// Returns `(sc_result, final value at line)` packed by the program
    /// as `a0 = sc_result * 256 + (loaded & 0xff)`.
    fn run_cross_hart_sc(line: i64, victim: i64) -> (Option<u64>, XsSystem) {
        let flag = 0x8002_1000i64; // hart0 -> hart1: "LR taken"
        let ack = 0x8002_1040i64; // hart1 -> hart0: "store drained"
        let mut a = Asm::new(0x8000_0000);
        let hart1 = a.label();
        a.csrrs(T0, riscv_isa::csr::addr::MHARTID, ZERO);
        a.bnez(T0, hart1);
        // hart 0: reserve, signal, wait, attempt the SC.
        a.li(S0, line);
        a.lr_d(T1, S0);
        a.li(T2, 1);
        a.li(T3, flag);
        a.sd(T2, 0, T3);
        a.li(T3, ack);
        let wait = a.bound_label();
        a.ld(T4, 0, T3);
        a.beqz(T4, wait);
        a.li(T5, 7);
        a.sc_d(T6, T5, S0); // t6 = 0 on success, 1 on failure
        a.ld(A1, 0, S0);
        a.andi(A1, A1, 0xff);
        a.slli(A0, T6, 8);
        a.add(A0, A0, A1);
        a.ebreak();
        // hart 1: wait for the reservation, dirty the victim line, ack.
        a.bind(hart1);
        a.li(T3, flag);
        let spin = a.bound_label();
        a.ld(T4, 0, T3);
        a.beqz(T4, spin);
        a.li(S1, victim);
        a.li(T5, 0xaa);
        a.sd(T5, 0, S1);
        a.fence();
        a.li(T3, ack);
        a.li(T4, 1);
        a.sd(T4, 0, T3);
        a.li(A0, 0);
        a.ebreak();
        let p = a.assemble();
        let mut cfg = tiny_cfg();
        cfg.cores = 2;
        let mut sys = XsSystem::new(cfg, &p);
        let code = sys.run(2_000_000);
        (code, sys)
    }

    #[test]
    fn remote_store_kills_reservation() {
        // Hart 1 writes the very line hart 0 reserved: the SC must fail
        // and the remote value must survive.
        let line = 0x8002_0000i64;
        let (code, sys) = run_cross_hart_sc(line, line);
        assert_eq!(code, Some(0x1aa), "SC fails (1) and memory keeps 0xaa");
        assert!(
            sys.cores[0].perf.reservation_snoop_kills > 0,
            "the failure must come from the cross-hart snoop"
        );
        assert_eq!(sys.cores[0].perf.sc_successes, 0);
        assert_eq!(sys.cores[0].perf.sc_failures, 1);
    }

    #[test]
    fn remote_store_to_other_line_preserves_reservation() {
        // Negative control: hart 1 writes a different reservation granule;
        // hart 0's SC must succeed and its value must land.
        let line = 0x8002_0000i64;
        let (code, sys) = run_cross_hart_sc(line, line + 128);
        assert_eq!(code, Some(0x007), "SC succeeds (0) and stores 7");
        assert_eq!(sys.cores[0].perf.sc_successes, 1);
        assert_eq!(sys.cores[0].perf.sc_failures, 0);
    }

    #[test]
    fn fused_ops_commit_correctly() {
        // lui+addi and slli+add patterns fused (NH config has fusion on).
        let (code, sys) = run_program(
            |a| {
                a.lui(T0, 0x12345000);
                a.addi(T0, T0, 0x678);
                a.li(T1, 3);
                a.li(T2, 100);
                a.slli(T3, T1, 2);
                a.add(T3, T3, T2); // sh2add shape: 3*4+100 = 112
                a.sub(A0, T0, T3);
                a.ebreak();
            },
            50_000,
        );
        assert_eq!(code, Some(0x12345678 - 112));
        assert!(sys.cores[0].perf.fused_pairs > 0, "fusion must trigger");
    }

    #[test]
    fn move_elimination_triggers() {
        let (code, sys) = run_program(
            |a| {
                a.li(T0, 77);
                a.mv(T1, T0);
                a.mv(T2, T1);
                a.mv(A0, T2);
                a.ebreak();
            },
            50_000,
        );
        assert_eq!(code, Some(77));
        assert!(sys.cores[0].perf.moves_eliminated > 0);
    }

    /// A core's whole state as a comparable value: the predictor and TLB
    /// tables themselves (rendered they are a megabyte) and the rest of
    /// it rendered.
    fn state(core: &mut Core) -> (crate::bpu::Bpu, crate::tlbs::CoreMmu, String) {
        let bpu = std::mem::replace(&mut core.bpu, crate::bpu::Bpu::new(1, 1, 1, false, 0));
        let mmu = std::mem::replace(&mut core.mmu, crate::tlbs::CoreMmu::new(0, 0, 0, 0, 0));
        (bpu, mmu, format!("{core:?}"))
    }

    /// The skipper's contract, checked at every cycle of a `window` after
    /// `warm` and without reference to where the stages decide their
    /// progress. A tick in which no core reports progress must leave
    /// every core exactly where charging one idle cycle leaves it; and
    /// when it does and nothing is due on the next cycle, the next tick
    /// must report none either — ticking once more and charging one more
    /// idle cycle are then the same thing, which is all the skipper
    /// assumes. A stage that under-reports, or work that becomes due
    /// without an event, fails at the cycle it happens. Returns how many
    /// no-progress ticks were compared.
    fn check_skipper_contract(mut sys: XsSystem, warm: u64, window: u64) -> u64 {
        sys.run(warm);
        let (mut outs, mut checked) = (Vec::new(), 0);
        // The last tick made no progress and nothing was due on this one.
        let mut quiet = false;
        while sys.mem.cycle() < warm + window && !sys.all_halted() {
            let mut idle = sys.cores.clone();
            sys.tick_into(&mut outs);
            let cycle = sys.mem.cycle();
            let progressed = sys.cores.iter().any(|c| c.made_progress());
            assert!(!(quiet && progressed), "cycle {cycle}: work that nothing had scheduled");
            if !progressed {
                for core in &mut idle {
                    core.charge_idle_cycles(&sys.mem, 1);
                }
                let mut ticked = sys.cores.clone();
                let same = ticked.iter_mut().map(state).eq(idle.iter_mut().map(state));
                assert!(same, "cycle {cycle}: a tick that reported no progress did work");
                checked += 1;
            }
            let next = Some(cycle + 1);
            quiet = !progressed
                && sys.mem.next_event_cycle() != next
                && sys.cores.iter_mut().all(|c| c.next_event_cycle() != next);
        }
        checked
    }

    /// Requests the L1D turns away, retried every cycle with nothing else
    /// going on: an AMO starting, then a store draining, each into a line
    /// that a load miss holds with read permission only.
    fn port_rejections() -> riscv_isa::asm::Program {
        let mut a = Asm::new(0x8000_0000);
        a.li(S0, 0x8004_0000);
        a.li(S1, 0x8005_0000);
        a.li(T2, 60);
        a.li(T3, 7);
        a.div(T4, T2, T3); // holds the AMO off the ROB head ...
        a.amoadd_d(T5, T3, S0);
        a.ld(T0, 32, S0); // ... until this younger miss is in flight
        a.sd(T3, 0, S1); // retires at once, drains 20 cycles later ...
        a.ld(T1, 32, S1); // ... while this miss on its line is in flight
        a.add(A0, T0, T1);
        a.ebreak();
        a.assemble()
    }

    #[test]
    fn skipped_cycles_are_provable_no_ops() {
        use workloads::{random_litmus, random_program, workload, LitmusConfig, LitmusShape, Scale};
        // The debug build samples: the same programs, shorter windows.
        let window = if cfg!(debug_assertions) { 500 } else { 1_500 };
        let preset = |name: &str| XsConfig::preset(name).expect("preset exists");
        let mut checked = 0;
        for config in ["small-nh", "small-yqh"] {
            for seed in 0..4 {
                let sys = XsSystem::new(preset(config), &random_program(seed, &Default::default()));
                checked += check_skipper_contract(sys, 500, window);
            }
            for kernel in ["mcf", "lbm"] {
                let sys = XsSystem::new(preset(config), &workload(kernel, Scale::Test).program);
                checked += check_skipper_contract(sys, 20_000, window);
            }
            checked += check_skipper_contract(XsSystem::new(preset(config), &port_rejections()), 0, 1_000);
        }
        // Two harts: atomics, cross-hart snoops and a shared L3.
        for shape in [LitmusShape::Mp, LitmusShape::LrScContention] {
            let litmus = LitmusConfig { shape, ..Default::default() };
            let mut cfg = preset("small-nh");
            cfg.cores = 2;
            let sys = XsSystem::new(cfg, &random_litmus(1, &litmus));
            checked += check_skipper_contract(sys, 0, 2 * window);
        }
        assert!(checked > window, "the oracle found only {checked} no-progress ticks to check");
    }
}
