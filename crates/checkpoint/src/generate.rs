//! Checkpoint generation with NEMU (paper §III-D3: "checkpoints can be
//! efficiently generated using NEMU").
//!
//! The generator executes the program on a NEMU hart, collecting a
//! basic-block vector per fixed-length instruction interval and cloning
//! the (copy-on-write) architectural state + memory at every interval
//! boundary. SimPoint clustering then selects the representative
//! intervals, and only their checkpoints are kept.

use crate::format::Checkpoint;
use crate::simpoint::{simpoints, BbvCollector, SimPoint};
use nemu::registry::DEFAULT_REF_NAME;
use riscv_isa::asm::Program;
use riscv_isa::mem::SparseMemory;
use riscv_isa::state::ArchState;

/// Seed of the k-means++ clustering pass — pinned so interval selection
/// is deterministic across runs, platforms, and profiling personalities.
pub const CLUSTER_SEED: u64 = 0xdead_beef;

/// Result of profiling + checkpointing one program.
#[derive(Debug)]
pub struct CheckpointSet {
    /// Selected checkpoints (one per SimPoint cluster), interval order.
    pub checkpoints: Vec<Checkpoint>,
    /// The SimPoint selection.
    pub points: Vec<SimPoint>,
    /// Total dynamic instructions profiled.
    pub total_instructions: u64,
    /// Interval length used.
    pub interval_len: u64,
    /// Total intervals profiled (the weight denominator: a final partial
    /// interval counts).
    pub total_intervals: u64,
}

/// The profiler's view of an interpreter: every basic block, recorded
/// into the interval's BBV.
impl nemu::CommitSink for BbvCollector {
    fn granularity(&self) -> nemu::Granularity {
        nemu::Granularity::Block
    }
    fn block(&mut self, pc: u64, len: u64) {
        self.record(pc, len);
    }
}

/// Generate SimPoint checkpoints for `program` using the default NEMU
/// uop-cache tier as the profiling engine.
///
/// `interval_len` is the interval size in instructions (the paper uses
/// tens of millions for SPEC; tests use thousands), `k` the maximum
/// number of clusters.
///
/// # Panics
///
/// Panics if the program does not halt within `max_insts`.
pub fn generate_checkpoints(
    program: &Program,
    interval_len: u64,
    k: usize,
    max_insts: u64,
) -> CheckpointSet {
    generate_checkpoints_with_ref(DEFAULT_REF_NAME, program, interval_len, k, max_insts)
}

/// [`generate_checkpoints`] with an explicit profiling personality from
/// [`nemu::registry`] (the campaign's `--ref` flag ends up here: the
/// superblock `nemu-trace` tier is the fast choice for long workloads).
/// All personalities execute the identical architectural stream — the
/// conformance tier pins that — so the BBVs, the clustering, and the
/// selected checkpoints do not depend on this choice.
///
/// # Panics
///
/// Panics on an unknown personality name or a program that does not
/// halt within `max_insts`.
pub fn generate_checkpoints_with_ref(
    ref_name: &str,
    program: &Program,
    interval_len: u64,
    k: usize,
    max_insts: u64,
) -> CheckpointSet {
    let mut interp = nemu::registry::boot(ref_name, program)
        .unwrap_or_else(|| panic!("unknown profiling personality `{ref_name}`"));

    let mut bbv = BbvCollector::new();
    let mut vectors: Vec<Vec<f64>> = Vec::new();
    // Boundary snapshots: (state, memory, instret) per interval start.
    let mut boundaries: Vec<(ArchState, SparseMemory, u64)> =
        vec![(interp.hart().state.clone(), interp.mem_mut().clone(), 0)];

    let mut executed = 0u64;
    while !interp.hart().is_halted() {
        assert!(executed < max_insts, "program did not halt while profiling");
        // Fuel is what is left of the interval, so the tier's block
        // stream breaks exactly at the boundary (the partial block is
        // reported, the next call starts a fresh one at the resume pc).
        let in_interval = bbv.instructions();
        let fuel = (interval_len - in_interval).min(max_insts - executed);
        interp.run_until(fuel, &mut bbv);
        executed += bbv.instructions() - in_interval;
        if bbv.instructions() == interval_len {
            vectors.push(bbv.finish());
            boundaries.push((interp.hart().state.clone(), interp.mem_mut().clone(), executed));
        }
    }
    // Final partial interval.
    if bbv.instructions() > 0 {
        vectors.push(bbv.finish());
    }
    assert!(!vectors.is_empty(), "program too short for one interval");

    let total_intervals = vectors.len() as u64;
    let points = simpoints(&vectors, k, CLUSTER_SEED);
    let checkpoints = points
        .iter()
        .map(|p| {
            let (state, memory, instret) = boundaries[p.interval].clone();
            Checkpoint {
                state,
                memory,
                instret,
                weight: p.weight,
                members: p.members,
                total_intervals,
                interval: p.interval,
            }
        })
        .collect();
    CheckpointSet {
        checkpoints,
        points,
        total_instructions: executed,
        interval_len,
        total_intervals,
    }
}

/// Re-derive the single checkpoint at `interval` without clustering:
/// execute `interval × interval_len` instructions and snapshot. This is
/// the recipe a triage bundle stores — `(workload, personality,
/// interval_len, interval)` rebuilds the exact state a sample job ran
/// from, keeping bundles free of memory images.
///
/// # Panics
///
/// Panics on an unknown personality name or if the program halts before
/// reaching the boundary.
pub fn checkpoint_at_interval(
    ref_name: &str,
    program: &Program,
    interval_len: u64,
    interval: u64,
) -> Checkpoint {
    let mut interp = nemu::registry::boot(ref_name, program)
        .unwrap_or_else(|| panic!("unknown profiling personality `{ref_name}`"));
    let target = interval * interval_len;
    let ran = interp.run(target);
    assert!(
        !interp.hart().is_halted() || ran.instructions == target,
        "program halted at {} instructions, before interval {interval}",
        ran.instructions
    );
    Checkpoint {
        state: interp.hart().state.clone(),
        memory: interp.mem_mut().clone(),
        instret: target,
        weight: 0.0,
        members: 0,
        total_intervals: 0,
        interval: interval as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemu::hart::{self, Hart};
    use riscv_isa::asm::{reg::*, Asm};

    /// A two-phase program: a multiply-heavy phase then a memory phase.
    fn two_phase_program() -> Program {
        let mut a = Asm::new(0x8000_0000);
        // Phase 1: arithmetic.
        a.li(S0, 0);
        a.li(S1, 4000);
        a.li(A0, 1);
        let p1 = a.bound_label();
        a.mul(A0, A0, S1);
        a.xor(A0, A0, S0);
        a.addi(S0, S0, 1);
        a.bne(S0, S1, p1);
        // Phase 2: memory streaming.
        a.li(S0, 0);
        a.li(S2, 0x8002_0000);
        let p2 = a.bound_label();
        a.slli(T0, S0, 3);
        a.add(T0, T0, S2);
        a.sd(S0, 0, T0);
        a.ld(T1, 0, T0);
        a.add(A0, A0, T1);
        a.addi(S0, S0, 1);
        a.bne(S0, S1, p2);
        a.andi(A0, A0, -1); // meant 0xffff; a 12-bit immediate holds only -1
        a.ebreak();
        a.assemble()
    }

    #[test]
    fn generates_weighted_checkpoints() {
        let p = two_phase_program();
        let set = generate_checkpoints(&p, 2_000, 4, 10_000_000);
        assert!(set.total_instructions > 20_000);
        assert!(!set.checkpoints.is_empty());
        assert!(set.checkpoints.len() <= 4);
        let wsum: f64 = set.points.iter().map(|p| p.weight).sum();
        assert!((wsum - 1.0).abs() < 1e-9);
        // Checkpoints sit at interval boundaries.
        for c in &set.checkpoints {
            assert_eq!(c.instret % 2_000, 0);
        }
    }

    #[test]
    fn checkpoints_resume_exactly() {
        // Resuming NEMU from each checkpoint and running to the end must
        // give the same exit code as an uninterrupted run.
        let p = two_phase_program();
        let mut full = nemu::Nemu::new(&p);
        use nemu::Interpreter;
        let expected = full.run(10_000_000).exit_code.expect("halts");

        let set = generate_checkpoints(&p, 3_000, 3, 10_000_000);
        for c in &set.checkpoints {
            let mut h = Hart::new(c.state.pc, 0);
            h.state = c.state.clone();
            let mut mem = c.memory.clone();
            for _ in 0..10_000_000u64 {
                if h.is_halted() {
                    break;
                }
                hart::step(&mut h, &mut mem);
            }
            assert_eq!(h.halted, Some(expected), "checkpoint {:?}", c);
        }
    }

    #[test]
    fn phases_map_to_distinct_simpoints() {
        let p = two_phase_program();
        let set = generate_checkpoints(&p, 2_000, 2, 10_000_000);
        // Phase 1 executes ~16k instructions (4000 iterations x 4 insts),
        // i.e. intervals 0..8; phase 2 fills the rest. With k=2 the two
        // representatives must fall on opposite sides of that boundary.
        assert_eq!(set.points.len(), 2, "{:?}", set.points);
        let boundary = 16_000 / set.interval_len as usize;
        let (a, b) = (set.points[0].interval, set.points[1].interval);
        assert!(
            (a < boundary) != (b < boundary),
            "points {:?} boundary {boundary}",
            set.points
        );
    }

    #[test]
    fn profiling_personality_does_not_change_the_selection() {
        // All registry personalities execute the identical architectural
        // stream, so the BBVs — and therefore the clustering and the
        // selected boundary states — must be identical too.
        let p = two_phase_program();
        let base = generate_checkpoints_with_ref("nemu", &p, 2_000, 3, 10_000_000);
        for name in ["nemu-trace", "spike-like"] {
            let other = generate_checkpoints_with_ref(name, &p, 2_000, 3, 10_000_000);
            assert_eq!(other.total_instructions, base.total_instructions, "{name}");
            assert_eq!(other.total_intervals, base.total_intervals, "{name}");
            assert_eq!(other.points, base.points, "{name}");
            for (a, b) in other.checkpoints.iter().zip(&base.checkpoints) {
                assert_eq!(a.state, b.state, "{name}");
                assert_eq!(a.instret, b.instret, "{name}");
            }
        }
    }

    #[test]
    fn checkpoint_at_interval_matches_the_profiled_boundary() {
        let p = two_phase_program();
        let set = generate_checkpoints(&p, 2_000, 4, 10_000_000);
        for c in &set.checkpoints {
            let again = checkpoint_at_interval("nemu", &p, 2_000, c.interval as u64);
            assert_eq!(again.state, c.state, "interval {}", c.interval);
            assert_eq!(again.instret, c.instret);
        }
    }

    #[test]
    #[should_panic(expected = "did not halt")]
    fn non_halting_program_is_detected() {
        let mut a = Asm::new(0x8000_0000);
        let l = a.bound_label();
        a.j(l);
        let p = a.assemble();
        let _ = generate_checkpoints(&p, 1_000, 2, 50_000);
    }
}
