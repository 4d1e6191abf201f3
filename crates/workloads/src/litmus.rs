//! Multi-hart litmus / torture generator with an allowed-outcome oracle.
//!
//! Emits deterministic two-hart bare-metal programs exercising the
//! classic memory-model shapes — MP, SB, LB, CoRR, CoWW, 2+2W — plus
//! randomized LR/SC-contention and fence/fence.i/sfence-ordering
//! torture. Each program is *self-checking*: the harts run a sequence
//! of synchronized rounds, every round records its observations into a
//! disjoint per-round result region, and hart 0 compares the combined
//! observation index against a generator-computed 64-bit allowed-set
//! mask (the SC interleavings plus the RVWMO relaxations explicitly
//! permitted for the shape). The final `a0` packs the verdict, so the
//! campaign layer can raise a `ForbiddenOutcome` divergence without any
//! out-of-band channel — exactly the self-checking concurrent stimulus
//! style FERIVer argues multi-core verification throughput needs.
//!
//! Like [`TortureProgram`](crate::TortureProgram), generation is split
//! in two phases so failing programs minimize: [`LitmusProgram::generate`]
//! derives an abstract per-round list from the seed and
//! [`LitmusProgram::emit_subset`] assembles any kept-subset of rounds
//! (dispatch prologue and exit epilogue always included). `(seed,
//! config, mask)` is a complete reproducer.
//!
//! # Why the oracle is needed at all
//!
//! The per-hart DiffTest already runs commit-for-commit, but its
//! global-memory rule accepts any load value that appeared *recently*
//! at the address — it checks values, not orderings. A coherence bug
//! that serves a stale-but-historic value is invisible to it. The
//! allowed-outcome sets close that gap: an observation pair outside the
//! shape's set is flagged even though every individual load passed the
//! value check.
//!
//! # Observation encoding
//!
//! Litmus cells are 8-byte values on private cache lines. Written
//! values are `0xff` (first write) and `0xfe` (second write, CoWW /
//! 2+2W), so every observed value maps to a digit: `0 → 0`, `0xff → 1`,
//! `0xfe → 2`, anything else → 3 (wild, always forbidden). An outcome
//! index is `digit0 * 4 + digit1`, and the allowed set is a 64-bit mask
//! over indices. The exit code packs (status, round-0 outcome, first
//! bad round, first bad outcome) into `a0` bytes 0..4 — see
//! [`LitmusExit::decode`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use riscv_isa::asm::{reg, Asm, Program};
use riscv_isa::csr::addr::MHARTID;
use riscv_isa::op::{DecodedInst, Op};
use serde::{Deserialize, Serialize};

/// Litmus cells live here, away from the code image (same region the
/// torture generator sandboxes its accesses into).
pub const SANDBOX: i64 = 0x8004_0000;
/// Bytes reserved per round: four cells on distinct cache lines.
pub const ROUND_STRIDE: i64 = 256;
/// Cell offsets within a round's block (one 64-byte line each).
pub const GO_OFF: i64 = 0;
pub const X_OFF: i64 = 64;
pub const Y_OFF: i64 = 128;
pub const RES_OFF: i64 = 192;
/// First written value (digit 1). Chosen so the §IV-C probe/grant race
/// (which XORs `0xff` into the line) maps the value onto the *other*
/// legal value — the corruption stays invisible to the per-value
/// DiffTest rule and only the outcome oracle can catch it.
pub const VAL1: i64 = 0xff;
/// Second written value (digit 2).
pub const VAL2: i64 = 0xfe;
/// Go-flag token. The handshake bit lives in byte 1 because the §IV-C
/// probe/grant race corrupts bytes 0 and 8 of a line: a byte-0 go flag
/// would soak up every injection as a silent spin stall, pushing the
/// observation-cell probes out of the fault's race window.
pub const GO_TOKEN: i64 = 0x100;
/// Bounded-spin iteration budgets. Spins must be bounded so a desynced
/// (or fault-injected) partner can never deadlock the program: on
/// exhaustion the round proceeds (go) or records a sync timeout (res).
pub const GO_SPIN: i64 = 1 << 12;
pub const RES_SPIN: i64 = 1 << 16;
/// Registers the per-round filler may clobber.
const FILLER_WINDOW: [u8; 5] = [reg::A6, reg::A7, reg::S9, reg::S10, reg::S11];

/// Exit-code status values (byte 0 of `a0`).
pub mod status {
    /// Every kept round's outcome was in the allowed set.
    pub const OK: u64 = 0;
    /// At least one round observed a forbidden outcome.
    pub const FORBIDDEN: u64 = 1;
    /// A result spin exhausted its budget (partner hart missing or
    /// desynced); no outcome claim is made for that round.
    pub const SYNC_TIMEOUT: u64 = 2;
}

/// The litmus shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LitmusShape {
    /// Message passing: h0 stores data then flag; h1 loads flag then
    /// data. Forbidden (fenced): flag seen, data stale.
    Mp,
    /// Store buffering: each hart stores its own cell then loads the
    /// other's. Forbidden (fenced): both loads miss both stores.
    Sb,
    /// Load buffering: each hart loads the other's cell then stores its
    /// own. Forbidden (fenced): both loads see both stores.
    Lb,
    /// Coherent read-read: h1 reads the same cell twice
    /// (dependency-ordered). Forbidden always: new value then old.
    CoRR,
    /// Coherent write-write: h0 writes the cell twice; h1 reads twice
    /// (dependency-ordered). Forbidden always: later write then earlier.
    CoWW,
    /// 2+2W: both harts write both cells in opposite orders; h0 reads
    /// the final state. Forbidden (fenced): the cyclic final state.
    TwoPlusTwoW,
    /// Both harts increment a shared counter with bounded LR/SC retry
    /// loops. Forbidden always: final counter differs from the summed
    /// per-hart success counts (a lost update).
    LrScContention,
    /// MP with a randomized serializer (`fence` / `fence.i` / both /
    /// `sfence.vma`) drawn per round per hart. Rounds where both sides
    /// drew a full `fence` pin the SC-only set; others stay relaxed.
    FenceTorture,
}

impl LitmusShape {
    /// All shapes, stable order (fuzz mutation and docs iterate this).
    pub const ALL: [LitmusShape; 8] = [
        LitmusShape::Mp,
        LitmusShape::Sb,
        LitmusShape::Lb,
        LitmusShape::CoRR,
        LitmusShape::CoWW,
        LitmusShape::TwoPlusTwoW,
        LitmusShape::LrScContention,
        LitmusShape::FenceTorture,
    ];

    /// Stable slug for reports and CLI flags.
    pub fn slug(&self) -> &'static str {
        match self {
            LitmusShape::Mp => "mp",
            LitmusShape::Sb => "sb",
            LitmusShape::Lb => "lb",
            LitmusShape::CoRR => "corr",
            LitmusShape::CoWW => "coww",
            LitmusShape::TwoPlusTwoW => "2+2w",
            LitmusShape::LrScContention => "lrsc",
            LitmusShape::FenceTorture => "fence",
        }
    }
}

/// A serializer drawn for a [`LitmusShape::FenceTorture`] round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SerKind {
    /// `fence` — a full barrier in the DUT (drains the store buffer and
    /// flushes younger instructions).
    Fence,
    /// `fence.i` — instruction-stream synchronization.
    FenceI,
    /// `fence; fence.i`.
    FenceFenceI,
    /// `sfence.vma x0, x0` (legal in M-mode).
    SfenceVma,
}

impl SerKind {
    /// Whether this serializer is a full memory barrier the oracle may
    /// rely on. Only a real `fence` tightens the allowed set; the
    /// others are emitted for pipeline/flush coverage and keep the
    /// relaxed set (sound over-approximation).
    pub fn is_full_barrier(&self) -> bool {
        matches!(self, SerKind::Fence | SerKind::FenceFenceI)
    }
}

/// Generator knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LitmusConfig {
    /// Which litmus shape every round runs.
    pub shape: LitmusShape,
    /// Insert the shape's ordering fences, pinning the SC-only allowed
    /// set; unfenced rounds allow the RVWMO relaxations too.
    pub fenced: bool,
    /// Synchronized rounds (the minimizable slots).
    pub rounds: usize,
    /// Maximum random ALU filler ops per hart per round (jitters the
    /// race timing).
    pub filler: usize,
    /// LR/SC increments per hart per round (LrScContention only).
    pub lrsc_iters: usize,
}

impl Default for LitmusConfig {
    fn default() -> Self {
        LitmusConfig {
            shape: LitmusShape::Mp,
            fenced: true,
            rounds: 4,
            filler: 2,
            lrsc_iters: 4,
        }
    }
}

impl LitmusConfig {
    /// Clamp numeric knobs into the range the generator (and the
    /// campaign's cycle budget) can handle; fuzz mutators rely on this.
    pub fn clamped(mut self) -> Self {
        self.rounds = self.rounds.clamp(1, 24);
        self.filler = self.filler.min(8);
        self.lrsc_iters = self.lrsc_iters.clamp(1, 8);
        self
    }
}

/// One abstract round: the per-hart filler draw plus the serializers a
/// FenceTorture round uses. Each round occupies one kept-mask slot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LitmusRound {
    /// Hart-0 serializer (FenceTorture; `Fence` otherwise).
    pub ser0: SerKind,
    /// Hart-1 serializer (FenceTorture; `Fence` otherwise).
    pub ser1: SerKind,
    /// Pre-encoded ALU filler words for hart 0 (filler window only).
    pub filler0: Vec<u32>,
    /// Pre-encoded ALU filler words for hart 1.
    pub filler1: Vec<u32>,
}

/// A litmus program in abstract form: seed-derived rounds plus
/// everything needed to re-emit any subset of them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LitmusProgram {
    /// The generating seed.
    pub seed: u64,
    /// The generator knobs used.
    pub cfg: LitmusConfig,
    /// Abstract rounds (length `cfg.rounds`).
    pub rounds: Vec<LitmusRound>,
}

/// The decoded exit code of a litmus program (hart 0's `a0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LitmusExit {
    /// Status byte — see [`status`].
    pub status: u64,
    /// Outcome index observed by (original) round 0, when it ran.
    pub round0_outcome: u8,
    /// First round that observed a forbidden outcome.
    pub first_bad_round: u8,
    /// The forbidden outcome index that round observed.
    pub first_bad_outcome: u8,
}

impl LitmusExit {
    /// Decode a packed `a0` exit value.
    pub fn decode(a0: u64) -> Self {
        LitmusExit {
            status: a0 & 0xff,
            round0_outcome: ((a0 >> 8) & 0xff) as u8,
            first_bad_round: ((a0 >> 16) & 0xff) as u8,
            first_bad_outcome: ((a0 >> 24) & 0xff) as u8,
        }
    }

    /// Whether the program observed a forbidden outcome.
    pub fn forbidden(&self) -> bool {
        self.status == status::FORBIDDEN
    }

    /// Human-readable outcome digits (`"d0=1,d1=0"`).
    pub fn describe_outcome(idx: u8) -> String {
        format!("d0={},d1={}", (idx >> 2) & 0xf, idx & 0x3)
    }
}

/// The allowed-outcome mask for a shape: SC interleavings plus the
/// RVWMO relaxations the unfenced variant explicitly permits. Bit `i`
/// set means outcome index `i` (`digit0 * 4 + digit1`) is legal.
pub fn allowed_mask(shape: LitmusShape, fenced: bool) -> u64 {
    const fn bits(idxs: &[u64]) -> u64 {
        let mut m = 0;
        let mut i = 0;
        while i < idxs.len() {
            m |= 1 << idxs[i];
            i += 1;
        }
        m
    }
    match (shape, fenced) {
        // (flag, data): SC forbids seeing the flag without the data;
        // unfenced load-load reordering legally produces it.
        (LitmusShape::Mp, true) | (LitmusShape::FenceTorture, true) => bits(&[0, 1, 5]),
        (LitmusShape::Mp, false) | (LitmusShape::FenceTorture, false) => bits(&[0, 1, 4, 5]),
        // (r0, r1): SC forbids both loads missing both stores; store
        // buffering legally produces it unfenced.
        (LitmusShape::Sb, true) => bits(&[1, 4, 5]),
        (LitmusShape::Sb, false) => bits(&[0, 1, 4, 5]),
        // (r0, r1): SC forbids both loads seeing both stores.
        (LitmusShape::Lb, true) => bits(&[0, 1, 4]),
        (LitmusShape::Lb, false) => bits(&[0, 1, 4, 5]),
        // Same-address coherence: never relaxed, fenced or not.
        (LitmusShape::CoRR, _) => bits(&[0, 1, 5]),
        (LitmusShape::CoWW, _) => bits(&[0, 1, 2, 5, 6, 10]),
        // Final state (x, y) with h0 writing VAL1 and h1 VAL2: the
        // cyclic state (VAL1, VAL2) is SC-forbidden.
        (LitmusShape::TwoPlusTwoW, true) => bits(&[5, 9, 10]),
        (LitmusShape::TwoPlusTwoW, false) => bits(&[5, 6, 9, 10]),
        // Outcome 0 = counter consistent with the summed successes.
        (LitmusShape::LrScContention, _) => bits(&[0]),
    }
}

/// Random reg-reg ALU op over the filler window, pre-encoded.
fn filler_word(rng: &mut StdRng) -> u32 {
    const OPS: [Op; 8] = [
        Op::Add,
        Op::Sub,
        Op::Xor,
        Op::Or,
        Op::And,
        Op::Mul,
        Op::Slt,
        Op::Sltu,
    ];
    let r = |rng: &mut StdRng| FILLER_WINDOW[rng.gen_range(0..FILLER_WINDOW.len())];
    riscv_isa::encode::encode(&DecodedInst {
        op: OPS[rng.gen_range(0..OPS.len())],
        rd: r(rng),
        rs1: r(rng),
        rs2: r(rng),
        ..Default::default()
    })
    .expect("filler op encodes")
}

impl LitmusProgram {
    /// Deterministically derive the abstract rounds from `seed`.
    pub fn generate(seed: u64, cfg: &LitmusConfig) -> Self {
        let cfg = cfg.clamped();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1117_05c0_ffee_b01d);
        let ser = |rng: &mut StdRng| match rng.gen_range(0u32..4) {
            0 => SerKind::Fence,
            1 => SerKind::FenceI,
            2 => SerKind::FenceFenceI,
            _ => SerKind::SfenceVma,
        };
        let rounds = (0..cfg.rounds)
            .map(|_| {
                let (ser0, ser1) = if cfg.shape == LitmusShape::FenceTorture {
                    (ser(&mut rng), ser(&mut rng))
                } else {
                    (SerKind::Fence, SerKind::Fence)
                };
                let n0 = rng.gen_range(0..=cfg.filler);
                let filler0 = (0..n0).map(|_| filler_word(&mut rng)).collect();
                let n1 = rng.gen_range(0..=cfg.filler);
                let filler1 = (0..n1).map(|_| filler_word(&mut rng)).collect();
                LitmusRound {
                    ser0,
                    ser1,
                    filler0,
                    filler1,
                }
            })
            .collect();
        LitmusProgram { seed, cfg, rounds }
    }

    /// Number of rounds (the kept-mask length).
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Whether there are no rounds.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// The allowed mask round `k` checks (FenceTorture rounds tighten
    /// to the SC set only when both drawn serializers are full fences).
    pub fn round_mask(&self, k: usize) -> u64 {
        if self.cfg.shape == LitmusShape::FenceTorture {
            let r = &self.rounds[k];
            allowed_mask(
                LitmusShape::FenceTorture,
                r.ser0.is_full_barrier() && r.ser1.is_full_barrier(),
            )
        } else {
            allowed_mask(self.cfg.shape, self.cfg.fenced)
        }
    }

    /// Assemble the full program (every round kept).
    pub fn emit(&self) -> Program {
        self.emit_subset(&vec![true; self.rounds.len()])
    }

    /// Assemble a runnable two-hart program containing only the rounds
    /// whose mask entry is `true`.
    ///
    /// The MHARTID dispatch, register seeding and exit epilogues are
    /// always emitted, and dropped rounds are dropped from *both*
    /// harts, so any subset terminates on both harts with a valid exit
    /// code. Kept rounds keep their original result region (cells are
    /// addressed by original round index), so a minimized reproducer
    /// races over the same lines the full program did.
    ///
    /// # Panics
    ///
    /// Panics when `keep.len() != self.len()`.
    pub fn emit_subset(&self, keep: &[bool]) -> Program {
        use reg::*;
        assert_eq!(
            keep.len(),
            self.rounds.len(),
            "kept-mask length must equal round count"
        );
        let mut a = Asm::new(0x8000_0000);
        a.csrrs(T0, MHARTID, ZERO);
        let h0 = a.label();
        let h1 = a.label();
        a.beqz(T0, h0);
        a.j(h1);

        // ----- hart 0: driver, checker ---------------------------------
        a.bind(h0);
        a.li(S4, 0); // status
        a.li(S5, 0); // first bad round
        a.li(S6, 0); // first bad outcome
        a.li(S7, 0); // round-0 outcome
        self.seed_filler(&mut a, 0);
        for (k, (round, &kept)) in self.rounds.iter().zip(keep).enumerate() {
            if kept {
                self.emit_hart0_round(&mut a, k, round);
            }
        }
        // a0 = status | round0_outcome << 8 | bad_round << 16 | bad_outcome << 24
        a.mv(A0, S4);
        a.slli(T1, S7, 8);
        a.or(A0, A0, T1);
        a.slli(T1, S5, 16);
        a.or(A0, A0, T1);
        a.slli(T1, S6, 24);
        a.or(A0, A0, T1);
        a.ebreak();

        // ----- hart 1: partner, reporter -------------------------------
        a.bind(h1);
        self.seed_filler(&mut a, 1);
        for (k, (round, &kept)) in self.rounds.iter().zip(keep).enumerate() {
            if kept {
                self.emit_hart1_round(&mut a, k, round);
            }
        }
        a.li(A0, 0);
        a.ebreak();
        a.assemble()
    }

    /// Seed the filler window with deterministic per-hart junk.
    fn seed_filler(&self, a: &mut Asm, hart: i64) {
        for (i, &r) in FILLER_WINDOW.iter().enumerate() {
            a.li(
                r,
                (self.seed as i64)
                    .wrapping_mul(i as i64 + 2 * hart + 1)
                    ^ 0x5a5a,
            );
        }
    }

    fn emit_hart0_round(&self, a: &mut Asm, k: usize, round: &LitmusRound) {
        use reg::*;
        let shape = self.cfg.shape;
        let fenced = self.cfg.fenced;
        a.li(S3, SANDBOX + k as i64 * ROUND_STRIDE);
        // Release this round's go flag. The token lives in byte 1 of the
        // go word: the L2 probe/grant race fault corrupts bytes 0 and 8 of
        // a line, so a byte-0 handshake would absorb every injection into
        // a silent spin-budget stall. Byte 1 keeps the handshake clean and
        // the race window tight for the observation cells.
        a.li(T1, GO_TOKEN);
        a.sd(T1, GO_OFF, S3);
        for &w in &round.filler0 {
            a.raw32(w);
        }
        match shape {
            LitmusShape::Mp => {
                a.li(T5, VAL1);
                a.sd(T5, X_OFF, S3); // data
                if fenced {
                    a.fence();
                }
                a.sd(T5, Y_OFF, S3); // flag
            }
            LitmusShape::Sb => {
                a.li(T5, VAL1);
                a.sd(T5, X_OFF, S3);
                if fenced {
                    a.fence();
                }
                a.ld(A3, Y_OFF, S3); // r0
            }
            LitmusShape::Lb => {
                a.ld(A3, X_OFF, S3); // r0
                if fenced {
                    a.fence();
                }
                a.li(T5, VAL1);
                a.sd(T5, Y_OFF, S3);
            }
            LitmusShape::CoRR => {
                a.li(T5, VAL1);
                a.sd(T5, X_OFF, S3);
            }
            LitmusShape::CoWW => {
                a.li(T5, VAL1);
                a.sd(T5, X_OFF, S3);
                if fenced {
                    a.fence();
                }
                a.li(T5, VAL2);
                a.sd(T5, X_OFF, S3);
            }
            LitmusShape::TwoPlusTwoW => {
                a.li(T5, VAL1);
                a.sd(T5, X_OFF, S3);
                if fenced {
                    a.fence();
                }
                a.sd(T5, Y_OFF, S3);
            }
            LitmusShape::LrScContention => emit_lrsc_increments(a, self.cfg.lrsc_iters),
            LitmusShape::FenceTorture => {
                a.li(T5, VAL1);
                a.sd(T5, X_OFF, S3); // data
                emit_serializer(a, round.ser0);
                a.sd(T5, Y_OFF, S3); // flag
            }
        }
        // Scaffolding barrier: this hart's stores are globally visible
        // before result collection (not part of the raced accesses).
        a.fence();
        // Bounded spin for hart 1's packed result (sentinel bit 16).
        a.li(T2, RES_SPIN);
        let spin = a.bound_label();
        let have = a.label();
        let round_end = a.label();
        a.ld(A2, RES_OFF, S3);
        a.srli(T3, A2, 16);
        a.bnez(T3, have);
        a.addi(T2, T2, -1);
        a.bnez(T2, spin);
        // Partner missing or desynced: record and move on, claiming
        // nothing about this round's outcome.
        a.bnez(S4, round_end);
        a.li(S4, status::SYNC_TIMEOUT as i64);
        a.j(round_end);
        a.bind(have);
        // Combine observations into the outcome index (T1).
        match shape {
            LitmusShape::Mp
            | LitmusShape::CoRR
            | LitmusShape::CoWW
            | LitmusShape::FenceTorture => {
                // Both digits ride in hart 1's payload: d0*16 + d1.
                a.srli(T5, A2, 4);
                a.andi(T5, T5, 0xf);
                a.andi(T6, A2, 0xf);
                a.slli(T5, T5, 2);
                a.add(T1, T5, T6);
            }
            LitmusShape::Sb | LitmusShape::Lb => {
                // digit0 is this hart's observation, digit1 hart 1's.
                emit_digit_of(a, A3, T5, T3, T4);
                a.andi(T6, A2, 0xf);
                a.slli(T5, T5, 2);
                a.add(T1, T5, T6);
            }
            LitmusShape::TwoPlusTwoW => {
                // Read the final state, address-dependent on the result
                // so the loads cannot hoist above the spin exit.
                a.andi(T5, A2, 0);
                a.add(T5, T5, S3);
                a.ld(A3, X_OFF, T5);
                a.ld(A4, Y_OFF, T5);
                emit_digit_of(a, A3, T5, T3, T4);
                emit_digit_of(a, A4, T6, T3, T4);
                a.slli(T5, T5, 2);
                a.add(T1, T5, T6);
            }
            LitmusShape::LrScContention => {
                // expected = own successes + partner successes (payload).
                a.slli(T5, A2, 48);
                a.srli(T5, T5, 48);
                a.add(T5, T5, A4);
                // Dependency-ordered read of the final counter.
                a.andi(T6, A2, 0);
                a.add(T6, T6, S3);
                a.ld(A3, X_OFF, T6);
                a.sub(T6, A3, T5);
                a.sltu(T1, ZERO, T6); // 1 on any lost/extra update
            }
        }
        if k == 0 {
            a.mv(S7, T1);
        }
        // Check the outcome index against the round's allowed mask.
        a.li(T3, self.round_mask(k) as i64);
        a.srl(T4, T3, T1);
        a.andi(T4, T4, 1);
        a.bnez(T4, round_end);
        a.bnez(S4, round_end);
        a.li(S4, status::FORBIDDEN as i64);
        a.li(S5, k as i64);
        a.mv(S6, T1);
        a.bind(round_end);
    }

    fn emit_hart1_round(&self, a: &mut Asm, k: usize, round: &LitmusRound) {
        use reg::*;
        let shape = self.cfg.shape;
        let fenced = self.cfg.fenced;
        a.li(S3, SANDBOX + k as i64 * ROUND_STRIDE);
        // Bounded spin on byte 1 of the go flag (byte 0 is fault-injection
        // bait); a corrupted (or missing) flag only costs the spin budget,
        // never a deadlock.
        a.li(T2, GO_SPIN);
        let gspin = a.bound_label();
        let go_ok = a.label();
        a.lbu(T1, GO_OFF + 1, S3);
        a.bnez(T1, go_ok);
        a.addi(T2, T2, -1);
        a.bnez(T2, gspin);
        a.bind(go_ok);
        for &w in &round.filler1 {
            a.raw32(w);
        }
        // Run this side's accesses; leave the packed payload in A5.
        match shape {
            LitmusShape::Mp => {
                a.ld(A3, Y_OFF, S3); // flag
                if fenced {
                    a.fence();
                }
                a.ld(A4, X_OFF, S3); // data
                emit_pack2(a);
            }
            LitmusShape::Sb => {
                a.li(T5, VAL1);
                a.sd(T5, Y_OFF, S3);
                if fenced {
                    a.fence();
                }
                a.ld(A4, X_OFF, S3); // r1
                emit_digit_of(a, A4, T6, T3, T4);
                a.mv(A5, T6);
            }
            LitmusShape::Lb => {
                a.ld(A4, Y_OFF, S3); // r1
                if fenced {
                    a.fence();
                }
                a.li(T5, VAL1);
                a.sd(T5, X_OFF, S3);
                emit_digit_of(a, A4, T6, T3, T4);
                a.mv(A5, T6);
            }
            LitmusShape::CoRR | LitmusShape::CoWW => {
                a.ld(A3, X_OFF, S3);
                // Address-dependency orders the second read after the
                // first (the DUT has no same-address load-load order).
                a.andi(T5, A3, 0);
                a.add(T5, T5, S3);
                a.ld(A4, X_OFF, T5);
                emit_pack2(a);
            }
            LitmusShape::TwoPlusTwoW => {
                a.li(T5, VAL2);
                a.sd(T5, Y_OFF, S3);
                if fenced {
                    a.fence();
                }
                a.sd(T5, X_OFF, S3);
                a.li(A5, 0);
            }
            LitmusShape::LrScContention => {
                emit_lrsc_increments(a, self.cfg.lrsc_iters);
                a.mv(A5, A4);
            }
            LitmusShape::FenceTorture => {
                a.ld(A3, Y_OFF, S3); // flag
                emit_serializer(a, round.ser1);
                a.ld(A4, X_OFF, S3); // data
                emit_pack2(a);
            }
        }
        // res := sentinel | payload. The spin-load on hart 0 carries
        // the payload through a true data dependency, so no separate
        // (reorderable) result load is needed.
        a.li(T3, 1 << 16);
        a.or(T3, T3, A5);
        a.sd(T3, RES_OFF, S3);
    }
}

/// Map a loaded value to its observation digit:
/// `0 → 0`, `VAL1 → 1`, `VAL2 → 2`, anything else → 3.
/// Branch-free: `d = 3 - 3*(v==0) - 2*(v==VAL1) - (v==VAL2)`.
fn emit_digit_of(a: &mut Asm, v: u8, d: u8, s1: u8, s2: u8) {
    a.sltiu(s1, v, 1);
    a.xori(s2, v, VAL1);
    a.sltiu(s2, s2, 1);
    a.li(d, 3);
    a.sub(d, d, s1);
    a.sub(d, d, s1);
    a.sub(d, d, s1);
    a.sub(d, d, s2);
    a.sub(d, d, s2);
    a.xori(s2, v, VAL2);
    a.sltiu(s2, s2, 1);
    a.sub(d, d, s2);
}

/// Pack the digits of A3/A4 into A5 as `digit(A3)*16 + digit(A4)`.
fn emit_pack2(a: &mut Asm) {
    use reg::*;
    emit_digit_of(a, A3, T5, T3, T4);
    emit_digit_of(a, A4, T6, T3, T4);
    a.slli(T5, T5, 4);
    a.add(A5, T5, T6);
}

/// `iters` bounded-retry LR/SC increments of the round's counter cell.
/// Leaves the success count in A4 (a hart that exhausts its retry
/// budget simply contributes fewer increments — counted, not assumed).
fn emit_lrsc_increments(a: &mut Asm, iters: usize) {
    use reg::*;
    a.addi(T4, S3, X_OFF);
    a.li(A4, 0);
    a.li(T2, iters as i64);
    let inc_top = a.bound_label();
    a.li(T5, 64);
    let retry = a.bound_label();
    let got = a.label();
    let skip = a.label();
    a.lr_d(T3, T4);
    a.addi(T3, T3, 1);
    a.sc_d(T6, T3, T4);
    a.beqz(T6, got);
    a.addi(T5, T5, -1);
    a.bnez(T5, retry);
    a.j(skip);
    a.bind(got);
    a.addi(A4, A4, 1);
    a.bind(skip);
    a.addi(T2, T2, -1);
    a.bnez(T2, inc_top);
}

/// Emit one drawn serializer.
fn emit_serializer(a: &mut Asm, ser: SerKind) {
    use reg::*;
    match ser {
        SerKind::Fence => a.fence(),
        SerKind::FenceI => a.fence_i(),
        SerKind::FenceFenceI => {
            a.fence();
            a.fence_i();
        }
        SerKind::SfenceVma => a.sfence_vma(ZERO, ZERO),
    }
}

/// Generate a two-hart litmus program from `seed` (every round kept).
pub fn random_litmus(seed: u64, cfg: &LitmusConfig) -> Program {
    LitmusProgram::generate(seed, cfg).emit()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemu::{Interpreter, Nemu};

    #[test]
    fn clamped_bounds_the_knobs() {
        let wild = LitmusConfig {
            rounds: 0,
            filler: 100,
            lrsc_iters: 0,
            ..LitmusConfig::default()
        }
        .clamped();
        assert_eq!(wild.rounds, 1);
        assert_eq!(wild.filler, 8);
        assert_eq!(wild.lrsc_iters, 1);
        let huge = LitmusConfig {
            rounds: 1000,
            lrsc_iters: 1000,
            ..LitmusConfig::default()
        }
        .clamped();
        assert_eq!(huge.rounds, 24);
        assert_eq!(huge.lrsc_iters, 8);
        let dflt = LitmusConfig::default();
        assert_eq!(dflt.clamped(), dflt);
    }

    #[test]
    fn deterministic_per_seed_and_masks_re_emit() {
        let cfg = LitmusConfig::default();
        let p1 = LitmusProgram::generate(42, &cfg);
        let p2 = LitmusProgram::generate(42, &cfg);
        let p3 = LitmusProgram::generate(43, &cfg);
        assert_eq!(p1, p2);
        assert_eq!(p1.emit().bytes, p2.emit().bytes);
        assert_ne!(p1.seed, p3.seed);
        assert_eq!(p1.len(), cfg.rounds);
        // Emitting with rounds dropped yields a shorter image.
        let keep: Vec<bool> = (0..p1.len()).map(|i| i == 0).collect();
        assert!(p1.emit_subset(&keep).bytes.len() < p1.emit().bytes.len());
    }

    #[test]
    fn allowed_masks_encode_the_documented_sets() {
        // Fenced MP forbids (flag=1, data=0) = index 4.
        let mp = allowed_mask(LitmusShape::Mp, true);
        assert_eq!(mp & (1 << 4), 0);
        assert_ne!(mp & (1 << 5), 0);
        // Unfenced MP allows the load-load reordering.
        assert_ne!(allowed_mask(LitmusShape::Mp, false) & (1 << 4), 0);
        // Fenced SB forbids (0,0).
        assert_eq!(allowed_mask(LitmusShape::Sb, true) & 1, 0);
        assert_ne!(allowed_mask(LitmusShape::Sb, false) & 1, 0);
        // Fenced LB forbids (1,1) = index 5.
        assert_eq!(allowed_mask(LitmusShape::Lb, true) & (1 << 5), 0);
        // CoRR forbids new-then-old regardless of fencing.
        for fenced in [false, true] {
            assert_eq!(allowed_mask(LitmusShape::CoRR, fenced) & (1 << 4), 0);
        }
        // CoWW forbids (2,1) = index 9 and (1,0) = index 4.
        assert_eq!(allowed_mask(LitmusShape::CoWW, true) & (1 << 9), 0);
        assert_eq!(allowed_mask(LitmusShape::CoWW, true) & (1 << 4), 0);
        // 2+2W fenced forbids the cyclic (1,2) = index 6.
        assert_eq!(allowed_mask(LitmusShape::TwoPlusTwoW, true) & (1 << 6), 0);
        assert_ne!(allowed_mask(LitmusShape::TwoPlusTwoW, false) & (1 << 6), 0);
        // LR/SC: only a consistent counter is legal.
        assert_eq!(allowed_mask(LitmusShape::LrScContention, true), 1);
        // Wild digits (3) are forbidden everywhere.
        for shape in LitmusShape::ALL {
            for fenced in [false, true] {
                let m = allowed_mask(shape, fenced);
                for idx in [3u64, 7, 11, 12, 13, 14, 15] {
                    assert_eq!(m & (1 << idx), 0, "{shape:?} allows wild {idx}");
                }
            }
        }
    }

    #[test]
    fn fence_torture_rounds_pin_sc_only_when_both_sides_fence() {
        let cfg = LitmusConfig {
            shape: LitmusShape::FenceTorture,
            rounds: 24,
            ..LitmusConfig::default()
        };
        let p = LitmusProgram::generate(9, &cfg);
        let mut saw_tight = false;
        let mut saw_relaxed = false;
        for k in 0..p.len() {
            let r = &p.rounds[k];
            let tight = r.ser0.is_full_barrier() && r.ser1.is_full_barrier();
            assert_eq!(
                p.round_mask(k),
                allowed_mask(LitmusShape::FenceTorture, tight)
            );
            saw_tight |= tight;
            saw_relaxed |= !tight;
        }
        assert!(saw_tight && saw_relaxed, "both regimes drawn over 24 rounds");
    }

    #[test]
    fn exit_decode_round_trips() {
        let e = LitmusExit::decode(0x0a_03_05_01);
        assert_eq!(e.status, status::FORBIDDEN);
        assert!(e.forbidden());
        assert_eq!(e.round0_outcome, 5);
        assert_eq!(e.first_bad_round, 3);
        assert_eq!(e.first_bad_outcome, 10);
        assert_eq!(LitmusExit::describe_outcome(10), "d0=2,d1=2");
        let ok = LitmusExit::decode(0x0500);
        assert!(!ok.forbidden());
        assert_eq!(ok.round0_outcome, 5);
    }

    #[test]
    fn every_shape_decodes_cleanly() {
        // Every emitted word must decode to a legal instruction.
        for shape in LitmusShape::ALL {
            for fenced in [false, true] {
                let cfg = LitmusConfig {
                    shape,
                    fenced,
                    rounds: 3,
                    ..LitmusConfig::default()
                };
                let p = random_litmus(7, &cfg);
                assert_eq!(p.bytes.len() % 4, 0, "{shape:?} image word-aligned");
                for (i, w) in p.bytes.chunks(4).enumerate() {
                    let raw = u32::from_le_bytes(w.try_into().unwrap());
                    let d = riscv_isa::decode::decode32(raw);
                    assert_ne!(
                        d.op,
                        riscv_isa::op::Op::Illegal,
                        "{shape:?} word {i} ({raw:#010x}) must decode"
                    );
                }
            }
        }
    }

    #[test]
    fn single_hart_run_terminates_with_sync_timeout() {
        // With no partner hart the result spins exhaust and the program
        // must still terminate, reporting SYNC_TIMEOUT — the bounded
        // spins are what make desync (or fault injection) unable to
        // deadlock a campaign job.
        for shape in [LitmusShape::Mp, LitmusShape::LrScContention] {
            let cfg = LitmusConfig {
                shape,
                rounds: 1,
                ..LitmusConfig::default()
            };
            let p = random_litmus(3, &cfg);
            let mut n = Nemu::new(&p);
            let r = n.run(10_000_000);
            let code = r.exit_code.expect("single-hart litmus halts");
            assert_eq!(
                LitmusExit::decode(code).status,
                status::SYNC_TIMEOUT,
                "{shape:?}"
            );
        }
    }

    #[test]
    fn subset_emission_preserves_kept_round_cells() {
        // A kept round addresses the same cells whether or not other
        // rounds were dropped: its `li S3, base` constant survives.
        let cfg = LitmusConfig {
            rounds: 4,
            ..LitmusConfig::default()
        };
        let p = LitmusProgram::generate(11, &cfg);
        let full = p.emit();
        let keep: Vec<bool> = vec![false, false, true, false];
        let sub = p.emit_subset(&keep);
        assert!(sub.bytes.len() < full.bytes.len());
        // The kept round still addresses its original cells: the
        // round-2 base (SANDBOX + 2*256) materializes via a trailing
        // `addi rd, rd, 0x200`, whose immediate is unique among round
        // bases here and must survive in the subset image.
        let imm_of = |prog: &Program, target: i64| {
            prog.bytes.chunks(4).any(|w| {
                let d = riscv_isa::decode::decode32(u32::from_le_bytes(w.try_into().unwrap()));
                assert_ne!(d.op, riscv_isa::op::Op::Illegal);
                d.op == riscv_isa::op::Op::Addi && d.rd == d.rs1 && d.imm == (target & 0xfff)
            })
        };
        let round2 = SANDBOX + 2 * ROUND_STRIDE;
        assert!(imm_of(&full, round2));
        assert!(imm_of(&sub, round2));
    }
}

