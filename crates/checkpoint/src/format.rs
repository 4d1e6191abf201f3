//! The RISC-V architectural checkpoint format (paper §III-D3, Fig. 9).
//!
//! A checkpoint is the full architectural state plus the memory image at
//! an instruction boundary. Like the paper's format it is defined purely
//! at the ISA level — restoration needs "only basic RV64 privilege
//! instructions" and no external debug mode: [`Checkpoint::restore_loader`]
//! emits a self-contained boot program that rebuilds every register and
//! CSR with `li`/`csrw`/`fld` sequences and jumps to the checkpointed pc.

use riscv_isa::asm::{reg, Asm, Program};
use riscv_isa::csr::{addr, mstatus, Kind};
use riscv_isa::mem::SparseMemory;
use riscv_isa::state::ArchState;
use serde::{Deserialize, Serialize};

/// Load address for the restore loader (must not collide with the
/// checkpointed image's live code/data).
pub const LOADER_BASE: u64 = 0x8F00_0000;

/// One architectural checkpoint.
#[derive(Clone)]
pub struct Checkpoint {
    /// Architectural state at the boundary.
    pub state: ArchState,
    /// Memory image (copy-on-write shared with the generator).
    pub memory: SparseMemory,
    /// Dynamic instruction count at the boundary.
    pub instret: u64,
    /// SimPoint weight (fraction of intervals this checkpoint stands for).
    pub weight: f64,
    /// Intervals in this checkpoint's cluster — the exact integer
    /// numerator of `weight` (denominator: `total_intervals`). Report
    /// aggregation uses the rational form so deterministic bodies stay
    /// float-free.
    pub members: u64,
    /// Total profiled intervals of the run this checkpoint came from.
    pub total_intervals: u64,
    /// Index of the interval this checkpoint represents.
    pub interval: usize,
}

impl std::fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpoint")
            .field("pc", &format_args!("{:#x}", self.state.pc))
            .field("instret", &self.instret)
            .field("weight", &self.weight)
            .field("interval", &self.interval)
            .finish()
    }
}

/// Serializable header (memory image stored separately as a binary blob).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Header {
    state: ArchState,
    instret: u64,
    weight: f64,
    members: u64,
    total_intervals: u64,
    interval: usize,
}

/// Hash of a serialized blob, 16 hex digits — the name the checkpoint
/// cache stores the blob under and the check it makes on the bytes it
/// reads back, before parsing them.
///
/// Four independent lanes each take one little-endian word of every
/// 32-byte block (xor, multiply by an odd constant, fold the high half
/// down), so a block costs four multiplies that do not wait for one
/// another and the hash runs at the speed the bytes arrive from memory.
/// A short last block is zero-padded, and the length is folded in with
/// the lanes at the end, which tells `"ab"` from `"ab\0"`. Every step is
/// a bijection of the lane it updates, so two buffers of one length that
/// differ in a single word never collide; the fold is there so that a
/// flipped top bit, which a multiply alone leaves a single flipped bit,
/// cannot be undone by one flipped bit of the next block. Not
/// cryptographic, and not a stable interface either: the cache index
/// carries a format tag, and a directory written under another tag is
/// re-profiled.
pub fn blob_hash(bytes: &[u8]) -> String {
    const LANE_MUL: [u64; 4] = [
        0x9e37_79b1_85eb_ca87,
        0xc2b2_ae3d_27d4_eb4f,
        0x1656_67b1_9e37_79f9,
        0x85eb_ca77_c2b2_ae63,
    ];
    const FOLD_MUL: u64 = 0x27d4_eb2f_1656_67c5;
    fn absorb(lanes: &mut [u64; 4], block: &[u8; 32]) {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let word = u64::from_le_bytes(block[i * 8..][..8].try_into().expect("8 bytes"));
            let x = (*lane ^ word).wrapping_mul(LANE_MUL[i]);
            *lane = x ^ (x >> 32);
        }
    }
    let mut lanes = LANE_MUL;
    let (blocks, tail) = bytes.as_chunks::<32>();
    for block in blocks {
        absorb(&mut lanes, block);
    }
    if !tail.is_empty() {
        let mut padded = [0u8; 32];
        padded[..tail.len()].copy_from_slice(tail);
        absorb(&mut lanes, &padded);
    }
    let mut h = bytes.len() as u64;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(FOLD_MUL);
        h ^= h >> 32;
    }
    format!("{h:016x}")
}

impl Checkpoint {
    /// Serialize to a self-contained byte blob: the header's length
    /// (u64, little-endian), the header as JSON, then the memory image of
    /// `SparseMemory::serialize_full`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.to_bytes_into(&mut out);
        out
    }

    /// [`Checkpoint::to_bytes`] into a buffer the caller reuses from one
    /// checkpoint to the next (cleared first): a set is megabytes per
    /// blob, written once each.
    pub fn to_bytes_into(&self, out: &mut Vec<u8>) {
        let header = serde_json::to_vec(&Header {
            state: self.state.clone(),
            instret: self.instret,
            weight: self.weight,
            members: self.members,
            total_intervals: self.total_intervals,
            interval: self.interval,
        })
        .expect("header serializes");
        out.clear();
        out.extend_from_slice(&(header.len() as u64).to_le_bytes());
        out.extend_from_slice(&header);
        self.memory.serialize_full_into(out);
    }

    /// Deserialize from [`Checkpoint::to_bytes`] output.
    ///
    /// # Panics
    ///
    /// Panics on a malformed blob; [`Checkpoint::try_from_bytes`] is the
    /// non-panicking form (on-disk blobs can be truncated or stale).
    pub fn from_bytes(data: &[u8]) -> Self {
        Self::try_from_bytes(data).expect("valid checkpoint blob")
    }

    /// Deserialize from [`Checkpoint::to_bytes`] output, rejecting
    /// malformed blobs instead of panicking — the checkpoint farm reads
    /// blobs back from a reuse directory, where truncated writes and
    /// format drift are ordinary conditions, not bugs.
    ///
    /// # Errors
    ///
    /// A description of the first structural problem found.
    pub fn try_from_bytes(data: &[u8]) -> Result<Self, String> {
        let Some((hlen, body)) = data.split_first_chunk::<8>() else {
            return Err(format!("blob too short for length prefix: {} bytes", data.len()));
        };
        let hlen = u64::from_le_bytes(*hlen);
        let Some((header, image)) = usize::try_from(hlen)
            .ok()
            .and_then(|hlen| body.split_at_checked(hlen))
        else {
            return Err(format!(
                "header length {hlen} exceeds remaining {} bytes",
                body.len()
            ));
        };
        let header: Header =
            serde_json::from_slice(header).map_err(|e| format!("header does not parse: {e}"))?;
        let memory = SparseMemory::try_deserialize_full(image)
            .map_err(|e| format!("memory image does not parse: {e}"))?;
        Ok(Checkpoint {
            state: header.state,
            memory,
            instret: header.instret,
            weight: header.weight,
            members: header.members,
            total_intervals: header.total_intervals,
            interval: header.interval,
        })
    }

    /// [`blob_hash`] of the serialized blob: the file name a checkpoint
    /// directory would store this checkpoint under.
    pub fn content_hash(&self) -> String {
        blob_hash(&self.to_bytes())
    }

    /// Emit the Fig. 9-style restore loader: a bare-metal program (loaded
    /// beside the memory image) that reconstructs the architectural state
    /// with base-ISA instructions only, then jumps to the checkpointed pc.
    ///
    /// The loader restores, in order: machine and supervisor CSRs,
    /// floating-point registers (via a staging area), integer registers,
    /// and finally transfers control with an `mret` whose `mepc` is the
    /// target pc — no debug-mode features required.
    pub fn restore_loader(&self) -> Program {
        let s = &self.state;
        let mut a = Asm::new(LOADER_BASE);
        // CSRs first (while registers are free for staging). `mstatus`
        // goes in with MIE clear: the loader runs in M-mode, and once `mie`
        // and `mip` are back a pending interrupt must wait for the target.
        for (csr, _, v) in s.csr.stored().filter(|field| field.1 == Kind::Restored) {
            let v = if csr == addr::MSTATUS { v & !mstatus::MIE } else { v };
            a.li(reg::T0, v as i64);
            a.csrrw(reg::ZERO, csr, reg::T0);
        }
        // Floating-point registers via a staging table in the loader.
        let fstage = a.label();
        a.la(reg::T1, fstage);
        for i in 0..32u8 {
            a.fld(i, (i as i64) * 8, reg::T1);
        }
        // mepc = target pc; the `mret` restores the privilege from MPP and
        // the interrupt enable from MPIE.
        a.li(reg::T0, s.pc as i64);
        a.csrrw(reg::ZERO, addr::MEPC, reg::T0);
        let mpp = (s.csr.privilege as u64) << 11;
        let mpie = if s.csr.mstatus & mstatus::MIE != 0 { mstatus::MPIE } else { 0 };
        let rest = s.csr.mstatus & !(mstatus::MPP | mstatus::MPIE | mstatus::MIE);
        a.li(reg::T0, (rest | mpp | mpie) as i64);
        a.csrrw(reg::ZERO, addr::MSTATUS, reg::T0);
        // Integer registers last (x1..x31), then mret.
        for i in 1..32u8 {
            a.li(i, s.gpr[i as usize] as i64);
        }
        a.mret();
        a.align(3);
        a.bind(fstage);
        for i in 0..32 {
            a.data_u64(s.fpr[i]);
        }
        a.assemble()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemu::hart::{self, Hart};
    use riscv_isa::csr::{CsrFile, Privilege};
    use riscv_isa::mem::PhysMem;

    fn sample_checkpoint() -> Checkpoint {
        let mut state = ArchState::new(0x8000_1234, 0);
        for i in 1..32 {
            state.gpr[i] = (i as u64) * 0x1111;
            state.fpr[i] = f64::from_bits((i as u64) << 52 | 0x3ff0_0000_0000_0000).to_bits();
        }
        // Inside an S-mode trap handler, an undelegated interrupt pending:
        // every software-writable CSR a distinct legal value.
        let csr = &mut state.csr;
        csr.privilege = Privilege::Supervisor;
        csr.mstatus |= mstatus::MIE | mstatus::SPIE | mstatus::SPP | mstatus::SUM;
        (csr.medeleg, csr.mideleg, csr.mie, csr.mip) = (0xb109, 0x200, 0x8a2, 0x22);
        (csr.mtvec, csr.mcounteren, csr.mscratch) = (0x8000_4000, 0b101, 0xdead_beef);
        (csr.mepc, csr.mcause, csr.mtval) = (0x8000_0f00, (1 << 63) | 7, 0x8000_0f04);
        (csr.stvec, csr.scounteren, csr.sscratch) = (0x8000_5001, 0b011, 0xfeed_f00d);
        (csr.sepc, csr.scause, csr.stval) = (0x8000_2468, 13, 0x4000_1008);
        (csr.satp, csr.fcsr) = ((8 << 60) | 0x8_0030, 0x21);
        let mut memory = SparseMemory::new();
        memory.write_uint(0x8000_1234, 4, 0x0010_0073); // ebreak at target pc
        memory.write_uint(0x8002_0000, 8, 42);
        Checkpoint {
            state,
            memory,
            instret: 1_000_000,
            weight: 0.25,
            members: 2,
            total_intervals: 8,
            interval: 7,
        }
    }

    #[test]
    fn byte_roundtrip() {
        let c = sample_checkpoint();
        let blob = c.to_bytes();
        let mut back = Checkpoint::from_bytes(&blob);
        assert_eq!(back.state, c.state);
        assert_eq!(back.instret, 1_000_000);
        assert_eq!(back.weight, 0.25);
        assert_eq!(back.members, 2);
        assert_eq!(back.total_intervals, 8);
        assert_eq!(back.interval, 7);
        assert_eq!(back.memory.read_uint(0x8002_0000, 8), 42);
    }

    #[test]
    fn malformed_blobs_are_rejected_not_panics() {
        let c = sample_checkpoint();
        let blob = c.to_bytes();
        // Too short for the length prefix.
        assert!(Checkpoint::try_from_bytes(&blob[..4]).is_err());
        // Header length pointing past the end.
        let mut lying = blob.clone();
        lying[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(Checkpoint::try_from_bytes(&lying).is_err());
        // Corrupted header JSON.
        let mut garbled = blob.clone();
        garbled[8] = b'!';
        assert!(Checkpoint::try_from_bytes(&garbled).is_err());
        // Cut inside the memory image (every cut: `checkpoint_props`).
        assert!(Checkpoint::try_from_bytes(&blob[..blob.len() - 1]).is_err());
        // The untouched blob still round-trips.
        assert!(Checkpoint::try_from_bytes(&blob).is_ok());
    }

    #[test]
    fn content_hash_tracks_content() {
        let c = sample_checkpoint();
        assert_eq!(c.content_hash(), c.content_hash(), "hash is deterministic");
        assert_eq!(c.content_hash().len(), 16);
        let mut other = sample_checkpoint();
        other.state.gpr[5] ^= 1;
        assert_ne!(c.content_hash(), other.content_hash());
    }

    #[test]
    fn restore_loader_reconstructs_state() {
        let c = sample_checkpoint();
        let loader = c.restore_loader();
        // Boot the loader on a fresh NEMU hart over the checkpoint image.
        let mut mem = c.memory.clone();
        loader.load_into(&mut mem);
        let mut hart = Hart::new(loader.entry, 0);
        // Run the loader until it lands on the checkpointed pc.
        for _ in 0..100_000 {
            if hart.state.pc == c.state.pc || hart.is_halted() {
                break;
            }
            hart::step(&mut hart, &mut mem);
        }
        assert_eq!(hart.state.pc, c.state.pc, "loader must jump to the pc");
        // All architectural registers restored.
        assert_eq!(hart.state.gpr, c.state.gpr);
        assert_eq!(hart.state.fpr, c.state.fpr);
        // The whole CSR file, but for what the closing `mret` rewrites
        // (`mepc`, MPIE, MPP) and the counters that ran meanwhile.
        let restored = &hart.state.csr;
        let expected = CsrFile {
            mepc: c.state.pc,
            mstatus: c.state.csr.mstatus & !mstatus::MPP | mstatus::MPIE,
            mcycle: restored.mcycle,
            minstret: restored.minstret,
            time: restored.time,
            ..c.state.csr.clone()
        };
        assert_eq!(restored, &expected);
        // Memory image intact.
        assert_eq!(mem.read_uint(0x8002_0000, 8), 42);
    }

    #[test]
    fn loader_uses_base_isa_only() {
        let c = sample_checkpoint();
        let loader = c.restore_loader();
        // Decode every instruction: no compressed forms, no debug-mode
        // constructs; everything must decode as a known base/priv op.
        let mut off = 0;
        let mut in_code = true;
        while off + 4 <= loader.bytes.len() && in_code {
            let raw = u32::from_le_bytes(loader.bytes[off..off + 4].try_into().unwrap());
            let d = riscv_isa::decode32(raw);
            if d.op == riscv_isa::Op::Mret {
                in_code = false; // data staging follows
            }
            assert_ne!(
                d.op,
                riscv_isa::Op::Illegal,
                "loader instruction at {off} must decode"
            );
            off += 4;
        }
        assert!(!in_code, "loader ends in mret before the staging table");
    }
}
