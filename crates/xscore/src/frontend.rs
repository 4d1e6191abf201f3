//! The frontend: fetch, predecode with branch prediction, the `ibuf`
//! latch towards rename, and the redirect that restarts all of it.

use crate::bpu::cf_kind;
use crate::core::{Progress, Shared};
use crate::tlbs::MmuResult;
use crate::uop::{PreUop, Uop};
use riscv_isa::mmu::AccessType;
use riscv_isa::op::DecodedInst;
use std::collections::VecDeque;
use uncore::Completion;

/// Marks a request id as an instruction fetch (fetch ids are matched
/// against the pending fetch directly and never enter the data arena).
pub(crate) const FETCH_ID_FLAG: u64 = 1 << 55;

/// Fetch holds off once the `ibuf` holds six fetch blocks of eight.
const IBUF_FETCH_LIMIT: usize = 48;

/// Fetch state and the predecoded-instruction buffer.
#[derive(Debug, Clone, Default)]
pub(crate) struct Frontend {
    pub fetch_pc: u64,
    stall_until: u64,
    fault_pending: bool,
    /// The fetch in flight: (req id, va pc). A redirect forgets it, so
    /// the block of a dropped fetch finds no one to take it.
    pending: Option<(u64, u64)>,
    /// Low half of a 4-byte instruction that straddles a fetch block.
    partial: Option<(u64, u16)>,
    /// The latch rename pops from.
    pub ibuf: VecDeque<PreUop>,
    next_req: u64,
}

impl Frontend {
    pub(crate) fn new(boot_pc: u64) -> Self {
        Frontend {
            fetch_pc: boot_pc,
            ..Default::default()
        }
    }

    /// Issue the next fetch if nothing holds it back.
    #[inline(always)]
    pub(crate) fn tick(&mut self, sh: &mut Shared) -> Progress {
        // Past these guards the MMU walk can fill TLBs even when the L1I
        // later rejects the request, so the tick mutated state.
        let progress = Progress(
            self.pending.is_none()
                && !self.fault_pending
                && sh.cycle >= self.stall_until
                && self.ibuf.len() < IBUF_FETCH_LIMIT,
        );
        if progress.0 {
            self.fetch(sh);
        }
        progress
    }

    #[inline]
    fn fetch(&mut self, sh: &mut Shared) {
        let pc = self.fetch_pc;
        let pa = match sh.translate(pc, AccessType::Fetch) {
            MmuResult::Done { pa, latency } => {
                if latency > 0 {
                    self.stall(sh, latency);
                }
                pa
            }
            MmuResult::Fault { cause, .. } => {
                self.ibuf.push_back(PreUop {
                    uop: Uop::new(pc, DecodedInst::default(), pc),
                    pred: None,
                    fault: Some((cause, pc)),
                    fetched_at: sh.cycle,
                });
                self.fault_pending = true;
                return;
            }
        };
        let block = pa & !31;
        let id = ((sh.hart as u64) << 56) | FETCH_ID_FLAG | self.next_req;
        self.next_req += 1;
        if sh.mem.submit_fetch(sh.hart, block, id) {
            self.pending = Some((id, pc));
        }
    }

    /// Hold fetch for `cycles`, scheduling the wake-up.
    fn stall(&mut self, sh: &mut Shared, cycles: u64) {
        self.stall_until = sh.cycle + cycles;
        sh.events.push(self.stall_until);
    }

    /// Take `c` if it answers the fetch in flight; true when it did.
    #[inline(always)]
    pub(crate) fn fetch_done(&mut self, sh: &mut Shared, c: &Completion) -> bool {
        let Some((_, pc)) = self.pending.filter(|&(id, _)| id == c.req.id) else {
            return false;
        };
        self.pending = None;
        self.predecode(sh, pc, c.fetch_block.expect("fetch block"));
        true
    }

    /// Restart fetch at `new_pc` after `bubble` cycles, dropping
    /// everything fetched down the old path.
    pub(crate) fn redirect(&mut self, sh: &mut Shared, new_pc: u64, bubble: u64) {
        self.fetch_pc = new_pc;
        self.pending = None;
        self.partial = None;
        self.ibuf.clear();
        self.fault_pending = false;
        self.stall(sh, bubble);
    }

    #[inline]
    fn predecode(&mut self, sh: &mut Shared, start_pc: u64, block: [u8; 32]) {
        let block_base = start_pc & !31;
        let mut pc = start_pc;
        let mut count = 0;
        // Combine with a previous partial 4-byte instruction.
        if let Some((ppc, low)) = self.partial.take() {
            let hi = u16::from_le_bytes([block[0], block[1]]) as u32;
            let raw = (hi << 16) | low as u32;
            let inst = riscv_isa::decode32(raw);
            if self.push_predecoded(sh, ppc, inst) {
                return; // taken branch redirected fetch
            }
            pc = ppc + 4;
            count += 1;
        }
        while count < 8 && pc >= block_base && pc < block_base + 32 {
            let off = (pc - block_base) as usize;
            // pc is 2-byte aligned, so off <= 30 and off + 1 is in range.
            let low = u16::from_le_bytes([block[off], block[off + 1]]);
            let is32 = low & 3 == 3;
            if is32 && off + 4 > 32 {
                // Spans the block: save the low half.
                self.partial = Some((pc, low));
                self.fetch_pc = block_base + 32;
                return;
            }
            let inst = if is32 {
                let raw = u32::from_le_bytes([
                    block[off],
                    block[off + 1],
                    block[off + 2],
                    block[off + 3],
                ]);
                riscv_isa::decode32(raw)
            } else {
                riscv_isa::decode16(low)
            };
            let ilen = inst.len as u64;
            if self.push_predecoded(sh, pc, inst) {
                return;
            }
            pc += ilen;
            count += 1;
        }
        self.fetch_pc = pc;
    }

    /// Push one predecoded instruction; returns true when a predicted-
    /// taken control flow redirected fetch (ending the block).
    #[inline]
    fn push_predecoded(&mut self, sh: &mut Shared, pc: u64, inst: DecodedInst) -> bool {
        let pred = cf_kind(&inst).map(|_| sh.bpu.predict(pc, &inst));
        let npc = match &pred {
            Some(p) if p.taken => p.target,
            _ => pc + inst.len as u64,
        };
        // A taken prediction steers fetch; only a uBTB hit does so
        // without a bubble.
        let steer = pred.as_ref().filter(|p| p.taken).map(|p| p.ubtb_hit);
        // Built where the decoded instruction is hot, copied once (into
        // its ROB slot, by rename).
        let uop = Uop::new(pc, inst, npc);
        self.ibuf.push_back(PreUop {
            uop,
            pred,
            fault: None,
            fetched_at: sh.cycle,
        });
        if let Some(ubtb_hit) = steer {
            self.fetch_pc = npc;
            if !ubtb_hit {
                self.stall(sh, 2);
            }
        }
        steer.is_some()
    }
}

#[cfg(test)]
mod tests {
    use crate::testing::{Bench, BOOT};

    #[test]
    fn redirect_drops_the_fetch_in_flight() {
        let mut bench = Bench::new();
        let (mut sh, st) = bench.split();
        let fe = &mut st.frontend;
        sh.cycle = 1;
        assert!(fe.tick(&mut sh).0, "an idle frontend fetches");
        let (id, _) = fe.pending.expect("fetch in flight");
        // A fetch in flight holds the next one back: a no-op tick.
        sh.cycle = 2;
        assert!(!fe.tick(&mut sh).0);

        fe.redirect(&mut sh, BOOT + 0x100, 2);
        // The old path's block arrives after the redirect and is ignored.
        let done = loop {
            if let Some(c) = sh.mem.tick().into_iter().find(|c| c.req.id == id) {
                break c;
            }
        };
        assert!(
            !fe.fetch_done(&mut sh, &done),
            "completion of a dropped fetch is not ours"
        );
        assert!(fe.ibuf.is_empty(), "nothing predecoded down the old path");
        assert_eq!(fe.fetch_pc, BOOT + 0x100);
        // The bubble holds fetch until it expires.
        sh.cycle = 3;
        assert!(!fe.tick(&mut sh).0, "redirect bubble");
        sh.cycle = 4;
        assert!(fe.tick(&mut sh).0);
        assert_eq!(fe.pending.map(|(_, pc)| pc), Some(BOOT + 0x100));
    }
}
