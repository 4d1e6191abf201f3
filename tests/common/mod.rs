//! Programmes more than one integration test drives.

use riscv_isa::asm::{reg::*, Asm, Program};
use riscv_isa::csr::{Access, Kind, ROWS};
use riscv_isa::encode::encode;
use riscv_isa::op::{DecodedInst, Op};

/// A walk over the CSR table in M-mode, `mstatus.MIE` clear throughout
/// (it is never written): every address of every row is read, every row
/// that takes a masked write is driven through all six CSR instructions and
/// restored, every writable address that drops writes is written once. What
/// was read is folded into `a0`, the exit word — except from free-running
/// rows, whose values belong to whoever counts them.
pub fn csr_table_walk() -> Program {
    let mut a = Asm::new(0x8000_0000);
    a.li(A0, 0);
    let fold = |a: &mut Asm, free_running: bool| {
        if !free_running {
            a.xor(A0, A0, T1);
            a.rori(A0, A0, 7);
        }
    };
    let imm_form = |a: &mut Asm, op: Op, csr: u16, zimm: u8| {
        let inst = DecodedInst { op, rd: T1, rs1: zimm, imm: csr as i64, ..Default::default() };
        a.raw32(encode(&inst).expect("a CSR immediate form encodes"));
    };
    for row in ROWS {
        let free_running = row.kind == Kind::FreeRunning;
        for csr in row.addrs.0..=row.addrs.1 {
            a.csrrs(T1, csr, ZERO);
            fold(&mut a, free_running);
            match row.access {
                Access::Mask(_) => {
                    a.csrrs(S0, csr, ZERO);
                    a.li(T0, -1);
                    a.csrrw(T1, csr, T0);
                    fold(&mut a, free_running);
                    a.li(T0, 0x5a5a_5a5a_5a5a_5a5au64 as i64);
                    a.csrrc(T1, csr, T0);
                    fold(&mut a, free_running);
                    a.li(T0, 0x0ff0_0ff0_0ff0_0ff0);
                    a.csrrs(T1, csr, T0);
                    fold(&mut a, free_running);
                    for (op, zimm) in [(Op::Csrrwi, 0x15), (Op::Csrrsi, 0x0a), (Op::Csrrci, 0x11)] {
                        imm_form(&mut a, op, csr, zimm);
                        fold(&mut a, free_running);
                    }
                    a.csrrw(T1, csr, S0);
                    fold(&mut a, free_running);
                }
                Access::Const(_) | Access::Zero if csr >> 10 != 0b11 => {
                    a.li(T0, -1);
                    a.csrrw(T1, csr, T0);
                    a.csrrs(T1, csr, ZERO);
                    fold(&mut a, free_running);
                }
                _ => {}
            }
        }
    }
    // Leave no counter value behind in a register.
    a.li(T1, 0);
    a.li(S0, 0);
    a.ebreak();
    a.assemble()
}
