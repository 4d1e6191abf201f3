//! Property tests for the ISA substrate: total decode, disassembly
//! robustness, and memory semantics — and the exhaustive checks of the
//! instruction table: every row round-trips through the encoder, the
//! generated classifier agrees with a linear scan of the rows (the only
//! other classifier of 32-bit words, kept here as the reference), and
//! every compressed word expands into the operation space of the rows.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use riscv_isa::encode::{encode, imm_range};
use riscv_isa::mem::PhysMem;
use riscv_isa::op::{DecodedInst, Shape};
use riscv_isa::{decode16, decode32, Op};

/// Random words the classifier is compared on: the full count in an
/// optimised build (`scripts/ci.sh` runs one), a sample in a debug build.
const WORDS: usize = if cfg!(debug_assertions) {
    1 << 17
} else {
    1 << 22
};

/// The reference classifier: the first row whose match bits the word has.
/// `Illegal`'s row is last and matches every word.
fn scan(raw: u32) -> Op {
    let row = |op: &&Op| raw & op.info().mask == op.info().bits;
    *Op::ALL.iter().find(row).expect("Illegal matches")
}

/// The fields of `d` its shape carries, the others zeroed: what
/// `decode32(encode(d))` must give back.
fn carried(d: &DecodedInst) -> DecodedInst {
    let info = d.op.info();
    let [rd, rs1, rs2, rs3] = info.shape.regs().map(|file| file.is_some());
    let keep = |live: bool, reg: u8| if live { reg } else { 0 };
    DecodedInst {
        op: d.op,
        rd: keep(rd, d.rd),
        rs1: keep(rs1 || info.shape == Shape::CsrImm, d.rs1),
        rs2: keep(rs2, d.rs2),
        rs3: keep(rs3, d.rs3),
        // A `U` immediate decodes sign-extended whichever way it was spelled.
        imm: if info.shape == Shape::U {
            d.imm as i32 as i64
        } else {
            d.imm
        },
        rm: keep(info.rm_live(), d.rm),
        len: 4,
        raw: 0,
    }
}

/// (a) Every row round-trips: random in-range operands come back from
/// `decode32(encode(d))`, and an operand the word cannot hold is refused.
#[test]
fn every_op_round_trips_and_refuses_what_does_not_fit() {
    let mut rng = StdRng::seed_from_u64(0x15a_7ab1e);
    for op in Op::ALL {
        let mut d = DecodedInst {
            op,
            ..Default::default()
        };
        if op == Op::Illegal {
            assert_eq!(encode(&d), None);
            continue;
        }
        let range = imm_range(op.shape());
        for _ in 0..256 {
            let mut reg = || rng.gen_range(0u8..32);
            (d.rd, d.rs1, d.rs2, d.rs3) = (reg(), reg(), reg(), reg());
            d.rm = rng.gen_range(0u8..8);
            if let Some((lo, hi, step)) = range {
                d.imm = lo + rng.gen_range(0..=(hi - lo) / step) * step;
            }
            let raw = encode(&d).unwrap_or_else(|| panic!("{d:?} must encode"));
            let back = decode32(raw);
            assert_eq!(carried(&back), carried(&d), "{raw:#010x}");
        }
        if let Some((lo, hi, step)) = range {
            let misaligned = (step > 1).then_some(lo + 1);
            for imm in [lo - step, hi + step, i64::MIN, i64::MAX]
                .into_iter()
                .chain(misaligned)
            {
                assert_eq!(encode(&DecodedInst { imm, ..d }), None, "{op:?} imm {imm}");
            }
            for imm in [lo, hi] {
                assert!(
                    encode(&DecodedInst { imm, ..d }).is_some(),
                    "{op:?} imm {imm}"
                );
            }
        }
        assert_eq!(encode(&DecodedInst { rd: 32, ..d }), None, "{op:?} rd 32");
        assert_eq!(encode(&DecodedInst { rs1: 32, ..d }), None, "{op:?} rs1 32");
    }
}

/// (b) The generated two-level `match` and the linear scan of the rows
/// classify every word alike, `Illegal` included; each row's own words —
/// operand bits all clear, all set — belong to that row and no other.
#[test]
fn generated_classifier_equals_the_linear_scan() {
    for op in Op::ALL {
        let info = op.info();
        for raw in [info.bits, info.bits | !info.mask] {
            assert_eq!(decode32(raw).op, op, "{raw:#010x}");
            let rows = Op::ALL
                .iter()
                .filter(|o| raw & o.info().mask == o.info().bits);
            assert_eq!(
                rows.count(),
                if op == Op::Illegal { 1 } else { 2 },
                "{op:?} overlaps a row"
            );
        }
    }
    let mut rng = StdRng::seed_from_u64(0xdec0de);
    let mut legal = 0;
    for _ in 0..WORDS {
        let raw: u32 = rng.gen();
        let op = decode32(raw).op;
        assert_eq!(op, scan(raw), "{raw:#010x}");
        legal += (op != Op::Illegal) as usize;
    }
    assert!(
        legal > WORDS / 64,
        "the sample reaches the rows: {legal} legal words"
    );
}

/// (c) RVC expands into the operation space of the rows: a compressed
/// word that decodes at all re-encodes as a 4-byte instruction with the
/// same operation and operands.
#[test]
fn every_compressed_word_expands_to_a_row() {
    let mut legal = 0;
    for raw in 0..=u16::MAX {
        let d = decode16(raw);
        assert_eq!((d.len, d.raw), (2, raw as u32));
        if d.op == Op::Illegal {
            continue;
        }
        legal += 1;
        let wide = encode(&d)
            .unwrap_or_else(|| panic!("{raw:#06x} expands to {d:?}, which has no 4-byte form"));
        assert_eq!(carried(&decode32(wide)), carried(&d), "{raw:#06x}");
    }
    assert!(legal > 40_000, "{legal} compressed words decode");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The decoder is total: any 32-bit pattern decodes without panicking,
    /// and the result either round-trips through the encoder or is Illegal.
    #[test]
    fn decode_is_total_and_consistent(raw in any::<u32>()) {
        let d = riscv_isa::decode(raw);
        let _ = riscv_isa::disasm::disassemble(&d, 0x8000_0000);
        if d.len == 4 && d.op != riscv_isa::Op::Illegal {
            if let Some(re) = riscv_isa::encode::encode(&d) {
                let back = riscv_isa::decode32(re);
                prop_assert_eq!(back.op, d.op);
                prop_assert_eq!(back.rd, d.rd);
                prop_assert_eq!(back.rs1, d.rs1);
                prop_assert_eq!(back.rs2, d.rs2);
                prop_assert_eq!(back.imm, d.imm);
            }
        }
    }

    /// Compressed decode is total too.
    #[test]
    fn decode16_is_total(raw in any::<u16>()) {
        let d = riscv_isa::decode16(raw);
        prop_assert_eq!(d.len, 2);
        let _ = riscv_isa::disasm::disassemble(&d, 0);
    }

    /// Sparse memory behaves like a flat byte array.
    #[test]
    fn memory_matches_model(ops in prop::collection::vec(
        (0u64..8192, any::<u64>(), 1u64..=8), 1..64)
    ) {
        let mut mem = riscv_isa::SparseMemory::new();
        let mut model = vec![0u8; 8192 + 8];
        for (addr, val, size) in ops {
            mem.write_uint(addr, size, val);
            model[addr as usize..(addr + size) as usize]
                .copy_from_slice(&val.to_le_bytes()[..size as usize]);
            let mut expect = [0u8; 8];
            expect[..size as usize]
                .copy_from_slice(&model[addr as usize..(addr + size) as usize]);
            prop_assert_eq!(mem.read_uint(addr, size), u64::from_le_bytes(expect));
        }
    }

    /// CSR write-then-read respects WARL masks without panicking for any
    /// address/value in machine mode.
    #[test]
    fn csr_access_is_total(addr in 0u16..4096, value in any::<u64>()) {
        let mut c = riscv_isa::csr::CsrFile::new(0);
        let _ = c.write(addr, value);
        if let Ok(v) = c.read(addr) {
            // Reading back immediately must be stable.
            prop_assert_eq!(c.read(addr).unwrap(), v);
        }
    }
}
