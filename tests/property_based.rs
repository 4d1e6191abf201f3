//! Property-based tests spanning crates: encode/decode round trips,
//! softfloat-vs-host equivalence, COW snapshot isolation, and N-engine
//! agreement on torture-generated programs.

use nemu::{DromajoLike, Interpreter, Nemu, QemuTciLike, SpikeLike};
use proptest::prelude::*;
use riscv_isa::mem::PhysMem;
use workloads::{random_program, TortureConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// decode(encode(inst)) is the identity over representative fields.
    #[test]
    fn decode_encode_roundtrip(raw in any::<u32>()) {
        let d = riscv_isa::decode32(raw | 0b11);
        if d.op != riscv_isa::Op::Illegal {
            if let Some(re) = riscv_isa::encode::encode(&d) {
                let d2 = riscv_isa::decode32(re);
                prop_assert_eq!(d.op, d2.op);
                prop_assert_eq!(d.rd, d2.rd);
                prop_assert_eq!(d.rs1, d2.rs1);
            }
        }
    }

    /// Softfloat add/mul/FMA match host IEEE arithmetic bit for bit.
    #[test]
    fn softfloat_matches_host(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let canon = |x: f64| if x.is_nan() { 0x7ff8_0000_0000_0000 } else { x.to_bits() };
        let (fa, fb, fc) = (f64::from_bits(a), f64::from_bits(b), f64::from_bits(c));
        prop_assert_eq!(riscv_isa::softfloat::f64sf::add(a, b).bits, canon(fa + fb));
        prop_assert_eq!(riscv_isa::softfloat::f64sf::mul(a, b).bits, canon(fa * fb));
        prop_assert_eq!(riscv_isa::softfloat::f64sf::fma(a, b, c).bits, canon(fa.mul_add(fb, fc)));
        let (sa, sb) = (a as u32, b as u32);
        let canon32 = |x: f32| if x.is_nan() { 0x7fc0_0000 } else { x.to_bits() };
        prop_assert_eq!(
            riscv_isa::softfloat::f32sf::add(sa, sb).bits,
            canon32(f32::from_bits(sa) + f32::from_bits(sb))
        );
        prop_assert_eq!(
            riscv_isa::softfloat::f32sf::mul(sa, sb).bits,
            canon32(f32::from_bits(sa) * f32::from_bits(sb))
        );
    }

    /// COW memory snapshots are isolated from later writes.
    #[test]
    fn cow_snapshot_isolation(
        writes in prop::collection::vec((0u64..0x10_0000, any::<u64>()), 1..40)
    ) {
        let mut mem = riscv_isa::SparseMemory::new();
        for (addr, v) in &writes {
            mem.write_uint(*addr & !7, 8, *v);
        }
        let snapshot = mem.clone();
        let expected: Vec<(u64, u64)> = writes
            .iter()
            .map(|(a, _)| { let mut m = snapshot.clone(); (*a & !7, m.read_uint(*a & !7, 8)) })
            .collect();
        // Mutate the original everywhere.
        for (addr, _) in &writes {
            mem.write_uint(*addr & !7, 8, 0xdead_dead_dead_dead);
        }
        let mut snap = snapshot;
        for (addr, v) in expected {
            prop_assert_eq!(snap.read_uint(addr, 8), v);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The host path agrees with softfloat on add, sub, mul and the four
    /// FMAs at both widths: the same result bits, and the same NV, OF and
    /// DZ. NX and UF are masked: host arithmetic derives neither (DESIGN
    /// §5). The operands lean toward sNaN, ±inf, ±0, subnormals, values
    /// near overflow and, for singles, values that are not NaN-boxed.
    #[test]
    fn host_fp_matches_softfloat(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        use riscv_isa::fpu::{flags::*, fp_execute};
        use riscv_isa::softfloat::{f32sf, f64sf, SfResult};
        use riscv_isa::Op::*;
        const S32: u32 = 1 << 31;
        const S64: u64 = 1 << 63;
        let unbox = |v: u64| if v >> 32 == 0xffff_ffff { v as u32 } else { 0x7fc0_0000 };
        let boxed = |r: SfResult<u32>| (0xffff_ffff_0000_0000 | r.bits as u64, r.flags);
        let plain = |r: SfResult<u64>| (r.bits, r.flags);
        for single in [false, true] {
            let (x, y, z) = (fp_operand(a, single), fp_operand(b, single), fp_operand(c, single));
            let (xs, ys, zs) = (unbox(x), unbox(y), unbox(z));
            let cases = if single {
                [
                    (FaddS, boxed(f32sf::add(xs, ys))),
                    (FsubS, boxed(f32sf::sub(xs, ys))),
                    (FmulS, boxed(f32sf::mul(xs, ys))),
                    (FmaddS, boxed(f32sf::fma(xs, ys, zs))),
                    (FmsubS, boxed(f32sf::fma(xs, ys, zs ^ S32))),
                    (FnmsubS, boxed(f32sf::fma(xs ^ S32, ys, zs))),
                    (FnmaddS, boxed(f32sf::fma(xs ^ S32, ys, zs ^ S32))),
                ]
            } else {
                [
                    (FaddD, plain(f64sf::add(x, y))),
                    (FsubD, plain(f64sf::sub(x, y))),
                    (FmulD, plain(f64sf::mul(x, y))),
                    (FmaddD, plain(f64sf::fma(x, y, z))),
                    (FmsubD, plain(f64sf::fma(x, y, z ^ S64))),
                    (FnmsubD, plain(f64sf::fma(x ^ S64, y, z))),
                    (FnmaddD, plain(f64sf::fma(x ^ S64, y, z ^ S64))),
                ]
            };
            for (op, (bits, flags)) in cases {
                let host = fp_execute(op, x, y, z, 0);
                let mask = NV | OF | DZ;
                prop_assert_eq!(
                    (host.bits, host.flags & mask),
                    (bits, flags & mask),
                    "{:?} {:#x} {:#x} {:#x}", op, x, y, z
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All four interpreters agree exactly on random torture programs.
    #[test]
    fn four_engines_agree(seed in 0u64..10_000) {
        let cfg = TortureConfig {
            body_len: 40,
            iterations: 20,
            ..Default::default()
        };
        let p = random_program(seed, &cfg);
        let mut n = Nemu::new(&p);
        let rn = n.run(5_000_000);
        prop_assert!(rn.exit_code.is_some(), "seed {} did not halt", seed);
        let mut s = SpikeLike::new(&p);
        let mut d = DromajoLike::new(&p);
        let mut q = QemuTciLike::new(&p);
        prop_assert_eq!(rn.exit_code, s.run(5_000_000).exit_code);
        prop_assert_eq!(rn.exit_code, d.run(5_000_000).exit_code);
        prop_assert_eq!(rn.exit_code, q.run(5_000_000).exit_code);
        prop_assert_eq!(&n.hart().state.gpr, &d.hart().state.gpr);
        prop_assert_eq!(rn.instructions, d.hart().instret);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The xscore cycle model agrees with NEMU (through DiffTest) on
    /// random programs. Expensive, so few cases; the fixed-seed sweep in
    /// difftest_suite.rs covers more.
    #[test]
    fn dut_matches_ref_on_random_programs(seed in 10_000u64..10_400) {
        let cfg = TortureConfig {
            body_len: 30,
            iterations: 12,
            ..Default::default()
        };
        let p = random_program(seed, &cfg);
        let mut xs_cfg = xscore::XsConfig::nh();
        xs_cfg.memory = xscore::MemoryModel::FixedAmat(30);
        let mut cosim = minjie::CoSim::new(xs_cfg, &p);
        match cosim.run(20_000_000) {
            minjie::CoSimEnd::Halted(_) => {}
            other => return Err(TestCaseError::fail(format!("seed {seed}: {other:?}"))),
        }
    }
}

/// An FP operand for `host_fp_matches_softfloat`, drawn from `r`: its low
/// three bits pick a class, the rest fill sign and payload. Singles come
/// NaN-boxed except in the class that must not be.
fn fp_operand(r: u64, single: bool) -> u64 {
    let (sign, p) = (r >> 63 << 63, r >> 3);
    let (exp, frac, quiet) = if single {
        (0x7f80_0000u64, 0x007f_ffffu64, 1u64 << 22)
    } else {
        (0x7ff0_0000_0000_0000, 0x000f_ffff_ffff_ffff, 1 << 51)
    };
    let sign = if single { sign >> 32 } else { sign };
    let v = match r & 7 {
        0 => sign | exp | (p & frac & !quiet) | 1,   // sNaN
        1 => sign | exp,                             // ±inf
        2 => sign,                                   // ±0
        3 => sign | (p & frac),                      // subnormal (or 0)
        4 => sign | (exp ^ (frac + 1)) | (p & frac), // near overflow
        5 if single => return p >> 1,                // not NaN-boxed
        _ => sign | (p & (exp | frac)),              // anything
    };
    if single {
        0xffff_ffff_0000_0000 | v
    } else {
        v
    }
}
