//! Exact-rounding software floating point (round-to-nearest-even).
//!
//! This module plays the role Berkeley SoftFloat plays for Spike: a
//! bit-exact, integer-only implementation of IEEE-754 add/sub/mul/FMA for
//! single and double precision. The Spike-like baseline interpreter in the
//! `nemu` crate routes its FP arithmetic through here, which is what makes
//! it measurably slower on SPECfp-like kernels than NEMU's host-FP fast
//! path — reproducing the Fig. 8 performance gap for the same underlying
//! reason as the paper.
//!
//! Only round-to-nearest-even is implemented (the mode every workload in
//! this repository uses). Results are NaN-canonicalized like the rest of
//! the workspace. Exception flags are approximate in the underflow corner
//! (tininess detection), but result *bits* are exact and are
//! property-tested against host IEEE arithmetic.

/// Result of a softfloat operation: raw IEEE bits plus fflags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SfResult<B> {
    /// IEEE-754 encoded result.
    pub bits: B,
    /// Exception flags raised.
    pub flags: u64,
}

macro_rules! softfloat_impl {
    ($mod_name:ident, $B:ty, $EXP_BITS:expr, $FRAC:expr, $canon_nan:expr) => {
        /// Format-specific softfloat kernels.
        pub mod $mod_name {
            use super::SfResult;
            use crate::fpu::flags;

            const EXP_BITS: i32 = $EXP_BITS;
            const FRAC: i32 = $FRAC;
            const BIAS: i32 = (1 << (EXP_BITS - 1)) - 1;
            const EXP_MAX: i32 = (1 << EXP_BITS) - 1;
            const SIGN_BIT: $B = 1 << (EXP_BITS + FRAC);
            const FRAC_MASK: $B = (1 << FRAC) - 1;
            const CANON_NAN: $B = $canon_nan;

            #[derive(Debug, Clone, Copy)]
            enum Num {
                Nan { signaling: bool },
                Inf { sign: bool },
                Zero { sign: bool },
                Fin { sign: bool, sig: u128, e: i32 },
            }

            fn unpack(bits: $B) -> Num {
                let sign = bits & SIGN_BIT != 0;
                let exp = ((bits >> FRAC) as i32) & (EXP_MAX);
                let frac = bits & FRAC_MASK;
                if exp == EXP_MAX {
                    if frac == 0 {
                        Num::Inf { sign }
                    } else {
                        Num::Nan {
                            signaling: frac & (1 << (FRAC - 1)) == 0,
                        }
                    }
                } else if exp == 0 {
                    if frac == 0 {
                        Num::Zero { sign }
                    } else {
                        Num::Fin {
                            sign,
                            sig: frac as u128,
                            e: 1 - BIAS - FRAC,
                        }
                    }
                } else {
                    Num::Fin {
                        sign,
                        sig: (frac | (1 << FRAC)) as u128,
                        e: exp - BIAS - FRAC,
                    }
                }
            }

            #[inline]
            fn pack(sign: bool, biased: $B, frac: $B) -> $B {
                (if sign { SIGN_BIT } else { 0 }) | (biased << FRAC) | (frac & FRAC_MASK)
            }

            #[inline]
            fn inf(sign: bool) -> $B {
                pack(sign, EXP_MAX as $B, 0)
            }

            #[inline]
            fn zero(sign: bool) -> $B {
                pack(sign, 0, 0)
            }

            #[inline]
            fn hb(sig: u128) -> i32 {
                127 - sig.leading_zeros() as i32
            }

            /// Shift right, ORing any lost bits into the LSB ("jamming").
            #[inline]
            fn shift_right_jam(sig: u128, n: i32) -> u128 {
                if n <= 0 {
                    sig
                } else if n >= 128 {
                    (sig != 0) as u128
                } else {
                    let lost = sig & ((1u128 << n) - 1);
                    (sig >> n) | (lost != 0) as u128
                }
            }

            /// Round a positive exact value `sig * 2^e` to nearest-even.
            fn round_pack(sign: bool, sig: u128, e: i32) -> SfResult<$B> {
                debug_assert!(sig != 0);
                let msb = hb(sig);
                let mut biased = e + msb + BIAS;
                let mut drop = msb - FRAC;
                let mut subnormal = false;
                if biased < 1 {
                    drop += 1 - biased;
                    subnormal = true;
                }
                let (kept, round, sticky) = if drop <= 0 {
                    (sig << (-drop) as u32, false, false)
                } else if drop >= 128 {
                    (0, false, sig != 0)
                } else {
                    let kept = sig >> drop;
                    let round = (sig >> (drop - 1)) & 1 == 1;
                    let smask = (1u128 << (drop - 1)) - 1;
                    (kept, round, sig & smask != 0)
                };
                let mut frac_full = kept as $B;
                let mut fl = 0u64;
                if round || sticky {
                    fl |= flags::NX;
                }
                if round && (sticky || frac_full & 1 == 1) {
                    frac_full += 1;
                }
                if subnormal {
                    if round || sticky {
                        fl |= flags::UF;
                    }
                    if frac_full >> FRAC == 1 {
                        // Rounded up into the minimum normal.
                        return SfResult {
                            bits: pack(sign, 1, frac_full),
                            flags: fl,
                        };
                    }
                    return SfResult {
                        bits: pack(sign, 0, frac_full),
                        flags: fl,
                    };
                }
                if frac_full >> (FRAC + 1) == 1 {
                    frac_full >>= 1;
                    biased += 1;
                }
                if biased >= EXP_MAX {
                    return SfResult {
                        bits: inf(sign),
                        flags: fl | flags::OF | flags::NX,
                    };
                }
                SfResult {
                    bits: pack(sign, biased as $B, frac_full),
                    flags: fl,
                }
            }

            /// Add two finite nonzero values exactly, then round.
            fn add_fin(
                sa: bool,
                siga: u128,
                ea: i32,
                sb: bool,
                sigb: u128,
                eb: i32,
            ) -> SfResult<$B> {
                // Normalize the larger-valued operand to a high bit
                // position so right shifts of the other lose only
                // sticky-relevant bits.
                let (xs, mut xsig, mut xe, ys, mut ysig, ye) = if ea + hb(siga) >= eb + hb(sigb) {
                    (sa, siga, ea, sb, sigb, eb)
                } else {
                    (sb, sigb, eb, sa, siga, ea)
                };
                let up = 110 - hb(xsig);
                xsig <<= up as u32;
                xe -= up;
                let d = xe - ye; // >= 0 by construction ... up to rounding
                if d >= 0 {
                    ysig = shift_right_jam(ysig, d);
                } else {
                    ysig <<= (-d) as u32;
                }
                if xs == ys {
                    round_pack(xs, xsig + ysig, xe)
                } else if xsig > ysig {
                    round_pack(xs, xsig - ysig, xe)
                } else if xsig < ysig {
                    round_pack(ys, ysig - xsig, xe)
                } else {
                    // Exact cancellation: +0 under round-to-nearest.
                    SfResult {
                        bits: zero(false),
                        flags: 0,
                    }
                }
            }

            /// IEEE add with round-to-nearest-even.
            pub fn add(a: $B, b: $B) -> SfResult<$B> {
                let (na, nb) = (unpack(a), unpack(b));
                match (na, nb) {
                    (Num::Nan { signaling }, _) | (_, Num::Nan { signaling }) => {
                        let other_snan = matches!(na, Num::Nan { signaling: true })
                            || matches!(nb, Num::Nan { signaling: true });
                        SfResult {
                            bits: CANON_NAN,
                            flags: if signaling || other_snan {
                                flags::NV
                            } else {
                                0
                            },
                        }
                    }
                    (Num::Inf { sign: s1 }, Num::Inf { sign: s2 }) => {
                        if s1 != s2 {
                            SfResult {
                                bits: CANON_NAN,
                                flags: flags::NV,
                            }
                        } else {
                            SfResult {
                                bits: inf(s1),
                                flags: 0,
                            }
                        }
                    }
                    (Num::Inf { sign }, _) | (_, Num::Inf { sign }) => SfResult {
                        bits: inf(sign),
                        flags: 0,
                    },
                    (Num::Zero { sign: s1 }, Num::Zero { sign: s2 }) => SfResult {
                        bits: zero(s1 && s2),
                        flags: 0,
                    },
                    (Num::Zero { .. }, _) => SfResult { bits: b, flags: 0 },
                    (_, Num::Zero { .. }) => SfResult { bits: a, flags: 0 },
                    (
                        Num::Fin {
                            sign: sa,
                            sig: siga,
                            e: ea,
                        },
                        Num::Fin {
                            sign: sb,
                            sig: sigb,
                            e: eb,
                        },
                    ) => add_fin(sa, siga, ea, sb, sigb, eb),
                }
            }

            /// IEEE subtract (`a - b`).
            pub fn sub(a: $B, b: $B) -> SfResult<$B> {
                add(a, b ^ SIGN_BIT)
            }

            /// IEEE multiply with round-to-nearest-even.
            pub fn mul(a: $B, b: $B) -> SfResult<$B> {
                let (na, nb) = (unpack(a), unpack(b));
                let sign = (a ^ b) & SIGN_BIT != 0;
                match (na, nb) {
                    (Num::Nan { signaling }, _) | (_, Num::Nan { signaling }) => {
                        let other_snan = matches!(na, Num::Nan { signaling: true })
                            || matches!(nb, Num::Nan { signaling: true });
                        SfResult {
                            bits: CANON_NAN,
                            flags: if signaling || other_snan {
                                flags::NV
                            } else {
                                0
                            },
                        }
                    }
                    (Num::Inf { .. }, Num::Zero { .. }) | (Num::Zero { .. }, Num::Inf { .. }) => {
                        SfResult {
                            bits: CANON_NAN,
                            flags: flags::NV,
                        }
                    }
                    (Num::Inf { .. }, _) | (_, Num::Inf { .. }) => SfResult {
                        bits: inf(sign),
                        flags: 0,
                    },
                    (Num::Zero { .. }, _) | (_, Num::Zero { .. }) => SfResult {
                        bits: zero(sign),
                        flags: 0,
                    },
                    (
                        Num::Fin {
                            sig: siga, e: ea, ..
                        },
                        Num::Fin {
                            sig: sigb, e: eb, ..
                        },
                    ) => round_pack(sign, siga * sigb, ea + eb),
                }
            }

            /// IEEE fused multiply-add (`a * b + c`) with a single rounding.
            pub fn fma(a: $B, b: $B, c: $B) -> SfResult<$B> {
                let (na, nb, nc) = (unpack(a), unpack(b), unpack(c));
                let psign = (a ^ b) & SIGN_BIT != 0;
                let any_snan = matches!(na, Num::Nan { signaling: true })
                    || matches!(nb, Num::Nan { signaling: true })
                    || matches!(nc, Num::Nan { signaling: true });
                // inf * 0 is invalid even with a NaN addend (RISC-V spec).
                let inf_times_zero = matches!(
                    (na, nb),
                    (Num::Inf { .. }, Num::Zero { .. }) | (Num::Zero { .. }, Num::Inf { .. })
                );
                if matches!(na, Num::Nan { .. })
                    || matches!(nb, Num::Nan { .. })
                    || matches!(nc, Num::Nan { .. })
                {
                    return SfResult {
                        bits: CANON_NAN,
                        flags: if any_snan || inf_times_zero {
                            flags::NV
                        } else {
                            0
                        },
                    };
                }
                if inf_times_zero {
                    return SfResult {
                        bits: CANON_NAN,
                        flags: flags::NV,
                    };
                }
                let prod_inf = matches!(na, Num::Inf { .. }) || matches!(nb, Num::Inf { .. });
                if prod_inf {
                    return match nc {
                        Num::Inf { sign } if sign != psign => SfResult {
                            bits: CANON_NAN,
                            flags: flags::NV,
                        },
                        _ => SfResult {
                            bits: inf(psign),
                            flags: 0,
                        },
                    };
                }
                if let Num::Inf { sign } = nc {
                    return SfResult {
                        bits: inf(sign),
                        flags: 0,
                    };
                }
                // Product is finite or zero from here on.
                match (na, nb, nc) {
                    (Num::Zero { .. }, _, Num::Zero { sign: sc })
                    | (_, Num::Zero { .. }, Num::Zero { sign: sc }) => {
                        // 0*x + 0: sign by effective addition of zeros.
                        SfResult {
                            bits: zero(psign && sc),
                            flags: 0,
                        }
                    }
                    (Num::Zero { .. }, _, _) | (_, Num::Zero { .. }, _) => {
                        SfResult { bits: c, flags: 0 }
                    }
                    (
                        Num::Fin {
                            sig: siga, e: ea, ..
                        },
                        Num::Fin {
                            sig: sigb, e: eb, ..
                        },
                        Num::Zero { .. },
                    ) => round_pack(psign, siga * sigb, ea + eb),
                    (
                        Num::Fin {
                            sig: siga, e: ea, ..
                        },
                        Num::Fin {
                            sig: sigb, e: eb, ..
                        },
                        Num::Fin {
                            sign: sc,
                            sig: sigc,
                            e: ec,
                        },
                    ) => add_fin(psign, siga * sigb, ea + eb, sc, sigc, ec),
                    _ => unreachable!("all special cases handled above"),
                }
            }
        }
    };
}

softfloat_impl!(f64sf, u64, 11, 52, 0x7ff8_0000_0000_0000);
softfloat_impl!(f32sf, u32, 8, 23, 0x7fc0_0000);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fpu::flags;

    fn host_eq64(op: &str, a: f64, b: f64, c: f64) {
        let (got, want) = match op {
            "add" => (f64sf::add(a.to_bits(), b.to_bits()).bits, a + b),
            "sub" => (f64sf::sub(a.to_bits(), b.to_bits()).bits, a - b),
            "mul" => (f64sf::mul(a.to_bits(), b.to_bits()).bits, a * b),
            "fma" => (
                f64sf::fma(a.to_bits(), b.to_bits(), c.to_bits()).bits,
                a.mul_add(b, c),
            ),
            _ => unreachable!(),
        };
        let want_bits = if want.is_nan() {
            0x7ff8_0000_0000_0000
        } else {
            want.to_bits()
        };
        assert_eq!(
            got, want_bits,
            "{op}({a:e}, {b:e}, {c:e}): got {got:#018x} want {want_bits:#018x}"
        );
    }

    #[test]
    fn add_matches_host() {
        let cases: [(f64, f64); 12] = [
            (1.5, 2.25),
            (1.0, 1e-30),
            (1e300, 1e300),
            (-1.0, 1.0),
            (1.0, -1.0 + 2e-16),
            (0.1, 0.2),
            (1e-320, 1e-320),
            (f64::MIN_POSITIVE, -f64::MIN_POSITIVE / 2.0),
            (3.0, -3.0000000000000004),
            (1e308, 1e308),
            (-0.0, 0.0),
            (5e-324, 5e-324),
        ];
        for (a, b) in cases {
            host_eq64("add", a, b, 0.0);
            host_eq64("sub", a, b, 0.0);
        }
    }

    #[test]
    fn mul_matches_host() {
        let cases: [(f64, f64); 10] = [
            (1.5, 2.25),
            (0.1, 0.3),
            (1e200, 1e200),
            (1e-200, 1e-200),
            (-3.7, 9.1),
            (5e-324, 0.5),
            (f64::MAX, 1.0000000001),
            (1e-310, 1e3),
            (2.0, 0.5),
            (1.0 + f64::EPSILON, 1.0 + f64::EPSILON),
        ];
        for (a, b) in cases {
            host_eq64("mul", a, b, 0.0);
        }
    }

    #[test]
    fn fma_matches_host() {
        let cases: [(f64, f64, f64); 10] = [
            (2.0, 3.0, 1.0),
            (0.1, 0.2, 0.3),
            (1e200, 1e200, -1e300),
            (1.0 + f64::EPSILON, 1.0 - f64::EPSILON, -1.0),
            (1e-300, 1e-300, 1e300),
            (1e-300, 1e-300, 0.0),
            (-2.5, 4.0, 10.0),
            (3.0, -3.0, 9.0),
            (1e16, 1e-16, -1.0),
            (5e-324, 1.0, 5e-324),
        ];
        for (a, b, c) in cases {
            host_eq64("fma", a, b, c);
        }
    }

    #[test]
    fn special_values() {
        let inf = f64::INFINITY.to_bits();
        let ninf = f64::NEG_INFINITY.to_bits();
        let nan = f64::NAN.to_bits();
        // inf - inf is invalid.
        let r = f64sf::add(inf, ninf);
        assert_eq!(r.bits, 0x7ff8_0000_0000_0000);
        assert_eq!(r.flags, crate::fpu::flags::NV);
        // inf + finite = inf.
        assert_eq!(f64sf::add(inf, 1.0f64.to_bits()).bits, inf);
        // 0 * inf is invalid.
        let r = f64sf::mul(0, inf);
        assert_eq!(r.flags, crate::fpu::flags::NV);
        // NaN propagates canonically.
        assert_eq!(
            f64sf::add(nan | 0xdead, 1.0f64.to_bits()).bits,
            0x7ff8_0000_0000_0000
        );
        // fma: inf*0 + qNaN raises NV per the RISC-V spec.
        let r = f64sf::fma(inf, 0, nan);
        assert_eq!(r.flags, crate::fpu::flags::NV);
        // -0 + -0 = -0; -0 + +0 = +0.
        let nz = (-0.0f64).to_bits();
        assert_eq!(f64sf::add(nz, nz).bits, nz);
        assert_eq!(f64sf::add(nz, 0).bits, 0);
        // Exact cancellation gives +0.
        assert_eq!(f64sf::sub(1.5f64.to_bits(), 1.5f64.to_bits()).bits, 0);
    }

    #[test]
    fn overflow_and_flags() {
        let r = f64sf::add(f64::MAX.to_bits(), f64::MAX.to_bits());
        assert_eq!(r.bits, f64::INFINITY.to_bits());
        assert_ne!(r.flags & flags::OF, 0);
        assert_ne!(r.flags & flags::NX, 0);
        let r = f64sf::add(1.0f64.to_bits(), 1e-30f64.to_bits());
        assert_ne!(r.flags & flags::NX, 0);
        let r = f64sf::add(1.0f64.to_bits(), 1.0f64.to_bits());
        assert_eq!(r.flags, 0);
    }

    #[test]
    fn f32_matches_host() {
        let cases: [(f32, f32); 8] = [
            (1.5, 2.25),
            (0.1, 0.2),
            (1e38, 1e38),
            (1e-38, 1e-38),
            (-1.0, 1.0 + f32::EPSILON),
            (f32::MIN_POSITIVE, -f32::MIN_POSITIVE / 2.0),
            (3.4e38, 1.0),
            (1e-44, 1e-44),
        ];
        for (a, b) in cases {
            let got = f32sf::add(a.to_bits(), b.to_bits()).bits;
            assert_eq!(got, (a + b).to_bits(), "f32sf::add({a:e},{b:e})");
            let got = f32sf::mul(a.to_bits(), b.to_bits()).bits;
            let want = a * b;
            let want = if want.is_nan() {
                0x7fc0_0000
            } else {
                want.to_bits()
            };
            assert_eq!(got, want, "f32sf::mul({a:e},{b:e})");
        }
        let got = f32sf::fma(0.1f32.to_bits(), 0.2f32.to_bits(), 0.3f32.to_bits()).bits;
        assert_eq!(got, 0.1f32.mul_add(0.2, 0.3).to_bits());
    }

    #[test]
    fn subnormal_results() {
        // Two large subnormals adding to a normal.
        let a = f64::MIN_POSITIVE / 2.0;
        host_eq64("add", a, a, 0.0);
        // Subnormal x normal producing subnormal.
        host_eq64("mul", 1e-310, 0.37, 0.0);
        // Smallest subnormal halved rounds to even (zero).
        let tiny = f64::from_bits(1);
        host_eq64("mul", tiny, 0.5, 0.0);
        host_eq64("mul", f64::from_bits(3), 0.5, 0.0);
    }
}
