//! Floating-point semantics with RISC-V NaN boxing: one rulebook for both
//! widths. The analogue of NEMU's fast path (paper §III-D1d): guest FP
//! instructions run on host FP arithmetic, FMA on the host's fused
//! `mul_add`. Each rule the spec adds to IEEE-754 — canonical NaN, NaN
//! boxing, invalid operands, overflow, divide-by-zero, signed-zero
//! min/max, classify, sign injection, saturating FP→int, once-rounded
//! int→FP — is one function generic over [`Fmt`] (`f32` and `f64`).
//!
//! Host arithmetic rounds to nearest-even whatever `rm` says and raises no
//! NX, an approximation DESIGN §5 documents; every conversion honours `rm`
//! and derives NX exactly. [`fp_execute_with::<Soft>`](Soft) swaps the
//! exact-rounding [`crate::softfloat`] kernels in for add, sub, mul and the
//! FMAs, as the Spike-like baseline does; every other rule is shared.

use crate::op::Op;
use crate::softfloat::{f32sf, f64sf, SfResult};
use std::ops::{Add, Div, Mul, Neg};

/// Exception flag bits (fcsr fflags layout).
#[allow(missing_docs)]
pub mod flags {
    pub const NX: u64 = 1 << 0;
    pub const UF: u64 = 1 << 1;
    pub const OF: u64 = 1 << 2;
    pub const DZ: u64 = 1 << 3;
    pub const NV: u64 = 1 << 4;
}

/// Canonical quiet NaN for f32 (as boxed 64-bit value).
pub const CANONICAL_NAN_F32: u64 = 0xffff_ffff_7fc0_0000;
/// Canonical quiet NaN for f64.
pub const CANONICAL_NAN_F64: u64 = 0x7ff8_0000_0000_0000;

/// Result of a floating-point operation: the destination bits (NaN-boxed
/// for single precision, raw integer for int-destination ops) plus the
/// accumulated exception flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FpResult {
    /// Destination register value.
    pub bits: u64,
    /// fflags bits raised by this operation.
    pub flags: u64,
}

impl FpResult {
    #[inline]
    fn new(bits: u64, flags: u64) -> Self {
        FpResult { bits, flags }
    }
}

/// `f` if `raised`, else no flag.
#[inline]
fn flag(raised: bool, f: u64) -> u64 {
    f * raised as u64
}

/// One IEEE-754 binary format as an FP register holds it: required items
/// are the format's own, provided ones the NaN-boxing rules, written once.
pub trait Fmt:
    Copy
    + PartialOrd
    + Add<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
{
    /// The register bits above the format, all set in a boxed value.
    const BOX: u64;
    /// The canonical quiet NaN as a register value.
    const CANON: u64;
    /// The sign bit.
    const SIGN: u64;
    /// The quiet bit of a NaN.
    const QUIET: u64;
    /// Positive zero.
    const ZERO: Self;
    /// Significand bits, the hidden one included.
    const DIGITS: u32;
    /// The exponent of the power of two just past the largest finite value.
    const MAX_EXP: i32;
    /// The format's own bits, zero-extended.
    fn raw(self) -> u64;
    /// The value whose bits are the low ones of `raw`.
    fn from_raw(raw: u64) -> Self;
    /// `self as f64`: exact.
    fn to_f64(self) -> f64;
    /// `x as Self`: rounds to nearest-even.
    fn from_f64(x: f64) -> Self;
    /// `v as Self`: rounds to nearest-even.
    fn from_i128(v: i128) -> Self;
    // The host's own methods of these names:
    fn is_nan(self) -> bool;
    fn is_infinite(self) -> bool;
    fn is_finite(self) -> bool;
    fn is_subnormal(self) -> bool;
    fn is_sign_negative(self) -> bool;
    fn sqrt(self) -> Self;
    fn mul_add(self, y: Self, z: Self) -> Self;
    /// [`crate::softfloat`] add.
    fn soft_add(self, y: Self) -> FpResult;
    /// [`crate::softfloat`] multiply.
    fn soft_mul(self, y: Self) -> FpResult;
    /// [`crate::softfloat`] fused multiply-add.
    fn soft_fma(self, y: Self, z: Self) -> FpResult;

    /// Unbox a register value; one not properly NaN-boxed reads as the
    /// canonical NaN, as the spec requires.
    fn unbox(reg: u64) -> Self {
        let boxed = reg & Self::BOX == Self::BOX;
        Self::from_raw(if boxed { reg } else { Self::CANON })
    }
    /// The register value holding `self`, bits untouched.
    fn boxed(self) -> u64 {
        Self::BOX | self.raw()
    }
    /// The register value of a computed result: every NaN is canonical.
    fn canon(self) -> u64 {
        let nan = self.is_nan();
        if nan {
            Self::CANON
        } else {
            self.boxed()
        }
    }
    /// Whether a signalling NaN.
    fn is_snan(self) -> bool {
        self.is_nan() && self.raw() & Self::QUIET == 0
    }
}

fn soft<F: Fmt, B: Into<u64>>(r: SfResult<B>) -> FpResult {
    FpResult::new(F::from_raw(r.bits.into()).boxed(), r.flags)
}

macro_rules! formats {
    ($($f:ident, $sf:ident: box $bx:expr, nan $nan:expr, sign $s:expr, quiet $q:expr;)*) => {$(
        impl Fmt for $f {
            const BOX: u64 = $bx;
            const CANON: u64 = $nan;
            const SIGN: u64 = $s;
            const QUIET: u64 = $q;
            const ZERO: Self = 0.0;
            const DIGITS: u32 = $f::MANTISSA_DIGITS;
            const MAX_EXP: i32 = $f::MAX_EXP;
            #[inline] fn raw(self) -> u64 { self.to_bits() as u64 }
            #[inline] fn from_raw(raw: u64) -> Self { $f::from_bits(raw as _) }
            #[inline] fn to_f64(self) -> f64 { self as f64 }
            #[inline] fn from_f64(x: f64) -> Self { x as $f }
            #[inline] fn from_i128(v: i128) -> Self { v as $f }
            #[inline] fn is_nan(self) -> bool { $f::is_nan(self) }
            #[inline] fn is_infinite(self) -> bool { $f::is_infinite(self) }
            #[inline] fn is_finite(self) -> bool { $f::is_finite(self) }
            #[inline] fn is_subnormal(self) -> bool { $f::is_subnormal(self) }
            #[inline] fn is_sign_negative(self) -> bool { $f::is_sign_negative(self) }
            #[inline] fn sqrt(self) -> Self { $f::sqrt(self) }
            #[inline] fn mul_add(self, y: Self, z: Self) -> Self { $f::mul_add(self, y, z) }
            #[inline] fn soft_add(self, y: Self) -> FpResult {
                soft::<$f, _>($sf::add(self.to_bits(), y.to_bits()))
            }
            #[inline] fn soft_mul(self, y: Self) -> FpResult {
                soft::<$f, _>($sf::mul(self.to_bits(), y.to_bits()))
            }
            #[inline] fn soft_fma(self, y: Self, z: Self) -> FpResult {
                soft::<$f, _>($sf::fma(self.to_bits(), y.to_bits(), z.to_bits()))
            }
        }
    )*};
}

formats! {
    f32, f32sf: box 0xffff_ffff_0000_0000, nan CANONICAL_NAN_F32, sign 1 << 31, quiet 1 << 22;
    f64, f64sf: box 0, nan CANONICAL_NAN_F64, sign 1 << 63, quiet 1 << 51;
}

/// The kernels that round add, multiply and fused multiply-add (sub is
/// an add of the negation); every other rule is the rulebook's own.
pub trait Arith {
    /// `x + y`.
    fn add<F: Fmt>(x: F, y: F) -> FpResult;
    /// `x × y`.
    fn mul<F: Fmt>(x: F, y: F) -> FpResult;
    /// `x × y + z`, rounded once.
    fn fma<F: Fmt>(x: F, y: F, z: F) -> FpResult;
}

/// Host arithmetic, the fast path of every tier but the Spike-like one.
#[derive(Debug)]
pub enum Host {}

/// The exact-rounding [`crate::softfloat`] kernels, as Spike's SoftFloat.
#[derive(Debug)]
pub enum Soft {}

impl Arith for Host {
    #[inline(always)]
    fn add<F: Fmt>(x: F, y: F) -> FpResult {
        host(x + y, &[x, y])
    }
    #[inline(always)]
    fn mul<F: Fmt>(x: F, y: F) -> FpResult {
        host(x * y, &[x, y])
    }
    #[inline(always)]
    fn fma<F: Fmt>(x: F, y: F, z: F) -> FpResult {
        let r = host(x.mul_add(y, z), &[x, y, z]);
        // ∞ × 0 is invalid even beside a quiet-NaN addend.
        let inf_zero = |p: F, q: F| p.is_infinite() && q == F::ZERO;
        let invalid = r.bits == F::CANON && (inf_zero(x, y) || inf_zero(y, x));
        FpResult::new(r.bits, if invalid { flags::NV } else { r.flags })
    }
}

impl Arith for Soft {
    fn add<F: Fmt>(x: F, y: F) -> FpResult {
        x.soft_add(y)
    }
    fn mul<F: Fmt>(x: F, y: F) -> FpResult {
        x.soft_mul(y)
    }
    fn fma<F: Fmt>(x: F, y: F, z: F) -> FpResult {
        x.soft_fma(y, z)
    }
}

/// A host result: a finite one raises nothing this model tracks (NX and
/// UF are not derived); a NaN or infinite one goes to [`special`].
#[inline(always)]
fn host<F: Fmt>(r: F, ops: &[F]) -> FpResult {
    if r.is_finite() {
        FpResult::new(r.boxed(), 0)
    } else {
        special(r, ops)
    }
}

/// The flags of a NaN or infinite result computed from `ops`: an sNaN
/// operand, or a NaN made from no NaN, is invalid; an infinity made from
/// no infinity overflowed (an sNaN operand makes a NaN, so not both).
#[cold]
#[inline(never)]
fn special<F: Fmt, G: Fmt>(r: F, ops: &[G]) -> FpResult {
    let any = |p: fn(G) -> bool| ops.iter().any(|&x| p(x));
    let invalid = any(G::is_snan) || r.is_nan() && !any(G::is_nan);
    let overflow = r.is_infinite() && !any(G::is_infinite);
    let flags = flag(invalid, flags::NV) | flag(overflow, flags::OF | flags::NX);
    FpResult::new(r.canon(), flags)
}

/// Division: a finite non-zero dividend over zero is DZ, not overflow.
fn div<F: Fmt>(x: F, y: F) -> FpResult {
    let r = x / y;
    if !r.is_finite() && y == F::ZERO && x.is_finite() && x != F::ZERO {
        return FpResult::new(r.boxed(), flags::DZ);
    }
    host(r, &[x, y])
}

/// `fcvt.s.d` / `fcvt.d.s`: one rounding by `rm`, NX when it lost bits,
/// OF beside it when the value lies beyond the target's range (`T::MAX`
/// and an ulp), even where `rm` keeps the result finite.
fn convert<T: Fmt, S: Fmt>(x: S, rm: u8) -> FpResult {
    let v = x.to_f64();
    let near = T::from_f64(v);
    let r = if near.to_f64() == v || v.is_nan() {
        near
    } else {
        let tie = |lo: T, hi: T| (lo.to_f64() + hi.to_f64()) / 2.0 == v;
        directed(near, rm, v.abs() > near.to_f64().abs(), v < 0.0, tie)
    };
    if !r.is_finite() {
        return special(r, &[x]);
    }
    let beyond = v.abs() >= 2f64.powi(T::MAX_EXP);
    let flags = if beyond {
        flags::OF | flags::NX
    } else {
        flag(r.to_f64() != v, flags::NX)
    };
    FpResult::new(r.boxed(), flags)
}

/// The rounding by `rm` of an exact value that `near`, its rounding to
/// nearest-even, missed: one of `near` and the neighbour on the value's
/// side of it (`beyond`: farther from zero than `near`). `tie(lo, hi)`
/// says whether the value lies midway between the two.
#[inline(always)]
fn directed<F: Fmt>(
    near: F,
    rm: u8,
    beyond: bool,
    negative: bool,
    tie: impl Fn(F, F) -> bool,
) -> F {
    // Same sign, one ulp farther from (or nearer to) zero; past the
    // largest finite magnitude lies the infinity.
    let next = F::from_raw(if beyond {
        near.raw() + 1
    } else {
        near.raw() - 1
    });
    let (lo, hi) = if beyond { (near, next) } else { (next, near) };
    match rm {
        1 => lo,
        2 if negative => hi,
        2 => lo,
        3 if negative => lo,
        3 => hi,
        4 if tie(lo, hi) => hi,
        _ => near,
    }
}

/// FP→int: round by `rm`, saturate outside `lo..=hi` with NV (a NaN
/// reads as `hi`), NX when rounding moved the value. RV64 keeps a 32-bit
/// result sign-extended.
#[inline(always)]
fn to_int<F: Fmt>(x: F, rm: u8, lo: i128, hi: i128) -> FpResult {
    let x = x.to_f64();
    let r = match rm {
        1 => x.trunc(),
        2 => x.floor(),
        3 => x.ceil(),
        4 => x.round(),
        _ => x.round_ties_even(),
    };
    let (v, flags) = if x.is_nan() || r >= (hi + 1) as f64 {
        (hi as u64, flags::NV)
    } else if r < lo as f64 {
        (lo as u64, flags::NV)
    } else {
        let v = if lo < 0 { r as i64 as u64 } else { r as u64 };
        (v, flag(r != x, flags::NX))
    };
    let w = hi >> 32 == 0;
    FpResult::new(if w { v as i32 as u64 } else { v }, flags)
}

/// Int→FP: one rounding by `rm`. `v` is exact, raising no NX, when its
/// significant bits fit the significand (an integer never reaches the
/// infinities of either format).
#[inline(always)]
fn from_int<F: Fmt>(v: i128, rm: u8) -> FpResult {
    let near = F::from_i128(v);
    let m = v.unsigned_abs();
    if m >> F::DIGITS == 0 || m >> m.trailing_zeros() >> F::DIGITS == 0 {
        return FpResult::new(near.boxed(), 0);
    }
    // Exact: a rounded integer this wide is itself an integer.
    let int = |f: F| f.to_f64() as i128;
    let tie = |lo: F, hi: F| int(lo) + int(hi) == 2 * v;
    let r = directed(near, rm, m > int(near).unsigned_abs(), v < 0, tie);
    FpResult::new(r.boxed(), flags::NX)
}

/// `fmin`/`fmax`: a number beats a NaN, −0 is below +0, an sNaN operand
/// is invalid.
fn minmax<F: Fmt>(x: F, y: F, max: bool) -> FpResult {
    let below = x < y || x == y && x.is_sign_negative();
    let take_y = x.is_nan() || !y.is_nan() && below == max;
    let r = if take_y { y } else { x };
    FpResult::new(r.canon(), flag(x.is_snan() || y.is_snan(), flags::NV))
}

/// `feq`: quiet, only an sNaN operand is invalid.
fn feq<F: Fmt>(x: F, y: F) -> FpResult {
    FpResult::new((x == y) as u64, flag(x.is_snan() || y.is_snan(), flags::NV))
}

/// `flt`/`fle`: signalling, any NaN operand is invalid.
fn order<F: Fmt>(x: F, y: F, holds: fn(&F, &F) -> bool) -> FpResult {
    FpResult::new(
        holds(&x, &y) as u64,
        flag(x.is_nan() || y.is_nan(), flags::NV),
    )
}

/// `fclass`: bit 8 an sNaN, bit 9 a qNaN; bits 0–7 run from −∞ up to +∞,
/// so a negative class `k` mirrors to `7 − k` when positive.
fn classify<F: Fmt>(x: F) -> u64 {
    let k = match (x.is_infinite(), x == F::ZERO, x.is_subnormal()) {
        _ if x.is_nan() => return 1 << (9 - x.is_snan() as u32),
        (true, _, _) => 0,
        (_, true, _) => 3,
        (_, _, true) => 2,
        _ => 1,
    };
    1 << if x.is_sign_negative() { k } else { 7 - k }
}

/// Sign injection: `x`'s bits with the sign `pick` makes of both
/// operands' bits; NaNs pass untouched.
fn sgnj<F: Fmt>(x: F, y: F, pick: fn(u64, u64) -> u64) -> FpResult {
    let sign = pick(x.raw(), y.raw()) & F::SIGN;
    FpResult::new(F::from_raw(x.raw() & !F::SIGN | sign).boxed(), 0)
}

/// Execute a floating-point operation with host arithmetic.
///
/// `a`, `b`, `c` are the source register values: FP sources carry register
/// bits (NaN-boxed for `.s`), integer sources (for `fcvt.*.w` etc.) carry
/// the GPR value. The result carries destination bits in the same
/// convention.
///
/// # Panics
///
/// Debug-asserts if `op` is not a floating-point operation.
pub fn fp_execute(op: Op, a: u64, b: u64, c: u64, rm: u8) -> FpResult {
    fp_execute_with::<Host>(op, a, b, c, rm)
}

/// [`fp_execute`] with `A`'s kernels for add, sub, mul and the FMAs.
///
/// # Panics
///
/// Debug-asserts if `op` is not a floating-point operation.
pub fn fp_execute_with<A: Arith>(op: Op, a: u64, b: u64, c: u64, rm: u8) -> FpResult {
    use Op::*;
    let s = f32::unbox;
    let d = f64::unbox;
    match op {
        FaddS => A::add(s(a), s(b)),
        FsubS => A::add(s(a), -s(b)),
        FmulS => A::mul(s(a), s(b)),
        FdivS => div(s(a), s(b)),
        FsqrtS => host(s(a).sqrt(), &[s(a)]),
        FaddD => A::add(d(a), d(b)),
        FsubD => A::add(d(a), -d(b)),
        FmulD => A::mul(d(a), d(b)),
        FdivD => div(d(a), d(b)),
        FsqrtD => host(d(a).sqrt(), &[d(a)]),
        FmaddS => A::fma(s(a), s(b), s(c)),
        FmsubS => A::fma(s(a), s(b), -s(c)),
        FnmsubS => A::fma(-s(a), s(b), s(c)),
        FnmaddS => A::fma(-s(a), s(b), -s(c)),
        FmaddD => A::fma(d(a), d(b), d(c)),
        FmsubD => A::fma(d(a), d(b), -d(c)),
        FnmsubD => A::fma(-d(a), d(b), d(c)),
        FnmaddD => A::fma(-d(a), d(b), -d(c)),
        FsgnjS => sgnj(s(a), s(b), |_, y| y),
        FsgnjnS => sgnj(s(a), s(b), |_, y| !y),
        FsgnjxS => sgnj(s(a), s(b), |x, y| x ^ y),
        FsgnjD => sgnj(d(a), d(b), |_, y| y),
        FsgnjnD => sgnj(d(a), d(b), |_, y| !y),
        FsgnjxD => sgnj(d(a), d(b), |x, y| x ^ y),
        FminS => minmax(s(a), s(b), false),
        FmaxS => minmax(s(a), s(b), true),
        FminD => minmax(d(a), d(b), false),
        FmaxD => minmax(d(a), d(b), true),
        FeqS => feq(s(a), s(b)),
        FltS => order(s(a), s(b), PartialOrd::lt),
        FleS => order(s(a), s(b), PartialOrd::le),
        FeqD => feq(d(a), d(b)),
        FltD => order(d(a), d(b), PartialOrd::lt),
        FleD => order(d(a), d(b), PartialOrd::le),
        FclassS => FpResult::new(classify(s(a)), 0),
        FclassD => FpResult::new(classify(d(a)), 0),
        FmvXW => FpResult::new(a as u32 as i32 as i64 as u64, 0),
        FmvWX => FpResult::new(f32::BOX | a, 0),
        FmvXD | FmvDX => FpResult::new(a, 0),
        FcvtWS => to_int(s(a), rm, i32::MIN.into(), i32::MAX.into()),
        FcvtWuS => to_int(s(a), rm, 0, u32::MAX.into()),
        FcvtLS => to_int(s(a), rm, i64::MIN.into(), i64::MAX.into()),
        FcvtLuS => to_int(s(a), rm, 0, u64::MAX.into()),
        FcvtWD => to_int(d(a), rm, i32::MIN.into(), i32::MAX.into()),
        FcvtWuD => to_int(d(a), rm, 0, u32::MAX.into()),
        FcvtLD => to_int(d(a), rm, i64::MIN.into(), i64::MAX.into()),
        FcvtLuD => to_int(d(a), rm, 0, u64::MAX.into()),
        FcvtSW => from_int::<f32>((a as i32).into(), rm),
        FcvtSWu => from_int::<f32>((a as u32).into(), rm),
        FcvtSL => from_int::<f32>((a as i64).into(), rm),
        FcvtSLu => from_int::<f32>(a.into(), rm),
        FcvtDW => from_int::<f64>((a as i32).into(), rm),
        FcvtDWu => from_int::<f64>((a as u32).into(), rm),
        FcvtDL => from_int::<f64>((a as i64).into(), rm),
        FcvtDLu => from_int::<f64>(a.into(), rm),
        FcvtSD => convert::<f32, f64>(d(a), rm),
        FcvtDS => convert::<f64, f32>(s(a), rm),
        _ => {
            debug_assert!(false, "fp_execute called on {op:?}");
            FpResult::new(0, 0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flags::*;

    fn f64bits(x: f64) -> u64 {
        x.to_bits()
    }

    #[test]
    fn double_arithmetic() {
        let r = fp_execute(Op::FaddD, f64bits(1.5), f64bits(2.25), 0, 0);
        assert_eq!(f64::from_bits(r.bits), 3.75);
        let r = fp_execute(Op::FmulD, f64bits(3.0), f64bits(-2.0), 0, 0);
        assert_eq!(f64::from_bits(r.bits), -6.0);
        let r = fp_execute(Op::FmaddD, f64bits(2.0), f64bits(3.0), f64bits(1.0), 0);
        assert_eq!(f64::from_bits(r.bits), 7.0);
        let r = fp_execute(Op::FnmaddD, f64bits(2.0), f64bits(3.0), f64bits(1.0), 0);
        assert_eq!(f64::from_bits(r.bits), -7.0);
        let r = fp_execute(Op::FmsubD, f64bits(2.0), f64bits(3.0), f64bits(1.0), 0);
        assert_eq!(f64::from_bits(r.bits), 5.0);
        let r = fp_execute(Op::FnmsubD, f64bits(2.0), f64bits(3.0), f64bits(1.0), 0);
        assert_eq!(f64::from_bits(r.bits), -5.0);
    }

    #[test]
    fn single_nan_boxing() {
        let a = 0xffff_ffff_0000_0000u64 | 1.5f32.to_bits() as u64;
        let b = 0xffff_ffff_0000_0000u64 | 2.5f32.to_bits() as u64;
        let r = fp_execute(Op::FaddS, a, b, 0, 0);
        assert_eq!(r.bits >> 32, 0xffff_ffff);
        assert_eq!(f32::from_bits(r.bits as u32), 4.0);
        // An unboxed operand reads as NaN.
        let r = fp_execute(Op::FaddS, 1.5f64.to_bits(), b, 0, 0);
        assert_eq!(r.bits, CANONICAL_NAN_F32);
    }

    #[test]
    fn nan_canonicalization() {
        let nan = f64::NAN.to_bits() | 0xdead; // a non-canonical NaN payload
        let r = fp_execute(Op::FaddD, nan, f64bits(1.0), 0, 0);
        assert_eq!(r.bits, CANONICAL_NAN_F64);
        assert_eq!(r.flags, 0, "quiet NaN propagation raises no flags");
    }

    #[test]
    fn division_flags() {
        let r = fp_execute(Op::FdivD, f64bits(1.0), f64bits(0.0), 0, 0);
        assert!(f64::from_bits(r.bits).is_infinite());
        assert_eq!(r.flags, flags::DZ);
        let r = fp_execute(Op::FdivD, f64bits(0.0), f64bits(0.0), 0, 0);
        assert_eq!(r.bits, CANONICAL_NAN_F64);
        assert_eq!(r.flags & flags::NV, flags::NV);
        let r = fp_execute(Op::FsqrtD, f64bits(-1.0), 0, 0, 0);
        assert_eq!(r.flags, flags::NV);
    }

    #[test]
    fn comparisons() {
        assert_eq!(
            fp_execute(Op::FltD, f64bits(1.0), f64bits(2.0), 0, 0).bits,
            1
        );
        assert_eq!(
            fp_execute(Op::FleD, f64bits(2.0), f64bits(2.0), 0, 0).bits,
            1
        );
        assert_eq!(
            fp_execute(Op::FeqD, f64bits(2.0), f64bits(3.0), 0, 0).bits,
            0
        );
        // Comparisons with NaN: flt/fle signal, feq is quiet on qNaN.
        let nan = f64::NAN.to_bits();
        let r = fp_execute(Op::FltD, nan, f64bits(1.0), 0, 0);
        assert_eq!((r.bits, r.flags), (0, flags::NV));
        let r = fp_execute(Op::FeqD, nan, f64bits(1.0), 0, 0);
        assert_eq!((r.bits, r.flags), (0, 0));
    }

    #[test]
    fn min_max_zero_and_nan() {
        let r = fp_execute(Op::FminD, f64bits(-0.0), f64bits(0.0), 0, 0);
        assert_eq!(r.bits, (-0.0f64).to_bits());
        let r = fp_execute(Op::FmaxD, f64bits(-0.0), f64bits(0.0), 0, 0);
        assert_eq!(r.bits, 0.0f64.to_bits());
        // One NaN: the other operand wins.
        let r = fp_execute(Op::FmaxD, f64::NAN.to_bits(), f64bits(5.0), 0, 0);
        assert_eq!(f64::from_bits(r.bits), 5.0);
        let r = fp_execute(Op::FminD, f64::NAN.to_bits(), f64::NAN.to_bits(), 0, 0);
        assert_eq!(r.bits, CANONICAL_NAN_F64);
    }

    #[test]
    fn conversions_and_saturation() {
        let r = fp_execute(Op::FcvtWD, f64bits(-3.75), 0, 0, 1); // RTZ
        assert_eq!(r.bits as i64, -3);
        assert_eq!(r.flags, flags::NX);
        let r = fp_execute(Op::FcvtWD, f64bits(-3.75), 0, 0, 2); // RDN
        assert_eq!(r.bits as i64, -4);
        let r = fp_execute(Op::FcvtWD, f64bits(2.5), 0, 0, 0); // RNE
        assert_eq!(r.bits as i64, 2);
        let r = fp_execute(Op::FcvtWD, f64bits(3.5), 0, 0, 0); // RNE
        assert_eq!(r.bits as i64, 4);
        // Saturation.
        let r = fp_execute(Op::FcvtWD, f64bits(1e20), 0, 0, 1);
        assert_eq!((r.bits as i64, r.flags), (i32::MAX as i64, flags::NV));
        let r = fp_execute(Op::FcvtWD, f64bits(-1e20), 0, 0, 1);
        assert_eq!(r.bits as i64, i32::MIN as i64);
        let r = fp_execute(Op::FcvtWuD, f64bits(-1.0), 0, 0, 1);
        assert_eq!((r.bits, r.flags), (0, flags::NV));
        let r = fp_execute(Op::FcvtWD, f64::NAN.to_bits(), 0, 0, 1);
        assert_eq!(r.bits as i64, i32::MAX as i64);
        // Int to float and back.
        let r = fp_execute(Op::FcvtDL, (-42i64) as u64, 0, 0, 0);
        assert_eq!(f64::from_bits(r.bits), -42.0);
        let r = fp_execute(Op::FcvtDLu, u64::MAX, 0, 0, 0);
        assert!(f64::from_bits(r.bits) > 1.8e19);
    }

    #[test]
    fn sign_injection() {
        let r = fp_execute(Op::FsgnjD, f64bits(1.5), f64bits(-2.0), 0, 0);
        assert_eq!(f64::from_bits(r.bits), -1.5);
        let r = fp_execute(Op::FsgnjnD, f64bits(1.5), f64bits(-2.0), 0, 0);
        assert_eq!(f64::from_bits(r.bits), 1.5);
        let r = fp_execute(Op::FsgnjxD, f64bits(-1.5), f64bits(-2.0), 0, 0);
        assert_eq!(f64::from_bits(r.bits), 1.5);
    }

    #[test]
    fn classify() {
        let class_d = |bits: u64| fp_execute(Op::FclassD, bits, 0, 0, 0).bits;
        let class_s = |reg: u64| fp_execute(Op::FclassS, reg, 0, 0, 0).bits;
        assert_eq!(class_d(f64bits(-f64::INFINITY)), 1 << 0);
        assert_eq!(class_d(f64bits(-1.0)), 1 << 1);
        assert_eq!(class_d((-0.0f64).to_bits()), 1 << 3);
        assert_eq!(class_d(0), 1 << 4);
        assert_eq!(class_d(f64bits(1.0)), 1 << 6);
        assert_eq!(class_d(f64bits(f64::INFINITY)), 1 << 7);
        assert_eq!(class_d(CANONICAL_NAN_F64), 1 << 9);
        assert_eq!(class_d(1), 1 << 5); // smallest subnormal
        assert_eq!(class_s(CANONICAL_NAN_F32), 1 << 9);
        assert_eq!(
            class_s(0xffff_ffff_0000_0000 | 1.0f32.to_bits() as u64),
            1 << 6
        );
    }

    #[test]
    fn fp_moves() {
        let r = fp_execute(Op::FmvXD, f64bits(1.0), 0, 0, 0);
        assert_eq!(r.bits, f64bits(1.0));
        let r = fp_execute(Op::FmvWX, 0x3f80_0000, 0, 0, 0);
        assert_eq!(f32::unbox(r.bits), 1.0);
        // fmv.x.w sign-extends bit 31.
        let boxed = 0xffff_ffff_0000_0000u64 | 0x8000_0000;
        let r = fp_execute(Op::FmvXW, boxed, 0, 0, 0);
        assert_eq!(r.bits, 0xffff_ffff_8000_0000);
    }

    #[test]
    fn float_double_conversion() {
        let r = fp_execute(Op::FcvtSD, f64bits(1.5), 0, 0, 0);
        assert_eq!(f32::unbox(r.bits), 1.5);
        let r = fp_execute(Op::FcvtSD, f64bits(1.0 + 1e-12), 0, 0, 0);
        assert_eq!(r.flags, flags::NX);
        let boxed = 0xffff_ffff_0000_0000u64 | 2.5f32.to_bits() as u64;
        let r = fp_execute(Op::FcvtDS, boxed, 0, 0, 0);
        assert_eq!(f64::from_bits(r.bits), 2.5);
    }

    /// Every arithmetic op and both FP↔FP conversions: an sNaN in any
    /// source the op reads is invalid, and the result is the canonical NaN.
    #[test]
    fn an_snan_operand_raises_nv() {
        use Op::*;
        let (snan_d, snan_s) = (0x7ff0_0000_0000_0001, f32::from_bits(0x7f80_0001).boxed());
        let d = [
            FaddD, FsubD, FmulD, FdivD, FsqrtD, FmaddD, FmsubD, FnmsubD, FnmaddD,
        ];
        let s = [
            FaddS, FsubS, FmulS, FdivS, FsqrtS, FmaddS, FmsubS, FnmsubS, FnmaddS,
        ];
        let arity = [2, 2, 2, 2, 1, 3, 3, 3, 3];
        for (ops, snan, one, canon) in [
            (d, snan_d, f64bits(1.0), CANONICAL_NAN_F64),
            (s, snan_s, 1f32.boxed(), CANONICAL_NAN_F32),
        ] {
            for (op, n) in ops.into_iter().zip(arity) {
                for k in 0..n {
                    let mut srcs = [one; 3];
                    srcs[k] = snan;
                    let r = fp_execute(op, srcs[0], srcs[1], srcs[2], 0);
                    assert_eq!((r.bits, r.flags), (canon, NV), "{op:?}, sNaN in source {k}");
                }
            }
        }
        let r = fp_execute(FcvtSD, snan_d, 0, 0, 0);
        assert_eq!((r.bits, r.flags), (CANONICAL_NAN_F32, NV));
        let r = fp_execute(FcvtDS, snan_s, 0, 0, 0);
        assert_eq!((r.bits, r.flags), (CANONICAL_NAN_F64, NV));
    }

    /// An infinite operand makes an exact infinity: no overflow.
    #[test]
    fn an_infinite_operand_is_not_an_overflow() {
        let r = fp_execute(Op::FaddD, f64bits(f64::INFINITY), f64bits(1.0), 0, 0);
        assert_eq!((r.bits, r.flags), (f64bits(f64::INFINITY), 0));
        // An infinity made from finite operands still overflows.
        let r = fp_execute(Op::FaddD, f64bits(f64::MAX), f64bits(f64::MAX), 0, 0);
        assert_eq!((r.bits, r.flags), (f64bits(f64::INFINITY), OF | NX));
    }

    /// `fcvt.s.l` rounds once, from the integer, not twice through f64.
    #[test]
    fn fcvt_s_l_rounds_once() {
        let v = (1u64 << 62) + (1 << 38) + 1;
        for op in [Op::FcvtSL, Op::FcvtSLu] {
            let r = fp_execute(op, v, 0, 0, 0);
            assert_eq!((r.bits, r.flags), (0xffff_ffff_5e80_0001, NX), "{op:?}");
        }
    }

    /// An inexact int→FP conversion raises NX.
    #[test]
    fn an_inexact_int_to_fp_conversion_raises_nx() {
        let r = fp_execute(Op::FcvtDL, (1u64 << 60) + 1, 0, 0, 0);
        assert_eq!((r.bits, r.flags), (f64bits(2f64.powi(60)), NX));
        let r = fp_execute(Op::FcvtDLu, u64::MAX, 0, 0, 0);
        assert_eq!((r.bits, r.flags), (f64bits(2f64.powi(64)), NX));
        let r = fp_execute(Op::FcvtDL, 1 << 60, 0, 0, 0);
        assert_eq!(r.flags, 0);
    }

    /// RMM rounds ties away from zero, and only ties.
    #[test]
    fn rmm_rounds_only_ties_away() {
        let r = fp_execute(Op::FcvtLD, f64bits(0.49999999999999994), 0, 0, 4);
        assert_eq!((r.bits, r.flags), (0, NX));
        let odd = (1u64 << 52) + 1;
        let r = fp_execute(Op::FcvtLD, f64bits(odd as f64), 0, 0, 4);
        assert_eq!((r.bits, r.flags), (odd, 0));
        let r = fp_execute(Op::FcvtLD, f64bits(-2.5), 0, 0, 4);
        assert_eq!((r.bits as i64, r.flags), (-3, NX));
    }

    /// RV64 sign-extends every 32-bit conversion result, unsigned ones too.
    #[test]
    fn fcvt_wu_sign_extends() {
        let r = fp_execute(Op::FcvtWuD, f64bits(3e9), 0, 0, 1);
        assert_eq!((r.bits, r.flags), (0xffff_ffff_b2d0_5e00, 0));
        let r = fp_execute(Op::FcvtWuD, f64bits(1e10), 0, 0, 1);
        assert_eq!((r.bits, r.flags), (u64::MAX, NV));
    }

    /// An operand that is not NaN-boxed reads as the quiet canonical NaN,
    /// whatever its low word holds: no NV from `feq`/`fmin`/`fmax.s`.
    #[test]
    fn an_unboxed_single_is_a_quiet_nan() {
        let unboxed_snan = 0x7f80_0001u64;
        let one = 1f32.boxed();
        let r = fp_execute(Op::FeqS, unboxed_snan, one, 0, 0);
        assert_eq!((r.bits, r.flags), (0, 0));
        for op in [Op::FminS, Op::FmaxS] {
            let r = fp_execute(op, unboxed_snan, one, 0, 0);
            assert_eq!((r.bits, r.flags), (one, 0), "{op:?}");
        }
    }

    /// Narrowing `f64::MAX` overflows.
    #[test]
    fn fcvt_s_d_of_f64_max_overflows() {
        let r = fp_execute(Op::FcvtSD, f64bits(f64::MAX), 0, 0, 0);
        assert_eq!((r.bits, r.flags), (f32::INFINITY.boxed(), OF | NX));
    }

    const RNE: u8 = 0;
    const RTZ: u8 = 1;
    const RDN: u8 = 2;
    const RUP: u8 = 3;
    const RMM: u8 = 4;

    /// `fcvt.s.d` rounds by `rm`: 1 + 2⁻²⁴ + 2⁻⁴⁰ lies just above the
    /// midpoint of 1 and the next single, so the nearest modes go up, the
    /// ones toward zero (and toward −∞ for a positive value) stay at 1.
    #[test]
    fn fcvt_s_d_rounds_by_rm() {
        let x = 1.0 + 2f64.powi(-24) + 2f64.powi(-40);
        let (one, up) = (0x3f80_0000u32, 0x3f80_0001u32);
        let neg = |b: u32| b | 1 << 31;
        for (rm, pos, minus) in [
            (RNE, up, neg(up)),
            (RTZ, one, neg(one)),
            (RDN, one, neg(up)),
            (RUP, up, neg(one)),
            (RMM, up, neg(up)),
        ] {
            let r = fp_execute(Op::FcvtSD, f64bits(x), 0, 0, rm);
            assert_eq!(
                (r.bits, r.flags),
                (f32::from_bits(pos).boxed(), NX),
                "rm {rm}"
            );
            let r = fp_execute(Op::FcvtSD, f64bits(-x), 0, 0, rm);
            assert_eq!(
                (r.bits, r.flags),
                (f32::from_bits(minus).boxed(), NX),
                "-x, rm {rm}"
            );
        }
        // An exact tie: RNE keeps the even 1, RMM goes away from zero.
        let tie = 1.0 + 2f64.powi(-24);
        let r = fp_execute(Op::FcvtSD, f64bits(-tie), 0, 0, RMM);
        assert_eq!((r.bits, r.flags), (f32::from_bits(neg(up)).boxed(), NX));
        let r = fp_execute(Op::FcvtSD, f64bits(-tie), 0, 0, RNE);
        assert_eq!((r.bits, r.flags), (f32::from_bits(neg(one)).boxed(), NX));
        // Widening is exact under every mode.
        let r = fp_execute(Op::FcvtDS, 1.5f32.boxed(), 0, 0, RUP);
        assert_eq!((r.bits, r.flags), (f64bits(1.5), 0));
    }

    /// Past the single range a mode toward zero keeps `f32::MAX`; a value
    /// between `f32::MAX` and 2¹²⁸ overflows only where `rm` rounds it up.
    #[test]
    fn fcvt_s_d_overflow_by_rm() {
        let max = f32::MAX.boxed();
        let r = fp_execute(Op::FcvtSD, f64bits(f64::MAX), 0, 0, RTZ);
        assert_eq!((r.bits, r.flags), (max, OF | NX));
        let r = fp_execute(Op::FcvtSD, f64bits(-f64::MAX), 0, 0, RUP);
        assert_eq!((r.bits, r.flags), ((-f32::MAX).boxed(), OF | NX));
        let r = fp_execute(Op::FcvtSD, f64bits(-f64::MAX), 0, 0, RDN);
        assert_eq!((r.bits, r.flags), (f32::NEG_INFINITY.boxed(), OF | NX));
        let above = f32::MAX as f64 + 1e30;
        let r = fp_execute(Op::FcvtSD, f64bits(above), 0, 0, RTZ);
        assert_eq!((r.bits, r.flags), (max, NX));
        let r = fp_execute(Op::FcvtSD, f64bits(above), 0, 0, RUP);
        assert_eq!((r.bits, r.flags), (f32::INFINITY.boxed(), OF | NX));
    }

    /// `fcvt.d.l` rounds by `rm`: 2⁵³+1 is a tie between 2⁵³ and 2⁵³+2,
    /// 2⁵⁴+1 no tie (its neighbours are 2⁵⁴ and 2⁵⁴+4).
    #[test]
    fn fcvt_d_l_rounds_by_rm() {
        let p53 = 1i64 << 53;
        let d = |v: i64| f64bits(v as f64);
        for (rm, pos, minus) in [
            (RNE, p53, -p53),
            (RTZ, p53, -p53),
            (RDN, p53, -p53 - 2),
            (RUP, p53 + 2, -p53),
            (RMM, p53 + 2, -p53 - 2),
        ] {
            let r = fp_execute(Op::FcvtDL, (p53 + 1) as u64, 0, 0, rm);
            assert_eq!((r.bits, r.flags), (d(pos), NX), "rm {rm}");
            let r = fp_execute(Op::FcvtDL, (-p53 - 1) as u64, 0, 0, rm);
            assert_eq!((r.bits, r.flags), (d(minus), NX), "-(2^53+1), rm {rm}");
        }
        let p54 = 1i64 << 54;
        let r = fp_execute(Op::FcvtDL, (-p54 - 1) as u64, 0, 0, RMM);
        assert_eq!((r.bits, r.flags), (d(-p54), NX));
        let r = fp_execute(Op::FcvtDL, (-p54 - 1) as u64, 0, 0, RDN);
        assert_eq!((r.bits, r.flags), (d(-p54 - 4), NX));
        // Unsigned and single: u64::MAX toward zero is the single below 2⁶⁴.
        let r = fp_execute(Op::FcvtSLu, u64::MAX, 0, 0, RTZ);
        assert_eq!((r.bits, r.flags), (f32::from_bits(0x5f7f_ffff).boxed(), NX));
        let r = fp_execute(Op::FcvtSLu, u64::MAX, 0, 0, RUP);
        assert_eq!((r.bits, r.flags), (2f32.powi(64).boxed(), NX));
        // Exact conversions raise nothing under any mode.
        let r = fp_execute(Op::FcvtSW, (-7i64) as u64, 0, 0, RUP);
        assert_eq!((r.bits, r.flags), ((-7f32).boxed(), 0));
    }
}
