//! Kernel lanes: the scalar `exp`, `ln`, `log10`, `erf` and Gaussian
//! pdf/cdf under the §5.2 mixture fit and the sampling battery.
//!
//! The lanes replace libm's `f64::exp`/`f64::ln` with the Cody–Waite /
//! atanh-series implementations below, in a fixed IEEE-754 operation
//! order (explicit mul-then-add; Rust never contracts `f64` arithmetic
//! into FMA), so no fitted byte depends on the host's libm. Every fitted
//! registry's bits come from that order, so it is part of the output
//! contract: `tests/kernels.rs` pins each lane's output bits over a
//! fixed sweep. Each batch caller
//! ([`crate::distributions::LogNormal10::pdf_log10_batch`], the mixture
//! CDF and the sampling battery in `mtd-core`) is a plain loop over one
//! lane.
//!
//! # ULP policy
//!
//! Against the libm-based scalar references the lanes differ by a small,
//! *pinned* margin, enforced by property tests (`tests/kernels.rs`):
//!
//! | lane                  | max ULP | absolute floor |
//! |-----------------------|---------|----------------|
//! | `exp_compat`          | 8       | 1e-305         |
//! | `ln_compat`/`log10`   | 8       | 1e-300         |
//! | `erf_compat`          | 8       | 1e-12          |
//! | `gaussian_pdf_compat` | 8       | 1e-300         |
//! | `gaussian_cdf_compat` | 8       | 1e-12          |
//!
//! The absolute floors cover regions where the reference itself loses all
//! relative accuracy (erf's zero crossing, the far Gaussian tail) and the
//! documented flush windows of `exp_compat`: inputs in `(709.43, 709.78]`
//! flush to `+inf` and inputs in `(-745, -708.5)` flush to `0` where libm
//! would return a finite/subnormal value. `ln_compat` flushes subnormal
//! inputs to `-inf` (every caller feeds zeros or normal floats).

/// 1.5·2⁵² — adding it rounds a small-magnitude f64 to the nearest integer
/// (round-to-nearest-even) and leaves that integer in the low mantissa bits.
const EXP_SHIFT: f64 = 6_755_399_441_055_744.0;
/// Bit pattern of [`EXP_SHIFT`]; subtracting it from `bits(EXP_SHIFT + n)`
/// recovers the integer `n` for `|n| < 2⁵¹`.
const EXP_SHIFT_BITS: i64 = 0x4338_0000_0000_0000;
/// Cody–Waite high part of ln 2 (33 significant bits, so `n·LN2_HI` with
/// `|n| ≤ 1075` is exact).
#[allow(clippy::excessive_precision)] // written to the source's full length
const LN2_HI: f64 = 6.931_471_803_691_238_164_9e-1;
/// Cody–Waite low part: `LN2_HI + LN2_LO` ≈ ln 2 to ~107 bits.
#[allow(clippy::excessive_precision)]
const LN2_LO: f64 = 1.908_214_929_270_587_700_02e-10;
/// Above this, `exp` flushes to `+inf` (keeps the scale exponent ≤ 1023).
const EXP_HI: f64 = 709.43;
/// Below this, `exp` flushes to `0` (keeps the scale exponent ≥ −1021).
const EXP_LO: f64 = -708.5;

/// Taylor coefficients `1/k!` for `exp` on `|r| ≤ ln2/2` (Horner, degree 13).
const EXP_POLY: [f64; 14] = [
    1.0,
    1.0,
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5_040.0,
    1.0 / 40_320.0,
    1.0 / 362_880.0,
    1.0 / 3_628_800.0,
    1.0 / 39_916_800.0,
    1.0 / 479_001_600.0,
    1.0 / 6_227_020_800.0,
];

/// atanh-series coefficients `2/(2k+1)`: `ln m = t·Σ c_k t²ᵏ` with
/// `t = (m−1)/(m+1)`, `m ∈ [√2/2, √2)` so `t² ≤ 0.0295`.
const LN_POLY: [f64; 11] = [
    2.0,
    2.0 / 3.0,
    2.0 / 5.0,
    2.0 / 7.0,
    2.0 / 9.0,
    2.0 / 11.0,
    2.0 / 13.0,
    2.0 / 15.0,
    2.0 / 17.0,
    2.0 / 19.0,
    2.0 / 21.0,
];

/// `eˣ` in the lanes' fixed operation sequence.
///
/// Cody–Waite range reduction `x = n·ln2 + r`, degree-13 Taylor on `r`,
/// scale by `2ⁿ` built from bits. See the module docs for the flush
/// windows; NaN propagates.
#[must_use]
#[inline]
pub fn exp_compat(x: f64) -> f64 {
    let t = x * std::f64::consts::LOG2_E + EXP_SHIFT;
    let n_f = t - EXP_SHIFT;
    let n_i = (t.to_bits() as i64).wrapping_sub(EXP_SHIFT_BITS);
    let r = (x - n_f * LN2_HI) - n_f * LN2_LO;
    let mut p = EXP_POLY[13];
    for k in (0..13).rev() {
        p = p * r + EXP_POLY[k];
    }
    let pow2 = f64::from_bits((n_i.wrapping_add(1023) << 52) as u64);
    let mut y = p * pow2;
    // NaN takes neither branch and propagates through the arithmetic
    // above.
    if x < EXP_LO {
        y = 0.0;
    }
    if x > EXP_HI {
        y = f64::INFINITY;
    }
    y
}

/// `ln x` in the lanes' fixed operation sequence.
///
/// Exponent/mantissa split, normalize `m` into `[√2/2, √2)`, atanh series
/// in `(m−1)/(m+1)`. Zero and subnormals flush to `−inf`, negatives to
/// NaN, `+inf` stays `+inf`, NaN propagates.
#[must_use]
#[inline]
pub fn ln_compat(x: f64) -> f64 {
    let bits = x.to_bits();
    let mut e = (((bits >> 52) & 0x7FF) as i64).wrapping_sub(1023);
    let mut m = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | 0x3FF0_0000_0000_0000);
    if m > std::f64::consts::SQRT_2 {
        m *= 0.5;
        e += 1;
    }
    let e_f = e as f64;
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    let mut p = LN_POLY[10];
    for k in (0..10).rev() {
        p = p * t2 + LN_POLY[k];
    }
    let ln_m = p * t;
    let mut y = e_f * LN2_HI + (e_f * LN2_LO + ln_m);
    // Edge cases in a fixed order (later ones win).
    if x < f64::MIN_POSITIVE {
        y = f64::NEG_INFINITY;
    }
    if x < 0.0 {
        y = f64::NAN;
    }
    if x == f64::INFINITY {
        y = f64::INFINITY;
    }
    if x.is_nan() {
        y = x;
    }
    y
}

/// `log₁₀ x` lane: [`ln_compat`]` / LN_10`.
#[must_use]
#[inline]
pub fn log10_compat(x: f64) -> f64 {
    ln_compat(x) / std::f64::consts::LN_10
}

/// Error function lane — mirrors [`crate::distributions::erf`] except that
/// `exp` is [`exp_compat`].
#[must_use]
#[inline]
pub fn erf_compat(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let ax = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * ax);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * exp_compat(-ax * ax);
    let mut out = sign * y;
    // NaN inputs pass through bit-for-bit.
    if x.is_nan() {
        out = x;
    }
    out
}

/// Gaussian pdf lane — mirrors
/// `std_normal_pdf((x − mean)/std) / std` with [`exp_compat`].
#[must_use]
#[inline]
pub fn gaussian_pdf_compat(x: f64, mean: f64, std: f64, inv_sqrt_tau: f64) -> f64 {
    let z = (x - mean) / std;
    let e = exp_compat(-0.5 * z * z);
    (e * inv_sqrt_tau) / std
}

/// Gaussian cdf lane — mirrors
/// `0.5·(1 + erf(((x − mean)/std)/√2))` with [`erf_compat`].
#[must_use]
#[inline]
pub fn gaussian_cdf_compat(x: f64, mean: f64, std: f64) -> f64 {
    let z = (x - mean) / std;
    let q = z / std::f64::consts::SQRT_2;
    0.5 * (1.0 + erf_compat(q))
}

// ULP helpers for the policy tests.

/// Monotonic integer key: `a < b` (as floats, −0 = +0) ⟺ `key(a) < key(b)`.
fn ulp_key(x: f64) -> i64 {
    let b = x.to_bits() as i64;
    if b < 0 {
        i64::MIN - b
    } else {
        b
    }
}

/// Distance in units-in-the-last-place between two finite floats.
///
/// `+0` and `−0` are 0 apart; NaNs have no meaningful distance (callers
/// check first).
#[must_use]
pub fn ulp_distance(a: f64, b: f64) -> u128 {
    (i128::from(ulp_key(a)) - i128::from(ulp_key(b))).unsigned_abs()
}

/// Whether `a` and `b` agree to `max_ulp` places, with an absolute floor:
/// two values both at most `abs_floor` in magnitude always agree.
#[must_use]
pub fn ulp_within(a: f64, b: f64, max_ulp: u64, abs_floor: f64) -> bool {
    if a == b || (a.is_nan() && b.is_nan()) {
        return true;
    }
    if a.is_nan() || b.is_nan() {
        return false;
    }
    if a.abs() <= abs_floor && b.abs() <= abs_floor {
        return true;
    }
    ulp_distance(a, b) <= u128::from(max_ulp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ulp_distance_is_a_metric_near_zero() {
        assert_eq!(ulp_distance(0.0, -0.0), 0);
        assert_eq!(ulp_distance(0.0, f64::from_bits(1)), 1);
        assert_eq!(ulp_distance(-f64::from_bits(1), f64::from_bits(1)), 2);
        assert_eq!(ulp_distance(1.0, 1.0 + f64::EPSILON), 1);
        assert!(ulp_within(1.0, 1.0, 0, 0.0));
        assert!(!ulp_within(1.0, 2.0, 8, 0.0));
        assert!(ulp_within(1e-13, -1e-13, 0, 1e-12));
        assert!(!ulp_within(f64::NAN, 1.0, u64::MAX, f64::MAX));
        assert!(ulp_within(f64::NAN, f64::NAN, 0, 0.0));
    }
}
