//! Runtime-dispatched SIMD batch kernels for the fit/validate hot paths.
//!
//! Three tiers share one per-lane algorithm:
//!
//! - **Scalar** — portable fallback; plain loops over the `*_compat` lane
//!   functions below (auto-vectorization friendly, no `std::arch`).
//! - **Sse2** — 2 × f64 lanes via `core::arch::x86_64` (baseline on x86-64).
//! - **Avx2** — 4 × f64 lanes.
//!
//! Every tier performs the *identical* IEEE-754 operation sequence per lane
//! (explicit mul-then-add, never FMA — Rust never contracts scalar `f64`
//! arithmetic and the intrinsics used here are all non-fused), so the three
//! tiers are **bit-identical** to each other for every kernel. Remainder
//! elements that do not fill a vector run through the same `*_compat` lanes.
//!
//! # ULP policy
//!
//! The transcendental kernels (`exp`, `ln`, `log10`, `erf`, Gaussian
//! pdf/cdf) replace libm's `f64::exp`/`f64::ln` with the Cody–Waite /
//! atanh-series implementations below, so batch results differ from the
//! scalar libm reference by a small, *pinned* margin enforced by property tests
//! (see `tests/simd_equivalence.rs`):
//!
//! | kernel              | max ULP | absolute floor |
//! |---------------------|---------|----------------|
//! | `exp_into`          | 8       | 1e-305         |
//! | `ln_into`/`log10`   | 8       | 1e-300         |
//! | `erf_into`          | 8       | 1e-12          |
//! | `gaussian_pdf_into` | 8       | 1e-300         |
//! | `gaussian_cdf_into` | 8       | 1e-12          |
//!
//! The absolute floors cover regions where the reference itself loses all
//! relative accuracy (erf's zero crossing, the far Gaussian tail) and the
//! documented flush windows of `exp_compat`: inputs in `(709.43, 709.78]`
//! flush to `+inf` and inputs in `(-745, -708.5)` flush to `0` where libm
//! would return a finite/subnormal value. `ln_compat` flushes subnormal
//! inputs to `-inf` (every caller feeds zeros or normal floats).
//!
//! `convolve_scaled_into` and `sub_div_into` use only exactly-rounded
//! IEEE ops in scalar accumulation order per output element, so they are
//! **bit-exact** against the scalar reference on every tier.
//!
//! # Dispatch
//!
//! [`active_tier`] picks the widest available tier once per process
//! (cached). The tiers are bit-identical, so the choice changes only
//! speed; tests and `kernel_bench` run a given tier through the `*_with`
//! entry points.

use std::sync::OnceLock;

/// Instruction-set tier a batch kernel runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Portable scalar loops (any architecture).
    Scalar,
    /// 128-bit SSE2 lanes (x86-64 baseline).
    Sse2,
    /// 256-bit AVX2 lanes.
    Avx2,
}

impl Tier {
    /// Short lowercase name (`"scalar"`, `"sse2"`, `"avx2"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Sse2 => "sse2",
            Tier::Avx2 => "avx2",
        }
    }
}

/// Every tier that can run on this machine, narrowest first.
///
/// Always starts with [`Tier::Scalar`]; used by the equivalence tests and
/// `kernel_bench` to sweep whatever the host supports.
#[must_use]
pub fn available_tiers() -> Vec<Tier> {
    let mut tiers = vec![Tier::Scalar];
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("sse2") {
            tiers.push(Tier::Sse2);
        }
        if is_x86_feature_detected!("avx2") {
            tiers.push(Tier::Avx2);
        }
    }
    tiers
}

/// The tier batch kernels dispatch to: the widest this machine runs,
/// detected once and cached.
pub fn active_tier() -> Tier {
    static TIER: OnceLock<Tier> = OnceLock::new();
    *TIER.get_or_init(|| *available_tiers().last().unwrap_or(&Tier::Scalar))
}

// ---------------------------------------------------------------------------
// Shared lane constants.
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// Scalar lane implementations — the single source of truth for all tiers.
// ---------------------------------------------------------------------------

/// `eˣ` with the exact operation sequence the vector tiers use.
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
    // Selects mirror the vector blends, in the same order; NaN takes
    // neither branch and propagates through the arithmetic above.
    if x < EXP_LO {
        y = 0.0;
    }
    if x > EXP_HI {
        y = f64::INFINITY;
    }
    y
}

/// `ln x` with the exact operation sequence the vector tiers use.
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
    // Edge selects in vector-blend order (later selects win).
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
    // Mirror the vector blend: NaN inputs pass through bit-for-bit
    // (hardware NaN sign propagation differs between lowerings).
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

// ---------------------------------------------------------------------------
// Public batch entry points.
// ---------------------------------------------------------------------------

macro_rules! dispatch {
    ($tier:expr, $name:ident ( $($arg:expr),* )) => {
        match $tier {
            Tier::Scalar => scalar::$name($($arg),*),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `available_tiers` gates these variants on runtime
            // feature detection; `_with` callers assert availability below.
            Tier::Sse2 => unsafe { sse2::$name($($arg),*) },
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => unsafe { avx2::$name($($arg),*) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => scalar::$name($($arg),*),
        }
    };
}

#[cfg(target_arch = "x86_64")]
fn assert_tier_available(tier: Tier) {
    let ok = match tier {
        Tier::Scalar => true,
        Tier::Sse2 => is_x86_feature_detected!("sse2"),
        Tier::Avx2 => is_x86_feature_detected!("avx2"),
    };
    assert!(ok, "tier {} not supported on this CPU", tier.name());
}

#[cfg(not(target_arch = "x86_64"))]
fn assert_tier_available(_tier: Tier) {}

macro_rules! batch_fns {
    ($(#[$doc:meta])* $name:ident, $with_name:ident ( $($arg:ident : $ty:ty),* ), $check:expr) => {
        $(#[$doc])*
        pub fn $name($($arg: $ty),*) {
            $with_name(active_tier(), $($arg),*);
        }

        /// Tier-explicit variant (tests, benches).
        ///
        /// # Panics
        /// Panics when `tier` is unsupported on this CPU or slice lengths
        /// disagree.
        pub fn $with_name(tier: Tier, $($arg: $ty),*) {
            assert_tier_available(tier);
            $check;
            dispatch!(tier, $name($($arg),*));
        }
    };
}

batch_fns!(
    /// `out[i] = exp(xs[i])` ([`exp_compat`] semantics on every tier).
    exp_into,
    exp_into_with(xs: &[f64], out: &mut [f64]),
    assert_eq!(xs.len(), out.len(), "exp_into length mismatch")
);

batch_fns!(
    /// `out[i] = ln(xs[i])` ([`ln_compat`] semantics on every tier).
    ln_into,
    ln_into_with(xs: &[f64], out: &mut [f64]),
    assert_eq!(xs.len(), out.len(), "ln_into length mismatch")
);

batch_fns!(
    /// `out[i] = log10(xs[i])` ([`log10_compat`] semantics on every tier).
    log10_into,
    log10_into_with(xs: &[f64], out: &mut [f64]),
    assert_eq!(xs.len(), out.len(), "log10_into length mismatch")
);

batch_fns!(
    /// `out[i] = erf(xs[i])` ([`erf_compat`] semantics on every tier).
    erf_into,
    erf_into_with(xs: &[f64], out: &mut [f64]),
    assert_eq!(xs.len(), out.len(), "erf_into length mismatch")
);

batch_fns!(
    /// `out[i] = φ((xs[i]−mean)/std)/std` — Gaussian density in `x`.
    gaussian_pdf_into,
    gaussian_pdf_into_with(xs: &[f64], mean: f64, std: f64, out: &mut [f64]),
    assert_eq!(xs.len(), out.len(), "gaussian_pdf_into length mismatch")
);

batch_fns!(
    /// `out[i] = Φ((xs[i]−mean)/std)` — Gaussian CDF in `x`.
    gaussian_cdf_into,
    gaussian_cdf_into_with(xs: &[f64], mean: f64, std: f64, out: &mut [f64]),
    assert_eq!(xs.len(), out.len(), "gaussian_cdf_into length mismatch")
);

batch_fns!(
    /// Sliding dot product: `out[i] = (Σ_k coeffs[k]·ys[i+k])·fac / scale`,
    /// accumulated in ascending-`k` scalar order per output — **bit-exact**
    /// on every tier. Requires `out.len() + coeffs.len() == ys.len() + 1`.
    convolve_scaled_into,
    convolve_scaled_into_with(ys: &[f64], coeffs: &[f64], fac: f64, scale: f64, out: &mut [f64]),
    {
        assert!(!coeffs.is_empty(), "convolve_scaled_into: empty coeffs");
        assert_eq!(
            out.len() + coeffs.len(),
            ys.len() + 1,
            "convolve_scaled_into length mismatch"
        );
    }
);

batch_fns!(
    /// `out[i] = (a[i] − b[i]) / h` — **bit-exact** on every tier.
    sub_div_into,
    sub_div_into_with(a: &[f64], b: &[f64], h: f64, out: &mut [f64]),
    {
        assert_eq!(a.len(), b.len(), "sub_div_into length mismatch");
        assert_eq!(a.len(), out.len(), "sub_div_into length mismatch");
    }
);

// ---------------------------------------------------------------------------
// ULP helpers (shared by the policy tests and kernel_bench).
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// Scalar tier: plain loops over the compat lanes.
// ---------------------------------------------------------------------------

mod scalar {
    use super::*;

    pub fn exp_into(xs: &[f64], out: &mut [f64]) {
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = exp_compat(x);
        }
    }

    pub fn ln_into(xs: &[f64], out: &mut [f64]) {
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = ln_compat(x);
        }
    }

    pub fn log10_into(xs: &[f64], out: &mut [f64]) {
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = log10_compat(x);
        }
    }

    pub fn erf_into(xs: &[f64], out: &mut [f64]) {
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = erf_compat(x);
        }
    }

    pub fn gaussian_pdf_into(xs: &[f64], mean: f64, std: f64, out: &mut [f64]) {
        let inv_sqrt_tau = 1.0 / (2.0 * std::f64::consts::PI).sqrt();
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = gaussian_pdf_compat(x, mean, std, inv_sqrt_tau);
        }
    }

    pub fn gaussian_cdf_into(xs: &[f64], mean: f64, std: f64, out: &mut [f64]) {
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = gaussian_cdf_compat(x, mean, std);
        }
    }

    pub fn convolve_scaled_into(ys: &[f64], coeffs: &[f64], fac: f64, scale: f64, out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (k, &c) in coeffs.iter().enumerate() {
                acc += c * ys[i + k];
            }
            *o = acc * fac / scale;
        }
    }

    pub fn sub_div_into(a: &[f64], b: &[f64], h: f64, out: &mut [f64]) {
        for i in 0..out.len() {
            out[i] = (a[i] - b[i]) / h;
        }
    }
}

// ---------------------------------------------------------------------------
// Vector tiers. One macro emits the whole kernel set against a small set of
// module-local primitives, so SSE2 and AVX2 stay line-for-line identical.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
macro_rules! simd_kernels {
    ($feat:literal) => {
        /// Per-lane `exp`, identical op sequence to [`exp_compat`].
        #[target_feature(enable = $feat)]
        #[inline]
        unsafe fn exp_v(x: V) -> V {
            let t = add(mul(x, splat(std::f64::consts::LOG2_E)), splat(EXP_SHIFT));
            let n_f = sub(t, splat(EXP_SHIFT));
            let n_i = isub(cast_fi(t), isplat(EXP_SHIFT_BITS));
            let r = sub(sub(x, mul(n_f, splat(LN2_HI))), mul(n_f, splat(LN2_LO)));
            let mut p = splat(EXP_POLY[13]);
            let mut k = 13usize;
            while k > 0 {
                k -= 1;
                p = add(mul(p, r), splat(EXP_POLY[k]));
            }
            let pow2 = cast_if(ishl52(iadd(n_i, isplat(1023))));
            let mut y = mul(p, pow2);
            y = select(cmp_lt(x, splat(EXP_LO)), splat(0.0), y);
            y = select(cmp_gt(x, splat(EXP_HI)), splat(f64::INFINITY), y);
            y
        }

        /// Per-lane `ln`, identical op sequence to [`ln_compat`].
        #[target_feature(enable = $feat)]
        #[inline]
        unsafe fn ln_v(x: V) -> V {
            let bits = cast_fi(x);
            let e0 = isub(iand(ishr52(bits), isplat(0x7FF)), isplat(1023));
            let m0 = cast_if(ior(
                iand(bits, isplat(0x000F_FFFF_FFFF_FFFF)),
                isplat(0x3FF0_0000_0000_0000),
            ));
            let big = cmp_gt(m0, splat(std::f64::consts::SQRT_2));
            let m = select(big, mul(m0, splat(0.5)), m0);
            let e = iadd(e0, iand(cast_fi(big), isplat(1)));
            // i64 → f64 lanes via the magic-shift trick (no native cvt
            // before AVX-512): bits(1.5·2⁵² + n) = EXP_SHIFT_BITS + n.
            let e_f = sub(cast_if(iadd(e, isplat(EXP_SHIFT_BITS))), splat(EXP_SHIFT));
            let t = div(sub(m, splat(1.0)), add(m, splat(1.0)));
            let t2 = mul(t, t);
            let mut p = splat(LN_POLY[10]);
            let mut k = 10usize;
            while k > 0 {
                k -= 1;
                p = add(mul(p, t2), splat(LN_POLY[k]));
            }
            let ln_m = mul(p, t);
            let mut y = add(mul(e_f, splat(LN2_HI)), add(mul(e_f, splat(LN2_LO)), ln_m));
            y = select(
                cmp_lt(x, splat(f64::MIN_POSITIVE)),
                splat(f64::NEG_INFINITY),
                y,
            );
            y = select(cmp_lt(x, splat(0.0)), splat(f64::NAN), y);
            y = select(cmp_eq(x, splat(f64::INFINITY)), splat(f64::INFINITY), y);
            y = select(cmp_unord(x, x), x, y);
            y
        }

        /// Per-lane `erf`, identical op sequence to [`erf_compat`].
        #[target_feature(enable = $feat)]
        #[inline]
        unsafe fn erf_v(x: V) -> V {
            let sign = select(cmp_lt(x, splat(0.0)), splat(-1.0), splat(1.0));
            let ax = abs(x);
            let t = div(splat(1.0), add(splat(1.0), mul(splat(0.327_591_1), ax)));
            let p = add(
                mul(
                    sub(
                        mul(
                            add(
                                mul(sub(mul(splat(1.061_405_429), t), splat(1.453_152_027)), t),
                                splat(1.421_413_741),
                            ),
                            t,
                        ),
                        splat(0.284_496_736),
                    ),
                    t,
                ),
                splat(0.254_829_592),
            );
            let e = exp_v(mul(neg(ax), ax));
            let y = sub(splat(1.0), mul(mul(p, t), e));
            select(cmp_unord(x, x), x, mul(sign, y))
        }

        #[target_feature(enable = $feat)]
        pub unsafe fn exp_into(xs: &[f64], out: &mut [f64]) {
            let n = xs.len();
            let mut i = 0;
            // Two vectors per iteration: the polynomial evaluation is one
            // long dependency chain, so a second independent chain keeps
            // the FMA ports busy while the first waits on itself.
            while i + 2 * W <= n {
                let y0 = exp_v(loadu(xs.as_ptr().add(i)));
                let y1 = exp_v(loadu(xs.as_ptr().add(i + W)));
                storeu(out.as_mut_ptr().add(i), y0);
                storeu(out.as_mut_ptr().add(i + W), y1);
                i += 2 * W;
            }
            while i + W <= n {
                storeu(out.as_mut_ptr().add(i), exp_v(loadu(xs.as_ptr().add(i))));
                i += W;
            }
            while i < n {
                out[i] = exp_compat(xs[i]);
                i += 1;
            }
        }

        #[target_feature(enable = $feat)]
        pub unsafe fn ln_into(xs: &[f64], out: &mut [f64]) {
            let n = xs.len();
            let mut i = 0;
            while i + 2 * W <= n {
                let y0 = ln_v(loadu(xs.as_ptr().add(i)));
                let y1 = ln_v(loadu(xs.as_ptr().add(i + W)));
                storeu(out.as_mut_ptr().add(i), y0);
                storeu(out.as_mut_ptr().add(i + W), y1);
                i += 2 * W;
            }
            while i + W <= n {
                storeu(out.as_mut_ptr().add(i), ln_v(loadu(xs.as_ptr().add(i))));
                i += W;
            }
            while i < n {
                out[i] = ln_compat(xs[i]);
                i += 1;
            }
        }

        #[target_feature(enable = $feat)]
        pub unsafe fn log10_into(xs: &[f64], out: &mut [f64]) {
            let n = xs.len();
            let inv = splat(std::f64::consts::LN_10);
            let mut i = 0;
            while i + 2 * W <= n {
                let y0 = div(ln_v(loadu(xs.as_ptr().add(i))), inv);
                let y1 = div(ln_v(loadu(xs.as_ptr().add(i + W))), inv);
                storeu(out.as_mut_ptr().add(i), y0);
                storeu(out.as_mut_ptr().add(i + W), y1);
                i += 2 * W;
            }
            while i + W <= n {
                let y = div(ln_v(loadu(xs.as_ptr().add(i))), inv);
                storeu(out.as_mut_ptr().add(i), y);
                i += W;
            }
            while i < n {
                out[i] = log10_compat(xs[i]);
                i += 1;
            }
        }

        #[target_feature(enable = $feat)]
        pub unsafe fn erf_into(xs: &[f64], out: &mut [f64]) {
            let n = xs.len();
            let mut i = 0;
            while i + 2 * W <= n {
                let y0 = erf_v(loadu(xs.as_ptr().add(i)));
                let y1 = erf_v(loadu(xs.as_ptr().add(i + W)));
                storeu(out.as_mut_ptr().add(i), y0);
                storeu(out.as_mut_ptr().add(i + W), y1);
                i += 2 * W;
            }
            while i + W <= n {
                storeu(out.as_mut_ptr().add(i), erf_v(loadu(xs.as_ptr().add(i))));
                i += W;
            }
            while i < n {
                out[i] = erf_compat(xs[i]);
                i += 1;
            }
        }

        #[target_feature(enable = $feat)]
        pub unsafe fn gaussian_pdf_into(xs: &[f64], mean: f64, std: f64, out: &mut [f64]) {
            let inv_sqrt_tau = 1.0 / (2.0 * std::f64::consts::PI).sqrt();
            let n = xs.len();
            let vm = splat(mean);
            let vs = splat(std);
            let vi = splat(inv_sqrt_tau);
            let half_neg = splat(-0.5);
            let mut i = 0;
            while i + 2 * W <= n {
                let z0 = div(sub(loadu(xs.as_ptr().add(i)), vm), vs);
                let z1 = div(sub(loadu(xs.as_ptr().add(i + W)), vm), vs);
                let e0 = exp_v(mul(mul(half_neg, z0), z0));
                let e1 = exp_v(mul(mul(half_neg, z1), z1));
                storeu(out.as_mut_ptr().add(i), div(mul(e0, vi), vs));
                storeu(out.as_mut_ptr().add(i + W), div(mul(e1, vi), vs));
                i += 2 * W;
            }
            while i + W <= n {
                let z = div(sub(loadu(xs.as_ptr().add(i)), vm), vs);
                let e = exp_v(mul(mul(half_neg, z), z));
                let y = div(mul(e, vi), vs);
                storeu(out.as_mut_ptr().add(i), y);
                i += W;
            }
            while i < n {
                out[i] = gaussian_pdf_compat(xs[i], mean, std, inv_sqrt_tau);
                i += 1;
            }
        }

        #[target_feature(enable = $feat)]
        pub unsafe fn gaussian_cdf_into(xs: &[f64], mean: f64, std: f64, out: &mut [f64]) {
            let n = xs.len();
            let vm = splat(mean);
            let vs = splat(std);
            let vr2 = splat(std::f64::consts::SQRT_2);
            let one = splat(1.0);
            let half = splat(0.5);
            let mut i = 0;
            while i + 2 * W <= n {
                let q0 = div(div(sub(loadu(xs.as_ptr().add(i)), vm), vs), vr2);
                let q1 = div(div(sub(loadu(xs.as_ptr().add(i + W)), vm), vs), vr2);
                let y0 = mul(half, add(one, erf_v(q0)));
                let y1 = mul(half, add(one, erf_v(q1)));
                storeu(out.as_mut_ptr().add(i), y0);
                storeu(out.as_mut_ptr().add(i + W), y1);
                i += 2 * W;
            }
            while i + W <= n {
                let z = div(sub(loadu(xs.as_ptr().add(i)), vm), vs);
                let q = div(z, vr2);
                let y = mul(half, add(one, erf_v(q)));
                storeu(out.as_mut_ptr().add(i), y);
                i += W;
            }
            while i < n {
                out[i] = gaussian_cdf_compat(xs[i], mean, std);
                i += 1;
            }
        }

        #[target_feature(enable = $feat)]
        pub unsafe fn convolve_scaled_into(
            ys: &[f64],
            coeffs: &[f64],
            fac: f64,
            scale: f64,
            out: &mut [f64],
        ) {
            let n = out.len();
            let vf = splat(fac);
            let vs = splat(scale);
            let mut i = 0;
            // Lane j accumulates output i+j; each lane adds c_k·y in
            // ascending k exactly like the scalar loop → bit-exact.
            while i + W <= n {
                let mut acc = splat(0.0);
                for (k, &c) in coeffs.iter().enumerate() {
                    acc = add(acc, mul(splat(c), loadu(ys.as_ptr().add(i + k))));
                }
                storeu(out.as_mut_ptr().add(i), div(mul(acc, vf), vs));
                i += W;
            }
            while i < n {
                let mut acc = 0.0;
                for (k, &c) in coeffs.iter().enumerate() {
                    acc += c * ys[i + k];
                }
                out[i] = acc * fac / scale;
                i += 1;
            }
        }

        #[target_feature(enable = $feat)]
        pub unsafe fn sub_div_into(a: &[f64], b: &[f64], h: f64, out: &mut [f64]) {
            let n = out.len();
            let vh = splat(h);
            let mut i = 0;
            while i + W <= n {
                let y = div(sub(loadu(a.as_ptr().add(i)), loadu(b.as_ptr().add(i))), vh);
                storeu(out.as_mut_ptr().add(i), y);
                i += W;
            }
            while i < n {
                out[i] = (a[i] - b[i]) / h;
                i += 1;
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
mod sse2 {
    use super::*;
    use core::arch::x86_64::*;

    const W: usize = 2;
    type V = __m128d;
    type VI = __m128i;

    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn splat(x: f64) -> V {
        _mm_set1_pd(x)
    }
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn isplat(x: i64) -> VI {
        _mm_set1_epi64x(x)
    }
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn loadu(p: *const f64) -> V {
        _mm_loadu_pd(p)
    }
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn storeu(p: *mut f64, v: V) {
        _mm_storeu_pd(p, v);
    }
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn add(a: V, b: V) -> V {
        _mm_add_pd(a, b)
    }
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn sub(a: V, b: V) -> V {
        _mm_sub_pd(a, b)
    }
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn mul(a: V, b: V) -> V {
        _mm_mul_pd(a, b)
    }
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn div(a: V, b: V) -> V {
        _mm_div_pd(a, b)
    }
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn neg(a: V) -> V {
        _mm_xor_pd(a, _mm_set1_pd(-0.0))
    }
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn abs(a: V) -> V {
        _mm_andnot_pd(_mm_set1_pd(-0.0), a)
    }
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn cmp_lt(a: V, b: V) -> V {
        _mm_cmplt_pd(a, b)
    }
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn cmp_gt(a: V, b: V) -> V {
        _mm_cmpgt_pd(a, b)
    }
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn cmp_eq(a: V, b: V) -> V {
        _mm_cmpeq_pd(a, b)
    }
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn cmp_unord(a: V, b: V) -> V {
        _mm_cmpunord_pd(a, b)
    }
    /// `mask ? t : f` per lane (mask lanes are all-ones or all-zeros).
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn select(mask: V, t: V, f: V) -> V {
        _mm_or_pd(_mm_and_pd(mask, t), _mm_andnot_pd(mask, f))
    }
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn cast_fi(a: V) -> VI {
        _mm_castpd_si128(a)
    }
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn cast_if(a: VI) -> V {
        _mm_castsi128_pd(a)
    }
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn iadd(a: VI, b: VI) -> VI {
        _mm_add_epi64(a, b)
    }
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn isub(a: VI, b: VI) -> VI {
        _mm_sub_epi64(a, b)
    }
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn iand(a: VI, b: VI) -> VI {
        _mm_and_si128(a, b)
    }
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn ior(a: VI, b: VI) -> VI {
        _mm_or_si128(a, b)
    }
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn ishl52(a: VI) -> VI {
        _mm_slli_epi64::<52>(a)
    }
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn ishr52(a: VI) -> VI {
        _mm_srli_epi64::<52>(a)
    }

    simd_kernels!("sse2");
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use core::arch::x86_64::*;

    const W: usize = 4;
    type V = __m256d;
    type VI = __m256i;

    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn splat(x: f64) -> V {
        _mm256_set1_pd(x)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn isplat(x: i64) -> VI {
        _mm256_set1_epi64x(x)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn loadu(p: *const f64) -> V {
        _mm256_loadu_pd(p)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn storeu(p: *mut f64, v: V) {
        _mm256_storeu_pd(p, v);
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn add(a: V, b: V) -> V {
        _mm256_add_pd(a, b)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn sub(a: V, b: V) -> V {
        _mm256_sub_pd(a, b)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn mul(a: V, b: V) -> V {
        _mm256_mul_pd(a, b)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn div(a: V, b: V) -> V {
        _mm256_div_pd(a, b)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn neg(a: V) -> V {
        _mm256_xor_pd(a, _mm256_set1_pd(-0.0))
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn abs(a: V) -> V {
        _mm256_andnot_pd(_mm256_set1_pd(-0.0), a)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn cmp_lt(a: V, b: V) -> V {
        _mm256_cmp_pd::<_CMP_LT_OQ>(a, b)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn cmp_gt(a: V, b: V) -> V {
        _mm256_cmp_pd::<_CMP_GT_OQ>(a, b)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn cmp_eq(a: V, b: V) -> V {
        _mm256_cmp_pd::<_CMP_EQ_OQ>(a, b)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn cmp_unord(a: V, b: V) -> V {
        _mm256_cmp_pd::<_CMP_UNORD_Q>(a, b)
    }
    /// `mask ? t : f` per lane (mask lanes are all-ones or all-zeros).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn select(mask: V, t: V, f: V) -> V {
        _mm256_blendv_pd(f, t, mask)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn cast_fi(a: V) -> VI {
        _mm256_castpd_si256(a)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn cast_if(a: VI) -> V {
        _mm256_castsi256_pd(a)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn iadd(a: VI, b: VI) -> VI {
        _mm256_add_epi64(a, b)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn isub(a: VI, b: VI) -> VI {
        _mm256_sub_epi64(a, b)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn iand(a: VI, b: VI) -> VI {
        _mm256_and_si256(a, b)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn ior(a: VI, b: VI) -> VI {
        _mm256_or_si256(a, b)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn ishl52(a: VI) -> VI {
        _mm256_slli_epi64::<52>(a)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn ishr52(a: VI) -> VI {
        _mm256_srli_epi64::<52>(a)
    }

    simd_kernels!("avx2");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{stream_id, stream_rng};
    use rand::Rng;

    fn sample_inputs(n: usize, lo: f64, hi: f64) -> Vec<f64> {
        let mut rng = stream_rng(42, stream_id("simd-tests"));
        (0..n).map(|_| lo + (hi - lo) * rng.gen::<f64>()).collect()
    }

    fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{what}[{i}]: {x:e} vs {y:e} (bits {:#x} vs {:#x})",
                x.to_bits(),
                y.to_bits()
            );
        }
    }

    #[test]
    fn tiers_are_bit_identical_for_every_kernel() {
        // Mixed magnitudes incl. negatives and odd (remainder) lengths.
        for n in [0usize, 1, 2, 3, 5, 17, 64, 257] {
            let xs = sample_inputs(n, -30.0, 30.0);
            let pos: Vec<f64> = xs.iter().map(|x| x.abs() + 1e-12).collect();
            let mut reference = vec![0.0; n];
            let mut got = vec![0.0; n];
            for tier in available_tiers() {
                exp_into_with(Tier::Scalar, &xs, &mut reference);
                exp_into_with(tier, &xs, &mut got);
                assert_bits_eq(&got, &reference, "exp");
                ln_into_with(Tier::Scalar, &pos, &mut reference);
                ln_into_with(tier, &pos, &mut got);
                assert_bits_eq(&got, &reference, "ln");
                log10_into_with(Tier::Scalar, &pos, &mut reference);
                log10_into_with(tier, &pos, &mut got);
                assert_bits_eq(&got, &reference, "log10");
                erf_into_with(Tier::Scalar, &xs, &mut reference);
                erf_into_with(tier, &xs, &mut got);
                assert_bits_eq(&got, &reference, "erf");
                gaussian_pdf_into_with(Tier::Scalar, &xs, 1.3, 2.1, &mut reference);
                gaussian_pdf_into_with(tier, &xs, 1.3, 2.1, &mut got);
                assert_bits_eq(&got, &reference, "gaussian_pdf");
                gaussian_cdf_into_with(Tier::Scalar, &xs, 1.3, 2.1, &mut reference);
                gaussian_cdf_into_with(tier, &xs, 1.3, 2.1, &mut got);
                assert_bits_eq(&got, &reference, "gaussian_cdf");
            }
        }
    }

    #[test]
    fn tiers_are_bit_identical_on_edge_inputs() {
        let edges = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            -f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            709.0,
            709.5,
            710.0,
            -708.0,
            -709.0,
            -745.0,
            -746.0,
            1e-300,
            1e300,
            std::f64::consts::SQRT_2,
        ];
        let mut reference = vec![0.0; edges.len()];
        let mut got = vec![0.0; edges.len()];
        for tier in available_tiers() {
            exp_into_with(Tier::Scalar, &edges, &mut reference);
            exp_into_with(tier, &edges, &mut got);
            assert_bits_eq(&got, &reference, "exp-edge");
            ln_into_with(Tier::Scalar, &edges, &mut reference);
            ln_into_with(tier, &edges, &mut got);
            assert_bits_eq(&got, &reference, "ln-edge");
            erf_into_with(Tier::Scalar, &edges, &mut reference);
            erf_into_with(tier, &edges, &mut got);
            assert_bits_eq(&got, &reference, "erf-edge");
        }
    }

    #[test]
    fn exp_compat_tracks_libm_within_policy() {
        for &x in &sample_inputs(20_000, -700.0, 700.0) {
            let got = exp_compat(x);
            let want = x.exp();
            assert!(
                ulp_within(got, want, 8, 1e-305),
                "exp({x}): {got:e} vs libm {want:e} ({} ulp)",
                ulp_distance(got, want)
            );
        }
        assert_eq!(exp_compat(f64::NEG_INFINITY), 0.0);
        assert_eq!(exp_compat(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp_compat(-800.0), 0.0);
        assert_eq!(exp_compat(800.0), f64::INFINITY);
        assert!(exp_compat(f64::NAN).is_nan());
        assert_eq!(exp_compat(0.0), 1.0);
    }

    #[test]
    fn ln_compat_tracks_libm_within_policy() {
        for &x in &sample_inputs(20_000, 1e-12, 1e12) {
            let got = ln_compat(x);
            let want = x.ln();
            assert!(
                ulp_within(got, want, 8, 1e-300),
                "ln({x}): {got:e} vs libm {want:e} ({} ulp)",
                ulp_distance(got, want)
            );
        }
        // Near-1 cancellation region and extreme exponents.
        for &x in &[1e-300, 0.999_999_9, 1.000_000_1, 1e300] {
            let (got, want) = (ln_compat(x), x.ln());
            assert!(
                ulp_within(got, want, 8, 1e-300),
                "ln({x}): {got:e} vs {want:e}"
            );
        }
        assert_eq!(ln_compat(0.0), f64::NEG_INFINITY);
        assert_eq!(ln_compat(f64::INFINITY), f64::INFINITY);
        assert!(ln_compat(-1.0).is_nan());
        assert!(ln_compat(f64::NAN).is_nan());
        assert_eq!(ln_compat(1.0), 0.0);
    }

    #[test]
    fn erf_compat_tracks_scalar_reference_within_policy() {
        for &x in &sample_inputs(20_000, -8.0, 8.0) {
            let got = erf_compat(x);
            let want = crate::distributions::erf(x);
            assert!(
                ulp_within(got, want, 8, 1e-12),
                "erf({x}): {got:e} vs scalar {want:e} ({} ulp)",
                ulp_distance(got, want)
            );
        }
    }

    #[test]
    fn bit_exact_kernels_match_scalar_reference_exactly() {
        let ys = sample_inputs(129, -5.0, 5.0);
        let coeffs = sample_inputs(7, -1.0, 1.0);
        let n_out = ys.len() - coeffs.len() + 1;
        let mut reference = vec![0.0; n_out];
        let mut got = vec![0.0; n_out];
        for tier in available_tiers() {
            convolve_scaled_into_with(Tier::Scalar, &ys, &coeffs, 2.0, 0.25, &mut reference);
            convolve_scaled_into_with(tier, &ys, &coeffs, 2.0, 0.25, &mut got);
            assert_bits_eq(&got, &reference, "convolve");
        }
        let a = sample_inputs(101, -3.0, 3.0);
        let b = sample_inputs(101, -3.0, 3.0);
        let mut reference = vec![0.0; 101];
        let mut got = vec![0.0; 101];
        for tier in available_tiers() {
            sub_div_into_with(Tier::Scalar, &a, &b, 1e-6, &mut reference);
            sub_div_into_with(tier, &a, &b, 1e-6, &mut got);
            assert_bits_eq(&got, &reference, "sub_div");
        }
    }

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

    #[test]
    fn dispatch_reports_a_supported_tier() {
        let tier = active_tier();
        assert!(available_tiers().contains(&tier), "{tier:?}");
        let mut out = vec![0.0; 9];
        exp_into(&[0.0; 9], &mut out);
        assert!(out.iter().all(|&v| v == 1.0));
    }
}
