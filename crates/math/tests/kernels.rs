//! Property and golden tests for the kernel lanes (`mtd_math::kernels`).
//!
//! Two contracts:
//!
//! 1. **ULP policy** — each transcendental lane stays within the pinned
//!    ULP bound of its libm-based reference (the policy table in
//!    `kernels.rs`), outside its documented flush windows.
//! 2. **Pinned bits** — every lane's output bits over a fixed sweep hash
//!    to a constant recorded before the lanes last moved, so a change of
//!    one ulp anywhere (which would move every fitted registry's bits)
//!    fails here.

use mtd_math::distributions::{erf, Distribution1D, Gaussian};
use mtd_math::kernels::{
    erf_compat, exp_compat, gaussian_cdf_compat, gaussian_pdf_compat, ln_compat, log10_compat,
    ulp_distance, ulp_within,
};
use mtd_math::rng::{check_cases, vec_of};
use mtd_telemetry::Fnv64;
use rand::rngs::SmallRng;
use rand::Rng;

/// Positive inputs for ln/log10 over ~600 decades, plus edges.
fn pos_strategy(rng: &mut SmallRng) -> Vec<f64> {
    vec_of(rng, 0..67, |r| {
        let (sel, e) = (r.gen_range(0u32..10), r.gen_range(-300.0..300.0));
        match sel {
            0 => f64::MIN_POSITIVE,
            1 => 1.0,
            2 => f64::INFINITY,
            3 => 1.0 + e / 1000.0,
            _ => 10f64.powf(e),
        }
    })
}

#[test]
fn exp_tracks_libm_within_policy() {
    check_cases("math/kernels/exp_tracks_libm_within_policy", 64, |rng| {
        for x in vec_of(rng, 1..64, |r| r.gen_range(-750.0..750.0f64)) {
            let got = exp_compat(x);
            if x > 709.43 {
                // Documented flush window (709.43, 709.78]: the lane
                // returns ∞ where libm still produces ~1.27e308. The
                // negative window is covered by the 1e-305 absolute floor.
                assert!(got == f64::INFINITY);
                continue;
            }
            assert!(
                ulp_within(got, x.exp(), 8, 1e-305),
                "exp({x:e}): {got:e} vs libm {:e} ({} ulp)",
                x.exp(),
                ulp_distance(got, x.exp())
            );
        }
    });
    assert_eq!(exp_compat(f64::NEG_INFINITY), 0.0);
    assert_eq!(exp_compat(f64::INFINITY), f64::INFINITY);
    assert_eq!(exp_compat(-800.0), 0.0);
    assert_eq!(exp_compat(800.0), f64::INFINITY);
    assert!(exp_compat(f64::NAN).is_nan());
    assert_eq!(exp_compat(0.0), 1.0);
}

#[test]
fn ln_tracks_libm_within_policy() {
    check_cases("math/kernels/ln_tracks_libm_within_policy", 64, |rng| {
        for x in pos_strategy(rng) {
            let got = ln_compat(x);
            assert!(
                ulp_within(got, x.ln(), 8, 1e-300),
                "ln({x:e}): {got:e} vs libm {:e} ({} ulp)",
                x.ln(),
                ulp_distance(got, x.ln())
            );
        }
    });
    // Near-1 cancellation region and extreme exponents.
    for x in [1e-300, 0.999_999_9, 1.000_000_1, 1e300] {
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
fn erf_tracks_scalar_reference_within_policy() {
    check_cases(
        "math/kernels/erf_tracks_scalar_reference_within_policy",
        64,
        |rng| {
            for x in vec_of(rng, 1..64, |r| r.gen_range(-8.0..8.0f64)) {
                let (got, want) = (erf_compat(x), erf(x));
                assert!(
                    ulp_within(got, want, 8, 1e-12),
                    "erf({x}): {got:e} vs reference {want:e} ({} ulp)",
                    ulp_distance(got, want)
                );
            }
        },
    );
}

#[test]
fn gaussian_cdf_tracks_distribution_within_policy() {
    check_cases(
        "math/kernels/gaussian_cdf_tracks_distribution_within_policy",
        64,
        |rng| {
            let xs = vec_of(rng, 1..64, |r| r.gen_range(-40.0..40.0f64));
            let mean = rng.gen_range(-3.0..3.0f64);
            let std = rng.gen_range(0.1..5.0f64);
            let g = Gaussian::new(mean, std).unwrap();
            for x in xs {
                let (got, want) = (gaussian_cdf_compat(x, mean, std), g.cdf(x));
                assert!(
                    ulp_within(got, want, 8, 1e-12),
                    "cdf({x}; {mean}, {std}): {got:e} vs {want:e}"
                );
            }
        },
    );
}

/// `n` evenly spaced points from `lo` to `hi`, built from basic IEEE
/// operations only so the sweep is the same on every platform.
fn uniform(lo: f64, hi: f64, n: u32) -> impl Iterator<Item = f64> {
    let step = (hi - lo) / f64::from(n - 1);
    (0..n).map(move |i| lo + step * f64::from(i))
}

/// `n` points from `lo` up by the constant ratio `ratio`, by repeated
/// multiplication (no libm in the sweep), with their negatives if `signed`.
fn log_spaced(lo: f64, ratio: f64, n: u32, signed: bool) -> Vec<f64> {
    let mut xs = Vec::new();
    let mut x = lo;
    for _ in 0..n {
        xs.push(x);
        if signed {
            xs.push(-x);
        }
        x *= ratio;
    }
    xs
}

/// ±0, ±∞, NaN, the smallest normal and subnormal floats, the extremes,
/// and both sides of every flush boundary of `exp_compat` and `ln_compat`.
fn edges() -> Vec<f64> {
    vec![
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        1.0,
        -1.0,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 2.0,
        f64::from_bits(1),
        f64::MAX,
        -f64::MAX,
        709.0,
        709.43,
        709.430_000_000_1,
        709.5,
        709.78,
        709.79,
        710.0,
        -708.0,
        -708.5,
        -708.500_000_000_1,
        -709.0,
        -745.0,
        -745.2,
        -746.0,
        1e-300,
        1e300,
        std::f64::consts::SQRT_2,
        std::f64::consts::FRAC_1_SQRT_2,
    ]
}

/// FNV-1a over the little-endian bits of `f` at every input, with every
/// NaN hashed as one canonical NaN (a NaN's payload is not pinned).
fn digest(xs: &[f64], f: impl Fn(f64) -> f64) -> (usize, u64) {
    let mut h = Fnv64::new();
    for &x in xs {
        let y = f(x);
        let y = if y.is_nan() { f64::NAN } else { y };
        h.update(&y.to_bits().to_le_bytes());
    }
    (xs.len(), h.finish())
}

#[test]
fn lanes_are_pinned_bit_for_bit() {
    let with_edges = |mut xs: Vec<f64>| {
        xs.extend(edges());
        xs
    };
    let exp_xs = with_edges(
        uniform(-750.0, 750.0, 6_001)
            .chain(log_spaced(1e-12, 1.1, 360, true))
            .collect(),
    );
    let ln_xs = with_edges(
        log_spaced(1e-300, 1.5, 3_403, false)
            .into_iter()
            .chain(uniform(0.5, 2.0, 3_001))
            .chain(uniform(1e-12, 1e12, 2_001))
            .collect(),
    );
    let erf_xs = with_edges(
        uniform(-8.0, 8.0, 6_001)
            .chain(log_spaced(1e-12, 1.1, 313, true))
            .collect(),
    );
    let gauss_xs = with_edges(
        uniform(-40.0, 40.0, 4_001)
            .chain(log_spaced(1e-6, 1.2, 97, true))
            .collect(),
    );
    let inv_sqrt_tau = 1.0 / (2.0 * std::f64::consts::PI).sqrt();
    let mut got = vec![
        digest(&exp_xs, exp_compat),
        digest(&ln_xs, ln_compat),
        digest(&ln_xs, log10_compat),
        digest(&erf_xs, erf_compat),
    ];
    for (mean, std) in [(0.0, 1.0), (1.3, 2.1), (-0.9, 0.4), (2.5, 0.05)] {
        got.push(digest(&gauss_xs, |x| {
            gaussian_pdf_compat(x, mean, std, inv_sqrt_tau)
        }));
        got.push(digest(&gauss_xs, |x| gaussian_cdf_compat(x, mean, std)));
    }

    // In `got`'s order.
    let pinned = [
        ("exp", 6752, 0x61aa_987c_a60d_b9d6),
        ("ln", 8436, 0x62f1_3a10_8c28_46bd),
        ("log10", 8436, 0xf34e_a57b_cf5d_82b4),
        ("erf", 6658, 0x676d_a79b_1f0f_d2ce),
        ("pdf(0, 1)", 4226, 0x2e66_d43a_3ac6_3e94),
        ("cdf(0, 1)", 4226, 0x4739_b2ae_d45a_d25a),
        ("pdf(1.3, 2.1)", 4226, 0xc96c_0af1_67df_d882),
        ("cdf(1.3, 2.1)", 4226, 0x9236_abdd_6a4c_472c),
        ("pdf(-0.9, 0.4)", 4226, 0xa7ce_c8d1_20e0_6677),
        ("cdf(-0.9, 0.4)", 4226, 0xbbd1_1344_3198_89f5),
        ("pdf(2.5, 0.05)", 4226, 0xf999_006d_1107_7fba),
        ("cdf(2.5, 0.05)", 4226, 0x7448_140c_8784_3dbb),
    ];
    assert_eq!(got.len(), pinned.len());
    let moved: Vec<String> = pinned
        .iter()
        .zip(&got)
        .filter(|(&(_, n, d), &g)| (n, d) != g)
        .map(|((name, n, d), (gn, gd))| {
            format!("{name}: got ({gn}, {gd:#018x}), pinned ({n}, {d:#018x})")
        })
        .collect();
    assert!(moved.is_empty(), "lane bits moved:\n{}", moved.join("\n"));
}
