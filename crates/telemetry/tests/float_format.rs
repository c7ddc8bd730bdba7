//! `json::push_num` against std's `{}`: the shortest-digit kernel must
//! print every finite `f64` byte for byte as `write!(s, "{v}")` does.

use mtd_math::rng::check_cases;
use mtd_telemetry::json::push_num;
use rand::rngs::SmallRng;
use rand::Rng;
use std::fmt::Write as _;

/// Compares `v` with std formatting, the reference.
fn check(v: f64) {
    let mut got = String::new();
    push_num(&mut got, v);
    let mut want = String::new();
    if v.is_finite() {
        write!(want, "{v}").unwrap();
    } else {
        want.push_str("null");
    }
    assert_eq!(got, want, "bits {:#018x}", v.to_bits());
}

/// `v` and `-v`.
fn check_signed(v: f64) {
    check(v);
    check(-v);
}

/// Both signs of `v` and of its two neighbours.
fn check_around(v: f64) {
    let bits = v.to_bits();
    for b in [bits.saturating_sub(1), bits, bits + 1] {
        check_signed(f64::from_bits(b));
    }
}

/// One draw of each shape except plain random bits.
fn shaped_cases(rng: &mut SmallRng) {
    // Subnormals.
    check_signed(f64::from_bits(rng.gen_range(1..1u64 << 52)));
    // Integers past 2^53 and short decimals scaled far up or down.
    check_signed(rng.gen::<u64>() as f64);
    let short = rng.gen_range(1..100_000u32);
    check_signed(f64::from(short) * 10f64.powi(rng.gen_range(-330..310)));
    // Dyadic values with 16-17 digit integer parts: the exact ties of
    // the last digit (`…374.25`) live here.
    let m = rng.gen_range(1u64 << 52..1u64 << 53) as f64;
    check_signed(m / f64::from(1u32 << rng.gen_range(1..12)));
}

#[test]
fn push_num_prints_what_display_prints_on_random_floats() {
    check_cases("telemetry/push_num_random", 64, |rng| {
        for _ in 0..2_000 {
            check(f64::from_bits(rng.gen()));
            shaped_cases(rng);
        }
    });
}

#[test]
fn push_num_prints_what_display_prints_on_the_hard_classes() {
    // Every power of two, subnormal and normal, with both neighbours.
    for e in 0..2098 {
        let bits = if e < 52 { 1 << e } else { (e - 51) << 52 };
        check_around(f64::from_bits(bits));
    }
    // Every power of ten from 1e-323 to 1e308, with both neighbours.
    for k in -323..=308 {
        check_around(format!("1e{k}").parse().unwrap());
    }
    // Integers up to and past 2^53, and thousandths.
    for i in 0..100_000u32 {
        check_signed(f64::from(i));
    }
    for i in 0..2_000u64 {
        check_signed(((1 << 53) - 1_000 + i) as f64);
        check_signed(((1 << 54) - 1_000 + 2 * i) as f64);
    }
    for i in 0..=1_000_000u32 {
        check_signed(f64::from(i) / 1000.0);
    }
    // The subnormal range's ends, zero and the extremes.
    for bits in 1..10_000 {
        check_signed(f64::from_bits(bits));
    }
    check_around(f64::from_bits((1 << 52) - 1));
    check_around(f64::MAX);
    check_signed(0.0);
    let mut zeros = String::new();
    push_num(&mut zeros, 0.0);
    push_num(&mut zeros, -0.0);
    assert_eq!(zeros, "0-0");
    // An exact tie of the last digit: std rounds it up, Ryū to even.
    let tie = f64::from_bits(0x4305_0794_e557_de32);
    assert_eq!(tie * 4.0, 2_959_655_297_609_497.0, "739913824402374.25");
    let mut text = String::new();
    push_num(&mut text, tie);
    assert_eq!(text, "739913824402374.3");
    check_signed(tie);
}

/// The long sweep: 10^8 random bit patterns and 10^6 draws of each other
/// shape. Run it optimised:
/// `cargo test --release -p mtd-telemetry --test float_format -- --ignored`.
#[test]
#[ignore = "10^8 random floats; about 80 s in release on a 2-vCPU x86-64 host"]
fn push_num_prints_what_display_prints_on_1e8_random_floats() {
    check_cases("telemetry/push_num_sweep", 10_000, |rng| {
        for i in 0..10_000 {
            check(f64::from_bits(rng.gen()));
            if i % 100 == 0 {
                shaped_cases(rng);
            }
        }
    });
}
