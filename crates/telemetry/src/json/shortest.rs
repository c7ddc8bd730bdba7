//! The shortest decimal that reads back as the same `f64`, printed the
//! way Rust's `{}` prints it.
//!
//! The digits come from Ryū (Ulf Adams, "Ryū: fast float-to-string
//! conversion", PLDI 2018): the rounding interval of the float is scaled
//! by a power of ten through 125-bit powers of five and `u128` products,
//! then digits are removed while the interval still holds a shorter
//! decimal. Three details follow std rather than reference Ryū, so the
//! bytes equal `format!("{v}")` for every finite `v`:
//!
//! - an exact tie between the two closest shortest decimals goes to the
//!   larger one (std's Grisu/Dragon), not to the even one;
//! - every normal power of two, the smallest included, has the narrower
//!   interval below it, as in std's decoder (2^-1022 prints the same
//!   either way);
//! - the layout never uses an exponent: `0.000123`, `1234500`, `-0`.
//!
//! The power-of-five tables are computed at compile time from exact big
//! integers (`pow5_table`, `pow5_inv_table`).

const MANTISSA_BITS: u32 = 52;
const BIAS: i32 = 1023;
/// Bits kept of each power of five and of each inverse.
const POW5_BITS: i32 = 125;
/// `5^i` for `i` up to `-e2 - q` at the smallest subnormal.
const POW5_LEN: usize = 326;
/// `5^-q` for `q` up to the largest binary exponent's decimal one.
const POW5_INV_LEN: usize = 291;

/// The top 125 bits of `5^i`.
static POW5: [u128; POW5_LEN] = pow5_table();
/// `floor(2^(pow5bits(q) - 1 + 125) / 5^q) + 1`.
static POW5_INV: [u128; POW5_INV_LEN] = pow5_inv_table();

/// Appends the finite `v` exactly as `write!(out, "{v}")` would.
pub(super) fn push_shortest(out: &mut String, v: f64) {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        out.push('-');
    }
    let ieee_exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as u32;
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    if ieee_exponent == 0 && ieee_mantissa == 0 {
        out.push('0');
        return;
    }
    let (mantissa, exponent) = shortest(ieee_mantissa, ieee_exponent);
    let mut buf = [0u8; 20];
    let digits = ascii_digits(mantissa, &mut buf);
    let len = digits.len() as i32;
    // The decimal point sits `point` digits from the left of `digits`.
    let point = len + exponent;
    if point <= 0 {
        out.push_str("0.");
        push_zeros(out, -point);
        out.push_str(digits);
    } else if point < len {
        let (int, frac) = digits.split_at(point as usize);
        out.push_str(int);
        out.push('.');
        out.push_str(frac);
    } else {
        out.push_str(digits);
        push_zeros(out, point - len);
    }
}

fn push_zeros(out: &mut String, n: i32) {
    out.extend(std::iter::repeat_n('0', n as usize));
}

/// "00" "01" … "99".
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Writes `v`'s decimal digits at the end of `buf` and returns them.
fn ascii_digits(mut v: u64, buf: &mut [u8; 20]) -> &str {
    let mut start = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        start -= 2;
        buf[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        start -= 2;
        buf[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        start -= 1;
        buf[start] = b'0' + v as u8;
    }
    std::str::from_utf8(&buf[start..]).unwrap_or_default()
}

/// The shortest `(mantissa, exponent)` with `mantissa * 10^exponent` in
/// the rounding interval of a positive finite float and closest to it,
/// an exact tie rounded up: Ryū's `d2d` with std's tie and interval
/// rules.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    // Two extra bits of headroom for the interval bounds.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    let accept_bounds = m2 & 1 == 0;
    // The interval is `[4*m2 - 1 - mm_shift, 4*m2 + 2] * 2^e2`: below a
    // power of two the neighbour is half as far away. std applies that
    // to every normal power of two, the smallest included.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0);

    let (mut vr, mut vp, mut vm);
    let e10;
    // Whether the lower bound `mm * 2^e2` is exactly `vm * 10^e10`. Ryū
    // also tracks this for `vr`, but only to round exact ties to even.
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_BITS + pow5bits(q as i32) - 1;
        let j = (-e2 + q as i32 + k) as u32;
        (vr, vp, vm) = mul_shift_all(m2, POW5_INV[q as usize], j, mm_shift);
        // At most one of mv, mp and mm is a multiple of 5.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_power_of_5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_power_of_5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5bits(i) - POW5_BITS;
        let j = (q as i32 - k) as u32;
        (vr, vp, vm) = mul_shift_all(m2, POW5[i as usize], j, mm_shift);
        // mm has a trailing zero bit exactly when mm_shift is 1; mp = mv + 2
        // always has one.
        if q <= 1 {
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Remove digits while the interval still holds a shorter decimal; the
    // last removed digit rounds, an exact tie (`5` then zeros) upward.
    let mut removed = 0;
    let output = if vm_is_trailing_zeros {
        // The rare case of an exact, included lower bound: it may be the
        // shortest decimal itself.
        let mut last_removed_digit = 0;
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm.is_multiple_of(10);
            last_removed_digit = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm.is_multiple_of(10) {
                last_removed_digit = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        vr + u64::from((vr == vm && !vm_is_trailing_zeros) || last_removed_digit >= 5)
    } else {
        // The common case: two digits at a time first.
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

/// `(m * mul) >> j` for each of the interval's three points `4m`,
/// `4m + 2` and `4m - 1 - mm_shift`.
fn mul_shift_all(m2: u64, mul: u128, j: u32, mm_shift: u64) -> (u64, u64, u64) {
    let mul_shift = |m: u64| {
        let low = u128::from(m) * (mul & u128::from(u64::MAX));
        let high = u128::from(m) * (mul >> 64);
        (((low >> 64) + high) >> (j - 64)) as u64
    };
    (
        mul_shift(4 * m2),
        mul_shift(4 * m2 + 2),
        mul_shift(4 * m2 - 1 - mm_shift),
    )
}

fn multiple_of_power_of_5(mut value: u64, p: u32) -> bool {
    let mut count = 0;
    while value.is_multiple_of(5) && count < p {
        value /= 5;
        count += 1;
    }
    count >= p
}

/// `floor(e * log10(2))` for `0 <= e <= 1650`.
fn log10_pow2(e: i32) -> u32 {
    ((e as u32) * 78_913) >> 18
}

/// `floor(e * log10(5))` for `0 <= e <= 2620`.
fn log10_pow5(e: i32) -> u32 {
    ((e as u32) * 732_923) >> 20
}

/// The bit length of `5^e` (1 for `e = 0`), for `0 <= e <= 3528`.
const fn pow5bits(e: i32) -> i32 {
    (((e as u32) * 1_217_359) >> 19) as i32 + 1
}

/// Limbs of the big integers the tables are computed from: `2^798`, the
/// largest dividend, and `5^325`, the largest power, both fit in 832 bits.
const LIMBS: usize = 13;
/// The dividend of every inverse: `2^j / 5^q` is `(2^INV_J / 5^q) >>
/// (INV_J - j)`, since nested floors of divisions compose.
const INV_J: u32 = 798;

const fn pow5_table() -> [u128; POW5_LEN] {
    let mut table = [0; POW5_LEN];
    let mut pow = [0; LIMBS];
    pow[0] = 1;
    let mut i = 0;
    while i < POW5_LEN {
        let bits = pow5bits(i as i32) as u32;
        table[i] = if bits > POW5_BITS as u32 {
            bits_from(&pow, bits - POW5_BITS as u32)
        } else {
            bits_from(&pow, 0) << (POW5_BITS as u32 - bits)
        };
        pow = times_five(pow);
        i += 1;
    }
    table
}

const fn pow5_inv_table() -> [u128; POW5_INV_LEN] {
    let mut table = [0; POW5_INV_LEN];
    let mut quotient = [0; LIMBS];
    quotient[(INV_J / 64) as usize] = 1 << (INV_J % 64);
    let mut q = 0;
    while q < POW5_INV_LEN {
        let j = (pow5bits(q as i32) - 1 + POW5_BITS) as u32;
        table[q] = bits_from(&quotient, INV_J - j) + 1;
        quotient = over_five(quotient);
        q += 1;
    }
    table
}

/// `x >> shift`, truncated to 128 bits.
const fn bits_from(x: &[u64; LIMBS], shift: u32) -> u128 {
    let limb = (shift / 64) as usize;
    let bit = shift % 64;
    let low = limb_at(x, limb) | limb_at(x, limb + 1) << 64;
    if bit == 0 {
        low
    } else {
        low >> bit | limb_at(x, limb + 2) << (128 - bit)
    }
}

const fn limb_at(x: &[u64; LIMBS], i: usize) -> u128 {
    if i < LIMBS {
        x[i] as u128
    } else {
        0
    }
}

const fn times_five(mut x: [u64; LIMBS]) -> [u64; LIMBS] {
    let mut carry = 0;
    let mut i = 0;
    while i < LIMBS {
        let wide = x[i] as u128 * 5 + carry;
        x[i] = wide as u64;
        carry = wide >> 64;
        i += 1;
    }
    x
}

const fn over_five(mut x: [u64; LIMBS]) -> [u64; LIMBS] {
    let mut rem = 0;
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        let wide = rem << 64 | x[i] as u128;
        x[i] = (wide / 5) as u64;
        rem = wide % 5;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test-local big integer (little-endian `u32` limbs, no leading
    /// zero limb) that checks the compile-time tables by multiplication
    /// rather than by the division `pow5_inv_table` uses.
    #[derive(Debug, PartialEq)]
    struct Big(Vec<u32>);

    impl Big {
        fn from_u128(v: u128) -> Big {
            Big((0..4).map(|i| (v >> (32 * i)) as u32).collect()).trimmed()
        }

        fn pow2(n: u32) -> Big {
            let mut limbs = vec![0; n as usize / 32 + 1];
            limbs[n as usize / 32] = 1 << (n % 32);
            Big(limbs)
        }

        fn pow5(n: usize) -> Big {
            (0..n).fold(Big(vec![1]), |acc, _| acc.mul(&Big(vec![5])))
        }

        fn trimmed(mut self) -> Big {
            while self.0.len() > 1 && self.0.last() == Some(&0) {
                self.0.pop();
            }
            self
        }

        fn mul(&self, other: &Big) -> Big {
            let mut out = vec![0u64; self.0.len() + other.0.len()];
            for (i, &a) in self.0.iter().enumerate() {
                let mut carry = 0;
                for (j, &b) in other.0.iter().enumerate() {
                    let t = out[i + j] + u64::from(a) * u64::from(b) + carry;
                    out[i + j] = t & 0xffff_ffff;
                    carry = t >> 32;
                }
                out[i + other.0.len()] += carry;
            }
            Big(out.into_iter().map(|l| l as u32).collect()).trimmed()
        }

        fn bits(&self) -> i32 {
            let top = self.0[self.0.len() - 1];
            32 * self.0.len() as i32 - top.leading_zeros() as i32
        }

        fn le(&self, other: &Big) -> bool {
            (self.0.len(), self.0.iter().rev().collect::<Vec<_>>())
                <= (other.0.len(), other.0.iter().rev().collect::<Vec<_>>())
        }
    }

    #[test]
    fn pow5_table_holds_the_top_125_bits_of_each_power() {
        for (i, &entry) in POW5.iter().enumerate() {
            let pow = Big::pow5(i);
            assert_eq!(pow.bits(), pow5bits(i as i32), "5^{i}");
            assert_eq!(128 - entry.leading_zeros(), 125, "5^{i}");
            let shift = pow.bits() - POW5_BITS;
            if shift <= 0 {
                let exact = pow.mul(&Big::pow2((-shift) as u32));
                assert_eq!(Big::from_u128(entry), exact, "5^{i}");
            } else {
                // entry * 2^shift <= 5^i < (entry + 1) * 2^shift
                let scale = Big::pow2(shift as u32);
                assert!(Big::from_u128(entry).mul(&scale).le(&pow), "5^{i}");
                assert!(!Big::from_u128(entry + 1).mul(&scale).le(&pow), "5^{i}");
            }
        }
    }

    #[test]
    fn pow5_inv_table_holds_ceilinged_inverses() {
        for (q, &entry) in POW5_INV.iter().enumerate() {
            let pow = Big::pow5(q);
            let dividend = Big::pow2((pow5bits(q as i32) - 1 + POW5_BITS) as u32);
            // (entry - 1) * 5^q <= 2^j < entry * 5^q
            assert!(Big::from_u128(entry - 1).mul(&pow).le(&dividend), "5^-{q}");
            assert!(!Big::from_u128(entry).mul(&pow).le(&dividend), "5^-{q}");
        }
    }

    #[test]
    fn tables_reach_both_ends_of_the_exponent_range() {
        // The largest finite exponent indexes the inverse table's last
        // entry, the smallest subnormal the power table's.
        let e2 = 2046 - BIAS - MANTISSA_BITS as i32 - 2;
        assert_eq!(log10_pow2(e2) as usize - 1, POW5_INV_LEN - 1);
        let e2 = 1 - BIAS - MANTISSA_BITS as i32 - 2;
        let q = log10_pow5(-e2) as i32 - 1;
        assert_eq!((-e2 - q) as usize, POW5_LEN - 1);
    }
}
