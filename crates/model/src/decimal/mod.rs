//! The workspace's one decimal number rule, its reader and its writer.
//!
//! Every reader of the workspace (instance and log files, imported
//! traces, failure traces, and the serve protocol and journal) turns a
//! decimal token into an `f64` through [`parse_decimal`], or through
//! [`decimal_token`] where the token still sits in its line. Both read
//! the bytes once: digits eight per 64-bit word (SWAR), then one exact
//! Eisel–Lemire step over a 128-bit table of powers of five. This is
//! the method of Lemire, "Number Parsing at a Gigabyte per Second"
//! (SPE 2021). A token outside that path is handed to `str::parse`,
//! which is exact everywhere, so every token reads the same bits as
//! `str::parse` would give it. The path covers `d+[.d+][(e|E)[+|-]d+]`
//! with at most 19 significant digits and a decimal exponent in the
//! table, when the value is a normal `f64` or zero. Everything else
//! falls back: a sign, a bare `.5` or `5.`, more than 19 significant
//! digits, an exponent outside the table, the one product the step
//! cannot round (`lo == u64::MAX`), a subnormal result and an overflow.

mod pow5;

use pow5::{LARGEST_Q, POW5, SMALLEST_Q};

/// Parses one decimal number token under the rule every reader of the
/// workspace shares: only the literal `inf` is infinite, and every
/// other token must parse to a finite value. `None` for anything else,
/// `infinity`, `NaN` and an overflowing `1e309` included, so that no
/// spelling but `inf` can make a machine ineligible. The value is
/// bit-equal to `str::parse::<f64>` on every token it accepts; see the
/// module docs for the fast path and its fallback.
#[inline]
pub fn parse_decimal(tok: &str) -> Option<f64> {
    match exact(tok.as_bytes()) {
        Ok((v, end)) if end == tok.len() => Some(v),
        _ => fallback(tok),
    }
}

/// Reads the token at the start of `line` (the bytes before the first
/// ASCII whitespace byte, or before the end) under [`parse_decimal`]'s
/// rule, and returns its value and its length in bytes. `None` when the
/// token is not a number under that rule, or is not UTF-8. A token
/// that starts with a digit is read straight from the line with no
/// search for its end, so a dense protocol row costs one pass over its
/// bytes.
#[inline]
pub fn decimal_token(line: &[u8]) -> Option<(f64, usize)> {
    let stop = match exact(line) {
        Ok((v, end)) => {
            if line.get(end).is_none_or(u8::is_ascii_whitespace) {
                return Some((v, end));
            }
            end
        }
        Err(stop) => stop,
    };
    // After a leading digit, a float has only digits, `.`, an exponent
    // mark and its sign: any other byte (the `:` of a sparse pair, say)
    // means no number, with no need to find the token's end.
    if line.first().is_some_and(u8::is_ascii_digit)
        && line.get(stop).is_some_and(|&c| {
            !c.is_ascii_whitespace() && !matches!(c, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        })
    {
        return None;
    }
    let len = line
        .iter()
        .position(u8::is_ascii_whitespace)
        .unwrap_or(line.len());
    let tok = std::str::from_utf8(&line[..len]).ok()?;
    fallback(tok).map(|v| (v, len))
}

/// The rule on the tokens the exact path leaves: `inf`, or whatever
/// `str::parse` makes of the token when the value is finite.
#[cold]
fn fallback(tok: &str) -> Option<f64> {
    if tok == "inf" {
        return Some(f64::INFINITY);
    }
    tok.parse().ok().filter(|v: &f64| v.is_finite())
}

/// The exact path: reads `d+[.d+][(e|E)[+|-]d+]` from the start of `b`
/// and returns its value and where it ended, or `Err` with the offset
/// where the grammar stopped, or where the number ended when the value
/// is not one the path can round (see the module docs).
#[inline]
fn exact(b: &[u8]) -> Result<(f64, usize), usize> {
    let mut w = 0u64;
    let int_end = digits(b, 0, &mut w);
    if int_end == 0 {
        return Err(0);
    }
    let mut at = int_end;
    let mut frac = 0;
    if b.get(at) == Some(&b'.') {
        at = digits(b, int_end + 1, &mut w);
        frac = at - int_end - 1;
        if frac == 0 {
            return Err(at);
        }
    }
    let mut q = -(frac as i64);
    if let Some(b'e' | b'E') = b.get(at) {
        let mut j = at + 1;
        let neg = b.get(j) == Some(&b'-');
        if neg || b.get(j) == Some(&b'+') {
            j += 1;
        }
        let from = j;
        let mut e = 0i64;
        while let Some(&c) = b.get(j).filter(|c| c.is_ascii_digit()) {
            // Saturates far outside the table, so no exponent overflows.
            if e < 0x10000 {
                e = 10 * e + i64::from(c - b'0');
            }
            j += 1;
        }
        if j == from {
            return Err(j);
        }
        q += if neg { -e } else { e };
        at = j;
    }
    if int_end + frac > 19 {
        // Leading zeros are not significant, and added nothing to `w`,
        // which holds the digits exactly once at most 19 remain.
        let zeros = b[..at]
            .iter()
            .take_while(|&&c| c == b'0' || c == b'.')
            .filter(|&&c| c == b'0')
            .count();
        if int_end + frac - zeros > 19 {
            return Err(at);
        }
    }
    eisel_lemire(w, q).map(|v| (v, at)).ok_or(at)
}

const ZEROS: u64 = u64::from_le_bytes([b'0'; 8]);

/// Flags (bit 7 of each byte) the bytes of a little-endian word that
/// are not ASCII digits. The lowest flag is exact: digit bytes carry
/// and borrow nothing, so only bytes above a true flag can be wrong.
#[inline]
fn non_digits(v: u64) -> u64 {
    (v.wrapping_add(u64::from_le_bytes([0x46; 8])) | v.wrapping_sub(ZEROS))
        & u64::from_le_bytes([0x80; 8])
}

/// The value of eight ASCII digits in a little-endian word, first byte
/// most significant.
#[inline]
fn eight_digits(v: u64) -> u64 {
    const MASK: u64 = 0x0000_00ff_0000_00ff;
    const MUL1: u64 = 0x000f_4240_0000_0064; // 100 + (1_000_000 << 32)
    const MUL2: u64 = 0x0000_2710_0000_0001; // 1 + (10_000 << 32)
    let v = v - ZEROS;
    let v = v * 10 + (v >> 8);
    let v1 = (v & MASK).wrapping_mul(MUL1);
    let v2 = ((v >> 16) & MASK).wrapping_mul(MUL2);
    u64::from((v1.wrapping_add(v2) >> 32) as u32)
}

/// Powers of ten below `10^8`.
const POW10: [u64; 8] = [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// Appends the digits of `b` from `at` to `w` (wrapping past 19
/// digits) and returns the offset of the first byte that is not a
/// digit. Eight bytes at a time while eight remain: a full word of
/// digits in one step, and a last partial run by shifting it to the
/// top of the word over `'0'` fill.
#[inline]
fn digits(b: &[u8], mut at: usize, w: &mut u64) -> usize {
    while let Some(word) = b.get(at..).and_then(<[u8]>::first_chunk::<8>) {
        let v = u64::from_le_bytes(*word);
        let non = non_digits(v);
        if non == 0 {
            *w = w.wrapping_mul(100_000_000).wrapping_add(eight_digits(v));
            at += 8;
            continue;
        }
        let k = (non.trailing_zeros() / 8) as usize;
        if k > 0 {
            let v = v << (64 - 8 * k) | ZEROS >> (8 * k);
            *w = w.wrapping_mul(POW10[k]).wrapping_add(eight_digits(v));
        }
        return at + k;
    }
    while let Some(&c) = b.get(at).filter(|c| c.is_ascii_digit()) {
        *w = w.wrapping_mul(10).wrapping_add(u64::from(c - b'0'));
        at += 1;
    }
    at
}

/// `w · 10^q` correctly rounded, for `w < 10^19`: the Eisel–Lemire
/// step, as in Rust's `core::num::dec2flt::lemire`. `None` where it
/// cannot decide the rounding (`lo == u64::MAX`), where `q` is outside
/// the table, and where the value is subnormal or overflows; the caller
/// falls back to `str::parse` there.
#[inline]
fn eisel_lemire(w: u64, q: i64) -> Option<f64> {
    const EXPLICIT_BITS: i32 = 52;
    const MIN_EXPONENT: i32 = -1023;
    const INFINITE_POWER: i32 = 0x7ff;
    if w == 0 {
        return Some(0.0);
    }
    if !(SMALLEST_Q..=LARGEST_Q).contains(&q) {
        return None;
    }
    let lz = w.leading_zeros();
    let w = w << lz;
    let (hi5, lo5) = POW5[(q - SMALLEST_Q) as usize];
    let mul = |a: u64, b: u64| {
        let r = u128::from(a) * u128::from(b);
        (r as u64, (r >> 64) as u64)
    };
    // 55 bits are needed: the 52 explicit ones, the hidden bit, one to
    // round on and one for a product with a leading zero. Only when the
    // bits below those are all ones can the low word change them.
    const PRECISION_MASK: u64 = u64::MAX >> (EXPLICIT_BITS + 3);
    let (mut lo, mut hi) = mul(w, hi5);
    if hi & PRECISION_MASK == PRECISION_MASK {
        let (_, carry) = mul(w, lo5);
        lo = lo.wrapping_add(carry);
        if carry > lo {
            hi += 1;
        }
    }
    if lo == u64::MAX {
        return None;
    }
    let upper = (hi >> 63) as i32;
    let shift = upper + 64 - EXPLICIT_BITS - 3;
    let mut mantissa = hi >> shift;
    // ⌊q · log2(10)⌋ + 63, exact over the table's range.
    let power = ((q as i32).wrapping_mul(152_170 + 65_536) >> 16) + 63;
    let mut power2 = power + upper - lz as i32 - MIN_EXPONENT;
    if power2 <= 0 {
        return None;
    }
    // An exact halfway case rounds to even, not up.
    if lo <= 1 && (-4..=23).contains(&q) && mantissa & 3 == 1 && mantissa << shift == hi {
        mantissa &= !1;
    }
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if mantissa >= 2 << EXPLICIT_BITS {
        mantissa = 1 << EXPLICIT_BITS;
        power2 += 1;
    }
    mantissa &= !(1 << EXPLICIT_BITS);
    if power2 >= INFINITE_POWER {
        return None;
    }
    Some(f64::from_bits((power2 as u64) << EXPLICIT_BITS | mantissa))
}

/// The decimal writer paired with [`parse_decimal`]: the shortest
/// round-trip form (Rust's `{}`), written in exponent form when the
/// plain form would be long (`|x| ≥ 1e16` or `0 < |x| < 1e-5`), so
/// that `1e300` is not spelled as a 301-digit number. Values of
/// ordinary magnitude keep the plain form; either form parses back
/// bit-exactly, and infinity is written `inf`.
#[derive(Debug, Clone, Copy)]
pub struct Decimal(pub f64);

impl std::fmt::Display for Decimal {
    #[inline]
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let a = self.0.abs();
        if a >= 1e16 || (a > 0.0 && a < 1e-5) {
            write!(f, "{:e}", self.0)
        } else {
            write!(f, "{}", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// What `str::parse` and the number rule make of `tok`.
    fn reference(tok: &str) -> Option<u64> {
        if tok == "inf" {
            return Some(f64::INFINITY.to_bits());
        }
        tok.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .map(f64::to_bits)
    }

    fn check(tok: &str) {
        assert_eq!(
            parse_decimal(tok).map(f64::to_bits),
            reference(tok),
            "{tok}"
        );
        for sep in ["", " ", "\t1"] {
            let line = format!("{tok}{sep}");
            let got = decimal_token(line.as_bytes()).map(|(v, n)| (v.to_bits(), n));
            assert_eq!(got, reference(tok).map(|v| (v, tok.len())), "{line:?}");
        }
    }

    #[test]
    fn hand_picked_edges_read_what_str_parse_reads() {
        for tok in [
            "0",
            "00",
            "0.0",
            "0e999999999",
            "1",
            "2.5",
            "007.50",
            "9007199254740992",
            "9007199254740993", // 2^53 + 1: halfway, rounds to even
            "9007199254740995",
            "9007199254740993.000000000000001",
            "0.1",
            "0.30000000000000004",
            "123456789012345678",
            "1234567890123456789",
            "12345678901234567890",
            "00000000000000000000001.5",
            "0.000000000000000000000000000123",
            "1.00000000000000011102230246251565404236316680908203125", // halfway above 1
            "1.0000000000000001110223024625156540423631668090820312",
            "2.2250738585072011e-308", // just below the smallest normal
            "2.2250738585072014e-308", // the smallest normal
            "4.9e-324",                // the smallest subnormal
            "2.4703282292062327e-324", // rounds to 0
            "1e-400",
            "1.7976931348623157e308", // the largest finite
            "1.7976931348623158e308", // still rounds down to it
            "1e308",
            "1e22",
            "1e23",
            "1E5",
            "1e+5",
            "1e-5",
            "3.14159e0",
            "1.5e-7",
            "8.98846567431158e307",
        ] {
            check(tok);
            assert!(parse_decimal(tok).is_some(), "{tok}");
        }
        for bad in [
            "1.7976931348623159e308", // rounds to infinity: not finite
            "1e309",
            "infinity",
            "Inf",
            "NaN",
            "-inf",
            "",
            ".",
            "e5",
            "1e",
            "1e+",
            "1.5.",
            "1.5e5x",
            "1..5",
            "1_000",
            "0x1",
            "3:1.5",
            "1e5.5",
            " 1",
        ] {
            check(bad);
            assert_eq!(parse_decimal(bad), None, "{bad}");
        }
        // Forms only the fallback reads still read as `str::parse` does.
        for tok in ["5.", ".5", "+1", "-2.5", "-0", "+0.5e3", "inf"] {
            check(tok);
            assert!(parse_decimal(tok).is_some(), "{tok}");
        }
    }

    /// The forms a dense row is written in take the exact path, not the
    /// fallback: shortest round-trip decimals in plain and exponent
    /// form, and integers.
    #[test]
    fn printed_sizes_take_the_exact_path() {
        for tok in [
            "1",
            "2.5",
            "12.345678901234567",
            "0.30000000000000004",
            "1.0000000000000002e16",
            "1e-300",
            "9999999999999999999",
            "00000000000000000000001.5",
        ] {
            assert_eq!(
                exact(tok.as_bytes()).map(|(_, n)| n),
                Ok(tok.len()),
                "{tok}"
            );
        }
        let mut x = 1.0f64;
        for _ in 0..2000 {
            x = (x * 1.618_033_988_7 + 0.1) % 1e6;
            let tok = x.to_string();
            assert_eq!(exact(tok.as_bytes()).map(|(v, _)| v), Ok(x), "{tok}");
        }
    }

    /// Every entry of the power-of-five table is reached: `w · 10^q`
    /// for each `q` in the table and a spread of mantissas.
    #[test]
    fn every_table_exponent_reads_what_str_parse_reads() {
        let mut z = 0x9e37_79b9_7f4a_7c15u64;
        for q in SMALLEST_Q..=LARGEST_Q {
            for k in 0..12 {
                z ^= z << 13;
                z ^= z >> 7;
                z ^= z << 17;
                let w = match k {
                    0 => 1,
                    1 => 9_999_999_999_999_999_999,
                    2 => 5,
                    _ => z % 10u64.pow(1 + (k as u32 * 3) % 19),
                };
                check(&format!("{w}e{q}"));
            }
        }
    }

    /// Random digit strings: up to 25 digits with leading zeros, an
    /// optional fraction (possibly empty, as in `5.`) and an optional
    /// exponent in either case and with any sign.
    fn digit_string() -> impl Strategy<Value = String> {
        let digits = |n: std::ops::Range<usize>| prop::collection::vec(0u8..10, n);
        (
            0usize..3,
            digits(1..14),
            (0u8..3, digits(0..11)),
            (0u8..5, 0u32..400),
        )
            .prop_map(|(zeros, int, (dot, frac), (exp, x))| {
                let text = |d: &[u8]| d.iter().map(|&d| char::from(b'0' + d)).collect::<String>();
                let mut s = "0".repeat(zeros) + &text(&int);
                if dot > 0 {
                    s.push('.');
                    s.push_str(&text(&frac));
                }
                match exp {
                    2 => s.push_str(&format!("e{x}")),
                    3 => s.push_str(&format!("E+{x}")),
                    4 => s.push_str(&format!("e-{x}")),
                    _ => {}
                }
                s
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]
        #[test]
        fn digit_strings_read_what_str_parse_reads(tok in digit_string()) {
            check(&tok);
        }

        /// `{}`, `{:e}` and [`Decimal`] of any finite `f64` read back
        /// to its bits, `-0.0` and subnormals included.
        #[test]
        fn printed_f64_reads_back_bit_exactly(bits in any::<u64>(), shift in 0u32..64) {
            for bits in [bits, bits >> shift] {
                let x = f64::from_bits(bits);
                if !x.is_finite() {
                    continue;
                }
                for tok in [format!("{x}"), format!("{x:e}"), Decimal(x).to_string()] {
                    check(&tok);
                    prop_assert_eq!(parse_decimal(&tok).map(f64::to_bits), Some(bits), "{}", tok);
                }
            }
        }
    }
}
