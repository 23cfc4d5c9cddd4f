//! Integer `//` and `mod`, defined once so that the top-down engine and
//! the bottom-up evaluator give the same answer for every pair of
//! operands (DESIGN.md §8).

/// `a // b`: the quotient truncated toward zero, wrapping on overflow
/// (`min_int // -1` is `min_int`). `None` only for a zero divisor.
pub fn int_div(a: i64, b: i64) -> Option<i64> {
    (b != 0).then(|| a.wrapping_div(b))
}

/// `a mod b`: the ISO floored remainder, which takes the divisor's sign
/// (`7 mod -3` is −2, `-7 mod 3` is 2); `min_int mod -1` is 0. `None`
/// only for a zero divisor.
pub fn int_mod(a: i64, b: i64) -> Option<i64> {
    if b == 0 {
        return None;
    }
    let r = a.wrapping_rem(b);
    // `r` and `b` have opposite signs here, so the sum cannot overflow.
    Some(if r != 0 && (r < 0) != (b < 0) {
        r + b
    } else {
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quotients_truncate_and_wrap() {
        assert_eq!(int_div(7, 2), Some(3));
        assert_eq!(int_div(-7, 2), Some(-3));
        assert_eq!(int_div(7, -2), Some(-3));
        assert_eq!(int_div(i64::MIN, -1), Some(i64::MIN));
        assert_eq!(int_div(1, 0), None);
    }

    #[test]
    fn remainders_take_the_divisors_sign() {
        let table = [(7, 3, 1), (-7, 3, 2), (7, -3, -2), (-7, -3, -1), (6, -3, 0)];
        for (a, b, m) in table {
            assert_eq!(int_mod(a, b), Some(m), "{a} mod {b}");
        }
        assert_eq!(int_mod(i64::MIN, -1), Some(0));
        assert_eq!(int_mod(i64::MIN, i64::MAX), Some(i64::MAX - 1));
        assert_eq!(int_mod(1, 0), None);
    }
}
