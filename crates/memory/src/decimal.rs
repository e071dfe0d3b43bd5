//! A 16-byte fixed-point decimal, standing in for C#'s `decimal`.
//!
//! The paper's Q1 result hinges on `decimal` being a 16-byte type whose
//! arithmetic is function-call-based, so that passing operands by pointer and
//! mutating in place (possible only over self-managed memory) is a large win
//! (§7, "Query processing"). This type reproduces the operand width and the
//! call-based arithmetic: a 128-bit mantissa with a fixed scale of 4 decimal
//! digits, which is exact for all TPC-H money and rate arithmetic used in
//! Q1–Q6.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Number of decimal fraction digits carried by every [`Decimal`].
pub const SCALE: u32 = 4;
/// `10^SCALE`: the mantissa units per integral one.
pub const ONE_MANTISSA: i128 = 10_000;

/// Fixed-point decimal: `value = mantissa / 10^4`, stored in 16 bytes.
///
/// All arithmetic is exact integer arithmetic on the mantissa, so sums are
/// associative — which is what lets parallel query plans produce
/// bit-identical answers to sequential ones.
///
/// ```
/// use smc_memory::Decimal;
///
/// let price = Decimal::parse("19.99").unwrap();
/// let discount = Decimal::parse("0.06").unwrap();
/// let charged = price * (Decimal::ONE - discount);
/// assert_eq!(charged, Decimal::parse("18.7906").unwrap());
/// assert_eq!(charged.to_string(), "18.7906");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(transparent)]
pub struct Decimal(i128);

impl Decimal {
    /// Zero.
    pub const ZERO: Decimal = Decimal(0);
    /// One.
    pub const ONE: Decimal = Decimal(ONE_MANTISSA);

    /// Builds a decimal from an integer.
    #[inline]
    pub const fn from_int(v: i64) -> Decimal {
        Decimal(v as i128 * ONE_MANTISSA)
    }

    /// Builds a decimal from an integral number of hundredths (cents),
    /// the natural unit for TPC-H money columns.
    #[inline]
    pub const fn from_cents(cents: i64) -> Decimal {
        Decimal(cents as i128 * (ONE_MANTISSA / 100))
    }

    /// Builds a decimal from a raw scaled mantissa (`v / 10^4`).
    #[inline]
    pub const fn from_mantissa(v: i128) -> Decimal {
        Decimal(v)
    }

    /// The raw scaled mantissa.
    #[inline]
    pub const fn mantissa(self) -> i128 {
        self.0
    }

    /// Parses decimal text such as `"0.0600"` or `"-12.5"`.
    pub fn parse(s: &str) -> Option<Decimal> {
        let s = s.trim();
        let (neg, s) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s),
        };
        let (int_part, frac_part) = match s.split_once('.') {
            Some((i, f)) => (i, f),
            None => (s, ""),
        };
        if int_part.is_empty() && frac_part.is_empty() {
            return None;
        }
        let mut mantissa: i128 = 0;
        if !int_part.is_empty() {
            mantissa = int_part.parse::<i128>().ok()?.checked_mul(ONE_MANTISSA)?;
        }
        let mut frac: i128 = 0;
        let mut weight = ONE_MANTISSA / 10;
        for c in frac_part.chars() {
            let d = c.to_digit(10)? as i128;
            frac += d * weight;
            weight /= 10;
            if weight == 0 {
                break; // extra digits beyond the scale are truncated
            }
        }
        let total = mantissa + frac;
        Some(Decimal(if neg { -total } else { total }))
    }

    /// In-place addition through a pointer — the operation the paper's
    /// "compiled unsafe C#" performs on decimals stored inside self-managed
    /// objects ("use direct pointers to primitive types in an object ... as
    /// arguments to functions that operate on them", §7).
    ///
    /// # Safety
    /// `target` must point at a valid, exclusively-writable `Decimal`.
    #[inline]
    pub unsafe fn add_in_place(target: *mut Decimal, rhs: Decimal) {
        (*target).0 += rhs.0;
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> Decimal {
        Decimal(self.0.abs())
    }

    /// Rounds toward zero to an integer value, returned as `i64`.
    #[inline]
    pub fn trunc_to_i64(self) -> i64 {
        (self.0 / ONE_MANTISSA) as i64
    }
}

impl Add for Decimal {
    type Output = Decimal;
    #[inline]
    fn add(self, rhs: Decimal) -> Decimal {
        Decimal(self.0 + rhs.0)
    }
}

impl Sub for Decimal {
    type Output = Decimal;
    #[inline]
    fn sub(self, rhs: Decimal) -> Decimal {
        Decimal(self.0 - rhs.0)
    }
}

impl Mul for Decimal {
    type Output = Decimal;
    #[inline]
    fn mul(self, rhs: Decimal) -> Decimal {
        Decimal(self.0 * rhs.0 / ONE_MANTISSA)
    }
}

impl Div for Decimal {
    type Output = Decimal;
    #[inline]
    fn div(self, rhs: Decimal) -> Decimal {
        Decimal(self.0 * ONE_MANTISSA / rhs.0)
    }
}

impl Neg for Decimal {
    type Output = Decimal;
    #[inline]
    fn neg(self) -> Decimal {
        Decimal(-self.0)
    }
}

impl AddAssign for Decimal {
    #[inline]
    fn add_assign(&mut self, rhs: Decimal) {
        self.0 += rhs.0;
    }
}

impl SubAssign for Decimal {
    #[inline]
    fn sub_assign(&mut self, rhs: Decimal) {
        self.0 -= rhs.0;
    }
}

impl Sum for Decimal {
    fn sum<I: Iterator<Item = Decimal>>(iter: I) -> Decimal {
        iter.fold(Decimal::ZERO, Add::add)
    }
}

impl PartialOrd for Decimal {
    #[inline]
    fn partial_cmp(&self, other: &Decimal) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Decimal {
    #[inline]
    fn cmp(&self, other: &Decimal) -> Ordering {
        self.0.cmp(&other.0)
    }
}

impl fmt::Display for Decimal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let neg = self.0 < 0;
        let abs = self.0.unsigned_abs();
        let int = abs / ONE_MANTISSA as u128;
        let frac = abs % ONE_MANTISSA as u128;
        if neg {
            write!(f, "-{int}.{frac:04}")
        } else {
            write!(f, "{int}.{frac:04}")
        }
    }
}

impl From<i64> for Decimal {
    fn from(v: i64) -> Decimal {
        Decimal::from_int(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_display() {
        assert_eq!(Decimal::from_int(3).to_string(), "3.0000");
        assert_eq!(Decimal::from_cents(1234).to_string(), "12.3400");
        assert_eq!((-Decimal::from_cents(5)).to_string(), "-0.0500");
        assert_eq!(Decimal::ZERO.to_string(), "0.0000");
    }

    #[test]
    fn parse_round_trips() {
        for s in ["0.0000", "12.3400", "-0.0500", "99999.9999"] {
            assert_eq!(Decimal::parse(s).unwrap().to_string(), s);
        }
        assert_eq!(Decimal::parse("7"), Some(Decimal::from_int(7)));
        assert_eq!(Decimal::parse(".5"), Some(Decimal::from_mantissa(5_000)));
        assert_eq!(
            Decimal::parse("1.23456789"),
            Some(Decimal::from_mantissa(12_345))
        );
        assert_eq!(Decimal::parse(""), None);
        assert_eq!(Decimal::parse("abc"), None);
    }

    #[test]
    fn arithmetic_is_exact_for_tpch_expressions() {
        // extended_price * (1 - discount) * (1 + tax), the Q1 kernel.
        let price = Decimal::parse("901.00").unwrap();
        let discount = Decimal::parse("0.06").unwrap();
        let tax = Decimal::parse("0.02").unwrap();
        let disc_price = price * (Decimal::ONE - discount);
        assert_eq!(disc_price.to_string(), "846.9400");
        let charge = disc_price * (Decimal::ONE + tax);
        assert_eq!(charge.to_string(), "863.8788");
    }

    #[test]
    fn division_and_ordering() {
        let a = Decimal::from_int(10);
        let b = Decimal::from_int(4);
        assert_eq!((a / b).to_string(), "2.5000");
        assert!(b < a);
        assert_eq!(a.trunc_to_i64(), 10);
        assert_eq!((a / b).trunc_to_i64(), 2);
    }

    #[test]
    fn sum_and_in_place_add() {
        let total: Decimal = (1..=4).map(Decimal::from_int).sum();
        assert_eq!(total, Decimal::from_int(10));
        let mut cell = Decimal::from_int(1);
        unsafe { Decimal::add_in_place(&mut cell, Decimal::from_cents(50)) };
        assert_eq!(cell.to_string(), "1.5000");
    }

    #[test]
    fn layout_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Decimal>(), 16);
    }
}
