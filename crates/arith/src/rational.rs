//! Exact rational arithmetic on `i128`.
//!
//! The numeric domain of the HAS model is ℝ in the paper; all constants in
//! specifications are integers (polynomials with integer coefficients), and
//! the linear-arithmetic variant works over ℚ. An exact rational type is
//! therefore sufficient for every computation the verifier performs, and it
//! avoids the soundness pitfalls of floating point in satisfiability checks.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// An exact rational number `num / den` with `den > 0`, always kept in lowest
/// terms.
///
/// Arithmetic panics on overflow of the underlying `i128` representation;
/// the magnitudes arising in HAS specifications (hand-written constants and
/// Fourier–Motzkin combinations of them) stay far below that bound.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

fn gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rational {
    /// The rational number zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// The rational number one.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates a rational from a numerator and denominator.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "Rational denominator must be non-zero");
        let sign = if den < 0 { -1 } else { 1 };
        let (num, den) = (num * sign, den * sign);
        let g = gcd(num, den);
        if g == 0 {
            Rational { num: 0, den: 1 }
        } else {
            Rational {
                num: num / g,
                den: den / g,
            }
        }
    }

    /// Creates a rational from an integer.
    pub fn from_int(n: i64) -> Self {
        Rational {
            num: n as i128,
            den: 1,
        }
    }

    /// Numerator (in lowest terms; carries the sign).
    pub fn numerator(&self) -> i128 {
        self.num
    }

    /// Denominator (in lowest terms; always positive).
    pub fn denominator(&self) -> i128 {
        self.den
    }

    /// Returns `true` if this rational is zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Returns `true` if this rational is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// Returns `true` if this rational is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// Sign of the rational: `-1`, `0` or `1`.
    pub fn signum(&self) -> i32 {
        self.num.signum() as i32
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        Rational {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if the rational is zero.
    pub fn recip(&self) -> Rational {
        assert!(self.num != 0, "cannot invert zero");
        Rational::new(self.den, self.num)
    }

    /// Returns the midpoint of `self` and `other`, useful for sampling a
    /// witness point strictly between two bounds.
    pub fn midpoint(&self, other: &Rational) -> Rational {
        (*self + *other) / Rational::from_int(2)
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl From<i64> for Rational {
    fn from(n: i64) -> Self {
        Rational::from_int(n)
    }
}

impl From<i32> for Rational {
    fn from(n: i32) -> Self {
        Rational::from_int(n as i64)
    }
}

// The fast paths in `+`, `−` and `·` return exactly the lowest-terms
// pair the general `Rational::new` path would, and evaluate the same
// products (up to factors of one), so an operation that overflows there
// still panics here. A zero operand leaves the other unchanged. An integer
// `n` plus or minus `a/b` is `(n·b ± a)/b`, already in lowest terms since
// `gcd(n·b ± a, b) = gcd(a, b) = 1`; two integers are the case `b = 1`.

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        if rhs.num == 0 {
            return self;
        }
        if self.num == 0 {
            return rhs;
        }
        if self.den == 1 {
            return Rational {
                num: self.num * rhs.den + rhs.num,
                den: rhs.den,
            };
        }
        if rhs.den == 1 {
            return Rational {
                num: self.num + rhs.num * self.den,
                den: self.den,
            };
        }
        Rational::new(self.num * rhs.den + rhs.num * self.den, self.den * rhs.den)
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        if rhs.num == 0 {
            return self;
        }
        if self.num == 0 {
            return -rhs;
        }
        if self.den == 1 {
            return Rational {
                num: self.num * rhs.den - rhs.num,
                den: rhs.den,
            };
        }
        if rhs.den == 1 {
            return Rational {
                num: self.num - rhs.num * self.den,
                den: self.den,
            };
        }
        Rational::new(self.num * rhs.den - rhs.num * self.den, self.den * rhs.den)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        if self.num == 0 || rhs.num == 0 {
            return Rational::ZERO;
        }
        if self.den == 1 && rhs.den == 1 {
            return Rational {
                num: self.num * rhs.num,
                den: 1,
            };
        }
        Rational::new(self.num * rhs.num, self.den * rhs.den)
    }
}

impl Div for Rational {
    type Output = Rational;
    fn div(self, rhs: Rational) -> Rational {
        assert!(rhs.num != 0, "division by zero rational");
        Rational::new(self.num * rhs.den, self.den * rhs.num)
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.num * other.den).cmp(&(other.num * self.den))
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_to_lowest_terms() {
        let r = Rational::new(4, 8);
        assert_eq!(r.numerator(), 1);
        assert_eq!(r.denominator(), 2);
    }

    #[test]
    fn normalizes_sign_into_numerator() {
        let r = Rational::new(3, -6);
        assert_eq!(r.numerator(), -1);
        assert_eq!(r.denominator(), 2);
        assert!(r.is_negative());
    }

    #[test]
    fn zero_has_canonical_form() {
        let r = Rational::new(0, -17);
        assert_eq!(r, Rational::ZERO);
        assert!(r.is_zero());
    }

    #[test]
    fn arithmetic_identities() {
        let a = Rational::new(1, 3);
        let b = Rational::new(1, 6);
        assert_eq!(a + b, Rational::new(1, 2));
        assert_eq!(a - b, Rational::new(1, 6));
        assert_eq!(a * b, Rational::new(1, 18));
        assert_eq!(a / b, Rational::from_int(2));
        assert_eq!(-a, Rational::new(-1, 3));
    }

    #[test]
    fn ordering_is_consistent_with_value() {
        let a = Rational::new(1, 3);
        let b = Rational::new(2, 5);
        assert!(a < b);
        assert!(Rational::from_int(-1) < Rational::ZERO);
        assert!(Rational::new(7, 2) > Rational::from_int(3));
    }

    #[test]
    fn recip_and_midpoint() {
        let a = Rational::new(2, 3);
        assert_eq!(a.recip(), Rational::new(3, 2));
        assert_eq!(
            Rational::from_int(1).midpoint(&Rational::from_int(2)),
            Rational::new(3, 2)
        );
    }

    #[test]
    #[should_panic]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Rational::new(3, 1).to_string(), "3");
        assert_eq!(Rational::new(-3, 4).to_string(), "-3/4");
    }
}
