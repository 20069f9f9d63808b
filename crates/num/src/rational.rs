//! Exact rationals built on [`Int`].

use crate::{gcd, gcd_u64, Int};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// An exact rational number, always kept in lowest terms with a positive
/// denominator.
///
/// ```
/// use termite_num::Rational;
/// let a = Rational::from_ints(1, 3);
/// let b = Rational::from_ints(1, 6);
/// assert_eq!((a + b).to_string(), "1/2");
/// ```
#[derive(Clone, Debug)]
pub struct Rational {
    num: Int,
    den: Int,
}

impl Rational {
    /// The rational 0.
    pub fn zero() -> Self {
        Rational {
            num: Int::zero(),
            den: Int::one(),
        }
    }

    /// The rational 1.
    pub fn one() -> Self {
        Rational {
            num: Int::one(),
            den: Int::one(),
        }
    }

    /// Builds `num / den` in lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn new(num: Int, den: Int) -> Self {
        assert!(!den.is_zero(), "rational with zero denominator");
        if let (Some(n), Some(d)) = (num.to_i64(), den.to_i64()) {
            return Rational::from_i128_frac(n as i128, d as i128);
        }
        let mut r = Rational { num, den };
        r.normalize();
        r
    }

    /// Builds `num / den` from machine integers.
    pub fn from_ints(num: i64, den: i64) -> Self {
        Rational::new(Int::from(num), Int::from(den))
    }

    /// Builds the rational `n/1`.
    pub fn from_int(n: Int) -> Self {
        Rational {
            num: n,
            den: Int::one(),
        }
    }

    fn normalize(&mut self) {
        if self.den.is_negative() {
            self.num = -std::mem::take(&mut self.num);
            self.den = -std::mem::take(&mut self.den);
        }
        if self.num.is_zero() {
            self.den = Int::one();
            return;
        }
        // A denominator of 1 is already in lowest terms, and a numerator of
        // ±1 is coprime to everything: skip the gcd entirely.
        if self.den.is_one() || self.num.is_one() || self.num == Int::minus_one() {
            return;
        }
        let g = gcd(&self.num, &self.den);
        if !g.is_one() {
            self.num = &self.num / &g;
            self.den = &self.den / &g;
        }
    }

    /// Numerator and denominator as machine integers, when both fit. The
    /// gateway to the small-value fast paths: cross-multiplied `i128`
    /// arithmetic instead of heap-allocating [`Int`] operations.
    #[inline]
    fn small_parts(&self) -> Option<(i64, i64)> {
        Some((self.num.to_i64()?, self.den.to_i64()?))
    }

    /// Builds `num / den` from an `i128` cross-multiplication intermediate,
    /// reducing with machine gcd. `den` must be non-zero.
    fn from_i128_frac(mut num: i128, mut den: i128) -> Rational {
        debug_assert!(den != 0, "rational with zero denominator");
        if den < 0 {
            num = -num;
            den = -den;
        }
        if num == 0 {
            return Rational::zero();
        }
        if den != 1 && num != 1 && num != -1 {
            let (n, d) = (num.unsigned_abs(), den as u128);
            let g = match (u64::try_from(n), u64::try_from(d)) {
                (Ok(n), Ok(d)) => gcd_u64(n, d) as i128,
                _ => gcd_u128(n, d) as i128,
            };
            if g > 1 {
                num /= g;
                den /= g;
            }
        }
        Rational {
            num: Int::from(num),
            den: Int::from(den),
        }
    }

    /// Numerator (sign-carrying).
    pub fn numer(&self) -> &Int {
        &self.num
    }

    /// Denominator (always positive).
    pub fn denom(&self) -> &Int {
        &self.den
    }

    /// Returns `true` if this rational is zero.
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// Returns `true` if this rational is one.
    pub fn is_one(&self) -> bool {
        self.num.is_one() && self.den.is_one()
    }

    /// Returns `true` if strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num.is_positive()
    }

    /// Returns `true` if strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num.is_negative()
    }

    /// Returns `true` if the denominator is 1.
    pub fn is_integer(&self) -> bool {
        self.den.is_one()
    }

    /// The value as an `i64`, when it is an integer that fits.
    pub fn to_i64(&self) -> Option<i64> {
        if self.den.is_one() {
            self.num.to_i64()
        } else {
            None
        }
    }

    /// Sign: -1, 0 or +1.
    pub fn signum(&self) -> i32 {
        self.num.signum()
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        Rational {
            num: self.num.abs(),
            den: self.den.clone(),
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the rational is zero.
    pub fn recip(&self) -> Rational {
        assert!(!self.is_zero(), "reciprocal of zero");
        // `num/den` is in lowest terms, so `den/num` is too: only the sign
        // moves to the new numerator.
        if self.num.is_negative() {
            Rational {
                num: -&self.den,
                den: -&self.num,
            }
        } else {
            Rational {
                num: self.den.clone(),
                den: self.num.clone(),
            }
        }
    }

    /// Largest integer not greater than this rational.
    pub fn floor(&self) -> Int {
        self.num.div_floor(&self.den)
    }

    /// Smallest integer not smaller than this rational.
    pub fn ceil(&self) -> Int {
        self.num.div_ceil(&self.den)
    }

    /// Approximate `f64` value (reporting only).
    pub fn to_f64(&self) -> f64 {
        self.num.to_f64() / self.den.to_f64()
    }

    /// Minimum of two rationals.
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Maximum of two rationals.
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::zero()
    }
}

impl From<Int> for Rational {
    fn from(n: Int) -> Self {
        Rational::from_int(n)
    }
}

impl From<i64> for Rational {
    fn from(n: i64) -> Self {
        Rational::from_int(Int::from(n))
    }
}

impl From<i32> for Rational {
    fn from(n: i32) -> Self {
        Rational::from_int(Int::from(n))
    }
}

impl PartialEq for Rational {
    fn eq(&self, other: &Self) -> bool {
        self.num == other.num && self.den == other.den
    }
}
impl Eq for Rational {}

impl Hash for Rational {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.num.hash(state);
        self.den.hash(state);
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b <=> c/d  iff  a*d <=> c*b  (b, d > 0)
        if let (Some((a, b)), Some((c, d))) = (self.small_parts(), other.small_parts()) {
            return (a as i128 * d as i128).cmp(&(c as i128 * b as i128));
        }
        (&self.num * &other.den).cmp(&(&other.num * &self.den))
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
impl Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -(&self.num),
            den: self.den.clone(),
        }
    }
}

impl Add for &Rational {
    type Output = Rational;
    fn add(self, other: &Rational) -> Rational {
        if self.is_zero() {
            return other.clone();
        }
        if other.is_zero() {
            return self.clone();
        }
        if let (Some((a, b)), Some((c, d))) = (self.small_parts(), other.small_parts()) {
            // i64 operands cannot overflow the i128 cross-multiplication.
            return Rational::from_i128_frac(
                a as i128 * d as i128 + c as i128 * b as i128,
                b as i128 * d as i128,
            );
        }
        Rational::new(
            &(&self.num * &other.den) + &(&other.num * &self.den),
            &self.den * &other.den,
        )
    }
}

impl Sub for &Rational {
    type Output = Rational;
    fn sub(self, other: &Rational) -> Rational {
        if other.is_zero() {
            return self.clone();
        }
        if let (Some((a, b)), Some((c, d))) = (self.small_parts(), other.small_parts()) {
            return Rational::from_i128_frac(
                a as i128 * d as i128 - c as i128 * b as i128,
                b as i128 * d as i128,
            );
        }
        Rational::new(
            &(&self.num * &other.den) - &(&other.num * &self.den),
            &self.den * &other.den,
        )
    }
}

impl Mul for &Rational {
    type Output = Rational;
    fn mul(self, other: &Rational) -> Rational {
        // ±1 and 0 factors are ubiquitous in simplex tableaux.
        if self.is_zero() || other.is_zero() {
            return Rational::zero();
        }
        if self.is_one() {
            return other.clone();
        }
        if other.is_one() {
            return self.clone();
        }
        if let (Some((a, b)), Some((c, d))) = (self.small_parts(), other.small_parts()) {
            return Rational::from_i128_frac(a as i128 * c as i128, b as i128 * d as i128);
        }
        Rational::new(&self.num * &other.num, &self.den * &other.den)
    }
}

impl Div for &Rational {
    type Output = Rational;
    fn div(self, other: &Rational) -> Rational {
        assert!(!other.is_zero(), "division by zero rational");
        if self.is_zero() {
            return Rational::zero();
        }
        if other.is_one() {
            return self.clone();
        }
        if let (Some((a, b)), Some((c, d))) = (self.small_parts(), other.small_parts()) {
            return Rational::from_i128_frac(a as i128 * d as i128, b as i128 * c as i128);
        }
        Rational::new(&self.num * &other.den, &self.den * &other.num)
    }
}

macro_rules! forward_owned_binop_q {
    ($trait:ident, $method:ident) => {
        impl $trait for Rational {
            type Output = Rational;
            fn $method(self, other: Rational) -> Rational {
                (&self).$method(&other)
            }
        }
        impl $trait<&Rational> for Rational {
            type Output = Rational;
            fn $method(self, other: &Rational) -> Rational {
                (&self).$method(other)
            }
        }
        impl $trait<Rational> for &Rational {
            type Output = Rational;
            fn $method(self, other: Rational) -> Rational {
                self.$method(&other)
            }
        }
    };
}

forward_owned_binop_q!(Add, add);
forward_owned_binop_q!(Sub, sub);
forward_owned_binop_q!(Mul, mul);
forward_owned_binop_q!(Div, div);

impl AddAssign<&Rational> for Rational {
    fn add_assign(&mut self, other: &Rational) {
        *self = &*self + other;
    }
}
impl AddAssign for Rational {
    fn add_assign(&mut self, other: Rational) {
        *self = &*self + &other;
    }
}
impl SubAssign<&Rational> for Rational {
    fn sub_assign(&mut self, other: &Rational) {
        *self = &*self - other;
    }
}
impl SubAssign for Rational {
    fn sub_assign(&mut self, other: Rational) {
        *self = &*self - &other;
    }
}
impl MulAssign<&Rational> for Rational {
    fn mul_assign(&mut self, other: &Rational) {
        *self = &*self * other;
    }
}
impl MulAssign for Rational {
    fn mul_assign(&mut self, other: Rational) {
        *self = &*self * &other;
    }
}
impl DivAssign<&Rational> for Rational {
    fn div_assign(&mut self, other: &Rational) {
        *self = &*self / other;
    }
}
impl DivAssign for Rational {
    fn div_assign(&mut self, other: Rational) {
        *self = &*self / &other;
    }
}

/// Euclidean gcd on machine words (the small-path reduction).
fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

impl std::iter::Sum for Rational {
    fn sum<I: Iterator<Item = Rational>>(iter: I) -> Rational {
        iter.fold(Rational::zero(), |a, b| a + b)
    }
}

impl<'a> std::iter::Sum<&'a Rational> for Rational {
    fn sum<I: Iterator<Item = &'a Rational>>(iter: I) -> Rational {
        iter.fold(Rational::zero(), |a, b| &a + b)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den.is_one() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// Error returned when parsing a [`Rational`] from a malformed string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRationalError {
    message: String,
}

impl fmt::Display for ParseRationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational literal: {}", self.message)
    }
}

impl std::error::Error for ParseRationalError {}

impl FromStr for Rational {
    type Err = ParseRationalError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let mk_err = |m: &str| ParseRationalError {
            message: m.to_string(),
        };
        match s.split_once('/') {
            None => {
                let n: Int = s.parse().map_err(|_| mk_err(s))?;
                Ok(Rational::from_int(n))
            }
            Some((n, d)) => {
                let n: Int = n.trim().parse().map_err(|_| mk_err(s))?;
                let d: Int = d.trim().parse().map_err(|_| mk_err(s))?;
                if d.is_zero() {
                    return Err(mk_err("zero denominator"));
                }
                Ok(Rational::new(n, d))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn q(n: i64, d: i64) -> Rational {
        Rational::from_ints(n, d)
    }

    #[test]
    fn normalisation() {
        assert_eq!(q(6, -4).to_string(), "-3/2");
        assert_eq!(q(0, -7), Rational::zero());
        assert_eq!(q(4, 2), Rational::from(2));
    }

    #[test]
    fn arithmetic() {
        assert_eq!(q(1, 3) + q(1, 6), q(1, 2));
        assert_eq!(q(1, 3) - q(1, 3), Rational::zero());
        assert_eq!(q(2, 3) * q(3, 4), q(1, 2));
        assert_eq!(q(2, 3) / q(4, 3), q(1, 2));
        assert_eq!(-q(1, 2), q(-1, 2));
    }

    #[test]
    fn ordering() {
        assert!(q(1, 3) < q(1, 2));
        assert!(q(-1, 2) < q(-1, 3));
        assert!(q(7, 1) > q(13, 2));
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(q(7, 2).floor(), Int::from(3));
        assert_eq!(q(7, 2).ceil(), Int::from(4));
        assert_eq!(q(-7, 2).floor(), Int::from(-4));
        assert_eq!(q(-7, 2).ceil(), Int::from(-3));
        assert_eq!(q(4, 2).floor(), Int::from(2));
        assert_eq!(q(4, 2).ceil(), Int::from(2));
    }

    #[test]
    fn parsing() {
        assert_eq!("3/4".parse::<Rational>().unwrap(), q(3, 4));
        assert_eq!("-5".parse::<Rational>().unwrap(), Rational::from(-5));
        assert_eq!(" 6 / -8 ".parse::<Rational>().unwrap(), q(-3, 4));
        assert!("1/0".parse::<Rational>().is_err());
        assert!("abc".parse::<Rational>().is_err());
    }

    #[test]
    fn recip() {
        assert_eq!(q(3, 4).recip(), q(4, 3));
        assert_eq!(q(-3, 4).recip(), q(-4, 3));
    }

    /// The sign-moving reciprocal against the reducing constructor it
    /// replaced, at the edges of the `i64` range and past them.
    #[test]
    fn recip_matches_the_reducing_constructor_at_the_edges() {
        let huge = Int::from(i64::MAX) * Int::from(4);
        let values = [
            Rational::from(i64::MIN),
            Rational::from(i64::MAX),
            Rational::new(Int::from(i64::MIN), Int::from(i64::MAX)),
            Rational::new(Int::from(-1), Int::from(i64::MAX)),
            Rational::new(huge.clone(), Int::from(3)),
            Rational::new(-huge, Int::from(7)),
        ];
        for x in values {
            assert_eq!(
                x.recip(),
                Rational::new(x.denom().clone(), x.numer().clone())
            );
        }
    }

    #[test]
    fn to_i64_accessor() {
        assert_eq!(q(42, 1).to_i64(), Some(42));
        assert_eq!(q(84, 2).to_i64(), Some(42));
        assert_eq!(q(1, 2).to_i64(), None);
        assert_eq!(Rational::zero().to_i64(), Some(0));
        assert!(q(42, 1).is_integer());
        assert!(!q(1, 2).is_integer());
    }

    #[test]
    fn small_path_handles_extreme_i64_operands() {
        // Cross-multiplication at the edge of the i64 range must not wrap.
        let a = Rational::new(Int::from(i64::MAX), Int::from(i64::MAX - 2));
        let b = Rational::new(Int::from(i64::MIN), Int::from(i64::MAX));
        let sum = &a + &b;
        // Reference computation through the big-int path.
        let expected = Rational::new(
            &(&Int::from(i64::MAX) * &Int::from(i64::MAX))
                + &(&Int::from(i64::MIN) * &Int::from(i64::MAX - 2)),
            &Int::from(i64::MAX - 2) * &Int::from(i64::MAX),
        );
        assert_eq!(sum, expected);
        assert_eq!(
            (&a * &b),
            Rational::new(
                &Int::from(i64::MAX) * &Int::from(i64::MIN),
                &Int::from(i64::MAX - 2) * &Int::from(i64::MAX),
            )
        );
        assert!((&a - &a).is_zero());
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Greater);
    }

    #[test]
    fn mixed_small_big_operands_fall_back_correctly() {
        // One operand outside the i64 range forces the big-int path; results
        // must agree with hand-scaled identities.
        let huge = Int::from(i64::MAX) * Int::from(4); // > i64::MAX
        let big = Rational::new(huge.clone(), Int::from(3));
        let small = q(1, 3);
        assert_eq!(
            &big - &small,
            Rational::new(&huge - &Int::one(), Int::from(3))
        );
        assert_eq!(&big * &q(3, 1), Rational::from_int(huge.clone()));
        assert_eq!((&big / &big), Rational::one());
        assert!(big > small);
    }

    #[test]
    fn sum_iterator() {
        let total: Rational = (1..=4).map(|i| q(1, i)).sum();
        assert_eq!(total, q(25, 12));
    }

    proptest! {
        #[test]
        fn prop_field_axioms(a in -1000i64..1000, b in 1i64..100, c in -1000i64..1000, d in 1i64..100) {
            let x = q(a, b);
            let y = q(c, d);
            prop_assert_eq!(&x + &y, &y + &x);
            prop_assert_eq!(&x * &y, &y * &x);
            prop_assert_eq!(&(&x + &y) - &y, x.clone());
            if !y.is_zero() {
                prop_assert_eq!(&(&x * &y) / &y, x.clone());
            }
        }

        #[test]
        fn prop_distributivity(a in -100i64..100, b in 1i64..50, c in -100i64..100, d in 1i64..50, e in -100i64..100, f in 1i64..50) {
            let x = q(a, b);
            let y = q(c, d);
            let z = q(e, f);
            prop_assert_eq!(&x * &(&y + &z), &(&x * &y) + &(&x * &z));
        }

        #[test]
        fn prop_floor_le_value(a in -10000i64..10000, b in 1i64..200) {
            let x = q(a, b);
            let fl = Rational::from_int(x.floor());
            let ce = Rational::from_int(x.ceil());
            prop_assert!(fl <= x);
            prop_assert!(x <= ce);
            prop_assert!(&ce - &fl <= Rational::one());
        }

        #[test]
        fn prop_recip_matches_the_reducing_constructor(
            a in any::<i64>().prop_filter("non-zero", |v| *v != 0),
            b in any::<i64>().prop_filter("non-zero", |v| *v != 0),
        ) {
            let x = Rational::new(Int::from(a), Int::from(b));
            let reference = Rational::new(x.denom().clone(), x.numer().clone());
            prop_assert_eq!(x.recip(), reference);
        }

        #[test]
        fn prop_parse_display_roundtrip(a in -10000i64..10000, b in 1i64..300) {
            let x = q(a, b);
            prop_assert_eq!(x.to_string().parse::<Rational>().unwrap(), x);
        }
    }
}
