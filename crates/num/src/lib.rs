//! Exact arithmetic substrate for Termite-rs.
//!
//! The ranking-function synthesis algorithm, the exact simplex solvers and the
//! polyhedra library all require *exact* rational arithmetic: a single rounding
//! error in a Farkas certificate would invalidate a termination proof. This
//! crate provides:
//!
//! * [`Int`] — an arbitrary-precision signed integer (sign + magnitude,
//!   64-bit limbs), with schoolbook multiplication and shift–subtract
//!   division, sufficient for the coefficient sizes arising in termination
//!   analysis;
//! * [`Rational`] — an always-normalised exact rational built on [`Int`].
//!
//! Both types implement the usual operator traits, ordering, hashing,
//! parsing and formatting, so they can be used as drop-in numeric types by
//! the higher layers.
//!
//! # Examples
//!
//! ```
//! use termite_num::{Int, Rational};
//!
//! let a = Int::from(1234567890123456789_i64);
//! let b = Int::from(987654321_i64);
//! assert_eq!((&a * &b) % &b, Int::zero());
//!
//! let q = Rational::new(Int::from(6), Int::from(-4));
//! assert_eq!(q.to_string(), "-3/2");
//! ```

mod int;
mod rational;

pub use int::Int;
pub use rational::Rational;

/// Greatest common divisor of two integers (always non-negative).
///
/// Operands that fit an `i64` take machine-word Euclid; the generic
/// [`Int`] remainder loop only runs on spilled values.
///
/// ```
/// use termite_num::{gcd, Int};
/// assert_eq!(gcd(&Int::from(12), &Int::from(-18)), Int::from(6));
/// assert_eq!(gcd(&Int::zero(), &Int::zero()), Int::zero());
/// ```
pub fn gcd(a: &Int, b: &Int) -> Int {
    match (a.to_i64(), b.to_i64()) {
        (Some(a), Some(b)) => Int::from(gcd_u64(a.unsigned_abs(), b.unsigned_abs())),
        _ => gcd_int(a, b),
    }
}

/// [`gcd`] by the generic [`Int`] remainder loop.
fn gcd_int(a: &Int, b: &Int) -> Int {
    let mut a = a.abs();
    let mut b = b.abs();
    while !b.is_zero() {
        let r = &a % &b;
        a = b;
        b = r;
    }
    a
}

/// Euclid on machine words.
pub(crate) fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

/// Least common multiple of two integers (always non-negative).
///
/// Returns zero when either argument is zero. Operands that fit an `i64`
/// take machine words (the product of two such magnitudes fits a `u128`).
///
/// ```
/// use termite_num::{lcm, Int};
/// assert_eq!(lcm(&Int::from(4), &Int::from(6)), Int::from(12));
/// ```
pub fn lcm(a: &Int, b: &Int) -> Int {
    if a.is_zero() || b.is_zero() {
        return Int::zero();
    }
    match (a.to_i64(), b.to_i64()) {
        (Some(a), Some(b)) => {
            let (a, b) = (a.unsigned_abs(), b.unsigned_abs());
            let l = (a / gcd_u64(a, b)) as u128 * b as u128;
            Int::from(l as i128)
        }
        _ => lcm_int(a, b),
    }
}

/// [`lcm`] on the generic [`Int`] path.
fn lcm_int(a: &Int, b: &Int) -> Int {
    let g = gcd_int(a, b);
    (&a.abs() / &g) * b.abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn gcd_basic() {
        assert_eq!(gcd(&Int::from(48), &Int::from(36)), Int::from(12));
        assert_eq!(gcd(&Int::from(7), &Int::from(0)), Int::from(7));
        assert_eq!(gcd(&Int::from(0), &Int::from(7)), Int::from(7));
        assert_eq!(gcd(&Int::from(-48), &Int::from(36)), Int::from(12));
    }

    #[test]
    fn lcm_basic() {
        assert_eq!(lcm(&Int::from(3), &Int::from(5)), Int::from(15));
        assert_eq!(lcm(&Int::from(0), &Int::from(5)), Int::from(0));
        assert_eq!(lcm(&Int::from(-4), &Int::from(6)), Int::from(12));
    }

    /// The machine-word path against the `Int` loop at the edges of the
    /// `i64` range, where a magnitude (`2^63`) or an lcm no longer fits.
    #[test]
    fn machine_word_gcd_and_lcm_match_the_int_path_at_the_edges() {
        let edges = [
            0,
            1,
            -1,
            2,
            -2,
            6,
            i64::MAX,
            i64::MIN,
            i64::MIN + 1,
            1 << 62,
        ];
        for a in edges {
            for b in edges {
                let (a, b) = (Int::from(a), Int::from(b));
                assert_eq!(gcd(&a, &b), gcd_int(&a, &b), "gcd({a}, {b})");
                let reference = if a.is_zero() || b.is_zero() {
                    Int::zero()
                } else {
                    lcm_int(&a, &b)
                };
                assert_eq!(lcm(&a, &b), reference, "lcm({a}, {b})");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_machine_word_gcd_matches_the_int_path(a in any::<i64>(), b in any::<i64>()) {
            let (a, b) = (Int::from(a), Int::from(b));
            prop_assert_eq!(gcd(&a, &b), gcd_int(&a, &b));
        }

        #[test]
        fn prop_machine_word_lcm_matches_the_int_path(
            a in any::<i64>().prop_filter("non-zero", |v| *v != 0),
            b in any::<i64>().prop_filter("non-zero", |v| *v != 0),
        ) {
            let (a, b) = (Int::from(a), Int::from(b));
            prop_assert_eq!(lcm(&a, &b), lcm_int(&a, &b));
        }

        #[test]
        fn prop_small_gcd_matches_the_int_path(a in -1000i64..1000, b in -1000i64..1000) {
            let (a, b) = (Int::from(a), Int::from(b));
            prop_assert_eq!(gcd(&a, &b), gcd_int(&a, &b));
        }
    }
}
