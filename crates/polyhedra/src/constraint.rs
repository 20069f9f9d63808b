//! Linear constraints `a·x ≥ b` and `a·x = b`.

use std::fmt;
use termite_linalg::QVector;
use termite_num::{gcd, lcm, Int, Rational};

/// Kind of a linear constraint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConstraintKind {
    /// `a·x ≥ b`
    GreaterEq,
    /// `a·x = b`
    Equality,
}

/// A linear constraint over `dim` rational variables, of the form
/// `coeffs · x ≥ rhs` or `coeffs · x = rhs`.
///
/// This is the orientation used by the paper for invariants
/// (`I = {x | ⋀ a_i·x ≥ b_i}`, Definition 5), so the `a_i` of
/// `Constraints(I)` are exactly [`Constraint::coeffs`].
///
/// ```
/// use termite_polyhedra::Constraint;
/// use termite_linalg::QVector;
/// use termite_num::Rational;
///
/// // x + 2y >= 3
/// let c = Constraint::ge(QVector::from_i64(&[1, 2]), Rational::from(3));
/// assert!(c.satisfied_by(&QVector::from_i64(&[1, 1])));
/// assert!(!c.satisfied_by(&QVector::from_i64(&[0, 1])));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Constraint {
    /// Coefficient vector `a`.
    pub coeffs: QVector,
    /// Right-hand side `b`.
    pub rhs: Rational,
    /// Whether the constraint is an inequality (`≥`) or an equality.
    pub kind: ConstraintKind,
}

impl Constraint {
    /// Builds the inequality `coeffs · x ≥ rhs`.
    pub fn ge(coeffs: QVector, rhs: Rational) -> Self {
        Constraint {
            coeffs,
            rhs,
            kind: ConstraintKind::GreaterEq,
        }
    }

    /// Builds the inequality `coeffs · x ≤ rhs` (stored as `−coeffs·x ≥ −rhs`).
    pub fn le(coeffs: QVector, rhs: Rational) -> Self {
        Constraint {
            coeffs: -&coeffs,
            rhs: -rhs,
            kind: ConstraintKind::GreaterEq,
        }
    }

    /// Builds the equality `coeffs · x = rhs`.
    pub fn eq(coeffs: QVector, rhs: Rational) -> Self {
        Constraint {
            coeffs,
            rhs,
            kind: ConstraintKind::Equality,
        }
    }

    /// Dimension (number of variables) of the constraint.
    pub fn dim(&self) -> usize {
        self.coeffs.dim()
    }

    /// Evaluates the slack `coeffs·p − rhs` at a point.
    pub fn slack(&self, p: &QVector) -> Rational {
        &self.coeffs.dot(p) - &self.rhs
    }

    /// Whether the point satisfies the constraint.
    pub fn satisfied_by(&self, p: &QVector) -> bool {
        let s = self.slack(p);
        match self.kind {
            ConstraintKind::GreaterEq => !s.is_negative(),
            ConstraintKind::Equality => s.is_zero(),
        }
    }

    /// The same constraint over `new_dim ≥ dim()` variables, padding the
    /// coefficient vector with zeros.
    pub fn extend_dim(&self, new_dim: usize) -> Constraint {
        assert!(new_dim >= self.dim());
        let mut coeffs = self.coeffs.entries().to_vec();
        coeffs.resize(new_dim, Rational::zero());
        Constraint {
            coeffs: QVector::from_vec(coeffs),
            rhs: self.rhs.clone(),
            kind: self.kind,
        }
    }

    /// Splits an equality into the two opposite inequalities; an inequality is
    /// returned unchanged (singleton).
    pub fn as_inequalities(&self) -> Vec<Constraint> {
        match self.kind {
            ConstraintKind::GreaterEq => vec![self.clone()],
            ConstraintKind::Equality => vec![
                Constraint::ge(self.coeffs.clone(), self.rhs.clone()),
                Constraint::ge(-&self.coeffs, -self.rhs.clone()),
            ],
        }
    }

    /// Canonicalises the constraint so that coefficients are coprime integers
    /// with a sign-normalised leading coefficient (useful for deduplication).
    ///
    /// The coefficients and the right-hand side are scaled together, keeping
    /// their orientation, by the lcm of their denominators over the gcd of
    /// the scaled numerators: one pass for each, and one allocation, for the
    /// new coefficient vector.
    pub fn canonicalize(&self) -> Constraint {
        if self.coeffs.is_zero() {
            return self.clone();
        }
        let entries = || self.coeffs.iter().chain(std::iter::once(&self.rhs));
        let mut l = Int::one();
        for e in entries() {
            if !e.denom().is_one() {
                l = lcm(&l, e.denom());
            }
        }
        let scaled = |e: &Rational| {
            if l.is_one() {
                e.numer().clone()
            } else {
                e.numer() * &(&l / e.denom())
            }
        };
        let mut g = Int::zero();
        for e in entries() {
            if !e.is_zero() && !g.is_one() {
                g = gcd(&g, &scaled(e));
            }
        }
        let reduce = |e: &Rational| {
            let n = scaled(e);
            Rational::from_int(if g.is_one() { n } else { &n / &g })
        };
        Constraint {
            coeffs: self.coeffs.iter().map(reduce).collect(),
            rhs: reduce(&self.rhs),
            kind: self.kind,
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (i, c) in self.coeffs.iter().enumerate() {
            if c.is_zero() {
                continue;
            }
            if first {
                write!(f, "{c}·x{i}")?;
                first = false;
            } else if c.is_negative() {
                write!(f, " - {}·x{i}", -c)?;
            } else {
                write!(f, " + {c}·x{i}")?;
            }
        }
        if first {
            write!(f, "0")?;
        }
        let op = match self.kind {
            ConstraintKind::GreaterEq => ">=",
            ConstraintKind::Equality => "=",
        };
        write!(f, " {op} {}", self.rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The route [`Constraint::canonicalize`] replaced: append the
    /// right-hand side to the coefficients, take the vector's canonical
    /// direction, and split it again.
    fn reference_canonicalize(c: &Constraint) -> Constraint {
        if c.coeffs.is_zero() {
            return c.clone();
        }
        let with_rhs = c.coeffs.concat(&QVector::from_vec(vec![c.rhs.clone()]));
        let canon = with_rhs.canonical_direction();
        let dim = c.coeffs.dim();
        Constraint {
            coeffs: canon.slice(0, dim),
            rhs: canon[dim].clone(),
            kind: c.kind,
        }
    }

    /// A rational with a small numerator and denominator; zero one time in
    /// three, so zero coefficients and zero right-hand sides are common.
    fn entry() -> impl Strategy<Value = Rational> {
        (-6i64..=6, 1i64..=6, 0u8..3).prop_map(|(n, d, zero)| {
            if zero == 0 {
                Rational::zero()
            } else {
                Rational::from_ints(n, d)
            }
        })
    }

    proptest! {
        #[test]
        fn prop_canonicalize_matches_the_vector_route(
            coeffs in prop::collection::vec(entry(), 1..6),
            rhs in entry(),
            equality in any::<bool>(),
        ) {
            let coeffs = QVector::from_vec(coeffs);
            let c = if equality {
                Constraint::eq(coeffs, rhs)
            } else {
                Constraint::ge(coeffs, rhs)
            };
            prop_assert_eq!(c.canonicalize(), reference_canonicalize(&c));
        }
    }

    #[test]
    fn canonicalize_matches_the_vector_route_past_the_i64_range() {
        let huge = Rational::from_int(Int::from(i64::MAX) * Int::from(6));
        let c = Constraint::ge(
            QVector::from_vec(vec![
                huge.clone(),
                Rational::from_ints(3, 4),
                Rational::zero(),
            ]),
            Rational::from_ints(-9, 2),
        );
        assert_eq!(c.canonicalize(), reference_canonicalize(&c));
        let d = Constraint::eq(
            QVector::from_vec(vec![Rational::zero(), huge]),
            Rational::zero(),
        );
        assert_eq!(d.canonicalize(), reference_canonicalize(&d));
    }

    #[test]
    fn le_is_flipped() {
        let c = Constraint::le(QVector::from_i64(&[2, -1]), Rational::from(5));
        assert_eq!(c.kind, ConstraintKind::GreaterEq);
        assert!(c.satisfied_by(&QVector::from_i64(&[0, 0])));
        assert!(c.satisfied_by(&QVector::from_i64(&[2, 0])));
        assert!(!c.satisfied_by(&QVector::from_i64(&[4, -1])));
    }

    #[test]
    fn equality_split() {
        let c = Constraint::eq(QVector::from_i64(&[1, 1]), Rational::from(2));
        let ineqs = c.as_inequalities();
        assert_eq!(ineqs.len(), 2);
        let p = QVector::from_i64(&[1, 1]);
        assert!(ineqs.iter().all(|i| i.satisfied_by(&p)));
        let q = QVector::from_i64(&[2, 1]);
        assert!(!ineqs.iter().all(|i| i.satisfied_by(&q)));
    }

    #[test]
    fn canonical_deduplicates_scaled_constraints() {
        let a = Constraint::ge(QVector::from_i64(&[2, 4]), Rational::from(6));
        let b = Constraint::ge(
            QVector::from_vec(vec![Rational::from_ints(1, 2), Rational::from(1)]),
            Rational::from_ints(3, 2),
        );
        assert_eq!(a.canonicalize(), b.canonicalize());
    }

    #[test]
    fn extend_dimension() {
        let c = Constraint::ge(QVector::from_i64(&[1]), Rational::from(0));
        let e = c.extend_dim(3);
        assert_eq!(e.dim(), 3);
        assert!(e.satisfied_by(&QVector::from_i64(&[1, -5, 7])));
    }

    #[test]
    fn display_readable() {
        let c = Constraint::ge(QVector::from_i64(&[1, -2, 0]), Rational::from(3));
        assert_eq!(c.to_string(), "1·x0 - 2·x1 >= 3");
    }
}
