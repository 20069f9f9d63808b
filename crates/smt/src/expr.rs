//! Linear expressions and normalised atoms over integer variables.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};
use termite_num::{Int, Rational};

/// An integer-valued theory variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermVar(pub usize);

impl TermVar {
    /// Index of the variable.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A linear expression `Σ coeff_i · x_i + constant` with rational coefficients
/// over integer variables.
///
/// ```
/// use termite_smt::{LinExpr, TermVar};
/// use termite_num::Rational;
///
/// let x = TermVar(0);
/// let y = TermVar(1);
/// let e = LinExpr::var(x) * Rational::from(2) + LinExpr::var(y) - LinExpr::constant(3);
/// assert_eq!(e.coeff(x), Rational::from(2));
/// assert_eq!(e.constant_term(), &Rational::from(-3));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct LinExpr {
    coeffs: BTreeMap<TermVar, Rational>,
    constant: Rational,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        LinExpr::default()
    }

    /// The constant expression `c`.
    pub fn constant(c: impl Into<Rational>) -> Self {
        LinExpr {
            coeffs: BTreeMap::new(),
            constant: c.into(),
        }
    }

    /// The expression `1·v`.
    pub fn var(v: TermVar) -> Self {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(v, Rational::one());
        LinExpr {
            coeffs,
            constant: Rational::zero(),
        }
    }

    /// The expression `c·v`.
    pub fn term(c: impl Into<Rational>, v: TermVar) -> Self {
        let c = c.into();
        let mut coeffs = BTreeMap::new();
        if !c.is_zero() {
            coeffs.insert(v, c);
        }
        LinExpr {
            coeffs,
            constant: Rational::zero(),
        }
    }

    /// Builds an expression from sparse terms and a constant.
    pub fn from_terms(
        terms: impl IntoIterator<Item = (TermVar, Rational)>,
        constant: Rational,
    ) -> Self {
        let mut e = LinExpr {
            coeffs: BTreeMap::new(),
            constant,
        };
        for (v, c) in terms {
            e.add_term(v, c);
        }
        e
    }

    /// Adds `c·v` to the expression in place.
    pub fn add_term(&mut self, v: TermVar, c: Rational) {
        if c.is_zero() {
            return;
        }
        let entry = self.coeffs.entry(v).or_insert_with(Rational::zero);
        *entry += c;
        if entry.is_zero() {
            self.coeffs.remove(&v);
        }
    }

    /// The coefficient of `v` (zero if absent).
    pub fn coeff(&self, v: TermVar) -> Rational {
        self.coeffs.get(&v).cloned().unwrap_or_else(Rational::zero)
    }

    /// The constant term.
    pub fn constant_term(&self) -> &Rational {
        &self.constant
    }

    /// Iterator over the non-zero terms.
    pub fn terms(&self) -> impl Iterator<Item = (&TermVar, &Rational)> {
        self.coeffs.iter()
    }

    /// The variables occurring in the expression.
    pub fn vars(&self) -> impl Iterator<Item = TermVar> + '_ {
        self.coeffs.keys().copied()
    }

    /// Returns `true` if the expression is a constant.
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Scales the expression by a rational factor.
    pub fn scale(&self, factor: &Rational) -> LinExpr {
        if factor.is_zero() {
            return LinExpr::zero();
        }
        LinExpr {
            coeffs: self.coeffs.iter().map(|(v, c)| (*v, c * factor)).collect(),
            constant: &self.constant * factor,
        }
    }

    /// Evaluates the expression under an assignment (missing variables count
    /// as zero).
    pub fn eval(&self, assignment: &dyn Fn(TermVar) -> Rational) -> Rational {
        let mut acc = self.constant.clone();
        for (v, c) in &self.coeffs {
            acc += c * &assignment(*v);
        }
        acc
    }

    /// Substitutes variables by expressions.
    pub fn substitute(&self, subst: &dyn Fn(TermVar) -> Option<LinExpr>) -> LinExpr {
        let mut out = LinExpr::constant(self.constant.clone());
        for (v, c) in &self.coeffs {
            match subst(*v) {
                Some(e) => out = out + e.scale(c),
                None => out.add_term(*v, c.clone()),
            }
        }
        out
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(self, other: LinExpr) -> LinExpr {
        let mut out = self;
        out.constant += other.constant;
        for (v, c) in other.coeffs {
            out.add_term(v, c);
        }
        out
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(self, other: LinExpr) -> LinExpr {
        self + (-other)
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        LinExpr {
            coeffs: self.coeffs.into_iter().map(|(v, c)| (v, -c)).collect(),
            constant: -self.constant,
        }
    }
}

impl Mul<Rational> for LinExpr {
    type Output = LinExpr;
    fn mul(self, factor: Rational) -> LinExpr {
        self.scale(&factor)
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in &self.coeffs {
            if first {
                write!(f, "{c}·v{}", v.0)?;
                first = false;
            } else if c.is_negative() {
                write!(f, " - {}·v{}", -c, v.0)?;
            } else {
                write!(f, " + {c}·v{}", v.0)?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if !self.constant.is_zero() {
            if self.constant.is_negative() {
                write!(f, " - {}", -&self.constant)?;
            } else {
                write!(f, " + {}", self.constant)?;
            }
        }
        Ok(())
    }
}

/// A normalised atom `Σ aᵢ·xᵢ ≥ b` with **integer** coefficients `aᵢ` and an
/// **integer** right-hand side `b`.
///
/// All atoms of the input formula are normalised to this form using the
/// integrality of the theory variables (e.g. `x < y` becomes `y − x ≥ 1`,
/// `e ≥ 7/2` becomes `e ≥ 4`). The negation of an atom is again an atom:
/// `¬(e ≥ b)` is `−e ≥ 1 − b`.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom {
    /// Integer coefficients, sparse, keyed by variable.
    pub coeffs: BTreeMap<TermVar, Int>,
    /// Integer right-hand side.
    pub rhs: Int,
}

impl Atom {
    /// Normalises `lhs ≥ rhs` into an [`Atom`].
    ///
    /// Returns `Ok(atom)` or, when the atom is variable-free, `Err(truth)`.
    pub fn from_ge(lhs: &LinExpr, rhs: &LinExpr) -> Result<Atom, bool> {
        let integral = |e: &LinExpr| e.coeffs.values().all(Rational::is_integer);
        if integral(lhs) && integral(rhs) {
            Self::from_integral_ge(lhs, rhs)
        } else {
            Self::from_rational_ge(lhs, rhs)
        }
    }

    /// [`from_ge`](Self::from_ge) when both sides have integer coefficients:
    /// the difference's coefficients are the atom's, so one merge of the
    /// two sides builds it, with no clone, subtraction or rescaling of a
    /// [`LinExpr`].
    fn from_integral_ge(lhs: &LinExpr, rhs: &LinExpr) -> Result<Atom, bool> {
        let mut coeffs: BTreeMap<TermVar, Int> = BTreeMap::new();
        let (mut l, mut r) = (lhs.coeffs.iter().peekable(), rhs.coeffs.iter().peekable());
        loop {
            let (v, c) = match (l.peek(), r.peek()) {
                (None, None) => break,
                (Some((lv, a)), Some((rv, b))) if lv == rv => {
                    let term = (**lv, a.numer() - b.numer());
                    l.next();
                    r.next();
                    term
                }
                (Some((lv, a)), Some((rv, _))) if lv < rv => {
                    let term = (**lv, a.numer().clone());
                    l.next();
                    term
                }
                (Some((lv, a)), None) => {
                    let term = (**lv, a.numer().clone());
                    l.next();
                    term
                }
                (_, Some((rv, b))) => {
                    let term = (**rv, -b.numer());
                    r.next();
                    term
                }
            };
            if !c.is_zero() {
                coeffs.insert(v, c);
            }
        }
        if coeffs.is_empty() {
            return Err(lhs.constant >= rhs.constant);
        }
        // Σ c_i x_i + (l₀ − r₀) ≥ 0  ⟺  Σ c_i x_i ≥ ⌈r₀ − l₀⌉
        let bound = (&rhs.constant - &lhs.constant).ceil();
        Ok(Atom { coeffs, rhs: bound })
    }

    /// [`from_ge`](Self::from_ge) for any rational coefficients.
    fn from_rational_ge(lhs: &LinExpr, rhs: &LinExpr) -> Result<Atom, bool> {
        // lhs - rhs >= 0, i.e. Σ c_i x_i >= -constant.
        let diff = lhs.clone() - rhs.clone();
        if diff.is_constant() {
            return Err(!diff.constant_term().is_negative());
        }
        // Scale by the lcm of coefficient denominators to get integer
        // coefficients (the constant may stay rational; we then round).
        let mut l = Int::one();
        for (_, c) in diff.terms() {
            l = termite_num::lcm(&l, c.denom());
        }
        let scale = Rational::from_int(l);
        let scaled = diff.scale(&scale);
        let coeffs: BTreeMap<TermVar, Int> = scaled
            .terms()
            .map(|(v, c)| {
                debug_assert!(c.is_integer());
                (*v, c.numer().clone())
            })
            .collect();
        // Σ c_i x_i + k >= 0  <=>  Σ c_i x_i >= -k  <=>  Σ c_i x_i >= ceil(-k)
        let bound = (-scaled.constant_term().clone()).ceil();
        Ok(Atom { coeffs, rhs: bound })
    }

    /// The negated atom (`¬(e ≥ b)` ≡ `−e ≥ 1 − b`, valid over the integers).
    pub fn negate(&self) -> Atom {
        Atom {
            coeffs: self.coeffs.iter().map(|(v, c)| (*v, -c)).collect(),
            rhs: &Int::one() - &self.rhs,
        }
    }

    /// [`negate`](Self::negate) in place, reusing the atom's storage.
    pub(crate) fn negate_in_place(&mut self) {
        for c in self.coeffs.values_mut() {
            *c = -&*c;
        }
        self.rhs = &Int::one() - &self.rhs;
    }

    /// Evaluates the atom under an integer assignment.
    pub fn eval(&self, assignment: &dyn Fn(TermVar) -> Rational) -> bool {
        let mut acc = Rational::zero();
        for (v, c) in &self.coeffs {
            acc += &Rational::from_int(c.clone()) * &assignment(*v);
        }
        acc >= Rational::from_int(self.rhs.clone())
    }

    /// The variables of the atom.
    pub fn vars(&self) -> impl Iterator<Item = TermVar> + '_ {
        self.coeffs.keys().copied()
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in &self.coeffs {
            if first {
                write!(f, "{c}·v{}", v.0)?;
                first = false;
            } else if c.is_negative() {
                write!(f, " - {}·v{}", -c, v.0)?;
            } else {
                write!(f, " + {c}·v{}", v.0)?;
            }
        }
        write!(f, " >= {}", self.rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn q(n: i64) -> Rational {
        Rational::from(n)
    }

    #[test]
    fn expression_algebra() {
        let x = TermVar(0);
        let y = TermVar(1);
        let e = LinExpr::var(x) + LinExpr::term(3, y) - LinExpr::constant(2);
        assert_eq!(e.coeff(x), q(1));
        assert_eq!(e.coeff(y), q(3));
        assert_eq!(e.constant_term(), &q(-2));
        let e2 = e.clone() - LinExpr::var(x);
        assert_eq!(e2.coeff(x), q(0));
        assert!(!e2.is_constant());
        let e3 = e.scale(&q(2));
        assert_eq!(e3.coeff(y), q(6));
        assert_eq!(e3.constant_term(), &q(-4));
    }

    #[test]
    fn evaluation_and_substitution() {
        let x = TermVar(0);
        let y = TermVar(1);
        let e = LinExpr::var(x) + LinExpr::term(2, y);
        let val = e.eval(&|v| if v == x { q(3) } else { q(5) });
        assert_eq!(val, q(13));
        // substitute y := x + 1
        let sub = e.substitute(&|v| {
            if v == y {
                Some(LinExpr::var(x) + LinExpr::constant(1))
            } else {
                None
            }
        });
        assert_eq!(sub.coeff(x), q(3));
        assert_eq!(sub.constant_term(), &q(2));
    }

    #[test]
    fn atom_normalisation_integer_tightening() {
        let x = TermVar(0);
        // x/2 >= 7/4  ==>  x >= 7/2  ==>  x >= 4 over the integers
        let a = Atom::from_ge(
            &LinExpr::term(Rational::from_ints(1, 2), x),
            &LinExpr::constant(Rational::from_ints(7, 4)),
        )
        .unwrap();
        assert_eq!(a.coeffs[&x], Int::from(1));
        assert_eq!(a.rhs, Int::from(4));
    }

    #[test]
    fn atom_negation_roundtrip() {
        let x = TermVar(0);
        let y = TermVar(1);
        let a = Atom::from_ge(&(LinExpr::var(x) - LinExpr::var(y)), &LinExpr::constant(3)).unwrap();
        let n = a.negate();
        // a: x - y >= 3 ; n: y - x >= -2
        assert_eq!(n.coeffs[&x], Int::from(-1));
        assert_eq!(n.rhs, Int::from(-2));
        // Exactly one of a, n holds for any integer point.
        for (vx, vy) in [(0, 0), (3, 0), (4, 0), (2, -1), (-5, 7)] {
            let assign = |v: TermVar| if v == x { q(vx) } else { q(vy) };
            assert_ne!(a.eval(&assign), n.eval(&assign), "at ({vx},{vy})");
        }
        assert_eq!(n.negate(), a);
    }

    #[test]
    fn constant_atoms_fold() {
        assert_eq!(
            Atom::from_ge(&LinExpr::constant(3), &LinExpr::constant(2)),
            Err(true)
        );
        assert_eq!(
            Atom::from_ge(&LinExpr::constant(1), &LinExpr::constant(2)),
            Err(false)
        );
    }

    #[test]
    fn display_forms() {
        let x = TermVar(0);
        let y = TermVar(1);
        let e = LinExpr::var(x) - LinExpr::term(2, y) + LinExpr::constant(5);
        assert_eq!(e.to_string(), "1·v0 - 2·v1 + 5");
        let a = Atom::from_ge(&e, &LinExpr::constant(0)).unwrap();
        assert_eq!(a.to_string(), "1·v0 - 2·v1 >= -5");
    }

    proptest! {
        /// The one-pass path for integer coefficients builds the atom (or
        /// the truth value) the rescaling path builds.
        #[test]
        fn prop_integral_atoms_match_the_rescaling_path(
            l in prop::collection::vec(-3i64..=3, 3),
            r in prop::collection::vec(-3i64..=3, 3),
            ln in -9i64..=9, ld in 1i64..=4,
            rn in -9i64..=9, rd in 1i64..=4,
        ) {
            let side = |c: &[i64], constant: Rational| {
                let terms = c.iter().enumerate().map(|(i, &k)| (TermVar(i), Rational::from(k)));
                LinExpr::from_terms(terms, constant)
            };
            let lhs = side(&l, Rational::from_ints(ln, ld));
            let rhs = side(&r, Rational::from_ints(rn, rd));
            prop_assert_eq!(
                Atom::from_integral_ge(&lhs, &rhs),
                Atom::from_rational_ge(&lhs, &rhs)
            );
            let mut negated = Atom::from_ge(&lhs, &rhs);
            if let Ok(atom) = &mut negated {
                atom.negate_in_place();
            }
            prop_assert_eq!(negated, Atom::from_ge(&lhs, &rhs).map(|a| a.negate()));
        }
    }
}
