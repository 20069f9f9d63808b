//! Warm contexts against fresh ones: one [`SmtContext`] answering a
//! sequence of queries over shared atoms must give, query by query, what a
//! fresh context per query gives. `minimize` promises the same
//! [`OptResult`], model included; `solve` promises the same answer, with a
//! model that may be the warm tableau's point but is integral and satisfies
//! the formula (or, where branch-and-bound ran out of budget, the fresh
//! context's model). Both are checked for the same SAT search: the same
//! theory checks and blocking clauses. A warm context blocks a model that
//! holds a core it kept from an earlier query with that core, which may
//! differ from the core deletion finds on the model; these tests, and the
//! certificate fixture of the driver, are the evidence that it does not in
//! practice.
//!
//! The same holds for queries on prepared conjunctions
//! ([`SmtContext::prepare`]): their CNF must be the one a fresh encoding of
//! the whole conjunction gives, clause for clause.

use crate::solver::Encoding;
use crate::{Formula, LinExpr, OptOutcome, OptResult, SmtContext, SmtResult, TermVar};
use proptest::prelude::*;

/// Variables of every generated query.
const VARS: usize = 3;

/// An atom `Σ cᵢ·xᵢ ≥ b`: coefficients and right-hand side.
type RawAtom = (Vec<i64>, i64);

/// One query: clauses of `(atom index, polarity)` literals, whether the box
/// `−4 ≤ xᵢ ≤ 4` is conjoined, and the objective of a minimisation.
type Query = (Vec<Vec<(usize, bool)>>, bool, Option<Vec<i64>>);

fn atom_pool() -> impl Strategy<Value = Vec<RawAtom>> {
    prop::collection::vec((prop::collection::vec(-3i64..=3, VARS), -4i64..=6), 1..7)
}

fn query() -> impl Strategy<Value = Query> {
    let literal = (0usize..7, any::<bool>());
    let clauses = prop::collection::vec(prop::collection::vec(literal, 1..3), 1..5);
    let objective = (any::<bool>(), prop::collection::vec(-2i64..=2, VARS))
        .prop_map(|(minimize, c)| minimize.then_some(c));
    (clauses, any::<bool>(), objective)
}

fn linear(coeffs: &[i64]) -> LinExpr {
    (coeffs.iter().enumerate())
        .map(|(i, &c)| LinExpr::term(c, TermVar(i)))
        .fold(LinExpr::constant(0), |acc, term| acc + term)
}

fn atom(pool: &[RawAtom], index: usize) -> Formula {
    let (coeffs, rhs) = &pool[index % pool.len()];
    Formula::ge(linear(coeffs), LinExpr::constant(*rhs))
}

fn formula(pool: &[RawAtom], (clauses, boxed, _): &Query) -> Formula {
    let mut conjuncts: Vec<Formula> = (clauses.iter())
        .map(|clause| {
            let literals = clause.iter().map(|&(index, positive)| {
                let a = atom(pool, index);
                if positive {
                    a
                } else {
                    Formula::not(a)
                }
            });
            Formula::or(literals.collect())
        })
        .collect();
    if *boxed {
        for i in 0..VARS {
            let x = LinExpr::var(TermVar(i));
            conjuncts.push(Formula::ge(x.clone(), LinExpr::constant(-4)));
            conjuncts.push(Formula::le(x, LinExpr::constant(4)));
        }
    }
    Formula::and(conjuncts)
}

fn context() -> SmtContext {
    let mut ctx = SmtContext::new();
    for i in 0..VARS {
        ctx.int_var(format!("x{i}"));
    }
    ctx
}

/// The theory checks and blocking clauses of a context so far.
fn search(ctx: &SmtContext) -> (usize, usize) {
    (ctx.stats().theory_checks, ctx.stats().blocking_clauses)
}

/// Runs one sequence on one warm context, comparing every query with a
/// fresh context; counts the answers by kind: unsat, sat `solve`, finite
/// minimum, unbounded objective.
fn run_sequence(pool: &[RawAtom], queries: &[Query], kinds: &mut [usize; 4]) {
    let mut warm = context();
    for q in queries {
        let f = formula(pool, q);
        let before = search(&warm);
        let mut fresh = context();
        match &q.2 {
            Some(objective) => {
                let objective = linear(objective);
                let answer = warm.minimize(&f, &objective);
                assert_eq!(answer, fresh.minimize(&f, &objective), "minimize {f:?}");
                kinds[match answer {
                    OptResult::Sat {
                        outcome: OptOutcome::Minimum(_),
                        ..
                    } => 2,
                    OptResult::Sat { .. } => 3,
                    _ => 0,
                }] += 1;
            }
            None => match (warm.solve(&f), fresh.solve(&f)) {
                (SmtResult::Sat(model), SmtResult::Sat(reference)) => {
                    // A model short of integrality (the branch-and-bound
                    // budget ran out) is the cold one; any other is integral.
                    if model.is_integral() {
                        assert!(model.iter().all(|(_, v)| v.is_integer()), "{model}");
                    } else {
                        assert_eq!(model, reference, "solve {f:?}");
                    }
                    assert!(f.eval(&|v| model.value_or_zero(v)), "{model} fails {f:?}");
                    kinds[1] += 1;
                }
                (answer, reference) => {
                    assert_eq!(answer, reference, "solve {f:?}");
                    kinds[0] += 1;
                }
            },
        }
        let after = search(&warm);
        let delta = (after.0 - before.0, after.1 - before.1);
        assert_eq!(delta, search(&fresh), "search of {f:?}");
    }
}

#[test]
fn warm_context_answers_like_a_fresh_one_per_query() {
    let mut rng = proptest::test_runner::TestRng::deterministic();
    let sequence = (atom_pool(), prop::collection::vec(query(), 1..10));
    let mut kinds = [0usize; 4];
    for _ in 0..proptest::test_runner::cases() {
        let (pool, queries) = sequence.generate(&mut rng);
        run_sequence(&pool, &queries, &mut kinds);
    }
    // Every kind of answer must occur, or the comparison proves little.
    let cases = proptest::test_runner::cases();
    assert!(
        kinds.iter().all(|&k| k >= cases / 8),
        "answers by kind {kinds:?}"
    );
}

/// A conjunct of a prepared-path query, by shape: `Formula::and` of some
/// clauses (0), a single atom (1), its negation, which NNF turns into a
/// conjunction when it is a negated disjunction (2), `true` (3), `false` (4),
/// or a raw `And` nesting another conjunction (5).
type Part = (usize, Query);

fn part() -> impl Strategy<Value = Part> {
    // Mostly clause sets; every special shape about one time in twelve.
    (0usize..12, query()).prop_map(|(shape, q)| (shape.saturating_sub(6), q))
}

fn part_formula(pool: &[RawAtom], (shape, q): &Part) -> Formula {
    match shape {
        0 => formula(pool, q),
        1 => atom(pool, q.0[0][0].0),
        2 => Formula::not(Formula::or(vec![atom(pool, 0), atom(pool, 1)])),
        3 => Formula::True,
        4 => Formula::False,
        _ => Formula::And(vec![
            atom(pool, q.0[0][0].0),
            Formula::And(vec![formula(pool, q), Formula::True]),
        ]),
    }
}

/// One prepared-path case: the prefix, an optional extension of it, and
/// queries of extra parts (on the extension when `true`) with an optional
/// objective.
type PreparedCase = (Part, Option<Part>, Vec<(bool, Vec<Part>, Option<Vec<i64>>)>);

fn prepared_case() -> impl Strategy<Value = PreparedCase> {
    let extension = (any::<bool>(), part()).prop_map(|(some, p)| some.then_some(p));
    let objective = (any::<bool>(), prop::collection::vec(-2i64..=2, VARS))
        .prop_map(|(minimize, c)| minimize.then_some(c));
    let queries = prop::collection::vec(
        (
            any::<bool>(),
            prop::collection::vec(part(), 0..3),
            objective,
        ),
        1..6,
    );
    (part(), extension, queries)
}

/// Asks every query of a case through one context's prepared path, and
/// compares each with a fresh context's answer to the whole conjunction.
fn run_prepared_case(pool: &[RawAtom], case: &PreparedCase, kinds: &mut [usize; 4]) {
    let (prefix, extension, queries) = case;
    let mut warm = context();
    let prefix = part_formula(pool, prefix);
    let base = warm.prepare(prefix.clone());
    let extension = extension.as_ref().map(|e| part_formula(pool, e));
    let extended = (extension.clone()).map(|e| warm.extend(&base, e));
    for (on_extension, extras, objective) in queries {
        let extras: Vec<Formula> = extras.iter().map(|e| part_formula(pool, e)).collect();
        let mut whole = vec![prefix.clone()];
        let prepared = match (&extended, on_extension) {
            (Some(extended), true) => {
                whole.extend(extension.clone());
                extended
            }
            _ => &base,
        };
        whole.extend(extras.iter().cloned());
        let f = Formula::and(whole);
        let before = search(&warm);
        let mut fresh = context();
        match objective {
            Some(objective) => {
                let objective = linear(objective);
                let answer = warm.minimize_with(prepared, &extras, &objective);
                assert_eq!(answer, fresh.minimize(&f, &objective), "minimize {f:?}");
                kinds[match answer {
                    OptResult::Sat {
                        outcome: OptOutcome::Minimum(_),
                        ..
                    } => 2,
                    OptResult::Sat { .. } => 3,
                    _ => 0,
                }] += 1;
            }
            None => match (warm.solve_with(prepared, &extras), fresh.solve(&f)) {
                (SmtResult::Sat(model), SmtResult::Sat(reference)) => {
                    if model.is_integral() {
                        assert!(model.iter().all(|(_, v)| v.is_integer()), "{model}");
                    } else {
                        assert_eq!(model, reference, "solve {f:?}");
                    }
                    assert!(f.eval(&|v| model.value_or_zero(v)), "{model} fails {f:?}");
                    kinds[1] += 1;
                }
                (answer, reference) => {
                    assert_eq!(answer, reference, "solve {f:?}");
                    kinds[0] += 1;
                }
            },
        }
        let after = search(&warm);
        let delta = (after.0 - before.0, after.1 - before.1);
        assert_eq!(delta, search(&fresh), "search of {f:?}");
    }
}

#[test]
fn prepared_queries_answer_like_a_fresh_context_on_the_whole_conjunction() {
    let mut rng = proptest::test_runner::TestRng::deterministic();
    let case = (atom_pool(), prepared_case());
    let mut kinds = [0usize; 4];
    for _ in 0..proptest::test_runner::cases() {
        let (pool, case) = case.generate(&mut rng);
        run_prepared_case(&pool, &case, &mut kinds);
    }
    let cases = proptest::test_runner::cases();
    assert!(
        kinds.iter().all(|&k| k >= cases / 8),
        "answers by kind {kinds:?}"
    );
}

/// The CNF a prepared query loads and the one a fresh encoding of the whole
/// conjunction gives, each with its atoms (by table id: both contexts number
/// atoms in the order they meet them).
fn both_encodings(prefix: &Formula, extension: &Formula, extras: &[Formula]) -> [Encoding; 2] {
    let mut warm = context();
    let base = warm.prepare(prefix.clone());
    let extended = warm.extend(&base, extension.clone());
    let templated = warm.encode_prepared(extended.0, extras);
    let mut whole = vec![prefix.clone(), extension.clone()];
    whole.extend(extras.iter().cloned());
    let plain = context().encode(&Formula::and(whole));
    [templated, plain]
}

#[test]
fn template_encodings_are_the_fresh_encodings_clause_for_clause() {
    let pool: Vec<RawAtom> = vec![
        (vec![1, 0, 0], 0),
        (vec![0, 1, -1], 2),
        (vec![1, 1, 0], -3),
        (vec![0, 0, 2], 1),
    ];
    let a = |i: usize| atom(&pool, i);
    let or = |i: usize, j: usize| Formula::or(vec![a(i), Formula::not(a(j))]);
    let nested = Formula::And(vec![a(0), Formula::And(vec![or(1, 2), Formula::True])]);
    // A variable-free atom encodes the constant `true` of the encoding.
    let constant = Formula::ge(LinExpr::constant(1), LinExpr::constant(0));
    let shapes: Vec<(Formula, Formula, Vec<Formula>)> = vec![
        // Plain chains.
        (Formula::and(vec![a(0), or(1, 3)]), or(2, 0), vec![a(3)]),
        (or(0, 1), a(2), vec![a(1), Formula::not(a(3))]),
        // Nested `And`s, `true` conjuncts, and a negated disjunction, which
        // NNF turns into a conjunction.
        (
            nested.clone(),
            Formula::True,
            vec![constant.clone(), nested],
        ),
        (
            Formula::True,
            Formula::not(Formula::or(vec![a(0), a(1)])),
            vec![Formula::True, constant],
        ),
        // Fallbacks: a `false` conjunct, and fewer than two conjuncts.
        (a(0), or(1, 2), vec![Formula::False]),
        (Formula::True, Formula::True, vec![a(2)]),
        (Formula::True, Formula::True, vec![]),
        (a(1), Formula::True, vec![]),
    ];
    for (prefix, extension, extras) in &shapes {
        let [templated, plain] = both_encodings(prefix, extension, extras);
        let shape = format!("{prefix} ∧ {extension} ∧ {extras:?}");
        assert_eq!(templated.sat.num_vars(), plain.sat.num_vars(), "{shape}");
        assert_eq!(
            templated.sat.num_clauses(),
            plain.sat.num_clauses(),
            "{shape}"
        );
        assert_eq!(templated.sat, plain.sat, "clauses of {shape}");
        assert_eq!(templated.atoms, plain.atoms, "atoms of {shape}");
        assert_eq!(templated.true_lit, plain.true_lit, "constant of {shape}");
    }
}

#[test]
fn a_kept_core_blocks_a_later_model_with_no_warm_check() {
    // x ≥ 5 ∧ (y ≥ 1 ∨ x ≤ 3): the SAT solver decides y ≥ 1 false first,
    // so its first model holds x ≤ 3, whose conflict with x ≥ 5 the
    // context keeps. The second query on the same prefix meets that model
    // first and blocks it with the kept core.
    let mut ctx = context();
    let (x, y) = (LinExpr::var(TermVar(0)), LinExpr::var(TermVar(1)));
    let prefix = Formula::and(vec![
        Formula::ge(x.clone(), LinExpr::constant(5)),
        Formula::or(vec![
            Formula::ge(y.clone(), LinExpr::constant(1)),
            Formula::le(x.clone(), LinExpr::constant(3)),
        ]),
    ]);
    let prepared = ctx.prepare(prefix);
    let bound = |k: i64| [Formula::le(y.clone(), LinExpr::constant(k))];
    assert!(ctx.minimize_with(&prepared, &bound(10), &y).is_sat());
    let first = ctx.stats().clone();
    assert_eq!((first.blocking_clauses, first.reused_cores), (1, 0));
    assert!(ctx.minimize_with(&prepared, &bound(20), &y).is_sat());
    let second = ctx.stats().clone();
    assert_eq!(second.theory_checks - first.theory_checks, 2);
    assert_eq!(second.blocking_clauses - first.blocking_clauses, 1);
    assert_eq!(second.reused_cores, 1);
    // Only the consistent model took a warm check: no check, and no
    // deletion probe, for the blocked one.
    assert_eq!(second.theory_warm_checks - first.theory_warm_checks, 1);
}
