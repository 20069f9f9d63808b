//! Warm contexts against fresh ones: one [`SmtContext`] answering a
//! sequence of queries over shared atoms must give, query by query, what a
//! fresh context per query gives. `minimize` promises the same
//! [`OptResult`], model included; `solve` promises the same answer, with a
//! model that may be the warm tableau's point but is integral and satisfies
//! the formula (or, where branch-and-bound ran out of budget, the fresh
//! context's model). Both promise the same SAT search: the same theory checks
//! and blocking clauses.

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

fn formula(pool: &[RawAtom], (clauses, boxed, _): &Query) -> Formula {
    let atom = |(coeffs, rhs): &RawAtom| Formula::ge(linear(coeffs), LinExpr::constant(*rhs));
    let mut conjuncts: Vec<Formula> = (clauses.iter())
        .map(|clause| {
            let literals = clause.iter().map(|&(index, positive)| {
                let a = atom(&pool[index % pool.len()]);
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
