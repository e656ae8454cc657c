//! Object entropy and the marginal-utility function (Definition 6).

use crate::dists::VarDists;
use crate::{Solver, SolverError};
use bc_bayes::pmf::binary_entropy;
use bc_ctable::{Condition, Expr};

/// The entropy `H(o)` of an object whose condition holds with probability
/// `p` (Eq. 3): maximal at a fair coin flip, zero when decided.
pub fn object_entropy(p: f64) -> f64 {
    binary_entropy(p)
}

/// The expected marginal utility `G(o, e) = H(o) − E[H(o | e)]` of
/// crowdsourcing expression `e` from condition `φ(o)` (Eq. 4/5).
///
/// `Pr(e)` comes from the variable distributions; the conditional
/// probabilities are computed exactly as `Pr(φ ∧ e) / Pr(e)` and
/// `Pr(φ ∧ ¬e) / Pr(¬e)`, with `Pr(φ ∧ ¬e) = Pr(φ) − Pr(φ ∧ e)`. When `e` is
/// (probabilistically) already decided, the utility is zero.
pub fn marginal_utility(
    solver: &dyn Solver,
    cond: &Condition,
    e: &Expr,
    dists: &VarDists,
) -> Result<f64, SolverError> {
    let p_phi = solver.probability(cond, dists)?;
    marginal_utility_with_prior(solver, cond, e, dists, p_phi)
}

/// [`marginal_utility`] with `Pr(φ)` already known (the framework computes
/// it once per round for the entropy ranking and reuses it here).
pub fn marginal_utility_with_prior(
    solver: &dyn Solver,
    cond: &Condition,
    e: &Expr,
    dists: &VarDists,
    p_phi: f64,
) -> Result<f64, SolverError> {
    marginal_utility_by(cond, e, dists, p_phi, |joint| {
        solver.probability(joint, dists)
    })
}

/// [`marginal_utility_with_prior`] with the one solve it needs, `Pr(φ ∧ e)`,
/// left to `solve_joint` — so a caller can route it through a sweep memo or
/// a fallback solver. `solve_joint` is not called when `e` is already
/// (probabilistically) decided.
///
/// `Pr(φ ∧ ¬e)` is not solved: `e` and `¬e` partition `φ`, so it is exactly
/// `Pr(φ) − Pr(φ ∧ e)` (clamped at zero against rounding).
pub fn marginal_utility_by(
    cond: &Condition,
    e: &Expr,
    dists: &VarDists,
    p_phi: f64,
    solve_joint: impl FnOnce(&Condition) -> Result<f64, SolverError>,
) -> Result<f64, SolverError> {
    let p_e = dists.expr_prob(e)?;
    if p_e <= f64::EPSILON || p_e >= 1.0 - f64::EPSILON {
        return Ok(0.0);
    }
    let p_and_true = solve_joint(&cond.and_expr(*e))?;
    let p_and_false = (p_phi - p_and_true).max(0.0);
    let p_true = (p_and_true / p_e).clamp(0.0, 1.0);
    let p_false = (p_and_false / (1.0 - p_e)).clamp(0.0, 1.0);
    let expected = p_e * binary_entropy(p_true) + (1.0 - p_e) * binary_entropy(p_false);
    Ok((object_entropy(p_phi) - expected).max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adpll::AdpllSolver;
    use bc_bayes::Pmf;
    use bc_data::VarId;

    fn v(o: u32, a: u16) -> VarId {
        VarId::new(o, a)
    }

    #[test]
    fn entropy_peaks_at_half() {
        assert!(object_entropy(0.5) > object_entropy(0.3));
        assert!(object_entropy(0.3) > object_entropy(0.05));
        assert_eq!(object_entropy(0.0), 0.0);
        assert_eq!(object_entropy(1.0), 0.0);
    }

    #[test]
    fn resolving_the_only_expression_removes_all_uncertainty() {
        // φ = (x < 5), x uniform over 10 → H(o) = 1 bit; knowing e's truth
        // decides φ, so the utility equals the full entropy.
        let x = v(0, 0);
        let e = Expr::lt(x, 5);
        let cond = Condition::from_clauses(vec![vec![e]]);
        let d: VarDists = [(x, Pmf::uniform(10))].into_iter().collect();
        let s = AdpllSolver::new();
        let g = marginal_utility(&s, &cond, &e, &d).unwrap();
        assert!((g - 1.0).abs() < 1e-9, "got {g}");
    }

    #[test]
    fn informative_expressions_score_higher() {
        // φ = (x < 5 ∨ y < 1), y uniform over 10.
        // Asking x (big swing) beats asking y (rarely flips anything).
        let x = v(0, 0);
        let y = v(1, 0);
        let ex = Expr::lt(x, 5);
        let ey = Expr::lt(y, 1);
        let cond = Condition::from_clauses(vec![vec![ex, ey]]);
        let d: VarDists = [(x, Pmf::uniform(10)), (y, Pmf::uniform(10))]
            .into_iter()
            .collect();
        let s = AdpllSolver::new();
        let gx = marginal_utility(&s, &cond, &ex, &d).unwrap();
        let gy = marginal_utility(&s, &cond, &ey, &d).unwrap();
        assert!(gx > gy, "G(x)={gx} should beat G(y)={gy}");
    }

    #[test]
    fn decided_expression_has_zero_utility() {
        let x = v(0, 0);
        // x only takes values {0,1} → "x < 5" is certain.
        let e = Expr::lt(x, 5);
        let cond = Condition::from_clauses(vec![vec![e, Expr::gt(v(1, 0), 3)]]);
        let d: VarDists = [
            (x, Pmf::uniform(10).conditioned(0b11).unwrap()),
            (v(1, 0), Pmf::uniform(10)),
        ]
        .into_iter()
        .collect();
        let s = AdpllSolver::new();
        assert_eq!(marginal_utility(&s, &cond, &e, &d).unwrap(), 0.0);
    }

    #[test]
    fn utility_never_exceeds_entropy() {
        let x = v(0, 0);
        let y = v(1, 0);
        let cond = Condition::from_clauses(vec![
            vec![Expr::lt(x, 3), Expr::gt(y, 6)],
            vec![Expr::gt(x, 0)],
        ]);
        let d: VarDists = [(x, Pmf::uniform(8)), (y, Pmf::uniform(8))]
            .into_iter()
            .collect();
        let s = AdpllSolver::new();
        let p = s.probability(&cond, &d).unwrap();
        let h = object_entropy(p);
        for e in cond.exprs() {
            let g = marginal_utility(&s, &cond, e, &d).unwrap();
            assert!(g <= h + 1e-9, "G={g} exceeds H={h}");
            assert!(g >= 0.0);
        }
    }

    #[test]
    fn one_solve_matches_the_two_solve_formula() {
        // Correlated clauses: asking x changes both clauses.
        let (x, y, z) = (v(0, 0), v(1, 0), v(2, 0));
        let cond = Condition::from_clauses(vec![
            vec![Expr::lt(x, 4), Expr::gt(y, 5)],
            vec![Expr::gt(x, 1), Expr::lt(z, 3)],
            vec![Expr::var_gt(y, z)],
        ]);
        let d: VarDists = [
            (x, Pmf::from_probs(vec![0.1, 0.2, 0.3, 0.1, 0.1, 0.2])),
            (y, Pmf::uniform(8)),
            (z, Pmf::uniform(6)),
        ]
        .into_iter()
        .collect();
        let s = AdpllSolver::new();
        let p_phi = s.probability(&cond, &d).unwrap();
        for e in cond.exprs() {
            let p_e = d.expr_prob(e).unwrap();
            let p_t = s.probability(&cond.and_expr(*e), &d).unwrap() / p_e;
            let p_f = s.probability(&cond.and_expr(e.negated()), &d).unwrap() / (1.0 - p_e);
            let two = object_entropy(p_phi)
                - (p_e * binary_entropy(p_t) + (1.0 - p_e) * binary_entropy(p_f));
            let one = marginal_utility_with_prior(&s, &cond, e, &d, p_phi).unwrap();
            assert!((one - two.max(0.0)).abs() < 1e-12, "{e}: {one} vs {two}");
        }
    }
}
