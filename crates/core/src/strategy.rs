//! Task-selection strategies (Section 6.2): FBS, UBS, HHS.

use bc_ctable::{Condition, Expr};
use bc_data::VarId;
use bc_solver::utility::marginal_utility_by;
use bc_solver::{Solver, SolverError, SweepMemo, VarDists};
use std::collections::{BTreeSet, HashMap};

/// The three expression-selection strategies of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskStrategy {
    /// Frequency-based: pick the expression appearing most often across the
    /// chosen objects' conditions. Fastest, least accurate.
    Fbs,
    /// Utility-based: pick the expression with the highest marginal utility
    /// (Definition 6). Most accurate, slowest.
    Ubs,
    /// Hybrid heuristic (Algorithm 4): walk expressions in frequency order,
    /// computing utilities, and stop after `m` consecutive non-improvements.
    Hhs {
        /// The lookahead parameter `m`.
        m: usize,
    },
}

impl TaskStrategy {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            TaskStrategy::Fbs => "FBS",
            TaskStrategy::Ubs => "UBS",
            TaskStrategy::Hhs { .. } => "HHS",
        }
    }
}

/// Expression frequencies across a set of conditions (the paper counts how
/// often each expression appears in the conditions of the chosen top-k
/// objects).
pub fn expression_frequencies<'a>(
    conditions: impl IntoIterator<Item = &'a Condition>,
) -> HashMap<Expr, usize> {
    let mut freq = HashMap::new();
    for cond in conditions {
        for e in cond.exprs() {
            *freq.entry(*e).or_insert(0) += 1;
        }
    }
    freq
}

/// The candidate expressions of `cond`, excluding those touching a blocked
/// variable, ordered by descending frequency (ties broken by expression
/// order for determinism).
fn candidates(
    cond: &Condition,
    freq: &HashMap<Expr, usize>,
    blocked: &BTreeSet<VarId>,
) -> Vec<Expr> {
    let mut seen = BTreeSet::new();
    let mut out: Vec<Expr> = cond
        .exprs()
        .filter(|e| seen.insert(**e))
        .filter(|e| e.vars().all(|v| !blocked.contains(&v)))
        .copied()
        .collect();
    out.sort_by(|a, b| {
        freq.get(b)
            .unwrap_or(&0)
            .cmp(freq.get(a).unwrap_or(&0))
            .then(a.cmp(b))
    });
    out
}

/// What the utility computations of one selection sweep cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UtilityWork {
    /// Marginal utilities `G(o, e)` evaluated.
    pub evals: u64,
    /// Solver calls for `Pr(φ ∧ e)`, fallback re-solves included.
    pub solver_calls: u64,
    /// Value-branching decisions those calls took.
    pub decisions: u64,
    /// Component probabilities served from the solver's cache — within a
    /// call or from the sweep memo.
    pub cache_hits: u64,
    /// Calls the configured solver failed and the ADPLL fallback re-solved.
    pub fallbacks: u64,
}

/// The solving side of one task-selection sweep: the configured solver, the
/// ADPLL fallback for its errors, a [`SweepMemo`] shared by every solve of
/// the sweep, and the work counters.
///
/// A sweep borrows the distributions for its whole life, so they cannot
/// change under the memo.
pub struct Sweep<'s, 'd> {
    solver: &'s dyn Solver,
    fallback: &'s dyn Solver,
    memo: SweepMemo<'d>,
    work: UtilityWork,
}

impl<'s, 'd> Sweep<'s, 'd> {
    /// A sweep over `dists` that solves with `solver` and re-solves its
    /// failures with `fallback` (the session passes an ADPLL built by
    /// [`SolverKind::build`](crate::SolverKind::build) with the run's
    /// heuristic and caching flag, the same fallback its probability
    /// batches use).
    pub fn new(solver: &'s dyn Solver, fallback: &'s dyn Solver, dists: &'d VarDists) -> Self {
        Sweep {
            solver,
            fallback,
            memo: SweepMemo::new(dists),
            work: UtilityWork::default(),
        }
    }

    /// The work done so far.
    pub fn work(&self) -> UtilityWork {
        self.work
    }

    /// The marginal utility `G(o, e)` of asking `e` about an object with
    /// condition `cond` and `Pr(φ) = p_phi`. An error the fallback cannot
    /// fix is returned, never turned into a utility.
    pub fn utility(&mut self, cond: &Condition, e: &Expr, p_phi: f64) -> Result<f64, SolverError> {
        self.work.evals += 1;
        let dists = self.memo.dists();
        marginal_utility_by(cond, e, dists, p_phi, |joint| self.solve(joint))
    }

    fn solve(&mut self, cond: &Condition) -> Result<f64, SolverError> {
        self.work.solver_calls += 1;
        let (p, stats) = match self.solver.probability_in_sweep(cond, &mut self.memo) {
            Ok(solved) => solved,
            Err(_) => {
                self.work.solver_calls += 1;
                self.work.fallbacks += 1;
                self.fallback
                    .probability_with_stats(cond, self.memo.dists())?
            }
        };
        self.work.decisions += stats.branches;
        self.work.cache_hits += stats.cache_hits;
        Ok(p)
    }
}

/// Selects the crowd expression for one object's condition under the given
/// strategy. `blocked` holds variables already used by tasks selected this
/// round (conflict avoidance); `p_phi` is the object's current condition
/// probability (reused by the utility computations). Returns `Ok(None)` if
/// every expression conflicts, and the solver error if a utility could not
/// be computed even by the fallback.
pub fn select_expression(
    strategy: TaskStrategy,
    cond: &Condition,
    freq: &HashMap<Expr, usize>,
    blocked: &BTreeSet<VarId>,
    sweep: &mut Sweep<'_, '_>,
    p_phi: f64,
) -> Result<Option<Expr>, SolverError> {
    let cands = candidates(cond, freq, blocked);
    // UBS is HHS that never stops early.
    let lookahead = match strategy {
        TaskStrategy::Fbs => return Ok(cands.first().copied()),
        TaskStrategy::Ubs => usize::MAX,
        TaskStrategy::Hhs { m } => m.max(1),
    };
    let mut best: Option<(f64, Expr)> = None;
    let mut since_improvement = 0usize;
    for e in cands {
        let g = sweep.utility(cond, &e, p_phi)?;
        if best.is_none_or(|(bg, _)| g > bg) {
            best = Some((g, e));
            since_improvement = 0;
        } else {
            since_improvement += 1;
            if since_improvement >= lookahead {
                break;
            }
        }
    }
    Ok(best.map(|(_, e)| e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_bayes::Pmf;
    use bc_solver::AdpllSolver;

    fn v(o: u32, a: u16) -> VarId {
        VarId::new(o, a)
    }

    /// `select_expression` in a fresh ADPLL sweep.
    fn select(
        strategy: TaskStrategy,
        cond: &Condition,
        freq: &HashMap<Expr, usize>,
        blocked: &BTreeSet<VarId>,
        dists: &VarDists,
        p_phi: f64,
    ) -> Option<Expr> {
        let solver = AdpllSolver::new();
        let mut sweep = Sweep::new(&solver, &solver, dists);
        select_expression(strategy, cond, freq, blocked, &mut sweep, p_phi).unwrap()
    }

    fn simple_setup() -> (Condition, VarDists) {
        // φ = (x < 5 ∨ y < 1) ∧ (z > 3): x-question is most informative in
        // the first clause; z in its own clause.
        let cond = Condition::from_clauses(vec![
            vec![Expr::lt(v(0, 0), 5), Expr::lt(v(1, 0), 1)],
            vec![Expr::gt(v(2, 0), 3)],
        ]);
        let dists: VarDists = [
            (v(0, 0), Pmf::uniform(10)),
            (v(1, 0), Pmf::uniform(10)),
            (v(2, 0), Pmf::uniform(10)),
        ]
        .into_iter()
        .collect();
        (cond, dists)
    }

    #[test]
    fn fbs_follows_frequency() {
        let (cond, dists) = simple_setup();
        // Make y's expression globally frequent.
        let other = Condition::from_clauses(vec![vec![Expr::lt(v(1, 0), 1)]]);
        let freq = expression_frequencies([&cond, &other, &other]);
        let solver = AdpllSolver::new();
        let p = solver.probability(&cond, &dists).unwrap();
        let picked = select(TaskStrategy::Fbs, &cond, &freq, &BTreeSet::new(), &dists, p).unwrap();
        assert_eq!(picked, Expr::lt(v(1, 0), 1));
    }

    #[test]
    fn ubs_follows_utility() {
        let (cond, dists) = simple_setup();
        let freq = expression_frequencies([&cond]);
        let solver = AdpllSolver::new();
        let p = solver.probability(&cond, &dists).unwrap();
        let picked = select(TaskStrategy::Ubs, &cond, &freq, &BTreeSet::new(), &dists, p).unwrap();
        // "y < 1" is nearly decided (p = .1) so the utility of asking it is
        // small; x or z dominate. UBS must not pick y.
        assert_ne!(picked, Expr::lt(v(1, 0), 1));
    }

    #[test]
    fn hhs_with_large_m_matches_ubs() {
        let (cond, dists) = simple_setup();
        let freq = expression_frequencies([&cond]);
        let solver = AdpllSolver::new();
        let p = solver.probability(&cond, &dists).unwrap();
        let ubs = select(TaskStrategy::Ubs, &cond, &freq, &BTreeSet::new(), &dists, p);
        let hhs = select(
            TaskStrategy::Hhs { m: 100 },
            &cond,
            &freq,
            &BTreeSet::new(),
            &dists,
            p,
        );
        assert_eq!(ubs, hhs);
    }

    #[test]
    fn hhs_with_m_one_stops_early() {
        let (cond, dists) = simple_setup();
        let freq = expression_frequencies([&cond]);
        let solver = AdpllSolver::new();
        // m = 1: stops at the first non-improving expression, so it returns
        // some expression but possibly not the UBS optimum; it must still
        // return one.
        let p = solver.probability(&cond, &dists).unwrap();
        let picked = select(
            TaskStrategy::Hhs { m: 1 },
            &cond,
            &freq,
            &BTreeSet::new(),
            &dists,
            p,
        );
        assert!(picked.is_some());
    }

    #[test]
    fn blocked_variables_are_skipped() {
        let (cond, dists) = simple_setup();
        let freq = expression_frequencies([&cond]);
        let solver = AdpllSolver::new();
        let blocked: BTreeSet<VarId> = [v(0, 0), v(2, 0)].into_iter().collect();
        let p = solver.probability(&cond, &dists).unwrap();
        let picked = select(TaskStrategy::Fbs, &cond, &freq, &blocked, &dists, p).unwrap();
        assert_eq!(picked, Expr::lt(v(1, 0), 1));
        // Everything blocked → no task.
        let all: BTreeSet<VarId> = [v(0, 0), v(1, 0), v(2, 0)].into_iter().collect();
        assert_eq!(
            select(TaskStrategy::Fbs, &cond, &freq, &all, &dists, p),
            None
        );
    }

    /// A solver that fails every call, like the naive enumerator past its
    /// state cap.
    struct Failing;

    impl Solver for Failing {
        fn probability(&self, _: &Condition, _: &VarDists) -> Result<f64, SolverError> {
            Err(SolverError::StateSpaceTooLarge {
                states: 1 << 40,
                limit: 1 << 20,
            })
        }

        fn name(&self) -> &'static str {
            "failing"
        }
    }

    #[test]
    fn solver_errors_fall_back_to_adpll_and_are_counted() {
        let (cond, dists) = simple_setup();
        let freq = expression_frequencies([&cond]);
        let adpll = AdpllSolver::new();
        let p = adpll.probability(&cond, &dists).unwrap();
        let mut sweep = Sweep::new(&Failing, &adpll, &dists);
        let strategy = TaskStrategy::Ubs;
        let picked =
            select_expression(strategy, &cond, &freq, &BTreeSet::new(), &mut sweep, p).unwrap();
        let none = BTreeSet::new();
        assert_eq!(picked, select(strategy, &cond, &freq, &none, &dists, p));
        let work = sweep.work();
        assert_eq!(work.evals, 3);
        assert_eq!(work.fallbacks, 3);
        assert_eq!(work.solver_calls, 6, "each failed call plus its re-solve");
    }

    #[test]
    fn an_error_the_fallback_cannot_fix_is_returned_not_scored_zero() {
        // y has no distribution: every Pr(φ ∧ e) fails, in the fallback too.
        let (cond, mut dists) = simple_setup();
        let y = v(1, 0);
        dists = dists
            .iter()
            .filter(|(var, _)| **var != y)
            .map(|(k, p)| (*k, p.clone()))
            .collect();
        let freq = expression_frequencies([&cond]);
        let adpll = AdpllSolver::new();
        let mut sweep = Sweep::new(&adpll, &adpll, &dists);
        let blocked: BTreeSet<VarId> = [y].into_iter().collect();
        let got = select_expression(
            TaskStrategy::Hhs { m: 2 },
            &cond,
            &freq,
            &blocked,
            &mut sweep,
            0.5,
        );
        assert_eq!(got, Err(SolverError::MissingDistribution(y)));
        assert_eq!(sweep.work().fallbacks, 1);
    }

    #[test]
    fn strategy_names() {
        assert_eq!(TaskStrategy::Fbs.name(), "FBS");
        assert_eq!(TaskStrategy::Ubs.name(), "UBS");
        assert_eq!(TaskStrategy::Hhs { m: 3 }.name(), "HHS");
    }
}
