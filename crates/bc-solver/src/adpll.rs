//! The adaptive DPLL solver (Algorithm 3).
//!
//! ADPLL computes `Pr(φ)` exactly. It first splits the CNF into
//! variable-disjoint components (the generalization of Algorithm 3's
//! "conjuncts are independent" check): component probabilities multiply by
//! the *special conjunctive rule*. A component that is a single clause with
//! variable-disjoint expressions is closed directly by the *general
//! disjunctive rule* `Pr(∨ eⱼ) = 1 − Π (1 − Pr(eⱼ))`. Otherwise the solver
//! branches on a variable (by default the most frequent one, the paper's
//! heuristic), summing `p(v = a) · Pr(φ[v := a])` over the variable's
//! support — weakening the expression correlation at every level exactly as
//! the paper describes.

use crate::dists::VarDists;
use crate::{Solver, SolverError};
use bc_ctable::{Clause, Condition};
use bc_data::VarId;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::hash::{DefaultHasher, Hash, Hasher};

/// Which variable to branch on when a component is correlated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BranchHeuristic {
    /// The paper's choice: the variable occurring in the most expressions
    /// (ties break toward the smallest variable id, deterministically).
    #[default]
    MostFrequent,
    /// The first (smallest-id) variable — the ablation baseline showing the
    /// value of the frequency heuristic.
    First,
}

/// Counters describing one solve — the shape of the ADPLL search tree.
///
/// All fields but `max_depth` are monotone event counts; `max_depth` is the
/// deepest branching recursion reached, combined by `max` rather than `+`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Number of value-branching decisions taken.
    pub branches: u64,
    /// Number of independent components closed directly by the general
    /// disjunctive rule (no branching).
    pub direct_components: u64,
    /// Number of times connected-component decomposition split a condition
    /// into more than one independent sub-problem.
    pub component_splits: u64,
    /// Number of component probabilities served from the cache.
    pub cache_hits: u64,
    /// Number of correlated components that had to be solved by branching
    /// because the cache had no entry (or caching was disabled).
    pub cache_misses: u64,
    /// Deepest branching recursion reached.
    pub max_depth: u64,
}

impl SolveStats {
    /// Counter-wise difference `self - earlier`, for before/after
    /// snapshots around a single call. Event counts subtract saturating
    /// (a reset in between must not wrap a reused solver's counters
    /// around); `max_depth` is not a count and carries over as the
    /// cumulative maximum.
    pub fn since(&self, earlier: &SolveStats) -> SolveStats {
        SolveStats {
            branches: self.branches.saturating_sub(earlier.branches),
            direct_components: self
                .direct_components
                .saturating_sub(earlier.direct_components),
            component_splits: self
                .component_splits
                .saturating_sub(earlier.component_splits),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            max_depth: self.max_depth,
        }
    }
}

impl std::ops::AddAssign for SolveStats {
    fn add_assign(&mut self, rhs: SolveStats) {
        self.branches += rhs.branches;
        self.direct_components += rhs.direct_components;
        self.component_splits += rhs.component_splits;
        self.cache_hits += rhs.cache_hits;
        self.cache_misses += rhs.cache_misses;
        self.max_depth = self.max_depth.max(rhs.max_depth);
    }
}

/// The adaptive DPLL solver.
///
/// ```
/// use bc_bayes::Pmf;
/// use bc_ctable::{Condition, Expr};
/// use bc_data::VarId;
/// use bc_solver::{AdpllSolver, Solver, VarDists};
///
/// // φ = (x < 2) ∧ (y > 4), x and y uniform over 0..10.
/// let x = VarId::new(0, 0);
/// let y = VarId::new(1, 0);
/// let cond = Condition::from_clauses(vec![
///     vec![Expr::lt(x, 2)],
///     vec![Expr::gt(y, 4)],
/// ]);
/// let dists: VarDists = [(x, Pmf::uniform(10)), (y, Pmf::uniform(10))]
///     .into_iter()
///     .collect();
/// let p = AdpllSolver::new().probability(&cond, &dists).unwrap();
/// assert!((p - 0.2 * 0.5).abs() < 1e-12);
/// ```
///
/// By default the solver memoizes component probabilities *within one
/// `probability` call* (component/formula caching in the style of Sang,
/// Beame & Kautz — reference \[32\] of the paper). Sibling branches whose
/// substitutions collapse to the same residual component are then solved
/// once. Caching is sound per call because the distributions are fixed for
/// its duration; it is cleared between calls. A caller that runs many
/// solves against the same distributions can keep the cache alive across
/// them with a [`SweepMemo`] and [`Solver::probability_in_sweep`].
#[derive(Clone, Debug)]
pub struct AdpllSolver {
    heuristic: BranchHeuristic,
    caching: bool,
    branches: Cell<u64>,
    direct: Cell<u64>,
    splits: Cell<u64>,
    cache_hits: Cell<u64>,
    cache_misses: Cell<u64>,
    /// Current branching recursion depth (transient within one call).
    depth: Cell<u64>,
    max_depth: Cell<u64>,
}

impl Default for AdpllSolver {
    fn default() -> Self {
        AdpllSolver {
            heuristic: BranchHeuristic::default(),
            caching: true,
            branches: Cell::new(0),
            direct: Cell::new(0),
            splits: Cell::new(0),
            cache_hits: Cell::new(0),
            cache_misses: Cell::new(0),
            depth: Cell::new(0),
            max_depth: Cell::new(0),
        }
    }
}

impl AdpllSolver {
    /// A solver with the paper's most-frequent-variable heuristic and
    /// component caching enabled.
    pub fn new() -> AdpllSolver {
        AdpllSolver::default()
    }

    /// A solver with an explicit branching heuristic (for the ablation).
    pub fn with_heuristic(heuristic: BranchHeuristic) -> AdpllSolver {
        AdpllSolver {
            heuristic,
            ..Default::default()
        }
    }

    /// Enables or disables per-call component caching (the ablation knob).
    pub fn with_caching(mut self, caching: bool) -> AdpllSolver {
        self.caching = caching;
        self
    }

    /// Statistics accumulated since construction (or the last reset).
    pub fn stats(&self) -> SolveStats {
        SolveStats {
            branches: self.branches.get(),
            direct_components: self.direct.get(),
            component_splits: self.splits.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            max_depth: self.max_depth.get(),
        }
    }

    /// Clears the counters.
    pub fn reset_stats(&self) {
        self.branches.set(0);
        self.direct.set(0);
        self.splits.set(0);
        self.cache_hits.set(0);
        self.cache_misses.set(0);
        self.max_depth.set(0);
    }

    fn clause_probability(&self, clause: &Clause, dists: &VarDists) -> Result<f64, SolverError> {
        // Within-clause expressions are variable-disjoint by construction;
        // verify and fall back to local branching if a manually built clause
        // violates it.
        let mut seen: Vec<VarId> = Vec::with_capacity(clause.len() * 2);
        let mut disjoint = true;
        'outer: for e in clause.exprs() {
            for v in e.vars() {
                if seen.contains(&v) {
                    disjoint = false;
                    break 'outer;
                }
                seen.push(v);
            }
        }
        if disjoint {
            // General disjunctive rule (clamped: pmf normalization can
            // leave 1e-16-scale slack in the complement products).
            let mut none = 1.0;
            for e in clause.exprs() {
                none *= (1.0 - dists.expr_prob(e)?).clamp(0.0, 1.0);
            }
            Ok((1.0 - none).clamp(0.0, 1.0))
        } else {
            // Shared variables inside one clause: treat it as a one-clause
            // condition and branch.
            let cond = Condition::from_clauses(vec![clause.exprs().to_vec()]);
            self.branch(&cond, dists, &mut ComponentCache::default())
        }
    }

    fn pick_branch_var(&self, cond: &Condition) -> Option<VarId> {
        match self.heuristic {
            BranchHeuristic::MostFrequent => cond.most_frequent_var(),
            BranchHeuristic::First => cond.vars().into_iter().next(),
        }
    }

    fn branch(
        &self,
        cond: &Condition,
        dists: &VarDists,
        cache: &mut ComponentCache,
    ) -> Result<f64, SolverError> {
        let v = self
            .pick_branch_var(cond)
            .expect("branch() is only called on undecided conditions");
        let pmf = dists.pmf(v)?.clone();
        let d = self.depth.get() + 1;
        self.depth.set(d);
        self.max_depth.set(self.max_depth.get().max(d));
        let mut total = 0.0;
        for value in pmf.support() {
            self.branches.set(self.branches.get() + 1);
            let sub = cond.substitute(v, value);
            let p = self.solve(&sub, dists, cache);
            match p {
                Ok(p) => total += pmf.p(value) * p,
                Err(e) => {
                    self.depth.set(d - 1);
                    return Err(e);
                }
            }
        }
        self.depth.set(d - 1);
        Ok(total.clamp(0.0, 1.0))
    }

    fn solve(
        &self,
        cond: &Condition,
        dists: &VarDists,
        cache: &mut ComponentCache,
    ) -> Result<f64, SolverError> {
        let clauses = match cond {
            Condition::True => return Ok(1.0),
            Condition::False => return Ok(0.0),
            Condition::Cnf(clauses) => clauses,
        };

        // Split clauses into variable-connected components.
        let components = connected_components(clauses);
        if components.len() > 1 {
            self.splits.set(self.splits.get() + 1);
        }
        let mut total = 1.0;
        for comp in components {
            let p = if comp.len() == 1 {
                self.direct.set(self.direct.get() + 1);
                self.clause_probability(comp[0], dists)?
            } else {
                let key = self.caching.then(|| fingerprint(&comp));
                match key.and_then(|key| cache.get(key, &comp)) {
                    Some(hit) => {
                        self.cache_hits.set(self.cache_hits.get() + 1);
                        hit
                    }
                    None => {
                        let cond = Condition::from_clauses(comp.iter().map(|c| c.exprs().to_vec()));
                        match &cond {
                            Condition::True => 1.0,
                            Condition::False => 0.0,
                            Condition::Cnf(_) => {
                                self.cache_misses.set(self.cache_misses.get() + 1);
                                let p = self.branch(&cond, dists, cache)?;
                                if let Some(key) = key {
                                    cache.insert(key, cond, p);
                                }
                                p
                            }
                        }
                    }
                }
            };
            total *= p;
            if total == 0.0 {
                break;
            }
        }
        Ok(total.clamp(0.0, 1.0))
    }
}

/// Solved component probabilities, keyed by [`fingerprint`]. Each entry
/// keeps its component, and a lookup compares it clause by clause with the
/// query, so a fingerprint collision is a miss, never a wrong answer. The
/// map keeps the default randomly keyed hasher: fingerprints derive from
/// the input data.
#[derive(Debug, Default)]
struct ComponentCache {
    entries: HashMap<u64, (Condition, f64)>,
}

impl ComponentCache {
    fn get(&self, key: u64, comp: &[&Clause]) -> Option<f64> {
        let (cond, p) = self.entries.get(&key)?;
        cond.clauses().iter().eq(comp.iter().copied()).then_some(*p)
    }

    fn insert(&mut self, key: u64, cond: Condition, p: f64) {
        self.entries.insert(key, (cond, p));
    }
}

/// The canonical 64-bit fingerprint of a component: a fixed-key hash of
/// its clauses in order, so equal components always get equal keys and
/// the lookup needs no `Condition` built or cloned.
fn fingerprint(comp: &[&Clause]) -> u64 {
    let mut h = DefaultHasher::new();
    comp.hash(&mut h);
    h.finish()
}

/// Component probabilities shared by every ADPLL solve of one sweep over
/// fixed distributions — the memo of a task-selection sweep, whose
/// `Pr(φ ∧ e)` queries share every component of `φ` that does not touch
/// `e`'s variables.
///
/// The memo borrows the distributions it was built for, so the borrow
/// checker rules out updating them while it is alive: a stale entry cannot
/// outlive the distributions it was computed from. A solver built without
/// caching ignores the memo.
///
/// ```
/// use bc_bayes::Pmf;
/// use bc_ctable::{Condition, Expr};
/// use bc_data::VarId;
/// use bc_solver::{AdpllSolver, Solver, SweepMemo, VarDists};
///
/// let (x, y) = (VarId::new(0, 0), VarId::new(1, 0));
/// let phi = Condition::from_clauses(vec![
///     vec![Expr::lt(x, 2)],
///     vec![Expr::gt(x, 0), Expr::lt(y, 2)],
/// ]);
/// let dists: VarDists = [(x, Pmf::uniform(4)), (y, Pmf::uniform(4))]
///     .into_iter()
///     .collect();
/// let solver = AdpllSolver::new();
/// let mut memo = SweepMemo::new(&dists);
/// let (first, _) = solver.probability_in_sweep(&phi, &mut memo).unwrap();
/// let (again, stats) = solver.probability_in_sweep(&phi, &mut memo).unwrap();
/// assert_eq!(first.to_bits(), again.to_bits());
/// assert_eq!((stats.branches, stats.cache_hits), (0, 1));
/// ```
#[derive(Debug)]
pub struct SweepMemo<'d> {
    dists: &'d VarDists,
    cache: ComponentCache,
}

impl<'d> SweepMemo<'d> {
    /// An empty memo over `dists`.
    pub fn new(dists: &'d VarDists) -> SweepMemo<'d> {
        SweepMemo {
            dists,
            cache: ComponentCache::default(),
        }
    }

    /// The distributions every solve in this sweep runs against.
    pub fn dists(&self) -> &'d VarDists {
        self.dists
    }

    /// Whether nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.cache.entries.is_empty()
    }
}

/// Groups clauses into variable-connected components.
fn connected_components(clauses: &[Clause]) -> Vec<Vec<&Clause>> {
    let n = clauses.len();
    // Union-find over clause indices.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let mut owner: BTreeMap<VarId, usize> = BTreeMap::new();
    for (i, clause) in clauses.iter().enumerate() {
        for e in clause.exprs() {
            for v in e.vars() {
                match owner.get(&v) {
                    Some(&j) => {
                        let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                        if ri != rj {
                            parent[ri] = rj;
                        }
                    }
                    None => {
                        owner.insert(v, i);
                    }
                }
            }
        }
    }
    let mut groups: BTreeMap<usize, Vec<&Clause>> = BTreeMap::new();
    for (i, clause) in clauses.iter().enumerate() {
        groups.entry(find(&mut parent, i)).or_default().push(clause);
    }
    groups.into_values().collect()
}

impl Solver for AdpllSolver {
    fn probability(&self, cond: &Condition, dists: &VarDists) -> Result<f64, SolverError> {
        self.solve(cond, dists, &mut ComponentCache::default())
    }

    fn probability_with_stats(
        &self,
        cond: &Condition,
        dists: &VarDists,
    ) -> Result<(f64, SolveStats), SolverError> {
        let before = self.stats();
        let p = self.probability(cond, dists)?;
        Ok((p, self.stats().since(&before)))
    }

    fn probability_in_sweep(
        &self,
        cond: &Condition,
        memo: &mut SweepMemo<'_>,
    ) -> Result<(f64, SolveStats), SolverError> {
        let before = self.stats();
        let p = self.solve(cond, memo.dists, &mut memo.cache)?;
        Ok((p, self.stats().since(&before)))
    }

    fn name(&self) -> &'static str {
        "ADPLL"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_bayes::Pmf;
    use bc_ctable::Expr;

    fn v(o: u32, a: u16) -> VarId {
        VarId::new(o, a)
    }

    #[test]
    fn trivial_conditions() {
        let s = AdpllSolver::new();
        let d = VarDists::default();
        assert_eq!(s.probability(&Condition::True, &d).unwrap(), 1.0);
        assert_eq!(s.probability(&Condition::False, &d).unwrap(), 0.0);
    }

    #[test]
    fn independent_clauses_use_the_product_rule() {
        // (x < 2) ∧ (y < 5), x,y uniform over 10 → 0.2 * 0.5.
        let cond =
            Condition::from_clauses(vec![vec![Expr::lt(v(0, 0), 2)], vec![Expr::lt(v(1, 0), 5)]]);
        let d: VarDists = [(v(0, 0), Pmf::uniform(10)), (v(1, 0), Pmf::uniform(10))]
            .into_iter()
            .collect();
        let s = AdpllSolver::new();
        let p = s.probability(&cond, &d).unwrap();
        assert!((p - 0.1).abs() < 1e-12);
        // No branching should have happened.
        assert_eq!(s.stats().branches, 0);
        assert_eq!(s.stats().direct_components, 2);
    }

    #[test]
    fn disjunctive_rule_within_a_clause() {
        // (x < 2 ∨ y < 5) → 1 - 0.8*0.5 = 0.6.
        let cond = Condition::from_clauses(vec![vec![Expr::lt(v(0, 0), 2), Expr::lt(v(1, 0), 5)]]);
        let d: VarDists = [(v(0, 0), Pmf::uniform(10)), (v(1, 0), Pmf::uniform(10))]
            .into_iter()
            .collect();
        let p = AdpllSolver::new().probability(&cond, &d).unwrap();
        assert!((p - 0.6).abs() < 1e-12);
    }

    #[test]
    fn correlated_clauses_branch_correctly() {
        // (x < 2) ∧ (x > 0 ∨ y < 5) with x,y uniform over 4.
        // Exact: P(x=1)·1 + P(x=0)·P(y<5=1)… compute by hand:
        // x<2 → x ∈ {0,1}. If x=1: second clause true (x>0). If x=0: second
        // clause iff y<5 (always true for card 4). So P = P(x<2) = 0.5.
        let cond = Condition::from_clauses(vec![
            vec![Expr::lt(v(0, 0), 2)],
            vec![Expr::gt(v(0, 0), 0), Expr::lt(v(1, 0), 5)],
        ]);
        let d: VarDists = [(v(0, 0), Pmf::uniform(4)), (v(1, 0), Pmf::uniform(4))]
            .into_iter()
            .collect();
        let s = AdpllSolver::new();
        let p = s.probability(&cond, &d).unwrap();
        assert!((p - 0.5).abs() < 1e-12, "got {p}");
        assert!(s.stats().branches > 0);
    }

    #[test]
    fn narrower_y_matters() {
        // Same shape but y uniform over 8 and clause needs y < 2:
        // P = P(x=1) + P(x=0)·P(y<2) = 0.25 + 0.25·0.25 = 0.3125.
        let cond = Condition::from_clauses(vec![
            vec![Expr::lt(v(0, 0), 2)],
            vec![Expr::gt(v(0, 0), 0), Expr::lt(v(1, 0), 2)],
        ]);
        let d: VarDists = [(v(0, 0), Pmf::uniform(4)), (v(1, 0), Pmf::uniform(8))]
            .into_iter()
            .collect();
        let p = AdpllSolver::new().probability(&cond, &d).unwrap();
        assert!((p - 0.3125).abs() < 1e-12, "got {p}");
    }

    #[test]
    fn heuristics_agree_on_probability() {
        let cond = Condition::from_clauses(vec![
            vec![Expr::gt(v(0, 0), 2), Expr::gt(v(0, 1), 3)],
            vec![Expr::var_gt(v(0, 0), v(1, 0)), Expr::gt(v(0, 1), 2)],
        ]);
        let d: VarDists = [
            (v(0, 0), Pmf::uniform(10)),
            (v(0, 1), Pmf::uniform(8)),
            (v(1, 0), Pmf::uniform(10)),
        ]
        .into_iter()
        .collect();
        let a = AdpllSolver::with_heuristic(BranchHeuristic::MostFrequent)
            .probability(&cond, &d)
            .unwrap();
        let b = AdpllSolver::with_heuristic(BranchHeuristic::First)
            .probability(&cond, &d)
            .unwrap();
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn caching_does_not_change_results_and_saves_branches() {
        // A condition whose branches collapse to repeated residuals: the
        // cached solver must agree with the uncached one and record hits.
        let cond = Condition::from_clauses(vec![
            vec![Expr::lt(v(0, 0), 5), Expr::lt(v(1, 0), 3)],
            vec![Expr::gt(v(0, 0), 1), Expr::gt(v(2, 0), 6)],
            vec![
                Expr::lt(v(0, 0), 8),
                Expr::gt(v(1, 0), 1),
                Expr::lt(v(2, 0), 9),
            ],
        ]);
        let d: VarDists = (0..3).map(|o| (v(o, 0), Pmf::uniform(10))).collect();
        let cached = AdpllSolver::new();
        let uncached = AdpllSolver::new().with_caching(false);
        let a = cached.probability(&cond, &d).unwrap();
        let b = uncached.probability(&cond, &d).unwrap();
        assert!((a - b).abs() < 1e-12);
        assert!(cached.stats().cache_hits > 0, "expected cache hits");
        assert!(
            cached.stats().branches < uncached.stats().branches,
            "caching should prune branches: {} vs {}",
            cached.stats().branches,
            uncached.stats().branches
        );
    }

    #[test]
    fn cache_is_per_call() {
        // Two calls with different distributions must not contaminate each
        // other even though the conditions are identical.
        let cond = Condition::from_clauses(vec![
            vec![Expr::lt(v(0, 0), 2)],
            vec![Expr::gt(v(0, 0), 0), Expr::lt(v(1, 0), 2)],
        ]);
        let s = AdpllSolver::new();
        let d1: VarDists = [(v(0, 0), Pmf::uniform(4)), (v(1, 0), Pmf::uniform(4))]
            .into_iter()
            .collect();
        let d2: VarDists = [(v(0, 0), Pmf::uniform(4)), (v(1, 0), Pmf::delta(4, 3))]
            .into_iter()
            .collect();
        let p1 = s.probability(&cond, &d1).unwrap();
        let p2 = s.probability(&cond, &d2).unwrap();
        // P(x<2)·[P(x=1)/P(x<2) + P(x=0)/P(x<2)·P(y<2)] = .25 + .25·.5.
        assert!((p1 - 0.375).abs() < 1e-12, "got {p1}");
        // With y pinned to 3, the clause (x>0 ∨ y<2) needs x>0:
        // P = P(x=1) = 0.25.
        assert!((p2 - 0.25).abs() < 1e-12, "got {p2}");
    }

    #[test]
    fn per_call_stats_are_not_cumulative() {
        let cond = Condition::from_clauses(vec![
            vec![Expr::lt(v(0, 0), 2)],
            vec![Expr::gt(v(0, 0), 0), Expr::lt(v(1, 0), 2)],
        ]);
        let d: VarDists = [(v(0, 0), Pmf::uniform(4)), (v(1, 0), Pmf::uniform(4))]
            .into_iter()
            .collect();
        let s = AdpllSolver::new();
        let (_, first) = s.probability_with_stats(&cond, &d).unwrap();
        let (_, second) = s.probability_with_stats(&cond, &d).unwrap();
        assert!(first.branches > 0);
        // The second call reports only its own work, while the cumulative
        // counters keep growing.
        assert_eq!(first.branches, second.branches);
        assert_eq!(s.stats().branches, first.branches + second.branches);
    }

    #[test]
    fn since_saturates_when_solver_is_reset_between_snapshots() {
        let cond = Condition::from_clauses(vec![
            vec![Expr::lt(v(0, 0), 2)],
            vec![Expr::gt(v(0, 0), 0), Expr::lt(v(1, 0), 2)],
        ]);
        let d: VarDists = [(v(0, 0), Pmf::uniform(4)), (v(1, 0), Pmf::uniform(4))]
            .into_iter()
            .collect();
        let s = AdpllSolver::new();
        s.probability(&cond, &d).unwrap();
        let before = s.stats();
        assert!(before.branches > 0 && before.cache_misses > 0);
        // A reset between the snapshot and the diff — exactly what happens
        // when a solver is reused across rounds — must saturate to zero,
        // not wrap around.
        s.reset_stats();
        s.probability(&Condition::True, &d).unwrap();
        let diff = s.stats().since(&before);
        assert_eq!(diff.branches, 0);
        assert_eq!(diff.direct_components, 0);
        assert_eq!(diff.component_splits, 0);
        assert_eq!(diff.cache_hits, 0);
        assert_eq!(diff.cache_misses, 0);
        // max_depth is not a count: it carries over as the cumulative max.
        assert_eq!(diff.max_depth, s.stats().max_depth);

        // Normal forward diffs still report exactly the delta.
        let mid = s.stats();
        s.probability(&cond, &d).unwrap();
        let fwd = s.stats().since(&mid);
        assert_eq!(fwd.branches, before.branches);
        assert_eq!(fwd.cache_misses, before.cache_misses);
    }

    #[test]
    fn missing_distribution_propagates() {
        let cond = Condition::from_clauses(vec![vec![Expr::lt(v(7, 7), 1)]]);
        let d = VarDists::default();
        assert!(matches!(
            AdpllSolver::new().probability(&cond, &d),
            Err(SolverError::MissingDistribution(_))
        ));
    }

    /// Conditions `φ ∧ e` for each expression `e` of a correlated `φ` —
    /// the queries of one selection sweep.
    fn sweep_queries() -> (Vec<Condition>, VarDists) {
        let phi = Condition::from_clauses(vec![
            vec![Expr::lt(v(0, 0), 5), Expr::lt(v(1, 0), 3)],
            vec![Expr::gt(v(0, 0), 1), Expr::gt(v(2, 0), 6)],
            vec![Expr::gt(v(1, 0), 2), Expr::lt(v(2, 0), 8)],
            vec![Expr::lt(v(3, 0), 4), Expr::gt(v(4, 0), 2)],
            vec![Expr::gt(v(3, 0), 1), Expr::lt(v(4, 0), 7)],
        ]);
        let d: VarDists = (0..5).map(|o| (v(o, 0), Pmf::uniform(10))).collect();
        let queries = phi.exprs().map(|e| phi.and_expr(*e)).collect();
        (queries, d)
    }

    #[test]
    fn sweep_memo_is_bit_identical_to_per_call_solves_and_saves_work() {
        let (queries, d) = sweep_queries();
        let per_call = AdpllSolver::new();
        let swept = AdpllSolver::new();
        let mut memo = SweepMemo::new(&d);
        for q in &queries {
            let want = per_call.probability(q, &d).unwrap();
            let (got, _) = swept.probability_in_sweep(q, &mut memo).unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "{q:?}");
        }
        assert!(!memo.is_empty());
        // Components shared between queries are solved once.
        let (swept, per_call) = (swept.stats(), per_call.stats());
        assert!(swept.cache_misses < per_call.cache_misses, "{swept:?}");
        assert!(swept.branches < per_call.branches, "{swept:?}");
    }

    #[test]
    fn solvers_without_caching_ignore_the_sweep_memo() {
        let (queries, d) = sweep_queries();
        let uncached = AdpllSolver::new().with_caching(false);
        let mut memo = SweepMemo::new(&d);
        for q in &queries {
            let (got, stats) = uncached.probability_in_sweep(q, &mut memo).unwrap();
            let want = AdpllSolver::new().probability(q, &d).unwrap();
            assert!((got - want).abs() < 1e-12);
            assert_eq!(stats.cache_hits, 0);
        }
        assert!(memo.is_empty());
    }

    #[test]
    fn a_fingerprint_collision_is_a_miss() {
        let a = Condition::from_clauses(vec![
            vec![Expr::lt(v(0, 0), 2)],
            vec![Expr::gt(v(0, 0), 0), Expr::lt(v(1, 0), 2)],
        ]);
        let b = Condition::from_clauses(vec![
            vec![Expr::lt(v(0, 0), 3)],
            vec![Expr::gt(v(0, 0), 0), Expr::lt(v(1, 0), 2)],
        ]);
        fn comp(c: &Condition) -> Vec<&Clause> {
            c.clauses().iter().collect()
        }
        let (ca, cb) = (comp(&a), comp(&b));
        let key_a = fingerprint(&ca);
        assert_eq!(
            key_a,
            fingerprint(&comp(&a.clone())),
            "keys are reproducible"
        );
        assert_ne!(key_a, fingerprint(&cb));
        let mut cache = ComponentCache::default();
        // Store b under a's key, as if the two collided.
        cache.insert(key_a, b.clone(), 0.25);
        assert_eq!(cache.get(key_a, &ca), None);
        assert_eq!(cache.get(key_a, &cb), Some(0.25));
    }
}
