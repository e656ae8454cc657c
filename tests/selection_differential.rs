//! Differential checks of task selection at a scale the possible-worlds
//! oracle cannot reach (1,000 NBA-like objects, and 4,000 in the ignored
//! variants: `cargo test --release --test selection_differential --
//! --ignored`): the sweep memo against per-call ADPLL, the one-solve
//! utility against the two-solve formula, and the parallel probability
//! batch and the uncached solver against the sequential cached run.

use bayescrowd::prelude::*;
use bayescrowd::selection::{rank_objects, try_assemble_round};
use bayescrowd::strategy::Sweep;
use bc_crowd::{GroundTruthOracle, SimulatedPlatform};
use bc_ctable::{CTable, Condition, Expr};
use bc_data::generators::nba::nba_like;
use bc_data::missing::inject_mcar;
use bc_data::{Dataset, ObjectId};
use bc_solver::utility::{marginal_utility_with_prior, object_entropy};
use bc_solver::{AdpllSolver, SolveStats, Solver, SolverError, VarDists};
use std::collections::{BTreeSet, HashMap};

/// The default table size; the ignored variants run at `LARGE_N`.
const N: usize = 1_000;
const LARGE_N: usize = 4_000;

/// ADPLL with its per-call cache only: it keeps the trait's default
/// `probability_in_sweep`, which ignores the sweep memo.
struct PerCall(AdpllSolver);

impl Solver for PerCall {
    fn probability(&self, cond: &Condition, dists: &VarDists) -> Result<f64, SolverError> {
        self.0.probability(cond, dists)
    }

    fn probability_with_stats(
        &self,
        cond: &Condition,
        dists: &VarDists,
    ) -> Result<(f64, SolveStats), SolverError> {
        self.0.probability_with_stats(cond, dists)
    }

    fn name(&self) -> &'static str {
        "ADPLL, per call"
    }
}

fn nba_config(parallel: bool, caching: bool) -> BayesCrowdConfig {
    BayesCrowdConfig::builder()
        .budget(50)
        .latency(5)
        .alpha(0.01)
        .strategy(TaskStrategy::Hhs { m: 15 })
        .parallel(parallel)
        .solver_caching(caching)
        .build()
        .expect("valid configuration")
}

fn nba_instance(n: usize, seed: u64) -> (Dataset, Dataset) {
    let complete = nba_like(n, seed);
    let (incomplete, _) = inject_mcar(&complete, 0.1, seed + 1);
    (complete, incomplete)
}

/// The modeled state a session starts its first round from: c-table,
/// distributions and every open object's `Pr(φ)`.
fn first_round_state(n: usize, seed: u64) -> (CTable, VarDists, Vec<(ObjectId, f64)>) {
    let (complete, incomplete) = nba_instance(n, seed);
    let mut platform = SimulatedPlatform::new(GroundTruthOracle::new(complete), 0.95, seed);
    let session = BayesCrowd::new(nba_config(false, true))
        .session(&incomplete, &mut platform)
        .expect("modeling succeeds");
    let (ctable, dists) = (session.ctable().clone(), session.dists().clone());
    let solver = AdpllSolver::new();
    let probs = ctable
        .open_objects()
        .into_iter()
        .map(|o| (o, solver.probability(ctable.condition(o), &dists).unwrap()))
        .collect();
    (ctable, dists, probs)
}

/// `G(o, e)` the way it was computed before the complement identity: two
/// solves, `Pr(φ ∧ e)` and `Pr(φ ∧ ¬e)`.
fn two_solve_utility(cond: &Condition, e: &Expr, dists: &VarDists, p_phi: f64) -> f64 {
    let solver = AdpllSolver::new();
    let p_e = dists.expr_prob(e).unwrap();
    if p_e <= f64::EPSILON || p_e >= 1.0 - f64::EPSILON {
        return 0.0;
    }
    let p_and_true = solver.probability(&cond.and_expr(*e), dists).unwrap();
    let p_and_false = solver
        .probability(&cond.and_expr(e.negated()), dists)
        .unwrap();
    let p_true = (p_and_true / p_e).clamp(0.0, 1.0);
    let p_false = (p_and_false / (1.0 - p_e)).clamp(0.0, 1.0);
    let expected = p_e * object_entropy(p_true) + (1.0 - p_e) * object_entropy(p_false);
    (object_entropy(p_phi) - expected).max(0.0)
}

#[test]
fn memo_sweep_utilities_match_per_call_and_two_solve_utilities() {
    memo_matches_per_call_and_two_solve(N);
}

#[test]
#[ignore = "4,000 objects: run in release with --ignored"]
fn memo_sweep_utilities_match_per_call_and_two_solve_utilities_4k() {
    memo_matches_per_call_and_two_solve(LARGE_N);
}

fn memo_matches_per_call_and_two_solve(n: usize) {
    let (ctable, dists, probs) = first_round_state(n, 11);
    assert!(probs.len() >= 65, "only {} open objects", probs.len());
    let adpll = AdpllSolver::new();
    let mut sweep = Sweep::new(&adpll, &adpll, &dists);
    let per_call = AdpllSolver::new();
    let mut compared = 0;
    // The most uncertain objects are the ones selection scores.
    for r in rank_objects(&probs, ObjectRanking::Entropy)
        .iter()
        .take(120)
    {
        let cond = ctable.condition(r.object);
        let exprs: BTreeSet<Expr> = cond.exprs().copied().collect();
        for e in &exprs {
            let memo = sweep.utility(cond, e, r.probability).unwrap();
            let call =
                marginal_utility_with_prior(&per_call, cond, e, &dists, r.probability).unwrap();
            assert_eq!(
                memo.to_bits(),
                call.to_bits(),
                "{} / {e}: memo {memo} vs per call {call}",
                r.object
            );
            let two = two_solve_utility(cond, e, &dists, r.probability);
            assert!(
                (memo - two).abs() <= 1e-12,
                "{} / {e}: one solve {memo} vs two solves {two}",
                r.object
            );
            compared += 1;
        }
    }
    assert!(compared > 200, "only {compared} utilities compared");
    let work = sweep.work();
    assert_eq!(work.evals, compared);
    assert_eq!(work.fallbacks, 0);
    assert!(
        work.decisions < per_call.stats().branches,
        "the memo saved no decisions: {} vs {}",
        work.decisions,
        per_call.stats().branches
    );
}

#[test]
fn selected_batches_are_identical_with_and_without_the_memo() {
    batches_match_with_and_without_the_memo(N);
}

#[test]
#[ignore = "4,000 objects: run in release with --ignored"]
fn selected_batches_are_identical_with_and_without_the_memo_4k() {
    batches_match_with_and_without_the_memo(LARGE_N);
}

fn batches_match_with_and_without_the_memo(n: usize) {
    for seed in [11, 23] {
        let (ctable, dists, probs) = first_round_state(n, seed);
        let ranked = rank_objects(&probs, ObjectRanking::Entropy);
        let fallback = AdpllSolver::new();
        for strategy in [TaskStrategy::Hhs { m: 15 }, TaskStrategy::Ubs] {
            for limit in [10, 50] {
                let select = |solver: &dyn Solver| {
                    let mut sweep = Sweep::new(solver, &fallback, &dists);
                    let tasks = try_assemble_round(
                        &ranked,
                        &ctable,
                        strategy,
                        &mut sweep,
                        limit,
                        true,
                        &BTreeSet::new(),
                    )
                    .unwrap();
                    (tasks, sweep.work())
                };
                let (memo, memo_work) = select(&AdpllSolver::new());
                let (per_call, per_call_work) = select(&PerCall(AdpllSolver::new()));
                let ctx = format!("seed {seed}, {}, limit {limit}", strategy.name());
                assert_eq!(memo, per_call, "{ctx}");
                assert_eq!(memo.len(), limit, "{ctx}");
                assert_eq!(memo_work.evals, per_call_work.evals, "{ctx}");
                assert!(
                    memo_work.decisions <= per_call_work.decisions,
                    "{ctx}: {memo_work:?} vs {per_call_work:?}"
                );
            }
        }
    }
}

/// Everything in a report but the wall-clock durations.
fn assert_same_report(a: &RunReport, b: &RunReport) {
    assert_eq!(a.result, b.result, "result");
    assert_eq!(a.certain, b.certain, "certain");
    let bits = |r: &RunReport| -> HashMap<ObjectId, u64> {
        r.open_probabilities
            .iter()
            .map(|(o, p)| (*o, p.to_bits()))
            .collect()
    };
    assert_eq!(bits(a), bits(b), "open_probabilities");
    assert_eq!(a.accuracy, b.accuracy, "accuracy");
    assert_eq!(a.crowd, b.crowd, "crowd stats");
    assert_eq!(a.budget_left, b.budget_left, "budget_left");
    assert_eq!(
        a.probability_evals, b.probability_evals,
        "probability_evals"
    );
    assert_eq!(a.open_exprs_left, b.open_exprs_left, "open_exprs_left");
    assert_eq!(a.tasks_expired, b.tasks_expired, "tasks_expired");
    assert_eq!(a.tasks_retried, b.tasks_retried, "tasks_retried");
    assert_eq!(a.rounds_stalled, b.rounds_stalled, "rounds_stalled");
    assert_eq!(a.degraded, b.degraded, "degraded");
}

#[test]
fn parallel_and_uncached_runs_report_what_the_sequential_cached_run_reports() {
    let (complete, incomplete) = nba_instance(N, 11);
    let run = |parallel: bool, caching: bool| {
        let mut platform =
            SimulatedPlatform::new(GroundTruthOracle::new(complete.clone()), 0.95, 5);
        let mut metrics = MetricsRecorder::new();
        let report = BayesCrowd::new(nba_config(parallel, caching))
            .try_run(&incomplete, &mut platform, &mut metrics)
            .expect("the run succeeds");
        (report, metrics)
    };
    let (sequential, _) = run(false, true);
    assert!(sequential.crowd.tasks_posted > 0);
    for (parallel, caching) in [(true, true), (false, false)] {
        let (report, metrics) = run(parallel, caching);
        if parallel {
            // The parallel batch path only starts above 64 objects.
            let largest_batch = metrics
                .events()
                .iter()
                .filter_map(|e| match e {
                    Event::ProbabilityBatch { objects, .. } => Some(*objects),
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            assert!(
                largest_batch >= 65,
                "largest batch: {largest_batch} objects"
            );
        }
        assert_same_report(&sequential, &report);
    }
}
