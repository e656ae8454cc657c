//! The preprocessing step of BayesCrowd: learn a Bayesian network from the
//! (incomplete) dataset and derive, for every missing cell `Var(o, a)`, its
//! conditional value distribution given the observed attributes of `o`.

use crate::anneal::{anneal_with_iters, AnnealConfig};
use crate::em::{em_fit, EmConfig};
use crate::graph::Dag;
use crate::infer::Engine;
use crate::learn::{family_bic_score, fit_parameters, hill_climb_with_iters, LearnConfig};
use crate::pmf::Pmf;
use crate::BayesianNetwork;
use bc_data::{Dataset, VarId};
use std::collections::BTreeMap;
use std::time::Instant;

/// What one [`MissingValueModel::learn_with_stats`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ModelStats {
    /// Total BIC score of the learned structure on the complete rows
    /// (`0.0` for the uniform-prior ablation or with no complete rows).
    pub bic: f64,
    /// Edges in the learned DAG.
    pub edges: usize,
    /// EM sweeps performed (`0` when EM was disabled).
    pub em_iters: usize,
    /// Structure-search moves applied (hill-climb improving moves or
    /// accepted annealing moves; `0` for the uniform-prior ablation).
    pub search_iters: usize,
    /// Missing cells that received a conditional distribution.
    pub missing_vars: usize,
    /// Wall-clock nanoseconds spent inferring those distributions (part of
    /// the training time).
    pub infer_nanos: u128,
}

/// Which structure-search mode runs over the complete rows (Banjo offers
/// the same pair).
#[derive(Clone, Debug, Default)]
pub enum StructureSearch {
    /// Greedy hill climbing (the default).
    #[default]
    HillClimb,
    /// Simulated annealing with the given schedule.
    Anneal(AnnealConfig),
}

/// Configuration of the modeling step.
#[derive(Clone, Debug, Default)]
pub struct ModelConfig {
    /// Structure/parameter learning knobs.
    pub learn: LearnConfig,
    /// If `true`, skip the Bayesian network entirely and give every missing
    /// value the uniform prior — the ablation the paper's design motivates
    /// against.
    pub uniform_prior: bool,
    /// If set, refine the CPTs by expectation-maximization over the
    /// incomplete rows instead of relying on listwise deletion alone.
    pub em: Option<EmConfig>,
    /// Structure-search mode.
    pub search: StructureSearch,
}

/// Learned value distributions for every missing cell of a dataset.
///
/// Variables of the *same* object are treated as mutually independent given
/// the object's observed attributes (each receives its own conditional
/// marginal). This matches the paper's ADPLL weighting, which multiplies a
/// standalone `p(v_a)` per variable.
#[derive(Clone, Debug)]
pub struct MissingValueModel {
    network: BayesianNetwork,
    pmfs: BTreeMap<VarId, Pmf>,
}

impl MissingValueModel {
    /// Runs the full preprocessing step on `data`.
    ///
    /// Structure and parameters are learned from the listwise-complete rows
    /// of `data` itself; with too few complete rows the model degrades
    /// gracefully to per-attribute marginals / uniform priors.
    pub fn learn(data: &Dataset, config: &ModelConfig) -> MissingValueModel {
        Self::learn_with_stats(data, config).0
    }

    /// [`MissingValueModel::learn`] plus training counters (structure
    /// score, DAG size, EM effort) for telemetry.
    pub fn learn_with_stats(
        data: &Dataset,
        config: &ModelConfig,
    ) -> (MissingValueModel, ModelStats) {
        let cards: Vec<usize> = data
            .domains()
            .iter()
            .map(|d| d.cardinality() as usize)
            .collect();
        let mut stats = ModelStats::default();
        let network = if config.uniform_prior {
            let dag = Dag::empty(cards.len());
            let cpts = fit_parameters(&dag, &[], &cards, config.learn.laplace);
            BayesianNetwork::new(dag, cpts, cards.clone())
        } else {
            // Structure on the complete rows (greedy or annealed)...
            let complete = data.complete_rows();
            let (dag, search_iters) = match &config.search {
                StructureSearch::HillClimb => {
                    hill_climb_with_iters(&complete, &cards, &config.learn)
                }
                StructureSearch::Anneal(a) => anneal_with_iters(&complete, &cards, a),
            };
            stats.search_iters = search_iters;
            if !complete.is_empty() {
                stats.bic = (0..dag.n_nodes())
                    .map(|node| family_bic_score(&complete, &cards, node, dag.parents(node)))
                    .sum();
            }
            // ...then parameters: EM over everything, or smoothed MLE on
            // the complete rows.
            if let Some(em_config) = &config.em {
                stats.em_iters = em_config.iterations;
                let all_rows: Vec<Vec<Option<u16>>> =
                    data.objects().map(|o| data.row(o).to_vec()).collect();
                em_fit(&dag, &all_rows, &cards, em_config)
            } else {
                let cpts = fit_parameters(&dag, &complete, &cards, config.learn.laplace);
                BayesianNetwork::new(dag, cpts, cards.clone())
            }
        };
        stats.edges = network.dag().n_edges();
        let infer_start = Instant::now();
        let pmfs = Self::conditionals(&network, data);
        stats.infer_nanos = infer_start.elapsed().as_nanos();
        stats.missing_vars = pmfs.len();
        (MissingValueModel { network, pmfs }, stats)
    }

    /// Builds a model from an already-trained network (e.g. the true network
    /// a synthetic dataset was sampled from).
    pub fn from_network(network: BayesianNetwork, data: &Dataset) -> MissingValueModel {
        let pmfs = Self::conditionals(&network, data);
        MissingValueModel { network, pmfs }
    }

    /// `P(a | observed attributes of o)` for every missing cell `(o, a)`.
    /// An object's missing cells share its evidence, so its factors are
    /// restricted once for all of them.
    fn conditionals(network: &BayesianNetwork, data: &Dataset) -> BTreeMap<VarId, Pmf> {
        let engine = Engine::new(network);
        let mut pmfs = BTreeMap::new();
        for o in data.objects() {
            let row = data.row(o);
            if row.iter().all(Option::is_some) {
                continue;
            }
            let evidence = engine.restrict(row);
            for a in data.attrs().filter(|a| row[a.index()].is_none()) {
                pmfs.insert(VarId { object: o, attr: a }, evidence.posterior(a.index()));
            }
        }
        pmfs
    }

    /// The underlying network.
    #[inline]
    pub fn network(&self) -> &BayesianNetwork {
        &self.network
    }

    /// Distribution of one missing variable, if it exists in the model.
    #[inline]
    pub fn pmf(&self, var: VarId) -> Option<&Pmf> {
        self.pmfs.get(&var)
    }

    /// All `(variable, distribution)` pairs, ordered by variable.
    #[inline]
    pub fn pmfs(&self) -> &BTreeMap<VarId, Pmf> {
        &self.pmfs
    }

    /// Moves the distributions out of the model.
    pub fn into_pmfs(self) -> BTreeMap<VarId, Pmf> {
        self.pmfs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_data::generators::sample::paper_dataset;
    use bc_data::missing::inject_mcar;
    use bc_data::{AttrId, Domain, ObjectId};
    use rand::Rng;
    use rand::SeedableRng;

    #[test]
    fn covers_exactly_the_missing_cells() {
        let data = paper_dataset();
        let model = MissingValueModel::learn(&data, &ModelConfig::default());
        assert_eq!(model.pmfs().len(), data.n_missing());
        for var in data.missing_vars() {
            let pmf = model.pmf(var).unwrap();
            assert_eq!(pmf.card(), data.domain(var.attr).cardinality() as usize);
        }
        assert_eq!(model.pmf(VarId::new(0, 0)), None);
    }

    #[test]
    fn learn_stats_describe_the_training_run() {
        let data = paper_dataset();
        let (model, stats) = MissingValueModel::learn_with_stats(&data, &ModelConfig::default());
        assert_eq!(stats.missing_vars, model.pmfs().len());
        assert_eq!(stats.edges, model.network().dag().n_edges());
        assert_eq!(stats.em_iters, 0);
        assert!(stats.bic <= 0.0, "BIC is a log-score, got {}", stats.bic);

        let (_, em_stats) = MissingValueModel::learn_with_stats(
            &data,
            &ModelConfig {
                em: Some(crate::em::EmConfig::default()),
                ..Default::default()
            },
        );
        assert_eq!(em_stats.em_iters, crate::em::EmConfig::default().iterations);

        let (_, uni) = MissingValueModel::learn_with_stats(
            &data,
            &ModelConfig {
                uniform_prior: true,
                ..Default::default()
            },
        );
        assert_eq!(uni.bic, 0.0);
        assert_eq!(uni.edges, 0);
    }

    #[test]
    fn annealed_structure_search_runs_end_to_end() {
        let data = paper_dataset();
        let cfg = ModelConfig {
            search: StructureSearch::Anneal(crate::anneal::AnnealConfig {
                moves: 200,
                ..Default::default()
            }),
            ..Default::default()
        };
        let model = MissingValueModel::learn(&data, &cfg);
        assert_eq!(model.pmfs().len(), data.n_missing());
    }

    #[test]
    fn em_modeling_runs_end_to_end() {
        let data = paper_dataset();
        let cfg = ModelConfig {
            em: Some(crate::em::EmConfig::default()),
            ..Default::default()
        };
        let model = MissingValueModel::learn(&data, &cfg);
        assert_eq!(model.pmfs().len(), data.n_missing());
    }

    #[test]
    fn uniform_prior_ablation_really_is_uniform() {
        let data = paper_dataset();
        let cfg = ModelConfig {
            uniform_prior: true,
            ..Default::default()
        };
        let model = MissingValueModel::learn(&data, &cfg);
        let pmf = model.pmf(VarId::new(1, 1)).unwrap();
        assert!((pmf.p(0) - 0.1).abs() < 1e-12);
        assert_eq!(model.network().dag().n_edges(), 0);
    }

    #[test]
    fn correlated_data_sharpens_the_conditional() {
        // X1 strongly tracks X0; hide X1 of an object whose X0 is large and
        // check the learned conditional leans large.
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let rows: Vec<Vec<u16>> = (0..3000)
            .map(|_| {
                let x0: u16 = rng.gen_range(0..8);
                let x1 = if rng.gen_bool(0.85) {
                    x0
                } else {
                    rng.gen_range(0..8)
                };
                vec![x0, x1]
            })
            .collect();
        let complete = Dataset::from_complete_rows(
            "corr",
            vec![Domain::new("a1", 8).unwrap(), Domain::new("a2", 8).unwrap()],
            rows,
        )
        .unwrap();
        let (mut data, _) = inject_mcar(&complete, 0.05, 3);
        // Force a specific missing cell with known evidence.
        data.set(ObjectId(0), AttrId(0), Some(7)).unwrap();
        data.set(ObjectId(0), AttrId(1), None).unwrap();

        let model = MissingValueModel::learn(&data, &ModelConfig::default());
        let pmf = model.pmf(VarId::new(0, 1)).unwrap();
        assert!(
            pmf.p(7) > 0.5,
            "conditional should concentrate near the evidence, got {:?}",
            pmf.probs()
        );

        // Versus the uniform ablation.
        let uni = MissingValueModel::learn(
            &data,
            &ModelConfig {
                uniform_prior: true,
                ..Default::default()
            },
        );
        assert!(uni.pmf(VarId::new(0, 1)).unwrap().p(7) < 0.2);
    }
}
