#![warn(missing_docs)]
//! Bayesian-network substrate for BayesCrowd.
//!
//! The paper's preprocessing step trains a Bayesian network over the data
//! attributes (Banjo for structure, Infer.Net for parameters) and then uses
//! it to learn, for every missing cell `Var(o, a)`, a discrete probability
//! distribution conditioned on the *observed* attributes of object `o`.
//! This crate provides all of that from scratch:
//!
//! * [`Pmf`] — discrete distributions with the operations the solver needs
//!   (comparison probabilities, entropy, truncation by candidate-value mask),
//! * [`Dag`] / [`Cpt`] / [`BayesianNetwork`] — the network representation,
//! * [`learn`] — greedy hill-climbing structure search maximizing BIC plus
//!   Laplace-smoothed maximum-likelihood parameter fitting,
//! * [`em`] — expectation-maximization parameter refinement over the
//!   *incomplete* rows (listwise deletion starves at high missing rates),
//! * [`infer`] — exact inference by variable elimination on factors built
//!   once per network,
//! * [`joint`] — the exact joint over independent per-cell pmfs on small
//!   domains (the possible-worlds oracle's weighting),
//! * [`discretize`] — equi-width/equi-depth binning of continuous columns
//!   (the paper's preprocessing for non-discrete attributes),
//! * [`model`] — the end-to-end step: dataset in, per-missing-cell
//!   conditional [`Pmf`]s out, and
//! * [`synthetic`] — a hand-built Adult-like 9-node network standing in for
//!   the UCI-Adult-derived network behind the paper's Synthetic dataset.

pub mod anneal;
pub mod cpt;
pub mod discretize;
pub mod em;
pub mod graph;
pub mod infer;
pub mod joint;
pub mod learn;
pub mod model;
pub mod pmf;
pub mod synthetic;

pub use cpt::Cpt;
pub use graph::Dag;
pub use model::{MissingValueModel, ModelConfig, ModelStats, StructureSearch};
pub use pmf::Pmf;

use bc_data::{DataError, Dataset};
use rand::Rng;

/// A Bayesian network over the attributes of a dataset: a DAG plus one CPT
/// per node. Node `i` corresponds to attribute `i`.
#[derive(Clone, Debug)]
pub struct BayesianNetwork {
    dag: Dag,
    cpts: Vec<Cpt>,
    cards: Vec<usize>,
}

impl BayesianNetwork {
    /// Assembles a network from a DAG and one CPT per node (in node order).
    ///
    /// # Panics
    ///
    /// Panics if the CPTs do not match the DAG's parent sets.
    pub fn new(dag: Dag, cpts: Vec<Cpt>, cards: Vec<usize>) -> Self {
        assert_eq!(dag.n_nodes(), cpts.len());
        assert_eq!(dag.n_nodes(), cards.len());
        for (i, cpt) in cpts.iter().enumerate() {
            assert_eq!(cpt.node(), i, "CPT {i} is for the wrong node");
            assert_eq!(
                cpt.parents(),
                dag.parents(i),
                "CPT {i} disagrees with the DAG's parents"
            );
        }
        BayesianNetwork { dag, cpts, cards }
    }

    /// The network structure.
    #[inline]
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// The conditional probability tables, one per node.
    #[inline]
    pub fn cpts(&self) -> &[Cpt] {
        &self.cpts
    }

    /// Cardinality of each node's domain.
    #[inline]
    pub fn cards(&self) -> &[usize] {
        &self.cards
    }

    /// Number of nodes (attributes).
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.cards.len()
    }

    /// Draws one complete row by ancestral sampling.
    pub fn sample_row(&self, rng: &mut impl Rng) -> Vec<u16> {
        let order = self.dag.topological_order();
        let mut row = vec![0u16; self.n_nodes()];
        for &node in &order {
            let parent_vals: Vec<u16> = self.dag.parents(node).iter().map(|&p| row[p]).collect();
            row[node] = self.cpts[node].pmf(&parent_vals).sample(rng);
        }
        row
    }

    /// Samples a complete [`Dataset`] of `n` rows (attribute names `a1..ad`).
    pub fn sample_dataset(
        &self,
        name: &str,
        n: usize,
        rng: &mut impl Rng,
    ) -> Result<Dataset, DataError> {
        let domains = self
            .cards
            .iter()
            .enumerate()
            .map(|(i, &c)| bc_data::Domain::new(format!("a{}", i + 1), c as u16))
            .collect::<Result<Vec<_>, _>>()?;
        let rows = (0..n).map(|_| self.sample_row(rng)).collect();
        Dataset::from_complete_rows(name, domains, rows)
    }

    /// Exact posterior marginal `P(target | evidence)` by variable
    /// elimination. `evidence` maps node index to observed value. Builds an
    /// [`infer::Engine`] for the one query; many queries should share one.
    pub fn posterior(&self, target: usize, evidence: &[(usize, u16)]) -> Pmf {
        infer::Engine::new(self).posterior(target, evidence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sample_dataset_has_right_shape() {
        let bn = synthetic::adult_like();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let ds = bn.sample_dataset("syn", 100, &mut rng).unwrap();
        assert_eq!(ds.n_objects(), 100);
        assert_eq!(ds.n_attrs(), bn.n_nodes());
        assert!(ds.is_complete());
    }
}
