//! Property tests for the Bayesian-network substrate: variable elimination
//! against brute-force enumeration of the joint distribution, and the exact
//! bits of the per-cell pmfs the modeling step learns.

use bc_bayes::{BayesianNetwork, Cpt, Dag, MissingValueModel, ModelConfig, Pmf};
use proptest::prelude::*;
use rand::SeedableRng;

/// Builds a random network over `n` nodes with random-ish CPTs. Structure:
/// each node may take one or two of the previous nodes as parents, so the
/// graph is a DAG by construction.
fn random_network(
    n: usize,
    card: usize,
    parent_choices: &[u8],
    weights: &[f64],
) -> BayesianNetwork {
    let mut dag = Dag::empty(n);
    for child in 1..n {
        let code = parent_choices[child % parent_choices.len()];
        if !code.is_multiple_of(3) {
            dag.try_add_edge((child - 1) % child.max(1), child);
        }
        if code % 3 == 2 && child >= 2 {
            dag.try_add_edge(child - 2, child);
        }
    }
    let mut widx = 0usize;
    let mut next_weight = || {
        let w = weights[widx % weights.len()];
        widx += 1;
        0.05 + w
    };
    let cpts = (0..n)
        .map(|node| {
            let parents = dag.parents(node).to_vec();
            let parent_cards = vec![card; parents.len()];
            let configs: usize = parent_cards.iter().product::<usize>().max(1);
            let table = (0..configs)
                .map(|_| Pmf::from_weights((0..card).map(|_| next_weight()).collect()))
                .collect();
            Cpt::new(node, parents, parent_cards, table)
        })
        .collect();
    BayesianNetwork::new(dag, cpts, vec![card; n])
}

/// Joint probability of a complete assignment.
fn joint(bn: &BayesianNetwork, assignment: &[u16]) -> f64 {
    let mut p = 1.0;
    for node in 0..bn.n_nodes() {
        let parents = bn.dag().parents(node);
        let parent_vals: Vec<u16> = parents.iter().map(|&q| assignment[q]).collect();
        p *= bn.cpts()[node].pmf(&parent_vals).p(assignment[node]);
    }
    p
}

/// Brute-force posterior by enumerating the joint.
fn posterior_by_enumeration(bn: &BayesianNetwork, target: usize, evidence: &[(usize, u16)]) -> Pmf {
    let n = bn.n_nodes();
    let card = bn.cards()[target];
    let mut weights = vec![0.0; card];
    let mut assignment = vec![0u16; n];
    loop {
        let consistent = evidence
            .iter()
            .all(|&(q, v)| q == target || assignment[q] == v);
        if consistent {
            weights[assignment[target] as usize] += joint(bn, &assignment);
        }
        // Odometer.
        let mut k = n;
        loop {
            if k == 0 {
                let total: f64 = weights.iter().sum();
                return if total > 0.0 {
                    Pmf::from_weights(weights)
                } else {
                    Pmf::uniform(card)
                };
            }
            k -= 1;
            assignment[k] += 1;
            if (assignment[k] as usize) < bn.cards()[k] {
                break;
            }
            assignment[k] = 0;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn variable_elimination_matches_enumeration(
        n in 2usize..6,
        card in 2usize..4,
        parent_choices in prop::collection::vec(0u8..6, 1..6),
        weights in prop::collection::vec(0.01f64..1.0, 8),
        target_raw in 0usize..6,
        ev_mask in 0u8..64,
        ev_vals in prop::collection::vec(0usize..4, 6),
    ) {
        let bn = random_network(n, card, &parent_choices, &weights);
        let target = target_raw % n;
        // A random subset of the other nodes is observed, so a query has
        // anywhere from zero to n - 1 hidden variables to eliminate.
        let evidence: Vec<(usize, u16)> = (0..n)
            .filter(|&v| v != target && ev_mask & (1 << v) != 0)
            .map(|v| (v, (ev_vals[v] % card) as u16))
            .collect();
        let ve = bn.posterior(target, &evidence);
        let brute = posterior_by_enumeration(&bn, target, &evidence);
        for v in 0..card as u16 {
            prop_assert!(
                (ve.p(v) - brute.p(v)).abs() < 1e-9,
                "P({target}={v}|{evidence:?}): VE {} vs enumeration {}",
                ve.p(v), brute.p(v)
            );
        }
    }

    #[test]
    fn posteriors_are_normalized(
        n in 2usize..6,
        card in 2usize..4,
        parent_choices in prop::collection::vec(0u8..6, 1..6),
        weights in prop::collection::vec(0.01f64..1.0, 8),
        target_raw in 0usize..6,
    ) {
        let bn = random_network(n, card, &parent_choices, &weights);
        let target = target_raw % n;
        let p = bn.posterior(target, &[]);
        let total: f64 = (0..card as u16).map(|v| p.p(v)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }
}

#[test]
fn sampling_agrees_with_marginals() {
    // Ancestral sampling's empirical marginals must converge to the exact
    // posterior marginals.
    let bn = random_network(4, 3, &[1, 2, 4], &[0.3, 0.9, 0.5, 0.2, 0.7]);
    let exact = bn.posterior(3, &[]);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let n = 60_000;
    let mut counts = [0usize; 3];
    for _ in 0..n {
        let row = bn.sample_row(&mut rng);
        counts[row[3] as usize] += 1;
    }
    for v in 0..3u16 {
        let emp = counts[v as usize] as f64 / n as f64;
        assert!(
            (emp - exact.p(v)).abs() < 0.01,
            "value {v}: empirical {emp} vs exact {}",
            exact.p(v)
        );
    }
}

/// FNV-1a over the model's pmfs, in variable order: each variable's ids,
/// then the `to_bits` of every probability.
fn pmf_hash(data: &bc_data::Dataset) -> (usize, u64) {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
    };
    let model = MissingValueModel::learn(data, &ModelConfig::default());
    for (var, pmf) in model.pmfs() {
        eat(var.object.0 as u64);
        eat(var.attr.0 as u64);
        for p in pmf.probs() {
            eat(p.to_bits());
        }
    }
    (model.pmfs().len(), h)
}

/// The bits of every learned pmf on two fixed tables (Synthetic 2,000 and
/// NBA-like 500 objects, 10% MCAR), pinned by hash. A change to a kernel's
/// index order, to the factor order or to the elimination order moves a
/// rounding somewhere and fails this test.
#[test]
fn learned_pmfs_are_bit_identical_to_recorded_hashes() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
    let synthetic = bc_bayes::synthetic::adult_like()
        .sample_dataset("Synthetic", 2_000, &mut rng)
        .unwrap();
    let (synthetic, _) = bc_data::missing::inject_mcar(&synthetic, 0.10, 7);
    let nba = bc_data::generators::nba::nba_like(500, 11);
    let (nba, _) = bc_data::missing::inject_mcar(&nba, 0.10, 13);
    assert_eq!(pmf_hash(&synthetic), (1800, 10431831237471734583));
    assert_eq!(pmf_hash(&nba), (550, 12937367371614010551));
}
