//! Exact inference by variable elimination.
//!
//! An [`Engine`] turns every CPT into a factor once; a query then restricts
//! those factors to its evidence, eliminates the hidden variables and
//! multiplies what is left. Queries that share evidence (the missing cells
//! of one object) share the restriction too.
//!
//! The kernels below visit table indices in row-major order and the
//! elimination keeps a fixed factor-list order, so every multiply and add of
//! a query happens in one fixed sequence: a posterior is the same bits on
//! every run, and changing an index order or the elimination order is a
//! visible change (the bit-identity hash test pins it).

use std::borrow::Cow;

use crate::pmf::Pmf;
use crate::BayesianNetwork;

/// A factor over a sorted set of variables (attribute node indices), with a
/// dense value table indexed mixed-radix (first variable most significant).
#[derive(Clone, Debug)]
struct Factor {
    vars: Vec<usize>,
    cards: Vec<usize>,
    values: Vec<f64>,
}

/// Steps a row-major odometer over `cards` to the next index and moves each
/// cursor in `at` along: `steps[d * at.len() + j]` is cursor `j`'s stride
/// in dimension `d` (0 where its table lacks the dimension). Returns
/// `false` after the last index.
fn advance(digits: &mut [usize], cards: &[usize], steps: &[usize], at: &mut [usize]) -> bool {
    let k = at.len();
    for d in (0..digits.len()).rev() {
        let step = &steps[d * k..(d + 1) * k];
        digits[d] += 1;
        if digits[d] < cards[d] {
            for (a, s) in at.iter_mut().zip(step) {
                *a += s;
            }
            return true;
        }
        digits[d] = 0;
        for (a, s) in at.iter_mut().zip(step) {
            *a -= s * (cards[d] - 1);
        }
    }
    false
}

impl Factor {
    /// Builds the factor for one CPT: variables = parents ∪ {node}.
    fn from_cpt(cpt: &crate::Cpt, node_card: usize) -> Factor {
        let mut vars: Vec<usize> = cpt.parents().to_vec();
        vars.push(cpt.node());
        let mut cards: Vec<usize> = cpt.parent_cards().to_vec();
        cards.push(node_card);
        // Sort vars (and cards alongside) to keep the canonical order.
        let mut order: Vec<usize> = (0..vars.len()).collect();
        order.sort_by_key(|&i| vars[i]);
        let sorted_vars: Vec<usize> = order.iter().map(|&i| vars[i]).collect();
        let sorted_cards: Vec<usize> = order.iter().map(|&i| cards[i]).collect();

        let mut f = Factor {
            vars: sorted_vars,
            cards: sorted_cards,
            values: vec![0.0; cards.iter().product()],
        };
        // Enumerate parent configs × node values and scatter into f.
        let n_parents = cpt.parents().len();
        let mut assignment = vec![0u16; n_parents + 1];
        for config in 0..cpt.n_configs() {
            let parent_vals = cpt.decode_config(config);
            assignment[..n_parents].copy_from_slice(&parent_vals);
            let pmf = cpt.pmf_at(config);
            for v in 0..node_card as u16 {
                assignment[n_parents] = v;
                // Map the (parents..., node) assignment into f's sorted order.
                let mut idx = 0usize;
                for (slot, &orig) in order.iter().enumerate() {
                    idx = idx * f.cards[slot] + assignment[orig] as usize;
                }
                f.values[idx] = pmf.p(v);
            }
        }
        f
    }

    fn has(&self, var: usize) -> bool {
        self.vars.binary_search(&var).is_ok()
    }

    /// Fixes every variable `v` with `evidence[v] = Some(val)`, dropping it,
    /// in one copying pass.
    fn restrict(&self, evidence: &[Option<u16>]) -> Factor {
        let (mut vars, mut cards, mut steps) = (Vec::new(), Vec::new(), Vec::new());
        let (mut base, mut stride) = (0, 1);
        for (&v, &card) in self.vars.iter().zip(&self.cards).rev() {
            match evidence[v] {
                Some(val) => base += val as usize * stride,
                None => {
                    vars.push(v);
                    cards.push(card);
                    steps.push(stride);
                }
            }
            stride *= card;
        }
        vars.reverse();
        cards.reverse();
        steps.reverse();
        let mut values = Vec::with_capacity(cards.iter().product());
        let mut digits = vec![0; cards.len()];
        let mut at = [base];
        loop {
            values.push(self.values[at[0]]);
            if !advance(&mut digits, &cards, &steps, &mut at) {
                break;
            }
        }
        Factor {
            vars,
            cards,
            values,
        }
    }
}

/// Multiplies `factors` and sums `var` out of the product, in one pass over
/// the union of their variables in row-major order. Each product entry is
/// `((f₀ · f₁) · f₂) · …` in list order, and each output cell accumulates
/// from `0.0` in ascending order of `var`'s value: the operations, and so
/// the bits, of multiplying the factors pairwise into full tables first and
/// summing afterwards.
fn sum_product(factors: &[Cow<Factor>], var: usize) -> Factor {
    let mut vars: Vec<usize> = factors
        .iter()
        .flat_map(|f| f.vars.iter().copied())
        .collect();
    vars.sort_unstable();
    vars.dedup();
    // One cursor per factor, plus one into the output.
    let k = factors.len() + 1;
    let mut cards = vec![0; vars.len()];
    let mut steps = vec![0; vars.len() * k];
    for (j, f) in factors.iter().enumerate() {
        let mut stride = 1;
        for (&v, &card) in f.vars.iter().zip(&f.cards).rev() {
            let d = vars.binary_search(&v).expect("variable of the union");
            cards[d] = card;
            steps[d * k + j] = stride;
            stride *= card;
        }
    }
    let eliminated = vars.binary_search(&var).expect("summed variable");
    let mut size = 1;
    for d in (0..vars.len()).rev().filter(|&d| d != eliminated) {
        steps[d * k + k - 1] = size;
        size *= cards[d];
    }
    let mut values = vec![0.0; size];
    let mut digits = vec![0; vars.len()];
    let mut at = vec![0; k];
    loop {
        let x = factors
            .iter()
            .zip(&at)
            .map(|(f, &i)| f.values[i])
            .reduce(|acc, x| acc * x)
            .expect("at least one factor");
        values[at[k - 1]] += x;
        if !advance(&mut digits, &cards, &steps, &mut at) {
            break;
        }
    }
    vars.remove(eliminated);
    cards.remove(eliminated);
    Factor {
        vars,
        cards,
        values,
    }
}

/// Exact inference over one network. Building it turns every CPT into a
/// factor once, so a batch of queries pays that cost once.
#[derive(Clone, Debug)]
pub struct Engine {
    cards: Vec<usize>,
    factors: Vec<Factor>,
}

/// An engine's factors restricted to one evidence assignment, ready to
/// answer a posterior for any unobserved target.
pub(crate) struct Restricted<'e> {
    evidence: &'e [Option<u16>],
    cards: &'e [usize],
    factors: Vec<Factor>,
}

impl Engine {
    /// Builds the factors of `bn`.
    pub fn new(bn: &BayesianNetwork) -> Engine {
        Engine {
            cards: bn.cards().to_vec(),
            factors: bn
                .cpts()
                .iter()
                .map(|cpt| Factor::from_cpt(cpt, bn.cards()[cpt.node()]))
                .collect(),
        }
    }

    /// Exact posterior marginal `P(target | evidence)`.
    ///
    /// Evidence entries for `target` itself are ignored; when a node
    /// appears twice its last entry wins. If the evidence has zero
    /// probability under the network (possible after aggressive
    /// Laplace-free fitting), the uniform distribution is returned as a
    /// safe fallback.
    pub fn posterior(&self, target: usize, evidence: &[(usize, u16)]) -> Pmf {
        assert!(target < self.cards.len(), "target node out of range");
        let mut row = vec![None; self.cards.len()];
        for &(node, val) in evidence {
            row[node] = Some(val);
        }
        row[target] = None;
        self.restrict(&row).posterior(target)
    }

    /// Restricts every factor to the observed entries of `evidence` (one
    /// entry per node, `None` = unobserved).
    pub(crate) fn restrict<'e>(&'e self, evidence: &'e [Option<u16>]) -> Restricted<'e> {
        assert_eq!(
            evidence.len(),
            self.cards.len(),
            "one evidence slot per node"
        );
        Restricted {
            evidence,
            cards: &self.cards,
            factors: self.factors.iter().map(|f| f.restrict(evidence)).collect(),
        }
    }
}

impl Restricted<'_> {
    /// `P(target | evidence)` for an unobserved `target`.
    pub(crate) fn posterior(&self, target: usize) -> Pmf {
        assert!(self.evidence[target].is_none(), "target is observed");
        let n = self.cards.len();
        let mut factors: Vec<Cow<Factor>> = self.factors.iter().map(Cow::Borrowed).collect();

        // Eliminate hidden variables, smallest-resulting-factor first (the
        // first minimum in `hidden`'s order wins a tie).
        let mut hidden: Vec<usize> = (0..n)
            .filter(|&v| v != target && self.evidence[v].is_none())
            .collect();
        let mut seen = vec![0u64; n.div_ceil(64)];
        while !hidden.is_empty() {
            let mut best = (0, usize::MAX);
            for (i, &v) in hidden.iter().enumerate() {
                seen.fill(0);
                let mut size = 1usize;
                for f in factors.iter().filter(|f| f.has(v)) {
                    for (&fv, &card) in f.vars.iter().zip(&f.cards) {
                        let bit = 1 << (fv % 64);
                        if fv != v && seen[fv / 64] & bit == 0 {
                            seen[fv / 64] |= bit;
                            size = size.saturating_mul(card);
                        }
                    }
                }
                if size < best.1 {
                    best = (i, size);
                }
            }
            let v = hidden.swap_remove(best.0);

            let (touching, rest): (Vec<_>, Vec<_>) = factors.into_iter().partition(|f| f.has(v));
            factors = rest;
            if !touching.is_empty() {
                factors.push(Cow::Owned(sum_product(&touching, v)));
            }
        }

        // What is left is over {target} or empty: multiply it in list order.
        let card = self.cards[target];
        let mut weights = vec![1.0; card];
        for f in &factors {
            debug_assert!(f.vars.is_empty() || f.vars == [target]);
            for (t, w) in weights.iter_mut().enumerate() {
                *w *= f.values[if f.vars.is_empty() { 0 } else { t }];
            }
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 || !total.is_finite() {
            Pmf::uniform(card)
        } else {
            Pmf::from_weights(weights)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cpt, Dag};

    fn posterior(bn: &BayesianNetwork, target: usize, evidence: &[(usize, u16)]) -> Pmf {
        Engine::new(bn).posterior(target, evidence)
    }

    /// Classic two-node chain: X0 -> X1.
    fn chain() -> BayesianNetwork {
        let dag = Dag::from_edges(2, &[(0, 1)]);
        let c0 = Cpt::new(0, vec![], vec![], vec![Pmf::from_weights(vec![0.6, 0.4])]);
        let c1 = Cpt::new(
            1,
            vec![0],
            vec![2],
            vec![
                Pmf::from_weights(vec![0.9, 0.1]),
                Pmf::from_weights(vec![0.2, 0.8]),
            ],
        );
        BayesianNetwork::new(dag, vec![c0, c1], vec![2, 2])
    }

    #[test]
    fn prior_marginal_of_child() {
        let bn = chain();
        let p1 = posterior(&bn, 1, &[]);
        // P(X1=0) = .6*.9 + .4*.2 = .62
        assert!((p1.p(0) - 0.62).abs() < 1e-12);
    }

    #[test]
    fn bayes_rule_inversion() {
        let bn = chain();
        let p0 = posterior(&bn, 0, &[(1, 0)]);
        // P(X0=0 | X1=0) = .54/.62
        assert!((p0.p(0) - 0.54 / 0.62).abs() < 1e-12);
    }

    #[test]
    fn evidence_on_target_is_ignored() {
        let bn = chain();
        let p = posterior(&bn, 0, &[(0, 1)]);
        assert!((p.p(0) - 0.6).abs() < 1e-12);
    }

    /// V-structure: X0 -> X2 <- X1 (explaining away).
    fn v_structure() -> BayesianNetwork {
        let dag = Dag::from_edges(3, &[(0, 2), (1, 2)]);
        let c0 = Cpt::new(0, vec![], vec![], vec![Pmf::from_weights(vec![0.5, 0.5])]);
        let c1 = Cpt::new(1, vec![], vec![], vec![Pmf::from_weights(vec![0.5, 0.5])]);
        // X2 = OR-ish of parents.
        let c2 = Cpt::new(
            2,
            vec![0, 1],
            vec![2, 2],
            vec![
                Pmf::from_weights(vec![0.99, 0.01]),
                Pmf::from_weights(vec![0.1, 0.9]),
                Pmf::from_weights(vec![0.1, 0.9]),
                Pmf::from_weights(vec![0.01, 0.99]),
            ],
        );
        BayesianNetwork::new(dag, vec![c0, c1, c2], vec![2, 2, 2])
    }

    #[test]
    fn explaining_away() {
        let bn = v_structure();
        // Observing the effect raises belief in each cause...
        let p_cause = posterior(&bn, 0, &[(2, 1)]);
        assert!(p_cause.p(1) > 0.5);
        // ...but also observing the other cause lowers it again.
        let p_explained = posterior(&bn, 0, &[(2, 1), (1, 1)]);
        assert!(p_explained.p(1) < p_cause.p(1));
    }

    #[test]
    fn marginal_independence_in_v_structure() {
        let bn = v_structure();
        // Without evidence on the collider, causes stay independent/uniform.
        let p = posterior(&bn, 0, &[(1, 1)]);
        assert!((p.p(0) - 0.5).abs() < 1e-12);
    }

    /// With every other node observed nothing is eliminated, and the
    /// weights are the CPT entries of each node multiplied left to right in
    /// node order, starting from 1.0.
    #[test]
    fn no_hidden_variable_query_is_the_cpt_fold() {
        let bn = crate::synthetic::adult_like();
        let row: Vec<u16> = (0..bn.n_nodes())
            .map(|v| (v as u16 * 3 + 1) % bn.cards()[v] as u16)
            .collect();
        for target in 0..bn.n_nodes() {
            let evidence: Vec<(usize, u16)> = row.iter().copied().enumerate().collect();
            let mut weights = vec![1.0; bn.cards()[target]];
            for (t, w) in weights.iter_mut().enumerate() {
                let mut full = row.clone();
                full[target] = t as u16;
                for cpt in bn.cpts() {
                    let parents: Vec<u16> = cpt.parents().iter().map(|&q| full[q]).collect();
                    *w *= cpt.pmf(&parents).p(full[cpt.node()]);
                }
            }
            let got = posterior(&bn, target, &evidence);
            let want = Pmf::from_weights(weights);
            let bits = |p: &Pmf| p.probs().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "target {target}");
        }
    }

    /// One hidden variable `X1` in `X0 -> X1 -> {X2, X3}`: its touching
    /// factors multiply in CPT order, the sum over `X1` runs from `0.0` in
    /// ascending value order, and the untouched `P(X0)` comes first in the
    /// final fold.
    #[test]
    fn one_hidden_variable_query_has_a_fixed_operation_order() {
        let pmf =
            |i: usize| Pmf::from_weights(vec![0.3 + 0.1 * i as f64, 0.7, 0.45 / (i + 1) as f64]);
        let dag = Dag::from_edges(4, &[(0, 1), (1, 2), (1, 3)]);
        let cpts = vec![
            Cpt::new(0, vec![], vec![], vec![pmf(0)]),
            Cpt::new(1, vec![0], vec![3], (1..4).map(pmf).collect()),
            Cpt::new(2, vec![1], vec![3], (4..7).map(pmf).collect()),
            Cpt::new(3, vec![1], vec![3], (7..10).map(pmf).collect()),
        ];
        let bn = BayesianNetwork::new(dag, cpts.clone(), vec![3; 4]);
        let bits = |p: &Pmf| p.probs().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (a, b) in [(0, 0), (0, 2), (1, 2), (2, 1)] {
            let weights = (0..3)
                .map(|t| {
                    let mut s = 0.0;
                    for x1 in 0..3 {
                        s += cpts[1].pmf(&[t]).p(x1)
                            * cpts[2].pmf(&[x1]).p(a)
                            * cpts[3].pmf(&[x1]).p(b);
                    }
                    1.0 * cpts[0].pmf(&[]).p(t) * s
                })
                .collect();
            let got = posterior(&bn, 0, &[(2, a), (3, b)]);
            assert_eq!(
                bits(&got),
                bits(&Pmf::from_weights(weights)),
                "X2={a} X3={b}"
            );
        }
    }

    /// Restricting once and querying each unobserved node gives the same
    /// bits as one full query per node.
    #[test]
    fn shared_restriction_matches_single_queries() {
        let bn = crate::synthetic::adult_like();
        let engine = Engine::new(&bn);
        let row: Vec<Option<u16>> = (0..bn.n_nodes())
            .map(|v| (v % 3 != 0).then_some((v as u16 * 5) % bn.cards()[v] as u16))
            .collect();
        let evidence: Vec<(usize, u16)> = row
            .iter()
            .enumerate()
            .filter_map(|(v, x)| x.map(|x| (v, x)))
            .collect();
        let shared = engine.restrict(&row);
        for target in (0..bn.n_nodes()).filter(|&v| row[v].is_none()) {
            assert_eq!(
                shared.posterior(target),
                engine.posterior(target, &evidence)
            );
        }
    }
}
