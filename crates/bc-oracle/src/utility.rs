//! The marginal utility `G(o, e)` (Definition 6) from possible worlds.
//!
//! `G(o, e) = H(o) − E[H(o | e)]` needs `Pr(φ)`, `Pr(e)`, `Pr(φ ∧ e)` and
//! `Pr(φ ∧ ¬e)`. The oracle tallies all four (and `Pr(¬e)`) directly over
//! the enumerated worlds, so it shares neither the solver nor the identity
//! `Pr(φ ∧ ¬e) = Pr(φ) − Pr(φ ∧ e)` that task selection relies on.

use crate::worlds::PossibleWorlds;
use crate::OracleError;
use bc_bayes::pmf::binary_entropy;
use bc_bayes::Pmf;
use bc_ctable::{CTable, Expr};
use bc_data::{Dataset, ObjectId, VarId};
use std::collections::{BTreeMap, BTreeSet};

/// World weights behind one `(object, expression)` pair.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    e: f64,
    not_e: f64,
    phi_and_e: f64,
    phi_and_not_e: f64,
}

/// The exact `G(o, e)` of every open object `o` of `ctable` and every
/// distinct expression `e` of its condition, from one pass over the worlds.
/// An expression that holds (or fails) with probability within
/// `f64::EPSILON` of certainty has utility zero, as in task selection.
pub fn exact_utilities(
    worlds: &PossibleWorlds,
    data: &Dataset,
    pmfs: &BTreeMap<VarId, Pmf>,
    ctable: &CTable,
) -> Result<BTreeMap<(ObjectId, Expr), f64>, OracleError> {
    let mut tallies: Vec<(ObjectId, Expr, Tally)> = Vec::new();
    for o in ctable.open_objects() {
        let exprs: BTreeSet<Expr> = ctable.condition(o).exprs().copied().collect();
        tallies.extend(exprs.into_iter().map(|e| (o, e, Tally::default())));
    }
    let mut phi = vec![0.0; data.n_objects()];
    worlds.for_each_world(data, pmfs, |world, weight| {
        let lookup = |v: VarId| world.get(v.object, v.attr).expect("world is complete");
        let holds = ctable.eval_world(lookup);
        for (i, &h) in holds.iter().enumerate() {
            if h {
                phi[i] += weight;
            }
        }
        for (o, e, t) in &mut tallies {
            let phi_holds = holds[o.index()];
            if e.eval(lookup) {
                t.e += weight;
                if phi_holds {
                    t.phi_and_e += weight;
                }
            } else {
                t.not_e += weight;
                if phi_holds {
                    t.phi_and_not_e += weight;
                }
            }
        }
        Ok(())
    })?;
    Ok(tallies
        .into_iter()
        .map(|(o, e, t)| {
            let g = if t.e <= f64::EPSILON || t.not_e <= f64::EPSILON {
                0.0
            } else {
                let h = |p: f64| binary_entropy(p.clamp(0.0, 1.0));
                let expected = t.e * h(t.phi_and_e / t.e) + t.not_e * h(t.phi_and_not_e / t.not_e);
                (h(phi[o.index()]) - expected).max(0.0)
            };
            ((o, e), g)
        })
        .collect())
}
