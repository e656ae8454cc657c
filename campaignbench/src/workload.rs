//! The benchmark's workloads: which table, which configuration, and how a
//! workload seed expands into the block of instances one run measures.
//!
//! One instance's cost depends heavily on its data (an HHS campaign on the
//! same NBA-like shape can take 5× longer on one seed than on the next), so
//! a run never measures a single seed: it measures a block of instances
//! whose seeds all derive from the workload seed.

use bayescrowd::{BayesCrowdConfig, SolverKind, TaskStrategy};
use bc_bayes::synthetic::adult_like;
use bc_crowd::{GroundTruthOracle, SimulatedPlatform};
use bc_data::generators::nba::nba_like;
use bc_data::missing::inject_mcar;
use bc_data::{Dataset, ObjectId};
use rand::SeedableRng;

/// Crowd budget `B` of every workload (the paper's NBA setting).
pub const BUDGET: usize = 50;
/// Accuracy of each simulated worker.
pub const WORKER_ACCURACY: f64 = 0.95;
/// Share of cells deleted at random (MCAR) from the complete table.
pub const MISSING_RATE: f64 = 0.10;

/// Where an instance's complete table comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Table {
    /// The correlated 11-attribute NBA-like generator.
    Nba,
    /// Samples of the 9-attribute Adult-like Bayesian network.
    Synthetic,
}

/// A named workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists, in one sentence.
    pub why: &'static str,
    /// The table generator.
    pub table: Table,
    /// Objects per instance.
    pub n: usize,
    /// Latency constraint `L` (rounds).
    pub latency: usize,
    /// C-table pruning threshold `α`.
    pub alpha: f64,
    /// Task-selection strategy.
    pub strategy: TaskStrategy,
    /// Checkpoint the session after every round, drop it, and resume it
    /// against a freshly built platform.
    pub resume: bool,
    /// Instances in one pass of the untraced run.
    pub block: usize,
    /// Instances the traced run covers: the first ones of the block.
    pub traced: usize,
    /// Instances whose peak memory the untraced run probes: the first
    /// ones of the block.
    pub probed: usize,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "nba-hhs",
        why: "HHS on NBA-like tables: task selection and its two utility solves per candidate dominate, so utility and cross-call solver caching show here.",
        table: Table::Nba,
        n: 500,
        latency: 5,
        alpha: 0.01,
        strategy: TaskStrategy::Hhs { m: 15 },
        resume: false,
        block: 500,
        traced: 100,
        probed: 50,
    },
    Workload {
        name: "syn-fbs",
        why: "FBS on large Synthetic tables: BN learning, c-table build, batch ADPLL and propagation carry the time and the utility layer is bypassed.",
        table: Table::Synthetic,
        n: 32_000,
        latency: 10,
        alpha: 0.001,
        strategy: TaskStrategy::Fbs,
        resume: false,
        block: 20,
        traced: 8,
        probed: 4,
    },
    Workload {
        name: "nba-resume",
        why: "HHS on NBA-like tables with a checkpoint, drop and resume after every round: snapshot encode and parse sit beside selection.",
        table: Table::Nba,
        n: 500,
        latency: 5,
        alpha: 0.01,
        strategy: TaskStrategy::Hhs { m: 15 },
        resume: true,
        block: 240,
        traced: 80,
        probed: 24,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One generated input: the hidden complete table, what the program sees,
/// and the complete-data skyline the answers are scored against.
#[derive(Clone, Debug)]
pub struct Instance {
    /// The complete table (the simulated crowd's ground truth).
    pub complete: Dataset,
    /// The table handed to BayesCrowd.
    pub incomplete: Dataset,
    /// Seed of the simulated crowd's answers.
    pub platform_seed: u64,
    /// Skyline of the complete table.
    pub truth: Vec<ObjectId>,
}

/// Distance between the first instance seeds of two consecutive workload
/// seeds; blocks never overlap while they hold fewer instances than this.
const SEED_STRIDE: u64 = 1 << 20;

impl Workload {
    /// The configuration every campaign of this workload runs with:
    /// sequential ADPLL, default retry policy and ranking.
    pub fn config(&self) -> BayesCrowdConfig {
        BayesCrowdConfig {
            budget: BUDGET,
            latency: self.latency,
            alpha: self.alpha,
            strategy: self.strategy,
            solver: SolverKind::Adpll,
            parallel: false,
            ..Default::default()
        }
    }

    /// Instance `i` of the block of workload seed `seed`.
    pub fn instance(&self, seed: u64, i: usize) -> Instance {
        let base = seed.wrapping_mul(SEED_STRIDE).wrapping_add(i as u64);
        let complete = match self.table {
            Table::Nba => nba_like(self.n, base),
            Table::Synthetic => {
                let mut rng = rand::rngs::StdRng::seed_from_u64(base);
                adult_like()
                    .sample_dataset("Synthetic", self.n, &mut rng)
                    .expect("sampling a valid network always succeeds")
            }
        };
        let (incomplete, _) = inject_mcar(&complete, MISSING_RATE, base ^ 0x9e37_79b9_7f4a_7c15);
        // Block-nested-loop, not the sort-filter skyline the program scores
        // itself with, so the accuracy check compares two algorithms.
        let truth =
            bc_data::skyline::skyline_bnl(&complete).expect("generated tables are complete");
        Instance {
            complete,
            incomplete,
            platform_seed: base ^ 0xc2b2_ae3d_27d4_eb4f,
            truth,
        }
    }

    /// A fresh simulated crowd for `inst`; every call builds an identical
    /// platform.
    pub fn platform(&self, inst: &Instance) -> SimulatedPlatform {
        SimulatedPlatform::new(
            GroundTruthOracle::new(inst.complete.clone()),
            WORKER_ACCURACY,
            inst.platform_seed,
        )
    }

    /// The same workload on smaller instances and blocks, for the
    /// benchmark's own tests.
    #[cfg(test)]
    pub fn scaled(&self, n: usize, block: usize) -> Workload {
        Workload {
            n,
            block,
            traced: block,
            probed: block,
            ..self.clone()
        }
    }
}
