//! Corrupted checkpoints: truncations and single-bit flips of real
//! documents must make [`Session::resume`] fail with
//! [`RunError::Snapshot`], never panic and never resume.
//!
//! Two documents are mangled: the checkpoint of a 500-object NBA-like
//! campaign after its first round, and the checkpoint the CLI's sample
//! files produce after round 2. Each is cut at every line boundary and at
//! 200 seeded random offsets, and has 500 seeded single bits flipped.

use bayescrowd::prelude::*;
use bayescrowd::{BayesCrowd, Session};
use bc_crowd::{CrowdPlatform, FaultConfig, FaultyPlatform, GroundTruthOracle, SimulatedPlatform};
use bc_data::Dataset;
use bc_snapshot::Snapshot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

const RANDOM_CUTS: usize = 200;
const BIT_FLIPS: usize = 500;

/// Builds identical crowds for a campaign, one per resume attempt.
type Crowds = Box<dyn Fn() -> Box<dyn CrowdPlatform>>;

/// The checkpoint `session` writes after round `rounds`.
fn checkpoint_after(mut session: Session<'_>, rounds: usize) -> Vec<u8> {
    for round in 1..=rounds {
        assert!(
            session.step().expect("step"),
            "the run ended before round {round}"
        );
    }
    let mut doc = Vec::new();
    session.checkpoint(&mut doc).expect("checkpoint");
    doc
}

fn nba_document() -> (Vec<u8>, Crowds) {
    let complete = bc_data::generators::nba::nba_like(500, 21);
    let (incomplete, _) = bc_data::missing::inject_mcar(&complete, 0.1, 22);
    let engine = BayesCrowd::new(BayesCrowdConfig {
        budget: 50,
        latency: 5,
        alpha: 0.01,
        strategy: TaskStrategy::Hhs { m: 15 },
        ..Default::default()
    });
    let mk = move || -> Box<dyn CrowdPlatform> {
        Box::new(SimulatedPlatform::new(
            GroundTruthOracle::new(complete.clone()),
            0.95,
            23,
        ))
    };
    let mut platform = mk();
    let session = engine
        .session(&incomplete, platform.as_mut())
        .expect("starts");
    (checkpoint_after(session, 1), Box::new(mk))
}

/// The CLI's sample campaign (`tests/cli.rs`, the CI resume job): budget
/// 12, latency 6, α = 1, 20% expiry, three attempts, seed 9.
fn cli_document() -> (Vec<u8>, Crowds) {
    let header = "a1:10,a2:10,a3:8,a4:6,a5:10\n";
    let parse = |name, rows| -> Dataset {
        bc_data::csv::parse_csv(name, &format!("{header}{rows}")).expect("sample parses")
    };
    let incomplete = parse(
        "inc",
        "5,2,3,4,1\n6,?,2,2,2\n1,1,?,5,3\n4,3,1,2,1\n5,?,?,?,1\n",
    );
    let complete = parse(
        "com",
        "5,2,3,4,1\n6,4,2,2,2\n1,1,4,5,3\n4,3,1,2,1\n5,4,3,2,1\n",
    );
    let engine = BayesCrowd::new(BayesCrowdConfig {
        budget: 12,
        latency: 6,
        alpha: 1.0,
        retry: RetryPolicy {
            max_attempts: 3,
            ..Default::default()
        },
        ..Default::default()
    });
    let mk = move || -> Box<dyn CrowdPlatform> {
        let sim = SimulatedPlatform::new(GroundTruthOracle::new(complete.clone()), 1.0, 9);
        let faults = FaultConfig {
            expiry_prob: 0.2,
            ..Default::default()
        };
        Box::new(FaultyPlatform::new(sim, faults, 9 ^ 0x5eed))
    };
    let mut platform = mk();
    let session = engine
        .session(&incomplete, platform.as_mut())
        .expect("starts");
    (checkpoint_after(session, 2), Box::new(mk))
}

/// Resuming `doc` must fail with a snapshot error, and parsing it must
/// fail too, so no prefix of it is ever handed out.
fn assert_rejected(doc: &[u8], mk: &dyn Fn() -> Box<dyn CrowdPlatform>, what: &str) {
    let mut platform = mk();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        Session::resume(doc, platform.as_mut()).map(|_| ())
    }));
    match outcome {
        Ok(Err(RunError::Snapshot(_))) => {}
        Ok(Err(e)) => panic!("{what}: resume failed with a non-snapshot error: {e}"),
        Ok(Ok(())) => panic!("{what}: a corrupted checkpoint resumed"),
        Err(_) => panic!("{what}: resume panicked"),
    }
    if let Ok(text) = std::str::from_utf8(doc) {
        let parsed = Snapshot::parse_with_prefix(text, &["config", "dataset", "model"]);
        assert!(parsed.is_err(), "{what}: the document still parses");
    }
}

fn fuzz(doc: &[u8], mk: &dyn Fn() -> Box<dyn CrowdPlatform>, name: &str, seed: u64) {
    let mut platform = mk();
    Session::resume(doc, platform.as_mut()).expect("the intact document resumes");

    let line_ends = doc.iter().enumerate().filter(|(_, &b)| b == b'\n');
    for cut in std::iter::once(0).chain(line_ends.map(|(i, _)| i + 1)) {
        if cut < doc.len() {
            assert_rejected(
                &doc[..cut],
                mk,
                &format!("{name} cut at line boundary {cut}"),
            );
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..RANDOM_CUTS {
        let cut = rng.gen_range(0..doc.len());
        assert_rejected(&doc[..cut], mk, &format!("{name} cut at byte {cut}"));
    }
    let mut flipped = doc.to_vec();
    for _ in 0..BIT_FLIPS {
        let (at, bit): (usize, u8) = (rng.gen_range(0..doc.len()), rng.gen_range(0..8));
        flipped[at] ^= 1 << bit;
        assert_rejected(
            &flipped,
            mk,
            &format!("{name} with bit {bit} of byte {at} flipped"),
        );
        flipped[at] ^= 1 << bit;
    }
}

#[test]
fn corrupted_nba_checkpoints_are_rejected() {
    let (doc, mk) = nba_document();
    assert!(doc.len() > 100_000, "a real-sized document");
    fuzz(&doc, mk.as_ref(), "nba", 0x5eed_0001);
}

#[test]
fn corrupted_cli_checkpoints_are_rejected() {
    let (doc, mk) = cli_document();
    fuzz(&doc, mk.as_ref(), "cli", 0x5eed_0002);
}
