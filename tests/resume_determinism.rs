//! Kill-at-round-k checkpoint/resume determinism.
//!
//! The contract of [`Session::checkpoint`] / [`Session::resume`]: killing a
//! run after any round `k` and resuming from the checkpoint written there
//! must finish with a [`RunReport`] identical field-by-field (wall-clock
//! durations aside) to the uninterrupted run — same answer set, same
//! probabilities, same crowd accounting, same retry/fault bookkeeping.
//! Exercised under both the well-behaved [`SimulatedPlatform`] and the
//! fault-injecting [`FaultyPlatform`], whose RNG streams ride along in the
//! snapshot.

use bayescrowd::prelude::*;
use bayescrowd::{BayesCrowd, Session};
use bc_crowd::{CrowdPlatform, FaultConfig, FaultyPlatform, GroundTruthOracle, SimulatedPlatform};
use bc_data::generators::sample::{paper_completion, paper_dataset};
use bc_data::Dataset;
use bc_snapshot::Snapshot;
use proptest::prelude::*;

fn sample_config() -> BayesCrowdConfig {
    BayesCrowdConfig {
        budget: 20,
        latency: 10,
        alpha: 1.0,
        strategy: TaskStrategy::Hhs { m: 2 },
        ..Default::default()
    }
}

fn unwrap_report(r: Result<RunReport, RunError>) -> RunReport {
    match r {
        Ok(report) => report,
        // A fault storm that swallows every task still yields a report; the
        // resumed run must degrade identically.
        Err(RunError::PlatformExhausted { report }) => *report,
        Err(e) => panic!("run failed: {e}"),
    }
}

/// Runs a session to completion, writing a checkpoint after every round
/// (including one before any crowd work). Returns the final report and the
/// serialized checkpoints.
fn run_collecting_checkpoints(
    engine: &BayesCrowd,
    data: &Dataset,
    platform: &mut dyn CrowdPlatform,
) -> (RunReport, Vec<Vec<u8>>) {
    let mut session = engine.session(data, platform).expect("session starts");
    let mut snaps = Vec::new();
    let mut buf = Vec::new();
    session.checkpoint(&mut buf).expect("checkpoint");
    snaps.push(buf);
    while session.step().expect("step") {
        let mut buf = Vec::new();
        session.checkpoint(&mut buf).expect("checkpoint");
        snaps.push(buf);
    }
    (unwrap_report(session.finalize()), snaps)
}

/// Everything in the report except the wall-clock durations, which are the
/// one part of a run a crash genuinely changes.
fn assert_reports_match(clean: &RunReport, resumed: &RunReport, ctx: &str) {
    assert_eq!(clean.result, resumed.result, "{ctx}: result");
    assert_eq!(clean.certain, resumed.certain, "{ctx}: certain");
    assert_eq!(
        clean.open_probabilities, resumed.open_probabilities,
        "{ctx}: open_probabilities"
    );
    assert_eq!(clean.accuracy, resumed.accuracy, "{ctx}: accuracy");
    assert_eq!(clean.crowd, resumed.crowd, "{ctx}: crowd stats");
    assert_eq!(clean.budget_left, resumed.budget_left, "{ctx}: budget_left");
    assert_eq!(
        clean.probability_evals, resumed.probability_evals,
        "{ctx}: probability_evals"
    );
    assert_eq!(
        clean.open_exprs_left, resumed.open_exprs_left,
        "{ctx}: open_exprs_left"
    );
    assert_eq!(
        clean.tasks_expired, resumed.tasks_expired,
        "{ctx}: tasks_expired"
    );
    assert_eq!(
        clean.tasks_retried, resumed.tasks_retried,
        "{ctx}: tasks_retried"
    );
    assert_eq!(
        clean.rounds_stalled, resumed.rounds_stalled,
        "{ctx}: rounds_stalled"
    );
    assert_eq!(clean.degraded, resumed.degraded, "{ctx}: degraded");
}

/// "Kills" the run at every possible round k by discarding the live session
/// and resuming from the k-th checkpoint against a freshly constructed
/// platform, then checks the finished report against the clean one.
fn assert_all_resume_points_match(
    config: BayesCrowdConfig,
    data: &Dataset,
    mk_platform: impl Fn() -> Box<dyn CrowdPlatform>,
    ctx: &str,
) {
    let engine = BayesCrowd::new(config);
    let mut platform = mk_platform();
    let (clean, snaps) = run_collecting_checkpoints(&engine, data, platform.as_mut());
    assert!(snaps.len() >= 2, "{ctx}: run finished without any rounds");
    for (k, snap) in snaps.iter().enumerate() {
        let mut platform = mk_platform();
        let mut session =
            Session::resume(&snap[..], platform.as_mut()).expect("checkpoint resumes");
        while session.step().expect("resumed step") {}
        let resumed = unwrap_report(session.finalize());
        assert_reports_match(&clean, &resumed, &format!("{ctx}, resumed at round {k}"));
    }
}

#[test]
fn simulated_platform_resumes_identically_at_every_round() {
    let data = paper_dataset();
    for seed in [3, 7, 19] {
        let mk = move || -> Box<dyn CrowdPlatform> {
            let oracle = GroundTruthOracle::new(paper_completion());
            Box::new(SimulatedPlatform::new(oracle, 0.9, seed))
        };
        assert_all_resume_points_match(
            sample_config(),
            &data,
            mk,
            &format!("simulated seed {seed}"),
        );
    }
}

#[test]
fn faulty_platform_resumes_identically_at_every_round() {
    let data = paper_dataset();
    let faults = FaultConfig {
        expiry_prob: 0.25,
        spammer_rate: 0.2,
        straggler_prob: 0.2,
        duplicate_prob: 0.1,
        ..Default::default()
    };
    for seed in [1, 11] {
        let mk = move || -> Box<dyn CrowdPlatform> {
            let oracle = GroundTruthOracle::new(paper_completion());
            let sim = SimulatedPlatform::new(oracle, 0.85, seed);
            Box::new(FaultyPlatform::new(sim, faults, seed ^ 0x5eed))
        };
        let config = BayesCrowdConfig {
            retry: RetryPolicy {
                max_attempts: 3,
                escalate_workers: 1,
                backoff_base: 1,
            },
            ..sample_config()
        };
        assert_all_resume_points_match(config, &data, mk, &format!("faulty seed {seed}"));
    }
}

#[test]
fn resumed_trace_reconciles_with_the_clean_run() {
    // The resumed run's event stream must pick up where the checkpoint left
    // off: a Resumed event carrying the checkpointed round, then exactly
    // the remaining rounds, ending in a RunFinished identical (timing
    // aside) to the clean run's.
    let data = paper_dataset();
    let mk = || {
        let oracle = GroundTruthOracle::new(paper_completion());
        SimulatedPlatform::new(oracle, 1.0, 7)
    };
    let engine = BayesCrowd::new(sample_config());

    let mut platform = mk();
    let mut clean_metrics = MetricsRecorder::new();
    let mut session = engine
        .session_observed(&data, &mut platform, &mut clean_metrics)
        .unwrap();
    let mut snaps = Vec::new();
    while session.step().unwrap() {
        let mut buf = Vec::new();
        session.checkpoint(&mut buf).unwrap();
        snaps.push(buf);
    }
    let clean = unwrap_report(session.finalize());
    let clean_finish = clean_metrics
        .events()
        .iter()
        .rev()
        .find(|e| matches!(e, Event::RunFinished { .. }))
        .expect("clean run emits RunFinished")
        .redact_timing();

    let k = snaps.len() / 2;
    let mut platform = mk();
    let mut resumed_metrics = MetricsRecorder::new();
    let mut session =
        Session::resume_observed(&snaps[k][..], &mut platform, &mut resumed_metrics).unwrap();
    while session.step().unwrap() {}
    let resumed = unwrap_report(session.finalize());
    assert_reports_match(&clean, &resumed, "trace reconcile");

    let events = resumed_metrics.events();
    assert!(
        matches!(events.first(), Some(Event::Resumed { round, .. }) if *round == k + 1),
        "first resumed event must be Resumed at round {}: {:?}",
        k + 1,
        events.first()
    );
    let resumed_finish = events
        .iter()
        .rev()
        .find(|e| matches!(e, Event::RunFinished { .. }))
        .expect("resumed run emits RunFinished")
        .redact_timing();
    assert_eq!(clean_finish, resumed_finish, "RunFinished events diverge");
    // The resumed trace replays only the tail: every RoundStarted it emits
    // is a round after the checkpoint.
    for e in events {
        if let Event::RoundStarted { round } = e {
            assert!(*round > k + 1, "resumed run replayed round {round}");
        }
    }
}

#[test]
fn checkpoints_reserialize_byte_identically() {
    // Golden round-trip: parse → re-serialize reproduces the document byte
    // for byte, so a checkpoint can be rewritten (e.g. copied through the
    // parser for validation) without invalidating its checksum.
    let data = paper_dataset();
    let oracle = GroundTruthOracle::new(paper_completion());
    let mut platform = SimulatedPlatform::new(oracle, 1.0, 7);
    let engine = BayesCrowd::new(sample_config());
    let (_, snaps) = run_collecting_checkpoints(&engine, &data, &mut platform);
    for (k, bytes) in snaps.iter().enumerate() {
        let snap = Snapshot::parse(&bytes[..]).expect("checkpoint parses");
        let mut rewritten = Vec::new();
        snap.write_to(&mut rewritten).expect("re-serializes");
        assert_eq!(
            bytes, &rewritten,
            "checkpoint {k} did not round-trip byte-identically"
        );
    }
}

#[test]
fn truncated_checkpoints_are_rejected() {
    let data = paper_dataset();
    let oracle = GroundTruthOracle::new(paper_completion());
    let mut platform = SimulatedPlatform::new(oracle, 1.0, 7);
    let engine = BayesCrowd::new(sample_config());
    let (_, snaps) = run_collecting_checkpoints(&engine, &data, &mut platform);
    let full = &snaps[snaps.len() - 1];
    // Cut mid-document (a torn write): resume must refuse, not half-load.
    let torn = &full[..full.len() * 2 / 3];
    let oracle = GroundTruthOracle::new(paper_completion());
    let mut fresh = SimulatedPlatform::new(oracle, 1.0, 7);
    assert!(Session::resume(torn, &mut fresh).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random worker accuracy, fault rates, and seeds: resuming from the
    /// middle checkpoint always reproduces the uninterrupted report.
    #[test]
    fn random_faulty_runs_resume_identically(
        seed in 0u64..1000,
        accuracy in 0.5f64..1.0,
        expiry in 0.0f64..0.4,
        spam in 0.0f64..0.3,
    ) {
        let data = paper_dataset();
        let faults = FaultConfig {
            expiry_prob: expiry,
            spammer_rate: spam,
            ..Default::default()
        };
        let mk = move || -> Box<dyn CrowdPlatform> {
            let oracle = GroundTruthOracle::new(paper_completion());
            let sim = SimulatedPlatform::new(oracle, accuracy, seed);
            Box::new(FaultyPlatform::new(sim, faults, seed.wrapping_mul(31)))
        };
        let engine = BayesCrowd::new(sample_config());
        let mut platform = mk();
        let (clean, snaps) = run_collecting_checkpoints(&engine, &data, platform.as_mut());
        let k = snaps.len() / 2;
        let mut platform = mk();
        let mut session = Session::resume(&snaps[k][..], platform.as_mut()).expect("resumes");
        while session.step().expect("step") {}
        let resumed = unwrap_report(session.finalize());
        assert_reports_match(&clean, &resumed, &format!("proptest seed {seed}, k {k}"));
    }
}

// ---- Frozen checkpoint prefix ---------------------------------------------
//
// A checkpoint writes its header and its `config`, `dataset` and `model`
// lines from a prefix encoded once per session, or taken from the document
// the session resumed from. These tests pin that the shortcut never changes
// a byte.

/// A 500-object NBA-like campaign (10% of cells missing, HHS) and a
/// factory for identically built crowds.
fn nba_campaign() -> (BayesCrowd, Dataset, impl Fn() -> SimulatedPlatform) {
    let complete = bc_data::generators::nba::nba_like(500, 11);
    let (incomplete, _) = bc_data::missing::inject_mcar(&complete, 0.1, 12);
    let engine = BayesCrowd::new(BayesCrowdConfig {
        budget: 50,
        latency: 5,
        alpha: 0.01,
        strategy: TaskStrategy::Hhs { m: 15 },
        ..Default::default()
    });
    let mk = move || SimulatedPlatform::new(GroundTruthOracle::new(complete.clone()), 0.95, 13);
    (engine, incomplete, mk)
}

fn checkpoint_of(session: &mut Session<'_>) -> Vec<u8> {
    let mut buf = Vec::new();
    session.checkpoint(&mut buf).expect("checkpoint");
    buf
}

fn lines_of(doc: &[u8]) -> Vec<&str> {
    std::str::from_utf8(doc).expect("utf-8").lines().collect()
}

/// The document re-encoded from scratch through `Value`.
fn reencoded(doc: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    Snapshot::parse(doc)
        .expect("checkpoint parses")
        .write_to(&mut out)
        .expect("re-serializes");
    out
}

/// Every line but `progress` (it records the wall clock) and the footer
/// (its checksum covers `progress`).
fn timeless(doc: &[u8]) -> Vec<&str> {
    lines_of(doc)
        .into_iter()
        .filter(|l| !l.starts_with("{\"section\":\"progress\"") && !l.starts_with("{\"sections\":"))
        .collect()
}

#[test]
fn a_resumed_session_checkpoints_the_bytes_a_full_encoding_would() {
    let (engine, data, mk) = nba_campaign();
    let mut platform = mk();
    let mut clean = engine
        .session(&data, &mut platform)
        .expect("session starts");
    assert!(clean.step().expect("round 1"));
    let first = checkpoint_of(&mut clean);
    assert!(clean.step().expect("round 2"));
    let clean_second = checkpoint_of(&mut clean);

    let mut platform = mk();
    let mut resumed = Session::resume(&first[..], &mut platform).expect("resumes");
    assert!(resumed.step().expect("resumed round 2"));
    let second = checkpoint_of(&mut resumed);

    assert_eq!(second, reencoded(&second), "not what Value would write");
    assert_eq!(
        lines_of(&first)[..4],
        lines_of(&second)[..4],
        "header, config, dataset and model changed"
    );
    assert_eq!(
        timeless(&clean_second),
        timeless(&second),
        "the resumed run's checkpoint differs from the uninterrupted run's"
    );
    // A second checkpoint of the same session reuses the same prefix.
    assert_eq!(timeless(&checkpoint_of(&mut resumed)), timeless(&second));
}

#[test]
fn a_document_with_reordered_sections_resumes_to_canonical_checkpoints() {
    let (engine, data, mk) = nba_campaign();
    let mut platform = mk();
    let mut session = engine
        .session(&data, &mut platform)
        .expect("session starts");
    assert!(session.step().expect("round 1"));
    let first = checkpoint_of(&mut session);
    assert!(session.step().expect("round 2"));
    let clean_second = checkpoint_of(&mut session);

    // The same state with its sections in reverse order, under a valid
    // checksum: no prefix can come from it.
    let snap = Snapshot::parse(&first[..]).expect("parses");
    let mut sections = snap.sections().to_vec();
    sections.reverse();
    let mut reordered = Vec::new();
    Snapshot::new(snap.fingerprint().to_string(), sections)
        .write_to(&mut reordered)
        .expect("writes");
    assert_ne!(reordered, first);

    let mut platform = mk();
    let mut resumed = Session::resume(&reordered[..], &mut platform).expect("resumes");
    assert!(resumed.step().expect("resumed round 2"));
    let second = checkpoint_of(&mut resumed);
    assert_eq!(second, reencoded(&second));
    assert_eq!(lines_of(&first)[..4], lines_of(&second)[..4]);
    assert_eq!(timeless(&clean_second), timeless(&second));
}

#[test]
fn resumes_and_checkpoints_are_timed_in_the_trace() {
    let data = paper_dataset();
    let mk = || SimulatedPlatform::new(GroundTruthOracle::new(paper_completion()), 1.0, 7);
    let engine = BayesCrowd::new(sample_config());
    let mut platform = mk();
    let mut session = engine.session(&data, &mut platform).unwrap();
    assert!(session.step().unwrap());
    let doc = checkpoint_of(&mut session);

    let mut platform = mk();
    let (mut metrics, mut profiler) = (MetricsRecorder::new(), bc_obs::RunProfiler::new());
    let mut tee = bc_obs::Tee::new(&mut metrics, &mut profiler);
    let mut session = Session::resume_observed(&doc[..], &mut platform, &mut tee).unwrap();
    assert!(session.step().unwrap());
    let again = checkpoint_of(&mut session);
    while session.step().unwrap() {}
    unwrap_report(session.finalize());

    match metrics.events().first() {
        Some(Event::Resumed { bytes, nanos, .. }) => {
            assert_eq!(*bytes, doc.len());
            assert!(*nanos > 0);
        }
        other => panic!("expected Resumed first, got {other:?}"),
    }
    let c = metrics.counters();
    assert_eq!((c.resumes, c.resume_bytes), (1, doc.len() as u64));
    assert_eq!(
        (c.checkpoints_written, c.checkpoint_bytes),
        (1, again.len() as u64)
    );
    assert!(c.resume_nanos > 0 && c.checkpoint_nanos > 0);
    let profile = profiler.report();
    let resume = profile.node("resume").expect("a resume span");
    assert_eq!((resume.count, resume.nanos), (1, c.resume_nanos as u128));
    let checkpoint = profile.node("checkpoint").expect("a checkpoint span");
    assert_eq!(
        (checkpoint.count, checkpoint.nanos),
        (1, c.checkpoint_nanos as u128)
    );
}
