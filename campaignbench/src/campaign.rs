//! One campaign — `BayesCrowd::session` → `Session::step`* →
//! `Session::finalize` — against a simulated crowd that answers each round
//! at once, so every measured second is machine time.

use crate::trace::{CampaignTrace, EventLog};
use crate::workload::{Instance, Workload};
use bayescrowd::{BayesCrowd, RunError, RunReport, Session};
use bc_crowd::{CrowdPlatform, CrowdStats, PlatformState, PlatformStateError};
use bc_crowd::{Task, TaskOutcome, TaskResult};
use bc_data::Dataset;
use bc_obs::Observer;
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// One non-empty `post_round` call as the platform saw it.
#[derive(Clone, Debug)]
pub struct Post {
    /// When the batch reached the platform.
    pub sent: Instant,
    /// When its results went back to the session.
    pub returned: Instant,
    /// The batch, in posting order.
    pub tasks: Vec<Task>,
    /// Per task: whether it came back answered (not expired or
    /// inconsistent).
    pub answered: Vec<bool>,
}

impl Post {
    /// Tasks of the batch that came back without an answer.
    pub fn failed(&self) -> usize {
        self.answered.iter().filter(|a| !**a).count()
    }
}

/// A `CrowdPlatform` decorator that timestamps every posted round into a
/// log shared with the campaign loop, and forwards everything else.
struct Recording<'p> {
    inner: &'p mut dyn CrowdPlatform,
    log: &'p RefCell<Vec<Post>>,
}

impl CrowdPlatform for Recording<'_> {
    fn post_round(&mut self, tasks: &[Task]) -> Vec<TaskResult> {
        let sent = Instant::now();
        let results = self.inner.post_round(tasks);
        let returned = Instant::now();
        if !tasks.is_empty() {
            // A missing result counts as expired, as the session treats it.
            let answered = (0..tasks.len())
                .map(|i| {
                    matches!(
                        results.get(i).map(|r| r.outcome),
                        Some(TaskOutcome::Answered(_))
                    )
                })
                .collect();
            self.log.borrow_mut().push(Post {
                sent,
                returned,
                tasks: tasks.to_vec(),
                answered,
            });
        }
        results
    }

    fn escalate(&mut self, extra: usize) {
        self.inner.escalate(extra);
    }

    fn stats(&self) -> CrowdStats {
        self.inner.stats()
    }

    fn ground_truth(&self) -> Option<&Dataset> {
        self.inner.ground_truth()
    }

    fn save_state(&self) -> Option<PlatformState> {
        self.inner.save_state()
    }

    fn load_state(&mut self, state: &PlatformState) -> Result<(), PlatformStateError> {
        self.inner.load_state(state)
    }
}

/// What one campaign produced and how long the requester and the crowd
/// waited for the machine.
#[derive(Debug)]
pub struct Campaign {
    /// The session's report.
    pub report: RunReport,
    /// Handover → `BayesCrowd::session` returned (BN learning + c-table).
    pub setup: Duration,
    /// Handover → first batch reached `post_round`; `None` if nothing was
    /// posted.
    pub first_tasks: Option<Duration>,
    /// For every round after the first: the previous round's answers
    /// returned → this round's batch posted.
    pub turnarounds: Vec<Duration>,
    /// Handover → report.
    pub total: Duration,
    /// Every posted round, across all platform incarnations.
    pub posts: Vec<Post>,
    /// Bytes of every checkpoint written.
    pub checkpoint_bytes: usize,
}

/// Runs one campaign of `w` on `inst`. With `resume`, the session is
/// checkpointed to memory after every round, dropped, and resumed against
/// an identically built fresh platform. `trace` and `events` are given
/// together in the traced run: every API call is timed into `trace`,
/// selection is replayed before each round, and the program's events go to
/// `events`.
pub fn run(
    w: &Workload,
    inst: &Instance,
    resume: bool,
    mut trace: Option<&mut CampaignTrace>,
    mut events: Option<&mut EventLog>,
) -> Result<Campaign, RunError> {
    let engine = BayesCrowd::new(w.config());
    let log = RefCell::new(Vec::new());
    // A resumed campaign runs at most `L` rounds that return `true`, each
    // followed by a fresh incarnation, plus the first one. All platforms
    // are built before the clock starts, so only the program is timed.
    let incarnations = if resume { w.latency + 1 } else { 1 };
    let mut platforms: Vec<_> = (0..incarnations).map(|_| w.platform(inst)).collect();
    let mut checkpoint: Option<Vec<u8>> = None;
    let mut checkpoint_bytes = 0;
    let mut setup = Duration::ZERO;
    let mut report = None;

    let handover = Instant::now();
    'campaign: for platform in platforms.iter_mut() {
        let mut crowd = Recording {
            inner: platform,
            log: &log,
        };
        let start = Instant::now();
        let observer = events.as_deref_mut().map(|e| e as &mut dyn Observer);
        let mut session = match (&checkpoint, observer) {
            (None, None) => engine.session(&inst.incomplete, &mut crowd)?,
            (None, Some(o)) => engine.session_observed(&inst.incomplete, &mut crowd, o)?,
            (Some(bytes), None) => Session::resume(&bytes[..], &mut crowd)?,
            (Some(bytes), Some(o)) => Session::resume_observed(&bytes[..], &mut crowd, o)?,
        };
        let opened = Instant::now();
        if checkpoint.is_none() {
            setup = opened - handover;
        }
        let name = if checkpoint.is_none() {
            "session"
        } else {
            "resume"
        };
        if let Some(t) = trace.as_deref_mut() {
            t.call(name, start, opened);
        }
        loop {
            let expected = trace.as_deref_mut().and_then(|t| t.replay(&session));
            let posts_before = log.borrow().len();
            let start = Instant::now();
            let more = session.step()?;
            let end = Instant::now();
            if let Some(t) = trace.as_deref_mut() {
                t.call("step", start, end);
                let log = log.borrow();
                if let (Some(tasks), Some(post)) = (expected, log.get(posts_before)) {
                    // A pending retry changes what selection may pick, so
                    // only rounds after a clean history are compared.
                    let clean = log[..posts_before].iter().all(|p| p.failed() == 0);
                    t.compare(clean, &tasks, post);
                }
            }
            if !more {
                let start = Instant::now();
                let finished = session.finalize()?;
                if let Some(t) = trace.as_deref_mut() {
                    t.call("finalize", start, Instant::now());
                }
                report = Some(finished);
                break 'campaign;
            }
            if resume {
                let mut bytes = Vec::new();
                let start = Instant::now();
                session.checkpoint(&mut bytes)?;
                if let Some(t) = trace.as_deref_mut() {
                    t.call("checkpoint", start, Instant::now());
                }
                checkpoint_bytes += bytes.len();
                checkpoint = Some(bytes);
                break;
            }
        }
    }
    let total = handover.elapsed();
    let report = report.expect("a campaign ends within L + 1 incarnations");

    let posts = log.into_inner();
    let first_tasks = posts.first().map(|p| p.sent - handover);
    let turnarounds = posts
        .windows(2)
        .map(|pair| pair[1].sent - pair[0].returned)
        .collect();
    Ok(Campaign {
        report,
        setup,
        first_tasks,
        turnarounds,
        total,
        posts,
        checkpoint_bytes,
    })
}

/// Output checks of one campaign. Returns what is wrong, if anything.
pub fn check(w: &Workload, inst: &Instance, c: &Campaign) -> Option<String> {
    let r = &c.report;
    let posted: usize = c.posts.iter().map(|p| p.tasks.len()).sum();
    if r.crowd.tasks_posted != posted || r.crowd.rounds != c.posts.len() {
        return Some(format!(
            "report says {} tasks in {} rounds, the platform saw {posted} in {}",
            r.crowd.tasks_posted,
            r.crowd.rounds,
            c.posts.len()
        ));
    }
    if posted > w.config().budget || c.posts.len() > w.latency {
        return Some(format!(
            "{posted} tasks in {} rounds exceed B = {} or L = {}",
            c.posts.len(),
            w.config().budget,
            w.latency
        ));
    }
    if !r.result.windows(2).all(|p| p[0] < p[1]) {
        return Some("answer set is not sorted and duplicate-free".into());
    }
    if r.certain.iter().any(|o| r.result.binary_search(o).is_err()) {
        return Some("a certain answer is missing from the answer set".into());
    }
    let Some(acc) = r.accuracy else {
        return Some("report carries no accuracy".into());
    };
    let (precision, recall, f1) = quality(&r.result, &inst.truth);
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-12;
    if !(close(acc.precision, precision) && close(acc.recall, recall) && close(acc.f1, f1)) {
        return Some(format!(
            "reported accuracy {acc:?} differs from the recomputed \
             precision {precision}, recall {recall}, f1 {f1}"
        ));
    }
    None
}

/// Precision, recall and F1 of `result` against the skyline `truth`; both
/// sorted. An empty result has precision 1, an empty truth recall 1.
pub fn quality(result: &[bc_data::ObjectId], truth: &[bc_data::ObjectId]) -> (f64, f64, f64) {
    let hits = result
        .iter()
        .filter(|o| truth.binary_search(o).is_ok())
        .count() as f64;
    let precision = if result.is_empty() {
        1.0
    } else {
        hits / result.len() as f64
    };
    let recall = if truth.is_empty() {
        1.0
    } else {
        hits / truth.len() as f64
    };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    (precision, recall, f1)
}

/// The parts of a report that must not depend on timing, tracing or
/// resumption.
pub fn same_outcome(a: &RunReport, b: &RunReport) -> bool {
    a.result == b.result
        && a.accuracy == b.accuracy
        && a.crowd == b.crowd
        && a.probability_evals == b.probability_evals
}
