//! The traced run: per-layer times and counts of the same campaigns.
//!
//! Spans come from the benchmark's own files, around calls into each layer:
//! the campaign loop times every `Session` API call, the recording platform
//! times `post_round`, and the events the program already emits
//! (`ModelTrained`, `CTableBuilt`, `ProbabilityBatch`, `Propagated`, the
//! select phase's `SpanFinished`) are kept in memory and turned into spans
//! from their receive time and duration; they and `SolverSearch` also give
//! the layer counts. The utility work no event counts is measured by
//! replaying selection on the session's public state through `rank_objects`
//! and `assemble_round` with a solver wrapper that counts and times every
//! call. The replay runs between API calls and is not part of the
//! campaign's program time.

use crate::campaign::{self, Campaign, Post};
use crate::metrics::{Metric, Outcome};
use crate::workload::Workload;
use bayescrowd::selection::{assemble_round, rank_objects};
use bayescrowd::Session;
use bc_crowd::Task;
use bc_ctable::Condition;
use bc_data::{ObjectId, VarId};
use bc_obs::{Event, Observer, RunPhase};
use bc_solver::{SolveStats, Solver, SolverError, VarDists};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The program's events with the instant each arrived.
#[derive(Debug, Default)]
pub struct EventLog {
    events: Vec<(Instant, Event)>,
}

impl Observer for EventLog {
    fn event(&mut self, event: &Event) {
        self.events.push((Instant::now(), event.clone()));
    }
}

/// Utility work of the selection replays of one campaign.
#[derive(Clone, Copy, Debug, Default)]
pub struct Utility {
    /// Time in `assemble_round`.
    pub assemble: Duration,
    /// Time in solver calls made by `assemble_round`.
    pub solve: Duration,
    /// Solver calls made by `assemble_round`.
    pub calls: u64,
    /// ADPLL branching decisions of those calls.
    pub decisions: u64,
}

/// What the campaign loop records about one traced campaign.
#[derive(Debug, Default)]
pub struct CampaignTrace {
    calls: Vec<(&'static str, Instant, Instant)>,
    replays: Vec<(Instant, Instant)>,
    /// The replay's copy of the session's probability cache: each open
    /// object's `Pr(φ)` and the variables its condition had when solved.
    /// The session keeps a probability until a crowd answer touches one of
    /// those variables, while every other variable's distribution is
    /// re-derived after each round and may differ in the last bits; ranking
    /// by freshly solved probabilities would break near-ties differently.
    probs: BTreeMap<ObjectId, (f64, BTreeSet<VarId>)>,
    /// Utility work the replays measured.
    pub utility: Utility,
    /// Rounds whose posted batch was compared with the replay.
    pub compared: usize,
    /// Replay disagreements and failures.
    pub problems: Vec<String>,
}

impl CampaignTrace {
    /// Records one `Session` API call.
    pub fn call(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.calls.push((name, start, end));
    }

    /// Replays the selection the next `step` will make, or `None` when the
    /// session has finished.
    pub fn replay(&mut self, session: &Session) -> Option<Vec<Task>> {
        if session.is_finished() {
            return None;
        }
        let start = Instant::now();
        let (config, ctable, dists) = (session.config(), session.ctable(), session.dists());
        let solver = config.build_solver();
        let open = ctable.open_objects();
        for &o in &open {
            if self.probs.contains_key(&o) {
                continue;
            }
            let cond = ctable.condition(o);
            match solver.probability(cond, dists) {
                Ok(p) => self.probs.insert(o, (p, cond.vars())),
                Err(e) => {
                    self.problems
                        .push(format!("replay could not rank objects: {e}"));
                    return None;
                }
            };
        }
        let probs: Vec<(ObjectId, f64)> = open.iter().map(|o| (*o, self.probs[o].0)).collect();
        let ranked = rank_objects(&probs, config.ranking);
        let counting = Counting::new(config.build_solver());
        let limit = config.tasks_per_round().max(1).min(session.budget_left());
        let t = Instant::now();
        let tasks = assemble_round(
            &ranked,
            ctable,
            config.strategy,
            &counting,
            dists,
            limit,
            config.conflict_free,
            &BTreeSet::new(),
        );
        self.utility.assemble += t.elapsed();
        self.utility.solve += counting.time.get();
        self.utility.calls += counting.calls.get();
        self.utility.decisions += counting.decisions.get();
        self.replays.push((start, Instant::now()));
        Some(tasks)
    }

    /// Compares the replayed selection with the batch the session posted,
    /// and drops the cached probabilities the batch's answers invalidate.
    /// Rounds with a failed task earlier in the campaign (`clean` false)
    /// may carry re-posts and are not compared.
    pub fn compare(&mut self, clean: bool, replayed: &[Task], post: &Post) {
        let touched: BTreeSet<VarId> = post
            .tasks
            .iter()
            .zip(&post.answered)
            .filter(|(_, answered)| **answered)
            .flat_map(|(t, _)| t.vars())
            .collect();
        self.probs.retain(|_, (_, vars)| vars.is_disjoint(&touched));
        if !clean {
            return;
        }
        self.compared += 1;
        let posted = &post.tasks[..];
        if replayed != posted {
            self.problems.push(format!(
                "round {}: replayed selection {replayed:?} differs from the posted batch {posted:?}",
                self.compared
            ));
        }
    }
}

/// A `Solver` that counts and times every call of the solver it wraps.
struct Counting {
    inner: Box<dyn Solver>,
    calls: Cell<u64>,
    decisions: Cell<u64>,
    time: Cell<Duration>,
}

impl Counting {
    fn new(inner: Box<dyn Solver>) -> Counting {
        Counting {
            inner,
            calls: Cell::new(0),
            decisions: Cell::new(0),
            time: Cell::new(Duration::ZERO),
        }
    }
}

impl Solver for Counting {
    fn probability(&self, cond: &Condition, dists: &VarDists) -> Result<f64, SolverError> {
        self.probability_with_stats(cond, dists).map(|(p, _)| p)
    }

    fn probability_with_stats(
        &self,
        cond: &Condition,
        dists: &VarDists,
    ) -> Result<(f64, SolveStats), SolverError> {
        let t = Instant::now();
        let solved = self.inner.probability_with_stats(cond, dists);
        self.time.set(self.time.get() + t.elapsed());
        self.calls.set(self.calls.get() + 1);
        if let Ok((_, stats)) = &solved {
            self.decisions.set(self.decisions.get() + stats.branches);
        }
        solved
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// One span: a timed interval at a layer boundary.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary, e.g. `step` or `bc-solver.batch`.
    pub name: &'static str,
    /// Start.
    pub start: Instant,
    /// End.
    pub end: Instant,
    /// Index of the enclosing span in the campaign's span list.
    pub parent: Option<usize>,
    /// Duration minus the part its child spans cover.
    pub self_time: Duration,
}

/// The layer a span's self time belongs to; `None` for glue (the campaign
/// root, `session` and `step` outside their layer spans) and for the
/// benchmark's own replays.
fn layer(name: &str) -> Option<&'static str> {
    Some(match name {
        "bc-bayes.learn" => "bc-bayes",
        "bc-ctable.build" | "bc-ctable.propagate" => "bc-ctable",
        "bc-solver.batch" => "bc-solver",
        "selection.select" => "selection",
        "bc-crowd.post" => "bc-crowd",
        "checkpoint" | "resume" => "bc-snapshot",
        "finalize" => "session.finalize",
        _ => return None,
    })
}

/// The layers, in the order their shares are reported.
const LAYERS: [&str; 7] = [
    "bc-bayes",
    "bc-ctable",
    "bc-solver",
    "selection",
    "bc-crowd",
    "bc-snapshot",
    "session.finalize",
];

/// Builds the span tree of one traced campaign: the campaign root, its API
/// calls and replays, the posted rounds, and the spans derived from events.
/// Parents are assigned by interval nesting.
pub fn spans(trace: &CampaignTrace, events: &EventLog, posts: &[Post]) -> Vec<Span> {
    let span = |name, start, end| Span {
        name,
        start,
        end,
        parent: None,
        self_time: Duration::ZERO,
    };
    let (first, last) = (trace.calls[0].1, trace.calls[trace.calls.len() - 1].2);
    let mut out = vec![span("campaign", first, last)];
    out.extend(trace.calls.iter().map(|&(name, s, e)| span(name, s, e)));
    out.extend(
        trace
            .replays
            .iter()
            .map(|&(s, e)| span("bench.replay", s, e)),
    );
    out.extend(
        posts
            .iter()
            .map(|p| span("bc-crowd.post", p.sent, p.returned)),
    );
    for (at, event) in &events.events {
        let (name, nanos) = match event {
            Event::ModelTrained { nanos, .. } => ("bc-bayes.learn", *nanos),
            Event::CTableBuilt { nanos, .. } => ("bc-ctable.build", *nanos),
            Event::ProbabilityBatch { nanos, .. } => ("bc-solver.batch", *nanos),
            Event::Propagated { nanos, .. } => ("bc-ctable.propagate", *nanos),
            Event::SpanFinished {
                phase: RunPhase::Select,
                nanos,
            } => ("selection.select", *nanos),
            _ => continue,
        };
        let nanos = Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX));
        out.push(span(name, at.checked_sub(nanos).unwrap_or(*at), *at));
    }
    // Outer spans first; a span's parent is the innermost earlier span that
    // still contains its end.
    out[1..].sort_by_key(|s| (s.start, std::cmp::Reverse(s.end)));
    let mut stack: Vec<usize> = vec![0];
    for i in 1..out.len() {
        while let Some(&top) = stack.last() {
            if top == 0 || out[top].end >= out[i].end {
                break;
            }
            stack.pop();
        }
        out[i].parent = stack.last().copied();
        stack.push(i);
    }
    for s in out.iter_mut() {
        s.self_time = s.end.saturating_duration_since(s.start);
    }
    for i in 1..out.len() {
        let p = out[i].parent.expect("every span but the root has a parent");
        let covered = out[i]
            .end
            .min(out[p].end)
            .saturating_duration_since(out[i].start.max(out[p].start));
        out[p].self_time = out[p].self_time.saturating_sub(covered);
    }
    out
}

/// Per-layer sums over the traced campaigns.
#[derive(Debug, Default)]
struct Totals {
    campaigns: usize,
    /// Campaign wall clock minus the benchmark's replays.
    program: Duration,
    overhead: f64,
    /// Self time per span name.
    named: BTreeMap<&'static str, Duration>,
    counts: BTreeMap<&'static str, f64>,
    utility: Utility,
}

impl Totals {
    fn add(
        &mut self,
        spans: &[Span],
        trace: &CampaignTrace,
        events: &EventLog,
        traced: &Campaign,
        plain: &Campaign,
    ) {
        self.campaigns += 1;
        let replay: Duration = spans
            .iter()
            .filter(|s| s.name == "bench.replay")
            .map(|s| s.end - s.start)
            .sum();
        let program = (spans[0].end - spans[0].start).saturating_sub(replay);
        self.program += program;
        self.overhead += program.as_secs_f64() - plain.total.as_secs_f64();
        for s in spans {
            *self.named.entry(s.name).or_default() += s.self_time;
        }
        self.utility.assemble += trace.utility.assemble;
        self.utility.solve += trace.utility.solve;
        self.utility.calls += trace.utility.calls;
        self.utility.decisions += trace.utility.decisions;
        let mut count = |name: &'static str, v: f64| *self.counts.entry(name).or_default() += v;
        for (_, e) in &events.events {
            match *e {
                Event::ModelTrained {
                    em_iters,
                    search_iters,
                    ..
                } => {
                    count("bc-bayes.em_iters", em_iters as f64);
                    count("bc-bayes.search_iters", search_iters as f64);
                }
                Event::CTableBuilt {
                    candidates,
                    exprs,
                    open_objects,
                    ..
                } => {
                    count("bc-ctable.candidates", candidates as f64);
                    count("bc-ctable.exprs", exprs as f64);
                    count("bc-ctable.open_objects", open_objects as f64);
                }
                Event::Propagated { decided, .. } => count("bc-ctable.decided", decided as f64),
                Event::ProbabilityBatch {
                    solver_calls,
                    fallbacks,
                    ..
                } => {
                    count("bc-solver.batch_calls", solver_calls as f64);
                    count("bc-solver.fallbacks", fallbacks as f64);
                }
                Event::SolverSearch {
                    decisions,
                    cache_hits,
                    cache_misses,
                    ..
                } => {
                    count("bc-solver.batch_decisions", decisions as f64);
                    count("cache_hits", cache_hits as f64);
                    count("cache_misses", cache_misses as f64);
                }
                _ => {}
            }
        }
        count(
            "bc-crowd.worker_answers",
            traced.report.crowd.worker_answers as f64,
        );
        count(
            "bc-crowd.tasks_failed",
            traced.posts.iter().map(Post::failed).sum::<usize>() as f64,
        );
        count("bc-snapshot.bytes", traced.checkpoint_bytes as f64);
    }

    /// Self time of the spans `keep` selects by name.
    fn self_time(&self, keep: impl Fn(&str) -> bool) -> Duration {
        self.named
            .iter()
            .filter(|(name, _)| keep(name))
            .map(|(_, d)| *d)
            .sum()
    }

    fn metrics(&self) -> Vec<Metric> {
        let utility = self.utility;
        let n = self.campaigns.max(1) as f64;
        let secs = |d: Duration| d.as_secs_f64() / n;
        let named = |name: &str| secs(self.named.get(name).copied().unwrap_or_default());
        let count = |name: &str| self.counts.get(name).copied().unwrap_or(0.0) / n;
        let program = self.program.as_secs_f64().max(f64::MIN_POSITIVE);
        let hits = self.counts.get("cache_hits").copied().unwrap_or(0.0);
        let misses = self.counts.get("cache_misses").copied().unwrap_or(0.0);
        let mut m = vec![
            Metric::new("bc-bayes.learn_s", named("bc-bayes.learn")),
            Metric::new("bc-bayes.em_iters", count("bc-bayes.em_iters")),
            Metric::new("bc-bayes.search_iters", count("bc-bayes.search_iters")),
            Metric::new("bc-ctable.build_s", named("bc-ctable.build")),
            Metric::new("bc-ctable.candidates", count("bc-ctable.candidates")),
            Metric::new("bc-ctable.exprs", count("bc-ctable.exprs")),
            Metric::new("bc-ctable.open_objects", count("bc-ctable.open_objects")),
            Metric::new("bc-ctable.propagate_s", named("bc-ctable.propagate")),
            Metric::new("bc-ctable.decided", count("bc-ctable.decided")),
            Metric::new("bc-solver.batch_s", named("bc-solver.batch")),
            Metric::new("bc-solver.batch_calls", count("bc-solver.batch_calls")),
            Metric::new(
                "bc-solver.batch_decisions",
                count("bc-solver.batch_decisions"),
            ),
            Metric::new(
                "bc-solver.cache_hit_ratio",
                if hits + misses > 0.0 {
                    hits / (hits + misses)
                } else {
                    0.0
                },
            ),
            Metric::new("bc-solver.fallbacks", count("bc-solver.fallbacks")),
            Metric::new("selection.select_s", named("selection.select")),
            Metric::new("selection.assemble_s", secs(utility.assemble)),
            Metric::new("selection.utility_s", secs(utility.solve)),
            Metric::new("selection.utility_evals", utility.calls as f64 / 2.0 / n),
            Metric::new("selection.utility_solver_calls", utility.calls as f64 / n),
            Metric::new("selection.utility_decisions", utility.decisions as f64 / n),
            Metric::new("session.finalize_s", named("finalize")),
            Metric::new("bc-crowd.post_s", named("bc-crowd.post")),
            Metric::new("bc-crowd.worker_answers", count("bc-crowd.worker_answers")),
            Metric::new("bc-crowd.tasks_failed", count("bc-crowd.tasks_failed")),
            Metric::new("bc-snapshot.checkpoint_s", named("checkpoint")),
            Metric::new("bc-snapshot.resume_s", named("resume")),
            Metric::new("bc-snapshot.bytes", count("bc-snapshot.bytes")),
            Metric::new("trace.overhead_s", self.overhead / n),
            Metric::new(
                "trace.unattributed_share",
                self.self_time(|s| layer(s).is_none() && s != "bench.replay")
                    .as_secs_f64()
                    / program,
            ),
        ];
        for l in LAYERS {
            let t = self.self_time(|s| layer(s) == Some(l));
            m.push(Metric::share(l, t.as_secs_f64() / program));
        }
        m
    }
}

/// The traced run of `w`: the first `w.traced` instances of the block of
/// `seed`, each run untraced and then traced (and, for a resuming
/// workload, once more uninterrupted). Writes every span as a JSON line to
/// `spans_out` when given.
pub fn run(w: &Workload, seed: u64, spans_out: Option<&std::path::Path>) -> Outcome {
    let mut outcome = Outcome::default();
    let mut totals = Totals::default();
    let mut compared = 0;
    let mut lines = String::new();
    let epoch = Instant::now();
    for i in 0..w.traced {
        let inst = w.instance(seed, i);
        outcome.attempted += 1;
        let mut trace = CampaignTrace::default();
        let mut events = EventLog::default();
        let runs = campaign::run(w, &inst, w.resume, None, None).and_then(|plain| {
            let traced = campaign::run(w, &inst, w.resume, Some(&mut trace), Some(&mut events))?;
            let uninterrupted = if w.resume {
                Some(campaign::run(w, &inst, false, None, None)?)
            } else {
                None
            };
            Ok((plain, traced, uninterrupted))
        });
        let (plain, traced, uninterrupted) = match runs {
            Ok(r) => r,
            Err(e) => {
                eprintln!("instance {i}: campaign failed: {e}");
                outcome.failed += 1;
                continue;
            }
        };
        let problems = &mut outcome.problems;
        if let Some(p) = campaign::check(w, &inst, &traced) {
            problems.push(format!("instance {i}: {p}"));
        }
        if !campaign::same_outcome(&plain.report, &traced.report) {
            problems.push(format!("instance {i}: tracing changed the report"));
        }
        if let Some(u) = &uninterrupted {
            if !campaign::same_outcome(&u.report, &traced.report) {
                problems.push(format!(
                    "instance {i}: the resumed report differs from the uninterrupted one"
                ));
            }
        }
        problems.extend(trace.problems.iter().map(|p| format!("instance {i}: {p}")));
        compared += trace.compared;
        let spans = spans(&trace, &events, &traced.posts);
        totals.add(&spans, &trace, &events, &traced, &plain);
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                lines,
                "{{\"campaign\": {i}, \"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name,
                s.start.saturating_duration_since(epoch).as_nanos(),
                s.end.saturating_duration_since(epoch).as_nanos()
            );
        }
    }
    if compared == 0 && outcome.failed < outcome.attempted {
        outcome
            .problems
            .push("no round was compared with the selection replay".into());
    }
    outcome.metrics = totals.metrics();
    let unattributed = outcome
        .metrics
        .iter()
        .find(|m| m.name == "trace.unattributed_share")
        .map_or(0.0, |m| m.value);
    if unattributed >= 0.05 {
        outcome.problems.push(format!(
            "layer self times cover only {:.1}% of the traced campaigns",
            100.0 * (1.0 - unattributed)
        ));
    }
    if let Some(path) = spans_out {
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, &lines));
        if let Err(e) = written {
            outcome
                .problems
                .push(format!("cannot write spans to {}: {e}", path.display()));
        }
    }
    outcome
}
