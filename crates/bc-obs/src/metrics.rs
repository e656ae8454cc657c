//! In-memory aggregation of a run's event stream.
//!
//! [`MetricsRecorder`] is the sink tests and the bench harness assert on:
//! it keeps the raw event list, per-phase wall-clock totals (reconciled
//! against the run total via [`MetricsRecorder::unattributed_nanos`]),
//! scalar counters, and exact-count [`Histogram`]s of per-round task
//! counts and propagation depth.

use crate::event::{Event, RunPhase};
use crate::sink::Observer;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// An exact-count histogram of `u64` samples with quantile extraction.
///
/// Stores one counter per distinct value. The sample spaces we record
/// (round sizes, propagation depths, trial timings) have few distinct
/// values, so exact storage is cheaper than sketching and makes
/// [`Histogram::quantile`] exact rather than bucket-approximate. A
/// coarse log₂ view is still available via [`Histogram::buckets`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    values: BTreeMap<u64, u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        *self.values.entry(value).or_insert(0) += 1;
        if self.count == 0 || value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
        self.count += 1;
        self.sum += value;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile: the smallest recorded value `v` such that at
    /// least `⌈q·n⌉` samples are `≤ v`. Exact, because every sample is
    /// kept. Returns 0 when empty; `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (&value, &n) in &self.values {
            seen += n;
            if seen >= rank {
                return value;
            }
        }
        self.max
    }

    /// Median (nearest-rank).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile (nearest-rank).
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile (nearest-rank).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Occupancy per log₂ bucket, lowest first: bucket `i` holds samples
    /// in `[2^(i-1), 2^i)`, bucket 0 holds zeros. Derived on demand from
    /// the exact counts.
    pub fn buckets(&self) -> Vec<u64> {
        let mut buckets: Vec<u64> = Vec::new();
        for (&value, &n) in &self.values {
            let bucket = if value == 0 {
                0
            } else {
                (64 - value.leading_zeros()) as usize
            };
            if buckets.len() <= bucket {
                buckets.resize(bucket + 1, 0);
            }
            buckets[bucket] += n;
        }
        buckets
    }
}

impl std::fmt::Display for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} min={} mean={:.1} p50={} p90={} p99={} max={}",
            self.count,
            self.min,
            self.mean(),
            self.p50(),
            self.p90(),
            self.p99(),
            self.max
        )
    }
}

/// Scalar counters aggregated over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Crowdsourcing rounds observed (`RoundFinished` events).
    pub rounds: u64,
    /// Tasks posted, summed over rounds.
    pub posted: u64,
    /// Tasks answered, summed over rounds.
    pub answered: u64,
    /// Tasks abandoned for good, summed over rounds.
    pub expired: u64,
    /// Failed tasks re-queued for another attempt, summed over rounds.
    pub requeued: u64,
    /// Re-posts of previously failed tasks, summed over rounds.
    pub retried: u64,
    /// Conditions solved across all probability batches.
    pub probability_evals: u64,
    /// Solver invocations (including fallback re-solves).
    pub solver_calls: u64,
    /// Solver value-branching decisions.
    pub solver_branches: u64,
    /// Solver component-cache hits.
    pub solver_cache_hits: u64,
    /// Correlated components solved by branching (cache empty or caching
    /// disabled). From `SolverSearch` events.
    pub solver_cache_misses: u64,
    /// Independent components closed directly by the disjunctive rule.
    /// From `SolverSearch` events.
    pub solver_direct_components: u64,
    /// Component decompositions that split a condition into more than one
    /// independent sub-problem. From `SolverSearch` events.
    pub solver_component_splits: u64,
    /// Deepest branching recursion seen in any probability batch
    /// (combined by max, not sum). From `SolverSearch` events.
    pub solver_max_depth: u64,
    /// Crowd answers folded into the constraint store.
    pub answers_propagated: u64,
    /// Conditions decided by propagation.
    pub conditions_decided: u64,
    /// Tasks abandoned at finalization (from `Degraded`).
    pub tasks_abandoned: u64,
    /// Conditions re-solved by the ADPLL fallback after the configured
    /// solver errored.
    pub solver_fallbacks: u64,
    /// Durable checkpoints written.
    pub checkpoints_written: u64,
    /// Bytes of those checkpoints.
    pub checkpoint_bytes: u64,
    /// Wall-clock nanoseconds spent writing them.
    pub checkpoint_nanos: u64,
    /// Sessions restored from a checkpoint (0 or 1 per recorder).
    pub resumes: u64,
    /// Bytes of the documents resumed from.
    pub resume_bytes: u64,
    /// Wall-clock nanoseconds spent reading, parsing and restoring them.
    pub resume_nanos: u64,
    /// Marginal utilities evaluated by task selection. From
    /// `UtilitySweep` events, like every `utility_*` counter; none of them
    /// is part of the `solver_*` counters, which count probability batches.
    pub utility_evals: u64,
    /// Solver invocations behind those utilities (fallbacks included).
    pub utility_solver_calls: u64,
    /// Value-branching decisions of the utility solves.
    pub utility_decisions: u64,
    /// Component probabilities the utility solves took from a cache.
    pub utility_cache_hits: u64,
    /// Utility solves the ADPLL fallback redid.
    pub utility_fallbacks: u64,
}

/// An [`Observer`] that aggregates the event stream in memory.
#[derive(Debug, Default)]
pub struct MetricsRecorder {
    events: Vec<Event>,
    phase_nanos: BTreeMap<RunPhase, u128>,
    total_nanos: u128,
    counters: Counters,
    tasks_per_round: Histogram,
    propagation_depth: Histogram,
}

impl MetricsRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every event seen, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The event stream with timing fields zeroed — two same-seed runs
    /// produce identical redacted streams.
    pub fn redacted_events(&self) -> Vec<Event> {
        self.events.iter().map(Event::redact_timing).collect()
    }

    /// Aggregated scalar counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Total wall-clock nanoseconds attributed to `phase` (summed across
    /// rounds for the per-round phases).
    pub fn phase_nanos(&self, phase: RunPhase) -> u128 {
        self.phase_nanos.get(&phase).copied().unwrap_or(0)
    }

    /// Total run wall-clock time from `RunFinished` (0 until the run
    /// finishes).
    pub fn total_nanos(&self) -> u128 {
        self.total_nanos
    }

    /// Wall-clock nanoseconds covered by phase spans, summed over all
    /// phases.
    pub fn attributed_nanos(&self) -> u128 {
        self.phase_nanos.values().sum()
    }

    /// Run time *not* covered by any phase span: bookkeeping between
    /// spans, round-loop control flow, report assembly. Reconciles the
    /// per-phase totals with the `RunFinished` wall time, so
    /// `attributed_nanos() + unattributed_nanos() == total_nanos()` holds
    /// once the run finishes (0 before then, and if clock skew ever made
    /// the spans overshoot the total the difference saturates to 0 rather
    /// than underflowing).
    pub fn unattributed_nanos(&self) -> u128 {
        self.total_nanos.saturating_sub(self.attributed_nanos())
    }

    /// A compact human-readable digest (phase timings, counters,
    /// histograms), suitable for `--metrics` output.
    pub fn summary(&self) -> String {
        let c = &self.counters;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "rounds {}  posted {}  answered {}  expired {}  retried {}",
            c.rounds, c.posted, c.answered, c.expired, c.retried
        );
        let _ = writeln!(
            s,
            "probability evals {}  solver calls {} (branches {}, cache hits {}, fallbacks {})",
            c.probability_evals,
            c.solver_calls,
            c.solver_branches,
            c.solver_cache_hits,
            c.solver_fallbacks
        );
        let _ = writeln!(
            s,
            "solver search: {} cache misses, {} direct components, {} splits, max depth {}",
            c.solver_cache_misses,
            c.solver_direct_components,
            c.solver_component_splits,
            c.solver_max_depth
        );
        let _ = writeln!(
            s,
            "utility evals {}  solver calls {} (decisions {}, cache hits {}, fallbacks {})",
            c.utility_evals,
            c.utility_solver_calls,
            c.utility_decisions,
            c.utility_cache_hits,
            c.utility_fallbacks
        );
        let _ = writeln!(
            s,
            "propagated {} answers, {} conditions decided",
            c.answers_propagated, c.conditions_decided
        );
        let _ = writeln!(
            s,
            "checkpoints {} ({} bytes, {:.3}ms)  resumes {} ({} bytes, {:.3}ms)",
            c.checkpoints_written,
            c.checkpoint_bytes,
            c.checkpoint_nanos as f64 / 1e6,
            c.resumes,
            c.resume_bytes,
            c.resume_nanos as f64 / 1e6
        );
        let _ = writeln!(s, "tasks/round: {}", self.tasks_per_round);
        let _ = writeln!(s, "propagation depth: {}", self.propagation_depth);
        let _ = write!(s, "phase timings:");
        for phase in RunPhase::ALL {
            let nanos = self.phase_nanos(phase);
            let _ = write!(s, " {}={:.3}ms", phase, nanos as f64 / 1e6);
        }
        let _ = write!(
            s,
            " unattributed={:.3}ms",
            self.unattributed_nanos() as f64 / 1e6
        );
        s
    }

    /// Histogram of tasks posted per round.
    pub fn tasks_per_round(&self) -> &Histogram {
        &self.tasks_per_round
    }

    /// Histogram of propagation fixpoint depth per round.
    pub fn propagation_depth(&self) -> &Histogram {
        &self.propagation_depth
    }
}

impl Observer for MetricsRecorder {
    fn event(&mut self, event: &Event) {
        match event {
            Event::SpanFinished { phase, nanos } => {
                *self.phase_nanos.entry(*phase).or_insert(0) += nanos;
            }
            Event::ProbabilityBatch {
                objects,
                solver_calls,
                branches,
                cache_hits,
                fallbacks,
                ..
            } => {
                self.counters.probability_evals += *objects as u64;
                self.counters.solver_calls += solver_calls;
                self.counters.solver_branches += branches;
                self.counters.solver_cache_hits += cache_hits;
                self.counters.solver_fallbacks += fallbacks;
            }
            Event::SolverSearch {
                direct_components,
                component_splits,
                cache_misses,
                max_depth,
                ..
            } => {
                // decisions and cache_hits mirror the matching
                // ProbabilityBatch and are already counted there.
                self.counters.solver_direct_components += direct_components;
                self.counters.solver_component_splits += component_splits;
                self.counters.solver_cache_misses += cache_misses;
                self.counters.solver_max_depth = self.counters.solver_max_depth.max(*max_depth);
            }
            Event::UtilitySweep {
                evals,
                solver_calls,
                decisions,
                cache_hits,
                fallbacks,
                ..
            } => {
                self.counters.utility_evals += evals;
                self.counters.utility_solver_calls += solver_calls;
                self.counters.utility_decisions += decisions;
                self.counters.utility_cache_hits += cache_hits;
                self.counters.utility_fallbacks += fallbacks;
            }
            Event::Propagated {
                answers,
                decided,
                depth,
                ..
            } => {
                self.counters.answers_propagated += *answers as u64;
                self.counters.conditions_decided += *decided as u64;
                self.propagation_depth.record(*depth as u64);
            }
            Event::RoundFinished {
                posted,
                answered,
                expired,
                requeued,
                retried,
                ..
            } => {
                self.counters.rounds += 1;
                self.counters.posted += *posted as u64;
                self.counters.answered += *answered as u64;
                self.counters.expired += *expired as u64;
                self.counters.requeued += *requeued as u64;
                self.counters.retried += *retried as u64;
                self.tasks_per_round.record(*posted as u64);
            }
            Event::RunFinished { nanos, .. } => {
                self.total_nanos = *nanos;
            }
            Event::Degraded { tasks_abandoned } => {
                self.counters.tasks_abandoned += *tasks_abandoned as u64;
            }
            Event::CheckpointWritten { bytes, nanos, .. } => {
                self.counters.checkpoints_written += 1;
                self.counters.checkpoint_bytes += *bytes as u64;
                self.counters.checkpoint_nanos += saturating_u64(*nanos);
            }
            Event::Resumed { bytes, nanos, .. } => {
                self.counters.resumes += 1;
                self.counters.resume_bytes += *bytes as u64;
                self.counters.resume_nanos += saturating_u64(*nanos);
            }
            _ => {}
        }
        self.events.push(event.clone());
    }
}

fn saturating_u64(nanos: u128) -> u64 {
    u64::try_from(nanos).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 8] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 18);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 8);
        assert!((h.mean() - 3.0).abs() < 1e-12);
        // buckets: [0], [1], [2..4), [4..8), [8..16)
        assert_eq!(h.buckets(), &[1, 1, 2, 1, 1]);
    }

    #[test]
    fn histogram_quantiles_exact_on_known_distribution() {
        // 1..=100 each once: nearest-rank quantiles are exact.
        let mut h = Histogram::default();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.p50(), 50);
        assert_eq!(h.p90(), 90);
        assert_eq!(h.p99(), 99);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 100);
        // Quantiles must be actual samples, insertion order must not
        // matter, and duplicates must weight the rank.
        let mut skewed = Histogram::default();
        for v in [1000, 10, 10, 10, 10, 10, 10, 10, 10, 10] {
            skewed.record(v);
        }
        assert_eq!(skewed.p50(), 10);
        assert_eq!(skewed.p90(), 10);
        assert_eq!(skewed.p99(), 1000);
        assert_eq!(skewed.max(), 1000);
    }

    #[test]
    fn histogram_empty_edge_case() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.buckets().is_empty());
    }

    #[test]
    fn recorder_aggregates_counters_and_spans() {
        let mut rec = MetricsRecorder::new();
        rec.event(&Event::RoundStarted { round: 1 });
        rec.event(&Event::ProbabilityBatch {
            phase: RunPhase::Select,
            objects: 4,
            solver_calls: 4,
            branches: 10,
            cache_hits: 3,
            fallbacks: 1,
            nanos: 100,
        });
        rec.event(&Event::SolverSearch {
            phase: RunPhase::Select,
            decisions: 10,
            direct_components: 6,
            component_splits: 2,
            cache_hits: 3,
            cache_misses: 7,
            max_depth: 4,
        });
        rec.event(&Event::Propagated {
            answers: 2,
            decided: 1,
            depth: 3,
            nanos: 50,
        });
        rec.event(&Event::RoundFinished {
            round: 1,
            posted: 2,
            answered: 2,
            expired: 0,
            requeued: 0,
            retried: 0,
            nanos: 200,
        });
        rec.event(&Event::SpanFinished {
            phase: RunPhase::Select,
            nanos: 120,
        });
        rec.event(&Event::SpanFinished {
            phase: RunPhase::Select,
            nanos: 30,
        });
        let c = rec.counters();
        assert_eq!(c.rounds, 1);
        assert_eq!(c.posted, 2);
        assert_eq!(c.probability_evals, 4);
        assert_eq!(c.solver_branches, 10);
        assert_eq!(c.solver_fallbacks, 1);
        assert_eq!(c.solver_cache_misses, 7);
        assert_eq!(c.solver_component_splits, 2);
        assert_eq!(c.solver_direct_components, 6);
        assert_eq!(c.solver_max_depth, 4);
        assert_eq!(c.answers_propagated, 2);
        assert_eq!(rec.phase_nanos(RunPhase::Select), 150);
        assert_eq!(rec.phase_nanos(RunPhase::Post), 0);
        assert_eq!(rec.tasks_per_round().count(), 1);
        assert_eq!(rec.propagation_depth().max(), 3);
        assert_eq!(rec.events().len(), 7);
        assert!(rec.summary().contains("posted 2"));
    }

    #[test]
    fn utility_sweeps_have_their_own_counters() {
        let mut rec = MetricsRecorder::new();
        for _ in 0..2 {
            rec.event(&Event::UtilitySweep {
                evals: 5,
                solver_calls: 6,
                decisions: 40,
                cache_hits: 7,
                fallbacks: 1,
                nanos: 900,
            });
        }
        let c = rec.counters();
        assert_eq!(
            (
                c.utility_evals,
                c.utility_solver_calls,
                c.utility_decisions,
                c.utility_cache_hits,
                c.utility_fallbacks
            ),
            (10, 12, 80, 14, 2)
        );
        // The probability-batch counters and the phase times are untouched:
        // the sweep's time is part of the select span that encloses it.
        assert_eq!(c.solver_calls, 0);
        assert_eq!(c.solver_branches, 0);
        assert_eq!(c.solver_cache_hits, 0);
        assert_eq!(c.solver_fallbacks, 0);
        assert_eq!(rec.attributed_nanos(), 0);
        assert!(rec.summary().contains("utility evals 10"));
    }

    #[test]
    fn checkpoints_and_resumes_are_counted_with_bytes_and_time() {
        let mut rec = MetricsRecorder::new();
        rec.event(&Event::Resumed {
            round: 2,
            budget_left: 5,
            open_exprs: 9,
            bytes: 1000,
            nanos: 70,
        });
        for round in 3..5 {
            rec.event(&Event::CheckpointWritten {
                round,
                bytes: 400,
                nanos: 30,
            });
        }
        let c = rec.counters();
        assert_eq!((c.resumes, c.resume_bytes, c.resume_nanos), (1, 1000, 70));
        assert_eq!(
            (
                c.checkpoints_written,
                c.checkpoint_bytes,
                c.checkpoint_nanos
            ),
            (2, 800, 60)
        );
        // Neither is a phase span.
        assert_eq!(rec.attributed_nanos(), 0);
        assert!(rec.summary().contains("checkpoints 2 (800 bytes"));
        assert!(rec.summary().contains("resumes 1 (1000 bytes"));
    }

    #[test]
    fn unattributed_time_reconciles_with_run_total() {
        let mut rec = MetricsRecorder::new();
        rec.event(&Event::SpanFinished {
            phase: RunPhase::Model,
            nanos: 400,
        });
        rec.event(&Event::SpanFinished {
            phase: RunPhase::Select,
            nanos: 250,
        });
        // Before RunFinished there is no total to reconcile against.
        assert_eq!(rec.total_nanos(), 0);
        assert_eq!(rec.unattributed_nanos(), 0);
        rec.event(&Event::RunFinished {
            rounds: 1,
            tasks_posted: 0,
            tasks_answered: 0,
            tasks_expired: 0,
            tasks_retried: 0,
            probability_evals: 0,
            nanos: 1000,
        });
        assert_eq!(rec.attributed_nanos(), 650);
        assert_eq!(rec.unattributed_nanos(), 350);
        // The invariant the spans must satisfy: no run time is silently
        // dropped between phase spans.
        assert_eq!(
            rec.attributed_nanos() + rec.unattributed_nanos(),
            rec.total_nanos()
        );
        assert!(rec.summary().contains("unattributed=0.000ms"));
    }

    #[test]
    fn redacted_events_zero_timing() {
        let mut rec = MetricsRecorder::new();
        rec.event(&Event::SpanFinished {
            phase: RunPhase::Model,
            nanos: 999,
        });
        match rec.redacted_events()[0] {
            Event::SpanFinished { nanos, .. } => assert_eq!(nanos, 0),
            _ => unreachable!(),
        }
    }
}
