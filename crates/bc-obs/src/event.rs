//! The structured event taxonomy of a BayesCrowd run.
//!
//! Every event is a flat record of counters plus (where meaningful) a
//! monotonic duration in nanoseconds. Events serialize to single-line JSON
//! objects ([`Event::to_json_line`], through [`bc_snapshot::Value`]) and
//! parse back ([`Event::from_json_line`]), so a JSON-lines trace written by
//! one process can be reconciled against the final run report by another.

use bc_snapshot::{SnapshotError, Value};
use std::fmt;

/// The instrumented phases of a run, in execution order.
///
/// `Model` and `CTable` happen once up front; `Select`, `Post`, and
/// `Propagate` repeat every crowdsourcing round; `Finalize` happens once at
/// the end (deriving the answer set).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RunPhase {
    /// Bayesian-network training and per-variable distribution derivation.
    Model,
    /// C-table construction (Algorithm 2).
    CTable,
    /// Per-round probability refresh, object ranking, and task assembly.
    Select,
    /// Posting the batch to the crowd platform and collecting outcomes.
    Post,
    /// Folding answers back: cache invalidation, constraint propagation,
    /// distribution re-conditioning.
    Propagate,
    /// Deriving the final answer set from the terminal c-table state.
    Finalize,
}

impl RunPhase {
    /// All phases, in execution order.
    pub const ALL: [RunPhase; 6] = [
        RunPhase::Model,
        RunPhase::CTable,
        RunPhase::Select,
        RunPhase::Post,
        RunPhase::Propagate,
        RunPhase::Finalize,
    ];

    /// Stable lowercase name used in traces.
    pub fn name(self) -> &'static str {
        match self {
            RunPhase::Model => "model",
            RunPhase::CTable => "ctable",
            RunPhase::Select => "select",
            RunPhase::Post => "post",
            RunPhase::Propagate => "propagate",
            RunPhase::Finalize => "finalize",
        }
    }

    /// Inverse of [`RunPhase::name`].
    pub fn from_name(name: &str) -> Option<RunPhase> {
        RunPhase::ALL.into_iter().find(|p| p.name() == name)
    }
}

impl fmt::Display for RunPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One structured event of a BayesCrowd run.
///
/// All `nanos` fields are monotonic (`std::time::Instant`) durations and
/// are the only non-deterministic parts of a seeded run's trace; see
/// [`Event::redact_timing`].
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// The run began; sizes of the input and the cost constraints.
    RunStarted {
        /// Objects in the dataset.
        objects: usize,
        /// Attributes per object.
        attrs: usize,
        /// Missing cells (c-table variables before pruning).
        missing_vars: usize,
        /// Task budget `B`.
        budget: usize,
        /// Latency constraint `L` (rounds).
        latency: usize,
    },
    /// The Bayesian network was trained.
    ModelTrained {
        /// Total BIC score of the learned structure on the complete rows
        /// (`0.0` for the uniform-prior ablation or with no complete rows).
        bic: f64,
        /// Edges in the learned DAG.
        edges: usize,
        /// EM sweeps performed (`0` when EM was disabled).
        em_iters: usize,
        /// Structure-search moves applied (hill-climb improving moves or
        /// accepted annealing moves).
        search_iters: usize,
        /// Training wall-clock time.
        nanos: u128,
        /// The part of `nanos` spent inferring each missing cell's
        /// conditional pmf. Traces written before this field existed read
        /// it as 0.
        infer_nanos: u128,
    },
    /// The c-table was built.
    CTableBuilt {
        /// Objects (= conditions) in the table.
        objects: usize,
        /// Objects whose condition is still undecided.
        open_objects: usize,
        /// Distinct variables appearing in open conditions.
        vars: usize,
        /// Expressions across open conditions.
        exprs: usize,
        /// Objects discarded outright by α-pruning.
        pruned: usize,
        /// Sum of dominator-set sizes over all objects (`Σ |D(o)|`).
        candidates: u64,
        /// Bitset words combined while deriving dominator sets (zero for
        /// the pairwise baseline).
        bitset_words: u64,
        /// Construction wall-clock time.
        nanos: u128,
    },
    /// A crowdsourcing round began.
    RoundStarted {
        /// 1-based round index (framework rounds, not platform rounds:
        /// straggling platforms may charge extra latency per batch).
        round: usize,
    },
    /// A batch of condition probabilities was computed.
    ProbabilityBatch {
        /// Which phase requested the batch.
        phase: RunPhase,
        /// Conditions solved (cached conditions are not re-solved and do
        /// not appear here).
        objects: usize,
        /// Solver invocations, including fallback re-solves.
        solver_calls: u64,
        /// Value-branching decisions taken by the solver.
        branches: u64,
        /// Component probabilities served from the solver's cache.
        cache_hits: u64,
        /// Conditions the configured solver failed on and a fresh ADPLL
        /// re-solved — silent degradation made visible.
        fallbacks: u64,
        /// Batch wall-clock time.
        nanos: u128,
    },
    /// The search-tree shape behind one probability batch: what the exact
    /// solver actually did while the matching [`Event::ProbabilityBatch`]
    /// was being computed. Emitted right after it.
    SolverSearch {
        /// Which phase requested the batch.
        phase: RunPhase,
        /// Value-branching decisions taken.
        decisions: u64,
        /// Independent components closed directly by the disjunctive rule.
        direct_components: u64,
        /// Component decompositions that split a condition into more than
        /// one independent sub-problem.
        component_splits: u64,
        /// Component probabilities served from the solver cache.
        cache_hits: u64,
        /// Correlated components solved by branching (cache empty or
        /// caching disabled).
        cache_misses: u64,
        /// Deepest branching recursion reached in the batch.
        max_depth: u64,
    },
    /// The utility sweep of one select phase: the marginal utilities
    /// `G(o, e)` that task selection evaluated (Definition 6). Each needs
    /// one `Pr(φ ∧ e)` solve; the solves of a sweep share an ADPLL
    /// component memo. Emitted once per select phase, all zero when the
    /// phase selected nothing fresh.
    UtilitySweep {
        /// Marginal utilities evaluated.
        evals: u64,
        /// Solver invocations, including fallback re-solves.
        solver_calls: u64,
        /// Value-branching decisions taken by those invocations.
        decisions: u64,
        /// Component probabilities served from the solver cache or the
        /// sweep memo.
        cache_hits: u64,
        /// Solves the configured solver failed and a fresh ADPLL redid.
        fallbacks: u64,
        /// Sweep wall-clock time.
        nanos: u128,
    },
    /// Crowd answers were propagated through the constraint store.
    Propagated {
        /// Answers folded in.
        answers: usize,
        /// Conditions that became decided.
        decided: usize,
        /// Deepest per-condition simplify/substitute fixpoint iteration.
        depth: usize,
        /// Propagation wall-clock time.
        nanos: u128,
    },
    /// A crowdsourcing round finished. Per round,
    /// `posted == answered + expired + requeued` — every posted task is
    /// accounted for exactly once.
    RoundFinished {
        /// 1-based round index.
        round: usize,
        /// Tasks posted this round (including re-posts).
        posted: usize,
        /// Tasks that came back answered.
        answered: usize,
        /// Tasks abandoned for good this round (final attempt failed).
        expired: usize,
        /// Failed tasks re-queued for a later attempt.
        requeued: usize,
        /// Re-posts of previously failed tasks included in `posted`.
        retried: usize,
        /// Round wall-clock time (select + post + propagate).
        nanos: u128,
    },
    /// A phase span closed.
    SpanFinished {
        /// The phase that just finished.
        phase: RunPhase,
        /// Span wall-clock time.
        nanos: u128,
    },
    /// The run gave up on at least one task; the answer set falls back to
    /// posterior probabilities for the affected conditions.
    Degraded {
        /// Tasks still queued (and still useful) when budget or latency ran
        /// out — abandoned at finalization, on top of per-round expiries.
        tasks_abandoned: usize,
    },
    /// A durable checkpoint of the full run state was written.
    CheckpointWritten {
        /// 1-based round index the checkpoint covers (0 before any round).
        round: usize,
        /// Serialized size of the snapshot document.
        bytes: usize,
        /// Serialization wall-clock time.
        nanos: u128,
    },
    /// A run was restored from a checkpoint and is about to continue.
    Resumed {
        /// 1-based round index the run continues after.
        round: usize,
        /// Budget remaining at the checkpoint.
        budget_left: usize,
        /// Open c-table expressions at the checkpoint.
        open_exprs: usize,
        /// Size of the snapshot document read.
        bytes: usize,
        /// Read, parse and restore wall-clock time.
        nanos: u128,
    },
    /// The run finished; totals mirror the final `RunReport`.
    RunFinished {
        /// Platform-visible rounds consumed.
        rounds: usize,
        /// Total tasks posted.
        tasks_posted: usize,
        /// Total tasks answered.
        tasks_answered: usize,
        /// Total tasks abandoned without a usable answer.
        tasks_expired: usize,
        /// Total re-posts.
        tasks_retried: usize,
        /// Condition-probability evaluations performed.
        probability_evals: u64,
        /// Total run wall-clock time.
        nanos: u128,
    },
}

impl Event {
    /// Stable event-kind name used in traces.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RunStarted { .. } => "RunStarted",
            Event::ModelTrained { .. } => "ModelTrained",
            Event::CTableBuilt { .. } => "CTableBuilt",
            Event::RoundStarted { .. } => "RoundStarted",
            Event::ProbabilityBatch { .. } => "ProbabilityBatch",
            Event::SolverSearch { .. } => "SolverSearch",
            Event::UtilitySweep { .. } => "UtilitySweep",
            Event::Propagated { .. } => "Propagated",
            Event::RoundFinished { .. } => "RoundFinished",
            Event::SpanFinished { .. } => "SpanFinished",
            Event::Degraded { .. } => "Degraded",
            Event::CheckpointWritten { .. } => "CheckpointWritten",
            Event::Resumed { .. } => "Resumed",
            Event::RunFinished { .. } => "RunFinished",
        }
    }

    /// A copy with every `nanos` field zeroed — the deterministic part of a
    /// seeded run's trace (golden-trace tests compare these).
    pub fn redact_timing(&self) -> Event {
        let mut e = self.clone();
        match &mut e {
            Event::ModelTrained {
                nanos, infer_nanos, ..
            } => (*nanos, *infer_nanos) = (0, 0),
            Event::CTableBuilt { nanos, .. }
            | Event::ProbabilityBatch { nanos, .. }
            | Event::UtilitySweep { nanos, .. }
            | Event::Propagated { nanos, .. }
            | Event::RoundFinished { nanos, .. }
            | Event::SpanFinished { nanos, .. }
            | Event::CheckpointWritten { nanos, .. }
            | Event::Resumed { nanos, .. }
            | Event::RunFinished { nanos, .. } => *nanos = 0,
            Event::RunStarted { .. }
            | Event::RoundStarted { .. }
            | Event::SolverSearch { .. }
            | Event::Degraded { .. } => {}
        }
        e
    }

    /// Serializes the event as one JSON object on one line, prefixed with a
    /// sequence number: `{"seq":3,"event":"RoundStarted","round":1}`.
    pub fn to_json_line(&self, seq: u64) -> String {
        self.to_value(seq).to_json()
    }

    /// Parses one line written by [`Event::to_json_line`] (surrounding
    /// whitespace and unknown keys are ignored), returning the sequence
    /// number and the event. Returns `None` when the line is not JSON, names
    /// no known event, or lacks a field or holds one of the wrong type.
    pub fn from_json_line(line: &str) -> Option<(u64, Event)> {
        let value = Value::parse(line.trim()).ok()?;
        Event::from_value(&value).ok()
    }

    /// The event as a flat map: `seq`, `event` (the kind), then the
    /// variant's fields in declaration order.
    fn to_value(&self, seq: u64) -> Value {
        let u = |n: usize| Value::Int(n as i128);
        let w = |n: u64| Value::Int(n.into());
        let phase = |p: RunPhase| Value::Str(p.name().into());
        let mut entries = vec![("seq", w(seq)), ("event", Value::Str(self.kind().into()))];
        match self {
            Event::RunStarted {
                objects,
                attrs,
                missing_vars,
                budget,
                latency,
            } => entries.extend([
                ("objects", u(*objects)),
                ("attrs", u(*attrs)),
                ("missing_vars", u(*missing_vars)),
                ("budget", u(*budget)),
                ("latency", u(*latency)),
            ]),
            Event::ModelTrained {
                bic,
                edges,
                em_iters,
                search_iters,
                nanos,
                infer_nanos,
            } => entries.extend([
                // JSON has no NaN/Inf; traces should stay parseable regardless.
                (
                    "bic",
                    Value::Float(if bic.is_finite() { *bic } else { 0.0 }),
                ),
                ("edges", u(*edges)),
                ("em_iters", u(*em_iters)),
                ("search_iters", u(*search_iters)),
                ("nanos", nanos_value(*nanos)),
                ("infer_nanos", nanos_value(*infer_nanos)),
            ]),
            Event::CTableBuilt {
                objects,
                open_objects,
                vars,
                exprs,
                pruned,
                candidates,
                bitset_words,
                nanos,
            } => entries.extend([
                ("objects", u(*objects)),
                ("open_objects", u(*open_objects)),
                ("vars", u(*vars)),
                ("exprs", u(*exprs)),
                ("pruned", u(*pruned)),
                ("candidates", w(*candidates)),
                ("bitset_words", w(*bitset_words)),
                ("nanos", nanos_value(*nanos)),
            ]),
            Event::RoundStarted { round } => entries.push(("round", u(*round))),
            Event::ProbabilityBatch {
                phase: p,
                objects,
                solver_calls,
                branches,
                cache_hits,
                fallbacks,
                nanos,
            } => entries.extend([
                ("phase", phase(*p)),
                ("objects", u(*objects)),
                ("solver_calls", w(*solver_calls)),
                ("branches", w(*branches)),
                ("cache_hits", w(*cache_hits)),
                ("fallbacks", w(*fallbacks)),
                ("nanos", nanos_value(*nanos)),
            ]),
            Event::SolverSearch {
                phase: p,
                decisions,
                direct_components,
                component_splits,
                cache_hits,
                cache_misses,
                max_depth,
            } => entries.extend([
                ("phase", phase(*p)),
                ("decisions", w(*decisions)),
                ("direct_components", w(*direct_components)),
                ("component_splits", w(*component_splits)),
                ("cache_hits", w(*cache_hits)),
                ("cache_misses", w(*cache_misses)),
                ("max_depth", w(*max_depth)),
            ]),
            Event::UtilitySweep {
                evals,
                solver_calls,
                decisions,
                cache_hits,
                fallbacks,
                nanos,
            } => entries.extend([
                ("evals", w(*evals)),
                ("solver_calls", w(*solver_calls)),
                ("decisions", w(*decisions)),
                ("cache_hits", w(*cache_hits)),
                ("fallbacks", w(*fallbacks)),
                ("nanos", nanos_value(*nanos)),
            ]),
            Event::Propagated {
                answers,
                decided,
                depth,
                nanos,
            } => entries.extend([
                ("answers", u(*answers)),
                ("decided", u(*decided)),
                ("depth", u(*depth)),
                ("nanos", nanos_value(*nanos)),
            ]),
            Event::RoundFinished {
                round,
                posted,
                answered,
                expired,
                requeued,
                retried,
                nanos,
            } => entries.extend([
                ("round", u(*round)),
                ("posted", u(*posted)),
                ("answered", u(*answered)),
                ("expired", u(*expired)),
                ("requeued", u(*requeued)),
                ("retried", u(*retried)),
                ("nanos", nanos_value(*nanos)),
            ]),
            Event::SpanFinished { phase: p, nanos } => {
                entries.extend([("phase", phase(*p)), ("nanos", nanos_value(*nanos))])
            }
            Event::Degraded { tasks_abandoned } => {
                entries.push(("tasks_abandoned", u(*tasks_abandoned)))
            }
            Event::CheckpointWritten {
                round,
                bytes,
                nanos,
            } => entries.extend([
                ("round", u(*round)),
                ("bytes", u(*bytes)),
                ("nanos", nanos_value(*nanos)),
            ]),
            Event::Resumed {
                round,
                budget_left,
                open_exprs,
                bytes,
                nanos,
            } => entries.extend([
                ("round", u(*round)),
                ("budget_left", u(*budget_left)),
                ("open_exprs", u(*open_exprs)),
                ("bytes", u(*bytes)),
                ("nanos", nanos_value(*nanos)),
            ]),
            Event::RunFinished {
                rounds,
                tasks_posted,
                tasks_answered,
                tasks_expired,
                tasks_retried,
                probability_evals,
                nanos,
            } => entries.extend([
                ("rounds", u(*rounds)),
                ("tasks_posted", u(*tasks_posted)),
                ("tasks_answered", u(*tasks_answered)),
                ("tasks_expired", u(*tasks_expired)),
                ("tasks_retried", u(*tasks_retried)),
                ("probability_evals", w(*probability_evals)),
                ("nanos", nanos_value(*nanos)),
            ]),
        }
        Value::obj(entries)
    }

    /// Inverse of [`Event::to_value`].
    fn from_value(v: &Value) -> Result<(u64, Event), SnapshotError> {
        let phase = || {
            let name = v.field_str("phase")?;
            RunPhase::from_name(name)
                .ok_or_else(|| SnapshotError::invalid(format!("unknown phase {name:?}")))
        };
        let event = match v.field_str("event")? {
            "RunStarted" => Event::RunStarted {
                objects: v.field_usize("objects")?,
                attrs: v.field_usize("attrs")?,
                missing_vars: v.field_usize("missing_vars")?,
                budget: v.field_usize("budget")?,
                latency: v.field_usize("latency")?,
            },
            "ModelTrained" => Event::ModelTrained {
                bic: v.field_f64("bic")?,
                edges: v.field_usize("edges")?,
                em_iters: v.field_usize("em_iters")?,
                search_iters: v.field_usize("search_iters")?,
                nanos: v.field_u128("nanos")?,
                infer_nanos: match v.get("infer_nanos") {
                    Some(_) => v.field_u128("infer_nanos")?,
                    None => 0,
                },
            },
            "CTableBuilt" => Event::CTableBuilt {
                objects: v.field_usize("objects")?,
                open_objects: v.field_usize("open_objects")?,
                vars: v.field_usize("vars")?,
                exprs: v.field_usize("exprs")?,
                pruned: v.field_usize("pruned")?,
                candidates: v.field_u64("candidates")?,
                bitset_words: v.field_u64("bitset_words")?,
                nanos: v.field_u128("nanos")?,
            },
            "RoundStarted" => Event::RoundStarted {
                round: v.field_usize("round")?,
            },
            "ProbabilityBatch" => Event::ProbabilityBatch {
                phase: phase()?,
                objects: v.field_usize("objects")?,
                solver_calls: v.field_u64("solver_calls")?,
                branches: v.field_u64("branches")?,
                cache_hits: v.field_u64("cache_hits")?,
                fallbacks: v.field_u64("fallbacks")?,
                nanos: v.field_u128("nanos")?,
            },
            "SolverSearch" => Event::SolverSearch {
                phase: phase()?,
                decisions: v.field_u64("decisions")?,
                direct_components: v.field_u64("direct_components")?,
                component_splits: v.field_u64("component_splits")?,
                cache_hits: v.field_u64("cache_hits")?,
                cache_misses: v.field_u64("cache_misses")?,
                max_depth: v.field_u64("max_depth")?,
            },
            "UtilitySweep" => Event::UtilitySweep {
                evals: v.field_u64("evals")?,
                solver_calls: v.field_u64("solver_calls")?,
                decisions: v.field_u64("decisions")?,
                cache_hits: v.field_u64("cache_hits")?,
                fallbacks: v.field_u64("fallbacks")?,
                nanos: v.field_u128("nanos")?,
            },
            "Propagated" => Event::Propagated {
                answers: v.field_usize("answers")?,
                decided: v.field_usize("decided")?,
                depth: v.field_usize("depth")?,
                nanos: v.field_u128("nanos")?,
            },
            "RoundFinished" => Event::RoundFinished {
                round: v.field_usize("round")?,
                posted: v.field_usize("posted")?,
                answered: v.field_usize("answered")?,
                expired: v.field_usize("expired")?,
                requeued: v.field_usize("requeued")?,
                retried: v.field_usize("retried")?,
                nanos: v.field_u128("nanos")?,
            },
            "SpanFinished" => Event::SpanFinished {
                phase: phase()?,
                nanos: v.field_u128("nanos")?,
            },
            "Degraded" => Event::Degraded {
                tasks_abandoned: v.field_usize("tasks_abandoned")?,
            },
            "CheckpointWritten" => Event::CheckpointWritten {
                round: v.field_usize("round")?,
                bytes: v.field_usize("bytes")?,
                nanos: v.field_u128("nanos")?,
            },
            "Resumed" => Event::Resumed {
                round: v.field_usize("round")?,
                budget_left: v.field_usize("budget_left")?,
                open_exprs: v.field_usize("open_exprs")?,
                bytes: v.field_usize("bytes")?,
                nanos: v.field_u128("nanos")?,
            },
            "RunFinished" => Event::RunFinished {
                rounds: v.field_usize("rounds")?,
                tasks_posted: v.field_usize("tasks_posted")?,
                tasks_answered: v.field_usize("tasks_answered")?,
                tasks_expired: v.field_usize("tasks_expired")?,
                tasks_retried: v.field_usize("tasks_retried")?,
                probability_evals: v.field_u64("probability_evals")?,
                nanos: v.field_u128("nanos")?,
            },
            other => return Err(SnapshotError::invalid(format!("unknown event {other:?}"))),
        };
        Ok((v.field_u64("seq")?, event))
    }
}

/// A `nanos` duration as a JSON integer, saturating at `i128::MAX`.
pub(crate) fn nanos_value(nanos: u128) -> Value {
    Value::Int(i128::try_from(nanos).unwrap_or(i128::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::RunStarted {
                objects: 5,
                attrs: 5,
                missing_vars: 5,
                budget: 6,
                latency: 3,
            },
            Event::ModelTrained {
                bic: -12.5,
                edges: 2,
                em_iters: 0,
                search_iters: 3,
                nanos: 1234,
                infer_nanos: 1000,
            },
            Event::CTableBuilt {
                objects: 5,
                open_objects: 3,
                vars: 4,
                exprs: 13,
                pruned: 0,
                candidates: 7,
                bitset_words: 25,
                nanos: 99,
            },
            Event::RoundStarted { round: 1 },
            Event::ProbabilityBatch {
                phase: RunPhase::Select,
                objects: 3,
                solver_calls: 3,
                branches: 17,
                cache_hits: 2,
                fallbacks: 1,
                nanos: 777,
            },
            Event::SolverSearch {
                phase: RunPhase::Select,
                decisions: 17,
                direct_components: 4,
                component_splits: 1,
                cache_hits: 2,
                cache_misses: 5,
                max_depth: 3,
            },
            Event::UtilitySweep {
                evals: 12,
                solver_calls: 13,
                decisions: 40,
                cache_hits: 9,
                fallbacks: 1,
                nanos: 4321,
            },
            Event::Propagated {
                answers: 2,
                decided: 1,
                depth: 2,
                nanos: 55,
            },
            Event::RoundFinished {
                round: 1,
                posted: 2,
                answered: 2,
                expired: 0,
                requeued: 0,
                retried: 0,
                nanos: 888,
            },
            Event::SpanFinished {
                phase: RunPhase::Post,
                nanos: 11,
            },
            Event::Degraded { tasks_abandoned: 1 },
            Event::CheckpointWritten {
                round: 2,
                bytes: 20_480,
                nanos: 321,
            },
            Event::Resumed {
                round: 2,
                budget_left: 4,
                open_exprs: 7,
                bytes: 257_000,
                nanos: 2_300_000,
            },
            Event::RunFinished {
                rounds: 3,
                tasks_posted: 6,
                tasks_answered: 5,
                tasks_expired: 1,
                tasks_retried: 0,
                probability_evals: 9,
                nanos: 4242,
            },
        ]
    }

    /// What `to_json_line` wrote for `sample_events()` while traces kept a
    /// space after every `:` and `,`; traces written then must still parse.
    /// (Those lines had no `infer_nanos`; the line below carries it so the
    /// spacing check covers it, and `model_trained_without_infer_nanos_reads_zero`
    /// covers its absence.)
    const SPACED_SAMPLE_LINES: [&str; 14] = [
        r#"{"seq": 0, "event": "RunStarted", "objects": 5, "attrs": 5, "missing_vars": 5, "budget": 6, "latency": 3}"#,
        r#"{"seq": 1, "event": "ModelTrained", "bic": -12.5, "edges": 2, "em_iters": 0, "search_iters": 3, "nanos": 1234, "infer_nanos": 1000}"#,
        r#"{"seq": 2, "event": "CTableBuilt", "objects": 5, "open_objects": 3, "vars": 4, "exprs": 13, "pruned": 0, "candidates": 7, "bitset_words": 25, "nanos": 99}"#,
        r#"{"seq": 3, "event": "RoundStarted", "round": 1}"#,
        r#"{"seq": 4, "event": "ProbabilityBatch", "phase": "select", "objects": 3, "solver_calls": 3, "branches": 17, "cache_hits": 2, "fallbacks": 1, "nanos": 777}"#,
        r#"{"seq": 5, "event": "SolverSearch", "phase": "select", "decisions": 17, "direct_components": 4, "component_splits": 1, "cache_hits": 2, "cache_misses": 5, "max_depth": 3}"#,
        r#"{"seq": 6, "event": "UtilitySweep", "evals": 12, "solver_calls": 13, "decisions": 40, "cache_hits": 9, "fallbacks": 1, "nanos": 4321}"#,
        r#"{"seq": 7, "event": "Propagated", "answers": 2, "decided": 1, "depth": 2, "nanos": 55}"#,
        r#"{"seq": 8, "event": "RoundFinished", "round": 1, "posted": 2, "answered": 2, "expired": 0, "requeued": 0, "retried": 0, "nanos": 888}"#,
        r#"{"seq": 9, "event": "SpanFinished", "phase": "post", "nanos": 11}"#,
        r#"{"seq": 10, "event": "Degraded", "tasks_abandoned": 1}"#,
        r#"{"seq": 11, "event": "CheckpointWritten", "round": 2, "bytes": 20480, "nanos": 321}"#,
        r#"{"seq": 12, "event": "Resumed", "round": 2, "budget_left": 4, "open_exprs": 7, "bytes": 257000, "nanos": 2300000}"#,
        r#"{"seq": 13, "event": "RunFinished", "rounds": 3, "tasks_posted": 6, "tasks_answered": 5, "tasks_expired": 1, "tasks_retried": 0, "probability_evals": 9, "nanos": 4242}"#,
    ];

    #[test]
    fn every_event_round_trips_through_json() {
        for (i, e) in sample_events().into_iter().enumerate() {
            let line = e.to_json_line(i as u64);
            let (seq, back) =
                Event::from_json_line(&line).unwrap_or_else(|| panic!("unparseable line: {line}"));
            assert_eq!(seq, i as u64);
            assert_eq!(back, e, "round-trip mismatch for {line}");
        }
    }

    #[test]
    fn spaced_lines_parse_and_new_lines_only_drop_the_spaces() {
        for (i, (e, spaced)) in sample_events()
            .into_iter()
            .zip(SPACED_SAMPLE_LINES)
            .enumerate()
        {
            assert_eq!(Event::from_json_line(spaced), Some((i as u64, e.clone())));
            let compact = spaced.replace(": ", ":").replace(", ", ",");
            assert_eq!(e.to_json_line(i as u64), compact);
        }
    }

    #[test]
    fn model_trained_without_infer_nanos_reads_zero() {
        let line = r#"{"seq":1,"event":"ModelTrained","bic":-12.5,"edges":2,"em_iters":0,"search_iters":3,"nanos":1234}"#;
        assert_eq!(
            Event::from_json_line(line),
            Some((
                1,
                Event::ModelTrained {
                    bic: -12.5,
                    edges: 2,
                    em_iters: 0,
                    search_iters: 3,
                    nanos: 1234,
                    infer_nanos: 0,
                }
            ))
        );
    }

    #[test]
    fn counters_are_read_exactly() {
        for bad in [
            r#"{"seq": 1, "event": "RoundStarted", "round": -3}"#,
            r#"{"seq": 1, "event": "RoundStarted", "round": 2.5}"#,
        ] {
            assert_eq!(Event::from_json_line(bad), None, "accepted {bad}");
        }
        for n in [(1u64 << 53) + 1, u64::MAX] {
            let e = Event::CTableBuilt {
                objects: 5,
                open_objects: 3,
                vars: 4,
                exprs: 13,
                pruned: 0,
                candidates: n,
                bitset_words: n,
                nanos: n.into(),
            };
            assert_eq!(Event::from_json_line(&e.to_json_line(n)), Some((n, e)));
        }
    }

    #[test]
    fn redaction_zeroes_only_timing() {
        let e = Event::RoundFinished {
            round: 2,
            posted: 3,
            answered: 1,
            expired: 1,
            requeued: 1,
            retried: 0,
            nanos: 123,
        };
        match e.redact_timing() {
            Event::RoundFinished {
                round,
                posted,
                nanos,
                ..
            } => {
                assert_eq!((round, posted, nanos), (2, 3, 0));
            }
            other => panic!("wrong variant: {other:?}"),
        }
        // A resume keeps its size and loses its time.
        let resumed = Event::Resumed {
            round: 2,
            budget_left: 4,
            open_exprs: 7,
            bytes: 900,
            nanos: 55,
        };
        assert_eq!(
            resumed.redact_timing(),
            Event::Resumed {
                round: 2,
                budget_left: 4,
                open_exprs: 7,
                bytes: 900,
                nanos: 0,
            }
        );
        // Training loses both of its times.
        match sample_events()[1].redact_timing() {
            Event::ModelTrained {
                edges,
                nanos,
                infer_nanos,
                ..
            } => assert_eq!((edges, nanos, infer_nanos), (2, 0, 0)),
            other => panic!("wrong variant: {other:?}"),
        }
        // Events without timing are untouched.
        let s = Event::RoundStarted { round: 7 };
        assert_eq!(s.redact_timing(), s);
    }

    #[test]
    fn phase_names_round_trip() {
        for p in RunPhase::ALL {
            assert_eq!(RunPhase::from_name(p.name()), Some(p));
        }
        assert_eq!(RunPhase::from_name("bogus"), None);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Event::from_json_line("not json").is_none());
        assert!(Event::from_json_line("{\"seq\": 1}").is_none());
        assert!(
            Event::from_json_line("{\"seq\": 1, \"event\": \"RoundStarted\"}").is_none(),
            "missing fields must not parse"
        );
        assert!(Event::from_json_line("{\"seq\": 1, \"event\": \"Nope\", \"x\": 2}").is_none());
    }

    #[test]
    fn non_finite_floats_stay_parseable() {
        let e = Event::ModelTrained {
            bic: f64::NAN,
            edges: 0,
            em_iters: 0,
            search_iters: 0,
            nanos: 0,
            infer_nanos: 0,
        };
        let line = e.to_json_line(0);
        assert!(line.contains("\"bic\":0.0"), "{line}");
        assert!(Event::from_json_line(&line).is_some());
    }
}
