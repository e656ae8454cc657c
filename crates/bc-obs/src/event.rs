//! The structured event taxonomy of a BayesCrowd run.
//!
//! Every event is a flat record of counters plus (where meaningful) a
//! monotonic duration in nanoseconds. Events serialize to single-line JSON
//! objects ([`Event::to_json_line`]) and parse back
//! ([`Event::from_json_line`]), so a JSON-lines trace written by one
//! process can be reconciled against the final run report by another.

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
            Event::ModelTrained { nanos, .. }
            | Event::CTableBuilt { nanos, .. }
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
    /// sequence number: `{"seq": 3, "event": "RoundStarted", "round": 1}`.
    pub fn to_json_line(&self, seq: u64) -> String {
        let mut s = format!("{{\"seq\": {seq}, \"event\": \"{}\"", self.kind());
        let field_u = |s: &mut String, k: &str, v: u128| {
            s.push_str(&format!(", \"{k}\": {v}"));
        };
        match self {
            Event::RunStarted {
                objects,
                attrs,
                missing_vars,
                budget,
                latency,
            } => {
                field_u(&mut s, "objects", *objects as u128);
                field_u(&mut s, "attrs", *attrs as u128);
                field_u(&mut s, "missing_vars", *missing_vars as u128);
                field_u(&mut s, "budget", *budget as u128);
                field_u(&mut s, "latency", *latency as u128);
            }
            Event::ModelTrained {
                bic,
                edges,
                em_iters,
                search_iters,
                nanos,
            } => {
                s.push_str(&format!(", \"bic\": {}", json_f64(*bic)));
                field_u(&mut s, "edges", *edges as u128);
                field_u(&mut s, "em_iters", *em_iters as u128);
                field_u(&mut s, "search_iters", *search_iters as u128);
                field_u(&mut s, "nanos", *nanos);
            }
            Event::CTableBuilt {
                objects,
                open_objects,
                vars,
                exprs,
                pruned,
                candidates,
                bitset_words,
                nanos,
            } => {
                field_u(&mut s, "objects", *objects as u128);
                field_u(&mut s, "open_objects", *open_objects as u128);
                field_u(&mut s, "vars", *vars as u128);
                field_u(&mut s, "exprs", *exprs as u128);
                field_u(&mut s, "pruned", *pruned as u128);
                field_u(&mut s, "candidates", *candidates as u128);
                field_u(&mut s, "bitset_words", *bitset_words as u128);
                field_u(&mut s, "nanos", *nanos);
            }
            Event::RoundStarted { round } => {
                field_u(&mut s, "round", *round as u128);
            }
            Event::ProbabilityBatch {
                phase,
                objects,
                solver_calls,
                branches,
                cache_hits,
                fallbacks,
                nanos,
            } => {
                s.push_str(&format!(", \"phase\": \"{}\"", phase.name()));
                field_u(&mut s, "objects", *objects as u128);
                field_u(&mut s, "solver_calls", *solver_calls as u128);
                field_u(&mut s, "branches", *branches as u128);
                field_u(&mut s, "cache_hits", *cache_hits as u128);
                field_u(&mut s, "fallbacks", *fallbacks as u128);
                field_u(&mut s, "nanos", *nanos);
            }
            Event::SolverSearch {
                phase,
                decisions,
                direct_components,
                component_splits,
                cache_hits,
                cache_misses,
                max_depth,
            } => {
                s.push_str(&format!(", \"phase\": \"{}\"", phase.name()));
                field_u(&mut s, "decisions", *decisions as u128);
                field_u(&mut s, "direct_components", *direct_components as u128);
                field_u(&mut s, "component_splits", *component_splits as u128);
                field_u(&mut s, "cache_hits", *cache_hits as u128);
                field_u(&mut s, "cache_misses", *cache_misses as u128);
                field_u(&mut s, "max_depth", *max_depth as u128);
            }
            Event::UtilitySweep {
                evals,
                solver_calls,
                decisions,
                cache_hits,
                fallbacks,
                nanos,
            } => {
                field_u(&mut s, "evals", *evals as u128);
                field_u(&mut s, "solver_calls", *solver_calls as u128);
                field_u(&mut s, "decisions", *decisions as u128);
                field_u(&mut s, "cache_hits", *cache_hits as u128);
                field_u(&mut s, "fallbacks", *fallbacks as u128);
                field_u(&mut s, "nanos", *nanos);
            }
            Event::Propagated {
                answers,
                decided,
                depth,
                nanos,
            } => {
                field_u(&mut s, "answers", *answers as u128);
                field_u(&mut s, "decided", *decided as u128);
                field_u(&mut s, "depth", *depth as u128);
                field_u(&mut s, "nanos", *nanos);
            }
            Event::RoundFinished {
                round,
                posted,
                answered,
                expired,
                requeued,
                retried,
                nanos,
            } => {
                field_u(&mut s, "round", *round as u128);
                field_u(&mut s, "posted", *posted as u128);
                field_u(&mut s, "answered", *answered as u128);
                field_u(&mut s, "expired", *expired as u128);
                field_u(&mut s, "requeued", *requeued as u128);
                field_u(&mut s, "retried", *retried as u128);
                field_u(&mut s, "nanos", *nanos);
            }
            Event::SpanFinished { phase, nanos } => {
                s.push_str(&format!(", \"phase\": \"{}\"", phase.name()));
                field_u(&mut s, "nanos", *nanos);
            }
            Event::Degraded { tasks_abandoned } => {
                field_u(&mut s, "tasks_abandoned", *tasks_abandoned as u128);
            }
            Event::CheckpointWritten {
                round,
                bytes,
                nanos,
            } => {
                field_u(&mut s, "round", *round as u128);
                field_u(&mut s, "bytes", *bytes as u128);
                field_u(&mut s, "nanos", *nanos);
            }
            Event::Resumed {
                round,
                budget_left,
                open_exprs,
                bytes,
                nanos,
            } => {
                field_u(&mut s, "round", *round as u128);
                field_u(&mut s, "budget_left", *budget_left as u128);
                field_u(&mut s, "open_exprs", *open_exprs as u128);
                field_u(&mut s, "bytes", *bytes as u128);
                field_u(&mut s, "nanos", *nanos);
            }
            Event::RunFinished {
                rounds,
                tasks_posted,
                tasks_answered,
                tasks_expired,
                tasks_retried,
                probability_evals,
                nanos,
            } => {
                field_u(&mut s, "rounds", *rounds as u128);
                field_u(&mut s, "tasks_posted", *tasks_posted as u128);
                field_u(&mut s, "tasks_answered", *tasks_answered as u128);
                field_u(&mut s, "tasks_expired", *tasks_expired as u128);
                field_u(&mut s, "tasks_retried", *tasks_retried as u128);
                field_u(&mut s, "probability_evals", *probability_evals as u128);
                field_u(&mut s, "nanos", *nanos);
            }
        }
        s.push('}');
        s
    }

    /// Parses one line written by [`Event::to_json_line`], returning the
    /// sequence number and the event. Returns `None` on any mismatch; this
    /// is a round-trip parser for our own trace format, not general JSON.
    pub fn from_json_line(line: &str) -> Option<(u64, Event)> {
        let fields = parse_flat_object(line)?;
        let seq = fields.num("seq")? as u64;
        let get_u = |k: &str| fields.num(k).map(|v| v as usize);
        let get_u64 = |k: &str| fields.num(k).map(|v| v as u64);
        let get_n = |k: &str| fields.num(k).map(|v| v as u128);
        let event = match fields.str("event")? {
            "RunStarted" => Event::RunStarted {
                objects: get_u("objects")?,
                attrs: get_u("attrs")?,
                missing_vars: get_u("missing_vars")?,
                budget: get_u("budget")?,
                latency: get_u("latency")?,
            },
            "ModelTrained" => Event::ModelTrained {
                bic: fields.num("bic")?,
                edges: get_u("edges")?,
                em_iters: get_u("em_iters")?,
                search_iters: get_u("search_iters")?,
                nanos: get_n("nanos")?,
            },
            "CTableBuilt" => Event::CTableBuilt {
                objects: get_u("objects")?,
                open_objects: get_u("open_objects")?,
                vars: get_u("vars")?,
                exprs: get_u("exprs")?,
                pruned: get_u("pruned")?,
                candidates: get_u64("candidates")?,
                bitset_words: get_u64("bitset_words")?,
                nanos: get_n("nanos")?,
            },
            "RoundStarted" => Event::RoundStarted {
                round: get_u("round")?,
            },
            "ProbabilityBatch" => Event::ProbabilityBatch {
                phase: RunPhase::from_name(fields.str("phase")?)?,
                objects: get_u("objects")?,
                solver_calls: get_u64("solver_calls")?,
                branches: get_u64("branches")?,
                cache_hits: get_u64("cache_hits")?,
                fallbacks: get_u64("fallbacks")?,
                nanos: get_n("nanos")?,
            },
            "SolverSearch" => Event::SolverSearch {
                phase: RunPhase::from_name(fields.str("phase")?)?,
                decisions: get_u64("decisions")?,
                direct_components: get_u64("direct_components")?,
                component_splits: get_u64("component_splits")?,
                cache_hits: get_u64("cache_hits")?,
                cache_misses: get_u64("cache_misses")?,
                max_depth: get_u64("max_depth")?,
            },
            "UtilitySweep" => Event::UtilitySweep {
                evals: get_u64("evals")?,
                solver_calls: get_u64("solver_calls")?,
                decisions: get_u64("decisions")?,
                cache_hits: get_u64("cache_hits")?,
                fallbacks: get_u64("fallbacks")?,
                nanos: get_n("nanos")?,
            },
            "Propagated" => Event::Propagated {
                answers: get_u("answers")?,
                decided: get_u("decided")?,
                depth: get_u("depth")?,
                nanos: get_n("nanos")?,
            },
            "RoundFinished" => Event::RoundFinished {
                round: get_u("round")?,
                posted: get_u("posted")?,
                answered: get_u("answered")?,
                expired: get_u("expired")?,
                requeued: get_u("requeued")?,
                retried: get_u("retried")?,
                nanos: get_n("nanos")?,
            },
            "SpanFinished" => Event::SpanFinished {
                phase: RunPhase::from_name(fields.str("phase")?)?,
                nanos: get_n("nanos")?,
            },
            "Degraded" => Event::Degraded {
                tasks_abandoned: get_u("tasks_abandoned")?,
            },
            "CheckpointWritten" => Event::CheckpointWritten {
                round: get_u("round")?,
                bytes: get_u("bytes")?,
                nanos: get_n("nanos")?,
            },
            "Resumed" => Event::Resumed {
                round: get_u("round")?,
                budget_left: get_u("budget_left")?,
                open_exprs: get_u("open_exprs")?,
                bytes: get_u("bytes")?,
                nanos: get_n("nanos")?,
            },
            "RunFinished" => Event::RunFinished {
                rounds: get_u("rounds")?,
                tasks_posted: get_u("tasks_posted")?,
                tasks_answered: get_u("tasks_answered")?,
                tasks_expired: get_u("tasks_expired")?,
                tasks_retried: get_u("tasks_retried")?,
                probability_evals: get_u64("probability_evals")?,
                nanos: get_n("nanos")?,
            },
            _ => return None,
        };
        Some((seq, event))
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        // JSON has no NaN/Inf; traces should stay parseable regardless.
        "0.0".into()
    }
}

/// A flat `key: string-or-number` JSON object, parsed.
struct FlatObject {
    fields: Vec<(String, FlatValue)>,
}

enum FlatValue {
    Num(f64),
    Str(String),
}

impl FlatObject {
    fn num(&self, key: &str) -> Option<f64> {
        self.fields.iter().find_map(|(k, v)| match v {
            FlatValue::Num(n) if k == key => Some(*n),
            _ => None,
        })
    }

    fn str(&self, key: &str) -> Option<&str> {
        self.fields.iter().find_map(|(k, v)| match v {
            FlatValue::Str(s) if k == key => Some(s.as_str()),
            _ => None,
        })
    }
}

/// Parses `{"k": v, ...}` where every value is a number or a plain string
/// (no escapes — event names and phase names never contain them).
fn parse_flat_object(line: &str) -> Option<FlatObject> {
    let mut rest = line.trim();
    rest = rest.strip_prefix('{')?;
    rest = rest.strip_suffix('}')?;
    let mut fields = Vec::new();
    while !rest.trim().is_empty() {
        rest = rest.trim_start();
        rest = rest.strip_prefix('"')?;
        let end = rest.find('"')?;
        let key = rest[..end].to_string();
        rest = rest[end + 1..].trim_start().strip_prefix(':')?;
        rest = rest.trim_start();
        if let Some(after) = rest.strip_prefix('"') {
            let end = after.find('"')?;
            fields.push((key, FlatValue::Str(after[..end].to_string())));
            rest = &after[end + 1..];
        } else {
            let end = rest
                .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
                .unwrap_or(rest.len());
            let num: f64 = rest[..end].parse().ok()?;
            fields.push((key, FlatValue::Num(num)));
            rest = &rest[end..];
        }
        rest = rest.trim_start();
        match rest.strip_prefix(',') {
            Some(r) => rest = r,
            None => break,
        }
    }
    Some(FlatObject { fields })
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
        };
        let line = e.to_json_line(0);
        assert!(line.contains("\"bic\": 0.0"), "{line}");
        assert!(Event::from_json_line(&line).is_some());
    }
}
