//! Performance suite with a machine-readable regression document.
//!
//! [`run_suite`] drives a fixed workload matrix — both datasets × solver
//! kinds × task strategies — through full BayesCrowd runs with warmup and
//! repeated trials, summarizing every metric as median + MAD (median
//! absolute deviation), and packages the result as a versioned
//! [`BenchDoc`] serialized through the canonical [`bc_snapshot::Value`]
//! JSON writer (`BENCH.json`). [`diff`] compares two documents with
//! noise-aware thresholds and backs the `perfdiff` regression gate.
//!
//! Runs are sequential (`parallel = false`) on purpose: parallel batch
//! solving chunks work by the machine's core count, which makes
//! per-thread solver-cache counters machine-dependent. Sequential runs
//! keep every non-timing metric bit-for-bit reproducible, so `perfdiff`
//! can hold counters to tight thresholds and reserve the generous band
//! for wall-clock metrics only.

use crate::workloads::Workload;
use bayescrowd::{BayesCrowd, BayesCrowdConfig, RunError, SolverKind, TaskStrategy};
use bc_crowd::{GroundTruthOracle, SimulatedPlatform};
use bc_obs::{Event, MetricsRecorder, RunPhase};
use bc_snapshot::{SnapshotError, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// Document format version, bumped on any schema change.
pub const BENCH_VERSION: i128 = 1;

/// Workload sizes for the perf matrix. Smaller than the figure-harness
/// scales: the suite runs every matrix cell several times.
#[derive(Clone, Debug)]
pub struct PerfScale {
    /// Scale name recorded in the document (`tiny`, `small`, …).
    pub name: String,
    /// NBA-like dataset cardinality.
    pub nba_n: usize,
    /// Synthetic dataset cardinality.
    pub syn_n: usize,
    /// Task budget on NBA.
    pub nba_budget: usize,
    /// Task budget on Synthetic.
    pub syn_budget: usize,
}

impl PerfScale {
    /// CI smoke scale: seconds per trial even in debug builds.
    pub fn tiny() -> PerfScale {
        PerfScale {
            name: "tiny".into(),
            nba_n: 150,
            syn_n: 200,
            nba_budget: 8,
            syn_budget: 12,
        }
    }

    /// Local-machine scale: meaningful solver workloads, minutes overall.
    ///
    /// Sized to the worst cell of the matrix: the naive solver enumerates
    /// dominator-set assignments exhaustively, so its cost is exponential
    /// in the largest dominator set the workload produces. Cardinalities
    /// much past these make the `*/naive/*` cells effectively never
    /// terminate, which is the paper's point but not a usable benchmark.
    pub fn small() -> PerfScale {
        PerfScale {
            name: "small".into(),
            nba_n: 200,
            syn_n: 250,
            nba_budget: 15,
            syn_budget: 20,
        }
    }

    /// Looks a scale up by name.
    pub fn by_name(name: &str) -> Option<PerfScale> {
        match name {
            "tiny" => Some(PerfScale::tiny()),
            "small" => Some(PerfScale::small()),
            _ => None,
        }
    }
}

/// Options for [`run_suite`].
#[derive(Clone, Debug)]
pub struct PerfOptions {
    /// Workload sizes.
    pub scale: PerfScale,
    /// Measured trials per benchmark (median/MAD are taken over these).
    pub trials: usize,
    /// Unmeasured warmup runs per benchmark.
    pub warmup: usize,
    /// Only run benchmarks whose name contains this substring.
    pub filter: Option<String>,
}

impl Default for PerfOptions {
    fn default() -> Self {
        PerfOptions {
            scale: PerfScale::small(),
            trials: 3,
            warmup: 1,
            filter: None,
        }
    }
}

/// Median + median-absolute-deviation summary of one metric's trials.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricSummary {
    /// Median over trials.
    pub median: f64,
    /// Median absolute deviation from the median (0 for deterministic
    /// counters).
    pub mad: f64,
}

/// One benchmark's summarized metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Benchmark name, `dataset/solver/strategy`.
    pub name: String,
    /// Metric name → summary, sorted by name.
    pub metrics: BTreeMap<String, MetricSummary>,
}

/// A versioned BENCH.json document.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchDoc {
    /// Scale name the suite ran at.
    pub scale: String,
    /// Measured trials per benchmark.
    pub trials: usize,
    /// Warmup runs per benchmark.
    pub warmup: usize,
    /// Environment fingerprint: `os`, `arch`, `git_rev`, `profile`.
    pub env: BTreeMap<String, String>,
    /// Per-benchmark records, in matrix order.
    pub benchmarks: Vec<BenchRecord>,
}

/// Median of a sample (0.0 when empty). Not `pub(crate)`: perfdiff's
/// tests and future suites want it too.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median absolute deviation from the median.
pub fn mad(samples: &[f64]) -> f64 {
    let m = median(samples);
    let deviations: Vec<f64> = samples.iter().map(|x| (x - m).abs()).collect();
    median(&deviations)
}

fn summarize(trials: &[BTreeMap<String, f64>]) -> BTreeMap<String, MetricSummary> {
    let mut out = BTreeMap::new();
    let Some(first) = trials.first() else {
        return out;
    };
    for name in first.keys() {
        let samples: Vec<f64> = trials.iter().filter_map(|t| t.get(name)).copied().collect();
        out.insert(
            name.clone(),
            MetricSummary {
                median: median(&samples),
                mad: mad(&samples),
            },
        );
    }
    out
}

/// One cell of the benchmark matrix.
struct BenchCase {
    name: String,
    dataset: &'static str,
    solver: SolverKind,
    strategy: TaskStrategy,
}

fn matrix() -> Vec<BenchCase> {
    let mut cases = Vec::new();
    for dataset in ["nba", "synthetic"] {
        let m = if dataset == "nba" { 15 } else { 50 };
        for (solver_name, solver) in [("adpll", SolverKind::Adpll), ("naive", SolverKind::Naive)] {
            for (strat_name, strategy) in [
                ("fbs", TaskStrategy::Fbs),
                ("ubs", TaskStrategy::Ubs),
                ("hhs", TaskStrategy::Hhs { m }),
            ] {
                cases.push(BenchCase {
                    name: format!("{dataset}/{solver_name}/{strat_name}"),
                    dataset,
                    solver,
                    strategy,
                });
            }
        }
    }
    cases
}

fn config_for(case: &BenchCase, scale: &PerfScale) -> BayesCrowdConfig {
    let mut cfg = if case.dataset == "nba" {
        BayesCrowdConfig {
            budget: scale.nba_budget,
            alpha: 0.01,
            ..BayesCrowdConfig::nba_defaults()
        }
    } else {
        BayesCrowdConfig {
            budget: scale.syn_budget,
            latency: 10,
            alpha: 0.01,
            ..BayesCrowdConfig::default()
        }
    };
    cfg.solver = case.solver;
    cfg.strategy = case.strategy;
    // Sequential on purpose — see the module docs: parallel chunking is
    // machine-dependent and would make the solver counters so too.
    cfg.parallel = false;
    cfg
}

fn workload_for(case: &BenchCase, scale: &PerfScale) -> Workload {
    if case.dataset == "nba" {
        Workload::nba(scale.nba_n, 0.1, 42)
    } else {
        Workload::synthetic(scale.syn_n, 0.1, 42)
    }
}

/// Runs one full BayesCrowd campaign and extracts the metric map from the
/// recorded event stream.
fn run_trial(
    workload: &Workload,
    config: &BayesCrowdConfig,
) -> Result<BTreeMap<String, f64>, String> {
    let oracle = GroundTruthOracle::new(workload.complete.clone());
    let mut platform = SimulatedPlatform::new(oracle, 0.95, 7);
    let mut rec = MetricsRecorder::new();
    match BayesCrowd::new(config.clone()).try_run(&workload.incomplete, &mut platform, &mut rec) {
        Ok(_) | Err(RunError::PlatformExhausted { .. }) => {}
        Err(e) => return Err(format!("run failed: {e}")),
    }
    Ok(collect_metrics(&rec))
}

fn collect_metrics(rec: &MetricsRecorder) -> BTreeMap<String, f64> {
    let c = rec.counters();
    let mut m = BTreeMap::new();
    m.insert("total_nanos".into(), rec.total_nanos() as f64);
    m.insert("unattributed_nanos".into(), rec.unattributed_nanos() as f64);
    for phase in RunPhase::ALL {
        m.insert(
            format!("{}_nanos", phase.name()),
            rec.phase_nanos(phase) as f64,
        );
    }
    m.insert("rounds".into(), c.rounds as f64);
    m.insert("tasks_posted".into(), c.posted as f64);
    m.insert("tasks_answered".into(), c.answered as f64);
    m.insert("probability_evals".into(), c.probability_evals as f64);
    m.insert("solver_calls".into(), c.solver_calls as f64);
    m.insert("solver_decisions".into(), c.solver_branches as f64);
    m.insert("solver_cache_hits".into(), c.solver_cache_hits as f64);
    m.insert("solver_cache_misses".into(), c.solver_cache_misses as f64);
    m.insert(
        "solver_component_splits".into(),
        c.solver_component_splits as f64,
    );
    m.insert(
        "solver_direct_components".into(),
        c.solver_direct_components as f64,
    );
    m.insert("solver_max_depth".into(), c.solver_max_depth as f64);
    m.insert("solver_fallbacks".into(), c.solver_fallbacks as f64);
    m.insert("conditions_decided".into(), c.conditions_decided as f64);
    for event in rec.events() {
        if let Event::CTableBuilt {
            candidates,
            bitset_words,
            ..
        } = event
        {
            m.insert("ctable_candidates".into(), *candidates as f64);
            m.insert("ctable_bitset_words".into(), *bitset_words as f64);
        }
    }
    m
}

/// Best-effort git revision without spawning a subprocess: follows
/// `.git/HEAD` through loose and packed refs.
pub fn git_rev(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(refname)) {
        return rev.trim().to_string();
    }
    if let Ok(packed) = std::fs::read_to_string(git.join("packed-refs")) {
        for line in packed.lines() {
            if let Some(rev) = line.strip_suffix(refname) {
                return rev.trim().to_string();
            }
        }
    }
    "unknown".into()
}

fn environment() -> BTreeMap<String, String> {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut env = BTreeMap::new();
    env.insert("os".into(), std::env::consts::OS.to_string());
    env.insert("arch".into(), std::env::consts::ARCH.to_string());
    env.insert("git_rev".into(), git_rev(&repo_root));
    env.insert(
        "profile".into(),
        if cfg!(debug_assertions) {
            "debug".into()
        } else {
            "release".into()
        },
    );
    env
}

/// Runs the full matrix and returns the summarized document. Progress
/// goes to stderr, one line per benchmark.
pub fn run_suite(opts: &PerfOptions) -> Result<BenchDoc, String> {
    if opts.trials == 0 {
        return Err("at least one trial is required".into());
    }
    let mut benchmarks = Vec::new();
    for case in matrix() {
        if let Some(f) = &opts.filter {
            if !case.name.contains(f.as_str()) {
                continue;
            }
        }
        let workload = workload_for(&case, &opts.scale);
        let config = config_for(&case, &opts.scale);
        for _ in 0..opts.warmup {
            run_trial(&workload, &config)?;
        }
        let mut trials = Vec::with_capacity(opts.trials);
        for _ in 0..opts.trials {
            trials.push(run_trial(&workload, &config)?);
        }
        let metrics = summarize(&trials);
        let total = metrics.get("total_nanos").map_or(0.0, |s| s.median);
        eprintln!("perf {}: total {:.1} ms median", case.name, total / 1e6);
        benchmarks.push(BenchRecord {
            name: case.name,
            metrics,
        });
    }
    Ok(BenchDoc {
        scale: opts.scale.name.clone(),
        trials: opts.trials,
        warmup: opts.warmup,
        env: environment(),
        benchmarks,
    })
}

impl BenchDoc {
    /// Serializes to the canonical [`Value`] tree.
    pub fn to_value(&self) -> Value {
        Value::obj(vec![
            ("bench_version", Value::Int(BENCH_VERSION)),
            ("scale", Value::Str(self.scale.clone())),
            ("trials", Value::Int(self.trials as i128)),
            ("warmup", Value::Int(self.warmup as i128)),
            (
                "env",
                Value::Map(
                    self.env
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                        .collect(),
                ),
            ),
            (
                "benchmarks",
                Value::List(
                    self.benchmarks
                        .iter()
                        .map(|b| {
                            Value::obj(vec![
                                ("name", Value::Str(b.name.clone())),
                                (
                                    "metrics",
                                    Value::Map(
                                        b.metrics
                                            .iter()
                                            .map(|(k, s)| {
                                                (
                                                    k.clone(),
                                                    Value::obj(vec![
                                                        ("median", Value::Float(s.median)),
                                                        ("mad", Value::Float(s.mad)),
                                                    ]),
                                                )
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Canonical JSON with a trailing newline; `parse` → `to_json` is
    /// byte-identical.
    pub fn to_json(&self) -> String {
        let mut s = self.to_value().to_json();
        s.push('\n');
        s
    }

    /// Parses a document produced by [`BenchDoc::to_json`].
    pub fn parse(input: &str) -> Result<BenchDoc, String> {
        let value = Value::parse(input.trim_end())?;
        BenchDoc::from_value(&value).map_err(|e| e.to_string())
    }

    fn from_value(value: &Value) -> Result<BenchDoc, SnapshotError> {
        let version = value
            .field("bench_version")?
            .as_int()
            .ok_or_else(|| SnapshotError::invalid("bench_version is not an integer"))?;
        if version != BENCH_VERSION {
            return Err(SnapshotError::invalid(format!(
                "unsupported bench_version {version}"
            )));
        }
        let mut env = BTreeMap::new();
        for (k, v) in value
            .field("env")?
            .as_map()
            .ok_or_else(|| SnapshotError::invalid("env is not a map"))?
        {
            let v = v
                .as_str()
                .ok_or_else(|| SnapshotError::invalid(format!("env.{k} is not a string")))?;
            env.insert(k.clone(), v.to_string());
        }
        let mut benchmarks = Vec::new();
        for b in value.field("benchmarks")?.list("benchmarks")? {
            let name = b.field_str("name")?.to_string();
            let mut metrics = BTreeMap::new();
            for (k, v) in b
                .field("metrics")?
                .as_map()
                .ok_or_else(|| SnapshotError::invalid(format!("{name}.metrics is not a map")))?
            {
                let summary = MetricSummary {
                    median: v.field_f64("median")?,
                    mad: v.field_f64("mad")?,
                };
                metrics.insert(k.clone(), summary);
            }
            benchmarks.push(BenchRecord { name, metrics });
        }
        Ok(BenchDoc {
            scale: value.field_str("scale")?.to_string(),
            trials: value.field_usize("trials")?,
            warmup: value.field_usize("warmup")?,
            env,
            benchmarks,
        })
    }
}

/// One metric that moved past its threshold between two documents.
#[derive(Clone, Debug)]
pub struct DiffEntry {
    /// Benchmark name.
    pub bench: String,
    /// Metric name.
    pub metric: String,
    /// Baseline median.
    pub old: f64,
    /// New median.
    pub new: f64,
    /// The largest new median that would have passed.
    pub allowed: f64,
}

/// Outcome of comparing two [`BenchDoc`]s.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Metrics that regressed beyond their noise threshold.
    pub regressions: Vec<DiffEntry>,
    /// Metrics that improved beyond the same threshold (informational).
    pub improvements: Vec<DiffEntry>,
    /// Benchmarks or metrics present in the baseline but absent from the
    /// new document — coverage loss is treated as a failure.
    pub missing: Vec<String>,
}

impl DiffReport {
    /// True when nothing regressed and nothing went missing.
    pub fn is_ok(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }
}

/// The increase over the baseline median that is still considered noise.
///
/// Wall-clock metrics (`*_nanos`) get a generous band — the committed
/// baseline usually comes from different hardware than CI — while
/// counters, which sequential runs make deterministic, are held tight.
pub fn allowed_increase(metric: &str, old: &MetricSummary) -> f64 {
    if metric.ends_with("_nanos") {
        (5.0 * old.mad).max(0.5 * old.median.abs()).max(5e7)
    } else {
        (4.0 * old.mad).max(0.15 * old.median.abs()).max(2.0)
    }
}

/// Compares `new` against the `old` baseline. Extra benchmarks or
/// metrics in `new` are ignored (they will enter the baseline when it is
/// regenerated); anything missing from `new` is flagged.
pub fn diff(old: &BenchDoc, new: &BenchDoc) -> DiffReport {
    let mut report = DiffReport::default();
    for old_bench in &old.benchmarks {
        let Some(new_bench) = new.benchmarks.iter().find(|b| b.name == old_bench.name) else {
            report.missing.push(old_bench.name.clone());
            continue;
        };
        for (metric, old_summary) in &old_bench.metrics {
            let Some(new_summary) = new_bench.metrics.get(metric) else {
                report.missing.push(format!("{}::{metric}", old_bench.name));
                continue;
            };
            let band = allowed_increase(metric, old_summary);
            let entry = DiffEntry {
                bench: old_bench.name.clone(),
                metric: metric.clone(),
                old: old_summary.median,
                new: new_summary.median,
                allowed: old_summary.median + band,
            };
            if new_summary.median > old_summary.median + band {
                report.regressions.push(entry);
            } else if new_summary.median < old_summary.median - band {
                report.improvements.push(entry);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> BenchDoc {
        let mut metrics = BTreeMap::new();
        metrics.insert(
            "solver_decisions".to_string(),
            MetricSummary {
                median: 420.0,
                mad: 0.0,
            },
        );
        metrics.insert(
            "total_nanos".to_string(),
            MetricSummary {
                median: 2.5e8,
                mad: 1.0e6,
            },
        );
        let mut env = BTreeMap::new();
        env.insert("os".to_string(), "linux".to_string());
        env.insert("arch".to_string(), "x86_64".to_string());
        env.insert("git_rev".to_string(), "deadbeef".to_string());
        env.insert("profile".to_string(), "release".to_string());
        BenchDoc {
            scale: "tiny".to_string(),
            trials: 3,
            warmup: 1,
            env,
            benchmarks: vec![BenchRecord {
                name: "nba/adpll/hhs".to_string(),
                metrics,
            }],
        }
    }

    #[test]
    fn median_and_mad() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mad(&[10.0, 10.0, 10.0]), 0.0);
        assert_eq!(mad(&[1.0, 2.0, 9.0]), 1.0);
    }

    #[test]
    fn doc_round_trip_is_byte_identical() {
        let doc = sample_doc();
        let json = doc.to_json();
        let parsed = BenchDoc::parse(&json).expect("canonical JSON parses");
        assert_eq!(parsed, doc);
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn parse_rejects_other_versions_and_junk() {
        assert!(BenchDoc::parse("{}").is_err());
        assert!(BenchDoc::parse("not json").is_err());
        let json = sample_doc().to_json();
        let other = json.replace("\"bench_version\":1,", "\"bench_version\":999,");
        assert_ne!(other, json, "version field not found to perturb");
        assert!(BenchDoc::parse(&other).is_err());
    }

    #[test]
    fn self_diff_is_clean_and_perturbation_is_caught() {
        let doc = sample_doc();
        assert!(diff(&doc, &doc).is_ok());

        // A doubled deterministic counter is a regression…
        let mut slow = doc.clone();
        slow.benchmarks[0]
            .metrics
            .get_mut("solver_decisions")
            .unwrap()
            .median = 840.0;
        let d = diff(&doc, &slow);
        assert!(!d.is_ok());
        assert_eq!(d.regressions.len(), 1);
        assert_eq!(d.regressions[0].metric, "solver_decisions");

        // …while small counter jitter and moderate wall-clock noise are not.
        let mut noisy = doc.clone();
        noisy.benchmarks[0]
            .metrics
            .get_mut("solver_decisions")
            .unwrap()
            .median = 421.0;
        noisy.benchmarks[0]
            .metrics
            .get_mut("total_nanos")
            .unwrap()
            .median = 3.0e8;
        assert!(diff(&doc, &noisy).is_ok());

        // A vanished benchmark is coverage loss, not a pass.
        let mut gone = doc.clone();
        gone.benchmarks.clear();
        assert!(!diff(&doc, &gone).is_ok());
    }

    #[test]
    fn improvements_are_reported_but_pass() {
        let doc = sample_doc();
        let mut fast = doc.clone();
        fast.benchmarks[0]
            .metrics
            .get_mut("solver_decisions")
            .unwrap()
            .median = 100.0;
        let d = diff(&doc, &fast);
        assert!(d.is_ok());
        assert_eq!(d.improvements.len(), 1);
    }

    #[test]
    fn suite_smoke_run_produces_solver_counters() {
        // One matrix cell at a micro scale: asserts the full pipeline
        // (run → events → metrics → summary) end to end.
        let opts = PerfOptions {
            scale: PerfScale::tiny(),
            trials: 2,
            warmup: 0,
            filter: Some("nba/adpll/hhs".into()),
        };
        let doc = run_suite(&opts).expect("suite runs");
        assert_eq!(doc.benchmarks.len(), 1);
        let metrics = &doc.benchmarks[0].metrics;
        for key in [
            "total_nanos",
            "solver_decisions",
            "solver_cache_hits",
            "solver_cache_misses",
            "ctable_candidates",
            "rounds",
        ] {
            assert!(metrics.contains_key(key), "missing {key}");
        }
        // Sequential runs keep counters deterministic across trials.
        assert_eq!(metrics["solver_decisions"].mad, 0.0);
        assert!(metrics["rounds"].median >= 1.0);
        let json = doc.to_json();
        let reparsed = BenchDoc::parse(&json).unwrap();
        assert_eq!(reparsed.to_json(), json);
    }
}
