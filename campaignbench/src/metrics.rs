//! The metric catalogue, the result line, and small statistics helpers.

use std::fmt::Write as _;

/// One measured metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in [`END_TO_END`] or [`PER_LAYER`].
    pub name: String,
    /// Value in the metric's unit.
    pub value: f64,
}

impl Metric {
    /// A metric of the catalogue.
    pub fn new(name: &str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            value,
        }
    }

    /// The share of the traced program time one layer's self time takes.
    pub fn share(layer: &str, value: f64) -> Metric {
        Metric::new(&format!("{layer}.share"), value)
    }
}

/// A catalogue entry: name, unit, and whether higher or lower is better.
pub type Entry = (&'static str, &'static str, &'static str);

/// What the untraced run reports.
pub const END_TO_END: [Entry; 10] = [
    ("campaign_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("first_tasks_s", "s", "lower"),
    ("turnaround_s_p50", "s", "lower"),
    ("f1", "ratio", "higher"),
    ("precision", "ratio", "higher"),
    ("recall", "ratio", "higher"),
    ("tasks_posted", "count", "lower"),
    ("rounds", "count", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// What the traced run reports. Seconds and counts are per campaign,
/// averaged over the traced instances; shares are of the traced program
/// time.
pub const PER_LAYER: [Entry; 36] = [
    ("bc-bayes.learn_s", "s", "lower"),
    ("bc-bayes.em_iters", "count", "lower"),
    ("bc-bayes.search_iters", "count", "lower"),
    ("bc-ctable.build_s", "s", "lower"),
    ("bc-ctable.candidates", "count", "lower"),
    ("bc-ctable.exprs", "count", "lower"),
    ("bc-ctable.open_objects", "count", "lower"),
    ("bc-ctable.propagate_s", "s", "lower"),
    ("bc-ctable.decided", "count", "higher"),
    ("bc-solver.batch_s", "s", "lower"),
    ("bc-solver.batch_calls", "count", "lower"),
    ("bc-solver.batch_decisions", "count", "lower"),
    ("bc-solver.cache_hit_ratio", "ratio", "higher"),
    ("bc-solver.fallbacks", "count", "lower"),
    ("selection.select_s", "s", "lower"),
    ("selection.assemble_s", "s", "lower"),
    ("selection.utility_s", "s", "lower"),
    ("selection.utility_evals", "count", "lower"),
    ("selection.utility_solver_calls", "count", "lower"),
    ("selection.utility_decisions", "count", "lower"),
    ("session.finalize_s", "s", "lower"),
    ("bc-crowd.post_s", "s", "lower"),
    ("bc-crowd.worker_answers", "count", "lower"),
    ("bc-crowd.tasks_failed", "count", "lower"),
    ("bc-snapshot.checkpoint_s", "s", "lower"),
    ("bc-snapshot.resume_s", "s", "lower"),
    ("bc-snapshot.bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("bc-bayes.share", "ratio", "lower"),
    ("bc-ctable.share", "ratio", "lower"),
    ("bc-solver.share", "ratio", "lower"),
    ("selection.share", "ratio", "lower"),
    ("bc-crowd.share", "ratio", "lower"),
    ("bc-snapshot.share", "ratio", "lower"),
    ("session.finalize.share", "ratio", "lower"),
];

/// The unit of a catalogued metric.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|e| e.0 == name)
        .map(|e| e.1)
}

/// What one run of the benchmark found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Campaigns attempted.
    pub attempted: usize,
    /// Campaigns that ended in a `RunError`.
    pub failed: usize,
    /// Failed output checks; empty when every output was correct.
    pub problems: Vec<String>,
    /// The metrics, in catalogue order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                unit(&m.name).expect("every reported metric is catalogued")
            );
        }
        s.push_str("}}");
        s
    }
}

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks; 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`; 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values`; 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Hands the allocator's free memory back to the system (glibc's
/// `malloc_trim`), so the resident set holds only live data and the next
/// campaign's peak does not depend on what earlier campaigns left free in
/// the heap. Elsewhere it does nothing.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` only releases memory the allocator holds
        // free; every live allocation stays where it is.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resets the peak resident set size to the current one (writing `5` to
/// `/proc/self/clear_refs`), so the next [`peak_rss_mb`] covers only what
/// ran in between. Where the reset is refused, the peak stays the
/// process-wide one.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM` of
/// `/proc/self/status`) since start or the last [`reset_peak_rss`], or 0
/// where the file is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
