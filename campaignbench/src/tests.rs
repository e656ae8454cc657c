//! The benchmark's own tests: the metric catalogue against the format and
//! contents of `BENCHMARK.json`, and properties of every workload at a
//! reduced scale.

use crate::metrics::{Entry, Outcome, END_TO_END, PER_LAYER};
use crate::workload::{Table, Workload, WORKLOADS};
use bc_snapshot::Value;
use std::sync::OnceLock;
use std::time::Duration;

/// A name in `BENCHMARK.json`: a letter or digit, then letters, digits, `_`,
/// `.` and `-`, at most 64 in all.
fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// `BENCHMARK.json`, parsed with the snapshot codec after dropping the
/// whitespace outside strings, which that canonical-form parser rejects.
fn benchmark_json() -> Value {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let (mut compact, mut in_string, mut escaped) = (String::new(), false, false);
    for c in text.chars() {
        if in_string || !c.is_whitespace() {
            compact.push(c);
        }
        if c == '"' && !escaped {
            in_string = !in_string;
        }
        escaped = in_string && !escaped && c == '\\';
    }
    Value::parse(&compact).expect("BENCHMARK.json is valid JSON")
}

fn list<'v>(v: &'v Value, key: &str) -> &'v [Value] {
    v.get(key)
        .and_then(Value::as_list)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a list {key:?}"))
}

fn str_of<'v>(v: &'v Value, key: &str) -> &'v str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("entry has a string {key:?}"))
}

/// The workload at a scale that runs in seconds.
fn small(w: &Workload) -> Workload {
    match w.table {
        Table::Nba => w.scaled(300, 4),
        Table::Synthetic => w.scaled(3_000, 2),
    }
}

/// Per workload: one untraced run and two traced runs, shared by the tests.
fn runs() -> &'static [(&'static str, Outcome, Outcome, Outcome)] {
    static RUNS: OnceLock<Vec<(&'static str, Outcome, Outcome, Outcome)>> = OnceLock::new();
    RUNS.get_or_init(|| {
        WORKLOADS
            .iter()
            .map(|w| {
                let w = small(w);
                let measured = crate::measure(&w, 3, Duration::ZERO);
                let traced = crate::trace::run(&w, 3, None);
                let again = crate::trace::run(&w, 3, None);
                (w.name, measured, traced, again)
            })
            .collect()
    })
}

fn value(o: &Outcome, name: &str) -> f64 {
    o.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is reported"))
        .value
}

#[test]
fn metric_names_and_units_fit_the_benchmark_format() {
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    let all: Vec<&Entry> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
    for (name, unit, better) in &all {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(valid_unit(unit), "bad unit {unit:?} of {name}");
        assert!(["higher", "lower"].contains(better), "{name}: {better}");
    }
    let mut names: Vec<&str> = all.iter().map(|e| e.0).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), all.len(), "metric names are unique");
    assert!(END_TO_END.contains(&("setup_s", "s", "lower")));
    for w in &WORKLOADS {
        assert!(valid_name(w.name), "bad workload name {:?}", w.name);
        assert!(w.traced <= w.block);
    }
}

#[test]
fn benchmark_json_lists_the_catalogue_and_the_workloads() {
    let doc = benchmark_json();
    let entries = |key| -> Vec<(String, String, String)> {
        list(&doc, key)
            .iter()
            .map(|e| {
                let own = |k| str_of(e, k).to_string();
                (own("name"), own("unit"), own("better"))
            })
            .collect()
    };
    let owned = |c: &[Entry]| -> Vec<(String, String, String)> {
        c.iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect()
    };
    assert_eq!(entries("end_to_end"), owned(&END_TO_END));
    assert_eq!(entries("per_layer"), owned(&PER_LAYER));
    for e in list(&doc, "end_to_end") {
        let bound = e.get("bound").and_then(Value::as_f64).expect("a bound");
        assert!(
            bound > 0.0 && bound <= 0.25,
            "{}: bound {bound}",
            str_of(e, "name")
        );
    }
    let workloads: Vec<(&str, &str)> = list(&doc, "workloads")
        .iter()
        .map(|w| (str_of(w, "name"), str_of(w, "why")))
        .collect();
    let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn every_listed_metric_is_produced_by_every_workload() {
    for (name, measured, traced, _) in runs() {
        for (o, catalogue) in [(measured, &END_TO_END[..]), (traced, &PER_LAYER[..])] {
            assert!(o.correct(), "{name}: {:?}", o.problems);
            assert_eq!(o.failed, 0, "{name}");
            let produced: Vec<&str> = o.metrics.iter().map(|m| m.name.as_str()).collect();
            let listed: Vec<&str> = catalogue.iter().map(|e| e.0).collect();
            assert_eq!(produced, listed, "{name}");
        }
        for m in &measured.metrics {
            assert!(
                m.value > 0.0,
                "{name}: end-to-end metric {} is {}",
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn counters_repeat_exactly_across_two_traced_runs() {
    for (name, _, first, second) in runs() {
        for (a, b) in first.metrics.iter().zip(&second.metrics) {
            // A checkpoint records the elapsed wall clock in decimal, so
            // its size can differ by a digit between runs.
            let unit = crate::metrics::unit(&a.name).expect("catalogued");
            if unit == "count" || a.name == "bc-solver.cache_hit_ratio" {
                assert_eq!(a, b, "{name}");
            }
        }
    }
}

#[test]
fn only_hhs_workloads_reach_the_utility_layer() {
    for (name, _, traced, _) in runs() {
        let calls = value(traced, "selection.utility_solver_calls");
        match *name {
            "syn-fbs" => assert_eq!(calls, 0.0),
            _ => assert!(calls > 0.0, "{name}"),
        }
    }
}

#[test]
fn snapshot_metrics_are_non_zero_only_on_nba_resume() {
    for (name, _, traced, _) in runs() {
        for m in traced
            .metrics
            .iter()
            .filter(|m| m.name.starts_with("bc-snapshot."))
        {
            assert_eq!(
                m.value > 0.0,
                *name == "nba-resume",
                "{name}: {} = {}",
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn reference_batches_follow_each_other() {
    let mut speed = crate::speed::Sampler::new();
    let before = speed.batch();
    let after = speed.batch();
    assert!(!before.is_empty());
    assert_eq!(before.end, after.start);
    assert_eq!(speed.count(), after.end);
    let scale = speed.scale(&before, &after);
    assert!(scale.is_finite() && scale > 0.0);
}
