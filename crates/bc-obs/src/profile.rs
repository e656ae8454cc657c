//! Hierarchical profiling: nested spans, path-addressed accumulation,
//! and a serializable [`ProfileReport`] tree.
//!
//! Two ways to feed a [`Profiler`]:
//!
//! * **Explicit spans** — [`Profiler::enter`] / [`Profiler::exit`] nest
//!   relative to the innermost open span and time the enclosed work with
//!   a monotonic clock. For ad-hoc instrumentation of straight-line code.
//! * **Path records** — [`Profiler::record`] accrues externally measured
//!   nanoseconds into an absolute `/`-separated path such as
//!   `round/select/solve`, creating intermediate nodes as needed. This is
//!   how [`RunProfiler`] folds an event stream into the canonical span
//!   taxonomy without timing anything twice: every `nanos` it files was
//!   already measured at the emission site.
//!
//! The resulting [`ProfileReport`] renders as an indented text tree and
//! as canonical single-line JSON (fixed key order, no whitespace) whose
//! parse → write round-trip is byte-identical, matching the bc-snapshot
//! convention.

use crate::event::{Event, RunPhase};
use crate::sink::Observer;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug)]
struct Node {
    name: String,
    count: u64,
    nanos: u128,
    children: Vec<usize>,
}

/// An arena-backed tree of named spans accumulating call counts and
/// wall-clock nanoseconds.
///
/// Children keep first-creation order, so two runs that produce the same
/// sequence of span names produce structurally identical reports.
#[derive(Debug)]
pub struct Profiler {
    nodes: Vec<Node>,
    /// Open explicit spans; `stack[0]` is always the root.
    stack: Vec<usize>,
    /// Start times for the open spans in `stack[1..]`.
    starts: Vec<Instant>,
}

impl Profiler {
    /// A profiler whose root span is named `root`.
    pub fn new(root: &str) -> Self {
        Profiler {
            nodes: vec![Node {
                name: root.to_string(),
                count: 0,
                nanos: 0,
                children: Vec::new(),
            }],
            stack: vec![0],
            starts: Vec::new(),
        }
    }

    fn child(&mut self, parent: usize, name: &str) -> usize {
        if let Some(&idx) = self.nodes[parent]
            .children
            .iter()
            .find(|&&c| self.nodes[c].name == name)
        {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(Node {
            name: name.to_string(),
            count: 0,
            nanos: 0,
            children: Vec::new(),
        });
        self.nodes[parent].children.push(idx);
        idx
    }

    /// Opens a span named `name` nested under the innermost open span and
    /// starts its clock. Balance with [`Profiler::exit`].
    pub fn enter(&mut self, name: &str) {
        let top = *self.stack.last().expect("root span is never popped");
        let idx = self.child(top, name);
        self.stack.push(idx);
        self.starts.push(Instant::now());
    }

    /// Closes the innermost open span, accruing its elapsed time and
    /// bumping its count. A call with no open span is ignored (the root
    /// cannot be exited).
    pub fn exit(&mut self) {
        let (Some(idx), Some(start)) = (
            (self.stack.len() > 1).then(|| self.stack.pop().unwrap()),
            self.starts.pop(),
        ) else {
            return;
        };
        self.nodes[idx].count += 1;
        self.nodes[idx].nanos += start.elapsed().as_nanos();
    }

    /// Accrues `nanos` and one call into the absolute `/`-separated
    /// `path` (resolved from the root, not the open span), creating
    /// intermediate nodes as needed. The empty path addresses the root.
    pub fn record(&mut self, path: &str, nanos: u128) {
        self.record_with(path, nanos, 1);
    }

    /// Like [`Profiler::record`] but accruing an explicit `count` —
    /// useful for count-only telemetry such as search-tree decisions,
    /// where `nanos` is 0 because the time lives in an ancestor span.
    pub fn record_with(&mut self, path: &str, nanos: u128, count: u64) {
        let mut cur = 0;
        if !path.is_empty() {
            for seg in path.split('/') {
                cur = self.child(cur, seg);
            }
        }
        self.nodes[cur].count += count;
        self.nodes[cur].nanos += nanos;
    }

    /// Snapshots the accumulated tree.
    pub fn report(&self) -> ProfileReport {
        fn build(nodes: &[Node], idx: usize) -> ReportNode {
            ReportNode {
                name: nodes[idx].name.clone(),
                count: nodes[idx].count,
                nanos: nodes[idx].nanos,
                children: nodes[idx]
                    .children
                    .iter()
                    .map(|&c| build(nodes, c))
                    .collect(),
            }
        }
        ProfileReport {
            root: build(&self.nodes, 0),
        }
    }
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new("run")
    }
}

/// One span in a [`ProfileReport`] tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReportNode {
    /// Span name (one path segment).
    pub name: String,
    /// Times the span was closed, or an event-defined count for
    /// count-only telemetry nodes.
    pub count: u64,
    /// Wall-clock nanoseconds accrued.
    pub nanos: u128,
    /// Child spans in first-creation order.
    pub children: Vec<ReportNode>,
}

impl ReportNode {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"name\": \"");
        escape_into(&self.name, out);
        let _ = write!(
            out,
            "\", \"count\": {}, \"nanos\": {}",
            self.count, self.nanos
        );
        out.push_str(", \"children\": [");
        for (i, child) in self.children.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            child.write_json(out);
        }
        out.push_str("]}");
    }

    fn write_text(&self, out: &mut String, depth: usize) {
        let _ = writeln!(
            out,
            "{:indent$}{} {:.3}ms ×{}",
            "",
            self.name,
            self.nanos as f64 / 1e6,
            self.count,
            indent = depth * 2
        );
        for child in &self.children {
            child.write_text(out, depth + 1);
        }
    }
}

fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// A snapshot of a [`Profiler`] tree: renderable as text, serializable
/// as canonical single-line JSON whose parse → write round-trip is
/// byte-identical.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileReport {
    root: ReportNode,
}

impl ProfileReport {
    /// The root span.
    pub fn root(&self) -> &ReportNode {
        &self.root
    }

    /// Looks up a span by `/`-separated path below the root; the empty
    /// path returns the root itself.
    pub fn node(&self, path: &str) -> Option<&ReportNode> {
        let mut cur = &self.root;
        if path.is_empty() {
            return Some(cur);
        }
        for seg in path.split('/') {
            cur = cur.children.iter().find(|c| c.name == seg)?;
        }
        Some(cur)
    }

    /// An indented text rendering, one span per line with milliseconds
    /// and call count.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        self.root.write_text(&mut out, 0);
        out
    }

    /// Canonical single-line JSON: fixed key order
    /// (`name`, `count`, `nanos`, `children`), `", "` separators, no
    /// trailing newline. [`ProfileReport::from_json`] of this output
    /// re-serializes to the identical bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.root.write_json(&mut out);
        out
    }

    /// Parses the JSON produced by [`ProfileReport::to_json`]
    /// (whitespace-tolerant, but key order is fixed).
    pub fn from_json(input: &str) -> Result<ProfileReport, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        let root = p.node()?;
        p.ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(ProfileReport { root })
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn key(&mut self, name: &str) -> Result<(), String> {
        self.ws();
        self.expect(b'"')?;
        if !self.bytes[self.pos..].starts_with(name.as_bytes()) {
            return Err(format!("expected key {name:?} at offset {}", self.pos));
        }
        self.pos += name.len();
        self.expect(b'"')?;
        self.ws();
        self.expect(b':')
    }

    fn uint(&mut self) -> Result<u128, String> {
        self.ws();
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected digits at offset {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits are ascii")
            .parse()
            .map_err(|e| format!("bad integer at offset {start}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.ws();
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through untouched.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8".to_string())?;
                    let c = rest.chars().next().expect("non-empty by construction");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn node(&mut self) -> Result<ReportNode, String> {
        self.ws();
        self.expect(b'{')?;
        self.key("name")?;
        let name = self.string()?;
        self.ws();
        self.expect(b',')?;
        self.key("count")?;
        let count = u64::try_from(self.uint()?).map_err(|_| "count overflows u64".to_string())?;
        self.ws();
        self.expect(b',')?;
        self.key("nanos")?;
        let nanos = self.uint()?;
        self.ws();
        self.expect(b',')?;
        self.key("children")?;
        self.ws();
        self.expect(b'[')?;
        let mut children = Vec::new();
        self.ws();
        if self.bytes.get(self.pos) != Some(&b']') {
            loop {
                children.push(self.node()?);
                self.ws();
                if self.bytes.get(self.pos) == Some(&b',') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        self.ws();
        self.expect(b']')?;
        self.ws();
        self.expect(b'}')?;
        Ok(ReportNode {
            name,
            count,
            nanos,
            children,
        })
    }
}

/// Maps a run phase onto its canonical profile path.
fn phase_path(phase: RunPhase) -> &'static str {
    match phase {
        RunPhase::Model => "model",
        RunPhase::CTable => "ctable",
        RunPhase::Select => "round/select",
        RunPhase::Post => "round/post",
        RunPhase::Propagate => "round/propagate",
        RunPhase::Finalize => "finalize",
    }
}

fn solve_path(phase: RunPhase) -> String {
    format!("{}/solve", phase_path(phase))
}

/// An [`Observer`] that folds the event stream into the canonical span
/// taxonomy:
///
/// ```text
/// run
/// ├── model            (SpanFinished)
/// │   └── train        (ModelTrained; em/search iteration counts below)
/// ├── ctable           (SpanFinished)
/// │   └── build        (CTableBuilt)
/// ├── round            (RoundFinished; count = rounds)
/// │   ├── select       (SpanFinished, summed over rounds)
/// │   │   ├── solve    (ProbabilityBatch; count = solver calls)
/// │   │   │   └── adpll  (SolverSearch; count = decisions, nanos 0)
/// │   │   └── utility  (UtilitySweep; count = utility evals)
/// │   │       └── adpll  (count = decisions, nanos 0)
/// │   ├── post
/// │   └── propagate
/// │       └── fixpoint (Propagated)
/// ├── finalize
/// │   └── solve
/// ├── checkpoint       (CheckpointWritten; count = checkpoints)
/// └── resume           (Resumed)
/// ```
///
/// Every `nanos` filed here was measured at the emission site, so the
/// profiler never times anything itself and adds no clock reads to the
/// run.
#[derive(Debug, Default)]
pub struct RunProfiler {
    profiler: Profiler,
}

impl RunProfiler {
    /// An empty run profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshots the accumulated span tree.
    pub fn report(&self) -> ProfileReport {
        self.profiler.report()
    }
}

impl Observer for RunProfiler {
    fn event(&mut self, event: &Event) {
        match event {
            Event::SpanFinished { phase, nanos } => {
                self.profiler.record(phase_path(*phase), *nanos);
            }
            Event::ModelTrained {
                em_iters,
                search_iters,
                nanos,
                ..
            } => {
                self.profiler.record("model/train", *nanos);
                self.profiler
                    .record_with("model/train/em", 0, *em_iters as u64);
                self.profiler
                    .record_with("model/train/search", 0, *search_iters as u64);
            }
            Event::CTableBuilt { nanos, .. } => {
                self.profiler.record("ctable/build", *nanos);
            }
            Event::ProbabilityBatch {
                phase,
                solver_calls,
                nanos,
                ..
            } => {
                self.profiler
                    .record_with(&solve_path(*phase), *nanos, *solver_calls);
            }
            Event::SolverSearch {
                phase, decisions, ..
            } => {
                let path = format!("{}/adpll", solve_path(*phase));
                self.profiler.record_with(&path, 0, *decisions);
            }
            Event::UtilitySweep {
                evals,
                decisions,
                nanos,
                ..
            } => {
                self.profiler
                    .record_with("round/select/utility", *nanos, *evals);
                self.profiler
                    .record_with("round/select/utility/adpll", 0, *decisions);
            }
            Event::Propagated { nanos, .. } => {
                self.profiler.record("round/propagate/fixpoint", *nanos);
            }
            Event::RoundFinished { nanos, .. } => {
                self.profiler.record("round", *nanos);
            }
            Event::RunFinished { nanos, .. } => {
                self.profiler.record("", *nanos);
            }
            Event::CheckpointWritten { nanos, .. } => {
                self.profiler.record("checkpoint", *nanos);
            }
            Event::Resumed { nanos, .. } => {
                self.profiler.record("resume", *nanos);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_builds_paths_and_keeps_creation_order() {
        let mut p = Profiler::default();
        p.record("round/select", 100);
        p.record("round/post", 40);
        p.record("round/select", 60);
        p.record("round", 250);
        let r = p.report();
        assert_eq!(r.root().name, "run");
        let round = r.node("round").unwrap();
        assert_eq!(round.nanos, 250);
        assert_eq!(round.count, 1);
        let names: Vec<&str> = round.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["select", "post"]);
        assert_eq!(r.node("round/select").unwrap().nanos, 160);
        assert_eq!(r.node("round/select").unwrap().count, 2);
        assert_eq!(r.node("round/missing"), None);
        assert_eq!(r.node("").unwrap().name, "run");
    }

    #[test]
    fn enter_exit_times_nested_spans() {
        let mut p = Profiler::new("root");
        p.enter("outer");
        p.enter("inner");
        p.exit();
        p.exit();
        p.exit(); // extra exit must not pop the root
        p.enter("outer"); // re-entering merges into the same node
        p.exit();
        let r = p.report();
        assert_eq!(r.node("outer").unwrap().count, 2);
        assert_eq!(r.node("outer/inner").unwrap().count, 1);
        assert_eq!(r.root().children.len(), 1);
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let mut p = Profiler::default();
        p.record("model", 1_000_000);
        p.record_with("model/train/em", 0, 7);
        p.record("round/select", 42);
        p.record("", 2_000_000);
        let report = p.report();
        let json = report.to_json();
        let reparsed = ProfileReport::from_json(&json).expect("canonical JSON parses");
        assert_eq!(reparsed, report);
        assert_eq!(reparsed.to_json(), json);
    }

    #[test]
    fn json_exact_bytes_for_small_tree() {
        let mut p = Profiler::new("run");
        p.record("a", 5);
        let json = p.report().to_json();
        assert_eq!(
            json,
            "{\"name\": \"run\", \"count\": 0, \"nanos\": 0, \"children\": \
             [{\"name\": \"a\", \"count\": 1, \"nanos\": 5, \"children\": []}]}"
        );
    }

    #[test]
    fn json_escapes_special_names() {
        let mut p = Profiler::new("a\"b\\c\nd");
        p.record("x\ty", 1);
        let json = p.report().to_json();
        let reparsed = ProfileReport::from_json(&json).unwrap();
        assert_eq!(reparsed.root().name, "a\"b\\c\nd");
        assert_eq!(reparsed.to_json(), json);
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"name\": \"x\"}",
            "{\"count\": 1, \"name\": \"x\", \"nanos\": 0, \"children\": []}",
            "{\"name\": \"x\", \"count\": -1, \"nanos\": 0, \"children\": []}",
            "{\"name\": \"x\", \"count\": 1, \"nanos\": 0, \"children\": []} trailing",
        ] {
            assert!(ProfileReport::from_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn run_profiler_maps_events_onto_taxonomy() {
        let mut rp = RunProfiler::new();
        rp.event(&Event::ModelTrained {
            bic: -1.0,
            edges: 2,
            em_iters: 4,
            search_iters: 3,
            nanos: 500,
        });
        rp.event(&Event::SpanFinished {
            phase: RunPhase::Model,
            nanos: 600,
        });
        rp.event(&Event::ProbabilityBatch {
            phase: RunPhase::Select,
            objects: 3,
            solver_calls: 3,
            branches: 9,
            cache_hits: 1,
            fallbacks: 0,
            nanos: 200,
        });
        rp.event(&Event::SolverSearch {
            phase: RunPhase::Select,
            decisions: 9,
            direct_components: 2,
            component_splits: 1,
            cache_hits: 1,
            cache_misses: 4,
            max_depth: 3,
        });
        rp.event(&Event::UtilitySweep {
            evals: 11,
            solver_calls: 11,
            decisions: 30,
            cache_hits: 4,
            fallbacks: 0,
            nanos: 300,
        });
        rp.event(&Event::RoundFinished {
            round: 1,
            posted: 2,
            answered: 2,
            expired: 0,
            requeued: 0,
            retried: 0,
            nanos: 900,
        });
        rp.event(&Event::Resumed {
            round: 1,
            budget_left: 3,
            open_exprs: 4,
            bytes: 5000,
            nanos: 150,
        });
        for _ in 0..2 {
            rp.event(&Event::CheckpointWritten {
                round: 1,
                bytes: 5000,
                nanos: 100,
            });
        }
        rp.event(&Event::RunFinished {
            rounds: 1,
            tasks_posted: 2,
            tasks_answered: 2,
            tasks_expired: 0,
            tasks_retried: 0,
            probability_evals: 3,
            nanos: 2000,
        });
        let r = rp.report();
        assert_eq!(r.root().nanos, 2000);
        assert_eq!(r.node("model").unwrap().nanos, 600);
        assert_eq!(r.node("model/train").unwrap().nanos, 500);
        assert_eq!(r.node("model/train/em").unwrap().count, 4);
        assert_eq!(r.node("model/train/search").unwrap().count, 3);
        assert_eq!(r.node("round").unwrap().nanos, 900);
        let solve = r.node("round/select/solve").unwrap();
        assert_eq!(solve.nanos, 200);
        assert_eq!(solve.count, 3);
        let adpll = r.node("round/select/solve/adpll").unwrap();
        assert_eq!(adpll.count, 9);
        assert_eq!(adpll.nanos, 0);
        let utility = r.node("round/select/utility").unwrap();
        assert_eq!((utility.count, utility.nanos), (11, 300));
        let utility_adpll = r.node("round/select/utility/adpll").unwrap();
        assert_eq!((utility_adpll.count, utility_adpll.nanos), (30, 0));
        let checkpoint = r.node("checkpoint").unwrap();
        assert_eq!((checkpoint.count, checkpoint.nanos), (2, 200));
        let resume = r.node("resume").unwrap();
        assert_eq!((resume.count, resume.nanos), (1, 150));
        let text = r.render_text();
        assert!(text.contains("adpll"), "text: {text}");
    }
}
