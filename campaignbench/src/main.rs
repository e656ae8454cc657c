//! Campaign benchmark for BayesCrowd.
//!
//! ```text
//! campaignbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs the named workload on the block of instances derived from the
//! seed, checks every output, and prints as its last line one JSON object
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics of a
//! separate traced run (`--trace 1`). Exits with 1 when an output check
//! fails and with 2 on a bad command line. Load is a closed loop with one
//! client: campaigns run back to back in one thread. See `README.md`.

mod campaign;
mod metrics;
mod speed;
#[cfg(test)]
mod tests;
mod trace;
mod workload;

use metrics::{mean, median, quantile, Metric, Outcome};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::Workload;

const USAGE: &str = "usage: campaignbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// The command line.
#[derive(Debug)]
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(value).ok_or_else(|| {
                    let known: Vec<String> = workload::WORKLOADS
                        .iter()
                        .map(|w| format!("  {}: {}", w.name, w.why))
                        .collect();
                    format!(
                        "unknown workload {value}; the workloads are\n{}",
                        known.join("\n")
                    )
                })?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let outcome = if args.trace {
        let spans = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.jsonl", w.name, args.seed));
        let outcome = trace::run(w, args.seed, Some(&spans));
        eprintln!("spans: {}", spans.display());
        outcome
    } else {
        measure(w, args.seed, Duration::from_secs(args.seconds))
    };
    for p in &outcome.problems {
        eprintln!("check failed: {p}");
    }
    println!("{}", outcome.json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One timed campaign: its wall-clock times in seconds and the index of
/// the reference kernel batch taken right before it.
struct Timed {
    batch: usize,
    total: f64,
    setup: f64,
    first_tasks: Option<f64>,
    turnarounds: Vec<f64>,
}

/// The untraced run: passes over the block until the next pass would not
/// fit in `seconds` (at least one). Every pass runs the same instances, so
/// timing medians pool all passes; answer quality and crowd spending come
/// from the first pass and must repeat exactly in later ones. Times are
/// reported in nominal seconds: each campaign's wall clock is scaled by the
/// reference kernel batches right before and after it (see [`speed`]), and
/// the raw wall-clock medians go to standard error. After the passes, the
/// first `w.probed` instances of the block run once more through
/// [`probe_memory`]; the peak resident set is the median of those probes.
fn measure(w: &Workload, seed: u64, seconds: Duration) -> Outcome {
    let mut outcome = Outcome::default();
    let mut timed = vec![];
    let (mut f1, mut precision, mut recall, mut tasks, mut rounds) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut peaks = vec![];
    let mut first_pass: Vec<Option<bayescrowd::RunReport>> = vec![None; w.block];
    let mut speed = speed::Sampler::new();
    let mut batches = vec![];
    let started = Instant::now();
    let mut passes = 0;
    loop {
        let pass_started = Instant::now();
        for (i, first) in first_pass.iter_mut().enumerate() {
            let inst = w.instance(seed, i);
            batches.push(speed.batch());
            outcome.attempted += 1;
            let c = match campaign::run(w, &inst, w.resume, None, None) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("instance {i}: campaign failed: {e}");
                    outcome.failed += 1;
                    continue;
                }
            };
            if let Some(p) = campaign::check(w, &inst, &c) {
                outcome.problems.push(format!("instance {i}: {p}"));
            }
            timed.push(Timed {
                batch: batches.len() - 1,
                total: c.total.as_secs_f64(),
                setup: c.setup.as_secs_f64(),
                first_tasks: c.first_tasks.map(|d| d.as_secs_f64()),
                turnarounds: c.turnarounds.iter().map(|d| d.as_secs_f64()).collect(),
            });
            match first {
                None => {
                    let (p, r, f) = campaign::quality(&c.report.result, &inst.truth);
                    f1.push(f);
                    precision.push(p);
                    recall.push(r);
                    tasks.push(c.report.crowd.tasks_posted as f64);
                    rounds.push(c.report.crowd.rounds as f64);
                    *first = Some(c.report);
                }
                Some(r) if !campaign::same_outcome(r, &c.report) => outcome.problems.push(format!(
                    "instance {i}: pass {} answered differently",
                    passes + 1
                )),
                Some(_) => {}
            }
        }
        passes += 1;
        if started.elapsed() + pass_started.elapsed() > seconds {
            break;
        }
    }
    batches.push(speed.batch());
    let (mut totals, mut setups, mut firsts, mut turnarounds) = (vec![], vec![], vec![], vec![]);
    let mut scales = vec![];
    for t in &timed {
        let scale = speed.scale(&batches[t.batch], &batches[t.batch + 1]);
        scales.push(scale);
        totals.push(t.total * scale);
        setups.push(t.setup * scale);
        firsts.extend(t.first_tasks.map(|s| s * scale));
        turnarounds.extend(t.turnarounds.iter().map(|s| s * scale));
    }
    let raw = |f: fn(&Timed) -> f64| median(&timed.iter().map(f).collect::<Vec<_>>());

    // Memory is probed after the timed passes, so that handing the heap
    // back to the system cannot slow a timed campaign.
    for (i, first) in first_pass.iter().enumerate().take(w.probed) {
        let Some(report) = first else { continue };
        outcome.attempted += 1;
        match probe_memory(w, &w.instance(seed, i)) {
            Ok((peak, probe)) => {
                peaks.push(peak);
                if !campaign::same_outcome(report, &probe.report) {
                    outcome
                        .problems
                        .push(format!("instance {i}: memory probe answered differently"));
                }
            }
            Err(e) => {
                eprintln!("instance {i}: memory probe failed: {e}");
                outcome.failed += 1;
            }
        }
    }
    eprintln!(
        "{}: seed {seed}, {} instances x {passes} passes in {:.1} s; reference kernel \
         median {:.4} ms over {} samples, median scale {:.4}; wall-clock medians: \
         campaign {:.4} s, setup {:.4} s",
        w.name,
        w.block,
        started.elapsed().as_secs_f64(),
        speed.median() * 1e3,
        speed.count(),
        median(&scales),
        raw(|t| t.total),
        raw(|t| t.setup),
    );
    eprintln!(
        "{}: nominal p90: campaign {:.4} s over {} campaigns, turnaround {:.4} s over {} rounds",
        w.name,
        quantile(&totals, 0.9),
        totals.len(),
        quantile(&turnarounds, 0.9),
        turnarounds.len()
    );
    outcome.metrics = vec![
        Metric::new("campaign_s", median(&totals)),
        Metric::new("setup_s", median(&setups)),
        Metric::new("first_tasks_s", median(&firsts)),
        Metric::new("turnaround_s_p50", median(&turnarounds)),
        Metric::new("f1", mean(&f1)),
        Metric::new("precision", mean(&precision)),
        Metric::new("recall", mean(&recall)),
        Metric::new("tasks_posted", mean(&tasks)),
        Metric::new("rounds", mean(&rounds)),
        Metric::new("peak_rss_mb", median(&peaks)),
    ];
    outcome
}

/// One more, untimed campaign of `inst`, run from a trimmed heap with the
/// peak resident set reset, and its peak in MiB: what this campaign needs
/// on top of the live data.
fn probe_memory(
    w: &Workload,
    inst: &workload::Instance,
) -> Result<(f64, campaign::Campaign), bayescrowd::RunError> {
    metrics::trim_heap();
    metrics::reset_peak_rss();
    let c = campaign::run(w, inst, w.resume, None, None)?;
    Ok((metrics::peak_rss_mb(), c))
}
