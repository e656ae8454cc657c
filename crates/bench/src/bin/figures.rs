//! Command-line entry point regenerating the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p bc-bench --bin figures -- all
//! cargo run --release -p bc-bench --bin figures -- fig4 fig5 --json out.json
//! cargo run --release -p bc-bench --bin figures -- all --scale paper
//! ```

use bc_bench::experiments;
use bc_bench::{print_rows, rows_to_json_pretty, Row, Scale};

fn usage() -> ! {
    eprintln!(
        "usage: figures [all | fig2 .. fig11 | table6 | ext_model | ext_ranking | ext_baselines | ext_faults | ext_phases | ext_ablations]... [--scale small|paper] [--json PATH] [--trace PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiments_requested: Vec<String> = Vec::new();
    let mut scale = Scale::small();
    let mut json_path: Option<String> = None;
    let mut trace_path: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("small") => scale = Scale::small(),
                    Some("paper") => scale = Scale::paper(),
                    _ => usage(),
                }
            }
            "--json" => {
                i += 1;
                json_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--trace" => {
                i += 1;
                trace_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            other if other.starts_with("--") => usage(),
            other => experiments_requested.push(other.to_string()),
        }
        i += 1;
    }
    // `--trace` alone is a valid invocation (one traced run, no tables).
    if experiments_requested.is_empty() && trace_path.is_none() {
        experiments_requested.push("all".into());
    }

    let mut rows: Vec<Row> = Vec::new();
    for exp in &experiments_requested {
        let produced = match exp.as_str() {
            "all" => experiments::all(&scale),
            "fig2" => experiments::fig2(&scale),
            "fig3" => experiments::fig3(&scale),
            "fig4" => experiments::fig4(&scale),
            "fig5" => experiments::fig5(&scale),
            "fig6" => experiments::fig6(&scale),
            "fig7" => experiments::fig7(&scale),
            "fig8" => experiments::fig8(&scale),
            "fig9" => experiments::fig9(&scale),
            "fig10" => experiments::fig10(&scale),
            "fig11" => experiments::fig11(&scale),
            "table6" => experiments::table6(&scale),
            "ext_model" => experiments::ext_model(&scale),
            "ext_ranking" => experiments::ext_ranking(&scale),
            "ext_baselines" => experiments::ext_baselines(&scale),
            "ext_faults" => experiments::ext_faults(&scale),
            "ext_phases" => experiments::ext_phases(&scale),
            "ext_ablations" => experiments::ext_ablations(&scale),
            _ => usage(),
        };
        rows.extend(produced);
    }

    print_rows(&rows);

    if let Some(path) = json_path {
        let json = rows_to_json_pretty(&rows);
        std::fs::write(&path, json).expect("writing the JSON dump");
        eprintln!("wrote {path}");
    }
    if let Some(path) = trace_path {
        let n = experiments::write_trace(&scale, &path).expect("writing the trace");
        eprintln!("wrote {n} trace events to {path}");
    }
}
