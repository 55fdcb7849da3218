//! `repro` — regenerates every table and figure of the paper.
//!
//! Usage:
//!   repro <experiment|all> [--full] [--json] [--seed N] [--threads N]
//!
//! Experiments: table1 fig7 fig4a fig4b fig4c table2 fig5 fig6 fig8a fig8b
//!              fig8c fig9 fig10 fig11 ablation queries joins learn
//!
//! Defaults run scaled-down parameters (minutes); `--full` restores the
//! paper-scale settings (CPU-hours). `--json` emits machine-readable
//! output for EXPERIMENTS.md tooling.

#![forbid(unsafe_code)]

use mrsl_eval::experiments::{
    ablation, fig10, fig11, fig4, fig5, fig6, fig8, fig9, joins, learn, queries, table1, table2,
    ExpOptions,
};
use mrsl_eval::Report;
use std::io::Write as _;

type Runner = fn(&ExpOptions) -> Report;

fn registry() -> Vec<(&'static str, Runner)> {
    vec![
        ("table1", table1::run as Runner),
        ("fig7", table1::run_fig7),
        ("fig4a", fig4::run_fig4a),
        ("fig4b", fig4::run_fig4b),
        ("fig4c", fig4::run_fig4c),
        ("table2", table2::run),
        ("fig5", fig5::run),
        ("fig6", fig6::run),
        ("fig8a", fig8::run_fig8a),
        ("fig8b", fig8::run_fig8b),
        ("fig8c", fig8::run_fig8c),
        ("fig9", fig9::run),
        ("fig10", fig10::run),
        ("fig11", fig11::run),
        ("ablation", ablation::run),
        ("queries", queries::run),
        ("joins", joins::run),
        ("learn", learn::run),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = ExpOptions::default();
    let mut json = false;
    let mut targets: Vec<String> = Vec::new();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--full" => opts.full = true,
            "--json" => json = true,
            "--seed" => {
                opts.seed = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--threads" => {
                opts.threads = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--threads needs an integer"));
            }
            "--instances" => {
                opts.instances = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--instances needs an integer"));
            }
            "--splits" => {
                opts.splits = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--splits needs an integer"));
            }
            "--help" | "-h" => usage(""),
            other if other.starts_with('-') => usage(&format!("unknown flag {other}")),
            exp => targets.push(exp.to_string()),
        }
    }
    if targets.is_empty() {
        usage("no experiment given");
    }

    let registry = registry();
    let selected: Vec<&(&str, Runner)> = if targets.iter().any(|t| t == "all") {
        registry.iter().collect()
    } else {
        targets
            .iter()
            .map(|t| {
                registry
                    .iter()
                    .find(|(name, _)| name == t)
                    .unwrap_or_else(|| usage(&format!("unknown experiment `{t}`")))
            })
            .collect()
    };

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut json_reports = Vec::new();
    for (name, runner) in selected {
        let started = std::time::Instant::now();
        let report = runner(&opts);
        let secs = started.elapsed().as_secs_f64();
        if json {
            let mut value = report.to_json();
            value["elapsed_secs"] = serde_json::json!(secs);
            value["full_scale"] = serde_json::json!(opts.full);
            json_reports.push(value);
        } else {
            writeln!(out, "{report}").expect("stdout");
            writeln!(out, "[{name} finished in {secs:.1}s]\n").expect("stdout");
        }
    }
    if json {
        serde_json::to_writer_pretty(&mut out, &json_reports).expect("stdout");
        writeln!(out).expect("stdout");
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: repro <experiment ...|all> [--full] [--json] [--seed N] [--threads N] \
         [--instances N] [--splits N]\n\
         experiments: table1 fig7 fig4a fig4b fig4c table2 fig5 fig6 fig8a fig8b fig8c \
         fig9 fig10 fig11 ablation queries joins learn"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
