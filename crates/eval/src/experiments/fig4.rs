//! Fig. 4: building the MRSL model.
//!
//! (a) model-building time vs training set size (support = 0.02);
//! (b) model-building time vs support (training = 10k);
//! (c) model size vs support (training = 10k).
//! All averaged over the ten 4–6-attribute networks.

use crate::experiments::{fig4_networks, grid, mean, ExpOptions};
use crate::framework::CellOutcome;
use crate::report::Report;
use crate::runner::run_parallel;
use mrsl_util::table::fmt_f;
use mrsl_util::Table;

fn training_sizes(opts: &ExpOptions) -> Vec<usize> {
    if opts.full {
        vec![1_000, 10_000, 20_000, 50_000, 100_000]
    } else {
        vec![500, 1_000, 2_000, 5_000, 10_000]
    }
}

fn supports(opts: &ExpOptions) -> Vec<f64> {
    if opts.full {
        vec![0.001, 0.01, 0.02, 0.05, 0.1]
    } else {
        vec![0.005, 0.01, 0.02, 0.05, 0.1]
    }
}

fn fixed_training(opts: &ExpOptions) -> usize {
    if opts.full {
        10_000
    } else {
        5_000
    }
}

fn build_outcomes(opts: &ExpOptions, train: usize, support: f64) -> Vec<CellOutcome> {
    let nets = fig4_networks();
    // Timing experiment: single split per instance, sequential execution
    // so cells do not contend for cores.
    let single_split = ExpOptions { splits: 1, ..*opts };
    let cells = grid(&nets, &single_split, train, 0, |s| s.support = support);
    run_parallel(cells, 1, |spec| spec.build().outcome())
}

/// Fig. 4(a): model-building time vs training set size, support 0.02.
pub fn run_fig4a(opts: &ExpOptions) -> Report {
    let mut table = Table::new(["training size", "avg build time (s)", "avg model size"]);
    for train in training_sizes(opts) {
        let outcomes = build_outcomes(opts, train, 0.02);
        table.push_row([
            train.to_string(),
            fmt_f(mean(outcomes.iter().map(|o| o.learn_secs)), 4),
            fmt_f(mean(outcomes.iter().map(|o| o.model_size as f64)), 1),
        ]);
    }
    Report::new(
        "fig4a",
        "Model building time vs training set size (support = 0.02)",
        table,
    )
    .note("paper: time grows linearly with training size; model size stays ~constant")
}

/// Fig. 4(b): model-building time vs support, fixed training size.
pub fn run_fig4b(opts: &ExpOptions) -> Report {
    let train = fixed_training(opts);
    let mut table = Table::new(["support", "avg build time (s)"]);
    for support in supports(opts) {
        let outcomes = build_outcomes(opts, train, support);
        table.push_row([
            fmt_f(support, 3),
            fmt_f(mean(outcomes.iter().map(|o| o.learn_secs)), 4),
        ]);
    }
    Report::new(
        "fig4b",
        format!("Model building time vs support (training = {train})"),
        table,
    )
    .note("paper: build time decreases super-linearly with increasing support")
}

/// Fig. 4(c): model size (total meta-rules) vs support.
pub fn run_fig4c(opts: &ExpOptions) -> Report {
    let train = fixed_training(opts);
    let mut table = Table::new(["support", "avg model size (meta-rules)"]);
    for support in supports(opts) {
        let outcomes = build_outcomes(opts, train, support);
        table.push_row([
            fmt_f(support, 3),
            fmt_f(mean(outcomes.iter().map(|o| o.model_size as f64)), 1),
        ]);
    }
    Report::new(
        "fig4c",
        format!("Model size vs support (training = {train})"),
        table,
    )
    .note("paper: model size drops sharply as the support threshold rises")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpOptions {
        ExpOptions {
            instances: 1,
            splits: 1,
            ..ExpOptions::default()
        }
    }

    #[test]
    fn build_time_grows_with_training_size() {
        // The default sweep's two ends (500 and 10,000 tuples) on one
        // instance. Each size is timed as the best of three builds: host
        // noise only ever adds time.
        let sizes = training_sizes(&tiny());
        let (small, large) = (sizes[0], sizes[sizes.len() - 1]);
        let best_of_three = |train| {
            (0..3)
                .map(|_| {
                    mean(
                        build_outcomes(&tiny(), train, 0.02)
                            .iter()
                            .map(|o| o.learn_secs),
                    )
                })
                .fold(f64::INFINITY, f64::min)
        };
        let (ta, tb) = (best_of_three(small), best_of_three(large));
        assert!(
            tb > ta,
            "{large} tuples should take longer than {small}: {tb} vs {ta}"
        );
    }

    #[test]
    fn model_size_shrinks_with_support() {
        let low = build_outcomes(&tiny(), 2_000, 0.005);
        let high = build_outcomes(&tiny(), 2_000, 0.1);
        let slow = mean(low.iter().map(|o| o.model_size as f64));
        let shigh = mean(high.iter().map(|o| o.model_size as f64));
        assert!(slow > shigh, "θ=0.005 gives {slow}, θ=0.1 gives {shigh}");
    }

    #[test]
    fn reports_have_all_sweep_rows() {
        let opts = tiny();
        // Use a cut-down manual sweep to keep the test quick: just check
        // the report shape on the smallest sizes.
        let r = run_fig4c(&ExpOptions {
            instances: 1,
            splits: 1,
            ..ExpOptions::default()
        });
        assert_eq!(r.table.len(), supports(&opts).len());
    }
}
