//! Fig. 10: prediction accuracy of multi-variable (Gibbs) inference as a
//! function of the number of samples per tuple, for 2–5 missing
//! attributes, on BN8, BN17 and BN2.

use crate::experiments::{grid, mean, ExpOptions};
use crate::report::Report;
use crate::runner::run_parallel;
use mrsl_bayesnet::catalog::by_name;
use mrsl_core::{GibbsConfig, TupleDagWorkload, VotingConfig};
use mrsl_util::table::fmt_f;
use mrsl_util::Table;

fn sample_counts(opts: &ExpOptions) -> Vec<usize> {
    if opts.full {
        vec![100, 500, 1_000, 2_000, 5_000]
    } else {
        vec![100, 500, 1_000, 2_000]
    }
}

fn params(opts: &ExpOptions) -> (usize, usize, f64) {
    if opts.full {
        (100_000, 150, 0.001)
    } else {
        (8_000, 40, 0.002)
    }
}

/// The paper's three featured networks with their missing-count ranges
/// (at most `attrs − 1` attributes are hidden).
fn panels() -> Vec<(&'static str, Vec<usize>)> {
    vec![
        ("BN8", vec![2, 3]),
        ("BN17", vec![2, 3, 4, 5]),
        ("BN2", vec![2, 3, 4]),
    ]
}

/// Regenerates Fig. 10: average KL per (network, #missing, samples/tuple).
pub fn run(opts: &ExpOptions) -> Report {
    let (train, test, support) = params(opts);
    let mut table = Table::new(["network", "missing", "samples/tuple", "avg KL", "avg top-1"]);
    for (name, missing_counts) in panels() {
        let net = by_name(name).expect("catalog name").topology;
        let cells = grid(std::slice::from_ref(&net), opts, train, test, |s| {
            s.support = support;
        });
        // Build each context once; sweep (k, N) inside the job.
        let sweeps: Vec<(usize, usize)> = missing_counts
            .iter()
            .flat_map(|&k| sample_counts(opts).into_iter().map(move |n| (k, n)))
            .collect();
        let rows = run_parallel(cells, opts.threads, |spec| {
            let ctx = spec.build();
            sweeps
                .iter()
                .map(|&(k, n)| {
                    let gibbs = GibbsConfig {
                        burn_in: (n / 10).clamp(50, 500),
                        samples: n,
                        voting: VotingConfig::best_averaged(),
                    };
                    let engine = TupleDagWorkload::from_config(&gibbs);
                    let score = ctx.eval_multi(k, &engine, gibbs.voting);
                    (k, n, score)
                })
                .collect::<Vec<_>>()
        });
        for &(k, n) in &sweeps {
            let kl = mean(
                rows.iter()
                    .flatten()
                    .filter(|(rk, rn, _)| *rk == k && *rn == n)
                    .map(|(_, _, s)| s.kl),
            );
            let top1 = mean(
                rows.iter()
                    .flatten()
                    .filter(|(rk, rn, _)| *rk == k && *rn == n)
                    .map(|(_, _, s)| s.top1),
            );
            table.push_row([
                name.to_string(),
                k.to_string(),
                n.to_string(),
                fmt_f(kl, 3),
                fmt_f(top1, 3),
            ]);
        }
    }
    Report::new(
        "fig10",
        format!("Multi-variable inference accuracy (training = {train}, support = {support})"),
        table,
    )
    .note("paper: KL decreases with more samples/tuple and fewer missing attributes; BN17 is harder than BN8")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_samples_do_not_hurt_on_easy_network() {
        let opts = ExpOptions {
            instances: 1,
            splits: 1,
            ..ExpOptions::default()
        };
        let net = by_name("BN8").unwrap().topology;
        let cells = grid(std::slice::from_ref(&net), &opts, 4_000, 40, |s| {
            s.support = 0.002;
        });
        let ctx = cells.into_iter().next().unwrap().build();
        let score_at = |n: usize| {
            let gibbs = GibbsConfig {
                burn_in: 50,
                samples: n,
                voting: VotingConfig::best_averaged(),
            };
            ctx.eval_multi(2, &TupleDagWorkload::from_config(&gibbs), gibbs.voting)
                .kl
        };
        let few = score_at(60);
        let many = score_at(1_500);
        assert!(
            many <= few + 0.05,
            "1500 samples ({many}) should beat 60 ({few})"
        );
    }

    #[test]
    fn panels_respect_attribute_counts() {
        for (name, ks) in panels() {
            let attrs = by_name(name).unwrap().topology.num_attrs();
            assert!(ks.iter().all(|&k| k < attrs), "{name}");
        }
    }
}
