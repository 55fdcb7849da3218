//! Fig. 11: efficiency of multi-variable inference — sample size and
//! wall-clock time as a function of workload size, tuple-DAG vs the
//! tuple-at-a-time baseline (500 samples per tuple).

use crate::experiments::{grid, ExpOptions};
use crate::missing::inject_missing_varying;
use crate::report::Report;
use crate::runner::run_parallel;
use mrsl_core::{
    infer_batch, GibbsConfig, GibbsSampler, InferenceEngine, TupleDagWorkload, VotingConfig,
};
use mrsl_util::table::fmt_f;
use mrsl_util::Table;

fn workload_sizes(opts: &ExpOptions) -> Vec<usize> {
    if opts.full {
        vec![500, 1_000, 2_000, 3_000]
    } else {
        vec![100, 250, 500]
    }
}

fn networks(opts: &ExpOptions) -> Vec<&'static str> {
    if opts.full {
        vec![
            "BN1", "BN2", "BN3", "BN5", "BN8", "BN9", "BN10", "BN13", "BN17",
        ]
    } else {
        vec!["BN8", "BN9", "BN13"]
    }
}

fn params(opts: &ExpOptions) -> (usize, f64, usize, usize) {
    // (train, support, samples per tuple N, burn-in B)
    if opts.full {
        (20_000, 0.002, 500, 100)
    } else {
        (5_000, 0.005, 500, 100)
    }
}

/// Regenerates Fig. 11: per (network, workload size, engine), the total
/// number of sampled points and the wall-clock time of inference.
pub fn run(opts: &ExpOptions) -> Report {
    let (train, support, samples, burn_in) = params(opts);
    let gibbs = GibbsConfig {
        burn_in,
        samples,
        voting: VotingConfig::best_averaged(),
    };
    let mut table = Table::new([
        "network",
        "workload",
        "strategy",
        "sample size (draws)",
        "shared",
        "time (s)",
    ]);

    for name in networks(opts) {
        let net = mrsl_bayesnet::catalog::by_name(name)
            .expect("catalog name")
            .topology;
        let max_workload = *workload_sizes(opts).iter().max().expect("non-empty");
        let single = ExpOptions {
            instances: 1,
            splits: 1,
            ..*opts
        };
        let cells = grid(
            std::slice::from_ref(&net),
            &single,
            train,
            max_workload,
            |s| {
                s.support = support;
            },
        );
        // Timing experiment: run cells sequentially.
        let rows = run_parallel(cells, 1, |spec| {
            let ctx = spec.build();
            let max_k = ctx.bn.spec().num_attrs() - 1;
            let engines: [(&str, &dyn InferenceEngine); 2] = [
                ("tuple-at-a-time", &GibbsSampler::from_config(&gibbs)),
                ("tuple-DAG", &TupleDagWorkload::from_config(&gibbs)),
            ];
            let mut out = Vec::new();
            for &w in &workload_sizes(opts) {
                let workload =
                    inject_missing_varying(&ctx.test_points[..w], max_k, spec.seed ^ w as u64);
                for (label, engine) in engines {
                    let result =
                        infer_batch(&ctx.model, &workload, engine, gibbs.voting, spec.seed);
                    out.push((w, label, result.cost));
                }
            }
            out
        });
        for row in rows.into_iter().flatten() {
            let (w, label, cost) = row;
            table.push_row([
                name.to_string(),
                w.to_string(),
                label.to_string(),
                cost.total_draws.to_string(),
                cost.shared_samples.to_string(),
                fmt_f(cost.elapsed.as_secs_f64(), 3),
            ]);
        }
    }
    Report::new(
        "fig11",
        format!("Efficiency of multi-variable inference (N = {samples}/tuple, B = {burn_in})"),
        table,
    )
    .note("paper: sample size and wall-clock grow linearly with workload size; tuple-DAG beats tuple-at-a-time by up to ~an order of magnitude")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::CellSpec;
    use mrsl_core::{MrslModel, WorkloadResult};
    use mrsl_relation::PartialTuple;
    use mrsl_util::FxHasher;
    use std::hash::Hasher;

    /// The BN8 workload both tests sample: 150 test tuples with up to
    /// three hidden attributes, B = 50, N = 200.
    fn bn8_fixture() -> (MrslModel, Vec<PartialTuple>, GibbsConfig) {
        let net = mrsl_bayesnet::catalog::by_name("BN8").unwrap().topology;
        let mut spec = CellSpec::new(net, 3_000, 150);
        spec.support = 0.005;
        let ctx = spec.build();
        let workload = inject_missing_varying(&ctx.test_points, 3, 5);
        let gibbs = GibbsConfig {
            burn_in: 50,
            samples: 200,
            voting: VotingConfig::best_averaged(),
        };
        (ctx.model, workload, gibbs)
    }

    fn run_engine(
        model: &MrslModel,
        workload: &[PartialTuple],
        gibbs: &GibbsConfig,
        engine: &dyn InferenceEngine,
    ) -> WorkloadResult {
        infer_batch(model, workload, engine, gibbs.voting, 1)
    }

    /// Every estimate's bits and sample count, then every cost counter
    /// except the wall-clock time.
    fn digest(result: &WorkloadResult) -> u64 {
        let mut h = FxHasher::default();
        for est in &result.estimates {
            h.write_usize(est.sample_count);
            for p in &est.probs {
                h.write_u64(p.to_bits());
            }
        }
        let c = &result.cost;
        for n in [c.total_draws, c.burn_in_draws, c.shared_samples, c.chains] {
            h.write_usize(n);
        }
        h.finish()
    }

    #[test]
    fn dag_beats_baseline_on_sample_size() {
        let (model, workload, gibbs) = bn8_fixture();
        let base = run_engine(
            &model,
            &workload,
            &gibbs,
            &GibbsSampler::from_config(&gibbs),
        );
        let dag = run_engine(
            &model,
            &workload,
            &gibbs,
            &TupleDagWorkload::from_config(&gibbs),
        );
        assert!(
            dag.cost.total_draws < base.cost.total_draws,
            "dag {} vs baseline {}",
            dag.cost.total_draws,
            base.cost.total_draws
        );
        assert!(dag.cost.shared_samples > 0);
    }

    /// The tuple-DAG estimates and cost counters on the BN8 workload are
    /// pinned: any change to the schedule, the seeds or the sharing order
    /// shows up here, at every thread count.
    #[test]
    fn dag_estimates_match_pinned_digest_at_any_thread_count() {
        const PINNED: u64 = 14_484_859_554_181_150_682;
        let (model, workload, gibbs) = bn8_fixture();
        let dag = TupleDagWorkload::from_config(&gibbs);
        for threads in [1, 2, 8] {
            let result = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool")
                .install(|| run_engine(&model, &workload, &gibbs, &dag));
            assert_eq!(digest(&result), PINNED, "{threads} threads");
        }
    }
}
