//! Ablation beyond the paper's own tables: Gibbs sampling vs the
//! independence-assuming product baseline (§V's motivating comparison),
//! quantifying how much the joint sampler buys on correlated networks.

use crate::experiments::{grid, mean, ExpOptions};
use crate::metrics::{kl_divergence, top1_match};
use crate::missing::inject_missing;
use crate::report::Report;
use crate::runner::run_parallel;
use mrsl_bayesnet::conditional;
use mrsl_core::{
    infer_batch, GibbsConfig, IndependentBaseline, InferContext, InferenceEngine, TupleDagWorkload,
    VotingConfig,
};
use mrsl_util::table::fmt_f;
use mrsl_util::Table;

fn params(opts: &ExpOptions) -> (usize, usize, f64, usize) {
    if opts.full {
        (50_000, 150, 0.001, 2_000)
    } else {
        (8_000, 60, 0.002, 1_000)
    }
}

/// Networks with strong intra-tuple correlations, where the independence
/// assumption should visibly hurt.
fn networks() -> Vec<&'static str> {
    vec!["BN13", "BN2", "BN9"]
}

/// Compares joint Gibbs inference against the per-attribute product
/// baseline on 2-missing-attribute tuples.
pub fn run(opts: &ExpOptions) -> Report {
    let (train, test, support, samples) = params(opts);
    let gibbs = GibbsConfig {
        burn_in: 100,
        samples,
        voting: VotingConfig::best_averaged(),
    };
    let mut table = Table::new([
        "network",
        "gibbs KL",
        "independent KL",
        "gibbs top-1",
        "independent top-1",
    ]);
    for name in networks() {
        let net = mrsl_bayesnet::catalog::by_name(name)
            .expect("catalog name")
            .topology;
        let cells = grid(std::slice::from_ref(&net), opts, train, test, |s| {
            s.support = support;
        });
        let rows = run_parallel(cells, opts.threads, |spec| {
            let ctx = spec.build();
            let injected = inject_missing(&ctx.test_points, 2, spec.seed ^ 0xab);
            let gibbs_result = infer_batch(
                &ctx.model,
                &injected,
                &TupleDagWorkload::from_config(&gibbs),
                gibbs.voting,
                spec.seed,
            );
            let mut infer_ctx = InferContext::new(&ctx.model, gibbs.voting);
            let mut g_kl = 0.0;
            let mut i_kl = 0.0;
            let mut g_hit = 0usize;
            let mut i_hit = 0usize;
            let mut n = 0usize;
            for (t, g_est) in injected.iter().zip(&gibbs_result.estimates) {
                let Some(truth) = conditional(&ctx.bn, t.missing_mask(), t) else {
                    continue;
                };
                let i_est = IndependentBaseline.estimate(&mut infer_ctx, t, 0);
                g_kl += kl_divergence(&truth, &g_est.probs);
                i_kl += kl_divergence(&truth, &i_est.probs);
                g_hit += top1_match(&truth, &g_est.probs) as usize;
                i_hit += top1_match(&truth, &i_est.probs) as usize;
                n += 1;
            }
            let n = n.max(1) as f64;
            (g_kl / n, i_kl / n, g_hit as f64 / n, i_hit as f64 / n)
        });
        table.push_row([
            name.to_string(),
            fmt_f(mean(rows.iter().map(|r| r.0)), 3),
            fmt_f(mean(rows.iter().map(|r| r.1)), 3),
            fmt_f(mean(rows.iter().map(|r| r.2)), 3),
            fmt_f(mean(rows.iter().map(|r| r.3)), 3),
        ]);
    }
    Report::new(
        "ablation",
        "Joint Gibbs inference vs independence-assuming product baseline (2 missing attrs)",
        table,
    )
    .note("the paper argues (§V) the product estimate relies on unwarranted independence assumptions; this quantifies the gap")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::CellSpec;

    #[test]
    fn gibbs_beats_independent_on_a_chain() {
        // On a chain, adjacent attributes are strongly correlated; hiding
        // two adjacent attributes makes the product baseline pay.
        let net = mrsl_bayesnet::catalog::by_name("BN13").unwrap().topology;
        let mut spec = CellSpec::new(net, 6_000, 80);
        spec.support = 0.002;
        let ctx = spec.build();
        let injected = inject_missing(&ctx.test_points, 2, 17);
        let gibbs = GibbsConfig {
            burn_in: 100,
            samples: 1_500,
            voting: VotingConfig::best_averaged(),
        };
        let result = infer_batch(
            &ctx.model,
            &injected,
            &TupleDagWorkload::from_config(&gibbs),
            gibbs.voting,
            3,
        );
        let mut infer_ctx = InferContext::new(&ctx.model, gibbs.voting);
        let mut g_kl = 0.0;
        let mut i_kl = 0.0;
        let mut n = 0;
        for (t, g_est) in injected.iter().zip(&result.estimates) {
            let Some(truth) = conditional(&ctx.bn, t.missing_mask(), t) else {
                continue;
            };
            let i_est = IndependentBaseline.estimate(&mut infer_ctx, t, 0);
            g_kl += kl_divergence(&truth, &g_est.probs);
            i_kl += kl_divergence(&truth, &i_est.probs);
            n += 1;
        }
        assert!(n > 0);
        // Gibbs should be at least as good on average (generous slack for
        // Monte-Carlo noise at this scale).
        assert!(
            g_kl <= i_kl + 0.05 * n as f64,
            "gibbs {g_kl} vs independent {i_kl} over {n} tuples"
        );
    }
}
