//! The tuple-DAG optimization in action (Fig. 3 / Algorithm 3).
//!
//! Builds a workload of incomplete tuples over a 6-attribute network,
//! prints the subsumption DAG structure, and contrasts the sampling cost
//! of tuple-at-a-time vs tuple-DAG scheduling — the paper's Fig. 11
//! experiment in miniature.
//!
//! Run with: `cargo run --release --example workload_dag`

use mrsl_repro::bayesnet::catalog::by_name;
use mrsl_repro::bayesnet::BayesianNetwork;
use mrsl_repro::core::{
    infer_batch, GibbsConfig, GibbsSampler, InferenceEngine, LearnConfig, MrslModel, TupleDag,
    TupleDagWorkload, VotingConfig,
};
use mrsl_repro::relation::display::render_partial;
use mrsl_repro::relation::{AttrId, PartialTuple};
use mrsl_repro::util::seeded_rng;
use rand::seq::SliceRandom;
use rand::Rng;

fn main() {
    let net = by_name("BN9").expect("BN9 in catalog").topology;
    let bn = BayesianNetwork::instantiate(&net, 0.5, 11);
    let train = mrsl_repro::bayesnet::sampler::sample_dataset(&bn, 6000, 1);
    let model = MrslModel::learn(
        bn.schema(),
        &train,
        &LearnConfig {
            support_threshold: 0.005,
            max_itemsets: 1000,
        },
    );

    // A workload with plenty of subsumption: hide 1–5 of 6 attributes.
    let points = mrsl_repro::bayesnet::sampler::sample_dataset(&bn, 400, 2);
    let mut rng = seeded_rng(3);
    let workload: Vec<PartialTuple> = points
        .iter()
        .map(|p| {
            let k = rng.gen_range(1..=5usize);
            let mut attrs: Vec<u16> = (0..6).collect();
            attrs.shuffle(&mut rng);
            let mut t = p.to_partial();
            for &a in &attrs[..k] {
                t = t.without_attr(AttrId(a));
            }
            t
        })
        .collect();

    // Inspect the DAG.
    let dag = TupleDag::build(&workload);
    let shared_nodes = dag.workload_nodes().len().saturating_sub(dag.len());
    let edges: usize = (0..dag.len()).map(|i| dag.children(i).len()).sum();
    println!(
        "workload: {} tuples → {} distinct DAG nodes ({} duplicates), {} cover edges, {} roots",
        workload.len(),
        dag.len(),
        shared_nodes,
        edges,
        dag.roots().len()
    );

    // Show one subsumption chain like Fig. 3.
    let schema = bn.schema();
    if let Some(&root) = dag.roots().iter().find(|&&r| !dag.children(r).is_empty()) {
        println!("\na subsumption family (cf. Fig. 3):");
        println!("  root: {}", render_partial(schema, &dag.nodes()[root]));
        for &child in dag.children(root).iter().take(3) {
            println!("   └─ {}", render_partial(schema, &dag.nodes()[child]));
            for &grand in dag.children(child).iter().take(2) {
                println!("       └─ {}", render_partial(schema, &dag.nodes()[grand]));
            }
        }
    }

    // Race the two engines.
    let gibbs = GibbsConfig {
        burn_in: 100,
        samples: 500,
        voting: VotingConfig::best_averaged(),
    };
    println!(
        "\nsampling with N = {} per tuple, burn-in {}:",
        gibbs.samples, gibbs.burn_in
    );
    let engines: [(&str, &dyn InferenceEngine); 2] = [
        ("tuple-at-a-time", &GibbsSampler::from_config(&gibbs)),
        ("tuple-DAG", &TupleDagWorkload::from_config(&gibbs)),
    ];
    for (label, engine) in engines {
        let result = infer_batch(&model, &workload, engine, gibbs.voting, 9);
        println!(
            "  {:<16} draws {:>8}  chains {:>4}  shared {:>7}  wall {:>6.2}s",
            label,
            result.cost.total_draws,
            result.cost.chains,
            result.cost.shared_samples,
            result.cost.elapsed.as_secs_f64(),
        );
    }
    println!("\n(the paper reports close to an order-of-magnitude sampling reduction; the exact factor depends on how much the workload overlaps)");
}
