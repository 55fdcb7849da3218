//! Scientific data cleaning: impute missing sensor readings.
//!
//! The paper's second motivating domain is scientific data management,
//! where "experimental results are often noisy or missing". This example
//! models a six-station environmental sensor network — temperature,
//! humidity, pressure band, wind band, sky condition, air quality — whose
//! discretized readings are correlated (weather fronts propagate). Sensors
//! drop readings; we derive probability distributions for the gaps and
//! compare three estimators on held-out ground truth:
//!
//!   * MRSL + Gibbs (the paper's method),
//!   * the independence-assuming product baseline (§V's strawman),
//!   * uninformed uniform guessing.
//!
//! Run with: `cargo run --release --example sensor_cleaning`

use mrsl_repro::bayesnet::{conditional, BayesianNetwork, NodeSpec, TopologySpec};
use mrsl_repro::core::{
    infer_batch, GibbsConfig, IndependentBaseline, InferContext, InferenceEngine, LearnConfig,
    MrslModel, TupleDagWorkload, VotingConfig,
};
use mrsl_repro::eval::{kl_divergence, top1_match};
use mrsl_repro::relation::{AttrId, PartialTuple};
use mrsl_repro::util::seeded_rng;
use rand::seq::SliceRandom;
use rand::Rng;

fn weather_network() -> TopologySpec {
    // front → (temp, pressure); temp → humidity; pressure → wind;
    // (humidity, wind) → sky; sky → air quality.
    TopologySpec::new(
        "weather",
        vec![
            NodeSpec {
                name: "front".into(),
                cardinality: 3,
                parents: vec![],
            },
            NodeSpec {
                name: "temp".into(),
                cardinality: 4,
                parents: vec![0],
            },
            NodeSpec {
                name: "pressure".into(),
                cardinality: 3,
                parents: vec![0],
            },
            NodeSpec {
                name: "humidity".into(),
                cardinality: 3,
                parents: vec![1],
            },
            NodeSpec {
                name: "wind".into(),
                cardinality: 3,
                parents: vec![2],
            },
            NodeSpec {
                name: "sky".into(),
                cardinality: 3,
                parents: vec![3, 4],
            },
        ],
    )
    .expect("valid topology")
}

fn main() {
    let spec = weather_network();
    let bn = BayesianNetwork::instantiate(&spec, 0.45, 77);

    // 8000 clean historical readings to learn from.
    let train = mrsl_repro::bayesnet::sampler::sample_dataset(&bn, 8000, 1);
    let model = MrslModel::learn(
        bn.schema(),
        &train,
        &LearnConfig {
            support_threshold: 0.003,
            max_itemsets: 1000,
        },
    );
    println!(
        "learned MRSL model from {} readings: {} meta-rules in {:.2}s",
        train.len(),
        model.size(),
        model.stats().elapsed.as_secs_f64()
    );

    // 200 fresh readings, each losing 2 or 3 values (sensor dropouts).
    let fresh = mrsl_repro::bayesnet::sampler::sample_dataset(&bn, 200, 2);
    let mut rng = seeded_rng(13);
    let workload: Vec<PartialTuple> = fresh
        .iter()
        .map(|p| {
            let k = rng.gen_range(2..=3usize);
            let mut attrs: Vec<u16> = (0..6).collect();
            attrs.shuffle(&mut rng);
            let mut t = p.to_partial();
            for &a in &attrs[..k] {
                t = t.without_attr(AttrId(a));
            }
            t
        })
        .collect();

    // The paper's estimator: workload-driven Gibbs with the tuple DAG.
    let gibbs = GibbsConfig {
        burn_in: 100,
        samples: 1500,
        voting: VotingConfig::best_averaged(),
    };
    let result = infer_batch(
        &model,
        &workload,
        &TupleDagWorkload::from_config(&gibbs),
        gibbs.voting,
        5,
    );
    println!(
        "imputed {} readings with {} Gibbs draws ({} shared via the tuple DAG) in {:.2}s",
        workload.len(),
        result.cost.total_draws,
        result.cost.shared_samples,
        result.cost.elapsed.as_secs_f64()
    );

    // Score all three estimators against the true BN conditionals.
    let mut infer_ctx = InferContext::new(&model, gibbs.voting);
    let (mut kl_g, mut kl_i, mut kl_u) = (0.0f64, 0.0f64, 0.0f64);
    let (mut t1_g, mut t1_i, mut t1_u) = (0usize, 0usize, 0usize);
    let mut n = 0usize;
    for (t, est) in workload.iter().zip(&result.estimates) {
        let Some(truth) = conditional(&bn, t.missing_mask(), t) else {
            continue;
        };
        let independent = IndependentBaseline.estimate(&mut infer_ctx, t, 0);
        let uniform = vec![1.0 / truth.len() as f64; truth.len()];
        kl_g += kl_divergence(&truth, &est.probs);
        kl_i += kl_divergence(&truth, &independent.probs);
        kl_u += kl_divergence(&truth, &uniform);
        t1_g += top1_match(&truth, &est.probs) as usize;
        t1_i += top1_match(&truth, &independent.probs) as usize;
        t1_u += top1_match(&truth, &uniform) as usize;
        n += 1;
    }
    let n_f = n as f64;
    println!("\nscored {n} imputations against the generating network:");
    println!("  estimator             avg KL    top-1");
    println!(
        "  MRSL + Gibbs (paper)  {:>6.3}    {:>5.1}%",
        kl_g / n_f,
        100.0 * t1_g as f64 / n_f
    );
    println!(
        "  independent product   {:>6.3}    {:>5.1}%",
        kl_i / n_f,
        100.0 * t1_i as f64 / n_f
    );
    println!(
        "  uniform guess         {:>6.3}    {:>5.1}%",
        kl_u / n_f,
        100.0 * t1_u as f64 / n_f
    );

    // Show one concrete imputation.
    let (idx, _) = workload
        .iter()
        .enumerate()
        .find(|(_, t)| t.missing_mask().count() == 2)
        .expect("some tuple has 2 gaps");
    let t = &workload[idx];
    let est = &result.estimates[idx];
    let schema = bn.schema();
    println!(
        "\nexample reading with dropouts: {}",
        mrsl_repro::relation::display::render_partial(schema, t)
    );
    let mut ranked: Vec<(usize, f64)> = est.probs.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    for (combo_idx, prob) in ranked.into_iter().take(3) {
        let assignment: Vec<String> = est
            .indexer
            .decode(combo_idx)
            .into_iter()
            .map(|(a, v)| {
                format!(
                    "{}={}",
                    schema.attr(a).name(),
                    schema.attr(a).value_label(v)
                )
            })
            .collect();
        println!("  {} with prob {:.3}", assignment.join(", "), prob);
    }
}
