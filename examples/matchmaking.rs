//! Matchmaking at scale: derive a probabilistic database from a synthetic
//! profile dataset and answer queries over it.
//!
//! The paper motivates MRSL with an eHarmony-style profile table (Fig. 1).
//! This example scales that scenario up: a 4-attribute profile schema with
//! realistic correlations (age→income→net-worth, education→income) encoded
//! as a Bayesian network, 5000 observed profiles, 400 partially-filled
//! ones. We derive the probabilistic database and then ask the questions a
//! matchmaking service would:
//!
//!   * how many candidates probably earn 100K+?
//!   * what is the distribution of the count of rich candidates?
//!   * who are the top-5 most probably ⟨high income, high net worth⟩?
//!
//! Run with: `cargo run --release --example matchmaking`

use mrsl_repro::bayesnet::{BayesianNetwork, NodeSpec, TopologySpec};
use mrsl_repro::core::{derive_probabilistic_db, DeriveConfig, GibbsConfig, LearnConfig};
use mrsl_repro::probdb::{
    Catalog, CatalogEngine, EvalPath, Predicate, Query, QueryEngineConfig, Statistic,
};
use mrsl_repro::relation::{AttrId, Relation, ValueId};
use mrsl_repro::util::seeded_rng;
use rand::seq::SliceRandom;
use rand::Rng;

fn profile_network() -> TopologySpec {
    // age → inc, edu → inc, inc → nw: the dependency structure the paper's
    // introduction describes ("higher age often co-occurs with higher
    // income, and higher income often co-occurs with higher net worth").
    TopologySpec::new(
        "profiles",
        vec![
            NodeSpec {
                name: "age".into(),
                cardinality: 3, // 20 / 30 / 40
                parents: vec![],
            },
            NodeSpec {
                name: "edu".into(),
                cardinality: 3, // HS / BS / MS
                parents: vec![],
            },
            NodeSpec {
                name: "inc".into(),
                cardinality: 2, // 50K / 100K
                parents: vec![0, 1],
            },
            NodeSpec {
                name: "nw".into(),
                cardinality: 2, // 100K / 500K
                parents: vec![2],
            },
        ],
    )
    .expect("valid topology")
}

fn main() {
    let spec = profile_network();
    let bn = BayesianNetwork::instantiate(&spec, 0.4, 2024);
    let schema = bn.schema().clone();

    // Sample 5400 profiles; hide 1–2 attributes in 400 of them.
    let mut rng = seeded_rng(7);
    let points = mrsl_repro::bayesnet::sampler::sample_dataset(&bn, 5400, 99);
    let mut relation = Relation::new(schema.clone());
    for (i, p) in points.into_iter().enumerate() {
        if i < 5000 {
            relation.push_complete(p).expect("arity ok");
        } else {
            let mut t = p.to_partial();
            let hide = rng.gen_range(1..=2usize);
            let mut attrs: Vec<u16> = (0..4).collect();
            attrs.shuffle(&mut rng);
            for &a in &attrs[..hide] {
                t = t.without_attr(AttrId(a));
            }
            relation.push(t).expect("arity ok");
        }
    }
    println!(
        "profiles: {} complete, {} incomplete",
        relation.complete_part().len(),
        relation.incomplete_part().len()
    );

    // Derive the probabilistic database.
    let config = DeriveConfig {
        learn: LearnConfig {
            support_threshold: 0.005,
            max_itemsets: 1000,
        },
        gibbs: GibbsConfig {
            burn_in: 100,
            samples: 800,
            ..GibbsConfig::default()
        },
        ..DeriveConfig::default()
    };
    let out = derive_probabilistic_db(&relation, &config);
    println!(
        "derived: model of {} meta-rules in {:.2}s; {} blocks, {} alternatives, {} Gibbs draws ({} shared)",
        out.model.size(),
        out.elapsed.as_secs_f64(),
        out.db.blocks().len(),
        out.db.alternative_count(),
        out.sampling_cost.total_draws,
        out.sampling_cost.shared_samples,
    );

    // The derived database moves into a named catalog; every question is
    // an algebra tree answered by the planned engine.
    let mut catalog = Catalog::new();
    catalog.add("profiles", out.db).expect("fresh catalog");
    let db = catalog.get("profiles").expect("added above");
    let engine = CatalogEngine::new(&catalog);
    let profiles = |pred: &Predicate| Query::scan("profiles").filter(pred.clone());

    // Query 1: expected number of 100K+ earners.
    let inc = schema.attr_id("inc").expect("inc");
    let nw = schema.attr_id("nw").expect("nw");
    let rich = Predicate::any().and_eq(inc, ValueId(1));
    let (expected, _) = engine
        .expected_count(&profiles(&rich))
        .expect("planned query");
    let certain = db.certain().filter(|t| t.value(inc) == ValueId(1)).count();
    println!(
        "\nE[#profiles with inc=100K] = {expected:.1} ({certain} certain + {:.1} expected from blocks)",
        expected - certain as f64
    );

    // Query 2: exact distribution of the count of ⟨100K, 500K⟩ candidates
    // among the *incomplete* profiles (restrict attention to blocks).
    let prime = Predicate::any()
        .and_eq(inc, ValueId(1))
        .and_eq(nw, ValueId(1));
    let (dist, _) = engine
        .count_distribution(&profiles(&prime))
        .expect("planned query");
    let mean: f64 = dist.iter().enumerate().map(|(k, &p)| k as f64 * p).sum();
    let mode = dist
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(k, _)| k)
        .unwrap_or(0);
    println!(
        "COUNT(inc=100K ∧ nw=500K): mean {mean:.1}, mode {mode}, P(count=mode) = {:.3}",
        dist[mode]
    );

    // Query 3: top-5 most probable ⟨100K, 500K⟩ completions among blocks.
    // Certain matches rank first (probability 1), so ask for enough rows
    // to reach the block tuples behind them.
    println!("\ntop-5 probable ⟨inc=100K, nw=500K⟩ candidates from incomplete profiles:");
    let deep = db.certain().len() + 50;
    let (ranked, _) = engine
        .top_k(&profiles(&prime), deep)
        .expect("planned query");
    for ranked in ranked.into_iter().filter(|r| r.block.is_some()).take(5) {
        let cells: Vec<String> = schema
            .iter()
            .map(|(aid, attr)| attr.value_label(ranked.tuple.value(aid)).to_string())
            .collect();
        println!(
            "  block {:>4}: ⟨{}⟩ with prob {:.3}",
            ranked.block.expect("filtered to blocks"),
            cells.join(", "),
            ranked.prob
        );
    }

    // Query 4: a compound predicate — prime matches *or*
    // young-and-educated long shots, excluding the lowest bracket:
    // (inc=100K ∧ nw=500K) ∨ (age=20 ∧ ¬(edu=HS)).
    let age = schema.attr_id("age").expect("age");
    let edu = schema.attr_id("edu").expect("edu");
    let compound = prime
        .clone()
        .or(Predicate::eq(age, ValueId(0)).and(Predicate::eq(edu, ValueId(0)).negate()));
    let compound_query = profiles(&compound);
    let (count, report) = engine
        .expected_count(&compound_query)
        .expect("planned query");
    println!(
        "\nE[#(prime ∨ young-non-HS)] = {count:.1} via {:?} ({} of {} blocks pruned)",
        report.path, report.blocks_pruned, report.blocks_total
    );
    let (p_any, _) = engine.probability(&compound_query).expect("planned query");
    println!("P(at least one such profile exists) = {p_any:.4}");

    // The same count distribution through both physical paths: exact DP,
    // then forced Monte Carlo.
    let (exact_dist, exact_report) = engine
        .count_distribution(&compound_query)
        .expect("exact path");
    let mc_engine = CatalogEngine::with_config(
        &catalog,
        QueryEngineConfig {
            force_monte_carlo: true,
            mc_samples: 20_000,
            ..QueryEngineConfig::default()
        },
    );
    let (mc_dist, mc_report) = mc_engine
        .count_distribution(&compound_query)
        .expect("mc path");
    assert_eq!(exact_report.path, EvalPath::ExactColumnar);
    assert_eq!(mc_report.path, EvalPath::MonteCarlo);
    let exact_mean: f64 = exact_dist
        .iter()
        .enumerate()
        .map(|(k, &p)| k as f64 * p)
        .sum();
    let mc_mean: f64 = mc_dist.iter().enumerate().map(|(k, &p)| k as f64 * p).sum();
    println!(
        "count distribution mean: exact {exact_mean:.2} ({:?}), MC {mc_mean:.2} ({:?}, {} samples)",
        exact_report.path, mc_report.path, mc_report.mc_samples
    );

    // A range workload: middle-or-upper age bracket (30..=40).
    let (mature, mature_report) = engine
        .evaluate(
            &Query::scan("profiles").filter(Predicate::range(age, ValueId(1), ValueId(2))),
            Statistic::ExpectedCount,
        )
        .expect("range query");
    if let mrsl_repro::probdb::QueryAnswer::Count { mean, .. } = mature {
        println!(
            "E[#profiles with age ∈ [30, 40]] = {mean:.1} via {:?}",
            mature_report.path
        );
    }

    // Sanity: compare the derived marginal of `inc` against the network's.
    let (derived, _) = engine
        .value_marginal(&Query::scan("profiles"), inc)
        .expect("planned query");
    let true_marginal = bn.marginal(inc);
    println!(
        "\nmarginal of inc: derived [{}], true BN [{}]",
        derived
            .iter()
            .map(|p| format!("{p:.3}"))
            .collect::<Vec<_>>()
            .join(", "),
        true_marginal
            .iter()
            .map(|p| format!("{p:.3}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
}
