//! Joins across derived relations: the catalog + relational-algebra API.
//!
//! A sensor network stores station metadata (`sensors`) and measurements
//! (`readings`) in separate relations, both with dropouts. We derive each
//! into a probabilistic relation **lazily for one join query**, register
//! them in a `Catalog`, and ask: *is some outdoor station currently
//! reporting a high reading?* — a boolean conjunctive query the safe-plan
//! classifier recognizes as hierarchical and answers exactly, which we
//! cross-check against the multi-relation Monte-Carlo sampler. A second,
//! non-hierarchical query shows the planner routing to sampling, with the
//! reason recorded in the report.
//!
//! Run with: `cargo run --release --example catalog_joins`

use mrsl_repro::bayesnet::{BayesianNetwork, NodeSpec, TopologySpec};
use mrsl_repro::core::{
    derive_catalog_for_query, GibbsConfig, LazySource, LearnConfig, MrslModel, TupleDagWorkload,
};
use mrsl_repro::probdb::{CatalogEngine, Predicate, Query, QueryEngineConfig, Statistic};
use mrsl_repro::relation::{AttrId, Relation, ValueId};
use mrsl_repro::util::seeded_rng;
use rand::Rng;

const STATIONS: usize = 5;

fn network(name: &str, attr: &str, card: usize) -> TopologySpec {
    TopologySpec::new(
        name,
        vec![
            NodeSpec {
                name: "station".into(),
                cardinality: STATIONS,
                parents: vec![],
            },
            NodeSpec {
                name: attr.into(),
                cardinality: card,
                parents: vec![0],
            },
            NodeSpec {
                name: "ok".into(),
                cardinality: 2,
                parents: vec![1],
            },
        ],
    )
    .expect("valid topology")
}

/// Samples `complete` full tuples plus `incomplete` tuples that each lost
/// one attribute drawn from `hideable` (the station id survives every
/// dropout, as it would in a real ingest pipeline — it is the record's
/// address; relations whose *other* attributes serve as join keys keep
/// those observed too, or blocks would straddle the key).
fn sample_relation(
    bn: &BayesianNetwork,
    complete: usize,
    incomplete: usize,
    seed: u64,
    hideable: std::ops::Range<u16>,
) -> Relation {
    let mut rel = Relation::new(bn.schema().clone());
    for p in mrsl_repro::bayesnet::sampler::sample_dataset(bn, complete, seed) {
        rel.push_complete(p).expect("arity ok");
    }
    let mut rng = seeded_rng(seed ^ 0xd06);
    for p in mrsl_repro::bayesnet::sampler::sample_dataset(bn, incomplete, seed ^ 0xfeed) {
        let hide = AttrId(rng.gen_range(hideable.clone()));
        rel.push(p.to_partial().without_attr(hide))
            .expect("arity ok");
    }
    rel
}

fn main() {
    let sensors_bn = BayesianNetwork::instantiate(&network("sensors", "kind", 2), 0.5, 36);
    let readings_bn = BayesianNetwork::instantiate(&network("readings", "level", 3), 0.5, 33);

    // Models are learned from a large *historical* sample; the queried
    // relations are today's small, partially-reported snapshot — so the
    // query's answer genuinely hinges on the inferred distributions.
    let learn = LearnConfig {
        support_threshold: 0.005,
        max_itemsets: 1000,
    };
    let sensors_history = mrsl_repro::bayesnet::sampler::sample_dataset(&sensors_bn, 3_000, 101);
    let readings_history = mrsl_repro::bayesnet::sampler::sample_dataset(&readings_bn, 3_000, 102);
    let sensors_model = MrslModel::learn(sensors_bn.schema(), &sensors_history, &learn);
    let readings_model = MrslModel::learn(readings_bn.schema(), &readings_history, &learn);

    // Sensors may lose kind or ok; readings keep (station, level) — their
    // level becomes a join key below — and only lose the ok flag.
    let sensors = sample_relation(&sensors_bn, 2, 6, 4, 1..3);
    let readings = sample_relation(&readings_bn, 3, 9, 174, 2..3);
    println!(
        "today's snapshot — sensors: {} complete + {} incomplete; \
         readings: {} complete + {} incomplete (models from 3000 historical rows each)",
        sensors.complete_part().len(),
        sensors.incomplete_part().len(),
        readings.complete_part().len(),
        readings.incomplete_part().len(),
    );

    // The query: ∃ outdoor sensor s, reading r at the same station with a
    // high level? (kind=1 is "outdoor", level=2 is "high".)
    let query = Query::scan("sensors")
        .filter(Predicate::eq(AttrId(1), ValueId(1)))
        .join_on(
            Query::scan("readings").filter(Predicate::eq(AttrId(1), ValueId(2))),
            [(AttrId(0), AttrId(0))],
        )
        .project([AttrId(0)]);
    let gibbs = GibbsConfig {
        burn_in: 80,
        samples: 600,
        ..GibbsConfig::default()
    };
    let lazy = derive_catalog_for_query(
        &[
            LazySource {
                name: "sensors",
                relation: &sensors,
                model: &sensors_model,
            },
            LazySource {
                name: "readings",
                relation: &readings,
                model: &readings_model,
            },
        ],
        &query,
        &gibbs,
        &TupleDagWorkload::from_config(&gibbs),
        7,
    )
    .expect("derivation succeeds");
    for stats in &lazy.per_relation {
        println!(
            "derived `{}`: {} blocks inferred, {} pinned without inference, {} ruled out",
            stats.relation, stats.inferred, stats.pinned, stats.ruled_out
        );
    }

    // Exact safe-plan evaluation...
    let engine = CatalogEngine::new(&lazy.catalog);
    let (p, report) = engine.probability(&query).expect("hierarchical join");
    println!(
        "\nP(∃ outdoor station with a high reading) = {p:.4} via {:?} ({:?})",
        report.path, report.plan
    );
    if let Some(plan) = &report.decomposition {
        println!("safe plan: {}", plan.render());
    }
    let (pairs, _) = engine.expected_count(&query).expect("expected count");
    println!("E[#(outdoor sensor, high reading) pairs] = {pairs:.2}");

    // ...cross-checked by the multi-relation Monte-Carlo sampler.
    let mc_engine = CatalogEngine::with_config(
        &lazy.catalog,
        QueryEngineConfig {
            force_monte_carlo: true,
            mc_samples: 20_000,
            ..QueryEngineConfig::default()
        },
    );
    let (answer, mc_report) = mc_engine
        .evaluate(&query, Statistic::Probability)
        .expect("mc join");
    if let mrsl_repro::probdb::QueryAnswer::Probability { p: mc, std_error } = answer {
        println!(
            "Monte-Carlo cross-check: {mc:.4} ± {:.4} over {} joint worlds",
            std_error.unwrap_or(0.0),
            mc_report.mc_samples
        );
    }

    // A non-hierarchical shape — sensors(x), readings(x, y), quality(y) —
    // has no safe plan; the planner says so and samples.
    let quality_bn = BayesianNetwork::instantiate(&network("quality", "level", 3), 0.5, 31);
    let quality_history = mrsl_repro::bayesnet::sampler::sample_dataset(&quality_bn, 3_000, 103);
    let quality_model = MrslModel::learn(quality_bn.schema(), &quality_history, &learn);
    let quality = sample_relation(&quality_bn, 3, 8, 3, 2..3);
    let chain = Query::scan("sensors")
        .join_on("readings", [(AttrId(0), AttrId(0))])
        .join_on_rel("readings", "quality", [(AttrId(1), AttrId(1))]);
    let lazy_chain = derive_catalog_for_query(
        &[
            LazySource {
                name: "sensors",
                relation: &sensors,
                model: &sensors_model,
            },
            LazySource {
                name: "readings",
                relation: &readings,
                model: &readings_model,
            },
            LazySource {
                name: "quality",
                relation: &quality,
                model: &quality_model,
            },
        ],
        &chain,
        &gibbs,
        &TupleDagWorkload::from_config(&gibbs),
        7,
    )
    .expect("derivation succeeds");
    let chain_engine = CatalogEngine::with_config(
        &lazy_chain.catalog,
        QueryEngineConfig {
            mc_samples: 5_000,
            ..QueryEngineConfig::default()
        },
    );
    let (p_chain, chain_report) = chain_engine.probability(&chain).expect("mc chain");
    println!(
        "\nnon-hierarchical chain query: P = {p_chain:.4} via {:?} ({:?})",
        chain_report.path, chain_report.plan
    );
    if let Some(plan) = &chain_report.decomposition {
        println!("classifier verdict: {}", plan.render());
    }

    // Dissociation gives the same unsafe shape deterministic guarantees:
    // replicate the scan that skips a join variable into every key branch
    // and the safe plan's answer brackets the truth — no sampling needed
    // unless the bracket is wider than the configured tolerance.
    let (bounds, bounds_report) = chain_engine
        .probability_bounds(&chain)
        .expect("bounds on the chain");
    println!(
        "dissociation bounds: P ∈ [{:.4}, {:.4}] via {:?} ({:?})",
        bounds.lower, bounds.upper, bounds_report.path, bounds_report.plan
    );
    for d in &bounds_report.dissociated {
        println!("dissociated: {d}");
    }
    if let Some(plan) = &bounds_report.decomposition {
        println!("dissociated plan: {}", plan.render());
    }
    match (bounds.estimate, bounds.std_error) {
        (Some(est), Some(se)) => println!(
            "bracket wider than {:.2} → refined by sampling: {est:.4} ± {se:.4}",
            chain_engine.config().bounds_tolerance
        ),
        _ => println!("bracket within tolerance: no sampling spent"),
    }
    assert!(
        bounds.lower <= p_chain + 0.05 && p_chain - 0.05 <= bounds.upper,
        "MC estimate strayed far outside the guaranteed bracket"
    );
}
