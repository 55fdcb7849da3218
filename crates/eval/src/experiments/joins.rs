//! Multi-relation join planning self-check over two derived relations.
//!
//! Beyond the paper's own tables: derives **two** probabilistic relations
//! — station metadata and readings sharing a station dictionary — with the
//! lazy per-relation triage ([`derive_catalog_for_query`]), then
//! cross-checks the [`CatalogEngine`]'s two physical paths on a
//! hierarchical join query: the exact extensional safe plan against the
//! forced multi-relation Monte-Carlo sampler, for both `P(non-empty)` and
//! `E[|⨝|]`. A third, non-hierarchical query (`R(x), S(x,y), T(y)`) shows
//! the classifier routing unsafely-shaped queries to sampling, with the
//! decomposition verdict in the report — and the dissociation bracket the
//! same shape gets deterministically from `Statistic::ProbabilityBounds`.

use crate::experiments::ExpOptions;
use crate::report::Report;
use mrsl_bayesnet::{BayesianNetwork, NodeSpec, TopologySpec};
use mrsl_core::{
    derive_catalog_for_query, GibbsConfig, LazyCatalogOutput, LearnConfig, MrslModel,
    TupleDagWorkload,
};
use mrsl_probdb::{CatalogEngine, Predicate, Query, QueryEngineConfig, Statistic};
use mrsl_relation::{AttrId, PartialTuple, Relation, ValueId};
use mrsl_util::table::fmt_f;
use mrsl_util::{derive_seed, seeded_rng, Table};
use rand::Rng;

/// Keep the station dictionary modest so joins stay selective.
const STATIONS: usize = 6;

fn params(opts: &ExpOptions) -> (usize, usize, usize, usize) {
    if opts.full {
        (8_000, 400, 600, 40_000)
    } else {
        (2_000, 120, 300, 15_000)
    }
}

/// `sensors(station, kind, calib)`: kind/calibration correlate with the
/// station through a small Bayesian network.
fn sensors_network() -> TopologySpec {
    TopologySpec::new(
        "sensors",
        vec![
            NodeSpec {
                name: "station".into(),
                cardinality: STATIONS,
                parents: vec![],
            },
            NodeSpec {
                name: "kind".into(),
                cardinality: 3,
                parents: vec![0],
            },
            NodeSpec {
                name: "calib".into(),
                cardinality: 2,
                parents: vec![1],
            },
        ],
    )
    .expect("valid topology")
}

/// `readings(station, level, flag)`.
fn readings_network() -> TopologySpec {
    TopologySpec::new(
        "readings",
        vec![
            NodeSpec {
                name: "station".into(),
                cardinality: STATIONS,
                parents: vec![],
            },
            NodeSpec {
                name: "level".into(),
                cardinality: 4,
                parents: vec![0],
            },
            NodeSpec {
                name: "flag".into(),
                cardinality: 2,
                parents: vec![1],
            },
        ],
    )
    .expect("valid topology")
}

/// Samples a relation from a network, hiding one *non-join* attribute in
/// `incomplete` of the tuples (the station stays observed, so derived
/// blocks keep a unique join key and the hierarchical plan stays exact).
fn sampled_relation(
    bn: &BayesianNetwork,
    complete: usize,
    incomplete: usize,
    seed: u64,
) -> Relation {
    let mut rel = Relation::new(bn.schema().clone());
    for p in mrsl_bayesnet::sampler::sample_dataset(bn, complete, derive_seed(seed, &[1])) {
        rel.push_complete(p).expect("arity ok");
    }
    let mut rng = seeded_rng(derive_seed(seed, &[2]));
    for p in mrsl_bayesnet::sampler::sample_dataset(bn, incomplete, derive_seed(seed, &[3])) {
        let hide = AttrId(rng.gen_range(1..bn.schema().attr_count() as u16));
        let t: PartialTuple = p.to_partial().without_attr(hide);
        rel.push(t).expect("arity ok");
    }
    rel
}

struct Derived {
    lazy: LazyCatalogOutput,
    query: Query,
}

fn derive(opts: &ExpOptions) -> Derived {
    let (complete, incomplete, samples, _) = params(opts);
    let sensors_bn = BayesianNetwork::instantiate(&sensors_network(), 0.5, opts.seed);
    let readings_bn =
        BayesianNetwork::instantiate(&readings_network(), 0.5, derive_seed(opts.seed, &[7]));
    let sensors = sampled_relation(&sensors_bn, complete / 4, incomplete / 2, opts.seed);
    let readings = sampled_relation(&readings_bn, complete, incomplete, opts.seed ^ 0xbeef);
    let learn = LearnConfig {
        support_threshold: 0.005,
        max_itemsets: 1000,
    };
    let sensors_model = MrslModel::learn(sensors.schema(), sensors.complete_part(), &learn);
    let readings_model = MrslModel::learn(readings.schema(), readings.complete_part(), &learn);
    let gibbs = GibbsConfig {
        burn_in: 50,
        samples,
        ..GibbsConfig::default()
    };
    // σ[kind=0](sensors) ⨝ σ[level≥2](readings) on the station.
    let query = Query::scan("sensors")
        .filter(Predicate::eq(AttrId(1), ValueId(0)))
        .join_on(
            Query::scan("readings").filter(Predicate::range(AttrId(1), ValueId(2), ValueId(3))),
            [(AttrId(0), AttrId(0))],
        );
    let lazy = derive_catalog_for_query(
        &[
            mrsl_core::LazySource {
                name: "sensors",
                relation: &sensors,
                model: &sensors_model,
            },
            mrsl_core::LazySource {
                name: "readings",
                relation: &readings,
                model: &readings_model,
            },
        ],
        &query,
        &gibbs,
        &TupleDagWorkload::from_config(&gibbs),
        opts.seed,
    )
    .expect("catalog derivation succeeds");
    Derived { lazy, query }
}

/// A small direct-built `quality(level)` relation over the readings level
/// dictionary: each block is uncertain about which level it flags. Used
/// only by the non-hierarchical chain query, so it needs no derivation.
fn quality_relation(readings: &mrsl_probdb::ProbDb, seed: u64) -> mrsl_probdb::ProbDb {
    use mrsl_probdb::{Alternative, Block, ProbDb};
    use mrsl_relation::{CompleteTuple, Schema};
    let levels = readings.schema().attr(AttrId(1)).labels().to_vec();
    let card = levels.len() as u16;
    let schema = Schema::builder()
        .attribute("level", levels)
        .build()
        .expect("valid quality schema");
    let mut db = ProbDb::new(schema);
    let mut rng = seeded_rng(seed);
    for key in 0..3usize {
        let a = rng.gen_range(0..card);
        let b = (a + 1 + rng.gen_range(0..card - 1)) % card;
        let w = 0.2 + 0.6 * rng.gen::<f64>();
        db.push_block(
            Block::new(
                key,
                vec![
                    Alternative {
                        tuple: CompleteTuple::from_values(vec![a]),
                        prob: w,
                    },
                    Alternative {
                        tuple: CompleteTuple::from_values(vec![b]),
                        prob: 1.0 - w,
                    },
                ],
            )
            .expect("valid block"),
        )
        .expect("arity ok");
    }
    db
}

/// Exact vs Monte-Carlo agreement of the join planner on derived relations.
pub fn run(opts: &ExpOptions) -> Report {
    let (_, _, _, mc_samples) = params(opts);
    let mut derived = derive(opts);
    let mut table = Table::new(["statistic", "exact", "MC", "|Δ| in SEs", "plan exact / MC"]);
    let decomposition;
    {
        let exact_engine = CatalogEngine::new(&derived.lazy.catalog);
        let mc_engine = CatalogEngine::with_config(
            &derived.lazy.catalog,
            QueryEngineConfig {
                force_monte_carlo: true,
                mc_samples,
                mc_seed: derive_seed(opts.seed, &[0xa2]),
                ..QueryEngineConfig::default()
            },
        );
        for stat in [Statistic::Probability, Statistic::ExpectedCount] {
            let (exact_answer, exact_report) = exact_engine
                .evaluate(&derived.query, stat)
                .expect("exact path");
            let (mc_answer, mc_report) = mc_engine.evaluate(&derived.query, stat).expect("mc path");
            let value = |a: &mrsl_probdb::QueryAnswer| -> (f64, Option<f64>) {
                match a {
                    mrsl_probdb::QueryAnswer::Probability { p, std_error } => (*p, *std_error),
                    mrsl_probdb::QueryAnswer::Count { mean, std_error } => (*mean, *std_error),
                    _ => unreachable!("probability/count statistics"),
                }
            };
            let (exact, _) = value(&exact_answer);
            let (mc, se) = value(&mc_answer);
            let se = se.expect("MC reports a standard error").max(1e-9);
            table.push_row([
                stat.name().to_string(),
                fmt_f(exact, 4),
                fmt_f(mc, 4),
                fmt_f((mc - exact).abs() / se, 2),
                format!("{:?} / {:?}", exact_report.plan, mc_report.plan),
            ]);
        }
        decomposition = exact_engine
            .evaluate(&derived.query, Statistic::Probability)
            .expect("exact path")
            .1
            .decomposition
            .map(|d| d.render())
            .unwrap_or_else(|| "(single relation)".into());
    }

    // The third, non-hierarchical query: sensors(x) ⨝ readings(x, y) ⨝
    // quality(y). Its join-variable classes overlap without nesting, so
    // the classifier must refuse the extensional plan and sample.
    let quality = quality_relation(
        derived.lazy.catalog.get("readings").expect("derived above"),
        derive_seed(opts.seed, &[0xa3]),
    );
    derived
        .lazy
        .catalog
        .add("quality", quality)
        .expect("fresh name");
    let chain = Query::scan("sensors")
        .join_on("readings", [(AttrId(0), AttrId(0))])
        .join_on_rel("readings", "quality", [(AttrId(1), AttrId(0))]);
    let chain_engine = CatalogEngine::with_config(
        &derived.lazy.catalog,
        QueryEngineConfig {
            mc_samples,
            mc_seed: derive_seed(opts.seed, &[0xa4]),
            ..QueryEngineConfig::default()
        },
    );
    let (chain_p, chain_report) = chain_engine.probability(&chain).expect("mc chain");
    table.push_row([
        "chain probability".to_string(),
        "—".to_string(),
        fmt_f(chain_p, 4),
        "—".to_string(),
        format!("— / {:?}", chain_report.plan),
    ]);
    let verdict = chain_report
        .decomposition
        .map(|d| d.render())
        .unwrap_or_else(|| "(none)".into());
    // Dissociation bounds on the same unsafe chain: a deterministic
    // bracket the sampled estimate must fall into (up to MC error).
    let (bounds, bounds_report) = chain_engine
        .probability_bounds(&chain)
        .expect("bounds on the chain");
    table.push_row([
        "chain bounds".to_string(),
        format!("[{}, {}]", fmt_f(bounds.lower, 4), fmt_f(bounds.upper, 4)),
        bounds
            .estimate
            .map(|e| fmt_f(e, 4))
            .unwrap_or_else(|| "—".into()),
        "—".to_string(),
        format!("{:?} / {:?}", bounds_report.plan, bounds_report.path),
    ]);
    let dissociated = if bounds_report.dissociated.is_empty() {
        "(none)".to_string()
    } else {
        bounds_report.dissociated.join(", ")
    };

    let triage: Vec<String> = derived
        .lazy
        .per_relation
        .iter()
        .map(|s| {
            format!(
                "{}: {} inferred, {} pinned, {} ruled out",
                s.relation, s.inferred, s.pinned, s.ruled_out
            )
        })
        .collect();
    Report::new(
        "joins",
        "Safe-plan join routing: exact extensional ⨝ vs multi-relation Monte Carlo on two derived relations",
        table,
    )
    .note(format!(
        "safe plan: {decomposition}; chain verdict: {verdict}; dissociated: {dissociated}; \
         lazy triage — {}",
        triage.join("; ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrsl_probdb::{EvalPath, PlanClass};

    #[test]
    fn exact_and_mc_join_paths_agree_on_derived_catalog() {
        let opts = ExpOptions {
            seed: 5,
            ..ExpOptions::default()
        };
        let derived = derive(&opts);
        let exact_engine = CatalogEngine::new(&derived.lazy.catalog);
        // Both relations keep the station observed in every incomplete
        // tuple, so the derived blocks have unique join keys and the
        // hierarchical query stays exact.
        let (path, plan) = exact_engine
            .plan(&derived.query, Statistic::Probability)
            .unwrap();
        assert_eq!(path, EvalPath::ExactColumnar);
        assert_eq!(plan, PlanClass::Liftable);
        let (p, _) = exact_engine.probability(&derived.query).unwrap();
        let mc_engine = CatalogEngine::with_config(
            &derived.lazy.catalog,
            QueryEngineConfig {
                force_monte_carlo: true,
                mc_samples: 20_000,
                mc_seed: 9,
                ..QueryEngineConfig::default()
            },
        );
        let (answer, _) = mc_engine
            .evaluate(&derived.query, Statistic::Probability)
            .unwrap();
        let mrsl_probdb::QueryAnswer::Probability { p: mc, std_error } = answer else {
            panic!("probability expected");
        };
        let se = std_error.unwrap().max(1e-9);
        assert!((p - mc).abs() < 5.0 * se + 0.02, "{p} vs {mc} (se {se})");
    }
}
