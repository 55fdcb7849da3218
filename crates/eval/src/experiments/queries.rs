//! Query-engine self-check over derived probabilistic databases.
//!
//! Beyond the paper's own tables: derives a probabilistic database from a
//! catalog network plus an incomplete workload, then pushes a suite of
//! compound `Or`/`Range`/`Not` selections through the planned
//! [`CatalogEngine`] on **both** physical paths. For every predicate the
//! exact lifted (columnar) path and the Monte-Carlo fallback must agree
//! within sampling error; the report shows the expected counts, the
//! planner's pruning, and the MC deviation in standard errors.

use crate::experiments::ExpOptions;
use crate::report::Report;
use mrsl_bayesnet::sampler::sample_dataset;
use mrsl_core::{derive_probabilistic_db, DeriveConfig, GibbsConfig, LearnConfig};
use mrsl_probdb::{Catalog, CatalogEngine, Predicate, ProbDb, Query, QueryEngineConfig};
use mrsl_relation::{AttrId, Relation, ValueId};
use mrsl_util::table::fmt_f;
use mrsl_util::{derive_seed, seeded_rng, Table};
use rand::seq::SliceRandom;
use rand::Rng;

fn params(opts: &ExpOptions) -> (usize, usize, usize, usize) {
    if opts.full {
        (20_000, 1_000, 600, 40_000)
    } else {
        (4_000, 200, 300, 15_000)
    }
}

fn derive_db(opts: &ExpOptions) -> ProbDb {
    let (train, incomplete, samples, _) = params(opts);
    // BN10: crown-shaped, 6 attributes of cardinality 4 — wide enough
    // domains for `In`/`Range` predicates to be properly selective.
    let spec = mrsl_bayesnet::catalog::by_name("BN10")
        .expect("BN10 in catalog")
        .topology;
    let bn = mrsl_bayesnet::BayesianNetwork::instantiate(&spec, 0.5, opts.seed);
    let mut rel = Relation::new(bn.schema().clone());
    for p in sample_dataset(&bn, train, derive_seed(opts.seed, &[0x9e])) {
        rel.push_complete(p).expect("arity ok");
    }
    let arity = bn.schema().attr_count();
    let mut rng = seeded_rng(derive_seed(opts.seed, &[0x9f]));
    for p in sample_dataset(&bn, incomplete, derive_seed(opts.seed, &[0xa0])) {
        let mut t = p.to_partial();
        let hide = rng.gen_range(1..=2usize);
        let mut attrs: Vec<u16> = (0..arity as u16).collect();
        attrs.shuffle(&mut rng);
        for &a in &attrs[..hide] {
            t = t.without_attr(AttrId(a));
        }
        rel.push(t).expect("arity ok");
    }
    derive_probabilistic_db(
        &rel,
        &DeriveConfig {
            learn: LearnConfig {
                support_threshold: 0.005,
                max_itemsets: 1000,
            },
            gibbs: GibbsConfig {
                burn_in: 50,
                samples,
                ..GibbsConfig::default()
            },
            seed: opts.seed,
            ..DeriveConfig::default()
        },
    )
    .db
}

/// The predicate workload: one entry per algebra constructor.
fn workload(db: &ProbDb) -> Vec<(&'static str, Predicate)> {
    let card = |a: u16| db.schema().cardinality(AttrId(a)) as u16;
    let mid = |a: u16| ValueId(card(a) / 2);
    vec![
        ("eq", Predicate::eq(AttrId(0), ValueId(0))),
        ("in", Predicate::is_in(AttrId(1), [ValueId(0), mid(1)])),
        ("range", Predicate::range(AttrId(2), ValueId(0), mid(2))),
        (
            "or",
            Predicate::eq(AttrId(0), ValueId(0)).or(Predicate::eq(AttrId(3), mid(3))),
        ),
        ("not", Predicate::eq(AttrId(1), ValueId(0)).negate()),
        (
            "or-range-not",
            Predicate::range(AttrId(0), ValueId(0), mid(0))
                .or(Predicate::eq(AttrId(2), mid(2)).negate()),
        ),
    ]
}

/// Exact vs Monte-Carlo agreement of the planned engine.
pub fn run(opts: &ExpOptions) -> Report {
    let (_, _, _, mc_samples) = params(opts);
    let mut catalog = Catalog::new();
    catalog
        .add("derived", derive_db(opts))
        .expect("fresh catalog");
    let exact_engine = CatalogEngine::new(&catalog);
    let mc_engine = CatalogEngine::with_config(
        &catalog,
        QueryEngineConfig {
            force_monte_carlo: true,
            mc_samples,
            mc_seed: derive_seed(opts.seed, &[0xa1]),
            ..QueryEngineConfig::default()
        },
    );
    let mut table = Table::new([
        "predicate",
        "E[count] exact",
        "E[count] MC",
        "|Δ| in SEs",
        "path exact / MC",
        "blocks pruned",
    ]);
    for (name, pred) in workload(catalog.get("derived").expect("added above")) {
        let query = Query::scan("derived").filter(pred);
        let (exact, exact_report) = exact_engine.expected_count(&query).expect("exact path");
        let (mc_answer, mc_report) = mc_engine
            .evaluate(&query, mrsl_probdb::Statistic::ExpectedCount)
            .expect("mc path");
        let mrsl_probdb::QueryAnswer::Count { mean, std_error } = mc_answer else {
            unreachable!("expected-count answers with a count");
        };
        let se = std_error.expect("MC reports a standard error").max(1e-9);
        table.push_row([
            name.to_string(),
            fmt_f(exact, 2),
            fmt_f(mean, 2),
            fmt_f((mean - exact).abs() / se, 2),
            format!("{:?} / {:?}", exact_report.path, mc_report.path),
            format!(
                "{}/{}",
                exact_report.blocks_pruned, exact_report.blocks_total
            ),
        ]);
    }
    Report::new(
        "queries",
        "Planned query engine: exact lifted path vs Monte-Carlo fallback on a derived BID database",
        table,
    )
    .note("|Δ| in SEs should be O(1); the exact path is the liftable plan, MC is forced for the comparison")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_and_mc_paths_agree_on_derived_db() {
        let opts = ExpOptions {
            seed: 11,
            ..ExpOptions::default()
        };
        let mut catalog = Catalog::new();
        catalog.add("derived", derive_db(&opts)).unwrap();
        assert_ne!(catalog.get("derived").unwrap().blocks().len(), 0);
        let exact_engine = CatalogEngine::new(&catalog);
        let mc_engine = CatalogEngine::with_config(
            &catalog,
            QueryEngineConfig {
                force_monte_carlo: true,
                mc_samples: 20_000,
                mc_seed: 3,
                ..QueryEngineConfig::default()
            },
        );
        for (name, pred) in workload(catalog.get("derived").unwrap()) {
            let query = Query::scan("derived").filter(pred);
            let (exact, _) = exact_engine.expected_count(&query).expect("exact");
            let (answer, _) = mc_engine
                .evaluate(&query, mrsl_probdb::Statistic::ExpectedCount)
                .expect("mc");
            let mrsl_probdb::QueryAnswer::Count { mean, std_error } = answer else {
                panic!("count expected");
            };
            let se = std_error.expect("MC std error");
            assert!(
                (mean - exact).abs() < 5.0 * se + 0.05,
                "{name}: mc {mean} vs exact {exact} (se {se})"
            );
        }
    }
}
