//! Property tests of the query subsystem: on randomized databases, the
//! engine's exact columnar path, a tuple-at-a-time reference, the
//! brute-force oracle and the Monte-Carlo path must all tell the same
//! story for every predicate constructor (`Eq`, `In`, `Range`, `Or`,
//! `Not`, `And`).

use mrsl_repro::probdb::testutil::oracle_count_distribution;
use mrsl_repro::probdb::{
    Alternative, Block, Catalog, CatalogEngine, Predicate, ProbDb, Query, QueryEngineConfig,
};
use mrsl_repro::relation::{AttrId, CompleteTuple, Schema, SchemaBuilder, ValueId};
use proptest::prelude::*;
use std::sync::Arc;

/// A random small schema: 2–4 attributes, cardinalities 2–5.
fn arb_schema() -> impl Strategy<Value = Arc<Schema>> {
    prop::collection::vec(2usize..=5, 2..=4).prop_map(|cards| {
        let mut b = SchemaBuilder::default();
        for (i, card) in cards.iter().enumerate() {
            b = b.attribute(format!("a{i}"), (0..*card).map(|v| format!("v{v}")));
        }
        b.build().expect("valid schema")
    })
}

/// Random points for a schema.
fn arb_points(schema: Arc<Schema>, n: std::ops::Range<usize>) -> BoxedStrategy<Vec<CompleteTuple>> {
    let cards: Vec<u16> = schema
        .attr_ids()
        .map(|a| schema.cardinality(a) as u16)
        .collect();
    prop::collection::vec(
        cards
            .iter()
            .map(|&c| (0..c).boxed())
            .collect::<Vec<_>>()
            .prop_map(CompleteTuple::from_values),
        n,
    )
    .boxed()
}

/// A random block: 1–4 distinct alternatives with normalized weights.
fn arb_block(schema: Arc<Schema>, key: usize) -> BoxedStrategy<Block> {
    (arb_points(schema, 1..5), prop::collection::vec(1u32..50, 4))
        .prop_map(move |(mut tuples, weights)| {
            tuples.sort_by(|a, b| a.raw().cmp(b.raw()));
            tuples.dedup();
            let total: f64 = weights.iter().take(tuples.len()).map(|&w| w as f64).sum();
            let alts: Vec<Alternative> = tuples
                .into_iter()
                .zip(&weights)
                .map(|(tuple, &w)| Alternative {
                    tuple,
                    prob: w as f64 / total,
                })
                .collect();
            Block::normalized(key, alts).expect("non-empty normalized block")
        })
        .boxed()
}

/// A random database: certain tuples plus blocks.
fn arb_db() -> BoxedStrategy<ProbDb> {
    arb_schema()
        .prop_flat_map(|schema| {
            let certain = arb_points(schema.clone(), 0..6);
            let s = schema.clone();
            let blocks = prop::collection::vec(0u8..1, 1..7).prop_flat_map(move |slots| {
                let s = s.clone();
                slots
                    .iter()
                    .enumerate()
                    .map(|(key, _)| arb_block(s.clone(), key))
                    .collect::<Vec<_>>()
            });
            (Just(schema), certain, blocks)
        })
        .prop_map(|(schema, certain, blocks)| {
            let mut db = ProbDb::new(schema);
            for t in certain {
                db.push_certain(t).expect("arity ok");
            }
            for b in blocks {
                db.push_block(b).expect("arity ok");
            }
            db
        })
        .boxed()
}

/// `db` as the one relation `db` of a fresh catalog.
fn single(db: ProbDb) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.add("db", db).expect("fresh catalog");
    catalog
}

/// A forced-Monte-Carlo engine: `samples` worlds drawn from `seed`.
fn forced(catalog: &Catalog, samples: usize, seed: u64) -> CatalogEngine<'_> {
    CatalogEngine::with_config(
        catalog,
        QueryEngineConfig {
            force_monte_carlo: true,
            mc_samples: samples,
            mc_seed: seed,
            ..QueryEngineConfig::default()
        },
    )
}

/// One random predicate per constructor under test, sized to the schema.
fn predicates_for(schema: &Schema, salt: u16) -> Vec<(&'static str, Predicate)> {
    let arity = schema.attr_count() as u16;
    let a = AttrId(salt % arity);
    let b = AttrId((salt + 1) % arity);
    let card = |attr: AttrId| schema.cardinality(attr) as u16;
    let v = |attr: AttrId, k: u16| ValueId(k % card(attr));
    let lo = v(a, salt);
    let hi = ValueId((lo.0 + 1).min(card(a) - 1));
    vec![
        ("eq", Predicate::eq(a, v(a, salt + 1))),
        ("in", Predicate::is_in(a, [v(a, salt), v(a, salt + 2)])),
        ("range", Predicate::range(a, lo, hi)),
        (
            "or",
            Predicate::eq(a, v(a, salt)).or(Predicate::eq(b, v(b, salt + 1))),
        ),
        ("not", Predicate::eq(b, v(b, salt)).negate()),
        (
            "and-not",
            Predicate::range(a, ValueId(0), hi).and(Predicate::eq(b, v(b, salt)).negate()),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Columnar and per-tuple predicate evaluation are bit-identical, for
    /// every row of both column sets and every constructor.
    #[test]
    fn columnar_eval_is_bit_identical_to_per_tuple(
        (db, salt) in (arb_db(), 0u16..64)
    ) {
        let preds = predicates_for(db.schema(), salt);
        let catalog = single(db);
        let db = catalog.get("db").expect("added above");
        let engine = CatalogEngine::new(&catalog);
        let cols = db.columns();
        for (name, pred) in preds {
            let certain = pred.eval_columns(cols.certain());
            for (i, t) in db.certain().enumerate() {
                prop_assert_eq!(certain.get(i), pred.eval(&t), "{}: certain row {}", name, i);
            }
            let alts = pred.eval_columns(cols.alternatives());
            let mut row = 0;
            for block in db.blocks() {
                for a in block.alternatives() {
                    prop_assert_eq!(alts.get(row), pred.eval(&a.tuple), "{}: alt row {}", name, row);
                    row += 1;
                }
            }
            // And therefore the engine's aggregates equal a tuple-at-a-time
            // evaluation bit for bit: per-block selection mass, plus the
            // certain rows the predicate accepts.
            let marginals: Vec<f64> = db
                .blocks()
                .map(|b| b.prob_satisfies(|t| pred.eval(t)))
                .collect();
            let certain = db.certain().filter(|t| pred.eval(t)).count() as f64;
            let count = certain + marginals.iter().sum::<f64>();
            let query = Query::scan("db").filter(pred.clone());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let (got, _) = engine.marginals(&query).expect("exact");
            prop_assert_eq!(bits(&got), bits(&marginals), "{}", name);
            let (got, _) = engine.expected_count(&query).expect("exact");
            prop_assert_eq!(got.to_bits(), count.to_bits(), "{}", name);
            // The count distribution matches world enumeration.
            let (dist, _) = engine.count_distribution(&query).expect("exact");
            let brute = oracle_count_distribution(&catalog, &query).expect("oracle");
            for k in 0..dist.len().max(brute.len()) {
                let (a, b) = (dist.get(k).unwrap_or(&0.0), brute.get(k).unwrap_or(&0.0));
                prop_assert!((a - b).abs() < 1e-12, "{}: k={} engine {} oracle {}", name, k, a, b);
            }
        }
    }

    /// Exact and Monte-Carlo count distributions agree within MC error on
    /// randomized databases, for every predicate constructor.
    #[test]
    fn exact_and_monte_carlo_distributions_agree(
        (db, salt) in (arb_db(), 0u16..64)
    ) {
        let preds = predicates_for(db.schema(), salt);
        let catalog = single(db);
        let engine = CatalogEngine::new(&catalog);
        let n = 6_000;
        let mc_dist = forced(&catalog, n, 0xc0de ^ salt as u64);
        let mc_mean = forced(&catalog, n, 0xfeed ^ salt as u64);
        for (name, pred) in preds {
            let query = Query::scan("db").filter(pred);
            let (exact, _) = engine.count_distribution(&query).expect("exact");
            let (mc, _) = mc_dist.count_distribution(&query).expect("mc");
            // Both paths share the support: live certain rows plus blocks.
            prop_assert_eq!(mc.len(), exact.len(), "{}", name);
            // Each bin is a Bernoulli frequency: 4σ + slack covers it.
            for (k, &e) in exact.iter().enumerate() {
                let sigma = (e * (1.0 - e) / n as f64).sqrt();
                prop_assert!(
                    (mc[k] - e).abs() < 4.0 * sigma + 0.02,
                    "{}: k={} exact {} mc {}", name, k, e, mc[k]
                );
            }
            // Means line up with the exact expected count too.
            let (answer, _) = mc_mean
                .evaluate(&query, mrsl_repro::probdb::Statistic::ExpectedCount)
                .expect("mc");
            let mrsl_repro::probdb::QueryAnswer::Count { mean, std_error } = answer else {
                panic!("count expected");
            };
            let se = std_error.expect("MC std error");
            let (exact_mean, _) = engine.expected_count(&query).expect("exact");
            prop_assert!(
                (mean - exact_mean).abs() < 4.0 * se + 0.05,
                "{}: mean {} vs {}", name, mean, exact_mean
            );
        }
    }

    /// The forced sampler draws the worlds `world::sample_world` draws from
    /// the same seed: its count histogram and selection marginals are
    /// exactly the frequencies of a tuple-at-a-time evaluation of those
    /// worlds, for every predicate constructor.
    #[test]
    fn forced_scan_sampler_replays_sample_world(
        (db, salt) in (arb_db(), 0u16..64)
    ) {
        use mrsl_repro::probdb::world::sample_world;
        let preds = predicates_for(db.schema(), salt);
        let catalog = single(db);
        let db = catalog.get("db").expect("added above");
        let (n, seed) = (300, 0x5a ^ salt as u64);
        let engine = forced(&catalog, n, seed);
        for (name, pred) in preds {
            let query = Query::scan("db").filter(pred.clone());
            let (hist, _) = engine.count_distribution(&query).expect("mc");
            let (marginals, _) = engine.marginals(&query).expect("mc");
            let mut counts = vec![0usize; hist.len()];
            let mut hits = vec![0usize; db.blocks().len()];
            let mut rng = mrsl_repro::util::seeded_rng(seed);
            for _ in 0..n {
                let world = sample_world(db, &mut rng);
                counts[world.tuples.iter().filter(|t| pred.eval(t)).count()] += 1;
                // Certain rows come first, then one tuple per block.
                let drawn = &world.tuples[db.certain().len()..];
                for (hit, t) in hits.iter_mut().zip(drawn) {
                    *hit += usize::from(pred.eval(t));
                }
            }
            let freqs = |v: &[usize]| v.iter().map(|&c| c as f64 / n as f64).collect::<Vec<_>>();
            prop_assert_eq!(hist, freqs(&counts), "{}", name);
            prop_assert_eq!(marginals, freqs(&hits), "{}", name);
        }
    }

    /// The planner's two physical paths answer the same question: routing
    /// the count distribution through Monte Carlo (forced) stays within
    /// sampling error of the exact path.
    #[test]
    fn planner_paths_agree_on_count_distribution(
        (db, salt) in (arb_db(), 0u16..64)
    ) {
        use mrsl_repro::probdb::EvalPath;
        let (_, pred) = predicates_for(db.schema(), salt).pop().expect("non-empty");
        let catalog = single(db);
        let query = Query::scan("db").filter(pred);
        let exact_engine = CatalogEngine::new(&catalog);
        let mc_engine = forced(&catalog, 6_000, 0xab ^ salt as u64);
        let (exact, exact_report) = exact_engine.count_distribution(&query).expect("exact");
        let (mc, mc_report) = mc_engine.count_distribution(&query).expect("mc");
        prop_assert_eq!(exact_report.path, EvalPath::ExactColumnar);
        prop_assert_eq!(mc_report.path, EvalPath::MonteCarlo);
        prop_assert_eq!(mc_report.mc_samples, 6_000);
        for (k, &e) in exact.iter().enumerate() {
            prop_assert!((mc[k] - e).abs() < 0.05, "k={} exact {} mc {}", k, e, mc[k]);
        }
        // The report's pruning arithmetic is internally consistent.
        prop_assert_eq!(
            exact_report.blocks_touched + exact_report.blocks_pruned,
            exact_report.blocks_total
        );
    }

    /// Word-masked `Bitmap::count_ones_in` / `any_in` agree with the naive
    /// bit-by-bit traversal on arbitrary bitmaps and ranges.
    #[test]
    fn bitmap_range_kernels_match_naive(
        (bits, ranges) in (
            prop::collection::vec(0u8..2, 1..400),
            prop::collection::vec((0usize..400, 0usize..400), 1..20),
        )
    ) {
        use mrsl_repro::probdb::Bitmap;
        let mut bm = Bitmap::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b == 1 {
                bm.set(i);
            }
        }
        for (a, b) in ranges {
            let lo = a.min(b) % bits.len();
            let hi = (a.max(b) % bits.len()).max(lo);
            let naive = (lo..hi).filter(|&i| bits[i] == 1).count();
            prop_assert_eq!(bm.count_ones_in(lo..hi), naive, "count in {}..{}", lo, hi);
            prop_assert_eq!(bm.any_in(lo..hi), naive > 0, "any in {}..{}", lo, hi);
        }
    }

    /// On randomly generated two-relation catalogs whose blocks keep a
    /// unique join key, a selective equi-join is classified `Liftable` and
    /// its exact probability and expected count agree with the
    /// multi-relation Monte-Carlo sampler within error.
    #[test]
    fn hierarchical_join_exact_agrees_with_monte_carlo(
        (left, right, salt) in (arb_keyed_db(0), arb_keyed_db(1), 0u16..64)
    ) {
        use mrsl_repro::probdb::{EvalPath, PlanClass, QueryAnswer, Statistic};
        let vl = ValueId(salt % 3);
        let vr = ValueId((salt / 3) % 3);
        let query = Query::scan("left")
            .filter(Predicate::eq(AttrId(1), vl))
            .join_on(
                Query::scan("right").filter(Predicate::eq(AttrId(1), vr)),
                [(AttrId(0), AttrId(0))],
            );
        let mut catalog = Catalog::new();
        catalog.add("left", left).expect("fresh catalog");
        catalog.add("right", right).expect("fresh catalog");
        let exact_engine = CatalogEngine::new(&catalog);
        let (path, plan) = exact_engine.plan(&query, Statistic::Probability).expect("plan");
        prop_assert_eq!(path, EvalPath::ExactColumnar);
        prop_assert_eq!(plan, PlanClass::Liftable);
        let (p, _) = exact_engine.probability(&query).expect("exact");
        let (count, _) = exact_engine.expected_count(&query).expect("exact");
        let n = 6_000;
        let mc_engine = CatalogEngine::with_config(&catalog, QueryEngineConfig {
            force_monte_carlo: true,
            mc_samples: n,
            mc_seed: 0x7013 ^ salt as u64,
            ..QueryEngineConfig::default()
        });
        let (answer, _) = mc_engine.evaluate(&query, Statistic::Probability).expect("mc");
        let QueryAnswer::Probability { p: mc_p, std_error } = answer else {
            panic!("probability expected");
        };
        let se = std_error.expect("MC std error").max(1e-9);
        prop_assert!(
            (p - mc_p).abs() < 4.0 * se + 0.02,
            "P: exact {} mc {} (se {})", p, mc_p, se
        );
        let (answer, _) = mc_engine.evaluate(&query, Statistic::ExpectedCount).expect("mc");
        let QueryAnswer::Count { mean, std_error } = answer else {
            panic!("count expected");
        };
        let se = std_error.expect("MC std error").max(1e-9);
        prop_assert!(
            (count - mean).abs() < 4.0 * se + 0.05,
            "E: exact {} mc {} (se {})", count, mean, se
        );
    }
}

/// A random relation over `(k, v)` where `k` is a shared join dictionary
/// (cardinality 4) and every block keeps one `k`: the shape lazy
/// derivation produces when the join key is observed.
fn arb_keyed_db(flavor: u16) -> BoxedStrategy<ProbDb> {
    let schema = Schema::builder()
        .attribute("k", (0..4).map(|v| format!("k{v}")))
        .attribute("v", (0..3).map(|v| format!("v{v}")))
        .build()
        .expect("valid schema");
    let certain = prop::collection::vec((0u16..4, 0u16..3), 0..4);
    let blocks = prop::collection::vec(
        (0u16..4, prop::collection::vec((0u16..3, 1u32..50), 1..4)),
        1..5,
    );
    (certain, blocks)
        .prop_map(move |(certain, blocks)| {
            let mut db = ProbDb::new(schema.clone());
            let _ = flavor;
            for (k, v) in certain {
                db.push_certain(CompleteTuple::from_values(vec![k, v]))
                    .expect("arity ok");
            }
            for (key, (k, alts)) in blocks.into_iter().enumerate() {
                let mut seen = Vec::new();
                let mut alternatives = Vec::new();
                for (v, w) in alts {
                    if seen.contains(&v) {
                        continue;
                    }
                    seen.push(v);
                    alternatives.push(Alternative {
                        tuple: CompleteTuple::from_values(vec![k, v]),
                        prob: w as f64,
                    });
                }
                db.push_block(Block::normalized(key, alternatives).expect("non-empty"))
                    .expect("arity ok");
            }
            db
        })
        .boxed()
}
