//! Shared fixtures for the Criterion benchmarks.
//!
//! Each bench regenerates one timing-oriented table/figure of the paper
//! (see DESIGN.md §3); these helpers build the datasets and models they
//! share so the benches measure only the operation under test.

#![forbid(unsafe_code)]

use mrsl_bayesnet::catalog::by_name;
use mrsl_bayesnet::BayesianNetwork;
use mrsl_core::{LearnConfig, MrslModel};
use mrsl_relation::{AttrId, CompleteTuple, PartialTuple};
use mrsl_util::{derive_seed, seeded_rng};
use rand::seq::SliceRandom;
use rand::Rng;

/// Instantiates a catalog network deterministically.
pub fn network(name: &str, seed: u64) -> BayesianNetwork {
    let spec = by_name(name)
        .unwrap_or_else(|| panic!("{name} not in catalog"))
        .topology;
    BayesianNetwork::instantiate(&spec, 0.5, seed)
}

/// Samples a training set from a catalog network.
pub fn training_set(name: &str, n: usize, seed: u64) -> (BayesianNetwork, Vec<CompleteTuple>) {
    let bn = network(name, seed);
    let data = mrsl_bayesnet::sampler::sample_dataset(&bn, n, derive_seed(seed, &[1]));
    (bn, data)
}

/// Learns a model from a catalog network at the given θ.
pub fn learned_model(
    name: &str,
    train: usize,
    theta: f64,
    seed: u64,
) -> (BayesianNetwork, MrslModel) {
    let (bn, data) = training_set(name, train, seed);
    let model = MrslModel::learn(
        bn.schema(),
        &data,
        &LearnConfig {
            support_threshold: theta,
            max_itemsets: 1000,
        },
    );
    (bn, model)
}

/// Builds a workload of incomplete tuples with 1..=max_k values hidden
/// uniformly per tuple.
pub fn workload(bn: &BayesianNetwork, size: usize, max_k: usize, seed: u64) -> Vec<PartialTuple> {
    let points = mrsl_bayesnet::sampler::sample_dataset(bn, size, derive_seed(seed, &[2]));
    let arity = bn.schema().attr_count();
    let mut rng = seeded_rng(derive_seed(seed, &[3]));
    points
        .iter()
        .map(|p| {
            let k = rng.gen_range(1..=max_k.min(arity - 1).max(1));
            let mut attrs: Vec<u16> = (0..arity as u16).collect();
            attrs.shuffle(&mut rng);
            let mut t = p.to_partial();
            for &a in &attrs[..k] {
                t = t.without_attr(AttrId(a));
            }
            t
        })
        .collect()
}

/// Builds a wide synthetic probabilistic database directly (no model
/// derivation): `attrs` dictionary-encoded attributes of cardinality
/// `card`, `certain` certain rows and `blocks` blocks of `alts`
/// alternatives each, all uniformly random but deterministic per `seed`.
/// The query benches use this to isolate evaluation cost from derivation.
///
/// # Panics
/// Panics when a block cannot hold `alts` distinct tuples, i.e. when
/// `alts > card^attrs` (the rejection sampler would never terminate).
pub fn wide_synthetic_db(
    attrs: usize,
    card: usize,
    certain: usize,
    blocks: usize,
    alts: usize,
    seed: u64,
) -> mrsl_probdb::ProbDb {
    use mrsl_probdb::{Alternative, Block, ProbDb};
    use mrsl_relation::{CompleteTuple, SchemaBuilder};

    let mut builder = SchemaBuilder::default();
    for a in 0..attrs {
        builder = builder.attribute(format!("a{a}"), (0..card).map(|v| format!("v{v}")));
    }
    let schema = builder.build().expect("valid synthetic schema");
    let domain = (card as u128).saturating_pow(attrs as u32);
    assert!(
        alts as u128 <= domain,
        "cannot draw {alts} distinct tuples from a domain of {domain}"
    );
    let mut rng = seeded_rng(derive_seed(seed, &[0x11db]));
    let random_tuple = |rng: &mut rand::rngs::StdRng| {
        CompleteTuple::from_values((0..attrs).map(|_| rng.gen_range(0..card as u16)).collect())
    };
    let mut db = ProbDb::new(schema);
    for _ in 0..certain {
        let t = random_tuple(&mut rng);
        db.push_certain(t).expect("arity ok");
    }
    for key in 0..blocks {
        let mut tuples: Vec<CompleteTuple> = Vec::with_capacity(alts);
        while tuples.len() < alts {
            let t = random_tuple(&mut rng);
            if !tuples.contains(&t) {
                tuples.push(t);
            }
        }
        let weights: Vec<f64> = (0..alts).map(|_| rng.gen_range(1..100) as f64).collect();
        let alternatives = tuples
            .into_iter()
            .zip(&weights)
            .map(|(tuple, &w)| Alternative { tuple, prob: w })
            .collect();
        db.push_block(Block::normalized(key, alternatives).expect("valid block"))
            .expect("arity ok");
    }
    db
}

/// Builds a two-relation synthetic catalog for the join benches:
/// `sensors(station, kind, calib)` and `readings(station, level, flag)`
/// over a shared `stations`-value dictionary. Every block keeps a fixed
/// station (the join key) and spreads its `alts` alternatives over the
/// other attributes, so hierarchical join queries stay on the exact path.
///
/// # Panics
/// Panics when `alts` distinct non-station combinations cannot exist
/// (`alts > card²` for the fixed per-attribute cardinality of 4).
pub fn synthetic_join_catalog(
    stations: usize,
    certain: usize,
    blocks: usize,
    alts: usize,
    seed: u64,
) -> mrsl_probdb::Catalog {
    use mrsl_probdb::{Alternative, Block, Catalog, ProbDb};
    use mrsl_relation::{CompleteTuple, SchemaBuilder};

    const CARD: usize = 4;
    assert!(alts <= CARD * CARD, "cannot draw {alts} distinct combos");
    let station_labels: Vec<String> = (0..stations).map(|s| format!("s{s}")).collect();
    let schema = |a: &str, b: &str| {
        SchemaBuilder::default()
            .attribute("station", station_labels.clone())
            .attribute(a, (0..CARD).map(|v| format!("{a}{v}")))
            .attribute(b, (0..CARD).map(|v| format!("{b}{v}")))
            .build()
            .expect("valid synthetic schema")
    };
    let mut rng = seeded_rng(derive_seed(seed, &[0x10, 0x1b]));
    let mut build = |schema: std::sync::Arc<mrsl_relation::Schema>| -> ProbDb {
        let mut db = ProbDb::new(schema);
        for _ in 0..certain {
            let t = CompleteTuple::from_values(vec![
                rng.gen_range(0..stations as u16),
                rng.gen_range(0..CARD as u16),
                rng.gen_range(0..CARD as u16),
            ]);
            db.push_certain(t).expect("arity ok");
        }
        for key in 0..blocks {
            let station = rng.gen_range(0..stations as u16);
            let mut combos: Vec<(u16, u16)> = Vec::with_capacity(alts);
            while combos.len() < alts {
                let c = (rng.gen_range(0..CARD as u16), rng.gen_range(0..CARD as u16));
                if !combos.contains(&c) {
                    combos.push(c);
                }
            }
            let alternatives = combos
                .into_iter()
                .map(|(a, b)| Alternative {
                    tuple: CompleteTuple::from_values(vec![station, a, b]),
                    prob: rng.gen_range(1..100) as f64,
                })
                .collect();
            db.push_block(Block::normalized(key, alternatives).expect("valid block"))
                .expect("arity ok");
        }
        db
    };
    let mut catalog = Catalog::new();
    catalog
        .add("sensors", build(schema("kind", "calib")))
        .expect("fresh catalog");
    catalog
        .add("readings", build(schema("level", "flag")))
        .expect("fresh catalog");
    catalog
}

/// Builds the classic non-hierarchical chain `R(x), S(x,y), T(y)` at
/// benchmark scale: `keys` distinct join values per side, `blocks` blocks
/// in `r`/`t` and `2·blocks` in `s`. Every block sits at a fixed join key
/// and is "present" when its trailing `ok` attribute equals `yes`
/// (uniformly random probability per block, deterministic per `seed`), so
/// the shape is unsafe for the exact plan but dissociable — the fixture
/// the bounds-vs-sampling benchmarks run on.
pub fn synthetic_chain_catalog(keys: usize, blocks: usize, seed: u64) -> mrsl_probdb::Catalog {
    use mrsl_probdb::{Alternative, Block, Catalog, ProbDb};
    use mrsl_relation::{CompleteTuple, SchemaBuilder};

    let key_labels: Vec<String> = (0..keys).map(|k| format!("k{k}")).collect();
    let one = |name: &str| {
        SchemaBuilder::default()
            .attribute(name, key_labels.clone())
            .attribute("ok", ["no", "yes"])
            .build()
            .expect("valid chain schema")
    };
    let two = SchemaBuilder::default()
        .attribute("x", key_labels.clone())
        .attribute("y", key_labels.clone())
        .attribute("ok", ["no", "yes"])
        .build()
        .expect("valid chain schema");
    let mut rng = seeded_rng(derive_seed(seed, &[0xc4, 0xa1]));
    let gated = |values: Vec<u16>, key: usize, db: &mut ProbDb, p: f64| {
        let mut absent = values.clone();
        absent.push(0);
        let mut present = values;
        present.push(1);
        let block = Block::new(
            key,
            vec![
                Alternative {
                    tuple: CompleteTuple::from_values(absent),
                    prob: 1.0 - p,
                },
                Alternative {
                    tuple: CompleteTuple::from_values(present),
                    prob: p,
                },
            ],
        )
        .expect("normalized gated block");
        db.push_block(block).expect("arity ok");
    };
    let mut r = ProbDb::new(one("x"));
    let mut t = ProbDb::new(one("y"));
    for key in 0..blocks {
        let k = (key % keys) as u16;
        let p = rng.gen_range(5..95) as f64 / 100.0;
        gated(vec![k], key, &mut r, p);
        let p = rng.gen_range(5..95) as f64 / 100.0;
        gated(vec![(keys - 1 - key % keys) as u16], key, &mut t, p);
    }
    let mut s = ProbDb::new(two);
    for key in 0..2 * blocks {
        let x = rng.gen_range(0..keys as u16);
        let y = rng.gen_range(0..keys as u16);
        let p = rng.gen_range(5..95) as f64 / 100.0;
        gated(vec![x, y], key, &mut s, p);
    }
    let mut catalog = Catalog::new();
    catalog.add("r", r).expect("fresh catalog");
    catalog.add("s", s).expect("fresh catalog");
    catalog.add("t", t).expect("fresh catalog");
    catalog
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        let (_, a) = training_set("BN8", 100, 7);
        let (_, b) = training_set("BN8", 100, 7);
        assert_eq!(a, b);
        let (_, m1) = learned_model("BN8", 500, 0.01, 7);
        let (_, m2) = learned_model("BN8", 500, 0.01, 7);
        assert_eq!(m1.size(), m2.size());
    }

    #[test]
    fn join_catalog_blocks_keep_unique_stations() {
        let catalog = synthetic_join_catalog(8, 50, 30, 3, 7);
        for (_, db) in catalog.iter() {
            for block in db.blocks() {
                let station = block.alternatives()[0].tuple.raw()[0];
                assert!(block
                    .alternatives()
                    .iter()
                    .all(|a| a.tuple.raw()[0] == station));
            }
        }
    }

    #[test]
    fn chain_catalog_is_dissociable() {
        use mrsl_probdb::{CatalogEngine, PlanClass, Predicate, Query, Statistic};
        use mrsl_relation::{AttrId, ValueId};
        let catalog = synthetic_chain_catalog(8, 40, 11);
        let ok2 = Predicate::eq(AttrId(1), ValueId(1));
        let ok3 = Predicate::eq(AttrId(2), ValueId(1));
        let q = Query::scan("r")
            .filter(ok2.clone())
            .join_on(Query::scan("s").filter(ok3), [(AttrId(0), AttrId(0))])
            .join_on_rel("s", Query::scan("t").filter(ok2), [(AttrId(1), AttrId(0))]);
        let engine = CatalogEngine::new(&catalog);
        let (_, plan) = engine.plan(&q, Statistic::Probability).expect("plan");
        assert_eq!(plan, PlanClass::NonHierarchical);
        let (_, plan) = engine.plan(&q, Statistic::ProbabilityBounds).expect("plan");
        assert_eq!(plan, PlanClass::Dissociable);
    }

    #[test]
    fn workload_respects_bounds() {
        let bn = network("BN9", 3);
        for t in workload(&bn, 50, 3, 1) {
            let k = t.missing_mask().count();
            assert!((1..=3).contains(&k));
        }
    }
}
