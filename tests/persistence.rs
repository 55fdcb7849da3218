//! Model and database persistence: learned MRSL models and derived
//! probabilistic databases must survive a serde round-trip (the paper
//! frames learning as an offline phase, so models have to be storable).

use mrsl_repro::core::{
    derive_probabilistic_db, DeriveConfig, GibbsConfig, InferContext, LearnConfig, MrslModel,
    VotingConfig,
};
use mrsl_repro::probdb::{Catalog, CatalogEngine, Predicate, ProbDb, Query};
use mrsl_repro::relation::relation::fig1_relation;
use mrsl_repro::relation::{AttrId, PartialTuple, ValueId};

fn learned() -> MrslModel {
    let rel = fig1_relation();
    MrslModel::learn(
        rel.schema(),
        rel.complete_part(),
        &LearnConfig {
            support_threshold: 0.01,
            max_itemsets: 1000,
        },
    )
}

#[test]
fn model_roundtrips_through_json() {
    let model = learned();
    let json = serde_json::to_string(&model).expect("model serializes");
    let restored: MrslModel = serde_json::from_str(&json).expect("model deserializes");
    let restored = restored.after_deserialize();
    assert_eq!(restored.size(), model.size());
    // Restored models must produce the same inferences up to float
    // round-trip (serde_json's default parser can be 1 ULP off). Note: the
    // schema inside the restored model lost its lookup maps (serde skip),
    // but inference only uses positional ids — exercise it fully.
    let t = PartialTuple::from_options(&[None, Some(0), Some(0), Some(1)]);
    for voting in VotingConfig::table2_order() {
        let a = InferContext::new(&model, voting, 0).vote_single(&t, AttrId(0));
        let b = InferContext::new(&restored, voting, 0).vote_single(&t, AttrId(0));
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12, "voting {voting:?}: {x} vs {y}");
        }
    }
}

#[test]
fn model_json_is_reasonably_sized() {
    let model = learned();
    let json = serde_json::to_string(&model).expect("serializes");
    // ~112 meta-rules over a 4-attribute schema: the encoding should be
    // tens of kilobytes, not megabytes (guards against accidentally
    // serializing derived indexes).
    assert!(json.len() < 200_000, "model JSON is {} bytes", json.len());
}

#[test]
fn derived_database_roundtrips_through_json() {
    let rel = fig1_relation();
    let out = derive_probabilistic_db(
        &rel,
        &DeriveConfig {
            learn: LearnConfig {
                support_threshold: 0.05,
                max_itemsets: 1000,
            },
            gibbs: GibbsConfig {
                burn_in: 30,
                samples: 200,
                ..GibbsConfig::default()
            },
            ..DeriveConfig::default()
        },
    );
    let json = serde_json::to_string(&out.db).expect("db serializes");
    let restored: ProbDb = serde_json::from_str(&json).expect("db deserializes");
    assert_eq!(restored.blocks().len(), out.db.blocks().len());
    assert_eq!(restored.certain().len(), out.db.certain().len());
    // Queries over the restored database agree exactly.
    let mut catalog = Catalog::new();
    catalog.add("original", out.db).expect("fresh catalog");
    catalog.add("restored", restored).expect("fresh catalog");
    let engine = CatalogEngine::new(&catalog);
    let pred = Predicate::any().and_eq(AttrId(0), ValueId(0));
    let count = |name: &str| {
        let query = Query::scan(name).filter(pred.clone());
        engine.expected_count(&query).expect("exact").0
    };
    assert_eq!(count("restored"), count("original"));
}
