//! Lazy, query-targeted derivation (the paper's §VIII future work).
//!
//! "Our approach opens new possibilities for partial materialization of
//! probability values, as well as for lazy, query-targeted learning and
//! inference." Instead of materializing `Δt` for *every* incomplete tuple,
//! [`derive_catalog_for_query`] derives blocks only for the tuples that can
//! affect a given query, triaged on the predicate algebra's three-valued
//! evaluation of the observed attributes. The blocks it does derive are
//! the ones eager derivation emits, bit for bit.

use crate::config::GibbsConfig;
use crate::derive::{estimate_routed, estimate_to_block};
use crate::infer::batch::SamplingCost;
use crate::infer::engine::InferenceEngine;
use crate::model::MrslModel;
use mrsl_probdb::{Catalog, ProbDb, ProbDbError, Query};
use mrsl_relation::{CompleteTuple, PartialTuple, Relation};

/// One source relation of a lazy catalog derivation: the raw (partially
/// incomplete) relation plus the model learned from its complete part.
#[derive(Debug, Clone, Copy)]
pub struct LazySource<'a> {
    /// Catalog name the query's scans refer to.
    pub name: &'a str,
    /// The source relation (complete + incomplete tuples).
    pub relation: &'a Relation,
    /// The MRSL model used to infer `Δt` for this relation.
    pub model: &'a MrslModel,
}

/// Per-relation derivation statistics of [`derive_catalog_for_query`].
#[derive(Debug, Clone)]
pub struct LazyRelationStats {
    /// Relation name.
    pub relation: String,
    /// Incomplete tuples whose observed values contradict the query's
    /// selection: omitted entirely, no inference, no block.
    pub ruled_out: usize,
    /// Incomplete tuples the query is already decided on (selection
    /// observed true, every join key observed): materialized without
    /// inference.
    pub pinned: usize,
    /// Incomplete tuples that needed `Δt` inference.
    pub inferred: usize,
    /// Cost of the sampling actually performed for this relation.
    pub sampling_cost: SamplingCost,
}

/// Output of [`derive_catalog_for_query`].
#[derive(Debug)]
pub struct LazyCatalogOutput {
    /// The derived catalog, ready for
    /// [`CatalogEngine`](mrsl_probdb::CatalogEngine).
    pub catalog: Catalog,
    /// Per-relation triage statistics, in query scan order.
    pub per_relation: Vec<LazyRelationStats>,
}

/// Derives a query-targeted [`Catalog`]: for every relation the `query`
/// scans, infers `Δt` **only** for the incomplete tuples the query
/// actually depends on.
///
/// The triage runs per relation with join awareness (via
/// [`Query::scan_requirements`]):
///
/// * selection observed-false → the tuple can never satisfy its scan's
///   predicate; it is omitted (no inference, no block);
/// * selection observed-true **and** every join attribute observed → the
///   tuple's effect on the query is fully determined; it is pinned as a
///   certain tuple (missing non-query attributes default to value 0), no
///   inference;
/// * otherwise → `Δt` is inferred and the tuple becomes a regular block,
///   bit-identical to the block eager derivation emits at the same key:
///   one missing value is voted (Algorithm 2), several go through
///   `engine`.
///
/// The resulting catalog is **valid only for this query's
/// probability/count statistics** (`Probability`, `ExpectedCount`,
/// `CountDistribution`): those read nothing beyond the selection and join
/// attributes the triage conditions on. Statistics that read attribute
/// *values* out of the tuples — `ValueMarginal`, `TopK` — would see the
/// pinned tuples' zero-filled missing attributes as real data; use the
/// eager [`derive_probabilistic_db`](crate::derive_probabilistic_db) for
/// those, as for any unrelated query (omitted tuples are missing rows
/// there too). Sources the query does not scan are skipped. Every derived
/// relation records `engine.name()` as its provenance, so
/// [`EvalReport`](mrsl_probdb::EvalReport)s over the catalog say which
/// engine stood behind the blocks they read.
pub fn derive_catalog_for_query(
    sources: &[LazySource<'_>],
    query: &Query,
    gibbs: &GibbsConfig,
    engine: &dyn InferenceEngine,
    seed: u64,
) -> Result<LazyCatalogOutput, ProbDbError> {
    let requirements = query.scan_requirements()?;
    let mut catalog = Catalog::new();
    let mut per_relation = Vec::with_capacity(requirements.len());
    for req in &requirements {
        let source = sources
            .iter()
            .find(|s| s.name == req.relation)
            .ok_or_else(|| ProbDbError::UnknownRelation(req.relation.clone()))?;
        let relation = source.relation;
        let mut db = ProbDb::new(relation.schema().clone());
        db.set_provenance(engine.name());
        for point in relation.complete_part() {
            db.push_certain(point.clone())
                .expect("schema arity verified by the relation");
        }

        // Triage: which incomplete tuples does this query actually need
        // derived?
        let incomplete = relation.incomplete_part();
        let mut stats = LazyRelationStats {
            relation: req.relation.clone(),
            ruled_out: 0,
            pinned: 0,
            inferred: 0,
            sampling_cost: SamplingCost::default(),
        };
        let mut workload: Vec<PartialTuple> = Vec::new();
        let mut keys: Vec<usize> = Vec::new();
        for (key, t) in incomplete.iter().enumerate() {
            // Pinning fabricates the missing attributes (zero-filled), so
            // it needs the tuple's whole effect on the query decided:
            // *every* scan's selection individually (Kleene's OR in
            // `req.pred` can be true while one alias still hinges on an
            // unobserved attribute) plus all join keys observed.
            let decided_everywhere = || {
                req.join_attrs.is_subset(t.mask())
                    && req.scan_preds.iter().all(|p| p.eval_partial(t).is_some())
            };
            match req.pred.eval_partial(t) {
                Some(false) => stats.ruled_out += 1,
                Some(true) if decided_everywhere() => {
                    stats.pinned += 1;
                    let values = (0..t.arity() as u16)
                        .map(|a| t.get(mrsl_relation::AttrId(a)).map(|v| v.0).unwrap_or(0))
                        .collect();
                    db.push_certain(CompleteTuple::from_values(values))
                        .expect("arity matches the schema");
                }
                _ => {
                    workload.push(t.clone());
                    keys.push(key);
                }
            }
        }
        stats.inferred = workload.len();
        let result = estimate_routed(source.model, &workload, engine, gibbs.voting, seed);
        stats.sampling_cost = result.cost;
        for ((key, t), est) in keys.iter().zip(&workload).zip(&result.estimates) {
            db.push_block(estimate_to_block(*key, t, est, 0.0))
                .expect("blocks validated on build");
        }
        catalog.add(req.relation.clone(), db)?;
        per_relation.push(stats);
    }
    Ok(LazyCatalogOutput {
        catalog,
        per_relation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LearnConfig, VotingConfig};
    use crate::derive::{derive_probabilistic_db, DeriveConfig};
    use crate::infer::engine::TupleDagWorkload;
    use mrsl_probdb::{CatalogEngine, Predicate};
    use mrsl_relation::relation::fig1_relation;
    use mrsl_relation::{AttrId, ValueId};

    /// The derivation parameters the fig. 1 tests share.
    fn config() -> DeriveConfig {
        DeriveConfig {
            gibbs: GibbsConfig {
                burn_in: 50,
                samples: 600,
                voting: VotingConfig::best_averaged(),
            },
            seed: 1,
            ..DeriveConfig::default()
        }
    }

    fn setup() -> (Relation, MrslModel, GibbsConfig) {
        let (rel, config) = (fig1_relation(), config());
        let model = MrslModel::learn(rel.schema(), rel.complete_part(), &config.learn);
        (rel, model, config.gibbs)
    }

    /// Lazily derives `σ[pred](profiles)` over fig. 1 with Algorithm 3.
    /// Returns the triage of the one scanned relation, its derived
    /// database, and the query's exact expected count.
    fn derive_scan(pred: &Predicate) -> (LazyRelationStats, ProbDb, f64) {
        let (rel, model, gibbs) = setup();
        let query = Query::scan("profiles").filter(pred.clone());
        let sources = [LazySource {
            name: "profiles",
            relation: &rel,
            model: &model,
        }];
        let engine = TupleDagWorkload::from_config(&gibbs);
        let mut out = derive_catalog_for_query(&sources, &query, &gibbs, &engine, 1).unwrap();
        let (count, _) = CatalogEngine::new(&out.catalog)
            .expected_count(&query)
            .unwrap();
        let db = out.catalog.get("profiles").unwrap().clone();
        (out.per_relation.remove(0), db, count)
    }

    /// `P(pred)` summed over the derived blocks.
    fn block_mass(db: &ProbDb, pred: &Predicate) -> f64 {
        db.blocks()
            .iter()
            .map(|b| b.prob_satisfies(|t| pred.eval(t)))
            .sum()
    }

    #[test]
    fn classifies_tuples_correctly() {
        // pred: age = 30. Incomplete tuples with age observed ≠ 30 are
        // ruled out; with age = 30 observed they're pinned; with age
        // missing they need inference.
        let pred = Predicate::any().and_eq(AttrId(0), ValueId(1));
        let (stats, db, count) = derive_scan(&pred);
        // t8 = ⟨?, HS, ?, ?⟩ is the only tuple with age missing.
        assert_eq!(stats.inferred, 1);
        assert_eq!(stats.pinned, 3); // t10, t11, t12 observe age = 30
        assert_eq!(stats.ruled_out, 5);
        // 8 complete points plus the 3 pinned; one block, at t8's key.
        assert_eq!(db.certain().len(), 11);
        assert_eq!(db.blocks().len(), 1);
        assert_eq!(db.blocks()[0].key(), 3);
        // Certain complete matches: age=30 points are t9 only.
        let certain_matches = db.certain().iter().filter(|t| pred.eval(t)).count();
        assert_eq!(certain_matches, 1 + 3);
        assert!((count - certain_matches as f64 - block_mass(&db, &pred)).abs() < 1e-9);
    }

    #[test]
    fn lazy_matches_full_materialization() {
        let pred = Predicate::any().and_eq(AttrId(2), ValueId(1)); // inc=100K
        let (_, _, lazy_count) = derive_scan(&pred);
        // Fully materialize with the same parameters and compare.
        let full = derive_probabilistic_db(&fig1_relation(), &config());
        let mut catalog = Catalog::new();
        catalog.add("profiles", full.db).unwrap();
        let (full_expected, _) = CatalogEngine::new(&catalog)
            .expected_count(&Query::scan("profiles").filter(pred))
            .unwrap();
        assert!(
            (lazy_count - full_expected).abs() < 0.6,
            "lazy {lazy_count} vs full {full_expected}"
        );
    }

    #[test]
    fn lazy_saves_inference_work() {
        // A very selective predicate on observed values skips most tuples.
        let pred = Predicate::any()
            .and_eq(AttrId(0), ValueId(1))
            .and_eq(AttrId(1), ValueId(2)); // age=30 ∧ edu=MS
        let (stats, db, count) = derive_scan(&pred);
        assert_eq!(stats.ruled_out, 7);
        // t12 = ⟨30, MS, ?, ?⟩ observes both clauses: probability exactly 1.
        assert_eq!(stats.pinned, 1);
        // Only t10 = ⟨30, ?, 100K, ?⟩ needs sampling: one chain.
        assert_eq!(stats.inferred, 1);
        assert_eq!(stats.sampling_cost.chains, 1);
        assert!((count - 1.0 - block_mass(&db, &pred)).abs() < 1e-9);
    }

    /// Every incomplete tuple is pinned: nothing is inferred or sampled.
    fn assert_pins_everything(pred: &Predicate) {
        let rel = fig1_relation();
        let (stats, db, count) = derive_scan(pred);
        assert_eq!(stats.pinned, rel.incomplete_part().len());
        assert_eq!(stats.inferred + stats.ruled_out, 0);
        assert_eq!(stats.sampling_cost.total_draws, 0);
        assert_eq!(db.blocks().len(), 0);
        assert_eq!(count, rel.len() as f64);
    }

    #[test]
    fn empty_predicate_is_all_certain() {
        assert_pins_everything(&Predicate::any());
    }

    #[test]
    fn disjunction_decided_by_observed_arm_skips_inference() {
        // edu=HS ∨ inc=100K: t1 = ⟨20, HS, ?, ?⟩ and t8 = ⟨?, HS, ?, ?⟩
        // observe the first arm, so no inference is needed on them even
        // though inc (and for t8 also age) is missing.
        let pred = Predicate::eq(AttrId(1), ValueId(0)).or(Predicate::eq(AttrId(2), ValueId(1)));
        let (stats, db, _) = derive_scan(&pred);
        // Pinned: t1, t8, t10 (inc=100K), t11, t14, t16; inferred: t3, t5,
        // t12, whose observed values decide neither arm.
        assert_eq!(stats.pinned, 6);
        assert_eq!(stats.inferred, 3);
        assert_eq!(stats.ruled_out, 0);
        // Incomplete part order: t1, t3, t5, t8, t10, t11, t12, t14, t16.
        let keys: Vec<usize> = db.blocks().iter().map(|b| b.key()).collect();
        assert_eq!(keys, vec![1, 2, 6]);
    }

    #[test]
    fn empty_conjunction_skips_all_inference() {
        // Regression: `And([]) ≡ Any` must be decided — `Some(true)` — on
        // every incomplete tuple, so a query with an empty conjunction
        // derives nothing.
        assert_pins_everything(&Predicate::And(vec![]));
    }

    #[test]
    fn negation_and_range_triage_agree_with_brute_force() {
        let rel = fig1_relation();
        // NOT(age ∈ {20, 30}): decided wherever age is observed.
        let pred = Predicate::is_in(AttrId(0), [ValueId(0), ValueId(1)]).negate();
        let (stats, db, count) = derive_scan(&pred);
        let incomplete = rel.incomplete_part();
        let triage = |want: Option<bool>| {
            incomplete
                .iter()
                .filter(|t| pred.eval_partial(t) == want)
                .count()
        };
        assert_eq!(stats.pinned, triage(Some(true)));
        assert_eq!(stats.ruled_out, triage(Some(false)));
        assert_eq!(stats.inferred, triage(None));
        for block in db.blocks().iter() {
            assert_eq!(pred.eval_partial(&incomplete[block.key()]), None);
            let p = block.prob_satisfies(|t| pred.eval(t));
            assert!((0.0..=1.0 + 1e-9).contains(&p));
        }
        // The inferred probabilities integrate Δt over the satisfying
        // completions, so the expected count is certain matches plus the
        // block marginals.
        let certain_matches = db.certain().iter().filter(|t| pred.eval(t)).count();
        assert!((count - certain_matches as f64 - block_mass(&db, &pred)).abs() < 1e-9);
    }

    /// Lazy and eager derivation route tuples the same way: on relations
    /// whose incomplete tuples each hide one non-join attribute (the
    /// shape `repro joins` derives), every lazily inferred block is the
    /// voted CPD, bit for bit the eager block at the same key, and no
    /// chain runs.
    #[test]
    fn lazy_blocks_are_bit_identical_to_eager_blocks() {
        use mrsl_bayesnet::{builders::chain, sampler::sample_dataset, BayesianNetwork};

        let config = DeriveConfig {
            learn: LearnConfig {
                support_threshold: 0.005,
                max_itemsets: 1000,
            },
            gibbs: GibbsConfig {
                burn_in: 50,
                samples: 300,
                voting: VotingConfig::best_averaged(),
            },
            seed: 0x9d1e,
            ..DeriveConfig::default()
        };
        let names = ["sensors", "readings"];
        let mut relations = Vec::new();
        for (i, cards) in [[6usize, 3, 2], [6, 4, 2]].iter().enumerate() {
            let bn = BayesianNetwork::instantiate(&chain(names[i], cards), 0.5, i as u64);
            let mut rel = Relation::new(bn.schema().clone());
            for p in sample_dataset(&bn, 500, 10 + i as u64) {
                rel.push_complete(p).unwrap();
            }
            // Hide attribute 1 or 2, never the station (attribute 0).
            for (j, p) in sample_dataset(&bn, 80, 20 + i as u64).iter().enumerate() {
                let hide = AttrId(1 + (j % 2) as u16);
                rel.push(p.to_partial().without_attr(hide)).unwrap();
            }
            relations.push(rel);
        }
        let models: Vec<MrslModel> = (relations.iter())
            .map(|r| MrslModel::learn(r.schema(), r.complete_part(), &config.learn))
            .collect();
        let sources: Vec<LazySource<'_>> = (0..2)
            .map(|i| LazySource {
                name: names[i],
                relation: &relations[i],
                model: &models[i],
            })
            .collect();
        // σ[a1=0](sensors) ⨝ σ[a1≥2](readings) on the station.
        let readings =
            Query::scan("readings").filter(Predicate::range(AttrId(1), ValueId(2), ValueId(3)));
        let query = Query::scan("sensors")
            .filter(Predicate::eq(AttrId(1), ValueId(0)))
            .join_on(readings, [(AttrId(0), AttrId(0))]);
        let dag = TupleDagWorkload::from_config(&config.gibbs);
        let lazy =
            derive_catalog_for_query(&sources, &query, &config.gibbs, &dag, config.seed).unwrap();

        let bits = |b: &mrsl_probdb::Block| -> Vec<(CompleteTuple, u64)> {
            (b.alternatives().iter())
                .map(|a| (a.tuple.clone(), a.prob.to_bits()))
                .collect()
        };
        for (stats, rel) in lazy.per_relation.iter().zip(&relations) {
            assert!(stats.inferred > 0, "{} infers something", stats.relation);
            assert_eq!(stats.sampling_cost.total_draws, 0, "{}", stats.relation);
            let eager = derive_probabilistic_db(rel, &config).db;
            let lazy_db = lazy.catalog.get(&stats.relation).unwrap();
            assert_eq!(lazy_db.blocks().len(), stats.inferred);
            for block in lazy_db.blocks().iter() {
                let twin = &eager.blocks()[block.key()];
                assert_eq!(twin.key(), block.key());
                assert_eq!(bits(block), bits(twin), "{}", stats.relation);
            }
        }
    }

    /// A second relation over fig. 1's dictionaries: three complete
    /// partners plus the given incomplete ones.
    fn partners(incomplete: &[[Option<u16>; 4]]) -> Relation {
        let mut rel = Relation::new(fig1_relation().schema().clone());
        for values in [vec![0u16, 0, 1, 0], vec![1, 1, 1, 1], vec![2, 2, 0, 0]] {
            rel.push_complete(CompleteTuple::from_values(values))
                .unwrap();
        }
        for t in incomplete {
            rel.push(PartialTuple::from_options(t)).unwrap();
        }
        rel
    }

    #[test]
    fn alias_merged_requirements_only_pin_fully_decided_tuples() {
        let (_, model, gibbs) = setup();
        // σ[age=20](r1) ⋈ σ[inc=100K](r2) on age: the merged requirement
        // is (age=20 ∨ inc=100K). A tuple with age=20 observed but inc
        // missing satisfies Kleene's OR, yet r2's selection is undecided —
        // pinning it would fabricate inc=0 (50K). It must be inferred.
        let partners = partners(&[
            // ⟨20, HS, ?, ?⟩: age observed (r1's filter true, join key
            // known), inc missing (r2's filter undecided) → inferred, never
            // pinned.
            [Some(0), Some(0), None, None],
            // ⟨20, ?, 100K, ?⟩: both filters decided, join key observed →
            // pinned without inference.
            [Some(0), None, Some(1), None],
            // ⟨30, ?, 50K, ?⟩: both filters decided false → ruled out.
            [Some(1), None, Some(0), None],
        ]);
        let query = Query::scan_as("partners", "r1")
            .filter(Predicate::any().and_eq(AttrId(0), ValueId(0)))
            .join_on(
                Query::scan_as("partners", "r2")
                    .filter(Predicate::any().and_eq(AttrId(2), ValueId(1))),
                [(AttrId(0), AttrId(0))],
            );
        let sources = [LazySource {
            name: "partners",
            relation: &partners,
            model: &model,
        }];
        let dag = TupleDagWorkload::from_config(&gibbs);
        let out = derive_catalog_for_query(&sources, &query, &gibbs, &dag, 1).unwrap();
        // One requirement for the twice-scanned relation.
        assert_eq!(out.per_relation.len(), 1);
        let stats = &out.per_relation[0];
        assert_eq!(stats.inferred, 1, "undecided alias selection must infer");
        assert_eq!(stats.pinned, 1);
        assert_eq!(stats.ruled_out, 1);
    }

    #[test]
    fn catalog_derivation_triages_per_relation() {
        use mrsl_probdb::EvalPath;

        let (profiles, model, gibbs) = setup();
        let partners = partners(&[
            // ⟨20, ?, 100K, ?⟩: selection (inc=100K) observed true, join
            // key (age) observed → pinned without inference.
            [Some(0), None, Some(1), None],
            // ⟨?, HS, 100K, ?⟩: join key missing → must be inferred.
            [None, Some(0), Some(1), None],
            // ⟨30, BS, 50K, ?⟩: selection observed false → ruled out.
            [Some(1), Some(1), Some(0), None],
        ]);
        let partner_model = MrslModel::learn(
            partners.schema(),
            partners.complete_part(),
            &LearnConfig::default(),
        );

        // profiles ⨝ partners on age, selecting inc=100K partners.
        let inc_100k = Predicate::any().and_eq(AttrId(2), ValueId(1));
        let query = Query::scan("profiles").join_on(
            Query::scan("partners").filter(inc_100k.clone()),
            [(AttrId(0), AttrId(0))],
        );
        let sources = [
            LazySource {
                name: "profiles",
                relation: &profiles,
                model: &model,
            },
            LazySource {
                name: "partners",
                relation: &partners,
                model: &partner_model,
            },
        ];
        let dag = TupleDagWorkload::from_config(&gibbs);
        let out = derive_catalog_for_query(&sources, &query, &gibbs, &dag, 1).unwrap();

        // Partner triage: exactly the shapes constructed above.
        let ps = &out.per_relation[1];
        assert_eq!(ps.relation, "partners");
        assert_eq!(ps.pinned, 1);
        assert_eq!(ps.inferred, 1);
        assert_eq!(ps.ruled_out, 1);
        let partners_db = out.catalog.get("partners").unwrap();
        assert_eq!(partners_db.provenance(), Some("tuple-dag"));
        assert_eq!(partners_db.blocks().len(), 1); // only the inferred tuple
        assert_eq!(partners_db.certain().len(), 4); // 3 complete + 1 pinned

        // Profile triage: no selection on profiles, so nothing is ruled
        // out, and tuples with the join key (age) observed need no
        // inference either — only age-missing tuples derive.
        let pf = &out.per_relation[0];
        assert_eq!(pf.ruled_out, 0);
        let age_missing = profiles
            .incomplete_part()
            .iter()
            .filter(|t| t.get(AttrId(0)).is_none())
            .count();
        assert_eq!(pf.inferred, age_missing);
        assert_eq!(pf.pinned, profiles.incomplete_part().len() - age_missing);

        // The catalog answers the join exactly (hierarchical, keys unique
        // per block since only age-observed tuples were pinned and the
        // inferred blocks condition on the predicate... unless inference
        // left the key open — then the planner reports it).
        let engine = CatalogEngine::new(&out.catalog);
        let (count, _) = engine.expected_count(&query).unwrap();
        assert!(count > 0.0, "some 100K partner pairs must exist: {count}");
        let (p, report) = engine.probability(&query).unwrap();
        assert!((0.0..=1.0 + 1e-9).contains(&p));
        // Blocks with the age key inferred straddle join values, so the
        // planner must take the Monte-Carlo route — and say why.
        assert_eq!(report.path, EvalPath::MonteCarlo);

        // Missing sources are a typed error.
        let e = derive_catalog_for_query(&sources[..1], &query, &gibbs, &dag, 1);
        assert!(matches!(e, Err(ProbDbError::UnknownRelation(n)) if n == "partners"));
    }
}
