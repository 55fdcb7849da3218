//! Bytecode-VM / plan-cache suite.
//!
//! The compiled route must be **bit-identical** to the reference
//! interpreter (`testutil::interpreted`) — not epsilon-close — for
//! `Probability`, `ProbabilityBounds` and `ExpectedCount`, on
//! hierarchical shapes, dissociable chains (branch-replica `Copy` nodes,
//! both mass transforms) and aliased self-joins. A cold miss memoizes its
//! registers, so the first warm hit rebinds nothing. Warm cache hits must
//! skip classification, stay bit-identical after catalog data changes,
//! and invalidate themselves when a guarded data property flips.

use mrsl_repro::probdb::testutil::interpreted;
use mrsl_repro::probdb::{
    Alternative, Block, Catalog, CatalogEngine, EvalPath, PlanClass, PlanRoute, Predicate, ProbDb,
    ProbDbError, Query, QueryAnswer, QueryEngineConfig, Statistic,
};
use mrsl_repro::relation::{AttrId, CompleteTuple, Schema, ValueId};
use proptest::prelude::*;

fn alt(values: Vec<u16>, prob: f64) -> Alternative {
    Alternative {
        tuple: CompleteTuple::from_values(values),
        prob,
    }
}

/// The configuration under test: brackets never refined so bounds stay
/// deterministic.
fn vm_config() -> QueryEngineConfig {
    QueryEngineConfig {
        bounds_tolerance: 1.0,
        ..QueryEngineConfig::default()
    }
}

/// An answer's float payload as raw bits, so comparisons are exact by
/// construction.
fn answer_bits(answer: QueryAnswer) -> Vec<u64> {
    match answer {
        QueryAnswer::Probability { p, std_error } => {
            let mut v = vec![p.to_bits()];
            v.extend(std_error.map(f64::to_bits));
            v
        }
        QueryAnswer::Bounds(b) => {
            let mut v = vec![b.lower.to_bits(), b.upper.to_bits()];
            v.extend(b.estimate.map(f64::to_bits));
            v.extend(b.std_error.map(f64::to_bits));
            v
        }
        QueryAnswer::Count { mean, std_error } => {
            let mut v = vec![mean.to_bits()];
            v.extend(std_error.map(f64::to_bits));
            v
        }
        other => panic!("unexpected answer shape: {other:?}"),
    }
}

/// Evaluates one statistic on the engine and returns the answer bits plus
/// the report's route, path and plan class.
fn eval_bits(
    engine: &CatalogEngine,
    q: &Query,
    stat: Statistic,
) -> (Vec<u64>, PlanRoute, EvalPath, PlanClass) {
    let (answer, report) = engine.evaluate(q, stat).expect("evaluates");
    (answer_bits(answer), report.route, report.path, report.plan)
}

/// The same, from the reference interpreter under [`vm_config`].
fn interp_bits(
    catalog: &Catalog,
    q: &Query,
    stat: Statistic,
) -> (Vec<u64>, PlanRoute, EvalPath, PlanClass) {
    let (answer, report) = interpreted(catalog, q, stat, &vm_config()).expect("interprets");
    (answer_bits(answer), report.route, report.path, report.plan)
}

const STATS: [Statistic; 3] = [
    Statistic::Probability,
    Statistic::ProbabilityBounds,
    Statistic::ExpectedCount,
];

/// Asserts interpreter/VM bit-identity for all three cacheable statistics
/// and that re-evaluating on the VM engine is a bit-identical cache hit.
/// The cold miss memoizes its registers, so that first hit neither
/// patches nor rebinds anything.
fn assert_vm_matches_interpreter(catalog: &Catalog, q: &Query) {
    let vm = CatalogEngine::with_config(catalog, vm_config());
    for stat in STATS {
        let (ibits, iroute, ipath, iplan) = interp_bits(catalog, q, stat);
        assert_eq!(iroute, PlanRoute::Uncached, "{stat:?}");
        let (vbits, vroute, vpath, vplan) = eval_bits(&vm, q, stat);
        // Every cacheable cold miss, sampling verdicts included, reports
        // the compiled route.
        assert_eq!(vroute, PlanRoute::Compiled, "{stat:?}");
        assert_eq!(ibits, vbits, "cold VM diverges on {stat:?}");
        assert_eq!((ipath, iplan), (vpath, vplan), "{stat:?}");
        let (wbits, wroute, wpath, wplan) = eval_bits(&vm, q, stat);
        assert_eq!(wroute, PlanRoute::CacheHit, "{stat:?}");
        assert_eq!(ibits, wbits, "warm VM diverges on {stat:?}");
        assert_eq!((ipath, iplan), (wpath, wplan), "{stat:?}");
    }
    let stats = vm.plan_cache().stats();
    assert_eq!(stats.hits, 3, "{stats:?}");
    assert_eq!(stats.misses, 3, "{stats:?}");
    assert_eq!((stats.reg_rebinds, stats.reg_patches), (0, 0), "{stats:?}");
}

/// `r(k, ok)`: every block sits at one key, present when `ok = yes`.
fn keyed_relation(blocks: &[(u16, f64)], certain: &[u16]) -> ProbDb {
    let schema = Schema::builder()
        .attribute("k", ["k0", "k1", "k2"])
        .attribute("ok", ["no", "yes"])
        .build()
        .unwrap();
    let mut db = ProbDb::new(schema);
    for &k in certain {
        db.push_certain(CompleteTuple::from_values(vec![k, 1]))
            .unwrap();
    }
    for (i, &(k, p)) in blocks.iter().enumerate() {
        db.push_block(Block::new(i, vec![alt(vec![k, 0], 1.0 - p), alt(vec![k, 1], p)]).unwrap())
            .unwrap();
    }
    db
}

fn ok() -> Predicate {
    Predicate::eq(AttrId(1), ValueId(1))
}

/// The unsafe chain `R(x), S(x,y), T(y)` with key-unique blocks, sized by
/// random presence probabilities — the dissociable fixture.
fn chain_catalog(rp: [f64; 2], sp: [f64; 3], tp: [f64; 2]) -> Catalog {
    let one = |n: &str| {
        Schema::builder()
            .attribute(n, ["v0", "v1"])
            .attribute("ok", ["no", "yes"])
            .build()
            .unwrap()
    };
    let two = Schema::builder()
        .attribute("x", ["v0", "v1"])
        .attribute("y", ["v0", "v1"])
        .attribute("ok", ["no", "yes"])
        .build()
        .unwrap();
    let pair = |k: u16, p: f64| vec![alt(vec![k, 0], 1.0 - p), alt(vec![k, 1], p)];
    let spair = |x: u16, y: u16, p: f64| vec![alt(vec![x, y, 0], 1.0 - p), alt(vec![x, y, 1], p)];
    let mut r = ProbDb::new(one("x"));
    r.push_block(Block::new(0, pair(0, rp[0])).unwrap())
        .unwrap();
    r.push_block(Block::new(1, pair(1, rp[1])).unwrap())
        .unwrap();
    let mut s = ProbDb::new(two);
    s.push_block(Block::new(0, spair(0, 1, sp[0])).unwrap())
        .unwrap();
    s.push_block(Block::new(1, spair(1, 0, sp[1])).unwrap())
        .unwrap();
    s.push_block(Block::new(2, spair(0, 0, sp[2])).unwrap())
        .unwrap();
    let mut t = ProbDb::new(one("y"));
    t.push_block(Block::new(0, pair(0, tp[0])).unwrap())
        .unwrap();
    t.push_block(Block::new(1, pair(1, tp[1])).unwrap())
        .unwrap();
    let mut catalog = Catalog::new();
    catalog.add("r", r).unwrap();
    catalog.add("s", s).unwrap();
    catalog.add("t", t).unwrap();
    catalog
}

fn chain_query() -> Query {
    let ok3 = Predicate::eq(AttrId(2), ValueId(1));
    Query::scan("r")
        .filter(ok())
        .join_on(Query::scan("s").filter(ok3), [(AttrId(0), AttrId(0))])
        .join_on_rel("s", Query::scan("t").filter(ok()), [(AttrId(1), AttrId(0))])
}

fn arb_prob() -> impl Strategy<Value = f64> {
    (1u32..=19).prop_map(|w| w as f64 / 20.0)
}

fn arb_keyed_blocks() -> impl Strategy<Value = Vec<(u16, f64)>> {
    prop::collection::vec((0u16..3, arb_prob()), 1..5)
}

fn arb_probs2() -> impl Strategy<Value = [f64; 2]> {
    (arb_prob(), arb_prob()).prop_map(|(a, b)| [a, b])
}

fn arb_probs3() -> impl Strategy<Value = [f64; 3]> {
    (arb_prob(), arb_prob(), arb_prob()).prop_map(|(a, b, c)| [a, b, c])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Hierarchical keyed joins: VM and interpreter are bit-identical on
    /// all three statistics, and warm hits stay so.
    #[test]
    fn vm_matches_interpreter_on_hierarchical_joins(
        ((lb, rb), (lc, rc)) in (
            (arb_keyed_blocks(), arb_keyed_blocks()),
            (
                prop::collection::vec(0u16..3, 0..3),
                prop::collection::vec(0u16..3, 0..3),
            ),
        )
    ) {
        let mut catalog = Catalog::new();
        catalog.add("left", keyed_relation(&lb, &lc)).unwrap();
        catalog.add("right", keyed_relation(&rb, &rc)).unwrap();
        let q = Query::scan("left").filter(ok()).join_on(
            Query::scan("right").filter(ok()),
            [(AttrId(0), AttrId(0))],
        );
        assert_vm_matches_interpreter(&catalog, &q);
    }

    /// Dissociable chains: the bounds programs (branch-replica copies,
    /// `1-(1-m)^(1/d)` lower / plain upper transforms, hoisted invariant
    /// subtrees) and the mass-join count program are bit-identical to the
    /// interpreter.
    #[test]
    fn vm_matches_interpreter_on_dissociable_chains(
        (rp, sp, tp) in (arb_probs2(), arb_probs3(), arb_probs2())
    ) {
        let catalog = chain_catalog(rp, sp, tp);
        assert_vm_matches_interpreter(&catalog, &chain_query());
    }

    /// Aliased self-joins: the conjunctive `m^(1/k)` upper transform and
    /// the shared-block lower bound are bit-identical to the interpreter.
    #[test]
    fn vm_matches_interpreter_on_aliased_self_joins(
        (blocks, certain) in (arb_keyed_blocks(), prop::collection::vec(0u16..3, 0..2))
    ) {
        let mut catalog = Catalog::new();
        catalog.add("r", keyed_relation(&blocks, &certain)).unwrap();
        let q = Query::scan_as("r", "r1").filter(ok()).join_on(
            Query::scan_as("r", "r2").filter(ok()),
            [(AttrId(0), AttrId(0))],
        );
        let vm = CatalogEngine::with_config(&catalog, vm_config());
        for stat in [Statistic::Probability, Statistic::ProbabilityBounds] {
            let (ibits, ..) = interp_bits(&catalog, &q, stat);
            let (vbits, ..) = eval_bits(&vm, &q, stat);
            prop_assert_eq!(&ibits, &vbits, "cold {:?}", stat);
            let (wbits, wroute, ..) = eval_bits(&vm, &q, stat);
            prop_assert_eq!(wroute, PlanRoute::CacheHit, "{:?}", stat);
            prop_assert_eq!(&ibits, &wbits, "warm {:?}", stat);
        }
    }

    /// A warm cache hit after the catalog's data changed re-binds the
    /// cached program against the new columns and stays bit-identical to
    /// a cold interpreter run over the same data.
    #[test]
    fn warm_hits_track_catalog_mutations_bit_identically(
        ((rp, sp), (tp, np)) in ((arb_probs2(), arb_probs3()), (arb_probs2(), arb_prob()))
    ) {
        let mut catalog = chain_catalog(rp, sp, tp);
        let q = chain_query();
        let cache = {
            let engine = CatalogEngine::with_config(&catalog, vm_config());
            for stat in STATS {
                let (_, route, ..) = eval_bits(&engine, &q, stat);
                prop_assert_ne!(route, PlanRoute::CacheHit, "{:?}", stat);
            }
            engine.plan_cache().clone()
        };
        // Grow `s` by a fresh key-unique block: versions move, the
        // guards stay false, the cached plans stay valid.
        catalog
            .get_mut("s")
            .unwrap()
            .push_block(Block::new(3, vec![
                alt(vec![1, 1, 0], 1.0 - np),
                alt(vec![1, 1, 1], np),
            ]).unwrap())
            .unwrap();
        let warm = CatalogEngine::with_plan_cache(&catalog, vm_config(), cache.clone());
        for stat in STATS {
            let (ibits, ..) = interp_bits(&catalog, &q, stat);
            let (wbits, wroute, ..) = eval_bits(&warm, &q, stat);
            prop_assert_eq!(wroute, PlanRoute::CacheHit, "{:?}", stat);
            prop_assert_eq!(ibits, wbits, "post-mutation warm hit diverges on {:?}", stat);
        }
        prop_assert_eq!(cache.stats().invalidations, 0);
    }
}

#[test]
fn nested_hierarchical_join_compiles_bit_identically() {
    // R(x) ⋈ S(x,y) ⋈ T(x,y): class {x} nests {y} — a depth-two
    // partition program with a real recursion level.
    let three = Schema::builder()
        .attribute("x", ["x0", "x1"])
        .attribute("y", ["y0", "y1"])
        .attribute("ok", ["no", "yes"])
        .build()
        .unwrap();
    let two = Schema::builder()
        .attribute("x", ["x0", "x1"])
        .attribute("ok", ["no", "yes"])
        .build()
        .unwrap();
    let mut r = ProbDb::new(two);
    r.push_block(Block::new(0, vec![alt(vec![0, 0], 0.6), alt(vec![0, 1], 0.4)]).unwrap())
        .unwrap();
    r.push_block(Block::new(1, vec![alt(vec![1, 0], 0.5), alt(vec![1, 1], 0.5)]).unwrap())
        .unwrap();
    let mut s = ProbDb::new(three.clone());
    s.push_certain(CompleteTuple::from_values(vec![0, 0, 1]))
        .unwrap();
    s.push_block(Block::new(0, vec![alt(vec![1, 0, 0], 0.5), alt(vec![1, 0, 1], 0.5)]).unwrap())
        .unwrap();
    s.push_block(Block::new(1, vec![alt(vec![0, 1, 0], 0.2), alt(vec![0, 1, 1], 0.8)]).unwrap())
        .unwrap();
    let mut t = ProbDb::new(three);
    t.push_block(Block::new(0, vec![alt(vec![0, 0, 0], 0.3), alt(vec![0, 0, 1], 0.7)]).unwrap())
        .unwrap();
    t.push_block(Block::new(1, vec![alt(vec![0, 1, 0], 0.6), alt(vec![0, 1, 1], 0.4)]).unwrap())
        .unwrap();
    t.push_certain(CompleteTuple::from_values(vec![1, 1, 1]))
        .unwrap();
    let mut catalog = Catalog::new();
    catalog.add("r", r).unwrap();
    catalog.add("s", s).unwrap();
    catalog.add("t", t).unwrap();
    let okp = Predicate::eq(AttrId(2), ValueId(1));
    let q = Query::scan("r")
        .filter(ok())
        .join_on(
            Query::scan("s").filter(okp.clone()),
            [(AttrId(0), AttrId(0))],
        )
        .join_on_rel(
            "s",
            Query::scan("t").filter(okp),
            [(AttrId(0), AttrId(0)), (AttrId(1), AttrId(1))],
        );
    assert_vm_matches_interpreter(&catalog, &q);
}

#[test]
fn cache_discriminates_shapes_and_evicts_lru() {
    let mut catalog = Catalog::new();
    catalog
        .add("r", keyed_relation(&[(0, 0.5), (1, 0.7)], &[2]))
        .unwrap();
    let engine = CatalogEngine::with_config(
        &catalog,
        QueryEngineConfig {
            plan_cache_capacity: 2,
            ..vm_config()
        },
    );
    let q_ok = Query::scan("r").filter(ok());
    let q_no = Query::scan("r").filter(Predicate::eq(AttrId(1), ValueId(0)));
    let q_all = Query::scan("r");
    // Different predicates are different shapes: each plans cold.
    engine.probability(&q_ok).unwrap();
    engine.probability(&q_no).unwrap();
    let stats = engine.plan_cache().stats();
    assert_eq!((stats.hits, stats.misses, stats.len), (0, 2, 2));
    let (_, report) = engine.probability(&q_ok).unwrap();
    assert_eq!(report.route, PlanRoute::CacheHit);
    // A third shape exceeds the capacity of 2 and evicts the least
    // recently used entry (`q_no`), which then misses again.
    engine.probability(&q_all).unwrap();
    let stats = engine.plan_cache().stats();
    assert_eq!((stats.len, stats.evictions), (2, 1));
    let (_, report) = engine.probability(&q_ok).unwrap();
    assert_eq!(report.route, PlanRoute::CacheHit);
    let (_, report) = engine.probability(&q_no).unwrap();
    assert_eq!(report.route, PlanRoute::Compiled);
    // The same shape under a different statistic is a separate entry
    // (which, at capacity, evicts again).
    engine.expected_count(&q_ok).unwrap();
    assert_eq!(engine.plan_cache().stats().evictions, 3);
    let (_, report) = engine.expected_count(&q_ok).unwrap();
    assert_eq!(report.route, PlanRoute::CacheHit);
}

#[test]
fn forced_monte_carlo_bypasses_the_cache() {
    let mut catalog = Catalog::new();
    catalog
        .add("r", keyed_relation(&[(0, 0.5), (1, 0.7)], &[]))
        .unwrap();
    let engine = CatalogEngine::with_config(
        &catalog,
        QueryEngineConfig {
            force_monte_carlo: true,
            mc_samples: 200,
            ..vm_config()
        },
    );
    let q = Query::scan("r").filter(ok());
    for _ in 0..2 {
        let (_, report) = engine.probability(&q).unwrap();
        assert_eq!(report.route, PlanRoute::Uncached);
        assert_eq!(report.plan, PlanClass::ForcedMonteCarlo);
    }
    let stats = engine.plan_cache().stats();
    assert_eq!((stats.hits, stats.misses, stats.len), (0, 0, 0));
}

#[test]
fn uncacheable_statistics_never_touch_the_cache() {
    let mut catalog = Catalog::new();
    catalog.add("r", keyed_relation(&[(0, 0.5)], &[])).unwrap();
    let engine = CatalogEngine::with_config(&catalog, vm_config());
    let q = Query::scan("r").filter(ok());
    for stat in [
        Statistic::CountDistribution,
        Statistic::Marginals,
        Statistic::TopK(1),
        Statistic::ValueMarginal(AttrId(0)),
    ] {
        for _ in 0..2 {
            let (_, report) = engine.evaluate(&q, stat).unwrap();
            assert_eq!(report.route, PlanRoute::Uncached, "{stat:?}");
        }
    }
    let stats = engine.plan_cache().stats();
    assert_eq!((stats.hits, stats.misses, stats.len), (0, 0, 0));
    // The reference interpreter has no cache to touch either.
    let (_, report) = interpreted(&catalog, &q, Statistic::Probability, &vm_config()).unwrap();
    assert_eq!(report.route, PlanRoute::Uncached);
}

#[test]
fn flipped_straddle_guard_invalidates_the_entry() {
    // sensors ⋈ readings is liftable until a sensors block straddles the
    // join key; the data-version guard must catch the flip and replan.
    let schema = Schema::builder()
        .attribute("station", ["s0", "s1", "s2"])
        .attribute("kind", ["indoor", "outdoor"])
        .build()
        .unwrap();
    let mut sensors = ProbDb::new(schema.clone());
    sensors
        .push_block(Block::new(0, vec![alt(vec![0, 0], 0.5), alt(vec![0, 1], 0.5)]).unwrap())
        .unwrap();
    let mut readings = ProbDb::new(schema);
    readings
        .push_block(Block::new(0, vec![alt(vec![0, 0], 0.7), alt(vec![0, 1], 0.3)]).unwrap())
        .unwrap();
    let mut catalog = Catalog::new();
    catalog.add("sensors", sensors).unwrap();
    catalog.add("readings", readings).unwrap();
    let q = Query::scan("sensors").join_on("readings", [(AttrId(0), AttrId(0))]);
    let config = QueryEngineConfig {
        mc_samples: 200,
        ..vm_config()
    };
    let cache = {
        let engine = CatalogEngine::with_config(&catalog, config);
        let (_, report) = engine.probability(&q).unwrap();
        assert_eq!(report.route, PlanRoute::Compiled);
        assert_eq!(report.plan, PlanClass::Liftable);
        engine.plan_cache().clone()
    };
    // The new block's alternatives sit at *different* stations: the
    // station key is now correlated inside the block.
    catalog
        .get_mut("sensors")
        .unwrap()
        .push_block(Block::new(1, vec![alt(vec![1, 1], 0.5), alt(vec![2, 1], 0.5)]).unwrap())
        .unwrap();
    let engine = CatalogEngine::with_plan_cache(&catalog, config, cache.clone());
    let (_, report) = engine.probability(&q).unwrap();
    assert_eq!(report.route, PlanRoute::Compiled);
    assert_eq!(report.path, EvalPath::MonteCarlo);
    assert_eq!(report.plan, PlanClass::KeyCorrelated);
    assert_eq!(cache.stats().invalidations, 1);
    // The replanned (sampled) verdict is itself cached.
    let (_, report) = engine.probability(&q).unwrap();
    assert_eq!(report.route, PlanRoute::CacheHit);
    assert_eq!(report.plan, PlanClass::KeyCorrelated);
}

#[test]
fn warm_monte_carlo_path_still_rejects_zero_samples() {
    let catalog = chain_catalog([0.6, 0.5], [0.7, 0.4, 0.5], [0.8, 0.3]);
    let q = chain_query();
    let cache = {
        let engine = CatalogEngine::with_config(&catalog, vm_config());
        // The chain's probability verdict is Monte Carlo; cache it.
        let (_, report) = engine.probability(&q).unwrap();
        assert_eq!(report.path, EvalPath::MonteCarlo);
        engine.plan_cache().clone()
    };
    let engine = CatalogEngine::with_plan_cache(
        &catalog,
        QueryEngineConfig {
            mc_samples: 0,
            ..vm_config()
        },
        cache,
    );
    let e = engine.probability(&q);
    assert!(matches!(e, Err(ProbDbError::NoSamples)), "{e:?}");
}
