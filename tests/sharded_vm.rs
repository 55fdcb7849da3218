//! Thread-count and register-patching suite.
//!
//! The VM must be **bit-identical** — not epsilon-close — to the
//! reference interpreter at every rayon pool size, cold and warm, for
//! `Probability`, `ProbabilityBounds` and `ExpectedCount`. The query
//! engine spawns no threads and reads no pool size (every fold, bracket
//! candidate, register bind and mass table runs on the caller's thread),
//! so the pool sizes here guard against a fan-out creeping back in with
//! a different evaluation order. Incremental register
//! maintenance must merge in only the rows an append wrote, whatever key
//! they carry and whichever attribute the join reads, rebind after a mass
//! update, leave the cache entry valid, and still produce the exact bits
//! a fresh bind would.

use mrsl_repro::probdb::testutil::interpreted;
use mrsl_repro::probdb::{
    Alternative, Block, Catalog, CatalogEngine, PlanRoute, Predicate, ProbDb, Query, QueryAnswer,
    QueryEngineConfig, Statistic,
};
use mrsl_repro::relation::{AttrId, CompleteTuple, Schema, ValueId};
use proptest::prelude::*;

fn alt(values: Vec<u16>, prob: f64) -> Alternative {
    Alternative {
        tuple: CompleteTuple::from_values(values),
        prob,
    }
}

/// VM under test. Brackets are never refined so bounds stay
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

/// Evaluates one statistic: the answer bits plus the report's route.
fn eval_bits(engine: &CatalogEngine, q: &Query, stat: Statistic) -> (Vec<u64>, PlanRoute) {
    let (answer, report) = engine.evaluate(q, stat).expect("evaluates");
    (answer_bits(answer), report.route)
}

/// The reference interpreter's answer bits under `config`.
fn interp_bits(
    catalog: &Catalog,
    q: &Query,
    stat: Statistic,
    config: &QueryEngineConfig,
) -> Vec<u64> {
    let (answer, _) = interpreted(catalog, q, stat, config).expect("interprets");
    answer_bits(answer)
}

const STATS: [Statistic; 3] = [
    Statistic::Probability,
    Statistic::ProbabilityBounds,
    Statistic::ExpectedCount,
];

const THREADS: [usize; 3] = [1, 2, 8];

fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("pool builds")
        .install(f)
}

/// Asserts that every pool size reproduces the interpreter's bits
/// exactly under `config`, cold and warm.
fn assert_matches_interpreter(catalog: &Catalog, q: &Query, config: QueryEngineConfig) {
    let reference: Vec<Vec<u64>> = STATS
        .iter()
        .map(|&stat| interp_bits(catalog, q, stat, &config))
        .collect();
    for threads in THREADS {
        with_threads(threads, || {
            let vm = CatalogEngine::with_config(catalog, config);
            for (i, &stat) in STATS.iter().enumerate() {
                let (cold, route) = eval_bits(&vm, q, stat);
                assert_eq!(route, PlanRoute::Compiled, "{stat:?}");
                assert_eq!(
                    reference[i], cold,
                    "cold diverges on {stat:?} at {threads} threads"
                );
                let (warm, route) = eval_bits(&vm, q, stat);
                assert_eq!(route, PlanRoute::CacheHit, "{stat:?}");
                assert_eq!(
                    reference[i], warm,
                    "warm diverges on {stat:?} at {threads} threads"
                );
            }
        });
    }
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

/// The unsafe chain `R(x), S(x,y), T(y)` with key-unique blocks — the
/// dissociable fixture whose bounds programs exercise the replicated
/// roots and both mass transforms.
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
    prop::collection::vec((0u16..3, arb_prob()), 1..6)
}

fn arb_probs2() -> impl Strategy<Value = [f64; 2]> {
    (arb_prob(), arb_prob()).prop_map(|(a, b)| [a, b])
}

fn arb_probs3() -> impl Strategy<Value = [f64; 3]> {
    (arb_prob(), arb_prob(), arb_prob()).prop_map(|(a, b, c)| [a, b, c])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Hierarchical keyed joins: the root partition fold must reproduce
    /// the interpreter's bits at every pool size on all three statistics.
    #[test]
    fn sharded_hierarchical_joins_are_bit_identical(
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
        assert_matches_interpreter(&catalog, &q, vm_config());
    }

    /// Dissociable chains: the bracket (both candidate programs, fanned
    /// out over the pool, with replicated-branch counting) and the
    /// mass-table join must reproduce the interpreter bits exactly.
    #[test]
    fn sharded_dissociation_brackets_are_bit_identical(
        (rp, sp, tp) in (arb_probs2(), arb_probs3(), arb_probs2())
    ) {
        let catalog = chain_catalog(rp, sp, tp);
        assert_matches_interpreter(&catalog, &chain_query(), vm_config());
    }
}

/// `r(k, ok)` over a 256-value key domain: `blocks` blocks spread
/// round-robin over the keys with small, varied presence probabilities
/// (so the join probability stays far from 1), plus a few certain rows.
fn wide_keyed_relation(blocks: usize, salt: usize) -> ProbDb {
    const KEYS: usize = 256;
    let schema = Schema::builder()
        .attribute("k", (0..KEYS).map(|k| format!("k{k}")))
        .attribute("ok", ["no", "yes"])
        .build()
        .unwrap();
    let mut db = ProbDb::new(schema);
    for i in 0..3 {
        let k = ((salt + 97 * i) % KEYS) as u16;
        db.push_certain(CompleteTuple::from_values(vec![k, 1]))
            .unwrap();
    }
    for i in 0..blocks {
        let k = ((i * 7 + salt) % KEYS) as u16;
        let p = (1 + (i * 37 + salt) % 19) as f64 / 10_000.0;
        db.push_block(Block::new(i, vec![alt(vec![k, 0], 1.0 - p), alt(vec![k, 1], p)]).unwrap())
            .unwrap();
    }
    db
}

/// A keyed join whose root binding spans more than 4,096 rows per term,
/// on the default config: the proptests' catalogs are tiny, so this is
/// the one fold large enough for any size-gated parallel split to kick
/// in. Every pool size must reproduce the interpreter's bits, cold and
/// warm.
#[test]
fn large_default_config_joins_are_bit_identical() {
    let mut catalog = Catalog::new();
    catalog.add("left", wide_keyed_relation(4_500, 1)).unwrap();
    catalog.add("right", wide_keyed_relation(4_500, 5)).unwrap();
    let q = Query::scan("left")
        .filter(ok())
        .join_on(Query::scan("right").filter(ok()), [(AttrId(0), AttrId(0))]);
    let (answer, _) = interpreted(
        &catalog,
        &q,
        Statistic::Probability,
        &QueryEngineConfig::default(),
    )
    .expect("interprets");
    let QueryAnswer::Probability { p, .. } = answer else {
        panic!("unexpected answer: {answer:?}");
    };
    assert!(p > 0.01 && p < 0.99, "fixture saturates: p = {p}");
    assert_matches_interpreter(&catalog, &q, QueryEngineConfig::default());
}

/// A one-block append merges the new block into the written term's
/// registers and mass tables: the cache entry survives (no
/// invalidation), the untouched term is reused verbatim, nothing
/// rebinds, and the merged registers produce exactly the bits a fresh
/// bind over the mutated catalog produces — for the probability and the
/// expected count, joined on the leading attribute or on a later one.
#[test]
fn upserts_append_only_the_written_term() {
    let mut catalog = Catalog::new();
    catalog
        .add(
            "left",
            keyed_relation(&[(0, 0.3), (1, 0.6), (2, 0.8), (0, 0.4)], &[1]),
        )
        .unwrap();
    catalog
        .add("right", keyed_relation(&[(0, 0.5), (2, 0.7)], &[0]))
        .unwrap();
    let on_key = Query::scan("left")
        .filter(ok())
        .join_on(Query::scan("right").filter(ok()), [(AttrId(0), AttrId(0))]);
    // `ok` is attribute 1: every live row has `ok = yes`, so this join on
    // a non-leading attribute keeps the key guard and stays exact.
    let on_ok = Query::scan("left")
        .filter(ok())
        .join_on(Query::scan("right").filter(ok()), [(AttrId(1), AttrId(1))]);
    let shapes = [
        (&on_key, Statistic::Probability),
        (&on_key, Statistic::ExpectedCount),
        (&on_ok, Statistic::Probability),
        (&on_ok, Statistic::ExpectedCount),
    ];
    let cache = {
        let engine = CatalogEngine::with_config(&catalog, vm_config());
        for (q, stat) in shapes {
            // The cold miss memoizes the registers the append below
            // extends; the hit confirms the entry is warm.
            assert_eq!(eval_bits(&engine, q, stat).1, PlanRoute::Compiled);
            assert_eq!(eval_bits(&engine, q, stat).1, PlanRoute::CacheHit);
        }
        engine.plan_cache().clone()
    };
    let base = cache.stats();
    // Append one block at key 2 to `left`; `right` is untouched.
    catalog
        .get_mut("left")
        .unwrap()
        .push_block(Block::new(4, vec![alt(vec![2, 0], 0.45), alt(vec![2, 1], 0.55)]).unwrap())
        .unwrap();
    let warm = CatalogEngine::with_plan_cache(&catalog, vm_config(), cache.clone());
    let fresh = CatalogEngine::with_config(&catalog, vm_config());
    for (q, stat) in shapes {
        let (wbits, wroute) = eval_bits(&warm, q, stat);
        assert_eq!(wroute, PlanRoute::CacheHit, "{stat:?}");
        let (fbits, _) = eval_bits(&fresh, q, stat);
        assert_eq!(wbits, fbits, "merged registers diverge from a fresh bind");
        let ibits = interp_bits(&catalog, q, stat, &vm_config());
        assert_eq!(
            wbits, ibits,
            "merged registers diverge from the interpreter"
        );
    }
    let stats = cache.stats();
    assert_eq!(stats.invalidations, 0, "{stats:?}");
    assert_eq!(
        stats.reg_patches - base.reg_patches,
        4,
        "only `left` should be appended to, once per shape: {stats:?}"
    );
    assert_eq!(
        stats.reg_rebinds, base.reg_rebinds,
        "no term should fully rebind: {stats:?}"
    );
}

/// Appends touching every key still merge in; a mass update, which may
/// move any entry's mass, falls back to a full rebind — still without
/// invalidating the entry — and stays bit-identical.
#[test]
fn mass_updates_fall_back_to_rebind() {
    let mut catalog = Catalog::new();
    catalog
        .add("left", keyed_relation(&[(0, 0.3), (1, 0.6), (2, 0.8)], &[]))
        .unwrap();
    catalog
        .add(
            "right",
            keyed_relation(&[(0, 0.5), (1, 0.7), (2, 0.2)], &[]),
        )
        .unwrap();
    let q = Query::scan("left")
        .filter(ok())
        .join_on(Query::scan("right").filter(ok()), [(AttrId(0), AttrId(0))]);
    let cache = {
        let engine = CatalogEngine::with_config(&catalog, vm_config());
        for stat in [Statistic::Probability, Statistic::ExpectedCount] {
            eval_bits(&engine, &q, stat);
            eval_bits(&engine, &q, stat);
        }
        engine.plan_cache().clone()
    };
    let check = |catalog: &Catalog| {
        let warm = CatalogEngine::with_plan_cache(catalog, vm_config(), cache.clone());
        for stat in [Statistic::Probability, Statistic::ExpectedCount] {
            let (wbits, wroute) = eval_bits(&warm, &q, stat);
            assert_eq!(wroute, PlanRoute::CacheHit);
            assert_eq!(wbits, interp_bits(catalog, &q, stat, &vm_config()));
        }
    };
    // Touch every key once: the whole key domain moves, and it is still
    // an append.
    let base = cache.stats();
    let left = catalog.get_mut("left").unwrap();
    for (i, k) in [(3usize, 0u16), (4, 1), (5, 2)] {
        left.push_block(Block::new(i, vec![alt(vec![k, 0], 0.5), alt(vec![k, 1], 0.5)]).unwrap())
            .unwrap();
    }
    check(&catalog);
    let stats = cache.stats();
    assert_eq!(stats.reg_patches - base.reg_patches, 2, "{stats:?}");
    assert_eq!(stats.reg_rebinds, base.reg_rebinds, "{stats:?}");
    // New masses for the first block: both shapes rebind `left`.
    let base = stats;
    catalog
        .get_mut("left")
        .unwrap()
        .set_block_masses(0, &[0.9, 0.1])
        .unwrap();
    check(&catalog);
    let stats = cache.stats();
    assert_eq!(stats.invalidations, 0, "{stats:?}");
    assert_eq!(stats.reg_patches, base.reg_patches, "{stats:?}");
    assert_eq!(stats.reg_rebinds - base.reg_rebinds, 2, "{stats:?}");
}
