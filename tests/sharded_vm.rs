//! Sharded parallel-execution suite.
//!
//! The sharded fold must be **bit-identical** — not epsilon-close — to
//! the sequential VM and to the reference interpreter at every thread
//! count and every shard count, for `Probability`, `ProbabilityBounds`
//! and `ExpectedCount`. Incremental register maintenance must patch only
//! the shards an upsert touched, leave the cache entry valid, and still
//! produce the exact bits a fresh bind would.

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

/// VM under test at an explicit shard count (`0` = auto). Brackets are
/// never refined so bounds stay deterministic.
fn vm_config(shards: usize) -> QueryEngineConfig {
    QueryEngineConfig {
        bounds_tolerance: 1.0,
        shards,
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

/// The reference interpreter's answer bits (brackets never refined).
fn interp_bits(catalog: &Catalog, q: &Query, stat: Statistic) -> Vec<u64> {
    let (answer, _) = interpreted(catalog, q, stat, &vm_config(0)).expect("interprets");
    answer_bits(answer)
}

const STATS: [Statistic; 3] = [
    Statistic::Probability,
    Statistic::ProbabilityBounds,
    Statistic::ExpectedCount,
];

const THREADS: [usize; 3] = [1, 2, 8];
const SHARDS: [usize; 3] = [1, 4, 16];

fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("pool builds")
        .install(f)
}

/// Asserts that every (threads × shards) combination reproduces the
/// interpreter's bits exactly, cold and warm.
fn assert_sharded_matches_interpreter(catalog: &Catalog, q: &Query) {
    let reference: Vec<Vec<u64>> = STATS
        .iter()
        .map(|&stat| interp_bits(catalog, q, stat))
        .collect();
    for threads in THREADS {
        for shards in SHARDS {
            with_threads(threads, || {
                let vm = CatalogEngine::with_config(catalog, vm_config(shards));
                for (i, &stat) in STATS.iter().enumerate() {
                    let (cold, _) = eval_bits(&vm, q, stat);
                    assert_eq!(
                        reference[i], cold,
                        "cold diverges on {stat:?} at {threads} threads x {shards} shards"
                    );
                    let (warm, route) = eval_bits(&vm, q, stat);
                    assert_eq!(route, PlanRoute::CacheHit, "{stat:?}");
                    assert_eq!(
                        reference[i], warm,
                        "warm diverges on {stat:?} at {threads} threads x {shards} shards"
                    );
                }
            });
        }
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

    /// Hierarchical keyed joins: the partition fold is the sharded root,
    /// so every thread/shard combination must reproduce the sequential
    /// bits on all three statistics.
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
        assert_sharded_matches_interpreter(&catalog, &q);
    }

    /// Dissociable chains: the sharded bracket (both candidate programs,
    /// replicated-branch counting split across shards) and the chunked
    /// mass-table join must reproduce the interpreter bits exactly.
    #[test]
    fn sharded_dissociation_brackets_are_bit_identical(
        (rp, sp, tp) in (arb_probs2(), arb_probs3(), arb_probs2())
    ) {
        let catalog = chain_catalog(rp, sp, tp);
        assert_sharded_matches_interpreter(&catalog, &chain_query());
    }
}

/// An upsert into one key range patches that shard's register columns in
/// place: the cache entry survives (no invalidation), untouched terms and
/// shards are reused verbatim, and the patched registers produce exactly
/// the bits a fresh bind over the mutated catalog produces.
#[test]
fn upserts_patch_only_the_touched_shard() {
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
    let q = Query::scan("left")
        .filter(ok())
        .join_on(Query::scan("right").filter(ok()), [(AttrId(0), AttrId(0))]);
    let cache = {
        let engine = CatalogEngine::with_config(&catalog, vm_config(4));
        let (_, route) = eval_bits(&engine, &q, Statistic::Probability);
        assert_eq!(route, PlanRoute::Compiled);
        // The cold miss memoized the registers the upsert below patches;
        // the hit confirms the entry is warm.
        let (_, route) = eval_bits(&engine, &q, Statistic::Probability);
        assert_eq!(route, PlanRoute::CacheHit);
        engine.plan_cache().clone()
    };
    let base = cache.stats();
    // Upsert one block at key 2: only that key's shard moves in `left`;
    // `right` is untouched.
    catalog
        .get_mut("left")
        .unwrap()
        .push_block(Block::new(4, vec![alt(vec![2, 0], 0.45), alt(vec![2, 1], 0.55)]).unwrap())
        .unwrap();
    let warm = CatalogEngine::with_plan_cache(&catalog, vm_config(4), cache.clone());
    let (wbits, wroute) = eval_bits(&warm, &q, Statistic::Probability);
    assert_eq!(wroute, PlanRoute::CacheHit);
    // Fresh bind over the mutated catalog — the patched registers must
    // reproduce it bit-for-bit.
    let fresh = CatalogEngine::with_config(&catalog, vm_config(4));
    let (fbits, _) = eval_bits(&fresh, &q, Statistic::Probability);
    assert_eq!(wbits, fbits, "patched registers diverge from a fresh bind");
    let ibits = interp_bits(&catalog, &q, Statistic::Probability);
    assert_eq!(
        wbits, ibits,
        "patched registers diverge from the interpreter"
    );
    let stats = cache.stats();
    assert_eq!(stats.invalidations, 0, "{stats:?}");
    assert_eq!(
        stats.reg_patches - base.reg_patches,
        1,
        "only `left` should be patched: {stats:?}"
    );
    assert_eq!(
        stats.reg_rebinds, base.reg_rebinds,
        "no term should fully rebind: {stats:?}"
    );
}

/// A mutation that dirties every populated shard of a term (or reshapes
/// the whole key domain) falls back to a full rebind — still without
/// invalidating the entry — and stays bit-identical.
#[test]
fn whole_domain_mutations_fall_back_to_rebind() {
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
        let engine = CatalogEngine::with_config(&catalog, vm_config(4));
        eval_bits(&engine, &q, Statistic::Probability);
        eval_bits(&engine, &q, Statistic::Probability);
        engine.plan_cache().clone()
    };
    let base = cache.stats();
    // Touch every key once: all populated shards move.
    let left = catalog.get_mut("left").unwrap();
    for (i, k) in [(3usize, 0u16), (4, 1), (5, 2)] {
        left.push_block(Block::new(i, vec![alt(vec![k, 0], 0.5), alt(vec![k, 1], 0.5)]).unwrap())
            .unwrap();
    }
    let warm = CatalogEngine::with_plan_cache(&catalog, vm_config(4), cache.clone());
    let (wbits, wroute) = eval_bits(&warm, &q, Statistic::Probability);
    assert_eq!(wroute, PlanRoute::CacheHit);
    let ibits = interp_bits(&catalog, &q, Statistic::Probability);
    assert_eq!(wbits, ibits);
    let stats = cache.stats();
    assert_eq!(stats.invalidations, 0, "{stats:?}");
    assert!(stats.reg_rebinds > base.reg_rebinds, "{stats:?}");
}
