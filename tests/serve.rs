//! Serving-layer suite: snapshot isolation, generation lifecycle, and
//! bit-identity of the served path.
//!
//! The server adds scheduling — a queue, a pool, snapshot pinning — but
//! must add **no numerics**: an answer served through [`ProbDbServer`]
//! has to reproduce, bit for bit, what a direct [`CatalogEngine`] over
//! the same catalog generation produces (which the VM suites in turn pin
//! to the reference interpreter). Publication must be atomic: readers
//! never observe a torn catalog, warm register memos patched across a
//! generation swap answer exactly like a cold bind, and a writer that
//! dies mid-build changes nothing.

use mrsl_repro::probdb::serve::{ProbDbServer, ServeConfig, ServerHandle};
use mrsl_repro::probdb::testutil::interpreted;
use mrsl_repro::probdb::{
    Alternative, Block, Catalog, CatalogEngine, PlanRoute, Predicate, ProbDb, ProbDbError, Query,
    QueryAnswer, QueryEngineConfig, Statistic, SEGMENT_LEN,
};
use mrsl_repro::relation::{AttrId, CompleteTuple, Schema, ValueId};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn alt(values: Vec<u16>, prob: f64) -> Alternative {
    Alternative {
        tuple: CompleteTuple::from_values(values),
        prob,
    }
}

/// VM configuration: brackets are never refined, so bounds stay
/// deterministic.
fn vm_config() -> QueryEngineConfig {
    QueryEngineConfig {
        bounds_tolerance: 1.0,
        ..QueryEngineConfig::default()
    }
}

fn serve_config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        engine: vm_config(),
        ..ServeConfig::default()
    }
}

/// Overload-suite configuration: every evaluation forced onto the Monte
/// Carlo path with an explicit sample count, so "how long a request
/// holds a worker" is a dial the tests control.
fn overload_config(workers: usize, max_queue_depth: usize, mc_samples: usize) -> ServeConfig {
    ServeConfig {
        workers,
        max_queue_depth,
        engine: QueryEngineConfig {
            force_monte_carlo: true,
            mc_samples,
            bounds_tolerance: 1.0,
            ..QueryEngineConfig::default()
        },
    }
}

/// Polls `done` every few milliseconds until it holds or `patience`
/// runs out; returns the final observation.
fn eventually(patience: Duration, done: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < patience {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    done()
}

/// Raw bit payload of an answer, so comparisons are exact by
/// construction.
fn answer_bits(answer: &QueryAnswer) -> Vec<u64> {
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

fn direct_bits(engine: &CatalogEngine, q: &Query, stat: Statistic) -> Vec<u64> {
    let (answer, _) = engine.evaluate(q, stat).expect("direct evaluation");
    answer_bits(&answer)
}

/// The reference interpreter's answer bits (brackets never refined).
fn interp_bits(catalog: &Catalog, q: &Query, stat: Statistic) -> Vec<u64> {
    let (answer, _) = interpreted(catalog, q, stat, &vm_config()).expect("interprets");
    answer_bits(&answer)
}

fn served_bits(handle: &ServerHandle, q: &Query, stat: Statistic) -> (Vec<u64>, PlanRoute) {
    let served = handle.evaluate(q, stat).expect("served evaluation");
    (answer_bits(&served.answer), served.report.route)
}

const STATS: [Statistic; 3] = [
    Statistic::Probability,
    Statistic::ProbabilityBounds,
    Statistic::ExpectedCount,
];

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

fn join_query() -> Query {
    Query::scan("left")
        .filter(ok())
        .join_on(Query::scan("right").filter(ok()), [(AttrId(0), AttrId(0))])
}

fn join_catalog(lb: &[(u16, f64)], rb: &[(u16, f64)]) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.add("left", keyed_relation(lb, &[1])).unwrap();
    catalog.add("right", keyed_relation(rb, &[0])).unwrap();
    catalog
}

/// The unsafe chain `R(x), S(x,y), T(y)` — the dissociable fixture whose
/// bounds programs exercise replicated roots and both mass transforms.
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

/// Asserts the served path reproduces the reference interpreter bits for
/// every statistic, cold and warm, across pool sizes.
fn assert_served_matches_direct(catalog: &Catalog, q: &Query) {
    let reference: Vec<Vec<u64>> = STATS
        .iter()
        .map(|&stat| interp_bits(catalog, q, stat))
        .collect();
    for workers in [1, 4] {
        let server = ProbDbServer::with_config(catalog.clone(), serve_config(workers));
        let handle = server.handle();
        for (i, &stat) in STATS.iter().enumerate() {
            let (cold, _) = served_bits(&handle, q, stat);
            assert_eq!(
                reference[i], cold,
                "served cold diverges on {stat:?} at {workers} workers"
            );
            let (warm, route) = served_bits(&handle, q, stat);
            assert_eq!(route, PlanRoute::CacheHit, "{stat:?}");
            assert_eq!(
                reference[i], warm,
                "served warm diverges on {stat:?} at {workers} workers"
            );
        }
        server.shutdown();
    }
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
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Acceptance criterion: the snapshot path equals the direct
    /// `CatalogEngine` path (and therefore the interpreter) bit for bit
    /// on safe hierarchical joins.
    #[test]
    fn served_joins_are_bit_identical(
        (lb, rb) in (arb_keyed_blocks(), arb_keyed_blocks())
    ) {
        let catalog = join_catalog(&lb, &rb);
        assert_served_matches_direct(&catalog, &join_query());
    }

    /// Same for dissociable chains: served bounds brackets reproduce the
    /// interpreter bits exactly.
    #[test]
    fn served_dissociation_brackets_are_bit_identical(
        (rp, sp, tp) in (arb_probs2(), arb_probs3(), arb_probs2())
    ) {
        let catalog = chain_catalog(rp, sp, tp);
        assert_served_matches_direct(&catalog, &chain_query());
    }
}

/// Readers racing a publishing writer always observe a fully consistent
/// generation: the lockstep invariant (both relations grow together)
/// holds in every pinned snapshot, and every served answer matches the
/// generation it is stamped with.
#[test]
fn concurrent_readers_never_see_a_torn_catalog() {
    const PUBLISHES: u64 = 24;
    const READERS: usize = 4;
    let schema = Schema::builder()
        .attribute("k", ["k0", "k1", "k2"])
        .attribute("ok", ["no", "yes"])
        .build()
        .unwrap();
    let mut catalog = Catalog::new();
    for name in ["a", "b"] {
        let mut db = ProbDb::new(schema.clone());
        db.push_certain(CompleteTuple::from_values(vec![0, 1]))
            .unwrap();
        catalog.add(name, db).unwrap();
    }
    let server = ProbDbServer::with_config(catalog, serve_config(READERS));
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for i in 0..PUBLISHES {
                server.update(|catalog| {
                    // Lockstep: one certain row into *both* relations per
                    // generation. A torn publish would break a == b.
                    for name in ["a", "b"] {
                        catalog
                            .get_mut(name)
                            .unwrap()
                            .push_certain(CompleteTuple::from_values(vec![(i % 3) as u16, 1]))
                            .unwrap();
                    }
                });
            }
        });
        for _ in 0..READERS {
            scope.spawn(|| {
                let handle = server.handle();
                let mut last_generation = 0;
                loop {
                    // Pinned snapshots are internally consistent.
                    let snap = handle.snapshot();
                    let a = snap.catalog().get("a").unwrap().certain().len();
                    let b = snap.catalog().get("b").unwrap().certain().len();
                    assert_eq!(a, b, "torn catalog at generation {}", snap.generation());
                    assert_eq!(a as u64, 1 + snap.generation());
                    // Served answers match the generation they are
                    // stamped with: generation g has 1 + g certain rows.
                    let served = handle
                        .evaluate(&Query::scan("a"), Statistic::ExpectedCount)
                        .unwrap();
                    let QueryAnswer::Count { mean, .. } = served.answer else {
                        panic!("expected a count");
                    };
                    assert_eq!(mean, (1 + served.generation) as f64);
                    // Generations never run backwards for a client.
                    assert!(served.generation >= last_generation);
                    last_generation = served.generation;
                    if served.generation == PUBLISHES {
                        return;
                    }
                }
            });
        }
    });
    assert_eq!(server.stats().publishes, PUBLISHES);
    server.shutdown();
}

/// Warm register memos survive a generation swap: the publish leaves
/// untouched relations shared (same `Arc`, same stamps), the touched
/// relation's memo has the appended rows merged in rather than being
/// rebuilt, and the warm served answer is bit-identical to a cold bind
/// over the new generation.
#[test]
fn warm_memos_patched_across_generations_match_cold_bind() {
    let catalog = join_catalog(
        &[(0, 0.3), (1, 0.6), (2, 0.8), (0, 0.4)],
        &[(0, 0.5), (2, 0.7)],
    );
    let q = join_query();
    let server = ProbDbServer::with_config(catalog, serve_config(2));
    let handle = server.handle();
    // Cold compile (which memoizes the registers), then a warm hit.
    let (_, route) = served_bits(&handle, &q, Statistic::Probability);
    assert_eq!(route, PlanRoute::Compiled);
    let (_, route) = served_bits(&handle, &q, Statistic::Probability);
    assert_eq!(route, PlanRoute::CacheHit);
    let before = server.snapshot();
    let stats_before = server.stats().plan_cache;

    // Publish generation 1: one block upserted into `left` at key 2.
    server.update(|catalog| {
        catalog
            .get_mut("left")
            .unwrap()
            .push_block(Block::new(4, vec![alt(vec![2, 0], 0.45), alt(vec![2, 1], 0.55)]).unwrap())
            .unwrap();
    });
    let after = server.snapshot();
    // COW held: `right` is the same object across generations (stamps
    // included), `left` diverged.
    assert!(Arc::ptr_eq(
        &before.catalog().get_shared("right").unwrap(),
        &after.catalog().get_shared("right").unwrap()
    ));
    assert!(!Arc::ptr_eq(
        &before.catalog().get_shared("left").unwrap(),
        &after.catalog().get_shared("left").unwrap()
    ));

    // The warm serve over generation 1 still hits the cached plan, and
    // merges the appended block into (not rebuilds) the memoized
    // registers.
    let (warm, route) = served_bits(&handle, &q, Statistic::Probability);
    assert_eq!(route, PlanRoute::CacheHit);
    let stats_after = server.stats().plan_cache;
    assert_eq!(stats_after.invalidations, stats_before.invalidations);
    assert_eq!(
        stats_after.reg_patches - stats_before.reg_patches,
        1,
        "only `left` should be patched"
    );
    assert_eq!(stats_after.reg_rebinds, stats_before.reg_rebinds);

    // Bit-identity: patched-warm == cold bind == interpreter, all over
    // the published generation-1 catalog.
    let generation_1 = after.catalog();
    let cold = direct_bits(
        &CatalogEngine::with_config(generation_1, vm_config()),
        &q,
        Statistic::Probability,
    );
    assert_eq!(warm, cold, "patched warm serve diverges from a cold bind");
    let interp = interp_bits(generation_1, &q, Statistic::Probability);
    assert_eq!(warm, interp);
    server.shutdown();
}

/// A one-block publish copies only the relation it touches: generation
/// g + 1 holds the very same untouched relation object as generation g,
/// the touched one gains exactly the pushed block, and generation g still
/// answers bit-identically.
#[test]
fn one_block_publish_copies_only_the_touched_relation() {
    let rows = 3 * SEGMENT_LEN + 7;
    let blocks: Vec<(u16, f64)> = (0..rows)
        .map(|i| ((i % 3) as u16, 0.1 + 0.8 * (i % 7) as f64 / 7.0))
        .collect();
    let certain: Vec<u16> = (0..SEGMENT_LEN as u16 + 1).map(|i| i % 3).collect();
    let mut catalog = Catalog::new();
    catalog
        .add("sensors", keyed_relation(&blocks, &certain))
        .unwrap();
    catalog
        .add("readings", keyed_relation(&[(0, 0.5), (2, 0.7)], &[]))
        .unwrap();
    let q = Query::scan("sensors").filter(ok()).join_on(
        Query::scan("readings").filter(ok()),
        [(AttrId(0), AttrId(0))],
    );
    let answers = |catalog: &Catalog| -> Vec<Vec<u64>> {
        let engine = CatalogEngine::with_config(catalog, vm_config());
        STATS
            .iter()
            .map(|&stat| direct_bits(&engine, &q, stat))
            .collect()
    };
    let server = ProbDbServer::with_config(catalog, serve_config(2));
    let handle = server.handle();
    served_bits(&handle, &q, Statistic::ExpectedCount);

    let g = server.snapshot();
    let g_answers = answers(g.catalog());
    let pushed = Block::new(rows, vec![alt(vec![2, 0], 0.45), alt(vec![2, 1], 0.55)]).unwrap();
    let (next, ()) = server.update(|catalog| {
        catalog
            .get_mut("sensors")
            .unwrap()
            .push_block(pushed.clone())
            .unwrap();
    });
    let g1 = server.snapshot();
    assert_eq!(next, g.generation() + 1);
    assert_eq!(g1.generation(), next);

    let (old, new) = (
        g.catalog().get("sensors").unwrap(),
        g1.catalog().get("sensors").unwrap(),
    );
    assert_eq!(new.blocks().len(), old.blocks().len() + 1);
    let last = new.block(rows);
    assert_eq!(last.key(), pushed.key());
    assert_eq!(last.len(), pushed.len());
    assert!(
        new.certain().eq(old.certain()),
        "certain tuples were not touched"
    );
    assert_eq!(
        old.blocks().len(),
        rows,
        "the published relation kept its rows"
    );
    // The untouched relation is the very same object.
    assert!(Arc::ptr_eq(
        &g.catalog().get_shared("readings").unwrap(),
        &g1.catalog().get_shared("readings").unwrap()
    ));

    // Serve the new generation (patching warm registers), then check that
    // the old generation's answers did not move a bit.
    let (served, _) = served_bits(&handle, &q, Statistic::ExpectedCount);
    assert_eq!(served, answers(g1.catalog())[2]);
    assert_ne!(served, g_answers[2], "the publish changed the answer");
    assert_eq!(answers(g.catalog()), g_answers);
    server.shutdown();
}

/// A writer that panics mid-build publishes nothing: the served snapshot
/// is untouched, and the server (including its writer lock) keeps
/// working.
#[test]
fn writer_crash_mid_build_leaves_the_published_snapshot_untouched() {
    let catalog = join_catalog(&[(0, 0.3), (1, 0.6)], &[(0, 0.5)]);
    let q = join_query();
    let server = ProbDbServer::with_config(catalog, serve_config(2));
    let handle = server.handle();
    let (reference, _) = served_bits(&handle, &q, Statistic::Probability);
    let rows_before = server
        .snapshot()
        .catalog()
        .get("left")
        .unwrap()
        .certain()
        .len();

    let crash = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        server.update(|catalog| {
            catalog
                .get_mut("left")
                .unwrap()
                .push_certain(CompleteTuple::from_values(vec![0, 1]))
                .unwrap();
            panic!("writer dies mid-build");
        });
    }));
    assert!(crash.is_err());

    // Nothing published, nothing mutated, nothing counted.
    assert_eq!(server.generation(), 0);
    assert_eq!(server.stats().publishes, 0);
    assert_eq!(
        server
            .snapshot()
            .catalog()
            .get("left")
            .unwrap()
            .certain()
            .len(),
        rows_before
    );
    let (bits, _) = served_bits(&handle, &q, Statistic::Probability);
    assert_eq!(bits, reference);
    // The writer lock recovered: the next update publishes generation 1.
    let (generation, ()) = server.update(|_| ());
    assert_eq!(generation, 1);
    server.shutdown();
}

/// Many clients hammering one query shape share the plan cache: every
/// answer is bit-identical, the shape compiles at most once per
/// statistic, and queue accounting returns to zero.
#[test]
fn concurrent_clients_share_the_plan_cache() {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 10;
    let catalog = chain_catalog([0.3, 0.7], [0.2, 0.5, 0.8], [0.6, 0.4]);
    let q = chain_query();
    let reference = interp_bits(&catalog, &q, Statistic::ProbabilityBounds);
    let server = ProbDbServer::with_config(catalog, serve_config(4));
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let handle = server.handle();
            let q = q.clone();
            let reference = reference.clone();
            scope.spawn(move || {
                for _ in 0..ROUNDS {
                    let (bits, _) = served_bits(&handle, &q, Statistic::ProbabilityBounds);
                    assert_eq!(bits, reference);
                }
            });
        }
    });
    let stats = server.stats();
    assert_eq!(stats.queries, (CLIENTS * ROUNDS) as u64);
    assert_eq!(
        stats.exact + stats.monte_carlo + stats.hybrid,
        stats.queries
    );
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.queue_depth, 0);
    // 80 answers, one shape: all but the cold compile are warm hits.
    assert!(
        stats.cache_hits >= (CLIENTS * ROUNDS - CLIENTS) as u64,
        "{stats:?}"
    );
    assert_eq!(stats.plan_cache.len, 1);
    server.shutdown();
}

/// Submissions queued before a shutdown drain; submissions after it fail
/// with the typed error — and pending tickets never hang.
#[test]
fn shutdown_drains_queued_work_then_rejects() {
    let catalog = join_catalog(&[(0, 0.5), (1, 0.5)], &[(0, 0.5), (1, 0.25)]);
    let q = join_query();
    let server = ProbDbServer::with_config(catalog, serve_config(1));
    let handle = server.handle();
    let tickets: Vec<_> = (0..16)
        .map(|_| {
            handle
                .submit(q.clone(), Statistic::Probability)
                .expect("unbounded queue admits")
        })
        .collect();
    server.shutdown();
    for ticket in tickets {
        let served = ticket.wait().expect("queued before shutdown: drains");
        assert!(matches!(served.answer, QueryAnswer::Probability { .. }));
    }
    assert_eq!(
        handle.evaluate(&q, Statistic::Probability).unwrap_err(),
        ProbDbError::ServerUnavailable
    );
    assert_eq!(handle.stats().queue_depth, 0);
}

// ---------------------------------------------------------------------
// Overload & degradation suite: admission control, deadlines, ticket
// abandonment, and request coalescing.
// ---------------------------------------------------------------------

/// Samples that hold a worker for a human-visible stretch in a debug
/// build (roughly a second), so the queue observably backs up.
const SLOW_SAMPLES: usize = 300_000;

/// Monte-Carlo samples that keep one forced evaluation of `q` busy for at
/// least `target`, from a timed calibration run in this build: debug and
/// release builds differ by an order of magnitude, so no fixed count
/// outlasts a wall-clock deadline in both.
fn samples_lasting(catalog: &Catalog, q: &Query, target: Duration) -> usize {
    const PROBE: usize = 20_000;
    let engine = CatalogEngine::with_config(catalog, overload_config(1, 0, PROBE).engine);
    let start = Instant::now();
    engine
        .evaluate(q, Statistic::Probability)
        .expect("calibration run");
    let per_sample = start.elapsed().as_secs_f64() / PROBE as f64;
    (target.as_secs_f64() / per_sample).ceil() as usize
}

/// Submits one slow request and blocks until a worker has picked it up
/// (queue empty again), so the test knows the pool is busy.
fn occupy_worker(handle: &ServerHandle, q: &Query) -> mrsl_repro::probdb::serve::Ticket {
    let blocker = handle
        .submit(q.clone(), Statistic::Probability)
        .expect("blocker admitted");
    assert!(
        eventually(Duration::from_secs(20), || handle.stats().queue_depth == 0),
        "worker never picked the blocker up"
    );
    blocker
}

/// Acceptance criterion: a full queue refuses new work immediately with
/// the typed error — no blocking, no deadlock — and the refusal unwinds
/// the provisional depth count.
#[test]
fn full_queue_rejects_with_overloaded_immediately() {
    let catalog = chain_catalog([0.3, 0.7], [0.2, 0.5, 0.8], [0.6, 0.4]);
    let q = chain_query();
    const BOUND: usize = 2;
    let server = ProbDbServer::with_config(catalog, overload_config(1, BOUND, SLOW_SAMPLES));
    let handle = server.handle();
    let blocker = occupy_worker(&handle, &q);

    // The single worker is busy: fill the queue exactly to the bound.
    let queued: Vec<_> = (0..BOUND)
        .map(|i| {
            handle
                .submit(q.clone(), Statistic::Probability)
                .unwrap_or_else(|e| panic!("submit {i} within the bound: {e}"))
        })
        .collect();
    assert_eq!(handle.stats().queue_depth, BOUND as u64);

    // One past the bound fails fast.
    let start = Instant::now();
    let err = handle
        .submit(q.clone(), Statistic::Probability)
        .unwrap_err();
    assert_eq!(err, ProbDbError::Overloaded);
    assert!(
        start.elapsed() < Duration::from_millis(250),
        "admission refusal must not block: took {:?}",
        start.elapsed()
    );
    let stats = handle.stats();
    assert_eq!(stats.rejected, 1);
    // The bounce unwound its provisional count.
    assert_eq!(stats.queue_depth, BOUND as u64);
    // A rejected submit is not a query: nothing was enqueued or served.
    assert_eq!(stats.queries, 0);

    // Everything actually admitted still answers.
    blocker.wait().expect("blocker answers");
    for ticket in queued {
        ticket.wait().expect("queued within the bound answers");
    }
    server.shutdown();
    assert_eq!(handle.stats().queue_depth, 0);
}

/// `wait_timeout` comes back within the deadline plus scheduling jitter,
/// the abandoned answer is discarded cleanly, and a request whose
/// deadline expires while queued is dropped by the worker unevaluated.
#[test]
fn deadlines_bound_waits_and_expire_queued_work() {
    let catalog = chain_catalog([0.3, 0.7], [0.2, 0.5, 0.8], [0.6, 0.4]);
    let q = chain_query();
    // The blocker must outlast both 100 ms deadlines below with a wide
    // margin whatever the build profile: calibrate it to about a second.
    let deadline = Duration::from_millis(100);
    let samples = samples_lasting(&catalog, &q, Duration::from_secs(1));
    let server = ProbDbServer::with_config(catalog, overload_config(1, 0, samples));
    let handle = server.handle();
    let blocker = occupy_worker(&handle, &q);

    // A request stamped with a deadline far shorter than the blocker's
    // runtime: the client-side wait gives up on time...
    let expired = handle
        .submit_with_deadline(q.clone(), Statistic::Probability, deadline)
        .expect("admitted");
    let start = Instant::now();
    let err = expired.wait_timeout(deadline).unwrap_err();
    let waited = start.elapsed();
    assert_eq!(err, ProbDbError::DeadlineExceeded);
    assert!(waited >= deadline, "woke early: {waited:?}");
    assert!(
        waited < deadline + Duration::from_secs(2),
        "wait_timeout overshot the deadline past scheduling jitter: {waited:?}"
    );

    // ...and a second stamped request, left queued past its deadline
    // with its ticket alive, is dropped by the worker without being
    // evaluated and answers `DeadlineExceeded`.
    let submitted = Instant::now();
    let doomed = handle
        .submit_with_deadline(q.clone(), Statistic::Probability, deadline)
        .expect("admitted");
    let answer = doomed.wait();
    // The precondition: the worker reached the doomed request only after
    // its deadline, i.e. the blocker was still running then.
    assert!(
        submitted.elapsed() >= deadline,
        "the blocker ({samples} samples) finished before the doomed deadline"
    );
    assert_eq!(answer.unwrap_err(), ProbDbError::DeadlineExceeded);
    let stats = handle.stats();
    assert_eq!(stats.expired, 1, "{stats:?}");
    // The first stamped request was abandoned by its timed-out wait, so
    // the worker skipped it too: only the blocker was ever evaluated.
    assert_eq!(stats.abandoned, 1, "{stats:?}");
    assert_eq!(stats.queries, 1, "{stats:?}");

    blocker.wait().expect("blocker answers");
    server.shutdown();
    assert_eq!(handle.stats().queue_depth, 0);
}

/// Dropping a ticket is a real cancellation: workers skip the job at
/// pickup instead of paying for an evaluation nobody will read.
#[test]
fn dropped_tickets_skip_evaluation_entirely() {
    const DROPPED: usize = 6;
    let catalog = chain_catalog([0.3, 0.7], [0.2, 0.5, 0.8], [0.6, 0.4]);
    let q = chain_query();
    let server = ProbDbServer::with_config(catalog, overload_config(1, 0, SLOW_SAMPLES));
    let handle = server.handle();
    let blocker = occupy_worker(&handle, &q);

    // Queue N requests behind the blocker, then walk away from all of
    // them before the worker can start any.
    let tickets: Vec<_> = (0..DROPPED)
        .map(|_| {
            handle
                .submit(q.clone(), Statistic::Probability)
                .expect("admitted")
        })
        .collect();
    drop(tickets);

    blocker.wait().expect("blocker answers");
    assert!(
        eventually(Duration::from_secs(20), || {
            handle.stats().abandoned == DROPPED as u64
        }),
        "workers did not skip the abandoned jobs: {:?}",
        handle.stats()
    );
    let stats = handle.stats();
    // Only the blocker was evaluated; the abandoned jobs cost nothing.
    assert_eq!(stats.queries, 1, "{stats:?}");
    server.shutdown();
    assert_eq!(handle.stats().queue_depth, 0);
}

/// Acceptance criterion: an identical-shape storm shares evaluations.
/// With one worker evaluating and another draining the queue, at least
/// 75% of the requests attach to an in-flight evaluation, and every
/// waiter gets bit-identical answers stamped with the same generation.
#[test]
fn identical_shape_storm_coalesces_to_shared_evaluations() {
    const STORM: usize = 16;
    let catalog = chain_catalog([0.3, 0.7], [0.2, 0.5, 0.8], [0.6, 0.4]);
    let q = chain_query();
    let server = ProbDbServer::with_config(catalog, overload_config(2, 0, SLOW_SAMPLES));
    let handle = server.handle();

    let tickets: Vec<_> = (0..STORM)
        .map(|_| {
            handle
                .submit(q.clone(), Statistic::Probability)
                .expect("admitted")
        })
        .collect();
    let served: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("storm request answers"))
        .collect();

    // Bit-identical fan-out, all stamped with the same generation.
    let reference = answer_bits(&served[0].answer);
    for s in &served {
        assert_eq!(answer_bits(&s.answer), reference);
        assert_eq!(s.generation, served[0].generation);
    }
    let stats = handle.stats();
    assert_eq!(stats.queries, STORM as u64);
    // Coalesced answers are served answers: the path invariant holds.
    assert_eq!(
        stats.exact + stats.monte_carlo + stats.hybrid,
        stats.queries,
        "{stats:?}"
    );
    assert!(
        stats.coalesced >= (STORM * 3 / 4) as u64,
        "storm did not coalesce: {stats:?}"
    );
    server.shutdown();
    assert_eq!(handle.stats().queue_depth, 0);
}

/// `workers: 0` never degrades to a single worker, even on a 1-core
/// host: a long evaluation must not starve every other read. A fast
/// query completes while a slow one holds a worker.
#[test]
fn default_pool_reserves_a_second_worker_for_progress() {
    let catalog = chain_catalog([0.3, 0.7], [0.2, 0.5, 0.8], [0.6, 0.4]);
    let server = ProbDbServer::with_config(
        catalog,
        ServeConfig {
            engine: overload_config(0, 0, SLOW_SAMPLES).engine,
            ..ServeConfig::default()
        },
    );
    assert!(
        server.worker_count() >= 2,
        "workers: 0 resolved to {} workers",
        server.worker_count()
    );
    let handle = server.handle();
    // Different statistic → different coalesce key: the fast read is
    // never parked behind the slow one's in-flight entry.
    let blocker = handle
        .submit(chain_query(), Statistic::Probability)
        .expect("admitted");
    let fast = handle
        .evaluate(&chain_query(), Statistic::ExpectedCount)
        .expect("fast read completes while the blocker runs");
    assert!(matches!(fast.answer, QueryAnswer::Count { .. }));
    blocker.wait().expect("blocker answers");
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Queue-depth accounting is exact under racing submitters, dropped
    /// tickets, admission bounces and a concurrent shutdown: whatever
    /// interleaving happens, the gauge returns to zero (RAII decrements
    /// exactly once per enqueue) and every admitted ticket resolves.
    #[test]
    fn queue_accounting_survives_submit_shutdown_races(ops in prop::collection::vec(0u8..3, 24)) {
        const SUBMITTERS: usize = 3;
        let catalog = join_catalog(&[(0, 0.3), (1, 0.6)], &[(0, 0.5), (1, 0.25)]);
        let q = join_query();
        let server = ProbDbServer::with_config(
            catalog,
            ServeConfig { max_queue_depth: 2, ..serve_config(2) },
        );
        let handle = server.handle();
        std::thread::scope(|scope| {
            for chunk in ops.chunks(ops.len() / SUBMITTERS) {
                let handle = handle.clone();
                let q = q.clone();
                scope.spawn(move || {
                    for &op in chunk {
                        // Admission bounces are expected under the tiny
                        // bound; admitted tickets are waited, timed out
                        // or dropped depending on the op.
                        let Ok(ticket) = handle.submit(q.clone(), Statistic::Probability) else {
                            continue;
                        };
                        match op {
                            0 => drop(ticket),
                            1 => {
                                let _ = ticket.wait_timeout(Duration::from_millis(1));
                            }
                            _ => {
                                let _ = ticket.wait();
                            }
                        }
                    }
                });
            }
            // Race a shutdown into the middle of the storm.
            scope.spawn(|| server.shutdown());
        });
        // Every enqueue was matched by exactly one dequeue, no matter
        // which path each job left by.
        prop_assert_eq!(handle.stats().queue_depth, 0);
    }
}
