//! The concurrent serving layer: snapshot generations, live ingest, and
//! a worker pool sharing one plan cache.
//!
//! A monitoring service holds a probabilistic sensor catalog for its
//! whole lifetime: clients keep asking *is some outdoor station reporting
//! a high level?* while fresh (still uncertain) measurements arrive. This
//! example starts a [`ProbDbServer`], hammers it from several client
//! threads, publishes two copy-on-write generations mid-flight, and shows
//! what the snapshot architecture guarantees along the way:
//!
//! - every answer is stamped with the generation it was computed against;
//! - an update copies only the relation it touches — the untouched one is
//!   the *same object* across generations (`Arc::ptr_eq`), so its warm
//!   register memos survive the publish;
//! - the shared plan cache stays warm through it all, and the server's
//!   counters tell the story at the end.
//!
//! Run with: `cargo run --release --example serving`

use mrsl_repro::probdb::serve::{ProbDbServer, ServeConfig};
use mrsl_repro::probdb::{
    Alternative, Block, Catalog, Predicate, ProbDb, ProbDbError, Query, QueryEngineConfig,
    Statistic,
};
use mrsl_repro::relation::{AttrId, CompleteTuple, Schema, ValueId};
use mrsl_repro::util::seeded_rng;
use rand::Rng;
use std::sync::Arc;

const STATIONS: u16 = 48;

/// `sensors(station, kind)` — kind (0 indoor / 1 outdoor) is uncertain
/// for part of the fleet: each block splits one sensor across both kinds.
fn sensors(blocks: usize, seed: u64) -> ProbDb {
    let schema = Schema::builder()
        .attribute("station", (0..STATIONS).map(|i| format!("st{i}")))
        .attribute("kind", ["indoor", "outdoor"])
        .build()
        .expect("valid schema");
    let mut db = ProbDb::new(schema);
    let mut rng = seeded_rng(seed);
    for key in 0..blocks {
        let station = rng.gen_range(0..STATIONS);
        if rng.gen_bool(0.5) {
            db.push_certain(CompleteTuple::from_values(vec![
                station,
                rng.gen_range(0..2),
            ]))
            .expect("arity ok");
        } else {
            let p_outdoor = rng.gen_range(0.05..0.95);
            db.push_block(
                Block::new(
                    key,
                    vec![
                        Alternative {
                            tuple: CompleteTuple::from_values(vec![station, 0]),
                            prob: 1.0 - p_outdoor,
                        },
                        Alternative {
                            tuple: CompleteTuple::from_values(vec![station, 1]),
                            prob: p_outdoor,
                        },
                    ],
                )
                .expect("valid block"),
            )
            .expect("arity ok");
        }
    }
    db
}

/// `readings(station, level)` — level (low/mid/high) uncertain per block.
fn readings(blocks: usize, seed: u64) -> ProbDb {
    let schema = Schema::builder()
        .attribute("station", (0..STATIONS).map(|i| format!("st{i}")))
        .attribute("level", ["low", "mid", "high"])
        .build()
        .expect("valid schema");
    let mut db = ProbDb::new(schema);
    let mut rng = seeded_rng(seed);
    for key in 0..blocks {
        db.push_block(reading_block(key, &mut rng))
            .expect("arity ok");
    }
    db
}

fn reading_block(key: usize, rng: &mut impl Rng) -> Block {
    let station = rng.gen_range(0..STATIONS);
    let p_high = rng.gen_range(0.02..0.12);
    let rest = 1.0 - p_high;
    Block::new(
        key,
        vec![
            Alternative {
                tuple: CompleteTuple::from_values(vec![station, 0]),
                prob: rest / 2.0,
            },
            Alternative {
                tuple: CompleteTuple::from_values(vec![station, 1]),
                prob: rest / 2.0,
            },
            Alternative {
                tuple: CompleteTuple::from_values(vec![station, 2]),
                prob: p_high,
            },
        ],
    )
    .expect("valid block")
}

fn main() {
    let mut catalog = Catalog::new();
    catalog.add("sensors", sensors(70, 11)).expect("fresh name");
    catalog
        .add("readings", readings(60, 12))
        .expect("fresh name");

    // ∃ outdoor sensor joined with a high reading at the same station —
    // hierarchical, so every request takes the exact safe-plan path.
    let query = Query::scan("sensors")
        .filter(Predicate::eq(AttrId(1), ValueId(1)))
        .join_on(
            Query::scan("readings").filter(Predicate::eq(AttrId(1), ValueId(2))),
            [(AttrId(0), AttrId(0))],
        );

    let server = ProbDbServer::with_config(
        catalog,
        ServeConfig {
            workers: 4,
            engine: QueryEngineConfig::default(),
            ..ServeConfig::default()
        },
    );
    let (p0, _) = server.handle().probability(&query).expect("generation 0");
    println!("generation 0: P(outdoor station reporting high) = {p0:.4}");

    // Four client threads keep reading while the main thread ingests two
    // batches of new readings. Copy-on-write publication means no reader
    // ever blocks and no torn catalog is observable: each answer is
    // internally consistent and stamped with its generation.
    let before = server.snapshot();
    std::thread::scope(|s| {
        for client in 0..4 {
            let handle = server.handle();
            let query = &query;
            s.spawn(move || {
                let mut last = (0, 0.0);
                for _ in 0..200 {
                    let served = handle
                        .evaluate(query, Statistic::Probability)
                        .expect("served");
                    if let mrsl_repro::probdb::QueryAnswer::Probability { p, .. } = served.answer {
                        last = (served.generation, p);
                    }
                }
                println!(
                    "client {client}: last answer {:.4} against generation {}",
                    last.1, last.0
                );
            });
        }

        let mut rng = seeded_rng(99);
        for batch in 0..2 {
            let (generation, added) = server.update(|catalog| {
                let db = catalog.get_mut("readings").expect("readings exists");
                let base = db.blocks().len();
                for i in 0..25 {
                    db.push_block(reading_block(60 + batch * 25 + i, &mut rng))
                        .expect("arity ok");
                }
                db.blocks().len() - base
            });
            println!("published generation {generation} (+{added} reading blocks)");
        }
    });

    // The writer only touched `readings`: `sensors` is the same object in
    // both generations, so its memoized registers carried over verbatim.
    let after = server.snapshot();
    println!(
        "sensors shared across generations {} -> {}: {} (readings shared: {})",
        before.generation(),
        after.generation(),
        Arc::ptr_eq(
            &before.catalog().get_shared("sensors").expect("sensors"),
            &after.catalog().get_shared("sensors").expect("sensors"),
        ),
        Arc::ptr_eq(
            &before.catalog().get_shared("readings").expect("readings"),
            &after.catalog().get_shared("readings").expect("readings"),
        ),
    );
    let (p2, _) = server.handle().probability(&query).expect("generation 2");
    println!("generation {}: P = {p2:.4}", server.generation());

    let stats = server.stats();
    println!(
        "\nserved {} queries ({} exact / {} sampled), {} warm plan-cache hits, \
         {} publishes, max queue depth {}, {} lagged reads (max lag {})",
        stats.queries,
        stats.exact,
        stats.monte_carlo + stats.hybrid,
        stats.cache_hits,
        stats.publishes,
        stats.max_queue_depth,
        stats.lagged_reads,
        stats.max_lag,
    );
    println!(
        "plan cache: {} hits / {} misses, {} register patches, {} rebinds",
        stats.plan_cache.hits,
        stats.plan_cache.misses,
        stats.plan_cache.reg_patches,
        stats.plan_cache.reg_rebinds,
    );
    println!(
        "overload counters: {} coalesced answers, {} plan-cache hits, \
         {} rejected / {} expired / {} abandoned",
        stats.coalesced, stats.cache_hits, stats.rejected, stats.expired, stats.abandoned,
    );

    // Graceful shutdown drains the queue; handles outlive the server but
    // get a typed error instead of an answer.
    let orphan = server.handle();
    server.shutdown();
    assert_eq!(
        orphan.probability(&query).unwrap_err(),
        ProbDbError::ServerUnavailable
    );
    println!("after shutdown: submissions answer with ServerUnavailable");
}
