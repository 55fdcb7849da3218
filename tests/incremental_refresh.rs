//! Incremental refresh of warm plans.
//!
//! A cached plan keeps its terms' live-row bitmaps, key-straddle and
//! alias verdicts and pruned-block counts per storage segment, under the
//! value stamps of [`ProbDb`]. After a write, a warm hit re-scans only
//! the segments whose stamps moved. These tests drive random writes
//! across diverging clones through one shared plan cache and hold every
//! warm answer to a fresh engine and to the reference interpreter, bit
//! for bit; they also pin the work counter (`EvalReport::rows_evaluated`)
//! and that a warm report reads provenance from the current relation.
//!
//! Registers and mass tables carry masses, so they are kept under the
//! value stamps before each term's last segment and the relation's mass
//! stamp: after an append the memo merges in the rows from that segment
//! on. The generation proptest below holds those memos, not only the
//! answers, to a fresh bind.

use mrsl_repro::probdb::testutil::{interpreted, memo_bits};
use mrsl_repro::probdb::{
    Alternative, Block, Catalog, CatalogEngine, EvalPath, PlanCache, PlanClass, PlanRoute,
    Predicate, ProbDb, Query, QueryAnswer, QueryEngineConfig, Statistic,
};
use mrsl_repro::relation::{AttrId, CompleteTuple, Schema, ValueId};
use proptest::prelude::*;
use std::sync::Arc;

/// Rows per storage segment (certain rows, or blocks).
const SEGMENT: usize = 512;
const KEYS: u16 = 8;

fn alt(values: Vec<u16>, prob: f64) -> Alternative {
    Alternative {
        tuple: CompleteTuple::from_values(values),
        prob,
    }
}

/// Bounds never refined; a small sample budget keeps the sampled
/// verdicts (straddling keys, aliases) quick and still deterministic.
fn config() -> QueryEngineConfig {
    QueryEngineConfig {
        bounds_tolerance: 1.0,
        mc_samples: 64,
        ..QueryEngineConfig::default()
    }
}

const STATS: [Statistic; 3] = [
    Statistic::Probability,
    Statistic::ProbabilityBounds,
    Statistic::ExpectedCount,
];

/// `(k, ok, tag)`: in the base data `tag` always equals `ok`.
fn schema() -> Arc<Schema> {
    Schema::builder()
        .attribute("k", (0..KEYS).map(|k| format!("k{k}")))
        .attribute("ok", ["no", "yes"])
        .attribute("tag", ["a", "b"])
        .build()
        .unwrap()
}

/// A two-alternative block at key `k`: absent (`ok = no`) with
/// probability `1 - p`, present with `p`.
fn keyed_block(key: usize, k: u16, p: f64) -> Block {
    Block::new(
        key,
        vec![alt(vec![k, 0, 0], 1.0 - p), alt(vec![k, 1, 1], p)],
    )
    .unwrap()
}

/// `certain` certain rows and `blocks` blocks, both just short of a
/// segment boundary so the writes below cross it.
fn relation(certain: usize, blocks: usize, salt: usize) -> ProbDb {
    let mut db = ProbDb::new(schema());
    for i in 0..certain {
        let ok = (i + salt).is_multiple_of(5) as u16;
        db.push_certain(CompleteTuple::from_values(vec![
            ((i * 3 + salt) % 8) as u16,
            ok,
            ok,
        ]))
        .unwrap();
    }
    for b in 0..blocks {
        let p = ((b * 7 + salt) % 19 + 1) as f64 / 20.0;
        db.push_block(keyed_block(b, ((b + salt) % 8) as u16, p))
            .unwrap();
    }
    db
}

fn base_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    catalog
        .add("left", relation(SEGMENT - 2, SEGMENT - 3, 1))
        .unwrap();
    catalog.add("right", relation(40, 200, 4)).unwrap();
    catalog
}

fn ok() -> Predicate {
    Predicate::eq(AttrId(1), ValueId(1))
}

/// `left ⋈ right` on the key, present rows only: hierarchical while no
/// block straddles keys.
fn join() -> Query {
    Query::scan("left")
        .filter(ok())
        .join_on(Query::scan("right").filter(ok()), [(AttrId(0), AttrId(0))])
}

/// A self-join whose aliases select the same live rows while `tag`
/// equals `ok`: its bounds dissociate the aliases until a write breaks
/// that.
fn aliased() -> Query {
    Query::scan_as("left", "l1").filter(ok()).join_on(
        Query::scan_as("left", "l2").filter(Predicate::eq(AttrId(2), ValueId(1))),
        [(AttrId(0), AttrId(0))],
    )
}

fn answer_bits(answer: QueryAnswer) -> Vec<u64> {
    match answer {
        QueryAnswer::Probability { p, std_error } => std::iter::once(p)
            .chain(std_error)
            .map(f64::to_bits)
            .collect(),
        QueryAnswer::Bounds(b) => [b.lower, b.upper]
            .into_iter()
            .chain(b.estimate)
            .chain(b.std_error)
            .map(f64::to_bits)
            .collect(),
        QueryAnswer::Count { mean, std_error } => std::iter::once(mean)
            .chain(std_error)
            .map(f64::to_bits)
            .collect(),
        other => panic!("unexpected answer shape: {other:?}"),
    }
}

/// One random write.
#[derive(Debug, Clone, Copy)]
enum Write {
    /// A certain row at a key.
    Certain { k: u16, ok: u16 },
    /// A key-unique block.
    Block { k: u16, p: f64 },
    /// A block whose present alternatives sit at two keys: it straddles
    /// the join key.
    Straddle { k: u16 },
    /// A block whose present alternative has `tag ≠ ok`: the aliases of
    /// [`aliased`] stop selecting the same rows.
    Untagged { k: u16, p: f64 },
    /// New masses for an existing block.
    Masses { block: usize, p: f64 },
    /// The target becomes a clone of the other writable catalog.
    Clone,
}

fn apply(write: Write, catalogs: &mut [Catalog; 3], target: usize, relation: &str) {
    if let Write::Clone = write {
        catalogs[target] = catalogs[3 - target].clone();
        return;
    }
    let db = catalogs[target].get_mut(relation).unwrap();
    let key = db.blocks().len() + 1_000;
    match write {
        Write::Certain { k, ok } => db
            .push_certain(CompleteTuple::from_values(vec![k, ok, ok]))
            .unwrap(),
        Write::Block { k, p } => db.push_block(keyed_block(key, k, p)).unwrap(),
        Write::Straddle { k } => db
            .push_block(
                Block::new(
                    key,
                    vec![
                        alt(vec![k, 1, 1], 0.5),
                        alt(vec![(k + 1) % KEYS, 1, 1], 0.5),
                    ],
                )
                .unwrap(),
            )
            .unwrap(),
        Write::Untagged { k, p } => db
            .push_block(
                Block::new(
                    key,
                    vec![alt(vec![k, 0, 1], 1.0 - p), alt(vec![k, 1, 0], p)],
                )
                .unwrap(),
            )
            .unwrap(),
        Write::Masses { block, p } => {
            let block = block % db.blocks().len();
            db.set_block_masses(block, &[1.0 - p, p]).unwrap()
        }
        Write::Clone => unreachable!("handled above"),
    }
}

fn arb_write() -> impl Strategy<Value = Write> {
    ((0u8..12, 0u16..KEYS), (1u32..=19, 0usize..4_000)).prop_map(|((kind, k), (w, block))| {
        let p = w as f64 / 20.0;
        match kind {
            0 | 1 => Write::Certain {
                k,
                ok: (w % 2) as u16,
            },
            2..=5 => Write::Block { k, p },
            6 => Write::Straddle { k },
            7 => Write::Untagged { k, p },
            8..=10 => Write::Masses { block, p },
            _ => Write::Clone,
        }
    })
}

/// Reads every query and statistic of `catalog` through the shared
/// cache and checks the answer, path and plan class against a fresh
/// engine and the interpreter.
fn check_reads(catalog: &Catalog, cache: &Arc<PlanCache>) {
    let warm = CatalogEngine::with_plan_cache(catalog, config(), cache.clone());
    let fresh = CatalogEngine::with_config(catalog, config());
    for q in [join(), aliased()] {
        for stat in STATS {
            let (wa, wr) = warm.evaluate(&q, stat).unwrap();
            let (fa, fr) = fresh.evaluate(&q, stat).unwrap();
            let (ia, ir) = interpreted(catalog, &q, stat, &config()).unwrap();
            let (wb, fb, ib) = (answer_bits(wa), answer_bits(fa), answer_bits(ia));
            prop_assert_eq!(&wb, &fb, "warm vs fresh on {:?}", stat);
            prop_assert_eq!(&wb, &ib, "warm vs interpreter on {:?}", stat);
            prop_assert_eq!((wr.path, wr.plan), (fr.path, fr.plan), "{:?}", stat);
            prop_assert_eq!((wr.path, wr.plan), (ir.path, ir.plan), "{:?}", stat);
            prop_assert_eq!(&wr.relations, &fr.relations, "{:?}", stat);
            prop_assert_eq!(&wr.decomposition, &fr.decomposition, "{:?}", stat);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random interleavings of certain-row pushes, block pushes (some
    /// straddling the join key, some breaking the alias agreement) and
    /// mass updates across two clones that diverge from one parent at
    /// equal lengths, read alternately with the untouched parent through
    /// one plan cache: every warm answer equals a fresh engine's and the
    /// interpreter's, and a flipped guard replans as a fresh engine does.
    #[test]
    fn warm_refreshes_match_fresh_engines_across_diverging_clones(
        writes in prop::collection::vec((arb_write(), 1usize..3, 0usize..2), 1..8)
    ) {
        // Catalog 0 is the parent and is never written; 1 and 2 start as
        // its clones, at equal lengths.
        let parent = base_catalog();
        let mut catalogs = [parent.clone(), parent.clone(), parent];
        let cache = Arc::new(PlanCache::new());
        check_reads(&catalogs[0], &cache);
        for (step, (write, target, relation)) in writes.into_iter().enumerate() {
            apply(write, &mut catalogs, target, ["left", "right"][relation]);
            // The written catalog, then by turns its sibling or the
            // parent: the shared entries swing between their data.
            check_reads(&catalogs[target], &cache);
            let other = if step % 2 == 0 { 3 - target } else { 0 };
            check_reads(&catalogs[other], &cache);
        }
    }
}

/// One step of a generation history.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// The newest generation with one more key-unique block: a one-block
    /// publish.
    Block { rel: usize, k: u16, p: f64 },
    /// The newest generation with one more certain row.
    Certain { rel: usize, k: u16, ok: u16 },
    /// The newest generation with new masses for one block.
    Masses { rel: usize, block: usize, p: f64 },
    /// A sibling of the newest generation: its parent with a different
    /// block pushed, landing in the same tail segment.
    Diverge { k: u16, p: f64 },
    /// Read a generation `back` steps before the newest again.
    Old { back: usize },
    /// The newest generation with a `left` block straddling the join key:
    /// every shape's key guard flips.
    Straddle { k: u16 },
}

fn arb_step() -> impl Strategy<Value = Step> {
    ((0u8..12, 0usize..2), (0u16..KEYS, 1u32..=19, 0usize..4_000)).prop_map(
        |((kind, rel), (k, w, pick))| {
            let p = w as f64 / 20.0;
            match kind {
                0..=3 => Step::Block { rel, k, p },
                4 => Step::Certain {
                    rel,
                    k,
                    ok: (w % 2) as u16,
                },
                5 => Step::Masses {
                    rel,
                    block: pick,
                    p,
                },
                6 | 7 => Step::Diverge { k, p },
                8..=10 => Step::Old { back: pick },
                _ => Step::Straddle { k },
            }
        },
    )
}

/// The shapes a generation read asks for: the join's probability and
/// expected count, and the aliased self-join's dissociation bounds.
fn memo_shapes() -> [(Query, Statistic); 3] {
    [
        (join(), Statistic::Probability),
        (join(), Statistic::ExpectedCount),
        (aliased(), Statistic::ProbabilityBounds),
    ]
}

/// Reads every shape of `catalog` through the shared cache and checks
/// the answer and the memoized registers and mass tables against a
/// fresh cache's. Every read is a warm hit unless `flipped`: a guard then
/// flipped since the last read, which kills each shape's memo and
/// replans it. A `straddled` catalog samples the join's probability and
/// the bounds, which memoize no registers.
fn check_memos(catalog: &Catalog, cache: &Arc<PlanCache>, flipped: bool, straddled: bool) {
    let warm = CatalogEngine::with_plan_cache(catalog, config(), cache.clone());
    let fresh_cache = Arc::new(PlanCache::new());
    let fresh = CatalogEngine::with_plan_cache(catalog, config(), fresh_cache.clone());
    for (q, stat) in memo_shapes() {
        let (wa, wr) = warm.evaluate(&q, stat).unwrap();
        let (fa, fr) = fresh.evaluate(&q, stat).unwrap();
        let route = if flipped {
            PlanRoute::Compiled
        } else {
            PlanRoute::CacheHit
        };
        prop_assert_eq!(wr.route, route, "{:?}", stat);
        prop_assert_eq!(answer_bits(wa), answer_bits(fa), "answer of {:?}", stat);
        prop_assert_eq!((wr.path, wr.plan), (fr.path, fr.plan), "{:?}", stat);
        let (wm, fm) = (
            memo_bits(cache, &q, stat),
            memo_bits(&fresh_cache, &q, stat),
        );
        if !straddled {
            prop_assert!(wm.is_some(), "{:?} memoizes registers", stat);
        }
        prop_assert_eq!(wm, fm, "memo of {:?}", stat);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A generation history of block pushes, certain pushes, mass updates,
    /// diverging siblings and key-straddling pushes, read in turn, with
    /// older generations read again, all through one plan cache: every
    /// memo's registers and mass tables and every answer equal a fresh
    /// bind's, bit for bit, a one-block publish read after its parent
    /// rebinds nothing, and a read across a straddling push (either way)
    /// kills the memos it reaches and replans like a fresh engine.
    #[test]
    fn appended_memos_match_fresh_binds_across_generations(
        steps in prop::collection::vec(arb_step(), 1..12)
    ) {
        let cache = Arc::new(PlanCache::new());
        // `left` spans two segments of certain rows and of blocks, so
        // most of its rows lie before the cut, and the writes below cross
        // into a third.
        let mut base = base_catalog();
        *base.get_mut("left").unwrap() = relation(2 * SEGMENT - 2, 2 * SEGMENT - 3, 1);
        let mut generations = vec![base];
        // Per generation: does `left` hold a straddling block?
        let mut straddled = vec![false];
        let cold = CatalogEngine::with_plan_cache(&generations[0], config(), cache.clone());
        for (q, stat) in memo_shapes() {
            cold.evaluate(&q, stat).unwrap();
        }
        check_memos(&generations[0], &cache, false, false);
        let mut last_read = 0;
        for step in steps {
            let newest = generations.len() - 1;
            let (parent, write) = match step {
                Step::Old { back } => {
                    let read = newest - back % generations.len();
                    let flipped = straddled[read] != straddled[last_read];
                    check_memos(&generations[read], &cache, flipped, straddled[read]);
                    last_read = read;
                    continue;
                }
                Step::Diverge { k, p } => (newest.saturating_sub(1), Write::Block { k, p }),
                Step::Block { k, p, .. } => (newest, Write::Block { k, p }),
                Step::Certain { k, ok, .. } => (newest, Write::Certain { k, ok }),
                Step::Masses { block, p, .. } => (newest, Write::Masses { block, p }),
                Step::Straddle { k } => (newest, Write::Straddle { k }),
            };
            let rel = match step {
                Step::Block { rel, .. } | Step::Certain { rel, .. } | Step::Masses { rel, .. } => rel,
                _ => 0,
            };
            let mut catalogs = [generations[parent].clone(), Catalog::new(), Catalog::new()];
            apply(write, &mut catalogs, 0, ["left", "right"][rel]);
            let [next, _, _] = catalogs;
            let before = cache.stats();
            let straddles = straddled[parent] || matches!(step, Step::Straddle { .. });
            check_memos(&next, &cache, straddles != straddled[last_read], straddles);
            if matches!(step, Step::Block { .. }) && last_read == parent {
                let rebinds = cache.stats().reg_rebinds - before.reg_rebinds;
                prop_assert_eq!(rebinds, 0, "a one-block publish rebinds nothing");
            }
            generations.push(next);
            straddled.push(straddles);
            last_read = generations.len() - 1;
        }
    }
}

/// A pushed block that straddles the join key flips the key guard: the
/// warm entry is dropped and replanned exactly as a fresh engine plans it,
/// and a clone without the block replans back.
#[test]
fn straddling_push_invalidates_and_replans_like_a_fresh_engine() {
    let mut catalog = base_catalog();
    let parent = catalog.clone();
    let cache = Arc::new(PlanCache::new());
    let (_, report) = CatalogEngine::with_plan_cache(&catalog, config(), cache.clone())
        .probability(&join())
        .unwrap();
    assert_eq!(report.plan, PlanClass::Liftable);
    catalog
        .get_mut("left")
        .unwrap()
        .push_block(
            Block::new(
                9_999,
                vec![alt(vec![3, 1, 1], 0.5), alt(vec![4, 1, 1], 0.5)],
            )
            .unwrap(),
        )
        .unwrap();
    let warm = CatalogEngine::with_plan_cache(&catalog, config(), cache.clone());
    let (p, report) = warm.probability(&join()).unwrap();
    let (fp, fresh) = CatalogEngine::with_config(&catalog, config())
        .probability(&join())
        .unwrap();
    assert_eq!(report.route, PlanRoute::Compiled, "the stale entry replans");
    assert_eq!(
        (report.path, report.plan),
        (EvalPath::MonteCarlo, PlanClass::KeyCorrelated)
    );
    assert_eq!((report.path, report.plan), (fresh.path, fresh.plan));
    assert_eq!(p.to_bits(), fp.to_bits());
    assert_eq!(report.decomposition, fresh.decomposition);
    assert_eq!(cache.stats().invalidations, 1);
    // The parent never saw the block: its guard flips back.
    let (_, report) = CatalogEngine::with_plan_cache(&parent, config(), cache.clone())
        .probability(&join())
        .unwrap();
    assert_eq!(
        (report.route, report.plan),
        (PlanRoute::Compiled, PlanClass::Liftable)
    );
    assert_eq!(cache.stats().invalidations, 2);
}

/// Certain rows come first in a mass table's fold, and registers keep
/// their entries only before the cut: a live certain push into the last
/// segment appends the registers and refolds the count's tables, and a
/// read back across a certain or a block segment boundary (each alone)
/// rebinds both. Every memo stays equal to a fresh bind's.
#[test]
fn reads_back_across_segment_boundaries_rebind() {
    let push = |catalog: &Catalog, certain: u16, blocks: u16| {
        let mut next = catalog.clone();
        let left = next.get_mut("left").unwrap();
        for k in 0..certain {
            let row = CompleteTuple::from_values(vec![k, 1, 1]);
            left.push_certain(row).unwrap();
        }
        for k in 0..blocks {
            let key = left.blocks().len() + 1_000;
            left.push_block(keyed_block(key, k, 0.5)).unwrap();
        }
        next
    };
    // `left` holds two certain rows and three blocks short of a segment.
    let base = base_catalog();
    let one = push(&base, 1, 1);
    let certain_crossed = push(&one, 3, 0);
    let blocks_crossed = push(&one, 0, 4);
    let cache = Arc::new(PlanCache::new());
    let cold = CatalogEngine::with_plan_cache(&base, config(), cache.clone());
    for (q, stat) in memo_shapes() {
        cold.evaluate(&q, stat).unwrap();
    }
    for catalog in [
        &one,
        &certain_crossed,
        &base,
        &blocks_crossed,
        &base,
        &certain_crossed,
        &blocks_crossed,
        &one,
    ] {
        check_memos(catalog, &cache, false, false);
    }
}

/// The work counter: every row on a cold miss, none on a clean hit or
/// after a mass update, and at most one block segment's rows after a
/// one-block push at 100k blocks.
#[test]
fn rows_evaluated_counts_only_rescanned_segments() {
    let mut catalog = mrsl_bench::synthetic_join_catalog(64, 2_000, 100_000, 3, 7);
    let q = Query::scan("sensors")
        .filter(Predicate::eq(AttrId(1), ValueId(1)))
        .join_on(
            Query::scan("readings").filter(Predicate::eq(AttrId(1), ValueId(2))),
            [(AttrId(0), AttrId(0))],
        );
    let cache = Arc::new(PlanCache::new());
    let read = |catalog: &Catalog| {
        CatalogEngine::with_plan_cache(catalog, config(), cache.clone())
            .probability(&q)
            .unwrap()
            .1
    };
    let cold = read(&catalog);
    assert_eq!(cold.route, PlanRoute::Compiled);
    assert_eq!(cold.rows_evaluated, cold.certain_rows + cold.alt_rows);
    let clean = read(&catalog);
    assert_eq!(clean.route, PlanRoute::CacheHit);
    assert_eq!(clean.rows_evaluated, 0);

    let sensors = catalog.get_mut("sensors").unwrap();
    sensors.set_block_masses(17, &[0.2, 0.3, 0.5]).unwrap();
    let after_masses = read(&catalog);
    assert_eq!(after_masses.route, PlanRoute::CacheHit);
    assert_eq!(after_masses.rows_evaluated, 0);

    let sensors = catalog.get_mut("sensors").unwrap();
    let blocks = sensors.blocks().len();
    let tail_start = blocks / SEGMENT * SEGMENT;
    let tail_rows: usize = (tail_start..blocks)
        .map(|b| sensors.columns().block_range(b).len())
        .sum();
    sensors
        .push_block(
            Block::new(
                blocks,
                vec![alt(vec![5, 1, 0], 0.4), alt(vec![5, 2, 0], 0.6)],
            )
            .unwrap(),
        )
        .unwrap();
    let after_push = read(&catalog);
    assert_eq!(after_push.route, PlanRoute::CacheHit);
    // Exactly the rows of the tail block segment of `sensors`, its new
    // block included; `readings` and the certain rows are not re-scanned.
    assert_eq!(after_push.rows_evaluated, tail_rows + 2);
    assert!(blocks + 1 - tail_start <= SEGMENT);
    // And the refreshed answer is the fresh engine's.
    let (p, _) = CatalogEngine::with_plan_cache(&catalog, config(), cache.clone())
        .probability(&q)
        .unwrap();
    let (fp, _) = CatalogEngine::with_config(&catalog, config())
        .probability(&q)
        .unwrap();
    assert_eq!(p.to_bits(), fp.to_bits());
}

/// Provenance is metadata that moves no stamp: a warm hit must still
/// report the relation's current provenance, as a fresh engine does.
#[test]
fn warm_hits_report_current_provenance() {
    let mut catalog = base_catalog();
    let cache = Arc::new(PlanCache::new());
    let (_, cold) = CatalogEngine::with_plan_cache(&catalog, config(), cache.clone())
        .probability(&join())
        .unwrap();
    assert_eq!(cold.relations[0].provenance, None);
    catalog.get_mut("left").unwrap().set_provenance("gibbs");
    let (_, warm) = CatalogEngine::with_plan_cache(&catalog, config(), cache.clone())
        .probability(&join())
        .unwrap();
    let (_, fresh) = CatalogEngine::with_config(&catalog, config())
        .probability(&join())
        .unwrap();
    assert_eq!(warm.route, PlanRoute::CacheHit);
    assert_eq!(fresh.relations[0].provenance.as_deref(), Some("gibbs"));
    assert_eq!(warm.relations[0].provenance.as_deref(), Some("gibbs"));
    assert_eq!(warm.relations, fresh.relations);
}
