//! The serving workloads: a 100k-block hierarchical join catalog plus a
//! dissociable chain, behind `ProbDbServer` with its default worker pool.
//!
//! `serve_read` is a read-only closed loop whose Zipf-weighted mix holds a
//! few more (shape, statistic) pairs than the plan cache has slots, so its
//! median times the warm path and its p99 the cold path. `serve_ingest`
//! alternates one-block publishes with a fixed number of reads of two join
//! shapes that fit in the cache, timing the copy-on-write publish and the
//! re-warm after it. Both follow fixed, seeded schedules: no timers.

use crate::trace::Recorder;
use crate::{median, ms, percentile, sorted, Report};
use mrsl_probdb::{
    Alternative, Block, Catalog, CatalogEngine, PlanCacheStats, PlanRoute, Predicate, ProbDbServer,
    Query, QueryAnswer, QueryEngineConfig, ServeConfig, ServerHandle, ServerStats, Statistic,
};
use mrsl_relation::{AttrId, CompleteTuple, ValueId};
use mrsl_util::{derive_seed, seeded_rng};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub const STATIONS: usize = 256;
pub const CERTAIN: usize = 5_000;
pub const BLOCKS: usize = 100_000;
pub const ALTS: usize = 3;
pub const CHAIN_KEYS: usize = 64;
pub const CHAIN_BLOCKS: usize = 2_500;
pub const CLIENTS: usize = 2;
/// Reads per second of `--seconds`: the read schedule's fixed length.
pub const READS_PER_SECOND: usize = 250;
/// Publish cycles per second of `--seconds`.
pub const CYCLES_PER_SECOND: usize = 8;
pub const READS_PER_PUBLISH: usize = 8;
/// The most popular pairs, read twice each during set-up.
const WARM_PAIRS: usize = 8;
/// Schedules of the traced run.
const TRACE_READS: usize = 300;
const TRACE_CYCLES: usize = 10;
const COLD_SAMPLES: usize = 5;
const WARM_SAMPLES: usize = 20;

/// The catalog is a fixed fixture; the seed draws the traffic (the read
/// order, the published blocks), so runs on different seeds differ only in
/// what the workload asks of the same data.
pub const CATALOG_SEED: u64 = 42;

pub fn catalog() -> Catalog {
    let mut catalog =
        mrsl_bench::synthetic_join_catalog(STATIONS, CERTAIN, BLOCKS, ALTS, CATALOG_SEED);
    let chain = mrsl_bench::synthetic_chain_catalog(CHAIN_KEYS, CHAIN_BLOCKS, CATALOG_SEED);
    for (name, db) in chain.iter() {
        catalog
            .add(name, db.clone())
            .expect("join and chain names differ");
    }
    catalog
}

/// Default engine except that bounds never fall back to Monte Carlo: one
/// sampled request alone would set the read p99.
pub fn engine_config() -> QueryEngineConfig {
    QueryEngineConfig {
        bounds_tolerance: 1.0,
        ..QueryEngineConfig::default()
    }
}

fn start(catalog: Catalog) -> ProbDbServer {
    ProbDbServer::with_config(
        catalog,
        ServeConfig {
            engine: engine_config(),
            ..ServeConfig::default()
        },
    )
}

/// σ[kind ∈ K](sensors) ⨝ σ[level ∈ L](readings) on the station, for
/// one of 8 kind sets × 8 level ranges.
fn join_variant(v: usize) -> Query {
    let k = (v % 8) as u16;
    let kinds: Vec<ValueId> = if k < 4 {
        vec![ValueId(k)]
    } else {
        vec![ValueId(k - 4), ValueId((k - 3) % 4)]
    };
    let (lo, hi) = [
        (0, 3),
        (1, 3),
        (2, 3),
        (3, 3),
        (0, 0),
        (0, 1),
        (0, 2),
        (1, 2),
    ][v / 8 % 8];
    Query::scan("sensors")
        .filter(Predicate::is_in(AttrId(1), kinds))
        .join_on(
            Query::scan("readings").filter(Predicate::range(AttrId(1), ValueId(lo), ValueId(hi))),
            [(AttrId(0), AttrId(0))],
        )
}

/// The non-hierarchical chain `R(x), S(x,y), T(y)` over present tuples,
/// with `x` restricted to one eighth of the keys.
fn chain_variant(c: usize) -> Query {
    let present = |attr: u16| Predicate::eq(AttrId(attr), ValueId(1));
    let lo = (c * CHAIN_KEYS / 8) as u16;
    let hi = ((c + 1) * CHAIN_KEYS / 8 - 1) as u16;
    Query::scan("r")
        .filter(Predicate::range(AttrId(0), ValueId(lo), ValueId(hi)).and(present(1)))
        .join_on(
            Query::scan("s").filter(present(2)),
            [(AttrId(0), AttrId(0))],
        )
        .join_on_rel(
            "s",
            Query::scan("t").filter(present(1)),
            [(AttrId(1), AttrId(0))],
        )
}

/// The read mix in popularity order: 64 join variants asked for
/// `Probability` and `ExpectedCount`, and 8 chain `ProbabilityBounds`
/// variants — 136 pairs against the plan cache's 128 slots. Each statistic
/// has its own warm latency, so the ranking gives `Probability` about 70%
/// of the reads (`ExpectedCount` 22%, bounds 6%): the median then falls
/// well inside one statistic's cluster instead of on the edge between two.
/// The ranking is fixed; the seed only orders the requests.
pub fn read_mix() -> Vec<(Query, Statistic)> {
    let mut mix = Vec::new();
    for v in 0..64 {
        if v % 8 == 4 {
            mix.push((chain_variant(v / 8), Statistic::ProbabilityBounds));
        }
        mix.push((join_variant(v), Statistic::Probability));
        if v % 3 == 2 {
            mix.push((join_variant(v / 3), Statistic::ExpectedCount));
        }
    }
    for v in 64 / 3..64 {
        mix.push((join_variant(v), Statistic::ExpectedCount));
    }
    mix
}

/// The ingest loop's shapes: one join per statistic, so a publish re-warms
/// both a probability plan and an expected-count plan.
fn ingest_mix() -> Vec<(Query, Statistic)> {
    vec![
        (join_variant(6), Statistic::Probability),
        (join_variant(5), Statistic::ExpectedCount),
    ]
}

/// `n` reads over the popularity ranking in Zipf(1) proportions, dealt
/// to the clients in a seeded order. Every seed reads the same multiset of
/// pairs (counts apportioned by largest remainder), so runs on different
/// seeds differ only in request order.
fn zipf_schedules(seed: u64, pairs: usize, n: usize) -> Vec<Vec<usize>> {
    let weights: Vec<f64> = (1..=pairs).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    let quotas: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..pairs).collect();
    by_remainder.sort_by(|&a, &b| {
        let rem = |i: usize| quotas[i] - quotas[i].floor();
        rem(b).total_cmp(&rem(a)).then(a.cmp(&b))
    });
    let short = n - counts.iter().sum::<usize>();
    for &i in &by_remainder[..short] {
        counts[i] += 1;
    }
    let mut requests: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(pair, &c)| std::iter::repeat_n(pair, c))
        .collect();
    requests.shuffle(&mut seeded_rng(derive_seed(seed, &[0x5e7e])));
    (0..CLIENTS)
        .map(|c| requests.iter().skip(c).step_by(CLIENTS).copied().collect())
        .collect()
}

pub fn stat_key(stat: Statistic) -> &'static str {
    match stat {
        Statistic::Probability => "probability",
        Statistic::ExpectedCount => "expected_count",
        Statistic::ProbabilityBounds => "bounds",
        _ => "other",
    }
}

/// The answer's numbers as bits, for exact comparison; `None` for an
/// answer of a kind the mix never asks for.
fn answer_bits(answer: &QueryAnswer) -> Option<Vec<u64>> {
    let opt = |x: Option<f64>| x.map_or(u64::MAX, f64::to_bits);
    match answer {
        QueryAnswer::Probability { p, std_error } => Some(vec![p.to_bits(), opt(*std_error)]),
        QueryAnswer::Count { mean, std_error } => Some(vec![mean.to_bits(), opt(*std_error)]),
        QueryAnswer::Bounds(b) => Some(vec![
            b.lower.to_bits(),
            b.upper.to_bits(),
            opt(b.estimate),
            opt(b.std_error),
        ]),
        _ => None,
    }
}

/// A direct evaluation on `catalog` with a fresh engine: the reference
/// every served answer must equal bit for bit.
fn reference(catalog: &Catalog, query: &Query, stat: Statistic) -> Option<Vec<u64>> {
    let engine = CatalogEngine::with_config(catalog, engine_config());
    engine
        .evaluate(query, stat)
        .ok()
        .and_then(|(answer, _)| answer_bits(&answer))
}

/// One served read: which pair, how long, and what came back.
#[derive(Clone)]
struct Read {
    pair: usize,
    latency: Duration,
    end: Instant,
    /// Planned without a plan-cache hit (compiled cold, or an error).
    cold: bool,
    /// Answer bits and the generation they were computed against.
    outcome: Option<(Vec<u64>, u64)>,
}

fn read(handle: &ServerHandle, pair: usize, query: &Query, stat: Statistic) -> Read {
    let start = Instant::now();
    let served = handle.evaluate(query, stat);
    let end = Instant::now();
    Read {
        pair,
        latency: end - start,
        end,
        cold: served
            .as_ref()
            .map_or(true, |s| s.report.route != PlanRoute::CacheHit),
        outcome: served
            .ok()
            .and_then(|s| Some((answer_bits(&s.answer)?, s.generation))),
    }
}

/// Repeats the set-up (catalog, server, the fixed warm-up reads), keeping
/// the last server and the set-up times.
fn setups(warm_up: &[(usize, usize)], mix: &[(Query, Statistic)]) -> (ProbDbServer, Vec<Duration>) {
    let mut times = Vec::new();
    let mut server: Option<ProbDbServer> = None;
    for _ in 0..crate::SETUP_REPEATS {
        if let Some(s) = server.take() {
            s.shutdown();
        }
        let start = Instant::now();
        let fresh = self::start(catalog());
        warm(&fresh, mix, warm_up);
        server = Some(fresh);
        times.push(start.elapsed());
    }
    (server.expect("at least one set-up"), times)
}

/// The closed loop: each client sends its schedule's next read only after
/// the previous reply. Returns each client's reads, the loop's start and
/// the clients' root spans (traced runs only).
fn closed_loop(
    server: &ProbDbServer,
    mix: &[(Query, Statistic)],
    schedules: &[Vec<usize>],
    rec: Option<&Recorder>,
) -> (Vec<Vec<Read>>, Instant, Vec<usize>) {
    let start = Instant::now();
    let per_client: Vec<(Vec<Read>, Option<usize>)> = std::thread::scope(|s| {
        let threads: Vec<_> = schedules
            .iter()
            .enumerate()
            .map(|(c, schedule)| {
                let handle = server.handle();
                s.spawn(move || {
                    let root = rec.map(|r| r.open("bench.client", None, c as u64));
                    let reads = schedule
                        .iter()
                        .enumerate()
                        .map(|(i, &pair)| {
                            let span = rec.map(|r| {
                                r.open(
                                    "probdb.serve.evaluate",
                                    root,
                                    (c * schedule.len() + i) as u64,
                                )
                            });
                            let out = read(&handle, pair, &mix[pair].0, mix[pair].1);
                            if let (Some(r), Some(id)) = (rec, span) {
                                r.close(id);
                            }
                            out
                        })
                        .collect();
                    if let (Some(r), Some(id)) = (rec, root) {
                        r.close(id);
                    }
                    (reads, root)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect()
    });
    let roots = per_client.iter().filter_map(|(_, r)| *r).collect();
    let reads = per_client.into_iter().map(|(r, _)| r).collect();
    (reads, start, roots)
}

/// Failed reads: each must answer bit-identically to a direct evaluation
/// of its pair on `catalog`, at `generation`.
fn verify_reads(
    catalog: &Catalog,
    mix: &[(Query, Statistic)],
    reads: &[Read],
    generation: u64,
) -> u64 {
    let mut refs: BTreeMap<usize, Option<Vec<u64>>> = BTreeMap::new();
    for r in reads {
        refs.entry(r.pair).or_default();
    }
    for (&pair, slot) in refs.iter_mut() {
        *slot = reference(catalog, &mix[pair].0, mix[pair].1);
    }
    reads
        .iter()
        .filter(|r| match (&r.outcome, &refs[&r.pair]) {
            (Some((bits, g)), Some(want)) => bits != want || *g != generation,
            _ => true,
        })
        .count() as u64
}

fn warm_reads() -> Vec<(usize, usize)> {
    (0..WARM_PAIRS).map(|p| (p, 2)).collect()
}

/// The end-to-end read run.
pub fn run_read(seed: u64, seconds: u64) -> Report {
    let mix = read_mix();
    let (server, setup_times) = setups(&warm_reads(), &mix);
    let plan_before = server.stats().plan_cache;
    let schedules = zipf_schedules(seed, mix.len(), READS_PER_SECOND * seconds.max(1) as usize);
    let (per_client, start, _) = closed_loop(&server, &mix, &schedules, None);
    let stats = server.stats();
    let snapshot = server.snapshot();
    server.shutdown();
    let reads: Vec<Read> = per_client.iter().flatten().cloned().collect();
    let failed = verify_reads(snapshot.catalog(), &mix, &reads, 0);

    let latencies = sorted(reads.iter().map(|r| r.latency).collect());
    let cold = reads.iter().filter(|r| r.cold).count();
    let wall = reads.iter().map(|r| r.end).max().expect("reads") - start;
    let qps = reads.len() as f64 / wall.as_secs_f64();
    let (p50, p99) = (ms(median(&latencies)), ms(percentile(&latencies, 0.99)));
    let mut report = Report::new(reads.len() as u64, failed);
    report.setup(&setup_times);
    report.metric("throughput_per_s", qps, "1/s");
    report.metric("p50_ms", p50, "ms");
    report.metric("slow_path_ms", p99, "ms");
    report.finish_common();
    report.named("read_p50_ms", p50, "ms");
    report.named("read_p99_ms", p99, "ms");
    report.named("read_qps", qps, "1/s");
    report.note(format!(
        "{} reads by {CLIENTS} closed-loop clients over {} pairs in {:.3} s; {} cold; {} plan-cache misses, {} evictions, {} coalesced; {} beyond p99",
        reads.len(),
        mix.len(),
        wall.as_secs_f64(),
        cold,
        stats.plan_cache.misses - plan_before.misses,
        stats.plan_cache.evictions - plan_before.evictions,
        stats.coalesced,
        reads.len() - (reads.len() as f64 * 0.99).ceil() as usize,
    ));
    report
}

/// The one-block upserts of the ingest schedule, seeded.
fn ingest_blocks(seed: u64, n: usize) -> Vec<Block> {
    let mut rng = seeded_rng(derive_seed(seed, &[0x1a9e]));
    (0..n)
        .map(|i| {
            let station = rng.gen_range(0..STATIONS as u16);
            let first = (rng.gen_range(0..4u16), rng.gen_range(0..4u16));
            let mut second = first;
            while second == first {
                second = (rng.gen_range(0..4u16), rng.gen_range(0..4u16));
            }
            let alternative =
                |(kind, calib): (u16, u16), rng: &mut rand::rngs::StdRng| Alternative {
                    tuple: CompleteTuple::from_values(vec![station, kind, calib]),
                    prob: rng.gen_range(1..100) as f64,
                };
            let alternatives = vec![alternative(first, &mut rng), alternative(second, &mut rng)];
            Block::normalized(BLOCKS + i, alternatives).expect("two distinct alternatives")
        })
        .collect()
}

struct Publish {
    latency: Duration,
    /// Time inside the update closure: `get_mut` (the copy) + `push_block`.
    copy: Duration,
    generation: u64,
    ok: bool,
}

pub struct Ingest {
    publishes: Vec<Publish>,
    /// Reads per cycle, in schedule order.
    reads: Vec<Vec<Read>>,
    /// Publish-to-last-read time of each cycle.
    cycles: Vec<Duration>,
    pub wall: Duration,
    pub root: Option<usize>,
}

/// One generator thread: publish, then `READS_PER_PUBLISH` reads
/// alternating over the ingest shapes; repeat for every block.
fn ingest_loop(
    server: &ProbDbServer,
    mix: &[(Query, Statistic)],
    blocks: &[Block],
    rec: Option<&Recorder>,
) -> Ingest {
    let handle = server.handle();
    let root = rec.map(|r| r.open("bench.ingest", None, 0));
    let start = Instant::now();
    let mut publishes = Vec::with_capacity(blocks.len());
    let mut reads = Vec::with_capacity(blocks.len());
    let mut cycles = Vec::with_capacity(blocks.len());
    for (i, block) in blocks.iter().enumerate() {
        let request = i as u64;
        let span = rec.map(|r| r.open("probdb.serve.update", root, request));
        let t0 = Instant::now();
        let (generation, (copy, ok)) = server.update(|catalog| {
            let copy_span = rec.map(|r| r.open("probdb.catalog.copy", span, request));
            let t = Instant::now();
            let ok = catalog
                .get_mut("sensors")
                .is_some_and(|db| db.push_block(block.clone()).is_ok());
            let copy = t.elapsed();
            if let (Some(r), Some(id)) = (rec, copy_span) {
                r.close(id);
            }
            (copy, ok)
        });
        let latency = t0.elapsed();
        if let (Some(r), Some(id)) = (rec, span) {
            r.close(id);
        }
        publishes.push(Publish {
            latency,
            copy,
            generation,
            ok,
        });
        let cycle = (0..READS_PER_PUBLISH)
            .map(|k| {
                let pair = k % mix.len();
                let span = rec.map(|r| r.open("probdb.serve.evaluate", root, request));
                let out = read(&handle, pair, &mix[pair].0, mix[pair].1);
                if let (Some(r), Some(id)) = (rec, span) {
                    r.close(id);
                }
                out
            })
            .collect();
        reads.push(cycle);
        cycles.push(t0.elapsed());
    }
    let wall = start.elapsed();
    if let (Some(r), Some(id)) = (rec, root) {
        r.close(id);
    }
    Ingest {
        publishes,
        reads,
        cycles,
        wall,
        root,
    }
}

/// Failed operations of an ingest run: replays the publishes on a fresh
/// copy of the catalog and checks each cycle's reads against direct
/// evaluations of that generation; a publish fails when its block was not
/// pushed or its generation is out of sequence.
fn verify_ingest(
    mix: &[(Query, Statistic)],
    blocks: &[Block],
    run: &Ingest,
    base_generation: u64,
) -> u64 {
    let mut catalog = catalog();
    let mut failed = 0;
    for (i, block) in blocks.iter().enumerate() {
        let generation = base_generation + i as u64 + 1;
        let publish = &run.publishes[i];
        failed += u64::from(!publish.ok || publish.generation != generation);
        catalog
            .get_mut("sensors")
            .expect("join catalog has sensors")
            .push_block(block.clone())
            .expect("block fits sensors");
        for (pair, (query, stat)) in mix.iter().enumerate() {
            let want = reference(&catalog, query, *stat);
            failed += run.reads[i]
                .iter()
                .filter(|r| r.pair == pair)
                .filter(|r| match (&r.outcome, &want) {
                    (Some((bits, g)), Some(want)) => bits != want || *g != generation,
                    _ => true,
                })
                .count() as u64;
        }
    }
    failed
}

fn ingest_warm() -> Vec<(usize, usize)> {
    (0..ingest_mix().len()).map(|p| (p, 3)).collect()
}

/// The end-to-end ingest run.
pub fn run_ingest(seed: u64, seconds: u64) -> Report {
    let mix = ingest_mix();
    let (server, setup_times) = setups(&ingest_warm(), &mix);
    let blocks = ingest_blocks(seed, CYCLES_PER_SECOND * seconds.max(1) as usize);
    let base = server.generation();
    let run = ingest_loop(&server, &mix, &blocks, None);
    server.shutdown();
    let failed = verify_ingest(&mix, &blocks, &run, base);

    let ops = blocks.len() * (1 + READS_PER_PUBLISH);
    // Per cycle, so that one stalled cycle moves the median, not the rate.
    let ops_per_s =
        (1 + READS_PER_PUBLISH) as f64 / median(&sorted(run.cycles.clone())).as_secs_f64();
    let publish = sorted(run.publishes.iter().map(|p| p.latency).collect());
    let fresh = sorted(run.reads.iter().map(|c| c[0].latency).collect());
    let (publish_p50, fresh_p50) = (ms(median(&publish)), ms(median(&fresh)));
    let mut report = Report::new(ops as u64, failed);
    report.setup(&setup_times);
    report.metric("throughput_per_s", ops_per_s, "1/s");
    report.metric("p50_ms", publish_p50, "ms");
    report.metric("slow_path_ms", fresh_p50, "ms");
    report.finish_common();
    report.named("publish_p50_ms", publish_p50, "ms");
    report.named("fresh_read_p50_ms", fresh_p50, "ms");
    report.named("ingest_ops_per_s", ops_per_s, "1/s");
    report.note(format!(
        "{} one-block publishes into {BLOCKS} blocks, each followed by {READS_PER_PUBLISH} reads of {} join shapes",
        blocks.len(),
        ingest_mix().len(),
    ));
    report
}

fn warm(server: &ProbDbServer, mix: &[(Query, Statistic)], reads: &[(usize, usize)]) {
    let handle = server.handle();
    for &(pair, times) in reads {
        for _ in 0..times {
            std::hint::black_box(read(&handle, pair, &mix[pair].0, mix[pair].1));
        }
    }
}

/// The read loop at the traced run's scale, on a fresh warmed server;
/// `wall` is the clients' mean loop time.
pub struct ReadPhase {
    reads: Vec<Read>,
    pub roots: Vec<usize>,
    pub wall: Duration,
    before: ServerStats,
    after: ServerStats,
    catalog: std::sync::Arc<Catalog>,
}

pub fn read_phase(catalog: &Catalog, seed: u64, rec: Option<&Recorder>) -> ReadPhase {
    let mix = read_mix();
    let server = start(catalog.clone());
    warm(&server, &mix, &warm_reads());
    let before = server.stats();
    let schedules = zipf_schedules(seed, mix.len(), TRACE_READS);
    let (per_client, start, roots) = closed_loop(&server, &mix, &schedules, rec);
    // Each client's own loop time, averaged: comparable with the clients'
    // root spans when traced.
    let wall = per_client
        .iter()
        .map(|reads| reads.last().map_or(Duration::ZERO, |r| r.end - start))
        .sum::<Duration>()
        / CLIENTS as u32;
    let after = server.stats();
    let catalog = server.snapshot().catalog().clone();
    server.shutdown();
    ReadPhase {
        reads: per_client.into_iter().flatten().collect(),
        roots,
        wall,
        before,
        after,
        catalog,
    }
}

/// The ingest loop at the traced run's scale, on a fresh warmed server.
pub struct IngestPhase {
    pub run: Ingest,
    blocks: Vec<Block>,
    base: u64,
    before: PlanCacheStats,
    after: PlanCacheStats,
}

pub fn ingest_phase(catalog: &Catalog, seed: u64, rec: Option<&Recorder>) -> IngestPhase {
    let mix = ingest_mix();
    let server = start(catalog.clone());
    warm(&server, &mix, &ingest_warm());
    let base = server.generation();
    let before = server.stats().plan_cache;
    let blocks = ingest_blocks(seed, TRACE_CYCLES);
    let run = ingest_loop(&server, &mix, &blocks, rec);
    let after = server.stats().plan_cache;
    server.shutdown();
    IngestPhase {
        run,
        blocks,
        base,
        before,
        after,
    }
}

/// The traced serve phases and plan probes; adds the per-layer metrics of
/// the serve family to `report`.
pub fn layers(catalog: &Catalog, seed: u64, rec: &Recorder, report: &mut Report) {
    let mix = read_mix();
    let config = engine_config();

    // Direct plan probes: cold (cache cleared) and warm, per statistic.
    let probes = [
        (join_variant(0), Statistic::Probability),
        (join_variant(0), Statistic::ExpectedCount),
        (chain_variant(0), Statistic::ProbabilityBounds),
    ];
    let mut warm_direct = BTreeMap::new();
    for (k, (query, stat)) in probes.iter().enumerate() {
        let key = stat_key(*stat);
        let engine = CatalogEngine::with_config(catalog, config);
        let time = |name: &str| {
            let id = rec.open(name, None, k as u64);
            std::hint::black_box(engine.evaluate(query, *stat).ok());
            rec.close(id);
            let span = rec.span(id);
            span.end - span.start
        };
        let cold: Vec<Duration> = (0..COLD_SAMPLES)
            .map(|_| {
                engine.plan_cache().clear();
                time(&format!("probe.probdb.plan.cold.{key}"))
            })
            .collect();
        for _ in 0..3 {
            std::hint::black_box(engine.evaluate(query, *stat).ok());
        }
        let warm: Vec<Duration> = (0..WARM_SAMPLES)
            .map(|_| time(&format!("probe.probdb.plan.warm.{key}")))
            .collect();
        let warm_ms = ms(median(&sorted(warm)));
        warm_direct.insert(key, warm_ms);
        report.metric(
            &format!("probdb.plan.cold_ms.{key}"),
            ms(median(&sorted(cold))),
            "ms",
        );
        report.metric(&format!("probdb.plan.warm_ms.{key}"), warm_ms, "ms");
    }

    let phase = read_phase(catalog, seed, Some(rec));
    report.attempted += phase.reads.len() as u64;
    report.failed += verify_reads(&phase.catalog, &mix, &phase.reads, 0);
    read_layer_metrics(report, &mix, &phase, &warm_direct);

    let IngestPhase {
        run,
        blocks,
        base,
        before,
        after,
    } = ingest_phase(catalog, seed, Some(rec));
    report.attempted += (blocks.len() * (1 + READS_PER_PUBLISH)) as u64;
    report.failed += verify_ingest(&ingest_mix(), &blocks, &run, base);
    let n = blocks.len() as f64;
    let nth = |k: usize| sorted(run.reads.iter().map(|c| c[k].latency).collect());
    let update = sorted(run.publishes.iter().map(|p| p.latency).collect());
    let copy = sorted(run.publishes.iter().map(|p| p.copy).collect());
    let swap = sorted(
        run.publishes
            .iter()
            .map(|p| p.latency.saturating_sub(p.copy))
            .collect(),
    );
    report.metric("probdb.plan.rewarm_ms.first", ms(median(&nth(0))), "ms");
    report.metric("probdb.plan.rewarm_ms.second", ms(median(&nth(1))), "ms");
    report.metric(
        "probdb.plan.reg_patches",
        (after.reg_patches - before.reg_patches) as f64 / n,
        "1/publish",
    );
    report.metric(
        "probdb.plan.reg_rebinds",
        (after.reg_rebinds - before.reg_rebinds) as f64 / n,
        "1/publish",
    );
    report.metric("probdb.catalog.copy_ms", ms(median(&copy)), "ms");
    report.metric("probdb.serve.publish_swap_ms", ms(median(&swap)), "ms");
    report.metric(
        "probdb.catalog.publish_p95_ms",
        ms(percentile(&update, 0.95)),
        "ms",
    );
}

fn read_layer_metrics(
    report: &mut Report,
    mix: &[(Query, Statistic)],
    phase: &ReadPhase,
    warm_direct: &BTreeMap<&'static str, f64>,
) {
    let (before, after, reads) = (&phase.before, &phase.after, &phase.reads);
    let (b, a) = (&before.plan_cache, &after.plan_cache);
    let hits = (a.hits - b.hits) as f64;
    let misses = (a.misses - b.misses) as f64;
    let queries = (after.queries - before.queries).max(1) as f64;
    report.metric(
        "probdb.plan.cache.hit_share",
        hits / (hits + misses).max(1.0),
        "fraction",
    );
    report.metric(
        "probdb.plan.cache.evictions",
        (a.evictions - b.evictions) as f64,
        "count",
    );
    report.metric(
        "probdb.plan.cache.invalidations",
        (a.invalidations - b.invalidations) as f64,
        "count",
    );
    report.metric(
        "probdb.plan.cache.hot_hits",
        (a.hot_hits - b.hot_hits) as f64,
        "count",
    );
    for (key, direct) in warm_direct {
        let served = sorted(
            reads
                .iter()
                .filter(|r| stat_key(mix[r.pair].1) == *key)
                .map(|r| r.latency)
                .collect(),
        );
        report.metric(
            &format!("probdb.serve.overhead_ms.{key}"),
            ms(median(&served)) - direct,
            "ms",
        );
    }
    report.metric(
        "probdb.serve.coalesced_share",
        (after.coalesced - before.coalesced) as f64 / queries,
        "fraction",
    );
    report.metric(
        "probdb.serve.lagged_reads",
        (after.lagged_reads - before.lagged_reads) as f64,
        "count",
    );
    report.metric(
        "probdb.serve.max_queue_depth",
        after.max_queue_depth as f64,
        "count",
    );
    report.metric(
        "probdb.serve.errors",
        (after.errors - before.errors) as f64,
        "count",
    );
    report.metric(
        "probdb.serve.rejected",
        (after.rejected - before.rejected) as f64,
        "count",
    );
}
