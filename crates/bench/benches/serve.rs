//! Bench: the concurrent serving layer.
//!
//! Self-timed reporter (the vendored criterion shim has no programmatic
//! timing hooks) written to `BENCH_serve.json` at the repo root:
//!
//! - per-request p50/p99 latency and aggregate queries/sec for the warm
//!   hierarchical join probability at 1/2/4/8 client threads hammering
//!   one [`ProbDbServer`] worker pool through cloned handles;
//! - cold request latency (plan + bind through the serving path, plan
//!   cache cleared between samples);
//! - read-while-ingest: the same client ladder while a writer thread
//!   publishes one-block upserts copy-on-write — the snapshot swap plus
//!   the register *append* (not rebuild) every post-publish request pays;
//! - overload: an identical-shape storm from 8 clients against a small
//!   pool with a bounded queue (every evaluation forced onto the slow
//!   Monte Carlo path), measuring the coalesced share and storm p99,
//!   then deterministic admission rejections against a full queue and
//!   the client-side `wait_timeout` overshoot next to a plain
//!   `thread::sleep` jitter baseline;
//! - the server's cumulative [`ServerStats`] so cache warmth, generation
//!   lag and queue depth land next to the latency numbers.
//!
//! `host_cores` records the machine's parallelism: client counts above it
//! time contention honestly rather than projecting speedups. Under
//! `--test` (CI smoke) the fixtures shrink to seconds of work and the
//! JSON is not rewritten; a positional filter that `serve_report` does
//! not contain skips the report.

use criterion::{criterion_group, criterion_main, Criterion};
use mrsl_bench::{
    join_query, percentile, reporter_selected, smoke_mode, synthetic_join_catalog, vm_config,
};
use mrsl_probdb::serve::{ProbDbServer, ServeConfig};
use mrsl_probdb::{
    Alternative, Block, ProbDbError, Query, QueryEngineConfig, ServerHandle, ServerStats, Statistic,
};
use mrsl_relation::CompleteTuple;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const CLIENTS: [usize; 4] = [1, 2, 4, 8];
const WORKERS: usize = 4;

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        engine: vm_config(),
        ..ServeConfig::default()
    }
}

/// One client thread: `iters` blocking round-trips through the pool,
/// per-request wall-clock nanoseconds.
fn client_latencies(handle: &ServerHandle, query: &Query, iters: usize) -> Vec<f64> {
    (0..iters)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(
                handle
                    .evaluate(query, Statistic::Probability)
                    .expect("served"),
            );
            start.elapsed().as_nanos() as f64
        })
        .collect()
}

/// `clients` threads hammering the pool concurrently; returns the merged
/// sorted per-request samples and the aggregate queries/sec.
fn client_section(
    server: &ProbDbServer,
    query: &Query,
    clients: usize,
    iters: usize,
) -> (Vec<f64>, f64) {
    let start = Instant::now();
    let mut samples: Vec<f64> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..clients)
            .map(|_| {
                let handle = server.handle();
                s.spawn(move || client_latencies(&handle, query, iters))
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("client thread"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let qps = (clients * iters) as f64 / wall;
    (samples, qps)
}

fn write_section(out: &mut String, key: &str, samples: &[f64], qps: f64, extra: &str, last: bool) {
    let _ = writeln!(
        out,
        "    \"{key}\": {{\"p50_ns\": {:.0}, \"p99_ns\": {:.0}, \"qps\": {qps:.1}{extra}}}{}",
        percentile(samples, 0.5),
        percentile(samples, 0.99),
        if last { "" } else { "," }
    );
}

/// A fresh one-block upsert for the writer: two alternatives on a
/// rotating station, normalized to a valid block.
fn ingest_block(key: usize, stations: usize) -> Block {
    let station = (key % stations) as u16;
    Block::normalized(
        key,
        vec![
            Alternative {
                tuple: CompleteTuple::from_values(vec![station, 0, 0]),
                prob: 1.0,
            },
            Alternative {
                tuple: CompleteTuple::from_values(vec![station, 1, 1]),
                prob: 1.0,
            },
        ],
    )
    .expect("valid block")
}

/// Overload scenario: 8 clients, 2 workers, queue bound 4, every
/// evaluation forced onto the Monte Carlo path with enough samples that
/// a request visibly holds a worker. Three deterministic sub-phases on
/// one server (so the emitted counters are cumulative server totals):
///
/// 1. **storm** — identical-shape submit/wait loops from all clients;
///    one evaluation fans out to everyone who attached while it ran.
/// 2. **deadline** — with both workers pinned by slow blockers (two
///    *different* shapes, so neither coalesces with the other), stamped
///    probes time out client-side; the overshoot past the deadline is
///    the measured scheduling jitter, reported next to a plain
///    `thread::sleep` baseline.
/// 3. **admission** — with the queue already holding the abandoned
///    probes, a burst of submits bounces off the bound immediately.
fn overload_section(out: &mut String, smoke: bool) {
    const STORM_CLIENTS: usize = 8;
    const OVERLOAD_WORKERS: usize = 2;
    const QUEUE_BOUND: usize = 4;
    // ~20k samples over this 400-block fixture is already ~1s of Monte
    // Carlo on the 1-core reference host: a request visibly holds a
    // worker without the section taking minutes.
    let (mc_samples, storm_iters, probes) = if smoke {
        (20_000, 2, 2)
    } else {
        (40_000, 6, QUEUE_BOUND)
    };
    let deadline = Duration::from_millis(25);

    let catalog = synthetic_join_catalog(16, 200, 400, 3, 7);
    let query = join_query();
    let server = ProbDbServer::with_config(
        catalog,
        ServeConfig {
            workers: OVERLOAD_WORKERS,
            max_queue_depth: QUEUE_BOUND,
            engine: QueryEngineConfig {
                force_monte_carlo: true,
                mc_samples,
                ..vm_config()
            },
        },
    );

    // Phase 1: the identical-shape storm.
    let storm_start = Instant::now();
    let mut samples: Vec<f64> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..STORM_CLIENTS)
            .map(|_| {
                let handle = server.handle();
                let query = query.clone();
                s.spawn(move || {
                    let mut lat = Vec::with_capacity(storm_iters);
                    let mut done = 0;
                    while done < storm_iters {
                        let start = Instant::now();
                        match handle.submit(query.clone(), Statistic::Probability) {
                            Ok(ticket) => {
                                std::hint::black_box(ticket.wait().expect("storm answer"));
                                lat.push(start.elapsed().as_nanos() as f64);
                                done += 1;
                            }
                            // Bounced at admission: back off and retry.
                            Err(ProbDbError::Overloaded) => {
                                std::thread::sleep(Duration::from_micros(200));
                            }
                            Err(e) => panic!("storm submit: {e}"),
                        }
                    }
                    lat
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("storm client"))
            .collect()
    });
    let storm_wall = storm_start.elapsed().as_secs_f64();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let storm_requests = (STORM_CLIENTS * storm_iters) as u64;
    let storm_stats = server.stats();

    // Phase 2: pin both workers with slow blockers of *different*
    // shapes, then probe the client-side deadline overshoot.
    let handle = server.handle();
    let blockers = [
        handle
            .submit(query.clone(), Statistic::Probability)
            .expect("blocker admitted"),
        handle
            .submit(query.clone(), Statistic::ExpectedCount)
            .expect("blocker admitted"),
    ];
    let pinned = Instant::now();
    while handle.stats().queue_depth > 0 && pinned.elapsed() < Duration::from_secs(30) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut overshoots_ms: Vec<f64> = Vec::with_capacity(probes);
    for _ in 0..probes {
        let Ok(ticket) =
            handle.submit_with_deadline(query.clone(), Statistic::Probability, deadline)
        else {
            continue;
        };
        let start = Instant::now();
        // With both workers pinned the probe expires; if a blocker
        // finished early the probe just answers and measures nothing.
        if ticket.wait_timeout(deadline).is_err() {
            let overshoot = start.elapsed().saturating_sub(deadline);
            overshoots_ms.push(overshoot.as_secs_f64() * 1e3);
        }
    }
    overshoots_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    // Jitter baseline: how late a plain sleep of the same length wakes.
    let mut sleep_jitter_ms: f64 = 0.0;
    for _ in 0..probes.max(2) {
        let start = Instant::now();
        std::thread::sleep(deadline);
        let late = start.elapsed().saturating_sub(deadline);
        sleep_jitter_ms = sleep_jitter_ms.max(late.as_secs_f64() * 1e3);
    }

    // Phase 3: the queue still holds the abandoned probes; a burst of
    // submits past the bound is refused immediately.
    let mut admitted = Vec::new();
    let mut burst_rejected = 0u64;
    for _ in 0..STORM_CLIENTS {
        match handle.submit(query.clone(), Statistic::Probability) {
            Ok(ticket) => admitted.push(ticket),
            Err(ProbDbError::Overloaded) => burst_rejected += 1,
            Err(e) => panic!("burst submit: {e}"),
        }
    }
    drop(admitted);
    for blocker in blockers {
        blocker.wait().expect("blocker answers");
    }
    let stats = server.stats();
    server.shutdown();

    let coalesced_share = storm_stats.coalesced as f64 / storm_requests as f64;
    let _ = writeln!(out, "  \"overload\": {{");
    let _ = writeln!(
        out,
        "    \"clients\": {STORM_CLIENTS}, \"workers\": {OVERLOAD_WORKERS}, \
         \"queue_bound\": {QUEUE_BOUND}, \"mc_samples\": {mc_samples},"
    );
    let _ = writeln!(
        out,
        "    \"storm\": {{\"requests\": {storm_requests}, \"p50_ns\": {:.0}, \
         \"p99_ns\": {:.0}, \"qps\": {:.1}, \"coalesced\": {}, \"coalesced_share\": {:.3}}},",
        percentile(&samples, 0.5),
        percentile(&samples, 0.99),
        storm_requests as f64 / storm_wall,
        storm_stats.coalesced,
        coalesced_share
    );
    let _ = writeln!(
        out,
        "    \"admission\": {{\"burst\": {STORM_CLIENTS}, \"burst_rejected\": {burst_rejected}, \
         \"rejected_total\": {}}},",
        stats.rejected
    );
    let _ = writeln!(
        out,
        "    \"deadline\": {{\"deadline_ms\": {:.1}, \"probes_expired\": {}, \
         \"overshoot_p99_ms\": {:.3}, \"sleep_jitter_ms\": {:.3}}},",
        deadline.as_secs_f64() * 1e3,
        overshoots_ms.len(),
        if overshoots_ms.is_empty() {
            0.0
        } else {
            percentile(&overshoots_ms, 0.99)
        },
        sleep_jitter_ms
    );
    let _ = writeln!(
        out,
        "    \"totals\": {{\"queries\": {}, \"expired\": {}, \"abandoned\": {}, \"errors\": {}}}",
        stats.queries, stats.expired, stats.abandoned, stats.errors
    );
    let _ = writeln!(out, "  }},");
    if !smoke {
        assert!(
            stats.rejected >= 1,
            "overload scenario produced no admission rejections"
        );
        assert!(
            coalesced_share > 0.0,
            "identical-shape storm never coalesced"
        );
    }
}

fn emit_serve_report(_c: &mut Criterion) {
    if !reporter_selected("serve_report") {
        return;
    }
    let smoke = smoke_mode();
    let (stations, certain, blocks) = if smoke {
        (16, 200, 200)
    } else {
        (256, 5_000, 20_000)
    };
    let iters = if smoke { 5 } else { 300 };
    let cold_iters = if smoke { 2 } else { 8 };

    let catalog = synthetic_join_catalog(stations, certain, blocks, 3, 42);
    let query = join_query();

    let mut out = String::from("{\n");
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let _ = writeln!(out, "  \"host_cores\": {cores},");
    let _ = writeln!(out, "  \"workers\": {WORKERS},");
    let _ = writeln!(
        out,
        "  \"fixture\": {{\"stations\": {stations}, \"certain\": {certain}, \
         \"blocks\": {blocks}, \"iters_per_client\": {iters}}},"
    );

    // Cold: plan + bind through the serving path. The pool and snapshot
    // are reused; only the shared plan cache is dropped between samples.
    let server = ProbDbServer::with_config(catalog.clone(), serve_config());
    let handle = server.handle();
    let mut cold: Vec<f64> = (0..cold_iters)
        .map(|_| {
            server.plan_cache().clear();
            let start = Instant::now();
            std::hint::black_box(
                handle
                    .evaluate(&query, Statistic::Probability)
                    .expect("cold serve"),
            );
            start.elapsed().as_nanos() as f64
        })
        .collect();
    cold.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let _ = writeln!(
        out,
        "  \"cold\": {{\"p50_ns\": {:.0}, \"p99_ns\": {:.0}}},",
        percentile(&cold, 0.5),
        percentile(&cold, 0.99)
    );

    // Warm ladder: the plan stays cached and memoized; every request is
    // queue + snapshot pin + cache hit + fold.
    handle
        .evaluate(&query, Statistic::Probability)
        .expect("warm-up");
    let _ = writeln!(out, "  \"warm\": {{");
    for (i, &clients) in CLIENTS.iter().enumerate() {
        let (samples, qps) = client_section(&server, &query, clients, iters);
        write_section(
            &mut out,
            &format!("clients_{clients}"),
            &samples,
            qps,
            "",
            i + 1 == CLIENTS.len(),
        );
    }
    let _ = writeln!(out, "  }},");
    let warm_stats = server.stats();
    server.shutdown();

    // Read-while-ingest: a fresh server per client count (copy-on-write
    // makes the catalog clone cheap), a writer publishing one-block
    // upserts on a fixed cadence while the clients hammer the join.
    let _ = writeln!(out, "  \"read_while_ingest\": {{");
    let mut ingest_stats: Option<ServerStats> = None;
    for (i, &clients) in CLIENTS.iter().enumerate() {
        let server = ProbDbServer::with_config(catalog.clone(), serve_config());
        server
            .handle()
            .evaluate(&query, Statistic::Probability)
            .expect("warm-up");
        let stop = AtomicBool::new(false);
        let next_key = AtomicUsize::new(blocks);
        let (samples, qps) = std::thread::scope(|s| {
            let writer = s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    let key = next_key.fetch_add(1, Ordering::Relaxed);
                    let block = ingest_block(key, stations);
                    server.update(|catalog| {
                        catalog
                            .get_mut("sensors")
                            .expect("sensors")
                            .push_block(block)
                            .expect("arity ok");
                    });
                    std::thread::sleep(Duration::from_micros(500));
                }
            });
            let section = client_section(&server, &query, clients, iters);
            stop.store(true, Ordering::Relaxed);
            writer.join().expect("writer thread");
            section
        });
        let stats = server.stats();
        write_section(
            &mut out,
            &format!("clients_{clients}"),
            &samples,
            qps,
            &format!(", \"publishes\": {}", stats.publishes),
            i + 1 == CLIENTS.len(),
        );
        if !smoke {
            assert!(
                stats.publishes > 0,
                "read-while-ingest measured no publishes at {clients} clients"
            );
        }
        ingest_stats = Some(stats);
        server.shutdown();
    }
    let _ = writeln!(out, "  }},");

    overload_section(&mut out, smoke);

    // Cumulative counters: warm ladder totals, plus the last ingest
    // section's cache and lag shape.
    let ingest = ingest_stats.expect("at least one ingest section ran");
    let _ = writeln!(
        out,
        "  \"totals\": {{\"warm_queries\": {}, \"warm_cache_hits\": {}, \
         \"warm_coalesced\": {}, \"warm_max_queue_depth\": {}, \"ingest_queries\": {}, \
         \"ingest_cache_hits\": {}, \
         \"ingest_lagged_reads\": {}, \"ingest_max_lag\": {}, \"ingest_reg_patches\": {}, \
         \"ingest_reg_rebinds\": {}, \"errors\": {}}}\n}}",
        warm_stats.queries,
        warm_stats.cache_hits,
        warm_stats.coalesced,
        warm_stats.max_queue_depth,
        ingest.queries,
        ingest.cache_hits,
        ingest.lagged_reads,
        ingest.max_lag,
        ingest.plan_cache.reg_patches,
        ingest.plan_cache.reg_rebinds,
        warm_stats.errors + ingest.errors
    );
    assert_eq!(warm_stats.errors + ingest.errors, 0, "served errors");
    if !smoke {
        assert!(
            warm_stats.cache_hits > 0,
            "warm ladder never hit the shared plan cache"
        );
    }

    if smoke {
        println!("serve bench smoke mode: BENCH_serve.json left untouched");
        print!("{out}");
        return;
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    if let Err(err) = std::fs::write(path, &out) {
        eprintln!("BENCH_serve.json not written: {err}");
    } else {
        println!("wrote {path}");
        print!("{out}");
    }
}

criterion_group!(benches, emit_serve_report);
criterion_main!(benches);
