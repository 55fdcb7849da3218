//! Serving-layer counters: lock-free cells the workers bump per request,
//! snapshotted into [`ServerStats`] for reporters and benches.

use crate::plan::PlanCacheStats;
use std::sync::atomic::{AtomicU64, Ordering};

/// Internal atomic counter cells. Every update is a relaxed atomic —
/// the stats are monitoring data, not synchronization — so recording
/// never serializes the worker pool.
#[derive(Debug, Default)]
pub(super) struct ServerCounters {
    queries: AtomicU64,
    exact: AtomicU64,
    monte_carlo: AtomicU64,
    hybrid: AtomicU64,
    cache_hits: AtomicU64,
    errors: AtomicU64,
    publishes: AtomicU64,
    queue_depth: AtomicU64,
    max_queue_depth: AtomicU64,
    lagged_reads: AtomicU64,
    max_lag: AtomicU64,
    rejected: AtomicU64,
    expired: AtomicU64,
    coalesced: AtomicU64,
    abandoned: AtomicU64,
}

fn raise_max(cell: &AtomicU64, candidate: u64) {
    cell.fetch_max(candidate, Ordering::Relaxed);
}

impl ServerCounters {
    /// A request entered the queue; returns the new depth (for the
    /// admission-control bound).
    pub(super) fn enqueued(&self) -> u64 {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        raise_max(&self.max_queue_depth, depth);
        depth
    }

    /// A request left the queue: picked up by a worker, bounced at
    /// admission after counting itself in, or dropped in the channel at
    /// teardown. Called exactly once per `enqueued` by the RAII depth
    /// guard, so the gauge can neither drift nor underflow.
    pub(super) fn dequeued(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// A submit was refused at admission (queue at its bound).
    pub(super) fn rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker dropped a job unevaluated: its deadline had already
    /// passed in the queue.
    pub(super) fn expired(&self) {
        self.expired.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker skipped a job whose ticket was dropped before pickup.
    pub(super) fn abandoned(&self) {
        self.abandoned.fetch_add(1, Ordering::Relaxed);
    }

    /// One answer fanned out from another request's evaluation.
    pub(super) fn coalesced(&self) {
        self.coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// One served answer: which physical path it took, whether the plan
    /// came out of the shared cache warm, and how many generations the
    /// served snapshot trailed the published head.
    pub(super) fn served(&self, path: crate::plan::EvalPath, cache_hit: bool, lag: u64) {
        use crate::plan::EvalPath;
        self.queries.fetch_add(1, Ordering::Relaxed);
        let cell = match path {
            EvalPath::ExactColumnar => &self.exact,
            EvalPath::MonteCarlo => &self.monte_carlo,
            EvalPath::Hybrid => &self.hybrid,
        };
        cell.fetch_add(1, Ordering::Relaxed);
        if cache_hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        if lag > 0 {
            self.lagged_reads.fetch_add(1, Ordering::Relaxed);
            raise_max(&self.max_lag, lag);
        }
    }

    /// One request that ended in an error (planning error, or a worker
    /// panic contained by the job harness).
    pub(super) fn failed(&self) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// The writer published a generation.
    pub(super) fn published(&self) {
        self.publishes.fetch_add(1, Ordering::Relaxed);
    }

    pub(super) fn snapshot(
        &self,
        generation: u64,
        plan_cache: PlanCacheStats,
        catalog_provenance: u64,
    ) -> ServerStats {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ServerStats {
            queries: load(&self.queries),
            exact: load(&self.exact),
            monte_carlo: load(&self.monte_carlo),
            hybrid: load(&self.hybrid),
            cache_hits: load(&self.cache_hits),
            errors: load(&self.errors),
            publishes: load(&self.publishes),
            generation,
            queue_depth: load(&self.queue_depth),
            max_queue_depth: load(&self.max_queue_depth),
            lagged_reads: load(&self.lagged_reads),
            max_lag: load(&self.max_lag),
            rejected: load(&self.rejected),
            expired: load(&self.expired),
            coalesced: load(&self.coalesced),
            abandoned: load(&self.abandoned),
            plan_cache,
            catalog_provenance,
        }
    }
}

/// FNV-1a digest of every relation's name and recorded provenance (see
/// [`crate::ProbDb::set_provenance`]) in the published catalog, sorted by
/// relation name — a stable fingerprint of *which* engines (or learned
/// ensemble mixtures) derived the data a server is answering from. `0`
/// when the catalog is empty; relations without provenance contribute
/// their name only, so hand-built and derived catalogs still digest
/// differently.
pub(super) fn provenance_digest(catalog: &crate::Catalog) -> u64 {
    let mut entries: Vec<(&str, Option<&str>)> = catalog
        .iter()
        .map(|(name, db)| (name, db.provenance()))
        .collect();
    if entries.is_empty() {
        return 0;
    }
    entries.sort_unstable();
    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            acc = (acc ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (name, provenance) in entries {
        eat(name.as_bytes());
        eat(&[0]);
        eat(provenance.unwrap_or("").as_bytes());
        eat(&[0]);
    }
    acc
}

/// A point-in-time snapshot of the server's cumulative counters, plus
/// the shared plan cache's [`PlanCacheStats`]. Returned by
/// [`super::ProbDbServer::stats`] and [`super::ServerHandle::stats`];
/// the serve bench reporter records these next to its latency numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Requests that produced a reply (answers and errors alike).
    pub queries: u64,
    /// Answers served on [`crate::EvalPath::ExactColumnar`].
    pub exact: u64,
    /// Answers served on [`crate::EvalPath::MonteCarlo`].
    pub monte_carlo: u64,
    /// Answers served on [`crate::EvalPath::Hybrid`].
    pub hybrid: u64,
    /// Answers planned from a warm plan-cache entry
    /// ([`crate::PlanRoute::CacheHit`]).
    pub cache_hits: u64,
    /// Requests that ended in an error (including worker panics the job
    /// harness contained).
    pub errors: u64,
    /// Generations published by the writer.
    pub publishes: u64,
    /// The currently published generation number.
    pub generation: u64,
    /// Requests submitted but not yet picked up by a worker.
    pub queue_depth: u64,
    /// High-water mark of [`ServerStats::queue_depth`].
    pub max_queue_depth: u64,
    /// Answers computed against a snapshot that trailed the published
    /// head (a publish landed between snapshot pin and answer): the
    /// shape of snapshot isolation, never an inconsistency.
    pub lagged_reads: u64,
    /// Largest generation distance ever observed by a lagged read.
    pub max_lag: u64,
    /// Submits refused at admission because the queue was at
    /// [`super::ServeConfig::max_queue_depth`]. Not counted in
    /// [`ServerStats::queries`]: nothing was enqueued or evaluated.
    pub rejected: u64,
    /// Jobs a worker dropped unevaluated because their submission
    /// deadline had already passed in the queue (the waiter gets
    /// [`crate::ProbDbError::DeadlineExceeded`] if it is still there).
    pub expired: u64,
    /// Answers fanned out from another identical request's evaluation
    /// (same query shape, statistic and generation) instead of paying
    /// for their own. Counted in [`ServerStats::queries`] and the
    /// per-path counters like any served answer.
    pub coalesced: u64,
    /// Jobs skipped unevaluated because their [`super::Ticket`] was
    /// dropped before a worker picked them up.
    pub abandoned: u64,
    /// The shared concurrent plan cache's counters.
    pub plan_cache: PlanCacheStats,
    /// FNV-1a digest of the published catalog's per-relation provenance
    /// strings (engine names or learned-ensemble weight fingerprints):
    /// records *which* derivation produced the data every answer in this
    /// snapshot of the counters ran against. Changes whenever a publish
    /// swaps in a catalog derived differently; `0` for an empty catalog.
    pub catalog_provenance: u64,
}
