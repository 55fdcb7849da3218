//! The concurrent serving layer: generations of immutable catalog
//! snapshots behind a long-lived worker pool.
//!
//! The paper's engine answers one query at a time against a catalog it
//! borrows; a service holds the catalog for years and answers many
//! queries at once while new data keeps arriving. [`ProbDbServer`] closes
//! that gap with a classic snapshot architecture:
//!
//! * **Generations.** The server owns an [`Arc<Snapshot>`] — an immutable
//!   [`Catalog`] stamped with a monotonically increasing generation
//!   number — published behind an atomic epoch counter. Readers pin the
//!   current snapshot and keep using it for the whole query; a publish
//!   never mutates data a reader can see, so there is no torn state to
//!   observe and nothing to lock during evaluation.
//! * **Lock-free reads in steady state.** Each worker caches the pinned
//!   `Arc` thread-locally and revalidates it against the epoch counter
//!   (one relaxed-cost atomic load) per request; the snapshot mutex is
//!   touched only in the request that observes a new epoch.
//! * **Copy-on-write ingestion.** A single writer builds the next
//!   generation from the current one: [`Catalog`] clones share every
//!   relation behind an `Arc`, and only relations the writer actually
//!   touches are copied ([`Catalog::get_mut`]) — at segment granularity:
//!   the copy shares every row segment ([`crate::Segmented`]) with the
//!   published one, and a push then copies only the tail segment it lands
//!   in (the contiguous columnar mirror is still copied whole). Publishing
//!   swaps the snapshot pointer and bumps the epoch — atomic, and
//!   invisible to in-flight readers until their next request. A writer
//!   that dies mid-build ([`GenerationBuilder`] dropped, or the closure
//!   passed to [`ProbDbServer::update`] panics) leaves the published
//!   snapshot untouched.
//! * **Warm plans across generations.** All workers share one concurrent
//!   [`PlanCache`]. Untouched relations keep their
//!   [`crate::ProbDb::version`] and per-shard stamps through a publish
//!   (the `Arc` is the same object), so memoized registers stay valid; for touched relations the
//!   stamps prove exactly which leading-key ranges moved and the memo is
//!   *patched*, not rebuilt — the PR 7 incremental machinery, carried
//!   across generations.
//!
//! Requests flow through an `std::sync::mpsc` queue to the pool (the
//! build environment is offline: no async runtime, just std threads and
//! the vendored rayon shim inside the evaluators). [`ServerHandle`] is a
//! cheap clone per client thread; [`ServerStats`] exposes per-path
//! counts, cache warmth, generation lag and queue depth for the serve
//! bench reporter.
//!
//! **Overload & degradation.** The queue does not grow without bound:
//!
//! * **Admission control.** [`ServeConfig::max_queue_depth`] bounds the
//!   submitted-but-not-picked-up backlog; a submit past the bound fails
//!   fast with [`ProbDbError::Overloaded`] and enqueues nothing.
//! * **Deadlines.** [`ServerHandle::submit_with_deadline`] stamps the
//!   job; a worker that picks it up after the deadline drops it
//!   unevaluated (counted in [`ServerStats::expired`]), and
//!   [`Ticket::wait_timeout`] bounds the client's wait. Dropping a
//!   [`Ticket`] marks the job abandoned so workers skip it without
//!   paying for evaluation ([`ServerStats::abandoned`]).
//! * **Request coalescing.** Identical concurrent requests — same query
//!   shape, same statistic, same catalog generation — share one
//!   evaluation: the first worker to pick one up registers it in-flight,
//!   later workers attach their reply channels and move on, and the
//!   single answer fans out to every waiter bit-identically
//!   ([`ServerStats::coalesced`]). The in-flight table is probed by a
//!   64-bit shape hash, but a request attaches only after its flattened
//!   shape compares equal to the in-flight one; a colliding different
//!   query evaluates on its own. The plan cache dedupes *planning*;
//!   coalescing dedupes *execution*.
//! * **Hot-shape promotion.** Shapes that keep hitting the striped plan
//!   cache are promoted into a small lock-free hot table probed before
//!   any stripe lock ([`ServerStats::hot_hits`]), so the steady-state
//!   hot path runs without taking a single lock on the planning side.
//!
//! ```
//! use mrsl_probdb::serve::ProbDbServer;
//! use mrsl_probdb::{Alternative, Block, Catalog, Predicate, ProbDb, Query};
//! use mrsl_relation::{AttrId, CompleteTuple, Schema, ValueId};
//!
//! // One uncertain tuple: key "a" with probability 0.5, else "b".
//! let coin = |key: usize| {
//!     Block::new(key, vec![
//!         Alternative { tuple: CompleteTuple::from_values(vec![0]), prob: 0.5 },
//!         Alternative { tuple: CompleteTuple::from_values(vec![1]), prob: 0.5 },
//!     ])
//!     .unwrap()
//! };
//! let schema = Schema::builder().attribute("k", ["a", "b"]).build().unwrap();
//! let mut db = ProbDb::new(schema);
//! db.push_block(coin(0)).unwrap();
//! let mut catalog = Catalog::new();
//! catalog.add("r", db).unwrap();
//!
//! let server = ProbDbServer::start(catalog);
//! let handle = server.handle();
//! let is_a = Query::scan("r").filter(Predicate::eq(AttrId(0), ValueId(0)));
//! let (p, _) = handle.probability(&is_a).unwrap();
//! assert_eq!(p, 0.5);
//!
//! // Ingestion publishes generation 1 copy-on-write; the next read
//! // sees it.
//! let (generation, _) = server.update(|catalog| {
//!     catalog.get_mut("r").unwrap().push_block(coin(1)).unwrap();
//! });
//! assert_eq!(generation, 1);
//! let (p, _) = handle.probability(&is_a).unwrap();
//! assert_eq!(p, 0.75);
//! server.shutdown();
//! ```

mod stats;

pub use stats::ServerStats;

use crate::algebra::{Flattened, Query, Statistic};
use crate::catalog::Catalog;
use crate::plan::{
    CatalogEngine, EvalReport, PlanCache, PlanRoute, ProbabilityBounds, QueryAnswer,
    QueryEngineConfig,
};
use crate::ProbDbError;
use stats::ServerCounters;
use std::collections::hash_map::{Entry, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An immutable catalog generation: the unit of publication. Readers pin
/// one and evaluate against it for the whole query; the writer never
/// mutates a published snapshot (copy-on-write builds the next one).
#[derive(Debug)]
pub struct Snapshot {
    generation: u64,
    catalog: Arc<Catalog>,
}

impl Snapshot {
    /// The generation number: `0` for the catalog the server started
    /// with, `+1` per publish.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The catalog of this generation.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }
}

/// Server configuration: pool size, overload policy, and the engine
/// configuration every worker evaluates with.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads in the pool; `0` (the default) starts one per host
    /// core, but never fewer than two — one worker can always make
    /// progress on reads while another is stuck in a long evaluation,
    /// and publishes (which never ride the queue) stay safe either way.
    pub workers: usize,
    /// Admission-control bound: when this many requests are already
    /// submitted but not yet picked up, [`ServerHandle::submit`] fails
    /// fast with [`ProbDbError::Overloaded`] instead of growing the
    /// backlog. `0` (the default) leaves the queue unbounded.
    pub max_queue_depth: usize,
    /// When `true` (the default), identical concurrent requests — same
    /// query shape, statistic and catalog generation — share one
    /// evaluation, and the answer fans out to every waiter
    /// ([`ServerStats::coalesced`]).
    pub coalesce_requests: bool,
    /// Engine configuration shared by all workers.
    /// [`QueryEngineConfig::plan_cache_capacity`] sizes the one
    /// concurrent plan cache the pool shares.
    pub engine: QueryEngineConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            max_queue_depth: 0,
            coalesce_requests: true,
            engine: QueryEngineConfig::default(),
        }
    }
}

/// One served answer, stamped with the generation it was computed
/// against.
#[derive(Debug, Clone)]
pub struct Served {
    /// The statistic's answer.
    pub answer: QueryAnswer,
    /// The planner's report for this evaluation.
    pub report: EvalReport,
    /// Generation of the snapshot the answer was computed against.
    pub generation: u64,
}

/// A pending reply: returned by [`ServerHandle::submit`], redeemed with
/// [`Ticket::wait`] or [`Ticket::wait_timeout`]. Dropping it abandons
/// the request: a worker that picks the job up afterwards skips it
/// without evaluating ([`ServerStats::abandoned`]); if evaluation
/// already started, the answer is simply discarded.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<Served, ProbDbError>>,
    abandoned: Arc<AtomicBool>,
}

impl Ticket {
    /// Blocks until the worker replies. Returns
    /// [`ProbDbError::ServerUnavailable`] when the server shut down (or
    /// the evaluating worker died) before answering.
    pub fn wait(self) -> Result<Served, ProbDbError> {
        self.rx
            .recv()
            .unwrap_or(Err(ProbDbError::ServerUnavailable))
    }

    /// Blocks at most `timeout` for the reply. On timeout returns
    /// [`ProbDbError::DeadlineExceeded`] and abandons the request (the
    /// ticket is consumed, so a worker that has not started it yet will
    /// skip it). [`ProbDbError::ServerUnavailable`] when the server shut
    /// down before answering.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Served, ProbDbError> {
        match self.rx.recv_timeout(timeout) {
            Ok(outcome) => outcome,
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ProbDbError::DeadlineExceeded),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ProbDbError::ServerUnavailable),
        }
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        // `std::sync::mpsc` senders can't observe receiver liveness, so
        // the ticket flags abandonment explicitly for the worker to see.
        self.abandoned.store(true, Ordering::Release);
    }
}

/// Decrements the queue-depth gauge exactly once, whichever way the
/// request leaves the queue: worker pickup, admission bounce after
/// counting itself in, or the channel dropping it at teardown.
#[derive(Debug)]
struct DepthGuard {
    shared: Arc<Shared>,
}

impl Drop for DepthGuard {
    fn drop(&mut self) {
        self.shared.counters.dequeued();
    }
}

struct QueryJob {
    query: Query,
    stat: Statistic,
    reply: Reply,
    /// Set by [`Ticket::drop`]; checked at pickup so dead requests never
    /// pay for evaluation.
    abandoned: Arc<AtomicBool>,
    /// Requests past this instant at pickup are dropped unevaluated.
    deadline: Option<Instant>,
    /// Set when this request is eligible for coalescing with identical
    /// concurrent ones.
    shape: Option<CoalesceShape>,
    /// Dropped first thing at pickup (and automatically if the job dies
    /// in the channel).
    depth: DepthGuard,
}

/// What identifies a coalescable request: the statistic's cache tag and
/// the flattened query shape, with the shape's 64-bit hash as the probe
/// key of the in-flight table.
struct CoalesceShape {
    tag: u8,
    hash: u64,
    flat: Flattened,
}

#[cfg(test)]
thread_local! {
    /// Test hook: while set, every request submitted from this thread
    /// probes the in-flight table under one shape hash, so any two
    /// coalescable requests collide.
    static COLLIDE_SHAPES: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The in-flight probe hash of a flattened shape.
fn coalesce_hash(flat: &Flattened) -> u64 {
    #[cfg(test)]
    if COLLIDE_SHAPES.with(std::cell::Cell::get) {
        return 0;
    }
    flat.shape_hash()
}

enum Job {
    Query(Box<QueryJob>),
    /// Stops the worker that receives it (one is queued per worker at
    /// shutdown; queries already queued ahead of them still drain).
    Shutdown,
}

/// State shared by the server, every handle and every worker.
#[derive(Debug)]
struct Shared {
    /// The published generation number. Written only under the snapshot
    /// mutex, read lock-free by every request to revalidate the worker's
    /// thread-local snapshot pin.
    epoch: AtomicU64,
    /// The published snapshot. The mutex guards pointer swaps only —
    /// held for an `Arc` clone, never during evaluation.
    current: Mutex<Arc<Snapshot>>,
    /// The concurrent plan cache all workers share.
    cache: Arc<PlanCache>,
    config: QueryEngineConfig,
    counters: ServerCounters,
    /// [`ServeConfig::max_queue_depth`]; `0` means unbounded.
    max_queue_depth: u64,
    /// [`ServeConfig::coalesce_requests`].
    coalesce: bool,
    /// In-flight evaluations, keyed by `(statistic tag, shape hash,
    /// generation)`. The evaluating worker owns the entry; workers that
    /// pick up a request with an equal flattened shape while it exists
    /// park their reply sender here and move on.
    inflight: Mutex<InflightTable>,
}

type Reply = mpsc::Sender<Result<Served, ProbDbError>>;

/// One in-flight evaluation: the shape being evaluated (compared on every
/// probe hit, since hashes can collide) and the parked waiters.
#[derive(Debug)]
struct Inflight {
    flat: Flattened,
    waiters: Vec<Reply>,
}

type InflightTable = HashMap<(u8, u64, u64), Inflight>;

impl Shared {
    fn lock_current(&self) -> MutexGuard<'_, Arc<Snapshot>> {
        // A panicking writer poisons nothing observable: the snapshot is
        // only ever replaced whole, so the value under a poisoned lock is
        // still the last published generation.
        self.current.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The current snapshot, served from `local` when its generation
    /// still matches the epoch — the steady-state path costs one atomic
    /// load and no lock.
    fn pin(&self, local: &mut Option<Arc<Snapshot>>) -> Arc<Snapshot> {
        let epoch = self.epoch.load(Ordering::Acquire);
        if let Some(snap) = local {
            if snap.generation == epoch {
                return snap.clone();
            }
        }
        let fresh = self.lock_current().clone();
        *local = Some(fresh.clone());
        fresh
    }

    /// Evaluates one query against a pinned snapshot, panic-contained.
    fn evaluate_on(
        &self,
        snap: &Snapshot,
        query: &Query,
        stat: Statistic,
    ) -> Result<Served, ProbDbError> {
        let engine = CatalogEngine::with_plan_cache(&snap.catalog, self.config, self.cache.clone());
        let outcome = catch_unwind(AssertUnwindSafe(|| engine.evaluate(query, stat)));
        match outcome {
            Ok(Ok((answer, report))) => Ok(Served {
                answer,
                report,
                generation: snap.generation,
            }),
            Ok(Err(e)) => Err(e),
            // A panic inside evaluation is contained to the request: the
            // worker survives, the client sees `ServerUnavailable`.
            Err(_) => Err(ProbDbError::ServerUnavailable),
        }
    }

    /// Records one delivered outcome in the counters — once per waiter,
    /// so fanned-out answers count like any served answer and the
    /// `exact + monte_carlo + hybrid == queries` invariant holds.
    fn record_outcome(&self, outcome: &Result<Served, ProbDbError>) {
        match outcome {
            Ok(served) => {
                let lag = self
                    .epoch
                    .load(Ordering::Acquire)
                    .saturating_sub(served.generation);
                self.counters.served(
                    served.report.path,
                    served.report.route == PlanRoute::CacheHit,
                    lag,
                );
            }
            Err(_) => self.counters.failed(),
        }
    }

    fn lock_inflight(&self) -> MutexGuard<'_, InflightTable> {
        self.inflight.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs one picked-up job end to end: liveness and deadline checks,
    /// then either attaches to an identical in-flight evaluation or
    /// evaluates (and fans the answer out to everyone who attached).
    fn process(&self, local: &mut Option<Arc<Snapshot>>, job: QueryJob) {
        let QueryJob {
            query,
            stat,
            reply,
            abandoned,
            deadline,
            shape,
            depth,
        } = job;
        // Picked up: the request is out of the queue whatever happens next.
        drop(depth);
        if abandoned.load(Ordering::Acquire) {
            self.counters.abandoned();
            return;
        }
        if let Some(deadline) = deadline {
            if Instant::now() >= deadline {
                self.counters.expired();
                let _ = reply.send(Err(ProbDbError::DeadlineExceeded));
                return;
            }
        }
        let snap = self.pin(local);
        let key = match shape {
            Some(CoalesceShape { tag, hash, flat }) if self.coalesce => {
                let key = (tag, hash, snap.generation);
                match self.lock_inflight().entry(key) {
                    Entry::Occupied(mut entry) if entry.get().flat.same_shape(&flat) => {
                        // An identical request is already evaluating against
                        // this very generation: park the reply and free this
                        // worker.
                        entry.get_mut().waiters.push(reply);
                        return;
                    }
                    // A different shape collided on the hash and holds the
                    // entry: evaluate on our own.
                    Entry::Occupied(_) => None,
                    Entry::Vacant(slot) => {
                        slot.insert(Inflight {
                            flat,
                            waiters: Vec::new(),
                        });
                        Some(key)
                    }
                }
            }
            _ => None,
        };
        // Evaluate outside any lock; an owned entry fans the answer out.
        let outcome = self.evaluate_on(&snap, &query, stat);
        if let Some(key) = key {
            let entry = self.lock_inflight().remove(&key);
            for waiter in entry.map_or_else(Vec::new, |e| e.waiters) {
                self.counters.coalesced();
                self.record_outcome(&outcome);
                let _ = waiter.send(outcome.clone());
            }
        }
        self.record_outcome(&outcome);
        let _ = reply.send(outcome);
    }

    fn stats(&self) -> ServerStats {
        let provenance = stats::provenance_digest(&self.lock_current().catalog);
        self.counters.snapshot(
            self.epoch.load(Ordering::Acquire),
            self.cache.stats(),
            provenance,
        )
    }
}

fn worker_loop(shared: Arc<Shared>, jobs: Arc<Mutex<mpsc::Receiver<Job>>>) {
    let mut local: Option<Arc<Snapshot>> = None;
    loop {
        // Hold the receiver lock only to pull the next job, never while
        // evaluating — the queue stays live for the rest of the pool.
        let job = {
            let rx = jobs.lock().unwrap_or_else(PoisonError::into_inner);
            rx.recv()
        };
        match job {
            // Failed sends inside `process` just discard answers whose
            // clients dropped their tickets.
            Ok(Job::Query(job)) => shared.process(&mut local, *job),
            // Channel closed (server dropped without shutdown) or an
            // explicit stop: either way this worker is done.
            Ok(Job::Shutdown) | Err(_) => return,
        }
    }
}

/// A cheap, cloneable client of a [`ProbDbServer`]: submits queries to
/// the worker pool and reads server state. One handle per client thread
/// is the intended shape.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    tx: mpsc::Sender<Job>,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Enqueues a query without blocking; redeem the [`Ticket`] for the
    /// answer. Fails fast with [`ProbDbError::Overloaded`] when the
    /// queue is at [`ServeConfig::max_queue_depth`] — nothing is
    /// enqueued. Queries submitted before a shutdown still drain.
    pub fn submit(&self, query: Query, stat: Statistic) -> Result<Ticket, ProbDbError> {
        self.submit_inner(query, stat, None)
    }

    /// Like [`ServerHandle::submit`], but stamps the request with a
    /// deadline `timeout` from now: a worker that picks it up after the
    /// deadline drops it unevaluated and replies
    /// [`ProbDbError::DeadlineExceeded`]. Pair with
    /// [`Ticket::wait_timeout`] to bound the client-side wait too.
    pub fn submit_with_deadline(
        &self,
        query: Query,
        stat: Statistic,
        timeout: Duration,
    ) -> Result<Ticket, ProbDbError> {
        self.submit_inner(query, stat, Some(Instant::now() + timeout))
    }

    fn submit_inner(
        &self,
        query: Query,
        stat: Statistic,
        deadline: Option<Instant>,
    ) -> Result<Ticket, ProbDbError> {
        // Count the request in first, then check the bound: concurrent
        // submitters each see a depth that includes themselves, so the
        // backlog can never exceed the bound no matter the interleaving.
        let depth = self.shared.counters.enqueued();
        let guard = DepthGuard {
            shared: self.shared.clone(),
        };
        let bound = self.shared.max_queue_depth;
        if bound > 0 && depth > bound {
            self.shared.counters.rejected();
            // `guard` drops here and unwinds the provisional count.
            return Err(ProbDbError::Overloaded);
        }
        let shape = crate::plan::statistic_cache_tag(stat).and_then(|tag| {
            let flat = query.flatten().ok()?;
            Some(CoalesceShape {
                tag,
                hash: coalesce_hash(&flat),
                flat,
            })
        });
        let (reply, rx) = mpsc::channel();
        let abandoned = Arc::new(AtomicBool::new(false));
        let job = QueryJob {
            query,
            stat,
            reply,
            abandoned: abandoned.clone(),
            deadline,
            shape,
            depth: guard,
        };
        // Pool gone: the job (and its reply sender) drops, which turns
        // the ticket into `ServerUnavailable` without blocking, and the
        // depth guard unwinds the count.
        let _ = self.tx.send(Job::Query(Box::new(job)));
        Ok(Ticket { rx, abandoned })
    }

    /// Submits and blocks for the answer.
    pub fn evaluate(&self, query: &Query, stat: Statistic) -> Result<Served, ProbDbError> {
        self.submit(query.clone(), stat)?.wait()
    }

    /// Submits with a deadline and waits at most that long: the request
    /// is dropped unevaluated if it expires in the queue, and the wait
    /// returns [`ProbDbError::DeadlineExceeded`] (abandoning the answer)
    /// if the deadline passes first.
    pub fn evaluate_within(
        &self,
        query: &Query,
        stat: Statistic,
        timeout: Duration,
    ) -> Result<Served, ProbDbError> {
        self.submit_with_deadline(query.clone(), stat, timeout)?
            .wait_timeout(timeout)
    }

    /// Convenience: `P(result non-empty)` with its report.
    pub fn probability(&self, query: &Query) -> Result<(f64, EvalReport), ProbDbError> {
        match self.evaluate(query, Statistic::Probability)? {
            Served {
                answer: QueryAnswer::Probability { p, .. },
                report,
                ..
            } => Ok((p, report)),
            _ => unreachable!("probability query answers with a probability"),
        }
    }

    /// Convenience: guaranteed probability bounds with their report.
    pub fn probability_bounds(
        &self,
        query: &Query,
    ) -> Result<(ProbabilityBounds, EvalReport), ProbDbError> {
        match self.evaluate(query, Statistic::ProbabilityBounds)? {
            Served {
                answer: QueryAnswer::Bounds(b),
                report,
                ..
            } => Ok((b, report)),
            _ => unreachable!("probability-bounds query answers with bounds"),
        }
    }

    /// Convenience: expected result count with its report.
    pub fn expected_count(&self, query: &Query) -> Result<(f64, EvalReport), ProbDbError> {
        match self.evaluate(query, Statistic::ExpectedCount)? {
            Served {
                answer: QueryAnswer::Count { mean, .. },
                report,
                ..
            } => Ok((mean, report)),
            _ => unreachable!("expected-count query answers with a count"),
        }
    }

    /// Pins the currently published snapshot (for direct, in-thread
    /// evaluation or inspection).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.shared.lock_current().clone()
    }

    /// The server's cumulative counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }
}

/// An in-progress next generation: a copy-on-write catalog the writer
/// mutates freely while readers keep serving the published snapshot.
/// Obtained from [`ProbDbServer::begin_update`]; holds the writer lock,
/// so at most one exists at a time. [`GenerationBuilder::publish`] makes
/// it visible atomically; dropping it (abandonment, or a panic anywhere
/// mid-build) discards it without a trace.
#[derive(Debug)]
pub struct GenerationBuilder<'a> {
    shared: &'a Shared,
    _writer: MutexGuard<'a, ()>,
    catalog: Catalog,
    base: u64,
}

impl GenerationBuilder<'_> {
    /// The next generation's catalog, mutable. Relations untouched so
    /// far still share storage with the published snapshot;
    /// [`Catalog::get_mut`] copies one on first touch, sharing its row
    /// segments until a write lands in them.
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Generation of the snapshot this build started from.
    pub fn base_generation(&self) -> u64 {
        self.base
    }

    /// Publishes the built catalog as the next generation and returns
    /// its number. In-flight readers finish on the old snapshot; every
    /// request pinned after this sees the new one.
    pub fn publish(self) -> u64 {
        let generation = self.base + 1;
        let snapshot = Arc::new(Snapshot {
            generation,
            catalog: Arc::new(self.catalog),
        });
        let mut current = self.shared.lock_current();
        *current = snapshot;
        // Release-store after the swap: a reader that sees the new epoch
        // lock-free will find the new snapshot under the mutex.
        self.shared.epoch.store(generation, Ordering::Release);
        drop(current);
        self.shared.counters.published();
        generation
    }

    /// Discards the build; the published snapshot is untouched. (Plain
    /// drop does the same — this just names the intent.)
    pub fn abandon(self) {}
}

/// A long-lived server over generations of immutable catalog snapshots.
/// See the [module docs](self) for the architecture.
///
/// The server itself is the single writer ([`ProbDbServer::update`] /
/// [`ProbDbServer::begin_update`]); any number of [`ServerHandle`]
/// clients read concurrently. Dropping the server stops the pool
/// ([`ProbDbServer::shutdown`] does it explicitly, draining queued
/// queries first).
#[derive(Debug)]
pub struct ProbDbServer {
    shared: Arc<Shared>,
    tx: mpsc::Sender<Job>,
    workers: Vec<JoinHandle<()>>,
    /// Serializes writers; the guard is what a [`GenerationBuilder`]
    /// holds.
    writer: Mutex<()>,
}

impl ProbDbServer {
    /// Starts a server over `catalog` with [`ServeConfig::default`]: one
    /// worker per host core, default engine configuration.
    pub fn start(catalog: Catalog) -> Self {
        Self::with_config(catalog, ServeConfig::default())
    }

    /// Starts a server over `catalog` (published as generation 0) with
    /// an explicit configuration.
    pub fn with_config(catalog: Catalog, config: ServeConfig) -> Self {
        let workers = match config.workers {
            // Never fewer than two, even on a 1-core host: one worker
            // stuck in a long evaluation must not starve every other
            // read until it finishes.
            0 => std::thread::available_parallelism().map_or(2, |n| usize::from(n).max(2)),
            n => n,
        };
        let shared = Arc::new(Shared {
            epoch: AtomicU64::new(0),
            current: Mutex::new(Arc::new(Snapshot {
                generation: 0,
                catalog: Arc::new(catalog),
            })),
            cache: Arc::new(PlanCache::with_capacity(config.engine.plan_cache_capacity)),
            config: config.engine,
            counters: ServerCounters::default(),
            max_queue_depth: config.max_queue_depth as u64,
            coalesce: config.coalesce_requests,
            inflight: Mutex::new(HashMap::new()),
        });
        let (tx, rx) = mpsc::channel();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("probdb-serve-{i}"))
                    .spawn(move || worker_loop(shared, rx))
                    .expect("spawn serve worker")
            })
            .collect();
        Self {
            shared,
            tx,
            workers,
            writer: Mutex::new(()),
        }
    }

    /// A new client handle (cheap; clone freely, one per client thread).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            tx: self.tx.clone(),
            shared: self.shared.clone(),
        }
    }

    /// Pins the currently published snapshot.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.shared.lock_current().clone()
    }

    /// The currently published generation number.
    pub fn generation(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// The server's cumulative counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Worker threads actually running (after the `workers: 0` → host
    /// cores, minimum two, resolution).
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// The plan cache shared by the worker pool — e.g. to pre-warm it or
    /// to hand the warmth to a successor server.
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.shared.cache
    }

    /// Starts building the next generation copy-on-write; blocks while
    /// another writer holds the builder. Readers are never blocked.
    pub fn begin_update(&self) -> GenerationBuilder<'_> {
        // A writer that panicked mid-build published nothing; recovering
        // the poisoned lock is safe because the builder it held died
        // with its private catalog copy.
        let writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let base = self.shared.lock_current().clone();
        GenerationBuilder {
            shared: &self.shared,
            _writer: writer,
            catalog: (*base.catalog).clone(),
            base: base.generation,
        }
    }

    /// Builds and publishes the next generation in one step: clones the
    /// current catalog copy-on-write, applies `build`, publishes, and
    /// returns the new generation number with `build`'s output. If
    /// `build` panics, nothing is published.
    pub fn update<T>(&self, build: impl FnOnce(&mut Catalog) -> T) -> (u64, T) {
        let mut builder = self.begin_update();
        let out = build(builder.catalog_mut());
        (builder.publish(), out)
    }

    /// Stops the pool: queued queries drain, then the workers exit and
    /// are joined. Handles outlive the server but their submissions
    /// resolve to [`ProbDbError::ServerUnavailable`].
    pub fn shutdown(mut self) {
        self.stop_workers();
    }

    fn stop_workers(&mut self) {
        for _ in &self.workers {
            let _ = self.tx.send(Job::Shutdown);
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ProbDbServer {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Alternative, Block};
    use crate::database::ProbDb;
    use mrsl_relation::{CompleteTuple, Schema};

    fn one_block_catalog(p: f64) -> Catalog {
        let schema = Schema::builder()
            .attribute("k", ["a", "b"])
            .build()
            .unwrap();
        let mut db = ProbDb::new(schema);
        db.push_block(
            Block::new(
                0,
                vec![
                    Alternative {
                        tuple: CompleteTuple::from_values(vec![0]),
                        prob: p,
                    },
                    Alternative {
                        tuple: CompleteTuple::from_values(vec![1]),
                        prob: 1.0 - p,
                    },
                ],
            )
            .unwrap(),
        )
        .unwrap();
        let mut catalog = Catalog::new();
        catalog.add("r", db).unwrap();
        catalog
    }

    #[test]
    fn generations_number_from_zero_and_share_untouched_relations() {
        let server = ProbDbServer::with_config(
            one_block_catalog(0.5),
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        );
        assert_eq!(server.generation(), 0);
        let before = server.snapshot();
        let (generation, ()) = server.update(|_| ());
        assert_eq!(generation, 1);
        // An update that touches nothing still publishes a new
        // generation — whose relations are the same objects.
        assert!(Arc::ptr_eq(
            &before.catalog().get_shared("r").unwrap(),
            &server.snapshot().catalog().get_shared("r").unwrap()
        ));
        assert_eq!(server.stats().publishes, 1);
        server.shutdown();
    }

    #[test]
    fn abandoned_builder_publishes_nothing_and_releases_the_writer() {
        let server = ProbDbServer::start(one_block_catalog(0.5));
        {
            let mut builder = server.begin_update();
            builder
                .catalog_mut()
                .get_mut("r")
                .unwrap()
                .push_certain(CompleteTuple::from_values(vec![1]))
                .unwrap();
            builder.abandon();
        }
        assert_eq!(server.generation(), 0);
        assert_eq!(
            server
                .snapshot()
                .catalog()
                .get("r")
                .unwrap()
                .certain()
                .len(),
            0
        );
        // The writer lock was released: the next update goes through.
        assert_eq!(server.update(|_| ()).0, 1);
    }

    #[test]
    fn stats_fingerprint_the_published_catalog_provenance() {
        let server = ProbDbServer::start(one_block_catalog(0.5));
        let unstamped = server.stats().catalog_provenance;
        assert_ne!(unstamped, 0, "non-empty catalogs digest to non-zero");
        server.update(|catalog| {
            catalog
                .get_mut("r")
                .unwrap()
                .set_provenance("ensemble[gibbs:0.6,independent:0.4]#00c0ffee");
        });
        let stamped = server.stats().catalog_provenance;
        assert_ne!(
            unstamped, stamped,
            "publishing a differently-derived catalog changes the digest"
        );
        // Re-publishing the same provenance is digest-stable.
        server.update(|_| ());
        assert_eq!(server.stats().catalog_provenance, stamped);
        server.shutdown();
    }

    /// The in-flight table is probed by a 64-bit shape hash, and a hash
    /// match alone must never hand one query's answer to a different
    /// query. With every shape forced onto one hash, a different
    /// concurrent query evaluates on its own, while an equal one
    /// still attaches to the in-flight evaluation.
    #[test]
    fn colliding_shape_hashes_never_share_answers() {
        use crate::{CatalogEngine, Predicate, QueryAnswer};
        use mrsl_relation::{AttrId, ValueId};

        COLLIDE_SHAPES.with(|c| c.set(true));
        let coins = |blocks: usize, p: f64| {
            let mut db = one_block_catalog(p).get("r").unwrap().clone();
            for key in 1..blocks {
                let block = db.blocks()[0].clone();
                db.push_block(Block::new(key, block.alternatives().to_vec()).unwrap())
                    .unwrap();
            }
            db
        };
        let mut catalog = Catalog::new();
        catalog.add("big", coins(400, 0.3)).unwrap();
        catalog.add("small", coins(1, 0.3)).unwrap();
        let config = ServeConfig {
            workers: 3,
            engine: QueryEngineConfig {
                force_monte_carlo: true,
                mc_samples: 20_000,
                ..QueryEngineConfig::default()
            },
            ..ServeConfig::default()
        };
        let direct = CatalogEngine::with_config(&catalog, config.engine);
        let bits = |answer: &QueryAnswer| match answer {
            QueryAnswer::Probability { p, .. } => p.to_bits(),
            other => panic!("unexpected answer {other:?}"),
        };
        let want = |q: &Query| bits(&direct.evaluate(q, Statistic::Probability).unwrap().0);
        let slow = Query::scan("big").filter(Predicate::eq(AttrId(0), ValueId(0)));
        let fast = Query::scan("small").filter(Predicate::eq(AttrId(0), ValueId(1)));
        let (slow_bits, fast_bits) = (want(&slow), want(&fast));
        assert_ne!(slow_bits, fast_bits);
        let server = ProbDbServer::with_config(catalog.clone(), config);
        let handle = server.handle();
        let until = |done: &dyn Fn() -> bool| {
            let start = Instant::now();
            while !done() && start.elapsed() < Duration::from_secs(60) {
                std::thread::sleep(Duration::from_millis(1));
            }
            done()
        };
        let waiters = || -> Option<usize> {
            let inflight = server.shared.lock_inflight();
            inflight.values().next().map(|e| e.waiters.len())
        };

        // A slow query claims the in-flight entry...
        let slow_ticket = handle.submit(slow.clone(), Statistic::Probability).unwrap();
        assert!(
            until(&|| waiters() == Some(0)),
            "slow query never went in flight"
        );
        // ...a different query colliding on its hash answers on its own...
        let fast_served = handle.evaluate(&fast, Statistic::Probability).unwrap();
        assert_eq!(bits(&fast_served.answer), fast_bits);
        // ...and an equal query still attaches to the slow evaluation.
        let twin_ticket = handle.submit(slow.clone(), Statistic::Probability).unwrap();
        assert!(until(&|| waiters() == Some(1)), "twin never attached");
        let (slow_served, twin_served) = (slow_ticket.wait().unwrap(), twin_ticket.wait().unwrap());
        assert_eq!(bits(&slow_served.answer), slow_bits);
        assert_eq!(bits(&twin_served.answer), slow_bits);
        let stats = server.stats();
        assert_eq!((stats.queries, stats.coalesced), (3, 1), "{stats:?}");
        server.shutdown();
    }

    #[test]
    fn handles_survive_shutdown_with_a_typed_error() {
        let server = ProbDbServer::start(one_block_catalog(0.5));
        let handle = server.handle();
        server.shutdown();
        let err = handle.probability(&Query::scan("r")).unwrap_err();
        assert_eq!(err, ProbDbError::ServerUnavailable);
        // Queue-depth accounting unwound the failed submit.
        assert_eq!(handle.stats().queue_depth, 0);
    }

    #[test]
    fn planning_errors_come_back_typed() {
        let server = ProbDbServer::start(one_block_catalog(0.5));
        let err = server
            .handle()
            .probability(&Query::scan("missing"))
            .unwrap_err();
        assert_eq!(err, ProbDbError::UnknownRelation("missing".into()));
        assert_eq!(server.stats().errors, 1);
        server.shutdown();
    }
}
