//! The [`ClusterService`]: a shard-routed facade over partitioned [`ClusteringEngine`]s.
//!
//! One [`ClusteringEngine`] is a single-writer pipeline — one core of ingest, however fast the
//! Theorem-1.5 batch paths are. The service scales the *surface* first: a [`ServiceBuilder`]
//! validates a configuration and constructs `num_shards` independent engines plus (when
//! sharded) one *spill* engine, and a router splits the event stream by endpoint partition:
//!
//! * an edge whose endpoints share a shard (per the [`Partitioner`], or the
//!   [`AssignmentTable`] of a stateful partitioner) lives in that shard;
//! * a cross-shard edge lives in the spill shard.
//!
//! Because the partitioner is pure — or, for a
//! [`stateful_partitioner`](ServiceBuilder::stateful_partitioner), because assignments are
//! pinned at first sight and never move — an edge routes to the same shard for its whole
//! lifetime, so per-shard validation stays sound and the shard edge sets *partition* the
//! graph's edge set. That partition is what makes reads exact: connectivity at any threshold in the full
//! graph is the transitive closure of per-shard connectivity, so a [`ServiceSnapshot`] can
//! lazily merge per-shard [`EngineSnapshot`]s with one union-find pass and answer every
//! clustering query the single engine answered — same numbers, shard count notwithstanding.
//!
//! **Who writes, who reads.** Since the handle redesign the service is the *owner* of the
//! shard engines, and callers interact through three decoupled surfaces (see [`crate::ingest`]):
//! clonable [`IngestHandle`]s push events into a bounded submission queue without ever
//! blocking on a flush; one [`FlusherDriver`] owns the service, drains the queue, routes
//! events, and drives flushes per the [`FlushPolicy`]; and [`ReadHandle`]s hand out
//! epoch-pinned [`ServiceSnapshot`]s with `&self`.
//!
//! Flushes exploit the shard independence: a full flush runs every
//! dirty shard's flush *concurrently* on the workspace's work-stealing fork-join pool, joining
//! the per-shard [`FlushReport`]s back in shard order. The parallelism is gated by
//! [`ServiceBuilder::threads`] (default: the pool size, see [`rayon::current_num_threads`]):
//! `threads(1)` reproduces the fully sequential behaviour exactly — same flush order, same
//! early stop on a shard failure — which the determinism tests pin down.

use crate::coalesce::RejectReason;
use crate::delta::{merge_flat_clusterings, DeltaRing, Patch, SnapshotDelta, SyncResponse};
use crate::engine::{ClusteringEngine, EngineError, FlushPhases, FlushReport};
use crate::faults::{FaultPlan, FaultSpecError, InjectedFault};
use crate::ingest::{Backpressure, FlusherDriver, IngestHandle, IngestQueue, ReadHandle};
use crate::metrics::Metrics;
use crate::partition::{
    AssignmentTable, GreedyPartitioner, HashPartitioner, Partitioner, ShardId, StatefulPartitioner,
};
use crate::snapshot::EngineSnapshot;
use crate::snapshot::ThresholdCache;
use dynsld::{DynSldError, DynSldOptions, FlatClustering, ForestBackend};
use dynsld_durable::{CheckpointStore, DurableError, FsyncPolicy, Wal, WalRecord};
use dynsld_forest::workload::GraphUpdate;
use dynsld_forest::{VertexId, Weight};
use dynsld_telemetry::Telemetry;
use rayon::prelude::*;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

#[path = "recovery.rs"]
mod recovery;
use recovery::{JournalEntry, ShardJournal};

/// Why a [`ServiceBuilder`] configuration was rejected by [`ServiceBuilder::build`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `shards(0)`: a service needs at least one routed shard.
    ZeroShards,
    /// `threads(0)`: a service needs at least one flush thread (`threads(1)` is the
    /// sequential mode).
    ZeroThreads,
    /// `queue_capacity(0)`: the submission queue must hold at least one event.
    ZeroQueueCapacity,
    /// [`ServiceBuilder::vertices`] was never called, so the vertex range is unknown.
    MissingVertexCount,
    /// The requested vertex count does not fit the `u32`-indexed [`VertexId`] space.
    VertexCountOverflow {
        /// The vertex count that was asked for.
        requested: usize,
    },
    /// A [`ServiceBuilder::shard_msf_backend`] override named a shard index the built
    /// service will not have.
    ShardIndexOutOfRange {
        /// The shard index the override named.
        shard: usize,
        /// How many engines the configuration builds (routed shards plus any spill shard).
        engines: usize,
    },
    /// A fault spec ([`ServiceBuilder::faults_spec`] or the `DYNSLD_FAULTS` environment
    /// variable) failed to parse; the inner [`FaultSpecError`] names the offending clause.
    BadFaultSpec(FaultSpecError),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroShards => write!(f, "shards(0): at least one shard is required"),
            ConfigError::ZeroThreads => {
                write!(f, "threads(0): at least one flush thread is required")
            }
            ConfigError::ZeroQueueCapacity => {
                write!(
                    f,
                    "queue_capacity(0): the submission queue needs capacity >= 1"
                )
            }
            ConfigError::MissingVertexCount => {
                write!(f, "vertex count not set: call ServiceBuilder::vertices(n)")
            }
            ConfigError::VertexCountOverflow { requested } => write!(
                f,
                "vertex count {requested} exceeds the u32-indexed VertexId space"
            ),
            ConfigError::ShardIndexOutOfRange { shard, engines } => write!(
                f,
                "shard_msf_backend({shard}, ..): the configuration builds {engines} engines \
                 (routed shards first, spill shard last)"
            ),
            ConfigError::BadFaultSpec(err) => write!(f, "bad fault spec: {err}"),
        }
    }
}

/// Errors surfaced by the service — invalid configurations at build time, plus the union of
/// everything the routed engines can report, tagged with the shard that reported it.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceError {
    /// [`ServiceBuilder::build`] rejected the configuration; nothing was constructed.
    InvalidConfig(ConfigError),
    /// An event was inconsistent with its home shard's applied state plus pending buffer; it
    /// was not ingested and the service is unchanged.
    Rejected {
        /// The shard the event was routed to.
        shard: ShardId,
        /// The offending event.
        event: GraphUpdate,
        /// Why the shard rejected it.
        reason: RejectReason,
    },
    /// A shard's underlying structures rejected a batch. Unreachable for streams ingested
    /// through the routing path (validation happens when events are routed); surfaced for
    /// defence in depth.
    Apply {
        /// The shard whose flush failed.
        shard: ShardId,
        /// The underlying error.
        error: DynSldError,
    },
    /// A strict read refused to serve because the named shard is quarantined after a torn
    /// flush panic: its contribution to the merged view is the last state it published
    /// *before* the panic. Non-strict reads ([`ReadHandle::snapshot`]) keep serving that
    /// stale-flagged view; recover the shard with [`ClusterService::recover_shard`].
    ShardQuarantined {
        /// The quarantined shard.
        shard: ShardId,
    },
    /// The durability layer (WAL append/sync, checkpoint write, or recovery) hit an I/O
    /// error or unrecoverable corruption. In-memory state is intact, but crash durability
    /// can no longer be guaranteed past this point.
    Durability {
        /// What the durable layer was doing and what went wrong.
        detail: String,
    },
}

impl ServiceError {
    fn durability(context: &str, error: DurableError) -> Self {
        ServiceError::Durability {
            detail: format!("{context}: {error}"),
        }
    }

    fn from_engine(shard: ShardId, error: EngineError) -> Self {
        match error {
            EngineError::Rejected { event, reason } => ServiceError::Rejected {
                shard,
                event,
                reason,
            },
            EngineError::Apply(error) => ServiceError::Apply { shard, error },
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::InvalidConfig(reason) => {
                write!(f, "invalid service configuration: {reason}")
            }
            ServiceError::Rejected {
                shard,
                event,
                reason,
            } => write!(f, "event {event:?} rejected by {shard}: {reason:?}"),
            ServiceError::Apply { shard, error } => {
                write!(f, "batch application failed on {shard}: {error}")
            }
            ServiceError::ShardQuarantined { shard } => {
                write!(
                    f,
                    "{shard} is quarantined after a flush panic; non-strict reads serve its \
                     last published epoch (stale-flagged) until recover_shard rebuilds it"
                )
            }
            ServiceError::Durability { detail } => {
                write!(f, "durability layer failed: {detail}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// When the service flushes a shard's pending buffer.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Only on explicit flush calls ([`FlusherDriver::flush`]) and the final flush of
    /// [`FlusherDriver::run_until_closed`].
    Manual,
    /// A shard is flushed as soon as its pending buffer reaches `n` coalesced operations
    /// (checked after every routed event). `n` is clamped to at least 1.
    EveryNOps(usize),
    /// Reads observe every routed event: the [`FlusherDriver`] ends every non-empty drain
    /// with a full flush.
    OnRead,
}

/// The health of one shard engine, as tracked by the service and surfaced on
/// [`ServiceFlushReport::shard_health`] and [`ServiceSnapshot::shard_health`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardHealth {
    /// The shard applies and publishes normally.
    Healthy,
    /// A flush panicked after the shard's pending buffer was consumed: the engine's
    /// in-memory state is untrusted and the service no longer submits to or flushes it. Its
    /// last *published* snapshot (taken before the panic, so internally consistent) keeps
    /// backing the merged view, flagged stale ([`ServiceSnapshot::is_stale`]); routed events
    /// keep accumulating in the shard's journal tail until
    /// [`ClusterService::recover_shard`] rebuilds it from the journal.
    Quarantined {
        /// The message of the panic that tore the shard.
        panic: String,
    },
}

impl ShardHealth {
    /// True when the shard is quarantined.
    pub fn is_quarantined(&self) -> bool {
        matches!(self, ShardHealth::Quarantined { .. })
    }
}

/// What [`ClusterService::recover_shard`] did: how much journal it replayed and what the
/// replay rejected (events routed to the shard *during* quarantine are journaled without
/// validation — the torn engine cannot validate — so their rejections surface here, exactly
/// as the no-fault oracle would have rejected them at submit time).
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryReport {
    /// The recovered shard.
    pub shard: ShardId,
    /// Events replayed into the rebuilt engine: the image's live edges plus the tail's
    /// routed events (accepted and rejected). 0 when the shard was healthy.
    pub events_replayed: usize,
    /// Replay-time rejections, in routed order.
    pub rejected: Vec<ServiceError>,
    /// The rebuilt engine's published epoch after the recovery flush.
    pub epoch: u64,
}

/// A shard flush under `catch_unwind`, classified for the retry-or-quarantine policy.
enum CaughtFlush {
    /// The shard was already quarantined; nothing ran.
    Skipped,
    /// The flush ran to completion (successfully or with a typed error).
    Completed(Result<FlushReport, EngineError>),
    /// The flush panicked. `retriable` is true only for an injected entry-mode panic
    /// ([`InjectedFault::at_entry`]), which provably fires before any buffered work is
    /// consumed — everything else is treated as tearing the engine.
    Panicked { message: String, retriable: bool },
}

/// Runs one engine flush with panic isolation.
///
/// `AssertUnwindSafe` is sound here because a panicked engine is never observed again: the
/// caller either retries (entry-mode injected panics, which fire before the flush touches
/// any state) or quarantines the engine, after which the service neither submits to it nor
/// flushes it until [`ClusterService::recover_shard`] replaces it wholesale.
fn flush_catching(engine: &mut ClusteringEngine) -> CaughtFlush {
    match std::panic::catch_unwind(AssertUnwindSafe(|| engine.flush())) {
        Ok(result) => CaughtFlush::Completed(result),
        Err(payload) => {
            let (message, retriable) = if let Some(fault) = payload.downcast_ref::<InjectedFault>()
            {
                (fault.to_string(), fault.at_entry)
            } else if let Some(s) = payload.downcast_ref::<&'static str>() {
                ((*s).to_string(), false)
            } else if let Some(s) = payload.downcast_ref::<String>() {
                (s.clone(), false)
            } else {
                ("non-string panic payload".to_string(), false)
            };
            CaughtFlush::Panicked { message, retriable }
        }
    }
}

/// How a [`ServiceBuilder`] was asked to partition vertices: a pure function, or a stateful
/// assign-on-first-sight chooser that the built service pairs with a fresh
/// [`AssignmentTable`].
#[derive(Clone, Debug)]
enum PartitionerChoice {
    Pure(Arc<dyn Partitioner>),
    Stateful(Arc<dyn StatefulPartitioner>),
}

impl PartitionerChoice {
    /// The builder default, selectable via the `DYNSLD_PARTITIONER` environment variable:
    /// `greedy` picks [`GreedyPartitioner`] (the CI matrix uses this to run the whole suite
    /// under stateful routing), `hash` or unset picks [`HashPartitioner`]. Any other value
    /// falls back to [`HashPartitioner`] with a once-per-process warning on stderr — a
    /// silently ignored typo would defeat the knob's whole purpose (running a test matrix
    /// under stateful routing).
    fn from_env() -> Self {
        match std::env::var("DYNSLD_PARTITIONER").as_deref() {
            Ok("greedy") => PartitionerChoice::Stateful(Arc::new(GreedyPartitioner::default())),
            Ok("hash") | Err(_) => PartitionerChoice::Pure(Arc::new(HashPartitioner)),
            Ok(other) => {
                static WARNED: std::sync::Once = std::sync::Once::new();
                let other = other.to_string();
                WARNED.call_once(|| {
                    eprintln!(
                        "warning: DYNSLD_PARTITIONER={other:?} is not recognized \
                         (expected \"hash\" or \"greedy\"); defaulting to HashPartitioner"
                    );
                });
                PartitionerChoice::Pure(Arc::new(HashPartitioner))
            }
        }
    }
}

/// The routing state a built service owns: the partitioner plus, for stateful partitioners,
/// the append-only [`AssignmentTable`] recording every first-sight pin.
#[derive(Clone, Debug)]
enum Router {
    /// A pure vertex → shard function; no state to thread.
    Pure(Arc<dyn Partitioner>),
    /// An assign-on-first-sight chooser and the table its pins live in.
    Stateful {
        partitioner: Arc<dyn StatefulPartitioner>,
        table: AssignmentTable,
    },
}

impl Router {
    /// Where events the shards will reject for structural invalidity (self-loops, endpoints
    /// outside the vertex range) are sent under a stateful partitioner: the spill shard when
    /// one exists, shard 0 otherwise. Routing them *without pinning anything* keeps a doomed
    /// event from mutating the assignment table — mirroring the pure-partitioner contract
    /// that a rejected submission leaves the service unchanged — and keeps the table's
    /// bounds-checked `assign` from panicking the single-writer driver.
    fn rejection_route(num_shards: usize) -> ShardId {
        if num_shards == 1 {
            ShardId::Routed(0)
        } else {
            ShardId::Spill
        }
    }

    /// True when the shard engines will reject the event before applying it, whatever the
    /// per-edge state: self-loop, or an endpoint outside `0..num_vertices`.
    fn structurally_invalid(table: &AssignmentTable, u: VertexId, v: VertexId) -> bool {
        u == v || u.index() >= table.num_vertices() || v.index() >= table.num_vertices()
    }

    /// Routes edge `{u, v}`, pinning any unassigned endpoint (stateful partitioners only).
    /// `u` is resolved before `v`, so when both endpoints are new the first one is placed
    /// without neighbour evidence and the second sees its partner — the order the
    /// [`GreedyPartitioner`] docs assume.
    fn route_edge_pinned(&mut self, u: VertexId, v: VertexId, num_shards: usize) -> ShardId {
        match self {
            Router::Pure(p) => p.route_edge(u, v, num_shards),
            Router::Stateful { partitioner, table } => {
                if Self::structurally_invalid(table, u, v) {
                    return Self::rejection_route(num_shards);
                }
                let su = match table.get(u) {
                    Some(s) => s,
                    None => {
                        let s = partitioner.choose(u, table.get(v), num_shards, table);
                        table.assign(u, s);
                        s
                    }
                };
                let sv = match table.get(v) {
                    Some(s) => s,
                    None => {
                        let s = partitioner.choose(v, Some(su), num_shards, table);
                        table.assign(v, s);
                        s
                    }
                };
                if su == sv {
                    ShardId::Routed(su)
                } else {
                    ShardId::Spill
                }
            }
        }
    }

    /// The route `route_edge_pinned` *would* take, without committing any pin. Pure routing
    /// and already-pinned endpoint pairs are consulted directly (no allocation); only a
    /// preview involving an *unassigned* endpoint replays against a scratch copy of the
    /// table. Exact as long as no other event is routed in between.
    fn route_edge_preview(&self, u: VertexId, v: VertexId, num_shards: usize) -> ShardId {
        match self {
            Router::Pure(p) => p.route_edge(u, v, num_shards),
            Router::Stateful { partitioner, table } => {
                if Self::structurally_invalid(table, u, v) {
                    return Self::rejection_route(num_shards);
                }
                match (table.get(u), table.get(v)) {
                    // Steady state: both endpoints pinned, read the table directly.
                    (Some(su), Some(sv)) if su == sv => ShardId::Routed(su),
                    (Some(_), Some(_)) => ShardId::Spill,
                    // A first-sight decision is involved: replay on a scratch copy so the
                    // second endpoint's choice sees the first one's hypothetical pin.
                    _ => {
                        let mut scratch = Router::Stateful {
                            partitioner: Arc::clone(partitioner),
                            table: table.clone(),
                        };
                        scratch.route_edge_pinned(u, v, num_shards)
                    }
                }
            }
        }
    }

    fn table(&self) -> Option<&AssignmentTable> {
        match self {
            Router::Pure(_) => None,
            Router::Stateful { table, .. } => Some(table),
        }
    }
}

/// State shared between the service/driver and its [`IngestHandle`]s / [`ReadHandle`]s: the
/// bounded submission queue and the most recently published merged view. Handles hold an
/// `Arc` to this — never to the service itself — which is what lets the single writer own the
/// engines outright while producers and readers stay `&self` and clonable.
#[derive(Debug)]
pub(crate) struct ServiceShared {
    /// The bounded MPSC submission queue ([`IngestHandle`] → [`FlusherDriver`]).
    pub(crate) queue: IngestQueue,
    /// The merged view over the shards' last published states. Refreshed only when a shard
    /// publishes a new state (flush with work, vertex growth), so repeated reads at one epoch
    /// vector share a single merged-clustering cache.
    published: RwLock<ServiceSnapshot>,
    /// The bounded ring of recent publish-step deltas (`ServiceBuilder::delta_ring`). Deltas
    /// are pushed *before* the new view is published, so a reader that observed revision `r`
    /// always finds the chain up to `r` in the ring unless it has aged out.
    deltas: Mutex<DeltaRing>,
    /// Serving-tier counters, surfaced through [`Metrics`].
    pub(crate) serve: ServeCounters,
}

/// Lifetime counters of the delta serving tier, shared between the publishing writer and all
/// [`ReadHandle`]s (relaxed atomics — these are statistics, not synchronization).
#[derive(Debug, Default)]
pub(crate) struct ServeCounters {
    /// Full snapshots handed to sync requests (first syncs and ring-ageout fallbacks).
    pub(crate) snapshots_served: AtomicU64,
    /// Sync requests answered with a delta chain.
    pub(crate) deltas_served: AtomicU64,
    /// Encoded delta bytes written by wire front ends ([`ReadHandle::record_served_bytes`]).
    pub(crate) delta_bytes_out: AtomicU64,
    /// Syncs that *asked* for a delta but fell back to a full snapshot because the requested
    /// revision had aged out of the ring (a subset of `snapshots_served`).
    pub(crate) full_fallbacks: AtomicU64,
    /// Reads and syncs served from a view with at least one quarantined (stale) shard.
    pub(crate) stale_reads_served: AtomicU64,
    /// Server-side wire deadline hits (request reads that timed out and were answered 408),
    /// recorded by wire front ends through [`ReadHandle::record_wire_timeout`].
    pub(crate) wire_timeouts: AtomicU64,
}

// Lock poisoning note: every lock in this struct guards a plain value (a snapshot slot, a
// delta ring, a cache map) whose invariants hold after each individual store — there is no
// multi-step critical section a panicking thread could abandon halfway. Recovering the guard
// with `PoisonError::into_inner` is therefore always sound, and it keeps one panicked reader
// (or a quarantined shard's unwound flush) from cascading into every later access aborting
// the process.
impl ServiceShared {
    /// The currently published merged view (one `Arc` clone under a read lock).
    pub(crate) fn published(&self) -> ServiceSnapshot {
        self.published
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn publish(&self, snapshot: ServiceSnapshot) {
        *self
            .published
            .write()
            .unwrap_or_else(PoisonError::into_inner) = snapshot;
    }

    /// Whether the service retains publish-step deltas at all (ring capacity > 0).
    pub(crate) fn deltas_enabled(&self) -> bool {
        self.deltas
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_enabled()
    }

    fn push_delta(&self, delta: Arc<SnapshotDelta>) {
        self.deltas
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(delta);
    }

    /// The in-process sync protocol behind [`ReadHandle::sync_from`]: answers "what changed
    /// since revision `since`" with the cheapest sufficient response.
    pub(crate) fn sync_from(&self, since: Option<u64>) -> SyncResponse {
        let snapshot = self.published();
        if snapshot.is_stale() {
            self.serve
                .stale_reads_served
                .fetch_add(1, Ordering::Relaxed);
        }
        let revision = snapshot.revision();
        if let Some(since) = since {
            if since == revision {
                return SyncResponse::Unchanged {
                    revision,
                    epochs: snapshot.epochs(),
                };
            }
            if since < revision {
                let chain = self
                    .deltas
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .chain(since, revision);
                if let Some(deltas) = chain {
                    self.serve.deltas_served.fetch_add(1, Ordering::Relaxed);
                    return SyncResponse::Delta(Patch {
                        from_revision: since,
                        to_revision: revision,
                        to_epochs: snapshot.epochs(),
                        deltas,
                    });
                }
            }
            // Aged out of the ring (or a bogus future revision): full fallback.
            self.serve.full_fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        self.serve.snapshots_served.fetch_add(1, Ordering::Relaxed);
        SyncResponse::Full(snapshot)
    }
}

/// Validated configuration for a [`ClusterService`]; built with the builder pattern.
///
/// Every setter stores its argument as-is; [`build`](Self::build) validates the whole
/// configuration at once and returns [`ServiceError::InvalidConfig`] (never panics) on
/// nonsense like `shards(0)` or a missing vertex count.
///
/// ```
/// use dynsld_engine::{FlushPolicy, ServiceBuilder};
///
/// let service = ServiceBuilder::new()
///     .vertices(10_000)
///     .shards(4)
///     .flush_policy(FlushPolicy::EveryNOps(256))
///     .build()
///     .expect("a valid configuration");
/// assert_eq!(service.num_shards(), 4);
/// assert!(ServiceBuilder::new().vertices(8).shards(0).build().is_err());
/// ```
#[derive(Clone, Debug)]
pub struct ServiceBuilder {
    vertices: Option<usize>,
    num_shards: usize,
    partitioner: PartitionerChoice,
    policy: FlushPolicy,
    options: DynSldOptions,
    shard_backends: Vec<(usize, ForestBackend)>,
    threads: Option<usize>,
    queue_capacity: usize,
    backpressure: Backpressure,
    telemetry: Option<Telemetry>,
    delta_ring: usize,
    tracked_thresholds: Vec<Weight>,
    faults: Option<FaultPlan>,
    faults_spec: Option<String>,
    durable_dir: Option<PathBuf>,
    fsync: FsyncPolicy,
    checkpoint_every: u64,
}

impl Default for ServiceBuilder {
    fn default() -> Self {
        ServiceBuilder {
            vertices: None,
            num_shards: 1,
            partitioner: PartitionerChoice::from_env(),
            policy: FlushPolicy::Manual,
            options: DynSldOptions::default(),
            shard_backends: Vec::new(),
            threads: None,
            queue_capacity: 1024,
            backpressure: Backpressure::Block,
            telemetry: None,
            delta_ring: 64,
            tracked_thresholds: Vec::new(),
            faults: None,
            faults_spec: None,
            durable_dir: None,
            fsync: FsyncPolicy::default(),
            checkpoint_every: 256,
        }
    }
}

impl ServiceBuilder {
    /// A builder with the defaults: one shard, [`HashPartitioner`] (overridable process-wide
    /// with `DYNSLD_PARTITIONER=greedy`, which the CI matrix uses to run the whole test suite
    /// under the stateful [`GreedyPartitioner`]), [`FlushPolicy::Manual`], default
    /// [`DynSldOptions`], a 1024-slot submission queue with [`Backpressure::Block`]. An
    /// explicit [`partitioner`](Self::partitioner) / [`stateful_partitioner`](Self::stateful_partitioner)
    /// call always wins over the environment. The vertex count has no default — set it with
    /// [`vertices`](Self::vertices).
    pub fn new() -> Self {
        Self::default()
    }

    /// The service covers vertices `0..n`. Every shard engine covers the full vertex range
    /// (the partitioner splits *edges*, not vertex storage), so any shard can validate and
    /// apply any edge it is routed. Required; [`build`](Self::build) rejects a configuration
    /// that never set it.
    pub fn vertices(mut self, n: usize) -> Self {
        self.vertices = Some(n);
        self
    }

    /// Number of endpoint-partitioned shards (validated ≥ 1 at build time). With more than
    /// one shard, a dedicated spill shard for cross-shard edges is added on top.
    pub fn shards(mut self, n: usize) -> Self {
        self.num_shards = n;
        self
    }

    /// The vertex-to-shard assignment. Must be a pure function of the vertex id (see
    /// [`Partitioner`]).
    pub fn partitioner(mut self, p: impl Partitioner + 'static) -> Self {
        self.partitioner = PartitionerChoice::Pure(Arc::new(p));
        self
    }

    /// A *stateful* assign-on-first-sight partitioner (see [`StatefulPartitioner`]): the
    /// built service owns an append-only [`AssignmentTable`], each vertex is pinned to a
    /// shard the first time the router sees it, and the pin holds for the service's lifetime
    /// — so edges still route to one shard forever and per-shard validation stays sound,
    /// while the *choice* of shard can follow the stream's locality. Pair with
    /// [`GreedyPartitioner`] for the LDG-style greedy rule.
    pub fn stateful_partitioner(mut self, p: impl StatefulPartitioner + 'static) -> Self {
        self.partitioner = PartitionerChoice::Stateful(Arc::new(p));
        self
    }

    /// When shards flush their pending buffers.
    pub fn flush_policy(mut self, policy: FlushPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Dendrogram-maintenance options passed to every shard engine.
    pub fn options(mut self, options: DynSldOptions) -> Self {
        self.options = options;
        self
    }

    /// The MSF replacement-search backend every shard engine uses (shorthand for setting
    /// [`DynSldOptions::msf_backend`] through [`options`](Self::options)). Defaults to the
    /// `DYNSLD_MSF_BACKEND` environment variable via [`DynSldOptions::default`]. Both
    /// backends are bit-identical in results, so this is purely a performance policy; see
    /// the `dynsld-msf` crate docs for the trade-off.
    pub fn msf_backend(mut self, backend: ForestBackend) -> Self {
        self.options.msf_backend = backend;
        self
    }

    /// Overrides the MSF replacement-search backend for one shard engine. `shard` indexes
    /// engines in shard order — routed shards `0..shards`, and on a multi-shard service the
    /// spill shard last (index `shards`) — the same convention fault rules use. Because the
    /// backends are bit-identical, shards can mix freely: a deletion-heavy shard can run
    /// [`ForestBackend::Hdt`] while the rest keep the scan backend. Later overrides for the
    /// same shard win; out-of-range indices are rejected at [`build`](Self::build) time.
    pub fn shard_msf_backend(mut self, shard: usize, backend: ForestBackend) -> Self {
        self.shard_backends.push((shard, backend));
        self
    }

    /// Capacity of the bounded submission queue behind [`IngestHandle`]s (validated ≥ 1 at
    /// build time). Small capacities apply backpressure early; large ones absorb bursts.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// The default [`Backpressure`] mode of handles created by
    /// [`ClusterService::ingest_handle`] (individual handles can override it with
    /// [`IngestHandle::with_backpressure`]).
    pub fn backpressure(mut self, backpressure: Backpressure) -> Self {
        self.backpressure = backpressure;
        self
    }

    /// Service-level flush parallelism (validated ≥ 1 at build time). With `threads(1)` the
    /// service flushes its shards strictly sequentially on the flushing thread — reproducing
    /// the pre-pool behaviour bit for bit, including the early stop on a shard failure. With
    /// `n ≥ 2`, full flushes fan the dirty shards out over the workspace fork-join pool
    /// ([`rayon::join`]); multi-threaded requests are also forwarded to
    /// [`rayon::configure_threads`] so an early-built service can size the lazily-started
    /// pool (`DYNSLD_THREADS` still wins; `threads(1)` is service-local and never shrinks
    /// the shared pool).
    ///
    /// Defaults to [`rayon::current_num_threads`] — i.e. concurrent flushes whenever the
    /// process has a multi-threaded pool.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// The [`Telemetry`] registry the built pipeline records into: queue submit/block-wait
    /// latency, drain sizes, routing time, and per-shard flush-phase histograms all land
    /// here, and [`ClusterService::telemetry`] exposes it for snapshots. Defaults to
    /// [`Telemetry::from_env`] — a true no-op unless `DYNSLD_TRACE=1` — so instrumentation
    /// costs one branch per site when nobody is looking.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Capacity of the publish-step delta ring behind [`ReadHandle::sync_from`]: how many
    /// publishes a subscriber may fall behind and still catch up with a [`Patch`] instead of
    /// a full snapshot. Defaults to 64. `delta_ring(0)` disables delta retention entirely —
    /// publishes skip the diff work and every stale sync is a full-snapshot fallback.
    pub fn delta_ring(mut self, capacity: usize) -> Self {
        self.delta_ring = capacity;
        self
    }

    /// Thresholds whose cluster labels each publish-step delta reports
    /// ([`SnapshotDelta::relabels`]): subscribers watching these cuts learn exactly which
    /// vertices moved without recomputing the clustering. Each tracked threshold costs one
    /// merged-clustering evaluation per publish (cached on the published view, so readers at
    /// the same threshold get it for free). Defaults to none; duplicates are dropped.
    pub fn track_thresholds(mut self, thresholds: impl IntoIterator<Item = Weight>) -> Self {
        for tau in thresholds {
            if !self
                .tracked_thresholds
                .iter()
                .any(|t| t.to_bits() == tau.to_bits())
            {
                self.tracked_thresholds.push(tau);
            }
        }
        self
    }

    /// Arms a deterministic [`FaultPlan`] on the built pipeline: the plan is threaded to
    /// every shard engine (`flush_panic` rules; `shard:<s>` indexes engines in shard order,
    /// so on a sharded service the spill shard is `shard:<num_shards>`) and to the
    /// submission queue (`queue_full` rules). Defaults to [`FaultPlan::from_env`] — a true
    /// no-op unless `DYNSLD_FAULTS` is set — so the hooks cost one branch per site in
    /// production.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Arms a fault plan given as its spec string, parsed (and validated) at
    /// [`build`](Self::build) time: a malformed clause surfaces as
    /// [`ConfigError::BadFaultSpec`] naming the offending rule instead of being silently
    /// ignored. Equivalent to setting `DYNSLD_FAULTS`, but per-service and race-free under
    /// concurrent tests. An explicit [`faults`](Self::faults) plan wins over a spec.
    pub fn faults_spec(mut self, spec: impl Into<String>) -> Self {
        self.faults_spec = Some(spec.into());
        self
    }

    /// Makes the built service *durable*: a write-ahead log and periodic checkpoints live
    /// in `dir`, and [`build`](Self::build) recovers whatever a previous process left
    /// there — it loads the newest valid checkpoint (falling back past a corrupt one),
    /// replays the WAL tail through the normal routing paths, and resumes serving, with
    /// the published revision bumped past the checkpoint's so pre-crash cached validators
    /// never match. Pass the *same* directory across process restarts; state from a
    /// different configuration (other shard count/partitioner) is rejected at build.
    ///
    /// The `DYNSLD_DURABLE_DIR` environment variable arms durability process-wide for
    /// services that did not call this: each such service gets a fresh unique subdirectory
    /// (so independently built services never share a log), which exercises the durable
    /// write path everywhere but — unlike an explicit `durable(dir)` — never recovers
    /// anything.
    pub fn durable(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durable_dir = Some(dir.into());
        self
    }

    /// When WAL appends are forced to stable storage (see [`FsyncPolicy`] for the
    /// trade-off table). Defaults to [`FsyncPolicy::EveryDrain`]. No effect unless the
    /// service is [`durable`](Self::durable).
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// How many WAL records may accumulate before the next end-of-drain opportunity
    /// writes a checkpoint (clamped to ≥ 1, defaults to 256). Checkpoints only happen at
    /// quiescent points — every shard healthy and no pending buffered ops — so the WAL
    /// coverage boundary is exact. No effect unless the service is
    /// [`durable`](Self::durable).
    pub fn checkpoint_every_records(mut self, n: u64) -> Self {
        self.checkpoint_every = n;
        self
    }

    /// Validates the configuration and builds the service (the owner of the shard engines).
    /// Interact with it through [`ClusterService::ingest_handle`],
    /// [`ClusterService::read_handle`], and a [`FlusherDriver`].
    ///
    /// Invalid configurations return [`ServiceError::InvalidConfig`]; see [`ConfigError`]
    /// for the arms.
    pub fn build(self) -> Result<ClusterService, ServiceError> {
        let n = self
            .vertices
            .ok_or(ServiceError::InvalidConfig(ConfigError::MissingVertexCount))?;
        if n as u64 > u64::from(u32::MAX) {
            return Err(ServiceError::InvalidConfig(
                ConfigError::VertexCountOverflow { requested: n },
            ));
        }
        if self.num_shards == 0 {
            return Err(ServiceError::InvalidConfig(ConfigError::ZeroShards));
        }
        if self.threads == Some(0) {
            return Err(ServiceError::InvalidConfig(ConfigError::ZeroThreads));
        }
        if self.queue_capacity == 0 {
            return Err(ServiceError::InvalidConfig(ConfigError::ZeroQueueCapacity));
        }
        // Only multi-threaded requests are forwarded to the (first-request-wins) global pool
        // configuration: `threads(1)` means "flush *this service* sequentially", not "pin the
        // whole process to one thread". The default (`None`) is deliberately *not* resolved
        // here — reading the pool size would start the pool, consuming the one-shot sizing
        // opportunity of any later-built service; it resolves lazily on first use instead.
        if let Some(t) = self.threads {
            if t > 1 {
                rayon::configure_threads(t);
            }
        }
        let num_engines = if self.num_shards == 1 {
            1
        } else {
            self.num_shards + 1 // + the spill shard
        };
        if let Some(&(shard, _)) = self
            .shard_backends
            .iter()
            .find(|&&(shard, _)| shard >= num_engines)
        {
            return Err(ServiceError::InvalidConfig(
                ConfigError::ShardIndexOutOfRange {
                    shard,
                    engines: num_engines,
                },
            ));
        }
        // Resolve the per-engine options up front (base options, then per-shard backend
        // overrides, later overrides winning) and keep them: shard recovery rebuilds an
        // engine from scratch and must reproduce its exact configuration.
        let shard_options: Vec<DynSldOptions> = (0..num_engines)
            .map(|idx| {
                let mut options = self.options;
                for &(shard, backend) in &self.shard_backends {
                    if shard == idx {
                        options.msf_backend = backend;
                    }
                }
                options
            })
            .collect();
        let telemetry = self.telemetry.unwrap_or_else(Telemetry::from_env);
        // An explicit plan wins; then a builder-level spec string; then the environment.
        // Spec strings (from either source) are parsed *here* so a malformed clause is a
        // build-time ConfigError naming the offending rule, not a silently ignored plan.
        let faults = match (self.faults, &self.faults_spec) {
            (Some(plan), _) => plan,
            (None, Some(spec)) => FaultPlan::parse(spec)
                .map_err(|e| ServiceError::InvalidConfig(ConfigError::BadFaultSpec(e)))?,
            (None, None) => FaultPlan::from_env_checked()
                .map_err(|e| ServiceError::InvalidConfig(ConfigError::BadFaultSpec(e)))?,
        };
        let durable_dir = self.durable_dir.clone().or_else(env_durable_dir);
        let engines: Vec<ClusteringEngine> = (0..num_engines)
            .map(|idx| {
                let mut engine = ClusteringEngine::with_options(n, shard_options[idx]);
                engine.set_telemetry(telemetry.clone());
                engine.set_faults(faults.clone(), idx);
                engine
            })
            .collect();
        let published = ServiceSnapshot::merge(
            engines.iter().map(ClusteringEngine::snapshot).collect(),
            0,
            vec![ShardHealth::Healthy; engines.len()],
        );
        let router = match self.partitioner {
            PartitionerChoice::Pure(p) => Router::Pure(p),
            PartitionerChoice::Stateful(p) => Router::Stateful {
                partitioner: p,
                table: AssignmentTable::new(n, self.num_shards),
            },
        };
        let mut service = ClusterService {
            routed_events: vec![0; engines.len()],
            health: vec![ShardHealth::Healthy; engines.len()],
            journals: vec![ShardJournal::new(n, Vec::new()); engines.len()],
            engines,
            num_shards: self.num_shards,
            router,
            policy: self.policy,
            threads: self.threads,
            spill_events: 0,
            edge_inserts_routed: 0,
            edge_inserts_cut: 0,
            backpressure: self.backpressure,
            shared: Arc::new(ServiceShared {
                queue: IngestQueue::new(self.queue_capacity, telemetry.clone(), faults.clone()),
                published: RwLock::new(published),
                deltas: Mutex::new(DeltaRing::new(self.delta_ring)),
                serve: ServeCounters::default(),
            }),
            tracked_thresholds: self.tracked_thresholds,
            telemetry,
            vertices: n,
            shard_options,
            faults,
            panics_caught: 0,
            quarantines: 0,
            recoveries: 0,
            durable: None,
        };
        if let Some(dir) = durable_dir {
            service.attach_durability(&dir, self.fsync, self.checkpoint_every.max(1))?;
        }
        Ok(service)
    }
}

/// Resolves `DYNSLD_DURABLE_DIR` to a fresh per-service subdirectory: services built under
/// the env var (the CI soak mode) each get their own log, keyed by pid plus a process-local
/// counter, so concurrently built services never interleave WAL segments.
fn env_durable_dir() -> Option<PathBuf> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let base = std::env::var_os("DYNSLD_DURABLE_DIR")?;
    let unique = NEXT.fetch_add(1, Ordering::Relaxed);
    Some(PathBuf::from(base).join(format!("svc-{}-{unique}", std::process::id())))
}

/// What one full service flush did: one [`FlushReport`] per shard, in shard order (routed
/// shards first, spill shard last) — or, inside a [`DrainReport`](crate::DrainReport), every
/// flush a drain performed in execution order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServiceFlushReport {
    /// Per-shard reports. Shards with an empty pending buffer contribute a no-op report
    /// (zero ops, epoch unchanged).
    pub reports: Vec<(ShardId, FlushReport)>,
    /// Lifetime routed-event counts per shard at the time of this flush (routed shards
    /// first, spill shard last) — the load-balance view next to
    /// [`spill_routing_share`](Self::spill_routing_share). Populated by every full service
    /// flush ([`FlusherDriver::flush`](crate::FlusherDriver::flush) and policy-driven full
    /// flushes); inside a [`DrainReport`](crate::DrainReport) it holds the latest full
    /// flush's snapshot, and it is empty on the default value (a drain that only performed
    /// per-shard threshold flushes).
    pub shard_event_loads: Vec<(ShardId, u64)>,
    /// Per-shard health after this flush, in shard order. A shard that panicked during this
    /// very flush shows up quarantined here (and contributes a no-op report). Populated by
    /// every full service flush; inside a [`DrainReport`](crate::DrainReport) it holds the
    /// latest full flush's view, and it is empty on the default value.
    pub shard_health: Vec<(ShardId, ShardHealth)>,
    /// Wall-clock time of the whole service flush — the time the flushing thread was
    /// occupied, fan-out and joins included. With concurrent shard flushes this is less than
    /// [`shard_time_sum`](Self::shard_time_sum) (the pool overlaps shards) and at least
    /// [`slowest_shard_time`](Self::slowest_shard_time) (no flush finishes before its
    /// slowest shard). Summed across flushes by report absorption in a
    /// [`DrainReport`](crate::DrainReport).
    pub wall_time: Duration,
}

impl ServiceFlushReport {
    /// Logical operations applied across all shards (after coalescing).
    pub fn ops_applied(&self) -> usize {
        self.reports.iter().map(|(_, r)| r.ops_applied).sum()
    }

    /// Operations that rode the Theorem-1.5 batch fast paths, summed over shards.
    pub fn fast_path(&self) -> usize {
        self.reports.iter().map(|(_, r)| r.fast_path).sum()
    }

    /// Operations applied through the per-edge fallback, summed over shards.
    pub fn fallback(&self) -> usize {
        self.reports.iter().map(|(_, r)| r.fallback).sum()
    }

    /// The epoch vector after the flush, in shard order.
    pub fn epochs(&self) -> Vec<u64> {
        self.reports.iter().map(|(_, r)| r.epoch).collect()
    }

    /// The slowest single shard flush in this report — the critical path of a concurrent
    /// flush: however many threads the pool has, the service flush cannot beat its slowest
    /// shard. Compare with [`shard_time_sum`](Self::shard_time_sum) to see how much work the
    /// pool overlapped, and with [`wall_time`](Self::wall_time) for the fan-out overhead.
    pub fn slowest_shard_time(&self) -> Duration {
        self.reports
            .iter()
            .map(|(_, r)| r.duration)
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// Total busy time across all shard flushes — what a strictly sequential flush would
    /// have cost. `shard_time_sum / wall_time` is the effective flush speedup.
    pub fn shard_time_sum(&self) -> Duration {
        self.reports.iter().map(|(_, r)| r.duration).sum()
    }

    /// Per-stage decomposition summed over every shard flush in the report: total busy time
    /// spent coalescing, classifying (Kruskal partitioning + replacement search), applying
    /// MSF mutations, exporting snapshots, and publishing.
    pub fn phase_totals(&self) -> FlushPhases {
        let mut total = FlushPhases::default();
        for (_, r) in &self.reports {
            total = total.merge(&r.phases);
        }
        total
    }

    /// Number of shards that actually applied operations.
    pub fn shards_flushed(&self) -> usize {
        self.reports
            .iter()
            .filter(|(_, r)| r.ops_applied > 0)
            .count()
    }

    /// Fraction of this flush's applied operations that landed on the spill shard — the
    /// *per-flush* analogue of [`Metrics::spill_routing_share`], so partitioner quality is
    /// observable flush by flush straight from the driver loop instead of only as a lifetime
    /// aggregate. 0 when the flush applied nothing (or the service has no spill shard).
    ///
    /// ```
    /// use dynsld_engine::{BlockPartitioner, FlusherDriver, GraphUpdate, ServiceBuilder};
    /// use dynsld_forest::VertexId;
    ///
    /// let service = ServiceBuilder::new()
    ///     .vertices(8)
    ///     .shards(2)
    ///     .partitioner(BlockPartitioner { block_size: 4 })
    ///     .build()?;
    /// let ingest = service.ingest_handle();
    /// let mut driver = FlusherDriver::new(service);
    ///
    /// let v = |i: u32| VertexId(i);
    /// // Two shard-local edges and one cross-shard edge: 1/3 of the flushed ops spill.
    /// ingest.submit(GraphUpdate::Insert { u: v(0), v: v(1), weight: 1.0 }).unwrap();
    /// ingest.submit(GraphUpdate::Insert { u: v(4), v: v(5), weight: 1.0 }).unwrap();
    /// ingest.submit(GraphUpdate::Insert { u: v(1), v: v(4), weight: 2.0 }).unwrap();
    /// driver.pump()?;
    /// let report = driver.flush()?;
    /// assert!((report.spill_routing_share() - 1.0 / 3.0).abs() < 1e-12);
    /// # Ok::<(), dynsld_engine::ServiceError>(())
    /// ```
    pub fn spill_routing_share(&self) -> f64 {
        let total = self.ops_applied();
        if total == 0 {
            return 0.0;
        }
        let spill: usize = self
            .reports
            .iter()
            .filter(|(id, _)| id.is_spill())
            .map(|(_, r)| r.ops_applied)
            .sum();
        spill as f64 / total as f64
    }

    /// Max/min ratio of the *routed* shards' lifetime event loads (the spill shard is
    /// excluded — its load is what [`spill_routing_share`](Self::spill_routing_share)
    /// measures). 1.0 is perfect balance; [`f64::INFINITY`] when some routed shard has
    /// received no events yet; 0.0 when [`shard_event_loads`](Self::shard_event_loads) is
    /// unpopulated (single-shard threshold flushes, default value).
    ///
    /// ```
    /// use dynsld_engine::{BlockPartitioner, FlusherDriver, GraphUpdate, ServiceBuilder};
    /// use dynsld_forest::VertexId;
    ///
    /// let service = ServiceBuilder::new()
    ///     .vertices(8)
    ///     .shards(2)
    ///     .partitioner(BlockPartitioner { block_size: 4 })
    ///     .build()?;
    /// let ingest = service.ingest_handle();
    /// let mut driver = FlusherDriver::new(service);
    ///
    /// let v = |i: u32| VertexId(i);
    /// // Three events for shard 0, one for shard 1, one cross-shard (spill).
    /// ingest.submit(GraphUpdate::Insert { u: v(0), v: v(1), weight: 1.0 }).unwrap();
    /// ingest.submit(GraphUpdate::Insert { u: v(1), v: v(2), weight: 2.0 }).unwrap();
    /// ingest.submit(GraphUpdate::Insert { u: v(2), v: v(3), weight: 3.0 }).unwrap();
    /// ingest.submit(GraphUpdate::Insert { u: v(4), v: v(5), weight: 1.0 }).unwrap();
    /// ingest.submit(GraphUpdate::Insert { u: v(3), v: v(4), weight: 9.0 }).unwrap();
    /// driver.pump()?;
    /// let report = driver.flush()?;
    /// // Per-shard routed-event loads sit right next to the spill share:
    /// let loads: Vec<u64> = report.shard_event_loads.iter().map(|&(_, c)| c).collect();
    /// assert_eq!(loads, vec![3, 1, 1]); // shard 0, shard 1, spill
    /// assert_eq!(report.event_load_ratio(), 3.0);
    /// assert!((report.spill_routing_share() - 0.2).abs() < 1e-12);
    /// # Ok::<(), dynsld_engine::ServiceError>(())
    /// ```
    pub fn event_load_ratio(&self) -> f64 {
        let routed: Vec<u64> = self
            .shard_event_loads
            .iter()
            .filter(|(id, _)| !id.is_spill())
            .map(|&(_, count)| count)
            .collect();
        let (Some(&max), Some(&min)) = (routed.iter().max(), routed.iter().min()) else {
            return 0.0;
        };
        if min == 0 {
            return f64::INFINITY;
        }
        max as f64 / min as f64
    }

    /// Folds `other` into this report: per-shard flush reports are appended in execution
    /// order, wall time accumulates, and the load snapshot is replaced by `other`'s when
    /// present (loads are lifetime counters, so the later snapshot subsumes the earlier
    /// one).
    pub(crate) fn absorb(&mut self, other: ServiceFlushReport) {
        self.reports.extend(other.reports);
        self.wall_time += other.wall_time;
        if !other.shard_event_loads.is_empty() {
            self.shard_event_loads = other.shard_event_loads;
        }
        if !other.shard_health.is_empty() {
            self.shard_health = other.shard_health;
        }
    }
}

/// A shard-routed clustering service: the unified facade over N partitioned
/// [`ClusteringEngine`]s plus a spill engine for cross-shard edges.
///
/// The service is the *owner* of the shard engines. Callers interact through the handle API:
/// [`ingest_handle`](Self::ingest_handle) for writes, [`read_handle`](Self::read_handle) for
/// reads, and a [`FlusherDriver`] (which takes the service by value) as the single writer
/// driving the pipeline. See the [module docs](self) for the routing and merge design, the
/// [`crate::ingest`] docs for the pipeline, and the [crate docs](crate) for a quick start.
#[derive(Debug)]
pub struct ClusterService {
    /// Routed shards `0..num_shards`, then (iff `num_shards > 1`) the spill shard.
    engines: Vec<ClusteringEngine>,
    num_shards: usize,
    /// The partitioner plus (for stateful partitioners) the router-owned assignment table.
    router: Router,
    policy: FlushPolicy,
    /// Flush parallelism: 1 = strictly sequential shard flushes, ≥ 2 = concurrent flushes on
    /// the fork-join pool, `None` = follow the shared pool's size (resolved per flush, so
    /// building a default service never eagerly starts the pool).
    threads: Option<usize>,
    /// Events routed to the spill shard since construction (spill-routing share numerator).
    spill_events: u64,
    /// Events routed to each engine since construction (routed shards first, spill last) —
    /// the per-shard load surfaced by [`ServiceFlushReport::shard_event_loads`].
    routed_events: Vec<u64>,
    /// Insert events routed since construction (edge-cut denominator: each live edge counted
    /// once, at its insertion).
    edge_inserts_routed: u64,
    /// Insert events routed to the spill shard (edge-cut numerator).
    edge_inserts_cut: u64,
    /// Default backpressure mode of newly created ingest handles.
    backpressure: Backpressure,
    /// The queue + published-view state shared with handles.
    shared: Arc<ServiceShared>,
    /// Thresholds whose label changes each publish-step delta reports
    /// ([`ServiceBuilder::track_thresholds`]).
    tracked_thresholds: Vec<Weight>,
    /// The pipeline-wide telemetry registry (shared with every shard engine and the
    /// submission queue); a no-op unless enabled at build time.
    telemetry: Telemetry,
    /// Per-engine health, parallel to `engines`. A quarantined engine is never submitted to
    /// or flushed; its last published snapshot keeps backing the merged view, stale-flagged.
    health: Vec<ShardHealth>,
    /// Per-engine journals, parallel to `engines`: what every engine rebuild starts from. A
    /// quarantined shard never re-images, so its tail keeps everything routed meanwhile.
    journals: Vec<ShardJournal>,
    /// The authoritative vertex count. Tracked at the service level because a quarantined
    /// engine skips growths (they are journaled and applied at recovery) and may lag.
    vertices: usize,
    /// The per-engine options (parallel to `engines`, per-shard backend overrides resolved),
    /// kept so recovery can rebuild an engine from scratch with its exact configuration.
    shard_options: Vec<DynSldOptions>,
    /// The armed fault plan (disabled by default). Recovered engines are deliberately not
    /// re-armed: a plan describes one deterministic failure script, not a repeating schedule.
    faults: FaultPlan,
    /// Shard-flush panics caught by `catch_unwind` (injected or genuine).
    panics_caught: u64,
    /// Lifetime count of quarantine events.
    quarantines: u64,
    /// Lifetime count of successful shard recoveries.
    recoveries: u64,
    /// The durability layer (WAL + checkpoint store), present iff the service was built
    /// with [`ServiceBuilder::durable`] or under `DYNSLD_DURABLE_DIR`.
    durable: Option<DurableState>,
}

/// The attached durability layer of a [`ClusterService`]: the open WAL, the checkpoint
/// store sharing its directory, and the recovery report from build time.
#[derive(Debug)]
struct DurableState {
    wal: Wal,
    store: CheckpointStore,
    /// Checkpoint cadence in WAL records ([`ServiceBuilder::checkpoint_every_records`]).
    checkpoint_every: u64,
    /// Records appended (or replayed at recovery) since the last durable checkpoint.
    records_since_checkpoint: u64,
    /// Checkpoints successfully written by *this* process.
    checkpoints_written: u64,
    /// A WAL error raised on an infallible path (`add_vertices` cannot return one); it is
    /// surfaced by the next fallible durable operation instead of being dropped.
    deferred_error: Option<ServiceError>,
    report: DurabilityReport,
}

/// What recovery found and did when a durable service was built — see
/// [`ClusterService::durability`].
#[derive(Clone, Debug, Default)]
pub struct DurabilityReport {
    /// True iff build restored any prior state (a checkpoint, replayed WAL records, or
    /// both). False for a pristine directory.
    pub recovered: bool,
    /// `last_lsn` of the checkpoint the restore started from (0 when none was usable).
    pub checkpoint_lsn: u64,
    /// WAL records past the checkpoint replayed through the normal routing paths.
    pub wal_records_replayed: u64,
    /// Total records ever made durable in this directory — the highest LSN covered by the
    /// restored state (checkpoint and WAL tail combined). Since LSNs are assigned
    /// consecutively from 1, this equals the length of the durable prefix of the original
    /// event stream.
    pub records_durable: u64,
    /// Torn WAL tails truncated while opening the log (0 or 1 per recovery: only the
    /// newest segment can carry one).
    pub torn_tails_truncated: u64,
    /// Corrupt checkpoints skipped on the way to the newest valid one.
    pub corrupt_checkpoints_skipped: u64,
    /// Events rejected during WAL replay. Non-empty only if the original process crashed
    /// between accepting an event's WAL append and validating it — the replayed stream is
    /// re-validated in routed order, so these are exactly the events the oracle would have
    /// rejected too.
    pub replay_rejected: Vec<ServiceError>,
}

impl ClusterService {
    /// A builder with the default configuration.
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::new()
    }

    /// The single-shard service over `n` vertices — the drop-in successor of the PR-1
    /// `ClusteringEngine::new(n)` surface. One engine, no spill shard, manual flushes.
    pub fn single_shard(n: usize) -> Self {
        ServiceBuilder::new()
            .vertices(n)
            .build()
            .expect("the single-shard default configuration is always valid")
    }

    /// A clonable write handle backed by the service's bounded submission queue, using the
    /// builder's default [`Backpressure`] mode. Handles stay valid after the service moves
    /// into a [`FlusherDriver`].
    pub fn ingest_handle(&self) -> IngestHandle {
        IngestHandle::new(Arc::clone(&self.shared), self.backpressure)
    }

    /// A clonable read handle serving epoch-pinned [`ServiceSnapshot`]s without `&mut`.
    /// Handles stay valid after the service moves into a [`FlusherDriver`].
    pub fn read_handle(&self) -> ReadHandle {
        ReadHandle::new(Arc::clone(&self.shared))
    }

    /// Moves the service into a [`FlusherDriver`] — the single writer that drains the
    /// submission queue. Equivalent to [`FlusherDriver::new`].
    pub fn into_driver(self) -> FlusherDriver {
        FlusherDriver::new(self)
    }

    pub(crate) fn shared(&self) -> &Arc<ServiceShared> {
        &self.shared
    }

    /// The pipeline's [`Telemetry`] registry — the one handed to every shard engine and the
    /// submission queue at build time (see [`ServiceBuilder::telemetry`]). Call
    /// [`Telemetry::snapshot`] on it to read the stage-latency histograms, counters, and the
    /// span trace; it stays readable after the service moves into a [`FlusherDriver`] if you
    /// clone it first (clones share the registry).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Number of endpoint-partitioned (routed) shards, excluding the spill shard.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// True if the service maintains a spill shard (i.e. it has more than one routed shard).
    pub fn has_spill_shard(&self) -> bool {
        self.num_shards > 1
    }

    /// Number of vertices (identical across healthy shards; a quarantined shard may lag
    /// behind growths until recovery replays them).
    pub fn num_vertices(&self) -> usize {
        self.vertices
    }

    /// Per-shard health, in shard order. All-healthy unless a flush panic quarantined a
    /// shard (see [`ShardHealth`]).
    pub fn shard_health(&self) -> Vec<(ShardId, ShardHealth)> {
        self.health
            .iter()
            .enumerate()
            .map(|(idx, h)| (self.id_of(idx), h.clone()))
            .collect()
    }

    /// The armed fault-injection plan (disabled unless set via [`ServiceBuilder::faults`] or
    /// `DYNSLD_FAULTS`).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The flush policy the service was built with.
    pub fn flush_policy(&self) -> FlushPolicy {
        self.policy
    }

    /// The service's effective flush parallelism (see [`ServiceBuilder::threads`]). An
    /// explicit builder setting is returned as-is; the default follows the shared pool's
    /// size, which this call resolves (starting the pool if it has not run yet).
    pub fn threads(&self) -> usize {
        self.threads.unwrap_or_else(rayon::current_num_threads)
    }

    /// All shard ids, routed shards first, then the spill shard when present.
    pub fn shard_ids(&self) -> Vec<ShardId> {
        let mut ids: Vec<ShardId> = (0..self.num_shards).map(ShardId::Routed).collect();
        if self.has_spill_shard() {
            ids.push(ShardId::Spill);
        }
        ids
    }

    /// Read access to one shard's engine (for introspection and tests).
    ///
    /// # Panics
    /// Panics if `id` is [`ShardId::Spill`] on a single-shard service, or a routed index out
    /// of range.
    pub fn shard(&self, id: ShardId) -> &ClusteringEngine {
        &self.engines[self.index_of(id)]
    }

    /// Coalesced operations currently buffered across all shards (events drained from the
    /// queue and routed, but not yet flushed).
    pub fn pending_ops(&self) -> usize {
        self.engines.iter().map(ClusteringEngine::pending_ops).sum()
    }

    /// The per-shard epoch vector (routed shards first, spill shard last).
    pub fn epochs(&self) -> Vec<u64> {
        self.engines.iter().map(ClusteringEngine::epoch).collect()
    }

    fn index_of(&self, id: ShardId) -> usize {
        match id {
            ShardId::Routed(i) => {
                assert!(i < self.num_shards, "routed shard {i} out of range");
                i
            }
            ShardId::Spill => {
                assert!(self.has_spill_shard(), "single-shard service has no spill");
                self.num_shards
            }
        }
    }

    fn id_of(&self, index: usize) -> ShardId {
        if index < self.num_shards {
            ShardId::Routed(index)
        } else {
            ShardId::Spill
        }
    }

    /// The home shard of edge `{u, v}` under this service's partitioner.
    ///
    /// For a pure [`Partitioner`] this is the routing function itself. For a stateful
    /// partitioner it is a *preview*: already pinned endpoints are read from the
    /// [`AssignmentTable`], and unassigned endpoints are resolved against a scratch copy
    /// without committing any pin — so the answer equals what routing the edge next would do,
    /// but may change if other events are routed first.
    pub fn route(&self, u: VertexId, v: VertexId) -> ShardId {
        if self.num_shards == 1 {
            ShardId::Routed(0)
        } else {
            self.router.route_edge_preview(u, v, self.num_shards)
        }
    }

    /// The router's [`AssignmentTable`], when the service was built with a
    /// [`stateful_partitioner`](ServiceBuilder::stateful_partitioner) (`None` under pure
    /// partitioners). Exposes per-shard assigned-vertex loads and every first-sight pin.
    pub fn assignment_table(&self) -> Option<&AssignmentTable> {
        self.router.table()
    }

    /// The pinned shard of vertex `v` under a stateful partitioner — `None` under a pure
    /// partitioner or while `v` has not yet appeared in the routed stream.
    pub fn assignment_of(&self, v: VertexId) -> Option<usize> {
        self.router.table().and_then(|t| t.get(v))
    }

    /// Events routed to each shard since construction (routed shards first, spill shard
    /// last) — the lifetime per-shard load behind
    /// [`ServiceFlushReport::shard_event_loads`].
    pub fn shard_event_loads(&self) -> Vec<(ShardId, u64)> {
        self.routed_events
            .iter()
            .enumerate()
            .map(|(idx, &count)| (self.id_of(idx), count))
            .collect()
    }

    /// Routes one event to its home shard, validates it against that shard's applied state
    /// plus pending buffer, and buffers it there. Applies the [`FlushPolicy::EveryNOps`]
    /// threshold, returning the triggered flush (if any) so drivers can report it.
    ///
    /// Under a stateful partitioner this is where first-sight assignment happens: endpoints
    /// not yet in the [`AssignmentTable`] are pinned before the shard lookup (on single-shard
    /// services too, so assignment introspection works at any shard count). Structurally
    /// invalid events (self-loops, out-of-range endpoints) pin nothing and are routed
    /// straight to rejection; events rejected by per-edge *state* validation (double insert,
    /// delete of an absent edge) do still pin their endpoints — the assignment depends only
    /// on the routed order, which keeps replays deterministic whether or not a stream
    /// validates.
    pub(crate) fn buffer_event(
        &mut self,
        event: GraphUpdate,
    ) -> Result<(ShardId, Option<(ShardId, FlushReport)>), ServiceError> {
        // Durable services log the event *before* it reaches any shard engine: the WAL
        // captures the submitted stream pre-validation, and replay re-validates in routed
        // order — exactly where the original process did.
        self.wal_append(&WalRecord::Event(event))?;
        let (u, v) = event.endpoints();
        let route_start = self.telemetry.is_enabled().then(Instant::now);
        let id = match &self.router {
            Router::Pure(_) if self.num_shards == 1 => ShardId::Routed(0),
            _ => self.router.route_edge_pinned(u, v, self.num_shards),
        };
        if let Some(start) = route_start {
            self.telemetry
                .record_duration("service.route_ns", start.elapsed());
        }
        let idx = self.index_of(id);
        // A torn (quarantined) engine cannot validate; its events are journaled as-is and
        // validated during recovery replay, in routed order — exactly where the no-fault
        // oracle would have validated them. The service keeps accepting ingest throughout.
        if !self.health[idx].is_quarantined() {
            self.engines[idx]
                .submit(event)
                .map_err(|e| ServiceError::from_engine(id, e))?;
        }
        self.journals[idx].tail.push(JournalEntry::Event(event));
        self.routed_events[idx] += 1;
        if id == ShardId::Spill {
            self.spill_events += 1;
        }
        if matches!(event, GraphUpdate::Insert { .. }) {
            self.edge_inserts_routed += 1;
            if id == ShardId::Spill {
                self.edge_inserts_cut += 1;
            }
        }
        let mut flushed = None;
        if let FlushPolicy::EveryNOps(n) = self.policy {
            if !self.health[idx].is_quarantined() && self.engines[idx].pending_ops() >= n.max(1) {
                flushed = Some((id, self.flush_shard_direct(id)?));
            }
        }
        Ok((id, flushed))
    }

    /// Rebuilds the cached merged view iff some shard published a new state since the last
    /// rebuild. Keeping the same [`ServiceSnapshot`] across no-op flushes and pure reads lets
    /// repeated queries at one epoch vector share one merged-clustering cache.
    ///
    /// When the delta ring is enabled, the publish step also diffs the outgoing view against
    /// the new one and retains the [`SnapshotDelta`] — pushed *before* the new view becomes
    /// visible, so any reader that observes the new revision can find its delta in the ring
    /// (until it ages out).
    fn refresh_published(&mut self) {
        let current: Vec<u64> = self.engines.iter().map(ClusteringEngine::epoch).collect();
        let old = self.shared.published();
        // Health transitions republish even at an unchanged epoch vector: a quarantine must
        // make the staleness flag visible to readers, and a recovery whose rebuilt epoch
        // happens to collide with the stale one must still replace the served export.
        if old.epochs() == current && old.shard_health() == self.health.as_slice() {
            return;
        }
        let new = ServiceSnapshot::merge(
            self.engines
                .iter()
                .map(ClusteringEngine::snapshot)
                .collect(),
            old.revision() + 1,
            self.health.clone(),
        );
        if self.shared.deltas_enabled() {
            let started = Instant::now();
            let delta = SnapshotDelta::between(&old, &new, &self.tracked_thresholds);
            self.shared.push_delta(Arc::new(delta));
            if self.telemetry.is_enabled() {
                self.telemetry
                    .record_duration("service.delta_build_ns", started.elapsed());
            }
        }
        self.shared.publish(new);
    }

    /// A no-op report for a quarantined (or skipped) shard, at its last published epoch.
    fn stale_noop_report(&self, idx: usize) -> FlushReport {
        FlushReport {
            epoch: self.engines[idx].epoch(),
            ops_applied: 0,
            changes: Vec::new(),
            promoted: Vec::new(),
            fast_path: 0,
            fallback: 0,
            duration: Duration::ZERO,
            phases: FlushPhases::default(),
        }
    }

    fn quarantine(&mut self, idx: usize, panic: String) {
        self.health[idx] = ShardHealth::Quarantined { panic };
        self.quarantines += 1;
    }

    /// Applies the retry-or-quarantine policy to one shard's caught flush outcome. An
    /// injected entry-mode panic is retried once (nothing was consumed, so the retry sees
    /// the identical buffer); anything else tears the engine and quarantines it, turning the
    /// shard's contribution into a stale no-op report instead of an error — the service
    /// keeps flushing its other shards and serving reads. A flush that finishes `Ok` may
    /// re-image the shard's journal.
    fn resolve_flush_outcome(
        &mut self,
        idx: usize,
        outcome: CaughtFlush,
    ) -> Result<FlushReport, EngineError> {
        let result = 'flushed: {
            match outcome {
                CaughtFlush::Skipped => return Ok(self.stale_noop_report(idx)),
                CaughtFlush::Completed(result) => result,
                CaughtFlush::Panicked { message, retriable } => {
                    self.panics_caught += 1;
                    if retriable {
                        if let CaughtFlush::Completed(result) =
                            flush_catching(&mut self.engines[idx])
                        {
                            break 'flushed result;
                        }
                        self.panics_caught += 1;
                    }
                    self.quarantine(idx, message);
                    return Ok(self.stale_noop_report(idx));
                }
            }
        };
        if result.is_ok() {
            self.journals[idx].compact_if_due(&self.engines[idx]);
        }
        result
    }

    pub(crate) fn flush_shard_direct(&mut self, id: ShardId) -> Result<FlushReport, ServiceError> {
        let idx = self.index_of(id);
        let outcome = if self.health[idx].is_quarantined() {
            CaughtFlush::Skipped
        } else {
            flush_catching(&mut self.engines[idx])
        };
        let result = self
            .resolve_flush_outcome(idx, outcome)
            .map_err(|e| ServiceError::from_engine(id, e));
        // Refresh even on failure: the engine may have published before erroring, and served
        // views must track whatever per-shard states actually exist.
        self.refresh_published();
        result
    }

    /// Flushes every shard's pending buffer and reports what each did, in shard order (routed
    /// shards first, spill shard last). Shards with nothing pending contribute a no-op report.
    ///
    /// With [`ServiceBuilder::threads`] ≥ 2 the shard flushes run *concurrently* on the
    /// fork-join pool — the engines are independent by construction, and the per-shard
    /// [`FlushReport`]s are joined back in shard order, so the returned report (and the merged
    /// view published afterwards) is identical to a sequential flush. On failure the error
    /// names the lowest-indexed failing shard; in concurrent mode every shard is still
    /// flushed, while `threads(1)` preserves the historical sequential contract of stopping at
    /// the first failing shard.
    pub(crate) fn flush_direct(&mut self) -> Result<ServiceFlushReport, ServiceError> {
        let started = Instant::now();
        let sequential = self.threads() <= 1 || self.engines.len() <= 1;
        let mut reports = Vec::with_capacity(self.engines.len());
        let mut failure = None;
        if sequential {
            for idx in 0..self.engines.len() {
                let id = self.id_of(idx);
                let outcome = if self.health[idx].is_quarantined() {
                    CaughtFlush::Skipped
                } else {
                    flush_catching(&mut self.engines[idx])
                };
                match self.resolve_flush_outcome(idx, outcome) {
                    Ok(report) => reports.push((id, report)),
                    Err(e) => {
                        failure = Some(ServiceError::from_engine(id, e));
                        break;
                    }
                }
            }
        } else {
            // Scoped fan-out over the fork-join pool: the engines are independent, every
            // borrowed `&mut` pair is disjoint, and each result lands in its shard's slot
            // regardless of execution order. A panicking shard is caught *inside* its own
            // task, so one torn engine never unwinds through (or cancels) its siblings.
            let mut slots: Vec<Option<CaughtFlush>> = self
                .health
                .iter()
                .map(|h| h.is_quarantined().then_some(CaughtFlush::Skipped))
                .collect();
            self.engines
                .par_iter_mut()
                .zip(slots.par_iter_mut())
                .for_each(|(engine, slot)| {
                    if slot.is_none() {
                        *slot = Some(flush_catching(engine));
                    }
                });
            for (idx, slot) in slots.into_iter().enumerate() {
                let id = self.id_of(idx);
                let outcome = slot.expect("every shard flush produces a result");
                match self.resolve_flush_outcome(idx, outcome) {
                    Ok(report) => reports.push((id, report)),
                    Err(e) => {
                        failure = failure.or(Some(ServiceError::from_engine(id, e)));
                    }
                }
            }
        }
        // Refresh even on failure: shards flushed before (or besides) the failing one have
        // already published new states, and served views must reflect them.
        self.refresh_published();
        let wall_time = started.elapsed();
        if self.telemetry.is_enabled() {
            self.telemetry
                .record_duration("service.flush_wall_ns", wall_time);
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(ServiceFlushReport {
                reports,
                shard_event_loads: self.shard_event_loads(),
                wall_time,
                shard_health: self.shard_health(),
            }),
        }
    }

    /// The last *published* merged view, without flushing anything — one `Arc` clone, `&self`,
    /// and safe to call concurrently with a reader holding older snapshots. Repeated reads at
    /// the same epoch vector share the same merged-clustering cache. Queued or buffered events
    /// are not visible until their shard flushes. [`ReadHandle::snapshot`] serves exactly this
    /// view without needing the service value.
    pub fn published(&self) -> ServiceSnapshot {
        self.shared.published()
    }

    /// Grows the vertex set of every shard by `k` isolated vertices and returns the first new
    /// id (identical across shards). New vertices are visible to snapshots immediately: each
    /// shard publishes a fresh state at a bumped epoch. Under a stateful partitioner the
    /// [`AssignmentTable`] grows in lockstep — new vertices start unassigned and are pinned
    /// on their first routed edge, wherever that edge's locality pulls them.
    ///
    /// Quarantined shards are skipped (their torn engine is never touched) but the growth is
    /// journaled, so [`ClusterService::recover_shard`] replays it at the right position and
    /// the recovered shard agrees with its healthy siblings on the vertex count.
    pub fn add_vertices(&mut self, k: usize) -> VertexId {
        let first = VertexId(self.vertices as u32);
        if k == 0 {
            return first;
        }
        // This path is infallible by contract, so a WAL error cannot propagate from here;
        // it is deferred and surfaced by the next fallible durable operation.
        if let Err(e) = self.wal_append(&WalRecord::Grow(k as u64)) {
            if let Some(d) = self.durable.as_mut() {
                d.deferred_error.get_or_insert(e);
            }
        }
        self.vertices += k;
        for (idx, engine) in self.engines.iter_mut().enumerate() {
            if !self.health[idx].is_quarantined() {
                engine.add_vertices(k);
            }
            self.journals[idx].tail.push(JournalEntry::Grow(k));
        }
        if let Router::Stateful { table, .. } = &mut self.router {
            table.grow(k);
        }
        self.refresh_published();
        first
    }

    /// Cross-shard aggregated counters: the per-shard [`Metrics`] merged with
    /// [`Metrics::merge`] (counters summed, flush-latency maxima kept), plus the
    /// service-level router and ingest-queue counters — [`Metrics::events_routed_spill`]
    /// (numerator of [`Metrics::spill_routing_share`], the partitioner-quality baseline) and
    /// the [`Metrics::events_enqueued`] family measuring the handle pipeline.
    pub fn metrics(&self) -> Metrics {
        let parts: Vec<Metrics> = self.engines.iter().map(ClusteringEngine::metrics).collect();
        let mut merged = Metrics::merge(&parts);
        merged.events_routed_spill = self.spill_events;
        merged.edge_inserts_routed = self.edge_inserts_routed;
        merged.edge_inserts_cut = self.edge_inserts_cut;
        merged.vertices_assigned = self.router.table().map_or(0, AssignmentTable::assigned);
        let q = self.shared.queue.counters();
        merged.events_enqueued = q.enqueued;
        merged.events_compacted_in_queue = q.compacted;
        merged.queue_block_waits = q.block_waits;
        merged.queue_full_rejections = q.full_rejections;
        merged.queue_depth_max = q.depth_watermark;
        merged.queue_depth_last_drain = q.last_drain_depth;
        let serve = &self.shared.serve;
        merged.snapshots_served = serve.snapshots_served.load(Ordering::Relaxed);
        merged.deltas_served = serve.deltas_served.load(Ordering::Relaxed);
        merged.delta_bytes_out = serve.delta_bytes_out.load(Ordering::Relaxed);
        merged.full_fallbacks = serve.full_fallbacks.load(Ordering::Relaxed);
        merged.shard_panics_caught = self.panics_caught;
        merged.shards_quarantined = self.quarantines;
        merged.shard_recoveries = self.recoveries;
        merged.wire_timeouts = serve.wire_timeouts.load(Ordering::Relaxed);
        merged.stale_reads_served = serve.stale_reads_served.load(Ordering::Relaxed);
        merged.journal_bytes = self.journals.iter().map(ShardJournal::bytes).sum::<usize>() as u64;
        if let Some(d) = &self.durable {
            merged.wal_records_appended = d.wal.records_appended();
            merged.wal_bytes_written = d.wal.bytes_written();
            merged.checkpoints_written = d.checkpoints_written;
            merged.torn_tails_truncated = d.report.torn_tails_truncated;
            merged.recoveries_completed = u64::from(d.report.recovered);
        }
        merged
    }

    /// One shard's counters, unmerged.
    pub fn shard_metrics(&self, id: ShardId) -> Metrics {
        self.engines[self.index_of(id)].metrics()
    }
}

#[derive(Debug)]
struct ServiceSnapshotInner {
    /// The service revision: how many merged views have been published before this one.
    /// Strictly increasing by one per publish — the anchor of the delta protocol.
    revision: u64,
    /// Per-shard snapshots, routed shards first, spill shard last.
    shards: Vec<EngineSnapshot>,
    /// Per-shard health at publish time, aligned with `shards`. A quarantined entry means
    /// that shard's snapshot is its last pre-panic publication — served stale, by design.
    health: Vec<ShardHealth>,
    /// Merged flat clusterings by threshold, shared across every clone of this view.
    merged: ThresholdCache,
}

/// An immutable merged view over one [`EngineSnapshot`] per shard.
///
/// Cheap to clone (`Arc`), `Send + Sync`, and frozen: it keeps answering from the per-shard
/// states it was built from, no matter what the service does afterwards. Merged flat
/// clusterings are computed lazily — the first query at a threshold pays one union-find pass
/// over the per-shard clusterings, repeats hit a per-snapshot cache. Because the shard edge
/// sets partition the graph's edges, the merged answers are *exactly* those of a single
/// engine fed the same stream.
#[derive(Clone, Debug)]
pub struct ServiceSnapshot {
    inner: Arc<ServiceSnapshotInner>,
}

impl ServiceSnapshot {
    fn merge(shards: Vec<EngineSnapshot>, revision: u64, health: Vec<ShardHealth>) -> Self {
        debug_assert!(!shards.is_empty());
        debug_assert_eq!(shards.len(), health.len());
        // Healthy shards must agree on the vertex set; a quarantined shard may lag behind
        // (vertex growth after its panic is journaled, not applied to the torn engine).
        debug_assert!(
            {
                let healthy_n: Vec<usize> = shards
                    .iter()
                    .zip(&health)
                    .filter(|(_, h)| !h.is_quarantined())
                    .map(|(s, _)| s.num_vertices())
                    .collect();
                healthy_n.windows(2).all(|w| w[0] == w[1])
            },
            "healthy shards must agree on the vertex set"
        );
        ServiceSnapshot {
            inner: Arc::new(ServiceSnapshotInner {
                revision,
                shards,
                health,
                merged: ThresholdCache::default(),
            }),
        }
    }

    /// The service revision of this view: 0 for the initial (empty) publication, then +1 per
    /// publish. Two views of one service with equal revisions are the same view; the delta
    /// protocol ([`ReadHandle::sync_from`]) is anchored on it.
    pub fn revision(&self) -> u64 {
        self.inner.revision
    }

    /// The per-shard epoch vector this view was taken at (routed shards first, spill last).
    pub fn epochs(&self) -> Vec<u64> {
        self.inner
            .shards
            .iter()
            .map(EngineSnapshot::epoch)
            .collect()
    }

    /// The per-shard snapshots backing this view, in shard order.
    pub fn shard_snapshots(&self) -> &[EngineSnapshot] {
        &self.inner.shards
    }

    /// Number of vertices. With a quarantined shard in the view this is the *largest*
    /// per-shard vertex count: a stale shard that panicked before a vertex-set growth lags
    /// behind its healthy siblings, and merged answers are sized for the grown set (the
    /// stale shard simply contributes no edges among the vertices it has never seen).
    pub fn num_vertices(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(EngineSnapshot::num_vertices)
            .max()
            .unwrap_or(0)
    }

    /// Per-shard health at publish time, aligned with [`ServiceSnapshot::shard_snapshots`].
    pub fn shard_health(&self) -> &[ShardHealth] {
        &self.inner.health
    }

    /// Whether any shard in this view is quarantined — i.e. whether some of the merged
    /// answers come from a last-known-good state rather than the live stream. Strict
    /// readers reject such views ([`ReadHandle::snapshot_strict`]); availability-first
    /// readers serve them and count [`Metrics::stale_reads_served`].
    pub fn is_stale(&self) -> bool {
        self.inner.health.iter().any(ShardHealth::is_quarantined)
    }

    /// The quarantined shards in this view, by id (empty when fresh).
    pub fn stale_shards(&self) -> Vec<ShardId> {
        let len = self.inner.health.len();
        self.inner
            .health
            .iter()
            .enumerate()
            .filter(|(_, h)| h.is_quarantined())
            .map(|(idx, _)| {
                if len > 1 && idx == len - 1 {
                    ShardId::Spill
                } else {
                    ShardId::Routed(idx)
                }
            })
            .collect()
    }

    /// Number of alive graph edges across all shards (the shard edge sets are disjoint, so
    /// this is exactly the full graph's edge count).
    pub fn num_graph_edges(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(EngineSnapshot::num_graph_edges)
            .sum()
    }

    /// Number of connected components of the full graph (all shards merged).
    pub fn num_components(&self) -> usize {
        self.flat_clustering(f64::INFINITY).num_clusters()
    }

    /// The merged flat clustering at threshold `tau`, memoised per snapshot. Labels are
    /// canonical within one (epoch vector, `tau`) pair: numbered by smallest member vertex,
    /// member lists sorted ascending.
    pub fn flat_clustering(&self, tau: Weight) -> Arc<FlatClustering> {
        if self.inner.shards.len() == 1 {
            // Single shard: the engine's own (already canonical, already cached) clustering.
            return self.inner.shards[0].flat_clustering(tau);
        }
        if let Some(hit) = self.inner.merged.lookup(tau) {
            return hit;
        }
        // Compute outside the lock (racing readers compute equal values; first commit wins).
        let computed = self.merge_clustering(tau);
        self.inner.merged.commit(tau, computed)
    }

    /// One union-find pass over the per-shard clusterings: since the shard edge sets
    /// partition the graph's edges, gluing per-shard clusters together yields exactly the
    /// connected components of the full graph restricted to edges of weight `<= tau`. The
    /// glue itself is [`merge_flat_clusterings`], shared with the `dynsld-serve` mirror so
    /// replayed views are bit-identical to served ones.
    fn merge_clustering(&self, tau: Weight) -> FlatClustering {
        let parts: Vec<Arc<FlatClustering>> = self
            .inner
            .shards
            .iter()
            .map(|shard| shard.flat_clustering(tau))
            .collect();
        merge_flat_clusterings(parts.iter().map(Arc::as_ref), self.num_vertices())
    }

    /// The cluster label of `v` at threshold `tau` (canonical per epoch vector and `tau`).
    pub fn cluster_id(&self, v: VertexId, tau: Weight) -> usize {
        self.flat_clustering(tau).labels[v.index()]
    }

    /// Size of the cluster containing `v` at threshold `tau`.
    pub fn cluster_size(&self, v: VertexId, tau: Weight) -> usize {
        let clustering = self.flat_clustering(tau);
        clustering.clusters[clustering.labels[v.index()]].len()
    }

    /// Whether `u` and `v` share a cluster at threshold `tau`.
    pub fn same_cluster(&self, u: VertexId, v: VertexId, tau: Weight) -> bool {
        self.flat_clustering(tau).same_cluster(u, v)
    }

    /// Number of clusters at threshold `tau`.
    pub fn num_clusters(&self, tau: Weight) -> usize {
        self.flat_clustering(tau).num_clusters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{BlockPartitioner, GreedyPartitioner};
    use std::path::Path;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn ins(a: u32, b: u32, w: f64) -> GraphUpdate {
        GraphUpdate::Insert {
            u: v(a),
            v: v(b),
            weight: w,
        }
    }

    fn del(a: u32, b: u32) -> GraphUpdate {
        GraphUpdate::Delete { u: v(a), v: v(b) }
    }

    /// Routes one event through the internal path old tests submitted through.
    fn submit(svc: &mut ClusterService, event: GraphUpdate) -> Result<ShardId, ServiceError> {
        svc.buffer_event(event).map(|(id, _)| id)
    }

    fn submit_all(
        svc: &mut ClusterService,
        events: impl IntoIterator<Item = GraphUpdate>,
    ) -> Result<usize, ServiceError> {
        let mut count = 0;
        for event in events {
            submit(svc, event)?;
            count += 1;
        }
        Ok(count)
    }

    /// The merged read view; under [`FlushPolicy::OnRead`], pending buffers are flushed
    /// first.
    fn snapshot(svc: &mut ClusterService) -> Result<ServiceSnapshot, ServiceError> {
        if svc.policy == FlushPolicy::OnRead && svc.pending_ops() > 0 {
            svc.flush_direct()?;
        }
        Ok(svc.published())
    }

    /// Blocks of 4 vertices per shard so routing is easy to reason about in tests.
    fn blocked(shards: usize, n: usize, policy: FlushPolicy) -> ClusterService {
        ServiceBuilder::new()
            .vertices(n)
            .shards(shards)
            .partitioner(BlockPartitioner { block_size: 4 })
            .flush_policy(policy)
            .build()
            .expect("valid test configuration")
    }

    #[test]
    fn read_handle_clones_share_one_threshold_cache() {
        // Satellite pin: the per-threshold cache lives inside the published snapshot's shared
        // allocation, so two ReadHandle clones (and any further snapshot clones) hit the SAME
        // cached threshold cut — one union-find pass per (publication, tau), not per handle.
        let service = blocked(2, 8, FlushPolicy::Manual);
        let ingest = service.ingest_handle();
        let read_a = service.read_handle();
        let read_b = read_a.clone();
        let mut driver = FlusherDriver::new(service);
        ingest.submit(ins(0, 1, 1.0)).unwrap();
        ingest.submit(ins(4, 5, 2.0)).unwrap();
        ingest.submit(ins(1, 4, 3.0)).unwrap();
        driver.pump().unwrap();
        driver.flush().unwrap();
        let cut_a = read_a.snapshot().flat_clustering(2.5);
        let cut_b = read_b.snapshot().flat_clustering(2.5);
        assert!(
            Arc::ptr_eq(&cut_a, &cut_b),
            "clones of one published view must share one cached cut"
        );
        // The same holds for the per-shard engine snapshots behind the merged view.
        let shard_a = read_a.snapshot().shard_snapshots()[0].flat_clustering(1.5);
        let shard_b = read_b.snapshot().shard_snapshots()[0].flat_clustering(1.5);
        assert!(Arc::ptr_eq(&shard_a, &shard_b));
    }

    #[test]
    fn revision_advances_once_per_publish() {
        let service = blocked(2, 8, FlushPolicy::Manual);
        let ingest = service.ingest_handle();
        let read = service.read_handle();
        let mut driver = FlusherDriver::new(service);
        assert_eq!(read.revision(), 0);
        ingest.submit(ins(0, 1, 1.0)).unwrap();
        driver.pump().unwrap();
        driver.flush().unwrap();
        assert_eq!(read.revision(), 1);
        // A flush with nothing pending publishes nothing: revision unchanged.
        driver.flush().unwrap();
        assert_eq!(read.revision(), 1);
        // Vertex growth publishes.
        driver.add_vertices(2);
        assert_eq!(read.revision(), 2);
        assert_eq!(read.snapshot().revision(), 2);
    }

    #[test]
    fn sync_from_serves_unchanged_delta_and_full() {
        let service = blocked(2, 8, FlushPolicy::Manual);
        let ingest = service.ingest_handle();
        let read = service.read_handle();
        let mut driver = FlusherDriver::new(service);

        // First sync: no base revision → full snapshot.
        let SyncResponse::Full(full) = read.sync_from(None) else {
            panic!("first sync must be a full snapshot");
        };
        assert_eq!(full.revision(), 0);

        // Caught up → Unchanged.
        match read.sync_from(Some(0)) {
            SyncResponse::Unchanged { revision, .. } => assert_eq!(revision, 0),
            other => panic!("expected Unchanged, got {other:?}"),
        }

        // Publish twice, then sync from revision 0: a two-delta chain whose replay
        // reproduces the published per-shard exports bit for bit.
        let mut shards: Vec<_> = full
            .shard_snapshots()
            .iter()
            .map(|s| s.dendrogram().clone())
            .collect();
        ingest.submit(ins(0, 1, 1.0)).unwrap();
        ingest.submit(ins(4, 5, 2.0)).unwrap();
        driver.pump().unwrap();
        driver.flush().unwrap();
        ingest.submit(ins(1, 2, 3.0)).unwrap();
        ingest.submit(del(4, 5)).unwrap();
        driver.pump().unwrap();
        driver.flush().unwrap();
        let SyncResponse::Delta(patch) = read.sync_from(Some(0)) else {
            panic!("revision 0 is still in the ring");
        };
        assert_eq!(patch.from_revision, 0);
        assert_eq!(patch.to_revision, 2);
        assert_eq!(patch.deltas.len(), 2);
        patch.apply_to_shards(&mut shards);
        let now = read.snapshot();
        for (replayed, published) in shards.iter().zip(now.shard_snapshots()) {
            assert_eq!(replayed, published.dendrogram());
        }

        // Serve counters flow into the service metrics.
        read.record_served_bytes(128);
        let metrics = driver.service().metrics();
        assert_eq!(metrics.snapshots_served, 1);
        assert_eq!(metrics.deltas_served, 1);
        assert_eq!(metrics.delta_bytes_out, 128);
        assert_eq!(metrics.full_fallbacks, 0);
        assert!((metrics.delta_hit_share() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sync_from_falls_back_to_full_when_ring_ages_out() {
        let service = ServiceBuilder::new()
            .vertices(8)
            .shards(2)
            .partitioner(BlockPartitioner { block_size: 4 })
            .delta_ring(1)
            .build()
            .unwrap();
        let ingest = service.ingest_handle();
        let read = service.read_handle();
        let mut driver = FlusherDriver::new(service);
        for (i, w) in [(0u32, 1.0), (1, 2.0), (2, 3.0)] {
            ingest.submit(ins(i, i + 1, w)).unwrap();
            driver.pump().unwrap();
            driver.flush().unwrap();
        }
        assert_eq!(read.revision(), 3);
        // Revision 0 aged out of the 1-deep ring → full fallback, counted as such.
        let SyncResponse::Full(full) = read.sync_from(Some(0)) else {
            panic!("aged-out revision must fall back to a full snapshot");
        };
        assert_eq!(full.revision(), 3);
        // The newest step is still deliverable as a delta.
        assert!(matches!(read.sync_from(Some(2)), SyncResponse::Delta(_)));
        let metrics = driver.service().metrics();
        assert_eq!(metrics.full_fallbacks, 1);
        assert_eq!(metrics.snapshots_served, 1);
        assert_eq!(metrics.deltas_served, 1);
    }

    #[test]
    fn tracked_thresholds_report_label_changes_in_deltas() {
        let service = ServiceBuilder::new()
            .vertices(8)
            .shards(2)
            .partitioner(BlockPartitioner { block_size: 4 })
            .track_thresholds([2.5])
            .build()
            .unwrap();
        let ingest = service.ingest_handle();
        let read = service.read_handle();
        let mut driver = FlusherDriver::new(service);
        ingest.submit(ins(0, 1, 1.0)).unwrap();
        ingest.submit(ins(1, 4, 2.0)).unwrap(); // cross-shard: lands on the spill shard
        driver.pump().unwrap();
        driver.flush().unwrap();
        let SyncResponse::Delta(patch) = read.sync_from(Some(0)) else {
            panic!("expected a delta");
        };
        let relabels = &patch.deltas[0].relabels;
        assert_eq!(relabels.len(), 1);
        assert_eq!(relabels[0].tau, 2.5);
        // {0,1,4} merged below 2.5: vertices 1 and 4 joined vertex 0's cluster, and every
        // later vertex's canonical label shifted down — exactly what the published view says.
        let now = read.snapshot();
        let fc = now.flat_clustering(2.5);
        for &(v, label) in &relabels[0].changed {
            assert_eq!(fc.labels[v.index()], label);
        }
        assert_eq!(relabels[0].num_clusters, fc.num_clusters());
        assert!(!relabels[0].changed.is_empty());
    }

    #[test]
    fn builder_validates_every_config_arm() {
        // Valid baseline.
        assert!(ServiceBuilder::new().vertices(4).build().is_ok());
        // Zero shards.
        assert_eq!(
            ServiceBuilder::new().vertices(4).shards(0).build().err(),
            Some(ServiceError::InvalidConfig(ConfigError::ZeroShards))
        );
        // Zero threads.
        assert_eq!(
            ServiceBuilder::new().vertices(4).threads(0).build().err(),
            Some(ServiceError::InvalidConfig(ConfigError::ZeroThreads))
        );
        // Zero queue capacity.
        assert_eq!(
            ServiceBuilder::new()
                .vertices(4)
                .queue_capacity(0)
                .build()
                .err(),
            Some(ServiceError::InvalidConfig(ConfigError::ZeroQueueCapacity))
        );
        // Missing vertex count.
        assert_eq!(
            ServiceBuilder::new().shards(2).build().err(),
            Some(ServiceError::InvalidConfig(ConfigError::MissingVertexCount))
        );
        // Vertex count past the u32 id space.
        let requested = u32::MAX as usize + 1;
        assert_eq!(
            ServiceBuilder::new().vertices(requested).build().err(),
            Some(ServiceError::InvalidConfig(
                ConfigError::VertexCountOverflow { requested }
            ))
        );
        // The error message names the arm.
        let err = ServiceBuilder::new().vertices(4).shards(0).build().err();
        assert!(err.unwrap().to_string().contains("shards(0)"));
    }

    #[test]
    fn router_splits_by_endpoint_partition() {
        let mut svc = blocked(2, 8, FlushPolicy::Manual);
        assert_eq!(
            svc.shard_ids(),
            vec![ShardId::Routed(0), ShardId::Routed(1), ShardId::Spill]
        );
        assert_eq!(
            submit(&mut svc, ins(0, 1, 1.0)).unwrap(),
            ShardId::Routed(0)
        );
        assert_eq!(
            submit(&mut svc, ins(4, 5, 1.0)).unwrap(),
            ShardId::Routed(1)
        );
        assert_eq!(submit(&mut svc, ins(1, 4, 2.0)).unwrap(), ShardId::Spill);
        assert_eq!(svc.pending_ops(), 3);
        let report = svc.flush_direct().unwrap();
        assert_eq!(report.ops_applied(), 3);
        assert_eq!(report.shards_flushed(), 3);
        assert!((report.spill_routing_share() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(svc.epochs(), vec![1, 1, 1]);
        assert_eq!(svc.shard(ShardId::Spill).num_vertices(), 8);

        let snap = snapshot(&mut svc).unwrap();
        assert_eq!(snap.num_graph_edges(), 3);
        // 0-1 and 4-5 live in different shards but 1-4 (spill) glues them together.
        assert!(snap.same_cluster(v(0), v(5), 2.0));
        assert_eq!(snap.cluster_size(v(0), 2.0), 4);
        assert_eq!(snap.num_components(), 8 - 3);
    }

    #[test]
    fn single_shard_has_no_spill_and_matches_engine_surface() {
        let mut svc = ClusterService::single_shard(4);
        assert_eq!(svc.num_shards(), 1);
        assert!(!svc.has_spill_shard());
        assert_eq!(svc.shard_ids(), vec![ShardId::Routed(0)]);
        // Every edge routes to shard 0, even ones a hash partitioner would split.
        assert_eq!(
            submit(&mut svc, ins(0, 3, 1.0)).unwrap(),
            ShardId::Routed(0)
        );
        let report = svc.flush_direct().unwrap();
        // No spill shard: nothing can spill, per flush either.
        assert_eq!(report.spill_routing_share(), 0.0);
        let snap = snapshot(&mut svc).unwrap();
        assert_eq!(snap.epochs(), vec![1]);
        assert!(snap.same_cluster(v(0), v(3), 1.0));
        assert_eq!(snap.num_components(), 3);
    }

    #[test]
    fn rejections_name_the_shard_and_leave_state_unchanged() {
        let mut svc = blocked(2, 8, FlushPolicy::Manual);
        submit(&mut svc, ins(1, 4, 1.0)).unwrap();
        svc.flush_direct().unwrap();
        let err = submit(&mut svc, ins(4, 1, 2.0)).unwrap_err();
        assert_eq!(
            err,
            ServiceError::Rejected {
                shard: ShardId::Spill,
                event: ins(4, 1, 2.0),
                reason: RejectReason::AlreadyPresent,
            }
        );
        let err = submit(&mut svc, del(0, 1)).unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Rejected {
                shard: ShardId::Routed(0),
                reason: RejectReason::NotPresent,
                ..
            }
        ));
        assert_eq!(svc.pending_ops(), 0);
    }

    #[test]
    fn every_n_ops_policy_flushes_the_filling_shard_only() {
        let mut svc = blocked(2, 8, FlushPolicy::EveryNOps(2));
        assert!(svc.buffer_event(ins(0, 1, 1.0)).unwrap().1.is_none());
        assert_eq!(svc.epochs(), vec![0, 0, 0]);
        // Shard 0 reaches 2 pending -> auto flush, reported back to the caller.
        let (id, flushed) = svc.buffer_event(ins(1, 2, 1.0)).unwrap();
        assert_eq!(id, ShardId::Routed(0));
        let (flushed_id, report) = flushed.expect("threshold flush must be reported");
        assert_eq!(flushed_id, ShardId::Routed(0));
        assert_eq!(report.ops_applied, 2);
        assert_eq!(svc.epochs(), vec![1, 0, 0]);
        assert_eq!(svc.pending_ops(), 0);
        assert!(svc.buffer_event(ins(4, 5, 1.0)).unwrap().1.is_none()); // shard 1 stays buffered
        assert_eq!(svc.epochs(), vec![1, 0, 0]);
        assert_eq!(svc.pending_ops(), 1);
    }

    #[test]
    fn on_read_policy_makes_snapshots_observe_everything() {
        let mut svc = blocked(2, 8, FlushPolicy::OnRead);
        submit(&mut svc, ins(0, 1, 1.0)).unwrap();
        submit(&mut svc, ins(1, 4, 1.5)).unwrap();
        // `published` is a pure read: nothing flushed yet.
        assert_eq!(svc.published().num_graph_edges(), 0);
        // `snapshot` honours OnRead: flush, then read.
        let snap = snapshot(&mut svc).unwrap();
        assert_eq!(snap.num_graph_edges(), 2);
        assert!(snap.same_cluster(v(0), v(4), 1.5));
        assert_eq!(svc.pending_ops(), 0);
    }

    #[test]
    fn snapshots_stay_frozen_across_later_flushes() {
        let mut svc = blocked(2, 8, FlushPolicy::Manual);
        submit(&mut svc, ins(0, 4, 1.0)).unwrap();
        svc.flush_direct().unwrap();
        let old = snapshot(&mut svc).unwrap();
        assert!(old.same_cluster(v(0), v(4), 1.0));

        submit(&mut svc, del(0, 4)).unwrap();
        svc.flush_direct().unwrap();
        let new = snapshot(&mut svc).unwrap();
        assert!(!new.same_cluster(v(0), v(4), f64::INFINITY));
        // The held view keeps answering for its epoch vector.
        assert!(old.same_cluster(v(0), v(4), 1.0));
        assert_eq!(old.num_graph_edges(), 1);
        // Only the spill shard (home of edge 0-4) published new states.
        assert_eq!(old.epochs(), vec![0, 0, 1]);
        assert_eq!(new.epochs(), vec![0, 0, 2]);
    }

    #[test]
    fn merged_clusterings_are_cached_and_canonical() {
        let mut svc = blocked(2, 8, FlushPolicy::Manual);
        submit_all(&mut svc, [ins(0, 1, 1.0), ins(4, 5, 1.0), ins(1, 4, 2.0)]).unwrap();
        svc.flush_direct().unwrap();
        let snap = snapshot(&mut svc).unwrap();
        let a = snap.flat_clustering(2.0);
        let b = snap.flat_clustering(2.0);
        assert!(Arc::ptr_eq(&a, &b), "merged clusterings must be memoised");
        // Separate reads at the same epoch vector share one merged cache, even across no-op
        // flushes.
        svc.flush_direct().unwrap();
        let c = snapshot(&mut svc).unwrap().flat_clustering(2.0);
        assert!(
            Arc::ptr_eq(&a, &c),
            "repeated reads at one epoch vector must share the merged cache"
        );
        // Canonical: labels numbered by smallest member, members ascending.
        assert_eq!(a.clusters[a.labels[0]], vec![v(0), v(1), v(4), v(5)]);
        let total: usize = a.clusters.iter().map(Vec::len).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn add_vertices_grows_every_shard_and_is_immediately_visible() {
        let mut svc = blocked(2, 8, FlushPolicy::Manual);
        submit(&mut svc, ins(0, 1, 1.0)).unwrap();
        svc.flush_direct().unwrap();
        let first = svc.add_vertices(2);
        assert_eq!(first, v(8));
        assert_eq!(svc.num_vertices(), 10);
        for id in svc.shard_ids() {
            assert_eq!(svc.shard(id).num_vertices(), 10);
        }
        let snap = snapshot(&mut svc).unwrap();
        assert_eq!(snap.num_vertices(), 10);
        assert_eq!(snap.num_components(), 9); // 10 vertices, one merged pair
                                              // New vertices accept edges right away.
        submit(&mut svc, ins(8, 9, 1.0)).unwrap();
        svc.flush_direct().unwrap();
        assert!(snapshot(&mut svc).unwrap().same_cluster(v(8), v(9), 1.0));
    }

    #[test]
    fn metrics_merge_across_shards() {
        let mut svc = blocked(2, 8, FlushPolicy::Manual);
        submit_all(&mut svc, [ins(0, 1, 1.0), ins(4, 5, 1.0), ins(1, 4, 2.0)]).unwrap();
        svc.flush_direct().unwrap();
        let m = svc.metrics();
        assert_eq!(m.events_submitted, 3);
        assert_eq!(m.ops_applied, 3);
        assert_eq!(m.flushes, 3); // one per non-empty shard
        let spill = svc.shard_metrics(ShardId::Spill);
        assert_eq!(spill.ops_applied, 1);
    }

    #[test]
    fn metrics_report_spill_routing_share() {
        let mut svc = blocked(2, 8, FlushPolicy::Manual);
        // Two shard-local events, one cross-shard event -> 1/3 of the routed traffic spills.
        submit_all(&mut svc, [ins(0, 1, 1.0), ins(4, 5, 1.0), ins(1, 4, 2.0)]).unwrap();
        let m = svc.metrics();
        assert_eq!(m.events_routed_spill, 1);
        assert!((m.spill_routing_share() - 1.0 / 3.0).abs() < 1e-12);
        // Per-shard metrics stay routing-agnostic; only the service-level merge carries it.
        assert_eq!(svc.shard_metrics(ShardId::Spill).events_routed_spill, 0);
        // Single-shard services never spill.
        let mut solo = ClusterService::single_shard(4);
        submit(&mut solo, ins(0, 3, 1.0)).unwrap();
        assert_eq!(solo.metrics().events_routed_spill, 0);
        assert_eq!(solo.metrics().spill_routing_share(), 0.0);
    }

    #[test]
    fn metrics_track_the_ingest_queue() {
        let svc = blocked(2, 8, FlushPolicy::Manual);
        let ingest = svc.ingest_handle();
        ingest.submit(ins(0, 1, 1.0)).unwrap();
        ingest.submit(ins(4, 5, 1.0)).unwrap();
        let m = svc.metrics();
        assert_eq!(m.events_enqueued, 2);
        assert_eq!(m.queue_full_rejections, 0);
        // A full queue in Fail mode is counted.
        let tight = ServiceBuilder::new()
            .vertices(4)
            .queue_capacity(1)
            .backpressure(Backpressure::Fail)
            .build()
            .unwrap();
        let h = tight.ingest_handle();
        h.submit(ins(0, 1, 1.0)).unwrap();
        assert!(h.submit(ins(1, 2, 1.0)).is_err());
        assert_eq!(tight.metrics().queue_full_rejections, 1);
    }

    #[test]
    fn metrics_gauge_queue_depths() {
        let svc = blocked(2, 8, FlushPolicy::Manual);
        let ingest = svc.ingest_handle();
        ingest.submit(ins(0, 1, 1.0)).unwrap();
        ingest.submit(ins(4, 5, 1.0)).unwrap();
        ingest.submit(ins(1, 2, 1.0)).unwrap();
        let before = svc.metrics();
        // Three events buffered at once; nothing drained yet.
        assert_eq!(before.queue_depth_max, 3);
        assert_eq!(before.queue_depth_last_drain, 0);
        let mut driver = FlusherDriver::new(svc);
        driver.pump().unwrap();
        let after = driver.service().metrics();
        // The drain observed the full queue; the watermark survives the drain.
        assert_eq!(after.queue_depth_max, 3);
        assert_eq!(after.queue_depth_last_drain, 3);
        // A shallower follow-up drain moves the gauge but not the watermark.
        driver
            .service()
            .ingest_handle()
            .submit(ins(2, 3, 1.0))
            .unwrap();
        driver.pump().unwrap();
        let last = driver.service().metrics();
        assert_eq!(last.queue_depth_max, 3);
        assert_eq!(last.queue_depth_last_drain, 1);
    }

    #[test]
    fn flush_reports_carry_wall_time_and_phase_totals() {
        let svc = blocked(2, 8, FlushPolicy::Manual);
        let ingest = svc.ingest_handle();
        ingest.submit(ins(0, 1, 1.0)).unwrap();
        ingest.submit(ins(4, 5, 1.0)).unwrap();
        ingest.submit(ins(1, 4, 2.0)).unwrap(); // cross-shard → spill
        let mut driver = FlusherDriver::new(svc);
        driver.pump().unwrap();
        let report = driver.flush().unwrap();
        assert!(report.wall_time > Duration::ZERO);
        // Three shards applied one op each: the busy-time sum dominates the slowest shard,
        // and no shard outlasted the whole flush.
        assert!(report.shard_time_sum() >= report.slowest_shard_time());
        assert!(report.slowest_shard_time() > Duration::ZERO);
        assert!(report.wall_time >= report.slowest_shard_time());
        let phases = report.phase_totals();
        assert!(phases.apply > Duration::ZERO);
        assert!(phases.total() <= report.shard_time_sum());
        // An idle follow-up flush still reports its (tiny) wall time.
        let idle = driver.flush().unwrap();
        assert_eq!(idle.slowest_shard_time(), Duration::ZERO);
        assert_eq!(idle.phase_totals(), FlushPhases::default());
    }

    #[test]
    fn per_shard_msf_backend_is_configurable_and_validated() {
        // An override naming a shard the configuration will not build is rejected whole.
        let err = ServiceBuilder::new()
            .vertices(8)
            .shards(2)
            .shard_msf_backend(3, ForestBackend::Hdt)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ServiceError::InvalidConfig(ConfigError::ShardIndexOutOfRange {
                shard: 3,
                engines: 3
            })
        );
        // Mixed backends — HDT on shard 0, scan on shard 1 and the spill shard — must be
        // observationally identical to an all-scan service on the same stream; only the work
        // counters may differ.
        let build = |mixed: bool| {
            let mut builder = ServiceBuilder::new()
                .vertices(8)
                .shards(2)
                .partitioner(BlockPartitioner { block_size: 4 })
                .msf_backend(ForestBackend::Scan);
            if mixed {
                builder = builder.shard_msf_backend(0, ForestBackend::Hdt);
            }
            builder.build().expect("valid test configuration")
        };
        let stream = [
            ins(0, 1, 1.0),
            ins(1, 2, 2.0),
            ins(0, 2, 9.0), // reserve edge on shard 0
            ins(4, 5, 3.0),
            ins(1, 5, 4.0), // cross-shard → spill
            del(0, 1),      // shard-0 tree deletion: the HDT search promotes (0, 2)
        ];
        let mut views = Vec::new();
        for mixed in [false, true] {
            let svc = build(mixed);
            let ingest = svc.ingest_handle();
            for update in stream {
                ingest.submit(update).unwrap();
            }
            let mut driver = FlusherDriver::new(svc);
            driver.pump().unwrap();
            driver.flush().unwrap();
            views.push(driver.service().published());
        }
        assert_eq!(views[0].num_graph_edges(), views[1].num_graph_edges());
        for tau in [0.5, 2.5, 9.5, f64::INFINITY] {
            assert_eq!(views[0].num_clusters(tau), views[1].num_clusters(tau));
            for i in 0..8u32 {
                for j in (i + 1)..8u32 {
                    assert_eq!(
                        views[0].same_cluster(VertexId(i), VertexId(j), tau),
                        views[1].same_cluster(VertexId(i), VertexId(j), tau),
                        "mixed-backend service diverged on ({i}, {j}) at tau={tau}"
                    );
                }
            }
        }
    }

    #[test]
    fn builder_telemetry_instruments_the_whole_pipeline() {
        let telemetry = Telemetry::enabled();
        let svc = ServiceBuilder::new()
            .vertices(8)
            .shards(2)
            .partitioner(BlockPartitioner { block_size: 4 })
            .telemetry(telemetry.clone())
            .build()
            .unwrap();
        assert!(svc.telemetry().is_enabled());
        let ingest = svc.ingest_handle();
        ingest.submit(ins(0, 1, 1.0)).unwrap();
        ingest.submit(ins(4, 5, 1.0)).unwrap();
        let mut driver = FlusherDriver::new(svc);
        driver.pump().unwrap();
        driver.flush().unwrap();
        let snap = telemetry.snapshot();
        // Submit-side latency, drain depth, routing, and flush phases all recorded.
        for series in [
            "ingest.submit_ns",
            "queue.drain_depth",
            "driver.drain_size",
            "service.route_ns",
            "service.flush_wall_ns",
            "engine.flush_ns",
            "engine.apply_ns",
        ] {
            assert!(
                snap.histogram(series).is_some_and(|h| !h.is_empty()),
                "series {series} missing or empty"
            );
        }
        assert!(snap.counter("engine.flushes").unwrap_or(0) >= 1);
        snap.trace.check_well_formed().unwrap();
        assert!(snap.trace.total_events() > 0);
        // The default builder stays inert without the env opt-in.
        let inert = blocked(2, 8, FlushPolicy::Manual);
        if std::env::var("DYNSLD_TRACE").is_err() {
            assert!(!inert.telemetry().is_enabled());
        }
    }

    /// A 2-shard greedy service for the assignment tests below.
    fn greedy(n: usize) -> ClusterService {
        ServiceBuilder::new()
            .vertices(n)
            .shards(2)
            .stateful_partitioner(GreedyPartitioner::default())
            .build()
            .expect("valid greedy configuration")
    }

    #[test]
    fn greedy_pins_on_first_sight_and_keeps_neighbourhoods_local() {
        let mut svc = greedy(12);
        assert!(svc.assignment_table().is_some());
        assert_eq!(svc.assignment_of(v(0)), None);
        // `route` is a preview: it must not pin anything.
        let previewed = svc.route(v(0), v(1));
        assert_eq!(svc.assignment_of(v(0)), None);
        // The first edge pins both endpoints together on one shard.
        let id = submit(&mut svc, ins(0, 1, 1.0)).unwrap();
        assert_eq!(id, previewed);
        let s0 = svc.assignment_of(v(0)).expect("pinned at first sight");
        assert_eq!(id, ShardId::Routed(s0));
        assert_eq!(svc.assignment_of(v(1)), Some(s0));
        // Vertices arriving attached to that community join its shard...
        assert_eq!(
            submit(&mut svc, ins(1, 2, 1.0)).unwrap(),
            ShardId::Routed(s0)
        );
        // ...while an unrelated pair starts a new community on the emptier shard...
        let other = submit(&mut svc, ins(6, 7, 1.0)).unwrap();
        let ShardId::Routed(s1) = other else {
            panic!("fresh pair must not spill")
        };
        assert_ne!(s0, s1, "least-loaded placement separates communities");
        // ...and only genuinely cross-community edges spill, without moving any pin.
        assert_eq!(submit(&mut svc, ins(0, 6, 9.0)).unwrap(), ShardId::Spill);
        assert_eq!(svc.assignment_of(v(0)), Some(s0));
        assert_eq!(svc.assignment_of(v(6)), Some(s1));
        // Pinned endpoints route the same way forever.
        assert_eq!(svc.route(v(0), v(2)), ShardId::Routed(s0));

        let report = svc.flush_direct().unwrap();
        assert_eq!(report.shard_event_loads.len(), 3);
        let total: u64 = report.shard_event_loads.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 4, "every routed event shows up in the load counters");
        assert!(report.event_load_ratio() >= 1.0);

        let m = svc.metrics();
        assert_eq!(m.vertices_assigned, 5); // 0, 1, 2, 6, 7
        assert_eq!(m.edge_inserts_routed, 4);
        assert_eq!(m.edge_inserts_cut, 1);
        assert!((m.edge_cut_share() - 0.25).abs() < 1e-12);
    }

    /// Regression: structurally invalid events (out-of-range endpoints, self-loops) under a
    /// stateful partitioner must surface as routing-time rejections like they do under pure
    /// partitioners — not panic the single writer in `AssignmentTable::assign` — and must
    /// not pin anything on the way to rejection.
    #[test]
    fn greedy_rejects_invalid_events_without_pinning_or_panicking() {
        let mut svc = greedy(4);
        // Out of range: v(99) does not exist on a 4-vertex service.
        let err = svc.buffer_event(ins(0, 99, 1.0)).unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Rejected {
                shard: ShardId::Spill,
                reason: RejectReason::VertexOutOfRange,
                ..
            }
        ));
        // The doomed event pinned neither its valid nor its invalid endpoint.
        assert_eq!(svc.assignment_of(v(0)), None);
        assert_eq!(svc.metrics().vertices_assigned, 0);
        // Self-loop: rejected, nothing pinned.
        let err = svc.buffer_event(ins(2, 2, 1.0)).unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Rejected {
                reason: RejectReason::SelfLoop,
                ..
            }
        ));
        assert_eq!(svc.assignment_of(v(2)), None);
        // The service keeps working after the rejections.
        assert!(svc.buffer_event(ins(0, 1, 1.0)).is_ok());
        assert!(svc.assignment_of(v(0)).is_some());

        // Single-shard services take the same path (no spill shard: rejected by shard 0).
        let mut solo = ServiceBuilder::new()
            .vertices(4)
            .stateful_partitioner(GreedyPartitioner::default())
            .build()
            .unwrap();
        let err = solo.buffer_event(ins(0, 9, 1.0)).unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Rejected {
                shard: ShardId::Routed(0),
                reason: RejectReason::VertexOutOfRange,
                ..
            }
        ));
        assert_eq!(solo.metrics().vertices_assigned, 0);
    }

    /// Single-shard stateful services still pin vertices at first sight, so assignment
    /// introspection behaves identically at every shard count.
    #[test]
    fn greedy_pins_on_single_shard_services_too() {
        let mut solo = ServiceBuilder::new()
            .vertices(6)
            .stateful_partitioner(GreedyPartitioner::default())
            .build()
            .unwrap();
        assert_eq!(
            submit(&mut solo, ins(0, 1, 1.0)).unwrap(),
            ShardId::Routed(0)
        );
        assert_eq!(solo.assignment_of(v(0)), Some(0));
        assert_eq!(solo.assignment_of(v(1)), Some(0));
        assert_eq!(solo.metrics().vertices_assigned, 2);
        assert_eq!(solo.assignment_table().unwrap().load(0), 2);
    }

    #[test]
    fn greedy_assignment_table_grows_with_add_vertices() {
        let mut svc = greedy(8);
        submit(&mut svc, ins(0, 1, 1.0)).unwrap();
        let s0 = svc.assignment_of(v(0)).unwrap();
        let first = svc.add_vertices(2);
        assert_eq!(first, v(8));
        assert_eq!(svc.assignment_table().unwrap().num_vertices(), 10);
        assert_eq!(svc.assignment_of(v(8)), None);
        // A grown vertex joins the shard its first edge pulls it towards.
        assert_eq!(
            submit(&mut svc, ins(1, 8, 1.0)).unwrap(),
            ShardId::Routed(s0)
        );
        assert_eq!(svc.assignment_of(v(8)), Some(s0));
    }

    #[test]
    fn pure_partitioners_report_no_assignments() {
        let mut svc = blocked(2, 8, FlushPolicy::Manual);
        submit(&mut svc, ins(0, 1, 1.0)).unwrap();
        assert!(svc.assignment_table().is_none());
        assert_eq!(svc.assignment_of(v(0)), None);
        assert_eq!(svc.metrics().vertices_assigned, 0);
    }

    #[test]
    fn shard_event_loads_accumulate_per_shard() {
        let mut svc = blocked(2, 8, FlushPolicy::Manual);
        submit_all(
            &mut svc,
            [
                ins(0, 1, 1.0),
                ins(1, 2, 1.0),
                ins(4, 5, 1.0),
                ins(1, 4, 2.0),
            ],
        )
        .unwrap();
        assert_eq!(
            svc.shard_event_loads(),
            vec![
                (ShardId::Routed(0), 2),
                (ShardId::Routed(1), 1),
                (ShardId::Spill, 1)
            ]
        );
        let report = svc.flush_direct().unwrap();
        assert_eq!(report.shard_event_loads, svc.shard_event_loads());
        assert_eq!(report.event_load_ratio(), 2.0);
        // The default report carries no loads and reports a 0 ratio.
        assert_eq!(ServiceFlushReport::default().event_load_ratio(), 0.0);
    }

    #[test]
    fn threads_knob_defaults_to_pool_and_gates_sequential_mode() {
        let svc = blocked(2, 8, FlushPolicy::Manual);
        assert_eq!(svc.threads(), rayon::current_num_threads());
        let sequential = ServiceBuilder::new()
            .vertices(8)
            .shards(3)
            .threads(1)
            .build()
            .unwrap();
        assert_eq!(sequential.threads(), 1);
    }

    #[test]
    fn concurrent_flush_matches_sequential_flush() {
        let stream = [
            ins(0, 1, 1.0),
            ins(4, 5, 2.0),
            ins(1, 4, 3.0),
            ins(2, 3, 4.0),
            ins(6, 7, 5.0),
            ins(3, 6, 6.0),
        ];
        let mut seq = ServiceBuilder::new()
            .vertices(8)
            .shards(2)
            .partitioner(BlockPartitioner { block_size: 4 })
            .threads(1)
            .build()
            .unwrap();
        let mut par = ServiceBuilder::new()
            .vertices(8)
            .shards(2)
            .partitioner(BlockPartitioner { block_size: 4 })
            .threads(4)
            .build()
            .unwrap();
        submit_all(&mut seq, stream).unwrap();
        submit_all(&mut par, stream).unwrap();
        let seq_report = seq.flush_direct().unwrap();
        let par_report = par.flush_direct().unwrap();
        // Identical per-shard reports in identical shard order (durations excepted: they are
        // wall-clock measurements, not semantics)...
        assert_eq!(seq_report.reports.len(), par_report.reports.len());
        for ((id_s, r_s), (id_p, r_p)) in seq_report.reports.iter().zip(&par_report.reports) {
            assert_eq!(id_s, id_p);
            assert_eq!(r_s.epoch, r_p.epoch);
            assert_eq!(r_s.ops_applied, r_p.ops_applied);
            assert_eq!(r_s.changes, r_p.changes);
            assert_eq!(r_s.promoted, r_p.promoted);
            assert_eq!(r_s.fast_path, r_p.fast_path);
            assert_eq!(r_s.fallback, r_p.fallback);
        }
        assert_eq!(seq.epochs(), par.epochs());
        // ...and identical merged views.
        let (a, b) = (snapshot(&mut seq).unwrap(), snapshot(&mut par).unwrap());
        assert_eq!(a.num_graph_edges(), b.num_graph_edges());
        for tau in [1.5, 3.5, 6.0, f64::INFINITY] {
            assert_eq!(
                a.flat_clustering(tau).clusters,
                b.flat_clustering(tau).clusters,
                "clusterings diverged at tau={tau}"
            );
        }
    }

    /// Blocks of 4 over 8 vertices, 2 routed shards + spill, armed with a fault plan.
    fn faulted(spec: &str) -> ClusterService {
        ServiceBuilder::new()
            .vertices(8)
            .shards(2)
            .partitioner(BlockPartitioner { block_size: 4 })
            .faults(FaultPlan::parse(spec).expect("valid fault spec"))
            .build()
            .expect("valid test configuration")
    }

    fn assert_views_identical(a: &ServiceSnapshot, b: &ServiceSnapshot) {
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.num_graph_edges(), b.num_graph_edges());
        for tau in [0.5, 1.5, 2.5, 3.5, 5.0, f64::INFINITY] {
            let (ca, cb) = (a.flat_clustering(tau), b.flat_clustering(tau));
            assert_eq!(ca.labels, cb.labels, "labels diverged at tau={tau}");
            assert_eq!(ca.clusters, cb.clusters, "members diverged at tau={tau}");
        }
    }

    #[test]
    fn entry_panic_is_caught_and_retried_transparently() {
        let mut svc = faulted("flush_panic=shard:0,flush:1,entry");
        let stream = [ins(0, 1, 1.0), ins(4, 5, 2.0)];
        submit_all(&mut svc, stream).unwrap();
        let report = svc.flush_direct().unwrap();
        // The entry panic fired before anything was consumed, so one transparent retry
        // completes the flush: no quarantine, and the state matches the no-fault oracle.
        assert!(report.shard_health.iter().all(|(_, h)| !h.is_quarantined()));
        let metrics = svc.metrics();
        assert_eq!(metrics.shard_panics_caught, 1);
        assert_eq!(metrics.shards_quarantined, 0);
        let mut oracle = blocked(2, 8, FlushPolicy::Manual);
        submit_all(&mut oracle, stream).unwrap();
        oracle.flush_direct().unwrap();
        assert_views_identical(&svc.published(), &oracle.published());
    }

    #[test]
    fn torn_panic_quarantines_the_shard_and_keeps_serving_stale() {
        let mut svc = faulted("flush_panic=shard:0,flush:2");
        submit_all(&mut svc, [ins(0, 1, 1.0), ins(4, 5, 2.0)]).unwrap();
        svc.flush_direct().unwrap();
        // Second non-empty flush of shard 0 panics mid-batch (after the deletion half).
        submit_all(&mut svc, [ins(1, 2, 3.0), ins(5, 6, 4.0)]).unwrap();
        let report = svc
            .flush_direct()
            .expect("flush isolates the panic, not errors");
        assert_eq!(report.shard_health[0].0, ShardId::Routed(0));
        assert!(report.shard_health[0].1.is_quarantined());
        let snap = svc.published();
        assert!(snap.is_stale());
        assert_eq!(snap.stale_shards(), vec![ShardId::Routed(0)]);
        // Shard 0 serves its last-published epoch: the pre-panic edge is there, the torn
        // flush's edge is not — while shard 1's concurrent flush landed normally.
        assert!(snap.same_cluster(v(0), v(1), 1.5));
        assert!(!snap.same_cluster(v(1), v(2), 5.0));
        assert!(snap.same_cluster(v(5), v(6), 5.0));
        // Ingest into the quarantined shard keeps being accepted (journaled for recovery).
        submit(&mut svc, ins(2, 3, 1.0)).unwrap();
        // Strict readers refuse the stale view; availability readers serve and count it.
        let read = svc.read_handle();
        assert!(matches!(
            read.snapshot_strict(),
            Err(ServiceError::ShardQuarantined {
                shard: ShardId::Routed(0)
            })
        ));
        let _ = read.snapshot();
        let metrics = svc.metrics();
        assert_eq!(metrics.shard_panics_caught, 1);
        assert_eq!(metrics.shards_quarantined, 1);
        assert_eq!(metrics.stale_reads_served, 1);
    }

    #[test]
    fn recovered_shard_is_bit_identical_to_the_no_fault_oracle() {
        let mut svc = faulted("flush_panic=shard:0,flush:2");
        let phase1 = [ins(0, 1, 1.0), ins(2, 3, 2.0), ins(4, 5, 3.0)];
        let phase2 = [ins(1, 2, 4.0), del(2, 3), ins(5, 6, 1.5)];
        // Submitted *after* the quarantine: journaled unvalidated, validated on replay.
        let phase3 = [ins(0, 3, 2.5), ins(6, 7, 0.5)];
        submit_all(&mut svc, phase1).unwrap();
        svc.flush_direct().unwrap();
        submit_all(&mut svc, phase2).unwrap();
        svc.flush_direct().unwrap();
        assert!(svc.published().is_stale());
        submit_all(&mut svc, phase3).unwrap();
        // Vertex growth while quarantined is journaled too, so the recovered shard agrees
        // with its siblings on the grown vertex set.
        svc.add_vertices(2);
        svc.flush_direct().unwrap();
        let recovery = svc.recover_shard(ShardId::Routed(0)).unwrap();
        assert_eq!(recovery.shard, ShardId::Routed(0));
        assert!(recovery.rejected.is_empty(), "the stream was valid");
        assert!(recovery.events_replayed > 0);
        assert!(!svc.published().is_stale());
        // Recovering a healthy shard is a no-op.
        let noop = svc.recover_shard(ShardId::Routed(0)).unwrap();
        assert_eq!(noop.events_replayed, 0);
        let metrics = svc.metrics();
        assert_eq!(metrics.shard_panics_caught, 1);
        assert_eq!(metrics.shards_quarantined, 1);
        assert_eq!(metrics.shard_recoveries, 1);
        // The oracle never saw a fault; after recovery the views are bit-identical.
        let mut oracle = blocked(2, 8, FlushPolicy::Manual);
        submit_all(&mut oracle, phase1).unwrap();
        oracle.flush_direct().unwrap();
        submit_all(&mut oracle, phase2).unwrap();
        oracle.flush_direct().unwrap();
        submit_all(&mut oracle, phase3).unwrap();
        oracle.add_vertices(2);
        oracle.flush_direct().unwrap();
        assert_views_identical(&svc.published(), &oracle.published());
    }

    #[test]
    fn journals_stay_bounded_and_a_late_tear_recovers_bit_identically() {
        // 20 000 churn events over 24 vertices, around 48 live edges: a journal of every
        // routed event would outgrow the bound below about a hundredfold.
        let n = 24;
        let stream = dynsld_forest::workload::GraphWorkloadBuilder::new(n)
            .weight_scale(8.0)
            .churn_stream(2 * n, 20_000, 5);
        let (batch, engines) = (8, 3);
        let build = |faults: FaultPlan| {
            ServiceBuilder::new()
                .vertices(n)
                .shards(2)
                .partitioner(crate::partition::HashPartitioner)
                .flush_policy(FlushPolicy::EveryNOps(batch))
                .faults(faults)
                .build()
                .map(FlusherDriver::new)
                .expect("valid test configuration")
        };
        let entry = std::mem::size_of::<JournalEntry>();
        let mut peak_live = 0;
        let mut within_bound = |driver: &FlusherDriver| {
            let svc = driver.service();
            peak_live = peak_live.max(svc.published().num_graph_edges());
            let bytes = svc.metrics().journal_bytes as usize;
            let bound = 2 * entry * (peak_live + batch * engines);
            assert!(bytes <= bound, "journal {bytes} B over bound {bound} B");
        };
        let feed = |driver: &mut FlusherDriver, chunk: &[GraphUpdate]| {
            let ingest = driver.service().ingest_handle();
            ingest
                .submit_all(chunk.iter().copied())
                .expect("queue open");
            driver.pump().expect("valid stream");
        };

        let mut oracle = build(FaultPlan::disabled());
        for chunk in stream.chunks(100) {
            feed(&mut oracle, chunk);
            within_bound(&oracle);
        }
        // Tear shard 0 on one of its last flushes, long after its journal was re-imaged.
        let late = oracle.service().shard_metrics(ShardId::Routed(0)).flushes * 9 / 10;
        let spec = format!("flush_panic=shard:0,flush:{late}");
        let mut faulted = build(FaultPlan::parse(&spec).expect("valid fault spec"));
        for chunk in stream.chunks(100) {
            feed(&mut faulted, chunk);
            if !faulted.service().published().is_stale() {
                within_bound(&faulted);
            }
        }
        let stale = faulted.service().published().stale_shards();
        assert_eq!(stale, vec![ShardId::Routed(0)]);
        let journal = &faulted.service().journals[0];
        assert!(!journal.image.is_empty(), "the tear came after a re-image");
        let tail_events = journal
            .tail
            .iter()
            .filter(|e| matches!(e, JournalEntry::Event(_)))
            .count();
        let replay = journal.image.len() + tail_events;

        let report = faulted.recover_shard(ShardId::Routed(0)).expect("rebuild");
        assert!(report.rejected.is_empty(), "the stream was valid");
        assert_eq!(report.events_replayed, replay);
        faulted.flush().expect("flush");
        oracle.flush().expect("flush");
        within_bound(&faulted);
        assert_views_identical(
            &faulted.service().published(),
            &oracle.service().published(),
        );
    }

    #[test]
    fn flush_report_carries_health_and_absorb_keeps_the_latest() {
        let mut svc = blocked(2, 8, FlushPolicy::Manual);
        submit(&mut svc, ins(0, 1, 1.0)).unwrap();
        let report = svc.flush_direct().unwrap();
        assert_eq!(report.shard_health.len(), 3); // 2 routed + spill
        assert!(report.shard_health.iter().all(|(_, h)| !h.is_quarantined()));
        let mut base = ServiceFlushReport::default();
        base.absorb(report.clone());
        assert_eq!(base.shard_health, report.shard_health);
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dynsld-svc-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// 2 routed shards + spill over 8 vertices, journaling into `dir`. The fault plan is
    /// pinned disabled so an ambient `DYNSLD_FAULTS` (CI's crash-injection suite runs)
    /// can't kill the journal these tests recover from.
    fn durable_svc(dir: &Path, checkpoint_every: u64) -> ClusterService {
        ServiceBuilder::new()
            .vertices(8)
            .shards(2)
            .partitioner(BlockPartitioner { block_size: 4 })
            .flush_policy(FlushPolicy::Manual)
            .faults(FaultPlan::disabled())
            .durable(dir)
            .checkpoint_every_records(checkpoint_every)
            .build()
            .expect("valid durable configuration")
    }

    #[test]
    fn bad_fault_specs_surface_as_config_errors() {
        // Satellite pin: each malformed clause is rejected at build() as a typed
        // ConfigError naming the offending rule, never a silently-disabled plan.
        for (spec, bad_rule) in [
            ("crash", "crash"),                             // missing `=`
            ("crash=bogus:1", "crash=bogus:1"),             // unknown crash arg
            ("crash=", "crash="),                           // no trigger at all
            ("wal_torn=at:xyz", "wal_torn=at:xyz"),         // non-integer ordinal
            ("seed=abc", "seed=abc"),                       // non-integer seed
            ("frobnicate=1", "frobnicate=1"),               // unknown fault name
            ("flush_panic=shard:0", "flush_panic=shard:0"), // missing trigger
        ] {
            let err = ServiceBuilder::new()
                .vertices(4)
                .faults_spec(spec)
                .build()
                .expect_err("malformed spec must not build");
            let ServiceError::InvalidConfig(ConfigError::BadFaultSpec(detail)) = err else {
                panic!("expected BadFaultSpec for `{spec}`, got {err:?}");
            };
            assert_eq!(detail.rule, bad_rule, "error must name the bad clause");
            assert!(!detail.reason.is_empty());
            // The Display chain keeps the clause visible all the way up.
            let rendered =
                ServiceError::InvalidConfig(ConfigError::BadFaultSpec(detail)).to_string();
            assert!(rendered.contains(bad_rule), "{rendered}");
        }
        // A well-formed spec still builds.
        ServiceBuilder::new()
            .vertices(4)
            .faults_spec("crash=every:100;seed=7")
            .build()
            .expect("valid spec builds");
    }

    #[test]
    fn durable_round_trip_restores_identical_views() {
        let dir = tmpdir("roundtrip");
        let stream = [
            ins(0, 1, 1.0),
            ins(4, 5, 2.0),
            ins(1, 4, 3.0),
            ins(2, 3, 0.5),
            del(4, 5),
            ins(5, 6, 1.5),
        ];
        {
            // First life: journal every event, flush, then crash (drop without any
            // explicit shutdown or checkpoint).
            let service = durable_svc(&dir, u64::MAX);
            let ingest = service.ingest_handle();
            let mut driver = FlusherDriver::new(service);
            for e in stream {
                ingest.submit(e).unwrap();
            }
            driver.pump().unwrap();
            driver.flush().unwrap();
            driver.add_vertices(2);
            assert!(driver.service().durability().is_some());
        }
        // Second life: recovery replays the WAL tail through the normal batch paths.
        let recovered = durable_svc(&dir, u64::MAX);
        let report = recovered.durability().expect("durable service").clone();
        assert!(report.recovered);
        assert_eq!(report.checkpoint_lsn, 0, "no checkpoint was ever written");
        assert_eq!(report.wal_records_replayed, stream.len() as u64 + 1); // + Grow
        assert!(report.replay_rejected.is_empty());
        let mut oracle = blocked(2, 8, FlushPolicy::Manual);
        submit_all(&mut oracle, stream).unwrap();
        oracle.add_vertices(2);
        oracle.flush_direct().unwrap();
        assert_eq!(recovered.published().num_vertices(), 10);
        assert_views_identical(&recovered.published(), &oracle.published());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_bounds_replay_and_reclaims_wal() {
        let dir = tmpdir("checkpoint");
        let phase1 = [ins(0, 1, 1.0), ins(4, 5, 2.0), ins(1, 4, 3.0)];
        let phase2 = [ins(2, 3, 0.5), del(0, 1)];
        {
            let service = durable_svc(&dir, 1);
            let ingest = service.ingest_handle();
            let mut driver = FlusherDriver::new(service);
            for e in phase1 {
                ingest.submit(e).unwrap();
            }
            driver.pump().unwrap();
            driver.flush().unwrap(); // quiescent + over threshold → checkpoint
            assert_eq!(driver.service().metrics().checkpoints_written, 1);
            for e in phase2 {
                ingest.submit(e).unwrap();
            }
            driver.pump().unwrap();
            // Crash with phase2 applied and checkpointed... actually flush() would
            // checkpoint again; crash before any flush so phase2 lives only in the WAL.
        }
        let recovered = durable_svc(&dir, u64::MAX);
        let report = recovered.durability().expect("durable service").clone();
        assert!(report.recovered);
        assert_eq!(report.checkpoint_lsn, phase1.len() as u64);
        assert_eq!(report.wal_records_replayed, phase2.len() as u64);
        let mut oracle = blocked(2, 8, FlushPolicy::Manual);
        submit_all(&mut oracle, phase1).unwrap();
        submit_all(&mut oracle, phase2).unwrap();
        oracle.flush_direct().unwrap();
        assert_views_identical(&recovered.published(), &oracle.published());
        // Recovery republishes past the checkpoint's revision so cached validators
        // (ETags) derived from the first life can never alias the recovered view.
        assert!(recovered.published().revision() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_report_durability_counters() {
        let dir = tmpdir("metrics");
        {
            let service = durable_svc(&dir, 1);
            let ingest = service.ingest_handle();
            let mut driver = FlusherDriver::new(service);
            ingest.submit(ins(0, 1, 1.0)).unwrap();
            ingest.submit(ins(4, 5, 2.0)).unwrap();
            driver.pump().unwrap();
            driver.flush().unwrap();
            let m = driver.service().metrics();
            assert_eq!(m.wal_records_appended, 2);
            assert!(m.wal_bytes_written > 0);
            assert_eq!(m.checkpoints_written, 1);
            assert_eq!(m.torn_tails_truncated, 0);
            assert_eq!(m.recoveries_completed, 0, "a first life never recovers");
        }
        let recovered = durable_svc(&dir, u64::MAX);
        let m = recovered.metrics();
        assert_eq!(m.recoveries_completed, 1);
        // A non-durable service reports all-zero durability counters.
        let plain = blocked(2, 8, FlushPolicy::Manual);
        let m = plain.metrics();
        assert_eq!(m.wal_records_appended, 0);
        assert_eq!(m.checkpoints_written, 0);
        assert_eq!(m.recoveries_completed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
