//! Shard journals and every engine rebuild: the image-plus-tail journal each shard keeps,
//! the one `rebuild` routine behind shard recovery and checkpoint restore, and the durable
//! layer (WAL append, checkpoints, restore at build time).

use super::{
    ClusterService, DurabilityReport, DurableState, RecoveryReport, Router, ServiceError,
    ServiceSnapshot, ShardHealth,
};
use crate::engine::ClusteringEngine;
use crate::faults::{CheckpointWriteFault, WalWriteFault};
use crate::partition::{AssignmentTable, ShardId};
use dynsld_durable::{
    Checkpoint, CheckpointStore, FsyncPolicy, ShardCheckpoint, Wal, WalOptions, WalRecord,
};
use dynsld_forest::workload::GraphUpdate;
use dynsld_forest::{VertexId, Weight};
use std::path::Path;

/// One entry of a shard journal's tail, in routed order.
#[derive(Clone, Copy, Debug)]
pub(crate) enum JournalEntry {
    /// A routed event (validated on the healthy path; validation deferred to replay for
    /// events routed during quarantine).
    Event(GraphUpdate),
    /// A vertex-set growth by `k`.
    Grow(usize),
}

/// What one shard's state is a function of: an *image* — the vertex count and sorted live
/// edges at the shard's last quiescent point — plus the *tail* of entries routed since. A
/// dendrogram depends only on the live weighted edges, so re-inserting the image and
/// replaying the tail rebuilds the shard bit for bit, in memory bounded by the live edges
/// plus the tail rather than by the stream.
#[derive(Clone, Debug)]
pub(crate) struct ShardJournal {
    pub(crate) vertices: usize,
    pub(crate) image: Vec<(VertexId, VertexId, Weight)>,
    pub(crate) tail: Vec<JournalEntry>,
}

impl ShardJournal {
    pub(crate) fn new(vertices: usize, image: Vec<(VertexId, VertexId, Weight)>) -> Self {
        ShardJournal {
            vertices,
            image,
            tail: Vec::new(),
        }
    }

    /// Bytes held by the image edges and tail entries.
    pub(crate) fn bytes(&self) -> usize {
        self.image.len() * std::mem::size_of::<(VertexId, VertexId, Weight)>()
            + self.tail.len() * std::mem::size_of::<JournalEntry>()
    }

    /// Re-images the journal from `engine` once the tail has outgrown the image. Call only
    /// after a flush of `engine` finished `Ok`: its buffer is then empty, so its applied
    /// state is exactly image + tail. Reading and sorting m live edges costs O(m log m) and
    /// happens only after more than m tail entries, so O(log m) amortized per entry.
    pub(crate) fn compact_if_due(&mut self, engine: &ClusteringEngine) {
        if self.tail.len() > self.image.len() {
            self.vertices = engine.num_vertices();
            self.image = live_edges(engine);
            self.tail.clear();
        }
    }
}

/// An engine's live edges sorted by endpoints: a journal image, and a checkpoint's shard.
fn live_edges(engine: &ClusteringEngine) -> Vec<(VertexId, VertexId, Weight)> {
    let mut edges: Vec<(VertexId, VertexId, Weight)> = engine
        .graph()
        .graph_edges()
        .into_iter()
        .map(|(u, v, w, _)| (u, v, w))
        .collect();
    edges.sort_unstable_by_key(|e| (e.0, e.1));
    edges
}

impl ClusterService {
    /// Builds a fresh engine for shard `idx` — the image's vertex count and edges, then the
    /// tail in routed order, then one flush — and installs it as healthy: the one rebuild
    /// path, behind both [`recover_shard`](Self::recover_shard) and checkpoint restore.
    /// Returns the events replayed and the tail events rejected. A rejected image edge means
    /// a corrupt image and fails the rebuild, leaving the shard as it was. The new engine is
    /// not armed with the fault plan: recovery ends the fault experiment.
    fn rebuild(&mut self, idx: usize) -> Result<(usize, Vec<ServiceError>), ServiceError> {
        let id = self.id_of(idx);
        let journal = &self.journals[idx];
        let mut engine = ClusteringEngine::with_options(journal.vertices, self.shard_options[idx]);
        engine.set_telemetry(self.telemetry.clone());
        for &(u, v, weight) in &journal.image {
            engine
                .submit(GraphUpdate::Insert { u, v, weight })
                .map_err(|e| ServiceError::Durability {
                    detail: format!(
                        "image edge rejected during rebuild: {}",
                        ServiceError::from_engine(id, e)
                    ),
                })?;
        }
        let mut events_replayed = journal.image.len();
        let mut rejected = Vec::new();
        for entry in &journal.tail {
            match *entry {
                JournalEntry::Event(event) => {
                    events_replayed += 1;
                    if let Err(e) = engine.submit(event) {
                        rejected.push(ServiceError::from_engine(id, e));
                    }
                }
                JournalEntry::Grow(k) => {
                    engine.add_vertices(k);
                }
            }
        }
        if engine.pending_ops() > 0 {
            engine
                .flush()
                .map_err(|e| ServiceError::from_engine(id, e))?;
        }
        self.engines[idx] = engine;
        self.health[idx] = ShardHealth::Healthy;
        Ok((events_replayed, rejected))
    }

    /// Rebuilds a quarantined shard from its journal: the image of its live edges, then the
    /// tail of events and vertex growths routed since, in order, then one flush. Events
    /// routed during the quarantine were journaled unvalidated; replay validates them and
    /// collects rejections into [`RecoveryReport::rejected`] instead of aborting. The result
    /// is bit-identical to a shard that never panicked: the dendrogram is a pure function of
    /// the live weighted edge set, and coalescing does not depend on flush boundaries.
    ///
    /// On a healthy shard this is a no-op (`events_replayed == 0`). The recovered engine is
    /// *not* re-armed with the service's fault plan.
    pub fn recover_shard(&mut self, id: ShardId) -> Result<RecoveryReport, ServiceError> {
        let idx = self.index_of(id);
        let (events_replayed, rejected) = if self.health[idx].is_quarantined() {
            let replay = self.rebuild(idx)?;
            self.recoveries += 1;
            self.refresh_published();
            replay
        } else {
            (0, Vec::new())
        };
        Ok(RecoveryReport {
            shard: id,
            events_replayed,
            rejected,
            epoch: self.engines[idx].epoch(),
        })
    }

    /// Opens (or creates) the durable layer in `dir` and recovers whatever a previous
    /// process left there: the newest valid checkpoint is restored (falling back past a
    /// corrupt newest), the WAL tail beyond it is replayed through the normal routing
    /// paths, and the result is flushed and published. Called by
    /// [`ServiceBuilder::build`] as the last construction step, before any caller-supplied
    /// event exists — so the replay is indistinguishable from live ingest.
    pub(super) fn attach_durability(
        &mut self,
        dir: &Path,
        fsync: FsyncPolicy,
        checkpoint_every: u64,
    ) -> Result<(), ServiceError> {
        let store = CheckpointStore::open(dir)
            .map_err(|e| ServiceError::durability("opening checkpoint store", e))?;
        let load = store
            .load_newest_valid()
            .map_err(|e| ServiceError::durability("loading checkpoints", e))?;
        let wal_options = WalOptions {
            fsync,
            ..WalOptions::default()
        };
        let (mut wal, open_report) =
            Wal::open(dir, wal_options).map_err(|e| ServiceError::durability("opening WAL", e))?;
        let checkpoint_lsn = load.checkpoint.as_ref().map_or(0, |c| c.last_lsn);
        if wal.num_segments() > 0 && wal.last_lsn() < checkpoint_lsn {
            // Cannot happen from a process crash (a checkpoint's records were written to
            // the log file before the checkpoint claimed them), so the log was damaged by
            // something else — refuse rather than hand out recycled LSNs.
            return Err(ServiceError::Durability {
                detail: format!(
                    "WAL ends at lsn {} but the newest checkpoint covers lsn \
                     {checkpoint_lsn}: acknowledged log records are missing",
                    wal.last_lsn()
                ),
            });
        }
        if let Some(ckpt) = &load.checkpoint {
            self.restore_from_checkpoint(ckpt)?;
        }
        // Replay the WAL tail through the normal batch paths. `self.durable` is still
        // `None`, so nothing is re-logged — the records are already in the WAL.
        let mut replayed = 0u64;
        let mut replay_rejected = Vec::new();
        for (lsn, record) in &open_report.records {
            if *lsn <= checkpoint_lsn {
                continue;
            }
            replayed += 1;
            match record {
                WalRecord::Event(event) => match self.buffer_event(*event) {
                    Ok(_) => {}
                    // Replay re-validates in routed order, exactly where the original
                    // process validated: a rejection here is one the oracle made too.
                    Err(e @ ServiceError::Rejected { .. }) => replay_rejected.push(e),
                    Err(e) => return Err(e),
                },
                WalRecord::Grow(k) => {
                    self.add_vertices(*k as usize);
                }
            }
        }
        let recovered =
            load.checkpoint.is_some() || replayed > 0 || open_report.torn_tails_truncated > 0;
        if self.pending_ops() > 0 {
            self.flush_direct()?;
        }
        wal.ensure_next_lsn(checkpoint_lsn + 1);
        let records_durable = wal.last_lsn().max(checkpoint_lsn);
        self.durable = Some(DurableState {
            wal,
            store,
            checkpoint_every,
            records_since_checkpoint: replayed,
            checkpoints_written: 0,
            deferred_error: None,
            report: DurabilityReport {
                recovered,
                checkpoint_lsn,
                wal_records_replayed: replayed,
                records_durable,
                torn_tails_truncated: open_report.torn_tails_truncated,
                corrupt_checkpoints_skipped: load.corrupt_skipped,
                replay_rejected,
            },
        });
        Ok(())
    }

    /// Replaces the fresh engines with ones rebuilt from `ckpt`: each shard's journal is
    /// seeded with the checkpointed live edge set as its image and an empty tail, and
    /// [`rebuild`](Self::rebuild) re-inserts it (the clustering is a pure function of the
    /// live weighted edge set, so this reproduces labels and member lists bit-identically).
    /// The router's [`AssignmentTable`] is restored, and the restored view is published at
    /// `ckpt.revision + 1` — past the crashed process's revision, so cached validators
    /// held by pre-crash subscribers never match.
    fn restore_from_checkpoint(&mut self, ckpt: &Checkpoint) -> Result<(), ServiceError> {
        let mismatch = |detail: String| ServiceError::Durability { detail };
        if ckpt.shards.len() != self.engines.len() {
            return Err(mismatch(format!(
                "checkpoint has {} shards but the configuration builds {} engines — \
                 recover with the shard count the log was written under",
                ckpt.shards.len(),
                self.engines.len()
            )));
        }
        let n = usize::try_from(ckpt.vertices).map_err(|_| {
            mismatch(format!(
                "checkpoint vertex count {} overflows",
                ckpt.vertices
            ))
        })?;
        match (&mut self.router, &ckpt.assignments) {
            (Router::Stateful { table, .. }, Some(raw)) => {
                if raw.len() != n {
                    return Err(mismatch(format!(
                        "assignment table covers {} vertices but the checkpoint covers {n}",
                        raw.len()
                    )));
                }
                if raw
                    .iter()
                    .any(|&s| s != u32::MAX && s as usize >= self.num_shards)
                {
                    return Err(mismatch(
                        "assignment table names a shard out of range — recover with the \
                         shard count the log was written under"
                            .into(),
                    ));
                }
                *table = AssignmentTable::from_raw(raw.clone(), self.num_shards);
            }
            (Router::Stateful { .. }, None) => {
                return Err(mismatch(
                    "checkpoint was written under a pure partitioner but this \
                     configuration routes with a stateful one"
                        .into(),
                ));
            }
            (Router::Pure(_), Some(_)) => {
                return Err(mismatch(
                    "checkpoint was written under a stateful partitioner but this \
                     configuration routes with a pure one"
                        .into(),
                ));
            }
            (Router::Pure(_), None) => {}
        }
        self.vertices = n;
        for (idx, shard) in ckpt.shards.iter().enumerate() {
            self.journals[idx] = ShardJournal::new(n, shard.edges.clone());
            self.rebuild(idx)?;
            // Routing counters restart from the restored live-edge stream (deleted pre-crash
            // edges are gone from the checkpoint, so lifetime counts are not reconstructible).
            self.routed_events[idx] = shard.edges.len() as u64;
        }
        self.spill_events = if self.has_spill_shard() {
            self.routed_events[self.num_shards]
        } else {
            0
        };
        self.edge_inserts_routed = self.routed_events.iter().sum();
        self.edge_inserts_cut = self.spill_events;
        let snapshot = ServiceSnapshot::merge(
            self.engines
                .iter()
                .map(ClusteringEngine::snapshot)
                .collect(),
            ckpt.revision + 1,
            self.health.clone(),
        );
        self.shared.publish(snapshot);
        Ok(())
    }

    /// The durability layer's build-time recovery report — `Some` iff the service is
    /// durable ([`ServiceBuilder::durable`](crate::ServiceBuilder::durable) or
    /// `DYNSLD_DURABLE_DIR`).
    pub fn durability(&self) -> Option<&DurabilityReport> {
        self.durable.as_ref().map(|d| &d.report)
    }

    /// Logs one record to the WAL (no-op on non-durable services), honouring any armed
    /// crash fault: a matched `crash=after_wal` writes the record and then kills the
    /// layer, a matched `wal_torn` leaves a deliberately partial frame, and a dead layer
    /// drops writes silently — byte-exactly what a crashed process leaves behind.
    pub(super) fn wal_append(&mut self, record: &WalRecord) -> Result<(), ServiceError> {
        if self.durable.is_none() {
            return Ok(());
        }
        let decision = self.faults.wal_append_fault();
        let d = self.durable.as_mut().expect("checked above");
        match decision {
            WalWriteFault::Proceed => {
                d.wal
                    .append(record)
                    .map_err(|e| ServiceError::durability("WAL append", e))?;
                d.records_since_checkpoint += 1;
            }
            WalWriteFault::Torn => {
                d.wal
                    .append_torn(record)
                    .map_err(|e| ServiceError::durability("torn WAL append", e))?;
            }
            WalWriteFault::Skip => {}
        }
        Ok(())
    }

    /// End-of-drain durability hook: forces unsynced WAL appends to stable storage under
    /// [`FsyncPolicy::EveryDrain`], and surfaces any WAL error deferred from an
    /// infallible path. No-op on non-durable services.
    pub(crate) fn durable_sync_drain(&mut self) -> Result<(), ServiceError> {
        let Some(d) = self.durable.as_mut() else {
            return Ok(());
        };
        if let Some(e) = d.deferred_error.take() {
            return Err(e);
        }
        d.wal
            .sync_drain()
            .map_err(|e| ServiceError::durability("WAL drain sync", e))
    }

    /// Writes a checkpoint if one is due — enough WAL records since the last one (or
    /// `force`), every shard healthy, and nothing pending, so "state reflects every
    /// record with LSN ≤ `last_lsn`" holds exactly — then reclaims WAL segments the
    /// retained checkpoints cover. Returns whether a checkpoint was written. No-op on
    /// non-durable services.
    pub(crate) fn maybe_checkpoint(&mut self, force: bool) -> Result<bool, ServiceError> {
        let Some(d) = self.durable.as_ref() else {
            return Ok(false);
        };
        if d.records_since_checkpoint == 0
            || (!force && d.records_since_checkpoint < d.checkpoint_every)
        {
            return Ok(false);
        }
        if self.health.iter().any(ShardHealth::is_quarantined) || self.pending_ops() > 0 {
            return Ok(false);
        }
        let decision = self.faults.checkpoint_fault();
        if decision == CheckpointWriteFault::Skip {
            return Ok(false);
        }
        let ckpt = self.build_checkpoint();
        let d = self.durable.as_mut().expect("checked above");
        match decision {
            CheckpointWriteFault::Proceed => {
                let reclaim = d
                    .store
                    .write(&ckpt)
                    .map_err(|e| ServiceError::durability("checkpoint write", e))?;
                d.wal
                    .reclaim_below(reclaim)
                    .map_err(|e| ServiceError::durability("WAL reclaim", e))?;
                d.checkpoints_written += 1;
                d.records_since_checkpoint = 0;
                Ok(true)
            }
            CheckpointWriteFault::Corrupt => {
                // A crash mid-checkpoint: the damaged file lands under its final name,
                // nothing is pruned or reclaimed, and the layer is dead from here on.
                // Recovery must fall back past this file.
                d.store
                    .write_corrupt(&ckpt)
                    .map_err(|e| ServiceError::durability("corrupt checkpoint write", e))?;
                Ok(false)
            }
            CheckpointWriteFault::Skip => unreachable!("handled above"),
        }
    }

    /// The full durable state of the service right now: per-shard live edge sets (sorted,
    /// so restoration is deterministic), the assignment table, and the WAL coverage mark.
    fn build_checkpoint(&self) -> Checkpoint {
        let shards = self
            .engines
            .iter()
            .map(|engine| ShardCheckpoint {
                edges: live_edges(engine),
            })
            .collect();
        Checkpoint {
            last_lsn: self
                .durable
                .as_ref()
                .expect("checkpoints are only built on durable services")
                .wal
                .last_lsn(),
            revision: self.published().revision(),
            vertices: self.vertices as u64,
            assignments: self.router.table().map(AssignmentTable::to_raw),
            shards,
        }
    }
}
