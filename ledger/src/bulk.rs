//! `bulk_churn`: one producer submitting uniform churn as fast as the pipeline takes it
//! (`Backpressure::Block`, queue 4096) while the driver runs `run_until_closed` with
//! `EveryNOps(512)`. Large batches on a random graph give tall dendrograms and many non-tree
//! edges, so the DynSld apply dominates and the per-publish layers are a small share.
//!
//! A passive observer on the caller's thread stands in for users of the published state:
//! every millisecond it checks the published revision, and when it moved it takes the new
//! snapshot and syncs the wire subscriber. It never writes. The read sets, which feed only
//! the per-layer `snapshot.*` metrics here, run after the writes on the final view.

use crate::layers::{self, Phase};
use crate::oracle::{self, LiveEdges};
use crate::rig::{self, Rig, Streams};
use crate::{Args, Report, Size};
use dynsld::ForestBackend;
use dynsld_engine::{
    Backpressure, Coalescer, FaultPlan, FlushPolicy, FsyncPolicy, GraphUpdate, HashPartitioner,
    Partitioner, ServiceBuilder, ShardId,
};
use dynsld_forest::workload::GraphWorkloadBuilder;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const SHARDS: usize = 4;
const FLUSH_EVERY: usize = 512;
/// The same-cluster read threshold (weights are uniform in `(0, 100)`).
const TAU: f64 = 25.0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 2;
/// Read sets on the final view.
const READS: usize = 16;

struct Config {
    n: usize,
    tail: usize,
}

fn config(size: Size) -> Config {
    match size {
        Size::Full => Config {
            n: 8192,
            tail: 8192,
        },
        Size::Smoke => Config { n: 512, tail: 512 },
    }
}

fn builder(cfg: &Config) -> ServiceBuilder {
    ServiceBuilder::new()
        .vertices(cfg.n)
        .shards(SHARDS)
        .partitioner(HashPartitioner)
        .msf_backend(ForestBackend::Scan)
        .threads(rig::threads())
        .faults(FaultPlan::disabled())
        .flush_policy(FlushPolicy::EveryNOps(FLUSH_EVERY))
        .delta_ring(64)
        .queue_capacity(4096)
        .backpressure(Backpressure::Block)
        .fsync(FsyncPolicy::EveryDrain)
        // Checkpoints are taken in set-up and when the driver retires; none in between.
        .checkpoint_every_records(u64::MAX)
}

/// Engine index of an event's home shard (routed shards first, spill last).
fn home(event: &GraphUpdate) -> usize {
    let (u, v) = event.endpoints();
    match HashPartitioner.route_edge(u, v, SHARDS) {
        ShardId::Routed(s) => s,
        ShardId::Spill => SHARDS,
    }
}

/// A replay of the service's routing and coalescing, which learns which flush of which
/// shard publishes each event.
struct FlushModel {
    applied: LiveEdges,
    buffers: Vec<Coalescer>,
    /// Events waiting in each shard's buffer.
    waiting: Vec<Vec<usize>>,
    /// Flushes per shard since the phase started.
    flushes: Vec<u64>,
    /// Per event: its home shard, and the flush (counted from 1) that published it.
    published_by: Vec<(usize, Option<u64>)>,
}

impl FlushModel {
    fn flush(&mut self, shard: usize) {
        let batch = self.buffers[shard].drain();
        for &(u, v) in &batch.deletions {
            self.applied.apply(&GraphUpdate::Delete { u, v });
        }
        for &(u, v, weight) in &batch.insertions {
            self.applied.apply(&GraphUpdate::Insert { u, v, weight });
        }
        self.flushes[shard] += 1;
        for i in self.waiting[shard].drain(..) {
            self.published_by[i].1 = Some(self.flushes[shard]);
        }
    }

    /// Replays `events` from the live edge set `base`, ending with the retiring driver's
    /// final flush of every non-empty buffer. An event whose buffer annihilated to nothing
    /// before any flush keeps `None`.
    fn replay(base: &LiveEdges, events: &[GraphUpdate]) -> FlushModel {
        let mut model = FlushModel {
            applied: base.clone(),
            buffers: vec![Coalescer::new(); SHARDS + 1],
            waiting: vec![Vec::new(); SHARDS + 1],
            flushes: vec![0; SHARDS + 1],
            published_by: Vec::with_capacity(events.len()),
        };
        for (i, event) in events.iter().enumerate() {
            let shard = home(event);
            let (u, v) = event.endpoints();
            model.buffers[shard]
                .push(*event, model.applied.contains(u, v))
                .expect("generated streams are valid");
            model.published_by.push((shard, None));
            model.waiting[shard].push(i);
            if model.buffers[shard].pending_ops() >= FLUSH_EVERY {
                model.flush(shard);
            }
        }
        for shard in 0..=SHARDS {
            if model.buffers[shard].pending_ops() > 0 {
                model.flush(shard);
            }
        }
        model
    }
}

/// When each shard was first seen at (or past) each epoch: `(epoch, ms since origin)`,
/// ascending.
type Sightings = Vec<Vec<(u64, f64)>>;

fn sight(sightings: &mut Sightings, epochs: &[u64], at_ms: f64) {
    for (seen, &epoch) in sightings.iter_mut().zip(epochs) {
        if seen.last().is_none_or(|&(e, _)| epoch > e) {
            seen.push((epoch, at_ms));
        }
    }
}

fn first_seen(seen: &[(u64, f64)], epoch: u64) -> Option<f64> {
    let i = seen.partition_point(|&(e, _)| e < epoch);
    seen.get(i).map(|&(_, t)| t)
}

struct Produced {
    submit_at_ms: Vec<f64>,
    submit_us: Vec<f64>,
    depth_max: u64,
    failed: u64,
}

fn timed(
    rig: &mut Rig,
    streams: &Streams,
    seconds: f64,
    rng: &mut SmallRng,
) -> Result<Phase, String> {
    let mut phase = Phase::start(rig);
    let base_epochs = rig.read.epochs();
    let origin = Instant::now();
    let ms = |t: Instant| (t - origin).as_secs_f64() * 1e3;
    let mut visible: Sightings = vec![Vec::new(); base_epochs.len()];
    let mut mirrored: Sightings = vec![Vec::new(); base_epochs.len()];
    let done = AtomicBool::new(false);
    let tel = rig.telemetry.clone();

    let (produced, drained) = std::thread::scope(|s| {
        let driver = &mut rig.driver;
        let done = &done;
        let driving = s.spawn(move || {
            let result = driver.run_until_closed();
            done.store(true, Ordering::Release);
            (result, Instant::now())
        });
        let ingest = &rig.ingest;
        let pool = &streams.pool;
        let producer_tel = tel.clone();
        let producing = s.spawn(move || {
            let tel = producer_tel;
            let mut p = Produced {
                submit_at_ms: Vec::with_capacity(pool.len()),
                submit_us: Vec::with_capacity(pool.len()),
                depth_max: 0,
                failed: 0,
            };
            for (i, event) in pool.iter().enumerate() {
                if i % 64 == 0 && origin.elapsed().as_secs_f64() >= seconds {
                    break;
                }
                let t = Instant::now();
                let ok = {
                    let _s = tel.span("ledger.submit");
                    ingest.submit(*event).is_ok()
                };
                if !ok {
                    p.failed += 1;
                    break;
                }
                p.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
                p.submit_at_ms.push((t - origin).as_secs_f64() * 1e3);
                if i % 64 == 0 {
                    p.depth_max = p.depth_max.max(ingest.queue_len() as u64);
                }
            }
            ingest.close();
            p
        });

        let mut revision = rig.read.revision();
        loop {
            let finished = done.load(Ordering::Acquire);
            if rig.read.revision() == revision {
                if finished {
                    // A driver that retired early (an error) must not leave the producer
                    // blocked on a full queue.
                    rig.ingest.close();
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            let t = Instant::now();
            let view = {
                let _s = tel.span("ledger.snapshot");
                rig.read.snapshot()
            };
            phase
                .samples
                .snapshot_us
                .push(t.elapsed().as_secs_f64() * 1e6);
            revision = view.revision();
            sight(&mut visible, &view.epochs(), ms(t));
            let t = Instant::now();
            let synced = {
                let _s = tel.span("ledger.sync");
                rig.sub.sync()
            };
            phase.samples.sync_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if let Ok(report) = &synced {
                sight(&mut mirrored, &report.epochs, ms(Instant::now()));
            }
            phase.record_sync(synced, revision);
        }
        let produced = producing.join().expect("producer thread panicked");
        let drained = driving.join().expect("driver thread panicked");
        (produced, drained)
    });
    let (result, drained_at) = drained;
    let drain = result.map_err(|e| format!("run_until_closed: {e}"))?;

    let k = produced.submit_at_ms.len();
    let events = &streams.pool[..k];
    phase.events = k as u64;
    phase.elapsed_s = (drained_at - origin).as_secs_f64();
    phase.attempted += k as u64 + produced.failed;
    phase.failed += produced.failed;
    phase.count(drain.rejected.is_empty());
    phase.queue_depth_max = produced.depth_max;
    phase.samples.submit_us = produced.submit_us;
    phase.record_peak_rss()?;

    // Map each event to the publish that made it visible, then to the sightings.
    let model = FlushModel::replay(&streams.base, events);
    let final_epochs = rig.read.epochs();
    for (shard, count) in model.flushes.iter().enumerate() {
        if base_epochs[shard] + count != final_epochs[shard] {
            return Err(format!(
                "flush model predicts {count} flushes of shard {shard}, the service made {}",
                final_epochs[shard] - base_epochs[shard]
            ));
        }
    }
    let mut unpublished = 0u64;
    for (i, &(shard, ordinal)) in model.published_by.iter().enumerate() {
        let Some(ordinal) = ordinal else {
            unpublished += 1;
            continue;
        };
        let epoch = base_epochs[shard] + ordinal;
        let (Some(v), Some(s)) = (
            first_seen(&visible[shard], epoch),
            first_seen(&mirrored[shard], epoch),
        ) else {
            return Err(format!("event {i} was never seen published"));
        };
        phase.samples.visible_ms.push(v - produced.submit_at_ms[i]);
        phase.samples.synced_ms.push(s - produced.submit_at_ms[i]);
    }

    // The oracle's edge set comes from the raw events, independent of the coalescer.
    let mut live = streams.base.clone();
    for e in events {
        live.apply(e);
    }

    // Each read set computes one clustering: `TAU`'s is computed once up front and then
    // served from the view's cache, as a tracked threshold's would be, and each
    // `cluster_size` reads at a fresh threshold from a narrow range (a clustering's cost
    // depends on the share of edges below its threshold).
    let view = rig.read.snapshot();
    black_box(view.flat_clustering(TAU));
    let mut taus = vec![TAU];
    for _ in 0..READS {
        let tau_u = 20.0 + 4.0 * rng.gen::<f64>();
        phase.read_set(&rig.telemetry, &view, (TAU, tau_u), rng);
        taus.push(tau_u);
    }
    phase.finish(rig);
    let mirror = rig.sub.mirror().ok_or("subscriber has no mirror")?;
    oracle::gate(&live, &view, mirror, &taus)?;
    if unpublished > 0 {
        eprintln!("{unpublished} events annihilated in buffers no flush applied");
    }
    Ok(phase)
}

/// The single-threaded baseline: the timed events through one engine on this thread,
/// flushed every 512 pending ops like a shard, with no queue, routing, publish or wire.
fn inline_events_per_s(n: usize, streams: &Streams, events: usize) -> Result<f64, String> {
    let mut engine = rig::preloaded_engine(n, streams)?;
    let started = Instant::now();
    for event in &streams.pool[..events] {
        engine.submit(*event).map_err(|e| e.to_string())?;
        if engine.pending_ops() >= FLUSH_EVERY {
            engine.flush().map_err(|e| e.to_string())?;
        }
    }
    engine.flush().map_err(|e| e.to_string())?;
    Ok(events as f64 / started.elapsed().as_secs_f64())
}

pub fn run(args: &Args) -> Result<Report, String> {
    let cfg = config(args.size);
    let target = 4 * cfg.n;
    // Room for several times the probe rate; a faster future build ends early rather than
    // running dry.
    let pool = (args.seconds * 40_000.0) as usize + 4096;
    let stream = GraphWorkloadBuilder::new(cfg.n)
        .weight_scale(100.0)
        .churn_stream(target, 3 * target + cfg.tail + pool, args.seed);
    let streams = Streams::split(stream, target, cfg.tail)?;
    let mut rng = SmallRng::seed_from_u64(args.seed);

    layers::run(
        args,
        layers::Workload {
            setups: SETUPS,
            drains_publish_inline: true,
            builder: &|| builder(&cfg),
            streams: &streams,
        },
        |rig, seconds| timed(rig, &streams, seconds, &mut rng),
        |events| inline_events_per_s(cfg.n, &streams, events),
    )
}
