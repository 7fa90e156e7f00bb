//! `fresh_serve`: one closed-loop caller that waits for its own writes. Each tick submits 16
//! events, pumps the driver (`OnRead`: every drain publishes), takes a snapshot, syncs the
//! wire subscriber and runs a fixed read set. Small publishes at large `n` make the
//! per-publish layers (delta build, snapshot merge, WAL, wire) most of the cost.

use crate::layers::{self, Phase};
use crate::oracle;
use crate::rig::{self, Rig, Streams};
use crate::{Args, Report, Size};
use dynsld::ForestBackend;
use dynsld_engine::{
    Backpressure, FaultPlan, FlushPolicy, FsyncPolicy, GreedyPartitioner, ServiceBuilder,
};
use dynsld_forest::workload::GraphWorkloadBuilder;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The tracked threshold: its labels ride in every publish-step delta.
const TAU: f64 = 2.0;
/// Events per tick.
const TICK: usize = 16;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Config {
    n: usize,
    communities: usize,
    tail: usize,
    checkpoint_every: u64,
}

fn config(size: Size) -> Config {
    match size {
        // The WAL tail is sized so that recovery (~0.4 s) is long enough to time; the
        // checkpoint cadence lets the timed phase take about one checkpoint.
        Size::Full => Config {
            n: 16384,
            communities: 256,
            tail: 16384,
            checkpoint_every: 24576,
        },
        Size::Smoke => Config {
            n: 1024,
            communities: 32,
            tail: 512,
            checkpoint_every: 1024,
        },
    }
}

fn builder(cfg: &Config) -> ServiceBuilder {
    ServiceBuilder::new()
        .vertices(cfg.n)
        .shards(4)
        .stateful_partitioner(GreedyPartitioner::default())
        .msf_backend(ForestBackend::Scan)
        .threads(rig::threads())
        .faults(FaultPlan::disabled())
        .flush_policy(FlushPolicy::OnRead)
        .delta_ring(64)
        .track_thresholds([TAU])
        .queue_capacity(1024)
        .backpressure(Backpressure::Block)
        .fsync(FsyncPolicy::EveryDrain)
        .checkpoint_every_records(cfg.checkpoint_every)
}

/// Runs ticks until `seconds` have passed (or the pool runs out), then checks the final
/// published view and the subscriber's mirror against the oracle.
fn timed(
    rig: &mut Rig,
    streams: &Streams,
    seconds: f64,
    tau_u: f64,
    rng: &mut SmallRng,
) -> Result<Phase, String> {
    let mut phase = Phase::start(rig);
    let tel = rig.telemetry.clone();
    let mut live = streams.base.clone();
    let mut revision = rig.read.revision();
    let started = Instant::now();
    for chunk in streams.pool.chunks_exact(TICK) {
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let _tick = tel.span("ledger.tick");
        let tick_started = Instant::now();
        for event in chunk {
            let _s = tel.span("ledger.submit");
            let t = Instant::now();
            let ok = rig.ingest.submit(*event).is_ok();
            phase
                .samples
                .submit_us
                .push(t.elapsed().as_secs_f64() * 1e6);
            phase.count(ok);
            live.apply(event);
        }
        phase.queue_depth_max = phase.queue_depth_max.max(rig.ingest.queue_len() as u64);
        phase.events += chunk.len() as u64;

        let t = Instant::now();
        let drained = {
            let _s = tel.span("ledger.pump");
            rig.driver.pump()
        };
        phase.samples.pump_ms.push(t.elapsed().as_secs_f64() * 1e3);
        phase.count(drained.is_ok_and(|d| d.rejected.is_empty()));

        let t = Instant::now();
        let view = {
            let _s = tel.span("ledger.snapshot");
            rig.read.snapshot()
        };
        phase
            .samples
            .snapshot_us
            .push(t.elapsed().as_secs_f64() * 1e6);
        phase.count(view.revision() > revision);
        revision = view.revision();
        phase
            .samples
            .visible_ms
            .push(tick_started.elapsed().as_secs_f64() * 1e3);

        let t = Instant::now();
        let synced = {
            let _s = tel.span("ledger.sync");
            rig.sub.sync()
        };
        phase.samples.sync_ms.push(t.elapsed().as_secs_f64() * 1e3);
        phase
            .samples
            .synced_ms
            .push(tick_started.elapsed().as_secs_f64() * 1e3);
        phase.record_sync(synced, revision);

        phase.read_set(&tel, &view, (TAU, tau_u), rng);
    }
    phase.elapsed_s = started.elapsed().as_secs_f64();
    phase.record_peak_rss()?;
    phase.finish(rig);
    let mirror = rig.sub.mirror().ok_or("subscriber has no mirror")?;
    oracle::gate(&live, &rig.read.snapshot(), mirror, &[TAU, tau_u])?;
    Ok(phase)
}

/// The single-threaded baseline: the timed events through one engine on this thread, one
/// flush per tick, with no queue, shards, publish step or wire.
fn inline_events_per_s(n: usize, streams: &Streams, events: usize) -> Result<f64, String> {
    let mut engine = rig::preloaded_engine(n, streams)?;
    let started = Instant::now();
    for chunk in streams.pool[..events].chunks(TICK) {
        engine
            .submit_all(chunk.iter().copied())
            .map_err(|e| e.to_string())?;
        engine.flush().map_err(|e| e.to_string())?;
    }
    Ok(events as f64 / started.elapsed().as_secs_f64())
}

pub fn run(args: &Args) -> Result<Report, String> {
    let cfg = config(args.size);
    let target = 2 * cfg.n;
    // Enough timed events for ~3x the probe rate; a faster future build ends early rather
    // than running dry.
    let pool = (args.seconds * 4000.0) as usize + 4096;
    let stream = GraphWorkloadBuilder::new(cfg.n)
        .weight_scale(8.0)
        .community_stream(
            cfg.communities,
            0.05,
            target,
            3 * target + cfg.tail + pool,
            args.seed,
        )
        .updates;
    let streams = Streams::split(stream, target, cfg.tail)?;
    let mut rng = SmallRng::seed_from_u64(args.seed);
    // An untracked read threshold, drawn per seed away from the tracked one.
    let tau_u = 1.0 + 0.9 * rng.gen::<f64>();

    layers::run(
        args,
        layers::Workload {
            setups: SETUPS,
            drains_publish_inline: false,
            builder: &|| builder(&cfg),
            streams: &streams,
        },
        |rig, seconds| timed(rig, &streams, seconds, tau_u, &mut rng),
        |events| inline_events_per_s(cfg.n, &streams, events),
    )
}
