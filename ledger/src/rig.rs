//! Set-up shared by the workloads: splitting a generated stream into preload, WAL tail and
//! timed pool; building a durable service, crashing it and recovering it from its
//! directory; and the wire front end a subscriber syncs through.

use crate::oracle::LiveEdges;
use dynsld::{DynSldOptions, ForestBackend};
use dynsld_engine::{
    ClusteringEngine, FlusherDriver, GraphUpdate, IngestHandle, ReadHandle, ServiceBuilder,
};
use dynsld_serve::{DeltaServer, WireSubscriber};
use dynsld_telemetry::Telemetry;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A generated stream cut into the phases of a run.
pub struct Streams {
    /// Grows the graph to the target live edge count; checkpointed in set-up.
    pub preload: Vec<GraphUpdate>,
    /// Logged after the checkpoint and replayed by recovery.
    pub tail: Vec<GraphUpdate>,
    /// The timed phase consumes a prefix of this.
    pub pool: Vec<GraphUpdate>,
    /// The live edges after preload and tail.
    pub base: LiveEdges,
}

impl Streams {
    /// Cuts `stream` at the first point where `target` edges are live, then takes `tail`
    /// events for the WAL tail; the rest is the timed pool.
    pub fn split(stream: Vec<GraphUpdate>, target: usize, tail: usize) -> Result<Streams, String> {
        let mut base = LiveEdges::default();
        let mut cut = None;
        for (i, e) in stream.iter().enumerate() {
            base.apply(e);
            if base.len() >= target {
                cut = Some(i + 1);
                break;
            }
        }
        let cut = cut.ok_or("generated stream never reached its target edge count")?;
        if stream.len() < cut + tail {
            return Err("generated stream too short for its WAL tail".into());
        }
        for e in &stream[cut..cut + tail] {
            base.apply(e);
        }
        let mut stream = stream;
        let pool = stream.split_off(cut + tail);
        let tail = stream.split_off(cut);
        Ok(Streams {
            preload: stream,
            tail,
            pool,
            base,
        })
    }
}

/// A per-run scratch directory, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> Result<WorkDir, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = crate::work_root().join(format!(
            "{}-{tag}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {path:?}: {e}"))?;
        Ok(WorkDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running service with its handles, wire front end and one synced subscriber.
pub struct Rig {
    pub driver: FlusherDriver,
    pub ingest: IngestHandle,
    pub read: ReadHandle,
    pub telemetry: Telemetry,
    pub server: DeltaServer,
    pub sub: WireSubscriber,
    pub setup_s: f64,
    pub recover_s: f64,
    pub replayed: u64,
    // Declared last: the service must be dropped before its directory is removed.
    _dir: WorkDir,
}

/// Submits `events` in queue-sized chunks, pumping after each, then flushes.
fn feed(
    driver: &mut FlusherDriver,
    ingest: &IngestHandle,
    events: &[GraphUpdate],
) -> Result<(), String> {
    for chunk in events.chunks(ingest.queue_capacity()) {
        ingest
            .submit_all(chunk.iter().copied())
            .map_err(|e| format!("set-up submit: {e}"))?;
        let drain = driver.pump().map_err(|e| format!("set-up pump: {e}"))?;
        if let Some(e) = drain.rejected.first() {
            return Err(format!("set-up event rejected: {e}"));
        }
    }
    driver.flush().map_err(|e| format!("set-up flush: {e}"))?;
    Ok(())
}

/// Builds a durable service from `builder`, preloads and checkpoints it, logs the WAL
/// tail, drops it without a final checkpoint (a crash), rebuilds it from its directory
/// (timed as `recover_s`), and brings up the wire front end with one synced subscriber.
pub fn setup(
    builder: impl Fn() -> ServiceBuilder,
    streams: &Streams,
    telemetry: &Telemetry,
) -> Result<Rig, String> {
    let started = Instant::now();
    let dir = WorkDir::new("svc")?;
    let build = || {
        builder()
            .telemetry(telemetry.clone())
            .durable(dir.path())
            .build()
            .map_err(|e| format!("build: {e}"))
    };
    {
        let service = build()?;
        let ingest = service.ingest_handle();
        let mut driver = service.into_driver();
        feed(&mut driver, &ingest, &streams.preload)?;
        if !driver
            .checkpoint()
            .map_err(|e| format!("checkpoint: {e}"))?
        {
            return Err("set-up checkpoint was not written".into());
        }
        feed(&mut driver, &ingest, &streams.tail)?;
    }
    let recover_started = Instant::now();
    let service = build()?;
    let recover_s = recover_started.elapsed().as_secs_f64();
    let report = service
        .durability()
        .ok_or("service built without durability")?;
    if !report.recovered || report.wal_records_replayed != streams.tail.len() as u64 {
        return Err(format!(
            "recovery replayed {} WAL records, expected {}",
            report.wal_records_replayed,
            streams.tail.len()
        ));
    }
    let replayed = report.wal_records_replayed;
    let ingest = service.ingest_handle();
    let read = service.read_handle();
    let server = DeltaServer::bind("127.0.0.1:0", read.clone(), telemetry.clone())
        .map_err(|e| format!("binding the delta server: {e}"))?;
    let mut sub = WireSubscriber::connect(server.local_addr())
        .map_err(|e| format!("connecting the subscriber: {e}"))?;
    sub.sync().map_err(|e| format!("initial sync: {e}"))?;
    Ok(Rig {
        driver: service.into_driver(),
        ingest,
        read,
        telemetry: telemetry.clone(),
        server,
        sub,
        setup_s: started.elapsed().as_secs_f64(),
        recover_s,
        replayed,
        _dir: dir,
    })
}

/// One engine on the calling thread (scan backend), holding the set-up events: the start of
/// the single-threaded baseline, which has no queue, shards, publish step or wire.
pub fn preloaded_engine(n: usize, streams: &Streams) -> Result<ClusteringEngine, String> {
    let options = DynSldOptions {
        msf_backend: ForestBackend::Scan,
        ..DynSldOptions::default()
    };
    let mut engine = ClusteringEngine::with_options(n, options);
    for chunk in streams
        .preload
        .chunks(4096)
        .chain(streams.tail.chunks(4096))
    {
        engine
            .submit_all(chunk.iter().copied())
            .map_err(|e| e.to_string())?;
        engine.flush().map_err(|e| e.to_string())?;
    }
    Ok(engine)
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Flush parallelism for the service: at most two threads, and never more than the
/// machine has.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}
