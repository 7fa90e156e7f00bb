//! What a timed phase records, and how it becomes the printed metrics: the end-to-end set
//! (untraced run) and the per-layer set (traced run). Layer timings come from timing the
//! public calls from outside plus the service's existing telemetry histograms; counts come
//! from `ClusterService::metrics()`.

use crate::rig::{self, Rig, Streams};
use crate::stats::{median, ratio, Summary};
use crate::{Args, Report};
use dynsld_engine::{ClusterService, Metrics, ServiceBuilder, ServiceSnapshot};
use dynsld_forest::VertexId;
use dynsld_serve::{SyncOutcome, SyncReport, WireError};
use dynsld_telemetry::{SpanEventKind, Telemetry, TelemetrySnapshot};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Per-thread trace ring capacity of the traced run: large enough that set-up spans never
/// crowd out the timed phase's.
const TRACE_RING: usize = 1 << 20;

/// Instant events bracketing the timed phase in the trace.
const TIMED_START: &str = "ledger.timed_start";
const TIMED_END: &str = "ledger.timed_end";

/// Raw samples of one timed phase (milliseconds unless the name says otherwise).
#[derive(Default)]
pub struct Samples {
    pub submit_us: Vec<f64>,
    pub pump_ms: Vec<f64>,
    pub snapshot_us: Vec<f64>,
    pub tracked_us: Vec<f64>,
    pub untracked_ms: Vec<f64>,
    pub sync_ms: Vec<f64>,
    pub visible_ms: Vec<f64>,
    pub synced_ms: Vec<f64>,
    pub read_ms: Vec<f64>,
}

/// One timed phase: its samples, operation counts, and the service counters and telemetry
/// at both ends.
pub struct Phase {
    pub samples: Samples,
    pub events: u64,
    pub elapsed_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub syncs: u64,
    pub patched: u64,
    pub queue_depth_max: u64,
    /// Peak resident set size when the writes ended, in MiB.
    peak_rss_mb: f64,
    metrics: [Metrics; 2],
    telemetry: [TelemetrySnapshot; 2],
    revision: [u64; 2],
    retries: [u64; 2],
}

impl Phase {
    pub fn start(rig: &Rig) -> Phase {
        rig.telemetry.instant(TIMED_START);
        Phase {
            samples: Samples::default(),
            events: 0,
            elapsed_s: 0.0,
            attempted: 0,
            failed: 0,
            syncs: 0,
            patched: 0,
            queue_depth_max: 0,
            peak_rss_mb: 0.0,
            metrics: [rig.driver.service().metrics(), Metrics::default()],
            telemetry: [rig.telemetry.snapshot(), TelemetrySnapshot::default()],
            revision: [rig.read.revision(), 0],
            retries: [rig.sub.stats().retries, 0],
        }
    }

    /// Takes the peak resident set size so far as the phase's. Called when the writes end,
    /// before reads that only fill snapshot caches.
    pub fn record_peak_rss(&mut self) -> Result<(), String> {
        self.peak_rss_mb = rig::peak_rss_mb()?;
        Ok(())
    }

    pub fn finish(&mut self, rig: &Rig) {
        rig.telemetry.instant(TIMED_END);
        self.metrics[1] = rig.driver.service().metrics();
        self.telemetry[1] = rig.telemetry.snapshot();
        self.revision[1] = rig.read.revision();
        self.retries[1] = rig.sub.stats().retries;
    }

    /// Runs the fixed read set on `view` at seed-drawn vertices: one `same_cluster` at
    /// `tau` and one `cluster_size` at `tau_u`.
    pub fn read_set(
        &mut self,
        tel: &Telemetry,
        view: &ServiceSnapshot,
        (tau, tau_u): (f64, f64),
        rng: &mut SmallRng,
    ) {
        let n = view.num_vertices();
        let mut vertex = || VertexId(rng.gen_range(0..n) as u32);
        let (a, b, c) = (vertex(), vertex(), vertex());
        let t = Instant::now();
        {
            let _s = tel.span("ledger.read.same_cluster");
            black_box(view.same_cluster(a, b, tau));
        }
        let mid = Instant::now();
        {
            let _s = tel.span("ledger.read.cluster_size");
            black_box(view.cluster_size(c, tau_u));
        }
        self.samples.tracked_us.push((mid - t).as_secs_f64() * 1e6);
        self.samples
            .untracked_ms
            .push(mid.elapsed().as_secs_f64() * 1e3);
        self.samples.read_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.attempted += 2;
    }

    /// Counts one attempted operation.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Counts one subscriber sync, which must reach at least `revision`.
    pub fn record_sync(&mut self, synced: Result<SyncReport, WireError>, revision: u64) {
        self.syncs += 1;
        let ok = match synced {
            Ok(report) => {
                self.patched += u64::from(matches!(report.outcome, SyncOutcome::Patched { .. }));
                report.revision >= revision
            }
            Err(_) => false,
        };
        self.count(ok);
    }

    /// Counter delta over the phase.
    fn delta(&self, field: impl Fn(&Metrics) -> u64) -> f64 {
        field(&self.metrics[1]).saturating_sub(field(&self.metrics[0])) as f64
    }

    /// Observation count and summed nanoseconds a telemetry histogram gained over the phase.
    fn histogram(&self, name: &str) -> (f64, f64) {
        let read = |t: &TelemetrySnapshot| t.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
        let (c0, s0) = read(&self.telemetry[0]);
        let (c1, s1) = read(&self.telemetry[1]);
        (c1.saturating_sub(c0) as f64, s1.saturating_sub(s0) as f64)
    }

    fn events_per_s(&self) -> f64 {
        ratio(self.events as f64, self.elapsed_s)
    }
}

/// The summary of `samples` with its tail capped at p99, noted with its sample count.
fn summary(report: &mut Report, name: &str, samples: &[f64]) -> Result<Summary, String> {
    let s = Summary::of(samples, 99.0).ok_or(format!("no {name} samples"))?;
    report.note(format!(
        "{name}: median {:.4}, p{} {:.4}, {} samples",
        s.median, s.tail_pct, s.tail, s.count
    ));
    Ok(s)
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(report: &mut Report, phase: &Phase, setup_s: f64) -> Result<(), String> {
    report.attempted = phase.attempted;
    report.failed = phase.failed;
    report.note(format!(
        "{} events in {:.3} s, {} ops attempted, {} failed",
        phase.events, phase.elapsed_s, phase.attempted, phase.failed
    ));
    report.put("setup_s", setup_s, "s");
    report.put("events_per_s", phase.events_per_s(), "1/s");
    for (name, samples) in [
        ("visible", &phase.samples.visible_ms),
        ("synced", &phase.samples.synced_ms),
    ] {
        // The tail goes to standard error only: on a shared two-core host the p99s of
        // fresh_serve spread 27-39% (interquartile range over ten seeds), too wide to gate.
        let s = summary(report, &format!("{name}_ms"), samples)?;
        report.put(&format!("{name}_p50_ms"), s.median, "ms");
    }
    // Read latency is per-layer only (`snapshot.*`, `tail.read_ms`): it must be printed on
    // every workload, and on bulk_churn no placement of the reads kept its median steady
    // (see README.md).
    summary(report, "read_ms", &phase.samples.read_ms)?;
    report.put("peak_rss_mb", phase.peak_rss_mb, "MiB");
    Ok(())
}

/// How a workload plugs into a run.
pub struct Workload<'a> {
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
    /// True when drains flush and publish directly (`EveryNOps`), outside any full flush.
    pub drains_publish_inline: bool,
    pub builder: &'a dyn Fn() -> ServiceBuilder,
    pub streams: &'a Streams,
}

/// Runs a workload: untraced, `setups` set-ups with one timed phase of `--seconds` on the
/// first, for the end-to-end metrics; traced, one untraced and one traced set-up and phase
/// of half the time each, then the single-threaded baseline `inline` over the traced
/// phase's event count, for the per-layer metrics.
pub fn run(
    args: &Args,
    w: Workload,
    mut timed: impl FnMut(&mut Rig, f64) -> Result<Phase, String>,
    inline: impl FnOnce(usize) -> Result<f64, String>,
) -> Result<Report, String> {
    let mut report = Report::default();
    if !args.trace {
        // The timed phase runs on the first set-up and the others follow it, so that the
        // set-up samples come from both ends of the run rather than one spell of the host.
        let mut setup_s = Vec::new();
        let mut phase = None;
        for _ in 0..w.setups {
            let mut rig = rig::setup(w.builder, w.streams, &Telemetry::disabled())?;
            setup_s.push(rig.setup_s);
            if phase.is_none() {
                phase = Some(timed(&mut rig, args.seconds)?);
            }
            rig.server.shutdown();
        }
        let phase = phase.ok_or("a run needs at least one set-up")?;
        end_to_end(&mut report, &phase, median(&setup_s))?;
        return Ok(report);
    }
    let half = args.seconds / 2.0;
    let untraced = {
        let mut rig = rig::setup(w.builder, w.streams, &Telemetry::disabled())?;
        let phase = timed(&mut rig, half)?;
        rig.server.shutdown();
        phase
    };
    let telemetry = Telemetry::enabled_with_capacity(TRACE_RING);
    let mut rig = rig::setup(w.builder, w.streams, &telemetry)?;
    let phase = timed(&mut rig, half)?;
    let traced = Traced {
        phase: &phase,
        untraced: &untraced,
        telemetry: &telemetry,
        drains_publish_inline: w.drains_publish_inline,
        height_max: height_max(rig.driver.service()),
        inline_events_per_s: inline(phase.events as usize)?,
        records_replayed: rig.replayed,
        recover_s: rig.recover_s,
    };
    per_layer(
        &mut report,
        &traced,
        &format!("{}-{}", args.workload, args.seed),
    )?;
    rig.server.shutdown();
    Ok(report)
}

/// Everything the per-layer report of a traced run draws on.
struct Traced<'a> {
    phase: &'a Phase,
    /// The same workload, measured untraced in the same process: the tracing-overhead base.
    untraced: &'a Phase,
    telemetry: &'a Telemetry,
    drains_publish_inline: bool,
    height_max: usize,
    inline_events_per_s: f64,
    records_replayed: u64,
    recover_s: f64,
}

/// The tallest dendrogram over all shards (the paper's `h`).
fn height_max(service: &ClusterService) -> usize {
    service
        .shard_ids()
        .into_iter()
        .map(|id| service.shard(id).graph().sld().height())
        .max()
        .unwrap_or(0)
}

/// Durations (ns) of every closed span per name that began inside the timed window.
fn timed_spans(snapshot: &TelemetrySnapshot) -> Result<HashMap<&'static str, Vec<u64>>, String> {
    let marker = |name: &str| {
        snapshot
            .trace
            .threads
            .iter()
            .flat_map(|t| &t.events)
            .find(|e| e.kind == SpanEventKind::Instant && e.name == name)
            .map(|e| e.ts_ns)
            .ok_or(format!("trace lacks the {name} marker"))
    };
    let (start, end) = (marker(TIMED_START)?, marker(TIMED_END)?);
    let mut spans: HashMap<&'static str, Vec<u64>> = HashMap::new();
    for thread in &snapshot.trace.threads {
        let mut open = Vec::new();
        for e in &thread.events {
            match e.kind {
                SpanEventKind::Begin => open.push(e.ts_ns),
                SpanEventKind::End => {
                    let began = open.pop().ok_or("unbalanced span in the trace")?;
                    if began >= start && e.ts_ns <= end {
                        spans.entry(e.name).or_default().push(e.ts_ns - began);
                    }
                }
                SpanEventKind::Instant => {}
            }
        }
    }
    Ok(spans)
}

/// The per-layer metrics of a traced run, each named after the module it measures. Also
/// writes the Chrome trace of the run to `.ledger-work/trace-<tag>.json`.
fn per_layer(report: &mut Report, t: &Traced, tag: &str) -> Result<(), String> {
    let p = t.phase;
    report.attempted = p.attempted + t.untraced.attempted;
    report.failed = p.failed + t.untraced.failed;
    let snapshot = t.telemetry.snapshot();
    snapshot.trace.check_well_formed()?;
    let spans = timed_spans(&snapshot)?;
    let path = crate::work_root().join(format!("trace-{tag}.json"));
    std::fs::write(&path, dynsld_telemetry::export::chrome_json(&snapshot))
        .map_err(|e| format!("writing {path:?}: {e}"))?;
    report.note(format!(
        "chrome trace: {} ({} events, {} dropped)",
        path.display(),
        snapshot.trace.total_events(),
        snapshot.trace.total_dropped()
    ));

    let events = p.events as f64;
    let ms = |ns: &u64| *ns as f64 / 1e6;

    // ingest
    let submit = summary(report, "ingest.submit_us", &p.samples.submit_us)?;
    report.put("ingest.submit_us_p50", submit.median, "us");
    report.put("ingest.submit_us_p99", submit.tail, "us");
    report.put("ingest.submit_samples", submit.count as f64, "count");
    report.put(
        "ingest.block_waits",
        p.delta(|m| m.queue_block_waits),
        "count",
    );
    report.put("ingest.queue_depth_max", p.queue_depth_max as f64, "count");
    // A drain is the pump of the closed loop, or the driver's own drain inside
    // `run_until_closed`, taken from its span.
    let drains: Vec<f64> = if p.samples.pump_ms.is_empty() {
        spans
            .get("driver.drain")
            .map_or(Vec::new(), |d| d.iter().map(ms).collect())
    } else {
        p.samples.pump_ms.clone()
    };
    let pump = summary(report, "ingest.pump_ms", &drains)?;
    report.put("ingest.pump_ms_p50", pump.median, "ms");
    report.put("ingest.pump_ms_p99", pump.tail, "ms");
    report.put("ingest.pump_samples", pump.count as f64, "count");
    report.put("ingest.events", events, "count");

    // partition, coalesce
    let routed = p.delta(|m| m.events_submitted);
    report.put(
        "partition.spill_share",
        ratio(p.delta(|m| m.events_routed_spill), routed),
        "ratio",
    );
    report.put("partition.events_routed", routed, "count");
    let ops = p.delta(|m| m.ops_applied);
    report.put("coalesce.ops_per_event", ratio(ops, routed), "ratio");

    // engine
    let (flushes, flush_ns) = p.histogram("engine.flush_ns");
    report.put("engine.ops_applied", ops, "count");
    report.put("engine.flushes", flushes, "count");
    report.put("engine.flush_ms_mean", ratio(flush_ns, flushes) / 1e6, "ms");
    let flush_max = spans
        .get("engine.flush")
        .and_then(|d| d.iter().max())
        .map_or(0.0, ms);
    report.put("engine.flush_ms_max", flush_max, "ms");
    let fast = p.delta(|m| m.fast_path_ops);
    let path_updates = fast + p.delta(|m| m.fallback_ops);
    report.put("engine.fast_path_share", ratio(fast, path_updates), "ratio");
    report.put("engine.path_updates", path_updates, "count");
    report.put("engine.inline_events_per_s", t.inline_events_per_s, "1/s");

    // msf
    let searches = p.delta(|m| m.replacement_searches);
    let scanned = p.delta(|m| m.replacement_edges_scanned);
    report.put("msf.searches", searches, "count");
    report.put("msf.edges_scanned", scanned, "count");
    report.put("msf.scanned_per_search", ratio(scanned, searches), "ratio");
    report.put(
        "msf.level_promotions",
        p.delta(|m| m.level_promotions),
        "count",
    );

    // core (DynSld)
    report.put(
        "core.pointer_changes_per_op",
        ratio(p.delta(|m| m.total_pointer_changes), ops),
        "ratio",
    );
    report.put("core.height_max", t.height_max as f64, "count");
    let (_, apply_ns) = p.histogram("engine.apply_ns");
    report.put("core.apply_ns_per_op", ratio(apply_ns, ops), "ns");

    // delta
    let publishes = p.revision[1].saturating_sub(p.revision[0]) as f64;
    report.put(
        "delta.bytes_per_publish",
        ratio(p.delta(|m| m.delta_bytes_out), publishes),
        "B",
    );
    report.put("delta.publishes", publishes, "count");
    report.put(
        "delta.full_fallbacks",
        p.delta(|m| m.full_fallbacks),
        "count",
    );

    // snapshot
    report.put("snapshot.read_us", median(&p.samples.snapshot_us), "us");
    report.put(
        "snapshot.tracked_query_us",
        median(&p.samples.tracked_us),
        "us",
    );
    report.put(
        "snapshot.untracked_query_ms",
        median(&p.samples.untracked_ms),
        "ms",
    );
    let hits = p.delta(|m| m.snapshot_cache_hits);
    let lookups = hits + p.delta(|m| m.snapshot_cache_misses);
    report.put("snapshot.cache_hit_share", ratio(hits, lookups), "ratio");
    report.put("snapshot.cache_lookups", lookups, "count");

    // durable
    let records = p.delta(|m| m.wal_records_appended);
    report.put(
        "durable.wal_bytes_per_event",
        ratio(p.delta(|m| m.wal_bytes_written), records),
        "B",
    );
    report.put("durable.records_appended", records, "count");
    report.put(
        "durable.checkpoints",
        p.delta(|m| m.checkpoints_written),
        "count",
    );
    report.put(
        "durable.records_replayed",
        t.records_replayed as f64,
        "count",
    );
    report.put("durable.recover_s", t.recover_s, "s");

    // serve
    let sync = summary(report, "serve.sync_ms", &p.samples.sync_ms)?;
    report.put("serve.sync_ms_p50", sync.median, "ms");
    report.put("serve.sync_ms_p99", sync.tail, "ms");
    report.put(
        "serve.patched_share",
        ratio(p.patched as f64, p.syncs as f64),
        "ratio",
    );
    report.put("serve.syncs", p.syncs as f64, "count");
    report.put(
        "serve.retries",
        p.retries[1].saturating_sub(p.retries[0]) as f64,
        "count",
    );

    // Self time per layer, in microseconds per timed event: each layer's total minus the
    // part its children account for (clamped at zero where children ran in parallel).
    let total = |name: &str| p.histogram(name).1 / 1e3;
    let sum = |samples: &[f64], to_us: f64| samples.iter().sum::<f64>() * to_us;
    let route = total("service.route_ns");
    let wall = total("service.flush_wall_ns");
    let delta_build = total("service.delta_build_ns");
    let engine_flush = total("engine.flush_ns");
    let coalesce = total("engine.coalesce_ns");
    let classify = total("engine.classify_ns");
    let replacement = total("msf.replacement_ns");
    let apply = total("engine.apply_ns");
    let export = total("engine.export_ns");
    let publish = total("engine.publish_ns");
    let serve_delta = total("serve.delta_ns");
    let pump_total = sum(&drains, 1e3);
    let pump_children = if t.drains_publish_inline {
        route + engine_flush + delta_build
    } else {
        route + wall
    };
    let self_times = [
        ("self.ingest_submit", sum(&p.samples.submit_us, 1.0)),
        ("self.ingest_pump", pump_total - pump_children),
        ("self.service_route", route),
        ("self.service_flush_wall", wall - delta_build - engine_flush),
        ("self.service_delta_build", delta_build),
        (
            "self.engine_flush",
            engine_flush - coalesce - classify - apply - export - publish,
        ),
        ("self.engine_coalesce", coalesce),
        ("self.engine_classify", classify - replacement),
        ("self.msf_replacement", replacement),
        ("self.engine_apply", apply),
        ("self.engine_export", export),
        ("self.engine_publish", publish),
        ("self.snapshot_read", sum(&p.samples.snapshot_us, 1.0)),
        ("self.snapshot_query", sum(&p.samples.read_ms, 1e3)),
        (
            "self.serve_sync",
            sum(&p.samples.sync_ms, 1e3) - serve_delta,
        ),
        ("self.serve_delta", serve_delta),
    ];
    for (name, us) in self_times {
        report.put(name, ratio(us.max(0.0), events), "us/event");
    }
    report.put(
        "share.delta_build_of_flush_wall",
        ratio(delta_build, wall),
        "ratio",
    );
    report.put(
        "share.engine_flush_of_flush_wall",
        ratio(engine_flush, wall),
        "ratio",
    );
    report.put(
        "share.apply_of_engine_flush",
        ratio(apply, engine_flush),
        "ratio",
    );
    report.put(
        "share.delta_build_of_engine_flush",
        ratio(delta_build, engine_flush),
        "ratio",
    );

    // The end-to-end tails, from the traced phase: each at the highest percentile (at most
    // p99) with ten samples beyond it.
    for (name, samples) in [
        ("visible", &p.samples.visible_ms),
        ("synced", &p.samples.synced_ms),
        ("read", &p.samples.read_ms),
    ] {
        let s = summary(report, &format!("tail.{name}_ms"), samples)?;
        report.put(&format!("tail.{name}_ms"), s.tail, "ms");
    }

    // Tracing overhead: the traced phase against the untraced one of the same run.
    let u = t.untraced;
    report.put(
        "trace.overhead_events_per_s",
        ratio(u.events_per_s(), p.events_per_s()),
        "ratio",
    );
    report.put("trace.untraced_events_per_s", u.events_per_s(), "1/s");
    let untraced_visible = median(&u.samples.visible_ms);
    report.put(
        "trace.overhead_visible_p50",
        ratio(median(&p.samples.visible_ms), untraced_visible),
        "ratio",
    );
    report.put("trace.untraced_visible_p50_ms", untraced_visible, "ms");
    report.put(
        "trace.dropped",
        snapshot.trace.total_dropped() as f64,
        "count",
    );
    Ok(())
}
