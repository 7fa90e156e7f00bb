//! The dynsld perf ledger: one command that runs a workload through the service's public
//! API, checks the result against a static oracle, and prints every metric by name with its
//! unit.
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml -- \
//!     --workload fresh_serve|bulk_churn --seed N --seconds S --trace 0|1 [--size full|smoke]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with telemetry off. `--trace 1` is the
//! separate traced run: it measures once untraced and once with the service's `Telemetry`
//! enabled, reports the per-layer metrics and the tracing overhead, and writes a Chrome
//! trace under `.ledger-work/`. The last line of standard output is one JSON object; a
//! human-readable table goes to standard error. An oracle mismatch exits non-zero and
//! prints no numbers.

mod bulk;
mod fresh;
mod layers;
mod oracle;
mod rig;
mod stats;

use std::fmt::Write as _;
use std::path::PathBuf;

/// The variables the test suite uses to override service configuration process-wide. Any
/// of them would silently change what the ledger measures, so the ledger refuses to run.
const FORBIDDEN_ENV: [&str; 7] = [
    "DYNSLD_THREADS",
    "DYNSLD_MSF_BACKEND",
    "DYNSLD_FAULTS",
    "DYNSLD_DURABLE_DIR",
    "DYNSLD_TRACE",
    "DYNSLD_PARTITIONER",
    "DYNSLD_QUEUE_CAP",
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's real size.
    Full,
    /// A few-seconds size for the ledger's own test.
    Smoke,
}

#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut size = Size::Full;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--size" => {
                size = match value()?.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    other => return Err(format!("--size takes full or smoke, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        size,
    })
}

/// One metric as printed: name, value, unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports: operation counts and the metrics of the requested kind.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines for standard error (distribution details, sample counts).
    pub notes: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn to_json(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite", m.name));
            }
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints an f64 with every digit needed to round-trip.
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Scratch space for a run: durable directories and the Chrome trace live under
/// `.ledger-work/` in the working directory.
pub fn work_root() -> PathBuf {
    PathBuf::from(".ledger-work")
}

fn run() -> Result<Report, String> {
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!(
            "{var} is set; it overrides the configuration the ledger pins, so refusing to run"
        ));
    }
    let args = parse_args()?;
    match args.workload.as_str() {
        "fresh_serve" => fresh::run(&args),
        "bulk_churn" => bulk::run(&args),
        other => Err(format!(
            "unknown workload {other} (fresh_serve | bulk_churn)"
        )),
    }
}

fn main() {
    let report = run().and_then(|r| r.to_json().map(|json| (r, json)));
    match report {
        Ok((report, json)) => {
            for line in &report.notes {
                eprintln!("{line}");
            }
            for m in &report.metrics {
                eprintln!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!("{json}");
        }
        Err(e) => {
            eprintln!("ledger: {e}");
            std::process::exit(1);
        }
    }
}
