//! The workspace's wall-clock benchmark: one command per workload, seeded
//! inputs, every output checked, end-to-end metrics by name and unit.
//!
//! ```text
//! perfbench --workload serve_steady|serve_bulk|sim_pairs
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics, taken from spans the
//! benchmark records around calls into each layer's public functions.
//! Lines before it are a human-readable table plus the exact counts that
//! repeat for a seed. Run artifacts (journals, span files) go to
//! `.bench_out/` under the working directory. See `perfbench/NOTES.md`.

mod host;
mod mix;
mod serve;
mod sim;
mod sort;
mod spans;

use host::{Gauge, Host};
use mix::{quantile, Tally};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, reported on every workload with tracing off.
/// A "job" is one unit of the workload's work: a client job on the serve
/// workloads, a fault plan on sim_pairs.
const END_TO_END: [(&str, &str); 5] = [
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported on every workload with tracing on; a layer
/// the workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 40] = [
    ("load.late_p99_ms", "ms"),
    ("load.sent", "count"),
    ("proto.request_us", "us"),
    ("proto.response_us", "us"),
    ("admission.submit_us", "us"),
    ("admission.shed", "count"),
    ("journal.append_us", "us"),
    ("journal.appends_per_job", "count"),
    ("journal.bytes_per_job", "B"),
    ("batcher.jobs_per_batch", "count"),
    ("batcher.pack_us", "us"),
    ("serve.queue_wait_ms", "ms"),
    ("service.wait_ms", "ms"),
    ("heal.run_ms_per_batch", "ms"),
    ("heal.offline_us_per_batch", "us"),
    ("heal.us_per_cycle", "us"),
    ("heal.epochs", "count"),
    ("heal.census_cycles", "count"),
    ("heal.replay_cycles", "count"),
    ("engine.cycles", "count"),
    ("engine.messages", "count"),
    ("engine.runs", "count"),
    ("vector.schedule_ms", "ms"),
    ("vector.run_s", "s"),
    ("vector.teardown_ms", "ms"),
    ("vector.cycles", "count"),
    ("vector.messages", "count"),
    ("sim.enumerate_ms", "ms"),
    ("sim.run_us", "us"),
    ("sim.pass", "count"),
    ("sim.typed", "count"),
    ("sim.overrun", "count"),
    ("sim.wrong", "count"),
    ("decode.us_per_job", "us"),
    ("trace.overhead", "x"),
    ("trace.coverage", "frac"),
    ("trace.uncovered", "frac"),
    ("host.handoff_ms", "ms"),
    ("host.compute_ms", "ms"),
    ("fail_frac", "frac"),
];

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where journals and span files go.
    pub out: PathBuf,
}

/// What a workload measured.
pub struct Report {
    pub tally: Tally,
    pub setup_s: f64,
    pub job_p50_ms: f64,
    pub job_p90_ms: f64,
    pub jobs_per_s: f64,
    /// The workload's own names for its headline numbers (table only).
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// The same timings unscaled, as the run's clock read them (table only).
    pub raw: Vec<(&'static str, f64, &'static str)>,
    /// Exact counts that repeat for a seed (table only).
    pub counts: Vec<(String, u64)>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn new(tally: Tally, setup_s: f64) -> Report {
        Report {
            tally,
            setup_s,
            job_p50_ms: 0.0,
            job_p90_ms: 0.0,
            jobs_per_s: 0.0,
            named: Vec::new(),
            raw: Vec::new(),
            counts: Vec::new(),
            layers: BTreeMap::new(),
        }
    }

    /// Keep the unscaled job times, set-up times and job rate next to the
    /// scaled ones, with the host's reference time.
    pub fn host(&mut self, host: &Host, job_ms: &mut [f64], setup_s: &mut [f64], jobs_per_s: f64) {
        self.raw = vec![
            ("job_p50_ms", quantile(job_ms, 0.5), "ms"),
            ("job_p90_ms", quantile(job_ms, 0.9), "ms"),
            ("jobs_per_s", jobs_per_s, "1/s"),
            ("setup_s", quantile(setup_s, 0.5), "s"),
            ("host.handoff_ms", host.ref_ms(Gauge::Handoff), "ms"),
            ("host.compute_ms", host.ref_ms(Gauge::Compute), "ms"),
            ("host.samples", host.len() as f64, "count"),
        ];
        self.layers
            .insert("host.handoff_ms", host.ref_ms(Gauge::Handoff));
        self.layers
            .insert("host.compute_ms", host.ref_ms(Gauge::Compute));
    }
}

fn parse_args() -> Result<(String, Opts), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".bench_out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => opts.trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok((workload, opts))
}

fn main() -> ExitCode {
    let (workload, opts) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Before any thread starts, so that every thread inherits it.
    mix::one_malloc_arena();
    let cpu = match mix::pin_to_one_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("perfbench: pinning to one CPU: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("perfbench: {}: {e}", opts.out.display());
        return ExitCode::FAILURE;
    }
    let run = match workload.as_str() {
        "serve_steady" => serve::steady(&opts),
        "serve_bulk" => serve::bulk(&opts),
        "sim_pairs" => sim::pairs(&opts),
        other => Err(format!("unknown workload {other}")),
    };
    match run {
        Ok(report) => {
            print_report(&workload, &opts, cpu, &report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_report(workload: &str, opts: &Opts, cpu: usize, r: &Report) {
    let t = &r.tally;
    println!(
        "# {workload} seed={} seconds={} trace={} cpu={cpu}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    println!(
        "# tally attempted={} shed={} failed={} wrong={} missing={}",
        t.attempted, t.shed, t.failed, t.wrong, t.missing
    );
    for (name, value) in &r.counts {
        println!("# count {name} {value}");
    }
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if opts.trace {
        for (name, unit) in PER_LAYER {
            let value = if name == "fail_frac" {
                t.fail_frac()
            } else {
                r.layers.get(name).copied().unwrap_or(0.0)
            };
            metrics.push((name, value, unit));
        }
    } else {
        let rss = mix::peak_rss_mb();
        for (name, unit) in END_TO_END {
            let value = match name {
                "job_p50_ms" => r.job_p50_ms,
                "job_p90_ms" => r.job_p90_ms,
                "jobs_per_s" => r.jobs_per_s,
                "setup_s" => r.setup_s,
                _ => rss,
            };
            metrics.push((name, value, unit));
        }
        for &(name, value, unit) in &r.raw {
            println!("# raw {name} {value} {unit}");
        }
        for &(name, value, unit) in &r.named {
            println!("# metric {name} {value} {unit}");
        }
        println!("# metric fail_frac {} frac", t.fail_frac());
    }
    for &(name, value, unit) in &metrics {
        println!("# metric {name} {value} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.wrong == 0 && t.missing == 0,
        t.attempted,
        t.failures(),
        body.join(", ")
    );
}
