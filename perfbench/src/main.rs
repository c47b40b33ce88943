//! hrviz paper-scale benchmark.
//!
//! ```text
//! perfbench --workload sweep|explore|live --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload runs in its own process. With `--trace 0` the run sets
//! up three times (the median is `setup_s`), measures for `--seconds`,
//! checks every output, and prints the end-to-end metrics. With
//! `--trace 1` it sets up once, measures half the window untraced and
//! half traced, replays the work layer by layer through the crates'
//! public functions, and prints the per-layer metrics. The last line of
//! standard output is always one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 0
//! only when every check passed. See `perfbench/README.md`.

mod explore;
mod http;
mod layers;
mod live;
mod scripts;
mod session;
mod sim;
mod sweep;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use hrviz_network::HrvizError;

use crate::util::{median, quantile, tail, Checks};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for this run's stores, removed at exit.
    pub work: PathBuf,
}

impl Args {
    /// The grid seed of the `i`-th sweep a workload runs.
    pub fn grid_seed(&self, i: u64) -> u64 {
        util::Rng::derive(self.seed, "grid", i).next_u64() % 1_000_000_007
    }
}

/// End-to-end numbers of one measured pass. Latencies are in seconds.
#[derive(Default)]
pub struct Pass {
    pub sweep_s: Vec<f64>,
    pub samples: session::Samples,
    /// Seconds during which the clients were sending requests.
    pub busy_s: f64,
}

impl Pass {
    fn metrics(&self) -> Vec<layers::Metric> {
        vec![
            ("sweep_s", median(&self.sweep_s), "s"),
            ("view_p50_ms", quantile(&self.samples.cold, 0.5) * 1e3, "ms"),
            ("view_p90_ms", tail(&self.samples.cold, 0.9, 100) * 1e3, "ms"),
            ("warm_p50_ms", quantile(&self.samples.warm, 0.5) * 1e3, "ms"),
            ("req_per_s", self.samples.requests as f64 / self.busy_s.max(1e-9), "1/s"),
        ]
    }

    /// Printed beside the metrics but not reported: the warm tail moves
    /// with host noise by more than any bound BENCHMARK.json may set.
    fn warm_p95_ms(&self) -> f64 {
        tail(&self.samples.warm, 0.95, 200) * 1e3
    }
}

/// What the set-ups measured.
#[derive(Default)]
pub struct SetUp {
    /// Each set-up's seconds.
    pub secs: Vec<f64>,
    /// The process's peak resident set (VmHWM) over the set-ups, in MiB.
    pub peak_rss_mb: f64,
}

/// Everything a workload reports.
#[derive(Default)]
pub struct Output {
    pub setup: SetUp,
    /// The measured (untraced) pass.
    pub pass: Pass,
    /// Traced only: the same pass with tracing on.
    pub traced: Option<Pass>,
    /// Traced only: the per-layer metrics.
    pub layers: Vec<layers::Metric>,
    /// Traced only: per span name, calls and summed self seconds.
    pub self_times: BTreeMap<&'static str, (u64, f64)>,
    /// `run <id> events=<n> checksum=<c>` lines, printed in order.
    pub runs: Vec<String>,
}

impl Output {
    pub fn run_line(&mut self, id: &str, events: u64, checksum: &str) {
        self.runs.push(format!("run {id} events={events} checksum={checksum}"));
    }
}

/// Set up `reps` times, keeping the last; `teardown` releases each
/// earlier one. Returns the kept set-up and what the set-ups measured.
/// The peak resident set is then reset, so that the measured window's
/// own peak can be told apart from the set-ups'.
pub fn set_up<T>(
    reps: usize,
    mut make: impl FnMut(usize) -> Result<T, HrvizError>,
    mut teardown: impl FnMut(T) -> Result<(), HrvizError>,
) -> Result<(T, SetUp), HrvizError> {
    let mut times = Vec::new();
    let mut kept = None;
    for i in 0..reps.max(1) {
        let t = Instant::now();
        let made = make(i)?;
        times.push(t.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(made) {
            teardown(old)?;
        }
    }
    let peak_rss_mb = util::peak_rss_mb();
    util::reset_peak_rss();
    Ok((kept.expect("at least one set-up"), SetUp { secs: times, peak_rss_mb }))
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or(format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        kv.insert(key.to_string(), value);
    }
    let get = |k: &str| kv.get(k).ok_or(format!("--{k} is required"));
    let workload = get("workload")?.clone();
    if !["sweep", "explore", "live"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?} (sweep, explore, live)"));
    }
    let seed = get("seed")?.parse().map_err(|_| "--seed must be an integer")?;
    let seconds: f64 = get("seconds")?.parse().map_err(|_| "--seconds must be a number")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    for k in kv.keys() {
        if !["workload", "seed", "seconds", "trace"].contains(&k.as_str()) {
            return Err(format!("unknown flag --{k}"));
        }
    }
    let work =
        PathBuf::from(".perfbench-work").join(format!("{workload}-{seed}-{}", std::process::id()));
    Ok(Args { workload, seed, seconds, trace, work })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} cores={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let checks = Checks::default();
    let mut out = Output::default();
    let result = match args.workload.as_str() {
        "sweep" => sweep::run(&args, &checks, &mut out),
        "explore" => explore::run(&args, &checks, &mut out),
        _ => live::run(&args, &checks, &mut out),
    };
    let _ = std::fs::remove_dir_all(&args.work);
    if let Err(e) = result {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        std::process::exit(1);
    }
    let window_rss_mb = util::peak_rss_mb();
    for line in &out.runs {
        println!("{line}");
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let (attempted, failed, notes) = checks.totals();
    let fail_ratio = failed as f64 / attempted.max(1) as f64;
    if args.trace {
        let untraced = out.pass.metrics();
        let traced = out.traced.as_ref().map(Pass::metrics).unwrap_or_default();
        println!("end-to-end, untraced vs traced pass:");
        for ((name, a, unit), (_, b, _)) in untraced.iter().zip(&traced) {
            println!("  {name:<12} {a:>12.4} {b:>12.4} {unit}");
        }
        let tails = (out.pass.warm_p95_ms(), out.traced.as_ref().map_or(0.0, Pass::warm_p95_ms));
        println!("  {:<12} {:>12.4} {:>12.4} ms (not reported)", "warm_p95_ms", tails.0, tails.1);
        println!("self time per span (traced run): calls, total ms");
        for (name, (calls, secs)) in &out.self_times {
            println!("  {name:<24} {calls:>8} {:>14.3}", secs * 1e3);
        }
        println!("per-layer metrics (traced run):");
        for (name, value, unit) in &out.layers {
            println!("  {name:<24} {value:>14.4} {unit}");
        }
        metrics.extend(out.layers.iter().copied());
    } else {
        metrics.push(("setup_s", median(&out.setup.secs), "s"));
        metrics.push(("peak_rss_mb", out.setup.peak_rss_mb.max(window_rss_mb), "MB"));
        metrics.extend(out.pass.metrics());
        println!("end-to-end ({} set-ups: {:?} s):", out.setup.secs.len(), out.setup.secs);
        for (name, value, unit) in &metrics {
            println!("  {name:<12} {value:>12.4} {unit}");
        }
        println!("  {:<12} {:>12.4} ms (not reported)", "warm_p95_ms", out.pass.warm_p95_ms());
        let by = if window_rss_mb > out.setup.peak_rss_mb { "window" } else { "set-up" };
        println!(
            "  peak_rss_mb is the larger of set-up {:.1} MB and measured window {:.1} MB: the {by}'s",
            out.setup.peak_rss_mb, window_rss_mb
        );
    }
    println!("fail_ratio {fail_ratio} ({failed} of {attempted} operations failed)");
    for n in &notes {
        println!("FAILED: {n}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_number(*v)))
        .collect();
    let correct = failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        body.join(",")
    );
    std::process::exit(if correct { 0 } else { 1 });
}
