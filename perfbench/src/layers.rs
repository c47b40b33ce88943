//! Per-layer metrics of a traced run, computed from the recorded spans
//! plus the counts the workloads gathered at the same boundaries.
//!
//! Times are medians of per-call self time; counts are totals over the
//! replayed work. A layer a workload does not use reports 0.

use crate::trace::Profile;
use crate::util::{median, Checks};

/// Counts and samples gathered next to the spans.
#[derive(Default)]
pub struct Inputs {
    pub events: u64,
    pub peak_queue_depth: u64,
    pub saved_bytes: Vec<f64>,
    /// 1-worker sweep wall time minus the replay's summed layer times.
    pub driver_ms: f64,
    pub loaded_bytes: f64,
    pub envelope_bytes: Vec<f64>,
    pub svg_bytes: Vec<f64>,
    pub rtt_304: Vec<f64>,
    pub http_minus_layers: Vec<f64>,
    pub load_share: Vec<f64>,
    pub agg_hits: u64,
    pub agg_misses: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub coalesced: u64,
    pub shed: u64,
    pub slices: u64,
    pub sse_frames: u64,
    pub trace_overhead_pct: f64,
}

fn ratio(a: u64, b: u64) -> f64 {
    if a + b == 0 {
        0.0
    } else {
        a as f64 / (a + b) as f64
    }
}

/// A metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

pub fn metrics(p: &Profile, i: &Inputs) -> Vec<Metric> {
    let ms = |name: &str| median(&p.self_of(name)) * 1e3;
    let run_self: f64 = p.self_of("pdes.run").iter().sum();
    let replay_total: f64 = p.named("replay.run").map(|s| s.dur_ns() as f64 / 1e9).sum();
    let load_s: f64 = p.self_of("sweep.load").iter().sum();
    let per_event = if i.events > 0 { run_self * 1e9 / i.events as f64 } else { 0.0 };
    vec![
        ("pdes.run_s", median(&p.self_of("pdes.run")), "s"),
        ("pdes.events", i.events as f64, "count"),
        ("pdes.events_per_s", if run_self > 0.0 { i.events as f64 / run_self } else { 0.0 }, "1/s"),
        ("pdes.ns_per_event", per_event, "ns"),
        ("pdes.peak_queue_depth", i.peak_queue_depth as f64, "count"),
        (
            "pdes.run_share_pct",
            if replay_total > 0.0 { run_self / replay_total * 100.0 } else { 0.0 },
            "%",
        ),
        ("workloads.gen_ms", ms("workloads.gen"), "ms"),
        ("network.build_ms", ms("network.build"), "ms"),
        ("fattree.build_ms", ms("fattree.build"), "ms"),
        ("network.extract_ms", ms("network.extract"), "ms"),
        ("fattree.extract_ms", ms("fattree.extract"), "ms"),
        ("sweep.save_ms", ms("sweep.save"), "ms"),
        ("sweep.save_kb", median(&i.saved_bytes) / 1024.0, "KiB"),
        ("sweep.driver_ms", i.driver_ms, "ms"),
        ("sweep.load_ms", ms("sweep.load"), "ms"),
        (
            "sweep.load_mb_per_s",
            if load_s > 0.0 { i.loaded_bytes / load_s / 1e6 } else { 0.0 },
            "MB/s",
        ),
        ("sweep.load_share_pct", median(&i.load_share) * 100.0, "%"),
        ("core.parse_ms", ms("core.parse"), "ms"),
        ("core.dataset_ms", ms("core.dataset"), "ms"),
        ("core.view_ms", ms("core.view"), "ms"),
        ("core.agg_hit_ratio", ratio(i.agg_hits, i.agg_misses), "ratio"),
        ("core.graph_ms", ms("core.graph"), "ms"),
        ("core.envelope_ms", ms("core.envelope"), "ms"),
        ("core.envelope_kb", median(&i.envelope_bytes) / 1024.0, "KiB"),
        ("render.svg_ms", ms("render.svg"), "ms"),
        ("render.svg_kb", median(&i.svg_bytes) / 1024.0, "KiB"),
        ("serve.rtt_304_ms", median(&i.rtt_304) * 1e3, "ms"),
        ("serve.http_ms", median(&i.http_minus_layers) * 1e3, "ms"),
        ("serve.cache_hit_ratio", ratio(i.cache_hits, i.cache_misses), "ratio"),
        ("serve.coalesced", i.coalesced as f64, "count"),
        ("serve.shed", i.shed as f64, "count"),
        ("stream.seal_ms", ms("stream.seal"), "ms"),
        ("stream.slices", i.slices as f64, "count"),
        ("serve.sse_frames", i.sse_frames as f64, "count"),
        ("obs.trace_overhead_pct", i.trace_overhead_pct, "%"),
    ]
}

/// Fail the traced run when a layer named for the workload reports no
/// work on it.
pub fn require(checks: &Checks, metrics: &[Metric], names: &[&str]) {
    for name in names {
        let v = metrics.iter().find(|(n, _, _)| n == name).map_or(0.0, |m| m.1);
        checks.op(v > 0.0, || format!("layer coverage: {name} reports no work"));
    }
}

/// Counter values the server publishes through the global collector
/// (sheds come from the server's own report).
pub struct Counters {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub coalesced: u64,
}

impl Counters {
    pub fn read() -> Counters {
        let c = hrviz_obs::get();
        Counters {
            cache_hits: c.counter("serve/cache_hit"),
            cache_misses: c.counter("serve/cache_miss"),
            coalesced: c.counter("serve/coalesced"),
        }
    }

    /// Fold the change since `before` into `i`.
    pub fn delta_into(&self, before: &Counters, i: &mut Inputs) {
        i.cache_hits = self.cache_hits - before.cache_hits;
        i.cache_misses = self.cache_misses - before.cache_misses;
        i.coalesced = self.coalesced - before.coalesced;
    }
}

/// Percent by which `traced` exceeds `untraced`.
pub fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    if untraced > 0.0 {
        (traced / untraced - 1.0) * 100.0
    } else {
        0.0
    }
}
