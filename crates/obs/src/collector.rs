//! The metric collector: named counters, gauges, fixed-bucket histograms,
//! span aggregates, and the JSONL event stream.
//!
//! A [`Collector`] is a cheap handle (`Option<Arc<_>>`): clones share state,
//! and the disabled collector is a `None` whose every operation is a single
//! predictable branch — cheap enough to leave the instrumentation calls in
//! hot-adjacent code unconditionally (the simulator reports at phase
//! boundaries, never per event).

use crate::json::Json;
use crate::recorder::{sanitize_reason, Flight, SpanRecord};
use crate::span::Span;
use crate::trace::TraceSink;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Log severity, ordered from most to least severe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Unrecoverable or data-loss conditions.
    Error = 0,
    /// Suspicious but survivable conditions.
    Warn = 1,
    /// Run-level milestones (default threshold).
    Info = 2,
    /// Phase-level detail.
    Debug = 3,
    /// Everything, including per-window detail.
    Trace = 4,
}

impl LogLevel {
    /// Parse a level name (case-insensitive).
    pub fn parse(s: &str) -> Option<LogLevel> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Some(LogLevel::Error),
            "warn" | "warning" => Some(LogLevel::Warn),
            "info" => Some(LogLevel::Info),
            "debug" => Some(LogLevel::Debug),
            "trace" => Some(LogLevel::Trace),
            _ => None,
        }
    }

    /// Canonical lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            LogLevel::Error => "error",
            LogLevel::Warn => "warn",
            LogLevel::Info => "info",
            LogLevel::Debug => "debug",
            LogLevel::Trace => "trace",
        }
    }

    fn from_u8(v: u8) -> LogLevel {
        match v {
            0 => LogLevel::Error,
            1 => LogLevel::Warn,
            2 => LogLevel::Info,
            3 => LogLevel::Debug,
            _ => LogLevel::Trace,
        }
    }
}

/// A fixed-bucket histogram over `[lo, lo + width * buckets)`, with
/// under/overflow counters and running sum/min/max.
#[derive(Clone, Debug, PartialEq)]
pub struct Hist {
    /// Lower bound of bucket 0.
    pub lo: f64,
    /// Width of each bucket.
    pub width: f64,
    /// Per-bucket sample counts.
    pub counts: Vec<u64>,
    /// Samples below `lo`.
    pub underflow: u64,
    /// Samples at or above the last bucket boundary.
    pub overflow: u64,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample (`INFINITY` when empty).
    pub min: f64,
    /// Largest sample (`NEG_INFINITY` when empty).
    pub max: f64,
}

impl Hist {
    /// A histogram with `buckets` buckets of `width` starting at `lo`.
    pub fn new(lo: f64, width: f64, buckets: usize) -> Hist {
        assert!(width > 0.0, "histogram bucket width must be positive");
        assert!(buckets > 0, "histogram needs at least one bucket");
        Hist {
            lo,
            width,
            counts: vec![0; buckets],
            underflow: 0,
            overflow: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v < self.lo {
            self.underflow += 1;
            return;
        }
        let idx = ((v - self.lo) / self.width) as usize;
        match self.counts.get_mut(idx) {
            Some(c) => *c += 1,
            None => self.overflow += 1,
        }
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`) from the bucket counts.
    ///
    /// The estimator is the nearest-rank method over bucket counts: the
    /// target rank is `ceil(q * count)` (at least 1), located by a
    /// cumulative walk `underflow → buckets → overflow`. Underflow samples
    /// resolve to `min`, overflow samples to `max`, and in-range samples
    /// to the *upper edge* of their bucket clamped to the observed
    /// `min`/`max`, so the estimate is within one bucket width of (and
    /// never below) the true order statistic. The extremes are exact:
    /// `q <= 0` returns `min` and `q >= 1` returns `max` — the running
    /// min/max track every sample, so no bucket-edge bias applies there.
    /// Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow;
        if rank <= seen {
            return self.min;
        }
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if rank <= seen {
                let edge = self.lo + self.width * (i as f64 + 1.0);
                return edge.clamp(self.min, self.max);
            }
        }
        self.max
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("lo", Json::F64(self.lo)),
            ("width", Json::F64(self.width)),
            ("counts", Json::Arr(self.counts.iter().map(|&c| Json::U64(c)).collect())),
            ("underflow", Json::U64(self.underflow)),
            ("overflow", Json::U64(self.overflow)),
            ("count", Json::U64(self.count)),
            ("sum", Json::F64(self.sum)),
            ("mean", Json::F64(self.mean())),
            ("min", Json::F64(if self.count == 0 { 0.0 } else { self.min })),
            ("max", Json::F64(if self.count == 0 { 0.0 } else { self.max })),
        ])
    }
}

/// Aggregate timing for one span label.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Completed spans with this label.
    pub count: u64,
    /// Total time across them, in ns.
    pub total_ns: u64,
    /// Longest single span, in ns.
    pub max_ns: u64,
}

#[derive(Default)]
pub(crate) struct State {
    pub(crate) counters: BTreeMap<String, u64>,
    pub(crate) gauges: BTreeMap<String, f64>,
    pub(crate) hists: BTreeMap<String, Hist>,
    pub(crate) spans: BTreeMap<String, SpanStat>,
}

pub(crate) struct Inner {
    pub(crate) epoch: Instant,
    pub(crate) state: Mutex<State>,
    pub(crate) sink: Mutex<TraceSink>,
    pub(crate) level: AtomicU8,
    /// Next span id; ids are telemetry-only and never reach simulation
    /// state or event order.
    pub(crate) next_span_id: AtomicU64,
    pub(crate) flight: Mutex<Flight>,
}

impl Inner {
    /// Emit one event line: `{"ts_us":..., "kind":..., <fields>}`. The
    /// line goes to the trace sink and into the flight-recorder ring.
    pub(crate) fn emit(&self, kind: &str, fields: &[(&str, Json)]) {
        let ts_us = self.epoch.elapsed().as_micros() as u64;
        let mut pairs: Vec<(String, Json)> = Vec::with_capacity(fields.len() + 2);
        pairs.push(("ts_us".into(), Json::U64(ts_us)));
        pairs.push(("kind".into(), Json::Str(kind.into())));
        for (k, v) in fields {
            pairs.push(((*k).into(), v.clone()));
        }
        let line = Json::Obj(pairs).render();
        // lint:allow(blocking_under_lock, reason="the sink lock exists to serialize exactly this write; the line is pre-rendered so the critical section is one buffered write")
        self.sink.lock().expect("sink poisoned").write_line(&line);
        self.flight.lock().expect("flight poisoned").push_event(line);
    }

    /// Allocate the next span id (never 0 — 0 means "no parent").
    pub(crate) fn next_span_id(&self) -> u64 {
        self.next_span_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Fold a completed span into the per-label aggregate and the ring.
    pub(crate) fn record_span(&self, rec: SpanRecord, dur_ns: u64) {
        {
            let mut st = self.state.lock().expect("state poisoned");
            let stat = st.spans.entry(rec.label.clone()).or_default();
            stat.count += 1;
            stat.total_ns += dur_ns;
            stat.max_ns = stat.max_ns.max(dur_ns);
        }
        self.flight.lock().expect("flight poisoned").push_span(rec);
    }
}

/// An immutable copy of the collector's aggregated state.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub hists: BTreeMap<String, Hist>,
    /// Span aggregates by label.
    pub spans: BTreeMap<String, SpanStat>,
}

impl Snapshot {
    /// Render the whole snapshot as one JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "counters",
                Json::Obj(self.counters.iter().map(|(k, &v)| (k.clone(), Json::U64(v))).collect()),
            ),
            (
                "gauges",
                Json::Obj(self.gauges.iter().map(|(k, &v)| (k.clone(), Json::F64(v))).collect()),
            ),
            (
                "histograms",
                Json::Obj(self.hists.iter().map(|(k, h)| (k.clone(), h.to_json())).collect()),
            ),
            (
                "spans",
                Json::Obj(
                    self.spans
                        .iter()
                        .map(|(k, s)| {
                            (
                                k.clone(),
                                Json::obj([
                                    ("count", Json::U64(s.count)),
                                    ("total_ns", Json::U64(s.total_ns)),
                                    ("max_ns", Json::U64(s.max_ns)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Handle to (possibly disabled) run telemetry. Clones share state.
#[derive(Clone, Default)]
pub struct Collector {
    pub(crate) inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector").field("enabled", &self.is_enabled()).finish()
    }
}

impl Collector {
    /// A collector that records nothing; every operation is a single branch.
    pub fn disabled() -> Collector {
        Collector { inner: None }
    }

    fn with_sink(sink: TraceSink) -> Collector {
        Collector {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                state: Mutex::new(State::default()),
                sink: Mutex::new(sink),
                level: AtomicU8::new(LogLevel::Info as u8),
                next_span_id: AtomicU64::new(1),
                flight: Mutex::new(Flight::new()),
            })),
        }
    }

    /// An enabled collector whose event stream is kept in memory (drain it
    /// with [`Collector::drain_events`]).
    pub fn enabled() -> Collector {
        Collector::with_sink(TraceSink::Memory(Vec::new()))
    }

    /// An enabled collector streaming events to a JSONL file at `path`.
    pub fn with_trace_file(path: &Path) -> io::Result<Collector> {
        Ok(Collector::with_sink(TraceSink::file(path)?))
    }

    /// Whether this collector records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Add `delta` to counter `name`.
    #[inline]
    pub fn counter_add(&self, name: &str, delta: u64) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.state.lock().expect("state poisoned");
        match st.counters.get_mut(name) {
            Some(c) => *c += delta,
            None => {
                st.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Current value of counter `name` (0 when disabled or never written).
    pub fn counter(&self, name: &str) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        let st = inner.state.lock().expect("state poisoned");
        st.counters.get(name).copied().unwrap_or(0)
    }

    /// Set gauge `name` to `v`.
    #[inline]
    pub fn gauge_set(&self, name: &str, v: f64) {
        let Some(inner) = &self.inner else { return };
        inner.state.lock().expect("state poisoned").gauges.insert(name.to_string(), v);
    }

    /// Raise gauge `name` to `v` if `v` is larger (high-water mark).
    #[inline]
    pub fn gauge_max(&self, name: &str, v: f64) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.state.lock().expect("state poisoned");
        let e = st.gauges.entry(name.to_string()).or_insert(f64::NEG_INFINITY);
        if v > *e {
            *e = v;
        }
    }

    /// Current value of gauge `name` (`None` when disabled or never set).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        let inner = self.inner.as_ref()?;
        let st = inner.state.lock().expect("state poisoned");
        st.gauges.get(name).copied()
    }

    /// Configure histogram `name` before recording into it. Re-configuring
    /// an existing histogram resets it.
    pub fn hist_config(&self, name: &str, lo: f64, width: f64, buckets: usize) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.state.lock().expect("state poisoned");
        st.hists.insert(name.to_string(), Hist::new(lo, width, buckets));
    }

    /// Configure histogram `name` only if it does not exist yet (safe to
    /// call once per run on a shared collector).
    pub fn hist_ensure(&self, name: &str, lo: f64, width: f64, buckets: usize) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.state.lock().expect("state poisoned");
        if !st.hists.contains_key(name) {
            st.hists.insert(name.to_string(), Hist::new(lo, width, buckets));
        }
    }

    /// Record a sample into histogram `name` (auto-configured as 64 unit
    /// buckets from 0 when never configured).
    #[inline]
    pub fn hist_record(&self, name: &str, v: f64) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.state.lock().expect("state poisoned");
        match st.hists.get_mut(name) {
            Some(h) => h.record(v),
            None => {
                let mut h = Hist::new(0.0, 1.0, 64);
                h.record(v);
                st.hists.insert(name.to_string(), h);
            }
        }
    }

    /// Start a timed span with a hierarchical `label` (e.g. `sim/run`). The
    /// span records itself when dropped. Free when disabled: no clock read.
    #[inline]
    pub fn span(&self, label: &str) -> Span {
        Span::start(self.inner.clone(), label)
    }

    /// Like [`Collector::span`], but the completed span is placed on the
    /// named timeline `lane` in the Chrome export instead of its thread's
    /// lane (causal parentage is unchanged). Used for logical timelines
    /// that span threads, e.g. the aggregate cache.
    #[inline]
    pub fn span_on_lane(&self, lane: &str, label: &str) -> Span {
        Span::start_with(self.inner.clone(), label, Some(lane))
    }

    /// Set the log threshold (messages above it are dropped).
    pub fn set_level(&self, level: LogLevel) {
        if let Some(inner) = &self.inner {
            inner.level.store(level as u8, Ordering::Relaxed);
        }
    }

    /// Current log threshold (`None` when disabled).
    pub fn level(&self) -> Option<LogLevel> {
        self.inner.as_ref().map(|i| LogLevel::from_u8(i.level.load(Ordering::Relaxed)))
    }

    /// Log `msg` at `level`: appended to the trace stream and echoed to
    /// stderr when at or below the threshold.
    pub fn log(&self, level: LogLevel, msg: &str) {
        let Some(inner) = &self.inner else { return };
        if level as u8 > inner.level.load(Ordering::Relaxed) {
            return;
        }
        inner.emit(
            "log",
            &[("level", Json::Str(level.as_str().into())), ("msg", Json::Str(msg.into()))],
        );
        eprintln!("[{}] {}", level.as_str(), msg);
    }

    /// Append a custom event (`kind` plus fields) to the trace stream.
    pub fn event(&self, kind: &str, fields: &[(&str, Json)]) {
        let Some(inner) = &self.inner else { return };
        inner.emit(kind, fields);
    }

    /// Copy out the aggregated state.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else { return Snapshot::default() };
        let st = inner.state.lock().expect("state poisoned");
        Snapshot {
            counters: st.counters.clone(),
            gauges: st.gauges.clone(),
            hists: st.hists.clone(),
            spans: st.spans.clone(),
        }
    }

    /// Drain buffered trace lines (memory sink only; empty otherwise).
    pub fn drain_events(&self) -> Vec<String> {
        let Some(inner) = &self.inner else { return Vec::new() };
        let mut sink = inner.sink.lock().expect("sink poisoned");
        match &mut *sink {
            TraceSink::Memory(lines) => std::mem::take(lines),
            _ => Vec::new(),
        }
    }

    /// Flush the trace sink (file sinks buffer).
    pub fn flush(&self) -> io::Result<()> {
        let Some(inner) = &self.inner else { return Ok(()) };
        // lint:allow(blocking_under_lock, reason="flushing IS the sink lock's purpose: it must drain the same buffer the writers serialize on")
        inner.sink.lock().expect("sink poisoned").flush()
    }

    /// Microseconds since this collector's epoch (`None` when disabled —
    /// the disabled path never reads the clock).
    #[inline]
    pub fn now_us(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.epoch.elapsed().as_micros() as u64)
    }

    /// The id of the innermost live span on *this thread* (`None` when
    /// disabled or outside any span). `POST /views` uses this as the
    /// request id: the `serve/request` span id that every child span
    /// records as an ancestor.
    pub fn current_span_id(&self) -> Option<u64> {
        self.inner.as_ref()?;
        crate::span::stack_top()
    }

    /// Record an already-timed span onto an explicit timeline `lane`
    /// (the engine, sweep runs). Folds into the per-label span
    /// aggregate, appends a `span` event to the trace stream, and lands
    /// in the ring behind `/tracez` and the Chrome exporter. `start_us`
    /// is microseconds since the collector epoch (see
    /// [`Collector::now_us`]).
    pub fn record_span(
        &self,
        lane: &str,
        label: &str,
        start_us: u64,
        dur_us: u64,
        args: &[(&str, Json)],
    ) {
        let Some(inner) = &self.inner else { return };
        let id = inner.next_span_id();
        let owned: Vec<(String, Json)> =
            args.iter().map(|(k, v)| ((*k).to_string(), v.clone())).collect();
        let mut fields: Vec<(&str, Json)> = Vec::with_capacity(args.len() + 5);
        fields.push(("label", Json::Str(label.into())));
        fields.push(("id", Json::U64(id)));
        fields.push(("lane", Json::Str(lane.into())));
        fields.push(("start_us", Json::U64(start_us)));
        fields.push(("dur_us", Json::F64(dur_us as f64)));
        for (k, v) in args {
            fields.push((k, v.clone()));
        }
        inner.emit("span", &fields);
        inner.record_span(
            SpanRecord {
                id,
                parent: 0,
                tid: 0,
                lane: Some(lane.to_string()),
                label: label.to_string(),
                start_us,
                dur_us,
                args: owned,
            },
            dur_us.saturating_mul(1_000),
        );
    }

    /// The most recent completed spans, oldest first (bounded ring).
    pub fn recent_spans(&self) -> Vec<SpanRecord> {
        let Some(inner) = &self.inner else { return Vec::new() };
        inner.flight.lock().expect("flight poisoned").spans.iter().cloned().collect()
    }

    /// The most recent trace-event lines, oldest first (bounded ring;
    /// unlike [`Collector::drain_events`] this does not consume them and
    /// works for any sink).
    pub fn recent_events(&self) -> Vec<String> {
        let Some(inner) = &self.inner else { return Vec::new() };
        inner.flight.lock().expect("flight poisoned").events.iter().cloned().collect()
    }

    /// Enable flight-recorder dumps into `dir` (replacing any previous
    /// destination).
    pub fn set_flight_dir(&self, dir: &Path) {
        let Some(inner) = &self.inner else { return };
        inner.flight.lock().expect("flight poisoned").dump_dir = Some(dir.to_path_buf());
    }

    /// Enable flight-recorder dumps into `dir` only if no destination is
    /// configured yet (lets an embedding test pick its own directory
    /// before the server installs the default).
    pub fn flight_dir_default(&self, dir: &Path) {
        let Some(inner) = &self.inner else { return };
        let mut fl = inner.flight.lock().expect("flight poisoned");
        if fl.dump_dir.is_none() {
            fl.dump_dir = Some(dir.to_path_buf());
        }
    }

    /// Dump the flight-recorder ring to disk: the recent event lines
    /// followed by a full snapshot line, written to
    /// `<dir>/flight-<seq>-<reason>.jsonl`. Returns the dump path, or
    /// `None` when disabled or no dump directory is configured. Called
    /// when a watchdog trips, a worker panics, or a shed burst occurs.
    pub fn flight_dump(&self, reason: &str) -> io::Result<Option<PathBuf>> {
        let Some(inner) = &self.inner else { return Ok(None) };
        let (dir, seq, lines) = {
            let mut fl = inner.flight.lock().expect("flight poisoned");
            let Some(dir) = fl.dump_dir.clone() else { return Ok(None) };
            fl.dump_seq += 1;
            (dir, fl.dump_seq, fl.events.iter().cloned().collect::<Vec<String>>())
        };
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("flight-{seq:04}-{}.jsonl", sanitize_reason(reason)));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        let header = Json::obj([
            ("kind", Json::Str("flight_dump".into())),
            ("reason", Json::Str(reason.into())),
            ("events", Json::U64(lines.len() as u64)),
            ("ts_us", Json::U64(inner.epoch.elapsed().as_micros() as u64)),
        ]);
        writeln!(out, "{}", header.render())?;
        for line in &lines {
            writeln!(out, "{line}")?;
        }
        let snap = Json::obj([
            ("kind", Json::Str("snapshot".into())),
            ("state", self.snapshot().to_json()),
        ]);
        writeln!(out, "{}", snap.render())?;
        out.flush()?;
        self.counter_add("obs/flight_dumps", 1);
        Ok(Some(path))
    }

    /// Write the final snapshot to the trace stream and flush the sink.
    /// Shutdown paths (serve drain, CLI exit) call this so a killed
    /// process never drops buffered JSONL lines or the closing state.
    pub fn finalize(&self) -> io::Result<()> {
        let Some(inner) = &self.inner else { return Ok(()) };
        inner
            .emit("snapshot", &[("final", Json::Bool(true)), ("state", self.snapshot().to_json())]);
        self.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_collector_is_inert() {
        let c = Collector::disabled();
        assert!(!c.is_enabled());
        c.counter_add("x", 5);
        c.gauge_set("g", 1.0);
        c.hist_record("h", 2.0);
        c.log(LogLevel::Error, "nothing happens");
        drop(c.span("s"));
        assert_eq!(c.counter("x"), 0);
        assert_eq!(c.gauge("g"), None);
        let snap = c.snapshot();
        assert!(snap.counters.is_empty() && snap.hists.is_empty() && snap.spans.is_empty());
        assert!(c.drain_events().is_empty());
    }

    #[test]
    fn counters_and_gauges_aggregate() {
        let c = Collector::enabled();
        c.counter_add("pkts", 3);
        c.counter_add("pkts", 4);
        assert_eq!(c.counter("pkts"), 7);
        c.gauge_set("depth", 2.0);
        c.gauge_max("depth", 9.0);
        c.gauge_max("depth", 4.0);
        assert_eq!(c.gauge("depth"), Some(9.0));
    }

    #[test]
    fn clones_share_state() {
        let a = Collector::enabled();
        let b = a.clone();
        b.counter_add("n", 1);
        assert_eq!(a.counter("n"), 1);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let c = Collector::enabled();
        c.hist_config("h", 0.0, 10.0, 3); // [0,10) [10,20) [20,30)
        for v in [-1.0, 0.0, 9.9, 15.0, 29.9, 30.0, 100.0] {
            c.hist_record("h", v);
        }
        let h = &c.snapshot().hists["h"];
        assert_eq!(h.counts, vec![2, 1, 1]);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 2);
        assert_eq!(h.count, 7);
        assert_eq!(h.min, -1.0);
        assert_eq!(h.max, 100.0);
    }

    #[test]
    fn quantiles_track_bucket_edges() {
        let mut h = Hist::new(0.0, 10.0, 10); // [0,100)
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram");
        for v in 0..100 {
            h.record(v as f64);
        }
        assert_eq!(h.quantile(0.0), 0.0, "q=0 is the exact observed min");
        assert_eq!(h.quantile(0.5), 50.0);
        assert_eq!(h.quantile(0.99), 99.0, "clamped to observed max");
        assert_eq!(h.quantile(1.0), 99.0);
        h.record(-5.0); // underflow resolves to min
        assert_eq!(h.quantile(0.0), -5.0);
        h.record(1e6); // overflow resolves to max
        assert_eq!(h.quantile(1.0), 1e6);
    }

    #[test]
    fn quantile_edge_cases() {
        // Empty: every quantile is 0, including the extremes.
        let empty = Hist::new(0.0, 1.0, 4);
        assert_eq!(empty.quantile(0.0), 0.0);
        assert_eq!(empty.quantile(1.0), 0.0);

        // All mass in the overflow bin: every quantile is between min
        // and max of the overflowed samples, extremes exact.
        let mut over = Hist::new(0.0, 1.0, 2); // [0,2)
        for v in [10.0, 20.0, 30.0] {
            over.record(v);
        }
        assert_eq!(over.counts, vec![0, 0]);
        assert_eq!(over.overflow, 3);
        assert_eq!(over.quantile(0.0), 10.0);
        assert_eq!(over.quantile(0.5), 30.0, "cumulative walk lands in overflow -> max");
        assert_eq!(over.quantile(1.0), 30.0);

        // Extremes are exact even when the interior is bucket-quantized.
        let mut h = Hist::new(0.0, 50.0, 2);
        h.record(3.0);
        h.record(7.0);
        assert_eq!(h.quantile(0.0), 3.0, "not the 50.0 bucket edge");
        assert_eq!(h.quantile(1.0), 7.0, "not the bucket edge either");
        // Out-of-range q clamps to the extremes.
        assert_eq!(h.quantile(-0.5), 3.0);
        assert_eq!(h.quantile(1.5), 7.0);
    }

    #[test]
    fn explicit_lane_spans_land_in_the_ring_and_stream() {
        let c = Collector::enabled();
        c.record_span("pdes/p0", "pdes/window", 100, 50, &[("events", Json::U64(9))]);
        let recs = c.recent_spans();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].lane.as_deref(), Some("pdes/p0"));
        assert_eq!(recs[0].start_us, 100);
        assert_eq!(recs[0].dur_us, 50);
        assert!(recs[0].id > 0);
        assert_eq!(c.snapshot().spans["pdes/window"].count, 1);
        let events = c.drain_events();
        assert!(events.iter().any(|e| e.contains("\"lane\":\"pdes/p0\"")), "{events:?}");
    }

    #[test]
    fn recent_events_do_not_consume() {
        let c = Collector::enabled();
        c.event("probe", &[("n", Json::U64(1))]);
        assert_eq!(c.recent_events().len(), 1);
        assert_eq!(c.recent_events().len(), 1, "peeking is repeatable");
        assert_eq!(c.drain_events().len(), 1, "sink still holds the line");
    }

    #[test]
    fn flight_dump_writes_ring_and_snapshot() {
        let dir = std::env::temp_dir().join(format!("hrviz-flight-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = Collector::enabled();
        assert_eq!(c.flight_dump("no dir yet").expect("dump"), None);
        c.set_flight_dir(&dir);
        c.counter_add("pdes/watchdog_trips", 1);
        c.event("watchdog_trip", &[("events", Json::U64(7))]);
        let path = c.flight_dump("watchdog").expect("dump").expect("dir configured");
        let text = std::fs::read_to_string(&path).expect("dump file");
        assert!(path.file_name().is_some_and(|n| n.to_string_lossy().contains("watchdog")));
        assert!(text.contains("\"kind\":\"flight_dump\""), "{text}");
        assert!(text.contains("\"kind\":\"watchdog_trip\""), "{text}");
        assert!(text.lines().last().is_some_and(|l| l.contains("\"kind\":\"snapshot\"")), "{text}");
        assert_eq!(c.counter("obs/flight_dumps"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finalize_emits_final_snapshot_and_flushes() {
        let c = Collector::enabled();
        c.counter_add("a", 2);
        c.finalize().expect("finalize");
        let events = c.drain_events();
        let last = events.last().expect("finalize emitted");
        assert!(last.contains("\"kind\":\"snapshot\""), "{last}");
        assert!(last.contains("\"final\":true"), "{last}");
        assert!(last.contains("\"a\":2"), "{last}");
    }

    #[test]
    fn disabled_collector_new_surfaces_are_inert() {
        let c = Collector::disabled();
        assert_eq!(c.now_us(), None);
        assert_eq!(c.current_span_id(), None);
        c.record_span("l", "x", 0, 1, &[]);
        assert!(c.recent_spans().is_empty());
        assert!(c.recent_events().is_empty());
        c.set_flight_dir(Path::new("/nonexistent"));
        assert_eq!(c.flight_dump("r").expect("noop"), None);
        c.finalize().expect("noop");
    }

    #[test]
    fn unconfigured_histogram_gets_default() {
        let c = Collector::enabled();
        c.hist_record("vc", 3.0);
        let h = &c.snapshot().hists["vc"];
        assert_eq!(h.counts.len(), 64);
        assert_eq!(h.counts[3], 1);
    }

    #[test]
    fn spans_aggregate_and_emit() {
        let c = Collector::enabled();
        {
            let _s = c.span("sim/run");
            let _t = c.span("sim/router_phase");
        }
        let snap = c.snapshot();
        assert_eq!(snap.spans["sim/run"].count, 1);
        assert_eq!(snap.spans["sim/router_phase"].count, 1);
        let events = c.drain_events();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.contains("\"kind\":\"span\"")));
        assert!(events.iter().any(|e| e.contains("\"label\":\"sim/run\"")));
    }

    #[test]
    fn log_respects_threshold() {
        let c = Collector::enabled();
        c.set_level(LogLevel::Warn);
        c.log(LogLevel::Info, "dropped");
        c.log(LogLevel::Error, "kept");
        let events = c.drain_events();
        assert_eq!(events.len(), 1);
        assert!(events[0].contains("kept"));
    }

    #[test]
    fn log_level_parses() {
        assert_eq!(LogLevel::parse("DEBUG"), Some(LogLevel::Debug));
        assert_eq!(LogLevel::parse("warning"), Some(LogLevel::Warn));
        assert_eq!(LogLevel::parse("bogus"), None);
        assert_eq!(LogLevel::Trace.as_str(), "trace");
    }

    #[test]
    fn snapshot_renders_json() {
        let c = Collector::enabled();
        c.counter_add("a", 1);
        c.gauge_set("b", 0.5);
        c.hist_record("h", 1.0);
        drop(c.span("s"));
        let json = c.snapshot().to_json().render();
        assert!(json.contains("\"counters\":{\"a\":1}"));
        assert!(json.contains("\"gauges\":{\"b\":0.5}"));
        assert!(json.contains("\"spans\":{\"s\":"));
    }
}
