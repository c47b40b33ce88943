//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions: name, start, end, parent, and the run
//! or request id they belong to. They stay in memory and are written out
//! as JSON lines when the run ends. A layer's self time is its span's
//! duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct SpanRec {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Run or request id.
    pub tag: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; a disabled tracer records nothing and
/// costs one branch per span.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

/// An open span; recorded when [`Tracer::end`] is called.
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    tag: String,
    start: Instant,
}

impl Open {
    /// This span's id, for children to name as their parent (`None` when
    /// the tracer is disabled).
    pub fn id(&self) -> Option<u64> {
        (self.id != 0).then_some(self.id)
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn open(&self, name: &'static str, parent: Option<u64>, tag: &str) -> Open {
        let id = if self.enabled { self.next.fetch_add(1, Ordering::Relaxed) } else { 0 };
        let tag = if self.enabled { tag.to_string() } else { String::new() };
        Open { id, parent, name, tag, start: Instant::now() }
    }

    /// Close `span`, returning its duration in seconds (measured whether
    /// or not the tracer records).
    pub fn end(&self, span: Open) -> f64 {
        let end = Instant::now();
        let secs = end.duration_since(span.start).as_secs_f64();
        if self.enabled {
            let rec = SpanRec {
                id: span.id,
                parent: span.parent,
                name: span.name,
                tag: span.tag,
                start_ns: span.start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            };
            self.spans.lock().expect("span buffer poisoned").push(rec);
        }
        secs
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        tag: &str,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, parent, tag);
        let out = f();
        self.end(span);
        out
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Write every recorded span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.tag,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, in seconds, keyed by span id.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<u64, f64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = child_ns.get(&s.id).copied().unwrap_or(0);
            (s.id, s.dur_ns().saturating_sub(covered) as f64 / 1e9)
        })
        .collect()
}

/// The recorded spans with their self times, for computing layer metrics.
pub struct Profile {
    pub spans: Vec<SpanRec>,
    selfs: BTreeMap<u64, f64>,
}

impl Profile {
    pub fn new(spans: Vec<SpanRec>) -> Profile {
        let selfs = self_times(&spans);
        Profile { spans, selfs }
    }

    pub fn self_s(&self, span: &SpanRec) -> f64 {
        self.selfs.get(&span.id).copied().unwrap_or(0.0)
    }

    /// Self seconds of every span called `name`.
    pub fn self_of(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| self.self_s(s)).collect()
    }

    /// Spans called `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRec> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Per span name: (calls, summed self seconds), for the self-time table.
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, f64)> {
        let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += self.self_s(s);
        }
        out
    }
}
