//! Chrome trace-event JSON export.
//!
//! Renders the collector's recent-span ring as the trace-event format
//! consumed by Perfetto and `chrome://tracing`: one `ph:"X"` (complete)
//! event per [`SpanRecord`], all under pid 1, with `"M"` metadata events
//! naming the process and every lane. Spans without an explicit lane land
//! on their thread's lane (named after the OS thread — e.g.
//! `hrviz-serve-0`); spans recorded with a lane (the engine, sweep runs)
//! get a synthetic tid starting at [`LANE_TID_BASE`] so the timeline reads
//! as one row per lane regardless of which rayon worker produced it.
//!
//! Span ids and parent ids ride along in `args` — they are telemetry
//! identifiers only and never influence simulation state.
//!
//! This module is inside hrviz-lint's panic-freedom scope.

use std::io;
use std::path::Path;

use crate::collector::Collector;
use crate::json::Json;
use crate::recorder::{thread_names, SpanRecord};

/// First tid used for named (non-thread) lanes.
pub const LANE_TID_BASE: u64 = 1000;

/// Render `records` as a trace-event JSON document.
///
/// `names` maps small thread ids to display names (see
/// [`crate::recorder::thread_names`]); unnamed threads fall back to
/// `thread-<tid>`.
pub fn chrome_trace(records: &[SpanRecord], names: &[(u64, String)]) -> Json {
    let mut events: Vec<Json> = Vec::with_capacity(records.len() + 8);
    events.push(Json::obj([
        ("name", Json::Str("process_name".into())),
        ("ph", Json::Str("M".into())),
        ("pid", Json::U64(1)),
        ("args", Json::obj([("name", Json::Str("hrviz".into()))])),
    ]));

    let mut lanes: Vec<String> = Vec::new();
    let mut thread_tids: Vec<u64> = Vec::new();
    for rec in records {
        let tid = match &rec.lane {
            Some(lane) => {
                let idx = match lanes.iter().position(|l| l == lane) {
                    Some(i) => i,
                    None => {
                        lanes.push(lane.clone());
                        lanes.len() - 1
                    }
                };
                LANE_TID_BASE + idx as u64
            }
            None => {
                if !thread_tids.contains(&rec.tid) {
                    thread_tids.push(rec.tid);
                }
                rec.tid
            }
        };
        events.push(complete_event(rec, tid));
    }

    for tid in &thread_tids {
        let name = names
            .iter()
            .find(|(t, _)| t == tid)
            .map(|(_, n)| n.clone())
            .unwrap_or_else(|| format!("thread-{tid}"));
        events.push(thread_meta(*tid, &name));
    }
    for (i, lane) in lanes.iter().enumerate() {
        events.push(thread_meta(LANE_TID_BASE + i as u64, lane));
    }

    Json::obj([("traceEvents", Json::Arr(events)), ("displayTimeUnit", Json::Str("ms".into()))])
}

/// Write the trace for `records` to `path`, creating parent directories.
pub fn write_chrome_trace(
    path: &Path,
    records: &[SpanRecord],
    names: &[(u64, String)],
) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut text = chrome_trace(records, names).render();
    text.push('\n');
    std::fs::write(path, text)
}

/// Export `collector`'s recent spans to `path`. Returns `false` (writing
/// nothing) when the collector is disabled.
pub fn export(collector: &Collector, path: &Path) -> io::Result<bool> {
    if !collector.is_enabled() {
        return Ok(false);
    }
    write_chrome_trace(path, &collector.recent_spans(), &thread_names())?;
    Ok(true)
}

fn complete_event(rec: &SpanRecord, tid: u64) -> Json {
    let mut args: Vec<(String, Json)> = Vec::with_capacity(rec.args.len() + 2);
    args.push(("id".into(), Json::U64(rec.id)));
    args.push(("parent".into(), Json::U64(rec.parent)));
    for (k, v) in &rec.args {
        args.push((k.clone(), v.clone()));
    }
    Json::obj([
        ("name", Json::Str(rec.label.clone())),
        ("cat", Json::Str(category(&rec.label).to_string())),
        ("ph", Json::Str("X".into())),
        ("ts", Json::U64(rec.start_us)),
        ("dur", Json::U64(rec.dur_us)),
        ("pid", Json::U64(1)),
        ("tid", Json::U64(tid)),
        ("args", Json::Obj(args)),
    ])
}

fn thread_meta(tid: u64, name: &str) -> Json {
    Json::obj([
        ("name", Json::Str("thread_name".into())),
        ("ph", Json::Str("M".into())),
        ("pid", Json::U64(1)),
        ("tid", Json::U64(tid)),
        ("args", Json::obj([("name", Json::Str(name.to_string()))])),
    ])
}

/// The label's top-level prefix (`serve/request` → `serve`).
fn category(label: &str) -> &str {
    label.split('/').next().unwrap_or(label)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, tid: u64, lane: Option<&str>, label: &str) -> SpanRecord {
        SpanRecord {
            id,
            parent: 0,
            tid,
            lane: lane.map(str::to_string),
            label: label.into(),
            start_us: 10 * id,
            dur_us: 5,
            args: Vec::new(),
        }
    }

    #[test]
    fn trace_is_valid_and_parseable() {
        let records = [
            rec(1, 1, None, "serve/request"),
            rec(2, 1, None, "core/project"),
            rec(3, 2, Some("pdes/p0"), "pdes/window"),
        ];
        let names = [(1, "hrviz-serve-0".to_string())];
        let doc = chrome_trace(&records, &names);
        let parsed = Json::parse(&doc.render()).expect("chrome trace parses");
        let events = parsed.get("traceEvents").and_then(Json::as_array).expect("traceEvents");
        // 1 process meta + 3 spans + 1 thread meta (both thread spans
        // share tid 1; the lane span does not add a thread) + 1 lane meta.
        assert_eq!(events.len(), 6);
    }

    #[test]
    fn lanes_get_synthetic_tids_and_names() {
        let records = [rec(1, 3, Some("sweep/abc"), "sweep/exec")];
        let doc = chrome_trace(&records, &[]).render();
        assert!(doc.contains(&format!("\"tid\":{LANE_TID_BASE}")), "{doc}");
        assert!(doc.contains("\"sweep/abc\""), "{doc}");
        assert!(doc.contains("\"thread_name\""), "{doc}");
    }

    #[test]
    fn thread_lanes_fall_back_to_generic_names() {
        let records = [rec(1, 42, None, "x/y")];
        let doc = chrome_trace(&records, &[]).render();
        assert!(doc.contains("thread-42"), "{doc}");
        assert!(doc.contains("\"cat\":\"x\""), "{doc}");
    }

    #[test]
    fn export_skips_disabled_collectors() {
        let path = std::env::temp_dir().join("hrviz-chrome-disabled.json");
        let wrote = export(&Collector::disabled(), &path).expect("export");
        assert!(!wrote);
    }
}
