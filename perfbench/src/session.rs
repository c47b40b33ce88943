//! The in-process server, the explore-style view session every HTTP
//! workload runs, and the in-process replay of a traced pass.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use hrviz_core::{
    build_view_cached, compare_views_cached, AggregateCache, DataKey, DataSet, ProjectionGraph,
    ProjectionView, ViewRequest,
};
use hrviz_network::HrvizError;
use hrviz_obs::Json;
use hrviz_render::{render_radial, render_radial_row, RadialLayout};
use hrviz_serve::{ServeConfig, ServeReport, Server, ServerHandle};
use hrviz_sweep::RunStore;

use crate::http::{Client, Reply};
use crate::layers::Inputs;
use crate::scripts::{session, Session, PAGE_SIZE};
use crate::trace::Tracer;
use crate::util::{run_bytes, Checks};

/// A bound, serving `hrviz-serve` instance.
pub struct Running {
    pub addr: SocketAddr,
    handle: ServerHandle,
    thread: JoinHandle<Result<ServeReport, HrvizError>>,
}

pub fn start(store: RunStore, workers: usize) -> Result<Running, HrvizError> {
    let cfg = ServeConfig { addr: "127.0.0.1:0".into(), workers, ..ServeConfig::default() };
    let server = Server::bind(cfg, store)?;
    let addr = server.local_addr()?;
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.serve());
    Ok(Running { addr, handle, thread })
}

impl Running {
    /// Stop accepting, drain, and join the accept loop.
    pub fn stop(self) -> Result<ServeReport, HrvizError> {
        self.handle.shutdown();
        self.thread.join().map_err(|_| HrvizError::config("serve thread panicked"))?
    }
}

/// Latency samples (seconds) and counts gathered by one client.
#[derive(Default)]
pub struct Samples {
    /// First, cold request of each session.
    pub cold: Vec<f64>,
    /// Pages, revisits, 304s, listings and progress polls.
    pub warm: Vec<f64>,
    pub rtt_304: Vec<f64>,
    pub requests: u64,
}

impl Samples {
    pub fn merge(&mut self, o: Samples) {
        self.cold.extend(o.cold);
        self.warm.extend(o.warm);
        self.rtt_304.extend(o.rtt_304);
        self.requests += o.requests;
    }
}

/// What a session needs beside its client.
pub struct Ctx<'a> {
    pub checks: &'a Checks,
    /// The served store. Its generation decides whether a changed ETag
    /// or a stale cursor (`409`) is a correct answer: only when a sweep
    /// moved the generation in between.
    pub store: &'a RunStore,
    /// Traced pass only.
    pub rec: Option<&'a Recorder<'a>>,
}

/// The traced pass: one `http.request` span per request, and every cold
/// request kept for the in-process replay that runs after the pass, so
/// the replay never competes with the measured requests.
pub struct Recorder<'a> {
    tracer: &'a Tracer,
    visits: Mutex<Vec<Visit>>,
}

impl<'a> Recorder<'a> {
    pub fn new(tracer: &'a Tracer) -> Recorder<'a> {
        Recorder { tracer, visits: Mutex::default() }
    }

    fn visits(self) -> Vec<Visit> {
        self.visits.into_inner().expect("visit log poisoned")
    }
}

/// One session's cold request, as the replay needs it.
pub struct Visit {
    sent: Instant,
    tag: String,
    params: BTreeMap<String, String>,
    script: String,
    svg: bool,
    rtt: f64,
    /// Store generation when the request was sent: the replay keys its
    /// dataset and aggregate caches by it, as the server does.
    generation: u64,
    /// Offset of each page of the walk; the server's `total_nodes`.
    pages: Vec<usize>,
    total: Option<u64>,
}

/// One request, recorded as cold or warm, whatever its status.
/// Transport errors count as failed operations.
#[allow(clippy::too_many_arguments)]
fn exchange(
    c: &mut Client,
    ctx: &Ctx,
    s: &mut Samples,
    cold: bool,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
    tag: &str,
) -> Option<Reply> {
    let span = ctx.rec.map(|r| r.tracer.open("http.request", None, tag));
    let r = c.request(method, path, headers, body);
    if let (Some(rec), Some(span)) = (ctx.rec, span) {
        rec.tracer.end(span);
    }
    let r = match r {
        Ok(r) => r,
        Err(e) => {
            ctx.checks.op(false, || format!("{method} {path}: {e}"));
            return None;
        }
    };
    s.requests += 1;
    if cold {
        s.cold.push(r.rtt);
    } else {
        s.warm.push(r.rtt);
    }
    if r.status == 304 {
        s.rtt_304.push(r.rtt);
    }
    Some(r)
}

/// One request that must answer 2xx or 304.
#[allow(clippy::too_many_arguments)]
pub fn send(
    c: &mut Client,
    ctx: &Ctx,
    s: &mut Samples,
    cold: bool,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
    tag: &str,
) -> Option<Reply> {
    let r = exchange(c, ctx, s, cold, method, path, headers, body, tag)?;
    ctx.checks.op(r.ok(), || format!("{method} {path} -> {}", r.status)).then_some(r)
}

/// The request path and query parameters naming `runs`.
pub fn target(runs: &[String]) -> (String, BTreeMap<String, String>) {
    let mut params = BTreeMap::new();
    if let [run] = runs {
        params.insert("run".to_string(), run.clone());
        (format!("/views?run={run}"), params)
    } else {
        params.insert("runs".to_string(), runs.join(","));
        (format!("/compare?runs={}", runs.join(",")), params)
    }
}

/// When a batch of sessions stops.
#[derive(Clone, Copy)]
pub enum Until {
    Deadline(Instant),
    /// Before this session number.
    Session(u64),
}

/// `clients` closed-loop keep-alive clients, one request in flight each,
/// run explore sessions `first..` until `until`. Each session takes the
/// next runs of `order`, cyclically. Returns the merged samples and the
/// next unused session number.
pub fn sessions(
    addr: SocketAddr,
    order: &[String],
    seed: u64,
    first: u64,
    clients: usize,
    until: Until,
    ctx: &Ctx,
) -> (Samples, u64) {
    let next = AtomicU64::new(first);
    let cursor = AtomicUsize::new(0);
    let all = Mutex::new(Samples::default());
    std::thread::scope(|sc| {
        for _ in 0..clients {
            sc.spawn(|| {
                let mut c = Client::new(addr);
                let mut s = Samples::default();
                loop {
                    if let Until::Deadline(d) = until {
                        if Instant::now() >= d {
                            break;
                        }
                    }
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if let Until::Session(end) = until {
                        if k >= end {
                            break;
                        }
                    }
                    let sess = session(seed, k);
                    let at = cursor.fetch_add(sess.runs, Ordering::Relaxed);
                    let runs: Vec<String> =
                        (0..sess.runs).map(|j| order[(at + j) % order.len()].clone()).collect();
                    view_session(&mut c, &sess, &runs, &format!("s{k}"), ctx, &mut s);
                }
                all.lock().expect("sample merge poisoned").merge(s);
            });
        }
    });
    let next = next.into_inner();
    (all.into_inner().expect("sample merge poisoned"), next)
}

/// Run one explore session against `runs`: the cold request (envelope
/// or SVG), the cursor walk of its pages, a plain revisit, and a
/// conditional revisit that must answer `304`.
pub fn view_session(
    c: &mut Client,
    sess: &Session,
    runs: &[String],
    tag: &str,
    ctx: &Ctx,
    s: &mut Samples,
) {
    let (mut path, mut params) = target(runs);
    let accept = if sess.svg { "image/svg+xml" } else { "application/json" };
    if !sess.svg {
        path.push_str(&format!("&page_size={}", PAGE_SIZE));
        params.insert("page_size".into(), PAGE_SIZE.to_string());
    }
    let body = sess.script.as_bytes();
    let generation = ctx.store.generation();
    let sent = Instant::now();
    let Some(first) = send(c, ctx, s, true, "POST", &path, &[("Accept", accept)], body, tag) else {
        return;
    };
    let mut visit = Visit {
        sent,
        tag: tag.to_string(),
        params,
        script: sess.script.clone(),
        svg: sess.svg,
        rtt: first.rtt,
        generation,
        pages: Vec::new(),
        total: None,
    };
    if sess.svg {
        let svg = first.body.starts_with(b"<svg");
        ctx.checks.op(svg, || format!("{path}: SVG reply is not an SVG"));
    } else {
        walk(c, sess, &path, first.body.clone(), tag, ctx, s, &mut visit);
    }
    send(c, ctx, s, false, "POST", &path, &[("Accept", accept)], body, tag);
    if let Some(rec) = ctx.rec {
        rec.visits.lock().expect("visit log poisoned").push(visit);
    }
    let Some(etag) = first.header("etag").map(str::to_string) else {
        ctx.checks.op(false, || format!("{path}: no ETag"));
        return;
    };
    let headers = [("Accept", accept), ("If-None-Match", etag.as_str())];
    if let Some(r) = send(c, ctx, s, false, "POST", &path, &headers, body, tag) {
        // A fresh 200 with a new ETag is right only when a sweep moved
        // the store generation since the cold request.
        let moved = r.status == 200
            && r.header("etag") != Some(etag.as_str())
            && ctx.store.generation() != generation;
        ctx.checks
            .op(r.status == 304 || moved, || format!("{path}: revisit answered {}", r.status));
    }
}

/// Walk every page of an envelope reply. Each envelope must be schema
/// 2, and the walk must cover `total_nodes` with no duplicate ids.
/// `visit` receives the final walk's page offsets and `total_nodes`.
#[allow(clippy::too_many_arguments)]
fn walk(
    c: &mut Client,
    sess: &Session,
    path: &str,
    mut body: Vec<u8>,
    tag: &str,
    ctx: &Ctx,
    s: &mut Samples,
    visit: &mut Visit,
) {
    let checks = ctx.checks;
    let mut generation = visit.generation;
    let mut ids = BTreeSet::new();
    let mut offset = 0usize;
    let mut restarts = 0;
    loop {
        let env = std::str::from_utf8(&body).map_err(|e| e.to_string()).and_then(Json::parse);
        let Some(env) = checks.ok(env, &format!("{path}: envelope JSON")) else { return };
        let schema = env.get("schema_version").and_then(Json::as_u64);
        if !checks.op(schema == Some(2), || format!("{path}: schema_version {schema:?}")) {
            return;
        }
        visit.total = visit.total.or(env.get("total_nodes").and_then(Json::as_u64));
        let nodes = env.get("nodes").and_then(Json::as_array).unwrap_or(&[]);
        let mut dup = false;
        for n in nodes {
            let id = n.get("id").and_then(Json::as_str).unwrap_or("").to_string();
            dup |= !ids.insert(id);
        }
        checks.op(!dup, || format!("{path}: duplicate node id at offset {offset}"));
        visit.pages.push(offset);
        offset += nodes.len();
        let Some(cursor) = env.get("next_cursor").and_then(Json::as_str) else { break };
        let next = format!("{path}&cursor={cursor}");
        let accept = [("Accept", "application/json")];
        let script = sess.script.as_bytes();
        let Some(r) = exchange(c, ctx, s, false, "POST", &next, &accept, script, tag) else {
            return;
        };
        let now = ctx.store.generation();
        if r.status == 409 && now != generation && restarts < 3 {
            // A sweep moved the store generation mid-walk and the cursor
            // went stale: restart from the first page, as the API asks.
            restarts += 1;
            generation = now;
            let Some(r) = send(c, ctx, s, false, "POST", path, &accept, script, tag) else {
                return;
            };
            (body, ids, offset) = (r.body, BTreeSet::new(), 0);
            (visit.pages, visit.total) = (Vec::new(), None);
            continue;
        }
        if !checks.op(r.ok(), || format!("POST {next} -> {}", r.status)) {
            return;
        }
        body = r.body;
    }
    let total = visit.total.unwrap_or(0);
    checks.op(ids.len() as u64 == total, || {
        format!("{path}: walk saw {} ids, total_nodes is {total}", ids.len())
    });
}

/// Rebuild every recorded cold request in-process, layer by layer, in
/// the order it was sent, with the page walk that followed it. Folds
/// into `i` each request's HTTP round trip minus its in-process layer
/// sum, the load share of each dataset miss, the aggregate cache's
/// hits, and the bytes loaded and rendered.
pub fn replay_visits(rec: Recorder, store: &RunStore, checks: &Checks, i: &mut Inputs) {
    let tracer = rec.tracer;
    let mut visits = rec.visits();
    visits.sort_by_key(|v| v.sent);
    let mut r = Replayer { store, tracer, agg: AggregateCache::new(), datasets: VecDeque::new() };
    for v in visits {
        let Some(out) = checks.ok(r.cold(&v, i), &format!("replay {}", v.tag)) else { continue };
        i.http_minus_layers.push(v.rtt - out.layers_s);
        if out.load_s > 0.0 {
            i.load_share.push(out.load_s / v.rtt);
        }
        let Some(graph) = out.graph else { continue };
        for &offset in v.pages.iter().filter(|&&o| o > 0) {
            let page = tracer.time("core.envelope", None, &v.tag, || {
                graph.page_to_json(offset, PAGE_SIZE, None).render()
            });
            i.envelope_bytes.push(page.len() as f64);
        }
        checks.op(v.total == Some(graph.len() as u64), || {
            format!("replay {}: built {} nodes, server {:?}", v.tag, graph.len(), v.total)
        });
    }
    // The replay's aggregate cache sees the same cold builds, in the same
    // order, as the server's.
    i.agg_hits = r.agg.hits();
    i.agg_misses = r.agg.misses();
}

struct Replayer<'a> {
    store: &'a RunStore,
    tracer: &'a Tracer,
    agg: AggregateCache,
    /// Decoded datasets keyed by `(run id, store generation)`, first in
    /// first out, like the server's cache.
    datasets: VecDeque<((String, u64), Arc<DataSet>)>,
}

/// The server's dataset cache capacity, mirrored so a replayed request
/// loads from disk exactly when the server's would.
const DATASET_CACHE_CAP: usize = 8;

/// What the in-process rebuild of a cold request produced.
struct Rebuilt {
    layers_s: f64,
    load_s: f64,
    graph: Option<ProjectionGraph>,
}

impl Replayer<'_> {
    fn timed<T>(&self, name: &'static str, tag: &str, total: &mut f64, f: impl FnOnce() -> T) -> T {
        let span = self.tracer.open(name, None, tag);
        let out = f();
        *total += self.tracer.end(span);
        out
    }

    /// Rebuild a cold `/views` or `/compare` request at the store
    /// generation it was sent at: parse, load and decode each run, build
    /// the views, then the graph and first envelope page, or the SVG.
    fn cold(&mut self, v: &Visit, i: &mut Inputs) -> Result<Rebuilt, String> {
        let (tag, generation) = (v.tag.as_str(), v.generation);
        let mut layers = 0.0;
        let compare = v.params.contains_key("runs");
        let vreq = self
            .timed("core.parse", tag, &mut layers, || {
                ViewRequest::parse(&v.params, &v.script, compare, true)
            })
            .map_err(|e| e.to_string())?;
        let mut datasets = Vec::new();
        let mut load_s = 0.0;
        for run in &vreq.runs {
            let key = (run.clone(), generation);
            let cached = self.datasets.iter().find(|(k, _)| *k == key).map(|(_, d)| d.clone());
            let ds = match cached {
                Some(ds) => ds,
                None => {
                    let stored =
                        self.timed("sweep.load", tag, &mut load_s, || self.store.load(run));
                    let stored = stored.map_err(|e| e.to_string())?;
                    i.loaded_bytes += run_bytes(&self.store.run_dir(run)) as f64;
                    let ds =
                        self.timed("core.dataset", tag, &mut layers, || stored.data.to_dataset());
                    let ds = Arc::new(ds);
                    self.datasets.push_back((key, ds.clone()));
                    if self.datasets.len() > DATASET_CACHE_CAP {
                        self.datasets.pop_front();
                    }
                    ds
                }
            };
            let hash = u64::from_str_radix(run, 16).map_err(|e| e.to_string())?;
            datasets.push((ds, DataKey { run: hash, generation }));
        }
        layers += load_s;
        let views: Vec<ProjectionView> = self
            .timed("core.view", tag, &mut layers, || {
                if let [(ds, key)] = datasets.as_slice() {
                    build_view_cached(ds, &vreq.spec, &self.agg, *key).map(|v| vec![v])
                } else {
                    let pairs: Vec<_> = datasets.iter().map(|(d, k)| (d.as_ref(), *k)).collect();
                    compare_views_cached(&pairs, &vreq.spec, &self.agg)
                }
            })
            .map_err(|e| e.to_string())?;
        let labeled: Vec<(&str, &ProjectionView)> =
            vreq.runs.iter().map(String::as_str).zip(&views).collect();
        if v.svg {
            let doc = self.timed("render.svg", tag, &mut layers, || match labeled.as_slice() {
                [(run, view)] => render_radial(view, &RadialLayout::default(), run),
                _ => {
                    let row: Vec<_> = labeled.iter().map(|(r, v)| (*v, *r)).collect();
                    render_radial_row(&row, &RadialLayout::default(), "comparison")
                }
            });
            i.svg_bytes.push(doc.len() as f64);
            return Ok(Rebuilt { layers_s: layers, load_s, graph: None });
        }
        let source = hrviz_obs::fingerprint64(&format!("{}|{}", vreq.runs.join(","), v.script));
        let graph = self.timed("core.graph", tag, &mut layers, || match labeled.as_slice() {
            [(_, view)] => ProjectionGraph::build(view, &vreq.policy, source),
            _ => ProjectionGraph::build_compare(&labeled, &vreq.policy, source),
        });
        let page = self.timed("core.envelope", tag, &mut layers, || {
            graph.page_to_json(0, vreq.page_size, None).render()
        });
        i.envelope_bytes.push(page.len() as f64);
        Ok(Rebuilt { layers_s: layers, load_s, graph: Some(graph) })
    }
}
