//! `live`: streamed Fat-Tree sweeps (1 worker, a slice every 5 µs) with
//! two readers beside them: an SSE watcher following each run's stream
//! to its end, and a closed-loop client querying the completed runs of
//! an earlier sweep (views, revisits, listings, progress polls).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use hrviz_network::HrvizError;
use hrviz_stream::read_slices;
use hrviz_sweep::{RunState, RunStore, StreamOptions, SweepEngine, SweepOptions, SweepSpec};

use crate::http::{watch, Client, SseEvent};
use crate::layers::{self, Counters, Inputs};
use crate::scripts::session;
use crate::session::{replay_visits, send, start, view_session, Ctx, Recorder, Running, Samples};
use crate::sim::{history_grid, live_grid, replay, SLICE_WINDOW};
use crate::trace::{Profile, Tracer};
use crate::util::{fresh_dir, median, Checks, Rng};
use crate::{set_up, Args, Output, Pass};

const SERVER_WORKERS: usize = 2;

fn streamed() -> SweepOptions {
    SweepOptions {
        stream: Some(StreamOptions { window: SLICE_WINDOW, abort: None }),
        ..SweepOptions::default()
    }
}

struct Env {
    store: RunStore,
    engine: SweepEngine,
    server: Running,
    /// Completed runs the reader queries.
    history: Vec<String>,
}

fn set_up_one(args: &Args, i: usize) -> Result<Env, HrvizError> {
    let store = RunStore::open(fresh_dir(&args.work.join(format!("store{i}"))))?;
    let engine = SweepEngine::new(store.clone()).with_workers(1);
    let history = engine.run_with(&history_grid(args.grid_seed(0)), &streamed())?.run_ids;
    let server = start(store.clone(), SERVER_WORKERS)?;
    let mut c = Client::new(server.addr);
    for path in ["/healthz", "/runs?state=completed"] {
        if !c.request("GET", path, &[], b"").is_ok_and(|r| r.status == 200) {
            return Err(HrvizError::config(format!("server warm-up: {path} did not answer 200")));
        }
    }
    Ok(Env { store, engine, server, history })
}

/// Follow every run of a sweep, in grid order, to its `end` event. A run
/// the sweep has not started yet answers 404; the watcher retries it.
fn follow(
    addr: std::net::SocketAddr,
    runs: &[String],
    checks: &Checks,
) -> Vec<(String, Vec<SseEvent>)> {
    let mut out = Vec::new();
    for run in runs {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match watch(addr, run) {
                Ok((200, events)) => {
                    out.push((run.clone(), events));
                    break;
                }
                Ok((404, _)) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                other => {
                    let what = match other {
                        Ok((status, _)) => format!("status {status}"),
                        Err(e) => e.to_string(),
                    };
                    checks.op(false, || format!("watch {run}: {what}"));
                    break;
                }
            }
        }
    }
    out
}

/// Every slice on disk must reach the watcher exactly once, in order
/// and byte-identical, followed by exactly one `end`. Returns the frame
/// count.
fn check_stream(store: &RunStore, run: &str, events: &[SseEvent], checks: &Checks) -> u64 {
    let Some(slices) = checks.ok(read_slices(&store.run_dir(run), 0), "read_slices") else {
        return 0;
    };
    let expected: Vec<SseEvent> =
        slices.iter().map(|s| SseEvent { event: "slice".into(), data: s.to_json() }).collect();
    let n = expected.len();
    checks.op(events.len() == n + 1 && events[..n] == expected[..], || {
        format!("stream {run}: {} events for {n} slices on disk, or a frame differs", events.len())
    });
    checks.op(events.last().is_some_and(|e| e.event == "end"), || {
        format!("stream {run}: last event is not `end`")
    });
    events.len() as u64
}

/// The reader: sessions against the completed history runs until `stop`.
fn read_loop(args: &Args, env: &Env, first: u64, stop: &AtomicBool, ctx: &Ctx) -> Samples {
    let mut c = Client::new(env.server.addr);
    let mut s = Samples::default();
    let mut rng = Rng::derive(args.seed, "reader", first);
    for k in first.. {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let mut sess = session(args.seed ^ 0x11fe, k);
        sess.runs = 1;
        let run = rng.pick(&env.history).clone();
        let tag = format!("l{k}");
        view_session(&mut c, &sess, std::slice::from_ref(&run), &tag, ctx, &mut s);
        let listing = format!("/runs?state={}", rng.pick(&["completed", "running"]));
        send(&mut c, ctx, &mut s, false, "GET", &listing, &[], b"", &tag);
        let poll = format!("/runs/{run}/progress?since=0&wait_ms=100");
        if let Some(r) = send(&mut c, ctx, &mut s, false, "GET", &poll, &[], b"", &tag) {
            let terminal = String::from_utf8_lossy(&r.body).contains("\"completed\"");
            ctx.checks.op(terminal, || format!("{poll}: completed run not reported completed"));
        }
    }
    s
}

/// A run of a live sweep: id, columns checksum, sealed slices.
type LiveRun = (String, String, u64);

struct LivePass {
    pass: Pass,
    frames: u64,
    sweeps: Vec<(SweepSpec, Vec<LiveRun>)>,
}

/// Streamed sweeps (grid seeds `first..`) beside both readers until
/// `seconds` have passed.
fn pass(
    args: &Args,
    env: &Env,
    seconds: f64,
    first: u64,
    tr: &Tracer,
    ctx: &Ctx,
    out: &mut Output,
) -> LivePass {
    let checks = ctx.checks;
    let stop = AtomicBool::new(false);
    let mut lp = LivePass { pass: Pass::default(), frames: 0, sweeps: Vec::new() };
    let t0 = Instant::now();
    let reader = std::thread::scope(|sc| {
        let reader = sc.spawn(|| read_loop(args, env, first * 100_000, &stop, ctx));
        for i in first.. {
            let spec = live_grid(args.grid_seed(1000 + i));
            let Some(configs) = checks.ok(spec.expand(), "expand") else { break };
            let ids: Vec<String> = configs.iter().map(|c| c.run_id()).collect();
            let watched = ids.clone();
            let watcher = sc.spawn(move || follow(env.server.addr, &watched, checks));
            let span = tr.open("sweep.run", None, &spec.name);
            let outcome = env.engine.run_with(&spec, &streamed());
            let secs = tr.end(span);
            let streams = watcher.join().expect("watcher thread");
            let Some(outcome) = checks.ok(outcome, "live sweep") else { break };
            lp.pass.sweep_s.push(secs);
            checks.op(outcome.store_misses == ids.len() && outcome.aborted == 0, || {
                format!("live sweep simulated {} of {}", outcome.store_misses, ids.len())
            });
            for (run, events) in &streams {
                lp.frames += check_stream(&env.store, run, events, checks);
            }
            let mut runs = Vec::new();
            for id in &ids {
                let Some(m) = checks.ok(env.store.load_manifest(id), "manifest") else { continue };
                checks.op(m.state == RunState::Completed, || format!("run {id} is {:?}", m.state));
                out.run_line(id, m.events_processed, &m.columns_checksum);
                let sealed = hrviz_stream::read_progress(&env.store.run_dir(id))
                    .ok()
                    .flatten()
                    .map_or(0, |p| p.sealed);
                runs.push((id.clone(), m.columns_checksum, sealed));
            }
            lp.sweeps.push((spec, runs));
            if t0.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().expect("reader thread")
    });
    lp.pass.busy_s = t0.elapsed().as_secs_f64();
    lp.pass.samples = reader;
    lp
}

pub fn run(args: &Args, checks: &Checks, out: &mut Output) -> Result<(), HrvizError> {
    let reps = if args.trace { 1 } else { 3 };
    let (env, setup) = set_up(
        reps,
        |i| set_up_one(args, i),
        |old| {
            old.server.stop()?;
            let _ = std::fs::remove_dir_all(old.store.root());
            Ok(())
        },
    )?;
    out.setup = setup;
    let off = Tracer::new(false);
    let mut ctx = Ctx { checks, store: &env.store, rec: None };
    if !args.trace {
        out.pass = pass(args, &env, args.seconds, 0, &off, &ctx, out).pass;
        env.server.stop()?;
        return Ok(());
    }

    let untraced = pass(args, &env, args.seconds / 2.0, 0, &off, &ctx, out);
    hrviz_obs::install(hrviz_obs::Collector::enabled());
    let tr = Tracer::new(true);
    let rec = Recorder::new(&tr);
    ctx.rec = Some(&rec);
    let before = Counters::read();
    let next = untraced.sweeps.len() as u64;
    let traced = pass(args, &env, args.seconds / 2.0, next, &tr, &ctx, out);
    let after = Counters::read();
    let report = env.server.stop()?;
    let mut inputs = Inputs::default();
    after.delta_into(&before, &mut inputs);
    inputs.shed = report.shed;
    inputs.rtt_304 = traced.pass.samples.rtt_304.clone();
    replay_visits(rec, &env.store, checks, &mut inputs);

    // Replay the first live grid layer by layer, next to a 1-worker
    // streamed sweep of the same grid with no readers beside it.
    let Some((spec, expected)) = untraced.sweeps.first().cloned() else {
        return Err(HrvizError::config("no live sweep completed"));
    };
    let solo =
        SweepEngine::new(RunStore::open(fresh_dir(&args.work.join("solo")))?).with_workers(1);
    let t = Instant::now();
    solo.run_with(&spec, &streamed())?;
    let solo_s = t.elapsed().as_secs_f64();
    let rstore = RunStore::open(fresh_dir(&args.work.join("replay")))?;
    for (cfg, (id, checksum, sealed)) in spec.expand()?.iter().zip(&expected) {
        let Some(r) = checks.ok(replay(cfg, &rstore, &tr, Some(SLICE_WINDOW)), "replay") else {
            continue;
        };
        checks.op(&r.checksum == checksum && r.slices == *sealed, || {
            format!("replay: {id} checksum or slice count differs")
        });
        inputs.events += r.events;
        inputs.slices += r.slices;
        inputs.saved_bytes.push(r.saved_bytes as f64);
    }
    let profile = Profile::new(tr.spans());
    let layer_s: f64 =
        profile.named("replay.run").map(|s| s.dur_ns() as f64 / 1e9 - profile.self_s(s)).sum();
    inputs.driver_ms = (solo_s - layer_s) * 1e3;
    inputs.sse_frames = traced.frames;
    inputs.trace_overhead_pct =
        layers::overhead_pct(median(&untraced.pass.sweep_s), median(&traced.pass.sweep_s));
    out.layers = layers::metrics(&profile, &inputs);
    out.self_times = profile.by_name();
    layers::require(
        checks,
        &out.layers,
        &[
            "pdes.run_s",
            "pdes.events",
            "workloads.gen_ms",
            "fattree.build_ms",
            "fattree.extract_ms",
            "sweep.save_ms",
            "stream.seal_ms",
            "stream.slices",
            "serve.sse_frames",
        ],
    );
    let _ = tr.write_jsonl(&args.work.with_extension("spans.jsonl"));
    out.pass = untraced.pass;
    out.traced = Some(traced.pass);
    Ok(())
}
