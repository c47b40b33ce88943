//! `explore`: two closed-loop keep-alive clients against an in-process
//! server over a prebuilt 12-run store. Sessions take their runs in a
//! seeded cyclic order, so 12 runs overflow the server's 8-entry dataset
//! cache and every session's cold request loads from disk.

use std::time::{Duration, Instant};

use hrviz_network::HrvizError;
use hrviz_sweep::{RunState, RunStore, SweepEngine};

use crate::http::Client;
use crate::layers::{self, Counters, Inputs};
use crate::session::{replay_visits, sessions, start, Ctx, Recorder, Running, Until};
use crate::sim::{explore_grid, replay};
use crate::trace::{Profile, Tracer};
use crate::util::{fresh_dir, median, Checks, Rng};
use crate::{set_up, Args, Output, Pass};

const CLIENTS: usize = 2;
const SERVER_WORKERS: usize = 2;
const GRID_RUNS: usize = 12;

struct Env {
    store: RunStore,
    server: Running,
    /// Run ids in the seeded order sessions cycle through.
    order: Vec<String>,
    sweep_s: f64,
}

fn set_up_one(args: &Args, i: usize, checks: &Checks, out: &mut Output) -> Result<Env, HrvizError> {
    let store = RunStore::open(fresh_dir(&args.work.join(format!("store{i}"))))?;
    let engine = SweepEngine::new(store.clone()).with_workers(2);
    let t = Instant::now();
    let outcome = engine.run(&explore_grid(args.grid_seed(0)))?;
    let sweep_s = t.elapsed().as_secs_f64();
    checks.op(outcome.store_misses == GRID_RUNS, || {
        format!("prebuild simulated {} of {GRID_RUNS} runs", outcome.store_misses)
    });
    if i == 0 {
        for id in &outcome.run_ids {
            let m = store.load_manifest(id)?;
            checks.op(m.state == RunState::Completed, || format!("run {id} is {:?}", m.state));
            out.run_line(id, m.events_processed, &m.columns_checksum);
        }
    }
    let server = start(store.clone(), SERVER_WORKERS)?;
    let mut c = Client::new(server.addr);
    for path in ["/healthz", "/runs"] {
        if !c.request("GET", path, &[], b"").is_ok_and(|r| r.status == 200) {
            return Err(HrvizError::config(format!("server warm-up: {path} did not answer 200")));
        }
    }
    let mut order = outcome.run_ids.clone();
    Rng::derive(args.seed, "order", 0).shuffle(&mut order);
    Ok(Env { store, server, order, sweep_s })
}

/// Both clients run sessions `first..` until `seconds` have passed.
/// Returns the pass and the next unused session number.
fn pass(args: &Args, env: &Env, seconds: f64, first: u64, ctx: &Ctx) -> (Pass, u64) {
    let t0 = Instant::now();
    let until = Until::Deadline(t0 + Duration::from_secs_f64(seconds));
    let (samples, next) =
        sessions(env.server.addr, &env.order, args.seed, first, CLIENTS, until, ctx);
    let pass = Pass { sweep_s: vec![env.sweep_s], samples, busy_s: t0.elapsed().as_secs_f64() };
    (pass, next)
}

pub fn run(args: &Args, checks: &Checks, out: &mut Output) -> Result<(), HrvizError> {
    let reps = if args.trace { 1 } else { 3 };
    let mut sweeps = Vec::new();
    let (env, setup) = set_up(
        reps,
        |i| {
            let env = set_up_one(args, i, checks, out)?;
            sweeps.push(env.sweep_s);
            Ok(env)
        },
        |old| {
            old.server.stop()?;
            let _ = std::fs::remove_dir_all(old.store.root());
            Ok(())
        },
    )?;
    out.setup = setup;
    let mut ctx = Ctx { checks, store: &env.store, rec: None };
    if !args.trace {
        out.pass = pass(args, &env, args.seconds, 0, &ctx).0;
        out.pass.sweep_s = sweeps;
        env.server.stop()?;
        return Ok(());
    }

    let (mut untraced, next) = pass(args, &env, args.seconds / 2.0, 0, &ctx);
    untraced.sweep_s = sweeps;
    hrviz_obs::install(hrviz_obs::Collector::enabled());
    let tr = Tracer::new(true);
    let rec = Recorder::new(&tr);
    ctx.rec = Some(&rec);
    let before = Counters::read();
    let (traced, _) = pass(args, &env, args.seconds / 2.0, next, &ctx);
    let after = Counters::read();
    let report = env.server.stop()?;
    let mut inputs = Inputs::default();
    after.delta_into(&before, &mut inputs);
    inputs.shed = report.shed;
    inputs.rtt_304 = traced.samples.rtt_304.clone();
    replay_visits(rec, &env.store, checks, &mut inputs);

    // The engine runs only in set-up here; replay two prebuilt runs layer
    // by layer, which must reproduce their stored checksums.
    let rstore = RunStore::open(fresh_dir(&args.work.join("replay")))?;
    for cfg in explore_grid(args.grid_seed(0)).expand()?.iter().take(2) {
        let id = cfg.run_id();
        let Some(r) = checks.ok(replay(cfg, &rstore, &tr, None), "replay") else { continue };
        let stored = env.store.load_manifest(&id)?.columns_checksum;
        checks.op(r.checksum == stored, || format!("replay: {id} checksum differs"));
        inputs.events += r.events;
        inputs.peak_queue_depth = inputs.peak_queue_depth.max(r.peak_queue_depth);
        inputs.saved_bytes.push(r.saved_bytes as f64);
    }
    inputs.trace_overhead_pct =
        layers::overhead_pct(median(&untraced.samples.cold), median(&traced.samples.cold));
    let profile = Profile::new(tr.spans());
    out.layers = layers::metrics(&profile, &inputs);
    out.self_times = profile.by_name();
    layers::require(
        checks,
        &out.layers,
        &[
            "sweep.load_ms",
            "core.parse_ms",
            "core.dataset_ms",
            "core.view_ms",
            "core.graph_ms",
            "core.envelope_ms",
            "render.svg_ms",
            "serve.rtt_304_ms",
        ],
    );
    let _ = tr.write_jsonl(&args.work.with_extension("spans.jsonl"));
    out.pass = untraced;
    out.traced = Some(traced);
    Ok(())
}
