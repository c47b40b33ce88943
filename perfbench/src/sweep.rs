//! `sweep`: cold batch sweeps of the 2550-terminal Dragonfly grid into a
//! growing store, each followed by a review of the fresh runs over HTTP
//! (the analyst's first look), in `explore`'s session mix. `sweep_s`
//! times the `SweepEngine::run` call alone.

use std::collections::BTreeMap;
use std::time::Instant;

use hrviz_network::HrvizError;
use hrviz_sweep::{RunState, RunStore, SweepEngine};

use crate::http::Client;
use crate::layers::{self, Counters, Inputs};
use crate::session::{replay_visits, sessions, start, Ctx, Recorder, Running, Until};
use crate::sim::{replay, sweep_grid, warmup_grid};
use crate::trace::{Profile, Tracer};
use crate::util::{fresh_dir, Checks};
use crate::{set_up, Args, Output, Pass};

/// Sweep workers, as on the CLI grid the baseline was taken with.
const WORKERS: usize = 2;
/// Review after each sweep: `explore`'s sessions and clients, over the
/// four fresh runs. 200 sessions give `view_p90_ms` two full blocks of
/// 100 cold samples per sweep (see `util::tail`).
const REVIEW_SESSIONS: u64 = 200;
const REVIEW_CLIENTS: usize = 2;

struct Env {
    store: RunStore,
    engine: SweepEngine,
    server: Running,
}

fn set_up_one(args: &Args, i: usize) -> Result<Env, HrvizError> {
    let store = RunStore::open(fresh_dir(&args.work.join(format!("store{i}"))))?;
    // Warm-up: the measured grid at two messages per rank, in a scratch
    // store, pages in the model and the worker pool.
    let warm = RunStore::open(fresh_dir(&args.work.join(format!("warm{i}"))))?;
    SweepEngine::new(warm).with_workers(WORKERS).run(&warmup_grid(args.grid_seed(u64::MAX)))?;
    let server = start(store.clone(), 2)?;
    let health = Client::new(server.addr).request("GET", "/healthz", &[], b"");
    if !health.as_ref().is_ok_and(|r| r.status == 200) {
        return Err(HrvizError::config("server warm-up: /healthz did not answer 200"));
    }
    let engine = SweepEngine::new(store.clone()).with_workers(WORKERS);
    Ok(Env { store, engine, server })
}

/// Cold sweeps (grid seeds `first..`) until `seconds` have passed, each
/// followed by the review sessions. Returns the pass and, per grid, the
/// run ids with their columns checksums.
fn pass(
    args: &Args,
    env: &Env,
    seconds: f64,
    first: u64,
    tr: &Tracer,
    ctx: &Ctx,
    out: &mut Output,
) -> (Pass, Vec<BTreeMap<String, String>>) {
    let checks = ctx.checks;
    let mut p = Pass::default();
    let mut grids = Vec::new();
    let t0 = Instant::now();
    for i in first.. {
        let spec = sweep_grid(args.grid_seed(i));
        let span = tr.open("sweep.run", None, &spec.name);
        let outcome = env.engine.run(&spec);
        let secs = tr.end(span);
        let Some(outcome) = checks.ok(outcome, "sweep") else { break };
        p.sweep_s.push(secs);
        checks.op(outcome.store_misses == 4 && outcome.aborted == 0, || {
            format!("sweep simulated {} of 4 configs", outcome.store_misses)
        });
        let mut sums = BTreeMap::new();
        for id in &outcome.run_ids {
            let Some(m) = checks.ok(env.store.load_manifest(id), "manifest") else { continue };
            checks.op(m.state == RunState::Completed, || format!("run {id} is {:?}", m.state));
            out.run_line(id, m.events_processed, &m.columns_checksum);
            sums.insert(id.clone(), m.columns_checksum);
        }
        grids.push(sums);

        let review = Instant::now();
        let from = i * REVIEW_SESSIONS;
        let until = Until::Session(from + REVIEW_SESSIONS);
        let addr = env.server.addr;
        let (s, _) = sessions(addr, &outcome.run_ids, args.seed, from, REVIEW_CLIENTS, until, ctx);
        p.samples.merge(s);
        p.busy_s += review.elapsed().as_secs_f64();
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    (p, grids)
}

pub fn run(args: &Args, checks: &Checks, out: &mut Output) -> Result<(), HrvizError> {
    let reps = if args.trace { 1 } else { 3 };
    let (env, setup) = set_up(reps, |i| set_up_one(args, i), |old| old.server.stop().map(drop))?;
    out.setup = setup;
    let off = Tracer::new(false);
    let mut ctx = Ctx { checks, store: &env.store, rec: None };
    if !args.trace {
        out.pass = pass(args, &env, args.seconds, 0, &off, &ctx, out).0;
        env.server.stop()?;
        return Ok(());
    }

    let (untraced, grids) = pass(args, &env, args.seconds / 2.0, 0, &off, &ctx, out);
    hrviz_obs::install(hrviz_obs::Collector::enabled());
    let tr = Tracer::new(true);
    let rec = Recorder::new(&tr);
    ctx.rec = Some(&rec);
    let before = Counters::read();
    let next = untraced.sweep_s.len() as u64;
    let (traced, _) = pass(args, &env, args.seconds / 2.0, next, &tr, &ctx, out);
    let after = Counters::read();
    let report = env.server.stop()?;
    let mut inputs = Inputs::default();
    after.delta_into(&before, &mut inputs);
    inputs.shed = report.shed;
    inputs.rtt_304 = traced.samples.rtt_304.clone();
    replay_visits(rec, &env.store, checks, &mut inputs);

    // Replay the first grid layer by layer, next to a 1-worker sweep of
    // the same grid; both must reproduce the untraced checksums.
    let spec = sweep_grid(args.grid_seed(0));
    let expected = grids.first().cloned().unwrap_or_default();
    let serial =
        SweepEngine::new(RunStore::open(fresh_dir(&args.work.join("serial")))?).with_workers(1);
    let t = Instant::now();
    let serial_out = serial.run(&spec)?;
    let serial_s = t.elapsed().as_secs_f64();
    for id in &serial_out.run_ids {
        let got = serial.store().load_manifest(id)?.columns_checksum;
        checks.op(expected.get(id) == Some(&got), || {
            format!("1-worker sweep: {id} checksum differs")
        });
    }
    let rstore = RunStore::open(fresh_dir(&args.work.join("replay")))?;
    for cfg in spec.expand()? {
        let id = cfg.run_id();
        let Some(r) = checks.ok(replay(&cfg, &rstore, &tr, None), "replay") else { continue };
        checks.op(expected.get(&id) == Some(&r.checksum), || {
            format!("replay: {id} checksum differs")
        });
        inputs.events += r.events;
        inputs.peak_queue_depth = inputs.peak_queue_depth.max(r.peak_queue_depth);
        inputs.saved_bytes.push(r.saved_bytes as f64);
    }
    let profile = Profile::new(tr.spans());
    let layer_s: f64 =
        profile.named("replay.run").map(|s| s.dur_ns() as f64 / 1e9 - profile.self_s(s)).sum();
    inputs.driver_ms = (serial_s - layer_s) * 1e3;
    inputs.trace_overhead_pct = layers::overhead_pct(
        crate::util::median(&untraced.sweep_s),
        crate::util::median(&traced.sweep_s),
    );
    out.layers = layers::metrics(&profile, &inputs);
    out.self_times = profile.by_name();
    layers::require(
        checks,
        &out.layers,
        &[
            "pdes.run_s",
            "pdes.events",
            "workloads.gen_ms",
            "network.build_ms",
            "network.extract_ms",
            "sweep.save_ms",
        ],
    );
    let _ = tr.write_jsonl(&args.work.with_extension("spans.jsonl"));
    out.pass = untraced;
    out.traced = Some(traced);
    Ok(())
}
