//! The workloads' sweep grids, and the traced replay of one grid point
//! through the simulator crates' public functions.

use hrviz_core::DataSet;
use hrviz_fattree::{FatTreeConfig, FatTreeSim, UpRouting};
use hrviz_network::{
    HrvizError, JobMeta, NetworkSpec, RoutingAlgorithm, Simulation, SliceControl, StreamedOutcome,
    TerminalId,
};
use hrviz_pdes::{EngineStats, SimTime};
use hrviz_stream::SliceWriter;
use hrviz_sweep::{dragonfly_of, RunConfig, RunResult, RunStore, SweepSpec, TopologyAxis};
use hrviz_workloads::{generate_synthetic, SyntheticConfig, TrafficPattern};

use crate::trace::Tracer;

/// The paper's smallest Dragonfly scale.
pub const TERMINALS: u32 = 2550;
/// Fat-Tree radix of the `live` workload (1024 hosts).
pub const FATTREE_K: u32 = 16;
/// Slice window of the streamed `live` sweeps.
pub const SLICE_WINDOW: SimTime = SimTime::micros(5);

/// The CLI's message shape: 16 KiB messages every 4 µs.
fn cli_shape(spec: SweepSpec, msgs: u32) -> SweepSpec {
    spec.msgs_per_rank(msgs).msg_bytes(16 * 1024).period(SimTime::micros(4))
}

/// `sweep`: 2550-terminal Dragonfly, {minimal, adaptive} ×
/// {uniform-random, tornado}, CLI message shape.
pub fn sweep_grid(grid_seed: u64) -> SweepSpec {
    cli_shape(
        SweepSpec::new("perfbench-sweep", TopologyAxis::Dragonfly { terminals: TERMINALS }),
        16,
    )
    .routings([RoutingAlgorithm::Minimal, RoutingAlgorithm::adaptive_default()])
    .patterns([TrafficPattern::UniformRandom, TrafficPattern::Tornado])
    .seeds([grid_seed])
}

/// `sweep`'s warm-up: the same grid at two messages per rank, so every
/// config pages in its model and both workers run (about a second).
pub fn warmup_grid(grid_seed: u64) -> SweepSpec {
    sweep_grid(grid_seed).msgs_per_rank(2)
}

/// `explore`: the 12-run routing × pattern store over the same
/// Dragonfly. Four messages per rank keep the repeated set-up short; the
/// column files, which hold per-entity counters, keep their size.
pub fn explore_grid(grid_seed: u64) -> SweepSpec {
    cli_shape(
        SweepSpec::new("perfbench-explore", TopologyAxis::Dragonfly { terminals: TERMINALS }),
        4,
    )
    .routings([
        RoutingAlgorithm::Minimal,
        RoutingAlgorithm::NonMinimal,
        RoutingAlgorithm::adaptive_default(),
        RoutingAlgorithm::par_default(),
    ])
    .patterns([
        TrafficPattern::UniformRandom,
        TrafficPattern::Tornado,
        TrafficPattern::NearestNeighbor,
    ])
    .seeds([grid_seed])
}

/// `live`: a streamed Fat-Tree k=16 grid, {minimal, adaptive} ×
/// {uniform-random, tornado}.
pub fn live_grid(grid_seed: u64) -> SweepSpec {
    cli_shape(SweepSpec::new("perfbench-live", TopologyAxis::FatTree { k: FATTREE_K }), 16)
        .routings([RoutingAlgorithm::Minimal, RoutingAlgorithm::adaptive_default()])
        .patterns([TrafficPattern::UniformRandom, TrafficPattern::Tornado])
        .seeds([grid_seed])
}

/// `live`: the completed runs the reader client queries during the
/// measured window.
pub fn history_grid(grid_seed: u64) -> SweepSpec {
    cli_shape(SweepSpec::new("perfbench-history", TopologyAxis::FatTree { k: FATTREE_K }), 16)
        .routings([RoutingAlgorithm::Minimal, RoutingAlgorithm::adaptive_default()])
        .patterns([TrafficPattern::UniformRandom])
        .seeds([grid_seed])
}

/// What one replayed grid point produced.
pub struct Replayed {
    pub events: u64,
    pub peak_queue_depth: u64,
    pub checksum: String,
    pub slices: u64,
    pub saved_bytes: u64,
}

fn synthetic(cfg: &RunConfig) -> SyntheticConfig {
    SyntheticConfig {
        pattern: cfg.pattern,
        msg_bytes: cfg.msg_bytes,
        msgs_per_rank: cfg.msgs_per_rank,
        period: cfg.period,
        stride: 1,
        seed: cfg.seed,
    }
}

fn whole_machine(cfg: &RunConfig, hosts: u32) -> JobMeta {
    JobMeta { name: cfg.pattern.name().into(), terminals: (0..hosts).map(TerminalId).collect() }
}

/// Replay one healthy, whole-machine grid point layer by layer into
/// `store`: build the model, generate and inject the workload, run the
/// engine (streamed into slice files when `window` is set), extract the
/// analytics tables, and save. Every step is a span under one
/// `replay.run` root tagged with the run id.
pub fn replay(
    cfg: &RunConfig,
    store: &RunStore,
    tr: &Tracer,
    window: Option<SimTime>,
) -> Result<Replayed, HrvizError> {
    let id = cfg.run_id();
    let root = tr.open("replay.run", None, &id);
    let p = root.id();
    let (result, slices) = match cfg.topology {
        TopologyAxis::Dragonfly { terminals } => {
            let build = tr.open("network.build", p, &id);
            let dcfg = dragonfly_of(terminals)?;
            let spec = NetworkSpec::new(dcfg).with_routing(cfg.routing).with_seed(cfg.seed);
            let mut sim = Simulation::try_new(spec)?.with_collector(hrviz_obs::get());
            let meta = whole_machine(cfg, dcfg.num_terminals());
            let job = sim.add_job(meta.clone());
            let msgs = tr.time("workloads.gen", build.id(), &id, || {
                generate_synthetic(job, &meta, &synthetic(cfg))
            });
            sim.inject_all(msgs);
            tr.end(build);
            let run = tr.time("pdes.run", p, &id, || sim.try_run())?;
            let dataset = tr.time("network.extract", p, &id, || DataSet::builder(&run).build());
            let result = RunResult {
                dataset,
                stats: EngineStats {
                    events_processed: run.events_processed,
                    events_scheduled: run.events_scheduled,
                    end_time: run.end_time,
                    peak_queue_depth: run.peak_queue_depth,
                },
                delivered: run.total_delivered(),
                injected: run.total_injected(),
                dropped: run.total_dropped(),
                rerouted: run.total_rerouted(),
            };
            (result, 0)
        }
        TopologyAxis::FatTree { k } => {
            let build = tr.open("fattree.build", p, &id);
            let fcfg = FatTreeConfig::try_new(k)?;
            let routing = match cfg.routing {
                RoutingAlgorithm::Minimal | RoutingAlgorithm::NonMinimal => UpRouting::Ecmp,
                _ => UpRouting::Adaptive,
            };
            let mut sim = FatTreeSim::new(fcfg, routing);
            let meta = whole_machine(cfg, fcfg.num_hosts());
            let job = sim.add_job(meta.clone());
            let msgs = tr.time("workloads.gen", build.id(), &id, || {
                generate_synthetic(job, &meta, &synthetic(cfg))
            });
            sim.inject_all(msgs);
            tr.end(build);
            let (run, slices) = match window {
                None => (tr.time("pdes.run", p, &id, || sim.try_run())?, 0),
                Some(window) => {
                    let mut writer = SliceWriter::create(
                        &store.run_dir(&id),
                        &id,
                        window.as_nanos(),
                        hrviz_obs::get(),
                    )?;
                    let engine = tr.open("pdes.run", p, &id);
                    let e = engine.id();
                    let mut sink = |slice: &hrviz_network::Slice| {
                        tr.time("stream.seal", e, &id, || writer.seal(slice))?;
                        Ok(SliceControl::Continue)
                    };
                    let outcome = sim.try_run_streamed(window, &mut sink)?;
                    tr.end(engine);
                    let StreamedOutcome::Completed(run) = outcome else {
                        return Err(HrvizError::config("replayed run aborted without a policy"));
                    };
                    let slices = writer.sealed();
                    tr.time("stream.seal", p, &id, || writer.finish("completed"))?;
                    (run, slices)
                }
            };
            let dataset = tr.time("fattree.extract", p, &id, || run.to_dataset());
            let result = RunResult {
                dataset,
                stats: EngineStats {
                    events_processed: run.events_processed,
                    events_scheduled: 0,
                    end_time: run.end_time,
                    peak_queue_depth: 0,
                },
                delivered: run.delivered_bytes(),
                injected: run.injected_bytes(),
                dropped: run.dropped_packets(),
                rerouted: run.rerouted_packets(),
            };
            (result, slices)
        }
    };
    let dir = tr.time("sweep.save", p, &id, || store.save(cfg, &result))?;
    tr.end(root);
    Ok(Replayed {
        events: result.stats.events_processed,
        peak_queue_depth: result.stats.peak_queue_depth,
        checksum: store.load_manifest(&id)?.columns_checksum,
        slices,
        saved_bytes: crate::util::run_bytes(&dir),
    })
}
