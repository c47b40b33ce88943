//! Overhead of the telemetry layer on the simulator's hot path.
//!
//! Three variants of the same 342-terminal uniform-traffic run: no collector
//! wired at all (baseline), a *disabled* collector attached (the default for
//! production runs — budgeted at ≤2% over baseline, asserted by
//! `overhead_budget` in `crates/bench/tests/`), and a fully enabled
//! collector with an in-memory trace sink.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hrviz_network::{
    DragonflyConfig, MsgInjection, NetworkSpec, RoutingAlgorithm, Simulation, TerminalId,
};
use hrviz_obs::Collector;
use hrviz_pdes::SimTime;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn uniform_sim(collector: Option<Collector>) -> Simulation {
    let spec = NetworkSpec::new(DragonflyConfig::canonical(3)) // 342 terminals
        .with_routing(RoutingAlgorithm::adaptive_default());
    let mut sim = Simulation::new(spec);
    if let Some(c) = collector {
        sim = sim.with_collector(c);
    }
    let mut rng = StdRng::seed_from_u64(7);
    for src in 0..342u32 {
        for k in 0..8u64 {
            let dst = loop {
                let d = rng.gen_range(0..342);
                if d != src {
                    break d;
                }
            };
            sim.inject(MsgInjection {
                time: SimTime(k * 1000),
                src: TerminalId(src),
                dst: TerminalId(dst),
                bytes: 4096,
                job: 0,
            });
        }
    }
    sim
}

fn bench_obs_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs_overhead");
    g.sample_size(10);
    g.throughput(Throughput::Elements(342 * 8));
    g.bench_function("sim_no_collector", |b| {
        b.iter(|| uniform_sim(None).try_run().expect("simulation completes").events_processed)
    });
    g.bench_function("sim_disabled_collector", |b| {
        b.iter(|| {
            uniform_sim(Some(Collector::disabled()))
                .try_run()
                .expect("simulation completes")
                .events_processed
        })
    });
    g.bench_function("sim_enabled_collector", |b| {
        b.iter(|| {
            uniform_sim(Some(Collector::enabled()))
                .try_run()
                .expect("simulation completes")
                .events_processed
        })
    });
    g.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
