//! Criterion microbenchmarks of the simulation substrate: event-engine
//! throughput and packet-level network simulation rate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hrviz_network::{
    DragonflyConfig, MsgInjection, NetworkSpec, RoutingAlgorithm, Simulation, TerminalId,
};
use hrviz_pdes::{Ctx, Engine, Lp, LpId, SimTime};
use rand::{rngs::StdRng, Rng, SeedableRng};

struct PholdLp {
    n: u32,
    state: u64,
}

#[derive(Clone)]
struct Ball {
    hops: u32,
}

impl Lp<Ball> for PholdLp {
    fn on_event(&mut self, ctx: &mut Ctx<'_, Ball>, b: Ball) {
        self.state = self.state.wrapping_mul(6364136223846793005).wrapping_add(1);
        if b.hops > 0 {
            let dst = LpId((self.state >> 33) as u32 % self.n);
            ctx.send(dst, SimTime(10 + (self.state % 90)), Ball { hops: b.hops - 1 });
        }
    }
}

fn bench_pdes(c: &mut Criterion) {
    let mut g = c.benchmark_group("pdes");
    for &lps in &[64u32, 1024] {
        g.throughput(Throughput::Elements(16 * 1000));
        g.bench_with_input(BenchmarkId::new("phold_seq", lps), &lps, |b, &n| {
            b.iter(|| {
                let pop = (0..n).map(|i| PholdLp { n, state: i as u64 + 1 }).collect();
                let mut eng = Engine::new(pop, SimTime(10));
                for s in 0..16 {
                    eng.schedule(SimTime(s), LpId((s % n as u64) as u32), Ball { hops: 1000 });
                }
                eng.try_run_to_completion().expect("phold drains");
                eng.stats().events_processed
            })
        });
    }
    g.finish();
}

fn uniform_sim(msgs: u64) -> Simulation {
    let spec = NetworkSpec::new(DragonflyConfig::canonical(3)) // 342 terminals
        .with_routing(RoutingAlgorithm::adaptive_default());
    let mut sim = Simulation::new(spec);
    let mut rng = StdRng::seed_from_u64(7);
    for src in 0..342u32 {
        for k in 0..msgs {
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

fn bench_network(c: &mut Criterion) {
    let mut g = c.benchmark_group("network");
    g.sample_size(10);
    g.bench_function("uniform_342t_seq", |b| {
        b.iter(|| uniform_sim(8).try_run().expect("simulation completes").events_processed)
    });
    for routing in [
        RoutingAlgorithm::Minimal,
        RoutingAlgorithm::NonMinimal,
        RoutingAlgorithm::adaptive_default(),
        RoutingAlgorithm::par_default(),
    ] {
        g.bench_with_input(BenchmarkId::new("routing", routing.name()), &routing, |b, &routing| {
            b.iter(|| {
                let spec = NetworkSpec::new(DragonflyConfig::canonical(3)).with_routing(routing);
                let mut sim = Simulation::new(spec);
                for src in 0..342u32 {
                    sim.inject(MsgInjection {
                        time: SimTime::ZERO,
                        src: TerminalId(src),
                        dst: TerminalId((src + 171) % 342),
                        bytes: 16 * 1024,
                        job: 0,
                    });
                }
                sim.try_run().expect("simulation completes").events_processed
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_pdes, bench_network);
criterion_main!(benches);
