//! Ablation benches for the design choices DESIGN.md calls out. These are
//! *measurement* benches: each configuration runs a fixed adversarial
//! workload and Criterion reports the simulation cost, while the printed
//! metrics (saturation, latency) expose the modelled sensitivity:
//!
//! * VC buffer capacity → saturation-time sensitivity of the congestion
//!   model,
//! * UGAL threshold → the adaptive/minimal crossover,
//! * `maxBins` → aggregation cost vs view size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hrviz_core::{bin_items, group_rows, DataSet, EntityKind, Field};
use hrviz_network::{
    DragonflyConfig, LinkClass, MsgInjection, NetworkSpec, RoutingAlgorithm, RunData, Simulation,
    TerminalId,
};
use hrviz_pdes::SimTime;

fn tornado_sim(mut spec: NetworkSpec) -> Simulation {
    spec = spec.with_seed(11);
    let n = spec.topology.num_terminals();
    let mut sim = Simulation::new(spec);
    for src in 0..n {
        for k in 0..6u64 {
            sim.inject(MsgInjection {
                time: SimTime(k * 2_000),
                src: TerminalId(src),
                dst: TerminalId((src + n / 2) % n),
                bytes: 16 * 1024,
                job: 0,
            });
        }
    }
    sim
}

fn run_tornado(spec: NetworkSpec) -> RunData {
    tornado_sim(spec).try_run().expect("simulation completes")
}

fn bench_buffer_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_vc_buffer");
    g.sample_size(10);
    for &kb in &[4u32, 16, 64] {
        g.bench_with_input(BenchmarkId::from_parameter(kb), &kb, |b, &kb| {
            b.iter(|| {
                let mut spec = NetworkSpec::new(DragonflyConfig::canonical(3));
                spec.vc_buffer_bytes = kb * 1024;
                spec.routing = RoutingAlgorithm::Minimal;
                run_tornado(spec).class_sat_ns(LinkClass::Local)
            })
        });
    }
    // Print the modelled sensitivity once.
    for &kb in &[4u32, 16, 64] {
        let mut spec = NetworkSpec::new(DragonflyConfig::canonical(3));
        spec.vc_buffer_bytes = kb * 1024;
        spec.routing = RoutingAlgorithm::Minimal;
        let run = run_tornado(spec);
        println!(
            "  vc_buffer={kb}KB  local_sat={}ns  end={}",
            run.class_sat_ns(LinkClass::Local),
            run.end_time
        );
    }
    g.finish();
}

fn bench_ugal_threshold(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_ugal_threshold");
    g.sample_size(10);
    for &t in &[0u64, 2_048, 65_536, u64::MAX / 2] {
        g.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, &t| {
            b.iter(|| {
                let spec = NetworkSpec::new(DragonflyConfig::canonical(3))
                    .with_routing(RoutingAlgorithm::Adaptive { threshold: t });
                run_tornado(spec).class_traffic(LinkClass::Global)
            })
        });
    }
    for &t in &[0u64, 2_048, 65_536, u64::MAX / 2] {
        let spec = NetworkSpec::new(DragonflyConfig::canonical(3))
            .with_routing(RoutingAlgorithm::Adaptive { threshold: t });
        let run = run_tornado(spec);
        println!(
            "  ugal_threshold={t}  global_traffic={}  local_sat={}ns",
            run.class_traffic(LinkClass::Global),
            run.class_sat_ns(LinkClass::Local)
        );
    }
    g.finish();
}

fn bench_maxbins(c: &mut Criterion) {
    let spec = NetworkSpec::new(DragonflyConfig::try_paper_scale(2_550).expect("paper scale"))
        .with_routing(RoutingAlgorithm::adaptive_default());
    let mut sim = Simulation::new(spec);
    for src in 0..2_550u32 {
        sim.inject(MsgInjection {
            time: SimTime::ZERO,
            src: TerminalId(src),
            dst: TerminalId((src + 1) % 2_550),
            bytes: 8192,
            job: 0,
        });
    }
    let ds = DataSet::builder(&sim.try_run().expect("simulation completes")).build();
    let items = group_rows(&ds, EntityKind::GlobalLink, &[Field::RouterId, Field::RouterPort]);
    let mut g = c.benchmark_group("ablation_maxbins");
    for &bins in &[4usize, 16, 64, 256] {
        g.bench_with_input(BenchmarkId::from_parameter(bins), &bins, |b, &bins| {
            b.iter(|| {
                bin_items(&ds, EntityKind::GlobalLink, items.clone(), Field::Traffic, bins).len()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_buffer_sweep, bench_ugal_threshold, bench_maxbins);
criterion_main!(benches);
