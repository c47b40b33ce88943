//! Criterion benchmarks of the analytics core: dataset extraction,
//! hierarchical grouping, binned aggregation, script parsing, and full
//! projection-view builds — the operations behind every interactive
//! refresh of the paper's UI.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hrviz_core::{
    bin_items, build_view, group_rows, parse_script, DataSet, EntityKind, Field, LevelSpec,
    ProjectionSpec, RibbonSpec, FIG5A_SCRIPT, FIG5B_SCRIPT,
};
use hrviz_network::{
    DragonflyConfig, MsgInjection, NetworkSpec, RoutingAlgorithm, RunData, Simulation, TerminalId,
};
use hrviz_pdes::SimTime;

fn sample_run() -> RunData {
    let spec = NetworkSpec::new(DragonflyConfig::try_paper_scale(2_550).expect("paper scale"))
        .with_routing(RoutingAlgorithm::adaptive_default());
    let mut sim = Simulation::new(spec);
    for src in 0..2_550u32 {
        sim.inject(MsgInjection {
            time: SimTime::ZERO,
            src: TerminalId(src),
            dst: TerminalId((src + 1275) % 2_550),
            bytes: 8192,
            job: 0,
        });
    }
    sim.try_run().expect("simulation completes")
}

fn spec() -> ProjectionSpec {
    ProjectionSpec::new(vec![
        LevelSpec::new(EntityKind::LocalLink).aggregate(&[Field::RouterRank]).color(Field::SatTime),
        LevelSpec::new(EntityKind::GlobalLink)
            .aggregate(&[Field::RouterRank, Field::RouterPort])
            .color(Field::SatTime)
            .size(Field::Traffic),
        LevelSpec::new(EntityKind::Terminal)
            .color(Field::SatTime)
            .size(Field::DataSize)
            .x(Field::AvgHops)
            .y(Field::AvgLatency),
    ])
    .ribbons(RibbonSpec::new(EntityKind::LocalLink))
}

fn bench_analytics(c: &mut Criterion) {
    let run = sample_run();
    let ds = DataSet::builder(&run).build();
    let mut g = c.benchmark_group("analytics");

    g.bench_function("dataset_from_run_2550t", |b| b.iter(|| DataSet::builder(&run).build()));

    g.throughput(Throughput::Elements(ds.len(EntityKind::LocalLink) as u64));
    g.bench_function("group_local_links_by_rank", |b| {
        b.iter(|| group_rows(&ds, EntityKind::LocalLink, &[Field::RouterRank]))
    });

    let items = group_rows(&ds, EntityKind::GlobalLink, &[Field::RouterId, Field::RouterPort]);
    for &bins in &[8usize, 64] {
        g.bench_with_input(BenchmarkId::new("bin_global_links", bins), &bins, |b, &bins| {
            b.iter(|| bin_items(&ds, EntityKind::GlobalLink, items.clone(), Field::Traffic, bins))
        });
    }

    g.bench_function("build_projection_view", |b| b.iter(|| build_view(&ds, &spec()).unwrap()));

    g.bench_function("parse_fig5_scripts", |b| {
        b.iter(|| (parse_script(FIG5A_SCRIPT).unwrap(), parse_script(FIG5B_SCRIPT).unwrap()))
    });

    g.finish();
}

criterion_group!(benches, bench_analytics);
criterion_main!(benches);
