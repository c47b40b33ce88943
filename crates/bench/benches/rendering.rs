//! Criterion benchmarks of SVG rendering: the radial projection view and
//! the detail-view charts at realistic entity counts.

use criterion::{criterion_group, criterion_main, Criterion};
use hrviz_core::{
    build_view, DataSet, DetailView, EntityKind, Field, LevelSpec, ProjectionSpec, RibbonSpec,
};
use hrviz_network::{
    DragonflyConfig, MsgInjection, NetworkSpec, RoutingAlgorithm, Simulation, TerminalId,
};
use hrviz_pdes::SimTime;
use hrviz_render::{render_link_scatter, render_parallel_coords, render_radial, RadialLayout};

fn dataset() -> DataSet {
    let spec = NetworkSpec::new(DragonflyConfig::try_paper_scale(2_550).expect("paper scale"))
        .with_routing(RoutingAlgorithm::adaptive_default());
    let mut sim = Simulation::new(spec);
    for src in 0..2_550u32 {
        sim.inject(MsgInjection {
            time: SimTime::ZERO,
            src: TerminalId(src),
            dst: TerminalId((src + 997) % 2_550),
            bytes: 8192,
            job: 0,
        });
    }
    DataSet::builder(&sim.try_run().expect("simulation completes")).build()
}

fn bench_render(c: &mut Criterion) {
    let ds = dataset();
    let spec = ProjectionSpec::new(vec![
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
    .ribbons(RibbonSpec::new(EntityKind::LocalLink));
    let view = build_view(&ds, &spec).unwrap();
    let detail = DetailView::new(&ds);

    let mut g = c.benchmark_group("render");
    g.bench_function("radial_2550t_individual_terminals", |b| {
        b.iter(|| render_radial(&view, &RadialLayout::default(), "bench"))
    });
    g.bench_function("link_scatter_25k_links", |b| {
        b.iter(|| render_link_scatter(&detail.local_links, 360.0, 240.0, "bench"))
    });
    g.bench_function("parallel_coords_2550_lines", |b| {
        b.iter(|| render_parallel_coords(&detail, 640.0, 300.0, "bench"))
    });
    g.finish();
}

criterion_group!(benches, bench_render);
criterion_main!(benches);
