//! Byte-identity regression tests for the determinism contract the
//! hrviz-lint rules guard: the *same* configuration, run twice in the
//! same process, must produce byte-for-byte identical analytics tables
//! on both topology models. (The sweep crate proves parallel-vs-serial
//! identity; this covers plain repeated invocation, which is what every
//! comparison view in the paper implicitly assumes.)
//!
//! Two runs of the same code agreeing does not catch a refactor that
//! changes the bytes *consistently*, so every rendering is also pinned to
//! an FNV-1a fingerprint literal: batch, streamed (slice JSON + dataset)
//! and checkpoint-restored runs must reproduce the exact bytes the engine
//! has always produced. A deliberate model change updates the literals.

use hrviz::core::DataSet;
use hrviz::fattree::{FatTreeConfig, FatTreeSim, UpRouting};
use hrviz::network::{
    CheckpointOptions, DragonflyConfig, JobMeta, NetworkSpec, RoutingAlgorithm, Simulation, Slice,
    SliceControl, StreamedOutcome, TerminalId,
};
use hrviz::obs::fingerprint64;
use hrviz::pdes::SimTime;
use hrviz::workloads::{generate_synthetic, SyntheticConfig};

const SEED: u64 = 0xD15C0;
/// Slice window and checkpoint interval of the streamed and restored runs.
const WINDOW: SimTime = SimTime(2_000);

const DRAGONFLY_FP: u64 = 0x7720_538f_7176_732e;
const FATTREE_FP: u64 = 0xfebd_17d0_1298_6121;
const DRAGONFLY_STREAMED_FP: u64 = 0x6dbf_090a_ea37_f586;
const FATTREE_STREAMED_FP: u64 = 0xe406_9a60_0cd2_2fcb;

fn dragonfly_sim() -> Simulation {
    let cfg = DragonflyConfig::canonical(2); // 72 terminals
    let spec =
        NetworkSpec::new(cfg).with_routing(RoutingAlgorithm::adaptive_default()).with_seed(SEED);
    let mut sim = Simulation::new(spec);
    let terminals: Vec<_> = (0..cfg.num_terminals()).map(TerminalId).collect();
    let meta = JobMeta { name: "ur".into(), terminals };
    let job = sim.add_job(meta.clone());
    sim.inject_all(generate_synthetic(
        job,
        &meta,
        &SyntheticConfig::uniform(4 * 1024, 6, SimTime::micros(1)),
    ));
    sim
}

fn fattree_sim() -> FatTreeSim {
    let cfg = FatTreeConfig::try_new(4).expect("valid k"); // 16 hosts
    let mut sim = FatTreeSim::new(cfg, UpRouting::Adaptive);
    let terminals: Vec<_> = (0..cfg.num_hosts()).map(TerminalId).collect();
    let meta = JobMeta { name: "ur".into(), terminals };
    let job = sim.add_job(meta.clone());
    sim.inject_all(generate_synthetic(
        job,
        &meta,
        &SyntheticConfig::uniform(4 * 1024, 6, SimTime::micros(1)),
    ));
    sim
}

fn render_dragonfly(run: &hrviz::network::RunData) -> String {
    format!(
        "injected={} delivered={} dataset={:?}",
        run.total_injected(),
        run.total_delivered(),
        DataSet::builder(run).build()
    )
}

fn render_fattree(run: &hrviz::fattree::FatTreeRun) -> String {
    format!(
        "injected={} delivered={} dataset={:?}",
        run.injected_bytes(),
        run.delivered_bytes(),
        run.to_dataset()
    )
}

/// One full Dragonfly run rendered to bytes: the flattened dataset plus
/// the delivery counters anything downstream would consume.
fn dragonfly_bytes() -> String {
    render_dragonfly(&dragonfly_sim().try_run().expect("dragonfly run"))
}

/// One full Fat-Tree run rendered to bytes.
fn fattree_bytes() -> String {
    render_fattree(&fattree_sim().try_run().expect("fat-tree run"))
}

/// Every sealed slice's canonical JSON, one per line.
fn slice_lines(slices: &[Slice]) -> String {
    slices.iter().map(|s| s.to_json() + "\n").collect()
}

/// A streamed Dragonfly run: the slice stream followed by the dataset.
fn dragonfly_streamed_bytes() -> String {
    let mut slices = Vec::new();
    let outcome = dragonfly_sim()
        .try_run_streamed(WINDOW, &mut |s: &Slice| {
            slices.push(s.clone());
            Ok(SliceControl::Continue)
        })
        .expect("streamed dragonfly run");
    let StreamedOutcome::Completed(run) = outcome else { panic!("unexpected abort") };
    assert!(slices.len() >= 2, "want several windows, got {}", slices.len());
    slice_lines(&slices) + &render_dragonfly(&run)
}

/// A streamed Fat-Tree run: the slice stream followed by the dataset.
fn fattree_streamed_bytes() -> String {
    let mut slices = Vec::new();
    let outcome = fattree_sim()
        .try_run_streamed(WINDOW, &mut |s: &Slice| {
            slices.push(s.clone());
            Ok(SliceControl::Continue)
        })
        .expect("streamed fat-tree run");
    let StreamedOutcome::Completed(run) = outcome else { panic!("unexpected abort") };
    assert!(slices.len() >= 2, "want several windows, got {}", slices.len());
    slice_lines(&slices) + &render_fattree(&run)
}

/// A Dragonfly run checkpointed every window, then finished from its
/// middle checkpoint in a freshly built simulation.
fn dragonfly_restored_bytes() -> String {
    let mut snaps = Vec::new();
    dragonfly_sim()
        .try_run_checkpointed(
            CheckpointOptions { restore_from: None, every: Some(WINDOW) },
            &mut |_, bytes| {
                snaps.push(bytes.to_vec());
                Ok(())
            },
        )
        .expect("checkpointed run");
    assert!(snaps.len() >= 2, "want several checkpoints, got {}", snaps.len());
    let mid = &snaps[snaps.len() / 2];
    let run = dragonfly_sim()
        .try_run_checkpointed(
            CheckpointOptions { restore_from: Some(mid), every: None },
            &mut |_, _| Ok(()),
        )
        .expect("restored run");
    render_dragonfly(&run)
}

/// Assert `bytes` still fingerprints to the pinned literal.
fn assert_pinned(what: &str, bytes: &str, pinned: u64) {
    let fp = fingerprint64(bytes);
    assert!(fp == pinned, "{what} bytes changed: fingerprint {fp:#018x}, pinned {pinned:#018x}");
}

#[test]
fn dragonfly_runs_are_byte_identical() {
    let (a, b) = (dragonfly_bytes(), dragonfly_bytes());
    assert!(a == b, "two dragonfly runs of the same config diverged");
    assert!(a.contains("delivered="), "sanity: run produced output");
}

#[test]
fn fattree_runs_are_byte_identical() {
    let (a, b) = (fattree_bytes(), fattree_bytes());
    assert!(a == b, "two fat-tree runs of the same config diverged");
    assert!(a.contains("delivered="), "sanity: run produced output");
}

#[test]
fn dragonfly_bytes_are_pinned() {
    assert_pinned("dragonfly", &dragonfly_bytes(), DRAGONFLY_FP);
}

#[test]
fn fattree_bytes_are_pinned() {
    assert_pinned("fat-tree", &fattree_bytes(), FATTREE_FP);
}

#[test]
fn streamed_dragonfly_bytes_are_pinned() {
    assert_pinned("streamed dragonfly", &dragonfly_streamed_bytes(), DRAGONFLY_STREAMED_FP);
}

#[test]
fn streamed_fattree_bytes_are_pinned() {
    assert_pinned("streamed fat-tree", &fattree_streamed_bytes(), FATTREE_STREAMED_FP);
}

#[test]
fn restored_dragonfly_run_reproduces_the_pinned_bytes() {
    let restored = dragonfly_restored_bytes();
    assert!(restored == dragonfly_bytes(), "restore from a mid-run checkpoint diverged");
    assert_pinned("restored dragonfly", &restored, DRAGONFLY_FP);
}
