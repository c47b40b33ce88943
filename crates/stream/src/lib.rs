//! # hrviz-stream — live run telemetry for in-flight sweeps
//!
//! The batch pipeline (simulate → store → query) answers questions about
//! *finished* runs; the paper's workflow explores large sweep grids where
//! most of the value is in watching configs converge or saturate while
//! they run. This crate is the shared substrate for that live path:
//!
//! * [`Slice`] — one virtual-time window of columnar deltas (delivered /
//!   injected packets and bytes, drops, a log₂ latency histogram, VC
//!   saturation time), emitted by the simulators at absolute window
//!   boundaries so interrupted and straight-through runs slice the same;
//! * [`Progress`] — the per-run watermark (`progress.json`): lifecycle
//!   state, number of sealed slices, virtual time reached;
//! * [`SliceWriter`] / [`read_slices`] / [`read_progress`] — crash-safe
//!   `slices/NNNN.jsonl` segment files inside a run directory, every seal
//!   an atomic rewrite (temp + fsync + rename, [`fsio::atomic_write`]),
//!   so a watcher never observes a torn segment or a watermark ahead of
//!   its data;
//! * [`AbortPolicy`] / [`AbortSpec`] — pluggable early-abort decisions
//!   over the slice stream (e.g. [`SaturationAbort`]: offered/delivered
//!   ratio below a threshold for K consecutive windows), letting a sweep
//!   cancel doomed configs mid-grid;
//! * [`StreamedOutcome`] — how a streamed simulation ended: completed
//!   with its payload, or aborted by policy at a known virtual time;
//! * [`run_sliced`] — the one slice observer both topologies stream
//!   through: it drives the engine's absolute virtual-time grid and seals
//!   a slice at every window edge.
//!
//! Everything here is deterministic integer math over the simulation's
//! own counters: two replays of the same seed produce byte-identical
//! slice files, which is what lets incremental aggregates downstream
//! (`hrviz_core`) promise byte-identity with a cold batch rebuild.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod abort;
pub mod cursor;
pub mod fsio;
pub mod slice;
pub mod writer;

use hrviz_pdes::{Engine, Lp, SimTime};
use std::num::NonZeroU64;
use std::ops::ControlFlow;

pub use abort::{AbortPolicy, AbortSpec, SaturationAbort};
pub use cursor::{CumulativeTotals, SliceCursor};
pub use hrviz_faults::HrvizError;
pub use slice::{Progress, Slice, LATENCY_BINS};
pub use writer::{read_progress, read_slices, SliceWriter, SLICES_PER_SEGMENT};

/// What a slice sink tells the simulator after each sealed window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SliceControl {
    /// Keep simulating.
    Continue,
    /// Stop now; the run is recorded as `aborted` with this reason.
    Abort(String),
}

/// Receives each sealed [`Slice`] during a streamed run and decides
/// whether to continue.
pub type SliceSink<'a> = &'a mut dyn FnMut(&Slice) -> Result<SliceControl, HrvizError>;

/// How a streamed simulation ended.
pub enum StreamedOutcome<T> {
    /// Ran to completion; the payload is the simulator's normal result.
    Completed(T),
    /// The sink asked to stop mid-run.
    Aborted {
        /// Policy-provided reason, recorded in the run manifest.
        reason: String,
        /// Virtual time at which the run stopped.
        at_ns: u64,
        /// Slices sealed before the abort.
        slices: u64,
    },
}

impl<T> StreamedOutcome<T> {
    /// The completed payload, if any.
    pub fn completed(self) -> Option<T> {
        match self {
            StreamedOutcome::Completed(t) => Some(t),
            StreamedOutcome::Aborted { .. } => None,
        }
    }
}

impl<T> StreamedOutcome<T> {
    /// Map the completed payload, keeping an abort as it is.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> StreamedOutcome<U> {
        match self {
            StreamedOutcome::Completed(t) => StreamedOutcome::Completed(f(t)),
            StreamedOutcome::Aborted { reason, at_ns, slices } => {
                StreamedOutcome::Aborted { reason, at_ns, slices }
            }
        }
    }
}

/// Run `engine` to `horizon`, sealing one [`Slice`] of counter deltas into
/// `sink` at every absolute multiple of `window`, plus a final partial
/// slice once the run has finished ([`Lp::on_finish`] and the drain audit
/// run first, so it sees post-finish counters). `totals` reads the
/// cumulative counters of `terminals` terminals from the live LPs.
///
/// The sink may abort the run at any slice. Slicing only reads LP state,
/// and the grid is the engine's absolute one: a completed streamed run is
/// bit-identical to a batch run, and its window edges are the boundaries a
/// checkpointed run of the same interval snapshots at.
pub fn run_sliced<P, L: Lp<P>>(
    engine: &mut Engine<P, L>,
    horizon: SimTime,
    window: SimTime,
    terminals: usize,
    totals: impl Fn(&Engine<P, L>) -> CumulativeTotals,
    sink: SliceSink<'_>,
) -> Result<StreamedOutcome<()>, HrvizError> {
    let every = NonZeroU64::new(window.as_nanos())
        .ok_or_else(|| HrvizError::config("slice window must be positive"))?;
    let mut cursor = SliceCursor::new(terminals);
    let flow = engine.run_grid(horizon, Some(every), |eng, bound| {
        seal(&mut cursor, &mut *sink, bound.as_nanos(), totals(eng))
    })?;
    if let ControlFlow::Break(aborted) = flow {
        return Ok(aborted);
    }
    let t_end = engine.now().as_nanos();
    Ok(match seal(&mut cursor, sink, t_end, totals(engine))? {
        ControlFlow::Continue(()) => StreamedOutcome::Completed(()),
        ControlFlow::Break(aborted) => aborted,
    })
}

/// Cut the window ending at `t_end` and hand it to `sink`; a sink abort
/// comes back as [`ControlFlow::Break`] with the run's aborted outcome.
fn seal(
    cursor: &mut SliceCursor,
    sink: SliceSink<'_>,
    t_end: u64,
    cur: CumulativeTotals,
) -> Result<ControlFlow<StreamedOutcome<()>>, HrvizError> {
    let Some(slice) = cursor.cut(t_end, cur) else { return Ok(ControlFlow::Continue(())) };
    Ok(match sink(&slice)? {
        SliceControl::Continue => ControlFlow::Continue(()),
        SliceControl::Abort(reason) => ControlFlow::Break(StreamedOutcome::Aborted {
            reason,
            at_ns: t_end,
            slices: cursor.slices(),
        }),
    })
}
