//! # hrviz-pdes — ROSS-style discrete-event simulation engine
//!
//! The paper couples its visual analytics system with CODES, which runs on
//! ROSS, a parallel discrete-event simulator (PDES). The paper uses ROSS
//! only to produce metrics, and its workload is a design-space grid of
//! independent runs, so this crate is one deterministic sequential engine;
//! a sweep fills every core by running grid points side by side. It has
//!
//! * integer-nanosecond [`SimTime`] and a total event order ([`EventKey`]),
//! * logical processes ([`Lp`]) that interact *only* through events,
//! * one engine ([`Engine`]) over one pending-event set ([`HeapQueue`]),
//!   with a no-progress watchdog and a post-run audit on every run, and
//! * one run loop over an absolute virtual-time grid
//!   ([`Engine::run_grid`]) that checkpoints and live slices observe.
//!
//! ## Example
//!
//! ```
//! use hrviz_pdes::{Engine, Lp, Ctx, LpId, SimTime};
//!
//! struct PingPong { hits: u32 }
//!
//! impl Lp<&'static str> for PingPong {
//!     fn on_event(&mut self, ctx: &mut Ctx<'_, &'static str>, msg: &'static str) {
//!         self.hits += 1;
//!         if self.hits < 3 {
//!             let peer = LpId(1 - ctx.me().0);
//!             ctx.send(peer, SimTime::nanos(100), msg);
//!         }
//!     }
//! }
//!
//! let mut eng = Engine::new(vec![PingPong { hits: 0 }, PingPong { hits: 0 }],
//!                           SimTime::nanos(100));
//! eng.schedule(SimTime::ZERO, LpId(0), "ball");
//! eng.try_run_to_completion().expect("healthy model");
//! assert_eq!(eng.lp(LpId(0)).hits + eng.lp(LpId(1)).hits, 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod event;
pub mod lp;
pub mod queue;
pub mod time;
pub mod wire;

pub use engine::{Engine, EngineStats, RunOutcome};
pub use error::{SimError, WatchdogConfig};
pub use event::{Event, EventKey, LpId, EXTERNAL_SRC};
pub use lp::{Ctx, Lp};
pub use queue::HeapQueue;
pub use time::SimTime;
pub use wire::{SnapshotError, WirePayload, WireReader, WireWriter};
