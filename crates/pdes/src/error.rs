//! Structured simulation failures.
//!
//! Every engine run loop surfaces scheduler pathologies — virtual-time
//! stalls and post-run invariant violations such as credit leaks — as
//! values of this type so callers can report them and exit cleanly.

use crate::time::SimTime;
use std::fmt;

/// A structured failure detected by the engine watchdogs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// Virtual time stopped advancing: the engine processed more than
    /// `limit` consecutive events without the clock moving. Almost always a
    /// zero-delay self-event loop in the model.
    VirtualTimeStall {
        /// Simulation time at which progress stopped.
        now: SimTime,
        /// Events processed at `now` before the watchdog tripped.
        events: u64,
        /// The configured per-timestamp event limit.
        limit: u64,
    },
    /// A post-run audit found LP state that violates a model invariant
    /// (e.g. flow-control credits that were never returned). Collected
    /// after the event set drained; each entry is `(lp, description)`.
    Invariant {
        /// Violations, at most a handful (reporting is truncated).
        failures: Vec<(u32, String)>,
        /// Total number of LPs that failed the audit (may exceed
        /// `failures.len()` when truncated).
        total: u64,
    },
}

impl SimError {
    /// Short machine-friendly tag (used in telemetry events).
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::VirtualTimeStall { .. } => "virtual_time_stall",
            SimError::Invariant { .. } => "invariant",
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::VirtualTimeStall { now, events, limit } => write!(
                f,
                "virtual time stalled at t={}ns: {events} events processed without progress \
                 (limit {limit}); likely a zero-delay event loop",
                now.as_nanos()
            ),
            SimError::Invariant { failures, total } => {
                write!(f, "post-run audit failed for {total} LP(s):")?;
                for (lp, what) in failures {
                    write!(f, " [lp {lp}: {what}]")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Watchdog configuration of the engine's run loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Maximum events the engine may process without virtual time advancing
    /// before declaring a stall.
    pub max_stalled_events: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        // Same-timestamp bursts in real models are bounded by node fan-out
        // (thousands); millions of events at one timestamp is a loop.
        WatchdogConfig { max_stalled_events: 5_000_000 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_time_and_limit() {
        let e = SimError::VirtualTimeStall { now: SimTime(42), events: 10, limit: 9 };
        let s = e.to_string();
        assert!(s.contains("t=42ns"), "{s}");
        assert!(s.contains("limit 9"), "{s}");
        assert_eq!(e.kind(), "virtual_time_stall");
    }

    #[test]
    fn display_lists_audit_failures() {
        let e =
            SimError::Invariant { failures: vec![(3, "2 credits outstanding".into())], total: 5 };
        let s = e.to_string();
        assert!(s.contains("5 LP(s)"), "{s}");
        assert!(s.contains("lp 3"), "{s}");
        assert_eq!(e.kind(), "invariant");
    }
}
