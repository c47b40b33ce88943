//! Logical processes and the context through which they act on the world.
//!
//! Mirroring ROSS, all simulation state lives inside logical processes
//! (LPs); the only way state crosses LP boundaries is by scheduling events.
//! That restriction is what makes an engine snapshot the sum of per-LP
//! state plus the pending-event set.

use crate::event::{Event, EventKey, LpId};
use crate::time::SimTime;
use crate::wire::{SnapshotError, WireReader, WireWriter};

/// A logical process.
///
/// Implementations are usually an enum over the node kinds of the model
/// (e.g. `Terminal` / `Router` in the Dragonfly model) so the engine stays
/// monomorphic and allocation-free on the hot path.
pub trait Lp<P>: Send {
    /// Called once before any event is delivered, at time zero. LPs use
    /// this to schedule their initial self-events (e.g. injection timers).
    fn on_init(&mut self, ctx: &mut Ctx<'_, P>) {
        let _ = ctx;
    }

    /// Handle one event addressed to this LP.
    fn on_event(&mut self, ctx: &mut Ctx<'_, P>, payload: P);

    /// Called once after the run completes (all events drained or the time
    /// bound reached), letting LPs finalize derived statistics.
    fn on_finish(&mut self, now: SimTime) {
        let _ = now;
    }

    /// Post-run invariant check the engine runs when a run finishes
    /// ([`Engine::try_run_to_completion`](crate::Engine::try_run_to_completion)).
    /// Called only after the event set fully drained; return a short
    /// description of any violated invariant (e.g. flow-control credits that
    /// were never returned). The default implementation always passes.
    fn audit(&self) -> Result<(), String> {
        Ok(())
    }

    /// Serialize this LP's dynamic state for an engine checkpoint
    /// ([`Engine::snapshot`](crate::Engine::snapshot)). Implementations
    /// must write a byte-deterministic form (see [`crate::wire`]) that
    /// [`Lp::restore`] inverts exactly. The default refuses, so models opt
    /// into checkpointing explicitly.
    fn snapshot(&self, w: &mut WireWriter) -> Result<(), SnapshotError> {
        let _ = w;
        Err(SnapshotError::Unsupported("LP type does not implement snapshot".into()))
    }

    /// Restore this LP's dynamic state from bytes written by
    /// [`Lp::snapshot`]. Called on a freshly constructed LP (identical
    /// static configuration), so only mutable run state needs patching.
    fn restore(&mut self, r: &mut WireReader<'_>) -> Result<(), SnapshotError> {
        let _ = r;
        Err(SnapshotError::Unsupported("LP type does not implement restore".into()))
    }
}

/// Execution context handed to an LP while it processes an event.
///
/// Collects newly scheduled events into a buffer owned by the engine; the
/// engine routes them after the handler returns.
pub struct Ctx<'a, P> {
    now: SimTime,
    me: LpId,
    seq: &'a mut u64,
    out: &'a mut Vec<Event<P>>,
    /// Minimum cross-LP delay the scheduler relies on (0 disables checking).
    min_delay: SimTime,
}

impl<'a, P> Ctx<'a, P> {
    pub(crate) fn new(
        now: SimTime,
        me: LpId,
        seq: &'a mut u64,
        out: &'a mut Vec<Event<P>>,
        min_delay: SimTime,
    ) -> Self {
        Ctx { now, me, seq, out, min_delay }
    }

    /// Build a free-standing context for unit-testing LP handlers outside
    /// an engine. Events the handler schedules land in `out`.
    pub fn detached(
        now: SimTime,
        me: LpId,
        seq: &'a mut u64,
        out: &'a mut Vec<Event<P>>,
        min_delay: SimTime,
    ) -> Self {
        Ctx::new(now, me, seq, out, min_delay)
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The LP this context belongs to.
    pub fn me(&self) -> LpId {
        self.me
    }

    fn next_seq(&mut self) -> u64 {
        let s = *self.seq;
        *self.seq += 1;
        s
    }

    /// Schedule `payload` for LP `dst`, `delay` from now.
    ///
    /// Cross-LP sends must respect the engine's configured lookahead
    /// (`delay >= lookahead`); violating that is a model bug and panics in
    /// debug builds.
    pub fn send(&mut self, dst: LpId, delay: SimTime, payload: P) {
        debug_assert!(
            dst == self.me || delay >= self.min_delay,
            "cross-LP event from {:?} to {:?} with delay {:?} below lookahead {:?}",
            self.me,
            dst,
            delay,
            self.min_delay
        );
        let key = EventKey { time: self.now + delay, dst, src: self.me, seq: self.next_seq() };
        self.out.push(Event { key, payload });
    }

    /// Schedule `payload` for this LP itself, `delay` from now. Zero delays
    /// are allowed for self-events.
    pub fn send_self(&mut self, delay: SimTime, payload: P) {
        let me = self.me;
        self.send(me, delay, payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_assigns_monotone_seq_and_times() {
        let mut seq = 0u64;
        let mut out: Vec<Event<u32>> = Vec::new();
        let mut ctx = Ctx::new(SimTime(100), LpId(3), &mut seq, &mut out, SimTime(5));
        ctx.send(LpId(7), SimTime(10), 1);
        ctx.send_self(SimTime::ZERO, 2);
        ctx.send(LpId(7), SimTime(10), 3);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].key.time, SimTime(110));
        assert_eq!(out[1].key.time, SimTime(100));
        assert_eq!(out[1].key.dst, LpId(3));
        assert!(out[0].key.seq < out[2].key.seq);
        assert_eq!(seq, 3);
    }

    #[test]
    #[should_panic(expected = "below lookahead")]
    #[cfg(debug_assertions)]
    fn ctx_rejects_sub_lookahead_cross_sends() {
        let mut seq = 0u64;
        let mut out: Vec<Event<u32>> = Vec::new();
        let mut ctx = Ctx::new(SimTime(0), LpId(0), &mut seq, &mut out, SimTime(5));
        ctx.send(LpId(1), SimTime(1), 9);
    }
}
