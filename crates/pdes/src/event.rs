//! Events and their deterministic total order.
//!
//! Every event carries an [`EventKey`] that orders it totally: first by
//! timestamp, then by destination LP, then by a `(source LP, per-source
//! sequence number)` pair. Sequence numbers are assigned deterministically
//! by each sender, so the induced order depends only on the model — the
//! foundation of the engine's bit-identical replays.

use crate::time::SimTime;
use std::cmp::Ordering;

/// Identifier of a logical process (LP). LPs are dense indices assigned at
/// engine construction, so `LpId` doubles as an index into the LP vector.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LpId(pub u32);

impl LpId {
    /// The LP id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Total-order key for an event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EventKey {
    /// When the event fires.
    pub time: SimTime,
    /// The LP that receives the event.
    pub dst: LpId,
    /// The LP that sent the event (`dst` itself for self-scheduled events,
    /// `LpId(u32::MAX)` for events injected before the run starts).
    pub src: LpId,
    /// Per-source monotone sequence number, disambiguating events a single
    /// sender emits at the same timestamp.
    pub seq: u64,
}

impl Ord for EventKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .cmp(&other.time)
            .then_with(|| self.dst.cmp(&other.dst))
            .then_with(|| self.src.cmp(&other.src))
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// An event: a key plus an application payload.
#[derive(Clone, Debug)]
pub struct Event<P> {
    /// Ordering key (time, destination, provenance).
    pub key: EventKey,
    /// Application-defined payload delivered to the destination LP.
    pub payload: P,
}

impl<P> PartialEq for Event<P> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<P> Eq for Event<P> {}

impl<P> Ord for Event<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

impl<P> PartialOrd for Event<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Source id used for events injected by the harness before the run starts.
pub const EXTERNAL_SRC: LpId = LpId(u32::MAX);

#[cfg(test)]
mod tests {
    use super::*;

    fn key(t: u64, dst: u32, src: u32, seq: u64) -> EventKey {
        EventKey { time: SimTime(t), dst: LpId(dst), src: LpId(src), seq }
    }

    #[test]
    fn ordering_by_time_first() {
        assert!(key(1, 9, 9, 9) < key(2, 0, 0, 0));
    }

    #[test]
    fn ordering_ties_broken_by_dst_src_seq() {
        assert!(key(5, 0, 7, 7) < key(5, 1, 0, 0));
        assert!(key(5, 3, 0, 9) < key(5, 3, 1, 0));
        assert!(key(5, 3, 2, 0) < key(5, 3, 2, 1));
    }

    #[test]
    fn identical_keys_are_equal() {
        assert_eq!(key(5, 3, 2, 1), key(5, 3, 2, 1));
    }

    #[test]
    fn event_order_follows_key() {
        let a = Event { key: key(1, 0, 0, 0), payload: "a" };
        let b = Event { key: key(2, 0, 0, 0), payload: "b" };
        assert!(a < b);
    }
}
