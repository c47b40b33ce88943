//! The liveness state a router consults while routing.
//!
//! Every router/switch LP holds its own [`FaultView`] and receives every
//! fault event (fault broadcast keeps replays and restored runs
//! bit-identical: the events ride the normal deterministic event order).
//! The containers are ordered (`BTree*`) so iteration — and therefore any
//! derived behaviour — is deterministic.

use crate::schedule::FaultEvent;
use hrviz_pdes::wire::{SnapshotError, WireReader, WireWriter};
use std::collections::{BTreeMap, BTreeSet};

/// Current fault state: dead routers, dead directed links, degrade factors.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultView {
    dead_routers: BTreeSet<u32>,
    dead_links: BTreeSet<(u32, u32)>,
    degraded: BTreeMap<(u32, u32), f64>,
}

impl FaultView {
    /// A view with no active faults.
    pub fn new() -> Self {
        FaultView::default()
    }

    /// Fold one fault event into the view.
    pub fn apply(&mut self, ev: &FaultEvent) {
        match *ev {
            FaultEvent::LinkDown { router, port } => {
                self.dead_links.insert((router, port));
            }
            FaultEvent::LinkUp { router, port } => {
                self.dead_links.remove(&(router, port));
                self.degraded.remove(&(router, port));
            }
            FaultEvent::RouterDown { router } => {
                self.dead_routers.insert(router);
            }
            FaultEvent::RouterUp { router } => {
                self.dead_routers.remove(&router);
            }
            FaultEvent::DegradedLink { router, port, factor } => {
                if factor >= 1.0 {
                    self.degraded.remove(&(router, port));
                } else {
                    self.degraded.insert((router, port), factor.max(1e-6));
                }
            }
        }
    }

    /// Whether `router` currently refuses new arrivals.
    pub fn router_dead(&self, router: u32) -> bool {
        self.dead_routers.contains(&router)
    }

    /// Whether the directed link out of `router` via `port` is down.
    pub fn link_dead(&self, router: u32, port: u32) -> bool {
        self.dead_links.contains(&(router, port))
    }

    /// Bandwidth fraction retained on the link (`1.0` when healthy).
    pub fn degrade_factor(&self, router: u32, port: u32) -> f64 {
        self.degraded.get(&(router, port)).copied().unwrap_or(1.0)
    }

    /// Whether no fault is currently active.
    pub fn is_clean(&self) -> bool {
        self.dead_routers.is_empty() && self.dead_links.is_empty() && self.degraded.is_empty()
    }

    /// Append the view's checkpoint wire form to `w`. The `BTree*`
    /// containers iterate in sorted order, so the bytes are deterministic.
    pub fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.dead_routers.len() as u64);
        for r in &self.dead_routers {
            w.put_u32(*r);
        }
        w.put_u64(self.dead_links.len() as u64);
        for (r, p) in &self.dead_links {
            w.put_u32(*r);
            w.put_u32(*p);
        }
        w.put_u64(self.degraded.len() as u64);
        for ((r, p), f) in &self.degraded {
            w.put_u32(*r);
            w.put_u32(*p);
            w.put_f64(*f);
        }
    }

    /// Inverse of [`FaultView::encode`].
    pub fn decode(r: &mut WireReader<'_>) -> Result<FaultView, SnapshotError> {
        let mut v = FaultView::new();
        for _ in 0..r.u64()? {
            v.dead_routers.insert(r.u32()?);
        }
        for _ in 0..r.u64()? {
            v.dead_links.insert((r.u32()?, r.u32()?));
        }
        for _ in 0..r.u64()? {
            v.degraded.insert((r.u32()?, r.u32()?), r.f64()?);
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_faults_toggle() {
        let mut v = FaultView::new();
        assert!(v.is_clean());
        v.apply(&FaultEvent::LinkDown { router: 2, port: 5 });
        assert!(v.link_dead(2, 5));
        assert!(!v.link_dead(2, 4));
        v.apply(&FaultEvent::LinkUp { router: 2, port: 5 });
        assert!(!v.link_dead(2, 5));
        assert!(v.is_clean());
    }

    #[test]
    fn router_faults_toggle() {
        let mut v = FaultView::new();
        v.apply(&FaultEvent::RouterDown { router: 7 });
        assert!(v.router_dead(7));
        v.apply(&FaultEvent::RouterUp { router: 7 });
        assert!(!v.router_dead(7));
    }

    #[test]
    fn degrade_factor_tracks_and_clears() {
        let mut v = FaultView::new();
        assert_eq!(v.degrade_factor(1, 1), 1.0);
        v.apply(&FaultEvent::DegradedLink { router: 1, port: 1, factor: 0.25 });
        assert_eq!(v.degrade_factor(1, 1), 0.25);
        // Full-speed restores cleanliness.
        v.apply(&FaultEvent::DegradedLink { router: 1, port: 1, factor: 1.0 });
        assert_eq!(v.degrade_factor(1, 1), 1.0);
        assert!(v.is_clean());
        // LinkUp also clears a degrade.
        v.apply(&FaultEvent::DegradedLink { router: 1, port: 1, factor: 0.5 });
        v.apply(&FaultEvent::LinkUp { router: 1, port: 1 });
        assert!(v.is_clean());
    }
}
