//! Terminal (compute node NIC) logical process.
//!
//! A terminal owns an unbounded source queue of packets produced by
//! segmenting workload messages, a credit pool mirroring its router's input
//! buffer, and a serializing injection channel. On the receive side it
//! consumes packets instantly and accounts latency/hop statistics — the
//! per-terminal metrics of the paper's Fig. 2(a).

use crate::config::{LinkClassParams, SamplingConfig};
use crate::events::{CreditReturn, NetEvent};
use crate::packet::{JobId, Packet, RoutePlan, NO_JOB};
use crate::sampling::Bins;
use crate::snapshot::{
    decode_opt_bins, decode_opt_time, decode_packet, encode_opt_bins, encode_opt_time,
    encode_packet,
};
use crate::topology::TerminalId;
use crate::traffic::MsgInjection;
use hrviz_pdes::wire::{SnapshotError, WireReader, WireWriter};
use hrviz_pdes::{Ctx, LpId, SimTime};
use hrviz_stream::CumulativeTotals;
use std::collections::VecDeque;

/// Receive/send statistics a terminal accumulates during a run.
#[derive(Clone, Debug, Default)]
pub struct TerminalStats {
    /// Workload bytes injected (the paper's "Data size").
    pub injected_bytes: u64,
    /// Packets injected.
    pub packets_sent: u64,
    /// Time spent serializing onto the injection link.
    pub busy_ns: u64,
    /// Time the head-of-line packet was blocked on credits (terminal-link
    /// saturation, injection side).
    pub sat_ns: u64,
    /// Bytes received.
    pub recv_bytes: u64,
    /// Packets received ("Packets finished").
    pub packets_finished: u64,
    /// Sum of packet latencies (ns) over received packets.
    pub latency_sum_ns: u64,
    /// Sum of hop counts over received packets.
    pub hops_sum: u64,
    /// Arrival time of the last received packet.
    pub last_arrival: SimTime,
    /// Optional per-bin injected bytes.
    pub traffic_bins: Option<Bins>,
    /// Optional per-bin injection-blocked ns.
    pub sat_bins: Option<Bins>,
    /// Optional per-bin latency sums (ns) of received packets.
    pub latency_bins: Option<Bins>,
    /// Optional per-bin received packet counts.
    pub count_bins: Option<Bins>,
    /// Optional per-bin hop sums of received packets.
    pub hops_bins: Option<Bins>,
}

impl TerminalStats {
    /// Mean packet latency in ns over received packets (0 when none).
    pub fn avg_latency_ns(&self) -> f64 {
        if self.packets_finished == 0 {
            0.0
        } else {
            self.latency_sum_ns as f64 / self.packets_finished as f64
        }
    }

    /// Mean hop count over received packets (0 when none).
    pub fn avg_hops(&self) -> f64 {
        if self.packets_finished == 0 {
            0.0
        } else {
            self.hops_sum as f64 / self.packets_finished as f64
        }
    }
}

/// Terminal logical process.
#[derive(Debug)]
pub struct TerminalLp {
    /// This terminal's id.
    pub id: TerminalId,
    /// Job assigned to this terminal ([`NO_JOB`] when idle).
    pub job: JobId,
    router_lp: LpId,
    link: LinkClassParams,
    packet_bytes: u32,
    credits: i64,
    initial_credits: i64,
    queue: VecDeque<Packet>,
    in_flight: Option<Packet>,
    blocked_since: Option<SimTime>,
    /// Injection schedule, sorted by time.
    schedule: Vec<MsgInjection>,
    cursor: usize,
    next_pkt: u64,
    /// Accumulated statistics.
    pub stats: TerminalStats,
}

impl TerminalLp {
    /// Create a terminal attached to `router_lp`.
    pub fn new(
        id: TerminalId,
        router_lp: LpId,
        link: LinkClassParams,
        packet_bytes: u32,
        vc_buffer_bytes: u32,
        sampling: Option<SamplingConfig>,
    ) -> Self {
        let mut stats = TerminalStats::default();
        if let Some(s) = sampling {
            stats.traffic_bins = Some(Bins::new(s));
            stats.sat_bins = Some(Bins::new(s));
            stats.latency_bins = Some(Bins::new(s));
            stats.count_bins = Some(Bins::new(s));
            stats.hops_bins = Some(Bins::new(s));
        }
        TerminalLp {
            id,
            job: NO_JOB,
            router_lp,
            link,
            packet_bytes,
            credits: vc_buffer_bytes as i64,
            initial_credits: vc_buffer_bytes as i64,
            queue: VecDeque::new(),
            in_flight: None,
            blocked_since: None,
            schedule: Vec::new(),
            cursor: 0,
            next_pkt: (id.0 as u64) << 40,
            stats,
        }
    }

    /// Fold this terminal's cumulative counters into live-slice totals.
    pub fn add_to_totals(&self, cur: &mut CumulativeTotals) {
        cur.delivered_packets += self.stats.packets_finished;
        cur.delivered_bytes += self.stats.recv_bytes;
        cur.injected_packets += self.stats.packets_sent;
        cur.injected_bytes += self.stats.injected_bytes;
        if let Some(slot) = cur.per_terminal.get_mut(self.id.0 as usize) {
            *slot = (self.stats.latency_sum_ns, self.stats.packets_finished);
        }
    }

    /// Install the injection schedule (must be sorted by time).
    pub fn set_schedule(&mut self, schedule: Vec<MsgInjection>) {
        debug_assert!(schedule.windows(2).all(|w| w[0].time <= w[1].time));
        self.schedule = schedule;
        self.cursor = 0;
    }

    /// End-of-run invariant check: with the event queue drained, every
    /// injection credit must be home and no packet stuck waiting. A deficit
    /// here means a downstream node swallowed a packet without returning
    /// its credit (the credit-leak deadlock the watchdog reports).
    pub fn audit(&self) -> Result<(), String> {
        if self.credits != self.initial_credits {
            return Err(format!(
                "terminal {}: holds {} of {} injection credits after drain",
                self.id.0, self.credits, self.initial_credits
            ));
        }
        if self.in_flight.is_some() {
            return Err(format!("terminal {}: packet still in flight after drain", self.id.0));
        }
        if !self.queue.is_empty() {
            return Err(format!(
                "terminal {}: {} packets still queued after drain (credit starvation)",
                self.id.0,
                self.queue.len()
            ));
        }
        Ok(())
    }

    /// Pending messages not yet injected.
    pub fn backlog(&self) -> usize {
        self.schedule.len() - self.cursor + self.queue.len() + usize::from(self.in_flight.is_some())
    }

    fn packetize(&mut self, msg: &MsgInjection, now: SimTime) {
        debug_assert_eq!(msg.src, self.id);
        if msg.src == msg.dst || msg.bytes == 0 {
            return; // self-messages never touch the network
        }
        let mut remaining = msg.bytes;
        while remaining > 0 {
            let sz = remaining.min(self.packet_bytes as u64) as u32;
            remaining -= sz as u64;
            self.queue.push_back(Packet {
                id: self.next_pkt,
                src: msg.src,
                dst: msg.dst,
                bytes: sz,
                inject_time: now,
                job: msg.job,
                hops: 0,
                global_hops: 0,
                diverted: false,
                plan: RoutePlan::Decide,
            });
            self.next_pkt += 1;
        }
        self.stats.injected_bytes += msg.bytes;
    }

    fn try_xmit(&mut self, ctx: &mut Ctx<'_, NetEvent>) {
        if self.in_flight.is_some() {
            return;
        }
        let Some(head) = self.queue.front() else { return };
        if self.credits < head.bytes as i64 {
            if self.blocked_since.is_none() {
                self.blocked_since = Some(ctx.now());
            }
            return;
        }
        if let Some(s) = self.blocked_since.take() {
            let now = ctx.now();
            self.stats.sat_ns += (now - s).as_nanos();
            if let Some(b) = &mut self.stats.sat_bins {
                b.add_interval(s, now);
            }
        }
        let pkt = self.queue.pop_front().expect("non-empty");
        self.credits -= pkt.bytes as i64;
        let ser = self.link.serialize(pkt.bytes);
        self.stats.busy_ns += ser.as_nanos();
        self.stats.packets_sent += 1;
        if let Some(b) = &mut self.stats.traffic_bins {
            b.add_at(ctx.now(), pkt.bytes as u64);
        }
        self.in_flight = Some(pkt);
        ctx.send_self(ser, NetEvent::TerminalXmitDone);
    }

    /// Handle an event addressed to this terminal.
    pub fn on_event(&mut self, ctx: &mut Ctx<'_, NetEvent>, ev: NetEvent) {
        match ev {
            NetEvent::InjectWake => {
                let now = ctx.now();
                while self.cursor < self.schedule.len() && self.schedule[self.cursor].time <= now {
                    let msg = self.schedule[self.cursor];
                    self.packetize(&msg, now);
                    self.cursor += 1;
                }
                if self.cursor < self.schedule.len() {
                    let next = self.schedule[self.cursor].time;
                    ctx.send_self(next - now, NetEvent::InjectWake);
                }
                self.try_xmit(ctx);
            }
            NetEvent::TerminalXmitDone => {
                let pkt = self.in_flight.take().expect("xmit done with nothing in flight");
                let from = CreditReturn {
                    lp: ctx.me(),
                    port: 0,
                    vc: 0,
                    bytes: pkt.bytes,
                    latency: self.link.latency,
                };
                ctx.send(self.router_lp, self.link.latency, NetEvent::RouterArrive { pkt, from });
                self.try_xmit(ctx);
            }
            NetEvent::Credit { bytes, .. } => {
                self.credits += bytes as i64;
                self.try_xmit(ctx);
            }
            NetEvent::TerminalArrive { pkt, from } => {
                let now = ctx.now();
                debug_assert_eq!(pkt.dst, self.id);
                let latency = (now - pkt.inject_time).as_nanos();
                self.stats.recv_bytes += pkt.bytes as u64;
                self.stats.packets_finished += 1;
                self.stats.latency_sum_ns += latency;
                self.stats.hops_sum += pkt.hops as u64;
                self.stats.last_arrival = now;
                if let Some(b) = &mut self.stats.latency_bins {
                    b.add_at(now, latency);
                }
                if let Some(b) = &mut self.stats.count_bins {
                    b.add_at(now, 1);
                }
                if let Some(b) = &mut self.stats.hops_bins {
                    b.add_at(now, pkt.hops as u64);
                }
                // Consumption is instant: return the ejection-buffer credit.
                ctx.send(
                    from.lp,
                    from.latency,
                    NetEvent::Credit { port: from.port, vc: from.vc, bytes: from.bytes },
                );
            }
            NetEvent::RouterArrive { .. } | NetEvent::XmitDone { .. } | NetEvent::Fault(_) => {
                unreachable!("router event delivered to terminal")
            }
        }
    }

    /// Schedule the first injection wake-up.
    pub fn on_init(&mut self, ctx: &mut Ctx<'_, NetEvent>) {
        if let Some(first) = self.schedule.first() {
            ctx.send_self(first.time, NetEvent::InjectWake);
        }
    }

    /// Serialize this terminal's dynamic state for an engine checkpoint.
    /// Static configuration (link params, schedule, job stamp) is excluded:
    /// restore runs on a terminal freshly rebuilt from the same spec.
    pub fn snapshot(&self, w: &mut WireWriter) -> Result<(), SnapshotError> {
        w.put_i64(self.credits);
        w.put_u64(self.queue.len() as u64);
        for p in &self.queue {
            encode_packet(w, p);
        }
        match &self.in_flight {
            None => w.put_bool(false),
            Some(p) => {
                w.put_bool(true);
                encode_packet(w, p);
            }
        }
        encode_opt_time(w, &self.blocked_since);
        w.put_u64(self.cursor as u64);
        w.put_u64(self.next_pkt);
        let s = &self.stats;
        w.put_u64(s.injected_bytes);
        w.put_u64(s.packets_sent);
        w.put_u64(s.busy_ns);
        w.put_u64(s.sat_ns);
        w.put_u64(s.recv_bytes);
        w.put_u64(s.packets_finished);
        w.put_u64(s.latency_sum_ns);
        w.put_u64(s.hops_sum);
        w.put_u64(s.last_arrival.as_nanos());
        encode_opt_bins(w, &s.traffic_bins);
        encode_opt_bins(w, &s.sat_bins);
        encode_opt_bins(w, &s.latency_bins);
        encode_opt_bins(w, &s.count_bins);
        encode_opt_bins(w, &s.hops_bins);
        Ok(())
    }

    /// Inverse of [`TerminalLp::snapshot`].
    pub fn restore(&mut self, r: &mut WireReader<'_>) -> Result<(), SnapshotError> {
        self.credits = r.i64()?;
        let n = r.u64()? as usize;
        self.queue.clear();
        for _ in 0..n {
            self.queue.push_back(decode_packet(r)?);
        }
        self.in_flight = if r.bool()? { Some(decode_packet(r)?) } else { None };
        self.blocked_since = decode_opt_time(r)?;
        let cursor = r.u64()? as usize;
        if cursor > self.schedule.len() {
            return Err(SnapshotError::Corrupt(format!(
                "terminal {}: snapshot cursor {cursor} exceeds schedule length {}",
                self.id.0,
                self.schedule.len()
            )));
        }
        self.cursor = cursor;
        self.next_pkt = r.u64()?;
        let s = &mut self.stats;
        s.injected_bytes = r.u64()?;
        s.packets_sent = r.u64()?;
        s.busy_ns = r.u64()?;
        s.sat_ns = r.u64()?;
        s.recv_bytes = r.u64()?;
        s.packets_finished = r.u64()?;
        s.latency_sum_ns = r.u64()?;
        s.hops_sum = r.u64()?;
        s.last_arrival = SimTime(r.u64()?);
        decode_opt_bins(r, &mut s.traffic_bins)?;
        decode_opt_bins(r, &mut s.sat_bins)?;
        decode_opt_bins(r, &mut s.latency_bins)?;
        decode_opt_bins(r, &mut s.count_bins)?;
        decode_opt_bins(r, &mut s.hops_bins)?;
        Ok(())
    }

    /// Close any open saturation interval.
    pub fn on_finish(&mut self, now: SimTime) {
        if let Some(s) = self.blocked_since.take() {
            self.stats.sat_ns += (now - s).as_nanos();
            if let Some(b) = &mut self.stats.sat_bins {
                b.add_interval(s, now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> LinkClassParams {
        LinkClassParams { bandwidth_bytes_per_ns: 1.0, latency: SimTime(10) }
    }

    fn terminal(buf: u32) -> TerminalLp {
        TerminalLp::new(TerminalId(0), LpId(100), link(), 100, buf, None)
    }

    fn msg(time: u64, dst: u32, bytes: u64) -> MsgInjection {
        MsgInjection {
            time: SimTime(time),
            src: TerminalId(0),
            dst: TerminalId(dst),
            bytes,
            job: 0,
        }
    }

    /// Drive the terminal manually, capturing outgoing events.
    fn drive(t: &mut TerminalLp, now: SimTime, ev: NetEvent) -> Vec<hrviz_pdes::Event<NetEvent>> {
        let mut seq = 0;
        let mut out = Vec::new();
        let mut ctx = Ctx::detached(now, LpId(0), &mut seq, &mut out, SimTime(10));
        t.on_event(&mut ctx, ev);
        out
    }

    #[test]
    fn message_segments_into_packets() {
        let mut t = terminal(10_000);
        t.set_schedule(vec![msg(0, 1, 250)]);
        let out = drive(&mut t, SimTime::ZERO, NetEvent::InjectWake);
        // Head packet goes in flight; 250 bytes → packets of 100/100/50.
        assert_eq!(t.stats.injected_bytes, 250);
        assert!(t.in_flight.is_some());
        assert_eq!(t.queue.len(), 2);
        assert_eq!(t.queue.back().unwrap().bytes, 50);
        // Only the self XmitDone event is scheduled.
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn xmit_done_emits_router_arrival_and_continues() {
        let mut t = terminal(10_000);
        t.set_schedule(vec![msg(0, 1, 200)]);
        let _ = drive(&mut t, SimTime::ZERO, NetEvent::InjectWake);
        let out = drive(&mut t, SimTime(100), NetEvent::TerminalXmitDone);
        // RouterArrive to the router + next self xmit.
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0].payload, NetEvent::RouterArrive { .. }));
        assert_eq!(out[0].key.dst, LpId(100));
        assert_eq!(out[0].key.time, SimTime(110)); // +latency
        assert_eq!(t.stats.packets_sent, 2);
    }

    #[test]
    fn blocks_without_credits_and_accounts_saturation() {
        let mut t = terminal(100);
        t.set_schedule(vec![msg(0, 1, 300)]);
        let _ = drive(&mut t, SimTime::ZERO, NetEvent::InjectWake);
        // First packet consumed all credit; finish serializing it.
        let _ = drive(&mut t, SimTime(100), NetEvent::TerminalXmitDone);
        assert!(t.in_flight.is_none());
        assert!(t.blocked_since.is_some());
        // Credit returns at t=400: blocked 100..400.
        let _ = drive(&mut t, SimTime(400), NetEvent::Credit { port: 0, vc: 0, bytes: 100 });
        assert_eq!(t.stats.sat_ns, 300);
        assert!(t.in_flight.is_some());
    }

    #[test]
    fn self_messages_are_dropped() {
        let mut t = terminal(10_000);
        t.set_schedule(vec![msg(0, 0, 500)]);
        let out = drive(&mut t, SimTime::ZERO, NetEvent::InjectWake);
        assert!(out.is_empty());
        assert_eq!(t.stats.packets_sent, 0);
        assert_eq!(t.backlog(), 0);
    }

    #[test]
    fn receive_accounts_latency_hops_and_returns_credit() {
        let mut t = terminal(10_000);
        let pkt = Packet {
            id: 7,
            src: TerminalId(5),
            dst: TerminalId(0),
            bytes: 100,
            inject_time: SimTime(50),
            job: 2,
            hops: 4,
            global_hops: 1,
            diverted: false,
            plan: RoutePlan::Minimal,
        };
        let from = CreditReturn { lp: LpId(100), port: 3, vc: 0, bytes: 100, latency: SimTime(10) };
        let out = drive(&mut t, SimTime(850), NetEvent::TerminalArrive { pkt, from });
        assert_eq!(t.stats.packets_finished, 1);
        assert_eq!(t.stats.latency_sum_ns, 800);
        assert_eq!(t.stats.hops_sum, 4);
        assert_eq!(t.stats.avg_latency_ns(), 800.0);
        assert_eq!(t.stats.avg_hops(), 4.0);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].payload, NetEvent::Credit { port: 3, vc: 0, bytes: 100 }));
    }

    #[test]
    fn empty_stats_average_is_zero() {
        let s = TerminalStats::default();
        assert_eq!(s.avg_latency_ns(), 0.0);
        assert_eq!(s.avg_hops(), 0.0);
    }

    #[test]
    fn wake_batches_equal_time_messages() {
        let mut t = terminal(10_000);
        t.set_schedule(vec![msg(5, 1, 100), msg(5, 2, 100), msg(20, 3, 100)]);
        let out = drive(&mut t, SimTime(5), NetEvent::InjectWake);
        assert_eq!(t.stats.injected_bytes, 200);
        // Next wake scheduled for t=20 plus the xmit-done self event.
        assert_eq!(out.len(), 2);
        assert!(out.iter().any(|e| e.key.time == SimTime(20)));
    }
}
