//! Rate-paced CUBIC (RFC 8312).
//!
//! The modern default congestion controller of Linux/Windows, modeled as a
//! window curve driving a paced rate. After a loss event at window `W_max`
//! the window is cut to `β·W_max` and then grows along the cubic
//!
//! ```text
//! W(t) = C·(t − K)³ + W_max,      K = ∛(W_max·(1 − β)/C)
//! ```
//!
//! concave up to the old `W_max`, convex beyond it. Fast convergence
//! releases bandwidth to newer flows by remembering the previous `W_max`
//! and cutting the origin to `W_max·(1+β)/2` when the new loss happened
//! below it. The TCP-friendly region `W_est(t) = W_max·β +
//! 3·(1−β)/(1+β)·t/RTT` keeps CUBIC at least as aggressive as Reno on
//! short-RTT paths. The window is turned into a pace of `cwnd/srtt`
//! packets per second — the simulator's transports are all rate-paced, so
//! burst dynamics are deliberately out of model (as are HyStart and
//! window scaling by receive buffer).
//!
//! Reliability is the shared [`SackScoreboard`]: DUPTHRESH inference plus
//! an RTO with exponential back-off.

use crate::sack::SackScoreboard;
use jtp::packet::{compress_ranges, SeqRange};
use jtp_sim::{FlowId, SimDuration, SimTime};
use std::collections::BTreeSet;

/// CUBIC baseline configuration.
#[derive(Clone, Debug)]
pub struct CubicConfig {
    /// Application payload bytes per segment (matching JTP's 800).
    pub payload_bytes: u16,
    /// IP+TCP header bytes on data segments.
    pub header_bytes: usize,
    /// Bytes of a pure ACK (IP+TCP+SACK option).
    pub ack_bytes: usize,
    /// Delayed-ACK factor `b` (one ACK per `b` segments).
    pub delayed_ack_every: u32,
    /// Rate bounds (pps).
    pub min_rate_pps: f64,
    /// Upper rate bound; set to the path capacity by the assembly.
    pub max_rate_pps: f64,
    /// Initial RTT estimate before any sample.
    pub initial_rtt: SimDuration,
    /// Minimum retransmission timeout.
    pub rto_min: SimDuration,
    /// CUBIC aggressiveness constant `C` (RFC 8312 §5).
    pub c: f64,
    /// Multiplicative-decrease factor `β` (RFC 8312: 0.7).
    pub beta: f64,
    /// Hard window cap in packets (stands in for the receive window).
    pub cwnd_cap: f64,
    /// Enable fast convergence (RFC 8312 §4.6).
    pub fast_convergence: bool,
}

impl Default for CubicConfig {
    fn default() -> Self {
        CubicConfig {
            payload_bytes: 800,
            header_bytes: 40,
            ack_bytes: 52,
            delayed_ack_every: 2,
            min_rate_pps: 0.1,
            max_rate_pps: 50.0,
            initial_rtt: SimDuration::from_millis(500),
            rto_min: SimDuration::from_secs(1),
            c: 0.4,
            beta: 0.7,
            cwnd_cap: 256.0,
            fast_convergence: true,
        }
    }
}

/// A CUBIC data segment (simulation representation).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CubicData {
    /// Flow id.
    pub flow: FlowId,
    /// Segment sequence number (packet-granularity).
    pub seq: u32,
    /// Timestamp option: when the segment left the sender.
    pub sent_at: SimTime,
    /// Payload bytes.
    pub payload_len: u16,
}

/// A CUBIC acknowledgment with SACK blocks.
#[derive(Clone, PartialEq, Debug)]
pub struct CubicAck {
    /// Flow id.
    pub flow: FlowId,
    /// Cumulative ACK: everything below is delivered.
    pub cum_ack: u32,
    /// SACK blocks above the cumulative ACK.
    pub sack: Vec<SeqRange>,
    /// Echoed timestamp of the newest data that triggered this ACK.
    pub echo: SimTime,
}

/// The CUBIC window curve `W(t) = C·(t − K)³ + W_origin` in packets.
pub fn w_cubic(c: f64, t_s: f64, k_s: f64, w_origin: f64) -> f64 {
    let d = t_s - k_s;
    c * d * d * d + w_origin
}

/// The epoch constant `K = ∛((W_origin − cwnd)/C)`: the time at which the
/// cubic regrows to the origin window from the post-cut `cwnd`.
pub fn cubic_k(c: f64, w_origin: f64, cwnd: f64) -> f64 {
    ((w_origin - cwnd).max(0.0) / c).cbrt()
}

/// The TCP-friendly (Reno-tracking) window estimate of RFC 8312 §4.2.
pub fn w_est(beta: f64, w_origin: f64, t_s: f64, rtt_s: f64) -> f64 {
    w_origin * beta + 3.0 * (1.0 - beta) / (1.0 + beta) * (t_s / rtt_s.max(1e-9))
}

/// Sender statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct CubicSenderStats {
    /// First transmissions.
    pub fresh_sent: u64,
    /// Retransmissions (SACK-inferred + RTO).
    pub retransmissions: u64,
    /// RTO firings.
    pub timeouts: u64,
    /// ACKs processed.
    pub acks_received: u64,
    /// Multiplicative-decrease episodes (loss events, not lost packets).
    pub loss_events: u64,
}

/// The rate-paced CUBIC source.
#[derive(Clone, Debug)]
pub struct CubicSender {
    flow: FlowId,
    cfg: CubicConfig,
    total: u32,
    next_seq: u32,
    board: SackScoreboard<SimTime>,
    srtt_s: f64,
    rttvar_s: f64,
    have_rtt: bool,
    // --- CUBIC state ---
    cwnd: f64,
    ssthresh: f64,
    w_max: f64,
    epoch_start: Option<SimTime>,
    k_s: f64,
    w_origin: f64,
    /// Loss events with a lost seq below this are the same episode.
    recover: u32,
    rate_pps: f64,
    next_send: SimTime,
    rto_deadline: Option<SimTime>,
    rto_backoff: u32,
    stats: CubicSenderStats,
}

impl CubicSender {
    /// Create a source transferring `total` segments.
    pub fn new(flow: FlowId, total: u32, cfg: CubicConfig) -> Self {
        let srtt = cfg.initial_rtt.as_secs_f64();
        let mut s = CubicSender {
            flow,
            total,
            next_seq: 0,
            board: SackScoreboard::default(),
            srtt_s: srtt,
            rttvar_s: srtt / 2.0,
            have_rtt: false,
            cwnd: 2.0,
            ssthresh: f64::INFINITY,
            w_max: 0.0,
            epoch_start: None,
            k_s: 0.0,
            w_origin: 0.0,
            recover: 0,
            rate_pps: 1.0,
            next_send: SimTime::ZERO,
            rto_deadline: None,
            rto_backoff: 0,
            stats: CubicSenderStats::default(),
            cfg,
        };
        s.update_rate();
        s
    }

    /// The flow this sender feeds.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Current paced rate (pps).
    pub fn rate(&self) -> f64 {
        self.rate_pps
    }

    /// Current congestion window in packets.
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Slow-start threshold.
    pub fn ssthresh(&self) -> f64 {
        self.ssthresh
    }

    /// Last-loss window `W_max` (after any fast-convergence cut).
    pub fn w_max(&self) -> f64 {
        self.w_max
    }

    /// Epoch constant `K` in seconds (0 before the first loss epoch).
    pub fn k(&self) -> f64 {
        self.k_s
    }

    /// Cubic origin window of the current growth epoch.
    pub fn w_origin(&self) -> f64 {
        self.w_origin
    }

    /// Still below `ssthresh`?
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// Everything delivered?
    pub fn is_complete(&self) -> bool {
        self.board.cum_ack() >= self.total
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CubicSenderStats {
        self.stats
    }

    /// Current retransmission timeout.
    fn rto(&self) -> SimDuration {
        let base = self.srtt_s + 4.0 * self.rttvar_s;
        let backed = base * (1u64 << self.rto_backoff.min(6)) as f64;
        SimDuration::from_secs_f64(backed).max(self.cfg.rto_min)
    }

    fn arm_rto(&mut self, now: SimTime) {
        self.rto_deadline = self.board.has_outstanding().then(|| now + self.rto());
    }

    fn has_backlog(&self) -> bool {
        self.board.has_queued() || self.next_seq < self.total
    }

    /// Emit at most one segment if pacing allows.
    pub fn poll_send(&mut self, now: SimTime) -> Option<CubicData> {
        if now < self.next_send || !self.has_backlog() {
            return None;
        }
        let gap = SimDuration::from_secs_f64(1.0 / self.rate_pps.max(self.cfg.min_rate_pps));
        let seq = if let Some(s) = self.board.pop_retransmission() {
            self.stats.retransmissions += 1;
            s
        } else if self.next_seq < self.total {
            let s = self.next_seq;
            self.next_seq += 1;
            self.stats.fresh_sent += 1;
            s
        } else {
            return None;
        };
        self.board.on_send(seq, now);
        if self.rto_deadline.is_none() {
            self.arm_rto(now);
        }
        self.next_send = now + gap;
        Some(CubicData {
            flow: self.flow,
            seq,
            sent_at: now,
            payload_len: self.cfg.payload_bytes,
        })
    }

    /// Next instant the sender wants attention (pacing or RTO).
    pub fn next_wakeup(&self) -> Option<SimTime> {
        let pacing = self.has_backlog().then_some(self.next_send);
        match (pacing, self.rto_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Start a new cubic growth epoch from the current window.
    fn begin_epoch(&mut self, now: SimTime) {
        self.epoch_start = Some(now);
        if self.cwnd < self.w_max {
            self.w_origin = self.w_max;
            self.k_s = cubic_k(self.cfg.c, self.w_max, self.cwnd);
        } else {
            // Already past the old saturation point: origin is here, pure
            // convex probing (K = 0).
            self.w_origin = self.cwnd;
            self.k_s = 0.0;
        }
    }

    /// Per-ACK window growth (RFC 8312 §4.1–4.3).
    fn grow(&mut self, now: SimTime, acked: u64) {
        for _ in 0..acked {
            if self.cwnd < self.ssthresh {
                self.cwnd = (self.cwnd + 1.0).min(self.cfg.cwnd_cap);
                continue;
            }
            if self.epoch_start.is_none() {
                self.begin_epoch(now);
            }
            let t = now.since(self.epoch_start.unwrap()).as_secs_f64();
            let rtt = self.srtt_s.max(1e-3);
            let target = w_cubic(self.cfg.c, t + rtt, self.k_s, self.w_origin);
            if target > self.cwnd {
                self.cwnd += (target - self.cwnd) / self.cwnd.max(1.0);
            }
            let est = w_est(self.cfg.beta, self.w_origin, t, rtt);
            if est > self.cwnd {
                self.cwnd = est; // TCP-friendly region
            }
            self.cwnd = self.cwnd.clamp(1.0, self.cfg.cwnd_cap);
        }
    }

    /// Multiplicative decrease on a new loss event.
    fn on_loss_event(&mut self, full_collapse: bool) {
        self.stats.loss_events += 1;
        let prior = self.cwnd;
        // Fast convergence: a loss below the previous saturation point
        // means competition — shrink the remembered origin to hand over
        // bandwidth sooner.
        if self.cfg.fast_convergence && prior < self.w_max {
            self.w_max = prior * (1.0 + self.cfg.beta) / 2.0;
        } else {
            self.w_max = prior;
        }
        self.ssthresh = (prior * self.cfg.beta).max(2.0);
        self.cwnd = if full_collapse {
            1.0
        } else {
            (prior * self.cfg.beta).max(1.0)
        };
        self.epoch_start = None;
        self.recover = self.next_seq;
    }

    /// Process an acknowledgment.
    pub fn on_ack(&mut self, now: SimTime, ack: &CubicAck) {
        debug_assert_eq!(ack.flow, self.flow);
        self.stats.acks_received += 1;

        let sample = now.since(ack.echo).as_secs_f64();
        if sample > 0.0 {
            if self.have_rtt {
                let err = sample - self.srtt_s;
                self.srtt_s += 0.125 * err;
                self.rttvar_s += 0.25 * (err.abs() - self.rttvar_s);
            } else {
                self.srtt_s = sample;
                self.rttvar_s = sample / 2.0;
                self.have_rtt = true;
            }
        }

        let out = self.board.on_ack(ack.cum_ack, &ack.sack);
        if out.advanced {
            self.rto_backoff = 0;
        }
        if !out.lost.is_empty() && self.board.cum_ack() >= self.recover {
            self.on_loss_event(false);
        } else {
            self.grow(now, out.delivered);
        }

        self.update_rate();
        self.arm_rto(now);
    }

    fn update_rate(&mut self) {
        let r = self.cwnd / self.srtt_s.max(1e-3);
        self.rate_pps = r.clamp(self.cfg.min_rate_pps, self.cfg.max_rate_pps);
    }

    /// Fire the retransmission timer if due: earliest outstanding segment
    /// is declared lost, the window collapses to one packet, RTO backs off
    /// exponentially.
    pub fn on_timer(&mut self, now: SimTime) {
        let Some(deadline) = self.rto_deadline else {
            return;
        };
        if now < deadline {
            return;
        }
        if self.board.on_rto() {
            self.stats.timeouts += 1;
            self.rto_backoff += 1;
            self.on_loss_event(true);
            self.update_rate();
            self.next_send = now; // retransmit immediately
        }
        self.arm_rto(now);
    }

    /// Bytes on the wire for a data segment.
    pub fn data_wire_bytes(&self) -> usize {
        self.cfg.header_bytes + self.cfg.payload_bytes as usize
    }
}

/// Receiver statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct CubicReceiverStats {
    /// Distinct segments delivered.
    pub delivered_packets: u64,
    /// Payload bytes delivered.
    pub delivered_bytes: u64,
    /// Duplicates discarded.
    pub duplicates: u64,
    /// ACKs emitted.
    pub acks_sent: u64,
}

/// The CUBIC receiver: delayed ACKs, immediate SACK on reordering —
/// byte-for-byte the TCP-SACK receiver contract.
#[derive(Clone, Debug)]
pub struct CubicReceiver {
    flow: FlowId,
    cfg: CubicConfig,
    prefix: u32,
    ooo: BTreeSet<u32>,
    unacked_data: u32,
    last_echo: SimTime,
    stats: CubicReceiverStats,
}

impl CubicReceiver {
    /// Create the receiving endpoint.
    pub fn new(flow: FlowId, cfg: CubicConfig) -> Self {
        CubicReceiver {
            flow,
            cfg,
            prefix: 0,
            ooo: BTreeSet::new(),
            unacked_data: 0,
            last_echo: SimTime::ZERO,
            stats: CubicReceiverStats::default(),
        }
    }

    /// The flow this endpoint terminates.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CubicReceiverStats {
        self.stats
    }

    /// Cumulative delivery point.
    pub fn cum_ack(&self) -> u32 {
        self.prefix
    }

    /// Process a data segment; ACK per delayed-ACK policy.
    pub fn on_data(&mut self, _now: SimTime, data: &CubicData) -> Option<CubicAck> {
        debug_assert_eq!(data.flow, self.flow);
        let fresh = data.seq >= self.prefix && self.ooo.insert(data.seq);
        if fresh {
            self.stats.delivered_packets += 1;
            self.stats.delivered_bytes += data.payload_len as u64;
            while self.ooo.remove(&self.prefix) {
                self.prefix += 1;
            }
        } else {
            self.stats.duplicates += 1;
        }
        self.last_echo = data.sent_at;
        self.unacked_data += 1;
        let out_of_order = !self.ooo.is_empty();
        if out_of_order || self.unacked_data >= self.cfg.delayed_ack_every {
            Some(self.make_ack())
        } else {
            None
        }
    }

    fn make_ack(&mut self) -> CubicAck {
        self.unacked_data = 0;
        self.stats.acks_sent += 1;
        let sacked: Vec<u32> = self.ooo.iter().copied().collect();
        CubicAck {
            flow: self.flow,
            cum_ack: self.prefix,
            sack: compress_ranges(&sacked),
            echo: self.last_echo,
        }
    }

    /// Force a pending delayed ACK out.
    pub fn flush_ack(&mut self) -> Option<CubicAck> {
        (self.unacked_data > 0).then(|| self.make_ack())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sender(total: u32) -> CubicSender {
        CubicSender::new(FlowId(1), total, CubicConfig::default())
    }

    #[test]
    fn curve_passes_through_origin_at_k() {
        let c = 0.4;
        let w_max = 40.0;
        let cwnd = w_max * 0.7;
        let k = cubic_k(c, w_max, cwnd);
        assert!((w_cubic(c, k, k, w_max) - w_max).abs() < 1e-9);
        assert!((w_cubic(c, 0.0, k, w_max) - cwnd).abs() < 1e-9);
    }

    #[test]
    fn slow_start_doubles_per_rtt_worth_of_acks() {
        let mut s = sender(1000);
        assert!(s.in_slow_start());
        let before = s.cwnd();
        s.grow(SimTime::ZERO, 4);
        assert!((s.cwnd() - (before + 4.0)).abs() < 1e-9);
    }

    #[test]
    fn loss_event_applies_beta_and_fast_convergence() {
        let mut s = sender(1000);
        s.cwnd = 100.0;
        s.ssthresh = 10.0;
        s.on_loss_event(false);
        assert!((s.cwnd() - 70.0).abs() < 1e-9, "β·W = {}", s.cwnd());
        assert!((s.w_max() - 100.0).abs() < 1e-9, "no prior w_max cut");
        // Second loss below the previous saturation point: fast
        // convergence shrinks the remembered origin.
        s.cwnd = 80.0;
        s.on_loss_event(false);
        let expect = 80.0 * (1.0 + 0.7) / 2.0;
        assert!((s.w_max() - expect).abs() < 1e-9, "w_max = {}", s.w_max());
    }

    #[test]
    fn epoch_k_matches_closed_form() {
        let mut s = sender(1000);
        s.cwnd = 100.0;
        s.ssthresh = 10.0;
        s.on_loss_event(false);
        s.grow(SimTime::from_millis(10), 1);
        let expect = cubic_k(0.4, s.w_max(), 70.0);
        assert!((s.k() - expect).abs() < 1e-6, "{} vs {expect}", s.k());
    }

    #[test]
    fn window_growth_caps_at_cwnd_cap() {
        let mut s = sender(100_000);
        for i in 0..5_000u64 {
            s.grow(SimTime::from_millis(i), 1);
        }
        assert!(s.cwnd() <= s.cfg.cwnd_cap + 1e-9);
    }

    #[test]
    fn rto_collapses_to_one_packet() {
        let mut s = sender(50);
        let t0 = SimTime::ZERO;
        s.poll_send(t0).unwrap();
        let deadline = s.next_wakeup().unwrap();
        s.on_timer(deadline + SimDuration::from_secs(2));
        assert_eq!(s.stats().timeouts, 1);
        assert!((s.cwnd() - 1.0).abs() < 1e-9);
        let rtx = s.poll_send(deadline + SimDuration::from_secs(2)).unwrap();
        assert_eq!(rtx.seq, 0);
    }

    #[test]
    fn sack_loss_infers_once_per_episode() {
        let mut s = sender(20);
        let mut t = SimTime::ZERO;
        while s.poll_send(t).is_some() {
            t += SimDuration::from_secs(2);
        }
        let ack = CubicAck {
            flow: FlowId(1),
            cum_ack: 1,
            sack: vec![SeqRange { start: 3, end: 8 }],
            echo: SimTime::ZERO,
        };
        s.on_ack(t, &ack);
        assert_eq!(s.stats().loss_events, 1);
        // More SACK evidence inside the same episode: no second cut.
        let ack2 = CubicAck {
            flow: FlowId(1),
            cum_ack: 1,
            sack: vec![SeqRange { start: 3, end: 10 }],
            echo: SimTime::ZERO,
        };
        s.on_ack(t + SimDuration::from_millis(100), &ack2);
        assert_eq!(s.stats().loss_events, 1);
    }

    #[test]
    fn completes_on_full_cum_ack() {
        let mut s = sender(2);
        let mut t = SimTime::ZERO;
        while s.poll_send(t).is_some() {
            t += SimDuration::from_secs(2);
        }
        let ack = CubicAck {
            flow: FlowId(1),
            cum_ack: 2,
            sack: vec![],
            echo: SimTime::ZERO,
        };
        s.on_ack(t, &ack);
        assert!(s.is_complete());
        assert!(s.poll_send(t + SimDuration::from_secs(1)).is_none());
    }

    #[test]
    fn receiver_contract_matches_tcp() {
        let mut r = CubicReceiver::new(FlowId(1), CubicConfig::default());
        let d = |seq| CubicData {
            flow: FlowId(1),
            seq,
            sent_at: SimTime::ZERO,
            payload_len: 800,
        };
        assert!(r.on_data(SimTime::ZERO, &d(0)).is_none(), "first: delayed");
        let ack = r.on_data(SimTime::ZERO, &d(2)).expect("gap => immediate");
        assert_eq!(ack.cum_ack, 1);
        assert_eq!(ack.sack, vec![SeqRange::single(2)]);
        let flushed = r.flush_ack();
        assert!(flushed.is_none(), "ack already emitted");
    }
}
