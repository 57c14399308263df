//! The SACK scoreboard shared by the TCP, CUBIC and BBR senders.
//!
//! It holds the outstanding segments (each with per-segment state `T`),
//! the SACKed set above the cumulative ACK and the retransmission queue.
//! Loss inference follows RFC 6675: an un-SACKed segment is presumed lost
//! once at least [`DUPTHRESH`] higher segments are SACKed — plain "below
//! the highest SACK" misfires on mild reordering. An RTO queues the
//! earliest outstanding segment at the front.
//!
//! Senders query it on every wakeup, so [`SackScoreboard::inflight`] is a
//! running count and queue membership is mirrored in a set. A queued
//! segment that goes stale (ACKed or SACKed) stays queued until popped and
//! skipped; a popped segment still below the threshold is queued again by
//! the next SACK.

use jtp::packet::SeqRange;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// RFC 6675 DupThresh: SACKed segments above a hole before it counts as lost.
pub const DUPTHRESH: usize = 3;

/// What one ACK did to the scoreboard.
#[derive(Clone, Debug, PartialEq)]
pub struct AckOutcome<T> {
    /// The cumulative ACK moved forward.
    pub advanced: bool,
    /// Newly delivered: freed by the cumulative ACK plus newly SACKed.
    pub delivered: u64,
    /// State of each newly delivered segment that was outstanding:
    /// cumulatively ACKed ones ascending, then SACKed ones in block order.
    pub freed: Vec<T>,
    /// Segments newly queued for retransmission, ascending.
    pub lost: Vec<u32>,
}

/// Outstanding segments, SACKed set and retransmission queue of one sender.
#[derive(Clone, Debug, Default)]
pub struct SackScoreboard<T> {
    cum_ack: u32,
    /// Sent segments at or above the cumulative ACK (SACKed ones included).
    outstanding: BTreeMap<u32, T>,
    sacked: BTreeSet<u32>,
    rtx_queue: VecDeque<u32>,
    /// Exactly the members of `rtx_queue`, stale ones included.
    queued: BTreeSet<u32>,
    /// `|outstanding \ sacked|`.
    inflight: u64,
}

impl<T: Copy> SackScoreboard<T> {
    /// Cumulative ACK point: everything below is delivered.
    pub fn cum_ack(&self) -> u32 {
        self.cum_ack
    }

    /// Segments outstanding and not SACKed.
    pub fn inflight(&self) -> u64 {
        self.inflight
    }

    /// Anything sent and not yet cumulatively ACKed?
    pub fn has_outstanding(&self) -> bool {
        !self.outstanding.is_empty()
    }

    /// Is the retransmission queue non-empty (stale entries included)?
    pub fn has_queued(&self) -> bool {
        !self.rtx_queue.is_empty()
    }

    /// Pop the next retransmission, skipping stale entries.
    pub fn pop_retransmission(&mut self) -> Option<u32> {
        while let Some(s) = self.rtx_queue.pop_front() {
            self.queued.remove(&s);
            if s >= self.cum_ack && !self.sacked.contains(&s) {
                return Some(s);
            }
        }
        None
    }

    /// Record that `seq` left the sender with `state` (fresh or resent).
    pub fn on_send(&mut self, seq: u32, state: T) {
        if self.outstanding.insert(seq, state).is_none() && !self.sacked.contains(&seq) {
            self.inflight += 1;
        }
    }

    /// Apply an ACK's cumulative point and SACK blocks, then infer losses.
    pub fn on_ack(&mut self, cum_ack: u32, sack: &[SeqRange]) -> AckOutcome<T> {
        let mut out = AckOutcome {
            advanced: cum_ack > self.cum_ack,
            delivered: 0,
            freed: Vec::new(),
            lost: Vec::new(),
        };
        if out.advanced {
            let above = self.outstanding.split_off(&cum_ack);
            for (s, st) in std::mem::replace(&mut self.outstanding, above) {
                if !self.sacked.contains(&s) {
                    self.inflight -= 1;
                }
                out.freed.push(st);
            }
            out.delivered = out.freed.len() as u64;
            self.sacked = self.sacked.split_off(&cum_ack);
            self.cum_ack = cum_ack;
        }
        let mut any_sack = false;
        for s in sack.iter().flat_map(SeqRange::iter) {
            any_sack = true;
            if s >= self.cum_ack && self.sacked.insert(s) {
                out.delivered += 1;
                if let Some(&st) = self.outstanding.get(&s) {
                    self.inflight -= 1;
                    out.freed.push(st);
                }
            }
        }
        if any_sack {
            out.lost = self.infer_losses();
        }
        out
    }

    /// An un-SACKed segment has at least `DUPTHRESH` SACKs above it iff it
    /// lies below the `DUPTHRESH`-th highest SACK: only that prefix is walked.
    fn infer_losses(&mut self) -> Vec<u32> {
        let Some(&threshold) = self.sacked.iter().nth_back(DUPTHRESH - 1) else {
            return Vec::new();
        };
        let lost: Vec<u32> = self
            .outstanding
            .range(..threshold)
            .map(|(&s, _)| s)
            .filter(|s| !self.sacked.contains(s) && !self.queued.contains(s))
            .collect();
        for &s in &lost {
            self.rtx_queue.push_back(s);
            self.queued.insert(s);
        }
        lost
    }

    /// Retransmission timeout: queue the earliest outstanding segment at the
    /// front unless it is already queued. False when nothing is outstanding.
    pub fn on_rto(&mut self) -> bool {
        let Some(&seq) = self.outstanding.keys().next() else {
            return false;
        };
        if self.queued.insert(seq) {
            self.rtx_queue.push_front(seq);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jtp_sim::SimRng;

    /// The scoreboard as the senders used to scan it: full walks of
    /// `outstanding`, a per-segment count of higher SACKs and
    /// `VecDeque::contains` for queue membership.
    #[derive(Default)]
    struct Reference {
        cum_ack: u32,
        outstanding: BTreeMap<u32, u64>,
        sacked: BTreeSet<u32>,
        rtx_queue: VecDeque<u32>,
    }

    impl Reference {
        fn inflight(&self) -> u64 {
            self.outstanding
                .keys()
                .filter(|s| !self.sacked.contains(s))
                .count() as u64
        }

        fn pop_retransmission(&mut self) -> Option<u32> {
            loop {
                match self.rtx_queue.pop_front() {
                    Some(s) if s >= self.cum_ack && !self.sacked.contains(&s) => break Some(s),
                    Some(_) => continue,
                    None => break None,
                }
            }
        }

        fn on_ack(&mut self, cum_ack: u32, sack: &[SeqRange]) -> AckOutcome<u64> {
            let mut freed = Vec::new();
            let mut delivered = 0;
            let advanced = cum_ack > self.cum_ack;
            if advanced {
                let gone: Vec<(u32, u64)> = self
                    .outstanding
                    .range(..cum_ack)
                    .map(|(&s, &st)| (s, st))
                    .collect();
                delivered += gone.len() as u64;
                for (s, st) in gone {
                    self.outstanding.remove(&s);
                    freed.push(st);
                }
                self.sacked = self.sacked.split_off(&cum_ack);
                self.cum_ack = cum_ack;
            }
            let mut highest_sacked = None;
            for r in sack {
                for s in r.iter() {
                    if s >= self.cum_ack && self.sacked.insert(s) {
                        delivered += 1;
                        if let Some(&st) = self.outstanding.get(&s) {
                            freed.push(st);
                        }
                    }
                    highest_sacked = Some(highest_sacked.map_or(s, |h: u32| h.max(s)));
                }
            }
            let mut lost = Vec::new();
            if highest_sacked.is_some() {
                let candidates: Vec<u32> = self
                    .outstanding
                    .keys()
                    .copied()
                    .filter(|s| {
                        !self.sacked.contains(s)
                            && self.sacked.range((s + 1)..).count() >= DUPTHRESH
                    })
                    .collect();
                for s in candidates {
                    if !self.rtx_queue.contains(&s) {
                        self.rtx_queue.push_back(s);
                        lost.push(s);
                    }
                }
            }
            AckOutcome {
                advanced,
                delivered,
                freed,
                lost,
            }
        }

        fn on_rto(&mut self) -> bool {
            let Some((&seq, _)) = self.outstanding.iter().next() else {
                return false;
            };
            if !self.rtx_queue.contains(&seq) {
                self.rtx_queue.push_front(seq);
            }
            true
        }
    }

    /// Random SACK blocks around the live window, some below the cumulative
    /// ACK and some above anything sent.
    fn random_sack(rng: &mut SimRng, lo: u32, hi: u32) -> Vec<SeqRange> {
        (0..rng.below(4))
            .map(|_| {
                let start = lo.saturating_sub(2) + rng.below((hi - lo) as usize + 5) as u32;
                SeqRange {
                    start,
                    end: start + rng.below(6) as u32,
                }
            })
            .collect()
    }

    #[test]
    fn matches_brute_force_scans_on_random_operations() {
        for case in 0..300u64 {
            let mut rng = SimRng::derive_indexed(0x5ac4, "sack-scoreboard", case);
            let mut board = SackScoreboard::<u64>::default();
            let mut reference = Reference::default();
            let mut next_seq = 0u32;
            for step in 0..250u64 {
                let ctx = format!("case {case} step {step}");
                match rng.below(10) {
                    // Poll: a retransmission if one is queued, else fresh data.
                    0..=4 => {
                        let popped = board.pop_retransmission();
                        assert_eq!(popped, reference.pop_retransmission(), "{ctx}: pop");
                        let seq = popped.unwrap_or_else(|| {
                            next_seq += 1;
                            next_seq - 1
                        });
                        board.on_send(seq, step);
                        reference.outstanding.insert(seq, step);
                    }
                    // ACK: cumulative point anywhere up to `next_seq` (often
                    // unchanged), with or without SACK blocks.
                    5..=8 => {
                        let cum = if rng.chance(0.5) {
                            reference.cum_ack
                        } else {
                            let lo = reference.cum_ack.saturating_sub(1);
                            lo + rng.below((next_seq + 1 - lo) as usize) as u32
                        };
                        let sack = random_sack(&mut rng, cum, next_seq);
                        assert_eq!(
                            board.on_ack(cum, &sack),
                            reference.on_ack(cum, &sack),
                            "{ctx}: ack {cum} {sack:?}"
                        );
                    }
                    _ => assert_eq!(board.on_rto(), reference.on_rto(), "{ctx}: rto"),
                }
                assert_eq!(board.inflight(), reference.inflight(), "{ctx}: inflight");
                assert_eq!(board.cum_ack(), reference.cum_ack, "{ctx}: cum_ack");
                assert_eq!(board.rtx_queue, reference.rtx_queue, "{ctx}: rtx queue");
                assert_eq!(
                    board.has_outstanding(),
                    !reference.outstanding.is_empty(),
                    "{ctx}: outstanding"
                );
            }
            // Drain: the pop order agrees to the end.
            loop {
                let popped = board.pop_retransmission();
                assert_eq!(popped, reference.pop_retransmission(), "case {case}: drain");
                if popped.is_none() {
                    break;
                }
            }
        }
    }
}
