//! Counter-based distributed termination detection: the one global
//! detector multi-process runs use (DESIGN §9).
//!
//! Rank 0 coordinates in rounds. Each round it probes every rank for a
//! `TermObs`: the messages it has sent and received so far, its
//! activity epoch, and whether it is locally idle. Replies arrive at
//! different times, so one round is not a consistent cut: a message can
//! leave a rank after that rank replied and land at a rank before it
//! replies, and the round then looks balanced while the message is still
//! in flight. The detector therefore declares termination only after two
//! consecutive rounds of identical all-idle observations whose global sent
//! and received counts balance. Counters only grow, so identical replies
//! mean no rank sent, received or ran anything between its two replies;
//! every rank was therefore idle at the instant the first round closed,
//! and the balanced counts prove nothing was in flight at that instant.
//!
//! The module is pure state with no I/O: the fabric sends the probes,
//! feeds the replies in and broadcasts the verdict.

use std::fmt;

use crate::fabric::Rank;

/// One rank's reply to a termination probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TermObs {
    /// Inter-rank messages this rank has sent.
    pub(crate) sent: u64,
    /// Inter-rank messages this rank has received.
    pub(crate) recvd: u64,
    /// Activity epoch: bumps every time local work starts.
    pub(crate) epoch: u64,
    /// No task running or queued and no packet awaiting processing.
    pub(crate) idle: bool,
}

/// What the coordinator must do after a [`TermDetector::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TermStep {
    /// Send a probe carrying this round number to every other rank.
    Probe(u64),
    /// Replies are outstanding, or the round closed without a verdict.
    Wait,
    /// Global termination: broadcast it.
    Done,
}

/// Coordinator-side state of the detector.
#[derive(Debug)]
pub(crate) struct TermDetector {
    round: u64,
    probed: bool,
    replies: Vec<Option<TermObs>>,
    prev: Option<Vec<TermObs>>,
}

impl TermDetector {
    /// A detector for `n` ranks, before its first probe.
    pub(crate) fn new(n: usize) -> Self {
        TermDetector {
            round: 0,
            probed: false,
            replies: vec![None; n],
            prev: None,
        }
    }

    /// Record rank `from`'s reply to probe `round`; a reply to an earlier
    /// round is stale and ignored.
    pub(crate) fn reply(&mut self, from: Rank, round: u64, obs: TermObs) {
        if round == self.round {
            self.replies[from] = Some(obs);
        }
    }

    /// One coordinator step, given rank 0's current observation. Rank 0's
    /// own reply is refreshed on every poll so it is current when the last
    /// remote reply lands.
    pub(crate) fn poll(&mut self, own: TermObs) -> TermStep {
        if !self.probed {
            self.probed = true;
            return TermStep::Probe(self.round);
        }
        self.replies[0] = Some(own);
        let Some(cur) = self.replies.iter().copied().collect::<Option<Vec<_>>>() else {
            return TermStep::Wait;
        };
        let balanced = balance(&cur) == 0;
        if cur.iter().all(|o| o.idle) && balanced && self.prev.as_ref() == Some(&cur) {
            return TermStep::Done;
        }
        self.prev = Some(cur);
        self.replies.fill(None);
        self.round += 1;
        self.probed = false;
        TermStep::Wait
    }

    /// Why no verdict has been reached yet.
    pub(crate) fn stall(&self) -> TermStall {
        let last = self.prev.as_deref().unwrap_or_default();
        TermStall {
            rounds: self.round,
            busy: (0..last.len()).filter(|&r| !last[r].idle).collect(),
            missing: if self.probed {
                (1..self.replies.len())
                    .filter(|&r| self.replies[r].is_none())
                    .collect()
            } else {
                Vec::new()
            },
            balance: balance(last),
        }
    }
}

/// Σsent − Σrecvd over one round's observations.
fn balance(obs: &[TermObs]) -> i64 {
    obs.iter().map(|o| o.sent as i64 - o.recvd as i64).sum()
}

/// What a detector that has not declared termination has seen so far.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TermStall {
    /// Probe rounds completed without a verdict.
    pub rounds: u64,
    /// Ranks that were not idle in the last complete round.
    pub busy: Vec<Rank>,
    /// Ranks whose reply to the current round has not arrived.
    pub missing: Vec<Rank>,
    /// Σsent − Σrecvd in the last complete round; positive means messages
    /// were in flight.
    pub balance: i64,
}

impl fmt::Display for TermStall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} probe rounds without a verdict: busy ranks {:?}, awaiting replies \
             from {:?}, message balance {}",
            self.rounds, self.busy, self.missing, self.balance
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IDLE: TermObs = TermObs {
        sent: 0,
        recvd: 0,
        epoch: 0,
        idle: true,
    };

    /// Every rank's live counters plus a coordinator that collects each
    /// round's replies all at once.
    struct Sim {
        obs: Vec<TermObs>,
        det: TermDetector,
    }

    impl Sim {
        fn new(n: usize) -> Sim {
            Sim {
                obs: vec![IDLE; n],
                det: TermDetector::new(n),
            }
        }

        fn send(&mut self, from: Rank) {
            self.obs[from].sent += 1;
        }

        fn deliver(&mut self, to: Rank) {
            self.obs[to].recvd += 1;
            self.obs[to].epoch += 1;
        }

        /// Probe, let every rank reply, close the round. True on a verdict.
        fn round(&mut self) -> bool {
            let TermStep::Probe(round) = self.det.poll(self.obs[0]) else {
                panic!("round must open with a probe");
            };
            for r in 1..self.obs.len() {
                self.det.reply(r, round, self.obs[r]);
            }
            self.det.poll(self.obs[0]) == TermStep::Done
        }

        /// Rounds until the verdict, or the stall report after `max`.
        fn drive(&mut self, max: u64) -> Result<u64, TermStall> {
            for n in 1..=max {
                if self.round() {
                    return Ok(n);
                }
            }
            Err(self.det.stall())
        }
    }

    #[test]
    fn quiet_ranks_terminate_after_two_rounds() {
        assert_eq!(Sim::new(4).drive(10), Ok(2));
    }

    #[test]
    fn no_detection_while_a_message_is_outstanding() {
        let mut sim = Sim::new(3);
        sim.send(1);
        for _ in 0..10 {
            assert!(!sim.round());
        }
        sim.deliver(2);
        sim.drive(10).expect("terminates once the message lands");
    }

    #[test]
    fn a_rank_that_never_goes_idle_is_named_in_the_stall() {
        let mut sim = Sim::new(4);
        sim.obs[2].idle = false;
        let stall = sim.drive(100).expect_err("rank 2 is busy");
        assert_eq!(stall.rounds, 100);
        assert_eq!(stall.busy, vec![2]);
        assert!(stall.missing.is_empty());
        assert_eq!(stall.balance, 0);
        let msg = stall.to_string();
        assert!(msg.contains("busy ranks [2]"), "message was: {msg}");
    }

    #[test]
    fn a_lost_message_shows_a_balance_of_one_until_delivered() {
        let mut sim = Sim::new(3);
        sim.send(1);
        let stall = sim.drive(50).expect_err("a message is in flight");
        assert!(stall.busy.is_empty());
        assert_eq!(stall.balance, 1);
        assert!(stall.to_string().contains("message balance 1"));
        sim.deliver(2);
        sim.drive(10).expect("terminates once the message lands");
    }

    #[test]
    fn missing_replies_are_named_in_the_stall() {
        let mut det = TermDetector::new(3);
        assert_eq!(det.poll(IDLE), TermStep::Probe(0));
        det.reply(2, 0, IDLE);
        assert_eq!(det.poll(IDLE), TermStep::Wait);
        assert_eq!(det.stall().missing, vec![1]);
    }

    #[test]
    fn many_ranks_with_message_churn_terminate() {
        let n = 8;
        let mut sim = Sim::new(n);
        for r in 0..n {
            sim.send(r);
            assert!(!sim.round(), "declared with a message in flight");
            sim.deliver((r + 1) % n);
            assert!(!sim.round(), "declared on a changed round");
        }
        sim.drive(10).expect("terminates once the churn stops");
    }

    #[test]
    fn a_balanced_round_with_a_message_in_flight_is_not_a_verdict() {
        // Replies gathered at different times make one round look balanced
        // and idle while a message is in flight (the `term_counter` model's
        // counterexample to a single-round rule). Ranks: A = 1, B = 2,
        // C = 0 (the coordinator).
        let mut sim = Sim::new(3);
        let TermStep::Probe(round) = sim.det.poll(sim.obs[0]) else {
            panic!("first poll probes");
        };
        sim.det.reply(1, round, sim.obs[1]); // A idle at (s0, r0)
        sim.send(2); // B → A: m1
        sim.deliver(1);
        sim.send(1); // A → C: m2
        sim.send(1); // A → B: m3, left in flight
        sim.deliver(0);
        sim.det.reply(2, round, sim.obs[2]); // B idle at (s1, r0)
        assert_eq!(sim.det.poll(sim.obs[0]), TermStep::Wait); // C at (s0, r1)
        assert!(!sim.round(), "declared with m3 in flight");
        assert_eq!(sim.det.stall().balance, 1);
        sim.deliver(2);
        assert_eq!(sim.drive(10), Ok(2));
    }
}
