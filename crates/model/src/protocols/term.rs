//! Model of the counter-based distributed termination detector
//! (`crates/comm/src/term.rs`, driven by `Fabric::drive_termination`).
//!
//! Three ranks exchange a short chain of messages while a coordinator
//! probes them one at a time, so each round's replies are taken at
//! different instants, as over a real wire. Rank B starts busy and sends
//! m1 to A; A answers m1 with m2 to C and m3 to B. A reply is a rank's
//! (sent, received, idle) triple, and the coordinator declares Done after
//! two consecutive identical all-idle rounds whose counts balance.
//! Invariants over all interleavings:
//! - Done is never declared while a rank is active or a message is in
//!   flight;
//! - once every rank has gone quiet, two more rounds reach the verdict.
//!
//! [`Mutation::SingleRound`] declares on the first balanced all-idle
//! round. The checker finds the schedule where A is observed idle before
//! m1 arrives, C is observed after receiving m2, and B is observed idle
//! with m3 still in flight: the round balances (1 sent, 1 received) while
//! a message is outstanding.

use crate::explore::{explore, Config, Stats, Violation};
use crate::shadow::{Condvar, Mutex};
use crate::thread;
use std::sync::Arc;

/// Known-bad variants of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// The correct two-round rule.
    None,
    /// Declare on the first balanced all-idle round.
    SingleRound,
}

/// Ranks in the order the coordinator probes them.
const A: usize = 0;
const C: usize = 1;
const B: usize = 2;
const RANKS: usize = 3;

/// Probe rounds the concurrent coordinator runs (the verdict needs two).
const ROUNDS: usize = 2;

/// Ground truth, one lock so every rank step and every probe is atomic.
#[derive(Default)]
struct World {
    sent: [u64; RANKS],
    recvd: [u64; RANKS],
    active: [bool; RANKS],
    /// Per rank: messages delivered to it but not yet received.
    inbox: [u64; RANKS],
}

struct Shared {
    world: Mutex<World>,
    arrived: Condvar,
}

/// Send one message to each of `to`, then optionally go idle, as one step.
fn send(sh: &Shared, from: usize, to: &[usize], then_idle: bool) {
    let mut w = sh.world.lock();
    for &t in to {
        w.sent[from] += 1;
        w.inbox[t] += 1;
    }
    w.active[from] = !then_idle;
    drop(w);
    sh.arrived.notify_all();
}

/// Block until a message is waiting, then take it and become active.
fn receive(sh: &Shared, me: usize) {
    let mut w = sh.world.lock();
    while w.inbox[me] == 0 {
        sh.arrived.wait(&mut w);
    }
    w.inbox[me] -= 1;
    w.recvd[me] += 1;
    w.active[me] = true;
}

fn rank(sh: &Shared, me: usize) {
    match me {
        B => {
            send(sh, B, &[A], true); // m1, B's initial work
            receive(sh, B); // m3
        }
        A => {
            receive(sh, A); // m1
            send(sh, A, &[C, B], false); // m2, m3
        }
        _ => receive(sh, C), // m2
    }
    sh.world.lock().active[me] = false;
}

/// One coordinator round: probe every rank in turn, then decide. Returns
/// true on a Done verdict, which is checked against the ground truth at
/// that instant. `prev` carries the last complete round's replies, each a
/// (sent, received, idle) triple.
fn round(sh: &Shared, prev: &mut Option<Vec<(u64, u64, bool)>>, mutation: Mutation) -> bool {
    let cur: Vec<_> = (0..RANKS)
        .map(|r| {
            let w = sh.world.lock();
            (w.sent[r], w.recvd[r], !w.active[r])
        })
        .collect();
    let idle = cur.iter().all(|o| o.2);
    let balanced = cur.iter().map(|o| o.0).sum::<u64>() == cur.iter().map(|o| o.1).sum();
    let stable = mutation == Mutation::SingleRound || prev.as_ref() == Some(&cur);
    *prev = Some(cur);
    if !(idle && balanced && stable) {
        return false;
    }
    let w = sh.world.lock();
    let busy: Vec<usize> = (0..RANKS).filter(|&r| w.active[r]).collect();
    let in_flight: u64 = w.inbox.iter().sum();
    assert!(
        busy.is_empty() && in_flight == 0,
        "Done declared early: busy ranks {busy:?}, {in_flight} message(s) in flight"
    );
    true
}

fn model(mutation: Mutation) {
    let mut world = World::default();
    world.active[B] = true;
    let sh = Arc::new(Shared {
        world: Mutex::named(world, "world"),
        arrived: Condvar::new(),
    });
    let ranks: Vec<_> = [(A, "A"), (C, "C"), (B, "B")]
        .into_iter()
        .map(|(me, name)| {
            let sh = Arc::clone(&sh);
            thread::spawn_named(name, move || rank(&sh, me))
        })
        .collect();
    let coord = {
        let sh = Arc::clone(&sh);
        thread::spawn_named("coordinator", move || {
            let mut prev = None;
            let done = (0..ROUNDS).any(|_| round(&sh, &mut prev, mutation));
            (prev, done)
        })
    };
    for r in ranks {
        r.join();
    }
    let (mut prev, done) = coord.join();
    // Liveness: with every rank quiet, two more rounds must decide.
    assert!(
        done || round(&sh, &mut prev, mutation) || round(&sh, &mut prev, mutation),
        "no verdict within two rounds of quiescence"
    );
}

/// Explore the protocol under `cfg`.
pub fn check(cfg: Config, mutation: Mutation) -> Result<Stats, Box<Violation>> {
    explore(cfg, move || model(mutation))
}
