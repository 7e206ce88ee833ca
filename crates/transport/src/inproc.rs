//! In-process transport: the historical fabric wire expressed through the
//! [`Endpoint`]/[`Link`] contract.
//!
//! Frames never leave the address space — a send invokes the destination
//! endpoint's sink directly (after its `start`), preserving per-link FIFO
//! order exactly like a channel. Frames sent before the destination has
//! installed its sink are buffered and replayed in order at `start`.

use std::sync::Arc;

use parking_lot::Mutex;
use ttg_telemetry::Registry;

use crate::frame::Frame;
use crate::link::{Endpoint, Link, Rank, Sink, TransportError, TransportKind, TransportMetrics};

/// State shared by all endpoints of one in-process mesh.
struct Mesh {
    /// Per-destination sink plus its pre-start buffer of `(src, frame)`.
    inboxes: Vec<Mutex<Inbox>>,
}

#[derive(Default)]
struct Inbox {
    sink: Option<Sink>,
    pending: Vec<(Rank, Frame)>,
    closed: bool,
}

/// One rank's endpoint of an in-process mesh (see [`inproc_mesh`]).
pub struct InProcEndpoint {
    me: Rank,
    n: usize,
    mesh: Arc<Mesh>,
    metrics: TransportMetrics,
}

struct InProcLink {
    from: Rank,
    to: Rank,
    mesh: Arc<Mesh>,
    metrics: TransportMetrics,
}

impl Link for InProcLink {
    fn peer(&self) -> Rank {
        self.to
    }

    fn send(&self, frame: Frame) -> Result<(), TransportError> {
        // Cheap size proxy: only AM payloads have meaningful volume.
        let bytes = match &frame {
            Frame::Am { payload, .. } => payload.len() as u64 + 16,
            _ => 16,
        };
        let mut inbox = self.mesh.inboxes[self.to].lock();
        if inbox.closed {
            return Err(TransportError::Closed { peer: self.to });
        }
        match &inbox.sink {
            Some(sink) => {
                let sink = Arc::clone(sink);
                drop(inbox);
                self.metrics.tx_bytes.add(bytes);
                self.metrics.rx_bytes.add(bytes);
                sink(self.from, Ok(frame));
            }
            None => {
                inbox.pending.push((self.from, frame));
                let depth = inbox.pending.len();
                drop(inbox);
                self.metrics.note_queue_len(self.to, depth);
            }
        }
        Ok(())
    }
}

impl Endpoint for InProcEndpoint {
    fn rank(&self) -> Rank {
        self.me
    }

    fn n_ranks(&self) -> usize {
        self.n
    }

    fn kind(&self) -> TransportKind {
        TransportKind::InProc
    }

    fn link(&self, to: Rank) -> Arc<dyn Link> {
        assert!(to < self.n && to != self.me, "bad link target {to}");
        Arc::new(InProcLink {
            from: self.me,
            to,
            mesh: Arc::clone(&self.mesh),
            metrics: self.metrics.clone(),
        })
    }

    fn start(&self, sink: Sink) {
        let pending = {
            let mut inbox = self.mesh.inboxes[self.me].lock();
            inbox.sink = Some(Arc::clone(&sink));
            std::mem::take(&mut inbox.pending)
        };
        for (src, frame) in pending {
            sink(src, Ok(frame));
        }
    }

    fn shutdown(&self) {
        self.mesh.inboxes[self.me].lock().closed = true;
    }
}

/// Build an `n`-rank in-process mesh; element `r` is rank `r`'s endpoint.
/// All endpoints share `reg` for their transport counters.
pub fn inproc_mesh(n: usize, reg: &Registry) -> Vec<Arc<InProcEndpoint>> {
    let mesh = Arc::new(Mesh {
        inboxes: (0..n).map(|_| Mutex::new(Inbox::default())).collect(),
    });
    let metrics = TransportMetrics::register(reg, n);
    (0..n)
        .map(|me| {
            Arc::new(InProcEndpoint {
                me,
                n,
                mesh: Arc::clone(&mesh),
                metrics: metrics.clone(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as PMutex;

    #[test]
    fn frames_flow_and_prestart_sends_are_replayed_in_order() {
        let reg = Registry::new();
        let eps = inproc_mesh(2, &reg);
        // Send before rank 1 starts: buffered.
        let l = eps[0].link(1);
        for seq in 0..3 {
            l.send(Frame::AckRange {
                from: 0,
                ranges: vec![(seq, seq)],
            })
            .unwrap();
        }
        let got: Arc<PMutex<Vec<u64>>> = Arc::new(PMutex::new(Vec::new()));
        let g = Arc::clone(&got);
        eps[1].start(Arc::new(move |src, f| {
            assert_eq!(src, 0);
            if let Ok(Frame::AckRange { ranges, .. }) = f {
                g.lock().push(ranges[0].0);
            }
        }));
        l.send(Frame::AckRange {
            from: 0,
            ranges: vec![(3, 3)],
        })
        .unwrap();
        assert_eq!(*got.lock(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn shutdown_makes_sends_fail_closed() {
        let reg = Registry::new();
        let eps = inproc_mesh(2, &reg);
        eps[1].shutdown();
        let err = eps[0].link(1).send(Frame::TermDone).unwrap_err();
        assert_eq!(err, TransportError::Closed { peer: 1 });
    }
}
