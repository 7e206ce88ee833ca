//! The counter-based termination detector driven over real sockets:
//! remote-mode fabrics in one process, one per rank, each seeing its peers
//! only through a socket endpoint, exactly as in a multi-process job. A
//! wave of basic messages circles the ring while rank 0 probes for
//! termination; the verdict must wait for the whole wave, and a stalled
//! detector must name what blocks it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ttg::comm::{Fabric, Packet, RemoteHandle, TransportKind, TransportSpec};
use ttg::telemetry::Registry;
use ttg::transport::Endpoint;

const AM_BASIC: u32 = 1;
/// Basic messages in the wave: rank 0's seed plus this many forwards.
const HOPS: u64 = 12;

#[test]
fn term_detects_termination_over_the_fabric() {
    let n = 4;
    let reg = Arc::new(Registry::new());
    let endpoints = ttg::transport::local_mesh(TransportKind::Tcp, n, &reg).unwrap();
    let processed = Arc::new(AtomicU64::new(0));
    let at_verdict = Arc::new(AtomicU64::new(0));
    let all_done = Arc::new(Barrier::new(n));

    let ranks: Vec<_> = endpoints
        .iter()
        .enumerate()
        .map(|(rank, ep)| {
            let handle = RemoteHandle {
                endpoint: Arc::clone(ep) as Arc<dyn Endpoint>,
                registry: Arc::clone(&reg),
            };
            let fabric = Fabric::with_transport(n, None, &TransportSpec::Remote(handle)).unwrap();
            let (processed, at_verdict, all_done) = (
                Arc::clone(&processed),
                Arc::clone(&at_verdict),
                Arc::clone(&all_done),
            );
            std::thread::spawn(move || {
                let rx = fabric.take_receiver(rank);
                // Busy from the moment a packet is taken until it is
                // processed; the fabric adds its own in-flight count.
                let busy = Arc::new(AtomicBool::new(false));
                let epoch = Arc::new(AtomicU64::new(0));
                let (b, e) = (Arc::clone(&busy), Arc::clone(&epoch));
                fabric.install_idle_probe(Box::new(move || {
                    (!b.load(Ordering::SeqCst), e.load(Ordering::SeqCst))
                }));
                if rank == 0 {
                    fabric.send_am(0, 1, AM_BASIC, vec![1]).unwrap();
                }
                let give_up = Instant::now() + Duration::from_secs(60);
                while !fabric.drive_termination() {
                    assert!(Instant::now() < give_up, "rank {rank}: no verdict");
                    let Ok(Packet::Am { handler, .. }) = rx.try_recv() else {
                        std::thread::sleep(Duration::from_micros(50));
                        continue;
                    };
                    busy.store(true, Ordering::SeqCst);
                    epoch.fetch_add(1, Ordering::SeqCst);
                    assert_eq!(handler, AM_BASIC);
                    if processed.fetch_add(1, Ordering::SeqCst) < HOPS {
                        let next = (rank + 1) % n;
                        fabric.send_am(rank, next, AM_BASIC, vec![1]).unwrap();
                    }
                    fabric.packet_processed();
                    busy.store(false, Ordering::SeqCst);
                }
                if rank == 0 {
                    at_verdict.store(processed.load(Ordering::SeqCst), Ordering::SeqCst);
                }
                // Tear down only once every rank has heard the verdict, so
                // no link closes under a rank still waiting for it.
                all_done.wait();
                assert!(fabric.take_errors().is_empty(), "rank {rank}");
                fabric.shutdown_all();
            })
        })
        .collect();
    for r in ranks {
        r.join().unwrap();
    }
    assert_eq!(
        at_verdict.load(Ordering::SeqCst),
        HOPS + 1,
        "termination declared before the wave finished"
    );
}

#[test]
fn term_stall_names_a_rank_that_never_goes_idle() {
    let reg = Arc::new(Registry::new());
    let endpoints = ttg::transport::local_mesh(TransportKind::Uds, 2, &reg).unwrap();
    let fabrics: Vec<_> = endpoints
        .iter()
        .map(|ep| {
            let handle = RemoteHandle {
                endpoint: Arc::clone(ep) as Arc<dyn Endpoint>,
                registry: Arc::clone(&reg),
            };
            Fabric::with_transport(2, None, &TransportSpec::Remote(handle)).unwrap()
        })
        .collect();
    // Rank 1 installs no idle probe, so it always reports busy.
    fabrics[0].install_idle_probe(Box::new(|| (true, 0)));
    let give_up = Instant::now() + Duration::from_secs(30);
    let stall = loop {
        assert!(!fabrics[0].drive_termination(), "declared with rank 1 busy");
        let stall = fabrics[0].term_stall().expect("rank 0 runs the detector");
        if stall.rounds >= 3 {
            break stall;
        }
        assert!(Instant::now() < give_up, "probe rounds stalled: {stall}");
        std::thread::sleep(Duration::from_micros(200));
    };
    assert_eq!(stall.busy, vec![1]);
    assert_eq!(stall.balance, 0);
    assert!(fabrics[1].term_stall().is_none());
    for f in &fabrics {
        f.shutdown_all();
    }
}
