//! Layer probes: time direct calls into one crate's public functions at
//! the workload's shapes. Each returns its value with the base it was
//! measured on.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ttg_comm::{from_bytes, to_bytes};
use ttg_linalg::{gemm_nt, Tile};
use ttg_runtime::{Job, Quiescence, SchedulerKind, WorkerPool};
use ttg_telemetry::Registry;
use ttg_transport::{local_mesh, Endpoint, Frame, Sink, TransportKind};

/// Repetitions of each probe; the median is reported.
const REPS: usize = 5;
/// Minimum time one repetition of a timed loop runs.
const MIN_LOOP: Duration = Duration::from_millis(40);

/// SplitMix64: the probes' input values.
struct SplitMix(u64);

impl SplitMix {
    fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// One probe result.
pub struct Probe {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// What the value was measured on.
    pub base: String,
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Nanoseconds per call of `f`, median over [`REPS`] timed loops.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    median(
        (0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                let mut calls = 0u64;
                while t0.elapsed() < MIN_LOOP {
                    f();
                    calls += 1;
                }
                t0.elapsed().as_nanos() as f64 / calls as f64
            })
            .collect(),
    )
}

fn random_tile(n: usize, rng: &mut SplitMix) -> Tile {
    Tile::from_data(n, n, (0..n * n).map(|_| rng.unit()).collect())
}

/// Single-thread rate of `gemm_nt`, Cholesky's dominant tile kernel.
pub fn gemm(n: usize) -> Probe {
    let mut rng = SplitMix::new(7);
    let (a, b) = (random_tile(n, &mut rng), random_tile(n, &mut rng));
    let mut c = Tile::zeros(n, n);
    let ns = ns_per_call(|| {
        gemm_nt(-1.0, black_box(&a), black_box(&b), &mut c);
        black_box(&mut c);
    });
    Probe {
        name: "linalg.gemm_gflops",
        value: 2.0 * (n * n * n) as f64 / ns,
        unit: "Gflop/s",
        base: format!("gemm_nt {n}x{n}x{n}, 1 thread"),
    }
}

/// `Wire` encode and decode of one workload-sized `Tile`.
pub fn wire(n: usize) -> [Probe; 2] {
    let tile = random_tile(n, &mut SplitMix::new(11));
    let bytes = to_bytes(&tile);
    let kib = bytes.len() as f64 / 1024.0;
    let enc = ns_per_call(|| {
        black_box(to_bytes(black_box(&tile)));
    });
    let dec = ns_per_call(|| {
        black_box(from_bytes::<Tile>(black_box(&bytes)).expect("decodes its own encoding"));
    });
    let base = format!("Tile {n}x{n}, {} bytes", bytes.len());
    [
        Probe {
            name: "comm.encode_ns_per_kib",
            value: enc / kib,
            unit: "ns/KiB",
            base: base.clone(),
        },
        Probe {
            name: "comm.decode_ns_per_kib",
            value: dec / kib,
            unit: "ns/KiB",
            base,
        },
    ]
}

/// Empty jobs through a one-worker `WorkerPool`: submit cost plus
/// dispatch, per job, one by one and in groups of 16.
pub fn submit(workers: usize) -> [Probe; 2] {
    const JOBS: u64 = 16_384;
    const GROUP: usize = 16;
    let q = Arc::new(Quiescence::new());
    let pool = WorkerPool::new(
        workers,
        SchedulerKind::WorkStealing,
        Arc::clone(&q),
        "probe",
    );
    let done = Arc::new(AtomicU64::new(0));
    let job = |done: &Arc<AtomicU64>| {
        let d = Arc::clone(done);
        Job::new(move || {
            d.fetch_add(1, Ordering::Relaxed);
        })
    };
    let time = |batched: bool| -> f64 {
        median(
            (0..REPS)
                .map(|_| {
                    done.store(0, Ordering::Relaxed);
                    let t0 = Instant::now();
                    if batched {
                        for _ in 0..JOBS as usize / GROUP {
                            pool.submit_batch((0..GROUP).map(|_| job(&done)).collect());
                        }
                    } else {
                        for _ in 0..JOBS {
                            pool.submit(job(&done));
                        }
                    }
                    while done.load(Ordering::Relaxed) < JOBS {
                        std::thread::yield_now();
                    }
                    t0.elapsed().as_nanos() as f64 / JOBS as f64
                })
                .collect(),
        )
    };
    let single = time(false);
    let batch = time(true);
    q.wait_quiescent();
    pool.shutdown();
    [
        Probe {
            name: "runtime.submit_ns",
            value: single,
            unit: "ns",
            base: format!("{JOBS} empty jobs, submit, {workers} worker"),
        },
        Probe {
            name: "runtime.submit_batch_ns",
            value: batch,
            unit: "ns",
            base: format!("{JOBS} empty jobs, submit_batch of {GROUP}, {workers} worker"),
        },
    ]
}

/// Round trip of one tile-sized AM frame between two endpoints of a
/// socket mesh, through the public `Endpoint`/`Link` API. `None` for the
/// in-process fabric, which runs on channels rather than a link layer.
pub fn rtt(kind: TransportKind, payload: usize) -> Option<Probe> {
    const TRIPS: usize = 400;
    if kind == TransportKind::InProc {
        return None;
    }
    let reg = Registry::new();
    let eps = local_mesh(kind, 2, &reg).expect("socket mesh bring-up");
    let back = eps[1].link(0);
    let echo: Sink = Arc::new(move |_src, frame| {
        if let Ok(f @ Frame::Am { .. }) = frame {
            back.send(f).expect("echo link open");
        }
    });
    let (tx, rx) = mpsc::channel::<()>();
    let tx = Mutex::new(tx);
    let arrive: Sink = Arc::new(move |_src, frame| {
        if let Ok(Frame::Am { .. }) = frame {
            let _ = tx.lock().expect("rtt sink lock").send(());
        }
    });
    eps[1].start(echo);
    eps[0].start(arrive);
    let out = eps[0].link(1);
    let body = vec![0x5au8; payload];
    let trip = || {
        let t0 = Instant::now();
        out.send(Frame::Am {
            from: 0,
            handler: 0,
            seq: 0,
            payload: body.clone(),
        })
        .expect("probe link open");
        rx.recv_timeout(Duration::from_secs(10))
            .expect("echo arrives");
        t0.elapsed().as_nanos() as f64
    };
    for _ in 0..TRIPS / 4 {
        trip();
    }
    let us = median((0..TRIPS).map(|_| trip()).collect()) / 1e3;
    for ep in &eps {
        ep.shutdown();
    }
    Some(Probe {
        name: "transport.rtt_us",
        value: us,
        unit: "us",
        base: format!("{kind} AM frame, {payload} B payload, median of {TRIPS}"),
    })
}
