//! Cross-crate integration tests: every application implementation against
//! every other and against serial references, across ranks and backends.

use ttg::apps::{bspmm, cholesky, floyd_warshall as fw, mra};
use ttg::comm::{CommErrorKind, FaultPlan, TransportSpec};
use ttg::linalg::TiledMatrix;
use ttg::simnet::{simulate, MachineModel};
use ttg::sparse::{generate, YukawaParams};

#[test]
fn cholesky_all_implementations_agree() {
    let a = TiledMatrix::random_spd(6, 8, 101);
    let mut reference = a.clone();
    reference.potrf_reference().unwrap();

    // TTG on both backends.
    for backend in [ttg::parsec::backend(), ttg::madness::backend()] {
        let cfg = cholesky::ttg::Config {
            ranks: 3,
            workers: 2,
            backend,
            trace: false,
            priorities: true,
            faults: None,
            transport: TransportSpec::InProc,
        };
        let (l, _) = cholesky::ttg::run(&a, &cfg);
        assert!(l.max_abs_diff(&reference) < 1e-9);
    }
    // PTG (DPLASMA-like).
    let (l, _) = cholesky::dplasma::run(&a, 2, 2, false);
    assert!(l.max_abs_diff(&reference) < 1e-9);
    // Bulk-synchronous comparators.
    for style in [
        cholesky::bulksync::Style::ScaLapack,
        cholesky::bulksync::Style::Slate,
        cholesky::bulksync::Style::Chameleon,
    ] {
        let (l, _) = cholesky::bulksync::run(&a, 4, style);
        assert!(l.max_abs_diff(&reference) < 1e-9, "{style:?}");
    }
}

#[test]
fn floyd_warshall_all_implementations_agree() {
    let g = fw::random_graph(5, 4, 0.3, 55);
    let expect = fw::reference(&g);
    assert!(fw::blocked_reference(&g).max_abs_diff(&expect) < 1e-12);

    for backend in [ttg::parsec::backend(), ttg::madness::backend()] {
        let cfg = fw::ttg::Config {
            ranks: 4,
            workers: 1,
            backend,
            trace: false,
        };
        let (d, _) = fw::ttg::run(&g, &cfg);
        assert!(d.max_abs_diff(&expect) < 1e-12);
    }
    let (d, _) = fw::mpi_openmp::run(&g, 4);
    assert!(d.max_abs_diff(&expect) < 1e-12);
}

#[test]
fn bspmm_all_implementations_agree() {
    let mut p = YukawaParams::small();
    p.atoms = 70;
    p.target_tile = 32;
    let a = generate(&p).matrix;
    let expect = a.multiply_reference(&a, 1e-8);

    for backend in [ttg::parsec::backend(), ttg::madness::backend()] {
        let cfg = bspmm::ttg::Config {
            ranks: 4,
            workers: 2,
            backend,
            trace: false,
            drop_tol: 1e-8,
            faults: None,
            transport: TransportSpec::InProc,
        };
        let (c, _) = bspmm::ttg::run(&a, &a, &cfg);
        assert!(c.max_abs_diff(&expect) < 1e-10);
    }
    for layers in [1, 2] {
        let (c, _) = bspmm::dbcsr::run(&a, &a, 8, layers, 1e-8);
        assert!(c.max_abs_diff(&expect) < 1e-10);
    }
}

#[test]
fn mra_all_implementations_agree() {
    let w = mra::Workload::gaussians(3, 5, 350.0, 1e-5, 21);
    let expect = mra::reference(&w);

    for backend in [ttg::parsec::backend(), ttg::madness::backend()] {
        let cfg = mra::ttg::Config {
            ranks: 3,
            workers: 2,
            backend,
            trace: false,
        };
        let res = mra::ttg::run(&w, &cfg);
        for i in 0..3 {
            assert!((res.norms[i] - expect.norms[i]).abs() < 1e-9);
            assert_eq!(res.leaves[i], expect.leaves[i]);
        }
    }
    let nat = mra::native::run_world(&w, 3, 2);
    for i in 0..3 {
        assert!((nat.norms[i] - expect.norms[i]).abs() < 1e-9);
        assert_eq!(nat.leaves[i], expect.leaves[i]);
    }
}

#[test]
fn projected_scaling_shapes_hold() {
    // The headline claims of the evaluation, checked end-to-end at small
    // scale: (1) task-based Cholesky beats bulk-synchronous on many nodes,
    // (2) TTG FW beats the MPI+OpenMP comparator, (3) native MADNESS MRA
    // stops scaling while TTG continues.
    let nodes = 16;

    // (1) Cholesky.
    let a = TiledMatrix::random_spd(12, 16, 7);
    let cfg = cholesky::ttg::Config {
        ranks: nodes,
        workers: 1,
        backend: ttg::parsec::backend(),
        trace: true,
        priorities: true,
        faults: None,
        transport: TransportSpec::InProc,
    };
    let (_, report) = cholesky::ttg::run(&a, &cfg);
    let machine = MachineModel::hawk(nodes);
    let ttg_time = simulate(
        &ttg::simnet::des::from_core_trace(report.trace.as_ref().unwrap()),
        &machine,
    )
    .makespan_ns;
    let (_, trace) = cholesky::bulksync::run(&a, nodes, cholesky::bulksync::Style::ScaLapack);
    let scalapack_time = simulate(&trace, &machine).makespan_ns;
    assert!(
        ttg_time < scalapack_time,
        "TTG {ttg_time} vs ScaLAPACK {scalapack_time}"
    );

    // (2) Floyd–Warshall.
    let g = fw::random_graph(8, 16, 0.3, 9);
    let cfg = fw::ttg::Config {
        ranks: nodes,
        workers: 1,
        backend: ttg::parsec::backend(),
        trace: true,
    };
    let (_, report) = fw::ttg::run(&g, &cfg);
    let ttg_time = simulate(
        &ttg::simnet::des::from_core_trace(report.trace.as_ref().unwrap()),
        &machine,
    )
    .makespan_ns;
    let (_, trace) = fw::mpi_openmp::run(&g, nodes);
    let mpi_time = simulate(&trace, &machine).makespan_ns;
    assert!(ttg_time < mpi_time, "TTG {ttg_time} vs MPI {mpi_time}");

    // (3) MRA: native-MADNESS speedup 4→16 nodes must trail TTG's.
    let w = mra::Workload::gaussians(6, 5, 900.0, 3e-5, 3);
    let run_ttg = |p: usize| {
        let cfg = mra::ttg::Config {
            ranks: p,
            workers: 1,
            backend: ttg::parsec::backend(),
            trace: true,
        };
        let res = mra::ttg::run(&w, &cfg);
        simulate(
            &ttg::simnet::des::from_core_trace(res.report.trace.as_ref().unwrap()),
            &MachineModel::hawk(p),
        )
        .makespan_ns as f64
    };
    let run_native = |p: usize| {
        simulate(&mra::native::run_trace(&w, p), &MachineModel::hawk(p)).makespan_ns as f64
    };
    let ttg_speedup = run_ttg(4) / run_ttg(16);
    let native_speedup = run_native(4) / run_native(16);
    assert!(
        ttg_speedup > native_speedup,
        "TTG 4→16 speedup {ttg_speedup:.2} vs native {native_speedup:.2}"
    );
}

#[test]
fn splitmd_only_on_parsec_backend() {
    let a = TiledMatrix::random_spd(4, 8, 12);
    let run = |backend| {
        let cfg = cholesky::ttg::Config {
            ranks: 2,
            workers: 1,
            backend,
            trace: false,
            priorities: false,
            faults: None,
            transport: TransportSpec::InProc,
        };
        cholesky::ttg::run(&a, &cfg).1.comm
    };
    let parsec = run(ttg::parsec::backend());
    let madness = run(ttg::madness::backend());
    assert!(parsec.rma_bytes > 0, "parsec uses splitmd RMA");
    assert_eq!(madness.rma_bytes, 0, "madness sends whole objects inline");
    assert!(madness.am_bytes > parsec.am_bytes);
    assert!(madness.data_copies > parsec.data_copies);
}

#[test]
fn kill_script_that_never_fires_warns_at_termination() {
    // 4×4 tiles on 3 ranks carry a few dozen inter-rank messages, far
    // below the kill threshold: the run completes fault-free and must say
    // so with a TTG056 warning instead of passing silently.
    let a = TiledMatrix::random_spd(4, 8, 7);
    let cfg = cholesky::ttg::Config {
        ranks: 3,
        workers: 2,
        backend: ttg::parsec::backend(),
        trace: false,
        priorities: true,
        faults: Some(
            FaultPlan::seeded(1)
                .with_kill(1, 1_000_000)
                .with_recovery(64),
        ),
        transport: TransportSpec::InProc,
    };
    let (l, r) = cholesky::ttg::run(&a, &cfg);
    assert!(cholesky::residual(&a, &l) < 1e-8);
    assert!(r.comm_errors.is_empty(), "{:?}", r.comm_errors);
    let unfired: Vec<_> = r
        .recovery_events
        .iter()
        .filter(|e| e.kind == CommErrorKind::KillNeverFired)
        .collect();
    assert_eq!(unfired.len(), 1, "{:?}", r.recovery_events);
    let d = ttg::check::comm_diagnostic(unfired[0]);
    assert_eq!(
        (d.code, d.severity),
        ("TTG056", ttg::check::Severity::Warning)
    );
    assert!(
        d.render().contains("kill=1@1000000 never fired"),
        "{}",
        d.render()
    );
}
