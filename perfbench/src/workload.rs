//! The benchmark's workloads: inputs made from the seed, the reference
//! factor and analytic task counts (built once, outside the timed region),
//! one call into the app's public `run`, and the check of its output.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ttg_apps::cholesky;
use ttg_comm::{FaultPlan, TransportKind, TransportSpec};
use ttg_core::ExecReport;
use ttg_linalg::TiledMatrix;

/// Ranks per run: one process, two logical ranks.
pub const RANKS: usize = 2;
/// Worker threads per rank.
pub const WORKERS: usize = 1;
/// Cholesky residual bound `‖A − L·Lᵀ‖_max` (the bound the examples use).
const CHOLESKY_TOL: f64 = 1e-8;

/// A workload by name.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    PotrfCoarse,
    PotrfFineUds,
    PotrfCkptUds,
}

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        Some(match s {
            "potrf_coarse" => Kind::PotrfCoarse,
            "potrf_fine_uds" => Kind::PotrfFineUds,
            "potrf_ckpt_uds" => Kind::PotrfCkptUds,
            _ => return None,
        })
    }

    /// Link layer the workload's inter-rank traffic crosses.
    pub fn transport(self) -> TransportKind {
        match self {
            Kind::PotrfCoarse => TransportKind::InProc,
            Kind::PotrfFineUds | Kind::PotrfCkptUds => TransportKind::Uds,
        }
    }
}

/// What one call into the app produced.
pub struct Outcome {
    /// Wall time of the app's `run` call.
    pub wall: Duration,
    pub report: ExecReport,
    /// The factor's residual `‖A − L·Lᵀ‖_max`, or a bound on it.
    pub error: f64,
    /// Why the run failed; empty when it passed.
    pub problems: Vec<String>,
}

/// A workload's inputs and everything needed to check one of its runs.
pub struct Problem {
    a: TiledMatrix,
    cfg: cholesky::ttg::Config,
    /// Sequential reference factor and its residual.
    l_ref: TiledMatrix,
    res_ref: f64,
    /// `max |L_ref|`, for the residual bound of a run's factor.
    l_ref_max: f64,
    expect: BTreeMap<&'static str, u64>,
}

impl Problem {
    /// Build the inputs of `kind` from `seed`, with its reference factor.
    pub fn build(kind: Kind, seed: u64) -> Problem {
        let (nt, nb, backend) = match kind {
            Kind::PotrfCoarse => (12, 192, ttg_parsec::backend()),
            Kind::PotrfFineUds | Kind::PotrfCkptUds => (64, 32, ttg_madness::backend()),
        };
        let a = TiledMatrix::random_spd(nt, nb, seed);
        let mut l_ref = a.clone();
        l_ref
            .potrf_reference()
            .expect("random_spd input is positive definite");
        let res_ref = cholesky::residual(&a, &l_ref);
        let l_ref_max = max_abs(&l_ref);
        let faults = (kind == Kind::PotrfCkptUds).then(|| {
            // Recovery armed at the cadence the recovery gate uses; no
            // fault is injected.
            FaultPlan::parse(&format!("seed={seed},recover=64")).expect("valid fault spec")
        });
        let cfg = cholesky::ttg::Config {
            ranks: RANKS,
            workers: WORKERS,
            backend,
            trace: false,
            priorities: true,
            faults,
            transport: TransportSpec::mesh(kind.transport()),
        };
        Problem {
            a,
            cfg,
            l_ref,
            res_ref,
            l_ref_max,
            expect: cholesky_counts(nt as u64),
        }
    }

    /// Tile edge of the workload, the shape its probes run at.
    pub fn tile_edge(&self) -> usize {
        self.a.nb()
    }

    /// Expected per-template task counts.
    pub fn expected_counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.expect
    }

    /// One call into the app's public `run`, with its output checked.
    pub fn run(&self) -> Outcome {
        let t0 = Instant::now();
        let (l, report) = cholesky::ttg::run(&self.a, &self.cfg);
        // `wall` times the app's `run` alone, not the output check after it.
        let wall = t0.elapsed();
        // ‖A − L·Lᵀ‖ ≤ ‖A − R·Rᵀ‖ + n·(2·max|R|·δ + δ²) with R the
        // reference factor and δ = max |L − R|: the residual bound without
        // an O(n³) product per run.
        let delta = max_abs_diff(&l, &self.l_ref);
        let n = self.a.n() as f64;
        let mut error = self.res_ref + n * (2.0 * self.l_ref_max * delta + delta * delta);
        let mut problems = self.report_problems(&report);
        // A clean run whose factor differs from R by more rounding than the
        // bound allows is judged on its exact residual.
        let over = |e: f64| e.is_nan() || e > CHOLESKY_TOL;
        if over(error) && problems.is_empty() {
            error = cholesky::residual(&self.a, &l);
        }
        if over(error) {
            problems.push(format!("residual {error:.3e} > {CHOLESKY_TOL:e}"));
        }
        Outcome {
            wall,
            report,
            error,
            problems,
        }
    }

    /// What makes a report unclean: comm errors, stuck keys, sanitizer
    /// violations, or per-template task counts off the analytic ones.
    fn report_problems(&self, r: &ExecReport) -> Vec<String> {
        let mut out = Vec::new();
        if !r.comm_errors.is_empty() {
            let mut kinds = BTreeMap::<String, usize>::new();
            for e in &r.comm_errors {
                *kinds.entry(format!("{:?}", e.kind)).or_default() += 1;
            }
            out.push(format!("comm errors {kinds:?}"));
        }
        if !r.stuck.is_empty() {
            out.push(format!("{} stuck keys", r.stuck.len()));
        }
        if !r.violations.is_empty() {
            out.push(format!("{} violations", r.violations.len()));
        }
        let got: BTreeMap<&str, u64> = r.per_node.iter().copied().collect();
        for (name, &want) in self.expected_counts() {
            let have = got.get(name).copied().unwrap_or(0);
            if have != want {
                out.push(format!("{name}: {have} tasks, expected {want}"));
            }
        }
        out
    }
}

/// Per-template task counts of tiled Cholesky on an `nt × nt` grid.
fn cholesky_counts(nt: u64) -> BTreeMap<&'static str, u64> {
    let tri = nt * (nt + 1) / 2;
    let off = nt * (nt - 1) / 2;
    BTreeMap::from([
        ("INITIATOR", tri),
        ("POTRF", nt),
        ("TRSM", off),
        ("SYRK", off),
        ("GEMM", nt * (nt - 1) * (nt.saturating_sub(2)) / 6),
        ("RESULT", tri),
    ])
}

fn max_abs(m: &TiledMatrix) -> f64 {
    let nt = m.nt();
    (0..nt)
        .flat_map(|i| (0..nt).map(move |j| (i, j)))
        .flat_map(|(i, j)| m.tile(i, j).data().iter().map(|x| x.abs()))
        .fold(0.0, f64::max)
}

fn max_abs_diff(x: &TiledMatrix, y: &TiledMatrix) -> f64 {
    let nt = x.nt();
    (0..nt)
        .flat_map(|i| (0..nt).map(move |j| (i, j)))
        .map(|(i, j)| x.tile(i, j).max_abs_diff(y.tile(i, j)))
        .fold(0.0, f64::max)
}
