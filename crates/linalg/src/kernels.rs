//! Sequential BLAS/LAPACK-like tile kernels: the four operations of tiled
//! Cholesky (POTRF, TRSM, SYRK, GEMM), general matrix multiply, and the
//! min-plus product of blocked Floyd–Warshall. They stand in for the MKL
//! kernels of the paper's testbeds.
//!
//! # One micro-kernel
//!
//! Every product — GEMM in both transposes, SYRK, and the trailing update
//! of the column-blocked TRSM — runs through one register-blocked
//! micro-kernel. It holds an `MR × NR` (8 × 4) block of
//! `acc[i, j] = Σ_l A[i, l]·B[j, l]` in registers, accumulates it over the
//! whole inner dimension in ascending `l` starting from zero, and then does
//! `C += α·acc` once. Its operands are strided views (offset, leading
//! dimension and orientation) that are packed into contiguous panels first,
//! zero-padded to whole blocks, so ragged edges run the same code and only
//! the valid part of a block is written back. SYRK uses the same blocks
//! and writes back only their lower triangle. POTRF is left-looking with
//! unit-stride axpy columns, four source columns per pass.
//!
//! # Two instances, one result
//!
//! The kernel bodies are written once and compiled twice, through
//! [`Call::run`]: a portable instance for the build's baseline target and,
//! on x86-64, an AVX2 instance chosen at run time when
//! `is_x86_feature_detected!("avx2")` holds. Nothing else selects the
//! instance — no environment variable, cargo feature or option.
//!
//! The kernels never call `mul_add`, and Rust never fuses a multiply and an
//! add into an FMA on its own, so both instances perform the same IEEE
//! operations in the same order: a result is bit-identical whichever
//! instance computed it. The tests check this with `to_bits` equality.

use std::cell::RefCell;

use crate::tile::Tile;
pub(crate) use isa::Isa;

/// Rows of the register block: two AVX2 vectors per column of `C`.
const MR: usize = 8;

/// Columns of the register block.
const NR: usize = 4;

/// Column-block width of TRSM. The solve inside a block is axpy work; the
/// update of the columns right of it is a micro-kernel product `TB` deep.
const TB: usize = 16;

mod isa {
    use super::Call;

    /// An instance of the kernel bodies. The AVX2 instance can only be
    /// obtained from [`Isa::avx2`], after the CPU reported the feature.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(crate) struct Isa {
        avx2: bool,
    }

    impl Isa {
        /// The instance compiled for the build's baseline target.
        pub(crate) const PORTABLE: Isa = Isa { avx2: false };

        /// The AVX2 instance, if this CPU supports it.
        pub(crate) fn avx2() -> Option<Isa> {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                return Some(Isa { avx2: true });
            }
            None
        }

        /// The fastest instance this CPU supports.
        pub(crate) fn detect() -> Isa {
            Isa::avx2().unwrap_or(Isa::PORTABLE)
        }

        /// Runs `call` on this instance. Returns the pivot at which POTRF
        /// found its tile not positive definite, `None` otherwise.
        pub(crate) fn run(self, call: Call<'_>) -> Option<usize> {
            match self.avx2 {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `avx2` is true only in an `Isa` made by
                // `Isa::avx2`, after `is_x86_feature_detected!("avx2")`
                // reported the feature on this CPU.
                true => unsafe { run_avx2(call) },
                _ => call.run(),
            }
        }
    }

    /// [`Call::run`] compiled with AVX2 enabled.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn run_avx2(call: Call<'_>) -> Option<usize> {
        call.run()
    }
}

/// One kernel call: which body to run, on which arguments.
pub(crate) enum Call<'a> {
    GemmNn(f64, &'a Tile, &'a Tile, &'a mut Tile),
    GemmNt(f64, &'a Tile, &'a Tile, &'a mut Tile),
    SyrkLn(&'a Tile, &'a mut Tile),
    TrsmRlt(&'a Tile, &'a mut Tile),
    PotrfL(&'a mut Tile),
    Minplus(&'a Tile, &'a Tile, &'a mut Tile),
}

impl Call<'_> {
    /// The only caller of the kernel bodies: both instances inline them
    /// from here, so each is compiled once per instance.
    #[inline(always)]
    fn run(self) -> Option<usize> {
        match self {
            Call::GemmNn(alpha, a, b, c) => gemm_nn_body(alpha, a, b, c),
            Call::GemmNt(alpha, a, b, c) => gemm_nt_body(alpha, a, b, c),
            Call::SyrkLn(a, c) => syrk_ln_body(a, c),
            Call::TrsmRlt(l, a) => trsm_rlt_body(l, a),
            Call::PotrfL(a) => return potrf_l_body(a),
            Call::Minplus(a, b, c) => minplus_body(a, b, c),
        }
        None
    }
}

thread_local! {
    /// The packed panels `(A, B)` of this thread's kernel calls, kept
    /// between calls: tile-sized buffers allocated and freed per call
    /// raised the peak RSS of a 12×12-tile, 192² Cholesky by ~6%.
    static PANELS: RefCell<(Vec<f64>, Vec<f64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Read-only strided view of a matrix: element `(r, c)` is
/// `data[off + r·rs + c·cs]`.
#[derive(Clone, Copy)]
struct View<'a> {
    data: &'a [f64],
    off: usize,
    rs: usize,
    cs: usize,
}

impl<'a> View<'a> {
    /// The column-major matrix with leading dimension `ld`, from element
    /// `(r0, c0)` on.
    fn at(data: &'a [f64], ld: usize, r0: usize, c0: usize) -> Self {
        View {
            data,
            off: r0 + c0 * ld,
            rs: 1,
            cs: ld,
        }
    }

    /// The transpose of the column-major matrix with leading dimension `ld`.
    fn transposed(data: &'a [f64], ld: usize) -> Self {
        View {
            data,
            off: 0,
            rs: ld,
            cs: 1,
        }
    }

    #[inline(always)]
    fn get(&self, r: usize, c: usize) -> f64 {
        self.data[self.off + r * self.rs + c * self.cs]
    }
}

/// Packs rows `r0..r0 + R` of the first `k` columns of `src` into `out`,
/// `R` values per column; rows at or past `rows` become zero.
#[inline(always)]
fn pack<const R: usize>(src: View<'_>, r0: usize, rows: usize, k: usize, out: &mut [f64]) {
    let whole = r0 + R <= rows && src.rs == 1;
    for (l, dst) in out[..k * R].chunks_exact_mut(R).enumerate() {
        if whole {
            let s = src.off + r0 + l * src.cs;
            dst.copy_from_slice(&src.data[s..s + R]);
        } else {
            for (r, d) in dst.iter_mut().enumerate() {
                *d = if r0 + r < rows {
                    src.get(r0 + r, l)
                } else {
                    0.0
                };
            }
        }
    }
}

/// The micro-kernel: `acc[j][i] = Σ_l a[l][i]·b[l][j]` over two packed
/// panels, accumulated from zero in ascending `l`.
#[inline(always)]
fn micro(a: &[f64], b: &[f64]) -> [[f64; MR]; NR] {
    let mut acc = [[0.0; MR]; NR];
    for (al, bl) in a.chunks_exact(MR).zip(b.chunks_exact(NR)) {
        for j in 0..NR {
            for i in 0..MR {
                acc[j][i] += al[i] * bl[j];
            }
        }
    }
    acc
}

/// `C[i, j] += α·Σ_l A[i, l]·B[j, l]` for the `m × n` column-major block
/// `c` (leading dimension `ldc`) with `k`-deep operands. With `lower` only
/// the elements `i ≥ j` are updated.
#[inline(always)]
fn gemm_blocked(
    alpha: f64,
    (m, n, k): (usize, usize, usize),
    a: View<'_>,
    b: View<'_>,
    c: &mut [f64],
    ldc: usize,
    lower: bool,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let (mut ap, mut bp) = PANELS.take();
    bp.resize(n.div_ceil(NR) * NR * k, 0.0);
    for (jb, panel) in bp.chunks_exact_mut(NR * k).enumerate() {
        pack::<NR>(b, jb * NR, n, k, panel);
    }
    ap.resize(MR * k, 0.0);
    for i0 in (0..m).step_by(MR) {
        pack::<MR>(a, i0, m, k, &mut ap);
        let rows = MR.min(m - i0);
        for (jb, panel) in bp.chunks_exact(NR * k).enumerate() {
            let j0 = jb * NR;
            if lower && j0 >= i0 + rows {
                break;
            }
            let acc = micro(&ap, panel);
            for (j, accj) in acc.iter().enumerate().take(n - j0) {
                let col = &mut c[(j0 + j) * ldc + i0..][..rows];
                let first = if lower {
                    (j0 + j).saturating_sub(i0)
                } else {
                    0
                };
                for i in first..rows {
                    col[i] += alpha * accj[i];
                }
            }
        }
    }
    PANELS.set((ap, bp));
}

/// `C += alpha * A * B` (no transposes).
pub fn gemm_nn(alpha: f64, a: &Tile, b: &Tile, c: &mut Tile) {
    Isa::detect().run(Call::GemmNn(alpha, a, b, c));
}

#[inline(always)]
fn gemm_nn_body(alpha: f64, a: &Tile, b: &Tile, c: &mut Tile) {
    let (m, k) = (a.rows(), a.cols());
    let (kb, n) = (b.rows(), b.cols());
    assert_eq!(k, kb, "inner dimensions");
    assert_eq!((c.rows(), c.cols()), (m, n), "output shape");
    let (a, b) = (View::at(a.data(), m, 0, 0), View::transposed(b.data(), kb));
    gemm_blocked(alpha, (m, n, k), a, b, c.data_mut(), m, false);
}

/// `C += alpha * A * Bᵀ` — the GEMM of right-looking tiled Cholesky
/// (`A_mn -= A_mk · A_nkᵀ` with `alpha = -1`).
pub fn gemm_nt(alpha: f64, a: &Tile, b: &Tile, c: &mut Tile) {
    Isa::detect().run(Call::GemmNt(alpha, a, b, c));
}

#[inline(always)]
fn gemm_nt_body(alpha: f64, a: &Tile, b: &Tile, c: &mut Tile) {
    let (m, k) = (a.rows(), a.cols());
    let (n, kb) = (b.rows(), b.cols());
    assert_eq!(k, kb, "inner dimensions");
    assert_eq!((c.rows(), c.cols()), (m, n), "output shape");
    let (a, b) = (View::at(a.data(), m, 0, 0), View::at(b.data(), n, 0, 0));
    gemm_blocked(alpha, (m, n, k), a, b, c.data_mut(), m, false);
}

/// Symmetric rank-k update on the lower triangle:
/// `C = C - A·Aᵀ` restricted to `i ≥ j` (tiled Cholesky SYRK). The strict
/// upper triangle of `C` is neither read nor written.
pub fn syrk_ln(a: &Tile, c: &mut Tile) {
    Isa::detect().run(Call::SyrkLn(a, c));
}

#[inline(always)]
fn syrk_ln_body(a: &Tile, c: &mut Tile) {
    let (n, k) = (a.rows(), a.cols());
    assert_eq!((c.rows(), c.cols()), (n, n));
    let a = View::at(a.data(), n, 0, 0);
    gemm_blocked(-1.0, (n, n, k), a, a, c.data_mut(), n, true);
}

/// Triangular solve `X · L_kkᵀ = A_mk` in place (`A_mk ← A_mk · L_kk⁻ᵀ`),
/// with `L_kk` lower triangular — the TRSM of right-looking tiled Cholesky.
pub fn trsm_rlt(l_kk: &Tile, a_mk: &mut Tile) {
    Isa::detect().run(Call::TrsmRlt(l_kk, a_mk));
}

#[inline(always)]
fn trsm_rlt_body(l_kk: &Tile, a_mk: &mut Tile) {
    let nb = l_kk.rows();
    assert_eq!(l_kk.cols(), nb);
    assert_eq!(a_mk.cols(), nb);
    let m = a_mk.rows();
    let ld = l_kk.data();
    let x = a_mk.data_mut();
    for j0 in (0..nb).step_by(TB) {
        let j1 = (j0 + TB).min(nb);
        // Solve the block's columns: X[:, j] = (A[:, j] - Σ X[:, l]·L[j, l]) / L[j, j].
        for j in j0..j1 {
            let ljj = ld[j + j * nb];
            assert!(ljj != 0.0, "singular triangular factor");
            let (done, rest) = x.split_at_mut(j * m);
            let xj = &mut rest[..m];
            for l in j0..j {
                let ljl = ld[j + l * nb];
                for (xi, &xl) in xj.iter_mut().zip(&done[l * m..(l + 1) * m]) {
                    *xi -= ljl * xl;
                }
            }
            for xi in xj.iter_mut() {
                *xi /= ljj;
            }
        }
        // Update the columns right of the block:
        // X[:, j1..] -= X[:, j0..j1] · L[j1.., j0..j1]ᵀ.
        if j1 < nb {
            let (done, rest) = x.split_at_mut(j1 * m);
            let (a, b) = (View::at(done, m, 0, j0), View::at(ld, nb, j1, j0));
            gemm_blocked(-1.0, (m, nb - j1, j1 - j0), a, b, rest, m, false);
        }
    }
}

/// Cholesky factorization of an SPD tile: `A = L·Lᵀ`, lower triangle
/// overwritten with `L`, strict upper triangle zeroed.
///
/// Returns `Err(j)` if the matrix is not positive definite at pivot `j`.
pub fn potrf_l(a: &mut Tile) -> Result<(), usize> {
    match Isa::detect().run(Call::PotrfL(a)) {
        Some(j) => Err(j),
        None => Ok(()),
    }
}

#[inline(always)]
fn potrf_l_body(a: &mut Tile) -> Option<usize> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "potrf needs a square tile");
    let data = a.data_mut();
    for j in 0..n {
        let (left, rest) = data.split_at_mut(j * n);
        let colj = &mut rest[..n];
        // L[j.., j] = A[j.., j] - Σ_{l<j} L[j, l]·L[j.., l], subtracted in
        // ascending l, four source columns per pass over the target.
        let x = &mut colj[j..];
        let col = |l: usize| &left[l * n + j..(l + 1) * n];
        let mut l = 0;
        while l + 4 <= j {
            let (c0, c1, c2, c3) = (col(l), col(l + 1), col(l + 2), col(l + 3));
            let (f0, f1, f2, f3) = (c0[0], c1[0], c2[0], c3[0]);
            for i in 0..x.len() {
                x[i] = x[i] - f0 * c0[i] - f1 * c1[i] - f2 * c2[i] - f3 * c3[i];
            }
            l += 4;
        }
        for l in l..j {
            let c0 = col(l);
            let f0 = c0[0];
            for i in 0..x.len() {
                x[i] -= f0 * c0[i];
            }
        }
        let d = x[0];
        if d <= 0.0 || !d.is_finite() {
            return Some(j);
        }
        let d = d.sqrt();
        x[0] = d;
        for v in &mut x[1..] {
            *v /= d;
        }
        // Zero the strict upper triangle for clean reconstruction.
        colj[..j].fill(0.0);
    }
    None
}

/// Min-plus "tropical" matrix product used by blocked Floyd–Warshall:
/// `C[i,j] = min(C[i,j], A[i,k] + B[k,j])` over all `k`.
pub fn minplus(a: &Tile, b: &Tile, c: &mut Tile) {
    Isa::detect().run(Call::Minplus(a, b, c));
}

#[inline(always)]
fn minplus_body(a: &Tile, b: &Tile, c: &mut Tile) {
    let (m, ka) = (a.rows(), a.cols());
    let (kb, n) = (b.rows(), b.cols());
    assert_eq!(ka, kb);
    assert_eq!((c.rows(), c.cols()), (m, n));
    let ad = a.data();
    let bd = b.data();
    let cd = c.data_mut();
    for j in 0..n {
        for l in 0..ka {
            let blj = bd[l + j * kb];
            if blj == f64::INFINITY {
                continue;
            }
            let acol = &ad[l * m..(l + 1) * m];
            let ccol = &mut cd[j * m..(j + 1) * m];
            for i in 0..m {
                let cand = acol[i] + blj;
                if cand < ccol[i] {
                    ccol[i] = cand;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Edges around the register block (8 × 4) and the workload tiles
    /// (32 and 192): a lone row, a full block next to a remainder, and
    /// many blocks.
    const EDGES: [usize; 9] = [1, 3, 7, 8, 9, 31, 32, 33, 192];

    fn random_tile(rng: &mut impl Rng, rows: usize, cols: usize) -> Tile {
        Tile::from_data(
            rows,
            cols,
            (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
    }

    /// `(m, n, k)` triples drawn from [`EDGES`], some with `k = 0`, plus
    /// fixed ones that pair whole blocks with remainders in every
    /// dimension.
    fn shapes(rng: &mut impl Rng) -> Vec<(usize, usize, usize)> {
        let pick = |rng: &mut _| EDGES[Rng::gen_range(rng, 0..EDGES.len())];
        let mut v: Vec<_> = (0..12).map(|_| (pick(rng), pick(rng), pick(rng))).collect();
        v.extend((0..3).map(|_| (pick(rng), pick(rng), 0)));
        v.extend([(33, 9, 31), (192, 33, 9), (9, 192, 33), (8, 4, 192)]);
        v
    }

    /// A scaling factor away from ±1, so `α·acc` is a real multiply.
    fn alpha(rng: &mut impl Rng) -> f64 {
        rng.gen_range(0.25..0.75) * if rng.gen_bool(0.5) { -3.0 } else { 3.0 }
    }

    /// `A = B·Bᵀ + n·I` is SPD.
    fn spd_tile(rng: &mut impl Rng, n: usize) -> Tile {
        let b = random_tile(rng, n, n);
        let mut a = Tile::zeros(n, n);
        gemm_nt(1.0, &b, &b, &mut a);
        for i in 0..n {
            let v = a.get(i, i);
            a.set(i, i, v + n as f64);
        }
        a
    }

    fn gemm_naive(alpha: f64, a: &Tile, b_t: bool, b: &Tile, c: &mut Tile) {
        for i in 0..c.rows() {
            for j in 0..c.cols() {
                let mut s = 0.0;
                for l in 0..a.cols() {
                    let bv = if b_t { b.get(j, l) } else { b.get(l, j) };
                    s += a.get(i, l) * bv;
                }
                let v = c.get(i, j);
                c.set(i, j, v + alpha * s);
            }
        }
    }

    fn syrk_naive(a: &Tile, c: &mut Tile) {
        for j in 0..c.cols() {
            for i in j..c.rows() {
                let s: f64 = (0..a.cols()).map(|l| a.get(i, l) * a.get(j, l)).sum();
                let v = c.get(i, j);
                c.set(i, j, v - s);
            }
        }
    }

    /// Column-by-column forward substitution.
    fn trsm_naive(l: &Tile, x: &mut Tile) {
        for j in 0..l.rows() {
            for i in 0..x.rows() {
                let mut v = x.get(i, j);
                for p in 0..j {
                    v -= x.get(i, p) * l.get(j, p);
                }
                x.set(i, j, v / l.get(j, j));
            }
        }
    }

    /// Right-looking dot-product Cholesky.
    fn potrf_naive(a: &mut Tile) {
        let n = a.rows();
        for j in 0..n {
            let mut d = a.get(j, j);
            for l in 0..j {
                d -= a.get(j, l) * a.get(j, l);
            }
            let d = d.sqrt();
            a.set(j, j, d);
            for i in j + 1..n {
                let mut v = a.get(i, j);
                for l in 0..j {
                    v -= a.get(i, l) * a.get(j, l);
                }
                a.set(i, j, v / d);
            }
            for i in 0..j {
                a.set(i, j, 0.0);
            }
        }
    }

    fn minplus_naive(a: &Tile, b: &Tile, c: &mut Tile) {
        for i in 0..c.rows() {
            for j in 0..c.cols() {
                for l in 0..a.cols() {
                    let cand = a.get(i, l) + b.get(l, j);
                    if cand < c.get(i, j) {
                        c.set(i, j, cand);
                    }
                }
            }
        }
    }

    fn same_bits(x: &Tile, y: &Tile) -> bool {
        x.data().len() == y.data().len()
            && x.data()
                .iter()
                .zip(y.data())
                .all(|(p, q)| p.to_bits() == q.to_bits())
    }

    #[test]
    fn avx2_and_portable_instances_are_bit_identical() {
        let Some(avx2) = Isa::avx2() else {
            eprintln!("SKIPPED avx2_and_portable_instances_are_bit_identical: no AVX2 on this CPU");
            return;
        };
        // Runs one kernel call on a copy of its output per instance.
        let check = |what: String, out: &Tile, run: &dyn Fn(Isa, &mut Tile) -> Option<usize>| {
            let (mut p, mut v) = (out.clone(), out.clone());
            assert_eq!(run(Isa::PORTABLE, &mut p), run(avx2, &mut v), "{what}");
            assert!(same_bits(&p, &v), "{what}: instances differ");
        };
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for (m, n, k) in shapes(&mut rng) {
            let alpha = alpha(&mut rng);
            let a = random_tile(&mut rng, m, k);
            let b_nn = random_tile(&mut rng, k, n);
            let b_nt = random_tile(&mut rng, n, k);
            let c = random_tile(&mut rng, m, n);
            let cs = random_tile(&mut rng, m, m);
            let spd = spd_tile(&mut rng, n);
            let mut l = spd.clone();
            potrf_l(&mut l).expect("SPD");
            let x = random_tile(&mut rng, m, n);
            let shape = format!("m={m} n={n} k={k}");
            check(format!("gemm_nn {shape}"), &c, &|isa, c| {
                isa.run(Call::GemmNn(alpha, &a, &b_nn, c))
            });
            check(format!("gemm_nt {shape}"), &c, &|isa, c| {
                isa.run(Call::GemmNt(alpha, &a, &b_nt, c))
            });
            check(format!("syrk_ln {shape}"), &cs, &|isa, c| {
                isa.run(Call::SyrkLn(&a, c))
            });
            check(format!("trsm_rlt {shape}"), &x, &|isa, x| {
                isa.run(Call::TrsmRlt(&l, x))
            });
            check(format!("potrf_l {shape}"), &spd, &|isa, a| {
                isa.run(Call::PotrfL(a))
            });
            check(format!("minplus {shape}"), &c, &|isa, c| {
                isa.run(Call::Minplus(&a, &b_nn, c))
            });
        }
    }

    #[test]
    fn kernels_match_naive_references_on_ragged_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        for (m, n, k) in shapes(&mut rng) {
            let alpha = alpha(&mut rng);
            let a = random_tile(&mut rng, m, k);
            let c = random_tile(&mut rng, m, n);
            let shape = format!("m={m} n={n} k={k}");

            let b = random_tile(&mut rng, k, n);
            let (mut got, mut want) = (c.clone(), c.clone());
            gemm_nn(alpha, &a, &b, &mut got);
            gemm_naive(alpha, &a, false, &b, &mut want);
            assert!(got.max_abs_diff(&want) < 1e-12, "gemm_nn {shape}");
            let (mut got, mut want) = (c.clone(), c.clone());
            minplus(&a, &b, &mut got);
            minplus_naive(&a, &b, &mut want);
            assert!(same_bits(&got, &want), "minplus {shape}");

            let b = random_tile(&mut rng, n, k);
            let (mut got, mut want) = (c.clone(), c.clone());
            gemm_nt(alpha, &a, &b, &mut got);
            gemm_naive(alpha, &a, true, &b, &mut want);
            assert!(got.max_abs_diff(&want) < 1e-12, "gemm_nt {shape}");

            let cs = random_tile(&mut rng, m, m);
            let (mut got, mut want) = (cs.clone(), cs.clone());
            syrk_ln(&a, &mut got);
            syrk_naive(&a, &mut want);
            assert!(got.max_abs_diff(&want) < 1e-12, "syrk_ln {shape}");

            let spd = spd_tile(&mut rng, n);
            let (mut got, mut want) = (spd.clone(), spd.clone());
            potrf_l(&mut got).expect("SPD");
            potrf_naive(&mut want);
            // Same subtractions in the same order as the dot-product loop.
            assert!(same_bits(&got, &want), "potrf_l {shape}");

            let l = got;
            let x = random_tile(&mut rng, m, n);
            let (mut got, mut want) = (x.clone(), x.clone());
            trsm_rlt(&l, &mut got);
            trsm_naive(&l, &mut want);
            assert!(got.max_abs_diff(&want) < 1e-12, "trsm_rlt {shape}");
        }
    }

    #[test]
    fn syrk_updates_lower_triangle_only() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let a = random_tile(&mut rng, 13, 3);
        let mut c = Tile::zeros(13, 13);
        // Poison upper triangle to verify it is untouched.
        for j in 0..13 {
            for i in 0..j {
                c.set(i, j, 99.0);
            }
        }
        syrk_ln(&a, &mut c);
        for j in 0..13 {
            for i in 0..j {
                assert_eq!(c.get(i, j), 99.0);
            }
        }
    }

    #[test]
    fn potrf_reconstructs() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let a = spd_tile(&mut rng, 33);
        let mut l = a.clone();
        potrf_l(&mut l).expect("SPD");
        // L·Lᵀ must reproduce A (full matrix: A was symmetric).
        let mut rec = Tile::zeros(33, 33);
        gemm_nt(1.0, &l, &l, &mut rec);
        assert!(rec.max_abs_diff(&a) < 1e-9, "diff {}", rec.max_abs_diff(&a));
    }

    #[test]
    fn potrf_rejects_indefinite() {
        let mut t = Tile::identity(3);
        t.set(1, 1, -1.0);
        assert_eq!(potrf_l(&mut t), Err(1));
    }

    #[test]
    fn trsm_solves_triangular_system() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut l = spd_tile(&mut rng, 37);
        potrf_l(&mut l).unwrap();
        let x_true = random_tile(&mut rng, 9, 37);
        // A = X_true · Lᵀ, then TRSM must recover X_true.
        let mut a = Tile::zeros(9, 37);
        gemm_nt(1.0, &x_true, &l, &mut a);
        trsm_rlt(&l, &mut a);
        assert!(a.max_abs_diff(&x_true) < 1e-9);
    }

    #[test]
    fn minplus_relaxes_paths() {
        // 3-node path 0→1→2 beats the direct 0→2 edge.
        let inf = f64::INFINITY;
        let a = Tile::from_data(3, 3, vec![0.0, inf, inf, 1.0, 0.0, inf, 10.0, 1.0, 0.0]);
        let mut c = a.clone();
        minplus(&a, &a, &mut c);
        assert_eq!(c.get(0, 2), 2.0); // through node 1
        assert_eq!(c.get(0, 1), 1.0);
        assert_eq!(c.get(2, 0), inf); // no reverse edges
    }

    #[test]
    fn minplus_handles_infinities() {
        let inf = f64::INFINITY;
        let a = Tile::from_data(2, 2, vec![0.0, inf, inf, 0.0]);
        let mut c = a.clone();
        minplus(&a, &a, &mut c);
        assert_eq!(c.get(0, 1), inf);
        assert_eq!(c.get(0, 0), 0.0);
    }
}
