//! The paper's benchmark programs.
//!
//! * The four HLAC kernels of Table 3: `potrf`, `trsyl`, `trlya`, `trtri`.
//! * The three applications of Fig. 13: the Kalman filter (`kf`), Gaussian
//!   process regression (`gpr`), and the L1-analysis convex solver
//!   (`l1a`).
//!
//! All are expressed as LA programs over fixed-size operands, exactly as
//! they appear in the paper (kf and l1a are one iteration of their
//! respective iterative algorithms).

use slingen_ir::structure::StorageHalf;
use slingen_ir::{Expr, OperandDecl, Program, ProgramBuilder, Properties, Structure};

/// Cholesky factorization `Uᵀ·U = S` (Table 3, `potrf`).
pub fn potrf(n: usize) -> Program {
    let mut b = ProgramBuilder::new("potrf");
    let s = b.declare(
        OperandDecl::mat_in("S", n, n)
            .with_structure(Structure::Symmetric(StorageHalf::Upper))
            .with_properties(Properties::pd()),
    );
    let u = b.declare(
        OperandDecl::mat_out("U", n, n)
            .with_structure(Structure::UpperTriangular)
            .with_properties(Properties::ns()),
    );
    b.equation(Expr::op(u).t().mul(Expr::op(u)), Expr::op(s));
    b.build().expect("potrf program")
}

/// Triangular Sylvester equation `L·X + X·U = C` (Table 3, `trsyl`).
pub fn trsyl(n: usize) -> Program {
    let mut b = ProgramBuilder::new("trsyl");
    let l = b.declare(
        OperandDecl::mat_in("L", n, n)
            .with_structure(Structure::LowerTriangular)
            .with_properties(Properties::ns()),
    );
    let u = b.declare(
        OperandDecl::mat_in("U", n, n)
            .with_structure(Structure::UpperTriangular)
            .with_properties(Properties::ns()),
    );
    let c = b.declare(OperandDecl::mat_in("C", n, n));
    let x = b.declare(OperandDecl::mat_out("X", n, n));
    b.equation(Expr::op(l).mul(Expr::op(x)).add(Expr::op(x).mul(Expr::op(u))), Expr::op(c));
    b.build().expect("trsyl program")
}

/// Triangular Lyapunov equation `L·X + X·Lᵀ = S` (Table 3, `trlya`).
pub fn trlya(n: usize) -> Program {
    let mut b = ProgramBuilder::new("trlya");
    let l = b.declare(
        OperandDecl::mat_in("L", n, n)
            .with_structure(Structure::LowerTriangular)
            .with_properties(Properties::ns()),
    );
    let s = b.declare(
        OperandDecl::mat_in("S", n, n).with_structure(Structure::Symmetric(StorageHalf::Lower)),
    );
    let x = b.declare(
        OperandDecl::mat_out("X", n, n).with_structure(Structure::Symmetric(StorageHalf::Lower)),
    );
    b.equation(Expr::op(l).mul(Expr::op(x)).add(Expr::op(x).mul(Expr::op(l).t())), Expr::op(s));
    b.build().expect("trlya program")
}

/// Triangular matrix inversion `X = L⁻¹` (Table 3, `trtri`).
pub fn trtri(n: usize) -> Program {
    let mut b = ProgramBuilder::new("trtri");
    let l = b.declare(
        OperandDecl::mat_in("L", n, n)
            .with_structure(Structure::LowerTriangular)
            .with_properties(Properties::ns()),
    );
    let x = b.declare(
        OperandDecl::mat_out("X", n, n)
            .with_structure(Structure::LowerTriangular)
            .with_properties(Properties::ns()),
    );
    b.equation(Expr::op(x), Expr::op(l).inv());
    b.build().expect("trtri program")
}

/// One iteration of the Kalman filter (paper Fig. 13a) with `n` states
/// and `k` observations.
pub fn kf_sized(n: usize, k: usize) -> Program {
    let mut b = ProgramBuilder::new("kf");
    let f = b.declare(OperandDecl::mat_in("F", n, n));
    let bb = b.declare(OperandDecl::mat_in("B", n, n));
    let q = b.declare(
        OperandDecl::mat_in("Q", n, n).with_structure(Structure::Symmetric(StorageHalf::Upper)),
    );
    let h = b.declare(OperandDecl::mat_in("H", k, n));
    let r = b.declare(
        OperandDecl::mat_in("R", k, k)
            .with_structure(Structure::Symmetric(StorageHalf::Upper))
            .with_properties(Properties::pd()),
    );
    let p = b.declare(
        OperandDecl::mat_in("P", n, n)
            .with_structure(Structure::Symmetric(StorageHalf::Upper))
            .with_properties(Properties::pd()),
    );
    let u_in = b.declare(OperandDecl::vec_in("u", n));
    let x = b.declare(OperandDecl::vec_in("x", n));
    let z = b.declare(OperandDecl::vec_in("z", k));
    // outputs and temporaries
    let y = b.declare(OperandDecl::vec_out("y", n));
    let ymat = b.declare(OperandDecl::mat_out("Y", n, n));
    let v0 = b.declare(OperandDecl::vec_out("v0", k));
    let m1 = b.declare(OperandDecl::mat_out("M1", k, n));
    let m2 = b.declare(OperandDecl::mat_out("M2", n, k));
    let m3 = b.declare(
        OperandDecl::mat_out("M3", k, k)
            .with_structure(Structure::Symmetric(StorageHalf::Upper))
            .with_properties(Properties::pd()),
    );
    let u = b.declare(
        OperandDecl::mat_out("U", k, k)
            .with_structure(Structure::UpperTriangular)
            .with_properties(Properties::ns()),
    );
    let v1 = b.declare(OperandDecl::vec_out("v1", k));
    let v2 = b.declare(OperandDecl::vec_out("v2", k));
    let m4 = b.declare(OperandDecl::mat_out("M4", k, n));
    let m5 = b.declare(OperandDecl::mat_out("M5", k, n));
    let x_out = b.declare(OperandDecl::vec_out("x_out", n));
    let p_out = b.declare(OperandDecl::mat_out("P_out", n, n));

    // y = F*x + B*u
    b.assign(y, Expr::op(f).mul(Expr::op(x)).add(Expr::op(bb).mul(Expr::op(u_in))));
    // Y = F*P*F' + Q
    b.assign(ymat, Expr::op(f).mul(Expr::op(p)).mul(Expr::op(f).t()).add(Expr::op(q)));
    // v0 = z - H*y
    b.assign(v0, Expr::op(z).sub(Expr::op(h).mul(Expr::op(y))));
    // M1 = H*Y
    b.assign(m1, Expr::op(h).mul(Expr::op(ymat)));
    // M2 = Y*H'
    b.assign(m2, Expr::op(ymat).mul(Expr::op(h).t()));
    // M3 = M1*H' + R
    b.assign(m3, Expr::op(m1).mul(Expr::op(h).t()).add(Expr::op(r)));
    // U'U = M3
    b.equation(Expr::op(u).t().mul(Expr::op(u)), Expr::op(m3));
    // U'v1 = v0 ; U v2 = v1
    b.equation(Expr::op(u).t().mul(Expr::op(v1)), Expr::op(v0));
    b.equation(Expr::op(u).mul(Expr::op(v2)), Expr::op(v1));
    // U'M4 = M1 ; U M5 = M4
    b.equation(Expr::op(u).t().mul(Expr::op(m4)), Expr::op(m1));
    b.equation(Expr::op(u).mul(Expr::op(m5)), Expr::op(m4));
    // x = y + M2*v2
    b.assign(x_out, Expr::op(y).add(Expr::op(m2).mul(Expr::op(v2))));
    // P = Y - M2*M5
    b.assign(p_out, Expr::op(ymat).sub(Expr::op(m2).mul(Expr::op(m5))));
    b.build().expect("kf program")
}

/// Kalman filter with observation size equal to the state size (the
/// paper's Fig. 15a configuration).
pub fn kf(n: usize) -> Program {
    kf_sized(n, n)
}

/// Gaussian process regression (paper Fig. 13b).
pub fn gpr(n: usize) -> Program {
    let mut b = ProgramBuilder::new("gpr");
    let kmat = b.declare(
        OperandDecl::mat_in("K", n, n)
            .with_structure(Structure::Symmetric(StorageHalf::Lower))
            .with_properties(Properties::pd()),
    );
    let xmat = b.declare(OperandDecl::mat_in("X", n, n));
    let x = b.declare(OperandDecl::vec_in("x", n));
    let y = b.declare(OperandDecl::vec_in("y", n));
    let l = b.declare(
        OperandDecl::mat_out("L", n, n)
            .with_structure(Structure::LowerTriangular)
            .with_properties(Properties::ns()),
    );
    let t0 = b.declare(OperandDecl::vec_out("t0", n));
    let t1 = b.declare(OperandDecl::vec_out("t1", n));
    let kv = b.declare(OperandDecl::vec_out("k", n));
    let phi = b.declare(OperandDecl::sca_out("phi"));
    let v = b.declare(OperandDecl::vec_out("v", n));
    let psi = b.declare(OperandDecl::sca_out("psi"));
    let lam = b.declare(OperandDecl::sca_out("lambda"));

    // L*L' = K
    b.equation(Expr::op(l).mul(Expr::op(l).t()), Expr::op(kmat));
    // L*t0 = y ; L'*t1 = t0
    b.equation(Expr::op(l).mul(Expr::op(t0)), Expr::op(y));
    b.equation(Expr::op(l).t().mul(Expr::op(t1)), Expr::op(t0));
    // k = X*x
    b.assign(kv, Expr::op(xmat).mul(Expr::op(x)));
    // phi = k'*t1
    b.assign(phi, Expr::op(kv).t().mul(Expr::op(t1)));
    // L*v = k
    b.equation(Expr::op(l).mul(Expr::op(v)), Expr::op(kv));
    // psi = x'*x - v'*v
    b.assign(psi, Expr::op(x).t().mul(Expr::op(x)).sub(Expr::op(v).t().mul(Expr::op(v))));
    // lambda = y'*t1
    b.assign(lam, Expr::op(y).t().mul(Expr::op(t1)));
    b.build().expect("gpr program")
}

/// One iteration of the L1-analysis convex solver (paper Fig. 13c).
pub fn l1a(n: usize) -> Program {
    let mut b = ProgramBuilder::new("l1a");
    let w = b.declare(OperandDecl::mat_in("W", n, n));
    let a = b.declare(OperandDecl::mat_in("A", n, n));
    let x0 = b.declare(OperandDecl::vec_in("x0", n));
    let y = b.declare(OperandDecl::vec_in("y", n));
    let v1 = b.declare(OperandDecl::vec_in("v1_in", n));
    let z1 = b.declare(OperandDecl::vec_in("z1_in", n));
    let v2 = b.declare(OperandDecl::vec_in("v2_in", n));
    let z2 = b.declare(OperandDecl::vec_in("z2_in", n));
    let alpha = b.declare(OperandDecl::sca_in("alpha"));
    let beta = b.declare(OperandDecl::sca_in("beta"));
    let tau = b.declare(OperandDecl::sca_in("tau"));
    let y1 = b.declare(OperandDecl::vec_out("y1", n));
    let y2 = b.declare(OperandDecl::vec_out("y2", n));
    let x1 = b.declare(OperandDecl::vec_out("x1", n));
    let x = b.declare(OperandDecl::vec_out("x", n));
    let z1o = b.declare(OperandDecl::vec_out("z1", n));
    let z2o = b.declare(OperandDecl::vec_out("z2", n));
    let v1o = b.declare(OperandDecl::vec_out("v1", n));
    let v2o = b.declare(OperandDecl::vec_out("v2", n));

    // y1 = alpha*v1 + tau*z1 ; y2 = alpha*v2 + tau*z2
    b.assign(y1, Expr::op(alpha).mul(Expr::op(v1)).add(Expr::op(tau).mul(Expr::op(z1))));
    b.assign(y2, Expr::op(alpha).mul(Expr::op(v2)).add(Expr::op(tau).mul(Expr::op(z2))));
    // x1 = W'*y1 - A'*y2
    b.assign(x1, Expr::op(w).t().mul(Expr::op(y1)).sub(Expr::op(a).t().mul(Expr::op(y2))));
    // x = x0 + beta*x1
    b.assign(x, Expr::op(x0).add(Expr::op(beta).mul(Expr::op(x1))));
    // z1 = y1 - W*x
    b.assign(z1o, Expr::op(y1).sub(Expr::op(w).mul(Expr::op(x))));
    // z2 = y2 - (y - A*x)
    b.assign(z2o, Expr::op(y2).sub(Expr::op(y).sub(Expr::op(a).mul(Expr::op(x)))));
    // v1 = alpha*v1 + tau*z1 ; v2 = alpha*v2 + tau*z2
    b.assign(v1o, Expr::op(alpha).mul(Expr::op(v1)).add(Expr::op(tau).mul(Expr::op(z1o))));
    b.assign(v2o, Expr::op(alpha).mul(Expr::op(v2)).add(Expr::op(tau).mul(Expr::op(z2o))));
    b.build().expect("l1a program")
}

/// How a paper app builds its program.
#[derive(Clone, Copy)]
enum Build {
    /// From its size alone.
    Sized(fn(usize) -> Program),
    /// From its size `n` and the Kalman filter's observation size `k`.
    Observed(fn(usize, usize) -> Program),
}

/// A paper app, resolved from its short name by [`App::named`].
#[derive(Clone, Copy)]
pub(crate) struct App {
    /// The short name (`potrf`, `kf`, ...).
    pub(crate) name: &'static str,
    build: Build,
}

/// Every paper app, in the order of the module docs: the one table that
/// names them.
pub(crate) const APPS: [App; 7] = [
    App { name: "potrf", build: Build::Sized(potrf) },
    App { name: "trsyl", build: Build::Sized(trsyl) },
    App { name: "trlya", build: Build::Sized(trlya) },
    App { name: "trtri", build: Build::Sized(trtri) },
    App { name: "kf", build: Build::Observed(kf_sized) },
    App { name: "gpr", build: Build::Sized(gpr) },
    App { name: "l1a", build: Build::Sized(l1a) },
];

impl App {
    /// The app called `name`, or `None` for an unknown name.
    pub(crate) fn named(name: &str) -> Option<&'static App> {
        APPS.iter().find(|app| app.name == name)
    }

    /// The observation size the program at size `n` is built with: `None`
    /// for an app that takes none (a requested `k` is ignored), `k` or by
    /// default `n` for the Kalman filter. Two requests with equal `n` and
    /// equal observation sizes build the same program.
    pub(crate) fn observations(&self, n: usize, k: Option<usize>) -> Option<usize> {
        match self.build {
            Build::Sized(_) => None,
            Build::Observed(_) => Some(k.unwrap_or(n)),
        }
    }

    /// The program at size `n`; `k` is the Kalman filter's observation
    /// size (defaults to `n`, ignored by the other apps).
    pub(crate) fn program(&self, n: usize, k: Option<usize>) -> Program {
        match self.build {
            Build::Sized(build) => build(n),
            Build::Observed(build) => build(n, k.unwrap_or(n)),
        }
    }
}

/// Build a benchmark program by its short name at size `n`; `k` is the
/// Kalman filter's observation size (defaults to `n`). `None` for an
/// unknown name.
pub fn by_name(app: &str, n: usize, k: Option<usize>) -> Option<Program> {
    App::named(app).map(|app| app.program(n, k))
}

/// Nominal flop counts used for the paper's performance plots.
pub fn nominal_flops(name: &str, n: usize, k: usize) -> f64 {
    let nf = n as f64;
    let kf_ = k as f64;
    match name {
        "potrf" => nf * nf * nf / 3.0,
        "trsyl" => 2.0 * nf * nf * nf,
        "trlya" => nf * nf * nf,
        "trtri" => nf * nf * nf / 3.0,
        "kf" => 11.3 * nf * nf * nf,
        "kf28" => kf_ * kf_ * kf_ / 3.0,
        "gpr" => nf * nf * nf / 3.0,
        "l1a" => 8.0 * nf * nf,
        other => panic!("unknown benchmark `{other}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_programs_build() {
        for n in [4usize, 8, 12] {
            assert_eq!(potrf(n).statements().len(), 1);
            assert_eq!(trsyl(n).statements().len(), 1);
            assert_eq!(trlya(n).statements().len(), 1);
            assert_eq!(trtri(n).statements().len(), 1);
            assert_eq!(kf(n).statements().len(), 13);
            assert_eq!(gpr(n).statements().len(), 8);
            assert_eq!(l1a(n).statements().len(), 8);
        }
        assert_eq!(kf_sized(28, 4).name(), "kf");
        assert_eq!(by_name("kf", 8, None).unwrap().to_string(), kf(8).to_string());
        assert_eq!(by_name("potrf", 8, None).unwrap().to_string(), potrf(8).to_string());
        assert!(by_name("gemm", 8, None).is_none());
        let (potrf_app, kf_app) = (App::named("potrf").unwrap(), App::named("kf").unwrap());
        assert_eq!(potrf_app.observations(4, Some(3)), None, "only kf reads k");
        assert_eq!(kf_app.observations(8, None), kf_app.observations(8, Some(8)));
        assert_eq!(kf_app.program(8, Some(8)).to_string(), kf(8).to_string());
    }

    #[test]
    fn kf_mixes_sblacs_and_hlacs() {
        let p = kf(4);
        let hlacs = p.statements().iter().filter(|s| s.is_hlac()).count();
        assert_eq!(hlacs, 5, "one Cholesky + four triangular solves");
    }

    #[test]
    fn flop_formulas() {
        assert_eq!(nominal_flops("potrf", 12, 0), 576.0);
        assert_eq!(nominal_flops("trsyl", 4, 0), 128.0);
        assert_eq!(nominal_flops("l1a", 10, 0), 800.0);
    }
}
