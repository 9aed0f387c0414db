//! # slingen-blas
//!
//! A self-contained BLAS/LAPACK substrate in pure Rust.
//!
//! The paper's evaluation uses LAPACK semantics as the correctness
//! reference. This crate provides that substrate:
//!
//! * level-1/2/3 BLAS kernels (`ddot`, `daxpy`, `dgemv`, `dtrsv`, `dgemm`,
//!   `dsyrk`, `dtrsm`, `dtrmm`, ...) with row-major storage and explicit
//!   leading dimensions;
//! * unblocked LAPACK-style routines: Cholesky (`dpotrf`), triangular
//!   inversion (`dtrtri`), triangular Sylvester (`dtrsyl`) and Lyapunov
//!   (`dtrlya`) solvers, LU (`dgetrf_nopiv`);
//! * deterministic workload generators (SPD matrices, well-conditioned
//!   triangular factors) used throughout the test and benchmark suites.
//!
//! Everything here is the *oracle*: the generated C-IR is validated
//! against these routines.

pub mod blas1;
pub mod blas2;
pub mod blas3;
pub mod lapack;
pub mod mat;
pub mod testgen;

pub use blas1::{dasum, daxpy, ddot, dnrm2, dscal};
pub use blas2::{dgemv, dger, dsymv, dtrmv, dtrsv};
pub use blas3::{dgemm, dsyrk, dtrmm, dtrsm};
pub use lapack::{dgetrf_nopiv, dpotrf, dtrlya, dtrsyl, dtrtri};
pub use mat::Mat;

/// Transposition flag for BLAS-style calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

/// Which triangle of a matrix is referenced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Uplo {
    /// Lower triangle.
    Lower,
    /// Upper triangle.
    Upper,
}

/// Which side a triangular operand multiplies from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Solve/multiply with the triangular matrix on the left.
    Left,
    /// Solve/multiply with the triangular matrix on the right.
    Right,
}

/// Whether a triangular matrix has an implicit unit diagonal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Diag {
    /// Diagonal entries are stored.
    NonUnit,
    /// Diagonal entries are implicitly one.
    Unit,
}
