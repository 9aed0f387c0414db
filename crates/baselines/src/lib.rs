//! # slingen-baselines
//!
//! The paper's compiler- and template-based competitors, reimplemented as
//! *code generation strategies* that produce C-IR. Like SLinGen's output,
//! each baseline's C-IR runs in the VM and is costed by the machine model
//! (a *modeled* row), or is unparsed to C and timed on the host with
//! `slingen::HardwareMeasurer` (a *measured* row). Each strategy captures
//! the mechanism behind the corresponding competitor's performance
//! profile:
//!
//! | Flavor | Mechanism |
//! |--------|-----------|
//! | [`Flavor::Icc`] | straightforward scalar C, well optimized (scalar replacement, unrolling) but not vectorized — "icc -O3" on handwritten loop code |
//! | [`Flavor::ClangPolly`] | scalar C with fewer scalar optimizations — "clang -O3 -polly" on the same code |
//! | [`Flavor::Eigen`] | vectorized fixed-size templates: per-statement kernels, generic loop code, no cross-statement optimization, no algorithmic specialization |
//!
//! The paper's library competitors (MKL, Cl1ck+MKL, ReLAPACK, RECSY) have
//! no flavor: none of those libraries is available to link and time, and
//! a model of one is only a per-call constant.
//!
//! Every generator is numerically validated against the same oracle as
//! SLinGen's own output — baselines must be *correct* competitors.

pub mod scalar;
pub mod template;

pub use scalar::scalar_codegen;
pub use template::template_codegen;

use slingen_cir::Function;
use slingen_ir::Program;

/// Competitor identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// Intel icc 16 on straightforward C.
    Icc,
    /// clang 4 + Polly 3.9 on straightforward C.
    ClangPolly,
    /// Eigen 3.3.4 fixed-size templates.
    Eigen,
}

impl Flavor {
    /// Display label matching the paper's plot legends.
    pub fn label(&self) -> &'static str {
        match self {
            Flavor::Icc => "icc",
            Flavor::ClangPolly => "clang/Polly",
            Flavor::Eigen => "Eigen",
        }
    }
}

/// A generated competitor implementation.
#[derive(Debug)]
pub struct BaselineCode {
    /// The C-IR entry function.
    pub function: Function,
}

/// Generate competitor code for `program`.
///
/// # Errors
///
/// Propagates synthesis/lowering errors (the supported program class is
/// the same as SLinGen's).
pub fn baseline_codegen(
    program: &Program,
    flavor: Flavor,
) -> Result<BaselineCode, Box<dyn std::error::Error>> {
    match flavor {
        Flavor::Icc => scalar_codegen(program, true),
        Flavor::ClangPolly => scalar_codegen(program, false),
        Flavor::Eigen => template_codegen(program),
    }
}
