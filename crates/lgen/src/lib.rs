//! # slingen-lgen
//!
//! Stage 2 of SLinGen (paper §3.2): lowering basic LA programs to C-IR.
//!
//! Every statement of a [`slingen_synth::BasicProgram`] — an sBLAC over
//! operand regions, a scalar `sqrt`/`div`, or a region copy — is tiled
//! into ν-sized pieces and mapped onto vectorized codelets, the role the
//! 18 ν-BLACs play in LGen:
//!
//! * elementwise tiles (add/sub/scale/copy) load ν-wide row chunks;
//! * matrix products use the broadcast×row outer-product kernel
//!   (broadcast `A[i,k]`, multiply with a row chunk of `B`, accumulate);
//! * dot-shaped contractions accumulate lane-wise partial sums and reduce;
//! * divisions by a scalar region apply the paper's rule R1: one scalar
//!   reciprocal, then a scaling ν-BLAC (Table 2 / Fig. 10);
//! * Loaders/Storers materialize as per-lane offset maps: contiguous,
//!   strided (transposed reads), masked edges, and structure-masked
//!   accesses of triangular operands.
//!
//! Structure is exploited as in the paper: statements whose operands carry
//! structural zeros skip zero tiles and mask partial (diagonal-straddling)
//! chunks; symmetric/triangular left-hand sides restrict computation to
//! the stored canonical part.
//!
//! Dense statements with many tiles are emitted as affine `For` nests over
//! full tiles with peeled edges (multi-level tiling); the Stage-3 unroller
//! decides how much of that becomes straight-line code.

pub mod layout;
pub mod lower;

pub use layout::BufferMap;
pub use lower::{lower_program, LowerOptions};

use std::fmt;

/// Errors from the lowering stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LgenError {
    /// The statement shape cannot be lowered.
    Unsupported(String),
    /// Dimension mismatch inside a statement.
    Shape(String),
}

impl fmt::Display for LgenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LgenError::Unsupported(s) => write!(f, "unsupported statement: {s}"),
            LgenError::Shape(s) => write!(f, "shape error: {s}"),
        }
    }
}

impl std::error::Error for LgenError {}
