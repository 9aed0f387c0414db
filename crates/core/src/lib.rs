//! # slingen
//!
//! SLinGen: program generation for small-scale linear algebra applications
//! — the top-level driver reproducing the system of Spampinato et al.,
//! CGO 2018.
//!
//! The pipeline (paper Fig. 6):
//!
//! 1. **Stage 1** — every HLAC in the input LA program is expanded into a
//!    *basic* program (sBLACs over regions + scalar ops) by the Cl1ck-style
//!    synthesis engine (`slingen-synth`), with algorithmic variants given
//!    by the loop-invariant policy;
//! 2. **Stage 2** — the basic program is tiled and vectorized into C-IR
//!    (`slingen-lgen`);
//! 3. **Stage 3** — code-level optimization: unrolling, scalar
//!    replacement, the load/store analysis that converts memory
//!    round-trips into shuffles and blends, CSE/DCE (`slingen-cir`), and
//!    unparsing to single-source C with intrinsics;
//! 4. **autotuning** — the variant with the lowest modeled cycle count on
//!    the Sandy Bridge machine model is selected (the paper's
//!    "algorithmic autotuning").
//!
//! ```
//! use slingen::{apps, Options};
//!
//! let program = apps::gpr(4);
//! let generated = slingen::generate(&program, &Options::default())?;
//! assert!(generated.c_code.contains("void gpr"));
//! # Ok::<(), slingen::Error>(())
//! ```

pub mod apps;
pub mod cache;
pub mod measure;
pub mod pipeline;
pub mod serve;
pub mod tuner;
pub mod verify;
pub mod workload;

pub use cache::{CacheTotals, TuneCache};
pub use measure::{
    calibrate, Calibration, HardwareMeasurer, HwError, MeasureConfig, MeasureMode, OpCost,
};
pub use pipeline::{generate, generate_with_spec, Generated, Options};
pub use slingen_cir::Target;
pub use tuner::{HwTrial, RepCost, SearchSpace, Strategy, TuneStats, VariantSpec};
pub use verify::verify;

use std::fmt;

/// Top-level driver errors.
#[derive(Debug, Clone)]
pub enum Error {
    /// Synthesis failed (Stage 1).
    Synth(slingen_synth::SynthError),
    /// Lowering failed (Stage 2).
    Lgen(slingen_lgen::LgenError),
    /// Execution failed during autotuning/verification.
    Vm(slingen_vm::VmError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Synth(e) => write!(f, "synthesis: {e}"),
            Error::Lgen(e) => write!(f, "lowering: {e}"),
            Error::Vm(e) => write!(f, "execution: {e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<slingen_synth::SynthError> for Error {
    fn from(e: slingen_synth::SynthError) -> Self {
        Error::Synth(e)
    }
}

impl From<slingen_lgen::LgenError> for Error {
    fn from(e: slingen_lgen::LgenError) -> Self {
        Error::Lgen(e)
    }
}

impl From<slingen_vm::VmError> for Error {
    fn from(e: slingen_vm::VmError) -> Self {
        Error::Vm(e)
    }
}
