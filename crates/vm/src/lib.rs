//! # slingen-vm
//!
//! A virtual machine for SLinGen's C-IR.
//!
//! The paper compiles the generated C and measures it on a Sandy Bridge
//! machine. This reproduction also *executes* the generated C-IR
//! directly, one function at a time. The VM serves three purposes:
//!
//! 1. **Correctness oracle** — generated code runs on real `f64` buffers
//!    and its results are compared against reference implementations
//!    (`slingen-blas`);
//! 2. **Instruction stream source** — every executed instruction is
//!    reported to a [`Monitor`] with resolved memory cells, which the
//!    performance model (`slingen-perf`) consumes to estimate cycles in
//!    the spirit of the ERM roofline tool used by the paper;
//! 3. **Harness check** — when the emitted C is compiled and timed on the
//!    host (`slingen::HardwareMeasurer`), the harness's output checksum
//!    must match the VM's on the same inputs.

pub mod exec;
pub mod monitor;

pub use exec::{execute, BufferSet, VmError};
pub use monitor::{CountingMonitor, Event, Monitor, NullMonitor};
