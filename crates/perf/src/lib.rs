//! # slingen-perf
//!
//! A microarchitectural performance model in the spirit of **ERM** \[7\],
//! the generalized-roofline bottleneck analysis tool the paper uses in §4
//! ("Bottleneck analysis", Table 4).
//!
//! The paper measures generated C on an Intel Sandy Bridge i7-2600; this
//! reproduction estimates cycles by scheduling the dynamic instruction
//! stream (produced by `slingen-vm`) onto a port model built from a
//! `slingen_cir::Target` descriptor ([`Machine::from_target`]; the
//! default AVX2 target is the Sandy Bridge model below, the AVX2+FMA
//! target additionally executes fused multiply-adds on the add port, in
//! place of the add each one absorbed):
//!
//! * separate FP multiply and FP add ports (1 × 256-bit op/cycle each —
//!   peak 8 flops/cycle in double precision, as in the paper);
//! * an unpipelined divider: a divide or square root blocks it for ~44
//!   cycles (vector) / ~22 cycles (scalar) — the paper's "can only be
//!   issued every 44 cycles";
//! * a shuffle port (1/cycle) and blends at 2/cycle;
//! * 2 × 128-bit load units and 1 × 128-bit store unit per cycle (256-bit
//!   accesses occupy two unit-slots), L1 latency 4;
//! * true data dependences through registers and memory cells (hardware
//!   register renaming is modeled: only read-after-write serializes).
//!
//! [`measure`] runs a C-IR function in the VM under a [`Scheduler`] monitor
//! and returns a [`Report`] with estimated cycles, per-resource pressure,
//! the bottleneck attribution, and the shuffle/blend issue rates that
//! Table 4 reports.

pub mod machine;
pub mod report;
pub mod sched;

pub use machine::{Machine, Resource};
pub use report::{MeasuredTime, Report};
pub use sched::{pressure_lower_bound, Scheduler};

use slingen_cir::Function;
use slingen_vm::{BufferSet, VmError};

/// Execute `f` under the performance model and return the report.
///
/// `buffers` provides the inputs and receives the outputs (so correctness
/// checks and measurement share one execution).
///
/// `_unused` can only be `None` and is ignored. Kept because the external
/// benchmark under `perfbench/` passes it.
///
/// # Errors
///
/// Propagates any [`VmError`] from execution.
pub fn measure(
    f: &Function,
    buffers: &mut BufferSet,
    _unused: Option<std::convert::Infallible>,
    machine: &Machine,
) -> Result<Report, VmError> {
    Ok(measure_budgeted(f, buffers, machine, None)?.expect("no budget, no cutoff"))
}

/// Execute `f` under the performance model with a cycle budget: as soon as
/// the modeled makespan exceeds `budget` the run is abandoned and `None`
/// is returned (the variant is provably slower than the budget). With
/// `budget: None` this is [`measure`].
///
/// The estimate is the scheduled makespan, raised to the code-footprint
/// floor ([`Machine::footprint_cycles`]) when the body outgrows L1i. A
/// floor above the budget abandons the run before it starts.
///
/// The autotuner uses this to discard dominated variants without paying
/// for their full simulation.
///
/// # Errors
///
/// Propagates any [`VmError`] from execution.
pub fn measure_budgeted(
    f: &Function,
    buffers: &mut BufferSet,
    machine: &Machine,
    budget: Option<f64>,
) -> Result<Option<Report>, VmError> {
    let floor = machine.footprint_cycles(f.static_instr_count());
    if budget.is_some_and(|b| floor > b) {
        return Ok(None);
    }
    let mut sched = Scheduler::with_budget(machine.clone(), budget);
    slingen_vm::execute(f, buffers, &mut sched)?;
    if sched.budget_exceeded() {
        return Ok(None);
    }
    let mut report = sched.finish();
    report.cycles = report.cycles.max(floor);
    Ok(Some(report))
}
