//! Shared measurement harness for the figure/table binaries.
//!
//! Every competitor — SLinGen's generated code and the compiler- and
//! template-style baselines — is executed by the same VM on the same
//! valid random workloads and costed by the same Sandy Bridge machine
//! model. Every number here is therefore *modeled*; hardware timings of
//! the same C come from `slingen::HardwareMeasurer` (see
//! `tests/paper_claims.rs` and `perfbench`'s `kernels` workload).
//! Performance is reported in flops/cycle against the paper's *nominal*
//! operation counts (e.g. n³/3 for Cholesky), exactly like the paper's
//! plots.

use slingen::{apps, Options, VariantSpec};
use slingen_baselines::{baseline_codegen, Flavor};
use slingen_ir::Program;
use slingen_perf::{Machine, Report};
use slingen_synth::Policy;

/// A single modeled measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Competitor label.
    pub label: String,
    /// Problem size.
    pub n: usize,
    /// Modeled cycles.
    pub cycles: f64,
    /// Performance in flops/cycle against the nominal flop count.
    pub flops_per_cycle: f64,
    /// The full performance report.
    pub report: Report,
}

fn run_function(program: &Program, function: &slingen_cir::Function, seed: u64) -> Report {
    let mut bufs = slingen::workload::buffers(program, function, seed);
    slingen_perf::measure(function, &mut bufs, None, &Machine::sandy_bridge()).expect("measurement")
}

/// Model SLinGen's autotuned output.
pub fn measure_slingen(program: &Program, n: usize, nominal_flops: f64) -> Measurement {
    let g = slingen::generate(program, &Options::default()).expect("slingen generation");
    let report = run_function(program, &g.function, 7);
    Measurement {
        label: "SLinGen".to_string(),
        n,
        cycles: report.cycles,
        flops_per_cycle: nominal_flops / report.cycles,
        report,
    }
}

/// Model one fixed SLinGen variant (the dashed lines of Fig. 14).
pub fn measure_slingen_variant(
    program: &Program,
    policy: Policy,
    n: usize,
    nominal_flops: f64,
) -> Measurement {
    let opts = Options::default();
    let spec = VariantSpec { policy, nu: opts.nu };
    let g = slingen::generate_with_spec(program, spec, &opts).expect("slingen variant");
    let report = run_function(program, &g.function, 7);
    Measurement {
        label: format!("SLinGen ({policy})"),
        n,
        cycles: report.cycles,
        flops_per_cycle: nominal_flops / report.cycles,
        report,
    }
}

/// Model a competitor flavor.
pub fn measure_baseline(
    program: &Program,
    flavor: Flavor,
    n: usize,
    nominal_flops: f64,
) -> Measurement {
    let code = baseline_codegen(program, flavor).expect("baseline generation");
    let report = run_function(program, &code.function, 7);
    Measurement {
        label: flavor.label().to_string(),
        n,
        cycles: report.cycles,
        flops_per_cycle: nominal_flops / report.cycles,
        report,
    }
}

/// The paper's x-axis for the HLAC plots (Fig. 14): n = 4..124 step 8.
/// The quick grid keeps harness runtime small; `--full` restores the
/// paper's grid.
pub fn hlac_sizes(full: bool) -> Vec<usize> {
    if full {
        (4..=124).step_by(8).collect()
    } else {
        vec![4, 12, 20, 28, 44]
    }
}

/// The application plot sizes (Fig. 15): n = 4..52 step 8.
pub fn app_sizes(full: bool) -> Vec<usize> {
    if full {
        (4..=52).step_by(8).collect()
    } else {
        vec![4, 12, 20, 28]
    }
}

/// Build the benchmark program by name.
pub fn program_for(name: &str, n: usize) -> Program {
    apps::by_name(name, n, None).unwrap_or_else(|| panic!("unknown benchmark `{name}`"))
}

/// Render one plot row.
pub fn format_row(ms: &[Measurement]) -> String {
    let mut line = format!("n={:<4}", ms.first().map(|m| m.n).unwrap_or(0));
    for m in ms {
        line.push_str(&format!("  {:>18}: {:5.2} f/c", m.label, m.flops_per_cycle));
    }
    line
}
