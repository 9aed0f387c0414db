//! The paper's flagship application: one iteration of the Kalman filter
//! (Fig. 13a) — generation, verification against a hand-written reference
//! built on the BLAS substrate, and a head-to-head with the MKL-style
//! library baseline.
//!
//! Run with: `cargo run --release --example kalman`

use slingen::{apps, Options};
use slingen_baselines::{baseline_codegen, Flavor};
use slingen_lgen::BufferMap;
use slingen_vm::BufferSet;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 12; // states = observations, as in Fig. 15a
    let program = apps::kf(n);
    println!(
        "Kalman filter, n = {n}: {} LA statements ({} HLACs)",
        program.statements().len(),
        program.statements().iter().filter(|s| s.is_hlac()).count()
    );

    let generated = slingen::generate(&program, &Options::default())?;
    let spec = generated.spec;
    let diff = slingen::verify(&program, &generated.function, spec.policy, spec.nu, 9)?;
    println!("verification vs reference semantics: max diff {diff:.2e}");
    assert!(diff < 1e-8);

    // measure SLinGen vs the MKL-style baseline on the same workload
    let flops = apps::nominal_flops("kf", n, 0);
    println!(
        "SLinGen ({}): {:.0} cycles, {:.2} f/c",
        spec.policy,
        generated.report.cycles,
        flops / generated.report.cycles
    );
    let mkl = baseline_codegen(&program, Flavor::Mkl)?;
    let mut fb = slingen_cir::FunctionBuilder::new("probe", 4);
    let map = BufferMap::build(&program, &mut fb);
    let mut bufs = BufferSet::for_function(&mkl.function);
    for (op, data) in slingen::workload::inputs(&program, 9) {
        bufs.set(map.buf(op), &data);
    }
    let mkl_report = slingen_perf::measure(
        &mkl.function,
        &mut bufs,
        Some(&mkl.kernels),
        &Flavor::Mkl.machine(),
    )?;
    println!(
        "MKL baseline: {:.0} cycles, {:.2} f/c  (SLinGen speedup {:.1}x)",
        mkl_report.cycles,
        flops / mkl_report.cycles,
        mkl_report.cycles / generated.report.cycles
    );
    println!("\nbottleneck report for the generated code:\n{}", generated.report);
    Ok(())
}
