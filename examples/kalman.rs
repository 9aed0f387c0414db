//! The paper's flagship application: one iteration of the Kalman filter
//! (Fig. 13a) — generation, verification against a hand-written reference
//! built on the BLAS substrate, and a head-to-head with the Eigen-style
//! and icc-style baselines on the machine model (modeled cycles).
//!
//! Run with: `cargo run --release --example kalman`

use slingen::{apps, Options};
use slingen_baselines::Flavor;

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

    // model SLinGen vs the baselines on the same machine model
    let flops = apps::nominal_flops("kf", n, 0);
    println!(
        "SLinGen ({}): {:.0} modeled cycles, {:.2} f/c",
        spec.policy,
        generated.report.cycles,
        flops / generated.report.cycles
    );
    for flavor in [Flavor::Eigen, Flavor::Icc] {
        let m = slingen_bench::measure_baseline(&program, flavor, n, flops);
        println!(
            "{} baseline: {:.0} modeled cycles, {:.2} f/c  (SLinGen speedup {:.1}x)",
            m.label,
            m.cycles,
            m.flops_per_cycle,
            m.cycles / generated.report.cycles
        );
    }
    println!("\nbottleneck report for the generated code:\n{}", generated.report);
    Ok(())
}
