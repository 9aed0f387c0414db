//! Gaussian process regression (paper Fig. 13b): predictive mean and
//! variance for noise-free test data — Cholesky, two triangular solves,
//! and a handful of dot products.
//!
//! Run with: `cargo run --release --example gaussian_process`

use slingen::{apps, Options};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 16;
    let program = apps::gpr(n);
    let generated = slingen::generate(&program, &Options::default())?;
    let spec = generated.spec;
    let diff = slingen::verify(&program, &generated.function, spec.policy, spec.nu, 5)?;
    println!("gpr n={n}: verified (max diff {diff:.2e})");
    assert!(diff < 1e-8);
    println!(
        "variant {}, {:.0} cycles, {:.2} f/c nominal",
        spec.policy,
        generated.report.cycles,
        apps::nominal_flops("gpr", n, 0) / generated.report.cycles
    );
    // The paper attributes gpr's modest performance to the sequentially
    // dependent divisions of the Cholesky/solve chain — visible here:
    println!("bottleneck: {}", generated.report.bottleneck());
    println!("\n{}", generated.report);
    Ok(())
}
