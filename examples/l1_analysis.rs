//! The L1-analysis convex solver iteration (paper Fig. 13c), used in
//! image denoising and sparse recovery: eight BLAS-2-shaped statements.
//!
//! Run with: `cargo run --release --example l1_analysis`

use slingen::{apps, Options};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 24;
    let program = apps::l1a(n);
    let generated = slingen::generate(&program, &Options::default())?;
    let spec = generated.spec;
    let diff = slingen::verify(&program, &generated.function, spec.policy, spec.nu, 3)?;
    println!("l1a n={n}: verified (max diff {diff:.2e})");
    assert!(diff < 1e-8);
    println!(
        "{:.0} cycles, {:.2} f/c nominal (memory-bound: {})",
        generated.report.cycles,
        apps::nominal_flops("l1a", n, 0) / generated.report.cycles,
        generated.report.bottleneck()
    );
    Ok(())
}
