//! Quickstart: write an LA program as text (the paper's Fig. 5), generate
//! optimized C, and inspect the result.
//!
//! Run with: `cargo run --example quickstart`

use slingen_ir::parse::Parser;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's Fig. 5: a fragment of the Kalman filter. `U` shares
    // storage with `S` via ow(..), so the Cholesky factor overwrites it.
    let source = "
        Mat H(k, n) <In>;
        Mat P(k, k) <In, UpSym, PD>;
        Mat R(k, k) <In, UpSym, PD>;
        Mat S(k, k) <Out, UpSym, PD>;
        Mat U(k, k) <Out, UpTri, NS, ow(S)>;
        Mat B(k, k) <Out>;
        S = H * H' + R;
        U' * U = S;
        U' * B = P;
    ";
    let program = Parser::new()
        .with_name("kalman_fragment")
        .with_param("k", 4)
        .with_param("n", 8)
        .parse(source)?;
    println!("parsed LA program:\n{program}");

    let generated = slingen::generate(&program, &slingen::Options::default())?;
    println!(
        "selected variant: {} ({} variants explored)",
        generated.spec, generated.tuning.explored
    );
    println!("modeled performance: {:.2} flops/cycle", generated.flops_per_cycle());
    println!("\ngenerated C:\n{}", generated.c_code);

    // verify the generated code against the reference semantics
    let spec = generated.spec;
    let diff = slingen::verify(&program, &generated.function, spec.policy, spec.nu, 42)?;
    println!("max |generated - reference| = {diff:.2e}");
    assert!(diff < 1e-9);
    Ok(())
}
