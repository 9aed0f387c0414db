//! The LA language's `for` construct: run several Kalman-style damped
//! update steps in one generated function (the grammar's ⟨for-loop⟩,
//! paper Fig. 4). Demonstrates parsing loops from text and verifying the
//! generated code.
//!
//! Run with: `cargo run --release --example kf_steps`

use slingen_ir::parse::Parser;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = "
        Mat F(n, n) <In>;
        Mat B(n, n) <In>;
        Vec u(n) <In>;
        Vec x(n) <InOut>;
        for (i = 0:4) {
            x = F * x + B * u;
        }
    ";
    let program = Parser::new().with_name("kf_steps").with_param("n", 8).parse(source)?;
    println!("parsed:\n{program}");

    let generated = slingen::generate(&program, &slingen::Options::default())?;
    let spec = generated.spec;
    let diff = slingen::verify(&program, &generated.function, spec.policy, spec.nu, 11)?;
    println!(
        "4 unrolled steps: {:.0} cycles, verified (max diff {diff:.2e})",
        generated.report.cycles
    );
    assert!(diff < 1e-9);

    // the state-update statement appears once per iteration in the
    // synthesized basic program
    let mut db = slingen_synth::AlgorithmDb::new();
    let basic = slingen_synth::synthesize_program(&program, spec.policy, spec.nu, &mut db)?;
    assert_eq!(basic.stmts.len(), 4, "one statement per unrolled iteration");
    Ok(())
}
