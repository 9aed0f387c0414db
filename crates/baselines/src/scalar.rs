//! Straightforward-C competitors: scalar code as a good (icc) or plain
//! (clang/Polly) optimizing compiler would produce from handwritten loops
//! with hardcoded sizes (the paper's "straightforward code" baseline).

use crate::BaselineCode;
use slingen_cir::passes::{optimize, PassConfig};
use slingen_ir::Program;
use slingen_lgen::{lower_program, LowerOptions};
use slingen_synth::{synthesize_program, AlgorithmDb, Policy};

/// Generate scalar code. `good_compiler = true` models icc (scalar
/// replacement, CSE, aggressive unrolling); `false` models clang/Polly
/// (polyhedral rescheduling helps little at these sizes, and fewer scalar
/// optimizations apply).
///
/// # Errors
///
/// Propagates synthesis/lowering failures.
pub fn scalar_codegen(
    program: &Program,
    good_compiler: bool,
) -> Result<BaselineCode, Box<dyn std::error::Error>> {
    let mut db = AlgorithmDb::new();
    let basic = synthesize_program(program, Policy::Lazy, 1, &mut db)?;
    let opts = LowerOptions { nu: 1, loop_threshold: 9_999_999 };
    let mut f = lower_program(program, &basic, program.name(), &opts)?;
    let passes = if good_compiler {
        PassConfig {
            unroll_budget: 1 << 13,
            load_store_analysis: false,
            scalar_replacement: true,
            cse: true,
            fma_contraction: false,
            iterations: 3,
        }
    } else {
        PassConfig {
            unroll_budget: 1 << 10,
            load_store_analysis: false,
            scalar_replacement: false,
            cse: true,
            fma_contraction: false,
            iterations: 1,
        }
    };
    optimize(&mut f, &passes);
    Ok(BaselineCode { function: f })
}

#[cfg(test)]
mod tests {
    use super::*;
    use slingen_cir::Instr;
    use slingen_ir::{Expr, OperandDecl, ProgramBuilder};

    fn small_gemm() -> Program {
        let mut b = ProgramBuilder::new("gemm");
        let a = b.declare(OperandDecl::mat_in("A", 4, 4));
        let c = b.declare(OperandDecl::mat_in("B", 4, 4));
        let y = b.declare(OperandDecl::mat_out("Y", 4, 4));
        b.assign(y, Expr::op(a).mul(Expr::op(c)));
        b.build().unwrap()
    }

    #[test]
    fn scalar_code_has_no_vector_instructions() {
        let p = small_gemm();
        let code = scalar_codegen(&p, true).unwrap();
        code.function.for_each_instr(&mut |i| {
            assert!(
                !matches!(i, Instr::VBin { .. } | Instr::VLoad { .. } | Instr::VStore { .. }),
                "scalar baseline must not vectorize"
            );
        });
    }

    #[test]
    fn icc_beats_polly_in_instruction_count() {
        // scalar replacement + CSE shrink the stream
        let p = small_gemm();
        let icc = scalar_codegen(&p, true).unwrap();
        let polly = scalar_codegen(&p, false).unwrap();
        assert!(
            icc.function.static_instr_count() <= polly.function.static_instr_count(),
            "icc model should be at least as tight"
        );
    }
}
