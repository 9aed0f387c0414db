//! Library-based competitors: MKL, Cl1ck+MKL, ReLAPACK, RECSY.
//!
//! These implement the input program as a sequence of `Call` instructions
//! into a kernel library. Each call pays the machine model's fixed
//! interface overhead — the cost the paper attributes to library APIs on
//! small sizes — and the kernels themselves are vectorized but *generic*
//! (loop-based, moderately unrolled), unlike SLinGen's size-specialized
//! straight-line output.
//!
//! * [`LibraryStyle::WholeStatement`] (MKL): one call per LA statement
//!   (one `dgemm`/`dpotrf`/`dtrsm`... per line of the program).
//! * [`LibraryStyle::Blocked`] (Cl1ck+MKL): the blocked algorithm derived
//!   by the synthesis engine with block size `nb`; every block operation
//!   becomes a BLAS-style call (runs of scalar/codelet statements between
//!   block operations group into one LAPACK-style call, matching Cl1ck's
//!   use of unblocked kernels on the diagonal).
//! * [`LibraryStyle::Recursive`] (ReLAPACK / RECSY): recursive halving —
//!   modeled as blocking with `nb = max(ν, n/2)` whose sub-operations call
//!   kernels; RECSY additionally pays a larger per-call overhead through
//!   its [`crate::Flavor::machine`].

use crate::BaselineCode;
use slingen_cir::passes::{optimize, PassConfig};
use slingen_cir::{BufKind, FunctionBuilder, Instr};
use slingen_ir::Program;
use slingen_lgen::{lower_program, BufferMap, LowerOptions};
use slingen_synth::program::{BasicProgram, BasicStmt};
use slingen_synth::{synthesize_program, AlgorithmDb, Policy};
use slingen_vm::KernelLib;

/// Library decomposition granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LibraryStyle {
    /// One kernel call per LA statement (MKL).
    WholeStatement,
    /// Blocked algorithm with the given block size (Cl1ck+MKL).
    Blocked {
        /// Block size `nb` of the Cl1ck algorithm.
        nb: usize,
    },
    /// Recursive halving (ReLAPACK/RECSY).
    Recursive,
}

/// Kernel code quality: vectorized but generic (library routines serve
/// all sizes, so loops dominate and unrolling is bounded).
fn kernel_passes() -> PassConfig {
    PassConfig {
        unroll_budget: 384,
        load_store_analysis: true,
        scalar_replacement: true,
        cse: true,
        fma_contraction: false,
        iterations: 2,
    }
}

/// Generate library-based code for `program`.
///
/// # Errors
///
/// Propagates synthesis/lowering failures.
pub fn library_codegen(
    program: &Program,
    style: LibraryStyle,
) -> Result<BaselineCode, Box<dyn std::error::Error>> {
    let max_dim =
        program.operands().iter().map(|o| o.shape.rows.max(o.shape.cols)).max().unwrap_or(1);
    let nb = match style {
        LibraryStyle::WholeStatement => max_dim.max(1),
        LibraryStyle::Blocked { nb } => nb.max(1),
        LibraryStyle::Recursive => (max_dim / 2).max(4),
    };
    // Stage 1 at the library's block granularity.
    let mut db = AlgorithmDb::new();
    let basic = synthesize_program(program, Policy::Lazy, nb, &mut db)?;

    // group statements into kernel-sized units: block operations (large
    // left-hand sides) stand alone; runs of codelet-level statements merge
    // into one unblocked-kernel call
    let big = (nb * nb / 2).max(2);
    let mut groups: Vec<Vec<BasicStmt>> = Vec::new();
    let mut run: Vec<BasicStmt> = Vec::new();
    for stmt in &basic.stmts {
        let area = (stmt.lhs.r1 - stmt.lhs.r0) * (stmt.lhs.c1 - stmt.lhs.c0);
        if area >= big {
            if !run.is_empty() {
                groups.push(std::mem::take(&mut run));
            }
            groups.push(vec![stmt.clone()]);
        } else {
            run.push(stmt.clone());
        }
    }
    if !run.is_empty() {
        groups.push(run);
    }

    // kernels: each group lowered as its own function over the program's
    // full parameter list
    let mut kernels = KernelLib::new();
    let opts = LowerOptions { nu: 4, loop_threshold: 8 };
    let mut kernel_names = Vec::new();
    for (i, group) in groups.iter().enumerate() {
        let name = format!("{}_k{}", program.name(), i);
        let bp = BasicProgram { stmts: group.clone() };
        let mut kf = lower_program(program, &bp, &name, &opts)?;
        optimize(&mut kf, &kernel_passes());
        kernel_names.push(kernels.register(kf));
    }

    // the main function: declare the same buffers, call each kernel
    let mut fb = FunctionBuilder::new(program.name(), 4);
    let map = BufferMap::build(program, &mut fb);
    let param_bufs: Vec<slingen_cir::BufId> = {
        // parameter order = declaration order of non-local buffers
        let probe = {
            let mut pfb = FunctionBuilder::new("probe", 4);
            let _ = BufferMap::build(program, &mut pfb);
            pfb.finish()
        };
        probe.params().map(|(id, _)| id).collect()
    };
    let _ = &map;
    for name in kernel_names {
        // kernels may declare local temporaries; the call passes only the
        // shared parameter buffers, in matching order
        let expected = kernels.get(&name).map(|k| k.params().count()).unwrap_or(0);
        let bufs: Vec<slingen_cir::BufId> = param_bufs.iter().copied().take(expected).collect();
        fb.instr(Instr::Call { kernel: name, bufs, ints: vec![] });
    }
    let function = fb.finish();
    debug_assert!(function.buffers.iter().all(|b| b.kind != BufKind::Local));
    Ok(BaselineCode { function, kernels })
}

#[cfg(test)]
mod tests {
    use super::*;
    use slingen_ir::structure::StorageHalf;
    use slingen_ir::{Expr, OperandDecl, ProgramBuilder, Properties, Structure};

    fn potrf_program(n: usize) -> Program {
        let mut b = ProgramBuilder::new("potrf");
        let s = b.declare(
            OperandDecl::mat_in("S", n, n)
                .with_structure(Structure::Symmetric(StorageHalf::Upper))
                .with_properties(Properties::pd()),
        );
        let u = b.declare(
            OperandDecl::mat_out("U", n, n)
                .with_structure(Structure::UpperTriangular)
                .with_properties(Properties::ns()),
        );
        b.equation(Expr::op(u).t().mul(Expr::op(u)), Expr::op(s));
        b.build().unwrap()
    }

    #[test]
    fn whole_statement_style_emits_one_call_per_statement() {
        let p = potrf_program(8);
        let code = library_codegen(&p, LibraryStyle::WholeStatement).unwrap();
        let mut calls = 0;
        code.function.for_each_instr(&mut |i| {
            if matches!(i, Instr::Call { .. }) {
                calls += 1;
            }
        });
        // one LAPACK call (plus at most a copy-in call)
        assert!(calls <= 2, "MKL: {calls} calls for a single potrf");
        assert!(!code.kernels.is_empty());
    }

    #[test]
    fn blocked_style_emits_more_calls() {
        let p = potrf_program(16);
        let mkl = library_codegen(&p, LibraryStyle::WholeStatement).unwrap();
        let cl1ck = library_codegen(&p, LibraryStyle::Blocked { nb: 4 }).unwrap();
        let count = |f: &slingen_cir::Function| {
            let mut n = 0;
            f.for_each_instr(&mut |i| {
                if matches!(i, Instr::Call { .. }) {
                    n += 1;
                }
            });
            n
        };
        assert!(
            count(&cl1ck.function) > count(&mkl.function),
            "blocked algorithms make more library calls"
        );
    }
}
