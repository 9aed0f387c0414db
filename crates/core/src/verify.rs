//! Self-verification: generated code vs the Stage-1 reference semantics.
//!
//! The generated C-IR is executed by the VM on a valid random workload and
//! compared against the reference evaluation of the same basic program —
//! the numeric ground truth the synthesis tests validate against LAPACK.

use crate::workload;
use crate::Error;
use slingen_cir::Function;
use slingen_ir::{OpId, Program};
use slingen_lgen::BufferMap;
use slingen_synth::program::VExpr;
use slingen_synth::{synthesize_program, AlgorithmDb, Policy};
use slingen_vm::{BufferSet, NullMonitor};
use std::collections::HashMap;

fn map_expr_ops(e: &VExpr, root: &impl Fn(OpId) -> OpId) -> VExpr {
    let rec = |x: &VExpr| Box::new(map_expr_ops(x, root));
    match e {
        VExpr::View(v) => {
            let mut v = *v;
            v.op = root(v.op);
            VExpr::View(v)
        }
        VExpr::Lit(x) => VExpr::Lit(*x),
        VExpr::Add(a, b) => VExpr::Add(rec(a), rec(b)),
        VExpr::Sub(a, b) => VExpr::Sub(rec(a), rec(b)),
        VExpr::Mul(a, b) => VExpr::Mul(rec(a), rec(b)),
        VExpr::Div(a, b) => VExpr::Div(rec(a), rec(b)),
        VExpr::Neg(a) => VExpr::Neg(rec(a)),
        VExpr::Sqrt(a) => VExpr::Sqrt(rec(a)),
    }
}

/// Execute `function` and the reference semantics on the same inputs;
/// return the maximum absolute output difference.
///
/// # Errors
///
/// Returns [`Error`] on synthesis or execution failure.
pub fn verify(
    program: &Program,
    function: &Function,
    policy: Policy,
    nu: usize,
    seed: u64,
) -> Result<f64, Error> {
    // reference: evaluate the basic program densely. `ow(..)` operands
    // share storage in the generated code, so the reference must alias
    // them too: rewrite every view to its ow-root before evaluating.
    let root = |mut id: OpId| -> OpId {
        while let Some(t) = program.operand(id).overwrites {
            id = t;
        }
        id
    };
    let mut db = AlgorithmDb::new();
    let basic = synthesize_program(program, policy, nu, &mut db)?;
    let rerooted = slingen_synth::BasicProgram {
        stmts: basic
            .stmts
            .iter()
            .map(|stmt| {
                let mut lhs = stmt.lhs;
                lhs.op = root(lhs.op);
                let rhs = map_expr_ops(&stmt.rhs, &root);
                slingen_synth::program::BasicStmt { lhs, rhs }
            })
            .collect(),
    };
    let mut ref_bufs: HashMap<OpId, Vec<f64>> = program
        .operands()
        .iter()
        .enumerate()
        .map(|(i, o)| (OpId(i), vec![0.0; o.shape.rows * o.shape.cols]))
        .collect();
    let inputs = workload::inputs(program, seed);
    for (op, data) in &inputs {
        ref_bufs.insert(root(*op), data.clone());
    }
    slingen_synth::program::eval::run(program, &rerooted, &mut ref_bufs);

    // generated code in the VM
    let mut fb = slingen_cir::FunctionBuilder::new("probe", nu);
    let map = BufferMap::build(program, &mut fb);
    let mut bufs = BufferSet::for_function(function);
    for (op, data) in &inputs {
        bufs.set(map.buf(*op), data);
    }
    slingen_vm::execute(function, &mut bufs, &mut NullMonitor)?;

    // compare outputs element-wise over their meaningful region; a cell
    // is unspecified if *any* operand sharing the storage (via ow) marks
    // it structurally zero — e.g. the strict lower half of `S` once the
    // Cholesky factor `U` has overwritten it (LAPACK leaves it stale)
    let mut max_diff: f64 = 0.0;
    for (i, decl) in program.operands().iter().enumerate() {
        if !decl.io.writable() {
            continue;
        }
        let op = OpId(i);
        let got = bufs.get(map.buf(op));
        let expect = &ref_bufs[&root(op)];
        let (rows, cols) = (decl.shape.rows, decl.shape.cols);
        let sharers: Vec<&slingen_ir::OperandDecl> = program
            .operands()
            .iter()
            .enumerate()
            .filter(|(j, _)| root(OpId(*j)) == root(op))
            .map(|(_, d)| d)
            .collect();
        for r in 0..rows {
            for c in 0..cols {
                if sharers.iter().any(|d| d.structure.is_zero_at(r, c)) {
                    continue;
                }
                let d = (got[r * cols + c] - expect[r * cols + c]).abs();
                max_diff = max_diff.max(d);
            }
        }
    }
    Ok(max_diff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;
    use crate::pipeline::{generate_with_spec, Options};
    use crate::tuner::VariantSpec;

    #[test]
    fn all_benchmarks_verify() {
        for (name, program) in [
            ("potrf", apps::potrf(8)),
            ("trsyl", apps::trsyl(6)),
            ("trlya", apps::trlya(6)),
            ("trtri", apps::trtri(8)),
            ("kf", apps::kf(4)),
            ("gpr", apps::gpr(6)),
            ("l1a", apps::l1a(8)),
        ] {
            for policy in Policy::ALL {
                let spec = VariantSpec { policy, nu: 4 };
                let g = generate_with_spec(&program, spec, &Options::default())
                    .unwrap_or_else(|e| panic!("{name} {policy}: {e}"));
                let diff = verify(&program, &g.function, policy, 4, 1234)
                    .unwrap_or_else(|e| panic!("{name} {policy}: {e}"));
                assert!(diff < 1e-8, "{name} {policy}: diff {diff}");
            }
        }
    }
}
