//! Folding of affine conditions made constant by unrolling.
//!
//! After full unrolling, `If` conditions on induction variables become
//! constant; this pass splices in the taken branch. It also removes loops
//! whose range is statically empty. Straight-line statement lists have
//! nothing to fold and are left in place.

use crate::func::{CStmt, Function};

fn fold_stmts(stmts: Vec<CStmt>) -> Vec<CStmt> {
    if super::is_straight_line(&stmts) {
        return stmts;
    }
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        match s {
            CStmt::If { cond, then_, else_ } => {
                let then_ = fold_stmts(then_);
                let else_ = fold_stmts(else_);
                match cond.as_constant() {
                    Some(true) => out.extend(then_),
                    Some(false) => out.extend(else_),
                    None => {
                        if then_.is_empty() && else_.is_empty() {
                            // drop empty conditionals entirely
                        } else {
                            out.push(CStmt::If { cond, then_, else_ });
                        }
                    }
                }
            }
            CStmt::For { var, lo, hi, step, body } => {
                let body = fold_stmts(body);
                let empty_range = match (lo.as_constant(), hi.as_constant()) {
                    (Some(l), Some(h)) => h <= l,
                    _ => false,
                };
                if body.is_empty() || empty_range {
                    continue;
                }
                out.push(CStmt::For { var, lo, hi, step, body });
            }
            other => out.push(other),
        }
    }
    out
}

/// Fold constant conditions and drop dead control flow in `f`.
pub fn fold(f: &mut Function) {
    let body = std::mem::take(&mut f.body);
    f.body = fold_stmts(body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::{Affine, CmpOp, Cond};
    use crate::func::{BufKind, FunctionBuilder};
    use crate::instr::MemRef;

    #[test]
    fn constant_true_splices_then_branch() {
        let mut b = FunctionBuilder::new("f", 1);
        let x = b.buffer("x", 2, BufKind::ParamInOut);
        b.begin_if(Cond::new(Affine::constant(1), CmpOp::Lt, Affine::constant(2)));
        let r = b.sload(MemRef::new(x, 0));
        b.sstore(r, MemRef::new(x, 1));
        b.begin_else();
        b.smov(0.0);
        b.end_if();
        let mut f = b.finish();
        fold(&mut f);
        assert_eq!(f.body.len(), 2);
        assert!(f.body.iter().all(|s| matches!(s, CStmt::I(_))));
    }

    #[test]
    fn constant_false_splices_else_branch() {
        let mut b = FunctionBuilder::new("f", 1);
        b.begin_if(Cond::new(Affine::constant(5), CmpOp::Lt, Affine::constant(2)));
        b.smov(1.0);
        b.begin_else();
        b.smov(2.0);
        b.smov(3.0);
        b.end_if();
        let mut f = b.finish();
        fold(&mut f);
        assert_eq!(f.body.len(), 2);
    }

    #[test]
    fn empty_loops_and_ifs_removed() {
        let mut b = FunctionBuilder::new("f", 1);
        b.begin_for(0, 4, 1);
        b.begin_if(Cond::new(Affine::constant(0), CmpOp::Eq, Affine::constant(1)));
        b.end_if();
        b.end_for();
        let mut f = b.finish();
        fold(&mut f);
        assert!(f.body.is_empty());
    }

    #[test]
    fn symbolic_conditions_survive() {
        let mut b = FunctionBuilder::new("f", 1);
        let i = b.begin_for(0, 4, 1);
        b.begin_if(Cond::new(Affine::var(i), CmpOp::Lt, Affine::constant(2)));
        b.smov(1.0);
        b.end_if();
        b.end_for();
        let mut f = b.finish();
        fold(&mut f);
        match &f.body[0] {
            CStmt::For { body, .. } => assert!(matches!(body[0], CStmt::If { .. })),
            other => panic!("unexpected {other:?}"),
        }
    }
}
