//! Full unrolling of constant-trip-count loops.
//!
//! Small-scale code profits from complete unrolling: it exposes constant
//! addresses to the load/store analysis and removes branch overhead. Loops
//! are unrolled innermost-first while the function's static instruction
//! count stays within a budget. Statement lists without a loop or a
//! conditional are left in place; only lists holding control flow are
//! rebuilt.

use crate::affine::LoopVar;
use crate::func::{CStmt, Function};
use crate::instr::Instr;

/// Whether a statement mentions `var` anywhere an unrolled copy would have
/// to rewrite it (memory offsets, nested bounds, conditions).
fn stmt_uses_var(s: &CStmt, var: LoopVar) -> bool {
    match s {
        CStmt::I(i) => match i {
            Instr::SLoad { src: m, .. }
            | Instr::SStore { dst: m, .. }
            | Instr::VLoad { base: m, .. }
            | Instr::VStore { base: m, .. } => m.offset.uses(var),
            _ => false,
        },
        CStmt::For { lo, hi, body, .. } => {
            lo.uses(var) || hi.uses(var) || body.iter().any(|s| stmt_uses_var(s, var))
        }
        CStmt::If { cond, then_, else_ } => {
            cond.uses(var)
                || then_.iter().any(|s| stmt_uses_var(s, var))
                || else_.iter().any(|s| stmt_uses_var(s, var))
        }
    }
}

/// Rewrite every use of `var` to the constant `value`, in place. Copies of
/// the loop-body template are plain clones; this walk then patches only
/// the induction-variable uses instead of rebuilding each statement tree.
fn subst_stmt_in_place(s: &mut CStmt, var: LoopVar, value: i64) {
    match s {
        CStmt::I(i) => subst_instr_in_place(i, var, value),
        CStmt::For { lo, hi, body, .. } => {
            lo.substitute_in_place(var, value);
            hi.substitute_in_place(var, value);
            for s in body {
                subst_stmt_in_place(s, var, value);
            }
        }
        CStmt::If { cond, then_, else_ } => {
            cond.substitute_in_place(var, value);
            for s in then_ {
                subst_stmt_in_place(s, var, value);
            }
            for s in else_ {
                subst_stmt_in_place(s, var, value);
            }
        }
    }
}

fn subst_instr_in_place(i: &mut Instr, var: LoopVar, value: i64) {
    match i {
        Instr::SLoad { src: m, .. }
        | Instr::SStore { dst: m, .. }
        | Instr::VLoad { base: m, .. }
        | Instr::VStore { base: m, .. } => m.offset.substitute_in_place(var, value),
        _ => {}
    }
}

fn unroll_stmts(stmts: Vec<CStmt>, budget: &mut isize) -> Vec<CStmt> {
    if super::is_straight_line(&stmts) {
        return stmts;
    }
    let mut out = Vec::new();
    for s in stmts {
        match s {
            CStmt::For { var, lo, hi, step, body } => {
                let body: Vec<CStmt> = unroll_stmts(body, budget);
                let trip = match (lo.as_constant(), hi.as_constant()) {
                    (Some(l), Some(h)) if h > l => ((h - l) + step - 1) / step,
                    (Some(_), Some(_)) => 0,
                    _ => -1, // symbolic bounds: keep rolled
                };
                if trip == 0 {
                    continue;
                }
                let body_count: i64 = body.iter().map(|b| b.static_instr_count() as i64).sum();
                if trip > 0 && trip * body_count <= *budget as i64 {
                    *budget -= (trip * body_count) as isize;
                    let l = lo.as_constant().unwrap();
                    let h = hi.as_constant().unwrap();
                    // The unrolled body is a *template*: copies are plain
                    // clones, induction-variable uses are rewritten in
                    // place, and statements that never mention the
                    // variable skip the rewrite walk entirely. The final
                    // iteration consumes the template without cloning.
                    let uses: Vec<bool> = body.iter().map(|b| stmt_uses_var(b, var)).collect();
                    let last = l + ((h - 1 - l) / step) * step;
                    let mut iv = l;
                    while iv < last {
                        for (b, used) in body.iter().zip(&uses) {
                            let mut copy = b.clone();
                            if *used {
                                subst_stmt_in_place(&mut copy, var, iv);
                            }
                            out.push(copy);
                        }
                        iv += step;
                    }
                    for (mut b, used) in body.into_iter().zip(uses) {
                        if used {
                            subst_stmt_in_place(&mut b, var, last);
                        }
                        out.push(b);
                    }
                } else {
                    out.push(CStmt::For { var, lo, hi, step, body });
                }
            }
            CStmt::If { cond, then_, else_ } => {
                let then_ = unroll_stmts(then_, budget);
                let else_ = unroll_stmts(else_, budget);
                out.push(CStmt::If { cond, then_, else_ });
            }
            other => out.push(other),
        }
    }
    out
}

/// Unroll all constant loops in `f` while the static instruction count
/// stays at or below `max_instrs`.
pub fn unroll(f: &mut Function, max_instrs: usize) {
    if super::is_straight_line(&f.body) {
        return;
    }
    let mut budget = max_instrs as isize - f.static_instr_count() as isize;
    if budget < 0 {
        budget = 0;
    }
    let body = std::mem::take(&mut f.body);
    f.body = unroll_stmts(body, &mut budget);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::Affine;
    use crate::func::{BufKind, FunctionBuilder};
    use crate::instr::MemRef;

    fn loop_copy(n: i64) -> Function {
        let mut b = FunctionBuilder::new("u", 1);
        let x = b.buffer("x", n as usize, BufKind::ParamIn);
        let y = b.buffer("y", n as usize, BufKind::ParamOut);
        let i = b.begin_for(0, n, 1);
        let r = b.sload(MemRef::new(x, Affine::var(i)));
        b.sstore(r, MemRef::new(y, Affine::var(i)));
        b.end_for();
        b.finish()
    }

    #[test]
    fn small_loop_fully_unrolls_with_constant_addresses() {
        let mut f = loop_copy(4);
        unroll(&mut f, 1000);
        assert_eq!(f.body.len(), 8);
        // every address must now be constant
        f.for_each_instr(&mut |i| match i {
            Instr::SLoad { src, .. } => assert!(src.offset.as_constant().is_some()),
            Instr::SStore { dst, .. } => assert!(dst.offset.as_constant().is_some()),
            _ => {}
        });
    }

    #[test]
    fn budget_prevents_explosion() {
        let mut f = loop_copy(1000);
        unroll(&mut f, 100);
        // stays rolled
        assert_eq!(f.body.len(), 1);
        assert!(matches!(f.body[0], CStmt::For { .. }));
    }

    #[test]
    fn nested_loops_unroll_inner_first() {
        let mut b = FunctionBuilder::new("n", 1);
        let x = b.buffer("x", 16, BufKind::ParamInOut);
        let i = b.begin_for(0, 4, 1);
        let j = b.begin_for(0, 4, 1);
        let addr = MemRef::new(x, Affine::var(i).scaled(4).plus(&Affine::var(j)));
        let r = b.sload(addr.clone());
        b.sstore(r, addr);
        b.end_for();
        b.end_for();
        let mut f = b.finish();
        unroll(&mut f, 1000);
        assert_eq!(f.body.len(), 32);
    }

    #[test]
    fn empty_range_loops_vanish() {
        let mut b = FunctionBuilder::new("e", 1);
        let x = b.buffer("x", 4, BufKind::ParamInOut);
        let i = b.begin_for(2, 2, 1);
        let r = b.sload(MemRef::new(x, Affine::var(i)));
        b.sstore(r, MemRef::new(x, Affine::var(i)));
        b.end_for();
        let mut f = b.finish();
        unroll(&mut f, 1000);
        assert!(f.body.is_empty());
    }

    /// An outer loop whose body keeps an inner *rolled* loop with
    /// outer-var-dependent bounds: the template rewrite must patch the
    /// inner bounds in every copy.
    #[test]
    fn outer_var_in_rolled_inner_bounds() {
        let mut b = FunctionBuilder::new("tri", 1);
        let x = b.buffer("x", 64, BufKind::ParamInOut);
        let i = b.begin_for(0, 3, 1);
        let j = b.begin_for(0, 100, 1); // too big to unroll within budget
        let addr = MemRef::new(x, Affine::var(j));
        let r = b.sload(addr.clone());
        b.sstore(r, addr);
        b.end_for();
        b.end_for();
        let mut f = b.finish();
        // rewrite inner hi to depend on the outer var
        if let CStmt::For { body, .. } = &mut f.body[0] {
            if let CStmt::For { hi, .. } = &mut body[0] {
                *hi = Affine::var(i).scaled(10).offset(20);
            }
        }
        unroll(&mut f, 100);
        assert_eq!(f.body.len(), 3, "outer unrolled, inner rolled");
        for (copy, expect_hi) in f.body.iter().zip([20, 30, 40]) {
            match copy {
                CStmt::For { hi, .. } => assert_eq!(hi.as_constant(), Some(expect_hi)),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn step_respected() {
        let mut b = FunctionBuilder::new("s", 1);
        let x = b.buffer("x", 8, BufKind::ParamInOut);
        let i = b.begin_for(0, 8, 4);
        let r = b.sload(MemRef::new(x, Affine::var(i)));
        b.sstore(r, MemRef::new(x, Affine::var(i)));
        b.end_for();
        let mut f = b.finish();
        unroll(&mut f, 1000);
        assert_eq!(f.body.len(), 4); // two iterations, two instrs each
        match &f.body[2] {
            CStmt::I(Instr::SLoad { src, .. }) => {
                assert_eq!(src.offset.as_constant(), Some(4));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
