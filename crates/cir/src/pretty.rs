//! Human-readable C-IR dumps (for debugging, tests, and listings).

use crate::func::{CStmt, Function};
use crate::instr::Instr;
use std::fmt::Write as _;

/// Render one instruction.
pub fn instr_to_string(i: &Instr) -> String {
    fn lanes_str(lanes: &[Option<i64>]) -> String {
        let inner: Vec<String> = lanes
            .iter()
            .map(|l| match l {
                Some(v) => v.to_string(),
                None => "_".to_string(),
            })
            .collect();
        format!("[{}]", inner.join(","))
    }
    match i {
        Instr::SLoad { dst, src } => format!("{dst} = load {src}"),
        Instr::SStore { src, dst } => format!("store {src} -> {dst}"),
        Instr::SBin { op, dst, a, b } => format!("{dst} = {op} {a}, {b}"),
        Instr::SSqrt { dst, a } => format!("{dst} = sqrt {a}"),
        Instr::SFma { kind, dst, a, b, c } => format!("{dst} = {kind} {a}, {b}, {c}"),
        Instr::SMov { dst, a } => format!("{dst} = {a}"),
        Instr::VLoad { dst, base, lanes } => {
            format!("{dst} = vload {base} {}", lanes_str(lanes))
        }
        Instr::VStore { src, base, lanes } => {
            format!("vstore {src} -> {base} {}", lanes_str(lanes))
        }
        Instr::VMov { dst, src } => format!("{dst} = {src}"),
        Instr::VBin { op, dst, a, b } => format!("{dst} = v{op} {a}, {b}"),
        Instr::VFma { kind, dst, a, b, c } => format!("{dst} = v{kind} {a}, {b}, {c}"),
        Instr::VBroadcast { dst, src } => format!("{dst} = vbroadcast {src}"),
        Instr::VShuffle { dst, a, b, sel } => {
            let s: Vec<String> = sel.iter().map(|l| l.to_string()).collect();
            format!("{dst} = vshuffle {a}, {b} [{}]", s.join(","))
        }
        Instr::VPack { dst, elems } => {
            let e: Vec<String> = elems
                .iter()
                .map(|o| o.map_or_else(|| "0".to_string(), |o| o.to_string()))
                .collect();
            format!("{dst} = vpack [{}]", e.join(","))
        }
        Instr::VBlend { dst, a, b, mask } => {
            let m: String = mask.iter().map(|&x| if x { '1' } else { '0' }).collect();
            format!("{dst} = vblend {a}, {b} [{m}]")
        }
        Instr::VExtract { dst, src, lane } => format!("{dst} = vextract {src}[{lane}]"),
        Instr::VReduceAdd { dst, src } => format!("{dst} = vreduce_add {src}"),
    }
}

fn stmts_to_string(stmts: &[CStmt], indent: usize, out: &mut String) {
    for s in stmts {
        match s {
            CStmt::I(i) => {
                let _ = writeln!(out, "{:indent$}{}", "", instr_to_string(i), indent = indent);
            }
            CStmt::For { var, lo, hi, step, body } => {
                let _ = writeln!(
                    out,
                    "{:indent$}for ({var} = {lo}; {var} < {hi}; {var} += {step}) {{",
                    "",
                    indent = indent
                );
                stmts_to_string(body, indent + 2, out);
                let _ = writeln!(out, "{:indent$}}}", "", indent = indent);
            }
            CStmt::If { cond, then_, else_ } => {
                let _ = writeln!(out, "{:indent$}if ({cond}) {{", "", indent = indent);
                stmts_to_string(then_, indent + 2, out);
                if !else_.is_empty() {
                    let _ = writeln!(out, "{:indent$}}} else {{", "", indent = indent);
                    stmts_to_string(else_, indent + 2, out);
                }
                let _ = writeln!(out, "{:indent$}}}", "", indent = indent);
            }
        }
    }
}

/// Render a whole function.
pub fn function_to_string(f: &Function) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "func {} (nu={}) {{", f.name, f.width);
    for (id, b) in f.buffers.iter().enumerate() {
        let _ = writeln!(out, "  buf{} {} [{}] {:?}", id, b.name, b.len, b.kind);
    }
    stmts_to_string(&f.body, 2, &mut out);
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::{Affine, CmpOp, Cond};
    use crate::func::{BufKind, FunctionBuilder};
    use crate::instr::{BinOp, MemRef};

    #[test]
    fn dump_contains_structure() {
        let mut b = FunctionBuilder::new("demo", 4);
        let x = b.buffer("x", 16, BufKind::ParamInOut);
        let i = b.begin_for(0, 16, 4);
        b.begin_if(Cond::new(Affine::var(i), CmpOp::Lt, Affine::constant(8)));
        let v = b.vload_contig(MemRef::new(x, Affine::var(i)));
        let w = b.vbin(BinOp::Add, v, v);
        b.vstore_contig(w, MemRef::new(x, Affine::var(i)));
        b.end_if();
        b.end_for();
        let f = b.finish();
        let text = function_to_string(&f);
        assert!(text.contains("for (i0 = 0; i0 < 16; i0 += 4)"), "{text}");
        assert!(text.contains("if (i0 < 8)"), "{text}");
        assert!(text.contains("v0 = vload buf0[i0] [0,1,2,3]"), "{text}");
        assert!(text.contains("v1 = vadd v0, v0"), "{text}");
        assert!(text.contains("vstore v1 -> buf0[i0] [0,1,2,3]"), "{text}");
    }

    #[test]
    fn masked_lane_rendering() {
        let mut b = FunctionBuilder::new("m", 4);
        let x = b.buffer("x", 4, BufKind::ParamIn);
        b.vload(MemRef::new(x, 0), vec![Some(0), Some(1), None, None]);
        let f = b.finish();
        let text = function_to_string(&f);
        assert!(text.contains("[0,1,_,_]"), "{text}");
    }
}
