//! Statement lowering: basic LA statements → tiled, vectorized C-IR.

use crate::layout::BufferMap;
use crate::LgenError;
use slingen_cir::{
    Affine, BinOp, BufKind, Function, FunctionBuilder, MemRef, SOperand, SReg, VReg,
};
use slingen_ir::{Program, Structure};
use slingen_synth::program::{BasicProgram, BasicStmt, VExpr};
use slingen_synth::term::View;

/// Lowering options.
#[derive(Debug, Clone, Copy)]
pub struct LowerOptions {
    /// Vector width ν (1 = scalar code).
    pub nu: usize,
    /// Statements whose estimated tile work exceeds this emit affine loops
    /// instead of straight-line code (the Stage-3 unroller may re-expand
    /// them within its budget). The autotuner always lowers at the
    /// default 64; the baselines keep loops (8) or never emit them.
    pub loop_threshold: usize,
}

impl LowerOptions {
    /// Options at vector width ν and the given loop threshold.
    pub fn new(nu: usize, loop_threshold: usize) -> Self {
        LowerOptions { nu, loop_threshold }
    }
}

impl Default for LowerOptions {
    fn default() -> Self {
        LowerOptions::new(4, 64)
    }
}

/// Lower a basic program into one C-IR function named `name`.
///
/// # Errors
///
/// Returns [`LgenError`] for statement shapes outside the supported class
/// (which the synthesis stage never produces).
pub fn lower_program(
    program: &Program,
    basic: &BasicProgram,
    name: &str,
    opts: &LowerOptions,
) -> Result<Function, LgenError> {
    let mut fb = FunctionBuilder::new(name, opts.nu);
    let bufs = BufferMap::build(program, &mut fb);
    let mut ctx = Ctx { program, fb, bufs, opts: *opts, temp_count: 0 };
    for stmt in &basic.stmts {
        ctx.lower_stmt(stmt)?;
    }
    Ok(ctx.fb.finish())
}

/// A scalar multiplicative factor of a product term.
#[derive(Debug, Clone)]
enum SFactor {
    View(View),
    Lit(f64),
    /// `1 / view` — the paper's R1 reciprocal rewrite.
    Recip(View),
}

/// One additive term: ±(Π scalars)·(0–2 matrix factors).
#[derive(Debug, Clone)]
struct ProductTerm {
    neg: bool,
    scalars: Vec<SFactor>,
    mats: Vec<View>,
}

struct Ctx<'p> {
    program: &'p Program,
    fb: FunctionBuilder,
    bufs: BufferMap,
    opts: LowerOptions,
    temp_count: usize,
}

impl<'p> Ctx<'p> {
    fn nu(&self) -> usize {
        self.opts.nu
    }

    // ---- addressing ----

    fn elem_addr(&self, v: &View, i: &Affine, j: &Affine) -> MemRef {
        let (r, c) = if v.trans { (j, i) } else { (i, j) };
        let stride = self.bufs.stride(v.op) as i64;
        let off = r.offset(v.r0 as i64).scaled(stride).plus(&c.offset(v.c0 as i64));
        MemRef::new(self.bufs.buf(v.op), off)
    }

    fn elem_addr_c(&self, v: &View, i: usize, j: usize) -> MemRef {
        self.elem_addr(v, &Affine::constant(i as i64), &Affine::constant(j as i64))
    }

    /// Structure of the operand backing a view (temps are dense).
    fn op_structure(&self, v: &View) -> Structure {
        if self.bufs.is_temp(v.op) {
            Structure::General
        } else {
            self.program.operand(v.op).structure
        }
    }

    /// Whether element `(i, j)` of the view (view coordinates) is
    /// structurally zero in the operand's storage.
    fn elem_zero(&self, v: &View, i: usize, j: usize) -> bool {
        let (r, c) = if v.trans { (j, i) } else { (i, j) };
        self.op_structure(v).is_zero_at(v.r0 + r, v.c0 + c)
    }

    /// Whether storing element `(i, j)` of the LHS view is suppressed
    /// (structural-zero half of triangular outputs, mirrored half of
    /// symmetric outputs restricted to canonical storage).
    fn store_dead(&self, v: &View, i: usize, j: usize) -> bool {
        let (r, c) = (v.r0 + i, v.c0 + j);
        match v.structure {
            Structure::LowerTriangular | Structure::UpperTriangular => v.structure.is_zero_at(r, c),
            Structure::Symmetric(_) => v.structure.is_mirrored_at(r, c),
            _ => false,
        }
    }

    /// Lane delta (elements) between consecutive columns of a view row.
    fn row_delta(&self, v: &View) -> i64 {
        if v.trans {
            self.bufs.stride(v.op) as i64
        } else {
            1
        }
    }

    /// Lane delta between consecutive rows of a view column.
    fn col_delta(&self, v: &View) -> i64 {
        if v.trans {
            1
        } else {
            self.bufs.stride(v.op) as i64
        }
    }

    /// Load a masked row chunk `v[i, j0 .. j0+len)`. Returns `None` if all
    /// lanes are structurally zero.
    fn load_row_chunk(&mut self, v: &View, i: usize, j0: usize, len: usize) -> Option<VReg> {
        let nu = self.nu();
        let delta = self.row_delta(v);
        let lanes: Vec<Option<i64>> = (0..nu)
            .map(|l| {
                if l < len && !self.elem_zero(v, i, j0 + l) {
                    Some(l as i64 * delta)
                } else {
                    None
                }
            })
            .collect();
        if lanes.iter().all(Option::is_none) {
            return None;
        }
        let base = self.elem_addr_c(v, i, j0);
        Some(self.fb.vload(base, lanes))
    }

    /// Load a masked column chunk `v[i0 .. i0+len, j)`.
    fn load_col_chunk(&mut self, v: &View, i0: usize, j: usize, len: usize) -> Option<VReg> {
        let nu = self.nu();
        let delta = self.col_delta(v);
        let lanes: Vec<Option<i64>> = (0..nu)
            .map(|l| {
                if l < len && !self.elem_zero(v, i0 + l, j) {
                    Some(l as i64 * delta)
                } else {
                    None
                }
            })
            .collect();
        if lanes.iter().all(Option::is_none) {
            return None;
        }
        let base = self.elem_addr_c(v, i0, j);
        Some(self.fb.vload(base, lanes))
    }

    /// Broadcast-load one element (all lanes identical — costed as a
    /// single broadcast load by the machine model).
    fn load_bcast(&mut self, v: &View, i: usize, j: usize) -> VReg {
        let nu = self.nu();
        let base = self.elem_addr_c(v, i, j);
        self.fb.vload(base, vec![Some(0); nu])
    }

    fn load_bcast_affine(&mut self, v: &View, i: &Affine, j: &Affine) -> VReg {
        let nu = self.nu();
        let base = self.elem_addr(v, i, j);
        self.fb.vload(base, vec![Some(0); nu])
    }

    // ---- scalar expression path ----

    fn scalar_view(&mut self, v: &View) -> SReg {
        let addr = self.elem_addr_c(v, 0, 0);
        self.fb.sload(addr)
    }

    fn eval_scalar(&mut self, e: &VExpr) -> Result<SOperand, LgenError> {
        match e {
            VExpr::Lit(x) => Ok(SOperand::Imm(*x)),
            VExpr::View(v) if v.is_scalar() => Ok(self.scalar_view(v).into()),
            VExpr::Add(a, b) | VExpr::Sub(a, b) => {
                let op = if matches!(e, VExpr::Add(..)) { BinOp::Add } else { BinOp::Sub };
                let x = self.eval_scalar(a)?;
                let y = self.eval_scalar(b)?;
                Ok(self.fb.sbin(op, x, y).into())
            }
            VExpr::Mul(a, b) => {
                // dot-shaped contraction: (1×k)·(k×1)
                if a.rows() == 1 && b.cols() == 1 && a.cols() > 1 {
                    match (a.as_ref(), b.as_ref()) {
                        (VExpr::View(av), VExpr::View(bv)) => return Ok(self.dot(av, bv)?.into()),
                        _ => {
                            return Err(LgenError::Unsupported(
                                "dot of compound expressions".into(),
                            ))
                        }
                    }
                }
                let x = self.eval_scalar(a)?;
                let y = self.eval_scalar(b)?;
                Ok(self.fb.sbin(BinOp::Mul, x, y).into())
            }
            VExpr::Div(a, b) => {
                let x = self.eval_scalar(a)?;
                let y = self.eval_scalar(b)?;
                Ok(self.fb.sbin(BinOp::Div, x, y).into())
            }
            VExpr::Sqrt(a) => {
                let x = self.eval_scalar(a)?;
                Ok(self.fb.ssqrt(x).into())
            }
            VExpr::Neg(a) => {
                let x = self.eval_scalar(a)?;
                Ok(self.fb.sbin(BinOp::Sub, 0.0, x).into())
            }
            VExpr::View(v) => {
                Err(LgenError::Shape(format!("non-scalar view {v} in scalar context")))
            }
        }
    }

    /// Vectorized dot product of a `1×k` view with a `k×1` view.
    fn dot(&mut self, a: &View, b: &View) -> Result<SReg, LgenError> {
        let k = a.cols();
        if b.rows() != k {
            return Err(LgenError::Shape("dot length mismatch".into()));
        }
        let nu = self.nu();
        if nu == 1 || k <= 2 * nu {
            // short contractions: scalar accumulation avoids putting the
            // horizontal reduce on the (often division-bound) critical
            // path — the ν-BLAC choice LGen makes for small codelets
            let mut acc: Option<SReg> = None;
            for p in 0..k {
                if self.elem_zero(a, 0, p) || self.elem_zero(b, p, 0) {
                    continue;
                }
                let xa = self.fb.sload(self.elem_addr_c(a, 0, p));
                let xb = self.fb.sload(self.elem_addr_c(b, p, 0));
                let prod = self.fb.sbin(BinOp::Mul, xa, xb);
                acc = Some(match acc {
                    None => prod,
                    Some(s) => self.fb.sbin(BinOp::Add, s, prod),
                });
            }
            return Ok(acc.unwrap_or_else(|| self.fb.smov(0.0)));
        }
        let mut acc: Option<VReg> = None;
        let mut p = 0;
        while p < k {
            let len = nu.min(k - p);
            let va = self.load_row_chunk(a, 0, p, len);
            let vb = self.load_col_chunk(b, p, 0, len);
            if let (Some(va), Some(vb)) = (va, vb) {
                let prod = self.fb.vbin(BinOp::Mul, va, vb);
                acc = Some(match acc {
                    None => prod,
                    Some(s) => self.fb.vbin(BinOp::Add, s, prod),
                });
            }
            p += len;
        }
        Ok(match acc {
            Some(v) => self.fb.vreduce_add(v),
            None => self.fb.smov(0.0),
        })
    }

    // ---- term normalization ----

    fn fresh_temp(&mut self, rows: usize, cols: usize) -> View {
        self.temp_count += 1;
        let name = format!("tmp{}", self.temp_count);
        let buf = self.fb.buffer(&name, rows * cols, BufKind::Local);
        // temps live outside the program's operand table: register them as
        // pseudo-operands via a dedicated id space
        let op = self.register_temp(buf, rows, cols);
        View { op, r0: 0, r1: rows, c0: 0, c1: cols, trans: false, structure: Structure::General }
    }

    fn register_temp(
        &mut self,
        buf: slingen_cir::BufId,
        rows: usize,
        cols: usize,
    ) -> slingen_ir::OpId {
        self.bufs.register_temp(buf, rows, cols)
    }

    /// Materialize a sub-expression into a fresh temporary.
    fn materialize(&mut self, e: &VExpr) -> Result<View, LgenError> {
        let (r, c) = (e.rows(), e.cols());
        let t = self.fresh_temp(r, c);
        self.lower_stmt(&BasicStmt { lhs: t, rhs: e.clone() })?;
        Ok(t)
    }

    fn flatten(&mut self, e: &VExpr) -> Result<Vec<ProductTerm>, LgenError> {
        match e {
            VExpr::View(v) => {
                if v.is_scalar() {
                    Ok(vec![ProductTerm {
                        neg: false,
                        scalars: vec![SFactor::View(*v)],
                        mats: vec![],
                    }])
                } else {
                    Ok(vec![ProductTerm { neg: false, scalars: vec![], mats: vec![*v] }])
                }
            }
            VExpr::Lit(x) => {
                Ok(vec![ProductTerm { neg: false, scalars: vec![SFactor::Lit(*x)], mats: vec![] }])
            }
            VExpr::Neg(a) => {
                let mut ts = self.flatten(a)?;
                for t in &mut ts {
                    t.neg = !t.neg;
                }
                Ok(ts)
            }
            VExpr::Add(a, b) | VExpr::Sub(a, b) => {
                let mut ts = self.flatten(a)?;
                let mut rs = self.flatten(b)?;
                if matches!(e, VExpr::Sub(..)) {
                    for t in &mut rs {
                        t.neg = !t.neg;
                    }
                }
                ts.extend(rs);
                Ok(ts)
            }
            VExpr::Mul(a, b) => {
                let fa = self.flatten(a)?;
                let fa = if fa.len() == 1 {
                    fa.into_iter().next().unwrap()
                } else {
                    let t = self.materialize(a)?;
                    ProductTerm { neg: false, scalars: vec![], mats: vec![t] }
                };
                let fb = self.flatten(b)?;
                let fb = if fb.len() == 1 {
                    fb.into_iter().next().unwrap()
                } else {
                    let t = self.materialize(b)?;
                    ProductTerm { neg: false, scalars: vec![], mats: vec![t] }
                };
                let mut mats = fa.mats;
                mats.extend(fb.mats);
                while mats.len() > 2 {
                    // contract the leftmost pair into a temporary
                    let m0 = mats.remove(0);
                    let m1 = mats.remove(0);
                    let t = self.materialize(&VExpr::Mul(
                        Box::new(VExpr::View(m0)),
                        Box::new(VExpr::View(m1)),
                    ))?;
                    mats.insert(0, t);
                }
                let mut scalars = fa.scalars;
                scalars.extend(fb.scalars);
                Ok(vec![ProductTerm { neg: fa.neg ^ fb.neg, scalars, mats }])
            }
            VExpr::Div(a, b) => {
                let mut ts = self.flatten(a)?;
                let recip = match b.as_ref() {
                    VExpr::View(v) if v.is_scalar() => SFactor::Recip(*v),
                    VExpr::Lit(x) => SFactor::Lit(1.0 / x),
                    other => {
                        return Err(LgenError::Unsupported(format!("non-scalar divisor {other:?}")))
                    }
                };
                for t in &mut ts {
                    t.scalars.push(recip.clone());
                }
                Ok(ts)
            }
            VExpr::Sqrt(_) => Err(LgenError::Unsupported("sqrt outside scalar statements".into())),
        }
    }

    /// Evaluate a term's scalar coefficient once (rule R1 for
    /// reciprocals). Returns `None` when the coefficient is 1.
    fn eval_coeff(&mut self, t: &ProductTerm) -> Option<SOperand> {
        let mut acc: Option<SOperand> = None;
        for f in &t.scalars {
            let v: SOperand = match f {
                SFactor::Lit(x) => (*x).into(),
                SFactor::View(v) => self.scalar_view(v).into(),
                SFactor::Recip(v) => {
                    let s = self.scalar_view(v);
                    self.fb.sbin(BinOp::Div, 1.0, s).into()
                }
            };
            acc = Some(match acc {
                None => v,
                Some(a) => self.fb.sbin(BinOp::Mul, a, v).into(),
            });
        }
        acc
    }

    // ---- statement lowering ----

    fn lower_stmt(&mut self, stmt: &BasicStmt) -> Result<(), LgenError> {
        let lhs = &stmt.lhs;
        if lhs.is_scalar() {
            let val = self.eval_scalar(&stmt.rhs)?;
            let addr = self.elem_addr_c(lhs, 0, 0);
            self.fb.sstore(val, addr);
            return Ok(());
        }
        let terms = self.flatten(&stmt.rhs)?;
        // Output aliasing: a contraction that *reads* the destination
        // buffer (e.g. `x = F·x + B·u`) cannot be computed in place tile
        // by tile. Evaluate into a temporary, then copy. Element-aligned
        // reads of the destination (accumulations like `X = X − A·B`)
        // remain in place.
        let lhs_buf = self.bufs.buf(lhs.op);
        let overlaps = |v: &slingen_synth::term::View| {
            self.bufs.buf(v.op) == lhs_buf
                && v.r0 < lhs.r1
                && lhs.r0 < v.r1
                && v.c0 < lhs.c1
                && lhs.c0 < v.c1
        };
        let aligned = |v: &slingen_synth::term::View| {
            !v.trans && (v.r0, v.r1, v.c0, v.c1) == (lhs.r0, lhs.r1, lhs.c0, lhs.c1)
        };
        let hazard = terms.iter().any(|t| {
            let product = t.mats.len() == 2;
            t.mats.iter().any(|v| overlaps(v) && (product || !aligned(v)))
        });
        if hazard {
            let tmp = self.fresh_temp(lhs.rows(), lhs.cols());
            self.lower_stmt(&BasicStmt { lhs: tmp, rhs: stmt.rhs.clone() })?;
            return self.lower_stmt(&BasicStmt { lhs: *lhs, rhs: VExpr::View(tmp) });
        }
        // evaluate coefficients once per statement
        let coeffs: Vec<Option<SOperand>> =
            terms.iter().map(|t| self.eval_coeff(t)).collect::<Vec<_>>();

        let dense = lhs.structure == Structure::General
            && terms.iter().all(|t| {
                t.mats.iter().all(|v| {
                    matches!(self.op_structure(v), Structure::General | Structure::Symmetric(_))
                })
            });
        let nu = self.nu();
        let (rows, cols) = (lhs.rows(), lhs.cols());
        let tiles = rows.div_ceil(nu) * cols.div_ceil(nu);
        let work: usize = tiles
            * terms
                .iter()
                .map(|t| match t.mats.len() {
                    2 => t.mats[0].cols().div_ceil(nu).max(1),
                    _ => 1,
                })
                .sum::<usize>()
                .max(1);
        if dense && nu > 1 && work > self.opts.loop_threshold && cols > 1 {
            self.emit_looped(lhs, &terms, &coeffs)?;
        } else if cols == 1 && rows > 1 && nu > 1 {
            self.emit_vector(lhs, &terms, &coeffs)?;
        } else {
            self.emit_unrolled(lhs, &terms, &coeffs)?;
        }
        Ok(())
    }

    /// Straight-line tiles (structure-aware; handles every statement
    /// shape).
    fn emit_unrolled(
        &mut self,
        lhs: &View,
        terms: &[ProductTerm],
        coeffs: &[Option<SOperand>],
    ) -> Result<(), LgenError> {
        let nu = self.nu();
        let (rows, cols) = (lhs.rows(), lhs.cols());
        let mut ti = 0;
        while ti < rows {
            let tr = nu.min(rows - ti);
            let mut tj = 0;
            while tj < cols {
                let tc = nu.min(cols - tj);
                self.emit_tile(lhs, terms, coeffs, ti, tr, tj, tc)?;
                tj += tc;
            }
            ti += tr;
        }
        Ok(())
    }

    /// One `tr × tc` tile at concrete origin, lanes along columns.
    #[allow(clippy::too_many_arguments)]
    fn emit_tile(
        &mut self,
        lhs: &View,
        terms: &[ProductTerm],
        coeffs: &[Option<SOperand>],
        ti: usize,
        tr: usize,
        tj: usize,
        tc: usize,
    ) -> Result<(), LgenError> {
        let nu = self.nu();
        // store masks per row; skip fully dead tiles
        let store_lanes: Vec<Vec<Option<i64>>> = (0..tr)
            .map(|r| {
                let delta = self.row_delta(lhs);
                (0..nu)
                    .map(|l| {
                        if l < tc && !self.store_dead(lhs, ti + r, tj + l) {
                            Some(l as i64 * delta)
                        } else {
                            None
                        }
                    })
                    .collect()
            })
            .collect();
        if store_lanes.iter().all(|ls| ls.iter().all(Option::is_none)) {
            return Ok(());
        }
        if nu == 1 {
            return self.emit_tile_scalar(lhs, terms, coeffs, ti, tr, tj, tc, &store_lanes);
        }
        let mut acc: Vec<Option<VReg>> = vec![None; tr];
        let add = |fb: &mut FunctionBuilder,
                   acc: &mut Vec<Option<VReg>>,
                   r: usize,
                   v: VReg,
                   neg: bool| {
            acc[r] = Some(match acc[r] {
                None => {
                    if neg {
                        let z = fb.vbroadcast(0.0);
                        fb.vbin(BinOp::Sub, z, v)
                    } else {
                        v
                    }
                }
                Some(a) => fb.vbin(if neg { BinOp::Sub } else { BinOp::Add }, a, v),
            });
        };
        for (t, coeff) in terms.iter().zip(coeffs) {
            match t.mats.len() {
                0 => {
                    // constant fill (coefficient broadcast)
                    let c = coeff.unwrap_or(SOperand::Imm(1.0));
                    let bc = self.fb.vbroadcast(c);
                    for r in 0..tr {
                        add(&mut self.fb, &mut acc, r, bc, t.neg);
                    }
                }
                1 => {
                    let v = t.mats[0];
                    let cb = coeff.map(|c| self.fb.vbroadcast(c));
                    for r in 0..tr {
                        if let Some(mut chunk) = self.load_row_chunk(&v, ti + r, tj, tc) {
                            if let Some(cb) = cb {
                                chunk = self.fb.vbin(BinOp::Mul, chunk, cb);
                            }
                            add(&mut self.fb, &mut acc, r, chunk, t.neg);
                        }
                    }
                }
                2 => {
                    let (a, b) = (t.mats[0], t.mats[1]);
                    let k_len = a.cols();
                    if b.rows() != k_len {
                        return Err(LgenError::Shape("product inner dims".into()));
                    }
                    let cb = coeff.map(|c| self.fb.vbroadcast(c));
                    for k in 0..k_len {
                        let vb = match self.load_row_chunk(&b, k, tj, tc) {
                            Some(v) => v,
                            None => continue,
                        };
                        let vb = match cb {
                            Some(cb) => self.fb.vbin(BinOp::Mul, vb, cb),
                            None => vb,
                        };
                        for r in 0..tr {
                            if self.elem_zero(&a, ti + r, k) {
                                continue;
                            }
                            let va = self.load_bcast(&a, ti + r, k);
                            let p = self.fb.vbin(BinOp::Mul, va, vb);
                            add(&mut self.fb, &mut acc, r, p, t.neg);
                        }
                    }
                }
                _ => unreachable!("flatten bounds products at 2"),
            }
        }
        for (r, lanes) in store_lanes.iter().enumerate() {
            if lanes.iter().all(Option::is_none) {
                continue;
            }
            let v = match acc[r] {
                Some(v) => v,
                None => self.fb.vbroadcast(0.0),
            };
            let base = self.elem_addr_c(lhs, ti + r, tj);
            self.fb.vstore(v, base, lanes.clone());
        }
        Ok(())
    }

    /// Scalar (ν = 1) tile emission.
    #[allow(clippy::too_many_arguments)]
    fn emit_tile_scalar(
        &mut self,
        lhs: &View,
        terms: &[ProductTerm],
        coeffs: &[Option<SOperand>],
        ti: usize,
        tr: usize,
        tj: usize,
        tc: usize,
        _store_lanes: &[Vec<Option<i64>>],
    ) -> Result<(), LgenError> {
        for r in 0..tr {
            for c in 0..tc {
                if self.store_dead(lhs, ti + r, tj + c) {
                    continue;
                }
                let mut acc: Option<SReg> = None;
                for (t, coeff) in terms.iter().zip(coeffs) {
                    let contrib: Option<SOperand> = match t.mats.len() {
                        0 => Some(coeff.unwrap_or(SOperand::Imm(1.0))),
                        1 => {
                            let v = t.mats[0];
                            if self.elem_zero(&v, ti + r, tj + c) {
                                None
                            } else {
                                let x = self.fb.sload(self.elem_addr_c(&v, ti + r, tj + c));
                                Some(match coeff {
                                    Some(cf) => self.fb.sbin(BinOp::Mul, x, *cf).into(),
                                    None => x.into(),
                                })
                            }
                        }
                        2 => {
                            let (a, b) = (t.mats[0], t.mats[1]);
                            let mut sum: Option<SReg> = None;
                            for k in 0..a.cols() {
                                if self.elem_zero(&a, ti + r, k) || self.elem_zero(&b, k, tj + c) {
                                    continue;
                                }
                                let xa = self.fb.sload(self.elem_addr_c(&a, ti + r, k));
                                let xb = self.fb.sload(self.elem_addr_c(&b, k, tj + c));
                                let p = self.fb.sbin(BinOp::Mul, xa, xb);
                                sum = Some(match sum {
                                    None => p,
                                    Some(s) => self.fb.sbin(BinOp::Add, s, p),
                                });
                            }
                            sum.map(|s| match coeff {
                                Some(cf) => self.fb.sbin(BinOp::Mul, s, *cf).into(),
                                None => s.into(),
                            })
                        }
                        _ => unreachable!(),
                    };
                    if let Some(x) = contrib {
                        acc = Some(match acc {
                            None => {
                                if t.neg {
                                    self.fb.sbin(BinOp::Sub, 0.0, x)
                                } else {
                                    match x {
                                        SOperand::Reg(rg) => rg,
                                        imm => self.fb.smov(imm),
                                    }
                                }
                            }
                            Some(aa) => {
                                self.fb.sbin(if t.neg { BinOp::Sub } else { BinOp::Add }, aa, x)
                            }
                        });
                    }
                }
                let out: SOperand = match acc {
                    Some(a) => a.into(),
                    None => 0.0.into(),
                };
                let addr = self.elem_addr_c(lhs, ti + r, tj + c);
                self.fb.sstore(out, addr);
            }
        }
        Ok(())
    }

    /// Column-vector left-hand sides: lanes along rows, dot-row products.
    fn emit_vector(
        &mut self,
        lhs: &View,
        terms: &[ProductTerm],
        coeffs: &[Option<SOperand>],
    ) -> Result<(), LgenError> {
        let nu = self.nu();
        let rows = lhs.rows();
        let mut i0 = 0;
        while i0 < rows {
            let len = nu.min(rows - i0);
            let mut acc: Option<VReg> = None;
            for (t, coeff) in terms.iter().zip(coeffs) {
                let contrib: Option<VReg> = match t.mats.len() {
                    0 => {
                        let c = coeff.unwrap_or(SOperand::Imm(1.0));
                        Some(self.fb.vbroadcast(c))
                    }
                    1 => {
                        let v = t.mats[0];
                        let chunk = self.load_col_chunk(&v, i0, 0, len);
                        match (chunk, coeff) {
                            (Some(ch), Some(cf)) => {
                                let cb = self.fb.vbroadcast(*cf);
                                Some(self.fb.vbin(BinOp::Mul, ch, cb))
                            }
                            (Some(ch), None) => Some(ch),
                            (None, _) => None,
                        }
                    }
                    2 => {
                        // A·x accumulated column-wise: per k broadcast x[k]
                        let (a, x) = (t.mats[0], t.mats[1]);
                        let mut sum: Option<VReg> = None;
                        for k in 0..a.cols() {
                            if self.elem_zero(&x, k, 0) {
                                continue;
                            }
                            let va = match self.load_col_chunk(&a, i0, k, len) {
                                Some(v) => v,
                                None => continue,
                            };
                            let xb = self.load_bcast(&x, k, 0);
                            let p = self.fb.vbin(BinOp::Mul, va, xb);
                            sum = Some(match sum {
                                None => p,
                                Some(s) => self.fb.vbin(BinOp::Add, s, p),
                            });
                        }
                        match (sum, coeff) {
                            (Some(s), Some(cf)) => {
                                let cb = self.fb.vbroadcast(*cf);
                                Some(self.fb.vbin(BinOp::Mul, s, cb))
                            }
                            (Some(s), None) => Some(s),
                            (None, _) => None,
                        }
                    }
                    _ => unreachable!(),
                };
                if let Some(v) = contrib {
                    acc = Some(match acc {
                        None => {
                            if t.neg {
                                let z = self.fb.vbroadcast(0.0);
                                self.fb.vbin(BinOp::Sub, z, v)
                            } else {
                                v
                            }
                        }
                        Some(a) => self.fb.vbin(if t.neg { BinOp::Sub } else { BinOp::Add }, a, v),
                    });
                }
            }
            let out = match acc {
                Some(v) => v,
                None => self.fb.vbroadcast(0.0),
            };
            let delta = self.col_delta(lhs);
            let lanes: Vec<Option<i64>> =
                (0..nu).map(|l| if l < len { Some(l as i64 * delta) } else { None }).collect();
            let base = self.elem_addr_c(lhs, i0, 0);
            self.fb.vstore(out, base, lanes);
            i0 += len;
        }
        Ok(())
    }

    /// Affine loop nest over full tiles (dense statements only), with
    /// peeled edges.
    fn emit_looped(
        &mut self,
        lhs: &View,
        terms: &[ProductTerm],
        coeffs: &[Option<SOperand>],
    ) -> Result<(), LgenError> {
        let nu = self.nu();
        let (rows, cols) = (lhs.rows(), lhs.cols());
        let full_r = rows / nu * nu;
        let full_c = cols / nu * nu;
        if full_r > 0 && full_c > 0 {
            let bi = self.fb.begin_for(0, full_r as i64, nu as i64);
            let bj = self.fb.begin_for(0, full_c as i64, nu as i64);
            let iv = Affine::var(bi);
            let jv = Affine::var(bj);
            let mut acc: Vec<Option<VReg>> = vec![None; nu];
            for (t, coeff) in terms.iter().zip(coeffs) {
                match t.mats.len() {
                    0 => {
                        let c = coeff.unwrap_or(SOperand::Imm(1.0));
                        let bc = self.fb.vbroadcast(c);
                        for slot in acc.iter_mut() {
                            *slot = Some(accumulate(&mut self.fb, *slot, bc, t.neg));
                        }
                    }
                    1 => {
                        let v = t.mats[0];
                        let cb = coeff.map(|c| self.fb.vbroadcast(c));
                        #[allow(clippy::needless_range_loop)]
                        for r in 0..nu {
                            let base = self.elem_addr(&v, &iv.offset(r as i64), &jv);
                            let delta = self.row_delta(&v);
                            let lanes = (0..nu).map(|l| Some(l as i64 * delta)).collect();
                            let mut chunk = self.fb.vload(base, lanes);
                            if let Some(cb) = cb {
                                chunk = self.fb.vbin(BinOp::Mul, chunk, cb);
                            }
                            acc[r] = Some(accumulate(&mut self.fb, acc[r], chunk, t.neg));
                        }
                    }
                    2 => {
                        let (a, b) = (t.mats[0], t.mats[1]);
                        let k_len = a.cols() as i64;
                        let cb = coeff.map(|c| self.fb.vbroadcast(c));
                        // accumulators must live across loop iterations:
                        // materialize them before entering the k loop
                        for slot in acc.iter_mut() {
                            if slot.is_none() {
                                *slot = Some(self.fb.vbroadcast(0.0));
                            }
                        }
                        let kv = self.fb.begin_for(0, k_len, 1);
                        let kvv = Affine::var(kv);
                        let bbase = self.elem_addr(&b, &kvv, &jv);
                        let bdelta = self.row_delta(&b);
                        let blanes: Vec<Option<i64>> =
                            (0..nu).map(|l| Some(l as i64 * bdelta)).collect();
                        let mut vb = self.fb.vload(bbase, blanes);
                        if let Some(cb) = cb {
                            vb = self.fb.vbin(BinOp::Mul, vb, cb);
                        }
                        #[allow(clippy::needless_range_loop)]
                        for r in 0..nu {
                            let va = self.load_bcast_affine(&a, &iv.offset(r as i64), &kvv);
                            let p = self.fb.vbin(BinOp::Mul, va, vb);
                            let slot = acc[r].expect("accumulator initialized");
                            let op = if t.neg { BinOp::Sub } else { BinOp::Add };
                            self.fb.instr(slingen_cir::Instr::VBin {
                                op,
                                dst: slot,
                                a: slot,
                                b: p,
                            });
                        }
                        self.fb.end_for();
                    }
                    _ => unreachable!(),
                }
            }
            // store the tile
            for (r, slot) in acc.iter().enumerate() {
                let v = match slot {
                    Some(v) => *v,
                    None => self.fb.vbroadcast(0.0),
                };
                let base = self.elem_addr(lhs, &iv.offset(r as i64), &jv);
                let delta = self.row_delta(lhs);
                let lanes = (0..nu).map(|l| Some(l as i64 * delta)).collect();
                self.fb.vstore(v, base, lanes);
            }
            self.fb.end_for();
            self.fb.end_for();
        }
        // peeled edges: bottom strip and right strip (straight-line)
        let mut ti = 0;
        while ti < rows {
            let tr = nu.min(rows - ti);
            let mut tj = 0;
            while tj < cols {
                let tc = nu.min(cols - tj);
                let in_loop = ti + tr <= full_r && tj + tc <= full_c;
                if !in_loop {
                    self.emit_tile(lhs, terms, coeffs, ti, tr, tj, tc)?;
                }
                tj += tc;
            }
            ti += tr;
        }
        Ok(())
    }
}

fn accumulate(fb: &mut FunctionBuilder, acc: Option<VReg>, v: VReg, neg: bool) -> VReg {
    match acc {
        None => {
            if neg {
                let z = fb.vbroadcast(0.0);
                fb.vbin(BinOp::Sub, z, v)
            } else {
                v
            }
        }
        Some(a) => fb.vbin(if neg { BinOp::Sub } else { BinOp::Add }, a, v),
    }
}
