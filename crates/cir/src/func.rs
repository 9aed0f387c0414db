//! C-IR functions: buffers, structured statements, and a builder.

use crate::affine::{Affine, Cond, LoopVar};
use crate::fxhash::FxHasher;
use crate::instr::Instr;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A memory buffer (one per operand, plus generator temporaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufId(pub usize);

impl fmt::Display for BufId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "buf{}", self.0)
    }
}

/// How a buffer enters the generated function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufKind {
    /// A pointer parameter that is only read.
    ParamIn,
    /// A pointer parameter that is only written.
    ParamOut,
    /// A pointer parameter that is read and written.
    ParamInOut,
    /// A stack/local temporary owned by the function.
    Local,
}

impl BufKind {
    /// Whether the function may read the buffer's initial contents.
    pub fn readable_at_entry(self) -> bool {
        matches!(self, BufKind::ParamIn | BufKind::ParamInOut)
    }

    /// Whether the buffer's final contents are observable by the caller.
    pub fn live_out(self) -> bool {
        matches!(self, BufKind::ParamOut | BufKind::ParamInOut)
    }
}

/// A buffer declaration.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct BufferDecl {
    /// C-level name.
    pub name: String,
    /// Length in doubles.
    pub len: usize,
    /// Parameter or local.
    pub kind: BufKind,
}

/// A structured C-IR statement.
///
/// Bodies are long runs of [`CStmt::I`] (a fully unrolled potrf64 lowers
/// to about 189k of them), and every pass, the VM, the scheduler and the
/// unparser stream over them. The rare `For`/`If` headers are therefore
/// boxed, so a statement is no larger than an [`Instr`]: inline, the two
/// [`Affine`] bounds made every statement half as large again.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum CStmt {
    /// A straight-line instruction.
    I(Instr),
    /// `for (var = lo; var < hi; var += step) body`
    For {
        /// Induction variable (unique within the function).
        var: LoopVar,
        /// Inclusive lower bound.
        lo: Box<Affine>,
        /// Exclusive upper bound.
        hi: Box<Affine>,
        /// Positive step.
        step: i64,
        /// Loop body.
        body: Vec<CStmt>,
    },
    /// `if (cond) then_ else else_`
    If {
        /// Affine condition.
        cond: Box<Cond>,
        /// Taken branch.
        then_: Vec<CStmt>,
        /// Fallthrough branch (possibly empty).
        else_: Vec<CStmt>,
    },
}

impl CStmt {
    /// Count instructions statically (loop bodies counted once).
    pub fn static_instr_count(&self) -> usize {
        match self {
            CStmt::I(_) => 1,
            CStmt::For { body, .. } => body.iter().map(CStmt::static_instr_count).sum(),
            CStmt::If { then_, else_, .. } => {
                then_.iter().map(CStmt::static_instr_count).sum::<usize>()
                    + else_.iter().map(CStmt::static_instr_count).sum::<usize>()
            }
        }
    }
}

/// A complete C-IR function.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Function {
    /// Function name (becomes the emitted C function's name).
    pub name: String,
    /// Vector width ν (1 = scalar code).
    pub width: usize,
    /// Buffer table; [`BufId`]s index into it.
    pub buffers: Vec<BufferDecl>,
    /// Function body.
    pub body: Vec<CStmt>,
    /// Number of scalar registers allocated.
    pub n_sregs: usize,
    /// Number of vector registers allocated.
    pub n_vregs: usize,
    /// Number of loop variables allocated.
    pub n_loopvars: usize,
}

impl Function {
    /// The parameter buffers, in declaration order.
    pub fn params(&self) -> impl Iterator<Item = (BufId, &BufferDecl)> {
        self.buffers
            .iter()
            .enumerate()
            .filter(|(_, b)| b.kind != BufKind::Local)
            .map(|(i, b)| (BufId(i), b))
    }

    /// The local (temporary) buffers.
    pub fn locals(&self) -> impl Iterator<Item = (BufId, &BufferDecl)> {
        self.buffers
            .iter()
            .enumerate()
            .filter(|(_, b)| b.kind == BufKind::Local)
            .map(|(i, b)| (BufId(i), b))
    }

    /// Static instruction count (loops counted once).
    pub fn static_instr_count(&self) -> usize {
        self.body.iter().map(CStmt::static_instr_count).sum()
    }

    /// A structural fingerprint: a 64-bit [`FxHasher`] hash of the whole
    /// function (name, width, buffers, body, register counts) plus its
    /// static instruction count as a collision guard. Immediates hash by
    /// their bits. For one target the IR determines the emitted C, so
    /// equal fingerprints mean equal C without unparsing either body.
    pub fn fingerprint(&self) -> (u64, usize) {
        let mut h = FxHasher::default();
        self.hash(&mut h);
        (h.finish(), self.static_instr_count())
    }

    /// Visit every instruction in the function (structure-blind).
    pub fn for_each_instr(&self, f: &mut impl FnMut(&Instr)) {
        fn walk(stmts: &[CStmt], f: &mut impl FnMut(&Instr)) {
            for s in stmts {
                match s {
                    CStmt::I(i) => f(i),
                    CStmt::For { body, .. } => walk(body, f),
                    CStmt::If { then_, else_, .. } => {
                        walk(then_, f);
                        walk(else_, f);
                    }
                }
            }
        }
        walk(&self.body, f);
    }
}

/// Builder for [`Function`]s with fresh-register allocation and a block
/// stack for structured control flow.
///
/// ```
/// use slingen_cir::{FunctionBuilder, BufKind, BinOp, Affine, MemRef};
///
/// let mut b = FunctionBuilder::new("axpy1", 4);
/// let x = b.buffer("x", 4, BufKind::ParamIn);
/// let y = b.buffer("y", 4, BufKind::ParamInOut);
/// let vx = b.vload_contig(MemRef::new(x, 0));
/// let vy = b.vload_contig(MemRef::new(y, 0));
/// let sum = b.vbin(BinOp::Add, vx, vy);
/// b.vstore_contig(sum, MemRef::new(y, 0));
/// let f = b.finish();
/// assert_eq!(f.static_instr_count(), 4);
/// ```
#[derive(Debug)]
pub struct FunctionBuilder {
    name: String,
    width: usize,
    buffers: Vec<BufferDecl>,
    n_sregs: usize,
    n_vregs: usize,
    n_loopvars: usize,
    /// Stack of open blocks; the bottom element is the function body.
    blocks: Vec<Vec<CStmt>>,
    /// Open `for` frames: (var, lo, hi, step).
    pending_loops: Vec<(LoopVar, Affine, Affine, i64)>,
    /// Open `if` frames: (cond, saved then-branch once `else` starts).
    pending_ifs: Vec<(Cond, Option<Vec<CStmt>>)>,
}

use crate::instr::{BinOp, FmaKind, LaneSel, MemRef, SOperand, SReg, VReg};

impl FunctionBuilder {
    /// Start a function with the given vector width ν.
    pub fn new(name: &str, width: usize) -> Self {
        assert!(width >= 1, "vector width must be at least 1");
        FunctionBuilder {
            name: name.to_string(),
            width,
            buffers: Vec::new(),
            n_sregs: 0,
            n_vregs: 0,
            n_loopvars: 0,
            blocks: vec![Vec::new()],
            pending_loops: Vec::new(),
            pending_ifs: Vec::new(),
        }
    }

    /// The vector width ν.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Declare a buffer.
    pub fn buffer(&mut self, name: &str, len: usize, kind: BufKind) -> BufId {
        self.buffers.push(BufferDecl { name: name.to_string(), len, kind });
        BufId(self.buffers.len() - 1)
    }

    /// Allocate a fresh scalar register.
    pub fn fresh_sreg(&mut self) -> SReg {
        self.n_sregs += 1;
        SReg(self.n_sregs - 1)
    }

    /// Allocate a fresh vector register.
    pub fn fresh_vreg(&mut self) -> VReg {
        self.n_vregs += 1;
        VReg(self.n_vregs - 1)
    }

    /// Append a raw instruction.
    pub fn instr(&mut self, i: Instr) {
        self.blocks.last_mut().expect("open block").push(CStmt::I(i));
    }

    /// Append a pre-built statement (used when splicing fragments).
    pub fn stmt(&mut self, s: CStmt) {
        self.blocks.last_mut().expect("open block").push(s);
    }

    // ---- scalar conveniences ----

    /// `dst = mem` into a fresh register.
    pub fn sload(&mut self, src: MemRef) -> SReg {
        let dst = self.fresh_sreg();
        self.instr(Instr::SLoad { dst, src });
        dst
    }

    /// `mem = src`.
    pub fn sstore(&mut self, src: impl Into<SOperand>, dst: MemRef) {
        self.instr(Instr::SStore { src: src.into(), dst });
    }

    /// `fresh = a op b`.
    pub fn sbin(&mut self, op: BinOp, a: impl Into<SOperand>, b: impl Into<SOperand>) -> SReg {
        let dst = self.fresh_sreg();
        self.instr(Instr::SBin { op, dst, a: a.into(), b: b.into() });
        dst
    }

    /// `fresh = sqrt(a)`.
    pub fn ssqrt(&mut self, a: impl Into<SOperand>) -> SReg {
        let dst = self.fresh_sreg();
        self.instr(Instr::SSqrt { dst, a: a.into() });
        dst
    }

    /// `fresh = ±(a * b) ± c` per `kind`, fused.
    pub fn sfma(
        &mut self,
        kind: FmaKind,
        a: impl Into<SOperand>,
        b: impl Into<SOperand>,
        c: impl Into<SOperand>,
    ) -> SReg {
        let dst = self.fresh_sreg();
        self.instr(Instr::SFma { kind, dst, a: a.into(), b: b.into(), c: c.into() });
        dst
    }

    /// `fresh = a`.
    pub fn smov(&mut self, a: impl Into<SOperand>) -> SReg {
        let dst = self.fresh_sreg();
        self.instr(Instr::SMov { dst, a: a.into() });
        dst
    }

    // ---- vector conveniences ----

    /// Contiguous full-width vector load.
    pub fn vload_contig(&mut self, base: MemRef) -> VReg {
        let lanes = (0..self.width).map(|i| Some(i as i64)).collect();
        self.vload(base, lanes)
    }

    /// Vector load with an explicit lane map.
    pub fn vload(&mut self, base: MemRef, lanes: Vec<Option<i64>>) -> VReg {
        assert_eq!(lanes.len(), self.width, "lane map must have width ν");
        let dst = self.fresh_vreg();
        self.instr(Instr::VLoad { dst, base, lanes });
        dst
    }

    /// Contiguous full-width vector store.
    pub fn vstore_contig(&mut self, src: VReg, base: MemRef) {
        let lanes = (0..self.width).map(|i| Some(i as i64)).collect();
        self.vstore(src, base, lanes);
    }

    /// Vector store with an explicit lane map.
    pub fn vstore(&mut self, src: VReg, base: MemRef, lanes: Vec<Option<i64>>) {
        assert_eq!(lanes.len(), self.width, "lane map must have width ν");
        self.instr(Instr::VStore { src, base, lanes });
    }

    /// `fresh = a op b` element-wise.
    pub fn vbin(&mut self, op: BinOp, a: VReg, b: VReg) -> VReg {
        let dst = self.fresh_vreg();
        self.instr(Instr::VBin { op, dst, a, b });
        dst
    }

    /// `fresh = ±(a * b) ± c` per `kind`, element-wise and fused.
    pub fn vfma(&mut self, kind: FmaKind, a: VReg, b: VReg, c: VReg) -> VReg {
        let dst = self.fresh_vreg();
        self.instr(Instr::VFma { kind, dst, a, b, c });
        dst
    }

    /// Broadcast a scalar into a fresh vector register.
    pub fn vbroadcast(&mut self, src: impl Into<SOperand>) -> VReg {
        let dst = self.fresh_vreg();
        self.instr(Instr::VBroadcast { dst, src: src.into() });
        dst
    }

    /// Two-source shuffle into a fresh register.
    pub fn vshuffle(&mut self, a: VReg, b: VReg, sel: Vec<LaneSel>) -> VReg {
        assert_eq!(sel.len(), self.width, "selection must have width ν");
        let dst = self.fresh_vreg();
        self.instr(Instr::VShuffle { dst, a, b, sel });
        dst
    }

    /// Pack scalars into a fresh register (`None` lanes are 0.0).
    pub fn vpack(&mut self, elems: Vec<Option<SOperand>>) -> VReg {
        assert_eq!(elems.len(), self.width, "pack must have width ν");
        let dst = self.fresh_vreg();
        self.instr(Instr::VPack { dst, elems });
        dst
    }

    /// Blend into a fresh register.
    pub fn vblend(&mut self, a: VReg, b: VReg, mask: Vec<bool>) -> VReg {
        assert_eq!(mask.len(), self.width, "mask must have width ν");
        let dst = self.fresh_vreg();
        self.instr(Instr::VBlend { dst, a, b, mask });
        dst
    }

    /// Extract a lane into a fresh scalar register.
    pub fn vextract(&mut self, src: VReg, lane: usize) -> SReg {
        assert!(lane < self.width);
        let dst = self.fresh_sreg();
        self.instr(Instr::VExtract { dst, src, lane });
        dst
    }

    /// Horizontal sum into a fresh scalar register.
    pub fn vreduce_add(&mut self, src: VReg) -> SReg {
        let dst = self.fresh_sreg();
        self.instr(Instr::VReduceAdd { dst, src });
        dst
    }

    // ---- control flow ----

    /// Open a `for` loop; returns the induction variable. Close with
    /// [`FunctionBuilder::end_for`].
    pub fn begin_for(
        &mut self,
        lo: impl Into<Affine>,
        hi: impl Into<Affine>,
        step: i64,
    ) -> LoopVar {
        assert!(step > 0, "loop step must be positive");
        let var = LoopVar(self.n_loopvars);
        self.n_loopvars += 1;
        // Temporarily push a marker frame; bounds stored on close.
        self.blocks.push(Vec::new());
        self.pending_loops.push((var, lo.into(), hi.into(), step));
        var
    }

    /// Close the innermost `for` loop.
    pub fn end_for(&mut self) {
        let body = self.blocks.pop().expect("unbalanced end_for");
        let (var, lo, hi, step) = self.pending_loops.pop().expect("unbalanced end_for");
        self.stmt(CStmt::For { var, lo: Box::new(lo), hi: Box::new(hi), step, body });
    }

    /// Open an `if`; close with [`FunctionBuilder::end_if`] (or
    /// [`FunctionBuilder::begin_else`] first).
    pub fn begin_if(&mut self, cond: Cond) {
        self.blocks.push(Vec::new());
        self.pending_ifs.push((cond, None));
    }

    /// Switch to the `else` branch of the innermost open `if`.
    pub fn begin_else(&mut self) {
        let then_ = self.blocks.pop().expect("unbalanced begin_else");
        let entry = self.pending_ifs.last_mut().expect("unbalanced begin_else");
        assert!(entry.1.is_none(), "else branch already started");
        entry.1 = Some(then_);
        self.blocks.push(Vec::new());
    }

    /// Close the innermost `if`.
    pub fn end_if(&mut self) {
        let last = self.blocks.pop().expect("unbalanced end_if");
        let (cond, saved_then) = self.pending_ifs.pop().expect("unbalanced end_if");
        let (then_, else_) = match saved_then {
            Some(t) => (t, last),
            None => (last, Vec::new()),
        };
        self.stmt(CStmt::If { cond: Box::new(cond), then_, else_ });
    }

    /// Finish and return the function.
    ///
    /// # Panics
    ///
    /// Panics if control-flow blocks are unbalanced.
    pub fn finish(mut self) -> Function {
        assert_eq!(self.blocks.len(), 1, "unclosed loop or if block");
        assert!(self.pending_loops.is_empty() && self.pending_ifs.is_empty());
        Function {
            name: self.name,
            width: self.width,
            buffers: self.buffers,
            body: self.blocks.pop().unwrap(),
            n_sregs: self.n_sregs,
            n_vregs: self.n_vregs,
            n_loopvars: self.n_loopvars,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::CmpOp;

    /// A statement is no larger than an instruction: a new variant that
    /// grows `CStmt` would grow every body by the same factor.
    #[test]
    fn a_statement_is_the_size_of_an_instruction() {
        assert_eq!(std::mem::size_of::<CStmt>(), std::mem::size_of::<Instr>());
    }

    #[test]
    fn builder_allocates_fresh_registers() {
        let mut b = FunctionBuilder::new("f", 4);
        let s0 = b.fresh_sreg();
        let s1 = b.fresh_sreg();
        assert_ne!(s0, s1);
        let v0 = b.fresh_vreg();
        let v1 = b.fresh_vreg();
        assert_ne!(v0, v1);
        let f = b.finish();
        assert_eq!(f.n_sregs, 2);
        assert_eq!(f.n_vregs, 2);
    }

    #[test]
    fn structured_loops_nest() {
        let mut b = FunctionBuilder::new("f", 2);
        let x = b.buffer("x", 16, BufKind::ParamInOut);
        let i = b.begin_for(0, 4, 1);
        let j = b.begin_for(0, 4, 2);
        let addr = MemRef::new(x, Affine::var(i).scaled(4).plus(&Affine::var(j)));
        let r = b.sload(addr.clone());
        let r2 = b.sbin(BinOp::Mul, r, 2.0);
        b.sstore(r2, addr);
        b.end_for();
        b.end_for();
        let f = b.finish();
        assert_eq!(f.body.len(), 1);
        match &f.body[0] {
            CStmt::For { body, .. } => match &body[0] {
                CStmt::For { body, step, .. } => {
                    assert_eq!(*step, 2);
                    assert_eq!(body.len(), 3);
                }
                other => panic!("expected inner for, got {other:?}"),
            },
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn if_else_blocks() {
        let mut b = FunctionBuilder::new("f", 1);
        let i = b.begin_for(0, 4, 1);
        b.begin_if(Cond::new(Affine::var(i), CmpOp::Lt, Affine::constant(2)));
        b.smov(1.0);
        b.begin_else();
        b.smov(2.0);
        b.smov(3.0);
        b.end_if();
        b.end_for();
        let f = b.finish();
        match &f.body[0] {
            CStmt::For { body, .. } => match &body[0] {
                CStmt::If { then_, else_, .. } => {
                    assert_eq!(then_.len(), 1);
                    assert_eq!(else_.len(), 2);
                }
                other => panic!("expected if, got {other:?}"),
            },
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "unclosed loop")]
    fn unbalanced_blocks_panic() {
        let mut b = FunctionBuilder::new("f", 1);
        b.begin_for(0, 4, 1);
        let _ = b.finish();
    }

    #[test]
    fn params_and_locals_split() {
        let mut b = FunctionBuilder::new("f", 4);
        b.buffer("a", 8, BufKind::ParamIn);
        b.buffer("t", 8, BufKind::Local);
        b.buffer("c", 8, BufKind::ParamOut);
        let f = b.finish();
        let params: Vec<_> = f.params().map(|(_, d)| d.name.clone()).collect();
        assert_eq!(params, vec!["a", "c"]);
        let locals: Vec<_> = f.locals().map(|(_, d)| d.name.clone()).collect();
        assert_eq!(locals, vec!["t"]);
    }

    /// A small loop nest exercising every field the fingerprint must see:
    /// buffer kind, width, loop step, a scalar immediate and a lane map.
    fn fingerprint_sample(
        width: usize,
        kind: BufKind,
        step: i64,
        imm: f64,
        lanes: [Option<i64>; 2],
    ) -> Function {
        let mut b = FunctionBuilder::new("f", width);
        let x = b.buffer("x", 16, kind);
        let i = b.begin_for(0, 8, step);
        let r = b.sload(MemRef::new(x, Affine::var(i)));
        let r2 = b.sbin(BinOp::Mul, r, imm);
        b.sstore(r2, MemRef::new(x, Affine::var(i)));
        b.end_for();
        let v = b.fresh_vreg();
        b.instr(Instr::VLoad { dst: v, base: MemRef::new(x, 0), lanes: lanes.to_vec() });
        b.finish()
    }

    fn base_sample() -> Function {
        fingerprint_sample(2, BufKind::ParamInOut, 1, 0.0, [Some(0), None])
    }

    #[test]
    fn fingerprint_is_equal_for_a_clone() {
        let f = base_sample();
        assert_eq!(f.clone().fingerprint(), f.fingerprint());
        assert_eq!(base_sample().fingerprint(), f.fingerprint());
    }

    #[test]
    fn fingerprint_separates_signed_zero_immediates() {
        let pos = base_sample();
        let neg = fingerprint_sample(2, BufKind::ParamInOut, 1, -0.0, [Some(0), None]);
        // `==` cannot tell them apart, but they print differently in C.
        assert_eq!(pos, neg);
        let c = |f: &Function| crate::unparse::to_c_for(f, crate::Target::Sse2);
        assert_ne!(c(&pos), c(&neg));
        assert_ne!(pos.fingerprint(), neg.fingerprint());
    }

    #[test]
    fn fingerprint_separates_permuted_lane_maps() {
        let a = base_sample();
        let b = fingerprint_sample(2, BufKind::ParamInOut, 1, 0.0, [None, Some(0)]);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_separates_kind_width_and_step() {
        let base = base_sample().fingerprint();
        let kind = fingerprint_sample(2, BufKind::ParamOut, 1, 0.0, [Some(0), None]);
        let width = fingerprint_sample(4, BufKind::ParamInOut, 1, 0.0, [Some(0), None]);
        let step = fingerprint_sample(2, BufKind::ParamInOut, 2, 0.0, [Some(0), None]);
        for (what, f) in [("kind", kind), ("width", width), ("step", step)] {
            assert_eq!(f.static_instr_count(), 4, "{what}: same instruction count");
            assert_ne!(f.fingerprint(), base, "{what} must change the fingerprint");
        }
    }

    #[test]
    fn instr_visitation_counts() {
        let mut b = FunctionBuilder::new("f", 2);
        let x = b.buffer("x", 4, BufKind::ParamInOut);
        b.begin_for(0, 2, 1);
        let v = b.vload_contig(MemRef::new(x, 0));
        b.vstore_contig(v, MemRef::new(x, 2));
        b.end_for();
        let f = b.finish();
        let mut n = 0;
        f.for_each_instr(&mut |_| n += 1);
        assert_eq!(n, 2);
        assert_eq!(f.static_instr_count(), 2);
    }
}
