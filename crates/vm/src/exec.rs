//! The C-IR interpreter.

use crate::monitor::{Event, Monitor};
use slingen_cir::{CStmt, Function, Instr, LaneSel, MemRef, SOperand};
use std::fmt;

/// Errors raised during execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// Memory access outside a buffer's declared length.
    OutOfBounds {
        /// Buffer name.
        buffer: String,
        /// Offending element index.
        index: i64,
        /// Declared length.
        len: usize,
    },
    /// The function references a buffer id outside its table.
    BadBuffer(usize),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::OutOfBounds { buffer, index, len } => {
                write!(f, "out-of-bounds access: {buffer}[{index}] (len {len})")
            }
            VmError::BadBuffer(id) => write!(f, "invalid buffer id {id}"),
        }
    }
}

impl std::error::Error for VmError {}

/// The memory of a VM run: one `Vec<f64>` per buffer of the function
/// (parameters *and* locals, in declaration order).
///
/// ```
/// use slingen_cir::{FunctionBuilder, BufKind};
/// use slingen_vm::BufferSet;
///
/// let mut b = FunctionBuilder::new("f", 1);
/// let x = b.buffer("x", 3, BufKind::ParamIn);
/// let f = b.finish();
/// let mut bufs = BufferSet::for_function(&f);
/// bufs.set(x, &[1.0, 2.0, 3.0]);
/// assert_eq!(bufs.get(x), &[1.0, 2.0, 3.0]);
/// ```
#[derive(Debug, Clone)]
pub struct BufferSet {
    data: Vec<Vec<f64>>,
}

impl BufferSet {
    /// Zero-initialized buffers sized from `f`'s declarations.
    pub fn for_function(f: &Function) -> Self {
        BufferSet { data: f.buffers.iter().map(|b| vec![0.0; b.len]).collect() }
    }

    /// Overwrite a buffer's contents.
    ///
    /// # Panics
    ///
    /// Panics if `values` length differs from the declared length.
    pub fn set(&mut self, id: slingen_cir::BufId, values: &[f64]) {
        assert_eq!(self.data[id.0].len(), values.len(), "buffer {} length mismatch", id.0);
        self.data[id.0].copy_from_slice(values);
    }

    /// Read a buffer's contents.
    pub fn get(&self, id: slingen_cir::BufId) -> &[f64] {
        &self.data[id.0]
    }

    /// Number of buffers.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether there are no buffers.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Interpreter state for one run of `f`.
struct Vm<'f, 'm> {
    f: &'f Function,
    bufs: Vec<Vec<f64>>,
    sregs: Vec<f64>,
    vregs: Vec<Vec<f64>>,
    loopvars: Vec<i64>,
    monitor: &'m mut dyn Monitor,
}

/// Execute `f` against `buffers`.
///
/// If the monitor's [`Monitor::should_stop`] turns true mid-run, execution
/// stops early and returns `Ok(())` with partial output buffers; the
/// monitor itself knows it requested the stop.
///
/// # Errors
///
/// Returns [`VmError`] on out-of-bounds accesses or invalid buffer ids.
pub fn execute(
    f: &Function,
    buffers: &mut BufferSet,
    monitor: &mut dyn Monitor,
) -> Result<(), VmError> {
    let mut vm = Vm {
        f,
        bufs: std::mem::take(&mut buffers.data),
        sregs: vec![0.0; f.n_sregs],
        vregs: vec![vec![0.0; f.width]; f.n_vregs],
        loopvars: vec![0; f.n_loopvars],
        monitor,
    };
    let result = vm.exec_stmts(&f.body).map(|_continue| ());
    buffers.data = vm.bufs;
    result
}

impl Vm<'_, '_> {
    fn exec_stmts(&mut self, stmts: &[CStmt]) -> Result<bool, VmError> {
        for s in stmts {
            match s {
                CStmt::I(i) => {
                    if !self.exec_instr(i)? {
                        return Ok(false);
                    }
                }
                CStmt::For { var, lo, hi, step, body } => {
                    let lo = lo.eval(&|v| self.loopvars[v.0]);
                    let hi = hi.eval(&|v| self.loopvars[v.0]);
                    let mut iv = lo;
                    while iv < hi {
                        self.loopvars[var.0] = iv;
                        if !self.exec_stmts(body)? {
                            return Ok(false);
                        }
                        iv += step;
                    }
                }
                CStmt::If { cond, then_, else_ } => {
                    let taken = if cond.eval(&|v| self.loopvars[v.0]) { then_ } else { else_ };
                    if !self.exec_stmts(taken)? {
                        return Ok(false);
                    }
                }
            }
        }
        Ok(true)
    }

    fn resolve(&self, m: &MemRef, extra: i64) -> Result<(usize, i64), VmError> {
        let b = m.buf.0;
        if b >= self.f.buffers.len() {
            return Err(VmError::BadBuffer(b));
        }
        let idx = m.offset.eval(&|v| self.loopvars[v.0]) + extra;
        let len = self.bufs[b].len();
        if idx < 0 || idx as usize >= len {
            return Err(VmError::OutOfBounds {
                buffer: self.f.buffers[b].name.clone(),
                index: idx,
                len,
            });
        }
        Ok((b, idx))
    }

    fn sval(&self, o: &SOperand) -> f64 {
        match o {
            SOperand::Reg(r) => self.sregs[r.0],
            SOperand::Imm(v) => *v,
        }
    }

    /// Returns `Ok(false)` when the monitor requested an early stop.
    fn exec_instr(&mut self, i: &Instr) -> Result<bool, VmError> {
        let mut reads: Vec<(usize, i64)> = Vec::new();
        let mut writes: Vec<(usize, i64)> = Vec::new();
        match i {
            Instr::SLoad { dst, src } => {
                let (g, idx) = self.resolve(src, 0)?;
                self.sregs[dst.0] = self.bufs[g][idx as usize];
                reads.push((g, idx));
            }
            Instr::SStore { src, dst } => {
                let v = self.sval(src);
                let (g, idx) = self.resolve(dst, 0)?;
                self.bufs[g][idx as usize] = v;
                writes.push((g, idx));
            }
            Instr::SBin { op, dst, a, b } => {
                self.sregs[dst.0] = op.apply(self.sval(a), self.sval(b));
            }
            Instr::SSqrt { dst, a } => {
                self.sregs[dst.0] = self.sval(a).sqrt();
            }
            Instr::SFma { kind, dst, a, b, c } => {
                // fused (single rounding): can differ from the two-op
                // mul+add sequence by up to 1 ULP
                self.sregs[dst.0] = kind.apply(self.sval(a), self.sval(b), self.sval(c));
            }
            Instr::SMov { dst, a } => {
                self.sregs[dst.0] = self.sval(a);
            }
            Instr::VLoad { dst, base, lanes } => {
                let mut vals = vec![0.0; self.f.width];
                for (lane, l) in lanes.iter().enumerate() {
                    if let Some(off) = l {
                        let (g, idx) = self.resolve(base, *off)?;
                        vals[lane] = self.bufs[g][idx as usize];
                        reads.push((g, idx));
                    }
                }
                self.vregs[dst.0] = vals;
            }
            Instr::VStore { src, base, lanes } => {
                for (lane, l) in lanes.iter().enumerate() {
                    if let Some(off) = l {
                        let (g, idx) = self.resolve(base, *off)?;
                        self.bufs[g][idx as usize] = self.vregs[src.0][lane];
                        writes.push((g, idx));
                    }
                }
            }
            Instr::VMov { dst, src } => {
                let v = self.vregs[src.0].clone();
                self.vregs[dst.0] = v;
            }
            Instr::VBin { op, dst, a, b } => {
                let mut vals = vec![0.0; self.f.width];
                for (lane, v) in vals.iter_mut().enumerate() {
                    *v = op.apply(self.vregs[a.0][lane], self.vregs[b.0][lane]);
                }
                self.vregs[dst.0] = vals;
            }
            Instr::VFma { kind, dst, a, b, c } => {
                let mut vals = vec![0.0; self.f.width];
                for (lane, v) in vals.iter_mut().enumerate() {
                    *v = kind.apply(
                        self.vregs[a.0][lane],
                        self.vregs[b.0][lane],
                        self.vregs[c.0][lane],
                    );
                }
                self.vregs[dst.0] = vals;
            }
            Instr::VBroadcast { dst, src } => {
                let v = self.sval(src);
                self.vregs[dst.0] = vec![v; self.f.width];
            }
            Instr::VShuffle { dst, a, b, sel } => {
                let mut vals = vec![0.0; self.f.width];
                for (lane, s) in sel.iter().enumerate() {
                    vals[lane] = match s {
                        LaneSel::A(j) => self.vregs[a.0][*j],
                        LaneSel::B(j) => self.vregs[b.0][*j],
                        LaneSel::Zero => 0.0,
                    };
                }
                self.vregs[dst.0] = vals;
            }
            Instr::VPack { dst, elems } => {
                let mut vals = vec![0.0; self.f.width];
                for (v, o) in vals.iter_mut().zip(elems) {
                    if let Some(o) = o {
                        *v = self.sval(o);
                    }
                }
                self.vregs[dst.0] = vals;
            }
            Instr::VBlend { dst, a, b, mask } => {
                let mut vals = vec![0.0; self.f.width];
                for lane in 0..self.f.width {
                    vals[lane] =
                        if mask[lane] { self.vregs[b.0][lane] } else { self.vregs[a.0][lane] };
                }
                self.vregs[dst.0] = vals;
            }
            Instr::VExtract { dst, src, lane } => {
                self.sregs[dst.0] = self.vregs[src.0][*lane];
            }
            Instr::VReduceAdd { dst, src } => {
                self.sregs[dst.0] = self.vregs[src.0].iter().sum();
            }
        }
        self.monitor.event(&Event { instr: i, width: self.f.width, reads, writes });
        Ok(!self.monitor.should_stop())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{CountingMonitor, NullMonitor};
    use slingen_cir::{Affine, BinOp, BufKind, FunctionBuilder, InstrClass};

    #[test]
    fn scalar_axpy_executes() {
        // y = 2*x + y over 4 elements, scalar loop
        let mut b = FunctionBuilder::new("axpy", 1);
        let x = b.buffer("x", 4, BufKind::ParamIn);
        let y = b.buffer("y", 4, BufKind::ParamInOut);
        let i = b.begin_for(0, 4, 1);
        let rx = b.sload(MemRef::new(x, Affine::var(i)));
        let ry = b.sload(MemRef::new(y, Affine::var(i)));
        let ax = b.sbin(BinOp::Mul, rx, 2.0);
        let s = b.sbin(BinOp::Add, ax, ry);
        b.sstore(s, MemRef::new(y, Affine::var(i)));
        b.end_for();
        let f = b.finish();
        let mut bufs = BufferSet::for_function(&f);
        bufs.set(x, &[1.0, 2.0, 3.0, 4.0]);
        bufs.set(y, &[10.0, 20.0, 30.0, 40.0]);
        execute(&f, &mut bufs, &mut NullMonitor).unwrap();
        assert_eq!(bufs.get(y), &[12.0, 24.0, 36.0, 48.0]);
    }

    #[test]
    fn vector_ops_execute() {
        let mut b = FunctionBuilder::new("v", 4);
        let x = b.buffer("x", 4, BufKind::ParamIn);
        let y = b.buffer("y", 4, BufKind::ParamOut);
        let v = b.vload_contig(MemRef::new(x, 0));
        let w = b.vbin(BinOp::Mul, v, v);
        let sh = b.vshuffle(w, w, vec![LaneSel::A(3), LaneSel::A(2), LaneSel::B(1), LaneSel::Zero]);
        b.vstore_contig(sh, MemRef::new(y, 0));
        let f = b.finish();
        let mut bufs = BufferSet::for_function(&f);
        bufs.set(x, &[1.0, 2.0, 3.0, 4.0]);
        execute(&f, &mut bufs, &mut NullMonitor).unwrap();
        assert_eq!(bufs.get(y), &[16.0, 9.0, 4.0, 0.0]);
    }

    #[test]
    fn masked_load_zeroes_inactive_lanes() {
        let mut b = FunctionBuilder::new("m", 4);
        let x = b.buffer("x", 2, BufKind::ParamIn);
        let y = b.buffer("y", 4, BufKind::ParamOut);
        let v = b.vload(MemRef::new(x, 0), vec![Some(0), Some(1), None, None]);
        b.vstore_contig(v, MemRef::new(y, 0));
        let f = b.finish();
        let mut bufs = BufferSet::for_function(&f);
        bufs.set(x, &[5.0, 6.0]);
        execute(&f, &mut bufs, &mut NullMonitor).unwrap();
        assert_eq!(bufs.get(y), &[5.0, 6.0, 0.0, 0.0]);
    }

    #[test]
    fn blend_extract_reduce() {
        let mut b = FunctionBuilder::new("ber", 4);
        let y = b.buffer("y", 3, BufKind::ParamOut);
        let a = b.vbroadcast(1.0);
        let c = b.vbroadcast(2.0);
        let bl = b.vblend(a, c, vec![false, true, false, true]); // 1,2,1,2
        let e = b.vextract(bl, 1);
        b.sstore(e, MemRef::new(y, 0));
        let r = b.vreduce_add(bl);
        b.sstore(r, MemRef::new(y, 1));
        let q = b.ssqrt(16.0);
        b.sstore(q, MemRef::new(y, 2));
        let f = b.finish();
        let mut bufs = BufferSet::for_function(&f);
        execute(&f, &mut bufs, &mut NullMonitor).unwrap();
        assert_eq!(bufs.get(y), &[2.0, 6.0, 4.0]);
    }

    #[test]
    fn pack_fills_registers_immediates_and_zero_lanes() {
        let mut b = FunctionBuilder::new("pack", 4);
        let x = b.buffer("x", 2, BufKind::ParamIn);
        let y = b.buffer("y", 4, BufKind::ParamOut);
        let r0 = b.sload(MemRef::new(x, 0));
        let r1 = b.sload(MemRef::new(x, 1));
        let v = b.vpack(vec![Some(r1.into()), None, Some(0.25.into()), Some(r0.into())]);
        b.vstore_contig(v, MemRef::new(y, 0));
        let f = b.finish();
        let mut bufs = BufferSet::for_function(&f);
        bufs.set(x, &[5.0, 6.0]);
        let mut mon = CountingMonitor::default();
        execute(&f, &mut bufs, &mut mon).unwrap();
        assert_eq!(bufs.get(y), &[6.0, 0.0, 0.25, 5.0]);
        assert_eq!(mon.count(InstrClass::Shuffle), 1);
        assert_eq!(mon.flops(), 0);
    }

    #[test]
    fn fma_is_fused_single_rounding() {
        let mut b = FunctionBuilder::new("fma", 4);
        let y = b.buffer("y", 8, BufKind::ParamOut);
        // scalar: fused result of (1 + 2^-27)^2 - 1 keeps the 2^-54 tail
        // that the two-op path rounds away
        let eps = 1.0 + 2.0f64.powi(-27);
        let a = b.smov(eps);
        let neg1 = b.smov(-1.0);
        let fused = b.sfma(slingen_cir::FmaKind::MulAdd, a, a, neg1);
        b.sstore(fused, MemRef::new(y, 0));
        let m = b.sbin(BinOp::Mul, a, a);
        let two_op = b.sbin(BinOp::Add, m, neg1);
        b.sstore(two_op, MemRef::new(y, 1));
        // vector: plain values, lanewise c - a*b (the Cholesky update form)
        let va = b.vbroadcast(3.0);
        let vb = b.vbroadcast(4.0);
        let vc = b.vbroadcast(29.0);
        let vf = b.vfma(slingen_cir::FmaKind::NegMulAdd, va, vb, vc);
        b.vstore_contig(vf, MemRef::new(y, 4));
        let f = b.finish();
        let mut bufs = BufferSet::for_function(&f);
        let mut mon = CountingMonitor::default();
        execute(&f, &mut bufs, &mut mon).unwrap();
        let out = bufs.get(y);
        assert_eq!(out[0], eps.mul_add(eps, -1.0));
        assert_eq!(out[1], eps * eps - 1.0);
        assert!(out[0] != out[1], "fused and two-op results must differ on this probe");
        assert_eq!(&out[4..8], &[17.0; 4]);
        assert_eq!(mon.count(InstrClass::Fma), 2);
        // flops: scalar fma = 2, vector fma = 2*width = 8, mul+add = 2
        assert_eq!(mon.flops(), 2 + 8 + 2);
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let mut b = FunctionBuilder::new("oob", 1);
        let x = b.buffer("x", 2, BufKind::ParamInOut);
        let r = b.sload(MemRef::new(x, 5));
        b.sstore(r, MemRef::new(x, 0));
        let f = b.finish();
        let mut bufs = BufferSet::for_function(&f);
        let err = execute(&f, &mut bufs, &mut NullMonitor).unwrap_err();
        assert!(matches!(err, VmError::OutOfBounds { index: 5, len: 2, .. }));
    }

    #[test]
    fn monitor_sees_all_instructions() {
        let mut b = FunctionBuilder::new("cnt", 1);
        let x = b.buffer("x", 4, BufKind::ParamInOut);
        let i = b.begin_for(0, 4, 1);
        let r = b.sload(MemRef::new(x, Affine::var(i)));
        let d = b.sbin(BinOp::Div, r, 3.0);
        b.sstore(d, MemRef::new(x, Affine::var(i)));
        b.end_for();
        let f = b.finish();
        let mut bufs = BufferSet::for_function(&f);
        let mut m = CountingMonitor::default();
        execute(&f, &mut bufs, &mut m).unwrap();
        assert_eq!(m.count(InstrClass::Load), 4);
        assert_eq!(m.count(InstrClass::FDivSqrt), 4);
        assert_eq!(m.count(InstrClass::Store), 4);
        assert_eq!(m.flops(), 4);
    }

    #[test]
    fn if_branches_follow_conditions() {
        use slingen_cir::{CmpOp, Cond};
        let mut b = FunctionBuilder::new("br", 1);
        let y = b.buffer("y", 4, BufKind::ParamOut);
        let i = b.begin_for(0, 4, 1);
        b.begin_if(Cond::new(Affine::var(i), CmpOp::Lt, Affine::constant(2)));
        b.sstore(1.0, MemRef::new(y, Affine::var(i)));
        b.begin_else();
        b.sstore(2.0, MemRef::new(y, Affine::var(i)));
        b.end_if();
        b.end_for();
        let f = b.finish();
        let mut bufs = BufferSet::for_function(&f);
        execute(&f, &mut bufs, &mut NullMonitor).unwrap();
        assert_eq!(bufs.get(y), &[1.0, 1.0, 2.0, 2.0]);
    }
}
