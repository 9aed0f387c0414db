//! FMA contraction: fuse multiply–add/sub chains into fused
//! multiply-adds.
//!
//! Within straight-line regions, an add or subtract whose operand is the
//! result of an earlier multiply becomes a fused [`crate::Instr::SFma`] /
//! [`crate::Instr::VFma`] — `a*b + c` as `fmadd`, `a*b - c` as `fmsub`,
//! and the factorization-update form `c - a*b` as `fnmadd` — when:
//!
//! * the multiply's operands still hold their values at the add/sub
//!   (checked with the same register-version discipline as the
//!   forwarding pass);
//! * the multiply's result is read *exactly once* in the whole function —
//!   by that add/sub. This keeps the transformation a strict win on the
//!   machine model: the dead multiply is removed by [`super::dce`], so
//!   one FMA replaces a mul (multiply port) plus an add/sub (add port),
//!   issues on the add port in the add's place, never adds port pressure,
//!   and the fused op completes within the add
//!   latency (see the `fma_latency` note in `slingen-cir::target`), so
//!   accumulation chains never lengthen.
//!
//! The pass only runs when the target has FMA
//! ([`crate::Target::has_fma`], threaded through
//! [`super::PassConfig::fma_contraction`]); the default pipeline is
//! unchanged on non-FMA targets.
//!
//! Rounding: the VM executes FMA with `f64::mul_add` (single rounding),
//! so contracted code can differ from the two-op sequence by up to 1 ULP
//! per fusion — the same caveat that applies to `-ffp-contract=fast` C
//! compilation of the emitted source.

use crate::func::{CStmt, Function};
use crate::instr::{BinOp, FmaKind, Instr, SOperand, SReg, VReg};

/// A pending multiply whose result register may feed one add.
#[derive(Clone, Copy)]
struct SMul {
    /// Version of the destination when the multiply defined it.
    dst_ver: u32,
    a: SOperand,
    a_ver: u32,
    b: SOperand,
    b_ver: u32,
}

#[derive(Clone, Copy)]
struct VMul {
    dst_ver: u32,
    a: VReg,
    a_ver: u32,
    b: VReg,
    b_ver: u32,
}

/// Pass state: dense version tables plus the per-register multiply facts.
struct Contract {
    svers: Vec<u32>,
    vvers: Vec<u32>,
    smuls: Vec<Option<SMul>>,
    vmuls: Vec<Option<VMul>>,
    /// Whole-function read counts (single-use discipline; see module docs).
    sreads: Vec<u32>,
    vreads: Vec<u32>,
}

impl Contract {
    fn for_function(f: &Function) -> Self {
        let mut st = Contract {
            svers: vec![0; f.n_sregs],
            vvers: vec![0; f.n_vregs],
            smuls: vec![None; f.n_sregs],
            vmuls: vec![None; f.n_vregs],
            sreads: vec![0; f.n_sregs],
            vreads: vec![0; f.n_vregs],
        };
        f.for_each_instr(&mut |i| {
            for r in i.sreg_reads() {
                super::grow_update(&mut st.sreads, r.0, |n| *n += 1);
            }
            for r in i.vreg_reads() {
                super::grow_update(&mut st.vreads, r.0, |n| *n += 1);
            }
        });
        st
    }

    fn reset(&mut self) {
        self.smuls.iter_mut().for_each(|m| *m = None);
        self.vmuls.iter_mut().for_each(|m| *m = None);
    }

    fn sver(&self, r: SReg) -> u32 {
        self.svers.get(r.0).copied().unwrap_or(0)
    }
    fn vver(&self, r: VReg) -> u32 {
        self.vvers.get(r.0).copied().unwrap_or(0)
    }
    fn sop_ver(&self, o: &SOperand) -> u32 {
        match o {
            SOperand::Reg(r) => self.sver(*r),
            SOperand::Imm(_) => 0,
        }
    }
    fn bump_s(&mut self, r: SReg) {
        super::grow_update(&mut self.svers, r.0, |v| *v += 1);
    }
    fn bump_v(&mut self, r: VReg) {
        super::grow_update(&mut self.vvers, r.0, |v| *v += 1);
    }

    /// The multiply feeding scalar operand `o`, if it is a single-use
    /// register whose multiply operands are all still live.
    fn smul_for(&self, o: &SOperand) -> Option<SMul> {
        let SOperand::Reg(r) = o else { return None };
        let m = (*self.smuls.get(r.0)?)?;
        let live = self.sver(*r) == m.dst_ver
            && self.sop_ver(&m.a) == m.a_ver
            && self.sop_ver(&m.b) == m.b_ver;
        let single_use = self.sreads.get(r.0).copied().unwrap_or(0) == 1;
        (live && single_use).then_some(m)
    }

    fn vmul_for(&self, r: VReg) -> Option<VMul> {
        let m = (*self.vmuls.get(r.0)?)?;
        let live =
            self.vver(r) == m.dst_ver && self.vver(m.a) == m.a_ver && self.vver(m.b) == m.b_ver;
        let single_use = self.vreads.get(r.0).copied().unwrap_or(0) == 1;
        (live && single_use).then_some(m)
    }
}

/// Rewrite one instruction in place; returns `true` on contraction.
fn process(st: &mut Contract, ins: &mut Instr) -> bool {
    let mut changed = false;
    match ins {
        Instr::SBin { op: op @ (BinOp::Add | BinOp::Sub), dst, a, b } => {
            // prefer the first operand's multiply; for Add fall back to
            // the second (addition commutes), deterministically
            if let Some(m) = st.smul_for(a) {
                let kind = match op {
                    BinOp::Add => FmaKind::MulAdd, // a*b + c
                    _ => FmaKind::MulSub,          // a*b - c
                };
                *ins = Instr::SFma { kind, dst: *dst, a: m.a, b: m.b, c: *b };
                changed = true;
            } else if let Some(m) = st.smul_for(b) {
                let kind = match op {
                    BinOp::Add => FmaKind::MulAdd, // c + a*b
                    _ => FmaKind::NegMulAdd,       // c - a*b
                };
                *ins = Instr::SFma { kind, dst: *dst, a: m.a, b: m.b, c: *a };
                changed = true;
            }
        }
        Instr::VBin { op: op @ (BinOp::Add | BinOp::Sub), dst, a, b } => {
            if let Some(m) = st.vmul_for(*a) {
                let kind = match op {
                    BinOp::Add => FmaKind::MulAdd,
                    _ => FmaKind::MulSub,
                };
                *ins = Instr::VFma { kind, dst: *dst, a: m.a, b: m.b, c: *b };
                changed = true;
            } else if let Some(m) = st.vmul_for(*b) {
                let kind = match op {
                    BinOp::Add => FmaKind::MulAdd,
                    _ => FmaKind::NegMulAdd,
                };
                *ins = Instr::VFma { kind, dst: *dst, a: m.a, b: m.b, c: *a };
                changed = true;
            }
        }
        _ => {}
    }
    // record effects *after* the (possibly rewritten) instruction: operand
    // versions are captured before the destination bump, so a multiply
    // that overwrites its own operand can never be fused later.
    let mul_fact_s = match &*ins {
        Instr::SBin { op: BinOp::Mul, dst, a, b } => Some((
            *dst,
            SMul { dst_ver: 0, a: *a, a_ver: st.sop_ver(a), b: *b, b_ver: st.sop_ver(b) },
        )),
        _ => None,
    };
    let mul_fact_v = match &*ins {
        Instr::VBin { op: BinOp::Mul, dst, a, b } => {
            Some((*dst, VMul { dst_ver: 0, a: *a, a_ver: st.vver(*a), b: *b, b_ver: st.vver(*b) }))
        }
        _ => None,
    };
    if let Some(r) = ins.sreg_write() {
        st.bump_s(r);
        super::grow_update(&mut st.smuls, r.0, |m| *m = None);
    }
    if let Some(r) = ins.vreg_write() {
        st.bump_v(r);
        super::grow_update(&mut st.vmuls, r.0, |m| *m = None);
    }
    if let Some((dst, mut m)) = mul_fact_s {
        m.dst_ver = st.sver(dst);
        super::grow_update(&mut st.smuls, dst.0, |slot| *slot = Some(m));
    }
    if let Some((dst, mut m)) = mul_fact_v {
        m.dst_ver = st.vver(dst);
        super::grow_update(&mut st.vmuls, dst.0, |slot| *slot = Some(m));
    }
    changed
}

fn walk(stmts: &mut [CStmt], st: &mut Contract) -> bool {
    let mut changed = false;
    for s in stmts {
        match s {
            CStmt::I(ins) => changed |= process(st, ins),
            CStmt::For { body, .. } => {
                st.reset();
                changed |= walk(body, st);
                st.reset();
            }
            CStmt::If { then_, else_, .. } => {
                st.reset();
                changed |= walk(then_, st);
                st.reset();
                changed |= walk(else_, st);
                st.reset();
            }
        }
    }
    changed
}

/// Fuse single-use multiply–add chains in `f` into FMA instructions;
/// returns whether anything changed. The dead multiplies are left for
/// [`super::dce`] to collect.
pub fn contract(f: &mut Function) -> bool {
    let mut st = Contract::for_function(f);
    walk(&mut f.body, &mut st)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{BufKind, FunctionBuilder};
    use crate::instr::MemRef;

    fn count(f: &Function, pred: impl Fn(&Instr) -> bool) -> usize {
        let mut n = 0;
        f.for_each_instr(&mut |i| {
            if pred(i) {
                n += 1;
            }
        });
        n
    }

    #[test]
    fn scalar_mul_add_contracts() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 1, BufKind::ParamOut);
        let x = b.smov(2.0);
        let y = b.smov(3.0);
        let m = b.sbin(BinOp::Mul, x, y);
        let s = b.sbin(BinOp::Add, m, 1.0);
        b.sstore(s, MemRef::new(t, 0));
        let mut f = b.finish();
        assert!(contract(&mut f));
        assert_eq!(count(&f, |i| matches!(i, Instr::SFma { .. })), 1);
        // the mul is now dead; DCE removes it
        assert!(super::super::dce::dce(&mut f));
        assert_eq!(count(&f, |i| matches!(i, Instr::SBin { op: BinOp::Mul, .. })), 0);
    }

    #[test]
    fn vector_mul_add_contracts_both_operand_orders() {
        for mul_first in [true, false] {
            let mut b = FunctionBuilder::new("f", 4);
            let t = b.buffer("t", 8, BufKind::ParamInOut);
            let vx = b.vload_contig(MemRef::new(t, 0));
            let vy = b.vload_contig(MemRef::new(t, 4));
            let m = b.vbin(BinOp::Mul, vx, vy);
            let s = if mul_first { b.vbin(BinOp::Add, m, vx) } else { b.vbin(BinOp::Add, vx, m) };
            b.vstore_contig(s, MemRef::new(t, 0));
            let mut f = b.finish();
            assert!(contract(&mut f), "mul_first={mul_first}");
            assert_eq!(count(&f, |i| matches!(i, Instr::VFma { .. })), 1);
        }
    }

    #[test]
    fn multi_use_mul_is_not_contracted() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 2, BufKind::ParamOut);
        let x = b.smov(2.0);
        let m = b.sbin(BinOp::Mul, x, x);
        let s = b.sbin(BinOp::Add, m, 1.0);
        b.sstore(s, MemRef::new(t, 0));
        b.sstore(m, MemRef::new(t, 1)); // second use of the mul result
        let mut f = b.finish();
        assert!(!contract(&mut f), "a multi-use mul must stay unfused");
    }

    #[test]
    fn operand_redefinition_blocks_contraction() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 1, BufKind::ParamOut);
        let x = b.smov(2.0);
        let m = b.sbin(BinOp::Mul, x, 3.0);
        // x changes between the mul and the add: fusing would read the new x
        b.instr(Instr::SMov { dst: x, a: 9.0.into() });
        let s = b.sbin(BinOp::Add, m, x);
        b.sstore(s, MemRef::new(t, 0));
        let mut f = b.finish();
        // the add's second operand (x) is fine, but the mul fact for m
        // references the old x — contraction of m must be rejected... the
        // mul's operands are x (redefined) and an imm, so m is invalid.
        assert!(!contract(&mut f));
    }

    #[test]
    fn self_overwriting_mul_is_rejected() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 1, BufKind::ParamOut);
        let x = b.smov(2.0);
        // x = x * 3.0 — the multiply destroys its own operand
        b.instr(Instr::SBin { op: BinOp::Mul, dst: x, a: x.into(), b: 3.0.into() });
        let s = b.sbin(BinOp::Add, x, 1.0);
        b.sstore(s, MemRef::new(t, 0));
        let mut f = b.finish();
        assert!(!contract(&mut f), "fusing would re-read the overwritten operand");
    }

    #[test]
    fn control_flow_boundaries_reset_facts() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 4, BufKind::ParamOut);
        let x = b.smov(2.0);
        let m = b.sbin(BinOp::Mul, x, 3.0);
        let i = b.begin_for(0, 2, 1);
        let s = b.sbin(BinOp::Add, m, 1.0);
        b.sstore(s, MemRef::new(t, crate::affine::Affine::var(i)));
        b.end_for();
        let mut f = b.finish();
        assert!(!contract(&mut f), "facts must not cross into loop bodies");
    }

    #[test]
    fn sub_forms_pick_the_right_kind() {
        // a*b - c => MulSub
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 1, BufKind::ParamOut);
        let x = b.smov(2.0);
        let m = b.sbin(BinOp::Mul, x, 3.0);
        let s = b.sbin(BinOp::Sub, m, 1.0);
        b.sstore(s, MemRef::new(t, 0));
        let mut f = b.finish();
        assert!(contract(&mut f));
        assert_eq!(count(&f, |i| matches!(i, Instr::SFma { kind: FmaKind::MulSub, .. })), 1);

        // c - a*b => NegMulAdd (the Cholesky/solver update form)
        let mut b = FunctionBuilder::new("f", 4);
        let t = b.buffer("t", 8, BufKind::ParamInOut);
        let vc = b.vload_contig(MemRef::new(t, 0));
        let vx = b.vload_contig(MemRef::new(t, 4));
        let m = b.vbin(BinOp::Mul, vx, vx);
        let s = b.vbin(BinOp::Sub, vc, m);
        b.vstore_contig(s, MemRef::new(t, 0));
        let mut f = b.finish();
        assert!(contract(&mut f));
        assert_eq!(count(&f, |i| matches!(i, Instr::VFma { kind: FmaKind::NegMulAdd, .. })), 1);
    }

    #[test]
    fn sub_does_not_commute_into_mul_sub() {
        // c - a*b must NOT become fmsub(a, b, c); kinds are order-exact
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 1, BufKind::ParamOut);
        let x = b.smov(2.0);
        let m = b.sbin(BinOp::Mul, x, 3.0);
        let c = b.smov(10.0);
        let s = b.sbin(BinOp::Sub, c, m);
        b.sstore(s, MemRef::new(t, 0));
        let mut f = b.finish();
        assert!(contract(&mut f));
        assert_eq!(count(&f, |i| matches!(i, Instr::SFma { kind: FmaKind::NegMulAdd, .. })), 1);
        assert_eq!(count(&f, |i| matches!(i, Instr::SFma { kind: FmaKind::MulSub, .. })), 0);
    }
}
