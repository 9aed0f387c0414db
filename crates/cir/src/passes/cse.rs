//! Common-subexpression elimination within straight-line regions.
//!
//! Pure register computations (arithmetic, broadcasts, shuffles, blends)
//! and loads are keyed on their operation and the *versions* of their
//! inputs; a repeated computation is replaced by a register move, which
//! copy propagation and DCE then dissolve. Loads participate with a
//! per-buffer epoch that is bumped by any store to the buffer (distinct
//! buffers never alias, by C-IR construction).
//!
//! Keys see through moves. A `SMov`/`VMov`, including one this pass has
//! just written, gives its destination's new version the canonical key
//! of its source, and operand keys resolve through that alias. So once
//! `p2 = a*b` has become `p2 = p1`, a later `p2 + c` keys like `p1 + c`
//! and folds in the same walk: a chain of redundancies collapses in one
//! call instead of one cleanup round per level. The alias is a versioned
//! key, so it can never join values across a redefinition: after
//! `r2 = r1; r1 = …`, `r2` still keys as the *old* `r1`.
//!
//! Throughput notes: the pass streams over the body and rewrites repeated
//! computations *in place* (no rebuilt instruction vectors, no clones);
//! register versions and buffer epochs live in dense tables indexed by
//! register/buffer id; and commutative canonicalization uses the derived
//! [`Ord`] on the key types directly.
//!
//! Every call scans from scratch; nothing is remembered between calls, so
//! the cleanup fixpoint in [`super`] sees the same rewrites a single
//! standalone run would make.

use crate::func::{CStmt, Function};
use crate::fxhash::{FxHashMap, FxHasher};
use crate::instr::{BinOp, FmaKind, Instr, LaneSel, SOperand, SReg, VReg};
use std::hash::{Hash, Hasher};

#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Key {
    SBin(BinOp, SKey, SKey),
    SFma(FmaKind, SKey, SKey, SKey),
    SSqrt(SKey),
    SLoad(usize, i64, u64),
    VBin(BinOp, VKey, VKey),
    VFma(FmaKind, VKey, VKey, VKey),
    VBroadcast(SKey),
    VShuffle(VKey, VKey, Vec<LaneSel>),
    VBlend(VKey, VKey, Vec<bool>),
    VPack(Vec<Option<SKey>>),
    VLoad(usize, i64, Vec<Option<i64>>, u64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum SKey {
    Reg(SReg, u32),
    Imm(u64),
}

type VKey = (VReg, u32);

/// A CSE key with its hash computed once, so the availability lookup and
/// the insert that follows it never re-hash: `Hash` just writes the
/// stored 64-bit value, and `Eq` falls back to full key comparison only
/// on hash collision.
#[derive(Debug)]
struct HashedKey {
    hash: u64,
    key: Key,
}

impl HashedKey {
    fn new(key: Key) -> Self {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        HashedKey { hash: h.finish(), key }
    }
}

impl PartialEq for HashedKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.key == other.key
    }
}
impl Eq for HashedKey {}
impl Hash for HashedKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// One register's state in the current generation: its version, and,
/// when that version was written by a move, the canonical key of the
/// moved value. Slots from an older generation read as version 0 with no
/// alias.
#[derive(Debug, Clone, Copy)]
struct Slot<K> {
    gen: u32,
    ver: u32,
    alias: Option<K>,
}

impl<K> Default for Slot<K> {
    fn default() -> Self {
        Slot { gen: 0, ver: 0, alias: None }
    }
}

impl<K: Copy> Slot<K> {
    /// `(version, alias)` as seen from generation `gen`.
    fn read(slots: &[Self], i: usize, gen: u32) -> (u32, Option<K>) {
        match slots.get(i) {
            Some(s) if s.gen == gen => (s.ver, s.alias),
            _ => (0, None),
        }
    }

    /// Record a write of register `i` in generation `gen`.
    fn define(slots: &mut Vec<Self>, i: usize, gen: u32, alias: Option<K>) {
        super::grow_update(slots, i, |s| {
            let ver = if s.gen == gen { s.ver + 1 } else { 1 };
            *s = Slot { gen, ver, alias };
        });
    }
}

/// Pass state: dense register/epoch tables plus the availability maps.
///
/// Table slots carry a generation tag; a slot from an older generation
/// reads as the default, which makes [`Cse::reset`] O(1) regardless of
/// table size (no per-boundary refills).
struct Cse {
    gen: u32,
    sregs: Vec<Slot<SKey>>,
    vregs: Vec<Slot<VKey>>,
    epochs: Vec<(u32, u64)>,
    avail_s: FxHashMap<HashedKey, (SReg, u32)>,
    avail_v: FxHashMap<HashedKey, (VReg, u32)>,
    /// Register definitions keyed so far ([`super::RoundStats::cse_rekeyed`]).
    keyed: usize,
}

impl Cse {
    fn for_function(f: &Function) -> Self {
        Cse {
            gen: 0,
            sregs: vec![Slot::default(); f.n_sregs],
            vregs: vec![Slot::default(); f.n_vregs],
            epochs: vec![(0, 0); f.buffers.len()],
            avail_s: FxHashMap::default(),
            avail_v: FxHashMap::default(),
            keyed: 0,
        }
    }

    /// Forget everything (control-flow boundary).
    fn reset(&mut self) {
        self.gen += 1;
        self.avail_s.clear();
        self.avail_v.clear();
    }

    fn sver(&self, r: SReg) -> u32 {
        Slot::read(&self.sregs, r.0, self.gen).0
    }
    fn vver(&self, r: VReg) -> u32 {
        Slot::read(&self.vregs, r.0, self.gen).0
    }
    fn epoch(&self, b: usize) -> u64 {
        match self.epochs.get(b) {
            Some((g, e)) if *g == self.gen => *e,
            _ => 0,
        }
    }
    fn bump_epoch(&mut self, b: usize) {
        let gen = self.gen;
        super::grow_update(&mut self.epochs, b, |s| {
            *s = if s.0 == gen { (gen, s.1 + 1) } else { (gen, 1) }
        });
    }
    /// The canonical key of a scalar operand: the key of the value a move
    /// copied into the register, else the register at its version.
    fn skey(&self, o: &SOperand) -> SKey {
        match o {
            SOperand::Reg(r) => {
                let (ver, alias) = Slot::read(&self.sregs, r.0, self.gen);
                alias.unwrap_or(SKey::Reg(*r, ver))
            }
            SOperand::Imm(v) => SKey::Imm(v.to_bits()),
        }
    }
    /// The canonical key of a vector register (see [`Cse::skey`]).
    fn vkey(&self, r: VReg) -> VKey {
        let (ver, alias) = Slot::read(&self.vregs, r.0, self.gen);
        alias.unwrap_or((r, ver))
    }
}

fn instr_key(st: &Cse, ins: &Instr) -> Option<Key> {
    match ins {
        Instr::SBin { op, a, b, .. } => {
            let (ka, kb) = (st.skey(a), st.skey(b));
            // commutative ops: canonical operand order
            let (ka, kb) = match op {
                BinOp::Add | BinOp::Mul if kb < ka => (kb, ka),
                _ => (ka, kb),
            };
            Some(Key::SBin(*op, ka, kb))
        }
        Instr::SFma { kind, a, b, c, .. } => {
            // the product commutes; the addend does not
            let (ka, kb) = (st.skey(a), st.skey(b));
            let (ka, kb) = if kb < ka { (kb, ka) } else { (ka, kb) };
            Some(Key::SFma(*kind, ka, kb, st.skey(c)))
        }
        Instr::SSqrt { a, .. } => Some(Key::SSqrt(st.skey(a))),
        Instr::SLoad { src, .. } => {
            src.offset.as_constant().map(|off| Key::SLoad(src.buf.0, off, st.epoch(src.buf.0)))
        }
        Instr::VBin { op, a, b, .. } => {
            let (ka, kb) = (st.vkey(*a), st.vkey(*b));
            let (ka, kb) = match op {
                BinOp::Add | BinOp::Mul if kb < ka => (kb, ka),
                _ => (ka, kb),
            };
            Some(Key::VBin(*op, ka, kb))
        }
        Instr::VFma { kind, a, b, c, .. } => {
            let (ka, kb) = (st.vkey(*a), st.vkey(*b));
            let (ka, kb) = if kb < ka { (kb, ka) } else { (ka, kb) };
            Some(Key::VFma(*kind, ka, kb, st.vkey(*c)))
        }
        Instr::VBroadcast { src, .. } => Some(Key::VBroadcast(st.skey(src))),
        Instr::VShuffle { a, b, sel, .. } => {
            Some(Key::VShuffle(st.vkey(*a), st.vkey(*b), sel.clone()))
        }
        Instr::VBlend { a, b, mask, .. } => {
            Some(Key::VBlend(st.vkey(*a), st.vkey(*b), mask.clone()))
        }
        Instr::VPack { elems, .. } => {
            Some(Key::VPack(elems.iter().map(|o| o.as_ref().map(|o| st.skey(o))).collect()))
        }
        Instr::VLoad { base, lanes, .. } => base
            .offset
            .as_constant()
            .map(|off| Key::VLoad(base.buf.0, off, lanes.clone(), st.epoch(base.buf.0))),
        _ => None,
    }
}

/// Process one instruction, replacing repeats with moves in place.
/// Returns `true` when the instruction was rewritten.
fn process(st: &mut Cse, ins: &mut Instr) -> bool {
    let key = instr_key(st, ins).map(HashedKey::new);
    if ins.sreg_write().is_some() || ins.vreg_write().is_some() {
        st.keyed += 1;
    }
    let mut replaced = false;
    if let Some(k) = &key {
        if let Some(sdst) = ins.sreg_write() {
            if let Some(&(r, v)) = st.avail_s.get(k) {
                if st.sver(r) == v && r != sdst {
                    *ins = Instr::SMov { dst: sdst, a: r.into() };
                    replaced = true;
                }
            }
        } else if let Some(vdst) = ins.vreg_write() {
            if let Some(&(r, v)) = st.avail_v.get(k) {
                if st.vver(r) == v && r != vdst {
                    *ins = Instr::VMov { dst: vdst, src: r };
                    replaced = true;
                }
            }
        }
    }
    // effects: bump versions/epochs, then record availability
    match &*ins {
        Instr::SStore { dst, .. } => st.bump_epoch(dst.buf.0),
        Instr::VStore { base, .. } => st.bump_epoch(base.buf.0),
        _ => {}
    }
    // a move's destination takes the canonical key of its source, read
    // before the write bumps versions (the source may be the destination)
    let gen = st.gen;
    if let Some(r) = ins.sreg_write() {
        let alias = match &*ins {
            Instr::SMov { a, .. } => Some(st.skey(a)),
            _ => None,
        };
        Slot::define(&mut st.sregs, r.0, gen, alias);
    }
    if let Some(r) = ins.vreg_write() {
        let alias = match &*ins {
            Instr::VMov { src, .. } => Some(st.vkey(*src)),
            _ => None,
        };
        Slot::define(&mut st.vregs, r.0, gen, alias);
    }
    if let Some(k) = key {
        if let Some(r) = ins.sreg_write() {
            let ver = st.sver(r);
            st.avail_s.insert(k, (r, ver));
        } else if let Some(r) = ins.vreg_write() {
            let ver = st.vver(r);
            st.avail_v.insert(k, (r, ver));
        }
    }
    replaced
}

fn walk(stmts: &mut [CStmt], st: &mut Cse) -> bool {
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

/// Eliminate common subexpressions in `f`; returns whether anything
/// changed.
pub fn cse(f: &mut Function) -> bool {
    cse_counted(f).0
}

/// [`cse`], also returning how many register definitions were keyed.
pub(crate) fn cse_counted(f: &mut Function) -> (bool, usize) {
    let mut st = Cse::for_function(f);
    let changed = walk(&mut f.body, &mut st);
    (changed, st.keyed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{BufKind, FunctionBuilder};
    use crate::instr::{BinOp, MemRef};

    #[test]
    fn repeated_scalar_computation_becomes_mov() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 2, BufKind::ParamOut);
        let a = b.smov(3.0);
        let x = b.sbin(BinOp::Mul, a, a);
        let y = b.sbin(BinOp::Mul, a, a);
        b.sstore(x, MemRef::new(t, 0));
        b.sstore(y, MemRef::new(t, 1));
        let mut f = b.finish();
        assert!(cse(&mut f), "must report a change");
        let mut muls = 0;
        let mut movs = 0;
        f.for_each_instr(&mut |i| match i {
            Instr::SBin { op: BinOp::Mul, .. } => muls += 1,
            Instr::SMov { .. } => movs += 1,
            _ => {}
        });
        assert_eq!(muls, 1);
        assert_eq!(movs, 2); // the original mov + the CSE replacement
    }

    #[test]
    fn commutative_ops_match_reversed_operands() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 2, BufKind::ParamOut);
        let a = b.smov(3.0);
        let c = b.smov(4.0);
        let x = b.sbin(BinOp::Add, a, c);
        let y = b.sbin(BinOp::Add, c, a);
        b.sstore(x, MemRef::new(t, 0));
        b.sstore(y, MemRef::new(t, 1));
        let mut f = b.finish();
        cse(&mut f);
        let mut adds = 0;
        f.for_each_instr(&mut |i| {
            if matches!(i, Instr::SBin { op: BinOp::Add, .. }) {
                adds += 1;
            }
        });
        assert_eq!(adds, 1);
    }

    #[test]
    fn commutative_imm_reg_mixes_match() {
        // Imm/Reg operand orders must canonicalize to the same key.
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 2, BufKind::ParamOut);
        let a = b.smov(3.0);
        let x = b.sbin(BinOp::Mul, a, 2.0);
        let y = b.sbin(BinOp::Mul, 2.0, a);
        b.sstore(x, MemRef::new(t, 0));
        b.sstore(y, MemRef::new(t, 1));
        let mut f = b.finish();
        cse(&mut f);
        let mut muls = 0;
        f.for_each_instr(&mut |i| {
            if matches!(i, Instr::SBin { op: BinOp::Mul, .. }) {
                muls += 1;
            }
        });
        assert_eq!(muls, 1);
    }

    #[test]
    fn subtraction_is_not_commuted() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 2, BufKind::ParamOut);
        let a = b.smov(3.0);
        let c = b.smov(4.0);
        let x = b.sbin(BinOp::Sub, a, c);
        let y = b.sbin(BinOp::Sub, c, a);
        b.sstore(x, MemRef::new(t, 0));
        b.sstore(y, MemRef::new(t, 1));
        let mut f = b.finish();
        cse(&mut f);
        let mut subs = 0;
        f.for_each_instr(&mut |i| {
            if matches!(i, Instr::SBin { op: BinOp::Sub, .. }) {
                subs += 1;
            }
        });
        assert_eq!(subs, 2);
    }

    #[test]
    fn store_bumps_buffer_epoch_for_loads() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 2, BufKind::ParamInOut);
        let l1 = b.sload(MemRef::new(t, 0));
        b.sstore(1.0, MemRef::new(t, 0));
        let l2 = b.sload(MemRef::new(t, 0));
        b.sstore(l1, MemRef::new(t, 1));
        b.sstore(l2, MemRef::new(t, 1));
        let mut f = b.finish();
        cse(&mut f);
        let mut loads = 0;
        f.for_each_instr(&mut |i| {
            if matches!(i, Instr::SLoad { .. }) {
                loads += 1;
            }
        });
        assert_eq!(loads, 2, "store must invalidate the load CSE entry");
    }

    #[test]
    fn redundant_load_removed() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 2, BufKind::ParamInOut);
        let l1 = b.sload(MemRef::new(t, 0));
        let l2 = b.sload(MemRef::new(t, 0));
        b.sstore(l1, MemRef::new(t, 1));
        b.sstore(l2, MemRef::new(t, 1));
        let mut f = b.finish();
        cse(&mut f);
        let mut loads = 0;
        f.for_each_instr(&mut |i| {
            if matches!(i, Instr::SLoad { .. }) {
                loads += 1;
            }
        });
        assert_eq!(loads, 1);
    }

    #[test]
    fn vector_cse_emits_vmov() {
        let mut b = FunctionBuilder::new("f", 4);
        let t = b.buffer("t", 8, BufKind::ParamInOut);
        let v1 = b.vload_contig(MemRef::new(t, 0));
        let x = b.vbin(BinOp::Mul, v1, v1);
        let y = b.vbin(BinOp::Mul, v1, v1);
        b.vstore_contig(x, MemRef::new(t, 0));
        b.vstore_contig(y, MemRef::new(t, 4));
        let mut f = b.finish();
        cse(&mut f);
        let mut vmuls = 0;
        let mut vmovs = 0;
        f.for_each_instr(&mut |i| match i {
            Instr::VBin { op: BinOp::Mul, .. } => vmuls += 1,
            Instr::VMov { .. } => vmovs += 1,
            _ => {}
        });
        assert_eq!(vmuls, 1);
        assert_eq!(vmovs, 1);
    }

    /// Count the instructions of `f` that `pred` selects.
    fn count(f: &Function, pred: impl Fn(&Instr) -> bool) -> usize {
        let mut n = 0;
        f.for_each_instr(&mut |i| n += usize::from(pred(i)));
        n
    }

    /// A two-level cascade: the second `a*b` becomes a move, and keys see
    /// through that move, so the second `(a*b) + c` folds in the same call.
    #[test]
    fn scalar_cascade_collapses_in_one_call() {
        let mut b = FunctionBuilder::new("f", 1);
        let x = b.buffer("x", 3, BufKind::ParamIn);
        let t = b.buffer("t", 2, BufKind::ParamOut);
        let (a, bb, c) =
            (b.sload(MemRef::new(x, 0)), b.sload(MemRef::new(x, 1)), b.sload(MemRef::new(x, 2)));
        let p1 = b.sbin(BinOp::Mul, a, bb);
        let p2 = b.sbin(BinOp::Mul, a, bb);
        let s1 = b.sbin(BinOp::Add, p1, c);
        let s2 = b.sbin(BinOp::Add, p2, c);
        b.sstore(s1, MemRef::new(t, 0));
        b.sstore(s2, MemRef::new(t, 1));
        let mut f = b.finish();
        assert!(cse(&mut f));
        assert_eq!(count(&f, |i| matches!(i, Instr::SBin { op: BinOp::Mul, .. })), 1);
        assert_eq!(count(&f, |i| matches!(i, Instr::SBin { op: BinOp::Add, .. })), 1);
        assert_eq!(count(&f, |i| matches!(i, Instr::SMov { .. })), 2);
    }

    /// The vector cascade resolves through the `VMov` CSE writes.
    #[test]
    fn vector_cascade_collapses_in_one_call() {
        let mut b = FunctionBuilder::new("f", 4);
        let t = b.buffer("t", 12, BufKind::ParamInOut);
        let v = b.vload_contig(MemRef::new(t, 0));
        let p1 = b.vbin(BinOp::Mul, v, v);
        let p2 = b.vbin(BinOp::Mul, v, v);
        let s1 = b.vbin(BinOp::Add, p1, v);
        let s2 = b.vbin(BinOp::Add, p2, v);
        b.vstore_contig(s1, MemRef::new(t, 4));
        b.vstore_contig(s2, MemRef::new(t, 8));
        let mut f = b.finish();
        assert!(cse(&mut f));
        assert_eq!(count(&f, |i| matches!(i, Instr::VBin { op: BinOp::Mul, .. })), 1);
        assert_eq!(count(&f, |i| matches!(i, Instr::VBin { op: BinOp::Add, .. })), 1);
        assert_eq!(count(&f, |i| matches!(i, Instr::VMov { .. })), 2);
    }

    /// `r2 = r1` gives `r2` the key of `r1`'s value at that point; after
    /// `r1` is redefined, `r2 + c` and the new `r1 + c` are different
    /// values and must both stay.
    #[test]
    fn move_alias_does_not_follow_a_redefined_source() {
        let mut b = FunctionBuilder::new("f", 1);
        let x = b.buffer("x", 3, BufKind::ParamIn);
        let t = b.buffer("t", 2, BufKind::ParamOut);
        let c = b.sload(MemRef::new(x, 2));
        let r1 = b.sload(MemRef::new(x, 0));
        let r2 = b.smov(r1);
        b.instr(Instr::SLoad { dst: r1, src: MemRef::new(x, 1) });
        let old = b.sbin(BinOp::Add, r2, c);
        let new = b.sbin(BinOp::Add, r1, c);
        b.sstore(old, MemRef::new(t, 0));
        b.sstore(new, MemRef::new(t, 1));
        let mut f = b.finish();
        assert!(!cse(&mut f), "nothing is redundant");
        assert_eq!(count(&f, |i| matches!(i, Instr::SBin { op: BinOp::Add, .. })), 2);
    }

    #[test]
    fn no_change_reports_false() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 1, BufKind::ParamOut);
        let a = b.smov(3.0);
        b.sstore(a, MemRef::new(t, 0));
        let mut f = b.finish();
        assert!(!cse(&mut f));
    }
}
