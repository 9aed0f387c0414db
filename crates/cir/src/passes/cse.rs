//! Common-subexpression elimination within straight-line regions.
//!
//! Pure register computations (arithmetic, broadcasts, shuffles, blends,
//! packs) and loads are keyed on their operation and the *value numbers*
//! of their inputs; a repeated computation is replaced by a register move,
//! which copy propagation and DCE then dissolve. Loads participate with
//! the stamp of the last store to their buffer, so any store to a buffer
//! invalidates its loads (distinct buffers never alias, by C-IR
//! construction).
//!
//! Keys see through moves. Every register definition gets a fresh value
//! number, but a `SMov`/`VMov`, including one this pass has just written,
//! gives its destination the number of its source. So once `p2 = a*b` has
//! become `p2 = p1`, a later `p2 + c` keys like `p1 + c` and folds in the
//! same walk: a chain of redundancies collapses in one call instead of one
//! cleanup round per level. A number names one definition, so it can
//! never join values across a redefinition: after `r2 = r1; r1 = …`, `r2`
//! still holds the *old* `r1`'s number.
//!
//! Throughput notes: a key is a fixed-size array of `u32` words, the
//! operation word first and then the operands' value numbers, so building,
//! hashing and storing one allocates nothing. Each immediate bit pattern
//! is interned to one number (so `0.0` and `-0.0` stay apart), each
//! distinct lane map and shuffle selector to one small id, and a blend
//! mask is packed into the operation word as bits. The availability maps
//! are sized once per call from the body's keyable instruction count and
//! map a key to the register and write stamp that hold it, 24 (scalar) or
//! 28 (vector) bytes an entry. Register slots (8 bytes each) and
//! per-buffer store stamps live in dense tables indexed by register or
//! buffer id, and the pass rewrites repeated computations *in place* (no
//! rebuilt instruction vectors, no clones).
//!
//! Every call scans from scratch; nothing is remembered between calls, so
//! the cleanup fixpoint in [`super`] sees the same rewrites a single
//! standalone run would make.

use crate::func::{CStmt, Function};
use crate::fxhash::FxHashMap;
use crate::instr::{BinOp, Instr, LaneSel, SOperand, SReg, VReg};
use std::hash::Hash;

/// A scalar key: the operation word and up to three operand words.
type SKey = [u32; 4];
/// A vector key: the operation word and up to four operand words.
type VKey = [u32; 5];

// Operation kinds, the low four bits of a key's first word; the bits
// above hold the `BinOp`/`FmaKind`, the buffer id, the blend mask or the
// pack's lane count. Scalar and vector keys live in separate maps.
const S_BIN: u32 = 0;
const S_FMA: u32 = 1;
const S_SQRT: u32 = 2;
const S_LOAD: u32 = 3;
const V_BIN: u32 = 0;
const V_FMA: u32 = 1;
const V_BROADCAST: u32 = 2;
const V_SHUFFLE: u32 = 3;
const V_BLEND: u32 = 4;
const V_PACK: u32 = 5;
const V_LOAD: u32 = 6;

/// The operation word `kind | payload << 4`; `None` when the payload does
/// not fit in the 28 bits above the kind (such an instruction is never
/// keyed).
fn op_word(kind: u32, payload: usize) -> Option<u32> {
    u32::try_from(payload).ok().filter(|&p| p < 1 << 28).map(|p| p << 4 | kind)
}

/// The value number of register `r`'s value on entry to the current
/// region (before its first write there) is `ENTRY | r`. Fresh numbers
/// count up from 1 and stay below this bit, so 0 is never a value number.
const ENTRY: u32 = 1 << 31;

/// Register `r`'s id as a key word: below [`ENTRY`], so that `ENTRY | r`
/// names it alone.
fn reg_id(r: usize) -> u32 {
    assert!(r < ENTRY as usize, "register id {r} past the CSE entry range");
    r as u32
}

/// The id of `xs` in `ids`, interning it on first sight.
fn intern<T: Clone + Eq + Hash>(ids: &mut FxHashMap<Vec<T>, u32>, xs: &[T]) -> u32 {
    if let Some(&id) = ids.get(xs) {
        return id;
    }
    let id = ids.len() as u32;
    ids.insert(xs.to_vec(), id);
    id
}

/// `(a, b)` in ascending order: the canonical operand order of a
/// commutative operation.
fn sorted(a: u32, b: u32) -> (u32, u32) {
    if b < a {
        (b, a)
    } else {
        (a, b)
    }
}

/// One register's latest write: its stamp, unique to the write, and the
/// value number the register then holds. Stamp 0: never written.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    stamp: u32,
    vn: u32,
}

/// Pass state: dense register and store tables, the interners, and the
/// availability maps.
///
/// Stamps, value numbers and immediate numbers all draw from one counter,
/// so none of them ever coincides with another by accident. A region
/// boundary only moves [`Cse::region`] past the counter: a slot written
/// before it reads as the register's entry value, which makes
/// [`Cse::reset`] O(1) regardless of table size.
struct Cse {
    /// The last number handed out.
    next: u32,
    /// The first number of the current region.
    region: u32,
    sregs: Vec<Slot>,
    vregs: Vec<Slot>,
    /// Per buffer, the stamp of its last store (0: none yet).
    stores: Vec<u32>,
    imms: FxHashMap<u64, u32>,
    lanes: FxHashMap<Vec<Option<i64>>, u32>,
    sels: FxHashMap<Vec<LaneSel>, u32>,
    /// Key → (register, stamp of the write that computed it).
    avail_s: FxHashMap<SKey, (u32, u32)>,
    avail_v: FxHashMap<VKey, (u32, u32)>,
    /// Register definitions keyed so far ([`super::RoundStats::cse_rekeyed`]).
    keyed: usize,
}

impl Cse {
    fn for_function(f: &Function) -> Self {
        // The availability maps never hold more than the body's keyable
        // definitions, so they are sized once and never rehash.
        let (mut n_s, mut n_v) = (0, 0);
        f.for_each_instr(&mut |i| match i {
            Instr::SBin { .. } | Instr::SFma { .. } | Instr::SSqrt { .. } | Instr::SLoad { .. } => {
                n_s += 1
            }
            Instr::VBin { .. }
            | Instr::VFma { .. }
            | Instr::VBroadcast { .. }
            | Instr::VShuffle { .. }
            | Instr::VBlend { .. }
            | Instr::VPack { .. }
            | Instr::VLoad { .. } => n_v += 1,
            _ => {}
        });
        Cse {
            next: 0,
            region: 1,
            sregs: vec![Slot::default(); f.n_sregs],
            vregs: vec![Slot::default(); f.n_vregs],
            stores: vec![0; f.buffers.len()],
            imms: FxHashMap::default(),
            lanes: FxHashMap::default(),
            sels: FxHashMap::default(),
            avail_s: FxHashMap::with_capacity_and_hasher(n_s, Default::default()),
            avail_v: FxHashMap::with_capacity_and_hasher(n_v, Default::default()),
            keyed: 0,
        }
    }

    /// Forget everything (control-flow boundary).
    fn reset(&mut self) {
        self.region = self.next + 1;
        self.avail_s.clear();
        self.avail_v.clear();
    }

    fn fresh(&mut self) -> u32 {
        self.next += 1;
        assert!(self.next < ENTRY, "CSE value numbers overflowed into the entry range");
        self.next
    }

    /// The stamp of register `r`'s latest write.
    fn stamp(slots: &[Slot], r: u32) -> u32 {
        slots.get(r as usize).map_or(0, |s| s.stamp)
    }

    /// The value number register `r` holds in the current region.
    fn reg_vn(&self, slots: &[Slot], r: usize) -> u32 {
        match slots.get(r) {
            Some(s) if s.stamp >= self.region => s.vn,
            _ => ENTRY | reg_id(r),
        }
    }

    /// The value number of a scalar operand: an immediate's is its bit
    /// pattern's, interned on first sight.
    fn svn(&mut self, o: &SOperand) -> u32 {
        match o {
            SOperand::Reg(r) => self.reg_vn(&self.sregs, r.0),
            SOperand::Imm(v) => {
                let next = &mut self.next;
                *self.imms.entry(v.to_bits()).or_insert_with(|| {
                    *next += 1;
                    *next
                })
            }
        }
    }

    fn vvn(&self, r: VReg) -> u32 {
        self.reg_vn(&self.vregs, r.0)
    }

    /// The stamp of the last store to buffer `b`. Loads of one region
    /// share it exactly when no store to `b` came between them.
    fn last_store(&self, b: usize) -> u32 {
        self.stores.get(b).copied().unwrap_or(0)
    }

    /// The key of a keyable scalar definition.
    fn scalar_key(&mut self, ins: &Instr) -> Option<SKey> {
        Some(match ins {
            Instr::SBin { op, a, b, .. } => {
                let (a, b) = (self.svn(a), self.svn(b));
                let (a, b) = match op {
                    BinOp::Add | BinOp::Mul => sorted(a, b),
                    _ => (a, b),
                };
                [op_word(S_BIN, *op as usize)?, a, b, 0]
            }
            Instr::SFma { kind, a, b, c, .. } => {
                // the product commutes; the addend does not
                let (a, b) = sorted(self.svn(a), self.svn(b));
                [op_word(S_FMA, *kind as usize)?, a, b, self.svn(c)]
            }
            Instr::SSqrt { a, .. } => [S_SQRT, self.svn(a), 0, 0],
            Instr::SLoad { src, .. } => {
                let off = src.offset.as_constant()?;
                let b = src.buf.0;
                [op_word(S_LOAD, b)?, off as u32, (off >> 32) as u32, self.last_store(b)]
            }
            _ => return None,
        })
    }

    /// The key of a keyable vector definition.
    fn vector_key(&mut self, ins: &Instr) -> Option<VKey> {
        Some(match ins {
            Instr::VBin { op, a, b, .. } => {
                let (a, b) = (self.vvn(*a), self.vvn(*b));
                let (a, b) = match op {
                    BinOp::Add | BinOp::Mul => sorted(a, b),
                    _ => (a, b),
                };
                [op_word(V_BIN, *op as usize)?, a, b, 0, 0]
            }
            Instr::VFma { kind, a, b, c, .. } => {
                let (a, b) = sorted(self.vvn(*a), self.vvn(*b));
                [op_word(V_FMA, *kind as usize)?, a, b, self.vvn(*c), 0]
            }
            Instr::VBroadcast { src, .. } => [V_BROADCAST, self.svn(src), 0, 0, 0],
            Instr::VShuffle { a, b, sel, .. } => {
                [V_SHUFFLE, self.vvn(*a), self.vvn(*b), intern(&mut self.sels, sel), 0]
            }
            Instr::VBlend { a, b, mask, .. } if mask.len() < 28 => {
                // one bit per lane, under a leading 1 that fixes the length
                let bits = mask.iter().rev().fold(1, |m, &on| m << 1 | usize::from(on));
                [op_word(V_BLEND, bits)?, self.vvn(*a), self.vvn(*b), 0, 0]
            }
            Instr::VPack { elems, .. } if elems.len() <= 4 => {
                // a `None` lane keys as 0, which is no value number
                let mut key = [op_word(V_PACK, elems.len())?, 0, 0, 0, 0];
                for (k, e) in key[1..].iter_mut().zip(elems) {
                    if let Some(o) = e {
                        *k = self.svn(o);
                    }
                }
                key
            }
            Instr::VLoad { base, lanes, .. } => {
                let off = base.offset.as_constant()?;
                let b = base.buf.0;
                let lanes = intern(&mut self.lanes, lanes);
                [op_word(V_LOAD, b)?, off as u32, (off >> 32) as u32, lanes, self.last_store(b)]
            }
            _ => return None,
        })
    }
}

/// Process one instruction, replacing a repeat with a move in place.
/// Returns `true` when the instruction was rewritten.
fn process(st: &mut Cse, ins: &mut Instr) -> bool {
    if let Some(dst) = ins.sreg_write() {
        st.keyed += 1;
        let key = st.scalar_key(ins);
        let held = key.and_then(|k| st.avail_s.get(&k).copied());
        let reuse = held.filter(|&(r, s)| r as usize != dst.0 && Cse::stamp(&st.sregs, r) == s);
        if let Some((r, _)) = reuse {
            *ins = Instr::SMov { dst, a: SReg(r as usize).into() };
        }
        // a move's destination takes its source's number, read before
        // the write (the source may be the destination)
        let moved = match &*ins {
            Instr::SMov { a, .. } => Some(st.svn(a)),
            _ => None,
        };
        let stamp = st.fresh();
        let slot = Slot { stamp, vn: moved.unwrap_or(stamp) };
        super::grow_update(&mut st.sregs, dst.0, |s| *s = slot);
        if let Some(k) = key {
            st.avail_s.insert(k, (reg_id(dst.0), stamp));
        }
        reuse.is_some()
    } else if let Some(dst) = ins.vreg_write() {
        st.keyed += 1;
        let key = st.vector_key(ins);
        let held = key.and_then(|k| st.avail_v.get(&k).copied());
        let reuse = held.filter(|&(r, s)| r as usize != dst.0 && Cse::stamp(&st.vregs, r) == s);
        if let Some((r, _)) = reuse {
            *ins = Instr::VMov { dst, src: VReg(r as usize) };
        }
        let moved = match &*ins {
            Instr::VMov { src, .. } => Some(st.vvn(*src)),
            _ => None,
        };
        let stamp = st.fresh();
        let slot = Slot { stamp, vn: moved.unwrap_or(stamp) };
        super::grow_update(&mut st.vregs, dst.0, |s| *s = slot);
        if let Some(k) = key {
            st.avail_v.insert(k, (reg_id(dst.0), stamp));
        }
        reuse.is_some()
    } else {
        let stored = match &*ins {
            Instr::SStore { dst, .. } => dst.buf.0,
            Instr::VStore { base, .. } => base.buf.0,
            _ => return false,
        };
        let stamp = st.fresh();
        super::grow_update(&mut st.stores, stored, |s| *s = stamp);
        false
    }
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

/// The key-based CSE this pass replaced, kept as an oracle: on every
/// body it must make the same rewrites, report the same change flag and
/// key the same number of definitions as [`cse_counted`]. Keys are heap
/// values built from `(register, version)` pairs, immediates by bits.
#[cfg(test)]
mod oracle {
    use crate::func::{CStmt, Function};
    use crate::fxhash::FxHashMap;
    use crate::instr::{BinOp, FmaKind, Instr, LaneSel, SOperand, SReg, VReg};

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

    /// A register's version in the current generation and, when a move
    /// wrote it, the key of the moved value.
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
        fn read(slots: &[Self], i: usize, gen: u32) -> (u32, Option<K>) {
            match slots.get(i) {
                Some(s) if s.gen == gen => (s.ver, s.alias),
                _ => (0, None),
            }
        }

        fn define(slots: &mut Vec<Self>, i: usize, gen: u32, alias: Option<K>) {
            super::super::grow_update(slots, i, |s| {
                let ver = if s.gen == gen { s.ver + 1 } else { 1 };
                *s = Slot { gen, ver, alias };
            });
        }
    }

    #[derive(Default)]
    struct Cse {
        gen: u32,
        sregs: Vec<Slot<SKey>>,
        vregs: Vec<Slot<VKey>>,
        epochs: Vec<(u32, u64)>,
        avail_s: FxHashMap<Key, (SReg, u32)>,
        avail_v: FxHashMap<Key, (VReg, u32)>,
        keyed: usize,
    }

    impl Cse {
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
            super::super::grow_update(&mut self.epochs, b, |s| {
                *s = if s.0 == gen { (gen, s.1 + 1) } else { (gen, 1) }
            });
        }
        fn skey(&self, o: &SOperand) -> SKey {
            match o {
                SOperand::Reg(r) => {
                    let (ver, alias) = Slot::read(&self.sregs, r.0, self.gen);
                    alias.unwrap_or(SKey::Reg(*r, ver))
                }
                SOperand::Imm(v) => SKey::Imm(v.to_bits()),
            }
        }
        fn vkey(&self, r: VReg) -> VKey {
            let (ver, alias) = Slot::read(&self.vregs, r.0, self.gen);
            alias.unwrap_or((r, ver))
        }
    }

    fn instr_key(st: &Cse, ins: &Instr) -> Option<Key> {
        let ordered = |op: &BinOp, a, b| match op {
            BinOp::Add | BinOp::Mul if b < a => (b, a),
            _ => (a, b),
        };
        match ins {
            Instr::SBin { op, a, b, .. } => {
                let (ka, kb) = ordered(op, st.skey(a), st.skey(b));
                Some(Key::SBin(*op, ka, kb))
            }
            Instr::SFma { kind, a, b, c, .. } => {
                let (ka, kb) = ordered(&BinOp::Mul, st.skey(a), st.skey(b));
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

    fn process(st: &mut Cse, ins: &mut Instr) -> bool {
        let key = instr_key(st, ins);
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
        match &*ins {
            Instr::SStore { dst, .. } => st.bump_epoch(dst.buf.0),
            Instr::VStore { base, .. } => st.bump_epoch(base.buf.0),
            _ => {}
        }
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

    /// The oracle's [`super::cse_counted`].
    pub(super) fn cse_counted(f: &mut Function) -> (bool, usize) {
        let mut st = Cse::default();
        let changed = walk(&mut f.body, &mut st);
        (changed, st.keyed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::{Affine, CmpOp, Cond, LoopVar};
    use crate::func::{BufId, BufKind, FunctionBuilder};
    use crate::instr::{BinOp, FmaKind, MemRef};
    use proptest::prelude::*;

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

    /// `0.0` and `-0.0` compare equal as `f64` but are different bit
    /// patterns (`x * -0.0` flips the sign of a zero product): neither as
    /// a scalar operand nor through a broadcast may they share a key.
    #[test]
    fn signed_zeros_never_share_a_key() {
        let mut b = FunctionBuilder::new("f", 4);
        let x = b.buffer("x", 1, BufKind::ParamIn);
        let t = b.buffer("t", 2, BufKind::ParamOut);
        let v = b.buffer("v", 8, BufKind::ParamOut);
        let a = b.sload(MemRef::new(x, 0));
        let p = b.sbin(BinOp::Mul, a, 0.0);
        let n = b.sbin(BinOp::Mul, a, -0.0);
        b.sstore(p, MemRef::new(t, 0));
        b.sstore(n, MemRef::new(t, 1));
        let bp = b.vbroadcast(0.0);
        let bn = b.vbroadcast(-0.0);
        b.vstore_contig(bp, MemRef::new(v, 0));
        b.vstore_contig(bn, MemRef::new(v, 4));
        let mut f = b.finish();
        assert!(!cse(&mut f), "nothing is redundant");
        assert_eq!(count(&f, |i| matches!(i, Instr::SBin { op: BinOp::Mul, .. })), 2);
        assert_eq!(count(&f, |i| matches!(i, Instr::VBroadcast { .. })), 2);
    }

    /// The same holds when the zeros reach the broadcast through moves.
    #[test]
    fn signed_zeros_stay_apart_through_moves() {
        let mut b = FunctionBuilder::new("f", 2);
        let v = b.buffer("v", 4, BufKind::ParamOut);
        let zp = b.smov(0.0);
        let zn = b.smov(-0.0);
        let bp = b.vbroadcast(zp);
        let bn = b.vbroadcast(zn);
        let again = b.vbroadcast(0.0);
        b.vstore_contig(bp, MemRef::new(v, 0));
        b.vstore_contig(bn, MemRef::new(v, 2));
        b.vstore_contig(again, MemRef::new(v, 0));
        let mut f = b.finish();
        assert!(cse(&mut f), "the third broadcast repeats the first");
        assert_eq!(count(&f, |i| matches!(i, Instr::VBroadcast { .. })), 2);
        assert_eq!(count(&f, |i| matches!(i, Instr::VMov { .. })), 1);
    }

    /// Immediates the random bodies draw from: both zeros, and values a
    /// commutative operation may see on either side of a register.
    const IMMS: [f64; 6] = [0.0, -0.0, 1.0, -1.0, 2.0, 0.5];

    /// Draws from one random word, a few bits at a time.
    struct Bits(u64);

    impl Bits {
        fn pick(&mut self, n: usize) -> usize {
            let x = (self.0 % n as u64) as usize;
            self.0 /= n as u64;
            x
        }
    }

    /// A random C-IR body at width `nu`, one statement per word, over
    /// small register and buffer pools so that values repeat, registers
    /// are redefined (moves included) and stores fall between loads; about
    /// one statement in seven repeats one of the last eight into a new
    /// destination.
    /// Loops and conditionals nest up to two deep, and loads inside a
    /// loop may sit at offsets symbolic in its induction variable.
    fn random_body(nu: usize, words: &[u64]) -> Function {
        let mut b = FunctionBuilder::new("f", nu);
        let bufs = [b.buffer("x", 64, BufKind::ParamInOut), b.buffer("y", 64, BufKind::ParamInOut)];
        let s: Vec<SReg> = (0..6).map(|_| b.fresh_sreg()).collect();
        let v: Vec<VReg> = (0..4).map(|_| b.fresh_vreg()).collect();
        // open regions: the loop variable of a `for`, or `None` for an
        // `if`, with whether its `else` branch has started
        let mut open: Vec<(Option<LoopVar>, bool)> = Vec::new();
        let mut recent: Vec<Instr> = Vec::new();
        for &w in words {
            let mut r = Bits(w);
            let sop = |r: &mut Bits| -> SOperand {
                if r.pick(3) == 0 {
                    IMMS[r.pick(IMMS.len())].into()
                } else {
                    s[r.pick(s.len())].into()
                }
            };
            let loop_var = open.iter().rev().find_map(|(var, _)| *var);
            let mem = |r: &mut Bits| -> MemRef {
                let buf: BufId = bufs[r.pick(2)];
                match loop_var {
                    Some(i) if r.pick(3) == 0 => {
                        MemRef::new(buf, Affine::var(i).offset(r.pick(8) as i64))
                    }
                    _ => MemRef::new(buf, r.pick(8) as i64),
                }
            };
            let lanes = |r: &mut Bits| -> Vec<Option<i64>> {
                if r.pick(2) == 0 {
                    (0..nu as i64).map(Some).collect()
                } else {
                    (0..nu).map(|_| (r.pick(3) != 0).then(|| r.pick(4) as i64)).collect()
                }
            };
            let op = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div][r.pick(4)];
            let kind = [FmaKind::MulAdd, FmaKind::MulSub, FmaKind::NegMulAdd][r.pick(3)];
            let (sd, vd) = (s[r.pick(s.len())], v[r.pick(v.len())]);
            let (va, vb, vc) = (v[r.pick(v.len())], v[r.pick(v.len())], v[r.pick(v.len())]);
            let ins = match r.pick(30) {
                0 | 1 => Instr::SLoad { dst: sd, src: mem(&mut r) },
                2 => Instr::SStore { src: sop(&mut r), dst: mem(&mut r) },
                3..=5 => Instr::SBin { op, dst: sd, a: sop(&mut r), b: sop(&mut r) },
                6 => Instr::SFma { kind, dst: sd, a: sop(&mut r), b: sop(&mut r), c: sop(&mut r) },
                7 => Instr::SSqrt { dst: sd, a: sop(&mut r) },
                8 | 9 => Instr::SMov { dst: sd, a: sop(&mut r) },
                10 => Instr::VLoad { dst: vd, base: mem(&mut r), lanes: lanes(&mut r) },
                11 => Instr::VStore { src: va, base: mem(&mut r), lanes: lanes(&mut r) },
                12 | 13 => Instr::VBin { op, dst: vd, a: va, b: vb },
                14 => Instr::VFma { kind, dst: vd, a: va, b: vb, c: vc },
                15 => Instr::VBroadcast { dst: vd, src: sop(&mut r) },
                16 => {
                    let sel = (0..nu)
                        .map(|_| match r.pick(3) {
                            0 => LaneSel::A(r.pick(nu)),
                            1 => LaneSel::B(r.pick(nu)),
                            _ => LaneSel::Zero,
                        })
                        .collect();
                    Instr::VShuffle { dst: vd, a: va, b: vb, sel }
                }
                17 => {
                    let mask = (0..nu).map(|_| r.pick(2) == 1).collect();
                    Instr::VBlend { dst: vd, a: va, b: vb, mask }
                }
                18 | 19 => {
                    let elems = (0..nu).map(|_| (r.pick(4) != 0).then(|| sop(&mut r))).collect();
                    Instr::VPack { dst: vd, elems }
                }
                20 => Instr::VMov { dst: vd, src: va },
                // repeat a recent statement into a new destination
                26..=29 if !recent.is_empty() => {
                    let mut again: Instr = recent[recent.len() - 1 - r.pick(recent.len())].clone();
                    match &mut again {
                        Instr::SLoad { dst, .. }
                        | Instr::SBin { dst, .. }
                        | Instr::SFma { dst, .. }
                        | Instr::SSqrt { dst, .. }
                        | Instr::SMov { dst, .. } => *dst = sd,
                        Instr::VLoad { dst, .. }
                        | Instr::VBin { dst, .. }
                        | Instr::VFma { dst, .. }
                        | Instr::VBroadcast { dst, .. }
                        | Instr::VShuffle { dst, .. }
                        | Instr::VBlend { dst, .. }
                        | Instr::VPack { dst, .. }
                        | Instr::VMov { dst, .. } => *dst = vd,
                        _ => {}
                    }
                    again
                }
                21 => Instr::VExtract { dst: sd, src: va, lane: r.pick(nu) },
                22 => Instr::VReduceAdd { dst: sd, src: va },
                23 if open.len() < 2 => {
                    open.push((Some(b.begin_for(0, 4, 1)), false));
                    continue;
                }
                24 if open.len() < 2 => {
                    let lhs = loop_var.map_or(Affine::constant(1), Affine::var);
                    b.begin_if(Cond::new(lhs, CmpOp::Lt, r.pick(4) as i64));
                    open.push((None, false));
                    continue;
                }
                _ => {
                    match open.pop() {
                        Some((Some(_), _)) => b.end_for(),
                        Some((None, false)) if r.pick(2) == 0 => {
                            b.begin_else();
                            open.push((None, true));
                        }
                        Some((None, _)) => b.end_if(),
                        None => {}
                    }
                    continue;
                }
            };
            if recent.len() == 8 {
                recent.remove(0);
            }
            recent.push(ins.clone());
            b.instr(ins);
        }
        while let Some((var, _)) = open.pop() {
            if var.is_some() {
                b.end_for();
            } else {
                b.end_if();
            }
        }
        b.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// On random bodies (straight-line runs and `for`/`if` regions,
        /// signed zeros and other immediates in commutative reg/imm
        /// mixes, packs with `None` lanes, blends of 1, 2 and 4 lanes,
        /// loads at constant and symbolic offsets with stores between
        /// them, moves whose source is later redefined), value-numbered
        /// CSE makes exactly the key oracle's rewrites, reports the same
        /// change and keys as many definitions.
        #[test]
        fn value_numbers_match_the_key_oracle(
            width in 0usize..3,
            words in prop::collection::vec(any::<u64>(), 1..96),
        ) {
            let f = random_body([1, 2, 4][width], &words);
            let (mut got, mut want) = (f.clone(), f);
            let got_counts = cse_counted(&mut got);
            let want_counts = oracle::cse_counted(&mut want);
            prop_assert_eq!(got_counts, want_counts);
            // `Debug` spells `-0.0`, which `==` on `f64` would not tell
            // from `0.0`
            prop_assert_eq!(format!("{:?}", got.body), format!("{:?}", want.body));
        }
    }
}
