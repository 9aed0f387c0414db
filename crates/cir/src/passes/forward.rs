//! Scalar replacement and the domain-specific load/store analysis.
//!
//! This pass implements the paper's §3.3 optimization (Figs. 11–12): within
//! straight-line regions it tracks, per memory cell, which register lane
//! currently holds the cell's value. Loads whose bytes were all produced by
//! earlier stores are then replaced by register operations:
//!
//! * a scalar load becomes a scalar move ([`crate::Instr::SMov`]) or a lane
//!   extract;
//! * a vector load whose lanes live in one or two vector registers becomes
//!   a [`crate::Instr::VBlend`] (when lanes align) or a
//!   [`crate::Instr::VShuffle`] — the `smul9a`/`smul9b` example of Fig. 12.
//!   When every lane `i` is lane `i` of one register the load is a plain
//!   copy and becomes a [`crate::Instr::VMov`], which copyprop and DCE
//!   erase: an identity shuffle would survive into the C as a no-op
//!   blend and be charged as a shuffle by the model;
//! * a vector load whose lanes are scalar registers (at least one) or
//!   immediates becomes a [`crate::Instr::VPack`]. Reloading such cells
//!   through memory stalls: several narrow stores cannot forward into one
//!   wide load, so the load waits until every store has committed;
//! * a vector load that mixes scalar and vector sources is left alone.
//!
//! The stores themselves often become dead afterwards and are removed by
//! [`super::dce`] when the buffer is a local temporary, or kept when the
//! buffer is live-out (the paper keeps the `maskstore`s for the same
//! reason).
//!
//! Soundness relies on the C-IR invariant that distinct buffers never
//! alias. Conservative resets happen at control-flow boundaries.
//!
//! Throughput notes: both `forward` and `copyprop` stream over the body
//! mutating instructions in place (no rebuilt vectors, no per-instruction
//! clones); register versions live in dense tables indexed by register id,
//! and copy facts are validated by version instead of being invalidated by
//! reverse scans.

use crate::func::{CStmt, Function};
use crate::fxhash::FxHashMap;
use crate::instr::{Instr, LaneSel, SOperand, SReg, VReg};

/// Who holds the current value of a memory cell.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CellSrc {
    S(SReg, u32),
    VLane(VReg, u32, usize),
    Imm(f64),
}

/// Pass state: dense register-version tables plus the cell map.
struct State {
    svers: Vec<u32>,
    vvers: Vec<u32>,
    cells: FxHashMap<(usize, i64), CellSrc>,
}

impl State {
    fn for_function(f: &Function) -> Self {
        State { svers: vec![0; f.n_sregs], vvers: vec![0; f.n_vregs], cells: FxHashMap::default() }
    }
    fn sver(&self, r: SReg) -> u32 {
        self.svers.get(r.0).copied().unwrap_or(0)
    }
    fn vver(&self, r: VReg) -> u32 {
        self.vvers.get(r.0).copied().unwrap_or(0)
    }
    fn bump_s(&mut self, r: SReg) {
        super::grow_update(&mut self.svers, r.0, |v| *v += 1);
    }
    fn bump_v(&mut self, r: VReg) {
        super::grow_update(&mut self.vvers, r.0, |v| *v += 1);
    }
    fn valid(&self, c: &CellSrc) -> bool {
        match c {
            CellSrc::S(r, v) => self.sver(*r) == *v,
            CellSrc::VLane(r, v, _) => self.vver(*r) == *v,
            CellSrc::Imm(_) => true,
        }
    }
    fn invalidate_buffer(&mut self, buf: usize) {
        self.cells.retain(|(b, _), _| *b != buf);
    }
    fn clear_cells(&mut self) {
        self.cells.clear();
    }
}

/// Try to rewrite a vector load from tracked cells into register
/// operations: a pack of scalars, or a shuffle/blend of at most two
/// vector registers.
///
/// Returns the replacement instruction, or `None` to keep the load.
fn rewrite_vload(dst: VReg, sources: &[Option<CellSrc>]) -> Option<Instr> {
    if let Some(elems) = pack_elems(sources) {
        return Some(Instr::VPack { dst, elems });
    }
    // Otherwise all active lanes must be vector lanes of at most two
    // registers.
    let mut regs: [Option<VReg>; 2] = [None, None];
    for s in sources.iter().flatten() {
        match s {
            CellSrc::VLane(r, _, _) => {
                if regs[0] == Some(*r) || regs[1] == Some(*r) {
                    continue;
                }
                if regs[0].is_none() {
                    regs[0] = Some(*r);
                } else if regs[1].is_none() {
                    regs[1] = Some(*r);
                } else {
                    return None; // more than two source registers
                }
            }
            _ => return None,
        }
    }
    let a = regs[0]?;
    let b = regs[1].unwrap_or(a);
    let sel: Vec<LaneSel> = sources
        .iter()
        .map(|s| match s {
            None => LaneSel::Zero,
            Some(CellSrc::VLane(r, _, lane)) => {
                if *r == a {
                    LaneSel::A(*lane)
                } else {
                    LaneSel::B(*lane)
                }
            }
            Some(_) => unreachable!("filtered above"),
        })
        .collect();
    // Blend pattern: every lane i selects lane i of a source and no zeros
    // are required (a zero lane keeps the shuffle: the load zeroes it).
    let is_blend = sel.iter().enumerate().all(|(i, s)| match s {
        LaneSel::A(j) | LaneSel::B(j) => *j == i,
        LaneSel::Zero => false,
    });
    if is_blend {
        return Some(match regs[1] {
            Some(_) => {
                let mask = sel.iter().map(|s| matches!(s, LaneSel::B(_))).collect();
                Instr::VBlend { dst, a, b, mask }
            }
            // every lane i is lane i of one register: a plain copy, which
            // copyprop and DCE then erase
            None => Instr::VMov { dst, src: a },
        });
    }
    Some(Instr::VShuffle { dst, a, b, sel })
}

/// The lanes of a [`Instr::VPack`] for a load whose active lanes are all
/// scalar registers or immediates: at least two active lanes, at least
/// one of them a register.
fn pack_elems(sources: &[Option<CellSrc>]) -> Option<Vec<Option<SOperand>>> {
    let elems: Vec<Option<SOperand>> = sources
        .iter()
        .map(|s| match s {
            None => Some(None),
            Some(CellSrc::S(r, _)) => Some(Some(SOperand::Reg(*r))),
            Some(CellSrc::Imm(v)) => Some(Some(SOperand::Imm(*v))),
            Some(CellSrc::VLane(..)) => None,
        })
        .collect::<Option<_>>()?;
    let active = elems.iter().flatten().count();
    let regs = elems.iter().flatten().any(|o| matches!(o, SOperand::Reg(_)));
    (active >= 2 && regs).then_some(elems)
}

/// Outcome of processing one instruction in place.
enum Outcome {
    Keep,
    Rewritten,
    Drop,
}

fn process(st: &mut State, ins: &mut Instr, ls_analysis: bool, scalar_repl: bool) -> Outcome {
    match ins {
        Instr::SStore { src, dst } => {
            if let Some(off) = dst.offset.as_constant() {
                let cell = match src {
                    SOperand::Reg(r) => CellSrc::S(*r, st.sver(*r)),
                    SOperand::Imm(v) => CellSrc::Imm(*v),
                };
                st.cells.insert((dst.buf.0, off), cell);
            } else {
                st.invalidate_buffer(dst.buf.0);
            }
            Outcome::Keep
        }
        Instr::VStore { src, base, lanes } => {
            if let Some(boff) = base.offset.as_constant() {
                let ver = st.vver(*src);
                for (lane, l) in lanes.iter().enumerate() {
                    if let Some(off) = l {
                        st.cells.insert((base.buf.0, boff + off), CellSrc::VLane(*src, ver, lane));
                    }
                }
            } else {
                st.invalidate_buffer(base.buf.0);
            }
            Outcome::Keep
        }
        Instr::SLoad { dst, src } => {
            let dst = *dst;
            let tracked = src.offset.as_constant().map(|off| (src.buf.0, off));
            let mut outcome = Outcome::Keep;
            if scalar_repl {
                if let Some(cellkey) = tracked {
                    if let Some(cell) = st.cells.get(&cellkey).copied() {
                        if st.valid(&cell) {
                            match cell {
                                CellSrc::S(r, _) if r != dst => {
                                    *ins = Instr::SMov { dst, a: r.into() };
                                    outcome = Outcome::Rewritten;
                                }
                                CellSrc::S(_, _) => {
                                    // load into the same register: drop
                                    outcome = Outcome::Drop;
                                }
                                CellSrc::Imm(v) => {
                                    *ins = Instr::SMov { dst, a: v.into() };
                                    outcome = Outcome::Rewritten;
                                }
                                CellSrc::VLane(r, _, lane) if ls_analysis => {
                                    *ins = Instr::VExtract { dst, src: r, lane };
                                    outcome = Outcome::Rewritten;
                                }
                                CellSrc::VLane(..) => {}
                            }
                        }
                    }
                }
            }
            st.bump_s(dst);
            // the register now also holds the cell's value
            if let Some(cellkey) = tracked {
                st.cells.insert(cellkey, CellSrc::S(dst, st.sver(dst)));
            }
            outcome
        }
        Instr::VLoad { dst, base, lanes } => {
            let dst = *dst;
            let boff = base.offset.as_constant();
            let mut replacement = None;
            if ls_analysis {
                if let Some(boff) = boff {
                    let sources: Vec<Option<CellSrc>> = lanes
                        .iter()
                        .map(|l| l.and_then(|off| st.cells.get(&(base.buf.0, boff + off)).copied()))
                        .collect();
                    let all_known = lanes
                        .iter()
                        .zip(&sources)
                        .all(|(l, s)| l.is_none() || s.is_some_and(|c| st.valid(&c)));
                    if all_known {
                        replacement = rewrite_vload(dst, &sources);
                    }
                }
            }
            st.bump_v(dst);
            // register lanes now mirror the loaded cells
            if let Some(boff) = boff {
                let ver = st.vver(dst);
                for (lane, l) in lanes.iter().enumerate() {
                    if let Some(off) = l {
                        st.cells.insert((base.buf.0, boff + off), CellSrc::VLane(dst, ver, lane));
                    }
                }
            }
            match replacement {
                Some(rep) => {
                    *ins = rep;
                    Outcome::Rewritten
                }
                None => Outcome::Keep,
            }
        }
        other => {
            if let Some(r) = other.sreg_write() {
                st.bump_s(r);
            }
            if let Some(r) = other.vreg_write() {
                st.bump_v(r);
            }
            Outcome::Keep
        }
    }
}

fn walk(stmts: &mut Vec<CStmt>, st: &mut State, ls: bool, sr: bool) -> bool {
    let mut changed = false;
    let mut w = 0;
    for r in 0..stmts.len() {
        let keep = match &mut stmts[r] {
            CStmt::I(ins) => match process(st, ins, ls, sr) {
                Outcome::Keep => true,
                Outcome::Rewritten => {
                    changed = true;
                    true
                }
                Outcome::Drop => {
                    changed = true;
                    false
                }
            },
            CStmt::For { body, .. } => {
                st.clear_cells();
                changed |= walk(body, st, ls, sr);
                st.clear_cells();
                true
            }
            CStmt::If { then_, else_, .. } => {
                st.clear_cells();
                changed |= walk(then_, st, ls, sr);
                st.clear_cells();
                changed |= walk(else_, st, ls, sr);
                st.clear_cells();
                true
            }
        };
        if keep {
            if w != r {
                stmts.swap(w, r);
            }
            w += 1;
        }
    }
    stmts.truncate(w);
    changed
}

/// Run scalar replacement (`scalar_repl`) and/or the load/store analysis
/// (`ls_analysis`) over `f`; returns whether anything changed.
pub fn forward(f: &mut Function, ls_analysis: bool, scalar_repl: bool) -> bool {
    let mut st = State::for_function(f);
    let mut body = std::mem::take(&mut f.body);
    let changed = walk(&mut body, &mut st, ls_analysis, scalar_repl);
    f.body = body;
    changed
}

// ---------------------------------------------------------------------
// Copy propagation
// ---------------------------------------------------------------------

/// Copy facts validated by source-register version: `copies[d] = (op, v)`
/// means `d` currently equals `op`, recorded when `op`'s register had
/// version `v`. A mismatching current version invalidates the fact lazily,
/// so redefinitions never require reverse scans.
///
/// Table slots carry a generation tag; slots from an older generation
/// read as the default, so [`CopyState::reset`] at control-flow
/// boundaries is O(1) regardless of register count.
struct CopyState {
    gen: u32,
    svers: Vec<(u32, u32)>,
    vvers: Vec<(u32, u32)>,
    scopies: Vec<(u32, Option<(SOperand, u32)>)>,
    vcopies: Vec<(u32, Option<(VReg, u32)>)>,
}

impl CopyState {
    fn for_function(f: &Function) -> Self {
        CopyState {
            gen: 0,
            svers: vec![(0, 0); f.n_sregs],
            vvers: vec![(0, 0); f.n_vregs],
            scopies: vec![(0, None); f.n_sregs],
            vcopies: vec![(0, None); f.n_vregs],
        }
    }
    fn reset(&mut self) {
        self.gen += 1;
    }
    fn sver(&self, r: SReg) -> u32 {
        match self.svers.get(r.0) {
            Some((g, v)) if *g == self.gen => *v,
            _ => 0,
        }
    }
    fn vver(&self, r: VReg) -> u32 {
        match self.vvers.get(r.0) {
            Some((g, v)) if *g == self.gen => *v,
            _ => 0,
        }
    }
    fn scopy(&self, r: SReg) -> Option<(SOperand, u32)> {
        match self.scopies.get(r.0) {
            Some((g, c)) if *g == self.gen => *c,
            _ => None,
        }
    }
    fn vcopy(&self, r: VReg) -> Option<(VReg, u32)> {
        match self.vcopies.get(r.0) {
            Some((g, c)) if *g == self.gen => *c,
            _ => None,
        }
    }
    fn write_s(&mut self, r: SReg) {
        let gen = self.gen;
        super::grow_update(&mut self.svers, r.0, |s| {
            *s = if s.0 == gen { (gen, s.1 + 1) } else { (gen, 1) }
        });
        super::grow_update(&mut self.scopies, r.0, |c| *c = (gen, None));
    }
    fn write_v(&mut self, r: VReg) {
        let gen = self.gen;
        super::grow_update(&mut self.vvers, r.0, |s| {
            *s = if s.0 == gen { (gen, s.1 + 1) } else { (gen, 1) }
        });
        super::grow_update(&mut self.vcopies, r.0, |c| *c = (gen, None));
    }
    /// Substitute a scalar operand; returns `true` on change.
    fn subst_sop(&self, o: &mut SOperand) -> bool {
        if let SOperand::Reg(r) = *o {
            if let Some((src, v)) = self.scopy(r) {
                let live = match src {
                    SOperand::Reg(s) => self.sver(s) == v,
                    SOperand::Imm(_) => true,
                };
                if live && src != *o {
                    *o = src;
                    return true;
                }
            }
        }
        false
    }
    /// Substitute a vector register read; returns `true` on change.
    fn subst_v(&self, r: &mut VReg) -> bool {
        if let Some((src, v)) = self.vcopy(*r) {
            if self.vver(src) == v && src != *r {
                *r = src;
                return true;
            }
        }
        false
    }
    fn record_s(&mut self, dst: SReg, a: SOperand) {
        if matches!(a, SOperand::Reg(r) if r == dst) {
            return;
        }
        let ver = match a {
            SOperand::Reg(r) => self.sver(r),
            SOperand::Imm(_) => 0,
        };
        let gen = self.gen;
        super::grow_update(&mut self.scopies, dst.0, |c| *c = (gen, Some((a, ver))));
    }
    fn record_v(&mut self, dst: VReg, src: VReg) {
        if dst != src {
            let ver = self.vver(src);
            let gen = self.gen;
            super::grow_update(&mut self.vcopies, dst.0, |c| *c = (gen, Some((src, ver))));
        }
    }
}

fn copyprop_instr(st: &mut CopyState, ins: &mut Instr) -> bool {
    let mut changed = false;
    match ins {
        Instr::SMov { a, .. } | Instr::SSqrt { a, .. } => changed |= st.subst_sop(a),
        Instr::SBin { a, b, .. } => {
            changed |= st.subst_sop(a);
            changed |= st.subst_sop(b);
        }
        Instr::SFma { a, b, c, .. } => {
            changed |= st.subst_sop(a);
            changed |= st.subst_sop(b);
            changed |= st.subst_sop(c);
        }
        Instr::SStore { src, .. } => changed |= st.subst_sop(src),
        Instr::VBroadcast { src, .. } => changed |= st.subst_sop(src),
        Instr::VPack { elems, .. } => {
            for o in elems.iter_mut().flatten() {
                changed |= st.subst_sop(o);
            }
        }
        Instr::VMov { src, .. } | Instr::VStore { src, .. } => changed |= st.subst_v(src),
        Instr::VBin { a, b, .. } | Instr::VShuffle { a, b, .. } | Instr::VBlend { a, b, .. } => {
            changed |= st.subst_v(a);
            changed |= st.subst_v(b);
        }
        Instr::VFma { a, b, c, .. } => {
            changed |= st.subst_v(a);
            changed |= st.subst_v(b);
            changed |= st.subst_v(c);
        }
        Instr::VExtract { src, .. } | Instr::VReduceAdd { src, .. } => {
            changed |= st.subst_v(src);
        }
        Instr::SLoad { .. } | Instr::VLoad { .. } => {}
    }
    // Redefinitions invalidate (lazily, via versions), then new copy facts
    // are recorded from the rewritten instruction.
    if let Some(w) = ins.sreg_write() {
        st.write_s(w);
    }
    if let Some(w) = ins.vreg_write() {
        st.write_v(w);
    }
    if let Instr::SMov { dst, a } = ins {
        st.record_s(*dst, *a);
    }
    if let Instr::VMov { dst, src } = ins {
        st.record_v(*dst, *src);
    }
    changed
}

fn copyprop_walk(stmts: &mut [CStmt], st: &mut CopyState) -> bool {
    let mut changed = false;
    for s in stmts {
        match s {
            CStmt::I(ins) => changed |= copyprop_instr(st, ins),
            CStmt::For { body, .. } => {
                st.reset();
                changed |= copyprop_walk(body, st);
                st.reset();
            }
            CStmt::If { then_, else_, .. } => {
                st.reset();
                changed |= copyprop_walk(then_, st);
                st.reset();
                changed |= copyprop_walk(else_, st);
                st.reset();
            }
        }
    }
    changed
}

/// Propagate scalar and vector copies within straight-line regions;
/// returns whether anything changed.
pub fn copyprop(f: &mut Function) -> bool {
    let mut st = CopyState::for_function(f);
    copyprop_walk(&mut f.body, &mut st)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{BufKind, FunctionBuilder};
    use crate::instr::{BinOp, MemRef};

    #[test]
    fn scalar_store_load_forwards_to_mov() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 4, BufKind::Local);
        let r = b.smov(7.0);
        b.sstore(r, MemRef::new(t, 2));
        let l = b.sload(MemRef::new(t, 2));
        let _ = b.sbin(BinOp::Add, l, 1.0);
        let mut f = b.finish();
        assert!(forward(&mut f, true, true));
        let mut loads = 0;
        let mut movs = 0;
        f.for_each_instr(&mut |i| match i {
            Instr::SLoad { .. } => loads += 1,
            Instr::SMov { .. } => movs += 1,
            _ => {}
        });
        assert_eq!(loads, 0);
        assert!(movs >= 2); // original + forwarded
    }

    #[test]
    fn vector_round_trip_becomes_blend() {
        // Mirror of paper Fig. 12: two masked stores, then a load gathering
        // lanes from both stored registers at matching lane positions.
        let mut b = FunctionBuilder::new("f", 4);
        let s = b.buffer("S", 16, BufKind::ParamInOut);
        let va = b.vbroadcast(1.0);
        let vb = b.vbroadcast(2.0);
        b.vstore(va, MemRef::new(s, 0), vec![Some(0), Some(1), None, None]);
        b.vstore(vb, MemRef::new(s, 0), vec![None, None, Some(2), Some(3)]);
        let _v = b.vload_contig(MemRef::new(s, 0));
        let mut f = b.finish();
        forward(&mut f, true, true);
        let mut blends = 0;
        let mut loads = 0;
        f.for_each_instr(&mut |i| match i {
            Instr::VBlend { .. } => blends += 1,
            Instr::VLoad { .. } => loads += 1,
            _ => {}
        });
        assert_eq!(blends, 1, "{}", crate::pretty::function_to_string(&f));
        assert_eq!(loads, 0);
    }

    #[test]
    fn aligned_reload_of_one_register_becomes_a_copy() {
        // a full reload of one stored register is a copy; a partial one
        // must still zero its inactive lanes, so it stays a shuffle
        for (lanes, movs, shuffles) in [
            (vec![Some(0), Some(1), Some(2), Some(3)], 1, 0),
            (vec![Some(0), Some(1), None, None], 0, 1),
        ] {
            let mut b = FunctionBuilder::new("f", 4);
            let s = b.buffer("S", 4, BufKind::ParamInOut);
            let va = b.vbroadcast(1.0);
            b.vstore_contig(va, MemRef::new(s, 0));
            let _v = b.vload(MemRef::new(s, 0), lanes);
            let mut f = b.finish();
            forward(&mut f, true, true);
            let (mut m, mut sh) = (0, 0);
            f.for_each_instr(&mut |i| match i {
                Instr::VMov { .. } => m += 1,
                Instr::VShuffle { .. } => sh += 1,
                _ => {}
            });
            assert_eq!((m, sh), (movs, shuffles), "{}", crate::pretty::function_to_string(&f));
        }
    }

    #[test]
    fn vector_gather_becomes_shuffle() {
        // Vertical (strided) reload of horizontally stored data — the exact
        // S(i:i+2, i+2) scenario of Fig. 11/12.
        let mut b = FunctionBuilder::new("f", 4);
        let s = b.buffer("S", 16, BufKind::ParamInOut);
        let va = b.vbroadcast(1.0);
        let vb = b.vbroadcast(2.0);
        // row 0: S[1..3] = va[0..2], row 1: S[6..8] = vb[0..2]
        b.vstore(va, MemRef::new(s, 1), vec![Some(0), Some(1), Some(2), None]);
        b.vstore(vb, MemRef::new(s, 6), vec![Some(0), Some(1), None, None]);
        // vertical load of S[2], S[6] (column 2 of rows 0-1)
        let _v = b.vload(MemRef::new(s, 2), vec![Some(0), Some(4), None, None]);
        let mut f = b.finish();
        forward(&mut f, true, true);
        let mut shuffles = 0;
        let mut vloads = 0;
        f.for_each_instr(&mut |i| match i {
            Instr::VShuffle { .. } => shuffles += 1,
            Instr::VLoad { .. } => vloads += 1,
            _ => {}
        });
        assert_eq!(shuffles, 1, "{}", crate::pretty::function_to_string(&f));
        assert_eq!(vloads, 0);
    }

    #[test]
    fn redefinition_invalidates_forwarding() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 2, BufKind::Local);
        let r = b.smov(7.0);
        b.sstore(r, MemRef::new(t, 0));
        // redefine r before the load: forwarding must not use the new value
        b.instr(Instr::SMov { dst: r, a: 9.0.into() });
        let _l = b.sload(MemRef::new(t, 0));
        let mut f = b.finish();
        forward(&mut f, true, true);
        let mut loads = 0;
        f.for_each_instr(&mut |i| {
            if matches!(i, Instr::SLoad { .. }) {
                loads += 1;
            }
        });
        assert_eq!(loads, 1, "stale register must not be forwarded");
    }

    #[test]
    fn control_flow_resets_state() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 2, BufKind::ParamInOut);
        let r = b.smov(7.0);
        b.sstore(r, MemRef::new(t, 0));
        let i = b.begin_for(0, 2, 1);
        let addr = MemRef::new(t, crate::affine::Affine::var(i));
        let x = b.sload(addr.clone());
        let y = b.sbin(BinOp::Add, x, 1.0);
        b.sstore(y, addr);
        b.end_for();
        let l = b.sload(MemRef::new(t, 0));
        b.sstore(l, MemRef::new(t, 1));
        let mut f = b.finish();
        forward(&mut f, true, true);
        // the load after the loop must remain a load
        let mut post_loop_loads = 0;
        for s in &f.body {
            if let CStmt::I(Instr::SLoad { .. }) = s {
                post_loop_loads += 1;
            }
        }
        assert_eq!(post_loop_loads, 1);
    }

    #[test]
    fn copyprop_chains() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 1, BufKind::ParamOut);
        let a = b.smov(3.0);
        let c = b.smov(a);
        let d = b.sbin(BinOp::Mul, c, c);
        b.sstore(d, MemRef::new(t, 0));
        let mut f = b.finish();
        assert!(copyprop(&mut f));
        // the multiply now reads the immediate origin registers
        let mut found = false;
        f.for_each_instr(&mut |i| {
            if let Instr::SBin { op: BinOp::Mul, a, b, .. } = i {
                assert_eq!(*a, SOperand::Imm(3.0));
                assert_eq!(*b, SOperand::Imm(3.0));
                found = true;
            }
        });
        assert!(found);
    }

    #[test]
    fn copyprop_respects_source_redefinition() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 2, BufKind::ParamInOut);
        let a = b.sload(MemRef::new(t, 0)); // opaque value
        let c = b.smov(a);
        // redefine the copy source: reads of c must NOT become reads of a
        b.instr(Instr::SMov { dst: a, a: 9.0.into() });
        b.sstore(c, MemRef::new(t, 1));
        let mut f = b.finish();
        copyprop(&mut f);
        let mut stored = None;
        f.for_each_instr(&mut |i| {
            if let Instr::SStore { src, .. } = i {
                stored = Some(*src);
            }
        });
        assert_eq!(stored, Some(SOperand::Reg(c)), "stale copy fact applied");
    }

    #[test]
    fn mixed_scalar_vector_sources_keep_load() {
        let mut b = FunctionBuilder::new("f", 4);
        let s = b.buffer("S", 8, BufKind::ParamInOut);
        let r = b.smov(5.0);
        b.sstore(r, MemRef::new(s, 0));
        let v = b.vbroadcast(1.0);
        b.vstore(v, MemRef::new(s, 1), vec![Some(0), Some(1), Some(2), None]);
        let _l = b.vload_contig(MemRef::new(s, 0));
        let mut f = b.finish();
        forward(&mut f, true, true);
        let mut vloads = 0;
        f.for_each_instr(&mut |i| {
            if matches!(i, Instr::VLoad { .. }) {
                vloads += 1;
            }
        });
        assert_eq!(vloads, 1, "mixed sources must not be rewritten");
    }

    /// The instructions of `f` that load or build a vector.
    fn vector_defs(f: &Function) -> Vec<Instr> {
        let mut out = Vec::new();
        f.for_each_instr(&mut |i| {
            if matches!(
                i,
                Instr::VLoad { .. }
                    | Instr::VPack { .. }
                    | Instr::VShuffle { .. }
                    | Instr::VBlend { .. }
            ) {
                out.push(i.clone());
            }
        });
        out
    }

    #[test]
    fn scalar_stores_then_vector_load_become_a_pack() {
        let mut b = FunctionBuilder::new("f", 4);
        let x = b.buffer("x", 4, BufKind::ParamIn);
        let t = b.buffer("t", 4, BufKind::ParamInOut);
        let regs: Vec<SReg> = (0..4)
            .map(|i| {
                let r = b.sload(MemRef::new(x, i));
                let s = b.sbin(BinOp::Mul, r, 2.0);
                b.sstore(s, MemRef::new(t, i));
                s
            })
            .collect();
        let v = b.vload_contig(MemRef::new(t, 0));
        b.vstore_contig(v, MemRef::new(t, 0));
        let mut f = b.finish();
        assert!(forward(&mut f, true, true));
        let want = Instr::VPack { dst: v, elems: regs.iter().map(|&r| Some(r.into())).collect() };
        assert_eq!(vector_defs(&f), vec![want], "{}", crate::pretty::function_to_string(&f));
        // without the load/store analysis the load stays
        let mut b = FunctionBuilder::new("f", 4);
        let t = b.buffer("t", 4, BufKind::ParamInOut);
        for i in 0..4 {
            let s = b.sbin(BinOp::Mul, 3.0, i as f64);
            b.sstore(s, MemRef::new(t, i));
        }
        let _ = b.vload_contig(MemRef::new(t, 0));
        let mut f = b.finish();
        assert!(!forward(&mut f, false, true));
    }

    #[test]
    fn stale_or_untracked_lanes_keep_the_load() {
        // lane 1's register is redefined after its store
        let mut b = FunctionBuilder::new("f", 4);
        let t = b.buffer("t", 4, BufKind::ParamInOut);
        let regs: Vec<SReg> = (0..4).map(|i| b.sbin(BinOp::Mul, 3.0, i as f64)).collect();
        for (i, r) in regs.iter().enumerate() {
            b.sstore(*r, MemRef::new(t, i as i64));
        }
        b.instr(Instr::SMov { dst: regs[1], a: 9.0.into() });
        let _ = b.vload_contig(MemRef::new(t, 0));
        let mut f = b.finish();
        forward(&mut f, true, true);
        assert!(matches!(vector_defs(&f)[..], [Instr::VLoad { .. }]), "stale lane forwarded");

        // lane 3 was never stored: its cell holds unknown memory
        let mut b = FunctionBuilder::new("f", 4);
        let t = b.buffer("t", 4, BufKind::ParamInOut);
        for i in 0..3 {
            let s = b.sbin(BinOp::Mul, 3.0, i as f64);
            b.sstore(s, MemRef::new(t, i));
        }
        let _ = b.vload_contig(MemRef::new(t, 0));
        let mut f = b.finish();
        forward(&mut f, true, true);
        assert!(matches!(vector_defs(&f)[..], [Instr::VLoad { .. }]), "untracked lane packed");
    }

    #[test]
    fn packs_take_immediates_and_skip_inactive_lanes() {
        let mut b = FunctionBuilder::new("f", 4);
        let t = b.buffer("t", 4, BufKind::ParamInOut);
        let r = b.sbin(BinOp::Mul, 3.0, 5.0);
        b.sstore(r, MemRef::new(t, 0));
        b.sstore(0.5, MemRef::new(t, 2));
        let v = b.vload(MemRef::new(t, 0), vec![Some(0), None, Some(2), None]);
        let mut f = b.finish();
        forward(&mut f, true, true);
        let want =
            Instr::VPack { dst: v, elems: vec![Some(r.into()), None, Some(0.5.into()), None] };
        assert_eq!(vector_defs(&f), vec![want]);

        // only immediates, or a single active lane: the load stays
        for (imm_lane0, lanes) in
            [(true, vec![Some(0), Some(1), None, None]), (false, vec![Some(0), None, None, None])]
        {
            let mut b = FunctionBuilder::new("f", 4);
            let t = b.buffer("t", 4, BufKind::ParamInOut);
            let r = b.sbin(BinOp::Mul, 3.0, 5.0);
            let lane0 = if imm_lane0 { SOperand::Imm(1.0) } else { r.into() };
            b.sstore(lane0, MemRef::new(t, 0));
            b.sstore(2.0, MemRef::new(t, 1));
            let _ = b.vload(MemRef::new(t, 0), lanes);
            let mut f = b.finish();
            forward(&mut f, true, true);
            assert!(matches!(vector_defs(&f)[..], [Instr::VLoad { .. }]));
        }
    }
}
