//! Register renaming (web splitting) after unrolling.
//!
//! Loop bodies reuse the same registers every iteration, so a fully
//! unrolled loop redefines each register once per former iteration. Those
//! redefinitions block store→load forwarding and CSE. This pass gives every
//! *re*definition within a straight-line run a fresh register and rewrites
//! the uses that follow, making long unrolled blocks effectively SSA.
//!
//! Soundness across control flow: at the end of each run, every renamed
//! register is copied back to its original name (`orig = fresh`), so code
//! in later blocks — including the next iteration of a still-rolled loop —
//! observes the same values as before. Copy propagation and DCE dissolve
//! the copies that turn out to be unnecessary.
//!
//! Throughput/determinism notes: each run is renamed where it stands in
//! its statement list, and only the copy-backs are spliced in after it;
//! reads are rewritten in place (no per-instruction clones of lane maps
//! and selectors), rename maps are dense tables indexed by register id,
//! and copy-backs are emitted in ascending original-register order so the
//! pass output is deterministic.

use crate::func::{CStmt, Function};
use crate::instr::{Instr, SOperand, SReg, VReg};

struct Renamer {
    next_s: usize,
    next_v: usize,
}

impl Renamer {
    fn fresh_s(&mut self) -> SReg {
        self.next_s += 1;
        SReg(self.next_s - 1)
    }
    fn fresh_v(&mut self) -> VReg {
        self.next_v += 1;
        VReg(self.next_v - 1)
    }
}

/// Dense `original → current` rename table with a defined-set.
struct RenameMap<R: Copy> {
    current: Vec<Option<R>>,
    defined: Vec<bool>,
}

impl<R: Copy> Default for RenameMap<R> {
    fn default() -> Self {
        RenameMap { current: Vec::new(), defined: Vec::new() }
    }
}

impl<R: Copy> RenameMap<R> {
    fn get(&self, i: usize) -> Option<R> {
        self.current.get(i).copied().flatten()
    }
    fn set(&mut self, i: usize, r: R) {
        super::grow_update(&mut self.current, i, |slot| *slot = Some(r));
    }
    fn clear_entry(&mut self, i: usize) {
        if i < self.current.len() {
            self.current[i] = None;
        }
    }
    fn is_defined(&self, i: usize) -> bool {
        self.defined.get(i).copied().unwrap_or(false)
    }
    fn mark_defined(&mut self, i: usize) {
        super::grow_update(&mut self.defined, i, |b| *b = true);
    }
    /// Drain live renames in ascending original-register order.
    fn drain_sorted(&mut self) -> impl Iterator<Item = (usize, R)> + '_ {
        self.current.iter_mut().enumerate().filter_map(|(i, slot)| slot.take().map(|r| (i, r)))
    }
}

fn map_sop(map: &RenameMap<SReg>, o: &mut SOperand) {
    if let SOperand::Reg(r) = o {
        if let Some(cur) = map.get(r.0) {
            *r = cur;
        }
    }
}

fn map_v(map: &RenameMap<VReg>, r: &mut VReg) {
    if let Some(cur) = map.get(r.0) {
        *r = cur;
    }
}

/// Rewrite the reads of `ins` through the maps, in place (writes untouched).
fn rewrite_reads(ins: &mut Instr, smap: &RenameMap<SReg>, vmap: &RenameMap<VReg>) {
    match ins {
        Instr::SStore { src, .. } => map_sop(smap, src),
        Instr::SBin { a, b, .. } => {
            map_sop(smap, a);
            map_sop(smap, b);
        }
        Instr::SFma { a, b, c, .. } => {
            map_sop(smap, a);
            map_sop(smap, b);
            map_sop(smap, c);
        }
        Instr::SSqrt { a, .. } | Instr::SMov { a, .. } => map_sop(smap, a),
        Instr::VStore { src, .. } | Instr::VMov { src, .. } => map_v(vmap, src),
        Instr::VBin { a, b, .. } | Instr::VShuffle { a, b, .. } | Instr::VBlend { a, b, .. } => {
            map_v(vmap, a);
            map_v(vmap, b);
        }
        Instr::VFma { a, b, c, .. } => {
            map_v(vmap, a);
            map_v(vmap, b);
            map_v(vmap, c);
        }
        Instr::VBroadcast { src, .. } => map_sop(smap, src),
        Instr::VExtract { src, .. } | Instr::VReduceAdd { src, .. } => map_v(vmap, src),
        Instr::SLoad { .. } | Instr::VLoad { .. } | Instr::Call { .. } => {}
    }
}

fn set_swrite(ins: &mut Instr, new: SReg) {
    match ins {
        Instr::SLoad { dst, .. }
        | Instr::SBin { dst, .. }
        | Instr::SFma { dst, .. }
        | Instr::SSqrt { dst, .. }
        | Instr::SMov { dst, .. }
        | Instr::VExtract { dst, .. }
        | Instr::VReduceAdd { dst, .. } => *dst = new,
        _ => {}
    }
}

fn set_vwrite(ins: &mut Instr, new: VReg) {
    match ins {
        Instr::VLoad { dst, .. }
        | Instr::VMov { dst, .. }
        | Instr::VBin { dst, .. }
        | Instr::VFma { dst, .. }
        | Instr::VBroadcast { dst, .. }
        | Instr::VShuffle { dst, .. }
        | Instr::VBlend { dst, .. } => *dst = new,
        _ => {}
    }
}

/// Rename the redefinitions of one straight-line run in place; returns
/// the run's copy-backs.
fn process_run(run: &mut [CStmt], rn: &mut Renamer) -> Vec<CStmt> {
    let mut smap = RenameMap::<SReg>::default();
    let mut vmap = RenameMap::<VReg>::default();
    for ins in run.iter_mut().filter_map(|s| match s {
        CStmt::I(ins) => Some(ins),
        _ => None,
    }) {
        rewrite_reads(ins, &smap, &vmap);
        if let Some(w) = ins.sreg_write() {
            if smap.is_defined(w.0) {
                let fresh = rn.fresh_s();
                smap.set(w.0, fresh);
                set_swrite(ins, fresh);
            } else {
                smap.mark_defined(w.0);
                smap.clear_entry(w.0);
            }
        }
        if let Some(w) = ins.vreg_write() {
            if vmap.is_defined(w.0) {
                let fresh = rn.fresh_v();
                vmap.set(w.0, fresh);
                set_vwrite(ins, fresh);
            } else {
                vmap.mark_defined(w.0);
                vmap.clear_entry(w.0);
            }
        }
    }
    // copy renamed registers back to their original names for later
    // blocks, in deterministic (ascending register) order
    let scopies =
        smap.drain_sorted().map(|(orig, cur)| Instr::SMov { dst: SReg(orig), a: cur.into() });
    let vcopies = vmap.drain_sorted().map(|(orig, cur)| Instr::VMov { dst: VReg(orig), src: cur });
    scopies.chain(vcopies).map(CStmt::I).collect()
}

/// Rename every straight-line run of `stmts` in place, in program order
/// (nested blocks included), then splice each run's copy-backs in right
/// after it.
fn walk(stmts: &mut Vec<CStmt>, rn: &mut Renamer) {
    let mut splices: Vec<(usize, Vec<CStmt>)> = Vec::new();
    let mut start = 0;
    for i in 0..=stmts.len() {
        if matches!(stmts.get(i), Some(CStmt::I(_))) {
            continue;
        }
        if start < i {
            let copies = process_run(&mut stmts[start..i], rn);
            if !copies.is_empty() {
                splices.push((i, copies));
            }
        }
        match stmts.get_mut(i) {
            Some(CStmt::For { body, .. }) => walk(body, rn),
            Some(CStmt::If { then_, else_, .. }) => {
                walk(then_, rn);
                walk(else_, rn);
            }
            _ => {}
        }
        start = i + 1;
    }
    // back to front, so earlier splice positions stay valid; a
    // straight-line list has one splice, at its end
    for (at, copies) in splices.into_iter().rev() {
        stmts.splice(at..at, copies);
    }
}

/// Split register webs in `f` (see module docs).
pub fn rename(f: &mut Function) {
    let mut rn = Renamer { next_s: f.n_sregs, next_v: f.n_vregs };
    walk(&mut f.body, &mut rn);
    f.n_sregs = rn.next_s;
    f.n_vregs = rn.next_v;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{BufKind, FunctionBuilder};
    use crate::instr::{BinOp, MemRef};

    #[test]
    fn redefinitions_get_fresh_names() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 2, BufKind::ParamOut);
        let r = b.smov(1.0);
        b.sstore(r, MemRef::new(t, 0));
        b.instr(Instr::SMov { dst: r, a: 2.0.into() }); // redefinition
        b.sstore(r, MemRef::new(t, 1));
        let mut f = b.finish();
        rename(&mut f);
        // the two stores must now read different registers
        let mut stored: Vec<SOperand> = Vec::new();
        f.for_each_instr(&mut |i| {
            if let Instr::SStore { src, .. } = i {
                stored.push(*src);
            }
        });
        assert_eq!(stored.len(), 2);
        assert_ne!(stored[0], stored[1]);
    }

    #[test]
    fn copy_back_preserves_cross_block_values() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 4, BufKind::ParamOut);
        let r = b.smov(1.0);
        b.instr(Instr::SMov { dst: r, a: 2.0.into() }); // redefined in run
        let i = b.begin_for(0, 2, 1);
        b.sstore(r, MemRef::new(t, crate::affine::Affine::var(i)));
        b.end_for();
        let mut f = b.finish();
        rename(&mut f);
        // before the loop there must be a copy back into r
        let n_body = f.body.len();
        assert!(n_body >= 3);
        let has_copy_back = f
            .body
            .iter()
            .any(|s| matches!(s, CStmt::I(Instr::SMov { dst, a: SOperand::Reg(_) }) if *dst == r));
        assert!(has_copy_back, "{}", crate::pretty::function_to_string(&f));
    }

    #[test]
    fn first_definitions_keep_their_names() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 1, BufKind::ParamOut);
        let a = b.smov(1.0);
        let c = b.sbin(BinOp::Add, a, 1.0);
        b.sstore(c, MemRef::new(t, 0));
        let mut f = b.finish();
        let before = f.body.clone();
        rename(&mut f);
        assert_eq!(f.body, before, "no redefinitions, nothing to rename");
    }

    #[test]
    fn copy_backs_are_in_ascending_register_order() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 8, BufKind::ParamOut);
        // redefine several registers so multiple copy-backs are emitted
        let regs: Vec<SReg> = (0..4).map(|i| b.smov(i as f64)).collect();
        for (i, r) in regs.iter().enumerate() {
            b.instr(Instr::SMov { dst: *r, a: (10.0 + i as f64).into() });
        }
        let i = b.begin_for(0, 2, 1);
        for r in &regs {
            b.sstore(*r, MemRef::new(t, crate::affine::Affine::var(i)));
        }
        b.end_for();
        let mut f = b.finish();
        rename(&mut f);
        let mut copy_back_dsts = Vec::new();
        for s in &f.body {
            if let CStmt::I(Instr::SMov { dst, a: SOperand::Reg(_) }) = s {
                copy_back_dsts.push(dst.0);
            }
        }
        let mut sorted = copy_back_dsts.clone();
        sorted.sort_unstable();
        assert_eq!(copy_back_dsts, sorted, "copy-backs must be deterministic");
    }
}
