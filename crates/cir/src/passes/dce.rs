//! Dead code elimination.
//!
//! Two flavors, iterated to a fixpoint:
//!
//! * **register DCE**: a pure instruction whose destination register is
//!   never read anywhere in the function is removed (flow-insensitive but
//!   sound: reads inside loops count);
//! * **dead store elimination for local temporaries**: a store to a
//!   constant cell of a `Local` buffer is removed when no load anywhere in
//!   the function can observe that cell (no load of the cell, no
//!   symbolic-offset load of the buffer, and the buffer never escapes
//!   through a call). After the load/store forwarding pass this deletes
//!   the memory traffic the paper's Fig. 12 optimization makes redundant.
//!
//! Throughput notes: register read sets are dense bit tables indexed by
//! register id, usage is recollected into reused allocations each round,
//! and the sweep compacts statement vectors in place instead of rebuilding
//! them.

use crate::func::{BufKind, BufferDecl, CStmt, Function};
use crate::fxhash::FxHashSet;
use crate::instr::Instr;

#[derive(Default)]
struct Usage {
    sreads: Vec<bool>,
    vreads: Vec<bool>,
    loaded_cells: FxHashSet<(usize, i64)>,
    symbolic_load_bufs: Vec<bool>,
}

impl Usage {
    fn reset(&mut self, f: &Function) {
        self.sreads.clear();
        self.sreads.resize(f.n_sregs, false);
        self.vreads.clear();
        self.vreads.resize(f.n_vregs, false);
        self.loaded_cells.clear();
        self.symbolic_load_bufs.clear();
        self.symbolic_load_bufs.resize(f.buffers.len(), false);
    }

    fn sread(&self, r: usize) -> bool {
        self.sreads.get(r).copied().unwrap_or(false)
    }
    fn vread(&self, r: usize) -> bool {
        self.vreads.get(r).copied().unwrap_or(false)
    }
}

fn mark(v: &mut Vec<bool>, i: usize) {
    super::grow_update(v, i, |b| *b = true);
}

fn collect(f: &Function, u: &mut Usage) {
    u.reset(f);
    f.for_each_instr(&mut |i| {
        i.for_each_sreg_read(|r| mark(&mut u.sreads, r.0));
        i.for_each_vreg_read(|r| mark(&mut u.vreads, r.0));
        match i {
            Instr::SLoad { src, .. } => match src.offset.as_constant() {
                Some(off) => {
                    u.loaded_cells.insert((src.buf.0, off));
                }
                None => mark(&mut u.symbolic_load_bufs, src.buf.0),
            },
            Instr::VLoad { base, lanes, .. } => match base.offset.as_constant() {
                Some(boff) => {
                    for l in lanes.iter().flatten() {
                        u.loaded_cells.insert((base.buf.0, boff + l));
                    }
                }
                None => mark(&mut u.symbolic_load_bufs, base.buf.0),
            },
            _ => {}
        }
    });
}

fn store_is_dead(
    buffers: &[BufferDecl],
    u: &Usage,
    buf: usize,
    cells: impl Iterator<Item = i64>,
) -> bool {
    if buffers[buf].kind != BufKind::Local {
        return false;
    }
    if u.symbolic_load_bufs.get(buf).copied().unwrap_or(false) {
        return false;
    }
    for off in cells {
        if u.loaded_cells.contains(&(buf, off)) {
            return false;
        }
    }
    true
}

fn instr_is_dead(buffers: &[BufferDecl], u: &Usage, ins: &Instr) -> bool {
    match ins {
        Instr::SStore { dst, .. } => match dst.offset.as_constant() {
            Some(off) => store_is_dead(buffers, u, dst.buf.0, std::iter::once(off)),
            None => false,
        },
        Instr::VStore { base, lanes, .. } => match base.offset.as_constant() {
            Some(boff) => {
                store_is_dead(buffers, u, base.buf.0, lanes.iter().flatten().map(|l| boff + l))
            }
            None => false,
        },
        other => {
            let swrite_dead = other.sreg_write().is_none_or(|r| !u.sread(r.0));
            let vwrite_dead = other.vreg_write().is_none_or(|r| !u.vread(r.0));
            let writes_nothing = other.sreg_write().is_none() && other.vreg_write().is_none();
            !writes_nothing && swrite_dead && vwrite_dead
        }
    }
}

/// Compact `stmts` in place, dropping dead instructions and emptied
/// control flow; sets `removed` when anything was dropped.
fn sweep(buffers: &[BufferDecl], u: &Usage, stmts: &mut Vec<CStmt>, removed: &mut bool) {
    let mut w = 0;
    for r in 0..stmts.len() {
        let keep = match &mut stmts[r] {
            CStmt::I(ins) => !instr_is_dead(buffers, u, ins),
            CStmt::For { body, .. } => {
                sweep(buffers, u, body, removed);
                !body.is_empty()
            }
            CStmt::If { then_, else_, .. } => {
                sweep(buffers, u, then_, removed);
                sweep(buffers, u, else_, removed);
                !(then_.is_empty() && else_.is_empty())
            }
        };
        if keep {
            if w != r {
                stmts.swap(w, r);
            }
            w += 1;
        } else {
            *removed = true;
        }
    }
    stmts.truncate(w);
}

/// Remove dead instructions and dead local stores from `f`, iterating to a
/// fixpoint; returns whether anything was removed.
pub fn dce(f: &mut Function) -> bool {
    let mut any = false;
    let mut u = Usage::default();
    loop {
        collect(f, &mut u);
        let mut removed = false;
        let mut body = std::mem::take(&mut f.body);
        sweep(&f.buffers, &u, &mut body, &mut removed);
        f.body = body;
        if !removed {
            break;
        }
        any = true;
    }
    any
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::FunctionBuilder;
    use crate::instr::{BinOp, MemRef};

    #[test]
    fn unread_computation_chain_removed() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 1, BufKind::ParamOut);
        let a = b.smov(1.0);
        let c = b.sbin(BinOp::Add, a, 1.0); // feeds nothing
        let _ = c;
        let d = b.smov(9.0);
        b.sstore(d, MemRef::new(t, 0));
        let mut f = b.finish();
        assert!(dce(&mut f), "must report removals");
        assert_eq!(f.static_instr_count(), 2, "only the stored value survives");
    }

    #[test]
    fn stores_to_params_are_kept() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 1, BufKind::ParamOut);
        b.sstore(1.0, MemRef::new(t, 0));
        let mut f = b.finish();
        assert!(!dce(&mut f), "nothing removable");
        assert_eq!(f.static_instr_count(), 1);
    }

    #[test]
    fn unobserved_local_store_removed() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 2, BufKind::Local);
        let o = b.buffer("o", 1, BufKind::ParamOut);
        let a = b.smov(1.0);
        b.sstore(a, MemRef::new(t, 0)); // never loaded
        b.sstore(a, MemRef::new(o, 0));
        let mut f = b.finish();
        dce(&mut f);
        let mut stores = 0;
        f.for_each_instr(&mut |i| {
            if matches!(i, Instr::SStore { .. }) {
                stores += 1;
            }
        });
        assert_eq!(stores, 1);
    }

    #[test]
    fn observed_local_store_survives() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 2, BufKind::Local);
        let o = b.buffer("o", 1, BufKind::ParamOut);
        let a = b.smov(1.0);
        b.sstore(a, MemRef::new(t, 0));
        let l = b.sload(MemRef::new(t, 0));
        b.sstore(l, MemRef::new(o, 0));
        let mut f = b.finish();
        dce(&mut f);
        let mut stores = 0;
        f.for_each_instr(&mut |i| {
            if matches!(i, Instr::SStore { .. }) {
                stores += 1;
            }
        });
        assert_eq!(stores, 2);
    }

    #[test]
    fn symbolic_load_blocks_local_store_elimination() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 4, BufKind::Local);
        let o = b.buffer("o", 4, BufKind::ParamOut);
        let a = b.smov(1.0);
        b.sstore(a, MemRef::new(t, 2));
        let i = b.begin_for(0, 4, 1);
        let l = b.sload(MemRef::new(t, crate::affine::Affine::var(i)));
        b.sstore(l, MemRef::new(o, crate::affine::Affine::var(i)));
        b.end_for();
        let mut f = b.finish();
        dce(&mut f);
        let mut local_stores = 0;
        f.for_each_instr(&mut |ins| {
            if let Instr::SStore { dst, .. } = ins {
                if dst.buf == t {
                    local_stores += 1;
                }
            }
        });
        assert_eq!(local_stores, 1, "symbolic loads may observe the cell");
    }

    #[test]
    fn loop_carried_reads_keep_instructions() {
        // A register written before a loop and read inside it must survive.
        let mut b = FunctionBuilder::new("f", 1);
        let o = b.buffer("o", 4, BufKind::ParamOut);
        let acc = b.smov(0.0);
        let i = b.begin_for(0, 4, 1);
        let acc2 = b.sbin(BinOp::Add, acc, 1.0);
        b.instr(Instr::SMov { dst: acc, a: acc2.into() });
        b.sstore(acc, MemRef::new(o, crate::affine::Affine::var(i)));
        b.end_for();
        let mut f = b.finish();
        let before = f.static_instr_count();
        dce(&mut f);
        assert_eq!(f.static_instr_count(), before);
    }

    #[test]
    fn empty_control_flow_removed() {
        let mut b = FunctionBuilder::new("f", 1);
        b.begin_for(0, 4, 1);
        let dead = b.smov(1.0); // dead inside the loop
        let _ = dead;
        b.end_for();
        let mut f = b.finish();
        dce(&mut f);
        assert!(f.body.is_empty());
    }
}
