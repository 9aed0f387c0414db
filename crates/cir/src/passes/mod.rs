//! Code-level optimization passes (paper §3.3).
//!
//! The pipeline run by [`optimize`] mirrors SLinGen's Stage 3:
//!
//! 1. **Loop unrolling** for the small fixed trip counts typical of
//!    small-scale code ([`unroll`]);
//! 2. **constant folding** of affine conditions exposed by unrolling
//!    ([`constfold`]);
//! 3. **scalar replacement & load/store analysis** ([`forward`]): memory
//!    round-trips become register moves, shuffles, and blends (Fig. 12);
//! 4. **CSE**, **copy propagation**, and **DCE** cleanups, iterated to a
//!    fixpoint: every pass reports whether it changed the function, and
//!    the cleanup loop exits as soon as a full round changes nothing. On
//!    FMA-capable targets the fixpoint loop additionally runs
//!    [`contract`], fusing multiply–add chains into FMA instructions
//!    (the dead multiplies are collected by DCE).
//!
//! Each cleanup round runs, in order: forward → contract → CSE →
//! copyprop → DCE. Contraction goes before CSE because it fuses only
//! products with a single reader; were CSE first, it could share a
//! product between two readers and so block a fusion. CSE keys see
//! through register moves, including the moves CSE itself writes, so a
//! chain of redundancies collapses in one walk rather than one round per
//! level. One productive round plus the confirming round is the common
//! case, and no tracked body needs more than three.
//!
//! Every cleanup round runs each enabled pass over the whole function,
//! from scratch: no pass keeps state across rounds, so a round's output
//! depends only on its input. The structural passes (unroll, constfold,
//! rename) leave straight-line statement lists where they are and only
//! rebuild lists that hold a loop or a conditional.
//!
//! An important C-IR invariant exploited here: *distinct [`crate::BufId`]s
//! never alias*. Operands related by `ow(..)` are mapped to the same buffer
//! by the driver.

pub mod constfold;
pub mod contract;
pub mod cse;
pub mod dce;
pub mod forward;
pub mod rename;
pub mod unroll;

use crate::func::{CStmt, Function};
use std::time::{Duration, Instant};

/// Dense grow-on-demand tables used by the passes (versions, epochs, read
/// sets, rename maps). Tables are pre-sized from the function's register
/// and buffer counts; the grow path only triggers for ids allocated after
/// sizing.
pub(crate) fn grow_update<T: Clone + Default>(
    v: &mut Vec<T>,
    i: usize,
    update: impl FnOnce(&mut T),
) {
    if i >= v.len() {
        v.resize(i + 1, T::default());
    }
    update(&mut v[i]);
}

/// Whether `stmts` is one straight-line run (no `For`, no `If`): the
/// structural passes leave such lists where they are instead of
/// rebuilding them.
pub(crate) fn is_straight_line(stmts: &[CStmt]) -> bool {
    stmts.iter().all(|s| matches!(s, CStmt::I(_)))
}

/// Toggles for the optimization pipeline (ablation switches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassConfig {
    /// Maximum number of (static) instructions a fully unrolled function
    /// may reach; loops whose expansion would exceed it stay rolled.
    pub unroll_budget: usize,
    /// Enable the domain-specific load/store analysis (paper Fig. 12).
    pub load_store_analysis: bool,
    /// Enable scalar replacement (store→load forwarding through registers).
    pub scalar_replacement: bool,
    /// Enable common-subexpression elimination.
    pub cse: bool,
    /// Fuse multiply–add chains into FMA instructions (see
    /// [`contract`]). Off by default; the driver enables it when the
    /// generation target has FMA ([`crate::Target::has_fma`]).
    pub fma_contraction: bool,
    /// Maximum number of cleanup iterations; the loop exits early once a
    /// full round reaches a fixpoint (changes nothing). The cap is a
    /// safety net, not the expected exit: at most 3 rounds are observed
    /// (the Stage-3 counter test in `tests/target_snapshots.rs` asserts it
    /// for every golden-grid body), and [`PipelineStats::converged`]
    /// records whether the loop actually reached its fixpoint.
    pub iterations: usize,
}

impl Default for PassConfig {
    fn default() -> Self {
        PassConfig {
            unroll_budget: 1 << 14,
            load_store_analysis: true,
            scalar_replacement: true,
            cse: true,
            fma_contraction: false,
            iterations: 16,
        }
    }
}

impl PassConfig {
    /// A configuration with every optimization disabled except unrolling
    /// (used as the ablation baseline).
    pub fn minimal() -> Self {
        PassConfig {
            unroll_budget: 1 << 14,
            load_store_analysis: false,
            scalar_replacement: false,
            cse: false,
            fma_contraction: false,
            iterations: 1,
        }
    }

    /// This configuration specialized for a generation target: FMA
    /// contraction turns on exactly when the target can execute fused
    /// multiply-adds.
    pub fn for_target(mut self, target: crate::Target) -> Self {
        self.fma_contraction = self.fma_contraction || target.has_fma();
        self
    }

    /// Append this configuration's cache-key text to `out`: counts and
    /// flags as integers, in field order. The destructuring names every
    /// field: a field added to `PassConfig` does not compile here until
    /// the key includes it.
    pub fn write_key(&self, out: &mut String) {
        use std::fmt::Write;
        let PassConfig {
            unroll_budget,
            load_store_analysis,
            scalar_replacement,
            cse,
            fma_contraction,
            iterations,
        } = *self;
        let _ = write!(
            out,
            "u{unroll_budget},ls{},sr{},cse{},fma{},it{iterations}",
            u8::from(load_store_analysis),
            u8::from(scalar_replacement),
            u8::from(cse),
            u8::from(fma_contraction),
        );
    }
}

/// Per-round telemetry of one cleanup-fixpoint round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Instructions with a register destination whose CSE key was
    /// computed this round (every one, since each round runs from
    /// scratch).
    pub cse_rekeyed: usize,
    /// Always 0: CSE no longer reuses keys across rounds. Kept because
    /// the external benchmark under `perfbench/` reads it.
    pub cse_reused: usize,
    /// Whether any pass changed the function this round.
    pub changed: bool,
}

/// Telemetry of one [`optimize`] run: per-round counters plus whether the
/// cleanup loop converged or hit the iteration cap.
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
    /// One entry per executed cleanup round.
    pub rounds: Vec<RoundStats>,
    /// `true` when the loop exited on a no-change round (fixpoint);
    /// `false` when it stopped on [`PassConfig::iterations`] with changes
    /// still pending.
    pub converged: bool,
}

/// Run the full Stage-3 pipeline over `f`.
pub fn optimize(f: &mut Function, config: &PassConfig) {
    optimize_with_stats(f, config, &mut |_, _| {});
}

/// Like [`optimize`], additionally invoking `observe(pass_name, elapsed)`
/// after every pass and returning [`PipelineStats`]. This is the single
/// source of truth for per-pass timing and fixpoint breakdowns (the
/// tuner records each variant's fixpoint from it, and perfbench's traced
/// runs time each pass through it), so instrumentation cannot drift
/// from the pipeline actually shipped.
pub fn optimize_with_stats(
    f: &mut Function,
    config: &PassConfig,
    observe: &mut dyn FnMut(&str, Duration),
) -> PipelineStats {
    let t = Instant::now();
    unroll::unroll(f, config.unroll_budget);
    observe("unroll", t.elapsed());
    let t = Instant::now();
    constfold::fold(f);
    observe("constfold", t.elapsed());
    let t = Instant::now();
    rename::rename(f);
    observe("rename", t.elapsed());
    let mut stats = PipelineStats::default();
    for _ in 0..config.iterations.max(1) {
        let mut changed = false;
        let mut round = RoundStats::default();
        if config.scalar_replacement || config.load_store_analysis {
            let t = Instant::now();
            changed |= forward::forward(f, config.load_store_analysis, config.scalar_replacement);
            observe("forward", t.elapsed());
        }
        if config.fma_contraction {
            let t = Instant::now();
            changed |= contract::contract(f);
            observe("contract", t.elapsed());
        }
        if config.cse {
            let t = Instant::now();
            let (cse_changed, keyed) = cse::cse_counted(f);
            changed |= cse_changed;
            round.cse_rekeyed = keyed;
            observe("cse", t.elapsed());
        }
        let t = Instant::now();
        changed |= forward::copyprop(f);
        observe("copyprop", t.elapsed());
        let t = Instant::now();
        changed |= dce::dce(f);
        observe("dce", t.elapsed());
        round.changed = changed;
        stats.rounds.push(round);
        if !changed {
            stats.converged = true;
            break;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::Affine;
    use crate::func::{BufKind, FunctionBuilder};
    use crate::instr::{BinOp, MemRef};

    /// End-to-end: a rolled scalar loop becomes straight-line code with the
    /// memory round-trip removed.
    #[test]
    fn pipeline_shrinks_round_trips() {
        let mut b = FunctionBuilder::new("p", 1);
        let x = b.buffer("x", 4, BufKind::ParamIn);
        let t = b.buffer("t", 4, BufKind::Local);
        let y = b.buffer("y", 4, BufKind::ParamOut);
        let i = b.begin_for(0, 4, 1);
        let r = b.sload(MemRef::new(x, Affine::var(i)));
        let d = b.sbin(BinOp::Mul, r, 2.0);
        b.sstore(d, MemRef::new(t, Affine::var(i)));
        b.end_for();
        let j = b.begin_for(0, 4, 1);
        let r2 = b.sload(MemRef::new(t, Affine::var(j)));
        let d2 = b.sbin(BinOp::Add, r2, 1.0);
        b.sstore(d2, MemRef::new(y, Affine::var(j)));
        b.end_for();
        let mut f = b.finish();
        optimize(&mut f, &PassConfig::default());
        // after unrolling + forwarding + DCE: loads of t and stores to t gone
        let mut loads_t = 0;
        let mut stores_t = 0;
        f.for_each_instr(&mut |ins| match ins {
            crate::instr::Instr::SLoad { src, .. } if src.buf == t => loads_t += 1,
            crate::instr::Instr::SStore { dst, .. } if dst.buf == t => stores_t += 1,
            _ => {}
        });
        assert_eq!(
            loads_t,
            0,
            "temp loads should be forwarded:\n{}",
            crate::pretty::function_to_string(&f)
        );
        assert_eq!(
            stores_t,
            0,
            "dead temp stores should be eliminated:\n{}",
            crate::pretty::function_to_string(&f)
        );
    }

    /// Contraction runs before CSE within a round: a repeated
    /// multiply–add pair still contracts (each product has one reader when
    /// contraction sees it), and CSE then shares the fused result.
    #[test]
    fn repeated_multiply_add_pair_is_contracted() {
        let mut b = FunctionBuilder::new("p", 1);
        let x = b.buffer("x", 3, BufKind::ParamIn);
        let y = b.buffer("y", 2, BufKind::ParamOut);
        let (a, m, c) =
            (b.sload(MemRef::new(x, 0)), b.sload(MemRef::new(x, 1)), b.sload(MemRef::new(x, 2)));
        for i in 0..2 {
            let p = b.sbin(BinOp::Mul, a, m);
            let s = b.sbin(BinOp::Add, p, c);
            b.sstore(s, MemRef::new(y, i));
        }
        let mut f = b.finish();
        let fma = PassConfig { fma_contraction: true, ..PassConfig::default() };
        let stats = optimize_with_stats(&mut f, &fma, &mut |_, _| {});
        assert!(stats.converged);
        assert_eq!(stats.rounds.len(), 2, "one productive round, one confirming round");
        let (mut fmas, mut bins) = (0, 0);
        f.for_each_instr(&mut |i| match i {
            crate::instr::Instr::SFma { .. } => fmas += 1,
            crate::instr::Instr::SBin { .. } => bins += 1,
            _ => {}
        });
        assert_eq!((fmas, bins), (1, 0), "{}", crate::pretty::function_to_string(&f));
    }

    /// The default pipeline must reach its fixpoint (not the iteration
    /// cap) on representative shapes, and report it.
    #[test]
    fn default_pipeline_converges() {
        let mut b = FunctionBuilder::new("p", 1);
        let x = b.buffer("x", 8, BufKind::ParamIn);
        let t = b.buffer("t", 8, BufKind::Local);
        let y = b.buffer("y", 8, BufKind::ParamOut);
        let i = b.begin_for(0, 8, 1);
        let r = b.sload(MemRef::new(x, Affine::var(i)));
        let d = b.sbin(BinOp::Mul, r, 2.0);
        b.sstore(d, MemRef::new(t, Affine::var(i)));
        b.end_for();
        let j = b.begin_for(0, 8, 1);
        let r2 = b.sload(MemRef::new(t, Affine::var(j)));
        let d2 = b.sbin(BinOp::Add, r2, 1.0);
        b.sstore(d2, MemRef::new(y, Affine::var(j)));
        b.end_for();
        let mut f = b.finish();
        let stats = optimize_with_stats(&mut f, &PassConfig::default(), &mut |_, _| {});
        assert!(stats.converged, "cleanup must exit on a fixpoint, not the cap");
        assert!(!stats.rounds.is_empty());
        let last = stats.rounds.last().unwrap();
        assert!(!last.changed);
    }

    /// A capped run (iterations = 1 on a body that needs more) reports
    /// `converged == false` instead of silently stopping.
    #[test]
    fn capped_run_is_reported() {
        let mut b = FunctionBuilder::new("p", 1);
        let x = b.buffer("x", 4, BufKind::ParamIn);
        let t = b.buffer("t", 4, BufKind::Local);
        let y = b.buffer("y", 4, BufKind::ParamOut);
        for i in 0..4 {
            let r = b.sload(MemRef::new(x, i));
            let d = b.sbin(BinOp::Mul, r, 2.0);
            b.sstore(d, MemRef::new(t, i));
            let r2 = b.sload(MemRef::new(t, i));
            let d2 = b.sbin(BinOp::Add, r2, 1.0);
            b.sstore(d2, MemRef::new(y, i));
        }
        let mut f = b.finish();
        let capped = PassConfig { iterations: 1, ..PassConfig::default() };
        let stats = optimize_with_stats(&mut f, &capped, &mut |_, _| {});
        // one round of forward+cse+copyprop+dce changes things; the loop
        // stops on the cap with work still pending
        assert_eq!(stats.rounds.len(), 1);
        assert!(stats.rounds[0].changed);
        assert!(!stats.converged, "a capped exit must be reported");
    }
}
