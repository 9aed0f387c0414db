//! Algorithm construction: from PMEs to basic LA programs.
//!
//! The derivation walks a partition boundary across the chosen dimension
//! group. The classic FLAME loop-invariant families correspond to *when*
//! update atoms run:
//!
//! * [`Policy::Lazy`] (left-looking): at each step, instantiate the PME
//!   with Top ↦ the *done* region and Bottom ↦ the *current* block; every
//!   cell that touches the current block applies all its updates and is
//!   solved.
//! * [`Policy::Eager`] (right-looking): instantiate with Top ↦ the
//!   *current* block and Bottom ↦ the *rest*; cells touching the current
//!   block are solved, and cells fully in the rest only apply the update
//!   atoms that read the freshly solved blocks.
//!
//! Because operand sizes are fixed, loops are emitted unrolled over
//! concrete regions: sub-HLACs recurse with block size ν, then 1, ending
//! in scalar `sqrt`/`div` statements (the paper's Figs. 7–9).
//!
//! Derivations are memoized in the [`AlgorithmDb`] keyed by a
//! translation-invariant signature of the equation instance — the paper's
//! Stage 1a algorithm reuse. Cached algorithms are *relocated* (operand
//! and region offsets substituted) on reuse.

use crate::conform::analyze;
use crate::pme::{pme_cells, refine_trtri, CellSolve, SegRanges, SolveOp};
use crate::program::{BasicProgram, BasicStmt, VExpr};
use crate::term::{region_term, Term, View};
use crate::SynthError;
use slingen_ir::{Expr, OpId, Program, Stmt, Structure};
use std::collections::HashMap;

/// Loop-invariant family selector (algorithmic variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Left-looking: updates run as late as possible.
    Lazy,
    /// Right-looking: updates run as early as possible.
    Eager,
}

impl Policy {
    /// All policies (the variant space explored by autotuning).
    pub const ALL: [Policy; 2] = [Policy::Lazy, Policy::Eager];

    /// Inverse of the `Display` names — used by the persistent tuning
    /// cache, so the names are a stable wire format.
    pub fn parse(s: &str) -> Option<Policy> {
        match s {
            "lazy" => Some(Policy::Lazy),
            "eager" => Some(Policy::Eager),
            _ => None,
        }
    }
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Policy::Lazy => "lazy",
            Policy::Eager => "eager",
        })
    }
}

/// Role of a PME segment at one loop iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Label {
    /// Already computed in earlier iterations.
    Done,
    /// The block being computed now.
    Current,
    /// Not yet computed (receives eager updates only).
    Rest,
}

/// One equation instance to derive: `op` applied to region `out` with
/// right-hand side `base`.
#[derive(Debug, Clone)]
struct EqInstance {
    op: SolveOp,
    out: View,
    base: Term,
}

impl EqInstance {
    /// The unknowns this instance computes (one, or two for LU).
    fn unknowns(&self) -> Vec<(slingen_ir::OpId, View)> {
        let mut out = vec![(self.out.op, self.out)];
        if let SolveOp::Getrf { l } = &self.op {
            out.push((l.op, *l));
        }
        out
    }
}

/// An interned signature symbol: index into [`AlgorithmDb`]'s tables.
type Sym = u32;

/// Memoization of derived algorithms (paper Stage 1a).
///
/// Keys are translation-invariant signatures, *interned*: every distinct
/// signature string is stored once and mapped to a dense symbol, and the
/// hot path (a cache hit) builds its key in a reusable scratch buffer and
/// looks it up by `&str` — no per-derivation allocation. Values are
/// basic-program templates over *roles* that are relocated on reuse.
/// Disable with [`AlgorithmDb::set_enabled`] to force fresh derivations
/// (used by tests to validate the cache).
#[derive(Debug, Default)]
pub struct AlgorithmDb {
    /// Signature string -> symbol (allocates only on first sight).
    symbols: HashMap<Box<str>, Sym>,
    /// Symbol -> cached template (`None`: derived but not relocatable).
    templates: Vec<Option<Vec<BasicStmt>>>,
    stored: usize,
    hits: usize,
    misses: usize,
    enabled: bool,
}

impl AlgorithmDb {
    /// An empty, enabled database.
    pub fn new() -> Self {
        AlgorithmDb { enabled: true, ..AlgorithmDb::default() }
    }

    /// Enable or disable memoization.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Cache hits so far.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Cache misses (fresh derivations) so far.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Number of distinct algorithms stored.
    pub fn len(&self) -> usize {
        self.stored
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.stored == 0
    }

    /// Number of interned signature symbols (≥ [`AlgorithmDb::len`]:
    /// non-relocatable derivations intern their signature without storing
    /// a template).
    pub fn interned(&self) -> usize {
        self.symbols.len()
    }

    /// The symbol for `sig`, interning it on first sight.
    fn intern(&mut self, sig: &str) -> Sym {
        if let Some(&s) = self.symbols.get(sig) {
            return s;
        }
        let s = self.templates.len() as Sym;
        self.symbols.insert(Box::from(sig), s);
        self.templates.push(None);
        s
    }
}

/// Roles: operand slots of an instance, in deterministic order.
#[derive(Debug, Clone)]
struct Roles {
    /// (operand, row origin, col origin) per role.
    slots: Vec<(OpId, usize, usize)>,
}

impl Roles {
    fn of_instance(inst: &EqInstance) -> Roles {
        let mut slots = vec![(inst.out.op, inst.out.r0, inst.out.c0)];
        let push = |v: &View, slots: &mut Vec<(OpId, usize, usize)>| {
            slots.push((v.op, v.r0, v.c0));
        };
        match &inst.op {
            SolveOp::TrsmLeft { t } | SolveOp::TrsmRight { t } => push(t, &mut slots),
            SolveOp::Trtri { l } | SolveOp::Getrf { l } => push(l, &mut slots),
            SolveOp::Sylvester { l, u } => {
                push(l, &mut slots);
                push(u, &mut slots);
            }
            SolveOp::Potrf { .. } | SolveOp::Assign => {}
        }
        if let Term::V(v) = &inst.base {
            push(v, &mut slots);
        }
        Roles { slots }
    }

    /// Find the role of `op`, given that every operand in an instance's
    /// emitted statements appears in some slot.
    fn role_of(&self, op: OpId) -> Option<usize> {
        self.slots.iter().position(|(o, _, _)| *o == op)
    }

    /// Relativize a view against its role's origin.
    fn relativize(&self, v: &View) -> Option<View> {
        let role = self.role_of(v.op)?;
        let (_, r, c) = self.slots[role];
        if v.r0 < r || v.c0 < c {
            return None;
        }
        Some(View { op: OpId(role), r0: v.r0 - r, r1: v.r1 - r, c0: v.c0 - c, c1: v.c1 - c, ..*v })
    }

    /// Materialize a relative view against this role set.
    fn instantiate(&self, v: &View) -> View {
        let (op, r, c) = self.slots[v.op.0];
        View { op, r0: v.r0 + r, r1: v.r1 + r, c0: v.c0 + c, c1: v.c1 + c, ..*v }
    }
}

fn relativize_expr(roles: &Roles, e: &VExpr) -> Option<VExpr> {
    Some(match e {
        VExpr::View(v) => VExpr::View(roles.relativize(v)?),
        VExpr::Lit(x) => VExpr::Lit(*x),
        VExpr::Add(a, b) => {
            VExpr::Add(Box::new(relativize_expr(roles, a)?), Box::new(relativize_expr(roles, b)?))
        }
        VExpr::Sub(a, b) => {
            VExpr::Sub(Box::new(relativize_expr(roles, a)?), Box::new(relativize_expr(roles, b)?))
        }
        VExpr::Mul(a, b) => {
            VExpr::Mul(Box::new(relativize_expr(roles, a)?), Box::new(relativize_expr(roles, b)?))
        }
        VExpr::Div(a, b) => {
            VExpr::Div(Box::new(relativize_expr(roles, a)?), Box::new(relativize_expr(roles, b)?))
        }
        VExpr::Neg(a) => VExpr::Neg(Box::new(relativize_expr(roles, a)?)),
        VExpr::Sqrt(a) => VExpr::Sqrt(Box::new(relativize_expr(roles, a)?)),
    })
}

fn instantiate_expr(roles: &Roles, e: &VExpr) -> VExpr {
    match e {
        VExpr::View(v) => VExpr::View(roles.instantiate(v)),
        VExpr::Lit(x) => VExpr::Lit(*x),
        VExpr::Add(a, b) => {
            VExpr::Add(Box::new(instantiate_expr(roles, a)), Box::new(instantiate_expr(roles, b)))
        }
        VExpr::Sub(a, b) => {
            VExpr::Sub(Box::new(instantiate_expr(roles, a)), Box::new(instantiate_expr(roles, b)))
        }
        VExpr::Mul(a, b) => {
            VExpr::Mul(Box::new(instantiate_expr(roles, a)), Box::new(instantiate_expr(roles, b)))
        }
        VExpr::Div(a, b) => {
            VExpr::Div(Box::new(instantiate_expr(roles, a)), Box::new(instantiate_expr(roles, b)))
        }
        VExpr::Neg(a) => VExpr::Neg(Box::new(instantiate_expr(roles, a))),
        VExpr::Sqrt(a) => VExpr::Sqrt(Box::new(instantiate_expr(roles, a))),
    }
}

fn write_view_signature(sig: &mut String, v: &View) {
    use std::fmt::Write;
    let _ = write!(
        sig,
        "{}x{}{}{:?}d{}",
        v.r1 - v.r0,
        v.c1 - v.c0,
        if v.trans { "t" } else { "" },
        v.structure,
        v.r0 as i64 - v.c0 as i64
    );
}

/// Whether `derive_fresh` would emit this instance entirely through one of
/// its scalar leaf cases. Leaf emission never consults the loop-invariant
/// policy, so leaf templates are cached policy-neutrally: a database used
/// for several (policy, ν) variants shares them. The autotuner gives each
/// variant its own database, so there only repeats within one derivation
/// hit.
fn is_scalar_leaf(inst: &EqInstance) -> bool {
    match &inst.op {
        SolveOp::Assign => true,
        SolveOp::Potrf { .. } | SolveOp::Trtri { .. } | SolveOp::Getrf { .. } => {
            inst.out.is_scalar()
        }
        SolveOp::TrsmLeft { t } | SolveOp::TrsmRight { t } => t.is_scalar(),
        SolveOp::Sylvester { l, u } => l.is_scalar() && u.is_scalar(),
    }
}

/// Build the instance's signature into `sig` (a reusable scratch buffer;
/// the caller clears and recycles it so cache hits never allocate).
fn instance_signature(
    sig: &mut String,
    inst: &EqInstance,
    policy: Policy,
    nu: usize,
    roles: &Roles,
) {
    use std::fmt::Write;
    // Scalar-leaf emission consults neither the loop-invariant policy nor
    // the block size ν, so leaf templates live in one fully neutral
    // keyspace that every (policy × ν) variant synthesized through the
    // same database shares. Block-level derivations stay qualified by both
    // because their loop schedules (and those of their descendants)
    // differ.
    if is_scalar_leaf(inst) {
        sig.push_str("any/");
    } else {
        let _ = write!(sig, "{policy}/nu{nu}/");
    }
    match &inst.op {
        SolveOp::Assign => sig.push_str("assign"),
        SolveOp::TrsmLeft { t } => {
            sig.push_str("trsml[");
            write_view_signature(sig, t);
            sig.push(']');
        }
        SolveOp::TrsmRight { t } => {
            sig.push_str("trsmr[");
            write_view_signature(sig, t);
            sig.push(']');
        }
        SolveOp::Potrf { lower } => {
            sig.push_str(if *lower { "potrfl" } else { "potrfu" });
        }
        SolveOp::Trtri { l } => {
            sig.push_str("trtri[");
            write_view_signature(sig, l);
            sig.push(']');
        }
        SolveOp::Sylvester { l, u } => {
            sig.push_str("sylv[");
            write_view_signature(sig, l);
            sig.push(';');
            write_view_signature(sig, u);
            sig.push(']');
        }
        SolveOp::Getrf { l } => {
            sig.push_str("getrf[");
            write_view_signature(sig, l);
            sig.push(']');
        }
    }
    sig.push_str("/out[");
    write_view_signature(sig, &inst.out);
    sig.push(']');
    match &inst.base {
        Term::V(v) => {
            sig.push_str("/base[");
            write_view_signature(sig, v);
            sig.push(']');
        }
        Term::Ident(n) => {
            let _ = write!(sig, "/baseI{n}");
        }
        Term::Zero(r, c) => {
            let _ = write!(sig, "/base0_{r}x{c}");
        }
        other => {
            let _ = write!(sig, "/base?{other}");
        }
    }
    // operand aliasing pattern across roles
    sig.push_str("/alias");
    for (i, (op, _, _)) in roles.slots.iter().enumerate() {
        let first = roles.slots.iter().position(|(o, _, _)| o == op).unwrap();
        let _ = write!(sig, "_{i}:{first}");
    }
}

/// The derivation context.
struct Deriver<'p, 'd> {
    program: &'p Program,
    policy: Policy,
    nu: usize,
    db: &'d mut AlgorithmDb,
    /// Scratch-buffer pool for signature building (one per active
    /// recursion level; buffers are recycled, so steady-state derivation
    /// allocates no signature strings).
    scratch: Vec<String>,
}

impl<'p, 'd> Deriver<'p, 'd> {
    fn term_to_vexpr(&self, t: &Term) -> Result<VExpr, SynthError> {
        match t {
            Term::V(v) => Ok(VExpr::View(*v)),
            Term::T(inner) => match inner.as_ref() {
                Term::V(v) => Ok(VExpr::View(v.t())),
                other => Err(SynthError::Unsupported(format!(
                    "transpose of non-view in emission: {other}"
                ))),
            },
            Term::Neg(inner) => Ok(VExpr::Neg(Box::new(self.term_to_vexpr(inner)?))),
            Term::Mul(a, b) => {
                Ok(VExpr::Mul(Box::new(self.term_to_vexpr(a)?), Box::new(self.term_to_vexpr(b)?)))
            }
            Term::Add(ts) => {
                let mut it = ts.iter();
                let first = it
                    .next()
                    .ok_or_else(|| SynthError::Unsupported("empty sum in emission".into()))?;
                let mut acc = self.term_to_vexpr(first)?;
                for t in it {
                    acc = VExpr::Add(Box::new(acc), Box::new(self.term_to_vexpr(t)?));
                }
                Ok(acc)
            }
            Term::Ident(1) => Ok(VExpr::Lit(1.0)),
            Term::Zero(1, 1) => Ok(VExpr::Lit(0.0)),
            other => Err(SynthError::Unsupported(format!("literal block in emission: {other}"))),
        }
    }

    /// `base ± updates` as a single expression.
    fn combine_rhs(&self, base: &Term, updates: &[Term]) -> Result<VExpr, SynthError> {
        let mut acc: Option<VExpr> = match base {
            z if z.is_zero() => None,
            t => Some(self.term_to_vexpr(t)?),
        };
        for u in updates {
            let (neg, core) = match u {
                Term::Neg(inner) => (true, inner.as_ref()),
                other => (false, other),
            };
            let e = self.term_to_vexpr(core)?;
            acc = Some(match acc {
                None => {
                    if neg {
                        VExpr::Neg(Box::new(e))
                    } else {
                        e
                    }
                }
                Some(a) => {
                    if neg {
                        VExpr::Sub(Box::new(a), Box::new(e))
                    } else {
                        VExpr::Add(Box::new(a), Box::new(e))
                    }
                }
            });
        }
        Ok(acc.unwrap_or(VExpr::Lit(0.0)))
    }

    /// Emit the statements for one equation instance.
    fn derive(&mut self, inst: &EqInstance, out: &mut BasicProgram) -> Result<(), SynthError> {
        if inst.out.is_empty() {
            return Ok(());
        }
        // Stage 1a: algorithm reuse through the database. The signature is
        // built in a recycled scratch buffer and matched against interned
        // symbols; the hit path performs no allocation beyond the emitted
        // statements themselves.
        let roles = Roles::of_instance(inst);
        let mut sig = self.scratch.pop().unwrap_or_default();
        sig.clear();
        instance_signature(&mut sig, inst, self.policy, self.nu, &roles);
        if self.db.enabled {
            let known = self.db.symbols.get(sig.as_str()).copied();
            if let Some(s) = known {
                if self.db.templates[s as usize].is_some() {
                    self.db.hits += 1;
                    let template = self.db.templates[s as usize].as_ref().unwrap();
                    for stmt in template {
                        out.push(BasicStmt {
                            lhs: roles.instantiate(&stmt.lhs),
                            rhs: instantiate_expr(&roles, &stmt.rhs),
                        });
                    }
                    self.scratch.push(sig);
                    return Ok(());
                }
            }
            self.db.misses += 1;
        }
        let start = out.stmts.len();
        // Intern before recursing so the scratch buffer can be recycled
        // by nested derivations.
        let sym = if self.db.enabled { Some(self.db.intern(&sig)) } else { None };
        self.scratch.push(sig);
        self.derive_fresh(inst, out)?;
        if let Some(sym) = sym {
            // relativize; skip caching if any view escapes the roles
            let relative: Option<Vec<BasicStmt>> = out.stmts[start..]
                .iter()
                .map(|s| {
                    Some(BasicStmt {
                        lhs: roles.relativize(&s.lhs)?,
                        rhs: relativize_expr(&roles, &s.rhs)?,
                    })
                })
                .collect();
            if let Some(t) = relative {
                let slot = &mut self.db.templates[sym as usize];
                if slot.is_none() {
                    self.db.stored += 1;
                }
                *slot = Some(t);
            }
        }
        Ok(())
    }

    /// Emit a policy-independent scalar leaf. Reaching this requires
    /// [`is_scalar_leaf`] — the same predicate that selects the
    /// policy-neutral cache keyspace — so cache key and emission cannot
    /// drift apart.
    fn emit_scalar_leaf(
        &mut self,
        inst: &EqInstance,
        out: &mut BasicProgram,
    ) -> Result<(), SynthError> {
        match &inst.op {
            SolveOp::Assign => {
                let rhs = self.term_to_vexpr(&inst.base)?;
                out.push(BasicStmt { lhs: inst.out, rhs });
            }
            SolveOp::Potrf { .. } => {
                let rhs = VExpr::Sqrt(Box::new(self.term_to_vexpr(&inst.base)?));
                out.push(BasicStmt { lhs: inst.out, rhs });
            }
            SolveOp::TrsmLeft { t } | SolveOp::TrsmRight { t } => {
                let rhs = VExpr::Div(
                    Box::new(self.term_to_vexpr(&inst.base)?),
                    Box::new(VExpr::View(*t)),
                );
                out.push(BasicStmt { lhs: inst.out, rhs });
            }
            SolveOp::Trtri { l } => {
                let rhs = VExpr::Div(Box::new(VExpr::Lit(1.0)), Box::new(VExpr::View(*l)));
                out.push(BasicStmt { lhs: inst.out, rhs });
            }
            SolveOp::Sylvester { l, u } => {
                let rhs = VExpr::Div(
                    Box::new(self.term_to_vexpr(&inst.base)?),
                    Box::new(VExpr::Add(Box::new(VExpr::View(*l)), Box::new(VExpr::View(*u)))),
                );
                out.push(BasicStmt { lhs: inst.out, rhs });
            }
            SolveOp::Getrf { l } => {
                // 1×1 LU: the unit diagonal of L is stored explicitly,
                // and U takes the pivot value
                out.push(BasicStmt { lhs: *l, rhs: VExpr::Lit(1.0) });
                let rhs = self.term_to_vexpr(&inst.base)?;
                out.push(BasicStmt { lhs: inst.out, rhs });
            }
        }
        Ok(())
    }

    fn derive_fresh(
        &mut self,
        inst: &EqInstance,
        out: &mut BasicProgram,
    ) -> Result<(), SynthError> {
        if is_scalar_leaf(inst) {
            return self.emit_scalar_leaf(inst, out);
        }

        // build the equation terms
        let out_term = Term::V(inst.out);
        let view_term = |v: &View| -> Term {
            if v.trans {
                Term::T(Box::new(Term::V(v.t()))) // store untransposed leaf
            } else {
                Term::V(*v)
            }
        };
        let (lhs, rhs) = match &inst.op {
            SolveOp::Potrf { lower: false } => (
                Term::Mul(Box::new(out_term.transposed()), Box::new(out_term.clone())),
                inst.base.clone(),
            ),
            SolveOp::Potrf { lower: true } => (
                Term::Mul(Box::new(out_term.clone()), Box::new(out_term.transposed())),
                inst.base.clone(),
            ),
            SolveOp::TrsmLeft { t } => {
                (Term::Mul(Box::new(view_term(t)), Box::new(out_term.clone())), inst.base.clone())
            }
            SolveOp::TrsmRight { t } => {
                (Term::Mul(Box::new(out_term.clone()), Box::new(view_term(t))), inst.base.clone())
            }
            SolveOp::Trtri { l } => (
                Term::Mul(Box::new(view_term(l)), Box::new(out_term.clone())),
                Term::Ident(inst.out.rows()),
            ),
            SolveOp::Sylvester { l, u } => (
                Term::Add(vec![
                    Term::Mul(Box::new(view_term(l)), Box::new(out_term.clone())),
                    Term::Mul(Box::new(out_term.clone()), Box::new(view_term(u))),
                ]),
                inst.base.clone(),
            ),
            SolveOp::Getrf { l } => {
                (Term::Mul(Box::new(view_term(l)), Box::new(out_term.clone())), inst.base.clone())
            }
            SolveOp::Assign => unreachable!("handled above"),
        };

        let mut dims = analyze(&lhs, &rhs)?;
        let groups = dims.groups();
        let (group, extent) = groups.iter().copied().find(|(_, e)| *e > 1).ok_or_else(|| {
            SynthError::Unsupported(format!(
                "no partitionable dimension for {:?} at {}",
                inst.op, inst.out
            ))
        })?;
        // LU writes its intermediate values into the factors' structured
        // storage, which is only well-formed at element granularity with
        // lazy (left-looking) scheduling: force both for Getrf.
        let getrf = matches!(inst.op, SolveOp::Getrf { .. });
        let nb = if getrf {
            1
        } else if extent > self.nu {
            self.nu
        } else {
            1
        };
        // Eager (right-looking) scheduling accumulates updates *into the
        // unknown's storage*; that is only sound when the base already
        // lives there (in-place semantics). With a foreign read-only base
        // (e.g. the trsm sub-solves of LU reading `A`), fall back to lazy.
        let foreign_base = matches!(&inst.base, Term::V(v)
            if !(v.op == inst.out.op && v.same_region(&inst.out)));
        let policy = if getrf || foreign_base { Policy::Lazy } else { self.policy };

        // Traversal direction from the PME's dependency structure: if a
        // Top-indexed cell depends on a Bottom-indexed cell's output, the
        // boundary must move backward (e.g. X·L = B with lower L is a
        // back substitution).
        let mid = (extent / 2).max(1);
        let unknowns = inst.unknowns();
        let probe = pme_cells(
            self.program,
            &lhs,
            &rhs,
            &unknowns,
            &mut dims,
            group,
            SegRanges { t: (0, mid), b: (mid, extent) },
        )?;
        let ord = |c: &CellSolve| c.row_seg.max(c.col_seg);
        let mut fwd_violations = 0usize;
        let mut bwd_violations = 0usize;
        for c in &probe {
            for d in &c.deps {
                if let Some(p) = probe.iter().find(|p| p.out.same_region(d)) {
                    if ord(p) > ord(c) {
                        fwd_violations += 1;
                    }
                    if ord(p) < ord(c) {
                        bwd_violations += 1;
                    }
                }
            }
        }
        let forward = fwd_violations == 0;
        if !forward && bwd_violations > 0 {
            return Err(SynthError::Unrecognized(format!(
                "PME of {:?} has no consistent traversal direction",
                inst.op
            )));
        }

        // block boundaries, in traversal order
        let mut blocks: Vec<(usize, usize)> = Vec::new();
        let mut i = 0;
        while i < extent {
            let hi = (i + nb).min(extent);
            blocks.push((i, hi));
            i = hi;
        }
        if !forward {
            blocks.reverse();
        }

        for (lo, hi) in blocks {
            // segment ranges and labels per policy × direction
            let (segs, t_label, b_label) = match (policy, forward) {
                (Policy::Lazy, true) => {
                    (SegRanges { t: (0, lo), b: (lo, hi) }, Label::Done, Label::Current)
                }
                (Policy::Lazy, false) => {
                    (SegRanges { t: (lo, hi), b: (hi, extent) }, Label::Current, Label::Done)
                }
                (Policy::Eager, true) => {
                    (SegRanges { t: (lo, hi), b: (hi, extent) }, Label::Current, Label::Rest)
                }
                (Policy::Eager, false) => {
                    (SegRanges { t: (0, lo), b: (lo, hi) }, Label::Rest, Label::Current)
                }
            };
            let cells = pme_cells(self.program, &lhs, &rhs, &unknowns, &mut dims, group, segs)?;
            for cell in &cells {
                self.emit_cell(inst, cell, &cells, t_label, b_label, out)?;
            }
        }
        Ok(())
    }

    fn emit_cell(
        &mut self,
        parent: &EqInstance,
        cell: &CellSolve,
        siblings: &[CellSolve],
        t_label: Label,
        b_label: Label,
        out: &mut BasicProgram,
    ) -> Result<(), SynthError> {
        if cell.out.is_empty() {
            return Ok(());
        }
        // labels this cell touches (only along split axes)
        let mut labels = Vec::new();
        if cell.grid.0 > 1 {
            labels.push(if cell.row_seg == 0 { t_label } else { b_label });
        }
        if cell.grid.1 > 1 {
            labels.push(if cell.col_seg == 0 { t_label } else { b_label });
        }
        let touches = |l: Label| labels.contains(&l);
        if !touches(Label::Current) {
            if touches(Label::Rest) {
                // eager trailing update: apply only the update atoms that
                // read freshly solved (Current) outputs
                let current_outputs: Vec<View> = siblings
                    .iter()
                    .filter(|c| {
                        let row_cur = c.grid.0 > 1
                            && (if c.row_seg == 0 { t_label } else { b_label }) == Label::Current;
                        let col_cur = c.grid.1 > 1
                            && (if c.col_seg == 0 { t_label } else { b_label }) == Label::Current;
                        row_cur || col_cur
                    })
                    .map(|c| c.out)
                    .collect();
                let updates: Vec<Term> = cell
                    .updates
                    .iter()
                    .filter(|u| {
                        !u.is_zero()
                            && current_outputs.iter().any(|o| {
                                let mut found = false;
                                u.for_each_view(&mut |v| {
                                    if v.op == o.op && v.same_region(o) {
                                        found = true;
                                    }
                                });
                                found
                            })
                    })
                    .cloned()
                    .collect();
                if updates.is_empty() {
                    return Ok(());
                }
                let rhs = self.combine_rhs(&Term::V(cell.out), &updates)?;
                out.push(BasicStmt { lhs: cell.out, rhs });
            }
            return Ok(());
        }
        let updates: Vec<Term> = cell.updates.iter().filter(|u| !u.is_zero()).cloned().collect();
        let op = refine_trtri(cell.op.clone(), &cell.base, &cell.out);
        // Fuse updates into the scalar solves; otherwise combine first and
        // solve in place.
        let scalar_fusable = match &op {
            SolveOp::Potrf { .. } | SolveOp::Trtri { .. } | SolveOp::Getrf { .. } => {
                cell.out.is_scalar()
            }
            SolveOp::TrsmLeft { t } | SolveOp::TrsmRight { t } => t.is_scalar(),
            SolveOp::Sylvester { l, u } => l.is_scalar() && u.is_scalar(),
            SolveOp::Assign => true,
        };
        let base = if updates.is_empty() || scalar_fusable {
            if updates.is_empty() {
                cell.base.clone()
            } else {
                // fold base and updates into one right-hand side term
                let mut ts = vec![cell.base.clone()];
                ts.extend(updates.iter().cloned());
                Term::Add(ts).simplify()
            }
        } else {
            let rhs = self.combine_rhs(&cell.base, &updates)?;
            out.push(BasicStmt { lhs: cell.out, rhs });
            Term::V(cell.out)
        };
        let inst = EqInstance { op, out: cell.out, base };
        self.derive(&inst, out)?;
        // maintain full storage of symmetric unknowns
        if parent.out.structure.is_symmetric()
            && matches!(parent.out.structure, Structure::Symmetric(_))
            && (cell.out.r0, cell.out.r1) != (cell.out.c0, cell.out.c1)
        {
            let mirror = View {
                op: cell.out.op,
                r0: cell.out.c0,
                r1: cell.out.c1,
                c0: cell.out.r0,
                c1: cell.out.r1,
                trans: false,
                structure: Structure::General,
            };
            out.push(BasicStmt { lhs: mirror, rhs: VExpr::View(cell.out.t()) });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Entry points: LA program -> basic program
// ---------------------------------------------------------------------

fn expr_to_term(program: &Program, e: &Expr) -> Result<Term, SynthError> {
    match e {
        Expr::Operand(id) => {
            let d = program.operand(*id);
            Ok(region_term(program, *id, 0, d.shape.rows, 0, d.shape.cols))
        }
        Expr::Transpose(inner) => Ok(expr_to_term(program, inner)?.transposed()),
        Expr::Neg(inner) => Ok(Term::Neg(Box::new(expr_to_term(program, inner)?)).simplify()),
        Expr::Add(a, b) => {
            Ok(Term::Add(vec![expr_to_term(program, a)?, expr_to_term(program, b)?]))
        }
        Expr::Sub(a, b) => Ok(Term::Add(vec![
            expr_to_term(program, a)?,
            Term::Neg(Box::new(expr_to_term(program, b)?)),
        ])),
        Expr::Mul(a, b) => {
            Ok(Term::Mul(Box::new(expr_to_term(program, a)?), Box::new(expr_to_term(program, b)?)))
        }
        other => Err(SynthError::Unsupported(format!("expression form in HLAC: {other:?}"))),
    }
}

fn expr_to_vexpr(program: &Program, e: &Expr) -> Result<VExpr, SynthError> {
    match e {
        Expr::Operand(id) => Ok(VExpr::View(View::full(program, *id))),
        Expr::Lit(v) => Ok(VExpr::Lit(*v)),
        Expr::Transpose(inner) => match inner.as_ref() {
            Expr::Operand(id) => Ok(VExpr::View(View::full(program, *id).t())),
            other => Err(SynthError::Unsupported(format!(
                "transpose of a compound expression: {other:?}"
            ))),
        },
        Expr::Add(a, b) => Ok(VExpr::Add(
            Box::new(expr_to_vexpr(program, a)?),
            Box::new(expr_to_vexpr(program, b)?),
        )),
        Expr::Sub(a, b) => Ok(VExpr::Sub(
            Box::new(expr_to_vexpr(program, a)?),
            Box::new(expr_to_vexpr(program, b)?),
        )),
        Expr::Mul(a, b) => Ok(VExpr::Mul(
            Box::new(expr_to_vexpr(program, a)?),
            Box::new(expr_to_vexpr(program, b)?),
        )),
        Expr::Neg(a) => Ok(VExpr::Neg(Box::new(expr_to_vexpr(program, a)?))),
        Expr::Div(a, b) => Ok(VExpr::Div(
            Box::new(expr_to_vexpr(program, a)?),
            Box::new(expr_to_vexpr(program, b)?),
        )),
        Expr::Sqrt(a) => Ok(VExpr::Sqrt(Box::new(expr_to_vexpr(program, a)?))),
        Expr::Inverse(_) => {
            Err(SynthError::Unsupported("inverse outside `X = inv(A)` form".into()))
        }
    }
}

/// Synthesize one HLAC equation into basic statements.
///
/// `defined` tracks already-computed operands (updated on return);
/// `nu` is the vector width the recursion blocks toward.
///
/// # Errors
///
/// Returns [`SynthError`] when the equation does not match the supported
/// operation class.
#[allow(clippy::too_many_arguments)]
pub fn synthesize_equation(
    program: &Program,
    lhs: &Expr,
    rhs: &Expr,
    defined: &mut [bool],
    policy: Policy,
    nu: usize,
    db: &mut AlgorithmDb,
    out: &mut BasicProgram,
) -> Result<(), SynthError> {
    let unknown_ids = slingen_ir::typecheck::equation_unknowns(program, defined, lhs);
    let unknown = *unknown_ids
        .first()
        .ok_or_else(|| SynthError::Unsupported("equation without an unknown".into()))?;
    let out_view = View::full(program, unknown);
    let unknowns: Vec<(slingen_ir::OpId, View)> =
        unknown_ids.iter().map(|id| (*id, View::full(program, *id))).collect();

    // `X = inv(A)` becomes `A·X = I`
    let (lhs_term, rhs_term) = if let Expr::Inverse(a) = rhs {
        let a_term = expr_to_term(program, a)?;
        let n = a_term.rows();
        (Term::Mul(Box::new(a_term), Box::new(Term::V(out_view))), Term::Ident(n))
    } else {
        (expr_to_term(program, lhs)?, expr_to_term(program, rhs)?)
    };

    let cell = crate::pme::single_cell(program, &lhs_term, &rhs_term, &unknowns)?;
    let op = refine_trtri(cell.op.clone(), &cell.base, &cell.out);

    // In-place setup: the unknown's storage receives the base values
    // (paper: `ow(..)` avoids this copy by sharing storage).
    let mut base = cell.base.clone();
    if let Term::V(bv) = &base {
        let shares_storage = program.operand(unknown).overwrites == Some(bv.op)
            || program.operand(bv.op).overwrites == Some(unknown)
            || bv.op == unknown;
        if !matches!(op, SolveOp::Trtri { .. } | SolveOp::Getrf { .. }) {
            if !shares_storage {
                out.push(BasicStmt { lhs: out_view, rhs: VExpr::View(*bv) });
            }
            base = Term::V(out_view);
        }
    }
    // updates at the top level (e.g. `Uᵀ·U = S - x·xᵀ`) fold into the copy
    let updates: Vec<Term> = cell.updates.iter().filter(|u| !u.is_zero()).cloned().collect();
    let mut deriver = Deriver { program, policy, nu, db, scratch: Vec::new() };
    if !updates.is_empty() {
        let rhs = deriver.combine_rhs(&base, &updates)?;
        out.push(BasicStmt { lhs: out_view, rhs });
        base = Term::V(out_view);
    }

    let inst = EqInstance { op, out: cell.out, base };
    deriver.derive(&inst, out)?;
    for id in &unknown_ids {
        defined[id.0] = true;
    }
    Ok(())
}

/// Synthesize a whole LA program (Stage 1): sBLACs pass through as
/// region-level statements; HLACs are expanded into basic form.
///
/// # Errors
///
/// Returns [`SynthError`] if any HLAC falls outside the supported class.
pub fn synthesize_program(
    program: &Program,
    policy: Policy,
    nu: usize,
    db: &mut AlgorithmDb,
) -> Result<BasicProgram, SynthError> {
    let mut out = BasicProgram::new();
    let mut defined: Vec<bool> =
        program.operands().iter().map(|o| o.io.readable_at_entry()).collect();
    synth_stmts(program, program.statements(), &mut defined, policy, nu, db, &mut out)?;
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn synth_stmts(
    program: &Program,
    stmts: &[Stmt],
    defined: &mut [bool],
    policy: Policy,
    nu: usize,
    db: &mut AlgorithmDb,
    out: &mut BasicProgram,
) -> Result<(), SynthError> {
    for stmt in stmts {
        match stmt {
            Stmt::Assign { lhs, rhs } => {
                let mut lv = View::full(program, *lhs);
                // symmetric outputs of plain sBLACs are computed in full
                // storage (both halves valid for later reads)
                if lv.structure.is_symmetric() {
                    lv.structure = Structure::General;
                }
                out.push(BasicStmt { lhs: lv, rhs: expr_to_vexpr(program, rhs)? });
                defined[lhs.0] = true;
            }
            Stmt::Equation { lhs, rhs } => {
                synthesize_equation(program, lhs, rhs, defined, policy, nu, db, out)?;
            }
            Stmt::For { count, body } => {
                for _ in 0..*count {
                    synth_stmts(program, body, defined, policy, nu, db, out)?;
                }
            }
        }
    }
    Ok(())
}
