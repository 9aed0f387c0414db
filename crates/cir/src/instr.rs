//! C-IR instructions.
//!
//! The instruction set mirrors what SLinGen's backend needs to express
//! vectorized small-scale linear algebra: scalar FP arithmetic, vector FP
//! arithmetic of a fixed width ν, and the data-movement vocabulary of the
//! paper — `Vecload`/`Vecstore` with per-lane position maps, broadcasts,
//! shuffles, and blends (Figs. 11–12).
//!
//! Vector loads and stores carry an explicit *lane map*: lane `i` of the
//! register corresponds to memory element `base + lane[i]` (`None` = lane
//! is not accessed; loads fill such lanes with zero). A contiguous map
//! `[0, 1, .., ν-1]` is a plain (unaligned) vector access; anything else
//! models the paper's Loaders/Storers for leftovers, strided (vertical)
//! access, and structured matrices, and is *costed* accordingly by the
//! performance model.

use crate::affine::Affine;
use crate::func::BufId;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A scalar (double-precision) register variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SReg(pub usize);

impl fmt::Display for SReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A vector register variable of the function's width ν.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VReg(pub usize);

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A memory reference: element index `offset` into buffer `buf`.
///
/// Offsets are in *elements* (doubles), not bytes, and may involve loop
/// variables.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// The referenced buffer.
    pub buf: BufId,
    /// Affine element offset.
    pub offset: Affine,
}

impl MemRef {
    /// Reference `buf[offset]`.
    pub fn new(buf: BufId, offset: impl Into<Affine>) -> MemRef {
        MemRef { buf, offset: offset.into() }
    }

    /// This reference displaced by a constant number of elements.
    pub fn displaced(&self, delta: i64) -> MemRef {
        MemRef { buf: self.buf, offset: self.offset.offset(delta) }
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.buf, self.offset)
    }
}

/// Scalar operand: a register or an immediate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SOperand {
    /// A scalar register.
    Reg(SReg),
    /// An immediate double constant.
    Imm(f64),
}

/// Hashes an immediate by its IEEE-754 bits, so `0.0` and `-0.0` (which
/// compare equal but print differently) hash apart. `SOperand` is not
/// `Eq`, so this hash only feeds structural fingerprints
/// ([`crate::Function::fingerprint`]), never a std map key.
impl Hash for SOperand {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            SOperand::Reg(r) => {
                state.write_u8(0);
                r.hash(state);
            }
            SOperand::Imm(v) => {
                state.write_u8(1);
                state.write_u64(v.to_bits());
            }
        }
    }
}

impl From<SReg> for SOperand {
    fn from(r: SReg) -> SOperand {
        SOperand::Reg(r)
    }
}

impl From<f64> for SOperand {
    fn from(v: f64) -> SOperand {
        SOperand::Imm(v)
    }
}

impl fmt::Display for SOperand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SOperand::Reg(r) => write!(f, "{r}"),
            SOperand::Imm(v) => write!(f, "{v}"),
        }
    }
}

/// Binary floating-point operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

impl BinOp {
    /// Apply to concrete values.
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
        })
    }
}

/// The sign pattern of a fused multiply-add (the x86 FMA3 forms the
/// contraction pass needs: Cholesky-style updates are `c - a*b`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FmaKind {
    /// `a * b + c` (`fmadd`).
    MulAdd,
    /// `a * b - c` (`fmsub`).
    MulSub,
    /// `c - a * b` (`fnmadd`).
    NegMulAdd,
}

impl FmaKind {
    /// Apply to concrete values, fused (single rounding): every form is
    /// an exact `mul_add` with sign-flipped operands.
    pub fn apply(self, a: f64, b: f64, c: f64) -> f64 {
        match self {
            FmaKind::MulAdd => a.mul_add(b, c),
            FmaKind::MulSub => a.mul_add(b, -c),
            FmaKind::NegMulAdd => (-a).mul_add(b, c),
        }
    }

    /// The equivalent two-op result (rounded product, then add/sub).
    pub fn apply_unfused(self, a: f64, b: f64, c: f64) -> f64 {
        match self {
            FmaKind::MulAdd => a * b + c,
            FmaKind::MulSub => a * b - c,
            FmaKind::NegMulAdd => c - a * b,
        }
    }

    /// The intrinsic name stem (`fmadd`, `fmsub`, `fnmadd`).
    pub fn intrinsic_stem(self) -> &'static str {
        match self {
            FmaKind::MulAdd => "fmadd",
            FmaKind::MulSub => "fmsub",
            FmaKind::NegMulAdd => "fnmadd",
        }
    }
}

impl fmt::Display for FmaKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.intrinsic_stem())
    }
}

/// One lane of a two-source shuffle: pick lane `lane` from source `a`/`b`,
/// or produce zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LaneSel {
    /// Take the given lane of the first source.
    A(usize),
    /// Take the given lane of the second source.
    B(usize),
    /// Produce 0.0.
    Zero,
}

impl fmt::Display for LaneSel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaneSel::A(i) => write!(f, "a{i}"),
            LaneSel::B(i) => write!(f, "b{i}"),
            LaneSel::Zero => write!(f, "0"),
        }
    }
}

/// A C-IR instruction.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Instr {
    // ---- scalar ----
    /// `dst = mem`
    SLoad {
        /// Destination scalar register.
        dst: SReg,
        /// Source memory location.
        src: MemRef,
    },
    /// `mem = src`
    SStore {
        /// Stored value.
        src: SOperand,
        /// Destination memory location.
        dst: MemRef,
    },
    /// `dst = a op b`
    SBin {
        /// Operation.
        op: BinOp,
        /// Destination.
        dst: SReg,
        /// First operand.
        a: SOperand,
        /// Second operand.
        b: SOperand,
    },
    /// `dst = sqrt(a)`
    SSqrt {
        /// Destination.
        dst: SReg,
        /// Operand.
        a: SOperand,
    },
    /// Fused multiply-add, `dst = ±(a * b) ± c` per [`FmaKind`] (single
    /// rounding).
    ///
    /// Produced by the [`crate::passes::contract`] pass on FMA-capable
    /// targets. The VM executes it with `f64::mul_add`, so the result can
    /// differ from the separate mul+add/sub sequence by up to 1 ULP per
    /// contraction (the intermediate product is not rounded).
    SFma {
        /// Sign pattern.
        kind: FmaKind,
        /// Destination.
        dst: SReg,
        /// Multiplicand.
        a: SOperand,
        /// Multiplier.
        b: SOperand,
        /// Addend.
        c: SOperand,
    },
    /// `dst = a` (register copy / immediate materialization)
    SMov {
        /// Destination.
        dst: SReg,
        /// Source.
        a: SOperand,
    },
    // ---- vector ----
    /// Vector load with per-lane offsets relative to `base` (the paper's
    /// `Vecload`). Lane `i` reads `base + lanes[i]`; `None` lanes are 0.
    VLoad {
        /// Destination vector register.
        dst: VReg,
        /// Base address.
        base: MemRef,
        /// Per-lane element offsets.
        lanes: Vec<Option<i64>>,
    },
    /// Vector store with per-lane offsets (the paper's `Vecstore`). Lane
    /// `i` writes `base + lanes[i]`; `None` lanes are suppressed (masked).
    VStore {
        /// Source vector register.
        src: VReg,
        /// Base address.
        base: MemRef,
        /// Per-lane element offsets.
        lanes: Vec<Option<i64>>,
    },
    /// `dst = src` (vector register copy; inserted by CSE).
    VMov {
        /// Destination.
        dst: VReg,
        /// Source.
        src: VReg,
    },
    /// `dst = a op b`, element-wise.
    VBin {
        /// Operation.
        op: BinOp,
        /// Destination.
        dst: VReg,
        /// First operand.
        a: VReg,
        /// Second operand.
        b: VReg,
    },
    /// Fused multiply-add, element-wise (see [`Instr::SFma`]).
    VFma {
        /// Sign pattern.
        kind: FmaKind,
        /// Destination.
        dst: VReg,
        /// Multiplicand.
        a: VReg,
        /// Multiplier.
        b: VReg,
        /// Addend.
        c: VReg,
    },
    /// Broadcast a scalar register/immediate into all lanes.
    VBroadcast {
        /// Destination.
        dst: VReg,
        /// Broadcast value.
        src: SOperand,
    },
    /// Two-source lane permute (`dst[i] = sel[i]`); subsumes unpacks,
    /// permutes, and single-source shuffles (set `b = a`).
    VShuffle {
        /// Destination.
        dst: VReg,
        /// First source.
        a: VReg,
        /// Second source.
        b: VReg,
        /// Per-lane selection.
        sel: Vec<LaneSel>,
    },
    /// Per-lane select: `dst[i] = if mask[i] { b[i] } else { a[i] }`
    /// (AVX `blend` with an immediate mask).
    VBlend {
        /// Destination.
        dst: VReg,
        /// First source (mask bit 0).
        a: VReg,
        /// Second source (mask bit 1).
        b: VReg,
        /// Per-lane mask.
        mask: Vec<bool>,
    },
    /// Extract one lane into a scalar register.
    VExtract {
        /// Destination scalar.
        dst: SReg,
        /// Source vector.
        src: VReg,
        /// Lane index.
        lane: usize,
    },
    /// Horizontal sum of all lanes into a scalar register.
    VReduceAdd {
        /// Destination scalar.
        dst: SReg,
        /// Source vector.
        src: VReg,
    },
    /// Opaque call into a pre-built library kernel (used only by the
    /// library-based *baselines*; SLinGen's own output never contains
    /// calls). The callee is named so the VM can dispatch, and the cost
    /// model charges the interface overhead the paper attributes to
    /// fixed library APIs.
    Call {
        /// Kernel name (resolved by the VM's kernel registry).
        kernel: String,
        /// Buffer arguments.
        bufs: Vec<BufId>,
        /// Integer arguments (sizes, leading dimensions, flags).
        ints: Vec<i64>,
    },
}

/// Instruction classes used by the performance model (issue ports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InstrClass {
    /// Memory read.
    Load,
    /// Memory write.
    Store,
    /// FP add/sub (scalar or vector).
    FAdd,
    /// FP multiply.
    FMul,
    /// Fused multiply-add (issues on the multiply port).
    Fma,
    /// FP divide or square root (the unpipelined divider).
    FDivSqrt,
    /// Lane permute (shuffle port).
    Shuffle,
    /// Blend.
    Blend,
    /// Register move / broadcast from register.
    Mov,
    /// Library call overhead.
    Call,
}

impl InstrClass {
    /// All instruction classes, for iteration.
    pub const ALL: [InstrClass; 10] = [
        InstrClass::Load,
        InstrClass::Store,
        InstrClass::FAdd,
        InstrClass::FMul,
        InstrClass::Fma,
        InstrClass::FDivSqrt,
        InstrClass::Shuffle,
        InstrClass::Blend,
        InstrClass::Mov,
        InstrClass::Call,
    ];

    /// Inverse of the `Display` names — used by the persistent tuning
    /// cache, so the names above are a stable wire format.
    pub fn parse(s: &str) -> Option<InstrClass> {
        InstrClass::ALL.iter().copied().find(|c| c.to_string() == s)
    }
}

impl fmt::Display for InstrClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InstrClass::Load => "load",
            InstrClass::Store => "store",
            InstrClass::FAdd => "fadd",
            InstrClass::FMul => "fmul",
            InstrClass::Fma => "fma",
            InstrClass::FDivSqrt => "fdiv",
            InstrClass::Shuffle => "shuffle",
            InstrClass::Blend => "blend",
            InstrClass::Mov => "mov",
            InstrClass::Call => "call",
        };
        f.write_str(s)
    }
}

impl Instr {
    /// The primary issue class of this instruction.
    pub fn class(&self) -> InstrClass {
        match self {
            Instr::SLoad { .. } | Instr::VLoad { .. } => InstrClass::Load,
            Instr::SStore { .. } | Instr::VStore { .. } => InstrClass::Store,
            Instr::SBin { op, .. } | Instr::VBin { op, .. } => match op {
                BinOp::Add | BinOp::Sub => InstrClass::FAdd,
                BinOp::Mul => InstrClass::FMul,
                BinOp::Div => InstrClass::FDivSqrt,
            },
            Instr::SFma { .. } | Instr::VFma { .. } => InstrClass::Fma,
            Instr::SSqrt { .. } => InstrClass::FDivSqrt,
            Instr::SMov { .. } | Instr::VMov { .. } => InstrClass::Mov,
            Instr::VBroadcast { .. } => InstrClass::Mov,
            Instr::VShuffle { .. } => InstrClass::Shuffle,
            Instr::VBlend { .. } => InstrClass::Blend,
            Instr::VExtract { .. } => InstrClass::Shuffle,
            Instr::VReduceAdd { .. } => InstrClass::FAdd,
            Instr::Call { .. } => InstrClass::Call,
        }
    }

    /// Scalar registers read by this instruction.
    pub fn sreg_reads(&self) -> Vec<SReg> {
        let mut out = Vec::new();
        self.for_each_sreg_read(|r| out.push(r));
        out
    }

    /// Visit every scalar register read, without allocating. The hot
    /// paths (DCE usage collection, the scheduler's readiness scan) call
    /// this once per instruction per scan; [`Instr::sreg_reads`] is the
    /// allocating convenience wrapper.
    pub fn for_each_sreg_read(&self, mut visit: impl FnMut(SReg)) {
        let mut push = |o: &SOperand| {
            if let SOperand::Reg(r) = o {
                visit(*r);
            }
        };
        match self {
            Instr::SStore { src, .. } => push(src),
            Instr::SBin { a, b, .. } => {
                push(a);
                push(b);
            }
            Instr::SFma { a, b, c, .. } => {
                push(a);
                push(b);
                push(c);
            }
            Instr::SSqrt { a, .. } | Instr::SMov { a, .. } => push(a),
            Instr::VBroadcast { src, .. } => push(src),
            _ => {}
        }
    }

    /// Vector registers read by this instruction.
    pub fn vreg_reads(&self) -> Vec<VReg> {
        let mut out = Vec::new();
        self.for_each_vreg_read(|r| out.push(r));
        out
    }

    /// Visit every vector register read, without allocating (see
    /// [`Instr::for_each_sreg_read`]).
    pub fn for_each_vreg_read(&self, mut visit: impl FnMut(VReg)) {
        match self {
            Instr::VStore { src, .. } | Instr::VMov { src, .. } => visit(*src),
            Instr::VBin { a, b, .. }
            | Instr::VShuffle { a, b, .. }
            | Instr::VBlend { a, b, .. } => {
                visit(*a);
                visit(*b);
            }
            Instr::VFma { a, b, c, .. } => {
                visit(*a);
                visit(*b);
                visit(*c);
            }
            Instr::VExtract { src, .. } | Instr::VReduceAdd { src, .. } => visit(*src),
            _ => {}
        }
    }

    /// The scalar register written, if any.
    pub fn sreg_write(&self) -> Option<SReg> {
        match self {
            Instr::SLoad { dst, .. }
            | Instr::SBin { dst, .. }
            | Instr::SFma { dst, .. }
            | Instr::SSqrt { dst, .. }
            | Instr::SMov { dst, .. }
            | Instr::VExtract { dst, .. }
            | Instr::VReduceAdd { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// The vector register written, if any.
    pub fn vreg_write(&self) -> Option<VReg> {
        match self {
            Instr::VLoad { dst, .. }
            | Instr::VMov { dst, .. }
            | Instr::VBin { dst, .. }
            | Instr::VFma { dst, .. }
            | Instr::VBroadcast { dst, .. }
            | Instr::VShuffle { dst, .. }
            | Instr::VBlend { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// Whether this instruction touches memory (including calls).
    pub fn touches_memory(&self) -> bool {
        matches!(
            self,
            Instr::SLoad { .. }
                | Instr::SStore { .. }
                | Instr::VLoad { .. }
                | Instr::VStore { .. }
                | Instr::Call { .. }
        )
    }

    /// Double-precision flops performed (vector ops count ν per active
    /// lane set; used for flops/cycle reporting).
    pub fn flops(&self, width: usize) -> u64 {
        match self {
            Instr::SBin { .. } | Instr::SSqrt { .. } => 1,
            Instr::SFma { .. } => 2,
            Instr::VBin { .. } => width as u64,
            Instr::VFma { .. } => 2 * width as u64,
            Instr::VReduceAdd { .. } => width.saturating_sub(1) as u64,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::Affine;

    #[test]
    fn classes() {
        let m = MemRef::new(BufId(0), Affine::zero());
        assert_eq!(Instr::SLoad { dst: SReg(0), src: m.clone() }.class(), InstrClass::Load);
        assert_eq!(
            Instr::SBin { op: BinOp::Div, dst: SReg(0), a: SReg(1).into(), b: SReg(2).into() }
                .class(),
            InstrClass::FDivSqrt
        );
        assert_eq!(
            Instr::VBin { op: BinOp::Mul, dst: VReg(0), a: VReg(1), b: VReg(2) }.class(),
            InstrClass::FMul
        );
        assert_eq!(
            Instr::VBlend { dst: VReg(0), a: VReg(1), b: VReg(2), mask: vec![true, false] }.class(),
            InstrClass::Blend
        );
    }

    #[test]
    fn read_write_sets() {
        let i = Instr::SBin { op: BinOp::Add, dst: SReg(3), a: SReg(1).into(), b: 2.0.into() };
        assert_eq!(i.sreg_reads(), vec![SReg(1)]);
        assert_eq!(i.sreg_write(), Some(SReg(3)));
        assert_eq!(i.vreg_write(), None);

        let v = Instr::VShuffle {
            dst: VReg(0),
            a: VReg(1),
            b: VReg(2),
            sel: vec![LaneSel::A(0), LaneSel::B(1)],
        };
        assert_eq!(v.vreg_reads(), vec![VReg(1), VReg(2)]);
        assert_eq!(v.vreg_write(), Some(VReg(0)));
    }

    #[test]
    fn fma_reads_writes_and_class() {
        let s = Instr::SFma {
            kind: FmaKind::MulAdd,
            dst: SReg(3),
            a: SReg(0).into(),
            b: 2.0.into(),
            c: SReg(1).into(),
        };
        assert_eq!(s.class(), InstrClass::Fma);
        assert_eq!(s.sreg_reads(), vec![SReg(0), SReg(1)]);
        assert_eq!(s.sreg_write(), Some(SReg(3)));
        assert_eq!(s.flops(1), 2);
        let v = Instr::VFma {
            kind: FmaKind::NegMulAdd,
            dst: VReg(3),
            a: VReg(0),
            b: VReg(1),
            c: VReg(2),
        };
        assert_eq!(v.class(), InstrClass::Fma);
        assert_eq!(v.vreg_reads(), vec![VReg(0), VReg(1), VReg(2)]);
        assert_eq!(v.vreg_write(), Some(VReg(3)));
        assert_eq!(v.flops(4), 8);
        assert!(!v.touches_memory());
    }

    #[test]
    fn fma_kinds_apply_their_sign_patterns() {
        assert_eq!(FmaKind::MulAdd.apply(2.0, 3.0, 4.0), 10.0);
        assert_eq!(FmaKind::MulSub.apply(2.0, 3.0, 4.0), 2.0);
        assert_eq!(FmaKind::NegMulAdd.apply(2.0, 3.0, 4.0), -2.0);
        for k in [FmaKind::MulAdd, FmaKind::MulSub, FmaKind::NegMulAdd] {
            assert_eq!(k.apply(2.0, 3.0, 4.0), k.apply_unfused(2.0, 3.0, 4.0));
        }
    }

    #[test]
    fn flop_counting() {
        let add = Instr::VBin { op: BinOp::Add, dst: VReg(0), a: VReg(1), b: VReg(2) };
        assert_eq!(add.flops(4), 4);
        let red = Instr::VReduceAdd { dst: SReg(0), src: VReg(1) };
        assert_eq!(red.flops(4), 3);
        let mov = Instr::SMov { dst: SReg(0), a: 1.0.into() };
        assert_eq!(mov.flops(4), 0);
    }

    #[test]
    fn memref_displacement() {
        let m = MemRef::new(BufId(2), Affine::constant(5));
        assert_eq!(m.displaced(3).offset.as_constant(), Some(8));
        assert_eq!(m.to_string(), "buf2[5]");
    }

    #[test]
    fn binop_apply() {
        assert_eq!(BinOp::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(BinOp::Sub.apply(2.0, 3.0), -1.0);
        assert_eq!(BinOp::Mul.apply(2.0, 3.0), 6.0);
        assert_eq!(BinOp::Div.apply(6.0, 3.0), 2.0);
    }
}
