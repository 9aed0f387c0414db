//! Expression trees over declared operands.
//!
//! LA expressions combine operands with `+`, `-`, `*`, transposition, and —
//! on scalars only — division and square root. Explicit inverses appear only
//! in HLAC statements (`X = (A)^-1`) and are eliminated by the synthesis
//! stage.

// The expression-builder methods intentionally mirror the LA surface
// syntax (`a.add(b)`, `a.mul(b)`); they are not operator-trait impls.
#![allow(clippy::should_implement_trait)]

use crate::shape::Shape;
use std::fmt;

/// Index of an operand in its [`crate::Program`]'s operand table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub usize);

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// An LA expression.
///
/// Construction helpers keep trees tidy (`Expr::add`, `Expr::mul`, ...). The
/// tree stores no shapes; shapes are recomputed by
/// [`crate::typecheck::infer_shape`] against a program's operand table.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A reference to a declared operand.
    Operand(OpId),
    /// A floating-point literal (scalar).
    Lit(f64),
    /// `lhs + rhs`.
    Add(Box<Expr>, Box<Expr>),
    /// `lhs - rhs`.
    Sub(Box<Expr>, Box<Expr>),
    /// `lhs * rhs` (matrix, matrix-vector, or scalar scaling).
    Mul(Box<Expr>, Box<Expr>),
    /// `-e`.
    Neg(Box<Expr>),
    /// `eᵀ`.
    Transpose(Box<Expr>),
    /// `e⁻¹` — HLAC-only; removed by synthesis.
    Inverse(Box<Expr>),
    /// Scalar division `lhs / rhs`.
    Div(Box<Expr>, Box<Expr>),
    /// Scalar square root `√e`.
    Sqrt(Box<Expr>),
}

impl Expr {
    /// An operand leaf.
    pub fn op(id: OpId) -> Expr {
        Expr::Operand(id)
    }

    /// `self + rhs`.
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`.
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`.
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }

    /// `-self`.
    pub fn neg(self) -> Expr {
        Expr::Neg(Box::new(self))
    }

    /// `selfᵀ`.
    pub fn t(self) -> Expr {
        Expr::Transpose(Box::new(self))
    }

    /// `self⁻¹`.
    pub fn inv(self) -> Expr {
        Expr::Inverse(Box::new(self))
    }

    /// `self / rhs` (scalars only; checked by the type checker).
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::Div(Box::new(self), Box::new(rhs))
    }

    /// `√self` (scalars only; checked by the type checker).
    pub fn sqrt(self) -> Expr {
        Expr::Sqrt(Box::new(self))
    }

    /// Visit every operand reference in the expression.
    pub fn for_each_operand(&self, f: &mut impl FnMut(OpId)) {
        match self {
            Expr::Operand(id) => f(*id),
            Expr::Lit(_) => {}
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                a.for_each_operand(f);
                b.for_each_operand(f);
            }
            Expr::Neg(e) | Expr::Transpose(e) | Expr::Inverse(e) | Expr::Sqrt(e) => {
                e.for_each_operand(f)
            }
        }
    }

    /// All distinct operands referenced, in first-occurrence order.
    pub fn operands(&self) -> Vec<OpId> {
        let mut seen = Vec::new();
        self.for_each_operand(&mut |id| {
            if !seen.contains(&id) {
                seen.push(id);
            }
        });
        seen
    }

    /// Whether the expression contains an [`Expr::Inverse`] node.
    pub fn contains_inverse(&self) -> bool {
        match self {
            Expr::Inverse(_) => true,
            Expr::Operand(_) | Expr::Lit(_) => false,
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                a.contains_inverse() || b.contains_inverse()
            }
            Expr::Neg(e) | Expr::Transpose(e) | Expr::Sqrt(e) => e.contains_inverse(),
        }
    }

    /// Whether the expression is a bare operand, possibly transposed.
    pub fn as_plain_operand(&self) -> Option<(OpId, bool)> {
        match self {
            Expr::Operand(id) => Some((*id, false)),
            Expr::Transpose(inner) => match inner.as_ref() {
                Expr::Operand(id) => Some((*id, true)),
                _ => None,
            },
            _ => None,
        }
    }

    /// Number of nodes in the tree (a crude size metric used by tests and
    /// the autotuner's tie-breaking).
    pub fn node_count(&self) -> usize {
        match self {
            Expr::Operand(_) | Expr::Lit(_) => 1,
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                1 + a.node_count() + b.node_count()
            }
            Expr::Neg(e) | Expr::Transpose(e) | Expr::Inverse(e) | Expr::Sqrt(e) => {
                1 + e.node_count()
            }
        }
    }

    /// Rewrite operand references with `f` (used when splicing programs).
    pub fn map_operands(&self, f: &impl Fn(OpId) -> OpId) -> Expr {
        match self {
            Expr::Operand(id) => Expr::Operand(f(*id)),
            Expr::Lit(v) => Expr::Lit(*v),
            Expr::Add(a, b) => Expr::Add(Box::new(a.map_operands(f)), Box::new(b.map_operands(f))),
            Expr::Sub(a, b) => Expr::Sub(Box::new(a.map_operands(f)), Box::new(b.map_operands(f))),
            Expr::Mul(a, b) => Expr::Mul(Box::new(a.map_operands(f)), Box::new(b.map_operands(f))),
            Expr::Div(a, b) => Expr::Div(Box::new(a.map_operands(f)), Box::new(b.map_operands(f))),
            Expr::Neg(e) => Expr::Neg(Box::new(e.map_operands(f))),
            Expr::Transpose(e) => Expr::Transpose(Box::new(e.map_operands(f))),
            Expr::Inverse(e) => Expr::Inverse(Box::new(e.map_operands(f))),
            Expr::Sqrt(e) => Expr::Sqrt(Box::new(e.map_operands(f))),
        }
    }
}

/// Render an expression with operand names resolved through `names`.
pub fn display_expr<S: AsRef<str>>(expr: &Expr, names: &dyn Fn(OpId) -> S) -> String {
    let mut out = String::new();
    let _ = write_expr(&mut out, expr, names);
    out
}

/// Write an expression to `out` with operand names resolved through
/// `names`, as [`display_expr`] renders it, without building a string per
/// operand.
pub fn write_expr<W: fmt::Write + ?Sized, S: AsRef<str>>(
    out: &mut W,
    expr: &Expr,
    names: &dyn Fn(OpId) -> S,
) -> fmt::Result {
    fn prec(e: &Expr) -> u8 {
        match e {
            Expr::Add(..) | Expr::Sub(..) => 1,
            Expr::Mul(..) | Expr::Div(..) => 2,
            Expr::Neg(..) => 3,
            _ => 4,
        }
    }
    fn go<W: fmt::Write + ?Sized, S: AsRef<str>>(
        e: &Expr,
        names: &dyn Fn(OpId) -> S,
        parent: u8,
        out: &mut W,
    ) -> fmt::Result {
        let p = prec(e);
        let paren = p < parent;
        if paren {
            out.write_char('(')?;
        }
        match e {
            Expr::Operand(id) => out.write_str(names(*id).as_ref())?,
            Expr::Lit(v) => write!(out, "{v}")?,
            Expr::Add(a, b) => {
                go(a, names, p, out)?;
                out.write_str(" + ")?;
                go(b, names, p + 1, out)?;
            }
            Expr::Sub(a, b) => {
                go(a, names, p, out)?;
                out.write_str(" - ")?;
                go(b, names, p + 1, out)?;
            }
            Expr::Mul(a, b) => {
                go(a, names, p, out)?;
                out.write_str(" * ")?;
                go(b, names, p + 1, out)?;
            }
            Expr::Div(a, b) => {
                go(a, names, p, out)?;
                out.write_str(" / ")?;
                go(b, names, p + 1, out)?;
            }
            Expr::Neg(a) => {
                out.write_char('-')?;
                go(a, names, p, out)?;
            }
            Expr::Transpose(a) => {
                go(a, names, 4, out)?;
                out.write_char('\'')?;
            }
            Expr::Inverse(a) => {
                out.write_str("inv(")?;
                go(a, names, 0, out)?;
                out.write_char(')')?;
            }
            Expr::Sqrt(a) => {
                out.write_str("sqrt(")?;
                go(a, names, 0, out)?;
                out.write_char(')')?;
            }
        }
        if paren {
            out.write_char(')')?;
        }
        Ok(())
    }
    go(expr, names, 0, out)
}

/// A shape-annotated view used by consumers that need both. Constructed by
/// the type checker.
#[derive(Debug, Clone, PartialEq)]
pub struct TypedExpr {
    /// The expression.
    pub expr: Expr,
    /// Its inferred shape.
    pub shape: Shape,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(id: OpId) -> String {
        ["A", "B", "C", "x", "y", "a"][id.0].to_string()
    }

    #[test]
    fn builder_helpers_produce_expected_trees() {
        let e = Expr::op(OpId(0)).mul(Expr::op(OpId(1)).t()).add(Expr::op(OpId(2)));
        assert_eq!(
            e,
            Expr::Add(
                Box::new(Expr::Mul(
                    Box::new(Expr::Operand(OpId(0))),
                    Box::new(Expr::Transpose(Box::new(Expr::Operand(OpId(1)))))
                )),
                Box::new(Expr::Operand(OpId(2)))
            )
        );
    }

    #[test]
    fn display_respects_precedence() {
        let e = Expr::op(OpId(0)).add(Expr::op(OpId(1))).mul(Expr::op(OpId(2)));
        assert_eq!(display_expr(&e, &names), "(A + B) * C");
        let e = Expr::op(OpId(0)).mul(Expr::op(OpId(1)).add(Expr::op(OpId(2))));
        assert_eq!(display_expr(&e, &names), "A * (B + C)");
        let e = Expr::op(OpId(0)).t().mul(Expr::op(OpId(3)));
        assert_eq!(display_expr(&e, &names), "A' * x");
        let e = Expr::op(OpId(0)).sub(Expr::op(OpId(1)).sub(Expr::op(OpId(2))));
        assert_eq!(display_expr(&e, &names), "A - (B - C)");
    }

    #[test]
    fn operand_collection_dedups_in_order() {
        let e = Expr::op(OpId(2)).mul(Expr::op(OpId(0))).add(Expr::op(OpId(2)));
        assert_eq!(e.operands(), vec![OpId(2), OpId(0)]);
    }

    #[test]
    fn inverse_detection() {
        let e = Expr::op(OpId(0)).mul(Expr::op(OpId(1)).inv());
        assert!(e.contains_inverse());
        let e = Expr::op(OpId(0)).mul(Expr::op(OpId(1)));
        assert!(!e.contains_inverse());
    }

    #[test]
    fn plain_operand_views() {
        assert_eq!(Expr::op(OpId(1)).as_plain_operand(), Some((OpId(1), false)));
        assert_eq!(Expr::op(OpId(1)).t().as_plain_operand(), Some((OpId(1), true)));
        assert_eq!(Expr::op(OpId(1)).t().t().as_plain_operand(), None);
        assert_eq!(Expr::op(OpId(0)).add(Expr::op(OpId(1))).as_plain_operand(), None);
    }

    #[test]
    fn map_operands_relabels() {
        let e = Expr::op(OpId(0)).mul(Expr::op(OpId(1)));
        let shifted = e.map_operands(&|id| OpId(id.0 + 3));
        assert_eq!(shifted.operands(), vec![OpId(3), OpId(4)]);
    }

    #[test]
    fn node_count() {
        let e = Expr::op(OpId(0)).mul(Expr::op(OpId(1)).t()).add(Expr::op(OpId(2)));
        assert_eq!(e.node_count(), 6);
    }
}
