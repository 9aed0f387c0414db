//! Affine arithmetic over loop induction variables.
//!
//! C-IR memory offsets, loop bounds, and `If` conditions are affine
//! expressions `c₀ + Σ cᵢ·vᵢ` where each `vᵢ` is a loop variable. Keeping
//! them symbolic is what lets the unroller and the load/store analysis
//! resolve addresses exactly.

use std::collections::BTreeMap;
use std::fmt;

/// A loop induction variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoopVar(pub usize);

impl fmt::Display for LoopVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// An affine expression `constant + Σ coeff·var`.
///
/// ```
/// use slingen_cir::{Affine, LoopVar};
/// let i = LoopVar(0);
/// let e = Affine::var(i).scaled(4).plus(&Affine::constant(3));
/// assert_eq!(e.eval(&|_| 2), 11);
/// assert_eq!(e.substitute(i, 5), Affine::constant(23));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Affine {
    constant: i64,
    /// Sorted by variable; zero coefficients are never stored.
    terms: BTreeMap<LoopVar, i64>,
}

impl Affine {
    /// The constant expression `c`.
    pub fn constant(c: i64) -> Affine {
        Affine { constant: c, terms: BTreeMap::new() }
    }

    /// The expression `v`.
    pub fn var(v: LoopVar) -> Affine {
        let mut terms = BTreeMap::new();
        terms.insert(v, 1);
        Affine { constant: 0, terms }
    }

    /// The constant zero.
    pub fn zero() -> Affine {
        Affine::constant(0)
    }

    /// `self + other`.
    pub fn plus(&self, other: &Affine) -> Affine {
        let mut out = self.clone();
        out.constant += other.constant;
        for (v, c) in &other.terms {
            let e = out.terms.entry(*v).or_insert(0);
            *e += c;
            if *e == 0 {
                out.terms.remove(v);
            }
        }
        out
    }

    /// `self - other`.
    pub fn minus(&self, other: &Affine) -> Affine {
        self.plus(&other.scaled(-1))
    }

    /// `self * k`.
    pub fn scaled(&self, k: i64) -> Affine {
        if k == 0 {
            return Affine::zero();
        }
        Affine {
            constant: self.constant * k,
            terms: self.terms.iter().map(|(v, c)| (*v, c * k)).collect(),
        }
    }

    /// `self + c`.
    pub fn offset(&self, c: i64) -> Affine {
        let mut out = self.clone();
        out.constant += c;
        out
    }

    /// Replace `var` with the constant `value`.
    pub fn substitute(&self, var: LoopVar, value: i64) -> Affine {
        match self.terms.get(&var) {
            None => self.clone(),
            Some(c) => {
                let mut out = self.clone();
                out.terms.remove(&var);
                out.constant += c * value;
                out
            }
        }
    }

    /// Replace `var` with the constant `value` without reallocating: the
    /// term map is edited in place (the unroller's per-copy rewrite).
    pub fn substitute_in_place(&mut self, var: LoopVar, value: i64) {
        if let Some(c) = self.terms.remove(&var) {
            self.constant += c * value;
        }
    }

    /// Evaluate with an environment mapping variables to values.
    pub fn eval(&self, env: &impl Fn(LoopVar) -> i64) -> i64 {
        self.constant + self.terms.iter().map(|(v, c)| c * env(*v)).sum::<i64>()
    }

    /// The constant value, if no variables remain.
    pub fn as_constant(&self) -> Option<i64> {
        if self.terms.is_empty() {
            Some(self.constant)
        } else {
            None
        }
    }

    /// Whether the expression mentions `var`.
    pub fn uses(&self, var: LoopVar) -> bool {
        self.terms.contains_key(&var)
    }

    /// The variables mentioned.
    pub fn vars(&self) -> impl Iterator<Item = LoopVar> + '_ {
        self.terms.keys().copied()
    }

    /// The constant part.
    pub fn constant_part(&self) -> i64 {
        self.constant
    }

    /// The `(var, coeff)` terms, in variable order (no zero coefficient).
    pub fn terms(&self) -> impl Iterator<Item = (LoopVar, i64)> + '_ {
        self.terms.iter().map(|(v, c)| (*v, *c))
    }
}

impl From<i64> for Affine {
    fn from(c: i64) -> Affine {
        Affine::constant(c)
    }
}

impl From<LoopVar> for Affine {
    fn from(v: LoopVar) -> Affine {
        Affine::var(v)
    }
}

impl fmt::Display for Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut wrote = false;
        for (v, c) in &self.terms {
            if wrote {
                if *c >= 0 {
                    write!(f, " + ")?;
                } else {
                    write!(f, " - ")?;
                }
            } else if *c < 0 {
                write!(f, "-")?;
            }
            let a = c.abs();
            if a == 1 {
                write!(f, "{v}")?;
            } else {
                write!(f, "{a}*{v}")?;
            }
            wrote = true;
        }
        if !wrote {
            write!(f, "{}", self.constant)?;
        } else if self.constant > 0 {
            write!(f, " + {}", self.constant)?;
        } else if self.constant < 0 {
            write!(f, " - {}", -self.constant)?;
        }
        Ok(())
    }
}

/// Comparison operators for affine conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `>=`
    Ge,
    /// `>`
    Gt,
}

impl CmpOp {
    /// Apply the comparison to concrete values.
    pub fn holds(self, lhs: i64, rhs: i64) -> bool {
        match self {
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Ge => lhs >= rhs,
            CmpOp::Gt => lhs > rhs,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Ge => ">=",
            CmpOp::Gt => ">",
        })
    }
}

/// An affine condition `lhs op rhs` guarding an `If`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cond {
    /// Left-hand side.
    pub lhs: Affine,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand side.
    pub rhs: Affine,
}

impl Cond {
    /// Construct a condition.
    pub fn new(lhs: impl Into<Affine>, op: CmpOp, rhs: impl Into<Affine>) -> Cond {
        Cond { lhs: lhs.into(), op, rhs: rhs.into() }
    }

    /// Evaluate under an environment.
    pub fn eval(&self, env: &impl Fn(LoopVar) -> i64) -> bool {
        self.op.holds(self.lhs.eval(env), self.rhs.eval(env))
    }

    /// Substitute a variable in both sides.
    pub fn substitute(&self, var: LoopVar, value: i64) -> Cond {
        Cond {
            lhs: self.lhs.substitute(var, value),
            op: self.op,
            rhs: self.rhs.substitute(var, value),
        }
    }

    /// Substitute a variable in both sides, in place.
    pub fn substitute_in_place(&mut self, var: LoopVar, value: i64) {
        self.lhs.substitute_in_place(var, value);
        self.rhs.substitute_in_place(var, value);
    }

    /// Whether either side mentions `var`.
    pub fn uses(&self, var: LoopVar) -> bool {
        self.lhs.uses(var) || self.rhs.uses(var)
    }

    /// Constant truth value, if both sides are constant.
    pub fn as_constant(&self) -> Option<bool> {
        match (self.lhs.as_constant(), self.rhs.as_constant()) {
            (Some(l), Some(r)) => Some(self.op.holds(l, r)),
            _ => None,
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op, self.rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_and_normalization() {
        let i = LoopVar(0);
        let j = LoopVar(1);
        let e = Affine::var(i).scaled(3).plus(&Affine::var(j)).offset(7);
        assert_eq!(e.eval(&|v| if v == i { 2 } else { 10 }), 3 * 2 + 10 + 7);
        // cancelling terms removes them entirely
        let z = e.minus(&e);
        assert_eq!(z, Affine::zero());
        assert_eq!(z.as_constant(), Some(0));
    }

    #[test]
    fn substitution_eliminates_vars() {
        let i = LoopVar(0);
        let j = LoopVar(1);
        let e = Affine::var(i).scaled(4).plus(&Affine::var(j).scaled(2)).offset(1);
        let e2 = e.substitute(i, 3);
        assert!(!e2.uses(i));
        assert!(e2.uses(j));
        assert_eq!(e2.substitute(j, 5).as_constant(), Some(4 * 3 + 2 * 5 + 1));
    }

    #[test]
    fn scaling_by_zero_is_zero() {
        let e = Affine::var(LoopVar(0)).offset(5);
        assert_eq!(e.scaled(0), Affine::zero());
    }

    #[test]
    fn display_formats() {
        let i = LoopVar(0);
        let j = LoopVar(1);
        assert_eq!(Affine::constant(4).to_string(), "4");
        assert_eq!(Affine::var(i).to_string(), "i0");
        assert_eq!(Affine::var(i).scaled(3).offset(-2).to_string(), "3*i0 - 2");
        assert_eq!(Affine::var(i).minus(&Affine::var(j).scaled(2)).to_string(), "i0 - 2*i1");
        assert_eq!(Affine::var(i).scaled(-1).to_string(), "-i0");
    }

    #[test]
    fn conditions() {
        let i = LoopVar(0);
        let c = Cond::new(Affine::var(i), CmpOp::Lt, Affine::constant(4));
        assert!(c.eval(&|_| 3));
        assert!(!c.eval(&|_| 4));
        assert_eq!(c.substitute(i, 2).as_constant(), Some(true));
        assert_eq!(c.substitute(i, 9).as_constant(), Some(false));
        assert_eq!(c.as_constant(), None);
        assert_eq!(c.to_string(), "i0 < 4");
    }

    #[test]
    fn cmp_ops_cover_all_cases() {
        assert!(CmpOp::Le.holds(3, 3));
        assert!(CmpOp::Eq.holds(3, 3));
        assert!(CmpOp::Ne.holds(3, 4));
        assert!(CmpOp::Ge.holds(4, 3));
        assert!(CmpOp::Gt.holds(4, 3));
        assert!(!CmpOp::Gt.holds(3, 3));
    }
}
