//! LA programs: operand declarations plus a statement sequence.

use crate::expr::{display_expr, write_expr, Expr, OpId};
use crate::shape::Shape;
use crate::structure::{Properties, Structure};
use crate::LaError;
use std::fmt;

/// Input/output classification of a declared operand (paper Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoType {
    /// Read-only input.
    In,
    /// Output computed by the program.
    Out,
    /// Both read as input and overwritten (`InOut`).
    InOut,
}

impl IoType {
    /// Whether statements may write this operand.
    pub fn writable(self) -> bool {
        !matches!(self, IoType::In)
    }

    /// Whether the operand carries an initial value at entry.
    pub fn readable_at_entry(self) -> bool {
        !matches!(self, IoType::Out)
    }
}

impl fmt::Display for IoType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IoType::In => "In",
            IoType::Out => "Out",
            IoType::InOut => "InOut",
        })
    }
}

/// A declared operand: scalar, vector, or matrix of fixed size.
#[derive(Debug, Clone, PartialEq)]
pub struct OperandDecl {
    /// Source-level name.
    pub name: String,
    /// Fixed shape (vectors are `n × 1`, scalars `1 × 1`).
    pub shape: Shape,
    /// Matrix structure (always `General` for vectors/scalars).
    pub structure: Structure,
    /// PD/NS/UnitDiag properties.
    pub properties: Properties,
    /// Input/output classification.
    pub io: IoType,
    /// `ow(X)`: this output shares storage with operand `X`.
    pub overwrites: Option<OpId>,
}

impl OperandDecl {
    /// A general input matrix.
    pub fn mat_in(name: &str, rows: usize, cols: usize) -> Self {
        OperandDecl {
            name: name.to_string(),
            shape: Shape::matrix(rows, cols),
            structure: Structure::General,
            properties: Properties::none(),
            io: IoType::In,
            overwrites: None,
        }
    }

    /// A general output matrix.
    pub fn mat_out(name: &str, rows: usize, cols: usize) -> Self {
        OperandDecl { io: IoType::Out, ..Self::mat_in(name, rows, cols) }
    }

    /// An input column vector.
    pub fn vec_in(name: &str, n: usize) -> Self {
        OperandDecl {
            name: name.to_string(),
            shape: Shape::vector(n),
            structure: Structure::General,
            properties: Properties::none(),
            io: IoType::In,
            overwrites: None,
        }
    }

    /// An output column vector.
    pub fn vec_out(name: &str, n: usize) -> Self {
        OperandDecl { io: IoType::Out, ..Self::vec_in(name, n) }
    }

    /// An input scalar.
    pub fn sca_in(name: &str) -> Self {
        OperandDecl {
            name: name.to_string(),
            shape: Shape::scalar(),
            structure: Structure::General,
            properties: Properties::none(),
            io: IoType::In,
            overwrites: None,
        }
    }

    /// An output scalar.
    pub fn sca_out(name: &str) -> Self {
        OperandDecl { io: IoType::Out, ..Self::sca_in(name) }
    }

    /// Set the structure (builder style).
    pub fn with_structure(mut self, s: Structure) -> Self {
        self.structure = s;
        self
    }

    /// Set the properties (builder style).
    pub fn with_properties(mut self, p: Properties) -> Self {
        self.properties = p;
        self
    }

    /// Set the IO type (builder style).
    pub fn with_io(mut self, io: IoType) -> Self {
        self.io = io;
        self
    }
}

/// A statement of an LA program.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// An sBLAC (or auxiliary scalar computation): `lhs = expr`.
    Assign {
        /// The written operand.
        lhs: OpId,
        /// The right-hand side.
        rhs: Expr,
    },
    /// An HLAC: an equation whose left side is an expression containing the
    /// unknown (e.g. `U' * U = S`), or an assignment whose right side uses
    /// an explicit inverse.
    Equation {
        /// Left-hand side (contains the unknown output operand).
        lhs: Expr,
        /// Right-hand side (fully known when the statement executes).
        rhs: Expr,
    },
    /// A counted loop over a statement body. The LA surface language allows
    /// loops whose bodies access operands uniformly; iteration-dependent
    /// indexing stays internal to the synthesis engine, as in the paper's
    /// examples.
    For {
        /// Number of iterations.
        count: usize,
        /// Loop body.
        body: Vec<Stmt>,
    },
}

impl Stmt {
    /// Whether this statement is an HLAC (needs the synthesis stage).
    pub fn is_hlac(&self) -> bool {
        match self {
            Stmt::Assign { rhs, .. } => rhs.contains_inverse(),
            Stmt::Equation { .. } => true,
            Stmt::For { body, .. } => body.iter().any(Stmt::is_hlac),
        }
    }
}

/// A validated LA program.
///
/// Construct with [`ProgramBuilder`] or [`crate::parse::Parser`]; both run
/// the type checker before returning.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    name: String,
    operands: Vec<OperandDecl>,
    statements: Vec<Stmt>,
}

impl Program {
    pub(crate) fn from_parts(
        name: String,
        operands: Vec<OperandDecl>,
        statements: Vec<Stmt>,
    ) -> Result<Self, LaError> {
        let program = Program { name, operands, statements };
        crate::typecheck::check(&program)?;
        Ok(program)
    }

    /// The program's name (used for the generated C function).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operand table.
    pub fn operands(&self) -> &[OperandDecl] {
        &self.operands
    }

    /// The statement sequence.
    pub fn statements(&self) -> &[Stmt] {
        &self.statements
    }

    /// Look up an operand declaration.
    pub fn operand(&self, id: OpId) -> &OperandDecl {
        &self.operands[id.0]
    }

    /// Find an operand by name.
    pub fn find(&self, name: &str) -> Option<OpId> {
        self.operands.iter().position(|o| o.name == name).map(OpId)
    }

    /// Operands that are program inputs (`In` or `InOut`).
    pub fn inputs(&self) -> impl Iterator<Item = (OpId, &OperandDecl)> {
        self.operands
            .iter()
            .enumerate()
            .filter(|(_, o)| o.io.readable_at_entry())
            .map(|(i, o)| (OpId(i), o))
    }

    /// Operands that are program outputs (`Out` or `InOut`).
    pub fn outputs(&self) -> impl Iterator<Item = (OpId, &OperandDecl)> {
        self.operands.iter().enumerate().filter(|(_, o)| o.io.writable()).map(|(i, o)| (OpId(i), o))
    }

    /// Render `expr` with this program's operand names.
    pub fn render_expr(&self, expr: &Expr) -> String {
        display_expr(expr, &|id: OpId| self.operand(id).name.as_str())
    }

    /// Total flop estimate for one execution, counting 2·m·n·k per `m×k` by
    /// `k×n` product, m·n per addition, and structure-aware discounts. Used
    /// for reporting performance in flops/cycle.
    pub fn statement_count(&self) -> usize {
        fn count(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Stmt::For { count: c, body } => c * count(body),
                    _ => 1,
                })
                .sum()
        }
        count(&self.statements)
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program {} {{", self.name)?;
        for o in &self.operands {
            if o.shape.is_scalar() {
                f.write_str("  Sca")?;
            } else if o.shape.cols == 1 {
                write!(f, "  Vec ..({})", o.shape.rows)?;
            } else {
                write!(f, "  Mat ..({}, {})", o.shape.rows, o.shape.cols)?;
            }
            writeln!(f, " {} <{}, {}, {}>;", o.name, o.io, o.structure, o.properties)?;
        }
        fn fmt_stmts(
            p: &Program,
            stmts: &[Stmt],
            indent: usize,
            f: &mut fmt::Formatter<'_>,
        ) -> fmt::Result {
            let names = |id: OpId| p.operand(id).name.as_str();
            for s in stmts {
                match s {
                    Stmt::Assign { lhs, rhs } => {
                        write!(f, "{:indent$}{} = ", "", p.operand(*lhs).name, indent = indent)?;
                        write_expr(f, rhs, &names)?;
                        f.write_str(";\n")?;
                    }
                    Stmt::Equation { lhs, rhs } => {
                        write!(f, "{:indent$}", "", indent = indent)?;
                        write_expr(f, lhs, &names)?;
                        f.write_str(" = ")?;
                        write_expr(f, rhs, &names)?;
                        f.write_str(";\n")?;
                    }
                    Stmt::For { count, body } => {
                        writeln!(f, "{:indent$}for (i = 0:{count}) {{", "", indent = indent)?;
                        fmt_stmts(p, body, indent + 2, f)?;
                        writeln!(f, "{:indent$}}}", "", indent = indent)?;
                    }
                }
            }
            Ok(())
        }
        fmt_stmts(self, &self.statements, 2, f)?;
        writeln!(f, "}}")
    }
}

/// Incremental construction of LA programs from Rust code (the programmatic
/// alternative to the text parser).
///
/// ```
/// use slingen_ir::{ProgramBuilder, OperandDecl, Expr, Structure, Properties};
///
/// let mut b = ProgramBuilder::new("axpy_like");
/// let alpha = b.declare(OperandDecl::sca_in("alpha"));
/// let x = b.declare(OperandDecl::vec_in("x", 8));
/// let y = b.declare(OperandDecl::vec_out("y", 8));
/// b.assign(y, Expr::op(alpha).mul(Expr::op(x)));
/// let program = b.build()?;
/// assert_eq!(program.statements().len(), 1);
/// # Ok::<(), slingen_ir::LaError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    name: String,
    operands: Vec<OperandDecl>,
    statements: Vec<Stmt>,
}

impl ProgramBuilder {
    /// Start a new program.
    pub fn new(name: &str) -> Self {
        ProgramBuilder { name: name.to_string(), operands: Vec::new(), statements: Vec::new() }
    }

    /// Declare an operand and return its id.
    pub fn declare(&mut self, decl: OperandDecl) -> OpId {
        self.operands.push(decl);
        OpId(self.operands.len() - 1)
    }

    /// Append an sBLAC `lhs = rhs`.
    pub fn assign(&mut self, lhs: OpId, rhs: Expr) -> &mut Self {
        self.statements.push(Stmt::Assign { lhs, rhs });
        self
    }

    /// Append an HLAC equation `lhs = rhs` (unknown on the left).
    pub fn equation(&mut self, lhs: Expr, rhs: Expr) -> &mut Self {
        self.statements.push(Stmt::Equation { lhs, rhs });
        self
    }

    /// Append a pre-built statement.
    pub fn push(&mut self, stmt: Stmt) -> &mut Self {
        self.statements.push(stmt);
        self
    }

    /// Resolve an operand by name.
    pub fn lookup(&self, name: &str) -> Option<OpId> {
        self.operands.iter().position(|o| o.name == name).map(OpId)
    }

    /// Validate and produce the [`Program`].
    ///
    /// # Errors
    ///
    /// Returns any [`LaError`] produced by the type checker (shape
    /// mismatches, writes to inputs, malformed HLACs, ...).
    pub fn build(self) -> Result<Program, LaError> {
        Program::from_parts(self.name, self.operands, self.statements)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_constructs_and_checks() {
        let mut b = ProgramBuilder::new("t");
        let a = b.declare(OperandDecl::mat_in("A", 4, 4));
        let c = b.declare(OperandDecl::mat_out("C", 4, 4));
        b.assign(c, Expr::op(a).mul(Expr::op(a).t()));
        let p = b.build().unwrap();
        assert_eq!(p.name(), "t");
        assert_eq!(p.operands().len(), 2);
        assert_eq!(p.find("A"), Some(OpId(0)));
        assert_eq!(p.find("missing"), None);
        assert_eq!(p.inputs().count(), 1);
        assert_eq!(p.outputs().count(), 1);
    }

    #[test]
    fn builder_rejects_write_to_input() {
        let mut b = ProgramBuilder::new("bad");
        let a = b.declare(OperandDecl::mat_in("A", 4, 4));
        let x = b.declare(OperandDecl::mat_in("X", 4, 4));
        b.assign(a, Expr::op(x));
        assert!(matches!(b.build(), Err(LaError::WriteToInput(_))));
    }

    #[test]
    fn hlac_detection() {
        let mut b = ProgramBuilder::new("h");
        let s = b.declare(
            OperandDecl::mat_in("S", 4, 4)
                .with_structure(Structure::Symmetric(crate::structure::StorageHalf::Upper))
                .with_properties(Properties::pd()),
        );
        let u = b.declare(
            OperandDecl::mat_out("U", 4, 4)
                .with_structure(Structure::UpperTriangular)
                .with_properties(Properties::ns()),
        );
        b.equation(Expr::op(u).t().mul(Expr::op(u)), Expr::op(s));
        let p = b.build().unwrap();
        assert!(p.statements()[0].is_hlac());
    }

    #[test]
    fn statement_count_includes_loops() {
        let mut b = ProgramBuilder::new("l");
        let a = b.declare(OperandDecl::mat_in("A", 2, 2));
        let c = b.declare(OperandDecl::mat_out("C", 2, 2));
        b.push(Stmt::For {
            count: 3,
            body: vec![Stmt::Assign { lhs: c, rhs: Expr::op(a).add(Expr::op(c)) }],
        });
        // InOut needed for C since it is read in the loop body; rebuild.
        let mut b2 = ProgramBuilder::new("l");
        let a2 = b2.declare(OperandDecl::mat_in("A", 2, 2));
        let c2 = b2.declare(OperandDecl::mat_out("C", 2, 2).with_io(IoType::InOut));
        b2.push(Stmt::For {
            count: 3,
            body: vec![Stmt::Assign { lhs: c2, rhs: Expr::op(a2).add(Expr::op(c2)) }],
        });
        let p = b2.build().unwrap();
        assert_eq!(p.statement_count(), 3);
        let _ = (a, b);
    }

    #[test]
    fn display_round_trips_names() {
        let mut b = ProgramBuilder::new("show");
        let a = b.declare(OperandDecl::mat_in("A", 4, 4));
        let c = b.declare(OperandDecl::mat_out("C", 4, 4));
        b.assign(c, Expr::op(a).t().mul(Expr::op(a)));
        let p = b.build().unwrap();
        let text = p.to_string();
        assert!(text.contains("C = A' * A;"), "got: {text}");
    }
}
