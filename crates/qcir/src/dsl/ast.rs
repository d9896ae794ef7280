//! Abstract syntax tree for QasmLite.

use crate::diag::Span;
use std::fmt;

/// A parsed QasmLite program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

impl Program {
    /// Iterates over the import items.
    pub fn imports(&self) -> impl Iterator<Item = (&str, &str, Span)> {
        self.items.iter().filter_map(|item| match item {
            Item::Import {
                module,
                version,
                span,
            } => Some((module.as_str(), version.as_str(), *span)),
            _ => None,
        })
    }
}

/// Register kind: quantum or classical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegKind {
    /// `qreg`.
    Quantum,
    /// `creg`.
    Classical,
}

impl fmt::Display for RegKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegKind::Quantum => write!(f, "qreg"),
            RegKind::Classical => write!(f, "creg"),
        }
    }
}

/// A top-level item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// `import <module> <version>;`
    Import {
        /// Dotted module path (e.g. `qasmlite.gates`).
        module: String,
        /// Raw version text (e.g. `2.1`); validated by the checker.
        version: String,
        /// Location.
        span: Span,
    },
    /// `qreg name[size];` or `creg name[size];`
    RegDecl {
        /// Quantum or classical.
        kind: RegKind,
        /// Register name.
        name: String,
        /// Number of (qu)bits.
        size: usize,
        /// Location.
        span: Span,
    },
    /// `gate name(params) operands { body }` — a subroutine/oracle.
    GateDef {
        /// Subroutine name.
        name: String,
        /// Parameter names (angles).
        params: Vec<String>,
        /// Operand (qubit) names.
        operands: Vec<String>,
        /// Body: gate applications over the operand names.
        body: Vec<GateApp>,
        /// Location.
        span: Span,
    },
    /// An executable statement.
    Stmt(Stmt),
}

/// An executable statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// A gate (or subroutine) application.
    App(GateApp),
    /// `measure src -> dst;` (indexed or whole-register broadcast).
    Measure {
        /// Measured qubit operand.
        src: Operand,
        /// Destination classical operand.
        dst: Operand,
        /// Location.
        span: Span,
    },
    /// `reset target;`
    Reset {
        /// Target operand.
        target: Operand,
        /// Location.
        span: Span,
    },
    /// `barrier [targets];` — empty target list means all qubits.
    Barrier {
        /// Barrier operands (possibly empty).
        targets: Vec<Operand>,
        /// Location.
        span: Span,
    },
    /// `if (reg[index] == value) <gate application>`
    If {
        /// Classical register name.
        reg: String,
        /// Bit index within the register.
        index: usize,
        /// Compared value (0 or 1 in practice).
        value: u64,
        /// Conditionally-applied gate.
        app: GateApp,
        /// Location.
        span: Span,
    },
}

impl Stmt {
    /// The statement's source location.
    pub fn span(&self) -> Span {
        match self {
            Stmt::App(app) => app.span,
            Stmt::Measure { span, .. }
            | Stmt::Reset { span, .. }
            | Stmt::Barrier { span, .. }
            | Stmt::If { span, .. } => *span,
        }
    }
}

/// A gate or subroutine application: `name(params) operands;`.
#[derive(Debug, Clone, PartialEq)]
pub struct GateApp {
    /// Gate or subroutine name as written.
    pub name: String,
    /// Angle-parameter expressions.
    pub params: Vec<Expr>,
    /// Qubit operands.
    pub operands: Vec<Operand>,
    /// Location.
    pub span: Span,
}

/// A register reference, optionally indexed: `q` or `q[3]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Operand {
    /// Register (or, inside a gate body, formal operand) name.
    pub reg: String,
    /// Index within the register; `None` means whole-register broadcast.
    pub index: Option<usize>,
    /// Location.
    pub span: Span,
}

impl Operand {
    /// An indexed operand.
    pub fn indexed(reg: impl Into<String>, index: usize, span: Span) -> Self {
        Operand {
            reg: reg.into(),
            index: Some(index),
            span,
        }
    }

    /// A whole-register operand.
    pub fn whole(reg: impl Into<String>, span: Span) -> Self {
        Operand {
            reg: reg.into(),
            index: None,
            span,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.index {
            Some(i) => write!(f, "{}[{}]", self.reg, i),
            None => write!(f, "{}", self.reg),
        }
    }
}

/// An angle expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Numeric literal.
    Num(f64),
    /// The constant `pi`.
    Pi,
    /// An identifier (a gate-definition parameter).
    Ident(String),
    /// Unary negation.
    Neg(Box<Expr>),
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
}

/// Binary arithmetic operators in angle expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// Error evaluating an angle expression.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalError {
    /// The unresolved identifier, when that is the cause.
    pub unknown_ident: Option<String>,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.unknown_ident {
            Some(name) => write!(f, "unknown parameter `{name}` in angle expression"),
            None => write!(f, "invalid angle expression"),
        }
    }
}

impl std::error::Error for EvalError {}

impl Expr {
    /// Evaluates the expression with parameter bindings from `env`.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] when an identifier is not bound in `env`.
    pub fn eval(&self, env: &dyn Fn(&str) -> Option<f64>) -> Result<f64, EvalError> {
        match self {
            Expr::Num(v) => Ok(*v),
            Expr::Pi => Ok(std::f64::consts::PI),
            Expr::Ident(name) => env(name).ok_or_else(|| EvalError {
                unknown_ident: Some(name.clone()),
            }),
            Expr::Neg(inner) => Ok(-inner.eval(env)?),
            Expr::Bin { op, lhs, rhs } => {
                let l = lhs.eval(env)?;
                let r = rhs.eval(env)?;
                Ok(match op {
                    BinOp::Add => l + r,
                    BinOp::Sub => l - r,
                    BinOp::Mul => l * r,
                    BinOp::Div => l / r,
                })
            }
        }
    }

    /// Evaluates with no parameter bindings (top-level context).
    pub fn eval_const(&self) -> Result<f64, EvalError> {
        self.eval(&|_| None)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Num(v) => write!(f, "{v}"),
            Expr::Pi => write!(f, "pi"),
            Expr::Ident(name) => write!(f, "{name}"),
            Expr::Neg(inner) => write!(f, "-{inner}"),
            Expr::Bin { op, lhs, rhs } => {
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                };
                write!(f, "({lhs} {sym} {rhs})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_eval_const() {
        let e = Expr::Bin {
            op: BinOp::Div,
            lhs: Box::new(Expr::Pi),
            rhs: Box::new(Expr::Num(2.0)),
        };
        let v = e.eval_const().unwrap();
        assert!((v - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn expr_eval_with_env() {
        let e = Expr::Neg(Box::new(Expr::Ident("theta".into())));
        let v = e.eval(&|name| (name == "theta").then_some(0.25)).unwrap();
        assert_eq!(v, -0.25);
        let err = e.eval_const().unwrap_err();
        assert_eq!(err.unknown_ident.as_deref(), Some("theta"));
    }

    #[test]
    fn operand_display() {
        let span = Span::default();
        assert_eq!(Operand::indexed("q", 3, span).to_string(), "q[3]");
        assert_eq!(Operand::whole("q", span).to_string(), "q");
    }

    #[test]
    fn program_accessors() {
        let program = Program {
            items: vec![
                Item::Import {
                    module: "qasmlite".into(),
                    version: "2.1".into(),
                    span: Span::default(),
                },
                Item::RegDecl {
                    kind: RegKind::Quantum,
                    name: "q".into(),
                    size: 3,
                    span: Span::default(),
                },
            ],
        };
        let imports: Vec<_> = program.imports().collect();
        assert_eq!(imports, vec![("qasmlite", "2.1", Span::default())]);
    }
}
