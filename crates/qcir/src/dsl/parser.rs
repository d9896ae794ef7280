//! Recursive-descent parser for QasmLite.

use super::ast::{BinOp, Expr, GateApp, Item, Operand, Program, RegKind, Stmt};
use super::lexer::{lex, SpannedTok, Tok};
use crate::diag::{DiagCode, Diagnostic, Span};

/// Parses QasmLite source into a [`Program`].
///
/// # Errors
///
/// Returns the first lexical or syntactic [`Diagnostic`] encountered. The
/// multi-pass loop relies on parse errors being *specific* (token, location,
/// expectation) so the repair prompt carries enough signal.
pub fn parse(src: &str) -> Result<Program, Diagnostic> {
    let toks = lex(src)?;
    Parser {
        toks,
        pos: 0,
        nesting: 0,
    }
    .program()
}

/// Deepest angle expression [`parse`] accepts. Both the expression tree
/// (operator chains and unary minus) and parenthesis nesting count. Deeper
/// input is refused with a [`DiagCode::ParseError`], so neither the parser,
/// nor evaluation, nor dropping the tree can overflow the stack.
pub const MAX_EXPR_DEPTH: usize = 128;

struct Parser<'a> {
    toks: Vec<SpannedTok<'a>>,
    pos: usize,
    /// Parentheses and unary minuses open around the current token.
    nesting: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<Tok<'a>> {
        self.toks.get(self.pos).map(|t| t.tok)
    }

    fn span(&self) -> Span {
        self.toks
            .get(self.pos)
            .map(|t| t.span)
            .or_else(|| self.toks.last().map(|t| t.span))
            .unwrap_or_default()
    }

    /// The current token, stepping past it. Tokens borrow the source, so
    /// this is a plain copy that allocates nothing.
    fn bump(&mut self) -> Option<SpannedTok<'a>> {
        let t = self.toks.get(self.pos).copied();
        self.pos += 1;
        t
    }

    fn err(&self, msg: impl Into<String>) -> Diagnostic {
        Diagnostic::error(DiagCode::ParseError, msg, self.span())
    }

    fn too_deep(&self) -> Diagnostic {
        self.err(format!(
            "angle expression nested deeper than {MAX_EXPR_DEPTH} levels"
        ))
    }

    /// `expr` with its tree depth, refused past [`MAX_EXPR_DEPTH`].
    fn bounded(&self, expr: Expr, depth: usize) -> Result<(Expr, usize), Diagnostic> {
        if depth > MAX_EXPR_DEPTH {
            return Err(self.too_deep());
        }
        Ok((expr, depth))
    }

    /// Runs `f` one parenthesis or unary minus deeper, refusing to recurse
    /// past [`MAX_EXPR_DEPTH`].
    fn nested(
        &mut self,
        f: fn(&mut Self) -> Result<(Expr, usize), Diagnostic>,
    ) -> Result<(Expr, usize), Diagnostic> {
        if self.nesting >= MAX_EXPR_DEPTH {
            return Err(self.too_deep());
        }
        self.nesting += 1;
        let result = f(self);
        self.nesting -= 1;
        result
    }

    fn expect(&mut self, tok: Tok<'_>, what: &str) -> Result<Span, Diagnostic> {
        match self.peek() {
            Some(t) if t == tok => Ok(self.bump().expect("peeked").span),
            Some(t) => Err(self.err(format!("expected {what}, found {t}"))),
            None => Err(self.err(format!("expected {what}, found end of input"))),
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<(&'a str, Span), Diagnostic> {
        match self.peek() {
            Some(Tok::Ident(name)) => Ok((name, self.bump().expect("peeked").span)),
            Some(t) => Err(self.err(format!("expected {what}, found {t}"))),
            None => Err(self.err(format!("expected {what}, found end of input"))),
        }
    }

    fn expect_usize(&mut self, what: &str) -> Result<(usize, Span), Diagnostic> {
        match self.peek() {
            Some(Tok::Number { value: v, .. }) => {
                let t = self.bump().expect("peeked");
                if v.fract() != 0.0 || v < 0.0 {
                    return Err(Diagnostic::error(
                        DiagCode::ParseError,
                        format!("expected a non-negative integer {what}, found `{v}`"),
                        t.span,
                    ));
                }
                Ok((v as usize, t.span))
            }
            Some(t) => Err(self.err(format!("expected {what}, found {t}"))),
            None => Err(self.err(format!("expected {what}, found end of input"))),
        }
    }

    fn program(&mut self) -> Result<Program, Diagnostic> {
        let mut items = Vec::new();
        while self.peek().is_some() {
            items.push(self.item()?);
        }
        Ok(Program { items })
    }

    fn item(&mut self) -> Result<Item, Diagnostic> {
        match self.peek() {
            Some(Tok::Ident(kw)) => match kw {
                "import" => self.import(),
                "qreg" => self.reg_decl(RegKind::Quantum),
                "creg" => self.reg_decl(RegKind::Classical),
                "gate" => self.gate_def(),
                _ => Ok(Item::Stmt(self.stmt()?)),
            },
            Some(t) => Err(self.err(format!("expected a statement, found {t}"))),
            None => Err(self.err("expected a statement, found end of input")),
        }
    }

    fn import(&mut self) -> Result<Item, Diagnostic> {
        let (_, span) = self.expect_ident("`import`")?;
        // Dotted module path.
        let (first, _) = self.expect_ident("module name")?;
        let mut module = first.to_string();
        while self.peek() == Some(Tok::Dot) {
            self.bump();
            let (part, _) = self.expect_ident("module path segment")?;
            module.push('.');
            module.push_str(part);
        }
        // Version literal: a float like 2.1 lexes as a single number, but an
        // integer major version ("import qasmlite 2;") lexes as an integer.
        let version = match self.peek() {
            Some(Tok::Number { raw, .. }) => {
                self.bump();
                raw.to_string()
            }
            Some(t) => return Err(self.err(format!("expected a version number, found {t}"))),
            None => return Err(self.err("expected a version number, found end of input")),
        };
        self.expect(Tok::Semi, "`;` after import")?;
        Ok(Item::Import {
            module,
            version,
            span,
        })
    }

    fn reg_decl(&mut self, kind: RegKind) -> Result<Item, Diagnostic> {
        let (_, span) = self.expect_ident("register keyword")?;
        let (name, _) = self.expect_ident("register name")?;
        self.expect(Tok::LBracket, "`[`")?;
        let (size, _) = self.expect_usize("register size")?;
        self.expect(Tok::RBracket, "`]`")?;
        self.expect(Tok::Semi, "`;` after register declaration")?;
        Ok(Item::RegDecl {
            kind,
            name: name.to_string(),
            size,
            span,
        })
    }

    fn gate_def(&mut self) -> Result<Item, Diagnostic> {
        let (_, span) = self.expect_ident("`gate`")?;
        let (name, _) = self.expect_ident("gate definition name")?;
        let mut params = Vec::new();
        if self.peek() == Some(Tok::LParen) {
            self.bump();
            if self.peek() != Some(Tok::RParen) {
                loop {
                    let (p, _) = self.expect_ident("parameter name")?;
                    params.push(p.to_string());
                    if self.peek() == Some(Tok::Comma) {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            self.expect(Tok::RParen, "`)` after parameters")?;
        }
        let mut operands = Vec::new();
        loop {
            let (o, _) = self.expect_ident("operand name")?;
            operands.push(o.to_string());
            if self.peek() == Some(Tok::Comma) {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(Tok::LBrace, "`{` opening the gate body")?;
        let mut body = Vec::new();
        while self.peek() != Some(Tok::RBrace) {
            if self.peek().is_none() {
                return Err(self.err("unclosed gate body: expected `}`"));
            }
            body.push(self.gate_app()?);
        }
        self.expect(Tok::RBrace, "`}`")?;
        Ok(Item::GateDef {
            name: name.to_string(),
            params,
            operands,
            body,
            span,
        })
    }

    fn stmt(&mut self) -> Result<Stmt, Diagnostic> {
        match self.peek() {
            Some(Tok::Ident(kw)) => match kw {
                "measure" => self.measure(),
                "reset" => self.reset(),
                "barrier" => self.barrier(),
                "if" => self.if_stmt(),
                _ => Ok(Stmt::App(self.gate_app()?)),
            },
            Some(t) => Err(self.err(format!("expected a statement, found {t}"))),
            None => Err(self.err("expected a statement, found end of input")),
        }
    }

    fn measure(&mut self) -> Result<Stmt, Diagnostic> {
        let (_, span) = self.expect_ident("`measure`")?;
        let src = self.operand()?;
        self.expect(Tok::Arrow, "`->` in measure statement")?;
        let dst = self.operand()?;
        self.expect(Tok::Semi, "`;` after measure")?;
        Ok(Stmt::Measure { src, dst, span })
    }

    fn reset(&mut self) -> Result<Stmt, Diagnostic> {
        let (_, span) = self.expect_ident("`reset`")?;
        let target = self.operand()?;
        self.expect(Tok::Semi, "`;` after reset")?;
        Ok(Stmt::Reset { target, span })
    }

    fn barrier(&mut self) -> Result<Stmt, Diagnostic> {
        let (_, span) = self.expect_ident("`barrier`")?;
        let mut targets = Vec::new();
        if self.peek() != Some(Tok::Semi) {
            loop {
                targets.push(self.operand()?);
                if self.peek() == Some(Tok::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::Semi, "`;` after barrier")?;
        Ok(Stmt::Barrier { targets, span })
    }

    fn if_stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let (_, span) = self.expect_ident("`if`")?;
        self.expect(Tok::LParen, "`(` after `if`")?;
        let (reg, _) = self.expect_ident("classical register name")?;
        self.expect(Tok::LBracket, "`[`")?;
        let (index, _) = self.expect_usize("bit index")?;
        self.expect(Tok::RBracket, "`]`")?;
        self.expect(Tok::EqEq, "`==`")?;
        let (value, _) = self.expect_usize("comparison value")?;
        self.expect(Tok::RParen, "`)` closing the condition")?;
        let app = self.gate_app()?;
        Ok(Stmt::If {
            reg: reg.to_string(),
            index,
            value: value as u64,
            app,
            span,
        })
    }

    fn gate_app(&mut self) -> Result<GateApp, Diagnostic> {
        let (name, span) = self.expect_ident("a gate name")?;
        let mut params = Vec::new();
        if self.peek() == Some(Tok::LParen) {
            self.bump();
            if self.peek() != Some(Tok::RParen) {
                loop {
                    params.push(self.expr()?.0);
                    if self.peek() == Some(Tok::Comma) {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            self.expect(Tok::RParen, "`)` after gate parameters")?;
        }
        let mut operands = Vec::new();
        loop {
            operands.push(self.operand()?);
            if self.peek() == Some(Tok::Comma) {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(Tok::Semi, "`;` after gate application")?;
        Ok(GateApp {
            name: name.to_string(),
            params,
            operands,
            span,
        })
    }

    fn operand(&mut self) -> Result<Operand, Diagnostic> {
        let (reg, span) = self.expect_ident("a register operand")?;
        if self.peek() == Some(Tok::LBracket) {
            self.bump();
            let (index, _) = self.expect_usize("qubit index")?;
            self.expect(Tok::RBracket, "`]`")?;
            Ok(Operand::indexed(reg, index, span))
        } else {
            Ok(Operand::whole(reg, span))
        }
    }

    // Expression grammar: term (+|- term)*; term: factor (*|/ factor)*;
    // factor: NUMBER | pi | IDENT | -factor | ( expr ). Each returns the
    // expression with its tree depth.
    fn expr(&mut self) -> Result<(Expr, usize), Diagnostic> {
        let (mut lhs, mut depth) = self.term()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let (rhs, rhs_depth) = self.term()?;
            let bin = Expr::Bin {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
            (lhs, depth) = self.bounded(bin, 1 + depth.max(rhs_depth))?;
        }
        Ok((lhs, depth))
    }

    fn term(&mut self) -> Result<(Expr, usize), Diagnostic> {
        let (mut lhs, mut depth) = self.factor()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Slash) => BinOp::Div,
                _ => break,
            };
            self.bump();
            let (rhs, rhs_depth) = self.factor()?;
            let bin = Expr::Bin {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
            (lhs, depth) = self.bounded(bin, 1 + depth.max(rhs_depth))?;
        }
        Ok((lhs, depth))
    }

    fn factor(&mut self) -> Result<(Expr, usize), Diagnostic> {
        match self.peek() {
            Some(Tok::Number { value, .. }) => {
                self.bump();
                Ok((Expr::Num(value), 1))
            }
            Some(Tok::Ident("pi")) => {
                self.bump();
                Ok((Expr::Pi, 1))
            }
            Some(Tok::Ident(_)) => {
                let (name, _) = self.expect_ident("parameter")?;
                Ok((Expr::Ident(name.to_string()), 1))
            }
            Some(Tok::Minus) => {
                self.bump();
                let (e, depth) = self.nested(Self::factor)?;
                self.bounded(Expr::Neg(Box::new(e)), depth + 1)
            }
            Some(Tok::LParen) => {
                self.bump();
                let e = self.nested(Self::expr)?;
                self.expect(Tok::RParen, "`)` closing the expression")?;
                Ok(e)
            }
            Some(t) => Err(self.err(format!("expected an angle expression, found {t}"))),
            None => Err(self.err("expected an angle expression, found end of input")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bell_program() {
        let src = "import qasmlite 2.1;\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0], q[1];\nmeasure q -> c;\n";
        let prog = parse(src).unwrap();
        assert_eq!(prog.items.len(), 6);
        assert_eq!(prog.imports().count(), 1);
        let (module, version, _) = prog.imports().next().unwrap();
        assert_eq!(module, "qasmlite");
        assert_eq!(version, "2.1");
    }

    #[test]
    fn parses_dotted_import() {
        let prog = parse("import qasmlite.gates 2.0;").unwrap();
        let (module, version, _) = prog.imports().next().unwrap();
        assert_eq!(module, "qasmlite.gates");
        assert_eq!(version, "2.0");
    }

    #[test]
    fn parses_parameterized_gates() {
        let prog = parse("qreg q[1]; rz(pi/2) q[0]; u(pi, 0.5, -pi/4) q[0];").unwrap();
        let apps: Vec<&GateApp> = prog
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Stmt(Stmt::App(app)) => Some(app),
                _ => None,
            })
            .collect();
        assert_eq!(apps.len(), 2);
        let angle = apps[0].params[0].eval_const().unwrap();
        assert!((angle - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert_eq!(apps[1].params.len(), 3);
    }

    #[test]
    fn parses_gate_definition() {
        let src = "gate oracle a, b { cx a, b; x b; }\nqreg q[2];\noracle q[0], q[1];";
        let prog = parse(src).unwrap();
        let def = prog
            .items
            .iter()
            .find_map(|i| match i {
                Item::GateDef {
                    name,
                    body,
                    operands,
                    ..
                } => Some((name, body, operands)),
                _ => None,
            })
            .unwrap();
        assert_eq!(def.0, "oracle");
        assert_eq!(def.1.len(), 2);
        assert_eq!(def.2, &vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn parses_parameterized_gate_definition() {
        let src = "gate rot(theta) a { rz(theta) a; rx(theta/2) a; }";
        let prog = parse(src).unwrap();
        match &prog.items[0] {
            Item::GateDef { params, .. } => assert_eq!(params, &vec!["theta".to_string()]),
            other => panic!("unexpected item {other:?}"),
        }
    }

    #[test]
    fn parses_conditional() {
        let src = "qreg q[1]; creg c[1]; if (c[0] == 1) x q[0];";
        let prog = parse(src).unwrap();
        let cond = prog
            .items
            .iter()
            .find_map(|i| match i {
                Item::Stmt(Stmt::If {
                    reg,
                    index,
                    value,
                    app,
                    ..
                }) => Some((reg.clone(), *index, *value, app.name.clone())),
                _ => None,
            })
            .unwrap();
        assert_eq!(cond, ("c".to_string(), 0, 1, "x".to_string()));
    }

    #[test]
    fn parses_whole_register_broadcast() {
        let prog = parse("qreg q[3]; h q; barrier q; measure q -> c;").unwrap();
        let h = prog
            .items
            .iter()
            .find_map(|i| match i {
                Item::Stmt(Stmt::App(app)) => Some(app.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(h.operands[0].index, None);
    }

    #[test]
    fn error_on_missing_semicolon() {
        let err = parse("qreg q[2]\nh q[0];").unwrap_err();
        assert_eq!(err.code, DiagCode::ParseError);
        assert!(err.message.contains("`;`"), "message: {}", err.message);
    }

    #[test]
    fn error_on_unclosed_gate_body() {
        let err = parse("gate f a { x a;").unwrap_err();
        assert_eq!(err.code, DiagCode::ParseError);
        assert!(err.message.contains("unclosed"), "{}", err.message);
    }

    #[test]
    fn error_on_garbage_operand() {
        let err = parse("qreg q[2]; cx q[0], ;").unwrap_err();
        assert_eq!(err.code, DiagCode::ParseError);
    }

    #[test]
    fn error_spans_point_at_offender() {
        let err = parse("qreg q[2];\ncx q[0] q[1];").unwrap_err();
        assert_eq!(err.span.line, 2);
    }

    #[test]
    fn parses_reset_and_barrier_forms() {
        let prog = parse("qreg q[2]; reset q[0]; barrier; barrier q[0], q[1];").unwrap();
        let stmts: Vec<&Stmt> = prog
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Stmt(s) => Some(s),
                _ => None,
            })
            .collect();
        assert!(matches!(stmts[0], Stmt::Reset { .. }));
        assert!(matches!(stmts[1], Stmt::Barrier { targets, .. } if targets.is_empty()));
        assert!(matches!(stmts[2], Stmt::Barrier { targets, .. } if targets.len() == 2));
    }

    /// A one-gate program whose angle is `angle`.
    fn rz(angle: &str) -> String {
        format!("qreg q[1]; rz({angle}) q[0];")
    }

    #[test]
    fn expressions_up_to_the_depth_bound_parse() {
        let parens = format!(
            "{}1{}",
            "(".repeat(MAX_EXPR_DEPTH),
            ")".repeat(MAX_EXPR_DEPTH)
        );
        let minuses = format!("{}1", "-".repeat(MAX_EXPR_DEPTH - 1));
        let chain = vec!["1"; MAX_EXPR_DEPTH].join("+");
        for angle in [parens, minuses, chain] {
            assert!(parse(&rz(&angle)).is_ok(), "{angle}");
        }
    }

    #[test]
    fn hostile_nesting_is_refused_not_a_stack_overflow() {
        let parens = format!("{}1{}", "(".repeat(100_000), ")".repeat(100_000));
        let minuses = format!("{}1", "-".repeat(100_000));
        // Parses iteratively, but the left-deep tree would overflow the
        // stack when checked, evaluated or dropped.
        let chain = vec!["1"; 1_000_000].join("+");
        for angle in [parens, minuses, chain] {
            let err = parse(&rz(&angle)).unwrap_err();
            assert_eq!(err.code, DiagCode::ParseError);
            assert!(
                err.message.contains("nested deeper than"),
                "{}",
                err.message
            );
        }
        let just_over = vec!["1"; MAX_EXPR_DEPTH + 2].join("*");
        assert!(parse(&rz(&just_over)).is_err());
    }
}
