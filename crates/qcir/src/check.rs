//! Semantic checker and lowering: QasmLite → `Circuit` + diagnostics.
//!
//! This module is the analysis core of the Semantic Analyzer agent, and
//! [`compile`] is the front end's one entry: it parses source, then checks
//! the program in two passes. The symbol pass resolves imports against the
//! versioned [`ApiRegistry`] and collects one table of registers and gate
//! definitions (oracles). The lowering pass resolves every operand through
//! one resolver and emits every gate through one routine, whether written
//! at the top level, under an `if`, or expanded from a gate body. The result
//! is either a runnable [`Circuit`] or structured diagnostics whose rendered
//! form becomes the multi-pass repair prompt.

use crate::api::{self, ApiRegistry, Resolution, Version};
use crate::circuit::{Circuit, CircuitError, Op};
use crate::diag::{DiagCode, Diagnostic, Severity, Span};
use crate::dsl::ast::{GateApp, Item, Program, RegKind, Stmt};
use std::collections::BTreeMap;
use std::ops::Range;

/// Widest run of bits the checker expands one operand into: a whole
/// register, or every qubit for an operand-less `barrier`. It equals the
/// widest circuit anything runs (the tableau engine's qubit cap and serve's
/// classical-register cap), so every runnable program checks the same. A
/// wider expansion is refused with [`DiagCode::QubitOutOfRange`] or
/// [`DiagCode::ClbitOutOfRange`] instead of allocating one entry per bit;
/// declaring a wider register and indexing into it stays legal.
pub const MAX_EXPANSION: usize = 4096;

/// Result of checking a program: diagnostics plus the lowered circuit when
/// no error-severity diagnostic was produced.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// The lowered circuit; `None` when errors were found.
    pub circuit: Option<Circuit>,
    /// All diagnostics, in source order.
    pub diagnostics: Vec<Diagnostic>,
}

impl CheckOutcome {
    /// `true` when no error-severity diagnostics were produced.
    pub fn is_ok(&self) -> bool {
        self.circuit.is_some()
    }

    /// Error-severity diagnostics only.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Warning-severity diagnostics only.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }
}

/// Parses and checks `source` against the standard API registry. A parse
/// error becomes the outcome's single diagnostic.
///
/// ```
/// let outcome = qcir::compile("import qasmlite 2.1;\nqreg q[1];\ncreg c[1];\nh q[0];\nmeasure q -> c;\n");
/// assert_eq!(outcome.circuit.expect("checks").num_qubits(), 1);
/// assert_eq!(qcir::compile("qreg q[").diagnostics.len(), 1);
/// ```
pub fn compile(source: &str) -> CheckOutcome {
    match crate::dsl::parse(source) {
        Ok(program) => check(&program, &ApiRegistry::standard()),
        Err(diagnostic) => CheckOutcome {
            circuit: None,
            diagnostics: vec![diagnostic],
        },
    }
}

/// Checks and lowers a program with the standard API registry.
///
/// # Errors
///
/// Returns the full diagnostic list when any error-severity diagnostic is
/// produced.
pub fn lower(program: &Program) -> Result<Circuit, Vec<Diagnostic>> {
    let outcome = check(program, &ApiRegistry::standard());
    match outcome.circuit {
        Some(c) => Ok(c),
        None => Err(outcome.diagnostics),
    }
}

/// Checks a program against `registry`, collecting every diagnostic rather
/// than stopping at the first (multi-pass repair benefits from seeing all
/// errors at once — the paper notes the model fixes "a small, singular
/// error" per pass, so we cap nothing here and let the agent choose).
pub fn check(program: &Program, registry: &ApiRegistry) -> CheckOutcome {
    let mut checker = Checker {
        registry,
        diags: Vec::new(),
        symbols: Symbols::default(),
    };
    checker.collect(program);
    checker.lower(program)
}

/// A declared register: bits `offset..offset + size` of its kind.
#[derive(Clone, Copy)]
struct Reg {
    offset: usize,
    size: usize,
}

/// A gate definition, borrowed from the program.
#[derive(Clone, Copy)]
struct GateDef<'p> {
    params: &'p [String],
    operands: &'p [String],
    body: &'p [GateApp],
}

/// What the symbol pass collects and the lowering pass resolves against.
/// Quantum registers, classical registers and gate names are separate
/// namespaces.
#[derive(Default)]
struct Symbols<'p> {
    /// The lowest released version imported, if any.
    version: Option<Version>,
    /// Registers by name: quantum in slot 0, classical in slot 1.
    regs: [BTreeMap<&'p str, Reg>; 2],
    /// Bits declared so far, per slot.
    widths: [usize; 2],
    gates: BTreeMap<&'p str, GateDef<'p>>,
}

/// The table slot, message noun and out-of-range code of a register kind.
fn kind_info(kind: RegKind) -> (usize, &'static str, DiagCode) {
    match kind {
        RegKind::Quantum => (0, "quantum", DiagCode::QubitOutOfRange),
        RegKind::Classical => (1, "classical", DiagCode::ClbitOutOfRange),
    }
}

/// Where a gate application is emitted: the program's top level, or the
/// body of a user-defined gate bound to one call's arguments and qubits.
#[derive(Clone, Copy)]
enum Scope<'a> {
    Top,
    Body {
        gate: &'a str,
        def: GateDef<'a>,
        args: &'a [f64],
        qubits: &'a [usize],
    },
}

impl Scope<'_> {
    /// The argument bound to angle parameter `name`. A formal named twice
    /// binds its last argument.
    fn param(&self, name: &str) -> Option<f64> {
        match self {
            Scope::Top => None,
            Scope::Body { def, args, .. } => {
                def.params.iter().rposition(|p| p == name).map(|i| args[i])
            }
        }
    }
}

struct Checker<'p> {
    registry: &'p ApiRegistry,
    diags: Vec<Diagnostic>,
    symbols: Symbols<'p>,
}

impl<'p> Checker<'p> {
    fn error(&mut self, code: DiagCode, msg: impl Into<String>, span: Span) {
        self.diags.push(Diagnostic::error(code, msg, span));
    }

    /// Symbol pass: imports, then registers and gate definitions in order.
    fn collect(&mut self, program: &'p Program) {
        for (module, version_text, span) in program.imports() {
            if !self.registry.has_module(module) {
                self.error(
                    DiagCode::UnknownImport,
                    format!("no library module named `{module}`"),
                    span,
                );
                continue;
            }
            let msg = match version_text.parse::<Version>() {
                Ok(v) if self.registry.is_released(v) => {
                    // Multiple imports: the *lowest* version wins, modelling a
                    // project pinned to its oldest dependency constraint.
                    self.symbols.version = Some(self.symbols.version.map_or(v, |old| old.min(v)));
                    continue;
                }
                Ok(v) => format!("`{module}` has no released version {v}"),
                Err(_) => format!("invalid version `{version_text}` in import of `{module}`"),
            };
            self.error(DiagCode::UnknownImport, msg, span);
        }
        let uses_gates = program
            .items
            .iter()
            .any(|i| matches!(i, Item::Stmt(_) | Item::GateDef { .. }));
        if self.symbols.version.is_none() && uses_gates {
            self.diags.push(
                Diagnostic::error(
                    DiagCode::MissingImport,
                    "program uses gates but never imports `qasmlite`",
                    Span::at(1, 1),
                )
                .with_hint("add `import qasmlite 2.1;` at the top"),
            );
        }
        for item in &program.items {
            match item {
                Item::RegDecl {
                    kind,
                    name,
                    size,
                    span,
                } => self.declare_register(*kind, name, *size, *span),
                Item::GateDef {
                    name,
                    params,
                    operands,
                    body,
                    span,
                } => self.define_gate(
                    name,
                    GateDef {
                        params,
                        operands,
                        body,
                    },
                    *span,
                ),
                _ => {}
            }
        }
    }

    fn declare_register(&mut self, kind: RegKind, name: &'p str, size: usize, span: Span) {
        let (slot, noun, out_of_range) = kind_info(kind);
        if self.symbols.regs[slot].contains_key(name) {
            let msg = format!("{noun} register `{name}` declared twice");
            return self.error(DiagCode::DuplicateRegister, msg, span);
        }
        let offset = self.symbols.widths[slot];
        let Some(end) = offset.checked_add(size) else {
            let msg = format!(
                "{noun} register `{name}` of size {size} does not fit after the {offset} bits before it"
            );
            return self.error(out_of_range, msg, span);
        };
        self.symbols.regs[slot].insert(name, Reg { offset, size });
        self.symbols.widths[slot] = end;
    }

    fn define_gate(&mut self, name: &'p str, def: GateDef<'p>, span: Span) {
        if self.symbols.gates.contains_key(name) {
            return self.error(
                DiagCode::DuplicateRegister,
                format!("gate `{name}` defined twice"),
                span,
            );
        }
        // Validate body references: every operand must be a formal name,
        // every expression identifier a formal parameter. Gate names resolve
        // at each call site, so the imported version applies uniformly.
        for app in def.body {
            for operand in &app.operands {
                if operand.index.is_some() || !def.operands.contains(&operand.reg) {
                    self.error(
                        DiagCode::UndeclaredRegister,
                        format!(
                            "gate body of `{name}` references `{operand}` which is not a declared operand"
                        ),
                        operand.span,
                    );
                }
            }
            for expr in &app.params {
                let bound = |ident: &str| def.params.iter().any(|p| p == ident).then_some(0.0);
                if let Err(e) = expr.eval(&bound) {
                    self.error(
                        DiagCode::ParamCountMismatch,
                        format!("in gate `{name}`: {e}"),
                        app.span,
                    );
                }
            }
        }
        self.symbols.gates.insert(name, def);
    }

    /// Lowering pass: every statement, in order.
    fn lower(mut self, program: &Program) -> CheckOutcome {
        let [qubits, clbits] = self.symbols.widths;
        let mut circuit = Circuit::new(qubits, clbits);
        for item in &program.items {
            if let Item::Stmt(stmt) = item {
                self.lower_stmt(stmt, &mut circuit);
            }
        }
        if circuit.num_measurements() == 0 && !circuit.is_empty() {
            self.diags.push(Diagnostic::warning(
                DiagCode::NoMeasurement,
                "circuit contains no measurement; sampled results will be empty",
                Span::at(1, 1),
            ));
        }
        let has_errors = self.diags.iter().any(|d| d.severity == Severity::Error);
        CheckOutcome {
            circuit: (!has_errors).then_some(circuit),
            diagnostics: self.diags,
        }
    }

    /// Resolves a register reference to its flat bit indices: one bit when
    /// indexed, the whole register (at most [`MAX_EXPANSION`] wide) when not.
    fn resolve(
        &mut self,
        kind: RegKind,
        reg: &str,
        index: Option<usize>,
        span: Span,
    ) -> Option<Range<usize>> {
        let (slot, noun, out_of_range) = kind_info(kind);
        let Some(&Reg { offset, size }) = self.symbols.regs[slot].get(reg) else {
            let msg = format!("{noun} register `{reg}` is not declared");
            self.error(DiagCode::UndeclaredRegister, msg, span);
            return None;
        };
        match index {
            Some(i) if i < size => Some(offset + i..offset + i + 1),
            Some(i) => {
                let msg = format!("index {i} out of range for register `{reg}` of size {size}");
                self.error(out_of_range, msg, span);
                None
            }
            None if size > MAX_EXPANSION => {
                let msg = format!(
                    "whole register `{reg}` of size {size} expands to more than {MAX_EXPANSION} bits"
                );
                self.error(out_of_range, msg, span);
                None
            }
            None => Some(offset..offset + size),
        }
    }

    /// Appends `op`, reporting a refusal at `span`.
    fn push(&mut self, circuit: &mut Circuit, op: Op, span: Span) -> Option<()> {
        let Err(e) = circuit.try_push(op) else {
            return Some(());
        };
        let code = match e {
            CircuitError::DuplicateQubit { .. } => DiagCode::DuplicateQubit,
            CircuitError::ArityMismatch { .. } => DiagCode::ArityMismatch,
            CircuitError::QubitOutOfRange { .. } => DiagCode::QubitOutOfRange,
            CircuitError::ClbitOutOfRange { .. } => DiagCode::ClbitOutOfRange,
        };
        self.error(code, e.to_string(), span);
        None
    }

    fn lower_stmt(&mut self, stmt: &Stmt, circuit: &mut Circuit) -> Option<()> {
        use RegKind::{Classical, Quantum};
        match stmt {
            Stmt::App(app) => self.lower_app(app, None, circuit),
            Stmt::Measure { src, dst, span } => {
                let qubits = self.resolve(Quantum, &src.reg, src.index, src.span);
                let clbits = self.resolve(Classical, &dst.reg, dst.index, dst.span);
                let (qubits, clbits) = (qubits?, clbits?);
                if qubits.len() != clbits.len() {
                    let msg = format!(
                        "measure maps {} qubit(s) onto {} classical bit(s)",
                        qubits.len(),
                        clbits.len()
                    );
                    self.error(DiagCode::MeasureSizeMismatch, msg, *span);
                    return None;
                }
                for (qubit, clbit) in qubits.zip(clbits) {
                    self.push(circuit, Op::Measure { qubit, clbit }, *span)?;
                }
                Some(())
            }
            Stmt::Reset { target, span } => {
                for qubit in self.resolve(Quantum, &target.reg, target.index, target.span)? {
                    self.push(circuit, Op::Reset { qubit }, *span)?;
                }
                Some(())
            }
            Stmt::Barrier { targets, span } => {
                let mut qubits = Vec::new();
                if targets.is_empty() {
                    let n = circuit.num_qubits();
                    if n > MAX_EXPANSION {
                        let msg = format!(
                            "`barrier` over all {n} qubits expands to more than {MAX_EXPANSION} bits"
                        );
                        self.error(DiagCode::QubitOutOfRange, msg, *span);
                        return None;
                    }
                    qubits.extend(0..n);
                }
                for t in targets {
                    qubits.extend(
                        self.resolve(Quantum, &t.reg, t.index, t.span)
                            .unwrap_or_default(),
                    );
                }
                self.push(circuit, Op::Barrier { qubits }, *span)
            }
            Stmt::If {
                reg,
                index,
                value,
                app,
                span,
            } => {
                let clbit = self.resolve(Classical, reg, Some(*index), *span)?.start;
                if *value > 1 {
                    let msg = format!("condition value must be 0 or 1, found {value}");
                    self.error(DiagCode::ParseError, msg, *span);
                    return None;
                }
                self.lower_app(app, Some((clbit, *value == 1)), circuit)
            }
        }
    }

    /// Lowers a top-level application: a call of a user-defined gate (which
    /// shadows a registry gate of the same name) or a registry gate.
    fn lower_app(
        &mut self,
        app: &GateApp,
        condition: Option<(usize, bool)>,
        circuit: &mut Circuit,
    ) -> Option<()> {
        match self.symbols.gates.get(app.name.as_str()) {
            Some(&def) => self.call(app, def, condition, circuit),
            None => self.emit(app, Scope::Top, condition, circuit),
        }
    }

    /// Expands a call of a user-defined gate: binds the formals to the
    /// call's arguments and single qubits, then emits every body gate in
    /// that scope, each reported on its own.
    fn call(
        &mut self,
        app: &GateApp,
        def: GateDef<'_>,
        condition: Option<(usize, bool)>,
        circuit: &mut Circuit,
    ) -> Option<()> {
        let name = app.name.as_str();
        let (formals, given) = (def.operands.len(), app.operands.len());
        if formals != given {
            let msg = format!("gate `{name}` expects {formals} operand(s), {given} given");
            self.error(DiagCode::SubroutineArityMismatch, msg, app.span);
            return None;
        }
        let (formals, given) = (def.params.len(), app.params.len());
        if formals != given {
            let msg = format!("gate `{name}` expects {formals} parameter(s), {given} given");
            self.error(DiagCode::ParamCountMismatch, msg, app.span);
            return None;
        }
        let args = self.eval_params(app, Scope::Top)?;
        let mut qubits = Vec::with_capacity(app.operands.len());
        for actual in &app.operands {
            let bits = self.resolve(RegKind::Quantum, &actual.reg, actual.index, actual.span)?;
            if bits.len() != 1 {
                let msg = format!(
                    "gate `{name}` operand `{actual}` must be a single qubit, not a whole register"
                );
                self.error(DiagCode::SubroutineArityMismatch, msg, actual.span);
                return None;
            }
            qubits.push(bits.start);
        }
        let scope = Scope::Body {
            gate: name,
            def,
            args: &args,
            qubits: &qubits,
        };
        for body_app in def.body {
            self.emit(body_app, scope, condition, circuit);
        }
        Some(())
    }

    /// Evaluates an application's angle expressions in `scope`, reporting
    /// the first that fails.
    fn eval_params(&mut self, app: &GateApp, scope: Scope<'_>) -> Option<Vec<f64>> {
        let params: Result<Vec<f64>, _> = app
            .params
            .iter()
            .map(|expr| expr.eval(&|name| scope.param(name)))
            .collect();
        params
            .map_err(|e| self.error(DiagCode::ParamCountMismatch, e.to_string(), app.span))
            .ok()
    }

    /// Emits one library gate application, the one path every gate takes:
    /// evaluates its parameters, looks its name up in [`api::GATES`],
    /// resolves the row at the imported version, builds the [`Gate`] from
    /// the same row, resolves its operands and pushes one op per broadcast
    /// position, conditioned when `condition` is set.
    fn emit(
        &mut self,
        app: &GateApp,
        scope: Scope<'_>,
        condition: Option<(usize, bool)>,
        circuit: &mut Circuit,
    ) -> Option<()> {
        let params = self.eval_params(app, scope)?;
        let name = app.name.as_str();
        let version = self.symbols.version.unwrap_or(api::CURRENT);
        let row = api::lookup(name);
        let deprecated = match row.map_or(Resolution::Unknown, |row| row.resolve(version)) {
            Resolution::Ok => false,
            Resolution::Deprecated { replacement } => {
                let msg = format!("`{name}` is deprecated since qasmlite 2.0");
                let diag = Diagnostic::warning(DiagCode::DeprecatedSymbol, msg, app.span);
                self.diags
                    .push(diag.with_hint(replacement_hint(replacement)));
                true
            }
            Resolution::Removed { replacement } => {
                let msg = format!("`{name}` was removed in qasmlite 2.1");
                let diag = Diagnostic::error(DiagCode::RemovedSymbol, msg, app.span);
                self.diags
                    .push(diag.with_hint(replacement_hint(replacement)));
                return None;
            }
            Resolution::NotYetIntroduced { introduced } => {
                let msg = format!(
                    "`{name}` requires qasmlite >= {introduced} but version {version} is imported"
                );
                let diag = Diagnostic::error(DiagCode::MissingImport, msg, app.span);
                self.diags
                    .push(diag.with_hint(format!("import qasmlite {introduced} or newer")));
                return None;
            }
            Resolution::Unknown => {
                let msg = format!("unknown gate `{name}`");
                self.error(DiagCode::UnknownGate, msg, app.span);
                return None;
            }
        };
        // An unknown name has returned above, so the row is there.
        let row = row?;
        let Some(gate) = row.build(&params) else {
            let msg = match scope {
                Scope::Top if !deprecated => format!(
                    "`{name}` takes {} parameter(s), {} given",
                    row.params,
                    params.len()
                ),
                _ => format!("wrong number of parameters for `{name}`"),
            };
            self.error(DiagCode::ParamCountMismatch, msg, app.span);
            return None;
        };

        // Operands: registers at the top level; formals bound to the call's
        // qubits in a body (an unbound formal was reported at definition).
        let mut groups = Vec::with_capacity(app.operands.len());
        for o in &app.operands {
            groups.push(match scope {
                Scope::Top => self.resolve(RegKind::Quantum, &o.reg, o.index, o.span)?,
                Scope::Body { def, qubits, .. } => {
                    let q = qubits[def.operands.iter().rposition(|f| *f == o.reg)?];
                    q..q + 1
                }
            });
        }
        let (arity, given) = (gate.num_qubits(), groups.len());
        if given != arity {
            let within = match scope {
                Scope::Top => String::new(),
                Scope::Body { gate, .. } => format!("in gate `{gate}`: "),
            };
            let name = gate.name();
            let msg = format!("{within}`{name}` expects {arity} operand(s), {given} given");
            self.error(DiagCode::ArityMismatch, msg, app.span);
            return None;
        }
        // Broadcast: whole-register groups zip; single qubits repeat.
        let width = groups.iter().map(Range::len).max().unwrap_or(1);
        if groups.iter().any(|g| g.len() != width && g.len() != 1) {
            self.error(
                DiagCode::ArityMismatch,
                "mismatched register sizes in broadcast gate application",
                app.span,
            );
            return None;
        }
        for k in 0..width {
            let qubits = groups
                .iter()
                .map(|g| if g.len() == 1 { g.start } else { g.start + k })
                .collect();
            let op = match condition {
                Some((clbit, value)) => Op::CondGate {
                    gate,
                    qubits,
                    clbit,
                    value,
                },
                None => Op::Gate { gate, qubits },
            };
            self.push(circuit, op, app.span)?;
        }
        Some(())
    }
}

/// The fix-it hint for a deprecated or removed symbol.
fn replacement_hint(replacement: Option<&str>) -> String {
    replacement.map_or_else(
        || "consult the migration guide".to_string(),
        |r| format!("use `{r}` instead"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::parse;

    fn check_src(src: &str) -> CheckOutcome {
        let program = parse(src).expect("test source must parse");
        check(&program, &ApiRegistry::standard())
    }

    #[test]
    fn lowers_bell_circuit() {
        let out = check_src(
            "import qasmlite 2.1;\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0], q[1];\nmeasure q -> c;\n",
        );
        assert!(out.is_ok(), "diags: {:?}", out.diagnostics);
        let c = out.circuit.unwrap();
        assert_eq!(c.num_qubits(), 2);
        assert_eq!(c.num_measurements(), 2);
    }

    #[test]
    fn missing_import_is_an_error() {
        let out = check_src("qreg q[1];\nh q[0];\n");
        assert!(!out.is_ok());
        assert!(out.errors().any(|d| d.code == DiagCode::MissingImport));
    }

    #[test]
    fn unknown_module_is_an_error() {
        let out = check_src("import qiskit 1.0;\nqreg q[1];\nh q[0];\n");
        assert!(out.errors().any(|d| d.code == DiagCode::UnknownImport));
    }

    #[test]
    fn unreleased_version_is_an_error() {
        let out = check_src("import qasmlite 3.0;\nqreg q[1];\nh q[0];\n");
        assert!(out.errors().any(|d| d.code == DiagCode::UnknownImport));
    }

    #[test]
    fn removed_symbol_is_an_error_with_hint() {
        let out = check_src("import qasmlite 2.1;\nqreg q[2];\ncnot q[0], q[1];\n");
        let diag = out
            .errors()
            .find(|d| d.code == DiagCode::RemovedSymbol)
            .expect("removed-symbol diagnostic");
        assert!(diag.hint.as_deref().unwrap().contains("cx"));
    }

    #[test]
    fn deprecated_symbol_is_a_warning_and_still_lowers() {
        let out = check_src("import qasmlite 2.0;\nqreg q[2];\ncnot q[0], q[1];\n");
        assert!(out.is_ok(), "diags: {:?}", out.diagnostics);
        assert!(out.warnings().any(|d| d.code == DiagCode::DeprecatedSymbol));
        let c = out.circuit.unwrap();
        assert_eq!(c.count_gate("cx"), 1);
    }

    #[test]
    fn legacy_names_lower_like_their_canonical_spelling_under_1_x() {
        // (legacy spelling, canonical spelling) of one application.
        let cases = [
            ("cnot q[0], q[1]", "cx q[0], q[1]"),
            ("toffoli q[0], q[1], q[2]", "ccx q[0], q[1], q[2]"),
            ("u1(0.3) q[1]", "p(0.3) q[1]"),
            ("u2(0.3, -1.1) q[2]", "u(pi / 2, 0.3, -1.1) q[2]"),
            ("u3(0.3, -1.1, 2) q[0]", "u(0.3, -1.1, 2) q[0]"),
            ("iden q[1]", "id q[1]"),
        ];
        let legacy_rows = api::GATES.iter().filter(|row| row.replacement.is_some());
        assert_eq!(legacy_rows.count(), cases.len(), "one case per legacy row");
        let program = |version: &str, app: &str| {
            check_src(&format!(
                "import qasmlite {version};\nqreg q[3];\ncreg c[3];\nh q;\n{app};\nmeasure q -> c;\n"
            ))
        };
        for (legacy, canonical) in cases {
            let expected = program("2.1", canonical);
            assert!(expected.diagnostics.is_empty(), "{canonical}");
            for version in ["1.0", "1.1"] {
                let out = program(version, legacy);
                assert!(out.diagnostics.is_empty(), "{legacy} at {version}");
                assert_eq!(out.circuit, expected.circuit, "{legacy} at {version}");
            }
            let deprecated = program("2.0", legacy);
            assert_eq!(deprecated.circuit, expected.circuit, "{legacy} at 2.0");
            assert!(deprecated
                .warnings()
                .any(|d| d.code == DiagCode::DeprecatedSymbol));
            let removed = program("2.1", legacy);
            assert!(removed.errors().any(|d| d.code == DiagCode::RemovedSymbol));
        }
    }

    #[test]
    fn modern_gate_on_old_import_is_missing() {
        let out = check_src("import qasmlite 1.0;\nqreg q[2];\ncx q[0], q[1];\n");
        assert!(out.errors().any(|d| d.code == DiagCode::MissingImport));
    }

    #[test]
    fn qubit_out_of_range() {
        let out = check_src("import qasmlite 2.1;\nqreg q[2];\nh q[5];\n");
        assert!(out.errors().any(|d| d.code == DiagCode::QubitOutOfRange));
    }

    #[test]
    fn undeclared_register() {
        let out = check_src("import qasmlite 2.1;\nh r[0];\n");
        assert!(out.errors().any(|d| d.code == DiagCode::UndeclaredRegister));
    }

    #[test]
    fn measure_size_mismatch() {
        let out =
            check_src("import qasmlite 2.1;\nqreg q[3];\ncreg c[2];\nh q[0];\nmeasure q -> c;\n");
        assert!(out
            .errors()
            .any(|d| d.code == DiagCode::MeasureSizeMismatch));
    }

    #[test]
    fn broadcast_single_qubit_gate() {
        let out =
            check_src("import qasmlite 2.1;\nqreg q[3];\ncreg c[3];\nh q;\nmeasure q -> c;\n");
        assert!(out.is_ok());
        assert_eq!(out.circuit.unwrap().count_gate("h"), 3);
    }

    #[test]
    fn broadcast_two_qubit_gate_zips() {
        let out = check_src(
            "import qasmlite 2.1;\nqreg a[2];\nqreg b[2];\ncreg c[2];\ncx a, b;\nmeasure b -> c;\n",
        );
        assert!(out.is_ok(), "diags: {:?}", out.diagnostics);
        assert_eq!(out.circuit.unwrap().count_gate("cx"), 2);
    }

    #[test]
    fn subroutine_expansion() {
        let src = "import qasmlite 2.1;\ngate bellpair a, b { h a; cx a, b; }\nqreg q[2];\ncreg c[2];\nbellpair q[0], q[1];\nmeasure q -> c;\n";
        let out = check_src(src);
        assert!(out.is_ok(), "diags: {:?}", out.diagnostics);
        let c = out.circuit.unwrap();
        assert_eq!(c.count_gate("h"), 1);
        assert_eq!(c.count_gate("cx"), 1);
    }

    #[test]
    fn parameterized_subroutine() {
        let src = "import qasmlite 2.1;\ngate rot(theta) a { rz(theta) a; rz(theta/2) a; }\nqreg q[1];\ncreg c[1];\nrot(pi) q[0];\nmeasure q[0] -> c[0];\n";
        let out = check_src(src);
        assert!(out.is_ok(), "diags: {:?}", out.diagnostics);
        assert_eq!(out.circuit.unwrap().count_gate("rz"), 2);
    }

    #[test]
    fn subroutine_arity_mismatch() {
        let src = "import qasmlite 2.1;\ngate f a, b { cx a, b; }\nqreg q[2];\nf q[0];\n";
        let out = check_src(src);
        assert!(out
            .errors()
            .any(|d| d.code == DiagCode::SubroutineArityMismatch));
    }

    #[test]
    fn undefined_gate_name() {
        let out = check_src("import qasmlite 2.1;\nqreg q[1];\nfoo q[0];\n");
        assert!(out.errors().any(|d| d.code == DiagCode::UnknownGate));
    }

    #[test]
    fn param_count_mismatch() {
        let out = check_src("import qasmlite 2.1;\nqreg q[1];\nrz q[0];\n");
        assert!(out.errors().any(|d| d.code == DiagCode::ParamCountMismatch));
    }

    #[test]
    fn arity_mismatch_on_cx() {
        let out = check_src("import qasmlite 2.1;\nqreg q[3];\ncx q[0], q[1], q[2];\n");
        assert!(out.errors().any(|d| d.code == DiagCode::ArityMismatch));
    }

    #[test]
    fn duplicate_qubit_in_gate() {
        let out = check_src("import qasmlite 2.1;\nqreg q[2];\ncx q[0], q[0];\n");
        assert!(out.errors().any(|d| d.code == DiagCode::DuplicateQubit));
    }

    #[test]
    fn no_measurement_warns_but_lowers() {
        let out = check_src("import qasmlite 2.1;\nqreg q[1];\nh q[0];\n");
        assert!(out.is_ok());
        assert!(out.warnings().any(|d| d.code == DiagCode::NoMeasurement));
    }

    #[test]
    fn conditional_lowers_to_cond_gate() {
        let src = "import qasmlite 2.1;\nqreg q[2];\ncreg c[1];\nmeasure q[0] -> c[0];\nif (c[0] == 1) x q[1];\n";
        let out = check_src(src);
        assert!(out.is_ok(), "diags: {:?}", out.diagnostics);
        let c = out.circuit.unwrap();
        assert!(c.ops().iter().any(|op| matches!(op, Op::CondGate { .. })));
    }

    #[test]
    fn multiple_imports_pin_lowest_version() {
        // qasmlite 2.1 plus a stale gates import at 1.0 pins resolution to 1.0,
        // so `cx` is not yet available.
        let out = check_src(
            "import qasmlite 2.1;\nimport qasmlite.gates 1.0;\nqreg q[2];\ncx q[0], q[1];\n",
        );
        assert!(out.errors().any(|d| d.code == DiagCode::MissingImport));
    }

    #[test]
    fn duplicate_register_diagnosed() {
        let out = check_src("import qasmlite 2.1;\nqreg q[1];\nqreg q[2];\nh q[0];\n");
        assert!(out.errors().any(|d| d.code == DiagCode::DuplicateRegister));
    }

    #[test]
    fn collects_multiple_errors() {
        let out = check_src("import qasmlite 2.1;\nqreg q[1];\nfoo q[0];\nbar q[0];\nh q[9];\n");
        assert!(out.errors().count() >= 3);
    }

    #[test]
    fn compile_reports_a_parse_error_as_its_only_diagnostic() {
        let out = compile("import qasmlite 2.1;\nqreg q[;\nh q[0];\n");
        assert!(out.circuit.is_none());
        assert_eq!(out.diagnostics.len(), 1);
        assert_eq!(out.diagnostics[0].code, DiagCode::ParseError);
        let src = "import qasmlite 2.1;\nqreg q[2];\ncreg c[2];\nh q;\nmeasure q -> c;\n";
        assert_eq!(compile(src).circuit, check_src(src).circuit);
    }

    #[test]
    fn register_offset_overflow_is_refused() {
        for (decls, code) in [
            (
                "qreg q[18446744073709551615];\nqreg r[1];",
                DiagCode::QubitOutOfRange,
            ),
            (
                "creg q[18446744073709551615];\ncreg r[1];",
                DiagCode::ClbitOutOfRange,
            ),
        ] {
            let src = format!("import qasmlite 2.1;\n{decls}\n");
            let out = check_src(&src);
            let refused: Vec<_> = out.errors().map(|d| (d.code, d.span)).collect();
            assert_eq!(refused, [(code, Span::at(3, 1))], "{src}");
        }
        // The daemon-killing program: `r` is refused, so its uses are
        // undeclared, and nothing panics.
        let out = check_src(
            "import qasmlite 2.1;\nqreg q[18446744073709551615];\nqreg r[1];\ncreg c[1];\n\
             x r[0];\nmeasure r[0] -> c[0];\n",
        );
        let codes: Vec<_> = out.errors().map(|d| d.code).collect();
        assert_eq!(
            codes,
            [
                DiagCode::QubitOutOfRange,
                DiagCode::UndeclaredRegister,
                DiagCode::UndeclaredRegister
            ]
        );
    }

    #[test]
    fn whole_register_expansion_is_bounded() {
        // 2^61 bits: collecting them would overflow a `Vec`'s capacity.
        let wide = 1usize << 61;
        let header = format!(
            "import qasmlite 2.1;\ngate f a {{ h a; }}\nqreg q[{wide}];\ncreg c[{wide}];\nqreg r[1];\n"
        );
        for (stmt, code) in [
            ("h q;", DiagCode::QubitOutOfRange),
            ("cx r[0], q;", DiagCode::QubitOutOfRange),
            ("if (c[0] == 1) h q;", DiagCode::QubitOutOfRange),
            ("f q;", DiagCode::QubitOutOfRange),
            ("reset q;", DiagCode::QubitOutOfRange),
            ("barrier q;", DiagCode::QubitOutOfRange),
            ("barrier;", DiagCode::QubitOutOfRange),
            ("measure q -> c;", DiagCode::QubitOutOfRange),
            ("measure r[0] -> c;", DiagCode::ClbitOutOfRange),
        ] {
            let out = check_src(&format!("{header}{stmt}\n"));
            assert!(out.circuit.is_none(), "{stmt}");
            assert!(
                out.errors().any(|d| d.code == code),
                "{stmt}: {:?}",
                out.diagnostics
            );
        }
        // Declared but only indexed, a wide register stays legal.
        let out = check_src(&format!("{header}h q[5];\nmeasure q[5] -> c[7];\n"));
        let circuit = out.circuit.expect("indexed use of a wide register checks");
        assert_eq!(
            (circuit.num_qubits(), circuit.num_clbits()),
            (wide + 1, wide)
        );
        assert_eq!(circuit.ops().len(), 2);
    }

    #[test]
    fn expansion_cap_is_inclusive() {
        let at_cap = format!(
            "import qasmlite 2.1;\nqreg q[{MAX_EXPANSION}];\ncreg c[{MAX_EXPANSION}];\n\
             h q;\nbarrier;\nmeasure q -> c;\n"
        );
        let circuit = check_src(&at_cap).circuit.expect("the cap itself expands");
        assert_eq!(circuit.count_gate("h"), MAX_EXPANSION);
        assert_eq!(circuit.num_measurements(), MAX_EXPANSION);
        let past = at_cap.replace(&MAX_EXPANSION.to_string(), &(MAX_EXPANSION + 1).to_string());
        let out = check_src(&past);
        let codes: Vec<_> = out.errors().map(|d| d.code).collect();
        // `h q`, the bare `barrier`, then both sides of the measure.
        assert_eq!(
            codes,
            [
                DiagCode::QubitOutOfRange,
                DiagCode::QubitOutOfRange,
                DiagCode::QubitOutOfRange,
                DiagCode::ClbitOutOfRange
            ]
        );
    }
}
