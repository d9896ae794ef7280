//! Semantic checker and lowering: `Program` → `Circuit` + diagnostics.
//!
//! This module is the analysis core of the Semantic Analyzer agent. It
//! resolves imports against the versioned [`ApiRegistry`], expands gate
//! definitions (oracles), validates operand/parameter shapes, and either
//! lowers to a runnable [`Circuit`] or reports structured diagnostics whose
//! rendered form becomes the multi-pass repair prompt.

use crate::api::{adapt_legacy_params, ApiRegistry, Resolution, Version};
use crate::circuit::{Circuit, Op};
use crate::diag::{DiagCode, Diagnostic, Severity, Span};
use crate::dsl::ast::{GateApp, Item, Operand, Program, RegKind, Stmt};
use crate::gate::Gate;
use std::collections::BTreeMap;

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

/// Checks and lowers a program with the standard API registry.
///
/// # Errors
///
/// Returns the full diagnostic list when any error-severity diagnostic is
/// produced.
pub fn lower(program: &Program) -> Result<Circuit, Vec<Diagnostic>> {
    let outcome = check(program, ApiRegistry::shared());
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
    Checker::new(registry).run(program)
}

#[derive(Debug, Clone)]
struct RegInfo {
    offset: usize,
    size: usize,
    kind: RegKind,
}

#[derive(Debug, Clone)]
struct SubDef {
    params: Vec<String>,
    operands: Vec<String>,
    body: Vec<GateApp>,
}

struct Checker<'a> {
    registry: &'a ApiRegistry,
    diags: Vec<Diagnostic>,
    qregs: BTreeMap<String, RegInfo>,
    cregs: BTreeMap<String, RegInfo>,
    subs: BTreeMap<String, SubDef>,
    version: Option<Version>,
    num_qubits: usize,
    num_clbits: usize,
}

impl<'a> Checker<'a> {
    fn new(registry: &'a ApiRegistry) -> Self {
        Checker {
            registry,
            diags: Vec::new(),
            qregs: BTreeMap::new(),
            cregs: BTreeMap::new(),
            subs: BTreeMap::new(),
            version: None,
            num_qubits: 0,
            num_clbits: 0,
        }
    }

    fn error(&mut self, code: DiagCode, msg: impl Into<String>, span: Span) {
        self.diags.push(Diagnostic::error(code, msg, span));
    }

    fn warn(&mut self, code: DiagCode, msg: impl Into<String>, span: Span) {
        self.diags.push(Diagnostic::warning(code, msg, span));
    }

    fn run(mut self, program: &Program) -> CheckOutcome {
        // Pass 1: imports.
        for (module, version_text, span) in program.imports() {
            if !self.registry.has_module(module) {
                self.error(
                    DiagCode::UnknownImport,
                    format!("no library module named `{module}`"),
                    span,
                );
                continue;
            }
            match version_text.parse::<Version>() {
                Ok(v) if self.registry.is_released(v) => {
                    // Multiple imports: the *lowest* version wins, modelling a
                    // project pinned to its oldest dependency constraint.
                    self.version = Some(match self.version {
                        Some(existing) => existing.min(v),
                        None => v,
                    });
                }
                Ok(v) => {
                    self.error(
                        DiagCode::UnknownImport,
                        format!("`{module}` has no released version {v}"),
                        span,
                    );
                }
                Err(_) => {
                    self.error(
                        DiagCode::UnknownImport,
                        format!("invalid version `{version_text}` in import of `{module}`"),
                        span,
                    );
                }
            }
        }
        let uses_gates = program
            .items
            .iter()
            .any(|i| matches!(i, Item::Stmt(_)) || matches!(i, Item::GateDef { .. }));
        if self.version.is_none() && uses_gates {
            self.diags.push(
                Diagnostic::error(
                    DiagCode::MissingImport,
                    "program uses gates but never imports `qasmlite`",
                    Span::at(1, 1),
                )
                .with_hint("add `import qasmlite 2.1;` at the top"),
            );
        }

        // Pass 2: registers and gate definitions, in order.
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
                } => self.declare_subroutine(name, params, operands, body, *span),
                _ => {}
            }
        }

        // Pass 3: statements.
        let mut circuit = Circuit::new(self.num_qubits, self.num_clbits);
        for item in &program.items {
            if let Item::Stmt(stmt) = item {
                self.lower_stmt(stmt, &mut circuit);
            }
        }

        if circuit.num_measurements() == 0 && !circuit.is_empty() {
            self.warn(
                DiagCode::NoMeasurement,
                "circuit contains no measurement; sampled results will be empty",
                Span::at(1, 1),
            );
        }

        let has_errors = self.diags.iter().any(|d| d.severity == Severity::Error);
        CheckOutcome {
            circuit: (!has_errors).then_some(circuit),
            diagnostics: self.diags,
        }
    }

    fn declare_register(&mut self, kind: RegKind, name: &str, size: usize, span: Span) {
        match kind {
            RegKind::Quantum => {
                if self.qregs.contains_key(name) {
                    self.error(
                        DiagCode::DuplicateRegister,
                        format!("quantum register `{name}` declared twice"),
                        span,
                    );
                    return;
                }
                let offset = self.num_qubits;
                self.qregs
                    .insert(name.to_string(), RegInfo { offset, size, kind });
                self.num_qubits += size;
            }
            RegKind::Classical => {
                if self.cregs.contains_key(name) {
                    self.error(
                        DiagCode::DuplicateRegister,
                        format!("classical register `{name}` declared twice"),
                        span,
                    );
                    return;
                }
                let offset = self.num_clbits;
                self.cregs
                    .insert(name.to_string(), RegInfo { offset, size, kind });
                self.num_clbits += size;
            }
        }
    }

    fn declare_subroutine(
        &mut self,
        name: &str,
        params: &[String],
        operands: &[String],
        body: &[GateApp],
        span: Span,
    ) {
        if self.subs.contains_key(name) {
            self.error(
                DiagCode::DuplicateRegister,
                format!("gate `{name}` defined twice"),
                span,
            );
            return;
        }
        // Validate body references: every operand must be a formal name,
        // every expression identifier a formal parameter. Gate names resolve
        // lazily at call sites (so version applies uniformly).
        for app in body {
            for operand in &app.operands {
                if operand.index.is_some() || !operands.contains(&operand.reg) {
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
                if let Err(e) =
                    expr.eval(&|ident| params.contains(&ident.to_string()).then_some(0.0))
                {
                    self.error(
                        DiagCode::ParamCountMismatch,
                        format!("in gate `{name}`: {e}"),
                        app.span,
                    );
                }
            }
        }
        self.subs.insert(
            name.to_string(),
            SubDef {
                params: params.to_vec(),
                operands: operands.to_vec(),
                body: body.to_vec(),
            },
        );
    }

    /// Resolves a qubit operand to flat indices (broadcast → all indices).
    fn resolve_qubits(&mut self, operand: &Operand) -> Option<Vec<usize>> {
        let Some(info) = self.qregs.get(&operand.reg).cloned() else {
            self.error(
                DiagCode::UndeclaredRegister,
                format!("quantum register `{}` is not declared", operand.reg),
                operand.span,
            );
            return None;
        };
        debug_assert_eq!(info.kind, RegKind::Quantum);
        match operand.index {
            Some(i) if i < info.size => Some(vec![info.offset + i]),
            Some(i) => {
                self.error(
                    DiagCode::QubitOutOfRange,
                    format!(
                        "index {i} out of range for register `{}` of size {}",
                        operand.reg, info.size
                    ),
                    operand.span,
                );
                None
            }
            None => Some((info.offset..info.offset + info.size).collect()),
        }
    }

    fn resolve_clbits(&mut self, operand: &Operand) -> Option<Vec<usize>> {
        let Some(info) = self.cregs.get(&operand.reg).cloned() else {
            self.error(
                DiagCode::UndeclaredRegister,
                format!("classical register `{}` is not declared", operand.reg),
                operand.span,
            );
            return None;
        };
        match operand.index {
            Some(i) if i < info.size => Some(vec![info.offset + i]),
            Some(i) => {
                self.error(
                    DiagCode::ClbitOutOfRange,
                    format!(
                        "index {i} out of range for register `{}` of size {}",
                        operand.reg, info.size
                    ),
                    operand.span,
                );
                None
            }
            None => Some((info.offset..info.offset + info.size).collect()),
        }
    }

    /// Resolves a gate name through the registry at the imported version,
    /// returning the canonical name and adapted parameters.
    fn resolve_gate_name(
        &mut self,
        name: &str,
        params: &[f64],
        span: Span,
    ) -> Option<(String, Vec<f64>)> {
        let version = self.version.unwrap_or(crate::api::CURRENT);
        match self.registry.resolve(name, version) {
            Resolution::Ok => Some((name.to_string(), params.to_vec())),
            Resolution::Deprecated { replacement } => {
                let hint = replacement
                    .map(|r| format!("use `{r}` instead"))
                    .unwrap_or_else(|| "consult the migration guide".to_string());
                self.diags.push(
                    Diagnostic::warning(
                        DiagCode::DeprecatedSymbol,
                        format!("`{name}` is deprecated since qasmlite 2.0"),
                        span,
                    )
                    .with_hint(hint),
                );
                match adapt_legacy_params(name, params) {
                    Some((canon, adapted)) => Some((canon.to_string(), adapted)),
                    None => {
                        self.error(
                            DiagCode::ParamCountMismatch,
                            format!("wrong number of parameters for `{name}`"),
                            span,
                        );
                        None
                    }
                }
            }
            Resolution::Removed { replacement } => {
                let hint = replacement
                    .map(|r| format!("use `{r}` instead"))
                    .unwrap_or_else(|| "consult the migration guide".to_string());
                self.diags.push(
                    Diagnostic::error(
                        DiagCode::RemovedSymbol,
                        format!("`{name}` was removed in qasmlite 2.1"),
                        span,
                    )
                    .with_hint(hint),
                );
                None
            }
            Resolution::NotYetIntroduced { introduced } => {
                self.diags.push(
                    Diagnostic::error(
                        DiagCode::MissingImport,
                        format!(
                            "`{name}` requires qasmlite >= {introduced} but version {version} is imported"
                        ),
                        span,
                    )
                    .with_hint(format!("import qasmlite {introduced} or newer")),
                );
                None
            }
            Resolution::Unknown => {
                self.error(
                    DiagCode::UnknownGate,
                    format!("unknown gate `{name}`"),
                    span,
                );
                None
            }
        }
    }

    fn eval_params(&mut self, app: &GateApp) -> Option<Vec<f64>> {
        let mut out = Vec::with_capacity(app.params.len());
        for expr in &app.params {
            match expr.eval_const() {
                Ok(v) => out.push(v),
                Err(e) => {
                    self.error(DiagCode::ParamCountMismatch, e.to_string(), app.span);
                    return None;
                }
            }
        }
        Some(out)
    }

    fn lower_stmt(&mut self, stmt: &Stmt, circuit: &mut Circuit) {
        match stmt {
            Stmt::App(app) => self.lower_app(app, circuit, None),
            Stmt::Measure { src, dst, span } => {
                let (Some(qubits), Some(clbits)) =
                    (self.resolve_qubits(src), self.resolve_clbits(dst))
                else {
                    return;
                };
                if qubits.len() != clbits.len() {
                    self.error(
                        DiagCode::MeasureSizeMismatch,
                        format!(
                            "measure maps {} qubit(s) onto {} classical bit(s)",
                            qubits.len(),
                            clbits.len()
                        ),
                        *span,
                    );
                    return;
                }
                for (q, c) in qubits.into_iter().zip(clbits) {
                    circuit
                        .try_push(Op::Measure { qubit: q, clbit: c })
                        .expect("resolved indices are in range");
                }
            }
            Stmt::Reset { target, span } => {
                let Some(qubits) = self.resolve_qubits(target) else {
                    return;
                };
                let _ = span;
                for q in qubits {
                    circuit
                        .try_push(Op::Reset { qubit: q })
                        .expect("resolved index in range");
                }
            }
            Stmt::Barrier { targets, .. } => {
                let qubits: Vec<usize> = if targets.is_empty() {
                    (0..circuit.num_qubits()).collect()
                } else {
                    let mut all = Vec::new();
                    for t in targets {
                        if let Some(qs) = self.resolve_qubits(t) {
                            all.extend(qs);
                        }
                    }
                    all
                };
                circuit
                    .try_push(Op::Barrier { qubits })
                    .expect("resolved indices in range");
            }
            Stmt::If {
                reg,
                index,
                value,
                app,
                span,
            } => {
                let operand = Operand::indexed(reg.clone(), *index, *span);
                let Some(clbits) = self.resolve_clbits(&operand) else {
                    return;
                };
                if *value > 1 {
                    self.error(
                        DiagCode::ParseError,
                        format!("condition value must be 0 or 1, found {value}"),
                        *span,
                    );
                    return;
                }
                self.lower_app(app, circuit, Some((clbits[0], *value == 1)));
            }
        }
    }

    fn lower_app(
        &mut self,
        app: &GateApp,
        circuit: &mut Circuit,
        condition: Option<(usize, bool)>,
    ) {
        // Subroutine call?
        if let Some(def) = self.subs.get(&app.name).cloned() {
            self.lower_subroutine_call(app, &def, circuit, condition);
            return;
        }
        let Some(params) = self.eval_params(app) else {
            return;
        };
        let Some((canon, params)) = self.resolve_gate_name(&app.name, &params, app.span) else {
            return;
        };
        let Some(gate) = Gate::from_name(&canon, &params) else {
            // Name exists in the registry but the parameter count is wrong.
            self.error(
                DiagCode::ParamCountMismatch,
                format!(
                    "`{}` takes {} parameter(s), {} given",
                    canon,
                    Gate::from_name(&canon, &vec![0.0; expected_params(&canon)])
                        .map(|g| g.num_params())
                        .unwrap_or(0),
                    params.len()
                ),
                app.span,
            );
            return;
        };

        // Resolve operands with broadcast semantics.
        let mut resolved: Vec<Vec<usize>> = Vec::new();
        for operand in &app.operands {
            match self.resolve_qubits(operand) {
                Some(qs) => resolved.push(qs),
                None => return,
            }
        }
        let arity = gate.num_qubits();
        if app.operands.len() != arity {
            // Single whole-register operand on a 1-qubit gate broadcasts.
            if !(arity == 1 && app.operands.len() == 1) {
                self.error(
                    DiagCode::ArityMismatch,
                    format!(
                        "`{}` expects {} operand(s), {} given",
                        canon,
                        arity,
                        app.operands.len()
                    ),
                    app.span,
                );
                return;
            }
        }
        // Broadcast: all operand groups must have equal length.
        let width = resolved.iter().map(Vec::len).max().unwrap_or(1);
        if resolved.iter().any(|g| g.len() != width && g.len() != 1) {
            self.error(
                DiagCode::ArityMismatch,
                "mismatched register sizes in broadcast gate application".to_string(),
                app.span,
            );
            return;
        }
        for k in 0..width {
            let qubits: Vec<usize> = resolved
                .iter()
                .map(|g| if g.len() == 1 { g[0] } else { g[k] })
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
            if let Err(e) = circuit.try_push(op) {
                self.error(
                    match e {
                        crate::circuit::CircuitError::DuplicateQubit { .. } => {
                            DiagCode::DuplicateQubit
                        }
                        crate::circuit::CircuitError::ArityMismatch { .. } => {
                            DiagCode::ArityMismatch
                        }
                        crate::circuit::CircuitError::QubitOutOfRange { .. } => {
                            DiagCode::QubitOutOfRange
                        }
                        crate::circuit::CircuitError::ClbitOutOfRange { .. } => {
                            DiagCode::ClbitOutOfRange
                        }
                    },
                    e.to_string(),
                    app.span,
                );
                return;
            }
        }
    }

    fn lower_subroutine_call(
        &mut self,
        app: &GateApp,
        def: &SubDef,
        circuit: &mut Circuit,
        condition: Option<(usize, bool)>,
    ) {
        if app.operands.len() != def.operands.len() {
            self.error(
                DiagCode::SubroutineArityMismatch,
                format!(
                    "gate `{}` expects {} operand(s), {} given",
                    app.name,
                    def.operands.len(),
                    app.operands.len()
                ),
                app.span,
            );
            return;
        }
        if app.params.len() != def.params.len() {
            self.error(
                DiagCode::ParamCountMismatch,
                format!(
                    "gate `{}` expects {} parameter(s), {} given",
                    app.name,
                    def.params.len(),
                    app.params.len()
                ),
                app.span,
            );
            return;
        }
        let Some(arg_values) = self.eval_params(app) else {
            return;
        };
        // Resolve actual operands to single flat qubit indices.
        let mut binding: BTreeMap<&str, usize> = BTreeMap::new();
        for (formal, actual) in def.operands.iter().zip(&app.operands) {
            let Some(qs) = self.resolve_qubits(actual) else {
                return;
            };
            if qs.len() != 1 {
                self.error(
                    DiagCode::SubroutineArityMismatch,
                    format!(
                        "gate `{}` operand `{}` must be a single qubit, not a whole register",
                        app.name, actual
                    ),
                    actual.span,
                );
                return;
            }
            binding.insert(formal.as_str(), qs[0]);
        }
        let param_env: BTreeMap<&str, f64> = def
            .params
            .iter()
            .map(String::as_str)
            .zip(arg_values.iter().copied())
            .collect();

        for body_app in &def.body {
            let mut params = Vec::with_capacity(body_app.params.len());
            let mut failed = false;
            for expr in &body_app.params {
                match expr.eval(&|name| param_env.get(name).copied()) {
                    Ok(v) => params.push(v),
                    Err(e) => {
                        self.error(DiagCode::ParamCountMismatch, e.to_string(), body_app.span);
                        failed = true;
                        break;
                    }
                }
            }
            if failed {
                continue;
            }
            let Some((canon, params)) =
                self.resolve_gate_name(&body_app.name, &params, body_app.span)
            else {
                continue;
            };
            let Some(gate) = Gate::from_name(&canon, &params) else {
                self.error(
                    DiagCode::ParamCountMismatch,
                    format!("wrong number of parameters for `{canon}`"),
                    body_app.span,
                );
                continue;
            };
            let qubits: Option<Vec<usize>> = body_app
                .operands
                .iter()
                .map(|o| binding.get(o.reg.as_str()).copied())
                .collect();
            let Some(qubits) = qubits else {
                // Already diagnosed at definition time.
                continue;
            };
            if qubits.len() != gate.num_qubits() {
                self.error(
                    DiagCode::ArityMismatch,
                    format!(
                        "in gate `{}`: `{}` expects {} operand(s), {} given",
                        app.name,
                        canon,
                        gate.num_qubits(),
                        qubits.len()
                    ),
                    body_app.span,
                );
                continue;
            }
            let op = match condition {
                Some((clbit, value)) => Op::CondGate {
                    gate,
                    qubits,
                    clbit,
                    value,
                },
                None => Op::Gate { gate, qubits },
            };
            if let Err(e) = circuit.try_push(op) {
                self.error(DiagCode::DuplicateQubit, e.to_string(), body_app.span);
            }
        }
    }
}

/// Expected parameter count by canonical name (for error messages).
fn expected_params(name: &str) -> usize {
    match name {
        "rx" | "ry" | "rz" | "p" | "crx" | "cry" | "crz" | "cp" => 1,
        "u" => 3,
        _ => 0,
    }
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
}
