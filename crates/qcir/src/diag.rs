//! Structured diagnostics.
//!
//! Diagnostics are the currency of the multi-pass repair loop: the semantic
//! analyzer agent renders them into an *error trace* that is appended to the
//! regeneration prompt, and the simulated LLM's repair behaviour keys off
//! the [`DiagCode`], exactly as a real model keys off a Python traceback.

use std::fmt;

/// Severity of a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational note.
    Note,
    /// Suspicious but not fatal (e.g. deprecated API still resolvable).
    Warning,
    /// The program cannot be lowered to a circuit.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => write!(f, "note"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Machine-readable diagnostic classes.
///
/// These map one-to-one onto the error classes the paper observes in LLM
/// generated Qiskit code (§IV-A, §V-D): import misuse and deprecated API
/// dominate; syntax and semantic-structure errors follow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DiagCode {
    /// Source failed to tokenize.
    LexError,
    /// Source failed to parse.
    ParseError,
    /// `import` names a library or version that does not exist.
    UnknownImport,
    /// A required import is missing for a used symbol.
    MissingImport,
    /// Symbol resolved, but is deprecated in the imported version.
    DeprecatedSymbol,
    /// Symbol was removed in the imported version.
    RemovedSymbol,
    /// Gate name unknown in any version.
    UnknownGate,
    /// Wrong number of parameters for a gate.
    ParamCountMismatch,
    /// Wrong number of qubit operands for a gate.
    ArityMismatch,
    /// Qubit index outside its register.
    QubitOutOfRange,
    /// Classical bit index outside its register.
    ClbitOutOfRange,
    /// Register referenced but never declared.
    UndeclaredRegister,
    /// Register declared twice.
    DuplicateRegister,
    /// The same qubit used twice in one gate.
    DuplicateQubit,
    /// Measurement register-size mismatch (`measure q -> c` with |q| != |c|).
    MeasureSizeMismatch,
    /// Program has no measurements but the task requires sampling.
    NoMeasurement,
    /// Subroutine called with wrong operand count.
    SubroutineArityMismatch,
}

impl DiagCode {
    /// `true` for codes that indicate *syntactic/library* failure (the code
    /// cannot run at all), as opposed to running-but-wrong semantics.
    pub fn is_syntactic(&self) -> bool {
        !matches!(self, DiagCode::NoMeasurement)
    }

    /// Short stable identifier used in rendered traces.
    pub fn ident(&self) -> &'static str {
        use DiagCode::*;
        match self {
            LexError => "E0001",
            ParseError => "E0002",
            UnknownImport => "E0100",
            MissingImport => "E0101",
            DeprecatedSymbol => "E0102",
            RemovedSymbol => "E0103",
            UnknownGate => "E0104",
            ParamCountMismatch => "E0200",
            ArityMismatch => "E0201",
            QubitOutOfRange => "E0202",
            ClbitOutOfRange => "E0203",
            UndeclaredRegister => "E0204",
            DuplicateRegister => "E0205",
            DuplicateQubit => "E0206",
            MeasureSizeMismatch => "E0207",
            NoMeasurement => "E0300",
            SubroutineArityMismatch => "E0209",
        }
    }
}

/// A source location (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Span {
    /// 1-based line; 0 when unknown.
    pub line: u32,
    /// 1-based column; 0 when unknown.
    pub col: u32,
}

impl Span {
    /// A span pointing at the given line/column.
    pub fn at(line: u32, col: u32) -> Self {
        Span { line, col }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// One diagnostic: code, severity, message and location.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Machine-readable class.
    pub code: DiagCode,
    /// Severity.
    pub severity: Severity,
    /// Human-readable message (lowercase, no trailing period).
    pub message: String,
    /// Source location, when known.
    pub span: Span,
    /// Optional fix-it hint the repair loop can exploit.
    pub hint: Option<String>,
}

impl Diagnostic {
    /// Creates an error-severity diagnostic.
    pub fn error(code: DiagCode, message: impl Into<String>, span: Span) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            span,
            hint: None,
        }
    }

    /// Creates a warning-severity diagnostic.
    pub fn warning(code: DiagCode, message: impl Into<String>, span: Span) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            message: message.into(),
            span,
            hint: None,
        }
    }

    /// Attaches a fix-it hint.
    pub fn with_hint(mut self, hint: impl Into<String>) -> Self {
        self.hint = Some(hint.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] at {}: {}",
            self.severity,
            self.code.ident(),
            self.span,
            self.message
        )?;
        if let Some(hint) = &self.hint {
            write!(f, " (hint: {hint})")?;
        }
        Ok(())
    }
}

/// Renders a batch of diagnostics as the "error trace" text the multi-pass
/// prompt template embeds.
pub fn render_trace(diags: &[Diagnostic]) -> String {
    let mut out = String::from("Traceback (most recent failure):\n");
    for d in diags {
        out.push_str("  ");
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_code_and_span() {
        let d = Diagnostic::error(DiagCode::UnknownGate, "unknown gate `cnot`", Span::at(4, 1))
            .with_hint("use `cx` instead");
        let s = d.to_string();
        assert!(s.contains("E0104"));
        assert!(s.contains("4:1"));
        assert!(s.contains("hint"));
    }

    #[test]
    fn trace_lists_every_diagnostic() {
        let diags = vec![
            Diagnostic::error(DiagCode::ParseError, "unexpected token", Span::at(1, 1)),
            Diagnostic::warning(
                DiagCode::DeprecatedSymbol,
                "`cnot` is deprecated",
                Span::at(2, 1),
            ),
        ];
        let trace = render_trace(&diags);
        assert_eq!(trace.lines().count(), 3);
        assert!(trace.contains("E0002"));
        assert!(trace.contains("E0102"));
    }

    #[test]
    fn syntactic_classification() {
        assert!(DiagCode::ParseError.is_syntactic());
        assert!(DiagCode::DeprecatedSymbol.is_syntactic());
        assert!(!DiagCode::NoMeasurement.is_syntactic());
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }
}
