//! Agent identity and conversation transcripts.

use std::fmt;
use std::sync::Arc;

/// Which agent produced a transcript entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AgentId {
    /// The orchestrator itself.
    Orchestrator,
    /// Code generation agent.
    CodeGen,
    /// Semantic analyzer agent.
    SemanticAnalyzer,
    /// QEC decoder generation agent.
    Qec,
}

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AgentId::Orchestrator => write!(f, "orchestrator"),
            AgentId::CodeGen => write!(f, "code-gen"),
            AgentId::SemanticAnalyzer => write!(f, "semantic-analyzer"),
            AgentId::Qec => write!(f, "qec"),
        }
    }
}

/// One message in a pipeline transcript.
#[derive(Debug, Clone, PartialEq)]
pub struct TranscriptEntry {
    /// Who spoke.
    pub agent: AgentId,
    /// Short kind tag (`prompt`, `code`, `trace`, `plan`, `decoder`, ...).
    pub kind: &'static str,
    /// Message body. Shared rather than copied when the text already lives
    /// elsewhere in the report (an analysis's error trace).
    pub content: Arc<str>,
}

/// An append-only record of the pipeline's inter-agent traffic — useful
/// for debugging and for the examples' human-readable output.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Transcript {
    entries: Vec<TranscriptEntry>,
}

impl Transcript {
    /// An empty transcript.
    pub fn new() -> Self {
        Transcript::default()
    }

    /// Appends an entry.
    pub fn push(&mut self, agent: AgentId, kind: &'static str, content: impl Into<Arc<str>>) {
        self.entries.push(TranscriptEntry {
            agent,
            kind,
            content: content.into(),
        });
    }

    /// All entries in order.
    pub fn entries(&self) -> &[TranscriptEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries from one agent.
    pub fn from_agent(&self, agent: AgentId) -> impl Iterator<Item = &TranscriptEntry> {
        self.entries.iter().filter(move |e| e.agent == agent)
    }
}

impl fmt::Display for Transcript {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.entries {
            writeln!(f, "[{} / {}]", e.agent, e.kind)?;
            for line in e.content.lines() {
                writeln!(f, "  {line}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transcript_records_in_order() {
        let mut t = Transcript::new();
        t.push(AgentId::Orchestrator, "prompt", "generate a bell pair");
        t.push(AgentId::CodeGen, "code", "h q[0];");
        assert_eq!(t.len(), 2);
        assert_eq!(t.entries()[0].kind, "prompt");
        assert_eq!(t.from_agent(AgentId::CodeGen).count(), 1);
    }

    #[test]
    fn display_is_readable() {
        let mut t = Transcript::new();
        t.push(
            AgentId::SemanticAnalyzer,
            "trace",
            "error[E0104]: unknown gate",
        );
        let s = t.to_string();
        assert!(s.contains("semantic-analyzer"));
        assert!(s.contains("E0104"));
    }
}
