//! Program templates: the "gold" QasmLite source the model emits when it
//! knows an algorithm, and the plausible-but-wrong sources it emits when
//! it does not.
//!
//! # The template memo
//!
//! Rendering a template builds the reference circuit and formats it, which
//! costs more than the rest of a generation. A spec's gold source and its
//! three confabulations never change, so they are rendered once, on the
//! spec's first use, into a process-wide memo keyed by the spec's `Debug`
//! text (which spells every float exactly, so `-0.0` and `0.0` never
//! share an entry). The memo is shared across threads behind a lock and
//! holds at most [`MEMO_CAPACITY`] specs; past that, sources are rendered
//! uncached. Cached and uncached sources are the same bytes, and the memo
//! draws nothing from the caller's RNG.

use crate::spec::TaskSpec;
use qcir::fmt::to_qasmlite;
use rand::Rng;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

/// Most specs the template memo holds. The evaluation suite has 34 and the
/// QHE benchmark fewer; a caller sweeping more specs renders the rest
/// uncached.
pub const MEMO_CAPACITY: usize = 256;

/// Everything [`gold_source`] and [`confabulated_source`] can return for
/// one spec.
struct Templates {
    gold: String,
    /// The confabulation returned when the variant draw is `i`.
    confabulations: [String; 3],
}

impl Templates {
    fn render(spec: &TaskSpec) -> Self {
        let gold = to_qasmlite(&spec.reference_circuit());
        let variants: [String; 3] = std::array::from_fn(|v| confabulation_variant(spec, v));
        // A confabulation that happens to coincide with the right program
        // is not a confabulation; rotate variants until the text differs
        // (the rotation-soup variant always does).
        let confabulations = std::array::from_fn(|first| {
            (0..3)
                .map(|offset| &variants[(first + offset) % 3])
                .find(|candidate| **candidate != gold)
                .expect("rotation-soup variant always differs from gold")
                .clone()
        });
        Templates {
            gold,
            confabulations,
        }
    }
}

type Memo = RwLock<HashMap<String, Arc<Templates>>>;

/// The spec's templates, from the memo when it holds them. Entries are
/// inserted whole, so a poisoned lock still guards a valid map.
fn templates(spec: &TaskSpec) -> Arc<Templates> {
    static MEMO: OnceLock<Memo> = OnceLock::new();
    let memo = MEMO.get_or_init(Memo::default);
    let key = format!("{spec:?}");
    if let Some(hit) = memo
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&key)
    {
        return Arc::clone(hit);
    }
    let rendered = Arc::new(Templates::render(spec));
    let mut memo = memo.write().unwrap_or_else(PoisonError::into_inner);
    if memo.len() >= MEMO_CAPACITY {
        return rendered;
    }
    Arc::clone(memo.entry(key).or_insert(rendered))
}

/// The correct program for a task: the reference circuit, rendered to
/// canonical QasmLite.
pub fn gold_source(spec: &TaskSpec) -> String {
    templates(spec).gold.clone()
}

/// A syntactically valid but semantically wrong program for the task — the
/// paper's "syntactically correct but nonsensical code" failure mode.
///
/// The wrong program keeps the right register shape (the model usually gets
/// the interface right) but substitutes a generic structure: a partial
/// superposition with some entanglers, or a mis-parameterized variant of
/// the right algorithm. Draws one `gen_range(0..3)` from `rng`.
pub fn confabulated_source(spec: &TaskSpec, rng: &mut impl Rng) -> String {
    let first = rng.gen_range(0..3);
    templates(spec).confabulations[first].clone()
}

fn confabulation_variant(spec: &TaskSpec, variant: usize) -> String {
    let reference = spec.reference_circuit();
    let n = reference.num_qubits();
    let c = reference.num_clbits().max(1);
    let mut qc = qcir::circuit::Circuit::new(n, c);
    match variant {
        0 => {
            // Partial superposition + stray flip: "looks quantum".
            for q in 0..n.div_ceil(2) {
                qc.h(q);
            }
            if n > 1 {
                qc.x(n - 1);
            }
        }
        1 => {
            // Entangler chain without the oracle/algorithm body.
            qc.h(0);
            for q in 0..n.saturating_sub(1) {
                qc.cx(q, q + 1);
            }
        }
        _ => {
            // Rotation soup: plausible parameterized structure.
            for q in 0..n {
                qc.ry(0.3 + 0.41 * q as f64, q);
            }
            for q in 0..n.saturating_sub(1) {
                qc.cz(q, q + 1);
            }
            for q in 0..n {
                qc.rz(0.7, q);
            }
        }
    }
    for bit in 0..c {
        let q = bit.min(n.saturating_sub(1));
        qc.measure(q, bit);
    }
    to_qasmlite(&qc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gold_source_parses_and_checks() {
        let specs = [
            TaskSpec::BellPair,
            TaskSpec::Grover { n: 3, marked: 2 },
            TaskSpec::Shor,
            TaskSpec::Teleport {
                prep: crate::spec::TeleportPrep::One,
            },
        ];
        for spec in specs {
            let src = gold_source(&spec);
            let program = qcir::dsl::parse(&src).expect("gold source parses");
            let circuit = qcir::check::lower(&program).expect("gold source checks");
            assert_eq!(circuit.num_qubits(), spec.reference_circuit().num_qubits());
        }
    }

    #[test]
    fn memoized_sources_equal_fresh_renders_past_the_bound() {
        use crate::spec::TeleportPrep;
        // Signed zeros render differently, so they must not share an entry.
        let zeros = [0.0, -0.0].map(|theta| TaskSpec::Teleport {
            prep: TeleportPrep::Ry(theta),
        });
        // More distinct specs than the memo holds: the tail renders
        // uncached.
        let phases = (0..=MEMO_CAPACITY).map(|i| TaskSpec::Qpe {
            t: 2,
            phi: i as f64 / 1024.0,
        });
        for spec in zeros.into_iter().chain(phases) {
            let fresh = to_qasmlite(&spec.reference_circuit());
            for _ in 0..2 {
                assert_eq!(gold_source(&spec), fresh, "{spec:?}");
            }
        }
    }

    #[test]
    fn confabulated_source_is_valid_but_different() {
        let mut rng = StdRng::seed_from_u64(5);
        let spec = TaskSpec::Grover { n: 3, marked: 2 };
        for _ in 0..10 {
            let src = confabulated_source(&spec, &mut rng);
            let program = qcir::dsl::parse(&src).expect("confabulation parses");
            let circuit = qcir::check::lower(&program).expect("confabulation checks");
            assert_eq!(circuit.num_qubits(), 3);
            assert_ne!(src, gold_source(&spec), "must differ from gold");
        }
    }

    #[test]
    fn confabulation_keeps_register_interface() {
        let mut rng = StdRng::seed_from_u64(9);
        let spec = TaskSpec::DeutschJozsa {
            n: 3,
            oracle: qalgo::dj::DjOracle::ConstantZero,
        };
        let src = confabulated_source(&spec, &mut rng);
        let circuit = qcir::check::lower(&qcir::dsl::parse(&src).unwrap()).unwrap();
        let reference = spec.reference_circuit();
        assert_eq!(circuit.num_qubits(), reference.num_qubits());
        assert_eq!(circuit.num_clbits(), reference.num_clbits());
    }
}
