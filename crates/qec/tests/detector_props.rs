//! The memory circuit's declared detectors and observable against the
//! per-word oracle.
//!
//! `circuit_level_experiment` decodes parities projected on the simulator
//! workers, not outcome words. That is sound only if, for every outcome
//! word, the projection through `MemoryCircuit::parity_map` fires exactly
//! the nodes `MemoryCircuit::detection_events` lists, and the observable
//! is the logical-Z parity of `MemoryCircuit::data_readout`. Random words
//! cover every bit pattern, noiseless or not, at d = 3, 5 and 7; d = 7 has
//! 97 clbits and 72 detectors plus the observable, so both the register
//! and the projection span two words.

use proptest::prelude::*;
use qec::surface::SurfaceCode;
use qsim::word::OutcomeWord;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn projected_parities_match_the_per_word_oracle(
        d in prop_oneof![Just(3usize), Just(5usize), Just(7usize)],
        rounds in 1usize..4,
        words in prop::collection::vec(0u64..u64::MAX, 2),
        sparse in 0u64..u64::MAX,
    ) {
        let code = SurfaceCode::new(d);
        let mem = code.memory_circuit(rounds);
        let map = mem.parity_map(&code);
        prop_assert_eq!(map.len(), (rounds + 1) * code.z_stabilizers().len() + 1);
        // Dense random bits, and a sparse mask of them, so both busy and
        // nearly quiet syndromes occur.
        for thin in [false, true] {
            let mut word = OutcomeWord::zero();
            for c in 0..mem.circuit.num_clbits() {
                let mut on = words[c / 64] >> (c % 64) & 1 == 1;
                if thin {
                    on &= sparse >> (c % 64) & 1 == 1 && c % 3 == 0;
                }
                word.set_bit(c, on);
            }
            let mut projected = OutcomeWord::zero();
            map.project(&word, &mut projected);
            let events = mem.detection_events(&code, &word);
            let fired: Vec<usize> = (0..mem.detectors(&code).len())
                .filter(|&i| projected.bit(1 + i))
                .collect();
            prop_assert_eq!(&fired, &events, "d={} rounds={}", d, rounds);
            let readout = mem.data_readout(&word);
            prop_assert_eq!(projected.bit(0), code.is_logical_x_flip(&readout));
            prop_assert!(projected.bit_len() <= map.len());
        }
    }
}

/// A noiseless shot fires no detector and reads the observable as 0, so
/// the projection of every noiseless outcome is the zero word.
#[test]
fn noiseless_shots_project_to_zero() {
    use qsim::backend::BackendChoice;
    use qsim::exec::ExecutorConfig;
    for d in [3, 5, 7] {
        let code = SurfaceCode::new(d);
        let mem = code.memory_circuit(2);
        let counts = ExecutorConfig::new()
            .backend(BackendChoice::Tableau)
            .threads(1)
            .build()
            .try_run_parities(&mem.circuit, 64, 5, &mem.parity_map(&code))
            .unwrap();
        assert_eq!(counts.shots(), 64);
        assert_eq!(counts.count(0), 64, "d={d}");
    }
}
