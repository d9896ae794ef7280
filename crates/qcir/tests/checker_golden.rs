//! Golden digests over the semantic checker: for each program of a
//! hand-written corpus, the lowered circuit (or its absence) and every
//! diagnostic, with code, message, span and hint, in order. The corpus
//! reaches checker paths that generated sources rarely do: subroutine
//! errors, conditioned calls, broadcasts, every `barrier` form, multiple
//! imports and library-version errors inside gate bodies.
//!
//! The digests were recorded before the checker was restructured into a
//! symbol pass and one lowering pass; any change to a lowered op or a
//! diagnostic byte moves one. `legacy_at_1_0` and `sub_body_gates_at_1_0`
//! were re-recorded once, when the 1.x names (`cnot`, `u1`, ...) started
//! to lower to their canonical gates under a 1.x import instead of failing
//! with a parameter-count error. On a mismatch the test prints the table it
//! computed.

use qcir::api::ApiRegistry;
use qcir::check::check;
use qcir::dsl::parse;

/// FNV-1a over a string.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(name, source)`; every source parses.
const CORPUS: &[(&str, &str)] = &[
    (
        "bell",
        "import qasmlite 2.1;\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0], q[1];\nmeasure q -> c;\n",
    ),
    (
        "sub_param_count",
        "import qasmlite 2.1;\ngate rot(theta) a { rz(theta) a; }\nqreg q[1];\ncreg c[1];\n\
         rot q[0];\nrot(1, 2) q[0];\nrot(0.5) q[0];\nrot(zeta) q[0];\nmeasure q[0] -> c[0];\n",
    ),
    (
        "sub_arity",
        "import qasmlite 2.1;\ngate f a, b { cx a, b; }\nqreg q[3];\ncreg c[1];\n\
         f q[0];\nf q[0], q[1], q[2];\nf q[0], q[1];\nmeasure q[1] -> c[0];\n",
    ),
    (
        "sub_whole_register_actual",
        "import qasmlite 2.1;\ngate f a { h a; }\ngate g a, b { cx a, b; }\nqreg q[2];\n\
         qreg r[1];\ncreg c[1];\nf q;\nf r;\ng q, r;\ng r, q;\nmeasure r[0] -> c[0];\n",
    ),
    (
        "sub_whole_register_of_one_binds",
        "import qasmlite 2.1;\ngate f a { h a; x a; }\nqreg r[1];\ncreg c[1];\nf r;\n\
         measure r -> c;\n",
    ),
    (
        "sub_duplicate_actual",
        "import qasmlite 2.1;\ngate f a, b { h a; cx a, b; x b; cz b, a; }\nqreg q[2];\n\
         creg c[2];\nf q[0], q[0];\nf q[1], q[1];\nmeasure q -> c;\n",
    ),
    (
        "sub_actual_errors",
        "import qasmlite 2.1;\ngate f a, b { cx a, b; }\nqreg q[2];\nf q[0], r[0];\n\
         f q[5], q[0];\nf r[0], q[7];\n",
    ),
    (
        "sub_body_reference_errors",
        "import qasmlite 2.1;\ngate f(t) a { h b; h a[0]; rz(s) a; rz(t) a; rx(t * s) a; }\n\
         qreg q[1];\ncreg c[1];\nf(0.5) q[0];\nf(0.25) q[0];\nmeasure q[0] -> c[0];\n",
    ),
    (
        "sub_body_gates_at_2_1",
        "import qasmlite 2.1;\ngate f a, b { cnot a, b; foo a; cx a; rz a; u2(0.1) a; \
         h(0.3) b; toffoli a, b, a; sx a; }\nqreg q[2];\ncreg c[2];\nf q[0], q[1];\n\
         f q[1], q[0];\nmeasure q -> c;\n",
    ),
    (
        "sub_body_gates_at_2_0",
        "import qasmlite 2.0;\ngate f a, b { cnot a, b; u1(0.3) a; u2(0.1, 0.2) b; \
         u3(1, 2, 3) a; toffoli a, b, a; iden a; u2(0.1) a; u1 b; }\nqreg q[2];\ncreg c[2];\n\
         f q[0], q[1];\nmeasure q -> c;\n",
    ),
    (
        "sub_body_gates_at_2_0_clean",
        "import qasmlite 2.0;\ngate f(t) a, b { cnot a, b; u1(t) a; u2(t, t / 2) b; \
         u3(t, 2, 3) a; iden a; }\nqreg q[2];\ncreg c[2];\nf(0.7) q[0], q[1];\n\
         f(-0.7) q[1], q[0];\nmeasure q -> c;\n",
    ),
    (
        "sub_body_gates_at_1_0",
        "import qasmlite 1.0;\ngate f a, b { cx a, b; sx a; cnot a, b; u1(0.2) a; swap a, b; \
         h a; p(0.1) b; }\nqreg q[2];\ncreg c[2];\nf q[0], q[1];\nmeasure q -> c;\n",
    ),
    (
        "sub_body_gates_at_1_1",
        "import qasmlite 1.1;\ngate f a, b { swap a, b; ch a, b; p(0.4) b; id a; cswap a, b; }\n\
         qreg q[2];\ncreg c[2];\nf q[0], q[1];\nmeasure q -> c;\n",
    ),
    (
        "cond_sub_call",
        "import qasmlite 2.1;\ngate f a, b { h a; cx a, b; }\nqreg q[2];\ncreg c[1];\n\
         measure q[0] -> c[0];\nif (c[0] == 1) f q[0], q[1];\nif (c[0] == 0) f q[1], q[0];\n\
         measure q[1] -> c[0];\n",
    ),
    (
        "cond_sub_call_errors",
        "import qasmlite 2.1;\ngate f a, b { h a; cx a, b; }\nqreg q[2];\ncreg c[1];\n\
         if (c[0] == 1) f q;\nif (c[0] == 1) f q[0], q[0];\nif (c[0] == 1) f q[0];\n\
         if (c[2] == 1) f q[0], q[1];\nif (c[0] == 3) f q[0], q[1];\n",
    ),
    (
        "cond_gates",
        "import qasmlite 2.1;\nqreg q[3];\ncreg c[2];\nmeasure q[0] -> c[0];\n\
         if (c[0] == 1) x q[1];\nif (c[1] == 0) h q;\nif (c[0] == 1) cx q[0], q[2];\n\
         if (c[0] == 1) rz(pi / 3) q[2];\nmeasure q[1] -> c[1];\n",
    ),
    (
        "cond_errors",
        "import qasmlite 2.1;\nqreg q[2];\ncreg c[1];\nif (c[3] == 1) x q[0];\n\
         if (d[0] == 1) x q[0];\nif (c[0] == 2) x q[0];\nif (c[0] == 17) x r[0];\n\
         if (c[0] == 1) foo q[0];\nif (c[0] == 1) cx q[0], q[0];\nif (c[0] == 1) cnot q[0], q[1];\n\
         if (q[0] == 1) x q[1];\n",
    ),
    (
        "broadcast_1q",
        "import qasmlite 2.1;\nqreg q[3];\ncreg c[3];\nh q;\nx q[1];\nrz(pi / 4) q;\n\
         u(1, 2, 3) q;\nmeasure q -> c;\n",
    ),
    (
        "broadcast_2q",
        "import qasmlite 2.1;\nqreg a[3];\nqreg b[3];\nqreg t[1];\ncreg c[3];\ncx a, b;\n\
         cx t[0], b;\ncx a, t[0];\nccx a, b, t[0];\ncp(0.5) b, a;\nswap a, b;\nmeasure b -> c;\n",
    ),
    (
        "broadcast_mismatch",
        "import qasmlite 2.1;\nqreg a[2];\nqreg b[3];\nqreg t[1];\ncx a, b;\nswap a, b;\n\
         cx a, a;\nccx a, t, b;\ncx t, a;\nh a, b;\ncx a;\n",
    ),
    (
        "barrier_forms",
        "import qasmlite 2.1;\nqreg q[3];\nqreg r[2];\ncreg c[3];\nh q[0];\nbarrier;\n\
         barrier q;\nbarrier q[1];\nbarrier q, r[0];\nbarrier q[0], q[0];\nbarrier r, q;\n\
         measure q -> c;\n",
    ),
    (
        "barrier_errors",
        "import qasmlite 2.1;\nqreg q[3];\ncreg c[3];\nbarrier s;\nbarrier q[7];\n\
         barrier q, s, q[1];\nmeasure q -> c;\n",
    ),
    (
        "barrier_only",
        "import qasmlite 2.1;\nqreg q[2];\nbarrier;\n",
    ),
    (
        "if_values",
        "import qasmlite 2.1;\nqreg q[1];\ncreg c[1];\nmeasure q[0] -> c[0];\n\
         if (c[0] == 0) x q[0];\nif (c[0] == 1) x q[0];\nif (c[0] == 2) x q[0];\n\
         if (c[0] == 4294967296) x q[0];\n",
    ),
    (
        "multiple_imports_pin_lowest",
        "import qasmlite 2.1;\nimport qasmlite.gates 2.0;\nimport qasmlite.runtime 2.1;\n\
         qreg q[2];\ncreg c[2];\ncnot q[0], q[1];\nmeasure q -> c;\n",
    ),
    (
        "multiple_imports_with_errors",
        "import qiskit 1.0;\nimport qasmlite 3.0;\nimport qasmlite 2;\nimport qasmlite 1.5;\n\
         import qasmlite.gates 1.1;\nqreg q[2];\ncx q[0], q[1];\nswap q[0], q[1];\n",
    ),
    (
        "only_bad_imports",
        "import qiskit 1.0;\nimport qasmlite 9.9;\nqreg q[1];\nh q[0];\n",
    ),
    (
        "user_gate_shadows_registry",
        "import qasmlite 2.1;\ngate h a { x a; h a; }\nqreg q[1];\ncreg c[1];\nh q[0];\n\
         measure q -> c;\n",
    ),
    (
        "same_name_quantum_and_classical",
        "import qasmlite 2.1;\nqreg q[1];\ncreg q[1];\nh q[0];\nmeasure q[0] -> q[0];\n",
    ),
    (
        "bad_body_name_once_per_call",
        "import qasmlite 2.1;\ngate f a { foo a; h a; }\nqreg q[1];\nf q[0];\nf q[0];\nf q[0];\n",
    ),
    (
        "duplicates",
        "import qasmlite 2.1;\nqreg q[1];\nqreg q[2];\ncreg c[1];\ncreg c[4];\n\
         gate g a { h a; }\ngate g a { x a; }\ng q[0];\nmeasure q[0] -> c[0];\n",
    ),
    ("missing_import", "qreg q[1];\nh q[0];\n"),
    ("missing_import_gate_def_only", "gate f a { h a; }\n"),
    ("registers_only", "qreg q[2];\ncreg c[2];\n"),
    ("empty", ""),
    (
        "measure_forms",
        "import qasmlite 2.1;\nqreg q[2];\nqreg s[1];\ncreg c[2];\ncreg d[1];\nh q;\n\
         measure q -> c;\nmeasure q[0] -> c;\nmeasure s -> d[0];\nmeasure q -> d;\n\
         measure r -> c;\nmeasure q[0] -> e[0];\nmeasure q[0] -> c[9];\nmeasure q[4] -> c[0];\n",
    ),
    (
        "measure_and_reset_ok",
        "import qasmlite 2.1;\nqreg q[2];\nqreg s[1];\ncreg c[2];\ncreg d[1];\nh q;\n\
         reset q[1];\nreset q;\nmeasure q -> c;\nmeasure s -> d[0];\nmeasure s[0] -> d;\n",
    ),
    (
        "reset_errors",
        "import qasmlite 2.1;\nqreg q[2];\ncreg c[2];\nreset r;\nreset q[2];\nreset c;\n",
    ),
    (
        "param_errors",
        "import qasmlite 2.1;\nqreg q[2];\nrz q[0];\nrz(x) q[0];\nu(1, 2) q[0];\n\
         h(0.5) q[0];\ncx q[0];\ncx q[0], q[1], q[0];\nccx q[0], q[1], q[0];\ncp q[0], q[1];\n\
         rx(1, 2, 3) q;\n",
    ),
    (
        "legacy_at_1_0",
        "import qasmlite 1.0;\nqreg q[3];\ncreg c[3];\ncnot q[0], q[1];\nu1(0.3) q[0];\n\
         toffoli q[0], q[1], q[2];\nswap q[0], q[1];\niden q[2];\nu3(1, 2, 3) q[1];\n\
         measure q -> c;\n",
    ),
    (
        "legacy_at_2_0",
        "import qasmlite 2.0;\nqreg q[2];\nqreg r[2];\ncreg c[2];\nu2(0.1) q[0];\n\
         u2(0.1, 0.2) q[0];\nu3(1, 2, 3) q[1];\niden q[0];\ncnot q, r;\ntoffoli q[0], q[1], r[0];\n\
         u1(pi) r;\nmeasure q -> c;\n",
    ),
    (
        "legacy_at_2_1",
        "import qasmlite 2.1;\nqreg q[2];\ncnot q[0], q[1];\nu1(0.1) q[0];\niden q;\n\
         toffoli q[0], q[1], q[0];\n",
    ),
    (
        "not_yet_introduced",
        "import qasmlite 1.1;\nqreg q[2];\ncreg c[2];\ncx q[0], q[1];\nswap q[0], q[1];\n\
         ccx q[0], q[1], q[0];\nu(1, 2, 3) q[0];\nmeasure q -> c;\n",
    ),
    ("no_measurement", "import qasmlite 2.1;\nqreg q[1];\nh q[0];\n"),
    (
        "zero_width_register",
        "import qasmlite 2.1;\nqreg z[0];\nqreg q[1];\ncreg c[1];\nh z;\ncx z, q[0];\n\
         barrier z;\nmeasure q -> c;\n",
    ),
    (
        "zero_width_register_broadcasts",
        "import qasmlite 2.1;\nqreg z[0];\ncreg e[0];\nh z;\nmeasure z -> e;\nreset z;\nbarrier z;\n",
    ),
    (
        "expressions",
        "import qasmlite 2.1;\ngate g(a, b) x { rz(a * b - a / 2) x; rx(-b) x; u(a, b, a + b) x; }\n\
         qreg q[1];\ncreg c[1];\nrz(-pi / 2 + 3 * 0.5) q[0];\ng(pi, 2) q[0];\ng(1e-3, -(2 + 1)) q[0];\n\
         measure q -> c;\n",
    ),
    (
        "duplicate_formals",
        "import qasmlite 2.1;\ngate f a, a { h a; }\ngate g(t, t) a { rz(t) a; }\nqreg q[2];\n\
         creg c[2];\nf q[0], q[1];\ng(1, 2) q[0];\nmeasure q -> c;\n",
    ),
    (
        "sub_calls_sub",
        "import qasmlite 2.1;\ngate f a { h a; }\ngate g a { f a; x a; }\nqreg q[1];\ncreg c[1];\n\
         g q[0];\nmeasure q -> c;\n",
    ),
    (
        "defined_after_use",
        "import qasmlite 2.1;\nh q[0];\nf q[0], q[1];\nmeasure q -> c;\ngate f a, b { cx b, a; }\n\
         qreg q[2];\ncreg c[2];\n",
    ),
    (
        "offsets_across_registers",
        "import qasmlite 2.1;\nqreg a[2];\ncreg x[1];\nqreg b[3];\ncreg y[2];\nh b;\ncx a[1], b[2];\n\
         measure b[1] -> y[1];\nmeasure a -> y;\nmeasure b[0] -> x[0];\nreset a;\n\
         if (y[1] == 1) x b[0];\nbarrier a, b[2];\n",
    ),
    (
        "many_errors",
        "import qasmlite 2.1;\nqreg q[1];\nfoo q[0];\nbar q[0];\nh q[9];\ncx q[0], w[0];\n\
         measure q[0] -> c[0];\n",
    ),
];

/// The recorded digest of each corpus program, in corpus order.
const EXPECTED: &[(&str, u64)] = &[
    ("bell", 0x4a040797c086301d),
    ("sub_param_count", 0xc0bd760176e4f498),
    ("sub_arity", 0x7cacb14e3632a709),
    ("sub_whole_register_actual", 0xb5e763931be47260),
    ("sub_whole_register_of_one_binds", 0x09cb2c82f61d4e38),
    ("sub_duplicate_actual", 0xd20b646e437e29d8),
    ("sub_actual_errors", 0x546bfeea126c80c6),
    ("sub_body_reference_errors", 0xe0d486a53f7d96b1),
    ("sub_body_gates_at_2_1", 0xf58c0f8fcb1fe544),
    ("sub_body_gates_at_2_0", 0x0b807aa864c3d289),
    ("sub_body_gates_at_2_0_clean", 0xaeac0ea4b18d01d3),
    ("sub_body_gates_at_1_0", 0xbb3a111066acc4c6),
    ("sub_body_gates_at_1_1", 0xa83d4c5758882cfd),
    ("cond_sub_call", 0x7ae34092020c6b94),
    ("cond_sub_call_errors", 0x686b1fdbe8e4469a),
    ("cond_gates", 0x042f9c9af220f9ab),
    ("cond_errors", 0xd874f436a9d4b3f6),
    ("broadcast_1q", 0xf775fe278024d959),
    ("broadcast_2q", 0xda77860982c6ed39),
    ("broadcast_mismatch", 0xa9d6b58c5fe3dfee),
    ("barrier_forms", 0xbfadec5be2e713de),
    ("barrier_errors", 0x053873ffa26f511d),
    ("barrier_only", 0x5ac31692ad0c7beb),
    ("if_values", 0xa6465a724d426071),
    ("multiple_imports_pin_lowest", 0x9474e3945d15b400),
    ("multiple_imports_with_errors", 0x86ef4255c4bba13c),
    ("only_bad_imports", 0x5ba16b10f848bb58),
    ("user_gate_shadows_registry", 0xdd589ec6d7ac0b98),
    ("same_name_quantum_and_classical", 0x8c1d9f048a5d0dbc),
    ("bad_body_name_once_per_call", 0x43140c5a989df4f6),
    ("duplicates", 0xe4172a03f5d04e82),
    ("missing_import", 0xbcb531519277bed5),
    ("missing_import_gate_def_only", 0x0b650a2b2698b091),
    ("registers_only", 0x9ab001da7e4bc1e9),
    ("empty", 0x7a1b8484a722a955),
    ("measure_forms", 0x4a1b476acfe03790),
    ("measure_and_reset_ok", 0x8d0c1414c8b15328),
    ("reset_errors", 0x931894dddb2b5012),
    ("param_errors", 0x0f16b6d589a59084),
    ("legacy_at_1_0", 0x941ee4aac0354dd2),
    ("legacy_at_2_0", 0xfae846942bab11fe),
    ("legacy_at_2_1", 0x7fc292ef56c497ad),
    ("not_yet_introduced", 0xb862748cc65c1b2e),
    ("no_measurement", 0x4a7fa51ea5a9712c),
    ("zero_width_register", 0x4c098356bff1a86e),
    ("zero_width_register_broadcasts", 0x3fb95f1a4f4a6936),
    ("expressions", 0x59d8ca9bca48ecf8),
    ("duplicate_formals", 0x114b54e74696479f),
    ("sub_calls_sub", 0x51026191c6b91ba3),
    ("defined_after_use", 0xc9714cb0830c957b),
    ("offsets_across_registers", 0x57a2e1abe4c7c637),
    ("many_errors", 0xa2e1d28183096d3b),
];

#[test]
fn checker_output_matches_the_recorded_digests() {
    let registry = ApiRegistry::standard();
    let computed: Vec<(&str, u64)> = CORPUS
        .iter()
        .map(|(name, source)| {
            let program =
                parse(source).unwrap_or_else(|d| panic!("corpus program `{name}` must parse: {d}"));
            let out = check(&program, &registry);
            (
                *name,
                fnv1a(&format!("{:?}/{:?}", out.circuit, out.diagnostics)),
            )
        })
        .collect();
    let table: String = computed
        .iter()
        .map(|(name, digest)| format!("    ({name:?}, {digest:#018x}),\n"))
        .collect();
    assert!(
        computed == EXPECTED,
        "checker digests moved; computed table:\n{table}"
    );
}
