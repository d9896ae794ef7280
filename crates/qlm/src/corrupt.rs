//! Corruption channels: the failure modes of the simulated LLM.
//!
//! Each channel corresponds to an error class the paper observes in
//! LLM-generated Qiskit code. Channels are sampled independently per
//! generation; when a channel fires, a concrete source-level operator
//! mutates the emitted program so that the *checker and simulator* — not a
//! table — decide what the consequence is. (A deprecated alias under an
//! old import is merely a warning; the same alias under the current import
//! is a hard error. An off-by-one index may be out of range, or may be
//! silently wrong semantics. This matches reality.)

use rand::Rng;
use std::collections::BTreeMap;
use std::fmt;

/// The failure channels of the generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Channel {
    /// Forgets the import line entirely.
    ImportOmission,
    /// Pins an old library version (training data predates the release).
    StaleImport,
    /// Emits deprecated/removed API names (`cnot`, `toffoli`, `u1`, ...).
    DeprecatedApi,
    /// Drops a delimiter or mangles a token.
    SyntaxError,
    /// Off-by-one qubit index.
    IndexError,
    /// Forgets the measurement statements.
    MissingMeasure,
    /// Perturbs a gate angle.
    WrongParams,
    /// Stops generating early (context/length limit).
    Truncation,
    /// Emits a wrong algorithm altogether (structure unknown or bad plan).
    WrongStructure,
}

impl Channel {
    /// All channels except `WrongStructure` (which is governed by the
    /// knowledge base / CoT plan rather than a flat rate).
    pub const SURFACE: [Channel; 8] = [
        Channel::ImportOmission,
        Channel::StaleImport,
        Channel::DeprecatedApi,
        Channel::SyntaxError,
        Channel::IndexError,
        Channel::MissingMeasure,
        Channel::WrongParams,
        Channel::Truncation,
    ];

    /// `true` for channels whose consequence is (usually) a compile-time
    /// diagnostic rather than silently wrong behaviour.
    pub fn is_syntactic(&self) -> bool {
        matches!(
            self,
            Channel::ImportOmission
                | Channel::StaleImport
                | Channel::DeprecatedApi
                | Channel::SyntaxError
                | Channel::Truncation
        )
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Channel::ImportOmission => "import-omission",
            Channel::StaleImport => "stale-import",
            Channel::DeprecatedApi => "deprecated-api",
            Channel::SyntaxError => "syntax-error",
            Channel::IndexError => "index-error",
            Channel::MissingMeasure => "missing-measure",
            Channel::WrongParams => "wrong-params",
            Channel::Truncation => "truncation",
            Channel::WrongStructure => "wrong-structure",
        };
        write!(f, "{name}")
    }
}

/// Per-channel firing probabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelRates {
    rates: BTreeMap<Channel, f64>,
}

impl ChannelRates {
    /// The base (pre-trained only) model's rates. Import/deprecation
    /// channels dominate — the paper's central observation about stale
    /// training data.
    pub fn base() -> Self {
        let mut rates = BTreeMap::new();
        rates.insert(Channel::ImportOmission, 0.14);
        rates.insert(Channel::StaleImport, 0.32);
        rates.insert(Channel::DeprecatedApi, 0.36);
        rates.insert(Channel::SyntaxError, 0.30);
        rates.insert(Channel::IndexError, 0.14);
        rates.insert(Channel::MissingMeasure, 0.14);
        rates.insert(Channel::WrongParams, 0.16);
        rates.insert(Channel::Truncation, 0.18);
        ChannelRates { rates }
    }

    /// Fine-tuned model's rates: every surface channel improves, syntax
    /// most (the model saw well-formed recent code), deprecation least
    /// (even post-Feb-2024 scrapes contain stale API, §III-B).
    pub fn fine_tuned() -> Self {
        let mut r = Self::base();
        r.scale(Channel::ImportOmission, 0.55);
        r.scale(Channel::StaleImport, 0.75);
        r.scale(Channel::DeprecatedApi, 0.85);
        r.scale(Channel::SyntaxError, 0.48);
        r.scale(Channel::IndexError, 0.65);
        r.scale(Channel::MissingMeasure, 0.55);
        r.scale(Channel::WrongParams, 0.72);
        r.scale(Channel::Truncation, 0.62);
        r
    }

    /// The rate of a channel.
    pub fn rate(&self, channel: Channel) -> f64 {
        self.rates.get(&channel).copied().unwrap_or(0.0)
    }

    /// Multiplies a channel's rate by `factor` (clamped to [0, 1]).
    pub fn scale(&mut self, channel: Channel, factor: f64) {
        let r = self.rate(channel);
        self.rates.insert(channel, (r * factor).clamp(0.0, 1.0));
    }

    /// Sets a channel's rate to zero.
    pub fn suppress(&mut self, channel: Channel) {
        self.rates.insert(channel, 0.0);
    }

    /// Probability that *no* surface channel fires.
    pub fn clean_probability(&self) -> f64 {
        Channel::SURFACE
            .iter()
            .map(|c| 1.0 - self.rate(*c))
            .product()
    }

    /// Samples the set of channels that fire this generation.
    pub fn sample(&self, rng: &mut impl Rng) -> Vec<Channel> {
        Channel::SURFACE
            .iter()
            .copied()
            .filter(|c| {
                let r = self.rate(*c);
                r > 0.0 && rng.gen_bool(r)
            })
            .collect()
    }
}

/// The older releases [`Channel::StaleImport`] pins a program to.
const STALE_VERSIONS: [&str; 3] = ["1.0", "1.1", "2.0"];

/// The `(modern, legacy)` spellings [`Channel::DeprecatedApi`] swaps, each
/// with the token that follows the gate name.
const LEGACY_SPELLINGS: [(&str, &str); 3] = [("cx ", "cnot "), ("ccx ", "toffoli "), ("p(", "u1(")];

/// Applies one channel's source-level mutation.
///
/// Operators are deliberately "realistic": they produce the same textual
/// artifacts an LLM with stale knowledge produces, and their consequences
/// are determined downstream by the checker/simulator.
pub fn apply(channel: Channel, source: &str, rng: &mut impl Rng) -> String {
    match channel {
        Channel::ImportOmission => source
            .lines()
            .filter(|l| !l.trim_start().starts_with("import"))
            .map(|l| format!("{l}\n"))
            .collect(),
        Channel::StaleImport => {
            let stale = STALE_VERSIONS[rng.gen_range(0..STALE_VERSIONS.len())];
            source.replace("import qasmlite 2.1;", &format!("import qasmlite {stale};"))
        }
        Channel::DeprecatedApi => {
            // Substitute legacy aliases for modern names, token-wise.
            let mut out = source.to_string();
            for (new, old) in LEGACY_SPELLINGS {
                if rng.gen_bool(0.8) {
                    out = out.replace(&format!("\n{new}"), &format!("\n{old}"));
                    // Also at line starts after statements on same line form.
                    out = out.replace(&format!("; {new}"), &format!("; {old}"));
                }
            }
            out
        }
        Channel::SyntaxError => {
            let semis: Vec<usize> = source
                .char_indices()
                .filter_map(|(i, c)| (c == ';').then_some(i))
                .collect();
            if semis.is_empty() {
                return source.to_string();
            }
            let victim = semis[rng.gen_range(0..semis.len())];
            let mut out = String::with_capacity(source.len());
            out.push_str(&source[..victim]);
            out.push_str(&source[victim + 1..]);
            out
        }
        Channel::IndexError => {
            // Bump the index in one random `q[i]` occurrence.
            let mut occurrences = Vec::new();
            let bytes = source.as_bytes();
            let mut i = 0;
            while let Some(pos) = source[i..].find("q[") {
                let start = i + pos + 2;
                let mut end = start;
                while end < bytes.len() && bytes[end].is_ascii_digit() {
                    end += 1;
                }
                if end > start {
                    occurrences.push((start, end));
                }
                i = start;
            }
            // Skip the register declaration (first occurrence is `qreg q[n]`
            // which we must keep intact — index errors hit *usages*).
            if occurrences.len() <= 1 {
                return source.to_string();
            }
            let (start, end) = occurrences[rng.gen_range(1..occurrences.len())];
            let old: usize = source[start..end].parse().unwrap_or(0);
            format!("{}{}{}", &source[..start], old + 1, &source[end..])
        }
        Channel::MissingMeasure => source
            .lines()
            .filter(|l| !l.trim_start().starts_with("measure"))
            .map(|l| format!("{l}\n"))
            .collect(),
        Channel::WrongParams => {
            // Find a floating-point literal inside parentheses and scale it.
            let Some(open) = source.find('(') else {
                return source.to_string();
            };
            let Some(close_rel) = source[open..].find(')') else {
                return source.to_string();
            };
            let close = open + close_rel;
            let inner = &source[open + 1..close];
            if let Ok(v) = inner.trim().parse::<f64>() {
                let factor = [2.0, 0.5, -1.0][rng.gen_range(0..3)];
                return format!(
                    "{}({}){}",
                    &source[..open],
                    v * factor,
                    &source[close + 1..]
                );
            }
            source.to_string()
        }
        Channel::Truncation => {
            let lines: Vec<&str> = source.lines().collect();
            if lines.len() <= 4 {
                return source.to_string();
            }
            let keep = rng.gen_range(lines.len() / 2..lines.len() - 1);
            lines[..keep].iter().map(|l| format!("{l}\n")).collect()
        }
        Channel::WrongStructure => {
            // Handled by the model via `template::confabulated_source`.
            source.to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const SAMPLE: &str = "import qasmlite 2.1;\nqreg q[3];\ncreg c[3];\nh q[0];\ncx q[0], q[1];\nrz(0.5) q[2];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\nmeasure q[2] -> c[2];\n";

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn import_omission_strips_imports() {
        let out = apply(Channel::ImportOmission, SAMPLE, &mut rng());
        assert!(!out.contains("import"));
        assert!(out.contains("qreg"));
    }

    #[test]
    fn substitutions_match_the_library_table() {
        for (new, old) in LEGACY_SPELLINGS {
            let token = |s: &'static str| s.trim_end_matches([' ', '(']);
            let row = qcir::api::lookup(token(old)).expect("legacy name is in the library");
            assert_eq!(row.replacement, Some(token(new)), "`{}`", row.name);
        }
        for stale in STALE_VERSIONS {
            let version: qcir::api::Version = stale.parse().unwrap();
            assert!(qcir::api::RELEASES.contains(&version), "{stale}");
        }
    }

    #[test]
    fn stale_import_changes_version() {
        let out = apply(Channel::StaleImport, SAMPLE, &mut rng());
        assert!(!out.contains("2.1"));
        assert!(out.contains("import qasmlite"));
    }

    #[test]
    fn deprecated_api_swaps_aliases() {
        let mut any = false;
        let mut r = rng();
        for _ in 0..20 {
            let out = apply(Channel::DeprecatedApi, SAMPLE, &mut r);
            if out.contains("cnot") {
                any = true;
                assert!(!out.contains("\ncx "));
            }
        }
        assert!(any, "cnot substitution should fire at 80% per alias");
    }

    #[test]
    fn syntax_error_breaks_parsing() {
        let out = apply(Channel::SyntaxError, SAMPLE, &mut rng());
        assert!(qcir::dsl::parse(&out).is_err());
    }

    #[test]
    fn index_error_changes_a_usage_not_the_declaration() {
        let out = apply(Channel::IndexError, SAMPLE, &mut rng());
        assert!(out.contains("qreg q[3]"), "declaration preserved: {out}");
        assert_ne!(out, SAMPLE);
    }

    #[test]
    fn missing_measure_strips_measures() {
        let out = apply(Channel::MissingMeasure, SAMPLE, &mut rng());
        assert!(!out.contains("measure"));
    }

    #[test]
    fn wrong_params_perturbs_angle() {
        let out = apply(Channel::WrongParams, SAMPLE, &mut rng());
        assert!(!out.contains("rz(0.5)"), "angle should change: {out}");
        assert!(qcir::dsl::parse(&out).is_ok(), "still parses: {out}");
    }

    #[test]
    fn truncation_shortens() {
        let out = apply(Channel::Truncation, SAMPLE, &mut rng());
        assert!(out.lines().count() < SAMPLE.lines().count());
    }

    #[test]
    fn rates_scale_and_suppress() {
        let mut r = ChannelRates::base();
        let before = r.rate(Channel::SyntaxError);
        r.scale(Channel::SyntaxError, 0.5);
        assert!((r.rate(Channel::SyntaxError) - before * 0.5).abs() < 1e-12);
        r.suppress(Channel::SyntaxError);
        assert_eq!(r.rate(Channel::SyntaxError), 0.0);
    }

    #[test]
    fn fine_tuned_rates_are_uniformly_lower() {
        let base = ChannelRates::base();
        let tuned = ChannelRates::fine_tuned();
        for c in Channel::SURFACE {
            assert!(
                tuned.rate(c) < base.rate(c),
                "{c}: {} !< {}",
                tuned.rate(c),
                base.rate(c)
            );
        }
        assert!(tuned.clean_probability() > base.clean_probability());
    }

    #[test]
    fn sampling_respects_rates() {
        let mut r = ChannelRates::base();
        for c in Channel::SURFACE {
            r.suppress(c);
        }
        let mut rng = rng();
        assert!(r.sample(&mut rng).is_empty());
    }

    #[test]
    fn syntactic_classification() {
        assert!(Channel::DeprecatedApi.is_syntactic());
        assert!(Channel::Truncation.is_syntactic());
        assert!(!Channel::WrongParams.is_syntactic());
        assert!(!Channel::IndexError.is_syntactic());
    }
}
