//! Versioned API registry for the QasmLite "library".
//!
//! The reproduced paper finds that the dominant failure mode of LLM-written
//! Qiskit code is *library drift*: imports of the wrong version, use of
//! deprecated or removed symbols, and APIs the model's training data
//! predates. To reproduce that failure surface we version QasmLite itself.
//!
//! The library is declared once, in the name-sorted table [`GATES`]: each
//! row holds a gate name, when it was introduced, deprecated and removed,
//! what replaced it, how many angle parameters it takes and how it builds
//! its [`Gate`]. [`ApiRegistry::resolve`], [`ApiRegistry::symbols_at`],
//! [`Gate::from_name`] and the semantic checker all read that table. The
//! checker resolves every gate name against the *imported* version and
//! produces the same class of diagnostics a Python
//! `DeprecationWarning`/`AttributeError` would, then builds the gate from
//! the same row. A legacy row builds its replacement's gate (`u2(φ, λ)` is
//! `U(π/2, φ, λ)`), so a program importing 1.0 or 1.1 may use the 1.x names
//! without a diagnostic; under 2.0 they warn and under 2.1 they are errors.
//!
//! Release history modelled here:
//!
//! | version | change |
//! |---|---|
//! | 1.0 | initial: `cnot`, `toffoli`, `u1`, `u2`, `u3`, `iden`, core gates |
//! | 1.1 | adds `swap`, `ch`, `cswap` |
//! | 2.0 | adds `cx`, `ccx`, `p`, `u`, `sx`, `id`; deprecates the 1.x names |
//! | 2.1 | **removes** the deprecated 1.x names (current release) |

use crate::gate::Gate;
use std::f64::consts::FRAC_PI_2;
use std::fmt;
use std::str::FromStr;

/// A library version `major.minor`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Version {
    /// Major component.
    pub major: u16,
    /// Minor component.
    pub minor: u16,
}

impl Version {
    /// Creates a version.
    pub const fn new(major: u16, minor: u16) -> Self {
        Version { major, minor }
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.major, self.minor)
    }
}

/// Error parsing a version string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseVersionError(pub String);

impl fmt::Display for ParseVersionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid version string `{}`", self.0)
    }
}

impl std::error::Error for ParseVersionError {}

impl FromStr for Version {
    type Err = ParseVersionError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (maj, min) = s
            .split_once('.')
            .ok_or_else(|| ParseVersionError(s.into()))?;
        let major = maj.parse().map_err(|_| ParseVersionError(s.into()))?;
        let minor = min.parse().map_err(|_| ParseVersionError(s.into()))?;
        Ok(Version { major, minor })
    }
}

/// The current QasmLite release.
pub const CURRENT: Version = Version::new(2, 1);

/// All released versions, oldest first.
pub const RELEASES: [Version; 4] = [
    Version::new(1, 0),
    Version::new(1, 1),
    Version::new(2, 0),
    Version::new(2, 1),
];

/// One name of the QasmLite gate library: its lifecycle, how many angle
/// parameters it takes and how it builds its [`Gate`].
#[derive(Debug)]
pub struct GateRow {
    /// The name as written in source.
    pub name: &'static str,
    /// Version that introduced the name.
    pub introduced: Version,
    /// Version that deprecated it, if any.
    pub deprecated: Option<Version>,
    /// Version that removed it, if any.
    pub removed: Option<Version>,
    /// Canonical replacement name, for deprecated/removed names.
    pub replacement: Option<&'static str>,
    /// Number of angle parameters the name takes.
    pub params: usize,
    /// Builds the gate from exactly `params` parameters.
    build: fn(&[f64]) -> Gate,
}

impl GateRow {
    /// Resolves this name against an imported `version`.
    pub fn resolve(&self, version: Version) -> Resolution {
        if version < self.introduced {
            return Resolution::NotYetIntroduced {
                introduced: self.introduced,
            };
        }
        let replacement = self.replacement;
        if self.removed.is_some_and(|removed| version >= removed) {
            return Resolution::Removed { replacement };
        }
        if self
            .deprecated
            .is_some_and(|deprecated| version >= deprecated)
        {
            return Resolution::Deprecated { replacement };
        }
        Resolution::Ok
    }

    /// Builds the gate, or `None` when `params` has the wrong length. A
    /// legacy name builds its replacement's gate.
    pub fn build(&self, params: &[f64]) -> Option<Gate> {
        (params.len() == self.params).then(|| (self.build)(params))
    }
}

const V1_0: Version = RELEASES[0];
const V1_1: Version = RELEASES[1];
const V2_0: Version = RELEASES[2];
const V2_1: Version = RELEASES[3];

/// A current name, introduced in `introduced` and never deprecated.
const fn current(
    name: &'static str,
    introduced: Version,
    params: usize,
    build: fn(&[f64]) -> Gate,
) -> GateRow {
    GateRow {
        name,
        introduced,
        deprecated: None,
        removed: None,
        replacement: None,
        params,
        build,
    }
}

/// A 1.0 name deprecated in 2.0 and removed in 2.1 in favour of
/// `replacement`.
const fn legacy(
    name: &'static str,
    replacement: &'static str,
    params: usize,
    build: fn(&[f64]) -> Gate,
) -> GateRow {
    GateRow {
        name,
        introduced: V1_0,
        deprecated: Some(V2_0),
        removed: Some(V2_1),
        replacement: Some(replacement),
        params,
        build,
    }
}

/// The gate library, sorted by name: every name QasmLite has ever had,
/// with the release history above.
pub static GATES: [GateRow; 32] = [
    current("ccx", V2_0, 0, |_| Gate::CCX),
    current("ch", V1_1, 0, |_| Gate::CH),
    legacy("cnot", "cx", 0, |_| Gate::CX),
    current("cp", V1_0, 1, |p| Gate::CP(p[0])),
    current("crx", V1_0, 1, |p| Gate::CRX(p[0])),
    current("cry", V1_0, 1, |p| Gate::CRY(p[0])),
    current("crz", V1_0, 1, |p| Gate::CRZ(p[0])),
    current("cswap", V1_1, 0, |_| Gate::CSWAP),
    current("cx", V2_0, 0, |_| Gate::CX),
    current("cy", V1_0, 0, |_| Gate::CY),
    current("cz", V1_0, 0, |_| Gate::CZ),
    current("h", V1_0, 0, |_| Gate::H),
    current("id", V2_0, 0, |_| Gate::Id),
    legacy("iden", "id", 0, |_| Gate::Id),
    current("p", V2_0, 1, |p| Gate::P(p[0])),
    current("rx", V1_0, 1, |p| Gate::RX(p[0])),
    current("ry", V1_0, 1, |p| Gate::RY(p[0])),
    current("rz", V1_0, 1, |p| Gate::RZ(p[0])),
    current("s", V1_0, 0, |_| Gate::S),
    current("sdg", V1_0, 0, |_| Gate::Sdg),
    current("swap", V1_1, 0, |_| Gate::SWAP),
    current("sx", V2_0, 0, |_| Gate::SX),
    current("t", V1_0, 0, |_| Gate::T),
    current("tdg", V1_0, 0, |_| Gate::Tdg),
    legacy("toffoli", "ccx", 0, |_| Gate::CCX),
    current("u", V2_0, 3, |p| Gate::U(p[0], p[1], p[2])),
    legacy("u1", "p", 1, |p| Gate::P(p[0])),
    // u2(phi, lambda) = U(pi/2, phi, lambda)
    legacy("u2", "u", 2, |p| Gate::U(FRAC_PI_2, p[0], p[1])),
    legacy("u3", "u", 3, |p| Gate::U(p[0], p[1], p[2])),
    current("x", V1_0, 0, |_| Gate::X),
    current("y", V1_0, 0, |_| Gate::Y),
    current("z", V1_0, 0, |_| Gate::Z),
];

/// The [`GATES`] row for `name`, if the library has ever had it.
pub fn lookup(name: &str) -> Option<&'static GateRow> {
    let index = GATES.binary_search_by(|row| row.name.cmp(name)).ok()?;
    Some(&GATES[index])
}

/// Resolution outcome for a symbol against a specific imported version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolution {
    /// Symbol available and current.
    Ok,
    /// Symbol available but deprecated; replacement name attached.
    Deprecated { replacement: Option<&'static str> },
    /// Symbol removed in this version; replacement name attached.
    Removed { replacement: Option<&'static str> },
    /// Symbol appears in a *newer* version than imported.
    NotYetIntroduced { introduced: Version },
    /// Symbol has never existed.
    Unknown,
}

/// The registry of library modules, over the [`GATES`] table.
#[derive(Debug, Clone)]
pub struct ApiRegistry {
    modules: &'static [&'static str],
}

impl Default for ApiRegistry {
    fn default() -> Self {
        Self::standard()
    }
}

impl ApiRegistry {
    /// The standard registry with the release history above.
    pub fn standard() -> Self {
        ApiRegistry {
            modules: &["qasmlite", "qasmlite.gates", "qasmlite.runtime"],
        }
    }

    /// `true` when `module` is an importable library module.
    pub fn has_module(&self, module: &str) -> bool {
        self.modules.contains(&module)
    }

    /// `true` when `version` is a released QasmLite version.
    pub fn is_released(&self, version: Version) -> bool {
        RELEASES.contains(&version)
    }

    /// Resolves `name` against an imported `version`.
    pub fn resolve(&self, name: &str, version: Version) -> Resolution {
        lookup(name).map_or(Resolution::Unknown, |row| row.resolve(version))
    }

    /// All names valid (non-removed) at `version`, sorted — the
    /// "documentation" surface the RAG corpus is generated from.
    pub fn symbols_at(&self, version: Version) -> Vec<&'static str> {
        GATES
            .iter()
            .filter(|row| {
                version >= row.introduced && row.removed.is_none_or(|removed| version < removed)
            })
            .map(|row| row.name)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_parse_and_order() {
        let v: Version = "2.1".parse().unwrap();
        assert_eq!(v, Version::new(2, 1));
        assert!(Version::new(1, 1) < Version::new(2, 0));
        assert!("x.y".parse::<Version>().is_err());
        assert!("2".parse::<Version>().is_err());
    }

    #[test]
    fn modern_names_absent_in_v1() {
        let reg = ApiRegistry::standard();
        assert_eq!(
            reg.resolve("cx", Version::new(1, 0)),
            Resolution::NotYetIntroduced {
                introduced: Version::new(2, 0)
            }
        );
        assert_eq!(reg.resolve("cx", CURRENT), Resolution::Ok);
    }

    #[test]
    fn legacy_names_deprecate_then_disappear() {
        let reg = ApiRegistry::standard();
        assert_eq!(reg.resolve("cnot", Version::new(1, 0)), Resolution::Ok);
        assert_eq!(
            reg.resolve("cnot", Version::new(2, 0)),
            Resolution::Deprecated {
                replacement: Some("cx")
            }
        );
        assert_eq!(
            reg.resolve("cnot", CURRENT),
            Resolution::Removed {
                replacement: Some("cx")
            }
        );
    }

    #[test]
    fn unknown_symbols_are_unknown_everywhere() {
        let reg = ApiRegistry::standard();
        assert_eq!(reg.resolve("frobnicate", CURRENT), Resolution::Unknown);
    }

    #[test]
    fn module_and_release_checks() {
        let reg = ApiRegistry::standard();
        assert!(reg.has_module("qasmlite"));
        assert!(reg.has_module("qasmlite.gates"));
        assert!(!reg.has_module("qiskit"));
        assert!(reg.is_released(Version::new(1, 1)));
        assert!(!reg.is_released(Version::new(3, 0)));
    }

    #[test]
    fn symbols_at_excludes_removed() {
        let reg = ApiRegistry::standard();
        let now = reg.symbols_at(CURRENT);
        assert!(now.contains(&"cx"));
        assert!(!now.contains(&"cnot"));
        let old = reg.symbols_at(Version::new(1, 0));
        assert!(old.contains(&"cnot"));
        assert!(!old.contains(&"cx"));
    }

    #[test]
    fn table_is_strictly_sorted() {
        for pair in GATES.windows(2) {
            assert!(
                pair[0].name < pair[1].name,
                "{} before {}",
                pair[0].name,
                pair[1].name
            );
        }
    }
}
