//! Versioned API registry for the QasmLite "library".
//!
//! The reproduced paper finds that the dominant failure mode of LLM-written
//! Qiskit code is *library drift*: imports of the wrong version, use of
//! deprecated or removed symbols, and APIs the model's training data
//! predates. To reproduce that failure surface we version QasmLite itself:
//! the registry records, for every symbol, when it was introduced,
//! deprecated and removed, and what replaced it. The semantic checker
//! resolves every gate name against the *imported* version and produces the
//! same class of diagnostics a Python `DeprecationWarning`/`AttributeError`
//! would.
//!
//! Release history modelled here:
//!
//! | version | change |
//! |---|---|
//! | 1.0 | initial: `cnot`, `toffoli`, `u1`, `u2`, `u3`, `iden`, core gates |
//! | 1.1 | adds `swap`, `ch`, `cswap` |
//! | 2.0 | adds `cx`, `ccx`, `p`, `u`, `sx`, `id`; deprecates the 1.x names |
//! | 2.1 | **removes** the deprecated 1.x names (current release) |

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;
use std::sync::OnceLock;

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

/// Lifecycle record for one symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolInfo {
    /// Version that introduced the symbol.
    pub introduced: Version,
    /// Version that deprecated it, if any.
    pub deprecated: Option<Version>,
    /// Version that removed it, if any.
    pub removed: Option<Version>,
    /// Canonical replacement name, for deprecated/removed symbols.
    pub replacement: Option<&'static str>,
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

/// The registry of library modules and symbol lifecycles.
#[derive(Debug, Clone)]
pub struct ApiRegistry {
    modules: Vec<&'static str>,
    symbols: BTreeMap<&'static str, SymbolInfo>,
    /// Maps legacy names to (canonical name, parameter adapter id).
    aliases: BTreeMap<&'static str, &'static str>,
}

impl Default for ApiRegistry {
    fn default() -> Self {
        Self::standard()
    }
}

impl ApiRegistry {
    /// The standard registry, built once per process and shared: checking
    /// a program needs only a borrow, so hot paths skip the rebuild.
    pub fn shared() -> &'static ApiRegistry {
        static SHARED: OnceLock<ApiRegistry> = OnceLock::new();
        SHARED.get_or_init(ApiRegistry::standard)
    }

    /// Builds the standard registry with the release history above.
    pub fn standard() -> Self {
        let v10 = Version::new(1, 0);
        let v11 = Version::new(1, 1);
        let v20 = Version::new(2, 0);
        let v21 = Version::new(2, 1);
        let mut symbols = BTreeMap::new();
        let mut put = |name: &'static str, info: SymbolInfo| {
            symbols.insert(name, info);
        };
        let stable_v10 = SymbolInfo {
            introduced: v10,
            deprecated: None,
            removed: None,
            replacement: None,
        };
        // Core gates present since 1.0 and never touched.
        for name in [
            "h", "x", "y", "z", "s", "sdg", "t", "tdg", "rx", "ry", "rz", "cy", "cz", "crx", "cry",
            "crz", "cp",
        ] {
            put(name, stable_v10.clone());
        }
        // 1.1 additions.
        for name in ["swap", "ch", "cswap"] {
            put(
                name,
                SymbolInfo {
                    introduced: v11,
                    ..stable_v10.clone()
                },
            );
        }
        // 2.0 additions (canonical modern names).
        for name in ["cx", "ccx", "p", "u", "sx", "id"] {
            put(
                name,
                SymbolInfo {
                    introduced: v20,
                    deprecated: None,
                    removed: None,
                    replacement: None,
                },
            );
        }
        // Legacy names: deprecated in 2.0, removed in 2.1.
        let legacy = [
            ("cnot", "cx"),
            ("toffoli", "ccx"),
            ("u1", "p"),
            ("u2", "u"),
            ("u3", "u"),
            ("iden", "id"),
        ];
        let mut aliases = BTreeMap::new();
        for (old, new) in legacy {
            put(
                old,
                SymbolInfo {
                    introduced: v10,
                    deprecated: Some(v20),
                    removed: Some(v21),
                    replacement: Some(new),
                },
            );
            aliases.insert(old, new);
        }
        ApiRegistry {
            modules: vec!["qasmlite", "qasmlite.gates", "qasmlite.runtime"],
            symbols,
            aliases,
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
        let Some(info) = self.symbols.get(name) else {
            return Resolution::Unknown;
        };
        if version < info.introduced {
            return Resolution::NotYetIntroduced {
                introduced: info.introduced,
            };
        }
        if let Some(removed) = info.removed {
            if version >= removed {
                return Resolution::Removed {
                    replacement: info.replacement,
                };
            }
        }
        if let Some(deprecated) = info.deprecated {
            if version >= deprecated {
                return Resolution::Deprecated {
                    replacement: info.replacement,
                };
            }
        }
        Resolution::Ok
    }

    /// Canonical modern name for a (possibly legacy) gate name.
    pub fn canonical_name<'a>(&self, name: &'a str) -> &'a str
    where
        'static: 'a,
    {
        self.aliases.get(name).copied().unwrap_or(name)
    }

    /// Lifecycle info for a symbol, if it has ever existed.
    pub fn symbol(&self, name: &str) -> Option<&SymbolInfo> {
        self.symbols.get(name)
    }

    /// All symbols valid (non-removed) at `version` — the "documentation"
    /// surface the RAG corpus is generated from.
    pub fn symbols_at(&self, version: Version) -> Vec<&'static str> {
        self.symbols
            .iter()
            .filter(|(_, info)| {
                version >= info.introduced && info.removed.is_none_or(|r| version < r)
            })
            .map(|(name, _)| *name)
            .collect()
    }

    /// All legacy → canonical alias pairs.
    pub fn aliases(&self) -> impl Iterator<Item = (&'static str, &'static str)> + '_ {
        self.aliases.iter().map(|(a, b)| (*a, *b))
    }
}

/// Adapts legacy gate invocations to modern parameter forms.
///
/// Returns the canonical name plus the adapted parameter vector, or `None`
/// when the legacy parameter count is wrong.
pub fn adapt_legacy_params(name: &str, params: &[f64]) -> Option<(&'static str, Vec<f64>)> {
    match (name, params.len()) {
        ("cnot", 0) => Some(("cx", vec![])),
        ("toffoli", 0) => Some(("ccx", vec![])),
        ("iden", 0) => Some(("id", vec![])),
        ("u1", 1) => Some(("p", vec![params[0]])),
        // u2(phi, lambda) = U(pi/2, phi, lambda)
        ("u2", 2) => Some(("u", vec![std::f64::consts::FRAC_PI_2, params[0], params[1]])),
        ("u3", 3) => Some(("u", params.to_vec())),
        _ => None,
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
    fn legacy_param_adaptation() {
        assert_eq!(adapt_legacy_params("cnot", &[]), Some(("cx", vec![])));
        let (name, params) = adapt_legacy_params("u2", &[0.1, 0.2]).unwrap();
        assert_eq!(name, "u");
        assert_eq!(params.len(), 3);
        assert!(adapt_legacy_params("u2", &[0.1]).is_none());
    }

    #[test]
    fn canonical_name_maps_aliases() {
        let reg = ApiRegistry::standard();
        assert_eq!(reg.canonical_name("cnot"), "cx");
        assert_eq!(reg.canonical_name("h"), "h");
    }
}
