//! Golden table of the QasmLite library surface: how every gate name
//! resolves at every release, which names each release documents (in the
//! order the RAG corpus subsamples them), and what `Gate::from_name` builds
//! for every canonical name from the right and from a wrong number of
//! parameters. The table was recorded before the name table was declared
//! in one place; on a mismatch the test prints the table it computed.

use qcir::api::{ApiRegistry, RELEASES};
use qcir::gate::Gate;

/// Every name the library has ever had, plus two it never had.
const NAMES: &[&str] = &[
    "h",
    "x",
    "y",
    "z",
    "s",
    "sdg",
    "t",
    "tdg",
    "rx",
    "ry",
    "rz",
    "cy",
    "cz",
    "crx",
    "cry",
    "crz",
    "cp",
    "swap",
    "ch",
    "cswap",
    "cx",
    "ccx",
    "p",
    "u",
    "sx",
    "id",
    "cnot",
    "toffoli",
    "u1",
    "u2",
    "u3",
    "iden",
    "frobnicate",
    "CX",
];

/// The canonical names with their parameter counts.
const CANONICAL: &[(&str, usize)] = &[
    ("id", 0),
    ("h", 0),
    ("x", 0),
    ("y", 0),
    ("z", 0),
    ("s", 0),
    ("sdg", 0),
    ("t", 0),
    ("tdg", 0),
    ("sx", 0),
    ("rx", 1),
    ("ry", 1),
    ("rz", 1),
    ("p", 1),
    ("u", 3),
    ("cx", 0),
    ("cy", 0),
    ("cz", 0),
    ("ch", 0),
    ("swap", 0),
    ("crx", 1),
    ("cry", 1),
    ("crz", 1),
    ("cp", 1),
    ("ccx", 0),
    ("cswap", 0),
];

/// Parameter values handed to `from_name`, truncated to the count tried.
const ANGLES: [f64; 4] = [0.25, -1.5, 2.0, 0.5];

const EXPECTED: &str = r#"resolve h: 1.0=Ok 1.1=Ok 2.0=Ok 2.1=Ok
resolve x: 1.0=Ok 1.1=Ok 2.0=Ok 2.1=Ok
resolve y: 1.0=Ok 1.1=Ok 2.0=Ok 2.1=Ok
resolve z: 1.0=Ok 1.1=Ok 2.0=Ok 2.1=Ok
resolve s: 1.0=Ok 1.1=Ok 2.0=Ok 2.1=Ok
resolve sdg: 1.0=Ok 1.1=Ok 2.0=Ok 2.1=Ok
resolve t: 1.0=Ok 1.1=Ok 2.0=Ok 2.1=Ok
resolve tdg: 1.0=Ok 1.1=Ok 2.0=Ok 2.1=Ok
resolve rx: 1.0=Ok 1.1=Ok 2.0=Ok 2.1=Ok
resolve ry: 1.0=Ok 1.1=Ok 2.0=Ok 2.1=Ok
resolve rz: 1.0=Ok 1.1=Ok 2.0=Ok 2.1=Ok
resolve cy: 1.0=Ok 1.1=Ok 2.0=Ok 2.1=Ok
resolve cz: 1.0=Ok 1.1=Ok 2.0=Ok 2.1=Ok
resolve crx: 1.0=Ok 1.1=Ok 2.0=Ok 2.1=Ok
resolve cry: 1.0=Ok 1.1=Ok 2.0=Ok 2.1=Ok
resolve crz: 1.0=Ok 1.1=Ok 2.0=Ok 2.1=Ok
resolve cp: 1.0=Ok 1.1=Ok 2.0=Ok 2.1=Ok
resolve swap: 1.0=NotYetIntroduced { introduced: Version { major: 1, minor: 1 } } 1.1=Ok 2.0=Ok 2.1=Ok
resolve ch: 1.0=NotYetIntroduced { introduced: Version { major: 1, minor: 1 } } 1.1=Ok 2.0=Ok 2.1=Ok
resolve cswap: 1.0=NotYetIntroduced { introduced: Version { major: 1, minor: 1 } } 1.1=Ok 2.0=Ok 2.1=Ok
resolve cx: 1.0=NotYetIntroduced { introduced: Version { major: 2, minor: 0 } } 1.1=NotYetIntroduced { introduced: Version { major: 2, minor: 0 } } 2.0=Ok 2.1=Ok
resolve ccx: 1.0=NotYetIntroduced { introduced: Version { major: 2, minor: 0 } } 1.1=NotYetIntroduced { introduced: Version { major: 2, minor: 0 } } 2.0=Ok 2.1=Ok
resolve p: 1.0=NotYetIntroduced { introduced: Version { major: 2, minor: 0 } } 1.1=NotYetIntroduced { introduced: Version { major: 2, minor: 0 } } 2.0=Ok 2.1=Ok
resolve u: 1.0=NotYetIntroduced { introduced: Version { major: 2, minor: 0 } } 1.1=NotYetIntroduced { introduced: Version { major: 2, minor: 0 } } 2.0=Ok 2.1=Ok
resolve sx: 1.0=NotYetIntroduced { introduced: Version { major: 2, minor: 0 } } 1.1=NotYetIntroduced { introduced: Version { major: 2, minor: 0 } } 2.0=Ok 2.1=Ok
resolve id: 1.0=NotYetIntroduced { introduced: Version { major: 2, minor: 0 } } 1.1=NotYetIntroduced { introduced: Version { major: 2, minor: 0 } } 2.0=Ok 2.1=Ok
resolve cnot: 1.0=Ok 1.1=Ok 2.0=Deprecated { replacement: Some("cx") } 2.1=Removed { replacement: Some("cx") }
resolve toffoli: 1.0=Ok 1.1=Ok 2.0=Deprecated { replacement: Some("ccx") } 2.1=Removed { replacement: Some("ccx") }
resolve u1: 1.0=Ok 1.1=Ok 2.0=Deprecated { replacement: Some("p") } 2.1=Removed { replacement: Some("p") }
resolve u2: 1.0=Ok 1.1=Ok 2.0=Deprecated { replacement: Some("u") } 2.1=Removed { replacement: Some("u") }
resolve u3: 1.0=Ok 1.1=Ok 2.0=Deprecated { replacement: Some("u") } 2.1=Removed { replacement: Some("u") }
resolve iden: 1.0=Ok 1.1=Ok 2.0=Deprecated { replacement: Some("id") } 2.1=Removed { replacement: Some("id") }
resolve frobnicate: 1.0=Unknown 1.1=Unknown 2.0=Unknown 2.1=Unknown
resolve CX: 1.0=Unknown 1.1=Unknown 2.0=Unknown 2.1=Unknown
symbols_at 1.0: cnot cp crx cry crz cy cz h iden rx ry rz s sdg t tdg toffoli u1 u2 u3 x y z
symbols_at 1.1: ch cnot cp crx cry crz cswap cy cz h iden rx ry rz s sdg swap t tdg toffoli u1 u2 u3 x y z
symbols_at 2.0: ccx ch cnot cp crx cry crz cswap cx cy cz h id iden p rx ry rz s sdg swap sx t tdg toffoli u u1 u2 u3 x y z
symbols_at 2.1: ccx ch cp crx cry crz cswap cx cy cz h id p rx ry rz s sdg swap sx t tdg u x y z
from_name id: 0=Some(Id) 1=None
from_name h: 0=Some(H) 1=None
from_name x: 0=Some(X) 1=None
from_name y: 0=Some(Y) 1=None
from_name z: 0=Some(Z) 1=None
from_name s: 0=Some(S) 1=None
from_name sdg: 0=Some(Sdg) 1=None
from_name t: 0=Some(T) 1=None
from_name tdg: 0=Some(Tdg) 1=None
from_name sx: 0=Some(SX) 1=None
from_name rx: 1=Some(RX(0.25)) 2=None 0=None
from_name ry: 1=Some(RY(0.25)) 2=None 0=None
from_name rz: 1=Some(RZ(0.25)) 2=None 0=None
from_name p: 1=Some(P(0.25)) 2=None 0=None
from_name u: 3=Some(U(0.25, -1.5, 2.0)) 4=None 2=None
from_name cx: 0=Some(CX) 1=None
from_name cy: 0=Some(CY) 1=None
from_name cz: 0=Some(CZ) 1=None
from_name ch: 0=Some(CH) 1=None
from_name swap: 0=Some(SWAP) 1=None
from_name crx: 1=Some(CRX(0.25)) 2=None 0=None
from_name cry: 1=Some(CRY(0.25)) 2=None 0=None
from_name crz: 1=Some(CRZ(0.25)) 2=None 0=None
from_name cp: 1=Some(CP(0.25)) 2=None 0=None
from_name ccx: 0=Some(CCX) 1=None
from_name cswap: 0=Some(CSWAP) 1=None
"#;

fn render() -> String {
    let registry = ApiRegistry::standard();
    let mut out = String::new();
    for name in NAMES {
        out.push_str(&format!("resolve {name}:"));
        for version in RELEASES {
            out.push_str(&format!(" {version}={:?}", registry.resolve(name, version)));
        }
        out.push('\n');
    }
    for version in RELEASES {
        let symbols = registry.symbols_at(version).join(" ");
        out.push_str(&format!("symbols_at {version}: {symbols}\n"));
    }
    for &(name, count) in CANONICAL {
        out.push_str(&format!("from_name {name}:"));
        let mut counts = vec![count, count + 1];
        if count > 0 {
            counts.push(count - 1);
        }
        for n in counts {
            out.push_str(&format!(" {n}={:?}", Gate::from_name(name, &ANGLES[..n])));
        }
        out.push('\n');
    }
    out
}

#[test]
fn library_surface_matches_the_recorded_table() {
    let computed = render();
    assert!(
        computed == EXPECTED,
        "library surface moved; computed table:\n{computed}"
    );
}
