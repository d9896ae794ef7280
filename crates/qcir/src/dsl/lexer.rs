//! Hand-written lexer for QasmLite.

use crate::diag::{DiagCode, Diagnostic, Span};
use std::fmt;

/// A lexical token. Identifiers and number texts borrow the source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tok<'a> {
    /// Identifier or keyword.
    Ident(&'a str),
    /// Numeric literal; raw text kept so `import qasmlite 2.1` can recover
    /// the version string exactly.
    Number { value: f64, raw: &'a str },
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `->`
    Arrow,
    /// `==`
    EqEq,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `.`
    Dot,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Number { raw, .. } => write!(f, "`{raw}`"),
            Tok::LBracket => write!(f, "`[`"),
            Tok::RBracket => write!(f, "`]`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Semi => write!(f, "`;`"),
            Tok::Arrow => write!(f, "`->`"),
            Tok::EqEq => write!(f, "`==`"),
            Tok::Plus => write!(f, "`+`"),
            Tok::Minus => write!(f, "`-`"),
            Tok::Star => write!(f, "`*`"),
            Tok::Slash => write!(f, "`/`"),
            Tok::Dot => write!(f, "`.`"),
        }
    }
}

/// A token with its source location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpannedTok<'a> {
    /// The token.
    pub tok: Tok<'a>,
    /// Its location.
    pub span: Span,
}

/// Tokenizes QasmLite source.
///
/// # Errors
///
/// Returns a [`Diagnostic`] with code [`DiagCode::LexError`] on the first
/// unrecognized character or malformed number.
pub fn lex(src: &str) -> Result<Vec<SpannedTok<'_>>, Diagnostic> {
    let mut toks = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    let mut line: u32 = 1;
    let mut col: u32 = 1;
    let n = bytes.len();

    macro_rules! push {
        ($tok:expr, $len:expr) => {{
            toks.push(SpannedTok {
                tok: $tok,
                span: Span::at(line, col),
            });
            i += $len;
            col += $len as u32;
        }};
    }

    while i < n {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                i += 1;
                line += 1;
                col = 1;
            }
            ' ' | '\t' | '\r' => {
                i += 1;
                col += 1;
            }
            '/' if i + 1 < n && bytes[i + 1] == b'/' => {
                // Line comment.
                while i < n && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '[' => push!(Tok::LBracket, 1),
            ']' => push!(Tok::RBracket, 1),
            '{' => push!(Tok::LBrace, 1),
            '}' => push!(Tok::RBrace, 1),
            '(' => push!(Tok::LParen, 1),
            ')' => push!(Tok::RParen, 1),
            ',' => push!(Tok::Comma, 1),
            ';' => push!(Tok::Semi, 1),
            '+' => push!(Tok::Plus, 1),
            '*' => push!(Tok::Star, 1),
            '/' => push!(Tok::Slash, 1),
            '.' => push!(Tok::Dot, 1),
            '-' => {
                if i + 1 < n && bytes[i + 1] == b'>' {
                    push!(Tok::Arrow, 2);
                } else {
                    push!(Tok::Minus, 1);
                }
            }
            '=' => {
                if i + 1 < n && bytes[i + 1] == b'=' {
                    push!(Tok::EqEq, 2);
                } else {
                    return Err(Diagnostic::error(
                        DiagCode::LexError,
                        "stray `=` (did you mean `==`?)",
                        Span::at(line, col),
                    ));
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < n && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                if i < n && bytes[i] == b'.' && i + 1 < n && (bytes[i + 1] as char).is_ascii_digit()
                {
                    i += 1;
                    while i < n && (bytes[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                }
                // Scientific notation.
                if i < n && (bytes[i] == b'e' || bytes[i] == b'E') {
                    let mut j = i + 1;
                    if j < n && (bytes[j] == b'+' || bytes[j] == b'-') {
                        j += 1;
                    }
                    if j < n && (bytes[j] as char).is_ascii_digit() {
                        i = j;
                        while i < n && (bytes[i] as char).is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let raw = &src[start..i];
                let value: f64 = raw.parse().map_err(|_| {
                    Diagnostic::error(
                        DiagCode::LexError,
                        format!("malformed number `{raw}`"),
                        Span::at(line, col),
                    )
                })?;
                toks.push(SpannedTok {
                    tok: Tok::Number { value, raw },
                    span: Span::at(line, col),
                });
                col += (i - start) as u32;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < n {
                    let c = bytes[i] as char;
                    if c.is_ascii_alphanumeric() || c == '_' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let text = &src[start..i];
                toks.push(SpannedTok {
                    tok: Tok::Ident(text),
                    span: Span::at(line, col),
                });
                col += (i - start) as u32;
            }
            other => {
                return Err(Diagnostic::error(
                    DiagCode::LexError,
                    format!("unrecognized character `{other}`"),
                    Span::at(line, col),
                ));
            }
        }
    }
    Ok(toks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_basic_statement() {
        let toks = kinds("h q[0];");
        assert_eq!(
            toks,
            vec![
                Tok::Ident("h"),
                Tok::Ident("q"),
                Tok::LBracket,
                Tok::Number {
                    value: 0.0,
                    raw: "0"
                },
                Tok::RBracket,
                Tok::Semi,
            ]
        );
    }

    #[test]
    fn lexes_arrow_and_eqeq() {
        let toks = kinds("measure q -> c; if (c[0] == 1)");
        assert!(toks.contains(&Tok::Arrow));
        assert!(toks.contains(&Tok::EqEq));
    }

    #[test]
    fn lexes_float_and_scientific() {
        let toks = kinds("rz(2.5) q[0]; rx(1e-3) q[0];");
        let nums: Vec<f64> = toks
            .iter()
            .filter_map(|t| match t {
                Tok::Number { value, .. } => Some(*value),
                _ => None,
            })
            .collect();
        assert!(nums.contains(&2.5));
        assert!(nums.contains(&1e-3));
    }

    #[test]
    fn comments_are_skipped() {
        let toks = kinds("// a bell pair\nh q[0]; // comment\n");
        assert_eq!(toks.len(), 6);
    }

    #[test]
    fn spans_track_lines() {
        let toks = lex("h q[0];\ncx q[0], q[1];\n").unwrap();
        let cx = toks.iter().find(|t| t.tok == Tok::Ident("cx")).unwrap();
        assert_eq!(cx.span.line, 2);
        assert_eq!(cx.span.col, 1);
    }

    #[test]
    fn rejects_unknown_character() {
        let err = lex("h q[0]; @").unwrap_err();
        assert_eq!(err.code, DiagCode::LexError);
        assert!(err.message.contains('@'));
    }

    #[test]
    fn stray_equals_is_an_error() {
        let err = lex("if (c = 1)").unwrap_err();
        assert_eq!(err.code, DiagCode::LexError);
    }

    #[test]
    fn version_raw_text_preserved() {
        let toks = lex("import qasmlite 2.1;").unwrap();
        let raw: Vec<&str> = toks
            .iter()
            .filter_map(|t| match t.tok {
                Tok::Number { raw, .. } => Some(raw),
                _ => None,
            })
            .collect();
        assert_eq!(raw, vec!["2.1"]);
    }
}
