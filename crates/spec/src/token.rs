//! Tokens of the ARTEMIS property specification language.

use core::fmt;

use crate::diag::Span;

/// A lexical token. Identifiers and unit suffixes borrow the source
/// text, so lexing allocates only the token list.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum TokenKind<'a> {
    /// An identifier or keyword (`send`, `MITD`, `onFail`, …).
    Ident(&'a str),
    /// An unsuffixed integer (`10`).
    Int(u64),
    /// A floating-point number (`36.5`).
    Float(f64),
    /// A number glued to a unit suffix (`5min`, `100ms`, `300uJ`).
    Suffixed {
        /// The numeric part.
        value: u64,
        /// The suffix letters, as written.
        suffix: &'a str,
    },
    /// `:`
    Colon,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `-` (negative range bounds).
    Minus,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "`{s}`"),
            TokenKind::Int(v) => write!(f, "`{v}`"),
            TokenKind::Float(v) => write!(f, "`{v}`"),
            TokenKind::Suffixed { value, suffix } => write!(f, "`{value}{suffix}`"),
            TokenKind::Colon => write!(f, "`:`"),
            TokenKind::Semi => write!(f, "`;`"),
            TokenKind::Comma => write!(f, "`,`"),
            TokenKind::LBrace => write!(f, "`{{`"),
            TokenKind::RBrace => write!(f, "`}}`"),
            TokenKind::LBracket => write!(f, "`[`"),
            TokenKind::RBracket => write!(f, "`]`"),
            TokenKind::Minus => write!(f, "`-`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its source location.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Token<'a> {
    /// What was lexed.
    pub kind: TokenKind<'a>,
    /// Where it was lexed.
    pub span: Span,
}
