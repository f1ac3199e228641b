//! Hand-written lexer for the specification language.
//!
//! The only subtlety is unit-suffixed numbers: the paper's syntax glues
//! durations together (`5min`, `100ms`), so a digit run immediately
//! followed by letters lexes as one [`TokenKind::Suffixed`] token rather
//! than an integer plus an identifier. `//` starts a line comment.

use crate::diag::{Diagnostic, Span};
use crate::token::{Token, TokenKind};

/// Lexes `source` into tokens (with a trailing `Eof`).
pub fn lex(source: &str) -> Result<Vec<Token<'_>>, Diagnostic> {
    let bytes = source.as_bytes();
    // Specifications run three to four bytes per token.
    let mut tokens = Vec::with_capacity(source.len() / 3 + 2);
    let mut i = 0usize;

    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            ':' => {
                tokens.push(tok(TokenKind::Colon, i, i + 1));
                i += 1;
            }
            ';' => {
                tokens.push(tok(TokenKind::Semi, i, i + 1));
                i += 1;
            }
            ',' => {
                tokens.push(tok(TokenKind::Comma, i, i + 1));
                i += 1;
            }
            '{' => {
                tokens.push(tok(TokenKind::LBrace, i, i + 1));
                i += 1;
            }
            '}' => {
                tokens.push(tok(TokenKind::RBrace, i, i + 1));
                i += 1;
            }
            '[' => {
                tokens.push(tok(TokenKind::LBracket, i, i + 1));
                i += 1;
            }
            ']' => {
                tokens.push(tok(TokenKind::RBracket, i, i + 1));
                i += 1;
            }
            '-' => {
                tokens.push(tok(TokenKind::Minus, i, i + 1));
                i += 1;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                // A fractional part makes it a float; no suffix allowed.
                if i < bytes.len()
                    && bytes[i] == b'.'
                    && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)
                {
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    let text = &source[start..i];
                    let value: f64 = text.parse().map_err(|_| {
                        Diagnostic::parse(Span::new(start, i), format!("invalid number `{text}`"))
                    })?;
                    tokens.push(tok(TokenKind::Float(value), start, i));
                    continue;
                }
                let digits_end = i;
                // Letters glued to the digits form a unit suffix.
                while i < bytes.len() && (bytes[i] as char).is_ascii_alphabetic() {
                    i += 1;
                }
                let value: u64 = source[start..digits_end].parse().map_err(|_| {
                    Diagnostic::parse(
                        Span::new(start, digits_end),
                        format!("integer `{}` out of range", &source[start..digits_end]),
                    )
                })?;
                if i > digits_end {
                    tokens.push(tok(
                        TokenKind::Suffixed {
                            value,
                            suffix: &source[digits_end..i],
                        },
                        start,
                        i,
                    ));
                } else {
                    tokens.push(tok(TokenKind::Int(value), start, i));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                tokens.push(tok(TokenKind::Ident(&source[start..i]), start, i));
            }
            _ => {
                // Every other arm steps over ASCII bytes only, so `i`
                // sits on a character boundary: report the whole
                // character, not its first byte.
                let ch = source[i..].chars().next().unwrap_or('\u{FFFD}');
                return Err(Diagnostic::parse(
                    Span::new(i, i + ch.len_utf8()),
                    format!("unexpected character `{ch}`"),
                ));
            }
        }
    }
    tokens.push(tok(TokenKind::Eof, source.len(), source.len()));
    Ok(tokens)
}

fn tok(kind: TokenKind<'_>, start: usize, end: usize) -> Token<'_> {
    Token {
        kind,
        span: Span::new(start, end),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn punctuation_and_idents() {
        assert_eq!(
            kinds("send: { }"),
            vec![
                TokenKind::Ident("send"),
                TokenKind::Colon,
                TokenKind::LBrace,
                TokenKind::RBrace,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn suffixed_numbers_stay_glued() {
        assert_eq!(
            kinds("5min 100ms 3s 10"),
            vec![
                TokenKind::Suffixed {
                    value: 5,
                    suffix: "min"
                },
                TokenKind::Suffixed {
                    value: 100,
                    suffix: "ms"
                },
                TokenKind::Suffixed {
                    value: 3,
                    suffix: "s"
                },
                TokenKind::Int(10),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn floats_and_ranges() {
        assert_eq!(
            kinds("[36.5, -38]"),
            vec![
                TokenKind::LBracket,
                TokenKind::Float(36.5),
                TokenKind::Comma,
                TokenKind::Minus,
                TokenKind::Int(38),
                TokenKind::RBracket,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("a // whole line\nb"),
            vec![TokenKind::Ident("a"), TokenKind::Ident("b"), TokenKind::Eof,]
        );
    }

    #[test]
    fn figure5_line_lexes() {
        let toks = kinds(
            "MITD: 5min dpTask: accel onFail: restartPath maxAttempt: 3 onFail: skipPath Path: 2;",
        );
        assert_eq!(toks.len(), 20);
        assert_eq!(toks[0], TokenKind::Ident("MITD"));
        assert_eq!(
            toks[2],
            TokenKind::Suffixed {
                value: 5,
                suffix: "min"
            }
        );
        assert_eq!(toks[18], TokenKind::Semi);
    }

    #[test]
    fn bad_character_is_reported_with_span() {
        let err = lex("a ? b").unwrap_err();
        assert!(err.message.contains('?'));
        assert_eq!(err.span.map(|s| s.start), Some(2));
    }

    /// A character outside ASCII is named whole, spanned over all its
    /// bytes, and rendered as written.
    #[test]
    fn non_ascii_characters_are_reported_whole() {
        for (src, ch) in [("a é", 'é'), ("a €", '€')] {
            let err = lex(src).unwrap_err();
            assert!(err.message.contains(&format!("`{ch}`")), "{}", err.message);
            let span = err.span.expect("a lex error carries its span");
            assert_eq!(span, Span::new(2, 2 + ch.len_utf8()));
            assert!(src.is_char_boundary(span.end));
            let rendered = err.render(src);
            assert!(rendered.contains(ch), "{rendered}");
            assert!(rendered.contains("column 3"), "{rendered}");
            assert!(rendered.ends_with("  |   ^\n"), "{rendered}");
        }
    }

    #[test]
    fn spans_cover_lexemes() {
        let toks = lex("abc 42").unwrap();
        assert_eq!(toks[0].span, Span::new(0, 3));
        assert_eq!(toks[1].span, Span::new(4, 6));
    }

    #[test]
    fn underscores_in_idents() {
        assert_eq!(
            kinds("body_temp2"),
            vec![TokenKind::Ident("body_temp2"), TokenKind::Eof]
        );
    }
}
