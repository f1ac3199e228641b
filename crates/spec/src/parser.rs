//! Recursive-descent parser for the specification language.
//!
//! Grammar (cf. paper Figure 5):
//!
//! ```text
//! spec       := block*
//! block      := IDENT ':'? '{' prop* '}'
//! prop       := keyword ':' value modifier* ';'
//! keyword    := 'period' | 'maxTries' | 'maxDuration' | 'MITD'
//!             | 'collect' | 'dpData' | 'energy'
//! modifier   := 'dpTask' ':' IDENT
//!             | 'onFail' ':' action
//!             | 'maxAttempt' ':' INT
//!             | 'Path' ':' INT
//!             | 'Range' ':' '[' number ',' number ']'
//!             | 'jitter' ':' time
//! ```
//!
//! Modifier *order* carries meaning for `onFail:`: an `onFail` seen
//! before `maxAttempt:` is the property's primary action; an `onFail`
//! after `maxAttempt:` is the escalation action (exactly the reading of
//! the paper's `MITD: 5min … onFail: restartPath maxAttempt: 3 onFail:
//! skipPath` example).

use artemis_core::time::SimDuration;

use crate::ast::{AstAction, MaxAttemptClause, PropDecl, PropKind, SpecAst, TaskBlock};
use crate::diag::{Diagnostic, Spanned};
use crate::lexer::lex;
use crate::token::{Token, TokenKind};

/// Parses specification text into an AST.
///
/// # Examples
///
/// ```
/// let ast = artemis_spec::parser::parse(
///     "accel { maxTries: 10 onFail: skipPath; }",
/// ).unwrap();
/// assert_eq!(ast.blocks.len(), 1);
/// assert_eq!(ast.blocks[0].task.value, "accel");
/// ```
pub fn parse(source: &str) -> Result<SpecAst, Diagnostic> {
    let tokens = lex(source)?;
    Parser { tokens, pos: 0 }.spec()
}

/// Tokens borrow the source text; only the names the AST keeps are
/// copied out of it.
struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Token<'a> {
        self.tokens[self.pos]
    }

    fn bump(&mut self) -> Token<'a> {
        let t = self.tokens[self.pos];
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<Token<'a>, Diagnostic> {
        if &self.peek().kind == kind {
            Ok(self.bump())
        } else {
            Err(Diagnostic::parse(
                self.peek().span,
                format!("expected {what}, found {}", self.peek().kind),
            ))
        }
    }

    /// An identifier the AST keeps.
    fn ident(&mut self, what: &str) -> Result<Spanned<String>, Diagnostic> {
        self.word(what)
            .map(|w| Spanned::new(w.value.to_string(), w.span))
    }

    /// An identifier or keyword, borrowed from the source.
    fn word(&mut self, what: &str) -> Result<Spanned<&'a str>, Diagnostic> {
        match self.peek().kind {
            TokenKind::Ident(name) => {
                let span = self.bump().span;
                Ok(Spanned::new(name, span))
            }
            other => Err(Diagnostic::parse(
                self.peek().span,
                format!("expected {what}, found {other}"),
            )),
        }
    }

    fn int(&mut self, what: &str) -> Result<Spanned<u64>, Diagnostic> {
        match self.peek().kind {
            TokenKind::Int(v) => {
                let span = self.bump().span;
                Ok(Spanned::new(v, span))
            }
            other => Err(Diagnostic::parse(
                self.peek().span,
                format!("expected {what}, found {other}"),
            )),
        }
    }

    fn spec(&mut self) -> Result<SpecAst, Diagnostic> {
        let mut blocks = Vec::new();
        while self.peek().kind != TokenKind::Eof {
            blocks.push(self.block()?);
        }
        Ok(SpecAst { blocks })
    }

    fn block(&mut self) -> Result<TaskBlock, Diagnostic> {
        let task = self.ident("a task name")?;
        // The paper writes both `micSense: { … }` and `calcAvg { … }`.
        if self.peek().kind == TokenKind::Colon {
            self.bump();
        }
        self.expect(&TokenKind::LBrace, "`{`")?;
        let mut props = Vec::new();
        while self.peek().kind != TokenKind::RBrace {
            if self.peek().kind == TokenKind::Eof {
                return Err(Diagnostic::parse(
                    self.peek().span,
                    format!("unclosed block for task `{}`", task.value),
                ));
            }
            props.push(self.prop()?);
        }
        self.expect(&TokenKind::RBrace, "`}`")?;
        Ok(TaskBlock { task, props })
    }

    fn prop(&mut self) -> Result<PropDecl, Diagnostic> {
        let kw = self.word("a property keyword")?;
        self.expect(&TokenKind::Colon, "`:` after the property keyword")?;
        let kind = match kw.value {
            "period" => PropKind::Period(self.time()?),
            "maxTries" => PropKind::MaxTries(self.int("an attempt count")?.value),
            "maxDuration" => PropKind::MaxDuration(self.time()?),
            "MITD" => PropKind::Mitd(self.time()?),
            "collect" => PropKind::Collect(self.int("a sample count")?.value),
            "dpData" => PropKind::DpData(self.ident("a monitored variable name")?.value),
            "energy" => PropKind::Energy(self.energy()?),
            other => {
                return Err(Diagnostic::parse(
                    kw.span,
                    format!(
                        "unknown property `{other}`; expected one of period, maxTries, \
                         maxDuration, MITD, collect, dpData, energy"
                    ),
                ))
            }
        };

        let mut decl = PropDecl::new(kind);
        decl.span = kw.span;
        self.modifiers(&mut decl)?;
        let semi = self.expect(&TokenKind::Semi, "`;` ending the property")?;
        decl.span = decl.span.merge(semi.span);
        Ok(decl)
    }

    fn modifiers(&mut self, decl: &mut PropDecl) -> Result<(), Diagnostic> {
        loop {
            let (name, span) = match self.peek() {
                Token {
                    kind: TokenKind::Ident(name),
                    span,
                } => (name, span),
                _ => return Ok(()),
            };
            match name {
                "dpTask" => {
                    self.bump();
                    self.expect(&TokenKind::Colon, "`:` after `dpTask`")?;
                    let task = self.ident("a task name")?;
                    if decl.dp_task.replace(task).is_some() {
                        return Err(Diagnostic::parse(span, "duplicate `dpTask:` modifier"));
                    }
                }
                "onFail" => {
                    self.bump();
                    self.expect(&TokenKind::Colon, "`:` after `onFail`")?;
                    let action = self.action()?;
                    match &mut decl.max_attempt {
                        // After `maxAttempt:` the action escalates.
                        Some(clause) => {
                            if clause.on_fail.replace(action).is_some() {
                                return Err(Diagnostic::parse(
                                    span,
                                    "duplicate `onFail:` after `maxAttempt:`",
                                ));
                            }
                        }
                        None => {
                            if decl.on_fail.replace(action).is_some() {
                                return Err(Diagnostic::parse(
                                    span,
                                    "duplicate `onFail:` modifier",
                                ));
                            }
                        }
                    }
                }
                "maxAttempt" => {
                    self.bump();
                    self.expect(&TokenKind::Colon, "`:` after `maxAttempt`")?;
                    let max = self.int("an attempt count")?;
                    if decl
                        .max_attempt
                        .replace(MaxAttemptClause { max, on_fail: None })
                        .is_some()
                    {
                        return Err(Diagnostic::parse(span, "duplicate `maxAttempt:` modifier"));
                    }
                }
                "Path" => {
                    self.bump();
                    self.expect(&TokenKind::Colon, "`:` after `Path`")?;
                    let n = self.int("a path number")?;
                    if decl.path.replace(n).is_some() {
                        return Err(Diagnostic::parse(span, "duplicate `Path:` modifier"));
                    }
                }
                "Range" => {
                    self.bump();
                    self.expect(&TokenKind::Colon, "`:` after `Range`")?;
                    let open = self.expect(&TokenKind::LBracket, "`[`")?;
                    let lo = self.number()?;
                    self.expect(&TokenKind::Comma, "`,`")?;
                    let hi = self.number()?;
                    let close = self.expect(&TokenKind::RBracket, "`]`")?;
                    let rspan = open.span.merge(close.span);
                    if decl.range.replace(Spanned::new((lo, hi), rspan)).is_some() {
                        return Err(Diagnostic::parse(span, "duplicate `Range:` modifier"));
                    }
                }
                "jitter" => {
                    self.bump();
                    self.expect(&TokenKind::Colon, "`:` after `jitter`")?;
                    let t = self.time()?;
                    if decl.jitter.replace(Spanned::new(t, span)).is_some() {
                        return Err(Diagnostic::parse(span, "duplicate `jitter:` modifier"));
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn action(&mut self) -> Result<Spanned<AstAction>, Diagnostic> {
        let kw = self.word("an action keyword")?;
        AstAction::from_keyword(kw.value)
            .map(|a| Spanned::new(a, kw.span))
            .ok_or_else(|| {
                Diagnostic::parse(
                    kw.span,
                    format!(
                        "unknown action `{}`; expected restartPath, skipPath, restartTask, \
                         skipTask or completePath",
                        kw.value
                    ),
                )
            })
    }

    /// A duration literal: `5min`, `100ms`, `3s`, `2h`, `500us`; a bare
    /// integer means milliseconds (matching the paper's default axis).
    fn time(&mut self) -> Result<SimDuration, Diagnostic> {
        match self.peek().kind {
            TokenKind::Suffixed { value, suffix } => {
                let span = self.bump().span;
                match suffix {
                    "us" => Ok(SimDuration::from_micros(value)),
                    "ms" => Ok(SimDuration::from_millis(value)),
                    "s" | "sec" => Ok(SimDuration::from_secs(value)),
                    "min" => Ok(SimDuration::from_mins(value)),
                    "h" => Ok(SimDuration::from_hours(value)),
                    other => Err(Diagnostic::parse(
                        span,
                        format!("unknown time unit `{other}`; expected us, ms, s, min or h"),
                    )),
                }
            }
            TokenKind::Int(value) => {
                self.bump();
                Ok(SimDuration::from_millis(value))
            }
            other => Err(Diagnostic::parse(
                self.peek().span,
                format!("expected a duration, found {other}"),
            )),
        }
    }

    /// An energy literal for the extension property: `10uJ`, `1mJ`,
    /// `500nJ`; result in nanojoules.
    fn energy(&mut self) -> Result<u64, Diagnostic> {
        match self.peek().kind {
            TokenKind::Suffixed { value, suffix } => {
                let span = self.bump().span;
                match suffix {
                    "nJ" => Ok(value),
                    "uJ" => Ok(value.saturating_mul(1_000)),
                    "mJ" => Ok(value.saturating_mul(1_000_000)),
                    other => Err(Diagnostic::parse(
                        span,
                        format!("unknown energy unit `{other}`; expected nJ, uJ or mJ"),
                    )),
                }
            }
            other => Err(Diagnostic::parse(
                self.peek().span,
                format!("expected an energy amount, found {other}"),
            )),
        }
    }

    /// A possibly-negative numeric literal (range bounds).
    fn number(&mut self) -> Result<f64, Diagnostic> {
        let neg = if self.peek().kind == TokenKind::Minus {
            self.bump();
            true
        } else {
            false
        };
        let v = match self.peek().kind {
            TokenKind::Int(v) => {
                self.bump();
                v as f64
            }
            TokenKind::Float(v) => {
                self.bump();
                v
            }
            other => {
                return Err(Diagnostic::parse(
                    self.peek().span,
                    format!("expected a number, found {other}"),
                ))
            }
        };
        Ok(if neg { -v } else { v })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::samples::FIGURE5;

    #[test]
    fn parses_figure5_verbatim() {
        let ast = parse(FIGURE5).unwrap();
        assert_eq!(ast.blocks.len(), 4);
        assert_eq!(ast.property_count(), 8);

        let send = ast.block("send").unwrap();
        assert_eq!(send.props.len(), 4);

        let mitd = &send.props[0];
        assert_eq!(mitd.kind, PropKind::Mitd(SimDuration::from_mins(5)));
        assert_eq!(mitd.dp_task.as_ref().unwrap().value, "accel");
        assert_eq!(mitd.on_fail.unwrap().value, AstAction::RestartPath);
        let ma = mitd.max_attempt.as_ref().unwrap();
        assert_eq!(ma.max.value, 3);
        assert_eq!(ma.on_fail.unwrap().value, AstAction::SkipPath);
        assert_eq!(mitd.path.unwrap().value, 2);

        let dur = &send.props[1];
        assert_eq!(
            dur.kind,
            PropKind::MaxDuration(SimDuration::from_millis(100))
        );
        assert_eq!(dur.on_fail.unwrap().value, AstAction::SkipTask);

        let avg = ast.block("calcAvg").unwrap();
        assert_eq!(avg.props[0].kind, PropKind::Collect(10));
        let dp = &avg.props[1];
        assert_eq!(dp.kind, PropKind::DpData("avgTemp".into()));
        assert_eq!(dp.range.unwrap().value, (36.0, 38.0));
        assert_eq!(dp.on_fail.unwrap().value, AstAction::CompletePath);
    }

    #[test]
    fn block_colon_is_optional() {
        let a = parse("t: { maxTries: 1 onFail: skipTask; }").unwrap();
        let b = parse("t { maxTries: 1 onFail: skipTask; }").unwrap();
        // Spans differ by one byte; compare canonical prints.
        assert_eq!(crate::printer::print(&a), crate::printer::print(&b));
    }

    #[test]
    fn on_fail_position_disambiguates_primary_vs_escalation() {
        let ast =
            parse("t { MITD: 2s dpTask: u onFail: restartPath maxAttempt: 2 onFail: skipPath; }")
                .unwrap();
        let p = &ast.blocks[0].props[0];
        assert_eq!(p.on_fail.unwrap().value, AstAction::RestartPath);
        assert_eq!(
            p.max_attempt.as_ref().unwrap().on_fail.unwrap().value,
            AstAction::SkipPath
        );
    }

    #[test]
    fn time_units() {
        let ast = parse(
            "t { maxDuration: 500us onFail: skipTask; period: 2h onFail: restartTask; \
             MITD: 250 dpTask: u onFail: skipTask; }",
        )
        .unwrap();
        let props = &ast.blocks[0].props;
        assert_eq!(
            props[0].kind,
            PropKind::MaxDuration(SimDuration::from_micros(500))
        );
        assert_eq!(props[1].kind, PropKind::Period(SimDuration::from_hours(2)));
        // Bare integers default to milliseconds.
        assert_eq!(props[2].kind, PropKind::Mitd(SimDuration::from_millis(250)));
    }

    #[test]
    fn energy_units() {
        let ast = parse("t { energy: 300uJ onFail: skipTask; }").unwrap();
        assert_eq!(ast.blocks[0].props[0].kind, PropKind::Energy(300_000));
        let err = parse("t { energy: 300kJ onFail: skipTask; }").unwrap_err();
        assert!(err.message.contains("energy unit"));
    }

    #[test]
    fn negative_range_bounds() {
        let ast = parse("t { dpData: g Range: [-2, 2.5] onFail: skipPath; }").unwrap();
        assert_eq!(ast.blocks[0].props[0].range.unwrap().value, (-2.0, 2.5));
    }

    #[test]
    fn errors_have_useful_messages() {
        let cases: &[(&str, &str)] = &[
            ("t { bogus: 3; }", "unknown property"),
            ("t { maxTries: 3 onFail: explode; }", "unknown action"),
            ("t { maxTries 3; }", "expected `:`"),
            ("t { maxTries: 3 onFail: skipPath }", "expected `;`"),
            ("t { maxTries: 3 onFail: skipPath;", "unclosed block"),
            ("t { MITD: 5lightyears onFail: skipPath; }", "time unit"),
            (
                "t { maxTries: 1 onFail: skipTask onFail: skipPath; }",
                "duplicate `onFail:`",
            ),
            (
                "t { collect: 1 dpTask: a dpTask: b onFail: skipTask; }",
                "duplicate `dpTask:`",
            ),
        ];
        for (src, needle) in cases {
            let err = parse(src).expect_err(src);
            assert!(
                err.message.contains(needle),
                "source `{src}`: expected `{needle}` in `{}`",
                err.message
            );
        }
    }

    #[test]
    fn empty_spec_and_empty_blocks_parse() {
        assert_eq!(parse("").unwrap().blocks.len(), 0);
        let ast = parse("t { }").unwrap();
        assert_eq!(ast.blocks[0].props.len(), 0);
    }

    #[test]
    fn duplicate_escalation_action_is_rejected() {
        let err = parse(
            "t { MITD: 1s dpTask: u onFail: restartPath maxAttempt: 2 onFail: skipPath onFail: skipTask; }",
        )
        .unwrap_err();
        assert!(err.message.contains("after `maxAttempt:`"));
    }
}
