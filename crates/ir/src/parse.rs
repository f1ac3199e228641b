//! Textual syntax for the intermediate language (parser).
//!
//! Reads the form emitted by [`crate::print`], so developers can author
//! monitors directly in the intermediate language when the property
//! language is not expressive enough (paper §3.3). See the grammar in
//! the printer's module docs.

use artemis_core::property::OnFail;
use artemis_spec::{Diagnostic, Span};

use crate::expr::{BinOp, Expr, Value, VarType};
use crate::fsm::{EmitFail, MonitorSuite, StateMachine, Stmt, TaskPat, Transition, Trigger};

/// A parse error at byte offset `at` of the IR text.
fn parse_error(at: usize, message: impl Into<String>) -> Diagnostic {
    Diagnostic::error("parse", "IR", message).with_span(Span::point(at))
}

/// Parses a suite of machines from IR text.
///
/// # Examples
///
/// ```
/// let suite = artemis_ir::parse::parse_suite(r#"
///     machine demo task a persistent {
///         var i: int = 0;
///         state S initial;
///         on startTask(a) from S to S if (i >= 2) { i := 0; } fail skipTask;
///         on startTask(a) from S to S { i := (i + 1); };
///     }
/// "#).unwrap();
/// assert_eq!(suite.machines()[0].transitions.len(), 2);
/// ```
pub fn parse_suite(text: &str) -> Result<MonitorSuite, Diagnostic> {
    let mut p = IrParser::new(text)?;
    let mut suite = MonitorSuite::new();
    while !p.at_eof() {
        suite.push(p.machine()?);
    }
    Ok(suite)
}

/// Parses a single machine.
pub fn parse_machine(text: &str) -> Result<StateMachine, Diagnostic> {
    let mut p = IrParser::new(text)?;
    let m = p.machine()?;
    if !p.at_eof() {
        return Err(p.err("trailing input after machine"));
    }
    Ok(m)
}

#[derive(Clone, PartialEq, Debug)]
enum Tok {
    Ident(String),
    Int(i64),
    Time(u64),
    Float(f64),
    Sym(&'static str),
    Eof,
}

struct IrParser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
}

fn lex(text: &str) -> Result<Vec<(Tok, usize)>, Diagnostic> {
    let b = text.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            '{' | '}' | '(' | ')' | ';' | '*' => {
                let sym = match c {
                    '{' => "{",
                    '}' => "}",
                    '(' => "(",
                    ')' => ")",
                    ';' => ";",
                    _ => "*",
                };
                toks.push((Tok::Sym(sym), i));
                i += 1;
            }
            ':' => {
                if b.get(i + 1) == Some(&b'=') {
                    toks.push((Tok::Sym(":="), i));
                    i += 2;
                } else {
                    toks.push((Tok::Sym(":"), i));
                    i += 1;
                }
            }
            '=' => {
                if b.get(i + 1) == Some(&b'=') {
                    toks.push((Tok::Sym("=="), i));
                    i += 2;
                } else {
                    toks.push((Tok::Sym("="), i));
                    i += 1;
                }
            }
            '!' => {
                if b.get(i + 1) == Some(&b'=') {
                    toks.push((Tok::Sym("!="), i));
                    i += 2;
                } else {
                    toks.push((Tok::Sym("!"), i));
                    i += 1;
                }
            }
            '<' => {
                if b.get(i + 1) == Some(&b'=') {
                    toks.push((Tok::Sym("<="), i));
                    i += 2;
                } else {
                    toks.push((Tok::Sym("<"), i));
                    i += 1;
                }
            }
            '>' => {
                if b.get(i + 1) == Some(&b'=') {
                    toks.push((Tok::Sym(">="), i));
                    i += 2;
                } else {
                    toks.push((Tok::Sym(">"), i));
                    i += 1;
                }
            }
            '&' if b.get(i + 1) == Some(&b'&') => {
                toks.push((Tok::Sym("&&"), i));
                i += 2;
            }
            '|' if b.get(i + 1) == Some(&b'|') => {
                toks.push((Tok::Sym("||"), i));
                i += 2;
            }
            '+' => {
                toks.push((Tok::Sym("+"), i));
                i += 1;
            }
            '-' => {
                toks.push((Tok::Sym("-"), i));
                i += 1;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                if i < b.len() && b[i] == b'.' && b.get(i + 1).is_some_and(u8::is_ascii_digit) {
                    i += 1;
                    while i < b.len() && b[i].is_ascii_digit() {
                        i += 1;
                    }
                    let v: f64 = text[start..i]
                        .parse()
                        .map_err(|_| parse_error(start, "bad float"))?;
                    toks.push((Tok::Float(v), start));
                } else if i < b.len() && b[i] == b't' {
                    let v: u64 = text[start..i]
                        .parse()
                        .map_err(|_| parse_error(start, "time literal out of range"))?;
                    i += 1;
                    toks.push((Tok::Time(v), start));
                } else {
                    let v: i64 = text[start..i]
                        .parse()
                        .map_err(|_| parse_error(start, "integer out of range"))?;
                    toks.push((Tok::Int(v), start));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len() && ((b[i] as char).is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                toks.push((Tok::Ident(text[start..i].to_string()), start));
            }
            _ => {
                // Every other arm steps over ASCII bytes only, so `i`
                // sits on a character boundary: report the whole
                // character, not its first byte.
                let ch = text[i..].chars().next().unwrap_or('\u{FFFD}');
                return Err(Diagnostic::error(
                    "parse",
                    "IR",
                    format!("unexpected character `{ch}`"),
                )
                .with_span(Span::new(i, i + ch.len_utf8())));
            }
        }
    }
    toks.push((Tok::Eof, text.len()));
    Ok(toks)
}

impl IrParser {
    fn new(text: &str) -> Result<Self, Diagnostic> {
        Ok(IrParser {
            toks: lex(text)?,
            pos: 0,
        })
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    fn at(&self) -> usize {
        self.toks[self.pos].1
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].0.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn at_eof(&self) -> bool {
        *self.peek() == Tok::Eof
    }

    fn err(&self, msg: impl Into<String>) -> Diagnostic {
        parse_error(self.at(), msg)
    }

    /// An error at the token just read, for a name or number that
    /// lexed but means nothing here.
    fn err_prev(&self, msg: impl Into<String>) -> Diagnostic {
        parse_error(self.toks[self.pos - 1].1, msg)
    }

    fn sym(&mut self, s: &'static str) -> Result<(), Diagnostic> {
        if *self.peek() == Tok::Sym(s) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected `{s}`")))
        }
    }

    fn eat_sym(&mut self, s: &'static str) -> bool {
        if *self.peek() == Tok::Sym(s) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, Diagnostic> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            _ => Err(self.err("expected an identifier")),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), Diagnostic> {
        match self.peek() {
            Tok::Ident(s) if s == kw => {
                self.bump();
                Ok(())
            }
            _ => Err(self.err(format!("expected keyword `{kw}`"))),
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        match self.peek() {
            Tok::Ident(s) if s == kw => {
                self.bump();
                true
            }
            _ => false,
        }
    }

    fn int(&mut self) -> Result<i64, Diagnostic> {
        match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                Ok(v)
            }
            _ => Err(self.err("expected an integer")),
        }
    }

    fn machine(&mut self) -> Result<StateMachine, Diagnostic> {
        self.keyword("machine")?;
        let name = self.ident()?;
        self.keyword("task")?;
        let task = self.ident()?;
        let mut m = StateMachine::new(&name, &task);
        if self.eat_keyword("path") {
            m.path =
                Some(u32::try_from(self.int()?).map_err(|_| self.err_prev("bad path number"))?);
        }
        if self.eat_keyword("resettable") {
            m.reset_on_path_restart = true;
        } else if self.eat_keyword("persistent") {
            m.reset_on_path_restart = false;
        } else {
            return Err(self.err("expected `resettable` or `persistent`"));
        }
        self.sym("{")?;

        let mut saw_initial = false;
        loop {
            if self.eat_sym("}") {
                break;
            }
            if self.eat_keyword("var") {
                let vname = self.ident()?;
                self.sym(":")?;
                let ty = self.var_type()?;
                self.sym("=")?;
                let init = self.value(ty)?;
                self.sym(";")?;
                m.add_var(&vname, ty, init);
            } else if self.eat_keyword("state") {
                let sname = self.ident()?;
                let idx = m.add_state(&sname);
                if self.eat_keyword("initial") {
                    if saw_initial {
                        return Err(self.err_prev("multiple `initial` states"));
                    }
                    m.initial = idx;
                    saw_initial = true;
                }
                self.sym(";")?;
            } else if self.eat_keyword("on") {
                let t = self.transition(&m)?;
                m.transitions.push(t);
            } else {
                return Err(self.err("expected `var`, `state`, `on` or `}`"));
            }
        }
        if m.states.is_empty() {
            return Err(self.err("machine declares no states"));
        }
        if !saw_initial {
            m.initial = 0;
        }
        Ok(m)
    }

    fn var_type(&mut self) -> Result<VarType, Diagnostic> {
        let name = self.ident()?;
        match name.as_str() {
            "int" => Ok(VarType::Int),
            "bool" => Ok(VarType::Bool),
            "time" => Ok(VarType::Time),
            "float" => Ok(VarType::Float),
            other => Err(self.err_prev(format!("unknown type `{other}`"))),
        }
    }

    fn value(&mut self, ty: VarType) -> Result<Value, Diagnostic> {
        let neg = self.eat_sym("-");
        match (self.peek().clone(), ty) {
            (Tok::Int(v), VarType::Int) => {
                self.bump();
                Ok(Value::Int(if neg { -v } else { v }))
            }
            (Tok::Int(v), VarType::Time) => {
                self.bump();
                Ok(Value::Time(v as u64))
            }
            (Tok::Time(v), VarType::Time) => {
                self.bump();
                Ok(Value::Time(v))
            }
            (Tok::Float(v), VarType::Float) => {
                self.bump();
                Ok(Value::Float(if neg { -v } else { v }))
            }
            (Tok::Int(v), VarType::Float) => {
                self.bump();
                let f = v as f64;
                Ok(Value::Float(if neg { -f } else { f }))
            }
            (Tok::Ident(s), VarType::Bool) if s == "true" || s == "false" => {
                self.bump();
                Ok(Value::Bool(s == "true"))
            }
            _ => Err(self.err(format!("expected a {} literal", ty.keyword()))),
        }
    }

    fn transition(&mut self, m: &StateMachine) -> Result<Transition, Diagnostic> {
        let trigger = self.trigger()?;
        self.keyword("from")?;
        let from_name = self.ident()?;
        let from = m
            .state_index(&from_name)
            .ok_or_else(|| self.err_prev(format!("unknown state `{from_name}`")))?;
        self.keyword("to")?;
        let to_name = self.ident()?;
        let to = m
            .state_index(&to_name)
            .ok_or_else(|| self.err_prev(format!("unknown state `{to_name}`")))?;
        let guard = if self.eat_keyword("if") {
            Some(self.expr()?)
        } else {
            None
        };
        self.sym("{")?;
        let mut body = Vec::new();
        while !self.eat_sym("}") {
            body.push(self.stmt()?);
        }
        let emit = if self.eat_keyword("fail") {
            let action = self.action()?;
            let path = if self.eat_keyword("path") {
                Some(u32::try_from(self.int()?).map_err(|_| self.err_prev("bad path number"))?)
            } else {
                None
            };
            Some(EmitFail { action, path })
        } else {
            None
        };
        self.sym(";")?;
        Ok(Transition {
            from,
            to,
            trigger,
            guard,
            body,
            emit,
        })
    }

    fn trigger(&mut self) -> Result<Trigger, Diagnostic> {
        let name = self.ident()?;
        match name.as_str() {
            "anyEvent" => Ok(Trigger::Any),
            "startTask" | "endTask" => {
                self.sym("(")?;
                let pat = if self.eat_sym("*") {
                    TaskPat::Any
                } else {
                    TaskPat::Named(self.ident()?)
                };
                self.sym(")")?;
                Ok(if name == "startTask" {
                    Trigger::Start(pat)
                } else {
                    Trigger::End(pat)
                })
            }
            other => Err(self.err_prev(format!("unknown trigger `{other}`"))),
        }
    }

    fn action(&mut self) -> Result<OnFail, Diagnostic> {
        let name = self.ident()?;
        match name.as_str() {
            "restartPath" => Ok(OnFail::RestartPath),
            "skipPath" => Ok(OnFail::SkipPath),
            "restartTask" => Ok(OnFail::RestartTask),
            "skipTask" => Ok(OnFail::SkipTask),
            "completePath" => Ok(OnFail::CompletePath),
            other => Err(self.err_prev(format!("unknown action `{other}`"))),
        }
    }

    fn stmt(&mut self) -> Result<Stmt, Diagnostic> {
        if self.eat_keyword("if") {
            let cond = self.expr()?;
            self.sym("{")?;
            let mut then_b = Vec::new();
            while !self.eat_sym("}") {
                then_b.push(self.stmt()?);
            }
            let mut else_b = Vec::new();
            if self.eat_keyword("else") {
                self.sym("{")?;
                while !self.eat_sym("}") {
                    else_b.push(self.stmt()?);
                }
            }
            return Ok(Stmt::If(cond, then_b, else_b));
        }
        let name = self.ident()?;
        self.sym(":=")?;
        let e = self.expr()?;
        self.sym(";")?;
        Ok(Stmt::Assign(name, e))
    }

    /// Precedence-climbing expression parser:
    /// `||` < `&&` < comparisons < `+`/`-` < unary `!` < primary.
    fn expr(&mut self) -> Result<Expr, Diagnostic> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, Diagnostic> {
        let mut lhs = self.and_expr()?;
        while self.eat_sym("||") {
            let rhs = self.and_expr()?;
            lhs = Expr::bin(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, Diagnostic> {
        let mut lhs = self.cmp_expr()?;
        while self.eat_sym("&&") {
            let rhs = self.cmp_expr()?;
            lhs = Expr::bin(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr, Diagnostic> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Tok::Sym("<") => BinOp::Lt,
            Tok::Sym("<=") => BinOp::Le,
            Tok::Sym(">") => BinOp::Gt,
            Tok::Sym(">=") => BinOp::Ge,
            Tok::Sym("==") => BinOp::Eq,
            Tok::Sym("!=") => BinOp::Ne,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        Ok(Expr::bin(op, lhs, rhs))
    }

    fn add_expr(&mut self) -> Result<Expr, Diagnostic> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Sym("+") => BinOp::Add,
                Tok::Sym("-") => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
    }

    fn unary_expr(&mut self) -> Result<Expr, Diagnostic> {
        if self.eat_sym("!") {
            // `!(e)` — the printer always parenthesises the operand.
            let inner = self.unary_expr()?;
            return Ok(Expr::Not(Box::new(inner)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, Diagnostic> {
        if self.eat_sym("(") {
            let e = self.expr()?;
            self.sym(")")?;
            return Ok(e);
        }
        if self.eat_sym("-") {
            // Negative literals.
            return match self.peek().clone() {
                Tok::Int(v) => {
                    self.bump();
                    Ok(Expr::int(-v))
                }
                Tok::Float(v) => {
                    self.bump();
                    Ok(Expr::float(-v))
                }
                _ => Err(self.err("expected a number after `-`")),
            };
        }
        match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                Ok(Expr::int(v))
            }
            Tok::Time(v) => {
                self.bump();
                Ok(Expr::time(v))
            }
            Tok::Float(v) => {
                self.bump();
                Ok(Expr::float(v))
            }
            Tok::Ident(name) => {
                self.bump();
                Ok(match name.as_str() {
                    "t" => Expr::EventTime,
                    "depData" => Expr::DepData,
                    "energy" => Expr::EnergyLevel,
                    "true" => Expr::Lit(Value::Bool(true)),
                    "false" => Expr::Lit(Value::Bool(false)),
                    _ => Expr::Var(name),
                })
            }
            _ => Err(self.err("expected an expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::print::{print_machine, print_suite};

    #[test]
    fn round_trip_every_lowered_machine() {
        // Build the Figure 6 graph, lower Figure 5 plus extras covering
        // every property kind, and round-trip each machine.
        let mut b = artemis_core::app::AppGraphBuilder::new();
        let body = b.task("bodyTemp");
        let avg = b.task_with_var("calcAvg", "avgTemp");
        let heart = b.task("heartRate");
        let accel = b.task("accel");
        let classify = b.task("classify");
        let mic = b.task("micSense");
        let filter = b.task("filter");
        let send = b.task("send");
        b.path(&[body, avg, heart, send]);
        b.path(&[accel, classify, send]);
        b.path(&[mic, filter, send]);
        let app = b.build().unwrap();

        let extra = "accel { period: 10s onFail: restartTask maxAttempt: 2 onFail: skipPath; \
                     energy: 300uJ onFail: skipTask; }";
        let spec = format!("{}\n{}", artemis_spec::samples::FIGURE5, extra);
        let set = artemis_spec::compile(&spec, &app).unwrap();
        let suite = crate::lower::lower_set(&set, &app).unwrap();
        assert_eq!(suite.len(), 10);

        for m in suite.machines() {
            let text = print_machine(m);
            let parsed =
                parse_machine(&text).unwrap_or_else(|e| panic!("machine {}: {e}\n{text}", m.name));
            assert_eq!(&parsed, m, "round-trip mismatch for {}\n{text}", m.name);
        }

        // And the whole-suite form.
        let text = print_suite(&suite);
        let parsed = parse_suite(&text).unwrap();
        assert_eq!(parsed.machines(), suite.machines());
    }

    #[test]
    fn hand_written_machine_parses() {
        let m = parse_machine(
            r#"
            // A custom watchdog written directly in the IR.
            machine watchdog task send path 2 persistent {
                var count: int = 0;
                var armed: bool = false;
                state Waiting initial;
                state Armed;
                on startTask(send) from Waiting to Armed { armed := true; count := (count + 1); };
                on endTask(send) from Armed to Waiting if !(armed) { count := 0; };
                on anyEvent from Armed to Waiting if (count >= 3) { count := 0; } fail skipPath path 2;
            }
        "#,
        )
        .unwrap();
        assert_eq!(m.name, "watchdog");
        assert_eq!(m.vars.len(), 2);
        assert_eq!(m.states, vec!["Waiting", "Armed"]);
        assert_eq!(m.transitions.len(), 3);
        assert_eq!(
            m.transitions[2].emit,
            Some(EmitFail {
                action: OnFail::SkipPath,
                path: Some(2)
            })
        );
    }

    #[test]
    fn operator_precedence_without_parens() {
        let m = parse_machine(
            r#"
            machine p task a persistent {
                var x: int = 0;
                state S initial;
                on anyEvent from S to S if x + 1 < 3 && x >= 0 || false { x := x + 1; };
            }
        "#,
        )
        .unwrap();
        // ((x + 1) < 3 && (x >= 0)) || false
        let g = m.transitions[0].guard.as_ref().unwrap();
        match g {
            Expr::Bin(BinOp::Or, lhs, _) => match lhs.as_ref() {
                Expr::Bin(BinOp::And, l2, _) => {
                    assert!(matches!(l2.as_ref(), Expr::Bin(BinOp::Lt, _, _)));
                }
                other => panic!("expected And, got {other:?}"),
            },
            other => panic!("expected Or, got {other:?}"),
        }
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse_machine("machine x task").unwrap_err();
        assert!(err.message.contains("identifier"));
        assert_eq!(err.span, Some(Span::point(14)), "at the end of the text");
        let err = parse_machine("machine x task a wat {}").unwrap_err();
        assert!(err.message.contains("resettable"));
        let err = parse_machine(
            "machine x task a persistent { state S initial; on bogus from S to S { }; }",
        )
        .unwrap_err();
        assert!(err.message.contains("unknown trigger"));
        let err = parse_machine(
            "machine x task a persistent { state S initial; on anyEvent from S to Z { }; }",
        )
        .unwrap_err();
        assert!(err.message.contains("unknown state `Z`"));
        let err = parse_machine("machine x task a persistent { }").unwrap_err();
        assert!(err.message.contains("no states"));
    }

    /// A character outside ASCII is named whole, spanned over all its
    /// bytes, and rendered as written.
    #[test]
    fn non_ascii_characters_are_reported_whole() {
        for (text, ch) in [("machine é", 'é'), ("machine €", '€')] {
            let err = parse_suite(text).unwrap_err();
            assert!(err.message.contains(&format!("`{ch}`")), "{}", err.message);
            let span = err.span.expect("a lex error carries its span");
            assert_eq!(span, Span::new(8, 8 + ch.len_utf8()));
            assert!(text.is_char_boundary(span.end));
            let rendered = err.render(text);
            assert!(rendered.contains(ch), "{rendered}");
            assert!(rendered.contains("column 9"), "{rendered}");
            assert!(rendered.ends_with("  |         ^\n"), "{rendered}");
        }
    }

    #[test]
    fn duplicate_initial_is_rejected() {
        let err =
            parse_machine("machine x task a persistent { state S initial; state R initial; }")
                .unwrap_err();
        assert!(err.message.contains("multiple `initial`"));
    }

    #[test]
    fn var_initial_values_parse_by_declared_type() {
        let m = parse_machine(
            r#"machine x task a persistent {
                var a: int = -3;
                var b: time = 100t;
                var c: time = 100;
                var d: float = 1.5;
                var e: float = 2;
                var f: bool = true;
                state S initial;
            }"#,
        )
        .unwrap();
        assert_eq!(m.vars[0].init, Value::Int(-3));
        assert_eq!(m.vars[1].init, Value::Time(100));
        assert_eq!(m.vars[2].init, Value::Time(100));
        assert_eq!(m.vars[3].init, Value::Float(1.5));
        assert_eq!(m.vars[4].init, Value::Float(2.0));
        assert_eq!(m.vars[5].init, Value::Bool(true));
    }
}
