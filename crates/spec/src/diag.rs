//! Source spans and the one finding type of the front end.
//!
//! Every checker between specification text and an installed monitor
//! reports a [`Diagnostic`] on the one [`Severity`] scale: the spec
//! lexer and parser (pass `"parse"`), [`crate::sema::resolve`]
//! (`"resolve"`), the consistency checker (`"consistency"`), and in
//! `artemis-ir` the IR text parser, IR validation and the install-time
//! analysis passes.

use core::fmt;

/// A byte range in the source text.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Span {
    /// Inclusive start byte offset.
    pub start: usize,
    /// Exclusive end byte offset.
    pub end: usize,
}

impl Span {
    /// Creates a span.
    pub const fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// A zero-width span at `pos`.
    pub const fn point(pos: usize) -> Self {
        Span {
            start: pos,
            end: pos,
        }
    }

    /// The smallest span covering both.
    pub fn merge(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }
}

/// A value together with where it came from in the source.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Spanned<T> {
    /// The value.
    pub value: T,
    /// Its source location.
    pub span: Span,
}

impl<T> Spanned<T> {
    /// Pairs a value with its span.
    pub fn new(value: T, span: Span) -> Self {
        Spanned { value, span }
    }
}

/// Severity of a [`Diagnostic`]. Errors reject an install / fail a
/// lint run; warnings are surfaced but not fatal. The declaration
/// order gives the errors-first sort via `Ord`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// The artifact must be rejected.
    Error,
    /// Suspicious but not disqualifying.
    Warning,
}

impl Severity {
    /// Lower-case label used in rendered output (`"error"`/`"warning"`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A finding of any front-end checker.
///
/// Install-time gating, the `analyze` lint driver and the command-line
/// tools all read this one shape: a severity, the pass that found it,
/// what it is about, and, for findings read from text, where.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// How bad it is.
    pub severity: Severity,
    /// Which checker produced the finding (e.g. `"parse"`,
    /// `"resolve"`, `"consistency"`, `"validate"`, `"verifier"`,
    /// `"bounds"`, `"reachability"`, `"conflicts"`).
    pub pass: &'static str,
    /// What the finding is about — a machine, task or state name, or
    /// the text (`spec`, `IR`) a parse or resolve error was read from.
    pub subject: String,
    /// Human-readable description.
    pub message: String,
    /// Source location, when the finding was read from spec or IR
    /// text.
    pub span: Option<Span>,
}

impl Diagnostic {
    /// Creates an error-severity diagnostic.
    pub fn error(
        pass: &'static str,
        subject: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            severity: Severity::Error,
            pass,
            subject: subject.into(),
            message: message.into(),
            span: None,
        }
    }

    /// Creates a warning-severity diagnostic.
    pub fn warning(
        pass: &'static str,
        subject: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            pass,
            subject: subject.into(),
            message: message.into(),
            span: None,
        }
    }

    /// Attaches a source span.
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = Some(span);
        self
    }

    /// Returns `true` for error severity.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }

    /// A parse error at `span` of the specification text.
    pub(crate) fn parse(span: Span, message: impl Into<String>) -> Self {
        Diagnostic::error("parse", "spec", message).with_span(span)
    }

    /// A resolve error at `span` of the specification text.
    pub(crate) fn resolve(span: Span, message: impl Into<String>) -> Self {
        Diagnostic::error("resolve", "spec", message).with_span(span)
    }

    /// Renders with a line/column header and a caret line pointing at
    /// the offending text of `source` when the diagnostic carries a
    /// span, falling back to the one-line `Display` form.
    pub fn render(&self, source: &str) -> String {
        let Some(span) = self.span else {
            return format!("{self}\n");
        };
        let (line_no, col, line) = locate(source, span.start);
        // Column and caret count characters, not bytes.
        let end = (col + span.end.saturating_sub(span.start)).min(line.len());
        let chars = |r: core::ops::Range<usize>| line.get(r).map(|s| s.chars().count());
        let width = chars(col..end).unwrap_or(end - col).max(1);
        let col = chars(0..col).unwrap_or(col);
        format!(
            "{} at line {}, column {}: [{}] {}: {}\n  | {line}\n  | {}{}\n",
            self.severity,
            line_no + 1,
            col + 1,
            self.pass,
            self.subject,
            self.message,
            " ".repeat(col),
            "^".repeat(width)
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity, self.pass, self.subject, self.message
        )
    }
}

impl std::error::Error for Diagnostic {}

/// Stable errors-first sort: errors before warnings, discovery order
/// preserved within each severity. Every producer of `Vec<Diagnostic>`
/// in the workspace returns this order.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by_key(|d| d.severity);
}

/// Finds the zero-based line number, column and line text containing
/// byte offset `pos`.
fn locate(source: &str, pos: usize) -> (usize, usize, String) {
    let mut line_start = 0usize;
    let mut line_no = 0usize;
    for (i, ch) in source.char_indices() {
        if i >= pos {
            break;
        }
        if ch == '\n' {
            line_no += 1;
            line_start = i + 1;
        }
    }
    let line_end = source[line_start..]
        .find('\n')
        .map(|i| line_start + i)
        .unwrap_or(source.len());
    let col = pos.saturating_sub(line_start).min(line_end - line_start);
    (line_no, col, source[line_start..line_end].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_merge_covers_both() {
        let a = Span::new(2, 5);
        let b = Span::new(4, 9);
        assert_eq!(a.merge(b), Span::new(2, 9));
        assert_eq!(b.merge(a), Span::new(2, 9));
    }

    #[test]
    fn render_points_at_the_right_line() {
        let src = "first line\nsecond line\nthird";
        let pos = src.find("second").unwrap();
        let d = Diagnostic::parse(Span::new(pos, pos + 6), "bad keyword");
        let rendered = d.render(src);
        assert!(rendered.contains("line 2, column 1"));
        assert!(rendered.contains("second line"));
        assert!(rendered.contains("^^^^^^"));
    }

    #[test]
    fn render_handles_end_of_input() {
        let src = "abc";
        let d = Diagnostic::parse(Span::point(3), "unexpected end");
        let rendered = d.render(src);
        assert!(rendered.contains("line 1"));
    }

    /// `Display` is one line, span or not: spans show only in `render`.
    #[test]
    fn display_is_compact() {
        let d = Diagnostic::parse(Span::new(1, 4), "oops");
        assert_eq!(d.to_string(), "error [parse] spec: oops");
    }

    #[test]
    fn diagnostic_display_and_span_render() {
        let d = Diagnostic::error("verifier", "m0", "jump out of bounds");
        assert_eq!(d.to_string(), "error [verifier] m0: jump out of bounds");
        assert!(d.is_error());
        assert!(!Diagnostic::warning("bounds", "m0", "tight").is_error());

        let src = "first\nsecond";
        let spanned = d.with_span(Span::new(6, 12));
        let rendered = spanned.render(src);
        assert!(rendered.contains("line 2"));
        assert!(rendered.contains("[verifier] m0"));
        // Span-less rendering falls back to the Display form.
        let plain = Diagnostic::warning("conflicts", "a/b", "overlap").render(src);
        assert!(plain.starts_with("warning [conflicts] a/b"));
    }

    #[test]
    fn sort_is_errors_first_and_stable() {
        let mut ds = vec![
            Diagnostic::warning("p", "w1", "first warning"),
            Diagnostic::error("p", "e1", "first error"),
            Diagnostic::warning("p", "w2", "second warning"),
            Diagnostic::error("p", "e2", "second error"),
        ];
        sort_diagnostics(&mut ds);
        let subjects: Vec<&str> = ds.iter().map(|d| d.subject.as_str()).collect();
        assert_eq!(subjects, ["e1", "e2", "w1", "w2"]);
    }
}
