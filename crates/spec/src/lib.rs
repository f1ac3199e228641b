//! The ARTEMIS property specification language.
//!
//! A declarative, per-task notation for intermittent-program properties
//! (paper §3.2, Table 1, Figure 5). Developers write blocks like
//!
//! ```text
//! send: {
//!     MITD: 5min dpTask: accel onFail: restartPath maxAttempt: 3 onFail: skipPath Path: 2;
//!     maxDuration: 100ms onFail: skipTask;
//! }
//! ```
//!
//! independently of the application code. The pipeline is:
//!
//! 1. [`parse`] — text → [`ast::SpecAst`] (lexer + recursive descent,
//!    stopping at the first error);
//! 2. [`sema::resolve`] — AST + application graph →
//!    [`artemis_core::property::PropertySet`], validating
//!    task references, required/forbidden modifiers and `Path:`
//!    qualifiers;
//! 3. (in `artemis-ir`) lowering of each property to a finite-state
//!    machine monitor.
//!
//! Both steps, and the [`consistency`] checker after them, report a
//! [`Diagnostic`]: parse and resolve errors carry their source span,
//! which [`Diagnostic::render`] turns into a line/column header and a
//! caret. [`compile`] runs steps 1–2 together. [`printer::print`] renders an
//! AST back to canonical source; `parse ∘ print` is the identity, which
//! a property-based test checks for randomly generated specifications.

pub mod ast;
pub mod consistency;
pub mod diag;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod samples;
pub mod sema;
pub mod token;

use artemis_core::app::AppGraph;
use artemis_core::property::PropertySet;

pub use ast::SpecAst;
pub use diag::{sort_diagnostics, Diagnostic, Severity, Span, Spanned};
pub use parser::parse;
pub use printer::print;
pub use sema::resolve;

/// Parses and resolves a specification in one step.
///
/// # Examples
///
/// ```
/// use artemis_core::app::AppGraphBuilder;
///
/// let mut b = AppGraphBuilder::new();
/// let sense = b.task("sense");
/// b.path(&[sense]);
/// let app = b.build().unwrap();
///
/// let set = artemis_spec::compile(
///     "sense: { maxTries: 3 onFail: skipPath; }",
///     &app,
/// ).unwrap();
/// assert_eq!(set.len(), 1);
/// ```
pub fn compile(source: &str, app: &AppGraph) -> Result<PropertySet, Diagnostic> {
    let ast = parse(source)?;
    resolve(&ast, app)
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ast::{AstAction, MaxAttemptClause, PropDecl, PropKind, TaskBlock};
    use crate::diag::{Span, Spanned};
    use artemis_core::time::SimDuration;
    use proptest::prelude::*;

    fn sp<T>(v: T) -> Spanned<T> {
        Spanned::new(v, Span::default())
    }

    fn action_strategy() -> impl Strategy<Value = AstAction> {
        prop_oneof![
            Just(AstAction::RestartPath),
            Just(AstAction::SkipPath),
            Just(AstAction::RestartTask),
            Just(AstAction::SkipTask),
            Just(AstAction::CompletePath),
        ]
    }

    fn duration_strategy() -> impl Strategy<Value = SimDuration> {
        // Only parse-representable durations: whole us/ms/s/min/h.
        prop_oneof![
            (1u64..10_000).prop_map(SimDuration::from_micros),
            (1u64..10_000).prop_map(SimDuration::from_millis),
            (1u64..10_000).prop_map(SimDuration::from_secs),
            (1u64..10_000).prop_map(SimDuration::from_mins),
            (1u64..100).prop_map(SimDuration::from_hours),
        ]
    }

    fn ident_strategy() -> impl Strategy<Value = String> {
        // Avoid keywords and modifier names.
        "[a-z][a-zA-Z0-9_]{0,8}".prop_filter("not a keyword", |s| {
            !matches!(
                s.as_str(),
                "period"
                    | "maxTries"
                    | "maxDuration"
                    | "collect"
                    | "dpData"
                    | "energy"
                    | "dpTask"
                    | "onFail"
                    | "maxAttempt"
                    | "jitter"
            )
        })
    }

    fn kind_strategy() -> impl Strategy<Value = PropKind> {
        prop_oneof![
            duration_strategy().prop_map(PropKind::Period),
            (1u64..1_000).prop_map(PropKind::MaxTries),
            duration_strategy().prop_map(PropKind::MaxDuration),
            duration_strategy().prop_map(PropKind::Mitd),
            (1u64..1_000).prop_map(PropKind::Collect),
            ident_strategy().prop_map(PropKind::DpData),
            (1u64..1_000_000).prop_map(PropKind::Energy),
        ]
    }

    fn prop_strategy() -> impl Strategy<Value = PropDecl> {
        (
            kind_strategy(),
            proptest::option::of(ident_strategy()),
            action_strategy(),
            proptest::option::of((1u64..10, action_strategy())),
            proptest::option::of(1u64..9),
            proptest::option::of((-100i64..100, 0i64..100)),
            proptest::option::of(duration_strategy()),
        )
            .prop_map(|(kind, dp, act, ma, path, range, jitter)| {
                let mut p = PropDecl::new(kind);
                p.dp_task = dp.map(sp);
                p.on_fail = Some(sp(act));
                p.max_attempt = ma.map(|(m, a)| MaxAttemptClause {
                    max: sp(m),
                    on_fail: Some(sp(a)),
                });
                p.path = path.map(sp);
                p.range = range.map(|(lo, w)| sp((lo as f64, (lo + w) as f64)));
                p.jitter = jitter.map(sp);
                p
            })
    }

    fn ast_strategy() -> impl Strategy<Value = SpecAst> {
        proptest::collection::vec(
            (
                ident_strategy(),
                proptest::collection::vec(prop_strategy(), 0..4),
            ),
            0..5,
        )
        .prop_map(|blocks| SpecAst {
            blocks: blocks
                .into_iter()
                .map(|(task, props)| TaskBlock {
                    task: sp(task),
                    props,
                })
                .collect(),
        })
    }

    proptest! {
        /// `parse(print(ast))` succeeds and re-prints identically: the
        /// printer emits only valid syntax and the parser loses nothing.
        #[test]
        fn print_parse_round_trip(ast in ast_strategy()) {
            let printed = printer::print(&ast);
            let reparsed = parse(&printed)
                .map_err(|d| TestCaseError::fail(format!("{}\n{}", d.render(&printed), printed)))?;
            prop_assert_eq!(printer::print(&reparsed), printed);
        }

        /// The lexer never panics on arbitrary input.
        #[test]
        fn lexer_total(input in ".*") {
            let _ = lexer::lex(&input);
        }

        /// The parser never panics on arbitrary token soup.
        #[test]
        fn parser_total(input in "[a-zA-Z0-9:;,{}\\[\\]. \n-]*") {
            let _ = parse(&input);
        }
    }
}
