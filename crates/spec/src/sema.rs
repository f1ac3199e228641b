//! Semantic analysis: resolve an AST against an application graph.
//!
//! Turns the parsed [`SpecAst`] into a validated
//! [`artemis_core::property::PropertySet`] by resolving
//! task names, checking that each property carries exactly the
//! modifiers its kind requires, and resolving `Path:` qualifiers via
//! the graph (tasks on merged paths require an explicit path, as the
//! paper's `send` example shows).

use artemis_core::app::AppGraph;
use artemis_core::property::{MaxAttempt, OnFail, PropertyKind, PropertySet};
use artemis_core::time::SimDuration;

use crate::ast::{AstAction, PropDecl, PropKind, SpecAst};
use crate::diag::{Diagnostic, Span, Spanned};

/// Resolves `ast` against `app`, producing the validated property set.
///
/// # Examples
///
/// ```
/// use artemis_core::app::AppGraphBuilder;
///
/// let mut b = AppGraphBuilder::new();
/// let accel = b.task("accel");
/// b.path(&[accel]);
/// let app = b.build().unwrap();
///
/// let ast = artemis_spec::parser::parse(
///     "accel { maxTries: 10 onFail: skipPath; }",
/// ).unwrap();
/// let set = artemis_spec::sema::resolve(&ast, &app).unwrap();
/// assert_eq!(set.len(), 1);
/// ```
pub fn resolve(ast: &SpecAst, app: &AppGraph) -> Result<PropertySet, Diagnostic> {
    let mut set = PropertySet::new();
    for block in &ast.blocks {
        let task = app.task_by_name(&block.task.value).ok_or_else(|| {
            Diagnostic::resolve(
                block.task.span,
                format!(
                    "unknown task `{}`; declared tasks: {}",
                    block.task.value,
                    task_names(app)
                ),
            )
        })?;
        for prop in &block.props {
            let (kind, on_fail) = lower_prop(prop, app)?;
            let path_number = prop.path.map(|p| clamp_u32(p, "Path"));
            let path_number = path_number.transpose()?;
            set.add(app, task, kind, on_fail, path_number)
                .map_err(|e| Diagnostic::resolve(prop.span, e.to_string()))?;
        }
    }
    Ok(set)
}

fn task_names(app: &AppGraph) -> String {
    app.tasks()
        .iter()
        .map(|t| t.name.as_str())
        .collect::<Vec<_>>()
        .join(", ")
}

fn lower_prop(prop: &PropDecl, app: &AppGraph) -> Result<(PropertyKind, OnFail), Diagnostic> {
    let on_fail = require_on_fail(prop)?;
    let kind = match &prop.kind {
        PropKind::Period(interval) => {
            forbid(prop, Need::DP_TASK | Need::RANGE, "period")?;
            let jitter = prop
                .jitter
                .map(|j| j.value)
                // The paper notes `period` "assumes a jitter": default
                // to 10 % of the interval.
                .unwrap_or_else(|| SimDuration::from_micros(interval.as_micros() / 10));
            PropertyKind::Period {
                interval: *interval,
                jitter,
                max_attempt: max_attempt(prop)?,
            }
        }
        PropKind::MaxTries(n) => {
            forbid(
                prop,
                Need::DP_TASK | Need::RANGE | Need::MAX_ATTEMPT | Need::JITTER,
                "maxTries",
            )?;
            PropertyKind::MaxTries {
                max: clamp_u32_raw(*n, prop.span, "maxTries")?,
            }
        }
        PropKind::MaxDuration(limit) => {
            forbid(
                prop,
                Need::DP_TASK | Need::RANGE | Need::MAX_ATTEMPT | Need::JITTER,
                "maxDuration",
            )?;
            PropertyKind::MaxDuration { limit: *limit }
        }
        PropKind::Mitd(limit) => {
            forbid(prop, Need::RANGE | Need::JITTER, "MITD")?;
            let dp = require_dp_task(prop, app, "MITD")?;
            PropertyKind::Mitd {
                limit: *limit,
                dp_task: dp,
                max_attempt: max_attempt(prop)?,
            }
        }
        PropKind::Collect(n) => {
            forbid(
                prop,
                Need::RANGE | Need::MAX_ATTEMPT | Need::JITTER,
                "collect",
            )?;
            let dp = require_dp_task(prop, app, "collect")?;
            PropertyKind::Collect {
                count: clamp_u32_raw(*n, prop.span, "collect")?,
                dp_task: dp,
            }
        }
        PropKind::DpData(var) => {
            forbid(
                prop,
                Need::DP_TASK | Need::MAX_ATTEMPT | Need::JITTER,
                "dpData",
            )?;
            let range = prop.range.ok_or_else(|| {
                Diagnostic::resolve(prop.span, "`dpData` requires a `Range: [lo, hi]` modifier")
            })?;
            PropertyKind::DpData {
                var: var.clone(),
                lo: range.value.0,
                hi: range.value.1,
            }
        }
        PropKind::Energy(nj) => {
            forbid(
                prop,
                Need::DP_TASK | Need::RANGE | Need::MAX_ATTEMPT | Need::JITTER,
                "energy",
            )?;
            PropertyKind::Energy {
                min_nanojoules: *nj,
            }
        }
    };
    Ok((kind, on_fail))
}

fn require_on_fail(prop: &PropDecl) -> Result<OnFail, Diagnostic> {
    prop.on_fail.map(|a| ast_action(a.value)).ok_or_else(|| {
        Diagnostic::resolve(
            prop.span,
            format!("`{}` requires an `onFail:` action", prop.kind.keyword()),
        )
    })
}

fn require_dp_task(
    prop: &PropDecl,
    app: &AppGraph,
    keyword: &str,
) -> Result<artemis_core::app::TaskId, Diagnostic> {
    let dp = prop.dp_task.as_ref().ok_or_else(|| {
        Diagnostic::resolve(
            prop.span,
            format!("`{keyword}` requires a `dpTask:` dependency"),
        )
    })?;
    app.task_by_name(&dp.value).ok_or_else(|| {
        Diagnostic::resolve(dp.span, format!("unknown dependency task `{}`", dp.value))
    })
}

fn max_attempt(prop: &PropDecl) -> Result<Option<MaxAttempt>, Diagnostic> {
    match &prop.max_attempt {
        None => Ok(None),
        Some(clause) => {
            let action = clause.on_fail.ok_or_else(|| {
                Diagnostic::resolve(
                    clause.max.span,
                    "`maxAttempt:` requires a following `onFail:` escalation action",
                )
            })?;
            Ok(Some(MaxAttempt {
                max: clamp_u32(clause.max, "maxAttempt")?,
                on_fail: ast_action(action.value),
            }))
        }
    }
}

fn ast_action(a: AstAction) -> OnFail {
    match a {
        AstAction::RestartPath => OnFail::RestartPath,
        AstAction::SkipPath => OnFail::SkipPath,
        AstAction::RestartTask => OnFail::RestartTask,
        AstAction::SkipTask => OnFail::SkipTask,
        AstAction::CompletePath => OnFail::CompletePath,
    }
}

fn clamp_u32(v: Spanned<u64>, what: &str) -> Result<u32, Diagnostic> {
    clamp_u32_raw(v.value, v.span, what)
}

fn clamp_u32_raw(v: u64, span: Span, what: &str) -> Result<u32, Diagnostic> {
    u32::try_from(v)
        .map_err(|_| Diagnostic::resolve(span, format!("`{what}` value {v} is out of range")))
}

/// Modifier-applicability flags used by [`forbid`].
struct Need(u8);

impl Need {
    const DP_TASK: Need = Need(1);
    const RANGE: Need = Need(2);
    const MAX_ATTEMPT: Need = Need(4);
    const JITTER: Need = Need(8);
}

impl core::ops::BitOr for Need {
    type Output = Need;

    fn bitor(self, rhs: Need) -> Need {
        Need(self.0 | rhs.0)
    }
}

/// Rejects modifiers that a property kind does not accept.
fn forbid(prop: &PropDecl, forbidden: Need, keyword: &str) -> Result<(), Diagnostic> {
    if forbidden.0 & Need::DP_TASK.0 != 0 {
        if let Some(dp) = &prop.dp_task {
            return Err(Diagnostic::resolve(
                dp.span,
                format!("`{keyword}` does not take a `dpTask:` modifier"),
            ));
        }
    }
    if forbidden.0 & Need::RANGE.0 != 0 {
        if let Some(r) = &prop.range {
            return Err(Diagnostic::resolve(
                r.span,
                format!("`{keyword}` does not take a `Range:` modifier"),
            ));
        }
    }
    if forbidden.0 & Need::MAX_ATTEMPT.0 != 0 {
        if let Some(ma) = &prop.max_attempt {
            return Err(Diagnostic::resolve(
                ma.max.span,
                format!("`{keyword}` does not take a `maxAttempt:` modifier"),
            ));
        }
    }
    if forbidden.0 & Need::JITTER.0 != 0 {
        if let Some(j) = &prop.jitter {
            return Err(Diagnostic::resolve(
                j.span,
                format!("`{keyword}` does not take a `jitter:` modifier"),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use artemis_core::app::AppGraphBuilder;
    use artemis_core::property::PropertyKind as PK;

    /// The benchmark graph of Figure 6: three paths merging at `send`.
    fn health_app() -> AppGraph {
        let mut b = AppGraphBuilder::new();
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
        b.build().unwrap()
    }

    #[test]
    fn figure5_resolves_against_figure6_graph() {
        let ast = parse(crate::samples::FIGURE5).unwrap();
        let app = health_app();
        let set = resolve(&ast, &app).unwrap();
        assert_eq!(set.len(), 8);

        let send = app.task_by_name("send").unwrap();
        let send_props: Vec<_> = set.for_task(send).collect();
        assert_eq!(send_props.len(), 4);
        match &send_props[0].kind {
            PK::Mitd {
                limit,
                dp_task,
                max_attempt,
            } => {
                assert_eq!(*limit, SimDuration::from_mins(5));
                assert_eq!(*dp_task, app.task_by_name("accel").unwrap());
                let ma = max_attempt.unwrap();
                assert_eq!(ma.max, 3);
                assert_eq!(ma.on_fail, OnFail::SkipPath);
            }
            other => panic!("expected MITD, got {other:?}"),
        }
        // The `Path: 2` qualifier resolved to the accel path.
        assert_eq!(send_props[0].path.unwrap().number(), 2);
        assert_eq!(send_props[3].path.unwrap().number(), 3);

        let avg = app.task_by_name("calcAvg").unwrap();
        let avg_props: Vec<_> = set.for_task(avg).collect();
        match &avg_props[1].kind {
            PK::DpData { var, lo, hi } => {
                assert_eq!(var, "avgTemp");
                assert_eq!((*lo, *hi), (36.0, 38.0));
            }
            other => panic!("expected dpData, got {other:?}"),
        }
        assert_eq!(avg_props[1].on_fail, OnFail::CompletePath);
    }

    #[test]
    fn unknown_task_names_are_diagnosed() {
        let app = health_app();
        let err = resolve(
            &parse("ghost { maxTries: 1 onFail: skipTask; }").unwrap(),
            &app,
        )
        .unwrap_err();
        assert!(err.message.contains("unknown task `ghost`"));
        assert!(err.message.contains("bodyTemp"));

        let err = resolve(
            &parse("send { collect: 1 dpTask: ghost onFail: skipTask Path: 2; }").unwrap(),
            &app,
        )
        .unwrap_err();
        assert!(err.message.contains("unknown dependency task `ghost`"));
    }

    #[test]
    fn missing_required_modifiers_are_diagnosed() {
        let app = health_app();
        for (src, needle) in [
            ("accel { maxTries: 3; }", "requires an `onFail:`"),
            (
                "send { MITD: 5min onFail: skipPath Path: 2; }",
                "requires a `dpTask:`",
            ),
            (
                "calcAvg { collect: 10 onFail: restartPath; }",
                "requires a `dpTask:`",
            ),
            (
                "calcAvg { dpData: avgTemp onFail: completePath; }",
                "requires a `Range:",
            ),
            (
                "send { MITD: 5min dpTask: accel onFail: restartPath maxAttempt: 3 Path: 2; }",
                "requires a following `onFail:`",
            ),
        ] {
            let err = resolve(&parse(src).unwrap(), &app).expect_err(src);
            assert!(
                err.message.contains(needle),
                "`{src}`: expected `{needle}` in `{}`",
                err.message
            );
        }
    }

    #[test]
    fn inapplicable_modifiers_are_diagnosed() {
        let app = health_app();
        for (src, needle) in [
            (
                "accel { maxTries: 3 dpTask: send onFail: skipPath; }",
                "does not take a `dpTask:`",
            ),
            (
                "accel { maxTries: 3 Range: [1, 2] onFail: skipPath; }",
                "does not take a `Range:`",
            ),
            (
                "accel { maxTries: 3 onFail: skipPath maxAttempt: 2 onFail: skipTask; }",
                "does not take a `maxAttempt:`",
            ),
            (
                "send { maxDuration: 100ms jitter: 5ms onFail: skipTask; }",
                "does not take a `jitter:`",
            ),
        ] {
            let err = resolve(&parse(src).unwrap(), &app).expect_err(src);
            assert!(
                err.message.contains(needle),
                "`{src}`: expected `{needle}` in `{}`",
                err.message
            );
        }
    }

    #[test]
    fn merged_task_without_path_is_diagnosed() {
        let app = health_app();
        let err = resolve(
            &parse("send { maxTries: 3 onFail: skipPath; }").unwrap(),
            &app,
        )
        .unwrap_err();
        assert!(err.message.contains("Path:"), "{}", err.message);
    }

    #[test]
    fn period_defaults_jitter_to_ten_percent() {
        let app = health_app();
        let set = resolve(
            &parse("accel { period: 10s onFail: restartTask; }").unwrap(),
            &app,
        )
        .unwrap();
        match &set.entries()[0].property.kind {
            PK::Period { jitter, .. } => assert_eq!(*jitter, SimDuration::from_secs(1)),
            other => panic!("expected period, got {other:?}"),
        }
    }

    #[test]
    fn energy_extension_property_resolves() {
        let app = health_app();
        let set = resolve(
            &parse("accel { energy: 350uJ onFail: skipTask; }").unwrap(),
            &app,
        )
        .unwrap();
        match &set.entries()[0].property.kind {
            PK::Energy { min_nanojoules } => assert_eq!(*min_nanojoules, 350_000),
            other => panic!("expected energy, got {other:?}"),
        }
    }

    #[test]
    fn zero_bounds_flow_through_as_diagnostics() {
        let app = health_app();
        let err = resolve(
            &parse("accel { maxTries: 0 onFail: skipPath; }").unwrap(),
            &app,
        )
        .unwrap_err();
        assert!(err.message.contains("at least 1"));
    }
}
