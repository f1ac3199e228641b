//! Static consistency checking of property sets.
//!
//! The paper lists specification consistency as future work (§7):
//! "the simultaneous use of time-related properties … may lead to
//! inconsistent specification", where inconsistency means no task
//! execution sequence can satisfy every constraint. Full consistency
//! needs model checking; this module implements the practical subset —
//! structural contradictions and self-defeating reactions that can be
//! decided from the property set alone:
//!
//! - duplicate properties of the same kind on one task;
//! - a `period` interval that cannot accommodate the same task's
//!   `maxDuration` (every in-budget execution violates the period, or
//!   vice versa);
//! - an `MITD`/`period` escalation whose action is `restartPath` — the
//!   same action as the primary, so the escalation can never break a
//!   restart loop (the exact non-termination `maxAttempt` exists to
//!   prevent);
//! - a `collect` count larger than the channel capacity the runtime can
//!   buffer;
//! - an `MITD` whose producer and consumer never share a path, so the
//!   delay can never be measured;
//! - `restartTask` as the reaction to `maxTries` — restarting the task
//!   that already exhausted its attempts is a guaranteed loop.

use artemis_core::app::{AppGraph, CHANNEL_CAPACITY};
use artemis_core::property::{OnFail, PropertyKind, PropertySet};

use crate::diag::{sort_diagnostics, Diagnostic};

/// Checks a resolved property set for internal contradictions.
///
/// # Examples
///
/// ```
/// use artemis_core::app::AppGraphBuilder;
/// use artemis_spec::consistency::check;
///
/// let mut b = AppGraphBuilder::new();
/// let t = b.task("sense");
/// b.path(&[t]);
/// let app = b.build().unwrap();
///
/// let set = artemis_spec::compile(
///     "sense { maxTries: 3 onFail: restartTask; }",
///     &app,
/// ).unwrap();
/// let issues = check(&set, &app);
/// assert_eq!(issues.len(), 1, "restartTask after maxTries is a loop");
/// ```
pub fn check(set: &PropertySet, app: &AppGraph) -> Vec<Diagnostic> {
    let mut issues = Vec::new();

    for (i, entry) in set.entries().iter().enumerate() {
        let task_name = app.task_name(entry.task);
        let prop = &entry.property;

        // Duplicates of the same kind on the same task.
        for earlier in &set.entries()[..i] {
            if earlier.task == entry.task
                && earlier.property.kind.keyword() == prop.kind.keyword()
                && earlier.property.path == prop.path
                && !matches!(
                    prop.kind,
                    PropertyKind::Collect { .. } | PropertyKind::Mitd { .. }
                )
            {
                issues.push(suspicious(
                    task_name,
                    format!(
                        "`{}` declared more than once; the earlier declaration is shadowed in intent",
                        prop.kind.keyword()
                    ),
                ));
            }
        }

        match &prop.kind {
            PropertyKind::MaxDuration { .. } if prop.on_fail == OnFail::RestartTask => {
                issues.push(suspicious(
                    task_name,
                    "`maxDuration … onFail: restartTask` re-runs the task \
                                  that just overran; unless the overrun was transient \
                                  this loops",
                ));
            }
            PropertyKind::MaxTries { .. } if prop.on_fail == OnFail::RestartTask => {
                issues.push(contradiction(
                    task_name,
                    "`maxTries … onFail: restartTask` restarts the task that just \
                                  exhausted its attempts — a guaranteed loop",
                ));
            }
            PropertyKind::Collect { count, dp_task } => {
                if *count as usize > CHANNEL_CAPACITY {
                    issues.push(contradiction(
                        task_name,
                        format!(
                            "`collect: {count}` exceeds the runtime channel capacity \
                             ({CHANNEL_CAPACITY}); the data cannot be buffered"
                        ),
                    ));
                }
                check_shared_path(app, set, i, *dp_task, "collect", &mut issues);
            }
            PropertyKind::Mitd {
                dp_task,
                max_attempt,
                ..
            } => {
                if let Some(ma) = max_attempt {
                    if ma.on_fail == prop.on_fail {
                        issues.push(contradiction(
                            task_name,
                            format!(
                                "`MITD` escalates to `{}` — the same action as the primary \
                                 reaction, so `maxAttempt` can never break the loop",
                                ma.on_fail.keyword()
                            ),
                        ));
                    }
                }
                check_shared_path(app, set, i, *dp_task, "MITD", &mut issues);
            }
            PropertyKind::Period {
                interval,
                jitter,
                max_attempt,
            } => {
                if let Some(ma) = max_attempt {
                    if ma.on_fail == prop.on_fail {
                        issues.push(contradiction(
                            task_name,
                            format!(
                                "`period` escalates to `{}` — identical to the primary \
                                 reaction; the escalation is inert",
                                ma.on_fail.keyword()
                            ),
                        ));
                    }
                }
                // period vs maxDuration on the same task: an execution
                // longer than interval + jitter makes every following
                // period check fail.
                for other in set.for_task(entry.task) {
                    if let PropertyKind::MaxDuration { limit } = &other.kind {
                        if limit.as_micros() > interval.as_micros() + jitter.as_micros() {
                            issues.push(suspicious(
                                task_name,
                                format!(
                                    "`maxDuration: {limit}` permits executions longer than \
                                     `period: {interval}` (+jitter {jitter}); an in-budget \
                                     execution can still violate the period"
                                ),
                            ));
                        }
                    }
                }
            }
            _ => {}
        }
    }
    sort_diagnostics(&mut issues);
    issues
}

/// A finding that the specification can never be satisfied, or always
/// loops: an error.
fn contradiction(task: &str, message: impl Into<String>) -> Diagnostic {
    Diagnostic::error("consistency", format!("task `{task}`"), message)
}

/// A finding that is suspicious, likely not what the developer meant:
/// a warning.
fn suspicious(task: &str, message: impl Into<String>) -> Diagnostic {
    Diagnostic::warning("consistency", format!("task `{task}`"), message)
}

/// Flags an inter-task property whose producer and consumer never share
/// a path: its events can never pair up.
fn check_shared_path(
    app: &AppGraph,
    set: &PropertySet,
    entry_index: usize,
    dp_task: artemis_core::app::TaskId,
    keyword: &str,
    issues: &mut Vec<Diagnostic>,
) {
    let entry = &set.entries()[entry_index];
    // With an explicit governing path, require the producer on it; with
    // none, require any shared path.
    let consumer_paths = app.paths_containing(entry.task);
    let producer_paths = app.paths_containing(dp_task);
    let shares = match entry.property.path {
        Some(p) => producer_paths.contains(&p),
        None => consumer_paths.iter().any(|p| producer_paths.contains(p)),
    };
    if !shares {
        issues.push(contradiction(
            app.task_name(entry.task),
            format!(
                "`{keyword}` depends on `{}`, but the two tasks never share the governing \
                 path; the dependency can never be observed",
                app.task_name(dp_task)
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use artemis_core::app::AppGraphBuilder;

    fn app() -> AppGraph {
        let mut b = AppGraphBuilder::new();
        let sense = b.task("sense");
        let send = b.task("send");
        let lone = b.task("lone");
        b.path(&[sense, send]);
        b.path(&[lone]);
        b.build().unwrap()
    }

    fn issues_for(spec: &str) -> Vec<Diagnostic> {
        let app = app();
        let set = crate::compile(spec, &app).unwrap();
        check(&set, &app)
    }

    #[test]
    fn clean_spec_has_no_findings() {
        let issues = issues_for(
            "send { collect: 3 dpTask: sense onFail: restartPath; \
             MITD: 5min dpTask: sense onFail: restartPath maxAttempt: 3 onFail: skipPath; }\n\
             sense { maxTries: 10 onFail: skipPath; }",
        );
        assert!(issues.is_empty(), "{issues:?}");
    }

    #[test]
    fn max_tries_restart_task_is_a_loop() {
        let issues = issues_for("sense { maxTries: 3 onFail: restartTask; }");
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].severity, Severity::Error);
        assert!(issues[0].message.contains("guaranteed loop"));
    }

    #[test]
    fn inert_escalation_is_flagged() {
        let issues = issues_for(
            "send { MITD: 1min dpTask: sense onFail: restartPath maxAttempt: 3 onFail: restartPath; }",
        );
        assert_eq!(issues.len(), 1);
        assert!(issues[0].message.contains("never break the loop"));

        let issues = issues_for(
            "sense { period: 1min onFail: restartTask maxAttempt: 3 onFail: restartTask; }",
        );
        assert_eq!(issues.len(), 1);
        assert!(issues[0].message.contains("inert"));
    }

    #[test]
    fn oversized_collect_is_flagged() {
        let issues = issues_for("send { collect: 100 dpTask: sense onFail: restartPath; }");
        assert_eq!(issues.len(), 1);
        assert!(issues[0].message.contains("channel capacity"));
    }

    #[test]
    fn unshared_path_dependency_is_flagged() {
        let issues = issues_for("lone { collect: 2 dpTask: sense onFail: restartPath; }");
        assert_eq!(issues.len(), 1);
        assert!(issues[0].message.contains("never share"));
    }

    #[test]
    fn duplicate_kind_is_suspicious() {
        let issues =
            issues_for("sense { maxTries: 3 onFail: skipPath; maxTries: 5 onFail: skipPath; }");
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].severity, Severity::Warning);
    }

    #[test]
    fn period_vs_max_duration_conflict() {
        let issues = issues_for(
            "sense { period: 1s jitter: 100ms onFail: restartTask; \
             maxDuration: 5s onFail: skipTask; }",
        );
        assert_eq!(issues.len(), 1);
        assert!(issues[0].message.contains("period"));
        assert_eq!(issues[0].severity, Severity::Warning);

        // A compatible pair is clean.
        let issues = issues_for(
            "sense { period: 10s onFail: restartTask; maxDuration: 1s onFail: skipTask; }",
        );
        assert!(issues.is_empty(), "{issues:?}");
    }

    #[test]
    fn contradictions_sort_before_suspicions() {
        // Discovery order is maxDuration (Suspicious) first, then
        // maxTries (Contradiction); the returned Vec must be
        // errors-first regardless.
        let issues = issues_for(
            "sense { maxDuration: 10ms onFail: restartTask; \
             maxTries: 3 onFail: restartTask; }",
        );
        assert_eq!(issues.len(), 2, "{issues:?}");
        assert_eq!(issues[0].severity, Severity::Error);
        assert!(issues[0].message.contains("guaranteed loop"));
        assert_eq!(issues[1].severity, Severity::Warning);
    }

    /// Contradictions are errors, suspicions warnings, each about the
    /// task they concern.
    #[test]
    fn issue_converts_to_diagnostic() {
        let issues = issues_for("sense { maxTries: 3 onFail: restartTask; }");
        assert_eq!(issues[0].severity, Severity::Error);
        assert_eq!(issues[0].pass, "consistency");
        assert_eq!(issues[0].subject, "task `sense`");
        let issues = issues_for("sense { maxDuration: 10ms onFail: restartTask; }");
        assert_eq!(issues[0].severity, Severity::Warning);
    }

    #[test]
    fn display_format() {
        let issues = issues_for("lone { collect: 2 dpTask: sense onFail: restartPath; }");
        assert_eq!(
            issues[0].to_string(),
            "error [consistency] task `lone`: `collect` depends on `sense`, but the two \
             tasks never share the governing path; the dependency can never be observed"
        );
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::diag::Severity;
    use artemis_core::app::AppGraphBuilder;

    #[test]
    fn max_duration_restart_task_is_suspicious() {
        let mut b = AppGraphBuilder::new();
        let t = b.task("slow");
        b.path(&[t]);
        let app = b.build().unwrap();
        let set = crate::compile("slow { maxDuration: 10ms onFail: restartTask; }", &app).unwrap();
        let issues = check(&set, &app);
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].severity, Severity::Warning);
        assert!(issues[0].message.contains("overran"));
    }
}
