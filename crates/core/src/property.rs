//! The resolved property data model.
//!
//! The specification front end (`artemis-spec`) parses property text and
//! resolves task/path names against an [`AppGraph`], producing a
//! [`PropertySet`]: a flat list of [`TaskProperty`] records. The
//! intermediate-language crate lowers each record into one finite-state
//! machine (paper §3.3, Figure 7).
//!
//! The variants mirror Table 1 of the paper, plus the `energy` extension
//! property walked through in §4.2.2 (minimum capacitor level before a
//! task may start), which this reproduction implements end to end.

use core::fmt;

use crate::app::{AppGraph, PathId, TaskId};
use crate::error::CoreError;
use crate::time::SimDuration;

/// What to do when a property fails, before path resolution.
///
/// This is the raw `onFail:` keyword; [`Property`] stores the resolved
/// [`Action`](crate::action::Action)-shaped form with concrete paths.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OnFail {
    /// Restart the governing path from its first task.
    RestartPath,
    /// Skip the governing path entirely.
    SkipPath,
    /// Restart the current task.
    RestartTask,
    /// Skip the current task.
    SkipTask,
    /// Finish the current path unmonitored, then resume.
    CompletePath,
}

impl OnFail {
    /// Returns the specification-language keyword for this action.
    pub fn keyword(self) -> &'static str {
        match self {
            OnFail::RestartPath => "restartPath",
            OnFail::SkipPath => "skipPath",
            OnFail::RestartTask => "restartTask",
            OnFail::SkipTask => "skipTask",
            OnFail::CompletePath => "completePath",
        }
    }

    /// Returns `true` if this action needs a governing path.
    pub fn needs_path(self) -> bool {
        matches!(
            self,
            OnFail::RestartPath | OnFail::SkipPath | OnFail::CompletePath
        )
    }

    /// The [`Action`](crate::action::Action) this keyword names,
    /// directed at `path` when it [needs one](OnFail::needs_path).
    pub fn action(self, path: PathId) -> crate::action::Action {
        use crate::action::Action;
        match self {
            OnFail::RestartTask => Action::RestartTask,
            OnFail::SkipTask => Action::SkipTask,
            OnFail::RestartPath => Action::RestartPath(path),
            OnFail::SkipPath => Action::SkipPath(path),
            OnFail::CompletePath => Action::CompletePath(path),
        }
    }
}

impl fmt::Display for OnFail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// The `maxAttempt:` escalation attached to time-bounded properties.
///
/// Time-related properties (`MITD`, `period`) may themselves trigger
/// restarts; without a cap a long outage makes them restart forever —
/// the exact non-termination the paper demonstrates in Mayfly. The
/// escalation bounds the number of failures before a terminal action.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MaxAttempt {
    /// Number of allowed property failures before escalating.
    pub max: u32,
    /// Action taken once `max` failures have occurred.
    pub on_fail: OnFail,
}

/// The kind and parameters of one property, resolved against the graph.
// `Eq` is deliberately absent: `DpData` carries `f64` bounds.
#[derive(Clone, PartialEq, Debug)]
pub enum PropertyKind {
    /// Desired interval between consecutive executions of the task, with
    /// an allowed jitter (Table 1 `period`).
    Period {
        /// Target interval between consecutive starts.
        interval: SimDuration,
        /// Permitted deviation from the interval.
        jitter: SimDuration,
        /// Optional escalation after repeated failures.
        max_attempt: Option<MaxAttempt>,
    },
    /// Maximum number of start attempts before the task must complete
    /// (Table 1 `maxTries`); guards against non-termination from
    /// repeated power failures inside one task.
    MaxTries {
        /// Allowed attempts, at least 1.
        max: u32,
    },
    /// Maximum execution duration of one task attempt (Table 1
    /// `maxDuration`).
    MaxDuration {
        /// Time budget from first start to end.
        limit: SimDuration,
    },
    /// Maximum Inter-Task Delay: the task must start within `limit` of
    /// the dependee's completion (Table 1 `MITD`).
    Mitd {
        /// Allowed delay since `dp_task` finished.
        limit: SimDuration,
        /// The producing task the delay is measured from.
        dp_task: TaskId,
        /// Optional escalation after repeated failures.
        max_attempt: Option<MaxAttempt>,
    },
    /// The task requires `count` completions of `dp_task` before it may
    /// start (Table 1 `collect`).
    Collect {
        /// Required number of completions, at least 1.
        count: u32,
        /// The producing task whose completions are counted.
        dp_task: TaskId,
    },
    /// The task's monitored output must stay within a range, otherwise
    /// the action fires (Table 1 `dpData` + `Range`).
    DpData {
        /// Name of the monitored variable (from the task declaration).
        var: String,
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
    /// Extension property (§4.2.2): the capacitor must hold at least
    /// this much energy before the task starts.
    Energy {
        /// Minimum stored energy in nanojoules.
        min_nanojoules: u64,
    },
}

impl PropertyKind {
    /// Returns the specification-language keyword for this property.
    pub fn keyword(&self) -> &'static str {
        match self {
            PropertyKind::Period { .. } => "period",
            PropertyKind::MaxTries { .. } => "maxTries",
            PropertyKind::MaxDuration { .. } => "maxDuration",
            PropertyKind::Mitd { .. } => "MITD",
            PropertyKind::Collect { .. } => "collect",
            PropertyKind::DpData { .. } => "dpData",
            PropertyKind::Energy { .. } => "energy",
        }
    }
}

/// One fully resolved property bound to a task.
#[derive(Clone, PartialEq, Debug)]
pub struct Property {
    /// Kind and parameters.
    pub kind: PropertyKind,
    /// Action on failure.
    pub on_fail: OnFail,
    /// The path that path-directed actions of this property govern.
    ///
    /// `None` when the property only takes task-level actions and its
    /// task sits on merged paths (no single governing path exists); in
    /// that case no `Path:` qualifier is required.
    pub path: Option<PathId>,
}

/// A property bound to the task it was declared on.
#[derive(Clone, PartialEq, Debug)]
pub struct TaskProperty {
    /// The task whose block declared the property.
    pub task: TaskId,
    /// The property itself.
    pub property: Property,
}

/// All properties of an application, in declaration order.
///
/// # Examples
///
/// ```
/// use artemis_core::app::AppGraphBuilder;
/// use artemis_core::property::{OnFail, PropertyKind, PropertySet};
///
/// let mut b = AppGraphBuilder::new();
/// let a = b.task("accel");
/// b.path(&[a]);
/// let app = b.build().unwrap();
///
/// let mut set = PropertySet::new();
/// set.add(&app, a, PropertyKind::MaxTries { max: 10 }, OnFail::SkipPath, None)
///     .unwrap();
/// assert_eq!(set.for_task(a).count(), 1);
/// ```
#[derive(Clone, PartialEq, Debug, Default)]
pub struct PropertySet {
    entries: Vec<TaskProperty>,
}

impl PropertySet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a property on `task`, validating parameters and resolving
    /// the governing path (`path_number` is the one-based `Path:`
    /// qualifier, or `None` when the task is not merged).
    pub fn add(
        &mut self,
        app: &AppGraph,
        task: TaskId,
        kind: PropertyKind,
        on_fail: OnFail,
        path_number: Option<u32>,
    ) -> Result<(), CoreError> {
        Self::validate_kind(app, task, &kind)?;
        let escalation_needs_path = match &kind {
            PropertyKind::Period {
                max_attempt: Some(ma),
                ..
            }
            | PropertyKind::Mitd {
                max_attempt: Some(ma),
                ..
            } => ma.on_fail.needs_path(),
            _ => false,
        };
        let path = if let Some(n) = path_number {
            // An explicit qualifier is always validated.
            Some(app.resolve_path(task, Some(n))?)
        } else if on_fail.needs_path() || escalation_needs_path {
            Some(app.resolve_path(task, None)?)
        } else {
            // Task-level actions: bind a path when it is unambiguous so
            // reports can attribute the property, else leave it open.
            app.resolve_path(task, None).ok()
        };
        self.entries.push(TaskProperty {
            task,
            property: Property {
                kind,
                on_fail,
                path,
            },
        });
        Ok(())
    }

    fn validate_kind(app: &AppGraph, task: TaskId, kind: &PropertyKind) -> Result<(), CoreError> {
        match kind {
            PropertyKind::MaxTries { max: 0 } => Err(CoreError::ZeroBound {
                construct: "maxTries",
            }),
            PropertyKind::Collect { count: 0, .. } => Err(CoreError::ZeroBound {
                construct: "collect",
            }),
            PropertyKind::Period {
                max_attempt: Some(MaxAttempt { max: 0, .. }),
                ..
            }
            | PropertyKind::Mitd {
                max_attempt: Some(MaxAttempt { max: 0, .. }),
                ..
            } => Err(CoreError::ZeroBound {
                construct: "maxAttempt",
            }),
            PropertyKind::DpData { var, lo, hi } => {
                if lo > hi {
                    return Err(CoreError::InvalidRange { lo: *lo, hi: *hi });
                }
                let decl = app.task(task);
                match &decl.monitored_var {
                    Some(v) if v == var => Ok(()),
                    _ => Err(CoreError::UnknownMonitoredVar {
                        task: decl.name.clone(),
                        var: var.clone(),
                    }),
                }
            }
            _ => Ok(()),
        }
    }

    /// All entries in declaration order.
    pub fn entries(&self) -> &[TaskProperty] {
        &self.entries
    }

    /// Iterates properties declared on `task`.
    pub fn for_task(&self, task: TaskId) -> impl Iterator<Item = &Property> {
        self.entries
            .iter()
            .filter(move |e| e.task == task)
            .map(|e| &e.property)
    }

    /// Number of properties.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no properties were declared.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppGraphBuilder;

    fn app() -> (AppGraph, TaskId, TaskId) {
        let mut b = AppGraphBuilder::new();
        let accel = b.task("accel");
        let send = b.task_with_var("send", "rate");
        b.path(&[accel, send]);
        (b.build().unwrap(), accel, send)
    }

    #[test]
    fn add_resolves_single_owning_path() {
        let (app, accel, _) = app();
        let mut set = PropertySet::new();
        set.add(
            &app,
            accel,
            PropertyKind::MaxTries { max: 10 },
            OnFail::SkipPath,
            None,
        )
        .unwrap();
        assert_eq!(set.entries()[0].property.path, Some(PathId(0)));
    }

    #[test]
    fn zero_bounds_are_rejected() {
        let (app, accel, _) = app();
        let mut set = PropertySet::new();
        assert!(matches!(
            set.add(
                &app,
                accel,
                PropertyKind::MaxTries { max: 0 },
                OnFail::SkipPath,
                None
            ),
            Err(CoreError::ZeroBound {
                construct: "maxTries"
            })
        ));
        assert!(matches!(
            set.add(
                &app,
                accel,
                PropertyKind::Collect {
                    count: 0,
                    dp_task: accel
                },
                OnFail::RestartPath,
                None
            ),
            Err(CoreError::ZeroBound {
                construct: "collect"
            })
        ));
        assert!(matches!(
            set.add(
                &app,
                accel,
                PropertyKind::Mitd {
                    limit: SimDuration::from_mins(5),
                    dp_task: accel,
                    max_attempt: Some(MaxAttempt {
                        max: 0,
                        on_fail: OnFail::SkipPath
                    }),
                },
                OnFail::RestartPath,
                None
            ),
            Err(CoreError::ZeroBound {
                construct: "maxAttempt"
            })
        ));
    }

    #[test]
    fn dp_data_validates_variable_and_range() {
        let (app, accel, send) = app();
        let mut set = PropertySet::new();
        // Wrong variable name.
        assert!(matches!(
            set.add(
                &app,
                send,
                PropertyKind::DpData {
                    var: "nope".into(),
                    lo: 0.0,
                    hi: 1.0
                },
                OnFail::CompletePath,
                None
            ),
            Err(CoreError::UnknownMonitoredVar { .. })
        ));
        // Task without a monitored variable at all.
        assert!(matches!(
            set.add(
                &app,
                accel,
                PropertyKind::DpData {
                    var: "rate".into(),
                    lo: 0.0,
                    hi: 1.0
                },
                OnFail::CompletePath,
                None
            ),
            Err(CoreError::UnknownMonitoredVar { .. })
        ));
        // Inverted range.
        assert!(matches!(
            set.add(
                &app,
                send,
                PropertyKind::DpData {
                    var: "rate".into(),
                    lo: 2.0,
                    hi: 1.0
                },
                OnFail::CompletePath,
                None
            ),
            Err(CoreError::InvalidRange { .. })
        ));
        // Valid.
        set.add(
            &app,
            send,
            PropertyKind::DpData {
                var: "rate".into(),
                lo: 0.0,
                hi: 1.0,
            },
            OnFail::CompletePath,
            None,
        )
        .unwrap();
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn for_task_filters() {
        let (app, accel, send) = app();
        let mut set = PropertySet::new();
        set.add(
            &app,
            accel,
            PropertyKind::MaxTries { max: 3 },
            OnFail::SkipPath,
            None,
        )
        .unwrap();
        set.add(
            &app,
            send,
            PropertyKind::MaxDuration {
                limit: SimDuration::from_millis(100),
            },
            OnFail::SkipTask,
            None,
        )
        .unwrap();
        assert_eq!(set.for_task(accel).count(), 1);
        assert_eq!(set.for_task(send).count(), 1);
        assert!(!set.is_empty());
    }

    #[test]
    fn keywords_match_table_1() {
        assert_eq!(PropertyKind::MaxTries { max: 1 }.keyword(), "maxTries");
        assert_eq!(OnFail::CompletePath.keyword(), "completePath");
        assert!(OnFail::SkipPath.needs_path());
        assert!(!OnFail::SkipTask.needs_path());
    }
}
