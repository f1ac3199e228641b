//! Corrective actions and monitor verdicts.
//!
//! When a monitor detects a property violation it does not repair the
//! system itself; it *recommends* a corrective action to the runtime
//! (paper §3.3, Table 1's `onFail:` constructs). Several monitors may
//! fail on the same event, so the runtime arbitrates among the proposed
//! actions; [`Action::arbitrate`] implements the ordering used by the
//! reproduction.

use core::fmt;

use crate::app::PathId;

/// A corrective action a monitor may recommend on property failure.
///
/// The variants mirror Table 1 of the paper. Path-directed actions carry
/// the path the specification bound them to (explicit `Path:` qualifier,
/// or the single owning path when the task is not merged).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Action {
    /// Re-run the current task from its start.
    RestartTask,
    /// Skip the current task and continue with the next one on the path.
    SkipTask,
    /// Restart the given path from its first task.
    RestartPath(PathId),
    /// Abandon the given path and continue with the next path.
    SkipPath(PathId),
    /// Finish the current path without further property checking, then
    /// resume monitored execution (Table 1 `completePath`).
    CompletePath(PathId),
}

impl Action {
    /// Severity rank used for arbitration; higher wins.
    ///
    /// `completePath` is an explicit programmer escape hatch (emergency
    /// handling in the paper's health-monitor example) and outranks
    /// everything; path-level actions outrank task-level ones; skipping
    /// outranks restarting because it is the non-termination escape.
    pub fn severity(self) -> u8 {
        match self {
            Action::RestartTask => 0,
            Action::SkipTask => 1,
            Action::RestartPath(_) => 2,
            Action::SkipPath(_) => 3,
            Action::CompletePath(_) => 4,
        }
    }

    /// Picks the action the runtime should obey among several proposals.
    ///
    /// Returns `None` for an empty slice. Ties keep the earliest
    /// proposal, making arbitration deterministic in monitor order.
    ///
    /// # Examples
    ///
    /// ```
    /// use artemis_core::{Action, PathId};
    ///
    /// let winner = Action::arbitrate(&[
    ///     Action::RestartPath(PathId(1)),
    ///     Action::SkipPath(PathId(1)),
    ///     Action::RestartTask,
    /// ]);
    /// assert_eq!(winner, Some(Action::SkipPath(PathId(1))));
    /// ```
    pub fn arbitrate(proposals: &[Action]) -> Option<Action> {
        proposals.iter().copied().rev().max_by_key(|a| a.severity())
    }

    /// Returns the path this action is directed at, if any.
    pub fn path(self) -> Option<PathId> {
        match self {
            Action::RestartPath(p) | Action::SkipPath(p) | Action::CompletePath(p) => Some(p),
            Action::RestartTask | Action::SkipTask => None,
        }
    }

    /// Returns `true` for actions that restart the path, which require
    /// monitors bound to that path's tasks to be re-initialised.
    pub fn restarts_path(self) -> bool {
        matches!(self, Action::RestartPath(_))
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::RestartTask => write!(f, "restartTask"),
            Action::SkipTask => write!(f, "skipTask"),
            Action::RestartPath(p) => write!(f, "restartPath({p})"),
            Action::SkipPath(p) => write!(f, "skipPath({p})"),
            Action::CompletePath(p) => write!(f, "completePath({p})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_as_documented() {
        let p = PathId(0);
        let ordered = [
            Action::RestartTask,
            Action::SkipTask,
            Action::RestartPath(p),
            Action::SkipPath(p),
            Action::CompletePath(p),
        ];
        for w in ordered.windows(2) {
            assert!(
                w[0].severity() < w[1].severity(),
                "{:?} !< {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn arbitrate_picks_most_severe() {
        let p = PathId(2);
        assert_eq!(Action::arbitrate(&[]), None);
        assert_eq!(
            Action::arbitrate(&[Action::RestartTask]),
            Some(Action::RestartTask)
        );
        assert_eq!(
            Action::arbitrate(&[
                Action::SkipTask,
                Action::CompletePath(p),
                Action::SkipPath(p)
            ]),
            Some(Action::CompletePath(p))
        );
    }

    #[test]
    fn arbitrate_tie_keeps_first_proposal() {
        let a = Action::SkipPath(PathId(0));
        let b = Action::SkipPath(PathId(1));
        // Equal severity: the earliest proposal must win.
        assert_eq!(Action::arbitrate(&[a, b]), Some(a));
    }

    #[test]
    fn action_path_and_restart_helpers() {
        assert_eq!(Action::RestartTask.path(), None);
        assert_eq!(Action::SkipPath(PathId(3)).path(), Some(PathId(3)));
        assert!(Action::RestartPath(PathId(0)).restarts_path());
        assert!(!Action::SkipPath(PathId(0)).restarts_path());
    }

    #[test]
    fn display_matches_spec_keywords() {
        assert_eq!(Action::RestartTask.to_string(), "restartTask");
        assert_eq!(Action::SkipPath(PathId(1)).to_string(), "skipPath(path#2)");
    }
}
