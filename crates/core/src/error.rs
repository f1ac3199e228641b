//! Error types shared across the workspace.

use core::fmt;

/// Errors raised while building or resolving an application graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// A task name was declared twice.
    DuplicateTask {
        /// The offending name.
        name: String,
    },
    /// A path was declared with no tasks.
    EmptyPath {
        /// One-based number of the offending path.
        number: u32,
    },
    /// A path referenced a task id that was never declared.
    UnknownTaskId {
        /// The raw id.
        id: u32,
    },
    /// A `Path:` qualifier referenced a path number that does not exist.
    UnknownPath {
        /// The one-based number given in the specification.
        number: u32,
    },
    /// A `Path:` qualifier named a path that does not contain the task.
    TaskNotOnPath {
        /// Task name.
        task: String,
        /// One-based path number given.
        number: u32,
    },
    /// A property was attached to a task that is on no path.
    TaskOnNoPath {
        /// Task name.
        task: String,
    },
    /// A task appears on several paths and the property omitted `Path:`.
    AmbiguousPath {
        /// Task name.
        task: String,
        /// One-based numbers of the candidate paths.
        candidates: Vec<u32>,
    },
    /// The application graph declared no paths at all.
    NoPaths,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::DuplicateTask { name } => {
                write!(f, "task `{name}` is declared more than once")
            }
            BuildError::EmptyPath { number } => {
                write!(f, "path #{number} contains no tasks")
            }
            BuildError::UnknownTaskId { id } => {
                write!(f, "path references undeclared task id {id}")
            }
            BuildError::UnknownPath { number } => {
                write!(f, "path #{number} does not exist")
            }
            BuildError::TaskNotOnPath { task, number } => {
                write!(f, "task `{task}` is not on path #{number}")
            }
            BuildError::TaskOnNoPath { task } => {
                write!(f, "task `{task}` does not appear on any path")
            }
            BuildError::AmbiguousPath { task, candidates } => {
                write!(
                    f,
                    "task `{task}` appears on paths {candidates:?}; a `Path:` qualifier is required"
                )
            }
            BuildError::NoPaths => write!(f, "application graph declares no paths"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Catch-all error for core-level operations.
#[derive(Clone, Debug, PartialEq)]
pub enum CoreError {
    /// Graph construction or resolution failure.
    Build(BuildError),
    /// A property referenced a monitored variable the task never declared.
    UnknownMonitoredVar {
        /// Task name.
        task: String,
        /// Variable name in the property.
        var: String,
    },
    /// A numeric range had `lo > hi`.
    InvalidRange {
        /// Lower bound as written.
        lo: f64,
        /// Upper bound as written.
        hi: f64,
    },
    /// A count or attempt bound of zero, which can never be satisfied.
    ZeroBound {
        /// The construct that carried the bound.
        construct: &'static str,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Build(e) => write!(f, "{e}"),
            CoreError::UnknownMonitoredVar { task, var } => {
                write!(f, "task `{task}` declares no monitored variable `{var}`")
            }
            CoreError::InvalidRange { lo, hi } => {
                write!(f, "invalid range [{lo}, {hi}]: lower bound exceeds upper")
            }
            CoreError::ZeroBound { construct } => {
                write!(f, "`{construct}` requires a bound of at least 1")
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl From<BuildError> for CoreError {
    fn from(e: BuildError) -> Self {
        CoreError::Build(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        let e = BuildError::AmbiguousPath {
            task: "send".into(),
            candidates: vec![1, 2, 3],
        };
        let msg = e.to_string();
        assert!(msg.contains("send"));
        assert!(msg.contains("Path:"));

        let e = CoreError::InvalidRange { lo: 38.0, hi: 36.0 };
        assert!(e.to_string().contains("lower bound exceeds upper"));
    }

    #[test]
    fn build_error_converts_to_core_error() {
        let e: CoreError = BuildError::NoPaths.into();
        assert!(matches!(e, CoreError::Build(BuildError::NoPaths)));
    }
}
