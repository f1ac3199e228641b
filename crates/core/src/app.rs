//! The task-based application graph: tasks, paths, and name resolution.
//!
//! ARTEMIS targets *task-based* intermittent programs (Chain, InK,
//! Alpaca): the computation is decomposed into atomic tasks grouped into
//! *paths* — ordered task sequences that the runtime executes one after
//! another (paper §3.1 and Figure 6). The [`AppGraph`] is the static
//! shape of such a program; task *bodies* live in the runtime crates so
//! that the language front end can resolve a specification against the
//! graph without needing executable code.

use core::fmt;
use std::collections::HashMap;

use crate::error::BuildError;
use crate::time::SimDuration;

/// Samples one inter-task channel buffers: the runtimes' ring size, and
/// the largest `collect` count the specification checker accepts.
pub const CHANNEL_CAPACITY: usize = 32;

/// Index of a task within an [`AppGraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TaskId(pub u32);

impl TaskId {
    /// Returns the id as a `usize` index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task#{}", self.0)
    }
}

/// Index of a path within an [`AppGraph`].
///
/// Paths are numbered from **1** in the specification language (matching
/// the paper's `Path: 2` syntax); internally they are stored densely and
/// this id is the zero-based index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PathId(pub u32);

impl PathId {
    /// Returns the id as a `usize` index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the one-based number used in specification text.
    pub const fn number(self) -> u32 {
        self.0 + 1
    }
}

impl fmt::Display for PathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "path#{}", self.number())
    }
}

/// Declared energy-relevant cost of one task body execution.
///
/// Task bodies are opaque closures, so the static energy-feasibility
/// analysis cannot derive their draw — applications *declare* it here
/// instead. `compute_cycles` and `idle` are priced through the
/// device's cost model; `extra_energy_pj`/`extra_time_us` carry
/// everything the declarer prices themselves (peripheral samples,
/// radio packets, channel FRAM traffic), already in picojoules and
/// microseconds.
///
/// Semantics: the declaration should be the draw of one **successful**
/// body execution. Used as a *lower* bound for the analysis's
/// infeasibility floor (so understating extras keeps error verdicts
/// sound) and, together with the analysis's runtime-overhead
/// allowance, as the base of the warning ceiling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TaskCostDecl {
    /// CPU cycles the body computes.
    pub compute_cycles: u64,
    /// Total low-power idle time the body waits.
    pub idle: SimDuration,
    /// Self-priced extra draw (peripherals, radio, channels), pJ.
    pub extra_energy_pj: u64,
    /// Self-priced extra time, µs.
    pub extra_time_us: u64,
}

/// Static declaration of one task.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskDecl {
    /// Source-level task name, e.g. `bodyTemp`.
    pub name: String,
    /// Name of the monitored output variable, if the task declared one
    /// with the paper's `Task(name, var)` form (used by `dpData`).
    pub monitored_var: Option<String>,
    /// Declared energy cost of one body execution (zero when the
    /// application does not declare costs — the energy analysis then
    /// bounds monitor overhead only).
    pub cost: TaskCostDecl,
}

/// Static declaration of one path: an ordered task sequence.
#[derive(Clone, Debug, PartialEq)]
pub struct PathDecl {
    /// Tasks in execution order; never empty.
    pub tasks: Vec<TaskId>,
}

/// The static shape of a task-based intermittent application.
///
/// Construct one with [`AppGraphBuilder`]. The graph guarantees:
/// task names are unique, every path is non-empty, and every path refers
/// only to declared tasks.
///
/// # Examples
///
/// ```
/// use artemis_core::app::AppGraphBuilder;
///
/// let mut b = AppGraphBuilder::new();
/// let temp = b.task("bodyTemp");
/// let avg = b.task_with_var("calcAvg", "avgTemp");
/// let send = b.task("send");
/// b.path(&[temp, avg, send]);
/// let app = b.build().unwrap();
///
/// assert_eq!(app.task_by_name("calcAvg"), Some(avg));
/// assert_eq!(app.paths().len(), 1);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct AppGraph {
    tasks: Vec<TaskDecl>,
    paths: Vec<PathDecl>,
    by_name: HashMap<String, TaskId>,
}

impl AppGraph {
    /// Returns all task declarations in id order.
    pub fn tasks(&self) -> &[TaskDecl] {
        &self.tasks
    }

    /// Returns all path declarations in id order.
    pub fn paths(&self) -> &[PathDecl] {
        &self.paths
    }

    /// Returns the declaration of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn task(&self, id: TaskId) -> &TaskDecl {
        &self.tasks[id.index()]
    }

    /// Returns the name of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn task_name(&self, id: TaskId) -> &str {
        &self.tasks[id.index()].name
    }

    /// Looks a task up by source name.
    pub fn task_by_name(&self, name: &str) -> Option<TaskId> {
        self.by_name.get(name).copied()
    }

    /// Returns the declared body cost of `id` (zero if undeclared).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn task_cost(&self, id: TaskId) -> TaskCostDecl {
        self.tasks[id.index()].cost
    }

    /// Returns the declaration of path `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn path(&self, id: PathId) -> &PathDecl {
        &self.paths[id.index()]
    }

    /// Returns the paths (as ids) that contain `task`.
    pub fn paths_containing(&self, task: TaskId) -> Vec<PathId> {
        self.paths
            .iter()
            .enumerate()
            .filter(|(_, p)| p.tasks.contains(&task))
            .map(|(i, _)| PathId(i as u32))
            .collect()
    }

    /// Returns the number of declared tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Resolves the path a property on `task` refers to.
    ///
    /// When a task appears on exactly one path (no path merging), the
    /// specification may omit the `Path:` qualifier and this returns that
    /// single path. With an explicit one-based `number` the corresponding
    /// path is returned if it exists *and* contains the task.
    pub fn resolve_path(&self, task: TaskId, number: Option<u32>) -> Result<PathId, BuildError> {
        match number {
            Some(n) => {
                if n == 0 || n as usize > self.paths.len() {
                    return Err(BuildError::UnknownPath { number: n });
                }
                let id = PathId(n - 1);
                if !self.path(id).tasks.contains(&task) {
                    return Err(BuildError::TaskNotOnPath {
                        task: self.task_name(task).to_string(),
                        number: n,
                    });
                }
                Ok(id)
            }
            None => {
                let owning = self.paths_containing(task);
                match owning.as_slice() {
                    [only] => Ok(*only),
                    [] => Err(BuildError::TaskOnNoPath {
                        task: self.task_name(task).to_string(),
                    }),
                    _ => Err(BuildError::AmbiguousPath {
                        task: self.task_name(task).to_string(),
                        candidates: owning.iter().map(|p| p.number()).collect(),
                    }),
                }
            }
        }
    }
}

/// Incremental builder for [`AppGraph`].
#[derive(Default, Debug)]
pub struct AppGraphBuilder {
    tasks: Vec<TaskDecl>,
    paths: Vec<PathDecl>,
    by_name: HashMap<String, TaskId>,
    errors: Vec<BuildError>,
}

impl AppGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a task; returns its id.
    ///
    /// Redeclaring a name records an error surfaced by [`build`].
    ///
    /// [`build`]: AppGraphBuilder::build
    pub fn task(&mut self, name: &str) -> TaskId {
        self.declare(name, None)
    }

    /// Declares a task with a monitored output variable (for `dpData`).
    pub fn task_with_var(&mut self, name: &str, var: &str) -> TaskId {
        self.declare(name, Some(var.to_string()))
    }

    fn declare(&mut self, name: &str, var: Option<String>) -> TaskId {
        if let Some(&existing) = self.by_name.get(name) {
            self.errors.push(BuildError::DuplicateTask {
                name: name.to_string(),
            });
            return existing;
        }
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(TaskDecl {
            name: name.to_string(),
            monitored_var: var,
            cost: TaskCostDecl::default(),
        });
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Declares the energy cost of one execution of `task`'s body (see
    /// [`TaskCostDecl`]). Overwrites any previous declaration.
    pub fn task_cost(&mut self, task: TaskId, cost: TaskCostDecl) -> &mut Self {
        if task.index() >= self.tasks.len() {
            self.errors.push(BuildError::UnknownTaskId { id: task.0 });
        } else {
            self.tasks[task.index()].cost = cost;
        }
        self
    }

    /// Declares a path as an ordered task sequence; returns its id.
    pub fn path(&mut self, tasks: &[TaskId]) -> PathId {
        if tasks.is_empty() {
            self.errors.push(BuildError::EmptyPath {
                number: self.paths.len() as u32 + 1,
            });
        }
        for &t in tasks {
            if t.index() >= self.tasks.len() {
                self.errors.push(BuildError::UnknownTaskId { id: t.0 });
            }
        }
        let id = PathId(self.paths.len() as u32);
        self.paths.push(PathDecl {
            tasks: tasks.to_vec(),
        });
        id
    }

    /// Finishes the graph, reporting the first accumulated error if any.
    pub fn build(self) -> Result<AppGraph, BuildError> {
        if let Some(err) = self.errors.into_iter().next() {
            return Err(err);
        }
        if self.paths.is_empty() {
            return Err(BuildError::NoPaths);
        }
        Ok(AppGraph {
            tasks: self.tasks,
            paths: self.paths,
            by_name: self.by_name,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_path_app() -> AppGraph {
        let mut b = AppGraphBuilder::new();
        let body = b.task("bodyTemp");
        let avg = b.task_with_var("calcAvg", "avgTemp");
        let accel = b.task("accel");
        let send = b.task("send");
        let mic = b.task("micSense");
        b.path(&[body, avg, send]);
        b.path(&[accel, send]);
        b.path(&[mic, send]);
        b.build().unwrap()
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let app = three_path_app();
        assert_eq!(app.task_count(), 5);
        assert_eq!(app.task_by_name("bodyTemp"), Some(TaskId(0)));
        assert_eq!(app.task_by_name("micSense"), Some(TaskId(4)));
        assert_eq!(app.task_by_name("nope"), None);
    }

    #[test]
    fn task_cost_defaults_to_zero_and_round_trips() {
        let mut b = AppGraphBuilder::new();
        let a = b.task("a");
        let c = b.task("c");
        let decl = TaskCostDecl {
            compute_cycles: 5_000,
            idle: SimDuration::from_millis(300),
            extra_energy_pj: 5_000_000,
            extra_time_us: 1_000,
        };
        b.task_cost(a, decl);
        b.path(&[a, c]);
        let app = b.build().unwrap();
        assert_eq!(app.task_cost(a), decl);
        assert_eq!(app.task_cost(c), TaskCostDecl::default());
    }

    #[test]
    fn task_cost_on_unknown_id_is_rejected() {
        let mut b = AppGraphBuilder::new();
        let a = b.task("a");
        b.task_cost(TaskId(9), TaskCostDecl::default());
        b.path(&[a]);
        assert!(matches!(b.build(), Err(BuildError::UnknownTaskId { .. })));
    }

    #[test]
    fn duplicate_task_is_rejected() {
        let mut b = AppGraphBuilder::new();
        b.task("a");
        b.task("a");
        b.path(&[TaskId(0)]);
        assert!(matches!(b.build(), Err(BuildError::DuplicateTask { .. })));
    }

    #[test]
    fn empty_path_is_rejected() {
        let mut b = AppGraphBuilder::new();
        b.task("a");
        b.path(&[]);
        assert!(matches!(b.build(), Err(BuildError::EmptyPath { .. })));
    }

    #[test]
    fn graph_without_paths_is_rejected() {
        let mut b = AppGraphBuilder::new();
        b.task("a");
        assert!(matches!(b.build(), Err(BuildError::NoPaths)));
    }

    #[test]
    fn paths_containing_finds_merged_task() {
        let app = three_path_app();
        let send = app.task_by_name("send").unwrap();
        let owning = app.paths_containing(send);
        assert_eq!(owning, vec![PathId(0), PathId(1), PathId(2)]);
    }

    #[test]
    fn resolve_path_unique_owner_needs_no_number() {
        let app = three_path_app();
        let accel = app.task_by_name("accel").unwrap();
        assert_eq!(app.resolve_path(accel, None).unwrap(), PathId(1));
    }

    #[test]
    fn resolve_path_merged_task_requires_number() {
        let app = three_path_app();
        let send = app.task_by_name("send").unwrap();
        assert!(matches!(
            app.resolve_path(send, None),
            Err(BuildError::AmbiguousPath { .. })
        ));
        assert_eq!(app.resolve_path(send, Some(2)).unwrap(), PathId(1));
    }

    #[test]
    fn resolve_path_rejects_bogus_numbers() {
        let app = three_path_app();
        let send = app.task_by_name("send").unwrap();
        assert!(matches!(
            app.resolve_path(send, Some(0)),
            Err(BuildError::UnknownPath { .. })
        ));
        assert!(matches!(
            app.resolve_path(send, Some(9)),
            Err(BuildError::UnknownPath { .. })
        ));
        let body = app.task_by_name("bodyTemp").unwrap();
        assert!(matches!(
            app.resolve_path(body, Some(2)),
            Err(BuildError::TaskNotOnPath { .. })
        ));
    }
}
