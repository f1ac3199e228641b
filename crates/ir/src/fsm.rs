//! The finite-state-machine monitor model.
//!
//! Each property is compiled to one state machine (paper §3.3,
//! Figure 7): typed variables, named states, and transitions triggered
//! by `startTask`/`endTask`/`anyEvent`, optionally guarded, with
//! assignment/if-then-else bodies and an optional failure signal that
//! carries the corrective action.
//!
//! Machines are *self-contained*: triggers reference tasks by source
//! name, so IR text can be written, stored and exchanged independently
//! of a compiled application. The monitor engine resolves names against
//! the application graph when it loads a machine.

use core::fmt;
use std::sync::Arc;

use artemis_core::property::OnFail;

use crate::expr::{Expr, Value, VarType};

/// How a transition matches tasks.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TaskPat {
    /// Any task.
    Any,
    /// The named task only.
    Named(String),
}

impl TaskPat {
    /// Convenience constructor.
    pub fn named(name: &str) -> TaskPat {
        TaskPat::Named(name.to_string())
    }
}

/// What fires a transition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Trigger {
    /// A `startTask` event matching the pattern.
    Start(TaskPat),
    /// An `endTask` event matching the pattern.
    End(TaskPat),
    /// Any event at all (`anyEvent` in the paper's Figure 7).
    Any,
}

/// A statement in a transition body.
#[derive(Clone, PartialEq, Debug)]
pub enum Stmt {
    /// `var := expr`
    Assign(String, Expr),
    /// `if cond { … } else { … }`
    If(Expr, Vec<Stmt>, Vec<Stmt>),
}

/// The failure signal a transition may raise.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EmitFail {
    /// Recommended corrective action.
    pub action: OnFail,
    /// One-based path number for path-directed actions.
    pub path: Option<u32>,
}

/// One guarded transition.
#[derive(Clone, PartialEq, Debug)]
pub struct Transition {
    /// Source state index.
    pub from: u32,
    /// Destination state index.
    pub to: u32,
    /// Triggering event pattern.
    pub trigger: Trigger,
    /// Optional boolean guard.
    pub guard: Option<Expr>,
    /// Statements executed when the transition is taken.
    pub body: Vec<Stmt>,
    /// Optional failure signal.
    pub emit: Option<EmitFail>,
}

/// A variable declaration.
#[derive(Clone, PartialEq, Debug)]
pub struct VarDecl {
    /// Variable name.
    pub name: String,
    /// Variable type.
    pub ty: VarType,
    /// Initial value (also the reset value).
    pub init: Value,
}

/// One monitor: a complete state machine.
///
/// # Examples
///
/// ```
/// use artemis_core::property::OnFail;
/// use artemis_ir::expr::{BinOp, Expr, Value, VarType};
/// use artemis_ir::fsm::{EmitFail, StateMachine, Stmt, TaskPat, Transition, Trigger};
///
/// // The maxTries machine of Figure 7, for max = 2.
/// let mut m = StateMachine::new("a_maxTries", "a");
/// m.add_var("i", VarType::Int, Value::Int(0));
/// let not_started = m.add_state("NotStarted");
/// let started = m.add_state("Started");
/// m.transitions.push(Transition {
///     from: not_started, to: started,
///     trigger: Trigger::Start(TaskPat::named("a")),
///     guard: None,
///     body: vec![Stmt::Assign("i".into(), Expr::int(1))],
///     emit: None,
/// });
/// assert_eq!(m.states.len(), 2);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct StateMachine {
    /// Unique monitor name, e.g. `send_MITD_0`.
    pub name: String,
    /// The task whose property block generated this machine.
    pub task: String,
    /// One-based number of the path the property governs, if any.
    pub path: Option<u32>,
    /// Whether a `restartPath` of the governing path re-initialises
    /// this machine (paper §3.3: "monitors linked to already initiated
    /// tasks within that path must be re-initialized").
    pub reset_on_path_restart: bool,
    /// Declared variables in slot order.
    pub vars: Vec<VarDecl>,
    /// State names; indices are the `from`/`to` of transitions.
    pub states: Vec<String>,
    /// Initial state index.
    pub initial: u32,
    /// Transitions in priority order (first match wins).
    pub transitions: Vec<Transition>,
}

impl StateMachine {
    /// Creates an empty machine bound to `task`.
    pub fn new(name: &str, task: &str) -> Self {
        StateMachine {
            name: name.to_string(),
            task: task.to_string(),
            path: None,
            reset_on_path_restart: false,
            vars: Vec::new(),
            states: Vec::new(),
            initial: 0,
            transitions: Vec::new(),
        }
    }

    /// Declares a variable; returns its slot index.
    pub fn add_var(&mut self, name: &str, ty: VarType, init: Value) -> usize {
        self.vars.push(VarDecl {
            name: name.to_string(),
            ty,
            init,
        });
        self.vars.len() - 1
    }

    /// Declares a state; returns its index.
    pub fn add_state(&mut self, name: &str) -> u32 {
        self.states.push(name.to_string());
        (self.states.len() - 1) as u32
    }

    /// Finds a variable slot by name.
    pub fn var_index(&self, name: &str) -> Option<usize> {
        self.vars.iter().position(|v| v.name == name)
    }

    /// Finds a state index by name.
    pub fn state_index(&self, name: &str) -> Option<u32> {
        self.states.iter().position(|s| s == name).map(|i| i as u32)
    }

    /// The initial variable values, in slot order.
    pub fn initial_vars(&self) -> Vec<Value> {
        self.vars.iter().map(|v| v.init).collect()
    }

    /// Transitions leaving `state`, in priority order.
    pub fn transitions_from(&self, state: u32) -> impl Iterator<Item = &Transition> {
        self.transitions.iter().filter(move |t| t.from == state)
    }

    /// All task names this machine observes (its own plus `dpTask`s).
    pub fn observed_tasks(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for t in &self.transitions {
            let pat = match &t.trigger {
                Trigger::Start(p) | Trigger::End(p) => p,
                Trigger::Any => continue,
            };
            if let TaskPat::Named(n) = pat {
                if !names.contains(&n.as_str()) {
                    names.push(n);
                }
            }
        }
        names
    }
}

impl fmt::Display for StateMachine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "machine {} ({} states, {} vars, {} transitions)",
            self.name,
            self.states.len(),
            self.vars.len(),
            self.transitions.len()
        )
    }
}

/// A set of machines compiled from one specification.
///
/// A cheap handle: clones share one read-only machine list, so every
/// device installing the same suite holds the same machines. Equality
/// compares machines; [`MonitorSuite::same`] asks whether two handles
/// share them.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct MonitorSuite {
    machines: Arc<Vec<StateMachine>>,
}

impl MonitorSuite {
    /// Creates an empty suite.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a machine. Copies the machine list first if another handle
    /// shares it, so the other handles never see the change.
    pub fn push(&mut self, m: StateMachine) {
        Arc::make_mut(&mut self.machines).push(m);
    }

    /// `true` iff both handles share one machine list (a clone of the
    /// same suite, with no `push` on either since).
    pub fn same(&self, other: &MonitorSuite) -> bool {
        Arc::ptr_eq(&self.machines, &other.machines)
    }

    /// All machines, in declaration order.
    pub fn machines(&self) -> &[StateMachine] {
        &self.machines
    }

    /// Finds a machine by name.
    pub fn machine(&self, name: &str) -> Option<&StateMachine> {
        self.machines.iter().find(|m| m.name == name)
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// Returns `true` if the suite holds no machines.
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_helpers_index_correctly() {
        let mut m = StateMachine::new("m", "a");
        assert_eq!(m.add_var("i", VarType::Int, Value::Int(0)), 0);
        assert_eq!(m.add_var("start", VarType::Time, Value::Time(0)), 1);
        assert_eq!(m.add_state("S0"), 0);
        assert_eq!(m.add_state("S1"), 1);
        assert_eq!(m.var_index("start"), Some(1));
        assert_eq!(m.var_index("nope"), None);
        assert_eq!(m.state_index("S1"), Some(1));
        assert_eq!(m.initial_vars(), vec![Value::Int(0), Value::Time(0)]);
    }

    #[test]
    fn observed_tasks_dedups() {
        let mut m = StateMachine::new("m", "a");
        m.add_state("S");
        for trigger in [
            Trigger::Start(TaskPat::named("a")),
            Trigger::End(TaskPat::named("b")),
            Trigger::Start(TaskPat::named("a")),
            Trigger::Any,
            Trigger::Start(TaskPat::Any),
        ] {
            m.transitions.push(Transition {
                from: 0,
                to: 0,
                trigger,
                guard: None,
                body: vec![],
                emit: None,
            });
        }
        assert_eq!(m.observed_tasks(), vec!["a", "b"]);
    }

    #[test]
    fn suite_lookup() {
        let mut suite = MonitorSuite::new();
        suite.push(StateMachine::new("x", "a"));
        suite.push(StateMachine::new("y", "b"));
        assert_eq!(suite.len(), 2);
        assert!(suite.machine("y").is_some());
        assert!(suite.machine("z").is_none());
        assert!(!suite.is_empty());
    }

    /// Clones share one machine list until a `push`, which copies it
    /// and leaves the other handles as they were.
    #[test]
    fn suite_clones_share_until_push() {
        let mut suite = MonitorSuite::new();
        suite.push(StateMachine::new("x", "a"));
        let shared = suite.clone();
        assert!(shared.same(&suite));
        let mut grown = suite.clone();
        grown.push(StateMachine::new("y", "b"));
        assert!(!grown.same(&suite));
        assert!(shared.same(&suite));
        assert_eq!(suite.len(), 1);
        assert_eq!(grown.len(), 2);

        let mut equal = MonitorSuite::new();
        equal.push(StateMachine::new("x", "a"));
        assert_eq!(equal, suite);
        assert!(!equal.same(&suite), "equal is not the same");
    }

    #[test]
    fn display_summarises() {
        let m = StateMachine::new("send_MITD_0", "send");
        assert!(m.to_string().contains("send_MITD_0"));
    }
}
