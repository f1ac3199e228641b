//! Execution traces: the timeline of everything the simulated device did.
//!
//! Both runtimes (ARTEMIS and the Mayfly baseline) append to a [`Trace`]
//! as they execute. The trace is what the experiment harness renders —
//! Figure 13 of the paper is literally a trace — and what the
//! integration tests assert against.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::action::Action;
use crate::app::{PathId, TaskId};
use crate::time::{SimDuration, SimInstant};

/// One entry on the execution timeline.
#[derive(Clone, PartialEq, Debug)]
pub enum TraceEvent {
    /// The device (re)gained power and the runtime re-entered its loop.
    Boot {
        /// Reboot ordinal; 0 is the initial hard reset.
        reboot: u64,
    },
    /// The capacitor crossed the off threshold mid-execution.
    PowerFailure,
    /// Charging completed after an outage of the given length.
    Charged {
        /// How long the device was off.
        delay: SimDuration,
    },
    /// A task body began executing (possibly a re-attempt).
    TaskStart {
        /// The task.
        task: TaskId,
        /// 1-based attempt counter since the last completion of the task.
        attempt: u32,
    },
    /// A task body completed and its effects were committed.
    TaskEnd {
        /// The task.
        task: TaskId,
    },
    /// A monitor reported a property violation.
    Violation {
        /// The task the triggering event concerned.
        task: TaskId,
        /// Index of the monitor in the installed suite, resolved to a
        /// name via [`Trace::monitor_name`] at render time (no
        /// allocation on the violation hot path).
        monitor: u32,
        /// The recommended action.
        action: Action,
    },
    /// The runtime obeyed an arbitrated corrective action.
    ActionTaken {
        /// The action executed.
        action: Action,
    },
    /// Execution moved to the first task of a path.
    PathStart {
        /// The path.
        path: PathId,
    },
    /// A path ran to completion.
    PathComplete {
        /// The path.
        path: PathId,
    },
    /// A path was abandoned by a skip action.
    PathSkipped {
        /// The path.
        path: PathId,
    },
    /// The whole application (all paths) completed one run.
    RunComplete,
    /// Install-time static analysis flagged a non-fatal finding (the
    /// rendered diagnostic). Errors reject the install instead.
    InstallWarning {
        /// The rendered diagnostic text, shared by every install that
        /// traces the same finding.
        message: Arc<str>,
    },
}

/// A timestamped [`TraceEvent`].
#[derive(Clone, PartialEq, Debug)]
pub struct TraceRecord {
    /// When the event happened on the persistent clock.
    pub at: SimInstant,
    /// What happened.
    pub event: TraceEvent,
}

/// An append-only execution timeline, optionally bounded.
///
/// The default trace is full-fidelity: it keeps every record. The
/// bounded variant ([`Trace::bounded`]) is a ring buffer that keeps only
/// the most recent records, for open-ended runs (e.g. 6-hour DNF
/// sweeps) whose traces would otherwise grow without bound.
///
/// # Examples
///
/// ```
/// use artemis_core::trace::{Trace, TraceEvent};
/// use artemis_core::{SimInstant, TaskId};
///
/// let mut trace = Trace::new();
/// trace.push(SimInstant::EPOCH, TraceEvent::Boot { reboot: 0 });
/// trace.push(
///     SimInstant::from_micros(10),
///     TraceEvent::TaskStart { task: TaskId(0), attempt: 1 },
/// );
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.count(|e| matches!(e, TraceEvent::TaskStart { .. })), 1);
/// ```
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Trace {
    records: VecDeque<TraceRecord>,
    enabled: bool,
    /// Ring-buffer capacity; `None` keeps everything.
    cap: Option<usize>,
    /// Records evicted by the ring buffer.
    dropped: u64,
    /// Installed monitor names, indexed by `Violation::monitor`.
    monitor_names: Vec<String>,
}

impl Trace {
    /// Creates an empty, enabled trace.
    pub fn new() -> Self {
        Trace {
            enabled: true,
            ..Trace::default()
        }
    }

    /// Creates a disabled trace that drops every event (for benchmarks
    /// where trace memory would distort measurements).
    pub fn disabled() -> Self {
        Trace::default()
    }

    /// Creates an enabled ring-buffer trace keeping the most recent
    /// `cap` records; older ones are evicted (and counted in
    /// [`Trace::dropped`]).
    pub fn bounded(cap: usize) -> Self {
        Trace {
            enabled: true,
            cap: Some(cap.max(1)),
            ..Trace::default()
        }
    }

    /// Appends an event at `at`.
    pub fn push(&mut self, at: SimInstant, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        if let Some(cap) = self.cap {
            if self.records.len() >= cap {
                self.records.pop_front();
                self.dropped += 1;
            }
        }
        self.records.push_back(TraceRecord { at, event });
    }

    /// All retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Records evicted by the ring buffer (0 for unbounded traces).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// `true` when the trace records events: a trace is created
    /// enabled or disabled and stays so.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Registers the installed monitor suite's names so
    /// [`Violation`](TraceEvent::Violation) indices resolve at render
    /// time.
    pub fn set_monitor_names(&mut self, names: Vec<String>) {
        self.monitor_names = names;
    }

    /// The name registered for monitor `idx`, or `"?"` when no suite
    /// was registered.
    pub fn monitor_name(&self, idx: u32) -> &str {
        self.monitor_names
            .get(idx as usize)
            .map(String::as_str)
            .unwrap_or("?")
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Counts records matching a predicate on the event.
    pub fn count(&self, mut pred: impl FnMut(&TraceEvent) -> bool) -> usize {
        self.records.iter().filter(|r| pred(&r.event)).count()
    }

    /// Returns the number of completed executions of `task`.
    pub fn completions_of(&self, task: TaskId) -> usize {
        self.count(|e| matches!(e, TraceEvent::TaskEnd { task: t } if *t == task))
    }

    /// Returns the number of start attempts of `task`.
    pub fn attempts_of(&self, task: TaskId) -> usize {
        self.count(|e| matches!(e, TraceEvent::TaskStart { task: t, .. } if *t == task))
    }

    /// Returns the number of reboots (excluding the initial hard reset).
    pub fn reboots(&self) -> usize {
        self.count(|e| matches!(e, TraceEvent::Boot { reboot } if *reboot > 0))
    }

    /// Renders a human-readable timeline, one record per line.
    pub fn render(&self) -> String {
        use core::fmt::Write as _;

        let mut out = String::new();
        if self.dropped > 0 {
            let _ = writeln!(out, "({} older records evicted)", self.dropped);
        }
        for r in &self.records {
            let _ = write!(out, "[{}] ", r.at);
            let _ = match &r.event {
                TraceEvent::Boot { reboot } => writeln!(out, "boot #{reboot}"),
                TraceEvent::PowerFailure => writeln!(out, "POWER FAILURE"),
                TraceEvent::Charged { delay } => writeln!(out, "charged after {delay}"),
                TraceEvent::TaskStart { task, attempt } => {
                    writeln!(out, "start {task} (attempt {attempt})")
                }
                TraceEvent::TaskEnd { task } => writeln!(out, "end   {task}"),
                TraceEvent::Violation {
                    task,
                    monitor,
                    action,
                } => writeln!(
                    out,
                    "VIOLATION {} at {task} -> {action}",
                    self.monitor_name(*monitor)
                ),
                TraceEvent::ActionTaken { action } => writeln!(out, "action {action}"),
                TraceEvent::PathStart { path } => writeln!(out, "enter {path}"),
                TraceEvent::PathComplete { path } => writeln!(out, "done  {path}"),
                TraceEvent::PathSkipped { path } => writeln!(out, "skip  {path}"),
                TraceEvent::RunComplete => writeln!(out, "RUN COMPLETE"),
                TraceEvent::InstallWarning { message } => {
                    writeln!(out, "install warning: {message}")
                }
            };
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_drops_events() {
        let mut t = Trace::disabled();
        t.push(SimInstant::EPOCH, TraceEvent::RunComplete);
        assert!(t.is_empty());
    }

    #[test]
    fn counting_helpers() {
        let mut t = Trace::new();
        let task = TaskId(4);
        t.push(SimInstant::EPOCH, TraceEvent::Boot { reboot: 0 });
        t.push(
            SimInstant::EPOCH,
            TraceEvent::TaskStart { task, attempt: 1 },
        );
        t.push(SimInstant::EPOCH, TraceEvent::PowerFailure);
        t.push(SimInstant::EPOCH, TraceEvent::Boot { reboot: 1 });
        t.push(
            SimInstant::EPOCH,
            TraceEvent::TaskStart { task, attempt: 2 },
        );
        t.push(SimInstant::EPOCH, TraceEvent::TaskEnd { task });
        assert_eq!(t.attempts_of(task), 2);
        assert_eq!(t.completions_of(task), 1);
        assert_eq!(t.reboots(), 1);
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn render_mentions_key_events() {
        let mut t = Trace::new();
        t.push(SimInstant::EPOCH, TraceEvent::PowerFailure);
        t.push(
            SimInstant::from_micros(5),
            TraceEvent::ActionTaken {
                action: Action::SkipPath(PathId(1)),
            },
        );
        let s = t.render();
        assert!(s.contains("POWER FAILURE"));
        assert!(s.contains("skipPath(path#2)"));
    }

    #[test]
    fn bounded_trace_keeps_only_the_most_recent_records() {
        let mut t = Trace::bounded(3);
        for i in 0..10u64 {
            t.push(SimInstant::from_micros(i), TraceEvent::Boot { reboot: i });
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 7);
        let reboots: Vec<u64> = t
            .records()
            .map(|r| match r.event {
                TraceEvent::Boot { reboot } => reboot,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(reboots, [7, 8, 9]);
        assert!(t.render().contains("7 older records evicted"));
    }

    #[test]
    fn violation_indices_resolve_through_the_name_table() {
        let mut t = Trace::new();
        t.set_monitor_names(vec!["a_maxTries".to_string(), "b_MITD".to_string()]);
        t.push(
            SimInstant::EPOCH,
            TraceEvent::Violation {
                task: TaskId(0),
                monitor: 1,
                action: Action::SkipTask,
            },
        );
        assert_eq!(t.monitor_name(1), "b_MITD");
        assert_eq!(t.monitor_name(7), "?");
        assert!(t.render().contains("VIOLATION b_MITD"));
    }
}
