//! Observable monitor events delivered by the runtime.
//!
//! The runtime feeds each application-specific monitor a stream of
//! primitive events — the start and end of task executions, each stamped
//! with the persistent clock (paper §3.4 and Figure 8's
//! `MonitorEvent_t`). All properties are defined on top of this stream.

use crate::app::{PathId, TaskId};
use crate::time::SimInstant;

/// The kind of a primitive observable event.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EventKind {
    /// Delivered immediately before a task body runs (and again on every
    /// re-attempt after a power failure).
    StartTask,
    /// Delivered after a task body completed and its effects committed.
    EndTask,
}

/// One observable event: `(kind, task, timestamp, optional data)`.
///
/// Mirrors the paper's persistent `MonitorEvent_t` structure: the event
/// kind, the timestamp taken from persistent timekeeping, the task the
/// event concerns, and — for `EndTask` events of tasks that declared a
/// monitored variable — the value of that variable (`event.depData` in
/// Figure 9), consumed by `dpData` range properties.
///
/// # Examples
///
/// ```
/// use artemis_core::{EventKind, MonitorEvent, SimInstant, TaskId};
///
/// let e = MonitorEvent::start(TaskId(3), SimInstant::from_micros(42));
/// assert_eq!(e.kind, EventKind::StartTask);
/// assert!(e.dep_data.is_none());
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MonitorEvent {
    /// Start or end.
    pub kind: EventKind,
    /// The task this event concerns.
    pub task: TaskId,
    /// Persistent-clock timestamp of the event.
    pub timestamp: SimInstant,
    /// Monitored output value, present only on `EndTask` of tasks that
    /// declared a monitored variable.
    pub dep_data: Option<f64>,
    /// The path the runtime was executing when the event occurred.
    ///
    /// Properties qualified with `Path:` (the paper's device for tasks
    /// on *merged* paths, like the benchmark's `send`) are checked only
    /// against events from their governing path; `None` disables the
    /// filter (events from test harnesses).
    pub path: Option<PathId>,
}

impl MonitorEvent {
    /// Creates a `StartTask` event.
    pub fn start(task: TaskId, timestamp: SimInstant) -> Self {
        MonitorEvent {
            kind: EventKind::StartTask,
            task,
            timestamp,
            dep_data: None,
            path: None,
        }
    }

    /// Creates an `EndTask` event without monitored data.
    pub fn end(task: TaskId, timestamp: SimInstant) -> Self {
        MonitorEvent {
            kind: EventKind::EndTask,
            task,
            timestamp,
            dep_data: None,
            path: None,
        }
    }

    /// Creates an `EndTask` event carrying a monitored variable value.
    pub fn end_with_data(task: TaskId, timestamp: SimInstant, value: f64) -> Self {
        MonitorEvent {
            kind: EventKind::EndTask,
            task,
            timestamp,
            dep_data: Some(value),
            path: None,
        }
    }

    /// Attaches the executing path (used by the runtime for the
    /// `Path:`-qualifier filtering of merged-path properties).
    pub fn on_path(mut self, path: PathId) -> Self {
        self.path = Some(path);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_fields() {
        let t = SimInstant::from_micros(7);
        let s = MonitorEvent::start(TaskId(1), t);
        assert_eq!(
            (s.kind, s.task, s.timestamp),
            (EventKind::StartTask, TaskId(1), t)
        );

        let e = MonitorEvent::end_with_data(TaskId(1), t, 36.6);
        assert_eq!((e.kind, e.task), (EventKind::EndTask, TaskId(1)));
        assert_eq!(e.dep_data, Some(36.6));

        let plain = MonitorEvent::end(TaskId(1), t);
        assert_eq!(plain.dep_data, None);
    }
}
