//! Shared domain model for the ARTEMIS intermittent-monitoring framework.
//!
//! This crate holds the vocabulary types that every other crate in the
//! workspace speaks: simulated time, task/path identifiers and the
//! application graph, observable monitor events, corrective actions,
//! the property data model produced by the specification front end, and
//! the execution trace used by tests and the experiment harness.
//!
//! The types here are deliberately free of any simulator or runtime
//! machinery so that the language crates (`artemis-spec`, `artemis-ir`)
//! can be used standalone, e.g. to compile a property specification to
//! monitor code without instantiating a device.

pub mod action;
pub mod app;
pub mod error;
pub mod event;
pub mod property;
pub mod time;
pub mod trace;

pub use action::Action;
pub use app::{AppGraph, AppGraphBuilder, PathDecl, PathId, TaskDecl, TaskId};
pub use error::{BuildError, CoreError};
pub use event::{EventKind, MonitorEvent};
pub use property::{MaxAttempt, OnFail, Property, PropertyKind, PropertySet, TaskProperty};
pub use time::{SimDuration, SimInstant};
pub use trace::{Trace, TraceEvent};
