//! ARTEMIS — adaptable runtime monitoring for intermittent systems.
//!
//! This is the facade crate of the ARTEMIS reproduction (EuroSys '24,
//! Yıldız et al., DOI 10.1145/3627703.3650070). It re-exports the public
//! API of every workspace crate so applications can depend on a single
//! crate:
//!
//! - [`core`] — shared domain model (time, tasks, paths, events, actions,
//!   properties, traces);
//! - [`sim`] — the MSP430FR-style intermittent device simulator
//!   (FRAM/SRAM, capacitor, harvesters, persistent clock, peripherals);
//! - [`spec`] — the property specification language front end;
//! - [`ir`] — the intermediate state-machine language, the spec → FSM
//!   lowering, and C monitor code generation;
//! - [`monitor`] — the power-failure-resilient monitor engine;
//! - [`runtime`] — the ARTEMIS task-based intermittent runtime;
//! - [`fleet`] — fleet-scale sharded simulation of many devices across
//!   OS threads with deterministic per-device seed streams;
//! - [`mayfly`] — the Mayfly baseline runtime used by the evaluation;
//! - [`mod@bench`] — the benchmark application and experiment drivers.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for a complete program; the shape is:
//!
//! ```
//! use artemis::prelude::*;
//!
//! // 1. Describe the task graph.
//! let mut b = AppGraphBuilder::new();
//! let sense = b.task("sense");
//! let send = b.task("send");
//! b.path(&[sense, send]);
//! let app = b.build().unwrap();
//!
//! // 2. Write properties in the specification language.
//! let spec = artemis::spec::parse(
//!     "sense: { maxTries: 3 onFail: skipPath; }",
//! ).unwrap();
//!
//! // 3. Lower them to finite-state-machine monitors.
//! let monitors = artemis::ir::lower(&spec, &app).unwrap();
//! assert_eq!(monitors.machines().len(), 1);
//! ```

pub use artemis_bench as bench;
pub use artemis_core as core;
pub use artemis_fleet as fleet;
pub use artemis_ir as ir;
pub use artemis_monitor as monitor;
pub use artemis_runtime as runtime;
pub use artemis_spec as spec;
pub use intermittent_sim as sim;
pub use mayfly;

/// Convenience re-exports for application code.
pub mod prelude {
    pub use artemis_core::{
        Action, AppGraph, AppGraphBuilder, EventKind, MonitorEvent, OnFail, PathId, Property,
        PropertyKind, PropertySet, SimDuration, SimInstant, TaskId, Trace, TraceEvent,
    };
    pub use artemis_monitor::MonitorEngine;
    pub use artemis_runtime::{ArtemisRuntime, ArtemisRuntimeBuilder, RunOutcome, TaskCtx};
    pub use intermittent_sim::{
        Capacitor, Device, DeviceBuilder, Energy, Harvester, Interrupt, Peripheral, RunLimit,
        SimOutcome, Simulator,
    };
    pub use mayfly::{MayflyRuntime, MayflyRuntimeBuilder};
}
