//! An MSP430FR-style intermittent-device simulator.
//!
//! The ARTEMIS paper evaluates on an MSP430FR5994 LaunchPad powered by
//! RF energy harvesting (Powercast TX91501 + P2110). This crate replaces
//! that testbed with a deterministic software model that preserves the
//! behaviours the evaluation depends on:
//!
//! - **Nonvolatile vs volatile state** — a byte-addressed FRAM arena
//!   ([`fram::Fram`]) with typed [`fram::NvCell`] handles survives power
//!   failures; SRAM contents are modelled as lost on every failure.
//! - **Crash-atomic commits** — a redo [`journal::Journal`] makes
//!   multi-word FRAM updates all-or-nothing, no matter where a power
//!   failure lands (exercised exhaustively by fault-injection tests).
//! - **Energy** — a [`capacitor::Capacitor`] holds ½·C·V² energy between
//!   the on/off voltage thresholds; every simulated operation draws from
//!   it; crossing the off threshold raises [`Interrupt::PowerFailure`].
//! - **Charging** — pluggable [`harvester::Harvester`] models produce
//!   the outage duration after each failure: fixed delay (the paper's
//!   x-axis in Figures 12 and 16), constant harvest power, a recorded
//!   trace, or a seeded stochastic model.
//! - **Persistent timekeeping** — the [`clock::PersistentClock`] keeps
//!   counting through outages, exactly like the timekeeping hardware the
//!   paper assumes, so charging delays are visible to timeliness
//!   properties.
//! - **Peripherals** — temperature ADC, accelerometer, microphone, and
//!   BLE radio models with per-operation time/energy costs in the
//!   MSP430FR ballpark ([`mcu::CostModel`]).
//!
//! Execution uses *typed unwinding*: device operations return
//! `Result<_, Interrupt>`, and a power failure propagates as an error up
//! to the [`simulator::Simulator`] loop, which charges the capacitor,
//! advances the clock, and reboots the system — mirroring how a real
//! intermittent runtime re-enters `main` (paper Figure 8).

pub mod capacitor;
pub mod clock;
pub mod device;
pub mod energy;
pub mod fram;
pub mod harvester;
pub mod journal;
pub mod mcu;
pub mod peripherals;
pub mod simulator;

pub use capacitor::Capacitor;
pub use clock::PersistentClock;
pub use device::{
    AllowanceStats, CostCategory, Device, DeviceBuilder, DeviceStats, Fault, Interrupt, MemOwner,
};
pub use energy::Energy;
pub use fram::{Fram, NvCell, NvData, Sram};
pub use harvester::Harvester;
pub use journal::{Journal, TxWriter};
pub use mcu::{CostModel, EnergyProfile, OpCycles};
pub use peripherals::{Peripheral, PeripheralBank, ValueSource};
pub use simulator::{IntermittentSystem, RunLimit, SimOutcome, Simulator};
