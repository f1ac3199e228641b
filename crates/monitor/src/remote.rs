//! The external-monitor deployment alternative (paper §7,
//! "Implementation Alternatives"): monitors run on a *separate,
//! continuously-powered* device; the intermittent node ships every
//! observable event over its radio and receives the verdict back.
//!
//! The paper predicts the trade-off: "Wireless communication is way
//! more energy-hungry compared to computation, which can result in
//! significant overheads" — in exchange for deploying and updating
//! monitors without touching the node. This module makes that trade-off
//! measurable: the node pays radio time/energy per event (and keeps
//! *no* monitor state in its FRAM), while the remote side — modelled
//! host-side, since it is continuously powered — executes the same
//! state machines through the reference interpreter.
//!
//! Reliability model: event delivery is at-least-once (the node
//! retransmits after a power failure); the remote deduplicates by the
//! caller's sequence number, exactly like the local engine, so monitor
//! semantics are identical and only the cost profile changes.

use std::cell::RefCell;
use std::collections::HashMap;

use artemis_core::action::Action;
use artemis_core::app::{AppGraph, PathId};
use artemis_core::event::MonitorEvent;
use artemis_ir::exec::{step, IrEvent, MachineState};
use artemis_ir::expr::EventCtx;
use artemis_ir::fsm::MonitorSuite;
use artemis_ir::validate::validate_strict;
use intermittent_sim::device::{CostCategory, Device, Interrupt};

use crate::{decode_action, encode_action};
use crate::{InstallError, MonitorVerdict, Monitoring};

/// Bytes on the wire for one event message (kind, task, timestamp,
/// depData, path, sequence number).
const EVENT_MSG_BYTES: usize = 32;
/// Bytes on the wire for a verdict response.
const VERDICT_MSG_BYTES: usize = 16;
/// Bytes for a control message (reset / path restart).
const CONTROL_MSG_BYTES: usize = 8;

struct RemoteState {
    /// One state per machine of the engine's suite, in suite order.
    machines: Vec<MachineState>,
    /// Last processed sequence number and its verdicts (dedup).
    last: Option<(u64, Vec<MonitorVerdict>)>,
}

/// Monitors deployed on an external, continuously-powered device.
pub struct RemoteMonitorEngine {
    suite: MonitorSuite,
    task_names: Vec<String>,
    state: RefCell<RemoteState>,
    /// Verdict cache by sequence number for re-queries.
    replies: RefCell<HashMap<u64, Vec<MonitorVerdict>>>,
}

impl RemoteMonitorEngine {
    /// Validates the suite and "deploys" it to the external device.
    ///
    /// Nothing is allocated in the node's FRAM — that is the point of
    /// this deployment (and visible in Table-2-style reports).
    pub fn install(
        _dev: &mut Device,
        suite: MonitorSuite,
        app: &AppGraph,
    ) -> Result<Self, InstallError> {
        for m in suite.machines() {
            validate_strict(m).map_err(InstallError::Invalid)?;
            for task in m.observed_tasks() {
                if app.task_by_name(task).is_none() {
                    return Err(InstallError::UnknownTask {
                        machine: m.name.clone(),
                        task: task.to_string(),
                    });
                }
            }
        }
        let machines = suite.machines().iter().map(MachineState::initial).collect();
        Ok(RemoteMonitorEngine {
            suite,
            task_names: app.tasks().iter().map(|t| t.name.clone()).collect(),
            state: RefCell::new(RemoteState {
                machines,
                last: None,
            }),
            replies: RefCell::new(HashMap::new()),
        })
    }

    /// Steps the remote machines (free for the node: the remote device
    /// is mains-powered).
    fn remote_step(&self, seq: u64, event: &MonitorEvent, energy_nj: u64) -> Vec<MonitorVerdict> {
        let mut state = self.state.borrow_mut();
        if let Some((last_seq, verdicts)) = &state.last {
            if *last_seq == seq {
                return verdicts.clone();
            }
        }
        let task_name = self
            .task_names
            .get(event.task.index())
            .cloned()
            .unwrap_or_default();
        let mut verdicts = Vec::new();
        let machines = self.suite.machines().iter().zip(&mut state.machines);
        for (idx, (machine, mstate)) in machines.enumerate() {
            // The `Path:` qualifier filter, as in the local engine.
            if let (Some(mp), Some(ep)) = (machine.path, event.path) {
                if mp != ep.number() {
                    continue;
                }
            }
            let ir_event = IrEvent {
                kind: event.kind,
                task: &task_name,
                ctx: EventCtx {
                    time_us: event.timestamp.as_micros(),
                    dep_data: event.dep_data,
                    energy_nj,
                },
            };
            if let Ok(Some(fail)) = step(machine, mstate, &ir_event) {
                let encoded = encode_action(fail.action, fail.path.or(machine.path));
                if let Some(action) = decode_action(encoded) {
                    verdicts.push(MonitorVerdict {
                        machine_index: idx,
                        machine: machine.name.clone(),
                        action,
                    });
                }
            }
        }
        state.last = Some((seq, verdicts.clone()));
        self.replies.borrow_mut().insert(seq, verdicts.clone());
        verdicts
    }
}

impl Monitoring for RemoteMonitorEngine {
    fn reset_monitor(&self, dev: &mut Device) -> Result<(), Interrupt> {
        // A control message over the radio.
        dev.billed(CostCategory::Monitor, |dev| dev.transmit(CONTROL_MSG_BYTES))?;
        let mut state = self.state.borrow_mut();
        for (machine, mstate) in self.suite.machines().iter().zip(&mut state.machines) {
            mstate.reset(machine);
        }
        state.last = None;
        self.replies.borrow_mut().clear();
        Ok(())
    }

    fn monitor_finalize(&self, _dev: &mut Device) -> Result<bool, Interrupt> {
        // Nothing to finalise on the node: monitor state lives remotely.
        Ok(false)
    }

    fn call_monitor(
        &self,
        dev: &mut Device,
        seq: u64,
        event: &MonitorEvent,
    ) -> Result<Vec<MonitorVerdict>, Interrupt> {
        let energy_nj = dev.energy_level().as_nano_joules();
        // Pay for the radio round-trip FIRST: if the transmit browns
        // out, the event was not delivered and the re-attempt
        // retransmits under the same sequence number (dedup makes this
        // exactly-once in effect).
        dev.billed(CostCategory::Monitor, |dev| {
            dev.transmit(EVENT_MSG_BYTES)?;
            dev.receive(VERDICT_MSG_BYTES)
        })?;
        Ok(self.remote_step(seq, event, energy_nj))
    }

    fn last_verdicts(&self, _dev: &mut Device) -> Result<Vec<MonitorVerdict>, Interrupt> {
        Ok(self
            .state
            .borrow()
            .last
            .as_ref()
            .map(|(_, v)| v.clone())
            .unwrap_or_default())
    }

    fn on_path_restart(&self, dev: &mut Device, path: PathId) -> Result<(), Interrupt> {
        dev.billed(CostCategory::Monitor, |dev| dev.transmit(CONTROL_MSG_BYTES))?;
        let mut state = self.state.borrow_mut();
        for (machine, mstate) in self.suite.machines().iter().zip(&mut state.machines) {
            if machine.reset_on_path_restart && machine.path == Some(path.number()) {
                mstate.reset(machine);
            }
        }
        Ok(())
    }

    fn machine_count(&self) -> usize {
        self.suite.len()
    }

    fn machine_names(&self) -> Vec<String> {
        self.suite
            .machines()
            .iter()
            .map(|m| m.name.clone())
            .collect()
    }
}

/// A placeholder allowing runtimes with no monitoring at all (ablation
/// baseline: the bare intermittent runtime).
pub struct NoMonitoring;

impl Monitoring for NoMonitoring {
    fn reset_monitor(&self, _dev: &mut Device) -> Result<(), Interrupt> {
        Ok(())
    }

    fn monitor_finalize(&self, _dev: &mut Device) -> Result<bool, Interrupt> {
        Ok(false)
    }

    fn call_monitor(
        &self,
        _dev: &mut Device,
        _seq: u64,
        _event: &MonitorEvent,
    ) -> Result<Vec<MonitorVerdict>, Interrupt> {
        Ok(Vec::new())
    }

    fn last_verdicts(&self, _dev: &mut Device) -> Result<Vec<MonitorVerdict>, Interrupt> {
        Ok(Vec::new())
    }

    fn on_path_restart(&self, _dev: &mut Device, _path: PathId) -> Result<(), Interrupt> {
        Ok(())
    }

    fn machine_count(&self) -> usize {
        0
    }
}

// Keep `Action` referenced for rustdoc links.
const _: Option<Action> = None;

#[cfg(test)]
mod tests {
    use super::*;
    use artemis_core::app::AppGraphBuilder;
    use artemis_core::time::SimInstant;
    use intermittent_sim::device::DeviceBuilder;

    fn app() -> AppGraph {
        let mut b = AppGraphBuilder::new();
        let a = b.task("accel");
        let s = b.task("send");
        b.path(&[a, s]);
        b.build().unwrap()
    }

    fn t(us: u64) -> SimInstant {
        SimInstant::from_micros(us)
    }

    #[test]
    fn remote_verdicts_match_local_semantics() {
        let app = app();
        let suite = artemis_ir::compile("accel { maxTries: 2 onFail: skipPath; }", &app).unwrap();
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let remote = RemoteMonitorEngine::install(&mut dev, suite, &app).unwrap();
        remote.reset_monitor(&mut dev).unwrap();
        let accel = app.task_by_name("accel").unwrap();

        assert!(remote
            .call_monitor(&mut dev, 1, &MonitorEvent::start(accel, t(0)))
            .unwrap()
            .is_empty());
        assert!(remote
            .call_monitor(&mut dev, 2, &MonitorEvent::start(accel, t(1)))
            .unwrap()
            .is_empty());
        let v = remote
            .call_monitor(&mut dev, 3, &MonitorEvent::start(accel, t(2)))
            .unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].action, Action::SkipPath(PathId(0)));
    }

    #[test]
    fn remote_dedups_by_sequence_number() {
        let app = app();
        let suite = artemis_ir::compile(
            "send { collect: 2 dpTask: accel onFail: restartPath; }",
            &app,
        )
        .unwrap();
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let remote = RemoteMonitorEngine::install(&mut dev, suite, &app).unwrap();
        let accel = app.task_by_name("accel").unwrap();
        let send = app.task_by_name("send").unwrap();

        // Retransmissions of the same end event count once.
        for _ in 0..3 {
            remote
                .call_monitor(&mut dev, 9, &MonitorEvent::end(accel, t(5)))
                .unwrap();
        }
        remote
            .call_monitor(&mut dev, 10, &MonitorEvent::end(accel, t(6)))
            .unwrap();
        let v = remote
            .call_monitor(&mut dev, 11, &MonitorEvent::start(send, t(7)))
            .unwrap();
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn remote_uses_radio_energy_not_fram() {
        use intermittent_sim::fram::MemOwner;

        let app = app();
        let suite = artemis_ir::compile("accel { maxTries: 5 onFail: skipPath; }", &app).unwrap();
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let before_fram = dev.fram().used_by(MemOwner::Monitor);
        let remote = RemoteMonitorEngine::install(&mut dev, suite, &app).unwrap();
        assert_eq!(
            dev.fram().used_by(MemOwner::Monitor),
            before_fram,
            "external monitoring must not consume node FRAM"
        );

        let accel = app.task_by_name("accel").unwrap();
        let before = dev.stats().energy(CostCategory::Monitor);
        remote
            .call_monitor(&mut dev, 1, &MonitorEvent::start(accel, t(0)))
            .unwrap();
        let spent = dev.stats().energy(CostCategory::Monitor) - before;
        // The radio round-trip dwarfs any local monitor step (paper §7).
        assert!(
            spent.as_micro_joules() > 100,
            "expected radio-scale energy, got {spent}"
        );
    }

    #[test]
    fn no_monitoring_is_free() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let none = NoMonitoring;
        let before = dev.stats().consumed;
        none.reset_monitor(&mut dev).unwrap();
        none.call_monitor(
            &mut dev,
            1,
            &MonitorEvent::start(artemis_core::app::TaskId(0), t(0)),
        )
        .unwrap();
        assert_eq!(dev.stats().consumed, before);
        assert_eq!(none.machine_count(), 0);
    }
}
