//! The host-side reference semantics, and the external-monitor
//! deployment alternative built on it (paper §7, "Implementation
//! Alternatives").
//!
//! [`Reference`] runs a suite's state machines through the
//! tree-walking interpreter of `artemis_ir::exec` over host memory: no
//! FRAM, no journal, no billing. It is the one oracle every
//! differential test of the engine compares against, and the monitor
//! of [`RemoteMonitorEngine`]: monitors on a *separate,
//! continuously-powered* device, to which the intermittent node ships
//! every observable event over its radio and which sends the verdict
//! back.
//!
//! The paper predicts the trade-off: "Wireless communication is way
//! more energy-hungry compared to computation, which can result in
//! significant overheads" — in exchange for deploying and updating
//! monitors without touching the node. The remote engine makes that
//! trade-off measurable: the node pays radio time/energy per event (and
//! keeps *no* monitor state in its FRAM), while the remote side — a
//! [`Reference`], since it is continuously powered — executes the same
//! state machines.
//!
//! Reliability model: event delivery is at-least-once (the node
//! retransmits after a power failure); the reference deduplicates by
//! the caller's sequence number, exactly like the local engine, so
//! monitor semantics are identical and only the cost profile changes.

use std::cell::RefCell;

use artemis_core::app::{AppGraph, PathId};
use artemis_core::event::MonitorEvent;
use artemis_ir::exec::{ir_event, step, MachineState};
use artemis_ir::expr::Value;
use artemis_ir::fsm::MonitorSuite;
use artemis_ir::validate::check_source;
use artemis_spec::Diagnostic;
use intermittent_sim::device::{CostCategory, Device, Interrupt};

use crate::{InstallError, MonitorVerdict, Monitoring};

/// Bytes on the wire for one event message (kind, task, timestamp,
/// depData, path, sequence number).
const EVENT_MSG_BYTES: usize = 32;
/// Bytes on the wire for a verdict response.
const VERDICT_MSG_BYTES: usize = 16;
/// Bytes for a control message (reset / path restart).
const CONTROL_MSG_BYTES: usize = 8;

/// The reference semantics of a monitor suite, held in host memory.
///
/// Events go in with their sequence number and the energy reading
/// their guards see; verdicts and every machine's `(state, vars)` come
/// out. A delivery under the last delivered sequence number returns
/// that delivery's verdicts without stepping any machine — the
/// exactly-once contract of [`Monitoring::call_monitor`]. Host memory
/// survives simulated power failures, so nothing here ever needs
/// finalizing.
pub struct Reference {
    suite: MonitorSuite,
    /// Task names by dense task id, which the interpreter matches
    /// triggers against.
    task_names: Vec<String>,
    /// One state per machine, in suite order.
    machines: Vec<MachineState>,
    /// The last delivered sequence number and its verdicts.
    last: Option<(u64, Vec<MonitorVerdict>)>,
}

impl Reference {
    /// Checks `suite` against `app` as the engine's install does
    /// ([`artemis_ir::validate::check_source`]), and starts every
    /// machine in its initial `(state, vars)`.
    pub fn new(suite: MonitorSuite, app: &AppGraph) -> Result<Self, Diagnostic> {
        check_source(&suite, app)?;
        Ok(Reference {
            machines: suite.machines().iter().map(MachineState::initial).collect(),
            task_names: app.tasks().iter().map(|t| t.name.clone()).collect(),
            suite,
            last: None,
        })
    }

    /// Delivers `event` under `seq`, its energy guards reading
    /// `energy_nj`, and returns the verdicts of every machine that
    /// reported a violation. A machine whose `Path:` qualifier names
    /// another path than the event's is not stepped. Redelivering the
    /// last sequence number returns its verdicts again and steps
    /// nothing.
    pub fn deliver(&mut self, seq: u64, event: &MonitorEvent, energy_nj: u64) -> &[MonitorVerdict] {
        if !matches!(self.last, Some((last, _)) if last == seq) {
            let task = self.task_names.get(event.task.index());
            let ir = ir_event(event, task.map_or("", String::as_str), energy_nj);
            let mut verdicts = Vec::new();
            let machines = self.suite.machines().iter().zip(&mut self.machines);
            for (machine_index, (machine, state)) in machines.enumerate() {
                if let (Some(mp), Some(ep)) = (machine.path, event.path) {
                    if mp != ep.number() {
                        continue;
                    }
                }
                // Evaluation errors cannot occur on validated machines;
                // like the engine, treat them as accept-silently.
                if let Ok(Some(fail)) = step(machine, state, &ir) {
                    let path = fail.path.or(machine.path).unwrap_or(0);
                    verdicts.push(MonitorVerdict {
                        machine_index,
                        action: fail.action.action(PathId(path.saturating_sub(1))),
                    });
                }
            }
            self.last = Some((seq, verdicts));
        }
        self.last_verdicts()
    }

    /// The verdicts of the last delivery; none before the first one or
    /// after a [`Reference::reset`].
    pub(crate) fn last_verdicts(&self) -> &[MonitorVerdict] {
        self.last.as_ref().map_or(&[], |(_, v)| v)
    }

    /// The sequence number of the last delivery, if any.
    pub(crate) fn last_seq(&self) -> Option<u64> {
        self.last.as_ref().map(|(seq, _)| *seq)
    }

    /// Re-initialises every machine and forgets the last delivery
    /// (Figure 8, `resetMonitor`).
    pub fn reset(&mut self) {
        for (machine, state) in self.suite.machines().iter().zip(&mut self.machines) {
            state.reset(machine);
        }
        self.last = None;
    }

    /// Re-initialises the machines a restart of `path` affects: those
    /// flagged `reset_on_path_restart` whose `Path:` is `path`.
    pub fn restart_path(&mut self, path: PathId) {
        for (machine, state) in self.suite.machines().iter().zip(&mut self.machines) {
            if machine.reset_on_path_restart && machine.path == Some(path.number()) {
                state.reset(machine);
            }
        }
    }

    /// Every machine's `(state, vars)`, in suite order — the shape of
    /// [`crate::MonitorEngine::snapshot`].
    pub fn snapshot(&self) -> Vec<(u32, Vec<Value>)> {
        self.machines
            .iter()
            .map(|m| (m.state, m.vars.clone()))
            .collect()
    }

    /// The suite this reference runs.
    pub(crate) fn suite(&self) -> &MonitorSuite {
        &self.suite
    }
}

/// Monitors deployed on an external, continuously-powered device: a
/// [`Reference`] the node reaches over its radio.
pub struct RemoteMonitorEngine {
    reference: RefCell<Reference>,
}

impl RemoteMonitorEngine {
    /// Validates the suite and "deploys" it to the external device.
    ///
    /// Nothing is allocated in the node's FRAM — that is the point of
    /// this deployment (and visible in Table-2-style reports) — and no
    /// delivery rides the runtime's record (`Device::set_riders`): a
    /// transmit lands it first.
    pub fn install(
        dev: &mut Device,
        suite: MonitorSuite,
        app: &AppGraph,
    ) -> Result<Self, InstallError> {
        dev.set_riders(Vec::new());
        Ok(RemoteMonitorEngine {
            reference: RefCell::new(Reference::new(suite, app)?),
        })
    }
}

impl Monitoring for RemoteMonitorEngine {
    fn reset_monitor(&self, dev: &mut Device) -> Result<(), Interrupt> {
        // A control message over the radio.
        dev.billed(CostCategory::Monitor, |dev| dev.transmit(CONTROL_MSG_BYTES))?;
        self.reference.borrow_mut().reset();
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
        // exactly-once in effect). The remote device steps for free: it
        // is mains-powered.
        dev.billed(CostCategory::Monitor, |dev| {
            dev.transmit(EVENT_MSG_BYTES)?;
            dev.receive(VERDICT_MSG_BYTES)
        })?;
        let mut reference = self.reference.borrow_mut();
        Ok(reference.deliver(seq, event, energy_nj).to_vec())
    }

    fn last_verdicts(&self, _dev: &mut Device) -> Result<Vec<MonitorVerdict>, Interrupt> {
        Ok(self.reference.borrow().last_verdicts().to_vec())
    }

    fn on_path_restart(&self, dev: &mut Device, path: PathId) -> Result<(), Interrupt> {
        dev.billed(CostCategory::Monitor, |dev| dev.transmit(CONTROL_MSG_BYTES))?;
        self.reference.borrow_mut().restart_path(path);
        Ok(())
    }

    fn machine_count(&self) -> usize {
        self.reference.borrow().suite().len()
    }

    fn machine_names(&self) -> Vec<String> {
        let reference = self.reference.borrow();
        reference
            .suite()
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

#[cfg(test)]
mod tests {
    use super::*;
    use artemis_core::action::Action;
    use artemis_core::app::{AppGraphBuilder, TaskId};
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

    /// Counting machines: three on `accel` — on path 1 persistent and
    /// resettable, on path 2 resettable — and one on `send`.
    fn counting_reference() -> Reference {
        let app = app();
        let counter = |name: &str, task: &str, header: &str| {
            format!(
                "machine {name} task {task} {header} {{ var n: int = 0; state S initial; \
                 on startTask({task}) from S to S {{ n := (n + 1); }}; }}\n"
            )
        };
        let src = counter("kept", "accel", "path 1 persistent")
            + &counter("bound", "accel", "path 1 resettable")
            + &counter("other", "accel", "path 2 resettable")
            + &counter("sent", "send", "persistent");
        let suite = artemis_ir::parse::parse_suite(&src).unwrap();
        Reference::new(suite, &app).unwrap()
    }

    /// Steps every machine of [`counting_reference`] once.
    fn step_counters(reference: &mut Reference) {
        reference.deliver(1, &MonitorEvent::start(TaskId(0), t(0)), 0);
        reference.deliver(2, &MonitorEvent::start(TaskId(1), t(1)), 0);
        let counts = reference.snapshot().into_iter().map(|(_, vars)| vars[0]);
        assert!(counts.into_iter().all(|n| n == Value::Int(1)));
    }

    #[test]
    fn reference_redelivery_returns_stored_verdicts_without_stepping() {
        let app = app();
        let suite = artemis_ir::compile("accel { maxTries: 1 onFail: skipPath; }", &app).unwrap();
        let mut reference = Reference::new(suite, &app).unwrap();
        let start = |us| MonitorEvent::start(TaskId(0), t(us));
        assert!(reference.deliver(1, &start(0), 0).is_empty());
        let fired = reference.deliver(2, &start(1), 0).to_vec();
        assert_eq!(fired.len(), 1);
        let state = reference.snapshot();
        for _ in 0..3 {
            assert_eq!(reference.deliver(2, &start(1), 0), fired.as_slice());
            assert_eq!(reference.snapshot(), state, "a redelivery stepped");
        }
        assert_eq!(reference.last_verdicts(), fired.as_slice());
    }

    #[test]
    fn reference_reset_restores_every_initial_state() {
        let mut reference = counting_reference();
        let initial = reference.snapshot();
        step_counters(&mut reference);
        reference.reset();
        assert_eq!(reference.snapshot(), initial);
        assert!(reference.last_verdicts().is_empty());
    }

    #[test]
    fn reference_path_restart_resets_only_flagged_machines_of_that_path() {
        let mut reference = counting_reference();
        step_counters(&mut reference);
        let n = |r: &Reference| -> Vec<Value> {
            r.snapshot().into_iter().map(|(_, vars)| vars[0]).collect()
        };
        let (zero, one) = (Value::Int(0), Value::Int(1));
        // One-based path 1 is `PathId(0)`.
        reference.restart_path(PathId(0));
        assert_eq!(n(&reference), [one, zero, one, one]);
        reference.restart_path(PathId(1));
        assert_eq!(n(&reference), [one, zero, zero, one]);
    }

    /// A seeded walk over the Fig. 5 app's paths: per task, 1–4 starts
    /// and an end carrying a value when the task declares one, with
    /// gaps from 1 ms to 10 min so time-guarded properties take both
    /// branches.
    fn figure5_walk(app: &AppGraph, mut seed: u64, n: usize) -> Vec<MonitorEvent> {
        let mut next = move |below: u64| {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % below
        };
        let mut time = 0u64;
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let p = next(app.paths().len() as u64) as usize;
            for &task in &app.paths()[p].tasks {
                for _ in 0..=next(4) {
                    time += 1_000 + next(600_000_000);
                    out.push(MonitorEvent::start(task, t(time)).on_path(PathId(p as u32)));
                }
                time += 1_000 + next(600_000_000);
                let end = match app.tasks()[task.index()].monitored_var {
                    Some(_) => MonitorEvent::end_with_data(task, t(time), 30.0 + next(16) as f64),
                    None => MonitorEvent::end(task, t(time)),
                };
                out.push(end.on_path(PathId(p as u32)));
            }
        }
        out.truncate(n);
        out
    }

    #[test]
    fn reference_remote_and_compiled_engines_agree_on_a_figure5_walk() {
        let app = artemis_bench::health::health_app();
        let suite = artemis_ir::compile(artemis_bench::health::HEALTH_SPEC, &app).unwrap();
        let mut reference = Reference::new(suite.clone(), &app).unwrap();
        let mut remote_dev = DeviceBuilder::msp430fr5994().build();
        let remote = RemoteMonitorEngine::install(&mut remote_dev, suite.clone(), &app).unwrap();
        remote.reset_monitor(&mut remote_dev).unwrap();
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let engine = crate::MonitorEngine::install(&mut dev, suite, &app).unwrap();
        engine.reset_monitor(&mut dev).unwrap();

        let mut fired = 0;
        for (i, e) in figure5_walk(&app, 5, 2_000).iter().enumerate() {
            let seq = i as u64 + 1;
            let expected = reference.deliver(seq, e, dev.energy_level().as_nano_joules());
            let compiled = engine.call_monitor(&mut dev, seq, e).unwrap();
            assert_eq!(compiled, expected, "compiled engine, seq {seq}");
            let remote_verdicts = remote.call_monitor(&mut remote_dev, seq, e).unwrap();
            assert_eq!(remote_verdicts, expected, "remote engine, seq {seq}");
            fired += expected.len();
        }
        assert!(fired > 10, "the walk fired only {fired} verdicts");
        assert_eq!(engine.snapshot(&dev), reference.snapshot());
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
