//! The energy gate's runtime allowance against the runtime it prices.
//!
//! `artemis_ir::analysis::RUNTIME_ATTEMPT_OVERHEAD` is the constant the
//! install-time energy analysis adds to every task attempt for the
//! runtime's own bookkeeping. Here a probe wrapped around the monitor
//! engine samples the runtime-billed energy at every `StartTask`
//! delivery, so each span between two consecutive ones is one attempt's
//! runtime work: the attempt-counter write, the finish commit with its
//! staged channel slots, the advance commit, the next dispatch and
//! sequence write. The largest such span of the continuous Fig. 14 run
//! and of generated apps must stay within the allowance.

use std::cell::RefCell;

use artemis::bench::health::{artemis_builder, benchmark_device, health_app, HEALTH_SPEC};
use artemis::bench::workload;
use artemis::ir::analysis::RUNTIME_ATTEMPT_OVERHEAD;
use artemis::monitor::{MonitorVerdict, Monitoring};
use artemis::prelude::*;
use artemis::sim::CostCategory;

/// Forwards every call to the engine, sampling the runtime-billed
/// energy at each `StartTask` delivery.
struct Probe {
    engine: MonitorEngine,
    samples: RefCell<Vec<Energy>>,
}

impl Monitoring for Probe {
    fn reset_monitor(&self, dev: &mut Device) -> Result<(), Interrupt> {
        self.engine.reset_monitor(dev)
    }

    fn monitor_finalize(&self, dev: &mut Device) -> Result<bool, Interrupt> {
        self.engine.monitor_finalize(dev)
    }

    fn call_monitor(
        &self,
        dev: &mut Device,
        seq: u64,
        event: &MonitorEvent,
    ) -> Result<Vec<MonitorVerdict>, Interrupt> {
        if event.kind == EventKind::StartTask {
            let runtime = dev.stats().energy(CostCategory::Runtime);
            self.samples.borrow_mut().push(runtime);
        }
        self.engine.call_monitor(dev, seq, event)
    }

    fn last_verdicts(&self, dev: &mut Device) -> Result<Vec<MonitorVerdict>, Interrupt> {
        self.engine.last_verdicts(dev)
    }

    fn on_path_restart(&self, dev: &mut Device, path: PathId) -> Result<(), Interrupt> {
        self.engine.on_path_restart(dev, path)
    }

    fn machine_count(&self) -> usize {
        self.engine.machine_count()
    }

    fn machine_names(&self) -> Vec<String> {
        self.engine.machine_names()
    }
}

/// Installs `rb` with `spec` behind a probe, runs it once on `dev`'s
/// continuous power and returns the largest runtime-billed span between
/// consecutive `StartTask` deliveries (the last one closed by the end
/// of the run).
fn largest_attempt(
    mut dev: Device,
    app: &AppGraph,
    rb: ArtemisRuntimeBuilder,
    spec: &str,
) -> Energy {
    let suite = artemis::ir::compile(spec, app).unwrap();
    let engine = MonitorEngine::install(&mut dev, suite, app).unwrap();
    let probe = Probe {
        engine,
        samples: RefCell::new(Vec::new()),
    };
    let mut rt = rb.install_with(&mut dev, probe).unwrap();
    assert!(rt.run_once(&mut dev, RunLimit::unbounded()).is_completed());
    let mut samples = rt.engine().samples.borrow().clone();
    assert!(
        !samples.is_empty(),
        "premise: the run delivers StartTask events"
    );
    samples.push(dev.stats().energy(CostCategory::Runtime));
    samples
        .windows(2)
        .map(|w| w[1].saturating_sub(w[0]))
        .max()
        .unwrap()
}

#[test]
fn runtime_attempts_stay_within_the_energy_gates_allowance() {
    let app = health_app();
    let mut largest = largest_attempt(
        benchmark_device(Harvester::Continuous),
        &app,
        artemis_builder(app.clone()),
        HEALTH_SPEC,
    );
    for seed in 0..40 {
        let w = workload::generate(seed);
        let attempt = largest_attempt(
            DeviceBuilder::msp430fr5994().trace_disabled().build(),
            &w.app,
            w.builder(),
            &w.spec,
        );
        largest = largest.max(attempt);
    }
    assert!(
        largest <= RUNTIME_ATTEMPT_OVERHEAD,
        "largest runtime-billed attempt {largest} exceeds the allowance {RUNTIME_ATTEMPT_OVERHEAD}"
    );
}
