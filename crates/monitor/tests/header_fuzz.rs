//! Armed-header mutation fuzz: after one delivery, random bytes of the
//! armed-delivery header (`monitor.header`: event, sequence number,
//! counts, done bitmap, verdict cells) are flipped and the device is
//! power-cycled, some cases with every commit group after the first
//! marked pending. The cold load on the next `monitorFinalize` and a
//! fresh `callMonitor` must each return `Ok` or a typed fault, never
//! panic — on both commit-group regimes
//! (the default capacitor fits every worklist in one group; a 1 nJ one
//! cuts one machine per group, so a flipped event re-derives its cut).

use artemis_core::app::{AppGraph, AppGraphBuilder, TaskId};
use artemis_core::event::MonitorEvent;
use artemis_core::time::SimInstant;
use artemis_monitor::{MonitorEngine, MonitorVerdict};
use intermittent_sim::capacitor::Capacitor;
use intermittent_sim::device::{DeviceBuilder, Interrupt};
use intermittent_sim::energy::Energy;
use proptest::prelude::*;

/// The Figure 4/6 task graph the Fig. 5 specification monitors.
fn health_app() -> AppGraph {
    let mut b = AppGraphBuilder::new();
    let body = b.task("bodyTemp");
    let avg = b.task_with_var("calcAvg", "avgTemp");
    let heart = b.task("heartRate");
    let accel = b.task("accel");
    let classify = b.task("classify");
    let mic = b.task("micSense");
    let filter = b.task("filter");
    let send = b.task("send");
    b.path(&[body, avg, heart, send]);
    b.path(&[accel, classify, send]);
    b.path(&[mic, filter, send]);
    b.build().unwrap()
}

/// A start or end event of task `task % 8` at `us`, with a monitored
/// value on ends.
fn event((start, task, us): (bool, u32, u64)) -> MonitorEvent {
    let task = TaskId(task % 8);
    let at = SimInstant::from_micros(us);
    if start {
        MonitorEvent::start(task, at)
    } else {
        MonitorEvent::end_with_data(task, at, 37.0)
    }
}

fn event_strategy() -> impl Strategy<Value = (bool, u32, u64)> {
    (any::<bool>(), 0u32..8, 0u64..1_000_000)
}

/// Fails the case unless `r` is `Ok` or a typed fault.
fn typed<T: core::fmt::Debug>(r: &Result<T, Interrupt>) -> bool {
    matches!(r, Ok(_) | Err(Interrupt::Fault(_)))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn mutated_armed_headers_fault_or_recover(
        first in event_strategy(),
        second in event_strategy(),
        flips in proptest::collection::vec((any::<u16>(), 1u8..=255), 1..6),
        loaded_part in any::<bool>(),
        pending in any::<bool>(),
        tiny in any::<bool>(),
    ) {
        let app = health_app();
        let b = DeviceBuilder::msp430fr5994().trace_disabled();
        let mut dev = if tiny {
            b.capacitor(Capacitor::with_budget(Energy::from_nano_joules(1))).build()
        } else {
            b.build()
        };
        let suite = artemis_ir::compile(artemis_spec::samples::FIGURE5, &app).unwrap();
        let engine = MonitorEngine::install(&mut dev, suite, &app).unwrap();
        engine.reset_monitor(&mut dev).unwrap();
        engine.call_monitor(&mut dev, 1, &event(first)).unwrap();

        let header = dev
            .fram()
            .allocations()
            .iter()
            .find(|a| a.label == "monitor.header")
            .map(|a| (a.addr, a.size))
            .unwrap();
        // Half the cases aim every flip at the part a cold load reads
        // (event through done bitmap), ahead of the verdict cells, one
        // per machine. The done bitmap starts after the 31-byte event,
        // `seq` and the two counts; half the cases first mark every
        // group after group 0 pending, as a crash between groups leaves
        // it, so the flipped delivery resumes.
        let loaded = header.1 - 9 * engine.machine_count();
        if pending {
            let done = header.0 + 31 + 8 + 2 + 4;
            let mut bitmap = vec![0; header.0 + loaded - done];
            bitmap[0] = 1;
            dev.nv_write_raw(done, &bitmap).unwrap();
        }
        let span = if loaded_part { loaded } else { header.1 };
        for &(at, mask) in &flips {
            let addr = header.0 + at as usize % span;
            let byte = dev.peek_raw(addr, 1)[0] ^ mask;
            dev.nv_write_raw(addr, &[byte]).unwrap();
        }
        dev.power_cycle();

        let finalized = engine.monitor_finalize(&mut dev);
        prop_assert!(typed(&finalized), "finalize {:?}, flips {:?}", finalized, flips);
        let delivered: Result<Vec<MonitorVerdict>, Interrupt> =
            engine.call_monitor(&mut dev, 2, &event(second));
        prop_assert!(typed(&delivered), "delivery {:?}, flips {:?}", delivered, flips);
    }
}
