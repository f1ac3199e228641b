//! Exhaustive crash-point exploration: instead of sampling capacitor
//! budgets, every FRAM write op of a run is, in turn, replaced by a
//! power failure (`Device::fail_before_write`), and every write op of
//! the recovery that follows is replaced by a second one. After each
//! schedule the run must end with exactly the verdicts and the
//! FRAM-visible machine state (`snapshot`) of the continuous-power
//! interpreter run — the formal criterion that an execution interrupted
//! at any FRAM write is indistinguishable from a continuous one.
//!
//! The explorer covers the Fig. 5 suite and the every-byte-flips suite;
//! a suite whose group 0 logs several verdicts in one delivery, so the
//! cells ride the header run; and the minimal sample spec. Each runs on two continuously
//! powered devices whose capacitor budgets size the commit groups: the
//! default 1.6 mJ one, where every worklist is one group, and a 1 nJ
//! one, where every machine is a group of its own.

use std::sync::Arc;

use artemis_core::app::{AppGraph, AppGraphBuilder, PathId, TaskId};
use artemis_core::event::MonitorEvent;
use artemis_core::time::SimInstant;
use artemis_ir::expr::Value;
use artemis_ir::{CompiledSuite, MonitorSuite};
use artemis_monitor::{ExecMode, InstallOptions, MonitorEngine, MonitorVerdict};
use intermittent_sim::capacitor::Capacitor;
use intermittent_sim::device::{Device, DeviceBuilder};
use intermittent_sim::energy::Energy;
use intermittent_sim::simulator::{RunLimit, Simulator};
use intermittent_sim::MemOwner;

/// Per-event verdicts plus the final FRAM-visible machine state.
type Outcome = (Vec<Vec<MonitorVerdict>>, Vec<(u32, Vec<Value>)>);

/// One explored workload: a suite, its app, and an event stream.
struct Workload {
    app: AppGraph,
    suite: MonitorSuite,
    compiled: Arc<CompiledSuite>,
    events: Vec<MonitorEvent>,
}

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

/// The Fig. 5 suite over a stream that trips its collect, MITD,
/// maxDuration and dpData properties across all three paths.
fn figure5() -> Workload {
    let app = health_app();
    let task = |name| app.task_by_name(name).unwrap();
    let (send, accel, mic, avg) = (
        task("send"),
        task("accel"),
        task("micSense"),
        task("calcAvg"),
    );
    let at = |ms: u64| SimInstant::from_micros(ms * 1_000);
    let on = |e: MonitorEvent, p: u32| e.on_path(PathId(p));
    let events = vec![
        on(MonitorEvent::start(send, at(1)), 1),
        on(MonitorEvent::start(accel, at(2)), 1),
        on(MonitorEvent::end(accel, at(3)), 1),
        on(MonitorEvent::start(send, at(4)), 1),
        on(MonitorEvent::end(send, at(300)), 1),
        on(MonitorEvent::start(mic, at(301)), 2),
        on(MonitorEvent::end(mic, at(302)), 2),
        on(MonitorEvent::start(send, at(303)), 2),
        on(MonitorEvent::start(avg, at(304)), 0),
        on(MonitorEvent::end_with_data(avg, at(305), 40.0), 0),
    ];
    let suite = artemis_ir::compile(artemis_spec::samples::FIGURE5, &app).unwrap();
    workload(app, suite, events)
}

/// Three machines cycling through three states on every `start(t0)`,
/// each adding `0x0101010101010101` to `x`: every byte of the state
/// word and of `x` changes on every event, so every step stages the
/// runs the bounds model prices.
fn flip() -> Workload {
    let mut b = AppGraphBuilder::new();
    let t0 = b.task("t0");
    let t1 = b.task("t1");
    b.path(&[t0, t1]);
    let app = b.build().unwrap();
    let src: String = (0..3)
        .map(|m| {
            let pads: String = (0..7).map(|p| format!("var p{p}: int = 0; ")).collect();
            let steps: String = (0..3)
                .map(|s| {
                    format!(
                        "on startTask(t0) from S{s} to S{} {{ x := (x + 72340172838076673); }}; ",
                        (s + 1) % 3
                    )
                })
                .collect();
            format!(
                "machine m{m} task t0 persistent {{ {pads}var x: int = 0; \
                 state S0 initial; state S1; state S2; {steps}}}\n"
            )
        })
        .collect();
    let suite = artemis_ir::parse::parse_suite(&src).unwrap();
    let events = (1..=6)
        .map(|i| MonitorEvent::start(TaskId(0), SimInstant::from_micros(i)))
        .collect();
    workload(app, suite, events)
}

/// Two machines that emit on every `start(t0)` while flipping their
/// state and `x`: every delivery logs one verdict per machine, so on
/// the one-group device group 0 logs two cells in one delivery, and on
/// the tiny device a later group appends to the log group 0 left.
fn emitters() -> Workload {
    let mut b = AppGraphBuilder::new();
    let t0 = b.task("t0");
    let t1 = b.task("t1");
    b.path(&[t0, t1]);
    let app = b.build().unwrap();
    let src: String = (0..2)
        .map(|m| {
            format!(
                "machine e{m} task t0 persistent {{ var x: int = 0; \
                 state S0 initial; state S1; \
                 on startTask(t0) from S0 to S1 {{ x := (x + 1); }} fail skipTask; \
                 on startTask(t0) from S1 to S0 {{ x := (x + 1); }} fail skipTask; }}\n"
            )
        })
        .collect();
    let suite = artemis_ir::parse::parse_suite(&src).unwrap();
    let events = (1..=5)
        .map(|i| MonitorEvent::start(TaskId(0), SimInstant::from_micros(i)))
        .collect();
    workload(app, suite, events)
}

/// The minimal sample spec (`maxTries: 3` on `sense`): two rounds of
/// five attempts of `sense` before it completes, each round tripping
/// the property.
fn minimal() -> Workload {
    let mut b = AppGraphBuilder::new();
    let sense = b.task("sense");
    let send = b.task("send");
    b.path(&[sense, send]);
    let app = b.build().unwrap();
    let at = |round: u64, i: u64| SimInstant::from_micros(100 * round + i);
    let events = (0..2)
        .flat_map(|r| {
            (0..5)
                .map(move |i| MonitorEvent::start(sense, at(r, i)))
                .chain([
                    MonitorEvent::end(sense, at(r, 5)),
                    MonitorEvent::start(send, at(r, 6)),
                ])
        })
        .map(|e| e.on_path(PathId(0)))
        .collect();
    let suite = artemis_ir::compile(artemis_spec::samples::MINIMAL, &app).unwrap();
    workload(app, suite, events)
}

fn workload(app: AppGraph, suite: MonitorSuite, events: Vec<MonitorEvent>) -> Workload {
    let compiled = Arc::new(CompiledSuite::compile(&suite, &app).unwrap());
    Workload {
        app,
        suite,
        compiled,
        events,
    }
}

/// A continuously powered device whose capacitor budget fits every
/// worklist in one commit group, or (`tiny`) no two machines in one.
fn device(tiny: bool) -> Device {
    let b = DeviceBuilder::msp430fr5994().trace_disabled();
    match tiny {
        false => b.build(),
        true => b
            .capacitor(Capacitor::with_budget(Energy::from_nano_joules(1)))
            .build(),
    }
}

/// The reference: the interpreter, event by event, on continuous power.
fn reference(w: &Workload) -> Outcome {
    let mut dev = device(false);
    let opts = InstallOptions {
        mode: ExecMode::Interpreter,
        ..InstallOptions::default()
    };
    let engine = MonitorEngine::install_with(&mut dev, w.suite.clone(), &w.app, opts).unwrap();
    engine.reset_monitor(&mut dev).unwrap();
    let verdicts = w
        .events
        .iter()
        .enumerate()
        .map(|(i, e)| engine.call_monitor(&mut dev, i as u64 + 1, e).unwrap())
        .collect();
    (verdicts, engine.snapshot(&dev))
}

/// What one explored run observed besides its outcome.
struct Run {
    outcome: Outcome,
    /// FRAM write ops of the whole run.
    writes: u64,
    /// Write ops of the first reboot's recovery: `monitorFinalize` and
    /// the redelivery of the interrupted step, up to its cursor write.
    recovery_writes: u64,
    /// Power failures the schedule injected.
    failures: u64,
}

/// Runs `w` on a fresh engine through the reboot loop, one
/// `call_monitor` per event. Boot `b` arms a failure before write op
/// `crashes[b]` of that boot, if given. A persistent cursor counts
/// delivered events, so a failure redelivers the interrupted one.
fn run(w: &Workload, tiny: bool, crashes: &[u64]) -> Run {
    let mut dev = device(tiny);
    let engine = MonitorEngine::install_precompiled_shared(
        &mut dev,
        w.suite.clone(),
        Arc::clone(&w.compiled),
        &w.app,
        InstallOptions::default(),
    )
    .unwrap();
    engine.reset_monitor(&mut dev).unwrap();
    let cursor = dev.nv_alloc::<u32>(0, MemOwner::App, "cursor").unwrap();

    let writes0 = dev.fram().write_ops();
    let mut results: Vec<Vec<MonitorVerdict>> = vec![Vec::new(); w.events.len()];
    let mut boot = 0usize;
    let mut recovery_writes = None;
    let sim = Simulator::new(RunLimit::reboots(16));
    let outcome = sim.run(&mut dev, &mut |dev: &mut Device| {
        if let Some(&k) = crashes.get(boot) {
            dev.fail_before_write(k);
        }
        boot += 1;
        let boot_writes = dev.fram().write_ops();
        engine.monitor_finalize(dev)?;
        loop {
            let idx = dev.nv_read(&cursor)? as usize;
            if idx >= w.events.len() {
                return Ok(());
            }
            results[idx] = engine.call_monitor(dev, idx as u64 + 1, &w.events[idx])?;
            dev.nv_write(&cursor, idx as u32 + 1)?;
            if boot == 2 && recovery_writes.is_none() {
                recovery_writes = Some(dev.fram().write_ops() - boot_writes);
            }
        }
    });
    assert!(outcome.is_completed(), "run never finished: {crashes:?}");
    Run {
        outcome: (results, engine.snapshot(&dev)),
        writes: dev.fram().write_ops() - writes0,
        recovery_writes: recovery_writes.unwrap_or(0),
        failures: dev.stats().power_failures,
    }
}

/// Explores every single crash point of `w`'s run, and every second
/// crash point of the recovery each one forces, on both devices.
/// Returns the number of schedules explored.
fn explore(w: &Workload) -> usize {
    let expected = reference(w);
    let mut explored = 0;
    for tiny in [false, true] {
        let steady = run(w, tiny, &[]);
        assert_eq!(steady.outcome, expected, "continuous run, tiny {tiny}");
        assert_eq!(steady.failures, 0);
        for k in 1..=steady.writes {
            let once = run(w, tiny, &[k]);
            assert_eq!(once.failures, 1, "crash before write {k} never fired");
            assert_eq!(
                once.outcome, expected,
                "crash before write {k}, tiny {tiny}"
            );
            for j in 1..=once.recovery_writes {
                let twice = run(w, tiny, &[k, j]);
                assert_eq!(twice.failures, 2, "second crash {j} after {k} never fired");
                assert_eq!(
                    twice.outcome, expected,
                    "crash before write {k}, then before recovery write {j}, tiny {tiny}"
                );
                explored += 1;
            }
            explored += 1;
        }
    }
    explored
}

#[test]
fn figure5_per_event_crash_points_match_the_interpreter() {
    assert!(explore(&figure5()) > 1_000);
}

#[test]
fn flip_per_event_crash_points_match_the_interpreter() {
    assert!(explore(&flip()) > 500);
}

/// Group 0 logs two verdicts per event in its header run (one group);
/// on the tiny device group 1 appends its cell after group 0's.
#[test]
fn multi_verdict_crash_points_match_the_interpreter() {
    let per_event = explore(&emitters());
    assert!(per_event > 200, "{per_event}");
}

#[test]
fn minimal_spec_crash_points_match_the_interpreter() {
    let per_event = explore(&minimal());
    assert!(per_event > 200, "{per_event}");
}

/// The two devices really are the two commit-group regimes: on the
/// tiny one every group holds one machine, so a delivery commits one
/// record per stepped machine; on the default one a delivery commits
/// one record.
#[test]
fn explored_devices_span_both_group_regimes() {
    let w = flip();
    for (tiny, records_per_event) in [(false, 1), (true, 3)] {
        let mut dev = device(tiny);
        let engine = MonitorEngine::install_precompiled_shared(
            &mut dev,
            w.suite.clone(),
            Arc::clone(&w.compiled),
            &w.app,
            InstallOptions::default(),
        )
        .unwrap();
        engine.reset_monitor(&mut dev).unwrap();
        let records0 = dev.journal_records();
        for (i, e) in w.events.iter().enumerate() {
            engine.call_monitor(&mut dev, i as u64 + 1, e).unwrap();
        }
        assert_eq!(
            dev.journal_records() - records0,
            records_per_event * w.events.len() as u64,
            "tiny {tiny}"
        );
    }
}
