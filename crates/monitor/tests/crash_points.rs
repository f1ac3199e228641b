//! Exhaustive crash-point exploration: instead of sampling capacitor
//! budgets, every FRAM write op of a run is, in turn, replaced by a
//! power failure (`Device::fail_before_write`), and every write op of
//! the recovery that follows is replaced by a second one. After each
//! schedule the run must end with exactly the verdicts and the
//! FRAM-visible machine state (`snapshot`) of [`Reference`], the
//! interpreter over host memory — the formal criterion that an
//! execution interrupted at any FRAM write is indistinguishable from a
//! continuous one.
//!
//! The explorer covers the Fig. 5 suite and the every-byte-flips suite;
//! a suite whose group 0 logs several verdicts in one delivery, so the
//! cells ride the header run; and the minimal sample spec. Each runs on two continuously
//! powered devices whose capacitor budgets size the commit groups: the
//! default 1.6 mJ one, where every worklist is one group, and a 1 nJ
//! one, where every machine is a group of its own.
//!
//! A seeded walk then pins the arming span — group 0's header run
//! starts at the first byte that changed since the header image the
//! shadow keeps — against the static model and against an engine that
//! refills that image before every call: both must write the same FRAM
//! bytes through power failures, redeliveries and resets, and a silent
//! delivery (one group, no machine changed, no verdict) none at all. A
//! second walk keeps every fresh delivery's monitor energy at or above
//! its key's term in the energy gate's floor.

use std::sync::Arc;

use artemis_core::app::{AppGraph, AppGraphBuilder, PathId, TaskId};
use artemis_core::event::MonitorEvent;
use artemis_core::time::SimInstant;
use artemis_ir::analysis::delivery_floor;
use artemis_ir::expr::Value;
use artemis_ir::opt::OptLevel;
use artemis_ir::{CompiledSuite, MonitorSuite};
use artemis_monitor::{InstallOptions, MonitorEngine, MonitorVerdict, Reference};
use intermittent_sim::capacitor::Capacitor;
use intermittent_sim::device::Interrupt;
use intermittent_sim::device::{Device, DeviceBuilder};
use intermittent_sim::energy::Energy;
use intermittent_sim::journal::ENTRY_HEADER;
use intermittent_sim::simulator::{RunLimit, Simulator};
use intermittent_sim::{CostCategory, MemOwner};

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

/// The expected outcome: [`Reference`]'s, event by event. No explored
/// suite guards on the energy level, so every delivery reads zero.
fn reference(w: &Workload) -> Outcome {
    let mut reference = Reference::new(w.suite.clone(), &w.app).unwrap();
    let verdicts = w
        .events
        .iter()
        .enumerate()
        .map(|(i, e)| reference.deliver(i as u64 + 1, e, 0).to_vec())
        .collect();
    (verdicts, reference.snapshot())
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
    assert_eq!(explore(&figure5()), 1_374);
}

#[test]
fn flip_per_event_crash_points_match_the_interpreter() {
    assert_eq!(explore(&flip()), 2_016);
}

/// Group 0 logs two verdicts per event in its header run (one group);
/// on the tiny device group 1 appends its cell after group 0's.
#[test]
fn multi_verdict_crash_points_match_the_interpreter() {
    assert_eq!(explore(&emitters()), 715);
}

#[test]
fn minimal_spec_crash_points_match_the_interpreter() {
    assert_eq!(explore(&minimal()), 752);
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

/// A splitmix64 stream: the walk's only source of randomness, so a
/// seed names one walk.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// A random event of `app` at `time`: any task, either kind, on one of
/// the task's paths or on none, ends sometimes carrying a value.
fn random_event(rng: &mut Rng, app: &AppGraph, time: u64) -> MonitorEvent {
    let task = TaskId(rng.below(app.task_count() as u64) as u32);
    let at = SimInstant::from_micros(time);
    let event = match rng.below(3) {
        0 => MonitorEvent::start(task, at),
        1 => MonitorEvent::end(task, at),
        _ => MonitorEvent::end_with_data(task, at, rng.below(50) as f64),
    };
    let paths = app.paths_containing(task);
    match paths.get(rng.below(paths.len() as u64 + 1) as usize) {
        Some(&path) => event.on_path(path),
        None => event,
    }
}

/// One engine of the walk on its own device. The always-cold one
/// clears SRAM before every call, so each call reloads the armed
/// header and refills the header image from FRAM.
struct Walker {
    dev: Device,
    engine: MonitorEngine,
    cold: bool,
}

impl Walker {
    fn new(w: &Workload, opt: OptLevel, tiny: bool, cold: bool) -> Self {
        let mut dev = device(tiny);
        let opts = InstallOptions {
            opt,
            ..InstallOptions::default()
        };
        let engine = MonitorEngine::install_with(&mut dev, w.suite.clone(), &w.app, opts).unwrap();
        engine.reset_monitor(&mut dev).unwrap();
        Walker { dev, engine, cold }
    }

    /// Runs `f` with a power failure armed before write op `crash`, if
    /// given; a failure power-cycles the device.
    fn call<T>(
        &mut self,
        crash: Option<u64>,
        f: impl FnOnce(&MonitorEngine, &mut Device) -> Result<T, Interrupt>,
    ) -> Option<T> {
        if self.cold {
            self.dev.sram_mut().clear();
        }
        self.dev.fail_before_write(crash.unwrap_or(0));
        let r = f(&self.engine, &mut self.dev);
        self.dev.fail_before_write(0);
        match r {
            Ok(v) => Some(v),
            Err(Interrupt::PowerFailure) => {
                self.dev.power_cycle();
                None
            }
            Err(e) => panic!("{e:?}"),
        }
    }

    /// Write ops, write bytes, journal records and arming-run bytes so
    /// far.
    fn writes(&self) -> [u64; 4] {
        let f = self.dev.fram();
        [
            f.write_ops(),
            f.write_bytes(),
            self.dev.journal_records(),
            self.engine.exec_stats().arming_write_bytes,
        ]
    }
}

/// Walks `steps` random deliveries of `w` through a warm engine and an
/// always-cold one in lockstep, on the `tiny` regime at `opt`. Some
/// calls fail power before a random write op; a failed delivery is
/// followed by `monitorFinalize` or a reset, then by its redelivery
/// or a fresh event. After every call both engines must have written
/// the same FRAM image with the same write ops and bytes and returned
/// the same verdicts. A delivery that arms a fresh event without a
/// failure writes one arming run — one sub-write of at least one byte
/// — and at most the key's modelled write ops, records and bytes,
/// with exactly one record when the model cuts the key into one group.
/// A delivery of a one-group key that changes no machine and returns
/// no verdict writes nothing at all: no op, no byte, no record, warm
/// and always cold. Returns the number of such deliveries.
fn walk(w: &Workload, seed: u64, opt: OptLevel, tiny: bool, steps: usize) -> usize {
    let bounds = artemis_ir::suite_bounds(&w.compiled, &device(tiny).energy_profile());
    let mut warm = Walker::new(w, opt, tiny, false);
    let mut cold = Walker::new(w, opt, tiny, true);
    let mut rng = Rng(seed);
    let (mut seq, mut time) = (1u64, 1u64);
    let mut event = random_event(&mut rng, &w.app, time);
    let mut failed = 0;
    let mut silent = 0;
    for step in 0..steps {
        let crash = rng.chance(20).then(|| 1 + rng.below(12));
        let before = warm.writes();
        let machines = warm.engine.snapshot(&warm.dev);
        let deliver = |e: &MonitorEngine, dev: &mut Device| e.call_monitor(dev, seq, &event);
        let reads = warm.dev.fram().read_ops();
        let (a, b) = (warm.call(crash, deliver), cold.call(crash, deliver));
        let ctx = format!("seed {seed}, {opt:?}, tiny {tiny}, step {step}, seq {seq}");
        assert_eq!(a, b, "verdicts, {ctx}");
        if step == 0 && a.is_some() {
            // Install seeds the header image and the reset fills every
            // other shadow: the first delivery is write-only.
            assert_eq!(warm.dev.fram().read_ops(), reads, "{ctx}");
        }
        let after = warm.writes();
        assert_eq!(after, cold.writes(), "write traffic, {ctx}");
        let used = warm.dev.fram().used();
        assert_eq!(
            warm.dev.peek_raw(0, used),
            cold.dev.peek_raw(0, used),
            "FRAM image, {ctx}"
        );

        let [ops, bytes, records, arming] = [0, 1, 2, 3].map(|i| after[i] - before[i]);
        let key = bounds
            .per_key
            .iter()
            .find(|k| k.kind == event.kind && k.task == Some(event.task.0))
            .expect("every task has a key");
        let quiet =
            a.as_ref().is_some_and(Vec::is_empty) && warm.engine.snapshot(&warm.dev) == machines;
        if quiet && key.groups == 1 {
            // The always-cold engine wrote the same (checked above).
            assert_eq!([ops, bytes, records], [0; 3], "silent delivery, {ctx}");
            silent += 1;
        }
        if a.is_some() && arming > 0 {
            assert!(arming >= (ENTRY_HEADER + 2) as u64, "one arming run, {ctx}");
            assert_eq!(
                (arming - ENTRY_HEADER as u64) % 2,
                0,
                "one arming run, {ctx}"
            );
            assert!(
                ops <= key.writes as u64,
                "ops {ops} > {}, {ctx}",
                key.writes
            );
            assert!(
                records >= 1 && records <= key.groups as u64,
                "records {records}, {ctx}"
            );
            if key.groups == 1 {
                assert_eq!(records, 1, "{ctx}");
            }
            assert!(
                bytes <= key.write_bytes as u64,
                "bytes {bytes} > {}, {ctx}",
                key.write_bytes
            );
        }

        if a.is_none() {
            failed += 1;
            let reset = rng.chance(30);
            let recover = |e: &MonitorEngine, dev: &mut Device| {
                if reset {
                    e.reset_monitor(dev)
                } else {
                    e.monitor_finalize(dev).map(drop)
                }
            };
            assert_eq!(warm.call(None, recover), cold.call(None, recover), "{ctx}");
            if rng.chance(50) {
                continue;
            }
        } else if rng.chance(10) {
            continue;
        }
        seq += 1;
        time += 1 + rng.below(5_000);
        event = random_event(&mut rng, &w.app, time);
    }
    assert!(failed > 0, "seed {seed}: the walk never failed power");
    silent
}

/// The arming span on the Fig. 5 suite and on generated suites, at both
/// optimisation levels and in both commit-group regimes: warm and
/// always-cold engines write identical FRAM traffic and images, and
/// every delivery stays within its key's model.
#[test]
fn arming_spans_write_what_an_always_cold_engine_writes() {
    let mut workloads = vec![figure5()];
    for seed in 0..6 {
        let g = artemis_bench::workload::generate(seed);
        let suite = artemis_ir::compile(&g.spec, &g.app).unwrap();
        workloads.push(workload(g.app, suite, Vec::new()));
    }
    let mut silent = 0;
    for (i, w) in workloads.iter().enumerate() {
        for opt in [OptLevel::Full, OptLevel::None] {
            for tiny in [false, true] {
                silent += walk(w, 17 + i as u64, opt, tiny, 400);
            }
        }
    }
    assert!(silent > 0, "the walks made no silent delivery");
}

/// Delivers `steps` random events of `w`, each under a fresh sequence
/// number, on a `tiny`-regime device through a warm or (`cold`) an
/// always-cold engine: the monitor energy each delivery draws must be
/// at least its key's term in the energy gate's per-task floor.
fn floor_walk(w: &Workload, seed: u64, tiny: bool, cold: bool, steps: u64) {
    let profile = device(tiny).energy_profile();
    let bounds = artemis_ir::suite_bounds(&w.compiled, &profile);
    let mut walker = Walker::new(w, OptLevel::Full, tiny, cold);
    let mut rng = Rng(seed);
    for seq in 1..=steps {
        let event = random_event(&mut rng, &w.app, seq * 1_000);
        let key = bounds
            .per_key
            .iter()
            .find(|k| k.kind == event.kind && k.task == Some(event.task.0))
            .expect("every task has a key");
        let drawn0 = walker.dev.stats().energy(CostCategory::Monitor);
        walker
            .call(None, |e, dev| e.call_monitor(dev, seq, &event))
            .expect("continuous power");
        let drawn = walker.dev.stats().energy(CostCategory::Monitor) - drawn0;
        let floor = delivery_floor(key, &profile.model);
        assert!(
            drawn >= floor,
            "seed {seed}, tiny {tiny}, cold {cold}, seq {seq}: drew {drawn} under the floor {floor} ({key:?})"
        );
    }
}

/// The energy gate's floor is a lower bound on every delivery: on the
/// Fig. 5 suite and on generated suites, in both commit-group regimes,
/// warm and always cold, no fresh delivery draws less monitor energy
/// than its key's floor term — a key whose worklist fits one group may
/// persist nothing, and a multi-group key may arm with one changed
/// byte.
#[test]
fn energy_floor_stays_under_every_delivery() {
    let mut workloads = vec![figure5()];
    for seed in 0..6 {
        let g = artemis_bench::workload::generate(seed);
        let suite = artemis_ir::compile(&g.spec, &g.app).unwrap();
        workloads.push(workload(g.app, suite, Vec::new()));
    }
    for (i, w) in workloads.iter().enumerate() {
        for tiny in [false, true] {
            for cold in [false, true] {
                floor_walk(w, 29 + i as u64, tiny, cold, 300);
            }
        }
    }
}
