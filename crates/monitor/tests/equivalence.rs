//! The persistent engine must implement exactly the reference
//! semantics: for any event stream, the verdicts and machine state of
//! [`MonitorEngine`] (FRAM-backed, journaled, resumable) equal those of
//! [`Reference`], the in-memory interpreter of `artemis_ir::exec` — with
//! and without power failures injected between deliveries.
//!
//! Every differential property runs across the whole configuration
//! matrix ([`matrix`]: warm and always-cold reads × both bytecode
//! optimization levels, each compiled by `CompiledSuite::compile_with`
//! and installed precompiled), so one `cargo test` covers every
//! bytecode the compiler can ship, on both of the engine's read paths.

use artemis_core::action::Action;
use artemis_core::app::{AppGraph, AppGraphBuilder, TaskId};
use artemis_core::event::MonitorEvent;
use artemis_core::property::OnFail;
use artemis_core::time::{SimDuration, SimInstant};
use artemis_ir::expr::Value;
use artemis_ir::{CompiledSuite, MonitorSuite, OptLevel};
use artemis_monitor::{InstallOptions, MonitorEngine, MonitorVerdict, Reference};
use intermittent_sim::capacitor::Capacitor;
use intermittent_sim::device::{Device, DeviceBuilder};
use intermittent_sim::energy::Energy;
use intermittent_sim::harvester::Harvester;
use intermittent_sim::simulator::{RunLimit, Simulator};
use proptest::prelude::*;

const SPEC: &str = "\
    a { maxTries: 3 onFail: skipPath; }\n\
    b { MITD: 10s dpTask: a onFail: restartPath maxAttempt: 2 onFail: skipPath; \
        collect: 2 dpTask: a onFail: restartPath; \
        maxDuration: 5s onFail: skipTask; }";

fn app() -> AppGraph {
    let mut builder = AppGraphBuilder::new();
    let a = builder.task("a");
    let b = builder.task("b");
    builder.path(&[a, b]);
    builder.build().unwrap()
}

/// One engine configuration: install options, the bytecode
/// optimization level, and whether SRAM is cleared before every
/// delivery. An always-cold engine serves no read from its shadow
/// cache: every delivery takes the post-reboot path and refills from
/// FRAM.
#[derive(Clone, Copy, Debug, Default)]
struct Config {
    opts: InstallOptions,
    opt: OptLevel,
    always_cold: bool,
}

impl From<InstallOptions> for Config {
    fn from(opts: InstallOptions) -> Self {
        Config {
            opts,
            ..Config::default()
        }
    }
}

impl From<OptLevel> for Config {
    fn from(opt: OptLevel) -> Self {
        Config {
            opt,
            ..Config::default()
        }
    }
}

impl Config {
    /// Compiles `suite` at this configuration's level and installs the
    /// bytecode.
    fn install(&self, dev: &mut Device, suite: MonitorSuite, app: &AppGraph) -> MonitorEngine {
        let compiled = CompiledSuite::compile_with(&suite, app, self.opt).unwrap();
        MonitorEngine::install_precompiled(dev, suite, compiled, app, self.opts).unwrap()
    }

    /// Wipes SRAM ahead of a delivery when the engine runs always cold.
    fn before_delivery(&self, dev: &mut Device) {
        if self.always_cold {
            dev.sram_mut().clear();
        }
    }
}

/// Every compiled-engine configuration the differential properties
/// run: warm and always-cold reads × both bytecode optimization levels
/// (the cache and the optimizer are each observationally invisible,
/// so every cell must match the reference).
fn matrix() -> impl Iterator<Item = Config> {
    [false, true].into_iter().flat_map(|always_cold| {
        [OptLevel::Full, OptLevel::None]
            .into_iter()
            .map(move |opt| Config {
                opt,
                always_cold,
                ..Config::default()
            })
    })
}

/// The default engine, always cold.
fn always_cold() -> Config {
    Config {
        always_cold: true,
        ..Config::default()
    }
}

/// The energy reading every reference delivery passes: no suite here
/// guards on the energy level.
const ENERGY_NJ: u64 = u64::MAX;

/// An intermittent device that browns out every `budget_nj`.
fn flaky_device(budget_nj: u64) -> Device {
    DeviceBuilder::msp430fr5994()
        .trace_disabled()
        .capacitor(Capacitor::with_budget(Energy::from_nano_joules(budget_nj)))
        .harvester(Harvester::FixedDelay(SimDuration::from_millis(100)))
        .build()
}

/// A device on continuous power.
fn steady_device() -> Device {
    DeviceBuilder::msp430fr5994().trace_disabled().build()
}

#[derive(Clone, Copy, Debug)]
struct Ev {
    start: bool,
    task_a: bool,
    gap_ms: u64,
}

fn ev_strategy() -> impl Strategy<Value = Vec<Ev>> {
    proptest::collection::vec(
        (any::<bool>(), any::<bool>(), 0u64..20_000).prop_map(|(start, task_a, gap_ms)| Ev {
            start,
            task_a,
            gap_ms,
        }),
        1..60,
    )
}

/// A verdict as `(machine index, property action)`.
fn verdict_code(v: &MonitorVerdict) -> (usize, OnFail) {
    let action = match v.action {
        Action::RestartTask => OnFail::RestartTask,
        Action::SkipTask => OnFail::SkipTask,
        Action::RestartPath(_) => OnFail::RestartPath,
        Action::SkipPath(_) => OnFail::SkipPath,
        Action::CompletePath(_) => OnFail::CompletePath,
    };
    (v.machine_index, action)
}

/// The event `e` names at time `t`.
fn plain_event(e: &Ev, t: u64) -> MonitorEvent {
    let task = if e.task_a { TaskId(0) } else { TaskId(1) };
    if e.start {
        MonitorEvent::start(task, SimInstant::from_micros(t))
    } else {
        MonitorEvent::end(task, SimInstant::from_micros(t))
    }
}

/// Reference verdicts of [`SPEC`] on `events`.
fn oracle(app: &AppGraph, events: &[Ev]) -> Vec<Vec<(usize, OnFail)>> {
    let suite = artemis_ir::compile(SPEC, app).unwrap();
    let mut reference = Reference::new(suite, app).unwrap();
    let mut t = 0u64;
    let mut out = Vec::new();
    for (idx, e) in events.iter().enumerate() {
        t += e.gap_ms * 1_000;
        let verdicts = reference.deliver(idx as u64 + 1, &plain_event(e, t), ENERGY_NJ);
        out.push(verdicts.iter().map(verdict_code).collect());
    }
    out
}

/// Engine verdicts on the given device (which may inject failures).
fn engine_run(
    app: &AppGraph,
    events: &[Ev],
    dev: &mut Device,
    cfg: Config,
) -> Vec<Vec<(usize, OnFail)>> {
    let suite = artemis_ir::compile(SPEC, app).unwrap();
    let engine = cfg.install(dev, suite, app);
    // Drive through the simulator so power failures reboot and resume.
    let done = dev
        .nv_alloc::<u32>(0, intermittent_sim::MemOwner::App, "done")
        .unwrap();
    let sim = Simulator::new(RunLimit::reboots(100_000));

    let mut results: Vec<Vec<(usize, OnFail)>> = Vec::new();
    let outcome = sim.run(dev, &mut |dev: &mut Device| {
        engine.monitor_finalize(dev)?;
        loop {
            let idx = dev.nv_read(&done)? as usize;
            if idx >= events.len() {
                return Ok(());
            }
            // Times derive from the index, not the device clock, so
            // both runs see identical timestamps.
            let t: u64 = events[..=idx].iter().map(|e| e.gap_ms * 1_000).sum();
            let event = plain_event(&events[idx], t);
            let seq = idx as u64 + 1;
            cfg.before_delivery(dev);
            let verdicts = engine.call_monitor(dev, seq, &event)?;
            // Record (volatile is fine: re-recording after a failure
            // overwrites the same index deterministically).
            let entry: Vec<(usize, OnFail)> = verdicts.iter().map(verdict_code).collect();
            if results.len() <= idx {
                results.resize(idx + 1, Vec::new());
            }
            results[idx] = entry;
            dev.nv_write(&done, (idx + 1) as u32)?;
        }
    });
    assert!(outcome.is_completed(), "stream never finished");
    results
}

// ---------------------------------------------------------------------------
// Differential tests: the engine vs the reference.
//
// The engine and `Reference` differ in everything but semantics —
// storage (packed FRAM blocks vs host memory), trigger test (routing
// index and dispatch tables vs a scan of every machine), evaluation
// (bytecode vs tree walk) — so for any spec, any event stream and any
// power-failure schedule the engine must produce the reference's
// verdicts AND its machine state, FRAM-visible in the engine.
// ---------------------------------------------------------------------------

/// App with a producer task `a` (declaring the variable `temp` so
/// `dpData` properties resolve) and a consumer `b` on one path.
fn rich_app() -> AppGraph {
    let mut builder = AppGraphBuilder::new();
    let a = builder.task_with_var("a", "temp");
    let b = builder.task("b");
    builder.path(&[a, b]);
    builder.build().unwrap()
}

fn action() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("restartTask"),
        Just("skipTask"),
        Just("restartPath"),
        Just("skipPath"),
        Just("completePath"),
    ]
}

/// Random but well-formed specifications exercising every property
/// kind the language has (maxTries, period, dpData range, collect,
/// MITD + maxAttempt, maxDuration).
fn spec_strategy() -> impl Strategy<Value = String> {
    (
        proptest::option::of((1u32..4, action())),  // maxTries on a
        proptest::option::of((1u32..20, action())), // period on a
        proptest::option::of((30u32..40, 0u32..5, action())), // dpData range on a
        proptest::option::of((1u32..4, action())),  // collect on b
        proptest::option::of((1u32..15, 1u32..3, action())), // MITD + maxAttempt on b
        proptest::option::of((1u32..8, action())),  // maxDuration on b
    )
        .prop_map(|(mt, per, dp, col, mitd, md)| {
            let mut a_block = String::new();
            let mut b_block = String::new();
            if let Some((n, act)) = mt {
                a_block += &format!("maxTries: {n} onFail: {act}; ");
            }
            if let Some((s, act)) = per {
                a_block += &format!("period: {s}s onFail: {act}; ");
            }
            if let Some((lo, w, act)) = dp {
                a_block += &format!("dpData: temp Range: [{lo}, {}] onFail: {act}; ", lo + w);
            }
            if let Some((n, act)) = col {
                b_block += &format!("collect: {n} dpTask: a onFail: {act}; ");
            }
            if let Some((s, tries, act)) = mitd {
                b_block += &format!(
                    "MITD: {s}s dpTask: a onFail: restartPath maxAttempt: {tries} onFail: {act}; "
                );
            }
            if let Some((s, act)) = md {
                b_block += &format!("maxDuration: {s}s onFail: {act}; ");
            }
            if a_block.is_empty() {
                a_block = "maxTries: 3 onFail: skipPath; ".to_string();
            }
            let mut spec = format!("a {{ {a_block}}}");
            if !b_block.is_empty() {
                spec += &format!("\nb {{ {b_block}}}");
            }
            spec
        })
}

/// Events for the rich app: `a` end events may carry a `temp` sample.
fn rich_ev_strategy() -> impl Strategy<Value = Vec<(Ev, Option<u32>)>> {
    proptest::collection::vec(
        (
            (any::<bool>(), any::<bool>(), 0u64..20_000).prop_map(|(start, task_a, gap_ms)| Ev {
                start,
                task_a,
                gap_ms,
            }),
            proptest::option::of(25u32..45),
        ),
        1..40,
    )
}

fn rich_event(e: &Ev, dep: Option<u32>, t: u64) -> MonitorEvent {
    let task = if e.task_a { TaskId(0) } else { TaskId(1) };
    let at = SimInstant::from_micros(t);
    match (e.start, dep) {
        (true, _) => MonitorEvent::start(task, at),
        (false, Some(v)) if e.task_a => MonitorEvent::end_with_data(task, at, f64::from(v)),
        (false, _) => MonitorEvent::end(task, at),
    }
}

/// Per-event verdicts plus the final FRAM-visible machine state
/// (state word, variable values) of one engine run.
type RunOutcome = (Vec<Vec<MonitorVerdict>>, Vec<(u32, Vec<Value>)>);

/// Runs one spec/event stream through an engine configured by `cfg`
/// and returns (per-event verdicts, final FRAM-visible machine state).
fn engine_run_opts(
    app: &AppGraph,
    spec: &str,
    events: &[(Ev, Option<u32>)],
    dev: &mut Device,
    cfg: impl Into<Config>,
) -> RunOutcome {
    let suite = artemis_ir::compile(spec, app).unwrap();
    engine_run_suite(app, suite, events, dev, cfg)
}

/// The reference's per-event verdicts and final machine state on one
/// stream of the rich app.
fn reference_run(app: &AppGraph, suite: MonitorSuite, events: &[(Ev, Option<u32>)]) -> RunOutcome {
    let mut reference = Reference::new(suite, app).unwrap();
    let mut t = 0u64;
    let verdicts = events
        .iter()
        .enumerate()
        .map(|(idx, (e, dep))| {
            t += e.gap_ms * 1_000;
            let event = rich_event(e, *dep, t);
            reference
                .deliver(idx as u64 + 1, &event, ENERGY_NJ)
                .to_vec()
        })
        .collect();
    (verdicts, reference.snapshot())
}

/// [`reference_run`] of a spec.
fn reference_run_spec(app: &AppGraph, spec: &str, events: &[(Ev, Option<u32>)]) -> RunOutcome {
    reference_run(app, artemis_ir::compile(spec, app).unwrap(), events)
}

/// [`engine_run_opts`] over an already-lowered suite.
fn engine_run_suite(
    app: &AppGraph,
    suite: MonitorSuite,
    events: &[(Ev, Option<u32>)],
    dev: &mut Device,
    cfg: impl Into<Config>,
) -> RunOutcome {
    let cfg = cfg.into();
    let engine = cfg.install(dev, suite, app);
    let done = dev
        .nv_alloc::<u32>(0, intermittent_sim::MemOwner::App, "done")
        .unwrap();
    let sim = Simulator::new(RunLimit::reboots(100_000));

    let mut results: Vec<Vec<MonitorVerdict>> = Vec::new();
    let outcome = sim.run(dev, &mut |dev: &mut Device| {
        engine.monitor_finalize(dev)?;
        loop {
            let idx = dev.nv_read(&done)? as usize;
            if idx >= events.len() {
                return Ok(());
            }
            let (e, dep) = events[idx];
            let t: u64 = events[..=idx].iter().map(|(e, _)| e.gap_ms * 1_000).sum();
            cfg.before_delivery(dev);
            let verdicts = engine.call_monitor(dev, idx as u64 + 1, &rich_event(&e, dep, t))?;
            if results.len() <= idx {
                results.resize(idx + 1, Vec::new());
            }
            results[idx] = verdicts;
            dev.nv_write(&done, (idx + 1) as u32)?;
        }
    });
    assert!(outcome.is_completed(), "stream never finished");
    let snapshot = engine.snapshot(dev);
    (results, snapshot)
}

/// A 100-machine IR suite — past what one 64-bit bitmap word could
/// track — mixing every trigger shape over both tasks: each machine
/// counts its trigger and emits `skipTask` (resetting the count) once
/// the count reaches a per-machine limit.
fn hundred_machine_suite() -> MonitorSuite {
    let src: String = (0..100)
        .map(|i| {
            let trigger = ["startTask(a)", "endTask(a)", "startTask(b)", "endTask(b)"][i % 4];
            let task = if i % 4 < 2 { "a" } else { "b" };
            let limit = 1 + i % 5;
            format!(
                "machine m{i} task {task} persistent {{ var n: int = 0; state S initial; \
                 on {trigger} from S to S if n < {limit} {{ n := (n + 1); }}; \
                 on {trigger} from S to S if n >= {limit} {{ n := 0; }} fail skipTask; }}\n"
            )
        })
        .collect();
    artemis_ir::parse::parse_suite(&src).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Continuous power: engine ≡ reference, verdict for verdict, in
    /// every configuration.
    #[test]
    fn engine_equals_interpreter_on_continuous_power(events in ev_strategy()) {
        let app = app();
        let expected = oracle(&app, &events);
        for cfg in matrix() {
            let got = engine_run(&app, &events, &mut steady_device(), cfg);
            prop_assert_eq!(&got, &expected, "{:?}", cfg);
        }
    }

    /// Intermittent power: power failures between (and inside) event
    /// deliveries must not change a single verdict.
    #[test]
    fn engine_equals_interpreter_under_power_failures(
        events in ev_strategy(),
        budget_nj in 4_000u64..40_000,
    ) {
        let app = app();
        let expected = oracle(&app, &events);
        for cfg in matrix() {
            let got = engine_run(&app, &events, &mut flaky_device(budget_nj), cfg);
            prop_assert_eq!(&got, &expected, "budget {} nJ, {:?}", budget_nj, cfg);
        }
    }

    /// Random specs, continuous power: the engine agrees with the
    /// reference on every verdict (machine, action, path target) and on
    /// the final persistent machine state — routed
    /// worklists, span loads, sparse and whole-block commits, the
    /// shadow cache and the optimizer included.
    #[test]
    fn compiled_equals_interpreter_on_random_specs(
        spec in spec_strategy(),
        events in rich_ev_strategy(),
    ) {
        let app = rich_app();
        let (vi, si) = reference_run_spec(&app, &spec, &events);
        for cfg in matrix() {
            let (vc, sc) = engine_run_opts(&app, &spec, &events, &mut steady_device(), cfg);
            prop_assert_eq!(&vc, &vi, "verdict divergence, {:?}, spec: {}", cfg, spec);
            prop_assert_eq!(&sc, &si, "state divergence, {:?}, spec: {}", cfg, spec);
        }
    }

    /// Random specs under random power-failure schedules: the engine on
    /// an intermittent device must match the reference — resumability
    /// and semantics at once.
    #[test]
    fn compiled_equals_interpreter_under_random_power_failures(
        spec in spec_strategy(),
        events in rich_ev_strategy(),
        budget_nj in 4_000u64..40_000,
    ) {
        let app = rich_app();
        let (vi, si) = reference_run_spec(&app, &spec, &events);
        for cfg in matrix() {
            let (vc, sc) =
                engine_run_opts(&app, &spec, &events, &mut flaky_device(budget_nj), cfg);
            prop_assert_eq!(&vc, &vi, "verdicts, budget {} nJ, {:?}, spec: {}", budget_nj, cfg, spec);
            prop_assert_eq!(&sc, &si, "state, budget {} nJ, {:?}, spec: {}", budget_nj, cfg, spec);
        }
    }
}

/// Guards the premise of the 100-machine property: on a plain stream
/// its machines do fire, on both tasks' keys.
#[test]
fn hundred_machine_suite_fires_verdicts() {
    let app = rich_app();
    let events: Vec<(Ev, Option<u32>)> = (0..12)
        .map(|i| {
            let e = Ev {
                start: i % 2 == 0,
                task_a: i % 4 < 2,
                gap_ms: 10,
            };
            (e, None)
        })
        .collect();
    let (verdicts, _) = engine_run_suite(
        &app,
        hundred_machine_suite(),
        &events,
        &mut steady_device(),
        InstallOptions::default(),
    );
    let fired: Vec<usize> = verdicts.iter().flatten().map(|v| v.machine_index).collect();
    assert!(fired.iter().any(|&m| m >= 64), "{fired:?}");
    assert!(fired.iter().any(|&m| m % 4 < 2) && fired.iter().any(|&m| m % 4 >= 2));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// A 100-machine suite routes, installs with the shadow cache, and
    /// matches the reference on verdicts and FRAM-visible state under
    /// random power failures — no machine-count cliff.
    #[test]
    fn hundred_machine_suite_matches_interpreter_under_power_failures(
        events in rich_ev_strategy(),
        budget_nj in 4_000u64..40_000,
    ) {
        let app = rich_app();
        let mut dev = flaky_device(budget_nj);
        let engine = MonitorEngine::install(&mut dev, hundred_machine_suite(), &app).unwrap();
        prop_assert_eq!(engine.machine_count(), 100);

        let (vi, si) = reference_run(&app, hundred_machine_suite(), &events);
        for cfg in matrix() {
            let (vc, sc) = engine_run_suite(
                &app, hundred_machine_suite(), &events, &mut flaky_device(budget_nj), cfg);
            prop_assert_eq!(&vc, &vi, "verdicts, budget {} nJ, {:?}", budget_nj, cfg);
            prop_assert_eq!(&sc, &si, "state, budget {} nJ, {:?}", budget_nj, cfg);
        }
    }
}
// ---------------------------------------------------------------------------
// Arming crash windows (deterministic).
//
// The routed event path has three crash windows the worklist design
// must survive: a power failure before group 0's record lands (the
// arming rides in it), a failure between commit groups (some
// completion bits set — the capacitor budget sizes the groups, so the
// small budgets of the sweep cut the worklist into several), and a
// redelivery of a seq whose worklist already completed. A fine-grained
// capacitor-budget sweep lands the brown-out in every window of the
// multi-machine stream below; `tests/crash_points.rs` enumerates every
// write boundary instead.
// ---------------------------------------------------------------------------

/// Spec with four machines on `a` and two on `b`: every `a` event arms
/// a worklist long enough for mid-worklist failures to exist.
const CRASH_SPEC: &str = "\
    a { maxTries: 3 onFail: skipPath; \
        period: 4s onFail: restartTask; \
        dpData: temp Range: [30, 34] onFail: skipTask; }\n\
    b { collect: 2 dpTask: a onFail: restartPath; \
        maxDuration: 5s onFail: skipTask; }";

fn crash_events() -> Vec<(Ev, Option<u32>)> {
    let mk = |start, task_a, gap_ms, dep| {
        (
            Ev {
                start,
                task_a,
                gap_ms,
            },
            dep,
        )
    };
    vec![
        mk(true, true, 0, None),
        mk(false, true, 500, Some(31)),
        mk(true, false, 200, None),
        mk(false, false, 100, None),
        mk(true, true, 9_000, None),
        mk(false, true, 400, Some(44)), // out of range -> verdict
        mk(true, true, 100, None),      // period violation
        mk(false, true, 300, Some(33)),
        mk(true, false, 100, None),
        mk(false, false, 8_000, None), // maxDuration violation
    ]
}

/// Budget sweep: every 25 nJ from "barely arms" to "several steps per
/// activation", so the injected failure lands between arming and the
/// first step, mid-worklist, and inside step commits across the sweep.
#[test]
fn arming_crash_windows_preserve_verdicts_and_state() {
    let app = rich_app();
    let events = crash_events();
    let (vf, sf) = reference_run_spec(&app, CRASH_SPEC, &events);

    let mut total_reboots = 0u64;
    for budget_nj in (700..3_000).step_by(25) {
        let mut dev_r = flaky_device(budget_nj);
        let (vr, sr) = engine_run_opts(
            &app,
            CRASH_SPEC,
            &events,
            &mut dev_r,
            InstallOptions::default(),
        );
        assert_eq!(vr, vf, "verdict divergence at budget {budget_nj} nJ");
        assert_eq!(sr, sf, "state divergence at budget {budget_nj} nJ");
        total_reboots += dev_r.reboots();
    }
    assert!(
        total_reboots > 100,
        "sweep too gentle to hit the crash windows ({total_reboots} reboots)"
    );
}

/// The optimizer's deterministic crash-window sweep: fused
/// superinstructions collapse several step-commit windows into one, so
/// the fine-grained budget sweep must land brown-outs inside (and
/// between) the *fused* windows and still recover to exactly the
/// unoptimized oracle's verdicts and state.
#[test]
fn optimizer_crash_windows_preserve_verdicts_and_state() {
    let app = rich_app();
    let events = crash_events();
    let mut dev_u = DeviceBuilder::msp430fr5994().trace_disabled().build();
    let (vu, su) = engine_run_opts(&app, CRASH_SPEC, &events, &mut dev_u, OptLevel::None);

    let mut total_reboots = 0u64;
    for budget_nj in (700..3_000).step_by(25) {
        let mut dev_o = DeviceBuilder::msp430fr5994()
            .trace_disabled()
            .capacitor(Capacitor::with_budget(Energy::from_nano_joules(budget_nj)))
            .harvester(Harvester::FixedDelay(SimDuration::from_millis(100)))
            .build();
        let (vo, so) = engine_run_opts(&app, CRASH_SPEC, &events, &mut dev_o, OptLevel::Full);
        assert_eq!(vo, vu, "verdict divergence at budget {budget_nj} nJ");
        assert_eq!(so, su, "state divergence at budget {budget_nj} nJ");
        total_reboots += dev_o.reboots();
    }
    assert!(
        total_reboots > 100,
        "sweep too gentle to hit the crash windows ({total_reboots} reboots)"
    );
}

// ---------------------------------------------------------------------------
// Sparse-delta commit crash windows (deterministic).
//
// The delta path journals only the written slots of a block. Its crash
// windows differ from the whole-block path's: a failure can land after
// the sparse record is staged but before the flag flips, between two
// sub-write applications, or during replay. A machine with two
// counters incremented by the same transition makes torn application
// observable: if a crash ever left one counter applied and the other
// not, the `a == b` invariant breaks at the next recovery point.
// ---------------------------------------------------------------------------

/// Ten variables, two written per event: 2/10 is far below the ¾
/// degrade threshold, so every commit takes the sparse-delta format.
const TWIN_IR: &str = "\
    machine twin task a persistent { \
        var a: int = 0; var b: int = 0; \
        var p0: int = 0; var p1: int = 0; var p2: int = 0; var p3: int = 0; \
        var p4: int = 0; var p5: int = 0; var p6: int = 0; var p7: int = 0; \
        state S initial; \
        on startTask(a) from S to S { a := (a + 1); b := (b + 1); }; }";

/// The reference's machine state after `events` starts of `a`, one
/// millisecond apart, through [`TWIN_IR`].
fn twin_reference(app: &AppGraph, events: u64) -> Vec<(u32, Vec<Value>)> {
    let suite = artemis_ir::parse::parse_suite(TWIN_IR).unwrap();
    let mut reference = Reference::new(suite, app).unwrap();
    for seq in 1..=events {
        let event = MonitorEvent::start(TaskId(0), SimInstant::from_micros(seq * 1_000));
        reference.deliver(seq, &event, ENERGY_NJ);
    }
    reference.snapshot()
}

/// Budget sweep landing brown-outs in every window of the sparse
/// commit: after every recovery point the two correlated counters must
/// be equal (old image or new image, never a mix), and the final state
/// must match the reference's.
#[test]
fn sparse_delta_commit_crash_windows_never_tear() {
    const EVENTS: u64 = 30;
    let app = rich_app();

    // Guard the premise: the compiled access set must put this machine
    // on the sparse path, not the degraded whole-block path.
    let suite = artemis_ir::parse::parse_suite(TWIN_IR).unwrap();
    let compiled = artemis_ir::CompiledSuite::compile(&suite, &app).unwrap();
    let profile = DeviceBuilder::msp430fr5994().build().energy_profile();
    let key = artemis_ir::suite_bounds(&compiled, &profile)
        .per_key
        .into_iter()
        .find(|c| c.task == Some(0))
        .unwrap();
    assert_eq!(
        key.delta_machines, 1,
        "twin machine must take the delta path"
    );
    assert_eq!(key.degraded_machines, 0);

    let reference = twin_reference(&app, EVENTS);

    let twins = |snap: &[(u32, Vec<Value>)]| (snap[0].1[0], snap[0].1[1]);

    let mut total_reboots = 0u64;
    for budget_nj in (700..3_000).step_by(25) {
        let mut dev = DeviceBuilder::msp430fr5994()
            .trace_disabled()
            .capacitor(Capacitor::with_budget(Energy::from_nano_joules(budget_nj)))
            .harvester(Harvester::FixedDelay(SimDuration::from_millis(100)))
            .build();
        let suite = artemis_ir::parse::parse_suite(TWIN_IR).unwrap();
        let engine = MonitorEngine::install(&mut dev, suite, &app).unwrap();
        let done = dev
            .nv_alloc::<u32>(0, intermittent_sim::MemOwner::App, "done")
            .unwrap();
        let sim = Simulator::new(RunLimit::reboots(100_000));
        let outcome = sim.run(&mut dev, &mut |dev: &mut Device| {
            engine.monitor_finalize(dev)?;
            // Every reboot is a recovery point: a torn sparse commit
            // would surface here as a half-applied increment.
            let (a, b) = twins(&engine.snapshot(dev));
            assert_eq!(a, b, "torn commit at budget {budget_nj} nJ");
            loop {
                let idx = dev.nv_read(&done)? as usize;
                if idx as u64 >= EVENTS {
                    return Ok(());
                }
                let seq = idx as u64 + 1;
                engine.call_monitor(
                    dev,
                    seq,
                    &MonitorEvent::start(TaskId(0), SimInstant::from_micros(seq * 1_000)),
                )?;
                let (a, b) = twins(&engine.snapshot(dev));
                assert_eq!(a, b, "torn commit at budget {budget_nj} nJ");
                dev.nv_write(&done, (idx + 1) as u32)?;
            }
        });
        assert!(outcome.is_completed(), "stream never finished");
        assert_eq!(
            engine.snapshot(&dev),
            reference,
            "final image diverged at budget {budget_nj} nJ"
        );
        total_reboots += dev.reboots();
    }
    assert!(
        total_reboots > 100,
        "sweep too gentle to hit the sparse commit windows ({total_reboots} reboots)"
    );
}

// ---------------------------------------------------------------------------
// Dirty-diff commit crash windows, always cold (deterministic).
//
// Every compiled commit journals minimal `[addr][len][data]` runs
// computed against the shadow cache's old image. Its crash windows are
// a superset of the sparse path's: a reboot can land after the diff
// record is staged but before the flag flips, between two run
// applications during replay, or after a wipe that cold-refills the
// shadows mid-stream (a stale old image would make the next diff
// silently wrong). The warm sweep is
// `sparse_delta_commit_crash_windows_never_tear`; this one clears SRAM
// before every delivery, so every diff is taken against a freshly
// cold-filled image. The twin-counter machine makes any torn or
// misdiffed application observable as `a != b` at the next recovery
// point.
// ---------------------------------------------------------------------------

/// Budget sweep landing brown-outs in every window of the diff-commit
/// transaction (>100 reboots) on the always-cold engine: the correlated
/// counters must be equal at every recovery point, and the final image
/// must match the reference's.
#[test]
fn diff_commit_crash_windows_never_tear() {
    const EVENTS: u64 = 30;
    let app = rich_app();
    let event = |seq: u64| MonitorEvent::start(TaskId(0), SimInstant::from_micros(seq * 1_000));

    let reference = twin_reference(&app, EVENTS);

    let twins = |snap: &[(u32, Vec<Value>)]| (snap[0].1[0], snap[0].1[1]);

    let mut total_reboots = 0u64;
    for budget_nj in (700..3_000).step_by(25) {
        let mut dev = flaky_device(budget_nj);
        let suite = artemis_ir::parse::parse_suite(TWIN_IR).unwrap();
        let engine = MonitorEngine::install(&mut dev, suite, &app).unwrap();
        let done = dev
            .nv_alloc::<u32>(0, intermittent_sim::MemOwner::App, "done")
            .unwrap();
        let sim = Simulator::new(RunLimit::reboots(100_000));
        let outcome = sim.run(&mut dev, &mut |dev: &mut Device| {
            engine.monitor_finalize(dev)?;
            // Every reboot is a recovery point: a torn or misdiffed
            // commit surfaces here as a half-applied increment.
            let (a, b) = twins(&engine.snapshot(dev));
            assert_eq!(a, b, "torn diff commit at budget {budget_nj} nJ");
            loop {
                let idx = dev.nv_read(&done)? as usize;
                if idx as u64 >= EVENTS {
                    return Ok(());
                }
                let seq = idx as u64 + 1;
                always_cold().before_delivery(dev);
                engine.call_monitor(dev, seq, &event(seq))?;
                let (a, b) = twins(&engine.snapshot(dev));
                assert_eq!(a, b, "torn diff commit at budget {budget_nj} nJ");
                dev.nv_write(&done, (idx + 1) as u32)?;
            }
        });
        assert!(outcome.is_completed(), "stream never finished");
        assert_eq!(
            engine.snapshot(&dev),
            reference,
            "final image diverged at budget {budget_nj} nJ"
        );
        total_reboots += dev.reboots();
    }
    assert!(
        total_reboots > 100,
        "sweep too gentle to hit the diff commit windows ({total_reboots} reboots)"
    );
}

// ---------------------------------------------------------------------------
// Shadow-cache crash windows, always cold (deterministic).
//
// The cache is strictly write-through, so its only failure modes are
// stale RAM surviving a reboot, a wipe landing between two of the FRAM
// writes that make up a delivery (group records, plain done writes,
// finalize), and a cold fill reading a half-updated
// region. The warm sweeps above cover the first two; these clear SRAM
// before every delivery, so every delivery cold-fills its shadows and
// the brown-outs land inside those fills too. The runs must match the
// reference.
// ---------------------------------------------------------------------------

/// Per-event always-cold delivery under the arming/commit crash sweep:
/// every budget reboots mid-delivery, at every possible FRAM-write
/// boundary, and must still match the reference's verdicts and machine
/// state.
#[test]
fn cached_crash_windows_preserve_verdicts_and_state() {
    let app = rich_app();
    let events = crash_events();
    let (vf, sf) = reference_run_spec(&app, CRASH_SPEC, &events);

    let mut total_reboots = 0u64;
    for budget_nj in (700..3_000).step_by(25) {
        let mut dev_c = flaky_device(budget_nj);
        let (vc, sc) = engine_run_opts(&app, CRASH_SPEC, &events, &mut dev_c, always_cold());
        assert_eq!(vc, vf, "verdict divergence at budget {budget_nj} nJ");
        assert_eq!(sc, sf, "state divergence at budget {budget_nj} nJ");
        total_reboots += dev_c.reboots();
    }
    assert!(
        total_reboots > 100,
        "sweep too gentle to hit the cached crash windows ({total_reboots} reboots)"
    );
}

/// Redelivering a seq whose armed worklist already ran to completion
/// must return the recorded verdicts without re-stepping any machine —
/// on live redelivery and after a reboot.
#[test]
fn redelivered_completed_seq_only_replays_verdicts() {
    let app = rich_app();
    let suite = artemis_ir::compile(CRASH_SPEC, &app).unwrap();
    let mut dev = DeviceBuilder::msp430fr5994().build();
    let engine = MonitorEngine::install(&mut dev, suite, &app).unwrap();
    engine.reset_monitor(&mut dev).unwrap();

    let a = TaskId(0);
    // Rapid-fire starts until a property fires (maxTries: 3 fires by
    // the fourth attempt at the latest).
    let ev = |us| MonitorEvent::start(a, SimInstant::from_micros(us));
    let mut seq = 0u64;
    let first = loop {
        seq += 1;
        assert!(seq <= 8, "no property fired after {seq} starts");
        let v = engine
            .call_monitor(&mut dev, seq, &ev(seq * 1_000))
            .unwrap();
        if !v.is_empty() {
            break v;
        }
    };
    let snap = engine.snapshot(&dev);

    // Live redelivery: same verdicts, no FRAM-visible state change.
    let again = engine
        .call_monitor(&mut dev, seq, &ev(seq * 1_000))
        .unwrap();
    assert_eq!(again, first);
    assert_eq!(engine.snapshot(&dev), snap);

    // Redelivery after a reboot: finalize sees nothing pending, and the
    // seq check still short-circuits the worklist.
    dev.power_cycle();
    assert!(!engine.monitor_finalize(&mut dev).unwrap());
    let after_reboot = engine
        .call_monitor(&mut dev, seq, &ev(seq * 1_000))
        .unwrap();
    assert_eq!(after_reboot, first);
    assert_eq!(engine.snapshot(&dev), snap);
}
