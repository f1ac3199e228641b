//! The persistent engine must implement exactly the reference
//! semantics: for any event stream, the verdicts of
//! [`MonitorEngine`] (FRAM-backed, journaled, resumable) equal those of
//! the pure in-memory interpreter in `artemis_ir::exec` — with and
//! without power failures injected between deliveries.
//!
//! Every differential property runs across the whole configuration
//! matrix ([`matrix`]: warm and always-cold reads × both bytecode
//! optimization levels), so one `cargo test` covers every engine the
//! install options can build, on both of its read paths.

use artemis_core::app::{AppGraph, AppGraphBuilder, TaskId};
use artemis_core::event::MonitorEvent;
use artemis_core::property::OnFail;
use artemis_core::time::{SimDuration, SimInstant};
use artemis_ir::exec::{ir_event, step, MachineState};
use artemis_ir::expr::Value;
use artemis_ir::{MonitorSuite, OptLevel};
use artemis_monitor::{BatchMode, ExecMode, InstallOptions, MonitorEngine, MonitorVerdict};
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

/// One engine configuration: install options, plus whether SRAM is
/// cleared before every delivery. An always-cold engine serves no read
/// from its shadow cache: every delivery takes the post-reboot path
/// and refills from FRAM.
#[derive(Clone, Copy, Debug, Default)]
struct Config {
    opts: InstallOptions,
    always_cold: bool,
}

impl From<InstallOptions> for Config {
    fn from(opts: InstallOptions) -> Self {
        Config {
            opts,
            always_cold: false,
        }
    }
}

impl Config {
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
/// so every cell must match the interpreter).
fn matrix() -> impl Iterator<Item = Config> {
    [false, true].into_iter().flat_map(|always_cold| {
        [OptLevel::Full, OptLevel::None]
            .into_iter()
            .map(move |opt| Config {
                opts: InstallOptions {
                    opt,
                    ..InstallOptions::default()
                },
                always_cold,
            })
    })
}

/// The default engine, always cold.
fn always_cold() -> Config {
    Config {
        opts: InstallOptions::default(),
        always_cold: true,
    }
}

/// The interpreter's options: the reference semantics every matrix
/// cell is compared against.
fn interpreter() -> InstallOptions {
    InstallOptions {
        mode: ExecMode::Interpreter,
        ..InstallOptions::default()
    }
}

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

/// Reference verdicts from the pure interpreter.
fn oracle(app: &AppGraph, events: &[Ev]) -> Vec<Vec<(usize, OnFail)>> {
    let suite = artemis_ir::compile(SPEC, app).unwrap();
    let mut states: Vec<MachineState> =
        suite.machines().iter().map(MachineState::initial).collect();
    let mut t = 0u64;
    let mut out = Vec::new();
    for e in events {
        t += e.gap_ms * 1_000;
        let task = if e.task_a { TaskId(0) } else { TaskId(1) };
        let event = if e.start {
            MonitorEvent::start(task, SimInstant::from_micros(t))
        } else {
            MonitorEvent::end(task, SimInstant::from_micros(t))
        };
        let name = app.task_name(task);
        let mut verdicts = Vec::new();
        for (i, (machine, state)) in suite.machines().iter().zip(states.iter_mut()).enumerate() {
            let ir = ir_event(&event, name, u64::MAX);
            if let Some(fail) = step(machine, state, &ir).unwrap() {
                verdicts.push((i, fail.action));
            }
        }
        out.push(verdicts);
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
    let engine = MonitorEngine::install_with(dev, suite, app, cfg.opts).unwrap();
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
            let e = events[idx];
            // Times derive from the index, not the device clock, so
            // both runs see identical timestamps.
            let t: u64 = events[..=idx].iter().map(|e| e.gap_ms * 1_000).sum();
            let task = if e.task_a { TaskId(0) } else { TaskId(1) };
            let event = if e.start {
                MonitorEvent::start(task, SimInstant::from_micros(t))
            } else {
                MonitorEvent::end(task, SimInstant::from_micros(t))
            };
            let seq = idx as u64 + 1;
            cfg.before_delivery(dev);
            let verdicts = engine.call_monitor(dev, seq, &event)?;
            // Record (volatile is fine: re-recording after a failure
            // overwrites the same index deterministically).
            let entry: Vec<(usize, OnFail)> = verdicts
                .iter()
                .map(|v| {
                    let action = match v.action {
                        artemis_core::Action::RestartTask => OnFail::RestartTask,
                        artemis_core::Action::SkipTask => OnFail::SkipTask,
                        artemis_core::Action::RestartPath(_) => OnFail::RestartPath,
                        artemis_core::Action::SkipPath(_) => OnFail::SkipPath,
                        artemis_core::Action::CompletePath(_) => OnFail::CompletePath,
                    };
                    (v.machine_index, action)
                })
                .collect();
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
// Differential tests: compiled bytecode vs tree-walking interpreter.
//
// The two execution modes of the engine differ in everything but
// semantics — storage layout (block vs cells), trigger test (dispatch
// table vs observed set), evaluation (bytecode vs tree walk) — so for
// any spec, any event stream and any power-failure schedule they must
// produce identical verdicts AND identical FRAM-visible machine state.
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

/// Events shaped like the runtime's task-boundary bursts: whole runs
/// of correlated `EndTask` → next `StartTask` pairs (tiny in-burst
/// gaps), separated by larger inter-burst gaps — the traffic the
/// group-commit batch path is built for.
fn burst_ev_strategy() -> impl Strategy<Value = Vec<(Ev, Option<u32>)>> {
    let pair = (
        any::<bool>(),                   // ending task
        any::<bool>(),                   // starting task
        0u64..20_000,                    // gap before the burst
        proptest::option::of(25u32..45), // dpData sample on a's end
    )
        .prop_map(|(end_a, start_a, gap_ms, dep)| {
            vec![
                (
                    Ev {
                        start: false,
                        task_a: end_a,
                        gap_ms,
                    },
                    dep,
                ),
                (
                    Ev {
                        start: true,
                        task_a: start_a,
                        gap_ms: 0,
                    },
                    None,
                ),
            ]
        });
    proptest::collection::runs(pair, 1..14)
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

/// [`engine_run_opts`] over an already-lowered suite.
fn engine_run_suite(
    app: &AppGraph,
    suite: MonitorSuite,
    events: &[(Ev, Option<u32>)],
    dev: &mut Device,
    cfg: impl Into<Config>,
) -> RunOutcome {
    let cfg = cfg.into();
    let engine = MonitorEngine::install_with(dev, suite, app, cfg.opts).unwrap();
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

/// Like [`engine_run_opts`], but delivers the stream through the
/// group-commit batch path in chunks of `chunk` events. The persistent
/// cursor advances a whole chunk at a time, so a power failure inside
/// a batch redelivers the same chunk — exercising arming replay,
/// mid-batch resume via the done bitmap, and verdict readback.
fn engine_run_batch(
    app: &AppGraph,
    spec: &str,
    events: &[(Ev, Option<u32>)],
    dev: &mut Device,
    chunk: usize,
    cfg: impl Into<Config>,
) -> RunOutcome {
    let cfg = cfg.into();
    let suite = artemis_ir::compile(spec, app).unwrap();
    let engine = MonitorEngine::install_with(
        dev,
        suite,
        app,
        InstallOptions {
            batch: BatchMode::Enabled { max_events: chunk },
            ..cfg.opts
        },
    )
    .unwrap();
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
            let n = chunk.min(events.len() - idx);
            let mut batch = Vec::with_capacity(n);
            for (j, (e, dep)) in events[idx..idx + n].iter().enumerate() {
                let t: u64 = events[..=idx + j]
                    .iter()
                    .map(|(e, _)| e.gap_ms * 1_000)
                    .sum();
                batch.push(rich_event(e, *dep, t));
            }
            cfg.before_delivery(dev);
            let verdicts = engine.deliver_batch(dev, idx as u64 + 1, &batch)?;
            if results.len() < idx + n {
                results.resize(idx + n, Vec::new());
            }
            results[idx..idx + n].clone_from_slice(&verdicts);
            dev.nv_write(&done, (idx + n) as u32)?;
        }
    });
    assert!(outcome.is_completed(), "stream never finished");
    let snapshot = engine.snapshot(dev);
    (results, snapshot)
}

/// Like [`engine_run_batch`], but on one capacity-4 engine whose
/// deliveries alternate along `plan`: each step `(via_call, chunk)`
/// takes the next event alone through `call_monitor`, or the next
/// `chunk` (1–4) events through `deliver_batch`. The plan repeats until
/// the stream is covered. The persistent cursor counts steps, so a
/// power failure redelivers the interrupted step the same way.
fn engine_run_mixed(
    app: &AppGraph,
    spec: &str,
    events: &[(Ev, Option<u32>)],
    dev: &mut Device,
    plan: &[(bool, usize)],
    cfg: Config,
) -> RunOutcome {
    let suite = artemis_ir::compile(spec, app).unwrap();
    let engine = MonitorEngine::install_with(
        dev,
        suite,
        app,
        InstallOptions {
            batch: BatchMode::Enabled { max_events: 4 },
            ..cfg.opts
        },
    )
    .unwrap();
    // (first event, event count, via call_monitor) per step.
    let mut steps = Vec::new();
    let mut idx = 0;
    for &(via_call, chunk) in plan.iter().cycle() {
        if idx >= events.len() {
            break;
        }
        let n = if via_call {
            1
        } else {
            chunk.min(events.len() - idx)
        };
        steps.push((idx, n, via_call));
        idx += n;
    }
    let cursor = dev
        .nv_alloc::<u32>(0, intermittent_sim::MemOwner::App, "step")
        .unwrap();
    let sim = Simulator::new(RunLimit::reboots(100_000));

    let mut results: Vec<Vec<MonitorVerdict>> = vec![Vec::new(); events.len()];
    let outcome = sim.run(dev, &mut |dev: &mut Device| {
        engine.monitor_finalize(dev)?;
        loop {
            let k = dev.nv_read(&cursor)? as usize;
            let Some(&(idx, n, via_call)) = steps.get(k) else {
                return Ok(());
            };
            let batch: Vec<MonitorEvent> = (idx..idx + n)
                .map(|j| {
                    let t: u64 = events[..=j].iter().map(|(e, _)| e.gap_ms * 1_000).sum();
                    rich_event(&events[j].0, events[j].1, t)
                })
                .collect();
            cfg.before_delivery(dev);
            let seq = idx as u64 + 1;
            if via_call {
                results[idx] = engine.call_monitor(dev, seq, &batch[0])?;
            } else {
                let verdicts = engine.deliver_batch(dev, seq, &batch)?;
                results[idx..idx + n].clone_from_slice(&verdicts);
            }
            dev.nv_write(&cursor, (k + 1) as u32)?;
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

    /// Continuous power: engine ≡ interpreter, verdict for verdict, in
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

    /// Random specs, continuous power: the compiled engine agrees with
    /// the interpreter engine on every verdict (machine, action, path
    /// target) and on the final persistent machine state — routed
    /// worklists, span loads, sparse and whole-block commits, the
    /// shadow cache and the optimizer included.
    #[test]
    fn compiled_equals_interpreter_on_random_specs(
        spec in spec_strategy(),
        events in rich_ev_strategy(),
    ) {
        let app = rich_app();
        let (vi, si) = engine_run_opts(&app, &spec, &events, &mut steady_device(), interpreter());
        for cfg in matrix() {
            let (vc, sc) = engine_run_opts(&app, &spec, &events, &mut steady_device(), cfg);
            prop_assert_eq!(&vc, &vi, "verdict divergence, {:?}, spec: {}", cfg, spec);
            prop_assert_eq!(&sc, &si, "state divergence, {:?}, spec: {}", cfg, spec);
        }
    }

    /// Random specs under random power-failure schedules: the compiled
    /// engine on an intermittent device must match the interpreter on
    /// continuous power — resumability and semantics at once.
    #[test]
    fn compiled_equals_interpreter_under_random_power_failures(
        spec in spec_strategy(),
        events in rich_ev_strategy(),
        budget_nj in 4_000u64..40_000,
    ) {
        let app = rich_app();
        let (vi, si) = engine_run_opts(&app, &spec, &events, &mut steady_device(), interpreter());
        for cfg in matrix() {
            let (vc, sc) =
                engine_run_opts(&app, &spec, &events, &mut flaky_device(budget_nj), cfg);
            prop_assert_eq!(&vc, &vi, "verdicts, budget {} nJ, {:?}, spec: {}", budget_nj, cfg, spec);
            prop_assert_eq!(&sc, &si, "state, budget {} nJ, {:?}, spec: {}", budget_nj, cfg, spec);
        }
    }

    /// Group-commit batch delivery vs the interpreter, on burst-shaped
    /// streams: every verdict and the final FRAM-visible machine state
    /// must agree, for every batch size and configuration.
    #[test]
    fn batched_equals_interpreter_on_burst_streams(
        spec in spec_strategy(),
        events in burst_ev_strategy(),
        chunk in 1usize..5,
    ) {
        let app = rich_app();
        let (vi, si) = engine_run_opts(&app, &spec, &events, &mut steady_device(), interpreter());
        for cfg in matrix() {
            let (vb, sb) = engine_run_batch(&app, &spec, &events, &mut steady_device(), chunk, cfg);
            prop_assert_eq!(&vb, &vi, "batch(chunk {}) verdicts, {:?}, spec: {}", chunk, cfg, spec);
            prop_assert_eq!(&sb, &si, "batch(chunk {}) state, {:?}, spec: {}", chunk, cfg, spec);
        }
    }

    /// Batch delivery on an intermittent device vs the interpreter on
    /// continuous power: reboots land inside the batch window — after
    /// arming, between per-machine commits, during readback — and must
    /// never change a verdict or a variable.
    #[test]
    fn batched_equals_interpreter_under_random_power_failures(
        spec in spec_strategy(),
        events in burst_ev_strategy(),
        chunk in 2usize..5,
        budget_nj in 4_000u64..40_000,
    ) {
        let app = rich_app();
        let (vi, si) = engine_run_opts(&app, &spec, &events, &mut steady_device(), interpreter());
        for cfg in matrix() {
            let (vb, sb) =
                engine_run_batch(&app, &spec, &events, &mut flaky_device(budget_nj), chunk, cfg);
            prop_assert_eq!(&vb, &vi, "verdicts, chunk {}, budget {} nJ, {:?}, spec: {}", chunk, budget_nj, cfg, spec);
            prop_assert_eq!(&sb, &si, "state, chunk {}, budget {} nJ, {:?}, spec: {}", chunk, budget_nj, cfg, spec);
        }
    }

    /// Per-event and batch deliveries interleaved on one capacity-4
    /// engine under random power failures vs the interpreter on
    /// continuous power: both entry points share the one armed
    /// delivery, so neither may clobber the other's pending work.
    #[test]
    fn mixed_delivery_equals_interpreter_under_random_power_failures(
        spec in spec_strategy(),
        events in burst_ev_strategy(),
        plan in proptest::collection::vec((any::<bool>(), 1usize..5), 1..8),
        budget_nj in 4_000u64..40_000,
    ) {
        let app = rich_app();
        let (vi, si) = engine_run_opts(&app, &spec, &events, &mut steady_device(), interpreter());
        for cfg in matrix() {
            let (vm, sm) =
                engine_run_mixed(&app, &spec, &events, &mut flaky_device(budget_nj), &plan, cfg);
            prop_assert_eq!(&vm, &vi, "verdicts, plan {:?}, budget {} nJ, {:?}, spec: {}", plan, budget_nj, cfg, spec);
            prop_assert_eq!(&sm, &si, "state, plan {:?}, budget {} nJ, {:?}, spec: {}", plan, budget_nj, cfg, spec);
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
    /// matches the interpreter on verdicts and FRAM-visible state under
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

        let (vi, si) = engine_run_suite(
            &app, hundred_machine_suite(), &events, &mut steady_device(), interpreter());
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
    let (vf, sf) = engine_run_opts(
        &app,
        CRASH_SPEC,
        &events,
        &mut steady_device(),
        interpreter(),
    );

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
    let (vu, su) = engine_run_opts(
        &app,
        CRASH_SPEC,
        &events,
        &mut dev_u,
        InstallOptions {
            opt: OptLevel::None,
            ..InstallOptions::default()
        },
    );

    let mut total_reboots = 0u64;
    for budget_nj in (700..3_000).step_by(25) {
        let mut dev_o = DeviceBuilder::msp430fr5994()
            .trace_disabled()
            .capacitor(Capacitor::with_budget(Energy::from_nano_joules(budget_nj)))
            .harvester(Harvester::FixedDelay(SimDuration::from_millis(100)))
            .build();
        let (vo, so) = engine_run_opts(
            &app,
            CRASH_SPEC,
            &events,
            &mut dev_o,
            InstallOptions {
                opt: OptLevel::Full,
                ..InstallOptions::default()
            },
        );
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

/// Budget sweep landing brown-outs in every window of the sparse
/// commit: after every recovery point the two correlated counters must
/// be equal (old image or new image, never a mix), and the final state
/// must match a continuous-power interpreter run.
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

    // Continuous-power interpreter reference image.
    let reference = {
        let mut dev = DeviceBuilder::msp430fr5994().trace_disabled().build();
        let suite = artemis_ir::parse::parse_suite(TWIN_IR).unwrap();
        let engine = MonitorEngine::install_with(&mut dev, suite, &app, interpreter()).unwrap();
        engine.reset_monitor(&mut dev).unwrap();
        for seq in 1..=EVENTS {
            engine
                .call_monitor(
                    &mut dev,
                    seq,
                    &MonitorEvent::start(TaskId(0), SimInstant::from_micros(seq * 1_000)),
                )
                .unwrap();
        }
        engine.snapshot(&dev)
    };

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
/// must match a continuous-power interpreter run.
#[test]
fn diff_commit_crash_windows_never_tear() {
    const EVENTS: u64 = 30;
    let app = rich_app();
    let event = |seq: u64| MonitorEvent::start(TaskId(0), SimInstant::from_micros(seq * 1_000));

    // Continuous-power interpreter reference image.
    let reference = {
        let mut dev = DeviceBuilder::msp430fr5994().trace_disabled().build();
        let suite = artemis_ir::parse::parse_suite(TWIN_IR).unwrap();
        let engine = MonitorEngine::install_with(&mut dev, suite, &app, interpreter()).unwrap();
        engine.reset_monitor(&mut dev).unwrap();
        for seq in 1..=EVENTS {
            engine.call_monitor(&mut dev, seq, &event(seq)).unwrap();
        }
        engine.snapshot(&dev)
    };

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
// Batch crash windows (deterministic).
//
// The batch path adds crash windows of its own: inside group 0's record
// of the batch arming, between two commit groups of coalesced machine
// effects (some done bits set), and during verdict readback. The
// same fine-grained budget sweep as the arming tests lands brown-outs
// in each of them; the chunked cursor in `engine_run_batch` then
// redelivers the interrupted batch, exercising the bitmap resume.
// ---------------------------------------------------------------------------

/// Budget sweep over the whole batch protocol on the multi-machine
/// crash stream (delivered twice): verdicts and FRAM state must match
/// the interpreter reference at every budget. The floor sits just above the
/// batch engine's install cost (its four-event array and verdict cells
/// make installation a little dearer than the per-event engine's
/// 700 nJ).
#[test]
fn batch_crash_windows_preserve_verdicts_and_state() {
    let app = rich_app();
    // The crash stream twice over: one commit group per batch on most
    // budgets makes a batch cheap enough that a single pass reboots
    // fewer than the floor's 100 times.
    let events = [crash_events(), crash_events()].concat();
    let (vf, sf) = engine_run_opts(
        &app,
        CRASH_SPEC,
        &events,
        &mut steady_device(),
        interpreter(),
    );

    let mut total_reboots = 0u64;
    for budget_nj in (900..3_200).step_by(25) {
        let mut dev_b = flaky_device(budget_nj);
        let (vb, sb) = engine_run_batch(
            &app,
            CRASH_SPEC,
            &events,
            &mut dev_b,
            4,
            InstallOptions::default(),
        );
        assert_eq!(vb, vf, "verdict divergence at budget {budget_nj} nJ");
        assert_eq!(sb, sf, "state divergence at budget {budget_nj} nJ");
        total_reboots += dev_b.reboots();
    }
    assert!(
        total_reboots > 100,
        "sweep too gentle to hit the batch crash windows ({total_reboots} reboots)"
    );
}

// ---------------------------------------------------------------------------
// Shadow-cache crash windows, always cold (deterministic).
//
// The cache is strictly write-through, so its only failure modes are
// stale RAM surviving a reboot, a wipe landing between two of the FRAM
// writes that make up a delivery (group records, plain done writes,
// batch finalize), and a cold fill reading a half-updated
// region. The warm sweeps above cover the first two; these clear SRAM
// before every delivery, so every delivery cold-fills its shadows and
// the brown-outs land inside those fills too. The runs must match a
// continuous-power interpreter reference.
// ---------------------------------------------------------------------------

/// Per-event always-cold delivery under the arming/commit crash sweep:
/// every budget reboots mid-delivery, at every possible FRAM-write
/// boundary, and must still match the interpreter's verdicts and
/// FRAM-visible state.
#[test]
fn cached_crash_windows_preserve_verdicts_and_state() {
    let app = rich_app();
    let events = crash_events();
    let (vf, sf) = engine_run_opts(
        &app,
        CRASH_SPEC,
        &events,
        &mut steady_device(),
        interpreter(),
    );

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

/// Batch always-cold delivery under the batch crash sweep: brown-outs
/// land inside group 0's record of the batch arming, between commit
/// groups, and during the finalize/readback window, each after a cold
/// fill.
#[test]
fn cached_batch_crash_windows_preserve_verdicts_and_state() {
    let app = rich_app();
    let events = crash_events();
    let (vf, sf) = engine_run_opts(
        &app,
        CRASH_SPEC,
        &events,
        &mut steady_device(),
        interpreter(),
    );

    let mut total_reboots = 0u64;
    for budget_nj in (900..3_200).step_by(25) {
        let mut dev_c = flaky_device(budget_nj);
        let (vc, sc) = engine_run_batch(&app, CRASH_SPEC, &events, &mut dev_c, 4, always_cold());
        assert_eq!(vc, vf, "verdict divergence at budget {budget_nj} nJ");
        assert_eq!(sc, sf, "state divergence at budget {budget_nj} nJ");
        total_reboots += dev_c.reboots();
    }
    assert!(
        total_reboots > 100,
        "sweep too gentle to hit the cached batch crash windows ({total_reboots} reboots)"
    );
}

/// A fully committed batch redelivered after multiple reboots must be
/// a pure no-op: same verdicts back, not one byte of FRAM-visible
/// machine state changed, no machine re-stepped.
#[test]
fn redelivered_completed_batch_is_a_noop() {
    let app = rich_app();
    let events = crash_events();
    let suite = artemis_ir::compile(CRASH_SPEC, &app).unwrap();
    let mut dev = DeviceBuilder::msp430fr5994().build();
    let engine = MonitorEngine::install_with(
        &mut dev,
        suite,
        &app,
        InstallOptions {
            batch: BatchMode::Enabled { max_events: 4 },
            ..InstallOptions::default()
        },
    )
    .unwrap();
    engine.reset_monitor(&mut dev).unwrap();

    // Deliver the stream in batches of 4, keeping the last batch.
    let timed: Vec<MonitorEvent> = {
        let mut t = 0u64;
        events
            .iter()
            .map(|(e, dep)| {
                t += e.gap_ms * 1_000;
                rich_event(e, *dep, t)
            })
            .collect()
    };
    let mut seq = 1u64;
    let mut verdicts = Vec::new();
    let mut idx = 0usize;
    while idx < timed.len() {
        let n = 4.min(timed.len() - idx);
        seq = idx as u64 + 1;
        verdicts = engine
            .deliver_batch(&mut dev, seq, &timed[idx..idx + n])
            .unwrap();
        idx += n;
    }
    let batch = &timed[(seq - 1) as usize..];
    let snap = engine.snapshot(&dev);

    // Replay the committed batch across several reboots: the sequence
    // check must short-circuit everything but the verdict readback.
    for round in 0..3 {
        dev.power_cycle();
        assert!(
            !engine.monitor_finalize(&mut dev).unwrap(),
            "nothing may be pending on round {round}"
        );
        let again = engine.deliver_batch(&mut dev, seq, batch).unwrap();
        assert_eq!(again, verdicts, "verdicts changed on round {round}");
        assert_eq!(
            engine.snapshot(&dev),
            snap,
            "state changed on round {round}"
        );
    }
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
