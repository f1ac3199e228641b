//! Behavioural tests for the ARTEMIS runtime.

use artemis_core::action::Action;
use artemis_core::app::{AppGraph, AppGraphBuilder, PathId};
use artemis_core::time::SimDuration;
use artemis_core::trace::TraceEvent;
use intermittent_sim::capacitor::Capacitor;
use intermittent_sim::device::{Device, DeviceBuilder};
use intermittent_sim::energy::Energy;
use intermittent_sim::harvester::Harvester;
use intermittent_sim::peripherals::Peripheral;
use intermittent_sim::simulator::{RunLimit, SimOutcome};

use crate::{ArtemisRuntime, ArtemisRuntimeBuilder, RunOutcome, CHANNEL_CAPACITY};

fn continuous_device() -> Device {
    DeviceBuilder::msp430fr5994().build()
}

fn intermittent_device(budget_uj: u64, delay: SimDuration) -> Device {
    DeviceBuilder::msp430fr5994()
        .capacitor(Capacitor::with_budget(Energy::from_micro_joules(budget_uj)))
        .harvester(Harvester::FixedDelay(delay))
        .build()
}

/// Two tasks, one path: sense pushes a sample, send consumes.
fn sense_send_app() -> AppGraph {
    let mut b = AppGraphBuilder::new();
    let sense = b.task("sense");
    let send = b.task("send");
    b.path(&[sense, send]);
    b.build().unwrap()
}

fn install(dev: &mut Device, app: &AppGraph, spec: &str) -> ArtemisRuntime {
    let suite = artemis_ir::compile(spec, app).unwrap();
    builder(app).install(dev, suite).unwrap()
}

/// [`sense_send_app`]'s runtime builder: its channels and task bodies.
fn builder(app: &AppGraph) -> ArtemisRuntimeBuilder {
    let mut rb = ArtemisRuntimeBuilder::new(app.clone());
    rb.channel("samples");
    rb.channel("sent");
    rb.body("sense", |ctx| {
        let v = ctx.sample(Peripheral::TemperatureAdc)?;
        ctx.push("samples", v)
    });
    rb.body("send", |ctx| {
        // Several small bursts so power failures can land mid-task.
        for _ in 0..5 {
            ctx.compute(2_000)?;
        }
        let n = ctx.channel_len("samples")? as f64;
        ctx.consume("samples")?;
        // Committed exactly once per completed send execution.
        ctx.push("sent", n)
    });
    rb
}

/// Committed number of `send` executions, read from FRAM (robust even
/// when a power failure hides the TaskEnd trace line inside a commit).
fn committed_sends(rt: &ArtemisRuntime, dev: &mut Device) -> usize {
    let ch = rt.channel("sent").unwrap();
    let tx = intermittent_sim::journal::TxWriter::new();
    ch.len(dev, &tx).unwrap()
}

#[test]
fn completes_on_continuous_power() {
    let mut dev = continuous_device();
    let app = sense_send_app();
    let mut rt = install(&mut dev, &app, "");
    let outcome = rt.run_once(&mut dev, RunLimit::unbounded());
    assert_eq!(
        outcome,
        SimOutcome::Completed(RunOutcome {
            completed: vec![PathId(0)],
            skipped: vec![],
            emergency: false,
        })
    );
    let trace = dev.trace();
    assert_eq!(trace.completions_of(app.task_by_name("sense").unwrap()), 1);
    assert_eq!(trace.completions_of(app.task_by_name("send").unwrap()), 1);
}

#[test]
fn completes_across_power_failures_without_duplicating_commits() {
    // Small budget: several failures per run. The channel must hold
    // exactly one sample regardless of how many times `sense` was
    // re-attempted.
    let mut dev = intermittent_device(8, SimDuration::from_secs(1));
    let app = sense_send_app();
    let mut rt = install(&mut dev, &app, "");
    let outcome = rt.run_once(&mut dev, RunLimit::reboots(100_000));
    let out = outcome.completed().expect("must complete");
    assert!(out.all_completed());
    assert!(dev.reboots() > 0, "test needs power failures");
    // `send` committed exactly once, and it consumed exactly one staged
    // sample: duplicated commits would show up in either number.
    assert_eq!(committed_sends(&rt, &mut dev), 1);
    let ch = rt.channel("sent").unwrap();
    let tx = intermittent_sim::journal::TxWriter::new();
    assert_eq!(ch.read_all(&mut dev, &tx).unwrap(), vec![1.0]);
}

#[test]
fn crash_consistent_result_matches_continuous_run() {
    // Property-style check across budgets: the committed application
    // result must be identical to the continuous-power run.
    let app = sense_send_app();

    let mut cont = continuous_device();
    let mut rt = install(&mut cont, &app, "");
    rt.run_once(&mut cont, RunLimit::unbounded())
        .completed()
        .unwrap();
    let expected = committed_sends(&rt, &mut cont);

    for budget_nj in [6_000u64, 8_000, 11_000, 16_000, 25_000, 60_000] {
        let mut dev = DeviceBuilder::msp430fr5994()
            .capacitor(Capacitor::with_budget(Energy::from_nano_joules(budget_nj)))
            .harvester(Harvester::FixedDelay(SimDuration::from_secs(1)))
            .build();
        let mut rt = install(&mut dev, &app, "");
        let out = rt.run_once(&mut dev, RunLimit::reboots(1_000_000));
        let out = out
            .completed()
            .unwrap_or_else(|| panic!("budget {budget_nj} nJ did not complete"));
        assert!(out.all_completed(), "budget {budget_nj}");
        assert_eq!(
            committed_sends(&rt, &mut dev),
            expected,
            "budget {budget_nj} nJ diverged from continuous run"
        );
    }
}

#[test]
fn collect_property_restarts_path_until_enough_samples() {
    let mut dev = continuous_device();
    let app = sense_send_app();
    let mut rt = install(
        &mut dev,
        &app,
        "send { collect: 3 dpTask: sense onFail: restartPath; }",
    );
    let out = rt
        .run_once(&mut dev, RunLimit::unbounded())
        .completed()
        .unwrap();
    assert!(out.all_completed());
    let sense = app.task_by_name("sense").unwrap();
    // Path restarted twice: three sense completions before send passed.
    assert_eq!(dev.trace().completions_of(sense), 3);
    assert_eq!(
        dev.trace()
            .count(|e| matches!(e, TraceEvent::ActionTaken { action } if action.restarts_path())),
        2
    );
}

#[test]
fn max_tries_skips_path_when_task_cannot_complete() {
    // A task more expensive than the whole capacitor budget would
    // power-fail forever; maxTries must bound the attempts and skip.
    let mut b = AppGraphBuilder::new();
    let greedy = b.task("greedy");
    let modest = b.task("modest");
    b.path(&[greedy]);
    b.path(&[modest]);
    let app = b.build().unwrap();

    // 50 µJ budget; `greedy` needs an accel sample (300 µJ) - but that
    // would fault as impossible. Use repeated compute bursts that in
    // total exceed the budget so each attempt browns out mid-way.
    let mut dev = intermittent_device(50, SimDuration::from_secs(30));
    let suite = artemis_ir::compile("greedy { maxTries: 5 onFail: skipPath; }", &app).unwrap();
    let mut rb = ArtemisRuntimeBuilder::new(app.clone());
    rb.body("greedy", |ctx| {
        // ~216 µJ of compute in small bursts: never fits in 50 µJ, and
        // each burst is small enough to brown out between bursts.
        for _ in 0..60 {
            ctx.compute(10_000)?;
        }
        Ok(())
    });
    rb.body("modest", |ctx| ctx.compute(1_000));
    let mut rt = rb.install(&mut dev, suite).unwrap();

    let out = rt
        .run_once(&mut dev, RunLimit::reboots(1_000))
        .completed()
        .expect("maxTries must rescue the run");
    assert_eq!(out.skipped, vec![PathId(0)]);
    assert_eq!(out.completed, vec![PathId(1)]);

    let greedy_id = app.task_by_name("greedy").unwrap();
    // Exactly maxTries start attempts were allowed.
    assert_eq!(dev.trace().attempts_of(greedy_id), 5);
    assert_eq!(dev.trace().completions_of(greedy_id), 0);
}

#[test]
fn mitd_with_max_attempt_skips_after_three_restarts() {
    // The Figure 13 scenario: the delay between the producer's end and
    // the consumer's start always exceeds the MITD, so each path
    // attempt fails; after three attempts the path is skipped and the
    // run completes. The 1.5 s `classify` stage models the charging
    // delay of the paper's testbed deterministically.
    let mut b = AppGraphBuilder::new();
    let accel = b.task("accel");
    let classify = b.task("classify");
    let send = b.task("send");
    b.path(&[accel, classify, send]);
    let app = b.build().unwrap();

    let mut dev = continuous_device();
    let suite = artemis_ir::compile(
        "send { MITD: 1s dpTask: accel onFail: restartPath maxAttempt: 3 onFail: skipPath; }",
        &app,
    )
    .unwrap();
    let mut rb = ArtemisRuntimeBuilder::new(app.clone());
    rb.body("accel", |ctx| ctx.compute(10_000));
    rb.body("classify", |ctx| {
        ctx.idle(SimDuration::from_micros(1_500_000))
    });
    rb.body("send", |ctx| ctx.compute(1_000));
    let mut rt = rb.install(&mut dev, suite).unwrap();

    let out = rt
        .run_once(&mut dev, RunLimit::sim_time(SimDuration::from_mins(30)))
        .completed()
        .expect("maxAttempt must prevent non-termination");
    assert_eq!(out.skipped, vec![PathId(0)]);

    // Three MITD violations: two primary restarts + one escalation.
    let restarts = dev
        .trace()
        .count(|e| matches!(e, TraceEvent::ActionTaken { action } if action.restarts_path()));
    assert_eq!(restarts, 2);
    let skips = dev
        .trace()
        .count(|e| matches!(e, TraceEvent::PathSkipped { .. }));
    assert_eq!(skips, 1);
}

#[test]
fn dp_data_out_of_range_triggers_emergency_complete_path() {
    let mut b = AppGraphBuilder::new();
    let temp = b.task_with_var("temp", "avg");
    let alert = b.task("alert");
    let other = b.task("other");
    b.path(&[temp, alert]);
    b.path(&[other]);
    let app = b.build().unwrap();

    let mut dev = continuous_device();
    let suite = artemis_ir::compile(
        "temp { dpData: avg Range: [36, 38] onFail: completePath; }",
        &app,
    )
    .unwrap();
    let mut rb = ArtemisRuntimeBuilder::new(app.clone());
    rb.body("temp", |ctx| {
        ctx.compute(1_000)?;
        ctx.set_monitored(39.5); // fever!
        Ok(())
    });
    rb.body("alert", |ctx| ctx.transmit(16));
    rb.body("other", |ctx| ctx.compute(1_000));
    let mut rt = rb.install(&mut dev, suite).unwrap();

    let out = rt
        .run_once(&mut dev, RunLimit::unbounded())
        .completed()
        .unwrap();
    assert!(out.emergency);
    // Path 1 completed (alert ran, unmonitored); path 2 never executed.
    assert_eq!(out.completed, vec![PathId(0)]);
    assert_eq!(out.skipped, vec![PathId(1)]);
    assert_eq!(
        dev.trace()
            .completions_of(app.task_by_name("alert").unwrap()),
        1
    );
    assert_eq!(
        dev.trace().attempts_of(app.task_by_name("other").unwrap()),
        0
    );
}

#[test]
fn dp_data_in_range_runs_normally() {
    let mut b = AppGraphBuilder::new();
    let temp = b.task_with_var("temp", "avg");
    let other = b.task("other");
    b.path(&[temp]);
    b.path(&[other]);
    let app = b.build().unwrap();

    let mut dev = continuous_device();
    let suite = artemis_ir::compile(
        "temp { dpData: avg Range: [36, 38] onFail: completePath; }",
        &app,
    )
    .unwrap();
    let mut rb = ArtemisRuntimeBuilder::new(app.clone());
    rb.body("temp", |ctx| {
        ctx.compute(1_000)?;
        ctx.set_monitored(36.8);
        Ok(())
    });
    rb.body("other", |ctx| ctx.compute(1_000));
    let mut rt = rb.install(&mut dev, suite).unwrap();
    let out = rt
        .run_once(&mut dev, RunLimit::unbounded())
        .completed()
        .unwrap();
    assert!(out.all_completed());
    assert_eq!(out.completed.len(), 2);
}

#[test]
fn max_duration_violation_skips_task() {
    let mut b = AppGraphBuilder::new();
    let slow = b.task("slow");
    let tail = b.task("tail");
    b.path(&[slow, tail]);
    let app = b.build().unwrap();

    let mut dev = continuous_device();
    let suite = artemis_ir::compile("slow { maxDuration: 10ms onFail: skipTask; }", &app).unwrap();
    let mut rb = ArtemisRuntimeBuilder::new(app.clone());
    rb.body("slow", |ctx| ctx.compute(50_000)); // 50 ms at 1 MHz
    rb.body("tail", |ctx| ctx.compute(1_000));
    let mut rt = rb.install(&mut dev, suite).unwrap();

    let out = rt
        .run_once(&mut dev, RunLimit::unbounded())
        .completed()
        .unwrap();
    // The path still completes: the task's completion was too late but
    // the violation's action (skipTask) just moves on.
    assert_eq!(out.completed, vec![PathId(0)]);
    let violations = dev
        .trace()
        .count(|e| matches!(e, TraceEvent::Violation { .. }));
    assert!(violations >= 1, "maxDuration violation must be reported");
}

#[test]
fn energy_property_skips_task_when_capacitor_is_low() {
    let mut b = AppGraphBuilder::new();
    let hungry = b.task("hungry");
    let frugal = b.task("frugal");
    b.path(&[hungry, frugal]);
    let app = b.build().unwrap();

    // 100 µJ capacitor; the property requires 200 µJ: never satisfied.
    let mut dev = intermittent_device(100, SimDuration::from_secs(1));
    let suite = artemis_ir::compile("hungry { energy: 200uJ onFail: skipTask; }", &app).unwrap();
    let mut rb = ArtemisRuntimeBuilder::new(app.clone());
    rb.body("hungry", |ctx| ctx.compute(10_000));
    rb.body("frugal", |ctx| ctx.compute(1_000));
    let mut rt = rb.install(&mut dev, suite).unwrap();

    let out = rt
        .run_once(&mut dev, RunLimit::reboots(100))
        .completed()
        .unwrap();
    assert_eq!(out.completed, vec![PathId(0)]);
    assert_eq!(
        dev.trace()
            .completions_of(app.task_by_name("hungry").unwrap()),
        0
    );
    assert_eq!(
        dev.trace()
            .completions_of(app.task_by_name("frugal").unwrap()),
        1
    );
}

#[test]
fn rearm_supports_repeated_runs_and_period_property() {
    let mut dev = continuous_device();
    let app = sense_send_app();
    let mut rt = install(
        &mut dev,
        &app,
        "sense { period: 10min onFail: restartTask; }",
    );
    for run in 0..3 {
        let out = rt.run_once(&mut dev, RunLimit::unbounded());
        assert!(out.is_completed(), "run {run} failed: {out:?}");
        rt.rearm(&mut dev).unwrap();
    }
    // Back-to-back runs are far faster than 10 min: no violations.
    assert_eq!(
        dev.trace()
            .count(|e| matches!(e, TraceEvent::Violation { .. })),
        0
    );

    // Now stall past the period between runs: the next sense start
    // violates and restarts the task (restartTask on a READY task just
    // runs it, so the run still completes).
    let long = SimDuration::from_mins(15);
    dev.idle(long).unwrap();
    let out = rt.run_once(&mut dev, RunLimit::unbounded());
    assert!(out.is_completed());
    assert!(
        dev.trace()
            .count(|e| matches!(e, TraceEvent::Violation { .. }))
            >= 1,
        "stalled run must violate the period property"
    );
}

#[test]
fn overheads_are_attributed_to_categories() {
    use intermittent_sim::device::CostCategory;

    let mut dev = continuous_device();
    let app = sense_send_app();
    let mut rt = install(&mut dev, &app, "sense { maxTries: 10 onFail: skipPath; }");
    rt.run_once(&mut dev, RunLimit::unbounded())
        .completed()
        .unwrap();
    let stats = dev.stats();
    let app_t = stats.time(CostCategory::App);
    let rt_t = stats.time(CostCategory::Runtime);
    let mon_t = stats.time(CostCategory::Monitor);
    assert!(app_t > SimDuration::ZERO);
    assert!(rt_t > SimDuration::ZERO);
    assert!(mon_t > SimDuration::ZERO);
    // The paper's Figure 14 shape: overheads are small next to the app.
    assert!(
        app_t > rt_t + mon_t,
        "app {app_t} vs rt {rt_t} + mon {mon_t}"
    );
}

/// Every FRAM access of an intermittent run — task bodies, runtime
/// commits, monitor deliveries and boot recoveries — lands in exactly
/// one category's counters, and they sum to the arena's own.
#[test]
fn fram_traffic_categories_sum_to_the_arena_counters() {
    use intermittent_sim::device::CostCategory;

    let mut dev = intermittent_device(8, SimDuration::from_secs(1));
    let app = sense_send_app();
    let mut rt = install(&mut dev, &app, "sense { maxTries: 10 onFail: skipPath; }");
    rt.run_once(&mut dev, RunLimit::reboots(100_000))
        .completed()
        .unwrap();
    assert!(dev.reboots() > 0, "test needs power failures");
    let stats = dev.stats();
    assert_eq!(stats.fram_total(), dev.fram().traffic());
    for c in CostCategory::ALL {
        let t = stats.fram(c);
        assert!(t.read_ops > 0 && t.write_ops > 0, "{c:?}: {t:?}");
    }
}

/// The spec checker's `collect` bound is the runtime's channel
/// capacity: a count that fits one channel is accepted, one more is a
/// contradiction.
#[test]
fn collect_bound_tracks_the_channel_capacity() {
    use artemis_spec::consistency::check;

    let app = sense_send_app();
    for (count, fits) in [(CHANNEL_CAPACITY, true), (CHANNEL_CAPACITY + 1, false)] {
        let spec = format!("send {{ collect: {count} dpTask: sense onFail: restartPath; }}");
        let set = artemis_spec::compile(&spec, &app).unwrap();
        let contradiction = check(&set, &app).iter().any(|d| d.is_error());
        assert_eq!(contradiction, !fits, "collect: {count}");
    }
}

#[test]
fn unmonitored_spec_mode_works_without_machines() {
    // An empty specification yields zero monitors; the runtime must
    // still drive the app correctly.
    let mut dev = continuous_device();
    let app = sense_send_app();
    let mut rt = install(&mut dev, &app, "");
    assert_eq!(rt.engine().machine_count(), 0);
    let out = rt.run_once(&mut dev, RunLimit::unbounded());
    assert!(out.is_completed());
}

#[test]
fn start_triggered_complete_path_runs_task_unmonitored() {
    // `energy … onFail: completePath`: fires at task START; the runtime
    // must suspend monitoring, still run the task, finish the path, and
    // end the run without visiting further paths.
    let mut b = AppGraphBuilder::new();
    let hungry = b.task("hungry");
    let tail = b.task("tail");
    let other = b.task("other");
    b.path(&[hungry, tail]);
    b.path(&[other]);
    let app = b.build().unwrap();

    // Capacitor holds 100 µJ; the property wants 200 µJ: fires on the
    // very first start.
    let mut dev = intermittent_device(100, SimDuration::from_secs(1));
    let suite =
        artemis_ir::compile("hungry { energy: 200uJ onFail: completePath; }", &app).unwrap();
    let mut rb = ArtemisRuntimeBuilder::new(app.clone());
    rb.body("hungry", |ctx| ctx.compute(1_000));
    rb.body("tail", |ctx| ctx.compute(1_000));
    rb.body("other", |ctx| ctx.compute(1_000));
    let mut rt = rb.install(&mut dev, suite).unwrap();

    let out = rt
        .run_once(&mut dev, RunLimit::reboots(100))
        .completed()
        .unwrap();
    assert!(out.emergency, "{out:?}");
    assert_eq!(out.completed, vec![PathId(0)]);
    assert_eq!(out.skipped, vec![PathId(1)]);
    // The guarded task itself still ran (completePath suspends
    // monitoring rather than skipping work).
    assert_eq!(
        dev.trace()
            .completions_of(app.task_by_name("hungry").unwrap()),
        1
    );
    assert_eq!(
        dev.trace()
            .completions_of(app.task_by_name("tail").unwrap()),
        1
    );
    assert_eq!(
        dev.trace().attempts_of(app.task_by_name("other").unwrap()),
        0
    );
}

/// Each `completePath` verdict is obeyed, and traced as obeyed, once:
/// at a `StartTask` (an `energy` bound) and at an `EndTask` (a `dpData`
/// range), the trace holds exactly one `ActionTaken` per `Violation`.
#[test]
fn complete_path_is_traced_once_per_verdict() {
    let mut b = AppGraphBuilder::new();
    let first = b.task_with_var("first", "avg");
    let tail = b.task("tail");
    b.path(&[first, tail]);
    let app = b.build().unwrap();

    for spec in [
        "first { energy: 200uJ onFail: completePath; }",
        "first { dpData: avg Range: [36, 38] onFail: completePath; }",
    ] {
        let mut dev = intermittent_device(100, SimDuration::from_secs(1));
        let suite = artemis_ir::compile(spec, &app).unwrap();
        let mut rb = ArtemisRuntimeBuilder::new(app.clone());
        rb.body("first", |ctx| {
            ctx.compute(1_000)?;
            ctx.set_monitored(39.5);
            Ok(())
        });
        rb.body("tail", |ctx| ctx.compute(1_000));
        let mut rt = rb.install(&mut dev, suite).unwrap();
        let out = rt
            .run_once(&mut dev, RunLimit::reboots(100))
            .completed()
            .unwrap();
        assert!(out.emergency, "{spec}: {out:?}");

        let complete_path = |a: &Action| matches!(a, Action::CompletePath(_));
        let verdicts = dev
            .trace()
            .count(|e| matches!(e, TraceEvent::Violation { action, .. } if complete_path(action)));
        let taken = dev
            .trace()
            .count(|e| matches!(e, TraceEvent::ActionTaken { action } if complete_path(action)));
        assert_eq!(verdicts, 1, "{spec}");
        assert_eq!(taken, verdicts, "{spec}: one ActionTaken per verdict");
    }
}

/// `send`'s `StartTask` is judged after any outage that precedes the
/// attempt it opens: an MITD bound on `sense` shorter than the recharge
/// delay must fire whenever a power failure lands between `sense`'s task
/// commit and `send`'s attempt write. A crash is injected before every
/// FRAM write of the continuous run in turn; the trace orders `sense`'s
/// `TaskEnd`, the failure and `send`'s first `TaskStart`.
#[test]
fn start_events_are_judged_after_the_outage_they_follow() {
    let app = sense_send_app();
    let spec = "send { MITD: 100ms dpTask: sense onFail: restartPath; }";
    let sense = app.task_by_name("sense").unwrap();
    let send = app.task_by_name("send").unwrap();
    let run = |crash: u64| {
        let mut dev = intermittent_device(100_000, SimDuration::from_secs(1));
        let mut rt = install(&mut dev, &app, spec);
        let writes0 = dev.fram().write_ops();
        dev.fail_before_write(crash);
        let out = rt
            .run_once(&mut dev, RunLimit::reboots(16))
            .completed()
            .unwrap_or_else(|| panic!("crash before write {crash}: run never finished"));
        assert!(out.all_completed(), "crash before write {crash}");
        (dev.fram().write_ops() - writes0, dev)
    };
    let violated = |dev: &Device| {
        dev.trace()
            .count(|e| matches!(e, TraceEvent::Violation { task, .. } if *task == send))
    };
    let (writes, steady) = run(0);
    assert_eq!(steady.reboots(), 0);
    assert_eq!(
        violated(&steady),
        0,
        "premise: no violation on continuous power"
    );

    let mut window = 0;
    for k in 1..=writes {
        let (_, dev) = run(k);
        let events: Vec<&TraceEvent> = dev.trace().records().map(|r| &r.event).collect();
        let first = |p: &dyn Fn(&TraceEvent) -> bool| events.iter().position(|e| p(e));
        let end = first(&|e| matches!(e, TraceEvent::TaskEnd { task } if *task == sense));
        let failure = first(&|e| matches!(e, TraceEvent::PowerFailure));
        let start = first(&|e| matches!(e, TraceEvent::TaskStart { task, .. } if *task == send));
        if let (Some(end), Some(failure), Some(start)) = (end, failure, start) {
            if end < failure && failure < start {
                window += 1;
                assert!(
                    violated(&dev) > 0,
                    "crash before write {k}: stale StartTask"
                );
            }
        }
    }
    assert!(
        window >= 10,
        "premise: only {window} crash points in the window"
    );
}

#[test]
fn end_triggered_restart_task_reruns_until_in_budget() {
    // A transient overrun: the first execution exceeds maxDuration, the
    // re-run (warm caches, in this model: a captured flag) is fast.
    // Atomic rather than Rc<Cell<_>>: task bodies are Send.
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let mut b = AppGraphBuilder::new();
    let warm = b.task("warm");
    b.path(&[warm]);
    let app = b.build().unwrap();

    let mut dev = continuous_device();
    let suite =
        artemis_ir::compile("warm { maxDuration: 10ms onFail: restartTask; }", &app).unwrap();
    let first = Arc::new(AtomicBool::new(true));
    let flag = Arc::clone(&first);
    let mut rb = ArtemisRuntimeBuilder::new(app.clone());
    rb.body("warm", move |ctx| {
        if flag.swap(false, Ordering::Relaxed) {
            ctx.compute(50_000) // 50 ms: overruns
        } else {
            ctx.compute(2_000) // 2 ms: fine
        }
    });
    let mut rt = rb.install(&mut dev, suite).unwrap();

    let out = rt
        .run_once(&mut dev, RunLimit::sim_time(SimDuration::from_mins(1)))
        .completed()
        .expect("the warm re-run must satisfy the deadline");
    assert!(out.all_completed());
    let warm_id = app.task_by_name("warm").unwrap();
    assert_eq!(
        dev.trace().completions_of(warm_id),
        2,
        "one overrun + one re-run"
    );
    assert_eq!(
        dev.trace().count(|e| matches!(
            e,
            TraceEvent::ActionTaken {
                action: Action::RestartTask
            }
        )),
        1
    );
}

/// A delivery's commit groups are cut where a group's cold cost from a
/// full charge meets the capacitor budget less its margin, and nothing
/// of a delivery persists until group 0's record lands. At a budget
/// exactly on a group-0 boundary the runtime's own boot work (journal
/// recovery, cursor reads, the sequence write), which the cut does not
/// price, runs before that group on every attempt; on a harvester that
/// only recharges between outages the run must still complete.
#[test]
fn deliveries_progress_at_every_group_zero_boundary() {
    use artemis_core::event::EventKind;
    use artemis_ir::analysis::{commit_groups, done_bytes, MemberCost};
    use artemis_ir::compile::CompiledSuite;
    use intermittent_sim::EnergyProfile;

    let mut b = AppGraphBuilder::new();
    let src = b.task_with_var("src", "v");
    let dst = b.task("dst");
    b.path(&[src, dst]);
    let app = b.build().unwrap();
    // Four machines route EndTask(src) and three StartTask(dst); no
    // property can fail, so every run must complete its path.
    let spec = "src { dpData: v Range: [0, 100] onFail: skipTask; }\n\
                src { maxDuration: 1h onFail: skipTask; }\n\
                dst { collect: 1 dpTask: src onFail: restartPath; }\n\
                dst { MITD: 1h dpTask: src onFail: restartPath; }";
    let suite = artemis_ir::compile(spec, &app).unwrap();
    let compiled = CompiledSuite::compile(&suite, &app).unwrap();
    let done_b = done_bytes(compiled.machines().len());
    let groups_at = |kind: EventKind, task: u32, pj: u64| {
        let members = compiled.routing().interested(kind, task).iter().map(|&m| {
            MemberCost::routed(
                &compiled.machines()[m as usize],
                core::iter::once((kind, task)),
            )
        });
        let mut ends = Vec::new();
        let profile = EnergyProfile::with_budget(Energy::from_pico_joules(pj));
        commit_groups(members, done_b, &profile, &mut ends);
        ends
    };

    // Every budget (in pJ) at which some key's group 0 grows to two or
    // more members, found by bisecting the partition over the range.
    let (lo, hi) = (1_000u64, 20_000_000u64);
    let mut edges = Vec::new();
    for kind in [EventKind::StartTask, EventKind::EndTask] {
        for task in [src.0, dst.0] {
            assert_eq!(
                groups_at(kind, task, hi).len(),
                1,
                "premise: one group at the top"
            );
            let mut spans = vec![(lo, hi)];
            while let Some((a, z)) = spans.pop() {
                if groups_at(kind, task, a) == groups_at(kind, task, z) {
                    continue;
                }
                if z - a == 1 {
                    let ends = groups_at(kind, task, z);
                    if ends[0] >= 2 {
                        edges.push((z, ends));
                    }
                    continue;
                }
                let mid = a + (z - a) / 2;
                spans.push((a, mid));
                spans.push((mid, z));
            }
        }
    }
    assert!(
        edges.iter().any(|(_, ends)| ends[0] == 2 && ends.len() > 1),
        "premise: a two-member group 0 with a later group: {edges:?}"
    );

    for (pj, ends) in edges {
        // Installed on tethered power, so the run starts from a full
        // capacitor however the install's own draw compares with it.
        let mut dev = DeviceBuilder::msp430fr5994()
            .capacitor(Capacitor::with_budget(Energy::from_pico_joules(pj)))
            .harvester(Harvester::Continuous)
            .build();
        let mut rb = ArtemisRuntimeBuilder::new(app.clone());
        rb.body("src", |ctx| {
            ctx.set_monitored(50.0);
            ctx.compute(10)
        });
        rb.body("dst", |ctx| ctx.compute(10));
        let mut rt = rb.install(&mut dev, suite.clone()).unwrap();
        assert_eq!(dev.energy_level(), dev.energy_budget());
        dev.set_harvester(Harvester::FixedDelay(SimDuration::from_secs(1)));
        let out = rt
            .run_once(&mut dev, RunLimit::reboots(1_000))
            .completed()
            .unwrap_or_else(|| panic!("no progress at {pj} pJ (groups {ends:?})"));
        assert!(out.all_completed(), "{pj} pJ (groups {ends:?})");
        assert!(dev.reboots() > 0, "premise: outages at {pj} pJ");
    }
}

/// Journal records of one continuous run of [`sense_send_app`] — its
/// `sense` task's cost declared if `declared` — under the deployment
/// `deploy` installs on a device that first ran the app under the
/// local engine if `after_local`. Under the local engine `sense`'s
/// `EndTask` delivery rides its record either way: by its declared
/// cost's proof, or, undeclared, because the full capacitor holds its
/// admission ceiling.
fn records_without_a_local_engine<M: crate::Monitoring>(
    declared: bool,
    after_local: bool,
    deploy: impl Fn(&mut Device, ArtemisRuntimeBuilder) -> ArtemisRuntime<M>,
) -> u64 {
    let mut app = sense_send_app();
    if declared {
        let mut b = AppGraphBuilder::new();
        let sense = b.task("sense");
        let send = b.task("send");
        b.task_cost(
            sense,
            artemis_core::app::TaskCostDecl {
                compute_cycles: 1_000,
                ..Default::default()
            },
        );
        b.path(&[sense, send]);
        app = b.build().unwrap();
    }
    let mut dev = continuous_device();
    if after_local {
        let mut rt = install(&mut dev, &app, "sense { maxTries: 3 onFail: skipTask; }");
        assert!(rt.run_once(&mut dev, RunLimit::unbounded()).is_completed());
        assert!(dev.riding_records() > 0, "premise: rides");
    }
    let mut rt = deploy(&mut dev, builder(&app));
    let before = dev.journal_records();
    let out = rt.run_once(&mut dev, RunLimit::unbounded());
    assert!(out.completed().is_some_and(|o| o.all_completed()));
    dev.journal_records() - before
}

/// Only the local engine lets a delivery ride the runtime's record.
/// Without it — no monitoring, or the remote monitor — every task
/// commits at `taskFinish` and its outcome apart, as before deliveries
/// could ride, so a power failure before the outcome never re-executes
/// a task: four records for the two tasks, also for a task with a
/// declared cost, and also on a device a local engine ran on first.
#[test]
fn deployments_without_a_local_engine_keep_separate_commits() {
    for declared in [false, true] {
        for after_local in [false, true] {
            let none = records_without_a_local_engine(declared, after_local, |dev, rb| {
                rb.install_with(dev, artemis_monitor::NoMonitoring).unwrap()
            });
            let remote = records_without_a_local_engine(declared, after_local, |dev, rb| {
                let suite =
                    artemis_ir::compile("sense { maxTries: 3 onFail: skipTask; }", rb.app())
                        .unwrap();
                let engine =
                    artemis_monitor::RemoteMonitorEngine::install(dev, suite, rb.app()).unwrap();
                rb.install_with(dev, engine).unwrap()
            });
            assert_eq!(
                (none, remote),
                (4, 4),
                "declared {declared}, after {after_local}"
            );
        }
    }
}

/// A task record the runtime's journal cannot hold together with the
/// outcome's header runs lands as opened — the task's effects and the
/// finished header — and the outcome then commits as a record of its
/// own. A crash before any write of either leaves FRAM at a boundary:
/// nothing, the task's record, or both.
#[test]
fn an_outcome_the_open_record_cannot_hold_commits_after_it() {
    use intermittent_sim::device::{Interrupt, MemOwner};
    use intermittent_sim::journal::TxWriter;

    use crate::header::{PersistentHeader, STATUS_FINISHED, STATUS_READY};
    use crate::Header;

    // The runtime's journal holds 1,024 B; the task record takes them
    // all: the count word, the effects' entry and the finished
    // header's one run (`status` to `seq`, 6 + 6 B).
    const EFFECTS: usize = 1_024 - 2 - 6 - 12;
    let app = sense_send_app();
    let finished = Header {
        status: STATUS_FINISHED,
        seq: 1,
        ..Header::INITIAL
    };
    let outcome = Header {
        status: STATUS_READY,
        cur_idx: 1,
        ..finished
    };
    let run = |crash: Option<u64>| {
        let mut dev = continuous_device();
        let header =
            PersistentHeader::alloc(&mut dev, Header::INITIAL, MemOwner::Runtime, "rt.header")
                .unwrap();
        let effects = dev.nv_alloc_raw(EFFECTS, MemOwner::App, "effects").unwrap();
        header.read(&mut dev, &app).unwrap();
        let records = dev.journal_records();
        if let Some(k) = crash {
            dev.fail_before_write(k);
        }
        let mut tx = TxWriter::new();
        tx.write_raw(effects, &[7; EFFECTS]);
        let result = header
            .open(
                &mut dev,
                &mut tx,
                finished,
                Some(Energy::ZERO),
                None,
                &mut Default::default(),
            )
            .and_then(|()| {
                assert!(dev.record_open());
                header.commit(&mut dev, outcome)
            });
        let crashed = match result {
            Ok(()) => false,
            Err(Interrupt::PowerFailure) => {
                dev.power_cycle();
                true
            }
            Err(e) => panic!("{e}"),
        };
        let h = header.read(&mut dev, &app).unwrap();
        let landed = dev.peek_raw(effects, EFFECTS).iter().all(|&b| b == 7);
        assert!(
            (h == Header::INITIAL && dev.peek_raw(effects, 1) == [0])
                || ((h == finished || h == outcome) && landed),
            "crash {crash:?}: {h:?}"
        );
        (crashed, h, dev.journal_records() - records)
    };
    let (_, h, records) = run(None);
    assert_eq!((h, records), (outcome, 2), "two records");
    let mut seen = Vec::new();
    for k in 1.. {
        let (crashed, h, _) = run(Some(k));
        if !crashed {
            break;
        }
        if !seen.contains(&h) {
            seen.push(h);
        }
    }
    assert_eq!(seen, [Header::INITIAL, finished, outcome], "every boundary");
}

/// A delivery rides by its admission ceiling: always for a zero one,
/// never for none, and otherwise iff the capacitor holds the ceiling
/// plus the price of the record it would ride — to the picojoule.
#[test]
fn a_ride_is_admitted_iff_the_capacitor_holds_its_ceiling_and_the_records_price() {
    use intermittent_sim::journal::TxWriter;

    use crate::Ride;

    let mut tx = TxWriter::new();
    tx.write_raw(64, &[1; 4]);
    tx.write_raw(128, &[2; 9]);
    let ceiling = Energy::from_nano_joules(2_500);
    let price = DeviceBuilder::msp430fr5994().build().record_price(&tx);
    let dev = DeviceBuilder::msp430fr5994()
        .capacitor(Capacitor::with_budget(ceiling + price))
        .build();
    assert_eq!(
        Ride::admit(&dev, Some(ceiling), &tx),
        Ride::Energy(ceiling + price)
    );
    let above = ceiling + Energy::from_pico_joules(1);
    assert_eq!(Ride::admit(&dev, Some(above), &tx), Ride::Refused);
    assert_eq!(Ride::admit(&dev, Some(Energy::ZERO), &tx), Ride::Proof);
    assert_eq!(Ride::admit(&dev, None, &tx), Ride::Never);
}
