//! Integration tests spanning the whole pipeline: specification text →
//! AST → property set → FSM monitors → persistent engine → runtime →
//! simulated device.

use artemis::prelude::*;

fn two_task_app() -> AppGraph {
    let mut b = AppGraphBuilder::new();
    let sense = b.task("sense");
    let send = b.task("send");
    b.path(&[sense, send]);
    b.build().unwrap()
}

fn device(budget_uj: u64, delay_s: u64) -> Device {
    DeviceBuilder::msp430fr5994()
        .capacitor(Capacitor::with_budget(Energy::from_micro_joules(budget_uj)))
        .harvester(Harvester::FixedDelay(SimDuration::from_secs(delay_s)))
        .build()
}

fn install(dev: &mut Device, app: &AppGraph, spec: &str) -> ArtemisRuntime {
    let suite = artemis::ir::compile(spec, app).expect("spec compiles");
    let mut rb = ArtemisRuntimeBuilder::new(app.clone());
    rb.channel("samples");
    rb.body("sense", |ctx| {
        let v = ctx.sample(Peripheral::TemperatureAdc)?;
        ctx.push("samples", v)
    });
    rb.body("send", |ctx| {
        for _ in 0..4 {
            ctx.compute(2_000)?;
        }
        ctx.consume("samples")
    });
    rb.install(dev, suite).expect("installs")
}

#[test]
fn spec_text_drives_runtime_behaviour_end_to_end() {
    // The same app under three different specifications behaves three
    // different ways — the paper's headline claim (P1): behaviour
    // changes WITHOUT touching application code.
    let app = two_task_app();

    // (a) No properties: one sense, one send.
    let mut dev = DeviceBuilder::msp430fr5994().build();
    let mut rt = install(&mut dev, &app, "");
    rt.run_once(&mut dev, RunLimit::unbounded())
        .completed()
        .unwrap();
    let sense = app.task_by_name("sense").unwrap();
    assert_eq!(dev.trace().completions_of(sense), 1);

    // (b) collect: 5 — the path restarts until five samples exist.
    let mut dev = DeviceBuilder::msp430fr5994().build();
    let mut rt = install(
        &mut dev,
        &app,
        "send { collect: 5 dpTask: sense onFail: restartPath; }",
    );
    rt.run_once(&mut dev, RunLimit::unbounded())
        .completed()
        .unwrap();
    assert_eq!(dev.trace().completions_of(sense), 5);

    // (c) period on sense with an impossible bound: violations fire but
    // restartTask keeps the run alive.
    let mut dev = DeviceBuilder::msp430fr5994().build();
    let mut rt = install(
        &mut dev,
        &app,
        "send { collect: 3 dpTask: sense onFail: restartPath; }\n\
         sense { period: 1ms onFail: restartTask; }",
    );
    rt.run_once(&mut dev, RunLimit::sim_time(SimDuration::from_mins(5)))
        .completed()
        .unwrap();
    assert!(
        dev.trace()
            .count(|e| matches!(e, TraceEvent::Violation { .. }))
            >= 1
    );
}

#[test]
fn ir_round_trip_preserves_runtime_behaviour() {
    // Lower a spec, print the machines to IR text, re-parse them, and
    // run the app with the REPARSED monitors: behaviour must match.
    let app = two_task_app();
    let spec = "send { collect: 4 dpTask: sense onFail: restartPath; }\n\
                sense { maxTries: 6 onFail: skipPath; }";

    let run = |suite: artemis::ir::MonitorSuite| {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let mut rb = ArtemisRuntimeBuilder::new(app.clone());
        rb.channel("samples");
        rb.body("sense", |ctx| {
            let v = ctx.sample(Peripheral::TemperatureAdc)?;
            ctx.push("samples", v)
        });
        rb.body("send", |ctx| ctx.consume("samples"));
        let mut rt = rb.install(&mut dev, suite).unwrap();
        rt.run_once(&mut dev, RunLimit::unbounded())
            .completed()
            .unwrap();
        let sense = app.task_by_name("sense").unwrap();
        dev.trace().completions_of(sense)
    };

    let original = artemis::ir::compile(spec, &app).unwrap();
    let text = artemis::ir::print::print_suite(&original);
    let reparsed = artemis::ir::parse::parse_suite(&text).unwrap();
    assert_eq!(original.machines(), reparsed.machines());
    assert_eq!(run(original), run(reparsed));
}

#[test]
fn maximum_tries_bounds_attempts_under_real_power_failures() {
    // An app whose second task cannot complete on the given capacitor;
    // maxTries must bound the attempts and skip the path.
    let mut b = AppGraphBuilder::new();
    let greedy = b.task("greedy");
    b.path(&[greedy]);
    let fallback = b.task("fallback");
    b.path(&[fallback]);
    let app = b.build().unwrap();

    let mut dev = device(30, 10);
    let suite = artemis::ir::compile("greedy { maxTries: 4 onFail: skipPath; }", &app).unwrap();
    let mut rb = ArtemisRuntimeBuilder::new(app.clone());
    rb.body("greedy", |ctx| {
        for _ in 0..40 {
            ctx.compute(10_000)?; // ~144 µJ total vs 30 µJ budget
        }
        Ok(())
    });
    rb.body("fallback", |ctx| ctx.compute(100));
    let mut rt = rb.install(&mut dev, suite).unwrap();

    let out = rt
        .run_once(&mut dev, RunLimit::reboots(1_000))
        .completed()
        .expect("maxTries must rescue the run");
    assert_eq!(out.skipped.len(), 1);
    assert_eq!(out.completed.len(), 1);
    let greedy_id = app.task_by_name("greedy").unwrap();
    assert_eq!(dev.trace().attempts_of(greedy_id), 4);
}

#[test]
fn monitors_survive_power_failures_at_every_budget() {
    // Sweep capacitor budgets: whatever the failure placement, the run
    // completes and collect semantics hold exactly.
    let app = two_task_app();
    for budget_nj in [12_000u64, 16_000, 21_000, 34_000, 55_000, 89_000] {
        let mut dev = DeviceBuilder::msp430fr5994()
            .capacitor(Capacitor::with_budget(Energy::from_nano_joules(budget_nj)))
            .harvester(Harvester::FixedDelay(SimDuration::from_secs(1)))
            .build();
        let mut rt = install(
            &mut dev,
            &app,
            "send { collect: 3 dpTask: sense onFail: restartPath; }",
        );
        let out = rt.run_once(&mut dev, RunLimit::reboots(1_000_000));
        let out = out
            .completed()
            .unwrap_or_else(|| panic!("budget {budget_nj} nJ did not complete"));
        assert!(out.all_completed(), "budget {budget_nj} nJ: {out:?}");
        let sense = app.task_by_name("sense").unwrap();
        assert_eq!(
            dev.trace().completions_of(sense),
            3,
            "budget {budget_nj} nJ: collect semantics drifted"
        );
    }
}

/// A power failure after the task commit's flag write leaves the task
/// committed by recovery's replay: its completion must still be traced.
/// The 100 nJ grid hits the windows a coarse sweep steps over.
#[test]
fn task_end_is_traced_when_recovery_completes_the_commit() {
    let app = two_task_app();
    let sense = app.task_by_name("sense").unwrap();
    let send = app.task_by_name("send").unwrap();
    for budget_nj in (8_000u64..=90_000).step_by(100) {
        let mut dev = DeviceBuilder::msp430fr5994()
            .capacitor(Capacitor::with_budget(Energy::from_nano_joules(budget_nj)))
            .harvester(Harvester::FixedDelay(SimDuration::from_secs(1)))
            .build();
        let mut rt = install(
            &mut dev,
            &app,
            "send { collect: 3 dpTask: sense onFail: restartPath; }",
        );
        let out = rt.run_once(&mut dev, RunLimit::reboots(1_000_000));
        assert!(
            out.completed().is_some_and(|o| o.all_completed()),
            "budget {budget_nj} nJ did not complete"
        );
        let trace = dev.trace();
        assert_eq!(trace.completions_of(sense), 3, "budget {budget_nj} nJ");
        assert_eq!(trace.completions_of(send), 1, "budget {budget_nj} nJ");
    }
}

#[test]
fn artemis_beats_mayfly_on_the_non_termination_scenario() {
    // The paper's core comparison, miniaturised: a producer-consumer
    // app where the consumer's freshness bound is shorter than the
    // charging delay. Mayfly restarts forever; ARTEMIS escalates and
    // completes.
    let mut b = AppGraphBuilder::new();
    let produce = b.task("produce");
    let consume = b.task("consume");
    b.path(&[produce, consume]);
    let app = b.build().unwrap();

    // Each charge covers `produce` + the start of `consume`, never the
    // whole pair, and the outage (5 s) exceeds the bound (2 s).
    let bodies = |rb: &mut ArtemisRuntimeBuilder| {
        rb.body("produce", |ctx| {
            for _ in 0..10 {
                ctx.compute(10_000)?;
            }
            Ok(())
        });
        rb.body("consume", |ctx| {
            for _ in 0..10 {
                ctx.compute(10_000)?;
            }
            Ok(())
        });
    };

    // ARTEMIS with the escalation: completes.
    let mut dev = device(50, 5);
    let suite = artemis::ir::compile(
        "consume { MITD: 2s dpTask: produce onFail: restartPath maxAttempt: 3 onFail: skipPath; }",
        &app,
    )
    .unwrap();
    let mut rb = ArtemisRuntimeBuilder::new(app.clone());
    bodies(&mut rb);
    let mut rt = rb.install(&mut dev, suite).unwrap();
    let artemis_out = rt.run_once(&mut dev, RunLimit::sim_time(SimDuration::from_mins(30)));
    assert!(artemis_out.is_completed(), "{artemis_out:?}");

    // Mayfly with the same freshness bound: non-termination.
    let mut dev = device(50, 5);
    let mut rb = ArtemisRuntimeBuilder::new(app.clone());
    bodies(&mut rb);
    let mut rb = MayflyRuntimeBuilder::new(rb);
    rb.expiration("consume", "produce", SimDuration::from_secs(2));
    let mut rt = rb.install(&mut dev).unwrap();
    let mayfly_out = rt.run_once(&mut dev, RunLimit::sim_time(SimDuration::from_mins(30)));
    assert!(!mayfly_out.is_completed(), "{mayfly_out:?}");
}

#[test]
fn generated_code_matches_installed_monitors() {
    // The C and Rust backends must cover every machine the engine
    // installs, under the same names.
    let app = two_task_app();
    let suite = artemis::ir::compile(
        "send { MITD: 5min dpTask: sense onFail: restartPath maxAttempt: 3 onFail: skipPath; \
         collect: 2 dpTask: sense onFail: restartPath; }\n\
         sense { maxTries: 10 onFail: skipPath; }",
        &app,
    )
    .unwrap();
    let c = artemis::ir::codegen::emit_c(&suite);
    let rust = artemis::ir::codegen::emit_rust(&suite);
    for m in suite.machines() {
        assert!(c.contains(&m.name), "C output misses {}", m.name);
        let type_name: String = m
            .name
            .split('_')
            .map(|part| {
                let mut cs = part.chars();
                match cs.next() {
                    Some(f) => f.to_uppercase().collect::<String>() + cs.as_str(),
                    None => String::new(),
                }
            })
            .collect();
        assert!(
            rust.contains(&type_name),
            "Rust output misses {type_name}:\n{rust}"
        );
    }

    let mut dev = DeviceBuilder::msp430fr5994().build();
    let engine = MonitorEngine::install(&mut dev, suite, &app).unwrap();
    assert_eq!(engine.machine_count(), 3);
}

#[test]
fn emergency_complete_path_works_across_the_stack() {
    let mut b = AppGraphBuilder::new();
    let check = b.task_with_var("check", "reading");
    let alarm = b.task("alarm");
    let routine_work = b.task("routine");
    b.path(&[check, alarm]);
    b.path(&[routine_work]);
    let app = b.build().unwrap();

    let mut dev = DeviceBuilder::msp430fr5994().build();
    let suite = artemis::ir::compile(
        "check { dpData: reading Range: [0, 100] onFail: completePath; }",
        &app,
    )
    .unwrap();
    let mut rb = ArtemisRuntimeBuilder::new(app.clone());
    rb.body("check", |ctx| {
        ctx.compute(500)?;
        ctx.set_monitored(250.0); // out of range
        Ok(())
    });
    rb.body("alarm", |ctx| ctx.transmit(4));
    rb.body("routine", |ctx| ctx.compute(500));
    let mut rt = rb.install(&mut dev, suite).unwrap();

    let out = rt
        .run_once(&mut dev, RunLimit::unbounded())
        .completed()
        .unwrap();
    assert!(out.emergency);
    assert_eq!(
        dev.trace()
            .completions_of(app.task_by_name("alarm").unwrap()),
        1,
        "the alarm must run unmonitored to the end of the path"
    );
    assert_eq!(
        dev.trace()
            .attempts_of(app.task_by_name("routine").unwrap()),
        0,
        "no further paths execute after an emergency completion"
    );
}

/// Every runtime install leaves the device's cost category as it found
/// it: on success, and when FRAM runs out at any of its allocations —
/// the engine's, the runtime's journal and header (billed to the
/// runtime) or a channel (billed to the application).
#[test]
fn installs_leave_the_cost_category_as_they_found_it() {
    use artemis::monitor::NoMonitoring;
    use artemis::sim::CostCategory;

    let app = two_task_app();
    let builder = || {
        let mut rb = ArtemisRuntimeBuilder::new(app.clone());
        rb.channel("samples");
        rb.channel("sent");
        rb.body("sense", |ctx| ctx.push("samples", 1.0));
        rb.body("send", |ctx| ctx.consume("samples"));
        rb
    };
    let spec = "sense { maxTries: 3 onFail: skipPath; }";
    type Install<'a> = &'a dyn Fn(&mut Device) -> Result<(), String>;
    let installs: [(&str, Install); 3] = [
        ("install", &|dev| {
            let suite = artemis::ir::compile(spec, &app).unwrap();
            builder()
                .install(dev, suite)
                .map(drop)
                .map_err(|e| format!("{e:?}"))
        }),
        ("install_with", &|dev| {
            (builder().install_with(dev, NoMonitoring))
                .map(drop)
                .map_err(|e| format!("{e:?}"))
        }),
        ("Mayfly install", &|dev| {
            (MayflyRuntimeBuilder::new(builder()).install(dev))
                .map(drop)
                .map_err(|e| format!("{e:?}"))
        }),
    ];
    for (name, install) in installs {
        for category in CostCategory::ALL {
            let mut dev = DeviceBuilder::msp430fr5994().build();
            dev.set_category(category);
            install(&mut dev).unwrap();
            assert_eq!(dev.category(), category, "{name} succeeded");
            let allocs = dev.fram().allocations().to_vec();
            // One byte short of each allocation's end: the install runs
            // out of FRAM exactly there.
            for a in allocs {
                let mut dev = DeviceBuilder::msp430fr5994()
                    .fram_capacity(a.addr + a.size - 1)
                    .build();
                dev.set_category(category);
                let err = install(&mut dev).unwrap_err();
                assert!(err.contains("OutOfFram"), "{name} at {}: {err}", a.label);
                assert_eq!(dev.category(), category, "{name} failed at {}", a.label);
            }
        }
    }
}

/// Every run leaves the device's cost category as it found it, under
/// both runtimes and for every starting category: a run that completes
/// on continuous power, one that completes through power failures, and
/// one that hits its deadline (`DeadlineExceeded`).
#[test]
fn runs_leave_the_cost_category_as_they_found_it() {
    use artemis::sim::CostCategory;

    let app = two_task_app();
    let builder = || {
        let mut rb = ArtemisRuntimeBuilder::new(app.clone());
        rb.channel("samples");
        rb.body("sense", |ctx| {
            ctx.compute(20_000)?;
            ctx.push("samples", 1.0)
        });
        rb.body("send", |ctx| {
            ctx.compute(20_000)?;
            ctx.consume("samples")
        });
        rb
    };
    let spec = "sense { maxTries: 3 onFail: skipPath; }";
    let continuous = || DeviceBuilder::msp430fr5994().build();
    let intermittent = || device(15, 1);
    let runs: [(&str, &dyn Fn() -> Device, RunLimit, bool); 3] = [
        ("continuous", &continuous, RunLimit::unbounded(), true),
        (
            "intermittent",
            &intermittent,
            RunLimit::reboots(1_000),
            true,
        ),
        (
            "deadline",
            &continuous,
            RunLimit::sim_time(SimDuration::from_micros(1)),
            false,
        ),
    ];
    for (name, device, limit, completes) in runs {
        for category in CostCategory::ALL {
            let mut dev = device();
            let suite = artemis::ir::compile(spec, &app).unwrap();
            let mut rt = builder().install(&mut dev, suite).unwrap();
            dev.set_category(category);
            let out = rt.run_once(&mut dev, limit);
            assert_eq!(out.is_completed(), completes, "ARTEMIS {name}");
            assert_eq!(dev.category(), category, "ARTEMIS {name}");
            assert_eq!(dev.reboots() > 0, name == "intermittent", "ARTEMIS {name}");

            let mut dev = device();
            let mut rt = MayflyRuntimeBuilder::new(builder())
                .install(&mut dev)
                .unwrap();
            dev.set_category(category);
            let out = rt.run_once(&mut dev, limit);
            assert_eq!(out.is_completed(), completes, "Mayfly {name}");
            assert_eq!(dev.category(), category, "Mayfly {name}");
            assert_eq!(dev.reboots() > 0, name == "intermittent", "Mayfly {name}");
        }
    }
}
