//! The model-to-model transformation: properties → state machines.
//!
//! Each property in a resolved
//! [`artemis_core::property::PropertySet`] becomes one
//! state machine, following the four shapes of the paper's Figure 7
//! (plus `period`, `dpData` and the `energy` extension):
//!
//! - **maxTries** — two states; a counter of start attempts that resets
//!   on task completion and fails once the attempt budget is spent;
//! - **maxDuration** — two states; the start timestamp is latched once
//!   (re-attempt starts take the implicit self-transition, preserving
//!   the *first* attempt's timestamp exactly as §4.1.3 requires) and
//!   any event past the deadline fails;
//! - **collect** — one state counting `dpTask` completions; a start of
//!   the consumer with too few samples fails. *Deviation from the
//!   paper's Figure 7 narration*: the counter is **not** reset on
//!   failure — it accumulates across path restarts — and it is consumed
//!   at the consumer's *completion*, not at its start. With
//!   reset-on-failure the paper's own Path #1 (collect ten `bodyTemp`
//!   samples via repeated path restarts, §5.1) could never terminate,
//!   and with consume-on-start a power failure inside the consumer
//!   would strand its re-attempt without data. See EXPERIMENTS.md for
//!   the fidelity note.
//! - **MITD** — two states latching the dependee's completion time; a
//!   late consumer start fails, with the optional `maxAttempt`
//!   escalation counting failures and eventually firing the terminal
//!   action (the paper's anti-non-termination device);
//! - **period** — consecutive starts of a task must be no further
//!   apart than `interval + jitter`;
//! - **dpData** — the monitored output must stay in range;
//! - **energy** — the capacitor must hold a minimum charge at start.

use artemis_core::app::AppGraph;
use artemis_core::property::{MaxAttempt, OnFail, PropertyKind, PropertySet, TaskProperty};
use artemis_spec::Diagnostic;

use crate::expr::{BinOp, Expr, Value, VarType};
use crate::fsm::{EmitFail, MonitorSuite, StateMachine, Stmt, TaskPat, Transition, Trigger};

/// Lowers every property of `set` to a state machine. The one error is
/// a property whose task id `app` does not hold (a set resolved
/// against another graph).
pub fn lower_set(set: &PropertySet, app: &AppGraph) -> Result<MonitorSuite, Diagnostic> {
    let mut suite = MonitorSuite::new();
    for (index, entry) in set.entries().iter().enumerate() {
        suite.push(lower_property(entry, index, app)?);
    }
    Ok(suite)
}

fn task_name(app: &AppGraph, id: artemis_core::app::TaskId) -> Result<String, Diagnostic> {
    app.tasks()
        .get(id.index())
        .map(|t| t.name.clone())
        .ok_or_else(|| {
            Diagnostic::error(
                "lower",
                format!("task id {}", id.0),
                "property references a task not in the graph",
            )
        })
}

fn lower_property(
    entry: &TaskProperty,
    index: usize,
    app: &AppGraph,
) -> Result<StateMachine, Diagnostic> {
    let task = task_name(app, entry.task)?;
    let prop = &entry.property;
    let path = prop.path.map(|p| p.number());
    let name = format!("{}_{}_{}", task, prop.kind.keyword(), index);

    let mut m = match &prop.kind {
        PropertyKind::MaxTries { max } => lower_max_tries(&task, *max, prop.on_fail, path),
        PropertyKind::MaxDuration { limit } => {
            lower_max_duration(&task, limit.as_micros(), prop.on_fail, path)
        }
        PropertyKind::Collect { count, dp_task } => lower_collect(
            &task,
            &task_name(app, *dp_task)?,
            *count,
            prop.on_fail,
            path,
        ),
        PropertyKind::Mitd {
            limit,
            dp_task,
            max_attempt,
        } => lower_mitd(
            &task,
            &task_name(app, *dp_task)?,
            limit.as_micros(),
            prop.on_fail,
            *max_attempt,
            path,
        ),
        PropertyKind::Period {
            interval,
            jitter,
            max_attempt,
        } => lower_period(
            &task,
            interval.as_micros(),
            jitter.as_micros(),
            prop.on_fail,
            *max_attempt,
            path,
        ),
        PropertyKind::DpData { var: _, lo, hi } => {
            lower_dp_data(&task, *lo, *hi, prop.on_fail, path)
        }
        PropertyKind::Energy { min_nanojoules } => {
            lower_energy(&task, *min_nanojoules, prop.on_fail, path)
        }
    };
    m.name = name;
    m.path = path;
    Ok(m)
}

fn emit(action: OnFail, path: Option<u32>) -> Option<EmitFail> {
    Some(EmitFail { action, path })
}

fn assign(name: &str, e: Expr) -> Stmt {
    Stmt::Assign(name.to_string(), e)
}

fn incr(name: &str) -> Stmt {
    assign(name, Expr::bin(BinOp::Add, Expr::var(name), Expr::int(1)))
}

/// Figure 7, first machine.
fn lower_max_tries(task: &str, max: u32, on_fail: OnFail, path: Option<u32>) -> StateMachine {
    let mut m = StateMachine::new("", task);
    // Re-initialising on a path restart is correct here: a restart is a
    // fresh execution sequence for the task.
    m.reset_on_path_restart = true;
    m.add_var("i", VarType::Int, Value::Int(0));
    let not_started = m.add_state("NotStarted");
    let started = m.add_state("Started");

    m.transitions.push(Transition {
        from: not_started,
        to: started,
        trigger: Trigger::Start(TaskPat::named(task)),
        guard: None,
        body: vec![assign("i", Expr::int(1))],
        emit: None,
    });
    m.transitions.push(Transition {
        from: started,
        to: started,
        trigger: Trigger::Start(TaskPat::named(task)),
        guard: Some(Expr::bin(BinOp::Lt, Expr::var("i"), Expr::int(max as i64))),
        body: vec![incr("i")],
        emit: None,
    });
    m.transitions.push(Transition {
        from: started,
        to: not_started,
        trigger: Trigger::Start(TaskPat::named(task)),
        guard: Some(Expr::bin(BinOp::Ge, Expr::var("i"), Expr::int(max as i64))),
        body: vec![assign("i", Expr::int(0))],
        emit: emit(on_fail, path),
    });
    m.transitions.push(Transition {
        from: started,
        to: not_started,
        trigger: Trigger::End(TaskPat::named(task)),
        guard: None,
        body: vec![assign("i", Expr::int(0))],
        emit: None,
    });
    m
}

/// Figure 7, second machine.
fn lower_max_duration(
    task: &str,
    limit_us: u64,
    on_fail: OnFail,
    path: Option<u32>,
) -> StateMachine {
    let mut m = StateMachine::new("", task);
    m.reset_on_path_restart = true;
    m.add_var("start", VarType::Time, Value::Time(0));
    let idle = m.add_state("Idle");
    let started = m.add_state("Started");
    let elapsed = Expr::bin(BinOp::Sub, Expr::EventTime, Expr::var("start"));

    m.transitions.push(Transition {
        from: idle,
        to: started,
        trigger: Trigger::Start(TaskPat::named(task)),
        guard: None,
        body: vec![assign("start", Expr::EventTime)],
        emit: None,
    });
    // In-time completion satisfies the property.
    m.transitions.push(Transition {
        from: started,
        to: idle,
        trigger: Trigger::End(TaskPat::named(task)),
        guard: Some(Expr::bin(BinOp::Le, elapsed.clone(), Expr::time(limit_us))),
        body: vec![],
        emit: None,
    });
    // Any event beyond the deadline reports the violation. Re-attempt
    // starts within the deadline hit neither transition and take the
    // implicit self-transition — preserving the first start timestamp
    // (§4.1.3).
    m.transitions.push(Transition {
        from: started,
        to: idle,
        trigger: Trigger::Any,
        guard: Some(Expr::bin(BinOp::Gt, elapsed, Expr::time(limit_us))),
        body: vec![],
        emit: emit(on_fail, path),
    });
    m
}

/// Figure 7, third machine — with the accumulate-across-restarts
/// deviation documented at module level.
fn lower_collect(
    task: &str,
    dp_task: &str,
    count: u32,
    on_fail: OnFail,
    path: Option<u32>,
) -> StateMachine {
    let mut m = StateMachine::new("", task);
    // The sample counter must survive path restarts (the restart is how
    // more samples get produced).
    m.reset_on_path_restart = false;
    m.add_var("i", VarType::Int, Value::Int(0));
    let counting = m.add_state("Counting");

    m.transitions.push(Transition {
        from: counting,
        to: counting,
        trigger: Trigger::End(TaskPat::named(dp_task)),
        guard: None,
        body: vec![incr("i")],
        emit: None,
    });
    // Too few samples at the consumer's start: fail (counter kept).
    // A start with enough samples takes the implicit self-transition.
    m.transitions.push(Transition {
        from: counting,
        to: counting,
        trigger: Trigger::Start(TaskPat::named(task)),
        guard: Some(Expr::bin(
            BinOp::Lt,
            Expr::var("i"),
            Expr::int(count as i64),
        )),
        body: vec![],
        emit: emit(on_fail, path),
    });
    // Consumption happens at the consumer's *completion*, matching the
    // channel semantics: a power failure between the start check and
    // the commit re-delivers the start, which must still see the data
    // (it is consumed only when the task's effects commit).
    m.transitions.push(Transition {
        from: counting,
        to: counting,
        trigger: Trigger::End(TaskPat::named(task)),
        guard: None,
        body: vec![assign("i", Expr::int(0))],
        emit: None,
    });
    m
}

/// Figure 7, fourth machine — with one refinement over the figure's
/// sketch: the freshness obligation is discharged when the consumer
/// *completes*, not when it starts. A power failure between the
/// consumer's (in-time) start and its commit re-delivers the start
/// event after the charging delay; that re-attempt consumes the data
/// too, so it must still be checked — exactly the scenario of the
/// paper's §5.2, where send's re-attempts after long outages are the
/// violations that matter. Consequently the machine waits in
/// `WaitStartA` across in-time starts and returns to `WaitEndB` on
/// `endTask(A)` (which also clears the `maxAttempt` budget); late
/// starts self-loop in `WaitStartA` while counting attempts, and
/// `endTask(B)` in `WaitStartA` refreshes the timestamp after a path
/// restart re-runs the producer.
fn lower_mitd(
    task: &str,
    dp_task: &str,
    limit_us: u64,
    on_fail: OnFail,
    max_attempt: Option<MaxAttempt>,
    path: Option<u32>,
) -> StateMachine {
    let mut m = StateMachine::new("", task);
    // The attempt counter must survive the very path restarts it
    // causes, or the escalation could never fire.
    m.reset_on_path_restart = false;
    m.add_var("endB", VarType::Time, Value::Time(0));
    let wait_end_b = m.add_state("WaitEndB");
    let wait_start_a = m.add_state("WaitStartA");
    let delay = Expr::bin(BinOp::Sub, Expr::EventTime, Expr::var("endB"));
    let late = Expr::bin(BinOp::Gt, delay, Expr::time(limit_us));

    m.transitions.push(Transition {
        from: wait_end_b,
        to: wait_start_a,
        trigger: Trigger::End(TaskPat::named(dp_task)),
        guard: None,
        body: vec![assign("endB", Expr::EventTime)],
        emit: None,
    });
    // A producer re-run (after a path restart) refreshes the data.
    m.transitions.push(Transition {
        from: wait_start_a,
        to: wait_start_a,
        trigger: Trigger::End(TaskPat::named(dp_task)),
        guard: None,
        body: vec![assign("endB", Expr::EventTime)],
        emit: None,
    });

    match max_attempt {
        None => {
            m.transitions.push(Transition {
                from: wait_start_a,
                to: wait_start_a,
                trigger: Trigger::Start(TaskPat::named(task)),
                guard: Some(late),
                body: vec![],
                emit: emit(on_fail, path),
            });
            m.transitions.push(Transition {
                from: wait_start_a,
                to: wait_end_b,
                trigger: Trigger::End(TaskPat::named(task)),
                guard: None,
                body: vec![],
                emit: None,
            });
        }
        Some(ma) => {
            m.add_var("i", VarType::Int, Value::Int(0));
            let budget_left = Expr::bin(
                BinOp::Lt,
                Expr::bin(BinOp::Add, Expr::var("i"), Expr::int(1)),
                Expr::int(ma.max as i64),
            );
            let budget_spent = Expr::bin(
                BinOp::Ge,
                Expr::bin(BinOp::Add, Expr::var("i"), Expr::int(1)),
                Expr::int(ma.max as i64),
            );
            // Late with budget: count and take the primary action.
            m.transitions.push(Transition {
                from: wait_start_a,
                to: wait_start_a,
                trigger: Trigger::Start(TaskPat::named(task)),
                guard: Some(Expr::and(late.clone(), budget_left)),
                body: vec![incr("i")],
                emit: emit(on_fail, path),
            });
            // Late with the budget spent: escalate.
            m.transitions.push(Transition {
                from: wait_start_a,
                to: wait_start_a,
                trigger: Trigger::Start(TaskPat::named(task)),
                guard: Some(Expr::and(late, budget_spent)),
                body: vec![assign("i", Expr::int(0))],
                emit: emit(ma.on_fail, path),
            });
            // Completion discharges the obligation and the budget.
            m.transitions.push(Transition {
                from: wait_start_a,
                to: wait_end_b,
                trigger: Trigger::End(TaskPat::named(task)),
                guard: None,
                body: vec![assign("i", Expr::int(0))],
                emit: None,
            });
        }
    }
    m
}

/// `period`: consecutive starts must be at most `interval + jitter`
/// apart.
fn lower_period(
    task: &str,
    interval_us: u64,
    jitter_us: u64,
    on_fail: OnFail,
    max_attempt: Option<MaxAttempt>,
    path: Option<u32>,
) -> StateMachine {
    let mut m = StateMachine::new("", task);
    m.reset_on_path_restart = false;
    m.add_var("last", VarType::Time, Value::Time(0));
    let first = m.add_state("First");
    let periodic = m.add_state("Periodic");
    let bound = interval_us.saturating_add(jitter_us);
    let gap = Expr::bin(BinOp::Sub, Expr::EventTime, Expr::var("last"));
    let in_time = Expr::bin(BinOp::Le, gap.clone(), Expr::time(bound));
    let late = Expr::bin(BinOp::Gt, gap, Expr::time(bound));

    m.transitions.push(Transition {
        from: first,
        to: periodic,
        trigger: Trigger::Start(TaskPat::named(task)),
        guard: None,
        body: vec![assign("last", Expr::EventTime)],
        emit: None,
    });

    match max_attempt {
        None => {
            m.transitions.push(Transition {
                from: periodic,
                to: periodic,
                trigger: Trigger::Start(TaskPat::named(task)),
                guard: Some(in_time),
                body: vec![assign("last", Expr::EventTime)],
                emit: None,
            });
            m.transitions.push(Transition {
                from: periodic,
                to: periodic,
                trigger: Trigger::Start(TaskPat::named(task)),
                guard: Some(late),
                body: vec![assign("last", Expr::EventTime)],
                emit: emit(on_fail, path),
            });
        }
        Some(ma) => {
            m.add_var("i", VarType::Int, Value::Int(0));
            let budget_left = Expr::bin(
                BinOp::Lt,
                Expr::bin(BinOp::Add, Expr::var("i"), Expr::int(1)),
                Expr::int(ma.max as i64),
            );
            let budget_spent = Expr::bin(
                BinOp::Ge,
                Expr::bin(BinOp::Add, Expr::var("i"), Expr::int(1)),
                Expr::int(ma.max as i64),
            );
            m.transitions.push(Transition {
                from: periodic,
                to: periodic,
                trigger: Trigger::Start(TaskPat::named(task)),
                guard: Some(in_time),
                body: vec![assign("last", Expr::EventTime), assign("i", Expr::int(0))],
                emit: None,
            });
            m.transitions.push(Transition {
                from: periodic,
                to: periodic,
                trigger: Trigger::Start(TaskPat::named(task)),
                guard: Some(Expr::and(late.clone(), budget_left)),
                body: vec![assign("last", Expr::EventTime), incr("i")],
                emit: emit(on_fail, path),
            });
            m.transitions.push(Transition {
                from: periodic,
                to: periodic,
                trigger: Trigger::Start(TaskPat::named(task)),
                guard: Some(Expr::and(late, budget_spent)),
                body: vec![assign("last", Expr::EventTime), assign("i", Expr::int(0))],
                emit: emit(ma.on_fail, path),
            });
        }
    }
    m
}

/// `dpData` + `Range`: the monitored output must stay in `[lo, hi]`.
fn lower_dp_data(task: &str, lo: f64, hi: f64, on_fail: OnFail, path: Option<u32>) -> StateMachine {
    let mut m = StateMachine::new("", task);
    m.reset_on_path_restart = true;
    let watching = m.add_state("Watching");
    m.transitions.push(Transition {
        from: watching,
        to: watching,
        trigger: Trigger::End(TaskPat::named(task)),
        guard: Some(Expr::or(
            Expr::bin(BinOp::Lt, Expr::DepData, Expr::float(lo)),
            Expr::bin(BinOp::Gt, Expr::DepData, Expr::float(hi)),
        )),
        body: vec![],
        emit: emit(on_fail, path),
    });
    m
}

/// `energy` extension (§4.2.2): minimum capacitor level at task start.
fn lower_energy(task: &str, min_nj: u64, on_fail: OnFail, path: Option<u32>) -> StateMachine {
    let mut m = StateMachine::new("", task);
    m.reset_on_path_restart = true;
    let watching = m.add_state("Watching");
    m.transitions.push(Transition {
        from: watching,
        to: watching,
        trigger: Trigger::Start(TaskPat::named(task)),
        guard: Some(Expr::bin(
            BinOp::Lt,
            Expr::EnergyLevel,
            Expr::int(i64::try_from(min_nj).unwrap_or(i64::MAX)),
        )),
        body: vec![],
        emit: emit(on_fail, path),
    });
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{step, IrEvent, MachineState};
    use crate::expr::EventCtx;
    use artemis_core::app::AppGraphBuilder;
    use artemis_core::event::EventKind;

    fn ctx(t_us: u64) -> EventCtx {
        EventCtx {
            time_us: t_us,
            dep_data: None,
            energy_nj: u64::MAX,
        }
    }

    fn start(task: &str, t_us: u64) -> IrEvent<'_> {
        IrEvent {
            kind: EventKind::StartTask,
            task,
            ctx: ctx(t_us),
        }
    }

    fn end(task: &str, t_us: u64) -> IrEvent<'_> {
        IrEvent {
            kind: EventKind::EndTask,
            task,
            ctx: ctx(t_us),
        }
    }

    fn compile(spec: &str) -> (MonitorSuite, AppGraph) {
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
        let app = b.build().unwrap();
        let set = artemis_spec::compile(spec, &app).unwrap();
        let suite = lower_set(&set, &app).unwrap();
        (suite, app)
    }

    #[test]
    fn figure5_produces_eight_machines() {
        let (suite, _) = compile(artemis_spec::samples::FIGURE5);
        assert_eq!(suite.len(), 8);
        let names: Vec<_> = suite.machines().iter().map(|m| m.name.as_str()).collect();
        assert!(names.iter().any(|n| n.starts_with("send_MITD")));
        assert!(names.iter().any(|n| n.starts_with("calcAvg_dpData")));
    }

    #[test]
    fn max_tries_allows_max_then_fails() {
        let (suite, _) = compile("accel { maxTries: 3 onFail: skipPath; }");
        let m = &suite.machines()[0];
        assert!(m.reset_on_path_restart);
        let mut s = MachineState::initial(m);
        for attempt in 1..=3 {
            let v = step(m, &mut s, &start("accel", attempt)).unwrap();
            assert!(v.is_none(), "attempt {attempt} must pass");
        }
        let v = step(m, &mut s, &start("accel", 4)).unwrap().unwrap();
        assert_eq!(v.action, OnFail::SkipPath);
        assert_eq!(v.path, Some(2));
    }

    #[test]
    fn max_tries_completion_resets_budget() {
        let (suite, _) = compile("accel { maxTries: 2 onFail: skipPath; }");
        let m = &suite.machines()[0];
        let mut s = MachineState::initial(m);
        step(m, &mut s, &start("accel", 0)).unwrap();
        step(m, &mut s, &start("accel", 1)).unwrap();
        step(m, &mut s, &end("accel", 2)).unwrap();
        // Fresh budget after completion.
        assert!(step(m, &mut s, &start("accel", 3)).unwrap().is_none());
        assert!(step(m, &mut s, &start("accel", 4)).unwrap().is_none());
        assert!(step(m, &mut s, &start("accel", 5)).unwrap().is_some());
    }

    #[test]
    fn max_duration_keeps_first_start_timestamp() {
        let (suite, _) = compile("send { maxDuration: 100ms onFail: skipTask; }");
        let m = &suite.machines()[0];
        let mut s = MachineState::initial(m);
        step(m, &mut s, &start("send", 0)).unwrap();
        // A re-attempt start 60 ms later: implicit self-transition, the
        // latched timestamp must stay 0.
        assert!(step(m, &mut s, &start("send", 60_000)).unwrap().is_none());
        // Completion at 90 ms from the *first* start: in time.
        assert!(step(m, &mut s, &end("send", 90_000)).unwrap().is_none());

        // Next round: completion at 150 ms from first start: violation,
        // even though only 50 ms passed since the second start event.
        step(m, &mut s, &start("send", 200_000)).unwrap();
        step(m, &mut s, &start("send", 300_000)).unwrap();
        let v = step(m, &mut s, &end("send", 301_000)).unwrap().unwrap();
        assert_eq!(v.action, OnFail::SkipTask);
    }

    #[test]
    fn max_duration_fails_on_any_late_event() {
        let (suite, _) = compile("send { maxDuration: 1s onFail: skipTask; }");
        let m = &suite.machines()[0];
        let mut s = MachineState::initial(m);
        step(m, &mut s, &start("send", 0)).unwrap();
        // An unrelated task's event past the deadline reveals the
        // violation (the `anyEvent` trigger of Figure 7).
        let v = step(m, &mut s, &start("accel", 2_000_000))
            .unwrap()
            .unwrap();
        assert_eq!(v.action, OnFail::SkipTask);
        assert_eq!(s.state, m.state_index("Idle").unwrap());
    }

    #[test]
    fn collect_accumulates_across_failures() {
        let (suite, _) = compile("calcAvg { collect: 3 dpTask: bodyTemp onFail: restartPath; }");
        let m = &suite.machines()[0];
        assert!(!m.reset_on_path_restart, "collect must survive restarts");
        let mut s = MachineState::initial(m);
        let mut clock = 0;
        // Two rounds of bodyTemp → calcAvg-start-fails, then the third
        // round has enough.
        for round in 1..=2 {
            step(m, &mut s, &end("bodyTemp", clock)).unwrap();
            clock += 1;
            let v = step(m, &mut s, &start("calcAvg", clock)).unwrap();
            assert!(v.is_some(), "round {round} has too few samples");
            clock += 1;
        }
        step(m, &mut s, &end("bodyTemp", clock)).unwrap();
        let v = step(m, &mut s, &start("calcAvg", clock + 1)).unwrap();
        assert!(v.is_none(), "three samples satisfy collect: 3");
        // A re-attempt start (power failure before commit) must still
        // see the data: consumption only happens at completion.
        let v = step(m, &mut s, &start("calcAvg", clock + 2)).unwrap();
        assert!(v.is_none(), "re-attempt must not be starved");
        // The consumer's completion consumes: the next start fails.
        step(m, &mut s, &end("calcAvg", clock + 3)).unwrap();
        let v = step(m, &mut s, &start("calcAvg", clock + 4)).unwrap();
        assert!(v.is_some());
    }

    #[test]
    fn mitd_without_escalation_fails_on_late_start() {
        let (suite, _) = compile("send { MITD: 5min dpTask: accel onFail: restartPath Path: 2; }");
        let m = &suite.machines()[0];
        let mut s = MachineState::initial(m);
        step(m, &mut s, &end("accel", 0)).unwrap();
        // 4 minutes later: fine.
        assert!(step(m, &mut s, &start("send", 240_000_000))
            .unwrap()
            .is_none());
        step(m, &mut s, &end("accel", 250_000_000)).unwrap();
        // 6 minutes after accel: violation.
        let v = step(m, &mut s, &start("send", 610_000_000))
            .unwrap()
            .unwrap();
        assert_eq!(v.action, OnFail::RestartPath);
        assert_eq!(v.path, Some(2));
    }

    #[test]
    fn mitd_escalates_after_max_attempts() {
        let (suite, _) = compile(
            "send { MITD: 5min dpTask: accel onFail: restartPath maxAttempt: 3 onFail: skipPath Path: 2; }",
        );
        let m = &suite.machines()[0];
        assert!(
            !m.reset_on_path_restart,
            "MITD budget must survive restarts"
        );
        let mut s = MachineState::initial(m);
        let mut t = 0u64;
        let six_min = 360_000_000u64;
        // Two late rounds take the primary action…
        for round in 1..=2 {
            step(m, &mut s, &end("accel", t)).unwrap();
            t += six_min;
            let v = step(m, &mut s, &start("send", t)).unwrap().unwrap();
            assert_eq!(v.action, OnFail::RestartPath, "round {round}");
        }
        // …the third escalates to skipPath.
        step(m, &mut s, &end("accel", t)).unwrap();
        t += six_min;
        let v = step(m, &mut s, &start("send", t)).unwrap().unwrap();
        assert_eq!(v.action, OnFail::SkipPath);
        // And the budget is fresh afterwards.
        step(m, &mut s, &end("accel", t)).unwrap();
        t += six_min;
        let v = step(m, &mut s, &start("send", t)).unwrap().unwrap();
        assert_eq!(v.action, OnFail::RestartPath);
    }

    #[test]
    fn mitd_completion_resets_attempt_budget() {
        let (suite, _) = compile(
            "send { MITD: 1s dpTask: accel onFail: restartPath maxAttempt: 2 onFail: skipPath Path: 2; }",
        );
        let m = &suite.machines()[0];
        let mut s = MachineState::initial(m);
        // One late round…
        step(m, &mut s, &end("accel", 0)).unwrap();
        let v = step(m, &mut s, &start("send", 2_000_000)).unwrap().unwrap();
        assert_eq!(v.action, OnFail::RestartPath);
        // …then an on-time start followed by the consumer *completing*
        // clears the budget (starts alone do not: a power failure could
        // still strand the re-attempt past the bound)…
        step(m, &mut s, &end("accel", 3_000_000)).unwrap();
        assert!(step(m, &mut s, &start("send", 3_500_000))
            .unwrap()
            .is_none());
        step(m, &mut s, &end("send", 3_600_000)).unwrap();
        // …so the next failure is primary again, not the escalation.
        step(m, &mut s, &end("accel", 4_000_000)).unwrap();
        let v = step(m, &mut s, &start("send", 9_000_000)).unwrap().unwrap();
        assert_eq!(v.action, OnFail::RestartPath);
    }

    #[test]
    fn mitd_rechecks_post_failure_reattempts() {
        // The §5.2 scenario: an in-time start followed by a power
        // failure; the re-attempt start after a long outage must STILL
        // be checked (the data is only consumed at completion).
        let (suite, _) = compile("send { MITD: 1s dpTask: accel onFail: restartPath Path: 2; }");
        let m = &suite.machines()[0];
        let mut s = MachineState::initial(m);
        step(m, &mut s, &end("accel", 0)).unwrap();
        assert!(step(m, &mut s, &start("send", 500_000)).unwrap().is_none());
        // Power failure; re-attempt 10 s later: stale.
        let v = step(m, &mut s, &start("send", 10_500_000))
            .unwrap()
            .unwrap();
        assert_eq!(v.action, OnFail::RestartPath);
        // The producer re-runs; the refreshed timestamp is observed
        // even though the machine never left WaitStartA.
        step(m, &mut s, &end("accel", 11_000_000)).unwrap();
        assert!(step(m, &mut s, &start("send", 11_200_000))
            .unwrap()
            .is_none());
    }

    #[test]
    fn period_flags_gaps_beyond_interval_plus_jitter() {
        let (suite, _) = compile("accel { period: 10s jitter: 1s onFail: restartTask; }");
        let m = &suite.machines()[0];
        let mut s = MachineState::initial(m);
        assert!(step(m, &mut s, &start("accel", 0)).unwrap().is_none());
        // 10.5 s gap: inside interval + jitter.
        assert!(step(m, &mut s, &start("accel", 10_500_000))
            .unwrap()
            .is_none());
        // 12 s gap: violation.
        let v = step(m, &mut s, &start("accel", 22_500_000))
            .unwrap()
            .unwrap();
        assert_eq!(v.action, OnFail::RestartTask);
        // The late start still re-bases the period.
        assert!(step(m, &mut s, &start("accel", 32_000_000))
            .unwrap()
            .is_none());
    }

    #[test]
    fn period_escalation_counts_consecutive_failures() {
        let (suite, _) =
            compile("accel { period: 1s onFail: restartTask maxAttempt: 2 onFail: skipPath; }");
        let m = &suite.machines()[0];
        let mut s = MachineState::initial(m);
        step(m, &mut s, &start("accel", 0)).unwrap();
        let v = step(m, &mut s, &start("accel", 10_000_000))
            .unwrap()
            .unwrap();
        assert_eq!(v.action, OnFail::RestartTask);
        let v = step(m, &mut s, &start("accel", 20_000_000))
            .unwrap()
            .unwrap();
        assert_eq!(v.action, OnFail::SkipPath);
    }

    #[test]
    fn dp_data_range_checks_end_events() {
        let (suite, _) =
            compile("calcAvg { dpData: avgTemp Range: [36, 38] onFail: completePath; }");
        let m = &suite.machines()[0];
        let mut s = MachineState::initial(m);
        let mut ev = end("calcAvg", 0);
        ev.ctx.dep_data = Some(37.0);
        assert!(step(m, &mut s, &ev).unwrap().is_none());
        ev.ctx.dep_data = Some(39.5);
        let v = step(m, &mut s, &ev).unwrap().unwrap();
        assert_eq!(v.action, OnFail::CompletePath);
        ev.ctx.dep_data = Some(35.9);
        assert!(step(m, &mut s, &ev).unwrap().is_some());
        // Boundary values are in range (inclusive).
        ev.ctx.dep_data = Some(36.0);
        assert!(step(m, &mut s, &ev).unwrap().is_none());
        ev.ctx.dep_data = Some(38.0);
        assert!(step(m, &mut s, &ev).unwrap().is_none());
    }

    #[test]
    fn energy_property_gates_task_start() {
        let (suite, _) = compile("accel { energy: 300uJ onFail: skipTask; }");
        let m = &suite.machines()[0];
        let mut s = MachineState::initial(m);
        let mut ev = start("accel", 0);
        ev.ctx.energy_nj = 400_000; // 400 µJ: plenty
        assert!(step(m, &mut s, &ev).unwrap().is_none());
        ev.ctx.energy_nj = 200_000; // 200 µJ: too little
        let v = step(m, &mut s, &ev).unwrap().unwrap();
        assert_eq!(v.action, OnFail::SkipTask);
    }

    /// Oracle cross-check: drive the lowered maxTries machine and a
    /// trivially-correct counter implementation with the same random
    /// event stream and compare failure verdicts.
    #[test]
    fn max_tries_matches_oracle_on_random_streams() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let (suite, _) = compile("accel { maxTries: 4 onFail: skipPath; }");
        let m = &suite.machines()[0];
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);

        for _ in 0..200 {
            let mut s = MachineState::initial(m);
            let mut oracle_count = 0u32;
            let mut oracle_started = false;
            for t in 0..50u64 {
                let is_start = rng.random_bool(0.7);
                let task = if rng.random_bool(0.8) {
                    "accel"
                } else {
                    "other"
                };
                let ev = if is_start {
                    start(task, t)
                } else {
                    end(task, t)
                };
                let got = step(m, &mut s, &ev).unwrap().is_some();

                // Oracle semantics.
                let mut expect = false;
                if task == "accel" {
                    if is_start {
                        if !oracle_started {
                            oracle_started = true;
                            oracle_count = 1;
                        } else if oracle_count < 4 {
                            oracle_count += 1;
                        } else {
                            expect = true;
                            oracle_started = false;
                            oracle_count = 0;
                        }
                    } else if oracle_started {
                        oracle_started = false;
                        oracle_count = 0;
                    }
                }
                assert_eq!(got, expect, "divergence at t={t}");
            }
        }
    }
}
