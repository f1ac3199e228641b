//! Experiment drivers: one function per figure/table of the paper's
//! evaluation (§5). Each returns a [`Report`] with the same rows/series
//! the paper plots; `EXPERIMENTS.md` records paper-vs-measured.

use artemis_core::time::SimDuration;
use artemis_core::trace::TraceEvent;
use intermittent_sim::device::CostCategory;
use intermittent_sim::fram::MemOwner;
use intermittent_sim::harvester::Harvester;
use intermittent_sim::simulator::RunLimit;

use crate::health::{
    artemis_builder, benchmark_device, benchmark_device_bounded, benchmark_device_with_budget,
    health_app, install_artemis, install_mayfly, nominal_minutes, HEALTH_SPEC,
};
use crate::report::Report;

/// Cut-off after which a run is declared non-terminating.
fn dnf_limit() -> RunLimit {
    RunLimit::sim_time(SimDuration::from_hours(6))
}

/// Trace window for the DNF sweeps: non-terminating 6-hour runs append
/// records forever, so they keep only the most recent window (the
/// sweeps read aggregate counters, not the timeline).
const DNF_TRACE_CAP: usize = 4096;

/// The benchmark's static-analysis context: app graph (with task cost
/// declarations), compiled suite, and per-key FRAM-op bounds —
/// everything `artemis_ir::analysis::task_feasibility` prices.
fn health_analysis() -> (
    artemis_core::app::AppGraph,
    artemis_ir::compile::CompiledSuite,
    artemis_ir::SuiteBounds,
) {
    let app = health_app();
    let suite = artemis_ir::compile(HEALTH_SPEC, &app).expect("benchmark spec compiles");
    let compiled = artemis_ir::compile::CompiledSuite::compile(&suite, &app).expect("compiles");
    let bounds = artemis_ir::suite_bounds(&compiled);
    (app, compiled, bounds)
}

fn verdict_name(v: artemis_ir::analysis::Verdict) -> &'static str {
    use artemis_ir::analysis::Verdict;
    match v {
        Verdict::Feasible => "feasible",
        Verdict::Marginal => "marginal",
        Verdict::Infeasible => "infeasible",
    }
}

/// Worst install-time energy verdict across the benchmark's tasks at
/// the 800 µJ benchmark capacitor (the testbed the DNF sweeps run on).
fn health_worst_verdict() -> artemis_ir::analysis::Verdict {
    use artemis_ir::analysis::Verdict;
    let (app, compiled, bounds) = health_analysis();
    let profile = intermittent_sim::EnergyProfile::with_budget(
        crate::health::benchmark_capacitor().usable_budget(),
    );
    artemis_ir::analysis::task_feasibility(&compiled, &bounds, &app, &profile)
        .into_iter()
        .map(|f| f.verdict)
        .max_by_key(|v| match v {
            Verdict::Feasible => 0,
            Verdict::Marginal => 1,
            Verdict::Infeasible => 2,
        })
        .expect("benchmark has tasks")
}

/// Renders the install-time verdict next to a measured ARTEMIS run
/// outcome for the DNF sweeps: `feasible` must coincide with a
/// completed run, `infeasible` with a DNF; `marginal` claims neither.
fn verdict_vs_outcome(v: artemis_ir::analysis::Verdict, completed: bool) -> String {
    use artemis_ir::analysis::Verdict;
    let agreement = match (v, completed) {
        (Verdict::Marginal, _) => "within margin",
        (Verdict::Feasible, true) | (Verdict::Infeasible, false) => "agree",
        _ => "MISS",
    };
    format!("{} ({agreement})", verdict_name(v))
}

fn fmt_secs(d: SimDuration) -> String {
    format!("{:.1}", d.as_secs_f64())
}

fn fmt_ms(d: SimDuration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

fn fmt_mj(e: intermittent_sim::Energy) -> String {
    format!("{:.3}", e.as_joules_f64() * 1e3)
}

/// **Figure 12** — total execution time under intermittent power with
/// charging delays of 1–10 nominal minutes. Mayfly non-terminates once
/// the delay exceeds the 5-minute MITD; ARTEMIS always completes.
pub fn fig12() -> Report {
    let mut r = Report::new(
        "fig12",
        "total execution time vs charging time (intermittent power)",
        &[
            "charging (nominal min)",
            "ARTEMIS time (s)",
            "ARTEMIS reboots",
            "Mayfly time (s)",
            "Mayfly reboots",
            "analysis (ARTEMIS)",
        ],
    );
    let verdict = health_worst_verdict();
    for n in 1..=10u64 {
        let delay = nominal_minutes(n);

        let mut dev = benchmark_device_bounded(Harvester::FixedDelay(delay), DNF_TRACE_CAP);
        let mut rt = install_artemis(&mut dev, HEALTH_SPEC);
        let artemis = rt.run_once(&mut dev, dnf_limit());
        let artemis_cell = if artemis.is_completed() {
            fmt_secs(dev.clock().on_time() + dev.clock().off_time())
        } else {
            "DNF".to_string()
        };
        let artemis_reboots = dev.reboots();

        let mut dev = benchmark_device_bounded(Harvester::FixedDelay(delay), DNF_TRACE_CAP);
        let mut rt = install_mayfly(&mut dev);
        let mayfly = rt.run_once(&mut dev, dnf_limit());
        let mayfly_cell = if mayfly.is_completed() {
            fmt_secs(dev.clock().on_time() + dev.clock().off_time())
        } else {
            "DNF".to_string()
        };
        let mayfly_reboots = dev.reboots();

        r.row(vec![
            n.to_string(),
            artemis_cell,
            artemis_reboots.to_string(),
            mayfly_cell,
            mayfly_reboots.to_string(),
            verdict_vs_outcome(verdict, artemis.is_completed()),
        ]);
    }
    r.note("nominal minute = 59 s (harvester reaches V_on slightly early; see EXPERIMENTS.md)");
    r.note("DNF = did not finish within 6 h of simulated time");
    r.note(
        "analysis = install-time energy verdict (worst task, 800 uJ capacitor), checked \
         against the monitored ARTEMIS run; Mayfly's DNFs are MITD liveness failures, \
         outside the energy model's claim",
    );
    r
}

/// **Figure 13** — the non-termination-prevention timeline: under a
/// 6-nominal-minute charging delay, ARTEMIS makes three MITD restart
/// attempts on path 2, then `maxAttempt` skips the path and the
/// application completes.
pub fn fig13() -> Report {
    let mut dev = benchmark_device(Harvester::FixedDelay(nominal_minutes(6)));
    let mut rt = install_artemis(&mut dev, HEALTH_SPEC);
    let outcome = rt.run_once(&mut dev, dnf_limit());

    let mut r = Report::new(
        "fig13",
        "ARTEMIS prevents non-termination via maxAttempt (6 min charging)",
        &["time", "event"],
    );
    let app = health_app();
    let trace = dev.trace();
    for rec in trace.records() {
        let text = match &rec.event {
            TraceEvent::PowerFailure => Some("POWER FAILURE".to_string()),
            TraceEvent::Charged { delay } => Some(format!("charged after {delay}")),
            TraceEvent::TaskStart { task, attempt } => Some(format!(
                "start {} (attempt {attempt})",
                app.task_name(*task)
            )),
            TraceEvent::TaskEnd { task } => Some(format!("end {}", app.task_name(*task))),
            TraceEvent::Violation {
                monitor, action, ..
            } => Some(format!(
                "VIOLATION {} -> {action}",
                trace.monitor_name(*monitor)
            )),
            TraceEvent::PathSkipped { path } => Some(format!("SKIP {path}")),
            TraceEvent::PathComplete { path } => Some(format!("complete {path}")),
            TraceEvent::RunComplete => Some("RUN COMPLETE".to_string()),
            _ => None,
        };
        if let Some(text) = text {
            r.row(vec![format!("{}", rec.at), text]);
        }
    }

    let trace = dev.trace();
    let mitd_restarts = trace.count(|e| {
        matches!(e, TraceEvent::Violation { monitor, action, .. }
            if trace.monitor_name(*monitor).contains("MITD") && action.restarts_path())
    });
    let mitd_skips = trace.count(|e| {
        matches!(e, TraceEvent::Violation { monitor, action, .. }
            if trace.monitor_name(*monitor).contains("MITD")
                && matches!(action, artemis_core::Action::SkipPath(_)))
    });
    r.note(format!(
        "completed: {}; MITD restart attempts: {}; MITD escalations (skipPath): {}",
        outcome.is_completed(),
        mitd_restarts,
        mitd_skips
    ));
    r
}

/// Shared driver for Figures 14 and 15: one continuously-powered run of
/// each system, split into application / runtime / monitor time.
struct OverheadSample {
    app: SimDuration,
    runtime: SimDuration,
    monitor: SimDuration,
}

fn overheads() -> (OverheadSample, OverheadSample) {
    let mut dev = benchmark_device(Harvester::Continuous);
    let mut rt = install_artemis(&mut dev, HEALTH_SPEC);
    // Exclude installation costs: measure the run only.
    let before = *dev.stats();
    rt.run_once(&mut dev, dnf_limit())
        .completed()
        .expect("continuous ARTEMIS run completes");
    let stats = *dev.stats();
    let artemis = OverheadSample {
        app: stats.time(CostCategory::App) - before.time(CostCategory::App),
        runtime: stats.time(CostCategory::Runtime) - before.time(CostCategory::Runtime),
        monitor: stats.time(CostCategory::Monitor) - before.time(CostCategory::Monitor),
    };

    let mut dev = benchmark_device(Harvester::Continuous);
    let mut rt = install_mayfly(&mut dev);
    let before = *dev.stats();
    rt.run_once(&mut dev, dnf_limit())
        .completed()
        .expect("continuous Mayfly run completes");
    let stats = *dev.stats();
    let mayfly = OverheadSample {
        app: stats.time(CostCategory::App) - before.time(CostCategory::App),
        runtime: stats.time(CostCategory::Runtime) - before.time(CostCategory::Runtime),
        monitor: stats.time(CostCategory::Monitor) - before.time(CostCategory::Monitor),
    };
    (artemis, mayfly)
}

/// **Figure 14** — execution time and overheads on continuous power
/// (seconds scale: overheads vanish next to application time).
pub fn fig14() -> Report {
    let (artemis, mayfly) = overheads();
    let mut r = Report::new(
        "fig14",
        "execution time and overheads on continuous power (seconds)",
        &[
            "system",
            "app (s)",
            "runtime (s)",
            "monitor (s)",
            "total (s)",
        ],
    );
    for (name, s) in [("ARTEMIS", &artemis), ("Mayfly", &mayfly)] {
        r.row(vec![
            name.to_string(),
            fmt_secs(s.app),
            fmt_secs(s.runtime),
            fmt_secs(s.monitor),
            fmt_secs(s.app + s.runtime + s.monitor),
        ]);
    }
    r.note("Mayfly's property checking is inseparable from its runtime (monitor column = 0)");
    r
}

/// **Figure 15** — the same overheads at millisecond resolution, where
/// the ARTEMIS-vs-Mayfly gap is visible.
pub fn fig15() -> Report {
    let (artemis, mayfly) = overheads();
    let mut r = Report::new(
        "fig15",
        "overhead detail on continuous power (milliseconds)",
        &[
            "system",
            "runtime (ms)",
            "monitor (ms)",
            "overhead total (ms)",
        ],
    );
    for (name, s) in [("ARTEMIS", &artemis), ("Mayfly", &mayfly)] {
        r.row(vec![
            name.to_string(),
            fmt_ms(s.runtime),
            fmt_ms(s.monitor),
            fmt_ms(s.runtime + s.monitor),
        ]);
    }
    let a_total = artemis.runtime + artemis.monitor;
    let m_total = mayfly.runtime + mayfly.monitor;
    r.note(format!(
        "ARTEMIS overhead / Mayfly overhead = {:.2}x (paper: slightly above 1)",
        a_total.as_secs_f64() / m_total.as_secs_f64().max(1e-12)
    ));
    r
}

/// **Figure 16** — energy to complete one application run, continuous
/// and intermittent with growing charging delays. Beyond the MITD bound
/// Mayfly's demand is unbounded; ARTEMIS pays ~3 restart attempts.
pub fn fig16() -> Report {
    let mut r = Report::new(
        "fig16",
        "energy consumption per completed run (mJ)",
        &[
            "supply",
            "ARTEMIS (mJ)",
            "Mayfly (mJ)",
            "analysis (ARTEMIS)",
        ],
    );
    let verdict = health_worst_verdict();
    let scenarios: Vec<(String, Harvester)> = vec![
        ("continuous".to_string(), Harvester::Continuous),
        (
            "1 min charging".to_string(),
            Harvester::FixedDelay(nominal_minutes(1)),
        ),
        (
            "2 min charging".to_string(),
            Harvester::FixedDelay(nominal_minutes(2)),
        ),
        (
            "6 min charging".to_string(),
            Harvester::FixedDelay(nominal_minutes(6)),
        ),
    ];
    let mut continuous_artemis = None;
    for (label, harvester) in scenarios {
        let mut dev = benchmark_device_bounded(harvester.clone(), DNF_TRACE_CAP);
        let mut rt = install_artemis(&mut dev, HEALTH_SPEC);
        let before = dev.stats().consumed;
        let outcome = rt.run_once(&mut dev, dnf_limit());
        let consumed = dev.stats().consumed - before;
        let artemis_cell = if outcome.is_completed() {
            fmt_mj(consumed)
        } else {
            format!("unbounded (>{} at cut-off)", fmt_mj(consumed))
        };
        let analysis_cell = verdict_vs_outcome(verdict, outcome.is_completed());
        if label == "continuous" {
            continuous_artemis = Some(consumed);
        }

        let mut dev = benchmark_device_bounded(harvester, DNF_TRACE_CAP);
        let mut rt = install_mayfly(&mut dev);
        let before = dev.stats().consumed;
        let outcome = rt.run_once(&mut dev, dnf_limit());
        let consumed = dev.stats().consumed - before;
        let mayfly_cell = if outcome.is_completed() {
            fmt_mj(consumed)
        } else {
            format!("unbounded (>{} at cut-off)", fmt_mj(consumed))
        };

        r.row(vec![label, artemis_cell, mayfly_cell, analysis_cell]);
    }
    r.note(
        "analysis = install-time energy verdict (worst task, 800 uJ capacitor), checked \
         against the monitored ARTEMIS run per point",
    );
    if let Some(base) = continuous_artemis {
        let mut dev = benchmark_device(Harvester::FixedDelay(nominal_minutes(6)));
        let mut rt = install_artemis(&mut dev, HEALTH_SPEC);
        let before = dev.stats().consumed;
        rt.run_once(&mut dev, dnf_limit());
        let six = dev.stats().consumed - before;
        r.note(format!(
            "ARTEMIS 6-min / continuous energy ratio: {:.2}x (paper: ~3x from three path-2 attempts)",
            six.as_joules_f64() / base.as_joules_f64().max(1e-18)
        ));
    }
    r
}

/// **Table 2** — memory requirements in bytes. FRAM/RAM are measured
/// exactly from the allocator; `.text` uses the documented proxies
/// (source bytes / 4 for the runtimes, generated-C bytes / 4 for the
/// monitors — relative comparison only, see EXPERIMENTS.md).
pub fn table2() -> Report {
    // Install both systems on fresh devices and read the allocators.
    let mut dev = benchmark_device(Harvester::Continuous);
    let _rt = install_artemis(&mut dev, HEALTH_SPEC);
    let artemis_rt_fram = dev.fram().used_by(MemOwner::Runtime);
    let artemis_mon_fram = dev.fram().used_by(MemOwner::Monitor);
    let artemis_rt_ram = dev.sram().used_by(MemOwner::Runtime);
    let artemis_mon_ram = dev.sram().used_by(MemOwner::Monitor);

    let mut dev = benchmark_device(Harvester::Continuous);
    let _rt = install_mayfly(&mut dev);
    let mayfly_fram = dev.fram().used_by(MemOwner::Runtime);
    let mayfly_ram = dev.sram().used_by(MemOwner::Runtime);

    // `.text` proxies for the runtimes; the monitor's figure is the
    // measured packed FRAM machine images the engine actually installs
    // (one `MachineLayout::block_len` per compiled machine — exact,
    // replacing the earlier generated-C-bytes/4 proxy).
    let app = health_app();
    let suite = artemis_ir::compile(HEALTH_SPEC, &app).expect("spec compiles");
    let compiled =
        artemis_ir::compile::CompiledSuite::compile(&suite, &app).expect("suite compiles");
    let monitor_text: usize = compiled
        .machines()
        .iter()
        .map(|m| m.layout().block_len)
        .sum();
    let artemis_rt_text = include_str!("../../runtime/src/lib.rs").len() / 4;
    let mayfly_text = include_str!("../../mayfly/src/lib.rs").len() / 4;

    let mut r = Report::new(
        "table2",
        "memory requirements (bytes)",
        &["component", ".text (proxy)", "RAM", "FRAM"],
    );
    r.row(vec![
        "Mayfly runtime".to_string(),
        mayfly_text.to_string(),
        mayfly_ram.to_string(),
        mayfly_fram.to_string(),
    ]);
    r.row(vec![
        "ARTEMIS runtime".to_string(),
        artemis_rt_text.to_string(),
        artemis_rt_ram.to_string(),
        artemis_rt_fram.to_string(),
    ]);
    r.row(vec![
        "ARTEMIS monitor".to_string(),
        monitor_text.to_string(),
        artemis_mon_ram.to_string(),
        artemis_mon_fram.to_string(),
    ]);
    r.note(
        ".text proxy: source bytes / 4 (runtimes); the monitor figure is the measured \
         packed FRAM machine images (sum of per-machine block_len from the compiled \
         layouts), replacing the earlier generated-C-bytes/4 proxy",
    );
    r.note("FRAM/RAM measured from the simulator's allocator, exact to the byte");
    r
}

/// **Ablation (beyond the paper's figures)** — monitoring deployment
/// alternatives from §7: the local power-failure-resilient engine, the
/// external wireless monitor, and no monitoring at all, all driving the
/// same benchmark on continuous power. Quantifies the paper's
/// prediction that the wireless alternative's radio round-trips are
/// "way more energy-hungry compared to computation".
pub fn ablation_deployment() -> Report {
    use artemis_monitor::{Monitoring, NoMonitoring, RemoteMonitorEngine};

    fn measure<M: Monitoring>(
        install: impl FnOnce(&mut intermittent_sim::Device) -> artemis_runtime::ArtemisRuntime<M>,
    ) -> (SimDuration, intermittent_sim::Energy, usize) {
        let mut dev = benchmark_device(Harvester::Continuous);
        let mut rt = install(&mut dev);
        let before_t = dev.stats().time(CostCategory::Monitor);
        let before_e = dev.stats().energy(CostCategory::Monitor);
        rt.run_once(&mut dev, dnf_limit())
            .completed()
            .expect("continuous run completes");
        (
            dev.stats().time(CostCategory::Monitor) - before_t,
            dev.stats().energy(CostCategory::Monitor) - before_e,
            rt.engine().machine_count(),
        )
    }

    let app = health_app();
    let local = measure(|dev| install_artemis(dev, HEALTH_SPEC));
    let suite = artemis_ir::compile(HEALTH_SPEC, &app).expect("spec compiles");
    let remote = measure(|dev| {
        let engine = RemoteMonitorEngine::install(dev, suite, &app).expect("remote installs");
        artemis_builder(health_app())
            .install_with(dev, engine)
            .expect("installs")
    });
    let none = measure(|dev| {
        artemis_builder(health_app())
            .install_with(dev, NoMonitoring)
            .expect("installs")
    });

    let mut r = Report::new(
        "ablation_deployment",
        "monitoring deployment alternatives (continuous power, one run)",
        &[
            "deployment",
            "machines",
            "monitor time (ms)",
            "monitor energy (uJ)",
        ],
    );
    for (name, (t, e, n)) in [
        ("local engine", local),
        ("external (wireless)", remote),
        ("none", none),
    ] {
        r.row(vec![
            name.to_string(),
            n.to_string(),
            fmt_ms(t),
            format!("{:.1}", e.as_joules_f64() * 1e6),
        ]);
    }
    r.note("the external monitor frees node FRAM but pays a radio round-trip per event (paper §7)");
    r
}

/// **Ablation (beyond the paper's figures)** — scalability of property
/// checking (the paper's P3): per-event monitor cost as the number of
/// installed properties grows. The engine's trigger pre-filter keeps
/// the marginal cost of an *irrelevant* property to a counter write, so
/// cost grows far slower than linearly in total properties.
pub fn ablation_scalability() -> Report {
    use artemis_core::event::MonitorEvent;
    use artemis_monitor::MonitorEngine;
    use intermittent_sim::DeviceBuilder;

    let mut r = Report::new(
        "ablation_scalability",
        "per-event monitor cost vs number of installed properties",
        &["properties", "time per event (us)", "energy per event (nJ)"],
    );

    for n_props in [1usize, 2, 4, 8, 16, 32] {
        // n tasks, each with a maxTries property; events target task 0.
        let mut b = artemis_core::app::AppGraphBuilder::new();
        let mut tasks = Vec::new();
        for i in 0..n_props {
            tasks.push(b.task(&format!("t{i}")));
        }
        b.path(&tasks);
        let app = b.build().expect("graph");
        let spec: String = (0..n_props)
            .map(|i| {
                format!(
                    "t{i} {{ maxTries: 1000 onFail: skipPath; }}
"
                )
            })
            .collect();
        let suite = artemis_ir::compile(&spec, &app).expect("spec");

        let mut dev = DeviceBuilder::msp430fr5994().trace_disabled().build();
        let engine = MonitorEngine::install(&mut dev, suite, &app).expect("installs");
        engine.reset_monitor(&mut dev).expect("reset");

        let before_t = dev.stats().time(CostCategory::Monitor);
        let before_e = dev.stats().energy(CostCategory::Monitor);
        let events = 200u64;
        for seq in 1..=events {
            let ev = MonitorEvent::start(tasks[0], artemis_core::SimInstant::from_micros(seq));
            engine.call_monitor(&mut dev, seq, &ev).expect("event");
        }
        let dt = dev.stats().time(CostCategory::Monitor) - before_t;
        let de = dev.stats().energy(CostCategory::Monitor) - before_e;
        r.row(vec![
            n_props.to_string(),
            format!("{:.1}", dt.as_secs_f64() * 1e6 / events as f64),
            format!("{:.1}", de.as_joules_f64() * 1e9 / events as f64),
        ]);
    }
    r.note(
        "events all target one task; the other properties are dismissed by the trigger pre-filter",
    );
    r
}

/// **Scaling benchmark (beyond the paper's figures)** — per-event
/// monitor cost as installed properties grow at a fixed matching
/// fraction (events always target task 0, so exactly one property can
/// react). Arming commits only the interested worklist, so the
/// per-event cost stays flat in the number of installed machines.
pub fn scaling() -> Report {
    use artemis_core::event::MonitorEvent;
    use artemis_monitor::MonitorEngine;
    use intermittent_sim::DeviceBuilder;

    const EVENTS: u64 = 200;

    let mut r = Report::new(
        "scaling",
        "per-event monitor cost vs installed properties (1 matching)",
        &["properties", "time/event (us)", "energy/event (nJ)"],
    );

    let mut costs = Vec::new();
    for n_props in [1usize, 2, 4, 8, 16, 32] {
        // n tasks, each with a maxTries property; events target task 0,
        // so the other n-1 properties are never interested.
        let mut b = artemis_core::app::AppGraphBuilder::new();
        let mut tasks = Vec::new();
        for i in 0..n_props {
            tasks.push(b.task(&format!("t{i}")));
        }
        b.path(&tasks);
        let app = b.build().expect("graph");
        let spec: String = (0..n_props)
            .map(|i| format!("t{i} {{ maxTries: 1000 onFail: skipPath; }}\n"))
            .collect();

        let suite = artemis_ir::compile(&spec, &app).expect("spec");
        let mut dev = DeviceBuilder::msp430fr5994().trace_disabled().build();
        let engine = MonitorEngine::install(&mut dev, suite, &app).expect("installs");
        engine.reset_monitor(&mut dev).expect("reset");

        let before_t = dev.stats().time(CostCategory::Monitor);
        let before_e = dev.stats().energy(CostCategory::Monitor);
        for seq in 1..=EVENTS {
            let ev = MonitorEvent::start(tasks[0], artemis_core::SimInstant::from_micros(seq));
            engine.call_monitor(&mut dev, seq, &ev).expect("event");
        }
        let dt = dev.stats().time(CostCategory::Monitor) - before_t;
        let de = dev.stats().energy(CostCategory::Monitor) - before_e;
        let nj = de.as_joules_f64() * 1e9 / EVENTS as f64;
        costs.push(nj);
        r.row(vec![
            n_props.to_string(),
            format!("{:.1}", dt.as_secs_f64() * 1e6 / EVENTS as f64),
            format!("{nj:.1}"),
        ]);
    }
    r.note(format!(
        "32-prop / 1-prop energy ratio: {:.2}x (acceptance target: <= 2x; the removed \
         full-scan dispatch measured 4.42x at 581e74b)",
        costs[costs.len() - 1] / costs[0]
    ));
    r
}

/// Shape of the dispatch stress suite ([`dispatch_suite`]).
pub(crate) const DISPATCH_MACHINES: usize = 8;
pub(crate) const DISPATCH_VARS: usize = 12;

/// The monitor-heavy suite the dispatch benchmark runs: every `start(t0)`
/// event drives every variable of every machine, the worst case for the
/// interpreter's one-cell-per-variable layout. Hand-built because spec
/// properties top out at a couple of variables. Shared with the
/// static-bound dominance test so the analysed and measured suites can
/// never drift apart.
pub(crate) fn dispatch_suite() -> (
    artemis_ir::fsm::MonitorSuite,
    artemis_core::app::AppGraph,
    artemis_core::app::TaskId,
) {
    use artemis_ir::expr::{BinOp, Expr, Value, VarType};
    use artemis_ir::fsm::{MonitorSuite, StateMachine, Stmt, TaskPat, Transition, Trigger};

    let mut b = artemis_core::app::AppGraphBuilder::new();
    let t0 = b.task("t0");
    let t1 = b.task("t1");
    b.path(&[t0, t1]);
    let app = b.build().expect("graph");

    let mut suite = MonitorSuite::new();
    for m in 0..DISPATCH_MACHINES {
        let mut sm = StateMachine::new(&format!("m{m}"), "t0");
        for v in 0..DISPATCH_VARS {
            sm.add_var(&format!("v{v}"), VarType::Int, Value::Int(0));
        }
        sm.add_state("S");
        sm.transitions.push(Transition {
            from: 0,
            to: 0,
            trigger: Trigger::Start(TaskPat::named("t0")),
            guard: None,
            body: (0..DISPATCH_VARS)
                .map(|v| {
                    Stmt::Assign(
                        format!("v{v}"),
                        Expr::bin(BinOp::Add, Expr::var(&format!("v{v}")), Expr::int(1)),
                    )
                })
                .collect(),
            emit: None,
        });
        suite.push(sm);
    }
    (suite, app, t0)
}

/// Sparse-handler variant of the dispatch stress suite: the same
/// machines and variables, but every event increments only `v0` — the
/// motivating case for sparse delta commits (a transition that touches
/// one counter of a twelve-variable block).
pub(crate) fn sparse_dispatch_suite() -> (
    artemis_ir::fsm::MonitorSuite,
    artemis_core::app::AppGraph,
    artemis_core::app::TaskId,
) {
    use artemis_ir::expr::{BinOp, Expr, Value, VarType};
    use artemis_ir::fsm::{MonitorSuite, StateMachine, Stmt, TaskPat, Transition, Trigger};

    let mut b = artemis_core::app::AppGraphBuilder::new();
    let t0 = b.task("t0");
    let t1 = b.task("t1");
    b.path(&[t0, t1]);
    let app = b.build().expect("graph");

    let mut suite = MonitorSuite::new();
    for m in 0..DISPATCH_MACHINES {
        let mut sm = StateMachine::new(&format!("m{m}"), "t0");
        for v in 0..DISPATCH_VARS {
            sm.add_var(&format!("v{v}"), VarType::Int, Value::Int(0));
        }
        sm.add_state("S");
        sm.transitions.push(Transition {
            from: 0,
            to: 0,
            trigger: Trigger::Start(TaskPat::named("t0")),
            guard: None,
            body: vec![Stmt::Assign(
                "v0".to_string(),
                Expr::bin(BinOp::Add, Expr::var("v0"), Expr::int(1)),
            )],
            emit: None,
        });
        suite.push(sm);
    }
    (suite, app, t0)
}

/// Guarded variant of the sparse dispatch suite, built for the
/// optimizer benchmark: every `start(t0)` transition carries the guard
/// `v0 < 1000000 && v0 >= 0` in front of the single `v0 := v0 + 1`
/// increment. Unoptimized, the short-circuit `&&` lowers to two full
/// compare/branch ladders plus an `AssertBool`; the optimizer fuses
/// each comparison into one superinstruction and threads the jumps, so
/// the same semantics execute in a fraction of the instructions. The
/// guard is always true for the benchmark's event counts, which keeps
/// every event on the same straight-line path — executed instructions
/// equal the static [`artemis_ir::StepCost`] ceiling exactly, at both
/// optimization levels.
pub(crate) fn guarded_sparse_suite() -> (
    artemis_ir::fsm::MonitorSuite,
    artemis_core::app::AppGraph,
    artemis_core::app::TaskId,
) {
    use artemis_ir::expr::{BinOp, Expr, Value, VarType};
    use artemis_ir::fsm::{MonitorSuite, StateMachine, Stmt, TaskPat, Transition, Trigger};

    let mut b = artemis_core::app::AppGraphBuilder::new();
    let t0 = b.task("t0");
    let t1 = b.task("t1");
    b.path(&[t0, t1]);
    let app = b.build().expect("graph");

    let mut suite = MonitorSuite::new();
    for m in 0..DISPATCH_MACHINES {
        let mut sm = StateMachine::new(&format!("m{m}"), "t0");
        for v in 0..DISPATCH_VARS {
            sm.add_var(&format!("v{v}"), VarType::Int, Value::Int(0));
        }
        sm.add_state("S");
        sm.transitions.push(Transition {
            from: 0,
            to: 0,
            trigger: Trigger::Start(TaskPat::named("t0")),
            guard: Some(Expr::bin(
                BinOp::And,
                Expr::bin(BinOp::Lt, Expr::var("v0"), Expr::int(1_000_000)),
                Expr::bin(BinOp::Ge, Expr::var("v0"), Expr::int(0)),
            )),
            body: vec![Stmt::Assign(
                "v0".to_string(),
                Expr::bin(BinOp::Add, Expr::var("v0"), Expr::int(1)),
            )],
            emit: None,
        });
        suite.push(sm);
    }
    (suite, app, t0)
}

/// A monitor suite, its application graph, and the task whose starts
/// drive the measured stream.
type Workload = (
    artemis_ir::fsm::MonitorSuite,
    artemis_core::app::AppGraph,
    artemis_core::app::TaskId,
);

/// Events per measured FRAM-traffic stream.
const STREAM_EVENTS: u64 = 200;

/// FRAM traffic, monitor time and energy, and shadow-cache counters of
/// one [`measure`] run.
struct Traffic {
    reads: u64,
    writes: u64,
    read_bytes: u64,
    write_bytes: u64,
    time: SimDuration,
    energy: intermittent_sim::Energy,
    cache: artemis_monitor::CacheStats,
}

impl Traffic {
    fn per_event(total: u64) -> f64 {
        total as f64 / STREAM_EVENTS as f64
    }
    fn reads_per_event(&self) -> f64 {
        Self::per_event(self.reads)
    }
    fn ops_per_event(&self) -> f64 {
        Self::per_event(self.reads + self.writes)
    }
    fn read_b(&self) -> f64 {
        Self::per_event(self.read_bytes)
    }
    fn write_b(&self) -> f64 {
        Self::per_event(self.write_bytes)
    }
    fn bytes_per_event(&self) -> f64 {
        Self::per_event(self.read_bytes + self.write_bytes)
    }
    fn time_us(&self) -> f64 {
        self.time.as_secs_f64() * 1e6 / STREAM_EVENTS as f64
    }

    /// The shared traffic columns: FRAM reads, FRAM writes,
    /// reads/event, ops/event, time/event (us), read B/event, write
    /// B/event.
    fn cells(&self) -> Vec<String> {
        vec![
            self.reads.to_string(),
            self.writes.to_string(),
            format!("{:.1}", self.reads_per_event()),
            format!("{:.1}", self.ops_per_event()),
            format!("{:.2}", self.time_us()),
            format!("{:.1}", self.read_b()),
            format!("{:.1}", self.write_b()),
        ]
    }
}

/// The shared traffic column names, in [`Traffic::cells`] order.
const TRAFFIC_COLUMNS: [&str; 7] = [
    "FRAM reads",
    "FRAM writes",
    "reads/event",
    "ops/event",
    "time/event (us)",
    "read B/event",
    "write B/event",
];

/// Column list: `lead` names followed by [`TRAFFIC_COLUMNS`].
fn traffic_columns(lead: &[&'static str]) -> Vec<&'static str> {
    lead.iter().chain(&TRAFFIC_COLUMNS).copied().collect()
}

/// Installs the workload's suite with `opts` on a fresh device, resets
/// it, and delivers [`STREAM_EVENTS`] consecutive starts of its task —
/// one at a time, or through `deliver_batch` in full groups of `batch`
/// — returning the traffic of the deliveries alone. With
/// `always_cold`, SRAM is cleared before every delivery, so each one
/// takes the post-reboot read path.
fn measure(
    (suite, app, t0): &Workload,
    opts: artemis_monitor::InstallOptions,
    batch: Option<usize>,
    always_cold: bool,
) -> Traffic {
    use artemis_core::event::MonitorEvent;
    use artemis_monitor::{BatchMode, InstallOptions, MonitorEngine};

    let opts = InstallOptions {
        batch: batch.map_or(opts.batch, |max_events| BatchMode::Enabled { max_events }),
        ..opts
    };
    let mut dev = intermittent_sim::DeviceBuilder::msp430fr5994()
        .trace_disabled()
        .build();
    let engine = MonitorEngine::install_with(&mut dev, suite.clone(), app, opts).expect("installs");
    engine.reset_monitor(&mut dev).expect("reset");
    let fram = |dev: &intermittent_sim::Device| {
        let f = dev.fram();
        [f.read_ops(), f.write_ops(), f.read_bytes(), f.write_bytes()]
    };
    let fram0 = fram(&dev);
    let time0 = dev.stats().time(CostCategory::Monitor);
    let energy0 = dev.stats().energy(CostCategory::Monitor);
    let group = batch.unwrap_or(1) as u64;
    let mut seq = 1;
    while seq <= STREAM_EVENTS {
        if always_cold {
            dev.sram_mut().clear();
        }
        let n = group.min(STREAM_EVENTS - seq + 1);
        let events: Vec<MonitorEvent> = (seq..seq + n)
            .map(|s| MonitorEvent::start(*t0, artemis_core::SimInstant::from_micros(s)))
            .collect();
        if batch.is_some() {
            engine.deliver_batch(&mut dev, seq, &events).expect("batch");
        } else {
            engine
                .call_monitor(&mut dev, seq, &events[0])
                .expect("event");
        }
        seq += n;
    }
    let now = fram(&dev);
    let [reads, writes, read_bytes, write_bytes] = [0, 1, 2, 3].map(|i| now[i] - fram0[i]);
    Traffic {
        reads,
        writes,
        read_bytes,
        write_bytes,
        time: dev.stats().time(CostCategory::Monitor) - time0,
        energy: dev.stats().energy(CostCategory::Monitor) - energy0,
        cache: engine.cache_stats(),
    }
}

/// **Delta benchmark (beyond the paper's figures)** — per-event FRAM
/// traffic of the compiled engine's sparse commits (load the readable
/// slots, journal only the changed bytes) against the interpreter's
/// per-cell layout. Three workloads: the sparse-handler dispatch suite
/// (one of twelve variables written — the case span loads exist for),
/// the dense dispatch suite (every variable written — every machine
/// auto-degrades to whole-block images), and the 32-property scaling
/// suite (single-variable blocks, which degrade too).
pub fn delta() -> Report {
    use artemis_monitor::{ExecMode, InstallOptions};

    let compiled = InstallOptions::default();
    let interpreter = InstallOptions {
        mode: ExecMode::Interpreter,
        ..compiled
    };

    let mut r = Report::new(
        "delta",
        "per-event FRAM ops: sparse commits vs interpreter",
        &traffic_columns(&["workload", "mode"]),
    );

    // The 32-property scaling workload: events target task 0, one
    // matching single-variable property among 32 installed.
    let scaling_suite = || {
        let mut b = artemis_core::app::AppGraphBuilder::new();
        let mut tasks = Vec::new();
        for i in 0..32 {
            tasks.push(b.task(&format!("t{i}")));
        }
        b.path(&tasks);
        let app = b.build().expect("graph");
        let spec: String = (0..32)
            .map(|i| format!("t{i} {{ maxTries: 1000 onFail: skipPath; }}\n"))
            .collect();
        let suite = artemis_ir::compile(&spec, &app).expect("spec");
        let t0 = tasks[0];
        (suite, app, t0)
    };

    let mut dispatch_samples = Vec::new();
    for (workload, w, modes) in [
        (
            "dispatch",
            sparse_dispatch_suite(),
            &[("interpreter", interpreter), ("compiled", compiled)][..],
        ),
        (
            "dispatch-dense",
            dispatch_suite(),
            &[("compiled", compiled)][..],
        ),
        ("scaling-32", scaling_suite(), &[("compiled", compiled)][..]),
    ] {
        for (name, opts) in modes {
            let s = measure(&w, *opts, None, false);
            if workload == "dispatch" {
                dispatch_samples.push(s.ops_per_event());
            }
            let mut row = vec![workload.to_string(), name.to_string()];
            row.extend(s.cells());
            r.row(row);
        }
    }

    r.note(format!(
        "dispatch compiled: {:.1} ops/event vs the removed whole-block commit mode's \
         156 measured at 581e74b (acceptance target: <= 78, a >= 2x reduction)",
        dispatch_samples[1]
    ));
    // Surface the compile-time per-key degrade decision for each
    // dispatch-shaped workload (the scaling suite's blocks are
    // single-variable, so they always degrade).
    for (workload, (suite, app, _)) in [
        ("dispatch", sparse_dispatch_suite()),
        ("dispatch-dense", dispatch_suite()),
    ] {
        let compiled = artemis_ir::compile::CompiledSuite::compile(&suite, &app).expect("compiles");
        let bounds = artemis_ir::suite_bounds(&compiled);
        let key = bounds.worst_event().expect("has event keys");
        r.note(format!(
            "{workload} access sets: {} span-loading machine(s), {} degraded to whole-block",
            key.delta_machines, key.degraded_machines
        ));
    }
    r.note(format!(
        "{DISPATCH_MACHINES} machines x {DISPATCH_VARS} vars; dispatch writes 1 slot/event, \
         dispatch-dense writes all {DISPATCH_VARS} (>= 3/4 of the block, so commits degrade)"
    ));
    r
}

/// **Batch benchmark (beyond the paper's figures)** — per-event FRAM
/// traffic of group-commit batch delivery versus the per-event sparse
/// delta path on the sparse-handler dispatch suite. One sparse
/// transaction arms the whole batch, each machine steps every event in
/// volatile scratch and commits its coalesced net effect once, so the
/// arming and per-machine commit overheads amortise across the batch:
/// larger batches spend fewer FRAM ops per event.
pub fn batch() -> Report {
    use artemis_monitor::InstallOptions;

    /// Batch capacities swept (200 events divide evenly into each).
    const SIZES: [usize; 4] = [1, 2, 4, 8];

    let workload = sparse_dispatch_suite();
    let (suite, app, _) = &workload;
    let mut r = Report::new(
        "batch",
        "per-event FRAM ops: group-commit batches vs per-event delta",
        &traffic_columns(&["mode"]),
    );

    // The same 200-event stream through the per-event entry point, then
    // through `deliver_batch` in full chunks of each size.
    let baseline = measure(&workload, InstallOptions::default(), None, false);
    let mut row = vec!["per-event delta".to_string()];
    row.extend(baseline.cells());
    r.row(row);
    let mut samples = Vec::new();
    for b in SIZES {
        let s = measure(&workload, InstallOptions::default(), Some(b), false);
        let mut row = vec![format!("batch-{b}")];
        row.extend(s.cells());
        r.row(row);
        samples.push((b, s));
    }

    let at = |b: usize| -> f64 {
        samples
            .iter()
            .find(|(sb, _)| *sb == b)
            .expect("swept size")
            .1
            .ops_per_event()
    };
    r.note(format!(
        "batch-4 vs per-event delta FRAM op reduction: {:.2}x \
         (acceptance target: >= 1.5x on the sparse dispatch workload)",
        baseline.ops_per_event() / at(4)
    ));
    r.note(format!(
        "batch-1 vs per-event delta: {:.1} vs {:.1} ops/event \
         (acceptance target: within noise — batching must not tax unbatched traffic)",
        at(1),
        baseline.ops_per_event()
    ));

    let compiled = artemis_ir::compile::CompiledSuite::compile(suite, app).expect("compiles");
    for (b, s) in &samples {
        let bound = artemis_ir::batch_bounds(&compiled, *b);
        debug_assert!(bound.ops_per_event_ceil() as f64 >= s.ops_per_event());
        r.note(format!(
            "batch-{b} static bound: {} ops/event ceiling, {} B worst commit \
             (measured {:.1} ops/event stays under it)",
            bound.ops_per_event_ceil(),
            bound.worst_commit_bytes,
            s.ops_per_event()
        ));
    }
    r
}

/// **Dispatch benchmark (beyond the paper's figures)** — per-event FRAM
/// traffic of the two execution modes on a monitor-heavy workload:
/// every event drives every variable of every machine, the worst case
/// for the interpreter's one-cell-per-variable layout. The compiled
/// mode loads each machine as one block and commits it as one journal
/// entry, so its op count is flat in the variable count.
pub fn dispatch() -> Report {
    use artemis_monitor::{ExecMode, InstallOptions};

    let workload = dispatch_suite();
    let (suite, app, _) = &workload;
    let mut r = Report::new(
        "dispatch",
        "per-event FRAM ops: compiled bytecode vs interpreter",
        &traffic_columns(&["mode", "events"]),
    );
    let mut ops_per_event = Vec::new();
    for (name, mode) in [
        ("interpreter", ExecMode::Interpreter),
        ("compiled", ExecMode::Compiled),
    ] {
        let opts = InstallOptions {
            mode,
            ..InstallOptions::default()
        };
        let s = measure(&workload, opts, None, false);
        ops_per_event.push(s.ops_per_event());
        let mut row = vec![name.to_string(), STREAM_EVENTS.to_string()];
        row.extend(s.cells());
        r.row(row);
    }
    r.note(format!(
        "{DISPATCH_MACHINES} machines x {DISPATCH_VARS} vars; every event updates every variable"
    ));
    r.note(format!(
        "FRAM op reduction: {:.2}x (acceptance target: >= 3x)",
        ops_per_event[0] / ops_per_event[1]
    ));
    let compiled = artemis_ir::compile::CompiledSuite::compile(suite, app).expect("suite compiles");
    let bounds = artemis_ir::suite_bounds(&compiled);
    let key = bounds
        .worst_event()
        .expect("the stress suite has at least one event key");
    r.note(format!(
        "static per-event bound (analysis::bounds, worst key): {} FRAM ops \
         >= measured compiled {:.1}",
        key.ops(),
        ops_per_event[1]
    ));
    r
}

/// **Cache benchmark (beyond the paper's figures)** — per-event FRAM
/// traffic of the compiled engine's one read path, the volatile shadow
/// cache, on the sparse-handler dispatch workload, per event and at
/// batch size 8. **Warm** rows are the steady state: the engine steps
/// from RAM and FRAM sees only the crash-atomic commits, so delivery
/// is write-only. **Always-cold** rows clear SRAM before every
/// delivery, so each one pays the post-reboot refill the static
/// `cold_extra_reads` bound prices.
pub fn cache() -> Report {
    use artemis_monitor::InstallOptions;

    let workload = sparse_dispatch_suite();
    let (suite, app, _) = &workload;
    let mut columns = traffic_columns(&["mode", "cache"]);
    columns.splice(6..6, ["hits", "misses", "invalidations"]);
    let mut r = Report::new(
        "cache",
        "per-event FRAM ops: warm vs always-cold shadow cache",
        &columns,
    );

    let mut samples = Vec::new();
    for (mode, batch) in [("per-event", None), ("batch-8", Some(8))] {
        for (reads, always_cold) in [("warm", false), ("always-cold", true)] {
            let s = measure(&workload, InstallOptions::default(), batch, always_cold);
            let mut row = vec![mode.to_string(), reads.to_string()];
            row.extend(s.cells());
            row.splice(
                6..6,
                [s.cache.hits, s.cache.misses, s.cache.invalidations].map(|n| n.to_string()),
            );
            r.row(row);
            samples.push(((mode, always_cold), s));
        }
    }

    let at = |mode: &str, cold: bool| -> &Traffic {
        &samples
            .iter()
            .find(|((m, c), _)| *m == mode && *c == cold)
            .expect("swept configuration")
            .1
    };
    r.note(format!(
        "steady-state (warm) FRAM reads/event: {:.1} per-event, {:.1} batch-8 \
         (acceptance target: = 0 — delivery is write-only)",
        at("per-event", false).reads_per_event(),
        at("batch-8", false).reads_per_event()
    ));
    r.note(format!(
        "warm: {:.1} ops/event per-event, {:.1} batch-8 (acceptance: strictly below the \
         removed uncached baselines of 71 and 9, EXPERIMENTS.md \"Removed modes\")",
        at("per-event", false).ops_per_event(),
        at("batch-8", false).ops_per_event()
    ));

    let compiled = artemis_ir::compile::CompiledSuite::compile(suite, app).expect("compiles");
    let bounds = artemis_ir::suite_bounds(&compiled);
    let key = bounds.worst_event().expect("has event keys");
    let b8 = artemis_ir::batch_bounds(&compiled, 8);
    r.note(format!(
        "always-cold: {:.1} reads/event per-event = cold_extra_reads {} (flag + seq + one \
         block fill per armed machine), {:.1} reads/event batch-8 = {} per batch; the \
         post-reboot ceilings are {} and {}",
        at("per-event", true).reads_per_event(),
        key.cold_extra_reads,
        at("batch-8", true).reads_per_event(),
        b8.cold_extra_reads,
        key.reads,
        b8.reads
    ));
    r.note(format!(
        "static warm bounds: {} ops/event per-event, {} batch-8 (measured {:.1} and {:.1}; \
         dirty-diff commits stay under the slot-granular write model)",
        key.writes,
        b8.writes.div_ceil(8),
        at("per-event", false).ops_per_event(),
        at("batch-8", false).ops_per_event()
    ));
    r
}

/// **Bytes benchmark** — per-event FRAM *bytes* of the packed machine
/// layout and dirty-diff commits on the sparse dispatch workload (one
/// counter of a twelve-variable packed block written per event): each
/// commit diffs the new image against the shadow's authoritative old
/// image and journals minimal `[addr][len][data]` runs. Rows: warm and
/// always-cold per-event delivery, and warm batch-8.
///
/// The headline ratio compares the warm path against the removed
/// tagged-layout baseline (recorded in EXPERIMENTS.md). Time and
/// energy columns price the same runs through the device cost model
/// (FRAM access = 25 µs + 1 µs/B; 5 nJ read / 7 nJ write base — see
/// EXPERIMENTS.md "Cost model constants").
pub fn bytes() -> Report {
    use artemis_monitor::InstallOptions;

    /// Bytes/event of the removed tagged layout (slot-granular, cache
    /// off), measured at 581e74b.
    const TAGGED_BASELINE: f64 = 858.0;

    let workload = sparse_dispatch_suite();
    let (suite, app, _) = &workload;
    let mut r = Report::new(
        "bytes",
        "per-event FRAM bytes: packed machine layout + dirty-diff commits",
        &[
            "commit",
            "cache",
            "read B/event",
            "write B/event",
            "B/event",
            "ops/event",
            "time/event (us)",
            "nJ/event",
        ],
    );

    let configs = [
        // The default engine in steady state: the headline row.
        ("warm", None, false),
        ("always-cold", None, true),
        ("warm batch-8", Some(8), false),
    ];
    let mut samples = Vec::new();
    for (cache, batch, always_cold) in configs {
        let s = measure(&workload, InstallOptions::default(), batch, always_cold);
        r.row(vec![
            "diff".to_string(),
            cache.to_string(),
            format!("{:.1}", s.read_b()),
            format!("{:.1}", s.write_b()),
            format!("{:.1}", s.bytes_per_event()),
            format!("{:.1}", s.ops_per_event()),
            format!("{:.2}", s.time_us()),
            format!(
                "{:.1}",
                s.energy.as_nano_joules() as f64 / STREAM_EVENTS as f64
            ),
        ]);
        samples.push((cache, s));
    }
    let at = |cache: &str| -> &Traffic {
        &samples
            .iter()
            .find(|(c, _)| *c == cache)
            .expect("swept configuration")
            .1
    };

    let headline = at("warm");
    r.note(format!(
        "packed + diff (warm) vs the removed tagged slot-granular baseline: \
         {TAGGED_BASELINE:.1} -> {:.1} FRAM B/event = {:.2}x reduction (acceptance \
         target: >= 1.5x)",
        headline.bytes_per_event(),
        TAGGED_BASELINE / headline.bytes_per_event()
    ));

    // The static write-byte bound dominates every row; the monitor
    // crate pins it exactly on a suite whose every committed byte
    // changes.
    let compiled = artemis_ir::compile::CompiledSuite::compile(suite, app).expect("compiles");
    let bounds = artemis_ir::suite_bounds(&compiled);
    let key = bounds.worst_event().expect("has event keys");
    let cold = at("always-cold");
    r.note(format!(
        "static byte bound: {} write B/event, above the measured {:.1} warm and          always-cold alike (the bound prices the state word and every written slot;          the diff commits only the bytes that changed). Its {} read B/event prices          span loads; an always-cold delivery fills whole blocks and reads {:.1}",
        key.write_bytes,
        headline.write_b(),
        key.read_bytes,
        cold.read_b(),
    ));
    r.note(
        "cost model: FRAM access = 25 us + 1 us/B (5 nJ read / 7 nJ write base + \
         0.7/1.0 nJ per byte), so the byte cut compounds into the time and energy \
         columns; merged runs skip the unchanged state word"
            .to_string(),
    );
    r.note(format!(
        "{DISPATCH_MACHINES} machines x {DISPATCH_VARS} int vars, one counter \
         incremented per event; packing narrows the unbounded counter to 8 B, the \
         eleven untouched slots to 1 B each, the state word to 1 B and the done \
         flags to one bitmap byte"
    ));
    r
}

/// **Energy feasibility sweep** — pins the install-time analysis
/// (`artemis_ir::analysis::energy`, DESIGN.md §6.7) against the
/// simulator across capacitor sizes.
///
/// For each budget the sweep computes the static per-task verdicts,
/// then runs the same benchmark on a device with that capacitor (gate
/// disabled, so infeasible configurations actually execute) and
/// compares per task:
///
/// - **Infeasible** tasks must never complete an execution — every
///   attempt browns out and replays (the soundness direction: the
///   floor is a lower bound on any successful attempt);
/// - **Feasible** tasks with at least one *full-capacitor* attempt — a
///   first task start after a boot, the attempt the model prices —
///   must complete at least once (the ceiling really is a worst case).
///   Mid-stream starts run from a partially drained capacitor (a
///   `FixedDelay` harvester deposits nothing while the node is on), a
///   premise the attempt model deliberately excludes: after the
///   brown-out, the *replay* of that task is the priced attempt;
/// - **Marginal** verdicts claim neither — that is what the margin is
///   for.
///
/// The whole run can still complete with infeasible tasks aboard:
/// `maxTries`/`skipPath` escalations route around them (Figure 13's
/// non-termination shield), so the run-outcome column shows the
/// runtime surviving exactly the tasks the analysis condemned. A
/// budget below a single peripheral op (accel's 300 µJ sample) instead
/// aborts with the simulator's `ImpossibleDemand` fault — also a DNF.
pub fn energy() -> Report {
    use artemis_ir::analysis::Verdict;

    let mut r = Report::new(
        "energy",
        "install-time energy feasibility vs measured forward progress",
        &[
            "capacitor (uJ)",
            "worst ceiling (uJ)",
            "predicted infeasible",
            "predicted marginal",
            "replay-DNF (measured)",
            "run",
            "agreement",
        ],
    );
    let (app, compiled, bounds) = health_analysis();
    for budget_uj in [150u64, 250, 350, 450, 550, 600, 650, 700, 800, 1000] {
        let mut dev = benchmark_device_with_budget(
            intermittent_sim::Energy::from_micro_joules(budget_uj),
            Harvester::FixedDelay(nominal_minutes(1)),
        );
        let profile = dev.energy_profile();
        let feas = artemis_ir::analysis::task_feasibility(&compiled, &bounds, &app, &profile);

        let mut rt = install_artemis(&mut dev, HEALTH_SPEC);
        let outcome = rt.run_once(&mut dev, dnf_limit());

        // Per-task measurement. A "full attempt" is the first task
        // start after a boot: the capacitor is full, which is the
        // premise the static attempt model prices.
        let n_tasks = feas.len();
        let mut full_attempts = vec![0usize; n_tasks];
        let mut completions = vec![0usize; n_tasks];
        let mut fresh_boot = false;
        for rec in dev.trace().records() {
            match &rec.event {
                TraceEvent::Boot { .. } => fresh_boot = true,
                TraceEvent::TaskStart { task, .. } if fresh_boot => {
                    full_attempts[task.index()] += 1;
                    fresh_boot = false;
                }
                TraceEvent::TaskEnd { task } => completions[task.index()] += 1,
                _ => {}
            }
        }

        let mut infeasible = Vec::new();
        let mut marginal = Vec::new();
        let mut replay_dnf = Vec::new();
        let mut misses = Vec::new();
        for f in &feas {
            let t = f.task as usize;
            if full_attempts[t] > 0 && completions[t] == 0 {
                replay_dnf.push(f.name.clone());
            }
            match f.verdict {
                Verdict::Infeasible => {
                    infeasible.push(f.name.clone());
                    if completions[t] > 0 {
                        misses.push(format!("{} (false infeasible)", f.name));
                    }
                }
                Verdict::Marginal => marginal.push(f.name.clone()),
                Verdict::Feasible => {
                    if full_attempts[t] > 0 && completions[t] == 0 {
                        misses.push(format!("{} (false feasible)", f.name));
                    }
                }
            }
        }
        let worst_ceiling = feas
            .iter()
            .map(|f| f.ceiling)
            .max()
            .unwrap_or(intermittent_sim::Energy::ZERO);
        let list = |v: &[String]| {
            if v.is_empty() {
                "-".to_string()
            } else {
                v.join(" ")
            }
        };
        r.row(vec![
            budget_uj.to_string(),
            format!("{:.1}", worst_ceiling.as_joules_f64() * 1e6),
            list(&infeasible),
            list(&marginal),
            list(&replay_dnf),
            if outcome.is_completed() {
                "completed"
            } else {
                "DNF"
            }
            .to_string(),
            if misses.is_empty() {
                "agree".to_string()
            } else {
                misses.join(" ")
            },
        ]);
    }
    r.note(
        "verdicts from artemis_ir::analysis::task_feasibility (10% margin); measured \
         replay-DNF per task: at least one full-capacitor (post-boot) attempt and \
         zero completions within the 6 h limit under 1-nominal-minute charging",
    );
    r.note(
        "acceptance: zero MISS cells — no predicted-feasible task ever measures DNF \
         (and no predicted-infeasible task ever completes)",
    );
    r.note(
        "runs install with the gate off (InstallOptions.energy = None); with a device \
         profile attached, install_precompiled rejects every budget that shows a \
         non-empty `predicted infeasible` cell before allocating FRAM",
    );
    r
}

/// `key` parsed as an integer, or `default` when unset/invalid.
fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// `FLEET_WORKERS` parsed as a comma-separated worker-count sweep
/// (e.g. `1,2` for the CI smoke), or the full `1,2,4,8` sweep.
fn fleet_worker_sweep() -> Vec<usize> {
    std::env::var("FLEET_WORKERS")
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|w| w.trim().parse().ok())
                .filter(|&w| w >= 1)
                .collect::<Vec<usize>>()
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4, 8])
}

/// **Fleet benchmark (beyond the paper's figures)** — fleet-scale
/// sharded simulation: the wearable benchmark replicated across very
/// many independent devices, driven in parallel by a work-stealing
/// worker pool ([`artemis_fleet`]). Sweeps the worker count over the
/// same fleet and asserts the merged [`artemis_fleet::FleetStats`] is
/// bit-identical for every sweep point — the determinism contract that
/// makes fleet-scale results reproducible from a single seed.
///
/// Env overrides (for CI smoke runs): `FLEET_DEVICES`, `FLEET_SEED`,
/// `FLEET_WORKERS` (comma-separated sweep).
pub fn fleet() -> Report {
    use artemis_fleet::{run_fleet, FleetConfig, FleetStats};
    use std::time::Instant;

    let devices = env_u64("FLEET_DEVICES", 100_000);
    let seed = env_u64("FLEET_SEED", 0xA27E_F1EE);
    let sweep = fleet_worker_sweep();
    let factory = crate::health::fleet_factory();

    let mut r = Report::new(
        "fleet",
        "fleet-scale sharded simulation: wearable devices vs worker threads",
        &[
            "workers",
            "devices",
            "wall (s)",
            "events/sec",
            "speedup",
            "completed",
            "dnf",
            "reboots",
            "violations",
        ],
    );

    let mut baseline: Option<(f64, FleetStats)> = None;
    for &workers in &sweep {
        let cfg = FleetConfig::new(devices, workers, seed);
        let t0 = Instant::now();
        let stats = run_fleet(&cfg, &factory);
        let wall = t0.elapsed().as_secs_f64();
        let eps = stats.events as f64 / wall;
        let speedup = match &baseline {
            Some((base_eps, base_stats)) => {
                assert_eq!(
                    &stats, base_stats,
                    "fleet aggregate must not depend on worker count"
                );
                eps / base_eps
            }
            None => 1.0,
        };
        r.row(vec![
            workers.to_string(),
            stats.devices.to_string(),
            format!("{wall:.2}"),
            format!("{eps:.0}"),
            format!("{speedup:.2}x"),
            stats.completed.to_string(),
            stats.dnf.to_string(),
            stats.reboots.to_string(),
            stats.violations_total.to_string(),
        ]);
        if baseline.is_none() {
            baseline = Some((eps, stats));
        }
    }

    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    r.note(format!(
        "host: {host_cores} core(s); speedup is events/sec relative to 1 worker on this \
         host (thread parallelism cannot exceed the physical core count)"
    ));
    r.note(format!(
        "determinism: merged FleetStats bit-identical across the {{{}}}-worker sweep \
         (asserted, run would abort otherwise); fleet seed {seed:#x}",
        sweep
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join(",")
    ));
    if let Some((_, stats)) = &baseline {
        r.note(format!(
            "per-device consumed energy quantile ceilings: p50 < {} uJ, p90 < {} uJ, \
             p99 < {} uJ",
            stats
                .energy_quantile_ceiling_uj(0.5)
                .expect("non-empty fleet"),
            stats
                .energy_quantile_ceiling_uj(0.9)
                .expect("non-empty fleet"),
            stats
                .energy_quantile_ceiling_uj(0.99)
                .expect("non-empty fleet"),
        ));
        r.note(format!(
            "reboot histogram (devices per reboot-count bucket): {}",
            stats
                .reboot_histogram()
                .iter()
                .map(|(label, n)| format!("{label}: {n}"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        r.note(format!(
            "workload mix per derived seed stream: 40% continuous, 40% RF fixed-delay \
             1-3 nominal min, 20% stochastic outages; {:.1} simulated device-hours total",
            stats.sim_micros as f64 / 3.6e9
        ));
    }
    r
}

/// Small fleet run included in the default `all` sweep: a few hundred
/// wearable devices across a 1-vs-2 worker sweep, each installing the
/// default (shadow-cache-enabled) engine — so the standard experiment
/// run exercises the sharded fleet path too. The full 100k-device
/// sweep stays behind the standalone `fleet` subcommand.
pub fn fleet_smoke() -> Report {
    use artemis_fleet::{run_fleet, FleetConfig, FleetStats};
    use std::time::Instant;

    const DEVICES: u64 = 500;
    const SEED: u64 = 0xA27E_F1EE;

    let factory = crate::health::fleet_factory();
    let mut r = Report::new(
        "fleet_smoke",
        "small sharded fleet run (part of the default sweep)",
        &[
            "workers",
            "devices",
            "wall (s)",
            "events/sec",
            "completed",
            "dnf",
            "reboots",
            "violations",
        ],
    );

    let mut baseline: Option<FleetStats> = None;
    for workers in [1usize, 2] {
        let cfg = FleetConfig::new(DEVICES, workers, SEED);
        let t0 = Instant::now();
        let stats = run_fleet(&cfg, &factory);
        let wall = t0.elapsed().as_secs_f64();
        if let Some(base) = &baseline {
            assert_eq!(
                &stats, base,
                "fleet aggregate must not depend on worker count"
            );
        }
        r.row(vec![
            workers.to_string(),
            stats.devices.to_string(),
            format!("{wall:.2}"),
            format!("{:.0}", stats.events as f64 / wall),
            stats.completed.to_string(),
            stats.dnf.to_string(),
            stats.reboots.to_string(),
            stats.violations_total.to_string(),
        ]);
        baseline.get_or_insert(stats);
    }
    r.note(format!(
        "{DEVICES} devices, seed {SEED:#x}; every device installs the default engine \
         (shadow cache enabled); merged FleetStats asserted bit-identical across the \
         1-vs-2 worker sweep"
    ));
    r.note(
        "full 100k-device sweep: `experiments -- fleet` (FLEET_DEVICES/FLEET_WORKERS override)"
            .to_string(),
    );
    r
}

/// One optimizer-benchmark micro measurement: the guarded sparse
/// dispatch suite installed at one [`artemis_ir::OptLevel`], a burst
/// of `start(t0)` events delivered, and the engine's volatile
/// executed-instruction counters read back next to the static
/// [`artemis_ir::StepCost`] ceiling priced from the same compiled
/// suite.
pub(crate) struct OptMicro {
    /// Total bytecode length of the compiled suite (all machines).
    pub bytecode_ops: usize,
    /// Events delivered.
    pub events: u64,
    /// Measured executed instructions per event (engine counters).
    pub instructions_per_event: f64,
    /// Static per-event instruction ceiling: sum of
    /// `step_cost(StartTask, t0)` over every machine.
    pub ceiling_per_event: u64,
    /// Static per-event compute-cycle ceiling (same sum, cycles).
    pub ceiling_cycles_per_event: u64,
    /// Monitor-category device time per event, microseconds.
    pub time_per_event_us: f64,
}

/// Runs the optimizer micro benchmark at `level`. The guard in
/// [`guarded_sparse_suite`] stays true for every delivered event, so
/// each event walks the one straight-line path the static ceiling
/// prices — measured instructions/event must equal the ceiling
/// exactly, at both levels (asserted here; the bench doubles as an
/// end-to-end pin of the cost model).
pub(crate) fn opt_micro(level: artemis_ir::OptLevel) -> OptMicro {
    use artemis_core::event::MonitorEvent;
    use artemis_core::EventKind;
    use artemis_monitor::{InstallOptions, MonitorEngine};
    use intermittent_sim::DeviceBuilder;

    const EVENTS: u64 = 200;

    let (suite, app, t0) = guarded_sparse_suite();
    let compiled = artemis_ir::compile::CompiledSuite::compile_with(&suite, &app, level)
        .expect("benchmark suite compiles");
    let bytecode_ops: usize = compiled
        .machines()
        .iter()
        .map(|m| m.to_raw().code.len())
        .sum();
    let ceiling: artemis_ir::StepCost = compiled
        .machines()
        .iter()
        .map(|m| m.step_cost(EventKind::StartTask, t0.0))
        .fold(artemis_ir::StepCost::default(), |acc, c| {
            artemis_ir::StepCost {
                cycles: acc.cycles + c.cycles,
                instructions: acc.instructions + c.instructions,
            }
        });

    let mut dev = DeviceBuilder::msp430fr5994().trace_disabled().build();
    let opts = InstallOptions {
        opt: level,
        ..InstallOptions::default()
    };
    let engine = MonitorEngine::install_with(&mut dev, suite, &app, opts).expect("installs");
    engine.reset_monitor(&mut dev).expect("reset");

    let time0 = dev.stats().time(CostCategory::Monitor);
    let exec0 = engine.exec_stats();
    for seq in 1..=EVENTS {
        let ev = MonitorEvent::start(t0, artemis_core::SimInstant::from_micros(seq));
        engine.call_monitor(&mut dev, seq, &ev).expect("event");
    }
    let exec = engine.exec_stats();
    let dt = dev.stats().time(CostCategory::Monitor) - time0;

    let executed = exec.instructions - exec0.instructions;
    let per_event = executed as f64 / EVENTS as f64;
    assert_eq!(
        executed,
        EVENTS * ceiling.instructions,
        "always-true guard: executed instructions must hit the static ceiling exactly"
    );

    OptMicro {
        bytecode_ops,
        events: EVENTS,
        instructions_per_event: per_event,
        ceiling_per_event: ceiling.instructions,
        ceiling_cycles_per_event: ceiling.cycles,
        time_per_event_us: dt.as_secs_f64() * 1e6 / EVENTS as f64,
    }
}

/// **Optimizer benchmark (beyond the paper's figures)** — what the
/// bytecode optimizer pipeline (constant folding, jump threading,
/// fused superinstructions; `crates/ir/src/opt.rs`) buys at runtime.
/// Two parts: a micro sweep on the guarded sparse dispatch suite
/// comparing executed instructions/event and monitor time/event across
/// `OptLevel::{None, Full}` (the static `StepCost` ceiling is asserted
/// exactly tight on every row), and a fleet sweep running the wearable
/// benchmark across many devices at both levels, sharing one compiled
/// suite per level via `fleet_factory_opt`.
///
/// Env overrides (for CI smoke runs): `FLEET_DEVICES`, `FLEET_SEED`,
/// `FLEET_WORKERS` (the largest sweep entry is used).
pub fn opt() -> Report {
    use artemis_fleet::{run_fleet, FleetConfig};
    use artemis_ir::OptLevel;
    use std::time::Instant;

    let mut r = Report::new(
        "opt",
        "bytecode optimizer: executed instructions and fleet throughput vs OptLevel",
        &[
            "workload",
            "opt",
            "bytecode ops",
            "instructions/event",
            "static ceiling",
            "tightness",
            "cycles/event",
            "time/event (us)",
            "events/sec",
        ],
    );

    let mut micro = Vec::new();
    for (name, level) in [("none", OptLevel::None), ("full", OptLevel::Full)] {
        let m = opt_micro(level);
        r.row(vec![
            "sparse-guard".to_string(),
            name.to_string(),
            m.bytecode_ops.to_string(),
            format!("{:.1}", m.instructions_per_event),
            m.ceiling_per_event.to_string(),
            "exact".to_string(),
            m.ceiling_cycles_per_event.to_string(),
            format!("{:.2}", m.time_per_event_us),
            "-".to_string(),
        ]);
        micro.push(m);
    }

    let devices = env_u64("FLEET_DEVICES", 100_000);
    let seed = env_u64("FLEET_SEED", 0xA27E_F1EE);
    let workers = fleet_worker_sweep().into_iter().max().unwrap_or(8);
    for (name, level) in [("none", OptLevel::None), ("full", OptLevel::Full)] {
        let factory = crate::health::fleet_factory_opt(level);
        let cfg = FleetConfig::new(devices, workers, seed);
        let t0 = Instant::now();
        let stats = run_fleet(&cfg, &factory);
        let wall = t0.elapsed().as_secs_f64();
        r.row(vec![
            format!("fleet x{workers}w"),
            name.to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            format!("{:.0}", stats.events as f64 / wall),
        ]);
    }

    let reduction = micro[0].instructions_per_event / micro[1].instructions_per_event;
    r.note(format!(
        "{DISPATCH_MACHINES} machines x {DISPATCH_VARS} vars, guard `v0 < 1000000 && v0 >= 0` \
         ahead of a single increment, {} events per micro row; executed-instruction \
         reduction: {reduction:.2}x (acceptance target: >= 1.4x)",
        micro[0].events
    ));
    r.note(
        "tightness: measured instructions/event equals the static per-event \
         `step_cost` ceiling on every micro row (asserted, run would abort otherwise) \
         — the always-true guard keeps every event on the one priced path",
    );
    r.note(format!(
        "fleet rows: wearable benchmark, {devices} devices, seed {seed:#x}, {workers} \
         worker(s); each level compiles its suite once and shares it across the fleet \
         (`fleet_factory_opt`)"
    ));
    r
}

/// Runs every experiment, in paper order, plus the ablations.
pub fn all() -> Vec<Report> {
    vec![
        fig12(),
        fig13(),
        fig14(),
        fig15(),
        fig16(),
        table2(),
        ablation_deployment(),
        ablation_scalability(),
        scaling(),
        dispatch(),
        delta(),
        batch(),
        cache(),
        bytes(),
        energy(),
        fleet_smoke(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_shape_matches_paper() {
        let r = fig12();
        assert_eq!(r.rows.len(), 10);
        for row in &r.rows {
            let n: u64 = row[0].parse().unwrap();
            assert_ne!(row[1], "DNF", "ARTEMIS must always complete (n={n})");
            if n <= 5 {
                assert_ne!(row[3], "DNF", "Mayfly must complete at {n} nominal minutes");
            } else {
                assert_eq!(
                    row[3], "DNF",
                    "Mayfly must NOT complete at {n} nominal minutes"
                );
            }
            assert!(
                !row[5].contains("MISS"),
                "analysis verdict must agree with the measured ARTEMIS outcome: {row:?}"
            );
        }
    }

    #[test]
    fn energy_analysis_agrees_with_measured_progress() {
        let r = energy();
        for row in &r.rows {
            assert_eq!(
                row.last().unwrap(),
                "agree",
                "predicted vs measured forward progress must agree: {row:?}"
            );
        }
        // The sweep must actually cross the feasibility boundary: small
        // budgets condemn the heavy accelerometer task, the largest
        // budget accepts every task.
        assert!(
            r.rows.iter().any(|row| row[2].contains("accel")),
            "no budget in the sweep rejects accel:\n{}",
            r.render()
        );
        let last = r.rows.last().unwrap();
        assert_eq!(last[2], "-", "1000 uJ must accept every task: {last:?}");
        // The condemned accelerometer task must also be *measured*
        // failing its replays somewhere in the sweep (the prediction
        // is exercised, not vacuous), and every measured replay-DNF
        // task must sit in a condemned or marginal cell of its row
        // (that is the zero-false-feasible claim, re-checked here).
        assert!(
            r.rows.iter().any(|row| row[4].contains("accel")),
            "accel never measured replay-DNF:\n{}",
            r.render()
        );
        for row in &r.rows {
            if row[4] != "-" {
                for name in row[4].split(' ') {
                    assert!(
                        row[2].split(' ').any(|m| m == name)
                            || row[3].split(' ').any(|m| m == name),
                        "measured replay-DNF {name} was predicted feasible: {row:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn fig13_shows_three_attempts_then_skip() {
        let r = fig13();
        let note = r.notes.last().unwrap();
        assert!(note.contains("completed: true"), "{note}");
        assert!(note.contains("restart attempts: 2"), "{note}");
        assert!(note.contains("escalations (skipPath): 1"), "{note}");
    }

    #[test]
    fn fig14_overheads_are_small_and_totals_close() {
        let r = fig14();
        let artemis_total: f64 = r.rows[0][4].parse().unwrap();
        let mayfly_total: f64 = r.rows[1][4].parse().unwrap();
        let ratio = artemis_total / mayfly_total;
        assert!(
            (0.9..1.2).contains(&ratio),
            "total times must be nearly identical: {ratio}"
        );
        let artemis_app: f64 = r.rows[0][1].parse().unwrap();
        let artemis_overhead: f64 =
            r.rows[0][2].parse::<f64>().unwrap() + r.rows[0][3].parse::<f64>().unwrap();
        assert!(
            artemis_overhead < artemis_app * 0.1,
            "overheads must be minor"
        );
    }

    #[test]
    fn fig15_artemis_overhead_slightly_above_mayfly() {
        let r = fig15();
        let artemis: f64 = r.rows[0][3].parse().unwrap();
        let mayfly: f64 = r.rows[1][3].parse().unwrap();
        assert!(
            artemis > mayfly,
            "ARTEMIS overhead ({artemis} ms) must exceed Mayfly's ({mayfly} ms)"
        );
        assert!(
            artemis < mayfly * 5.0,
            "but stay in the same ballpark ({artemis} vs {mayfly})"
        );
    }

    #[test]
    fn fig16_energy_shape() {
        let r = fig16();
        // Continuous, 1 min, 2 min: parity (within 25%).
        for row in &r.rows[..3] {
            let a: f64 = row[1].parse().unwrap();
            let m: f64 = row[2].parse().unwrap();
            let ratio = a / m;
            assert!(
                (0.75..1.33).contains(&ratio),
                "{}: ARTEMIS {a} vs Mayfly {m}",
                row[0]
            );
        }
        // 6 min: Mayfly unbounded, ARTEMIS bounded.
        let six = &r.rows[3];
        assert!(!six[1].contains("unbounded"), "{six:?}");
        assert!(six[2].contains("unbounded"), "{six:?}");
        for row in &r.rows {
            assert!(
                !row[3].contains("MISS"),
                "analysis must agree per point: {row:?}"
            );
        }
    }

    #[test]
    fn ablation_deployment_shape() {
        let r = ablation_deployment();
        let energy = |i: usize| -> f64 { r.rows[i][3].parse().unwrap() };
        let (local, remote, none) = (energy(0), energy(1), energy(2));
        assert!(
            remote > local * 50.0,
            "wireless must be far costlier: local {local} vs remote {remote}"
        );
        assert_eq!(none, 0.0);
    }

    #[test]
    fn ablation_scalability_is_sublinear() {
        let r = ablation_scalability();
        let cost = |i: usize| -> f64 { r.rows[i][2].parse().unwrap() };
        let one = cost(0);
        let thirty_two = cost(r.rows.len() - 1);
        // 32x the properties must cost well under 32x per event.
        assert!(
            thirty_two < one * 16.0,
            "per-event cost must scale sublinearly: 1 prop {one} nJ, 32 props {thirty_two} nJ"
        );
    }

    #[test]
    fn scaling_routed_cost_stays_flat() {
        let r = scaling();
        let cost = |i: usize| -> f64 { r.rows[i][2].parse().unwrap() };
        let last = r.rows.len() - 1;
        let ratio = cost(last) / cost(0);
        assert!(
            ratio <= 2.0,
            "routed per-event cost must stay flat: 1 prop {} nJ, 32 props {} nJ ({ratio:.2}x)",
            cost(0),
            cost(last)
        );
    }

    #[test]
    fn dispatch_compiled_cuts_fram_ops_3x() {
        let r = dispatch();
        let ops = |i: usize| -> f64 { r.rows[i][5].parse().unwrap() };
        let (interp, compiled) = (ops(0), ops(1));
        let ratio = interp / compiled;
        assert!(
            ratio >= 3.0,
            "compiled path must cut FRAM ops >= 3x: interpreter {interp} vs compiled {compiled} ({ratio:.2}x)"
        );
    }

    #[test]
    fn delta_cuts_dispatch_fram_ops_2x() {
        let r = delta();
        let ops = |workload: &str, mode: &str| -> f64 {
            r.rows
                .iter()
                .find(|row| row[0] == workload && row[1] == mode)
                .unwrap_or_else(|| panic!("missing row {workload}/{mode}"))[5]
                .parse()
                .unwrap()
        };
        // The removed whole-block commit mode measured 156 ops/event on
        // this workload; span loads + sparse commits must halve it.
        let compiled = ops("dispatch", "compiled");
        assert!(
            compiled <= 78.0,
            "dispatch cost must be <= 78 ops/event (2x vs the 156 baseline), got {compiled}"
        );
        assert!(compiled < ops("dispatch", "interpreter"));
        // Degraded whole-block images stay under the removed mode's
        // entry-list commits (dense: 135 ops/event at that commit).
        let dense = ops("dispatch-dense", "compiled");
        assert!(dense < 135.0, "dense dispatch regressed: {dense}");
    }

    #[test]
    fn batch_cuts_sparse_dispatch_fram_ops_1_5x() {
        let r = batch();
        let ops = |mode: &str| -> f64 {
            r.rows
                .iter()
                .find(|row| row[0] == mode)
                .unwrap_or_else(|| panic!("missing row {mode}"))[4]
                .parse()
                .unwrap()
        };
        let baseline = ops("per-event delta");
        let b4 = ops("batch-4");
        assert!(
            b4 * 1.5 <= baseline,
            "batch-4 must cut FRAM ops >= 1.5x vs per-event delta: \
             {baseline} vs {b4} ({:.2}x)",
            baseline / b4
        );
        // Size-1 batches pay the arming record for nothing: they may
        // not beat the per-event path, but must stay within noise.
        let b1 = ops("batch-1");
        assert!(
            b1 <= baseline * 1.1,
            "batch-1 must stay within noise of per-event delta: {baseline} vs {b1}"
        );
        // Larger batches amortise more.
        assert!(ops("batch-8") < b4, "batch-8 must beat batch-4");
        assert!(b4 < ops("batch-2"), "batch-4 must beat batch-2");
    }

    /// The shadow cache's acceptance criteria: warm delivery is
    /// write-only and beats the removed uncached baselines (71
    /// ops/event at B=1, 9 at B=8) under the static warm bounds, and an
    /// always-cold delivery reads exactly the static `cold_extra_reads`
    /// refill while writing exactly what a warm one does.
    #[test]
    fn cache_eliminates_steady_state_reads() {
        let r = cache();
        let col = |mode: &str, cache: &str, i: usize| -> f64 {
            r.rows
                .iter()
                .find(|row| row[0] == mode && row[1] == cache)
                .unwrap_or_else(|| panic!("missing row {mode}/{cache}"))[i]
                .parse()
                .unwrap()
        };
        let (reads, writes, ops, misses, invalidations) = (2, 3, 5, 7, 8);

        // Write-only steady state: not one FRAM read, not one miss.
        for mode in ["per-event", "batch-8"] {
            assert_eq!(col(mode, "warm", reads), 0.0, "{mode}");
            assert_eq!(col(mode, "warm", misses), 0.0, "{mode}");
            assert_eq!(col(mode, "warm", invalidations), 0.0, "{mode}");
            assert_eq!(
                col(mode, "always-cold", writes),
                col(mode, "warm", writes),
                "{mode}: the shadow is write-through"
            );
        }
        let (b1, b8) = (col("per-event", "warm", ops), col("batch-8", "warm", ops));
        assert!(
            b1 < 71.0,
            "warm B=1 must beat the 71 ops/event baseline: {b1}"
        );
        assert!(
            b8 < 9.0,
            "warm B=8 must beat the 9 ops/event baseline: {b8}"
        );

        let (suite, app, _t0) = sparse_dispatch_suite();
        let compiled = artemis_ir::compile::CompiledSuite::compile(&suite, &app).expect("compiles");
        let bounds = artemis_ir::suite_bounds(&compiled);
        let key = bounds.worst_event().expect("has event keys");
        let b8_bound = artemis_ir::batch_bounds(&compiled, 8);
        assert!(key.writes as f64 >= b1, "warm bound must dominate");
        assert!(b8_bound.writes.div_ceil(8) as f64 >= b8);

        // Always cold: every delivery is invalidated once and refills
        // exactly the static cold-miss bound.
        for (mode, n) in [("per-event", 200.0), ("batch-8", 25.0)] {
            assert_eq!(col(mode, "always-cold", invalidations), n, "{mode}");
        }
        assert_eq!(
            col("per-event", "always-cold", reads),
            200.0 * key.cold_extra_reads as f64
        );
        assert_eq!(
            col("batch-8", "always-cold", reads),
            25.0 * b8_bound.cold_extra_reads as f64
        );
    }

    /// Acceptance criteria on the byte sweep: packed + diff cuts FRAM
    /// bytes/event >= 1.5x against the removed tagged baseline, the
    /// static write-byte bound dominates every row, always-cold
    /// delivery writes exactly what warm delivery does, and batching
    /// only ever shrinks the bytes.
    #[test]
    fn bytes_packed_diff_meets_acceptance() {
        let r = bytes();
        let col = |cache: &str, i: usize| -> f64 {
            r.rows
                .iter()
                .find(|row| row[0] == "diff" && row[1] == cache)
                .unwrap_or_else(|| panic!("missing row {cache}"))[i]
                .parse()
                .unwrap()
        };
        let (read_b, write_b, total) = (2, 3, 4);

        // Headline: >= 1.5x FRAM bytes/event reduction, packed + diff
        // warm vs the tagged slot-granular baseline (858 B/event).
        let headline = col("warm", total);
        assert!(
            headline * 1.5 <= 858.0,
            "packed+diff must cut FRAM bytes >= 1.5x: 858 -> {headline}"
        );

        let (suite, app, _t0) = sparse_dispatch_suite();
        let compiled = artemis_ir::compile::CompiledSuite::compile(&suite, &app).expect("compiles");
        let bounds = artemis_ir::suite_bounds(&compiled);
        let key = bounds.worst_event().expect("has event keys");
        assert_eq!(
            col("warm", read_b),
            0.0,
            "warm deliveries must be read-free"
        );
        assert!(col("warm", write_b) < key.write_bytes as f64);
        assert_eq!(col("always-cold", write_b), col("warm", write_b));
        assert!(col("always-cold", read_b) > 0.0);
        assert!(col("warm batch-8", total) < headline);

        // Time and energy track the byte mix through the cost model:
        // every FRAM access pays 25 us + 1 us/B, so per-event time must
        // dominate that floor on every row.
        for r2 in &r.rows {
            let ops: f64 = r2[5].parse().unwrap();
            let bytes: f64 = r2[4].parse().unwrap();
            let us: f64 = r2[6].parse().unwrap();
            let nj: f64 = r2[7].parse().unwrap();
            assert!(
                us + 1e-6 >= 25.0 * ops + bytes,
                "time/event {us} must cover the FRAM floor of {} ({r2:?})",
                25.0 * ops + bytes
            );
            assert!(nj > 0.0);
        }
    }

    /// Every column of these drivers is simulated, so their reports are
    /// deterministic: the committed artifacts must be exactly what the
    /// drivers produce (regenerate with `experiments -- <id> --emit`
    /// from the repository root).
    #[test]
    fn committed_simulated_artifacts_are_current() {
        for (report, committed) in [
            (delta(), include_str!("../../../BENCH_delta.json")),
            (batch(), include_str!("../../../BENCH_batch.json")),
            (dispatch(), include_str!("../../../BENCH_dispatch.json")),
            (cache(), include_str!("../../../BENCH_cache.json")),
            (bytes(), include_str!("../../../BENCH_bytes.json")),
        ] {
            assert_eq!(
                report.to_json(),
                committed,
                "BENCH_{}.json is stale",
                report.id
            );
        }
    }

    /// Same soundness direction as
    /// [`dispatch_static_bound_dominates_measured`], for the batch
    /// path: the per-batch static bound divided by the batch size must
    /// never under-estimate the measured per-event cost.
    #[test]
    fn batch_static_bound_dominates_measured() {
        let r = batch();
        let (suite, app, _t0) = sparse_dispatch_suite();
        let compiled = artemis_ir::compile::CompiledSuite::compile(&suite, &app).expect("compiles");
        for row in r.rows.iter().filter(|row| row[0].starts_with("batch-")) {
            let b: usize = row[0]["batch-".len()..].parse().unwrap();
            let measured: f64 = row[4].parse().unwrap();
            let bound = artemis_ir::batch_bounds(&compiled, b).ops_per_event_ceil();
            assert!(
                bound as f64 >= measured,
                "batch-{b}: static bound {bound} must dominate measured {measured} ops/event"
            );
        }
    }

    /// The static resource-bound pass must dominate what the engine
    /// actually does on the dispatch workload — the soundness direction
    /// of the bound (the monitor crate pins exact equality for this
    /// shape; here it must at least never under-estimate).
    #[test]
    fn dispatch_static_bound_dominates_measured() {
        let r = dispatch();
        let measured: f64 = r.rows[1][5].parse().unwrap();

        let (suite, app, _t0) = dispatch_suite();
        let compiled = artemis_ir::compile::CompiledSuite::compile(&suite, &app).expect("compiles");
        let bounds = artemis_ir::suite_bounds(&compiled);
        let key = bounds.worst_event().expect("has event keys");
        assert!(
            key.ops() as f64 >= measured,
            "static bound {} must dominate measured compiled ops/event {measured}",
            key.ops()
        );
    }

    #[test]
    fn table2_orderings_match_paper() {
        let r = table2();
        let fram = |i: usize| -> usize { r.rows[i][3].parse().unwrap() };
        let mayfly_fram = fram(0);
        let artemis_rt_fram = fram(1);
        let monitor_fram = fram(2);
        assert!(
            artemis_rt_fram < mayfly_fram,
            "ARTEMIS runtime FRAM ({artemis_rt_fram}) must undercut Mayfly ({mayfly_fram})"
        );
        assert!(monitor_fram > 0, "monitors must cost FRAM");
    }

    #[test]
    fn optimizer_micro_meets_reduction_target_with_exact_ceilings() {
        // `opt_micro` itself asserts measured executed instructions ==
        // EVENTS * static ceiling, so getting two results back already
        // proves ceiling exactness at both levels.
        let none = opt_micro(artemis_ir::OptLevel::None);
        let full = opt_micro(artemis_ir::OptLevel::Full);
        assert_eq!(none.instructions_per_event, none.ceiling_per_event as f64);
        assert_eq!(full.instructions_per_event, full.ceiling_per_event as f64);
        let reduction = none.instructions_per_event / full.instructions_per_event;
        assert!(
            reduction >= 1.4,
            "executed-instruction reduction {reduction:.2}x must meet the 1.4x target \
             ({} -> {} instructions/event)",
            none.ceiling_per_event,
            full.ceiling_per_event
        );
        assert!(
            full.bytecode_ops < none.bytecode_ops,
            "optimization must shrink the suite's bytecode ({} vs {})",
            full.bytecode_ops,
            none.bytecode_ops
        );
        assert!(
            full.ceiling_cycles_per_event < none.ceiling_cycles_per_event,
            "the static cycle ceiling must tighten with optimization"
        );
    }
}
