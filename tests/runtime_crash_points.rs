//! Enumerated crash points over both runtimes' channel commits: every
//! FRAM write op of a continuous run is, in turn, replaced by a power
//! failure (`Device::fail_before_write`). After the reboot finishes
//! the run, each channel's contents, each task's completion count and
//! the run's outcome must equal the continuous run's. A second crash
//! then lands before every write op of the first recovery: the reboot's
//! monitor finalize, journal replay and header load, through the
//! commit of the first task that boot starts.
//!
//! The app wraps its ring channel (36 pushes into 32 slots, nine per
//! task, so one write-set stages many slots), drains it through
//! `consume`, refills it and drains it again. The specification has no
//! attempt-counting property, so a crash — which re-executes the task
//! it hits — leaves nothing observable behind. Its tasks declare no
//! costs, so an `EndTask` delivery rides its task's record only when
//! the capacitor holds the delivery's admission ceiling: ARTEMIS is
//! explored both on a capacitor that always does and on one that never
//! does, so the crash windows of both branches are enumerated.

use std::cell::RefCell;

use artemis::bench::health::{
    artemis_builder, benchmark_device, health_app, install_mayfly, HEALTH_SPEC,
};
use artemis::ir::expr::Value;
use artemis::ir::MonitorSuite;
use artemis::monitor::{MonitorVerdict, Monitoring, Reference};
use artemis::prelude::*;
use artemis::runtime::{Channel, RideStats};
use artemis::sim::journal::TxWriter;
use artemis::sim::mcu::Cost;
use artemis::sim::{CostModel, IntermittentSystem};

const FILLS: [&str; 4] = ["f0", "f1", "f2", "f3"];
const CHANNELS: [&str; 2] = ["ring", "out"];
const PUSHES_PER_FILL: usize = 9;

/// Two paths through the drain `sum`: four fills then the drain, and
/// a refill, the drain and a tail that leaves two samples behind.
fn app() -> AppGraph {
    let mut b = AppGraphBuilder::new();
    let mut first: Vec<TaskId> = FILLS.iter().map(|f| b.task(f)).collect();
    let refill = b.task("refill");
    let sum = b.task("sum");
    let tail = b.task("tail");
    first.push(sum);
    b.path(&first);
    b.path(&[refill, sum, tail]);
    b.build().unwrap()
}

/// The samples fill task `i` pushes (the refill is `i = 4`, the tail
/// `i = 5`).
fn samples(i: usize, n: usize) -> impl Iterator<Item = f64> {
    (0..n).map(move |j| (100 * i + j) as f64)
}

const SPEC: &str = "sum { maxDuration: 10s onFail: skipTask; \
                    collect: 1 dpTask: f3 onFail: restartPath Path: 1; }";

/// The app's builder, with its channels and task bodies — what either
/// runtime installs.
fn builder() -> ArtemisRuntimeBuilder {
    let mut rb = ArtemisRuntimeBuilder::new(app());
    for c in CHANNELS {
        rb.channel(c);
    }
    for (i, f) in FILLS.iter().enumerate() {
        rb.body(f, move |ctx| {
            ctx.compute(1_000)?;
            samples(i, PUSHES_PER_FILL).try_for_each(|v| ctx.push("ring", v))
        });
    }
    rb.body("refill", |ctx| {
        samples(FILLS.len(), 3).try_for_each(|v| ctx.push("ring", v))
    });
    rb.body("sum", |ctx| {
        let all = ctx.read_all("ring")?;
        ctx.compute(2_000)?;
        ctx.consume("ring")?;
        ctx.push("out", all.len() as f64)?;
        ctx.push("out", all.iter().sum())
    });
    rb.body("tail", |ctx| {
        samples(FILLS.len() + 1, 2).try_for_each(|v| ctx.push("ring", v))
    });
    rb
}

/// The app under Mayfly, with a collect rule in place of the monitors.
fn mayfly_builder() -> MayflyRuntimeBuilder {
    let mut rb = MayflyRuntimeBuilder::new(builder());
    rb.collect("sum", "f3", 1);
    rb
}

/// What a run leaves behind.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: String,
    channels: Vec<Vec<f64>>,
    completions: Vec<usize>,
}

/// What one explored run observed besides its outcome.
struct Run {
    observed: Observed,
    /// FRAM write ops of the whole run.
    writes: u64,
    /// Power failures the schedule injected.
    failures: u64,
    /// Whether the second boot completed a task it started: past that
    /// commit, a crash is no longer inside the first recovery.
    recovered: bool,
    /// The runtime's `EndTask` ride decisions (none under Mayfly).
    rides: RideStats,
}

fn observe(dev: &mut Device, outcome: String, channel: impl Fn(&str) -> Channel) -> Observed {
    let app = app();
    Observed {
        outcome,
        channels: CHANNELS
            .iter()
            .map(|c| channel(c).read_all(dev, &TxWriter::new()).unwrap())
            .collect(),
        completions: app
            .tasks()
            .iter()
            .map(|t| {
                dev.trace()
                    .completions_of(app.task_by_name(&t.name).unwrap())
            })
            .collect(),
    }
}

/// Drives `sys` through the reboot loop on `dev`. Boot `b` arms a
/// failure before write op `crashes[b]` of that boot, if given.
fn drive<S: IntermittentSystem>(
    dev: &mut Device,
    sys: &mut S,
    crashes: &[u64],
) -> (String, u64, u64, bool)
where
    S::Output: core::fmt::Debug,
{
    let writes0 = dev.fram().write_ops();
    let mut boot = 0;
    let mut recovered = false;
    let out = Simulator::new(RunLimit::reboots(16)).run(dev, &mut |dev: &mut Device| {
        dev.fail_before_write(crashes.get(boot).copied().unwrap_or(0));
        boot += 1;
        let start = dev.trace().len();
        let result = sys.on_boot(dev);
        if boot == 2 {
            // A task's end is traced once its commit's flag write
            // landed; the commit has returned once anything is traced
            // after it.
            let (mut started, mut ended) = (false, false);
            for r in dev.trace().records().skip(start) {
                recovered |= ended;
                started |= matches!(r.event, TraceEvent::TaskStart { .. });
                ended |= started && matches!(r.event, TraceEvent::TaskEnd { .. });
            }
        }
        result
    });
    let writes = dev.fram().write_ops() - writes0;
    (
        format!("{out:?}"),
        writes,
        dev.stats().power_failures,
        recovered,
    )
}

/// Runs the app under ARTEMIS on continuous power from `dev` under
/// the crash schedule `crashes` (see [`drive`]).
fn artemis_run_on(mut dev: Device, crashes: &[u64]) -> Run {
    let suite = artemis::ir::compile(SPEC, &app()).unwrap();
    let mut rt = builder().install(&mut dev, suite).unwrap();
    let (outcome, writes, failures, recovered) = drive(&mut dev, &mut rt, crashes);
    Run {
        observed: observe(&mut dev, outcome, |c| rt.channel(c).unwrap()),
        writes,
        failures,
        recovered,
        rides: rt.ride_stats(),
    }
}

/// [`artemis_run_on`] the default capacitor, whose charge holds every
/// `EndTask` delivery's admission ceiling: each rides its task's
/// record.
fn artemis_run(crashes: &[u64]) -> Run {
    artemis_run_on(DeviceBuilder::msp430fr5994().build(), crashes)
}

/// [`artemis_run_on`] a capacitor whose charge is under every `EndTask`
/// delivery's admission ceiling — the runtime allowance alone is
/// larger — yet holds each delivery's commit group: every ride is
/// refused, so each task commits at `taskFinish` and its delivery and
/// outcome after it.
fn artemis_refused_run(crashes: &[u64]) -> Run {
    let cap = Capacitor::with_budget(Energy::from_micro_joules(2));
    artemis_run_on(
        DeviceBuilder::msp430fr5994().capacitor(cap).build(),
        crashes,
    )
}

/// [`artemis_run`] under Mayfly ([`mayfly_builder`]).
fn mayfly_run(crashes: &[u64]) -> Run {
    let mut dev = DeviceBuilder::msp430fr5994().build();
    let mut rt = mayfly_builder().install(&mut dev).unwrap();
    let (outcome, writes, failures, recovered) = drive(&mut dev, &mut rt, crashes);
    Run {
        observed: observe(&mut dev, outcome, |c| rt.channel(c).unwrap()),
        writes,
        failures,
        recovered,
        rides: RideStats::default(),
    }
}

/// The continuous run of `run`, checked against the app's expected
/// channel contents.
fn continuous(run: fn(&[u64]) -> Run) -> Run {
    let steady = run(&[]);
    assert_eq!(steady.failures, 0);
    let expected = &steady.observed;
    assert_eq!(expected.channels[0], [500.0, 501.0]);
    let wrapped: Vec<f64> = (0..FILLS.len())
        .flat_map(|i| samples(i, PUSHES_PER_FILL))
        .skip(FILLS.len() * PUSHES_PER_FILL - 32)
        .collect();
    let drained = [
        wrapped.len() as f64,
        wrapped.iter().sum(),
        3.0,
        400.0 + 401.0 + 402.0,
    ];
    assert_eq!(expected.channels[1], drained, "sum read the wrapped ring");
    steady
}

/// Explores a crash before every write op of `run`'s continuous run;
/// returns the number of crash points.
fn explore(run: fn(&[u64]) -> Run) -> u64 {
    let steady = continuous(run);
    for k in 1..=steady.writes {
        let once = run(&[k]);
        assert_eq!(once.failures, 1, "crash before write {k} never fired");
        assert_eq!(
            once.observed, steady.observed,
            "crash before write {k} of {}",
            steady.writes
        );
    }
    steady.writes
}

/// Explores, for every first crash point of `run`, a second crash
/// before every write op of the recovery it forces; returns the number
/// of two-crash schedules.
fn explore_nested(run: fn(&[u64]) -> Run) -> u64 {
    let steady = continuous(run);
    let mut explored = 0;
    for k in 1..=steady.writes {
        for j in 1.. {
            let twice = run(&[k, j]);
            if twice.failures < 2 {
                // The run finished before recovery write `j`.
                break;
            }
            assert_eq!(
                twice.observed, steady.observed,
                "crash before write {k}, then before recovery write {j}"
            );
            explored += 1;
            if twice.recovered {
                break;
            }
        }
    }
    explored
}

/// The continuous runs take the branch their capacitor sets: on the
/// default one every `EndTask` delivery rides for energy, on the small
/// one every ride is refused — and they observe the same.
#[test]
fn artemis_runs_take_the_ride_branch_their_capacitor_sets() {
    let (admitted, refused) = (continuous(artemis_run), continuous(artemis_refused_run));
    let boundaries = admitted.rides.energy;
    assert!(boundaries > 0);
    let only = |energy, refused| RideStats {
        energy,
        refused,
        ..RideStats::default()
    };
    assert_eq!(admitted.rides, only(boundaries, 0));
    assert_eq!(refused.rides, only(0, boundaries));
    assert_eq!(admitted.observed, refused.observed);
    assert!(admitted.writes < refused.writes, "riding saves writes");
}

/// The crash points are pinned exactly: a delivery in which no
/// machine changes and nothing is logged persists nothing, so it adds
/// no write op, Mayfly commits each task with the advance past it, and
/// a change to what a run writes moves these counts.
#[test]
fn artemis_channel_commits_survive_every_crash_point() {
    assert_eq!(explore(artemis_run), 138);
}

/// [`artemis_channel_commits_survive_every_crash_point`] with every
/// `EndTask` ride refused for energy.
#[test]
fn artemis_refused_rides_survive_every_crash_point() {
    assert_eq!(explore(artemis_refused_run), 171);
}

#[test]
fn mayfly_channel_commits_survive_every_crash_point() {
    assert_eq!(explore(mayfly_run), 104);
}

#[test]
fn artemis_recoveries_survive_a_second_crash() {
    assert_eq!(explore_nested(artemis_run), 3_930);
}

#[test]
fn artemis_refused_rides_survive_a_second_crash() {
    assert_eq!(explore_nested(artemis_refused_run), 5_586);
}

#[test]
fn mayfly_recoveries_survive_a_second_crash() {
    assert_eq!(explore_nested(mayfly_run), 2_416);
}

/// A device whose FRAM reads and CPU cycles take no time and no
/// energy, so a run that reloads more than another (the runtime's
/// header load, the engine's cold fills and their worklist
/// re-derivation) keeps the same clock and the same charge: only the
/// write stream can tell the two apart.
fn free_reload_device() -> Device {
    let mut costs = CostModel::msp430fr5994();
    costs.fram_read_base = Cost::FREE;
    costs.fram_read_per_byte = Cost::FREE;
    costs.clock_hz = u64::MAX;
    costs.energy_per_cycle = Energy::ZERO;
    DeviceBuilder::msp430fr5994().cost_model(costs).build()
}

/// Three rearmed runs of the app, with SRAM cleared before each run and
/// each rearm if `cold`: the final FRAM image, what the runs left
/// behind, and the FRAM read ops they took.
type Runs = (Vec<u8>, Observed, u64);

/// Drives three runs of `rt` (see [`Runs`]).
macro_rules! three_runs {
    ($dev:ident, $rt:ident, $cold:expr) => {{
        let mut outcomes = Vec::new();
        for _ in 0..3 {
            if $cold {
                $dev.sram_mut().clear();
            }
            outcomes.push(format!(
                "{:?}",
                $rt.run_once(&mut $dev, RunLimit::unbounded())
            ));
            if $cold {
                $dev.sram_mut().clear();
            }
            $rt.rearm(&mut $dev).unwrap();
        }
        let image = $dev.fram().peek_raw(0, $dev.fram().used()).to_vec();
        let reads = $dev.fram().read_ops();
        let observed = observe(&mut $dev, outcomes.join("; "), |c| $rt.channel(c).unwrap());
        (image, observed, reads)
    }};
}

fn artemis_runs(cold: bool) -> Runs {
    let mut dev = free_reload_device();
    let suite = artemis::ir::compile(SPEC, &app()).unwrap();
    let mut rt = builder().install(&mut dev, suite).unwrap();
    three_runs!(dev, rt, cold)
}

fn mayfly_runs(cold: bool) -> Runs {
    let mut dev = free_reload_device();
    let mut rt = mayfly_builder().install(&mut dev).unwrap();
    three_runs!(dev, rt, cold)
}

/// The SRAM mirrors are write-through: a runtime that must reload its
/// header (and the engine its shadows) before every run and rearm
/// writes exactly what a warm one writes.
#[test]
fn cold_mirrors_write_what_warm_mirrors_write() {
    for runs in [artemis_runs, mayfly_runs] {
        let (warm, cold) = (runs(false), runs(true));
        assert!(cold.2 > warm.2, "premise: cold runs reload");
        assert_eq!(cold.1, warm.1);
        assert!(cold.0 == warm.0, "FRAM images differ");
    }
}

/// The Fig. 5 engine behind a probe that logs what the runtime asked
/// of it, for the wearable explorer's monitor oracle: every delivery
/// and path restart, in order, each checked for having landed in FRAM
/// at the probe's next entry (or at the end of the run) and, if it
/// did, replayed once through a [`Reference`].
struct Probe {
    engine: MonitorEngine,
    oracle: RefCell<Oracle>,
}

/// The monitor oracle's replay state.
struct Oracle {
    reference: Reference,
    /// Every machine's initial `(state, vars)`.
    initial: Vec<(u32, Vec<Value>)>,
    /// Per machine: `(reset_on_path_restart, Path:)`.
    resets: Vec<(bool, Option<u32>)>,
    /// The last request, not yet known to have landed.
    pending: Option<Request>,
    /// Deliveries replayed, and those that persisted nothing (silent,
    /// or discarded by a crash).
    landed: usize,
    discarded: usize,
    /// `EndTask` deliveries that returned their verdicts.
    ends_returned: usize,
}

enum Request {
    /// A delivery, with the energy reading it armed under and the
    /// verdicts the engine returned (`None` if the call failed).
    Delivery {
        seq: u64,
        event: MonitorEvent,
        energy_nj: u64,
        verdicts: Option<Vec<MonitorVerdict>>,
    },
    Restart(PathId),
}

impl Probe {
    fn new(engine: MonitorEngine, suite: &MonitorSuite, app: &AppGraph) -> Probe {
        let reference = Reference::new(suite.clone(), app).unwrap();
        let initial = reference.snapshot();
        let resets = (suite.machines().iter())
            .map(|m| (m.reset_on_path_restart, m.path))
            .collect();
        Probe {
            engine,
            oracle: RefCell::new(Oracle {
                reference,
                initial,
                resets,
                pending: None,
                landed: 0,
                discarded: 0,
                ends_returned: 0,
            }),
        }
    }

    /// Replays the pending request if FRAM shows it landed: a delivery
    /// whose sequence number the engine's header holds armed, or a
    /// path restart whose machines FRAM holds reset. A delivery that
    /// persisted nothing (silent, or discarded by a crash) is skipped;
    /// its redelivery, if any, comes under its own entry.
    fn settle(&self, dev: &Device) {
        let o = &mut *self.oracle.borrow_mut();
        match o.pending.take() {
            None => {}
            Some(Request::Delivery {
                seq,
                event,
                energy_nj,
                verdicts,
            }) => {
                if self.engine.armed_seq(dev) != Some(seq) {
                    o.discarded += 1;
                    return;
                }
                o.landed += 1;
                let expected = o.reference.deliver(seq, &event, energy_nj);
                if let Some(verdicts) = verdicts {
                    assert_eq!(verdicts, expected, "verdicts of seq {seq}");
                }
            }
            Some(Request::Restart(path)) => {
                let mut reset = o.reference.snapshot();
                for (i, &(flagged, p)) in o.resets.iter().enumerate() {
                    if flagged && p == Some(path.number()) {
                        reset[i] = o.initial[i].clone();
                    }
                }
                if self.engine.snapshot(dev) == reset {
                    o.reference.restart_path(path);
                }
            }
        }
    }

    /// Settles the last request and requires the engine's FRAM state
    /// to equal the reference's.
    fn check(&self, dev: &Device) -> (usize, usize) {
        self.settle(dev);
        let o = self.oracle.borrow();
        assert_eq!(self.engine.snapshot(dev), o.reference.snapshot());
        (o.landed, o.discarded)
    }
}

impl Monitoring for Probe {
    fn reset_monitor(&self, dev: &mut Device) -> Result<(), Interrupt> {
        self.engine.reset_monitor(dev)
    }

    fn monitor_finalize(&self, dev: &mut Device) -> Result<bool, Interrupt> {
        // The reboot's recovery runs first: a request that landed only
        // through its replay shows afterwards.
        let done = self.engine.monitor_finalize(dev);
        if done.is_ok() {
            self.settle(dev);
        }
        done
    }

    fn call_monitor(
        &self,
        dev: &mut Device,
        seq: u64,
        event: &MonitorEvent,
    ) -> Result<Vec<MonitorVerdict>, Interrupt> {
        self.settle(dev);
        let energy_nj = dev.energy_level().as_nano_joules();
        let out = self.engine.call_monitor(dev, seq, event);
        let mut o = self.oracle.borrow_mut();
        o.ends_returned += usize::from(out.is_ok() && event.kind == EventKind::EndTask);
        o.pending = Some(Request::Delivery {
            seq,
            event: *event,
            energy_nj,
            verdicts: out.as_ref().ok().cloned(),
        });
        drop(o);
        out
    }

    fn last_verdicts(&self, dev: &mut Device) -> Result<Vec<MonitorVerdict>, Interrupt> {
        self.engine.last_verdicts(dev)
    }

    fn on_path_restart(&self, dev: &mut Device, path: PathId) -> Result<(), Interrupt> {
        self.settle(dev);
        let out = self.engine.on_path_restart(dev, path);
        self.oracle.borrow_mut().pending = Some(Request::Restart(path));
        out
    }

    fn machine_count(&self) -> usize {
        self.engine.machine_count()
    }

    fn machine_names(&self) -> Vec<String> {
        self.engine.machine_names()
    }
}

const WEARABLE_CHANNELS: [&str; 4] = ["temps", "avg", "breath", "cough"];

/// What a wearable run leaves behind (see [`Observed`]).
fn observe_wearable(
    dev: &mut Device,
    outcome: String,
    channel: impl Fn(&str) -> Channel,
) -> Observed {
    let app = health_app();
    Observed {
        outcome,
        channels: WEARABLE_CHANNELS
            .iter()
            .map(|c| channel(c).read_all(dev, &TxWriter::new()).unwrap())
            .collect(),
        completions: (0..app.task_count() as u32)
            .map(|t| dev.trace().completions_of(TaskId(t)))
            .collect(),
    }
}

/// The Fig. 14 wearable run under ARTEMIS — `health_app`, whose tasks
/// declare their costs, with the Fig. 5 spec on the benchmark's
/// continuous-power device — under the crash schedule `crashes`, its
/// engine behind a [`Probe`] whose oracle must hold.
fn wearable_artemis_run(crashes: &[u64]) -> Run {
    let app = health_app();
    let mut dev = benchmark_device(Harvester::Continuous);
    let suite = artemis::ir::compile(HEALTH_SPEC, &app).unwrap();
    let engine = MonitorEngine::install(&mut dev, suite.clone(), &app).unwrap();
    let probe = Probe::new(engine, &suite, &app);
    let mut rt = artemis_builder(app.clone())
        .install_with(&mut dev, probe)
        .unwrap();
    let (outcome, writes, failures, recovered) = drive(&mut dev, &mut rt, crashes);
    let (landed, _) = rt.engine().check(&dev);
    assert!(landed > 0, "premise: deliveries persist");
    Run {
        observed: observe_wearable(&mut dev, outcome, |c| rt.channel(c).unwrap()),
        writes,
        failures,
        recovered,
        rides: rt.ride_stats(),
    }
}

/// [`wearable_artemis_run`] under Mayfly (`health::install_mayfly`).
fn wearable_mayfly_run(crashes: &[u64]) -> Run {
    let mut dev = benchmark_device(Harvester::Continuous);
    let mut rt = install_mayfly(&mut dev);
    let (outcome, writes, failures, recovered) = drive(&mut dev, &mut rt, crashes);
    Run {
        observed: observe_wearable(&mut dev, outcome, |c| rt.channel(c).unwrap()),
        writes,
        failures,
        recovered,
        rides: RideStats::default(),
    }
}

/// [`explore`] without the small app's channel premise: a crash before
/// every write op of the continuous run that a power failure can
/// replace — all but the sensor-cursor updates, which model registers —
/// until one never fires; returns the number of crash points.
fn explore_wearable(run: fn(&[u64]) -> Run) -> u64 {
    let steady = run(&[]);
    assert_eq!(steady.failures, 0);
    for k in 1.. {
        let once = run(&[k]);
        assert_eq!(
            once.observed, steady.observed,
            "crash before write {k} of {}",
            steady.writes
        );
        if once.failures == 0 {
            return k - 1;
        }
    }
    unreachable!()
}

/// The Fig. 14 wearable run survives a crash before every one of its
/// FRAM write ops under ARTEMIS: the outcome, the channels and every
/// task's completion count equal the continuous run's, and the
/// deliveries that landed, replayed once each through the reference,
/// give the engine's verdicts and FRAM state. The count is the Fig. 14
/// run's write ops (`fig14_runs_keep_their_write_ops_and_records`)
/// less its 15 sensor-cursor updates; its tasks declare their costs,
/// so their `EndTask` deliveries and outcomes ride the task's record.
#[test]
fn artemis_wearable_run_survives_every_crash_point() {
    assert_eq!(explore_wearable(wearable_artemis_run), 317);
}

/// [`artemis_wearable_run_survives_every_crash_point`] under Mayfly.
#[test]
fn mayfly_wearable_run_survives_every_crash_point() {
    assert_eq!(explore_wearable(wearable_mayfly_run), 191);
}

/// A two-task app whose first task declares its cost, so its `EndTask`
/// delivery — a `collect` count the second task never consumes —
/// rides its record.
fn counted_app() -> (ArtemisRuntimeBuilder, MonitorSuite) {
    let mut b = AppGraphBuilder::new();
    let a = b.task("a");
    let c = b.task("c");
    b.task_cost(
        a,
        artemis::core::app::TaskCostDecl {
            compute_cycles: 1_000,
            ..Default::default()
        },
    );
    b.path(&[a, c]);
    let app = b.build().unwrap();
    let suite = artemis::ir::compile("c { collect: 5 dpTask: a onFail: skipTask; }", &app).unwrap();
    let mut rb = ArtemisRuntimeBuilder::new(app);
    rb.channel("out");
    rb.body("a", |ctx| {
        ctx.compute(1_000)?;
        ctx.push("out", 1.0)
    });
    rb.body("c", |ctx| ctx.compute(1_000));
    (rb, suite)
}

/// A fault inside a merged commit — the simulation deadline passing
/// after a task's `EndTask` delivery appended its group 0 to the task's
/// open record, before the record landed — discards the record. The
/// engine's shadow and the runtime's header mirror ran ahead of FRAM
/// there, so the SRAM generation moves on: a rearm and a second run in
/// the same power cycle, with no reboot in between, must complete and
/// give the reference's verdicts and FRAM state — the count the lost
/// delivery made must not reach FRAM through the shadow.
#[test]
fn a_fault_inside_a_merged_commit_leaves_no_shadow_behind() {
    let install = || {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let (rb, suite) = counted_app();
        let engine = MonitorEngine::install(&mut dev, suite.clone(), rb.app()).unwrap();
        let probe = Probe::new(engine, &suite, rb.app());
        let rt = rb.install_with(&mut dev, probe).unwrap();
        (dev, rt)
    };
    // The first task's record lands at its `TaskEnd`.
    let (mut dev, mut rt) = install();
    let start = dev.now();
    assert!(rt.run_once(&mut dev, RunLimit::unbounded()).is_completed());
    assert!(dev.riding_records() > 0, "premise: deliveries ride");
    let landed = dev
        .trace()
        .records()
        .find(|r| matches!(r.event, TraceEvent::TaskEnd { .. }))
        .unwrap()
        .at
        - start;
    let mut inside = 0;
    for back in (0..=1_000).step_by(2) {
        let (mut dev, mut rt) = install();
        let initial = rt.engine().engine.snapshot(&dev);
        let limit = RunLimit::sim_time(landed - SimDuration::from_micros(back));
        assert!(!rt.run_once(&mut dev, limit).is_completed());
        assert_eq!(dev.reboots(), 0);
        // The delivery returned, and nothing of the record landed.
        let returned = rt.engine().oracle.borrow().ends_returned > 0;
        inside += usize::from(returned && rt.engine().engine.snapshot(&dev) == initial);
        rt.rearm(&mut dev).unwrap();
        let out = rt.run_once(&mut dev, RunLimit::unbounded());
        assert!(
            out.completed().is_some_and(|o| o.all_completed()),
            "{back} µs before the landing"
        );
        rt.engine().check(&dev);
    }
    assert!(
        inside > 5,
        "premise: faults inside the merged window ({inside})"
    );
}
