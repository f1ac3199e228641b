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
//! it hits — leaves nothing observable behind.

use artemis::prelude::*;
use artemis::runtime::Channel;
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
            let mut started = false;
            for r in dev.trace().records().skip(start) {
                started |= matches!(r.event, TraceEvent::TaskStart { .. });
                recovered |= started && matches!(r.event, TraceEvent::TaskEnd { .. });
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

/// Runs the app under ARTEMIS on continuous power under the crash
/// schedule `crashes` (see [`drive`]).
fn artemis_run(crashes: &[u64]) -> Run {
    let mut dev = DeviceBuilder::msp430fr5994().build();
    let suite = artemis::ir::compile(SPEC, &app()).unwrap();
    let mut rt = builder().install(&mut dev, suite).unwrap();
    let (outcome, writes, failures, recovered) = drive(&mut dev, &mut rt, crashes);
    Run {
        observed: observe(&mut dev, outcome, |c| rt.channel(c).unwrap()),
        writes,
        failures,
        recovered,
    }
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

/// ARTEMIS' crash points are pinned exactly: a delivery in which no
/// machine changes and nothing is logged persists nothing, so it adds
/// no write op, and a change to what the run writes moves this count.
#[test]
fn artemis_channel_commits_survive_every_crash_point() {
    assert_eq!(explore(artemis_run), 171);
}

#[test]
fn mayfly_channel_commits_survive_every_crash_point() {
    assert!(explore(mayfly_run) > 100);
}

#[test]
fn artemis_recoveries_survive_a_second_crash() {
    assert_eq!(explore_nested(artemis_run), 4_091);
}

#[test]
fn mayfly_recoveries_survive_a_second_crash() {
    assert!(explore_nested(mayfly_run) > 3_000);
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
