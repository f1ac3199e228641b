//! Enumerated crash points over both runtimes' channel commits: every
//! FRAM write op of a continuous run is, in turn, replaced by a power
//! failure (`Device::fail_before_write`). After the reboot finishes
//! the run, each channel's contents, each task's completion count and
//! the run's outcome must equal the continuous run's.
//!
//! The app wraps its ring channel (36 pushes into 32 slots, nine per
//! task, so one write-set stages many slots), drains it through
//! `consume`, refills it and drains it again. The specification has no
//! attempt-counting property, so a crash — which re-executes the task
//! it hits — leaves nothing observable behind.

use artemis::prelude::*;
use artemis::runtime::Channel;
use artemis::sim::journal::TxWriter;

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

/// Declares the channels and task bodies on either runtime's builder
/// (their task contexts share the channel API).
macro_rules! declare {
    ($rb:ident) => {
        for c in CHANNELS {
            $rb.channel(c);
        }
        for (i, f) in FILLS.iter().enumerate() {
            $rb.body(f, move |ctx| {
                ctx.compute(1_000)?;
                samples(i, PUSHES_PER_FILL).try_for_each(|v| ctx.push("ring", v))
            });
        }
        $rb.body("refill", |ctx| {
            samples(FILLS.len(), 3).try_for_each(|v| ctx.push("ring", v))
        });
        $rb.body("sum", |ctx| {
            let all = ctx.read_all("ring")?;
            ctx.compute(2_000)?;
            ctx.consume("ring")?;
            ctx.push("out", all.len() as f64)?;
            ctx.push("out", all.iter().sum())
        });
        $rb.body("tail", |ctx| {
            samples(FILLS.len() + 1, 2).try_for_each(|v| ctx.push("ring", v))
        });
    };
}

/// What a run leaves behind.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: String,
    channels: Vec<Vec<f64>>,
    completions: Vec<usize>,
}

/// A run's observation, its FRAM write ops and the failures it took.
type Run = (Observed, u64, u64);

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

/// Runs the app under ARTEMIS on continuous power, failing before
/// write op `crash` of the run if given.
fn artemis_run(crash: Option<u64>) -> Run {
    let mut dev = DeviceBuilder::msp430fr5994().build();
    let app = app();
    let suite = artemis::ir::compile(SPEC, &app).unwrap();
    let mut rb = ArtemisRuntimeBuilder::new(app);
    declare!(rb);
    let mut rt = rb.install(&mut dev, suite).unwrap();
    let writes0 = dev.fram().write_ops();
    dev.fail_before_write(crash.unwrap_or(0));
    let out = rt.run_once(&mut dev, RunLimit::reboots(16));
    let writes = dev.fram().write_ops() - writes0;
    let observed = observe(&mut dev, format!("{out:?}"), |c| rt.channel(c).unwrap());
    (observed, writes, dev.stats().power_failures)
}

/// [`artemis_run`] under Mayfly, with a collect rule in place of the
/// monitors.
fn mayfly_run(crash: Option<u64>) -> Run {
    let mut dev = DeviceBuilder::msp430fr5994().build();
    let mut rb = MayflyRuntimeBuilder::new(app());
    declare!(rb);
    rb.collect("sum", "f3", 1);
    let mut rt = rb.install(&mut dev).unwrap();
    let writes0 = dev.fram().write_ops();
    dev.fail_before_write(crash.unwrap_or(0));
    let out = rt.run_once(&mut dev, RunLimit::reboots(16));
    let writes = dev.fram().write_ops() - writes0;
    let observed = observe(&mut dev, format!("{out:?}"), |c| rt.channel(c).unwrap());
    (observed, writes, dev.stats().power_failures)
}

/// Explores a crash before every write op of `run`'s continuous run;
/// returns the number of crash points.
fn explore(run: fn(Option<u64>) -> Run) -> u64 {
    let (expected, writes, failures) = run(None);
    assert_eq!(failures, 0);
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
    for k in 1..=writes {
        let (observed, _, failures) = run(Some(k));
        assert_eq!(failures, 1, "crash before write {k} never fired");
        assert_eq!(observed, expected, "crash before write {k} of {writes}");
    }
    writes
}

#[test]
fn artemis_channel_commits_survive_every_crash_point() {
    assert!(explore(artemis_run) > 100);
}

#[test]
fn mayfly_channel_commits_survive_every_crash_point() {
    assert!(explore(mayfly_run) > 100);
}
