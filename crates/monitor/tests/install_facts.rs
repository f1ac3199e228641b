//! The install gate's memo ([`CompiledSuite::install_facts`]) is keyed
//! by the suite handle, the device's energy profile and the app's task
//! costs, so a memoised install is indistinguishable from a fresh one
//! (the monitor crate's `rider_tables_follow_the_apps_task_costs`
//! covers the costs):
//!
//! - another suite on the same compiled suite is analysed afresh (its
//!   verifier error is still rejected, before FRAM is touched);
//! - another energy profile gets its own bounds, so its own journal
//!   capacity and commit groups;
//! - `set_machine` drops the memo;
//! - a whole Fig. 5 run after a memoised install equals one after an
//!   install of an equal but distinct suite, byte for byte, for every
//!   harvester class.
//!
//! A cache keyed on anything less (the compiled suite alone, the
//! machine count, the suite's contents without the profile) fails one
//! of these.

use std::borrow::Cow;
use std::sync::Arc;

use artemis_bench::health;
use artemis_core::app::{AppGraph, TaskId};
use artemis_core::event::MonitorEvent;
use artemis_core::time::{SimDuration, SimInstant};
use artemis_ir::expr::{Value, VarType};
use artemis_ir::{analyze_suite, suite_bounds, CompiledSuite, MonitorSuite};
use artemis_monitor::{InstallError, InstallOptions, MonitorEngine};
use intermittent_sim::capacitor::Capacitor;
use intermittent_sim::device::{Device, DeviceBuilder};
use intermittent_sim::energy::Energy;
use intermittent_sim::harvester::Harvester;
use intermittent_sim::simulator::RunLimit;

fn fig5(app: &AppGraph) -> MonitorSuite {
    artemis_ir::compile(health::HEALTH_SPEC, app).unwrap()
}

fn install(
    dev: &mut Device,
    suite: &MonitorSuite,
    compiled: &Arc<CompiledSuite>,
    app: &AppGraph,
) -> Result<MonitorEngine, InstallError> {
    MonitorEngine::install_precompiled_shared(
        dev,
        suite.clone(),
        Arc::clone(compiled),
        app,
        InstallOptions::default(),
    )
}

/// A continuously powered device with a `budget_nj` capacitor.
fn device(budget_nj: u64) -> Device {
    DeviceBuilder::msp430fr5994()
        .capacitor(Capacitor::with_budget(Energy::from_nano_joules(budget_nj)))
        .build()
}

/// `suite` with one variable declared on its first machine that the
/// bytecode compiled from `suite` does not have: a verifier error.
fn with_extra_var(suite: &MonitorSuite) -> MonitorSuite {
    let mut mutant = MonitorSuite::new();
    for (k, m) in suite.machines().iter().enumerate() {
        let mut m = m.clone();
        if k == 0 {
            m.add_var("extra", VarType::Int, Value::Int(0));
        }
        mutant.push(m);
    }
    mutant
}

/// Suite A fills the memo; suite B — same machine count, one variable
/// added — must be rejected with the error a fresh analysis gives,
/// with FRAM untouched, and must leave A's memo in place.
#[test]
fn another_suite_is_analysed_afresh() {
    let app = health::health_app();
    let a = fig5(&app);
    let compiled = Arc::new(CompiledSuite::compile(&a, &app).unwrap());
    let mut dev = device(1_600_000);
    install(&mut dev, &a, &compiled, &app).expect("suite A installs");
    let profile = dev.energy_profile();

    let b = with_extra_var(&a);
    assert_eq!(b.len(), a.len());
    let expected = analyze_suite(&b, &compiled, None);
    assert!(expected[0].is_error(), "{expected:?}");
    let mut dev_b = device(1_600_000);
    match install(&mut dev_b, &b, &compiled, &app) {
        Err(InstallError::Rejected(d)) => assert_eq!(d, expected[0]),
        Err(e) => panic!("suite B rejected for the wrong reason: {e}"),
        Ok(_) => panic!("suite B passed the gate on suite A's memo"),
    }
    assert_eq!(
        dev_b.fram().used(),
        0,
        "a rejected install allocates nothing"
    );
    assert_eq!(dev_b.fram().traffic(), Default::default());

    assert!(matches!(
        compiled.install_facts(&a, &app, &profile),
        Cow::Borrowed(_)
    ));
    assert!(matches!(
        compiled.install_facts(&b, &app, &profile),
        Cow::Owned(_)
    ));
    assert!(matches!(
        compiled.install_facts(&a.clone(), &app, &profile),
        Cow::Borrowed(_)
    ));
}

/// The FRAM image, FRAM traffic and verdicts of `events` delivered to
/// an engine installed on `dev`.
type Delivered = (Vec<u8>, intermittent_sim::fram::FramTraffic, Vec<usize>);

fn deliver(mut dev: Device, engine: MonitorEngine, events: &[MonitorEvent]) -> Delivered {
    engine.reset_monitor(&mut dev).unwrap();
    let verdicts = events
        .iter()
        .enumerate()
        .map(|(seq, e)| {
            engine
                .call_monitor(&mut dev, seq as u64 + 1, e)
                .unwrap()
                .len()
        })
        .collect();
    let fram = dev.fram();
    (
        fram.peek_raw(0, fram.used()).to_vec(),
        fram.traffic(),
        verdicts,
    )
}

/// A walk over the Fig. 5 app that every machine observes.
fn walk(app: &AppGraph) -> Vec<MonitorEvent> {
    let mut events = Vec::new();
    let mut t = 0;
    for round in 0..3u64 {
        for task in 0..app.task_count() as u32 {
            for start in [true, false] {
                t += 1_000 + 97 * round;
                let at = SimInstant::from_micros(t);
                let id = TaskId(task);
                events.push(if start {
                    MonitorEvent::start(id, at)
                } else {
                    MonitorEvent::end_with_data(id, at, 36.0 + round as f64)
                });
            }
        }
    }
    events
}

/// A device of a second energy profile gets the bounds, the journal
/// and the commit groups of its own budget, not the memo's — the same
/// as an install over a compiled suite that never saw the first one.
#[test]
fn another_profile_gets_its_own_bounds_and_journal() {
    let app = health::health_app();
    let suite = fig5(&app);
    let compiled = Arc::new(CompiledSuite::compile(&suite, &app).unwrap());
    let mut big = device(1_600_000);
    install(&mut big, &suite, &compiled, &app).unwrap();
    let (big_profile, tiny_profile) = (big.energy_profile(), device(1).energy_profile());
    assert_ne!(big_profile, tiny_profile);

    let tiny_bounds = compiled.install_facts(&suite, &app, &tiny_profile);
    assert!(matches!(tiny_bounds, Cow::Owned(_)));
    assert_eq!(
        tiny_bounds.bounds,
        suite_bounds(&compiled, &tiny_profile),
        "computed for the device's own profile"
    );
    assert_ne!(
        tiny_bounds.bounds,
        compiled.install_facts(&suite, &app, &big_profile).bounds,
        "the two budgets cut different commit groups"
    );

    let events = walk(&app);
    let mut tiny = device(1);
    let engine = install(&mut tiny, &suite, &compiled, &app).unwrap();
    let memoised_journal = tiny.fram().allocations()[0].clone();
    let memoised = deliver(tiny, engine, &events);

    let fresh_compiled = Arc::new(CompiledSuite::compile(&suite, &app).unwrap());
    let mut tiny = device(1);
    let engine = install(&mut tiny, &suite, &fresh_compiled, &app).unwrap();
    let fresh_journal = tiny.fram().allocations()[0].clone();
    let fresh = deliver(tiny, engine, &events);

    assert_eq!(memoised_journal.label, "commit journal");
    assert_eq!(memoised_journal.size, fresh_journal.size);
    assert_eq!(memoised, fresh);
}

/// `set_machine` drops the memo: a machine swapped in after the first
/// install is analysed, and its verifier error rejects the install.
#[test]
fn set_machine_clears_the_memo() {
    let app = health::health_app();
    let suite = fig5(&app);
    let mut compiled = CompiledSuite::compile(&suite, &app).unwrap();
    let profile = device(1_600_000).energy_profile();
    assert!(compiled
        .install_facts(&suite, &app, &profile)
        .diags
        .iter()
        .all(|d| !d.is_error()));

    let mut raw = compiled.machines()[0].to_raw();
    raw.initial_state = suite.machines()[0].states.len() as u32;
    compiled.set_machine(0, raw);
    let expected = analyze_suite(&suite, &compiled, None);
    assert!(expected[0].is_error(), "an out-of-range initial state");

    let mut dev = device(1_600_000);
    match install(&mut dev, &suite, &Arc::new(compiled), &app) {
        Err(InstallError::Rejected(d)) => assert_eq!(d, expected[0]),
        Err(e) => panic!("rejected for the wrong reason: {e}"),
        Ok(_) => panic!("the swapped machine passed on a stale memo"),
    }
    assert_eq!(dev.fram().used(), 0);
}

/// One harvester of each class the fleet draws from.
fn harvesters() -> [Harvester; 3] {
    [
        Harvester::Continuous,
        Harvester::FixedDelay(health::nominal_minutes(2)),
        Harvester::stochastic(SimDuration::from_secs(1), SimDuration::from_mins(4), 0x5eed),
    ]
}

/// A whole Fig. 5 run on the benchmark device after a memoised
/// install equals one after an install from an equal but distinct
/// suite: FRAM image, device stats, trace and outcome.
#[test]
fn memoised_install_runs_like_a_fresh_one() {
    let app = health::health_app();
    let suite = fig5(&app);
    let compiled = Arc::new(CompiledSuite::compile(&suite, &app).unwrap());
    let mut warm = health::benchmark_device(Harvester::Continuous);
    install(&mut warm, &suite, &compiled, &app).unwrap();
    let profile = warm.energy_profile();
    assert!(matches!(
        compiled.install_facts(&suite, &app, &profile),
        Cow::Borrowed(_)
    ));

    let run = |h: Harvester, suite: &MonitorSuite| {
        let mut dev = health::benchmark_device(h);
        let engine = install(&mut dev, suite, &compiled, &app).unwrap();
        let mut rt = health::artemis_builder(app.clone())
            .install_with(&mut dev, engine)
            .unwrap();
        let outcome = rt.run_once(&mut dev, RunLimit::sim_time(SimDuration::from_hours(2)));
        let fram = dev.fram();
        (
            fram.peek_raw(0, fram.used()).to_vec(),
            *dev.stats(),
            dev.trace().records().cloned().collect::<Vec<_>>(),
            outcome,
        )
    };
    for h in harvesters() {
        let distinct = fig5(&app);
        assert!(distinct == suite && !distinct.same(&suite));
        assert!(matches!(
            compiled.install_facts(&distinct, &app, &profile),
            Cow::Owned(_)
        ));
        let memoised = run(h.clone(), &suite);
        let fresh = run(h.clone(), &distinct);
        assert!(memoised.2.len() > 1, "{h:?}: the run traced its events");
        assert_eq!(memoised.0, fresh.0, "{h:?}: FRAM image");
        assert_eq!(memoised.1, fresh.1, "{h:?}: device stats");
        assert_eq!(memoised.2, fresh.2, "{h:?}: trace");
        assert_eq!(memoised.3, fresh.3, "{h:?}: outcome");
    }
}
