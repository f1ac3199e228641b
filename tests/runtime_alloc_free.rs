//! The warm task boundary allocates nothing.
//!
//! Once warm, a `rearm` + `run_once` of the Fig. 14 wearable run on
//! continuous power stages every commit in buffers sized at install
//! (the runtime header's write-set, the device's open record, the
//! engine's scratch), so the whole run allocates only what it returns:
//! the `RunOutcome` path lists and, per monitor delivery with
//! verdicts, the verdict list. The allowance is counted from the run
//! itself: a wrapper around the engine adds one for each delivery it
//! forwards that returned verdicts. A verdict names its machine by
//! index, so it allocates nothing of its own; a warm run allocates 10
//! times in all (pinned).
//!
//! A counting global allocator tallies allocations and reallocations
//! per thread, so tests running in parallel do not mix their counts.
//! `cargo test --test runtime_alloc_free -- --nocapture` prints them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use artemis_bench::health;
use artemis_core::app::PathId;
use artemis_core::event::MonitorEvent;
use artemis_monitor::{MonitorEngine, MonitorVerdict, Monitoring};
use artemis_runtime::RunOutcome;
use intermittent_sim::device::{Device, DeviceBuilder, Interrupt};
use intermittent_sim::harvester::Harvester;
use intermittent_sim::simulator::{RunLimit, SimOutcome};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot is gone while the thread is torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Runs before the counted ones: the first runs grow the engine's and
/// the device's buffers to their working size.
const WARM_RUNS: usize = 3;
/// Counted runs.
const COUNTED_RUNS: usize = 40;

/// The benchmark device on continuous power, tracing nothing (a trace
/// grows with every record it keeps).
fn device() -> Device {
    DeviceBuilder::msp430fr5994()
        .capacitor(health::benchmark_capacitor())
        .harvester(Harvester::Continuous)
        .trace_disabled()
        .build()
}

/// The engine, counting the allocations its deliveries may make: one
/// verdict list per delivery that returned verdicts.
struct Counted {
    engine: MonitorEngine,
    allowed: Cell<u64>,
}

impl Monitoring for Counted {
    fn reset_monitor(&self, dev: &mut Device) -> Result<(), Interrupt> {
        self.engine.reset_monitor(dev)
    }

    fn monitor_finalize(&self, dev: &mut Device) -> Result<bool, Interrupt> {
        self.engine.monitor_finalize(dev)
    }

    fn call_monitor(
        &self,
        dev: &mut Device,
        seq: u64,
        event: &MonitorEvent,
    ) -> Result<Vec<MonitorVerdict>, Interrupt> {
        let verdicts = self.engine.call_monitor(dev, seq, event)?;
        if !verdicts.is_empty() {
            self.allowed.set(self.allowed.get() + 1);
        }
        Ok(verdicts)
    }

    fn last_verdicts(&self, dev: &mut Device) -> Result<Vec<MonitorVerdict>, Interrupt> {
        self.engine.last_verdicts(dev)
    }

    fn on_path_restart(&self, dev: &mut Device, path: PathId) -> Result<(), Interrupt> {
        self.engine.on_path_restart(dev, path)
    }

    fn machine_count(&self) -> usize {
        self.engine.machine_count()
    }
}

/// Allocations a run's outcome makes: one per non-empty path list (the
/// wearable app's three paths fit a list's first allocation).
fn outcome_allocs(outcome: &RunOutcome) -> u64 {
    u64::from(!outcome.completed.is_empty()) + u64::from(!outcome.skipped.is_empty())
}

#[test]
fn a_warm_artemis_run_allocates_only_what_it_returns() {
    let app = health::health_app();
    assert!(
        app.paths().len() <= 4,
        "a path list outgrows one allocation"
    );
    let suite = artemis_ir::compile(health::HEALTH_SPEC, &app).unwrap();
    let mut dev = device();
    let engine = MonitorEngine::install(&mut dev, suite, &app).unwrap();
    let counted = Counted {
        engine,
        allowed: Cell::new(0),
    };
    let mut rt = health::artemis_builder(app)
        .install_with(&mut dev, counted)
        .unwrap();

    let (mut spent, mut for_verdicts) = (0, 0);
    for run in 0..WARM_RUNS + COUNTED_RUNS {
        rt.engine().allowed.set(0);
        let before = allocs();
        rt.rearm(&mut dev).unwrap();
        let out = rt.run_once(&mut dev, RunLimit::unbounded());
        let run_spent = allocs() - before;
        let SimOutcome::Completed(outcome) = out else {
            panic!("run {run}: {out:?}");
        };
        if run < WARM_RUNS {
            continue;
        }
        let run_allowed = rt.engine().allowed.get() + outcome_allocs(&outcome);
        assert_eq!(
            run_spent, run_allowed,
            "run {run} allocated {run_spent} times, {run_allowed} of them for what it returns"
        );
        spent += run_spent;
        for_verdicts += rt.engine().allowed.get();
    }
    // The allowance for verdicts is exercised, not only the outcome's.
    assert!(for_verdicts > 0, "no delivery returned verdicts");
    // Nine verdict lists and one outcome list per run (19 while every
    // verdict carried its machine's name).
    assert_eq!(spent, 10 * COUNTED_RUNS as u64, "allocations per warm run");
    println!(
        "ARTEMIS: {spent} allocations over {COUNTED_RUNS} warm runs, {for_verdicts} for verdicts"
    );
}

#[test]
fn a_warm_mayfly_run_allocates_nothing() {
    let mut dev = device();
    let mut rt = health::install_mayfly(&mut dev);
    let mut spent = 0;
    for run in 0..WARM_RUNS + COUNTED_RUNS {
        let before = allocs();
        rt.rearm(&mut dev).unwrap();
        let out = rt.run_once(&mut dev, RunLimit::unbounded());
        let run_spent = allocs() - before;
        assert!(
            matches!(out, SimOutcome::Completed(_)),
            "run {run}: {out:?}"
        );
        if run >= WARM_RUNS {
            assert_eq!(run_spent, 0, "run {run} allocated {run_spent} times");
            spent += run_spent;
        }
    }
    println!("Mayfly: {spent} allocations over {COUNTED_RUNS} warm runs");
}
