//! The warm event path allocates nothing: once an engine has delivered
//! a few events, a `call_monitor` that produces no verdict performs
//! zero heap allocations — arming, routing, stepping, diffing and both
//! journal commits all run in buffers sized at install — and an event
//! with verdicts allocates exactly once: the returned list (a verdict
//! names its machine by index).
//!
//! A counting global allocator tallies allocations made by the test
//! thread. Everything else the test does (event generation, verdict
//! drops) happens outside the counted window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use artemis_core::app::{AppGraph, AppGraphBuilder, PathId};
use artemis_core::event::MonitorEvent;
use artemis_core::time::SimInstant;
use artemis_monitor::MonitorEngine;
use intermittent_sim::device::DeviceBuilder;
use intermittent_sim::harvester::Harvester;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations and reallocations made
/// by the calling thread.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
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

/// The wearable app of the paper's Figures 4–6 (task graph only).
fn health_app() -> AppGraph {
    let mut b = AppGraphBuilder::new();
    let body_temp = b.task("bodyTemp");
    let calc_avg = b.task_with_var("calcAvg", "avgTemp");
    let heart_rate = b.task("heartRate");
    let accel = b.task("accel");
    let classify = b.task("classify");
    let mic_sense = b.task("micSense");
    let filter = b.task("filter");
    let send = b.task("send");
    b.path(&[body_temp, calc_avg, heart_rate, send]);
    b.path(&[accel, classify, send]);
    b.path(&[mic_sense, filter, send]);
    b.build().unwrap()
}

/// A deterministic walk over the app's paths: per task a StartTask,
/// 0–11 re-attempts (so `maxTries: 10` fires), and an EndTask, with
/// a monitored value on tasks that declare one and gaps of 1 ms to
/// ~17 min (so the `MITD: 5min` guard takes both branches).
fn walk(app: &AppGraph, n: usize) -> Vec<MonitorEvent> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move |m: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % m
    };
    let mut t_us = 0u64;
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let p = next(app.paths().len() as u64) as usize;
        for &task in &app.paths()[p].tasks {
            let on_path = PathId(p as u32);
            for _ in 0..=next(12) {
                t_us += 1_000 + next(1_000_000_000);
                let at = SimInstant::from_micros(t_us);
                out.push(MonitorEvent::start(task, at).on_path(on_path));
            }
            t_us += 1_000 + next(1_000_000_000);
            let at = SimInstant::from_micros(t_us);
            let end = match app.tasks()[task.index()].monitored_var {
                Some(_) => MonitorEvent::end_with_data(task, at, 30.0 + next(150) as f64 / 10.0),
                None => MonitorEvent::end(task, at),
            };
            out.push(end.on_path(on_path));
        }
    }
    out.truncate(n);
    out
}

#[test]
fn warm_call_monitor_allocates_nothing_without_verdicts() {
    const WARMUP: usize = 500;
    const MEASURED: usize = 20_000;

    let app = health_app();
    let suite = artemis_ir::compile(artemis_spec::samples::FIGURE5, &app).unwrap();
    let mut dev = DeviceBuilder::msp430fr5994()
        .harvester(Harvester::Continuous)
        .build();
    let engine = MonitorEngine::install(&mut dev, suite, &app).unwrap();
    engine.reset_monitor(&mut dev).unwrap();
    let events = walk(&app, WARMUP + MEASURED);

    let mut silent = 0;
    let mut loud = 0;
    for (i, event) in events.iter().enumerate() {
        let before = allocs();
        let verdicts = engine.call_monitor(&mut dev, i as u64 + 1, event).unwrap();
        let spent = allocs() - before;
        if i < WARMUP {
            continue;
        }
        let k = verdicts.len() as u64;
        if k == 0 {
            assert_eq!(spent, 0, "event {i} ({event:?}) allocated {spent} times");
            silent += 1;
        } else {
            assert_eq!(
                spent, 1,
                "event {i} with {k} verdicts allocated {spent} times"
            );
            loud += 1;
        }
    }
    // The walk exercises both budgets.
    assert!(silent > MEASURED / 2, "only {silent} verdict-free events");
    assert!(loud > 0, "no event produced a verdict");
}
