//! Allocation budget of the spec-to-runtime install path.
//!
//! A counting global allocator tallies allocations and reallocations
//! per thread, so tests running in parallel do not mix their counts.
//! Each install runs the benchmark's sequence on a fresh device: build
//! the runtime and the device, `artemis_ir::compile` (parse, resolve,
//! lower), `CompiledSuite::compile` (source gate, codegen, optimizer),
//! `MonitorEngine::install_precompiled_shared` (analysis gate, FRAM)
//! and the runtime's `install_with`. The ceilings pin the counts this
//! path reaches, so a change that brings per-call temporaries back
//! fails here; `cargo test --test install_allocs -- --nocapture`
//! prints the counts per stage.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use artemis_bench::{health, workload};
use artemis_core::app::AppGraph;
use artemis_ir::CompiledSuite;
use artemis_monitor::{InstallOptions, MonitorEngine};
use artemis_runtime::ArtemisRuntimeBuilder;
use intermittent_sim::device::DeviceBuilder;

/// Allocations + reallocations of one Fig. 5 install (1,168 before
/// the install passes kept their temporaries in one scratch per call,
/// 549 before the energy verdicts stopped copying task names and the
/// SRAM registry its labels, 540 before machine blocks shared one
/// FRAM label and an install on a device that traces nothing stopped
/// rendering the gate's warnings, 519 before each machine's dispatch
/// lists became runs of its slot pool and the application graph
/// indexed task names without a hash table of name copies).
const FIGURE5_CEILING: u64 = 490;
/// The same, averaged over generated suites of seeds 0..64 (651, then
/// 334, then 327, then 317 before).
const GENERATED_CEILING: u64 = 303;

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

/// Allocations + reallocations of one install, by stage.
#[derive(Default, Clone, Copy)]
struct Stages {
    /// Runtime builder and device.
    build: u64,
    /// `artemis_ir::compile`: parse, resolve, lower.
    lower: u64,
    /// `CompiledSuite::compile`: source gate, codegen, optimizer.
    compile: u64,
    /// The engine install: analysis gate, riders, FRAM.
    engine: u64,
    /// The runtime install.
    runtime: u64,
}

impl Stages {
    fn total(&self) -> u64 {
        self.build + self.lower + self.compile + self.engine + self.runtime
    }

    fn add(&mut self, o: &Stages) {
        self.build += o.build;
        self.lower += o.lower;
        self.compile += o.compile;
        self.engine += o.engine;
        self.runtime += o.runtime;
    }
}

fn install(spec: &str, app: &AppGraph, rb: impl FnOnce() -> ArtemisRuntimeBuilder) -> Stages {
    let mut s = Stages::default();
    let mut mark = allocs();
    let mut lap = |slot: &mut u64| {
        let now = allocs();
        *slot = now - mark;
        mark = now;
    };
    let rb = rb();
    let mut dev = DeviceBuilder::msp430fr5994().trace_disabled().build();
    lap(&mut s.build);
    let suite = artemis_ir::compile(spec, app).expect("the spec lowers");
    lap(&mut s.lower);
    let compiled = Arc::new(CompiledSuite::compile(&suite, app).expect("the suite compiles"));
    lap(&mut s.compile);
    let engine = MonitorEngine::install_precompiled_shared(
        &mut dev,
        suite.clone(),
        compiled,
        app,
        InstallOptions::default(),
    )
    .expect("the engine installs");
    lap(&mut s.engine);
    let rt = rb
        .install_with(&mut dev, engine)
        .expect("the runtime installs");
    lap(&mut s.runtime);
    drop(rt);
    s
}

fn print(what: &str, s: &Stages, n: u64) {
    println!(
        "{what}: {} per install (build {}, parse-lower {}, compile {}, engine {}, runtime {})",
        s.total() / n,
        s.build / n,
        s.lower / n,
        s.compile / n,
        s.engine / n,
        s.runtime / n,
    );
}

#[test]
fn figure5_install_stays_under_its_allocation_budget() {
    let app = health::health_app();
    // The first install warms lazily built statics; count the second.
    install(health::HEALTH_SPEC, &app, || {
        health::artemis_builder(app.clone())
    });
    let s = install(health::HEALTH_SPEC, &app, || {
        health::artemis_builder(app.clone())
    });
    print("Fig. 5", &s, 1);
    assert!(
        s.total() <= FIGURE5_CEILING,
        "Fig. 5 install: {} allocations",
        s.total()
    );
}

#[test]
fn generated_installs_stay_under_their_allocation_budget() {
    let apps: Vec<_> = (0..64).map(workload::generate).collect();
    install(&apps[0].spec, &apps[0].app, || apps[0].builder());
    let mut sum = Stages::default();
    let mut worst = 0;
    for w in &apps {
        let s = install(&w.spec, &w.app, || w.builder());
        worst = worst.max(s.total());
        sum.add(&s);
    }
    print("generated, mean", &sum, apps.len() as u64);
    println!("generated, worst: {worst}");
    let mean = sum.total() / apps.len() as u64;
    assert!(
        mean <= GENERATED_CEILING,
        "generated installs: {mean} allocations on average"
    );
}
