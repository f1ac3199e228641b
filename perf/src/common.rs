//! Pieces every workload shares: the install pipeline from spec text,
//! device-plane totals, and the round record the run loop folds.

use std::cell::RefCell;
use std::sync::Arc;

use artemis_bench::workload::Workload as GenApp;
use artemis_core::app::AppGraph;
use artemis_ir::{CompiledSuite, MonitorSuite, OptLevel};
use artemis_monitor::{InstallOptions, MonitorEngine, Monitoring};
use artemis_runtime::{ArtemisRuntime, ArtemisRuntimeBuilder};
use intermittent_sim::device::{CostCategory, Device, Interrupt};

use crate::calib::Stopwatch;
use crate::trace::{span, Counter, Layer, Recorder};

/// The tracing handle workloads pass down: `None` in measured rounds.
pub type Rec<'a> = Option<&'a RefCell<Recorder>>;

/// Starts timing a round that keeps `threads` threads busy; traced
/// rounds are timed without calibration.
pub fn stopwatch(rec: Rec, threads: usize) -> Stopwatch {
    Stopwatch::start(if rec.is_some() { 0 } else { threads })
}

/// FNV-1a over 64-bit words: input and output digests.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// FNV-1a over a string.
pub fn fnv_str(s: &str) -> u64 {
    fnv(s.bytes().map(u64::from))
}

/// Exact device-plane totals folded over devices: simulated time and
/// energy by cost category, FRAM traffic, reboots.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DevTotals {
    /// Device-clock time, including off-time while recharging.
    pub clock_us: u64,
    /// Energy drawn from the capacitor.
    pub energy_pj: u64,
    /// Billed time per cost category (app, runtime, monitor).
    pub time_us: [u64; 3],
    /// Billed energy per cost category (app, runtime, monitor).
    pub energy_by_pj: [u64; 3],
    /// FRAM read operations.
    pub fram_reads: u64,
    /// FRAM write operations.
    pub fram_writes: u64,
    /// FRAM bytes read.
    pub fram_read_bytes: u64,
    /// FRAM bytes written.
    pub fram_write_bytes: u64,
    /// Power-failure reboots.
    pub reboots: u64,
    /// FRAM bytes allocated.
    pub fram_used: u64,
}

impl DevTotals {
    /// Adds everything `dev` did since it was built.
    pub fn add(&mut self, dev: &Device) {
        let s = dev.stats();
        let f = dev.fram();
        self.clock_us += dev.now().as_micros();
        self.energy_pj += s.consumed.as_pico_joules();
        for (i, c) in CostCategory::ALL.into_iter().enumerate() {
            self.time_us[i] += s.time(c).as_micros();
            self.energy_by_pj[i] += s.energy(c).as_pico_joules();
        }
        self.fram_reads += f.read_ops();
        self.fram_writes += f.write_ops();
        self.fram_read_bytes += f.read_bytes();
        self.fram_write_bytes += f.write_bytes();
        self.reboots += dev.reboots();
        self.fram_used += f.used() as u64;
    }
}

/// Exact engine-side counters folded over engines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngTotals {
    /// Bytecode instructions executed.
    pub instructions: u64,
    /// Machine steps executed.
    pub machine_steps: u64,
    /// Shadow-cache hits.
    pub hits: u64,
    /// Shadow-cache misses.
    pub misses: u64,
    /// Shadow-cache invalidations.
    pub invalidations: u64,
}

impl EngTotals {
    /// Adds one engine's counters.
    pub fn add(&mut self, e: &MonitorEngine) {
        let x = e.exec_stats();
        let c = e.cache_stats();
        self.instructions += x.instructions;
        self.machine_steps += x.machine_steps;
        self.hits += c.hits;
        self.misses += c.misses;
        self.invalidations += c.invalidations;
    }
}

/// Device-plane totals of one round's work: identical in every round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Plane {
    /// Work items (events, or installs for install_churn).
    pub items: u64,
    /// Monitor events delivered.
    pub events: u64,
    /// Device totals.
    pub dev: DevTotals,
    /// Engine totals.
    pub eng: EngTotals,
}

impl Plane {
    /// Adds another plane's totals.
    pub fn merge(&mut self, o: &Plane) {
        self.items += o.items;
        self.events += o.events;
        let (d, od) = (&mut self.dev, &o.dev);
        d.clock_us += od.clock_us;
        d.energy_pj += od.energy_pj;
        for i in 0..3 {
            d.time_us[i] += od.time_us[i];
            d.energy_by_pj[i] += od.energy_by_pj[i];
        }
        d.fram_reads += od.fram_reads;
        d.fram_writes += od.fram_writes;
        d.fram_read_bytes += od.fram_read_bytes;
        d.fram_write_bytes += od.fram_write_bytes;
        d.reboots += od.reboots;
        d.fram_used += od.fram_used;
        let (e, oe) = (&mut self.eng, &o.eng);
        e.instructions += oe.instructions;
        e.machine_steps += oe.machine_steps;
        e.hits += oe.hits;
        e.misses += oe.misses;
        e.invalidations += oe.invalidations;
    }

    /// Every total, as digest words.
    pub fn words(&self) -> Vec<u64> {
        let (d, e) = (&self.dev, &self.eng);
        let mut w = vec![self.items, self.events, d.clock_us, d.energy_pj];
        w.extend(d.time_us);
        w.extend(d.energy_by_pj);
        w.extend([
            d.fram_reads,
            d.fram_writes,
            d.fram_read_bytes,
            d.fram_write_bytes,
            d.reboots,
            d.fram_used,
        ]);
        w.extend([
            e.instructions,
            e.machine_steps,
            e.hits,
            e.misses,
            e.invalidations,
        ]);
        w
    }
}

/// One round of a workload.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Work items completed (events, or installs for install_churn).
    pub items: u64,
    /// Host seconds of the measured region.
    pub secs: f64,
    /// The same at reference host speed (see `calib`).
    pub ref_secs: f64,
    /// Operations that failed: errors, DNF runs, rejected installs.
    pub failed: u64,
    /// Deterministic outputs; must be identical in every round.
    pub digest: Vec<u64>,
    /// Device-plane totals, when the round can observe its devices
    /// (wearable_fleet's pool cannot; its checks replay the devices).
    pub plane: Option<Plane>,
    /// Traced rounds: the device-stack work the profile covers.
    pub profile: Option<Plane>,
    /// Traced wearable_fleet rounds: pool timings.
    pub pool: Option<crate::fleet::PoolTimes>,
}

impl Round {
    /// A round that could not start (its shared compile or install
    /// failed): one failed operation, nothing measured.
    pub fn not_started() -> Round {
        Round {
            failed: 1,
            ..Round::default()
        }
    }
}

/// A spec compiled to a suite and shareable bytecode.
#[derive(Clone)]
pub struct Compiled {
    /// The source-level suite (names, types, FRAM layout).
    pub suite: MonitorSuite,
    /// The bytecode every install of this spec shares.
    pub compiled: Arc<CompiledSuite>,
}

fn ops(c: &CompiledSuite) -> u64 {
    c.machines().iter().map(|m| m.op_count() as u64).sum()
}

/// Spec text to suite and optimized bytecode. Measured rounds call the
/// program's `artemis_ir::compile` and `CompiledSuite::compile_with`;
/// traced rounds split the same work into its public stages, one span
/// each, and also time a standalone `analyze_suite` call.
pub fn compile(spec: &str, app: &AppGraph, rec: Rec) -> Result<Compiled, String> {
    let Some(r) = rec else {
        let suite = artemis_ir::compile(spec, app).map_err(|e| e.to_string())?;
        let compiled =
            CompiledSuite::compile_with(&suite, app, OptLevel::Full).map_err(|e| e.to_string())?;
        return Ok(Compiled {
            suite,
            compiled: Arc::new(compiled),
        });
    };
    let ast =
        span(rec, Layer::SpecParse, || artemis_spec::parse(spec)).map_err(|d| d.to_string())?;
    let set = span(rec, Layer::SpecResolve, || artemis_spec::resolve(&ast, app))
        .map_err(|d| d.to_string())?;
    let suite = span(rec, Layer::IrLower, || {
        let suite = artemis_ir::lower_set(&set, app).map_err(|e| e.to_string())?;
        for m in suite.machines() {
            artemis_ir::validate::validate_strict(m).map_err(|i| i.to_string())?;
        }
        Ok::<_, String>(suite)
    })?;
    let mut compiled = span(rec, Layer::IrCodegen, || {
        CompiledSuite::compile_with(&suite, app, OptLevel::None)
    })
    .map_err(|e| e.to_string())?;
    let pre = ops(&compiled);
    span(rec, Layer::IrOpt, || {
        let optimized: Vec<_> = compiled
            .machines()
            .iter()
            .map(artemis_ir::optimize_machine)
            .collect();
        for (i, m) in optimized.into_iter().enumerate() {
            compiled.set_machine(i, m.to_raw());
        }
    });
    let diags = span(rec, Layer::IrAnalysis, || {
        artemis_ir::analyze_suite(&suite, &compiled, None)
    });
    let mut r = r.borrow_mut();
    r.count(Counter::Compiles, 1);
    r.count(Counter::OpsPreOpt, pre);
    r.count(Counter::OpsPostOpt, ops(&compiled));
    r.count(
        Counter::AnalysisErrors,
        diags.iter().filter(|d| d.is_error()).count() as u64,
    );
    Ok(Compiled {
        suite,
        compiled: Arc::new(compiled),
    })
}

/// Installs the monitor engine for a compiled spec on `dev`.
pub fn install_engine(
    dev: &mut Device,
    c: &Compiled,
    app: &AppGraph,
    rec: Rec,
) -> Result<MonitorEngine, String> {
    span(rec, Layer::MonitorInstall, || {
        MonitorEngine::install_precompiled_shared(
            dev,
            c.suite.clone(),
            Arc::clone(&c.compiled),
            app,
            InstallOptions::default(),
        )
    })
    .map_err(|e| e.to_string())
}

/// Installs the runtime over an installed engine: runtime FRAM, then
/// the monitors' initial reset.
pub fn install_runtime<M: Monitoring>(
    dev: &mut Device,
    rb: ArtemisRuntimeBuilder,
    engine: M,
    rec: Rec,
) -> Result<ArtemisRuntime<M>, String> {
    span(rec, Layer::RuntimeInstall, || rb.install_with(dev, engine)).map_err(|e| e.to_string())
}

/// A generated app's runtime rb, with the task bodies
/// `artemis_bench::workload::Workload::install` gives it: `count`
/// compute bursts, then one committed sample on the `out` channel.
pub fn gen_runtime(w: &GenApp) -> ArtemisRuntimeBuilder {
    let mut rb = ArtemisRuntimeBuilder::new(w.app.clone());
    rb.channel("out");
    for (i, decl) in w.app.tasks().iter().enumerate() {
        let (count, cycles) = w.bodies[i];
        let len = decl.name.len() as f64;
        rb.body(&decl.name, move |ctx| {
            for _ in 0..count {
                ctx.compute(cycles)?;
            }
            ctx.push("out", len)?;
            Ok::<(), Interrupt>(())
        });
    }
    rb
}

#[cfg(test)]
mod tests {
    use super::*;
    use artemis_core::time::SimDuration;
    use intermittent_sim::capacitor::Capacitor;
    use intermittent_sim::device::DeviceBuilder;
    use intermittent_sim::energy::Energy;
    use intermittent_sim::harvester::Harvester;
    use intermittent_sim::simulator::RunLimit;

    fn device(seed: u64) -> Device {
        DeviceBuilder::msp430fr5994()
            .trace_disabled()
            .capacitor(Capacitor::with_budget(Energy::from_micro_joules(20)))
            .harvester(Harvester::stochastic(
                SimDuration::from_millis(100),
                SimDuration::from_secs(10),
                seed,
            ))
            .build()
    }

    /// The benchmark's install path (its own rb, traced stages)
    /// leaves the device exactly as the program's
    /// `Workload::install` does, through an intermittent run.
    #[test]
    fn install_paths_match_the_programs_own() {
        for seed in 0..8 {
            let w = artemis_bench::workload::generate(seed);
            let mut a = device(seed);
            let mut rt_a = w.install(&mut a).unwrap();
            let out_a = rt_a.run_once(&mut a, RunLimit::sim_time(SimDuration::from_hours(2)));

            let rec = RefCell::new(Recorder::new());
            let mut b = device(seed);
            let c = compile(&w.spec, &w.app, Some(&rec)).unwrap();
            let e = install_engine(&mut b, &c, &w.app, Some(&rec)).unwrap();
            let mut rt_b = install_runtime(&mut b, gen_runtime(&w), e, Some(&rec)).unwrap();
            let out_b = rt_b.run_once(&mut b, RunLimit::sim_time(SimDuration::from_hours(2)));

            assert_eq!(out_a, out_b, "seed {seed}");
            let (mut ta, mut tb) = (DevTotals::default(), DevTotals::default());
            ta.add(&a);
            tb.add(&b);
            assert_eq!(ta, tb, "seed {seed}");
            assert_eq!(rec.borrow().counter(Counter::AnalysisErrors), 0);
        }
    }
}
