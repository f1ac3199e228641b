//! The run loop every workload shares: generate inputs, set up, measure
//! rounds over identical inputs for the time budget, optionally trace
//! more rounds, run the output checks, and derive the metrics.

use std::cell::RefCell;
use std::time::Instant;

use artemis_bench::health;
use artemis_core::app::AppGraph;
use intermittent_sim::harvester::Harvester;

use crate::calib;
use crate::common::{self, Compiled, Plane, Rec, Round};
use crate::trace::{Counter, Layer, Recorder};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

/// One workload of the benchmark.
pub trait Workload: Sized {
    /// Work items per round at the published size.
    const SIZE: usize;
    /// Builds the inputs for `size` items per round from the seed (the
    /// only thing the seed feeds).
    fn generate(seed: u64, size: usize) -> Self;
    /// A digest of the generated inputs.
    fn input_digest(&self) -> u64;
    /// The program work done once before round 1.
    fn setup(&mut self);
    /// One round over the inputs; traced when `rec` is set.
    fn round(&self, rec: Rec) -> Round;
    /// Output checks outside the measured rounds. Returns the
    /// device-plane totals when rounds cannot observe them.
    fn check(&self, checks: &mut Checks) -> Option<Plane>;
}

/// Output checks; any failure fails the run.
#[derive(Default)]
pub struct Checks {
    failures: Vec<String>,
    passed: usize,
}

impl Checks {
    /// Records one check.
    pub fn expect(&mut self, ok: bool, what: impl Into<String>) {
        if ok {
            self.passed += 1;
        } else {
            self.failures.push(what.into());
        }
    }
}

/// The program's reference deployment: the Fig. 5 suite compiled from
/// text and installed with its runtime on a fresh benchmark device.
/// Every workload's set-up; the wearable and stream workloads keep its
/// compiled suite.
pub fn reference_install() -> Compiled {
    let app = health::health_app();
    let c = common::compile(health::HEALTH_SPEC, &app, None).expect("the Fig. 5 spec compiles");
    let mut dev = health::benchmark_device(Harvester::Continuous);
    let engine =
        common::install_engine(&mut dev, &c, &app, None).expect("the Fig. 5 suite installs");
    common::install_runtime(&mut dev, health::artemis_builder(app), engine, None)
        .expect("the Fig. 5 runtime installs");
    c
}

/// The Fig. 5 suite a round installs: the set-up's compile in measured
/// rounds; in traced rounds a fresh compile through the staged pipeline,
/// so that every install stage gets its spans.
pub fn fig5_for_round(shared: &Compiled, app: &AppGraph, rec: Rec) -> Result<Compiled, String> {
    match rec {
        None => Ok(shared.clone()),
        Some(_) => common::compile(health::HEALTH_SPEC, app, rec),
    }
}

/// One named metric.
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything a run reports.
pub struct Outcome {
    /// All output checks passed and no operation failed.
    pub correct: bool,
    /// Work items attempted across all rounds.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Context lines (`name value`), printed before the metrics.
    pub notes: Vec<(String, String)>,
    /// Chrome trace JSON of a traced run.
    pub chrome: Option<String>,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The `p`-quantile of a non-empty sample, interpolating linearly
/// between order statistics.
pub fn quantile(mut v: Vec<f64>, p: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    let k = (v.len() - 1) as f64 * p;
    let (i, f) = (k.floor() as usize, k.fract());
    v[i] + (v[(i + 1).min(v.len() - 1)] - v[i]) * f
}

/// Per-round items per second at reference host speed (`raw`: as
/// measured on this host).
fn rates(rounds: &[Round], raw: bool) -> Vec<f64> {
    rounds
        .iter()
        .map(|r| ratio(r.items as f64, if raw { r.secs } else { r.ref_secs }))
        .collect()
}

/// The median round's items per second at reference host speed.
fn throughput(rounds: &[Round]) -> f64 {
    quantile(rates(rounds, false), 0.5)
}

/// The median round's items per second as measured.
fn raw(rounds: &[Round]) -> f64 {
    quantile(rates(rounds, true), 0.5)
}

/// The process's peak resident set, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs a workload: `seconds` of measured rounds (half of them traced
/// when `trace` is set).
pub fn run<W: Workload>(seed: u64, size: usize, seconds: f64, trace: bool) -> Outcome {
    let t = Instant::now();
    let mut w = W::generate(seed, size);
    let gen_s = t.elapsed().as_secs_f64();

    // Set-up repetitions (single-threaded, each after its own
    // calibration) are spread through the run so that they see the same
    // host as the rounds do; each is kept as measured and at reference
    // host speed.
    let set_up = |w: &mut W| {
        let speed = calib::host_speed(1);
        let t = Instant::now();
        w.setup();
        let s = t.elapsed().as_secs_f64();
        (s, s * speed)
    };
    let mut setups = Vec::new();
    let start = Instant::now();
    let (budget, min_rounds) = if trace {
        (seconds / 2.0, 1)
    } else {
        (seconds, 2)
    };
    let mut rounds = Vec::new();
    while rounds.len() < min_rounds || start.elapsed().as_secs_f64() < budget {
        setups.push(set_up(&mut w));
        rounds.push(w.round(None));
    }
    while setups.len() < SETUP_REPS {
        setups.push(set_up(&mut w));
    }
    let rss = peak_rss_mb();
    let rec = RefCell::new(Recorder::new());
    let mut traced = Vec::new();
    while trace && (traced.is_empty() || start.elapsed().as_secs_f64() < seconds) {
        traced.push(w.round(Some(&rec)));
    }

    let mut checks = Checks::default();
    let plane = w.check(&mut checks).or(rounds[0].plane).unwrap_or_default();
    let all: Vec<&Round> = rounds.iter().chain(&traced).collect();
    checks.expect(
        all.iter().all(|r| r.digest == all[0].digest),
        "deterministic outputs are identical in every round, traced or not",
    );
    let rec = rec.into_inner();
    if trace {
        checks.expect(
            rec.counter(Counter::AnalysisErrors) == 0,
            "no install has an error-severity diagnostic",
        );
    }
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    let attempted: u64 = all.iter().map(|r| r.items).sum();

    let mut notes = vec![
        ("host.cores".into(), host_cores().to_string()),
        ("host.rustc".into(), rustc_version()),
        ("bench.seed".into(), seed.to_string()),
        (
            "bench.input_digest".into(),
            format!("{:016x}", w.input_digest()),
        ),
        ("bench.round_items".into(), rounds[0].items.to_string()),
        ("bench.rounds".into(), rounds.len().to_string()),
        (
            "bench.host_speed".into(),
            quantile(
                rounds.iter().map(|r| ratio(r.ref_secs, r.secs)).collect(),
                0.5,
            )
            .to_string(),
        ),
        ("bench.raw_items_per_s".into(), raw(&rounds).to_string()),
        (
            "bench.raw_setup_s".into(),
            quantile(setups.iter().map(|s| s.0).collect(), 0.5).to_string(),
        ),
        (
            "bench.round_raw_items_per_s".into(),
            rates(&rounds, true)
                .iter()
                .map(|r| format!("{r:.0}"))
                .collect::<Vec<_>>()
                .join(","),
        ),
        (
            "bench.round_host_speed".into(),
            rounds
                .iter()
                .map(|r| format!("{:.4}", ratio(r.ref_secs, r.secs)))
                .collect::<Vec<_>>()
                .join(","),
        ),
        ("bench.traced_rounds".into(), traced.len().to_string()),
        ("bench.gen_s".into(), gen_s.to_string()),
        ("bench.checks_passed".into(), checks.passed.to_string()),
    ];
    notes.extend(
        checks
            .failures
            .iter()
            .map(|f| ("check.failed".into(), f.clone())),
    );

    let metrics = if trace {
        per_layer(&rec, &rounds, &traced, &plane, gen_s)
    } else {
        let setup_s = quantile(setups.iter().map(|s| s.1).collect(), 0.5);
        end_to_end(setup_s, throughput(&rounds), rss, &plane)
    };
    Outcome {
        correct: checks.failures.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        notes,
        chrome: trace.then(|| rec.chrome_json()),
    }
}

fn end_to_end(setup_s: f64, items_per_s: f64, rss: f64, p: &Plane) -> Vec<Metric> {
    let items = p.items as f64;
    let per = |x: u64| ratio(x as f64, items);
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("setup_s", setup_s, "s"),
        m("items_per_s", items_per_s, "1/s"),
        m("peak_rss_mb", rss, "MiB"),
        m("sim_us_per_item", per(p.dev.clock_us), "sim_us"),
        m("sim_nj_per_item", per(p.dev.energy_pj) / 1e3, "nJ"),
        m("sim_monitor_us_per_item", per(p.dev.time_us[2]), "sim_us"),
        m(
            "sim_monitor_nj_per_item",
            per(p.dev.energy_by_pj[2]) / 1e3,
            "nJ",
        ),
        m(
            "fram_bytes_per_item",
            per(p.dev.fram_read_bytes + p.dev.fram_write_bytes),
            "B",
        ),
    ]
}

/// Layers whose self time makes up the device-stack profile.
const PROFILE: [Layer; 15] = [
    Layer::SpecParse,
    Layer::SpecResolve,
    Layer::IrLower,
    Layer::IrCodegen,
    Layer::IrOpt,
    Layer::IrAnalysis,
    Layer::MonitorInstall,
    Layer::RuntimeInstall,
    Layer::MonitorCall,
    Layer::MonitorFinalize,
    Layer::MonitorOther,
    Layer::RuntimeRun,
    Layer::RuntimeRearm,
    Layer::SimBuild,
    Layer::Bench,
];

fn per_layer(
    rec: &Recorder,
    rounds: &[Round],
    traced: &[Round],
    p: &Plane,
    gen_s: f64,
) -> Vec<Metric> {
    let mean_us = |l: Layer| {
        let a = rec.agg(l);
        ratio(a.total_ns as f64, a.count as f64) / 1e3
    };
    let profile_ns: u64 = PROFILE.iter().map(|&l| rec.agg(l).self_ns).sum();
    let share = |ls: &[Layer]| {
        let s: u64 = ls.iter().map(|&l| rec.agg(l).self_ns).sum();
        100.0 * ratio(s as f64, profile_ns as f64)
    };
    let profile = traced
        .iter()
        .filter_map(|r| r.profile)
        .fold(Plane::default(), |mut a, b| {
            a.items += b.items;
            a.events += b.events;
            a
        });
    let pool = traced.iter().filter_map(|r| r.pool).fold(
        crate::fleet::PoolTimes::default(),
        |mut a, b| {
            a.workers = b.workers;
            a.wall_ns += b.wall_ns;
            a.factory_ns += b.factory_ns;
            a.device_ns += b.device_ns;
            a.merge_ns += b.merge_ns;
            a
        },
    );
    let busy = (pool.factory_ns + pool.device_ns) as f64;
    let compiles = rec.counter(Counter::Compiles) as f64;
    let items = p.items as f64;
    let events = p.events as f64;
    let per_item = |x: u64| ratio(x as f64, items);
    let per_event = |x: u64| ratio(x as f64, events);
    let eng = &p.eng;
    let dev = &p.dev;
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("spec.parse_us", mean_us(Layer::SpecParse), "us"),
        m("spec.resolve_us", mean_us(Layer::SpecResolve), "us"),
        m("ir.lower_us", mean_us(Layer::IrLower), "us"),
        m("ir.codegen_us", mean_us(Layer::IrCodegen), "us"),
        m("ir.opt_us", mean_us(Layer::IrOpt), "us"),
        m("ir.analysis_us", mean_us(Layer::IrAnalysis), "us"),
        m("monitor.install_us", mean_us(Layer::MonitorInstall), "us"),
        m(
            "ir.ops_pre_opt",
            ratio(rec.counter(Counter::OpsPreOpt) as f64, compiles),
            "count",
        ),
        m(
            "ir.ops_post_opt",
            ratio(rec.counter(Counter::OpsPostOpt) as f64, compiles),
            "count",
        ),
        m("profile.install_pct", share(&PROFILE[..8]), "%"),
        m(
            "profile.monitor_call_pct",
            share(&[Layer::MonitorCall]),
            "%",
        ),
        m(
            "profile.monitor_finalize_pct",
            share(&[Layer::MonitorFinalize]),
            "%",
        ),
        m(
            "profile.monitor_other_pct",
            share(&[Layer::MonitorOther]),
            "%",
        ),
        m("profile.runtime_self_pct", share(&[Layer::RuntimeRun]), "%"),
        m(
            "profile.runtime_rearm_pct",
            share(&[Layer::RuntimeRearm]),
            "%",
        ),
        m("profile.sim_build_pct", share(&[Layer::SimBuild]), "%"),
        m("profile.bench_pct", share(&[Layer::Bench]), "%"),
        m(
            "trace.ns_per_item",
            ratio(profile_ns as f64, profile.items as f64),
            "ns",
        ),
        m(
            "fleet.worker_busy_share",
            ratio(busy, pool.workers as f64 * pool.wall_ns as f64),
            "ratio",
        ),
        m(
            "fleet.factory_share",
            ratio(pool.factory_ns as f64, busy),
            "ratio",
        ),
        m(
            "fleet.merge_share",
            ratio(pool.merge_ns as f64, pool.wall_ns as f64),
            "ratio",
        ),
        m(
            "monitor.instructions_per_event",
            per_event(eng.instructions),
            "count",
        ),
        m(
            "monitor.machine_steps_per_event",
            per_event(eng.machine_steps),
            "count",
        ),
        m(
            "monitor.cache_hit_ratio",
            ratio(eng.hits as f64, (eng.hits + eng.misses) as f64),
            "ratio",
        ),
        m(
            "monitor.invalidations_per_kevent",
            1e3 * per_event(eng.invalidations),
            "count",
        ),
        m(
            "monitor.verdicts_per_event",
            ratio(rec.counter(Counter::Verdicts) as f64, profile.events as f64),
            "count",
        ),
        m("sim.fram_reads_per_item", per_item(dev.fram_reads), "count"),
        m(
            "sim.fram_writes_per_item",
            per_item(dev.fram_writes),
            "count",
        ),
        m(
            "sim.fram_read_bytes_per_item",
            per_item(dev.fram_read_bytes),
            "B",
        ),
        m(
            "sim.fram_write_bytes_per_item",
            per_item(dev.fram_write_bytes),
            "B",
        ),
        m("sim.app_us_per_item", per_item(dev.time_us[0]), "sim_us"),
        m(
            "sim.runtime_us_per_item",
            per_item(dev.time_us[1]),
            "sim_us",
        ),
        m(
            "sim.app_nj_per_item",
            per_item(dev.energy_by_pj[0]) / 1e3,
            "nJ",
        ),
        m(
            "sim.runtime_nj_per_item",
            per_item(dev.energy_by_pj[1]) / 1e3,
            "nJ",
        ),
        m(
            "sim.reboots_per_kevent",
            1e3 * per_event(dev.reboots),
            "count",
        ),
        m(
            "bench.gen_ns_per_item",
            ratio(gen_s * 1e9, rounds[0].items as f64),
            "ns",
        ),
        m(
            "trace_overhead_pct",
            // Traced rounds are not calibrated (the kernel would land
            // inside their spans), so both sides are compared as measured.
            100.0 * (ratio(raw(rounds), raw(traced)) - 1.0),
            "%",
        ),
    ]
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}
