//! `wearable_fleet`: the paper's wearable app (Figs. 4–6) with the
//! Fig. 5 spec on many devices through `artemis_fleet::run_fleet`, with
//! `health::fleet_factory`'s 40/40/20 continuous/RF/stochastic harvest
//! mix. The benchmark draws each device's harvester from the seed and
//! hands the program only the harvester; the factory body is the same
//! program calls `fleet_factory` makes.

use std::cell::RefCell;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use artemis_bench::health;
use artemis_core::app::AppGraph;
use artemis_core::time::SimDuration;
use artemis_core::trace::TraceEvent;
use artemis_fleet::{DeviceSample, FleetConfig, FleetDevice, FleetStats};
use artemis_ir::OptLevel;
use artemis_monitor::MonitorEngine;
use intermittent_sim::harvester::Harvester;
use intermittent_sim::simulator::RunLimit;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::common::{self, fnv, Compiled, Plane, Rec, Round};
use crate::runner::{Checks, Workload};
use crate::trace::{set_request, span, Layer, Probe, Recorder, Timed};

/// Devices per round.
pub const DEVICES: usize = 10_000;
/// Devices per pool, and per timed segment.
const SEGMENT: usize = 2_500;
/// The traced mirror takes every this-many-th device index.
pub const MIRROR_EVERY: usize = 8;
/// Leading devices the worker-count and factory-equivalence checks run.
pub const CHECK_DEVICES: usize = 2_000;

/// `health::fleet_factory`'s per-device draw: the harvester of device
/// `index` in a fleet seeded with `master`.
pub fn harvester(master: u64, index: u64) -> Harvester {
    let mut rng = StdRng::seed_from_u64(rand::seed_stream(master, index));
    match rng.random_range(0..10u32) {
        0..=3 => Harvester::Continuous,
        4..=7 => Harvester::FixedDelay(health::nominal_minutes(rng.random_range(1..=3u64))),
        _ => Harvester::stochastic(
            SimDuration::from_secs(1),
            SimDuration::from_mins(4),
            rng.next_u64(),
        ),
    }
}

fn limit() -> RunLimit {
    RunLimit::sim_time(SimDuration::from_hours(2))
}

/// Builds a device the way `fleet_factory` does, over the shared
/// compiled suite, wrapping its engine with `wrap`.
fn build<P: Probe>(
    c: &Compiled,
    app: &AppGraph,
    h: Harvester,
    rec: Rec,
    wrap: impl FnOnce(MonitorEngine) -> P,
) -> Result<(intermittent_sim::Device, artemis_runtime::ArtemisRuntime<P>), String> {
    let mut dev = span(rec, Layer::SimBuild, || {
        health::benchmark_device_bounded(h, 256)
    });
    let engine = wrap(common::install_engine(&mut dev, c, app, rec)?);
    let rt = common::install_runtime(&mut dev, health::artemis_builder(app.clone()), engine, rec)?;
    Ok((dev, rt))
}

/// Pool timings of a traced round, from the factory calls each worker
/// made (a device runs between two factory calls on its worker).
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolTimes {
    /// Worker threads.
    pub workers: usize,
    /// Wall time of `run_shards`.
    pub wall_ns: u64,
    /// Summed factory time over workers.
    pub factory_ns: u64,
    /// Summed device-run time over workers.
    pub device_ns: u64,
    /// Time merging the shards.
    pub merge_ns: u64,
}

/// The wearable_fleet workload.
pub struct Fleet {
    master: u64,
    harvesters: Vec<Harvester>,
    app: AppGraph,
    shared: Option<Compiled>,
    workers: usize,
}

impl Fleet {
    /// The device factory for the pool over devices `offset..`: pool
    /// index `i` is device `offset + i`.
    fn factory<'a>(
        &'a self,
        c: &'a Compiled,
        offset: usize,
    ) -> impl Fn(u64, u64) -> FleetDevice + Sync + 'a {
        move |index, _stream_seed| {
            let h = self.harvesters[offset + index as usize].clone();
            let (dev, rt) = build(c, &self.app, h, None, |e| e).expect("the Fig. 5 suite installs");
            FleetDevice {
                dev,
                rt,
                limit: limit(),
            }
        }
    }

    fn config(&self, devices: usize, workers: usize) -> FleetConfig {
        FleetConfig::new(devices as u64, workers, self.master)
    }

    /// Replays device `index` on this thread with its engine wrapped by
    /// `wrap`, returning the sample `FleetDevice::run` would report.
    fn mirror<P: Probe>(
        &self,
        c: &Compiled,
        index: usize,
        rec: Rec,
        wrap: impl FnOnce(MonitorEngine) -> P,
        plane: &mut Plane,
    ) -> Result<DeviceSample, String> {
        let h = self.harvesters[index].clone();
        let (mut dev, mut rt) = build(c, &self.app, h, rec, wrap)?;
        let started = dev.now();
        let outcome = span(rec, Layer::RuntimeRun, || rt.run_once(&mut dev, limit()));
        let mut violations = vec![0u64; rt.engine().machine_count()];
        for r in dev.trace().records() {
            if let TraceEvent::Violation { monitor, .. } = &r.event {
                if let Some(n) = violations.get_mut(*monitor as usize) {
                    *n += 1;
                }
            }
        }
        let events = rt.events_delivered(&dev);
        plane.events += events;
        plane.dev.add(&dev);
        plane.eng.add(rt.engine().engine());
        Ok(DeviceSample {
            completed: outcome.is_completed(),
            events,
            reboots: dev.reboots(),
            consumed_micro_joules: dev.stats().consumed.as_nano_joules() / 1_000,
            sim_micros: dev.now().duration_since(started).as_micros(),
            violations,
        })
    }

    /// Device-plane totals over every device of the round, replayed on
    /// as many threads as the pool uses; also the number of devices
    /// that failed to install.
    fn plane(&self, c: &Compiled) -> (Plane, u64) {
        let parts: Vec<(Plane, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.workers)
                .map(|t| {
                    s.spawn(move || {
                        let mut plane = Plane::default();
                        let mut errors = 0;
                        for index in (t..self.harvesters.len()).step_by(self.workers) {
                            let got = self.mirror(c, index, None, |e| e, &mut plane);
                            errors += u64::from(got.is_err());
                        }
                        (plane, errors)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a replay thread panicked"))
                .collect()
        });
        parts
            .into_iter()
            .fold((Plane::default(), 0), |(mut plane, errors), (p, e)| {
                plane.merge(&p);
                plane.items = plane.events;
                (plane, errors + e)
            })
    }

    /// The traced mirror: every [`MIRROR_EVERY`]th device on this
    /// thread with a timed engine, each checked against the factory's
    /// own `FleetDevice::run`. Returns the mirrored devices' totals and
    /// the number of mismatches.
    fn mirror_traced(&self, c: &Compiled, r: &RefCell<Recorder>) -> (Plane, u64) {
        let rec = Some(r);
        let mut plane = Plane::default();
        let mut mismatches = 0;
        for index in (0..self.harvesters.len()).step_by(MIRROR_EVERY) {
            set_request(rec, index as u64);
            let got = span(rec, Layer::Bench, || {
                self.mirror(c, index, rec, |e| Timed::new(e, r), &mut plane)
            });
            let want = span(rec, Layer::Check, || {
                let seed = rand::seed_stream(self.master, index as u64);
                self.factory(c, 0)(index as u64, seed).run()
            });
            mismatches += u64::from(got.as_ref() != Ok(&want));
        }
        plane.items = plane.events;
        (plane, mismatches)
    }

    /// One round: the devices in segments of [`SEGMENT`], one pool per
    /// segment, their stats merged. Traced, every factory call is timed
    /// and the pools are folded into [`PoolTimes`].
    fn run_round(&self, c: &Compiled, rec: Rec) -> (FleetStats, f64, f64, PoolTimes) {
        let n = self.harvesters.len();
        let mut total = FleetStats::default();
        let mut pool = PoolTimes {
            workers: self.workers,
            ..PoolTimes::default()
        };
        let mut sw = common::stopwatch(rec, self.workers);
        for offset in (0..n).step_by(SEGMENT) {
            if offset > 0 {
                sw.lap();
            }
            let cfg = self.config(SEGMENT.min(n - offset), self.workers);
            let factory = self.factory(c, offset);
            match rec {
                None => total.merge(&artemis_fleet::run_fleet(&cfg, factory)),
                Some(r) => timed_pool(r, &cfg, factory, offset, &mut total, &mut pool),
            }
        }
        let (secs, ref_secs) = sw.finish();
        (total, secs, ref_secs, pool)
    }
}

/// Runs one pool with a timing factory around `factory`, merges its
/// shards into `total`, and adds its timings to `pool`; each factory
/// call and device run becomes a span on one trace thread per worker.
fn timed_pool(
    r: &RefCell<Recorder>,
    cfg: &FleetConfig,
    factory: impl Fn(u64, u64) -> FleetDevice + Sync,
    offset: usize,
    total: &mut FleetStats,
    pool: &mut PoolTimes,
) {
    let rec = Some(r);
    let calls = Mutex::new(Vec::new());
    let timing = |index: u64, seed: u64| {
        let a = Instant::now();
        let d = factory(index, seed);
        let b = Instant::now();
        calls.lock().expect("a factory call panicked").push((
            std::thread::current().id(),
            index,
            a,
            b,
        ));
        d
    };
    let start = Instant::now();
    let shards = span(rec, Layer::FleetPool, || {
        artemis_fleet::run_shards(cfg, &timing)
    });
    let end = Instant::now();
    span(rec, Layer::FleetMerge, || {
        for s in &shards {
            total.merge(s);
        }
    });
    pool.wall_ns += (end - start).as_nanos() as u64;
    pool.merge_ns += end.elapsed().as_nanos() as u64;

    let mut calls = calls.into_inner().expect("a factory call panicked");
    let mut threads: Vec<ThreadId> = Vec::new();
    for c in &calls {
        if !threads.contains(&c.0) {
            threads.push(c.0);
        }
    }
    let worker = |t: &ThreadId| threads.iter().position(|x| x == t).unwrap_or(0);
    calls.sort_by_key(|c| (worker(&c.0), c.2));
    let mut rec = r.borrow_mut();
    for (k, c) in calls.iter().enumerate() {
        // A device runs between its factory call and the worker's next.
        let next = calls.get(k + 1).filter(|n| n.0 == c.0).map_or(end, |n| n.2);
        let (a, b, n) = (rec.ns_at(c.2), rec.ns_at(c.3), rec.ns_at(next));
        let (index, tid) = (offset as u64 + c.1, 2 + worker(&c.0) as u32);
        rec.record(Layer::FleetFactory, a, b, index, tid);
        rec.record(Layer::FleetDevice, b, n, index, tid);
        pool.factory_ns += b - a;
        pool.device_ns += n - b;
    }
}

fn stats_words(s: &FleetStats) -> Vec<u64> {
    let mut w = vec![
        s.devices,
        s.completed,
        s.dnf,
        s.events,
        s.reboots,
        s.violations_total,
        s.sim_micros,
    ];
    w.extend(&s.violations);
    w.extend(s.reboot_hist);
    w.extend(s.energy_hist);
    w
}

impl Workload for Fleet {
    const SIZE: usize = DEVICES;

    fn generate(seed: u64, size: usize) -> Self {
        Fleet {
            master: seed,
            harvesters: (0..size as u64).map(|i| harvester(seed, i)).collect(),
            app: health::health_app(),
            shared: None,
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    fn input_digest(&self) -> u64 {
        fnv(self
            .harvesters
            .iter()
            .map(|h| crate::common::fnv_str(&format!("{h:?}"))))
    }

    fn setup(&mut self) {
        self.shared = Some(crate::runner::reference_install());
    }

    fn round(&self, rec: Rec) -> Round {
        let shared = self.shared.as_ref().expect("setup ran");
        let Ok(c) = crate::runner::fig5_for_round(shared, &self.app, rec) else {
            return Round::not_started();
        };
        let (stats, secs, ref_secs, pool) = self.run_round(&c, rec);
        let mut round = Round {
            items: stats.events,
            secs,
            ref_secs,
            failed: stats.dnf,
            digest: stats_words(&stats),
            ..Round::default()
        };
        if let Some(r) = rec {
            let (profile, mismatches) = self.mirror_traced(&c, r);
            round.failed += mismatches;
            round.profile = Some(profile);
            round.pool = Some(pool);
        }
        round
    }

    fn check(&self, checks: &mut Checks) -> Option<Plane> {
        let c = self.shared.as_ref().expect("setup ran");
        let n = CHECK_DEVICES.min(self.harvesters.len());
        let one = artemis_fleet::run_fleet(&self.config(n, 1), self.factory(c, 0));
        let many = artemis_fleet::run_fleet(&self.config(n, self.workers), self.factory(c, 0));
        checks.expect(
            one == many,
            format!(
                "1-worker and {}-worker FleetStats agree on the first {n} devices",
                self.workers
            ),
        );
        let program = artemis_fleet::run_fleet(
            &self.config(n, self.workers),
            health::fleet_factory_opt(OptLevel::Full),
        );
        checks.expect(
            program == many,
            format!(
                "the benchmark's factory reproduces health::fleet_factory on the first {n} devices"
            ),
        );
        let (plane, errors) = self.plane(c);
        checks.expect(errors == 0, "every replayed device installs");
        Some(plane)
    }
}
