//! `reboot_storm`: generated apps on small capacitors under stochastic
//! outages, each installed from spec text and then run many times
//! (`rearm` + `run_once`). About one reboot per seven events drives
//! recovery, journal replay, `monitor_finalize` and cold cache refills.

use artemis_bench::workload::{self, Workload as GenApp};
use artemis_core::time::SimDuration;
use artemis_core::trace::TraceEvent;
use artemis_monitor::MonitorEngine;
use artemis_runtime::ArtemisRuntime;
use intermittent_sim::capacitor::Capacitor;
use intermittent_sim::device::{Device, DeviceBuilder};
use intermittent_sim::energy::Energy;
use intermittent_sim::harvester::Harvester;
use intermittent_sim::simulator::RunLimit;

use crate::common::{self, fnv, fnv_str, Plane, Rec, Round};
use crate::runner::{Checks, Workload};
use crate::trace::{set_request, span, Layer, Probe, Timed};

/// Apps per round.
pub const APPS: usize = 400;
/// Runs per app.
pub const RUNS: usize = 100;
/// Apps per timed segment.
const SEGMENT: usize = 100;
/// Every this-many-th app is replayed with a full trace for the output check.
pub const CHECK_EVERY: usize = 50;
/// Usable capacitor budgets the apps cycle through, in µJ.
const CAPACITORS_UJ: [u64; 3] = [15, 25, 35];

/// One generated app and the device it runs on.
pub struct App {
    w: GenApp,
    cap_uj: u64,
    harvest_seed: u64,
}

impl App {
    fn device(&self, traced: bool) -> Device {
        let b = DeviceBuilder::msp430fr5994()
            .capacitor(Capacitor::with_budget(Energy::from_micro_joules(
                self.cap_uj,
            )))
            .harvester(Harvester::stochastic(
                SimDuration::from_millis(100),
                SimDuration::from_secs(10),
                self.harvest_seed,
            ));
        if traced {
            b.build()
        } else {
            b.trace_disabled().build()
        }
    }
}

fn limit() -> RunLimit {
    RunLimit::sim_time(SimDuration::from_hours(2))
}

/// Re-arms for the next run, riding out power failures in the commit.
fn rearm<M: artemis_monitor::Monitoring>(rt: &ArtemisRuntime<M>, dev: &mut Device) {
    while rt.rearm(dev).is_err() {
        dev.power_cycle();
    }
}

/// The reboot_storm workload.
pub struct Storm {
    apps: Vec<App>,
}

/// What one app did over its runs.
struct AppResult {
    events: u64,
    dnf: u64,
}

impl Storm {
    fn run_app<P: Probe>(
        &self,
        app: &App,
        index: usize,
        rec: Rec,
        wrap: impl FnOnce(MonitorEngine) -> P,
        plane: &mut Plane,
    ) -> Result<AppResult, String> {
        let mut dev = span(rec, Layer::SimBuild, || app.device(false));
        let c = common::compile(&app.w.spec, &app.w.app, rec)?;
        let engine = wrap(common::install_engine(&mut dev, &c, &app.w.app, rec)?);
        let mut rt = common::install_runtime(&mut dev, common::gen_runtime(&app.w), engine, rec)?;
        let mut dnf = 0;
        for run in 0..RUNS {
            set_request(rec, (index * RUNS + run) as u64);
            if run > 0 {
                span(rec, Layer::RuntimeRearm, || rearm(&rt, &mut dev));
            }
            let out = span(rec, Layer::RuntimeRun, || rt.run_once(&mut dev, limit()));
            dnf += u64::from(!out.is_completed());
        }
        let events = rt.events_delivered(&dev);
        plane.events += events;
        plane.dev.add(&dev);
        plane.eng.add(rt.engine().engine());
        Ok(AppResult { events, dnf })
    }

    fn run_all<P: Probe>(&self, rec: Rec, wrap: impl Fn(MonitorEngine) -> P) -> Round {
        let mut plane = Plane::default();
        let mut failed = 0;
        let mut per_app = Vec::with_capacity(self.apps.len());
        let mut sw = common::stopwatch(rec, 1);
        for (i, app) in self.apps.iter().enumerate() {
            if i > 0 && i.is_multiple_of(SEGMENT) {
                sw.lap();
            }
            set_request(rec, i as u64);
            match span(rec, Layer::Bench, || {
                self.run_app(app, i, rec, &wrap, &mut plane)
            }) {
                Ok(r) => {
                    failed += r.dnf;
                    per_app.push(r.events);
                }
                Err(_) => failed += 1,
            }
        }
        let (secs, ref_secs) = sw.finish();
        plane.items = plane.events;
        Round {
            items: plane.items,
            secs,
            ref_secs,
            failed,
            digest: vec![fnv(per_app), fnv(plane.words())],
            plane: Some(plane),
            profile: rec.map(|_| plane),
            ..Round::default()
        }
    }

    /// Replays one app with a full device trace: committed task
    /// executions per run, plus the app's events and reboots.
    fn commits_per_run(
        &self,
        app: &App,
        traced_power: bool,
    ) -> Result<(Vec<usize>, u64, u64), String> {
        let mut dev = if traced_power {
            app.device(true)
        } else {
            DeviceBuilder::msp430fr5994().build()
        };
        let c = common::compile(&app.w.spec, &app.w.app, None)?;
        let engine = common::install_engine(&mut dev, &c, &app.w.app, None)?;
        let mut rt = common::install_runtime(&mut dev, common::gen_runtime(&app.w), engine, None)?;
        let mut commits = Vec::with_capacity(RUNS);
        for run in 0..RUNS {
            if run > 0 {
                rearm(&rt, &mut dev);
            }
            let before = dev
                .trace()
                .count(|e| matches!(e, TraceEvent::TaskEnd { .. }));
            if !rt.run_once(&mut dev, limit()).is_completed() {
                return Err(format!("run {run} did not complete"));
            }
            let after = dev
                .trace()
                .count(|e| matches!(e, TraceEvent::TaskEnd { .. }));
            commits.push(after - before);
        }
        Ok((commits, rt.events_delivered(&dev), dev.reboots()))
    }
}

impl Workload for Storm {
    const SIZE: usize = APPS;

    fn generate(seed: u64, size: usize) -> Self {
        let apps = (0..size)
            .map(|i| {
                let s = rand::seed_stream(seed, i as u64);
                App {
                    w: workload::generate(s),
                    cap_uj: CAPACITORS_UJ[i % CAPACITORS_UJ.len()],
                    harvest_seed: s.rotate_left(17),
                }
            })
            .collect();
        Storm { apps }
    }

    fn input_digest(&self) -> u64 {
        fnv(self
            .apps
            .iter()
            .flat_map(|a| [fnv_str(&a.w.spec), a.cap_uj, a.harvest_seed]))
    }

    fn setup(&mut self) {
        crate::runner::reference_install();
    }

    fn round(&self, rec: Rec) -> Round {
        match rec {
            None => self.run_all(rec, |e| e),
            Some(r) => self.run_all(rec, |e| Timed::new(e, r)),
        }
    }

    fn check(&self, checks: &mut Checks) -> Option<Plane> {
        for (i, app) in self.apps.iter().enumerate().step_by(CHECK_EVERY) {
            let cont = self.commits_per_run(app, false);
            let storm = self.commits_per_run(app, true);
            let (Ok((cont, _, _)), Ok((storm, events, reboots))) = (cont, storm) else {
                checks.expect(
                    false,
                    format!("app {i} completes all {RUNS} runs on both supplies"),
                );
                continue;
            };
            let ceiling = cont.iter().copied().max().unwrap_or(0);
            checks.expect(
                storm.iter().all(|&n| n > 0 && n <= ceiling),
                format!(
                    "app {i}: every storm run commits between 1 and {ceiling} task executions \
                     (continuous-power maximum)"
                ),
            );
            checks.expect(
                reboots > 0 && events > 0,
                format!("app {i} reboots under the storm"),
            );
        }
        None
    }
}
