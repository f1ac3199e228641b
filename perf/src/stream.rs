//! `monitor_stream`: one fresh Fig. 5 engine fed a long seeded event
//! stream through `call_monitor` on continuous power. No runtime, no
//! fleet, no reboots: the engine's step/commit/routing hot path with a
//! warm shadow cache.
//!
//! The stream replays one seeded walk of [`LAP`] events, each lap
//! shifted later in time, so the benchmark's own input stays within
//! 1 MiB: streaming a 16 MiB input array made the round's speed depend
//! on other tenants' memory traffic more than on the engine.

use artemis_bench::health;
use artemis_core::action::Action;
use artemis_core::app::{AppGraph, PathId, TaskId};
use artemis_core::event::MonitorEvent;
use artemis_core::time::SimInstant;
use artemis_monitor::{ExecMode, InstallOptions, MonitorEngine, MonitorVerdict};
use intermittent_sim::device::Device;
use intermittent_sim::harvester::Harvester;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{self, fnv, Compiled, Plane, Rec, Round};
use crate::runner::{Checks, Workload};
use crate::trace::{set_request, span, Layer, Probe, Timed};

/// Events per round.
pub const EVENTS: usize = 1 << 20;
/// Distinct events of the walk one round replays.
pub const LAP: usize = 1 << 16;
/// Events per timed segment.
const SEGMENT: usize = 1 << 18;
/// Leading events whose verdicts are checked against the interpreter.
pub const ORACLE_EVENTS: usize = 100_000;

/// One generated event, stored compactly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ev {
    t_us: u64,
    value: f32,
    task: u16,
    path: u8,
    end: bool,
}

impl Ev {
    /// The event the engine receives, `shift_us` later than generated.
    pub fn event(&self, shift_us: u64) -> MonitorEvent {
        let at = SimInstant::from_micros(self.t_us + shift_us);
        let task = TaskId(u32::from(self.task));
        let e = if !self.end {
            MonitorEvent::start(task, at)
        } else if self.value.is_nan() {
            MonitorEvent::end(task, at)
        } else {
            MonitorEvent::end_with_data(task, at, f64::from(self.value))
        };
        e.on_path(PathId(u32::from(self.path)))
    }

    fn words(&self) -> [u64; 3] {
        [
            self.t_us,
            u64::from(self.value.to_bits()),
            u64::from(self.task) << 16 | u64::from(self.path) << 8 | u64::from(self.end),
        ]
    }
}

/// A seeded walk over `app`'s paths: pick a path, then for each of its
/// tasks in order a StartTask, 0–3 re-attempt StartTasks, and an
/// EndTask (carrying a monitored value when the task declares one).
/// Gaps of 1 ms–10 min make time-guarded properties take both
/// branches.
pub fn walk(app: &AppGraph, seed: u64, n: usize) -> Vec<Ev> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    let mut t_us = 0u64;
    let mut gap = |rng: &mut StdRng| {
        t_us += rng.random_range(1_000..=600_000_000u64);
        t_us
    };
    while out.len() < n {
        let p = rng.random_range(0..app.paths().len());
        for &task in &app.paths()[p].tasks {
            let task16 = u16::try_from(task.0).expect("task ids fit u16");
            let path = u8::try_from(p).expect("path ids fit u8");
            for _ in 0..=rng.random_range(0..=3u32) {
                let t_us = gap(&mut rng);
                out.push(Ev {
                    t_us,
                    value: f32::NAN,
                    task: task16,
                    path,
                    end: false,
                });
            }
            let monitored = app.tasks()[task.index()].monitored_var.is_some();
            let value = if monitored {
                rng.random_range(30.0..=45.0f64) as f32
            } else {
                f32::NAN
            };
            let t_us = gap(&mut rng);
            out.push(Ev {
                t_us,
                value,
                task: task16,
                path,
                end: true,
            });
        }
    }
    out.truncate(n);
    out
}

/// Stable code of a verdict, for digests and the oracle comparison.
fn verdict_code(v: &MonitorVerdict) -> u64 {
    let (tag, path) = match v.action {
        Action::RestartTask => (0, 0),
        Action::SkipTask => (1, 0),
        Action::RestartPath(p) => (2, p.0),
        Action::SkipPath(p) => (3, p.0),
        Action::CompletePath(p) => (4, p.0),
    };
    (v.machine_index as u64) << 40 | tag << 32 | u64::from(path)
}

/// The monitor_stream workload.
pub struct Stream {
    app: AppGraph,
    lap: Vec<Ev>,
    events: usize,
    shared: Option<Compiled>,
}

impl Stream {
    /// Event `i` of the stream: lap `i / LAP`, shifted past every
    /// earlier lap, so timestamps keep increasing.
    fn event(&self, i: usize) -> MonitorEvent {
        let n = self.lap.len();
        let span_us = self.lap[n - 1].t_us;
        self.lap[i % n].event((i / n) as u64 * span_us)
    }

    fn fresh(&self, c: &Compiled, rec: Rec) -> Result<(Device, MonitorEngine), String> {
        let mut dev = span(rec, Layer::SimBuild, || {
            health::benchmark_device(Harvester::Continuous)
        });
        let engine = common::install_engine(&mut dev, c, &self.app, rec)?;
        engine.reset_monitor(&mut dev).map_err(|e| e.to_string())?;
        Ok((dev, engine))
    }

    fn deliver<P: Probe>(&self, engine: P, mut dev: Device, rec: Rec) -> Round {
        let mut failed = 0u64;
        let mut verdicts = 0u64;
        let mut hash = 0u64;
        let mut sw = common::stopwatch(rec, 1);
        span(rec, Layer::Bench, || {
            // A freshly booted device finalizes before its first event,
            // as the runtime does on every boot.
            if engine.monitor_finalize(&mut dev).is_err() {
                failed += 1;
            }
            for i in 0..self.events {
                let seq = i as u64 + 1;
                if i > 0 && i.is_multiple_of(SEGMENT) {
                    sw.lap();
                }
                set_request(rec, seq);
                match engine.call_monitor(&mut dev, seq, &self.event(i)) {
                    Ok(vs) => {
                        for v in &vs {
                            verdicts += 1;
                            hash = fnv([hash, seq, verdict_code(v)]);
                        }
                    }
                    Err(_) => failed += 1,
                }
            }
        });
        let (secs, ref_secs) = sw.finish();
        let mut plane = Plane {
            items: self.events as u64,
            events: self.events as u64,
            ..Plane::default()
        };
        plane.dev.add(&dev);
        plane.eng.add(engine.engine());
        Round {
            items: plane.items,
            secs,
            ref_secs,
            failed,
            digest: vec![hash, verdicts, fnv(plane.words())],
            plane: Some(plane),
            profile: rec.map(|_| plane),
            ..Round::default()
        }
    }

    /// Verdict codes per event over the first `n` events, for `mode`.
    fn verdicts(&self, mode: ExecMode, n: usize) -> Result<Vec<(u64, u64)>, String> {
        let c = self.shared.as_ref().expect("setup ran");
        let mut dev = health::benchmark_device(Harvester::Continuous);
        let engine = MonitorEngine::install_with(
            &mut dev,
            c.suite.clone(),
            &self.app,
            InstallOptions {
                mode,
                ..InstallOptions::default()
            },
        )
        .map_err(|e| e.to_string())?;
        engine.reset_monitor(&mut dev).map_err(|e| e.to_string())?;
        let mut out = Vec::new();
        for i in 0..n {
            let seq = i as u64 + 1;
            let vs = engine
                .call_monitor(&mut dev, seq, &self.event(i))
                .map_err(|e| e.to_string())?;
            out.extend(vs.iter().map(|v| (seq, verdict_code(v))));
        }
        Ok(out)
    }
}

impl Workload for Stream {
    const SIZE: usize = EVENTS;

    fn generate(seed: u64, size: usize) -> Self {
        let app = health::health_app();
        let lap = walk(&app, seed, size.min(LAP));
        Stream {
            app,
            lap,
            events: size,
            shared: None,
        }
    }

    fn input_digest(&self) -> u64 {
        fnv(self
            .lap
            .iter()
            .flat_map(Ev::words)
            .chain([self.events as u64]))
    }

    fn setup(&mut self) {
        self.shared = Some(crate::runner::reference_install());
    }

    fn round(&self, rec: Rec) -> Round {
        let shared = self.shared.as_ref().expect("setup ran");
        let Ok(c) = crate::runner::fig5_for_round(shared, &self.app, rec) else {
            return Round::not_started();
        };
        let Ok((dev, engine)) = self.fresh(&c, rec) else {
            return Round::not_started();
        };
        match rec {
            None => self.deliver(engine, dev, rec),
            Some(r) => self.deliver(Timed::new(engine, r), dev, rec),
        }
    }

    fn check(&self, checks: &mut Checks) -> Option<Plane> {
        let n = ORACLE_EVENTS.min(self.events);
        let compiled = self.verdicts(ExecMode::Compiled, n);
        let oracle = self.verdicts(ExecMode::Interpreter, n);
        checks.expect(
            compiled.is_ok() && compiled == oracle,
            format!(
                "the compiled engine's verdicts on the first {n} events equal the interpreter's"
            ),
        );
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_follows_paths_in_task_order() {
        let app = health::health_app();
        let evs = walk(&app, 3, 2_000);
        assert_eq!(evs.len(), 2_000);
        assert!(evs.windows(2).all(|w| w[0].t_us < w[1].t_us));
        // Every EndTask is preceded by a StartTask of the same task.
        for w in evs.windows(2) {
            if w[1].end {
                assert!(!w[0].end && w[0].task == w[1].task);
            }
        }
        let calc = app.task_by_name("calcAvg").unwrap();
        assert!(evs
            .iter()
            .filter(|e| e.end && u32::from(e.task) == calc.0)
            .all(|e| !e.value.is_nan()));
    }
}
