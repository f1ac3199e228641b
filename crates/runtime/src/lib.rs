//! The ARTEMIS task-based intermittent runtime.
//!
//! Implements the paper's Figures 8 and 9: a main loop that selects
//! tasks along paths, delivers `StartTask`/`EndTask` events to the
//! application-specific monitors, executes task bodies with
//! all-or-nothing commit semantics, and obeys the corrective actions
//! the monitors recommend (`skipTask`, `restartTask`, `skipPath`,
//! `restartPath` with monitor re-initialisation, `completePath` with
//! monitoring suspension).
//!
//! # Crash consistency
//!
//! All progress state — current path/task, task status, attempt
//! counters, the pending `EndTask` event — lives in FRAM and moves only
//! through journal transactions, so the loop can be re-entered after
//! any power failure (the simulator's reboot loop calls
//! [`ArtemisRuntime::on_boot`] again, exactly like hardware re-entering
//! `main`). Two details follow the paper §4.1.3 precisely:
//!
//! - `StartTask` timestamps are re-stamped on every re-attempt (each
//!   delivery is a fresh monitor event — that is how `maxTries` counts
//!   attempts), while the monitors' FSMs retain the first attempt's
//!   timestamp where required (`maxDuration`);
//! - the `EndTask` timestamp and its event sequence number are fixed
//!   inside the task-commit transaction and never re-stamped, so a
//!   power failure between commit and monitor delivery can neither
//!   alter the finish time nor double-count the completion.
//!
//! # Task-boundary bursts
//!
//! When the monitoring deployment has a group-commit path
//! ([`Monitoring::batch_capacity`] ≥ 2), the loop folds each task
//! boundary's `EndTask` + next `StartTask` pair into one
//! [`Monitoring::deliver_batch`] call — one arming transaction and one
//! commit per machine for the pair. The fold is gated on
//! [`Monitoring::end_event_is_silent`]: the end event must provably
//! produce no verdicts, because its corrective action (there is none)
//! can no longer run before the start event is delivered. A persistent
//! `start_delivered` marker, committed atomically with the advance,
//! records that the next task's start already went out; the following
//! loop iteration redelivers the same batch (idempotent by its first
//! sequence number) to pick up the start verdicts, and the marker
//! clears when the task actually runs. Two documented deviations from
//! unbatched delivery: the start timestamp and energy level are
//! sampled at batch arming (just before the advance rather than just
//! after), and a crash inside the short advance→run window redelivers
//! the recorded start instead of stamping a fresh attempt.

pub mod channel;

use std::collections::HashMap;

use artemis_core::action::Action;
use artemis_core::app::{AppGraph, PathId, TaskId};
use artemis_core::event::MonitorEvent;
use artemis_core::time::SimInstant;
use artemis_core::trace::TraceEvent;
use artemis_monitor::{InstallError, MonitorEngine, MonitorVerdict, Monitoring};
use intermittent_sim::device::{CostCategory, Device, Interrupt, MemOwner};
use intermittent_sim::fram::NvCell;
use intermittent_sim::journal::{Journal, TxWriter};
use intermittent_sim::peripherals::Peripheral;
use intermittent_sim::simulator::{IntermittentSystem, RunLimit, SimOutcome, Simulator};

pub use channel::{Channel, CHANNEL_CAPACITY};

/// Maximum number of paths a runtime instance supports.
pub const MAX_PATHS: usize = 16;

/// Modelled cost of the runtime's `checkTask` dispatch, in cycles.
const CHECK_TASK_CYCLES: u64 = 90;
/// Modelled cost of `taskFinish` bookkeeping, in cycles.
const TASK_FINISH_CYCLES: u64 = 70;
/// Modelled cost of advancing the task/path cursor, in cycles.
const ADVANCE_CYCLES: u64 = 40;

/// Task status values stored in FRAM.
const STATUS_READY: u8 = 0;
const STATUS_FINISHED: u8 = 1;

/// Per-path result codes stored in FRAM.
const PATH_PENDING: u8 = 0;
const PATH_COMPLETED: u8 = 1;
const PATH_SKIPPED: u8 = 2;

/// A task body: application code run inside the task sandbox.
///
/// Bodies are `Send` so that a fully installed runtime (and the device
/// it drives) is one self-contained `Send` value — the property the
/// fleet simulator relies on to shard complete devices across OS
/// threads. Bodies capture per-device state only; anything shared
/// would reintroduce cross-device coupling.
pub type TaskBody = Box<dyn FnMut(&mut TaskCtx<'_>) -> Result<(), Interrupt> + Send>;

/// The sandbox a task body executes in.
///
/// All effects go through this context: device operations are billed to
/// the application, and channel writes are staged into the task's
/// write-set, reaching FRAM only at the atomic task commit.
pub struct TaskCtx<'a> {
    dev: &'a mut Device,
    tx: &'a mut TxWriter,
    channels: &'a HashMap<String, Channel>,
    monitored: &'a mut Option<f64>,
}

impl TaskCtx<'_> {
    /// Executes `cycles` CPU cycles of application work.
    pub fn compute(&mut self, cycles: u64) -> Result<(), Interrupt> {
        self.dev.compute(cycles)
    }

    /// Idles in low-power mode.
    pub fn idle(&mut self, dt: artemis_core::time::SimDuration) -> Result<(), Interrupt> {
        self.dev.idle(dt)
    }

    /// Samples a sensor.
    pub fn sample(&mut self, p: Peripheral) -> Result<f64, Interrupt> {
        self.dev.sample(p)
    }

    /// Transmits `payload_bytes` over the radio.
    pub fn transmit(&mut self, payload_bytes: usize) -> Result<(), Interrupt> {
        self.dev.transmit(payload_bytes)
    }

    /// Current persistent-clock time.
    pub fn now(&self) -> SimInstant {
        self.dev.now()
    }

    /// Looks a channel up by the name it was declared under.
    ///
    /// # Panics
    ///
    /// Panics if the channel was never declared — a programming error
    /// caught on the first execution of the task.
    pub fn channel(&self, name: &str) -> Channel {
        *self
            .channels
            .get(name)
            .unwrap_or_else(|| panic!("channel `{name}` was not declared on the runtime builder"))
    }

    /// Appends a sample to a channel (staged until task commit).
    pub fn push(&mut self, name: &str, value: f64) -> Result<(), Interrupt> {
        let ch = self.channel(name);
        ch.push(self.dev, self.tx, value)
    }

    /// Reads all samples of a channel (sees this task's staged pushes).
    pub fn read_all(&mut self, name: &str) -> Result<Vec<f64>, Interrupt> {
        let ch = self.channel(name);
        ch.read_all(self.dev, self.tx)
    }

    /// Number of samples in a channel.
    pub fn channel_len(&mut self, name: &str) -> Result<usize, Interrupt> {
        let ch = self.channel(name);
        ch.len(self.dev, self.tx)
    }

    /// Stages consumption of all samples in a channel.
    pub fn consume(&mut self, name: &str) -> Result<(), Interrupt> {
        let ch = self.channel(name);
        ch.clear(self.tx);
        Ok(())
    }

    /// Sets the task's monitored output value (the `dpData` variable
    /// declared on the task; carried on the `EndTask` event).
    pub fn set_monitored(&mut self, value: f64) {
        *self.monitored = Some(value);
    }
}

/// The outcome of one application run.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct RunOutcome {
    /// Paths that ran to completion.
    pub completed: Vec<PathId>,
    /// Paths abandoned by `skipPath` (or unvisited after an emergency
    /// completion).
    pub skipped: Vec<PathId>,
    /// `true` if a `completePath` action ended the run early.
    pub emergency: bool,
}

impl RunOutcome {
    /// `true` if every path completed normally.
    pub fn all_completed(&self) -> bool {
        self.skipped.is_empty() && !self.emergency
    }
}

/// Builder for [`ArtemisRuntime`].
pub struct ArtemisRuntimeBuilder {
    app: AppGraph,
    bodies: Vec<Option<TaskBody>>,
    channels: Vec<String>,
}

impl ArtemisRuntimeBuilder {
    /// Starts a builder for `app`.
    pub fn new(app: AppGraph) -> Self {
        let n = app.task_count();
        ArtemisRuntimeBuilder {
            app,
            bodies: (0..n).map(|_| None).collect(),
            channels: Vec::new(),
        }
    }

    /// Registers the body of a task.
    ///
    /// # Panics
    ///
    /// Panics if the task name is unknown — a programming error.
    pub fn body(
        &mut self,
        task: &str,
        body: impl FnMut(&mut TaskCtx<'_>) -> Result<(), Interrupt> + Send + 'static,
    ) -> &mut Self {
        let id = self
            .app
            .task_by_name(task)
            .unwrap_or_else(|| panic!("unknown task `{task}`"));
        self.bodies[id.index()] = Some(Box::new(body));
        self
    }

    /// Declares a nonvolatile channel.
    pub fn channel(&mut self, name: &str) -> &mut Self {
        self.channels.push(name.to_string());
        self
    }

    /// Installs the runtime on a device with the given monitor suite,
    /// deploying the monitors on the standard local (power-failure-
    /// resilient) engine.
    ///
    /// Allocates all persistent runtime state, installs the monitor
    /// engine, and performs the initial hard reset (Figure 8,
    /// `resetMonitor`).
    pub fn install(
        self,
        dev: &mut Device,
        suite: artemis_ir::MonitorSuite,
    ) -> Result<ArtemisRuntime, InstallError> {
        let engine = MonitorEngine::install(dev, suite, &self.app)?;
        self.install_with(dev, engine)
    }

    /// [`ArtemisRuntimeBuilder::install`] with explicit monitor-engine
    /// [`artemis_monitor::InstallOptions`] — e.g. a device energy
    /// profile, which makes the install reject (before any FRAM is
    /// allocated) if a task's statically bounded attempt energy cannot
    /// fit the capacitor.
    pub fn install_opts(
        self,
        dev: &mut Device,
        suite: artemis_ir::MonitorSuite,
        opts: artemis_monitor::InstallOptions,
    ) -> Result<ArtemisRuntime, InstallError> {
        let engine = MonitorEngine::install_with(dev, suite, &self.app, opts)?;
        self.install_with(dev, engine)
    }

    /// Installs the runtime with an arbitrary monitoring deployment —
    /// the modularity the paper's architecture promises (P2): the same
    /// runtime runs against the local engine, the external wireless
    /// monitor of §7, or no monitoring at all.
    pub fn install_with<M: Monitoring>(
        self,
        dev: &mut Device,
        engine: M,
    ) -> Result<ArtemisRuntime<M>, InstallError> {
        assert!(
            self.app.paths().len() <= MAX_PATHS,
            "at most {MAX_PATHS} paths are supported"
        );
        for (i, b) in self.bodies.iter().enumerate() {
            assert!(
                b.is_some(),
                "task `{}` has no body",
                self.app.task_name(TaskId(i as u32))
            );
        }

        let dev_err = InstallError::Device;
        dev.set_category(CostCategory::Runtime);
        let owner = MemOwner::Runtime;
        let journal = dev.make_journal(1024, owner).map_err(dev_err)?;
        let cells = Cells {
            cur_path: dev.nv_alloc(0u32, owner, "rt.cur_path").map_err(dev_err)?,
            cur_idx: dev.nv_alloc(0u32, owner, "rt.cur_idx").map_err(dev_err)?,
            status: dev
                .nv_alloc(STATUS_READY, owner, "rt.status")
                .map_err(dev_err)?,
            attempt: dev.nv_alloc(0u32, owner, "rt.attempt").map_err(dev_err)?,
            seq: dev.nv_alloc(0u64, owner, "rt.seq").map_err(dev_err)?,
            end_seq: dev.nv_alloc(0u64, owner, "rt.end_seq").map_err(dev_err)?,
            end_time: dev
                .nv_alloc(SimInstant::EPOCH, owner, "rt.end_time")
                .map_err(dev_err)?,
            end_dep: dev
                .nv_alloc((0u8, 0u64), owner, "rt.end_dep")
                .map_err(dev_err)?,
            unmonitored: dev
                .nv_alloc(0u8, owner, "rt.unmonitored")
                .map_err(dev_err)?,
            emergency: dev.nv_alloc(0u8, owner, "rt.emergency").map_err(dev_err)?,
            path_results: dev
                .nv_alloc([PATH_PENDING; MAX_PATHS], owner, "rt.path_results")
                .map_err(dev_err)?,
            start_delivered: dev
                .nv_alloc(0u8, owner, "rt.start_delivered")
                .map_err(dev_err)?,
        };

        let mut channels = HashMap::new();
        dev.set_category(CostCategory::App);
        for name in &self.channels {
            channels.insert(
                name.clone(),
                Channel::new(dev, MemOwner::App, name).map_err(dev_err)?,
            );
        }
        dev.set_category(CostCategory::Runtime);

        // Volatile footprint of the main loop, for Table 2 reports.
        dev.sram_mut().register(owner, "main loop state", 2);

        engine.reset_monitor(dev).map_err(dev_err)?;
        // Violation trace records carry monitor indices; register the
        // suite's names so they resolve at render time.
        dev.trace_mut().set_monitor_names(engine.machine_names());

        Ok(ArtemisRuntime {
            app: self.app,
            bodies: self.bodies,
            engine,
            journal,
            cells,
            channels,
            current_task_cached: TaskId(0),
        })
    }
}

struct Cells {
    cur_path: NvCell<u32>,
    cur_idx: NvCell<u32>,
    status: NvCell<u8>,
    attempt: NvCell<u32>,
    /// Monotone event-sequence counter.
    seq: NvCell<u64>,
    /// Sequence number reserved for the pending `EndTask` event.
    end_seq: NvCell<u64>,
    /// Finish time fixed at task commit (§4.1.3).
    end_time: NvCell<SimInstant>,
    /// Monitored output `(present, f64 bits)` fixed at task commit.
    end_dep: NvCell<(u8, u64)>,
    /// 1 while a `completePath` suspension is active.
    unmonitored: NvCell<u8>,
    /// 1 once a `completePath` ended the run early.
    emergency: NvCell<u8>,
    /// Per-path outcome codes.
    path_results: NvCell<[u8; MAX_PATHS]>,
    /// 1 while the current task's `StartTask` event already went out
    /// as part of a task-boundary burst (see the module docs).
    start_delivered: NvCell<u8>,
}

/// The installed runtime; drive it with
/// [`Simulator::run`](intermittent_sim::simulator::Simulator).
///
/// Generic over the monitoring deployment `M` (local persistent
/// engine by default; see [`ArtemisRuntimeBuilder::install_with`]).
pub struct ArtemisRuntime<M: Monitoring = MonitorEngine> {
    app: AppGraph,
    bodies: Vec<Option<TaskBody>>,
    engine: M,
    journal: Journal,
    cells: Cells,
    channels: HashMap<String, Channel>,
    /// Volatile: the task the loop is currently looking at, for trace
    /// attribution only (re-derived on every iteration).
    current_task_cached: TaskId,
}

impl<M: Monitoring> ArtemisRuntime<M> {
    /// The application graph.
    pub fn app(&self) -> &AppGraph {
        &self.app
    }

    /// The installed monitoring deployment.
    pub fn engine(&self) -> &M {
        &self.engine
    }

    /// Looks up a declared channel (for post-run inspection).
    pub fn channel(&self, name: &str) -> Option<Channel> {
        self.channels.get(name).copied()
    }

    /// Total monitor events delivered so far: the persistent event
    /// sequence counter, read without cost. Fleet aggregation uses this
    /// as the per-device throughput figure after a run.
    pub fn events_delivered(&self, dev: &Device) -> u64 {
        dev.peek(&self.cells.seq)
    }

    /// Runs the application once on `dev` under `limit`.
    pub fn run_once(&mut self, dev: &mut Device, limit: RunLimit) -> SimOutcome<RunOutcome> {
        Simulator::new(limit).run(dev, self)
    }

    /// Re-arms the runtime for another run: position, statuses and
    /// path results are reset; monitors and channels keep their state
    /// (periodicity and collect counters span runs).
    pub fn rearm(&self, dev: &mut Device) -> Result<(), Interrupt> {
        dev.billed(CostCategory::Runtime, |dev| {
            let mut tx = TxWriter::new();
            tx.write(&self.cells.cur_path, 0u32);
            tx.write(&self.cells.cur_idx, 0u32);
            tx.write(&self.cells.status, STATUS_READY);
            tx.write(&self.cells.attempt, 0u32);
            tx.write(&self.cells.unmonitored, 0u8);
            tx.write(&self.cells.emergency, 0u8);
            tx.write(&self.cells.path_results, [PATH_PENDING; MAX_PATHS]);
            tx.write(&self.cells.start_delivered, 0u8);
            dev.commit(&self.journal, &tx)
        })
    }

    fn fresh_seq(&self, dev: &mut Device) -> Result<u64, Interrupt> {
        let next = dev.nv_read(&self.cells.seq)? + 1;
        dev.nv_write(&self.cells.seq, next)?;
        Ok(next)
    }

    fn arbitrate(&self, dev: &mut Device, verdicts: &[MonitorVerdict]) -> Option<Action> {
        for v in verdicts {
            dev.trace_push(TraceEvent::Violation {
                task: self.current_task_cached,
                monitor: v.machine_index as u32,
                action: v.action,
            });
        }
        let actions: Vec<Action> = verdicts.iter().map(|v| v.action).collect();
        Action::arbitrate(&actions)
    }

    /// `true` when the deployment can group-commit a task boundary's
    /// end + start pair (see the module docs).
    fn bursts(&self) -> bool {
        self.engine.batch_capacity() >= 2
    }

    /// Executes the current task body (at `cur_idx` on its path) and
    /// commits its effects.
    fn run_task(&mut self, dev: &mut Device, task: TaskId, cur_idx: u32) -> Result<(), Interrupt> {
        // Only a task past its path's head can carry the burst marker: a
        // burst sets it for the next task of the same path.
        if self.bursts() && cur_idx > 0 {
            // The burst marker has served its purpose once the task
            // actually starts running; a crash before this write only
            // causes one more idempotent batch redelivery.
            dev.nv_write(&self.cells.start_delivered, 0u8)?;
        }
        let attempt = dev.nv_read(&self.cells.attempt)? + 1;
        dev.nv_write(&self.cells.attempt, attempt)?;
        dev.trace_push(TraceEvent::TaskStart { task, attempt });

        let mut tx = TxWriter::new();
        let mut monitored = None;
        {
            let body = self.bodies[task.index()]
                .as_mut()
                .expect("bodies checked at install");
            let mut ctx = TaskCtx {
                dev,
                tx: &mut tx,
                channels: &self.channels,
                monitored: &mut monitored,
            };
            // Application work is billed to the application.
            let prev = ctx.dev.category();
            ctx.dev.set_category(CostCategory::App);
            let result = body(&mut ctx);
            ctx.dev.set_category(prev);
            result?;
        }

        // taskFinish (Figure 9): fix the finish time, the EndTask
        // sequence number and the monitored value atomically with the
        // task's own effects and the status flip.
        dev.compute(TASK_FINISH_CYCLES)?;
        let end_seq = dev.nv_read(&self.cells.seq)? + 1;
        let now = dev.now();
        tx.write(&self.cells.seq, end_seq);
        tx.write(&self.cells.end_seq, end_seq);
        tx.write(&self.cells.end_time, now);
        tx.write(
            &self.cells.end_dep,
            match monitored {
                Some(v) => (1u8, v.to_bits()),
                None => (0u8, 0u64),
            },
        );
        tx.write(&self.cells.status, STATUS_FINISHED);
        tx.write(&self.cells.attempt, 0u32);
        dev.commit(&self.journal, &tx)?;
        dev.trace_push(TraceEvent::TaskEnd { task });
        Ok(())
    }

    /// Moves to the next task, handling path boundaries. Returns `true`
    /// when the whole run finished.
    fn advance(&self, dev: &mut Device, cur_path: u32, cur_idx: u32) -> Result<bool, Interrupt> {
        dev.compute(ADVANCE_CYCLES)?;
        let path_len = self.app.path(PathId(cur_path)).tasks.len() as u32;
        let mut tx = TxWriter::new();
        tx.write(&self.cells.status, STATUS_READY);
        tx.write(&self.cells.attempt, 0u32);
        tx.write(&self.cells.start_delivered, 0u8);

        if cur_idx + 1 < path_len {
            tx.write(&self.cells.cur_idx, cur_idx + 1);
            dev.commit(&self.journal, &tx)?;
            return Ok(false);
        }

        // Path completed.
        let mut results = dev.nv_read(&self.cells.path_results)?;
        results[cur_path as usize] = PATH_COMPLETED;
        dev.trace_push(TraceEvent::PathComplete {
            path: PathId(cur_path),
        });

        let unmonitored = dev.nv_read(&self.cells.unmonitored)? != 0;
        if unmonitored {
            // completePath semantics: the current path ran to completion
            // unmonitored; no further paths execute this run.
            for r in results
                .iter_mut()
                .take(self.app.paths().len())
                .skip(cur_path as usize + 1)
            {
                if *r == PATH_PENDING {
                    *r = PATH_SKIPPED;
                }
            }
            tx.write(&self.cells.unmonitored, 0u8);
            tx.write(&self.cells.emergency, 1u8);
            tx.write(&self.cells.cur_path, self.app.paths().len() as u32);
        } else {
            tx.write(&self.cells.cur_path, cur_path + 1);
        }
        tx.write(&self.cells.cur_idx, 0u32);
        tx.write(&self.cells.path_results, results);
        dev.commit(&self.journal, &tx)?;
        Ok(dev.nv_read(&self.cells.cur_path)? >= self.app.paths().len() as u32)
    }

    /// Applies a path-directed corrective action.
    fn apply_path_action(&self, dev: &mut Device, action: Action) -> Result<(), Interrupt> {
        dev.trace_push(TraceEvent::ActionTaken { action });
        match action {
            Action::RestartPath(p) => {
                self.engine.on_path_restart(dev, p)?;
                let mut tx = TxWriter::new();
                tx.write(&self.cells.cur_path, p.0);
                tx.write(&self.cells.cur_idx, 0u32);
                tx.write(&self.cells.status, STATUS_READY);
                tx.write(&self.cells.attempt, 0u32);
                tx.write(&self.cells.start_delivered, 0u8);
                dev.commit(&self.journal, &tx)?;
                dev.trace_push(TraceEvent::PathStart { path: p });
            }
            Action::SkipPath(p) => {
                let mut results = dev.nv_read(&self.cells.path_results)?;
                if (p.index()) < MAX_PATHS {
                    results[p.index()] = PATH_SKIPPED;
                }
                dev.trace_push(TraceEvent::PathSkipped { path: p });
                let mut tx = TxWriter::new();
                tx.write(&self.cells.path_results, results);
                tx.write(&self.cells.cur_path, p.0 + 1);
                tx.write(&self.cells.cur_idx, 0u32);
                tx.write(&self.cells.status, STATUS_READY);
                tx.write(&self.cells.attempt, 0u32);
                tx.write(&self.cells.start_delivered, 0u8);
                dev.commit(&self.journal, &tx)?;
            }
            Action::CompletePath(_) => {
                // Suspend monitoring; the caller decides how the
                // current task proceeds.
                dev.nv_write(&self.cells.unmonitored, 1u8)?;
            }
            Action::RestartTask | Action::SkipTask => {
                unreachable!("task-level actions are handled inline")
            }
        }
        Ok(())
    }

    fn outcome(&self, dev: &mut Device) -> Result<RunOutcome, Interrupt> {
        let results = dev.nv_read(&self.cells.path_results)?;
        let emergency = dev.nv_read(&self.cells.emergency)? != 0;
        let mut outcome = RunOutcome {
            emergency,
            ..RunOutcome::default()
        };
        for (i, &r) in results.iter().take(self.app.paths().len()).enumerate() {
            match r {
                PATH_COMPLETED => outcome.completed.push(PathId(i as u32)),
                PATH_SKIPPED => outcome.skipped.push(PathId(i as u32)),
                _ => {}
            }
        }
        Ok(outcome)
    }
}

impl<M: Monitoring> ArtemisRuntime<M> {
    /// The main loop (paper Figure 8). Re-enterable after power
    /// failures; resumes from the persistent cursor.
    pub fn on_boot_impl(&mut self, dev: &mut Device) -> Result<RunOutcome, Interrupt> {
        dev.set_category(CostCategory::Runtime);
        // Reboot and monitor progress (Figure 8 lines 14-16).
        self.engine.monitor_finalize(dev)?;
        dev.recover(&self.journal)?;

        loop {
            dev.compute(CHECK_TASK_CYCLES)?;
            let cur_path = dev.nv_read(&self.cells.cur_path)?;
            if cur_path >= self.app.paths().len() as u32 {
                dev.trace_push(TraceEvent::RunComplete);
                return self.outcome(dev);
            }
            let cur_idx = dev.nv_read(&self.cells.cur_idx)?;
            let task = self.app.path(PathId(cur_path)).tasks[cur_idx as usize];
            self.current_task_cached = task;
            let status = dev.nv_read(&self.cells.status)?;
            let monitored = dev.nv_read(&self.cells.unmonitored)? == 0;

            if status == STATUS_READY {
                let action = if monitored {
                    let redelivered = self.bursts()
                        && cur_idx > 0
                        && dev.nv_read(&self.cells.start_delivered)? != 0;
                    let verdicts = if redelivered {
                        // This task's StartTask already went out as the
                        // second half of a task-boundary burst.
                        // Redeliver the same batch — a no-op by its
                        // first sequence number — to pick up the start
                        // verdicts; the reconstructed event contents
                        // are ignored on the dedup hit.
                        let end_seq = dev.nv_read(&self.cells.end_seq)?;
                        let end_time = dev.nv_read(&self.cells.end_time)?;
                        let (has_dep, dep_bits) = dev.nv_read(&self.cells.end_dep)?;
                        let prev = self.app.path(PathId(cur_path)).tasks[cur_idx as usize - 1];
                        let end_event = if has_dep != 0 {
                            MonitorEvent::end_with_data(prev, end_time, f64::from_bits(dep_bits))
                        } else {
                            MonitorEvent::end(prev, end_time)
                        }
                        .on_path(PathId(cur_path));
                        let start_event =
                            MonitorEvent::start(task, dev.now()).on_path(PathId(cur_path));
                        let mut vs =
                            self.engine
                                .deliver_batch(dev, end_seq, &[end_event, start_event])?;
                        if vs.len() > 1 {
                            vs.swap_remove(1)
                        } else {
                            Vec::new()
                        }
                    } else {
                        let seq = self.fresh_seq(dev)?;
                        let event = MonitorEvent::start(task, dev.now()).on_path(PathId(cur_path));
                        self.engine.call_monitor(dev, seq, &event)?
                    };
                    self.arbitrate(dev, &verdicts)
                } else {
                    None
                };
                match action {
                    None | Some(Action::RestartTask) => self.run_task(dev, task, cur_idx)?,
                    Some(Action::SkipTask) => {
                        dev.trace_push(TraceEvent::ActionTaken {
                            action: Action::SkipTask,
                        });
                        if self.advance(dev, cur_path, cur_idx)? {
                            dev.trace_push(TraceEvent::RunComplete);
                            return self.outcome(dev);
                        }
                    }
                    Some(a @ Action::CompletePath(_)) => {
                        // Suspend monitoring and run the task.
                        dev.trace_push(TraceEvent::ActionTaken { action: a });
                        self.apply_path_action(dev, a)?;
                        self.run_task(dev, task, cur_idx)?;
                    }
                    Some(a) => self.apply_path_action(dev, a)?,
                }
            } else {
                // STATUS_FINISHED: deliver the EndTask event under its
                // reserved sequence number (exactly-once).
                let path_len = self.app.path(PathId(cur_path)).tasks.len() as u32;
                let can_burst = monitored
                    && self.bursts()
                    && cur_idx + 1 < path_len
                    && self.engine.end_event_is_silent(task);
                if can_burst {
                    // Fold this EndTask with the next task's StartTask
                    // into one group commit: one arming transaction and
                    // one FRAM commit per machine for the pair. Gated
                    // on the end event being provably verdict-free, so
                    // skipping its (empty) arbitration is sound.
                    let end_seq = dev.nv_read(&self.cells.end_seq)?;
                    let end_time = dev.nv_read(&self.cells.end_time)?;
                    let (has_dep, dep_bits) = dev.nv_read(&self.cells.end_dep)?;
                    let end_event = if has_dep != 0 {
                        MonitorEvent::end_with_data(task, end_time, f64::from_bits(dep_bits))
                    } else {
                        MonitorEvent::end(task, end_time)
                    }
                    .on_path(PathId(cur_path));
                    let next = self.app.path(PathId(cur_path)).tasks[cur_idx as usize + 1];
                    let start_seq = end_seq + 1;
                    let start_event =
                        MonitorEvent::start(next, dev.now()).on_path(PathId(cur_path));
                    let verdicts =
                        self.engine
                            .deliver_batch(dev, end_seq, &[end_event, start_event])?;
                    debug_assert!(verdicts.first().map(Vec::is_empty).unwrap_or(true));
                    // Advance atomically with the start-delivered
                    // marker and the consumed sequence number; the
                    // next iteration picks up the start verdicts.
                    dev.compute(ADVANCE_CYCLES)?;
                    let mut tx = TxWriter::new();
                    tx.write(&self.cells.status, STATUS_READY);
                    tx.write(&self.cells.attempt, 0u32);
                    tx.write(&self.cells.cur_idx, cur_idx + 1);
                    tx.write(&self.cells.seq, start_seq);
                    tx.write(&self.cells.start_delivered, 1u8);
                    dev.commit(&self.journal, &tx)?;
                    continue;
                }
                let action = if monitored {
                    let end_seq = dev.nv_read(&self.cells.end_seq)?;
                    let end_time = dev.nv_read(&self.cells.end_time)?;
                    let (has_dep, dep_bits) = dev.nv_read(&self.cells.end_dep)?;
                    let event = if has_dep != 0 {
                        MonitorEvent::end_with_data(task, end_time, f64::from_bits(dep_bits))
                    } else {
                        MonitorEvent::end(task, end_time)
                    }
                    .on_path(PathId(cur_path));
                    let verdicts = self.engine.call_monitor(dev, end_seq, &event)?;
                    self.arbitrate(dev, &verdicts)
                } else {
                    None
                };
                match action {
                    None | Some(Action::SkipTask) => {
                        if self.advance(dev, cur_path, cur_idx)? {
                            dev.trace_push(TraceEvent::RunComplete);
                            return self.outcome(dev);
                        }
                    }
                    Some(Action::RestartTask) => {
                        dev.trace_push(TraceEvent::ActionTaken {
                            action: Action::RestartTask,
                        });
                        let mut tx = TxWriter::new();
                        tx.write(&self.cells.status, STATUS_READY);
                        dev.commit(&self.journal, &tx)?;
                    }
                    Some(a @ Action::CompletePath(_)) => {
                        dev.trace_push(TraceEvent::ActionTaken { action: a });
                        self.apply_path_action(dev, a)?;
                        if self.advance(dev, cur_path, cur_idx)? {
                            dev.trace_push(TraceEvent::RunComplete);
                            return self.outcome(dev);
                        }
                    }
                    Some(a) => self.apply_path_action(dev, a)?,
                }
            }
        }
    }
}

impl<M: Monitoring> IntermittentSystem for ArtemisRuntime<M> {
    type Output = RunOutcome;

    fn on_boot(&mut self, dev: &mut Device) -> Result<RunOutcome, Interrupt> {
        self.on_boot_impl(dev)
    }
}

#[cfg(test)]
mod tests;
