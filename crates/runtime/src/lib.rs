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
//! The task substrate is shared with the Mayfly baseline, which keeps
//! only its scheduler: the sandbox task bodies run in ([`TaskCtx`],
//! [`Tasks::run_body`]), the install step
//! ([`ArtemisRuntimeBuilder::install_tasks`]) and the journalled header
//! with its recover-then-load path ([`PersistentHeader`]).
//!
//! # Crash consistency
//!
//! All progress state — current path/task, task status, attempt
//! counters, the pending `EndTask` event — lives in FRAM and moves only
//! through journal transactions (apart from three single-field plain
//! writes, below), so the loop can be re-entered after any power
//! failure (the simulator's reboot loop calls
//! [`ArtemisRuntime::on_boot`] again, exactly like hardware re-entering
//! `main`). Two details follow the paper §4.1.3 precisely:
//!
//! - `StartTask` timestamps are re-stamped on every re-attempt (each
//!   delivery is a fresh monitor event — that is how `maxTries` counts
//!   attempts), while the monitors' FSMs retain the first attempt's
//!   timestamp where required (`maxDuration`);
//! - the `EndTask` timestamp and its event sequence number are fixed
//!   at `taskFinish`, in the task's own write-set, and never
//!   re-stamped, so a power failure between the commit and the monitor
//!   delivery can neither alter the finish time nor double-count the
//!   completion.
//!
//! Every monitor event goes out as its own delivery
//! ([`Monitoring::call_monitor`]) when the loop reaches it, so a
//! `StartTask` is always judged after any outage that precedes the
//! attempt it opens.
//!
//! ## One record per task boundary
//!
//! A task's commit is not written at `taskFinish`: its write-set and
//! the finished header open the device's **open record**
//! ([`Device::open_record`](intermittent_sim::device::Device::open_record)),
//! the `EndTask` delivery's group 0 rides it
//! ([`Device::append_record`](intermittent_sim::device::Device::append_record)),
//! and the arbitration outcome — the advance, `restartTask`, or a path
//! action with `on_path_restart`'s reset — is appended after it and
//! lands it, so the task's effects, the delivery and the outcome commit
//! as **one** journal record (two, if the journal cannot hold the
//! outcome too: the record lands first). A `StartTask` delivery opens an empty record the same way:
//! a `restartPath`/`skipPath` verdict's reset and header commit ride
//! it, and any other outcome's `attempt` write lands it before the
//! body runs. The record lands whole or not at all: a power failure
//! before its flag write re-executes the task, exactly as one before
//! a task commit does, and the delivery is made afresh under the same
//! sequence number and finish time.
//!
//! Whether a delivery rides is decided by one rule ([`Ride::admit`])
//! over an **admission ceiling** the monitor engine derives at install
//! and hands to this runtime's install through the device
//! ([`Device::set_riders`](intermittent_sim::device::Device::set_riders));
//! a deployment that hands over none — no monitoring, the remote
//! engine — lets nothing ride.
//!
//! - A delivery whose worklist is more than one commit group never
//!   rides.
//! - A static proof lets the others ride always: a `StartTask`
//!   delivery's record opens empty, so a power failure inside it loses
//!   only the delivery, and a task whose declared cost proves its whole
//!   attempt fits the capacitor survives its `EndTask` ride.
//! - Any other `EndTask` delivery rides only if, when the record would
//!   open, the capacitor holds its ceiling — the delivery's and the
//!   worst outcome's post-reboot cost, with the runtime's cycles in
//!   between — plus the price of landing the record as staged. The
//!   simulator draws exactly what it bills, so no power failure lands
//!   inside such a ride, and no task is re-executed because its
//!   delivery rode ([`ArtemisRuntime::ride_stats`] counts the
//!   decisions).
//!
//! A delivery that does not ride finds the task's record already
//! committed — it lands at `taskFinish`, as the outcome's own record
//! does after the delivery. Any FRAM write, journal commit or radio op
//! made while the record is open lands it first, so no deployment acts
//! on a task that has not committed.
//!
//! # The runtime header
//!
//! That state is one packed 56-byte FRAM region, `rt.header`:
//!
//! ```text
//! [cur_path u32][cur_idx u32][status u8][attempt u32][seq u64]
//! [end_time u64][end_dep (u8, u64)][unmonitored u8][emergency u8]
//! [path_results u8 × 16]
//! ```
//!
//! behind a write-through SRAM mirror ([`PersistentHeader`]): the
//! first use in a power cycle replays the runtime's journal and then
//! reads the whole header in **one** op, validating it once — a cursor
//! past its path or app, or a status, flag or path code no commit
//! writes, faults with [`Fault::CorruptState`](intermittent_sim::device::Fault)
//! instead of indexing out of bounds. From then on the loop reads the
//! mirror, so a steady-state iteration makes no FRAM reads. Every
//! journal commit (task commit, advance, rearm, `restartTask`, path
//! actions) stages only the header bytes that changed, as runs merged
//! across gaps of up to one sub-write header — a task record the
//! finished header's, then the outcome's; the `seq`,
//! `attempt` and `unmonitored` updates that need no atomicity stay one
//! plain write each, of only the field's changed bytes
//! (`PersistentHeader::write`).
//!
//! The pending `EndTask`'s sequence number is not stored apart: the
//! task's write-set advances `seq` to it, and nothing moves `seq` again
//! until the outcome past the finished task has committed, so while
//! `status` is finished it *is* `seq`. A task record whose delivery
//! rode it never leaves `status` finished in FRAM.

pub mod channel;
pub mod header;

use std::collections::HashMap;
use std::ops::Range;

use artemis_core::action::Action;
use artemis_core::app::{AppGraph, PathId, TaskId};
use artemis_core::event::{EventKind, MonitorEvent};
use artemis_core::time::SimInstant;
use artemis_core::trace::TraceEvent;
use artemis_monitor::{InstallError, MonitorEngine, MonitorVerdict, Monitoring};
use intermittent_sim::device::{CostCategory, Device, Interrupt, MemOwner};
use intermittent_sim::energy::Energy;
use intermittent_sim::fram::NvData;
use intermittent_sim::journal::TxWriter;
use intermittent_sim::peripherals::Peripheral;
use intermittent_sim::simulator::{IntermittentSystem, RunLimit, SimOutcome, Simulator};

pub use channel::{Channel, CHANNEL_CAPACITY};
pub use header::{PersistentHeader, Ride, RideStats, TaskHeader};
use header::{STATUS_FINISHED, STATUS_READY};

/// Maximum number of paths a runtime instance supports.
pub const MAX_PATHS: usize = 16;

/// Modelled cost of the runtime's `checkTask` dispatch, in cycles.
const CHECK_TASK_CYCLES: u64 = 90;
/// Modelled cost of `taskFinish` bookkeeping, in cycles.
const TASK_FINISH_CYCLES: u64 = 70;
/// Modelled cost of advancing the task/path cursor, in cycles.
const ADVANCE_CYCLES: u64 = 40;

/// Per-path result codes stored in FRAM.
const PATH_PENDING: u8 = 0;
const PATH_COMPLETED: u8 = 1;
const PATH_SKIPPED: u8 = 2;

/// A task body: application code run inside the task sandbox, under
/// either runtime.
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
    /// declared on the task; carried on the `EndTask` event). Mayfly,
    /// which has no monitors, discards it.
    pub fn set_monitored(&mut self, value: f64) {
        *self.monitored = Some(value);
    }
}

/// The installed task bodies and channels, shared by both runtimes.
pub struct Tasks {
    bodies: Vec<TaskBody>,
    channels: HashMap<String, Channel>,
}

impl Tasks {
    /// Looks up a declared channel.
    pub fn channel(&self, name: &str) -> Option<Channel> {
        self.channels.get(name).copied()
    }

    /// Runs the body of `task` in its sandbox: device work billed to
    /// the application, channel writes staged into `tx`. Returns the
    /// monitored value the body set, if any.
    pub fn run_body(
        &mut self,
        dev: &mut Device,
        task: TaskId,
        tx: &mut TxWriter,
    ) -> Result<Option<f64>, Interrupt> {
        let mut monitored = None;
        let body = &mut self.bodies[task.index()];
        let channels = &self.channels;
        dev.billed(CostCategory::App, |dev| {
            body(&mut TaskCtx {
                dev,
                tx,
                channels,
                monitored: &mut monitored,
            })
        })?;
        Ok(monitored)
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

/// The cursor past the finished task at `cur_idx` of `cur_path`, the
/// advance both runtimes commit with the task: `(cur_path, cur_idx)`
/// of the path's next task, or of the first task of the next path with
/// `true` — the finished task ended its path.
pub fn next_cursor(app: &AppGraph, cur_path: u32, cur_idx: u32) -> (u32, u32, bool) {
    if cur_idx as usize + 1 < app.path(PathId(cur_path)).tasks.len() {
        (cur_path, cur_idx + 1, false)
    } else {
        (cur_path + 1, 0, true)
    }
}

/// Builder for [`ArtemisRuntime`]: the app, its task bodies and its
/// channels — also what the Mayfly baseline's builder starts from.
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

    /// The application graph.
    pub fn app(&self) -> &AppGraph {
        &self.app
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
        let dev_err = InstallError::Device;
        let riders = dev.take_riders();
        let (app, tasks, header) = self
            .install_tasks(dev, Header::INITIAL, "rt.header")
            .map_err(dev_err)?;
        engine.reset_monitor(dev).map_err(dev_err)?;
        // Violation trace records carry monitor indices; register the
        // suite's names so they resolve at render time.
        dev.trace_mut().set_monitor_names(engine.machine_names());

        Ok(ArtemisRuntime {
            app,
            tasks,
            engine,
            header,
            riders,
            rides: RideStats::default(),
            current_task_cached: TaskId(0),
        })
    }

    /// The install step both runtimes share. Checks that every task
    /// has a body, then allocates the runtime's journal and its header
    /// region holding `init` (labelled `label`), billed to the runtime;
    /// the channels, billed to the application; and the main loop's
    /// SRAM state. The device's cost category is the caller's again on
    /// return, also on error.
    ///
    /// # Panics
    ///
    /// Panics if a task has no body — a programming error.
    pub fn install_tasks<H: TaskHeader>(
        self,
        dev: &mut Device,
        init: H,
        label: &str,
    ) -> Result<(AppGraph, Tasks, PersistentHeader<H>), Interrupt> {
        let app = self.app;
        let bodies = (self.bodies.into_iter().enumerate())
            .map(|(i, b)| {
                b.unwrap_or_else(|| {
                    panic!("task `{}` has no body", app.task_name(TaskId(i as u32)))
                })
            })
            .collect();
        let owner = MemOwner::Runtime;
        let header = dev.billed(CostCategory::Runtime, |dev| {
            PersistentHeader::alloc(dev, init, owner, label)
        })?;
        let channels = dev.billed(CostCategory::App, |dev| {
            (self.channels.iter())
                .map(|name| Ok((name.clone(), Channel::new(dev, MemOwner::App, name)?)))
                .collect::<Result<_, Interrupt>>()
        })?;
        // Volatile footprint of the main loop, for Table 2 reports.
        dev.sram_mut().register(owner, "main loop state", 2);
        Ok((app, Tasks { bodies, channels }, header))
    }
}

/// Byte ranges of the header fields (see the module docs).
const CUR_PATH: Range<usize> = 0..4;
const CUR_IDX: Range<usize> = 4..8;
const STATUS: Range<usize> = 8..9;
const ATTEMPT: Range<usize> = 9..13;
const SEQ: Range<usize> = 13..21;
const END_TIME: Range<usize> = 21..29;
const END_DEP: Range<usize> = 29..38;
const UNMONITORED: Range<usize> = 38..39;
const EMERGENCY: Range<usize> = 39..40;
const PATH_RESULTS: Range<usize> = 40..56;

/// The runtime's persistent progress state, decoded.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Header {
    cur_path: u32,
    cur_idx: u32,
    status: u8,
    attempt: u32,
    /// Monotone event-sequence counter; while `status` is finished,
    /// the pending `EndTask`'s number.
    seq: u64,
    /// Finish time fixed at task commit (§4.1.3).
    end_time: SimInstant,
    /// Monitored output `(present, f64 bits)` fixed at task commit.
    end_dep: (u8, u64),
    /// 1 while a `completePath` suspension is active.
    unmonitored: u8,
    /// 1 once a `completePath` ended the run early.
    emergency: u8,
    /// Per-path outcome codes.
    path_results: [u8; MAX_PATHS],
}

impl Header {
    const INITIAL: Header = Header {
        cur_path: 0,
        cur_idx: 0,
        status: STATUS_READY,
        attempt: 0,
        seq: 0,
        end_time: SimInstant::EPOCH,
        end_dep: (0, 0),
        unmonitored: 0,
        emergency: 0,
        path_results: [PATH_PENDING; MAX_PATHS],
    };

    /// This header with the cursor at the first task of `cur_path`,
    /// ready for a first attempt.
    fn at_path_start(self, cur_path: u32) -> Header {
        Header {
            cur_path,
            cur_idx: 0,
            status: STATUS_READY,
            attempt: 0,
            ..self
        }
    }
}

impl TaskHeader for Header {
    fn cursor(&self) -> (u32, u32, u8) {
        (self.cur_path, self.cur_idx, self.status)
    }

    /// Flags and path codes are in range.
    fn valid(&self) -> bool {
        self.end_dep.0 <= 1
            && self.unmonitored <= 1
            && self.emergency <= 1
            && self.path_results.iter().all(|&r| r <= PATH_SKIPPED)
    }
}

impl NvData for Header {
    const SIZE: usize = PATH_RESULTS.end;

    fn store(&self, dst: &mut [u8]) {
        self.cur_path.store(&mut dst[CUR_PATH]);
        self.cur_idx.store(&mut dst[CUR_IDX]);
        self.status.store(&mut dst[STATUS]);
        self.attempt.store(&mut dst[ATTEMPT]);
        self.seq.store(&mut dst[SEQ]);
        self.end_time.store(&mut dst[END_TIME]);
        self.end_dep.store(&mut dst[END_DEP]);
        self.unmonitored.store(&mut dst[UNMONITORED]);
        self.emergency.store(&mut dst[EMERGENCY]);
        self.path_results.store(&mut dst[PATH_RESULTS]);
    }

    fn load(src: &[u8]) -> Self {
        Header {
            cur_path: NvData::load(&src[CUR_PATH]),
            cur_idx: NvData::load(&src[CUR_IDX]),
            status: NvData::load(&src[STATUS]),
            attempt: NvData::load(&src[ATTEMPT]),
            seq: NvData::load(&src[SEQ]),
            end_time: NvData::load(&src[END_TIME]),
            end_dep: NvData::load(&src[END_DEP]),
            unmonitored: NvData::load(&src[UNMONITORED]),
            emergency: NvData::load(&src[EMERGENCY]),
            path_results: NvData::load(&src[PATH_RESULTS]),
        }
    }
}

/// The installed runtime; drive it with
/// [`Simulator::run`](intermittent_sim::simulator::Simulator).
///
/// Generic over the monitoring deployment `M` (local persistent
/// engine by default; see [`ArtemisRuntimeBuilder::install_with`]).
pub struct ArtemisRuntime<M: Monitoring = MonitorEngine> {
    app: AppGraph,
    tasks: Tasks,
    engine: M,
    header: PersistentHeader<Header>,
    /// Each delivery's admission ceiling for riding the runtime's open
    /// record, per task as `[StartTask, EndTask]`: what the engine
    /// installed with this runtime handed over (`Device::set_riders`);
    /// none for a deployment that hands over nothing.
    riders: Vec<[Option<Energy>; 2]>,
    /// The `EndTask` ride decisions made at `taskFinish`.
    rides: RideStats,
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
        self.tasks.channel(name)
    }

    /// Total monitor events delivered so far: the persistent event
    /// sequence counter, read without cost. Fleet aggregation uses this
    /// as the per-device throughput figure after a run.
    pub fn events_delivered(&self, dev: &Device) -> u64 {
        self.header.peek(dev).seq
    }

    /// How the `EndTask` deliveries fared at the task boundaries so
    /// far: one decision per `taskFinish`, whether the delivery rode
    /// the task's record by a static proof or for the capacitor's
    /// charge, was refused for it, or never rides ([`Ride`]).
    pub fn ride_stats(&self) -> RideStats {
        self.rides
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
            let h = self.header.read(dev, &self.app)?;
            let next = Header {
                seq: h.seq,
                end_time: h.end_time,
                end_dep: h.end_dep,
                ..Header::INITIAL
            };
            self.header.commit(dev, &mut TxWriter::new(), next)
        })
    }

    fn fresh_seq(&self, dev: &mut Device) -> Result<u64, Interrupt> {
        let mut h = self.header.read(dev, &self.app)?;
        h.seq = h.seq.wrapping_add(1);
        self.header.write(dev, h, SEQ)?;
        Ok(h.seq)
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

    /// Executes the current task body and commits its effects.
    fn run_task(&mut self, dev: &mut Device, task: TaskId) -> Result<(), Interrupt> {
        let mut h = self.header.read(dev, &self.app)?;
        h.attempt = h.attempt.saturating_add(1);
        self.header.write(dev, h, ATTEMPT)?;
        dev.trace_push(TraceEvent::TaskStart {
            task,
            attempt: h.attempt,
        });

        let mut tx = TxWriter::new();
        let monitored = self.tasks.run_body(dev, task, &mut tx)?;

        // taskFinish (Figure 9): fix the finish time, the EndTask
        // sequence number and the monitored value atomically with the
        // task's own effects and the status flip — in the open record
        // the EndTask delivery and its outcome ride, if they may.
        dev.compute(TASK_FINISH_CYCLES)?;
        let next = Header {
            status: STATUS_FINISHED,
            attempt: 0,
            seq: h.seq.wrapping_add(1),
            end_time: dev.now(),
            end_dep: monitored.map_or((0, 0), |v| (1, v.to_bits())),
            ..h
        };
        let landed = Some(TraceEvent::TaskEnd { task });
        let ceiling = self.ceiling(task, EventKind::EndTask);
        self.header
            .open(dev, &mut tx, next, ceiling, landed, &mut self.rides)
    }

    /// The admission ceiling of the delivery of `kind` for `task`
    /// ([`Ride::admit`]).
    fn ceiling(&self, task: TaskId, kind: EventKind) -> Option<Energy> {
        let end = usize::from(kind == EventKind::EndTask);
        self.riders.get(task.index()).and_then(|k| k[end])
    }

    /// Moves to the next task, handling path boundaries — with
    /// monitoring suspended first if `suspend` (`completePath`, in the
    /// same commit). Returns `true` when the whole run finished.
    fn advance(&self, dev: &mut Device, suspend: bool) -> Result<bool, Interrupt> {
        dev.compute(ADVANCE_CYCLES)?;
        let mut h = self.header.read(dev, &self.app)?;
        h.unmonitored |= u8::from(suspend);
        let paths = self.app.paths().len();
        let (cur_path, cur_idx, path_done) = next_cursor(&self.app, h.cur_path, h.cur_idx);
        let mut next = Header {
            status: STATUS_READY,
            attempt: 0,
            cur_idx,
            ..h
        };
        if path_done {
            // Path completed.
            next.path_results[h.cur_path as usize] = PATH_COMPLETED;
            if h.unmonitored != 0 {
                // completePath semantics: the current path ran to
                // completion unmonitored; no further paths execute
                // this run.
                for r in next.path_results[..paths]
                    .iter_mut()
                    .skip(h.cur_path as usize + 1)
                {
                    if *r == PATH_PENDING {
                        *r = PATH_SKIPPED;
                    }
                }
                next.unmonitored = 0;
                next.emergency = 1;
                next.cur_path = paths as u32;
            } else {
                next.cur_path = cur_path;
            }
        }
        self.header.commit(dev, &mut TxWriter::new(), next)?;
        if path_done {
            dev.trace_push(TraceEvent::PathComplete {
                path: PathId(h.cur_path),
            });
        }
        Ok(next.cur_path as usize >= paths)
    }

    /// Applies a path-directed corrective action.
    fn apply_path_action(&self, dev: &mut Device, action: Action) -> Result<(), Interrupt> {
        dev.trace_push(TraceEvent::ActionTaken { action });
        let h = self.header.read(dev, &self.app)?;
        match action {
            Action::RestartPath(p) => {
                self.engine.on_path_restart(dev, p)?;
                self.header
                    .commit(dev, &mut TxWriter::new(), h.at_path_start(p.0))?;
                dev.trace_push(TraceEvent::PathStart { path: p });
            }
            Action::SkipPath(p) => {
                let mut next = h.at_path_start(p.0 + 1);
                if p.index() < MAX_PATHS {
                    next.path_results[p.index()] = PATH_SKIPPED;
                }
                dev.trace_push(TraceEvent::PathSkipped { path: p });
                self.header.commit(dev, &mut TxWriter::new(), next)?;
            }
            Action::CompletePath(_) => {
                // Suspend monitoring; the caller decides how the
                // current task proceeds.
                let next = Header {
                    unmonitored: 1,
                    ..h
                };
                self.header.write(dev, next, UNMONITORED)?;
            }
            Action::RestartTask | Action::SkipTask => {
                unreachable!("task-level actions are handled inline")
            }
        }
        Ok(())
    }

    /// The run's outcome as the header records it.
    fn outcome(&self, h: &Header) -> RunOutcome {
        let mut outcome = RunOutcome {
            emergency: h.emergency != 0,
            ..RunOutcome::default()
        };
        for (i, &r) in h.path_results[..self.app.paths().len()].iter().enumerate() {
            match r {
                PATH_COMPLETED => outcome.completed.push(PathId(i as u32)),
                PATH_SKIPPED => outcome.skipped.push(PathId(i as u32)),
                _ => {}
            }
        }
        outcome
    }

    /// Traces the run's completion and returns its outcome.
    fn finish(&self, dev: &mut Device) -> Result<RunOutcome, Interrupt> {
        dev.trace_push(TraceEvent::RunComplete);
        Ok(self.outcome(&self.header.read(dev, &self.app)?))
    }
}

impl<M: Monitoring> ArtemisRuntime<M> {
    /// The main loop (paper Figure 8), billed to the runtime; the
    /// caller's cost category is restored on return, also on an
    /// interrupt. Re-enterable after power failures; resumes from the
    /// persistent cursor.
    fn on_boot_impl(&mut self, dev: &mut Device) -> Result<RunOutcome, Interrupt> {
        let out = dev.billed(CostCategory::Runtime, |dev| self.main_loop(dev));
        if let Err(Interrupt::Fault(_)) = out {
            // A fault stops the run with the open record unlanded.
            dev.discard_record();
        }
        out
    }

    fn main_loop(&mut self, dev: &mut Device) -> Result<RunOutcome, Interrupt> {
        // Reboot and monitor progress (Figure 8 lines 14-16). The
        // runtime's journal replays first — with the header load —
        // because a delivery that rode the runtime's record lands with
        // it; only then may the engine read its state.
        self.header.read(dev, &self.app)?;
        self.engine.monitor_finalize(dev)?;

        loop {
            dev.compute(CHECK_TASK_CYCLES)?;
            let h = self.header.read(dev, &self.app)?;
            if h.cur_path as usize >= self.app.paths().len() {
                return self.finish(dev);
            }
            let task = h.task(&self.app);
            let path = PathId(h.cur_path);
            self.current_task_cached = task;
            let monitored = h.unmonitored == 0;

            if h.status == STATUS_READY {
                let action = if monitored {
                    let seq = self.fresh_seq(dev)?;
                    // A path action rides the delivery's record; any
                    // other outcome writes `attempt`, which lands it
                    // before the body runs.
                    self.header
                        .open_empty(dev, self.ceiling(task, EventKind::StartTask))?;
                    let event = MonitorEvent::start(task, dev.now()).on_path(path);
                    let verdicts = self.engine.call_monitor(dev, seq, &event)?;
                    self.arbitrate(dev, &verdicts)
                } else {
                    None
                };
                match action {
                    None | Some(Action::RestartTask) => self.run_task(dev, task)?,
                    Some(Action::SkipTask) => {
                        dev.trace_push(TraceEvent::ActionTaken {
                            action: Action::SkipTask,
                        });
                        if self.advance(dev, false)? {
                            return self.finish(dev);
                        }
                    }
                    Some(a @ Action::CompletePath(_)) => {
                        // Suspend monitoring and run the task.
                        self.apply_path_action(dev, a)?;
                        self.run_task(dev, task)?;
                    }
                    Some(a) => self.apply_path_action(dev, a)?,
                }
            } else {
                // STATUS_FINISHED: deliver the EndTask event under its
                // reserved sequence number, `seq` (exactly-once), into
                // the task's record if it is still open, and commit the
                // outcome with it.
                self.header
                    .open_empty(dev, self.ceiling(task, EventKind::EndTask))?;
                let action = if monitored {
                    let (has_dep, dep_bits) = h.end_dep;
                    let event = if has_dep != 0 {
                        MonitorEvent::end_with_data(task, h.end_time, f64::from_bits(dep_bits))
                    } else {
                        MonitorEvent::end(task, h.end_time)
                    }
                    .on_path(path);
                    let verdicts = self.engine.call_monitor(dev, h.seq, &event)?;
                    self.arbitrate(dev, &verdicts)
                } else {
                    None
                };
                match action {
                    None | Some(Action::SkipTask) => {
                        if self.advance(dev, false)? {
                            return self.finish(dev);
                        }
                    }
                    Some(Action::RestartTask) => {
                        dev.trace_push(TraceEvent::ActionTaken {
                            action: Action::RestartTask,
                        });
                        let next = Header {
                            status: STATUS_READY,
                            ..self.header.read(dev, &self.app)?
                        };
                        self.header.commit(dev, &mut TxWriter::new(), next)?;
                    }
                    Some(a @ Action::CompletePath(_)) => {
                        // Suspend monitoring and advance, as one commit.
                        dev.trace_push(TraceEvent::ActionTaken { action: a });
                        if self.advance(dev, true)? {
                            return self.finish(dev);
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
