//! The ARTEMIS monitor engine: power-failure-resilient execution of
//! generated FSM monitors.
//!
//! The engine is the runtime realisation of the paper's
//! application-specific monitors (§3.3–§4.2). It keeps every machine's
//! `(state, variables)` in FRAM, steps each interested machine once per
//! event — exactly once across power failures — and exposes the paper's
//! three entry points:
//!
//! - [`MonitorEngine::reset_monitor`] — the initial hard reset
//!   (Figure 8, `resetMonitor`);
//! - [`MonitorEngine::monitor_finalize`] — called on every reboot to
//!   complete an event interrupted by a power failure (Figure 8,
//!   `monitorFinalize`);
//! - [`MonitorEngine::call_monitor`] — deliver one event and collect
//!   verdicts (Figure 9/10, `callMonitor`).
//!
//! # Exactly-once event processing
//!
//! Every delivery carries a caller-chosen sequence number. A new
//! sequence number arms the engine atomically (event + verdict reset +
//! armed worklist); re-delivering the *same* sequence number resumes or
//! returns the already-computed verdicts instead of double-stepping the
//! machines. The ARTEMIS runtime exploits both directions: `StartTask`
//! re-attempts get fresh numbers (attempt counting is the point of
//! `maxTries`), while `EndTask` events reuse the number fixed in the
//! task-commit transaction so a power failure can never double-count a
//! sample (cf. the paper's timestamp-consistency discussion, §4.1.3).
//!
//! # Event routing
//!
//! Triggers are static, so at install time the compiler emits a global
//! [`RoutingIndex`](artemis_ir::compile::RoutingIndex): for every
//! `(event kind, task id)` key, the exact machines with a transition
//! that can match. Arming an event commits that key's **interested
//! worklist** (after the dynamic `Path:` filter) plus a cleared
//! completion bitmap — one bit per worklist entry, `ceil(machines / 8)`
//! bytes — in one sparse journal record together with the event and
//! sequence number. Only worklisted machines are stepped, and each step
//! commits its effects together with its bit, so a reboot resumes
//! exactly the pending entries and a redelivered sequence number only
//! finishes them. Worklists, bitmaps and scratch buffers are sized at
//! install: a suite of any size routes.
//!
//! # Compiled steps
//!
//! Suites run **compiled** to slot-indexed bytecode
//! ([`artemis_ir::compile`]) over one packed FRAM block per machine
//! ([`artemis_ir::MachineLayout`]). Every compiled step — one event or a
//! whole batch — goes through one function: it loads the block prefix
//! the dispatched keys' static [`AccessSet`]s can touch, runs the
//! bytecode in scratch, and commits one **sparse record**
//! ([`SparseTx`]): the changed byte runs of the loaded prefix (or, for
//! keys whose access set covers ≥ ¾ of the block, decided at compile
//! time, the whole block image — see "Dirty-diff commits"), one verdict
//! cell per emitting event, and the done bitmap. Soundness: the access
//! set over-approximates every slot the dispatched bytecode can read or
//! write, so slots outside the loaded span are never observed and slots
//! outside the write set cannot change; unchanged bytes a merged run
//! re-writes carry their loaded value, which is idempotent.
//!
//! [`ExecMode::Interpreter`] is the reference semantics: the
//! tree-walking interpreter of `artemis_ir::exec` over one FRAM cell
//! per variable. It arms *every* machine — the routing index is not
//! consulted, so the oracle stays independent of it — and commits
//! entry-list transactions. Differential tests pin the two on verdicts
//! and FRAM-visible state, including under random power failures.
//!
//! # Batch delivery (group commit)
//!
//! Events arrive in bursts at task boundaries — an `EndTask`, the next
//! `StartTask`, `collect` samples — yet the per-event path pays a full
//! arming transaction and one commit per machine *per event*.
//! [`BatchMode::Enabled`] adds a group-commit path
//! ([`MonitorEngine::deliver_batch`]): a burst of up to `max_events`
//! events under consecutive sequence numbers is armed in ONE sparse
//! transaction (the encoded event array, the batch sequence number, the
//! **merged** interested worklist, and a batch completion bitmap), then
//! each armed machine steps through *all* its events of the batch in
//! volatile scratch and commits **once**: repeated writes to the same
//! variable slot coalesce to the last value, the record carries the
//! changed runs of the prefix the merged static [`AccessSet`] of the
//! dispatched events covers (a net-unchanged byte costs nothing), and
//! one verdict cell per emitting event rides in the same record as its
//! done bit. The batch lane reads through the same shadow cache as the
//! per-event lane: a warm batch reads no FRAM at all.
//!
//! Crash correctness is the same argument as the per-event path, one
//! level up: the arming commit fixes the events and the merged
//! worklist; a machine's bit flips only in the transaction that
//! persists the *net* effect of all its steps, so a reboot anywhere
//! resumes from the first incomplete machine and observes either none
//! or all of a machine's batch effects — indistinguishable from an
//! event-at-a-time execution that crashed between machines.
//! Redelivering a committed batch (same first sequence number) returns
//! the recorded verdicts without re-stepping.
//!
//! # Volatile shadow cache (write-only steady state)
//!
//! Compiled engines keep a volatile **shadow** of every FRAM location
//! the hot path reads: after any load or commit the decoded machine
//! images, the done bitmaps, the worklists, and the verdict log stay
//! authoritative in RAM, so a steady-state delivery performs **zero**
//! FRAM reads — nonvolatile memory is touched only by the crash-atomic
//! commits. The cache is strictly write-through and never defers or
//! reorders a write; it is the compiled engine's one read path. The
//! interpreter stays uncached: it is the independent reference
//! semantics.
//!
//! Coherence contract: the cache records the [`Sram`] reboot epoch it
//! was filled under; every entry point re-syncs against
//! `dev.sram().generation()` and a mismatch (i.e. a power failure
//! happened) invalidates the whole cache in O(1) by bumping a
//! generation tag that every shadow entry must match. Refills happen
//! *after* `dev.recover` has replayed any torn journal commit —
//! replay-then-invalidate is safe because replay is idempotent against
//! FRAM and completes before the first cold read. The first delivery
//! after a reboot therefore pays cold-miss reads, exactly
//! `EventCost::cold_extra_reads` in `artemis_ir` for a freshly armed
//! event; every later delivery in the same epoch is write-only. Tests
//! get the "always cold" engine by clearing SRAM before each delivery
//! (`Device::sram_mut().clear()`), which is exactly the post-reboot
//! read path. Cold fills validate what they read: a worklist longer
//! than the suite or naming no installed machine faults with
//! [`Fault::CorruptState`] instead of indexing out of bounds.
//! Hit/miss/invalidation counters are exposed through
//! [`MonitorEngine::cache_stats`].
//!
//! # Dirty-diff commits
//!
//! Every compiled step commits byte-granular runs: the new image of
//! the covered block prefix is diffed against the shadow's
//! authoritative old image and only the changed `[addr][len][data]`
//! runs are journalled (runs separated by at most one sub-write
//! header of unchanged bytes merge). The static bounds model prices
//! the state word plus every write-set slot; a diff record never
//! exceeds that, and equals it whenever every byte of the state word
//! and of each written slot changes and the fields lie more than a
//! header apart.
//!
//! [`Sram`]: intermittent_sim::fram::Sram

pub mod remote;
pub mod state;

use core::cell::RefCell;
use std::borrow::Cow;
use std::sync::Arc;

use artemis_core::action::Action;
use artemis_core::app::{AppGraph, PathId, TaskId};
use artemis_core::event::{EventKind, MonitorEvent};
use artemis_core::property::OnFail;
use artemis_ir::compile::{AccessSet, CompileIssue, CompiledEvent, CompiledSuite};
use artemis_ir::exec::{step, IrEvent, MachineState};
use artemis_ir::expr::{EventCtx, Value};
use artemis_ir::fsm::{MonitorSuite, StateMachine};
use artemis_ir::opt::OptLevel;
use artemis_ir::validate::{validate_strict, Issue};
use intermittent_sim::device::{CostCategory, Device, Fault, Interrupt, MemOwner};
use intermittent_sim::fram::{NvCell, NvData};
use intermittent_sim::journal::{u16_list_bytes, Journal, SparseTx, TxWriter};

use state::{EncodedEvent, NvValue};

pub use remote::{NoMonitoring, RemoteMonitorEngine};
/// The interface between the intermittent runtime and *some* monitoring
/// deployment — the paper's "generic interfaces" between runtime and
/// monitor module (Table 3, last row). Implementations: the local
/// power-failure-resilient [`MonitorEngine`], the external
/// [`RemoteMonitorEngine`] of §7, and [`NoMonitoring`] for ablations.
pub trait Monitoring {
    /// Initial hard reset (Figure 8, `resetMonitor`).
    fn reset_monitor(&self, dev: &mut Device) -> Result<(), Interrupt>;

    /// Per-boot completion of interrupted work (`monitorFinalize`).
    fn monitor_finalize(&self, dev: &mut Device) -> Result<bool, Interrupt>;

    /// Event delivery under a caller-chosen sequence number;
    /// re-delivery of a processed number must not double-step.
    fn call_monitor(
        &self,
        dev: &mut Device,
        seq: u64,
        event: &MonitorEvent,
    ) -> Result<Vec<MonitorVerdict>, Interrupt>;

    /// Delivers a burst of events under consecutive sequence numbers
    /// (`first_seq`, `first_seq + 1`, …) and returns one verdict list
    /// per event, in delivery order. Redelivering a processed batch
    /// (same `first_seq` and events) must not double-step.
    ///
    /// The default forwards to [`Monitoring::call_monitor`] event by
    /// event; deployments with a group-commit path override it.
    fn deliver_batch(
        &self,
        dev: &mut Device,
        first_seq: u64,
        events: &[MonitorEvent],
    ) -> Result<Vec<Vec<MonitorVerdict>>, Interrupt> {
        let mut out = Vec::with_capacity(events.len());
        for (i, event) in events.iter().enumerate() {
            out.push(self.call_monitor(dev, first_seq + i as u64, event)?);
        }
        Ok(out)
    }

    /// Largest burst [`Monitoring::deliver_batch`] can commit as one
    /// group (1 = no group-commit path; the default loop applies).
    fn batch_capacity(&self) -> usize {
        1
    }

    /// `true` when delivering `EndTask(task)` provably produces no
    /// verdicts — the static gate the runtime uses before folding an
    /// end event into a batch whose later events it must not depend
    /// on. Conservative deployments return `false`.
    fn end_event_is_silent(&self, _task: TaskId) -> bool {
        false
    }

    /// Verdicts of the most recently processed event.
    fn last_verdicts(&self, dev: &mut Device) -> Result<Vec<MonitorVerdict>, Interrupt>;

    /// Re-initialisation of monitors bound to a restarted path.
    fn on_path_restart(&self, dev: &mut Device, path: PathId) -> Result<(), Interrupt>;

    /// Number of deployed machines.
    fn machine_count(&self) -> usize;

    /// Names of the deployed machines, in suite order — the name table
    /// trace renderers resolve violation indices against. Deployments
    /// without named machines return an empty table.
    fn machine_names(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Modelled CPU cost of scanning one machine's transitions for one
/// event, in cycles (the interpreter stand-in for generated C code).
const STEP_BASE_CYCLES: u64 = 40;
/// Additional cycles per transition considered.
const STEP_PER_TRANSITION_CYCLES: u64 = 12;
/// Modelled cost of the compiled path's dispatch-table lookup — a
/// kind/task index instead of a name-comparing scan.
const COMPILED_DISPATCH_CYCLES: u64 = 10;
/// Modelled cost of the per-event routing-index lookup and worklist
/// staging, charged once at arming time.
const ROUTING_LOOKUP_CYCLES: u64 = 12;

/// Which execution core the engine runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ExecMode {
    /// Slot-indexed bytecode over one packed FRAM block per machine,
    /// committed through sparse records — the default, and the
    /// closest analogue of the paper's generated C monitors.
    #[default]
    Compiled,
    /// The tree-walking reference interpreter over one FRAM cell per
    /// variable. Kept as the executable semantics for differential
    /// testing and as the baseline the dispatch benchmark compares
    /// against.
    Interpreter,
}

/// Most events one batch can carry: the per-machine event mask is a
/// half-word and the encoded-event array must stay journal-sized.
/// [`BatchMode::Enabled`] requests above this clamp to it.
pub const MAX_BATCH_EVENTS: usize = 16;

/// Whether the engine allocates the group-commit batch path
/// ([`MonitorEngine::deliver_batch`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum BatchMode {
    /// No batch state; `deliver_batch` falls back to the per-event
    /// path — the default.
    #[default]
    Disabled,
    /// Arm up to `max_events` events in one transaction and commit each
    /// machine once per batch (clamped to [`MAX_BATCH_EVENTS`]).
    /// Compiled engines only; the interpreter falls back to per-event
    /// delivery.
    Enabled {
        /// Batch capacity in events.
        max_events: usize,
    },
}

/// Shadow-cache effectiveness counters
/// ([`MonitorEngine::cache_stats`]). `hits` counts shadow lookups that
/// avoided FRAM traffic, `misses` counts cold FRAM reads that
/// (re)filled a shadow entry, `invalidations` counts whole-cache wipes
/// triggered by a reboot-epoch change.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Shadow lookups served from RAM.
    pub hits: u64,
    /// Cold FRAM reads that filled a shadow entry.
    pub misses: u64,
    /// Whole-cache wipes caused by a reboot-epoch bump.
    pub invalidations: u64,
}

/// Dynamic bytecode execution counters
/// ([`MonitorEngine::exec_stats`]): what the compiled core *actually*
/// ran, as opposed to the static per-key ceilings the engine bills
/// through [`CompiledMachine::step_cost`]. Volatile (a reboot replays
/// the in-flight event and re-counts its instructions — the honest
/// dynamic figure on an intermittent device).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ExecStats {
    /// Bytecode instructions dispatched across all machine steps.
    pub instructions: u64,
    /// `CompiledMachine::step` invocations (one per machine per
    /// delivered event that dispatches to it).
    pub machine_steps: u64,
}

/// Everything [`MonitorEngine::install_with`] can be told.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct InstallOptions {
    /// Execution core (compiled bytecode by default).
    pub mode: ExecMode,
    /// Group-commit batch delivery (off by default; compiled engines
    /// only).
    pub batch: BatchMode,
    /// Bytecode optimization level for ahead-of-time compilation
    /// ([`OptLevel::Full`] by default). [`OptLevel::None`] ships the
    /// straight-from-lowering bytecode and serves as the differential
    /// oracle for the optimizer. Ignored by
    /// [`MonitorEngine::install_precompiled`], whose caller already
    /// holds compiled bytecode.
    pub opt: OptLevel,
    /// Journal capacity override in payload bytes. `None` derives the
    /// capacity from the static resource bounds: the worst-case single
    /// commit any event or reset can stage (see
    /// [`artemis_ir::suite_bounds`]). The bound pass checks the
    /// suite against whatever capacity ends up in force, so an
    /// undersized override rejects the install with
    /// [`InstallError::Analysis`] instead of faulting with
    /// `JournalOverflow` mid-run.
    pub journal_capacity: Option<usize>,
    /// Device energy profile for the install-time feasibility gate.
    /// `Some(profile)` runs `artemis_ir::analysis::energy` over every
    /// task: a task whose statically under-approximated attempt energy
    /// exceeds the profile's budget rejects the install with
    /// [`InstallError::Analysis`] *before* any FRAM is allocated (the
    /// device would otherwise brown-out/replay that task forever);
    /// attempts within the profile's margin surface as
    /// `InstallWarning` trace events. `None` (the default) skips the
    /// pass. Obtain the device's own profile via
    /// `Device::energy_profile()`.
    pub energy: Option<intermittent_sim::EnergyProfile>,
}

/// Why the engine could not be installed.
#[derive(Debug)]
pub enum InstallError {
    /// A machine failed static validation.
    Invalid(Issue),
    /// A machine observes a task that is not in the application graph.
    UnknownTask {
        /// Machine name.
        machine: String,
        /// The unresolvable task name.
        task: String,
    },
    /// A path-directed failure action has no governing path.
    MissingPath {
        /// Machine name.
        machine: String,
    },
    /// The suite failed ahead-of-time compilation to bytecode.
    Compile(CompileIssue),
    /// Install-time static analysis found an error: the bytecode
    /// verifier, the resource-bound pass, the cross-monitor conflict
    /// pass, or the energy feasibility pass rejected the suite. No
    /// FRAM was touched.
    Analysis(artemis_spec::Diagnostic),
    /// Device-level failure (FRAM exhaustion) during installation.
    Device(Interrupt),
}

impl core::fmt::Display for InstallError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            InstallError::Invalid(i) => write!(f, "{i}"),
            InstallError::UnknownTask { machine, task } => {
                write!(f, "machine `{machine}` observes unknown task `{task}`")
            }
            InstallError::MissingPath { machine } => write!(
                f,
                "machine `{machine}` emits a path-directed action but has no governing path"
            ),
            InstallError::Compile(i) => write!(f, "monitor compilation failed: {i}"),
            InstallError::Analysis(d) => write!(f, "static analysis rejected the suite: {d}"),
            InstallError::Device(i) => write!(f, "{i}"),
        }
    }
}

impl std::error::Error for InstallError {}

/// One monitor's verdict for a delivered event.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MonitorVerdict {
    /// Index of the machine in the suite.
    pub machine_index: usize,
    /// Name of the machine.
    pub machine: String,
    /// The resolved corrective action.
    pub action: Action,
}

/// Where one machine's persistent `(state, vars)` live in FRAM.
enum MachineStore {
    /// One cell per variable plus a state cell (interpreter layout).
    Cells {
        state_cell: NvCell<u32>,
        var_cells: Vec<NvCell<NvValue>>,
    },
    /// One contiguous block: the state field followed by the variable
    /// slots, in the compiled machine's packed layout — a single FRAM
    /// op to load and a single sub-write to commit whole.
    Block { addr: usize, len: usize },
}

/// A persistent completion bitmap of `len` bytes: bit `j % 8` of byte
/// `j / 8` is set once worklist entry `j` has stepped.
struct DoneCell {
    addr: usize,
    len: usize,
}

/// `true` iff worklist entry `j` is marked done in `map`.
fn done_bit(map: &[u8], j: usize) -> bool {
    map[j / 8] & (1 << (j % 8)) != 0
}

/// `true` iff the first `count` worklist entries are all done.
fn all_done(map: &[u8], count: usize) -> bool {
    (0..count).all(|j| done_bit(map, j))
}

/// Which armed delivery a step completes. Each lane owns a worklist
/// region and a done bitmap (and their shadows), so batch and
/// per-event deliveries can interleave without clobbering each other's
/// pending-work detection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Lane {
    /// The per-event worklist armed by [`MonitorEngine::call_monitor`].
    Event = 0,
    /// The merged worklist armed by [`MonitorEngine::deliver_batch`].
    Batch = 1,
}

/// Persistent state of one lane: the armed worklist (a
/// length-prefixed `u16` list region) and its completion bitmap, both
/// committed atomically with the events they belong to.
struct LaneState {
    worklist_addr: usize,
    done: DoneCell,
}

impl LaneState {
    /// Stages the armed `worklist` and a cleared bitmap.
    fn arm(&self, stx: &mut SparseTx, worklist: &[u16]) {
        stx.push_u16_list(self.worklist_addr, worklist);
        stx.push_zeroed(self.done.addr, self.done.len);
    }

    /// Stages an empty worklist ("nothing pending") and a cleared
    /// bitmap into a reset transaction.
    fn clear(&self, tx: &mut TxWriter) {
        tx.write_u16_list(self.worklist_addr, &[]);
        tx.write_zeroed(self.done.addr, self.done.len);
    }
}

/// Persistent state of the group-commit batch path beyond its lane,
/// all fixed by one arming transaction: the encoded event array (`u16`
/// count + `max_events` × [`EncodedEvent`]) and the batch's first
/// sequence number.
struct BatchState {
    max_events: usize,
    seq_cell: NvCell<u64>,
    events_addr: usize,
    lane: LaneState,
}

/// Stages a machine's re-initialisation into `tx`, honouring its
/// storage layout.
fn stage_machine_reset(tx: &mut TxWriter, lm: &LoadedMachine) {
    match &lm.store {
        MachineStore::Cells {
            state_cell,
            var_cells,
        } => {
            tx.write(state_cell, lm.machine.initial);
            for (cell, decl) in var_cells.iter().zip(&lm.machine.vars) {
                tx.write(cell, NvValue(decl.init));
            }
        }
        MachineStore::Block { addr, .. } => tx.write_raw(*addr, &lm.initial_image),
    }
}

/// Journal entry header bytes (`addr: u32` + `len: u16`), as staged by
/// `intermittent_sim::journal`.
const JOURNAL_ENTRY_HEADER: usize = 6;

/// Largest single journal commit of the interpreter's per-cell layout:
/// the whole-suite reset (state cell + every variable cell), the
/// arming record (every machine armed), or one machine's step.
fn interpreter_commit_bytes(suite: &MonitorSuite, done_len: usize) -> usize {
    let entry = |bytes: usize| JOURNAL_ENTRY_HEADER + bytes;
    let cells = |m: &StateMachine| entry(u32::SIZE) + m.vars.len() * entry(NvValue::SIZE);
    let lane = entry(u16_list_bytes(suite.len())) + entry(done_len);
    let reset = suite.machines().iter().map(cells).sum::<usize>()
        + entry(u32::SIZE)
        + entry(u64::SIZE)
        + lane;
    let arming = 2 + entry(EncodedEvent::SIZE) + entry(u64::SIZE) + entry(u32::SIZE) + lane;
    let step = suite.machines().iter().map(cells).max().unwrap_or(0)
        + entry(VerdictCell::SIZE)
        + entry(u32::SIZE)
        + entry(done_len);
    reset.max(arming).max(step)
}

/// Sub-write header bytes of one [`SparseTx`] run — the diff-commit
/// merge threshold: two changed runs separated by an unchanged gap of
/// at most this many bytes are cheaper merged (the gap's idempotent
/// re-write costs `gap` bytes, a separate run costs another header).
const DIFF_MERGE_GAP: usize = 6;

/// Byte-granular dirty diff: fills `runs` with the changed runs of
/// `new` vs `old` as `(start, end)` half-open ranges, adjacent runs
/// merged when the unchanged gap between them is within
/// [`DIFF_MERGE_GAP`]. Merged gap bytes re-write their old value —
/// idempotent, so replaying the journal record after a power failure
/// is safe. By the merge rule a
/// diff record never exceeds the record the static bounds model
/// prices (state word + every written slot) in bytes *or* sub-write
/// count: every changed byte lies in the state field or a
/// written slot (≤ 8 bytes each, so at most one run apiece before
/// merging), and each merge saves `header − gap ≥ 0` bytes.
fn diff_runs(old: &[u8], new: &[u8], runs: &mut Vec<(usize, usize)>) {
    debug_assert_eq!(old.len(), new.len());
    runs.clear();
    for (i, (o, n)) in old.iter().zip(new).enumerate() {
        if o == n {
            continue;
        }
        match runs.last_mut() {
            Some((_, end)) if i - *end <= DIFF_MERGE_GAP => *end = i + 1,
            _ => runs.push((i, i + 1)),
        }
    }
}

struct LoadedMachine {
    machine: artemis_ir::StateMachine,
    store: MachineStore,
    /// Block image of the initial state, staged whole on resets (empty
    /// in cell mode).
    initial_image: Vec<u8>,
    /// Interpreter mode: dense task ids this machine observes; `None`
    /// when it has a wildcard trigger and must see everything. The
    /// compiled path answers this from its dispatch tables instead.
    observed: Option<Vec<u32>>,
}

/// Reused per-event buffers. Sized at install and refilled in place,
/// they make a warm, verdict-free compiled delivery perform **zero**
/// heap allocations (pinned by `tests/alloc_free.rs`); an event with
/// `k` verdicts allocates only its returned list and the `k` names.
struct Scratch {
    /// Bytecode register file (compiled mode).
    regs: Vec<Value>,
    /// Decoded variable snapshot.
    vars: Vec<Value>,
    /// Pre-step variable snapshot for change detection (interpreter).
    before_vars: Vec<Value>,
    /// Block image as loaded (compiled).
    block: Vec<u8>,
    /// Block image after the step (compiled).
    block_new: Vec<u8>,
    /// Changed byte runs of a diff commit (compiled).
    runs: Vec<(usize, usize)>,
    /// Verdicts of one step: event position, action, governing path.
    emits: Vec<(usize, OnFail, Option<u32>)>,
    /// Worklist staging at arming time.
    worklist: Vec<u16>,
    /// The sparse record of the current arming or step commit, cleared
    /// and re-staged in place by every commit.
    stx: SparseTx,
}

/// The lane being run: its worklist items, each entry's event mask,
/// the decoded events and the completion bitmap — sized at install to
/// the whole suite and the batch capacity.
struct Armed {
    items: Vec<u16>,
    masks: Vec<u32>,
    events: Vec<EncodedEvent>,
    done: Vec<u8>,
}

/// An encoded verdict cell: `(machine index | event position << 16,
/// (action tag, path))` — the exact value one `verdict_cells` slot
/// stores.
type VerdictCell = (u32, (u8, u32));

/// One machine's decoded shadow image. Live iff `gen` equals the
/// cache's current generation; `gen == 0` never matches (generations
/// start at 1), so a fresh entry is invalid without an extra flag.
#[derive(Clone)]
struct MachineShadow {
    gen: u64,
    state: u32,
    vars: Vec<Value>,
}

/// A shadowed variable-length FRAM region. Invalidation only clears
/// `live`, so a refill reuses the buffer instead of allocating.
struct ShadowBuf<T> {
    live: bool,
    buf: Vec<T>,
}

impl<T: Copy> ShadowBuf<T> {
    /// A dead shadow with room for `n` items.
    fn with_capacity(n: usize) -> Self {
        ShadowBuf {
            live: false,
            buf: Vec::with_capacity(n),
        }
    }

    /// The shadowed contents, if known.
    fn get(&self) -> Option<&[T]> {
        self.live.then_some(self.buf.as_slice())
    }

    /// Shadows `v`.
    fn set(&mut self, v: &[T]) {
        self.buf.clear();
        self.buf.extend_from_slice(v);
        self.live = true;
    }
}

/// One lane's shadowed worklist and done bitmap.
struct LaneShadow {
    worklist: ShadowBuf<u16>,
    done: ShadowBuf<u8>,
}

/// The volatile shadow of every FRAM location the hot path reads (see
/// the module docs, "Volatile shadow cache"). Strictly write-through:
/// entries are updated only from bytes that are already durable (after
/// a successful read or commit), so shadow contents always equal the
/// corresponding FRAM bytes within one reboot epoch. The packed
/// encoding is canonical (`encode(decode(x)) == x` for every
/// engine-written image), which is what lets the machine shadows store
/// *decoded* `(state, vars)` and regenerate byte-identical block
/// images for change detection.
struct ShadowCache {
    /// `Sram` reboot generation the cache was last synced to.
    epoch: u64,
    /// Cache generation; a [`MachineShadow`] or verdict entry is live
    /// iff its tag equals this. Bumping it is the O(1) whole-cache
    /// invalidation.
    gen: u64,
    /// `true` once journal recovery has run (or a commit left the
    /// journal idle) in this epoch — lets steady-state deliveries skip
    /// the recovery flag read.
    journal_clean: bool,
    seq: Option<u64>,
    event: Option<EncodedEvent>,
    verdict_count: Option<u32>,
    /// Generation-tagged verdict cells, indexed like `verdict_cells`.
    verdicts: Vec<(u64, VerdictCell)>,
    machines: Vec<MachineShadow>,
    batch_seq: Option<u64>,
    batch_events: ShadowBuf<EncodedEvent>,
    /// Indexed by [`Lane`].
    lanes: [LaneShadow; 2],
    stats: CacheStats,
}

impl ShadowCache {
    /// A cold cache whose buffers are sized for `machines`-entry
    /// worklists, `done_len`-byte bitmaps and `batch_events`-event
    /// batches, so refills never grow them.
    fn new(
        epoch: u64,
        machines: usize,
        verdict_slots: usize,
        done_len: usize,
        batch_events: usize,
    ) -> Self {
        let lane = || LaneShadow {
            worklist: ShadowBuf::with_capacity(machines),
            done: ShadowBuf::with_capacity(done_len),
        };
        ShadowCache {
            epoch,
            gen: 1,
            journal_clean: false,
            seq: None,
            event: None,
            verdict_count: None,
            verdicts: vec![(0, (0, (0, 0))); verdict_slots],
            machines: vec![
                MachineShadow {
                    gen: 0,
                    state: 0,
                    vars: Vec::new(),
                };
                machines
            ],
            batch_seq: None,
            batch_events: ShadowBuf::with_capacity(batch_events),
            lanes: [lane(), lane()],
            stats: CacheStats::default(),
        }
    }

    /// Drops every entry in O(1): scalars go to `None`, tagged entries
    /// (machines, verdict cells) die by generation bump. Does not bump
    /// the invalidation counter — callers account the wipe (epoch
    /// syncs do; the defensive wipe after an interrupted entry point
    /// stays silent because the next epoch sync counts that reboot).
    fn wipe(&mut self) {
        self.gen += 1;
        self.journal_clean = false;
        self.seq = None;
        self.event = None;
        self.verdict_count = None;
        self.batch_seq = None;
        self.batch_events.live = false;
        for lane in &mut self.lanes {
            lane.worklist.live = false;
            lane.done.live = false;
        }
    }

    /// Shadows a freshly armed (or reset) lane.
    fn arm(&mut self, lane: Lane, worklist: &[u16], done_len: usize) {
        let shadow = &mut self.lanes[lane as usize];
        shadow.worklist.set(worklist);
        shadow.done.buf.clear();
        shadow.done.buf.resize(done_len, 0);
        shadow.done.live = true;
    }

    /// Shadows a lane's bitmap after a durable done write.
    fn set_done(&mut self, lane: Lane, done: &[u8]) {
        self.lanes[lane as usize].done.set(done);
    }
}

/// The engine. Create with [`MonitorEngine::install`] or
/// [`MonitorEngine::install_with`].
pub struct MonitorEngine {
    mode: ExecMode,
    /// Bytecode, dispatch tables, the routing index, and the task-name
    /// table interned once at install (both modes resolve event task
    /// ids through it).
    compiled: Arc<CompiledSuite>,
    machines: Vec<LoadedMachine>,
    journal: Journal,
    event_cell: NvCell<EncodedEvent>,
    seq_cell: NvCell<u64>,
    verdict_count: NvCell<u32>,
    verdict_cells: Vec<NvCell<VerdictCell>>,
    /// The per-event lane.
    events: LaneState,
    /// `Some` iff [`BatchMode::Enabled`] took effect (compiled only).
    batch: Option<BatchState>,
    /// The volatile shadow of the hot path's FRAM reads: `Some` iff
    /// the engine is compiled (the interpreter reads FRAM directly).
    cache: Option<RefCell<ShadowCache>>,
    /// Dynamic executed-instruction counters (volatile, like the cache
    /// stats — see [`ExecStats`]).
    exec: RefCell<ExecStats>,
    scratch: RefCell<Scratch>,
    armed: RefCell<Armed>,
}

impl MonitorEngine {
    /// Validates the suite against `app`, compiles it to bytecode, and
    /// allocates all persistent monitor state in FRAM (billed to the
    /// monitor component), with default [`InstallOptions`].
    pub fn install(
        dev: &mut Device,
        suite: MonitorSuite,
        app: &AppGraph,
    ) -> Result<Self, InstallError> {
        Self::install_with(dev, suite, app, InstallOptions::default())
    }

    /// [`MonitorEngine::install`] with full [`InstallOptions`]: source
    /// validation, ahead-of-time compilation, the static analysis gate,
    /// then FRAM allocation.
    pub fn install_with(
        dev: &mut Device,
        suite: MonitorSuite,
        app: &AppGraph,
        opts: InstallOptions,
    ) -> Result<Self, InstallError> {
        for m in suite.machines() {
            validate_strict(m).map_err(InstallError::Invalid)?;
            for task in m.observed_tasks() {
                if app.task_by_name(task).is_none() {
                    return Err(InstallError::UnknownTask {
                        machine: m.name.clone(),
                        task: task.to_string(),
                    });
                }
            }
            for t in &m.transitions {
                if let Some(e) = &t.emit {
                    if e.path.is_none()
                        && m.path.is_none()
                        && matches!(
                            e.action,
                            OnFail::RestartPath | OnFail::SkipPath | OnFail::CompletePath
                        )
                    {
                        return Err(InstallError::MissingPath {
                            machine: m.name.clone(),
                        });
                    }
                }
            }
        }

        // AOT compilation: slot indices, task-id dispatch tables,
        // bytecode — and the interned task-name table both modes use.
        // Suites that pass the checks above always compile; the error
        // arm guards hand-written machines.
        let compiled =
            CompiledSuite::compile_with(&suite, app, opts.opt).map_err(InstallError::Compile)?;
        Self::install_precompiled(dev, suite, compiled, app, opts)
    }

    /// Installs an already-compiled suite, skipping the source-level
    /// checks of [`MonitorEngine::install_with`] — the entry point for
    /// hand-assembled or mutated bytecode built through
    /// [`artemis_ir::RawMachine`]. The static analysis gate is *not*
    /// skippable: "verifier accepts ⇒ engine safe" holds precisely
    /// because every program the engine executes has passed it. `suite`
    /// must be the source the machines were compiled from (it supplies
    /// names, types and FRAM layout); a machine-count mismatch is
    /// itself an analysis error.
    pub fn install_precompiled(
        dev: &mut Device,
        suite: MonitorSuite,
        compiled: CompiledSuite,
        app: &AppGraph,
        opts: InstallOptions,
    ) -> Result<Self, InstallError> {
        Self::install_precompiled_shared(dev, suite, Arc::new(compiled), app, opts)
    }

    /// [`MonitorEngine::install_precompiled`] over a *shared* compiled
    /// suite: many engines (one per simulated device) can hold the same
    /// immutable bytecode through an [`Arc`] instead of each carrying a
    /// private copy — the fleet harness compiles once per worker sweep,
    /// not once per device. All mutable monitor state (FRAM blocks,
    /// journal, caches, scratch) stays per-engine.
    pub fn install_precompiled_shared(
        dev: &mut Device,
        suite: MonitorSuite,
        compiled: Arc<CompiledSuite>,
        app: &AppGraph,
        opts: InstallOptions,
    ) -> Result<Self, InstallError> {
        let InstallOptions {
            mode,
            batch,
            journal_capacity,
            energy,
            // Compilation already happened in the caller's hands.
            opt: _,
        } = opts;
        let compiled_mode = mode == ExecMode::Compiled;

        // The batch path steps compiled blocks; the interpreter
        // silently falls back to per-event delivery.
        let batch_events = match batch {
            BatchMode::Enabled { max_events } if compiled_mode => {
                Some(max_events.clamp(1, MAX_BATCH_EVENTS))
            }
            _ => None,
        };
        // One done bit per worklist entry; a worklist never outgrows
        // the suite.
        let done_len = suite.len().div_ceil(8).max(1);

        // Default journal capacity = the static worst-case transaction
        // bound: the larger of the whole-suite reset commit and any
        // event key's worst commit. With batching enabled the per-batch
        // bound joins the max (the batch arming record carries the
        // whole event array). The interpreter's per-cell layout stages
        // one entry per variable, so its commits are costed separately.
        let bounds = artemis_ir::analysis::bounds::suite_bounds(&compiled);
        let bbounds =
            batch_events.map(|n| artemis_ir::analysis::bounds::batch_bounds(&compiled, n));
        // The batch cells ride along in the whole-suite reset commit,
        // so a batch-enabled engine's reset can outgrow both per-event
        // figures — it joins the max too.
        let batch_floor = bbounds.as_ref().map_or(0, |b| {
            b.worst_commit_bytes
                .max(bounds.reset_commit_bytes + b.reset_extra_bytes)
        });
        let capacity = journal_capacity.unwrap_or_else(|| {
            let derived = bounds.worst_commit_bytes.max(batch_floor);
            match mode {
                ExecMode::Compiled => derived,
                ExecMode::Interpreter => derived.max(interpreter_commit_bytes(&suite, done_len)),
            }
        });
        // The analysis gate below checks per-event commits against the
        // capacity; the batch path's larger transactions get the same
        // install-time rejection here.
        if bbounds.is_some() && batch_floor > capacity {
            return Err(InstallError::Analysis(artemis_spec::Diagnostic::error(
                "bounds",
                "batch",
                format!(
                    "worst-case batch commit of {batch_floor} journal bytes \
                     exceeds the capacity of {capacity}"
                ),
            )));
        }

        // Static analysis gate — before anything touches FRAM. The
        // first (most severe) error rejects the install; warnings
        // surface on the trace.
        let mut diags = artemis_ir::analysis::analyze_suite(&suite, &compiled, Some(capacity));
        if let Some(profile) = energy {
            diags.extend(artemis_ir::analysis::check_energy(
                &compiled, &bounds, app, &profile,
            ));
            artemis_spec::sort_diagnostics(&mut diags);
        }
        if !diags.is_empty() && diags[0].is_error() {
            return Err(InstallError::Analysis(diags.swap_remove(0)));
        }
        for d in diags {
            dev.trace_push(artemis_core::trace::TraceEvent::InstallWarning {
                message: d.to_string(),
            });
        }

        let dev_err = InstallError::Device;
        let owner = MemOwner::Monitor;
        let prev = dev.category();
        dev.set_category(CostCategory::Monitor);

        let result = (|| {
            let journal = dev.make_journal(capacity, owner).map_err(dev_err)?;
            let event_cell = dev
                .nv_alloc(EncodedEvent::default(), owner, "monitor.event")
                .map_err(dev_err)?;
            let seq_cell = dev.nv_alloc(0u64, owner, "monitor.seq").map_err(dev_err)?;
            let verdict_count = dev
                .nv_alloc(0u32, owner, "monitor.verdicts.count")
                .map_err(dev_err)?;

            // A lane: the armed-worklist region (count word + one u16
            // per machine) and its completion bitmap, both zeroed,
            // i.e. "nothing pending".
            let mut lane = |name: &str| -> Result<LaneState, InstallError> {
                let worklist_addr = dev
                    .nv_alloc_raw(u16_list_bytes(suite.len()), owner, name)
                    .map_err(dev_err)?;
                let addr = dev
                    .nv_alloc_raw(done_len, owner, &format!("{name}.done"))
                    .map_err(dev_err)?;
                Ok(LaneState {
                    worklist_addr,
                    done: DoneCell {
                        addr,
                        len: done_len,
                    },
                })
            };
            let events = lane("monitor.worklist")?;

            // Batch delivery: the encoded event array, the batch
            // sequence number, and the batch lane — all zeroed ("no
            // batch pending").
            let batch_state = match batch_events {
                Some(max_events) => {
                    let lane = lane("monitor.batch.worklist")?;
                    let seq_cell = dev
                        .nv_alloc(0u64, owner, "monitor.batch.seq")
                        .map_err(dev_err)?;
                    let events_addr = dev
                        .nv_alloc_raw(
                            2 + EncodedEvent::SIZE * max_events,
                            owner,
                            "monitor.batch.events",
                        )
                        .map_err(dev_err)?;
                    Some(BatchState {
                        max_events,
                        seq_cell,
                        events_addr,
                        lane,
                    })
                }
                None => None,
            };

            // One verdict cell per machine per event the largest
            // delivery can carry (a batched machine can emit once per
            // event it dispatches).
            let verdict_slots = suite.len() * batch_events.unwrap_or(1);
            let mut verdict_cells = Vec::with_capacity(verdict_slots);
            for i in 0..verdict_slots {
                verdict_cells.push(
                    dev.nv_alloc(
                        (0u32, (0u8, 0u32)),
                        owner,
                        &format!("monitor.verdicts[{i}]"),
                    )
                    .map_err(dev_err)?,
                );
            }

            let mut machines = Vec::with_capacity(suite.len());
            for (mi, m) in suite.into_iter().enumerate() {
                let (store, initial_image, observed) = if compiled_mode {
                    // One contiguous block per machine, pre-imaged with
                    // the initial snapshot. Geometry and snapshot come
                    // from the compiled machine: install_precompiled
                    // callers may hand-assemble machines, and the block
                    // must agree with the bytecode that steps it.
                    let cmach = &compiled.machines()[mi];
                    let mut image = Vec::with_capacity(cmach.layout().block_len);
                    cmach
                        .layout()
                        .encode(cmach.initial_state(), cmach.var_inits(), &mut image);
                    let addr = dev
                        .nv_alloc_raw(image.len(), owner, &format!("{}.block", m.name))
                        .map_err(dev_err)?;
                    dev.nv_write_raw(addr, &image).map_err(dev_err)?;
                    let len = image.len();
                    (MachineStore::Block { addr, len }, image, None)
                } else {
                    let state_cell = dev
                        .nv_alloc(m.initial, owner, &format!("{}.state", m.name))
                        .map_err(dev_err)?;
                    let mut var_cells = Vec::with_capacity(m.vars.len());
                    for v in &m.vars {
                        var_cells.push(
                            dev.nv_alloc(NvValue(v.init), owner, &format!("{}.{}", m.name, v.name))
                                .map_err(dev_err)?,
                        );
                    }
                    // Pre-resolve the observed task set so events for
                    // other tasks skip the machine without touching its
                    // state (the generated C's trigger test, one compare
                    // per machine).
                    let has_wildcard = m.transitions.iter().any(|t| {
                        matches!(
                            t.trigger,
                            artemis_ir::fsm::Trigger::Any
                                | artemis_ir::fsm::Trigger::Start(artemis_ir::fsm::TaskPat::Any)
                                | artemis_ir::fsm::Trigger::End(artemis_ir::fsm::TaskPat::Any)
                        )
                    });
                    let observed = (!has_wildcard).then(|| {
                        m.observed_tasks()
                            .iter()
                            .filter_map(|n| app.task_by_name(n).map(|t| t.0))
                            .collect::<Vec<u32>>()
                    });
                    let store = MachineStore::Cells {
                        state_cell,
                        var_cells,
                    };
                    (store, Vec::new(), observed)
                };
                machines.push(LoadedMachine {
                    machine: m,
                    store,
                    initial_image,
                    observed,
                });
            }

            let max_vars = machines
                .iter()
                .map(|lm| lm.machine.vars.len())
                .max()
                .unwrap_or(0);
            let max_block = machines
                .iter()
                .map(|lm| lm.initial_image.len())
                .max()
                .unwrap_or(0);
            let scratch = RefCell::new(Scratch {
                regs: vec![Value::Int(0); compiled.max_regs()],
                vars: Vec::with_capacity(max_vars),
                before_vars: Vec::with_capacity(max_vars),
                block: Vec::with_capacity(max_block),
                block_new: Vec::with_capacity(max_block),
                runs: Vec::with_capacity(max_block),
                emits: Vec::with_capacity(batch_events.unwrap_or(1)),
                worklist: Vec::with_capacity(machines.len()),
                // Every record fits the journal, so staging never grows it.
                stx: SparseTx::with_capacity(capacity),
            });
            let armed = RefCell::new(Armed {
                items: Vec::with_capacity(machines.len()),
                masks: Vec::with_capacity(machines.len()),
                events: Vec::with_capacity(batch_events.unwrap_or(1)),
                done: Vec::with_capacity(done_len),
            });

            // The shadow cache mirrors block images, so it exists in
            // compiled mode only. The epoch starts at the device's
            // *current* reboot generation so a freshly installed
            // engine doesn't count a spurious invalidation.
            let cache = compiled_mode.then(|| {
                RefCell::new(ShadowCache::new(
                    dev.sram().generation(),
                    machines.len(),
                    verdict_cells.len(),
                    done_len,
                    batch_events.unwrap_or(0),
                ))
            });
            Ok(MonitorEngine {
                mode,
                compiled,
                machines,
                journal,
                event_cell,
                seq_cell,
                verdict_count,
                verdict_cells,
                events,
                batch: batch_state,
                cache,
                exec: RefCell::new(ExecStats::default()),
                scratch,
                armed,
            })
        })();
        dev.set_category(prev);
        result
    }

    /// The execution mode the engine was installed with.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Shadow-cache effectiveness counters; all-zero for the
    /// (uncached) interpreter. The engine-level mirror of
    /// `ArtemisRuntime::events_delivered`.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache
            .as_ref()
            .map_or_else(CacheStats::default, |c| c.borrow().stats)
    }

    /// Dynamic bytecode execution counters (all-zero in interpreter
    /// mode, which runs no bytecode). The measured side of the static
    /// [`artemis_ir::CompiledMachine::step_cost`] ceilings: for every
    /// delivered event, `instructions` grows by at most the key's
    /// `step_cost(kind, task).instructions`.
    pub fn exec_stats(&self) -> ExecStats {
        *self.exec.borrow()
    }

    /// Pushes the current [`CacheStats`] onto the device trace ring
    /// buffer (`TraceEvent::CacheStats`) for debugging.
    pub fn trace_cache_stats(&self, dev: &mut Device) {
        let s = self.cache_stats();
        dev.trace_push(artemis_core::trace::TraceEvent::CacheStats {
            hits: s.hits,
            misses: s.misses,
            invalidations: s.invalidations,
        });
    }

    /// Re-syncs the shadow cache with the device's reboot epoch —
    /// called on entry to every public path that touches FRAM. An
    /// epoch mismatch means at least one power failure happened since
    /// the cache was filled: SRAM was lost, and a torn commit may be
    /// pending, so the whole cache is invalidated in O(1) and the next
    /// recovery/read refills it (after journal replay — see the module
    /// docs for why replay-then-invalidate is safe).
    fn cache_sync(&self, dev: &Device) {
        if let Some(cache) = &self.cache {
            let mut c = cache.borrow_mut();
            let epoch = dev.sram().generation();
            if c.epoch != epoch {
                c.epoch = epoch;
                c.wipe();
                c.stats.invalidations += 1;
            }
        }
    }

    /// Defensive wholesale invalidation after an entry point returned
    /// `Err` (a power failure mid-delivery): anything staged since the
    /// last commit is suspect, so drop it all. Silent on the counters —
    /// the epoch sync after the reboot accounts the invalidation.
    fn cache_wipe(&self) {
        if let Some(cache) = &self.cache {
            cache.borrow_mut().wipe();
        }
    }

    /// Mutates the shadow cache; no-op when caching is disabled. Used
    /// by the write-through points (after successful commits/writes) —
    /// never from a failure path.
    fn cache_put(&self, f: impl FnOnce(&mut ShadowCache)) {
        if let Some(cache) = &self.cache {
            f(&mut cache.borrow_mut());
        }
    }

    /// Journal recovery with the known-clean fast path: once recovery
    /// (or a completed commit) has left the journal idle in this
    /// epoch, the flag re-read is skipped entirely.
    fn recover_cached(&self, dev: &mut Device) -> Result<(), Interrupt> {
        let Some(cache) = &self.cache else {
            dev.recover(&self.journal)?;
            return Ok(());
        };
        if cache.borrow().journal_clean {
            cache.borrow_mut().stats.hits += 1;
            return Ok(());
        }
        dev.recover(&self.journal)?;
        let mut c = cache.borrow_mut();
        c.journal_clean = true;
        c.stats.misses += 1;
        Ok(())
    }

    /// Generic shadow-aware scalar read: serve from the shadow when
    /// present, else read FRAM and fill the shadow.
    fn cache_read<T: Clone>(
        &self,
        dev: &mut Device,
        get: impl Fn(&ShadowCache) -> Option<T>,
        put: impl Fn(&mut ShadowCache, &T),
        read: impl FnOnce(&mut Device) -> Result<T, Interrupt>,
    ) -> Result<T, Interrupt> {
        let Some(cache) = &self.cache else {
            return read(dev);
        };
        let hit = get(&cache.borrow());
        if let Some(v) = hit {
            cache.borrow_mut().stats.hits += 1;
            return Ok(v);
        }
        let v = read(dev)?;
        let mut c = cache.borrow_mut();
        put(&mut c, &v);
        c.stats.misses += 1;
        Ok(v)
    }

    /// [`MonitorEngine::cache_read`] for a variable-length region:
    /// fills `out` from the shadow `shadow` selects when it is live,
    /// else through `read` from FRAM, refilling the shadow in place.
    fn cache_read_buf<T: Copy>(
        &self,
        dev: &mut Device,
        shadow: impl Fn(&mut ShadowCache) -> &mut ShadowBuf<T>,
        out: &mut Vec<T>,
        read: impl FnOnce(&mut Device, &mut Vec<T>) -> Result<(), Interrupt>,
    ) -> Result<(), Interrupt> {
        out.clear();
        let Some(cache) = &self.cache else {
            return read(dev, out);
        };
        {
            let mut c = cache.borrow_mut();
            if let Some(v) = shadow(&mut c).get() {
                out.extend_from_slice(v);
                c.stats.hits += 1;
                return Ok(());
            }
        }
        read(dev, out)?;
        let mut c = cache.borrow_mut();
        shadow(&mut c).set(out);
        c.stats.misses += 1;
        Ok(())
    }

    /// The persistent state of `lane`.
    fn lane(&self, lane: Lane) -> &LaneState {
        match lane {
            Lane::Event => &self.events,
            Lane::Batch => {
                &self
                    .batch
                    .as_ref()
                    .expect("batch lane without batch state")
                    .lane
            }
        }
    }

    /// Shadow-aware read of a lane's worklist count (0 = nothing
    /// armed). A cold count read only fills the shadow when the list is
    /// empty — a non-empty list's items are still unknown, and the
    /// shadow never stores partial knowledge. A count above the suite
    /// size faults with [`Fault::CorruptState`]: no commit arms more
    /// machines than are installed.
    fn read_count(&self, dev: &mut Device, lane: Lane) -> Result<usize, Interrupt> {
        if let Some(cache) = &self.cache {
            let hit = cache.borrow().lanes[lane as usize]
                .worklist
                .get()
                .map(<[u16]>::len);
            if let Some(n) = hit {
                cache.borrow_mut().stats.hits += 1;
                return Ok(n);
            }
        }
        let bytes = dev.nv_read_raw(self.lane(lane).worklist_addr, 2)?;
        let n = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
        if n > self.machines.len() {
            return Err(Interrupt::Fault(Fault::CorruptState));
        }
        self.cache_put(|c| {
            if n == 0 {
                c.lanes[lane as usize].worklist.set(&[]);
            }
            c.stats.misses += 1;
        });
        Ok(n)
    }

    /// Shadow-aware read of a lane's worklist items (`count` already
    /// known and non-zero) into `out`; a cold read is one FRAM op after
    /// the count's. An item naming no installed machine faults with
    /// [`Fault::CorruptState`].
    fn read_items(
        &self,
        dev: &mut Device,
        lane: Lane,
        count: usize,
        out: &mut Vec<u16>,
    ) -> Result<(), Interrupt> {
        out.clear();
        if let Some(cache) = &self.cache {
            if let Some(list) = cache.borrow().lanes[lane as usize].worklist.get() {
                if list.len() == count {
                    out.extend_from_slice(list);
                }
            }
            if !out.is_empty() {
                cache.borrow_mut().stats.hits += 1;
                return Ok(());
            }
        }
        let bytes = dev.nv_read_raw(self.lane(lane).worklist_addr + 2, count * 2)?;
        out.extend(
            bytes
                .chunks_exact(2)
                .map(|ch| u16::from_le_bytes([ch[0], ch[1]])),
        );
        if out.iter().any(|&i| i as usize >= self.machines.len()) {
            return Err(Interrupt::Fault(Fault::CorruptState));
        }
        self.cache_put(|c| {
            c.lanes[lane as usize].worklist.set(out);
            c.stats.misses += 1;
        });
        Ok(())
    }

    /// Shadow-aware read of a lane's completion bitmap into `out`.
    fn read_done(&self, dev: &mut Device, lane: Lane, out: &mut Vec<u8>) -> Result<(), Interrupt> {
        let cell = &self.lane(lane).done;
        self.cache_read_buf(
            dev,
            |c| &mut c.lanes[lane as usize].done,
            out,
            |d, out| {
                out.extend_from_slice(d.nv_read_raw(cell.addr, cell.len)?);
                Ok(())
            },
        )
    }

    /// `true` iff `lane` holds an armed worklist with unfinished
    /// entries (an interrupted delivery).
    fn lane_pending(&self, dev: &mut Device, lane: Lane) -> Result<bool, Interrupt> {
        let count = self.read_count(dev, lane)?;
        if count == 0 {
            return Ok(false);
        }
        let done = &mut self.armed.borrow_mut().done;
        self.read_done(dev, lane, done)?;
        Ok(!all_done(done, count))
    }

    /// Fills `scratch.block` with the first `span` bytes of machine
    /// `i`'s block image — from the shadow when warm, else one
    /// whole-block FRAM read that also refills the shadow, so the
    /// *next* touch is free.
    fn load_block(
        &self,
        dev: &mut Device,
        i: usize,
        addr: usize,
        len: usize,
        span: usize,
        scratch: &mut Scratch,
    ) -> Result<(), Interrupt> {
        let layout = self.compiled.machines()[i].layout();
        let cache = self
            .cache
            .as_ref()
            .expect("compiled engines keep a shadow cache");
        let hit = {
            let c = cache.borrow();
            let ms = &c.machines[i];
            if ms.gen == c.gen {
                layout.encode(ms.state, &ms.vars, &mut scratch.block);
                true
            } else {
                false
            }
        };
        if hit {
            cache.borrow_mut().stats.hits += 1;
        } else {
            {
                let bytes = dev.nv_read_raw(addr, len)?;
                scratch.block.clear();
                scratch.block.extend_from_slice(bytes);
            }
            let mut c = cache.borrow_mut();
            let ShadowCache { gen, machines, .. } = &mut *c;
            let ms = &mut machines[i];
            layout.decode(&scratch.block, &mut ms.state, &mut ms.vars);
            ms.gen = *gen;
            c.stats.misses += 1;
        }
        scratch.block.truncate(span);
        Ok(())
    }

    /// Write-through after a successful machine-step commit: fold the
    /// new state and the committed prefix `vars` (slots `0..len`) back
    /// into machine `i`'s shadow, so FRAM and shadow agree again. The
    /// step loaded the machine before committing, so its shadow is
    /// live; a dead one stays dead (partial knowledge is never stored).
    fn shadow_machine_update(&self, i: usize, state: u32, vars: &[Value]) {
        self.cache_put(|c| {
            let gen = c.gen;
            let ms = &mut c.machines[i];
            if ms.gen == gen {
                ms.state = state;
                ms.vars[..vars.len()].copy_from_slice(vars);
            }
        });
    }

    /// Shadow-aware read of the verdict-log length.
    fn read_verdict_count_cached(&self, dev: &mut Device) -> Result<u32, Interrupt> {
        self.cache_read(
            dev,
            |c| c.verdict_count,
            |c, v| c.verdict_count = Some(*v),
            |d| d.nv_read(&self.verdict_count),
        )
    }

    /// Shadow-aware read of one verdict cell.
    fn read_verdict_cell_cached(
        &self,
        dev: &mut Device,
        slot: usize,
    ) -> Result<VerdictCell, Interrupt> {
        self.cache_read(
            dev,
            |c| (c.verdicts[slot].0 == c.gen).then_some(c.verdicts[slot].1),
            |c, v| {
                let gen = c.gen;
                c.verdicts[slot] = (gen, *v);
            },
            |d| d.nv_read(&self.verdict_cells[slot]),
        )
    }

    /// Shadow-aware read of the armed batch's encoded event array into
    /// `out` (count word + payload — two FRAM ops cold, zero warm). A
    /// count above the batch capacity faults with
    /// [`Fault::CorruptState`].
    fn read_batch_events(
        &self,
        dev: &mut Device,
        bs: &BatchState,
        out: &mut Vec<EncodedEvent>,
    ) -> Result<(), Interrupt> {
        self.cache_read_buf(
            dev,
            |c| &mut c.batch_events,
            out,
            |d, out| {
                let n = {
                    let b = d.nv_read_raw(bs.events_addr, 2)?;
                    u16::from_le_bytes([b[0], b[1]]) as usize
                };
                if n > bs.max_events {
                    return Err(Interrupt::Fault(Fault::CorruptState));
                }
                let bytes = d.nv_read_raw(bs.events_addr + 2, n * EncodedEvent::SIZE)?;
                out.extend(
                    bytes
                        .chunks_exact(EncodedEvent::SIZE)
                        .map(EncodedEvent::load),
                );
                Ok(())
            },
        )
    }

    /// Costless read of every machine's persistent `(state, vars)` —
    /// the FRAM-visible monitor state, independent of storage layout.
    /// For differential tests and debugging; does not bill the device.
    pub fn snapshot(&self, dev: &Device) -> Vec<(u32, Vec<Value>)> {
        self.machines
            .iter()
            .zip(self.compiled.machines())
            .map(|(lm, cm)| match &lm.store {
                MachineStore::Cells {
                    state_cell,
                    var_cells,
                } => (
                    dev.peek(state_cell),
                    var_cells.iter().map(|c| dev.peek(c).0).collect(),
                ),
                MachineStore::Block { addr, len } => {
                    let mut vars = Vec::new();
                    let mut state = 0u32;
                    cm.layout()
                        .decode(dev.peek_raw(*addr, *len), &mut state, &mut vars);
                    (state, vars)
                }
            })
            .collect()
    }

    /// Number of installed machines.
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// Machine names, in suite order.
    pub fn machine_names(&self) -> Vec<String> {
        self.machines
            .iter()
            .map(|m| m.machine.name.clone())
            .collect()
    }

    /// Refills the shadows of the machines `reset` selects with their
    /// initial images (after a commit that re-imaged them).
    fn shadow_reset_machines(&self, reset: impl Fn(&LoadedMachine) -> bool) {
        self.cache_put(|c| {
            c.journal_clean = true;
            let ShadowCache { gen, machines, .. } = &mut *c;
            for ((ms, lm), cm) in machines
                .iter_mut()
                .zip(&self.machines)
                .zip(self.compiled.machines())
            {
                if reset(lm) {
                    cm.layout()
                        .decode(&lm.initial_image, &mut ms.state, &mut ms.vars);
                    ms.gen = *gen;
                }
            }
        });
    }

    /// Hard reset: re-initialises every machine and clears the pending
    /// event (Figure 8 `resetMonitor`; run once at first boot).
    pub fn reset_monitor(&self, dev: &mut Device) -> Result<(), Interrupt> {
        let r = dev.billed(CostCategory::Monitor, |dev| {
            self.cache_sync(dev);
            let mut tx = TxWriter::new();
            for lm in &self.machines {
                stage_machine_reset(&mut tx, lm);
            }
            tx.write(&self.verdict_count, 0u32);
            tx.write(&self.seq_cell, 0u64);
            self.events.clear(&mut tx);
            if let Some(bs) = &self.batch {
                tx.write(&bs.seq_cell, 0u64);
                tx.write_zeroed(bs.events_addr, 2);
                bs.lane.clear(&mut tx);
            }
            dev.commit(&self.journal, &tx)?;
            // The reset commit just (re)wrote every location the cache
            // mirrors — fill all the shadows, so even the first event
            // after a reset runs write-only.
            self.cache_put(|c| {
                c.seq = Some(0);
                c.verdict_count = Some(0);
                c.arm(Lane::Event, &[], self.events.done.len);
                if let Some(bs) = &self.batch {
                    c.batch_seq = Some(0);
                    c.batch_events.set(&[]);
                    c.arm(Lane::Batch, &[], bs.lane.done.len);
                }
            });
            self.shadow_reset_machines(|_| true);
            Ok(())
        });
        if r.is_err() {
            self.cache_wipe();
        }
        r
    }

    /// Completes an event interrupted by a power failure, if any
    /// (Figure 8 `monitorFinalize`; run on every reboot before task
    /// processing). Returns `true` if there was work to finish.
    pub fn monitor_finalize(&self, dev: &mut Device) -> Result<bool, Interrupt> {
        let r = dev.billed(CostCategory::Monitor, |dev| {
            self.cache_sync(dev);
            // Repair a torn journal commit first.
            self.recover_cached(dev)?;
            // An interrupted batch or event resumes from its first
            // incomplete worklist entry (the events and worklist were
            // fixed by the arming commit).
            let lanes: &[Lane] = if self.batch.is_some() {
                &[Lane::Batch, Lane::Event]
            } else {
                &[Lane::Event]
            };
            for &lane in lanes {
                if self.lane_pending(dev, lane)? {
                    self.run_lane(dev, lane)?;
                    return Ok(true);
                }
            }
            Ok(false)
        });
        if r.is_err() {
            self.cache_wipe();
        }
        r
    }

    /// Delivers one event under a sequence number and returns the
    /// verdicts of every machine that reported a violation.
    ///
    /// Re-delivering a sequence number the engine has already processed
    /// (fully or partially) does not re-step machines; it finishes any
    /// pending work and returns the recorded verdicts.
    pub fn call_monitor(
        &self,
        dev: &mut Device,
        seq: u64,
        event: &MonitorEvent,
    ) -> Result<Vec<MonitorVerdict>, Interrupt> {
        let r = dev.billed(CostCategory::Monitor, |dev| {
            self.cache_sync(dev);
            self.recover_cached(dev)?;
            let last_seq = self.cache_read(
                dev,
                |c| c.seq,
                |c, v| c.seq = Some(*v),
                |d| d.nv_read(&self.seq_cell),
            )?;
            if last_seq != seq {
                // Arm atomically with one sparse record: event, seq,
                // verdict reset, armed worklist and cleared bitmap — a
                // failure after this commit resumes exactly the armed
                // set, a failure before it re-arms cleanly.
                let encoded = EncodedEvent::from_event(event, dev.energy_level().as_nano_joules());
                dev.compute(ROUTING_LOOKUP_CYCLES)?;
                self.compute_worklist(&encoded);
                let scratch = &mut *self.scratch.borrow_mut();
                let worklist = &scratch.worklist;
                let stx = &mut scratch.stx;
                stx.clear();
                stx.push(&self.event_cell, encoded);
                stx.push(&self.seq_cell, seq);
                stx.push(&self.verdict_count, 0u32);
                self.events.arm(stx, worklist);
                dev.commit_sparse(&self.journal, stx)?;
                // The arming commit fixed every activation input —
                // shadow them all, so the worklist walk below reads
                // nothing from FRAM.
                self.cache_put(|c| {
                    c.journal_clean = true;
                    c.seq = Some(seq);
                    c.event = Some(encoded);
                    c.verdict_count = Some(0);
                    c.arm(Lane::Event, worklist, self.events.done.len);
                });
            }
            self.run_lane(dev, Lane::Event)?;
            self.read_verdicts(dev)
        });
        if r.is_err() {
            self.cache_wipe();
        }
        r
    }

    /// Delivers a burst of events under consecutive sequence numbers
    /// (`first_seq`, `first_seq + 1`, …) through the group-commit path
    /// and returns one verdict list per event, in delivery order.
    ///
    /// One sparse transaction arms the whole batch (event array, batch
    /// sequence, merged worklist, cleared bitmap); each interested
    /// machine then steps through all its events in volatile scratch
    /// and commits its coalesced net effect once. Redelivering a
    /// processed batch (same `first_seq` and events) only finishes
    /// pending machines and returns the recorded verdicts. Bursts
    /// longer than the installed capacity split into maximal groups;
    /// engines without batch state fall back to per-event delivery.
    pub fn deliver_batch(
        &self,
        dev: &mut Device,
        first_seq: u64,
        events: &[MonitorEvent],
    ) -> Result<Vec<Vec<MonitorVerdict>>, Interrupt> {
        let Some(bs) = &self.batch else {
            let mut out = Vec::with_capacity(events.len());
            for (i, event) in events.iter().enumerate() {
                out.push(self.call_monitor(dev, first_seq + i as u64, event)?);
            }
            return Ok(out);
        };
        if events.is_empty() {
            return Ok(Vec::new());
        }
        if events.len() > bs.max_events {
            let mut out = Vec::with_capacity(events.len());
            for (ci, chunk) in events.chunks(bs.max_events).enumerate() {
                let seq = first_seq + (ci * bs.max_events) as u64;
                out.extend(self.deliver_batch(dev, seq, chunk)?);
            }
            return Ok(out);
        }
        assert!(first_seq >= 1, "sequence numbers start at 1");

        let r = dev.billed(CostCategory::Monitor, |dev| {
            self.cache_sync(dev);
            self.recover_cached(dev)?;
            let last = self.cache_read(
                dev,
                |c| c.batch_seq,
                |c, v| c.batch_seq = Some(*v),
                |d| d.nv_read(&bs.seq_cell),
            )?;
            if last != first_seq {
                // Arm the whole batch atomically: the encoded event
                // array, the batch sequence, the verdict reset, the
                // MERGED interested worklist, and the cleared bitmap —
                // one staged record, five sub-writes, no matter how
                // many events the burst carries.
                dev.compute(ROUTING_LOOKUP_CYCLES * events.len() as u64)?;
                let mut region = vec![0u8; 2 + EncodedEvent::SIZE * events.len()];
                region[0..2].copy_from_slice(&(events.len() as u16).to_le_bytes());
                let mut merged: Vec<u16> = Vec::new();
                let mut encoded_events = Vec::with_capacity(events.len());
                for (i, event) in events.iter().enumerate() {
                    let encoded =
                        EncodedEvent::from_event(event, dev.energy_level().as_nano_joules());
                    let off = 2 + EncodedEvent::SIZE * i;
                    encoded.store(&mut region[off..off + EncodedEvent::SIZE]);
                    self.compute_worklist(&encoded);
                    merged.extend_from_slice(&self.scratch.borrow().worklist);
                    encoded_events.push(encoded);
                }
                merged.sort_unstable();
                merged.dedup();

                let stx = &mut self.scratch.borrow_mut().stx;
                stx.clear();
                stx.push_raw(bs.events_addr, &region);
                stx.push(&bs.seq_cell, first_seq);
                stx.push(&self.verdict_count, 0u32);
                bs.lane.arm(stx, &merged);
                dev.commit_sparse(&self.journal, stx)?;
                // Shadow the whole armed batch: the window below runs
                // without a single FRAM read.
                self.cache_put(|c| {
                    c.journal_clean = true;
                    c.batch_seq = Some(first_seq);
                    c.batch_events.set(&encoded_events);
                    c.verdict_count = Some(0);
                    c.arm(Lane::Batch, &merged, bs.lane.done.len);
                });
            }
            self.run_lane(dev, Lane::Batch)?;
            self.read_batch_verdicts(dev, events.len())
        });
        if r.is_err() {
            self.cache_wipe();
        }
        r
    }

    /// Steps the pending entries of `lane`'s armed worklist.
    /// Everything the loop depends on — the events, the worklist, each
    /// entry's event mask (a deterministic function of the stored
    /// events) — was fixed by the arming commit, so a resume after any
    /// power failure processes exactly the armed set; completed entries
    /// are skipped via the bitmap, and the events are decoded once per
    /// activation instead of once per machine.
    fn run_lane(&self, dev: &mut Device, lane: Lane) -> Result<(), Interrupt> {
        let count = self.read_count(dev, lane)?;
        if count == 0 {
            return Ok(());
        }
        let armed = &mut *self.armed.borrow_mut();
        self.read_done(dev, lane, &mut armed.done)?;
        if all_done(&armed.done, count) {
            return Ok(());
        }

        self.read_items(dev, lane, count, &mut armed.items)?;
        armed.masks.clear();
        match lane {
            Lane::Event => {
                // Every worklisted machine is interested in the one
                // event: routing and the `Path:` filter ran at arming.
                let encoded = self.cache_read(
                    dev,
                    |c| c.event,
                    |c, v| c.event = Some(*v),
                    |d| d.nv_read(&self.event_cell),
                )?;
                armed.events.clear();
                armed.events.push(encoded);
                armed.masks.resize(count, 1);
            }
            Lane::Batch => {
                let bs = self.batch.as_ref().expect("batch lane without batch state");
                self.read_batch_events(dev, bs, &mut armed.events)?;
                dev.compute(ROUTING_LOOKUP_CYCLES * armed.events.len() as u64)?;
                armed.masks.resize(count, 0);
                for (e, encoded) in armed.events.iter().enumerate() {
                    self.compute_worklist(encoded);
                    for mi in &self.scratch.borrow().worklist {
                        // The merged worklist is sorted.
                        if let Ok(j) = armed.items.binary_search(mi) {
                            armed.masks[j] |= 1 << e;
                        }
                    }
                }
            }
        }

        for j in 0..count {
            if done_bit(&armed.done, j) {
                continue;
            }
            armed.done[j / 8] |= 1 << (j % 8);
            let i = armed.items[j] as usize;
            let done = &armed.done;
            match self.mode {
                ExecMode::Compiled => {
                    self.step_block(dev, i, &armed.events, armed.masks[j], lane, done)?
                }
                ExecMode::Interpreter => self.step_interpreted(dev, i, &armed.events[0], done)?,
            }
        }
        Ok(())
    }

    /// Steps compiled machine `i` through every event of `events` whose
    /// bit is set in `mask`, in delivery order, and commits the
    /// **coalesced** net effect once: repeated writes to a slot
    /// collapse to the last value in scratch, and the sparse record
    /// carries the changed byte runs of the covered block prefix (the
    /// whole block image for degraded keys), one verdict cell per
    /// emitting event, and
    /// `lane`'s bitmap `done` — which already has this machine's bit
    /// set. The one step function of both the per-event (one-event
    /// mask) and the batch lane.
    fn step_block(
        &self,
        dev: &mut Device,
        i: usize,
        events: &[EncodedEvent],
        mask: u32,
        lane: Lane,
        done: &[u8],
    ) -> Result<(), Interrupt> {
        let lm = &self.machines[i];
        let MachineStore::Block { addr, len } = lm.store else {
            unreachable!("compiled mode allocates block storage");
        };
        let cm = &self.compiled.machines()[i];
        let layout = cm.layout();
        let kind_of = |encoded: &EncodedEvent| {
            if encoded.kind == 0 {
                EventKind::StartTask
            } else {
                EventKind::EndTask
            }
        };

        // Merge the static footprints of the events this machine will
        // actually dispatch and bill each dispatch-table test plus the
        // key's static compute ceiling (cycle-priced worst path through
        // the dispatched transitions). Static and state-independent, so
        // the charge never leaks machine state — and the bounds/energy
        // passes price the exact same table.
        let mut access: Option<Cow<AccessSet>> = None;
        let mut step_mask = 0u32;
        let mut cycles = 0u64;
        for (e, encoded) in events.iter().enumerate() {
            if mask & (1 << e) == 0 {
                continue;
            }
            let kind = kind_of(encoded);
            cycles += COMPILED_DISPATCH_CYCLES;
            if cm.dispatch_len(kind, encoded.task) > 0 {
                cycles += cm.step_cost(kind, encoded.task).cycles;
                let key = cm.access(kind, encoded.task);
                match &mut access {
                    None => access = Some(Cow::Borrowed(key)),
                    Some(a) => a.to_mut().union_with(key),
                }
                step_mask |= 1 << e;
            }
        }
        dev.compute(cycles)?;
        let Some(access) = access else {
            // Every event dismissed: plain idempotent done write.
            return self.finish_plain(dev, lane, done);
        };

        // Degraded keys load and commit the full block image; sparse
        // ones the covering span.
        let whole = access.whole_block;
        let (covered, span) = if whole {
            (layout.var_count(), len)
        } else {
            let max = access.max_touched_slot();
            (max.map_or(0, |s| s as usize + 1), layout.span(max))
        };

        let scratch = &mut *self.scratch.borrow_mut();
        self.load_block(dev, i, addr, len, span, scratch)?;
        let mut state = 0u32;
        layout.decode_prefix(&scratch.block, covered, &mut state, &mut scratch.vars);
        scratch.vars.resize(cm.var_count(), Value::Int(0));

        scratch.emits.clear();
        for (e, encoded) in events.iter().enumerate() {
            if step_mask & (1 << e) == 0 {
                continue;
            }
            let event = CompiledEvent {
                kind: kind_of(encoded),
                task: encoded.task,
                ctx: EventCtx {
                    time_us: encoded.timestamp_us,
                    dep_data: encoded.dep_data(),
                    energy_nj: encoded.energy_nj,
                },
            };
            // Evaluation errors cannot occur on verified machines;
            // treat them as accept-silently to keep the monitor total
            // (the C monitor has no error channel either). Partial
            // variable mutations are kept, matching the interpreter's
            // observable effects.
            let mut executed = 0u64;
            let emit = cm
                .step_counting(
                    &mut state,
                    &mut scratch.vars,
                    &event,
                    &mut scratch.regs,
                    &mut executed,
                )
                .unwrap_or(None);
            {
                let mut exec = self.exec.borrow_mut();
                exec.instructions += executed;
                exec.machine_steps += 1;
            }
            if let Some(fail) = emit {
                scratch
                    .emits
                    .push((e, fail.action, fail.path.or(lm.machine.path)));
            }
        }

        // Re-encode and compare byte for byte against the loaded image
        // (canonical encoding makes the comparison exact). A degraded
        // key commits its whole block as one run whenever it commits
        // at all; a sparse key commits only the changed runs.
        let changed = if whole {
            layout.encode(state, &scratch.vars, &mut scratch.block_new);
            scratch.runs.clear();
            scratch.runs.push((0, len));
            scratch.block_new != scratch.block
        } else {
            layout.encode_prefix(state, &scratch.vars, covered, &mut scratch.block_new);
            diff_runs(&scratch.block, &scratch.block_new, &mut scratch.runs);
            !scratch.runs.is_empty()
        };
        let emits = &scratch.emits;
        if emits.is_empty() && !changed {
            return self.finish_plain(dev, lane, done);
        }

        let stx = &mut scratch.stx;
        stx.clear();
        for &(s, e) in &scratch.runs {
            stx.push_raw(addr + s, &scratch.block_new[s..e]);
        }
        let mut count = 0;
        let cell = |(e, action, path): &(usize, OnFail, Option<u32>)| -> VerdictCell {
            (
                i as u32 | ((*e as u32) << 16),
                encode_action(*action, *path),
            )
        };
        if !emits.is_empty() {
            count = self.read_verdict_count_cached(dev)?;
            for (k, emit) in emits.iter().enumerate() {
                stx.push(&self.verdict_cells[count as usize + k], cell(emit));
            }
            stx.push(&self.verdict_count, count + emits.len() as u32);
        }
        stx.push_raw(self.lane(lane).done.addr, done);
        dev.commit_sparse(&self.journal, stx)?;
        self.shadow_machine_update(i, state, &scratch.vars[..covered]);
        self.cache_put(|c| {
            c.journal_clean = true;
            c.set_done(lane, done);
            if !emits.is_empty() {
                let gen = c.gen;
                for (k, emit) in emits.iter().enumerate() {
                    c.verdicts[count as usize + k] = (gen, cell(emit));
                }
                c.verdict_count = Some(count + emits.len() as u32);
            }
        });
        Ok(())
    }

    /// Marks a step with no FRAM effects complete: one plain idempotent
    /// write of `lane`'s bitmap (re-execution after a power failure is
    /// harmless).
    fn finish_plain(&self, dev: &mut Device, lane: Lane, done: &[u8]) -> Result<(), Interrupt> {
        dev.nv_write_raw(self.lane(lane).done.addr, done)?;
        self.cache_put(|c| c.set_done(lane, done));
        Ok(())
    }

    /// Regroups the verdict log of the armed batch by event position.
    /// Machines run in ascending suite order and push their events in
    /// delivery order, so each per-event list comes back in the same
    /// machine order the per-event path produces.
    fn read_batch_verdicts(
        &self,
        dev: &mut Device,
        n_events: usize,
    ) -> Result<Vec<Vec<MonitorVerdict>>, Interrupt> {
        let mut out = vec![Vec::new(); n_events];
        let count = self.read_verdict_count_cached(dev)?;
        for slot in 0..count {
            let (packed, encoded) = self.read_verdict_cell_cached(dev, slot as usize)?;
            let e = (packed >> 16) as usize;
            let mi = (packed & 0xFFFF) as usize;
            if let (Some(list), Some(action)) = (out.get_mut(e), decode_action(encoded)) {
                list.push(MonitorVerdict {
                    machine_index: mi,
                    machine: self.machines[mi].machine.name.clone(),
                    action,
                });
            }
        }
        for list in &mut out {
            list.sort_by_key(|v| v.machine_index);
        }
        Ok(out)
    }

    /// Largest burst the group-commit path can arm at once (1 when
    /// batching is disabled or fell back at install time).
    pub fn batch_capacity(&self) -> usize {
        self.batch.as_ref().map_or(1, |b| b.max_events)
    }

    /// Static gate for runtime bursts: `true` iff no machine interested
    /// in `EndTask(task)` has an emitting transition in that dispatch
    /// list — delivering the event can then never produce a verdict, so
    /// the runtime may fold it into a batch whose later events must not
    /// depend on its (necessarily empty) verdicts.
    pub fn end_event_is_silent(&self, task: TaskId) -> bool {
        self.compiled
            .routing()
            .interested(EventKind::EndTask, task.0)
            .iter()
            .all(|&mi| !self.compiled.machines()[mi as usize].may_emit(EventKind::EndTask, task.0))
    }

    /// Reads back the verdicts of the most recently processed event.
    pub fn last_verdicts(&self, dev: &mut Device) -> Result<Vec<MonitorVerdict>, Interrupt> {
        dev.billed(CostCategory::Monitor, |dev| {
            self.cache_sync(dev);
            self.read_verdicts(dev)
        })
    }

    /// Re-initialises the machines affected by a restart of `path`
    /// (paper §3.3: monitors linked to tasks of a restarted path).
    pub fn on_path_restart(&self, dev: &mut Device, path: PathId) -> Result<(), Interrupt> {
        let affected = |lm: &LoadedMachine| {
            lm.machine.reset_on_path_restart && lm.machine.path == Some(path.number())
        };
        let r = dev.billed(CostCategory::Monitor, |dev| {
            self.cache_sync(dev);
            let mut tx = TxWriter::new();
            for lm in self.machines.iter().filter(|lm| affected(lm)) {
                stage_machine_reset(&mut tx, lm);
            }
            dev.commit(&self.journal, &tx)?;
            // The commit rewrote the affected machines' images to
            // their initial snapshots — mirror that in their shadows.
            self.shadow_reset_machines(affected);
            Ok(())
        });
        if r.is_err() {
            self.cache_wipe();
        }
        r
    }

    /// Computes the event's worklist into the scratch buffer: in
    /// compiled mode the routing-index lookup plus the dynamic `Path:`
    /// filter, both deterministic functions of the event; the
    /// interpreter arms every machine and dismisses in its step.
    fn compute_worklist(&self, encoded: &EncodedEvent) {
        let scratch = &mut *self.scratch.borrow_mut();
        scratch.worklist.clear();
        if self.mode == ExecMode::Interpreter {
            scratch
                .worklist
                .extend((0..self.machines.len()).map(|i| i as u16));
            return;
        }
        let kind = if encoded.kind == 0 {
            EventKind::StartTask
        } else {
            EventKind::EndTask
        };
        for &mi in self.compiled.routing().interested(kind, encoded.task) {
            if !path_dismissed(&self.machines[mi as usize], encoded) {
                scratch.worklist.push(mi);
            }
        }
    }

    /// Interpreter step: the reference path over per-variable cells,
    /// committing the changed cells, any verdict and `done` (the event
    /// lane's bitmap with this machine's bit set) in one entry-list
    /// transaction.
    fn step_interpreted(
        &self,
        dev: &mut Device,
        i: usize,
        encoded: &EncodedEvent,
        done: &[u8],
    ) -> Result<(), Interrupt> {
        let lm = &self.machines[i];
        let MachineStore::Cells {
            state_cell,
            var_cells,
        } = &lm.store
        else {
            unreachable!("interpreter mode allocates cell storage");
        };

        // Cheap dismissals first — the generated C's trigger test. A
        // dismissed machine cannot change state, so its step completion
        // is a plain bitmap write (re-execution is harmless).
        let dismissed = path_dismissed(lm, encoded)
            || matches!(&lm.observed, Some(tasks) if !tasks.contains(&encoded.task));
        if dismissed {
            dev.compute(STEP_BASE_CYCLES)?;
            return self.finish_plain(dev, Lane::Event, done);
        }

        // Model the compute cost of the generated step function.
        dev.compute(
            STEP_BASE_CYCLES + STEP_PER_TRANSITION_CYCLES * lm.machine.transitions.len() as u64,
        )?;

        let task_name = self.compiled.task_name(encoded.task);

        let scratch = &mut *self.scratch.borrow_mut();
        let before_state = dev.nv_read(state_cell)?;
        scratch.vars.clear();
        for c in var_cells {
            scratch.vars.push(dev.nv_read(c)?.0);
        }
        scratch.before_vars.clear();
        scratch.before_vars.extend_from_slice(&scratch.vars);

        let mut mstate = MachineState {
            state: before_state,
            vars: core::mem::take(&mut scratch.vars),
        };

        let ir_event = IrEvent {
            kind: if encoded.kind == 0 {
                EventKind::StartTask
            } else {
                EventKind::EndTask
            },
            task: task_name,
            ctx: EventCtx {
                time_us: encoded.timestamp_us,
                dep_data: encoded.dep_data(),
                energy_nj: encoded.energy_nj,
            },
        };

        // Evaluation errors cannot occur on validated machines; treat
        // them as accept-silently to keep the monitor total (the C
        // monitor has no error channel either).
        let emit = step(&lm.machine, &mut mstate, &ir_event).unwrap_or(None);
        scratch.vars = mstate.vars;

        // Implicit self-transition with no effects: plain bitmap write,
        // no journal round-trip (matches the generated C, which only
        // touches FRAM on actual assignments).
        if emit.is_none() && mstate.state == before_state && scratch.vars == scratch.before_vars {
            return self.finish_plain(dev, Lane::Event, done);
        }

        let mut tx = TxWriter::new();
        if mstate.state != before_state {
            tx.write(state_cell, mstate.state);
        }
        for ((cell, v), old) in var_cells
            .iter()
            .zip(&scratch.vars)
            .zip(&scratch.before_vars)
        {
            if v != old {
                tx.write(cell, NvValue(*v));
            }
        }
        if let Some(fail) = emit {
            let count = self.read_verdict_count_cached(dev)?;
            let value = (
                i as u32,
                encode_action(fail.action, fail.path.or(lm.machine.path)),
            );
            tx.write(&self.verdict_cells[count as usize], value);
            tx.write(&self.verdict_count, count + 1);
        }
        tx.write_raw(self.events.done.addr, done);
        dev.commit(&self.journal, &tx)
    }

    fn read_verdicts(&self, dev: &mut Device) -> Result<Vec<MonitorVerdict>, Interrupt> {
        let count = self.read_verdict_count_cached(dev)?;
        // No verdicts, no allocation: an empty `Vec` owns no heap.
        let mut out = Vec::with_capacity(count as usize);
        for slot in 0..count {
            let (packed, encoded) = self.read_verdict_cell_cached(dev, slot as usize)?;
            // Batch deliveries pack the event position into the high
            // half-word; the machine index is the low half either way.
            let machine_index = (packed & 0xFFFF) as usize;
            if let Some(action) = decode_action(encoded) {
                out.push(MonitorVerdict {
                    machine_index,
                    machine: self.machines[machine_index].machine.name.clone(),
                    action,
                });
            }
        }
        Ok(out)
    }

    /// Resolves a task's id to the name index used in encoded events.
    pub fn encode_task(task: TaskId) -> u32 {
        task.0
    }
}

/// The `Path:` qualifier (paper §3.2): a property on a merged task is
/// checked only against events from its governing path.
fn path_dismissed(lm: &LoadedMachine, encoded: &EncodedEvent) -> bool {
    match lm.machine.path {
        Some(machine_path) => {
            encoded.path_number != 0 && u32::from(encoded.path_number) != machine_path
        }
        None => false,
    }
}

impl Monitoring for MonitorEngine {
    fn reset_monitor(&self, dev: &mut Device) -> Result<(), Interrupt> {
        MonitorEngine::reset_monitor(self, dev)
    }

    fn monitor_finalize(&self, dev: &mut Device) -> Result<bool, Interrupt> {
        MonitorEngine::monitor_finalize(self, dev)
    }

    fn call_monitor(
        &self,
        dev: &mut Device,
        seq: u64,
        event: &MonitorEvent,
    ) -> Result<Vec<MonitorVerdict>, Interrupt> {
        MonitorEngine::call_monitor(self, dev, seq, event)
    }

    fn deliver_batch(
        &self,
        dev: &mut Device,
        first_seq: u64,
        events: &[MonitorEvent],
    ) -> Result<Vec<Vec<MonitorVerdict>>, Interrupt> {
        MonitorEngine::deliver_batch(self, dev, first_seq, events)
    }

    fn batch_capacity(&self) -> usize {
        MonitorEngine::batch_capacity(self)
    }

    fn end_event_is_silent(&self, task: TaskId) -> bool {
        MonitorEngine::end_event_is_silent(self, task)
    }

    fn last_verdicts(&self, dev: &mut Device) -> Result<Vec<MonitorVerdict>, Interrupt> {
        MonitorEngine::last_verdicts(self, dev)
    }

    fn machine_names(&self) -> Vec<String> {
        MonitorEngine::machine_names(self)
    }

    fn on_path_restart(&self, dev: &mut Device, path: PathId) -> Result<(), Interrupt> {
        MonitorEngine::on_path_restart(self, dev, path)
    }

    fn machine_count(&self) -> usize {
        MonitorEngine::machine_count(self)
    }
}

/// Encodes an action as `(tag, one-based path or 0)`.
pub(crate) fn encode_action_pub(action: OnFail, path: Option<u32>) -> (u8, u32) {
    encode_action(action, path)
}

/// Decodes an action tag back; `None` for unknown tags.
pub(crate) fn decode_action_pub(encoded: (u8, u32)) -> Option<Action> {
    decode_action(encoded)
}

/// Encodes an action as `(tag, one-based path or 0)`.
fn encode_action(action: OnFail, path: Option<u32>) -> (u8, u32) {
    let tag = match action {
        OnFail::RestartTask => 0,
        OnFail::SkipTask => 1,
        OnFail::RestartPath => 2,
        OnFail::SkipPath => 3,
        OnFail::CompletePath => 4,
    };
    (tag, path.unwrap_or(0))
}

fn decode_action(encoded: (u8, u32)) -> Option<Action> {
    let (tag, path_num) = encoded;
    let path = || PathId(path_num.saturating_sub(1));
    Some(match tag {
        0 => Action::RestartTask,
        1 => Action::SkipTask,
        2 => Action::RestartPath(path()),
        3 => Action::SkipPath(path()),
        4 => Action::CompletePath(path()),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use artemis_core::app::AppGraphBuilder;
    use artemis_core::time::SimDuration;
    use intermittent_sim::capacitor::Capacitor;
    use intermittent_sim::device::DeviceBuilder;
    use intermittent_sim::energy::Energy;
    use intermittent_sim::harvester::Harvester;
    use intermittent_sim::simulator::{RunLimit, Simulator};

    fn app() -> AppGraph {
        let mut b = AppGraphBuilder::new();
        let a = b.task("accel");
        let s = b.task("send");
        b.path(&[a, s]);
        b.build().unwrap()
    }

    fn engine(dev: &mut Device, spec: &str) -> (MonitorEngine, AppGraph) {
        let app = app();
        let suite = artemis_ir::compile(spec, &app).unwrap();
        let engine = MonitorEngine::install(dev, suite, &app).unwrap();
        engine.reset_monitor(dev).unwrap();
        (engine, app)
    }

    fn t(us: u64) -> artemis_core::time::SimInstant {
        artemis_core::time::SimInstant::from_micros(us)
    }

    #[test]
    fn max_tries_verdict_flows_through_engine() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let (engine, app) = engine(&mut dev, "accel { maxTries: 2 onFail: skipPath; }");
        let accel = app.task_by_name("accel").unwrap();

        let mut seq = 0u64;
        let mut deliver = |dev: &mut Device, ev: MonitorEvent| {
            seq += 1;
            engine.call_monitor(dev, seq, &ev).unwrap()
        };
        assert!(deliver(&mut dev, MonitorEvent::start(accel, t(0))).is_empty());
        assert!(deliver(&mut dev, MonitorEvent::start(accel, t(1))).is_empty());
        let verdicts = deliver(&mut dev, MonitorEvent::start(accel, t(2)));
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].action, Action::SkipPath(PathId(0)));
        assert!(verdicts[0].machine.starts_with("accel_maxTries"));
    }

    #[test]
    fn same_seq_redelivery_does_not_double_step() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let (engine, app) = engine(
            &mut dev,
            "send { collect: 2 dpTask: accel onFail: restartPath; }",
        );
        let accel = app.task_by_name("accel").unwrap();
        let send = app.task_by_name("send").unwrap();

        // Deliver the same EndTask three times under one seq: it must
        // count as ONE completion.
        let end = MonitorEvent::end(accel, t(10));
        for _ in 0..3 {
            engine.call_monitor(&mut dev, 7, &end).unwrap();
        }
        // One more completion under a fresh seq.
        engine
            .call_monitor(&mut dev, 8, &MonitorEvent::end(accel, t(20)))
            .unwrap();
        // Two completions total: the consumer start must pass.
        let verdicts = engine
            .call_monitor(&mut dev, 9, &MonitorEvent::start(send, t(30)))
            .unwrap();
        assert!(
            verdicts.is_empty(),
            "redelivery double-counted: {verdicts:?}"
        );
    }

    #[test]
    fn verdicts_survive_redelivery_queries() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let (engine, app) = engine(&mut dev, "accel { maxTries: 1 onFail: skipPath; }");
        let accel = app.task_by_name("accel").unwrap();
        engine
            .call_monitor(&mut dev, 1, &MonitorEvent::start(accel, t(0)))
            .unwrap();
        let v1 = engine
            .call_monitor(&mut dev, 2, &MonitorEvent::start(accel, t(1)))
            .unwrap();
        assert_eq!(v1.len(), 1);
        // Same seq again: identical verdicts, no extra stepping.
        let v2 = engine
            .call_monitor(&mut dev, 2, &MonitorEvent::start(accel, t(1)))
            .unwrap();
        assert_eq!(v1, v2);
        assert_eq!(engine.last_verdicts(&mut dev).unwrap(), v1);
    }

    #[test]
    fn path_restart_resets_only_flagged_machines() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let (engine, app) = engine(
            &mut dev,
            "accel { maxTries: 2 onFail: skipPath; }\n\
             send { collect: 2 dpTask: accel onFail: restartPath; }",
        );
        let accel = app.task_by_name("accel").unwrap();

        // Burn one maxTries attempt and one collect completion.
        engine
            .call_monitor(&mut dev, 1, &MonitorEvent::start(accel, t(0)))
            .unwrap();
        engine
            .call_monitor(&mut dev, 2, &MonitorEvent::end(accel, t(1)))
            .unwrap();

        engine.on_path_restart(&mut dev, PathId(0)).unwrap();

        // maxTries (resettable) got a fresh budget: two more starts pass.
        assert!(engine
            .call_monitor(&mut dev, 3, &MonitorEvent::start(accel, t(2)))
            .unwrap()
            .is_empty());
        assert!(engine
            .call_monitor(&mut dev, 4, &MonitorEvent::start(accel, t(3)))
            .unwrap()
            .is_empty());

        // collect (persistent) kept its count: one more end reaches 2.
        engine
            .call_monitor(&mut dev, 5, &MonitorEvent::end(accel, t(4)))
            .unwrap();
        let send = app.task_by_name("send").unwrap();
        assert!(engine
            .call_monitor(&mut dev, 6, &MonitorEvent::start(send, t(5)))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn engine_survives_power_failures_mid_event() {
        // Tiny budget: event processing will be interrupted repeatedly;
        // monitorFinalize must complete it without double-counting.
        let mut dev = DeviceBuilder::msp430fr5994()
            .capacitor(Capacitor::with_budget(Energy::from_nano_joules(700)))
            .harvester(Harvester::FixedDelay(SimDuration::from_secs(1)))
            .build();
        let (engine, app) = engine(
            &mut dev,
            "send { collect: 5 dpTask: accel onFail: restartPath; }\n\
             accel { maxTries: 100 onFail: skipPath; }",
        );
        let accel = app.task_by_name("accel").unwrap();
        let send = app.task_by_name("send").unwrap();

        // Deliver exactly 5 accel completions (seq 1..=5) across power
        // failures, then a send start (seq 6): must pass.
        let sim = Simulator::new(RunLimit::reboots(10_000));
        let delivered = dev.nv_alloc::<u64>(0, MemOwner::App, "delivered").unwrap();
        let outcome = sim.run(&mut dev, &mut |dev: &mut Device| {
            engine.monitor_finalize(dev)?;
            loop {
                let n = dev.nv_read(&delivered)?;
                if n >= 5 {
                    break;
                }
                let seq = n + 1;
                engine.call_monitor(dev, seq, &MonitorEvent::end(accel, t(seq * 10)))?;
                dev.nv_write(&delivered, n + 1)?;
            }
            engine.call_monitor(dev, 6, &MonitorEvent::start(send, t(100)))
        });
        let verdicts = outcome.completed().expect("run must complete");
        assert!(
            verdicts.is_empty(),
            "power failures corrupted the collect count: {verdicts:?}"
        );
        assert!(dev.reboots() > 0, "test needs actual power failures");
    }

    #[test]
    fn install_rejects_unknown_tasks_and_missing_paths() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let app = app();

        // A hand-written machine observing a ghost task.
        let suite = artemis_ir::parse::parse_suite(
            "machine g task ghost persistent { state S initial; \
             on startTask(ghost) from S to S { }; }",
        )
        .unwrap();
        assert!(matches!(
            MonitorEngine::install(&mut dev, suite, &app),
            Err(InstallError::UnknownTask { .. })
        ));

        // A path-directed action with no path anywhere.
        let suite = artemis_ir::parse::parse_suite(
            "machine p task accel persistent { state S initial; \
             on startTask(accel) from S to S { } fail skipPath; }",
        )
        .unwrap();
        assert!(matches!(
            MonitorEngine::install(&mut dev, suite, &app),
            Err(InstallError::MissingPath { .. })
        ));

        // An invalid machine (unknown guard variable).
        let suite = artemis_ir::parse::parse_suite(
            "machine v task accel persistent { state S initial; \
             on anyEvent from S to S if ghost > 0 { }; }",
        )
        .unwrap();
        assert!(matches!(
            MonitorEngine::install(&mut dev, suite, &app),
            Err(InstallError::Invalid(_))
        ));
    }

    #[test]
    fn install_rejects_out_of_bounds_bytecode_untouched_fram() {
        use artemis_ir::compile::Op;
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let app = app();
        let suite = artemis_ir::compile("accel { maxTries: 5 onFail: skipPath; }", &app).unwrap();
        let mut compiled = CompiledSuite::compile(&suite, &app).unwrap();

        // Corrupt one variable access to point far past the slot table.
        let mut raw = compiled.machines()[0].to_raw();
        let mutated = raw.code.iter_mut().find_map(|op| match op {
            Op::LoadVar { slot, .. } | Op::StoreVar { slot, .. } => {
                *slot = 999;
                Some(())
            }
            _ => None,
        });
        assert!(mutated.is_some(), "maxTries bytecode must touch a variable");
        compiled.set_machine(0, raw);

        let before = dev.fram().used_by(MemOwner::Monitor);
        let err = MonitorEngine::install_precompiled(
            &mut dev,
            suite,
            compiled,
            &app,
            InstallOptions::default(),
        )
        .err()
        .expect("install must be rejected");
        match err {
            InstallError::Analysis(d) => {
                assert!(d.is_error());
                assert_eq!(d.pass, "verifier");
            }
            other => panic!("expected an analysis rejection, got {other}"),
        }
        assert_eq!(
            dev.fram().used_by(MemOwner::Monitor),
            before,
            "a rejected install must not touch FRAM"
        );
    }

    #[test]
    fn install_rejects_over_budget_journal_capacity() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let app = app();
        let suite = artemis_ir::compile("accel { maxTries: 5 onFail: skipPath; }", &app).unwrap();
        let before = dev.fram().used_by(MemOwner::Monitor);
        let err = MonitorEngine::install_with(
            &mut dev,
            suite,
            &app,
            InstallOptions {
                journal_capacity: Some(16),
                ..InstallOptions::default()
            },
        )
        .err()
        .expect("install must be rejected");
        match err {
            InstallError::Analysis(d) => {
                assert!(d.is_error());
                assert_eq!(d.pass, "bounds");
            }
            other => panic!("expected a bounds rejection, got {other}"),
        }
        assert_eq!(dev.fram().used_by(MemOwner::Monitor), before);
    }

    #[test]
    fn install_rejects_conflicting_unguarded_actions() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let app = app();
        // Both machines provably fire on the first start(accel) and
        // hand the runtime opposite task-scoped actions.
        let suite = artemis_ir::parse::parse_suite(
            "machine x task accel persistent { state S initial; \
             on startTask(accel) from S to S { } fail skipTask; }\n\
             machine y task accel persistent { state S initial; \
             on startTask(accel) from S to S { } fail restartTask; }",
        )
        .unwrap();
        let before = dev.fram().used_by(MemOwner::Monitor);
        let err = MonitorEngine::install(&mut dev, suite, &app)
            .err()
            .expect("install must be rejected");
        match err {
            InstallError::Analysis(d) => {
                assert!(d.is_error());
                assert_eq!(d.pass, "conflicts");
                assert!(d.message.contains("arbitration"), "{}", d.message);
            }
            other => panic!("expected a conflict rejection, got {other}"),
        }
        assert_eq!(dev.fram().used_by(MemOwner::Monitor), before);
    }

    /// FRAM traffic and monitor energy of the deliveries of one run.
    struct Traffic {
        reads: usize,
        writes: usize,
        write_bytes: usize,
        energy: Energy,
    }

    /// Installs `suite` on the default engine (batching `batch` events
    /// per delivery when `Some`), resets it, and makes `deliveries`
    /// deliveries of consecutive `start(t0)` events. With `cold`, SRAM
    /// is cleared before every delivery — the always-cold engine, where
    /// each delivery takes the post-reboot read path.
    fn measure(
        suite: &MonitorSuite,
        app: &AppGraph,
        batch: Option<usize>,
        deliveries: u64,
        cold: bool,
    ) -> Traffic {
        let t0 = app.task_by_name("t0").unwrap();
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let opts = InstallOptions {
            batch: batch.map_or(BatchMode::Disabled, |max_events| BatchMode::Enabled {
                max_events,
            }),
            ..InstallOptions::default()
        };
        let engine = MonitorEngine::install_with(&mut dev, suite.clone(), app, opts).unwrap();
        engine.reset_monitor(&mut dev).unwrap();

        let per = batch.unwrap_or(1) as u64;
        let (reads0, writes0) = (dev.fram().read_ops(), dev.fram().write_ops());
        let bytes0 = dev.fram().write_bytes();
        let energy0 = dev.stats().energy(CostCategory::Monitor);
        for d in 0..deliveries {
            if cold {
                dev.sram_mut().clear();
            }
            let first = 1 + d * per;
            let events: Vec<MonitorEvent> = (first..first + per)
                .map(|seq| MonitorEvent::start(t0, t(seq)))
                .collect();
            match batch {
                Some(_) => drop(engine.deliver_batch(&mut dev, first, &events).unwrap()),
                None => drop(engine.call_monitor(&mut dev, first, &events[0]).unwrap()),
            }
        }
        Traffic {
            reads: (dev.fram().read_ops() - reads0) as usize,
            writes: (dev.fram().write_ops() - writes0) as usize,
            write_bytes: (dev.fram().write_bytes() - bytes0) as usize,
            energy: dev.stats().energy(CostCategory::Monitor) - energy0,
        }
    }

    /// The static per-event cost of `start(t0)` in `suite`.
    fn t0_key(suite: &MonitorSuite, app: &AppGraph) -> artemis_ir::analysis::EventCost {
        let compiled = CompiledSuite::compile(suite, app).unwrap();
        artemis_ir::suite_bounds(&compiled)
            .per_key
            .into_iter()
            .find(|c| c.kind == EventKind::StartTask && c.task == Some(0))
            .unwrap()
    }

    /// Pins one key's static model on the default engine: warm
    /// deliveries read nothing and write exactly the modelled ops and
    /// bytes; always-cold deliveries read exactly `cold_extra_reads`,
    /// under the post-reboot ceiling `reads`, and write the same.
    fn assert_event_model_attained(
        suite: &MonitorSuite,
        app: &AppGraph,
        key: &artemis_ir::analysis::EventCost,
        events: u64,
    ) {
        let n = events as usize;
        let warm = measure(suite, app, None, events, false);
        assert_eq!(warm.reads, 0, "warm delivery must be write-only");
        assert_eq!(warm.writes, key.writes * n, "write model drifted");
        assert_eq!(warm.write_bytes, key.write_bytes * n, "byte model drifted");

        let cold = measure(suite, app, None, events, true);
        assert_eq!(cold.reads, key.cold_extra_reads * n, "cold model drifted");
        assert!(key.cold_extra_reads <= key.reads);
        assert_eq!(cold.writes, warm.writes, "the shadow is write-through");
        assert_eq!(cold.write_bytes, warm.write_bytes);
    }

    /// Pins the static FRAM cost model of `artemis_ir::analysis::bounds`
    /// to the engine it describes on the degraded dispatch workload:
    /// every machine writes all twelve variables, so every commit is a
    /// whole-block image and the model is attained exactly.
    #[test]
    fn bounds_model_matches_engine() {
        const MACHINES: usize = 8;
        let (suite, app) = dispatch_suite(MACHINES, 12);
        let key = t0_key(&suite, &app);
        assert_eq!(key.machines, MACHINES);
        assert_eq!(key.emitters, 0);
        // Every machine degrades to whole-block commits: one block
        // read and one 3-sub-write sparse commit each.
        assert_eq!(key.degraded_machines, MACHINES);
        assert_eq!(key.reads, 2 + 4 + MACHINES + 1);
        assert_eq!(key.writes, 8 + MACHINES * 5);
        assert_eq!(key.cold_extra_reads, 2 + MACHINES);
        assert_event_model_attained(&suite, &app, &key, 20);
    }

    /// The sparse twin of [`bounds_model_matches_engine`]: on the
    /// every-byte-flips suite each machine stays on the span-loading
    /// path and its dirty-diff commit carries exactly the state word
    /// and the written slot the model prices.
    #[test]
    fn bounds_model_matches_engine_delta() {
        const MACHINES: usize = 8;
        let (suite, app) = flip_suite(MACHINES);
        let key = t0_key(&suite, &app);
        assert_eq!(key.machines, MACHINES);
        assert_eq!(key.delta_machines, MACHINES, "all machines must go sparse");
        assert_eq!(key.degraded_machines, 0);
        // Arming (2r+8w) + worklist setup (4r) + per machine 1 span
        // read and |W|+2+3 = 6 sparse-commit writes + 1 readback read.
        assert_eq!(key.reads, 2 + 4 + MACHINES + 1);
        assert_eq!(key.writes, 8 + MACHINES * 6);
        // A reboot's refill is flag + seq + one whole-block fill per
        // armed machine.
        assert_eq!(key.cold_extra_reads, 2 + MACHINES);
        assert_event_model_attained(&suite, &app, &key, 20);
    }

    /// Dirty-diff commits undercut the model strictly when bytes stay
    /// unchanged: on the sparse increment workload the state word never
    /// changes and only the counter's low byte does, so each machine's
    /// commit shrinks from 3 sub-writes (state + slot + done) to 2 (one
    /// 1-byte run + done).
    #[test]
    fn diff_commits_undercut_the_model() {
        const MACHINES: usize = 8;
        const EVENTS: u64 = 20;
        let (suite, app) = dispatch_suite(MACHINES, 1);
        let key = t0_key(&suite, &app);
        let n = EVENTS as usize;
        let warm = measure(&suite, &app, None, EVENTS, false);
        assert_eq!(warm.reads, 0, "diff path must stay write-only when warm");
        assert_eq!(warm.writes, (8 + MACHINES * 5) * n);
        assert!(warm.writes < key.writes * n);
        assert!(
            warm.write_bytes < key.write_bytes * n,
            "diff write bytes {} must stay under the model {}",
            warm.write_bytes,
            key.write_bytes * n
        );
    }

    /// Builds the dispatch-workload suite the bounds exactness tests
    /// use: `machines` identical machines over 12 int vars, each
    /// incrementing the first `writes` slots on `startTask(t0)`.
    fn dispatch_suite(machines: usize, writes: usize) -> (MonitorSuite, AppGraph) {
        use artemis_ir::expr::{BinOp, Expr, Value, VarType};
        use artemis_ir::fsm::{StateMachine, Stmt, TaskPat, Transition, Trigger};

        const VARS: usize = 12;
        let mut suite = MonitorSuite::new();
        for m in 0..machines {
            let mut sm = StateMachine::new(&format!("m{m}"), "t0");
            for v in 0..VARS {
                sm.add_var(&format!("v{v}"), VarType::Int, Value::Int(0));
            }
            sm.add_state("S");
            sm.transitions.push(Transition {
                from: 0,
                to: 0,
                trigger: Trigger::Start(TaskPat::named("t0")),
                guard: None,
                body: (0..writes)
                    .map(|v| {
                        Stmt::Assign(
                            format!("v{v}"),
                            Expr::bin(BinOp::Add, Expr::var(&format!("v{v}")), Expr::int(1)),
                        )
                    })
                    .collect(),
                emit: None,
            });
            suite.push(sm);
        }
        (suite, t_app())
    }

    /// The suite on which dirty-diff commits attain the slot-granular
    /// model exactly: `machines` machines cycle through three states,
    /// and each `startTask(t0)` adds `0x0101010101010101` to `x`, so
    /// every byte of the 1-byte state word and of the 8-byte `x`
    /// changes on every event (and on every batch of 8). Seven
    /// never-written 1-byte pads keep the two fields 7 bytes apart,
    /// more than the 6-byte sub-write header, so their runs never
    /// merge.
    fn flip_suite(machines: usize) -> (MonitorSuite, AppGraph) {
        use artemis_ir::expr::{BinOp, Expr, Value, VarType};
        use artemis_ir::fsm::{StateMachine, Stmt, TaskPat, Transition, Trigger};

        let mut suite = MonitorSuite::new();
        for m in 0..machines {
            let mut sm = StateMachine::new(&format!("m{m}"), "t0");
            for p in 0..7 {
                sm.add_var(&format!("p{p}"), VarType::Int, Value::Int(0));
            }
            sm.add_var("x", VarType::Int, Value::Int(0));
            for s in 0..3 {
                sm.add_state(&format!("S{s}"));
            }
            for from in 0..3 {
                sm.transitions.push(Transition {
                    from,
                    to: (from + 1) % 3,
                    trigger: Trigger::Start(TaskPat::named("t0")),
                    guard: None,
                    body: vec![Stmt::Assign(
                        "x".into(),
                        Expr::bin(BinOp::Add, Expr::var("x"), Expr::int(0x0101_0101_0101_0101)),
                    )],
                    emit: None,
                });
            }
            suite.push(sm);
        }
        (suite, t_app())
    }

    /// Two tasks `t0`, `t1` on one path.
    fn t_app() -> AppGraph {
        let mut b = AppGraphBuilder::new();
        let t0 = b.task("t0");
        let t1 = b.task("t1");
        b.path(&[t0, t1]);
        b.build().unwrap()
    }

    /// The dynamic executed-instruction counters must agree with the
    /// static per-key instruction ceilings: equal on an unguarded
    /// workload (the only path *is* the worst path), and bounded by
    /// them wherever guards can exit early. This is the measured side
    /// of the ceiling the engine bills compute through.
    #[test]
    fn exec_counters_match_static_instruction_ceiling() {
        const EVENTS: u64 = 20;
        const MACHINES: usize = 4;
        let (suite, app) = dispatch_suite(MACHINES, 3);
        let t0 = app.task_by_name("t0").unwrap();
        let compiled = CompiledSuite::compile(&suite, &app).unwrap();
        let per_event: u64 = compiled
            .machines()
            .iter()
            .map(|m| m.step_cost(EventKind::StartTask, 0).instructions)
            .sum();
        assert!(per_event > 0, "dispatching key must have a nonzero ceiling");

        let mut dev = DeviceBuilder::msp430fr5994().build();
        let engine = MonitorEngine::install(&mut dev, suite.clone(), &app).unwrap();
        engine.reset_monitor(&mut dev).unwrap();
        assert_eq!(engine.exec_stats(), ExecStats::default());
        for seq in 1..=EVENTS {
            engine
                .call_monitor(&mut dev, seq, &MonitorEvent::start(t0, t(seq)))
                .unwrap();
        }
        let stats = engine.exec_stats();
        assert_eq!(stats.machine_steps, EVENTS * MACHINES as u64);
        // Single unguarded transition per machine: executed == ceiling.
        assert_eq!(stats.instructions, EVENTS * per_event);

        // Interpreter mode runs no bytecode: counters stay zero.
        let mut dev_i = DeviceBuilder::msp430fr5994().build();
        let engine_i = MonitorEngine::install_with(
            &mut dev_i,
            suite,
            &app,
            InstallOptions {
                mode: ExecMode::Interpreter,
                ..InstallOptions::default()
            },
        )
        .unwrap();
        engine_i.reset_monitor(&mut dev_i).unwrap();
        engine_i
            .call_monitor(&mut dev_i, 1, &MonitorEvent::start(t0, t(1)))
            .unwrap();
        assert_eq!(engine_i.exec_stats(), ExecStats::default());
    }

    /// The energy twin of [`bounds_model_matches_engine`]: warm
    /// per-event delivery energy (ops, bytes and cycles priced through
    /// the device's cost model) equals the simulator's measured
    /// monitor-category draw exactly, on both the degraded
    /// (whole-block) and sparse (every-byte-flips) workloads; always-cold
    /// deliveries stay under the post-reboot ceiling `event_energy`.
    /// This is what lets the install-time feasibility analysis trust
    /// its per-attempt numbers.
    #[test]
    fn energy_model_matches_engine() {
        use artemis_ir::analysis::{event_energy, event_energy_cached};

        const EVENTS: u64 = 20;
        let model = *DeviceBuilder::msp430fr5994().build().cost_model();
        for (label, (suite, app)) in [
            ("degraded", dispatch_suite(8, 12)),
            ("sparse", flip_suite(8)),
        ] {
            let key = t0_key(&suite, &app);
            let warm = measure(&suite, &app, None, EVENTS, false);
            assert_eq!(
                warm.energy,
                event_energy_cached(&key, &model).saturating_mul(EVENTS),
                "energy model drifted ({label})"
            );
            let cold = measure(&suite, &app, None, EVENTS, true);
            assert_eq!(cold.reads, key.cold_extra_reads * EVENTS as usize);
            assert!(cold.energy > warm.energy, "{label}");
            assert!(
                cold.energy <= event_energy(&key, &model).saturating_mul(EVENTS),
                "cold draw above the post-reboot ceiling ({label})"
            );
        }
    }

    /// Batched counterpart of [`energy_model_matches_engine`]: a full
    /// warm batch on the every-byte-flips workload writes and draws
    /// exactly the static [`artemis_ir::BatchBounds`] figures (warm
    /// batches are write-only, so the cached prediction is writes +
    /// cycles alone); an always-cold batch reads exactly
    /// `cold_extra_reads` and stays under the post-reboot ceiling.
    #[test]
    fn batch_energy_model_matches_engine() {
        use artemis_ir::analysis::{batch_energy, batch_energy_cached};

        const BATCH: usize = 8;
        const BATCHES: u64 = 5;
        let n = BATCHES as usize;

        let (suite, app) = flip_suite(8);
        let compiled = CompiledSuite::compile(&suite, &app).unwrap();
        let bound = artemis_ir::batch_bounds(&compiled, BATCH);
        let model = *DeviceBuilder::msp430fr5994().build().cost_model();

        let warm = measure(&suite, &app, Some(BATCH), BATCHES, false);
        assert_eq!(warm.reads, 0, "warm batches must be write-only");
        assert_eq!(warm.writes, bound.writes * n);
        assert_eq!(warm.write_bytes, bound.write_bytes * n);
        assert_eq!(
            warm.energy,
            batch_energy_cached(&bound, &model).saturating_mul(BATCHES),
            "batch energy model drifted"
        );

        let cold = measure(&suite, &app, Some(BATCH), BATCHES, true);
        assert_eq!(cold.reads, bound.cold_extra_reads * n);
        assert!(bound.cold_extra_reads <= bound.reads);
        assert_eq!(cold.writes, warm.writes);
        assert!(cold.energy <= batch_energy(&bound, &model).saturating_mul(BATCHES));
    }

    /// A statically infeasible task rejects the install with a typed
    /// `energy` diagnostic BEFORE any FRAM is allocated; a merely
    /// marginal profile installs fine and surfaces the warning on the
    /// trace.
    #[test]
    fn install_gates_on_energy_feasibility() {
        use intermittent_sim::{Energy, EnergyProfile};

        let (suite, app) = dispatch_suite(2, 1);
        let mut dev = DeviceBuilder::msp430fr5994().build();

        // A 100 nJ capacitor cannot even buffer the two arming commits.
        let starved = EnergyProfile::with_budget(Energy::from_nano_joules(100));
        let before = dev.fram().used_by(MemOwner::Monitor);
        let err = MonitorEngine::install_with(
            &mut dev,
            suite.clone(),
            &app,
            InstallOptions {
                energy: Some(starved),
                ..InstallOptions::default()
            },
        )
        .err()
        .expect("install must be rejected");
        match err {
            InstallError::Analysis(d) => {
                assert!(d.is_error());
                assert_eq!(d.pass, "energy");
                assert!(d.message.contains("atomic attempt"), "{}", d.message);
            }
            other => panic!("expected an energy rejection, got {other}"),
        }
        assert_eq!(dev.fram().used_by(MemOwner::Monitor), before);

        // The device's own (generous) profile: installs, no warnings.
        let profile = dev.energy_profile();
        let mut dev2 = DeviceBuilder::msp430fr5994().build();
        MonitorEngine::install_with(
            &mut dev2,
            suite.clone(),
            &app,
            InstallOptions {
                energy: Some(profile),
                ..InstallOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            dev2.trace()
                .count(|e| matches!(e, artemis_core::trace::TraceEvent::InstallWarning { .. })),
            0
        );

        // A budget between floor and margin threshold: installs with an
        // InstallWarning trace event.
        let compiled = CompiledSuite::compile(&suite, &app).unwrap();
        let b = artemis_ir::suite_bounds(&compiled);
        let fs = artemis_ir::analysis::task_feasibility(&compiled, &b, &app, &profile);
        let worst_ceiling = fs.iter().map(|f| f.ceiling).max().unwrap();
        let marginal = EnergyProfile::with_budget(Energy::from_pico_joules(
            worst_ceiling.as_pico_joules() + 1,
        ));
        let mut dev3 = DeviceBuilder::msp430fr5994().build();
        MonitorEngine::install_with(
            &mut dev3,
            suite,
            &app,
            InstallOptions {
                energy: Some(marginal),
                ..InstallOptions::default()
            },
        )
        .unwrap();
        assert!(
            dev3.trace()
                .count(|e| matches!(e, artemis_core::trace::TraceEvent::InstallWarning { .. }))
                > 0
        );
    }

    /// Only compiled engines keep a shadow: the interpreter, the
    /// independent reference semantics, reads FRAM directly.
    #[test]
    fn cache_runs_on_compiled_engines_only() {
        let app = app();
        let accel = app.task_by_name("accel").unwrap();
        for (mode, shadowed) in [(ExecMode::Compiled, true), (ExecMode::Interpreter, false)] {
            let mut dev = DeviceBuilder::msp430fr5994().build();
            let suite =
                artemis_ir::compile("accel { maxTries: 3 onFail: skipPath; }", &app).unwrap();
            let opts = InstallOptions {
                mode,
                ..InstallOptions::default()
            };
            let engine = MonitorEngine::install_with(&mut dev, suite, &app, opts).unwrap();
            engine.reset_monitor(&mut dev).unwrap();
            engine
                .call_monitor(&mut dev, 1, &MonitorEvent::start(accel, t(0)))
                .unwrap();
            assert_eq!(
                engine.cache_stats() != CacheStats::default(),
                shadowed,
                "{mode:?}"
            );
        }
    }

    /// Steady-state deliveries are all hits, a power cycle invalidates
    /// the whole cache exactly once, and the counters surface through
    /// the trace ring buffer.
    #[test]
    fn cache_stats_count_hits_misses_and_invalidations() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let (engine, app) = engine(&mut dev, "accel { maxTries: 10 onFail: skipPath; }");
        let accel = app.task_by_name("accel").unwrap();

        // reset_monitor pre-fills every shadow, so warm deliveries are
        // pure hits: no misses, and strictly growing hit counts.
        engine
            .call_monitor(&mut dev, 1, &MonitorEvent::start(accel, t(0)))
            .unwrap();
        let warm = engine.cache_stats();
        assert_eq!(warm.misses, 0);
        assert_eq!(warm.invalidations, 0);
        assert!(warm.hits > 0);
        engine
            .call_monitor(&mut dev, 2, &MonitorEvent::start(accel, t(1)))
            .unwrap();
        assert!(engine.cache_stats().hits > warm.hits);
        assert_eq!(engine.cache_stats().misses, 0);

        // A reboot bumps the SRAM generation: the first delivery after
        // it wipes the cache (one invalidation) and refills it with
        // cold misses.
        dev.power_cycle();
        engine.monitor_finalize(&mut dev).unwrap();
        engine
            .call_monitor(&mut dev, 3, &MonitorEvent::start(accel, t(2)))
            .unwrap();
        let cold = engine.cache_stats();
        assert_eq!(cold.invalidations, 1);
        assert!(cold.misses > 0);

        // And the counters render through the trace ring buffer.
        engine.trace_cache_stats(&mut dev);
        let pushed = dev.trace().count(|e| {
            matches!(
                e,
                artemis_core::trace::TraceEvent::CacheStats {
                    invalidations: 1,
                    ..
                }
            )
        });
        assert_eq!(pushed, 1);
        assert!(dev.trace().render().contains("invalidations"));
    }

    /// Reboot storm: every clean reboot re-pays only the cold-miss
    /// refill, which the static bound caps at `cold_extra_reads` (flag,
    /// seq and one whole-block fill per armed machine) on top of the
    /// finalize probe — and nothing accumulates across reboots.
    #[test]
    fn reboot_storm_cold_misses_stay_within_static_bound() {
        const MACHINES: usize = 8;
        const REBOOTS: u64 = 50;

        let (suite, app) = dispatch_suite(MACHINES, 1);
        let t0 = app.task_by_name("t0").unwrap();
        let key = t0_key(&suite, &app);
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let engine = MonitorEngine::install(&mut dev, suite, &app).unwrap();
        engine.reset_monitor(&mut dev).unwrap();
        // Warm delivery so each reboot below starts from a hot cache.
        engine
            .call_monitor(&mut dev, 1, &MonitorEvent::start(t0, t(0)))
            .unwrap();

        // The finalize pending-probe after a clean reboot costs 3 cold
        // reads (journal flag + worklist count + done mask); the next
        // delivery pays the cold refill, bounded by cold_extra_reads.
        let per_reboot_bound = 3 + key.cold_extra_reads;
        for r in 0..REBOOTS {
            dev.power_cycle();
            let reads0 = dev.fram().read_ops();
            engine.monitor_finalize(&mut dev).unwrap();
            engine
                .call_monitor(&mut dev, 2 + r, &MonitorEvent::start(t0, t(1 + r)))
                .unwrap();
            let reads = (dev.fram().read_ops() - reads0) as usize;
            assert_eq!(
                reads,
                4 + MACHINES,
                "cold refill drifted on reboot {r}: finalize probe (3) \
                 + seq (1) + one block fill per machine"
            );
            assert!(reads <= per_reboot_bound, "static cold bound violated");
        }
        assert_eq!(engine.cache_stats().invalidations, REBOOTS);
    }

    /// The derived journal capacity is exactly the static worst-case
    /// commit: the default installs and runs, while overriding it one
    /// byte smaller is rejected up front by the bounds pass.
    #[test]
    fn derived_journal_capacity_is_tight() {
        let app = app();
        let spec = "accel { maxTries: 5 onFail: skipPath; }";

        let suite = artemis_ir::compile(spec, &app).unwrap();
        let compiled = CompiledSuite::compile(&suite, &app).unwrap();
        let worst = artemis_ir::suite_bounds(&compiled).worst_commit_bytes;

        let mut dev = DeviceBuilder::msp430fr5994().build();
        let engine = MonitorEngine::install(&mut dev, suite, &app).unwrap();
        engine.reset_monitor(&mut dev).unwrap();
        let accel = app.task_by_name("accel").unwrap();
        engine
            .call_monitor(&mut dev, 1, &MonitorEvent::start(accel, t(0)))
            .unwrap();

        let mut dev = DeviceBuilder::msp430fr5994().build();
        let suite = artemis_ir::compile(spec, &app).unwrap();
        let err = MonitorEngine::install_with(
            &mut dev,
            suite,
            &app,
            InstallOptions {
                journal_capacity: Some(worst - 1),
                ..InstallOptions::default()
            },
        )
        .err()
        .expect("a capacity below the static bound must be rejected");
        match err {
            InstallError::Analysis(d) => {
                assert!(d.is_error());
                assert_eq!(d.pass, "bounds");
            }
            other => panic!("expected a bounds rejection, got {other}"),
        }
    }

    #[test]
    fn monitor_costs_are_billed_to_monitor_category() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let (engine, app) = engine(&mut dev, "accel { maxTries: 5 onFail: skipPath; }");
        let accel = app.task_by_name("accel").unwrap();
        let before = dev.stats().time(CostCategory::Monitor);
        engine
            .call_monitor(&mut dev, 1, &MonitorEvent::start(accel, t(0)))
            .unwrap();
        assert!(dev.stats().time(CostCategory::Monitor) > before);
        assert_eq!(dev.stats().time(CostCategory::App), SimDuration::ZERO);
    }

    #[test]
    fn memory_is_attributed_to_the_monitor_component() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let before = dev.fram().used_by(MemOwner::Monitor);
        let _ = engine(&mut dev, "accel { maxTries: 5 onFail: skipPath; }");
        let after = dev.fram().used_by(MemOwner::Monitor);
        assert!(after > before, "monitor state must live in monitor FRAM");
    }

    /// A start event on `accel` must not touch machines that only
    /// watch `send`: an always-cold routed delivery reads exactly as
    /// much FRAM with seven bystanders installed as without them.
    #[test]
    fn routed_path_skips_uninterested_machines() {
        let app = app();
        let hot = "machine hot task accel persistent { state S initial; \
                   on startTask(accel) from S to S { }; }\n";
        let reads_with = |bystanders: usize| {
            let mut src = String::from(hot);
            for i in 0..bystanders {
                src.push_str(&format!(
                    "machine cold{i} task send persistent {{ state S initial; \
                     on startTask(send) from S to S {{ }}; }}\n"
                ));
            }
            let mut dev = DeviceBuilder::msp430fr5994().build();
            let suite = artemis_ir::parse::parse_suite(&src).unwrap();
            let engine = MonitorEngine::install(&mut dev, suite, &app).unwrap();
            engine.reset_monitor(&mut dev).unwrap();
            let accel = app.task_by_name("accel").unwrap();
            dev.sram_mut().clear();
            let before = (dev.fram().read_ops(), dev.fram().read_bytes());
            engine
                .call_monitor(&mut dev, 1, &MonitorEvent::start(accel, t(0)))
                .unwrap();
            (
                dev.fram().read_ops() - before.0,
                dev.fram().read_bytes() - before.1,
            )
        };
        // Eight machines still fit the one-byte done bitmap, so even
        // the byte counts agree.
        assert_eq!(reads_with(7), reads_with(0));
    }

    /// A corrupt armed worklist — a count above the suite size, or an
    /// item naming no installed machine — faults with a typed error on
    /// the cold fill after a reboot instead of indexing out of bounds,
    /// on both the per-event and the batch lane.
    #[test]
    fn corrupt_worklists_fault_instead_of_panicking() {
        let app = app();
        let spec = "accel { maxTries: 5 onFail: skipPath; }\n\
                    send { collect: 2 dpTask: accel onFail: restartPath; }";
        let accel = app.task_by_name("accel").unwrap();
        for lane in [Lane::Event, Lane::Batch] {
            // (byte offset in the worklist region, value): the count
            // word, then the first item.
            for (offset, value) in [(0, 200u16), (2, 500)] {
                let mut dev = DeviceBuilder::msp430fr5994().build();
                let suite = artemis_ir::compile(spec, &app).unwrap();
                let opts = InstallOptions {
                    batch: BatchMode::Enabled { max_events: 4 },
                    ..InstallOptions::default()
                };
                let engine = MonitorEngine::install_with(&mut dev, suite, &app, opts).unwrap();
                engine.reset_monitor(&mut dev).unwrap();
                let ev = MonitorEvent::start(accel, t(0));
                match lane {
                    Lane::Event => drop(engine.call_monitor(&mut dev, 1, &ev).unwrap()),
                    Lane::Batch => drop(engine.deliver_batch(&mut dev, 1, &[ev]).unwrap()),
                }
                let state = engine.lane(lane);
                dev.nv_write_raw(state.worklist_addr + offset, &value.to_le_bytes())
                    .unwrap();
                dev.nv_write_raw(state.done.addr, &vec![0; state.done.len])
                    .unwrap();
                dev.power_cycle();
                assert_eq!(
                    engine.monitor_finalize(&mut dev),
                    Err(Interrupt::Fault(Fault::CorruptState)),
                    "{lane:?} lane, offset {offset}"
                );
            }
        }
    }

    #[test]
    fn event_with_no_interested_machines_completes_cleanly() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        // maxDuration observes start+end of accel only; a send event
        // routes to an empty worklist.
        let (engine, app) = engine(&mut dev, "accel { maxDuration: 1s onFail: skipTask; }");
        let send = app.task_by_name("send").unwrap();
        assert!(engine
            .call_monitor(&mut dev, 1, &MonitorEvent::start(send, t(0)))
            .unwrap()
            .is_empty());
        // Nothing pending afterwards, and redelivery is a no-op.
        assert!(!engine.monitor_finalize(&mut dev).unwrap());
        assert!(engine
            .call_monitor(&mut dev, 1, &MonitorEvent::start(send, t(0)))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn machine_names_come_back_in_suite_order() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let (engine, _) = engine(
            &mut dev,
            "accel { maxTries: 2 onFail: skipPath; }\n\
             send { collect: 2 dpTask: accel onFail: restartPath; }",
        );
        let names = Monitoring::machine_names(&engine);
        assert_eq!(names.len(), 2);
        assert!(names[0].starts_with("accel_maxTries"));
        assert!(names[1].starts_with("send_collect"));
    }
}

#[cfg(test)]
mod finalize_tests {
    use super::*;
    use artemis_core::app::AppGraphBuilder;
    use artemis_core::time::{SimDuration, SimInstant};
    use intermittent_sim::capacitor::Capacitor;
    use intermittent_sim::device::DeviceBuilder;
    use intermittent_sim::energy::Energy;
    use intermittent_sim::harvester::Harvester;

    /// `monitorFinalize` must report work when an event was interrupted
    /// mid-processing, and nothing otherwise (paper Figure 8 line 16).
    #[test]
    fn finalize_reports_interrupted_events() {
        let mut b = AppGraphBuilder::new();
        let a = b.task("a");
        b.path(&[a]);
        let app = b.build().unwrap();
        // Several machines so processing spans multiple steps.
        let spec = "a { maxTries: 100 onFail: skipPath; \
                    maxDuration: 1s onFail: skipTask; \
                    period: 1min onFail: restartTask; }";
        let suite = artemis_ir::compile(spec, &app).unwrap();

        let mut dev = DeviceBuilder::msp430fr5994()
            .capacitor(Capacitor::with_budget(Energy::from_micro_joules(500)))
            .harvester(Harvester::FixedDelay(SimDuration::from_secs(1)))
            .build();
        let engine = MonitorEngine::install(&mut dev, suite, &app).unwrap();
        engine.reset_monitor(&mut dev).unwrap();

        // Nothing pending on a fresh engine.
        assert!(!engine.monitor_finalize(&mut dev).unwrap());

        // Find an energy level at which call_monitor is interrupted
        // between machine steps, then finalize after "reboot".
        let mut interrupted = false;
        for seq in 1..200u64 {
            // Drain close to empty so the next event brown-outs mid-way;
            // sweep the residue so some attempt lands between steps.
            let residue = Energy::from_nano_joules(200 + (seq * 53) % 1_200);
            while dev.energy_level() > residue {
                let _ = dev.compute(100);
            }
            let ev = MonitorEvent::start(a, SimInstant::from_micros(seq));
            match engine.call_monitor(&mut dev, seq, &ev) {
                Ok(_) => {}
                Err(Interrupt::PowerFailure) => {
                    dev.power_cycle();
                    let resumed = engine.monitor_finalize(&mut dev).unwrap();
                    if resumed {
                        interrupted = true;
                        // The verdicts of the finalized event are
                        // available without re-stepping.
                        let _ = engine.last_verdicts(&mut dev).unwrap();
                        break;
                    }
                }
                Err(other) => panic!("unexpected: {other}"),
            }
        }
        assert!(interrupted, "never observed a mid-event interruption");
        // A second finalize is a no-op.
        assert!(!engine.monitor_finalize(&mut dev).unwrap());
    }
}
