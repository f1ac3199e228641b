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
//! sequence number arms the engine atomically (events + sequence +
//! verdict reset + done bitmap, riding in the delivery's first commit
//! record); re-delivering the *same*
//! sequence number resumes or returns the already-computed verdicts
//! instead of double-stepping the machines. The ARTEMIS runtime
//! exploits both directions: `StartTask` re-attempts get fresh numbers
//! (attempt counting is the point of `maxTries`), while `EndTask`
//! events reuse the number fixed in the task-commit transaction so a
//! power failure can never double-count a sample (cf. the paper's
//! timestamp-consistency discussion, §4.1.3).
//!
//! # Event routing and the armed delivery
//!
//! Triggers are static, so at install time the compiler emits a global
//! [`RoutingIndex`](artemis_ir::compile::RoutingIndex): for every
//! `(event kind, task id)` key, the exact machines with a transition
//! that can match. The engine persists one **armed delivery**: the
//! first sequence number, the event array (`u16` count + capacity ×
//! [`EncodedEvent`]), the verdict count and a completion bitmap — one
//! bit per commit group, `ceil(machines / 8)` bytes. The **worklist**
//! (the machines the routing index names for the armed events, each
//! with a mask of the events it dispatches after the `Path:` filter)
//! and its cut into **commit groups** (consecutive runs of worklist
//! entries, sized by [`artemis_ir::analysis::commit_groups`] against
//! the device's energy budget) are never persisted: both are
//! deterministic functions of the armed events, derived at arming and
//! re-derived once on a cold load after a reboot. Each group commits
//! its members' effects together with its bit in **one journal
//! record**, and group 0's record also carries the arming sub-writes
//! (events, sequence number, verdict count, done bitmap), so a delivery
//! whose worklist fits one group costs one record. A reboot resumes
//! exactly the pending groups and a redelivered sequence number only
//! finishes them. A derived worklist names only installed machines, so
//! it needs no validation; the persisted event count does, and a count
//! past the capacity — or a loaded delivery whose group 0 is not done,
//! which no commit can leave behind — faults with
//! [`Fault::CorruptState`].
//!
//! # Compiled steps
//!
//! Suites run **compiled** to slot-indexed bytecode
//! ([`artemis_ir::compile`]) over one packed FRAM block per machine
//! ([`artemis_ir::MachineLayout`]). Every compiled step — one event or a
//! whole batch — goes through one function: it loads the block prefix
//! the dispatched keys' static [`AccessSet`]s can touch, runs the
//! bytecode in scratch, and stages into its group's record
//! ([`TxWriter`]) the changed byte runs of the loaded prefix (or, for
//! keys whose access set covers ≥ ¾ of the block, decided at compile
//! time, the whole block image — see "Dirty-diff commits") and one
//! verdict per emitting event. One committer then adds the verdict
//! cells, the verdict count and the done bitmap and commits the group.
//! A later group left with nothing but its done bit completes with one
//! plain idempotent write. Soundness: the access
//! set over-approximates every slot the dispatched bytecode can read or
//! write, so slots outside the loaded span are never observed and slots
//! outside the write set cannot change; unchanged bytes a merged run
//! re-writes carry their loaded value, which is idempotent.
//!
//! [`ExecMode::Interpreter`] is the reference semantics: the
//! tree-walking interpreter of `artemis_ir::exec` over one FRAM cell
//! per variable. It arms *every* machine, one machine per commit group
//! — neither the routing index nor the energy cut is consulted, so the
//! oracle stays independent of both — and stages one sub-write per
//! changed cell. Differential tests pin the two on verdicts and
//! FRAM-visible state, including under random power failures.
//!
//! # Batch delivery (group commit)
//!
//! Events arrive in bursts at task boundaries — an `EndTask`, the next
//! `StartTask`, `collect` samples. [`MonitorEngine::deliver_batch`]
//! arms up to the installed capacity ([`BatchMode`]) of them under
//! consecutive sequence numbers as one armed delivery, then each
//! worklisted machine steps through *all* its events in volatile
//! scratch and stages its net effect **once**: repeated writes to the
//! same variable slot coalesce to the last value, its group's record
//! carries the changed runs of the prefix the dispatched keys' static
//! [`AccessSet`]s cover (a net-unchanged byte costs nothing), and one
//! verdict cell per emitting event rides in the same record as the
//! group's done bit.
//! [`MonitorEngine::call_monitor`] is the same delivery with one event:
//! both entry points share the arming and run functions.
//!
//! Crash correctness: until group 0's flag write lands nothing of the
//! delivery is persisted, so a crash before it looks exactly like a
//! crash before arming — the event is redelivered and re-armed. Group
//! 0's record fixes the events, so the worklist and the groups derived
//! from them are fixed too; a group's bit flips only in the
//! transaction that persists the *net* effect of all its members'
//! steps, so a reboot anywhere resumes from the first incomplete group
//! and observes either none or all of a group's effects —
//! indistinguishable from an event-at-a-time execution that crashed
//! between machines. Arming a new sequence number first finishes any
//! pending delivery, so interleaved per-event and batch deliveries
//! never discard each other's work. Redelivering a committed delivery
//! (same first sequence number) returns the recorded verdicts without
//! re-stepping.
//!
//! # Volatile shadow cache (write-only steady state)
//!
//! Compiled engines keep a volatile **shadow** of every FRAM location
//! the hot path reads: after any load or commit the decoded machine
//! images, the armed delivery (events, derived worklist, groups and
//! done bitmap), and the verdict log stay authoritative in RAM, so a
//! steady-state delivery performs **zero** FRAM reads — nonvolatile
//! memory is touched only by the crash-atomic commits. The cache is
//! write-through and never defers or reorders a write; it is the
//! compiled engine's one read path. The
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
//! read path. Cold fills validate what they read: an event count past
//! the capacity, a verdict count past the verdict log, a verdict cell
//! naming no installed machine, or a machine block whose state word is
//! past the machine's state count faults with [`Fault::CorruptState`]
//! instead of indexing out of bounds.
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
//! [`AccessSet`]: artemis_ir::compile::AccessSet
//! [`Sram`]: intermittent_sim::fram::Sram

pub mod remote;
pub mod state;

use core::cell::RefCell;
use std::sync::Arc;

use artemis_core::action::Action;
use artemis_core::app::{AppGraph, PathId, TaskId};
use artemis_core::event::{EventKind, MonitorEvent};
use artemis_core::property::OnFail;
use artemis_ir::analysis::{commit_groups, ArmedShape, MemberCost};
use artemis_ir::compile::{CompileIssue, CompiledEvent, CompiledSuite};
use artemis_ir::exec::{step, IrEvent, MachineState};
use artemis_ir::expr::{EventCtx, Value};
use artemis_ir::fsm::{MonitorSuite, StateMachine};
use artemis_ir::opt::OptLevel;
use artemis_ir::validate::{validate_strict, Issue};
use intermittent_sim::device::{CostCategory, Device, Fault, Interrupt, MemOwner};
use intermittent_sim::fram::{NvCell, NvData};
use intermittent_sim::journal::{Journal, TxWriter};
use intermittent_sim::EnergyProfile;

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
/// Modelled cost of the per-event routing-index lookup that derives the
/// worklist, charged at arming and again on a cold load.
const ROUTING_LOOKUP_CYCLES: u64 = 12;

/// Which execution core the engine runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ExecMode {
    /// Slot-indexed bytecode over one packed FRAM block per machine,
    /// committed through one journal record per energy-sized commit
    /// group — the default, and the closest analogue of the paper's
    /// generated C monitors.
    #[default]
    Compiled,
    /// The tree-walking reference interpreter over one FRAM cell per
    /// variable. Kept as the executable semantics for differential
    /// testing and as the baseline the dispatch benchmark compares
    /// against.
    Interpreter,
}

/// Most events one delivery can carry: the verdict cell packs the
/// event position into a half-word and the encoded-event array must
/// stay journal-sized. [`BatchMode::Enabled`] requests above this
/// clamp to it.
pub const MAX_BATCH_EVENTS: usize = 16;

/// Capacity of the engine's armed delivery, in events
/// ([`MonitorEngine::batch_capacity`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum BatchMode {
    /// A one-event armed delivery: `deliver_batch` delivers event by
    /// event — the default.
    #[default]
    Disabled,
    /// Arm up to `max_events` events as one delivery and stage each
    /// machine's net effect once per batch (clamped to
    /// [`MAX_BATCH_EVENTS`]).
    /// Compiled engines only; the interpreter keeps a one-event
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
    /// Armed-delivery capacity (one event by default; group commits
    /// need compiled engines).
    pub batch: BatchMode,
    /// Bytecode optimization level for ahead-of-time compilation
    /// ([`OptLevel::Full`] by default). [`OptLevel::None`] ships the
    /// straight-from-lowering bytecode and serves as the differential
    /// oracle for the optimizer. Ignored by
    /// [`MonitorEngine::install_precompiled`], whose caller already
    /// holds compiled bytecode.
    pub opt: OptLevel,
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
    /// verifier, the cross-monitor conflict pass, or the energy
    /// feasibility pass rejected the suite. No FRAM was touched.
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

/// A persistent completion bitmap of `len` bytes: bit `g % 8` of byte
/// `g / 8` is set once commit group `g` has committed.
struct DoneCell {
    addr: usize,
    len: usize,
}

/// `true` iff commit group `g` is marked done in `map`.
fn done_bit(map: &[u8], g: usize) -> bool {
    map[g / 8] & (1 << (g % 8)) != 0
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

/// Journal sub-write header bytes (`addr: u32` + `len: u16`), as staged
/// by `intermittent_sim::journal`.
const JOURNAL_ENTRY_HEADER: usize = 6;

/// Largest single journal record of the interpreter's per-cell layout,
/// count word included: the whole-suite reset (state cell + every
/// variable cell), or a one-machine commit group — group 0 adding the
/// one-event arming sub-writes to its machine's cells and verdict.
fn interpreter_commit_bytes(suite: &MonitorSuite, done_len: usize) -> usize {
    let entry = |bytes: usize| JOURNAL_ENTRY_HEADER + bytes;
    let cells = |m: &StateMachine| entry(u32::SIZE) + m.vars.len() * entry(NvValue::SIZE);
    let armed = entry(u64::SIZE) + entry(u32::SIZE) + entry(done_len);
    let reset = suite.machines().iter().map(cells).sum::<usize>() + entry(2) + armed;
    let group0 = entry(2 + EncodedEvent::SIZE)
        + armed
        + suite.machines().iter().map(cells).max().unwrap_or(0)
        + entry(VerdictCell::SIZE);
    2 + reset.max(group0)
}

/// Sub-write header bytes of one journalled run — the diff-commit
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
    /// Verdicts of one commit group, in logging order: machine index,
    /// event position, action, governing path.
    emits: Vec<Emit>,
    /// The journal record of the current commit, cleared and re-staged
    /// in place by every commit group and every reset.
    tx: TxWriter,
}

/// The armed delivery in RAM: its sequence number, the decoded events
/// and the completion bitmap as persisted, plus the worklist derived
/// from the events — ascending machine indices, each with the mask of
/// armed events it dispatches — and the worklist's cut into commit
/// groups (each group's exclusive end index; group 0 always exists).
/// Sized at install to the capacity and the whole suite. In compiled
/// engines it doubles as the shadow of the armed-delivery region while
/// [`ShadowCache::armed`] is set.
struct Armed {
    seq: u64,
    events: Vec<EncodedEvent>,
    items: Vec<u16>,
    masks: Vec<u32>,
    ends: Vec<u16>,
    done: Vec<u8>,
}

impl Armed {
    /// The worklist range of commit group `g`.
    fn group(&self, g: usize) -> core::ops::Range<usize> {
        let start = g.checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        start..self.ends[g] as usize
    }
}

/// One verdict a step staged: machine index, event position, action,
/// governing path.
type Emit = (usize, usize, OnFail, Option<u32>);

/// An encoded verdict cell: `(machine index | event position << 16,
/// (action tag, path))` — the exact value one `verdict_cells` slot
/// stores.
type VerdictCell = (u32, (u8, u32));

/// The verdict cell logging `emit`.
fn verdict_cell(&(i, e, action, path): &Emit) -> VerdictCell {
    (i as u32 | ((e as u32) << 16), encode_action(action, path))
}

/// One machine's decoded shadow image. Live iff `gen` equals the
/// cache's current generation; `gen == 0` never matches (generations
/// start at 1), so a fresh entry is invalid without an extra flag.
#[derive(Clone)]
struct MachineShadow {
    gen: u64,
    state: u32,
    vars: Vec<Value>,
}

/// The volatile shadow of every FRAM location the hot path reads (see
/// the module docs, "Volatile shadow cache"). Write-through: entries
/// are updated from bytes that are durable (after a successful read or
/// commit) or staged in the record of the commit group about to be
/// committed — a machine's new image, its group's done bit, a freshly
/// armed delivery — and every entry point that fails wipes the whole
/// cache, so shadow contents equal the corresponding FRAM bytes within
/// one reboot epoch whenever an entry point returns. The packed
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
    verdict_count: Option<u32>,
    /// Generation-tagged verdict cells, indexed like `verdict_cells`.
    verdicts: Vec<(u64, VerdictCell)>,
    machines: Vec<MachineShadow>,
    /// `true` while the engine's [`Armed`] buffers mirror the armed
    /// delivery in FRAM (its worklist already derived).
    armed: bool,
    stats: CacheStats,
}

impl ShadowCache {
    /// A cold cache for `machines` machines and `verdict_slots`
    /// verdict cells.
    fn new(epoch: u64, machines: usize, verdict_slots: usize) -> Self {
        ShadowCache {
            epoch,
            gen: 1,
            journal_clean: false,
            seq: None,
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
            armed: false,
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
        self.verdict_count = None;
        self.armed = false;
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
    /// Events one armed delivery holds (1 unless [`BatchMode::Enabled`]
    /// took effect on a compiled engine).
    capacity: usize,
    /// The armed delivery, all fixed by its group 0 record: its first
    /// sequence number, its event array (`u16` count + `capacity` ×
    /// [`EncodedEvent`]), the verdict log and the done bitmap (one bit
    /// per commit group).
    seq_cell: NvCell<u64>,
    events_addr: usize,
    verdict_count: NvCell<u32>,
    verdict_cells: Vec<NvCell<VerdictCell>>,
    done: DoneCell,
    /// The volatile shadow of the hot path's FRAM reads: `Some` iff
    /// the engine is compiled (the interpreter reads FRAM directly).
    cache: Option<RefCell<ShadowCache>>,
    /// The device's cost model and energy budget, which size the commit
    /// groups ([`artemis_ir::analysis::commit_groups`]).
    profile: EnergyProfile,
    /// `true` when the bounds pass proved at install that the cut never
    /// splits a worklist this engine can arm, so arming skips pricing
    /// members: the answer [`artemis_ir::analysis::commit_groups`]
    /// would give is one group.
    one_group: bool,
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
            energy,
            // Compilation already happened in the caller's hands.
            opt: _,
        } = opts;
        let compiled_mode = mode == ExecMode::Compiled;

        // Group commits step compiled blocks; the interpreter keeps a
        // one-event delivery.
        let max_events = match batch {
            BatchMode::Enabled { max_events } if compiled_mode => {
                max_events.clamp(1, MAX_BATCH_EVENTS)
            }
            _ => 1,
        };
        // One done bit per commit group; a worklist never holds more
        // groups than the suite has machines.
        let done_len = artemis_ir::analysis::done_bytes(suite.len());

        // Journal capacity = the static worst-case record: the larger
        // of the whole-suite reset commit and any event key's largest
        // commit group, cut against this device's energy budget. A
        // multi-event delivery's bound joins the max (every machine in
        // one group, group 0 carrying the whole event array). The
        // interpreter's per-cell layout stages one sub-write per
        // variable, so its records are costed separately.
        //
        // A one-event delivery's worklist is its key's interest list, so
        // when the bounds pass cuts every key into one group, so does
        // the engine; a batch bound that fits every machine in one group
        // covers any worklist a batch can arm.
        let profile = dev.energy_profile();
        let bounds = artemis_ir::analysis::suite_bounds(&compiled, &profile);
        let mut capacity = bounds.worst_commit_bytes;
        let mut one_group = bounds.per_key.iter().all(|k| k.groups == 1);
        if max_events > 1 {
            let batch = artemis_ir::analysis::batch_bounds(&compiled, max_events, &profile);
            capacity = capacity.max(batch.worst_commit_bytes);
            one_group = batch.fits_one_group;
        }
        if mode == ExecMode::Interpreter {
            capacity = capacity.max(interpreter_commit_bytes(&suite, done_len));
        }

        // Static analysis gate — before anything touches FRAM. The
        // first (most severe) error rejects the install; warnings
        // surface on the trace. The capacity is derived from the same
        // bounds, so the gate skips the capacity cross-check.
        let mut diags = artemis_ir::analysis::analyze_suite(&suite, &compiled, None);
        if let Some(gate) = energy {
            diags.extend(artemis_ir::analysis::check_energy(
                &compiled, &bounds, app, &gate,
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
            // The armed delivery, zeroed: no events, nothing pending.
            let seq_cell = dev.nv_alloc(0u64, owner, "monitor.seq").map_err(dev_err)?;
            let events_addr = dev
                .nv_alloc_raw(2 + EncodedEvent::SIZE * max_events, owner, "monitor.events")
                .map_err(dev_err)?;
            let verdict_count = dev
                .nv_alloc(0u32, owner, "monitor.verdicts.count")
                .map_err(dev_err)?;
            let done = DoneCell {
                addr: dev
                    .nv_alloc_raw(done_len, owner, "monitor.done")
                    .map_err(dev_err)?,
                len: done_len,
            };

            // One verdict cell per machine per event the largest
            // delivery can carry (a batched machine can emit once per
            // event it dispatches).
            let verdict_slots = suite.len() * max_events;
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
                emits: Vec::with_capacity(verdict_cells.len()),
                // Every record fits the journal, so staging never grows it.
                tx: TxWriter::with_capacity(capacity),
            });
            let armed = RefCell::new(Armed {
                seq: 0,
                events: Vec::with_capacity(max_events),
                items: Vec::with_capacity(machines.len()),
                masks: Vec::with_capacity(machines.len()),
                ends: Vec::with_capacity(machines.len() + 1),
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
                ))
            });
            Ok(MonitorEngine {
                mode,
                compiled,
                machines,
                journal,
                capacity: max_events,
                seq_cell,
                events_addr,
                verdict_count,
                verdict_cells,
                done,
                cache,
                profile,
                one_group,
                exec: RefCell::new(ExecStats::default()),
                scratch,
                armed,
            })
        })();
        dev.set_category(prev);
        result
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
    /// epoch, the flag re-read is skipped entirely. Returns `true` when
    /// a torn commit was replayed.
    fn recover_cached(&self, dev: &mut Device) -> Result<bool, Interrupt> {
        let Some(cache) = &self.cache else {
            return dev.recover(&self.journal);
        };
        if cache.borrow().journal_clean {
            cache.borrow_mut().stats.hits += 1;
            return Ok(false);
        }
        let replayed = dev.recover(&self.journal)?;
        let mut c = cache.borrow_mut();
        c.journal_clean = true;
        c.stats.misses += 1;
        Ok(replayed)
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

    /// Makes `armed` hold the armed delivery: from the shadow when it
    /// is live, else one FRAM read of the event array and one of the
    /// done bitmap, with the worklist and its commit groups re-derived
    /// from the events. The empty delivery of a fresh install or a
    /// reset has nothing to commit, so its group 0 counts as done. An
    /// event count past the capacity, or an armed delivery whose group
    /// 0 is not marked done — group 0's record persists the arming
    /// together with that bit — faults with [`Fault::CorruptState`].
    fn load_armed(&self, dev: &mut Device, armed: &mut Armed) -> Result<(), Interrupt> {
        if let Some(cache) = &self.cache {
            let mut c = cache.borrow_mut();
            if c.armed {
                c.stats.hits += 1;
                return Ok(());
            }
        }
        {
            let bytes =
                dev.nv_read_raw(self.events_addr, 2 + EncodedEvent::SIZE * self.capacity)?;
            let n = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
            if n > self.capacity {
                return Err(Interrupt::Fault(Fault::CorruptState));
            }
            armed.events.clear();
            armed.events.extend(
                bytes[2..2 + n * EncodedEvent::SIZE]
                    .chunks_exact(EncodedEvent::SIZE)
                    .map(EncodedEvent::load),
            );
        }
        armed.done.clear();
        armed
            .done
            .extend_from_slice(dev.nv_read_raw(self.done.addr, self.done.len)?);
        if armed.events.is_empty() {
            armed.done[0] |= 1;
        } else if !done_bit(&armed.done, 0) {
            return Err(Interrupt::Fault(Fault::CorruptState));
        }
        self.derive_worklist(dev, armed)?;
        self.cache_put(|c| {
            c.armed = true;
            c.stats.misses += 1;
        });
        Ok(())
    }

    /// Fills `scratch.block` with the first `span` bytes of machine
    /// `i`'s block image — from the shadow when warm, else one
    /// whole-block FRAM read that also refills the shadow, so the
    /// *next* touch is free. A cold block whose state word is past the
    /// machine's state count faults with [`Fault::CorruptState`].
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
            if ms.state as usize >= self.machines[i].machine.states.len() {
                return Err(Interrupt::Fault(Fault::CorruptState));
            }
            ms.gen = *gen;
            c.stats.misses += 1;
        }
        scratch.block.truncate(span);
        Ok(())
    }

    /// Write-through of a staged machine step: fold the new state and
    /// the staged prefix `vars` (slots `0..len`) into machine `i`'s
    /// shadow, so shadow and FRAM agree once the group commits (a
    /// failed commit wipes the cache). The step loaded the machine
    /// before staging, so its shadow is live; a dead one stays dead
    /// (partial knowledge is never stored).
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

    /// Shadow-aware read of the verdict-log length. A count past the
    /// log faults with [`Fault::CorruptState`].
    fn read_verdict_count_cached(&self, dev: &mut Device) -> Result<u32, Interrupt> {
        self.cache_read(
            dev,
            |c| c.verdict_count,
            |c, v| c.verdict_count = Some(*v),
            |d| match d.nv_read(&self.verdict_count)? {
                n if n as usize > self.verdict_cells.len() => {
                    Err(Interrupt::Fault(Fault::CorruptState))
                }
                n => Ok(n),
            },
        )
    }

    /// Shadow-aware read of verdict cell `slot`, decoded to its event
    /// position and verdict (`None` for an unknown action tag). A
    /// machine index past the suite faults with [`Fault::CorruptState`].
    fn read_verdict(
        &self,
        dev: &mut Device,
        slot: usize,
    ) -> Result<(usize, Option<MonitorVerdict>), Interrupt> {
        let (packed, encoded) = self.cache_read(
            dev,
            |c| (c.verdicts[slot].0 == c.gen).then_some(c.verdicts[slot].1),
            |c, v| {
                let gen = c.gen;
                c.verdicts[slot] = (gen, *v);
            },
            |d| d.nv_read(&self.verdict_cells[slot]),
        )?;
        // The event position rides in the high half-word, the machine
        // index in the low one.
        let machine_index = (packed & 0xFFFF) as usize;
        let lm = self
            .machines
            .get(machine_index)
            .ok_or(Interrupt::Fault(Fault::CorruptState))?;
        let verdict = decode_action(encoded).map(|action| MonitorVerdict {
            machine_index,
            machine: lm.machine.name.clone(),
            action,
        });
        Ok(((packed >> 16) as usize, verdict))
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

    /// Runs an entry point billed to the monitor and synced to the
    /// reboot epoch. On `Err` (a power failure mid-delivery) anything
    /// shadowed since the last commit is suspect, so the whole cache is
    /// dropped — silently: the epoch sync after the reboot accounts the
    /// invalidation.
    fn entry<T>(
        &self,
        dev: &mut Device,
        f: impl FnOnce(&mut Device) -> Result<T, Interrupt>,
    ) -> Result<T, Interrupt> {
        let r = dev.billed(CostCategory::Monitor, |dev| {
            self.cache_sync(dev);
            f(dev)
        });
        if r.is_err() {
            if let Some(cache) = &self.cache {
                cache.borrow_mut().wipe();
            }
        }
        r
    }

    /// Hard reset: re-initialises every machine and clears the armed
    /// delivery (Figure 8 `resetMonitor`; run once at first boot).
    pub fn reset_monitor(&self, dev: &mut Device) -> Result<(), Interrupt> {
        self.entry(dev, |dev| {
            let tx = &mut self.scratch.borrow_mut().tx;
            tx.clear();
            for lm in &self.machines {
                stage_machine_reset(tx, lm);
            }
            tx.write(&self.verdict_count, 0u32);
            tx.write(&self.seq_cell, 0u64);
            tx.write_zeroed(self.events_addr, 2);
            tx.write_zeroed(self.done.addr, self.done.len);
            dev.commit(&self.journal, tx)?;
            // The reset commit just (re)wrote every location the cache
            // mirrors — fill all the shadows, so even the first event
            // after a reset runs write-only.
            let armed = &mut *self.armed.borrow_mut();
            armed.seq = 0;
            armed.events.clear();
            armed.items.clear();
            armed.masks.clear();
            armed.ends.clear();
            armed.ends.push(0);
            armed.done.clear();
            armed.done.resize(self.done.len, 0);
            armed.done[0] = 1; // an empty delivery is complete (`load_armed`)
            self.cache_put(|c| {
                c.seq = Some(0);
                c.verdict_count = Some(0);
                c.armed = true;
            });
            self.shadow_reset_machines(|_| true);
            Ok(())
        })
    }

    /// Completes a delivery interrupted by a power failure, if any
    /// (Figure 8 `monitorFinalize`; run on every reboot before task
    /// processing). Returns `true` if there was work to finish: a torn
    /// commit group to replay, or pending groups to run.
    pub fn monitor_finalize(&self, dev: &mut Device) -> Result<bool, Interrupt> {
        self.entry(dev, |dev| {
            // Repair a torn journal commit first.
            let replayed = self.recover_cached(dev)?;
            let armed = &mut *self.armed.borrow_mut();
            self.load_armed(dev, armed)?;
            Ok(self.run_armed(dev, armed)? || replayed)
        })
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
        self.entry(dev, |dev| {
            self.deliver(dev, seq, core::slice::from_ref(event))?;
            self.read_verdicts(dev)
        })
    }

    /// Delivers a burst of events under consecutive sequence numbers
    /// (`first_seq`, `first_seq + 1`, …) through the group-commit path
    /// and returns one verdict list per event, in delivery order.
    ///
    /// One armed delivery holds up to [`MonitorEngine::batch_capacity`]
    /// events; each interested machine steps through all its events in
    /// volatile scratch and stages its coalesced net effect once, into
    /// its commit group's record (group 0's also arms the events).
    /// Redelivering a processed batch (same `first_seq` and events) only
    /// finishes pending groups and returns the recorded verdicts.
    /// Bursts longer than the capacity split into maximal deliveries.
    pub fn deliver_batch(
        &self,
        dev: &mut Device,
        first_seq: u64,
        events: &[MonitorEvent],
    ) -> Result<Vec<Vec<MonitorVerdict>>, Interrupt> {
        let mut out = Vec::with_capacity(events.len());
        for (ci, chunk) in events.chunks(self.capacity).enumerate() {
            let seq = first_seq + (ci * self.capacity) as u64;
            self.entry(dev, |dev| {
                self.deliver(dev, seq, chunk)?;
                self.read_batch_verdicts(dev, chunk.len(), &mut out)
            })?;
        }
        Ok(out)
    }

    /// Delivers `events` (at most the capacity) as one armed delivery
    /// under `first_seq` — the one delivery path of both public entry
    /// points. A new sequence number first finishes any pending
    /// delivery, so arming never discards one, then arms; a redelivered
    /// one only finishes its pending entries.
    fn deliver(
        &self,
        dev: &mut Device,
        first_seq: u64,
        events: &[MonitorEvent],
    ) -> Result<(), Interrupt> {
        self.recover_cached(dev)?;
        let last = self.cache_read(
            dev,
            |c| c.seq,
            |c, v| c.seq = Some(*v),
            |d| d.nv_read(&self.seq_cell),
        )?;
        let armed = &mut *self.armed.borrow_mut();
        self.load_armed(dev, armed)?;
        if last != first_seq {
            self.run_armed(dev, armed)?;
            self.arm(dev, first_seq, events, armed)?;
        }
        self.run_armed(dev, armed)?;
        Ok(())
    }

    /// Arms `events` under `first_seq` in RAM: encodes them, derives
    /// their worklist and commit groups into `armed`, and clears the
    /// done bitmap. Nothing is written: the arming sub-writes ride in
    /// group 0's record ([`MonitorEngine::commit_group`]), so a failure
    /// before that record's flag write leaves the previous delivery
    /// armed and the caller re-arms cleanly; a failure after it resumes
    /// exactly the armed set.
    fn arm(
        &self,
        dev: &mut Device,
        first_seq: u64,
        events: &[MonitorEvent],
        armed: &mut Armed,
    ) -> Result<(), Interrupt> {
        // `armed` runs ahead of FRAM until group 0 commits; a failure
        // before then wipes its shadow with the rest (`entry`).
        let energy_nj = dev.energy_level().as_nano_joules();
        armed.seq = first_seq;
        armed.events.clear();
        armed.events.extend(
            events
                .iter()
                .map(|e| EncodedEvent::from_event(e, energy_nj)),
        );
        self.derive_worklist(dev, armed)?;
        armed.done.clear();
        armed.done.resize(self.done.len, 0);
        Ok(())
    }

    /// Derives the worklist of `armed.events` — ascending machine
    /// indices, each with the mask of the events it dispatches — and
    /// its commit groups, charging one routing lookup per event. In
    /// compiled mode the worklist is the routing index's interest
    /// lists, cut into groups by
    /// [`artemis_ir::analysis::commit_groups`] on the members' static
    /// ceilings and the device's energy budget; the dynamic `Path:`
    /// filter then clears dismissed events from the masks, leaving the
    /// groups exactly the ones the bounds pass prices. All of it is a
    /// deterministic function of the events. The interpreter arms every
    /// machine, one per group, and dismisses in its step.
    fn derive_worklist(&self, dev: &mut Device, armed: &mut Armed) -> Result<(), Interrupt> {
        dev.compute(ROUTING_LOOKUP_CYCLES * armed.events.len() as u64)?;
        let Armed {
            events,
            items,
            masks,
            ends,
            ..
        } = armed;
        items.clear();
        masks.clear();
        ends.clear();
        if self.mode == ExecMode::Interpreter {
            // Every machine sees the (one) armed event, if any.
            if !events.is_empty() {
                items.extend(0..self.machines.len() as u16);
                masks.resize(items.len(), 1);
                ends.extend(1..=items.len() as u16);
            }
            if ends.is_empty() {
                ends.push(0);
            }
            return Ok(());
        }
        for (e, encoded) in events.iter().enumerate() {
            for &mi in self
                .compiled
                .routing()
                .interested(encoded.event_kind(), encoded.task)
            {
                match items.binary_search(&mi) {
                    Ok(j) => masks[j] |= 1 << e,
                    Err(j) => {
                        items.insert(j, mi);
                        masks.insert(j, 1 << e);
                    }
                }
            }
        }
        if self.one_group {
            ends.push(items.len() as u16);
        } else {
            let machines = self.compiled.machines();
            let routed = |mask: u32| {
                events
                    .iter()
                    .enumerate()
                    .filter(move |(e, _)| mask & (1 << e) != 0)
                    .map(|(_, ev)| (ev.event_kind(), ev.task))
            };
            let members = items
                .iter()
                .zip(masks.iter())
                .map(|(&mi, &mask)| MemberCost::routed(&machines[mi as usize], routed(mask)));
            let shape = ArmedShape {
                capacity: self.capacity,
                events: events.len(),
                done_bytes: self.done.len,
            };
            commit_groups(members, &shape, &self.profile, ends);
        }
        for (&mi, mask) in items.iter().zip(masks.iter_mut()) {
            for (e, encoded) in events.iter().enumerate() {
                if path_dismissed(&self.machines[mi as usize], encoded) {
                    *mask &= !(1 << e);
                }
            }
        }
        Ok(())
    }

    /// Commits the pending groups of the armed delivery, in order, and
    /// reports whether there were any. Everything the loop depends on —
    /// the events, and the worklist and groups derived from them — was
    /// fixed by group 0's record, so a resume after any power failure
    /// processes exactly the armed set; completed groups are skipped
    /// via the bitmap.
    fn run_armed(&self, dev: &mut Device, armed: &mut Armed) -> Result<bool, Interrupt> {
        let mut pending = false;
        for g in 0..armed.ends.len() {
            if done_bit(&armed.done, g) {
                continue;
            }
            pending = true;
            // Set in RAM just ahead of the commit that persists it: if
            // that commit fails, the entry point wipes the shadow these
            // buffers belong to.
            armed.done[g / 8] |= 1 << (g % 8);
            self.commit_group(dev, armed, g)?;
        }
        Ok(pending)
    }

    /// Steps every member of commit group `g` and commits the group as
    /// **one** journal record: group 0's arming sub-writes (event
    /// array and sequence number), each member's staged runs, one
    /// verdict cell per staged verdict, the verdict count (reset by
    /// group 0, appended to by later groups) and the done bitmap — which
    /// already has `g`'s bit set. A later group that staged nothing but
    /// its bit completes with one plain idempotent bitmap write
    /// (re-execution after a power failure is harmless).
    fn commit_group(&self, dev: &mut Device, armed: &Armed, g: usize) -> Result<(), Interrupt> {
        let scratch = &mut *self.scratch.borrow_mut();
        scratch.tx.clear();
        scratch.emits.clear();
        if g == 0 {
            let n = armed.events.len();
            let region = scratch
                .tx
                .write_slot(self.events_addr, 2 + EncodedEvent::SIZE * n);
            region[..2].copy_from_slice(&(n as u16).to_le_bytes());
            for (encoded, dst) in armed
                .events
                .iter()
                .zip(region[2..].chunks_exact_mut(EncodedEvent::SIZE))
            {
                encoded.store(dst);
            }
            scratch.tx.write(&self.seq_cell, armed.seq);
        }
        for j in armed.group(g) {
            let i = armed.items[j] as usize;
            match self.mode {
                ExecMode::Compiled => {
                    self.step_block(dev, i, &armed.events, armed.masks[j], scratch)?
                }
                ExecMode::Interpreter => {
                    self.step_interpreted(dev, i, &armed.events[0], scratch)?
                }
            }
        }

        // Group 0 resets the verdict log, later groups append to it.
        let Scratch { tx, emits, .. } = scratch;
        let logs = g == 0 || !emits.is_empty();
        let count = if g > 0 && logs {
            self.read_verdict_count_cached(dev)?
        } else {
            0
        };
        if logs {
            let cells = self
                .verdict_cells
                .get(count as usize..count as usize + emits.len())
                .ok_or(Interrupt::Fault(Fault::CorruptState))?;
            for (vc, emit) in cells.iter().zip(emits.iter()) {
                tx.write(vc, verdict_cell(emit));
            }
            tx.write(&self.verdict_count, count + emits.len() as u32);
        }
        tx.write_raw(self.done.addr, &armed.done);
        if tx.len() == 1 {
            return dev.nv_write_raw(self.done.addr, &armed.done);
        }
        dev.commit(&self.journal, tx)?;
        self.cache_put(|c| {
            c.journal_clean = true;
            if logs {
                let gen = c.gen;
                for (k, emit) in emits.iter().enumerate() {
                    c.verdicts[count as usize + k] = (gen, verdict_cell(emit));
                }
                c.verdict_count = Some(count + emits.len() as u32);
            }
            if g == 0 {
                // Group 0 fixed every activation input — the run reads
                // nothing more from FRAM.
                c.seq = Some(armed.seq);
                c.armed = true;
            }
        });
        Ok(())
    }

    /// Steps compiled machine `i` through every event of `events` whose
    /// bit is set in `mask`, in delivery order, and stages its
    /// **coalesced** net effect into its group's record: repeated
    /// writes to a slot collapse to the last value in scratch, and the
    /// record gains the changed byte runs of the covered block prefix
    /// (the whole block image for degraded keys); each emitting event
    /// adds a verdict to `scratch.emits`. A member whose events the
    /// `Path:` filter dismissed (empty `mask`) costs nothing.
    fn step_block(
        &self,
        dev: &mut Device,
        i: usize,
        events: &[EncodedEvent],
        mask: u32,
        scratch: &mut Scratch,
    ) -> Result<(), Interrupt> {
        if mask == 0 {
            return Ok(());
        }
        let lm = &self.machines[i];
        let MachineStore::Block { addr, len } = lm.store else {
            unreachable!("compiled mode allocates block storage");
        };
        let cm = &self.compiled.machines()[i];
        let layout = cm.layout();

        // Merge the static footprints of the events this machine will
        // actually dispatch — the union of their access sets, of which
        // the step needs only the degrade flag and the highest touched
        // slot — and bill each dispatch-table test plus the key's static
        // compute ceiling (cycle-priced worst path through the
        // dispatched transitions). Static and state-independent, so the
        // charge never leaks machine state — and the bounds/energy
        // passes price the exact same table.
        let mut whole = false;
        let mut max_slot = None;
        let mut step_mask = 0u32;
        let mut cycles = 0u64;
        for (e, encoded) in events.iter().enumerate() {
            if mask & (1 << e) == 0 {
                continue;
            }
            let kind = encoded.event_kind();
            cycles += COMPILED_DISPATCH_CYCLES;
            if cm.dispatch_len(kind, encoded.task) > 0 {
                cycles += cm.step_cost(kind, encoded.task).cycles;
                let key = cm.access(kind, encoded.task);
                whole |= key.whole_block;
                max_slot = max_slot.max(key.max_touched_slot());
                step_mask |= 1 << e;
            }
        }
        dev.compute(cycles)?;
        if step_mask == 0 {
            return Ok(());
        }

        // Degraded keys load and commit the full block image; sparse
        // ones the covering span.
        let (covered, span) = if whole {
            (layout.var_count(), len)
        } else {
            (
                max_slot.map_or(0, |s| s as usize + 1),
                layout.span(max_slot),
            )
        };

        self.load_block(dev, i, addr, len, span, scratch)?;
        let mut state = 0u32;
        layout.decode_prefix(&scratch.block, covered, &mut state, &mut scratch.vars);
        scratch.vars.resize(cm.var_count(), Value::Int(0));

        for (e, encoded) in events.iter().enumerate() {
            if step_mask & (1 << e) == 0 {
                continue;
            }
            let event = CompiledEvent {
                kind: encoded.event_kind(),
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
                    .push((i, e, fail.action, fail.path.or(lm.machine.path)));
            }
        }

        // Re-encode and compare byte for byte against the loaded image
        // (canonical encoding makes the comparison exact). A degraded
        // key stages its whole block as one run whenever it changed at
        // all; a sparse key stages only the changed runs.
        if whole {
            layout.encode(state, &scratch.vars, &mut scratch.block_new);
            if scratch.block_new == scratch.block {
                return Ok(());
            }
            scratch.tx.write_raw(addr, &scratch.block_new);
        } else {
            layout.encode_prefix(state, &scratch.vars, covered, &mut scratch.block_new);
            diff_runs(&scratch.block, &scratch.block_new, &mut scratch.runs);
            if scratch.runs.is_empty() {
                return Ok(());
            }
            for &(s, e) in &scratch.runs {
                scratch.tx.write_raw(addr + s, &scratch.block_new[s..e]);
            }
        }
        self.shadow_machine_update(i, state, &scratch.vars[..covered]);
        Ok(())
    }

    /// Appends the verdicts of the armed delivery of `n_events` events
    /// to `out`, one list per event in delivery order. Machines step in
    /// ascending suite order and log their events in delivery order, so
    /// each list comes back in suite order, as a one-event delivery's.
    fn read_batch_verdicts(
        &self,
        dev: &mut Device,
        n_events: usize,
        out: &mut Vec<Vec<MonitorVerdict>>,
    ) -> Result<(), Interrupt> {
        let base = out.len();
        out.resize_with(base + n_events, Vec::new);
        let count = self.read_verdict_count_cached(dev)?;
        for slot in 0..count as usize {
            if let (e, Some(verdict)) = self.read_verdict(dev, slot)? {
                if let Some(list) = out[base..].get_mut(e) {
                    list.push(verdict);
                }
            }
        }
        Ok(())
    }

    /// Events one armed delivery holds: the largest burst
    /// [`MonitorEngine::deliver_batch`] commits as one group (1 unless
    /// [`BatchMode::Enabled`] took effect).
    pub fn batch_capacity(&self) -> usize {
        self.capacity
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
        self.entry(dev, |dev| self.read_verdicts(dev))
    }

    /// Re-initialises the machines affected by a restart of `path`
    /// (paper §3.3: monitors linked to tasks of a restarted path).
    pub fn on_path_restart(&self, dev: &mut Device, path: PathId) -> Result<(), Interrupt> {
        let affected = |lm: &LoadedMachine| {
            lm.machine.reset_on_path_restart && lm.machine.path == Some(path.number())
        };
        self.entry(dev, |dev| {
            let tx = &mut self.scratch.borrow_mut().tx;
            tx.clear();
            for lm in self.machines.iter().filter(|lm| affected(lm)) {
                stage_machine_reset(tx, lm);
            }
            dev.commit(&self.journal, tx)?;
            // The commit rewrote the affected machines' images to
            // their initial snapshots — mirror that in their shadows.
            self.shadow_reset_machines(affected);
            Ok(())
        })
    }

    /// Interpreter step: the reference path over per-variable cells,
    /// staging the changed cells and any verdict into its group's
    /// record.
    fn step_interpreted(
        &self,
        dev: &mut Device,
        i: usize,
        encoded: &EncodedEvent,
        scratch: &mut Scratch,
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
        // dismissed machine cannot change state, so it stages nothing.
        let dismissed = path_dismissed(lm, encoded)
            || matches!(&lm.observed, Some(tasks) if !tasks.contains(&encoded.task));
        if dismissed {
            return dev.compute(STEP_BASE_CYCLES);
        }

        // Model the compute cost of the generated step function.
        dev.compute(
            STEP_BASE_CYCLES + STEP_PER_TRANSITION_CYCLES * lm.machine.transitions.len() as u64,
        )?;

        let task_name = self.compiled.task_name(encoded.task);

        let before_state = dev.nv_read(state_cell)?;
        if before_state as usize >= lm.machine.states.len() {
            return Err(Interrupt::Fault(Fault::CorruptState));
        }
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
            kind: encoded.event_kind(),
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

        // Only changed cells are staged (matches the generated C, which
        // only touches FRAM on actual assignments).
        if mstate.state != before_state {
            scratch.tx.write(state_cell, mstate.state);
        }
        for ((cell, v), old) in var_cells
            .iter()
            .zip(&scratch.vars)
            .zip(&scratch.before_vars)
        {
            if v != old {
                scratch.tx.write(cell, NvValue(*v));
            }
        }
        if let Some(fail) = emit {
            scratch
                .emits
                .push((i, 0, fail.action, fail.path.or(lm.machine.path)));
        }
        Ok(())
    }

    fn read_verdicts(&self, dev: &mut Device) -> Result<Vec<MonitorVerdict>, Interrupt> {
        let count = self.read_verdict_count_cached(dev)?;
        // No verdicts, no allocation: an empty `Vec` owns no heap.
        let mut out = Vec::with_capacity(count as usize);
        for slot in 0..count as usize {
            out.extend(self.read_verdict(dev, slot)?.1);
        }
        Ok(out)
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
pub(crate) fn encode_action(action: OnFail, path: Option<u32>) -> (u8, u32) {
    let tag = match action {
        OnFail::RestartTask => 0,
        OnFail::SkipTask => 1,
        OnFail::RestartPath => 2,
        OnFail::SkipPath => 3,
        OnFail::CompletePath => 4,
    };
    (tag, path.unwrap_or(0))
}

/// Decodes an action tag back; `None` for unknown tags.
pub(crate) fn decode_action(encoded: (u8, u32)) -> Option<Action> {
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

    /// The journal is the install's first FRAM allocation, sized to
    /// the derived worst-case record: a device whose FRAM cannot hold
    /// it rejects the install before the monitor owns a byte.
    #[test]
    fn install_rejects_over_budget_journal_capacity() {
        let app = app();
        let spec = "accel { maxTries: 5 onFail: skipPath; }";
        let suite = artemis_ir::compile(spec, &app).unwrap();
        let compiled = CompiledSuite::compile(&suite, &app).unwrap();
        let profile = DeviceBuilder::msp430fr5994().build().energy_profile();
        let worst = artemis_ir::suite_bounds(&compiled, &profile).worst_commit_bytes;

        // The flag byte plus a record of `worst` bytes needs one byte
        // more than this device has.
        let mut dev = DeviceBuilder::msp430fr5994().fram_capacity(worst).build();
        let err = MonitorEngine::install(&mut dev, suite, &app)
            .err()
            .expect("install must be rejected");
        match err {
            InstallError::Device(Interrupt::Fault(Fault::OutOfFram {
                requested,
                available,
            })) => {
                assert_eq!(requested, worst + 1);
                assert_eq!(available, worst);
            }
            other => panic!("expected an out-of-FRAM rejection, got {other}"),
        }
        assert_eq!(dev.fram().used_by(MemOwner::Monitor), 0);
        assert_eq!(dev.fram().used(), 0);

        // The same suite installs once the journal fits.
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let suite = artemis_ir::compile(spec, &app).unwrap();
        let engine = MonitorEngine::install(&mut dev, suite, &app).unwrap();
        assert_eq!(engine.journal.capacity(), worst);
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
        read_bytes: usize,
        writes: usize,
        write_bytes: usize,
        energy: Energy,
        records: u64,
    }

    /// The two commit-group regimes the exactness pins run in: the
    /// default 1.6 mJ capacitor, which fits every worklist of these
    /// suites in one group, and a 1 nJ one (on continuous power), which
    /// fits no two machines — one machine per group.
    const REGIMES: [bool; 2] = [false, true];

    /// A continuously powered device of the `tiny` regime.
    fn regime_device(tiny: bool) -> Device {
        let b = DeviceBuilder::msp430fr5994();
        match tiny {
            false => b.build(),
            true => b
                .capacitor(Capacitor::with_budget(Energy::from_nano_joules(1)))
                .build(),
        }
    }

    /// Installs `suite` on the default engine of a `tiny`-regime device
    /// (batching `batch` events per delivery when `Some`), resets it,
    /// and makes `deliveries` deliveries of consecutive `start(t0)`
    /// events. With `cold`, SRAM is cleared before every delivery — the
    /// always-cold engine, where each delivery takes the post-reboot
    /// read path.
    fn measure(
        suite: &MonitorSuite,
        app: &AppGraph,
        batch: Option<usize>,
        deliveries: u64,
        cold: bool,
        tiny: bool,
    ) -> Traffic {
        let t0 = app.task_by_name("t0").unwrap();
        let mut dev = regime_device(tiny);
        let opts = InstallOptions {
            batch: batch.map_or(BatchMode::Disabled, |max_events| BatchMode::Enabled {
                max_events,
            }),
            ..InstallOptions::default()
        };
        let engine = MonitorEngine::install_with(&mut dev, suite.clone(), app, opts).unwrap();
        engine.reset_monitor(&mut dev).unwrap();

        let per = batch.unwrap_or(1) as u64;
        let fram = |dev: &Device| {
            let f = dev.fram();
            [f.read_ops(), f.read_bytes(), f.write_ops(), f.write_bytes()]
        };
        let fram0 = fram(&dev);
        let records0 = dev.journal_records();
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
        let now = fram(&dev);
        let [reads, read_bytes, writes, write_bytes] =
            [0, 1, 2, 3].map(|i| (now[i] - fram0[i]) as usize);
        Traffic {
            reads,
            read_bytes,
            writes,
            write_bytes,
            energy: dev.stats().energy(CostCategory::Monitor) - energy0,
            records: dev.journal_records() - records0,
        }
    }

    /// The static per-event cost of `start(t0)` in `suite` on a
    /// `tiny`-regime device.
    fn t0_key(suite: &MonitorSuite, app: &AppGraph, tiny: bool) -> artemis_ir::analysis::EventCost {
        let compiled = CompiledSuite::compile(suite, app).unwrap();
        artemis_ir::suite_bounds(&compiled, &regime_device(tiny).energy_profile())
            .per_key
            .into_iter()
            .find(|c| c.kind == EventKind::StartTask && c.task == Some(0))
            .unwrap()
    }

    /// Pins one key's static model on the default engine: warm
    /// deliveries read nothing and write exactly the modelled ops and
    /// bytes, one journal record per commit group; always-cold
    /// deliveries read exactly `cold_extra_reads` ops and
    /// `cold_read_bytes` bytes, under the post-reboot ceilings, and
    /// write the same.
    fn assert_event_model_attained(
        suite: &MonitorSuite,
        app: &AppGraph,
        key: &artemis_ir::analysis::EventCost,
        events: u64,
        tiny: bool,
    ) {
        let n = events as usize;
        let warm = measure(suite, app, None, events, false, tiny);
        assert_eq!(warm.reads, 0, "warm delivery must be write-only");
        assert_eq!(warm.writes, key.writes * n, "write model drifted");
        assert_eq!(warm.write_bytes, key.write_bytes * n, "byte model drifted");
        assert_eq!(
            warm.records,
            (key.groups * n) as u64,
            "one record per group"
        );

        let cold = measure(suite, app, None, events, true, tiny);
        assert_eq!(cold.reads, key.cold_extra_reads * n, "cold model drifted");
        assert_eq!(
            cold.read_bytes,
            key.cold_read_bytes * n,
            "cold byte model drifted"
        );
        assert!(key.cold_extra_reads <= key.reads);
        assert!(key.cold_read_bytes <= key.read_bytes);
        assert_eq!(cold.writes, warm.writes, "the shadow is write-through");
        assert_eq!(cold.write_bytes, warm.write_bytes);
    }

    /// Pins the static FRAM cost model of `artemis_ir::analysis::bounds`
    /// to the engine it describes on the degraded dispatch workload:
    /// every machine writes all twelve variables, so every member
    /// stages a whole-block image and the model is attained exactly —
    /// with the worklist in one commit group, and one machine per group.
    #[test]
    fn bounds_model_matches_engine() {
        const MACHINES: usize = 8;
        let (suite, app) = dispatch_suite(MACHINES, 12);
        for tiny in REGIMES {
            let key = t0_key(&suite, &app, tiny);
            assert_eq!(key.machines, MACHINES);
            assert_eq!(key.emitters, 0);
            // Every machine degrades to whole-block commits: one block
            // read and one block sub-write each.
            assert_eq!(key.degraded_machines, MACHINES);
            assert_eq!(key.reads, 4 + MACHINES + 1);
            assert_eq!(key.cold_extra_reads, 4 + MACHINES);
            if tiny {
                // Group 0: arming (4) + a block, 3 fixed writes; each
                // later group: a block and the done bitmap.
                assert_eq!(key.groups, MACHINES);
                assert_eq!(key.writes, 3 + 4 + 1 + (MACHINES - 1) * (3 + 2));
            } else {
                // One record: arming (4) + every block, 3 fixed writes.
                assert_eq!(key.groups, 1);
                assert_eq!(key.writes, 3 + 4 + MACHINES);
            }
            assert_event_model_attained(&suite, &app, &key, 20, tiny);
        }
    }

    /// The sparse twin of [`bounds_model_matches_engine`]: on the
    /// every-byte-flips suite each machine stays on the span-loading
    /// path and its dirty-diff runs carry exactly the state word and
    /// the written slot the model prices, in both group regimes.
    #[test]
    fn bounds_model_matches_engine_delta() {
        const MACHINES: usize = 8;
        let (suite, app) = flip_suite(MACHINES);
        for tiny in REGIMES {
            let key = t0_key(&suite, &app, tiny);
            assert_eq!(key.machines, MACHINES);
            assert_eq!(key.delta_machines, MACHINES, "all machines must go sparse");
            assert_eq!(key.degraded_machines, 0);
            // Armed-delivery load (4r) + per machine one whole-block
            // fill + one readback read.
            assert_eq!(key.reads, 4 + MACHINES + 1);
            // A reboot's refill is the armed-delivery load (flag, seq,
            // events, done) + one whole-block fill per armed machine.
            assert_eq!(key.cold_extra_reads, 4 + MACHINES);
            if tiny {
                // Group 0: arming (4) + state + x; each later group:
                // state + x + done.
                assert_eq!(key.groups, MACHINES);
                assert_eq!(key.writes, 3 + 4 + 2 + (MACHINES - 1) * (3 + 3));
            } else {
                assert_eq!(key.groups, 1);
                assert_eq!(key.writes, 3 + 4 + MACHINES * 2);
            }
            assert_event_model_attained(&suite, &app, &key, 20, tiny);
        }
    }

    /// Dirty-diff commits undercut the model strictly when bytes stay
    /// unchanged: on the sparse increment workload the state word never
    /// changes and only the counter's low byte does, so each machine
    /// stages one 1-byte run instead of the state word and the slot.
    #[test]
    fn diff_commits_undercut_the_model() {
        const MACHINES: usize = 8;
        const EVENTS: u64 = 20;
        let (suite, app) = dispatch_suite(MACHINES, 1);
        let key = t0_key(&suite, &app, false);
        let n = EVENTS as usize;
        let warm = measure(&suite, &app, None, EVENTS, false, false);
        assert_eq!(warm.reads, 0, "diff path must stay write-only when warm");
        assert_eq!(warm.writes, (7 + MACHINES) * n);
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
    /// (whole-block) and sparse (every-byte-flips) workloads and in
    /// both group regimes; always-cold deliveries stay under the
    /// post-reboot ceiling `event_energy`. This is what lets the
    /// install-time feasibility analysis trust its per-attempt numbers.
    #[test]
    fn energy_model_matches_engine() {
        use artemis_ir::analysis::{event_energy, event_energy_cached};

        const EVENTS: u64 = 20;
        let model = *DeviceBuilder::msp430fr5994().build().cost_model();
        for (label, (suite, app)) in [
            ("degraded", dispatch_suite(8, 12)),
            ("sparse", flip_suite(8)),
        ] {
            for tiny in REGIMES {
                let key = t0_key(&suite, &app, tiny);
                let warm = measure(&suite, &app, None, EVENTS, false, tiny);
                assert_eq!(
                    warm.energy,
                    event_energy_cached(&key, &model).saturating_mul(EVENTS),
                    "energy model drifted ({label}, tiny {tiny})"
                );
                let cold = measure(&suite, &app, None, EVENTS, true, tiny);
                assert_eq!(cold.reads, key.cold_extra_reads * EVENTS as usize);
                assert_eq!(cold.read_bytes, key.cold_read_bytes * EVENTS as usize);
                assert!(cold.energy > warm.energy, "{label}");
                assert!(
                    cold.energy <= event_energy(&key, &model).saturating_mul(EVENTS),
                    "cold draw above the post-reboot ceiling ({label}, tiny {tiny})"
                );
            }
        }
    }

    /// Batched counterpart of [`energy_model_matches_engine`]: a full
    /// warm batch on the every-byte-flips workload writes and draws
    /// exactly the static [`artemis_ir::BatchBounds`] figures (warm
    /// batches are write-only, so the cached prediction is writes +
    /// cycles alone), one record per group, in both group regimes; an
    /// always-cold batch reads exactly `cold_extra_reads` ops and
    /// `cold_read_bytes` bytes and stays under the post-reboot ceiling.
    #[test]
    fn batch_energy_model_matches_engine() {
        use artemis_ir::analysis::{batch_energy, batch_energy_cached};

        const BATCH: usize = 8;
        const BATCHES: u64 = 5;
        let n = BATCHES as usize;

        let (suite, app) = flip_suite(8);
        let compiled = CompiledSuite::compile(&suite, &app).unwrap();
        for tiny in REGIMES {
            let profile = regime_device(tiny).energy_profile();
            let bound = artemis_ir::batch_bounds(&compiled, BATCH, &profile);
            assert_eq!(bound.groups, if tiny { 8 } else { 1 });
            let model = profile.model;

            let warm = measure(&suite, &app, Some(BATCH), BATCHES, false, tiny);
            assert_eq!(warm.reads, 0, "warm batches must be write-only");
            assert_eq!(warm.writes, bound.writes * n);
            assert_eq!(warm.write_bytes, bound.write_bytes * n);
            assert_eq!(warm.records, (bound.groups * n) as u64);
            assert_eq!(
                warm.energy,
                batch_energy_cached(&bound, &model).saturating_mul(BATCHES),
                "batch energy model drifted (tiny {tiny})"
            );

            let cold = measure(&suite, &app, Some(BATCH), BATCHES, true, tiny);
            assert_eq!(cold.reads, bound.cold_extra_reads * n);
            assert_eq!(cold.read_bytes, bound.cold_read_bytes * n);
            assert!(bound.cold_extra_reads <= bound.reads);
            assert_eq!(cold.writes, warm.writes);
            assert!(cold.energy <= batch_energy(&bound, &model).saturating_mul(BATCHES));
        }
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

        // A 100 nJ capacitor cannot even buffer the two arming records.
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
        let b = artemis_ir::suite_bounds(&compiled, &profile);
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
    /// the whole cache exactly once, and the refill it forces is paid
    /// once.
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

        // The next delivery in the same epoch is warm again: hits only.
        engine
            .call_monitor(&mut dev, 4, &MonitorEvent::start(accel, t(3)))
            .unwrap();
        let rewarmed = engine.cache_stats();
        assert_eq!(rewarmed.misses, cold.misses);
        assert_eq!(rewarmed.invalidations, 1);
        assert!(rewarmed.hits > cold.hits);
    }

    /// Reboot storm: every clean reboot re-pays only the cold-miss
    /// refill — exactly `cold_extra_reads` across the finalize probe and
    /// the next delivery (flag, events and done bitmap, then seq and
    /// one whole-block fill per armed machine) — and nothing
    /// accumulates across reboots.
    #[test]
    fn reboot_storm_cold_misses_stay_within_static_bound() {
        const MACHINES: usize = 8;
        const REBOOTS: u64 = 50;

        let (suite, app) = dispatch_suite(MACHINES, 1);
        let t0 = app.task_by_name("t0").unwrap();
        let key = t0_key(&suite, &app, false);
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let engine = MonitorEngine::install(&mut dev, suite, &app).unwrap();
        engine.reset_monitor(&mut dev).unwrap();
        // Warm delivery so each reboot below starts from a hot cache.
        engine
            .call_monitor(&mut dev, 1, &MonitorEvent::start(t0, t(0)))
            .unwrap();

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
            assert_eq!(reads, key.cold_extra_reads, "static cold model drifted");
        }
        assert_eq!(engine.cache_stats().invalidations, REBOOTS);
    }

    /// The derived journal capacity is exactly the largest record the
    /// engine commits on the suite, in both group regimes: group 0 —
    /// the arming sub-writes, the machine's block and its verdict — on
    /// a one-machine suite, the whole-suite reset on the eight-machine
    /// one when each machine is its own group, and the one group of
    /// all eight when they share it. It is also tight against the
    /// bounds pass: one byte less is rejected.
    #[test]
    fn derived_journal_capacity_is_tight() {
        let app = app();
        let spec = artemis_ir::compile("accel { maxTries: 2 onFail: skipPath; }", &app).unwrap();
        for (suite, app) in [(spec, app), flip_suite(8)] {
            let compiled = CompiledSuite::compile(&suite, &app).unwrap();
            for tiny in REGIMES {
                let mut dev = regime_device(tiny);
                let profile = dev.energy_profile();
                let bounds = artemis_ir::suite_bounds(&compiled, &profile);
                let gate = |capacity| {
                    artemis_ir::analysis::analyze_suite(
                        &suite,
                        &compiled,
                        Some((capacity, &profile)),
                    )
                    .into_iter()
                    .filter(|d| d.pass == "bounds" && d.is_error())
                    .count()
                };
                assert_eq!(gate(bounds.worst_commit_bytes), 0);
                assert!(gate(bounds.worst_commit_bytes - 1) > 0);
                let engine = MonitorEngine::install(&mut dev, suite.clone(), &app).unwrap();

                engine.reset_monitor(&mut dev).unwrap();
                assert_eq!(dev.largest_journal_record(), bounds.reset_commit_bytes);
                // Start events of the first task step every machine (and
                // trip maxTries on the third); end events of the last
                // task arm and dismiss.
                let (first, last) = (TaskId(0), TaskId(app.task_count() as u32 - 1));
                for seq in 1..=6u64 {
                    let event = if seq % 2 == 0 {
                        MonitorEvent::end(last, t(seq))
                    } else {
                        MonitorEvent::start(first, t(seq))
                    };
                    engine.call_monitor(&mut dev, seq, &event).unwrap();
                }
                let largest = dev.largest_journal_record();
                assert_eq!(largest, engine.journal.capacity(), "tiny {tiny}");
                assert_eq!(largest, bounds.worst_commit_bytes, "tiny {tiny}");
            }
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

    /// A corrupt armed event count — past the engine's capacity —
    /// faults with a typed error on the cold load after a reboot
    /// instead of slicing out of bounds, on one-event and batch engines
    /// alike.
    #[test]
    fn corrupt_armed_events_fault_instead_of_panicking() {
        let app = app();
        let spec = "accel { maxTries: 5 onFail: skipPath; }\n\
                    send { collect: 2 dpTask: accel onFail: restartPath; }";
        let accel = app.task_by_name("accel").unwrap();
        for batch in [BatchMode::Disabled, BatchMode::Enabled { max_events: 4 }] {
            let mut dev = DeviceBuilder::msp430fr5994().build();
            let suite = artemis_ir::compile(spec, &app).unwrap();
            let opts = InstallOptions {
                batch,
                ..InstallOptions::default()
            };
            let engine = MonitorEngine::install_with(&mut dev, suite, &app, opts).unwrap();
            engine.reset_monitor(&mut dev).unwrap();
            let ev = MonitorEvent::start(accel, t(0));
            match batch {
                BatchMode::Disabled => drop(engine.call_monitor(&mut dev, 1, &ev).unwrap()),
                BatchMode::Enabled { .. } => {
                    drop(engine.deliver_batch(&mut dev, 1, &[ev]).unwrap())
                }
            }
            let count = engine.capacity as u16 + 1;
            dev.nv_write_raw(engine.events_addr, &count.to_le_bytes())
                .unwrap();
            dev.power_cycle();
            assert_eq!(
                engine.monitor_finalize(&mut dev),
                Err(Interrupt::Fault(Fault::CorruptState)),
                "{batch:?}"
            );
        }
    }

    /// A bit-flipped verdict log faults with a typed error instead of
    /// indexing out of bounds: a count past the log (read back by
    /// `last_verdicts`), a count at the end of the log while an
    /// emitting commit group is pending (resumed by
    /// `monitor_finalize`), and a cell naming no installed machine
    /// (read back by a redelivery). So does a done bitmap that lost
    /// group 0's bit.
    #[test]
    fn corrupt_verdict_logs_fault_instead_of_panicking() {
        let app = app();
        let accel = app.task_by_name("accel").unwrap();
        let ev = MonitorEvent::start(accel, t(0));
        // One machine that emits on every start: seq 1 logs a verdict.
        let fresh = || {
            let mut dev = DeviceBuilder::msp430fr5994().build();
            let suite = artemis_ir::parse::parse_suite(
                "machine e task accel persistent { state S initial; \
                 on startTask(accel) from S to S { } fail skipTask; }",
            )
            .unwrap();
            let engine = MonitorEngine::install(&mut dev, suite, &app).unwrap();
            engine.reset_monitor(&mut dev).unwrap();
            assert_eq!(engine.call_monitor(&mut dev, 1, &ev).unwrap().len(), 1);
            (dev, engine)
        };
        let corrupt: Result<(), Interrupt> = Err(Interrupt::Fault(Fault::CorruptState));

        let (mut dev, engine) = fresh();
        dev.nv_write(&engine.verdict_count, 1_000).unwrap();
        dev.power_cycle();
        assert_eq!(
            engine.last_verdicts(&mut dev),
            corrupt.map(|()| Vec::new()),
            "count past the log"
        );

        // Two emitting machines, one per commit group: group 1 appends
        // to the count group 0 left. Mark group 1 pending behind a full
        // log.
        let mut dev = DeviceBuilder::msp430fr5994()
            .capacitor(Capacitor::with_budget(Energy::from_nano_joules(1)))
            .build();
        let suite = artemis_ir::parse::parse_suite(
            "machine e task accel persistent { state S initial; \
             on startTask(accel) from S to S { } fail skipTask; }\n\
             machine f task accel persistent { state S initial; \
             on startTask(accel) from S to S { } fail skipTask; }",
        )
        .unwrap();
        let engine = MonitorEngine::install(&mut dev, suite, &app).unwrap();
        engine.reset_monitor(&mut dev).unwrap();
        assert_eq!(engine.call_monitor(&mut dev, 1, &ev).unwrap().len(), 2);
        assert_eq!(engine.armed.borrow().ends, [1, 2], "one machine per group");
        let full = engine.verdict_cells.len() as u32;
        dev.nv_write(&engine.verdict_count, full).unwrap();
        dev.nv_write_raw(engine.done.addr, &[0b01]).unwrap();
        dev.power_cycle();
        assert_eq!(
            engine.monitor_finalize(&mut dev),
            corrupt.map(|()| false),
            "count at the end of the log"
        );

        // Group 0 persists the arming: a loaded delivery without its
        // bit is no state any commit leaves behind.
        let (mut dev, engine) = fresh();
        dev.nv_write_raw(engine.done.addr, &vec![0; engine.done.len])
            .unwrap();
        dev.power_cycle();
        assert_eq!(
            engine.monitor_finalize(&mut dev),
            corrupt.map(|()| false),
            "group 0 not done"
        );

        let (mut dev, engine) = fresh();
        dev.nv_write(&engine.verdict_cells[0], (999, (0, 0)))
            .unwrap();
        dev.power_cycle();
        assert_eq!(
            engine.call_monitor(&mut dev, 1, &ev),
            corrupt.map(|()| Vec::new()),
            "cell past the suite"
        );
    }

    /// A machine block (or interpreter state cell) whose state word is
    /// past the machine's state count faults with a typed error on the
    /// cold load instead of stepping from a state no commit wrote.
    #[test]
    fn corrupt_state_word_faults_instead_of_stepping() {
        let app = app();
        let accel = app.task_by_name("accel").unwrap();
        for mode in [ExecMode::Compiled, ExecMode::Interpreter] {
            let mut dev = DeviceBuilder::msp430fr5994().build();
            let suite =
                artemis_ir::compile("accel { maxTries: 5 onFail: skipPath; }", &app).unwrap();
            let states = suite.machines()[0].states.len() as u32;
            let opts = InstallOptions {
                mode,
                ..InstallOptions::default()
            };
            let engine = MonitorEngine::install_with(&mut dev, suite, &app, opts).unwrap();
            engine.reset_monitor(&mut dev).unwrap();
            let ev = |us| MonitorEvent::start(accel, t(us));
            engine.call_monitor(&mut dev, 1, &ev(0)).unwrap();
            match &engine.machines[0].store {
                MachineStore::Block { addr, .. } => {
                    dev.nv_write_raw(*addr, &[states as u8]).unwrap()
                }
                MachineStore::Cells { state_cell, .. } => dev.nv_write(state_cell, states).unwrap(),
            }
            dev.sram_mut().clear();
            assert_eq!(
                engine.call_monitor(&mut dev, 2, &ev(1)),
                Err(Interrupt::Fault(Fault::CorruptState)),
                "{mode:?}"
            );
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

    /// Arming a new sequence number first finishes a delivery a power
    /// failure left pending, even when no `monitorFinalize` ran in
    /// between: the final machine state equals a continuous run of both
    /// events. A crash before every write op of the first delivery, on
    /// a device whose budget commits one machine per group, leaves it
    /// torn, pending between groups, or not armed at all.
    #[test]
    fn arming_finishes_a_pending_delivery() {
        let mut b = AppGraphBuilder::new();
        let a = b.task("a");
        b.path(&[a]);
        let app = b.build().unwrap();
        // Three machines step on every start, one commit group each.
        let spec = "a { maxTries: 100 onFail: skipPath; \
                    maxDuration: 1s onFail: skipTask; \
                    period: 1min onFail: restartTask; }";
        let first = MonitorEvent::start(a, SimInstant::from_micros(1));
        let second = MonitorEvent::start(a, SimInstant::from_micros(2));

        let mut steady = DeviceBuilder::msp430fr5994().build();
        let suite = artemis_ir::compile(spec, &app).unwrap();
        let reference = MonitorEngine::install(&mut steady, suite, &app).unwrap();
        reference.reset_monitor(&mut steady).unwrap();
        reference.call_monitor(&mut steady, 1, &first).unwrap();
        reference.call_monitor(&mut steady, 2, &second).unwrap();
        let expected = reference.snapshot(&steady);

        let fresh = || {
            let mut dev = DeviceBuilder::msp430fr5994()
                .capacitor(Capacitor::with_budget(Energy::from_nano_joules(1)))
                .build();
            let suite = artemis_ir::compile(spec, &app).unwrap();
            let engine = MonitorEngine::install(&mut dev, suite, &app).unwrap();
            engine.reset_monitor(&mut dev).unwrap();
            (dev, engine)
        };
        let writes = {
            let (mut dev, engine) = fresh();
            let w0 = dev.fram().write_ops();
            engine.call_monitor(&mut dev, 1, &first).unwrap();
            assert_eq!(
                engine.armed.borrow().ends,
                [1, 2, 3],
                "one machine per group"
            );
            dev.fram().write_ops() - w0
        };

        let mut resumed = 0;
        for k in 1..=writes {
            let (mut dev, engine) = fresh();
            dev.fail_before_write(k);
            assert_eq!(
                engine.call_monitor(&mut dev, 1, &first),
                Err(Interrupt::PowerFailure)
            );
            dev.power_cycle();
            if dev.peek(&engine.seq_cell) != 1 {
                // Group 0 never landed: the first event is not armed,
                // and redelivering it is the caller's job.
                continue;
            }
            // Armed, with some group still pending (or torn).
            let pending = dev.peek_raw(engine.done.addr, 1)[0] != 0b111;
            engine.call_monitor(&mut dev, 2, &second).unwrap();
            assert_eq!(engine.snapshot(&dev), expected, "crash before write {k}");
            resumed += usize::from(pending);
        }
        assert!(resumed > 0, "never left a delivery pending");
    }
}
