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
//! sequence number arms the engine atomically (event + sequence +
//! verdict reset + done bitmap, one run of the delivery's first commit
//! record); re-delivering the *same*
//! sequence number resumes or returns the already-computed verdicts
//! instead of double-stepping the machines. A **silent** delivery — one
//! commit group, no machine changed, no verdict — persists nothing: it
//! is indistinguishable from one never made, so within the power cycle
//! its redelivery returns its (empty) verdicts from RAM, and after a
//! power failure a redelivery arms and steps it afresh, as for any
//! delivery whose group 0 never landed. The ARTEMIS runtime
//! exploits both directions: `StartTask` re-attempts get fresh numbers
//! (attempt counting is the point of `maxTries`), while `EndTask`
//! events reuse the number fixed in the task's write-set so a power
//! failure can never double-count a sample (cf. the paper's
//! timestamp-consistency discussion, §4.1.3).
//!
//! A one-group delivery may **ride** the runtime's open record: its
//! group 0 record's sub-writes are appended to the record the runtime
//! has open for it (`Device::append_record`) instead of committing a
//! record of their own, and land with the task's effects and the
//! arbitration outcome, or not at all — a delivery whose record never
//! landed, like a silent one, is indistinguishable from one never
//! made, so its redelivery arms and steps afresh. The shadow takes the
//! group as staged, as it does before a commit: the record lands
//! within the power cycle or is discarded, and a discard moves the
//! SRAM generation on, which drops the shadow. Which keys may ride is
//! fixed at install and handed, through the device, to the runtime
//! installed next (`Device::set_riders`) as an admission ceiling per
//! key: keys whose worklist is one commit group may ride, a
//! `StartTask` one always; an `EndTask` one rides the task's own
//! commit, and a power failure inside it re-executes the task body, so
//! it always may only for a task whose declared cost proves its
//! attempt feasible, and otherwise only when the capacitor holds the
//! delivery's and the outcome's worst case on top of the record's
//! price. A reset
//! [`MonitorEngine::on_path_restart`] stages rides the same record.
//!
//! # Event routing and the armed delivery
//!
//! Triggers are static, so at install time the compiler emits a global
//! [`RoutingIndex`](artemis_ir::compile::RoutingIndex): for every
//! `(event kind, task id)` key, the exact machines with a transition
//! that can match. The engine persists one **armed delivery** — one
//! event — in one contiguous FRAM region, the header:
//!
//! ```text
//! [event][seq u64][event count u16][verdict count u32][done bitmap][verdict cells × machines]
//!
//! event = [path u8][has_dep u8][dep_bits u64][energy_nj u64][timestamp_us u64][task u32][kind u8]
//! ```
//!
//! — the encoded event (the fields that seldom change between
//! deliveries first, the volatile ones against `seq`), its sequence
//! number, the event count (1 once an event is armed, 0 after a
//! reset), the verdict log and a
//! completion bitmap with one bit per commit group, `ceil(machines / 8)`
//! bytes. The **worklist** (the machines the routing index names for
//! the armed event's key) and its cut into **commit groups**
//! (consecutive runs of worklist entries, sized by
//! [`artemis_ir::analysis::commit_groups`] against the device's energy
//! budget) are never persisted: both are deterministic functions of the
//! armed event, derived at arming and re-derived once on a cold load
//! after a reboot. Each group commits its members' effects together
//! with its bit in **one journal record**. Group 0's record also arms
//! the delivery with **one** sub-write — the span of the run from the
//! event through `seq`, the counts and the bitmap to its last logged
//! verdict cell that starts at the first byte that changed (see
//! "Dirty-diff commits") — so a delivery whose worklist fits one group
//! costs one record of its members' runs plus that one, or nothing at
//! all when it is silent. A later group adds
//! `[verdict count | done]` and a run of its cells. A cold load reads
//! the header from the event to the bitmap in **one** op. A reboot
//! resumes exactly the pending groups and a redelivered sequence number
//! only finishes them.
//!
//! Crash correctness: until group 0's flag write lands nothing of the
//! delivery is persisted, so a crash before it looks exactly like a
//! crash before arming — the event is redelivered and re-armed. A
//! silent delivery never writes group 0 at all: it leaves FRAM exactly
//! as the previous delivery left it — the machine blocks as the silent
//! delivery would have left them too — so any crash after it is a
//! crash before its arming. Only one-group deliveries qualify:
//! with more groups, a later group's record needs group 0's to have
//! fixed the event first. Group
//! 0's record fixes the event, so the worklist and the groups derived
//! from it are fixed too; a group's bit flips only in the transaction
//! that persists its members' effects, so a reboot anywhere resumes
//! from the first incomplete group and observes either none or all of
//! a group's effects — indistinguishable from an execution that crashed
//! between machines. Arming a new sequence number first finishes any
//! pending delivery, so it never discards one.
//!
//! A derived worklist names only installed machines, so it needs no
//! validation; the loaded header does, once, where it is read: an event
//! count past one, a verdict count past the log, or a loaded delivery
//! whose group 0 is not done (which no commit can leave behind) faults
//! with [`Fault::CorruptState`].
//!
//! # Compiled steps
//!
//! Suites run **compiled** to slot-indexed bytecode
//! ([`artemis_ir::compile()`]) over one packed FRAM block per machine
//! ([`artemis_ir::MachineLayout`]). Every compiled step goes through
//! one function: it loads the block prefix the dispatched key's static
//! [`AccessSet`] can touch, runs the bytecode in scratch, and stages
//! into its group's record ([`TxWriter`]) the changed byte runs of the
//! loaded prefix (or, for keys whose access set covers ≥ ¾ of the
//! block, decided at compile time, the whole block image — see
//! "Dirty-diff commits") and its verdict, if any. One committer then
//! adds the group's header runs — verdict cells, verdict count and done
//! bitmap, and for group 0 the armed event — and commits the group. A
//! later group left with nothing but its done bit completes with one
//! plain idempotent write. Soundness: the access
//! set over-approximates every slot the dispatched bytecode can read or
//! write, so slots outside the loaded span are never observed and slots
//! outside the write set cannot change; unchanged bytes a merged run
//! re-writes carry their loaded value, which is idempotent.
//!
//! The reference semantics is [`Reference`]: the tree-walking
//! interpreter of `artemis_ir::exec` over host memory, which consults
//! neither the routing index, the energy cut nor FRAM, so the oracle
//! stays independent of all three. Differential tests pin the engine
//! to it on verdicts and FRAM-visible state, including under every
//! crash point of a run. [`ExecMode::Interpreter`] installs a thin
//! adapter over a host-held [`Reference`] instead of the FRAM engine.
//!
//! # Volatile shadow cache (write-only steady state)
//!
//! The engine keeps a volatile **shadow** of every FRAM location
//! the hot path reads: after any load or commit the machine blocks
//! (decoded and as FRAM's bytes), the armed delivery (event, derived
//! worklist, groups and done bitmap), and the verdict log stay
//! authoritative in RAM, so a steady-state delivery performs **zero**
//! FRAM reads — nonvolatile memory is touched only by the crash-atomic
//! commits. The cache is write-through and never defers or reorders a
//! write; it is the engine's one read path.
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
//! one, a verdict count past the verdict log, a verdict cell naming no
//! installed machine or carrying an event position, or a machine block
//! whose state word is past the machine's state count faults with
//! [`Fault::CorruptState`] instead of indexing out of bounds.
//! Hit/miss/invalidation counters are exposed through
//! [`MonitorEngine::cache_stats`].
//!
//! # Dirty-diff commits
//!
//! Every compiled step commits byte-granular runs: the new image of
//! the covered block prefix is diffed against the shadow's
//! authoritative old image and only the changed `[addr][len][data]`
//! runs are journalled ([`TxWriter::write_diff`]: runs separated by at
//! most one sub-write header of unchanged bytes merge; merged gap
//! bytes re-write their old value, which replay makes idempotent).
//! Every changed byte lies in the state word or a written slot (≤ 8
//! bytes each, so one run apiece before merging), and each merge saves
//! `header − gap ≥ 0` bytes. So the static bounds model, which prices
//! the state word plus every write-set slot, bounds a diff record in
//! bytes and in sub-writes, and equals it whenever every byte of the
//! state word and of each written slot changes and the fields lie more
//! than a header apart.
//!
//! Group 0's arming run is diffed into **one span**: the shadow keeps a
//! byte image of the header's `event … done` prefix as FRAM holds it,
//! and the run starts at the first byte that differs from the image
//! and ends at the last one, or at the last logged verdict cell. The
//! image is seeded at install (a fresh region is all zeros), refilled
//! by every cold header load, replaced after every durable group
//! commit, zeroed past `seq` by a reset, and dies with the shadow's
//! generation; a dead image arms with the whole run, so a warm engine
//! and an always-cold one write the same bytes. One span, not runs,
//! keeps arming at exactly one sub-write, so ops, records and crash
//! windows stay those the model prices, and its bytes stay under the
//! whole run the model prices — equal when the span covers byte 0
//! through the last logged cell.
//!
//! [`AccessSet`]: artemis_ir::compile::AccessSet
//! [`Sram`]: intermittent_sim::fram::Sram

pub mod remote;
mod state;

use core::cell::RefCell;
use std::sync::Arc;

use artemis_core::action::Action;
use artemis_core::app::{AppGraph, PathId, TaskCostDecl, TaskId};
use artemis_core::event::{EventKind, MonitorEvent};
use artemis_core::property::OnFail;
use artemis_ir::analysis::bounds::{COMPILED_DISPATCH_CYCLES, ROUTING_LOOKUP_CYCLES};
use artemis_ir::analysis::{
    commit_groups, ride_ceiling, MemberCost, SuiteBounds, TaskFeasibility, Verdict,
};
use artemis_ir::compile::{CompiledEvent, CompiledSuite};
use artemis_ir::expr::{EventCtx, Value};
use artemis_ir::fsm::{MonitorSuite, StateMachine};
use artemis_spec::Diagnostic;
use intermittent_sim::device::{CostCategory, Device, Fault, Interrupt, MemOwner};
use intermittent_sim::fram::NvData;
use intermittent_sim::journal::{changed_span, Journal, TxWriter, ENTRY_HEADER};
use intermittent_sim::{Energy, EnergyProfile};

use state::EncodedEvent;

pub use remote::{NoMonitoring, Reference, RemoteMonitorEngine};
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

    /// Delivers `events` under consecutive sequence numbers
    /// (`first_seq`, `first_seq + 1`, …), one [`Monitoring::call_monitor`]
    /// each, and returns one verdict list per event. Nothing in this
    /// workspace calls or overrides it: it stays, with
    /// [`Monitoring::batch_capacity`] and
    /// [`Monitoring::end_event_is_silent`], only because the benchmark
    /// package's timing wrapper forwards all three.
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

    /// Events one delivery holds: always 1. Kept only for the
    /// benchmark package's timing wrapper, which forwards it.
    fn batch_capacity(&self) -> usize {
        1
    }

    /// Always `false`. Kept only for the benchmark package's timing
    /// wrapper, which forwards it.
    fn end_event_is_silent(&self, _task: TaskId) -> bool {
        false
    }

    /// Verdicts of the most recently processed event. Within a power
    /// cycle that is the last delivery made, a silent one included (no
    /// verdicts); after a power failure, [`MonitorEngine`] answers for
    /// the last delivery it *persisted*: a silent delivery persists
    /// nothing, so it is forgotten with the SRAM that held it.
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

/// Which execution core the engine runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ExecMode {
    /// Slot-indexed bytecode over one packed FRAM block per machine,
    /// committed through one journal record per energy-sized commit
    /// group — the default, and the closest analogue of the paper's
    /// generated C monitors.
    #[default]
    Compiled,
    /// A thin adapter over a host-held [`Reference`]: no FRAM, no
    /// billing, and host state that survives power failures, as the
    /// remote monitor's does. Kept only because the benchmark
    /// package's verdict check names it as its oracle.
    Interpreter,
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

/// Dynamic execution counters of the compiled core
/// ([`MonitorEngine::exec_stats`]): what it *actually* ran and wrote,
/// as opposed to the static per-key ceilings the engine bills through
/// [`artemis_ir::CompiledMachine::step_cost`] and the bounds pass
/// prices. Volatile (a reboot replays the in-flight event and
/// re-counts its instructions — the honest dynamic figure on an
/// intermittent device).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ExecStats {
    /// Bytecode instructions dispatched across all machine steps.
    pub instructions: u64,
    /// `CompiledMachine::step` invocations (one per machine per
    /// delivered event that dispatches to it).
    pub machine_steps: u64,
    /// FRAM bytes written by committed arming runs (group 0's header
    /// sub-write): each run's journal entry, header and data, plus its
    /// applied data.
    pub arming_write_bytes: u64,
    /// Silent deliveries: freshly armed one-group deliveries in which
    /// no member staged a run and no verdict was logged, so the engine
    /// persisted nothing for them (no record, no flag, no apply).
    pub silent_deliveries: u64,
}

/// Everything [`MonitorEngine::install_with`] can be told.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct InstallOptions {
    /// Execution core (compiled bytecode by default).
    pub mode: ExecMode,
    /// Device energy profile for the install-time feasibility gate.
    /// `Some(profile)` runs `artemis_ir::analysis::energy` over every
    /// task: a task whose statically under-approximated attempt energy
    /// exceeds the profile's budget rejects the install with
    /// [`InstallError::Rejected`] *before* any FRAM is allocated (the
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
    /// The suite was rejected before any FRAM was touched: by the
    /// source checks and codegen of [`CompiledSuite::compile`], by an
    /// app with more paths than the armed event's one-byte path number
    /// names, or by the static analysis gate (the bytecode verifier,
    /// the cross-monitor conflict pass, or the energy feasibility
    /// pass).
    Rejected(Diagnostic),
    /// Device-level failure (FRAM exhaustion) during installation.
    Device(Interrupt),
}

impl From<Diagnostic> for InstallError {
    fn from(d: Diagnostic) -> Self {
        InstallError::Rejected(d)
    }
}

impl core::fmt::Display for InstallError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            InstallError::Rejected(d) => write!(f, "{d}"),
            InstallError::Device(i) => write!(f, "{i}"),
        }
    }
}

impl std::error::Error for InstallError {}

/// One monitor's verdict for a delivered event. The machine's name is
/// [`MonitorEngine::machine_names`]`[machine_index]`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MonitorVerdict {
    /// Index of the machine in the suite.
    pub machine_index: usize,
    /// The resolved corrective action.
    pub action: Action,
}

/// The armed delivery's persistent header: one contiguous FRAM region
///
/// `[event][seq u64][event count u16][verdict count u32][done bitmap]
/// [verdict cells × slots]`
///
/// The order is what makes a delivery cheap: group 0's record stages
/// everything from the event to its last logged cell as **one** run
/// (its span from the first byte that changed, see
/// [`Engine::commit_group`]). A
/// later group stages `[verdict count | done]` and its cells as two
/// runs; a cold load reads `event … done` in one op; a reset zeroes
/// `seq … done` in one run. The done bitmap keeps bit `g % 8` of byte
/// `g / 8` for commit group `g`. Offsets are relative to `addr`; the
/// event sits at offset 0.
struct Header {
    addr: usize,
    /// Bytes of the done bitmap.
    done_len: usize,
    /// Verdict cells.
    slots: usize,
}

impl Header {
    fn seq(&self) -> usize {
        EncodedEvent::SIZE
    }

    fn event_count(&self) -> usize {
        self.seq() + u64::SIZE
    }

    fn verdict_count(&self) -> usize {
        self.event_count() + u16::SIZE
    }

    fn done(&self) -> usize {
        self.verdict_count() + u32::SIZE
    }

    /// Start of verdict cell `k`; `cell(0)` ends the part a cold load
    /// reads.
    fn cell(&self, k: usize) -> usize {
        self.done() + self.done_len + VerdictCell::SIZE * k
    }
}

/// Fills `dst` with the header's `event … done` prefix of the delivery
/// `armed` holds: `event`, `seq`, an event count of one, the verdict
/// count and the done bitmap.
fn put_head(dst: &mut [u8], event: &EncodedEvent, armed: &Armed) {
    let (encoded, rest) = dst.split_at_mut(EncodedEvent::SIZE);
    event.store(encoded);
    let (seq, rest) = rest.split_at_mut(u64::SIZE);
    armed.seq.store(seq);
    let (n, rest) = rest.split_at_mut(u16::SIZE);
    1u16.store(n);
    let (count, done) = rest.split_at_mut(u32::SIZE);
    armed.verdicts.store(count);
    done.copy_from_slice(&armed.done);
}

/// Fills `dst` with one verdict cell per emit.
fn put_cells(dst: &mut [u8], emits: &[Emit]) {
    for (cell, emit) in dst.chunks_exact_mut(VerdictCell::SIZE).zip(emits) {
        verdict_cell(emit).store(cell);
    }
}

/// `true` iff commit group `g` is marked done in `map`.
fn done_bit(map: &[u8], g: usize) -> bool {
    map[g / 8] & (1 << (g % 8)) != 0
}

/// Where one machine's persistent `(state, vars)` live in FRAM: one
/// contiguous block, the state field followed by the variable slots in
/// the compiled machine's packed layout — a single FRAM op to load and
/// a single sub-write to commit whole.
struct LoadedMachine {
    /// The machine's `Path:` qualifier, copied from the source machine
    /// so the hot path never reads the suite.
    path: Option<u32>,
    /// FRAM address of the block.
    addr: usize,
    /// Block image of the initial state, staged whole on resets; its
    /// length is the block's.
    initial_image: Vec<u8>,
}

/// Reused per-event buffers. Sized at install and refilled in place,
/// they make a warm, verdict-free compiled delivery perform **zero**
/// heap allocations (pinned by `tests/alloc_free.rs`); an event with
/// verdicts allocates only its returned list.
struct Scratch {
    /// Bytecode register file.
    regs: Vec<Value>,
    /// The stepped machine's variables.
    vars: Vec<Value>,
    /// Block image after the step.
    block_new: Vec<u8>,
    /// Verdicts of one commit group, in logging order: machine index,
    /// event position, action, governing path.
    emits: Vec<Emit>,
    /// The header's `event … done` prefix as the current commit group
    /// leaves it; swapped with the shadow's header image once the
    /// group is durable.
    head: Vec<u8>,
    /// The journal record of the current commit, cleared and re-staged
    /// in place by every commit group and every reset.
    tx: TxWriter,
}

/// The armed delivery in RAM: its sequence number, the decoded event
/// (`None` after a reset), the verdict-log length and the completion
/// bitmap as persisted in the [`Header`], plus the worklist derived
/// from the event — ascending machine indices — and the worklist's cut
/// into commit groups (each group's exclusive end index; group 0 always
/// exists). Sized at install to the whole suite. It doubles as the
/// shadow of the header while [`ShadowCache::armed`] is set — except
/// that after a silent delivery it holds that delivery, which FRAM
/// never sees (see [`Engine::commit_group`]).
struct Armed {
    seq: u64,
    event: Option<EncodedEvent>,
    verdicts: u32,
    items: Vec<u16>,
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

/// One verdict a step staged: machine index, action, governing path.
type Emit = (usize, OnFail, Option<u32>);

/// An encoded verdict cell: `(machine index, (action tag, path))` — the
/// exact value one header verdict cell stores. The machine index fills
/// the low half-word; the high half-word is always zero
/// (`read_verdict` faults otherwise).
type VerdictCell = (u32, (u8, u32));

/// The verdict cell logging `emit`.
fn verdict_cell(&(i, action, path): &Emit) -> VerdictCell {
    (i as u32, encode_action(action, path))
}

/// One machine's shadow: its decoded `(state, vars)` and where its
/// block image lies in [`ShadowCache::images`]. Live iff `gen` equals
/// the cache's current generation; `gen == 0` never matches
/// (generations start at 1), so a fresh entry is invalid without an
/// extra flag.
struct MachineShadow {
    gen: u64,
    state: u32,
    vars: Vec<Value>,
    image: core::ops::Range<usize>,
}

/// The volatile shadow of every FRAM location the hot path reads (see
/// the module docs, "Volatile shadow cache"). Write-through: entries
/// are updated from bytes that are durable (after a successful read or
/// commit) or staged in the record of the commit group about to be
/// committed — a machine's new image, its group's done bit, a freshly
/// armed delivery — and every entry point that fails wipes the whole
/// cache, so shadow contents equal the corresponding FRAM bytes within
/// one reboot epoch whenever an entry point returns — but for the
/// armed delivery after a silent one, which RAM alone keeps. A machine
/// shadow keeps both forms of its block: the decoded `(state, vars)` a
/// step starts from, and the byte image as FRAM holds it, which the
/// step's new image is diffed against — so a warm step decodes and
/// re-encodes nothing it did not change.
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
    /// Generation-tagged verdict cells, indexed like the header's.
    verdicts: Vec<(u64, VerdictCell)>,
    machines: Vec<MachineShadow>,
    /// Every machine's block image, back to back in suite order, live
    /// with its machine's shadow.
    images: Vec<u8>,
    /// `true` while the engine's [`Armed`] buffers mirror the header in
    /// FRAM (the worklist already derived), or hold a silent delivery
    /// made since, which then answers for the header until the epoch
    /// ends.
    armed: bool,
    /// The header's `event … done` prefix byte for byte as FRAM holds
    /// it — stale event bytes behind a zero event count included —
    /// live iff `head_gen` equals `gen`. Group 0 diffs its arming run
    /// against it.
    head: Vec<u8>,
    head_gen: u64,
    stats: CacheStats,
}

impl ShadowCache {
    /// A cold cache for the machines in `machines` and `verdict_slots`
    /// verdict cells, whose header image is a freshly allocated —
    /// all-zero — `head_len`-byte `event … done` prefix.
    fn new(epoch: u64, machines: &[LoadedMachine], verdict_slots: usize, head_len: usize) -> Self {
        let mut at = 0;
        let machines: Vec<_> = machines
            .iter()
            .map(|lm| {
                let image = at..at + lm.initial_image.len();
                at = image.end;
                MachineShadow {
                    gen: 0,
                    state: 0,
                    vars: Vec::new(),
                    image,
                }
            })
            .collect();
        ShadowCache {
            epoch,
            gen: 1,
            journal_clean: false,
            verdicts: vec![(0, (0, (0, 0))); verdict_slots],
            machines,
            images: vec![0; at],
            armed: false,
            head: vec![0; head_len],
            head_gen: 1,
            stats: CacheStats::default(),
        }
    }

    /// Makes `head` the live header image: FRAM holds it.
    fn set_head(&mut self, head: &[u8]) {
        self.head.copy_from_slice(head);
        self.head_gen = self.gen;
    }

    /// [`ShadowCache::set_head`] by swapping buffers: `head` gets the
    /// old image's buffer, for the caller to overwrite.
    fn swap_head(&mut self, head: &mut Vec<u8>) {
        core::mem::swap(&mut self.head, head);
        self.head_gen = self.gen;
    }

    /// The span of `head` that differs from the live header image;
    /// `None` if the image is dead or equal to `head`.
    fn head_changes(&self, head: &[u8]) -> Option<core::ops::Range<usize>> {
        if self.head_gen != self.gen {
            return None;
        }
        changed_span(&self.head, head)
    }

    /// Drops every entry in O(1): the header mirror goes stale, tagged
    /// entries (machines, verdict cells, the header image) die by
    /// generation bump. Does
    /// not bump the invalidation counter — callers account the wipe
    /// (epoch syncs do; the defensive wipe after an interrupted entry
    /// point stays silent because the next epoch sync counts that
    /// reboot).
    fn wipe(&mut self) {
        self.gen += 1;
        self.journal_clean = false;
        self.armed = false;
    }
}

/// The engine. Create with [`MonitorEngine::install`] or
/// [`MonitorEngine::install_with`].
pub struct MonitorEngine(Core);

/// What an installed [`MonitorEngine`] runs.
enum Core {
    /// The FRAM engine.
    Fram(Box<Engine>),
    /// [`ExecMode::Interpreter`]: a host-held [`Reference`], which
    /// touches neither FRAM nor the device's bills.
    Host(RefCell<Reference>),
}

/// The FRAM engine behind every [`MonitorEngine`] but the
/// [`ExecMode::Interpreter`] adapter.
struct Engine {
    /// Bytecode, dispatch tables, the routing index, and the task-name
    /// table interned once at install.
    compiled: Arc<CompiledSuite>,
    /// The source machines (names, paths), shared with every engine
    /// installed from the same suite handle.
    suite: MonitorSuite,
    machines: Vec<LoadedMachine>,
    journal: Journal,
    /// The armed delivery, all fixed by its group 0 record: its
    /// sequence number, its event, the verdict log and the done bitmap
    /// (one bit per commit group), in one region.
    header: Header,
    /// The volatile shadow of the hot path's FRAM reads.
    cache: RefCell<ShadowCache>,
    /// The device's cost model and energy budget, which size the commit
    /// groups ([`artemis_ir::analysis::commit_groups`]).
    profile: EnergyProfile,
    /// `true` when the bounds pass proved at install that the cut never
    /// splits any key's worklist, so arming skips pricing members: the
    /// answer [`artemis_ir::analysis::commit_groups`] would give is one
    /// group.
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

    /// [`MonitorEngine::install`] with full [`InstallOptions`]:
    /// ahead-of-time compilation at the default
    /// [`artemis_ir::OptLevel`] (which runs the source checks first),
    /// the static analysis gate, then FRAM allocation. A caller that
    /// needs other bytecode compiles it itself and calls
    /// [`MonitorEngine::install_precompiled`].
    pub fn install_with(
        dev: &mut Device,
        suite: MonitorSuite,
        app: &AppGraph,
        opts: InstallOptions,
    ) -> Result<Self, InstallError> {
        let compiled = CompiledSuite::compile(&suite, app)?;
        Self::install_precompiled(dev, suite, compiled, app, opts)
    }

    /// Installs an already-compiled suite. The source checks ran when
    /// [`CompiledSuite::compile`] built it, once per suite however many
    /// devices install it; bytecode reassembled through
    /// [`CompiledSuite::set_machine`] (hand-assembled or mutated
    /// [`artemis_ir::RawMachine`]s) reaches the engine only through the
    /// static analysis gate, which is *not* skippable: "verifier
    /// accepts ⇒ engine safe" holds precisely because every program
    /// the engine executes has passed it. `suite` must be the source
    /// the machines were compiled from (it supplies names, types and
    /// FRAM layout); a machine-count mismatch is itself an analysis
    /// error.
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
    /// not once per device. The engines share the suite handle too, and
    /// installs that pass clones of one handle on devices of equal
    /// energy profiles share the gate's suite-level results
    /// ([`CompiledSuite::install_facts`]); each install still runs the
    /// energy check and traces every warning. All mutable monitor state
    /// (FRAM blocks, journal, caches, scratch) stays per-engine.
    pub fn install_precompiled_shared(
        dev: &mut Device,
        suite: MonitorSuite,
        compiled: Arc<CompiledSuite>,
        app: &AppGraph,
        opts: InstallOptions,
    ) -> Result<Self, InstallError> {
        let InstallOptions { mode, energy } = opts;
        let paths = app.paths().len();
        if paths > EncodedEvent::MAX_PATHS {
            return Err(InstallError::Rejected(Diagnostic::error(
                "install",
                "app",
                format!(
                    "the app declares {paths} paths; the engine names at most {}",
                    EncodedEvent::MAX_PATHS
                ),
            )));
        }

        // Journal capacity = the static worst-case record: the larger
        // of the whole-suite reset commit and any event key's largest
        // commit group, cut against this device's energy budget.
        //
        // A delivery's worklist is its key's interest list, so when the
        // bounds pass cuts every key into one group, so does the engine.
        let profile = dev.energy_profile();
        let facts = compiled.install_facts(&suite, app, &profile);
        let bounds = &facts.bounds;
        let capacity = bounds.worst_commit_bytes;
        let one_group = bounds.per_key.iter().all(|k| k.groups == 1);

        // Static analysis gate — before anything touches FRAM. The
        // first (most severe) error rejects the install; warnings
        // surface on the trace. The capacity is derived from the same
        // bounds, so the gate skips the capacity cross-check.
        let mut diags = std::borrow::Cow::Borrowed(facts.diags.as_slice());
        if let Some(gate) = energy {
            // The memo holds the verdicts on the device's own profile.
            let priced;
            let feasibility = if gate == profile {
                &facts.feasibility
            } else {
                priced = artemis_ir::analysis::task_feasibility(&compiled, bounds, app, &gate);
                &priced
            };
            let diags = diags.to_mut();
            diags.extend(artemis_ir::analysis::check_energy(
                &compiled,
                feasibility,
                &gate,
            ));
            artemis_spec::sort_diagnostics(diags);
        }
        if let Some(d) = diags.first().filter(|d| d.is_error()) {
            return Err(InstallError::Rejected(d.clone()));
        }
        let riders = riders(&compiled, bounds, &facts.feasibility, app, &profile);
        // A device that traces nothing renders nothing; the memo's
        // warnings are rendered once, only the energy gate's merged list
        // per install.
        if dev.trace().is_enabled() {
            let rendered: Vec<Arc<str>>;
            let messages = match &diags {
                std::borrow::Cow::Borrowed(_) => facts.messages(),
                std::borrow::Cow::Owned(diags) => {
                    rendered = diags.iter().map(|d| d.to_string().into()).collect();
                    &rendered
                }
            };
            for message in messages {
                let message = Arc::clone(message);
                dev.trace_push(artemis_core::trace::TraceEvent::InstallWarning { message });
            }
        }
        // Both borrow `compiled`, which the engine takes below.
        drop(diags);
        drop(facts);

        let core = match mode {
            ExecMode::Compiled => Core::Fram(Box::new(Engine::install(
                dev, suite, compiled, profile, capacity, one_group,
            )?)),
            ExecMode::Interpreter => Core::Host(RefCell::new(Reference::new(suite, app)?)),
        };
        dev.set_riders(riders);
        Ok(MonitorEngine(core))
    }

    /// Shadow-cache effectiveness counters; all-zero for the
    /// [`ExecMode::Interpreter`] adapter. The engine-level mirror of
    /// `ArtemisRuntime::events_delivered`.
    pub fn cache_stats(&self) -> CacheStats {
        match &self.0 {
            Core::Fram(e) => e.cache.borrow().stats,
            Core::Host(_) => CacheStats::default(),
        }
    }

    /// Dynamic execution counters (all-zero for the
    /// [`ExecMode::Interpreter`] adapter, which runs no bytecode). The
    /// measured side of the static
    /// [`artemis_ir::CompiledMachine::step_cost`] ceilings: for every
    /// delivered event, `instructions` grows by at most the key's
    /// `step_cost(kind, task).instructions`.
    pub fn exec_stats(&self) -> ExecStats {
        match &self.0 {
            Core::Fram(e) => *e.exec.borrow(),
            Core::Host(_) => ExecStats::default(),
        }
    }

    /// Costless read of every machine's persistent `(state, vars)` —
    /// the FRAM-visible monitor state, decoded from each machine's
    /// block (the adapter's host-held state). For differential tests
    /// and debugging; does not bill the device.
    pub fn snapshot(&self, dev: &Device) -> Vec<(u32, Vec<Value>)> {
        match &self.0 {
            Core::Fram(e) => e.snapshot(dev),
            Core::Host(r) => r.borrow().snapshot(),
        }
    }

    /// Costless read of the sequence number of the delivery FRAM holds
    /// armed — `None` after a reset, and before any delivery persisted
    /// (the adapter's last delivered one). For differential tests that
    /// must tell a delivery that landed from one a power failure
    /// discarded; does not bill the device.
    pub fn armed_seq(&self, dev: &Device) -> Option<u64> {
        match &self.0 {
            Core::Fram(e) => {
                let h = &e.header;
                let bytes = dev.peek_raw(h.addr, h.cell(0));
                let armed = u16::load(&bytes[h.event_count()..h.verdict_count()]) == 1;
                armed.then(|| u64::load(&bytes[h.seq()..h.event_count()]))
            }
            Core::Host(r) => r.borrow().last_seq(),
        }
    }

    /// Number of installed machines.
    pub fn machine_count(&self) -> usize {
        match &self.0 {
            Core::Fram(e) => e.machines.len(),
            Core::Host(r) => r.borrow().suite().len(),
        }
    }

    /// Machine names, in suite order.
    pub fn machine_names(&self) -> Vec<String> {
        let names =
            |suite: &MonitorSuite| suite.machines().iter().map(|m| m.name.clone()).collect();
        match &self.0 {
            Core::Fram(e) => names(&e.suite),
            Core::Host(r) => names(r.borrow().suite()),
        }
    }

    /// Hard reset: re-initialises every machine and clears the armed
    /// delivery (Figure 8 `resetMonitor`; run once at first boot).
    pub fn reset_monitor(&self, dev: &mut Device) -> Result<(), Interrupt> {
        match &self.0 {
            Core::Fram(e) => e.reset_monitor(dev),
            Core::Host(r) => {
                r.borrow_mut().reset();
                Ok(())
            }
        }
    }

    /// Completes a delivery interrupted by a power failure, if any
    /// (Figure 8 `monitorFinalize`; run on every reboot before task
    /// processing). Returns `true` if there was work to finish: a torn
    /// commit group to replay, or pending groups to run.
    pub fn monitor_finalize(&self, dev: &mut Device) -> Result<bool, Interrupt> {
        match &self.0 {
            Core::Fram(e) => e.monitor_finalize(dev),
            Core::Host(_) => Ok(false),
        }
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
        match &self.0 {
            Core::Fram(e) => e.call_monitor(dev, seq, event),
            Core::Host(r) => {
                let energy_nj = dev.energy_level().as_nano_joules();
                Ok(r.borrow_mut().deliver(seq, event, energy_nj).to_vec())
            }
        }
    }

    /// Reads back the verdicts of the most recently processed event: the
    /// contract of [`Monitoring::last_verdicts`].
    pub fn last_verdicts(&self, dev: &mut Device) -> Result<Vec<MonitorVerdict>, Interrupt> {
        match &self.0 {
            Core::Fram(e) => e.last_verdicts(dev),
            Core::Host(r) => Ok(r.borrow().last_verdicts().to_vec()),
        }
    }

    /// Re-initialises the machines affected by a restart of `path`
    /// (paper §3.3: monitors linked to tasks of a restarted path).
    pub fn on_path_restart(&self, dev: &mut Device, path: PathId) -> Result<(), Interrupt> {
        match &self.0 {
            Core::Fram(e) => e.on_path_restart(dev, path),
            Core::Host(r) => {
                r.borrow_mut().restart_path(path);
                Ok(())
            }
        }
    }
}

impl Engine {
    /// Allocates the engine's FRAM — journal, header, one block per
    /// machine — billed to the monitor component, for a suite that
    /// passed the install gate.
    fn install(
        dev: &mut Device,
        suite: MonitorSuite,
        compiled: Arc<CompiledSuite>,
        profile: EnergyProfile,
        capacity: usize,
        one_group: bool,
    ) -> Result<Self, InstallError> {
        // One done bit per commit group; a worklist never holds more
        // groups than the suite has machines.
        let done_len = artemis_ir::analysis::done_bytes(suite.len());
        let dev_err = InstallError::Device;
        let owner = MemOwner::Monitor;
        let prev = dev.category();
        dev.set_category(CostCategory::Monitor);

        let result = (|| {
            let journal = dev.make_journal(capacity, owner).map_err(dev_err)?;
            // The armed delivery, zeroed: no event, nothing pending.
            // One verdict cell per machine.
            let slots = suite.len();
            let mut header = Header {
                addr: 0,
                done_len,
                slots,
            };
            header.addr = dev
                .nv_alloc_raw(header.cell(slots), owner, "monitor.header")
                .map_err(dev_err)?;

            // One contiguous block per machine, pre-imaged with the
            // initial snapshot. Geometry and snapshot come from the
            // compiled machine: install_precompiled callers may
            // hand-assemble machines, and the block must agree with the
            // bytecode that steps it.
            let mut machines = Vec::with_capacity(suite.len());
            for (m, cmach) in suite.machines().iter().zip(compiled.machines()) {
                let mut image = Vec::with_capacity(cmach.layout().block_len);
                cmach
                    .layout()
                    .encode(cmach.initial_state(), cmach.var_inits(), &mut image);
                let addr = dev
                    .nv_alloc_raw(image.len(), owner, "monitor.block")
                    .map_err(dev_err)?;
                dev.nv_write_raw(addr, &image).map_err(dev_err)?;
                machines.push(LoadedMachine {
                    path: m.path,
                    addr,
                    initial_image: image,
                });
            }

            let max_vars = suite
                .machines()
                .iter()
                .map(|m| m.vars.len())
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
                block_new: Vec::with_capacity(max_block),
                emits: Vec::with_capacity(slots),
                head: vec![0; header.cell(0)],
                // Every record fits the journal, so staging never grows it.
                tx: TxWriter::with_capacity(capacity),
            });
            let armed = RefCell::new(Armed {
                seq: 0,
                event: None,
                verdicts: 0,
                items: Vec::with_capacity(machines.len()),
                ends: Vec::with_capacity(machines.len() + 1),
                done: Vec::with_capacity(done_len),
            });

            // The shadow cache's epoch starts at the device's *current*
            // reboot generation so a freshly installed engine doesn't
            // count a spurious invalidation. Its volatile footprint,
            // for Table 2: one image per machine block and the whole
            // armed header (the decoded delivery, its verdict cells and
            // the byte image of the `event … done` prefix group 0 diffs
            // against).
            let blocks = machines.iter().map(|lm| lm.initial_image.len()).sum();
            let sram = dev.sram_mut();
            sram.register(owner, blocks);
            sram.register(owner, header.cell(slots));
            let cache = RefCell::new(ShadowCache::new(
                dev.sram().generation(),
                &machines,
                slots,
                header.cell(0),
            ));
            Ok(Engine {
                compiled,
                suite,
                machines,
                journal,
                header,
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

    /// Re-syncs the shadow cache with the device's reboot epoch —
    /// called on entry to every public path that touches FRAM. An
    /// epoch mismatch means at least one power failure happened since
    /// the cache was filled: SRAM was lost, and a torn commit may be
    /// pending, so the whole cache is invalidated in O(1) and the next
    /// recovery/read refills it (after journal replay — see the module
    /// docs for why replay-then-invalidate is safe).
    fn cache_sync(&self, dev: &Device) {
        let mut c = self.cache.borrow_mut();
        let epoch = dev.sram().generation();
        if c.epoch != epoch {
            c.epoch = epoch;
            c.wipe();
            c.stats.invalidations += 1;
        }
    }

    /// Journal recovery with the known-clean fast path: once recovery
    /// (or a completed commit) has left the journal idle in this
    /// epoch, the flag re-read is skipped entirely. Returns `true` when
    /// a torn commit was replayed.
    fn recover_cached(&self, dev: &mut Device) -> Result<bool, Interrupt> {
        if self.cache.borrow().journal_clean {
            self.cache.borrow_mut().stats.hits += 1;
            return Ok(false);
        }
        let replayed = dev.recover(&self.journal)?;
        let mut c = self.cache.borrow_mut();
        c.journal_clean = true;
        c.stats.misses += 1;
        Ok(replayed)
    }

    /// Makes `armed` hold the armed delivery: from the shadow when it
    /// is live, else **one** FRAM read of the header from the event to
    /// the done bitmap, with the worklist and its commit groups
    /// re-derived from the event. The empty delivery of a fresh install
    /// or a reset has nothing to commit, so its group 0 counts as done.
    /// The read is validated here, once: an event count past one, a
    /// verdict count past the log, or an armed delivery
    /// whose group 0 is not marked done — group 0's record persists the
    /// arming together with that bit — faults with
    /// [`Fault::CorruptState`].
    fn load_armed(&self, dev: &mut Device, armed: &mut Armed) -> Result<(), Interrupt> {
        {
            let mut c = self.cache.borrow_mut();
            if c.armed {
                c.stats.hits += 1;
                return Ok(());
            }
        }
        let h = &self.header;
        let bytes = dev.nv_read_raw(h.addr, h.cell(0))?;
        self.cache.borrow_mut().set_head(bytes);
        let field = |at: usize, len: usize| &bytes[at..at + len];
        let n = u16::load(field(h.event_count(), u16::SIZE)) as usize;
        let verdicts = u32::load(field(h.verdict_count(), u32::SIZE));
        if n > 1 || verdicts as usize > h.slots {
            return Err(Interrupt::Fault(Fault::CorruptState));
        }
        armed.seq = u64::load(field(h.seq(), u64::SIZE));
        armed.event = (n == 1).then(|| EncodedEvent::load(field(0, EncodedEvent::SIZE)));
        armed.verdicts = verdicts;
        armed.done.clear();
        armed.done.extend_from_slice(field(h.done(), h.done_len));
        if armed.event.is_none() {
            armed.done[0] |= 1;
        } else if !done_bit(&armed.done, 0) {
            return Err(Interrupt::Fault(Fault::CorruptState));
        }
        self.derive_worklist(dev, armed)?;
        let mut c = self.cache.borrow_mut();
        c.armed = true;
        c.stats.misses += 1;
        Ok(())
    }

    /// Makes machine `i`'s shadow live: a hit when it is, else one
    /// whole-block FRAM read that keeps the block's image and decodes
    /// it, so the *next* touch is free. A cold block whose state word is
    /// past the machine's state count faults with
    /// [`Fault::CorruptState`].
    fn load_block(&self, dev: &mut Device, i: usize) -> Result<(), Interrupt> {
        let c = &mut *self.cache.borrow_mut();
        let ShadowCache {
            gen,
            machines,
            images,
            stats,
            ..
        } = c;
        let ms = &mut machines[i];
        if ms.gen == *gen {
            stats.hits += 1;
            return Ok(());
        }
        let image = &mut images[ms.image.clone()];
        image.copy_from_slice(dev.nv_read_raw(self.machines[i].addr, image.len())?);
        let layout = self.compiled.machines()[i].layout();
        layout.decode(image, &mut ms.state, &mut ms.vars);
        if ms.state as usize >= self.suite.machines()[i].states.len() {
            return Err(Interrupt::Fault(Fault::CorruptState));
        }
        ms.gen = *gen;
        stats.misses += 1;
        Ok(())
    }

    /// Shadow-aware read of verdict cell `slot` — from the shadow when
    /// live, else one FRAM read that refills it — decoded to its verdict
    /// (`None` for an unknown action tag). A cell naming no installed
    /// machine faults with [`Fault::CorruptState`], and so does one
    /// whose high half-word is non-zero: suites index machines in a
    /// `u16`, so such a cell is no state any commit writes.
    fn read_verdict(
        &self,
        dev: &mut Device,
        slot: usize,
    ) -> Result<Option<MonitorVerdict>, Interrupt> {
        let hit = {
            let mut c = self.cache.borrow_mut();
            let (gen, cell) = c.verdicts[slot];
            (gen == c.gen).then(|| {
                c.stats.hits += 1;
                cell
            })
        };
        let (packed, encoded) = match hit {
            Some(cell) => cell,
            None => {
                let at = self.header.addr + self.header.cell(slot);
                let cell = VerdictCell::load(dev.nv_read_raw(at, VerdictCell::SIZE)?);
                let mut c = self.cache.borrow_mut();
                c.verdicts[slot] = (c.gen, cell);
                c.stats.misses += 1;
                cell
            }
        };
        let machine_index = packed as usize;
        if machine_index >= self.machines.len() {
            return Err(Interrupt::Fault(Fault::CorruptState));
        }
        let verdict = decode_action(encoded).map(|action| MonitorVerdict {
            machine_index,
            action,
        });
        Ok(verdict)
    }

    /// [`MonitorEngine::snapshot`]: every machine's block, decoded.
    fn snapshot(&self, dev: &Device) -> Vec<(u32, Vec<Value>)> {
        self.machines
            .iter()
            .zip(self.compiled.machines())
            .map(|(lm, cm)| {
                let mut vars = Vec::new();
                let mut state = 0u32;
                let block = dev.peek_raw(lm.addr, lm.initial_image.len());
                cm.layout().decode(block, &mut state, &mut vars);
                (state, vars)
            })
            .collect()
    }

    /// Refills the shadows of the machines `reset` selects with their
    /// initial images (after a commit that re-imaged them, or staged in
    /// the runtime's open record).
    fn shadow_reset_machines(&self, reset: impl Fn(&StateMachine) -> bool) {
        let c = &mut *self.cache.borrow_mut();
        for (((ms, lm), cm), m) in c
            .machines
            .iter_mut()
            .zip(&self.machines)
            .zip(self.compiled.machines())
            .zip(self.suite.machines())
        {
            if reset(m) {
                cm.layout()
                    .decode(&lm.initial_image, &mut ms.state, &mut ms.vars);
                c.images[ms.image.clone()].copy_from_slice(&lm.initial_image);
                ms.gen = c.gen;
            }
        }
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
            self.cache.borrow_mut().wipe();
        }
        r
    }

    /// [`MonitorEngine::reset_monitor`].
    fn reset_monitor(&self, dev: &mut Device) -> Result<(), Interrupt> {
        self.entry(dev, |dev| {
            let tx = &mut self.scratch.borrow_mut().tx;
            tx.clear();
            for lm in &self.machines {
                tx.write_raw(lm.addr, &lm.initial_image);
            }
            // `seq … done` zeroed as one run: no events, an empty log.
            let h = &self.header;
            tx.write_zeroed(h.addr + h.seq(), h.cell(0) - h.seq());
            dev.commit(&self.journal, tx)?;
            self.cache.borrow_mut().journal_clean = true;
            // The reset commit just (re)wrote every location the cache
            // mirrors but the stale event bytes — fill all the shadows,
            // so even the first event after a reset runs write-only
            // whenever the header image is live (always after install).
            let armed = &mut *self.armed.borrow_mut();
            armed.seq = 0;
            armed.event = None;
            armed.verdicts = 0;
            armed.items.clear();
            armed.ends.clear();
            armed.ends.push(0);
            armed.done.clear();
            armed.done.resize(self.header.done_len, 0);
            armed.done[0] = 1; // an empty delivery is complete (`load_armed`)
            {
                // The event bytes stay, so only a live header image
                // knows the whole `event … done` prefix now; a dead one
                // leaves the header to the next load, which refills it.
                let mut c = self.cache.borrow_mut();
                c.head[h.seq()..].fill(0);
                c.armed = c.head_gen == c.gen;
            }
            self.shadow_reset_machines(|_| true);
            Ok(())
        })
    }

    /// [`MonitorEngine::monitor_finalize`].
    fn monitor_finalize(&self, dev: &mut Device) -> Result<bool, Interrupt> {
        self.entry(dev, |dev| {
            // Repair a torn journal commit first.
            let replayed = self.recover_cached(dev)?;
            let armed = &mut *self.armed.borrow_mut();
            self.load_armed(dev, armed)?;
            Ok(self.run_armed(dev, armed)? || replayed)
        })
    }

    /// [`MonitorEngine::call_monitor`].
    fn call_monitor(
        &self,
        dev: &mut Device,
        seq: u64,
        event: &MonitorEvent,
    ) -> Result<Vec<MonitorVerdict>, Interrupt> {
        self.entry(dev, |dev| {
            self.deliver(dev, seq, event)?;
            self.read_verdicts(dev)
        })
    }

    /// Delivers `event` as the armed delivery under `seq`. A new
    /// sequence number first finishes any pending delivery, so arming
    /// never discards one, then arms; a redelivered one only finishes
    /// its pending groups.
    fn deliver(&self, dev: &mut Device, seq: u64, event: &MonitorEvent) -> Result<(), Interrupt> {
        self.recover_cached(dev)?;
        let armed = &mut *self.armed.borrow_mut();
        self.load_armed(dev, armed)?;
        if armed.seq != seq {
            self.run_armed(dev, armed)?;
            self.arm(dev, seq, event, armed)?;
        }
        self.run_armed(dev, armed)?;
        Ok(())
    }

    /// Arms `event` under `seq` in RAM: encodes it, derives its worklist
    /// and commit groups into `armed`, and empties the verdict log and
    /// the done bitmap. Nothing is written: the arming fields ride in
    /// group 0's header run ([`Engine::commit_group`]), or
    /// nowhere for a silent delivery, so a
    /// failure before that record's flag write leaves the previous
    /// delivery armed and the caller re-arms cleanly; a failure after it
    /// resumes exactly the armed worklist.
    fn arm(
        &self,
        dev: &mut Device,
        seq: u64,
        event: &MonitorEvent,
        armed: &mut Armed,
    ) -> Result<(), Interrupt> {
        // `armed` runs ahead of FRAM until group 0 commits; a failure
        // before then wipes its shadow with the rest (`entry`).
        let energy_nj = dev.energy_level().as_nano_joules();
        armed.seq = seq;
        armed.event = Some(EncodedEvent::from_event(event, energy_nj));
        armed.verdicts = 0;
        self.derive_worklist(dev, armed)?;
        armed.done.clear();
        armed.done.resize(self.header.done_len, 0);
        Ok(())
    }

    /// Derives the worklist of `armed.event` — ascending machine
    /// indices — and its commit groups, charging one routing lookup per
    /// armed event. The worklist is the routing index's interest list
    /// for the event's key, cut into groups by
    /// [`artemis_ir::analysis::commit_groups`] on the members' static
    /// ceilings and the device's energy budget, exactly the groups the
    /// bounds pass prices; the dynamic `Path:` filter dismisses members
    /// inside their groups when they step. All of it is a deterministic
    /// function of the event.
    fn derive_worklist(&self, dev: &mut Device, armed: &mut Armed) -> Result<(), Interrupt> {
        let Armed {
            event, items, ends, ..
        } = armed;
        items.clear();
        ends.clear();
        dev.compute(ROUTING_LOOKUP_CYCLES * u64::from(event.is_some()))?;
        let Some(event) = event else {
            ends.push(0);
            return Ok(());
        };
        let (kind, task) = (event.event_kind(), event.task);
        items.extend_from_slice(self.compiled.routing().interested(kind, task));
        if self.one_group {
            ends.push(items.len() as u16);
        } else {
            let machines = self.compiled.machines();
            let members = items.iter().map(|&mi| {
                MemberCost::routed(&machines[mi as usize], core::iter::once((kind, task)))
            });
            commit_groups(members, self.header.done_len, &self.profile, ends);
        }
        Ok(())
    }

    /// Commits the pending groups of the armed delivery, in order, and
    /// reports whether there were any. Everything the loop depends on —
    /// the event, and the worklist and groups derived from it — was
    /// fixed by group 0's record, so a resume after any power failure
    /// processes exactly the armed worklist; completed groups are
    /// skipped via the bitmap. An empty delivery has nothing pending.
    fn run_armed(&self, dev: &mut Device, armed: &mut Armed) -> Result<bool, Interrupt> {
        let Some(event) = armed.event else {
            return Ok(false);
        };
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
            self.commit_group(dev, &event, armed, g)?;
        }
        Ok(pending)
    }

    /// Steps every member of commit group `g` on `event` and commits the
    /// group as **one** journal record: each member's staged runs, then
    /// the [`Header`] fields the group changes. Group 0 arms the
    /// delivery with one run that ends at its last logged cell — the
    /// event, the sequence number and event count, the verdict count it
    /// resets, the done bitmap and its own verdict cells — and starts at
    /// the first byte of `event … done` that differs from the shadow's
    /// header image (byte 0 when the image is dead). The bytes it skips
    /// already hold their new values, and the unchanged bytes it covers
    /// re-write their old ones, so the run still arms the whole
    /// delivery, as one sub-write. A later group stages
    /// `[verdict count | done]` and its cells as one more run, or only
    /// the bitmap when it logs nothing. The bitmap already has `g`'s bit
    /// set. A later group that staged nothing but its bit completes with
    /// one plain idempotent bitmap write (re-execution after a power
    /// failure is harmless). Group 0 commits whenever anything needs
    /// persisting, because its run fixes the whole delivery for the
    /// groups after it. When it is the only group and no member staged a
    /// run or logged a verdict, the record would hold only the arming
    /// run: the delivery is **silent** and writes nothing — no record, no
    /// flag, no apply, and the shadow's header image stays the one FRAM
    /// holds, so the next arming diffs against FRAM. `armed` keeps the
    /// silent delivery (its `seq`, no verdicts, done) for the rest of
    /// the power cycle.
    fn commit_group(
        &self,
        dev: &mut Device,
        event: &EncodedEvent,
        armed: &mut Armed,
        g: usize,
    ) -> Result<(), Interrupt> {
        let scratch = &mut *self.scratch.borrow_mut();
        scratch.tx.clear();
        scratch.emits.clear();
        for j in armed.group(g) {
            self.step_block(dev, armed.items[j] as usize, event, scratch)?;
        }

        // Group 0 resets the verdict log, later groups append to it.
        let Scratch {
            tx, emits, head, ..
        } = scratch;
        let h = &self.header;
        let first = armed.verdicts as usize;
        let count = first + emits.len();
        if count > h.slots {
            return Err(Interrupt::Fault(Fault::CorruptState));
        }
        let silent = g == 0 && armed.ends.len() == 1 && tx.is_empty() && count == 0;
        if silent {
            // The record would hold only the arming run: persist
            // nothing and keep the header image FRAM's.
            self.exec.borrow_mut().silent_deliveries += 1;
            return Ok(());
        }
        // Set in RAM ahead of the commit, like the done bit.
        armed.verdicts = count as u32;
        put_head(head, event, armed);
        let (vc, done) = (h.verdict_count(), h.done());
        // FRAM bytes of group 0's arming run: its entry in the record,
        // then its applied data.
        let mut arming = 0;
        if g == 0 {
            let (cells, end) = (h.cell(0), h.cell(count));
            let span = self.cache.borrow().head_changes(head);
            let (lo, hi) = match span {
                Some(span) if count == 0 => (span.start, span.end),
                Some(span) => (span.start, end),
                None => (0, end),
            };
            let run = tx.write_slot(h.addr + lo, hi - lo);
            let (prefix, log) = run.split_at_mut(hi.min(cells) - lo);
            prefix.copy_from_slice(&head[lo..lo + prefix.len()]);
            put_cells(log, emits);
            arming = ENTRY_HEADER + 2 * (hi - lo);
        } else if emits.is_empty() {
            tx.write_raw(h.addr + done, &head[done..]);
            if tx.len() == 1 {
                dev.nv_write_raw(h.addr + done, &head[done..])?;
                self.cache.borrow_mut().swap_head(head);
                return Ok(());
            }
        } else {
            tx.write_raw(h.addr + vc, &head[vc..]);
            let cells = tx.write_slot(h.addr + h.cell(first), h.cell(count) - h.cell(first));
            put_cells(cells, emits);
        }
        // A one-group delivery rides the runtime's open record, if one
        // is open for it, instead of committing a record of its own.
        let rides = g == 0 && armed.ends.len() == 1 && dev.append_record(tx);
        if !rides {
            dev.commit(&self.journal, tx)?;
        }
        self.exec.borrow_mut().arming_write_bytes += arming as u64;
        let c = &mut *self.cache.borrow_mut();
        c.journal_clean |= !rides;
        for (k, emit) in emits.iter().enumerate() {
            c.verdicts[first + k] = (c.gen, verdict_cell(emit));
        }
        c.swap_head(head);
        // Group 0 fixed every activation input — the run reads nothing
        // more from FRAM.
        c.armed |= g == 0;
        Ok(())
    }

    /// Steps machine `i` on `event` and stages its effect into
    /// its group's record: the changed byte runs of the covered block
    /// prefix (the whole block image for degraded keys), and a verdict
    /// in `scratch.emits` if the step emits. A member the `Path:` filter
    /// dismisses costs nothing. The step starts from the shadow's
    /// decoded `(state, vars)` and diffs its new image against the
    /// shadow's block image; what it staged is written through to both.
    fn step_block(
        &self,
        dev: &mut Device,
        i: usize,
        event: &EncodedEvent,
        scratch: &mut Scratch,
    ) -> Result<(), Interrupt> {
        let lm = &self.machines[i];
        if path_dismissed(lm, event) {
            return Ok(());
        }
        let cm = &self.compiled.machines()[i];
        let layout = cm.layout();

        // Bill the dispatch-table test plus the key's static compute
        // ceiling (cycle-priced worst path through the dispatched
        // transitions). Static and state-independent, so the charge never
        // leaks machine state — and the bounds/energy passes price the
        // exact same table. The key's access set gives the degrade flag
        // and the highest touched slot.
        let (kind, task) = (event.event_kind(), event.task);
        let key = cm.step_key(kind, task);
        if key.dispatch_len == 0 {
            return dev.compute(COMPILED_DISPATCH_CYCLES);
        }
        dev.compute(COMPILED_DISPATCH_CYCLES + key.cost.cycles)?;
        let whole = key.access.whole_block;

        // Degraded keys commit the full block image; sparse ones the
        // covering span.
        let (covered, span) = if whole {
            (layout.var_count(), lm.initial_image.len())
        } else {
            let max_slot = key.access.max_touched_slot();
            (
                max_slot.map_or(0, |s| s as usize + 1),
                layout.span(max_slot),
            )
        };

        self.load_block(dev, i)?;
        let mut state = {
            let c = self.cache.borrow();
            let ms = &c.machines[i];
            scratch.vars.clear();
            scratch.vars.extend_from_slice(&ms.vars);
            ms.state
        };

        let step_event = CompiledEvent {
            kind,
            task,
            ctx: EventCtx {
                time_us: event.timestamp_us,
                dep_data: event.dep_data(),
                energy_nj: event.energy_nj,
            },
        };
        // Evaluation errors cannot occur on verified machines; treat
        // them as accept-silently to keep the monitor total (the C
        // monitor has no error channel either). Partial variable
        // mutations are kept, matching the interpreter's observable
        // effects.
        let mut executed = 0u64;
        let emit = cm
            .step_counting(
                &mut state,
                &mut scratch.vars,
                &step_event,
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
            scratch.emits.push((i, fail.action, fail.path.or(lm.path)));
        }

        // Encode and compare byte for byte against the shadow's image. A
        // degraded key stages its whole block as one run whenever it
        // changed at all; a sparse key stages only the changed runs.
        let c = &mut *self.cache.borrow_mut();
        let ms = &mut c.machines[i];
        let old = &mut c.images[ms.image.start..ms.image.start + span];
        if whole {
            layout.encode(state, &scratch.vars, &mut scratch.block_new);
            if scratch.block_new[..] == *old {
                return Ok(());
            }
            scratch.tx.write_raw(lm.addr, &scratch.block_new);
        } else {
            layout.encode_prefix(state, &scratch.vars, covered, &mut scratch.block_new);
            if !scratch.tx.write_diff(lm.addr, old, &scratch.block_new) {
                return Ok(());
            }
        }
        // Write-through: shadow and FRAM agree once the group commits
        // (a failed commit wipes the cache).
        old.copy_from_slice(&scratch.block_new);
        ms.state = state;
        ms.vars[..covered].copy_from_slice(&scratch.vars[..covered]);
        Ok(())
    }

    /// [`MonitorEngine::last_verdicts`].
    fn last_verdicts(&self, dev: &mut Device) -> Result<Vec<MonitorVerdict>, Interrupt> {
        self.entry(dev, |dev| {
            self.recover_cached(dev)?;
            self.load_armed(dev, &mut self.armed.borrow_mut())?;
            self.read_verdicts(dev)
        })
    }

    /// [`MonitorEngine::on_path_restart`].
    fn on_path_restart(&self, dev: &mut Device, path: PathId) -> Result<(), Interrupt> {
        let affected = |m: &StateMachine| m.reset_on_path_restart && m.path == Some(path.number());
        self.entry(dev, |dev| {
            let tx = &mut self.scratch.borrow_mut().tx;
            tx.clear();
            for (lm, m) in self.machines.iter().zip(self.suite.machines()) {
                if affected(m) {
                    tx.write_raw(lm.addr, &lm.initial_image);
                }
            }
            // The reset rides the open record of the delivery that
            // decided it, if one is open.
            if !dev.append_record(tx) {
                dev.commit(&self.journal, tx)?;
                self.cache.borrow_mut().journal_clean = true;
            }
            // The commit rewrote the affected machines' images to
            // their initial snapshots — mirror that in their shadows.
            self.shadow_reset_machines(affected);
            Ok(())
        })
    }

    /// The verdicts of the loaded delivery (read after
    /// [`Engine::load_armed`]).
    fn read_verdicts(&self, dev: &mut Device) -> Result<Vec<MonitorVerdict>, Interrupt> {
        let count = self.armed.borrow().verdicts;
        // No verdicts, no allocation: an empty `Vec` owns no heap.
        let mut out = Vec::with_capacity(count as usize);
        for slot in 0..count as usize {
            out.extend(self.read_verdict(dev, slot)?);
        }
        Ok(out)
    }
}

/// Each delivery's admission ceiling for riding the runtime's open
/// record (`Device::set_riders`), per task as `[StartTask, EndTask]`,
/// from the tasks' energy verdicts (`feasibility`, kept with the
/// install gate's other suite-level results).
/// A key whose worklist takes more than one commit group never rides
/// (`None`): a later group's record needs group 0's to have landed
/// first. A one-group `StartTask` key always may (`Some(ZERO)`): its
/// record opens empty, so a power failure inside it only loses the
/// delivery. An `EndTask` delivery rides the task's own commit, and a
/// power failure inside it re-executes the task body: it always may
/// only when the task's declared cost makes its whole attempt
/// [`Verdict::Feasible`] (an undeclared, all-zero cost proves
/// nothing); otherwise its ceiling is
/// [`ride_ceiling`], and the
/// runtime lets it ride only when the capacitor holds that and the
/// record's own price.
fn riders(
    compiled: &CompiledSuite,
    bounds: &SuiteBounds,
    feasibility: &[TaskFeasibility],
    app: &AppGraph,
    profile: &EnergyProfile,
) -> Vec<[Option<Energy>; 2]> {
    let one_group = |kind: EventKind, task: u32| {
        (bounds.per_key.iter())
            .find(|k| k.kind == kind && k.task == Some(task))
            .is_none_or(|k| k.groups == 1)
    };
    feasibility
        .iter()
        .map(|f| {
            let declared = app.task_cost(TaskId(f.task)) != TaskCostDecl::default();
            let end = if !one_group(EventKind::EndTask, f.task) {
                None
            } else if declared && f.verdict == Verdict::Feasible {
                Some(Energy::ZERO)
            } else {
                Some(ride_ceiling(compiled, bounds, f.task, &profile.model))
            };
            let start = one_group(EventKind::StartTask, f.task).then_some(Energy::ZERO);
            [start, end]
        })
        .collect()
}

/// The `Path:` qualifier (paper §3.2): a property on a merged task is
/// checked only against events from its governing path.
fn path_dismissed(lm: &LoadedMachine, encoded: &EncodedEvent) -> bool {
    match lm.path {
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

/// The FRAM engine inside, for tests that inspect its layout.
#[cfg(test)]
impl MonitorEngine {
    fn fram(&self) -> &Engine {
        match &self.0 {
            Core::Fram(e) => e,
            Core::Host(_) => panic!("the interpreter adapter has no FRAM engine"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use artemis_core::app::AppGraphBuilder;
    use artemis_core::event::EventKind;
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
        let names = engine.machine_names();
        assert!(names[verdicts[0].machine_index].starts_with("accel_maxTries"));
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
        let app = app();
        // Every entry point that installs a source suite: the engine's
        // four (the precompiled two behind `CompiledSuite::compile`, as
        // the fleet factory calls them), the remote monitor and the
        // reference it runs on. Each must reject with the same finding.
        let installs = |text: &str| -> Vec<Result<(), Diagnostic>> {
            let suite = artemis_ir::parse::parse_suite(text).unwrap();
            let mut dev = DeviceBuilder::msp430fr5994().build();
            let opts = InstallOptions::default();
            let compiled = || CompiledSuite::compile(&suite, &app);
            let results = [
                MonitorEngine::install(&mut dev, suite.clone(), &app).map(drop),
                MonitorEngine::install_with(&mut dev, suite.clone(), &app, opts).map(drop),
                compiled().map_err(InstallError::from).and_then(|c| {
                    MonitorEngine::install_precompiled(&mut dev, suite.clone(), c, &app, opts)
                        .map(drop)
                }),
                compiled().map_err(InstallError::from).and_then(|c| {
                    let c = Arc::new(c);
                    MonitorEngine::install_precompiled_shared(
                        &mut dev,
                        suite.clone(),
                        c,
                        &app,
                        opts,
                    )
                    .map(drop)
                }),
                RemoteMonitorEngine::install(&mut dev, suite.clone(), &app).map(drop),
            ];
            let mut out: Vec<_> = results
                .into_iter()
                .map(|r| match r {
                    Err(InstallError::Device(i)) => panic!("device fault {i}"),
                    Err(InstallError::Rejected(d)) => Err(d),
                    Ok(()) => Ok(()),
                })
                .collect();
            out.push(Reference::new(suite, &app).map(drop));
            out
        };
        let machine = |name: &str, message: &str| {
            Diagnostic::error("validate", format!("machine `{name}`"), message)
        };

        // A hand-written machine observing a ghost task.
        let ghost = machine("g", "observes unknown task `ghost`");
        for got in installs(
            "machine g task ghost persistent { state S initial; \
             on startTask(ghost) from S to S { }; }",
        ) {
            assert_eq!(got, Err(ghost.clone()));
        }

        // A path-directed action with no path anywhere.
        let pathless = machine(
            "p",
            "emits a path-directed action but has no governing path",
        );
        for got in installs(
            "machine p task accel persistent { state S initial; \
             on startTask(accel) from S to S { } fail skipPath; }",
        ) {
            assert_eq!(got, Err(pathless.clone()));
        }

        // An invalid machine (unknown guard variable): the first
        // validation error.
        let text = "machine v task accel persistent { state S initial; \
                    on anyEvent from S to S if ghost > 0 { }; }";
        let invalid = artemis_ir::validate::validate(
            &artemis_ir::parse::parse_suite(text).unwrap().machines()[0],
        )
        .into_iter()
        .next()
        .filter(Diagnostic::is_error)
        .expect("the guard names an unknown variable");
        for got in installs(text) {
            assert_eq!(got, Err(invalid.clone()));
        }
    }

    /// `paths` single-task paths over one task `a`, whose maxTries
    /// machine is qualified `Path: 1`.
    fn many_paths(paths: usize) -> (AppGraph, MonitorSuite) {
        let mut b = AppGraphBuilder::new();
        let a = b.task("a");
        for _ in 0..paths {
            b.path(&[a]);
        }
        let app = b.build().unwrap();
        let suite =
            artemis_ir::compile("a { maxTries: 1 onFail: skipPath Path: 1; }", &app).unwrap();
        (app, suite)
    }

    /// The armed event's path number is one byte, and its top value
    /// stands for every path past the 254th: such apps are rejected at
    /// install. At the limit, and on paths the app does not declare,
    /// the engine dismisses what the reference dismisses.
    #[test]
    fn path_numbers_past_a_byte_are_rejected_at_install() {
        let (app, suite) = many_paths(301);
        let mut dev = DeviceBuilder::msp430fr5994().build();
        match MonitorEngine::install(&mut dev, suite, &app) {
            Err(InstallError::Rejected(d)) => assert_eq!(
                d.message,
                "the app declares 301 paths; the engine names at most 254"
            ),
            other => panic!("expected a rejection, got {:?}", other.err()),
        }
        assert_eq!(dev.fram().used(), 0, "nothing allocated");

        let (app, suite) = many_paths(254);
        let mut reference = Reference::new(suite.clone(), &app).unwrap();
        let engine = MonitorEngine::install(&mut dev, suite, &app).unwrap();
        engine.reset_monitor(&mut dev).unwrap();
        let a = app.task_by_name("a").unwrap();
        for (seq, path) in [(1, 253), (2, 0), (3, 253), (4, 0), (5, 300), (6, 254)] {
            let event = MonitorEvent::start(a, t(seq)).on_path(PathId(path));
            let energy = dev.energy_level().as_nano_joules();
            let got = engine.call_monitor(&mut dev, seq, &event).unwrap();
            assert_eq!(got, reference.deliver(seq, &event, energy), "seq {seq}");
            assert_eq!(engine.snapshot(&dev), reference.snapshot(), "seq {seq}");
        }
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
            InstallError::Rejected(d) => {
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
        assert_eq!(engine.fram().journal.capacity(), worst);
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
            InstallError::Rejected(d) => {
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
    /// and makes `deliveries` deliveries of consecutive `start(t0)`
    /// events, each right after a reset and alternating between path 1
    /// and no path, and returns the traffic of the deliveries alone.
    /// The reset zeroes `seq … done` and the path number is the event's
    /// first byte, so byte 0 and the last byte of `event … done` both
    /// change: group 0's span covers the whole arming run, and each
    /// step starts from the initial images — the workload on which the
    /// model is attained. With `cold`, SRAM is cleared before every
    /// delivery — the always-cold engine, where each delivery takes the
    /// post-reboot read path.
    fn measure(
        suite: &MonitorSuite,
        app: &AppGraph,
        deliveries: u64,
        cold: bool,
        tiny: bool,
    ) -> Traffic {
        let t0 = app.task_by_name("t0").unwrap();
        let mut dev = regime_device(tiny);
        let engine = MonitorEngine::install(&mut dev, suite.clone(), app).unwrap();

        let sample = |dev: &Device| {
            let f = dev.fram();
            (
                [f.read_ops(), f.read_bytes(), f.write_ops(), f.write_bytes()],
                dev.journal_records(),
                dev.stats().energy(CostCategory::Monitor),
            )
        };
        let mut total = Traffic {
            reads: 0,
            read_bytes: 0,
            writes: 0,
            write_bytes: 0,
            energy: Energy::ZERO,
            records: 0,
        };
        for seq in 1..=deliveries {
            engine.reset_monitor(&mut dev).unwrap();
            if cold {
                dev.sram_mut().clear();
            }
            let (fram0, records0, energy0) = sample(&dev);
            let event = MonitorEvent::start(t0, t(seq));
            let event = match seq % 2 {
                1 => event.on_path(PathId(0)),
                _ => event,
            };
            drop(engine.call_monitor(&mut dev, seq, &event).unwrap());
            let (fram, records, energy) = sample(&dev);
            let [reads, read_bytes, writes, write_bytes] =
                [0, 1, 2, 3].map(|i| (fram[i] - fram0[i]) as usize);
            total.reads += reads;
            total.read_bytes += read_bytes;
            total.writes += writes;
            total.write_bytes += write_bytes;
            total.records += records - records0;
            total.energy += energy - energy0;
        }
        total
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
        let warm = measure(suite, app, events, false, tiny);
        assert_eq!(warm.reads, 0, "warm delivery must be write-only");
        assert_eq!(warm.writes, key.writes * n, "write model drifted");
        assert_eq!(warm.write_bytes, key.write_bytes * n, "byte model drifted");
        assert_eq!(
            warm.records,
            (key.groups * n) as u64,
            "one record per group"
        );

        let cold = measure(suite, app, events, true, tiny);
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
            // Armed-delivery load (flag + header) + one fill each; no
            // readback (nothing emits, the count rides the header).
            assert_eq!(key.reads, 2 + MACHINES);
            assert_eq!(key.cold_extra_reads, 2 + MACHINES);
            if tiny {
                // Group 0: the header run + a block, 3 fixed writes;
                // each later group: a block and the done bitmap.
                assert_eq!(key.groups, MACHINES);
                assert_eq!(key.writes, 3 + 1 + 1 + (MACHINES - 1) * (3 + 2));
            } else {
                // One record: the header run + every block, 3 fixed
                // writes.
                assert_eq!(key.groups, 1);
                assert_eq!(key.writes, 3 + 1 + MACHINES);
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
            // Armed-delivery load (flag + header) + per machine one
            // whole-block fill.
            assert_eq!(key.reads, 2 + MACHINES);
            // A reboot's refill is the same: nothing emits, so nothing
            // is read back.
            assert_eq!(key.cold_extra_reads, 2 + MACHINES);
            if tiny {
                // Group 0: the header run + state + x; each later
                // group: state + x + done.
                assert_eq!(key.groups, MACHINES);
                assert_eq!(key.writes, 3 + 1 + 2 + (MACHINES - 1) * (3 + 3));
            } else {
                assert_eq!(key.groups, 1);
                assert_eq!(key.writes, 3 + 1 + MACHINES * 2);
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
        let warm = measure(&suite, &app, EVENTS, false, false);
        assert_eq!(warm.reads, 0, "diff path must stay write-only when warm");
        assert_eq!(warm.writes, (4 + MACHINES) * n);
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
    /// changes on every event. Seven
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
        let engine = MonitorEngine::install(&mut dev, suite, &app).unwrap();
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
                let warm = measure(&suite, &app, EVENTS, false, tiny);
                assert_eq!(
                    warm.energy,
                    event_energy_cached(&key, &model).saturating_mul(EVENTS),
                    "energy model drifted ({label}, tiny {tiny})"
                );
                let cold = measure(&suite, &app, EVENTS, true, tiny);
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

    /// A statically infeasible task rejects the install with a typed
    /// `energy` diagnostic BEFORE any FRAM is allocated; a merely
    /// marginal profile installs fine and surfaces the warning on the
    /// trace.
    #[test]
    fn install_gates_on_energy_feasibility() {
        use intermittent_sim::{Energy, EnergyProfile};

        let (suite, _) = dispatch_suite(2, 1);
        // `t0` declares a 1,000-cycle body: about 360 nJ of compute.
        let app = {
            let mut b = AppGraphBuilder::new();
            let t0 = b.task("t0");
            let t1 = b.task("t1");
            b.task_cost(
                t0,
                artemis_core::app::TaskCostDecl {
                    compute_cycles: 1_000,
                    ..Default::default()
                },
            );
            b.path(&[t0, t1]);
            b.build().unwrap()
        };
        let mut dev = DeviceBuilder::msp430fr5994().build();

        // A 100 nJ capacitor cannot buffer `t0`'s declared body, so no
        // attempt of it can ever complete.
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
            InstallError::Rejected(d) => {
                assert!(d.is_error());
                assert_eq!(d.pass, "energy");
                assert!(d.message.contains("atomic attempt"), "{}", d.message);
                assert_eq!(d.subject, "task t0");
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

    /// The engine keeps a shadow: its first delivery counts in it.
    #[test]
    fn cache_runs_on_compiled_engines_only() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let (engine, app) = engine(&mut dev, "accel { maxTries: 3 onFail: skipPath; }");
        let accel = app.task_by_name("accel").unwrap();
        engine
            .call_monitor(&mut dev, 1, &MonitorEvent::start(accel, t(0)))
            .unwrap();
        assert_ne!(engine.cache_stats(), CacheStats::default());
    }

    /// The rider table comes from the install gate's memo, which is
    /// keyed on the app's task costs too: one compiled suite installed
    /// under apps whose costs differ gets, each time, the table a fresh
    /// `riders` call computes for that app.
    #[test]
    fn rider_tables_follow_the_apps_task_costs() {
        let spec = "accel { maxDuration: 5s onFail: skipTask; } \
                    send { maxTries: 3 onFail: skipPath; }";
        let with_cost = |cycles: u64| {
            let mut b = AppGraphBuilder::new();
            let a = b.task("accel");
            let s = b.task("send");
            b.path(&[a, s]);
            for t in [a, s] {
                b.task_cost(
                    t,
                    TaskCostDecl {
                        compute_cycles: cycles,
                        ..TaskCostDecl::default()
                    },
                );
            }
            b.build().unwrap()
        };
        let apps = [
            app(),
            with_cost(1_000),
            with_cost(1 << 40),
            with_cost(1_000),
            app(),
        ];
        let suite = artemis_ir::compile(spec, &apps[0]).unwrap();
        let compiled = Arc::new(CompiledSuite::compile(&suite, &apps[0]).unwrap());
        let mut tables = Vec::new();
        for app in &apps {
            let mut dev = DeviceBuilder::msp430fr5994().build();
            let profile = dev.energy_profile();
            MonitorEngine::install_precompiled_shared(
                &mut dev,
                suite.clone(),
                Arc::clone(&compiled),
                app,
                InstallOptions::default(),
            )
            .unwrap();
            let bounds = artemis_ir::suite_bounds(&compiled, &profile);
            let feasibility =
                artemis_ir::analysis::task_feasibility(&compiled, &bounds, app, &profile);
            let fresh = riders(&compiled, &bounds, &feasibility, app, &profile);
            let table = dev.take_riders();
            assert_eq!(table, fresh);
            tables.push(table);
        }
        // The costs move the table: a declared, feasible cost lets
        // `accel`'s end ride at any level; an infeasible one does not.
        assert_ne!(tables[0], tables[1]);
        assert_ne!(tables[1], tables[2]);
    }

    /// The [`ExecMode::Interpreter`] adapter is a host-held
    /// [`Reference`]: installing and running it allocates no FRAM and
    /// bills the device nothing, and its verdicts and state are the
    /// reference's, event for event.
    #[test]
    fn interpreter_adapter_is_a_host_reference() {
        let app = app();
        let spec = "accel { maxTries: 2 onFail: skipPath; }\n\
                    send { collect: 2 dpTask: accel onFail: restartPath; }";
        let suite = artemis_ir::compile(spec, &app).unwrap();
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let (used, consumed) = (dev.fram().used(), dev.stats().consumed);
        let opts = InstallOptions {
            mode: ExecMode::Interpreter,
            ..InstallOptions::default()
        };
        let adapter = MonitorEngine::install_with(&mut dev, suite.clone(), &app, opts).unwrap();
        adapter.reset_monitor(&mut dev).unwrap();
        let mut reference = Reference::new(suite, &app).unwrap();
        let (accel, send) = (TaskId(0), TaskId(1));
        let events = [
            MonitorEvent::start(accel, t(1)),
            MonitorEvent::start(accel, t(2)),
            MonitorEvent::start(accel, t(3)),
            MonitorEvent::end(accel, t(4)),
            MonitorEvent::start(send, t(5)),
        ];
        let mut fired = 0;
        for (i, e) in events.iter().enumerate() {
            let seq = i as u64 + 1;
            let energy_nj = dev.energy_level().as_nano_joules();
            let got = adapter.call_monitor(&mut dev, seq, e).unwrap();
            assert_eq!(got, reference.deliver(seq, e, energy_nj), "seq {seq}");
            fired += got.len();
        }
        assert!(fired >= 2, "premise: both machines fire");
        assert_eq!(adapter.snapshot(&dev), reference.snapshot());
        assert_eq!((dev.fram().used(), dev.stats().consumed), (used, consumed));
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
    /// the next delivery (the recovery flag and the header, then one
    /// whole-block fill per armed machine) — and nothing accumulates
    /// across reboots.
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
                2 + MACHINES,
                "cold refill drifted on reboot {r}: finalize probe (flag \
                 + header) + one block fill per machine"
            );
            assert_eq!(reads, key.cold_extra_reads, "static cold model drifted");
        }
        assert_eq!(engine.cache_stats().invalidations, REBOOTS);
    }

    /// The derived journal capacity is exactly the largest record the
    /// engine commits on the suite, in both group regimes: group 0 —
    /// the header run with its verdict cell, and the machine's block — on
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
                // Start events of the first task step every machine, so
                // every delivery commits (and maxTries trips from the
                // third on). They alternate between path 1 and no path,
                // so each arming changes the event's first byte and its
                // span covers the whole arming run.
                for seq in 1..=6u64 {
                    let event = MonitorEvent::start(TaskId(0), t(seq));
                    let event = match seq % 2 {
                        1 => event.on_path(PathId(0)),
                        _ => event,
                    };
                    engine.call_monitor(&mut dev, seq, &event).unwrap();
                }
                let largest = dev.largest_journal_record();
                assert_eq!(largest, engine.fram().journal.capacity(), "tiny {tiny}");
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

    /// A corrupt armed event count — past one — faults with a typed
    /// error on the cold load after a reboot instead of slicing out of
    /// bounds.
    #[test]
    fn corrupt_armed_events_fault_instead_of_panicking() {
        let spec = "accel { maxTries: 5 onFail: skipPath; }\n\
                    send { collect: 2 dpTask: accel onFail: restartPath; }";
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let (engine, app) = engine(&mut dev, spec);
        let accel = app.task_by_name("accel").unwrap();
        drop(
            engine
                .call_monitor(&mut dev, 1, &MonitorEvent::start(accel, t(0)))
                .unwrap(),
        );
        let at = engine.fram().header.addr + engine.fram().header.event_count();
        dev.nv_write_raw(at, &2u16.to_le_bytes()).unwrap();
        dev.power_cycle();
        assert_eq!(
            engine.monitor_finalize(&mut dev),
            Err(Interrupt::Fault(Fault::CorruptState))
        );
    }

    /// A bit-flipped verdict log faults with a typed error instead of
    /// indexing out of bounds: a count past the log (read back by
    /// `last_verdicts`), a count at the end of the log while an
    /// emitting commit group is pending (resumed by
    /// `monitor_finalize`), and a cell naming no installed machine
    /// (read back by a redelivery), or a cell whose event-position
    /// half-word is set. So does a done bitmap that lost group 0's bit.
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

        let count_at = |engine: &MonitorEngine| {
            engine.fram().header.addr + engine.fram().header.verdict_count()
        };
        let done_at =
            |engine: &MonitorEngine| engine.fram().header.addr + engine.fram().header.done();
        let (mut dev, engine) = fresh();
        dev.nv_write_raw(count_at(&engine), &1_000u32.to_le_bytes())
            .unwrap();
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
        assert_eq!(
            engine.fram().armed.borrow().ends,
            [1, 2],
            "one machine per group"
        );
        let full = engine.fram().header.slots as u32;
        dev.nv_write_raw(count_at(&engine), &full.to_le_bytes())
            .unwrap();
        dev.nv_write_raw(done_at(&engine), &[0b01]).unwrap();
        dev.power_cycle();
        assert_eq!(
            engine.monitor_finalize(&mut dev),
            corrupt.map(|()| false),
            "count at the end of the log"
        );

        // Group 0 persists the arming: a loaded delivery without its
        // bit is no state any commit leaves behind.
        let (mut dev, engine) = fresh();
        dev.nv_write_raw(done_at(&engine), &vec![0; engine.fram().header.done_len])
            .unwrap();
        dev.power_cycle();
        assert_eq!(
            engine.monitor_finalize(&mut dev),
            corrupt.map(|()| false),
            "group 0 not done"
        );

        let (mut dev, engine) = fresh();
        let mut cell = [0; VerdictCell::SIZE];
        let bogus: VerdictCell = (999, (0, 0));
        bogus.store(&mut cell);
        let at = engine.fram().header.addr + engine.fram().header.cell(0);
        dev.nv_write_raw(at, &cell).unwrap();
        dev.power_cycle();
        assert_eq!(
            engine.call_monitor(&mut dev, 1, &ev),
            corrupt.map(|()| Vec::new()),
            "cell past the suite"
        );

        // One event per delivery: a cell whose high half-word (once an
        // event position) is set is no state any commit writes.
        let (mut dev, engine) = fresh();
        let positioned: VerdictCell = (1 << 16, (1, 0));
        positioned.store(&mut cell);
        dev.nv_write_raw(at, &cell).unwrap();
        dev.power_cycle();
        assert_eq!(
            engine.call_monitor(&mut dev, 1, &ev),
            corrupt.map(|()| Vec::new()),
            "cell with an event position"
        );
    }

    /// A machine block whose state word is past the machine's state
    /// count faults with a typed error on the cold load instead of
    /// stepping from a state no commit wrote.
    #[test]
    fn corrupt_state_word_faults_instead_of_stepping() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let (engine, app) = engine(&mut dev, "accel { maxTries: 5 onFail: skipPath; }");
        let accel = app.task_by_name("accel").unwrap();
        let states = engine.fram().suite.machines()[0].states.len() as u8;
        let ev = |us| MonitorEvent::start(accel, t(us));
        engine.call_monitor(&mut dev, 1, &ev(0)).unwrap();
        dev.nv_write_raw(engine.fram().machines[0].addr, &[states])
            .unwrap();
        dev.sram_mut().clear();
        assert_eq!(
            engine.call_monitor(&mut dev, 2, &ev(1)),
            Err(Interrupt::Fault(Fault::CorruptState))
        );
    }

    /// The armed delivery is one FRAM allocation whose fields tile it
    /// in the documented order with no gap — what lets group 0 stage
    /// it as one run and a cold load read it in one op.
    #[test]
    fn header_is_one_contiguous_region() {
        let spec = "accel { maxTries: 5 onFail: skipPath; }\n\
                    send { collect: 2 dpTask: accel onFail: restartPath; }";
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let (engine, _) = engine(&mut dev, spec);
        let h = &engine.fram().header;
        assert_eq!((h.done_len, h.slots), (1, 2));
        let fields = [
            (0, EncodedEvent::SIZE),
            (h.seq(), u64::SIZE),
            (h.event_count(), u16::SIZE),
            (h.verdict_count(), u32::SIZE),
            (h.done(), h.done_len),
            (h.cell(0), VerdictCell::SIZE * h.slots),
        ];
        let end = fields.iter().fold(0, |at, &(start, len)| {
            assert_eq!(start, at, "gap before offset {start}");
            start + len
        });
        let region = dev
            .fram()
            .allocations()
            .iter()
            .find(|a| a.label == "monitor.header")
            .unwrap();
        assert_eq!((region.addr, region.size), (h.addr, end));
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

    /// One machine that emits `skipTask` on every `start(accel)`, and
    /// one whose `end(accel)` transition fires only above 400 µJ on a
    /// 500 µJ capacitor, so a delivery on a drained device changes
    /// nothing and logs nothing, and the same delivery on a full one
    /// emits. The device's history: `start(accel)` under `seq` 1
    /// (persisted, one verdict), then the capacitor drained below the
    /// guard.
    fn silent_device() -> (Device, MonitorEngine, AppGraph) {
        let app = app();
        let mut dev = DeviceBuilder::msp430fr5994()
            .capacitor(Capacitor::with_budget(Energy::from_micro_joules(500)))
            .harvester(Harvester::FixedDelay(SimDuration::from_secs(1)))
            .build();
        let suite = artemis_ir::parse::parse_suite(
            "machine e task accel persistent { state S initial; \
             on startTask(accel) from S to S { } fail skipTask; }\n\
             machine g task accel persistent { state S initial; \
             on endTask(accel) from S to S if energy > 400000 { } fail skipTask; }",
        )
        .unwrap();
        let engine = MonitorEngine::install(&mut dev, suite, &app).unwrap();
        engine.reset_monitor(&mut dev).unwrap();
        let accel = app.task_by_name("accel").unwrap();
        let first = engine
            .call_monitor(&mut dev, 1, &MonitorEvent::start(accel, t(0)))
            .unwrap();
        assert_eq!(first.len(), 1);
        while dev.energy_level() > Energy::from_micro_joules(300) {
            dev.compute(1_000).unwrap();
        }
        (dev, engine, app)
    }

    /// A silent `EndTask` delivery persists nothing, so a crash before
    /// the runtime's advance leaves FRAM as if it was never made: the
    /// redelivery of its `seq` after the reboot arms and steps afresh,
    /// returning what a fresh delivery at that moment returns — here a
    /// verdict, because the energy guard that held before the crash
    /// flips at the recharged level.
    #[test]
    fn a_silent_delivery_redelivered_after_a_crash_steps_afresh() {
        let (mut dev, engine, app) = silent_device();
        let end = MonitorEvent::end(app.task_by_name("accel").unwrap(), t(10));
        let records = dev.journal_records();
        let writes = dev.fram().write_ops();
        assert!(engine.call_monitor(&mut dev, 2, &end).unwrap().is_empty());
        assert_eq!(dev.journal_records(), records, "nothing persisted");
        assert_eq!(dev.fram().write_ops(), writes, "nothing written");
        assert_eq!(engine.exec_stats().silent_deliveries, 1);

        // The crash lands before the caller's advance: the reboot
        // finishes nothing and the caller redelivers `seq` 2.
        dev.power_cycle();
        assert!(!engine.monitor_finalize(&mut dev).unwrap());
        let redelivered = engine.call_monitor(&mut dev, 2, &end).unwrap();

        // A twin that never made the silent delivery reboots and makes
        // it fresh.
        let (mut twin_dev, twin, _) = silent_device();
        twin_dev.power_cycle();
        assert!(!twin.monitor_finalize(&mut twin_dev).unwrap());
        let fresh = twin.call_monitor(&mut twin_dev, 2, &end).unwrap();

        assert_eq!(redelivered.len(), 1, "the guard flips after the recharge");
        assert_eq!(redelivered, fresh);
        assert_eq!(
            dev.fram().peek_raw(0, dev.fram().used()),
            twin_dev.fram().peek_raw(0, twin_dev.fram().used())
        );
    }

    /// Within the power cycle `last_verdicts` answers for the silent
    /// delivery (no verdicts); after a power cycle it answers for the
    /// last persisted delivery, `seq` 1 with its verdict.
    #[test]
    fn last_verdicts_after_a_silent_delivery() {
        let (mut dev, engine, app) = silent_device();
        let persisted = engine.last_verdicts(&mut dev).unwrap();
        assert_eq!(persisted.len(), 1);
        let end = MonitorEvent::end(app.task_by_name("accel").unwrap(), t(10));
        assert!(engine.call_monitor(&mut dev, 2, &end).unwrap().is_empty());
        assert_eq!(engine.exec_stats().silent_deliveries, 1);
        assert!(engine.last_verdicts(&mut dev).unwrap().is_empty());
        // A same-cycle redelivery returns the silent delivery's (no)
        // verdicts without stepping again.
        assert!(engine.call_monitor(&mut dev, 2, &end).unwrap().is_empty());
        assert_eq!(engine.exec_stats().silent_deliveries, 1);

        dev.power_cycle();
        assert_eq!(engine.last_verdicts(&mut dev).unwrap(), persisted);
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

        let suite = artemis_ir::compile(spec, &app).unwrap();
        let mut reference = Reference::new(suite, &app).unwrap();
        reference.deliver(1, &first, 0);
        reference.deliver(2, &second, 0);
        let expected = reference.snapshot();

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
                engine.fram().armed.borrow().ends,
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
            let h = &engine.fram().header;
            if dev.peek_raw(h.addr + h.seq(), 8) != 1u64.to_le_bytes() {
                // Group 0 never landed: the first event is not armed,
                // and redelivering it is the caller's job.
                continue;
            }
            // Armed, with some group still pending (or torn).
            let pending = dev.peek_raw(h.addr + h.done(), 1)[0] != 0b111;
            engine.call_monitor(&mut dev, 2, &second).unwrap();
            assert_eq!(engine.snapshot(&dev), expected, "crash before write {k}");
            resumed += usize::from(pending);
        }
        assert!(resumed > 0, "never left a delivery pending");
    }
}
