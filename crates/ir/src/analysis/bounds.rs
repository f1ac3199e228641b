//! Pass 2: static worst-case FRAM resource bounds, and the cut of a
//! delivery's worklist into energy-sized commit groups.
//!
//! Walks the routing index and dispatch tables to bound, per event key
//! `(kind, task)`, what one delivered event can cost the engine's
//! compiled path: FRAM read/write operations and bytes, CPU cycles, and
//! the largest single journal commit in bytes. The engine sizes its
//! journal from the worst-case commit at install time, so no commit
//! can fault with `JournalOverflow` mid-run ([`check_bounds`] checks a
//! suite against any other capacity), and the bounds are compared
//! against measured dispatch-benchmark numbers in `artemis-bench`
//! (static must dominate measured).
//!
//! # Commit groups
//!
//! The engine commits a delivery's worklist in **commit groups**:
//! consecutive runs of worklist entries, one journal record per group
//! and one done bit per group. Group 0's record also arms the delivery
//! (event, sequence number, verdict count, done bitmap and its
//! own verdict cells, one run of the engine's contiguous header), so a
//! delivery whose whole worklist fits one group costs one record.
//! [`commit_groups`] is the one function that cuts a
//! worklist: a group grows while its **cold cost from a full charge**
//! fits the device's energy budget less the profile's margin —
//! recovery (replaying the group's own record), the armed-delivery
//! load, each member's whole-block fill and step, and the group's
//! record. The margin is the feasibility gate's warning band: it keeps
//! room for the work the model does not price, such as the task
//! runtime's boot bookkeeping before a redelivery, which runs ahead of
//! group 0 on every attempt. A single member always forms a
//! group, so a capacitor too small for two members still makes
//! progress one machine at a time. The engine calls it at arming and
//! on every cold load (the partition is derived, never persisted), and
//! [`suite_bounds`] and the journal-capacity check call it on the same
//! static [`MemberCost`]s.
//!
//! # Cost model
//!
//! The engine charges the cycle constants below, and a sub-write's
//! header is the journal's own [`ENTRY_HEADER`]. The FRAM cell sizes
//! restate the monitor's header layout; tests pin them against the
//! engine (`bounds_model_matches_engine` in the monitor crate, the
//! dominance assertion in the dispatch benchmark). The sim bills
//! one FRAM op per `read_raw`/`write_raw` call. Every commit — event
//! group, reset or path restart — is one journal record: `k` sub-writes
//! cost `0` reads and `k+3` writes (stage the whole record in one
//! write, set the flag, apply each sub-write from RAM, clear the flag),
//! and the record is a `u16` count plus a 6-byte header and the payload
//! per sub-write.
//!
//! Per delivered event, using each key's static
//! [`AccessSet`](crate::compile::AccessSet) and each
//! machine's packed [`crate::layout::MachineLayout`]:
//!
//! The engine keeps the armed delivery — one event — in one contiguous
//! header, `[event][seq u64][event count u16][verdict count u32]
//! [done bitmap][verdict cells]`. Each contiguous run it stages is one
//! sub-write, however many fields it spans. With `N` installed machines
//! and `c` logged cells:
//!
//! - **armed-delivery load**: the recovery flag, then the header from
//!   the event to the done bitmap — 2 reads, `46 + ⌈N/8⌉` bytes; the
//!   verdict count rides along, so no later read needs it. The worklist
//!   and its groups are not persisted: the engine derives both from the
//!   armed event;
//! - **group 0**: one record of its members' sub-writes plus **one**
//!   header run from the event to its last logged cell —
//!   `51 + ⌈N/8⌉ + 9·c` record bytes; verdict cells add bytes,
//!   never sub-writes. With no members it is the 4-write arming record;
//!   the engine persists nothing at all for a one-group delivery in
//!   which no member has an effect and nothing is logged, which the
//!   model, an upper bound, still prices at that record;
//! - **group g ≥ 1**: one record of its members' sub-writes and the
//!   done bitmap (3 + 1 + members' sub-writes writes); a group with an
//!   emitting member stages `[verdict count | done]` and one run of its
//!   cells instead (3 + 2 + members' sub-writes);
//! - **per member**, worst case (effectful step): one whole-block read
//!   on a cold fill, and the state word plus every write-set slot as
//!   sub-writes of its group's record. Keys whose access set covers ≥ ¾
//!   of the block degrade at compile time to committing the whole block
//!   image as one sub-write. An emitting member adds one verdict cell
//!   to its group's log;
//! - **verdict readback**: one read per possible emitter's cell.
//!
//! The static bound dominates the dynamic cost because the `Path:`
//! filter only ever *dismisses* members inside their groups (the cut
//! itself runs on the routing index's interest lists, so per-event
//! groups are exactly the static ones), effectless steps stage nothing,
//! a member that emits less logs fewer cell bytes (and a later group
//! that logs nothing stages only its bitmap), a group `g ≥ 1` left
//! holding only its done bit completes with a plain write instead of a
//! commit, and a step's dynamic write set is a subset of the static
//! one. The model prices each member slot-granular
//! (state word + every write-set slot); the engine's dirty-diff runs
//! only ever stage fewer runs and fewer bytes: changed bytes live
//! inside the state word and write-set slots, at most one run forms per
//! field, and the gap-merge rule only fires when the 6-byte header it
//! saves covers the gap bytes it adds. The figures are attained exactly
//! when every byte of the state word and of every written slot changes
//! and the fields lie more than a header apart (the monitor crate's
//! exactness pins use such a suite).
//!
//! # Cache-aware bounds
//!
//! The compiled engine reads through a volatile shadow cache. Warm,
//! every read of a steady-state delivery — recovery flag, the header
//! and its derived worklist, machine spans, verdict cells — is served
//! from RAM, and no commit re-reads the journal, so a warm
//! delivery reads **nothing**: it costs exactly [`EventCost::writes`].
//! [`EventCost::cold_extra_reads`] and [`EventCost::cold_read_bytes`]
//! are the refill of the first delivery after a reboot (the
//! armed-delivery load + one whole-block fill per armed machine);
//! [`EventCost::reads`] and [`EventCost::read_bytes`] price every read
//! the delivery performs as if nothing were shadowed — the post-reboot
//! ceiling the energy gate charges, which dominates any cold delivery
//! (a resumed one included). A cold load also re-derives the loaded
//! delivery's worklist, one more [`ROUTING_LOOKUP_CYCLES`] charge on
//! top of the warm [`EventCost::cycles`]; the energy ceilings price it. Write bounds hold warm and cold alike: the cache is
//! write-through and never changes what the engine commits.

use artemis_core::event::EventKind;
use artemis_spec::Diagnostic;
use intermittent_sim::journal::ENTRY_HEADER;
use intermittent_sim::{Energy, EnergyProfile};

use crate::compile::{CompiledMachine, CompiledSuite};

/// Encoded size of the pending-event cell (`EncodedEvent`).
const ENCODED_EVENT_BYTES: usize = 31;
/// Sequence cell (`u64`).
const U64_BYTES: usize = 8;
/// Verdict count (`u32`).
const U32_BYTES: usize = 4;
/// One verdict cell: `(u32, (u8, u32))`.
const VERDICT_BYTES: usize = 9;
/// Recovery flag (`bool`).
const FLAG_BYTES: usize = 1;

/// Cycles of the per-event routing-index lookup that derives a
/// delivery's worklist, charged at arming and again on a cold load.
pub const ROUTING_LOOKUP_CYCLES: u64 = 12;
/// Cycles per armed machine entered on the compiled dispatch path (a
/// kind/task table lookup).
pub const COMPILED_DISPATCH_CYCLES: u64 = 10;

/// Journal bytes of one sub-write carrying `data` bytes; a record adds
/// its leading `count: u16` once.
const fn entry_bytes(data: usize) -> usize {
    ENTRY_HEADER + data
}

/// Bytes of the per-engine completion bitmap for `machines` installed
/// machines: one bit per commit group, and a worklist never holds more
/// groups than machines.
pub fn done_bytes(machines: usize) -> usize {
    machines.div_ceil(8).max(1)
}

/// What one journal commit costs, accumulated sub-write by sub-write.
#[derive(Clone, Copy, Default, Debug)]
struct RecordCost {
    subs: usize,
    entries: usize,
    data: usize,
}

impl RecordCost {
    /// Adds one sub-write carrying `payload` bytes.
    fn with(mut self, payload: usize) -> Self {
        self.subs += 1;
        self.entries += entry_bytes(payload);
        self.data += payload;
        self
    }

    /// Adds every sub-write of `other`.
    fn plus(self, other: RecordCost) -> Self {
        RecordCost {
            subs: self.subs + other.subs,
            entries: self.entries + other.entries,
            data: self.data + other.data,
        }
    }

    /// FRAM write ops: stage, flag, one apply per sub-write, clear.
    fn writes(&self) -> usize {
        self.subs + 3
    }

    /// Journal bytes of the staged record, count word included.
    fn record(&self) -> usize {
        2 + self.entries
    }

    /// FRAM bytes written: the record, every payload, both flag flips.
    fn write_bytes(&self) -> usize {
        self.record() + self.data + 2 * FLAG_BYTES
    }
}

/// Bytes of an armed delivery's fixed header fields: `[seq u64][event
/// count u16][verdict count u32][done bitmap]`. The event sits in front
/// of them and the verdict cells follow, so a reset zeroes exactly these
/// bytes in one run.
const fn fixed_bytes(done_b: usize) -> usize {
    U64_BYTES + 2 + U32_BYTES + done_b
}

/// Group 0's header run for a delivery with a `done_b`-byte bitmap that
/// logs `verdicts` cells: the event abuts the fixed fields and the cells
/// follow them, so arming is **one** sub-write, and verdict cells add
/// bytes, never sub-writes.
fn arming(done_b: usize, verdicts: usize) -> RecordCost {
    RecordCost::default().with(ENCODED_EVENT_BYTES + fixed_bytes(done_b) + VERDICT_BYTES * verdicts)
}

/// FRAM write ops and bytes of the smallest arming record a committed
/// group 0 can write: no member effects, no verdict, and a span of one
/// changed byte.
pub(crate) fn least_arming() -> (usize, usize) {
    let record = RecordCost::default().with(1);
    (record.writes(), record.write_bytes())
}

/// FRAM read ops and bytes of loading the armed delivery with nothing
/// shadowed: the recovery flag, then the header from the event to the
/// done bitmap in one read (the sequence number and verdict count ride
/// along).
fn armed_load(done_b: usize) -> (usize, usize) {
    (2, FLAG_BYTES + ENCODED_EVENT_BYTES + fixed_bytes(done_b))
}

/// The static ceilings one worklist member adds to its commit group,
/// from the per-key tables of the events it is routed: its whole-block
/// cold fill, its dispatch and step cycles, its sub-writes (the state
/// word plus the union of the keys' write sets, or the whole block
/// image when any key degrades) and one verdict cell per emitting key.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemberCost {
    fill_bytes: usize,
    cycles: u64,
    record: RecordCost,
    verdicts: usize,
}

impl MemberCost {
    /// The cost of machine `m` routed the events whose keys `keys`
    /// yields (one per event, in any order): what the engine prices a
    /// worklist entry at, and what [`suite_bounds`] prices a key's
    /// members at. Allocation-free.
    pub fn routed(
        m: &CompiledMachine,
        keys: impl Iterator<Item = (EventKind, u32)> + Clone,
    ) -> Self {
        let l = m.layout();
        let mut cost = MemberCost {
            fill_bytes: l.block_len,
            ..MemberCost::default()
        };
        let mut whole = false;
        for (kind, task) in keys.clone() {
            cost.cycles += COMPILED_DISPATCH_CYCLES + m.step_cost(kind, task).cycles;
            cost.verdicts += usize::from(m.may_emit(kind, task));
            whole |= m.access(kind, task).whole_block;
        }
        cost.record = if whole {
            RecordCost::default().with(l.block_len)
        } else {
            (0..l.var_count() as u16)
                .filter(|s| {
                    keys.clone()
                        .any(|(kind, task)| m.access(kind, task).writes.binary_search(s).is_ok())
                })
                .fold(RecordCost::default().with(l.state_bytes), |c, s| {
                    c.with(l.slots[s as usize].enc.width())
                })
        };
        cost
    }
}

/// One commit group's members folded together, with the group-level
/// sub-writes derived on demand.
#[derive(Clone, Copy, Debug, Default)]
struct GroupCost {
    first: bool,
    members: usize,
    fill_bytes: usize,
    cycles: u64,
    staged: RecordCost,
    verdicts: usize,
}

impl GroupCost {
    fn new(first: bool) -> Self {
        GroupCost {
            first,
            ..GroupCost::default()
        }
    }

    fn with(mut self, m: &MemberCost) -> Self {
        self.members += 1;
        self.fill_bytes += m.fill_bytes;
        self.cycles += m.cycles;
        self.staged = self.staged.plus(m.record);
        self.verdicts += m.verdicts;
        self
    }

    /// The group's journal record: every member's sub-writes, then
    /// group 0's header run with its verdict cells, or a later group's
    /// `[verdict count | done]` run and one run of its cells — only the
    /// done bitmap when no member can emit.
    fn record(&self, done_b: usize) -> RecordCost {
        let header = if self.first {
            arming(done_b, self.verdicts)
        } else if self.verdicts > 0 {
            RecordCost::default()
                .with(U32_BYTES + done_b)
                .with(VERDICT_BYTES * self.verdicts)
        } else {
            RecordCost::default().with(done_b)
        };
        self.staged.plus(header)
    }

    /// Energy of running the group from a full charge right after a
    /// reboot: recovery (the flag read and a replay of the group's own
    /// record), the armed-delivery load and worklist re-derivation,
    /// every member's whole-block fill and step, and the group's
    /// commit.
    fn cold_energy(&self, done_b: usize, profile: &EnergyProfile) -> Energy {
        let record = self.record(done_b);
        let (load_reads, load_bytes) = armed_load(done_b);
        profile.model.traffic_energy(
            load_reads + 1 + 2 * record.subs + self.members,
            load_bytes + 2 + record.entries + self.fill_bytes,
            record.subs + 1 + record.writes(),
            record.data + FLAG_BYTES + record.write_bytes(),
            ROUTING_LOOKUP_CYCLES + self.cycles,
        )
    }
}

/// Cuts a worklist into commit groups, for a header whose done bitmap
/// is `done_b` bytes ([`done_bytes`] of the suite size): `ends`
/// receives each group's exclusive end index into `members`, in
/// order. Groups are
/// consecutive; a group grows while its cold cost from a full charge
/// fits `profile.margin_threshold()` (the budget less the margin the
/// feasibility gate warns within), and a member that would push it
/// over starts the next one. A single member always forms a group. An empty
/// worklist still has group 0 — the arming record — so `ends` is never
/// empty. Pure and allocation-free once `ends` has capacity for every
/// group.
pub fn commit_groups(
    members: impl IntoIterator<Item = MemberCost>,
    done_b: usize,
    profile: &EnergyProfile,
    ends: &mut Vec<u16>,
) {
    ends.clear();
    let mut group = GroupCost::new(true);
    let mut n = 0u16;
    for m in members {
        let grown = group.with(&m);
        if group.members > 0 && grown.cold_energy(done_b, profile) > profile.margin_threshold() {
            ends.push(n);
            group = GroupCost::new(false).with(&m);
        } else {
            group = grown;
        }
        n += 1;
    }
    ends.push(n);
}

/// What delivering a worklist of `members` costs, before the verdict
/// readback: the armed-delivery load and routing, then per commit
/// group [`commit_groups`] cuts — one whole-block fill per member (the
/// engine's cold read) and one record.
#[derive(Default)]
struct Priced {
    groups: usize,
    reads: usize,
    read_bytes: usize,
    writes: usize,
    write_bytes: usize,
    cycles: u64,
    largest_record: usize,
    /// Bytes of the cold refill: the armed-delivery load and every fill.
    cold_read_bytes: usize,
}

fn price(
    members: &[MemberCost],
    done_b: usize,
    profile: &EnergyProfile,
    ends: &mut Vec<u16>,
) -> Priced {
    commit_groups(members.iter().copied(), done_b, profile, ends);
    let (reads, load_bytes) = armed_load(done_b);
    let fills: usize = members.iter().map(|m| m.fill_bytes).sum();
    let mut p = Priced {
        reads,
        read_bytes: load_bytes,
        cycles: ROUTING_LOOKUP_CYCLES,
        cold_read_bytes: load_bytes + fills,
        ..Priced::default()
    };
    let mut start = 0;
    for (g, &end) in ends.iter().enumerate() {
        let end = end as usize;
        let group = members[start..end]
            .iter()
            .fold(GroupCost::new(g == 0), |c, m| c.with(m));
        start = end;
        p.reads += group.members;
        p.read_bytes += group.fill_bytes;
        p.cycles += group.cycles;
        let record = group.record(done_b);
        p.writes += record.writes();
        p.write_bytes += record.write_bytes();
        p.largest_record = p.largest_record.max(record.record());
        p.groups += 1;
    }
    p
}

/// Worst-case cost of delivering one event under a given key.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EventCost {
    /// Event kind of the key.
    pub kind: EventKind,
    /// Dense task id, or `None` for the out-of-graph wildcard key.
    pub task: Option<u32>,
    /// Machines the routing index arms for this key.
    pub machines: usize,
    /// Of those, machines with at least one dispatched emitting
    /// transition (they pay the verdict-logging surcharge).
    pub emitters: usize,
    /// Armed machines committing their state word + write-set slots
    /// under this key (their access set stays below the ¾-block
    /// threshold).
    pub delta_machines: usize,
    /// Armed machines auto-degraded to whole-block loads and commits.
    pub degraded_machines: usize,
    /// Commit groups [`commit_groups`] cuts the key's worklist into —
    /// journal records per delivery (group 0 always exists).
    pub groups: usize,
    /// Worst-case FRAM read operations with every read priced as if
    /// nothing were shadowed: the post-reboot ceiling. A warm delivery
    /// reads nothing; a freshly armed cold one reads
    /// `cold_extra_reads`.
    pub reads: usize,
    /// Worst-case FRAM write operations, warm or cold (the shadow is
    /// write-through).
    pub writes: usize,
    /// Extra FRAM reads the first delivery after a reboot pays to
    /// refill the shadow: the armed-delivery load (recovery flag and
    /// one header read), and one whole-block fill per armed machine.
    /// Any post-reboot delivery — including resuming an event armed
    /// before the crash — reads at most [`EventCost::reads`] ops.
    pub cold_extra_reads: usize,
    /// FRAM bytes of the `cold_extra_reads` refill: the armed-delivery
    /// load plus every armed machine's whole block.
    pub cold_read_bytes: usize,
    /// Largest single journal commit, in payload bytes.
    pub commit_bytes: usize,
    /// Worst-case FRAM bytes read with every read priced — machine
    /// loads at their whole block, as a cold fill reads them (per-byte
    /// traffic priced on top of the per-op base by the sim's cost
    /// model).
    pub read_bytes: usize,
    /// Worst-case FRAM bytes written.
    pub write_bytes: usize,
    /// Worst-case engine CPU cycles a warm delivery charges (routing
    /// lookup + per-machine dispatch + per-transition stepping). A
    /// cold one also re-derives the loaded delivery's worklist: one
    /// more [`ROUTING_LOOKUP_CYCLES`].
    pub cycles: u64,
}

impl EventCost {
    /// Total FRAM operations (reads + writes).
    pub fn ops(&self) -> usize {
        self.reads + self.writes
    }
}

/// Static per-event and install-time resource bounds for a suite.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SuiteBounds {
    /// Every `(kind, task)` key of the application graph plus the two
    /// wildcard keys.
    pub per_key: Vec<EventCost>,
    /// Largest single journal commit any event or reset can stage, in
    /// bytes.
    pub worst_commit_bytes: usize,
    /// Bytes of the whole-suite reset record (`resetMonitor` re-images
    /// every machine block in one journal record), count word included.
    pub reset_commit_bytes: usize,
}

impl SuiteBounds {
    /// The most expensive event key by total FRAM ops, if any machines
    /// are installed.
    pub fn worst_event(&self) -> Option<&EventCost> {
        self.per_key.iter().max_by_key(|c| c.ops())
    }
}

/// Computes the static resource bounds of a compiled suite by walking
/// its routing index and dispatch tables, for an engine delivering one
/// event at a time on a device of energy profile `profile`, whose
/// budget sizes the commit groups.
pub fn suite_bounds(compiled: &CompiledSuite, profile: &EnergyProfile) -> SuiteBounds {
    let machines = compiled.machines();
    let task_count = compiled.task_count();
    let done_b = done_bytes(machines.len());

    let mut per_key = Vec::with_capacity(2 * (task_count + 1));
    let mut members = Vec::with_capacity(machines.len());
    let mut ends = Vec::with_capacity(machines.len() + 1);
    for kind in [EventKind::StartTask, EventKind::EndTask] {
        for key_task in 0..=task_count {
            // `task_count` stands in for any out-of-graph id: the
            // routing index resolves it to the wildcard set.
            let (task, probe) = if key_task == task_count {
                (None, u32::MAX)
            } else {
                (Some(key_task as u32), key_task as u32)
            };
            let armed = compiled.routing().interested(kind, probe);
            members.clear();
            members.extend(armed.iter().map(|&mi| {
                MemberCost::routed(&machines[mi as usize], core::iter::once((kind, probe)))
            }));

            let p = price(&members, done_b, profile, &mut ends);
            let emitters = members.iter().filter(|m| m.verdicts > 0).count();
            let degraded_machines = armed
                .iter()
                .filter(|&&mi| machines[mi as usize].access(kind, probe).whole_block)
                .count();

            per_key.push(EventCost {
                kind,
                task,
                machines: armed.len(),
                emitters,
                delta_machines: armed.len() - degraded_machines,
                degraded_machines,
                groups: p.groups,
                // Verdict readback: one cell per possible emitter (the
                // count came with the header).
                reads: p.reads + emitters,
                writes: p.writes,
                // The armed-delivery load + one whole-block fill per
                // armed machine (the fresh-arm cold path; resuming a
                // pre-crash event is bounded by `reads`).
                cold_extra_reads: 2 + armed.len(),
                cold_read_bytes: p.cold_read_bytes,
                commit_bytes: p.largest_record,
                read_bytes: p.read_bytes + VERDICT_BYTES * emitters,
                write_bytes: p.write_bytes,
                cycles: p.cycles,
            });
        }
    }

    let reset_commit_bytes = 2 // record count word
        + machines
            .iter()
            .map(|m| entry_bytes(m.layout().block_len))
            .sum::<usize>()
        + entry_bytes(fixed_bytes(done_b)); // the zeroed fixed header fields

    let worst_commit_bytes = per_key
        .iter()
        .map(|c| c.commit_bytes)
        .max()
        .unwrap_or(0)
        .max(reset_commit_bytes);

    SuiteBounds {
        per_key,
        worst_commit_bytes,
        reset_commit_bytes,
    }
}

/// Cross-checks the suite's static bounds against a journal capacity
/// on a device of the given energy profile (the profile sizes the
/// commit groups, and so the records). With `journal: None` the check
/// degenerates to computing nothing (no findings).
pub fn check_bounds(
    compiled: &CompiledSuite,
    journal: Option<(usize, &EnergyProfile)>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let Some((capacity, profile)) = journal else {
        return diags;
    };
    let b = suite_bounds(compiled, profile);
    if b.reset_commit_bytes > capacity {
        diags.push(Diagnostic::error(
            "bounds",
            "suite",
            format!(
                "whole-suite reset commits {} journal bytes, but the journal holds {capacity}",
                b.reset_commit_bytes
            ),
        ));
    }
    for c in &b.per_key {
        if c.commit_bytes > capacity {
            let task = match c.task {
                Some(t) => compiled.task_name(t).to_string(),
                None => "<out-of-graph>".to_string(),
            };
            diags.push(Diagnostic::error(
                "bounds",
                format!("event {:?}({task})", c.kind),
                format!(
                    "worst-case commit of {} journal bytes exceeds the capacity of {capacity}",
                    c.commit_bytes
                ),
            ));
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use artemis_core::app::{AppGraph, AppGraphBuilder};

    fn app() -> AppGraph {
        let mut b = AppGraphBuilder::new();
        let a = b.task("a");
        let s = b.task("b");
        b.path(&[a, s]);
        b.build().unwrap()
    }

    /// A budget every worklist of these tests fits in one group.
    fn roomy() -> EnergyProfile {
        EnergyProfile::with_budget(Energy::from_micro_joules(800))
    }

    /// A budget no two members share: one machine per group.
    fn tiny() -> EnergyProfile {
        EnergyProfile::with_budget(Energy::from_nano_joules(1))
    }

    /// The header run's payload for one event, a one-byte done bitmap
    /// and `verdicts` logged cells: the event through the last cell.
    fn header_run(verdicts: usize) -> usize {
        U64_BYTES + 2 + ENCODED_EVENT_BYTES + U32_BYTES + 1 + VERDICT_BYTES * verdicts
    }

    /// A one-event armed-delivery load: the flag and `events … done`.
    const LOAD: usize = FLAG_BYTES + U64_BYTES + 2 + ENCODED_EVENT_BYTES + U32_BYTES + 1;

    #[test]
    fn bounds_scale_with_interest_and_emits() {
        let app = app();
        let suite = crate::compile(
            "a { maxTries: 2 onFail: skipPath; }\n\
             b { maxTries: 2 onFail: skipTask; }",
            &app,
        )
        .unwrap();
        let cs = CompiledSuite::compile(&suite, &app).unwrap();
        let b = suite_bounds(&cs, &roomy());

        // 2 tasks + wildcard, both kinds.
        assert_eq!(b.per_key.len(), 6);
        let key = |kind, task| {
            b.per_key
                .iter()
                .find(|c| c.kind == kind && c.task == task)
                .unwrap()
        };
        // maxTries machines observe starts of their task and can emit;
        // their single counter means every key touches the whole block
        // and degrades to whole-block commits.
        let start_a = key(EventKind::StartTask, Some(0));
        assert_eq!(start_a.machines, 1);
        assert_eq!(start_a.emitters, 1);
        assert_eq!(start_a.degraded_machines, 1);
        assert_eq!(start_a.delta_machines, 0);
        assert_eq!(start_a.groups, 1);
        // An armed emitting machine costs more than an un-armed key.
        let wild = key(EventKind::StartTask, None);
        assert_eq!(wild.machines, 0);
        assert_eq!(wild.groups, 1, "group 0 is the arming record");
        assert!(start_a.ops() > wild.ops());
        // Armed-delivery load (flag + header) + block fill (1) +
        // readback of one cell; the count rides the header.
        assert_eq!(start_a.reads, 2 + 1 + 1);
        // One record: the header run, its verdict cell included, and
        // the block.
        assert_eq!(start_a.writes, 3 + 1 + 1);
        assert_eq!(start_a.cold_extra_reads, 2 + 1);
        // Byte pins for the degraded emitting key (2-machine suite, so
        // a 1-byte done bitmap).
        let block = cs.machines()[0].layout().block_len;
        assert_eq!(start_a.cold_read_bytes, LOAD + block);
        // flag and header, whole-block fill, one cell read back.
        assert_eq!(start_a.read_bytes, LOAD + block + VERDICT_BYTES);
        let record = 2 + entry_bytes(header_run(1)) + entry_bytes(block);
        let data = header_run(1) + block;
        assert_eq!(start_a.write_bytes, record + data + 2);
        assert_eq!(start_a.commit_bytes, record);
        // One armed machine billing its key's static step ceiling.
        // The maxTries lowering dispatches 3 transitions on its task's
        // start key; optimized (fused guards), the cycle-priced worst
        // path plus the 3 scan tests pins at 20 — tighter than the old
        // 12-cycles-per-transition flat rate.
        let sc = cs.machines()[0].step_cost(EventKind::StartTask, 0);
        assert_eq!(sc.cycles, 20);
        assert!(sc.cycles < 3 * 12);
        assert_eq!(
            start_a.cycles,
            ROUTING_LOOKUP_CYCLES + COMPILED_DISPATCH_CYCLES + sc.cycles
        );
        // An un-armed key still pays the routing lookup and the
        // arming record, nothing else: 4 writes (the record's 3 fixed
        // ones and the header run), whose run covers the whole
        // `event … done` prefix.
        assert_eq!(wild.cycles, ROUTING_LOOKUP_CYCLES);
        assert_eq!(wild.writes, 4);
        let arm_record = 2 + entry_bytes(header_run(0));
        assert_eq!(wild.write_bytes, arm_record + header_run(0) + 2);
        assert!(b.worst_commit_bytes >= b.reset_commit_bytes);
        assert!(b.worst_event().unwrap().ops() >= start_a.ops());
    }

    /// Pins the delta-key arithmetic on a hand-built sparse machine:
    /// 12 slots, the routed body increments only slot 0.
    #[test]
    fn delta_keys_are_bounded_by_their_write_set() {
        use crate::expr::{BinOp, Expr, Value, VarType};
        use crate::fsm::{MonitorSuite, StateMachine, Stmt, TaskPat, Transition, Trigger};

        let app = app();
        let mut sm = StateMachine::new("sparse", "a");
        for v in 0..12 {
            sm.add_var(&format!("v{v}"), VarType::Int, Value::Int(0));
        }
        sm.add_state("S");
        sm.transitions.push(Transition {
            from: 0,
            to: 0,
            trigger: Trigger::Start(TaskPat::named("a")),
            guard: None,
            body: vec![Stmt::Assign(
                "v0".into(),
                Expr::bin(BinOp::Add, Expr::var("v0"), Expr::int(1)),
            )],
            emit: None,
        });
        let mut suite = MonitorSuite::new();
        suite.push(sm);
        let cs = CompiledSuite::compile(&suite, &app).unwrap();
        let b = suite_bounds(&cs, &roomy());

        let start_a = b
            .per_key
            .iter()
            .find(|c| c.kind == EventKind::StartTask && c.task == Some(0))
            .unwrap();
        assert_eq!(start_a.delta_machines, 1);
        assert_eq!(start_a.degraded_machines, 0);
        // Armed-delivery load (flag + header) + block fill (1).
        assert_eq!(start_a.reads, 2 + 1);
        // One record: the header run + state word + slot.
        assert_eq!(start_a.writes, 3 + 1 + 2);
        assert_eq!(start_a.cold_extra_reads, 2 + 1);

        // v0's unguarded increment widens it to a full 8-byte slot, but
        // state (1 state), done (1 machine) and the eleven untouched
        // 1-byte counters all pack: block = 1 (state) + 8 (v0) + 11.
        let m = &cs.machines()[0];
        assert_eq!(m.layout().state_bytes, 1);
        assert_eq!(m.layout().span(Some(0)), 1 + 8);
        assert_eq!(m.layout().block_len, 1 + 8 + 11);
        // A cold fill reads the whole block, not the 9-byte span the
        // step decodes.
        assert_eq!(start_a.cold_read_bytes, LOAD + 20);
        assert_eq!(start_a.read_bytes, LOAD + 20);
        let record = 2 + entry_bytes(header_run(0)) + entry_bytes(1) + entry_bytes(8);
        assert_eq!(start_a.write_bytes, record + header_run(0) + 1 + 8 + 2);
        assert_eq!(
            start_a.cycles,
            ROUTING_LOOKUP_CYCLES + COMPILED_DISPATCH_CYCLES + 12
        );
        // The largest commit is the one group's record.
        assert_eq!(start_a.commit_bytes, record);
    }

    /// On a budget no two members share, every armed machine is its
    /// own group: group 0 carries the arming run and the first
    /// machine, each later group one machine and the done bitmap.
    #[test]
    fn tiny_budgets_commit_one_machine_per_group() {
        let app = app();
        let suite = crate::compile(
            "a { maxTries: 2 onFail: skipPath; \
                 maxDuration: 1s onFail: skipTask; \
                 period: 1min onFail: restartTask; }",
            &app,
        )
        .unwrap();
        let cs = CompiledSuite::compile(&suite, &app).unwrap();
        let key_of = |p: &EnergyProfile, task| {
            suite_bounds(&cs, p)
                .per_key
                .into_iter()
                .find(|c| c.kind == EventKind::StartTask && c.task == task)
                .unwrap()
        };
        let key = |p: &EnergyProfile| key_of(p, Some(0));
        let (one, each) = (key(&roomy()), key(&tiny()));
        assert_eq!(one.machines, 3);
        assert_eq!((one.groups, each.groups), (1, 3));
        // Each later group adds a record's 3 fixed writes and the done
        // bitmap — where its member emits, the `[verdict count | done]`
        // run and one run of cells. Group 0's cells ride its header run
        // either way, and no group reads the count: it came with the
        // header.
        let later_emitters = cs.machines()[1..]
            .iter()
            .filter(|m| m.may_emit(EventKind::StartTask, 0))
            .count();
        assert!(later_emitters > 0, "premise: a later group logs verdicts");
        assert_eq!(each.writes, one.writes + 2 * 4 + later_emitters);
        assert_eq!(each.reads, one.reads);
        assert!(each.commit_bytes < one.commit_bytes);
        assert_eq!(each.cycles, one.cycles);
        assert_eq!(each.cold_extra_reads, one.cold_extra_reads);
        assert_eq!(each.cold_read_bytes, one.cold_read_bytes);
        // The arming record alone, the wildcard key's whole cost, is
        // the same on either budget.
        let wild = |p: &EnergyProfile| {
            let k = key_of(p, None);
            (k.writes, k.write_bytes)
        };
        assert_eq!(wild(&tiny()), wild(&roomy()));
    }

    /// The cut is next-fit over member costs: every group but the last
    /// is closed by a member that did not fit, a lone member forms a
    /// group however large, and an empty worklist keeps group 0.
    #[test]
    fn commit_groups_cut_by_cold_energy() {
        let app = app();
        let suite = crate::compile(
            "a { maxTries: 2 onFail: skipPath; \
                 maxDuration: 1s onFail: skipTask; \
                 period: 1min onFail: restartTask; }",
            &app,
        )
        .unwrap();
        let cs = CompiledSuite::compile(&suite, &app).unwrap();
        let members: Vec<MemberCost> = cs
            .machines()
            .iter()
            .map(|m| MemberCost::routed(m, core::iter::once((EventKind::StartTask, 0))))
            .collect();
        let mut ends = Vec::new();
        commit_groups([], 1, &tiny(), &mut ends);
        assert_eq!(ends, [0]);
        commit_groups(members.iter().copied(), 1, &tiny(), &mut ends);
        assert_eq!(ends, [1, 2, 3]);
        commit_groups(members.iter().copied(), 1, &roomy(), &mut ends);
        assert_eq!(ends, [3]);
        // The smallest budget whose threshold covers the first two
        // members' cold cost fits them as group 0, and one picojoule
        // less cuts after the first. The threshold is the budget less
        // its margin, in whole percent of the budget.
        let two = GroupCost::new(true)
            .with(&members[0])
            .with(&members[1])
            .cold_energy(1, &roomy())
            .as_pico_joules();
        let mut group0 = |margin_percent, pj| {
            let profile = EnergyProfile {
                margin_percent,
                ..EnergyProfile::with_budget(Energy::from_pico_joules(pj))
            };
            commit_groups(members.iter().copied(), 1, &profile, &mut ends);
            ends[0]
        };
        let fits = |margin: u8| two.div_ceil(u64::from(100 - margin)) * 100;
        let margin = EnergyProfile::DEFAULT_MARGIN_PERCENT;
        for m in [0, margin] {
            assert_eq!(group0(m, fits(m)), 2, "margin {m}%");
            assert_eq!(group0(m, fits(m) - 1), 1, "margin {m}%");
        }
        // The default margin keeps its share free: a budget the two
        // would fill exactly holds only the first.
        assert!(fits(margin) > two);
        assert_eq!(group0(margin, two), 1);
    }

    /// Group 0 arms with one sub-write — the event abuts the fixed
    /// header fields — and its logged cells add bytes only; a later
    /// emitting group stages `[verdict count | done]` and its cells as
    /// two sub-writes, a silent one the bitmap.
    #[test]
    fn header_runs_are_one_sub_write_each() {
        for verdicts in [0, 1, 5] {
            let run = arming(1, verdicts);
            assert_eq!(run.subs, 1);
            let fixed = U64_BYTES + 2 + U32_BYTES + 1;
            let cells = VERDICT_BYTES * verdicts;
            assert_eq!(run.data, ENCODED_EVENT_BYTES + fixed + cells);
        }
        let later = |verdicts| {
            GroupCost {
                verdicts,
                ..GroupCost::new(false)
            }
            .record(1)
        };
        let log = later(3);
        assert_eq!((log.subs, log.data), (2, U32_BYTES + 1 + 3 * VERDICT_BYTES));
        let silent = later(0);
        assert_eq!((silent.subs, silent.data), (1, 1));
    }

    /// The done bitmap grows one byte per eight installed machines, so
    /// suites of any size get a byte-exact arming record.
    #[test]
    fn done_bitmap_scales_past_one_word() {
        assert_eq!(done_bytes(0), 1);
        assert_eq!(done_bytes(8), 1);
        assert_eq!(done_bytes(64), 8);
        assert_eq!(done_bytes(65), 9);
        assert_eq!(done_bytes(100), 13);
    }

    #[test]
    fn capacity_gate_rejects_tiny_journals() {
        let app = app();
        let suite = crate::compile("a { maxTries: 2 onFail: skipPath; }", &app).unwrap();
        let cs = CompiledSuite::compile(&suite, &app).unwrap();
        let p = roomy();
        assert!(check_bounds(&cs, None).is_empty());
        assert!(check_bounds(&cs, Some((1 << 20, &p))).is_empty());
        let diags = check_bounds(&cs, Some((16, &p)));
        assert!(
            diags.iter().any(|d| d.is_error() && d.pass == "bounds"),
            "{diags:?}"
        );
    }
}
