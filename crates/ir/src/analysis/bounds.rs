//! Pass 2: static worst-case FRAM resource bounds.
//!
//! Walks the routing index and dispatch tables to bound, per event key
//! `(kind, task)`, what one delivered event can cost the engine's
//! compiled path: FRAM read/write operations and bytes, CPU cycles, and
//! the largest single journal commit in bytes. The bounds are compared
//! against the journal capacity at install time — a suite whose
//! worst-case commit cannot fit is rejected *before* it allocates,
//! instead of faulting with `JournalOverflow` mid-run — and against
//! measured dispatch-benchmark numbers in `artemis-bench` (static must
//! dominate measured).
//!
//! # Cost model
//!
//! The constants below mirror `artemis-monitor`'s engine and
//! `intermittent-sim`'s journal byte-for-byte; they are pinned by tests
//! in those crates (`bounds_model_matches_engine` in the monitor crate,
//! the dominance assertion in the dispatch benchmark). The sim bills
//! one FRAM op per `read_raw`/`write_raw` call. Every event commit is a
//! **sparse** record: `k` sub-writes cost `0` reads and `k+3` writes
//! (stage the whole record in one write, set the flag, apply each
//! sub-write from RAM, clear the flag).
//!
//! Per delivered event, using each key's static [`AccessSet`] and each
//! machine's packed [`crate::layout::MachineLayout`]:
//!
//! - **arming**: recovery-flag read + sequence read, then one 5-sub-
//!   write sparse commit (event, seq, verdict count, worklist, done
//!   bitmap) — 2 reads, 8 writes, `87 + 2·n + ⌈N/8⌉` record bytes for
//!   `n` armed out of `N` installed machines;
//! - **worklist setup**: count + bitmap + items + event reads — 4 reads
//!   (2 when the worklist is empty, as the items and event are never
//!   read);
//! - **per armed machine**, worst case (effectful step): one read of
//!   the covering slot span, then a sparse commit of the state word,
//!   every write-set slot and the done bitmap — 1 read, `|W| + 5`
//!   writes. Keys whose access set covers ≥ ¾ of the block degrade at
//!   compile time to loading and committing the whole block image as
//!   one sub-write — 1 read, 5 writes. An emitting machine adds the
//!   verdict-count read and the verdict cell and count sub-writes;
//! - **verdict readback**: count read + one read per possible emitter.
//!
//! The static bound dominates the dynamic cost because arming-time
//! `Path:` filtering only ever *shrinks* the worklist below the routing
//! index's interest list, effectless steps complete with a single
//! plain write instead of a commit, and a step's dynamic write set is
//! a subset of the static one. The model prices each sparse commit
//! slot-granular (state word + every write-set slot); the engine's
//! dirty-diff commits only ever stage fewer runs and fewer bytes:
//! changed bytes live inside the state word and write-set slots, at
//! most one run forms per field, and the gap-merge rule only fires
//! when the 6-byte header it saves covers the gap bytes it adds. The
//! figures are attained exactly when every byte of the state word and
//! of every written slot changes and the fields lie more than a header
//! apart (the monitor crate's exactness pins use such a suite).
//!
//! # Cache-aware bounds
//!
//! The compiled engine reads through a volatile shadow cache. Warm,
//! every read of a steady-state delivery — recovery flag, sequence,
//! armed worklist, event, machine spans, verdict log — is served from
//! RAM, and no commit re-reads the journal, so a warm delivery reads
//! **nothing**: it costs exactly [`EventCost::writes`].
//! [`EventCost::cold_extra_reads`] is the refill cost of the first
//! delivery after a reboot (flag + seq + one whole-block fill per armed
//! machine); [`EventCost::reads`] and [`EventCost::read_bytes`] price
//! every read the delivery performs as if nothing were shadowed — the
//! post-reboot ceiling the energy gate charges, which dominates any
//! cold delivery's read ops (a resumed one included). The batch path
//! splits the same way ([`BatchBounds::cold_extra_reads`]). Write
//! bounds hold warm and cold alike: the cache is write-through and
//! never changes what the engine commits.

use artemis_core::event::EventKind;
use artemis_spec::Diagnostic;

use crate::compile::{AccessSet, CompiledMachine, CompiledSuite};

/// Journal entry header bytes (`addr: u32` + `len: u16`).
const ENTRY_HEADER: usize = 6;
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

/// Engine cycle charges, mirroring `artemis-monitor`'s constants of the
/// same names (pinned against the engine by the monitor crate's
/// `bounds_model_matches_engine` energy tests).
pub const ROUTING_LOOKUP_CYCLES: u64 = 12;
/// Cycles per armed machine entered on the compiled dispatch path.
pub const COMPILED_DISPATCH_CYCLES: u64 = 10;
/// Cycles per dispatched transition evaluated.
pub const STEP_PER_TRANSITION_CYCLES: u64 = 12;

/// Journal payload bytes of one entry carrying `data` bytes. Sub-write
/// slots of a sparse record have the same header, plus the record's
/// leading `count: u16`.
const fn entry_bytes(data: usize) -> usize {
    ENTRY_HEADER + data
}

/// Journal bytes of a `u16` list entry with `n` items.
const fn u16_list_entry_bytes(n: usize) -> usize {
    entry_bytes(2 + 2 * n)
}

/// Bytes of the per-engine completion bitmap for `machines` installed
/// machines: one bit per worklist position.
fn done_bytes(machines: usize) -> usize {
    machines.div_ceil(8).max(1)
}

/// What one sparse journal commit costs, accumulated sub-write by
/// sub-write.
#[derive(Clone, Copy, Default)]
struct SparseCost {
    subs: usize,
    entries: usize,
    data: usize,
}

impl SparseCost {
    /// Adds one sub-write carrying `payload` bytes.
    fn with(mut self, payload: usize) -> Self {
        self.subs += 1;
        self.entries += entry_bytes(payload);
        self.data += payload;
        self
    }

    /// Adds the sub-writes one machine commit stages for its state: the
    /// whole block image when `whole`, else the state word plus every
    /// write-set slot of `access`.
    fn with_state(self, m: &CompiledMachine, access: &AccessSet, whole: bool) -> Self {
        let l = m.layout();
        if whole {
            return self.with(l.block_len);
        }
        access
            .writes
            .iter()
            .fold(self.with(l.state_bytes), |c, &s| {
                c.with(l.slots[s as usize].enc.width())
            })
    }

    /// FRAM write ops: stage, flag, one apply per sub-write, clear.
    fn writes(&self) -> usize {
        self.subs + 3
    }

    /// Journal payload bytes of the staged record.
    fn record(&self) -> usize {
        2 + self.entries
    }

    /// FRAM bytes written: the record, every payload, both flag flips.
    fn write_bytes(&self) -> usize {
        self.record() + self.data + 2 * FLAG_BYTES
    }
}

/// Bytes of the block prefix one step of `access` loads.
fn load_bytes(m: &CompiledMachine, access: &AccessSet) -> usize {
    if access.whole_block {
        m.layout().block_len
    } else {
        m.layout().span(access.max_touched_slot())
    }
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
    /// Worst-case FRAM read operations with every read priced as if
    /// nothing were shadowed: the post-reboot ceiling. A warm delivery
    /// reads nothing; a freshly armed cold one reads
    /// `cold_extra_reads`.
    pub reads: usize,
    /// Worst-case FRAM write operations, warm or cold (the shadow is
    /// write-through).
    pub writes: usize,
    /// Extra FRAM reads the first delivery after a reboot pays to
    /// refill the shadow: the recovery flag, the sequence number, and
    /// one whole-block fill per armed machine (one op each, like the
    /// span read [`EventCost::reads`] prices). Any post-reboot delivery
    /// — including resuming an event armed before the crash — reads at
    /// most [`EventCost::reads`] ops.
    pub cold_extra_reads: usize,
    /// Largest single journal commit, in payload bytes.
    pub commit_bytes: usize,
    /// Worst-case FRAM bytes read with every read priced, machine
    /// loads at their span (per-byte traffic priced on top of the
    /// per-op base by the sim's cost model). A cold fill reads whole
    /// blocks, so on span-loading keys it can exceed this figure.
    pub read_bytes: usize,
    /// Worst-case FRAM bytes written.
    pub write_bytes: usize,
    /// Worst-case engine CPU cycles charged for the delivery (routing
    /// lookup + per-machine dispatch + per-transition stepping).
    pub cycles: u64,
    /// FRAM write ops of the arming commit alone — a floor *every*
    /// delivered event pays before any machine steps, warm or cold (the
    /// cache is write-through and never absorbs writes).
    pub arming_writes: usize,
    /// FRAM bytes the arming commit alone writes.
    pub arming_write_bytes: usize,
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
    /// Bytes of the whole-suite reset commit (`resetMonitor` re-images
    /// every machine block in one entry-list transaction).
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
/// its routing index and dispatch tables.
pub fn suite_bounds(compiled: &CompiledSuite) -> SuiteBounds {
    let machines = compiled.machines();
    let task_count = compiled.task_count();
    let done_b = done_bytes(machines.len());

    let mut per_key = Vec::with_capacity(2 * (task_count + 1));
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

            // Arming: recovery flag + seq reads, then one 5-sub-write
            // sparse commit.
            let arming = SparseCost::default()
                .with(ENCODED_EVENT_BYTES)
                .with(U64_BYTES)
                .with(U32_BYTES)
                .with(2 + 2 * armed.len())
                .with(done_b);
            let mut reads = 2;
            let mut read_bytes = FLAG_BYTES + U64_BYTES;
            let mut writes = arming.writes();
            let mut write_bytes = arming.write_bytes();
            let mut commit = arming.record();
            // Worklist setup: count + bitmap, then items + event when
            // anything is armed.
            reads += if armed.is_empty() { 2 } else { 4 };
            read_bytes += 2 + done_b;
            if !armed.is_empty() {
                read_bytes += 2 * armed.len() + ENCODED_EVENT_BYTES;
            }
            let mut cycles = ROUTING_LOOKUP_CYCLES;

            let mut emitters = 0;
            let mut degraded_machines = 0;
            for &mi in armed {
                let m = &machines[mi as usize];
                let emits = m
                    .transition_list(kind, probe)
                    .iter()
                    .any(|&ti| m.transitions[ti as usize].emit.is_some());
                let access = m.access(kind, probe);
                // The engine bills the key's static step ceiling (the
                // cycle-priced worst path through its dispatched
                // transitions) — identical table, so the bound is exact.
                cycles += COMPILED_DISPATCH_CYCLES + m.step_cost(kind, probe).cycles;
                degraded_machines += usize::from(access.whole_block);

                // Span (or block) read, plus the verdict-count read of
                // an emitter; one sparse commit of the state, the
                // verdict cell and count, and the done bitmap.
                let mut step = SparseCost::default().with_state(m, access, access.whole_block);
                reads += 1;
                read_bytes += load_bytes(m, access);
                if emits {
                    emitters += 1;
                    reads += 1;
                    read_bytes += U32_BYTES;
                    step = step.with(VERDICT_BYTES).with(U32_BYTES);
                }
                step = step.with(done_b);
                writes += step.writes();
                write_bytes += step.write_bytes();
                commit = commit.max(step.record());
            }

            // Verdict readback: count + one cell per possible emitter.
            reads += 1 + emitters;
            read_bytes += U32_BYTES + VERDICT_BYTES * emitters;

            per_key.push(EventCost {
                kind,
                task,
                machines: armed.len(),
                emitters,
                delta_machines: armed.len() - degraded_machines,
                degraded_machines,
                reads,
                writes,
                // Recovery flag + seq + one whole-block fill per armed
                // machine (the fresh-arm cold path; resuming a
                // pre-crash event is bounded by `reads`).
                cold_extra_reads: 2 + armed.len(),
                commit_bytes: commit,
                read_bytes,
                write_bytes,
                cycles,
                arming_writes: arming.writes(),
                arming_write_bytes: arming.write_bytes(),
            });
        }
    }

    let reset_commit_bytes = machines
        .iter()
        .map(|m| entry_bytes(m.layout().block_len))
        .sum::<usize>()
        + entry_bytes(U32_BYTES) // verdict count
        + entry_bytes(U64_BYTES) // seq
        + u16_list_entry_bytes(0) // empty worklist
        + entry_bytes(done_b); // done bitmap

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

/// Worst-case cost of delivering one **batch** of up to `max_events`
/// events through the group-commit path (`BatchMode::Enabled`).
///
/// The model is deliberately conservative — it must dominate any
/// actual batch the engine can run:
///
/// - **arming**: recovery-flag + batch-seq reads, then one 5-sub-write
///   sparse commit (events region, batch seq, verdict count, merged
///   worklist, done bitmap). The events region entry carries a `u16`
///   count plus `max_events` encoded events; the merged worklist is
///   bounded by the whole suite.
/// - **batch setup**: worklist count + done bitmap + worklist items +
///   events count + events payload — 5 reads.
/// - **per machine** (all machines may be armed): the footprint is the
///   union of the machine's access sets over *every* dispatch key, and
///   a machine emits if *any* of its transitions emits. One covering
///   span read (whole block when any key degrades), a verdict-count
///   read for emitters, then a single sparse commit of: the state word
///   (or the whole block image) + every merged write slot + up to
///   `max_events` verdict cells + the count + the done bitmap.
/// - **verdict readback**: count read + up to `max_events` cells per
///   emitter.
///
/// Dominance over the engine's dynamic cost follows from the same
/// arguments as [`suite_bounds`], plus: the merged worklist is a subset
/// of all machines, a batch's dynamic merged access set unions access
/// sets of *delivered* keys only (⊆ union over all keys), and a machine
/// emits at most one verdict per event in the batch. A warm batch
/// reads nothing, exactly like a warm event.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BatchBounds {
    /// Batch capacity the bound was derived for.
    pub max_events: usize,
    /// Journal bytes of the batch arming commit.
    pub arming_commit_bytes: usize,
    /// Largest single journal commit the batch path can stage (arming
    /// or any machine's coalesced commit).
    pub worst_commit_bytes: usize,
    /// Journal bytes the batch cells add to the whole-suite reset
    /// commit (batch sequence, cleared events region, empty merged
    /// worklist, done bitmap) — add to
    /// [`SuiteBounds::reset_commit_bytes`] when sizing a journal for a
    /// batch-enabled engine.
    pub reset_extra_bytes: usize,
    /// Worst-case FRAM reads for one full batch with every read priced
    /// (the post-reboot ceiling; a warm batch reads nothing).
    pub reads: usize,
    /// Worst-case FRAM writes for one full batch.
    pub writes: usize,
    /// Extra FRAM reads the first batch after a reboot pays to refill
    /// the shadow: recovery flag + batch sequence + one whole-block
    /// fill per armed machine. A resumed (pre-crash) batch reads at
    /// most [`BatchBounds::reads`] ops.
    pub cold_extra_reads: usize,
    /// Worst-case FRAM bytes read for one full batch.
    pub read_bytes: usize,
    /// Worst-case FRAM bytes written for one full batch.
    pub write_bytes: usize,
    /// Worst-case engine CPU cycles for one full batch. Routing is
    /// charged twice per event (lookup at arming, again when the batch
    /// runs), then each machine pays dispatch + worst-key stepping per
    /// event.
    pub cycles: u64,
}

impl BatchBounds {
    /// Total FRAM operations (reads + writes) for one full batch.
    pub fn ops(&self) -> usize {
        self.reads + self.writes
    }

    /// Worst-case FRAM ops per event when the batch is full — the
    /// number the bench's measured per-event figure must stay under.
    pub fn ops_per_event_ceil(&self) -> usize {
        self.ops().div_ceil(self.max_events.max(1))
    }
}

/// Computes the batch-path resource bound for batches of up to
/// `max_events` events (see [`BatchBounds`]).
pub fn batch_bounds(compiled: &CompiledSuite, max_events: usize) -> BatchBounds {
    let machines = compiled.machines();
    let task_count = compiled.task_count();
    let done_b = done_bytes(machines.len());

    // Arming: flag + batch-seq reads, one 5-sub-write sparse commit.
    let arming = SparseCost::default()
        .with(2 + ENCODED_EVENT_BYTES * max_events)
        .with(U64_BYTES)
        .with(U32_BYTES)
        .with(2 + 2 * machines.len())
        .with(done_b);
    let mut reads = 2;
    let mut read_bytes = FLAG_BYTES + U64_BYTES;
    let mut writes = arming.writes();
    let mut write_bytes = arming.write_bytes();
    let mut commit = arming.record();
    // Routing is looked up per event at arming and again when the
    // batch runs.
    let mut cycles = 2 * ROUTING_LOOKUP_CYCLES * max_events as u64;

    // Batch setup: worklist count + done bitmap + items + events count
    // + events payload.
    reads += 5;
    read_bytes += 2 + done_b + 2 * machines.len() + 2 + ENCODED_EVENT_BYTES * max_events;

    let mut emitters = 0;
    for m in machines {
        // Merged footprint over every key the machine can see, plus
        // the worst per-event dispatch length for the cycle bound.
        let mut access = AccessSet::default();
        let mut emits = false;
        let mut worst_step_cycles = 0u64;
        for kind in [EventKind::StartTask, EventKind::EndTask] {
            for key_task in 0..=task_count {
                let probe = if key_task == task_count {
                    u32::MAX
                } else {
                    key_task as u32
                };
                access.union_with(m.access(kind, probe));
                worst_step_cycles = worst_step_cycles.max(m.step_cost(kind, probe).cycles);
                emits |= m
                    .transition_list(kind, probe)
                    .iter()
                    .any(|&ti| m.transitions[ti as usize].emit.is_some());
            }
        }
        // Worst static step ceiling over every key the machine can see
        // — the engine bills the actual key's ceiling per event, so
        // the batch bound stays sound for any event mix.
        cycles += max_events as u64 * (COMPILED_DISPATCH_CYCLES + worst_step_cycles);

        // Span (or block) read + verdict-count read for emitters.
        reads += 1 + usize::from(emits);
        read_bytes += load_bytes(m, &access) + if emits { U32_BYTES } else { 0 };

        emitters += usize::from(emits);
        // Up to one verdict cell per event plus the count, then the
        // done bitmap.
        let finish = |c: SparseCost| {
            let c = if emits {
                (0..max_events)
                    .fold(c, |c, _| c.with(VERDICT_BYTES))
                    .with(U32_BYTES)
            } else {
                c
            };
            c.with(done_b)
        };
        // The engine commits in the format its *dynamic* merged set
        // picks, which can be the slot list even when the static union
        // degraded: the commit-byte bound covers both formats, the
        // traffic bound follows the static one.
        let sparse = finish(SparseCost::default().with_state(m, &access, false));
        let whole = finish(SparseCost::default().with_state(m, &access, true));
        let used = if access.whole_block { whole } else { sparse };
        writes += used.writes();
        write_bytes += used.write_bytes();
        commit = commit.max(sparse.record()).max(whole.record());
    }

    // Verdict readback: count + up to `max_events` cells per emitter.
    reads += 1 + emitters * max_events;
    read_bytes += U32_BYTES + VERDICT_BYTES * emitters * max_events;

    // Reset surcharge: batch seq + cleared events count (a 2-byte raw
    // image) + empty merged worklist + done bitmap.
    let reset_extra_bytes =
        entry_bytes(U64_BYTES) + entry_bytes(2) + u16_list_entry_bytes(0) + entry_bytes(done_b);

    BatchBounds {
        max_events,
        arming_commit_bytes: arming.record(),
        worst_commit_bytes: commit,
        reset_extra_bytes,
        reads,
        writes,
        cold_extra_reads: 2 + machines.len(),
        read_bytes,
        write_bytes,
        cycles,
    }
}

/// Cross-checks the suite's static bounds against a journal capacity.
/// With `journal_capacity: None` the check degenerates to computing the
/// bounds (no findings).
pub fn check_bounds(compiled: &CompiledSuite, journal_capacity: Option<usize>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let Some(capacity) = journal_capacity else {
        return diags;
    };
    let b = suite_bounds(compiled);
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
        let b = suite_bounds(&cs);

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
        // An armed emitting machine costs more than an un-armed key.
        let wild = key(EventKind::StartTask, None);
        assert_eq!(wild.machines, 0);
        assert!(start_a.ops() > wild.ops());
        // Sparse arming (2) + worklist (4) + block and verdict-count
        // loads (2) + readback (1 + 1).
        assert_eq!(start_a.reads, 2 + 4 + 2 + 1 + 1);
        // Sparse arming (8) + one sparse commit of block, verdict cell,
        // count and done bitmap (4 + 3).
        assert_eq!(start_a.writes, 8 + 7);
        assert_eq!(start_a.cold_extra_reads, 2 + 1);
        // Byte pins for the degraded emitting key (2-machine suite, so
        // a 1-byte done bitmap).
        let block = cs.machines()[0].layout().block_len;
        assert_eq!(
            start_a.read_bytes,
            // arming flag+seq, worklist setup, block load, verdict
            // count, readback count + one cell.
            (FLAG_BYTES + U64_BYTES)
                + (2 + 1 + 2 + ENCODED_EVENT_BYTES)
                + block
                + U32_BYTES
                + (U32_BYTES + VERDICT_BYTES)
        );
        let step_entries = entry_bytes(block)
            + entry_bytes(VERDICT_BYTES)
            + entry_bytes(U32_BYTES)
            + entry_bytes(1);
        let step_data = block + VERDICT_BYTES + U32_BYTES + 1;
        assert_eq!(
            start_a.write_bytes,
            start_a.arming_write_bytes + (2 + step_entries) + step_data + 2
        );
        assert_eq!(start_a.arming_writes, 8);
        // One armed machine billing its key's static step ceiling.
        // The maxTries lowering dispatches 3 transitions on its task's
        // start key; optimized (fused guards), the cycle-priced worst
        // path plus the 3 scan tests pins at 20 — tighter than the old
        // 12-cycles-per-transition flat rate.
        let sc = cs.machines()[0].step_cost(EventKind::StartTask, 0);
        assert_eq!(sc.cycles, 20);
        assert!(sc.cycles < 3 * STEP_PER_TRANSITION_CYCLES);
        assert_eq!(
            start_a.cycles,
            ROUTING_LOOKUP_CYCLES + COMPILED_DISPATCH_CYCLES + sc.cycles
        );
        // An un-armed key still pays the routing lookup and arming
        // commit, nothing else.
        assert_eq!(wild.cycles, ROUTING_LOOKUP_CYCLES);
        assert_eq!(wild.write_bytes, wild.arming_write_bytes);
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
        let b = suite_bounds(&cs);

        let start_a = b
            .per_key
            .iter()
            .find(|c| c.kind == EventKind::StartTask && c.task == Some(0))
            .unwrap();
        assert_eq!(start_a.delta_machines, 1);
        assert_eq!(start_a.degraded_machines, 0);
        // Arming flag+seq (2) + worklist (4) + span load (1) +
        // readback (1).
        assert_eq!(start_a.reads, 2 + 4 + 1 + 1);
        // Sparse arming (8) + sparse step of state+slot+done (6).
        assert_eq!(start_a.writes, 8 + 6);
        assert_eq!(start_a.cold_extra_reads, 2 + 1);

        // v0's unguarded increment widens it to a full 8-byte slot, but
        // state (1 state), done (1 machine) and the eleven untouched
        // 1-byte counters all pack: span = 1 (state) + 8 (v0).
        let m = &cs.machines()[0];
        assert_eq!(m.layout().state_bytes, 1);
        assert_eq!(m.layout().span(Some(0)), 1 + 8);
        assert_eq!(m.layout().block_len, 1 + 8 + 11);
        assert_eq!(
            start_a.read_bytes,
            (FLAG_BYTES + U64_BYTES)
                + (2 + 1 + 2 + ENCODED_EVENT_BYTES) // 1-byte done bitmap
                + (1 + 8)
                + U32_BYTES
        );
        let delta_entries = entry_bytes(1) + entry_bytes(8) + entry_bytes(1);
        let delta_data = 1 + 8 + 1;
        assert_eq!(
            start_a.write_bytes,
            start_a.arming_write_bytes + (2 + delta_entries) + delta_data + 2
        );
        assert_eq!(
            start_a.cycles,
            ROUTING_LOOKUP_CYCLES + COMPILED_DISPATCH_CYCLES + STEP_PER_TRANSITION_CYCLES
        );
        // The largest commit is the arming record (a 1-entry worklist).
        assert_eq!(
            start_a.commit_bytes,
            2 + entry_bytes(ENCODED_EVENT_BYTES)
                + entry_bytes(U64_BYTES)
                + entry_bytes(U32_BYTES)
                + u16_list_entry_bytes(1)
                + entry_bytes(1)
        );
    }

    #[test]
    fn batch_bounds_amortise_arming_and_grow_with_capacity() {
        let app = app();
        let suite = crate::compile(
            "a { maxTries: 2 onFail: skipPath; }\n\
             b { maxTries: 2 onFail: skipTask; }",
            &app,
        )
        .unwrap();
        let cs = CompiledSuite::compile(&suite, &app).unwrap();
        let b1 = batch_bounds(&cs, 1);
        let b4 = batch_bounds(&cs, 4);
        // Arming once for four events amortises: a full batch costs
        // far less than four batches of one, so per-event ops shrink.
        assert!(b4.ops() < 4 * b1.ops());
        assert!(b4.ops_per_event_ceil() < b1.ops());
        // Bigger batches stage bigger arming records and commits.
        assert!(b4.arming_commit_bytes > b1.arming_commit_bytes);
        assert!(b4.worst_commit_bytes >= b1.worst_commit_bytes);
        assert!(b4.worst_commit_bytes >= b4.arming_commit_bytes);
        // Cold refill scales with the suite.
        assert_eq!(b4.cold_extra_reads, 2 + 2);
        // Bytes and cycles grow with capacity; routing + dispatch are
        // charged per event, so the cycle bound scales exactly linearly.
        assert!(b4.read_bytes > b1.read_bytes);
        assert!(b4.write_bytes > b1.write_bytes);
        assert_eq!(b4.cycles, 4 * b1.cycles);
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
        assert!(check_bounds(&cs, None).is_empty());
        assert!(check_bounds(&cs, Some(1 << 20)).is_empty());
        let diags = check_bounds(&cs, Some(16));
        assert!(
            diags.iter().any(|d| d.is_error() && d.pass == "bounds"),
            "{diags:?}"
        );
    }
}
