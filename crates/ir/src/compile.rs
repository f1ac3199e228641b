//! Ahead-of-time compilation of monitors to slot-indexed bytecode.
//!
//! The reference interpreter ([`crate::exec`]) resolves names on every
//! event: variable references are looked up by string, trigger patterns
//! compare task *names*, and expression trees are walked with one heap
//! allocation per variable snapshot. All of that is static — a monitor
//! suite never changes after installation — so this module moves it to
//! install time (the paper's model-to-text step, specialised for the
//! simulator instead of C):
//!
//! - variable names are interned to dense **slot indices**;
//! - `TaskPat::Named` patterns are resolved to dense task ids against
//!   the application graph, and transitions are flattened into
//!   per-event-kind, per-task **dispatch tables** (`task id →
//!   [transition index]`), so delivering an event costs one table
//!   lookup instead of a scan with string compares;
//! - guard and body expression trees are lowered to a flat
//!   register-style **bytecode** ([`Op`]) evaluated over a caller-owned
//!   scratch register file — zero heap allocation per event.
//!
//! [`CompiledMachine::step`] mirrors [`crate::exec::step`] exactly —
//! first-match transition selection, implicit self-transition,
//! short-circuit `&&`/`||`, saturating arithmetic, assignment coercion,
//! and the same error surfacing order — which the differential property
//! tests in `artemis-monitor` pin down.

use core::ops::Range;
use std::borrow::Cow;
use std::sync::OnceLock;

use artemis_core::app::{AppGraph, TaskCostDecl};
use artemis_core::event::EventKind;
use artemis_spec::Diagnostic;
use intermittent_sim::{EnergyProfile, OpCycles};

use crate::analysis::InstallFacts;
use crate::exec::coerce;
use crate::expr::{apply, BinOp, EvalError, EventCtx, Expr, Value};
use crate::fsm::{EmitFail, MonitorSuite, StateMachine, Stmt, TaskPat, Transition, Trigger};
use crate::layout::MachineLayout;

/// One bytecode instruction. Operands name registers in the scratch
/// file (`r`), slots in the machine's variable block (`slot`), entries
/// in the literal pool (`lit`), or absolute instruction targets.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Op {
    /// `r[dst] = lits[lit]`
    Const { dst: u16, lit: u16 },
    /// `r[dst] = vars[slot]`
    LoadVar { dst: u16, slot: u16 },
    /// `r[dst] = Time(ctx.time_us)`
    LoadEventTime { dst: u16 },
    /// `r[dst] = Float(ctx.dep_data)`; errors with `NoDepData`.
    LoadDepData { dst: u16 },
    /// `r[dst] = Int(ctx.energy_nj)` (saturating).
    LoadEnergy { dst: u16 },
    /// `r[dst] = r[a] op r[b]` (non-short-circuit operators).
    Bin { op: BinOp, dst: u16, a: u16, b: u16 },
    /// `r[dst] = !r[src]`; errors unless `r[src]` is a bool.
    Not { dst: u16, src: u16 },
    /// Errors unless `r[src]` is a bool (tail check of `&&`/`||`).
    AssertBool { src: u16 },
    /// `pc = target` if `r[src]` is `false`; errors on non-bool.
    JumpIfFalse { src: u16, target: u32 },
    /// `pc = target` if `r[src]` is `true`; errors on non-bool.
    JumpIfTrue { src: u16, target: u32 },
    /// `pc = target`.
    Jump { target: u32 },
    /// `vars[slot] = coerce(r[src], vars[slot])`.
    StoreVar { slot: u16, src: u16 },
    /// Fused compare + conditional branch (optimizer-emitted):
    /// `r[dst] = r[a] op r[b]`, then `pc = target` when the result,
    /// read as a bool, equals `when`. Errors on a non-bool result, so
    /// past this instruction `r[dst]` is provably `Bool` on every
    /// surviving path. The optimizer only emits comparison operators
    /// here; the polarity flag (instead of operator negation) keeps
    /// float comparisons NaN-exact.
    CmpBranch {
        /// Comparison operator.
        op: BinOp,
        /// Result register (register 0 for guard tails).
        dst: u16,
        /// Left operand register.
        a: u16,
        /// Right operand register.
        b: u16,
        /// Branch target when the result equals `when`.
        target: u32,
        /// Branch polarity.
        when: bool,
    },
    /// Fused slot load + literal compare + conditional branch — the
    /// dominant guard shape `var cmp lit` (optimizer-emitted):
    /// `r[dst] = vars[slot] op lits[lit]`, then `pc = target` when the
    /// result equals `when`. Same error/typing contract as
    /// [`Op::CmpBranch`]. Unconditional guard tails use a fall-through
    /// `target` (the next instruction), making both paths identical.
    LoadCmpBranch {
        /// Comparison operator (slot value on the left).
        op: BinOp,
        /// Result register (register 0 for guard tails).
        dst: u16,
        /// Slot providing the left operand.
        slot: u16,
        /// Literal providing the right operand.
        lit: u16,
        /// Branch target when the result equals `when`.
        target: u32,
        /// Branch polarity.
        when: bool,
    },
    /// Fused literal store (optimizer-emitted):
    /// `vars[slot] = coerce(lits[lit], vars[slot])` — same coercion
    /// (and `TypeMismatch` surface) as `Const` + `StoreVar`.
    ConstStore {
        /// Destination slot.
        slot: u16,
        /// Literal pool entry stored.
        lit: u16,
    },
}

impl Op {
    /// The instruction's branch target, if it has one.
    pub(crate) fn target(&self) -> Option<u32> {
        match *self {
            Op::Jump { target }
            | Op::JumpIfFalse { target, .. }
            | Op::JumpIfTrue { target, .. }
            | Op::CmpBranch { target, .. }
            | Op::LoadCmpBranch { target, .. } => Some(target),
            _ => None,
        }
    }

    /// Mutable access to the instruction's branch target.
    pub(crate) fn target_mut(&mut self) -> Option<&mut u32> {
        match self {
            Op::Jump { target }
            | Op::JumpIfFalse { target, .. }
            | Op::JumpIfTrue { target, .. }
            | Op::CmpBranch { target, .. }
            | Op::LoadCmpBranch { target, .. } => Some(target),
            _ => None,
        }
    }

    /// `(reads, write)`: the scratch registers the instruction reads
    /// and the one it writes.
    pub(crate) fn regs(&self) -> ([Option<u16>; 2], Option<u16>) {
        match *self {
            Op::Const { dst, .. }
            | Op::LoadVar { dst, .. }
            | Op::LoadEventTime { dst }
            | Op::LoadDepData { dst }
            | Op::LoadEnergy { dst }
            | Op::LoadCmpBranch { dst, .. } => ([None, None], Some(dst)),
            Op::Bin { dst, a, b, .. } | Op::CmpBranch { dst, a, b, .. } => {
                ([Some(a), Some(b)], Some(dst))
            }
            Op::Not { dst, src } => ([Some(src), None], Some(dst)),
            Op::AssertBool { src }
            | Op::JumpIfFalse { src, .. }
            | Op::JumpIfTrue { src, .. }
            | Op::StoreVar { src, .. } => ([Some(src), None], None),
            Op::Jump { .. } | Op::ConstStore { .. } => ([None, None], None),
        }
    }

    /// One past the highest register the instruction names (0 when it
    /// names none): the scratch file it needs.
    pub(crate) fn reg_span(&self) -> usize {
        let top = match *self {
            Op::Const { dst, .. }
            | Op::LoadVar { dst, .. }
            | Op::LoadEventTime { dst }
            | Op::LoadDepData { dst }
            | Op::LoadEnergy { dst }
            | Op::LoadCmpBranch { dst, .. } => dst,
            Op::Bin { dst, a, b, .. } | Op::CmpBranch { dst, a, b, .. } => dst.max(a).max(b),
            Op::Not { dst, src } => dst.max(src),
            Op::AssertBool { src }
            | Op::JumpIfFalse { src, .. }
            | Op::JumpIfTrue { src, .. }
            | Op::StoreVar { src, .. } => src,
            Op::Jump { .. } | Op::ConstStore { .. } => return 0,
        };
        top as usize + 1
    }
}

/// A transition after compilation: resolved state indices, bytecode
/// ranges for guard and body, and the original failure signal.
///
/// Public so the static analyser ([`crate::analysis`]) and its mutation
/// fuzzers can inspect and perturb compiled programs; the engine itself
/// only ever executes transitions through [`CompiledMachine::step`].
#[derive(Clone, PartialEq, Debug)]
pub struct CompiledTransition {
    /// Source state index.
    pub from: u32,
    /// Destination state index.
    pub to: u32,
    /// Guard instructions; result lands in register 0. `None` means
    /// unconditionally enabled.
    pub guard: Option<Range<u32>>,
    /// Body instructions.
    pub body: Range<u32>,
    /// Failure signal raised when the transition is taken.
    pub emit: Option<EmitFail>,
}

/// One event as the compiled evaluator sees it: kind + dense task id +
/// evaluation context. The name-free counterpart of
/// [`crate::exec::IrEvent`].
#[derive(Clone, Copy, Debug)]
pub struct CompiledEvent {
    /// Start or end.
    pub kind: EventKind,
    /// Dense task id (index into the application graph).
    pub task: u32,
    /// Evaluation context (timestamp, depData, energy).
    pub ctx: EventCtx,
}

pub(crate) fn kind_index(kind: EventKind) -> usize {
    match kind {
        EventKind::StartTask => 0,
        EventKind::EndTask => 1,
    }
}

/// Fraction of a machine's variable block a dispatch key may touch
/// before its commits degrade to whole-block: `touched / var_count >=`
/// [`DEGRADE_NUM`]`/`[`DEGRADE_DEN`] (the "~¾ of the block" heuristic —
/// at that density a sparse record's per-sub-write headers outweigh the
/// bytes it skips).
pub const DEGRADE_NUM: usize = 3;
/// See [`DEGRADE_NUM`].
pub const DEGRADE_DEN: usize = 4;

/// The statically-derived FRAM access footprint of one `(event kind,
/// task)` dispatch key: every variable slot any routed transition's
/// guard or body may read or write. A sound over-approximation — the
/// union over all transitions in the key's dispatch list, whether or
/// not they fire at run time.
///
/// The engine uses this to load only the covering slot span and to
/// journal a sparse `(slot, value)` delta instead of the whole block;
/// [`AccessSet::whole_block`] is the compile-time auto-degrade decision
/// for keys that touch most of the block anyway.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AccessSet<'a> {
    /// Slots a guard or body may read, sorted ascending.
    pub reads: &'a [u16],
    /// Slots a body may write, sorted ascending.
    pub writes: &'a [u16],
    /// `true` when this key should use whole-block load/commit: it
    /// touches at least ¾ of the block (or the block is state-only).
    pub whole_block: bool,
}

impl AccessSet<'_> {
    /// Highest slot index the key can read **or** write — the engine
    /// loads the block prefix covering `0..=max` (the write-back of
    /// untouched write slots requires the read span to cover the write
    /// span, which holds by construction).
    pub fn max_touched_slot(&self) -> Option<u16> {
        self.reads.last().max(self.writes.last()).copied()
    }
}

/// What one engine step of an `(event kind, task)` dispatch key reads
/// of the machine, fetched in one lookup
/// ([`CompiledMachine::step_key`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StepKey<'a> {
    /// [`CompiledMachine::dispatch_len`].
    pub dispatch_len: usize,
    /// [`CompiledMachine::step_cost`].
    pub cost: StepCost,
    /// [`CompiledMachine::access`].
    pub access: AccessSet<'a>,
}

/// The statically-derived worst-case compute cost of delivering one
/// event to one `(event kind, task)` dispatch key: a CPU-cycle ceiling
/// (priced through [`OpCycles`], including the per-transition dispatch
/// scan) and an executed-bytecode-instruction ceiling (fused
/// superinstructions count as one). Sound for verified machines — the
/// maximum over every reachable stop point of the first-match scan in
/// [`CompiledMachine::step`], with each guard/body range priced by its
/// longest path through the forward-jump DAG.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StepCost {
    /// Worst-case CPU cycles one `step` of this key can execute.
    pub cycles: u64,
    /// Worst-case bytecode instructions one `step` can execute.
    pub instructions: u64,
}

impl StepCost {
    /// Component-wise saturating sum.
    fn plus(self, o: StepCost) -> StepCost {
        StepCost {
            cycles: self.cycles.saturating_add(o.cycles),
            instructions: self.instructions.saturating_add(o.instructions),
        }
    }

    /// Component-wise maximum.
    fn max_each(self, o: StepCost) -> StepCost {
        StepCost {
            cycles: self.cycles.max(o.cycles),
            instructions: self.instructions.max(o.instructions),
        }
    }
}

/// Cycle price of one instruction under `c`.
fn op_price(op: &Op, c: &OpCycles) -> u64 {
    match op {
        Op::Const { .. } | Op::LoadEventTime { .. } | Op::LoadEnergy { .. } => c.load_imm,
        Op::LoadVar { .. } | Op::LoadDepData { .. } => c.load_slot,
        Op::Bin { .. } | Op::Not { .. } | Op::AssertBool { .. } => c.alu,
        Op::Jump { .. } | Op::JumpIfFalse { .. } | Op::JumpIfTrue { .. } => c.branch,
        Op::StoreVar { .. } => c.store_slot,
        Op::CmpBranch { .. } => c.cmp_branch,
        Op::LoadCmpBranch { .. } => c.load_cmp_branch,
        Op::ConstStore { .. } => c.const_store,
    }
}

/// Worst-path cost of one instruction range: a longest-path DP over
/// the forward-jump DAG (exact for straight-line code, the maximising
/// branch side otherwise), in the reusable buffer `dp`. Backward or
/// out-of-range targets — which the verifier rejects, so they never
/// reach the engine — degrade to the sum of every instruction in the
/// range.
fn range_cost(
    code: &[Op],
    range: &Range<u32>,
    prices: &OpCycles,
    dp: &mut Vec<StepCost>,
) -> StepCost {
    let start = range.start as usize;
    let end = (range.end as usize).min(code.len());
    if start >= end {
        return StepCost::default();
    }
    let n = end - start;
    dp.clear();
    dp.resize(n + 1, StepCost::default());
    for i in (0..n).rev() {
        let op = &code[start + i];
        // Local successor of a branch target; `None` marks a target the
        // verifier would reject (backward or outside the range).
        let local = |t: u32| {
            let t = t as usize;
            (t > start + i && t <= end).then(|| t - start)
        };
        let succs = match (op, op.target()) {
            (Op::Jump { .. }, Some(t)) => local(t).map(|t| (t, None)),
            (_, Some(t)) => local(t).map(|t| (i + 1, Some(t))),
            (_, None) => Some((i + 1, None)),
        };
        let Some((s0, s1)) = succs else {
            return sum_cost(&code[start..end], prices);
        };
        let next = s1.map_or(dp[s0], |s| dp[s0].max_each(dp[s]));
        dp[i] = StepCost {
            cycles: op_price(op, prices),
            instructions: 1,
        }
        .plus(next);
    }
    dp[0]
}

/// Conservative fallback for ranges the DP cannot order: every
/// instruction priced once.
fn sum_cost(ops: &[Op], prices: &OpCycles) -> StepCost {
    StepCost {
        cycles: ops.iter().map(|op| op_price(op, prices)).sum(),
        instructions: ops.len() as u64,
    }
}

/// What every dispatch key's derived data is folded from: the slots
/// each transition's guard or body may read or write (bitsets) and the
/// worst-path cost of its guard and body. Computed once per transition,
/// however many keys dispatch it, into buffers one derivation call
/// reuses across machines.
#[derive(Default)]
struct TransitionFacts {
    /// `u64` words per slot bitset.
    words: usize,
    /// Read bitsets, `words` per transition.
    reads: Vec<u64>,
    /// Write bitsets, `words` per transition.
    writes: Vec<u64>,
    /// `(guard, body)` worst-path cost per transition.
    costs: Vec<(StepCost, StepCost)>,
    /// [`range_cost`]'s table.
    dp: Vec<StepCost>,
    /// One key's read and write bitsets.
    acc: Vec<u64>,
}

impl TransitionFacts {
    /// Scans every transition's ranges once. Tolerates raw machines
    /// with out-of-range indices (such ranges read as empty, such slots
    /// are skipped): derived data is only trusted for machines the
    /// analyser accepts.
    fn derive(
        &mut self,
        code: &[Op],
        transitions: &[CompiledTransition],
        var_count: usize,
        prices: &OpCycles,
    ) {
        let words = var_count.div_ceil(64);
        self.words = words;
        let TransitionFacts {
            reads,
            writes,
            costs,
            dp,
            ..
        } = self;
        for bits in [&mut *reads, &mut *writes] {
            bits.clear();
            bits.resize(transitions.len() * words, 0);
        }
        costs.clear();
        for (ti, t) in transitions.iter().enumerate() {
            for range in t.guard.iter().chain([&t.body]) {
                let ops = code
                    .get(range.start as usize..range.end as usize)
                    .unwrap_or(&[]);
                for op in ops {
                    let (bits, slot) = match *op {
                        Op::LoadVar { slot, .. } | Op::LoadCmpBranch { slot, .. } => {
                            (&mut *reads, slot as usize)
                        }
                        Op::StoreVar { slot, .. } | Op::ConstStore { slot, .. } => {
                            (&mut *writes, slot as usize)
                        }
                        _ => continue,
                    };
                    if slot < var_count {
                        bits[ti * words + slot / 64] |= 1u64 << (slot % 64);
                    }
                }
            }
            let guard = t
                .guard
                .as_ref()
                .map_or(StepCost::default(), |g| range_cost(code, g, prices, dp));
            costs.push((guard, range_cost(code, &t.body, prices, dp)));
        }
    }

    /// The access set of one dispatch list: the union of its
    /// transitions' bitsets. Appends the read slots and then the write
    /// slots to `pool`; returns their counts and the whole-block flag.
    fn access(&mut self, list: &[u16], var_count: usize, pool: &mut Vec<u16>) -> (u32, u32, bool) {
        let w = self.words;
        self.acc.clear();
        self.acc.resize(2 * w, 0);
        let (reads, writes) = self.acc.split_at_mut(w);
        for &ti in list {
            let ti = ti as usize;
            if ti < self.costs.len() {
                let row = ti * w..(ti + 1) * w;
                for (a, b) in reads.iter_mut().zip(&self.reads[row.clone()]) {
                    *a |= b;
                }
                for (a, b) in writes.iter_mut().zip(&self.writes[row]) {
                    *a |= b;
                }
            }
        }
        let touched: usize = reads
            .iter()
            .zip(writes.iter())
            .map(|(r, w)| (r | w).count_ones() as usize)
            .sum();
        (
            push_slots(reads, pool),
            push_slots(writes, pool),
            var_count == 0 || touched * DEGRADE_DEN >= var_count * DEGRADE_NUM,
        )
    }

    /// Worst-case cost of one `step` over `list`: the dispatch scan
    /// price for every listed transition, plus — maximised over every
    /// state the listed transitions fire from — the worst stop point of
    /// the first-match scan (guards of every earlier same-state
    /// transition, then either a taken transition's body or no match at
    /// all).
    fn step_cost(&self, transitions: &[CompiledTransition], list: &[u16], scan: u64) -> StepCost {
        let from = |ti: u16| transitions.get(ti as usize).map(|t| t.from);
        let mut best = StepCost::default();
        for (j, &tj) in list.iter().enumerate() {
            let Some(s) = from(tj) else {
                continue;
            };
            // Each source state once, at its first listed transition.
            if list[..j].iter().any(|&e| from(e) == Some(s)) {
                continue;
            }
            let (mut run, mut worst) = (StepCost::default(), StepCost::default());
            for &ti in &list[j..] {
                if from(ti) != Some(s) {
                    continue;
                }
                let (guard, body) = self.costs[ti as usize];
                run = run.plus(guard);
                worst = worst.max_each(run.plus(body));
            }
            // No transition matched: every same-state guard still ran.
            best = best.max_each(worst.max_each(run));
        }
        StepCost {
            cycles: best
                .cycles
                .saturating_add(scan.saturating_mul(list.len() as u64)),
            instructions: best.instructions,
        }
    }
}

/// Appends the set bits of a slot bitset to `pool`, ascending; returns
/// how many.
fn push_slots(bits: &[u64], pool: &mut Vec<u16>) -> u32 {
    let before = pool.len();
    for (k, &word) in bits.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            pool.push((k * 64 + w.trailing_zeros() as usize) as u16);
            w &= w - 1;
        }
    }
    (pool.len() - before) as u32
}

/// One dispatch key: its transition list, read slots and write slots,
/// as three consecutive runs of the machine's pool, and its step cost.
/// A key with an empty list (an unrouted key) has no slots, zero cost,
/// and is whole-block only for a state-only machine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct KeyFacts {
    /// Where the key's runs start in the pool.
    at: u32,
    /// Number of transitions in the dispatch list, in priority order.
    list: u32,
    /// Number of read slots.
    reads: u32,
    /// Number of write slots.
    writes: u32,
    /// [`AccessSet::whole_block`].
    whole_block: bool,
    /// The key's static compute ceiling.
    cost: StepCost,
}

/// Buffers one compile call reuses across the machines it handles:
/// codegen's instruction and literal streams and per-key dispatch
/// lists, the optimizer's, and the derivation's. They die with the
/// call; only exact-size copies reach the compiled machines.
#[derive(Default)]
pub(crate) struct Scratch {
    code: Vec<Op>,
    lits: Vec<Value>,
    /// One dispatch list per key, in [`CompiledMachine`]'s key order.
    lists: Vec<Vec<u16>>,
    opt: crate::opt::Scratch,
    derive: DeriveScratch,
}

/// The derivation's buffers: the per-transition facts, the key pool
/// and the interval analysis.
#[derive(Default)]
struct DeriveScratch {
    facts: TransitionFacts,
    pool: Vec<u16>,
    bounds: crate::layout::BoundsScratch,
}

/// One monitor compiled to bytecode plus dispatch tables.
#[derive(Clone, Debug)]
pub struct CompiledMachine {
    /// Flat instruction stream shared by all guards and bodies.
    pub(crate) code: Vec<Op>,
    /// Literal pool.
    pub(crate) lits: Vec<Value>,
    pub(crate) transitions: Vec<CompiledTransition>,
    /// Scratch registers [`CompiledMachine::step`] needs.
    pub(crate) max_regs: usize,
    pub(crate) initial_state: u32,
    pub(crate) var_count: usize,
    /// Initial variable values, in slot order. Pins each slot's
    /// runtime type (assignment coercion never changes a slot's
    /// variant) — the packed layout's type source of truth.
    pub(crate) var_inits: Vec<Value>,
    /// Packed FRAM block layout. Derived from `code` + `var_inits`
    /// (never serialised in [`RawMachine`]) like the access sets.
    pub(crate) layout: MachineLayout,
    /// Every dispatch key: the `startTask` keys by task id, then the
    /// `endTask` keys, then the two per-kind wildcard keys, whose lists
    /// (wildcard-matching transitions only) serve task ids beyond the
    /// graph. Each key's transition list is the indices of the
    /// transitions whose trigger can match its events, in priority
    /// order; its access set and step cost are derived from `code`
    /// (never serialised in [`RawMachine`]), so mutation can't make
    /// them lie.
    keys: Vec<KeyFacts>,
    /// Number of `startTask` keys.
    start_keys: u32,
    /// The keys' runs: each key's transition list, read slots and
    /// write slots.
    pool: Vec<u16>,
}

/// The exploded parts of a [`CompiledMachine`].
///
/// This is the escape hatch the verifier's mutation fuzzers use to
/// construct programs the compiler would never emit.
/// [`CompiledMachine::from_raw`] performs **no checking**: executing an
/// unverified raw machine can index out of bounds or loop forever. Gate
/// anything assembled this way through
/// [`crate::analysis::verify_machine`] first — that implication
/// ("verifier accepts ⇒ execution is safe") is exactly what the fuzzers
/// pin down.
#[derive(Clone, Debug)]
pub struct RawMachine {
    /// Flat instruction stream.
    pub code: Vec<Op>,
    /// Literal pool.
    pub lits: Vec<Value>,
    /// Compiled transitions referencing `code` ranges.
    pub transitions: Vec<CompiledTransition>,
    /// Per-kind, per-task transition dispatch lists.
    pub dispatch: [Vec<Vec<u16>>; 2],
    /// Per-kind wildcard transition lists.
    pub wildcard: [Vec<u16>; 2],
    /// Scratch register file size `step` will be given.
    pub max_regs: usize,
    /// Initial state index.
    pub initial_state: u32,
    /// Number of variable slots.
    pub var_count: usize,
    /// Initial variable values, in slot order. Padded/truncated to
    /// `var_count` on reassembly.
    pub var_inits: Vec<Value>,
}

impl CompiledMachine {
    /// Compiles one machine against the application graph at the
    /// default optimization level ([`OptLevel::Full`](crate::opt::OptLevel::Full)).
    pub fn compile(machine: &StateMachine, app: &AppGraph) -> Result<Self, Diagnostic> {
        Self::compile_with(machine, app, crate::opt::OptLevel::default())
    }

    /// Compiles one machine at an explicit optimization level.
    /// [`OptLevel::None`](crate::opt::OptLevel::None) ships the
    /// straight-from-lowering bytecode and serves as the differential
    /// oracle for the optimizer, exactly as `artemis_monitor::Reference`
    /// does for the compiler.
    ///
    /// Codegen yields raw parts, the optimizer rewrites them in place,
    /// and [`CompiledMachine::from_raw`] derives the access sets,
    /// packed layout and step costs once, from the final code.
    pub fn compile_with(
        machine: &StateMachine,
        app: &AppGraph,
        opt: crate::opt::OptLevel,
    ) -> Result<Self, Diagnostic> {
        Self::compile_in(machine, app, opt, &mut Scratch::default())
    }

    /// [`CompiledMachine::compile_with`] in `s`, which a suite compile
    /// reuses across its machines. Codegen emits into the scratch
    /// streams; the machine gets the optimizer's output (or a copy, at
    /// [`OptLevel::None`](crate::opt::OptLevel::None)).
    fn compile_in(
        machine: &StateMachine,
        app: &AppGraph,
        opt: crate::opt::OptLevel,
        s: &mut Scratch,
    ) -> Result<Self, Diagnostic> {
        let mut raw = Compiler::new(machine, app, &mut s.code, &mut s.lits, &mut s.lists).run()?;
        raw.code = match opt {
            crate::opt::OptLevel::None => None,
            crate::opt::OptLevel::Full => crate::opt::sweep(
                &s.code,
                &mut raw.transitions,
                &raw.lits,
                &mut raw.max_regs,
                &mut s.opt,
            ),
        }
        .unwrap_or_else(|| s.code.clone());
        let lists = s.lists.iter().map(Vec::as_slice);
        Ok(CompiledMachine::derive(
            raw,
            app.task_count(),
            lists,
            &mut s.derive,
        ))
    }

    /// Registers [`CompiledMachine::step`] requires in its scratch file.
    pub fn max_regs(&self) -> usize {
        self.max_regs
    }

    /// Number of bytecode instructions.
    pub fn op_count(&self) -> usize {
        self.code.len()
    }

    /// The machine's initial state index.
    pub fn initial_state(&self) -> u32 {
        self.initial_state
    }

    /// Number of variable slots.
    pub fn var_count(&self) -> usize {
        self.var_count
    }

    /// Initial variable values, in slot order.
    pub fn var_inits(&self) -> &[Value] {
        &self.var_inits
    }

    /// The machine's packed FRAM block layout (see
    /// [`crate::layout::MachineLayout`]). Derived data, recomputed
    /// from the bytecode in [`CompiledMachine::from_raw`].
    pub fn layout(&self) -> &MachineLayout {
        &self.layout
    }

    /// Returns `true` when no transition of this machine can match the
    /// event — the O(1) trigger test that lets the engine dismiss the
    /// machine without touching its FRAM state.
    pub fn dismisses(&self, kind: EventKind, task: u32) -> bool {
        self.transition_list(kind, task).is_empty()
    }

    /// Number of transitions the dispatch table routes this event to —
    /// the work a step actually considers (vs. the full transition
    /// count the interpreter scans).
    pub fn dispatch_len(&self, kind: EventKind, task: u32) -> usize {
        self.key(kind, task).list as usize
    }

    /// `true` when some transition the `(kind, task)` key dispatches
    /// can emit a failure action — i.e. delivering such an event may
    /// produce a verdict from this machine. The bounds pass sizes a
    /// member's verdict cells by it. A list entry past the transition
    /// table (which the verifier rejects) emits nothing.
    pub fn may_emit(&self, kind: EventKind, task: u32) -> bool {
        self.transition_list(kind, task)
            .iter()
            .any(|&ti| (self.transitions.get(ti as usize)).is_some_and(|t| t.emit.is_some()))
    }

    /// Explodes the machine into its raw parts (cloned).
    pub fn to_raw(&self) -> RawMachine {
        let lists = |k| {
            let (tasks, wildcard) = self.kind_lists(k);
            (tasks.map(<[u16]>::to_vec).collect(), wildcard.to_vec())
        };
        let ((d0, w0), (d1, w1)) = (lists(0), lists(1));
        RawMachine {
            code: self.code.clone(),
            lits: self.lits.clone(),
            transitions: self.transitions.clone(),
            dispatch: [d0, d1],
            wildcard: [w0, w1],
            max_regs: self.max_regs,
            initial_state: self.initial_state,
            var_count: self.var_count,
            var_inits: self.var_inits.clone(),
        }
    }

    /// Reassembles a machine from raw parts **without any checking** —
    /// see [`RawMachine`] for the safety contract. Access sets and the
    /// packed layout are recomputed from the (possibly mutated) code,
    /// keeping derived data consistent; `var_inits` is padded with
    /// `Int(0)` / truncated to `var_count`.
    pub fn from_raw(mut raw: RawMachine) -> Self {
        let [d0, d1] = std::mem::take(&mut raw.dispatch);
        let [w0, w1] = std::mem::take(&mut raw.wildcard);
        let lists = d0.iter().chain(&d1).chain([&w0, &w1]).map(Vec::as_slice);
        Self::derive(raw, d0.len(), lists, &mut DeriveScratch::default())
    }

    /// Assembles a machine from `raw`'s parts but its dispatch tables
    /// and from the dispatch lists `lists`, in key order (`start_keys`
    /// `startTask` lists, then the `endTask` ones, then the two
    /// wildcard lists), in `s`: one pass over the transitions, then
    /// every key's runs appended to one pool and its facts to one
    /// table, each copied out at its exact size. An unrouted key costs
    /// no more than its entry.
    fn derive<'l>(
        raw: RawMachine,
        start_keys: usize,
        lists: impl Iterator<Item = &'l [u16]>,
        s: &mut DeriveScratch,
    ) -> Self {
        let prices = OpCycles::default();
        let DeriveScratch {
            facts,
            pool,
            bounds,
        } = s;
        facts.derive(&raw.code, &raw.transitions, raw.var_count, &prices);
        pool.clear();
        let mut keys = Vec::with_capacity(lists.size_hint().0);
        for list in lists {
            let mut key = KeyFacts {
                at: pool.len() as u32,
                list: list.len() as u32,
                reads: 0,
                writes: 0,
                whole_block: raw.var_count == 0,
                cost: StepCost::default(),
            };
            if !list.is_empty() {
                pool.extend_from_slice(list);
                (key.reads, key.writes, key.whole_block) = facts.access(list, raw.var_count, pool);
                key.cost = facts.step_cost(&raw.transitions, list, prices.transition_scan);
            }
            keys.push(key);
        }
        let mut var_inits = raw.var_inits;
        var_inits.resize(raw.var_count, Value::Int(0));
        let layout = MachineLayout::packed_in(
            &var_inits,
            &raw.code,
            &raw.lits,
            &raw.transitions,
            raw.initial_state,
            bounds,
        );
        CompiledMachine {
            code: raw.code,
            lits: raw.lits,
            transitions: raw.transitions,
            max_regs: raw.max_regs,
            initial_state: raw.initial_state,
            var_count: raw.var_count,
            var_inits,
            layout,
            keys,
            start_keys: start_keys as u32,
            pool: pool.clone(),
        }
    }

    /// Where kind `k`'s per-task keys and its wildcard key sit in
    /// `keys`.
    fn kind_keys(&self, k: usize) -> (Range<usize>, usize) {
        let n0 = self.start_keys as usize;
        let n1 = self.keys.len() - 2 - n0;
        let tasks = if k == 0 { 0..n0 } else { n0..n0 + n1 };
        (tasks, n0 + n1 + k)
    }

    /// Kind `k`'s per-task dispatch lists, in task order, and its
    /// wildcard list.
    pub(crate) fn kind_lists(&self, k: usize) -> (impl Iterator<Item = &[u16]>, &[u16]) {
        let (tasks, wildcard) = self.kind_keys(k);
        let tasks = self.keys[tasks].iter().map(|key| self.key_list(key));
        (tasks, self.key_list(&self.keys[wildcard]))
    }

    /// The transitions `(kind, task)` dispatches, in priority order.
    /// Task ids beyond the graph take the kind's wildcard list.
    pub(crate) fn transition_list(&self, kind: EventKind, task: u32) -> &[u16] {
        self.key_list(self.key(kind, task))
    }

    /// The dispatch list `key` describes.
    fn key_list(&self, key: &KeyFacts) -> &[u16] {
        &self.pool[key.at as usize..(key.at + key.list) as usize]
    }

    /// The key of `(kind, task)` — same fallback rule as
    /// `CompiledMachine::transition_list`.
    fn key(&self, kind: EventKind, task: u32) -> &KeyFacts {
        let k = kind_index(kind);
        let (tasks, wildcard) = self.kind_keys(k);
        let task = task as usize;
        &self.keys[if task < tasks.len() {
            tasks.start + task
        } else {
            wildcard
        }]
    }

    /// The static FRAM access set of `(kind, task)` — same fallback
    /// rule as `CompiledMachine::transition_list`.
    pub fn access(&self, kind: EventKind, task: u32) -> AccessSet<'_> {
        self.key_access(self.key(kind, task))
    }

    /// The access set `key` describes.
    fn key_access(&self, key: &KeyFacts) -> AccessSet<'_> {
        let at = (key.at + key.list) as usize;
        let mid = at + key.reads as usize;
        AccessSet {
            reads: &self.pool[at..mid],
            writes: &self.pool[mid..mid + key.writes as usize],
            whole_block: key.whole_block,
        }
    }

    /// [`CompiledMachine::dispatch_len`], [`CompiledMachine::step_cost`]
    /// and [`CompiledMachine::access`] of `(kind, task)` in one lookup
    /// — what the engine reads once per step.
    pub fn step_key(&self, kind: EventKind, task: u32) -> StepKey<'_> {
        let key = self.key(kind, task);
        StepKey {
            dispatch_len: key.list as usize,
            cost: key.cost,
            access: self.key_access(key),
        }
    }

    /// The static compute ceiling of one `step` for `(kind, task)` —
    /// same fallback rule as `CompiledMachine::transition_list`. The
    /// engine bills exactly this many cycles per delivered event
    /// (static and state-independent, so billing never leaks machine
    /// state), and the bounds/energy passes price through the same
    /// table.
    pub fn step_cost(&self, kind: EventKind, task: u32) -> StepCost {
        self.key(kind, task).cost
    }

    /// Feeds one event to the machine: the bytecode counterpart of
    /// [`crate::exec::step`], operating on a caller-owned `(state,
    /// vars)` snapshot and `regs` scratch file (at least
    /// [`CompiledMachine::max_regs`] long). Returns the failure signal
    /// of the taken transition, if any.
    ///
    /// Matches the interpreter bug-for-bug: an evaluation error mid-body
    /// leaves earlier assignments applied and the state unmoved.
    pub fn step(
        &self,
        state: &mut u32,
        vars: &mut [Value],
        event: &CompiledEvent,
        regs: &mut [Value],
    ) -> Result<Option<&EmitFail>, EvalError> {
        self.step_counting(state, vars, event, regs, &mut 0)
    }

    /// [`CompiledMachine::step`] plus an executed-instruction counter:
    /// `executed` grows by the number of bytecode instructions this
    /// delivery actually ran (fused superinstructions count as one),
    /// including the guards of transitions that did not fire. The
    /// engine accumulates these to pin the static
    /// [`StepCost::instructions`] ceiling against reality.
    pub fn step_counting(
        &self,
        state: &mut u32,
        vars: &mut [Value],
        event: &CompiledEvent,
        regs: &mut [Value],
        executed: &mut u64,
    ) -> Result<Option<&EmitFail>, EvalError> {
        debug_assert!(regs.len() >= self.max_regs);
        debug_assert_eq!(vars.len(), self.var_count);

        let mut taken = None;
        for &ti in self.transition_list(event.kind, event.task) {
            let t = &self.transitions[ti as usize];
            if t.from != *state {
                continue;
            }
            let enabled = match &t.guard {
                None => true,
                Some(range) => {
                    self.exec(range.clone(), vars, &event.ctx, regs, executed)?;
                    matches!(regs[0], Value::Bool(true))
                }
            };
            if enabled {
                taken = Some(t);
                break;
            }
        }

        let Some(transition) = taken else {
            // Implicit self-transition: accept silently.
            return Ok(None);
        };

        self.exec(transition.body.clone(), vars, &event.ctx, regs, executed)?;
        *state = transition.to;
        Ok(transition.emit.as_ref())
    }

    /// Runs one instruction range. Guards never touch `vars`; bodies
    /// mutate them through `StoreVar`/`ConstStore`.
    fn exec(
        &self,
        range: Range<u32>,
        vars: &mut [Value],
        ctx: &EventCtx,
        regs: &mut [Value],
        executed: &mut u64,
    ) -> Result<(), EvalError> {
        let mut pc = range.start as usize;
        let end = range.end as usize;
        while pc < end {
            *executed += 1;
            match self.code[pc] {
                Op::Const { dst, lit } => regs[dst as usize] = self.lits[lit as usize],
                Op::LoadVar { dst, slot } => regs[dst as usize] = vars[slot as usize],
                Op::LoadEventTime { dst } => regs[dst as usize] = Value::Time(ctx.time_us),
                Op::LoadDepData { dst } => {
                    regs[dst as usize] =
                        ctx.dep_data.map(Value::Float).ok_or(EvalError::NoDepData)?
                }
                Op::LoadEnergy { dst } => {
                    regs[dst as usize] =
                        Value::Int(i64::try_from(ctx.energy_nj).unwrap_or(i64::MAX))
                }
                Op::Bin { op, dst, a, b } => {
                    regs[dst as usize] = apply(op, regs[a as usize], regs[b as usize])?
                }
                Op::Not { dst, src } => {
                    regs[dst as usize] = Value::Bool(!regs[src as usize].as_bool()?)
                }
                Op::AssertBool { src } => {
                    regs[src as usize].as_bool()?;
                }
                Op::JumpIfFalse { src, target } => {
                    if !regs[src as usize].as_bool()? {
                        pc = target as usize;
                        continue;
                    }
                }
                Op::JumpIfTrue { src, target } => {
                    if regs[src as usize].as_bool()? {
                        pc = target as usize;
                        continue;
                    }
                }
                Op::Jump { target } => {
                    pc = target as usize;
                    continue;
                }
                Op::StoreVar { slot, src } => {
                    vars[slot as usize] = coerce(regs[src as usize], vars[slot as usize])?
                }
                Op::CmpBranch {
                    op,
                    dst,
                    a,
                    b,
                    target,
                    when,
                } => {
                    let v = apply(op, regs[a as usize], regs[b as usize])?;
                    regs[dst as usize] = v;
                    if v.as_bool()? == when {
                        pc = target as usize;
                        continue;
                    }
                }
                Op::LoadCmpBranch {
                    op,
                    dst,
                    slot,
                    lit,
                    target,
                    when,
                } => {
                    let v = apply(op, vars[slot as usize], self.lits[lit as usize])?;
                    regs[dst as usize] = v;
                    if v.as_bool()? == when {
                        pc = target as usize;
                        continue;
                    }
                }
                Op::ConstStore { slot, lit } => {
                    vars[slot as usize] = coerce(self.lits[lit as usize], vars[slot as usize])?
                }
            }
            pc += 1;
        }
        Ok(())
    }
}

/// Per-machine compilation state. The instruction and literal streams
/// and the dispatch lists are the caller's scratch: [`Compiler::run`]
/// returns the other raw parts with an exact-size copy of the literals
/// (and empty dispatch tables), and leaves the instructions for the
/// optimizer to read and the lists, in [`CompiledMachine`]'s key
/// order, for the derivation.
struct Compiler<'a, 's> {
    machine: &'a StateMachine,
    app: &'a AppGraph,
    code: &'s mut Vec<Op>,
    lits: &'s mut Vec<Value>,
    lists: &'s mut Vec<Vec<u16>>,
    max_regs: usize,
}

impl<'a, 's> Compiler<'a, 's> {
    fn new(
        machine: &'a StateMachine,
        app: &'a AppGraph,
        code: &'s mut Vec<Op>,
        lits: &'s mut Vec<Value>,
        lists: &'s mut Vec<Vec<u16>>,
    ) -> Self {
        code.clear();
        lits.clear();
        Compiler {
            machine,
            app,
            code,
            lits,
            lists,
            max_regs: 0,
        }
    }

    /// A compilation error in this machine.
    fn error(&self, message: String) -> Diagnostic {
        Diagnostic::error(
            "compile",
            format!("machine `{}`", self.machine.name),
            message,
        )
    }

    /// A machine past a bytecode index limit (u16 slots, registers and
    /// transitions, u32 instructions): unreachable for generated
    /// monitors.
    fn too_large(&self) -> Diagnostic {
        self.error("machine exceeds bytecode limits".to_string())
    }

    fn run(mut self) -> Result<RawMachine, Diagnostic> {
        if self.machine.vars.len() > u16::MAX as usize
            || self.machine.transitions.len() > u16::MAX as usize
        {
            return Err(self.too_large());
        }

        let mut transitions = Vec::with_capacity(self.machine.transitions.len());
        for t in &self.machine.transitions {
            transitions.push(self.compile_transition(t)?);
        }

        // Dispatch lists: for each event kind and task id, and for each
        // kind's wildcard key, the transitions (by priority) whose
        // trigger can match.
        let task_count = self.app.task_count();
        self.lists.truncate(2 * task_count + 2);
        self.lists.iter_mut().for_each(Vec::clear);
        self.lists.resize_with(2 * task_count + 2, Vec::new);
        for (ti, t) in self.machine.transitions.iter().enumerate() {
            let ti = ti as u16;
            let kinds: &[usize] = match &t.trigger {
                Trigger::Any => &[0, 1],
                Trigger::Start(_) => &[0],
                Trigger::End(_) => &[1],
            };
            let pat = match &t.trigger {
                Trigger::Any => &TaskPat::Any,
                Trigger::Start(p) | Trigger::End(p) => p,
            };
            match pat {
                TaskPat::Any => {
                    for &k in kinds {
                        let tasks = k * task_count..(k + 1) * task_count;
                        for list in &mut self.lists[tasks] {
                            list.push(ti);
                        }
                        self.lists[2 * task_count + k].push(ti);
                    }
                }
                TaskPat::Named(name) => {
                    let id = self
                        .app
                        .task_by_name(name)
                        .ok_or_else(|| self.error(format!("unknown task `{name}`")))?;
                    for &k in kinds {
                        self.lists[k * task_count + id.index()].push(ti);
                    }
                }
            }
        }

        Ok(RawMachine {
            code: Vec::new(),
            lits: self.lits.clone(),
            transitions,
            dispatch: Default::default(),
            wildcard: Default::default(),
            max_regs: self.max_regs,
            initial_state: self.machine.initial,
            var_count: self.machine.vars.len(),
            var_inits: self.machine.initial_vars(),
        })
    }

    fn compile_transition(&mut self, t: &Transition) -> Result<CompiledTransition, Diagnostic> {
        let guard = match &t.guard {
            None => None,
            Some(g) => {
                let start = self.here()?;
                self.compile_expr(g, 0)?;
                Some(start..self.here()?)
            }
        };
        let start = self.here()?;
        self.compile_body(&t.body)?;
        Ok(CompiledTransition {
            from: t.from,
            to: t.to,
            guard,
            body: start..self.here()?,
            emit: t.emit.clone(),
        })
    }

    fn compile_body(&mut self, body: &[Stmt]) -> Result<(), Diagnostic> {
        for stmt in body {
            match stmt {
                Stmt::Assign(name, expr) => {
                    self.compile_expr(expr, 0)?;
                    let slot = self.slot(name)?;
                    self.code.push(Op::StoreVar { slot, src: 0 });
                }
                Stmt::If(cond, then_body, else_body) => {
                    self.compile_expr(cond, 0)?;
                    let to_else = self.emit_placeholder();
                    self.compile_body(then_body)?;
                    // An empty else arm needs no jump over it — emitting
                    // one would produce a self-fall-through
                    // `Jump { target: pc + 1 }`.
                    let to_end = if else_body.is_empty() {
                        None
                    } else {
                        Some(self.emit_placeholder())
                    };
                    let else_start = self.here()?;
                    self.code[to_else] = Op::JumpIfFalse {
                        src: 0,
                        target: else_start,
                    };
                    self.compile_body(else_body)?;
                    let end = self.here()?;
                    if let Some(to_end) = to_end {
                        self.code[to_end] = Op::Jump { target: end };
                    }
                }
            }
        }
        Ok(())
    }

    /// Lowers `expr` so its value lands in register `base`, using
    /// registers `base..` as an expression stack.
    fn compile_expr(&mut self, expr: &Expr, base: u16) -> Result<(), Diagnostic> {
        self.max_regs = self.max_regs.max(base as usize + 1);
        match expr {
            Expr::Lit(v) => {
                let lit = self.lit(*v)?;
                self.code.push(Op::Const { dst: base, lit });
            }
            Expr::Var(name) => {
                let slot = self.slot(name)?;
                self.code.push(Op::LoadVar { dst: base, slot });
            }
            Expr::EventTime => self.code.push(Op::LoadEventTime { dst: base }),
            Expr::DepData => self.code.push(Op::LoadDepData { dst: base }),
            Expr::EnergyLevel => self.code.push(Op::LoadEnergy { dst: base }),
            Expr::Not(inner) => {
                self.compile_expr(inner, base)?;
                self.code.push(Op::Not {
                    dst: base,
                    src: base,
                });
            }
            Expr::Bin(op @ (BinOp::And | BinOp::Or), lhs, rhs) => {
                // Short-circuit: the left value doubles as the result
                // when it decides the outcome.
                self.compile_expr(lhs, base)?;
                let skip = self.emit_placeholder();
                self.compile_expr(rhs, base)?;
                self.code.push(Op::AssertBool { src: base });
                let end = self.here()?;
                self.code[skip] = if *op == BinOp::And {
                    Op::JumpIfFalse {
                        src: base,
                        target: end,
                    }
                } else {
                    Op::JumpIfTrue {
                        src: base,
                        target: end,
                    }
                };
            }
            Expr::Bin(op, lhs, rhs) => {
                self.compile_expr(lhs, base)?;
                let rhs_reg = base.checked_add(1).ok_or_else(|| self.too_large())?;
                self.compile_expr(rhs, rhs_reg)?;
                self.code.push(Op::Bin {
                    op: *op,
                    dst: base,
                    a: base,
                    b: rhs_reg,
                });
            }
        }
        Ok(())
    }

    fn slot(&self, name: &str) -> Result<u16, Diagnostic> {
        self.machine
            .var_index(name)
            .map(|i| i as u16)
            .ok_or_else(|| self.error(format!("unknown variable `{name}`")))
    }

    fn lit(&mut self, v: Value) -> Result<u16, Diagnostic> {
        // Values are PartialEq (not Eq: floats), so a linear scan dedups
        // the tiny pools generated monitors produce.
        let idx = match self.lits.iter().position(|l| *l == v) {
            Some(i) => i,
            None => {
                self.lits.push(v);
                self.lits.len() - 1
            }
        };
        u16::try_from(idx).map_err(|_| self.too_large())
    }

    fn here(&self) -> Result<u32, Diagnostic> {
        u32::try_from(self.code.len()).map_err(|_| self.too_large())
    }

    /// Reserves one instruction to be patched with a jump later.
    fn emit_placeholder(&mut self) -> usize {
        self.code.push(Op::Jump { target: 0 });
        self.code.len() - 1
    }
}

/// The install-time routing index: for every `(event kind, task id)`
/// key, the exact set of machines with at least one transition whose
/// trigger can match such an event. Triggers are static, so the index
/// is computed once per installation; the engine uses it to arm only
/// the *interested* machines per event — dismissed machines are never
/// read, stepped, or counter-written — taking event dispatch from
/// O(installed machines) to O(interested machines).
#[derive(Debug)]
pub struct RoutingIndex {
    /// Machine indices (suite order) with a transition that can match,
    /// including wildcard-triggered ones: one run per key, the
    /// `startTask` keys by task id, then the `endTask` keys, then the
    /// two per-kind wildcard keys — the worklists for task ids beyond
    /// the application graph.
    machines: Vec<u16>,
    /// Key `i`'s run is `machines[starts[i]..starts[i + 1]]`.
    starts: Vec<u32>,
    /// Tasks in the application graph.
    tasks: usize,
}

impl RoutingIndex {
    pub(crate) fn build(machines: &[CompiledMachine], task_count: usize) -> Self {
        // A key's probe: a task id, or one past the graph for the
        // wildcard keys (an out-of-graph id falls through to each
        // machine's wildcard transition list).
        let keys = (0..2).flat_map(|k| (0..task_count).map(move |t| (k, t as u32)));
        let keys = keys.chain([(0, u32::MAX), (1, u32::MAX)]);
        let kinds = [EventKind::StartTask, EventKind::EndTask];
        let armed = |(k, task): (usize, u32)| {
            (0..machines.len()).filter(move |&mi| !machines[mi].dismisses(kinds[k], task))
        };
        let total = keys.clone().map(|key| armed(key).count()).sum();
        let mut index = RoutingIndex {
            machines: Vec::with_capacity(total),
            starts: Vec::with_capacity(2 * task_count + 3),
            tasks: task_count,
        };
        index.starts.push(0);
        for key in keys {
            index.machines.extend(armed(key).map(|mi| mi as u16));
            index.starts.push(index.machines.len() as u32);
        }
        index
    }

    /// The machines of key `i`.
    fn run(&self, i: usize) -> &[u16] {
        &self.machines[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    /// The machines interested in `(kind, task)`, in suite order. Task
    /// ids beyond the application graph resolve to the wildcard set.
    pub fn interested(&self, kind: EventKind, task: u32) -> &[u16] {
        let (k, task) = (kind_index(kind), task as usize);
        self.run(if task < self.tasks {
            k * self.tasks + task
        } else {
            2 * self.tasks + k
        })
    }

    /// The per-kind wildcard machine set.
    pub fn wildcard(&self, kind: EventKind) -> &[u16] {
        self.run(2 * self.tasks + kind_index(kind))
    }
}

/// A whole suite compiled against one application graph, plus the task
/// name table interned once for everything that still needs names (the
/// reference interpreter path, verdict reports) and the global
/// [`RoutingIndex`] over all machines.
pub struct CompiledSuite {
    machines: Vec<CompiledMachine>,
    task_names: TaskNames,
    max_regs: usize,
    routing: RoutingIndex,
    /// The first [`CompiledSuite::install_facts`] answer, with what it
    /// was computed for.
    memo: OnceLock<Memo>,
}

/// A kept [`CompiledSuite::install_facts`] answer and its key.
struct Memo {
    suite: MonitorSuite,
    profile: EnergyProfile,
    /// The app's declared task costs, in task order.
    costs: Vec<TaskCostDecl>,
    facts: InstallFacts,
}

impl CompiledSuite {
    /// Checks `suite` against `app`, compiles every machine at the
    /// default optimization level
    /// ([`OptLevel::Full`](crate::opt::OptLevel::Full)) and builds the
    /// global routing index.
    pub fn compile(suite: &MonitorSuite, app: &AppGraph) -> Result<Self, Diagnostic> {
        Self::compile_with(suite, app, crate::opt::OptLevel::default())
    }

    /// [`CompiledSuite::compile`] at an explicit optimization level —
    /// see [`CompiledMachine::compile_with`]. This is the install
    /// path's source gate: the suite must pass
    /// [`check_source`](crate::validate::check_source) first, so a
    /// `CompiledSuite` exists only for a source suite that did (or
    /// for bytecode a caller reassembled through
    /// [`CompiledSuite::set_machine`]).
    pub fn compile_with(
        suite: &MonitorSuite,
        app: &AppGraph,
        opt: crate::opt::OptLevel,
    ) -> Result<Self, Diagnostic> {
        crate::validate::check_source(suite, app)?;
        if suite.machines().len() > u16::MAX as usize {
            return Err(Diagnostic::error(
                "compile",
                "suite",
                "suite exceeds 65535 machines",
            ));
        }
        let mut scratch = Scratch::default();
        let mut machines = Vec::with_capacity(suite.machines().len());
        for m in suite.machines() {
            machines.push(CompiledMachine::compile_in(m, app, opt, &mut scratch)?);
        }
        let max_regs = machines
            .iter()
            .map(CompiledMachine::max_regs)
            .max()
            .unwrap_or(0);
        let routing = RoutingIndex::build(&machines, app.task_count());
        Ok(CompiledSuite {
            machines,
            max_regs,
            routing,
            task_names: TaskNames::new(app),
            memo: OnceLock::new(),
        })
    }

    /// Compiled machines, in suite order.
    pub fn machines(&self) -> &[CompiledMachine] {
        &self.machines
    }

    /// The global routing index over all machines.
    pub fn routing(&self) -> &RoutingIndex {
        &self.routing
    }

    /// Largest scratch register file any machine needs.
    pub fn max_regs(&self) -> usize {
        self.max_regs
    }

    /// Number of tasks in the application graph the suite was compiled
    /// against.
    pub fn task_count(&self) -> usize {
        self.task_names.ends.len()
    }

    /// Replaces machine `idx` with one reassembled from raw parts,
    /// rebuilding the routing index and the suite-wide register-file
    /// size. Like [`CompiledMachine::from_raw`], this performs **no
    /// checking** — it exists so the mutation fuzzers and rejection
    /// tests can present arbitrary programs to the install-time
    /// analyser.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn set_machine(&mut self, idx: usize, raw: RawMachine) {
        self.memo = OnceLock::new();
        self.machines[idx] = CompiledMachine::from_raw(raw);
        self.max_regs = self
            .machines
            .iter()
            .map(CompiledMachine::max_regs)
            .max()
            .unwrap_or(0);
        self.routing = RoutingIndex::build(&self.machines, self.task_count());
    }

    /// The install gate's suite-level results for `suite` on a device
    /// of energy profile `profile` running `app`: the static bounds,
    /// the analysis findings and the per-task energy verdicts of the
    /// app's declared costs ([`InstallFacts`]). They depend on nothing
    /// else, so the first call's answer is kept and returned again
    /// whenever the same suite handle ([`MonitorSuite::same`]) comes
    /// with an equal profile and equal task costs — every device a
    /// fleet installs from one compiled suite. Any other call is
    /// computed fresh and leaves the kept answer as it is;
    /// [`CompiledSuite::set_machine`] drops it.
    pub fn install_facts(
        &self,
        suite: &MonitorSuite,
        app: &AppGraph,
        profile: &EnergyProfile,
    ) -> Cow<'_, InstallFacts> {
        let costs = app.tasks().iter().map(|t| t.cost);
        let memo = self.memo.get_or_init(|| Memo {
            suite: suite.clone(),
            profile: *profile,
            costs: costs.clone().collect(),
            facts: InstallFacts::compute(suite, self, app, profile),
        });
        if memo.suite.same(suite)
            && memo.profile == *profile
            && costs.eq(memo.costs.iter().copied())
        {
            Cow::Borrowed(&memo.facts)
        } else {
            Cow::Owned(InstallFacts::compute(suite, self, app, profile))
        }
    }

    /// Resolves a dense task id back to its source name ("" when out of
    /// range), without re-cloning: the table is interned at compile
    /// time and shared by all machines.
    pub fn task_name(&self, id: u32) -> &str {
        let TaskNames { text, ends } = &self.task_names;
        let Some(&end) = ends.get(id as usize) else {
            return "";
        };
        let start = match id {
            0 => 0,
            _ => ends[id as usize - 1],
        };
        &text[start as usize..end as usize]
    }
}

/// The application's task names, interned once per suite: one string,
/// with each name's end offset.
struct TaskNames {
    text: String,
    ends: Vec<u32>,
}

impl TaskNames {
    fn new(app: &AppGraph) -> Self {
        let tasks = app.tasks();
        let mut text = String::with_capacity(tasks.iter().map(|t| t.name.len()).sum());
        let mut ends = Vec::with_capacity(tasks.len());
        for t in tasks {
            text.push_str(&t.name);
            ends.push(text.len() as u32);
        }
        TaskNames { text, ends }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{step, IrEvent, MachineState};
    use crate::expr::VarType;
    use artemis_core::app::AppGraphBuilder;
    use artemis_core::property::OnFail;

    fn app() -> AppGraph {
        let mut b = AppGraphBuilder::new();
        let a = b.task("a");
        let s = b.task("b");
        b.path(&[a, s]);
        b.build().unwrap()
    }

    fn ctx(t: u64) -> EventCtx {
        EventCtx {
            time_us: t,
            dep_data: None,
            energy_nj: 0,
        }
    }

    /// Runs an event through both the interpreter and the bytecode and
    /// asserts identical outcomes.
    fn both(
        m: &StateMachine,
        c: &CompiledMachine,
        istate: &mut MachineState,
        cstate: &mut (u32, Vec<Value>),
        kind: EventKind,
        task: &str,
        ctx: EventCtx,
    ) -> Option<EmitFail> {
        let app = app();
        let iresult = step(m, istate, &IrEvent { kind, task, ctx });
        let mut regs = vec![Value::Int(0); c.max_regs().max(1)];
        let task_id = app.task_by_name(task).map(|t| t.0).unwrap_or(u32::MAX);
        let cresult = c
            .step(
                &mut cstate.0,
                &mut cstate.1,
                &CompiledEvent {
                    kind,
                    task: task_id,
                    ctx,
                },
                &mut regs,
            )
            .map(|e| e.cloned());
        assert_eq!(iresult, cresult, "emit mismatch");
        assert_eq!(istate.state, cstate.0, "state mismatch");
        assert_eq!(istate.vars, cstate.1, "vars mismatch");
        iresult.unwrap_or(None)
    }

    /// The counting machine of the exec tests: compiled behaviour must
    /// match transition for transition.
    #[test]
    fn compiled_matches_interpreter_on_counting_machine() {
        let mut m = StateMachine::new("m", "a");
        m.add_var("i", VarType::Int, Value::Int(0));
        let idle = m.add_state("Idle");
        let busy = m.add_state("Busy");
        m.transitions.push(Transition {
            from: idle,
            to: busy,
            trigger: Trigger::Start(TaskPat::named("a")),
            guard: None,
            body: vec![Stmt::Assign("i".into(), Expr::int(1))],
            emit: None,
        });
        m.transitions.push(Transition {
            from: busy,
            to: busy,
            trigger: Trigger::Start(TaskPat::named("a")),
            guard: Some(Expr::bin(BinOp::Lt, Expr::var("i"), Expr::int(2))),
            body: vec![Stmt::Assign(
                "i".into(),
                Expr::bin(BinOp::Add, Expr::var("i"), Expr::int(1)),
            )],
            emit: None,
        });
        m.transitions.push(Transition {
            from: busy,
            to: idle,
            trigger: Trigger::Start(TaskPat::named("a")),
            guard: Some(Expr::bin(BinOp::Ge, Expr::var("i"), Expr::int(2))),
            body: vec![Stmt::Assign("i".into(), Expr::int(0))],
            emit: Some(EmitFail {
                action: OnFail::SkipPath,
                path: Some(1),
            }),
        });
        let c = CompiledMachine::compile(&m, &app()).unwrap();
        let mut is = MachineState::initial(&m);
        let mut cs = (c.initial_state(), m.initial_vars());

        for t in 0..2 {
            let emit = both(&m, &c, &mut is, &mut cs, EventKind::StartTask, "a", ctx(t));
            assert!(emit.is_none());
        }
        let emit = both(&m, &c, &mut is, &mut cs, EventKind::StartTask, "a", ctx(2));
        assert_eq!(emit.unwrap().action, OnFail::SkipPath);
        // Unrelated task: implicit self-transition on both sides.
        both(&m, &c, &mut is, &mut cs, EventKind::StartTask, "b", ctx(3));
    }

    #[test]
    fn short_circuit_and_if_else_compile_correctly() {
        let mut m = StateMachine::new("m", "a");
        m.add_var("x", VarType::Int, Value::Int(0));
        m.add_var("flag", VarType::Bool, Value::Bool(false));
        m.add_state("S");
        // if (flag || x < 2) { x := x + 1 } else { x := 100 }, and
        // flag := !flag && x > 1.
        m.transitions.push(Transition {
            from: 0,
            to: 0,
            trigger: Trigger::Any,
            guard: None,
            body: vec![
                Stmt::If(
                    Expr::or(
                        Expr::var("flag"),
                        Expr::bin(BinOp::Lt, Expr::var("x"), Expr::int(2)),
                    ),
                    vec![Stmt::Assign(
                        "x".into(),
                        Expr::bin(BinOp::Add, Expr::var("x"), Expr::int(1)),
                    )],
                    vec![Stmt::Assign("x".into(), Expr::int(100))],
                ),
                Stmt::Assign(
                    "flag".into(),
                    Expr::and(
                        Expr::Not(Box::new(Expr::var("flag"))),
                        Expr::bin(BinOp::Gt, Expr::var("x"), Expr::int(1)),
                    ),
                ),
            ],
            emit: None,
        });
        let c = CompiledMachine::compile(&m, &app()).unwrap();
        let mut is = MachineState::initial(&m);
        let mut cs = (c.initial_state(), m.initial_vars());
        for t in 0..6 {
            both(&m, &c, &mut is, &mut cs, EventKind::StartTask, "a", ctx(t));
        }
    }

    #[test]
    fn builtins_and_errors_match_interpreter() {
        let mut m = StateMachine::new("m", "a");
        m.add_var("last", VarType::Time, Value::Time(0));
        m.add_var("temp", VarType::Float, Value::Float(0.0));
        m.add_state("S");
        m.transitions.push(Transition {
            from: 0,
            to: 0,
            trigger: Trigger::End(TaskPat::named("a")),
            guard: Some(Expr::bin(BinOp::Ge, Expr::DepData, Expr::float(0.0))),
            body: vec![
                Stmt::Assign("last".into(), Expr::EventTime),
                Stmt::Assign("temp".into(), Expr::DepData),
            ],
            emit: None,
        });
        let c = CompiledMachine::compile(&m, &app()).unwrap();
        let mut is = MachineState::initial(&m);
        let mut cs = (c.initial_state(), m.initial_vars());
        let with_data = EventCtx {
            time_us: 42,
            dep_data: Some(36.5),
            energy_nj: 7,
        };
        both(&m, &c, &mut is, &mut cs, EventKind::EndTask, "a", with_data);
        assert_eq!(cs.1, vec![Value::Time(42), Value::Float(36.5)]);
        // depData on an event without data: both sides error identically
        // (checked inside `both` via result equality).
        both(&m, &c, &mut is, &mut cs, EventKind::EndTask, "a", ctx(50));
    }

    #[test]
    fn access_sets_capture_per_key_slots_and_degrade() {
        let mut m = StateMachine::new("m", "a");
        for v in ["v0", "v1", "v2", "v3"] {
            m.add_var(v, VarType::Int, Value::Int(0));
        }
        m.add_state("S");
        // start(a): guard reads v0, body does v1 := v1 + 1 — touches
        // 2/4 slots, stays sparse.
        m.transitions.push(Transition {
            from: 0,
            to: 0,
            trigger: Trigger::Start(TaskPat::named("a")),
            guard: Some(Expr::bin(BinOp::Lt, Expr::var("v0"), Expr::int(2))),
            body: vec![Stmt::Assign(
                "v1".into(),
                Expr::bin(BinOp::Add, Expr::var("v1"), Expr::int(1)),
            )],
            emit: None,
        });
        // start(b): writes every slot — 4/4 ≥ ¾ degrades to whole-block.
        m.transitions.push(Transition {
            from: 0,
            to: 0,
            trigger: Trigger::Start(TaskPat::named("b")),
            guard: None,
            body: (0..4)
                .map(|i| Stmt::Assign(format!("v{i}"), Expr::int(9)))
                .collect(),
            emit: None,
        });
        let c = CompiledMachine::compile(&m, &app()).unwrap();

        let a = c.access(EventKind::StartTask, 0);
        assert_eq!(a.reads, vec![0, 1]);
        assert_eq!(a.writes, vec![1]);
        let touched: std::collections::BTreeSet<_> = a.reads.iter().chain(a.writes).collect();
        assert_eq!(touched.len(), 2);
        assert_eq!(a.max_touched_slot(), Some(1));
        assert!(!a.whole_block);

        let b = c.access(EventKind::StartTask, 1);
        assert_eq!(b.reads, Vec::<u16>::new());
        assert_eq!(b.writes, vec![0, 1, 2, 3]);
        assert!(b.whole_block);

        // Unrouted keys and out-of-graph ids have empty access sets.
        let end = c.access(EventKind::EndTask, 0);
        assert!(end.reads.is_empty() && end.writes.is_empty());
        let far = c.access(EventKind::StartTask, 999);
        assert!(far.reads.is_empty() && far.writes.is_empty());
        assert_eq!(far.max_touched_slot(), None);
    }

    #[test]
    fn from_raw_recomputes_access_sets_from_mutated_code() {
        let mut m = StateMachine::new("m", "a");
        m.add_var("x", VarType::Int, Value::Int(0));
        m.add_var("y", VarType::Int, Value::Int(0));
        m.add_var("z", VarType::Int, Value::Int(0));
        m.add_state("S");
        m.transitions.push(Transition {
            from: 0,
            to: 0,
            trigger: Trigger::Start(TaskPat::named("a")),
            guard: None,
            body: vec![Stmt::Assign("x".into(), Expr::int(1))],
            emit: None,
        });
        let c = CompiledMachine::compile(&m, &app()).unwrap();
        assert_eq!(c.access(EventKind::StartTask, 0).writes, vec![0]);

        // Retarget the store to slot 2: the reassembled machine's
        // access set must follow the code, not the original spec.
        // The optimizer fuses `Const; StoreVar` into `ConstStore`, so
        // match both encodings of the write.
        let mut raw = c.to_raw();
        for op in raw.code.iter_mut() {
            match op {
                Op::StoreVar { slot, .. } | Op::ConstStore { slot, .. } => *slot = 2,
                _ => {}
            }
        }
        let c2 = CompiledMachine::from_raw(raw);
        assert_eq!(c2.access(EventKind::StartTask, 0).writes, vec![2]);
    }

    /// Compiling derives access sets, layout and step costs once, from
    /// the final code: the one-shot compile equals the staged
    /// codegen → `optimize_machine` pipeline, and both equal a
    /// reassembly from their own raw parts.
    #[test]
    fn derived_data_is_a_function_of_the_final_code() {
        use crate::opt::OptLevel;
        let app = app();
        let spec = "a { maxTries: 3 onFail: skipPath; }\n\
                    b { MITD: 10s dpTask: a onFail: restartPath maxAttempt: 2 onFail: skipPath; \
                        collect: 2 dpTask: a onFail: restartPath; \
                        maxDuration: 5s onFail: skipTask; }";
        let suite = crate::compile(spec, &app).unwrap();
        for m in suite.machines() {
            let full = CompiledMachine::compile_with(m, &app, OptLevel::Full).unwrap();
            let none = CompiledMachine::compile_with(m, &app, OptLevel::None).unwrap();
            let staged = crate::opt::optimize_machine(&none);
            let again = CompiledMachine::from_raw(full.to_raw());
            for other in [&staged, &again] {
                assert_eq!(full.code, other.code, "{}", m.name);
                assert_eq!(full.lits, other.lits, "{}", m.name);
                assert_eq!(full.max_regs, other.max_regs, "{}", m.name);
                assert_eq!(full.keys, other.keys, "{}", m.name);
                assert_eq!(full.pool, other.pool, "{}", m.name);
                assert_eq!(full.layout, other.layout, "{}", m.name);
            }
        }
    }

    #[test]
    fn dispatch_dismisses_unobserved_events() {
        let mut m = StateMachine::new("m", "a");
        m.add_state("S");
        m.transitions.push(Transition {
            from: 0,
            to: 0,
            trigger: Trigger::Start(TaskPat::named("a")),
            guard: None,
            body: vec![],
            emit: None,
        });
        let c = CompiledMachine::compile(&m, &app()).unwrap();
        assert!(!c.dismisses(EventKind::StartTask, 0));
        assert!(c.dismisses(EventKind::EndTask, 0));
        assert!(c.dismisses(EventKind::StartTask, 1));
        // Out-of-graph ids fall back to wildcard lists (empty here).
        assert!(c.dismisses(EventKind::StartTask, 999));
    }

    #[test]
    fn wildcard_triggers_match_everything() {
        let mut m = StateMachine::new("m", "a");
        m.add_var("n", VarType::Int, Value::Int(0));
        m.add_state("S");
        m.transitions.push(Transition {
            from: 0,
            to: 0,
            trigger: Trigger::Any,
            guard: None,
            body: vec![Stmt::Assign(
                "n".into(),
                Expr::bin(BinOp::Add, Expr::var("n"), Expr::int(1)),
            )],
            emit: None,
        });
        let c = CompiledMachine::compile(&m, &app()).unwrap();
        assert!(!c.dismisses(EventKind::StartTask, 0));
        assert!(!c.dismisses(EventKind::EndTask, 1));
        assert!(!c.dismisses(EventKind::StartTask, 12345));

        let mut is = MachineState::initial(&m);
        let mut cs = (c.initial_state(), m.initial_vars());
        both(&m, &c, &mut is, &mut cs, EventKind::EndTask, "b", ctx(0));
        assert_eq!(cs.1[0], Value::Int(1));
    }

    #[test]
    fn compile_rejects_unknown_names() {
        let mut m = StateMachine::new("m", "a");
        m.add_state("S");
        m.transitions.push(Transition {
            from: 0,
            to: 0,
            trigger: Trigger::Start(TaskPat::named("ghost")),
            guard: None,
            body: vec![],
            emit: None,
        });
        assert_eq!(
            CompiledMachine::compile(&m, &app()).unwrap_err(),
            Diagnostic::error("compile", "machine `m`", "unknown task `ghost`")
        );

        let mut m = StateMachine::new("m", "a");
        m.add_state("S");
        m.transitions.push(Transition {
            from: 0,
            to: 0,
            trigger: Trigger::Any,
            guard: Some(Expr::var("ghost")),
            body: vec![],
            emit: None,
        });
        let err = CompiledMachine::compile(&m, &app()).unwrap_err();
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn routing_index_matches_per_machine_dismissal() {
        let app = app();
        // Machine 0 observes starts of `a`; machine 1 observes ends of
        // `b`; machine 2 is wildcard-triggered.
        let spec = "a { maxTries: 3 onFail: skipPath; }";
        let mut suite = crate::compile(spec, &app).unwrap();
        {
            let mut m = StateMachine::new("ends_b", "b");
            m.add_state("S");
            m.transitions.push(Transition {
                from: 0,
                to: 0,
                trigger: Trigger::End(TaskPat::named("b")),
                guard: None,
                body: vec![],
                emit: None,
            });
            suite.push(m);
            let mut w = StateMachine::new("wild", "a");
            w.add_state("S");
            w.transitions.push(Transition {
                from: 0,
                to: 0,
                trigger: Trigger::Any,
                guard: None,
                body: vec![],
                emit: None,
            });
            suite.push(w);
        }
        let cs = CompiledSuite::compile(&suite, &app).unwrap();
        let r = cs.routing();

        // The index must agree with each machine's own dismissal test
        // on every in-graph key.
        for kind in [EventKind::StartTask, EventKind::EndTask] {
            for task in 0..2u32 {
                let listed: Vec<u16> = r.interested(kind, task).to_vec();
                for (mi, m) in cs.machines().iter().enumerate() {
                    assert_eq!(
                        listed.contains(&(mi as u16)),
                        !m.dismisses(kind, task),
                        "index/dismissal disagree for machine {mi}, {kind:?}, task {task}"
                    );
                }
            }
        }
        // Wildcard set contains exactly the wildcard machine, and
        // out-of-graph ids resolve to it.
        let wild_idx = (cs.machines().len() - 1) as u16;
        assert_eq!(r.wildcard(EventKind::StartTask), &[wild_idx]);
        assert_eq!(r.interested(EventKind::EndTask, 999), &[wild_idx]);
        // maxTries observes task `a` only: its machine is routed for
        // `a`'s events and dismissed for `b`'s starts.
        assert!(r.interested(EventKind::StartTask, 0).contains(&0));
        assert!(!r.interested(EventKind::StartTask, 1).contains(&0));
    }

    #[test]
    fn routing_index_preserves_suite_order() {
        let app = app();
        let spec = "a { maxTries: 3 onFail: skipPath; }\n\
                    a { maxTries: 5 onFail: restartTask; }\n\
                    a { period: 1s onFail: restartTask; }";
        let suite = crate::compile(spec, &app).unwrap();
        let cs = CompiledSuite::compile(&suite, &app).unwrap();
        let starts_a = cs.routing().interested(EventKind::StartTask, 0);
        let mut sorted = starts_a.to_vec();
        sorted.sort_unstable();
        assert_eq!(starts_a, &sorted[..], "worklists must be in suite order");
        assert!(!starts_a.is_empty());
    }

    #[test]
    fn suite_compiles_and_interns_names() {
        let app = app();
        let suite = crate::compile("a { maxTries: 3 onFail: skipPath; }", &app).unwrap();
        let cs = CompiledSuite::compile(&suite, &app).unwrap();
        assert_eq!(cs.machines().len(), suite.len());
        assert_eq!(cs.task_name(0), "a");
        assert_eq!(cs.task_name(1), "b");
        assert_eq!(cs.task_name(99), "");
        assert!(cs.max_regs() >= 1);
        assert!(cs.machines()[0].op_count() > 0);
        assert!(!cs.machines()[0].to_raw().transitions.is_empty());
    }
}
