//! Bytecode optimizer: one sweep per guard/body range.
//!
//! Runs between codegen ([`crate::compile()`]) and the install-time
//! verifier ([`crate::analysis::verify_machine`]) — deliberately in
//! that order: the verifier checks exactly the instruction stream the
//! engine will execute, so no optimizer bug can smuggle an unverified
//! program past the gate. Every rewrite is *verifier-monotone*: it only
//! produces shapes the verifier types at least as precisely (a fused
//! branch whose result register is provably `Bool` on every surviving
//! path), which is what the "optimizer output always verifies" fuzzer
//! population pins.
//!
//! Each range gets one round of two linear steps, both in place:
//!
//! 1. **Redundant `AssertBool` elision** — an `AssertBool` whose source
//!    was written by a bool-producing instruction on the same straight
//!    line goes. Codegen emits one after the right operand of every
//!    `&&`/`||`; when that operand is a comparison, the check is dead.
//! 2. **Fusion** — the superinstructions [`Op::LoadCmpBranch`] (slot
//!    load + literal compare + jump — the dominant `var cmp lit` guard
//!    shape; unconditional guard tails fuse with a fall-through
//!    target), [`Op::CmpBranch`] (compare + conditional jump), and
//!    [`Op::ConstStore`] (literal store). Only comparison operators are
//!    fused, and a branch-polarity flag replaces operator negation so
//!    float comparisons stay NaN-exact.
//!
//! Each step writes the kept instructions back at a write index that
//! never passes the read index, then remaps branch targets through one
//! old → new index map. Neither step creates work for the other or for
//! itself, so the round is its own fixpoint: optimizing optimized code
//! changes nothing. A range in which no window starts (no `AssertBool`
//! and no first instructions of a fused shape) is copied and rebased
//! without building any table, and elision runs only on a range with
//! an `AssertBool`. These are the only rewrites kept: each one,
//! disabled alone, moves the Fig. 15 monitor column (EXPERIMENTS.md,
//! "Removed modes").
//!
//! The optimizer rewrites raw parts: [`CompiledMachine::compile_with`]
//! hands it codegen's instruction stream and transitions, and
//! [`CompiledMachine::from_raw`] then derives the access sets, packed
//! layout and static step costs once, from the optimized code — derived
//! data is computed once per compile and can never go stale. One
//! scratch arena serves every range of every machine a suite compile
//! handles: liveness is a bitset table and type provenance a running
//! register file, so once the arena has grown the sweep allocates only
//! the optimized stream.

use core::ops::Range;

use crate::compile::{CompiledMachine, CompiledTransition, Op};
use crate::expr::{BinOp, Value, VarType};

/// How hard [`CompiledMachine::compile`] works on the bytecode.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OptLevel {
    /// Straight-from-lowering bytecode. Kept as the differential
    /// oracle for the optimizer, exactly as `artemis_monitor::Reference` is
    /// for the compiler.
    None,
    /// The sweep documented in [`crate::opt`].
    #[default]
    Full,
}

/// Optimizes every guard/body range of a compiled machine and
/// reassembles it via [`CompiledMachine::from_raw`] (recomputing
/// access sets, layout, and step costs). Semantics-preserving for any
/// machine the verifier accepts; a machine with backward or
/// out-of-range jump targets is returned unchanged.
pub fn optimize_machine(m: &CompiledMachine) -> CompiledMachine {
    let mut raw = m.to_raw();
    if let Some(code) = sweep(
        &raw.code,
        &mut raw.transitions,
        &raw.lits,
        &mut raw.max_regs,
        &mut Scratch::default(),
    ) {
        raw.code = code;
    }
    CompiledMachine::from_raw(raw)
}

/// The sweep over raw parts: what [`CompiledMachine::compile_with`]
/// runs between codegen and the one derivation in
/// [`CompiledMachine::from_raw`]. Reads the stream `code`, rebases
/// `transitions`' ranges onto the optimized stream it returns and sets
/// `max_regs` from it. Parts with a backward or out-of-range jump
/// target — shapes the verifier rejects, whose absolute targets cannot
/// be relocated — give `None` and are left as they are.
pub(crate) fn sweep(
    code: &[Op],
    transitions: &mut [CompiledTransition],
    lits: &[Value],
    max_regs: &mut usize,
    scratch: &mut Scratch,
) -> Option<Vec<Op>> {
    let relocatable = transitions.iter().all(|t| {
        t.guard
            .iter()
            .chain([&t.body])
            .all(|r| forward_range(code, r))
    });
    if !relocatable {
        return None;
    }
    let mut out = Vec::with_capacity(code.len());
    for t in transitions {
        if let Some(g) = &t.guard {
            t.guard = Some(scratch.range(code, g, lits, true, &mut out));
        }
        t.body = scratch.range(code, &t.body, lits, false, &mut out);
    }
    *max_regs = out.iter().map(Op::reg_span).max().unwrap_or(0);
    Some(out)
}

/// `true` when every branch in `code[range]` lands strictly forward
/// inside `(pc, range.end]` — the ranges whose targets can be rebased.
fn forward_range(code: &[Op], range: &Range<u32>) -> bool {
    let (start, end) = (range.start as usize, range.end as usize);
    start <= end
        && end <= code.len()
        && code[start..end].iter().enumerate().all(|(i, op)| {
            op.target()
                .is_none_or(|t| t as usize > start + i && t as usize <= end)
        })
}

/// Copies a range into `ops` with targets rebased to local indices
/// (exit = range length). The range passed [`forward_range`].
fn load_range(code: &[Op], range: &Range<u32>, ops: &mut Vec<Op>) {
    ops.clear();
    ops.extend_from_slice(&code[range.start as usize..range.end as usize]);
    for op in ops.iter_mut() {
        if let Some(t) = op.target_mut() {
            *t -= range.start;
        }
    }
}

/// Appends a locally-targeted range to the machine's code stream,
/// rebasing targets to absolute indices.
fn append_range(code: &mut Vec<Op>, ops: &[Op]) -> Range<u32> {
    let start = code.len() as u32;
    for op in ops {
        let mut op = *op;
        if let Some(t) = op.target_mut() {
            *t += start;
        }
        code.push(op);
    }
    start..code.len() as u32
}

/// Reusable buffers of the sweep, sized on first use and recycled
/// across steps, ranges and the machines of one compile call.
#[derive(Default)]
pub(crate) struct Scratch {
    /// The range being rewritten, with local targets.
    ops: Vec<Op>,
    /// Branch-target flags, one per instruction.
    labels: Vec<bool>,
    /// Register liveness (fusion).
    live: Liveness,
    /// Register types from instruction provenance (elision).
    tys: Vec<Option<VarType>>,
    /// Old → new instruction index.
    map: Vec<u32>,
}

impl Scratch {
    /// Runs the sweep on `code[range]` and appends the result to `out`;
    /// returns the range it occupies there. A range no rewrite window
    /// starts in is only copied, with its targets rebased.
    fn range(
        &mut self,
        code: &[Op],
        range: &Range<u32>,
        lits: &[Value],
        is_guard: bool,
        out: &mut Vec<Op>,
    ) -> Range<u32> {
        let src = &code[range.start as usize..range.end as usize];
        if !rewritable(src) {
            let start = out.len() as u32;
            out.extend(src.iter().map(|&op| {
                let mut op = op;
                if let Some(t) = op.target_mut() {
                    *t = *t - range.start + start;
                }
                op
            }));
            return start..out.len() as u32;
        }
        let mut ops = std::mem::take(&mut self.ops);
        load_range(code, range, &mut ops);
        self.optimize(&mut ops, lits, is_guard);
        let r = append_range(out, &ops);
        self.ops = ops;
        r
    }

    /// Runs the sweep on one range (local targets, exit = `len`).
    fn optimize(&mut self, ops: &mut Vec<Op>, lits: &[Value], is_guard: bool) {
        if ops.iter().any(|op| matches!(op, Op::AssertBool { .. })) {
            self.elide_asserts(ops, lits);
        }
        self.fuse(ops, is_guard);
    }

    /// Step 1: drops every `AssertBool` whose source register is
    /// provably `Bool` — by instruction provenance alone, exactly what
    /// the verifier itself derives, so the rewrite stays
    /// verifier-monotone. Knowledge resets at labels (join points), so
    /// a branch target is never dropped.
    fn elide_asserts(&mut self, ops: &mut Vec<Op>, lits: &[Value]) {
        label_set(ops, &mut self.labels);
        let Scratch {
            labels, tys, map, ..
        } = self;
        tys.clear();
        tys.resize(max_reg_count(ops), None);
        map.clear();
        let mut w = 0;
        for i in 0..ops.len() {
            if labels[i] {
                tys.fill(None);
            }
            let op = ops[i];
            map.push(w as u32);
            if let Op::AssertBool { src } = op {
                if tys[src as usize] == Some(VarType::Bool) {
                    continue;
                }
            }
            type_step(tys, &op, lits);
            ops[w] = op;
            w += 1;
        }
        retarget(ops, map, w);
    }

    /// Step 2: superinstruction fusion. Windows never span labels, and
    /// a window's temporary registers must be dead after it (true for
    /// all compiler-emitted shapes, checked explicitly for safety).
    fn fuse(&mut self, ops: &mut Vec<Op>, is_guard: bool) {
        label_set(ops, &mut self.labels);
        self.live.compute(ops, is_guard);
        let Scratch {
            labels, live, map, ..
        } = self;
        let no_label = |mut r: Range<usize>| r.all(|j| !labels[j]);
        // Temp register `r` may vanish if the fused op overwrites it
        // (r == dst) or nothing reads it after the window's last op.
        let temp_ok = |last: usize, r: u16, dst: u16| r == dst || !live.live_after(last, r);

        map.clear();
        let (mut i, mut w) = (0, 0);
        while i < ops.len() {
            let fused = match ops[i..] {
                // LoadVar ; Const ; Bin cmp [; JumpIf*] → LoadCmpBranch.
                [Op::LoadVar { dst: r1, slot }, Op::Const { dst: r2, lit }, Op::Bin { op, dst, a, b }, ..]
                    if is_cmp(op) && a == r1 && b == r2 && r1 != r2 && no_label(i + 1..i + 3) =>
                {
                    let temps_die = |last| temp_ok(last, r1, dst) && temp_ok(last, r2, dst);
                    let lcb = |target, when| Op::LoadCmpBranch {
                        op,
                        dst,
                        slot,
                        lit,
                        target,
                        when,
                    };
                    match cond_branch(ops.get(i + 3)) {
                        Some((src, target, when))
                            if src == dst && !labels[i + 3] && temps_die(i + 3) =>
                        {
                            Some((lcb(target, when), 4))
                        }
                        // No consumer branch: fall through either way.
                        _ if temps_die(i + 2) => Some((lcb((i + 3) as u32, false), 3)),
                        _ => None,
                    }
                }
                // Bin cmp ; JumpIf* → CmpBranch.
                [Op::Bin { op, dst, a, b }, ..] if is_cmp(op) => {
                    match cond_branch(ops.get(i + 1)) {
                        Some((src, target, when)) if src == dst && !labels[i + 1] => Some((
                            Op::CmpBranch {
                                op,
                                dst,
                                a,
                                b,
                                target,
                                when,
                            },
                            2,
                        )),
                        _ => None,
                    }
                }
                // Const ; StoreVar → ConstStore (temp register dies).
                [Op::Const { dst, lit }, Op::StoreVar { slot, src }, ..]
                    if src == dst && !labels[i + 1] && !live.live_after(i + 1, dst) =>
                {
                    Some((Op::ConstStore { slot, lit }, 2))
                }
                _ => None,
            };
            let (op, width) = fused.unwrap_or((ops[i], 1));
            map.resize(map.len() + width, w as u32);
            ops[w] = op;
            w += 1;
            i += width;
        }
        retarget(ops, map, w);
    }
}

/// `true` when an elision or fusion window starts somewhere in `ops`:
/// an `AssertBool`, or the first instructions of a fused shape.
fn rewritable(ops: &[Op]) -> bool {
    (0..ops.len()).any(|i| match ops[i..] {
        [Op::AssertBool { .. }, ..] | [Op::Const { .. }, Op::StoreVar { .. }, ..] => true,
        [Op::LoadVar { .. }, Op::Const { .. }, Op::Bin { op, .. }, ..]
        | [Op::Bin { op, .. }, Op::JumpIfFalse { .. } | Op::JumpIfTrue { .. }, ..] => is_cmp(op),
        _ => false,
    })
}

/// Finishes a step that wrote `kept` instructions back in place:
/// truncates `ops` and remaps every target through `map` (one entry per
/// old instruction; the exit maps to `kept`).
fn retarget(ops: &mut Vec<Op>, map: &mut Vec<u32>, kept: usize) {
    if kept == ops.len() {
        return;
    }
    map.push(kept as u32);
    ops.truncate(kept);
    for op in ops.iter_mut() {
        if let Some(t) = op.target_mut() {
            *t = map[*t as usize];
        }
    }
}

/// `(src, target, when)` of a conditional jump taken when `src`
/// equals `when`.
fn cond_branch(op: Option<&Op>) -> Option<(u16, u32, bool)> {
    match *op? {
        Op::JumpIfFalse { src, target } => Some((src, target, false)),
        Op::JumpIfTrue { src, target } => Some((src, target, true)),
        _ => None,
    }
}

/// One past the highest register index any instruction touches
/// (minimum 1, so analysis rows are never empty).
fn max_reg_count(ops: &[Op]) -> usize {
    ops.iter().map(Op::reg_span).max().unwrap_or(0).max(1)
}

/// Local successor indices of instruction `i` (exit = `len`).
fn successors(ops: &[Op], i: usize) -> (usize, Option<usize>) {
    match ops[i] {
        Op::Jump { target } => (target as usize, None),
        op => (i + 1, op.target().map(|t| t as usize)),
    }
}

/// Marks the branch targets (labels) of `ops` in `labels`. The exit
/// pseudo-index is not included.
fn label_set(ops: &[Op], labels: &mut Vec<bool>) {
    labels.clear();
    labels.resize(ops.len(), false);
    for op in ops {
        if let Some(l) = op.target().and_then(|t| labels.get_mut(t as usize)) {
            *l = true;
        }
    }
}

/// Backward register liveness as a bitset table: row `i` of `after`
/// holds the registers that may be read after instruction `i`
/// completes. Exact in one reverse pass because every edge is forward.
/// Guards keep register 0 live at exit (the engine reads the verdict
/// there).
#[derive(Default)]
struct Liveness {
    /// `u64` words per row.
    words: usize,
    /// Live-out rows, one per instruction.
    after: Vec<u64>,
    /// Live-in rows, one per instruction plus the range exit.
    before: Vec<u64>,
}

impl Liveness {
    fn compute(&mut self, ops: &[Op], is_guard: bool) {
        let n = ops.len();
        let w = max_reg_count(ops).div_ceil(64);
        self.words = w;
        self.after.clear();
        self.after.resize(n * w, 0);
        self.before.clear();
        self.before.resize((n + 1) * w, 0);
        if is_guard {
            self.before[n * w] = 1;
        }
        for i in (0..n).rev() {
            let (s0, s1) = successors(ops, i);
            let (s0, s1) = (s0.min(n), s1.map(|s| s.min(n)));
            for k in 0..w {
                let out = self.before[s0 * w + k] | s1.map_or(0, |s| self.before[s * w + k]);
                self.after[i * w + k] = out;
                self.before[i * w + k] = out;
            }
            let (reads, write) = ops[i].regs();
            if let Some(r) = write {
                self.before[i * w + r as usize / 64] &= !(1u64 << (r % 64));
            }
            for r in reads.into_iter().flatten() {
                self.before[i * w + r as usize / 64] |= 1u64 << (r % 64);
            }
        }
    }

    /// `true` when register `r` may be read after instruction `i`.
    fn live_after(&self, i: usize, r: u16) -> bool {
        let r = r as usize;
        r / 64 < self.words && self.after[i * self.words + r / 64] >> (r % 64) & 1 == 1
    }
}

/// Forward type provenance across one instruction: `tys` moves from the
/// instruction's entry state to its exit state. Only instruction
/// provenance counts — a `LoadVar` yields no type, matching what the
/// verifier itself derives.
fn type_step(tys: &mut [Option<VarType>], op: &Op, lits: &[Value]) {
    let (r, t) = match *op {
        Op::Const { dst, lit } => (dst, lits.get(lit as usize).map(|v| v.ty())),
        Op::LoadVar { dst, .. } => (dst, None),
        Op::LoadEventTime { dst } => (dst, Some(VarType::Time)),
        Op::LoadDepData { dst } => (dst, Some(VarType::Float)),
        Op::LoadEnergy { dst } => (dst, Some(VarType::Int)),
        // On the surviving path a comparison (or short-circuit
        // operator) produced a bool; arithmetic is typed only by the
        // verifier's own rule, so stay conservative.
        Op::Bin { op, dst, .. } => (
            dst,
            (!matches!(op, BinOp::Add | BinOp::Sub)).then_some(VarType::Bool),
        ),
        Op::Not { dst, .. } => (dst, Some(VarType::Bool)),
        // Past these, the source/result register survived an
        // `as_bool`, so it is `Bool` on every continuing path.
        Op::AssertBool { src } | Op::JumpIfFalse { src, .. } | Op::JumpIfTrue { src, .. } => {
            (src, Some(VarType::Bool))
        }
        Op::CmpBranch { dst, .. } | Op::LoadCmpBranch { dst, .. } => (dst, Some(VarType::Bool)),
        Op::Jump { .. } | Op::StoreVar { .. } | Op::ConstStore { .. } => return,
    };
    tys[r as usize] = t;
}

/// `true` for the operators fusion may embed in a branch.
fn is_cmp(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{CompiledEvent, CompiledSuite, Op};
    use crate::expr::EventCtx;
    use artemis_core::app::{AppGraph, AppGraphBuilder};
    use artemis_core::event::EventKind;

    /// Spec exercising every property compiler — the same coverage
    /// shape the verifier fuzzer mutates.
    const SPEC: &str = "\
        a { maxTries: 3 onFail: skipPath; }\n\
        b { MITD: 10s dpTask: a onFail: restartPath maxAttempt: 2 onFail: skipPath; \
            collect: 2 dpTask: a onFail: restartPath; \
            maxDuration: 5s onFail: skipTask; }";

    fn app() -> AppGraph {
        let mut b = AppGraphBuilder::new();
        let a = b.task("a");
        let t = b.task("b");
        b.path(&[a, t]);
        b.build().unwrap()
    }

    fn suites() -> (crate::MonitorSuite, CompiledSuite, CompiledSuite) {
        let app = app();
        let suite = crate::compile(SPEC, &app).unwrap();
        let none = CompiledSuite::compile_with(&suite, &app, OptLevel::None).unwrap();
        let full = CompiledSuite::compile_with(&suite, &app, OptLevel::Full).unwrap();
        (suite, none, full)
    }

    /// Full strictly shrinks the guard-heavy spec's bytecode.
    #[test]
    fn full_shrinks_bytecode() {
        let (_, none, full) = suites();
        let before: usize = none.machines().iter().map(|m| m.op_count()).sum();
        let after: usize = full.machines().iter().map(|m| m.op_count()).sum();
        assert!(
            after < before,
            "optimizer did not shrink the suite: {after} >= {before}"
        );
    }

    /// The optimized suite actually uses the fused superinstructions
    /// (guard tails → `LoadCmpBranch`, literal writes → `ConstStore`),
    /// and the unoptimized oracle contains none of them.
    #[test]
    fn full_emits_superinstructions_none_does_not() {
        let (_, none, full) = suites();
        let count = |s: &CompiledSuite, pred: fn(&Op) -> bool| -> usize {
            s.machines()
                .iter()
                .flat_map(|m| m.to_raw().code)
                .filter(pred)
                .count()
        };
        let fused = |op: &Op| {
            matches!(
                op,
                Op::CmpBranch { .. } | Op::LoadCmpBranch { .. } | Op::ConstStore { .. }
            )
        };
        assert_eq!(
            count(&none, fused),
            0,
            "oracle must stay superinstruction-free"
        );
        assert!(
            count(&full, |op| matches!(op, Op::LoadCmpBranch { .. })) > 0,
            "no guard tail fused to LoadCmpBranch"
        );
        assert!(
            count(&full, |op| matches!(op, Op::ConstStore { .. })) > 0,
            "no literal write fused to ConstStore"
        );
    }

    /// No shipped bytecode — at either level — contains a jump to its
    /// own fall-through (`Jump { target == pc + 1 }`), the dead-op
    /// shape the `if` codegen used to emit for empty else branches.
    #[test]
    fn no_self_fall_through_jumps_at_any_level() {
        let (_, none, full) = suites();
        for (level, suite) in [("none", &none), ("full", &full)] {
            for m in suite.machines() {
                let code = m.to_raw().code;
                for (pc, op) in code.iter().enumerate() {
                    if let Op::Jump { target } = op {
                        assert_ne!(
                            *target as usize,
                            pc + 1,
                            "self-fall-through jump at pc {pc} (opt level {level})"
                        );
                    }
                }
            }
        }
    }

    /// Differential oracle: `OptLevel::Full` and `OptLevel::None` agree
    /// event for event — verdicts, state, and variable values — across
    /// an event grid covering guards, time arithmetic, and depData.
    #[test]
    fn full_matches_none_on_event_grid() {
        let (suite, none, full) = suites();
        for ((src, n), f) in suite
            .machines()
            .iter()
            .zip(none.machines())
            .zip(full.machines())
        {
            let mut nstate = (n.initial_state(), src.initial_vars());
            let mut fstate = (f.initial_state(), src.initial_vars());
            let mut nregs = vec![Value::Int(0); n.max_regs().max(1)];
            let mut fregs = vec![Value::Int(0); f.max_regs().max(1)];
            let mut seq = 0u64;
            for kind in [EventKind::StartTask, EventKind::EndTask] {
                for task in [0u32, 1, u32::MAX] {
                    for burst in 0..4 {
                        seq += 1;
                        let ctx = EventCtx {
                            // Mix sub-threshold and past-deadline gaps.
                            time_us: seq * if burst < 2 { 1_000 } else { 7_000_000 },
                            dep_data: seq.is_multiple_of(3).then_some(seq as f64),
                            energy_nj: 42_000,
                        };
                        let ev = CompiledEvent { kind, task, ctx };
                        let nr = n
                            .step(&mut nstate.0, &mut nstate.1, &ev, &mut nregs)
                            .map(|e| e.cloned());
                        let fr = f
                            .step(&mut fstate.0, &mut fstate.1, &ev, &mut fregs)
                            .map(|e| e.cloned());
                        assert_eq!(nr, fr, "{}: verdict diverged at seq {seq}", src.name);
                        assert_eq!(nstate.0, fstate.0, "{}: state diverged", src.name);
                        assert_eq!(nstate.1, fstate.1, "{}: vars diverged", src.name);
                    }
                }
            }
        }
    }

    /// Optimization only ever tightens the static compute ceiling:
    /// `Full` step costs are `<=` `None`'s on every key, strictly `<`
    /// on at least one guard-bearing key, and both count at least one
    /// instruction wherever a transition dispatches.
    #[test]
    fn step_cost_tightens_with_optimization() {
        let (_, none, full) = suites();
        let mut strictly_tighter = false;
        for (n, f) in none.machines().iter().zip(full.machines()) {
            for kind in [EventKind::StartTask, EventKind::EndTask] {
                for task in [0u32, 1, u32::MAX] {
                    let (nc, fc) = (n.step_cost(kind, task), f.step_cost(kind, task));
                    assert!(
                        fc.cycles <= nc.cycles && fc.instructions <= nc.instructions,
                        "optimization raised a ceiling for {kind:?}/{task}: {fc:?} > {nc:?}"
                    );
                    strictly_tighter |= fc.cycles < nc.cycles;
                    if n.dispatch_len(kind, task) > 0 {
                        assert!(nc.instructions > 0, "dispatching key with zero ceiling");
                    }
                }
            }
        }
        assert!(strictly_tighter, "no key tightened at all");
    }

    /// Elision runs before fusion: an `AssertBool` between a comparison
    /// and its branch goes first, so the pair fuses in the same sweep
    /// and a second sweep finds nothing. Codegen never emits this shape
    /// (a label always follows its `AssertBool`), so only a hand-built
    /// range pins the order.
    #[test]
    fn elision_runs_before_fusion() {
        let lits = [Value::Float(1.0), Value::Int(0)];
        let mut ops = vec![
            Op::LoadDepData { dst: 0 },
            Op::Const { dst: 1, lit: 0 },
            Op::Bin {
                op: BinOp::Lt,
                dst: 0,
                a: 0,
                b: 1,
            },
            Op::AssertBool { src: 0 },
            Op::JumpIfFalse { src: 0, target: 7 },
            Op::Const { dst: 0, lit: 1 },
            Op::StoreVar { slot: 0, src: 0 },
        ];
        let mut scratch = Scratch::default();
        scratch.optimize(&mut ops, &lits, false);
        assert!(matches!(ops[2], Op::CmpBranch { target: 4, .. }), "{ops:?}");
        let once = ops.clone();
        scratch.optimize(&mut ops, &lits, false);
        assert_eq!(ops, once);
    }

    /// A guard nested deeper than 64 registers spans several liveness
    /// words per row: the optimized machine still verifies and agrees
    /// with the unoptimized one event for event.
    #[test]
    fn deep_expressions_optimize_across_register_words() {
        use crate::analysis::{verify_machine, MachineEnv};
        use crate::expr::Expr;
        use crate::fsm::{StateMachine, Stmt, TaskPat, Transition, Trigger};

        let mut m = StateMachine::new("deep", "a");
        m.add_var("x", VarType::Int, Value::Int(0));
        m.add_state("S");
        // x + (x + (... + 1)): one register per nesting level.
        let mut sum = Expr::int(1);
        for _ in 0..80 {
            sum = Expr::bin(BinOp::Add, Expr::var("x"), sum);
        }
        m.transitions.push(Transition {
            from: 0,
            to: 0,
            trigger: Trigger::Start(TaskPat::named("a")),
            guard: Some(Expr::bin(BinOp::Lt, sum, Expr::int(1_000))),
            body: vec![Stmt::Assign(
                "x".into(),
                Expr::bin(BinOp::Add, Expr::var("x"), Expr::int(1)),
            )],
            emit: None,
        });
        let app = app();
        let none = CompiledMachine::compile_with(&m, &app, OptLevel::None).unwrap();
        let full = CompiledMachine::compile_with(&m, &app, OptLevel::Full).unwrap();
        assert!(none.max_regs() > 64, "{} registers", none.max_regs());
        let var_types = [VarType::Int];
        let env = MachineEnv {
            name: "deep",
            state_count: 1,
            var_types: &var_types,
        };
        assert!(verify_machine(&full, &env).is_empty());

        let (mut ns, mut fs) = ((0u32, vec![Value::Int(0)]), (0u32, vec![Value::Int(0)]));
        let mut nregs = vec![Value::Int(0); none.max_regs()];
        let mut fregs = vec![Value::Int(0); full.max_regs()];
        // The guard holds while 80 * x + 1 < 1000, then stops firing.
        for t in 0..20 {
            let ev = CompiledEvent {
                kind: EventKind::StartTask,
                task: 0,
                ctx: EventCtx {
                    time_us: t,
                    dep_data: None,
                    energy_nj: 0,
                },
            };
            let nr = none
                .step(&mut ns.0, &mut ns.1, &ev, &mut nregs)
                .map(|e| e.cloned());
            let fr = full
                .step(&mut fs.0, &mut fs.1, &ev, &mut fregs)
                .map(|e| e.cloned());
            assert_eq!(nr, fr, "verdict diverged at event {t}");
            assert_eq!(ns, fs, "state diverged at event {t}");
        }
        assert_eq!(fs.1, vec![Value::Int(13)]);
    }
}
