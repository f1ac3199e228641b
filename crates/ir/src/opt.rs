//! Bytecode optimizer pipeline.
//!
//! Runs between codegen ([`crate::compile()`]) and the install-time
//! verifier ([`crate::analysis::verify_machine`]) — deliberately in
//! that order: the verifier checks exactly the instruction stream the
//! engine will execute, so no optimizer bug can smuggle an unverified
//! program past the gate. Every pass is *verifier-monotone*: it only
//! rewrites code into shapes the verifier types at least as precisely
//! (a folded `Const` where a `Bin` stood, a fused branch whose result
//! register is provably `Bool` on every surviving path), which is what
//! the "optimizer output always verifies" fuzzer population pins.
//!
//! Passes, applied per guard/body range to fixpoint:
//!
//! 1. **Jump threading** — branches that land on an unconditional
//!    `Jump` retarget to its destination (forward-only, so the
//!    verifier's strictly-forward jump rule is preserved).
//! 2. **Constant folding** — `Const`-fed `Bin`/`Not` results become
//!    pool literals; folding is skipped when `apply` would error, so
//!    the error surface is unchanged. The ISA has no register-move, so
//!    classic copy propagation degenerates to this literal propagation.
//! 3. **Dead code elimination** — unreachable instructions,
//!    never-erroring pure loads whose destination is dead, provably
//!    redundant `AssertBool`s (source written by a bool-producing
//!    instruction on the same straight line), self-fall-through
//!    `Jump { target: pc + 1 }`, and straight-line dead stores whose
//!    coercion provably cannot error.
//! 4. **Fusion** — the superinstructions [`Op::CmpBranch`]
//!    (compare + conditional jump), [`Op::LoadCmpBranch`] (slot load +
//!    literal compare + jump — the dominant `var cmp lit` guard shape;
//!    unconditional guard tails fuse with a fall-through target), and
//!    [`Op::ConstStore`] (literal store). Only comparison operators
//!    are fused, and a branch-polarity flag replaces operator negation
//!    so float comparisons stay NaN-exact.
//! 5. **Register compaction** — surviving registers renumber densely.
//!    Register 0 (the guard-result contract with the engine) is the
//!    smallest index, so it always maps to itself.
//!
//! The optimizer rewrites raw parts: [`CompiledMachine::compile_with`]
//! hands it codegen's [`RawMachine`], and [`CompiledMachine::from_raw`]
//! then derives the access sets, packed layout and static step costs
//! once, from the optimized code — derived data is computed once per
//! compile and can never go stale. The passes share one scratch arena
//! across passes, fixpoint rounds and ranges: liveness is a bitset
//! table, type provenance a running register file, and compaction and
//! fusion rewrite the range in place, so once the arena has grown the
//! passes allocate nothing.

use core::ops::Range;

use crate::compile::{CompiledMachine, Op, RawMachine};
use crate::expr::{apply, BinOp, Value, VarType};

/// How hard [`CompiledMachine::compile`] works on the bytecode.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OptLevel {
    /// Straight-from-lowering bytecode. Kept as the differential
    /// oracle for the optimizer, exactly as `artemis_monitor::Reference` is
    /// for the compiler.
    None,
    /// The full pipeline documented in [`crate::opt`].
    #[default]
    Full,
}

/// Optimizes every guard/body range of a compiled machine and
/// reassembles it via [`CompiledMachine::from_raw`] (recomputing
/// access sets, layout, and step costs). Semantics-preserving for any
/// machine the verifier accepts; a machine with backward or
/// out-of-range jump targets is returned unchanged.
pub fn optimize_machine(m: &CompiledMachine) -> CompiledMachine {
    CompiledMachine::from_raw(optimize_raw(m.to_raw()))
}

/// The pass pipeline over raw parts: what
/// [`CompiledMachine::compile_with`] runs between codegen and the one
/// derivation in [`CompiledMachine::from_raw`]. Parts with a backward
/// or out-of-range jump target — shapes the verifier rejects, whose
/// absolute targets cannot be relocated — come back unchanged.
pub(crate) fn optimize_raw(mut raw: RawMachine) -> RawMachine {
    let relocatable = raw.transitions.iter().all(|t| {
        t.guard
            .iter()
            .chain([&t.body])
            .all(|r| forward_range(&raw.code, r))
    });
    if !relocatable {
        return raw;
    }
    let var_tys: Vec<VarType> = raw.var_inits.iter().map(|v| v.ty()).collect();
    let mut scratch = Scratch::default();
    let mut ops = Vec::new();
    let mut code = Vec::with_capacity(raw.code.len());
    for t in &mut raw.transitions {
        if let Some(g) = &t.guard {
            load_range(&raw.code, g, &mut ops);
            scratch.optimize(&mut ops, &mut raw.lits, &var_tys, true);
            t.guard = Some(append_range(&mut code, &ops));
        }
        load_range(&raw.code, &t.body, &mut ops);
        scratch.optimize(&mut ops, &mut raw.lits, &var_tys, false);
        t.body = append_range(&mut code, &ops);
    }
    raw.max_regs = code.iter().map(Op::reg_span).max().unwrap_or(0);
    raw.code = code;
    raw
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

/// Reusable buffers of the pass pipeline, sized on first use and
/// recycled across passes, fixpoint rounds and ranges.
#[derive(Default)]
struct Scratch {
    /// Branch-target flags, one per instruction.
    labels: Vec<bool>,
    /// Reachability flags, one per instruction.
    reach: Vec<bool>,
    /// Reachability worklist.
    stack: Vec<usize>,
    /// Register liveness.
    live: Liveness,
    /// Known literal per register (constant folding).
    known: Vec<Option<Value>>,
    /// Register types from instruction provenance alone (DCE).
    op_tys: Vec<Option<VarType>>,
    /// Register types with declared slot types trusted (DCE).
    slot_tys: Vec<Option<VarType>>,
    /// Instructions DCE keeps.
    keep: Vec<bool>,
    /// Old → new instruction index (DCE compaction, fusion).
    map: Vec<u32>,
    /// Old → new register index (register compaction).
    rank: Vec<Option<u16>>,
}

impl Scratch {
    /// Runs the pass pipeline on one range (local targets, exit = `len`).
    fn optimize(
        &mut self,
        ops: &mut Vec<Op>,
        lits: &mut Vec<Value>,
        var_tys: &[VarType],
        is_guard: bool,
    ) {
        for _ in 0..8 {
            let mut changed = thread_jumps(ops);
            changed |= self.fold_constants(ops, lits);
            changed |= self.dce(ops, lits, var_tys, is_guard);
            changed |= self.fuse(ops, is_guard);
            if !changed {
                break;
            }
        }
        self.compact_registers(ops);
    }

    /// Pass 2: straight-line constant folding. Registers holding known
    /// pool literals fold `Bin`/`Not` into `Const` — but only when
    /// `apply` succeeds, so an erroring operation is never optimized
    /// away. Knowledge resets at labels (join points).
    fn fold_constants(&mut self, ops: &mut [Op], lits: &mut Vec<Value>) -> bool {
        label_set(ops, &mut self.labels);
        let known = &mut self.known;
        known.clear();
        let set = |known: &mut Vec<Option<Value>>, r: u16, v: Option<Value>| {
            let r = r as usize;
            if known.len() <= r {
                known.resize(r + 1, None);
            }
            known[r] = v;
        };
        let get = |known: &[Option<Value>], r: u16| known.get(r as usize).copied().flatten();
        let mut changed = false;
        for (i, &label) in self.labels.iter().enumerate() {
            if label {
                known.clear();
            }
            match ops[i] {
                Op::Const { dst, lit } => set(known, dst, lits.get(lit as usize).copied()),
                Op::Bin { op, dst, a, b } => {
                    let folded = match (get(known, a), get(known, b)) {
                        (Some(va), Some(vb)) => apply(op, va, vb).ok(),
                        _ => None,
                    };
                    match folded.and_then(|v| intern(lits, v).map(|l| (v, l))) {
                        Some((v, lit)) => {
                            ops[i] = Op::Const { dst, lit };
                            set(known, dst, Some(v));
                            changed = true;
                        }
                        None => set(known, dst, None),
                    }
                }
                Op::Not { dst, src } => match get(known, src) {
                    Some(Value::Bool(b)) => {
                        if let Some(lit) = intern(lits, Value::Bool(!b)) {
                            ops[i] = Op::Const { dst, lit };
                            set(known, dst, Some(Value::Bool(!b)));
                            changed = true;
                        } else {
                            set(known, dst, None);
                        }
                    }
                    _ => set(known, dst, None),
                },
                Op::LoadVar { dst, .. }
                | Op::LoadEventTime { dst }
                | Op::LoadDepData { dst }
                | Op::LoadEnergy { dst }
                | Op::CmpBranch { dst, .. }
                | Op::LoadCmpBranch { dst, .. } => set(known, dst, None),
                Op::AssertBool { .. }
                | Op::JumpIfFalse { .. }
                | Op::JumpIfTrue { .. }
                | Op::Jump { .. }
                | Op::StoreVar { .. }
                | Op::ConstStore { .. } => {}
            }
        }
        changed
    }

    /// Pass 3: dead code elimination. See the module docs for the exact
    /// removal classes; every one preserves both runtime semantics (for
    /// verified machines) and verifier acceptance.
    fn dce(
        &mut self,
        ops: &mut Vec<Op>,
        lits: &[Value],
        var_tys: &[VarType],
        is_guard: bool,
    ) -> bool {
        reachable(ops, &mut self.reach, &mut self.stack);
        self.live.compute(ops, is_guard);
        label_set(ops, &mut self.labels);
        let nregs = max_reg_count(ops);
        let Scratch {
            labels,
            reach,
            live,
            op_tys,
            slot_tys,
            keep,
            map,
            ..
        } = self;
        for tys in [&mut *op_tys, &mut *slot_tys] {
            tys.clear();
            tys.resize(nregs, None);
        }
        keep.clear();
        keep.resize(ops.len(), true);
        let mut changed = false;
        for i in 0..ops.len() {
            // Type provenance runs forward with the sweep; knowledge
            // resets at labels.
            if labels[i] {
                op_tys.fill(None);
                slot_tys.fill(None);
            }
            let op = ops[i];
            let dead = |r: u16| !live.live_after(i, r);
            let remove = !reach[i]
                || match op {
                    Op::Const { dst, .. }
                    | Op::LoadVar { dst, .. }
                    | Op::LoadEventTime { dst }
                    | Op::LoadEnergy { dst } => dead(dst),
                    Op::AssertBool { src } => {
                        op_tys.get(src as usize).copied().flatten() == Some(VarType::Bool)
                    }
                    Op::Jump { target } => target as usize == i + 1,
                    Op::StoreVar { slot, src } => store_is_dead(
                        ops,
                        labels,
                        var_tys,
                        i,
                        slot,
                        slot_tys.get(src as usize).copied().flatten(),
                    ),
                    Op::ConstStore { slot, lit } => store_is_dead(
                        ops,
                        labels,
                        var_tys,
                        i,
                        slot,
                        lits.get(lit as usize).map(|v| v.ty()),
                    ),
                    _ => false,
                };
            if remove {
                keep[i] = false;
                changed = true;
            }
            type_step(op_tys, &op, lits, var_tys, false);
            type_step(slot_tys, &op, lits, var_tys, true);
        }
        if changed {
            compact_ops(ops, keep, map);
        }
        changed
    }

    /// Pass 4: superinstruction fusion. Windows never span labels, and a
    /// window's temporary registers must be dead after it (true for all
    /// compiler-emitted shapes, checked explicitly for safety). Fused
    /// ops are written back in place: the write index never passes the
    /// read index.
    fn fuse(&mut self, ops: &mut Vec<Op>, is_guard: bool) -> bool {
        label_set(ops, &mut self.labels);
        self.live.compute(ops, is_guard);
        let Scratch {
            labels, live, map, ..
        } = self;
        let len = ops.len();
        let no_label = |mut r: Range<usize>| r.all(|j| !labels[j]);
        // Temp register `r` may vanish if the fused op overwrites it
        // (r == dst) or nothing reads it after the window's last op.
        let temp_ok = |last: usize, r: u16, dst: u16| r == dst || !live.live_after(last, r);

        map.clear();
        map.resize(len + 1, 0);
        let mut changed = false;
        let (mut i, mut w) = (0, 0);
        while i < len {
            let fused: Option<(Op, usize)> = match ops[i..] {
                // LoadVar ; Const ; Bin cmp [; JumpIf*] → LoadCmpBranch.
                [Op::LoadVar { dst: r1, slot }, Op::Const { dst: r2, lit }, Op::Bin { op, dst, a, b }, ..]
                    if is_cmp(op) && a == r1 && b == r2 && r1 != r2 && no_label(i + 1..i + 3) =>
                {
                    match ops.get(i + 3) {
                        Some(&Op::JumpIfFalse { src, target })
                            if src == dst
                                && !labels[i + 3]
                                && temp_ok(i + 3, r1, dst)
                                && temp_ok(i + 3, r2, dst) =>
                        {
                            Some((
                                Op::LoadCmpBranch {
                                    op,
                                    dst,
                                    slot,
                                    lit,
                                    target,
                                    when: false,
                                },
                                4,
                            ))
                        }
                        Some(&Op::JumpIfTrue { src, target })
                            if src == dst
                                && !labels[i + 3]
                                && temp_ok(i + 3, r1, dst)
                                && temp_ok(i + 3, r2, dst) =>
                        {
                            Some((
                                Op::LoadCmpBranch {
                                    op,
                                    dst,
                                    slot,
                                    lit,
                                    target,
                                    when: true,
                                },
                                4,
                            ))
                        }
                        _ if temp_ok(i + 2, r1, dst) && temp_ok(i + 2, r2, dst) => Some((
                            // No consumer branch: fall through either way.
                            Op::LoadCmpBranch {
                                op,
                                dst,
                                slot,
                                lit,
                                target: (i + 3) as u32,
                                when: false,
                            },
                            3,
                        )),
                        _ => None,
                    }
                }
                // Bin cmp ; JumpIf* → CmpBranch.
                [Op::Bin { op, dst, a, b }, Op::JumpIfFalse { src, target }, ..]
                    if is_cmp(op) && src == dst && !labels[i + 1] =>
                {
                    Some((
                        Op::CmpBranch {
                            op,
                            dst,
                            a,
                            b,
                            target,
                            when: false,
                        },
                        2,
                    ))
                }
                [Op::Bin { op, dst, a, b }, Op::JumpIfTrue { src, target }, ..]
                    if is_cmp(op) && src == dst && !labels[i + 1] =>
                {
                    Some((
                        Op::CmpBranch {
                            op,
                            dst,
                            a,
                            b,
                            target,
                            when: true,
                        },
                        2,
                    ))
                }
                // Const ; StoreVar → ConstStore (temp register dies).
                [Op::Const { dst, lit }, Op::StoreVar { slot, src }, ..]
                    if src == dst && !labels[i + 1] && !live.live_after(i + 1, dst) =>
                {
                    Some((Op::ConstStore { slot, lit }, 2))
                }
                _ => None,
            };
            let (op, width) = match fused {
                Some(f) => {
                    changed = true;
                    f
                }
                None => (ops[i], 1),
            };
            map[i..i + width].fill(w as u32);
            ops[w] = op;
            w += 1;
            i += width;
        }
        if changed {
            map[len] = w as u32;
            ops.truncate(w);
            for op in ops.iter_mut() {
                if let Some(t) = op.target_mut() {
                    *t = map[*t as usize];
                }
            }
        }
        changed
    }

    /// Pass 5: renumber surviving registers densely. Rank order preserves
    /// relative indices, so register 0 — when used at all, as every guard
    /// does for its result — stays register 0.
    fn compact_registers(&mut self, ops: &mut [Op]) {
        let rank = &mut self.rank;
        rank.clear();
        rank.resize(max_reg_count(ops), None);
        for op in ops.iter() {
            let (reads, write) = op.regs();
            for r in reads.into_iter().chain([write]).flatten() {
                rank[r as usize] = Some(0);
            }
        }
        let mut next = 0u32;
        let mut identity = true;
        for (r, slot) in rank.iter_mut().enumerate() {
            if slot.is_some() {
                identity &= next as usize == r;
                *slot = Some(next as u16);
                next += 1;
            }
        }
        if identity {
            return;
        }
        let rank = |r: u16| rank[r as usize].expect("every used register is ranked");
        for op in ops.iter_mut() {
            match op {
                Op::Const { dst, .. }
                | Op::LoadVar { dst, .. }
                | Op::LoadEventTime { dst }
                | Op::LoadDepData { dst }
                | Op::LoadEnergy { dst }
                | Op::LoadCmpBranch { dst, .. } => *dst = rank(*dst),
                Op::Bin { dst, a, b, .. } | Op::CmpBranch { dst, a, b, .. } => {
                    *dst = rank(*dst);
                    *a = rank(*a);
                    *b = rank(*b);
                }
                Op::Not { dst, src } => {
                    *dst = rank(*dst);
                    *src = rank(*src);
                }
                Op::AssertBool { src }
                | Op::JumpIfFalse { src, .. }
                | Op::JumpIfTrue { src, .. }
                | Op::StoreVar { src, .. } => *src = rank(*src),
                Op::Jump { .. } | Op::ConstStore { .. } => {}
            }
        }
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

/// Marks the instructions reachable from the range entry in `reach`.
fn reachable(ops: &[Op], reach: &mut Vec<bool>, stack: &mut Vec<usize>) {
    reach.clear();
    reach.resize(ops.len(), false);
    stack.clear();
    stack.push(0);
    while let Some(i) = stack.pop() {
        if i >= ops.len() || reach[i] {
            continue;
        }
        reach[i] = true;
        let (s0, s1) = successors(ops, i);
        stack.push(s0);
        if let Some(s1) = s1 {
            stack.push(s1);
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
/// instruction's entry state to its exit state. With
/// `trust_var_types`, `LoadVar` yields the slot's declared type (sound
/// at runtime, used for dead-store coercion proofs); without it, only
/// instruction provenance counts (matching what the verifier itself
/// derives, used for `AssertBool` removal so the rewrite stays
/// verifier-monotone).
fn type_step(
    tys: &mut [Option<VarType>],
    op: &Op,
    lits: &[Value],
    var_tys: &[VarType],
    trust_var_types: bool,
) {
    let mut set = |r: u16, t: Option<VarType>| {
        if let Some(slot) = tys.get_mut(r as usize) {
            *slot = t;
        }
    };
    match op {
        Op::Const { dst, lit } => set(*dst, lits.get(*lit as usize).map(|v| v.ty())),
        Op::LoadVar { dst, slot } => set(
            *dst,
            var_tys
                .get(*slot as usize)
                .copied()
                .filter(|_| trust_var_types),
        ),
        Op::LoadEventTime { dst } => set(*dst, Some(VarType::Time)),
        Op::LoadDepData { dst } => set(*dst, Some(VarType::Float)),
        Op::LoadEnergy { dst } => set(*dst, Some(VarType::Int)),
        Op::Bin { op, dst, .. } => {
            // On the surviving path a comparison (or short-circuit
            // operator) produced a bool; arithmetic is typed only
            // by the verifier's own rule, so stay conservative.
            let t = match op {
                BinOp::Add | BinOp::Sub => None,
                _ => Some(VarType::Bool),
            };
            set(*dst, t);
        }
        Op::Not { dst, .. } => set(*dst, Some(VarType::Bool)),
        // Past these, the source/result register survived an
        // `as_bool`, so it is `Bool` on every continuing path.
        Op::AssertBool { src } => set(*src, Some(VarType::Bool)),
        Op::JumpIfFalse { src, .. } | Op::JumpIfTrue { src, .. } => set(*src, Some(VarType::Bool)),
        Op::CmpBranch { dst, .. } | Op::LoadCmpBranch { dst, .. } => set(*dst, Some(VarType::Bool)),
        Op::Jump { .. } | Op::StoreVar { .. } | Op::ConstStore { .. } => {}
    }
}

/// Pass 1: retarget branches that land on an unconditional `Jump` to
/// its final destination. Targets only ever move forward.
fn thread_jumps(ops: &mut [Op]) -> bool {
    let mut changed = false;
    for i in 0..ops.len() {
        let Some(t0) = ops[i].target() else {
            continue;
        };
        let mut t = t0;
        while let Some(Op::Jump { target }) = ops.get(t as usize) {
            t = *target;
        }
        if t != t0 {
            *ops[i].target_mut().expect("has target") = t;
            changed = true;
        }
    }
    changed
}

/// Interns a value into the literal pool (deduplicating by equality).
/// Returns `None` if the pool is full.
fn intern(lits: &mut Vec<Value>, v: Value) -> Option<u16> {
    let idx = match lits.iter().position(|l| *l == v) {
        Some(i) => i,
        None => {
            if lits.len() >= u16::MAX as usize {
                return None;
            }
            lits.push(v);
            lits.len() - 1
        }
    };
    Some(idx as u16)
}

/// `true` when coercing a value of type `from` into a slot of type
/// `to` can never raise `TypeMismatch` (see `crate::exec::coerce`).
fn coerce_never_errors(from: VarType, to: VarType) -> bool {
    from == to
        || matches!(
            (from, to),
            (VarType::Int, VarType::Time)
                | (VarType::Time, VarType::Int)
                | (VarType::Int, VarType::Float)
        )
}

/// A store at `i` is dead when a same-slot store strictly later on the
/// same straight line overwrites it before any read of the slot, and
/// its own coercion provably cannot error (so removing it removes no
/// error surface).
fn store_is_dead(
    ops: &[Op],
    labels: &[bool],
    var_tys: &[VarType],
    i: usize,
    slot: u16,
    ty: Option<VarType>,
) -> bool {
    let Some(ty) = ty else {
        return false;
    };
    let Some(slot_ty) = var_tys.get(slot as usize) else {
        return false;
    };
    if !coerce_never_errors(ty, *slot_ty) {
        return false;
    }
    for (j, op) in ops.iter().enumerate().skip(i + 1) {
        if labels[j] || op.target().is_some() {
            return false;
        }
        match op {
            Op::LoadVar { slot: s, .. } | Op::LoadCmpBranch { slot: s, .. } if *s == slot => {
                return false;
            }
            Op::StoreVar { slot: s, .. } | Op::ConstStore { slot: s, .. } if *s == slot => {
                return true;
            }
            _ => {}
        }
    }
    false
}

/// Removes un-kept instructions in place, remapping every target to
/// the first kept instruction at or after it (removed instructions are
/// provably effect-free, so falling through them is equivalent).
fn compact_ops(ops: &mut Vec<Op>, keep: &[bool], map: &mut Vec<u32>) {
    map.clear();
    let mut n = 0u32;
    for &k in keep {
        map.push(n);
        if k {
            n += 1;
        }
    }
    map.push(n);
    let mut w = 0;
    for i in 0..ops.len() {
        if !keep[i] {
            continue;
        }
        let mut op = ops[i];
        if let Some(t) = op.target_mut() {
            *t = map[*t as usize];
        }
        ops[w] = op;
        w += 1;
    }
    ops.truncate(w);
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
