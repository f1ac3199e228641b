//! Pass 1: the bytecode verifier.
//!
//! [`crate::compile::CompiledMachine::step`] executes bytecode with raw
//! indexing — an out-of-bounds register, slot, literal or transition
//! index panics, and a backward jump loops forever. The compiler never
//! emits such programs, but the engine also accepts hand-assembled ones
//! (via [`crate::compile::RawMachine`]) and must survive arbitrary
//! mutations of compiled images. This pass proves, before a program
//! touches FRAM:
//!
//! - every transition's `from`/`to` state index, bytecode range and
//!   dispatch-table entry is in bounds;
//! - every instruction operand (register, slot, literal) is in bounds
//!   for the machine's declared sizes;
//! - every jump is **strictly forward** and lands inside `(pc, end]` of
//!   its range — which bounds execution time by the range length
//!   (termination, eBPF-style);
//! - every guard leaves a provably-boolean value in register 0, via a
//!   forward abstract interpretation with state merging at jump
//!   targets.
//!
//! The guarantee is one-sided by design: acceptance implies safe
//! execution; rejection of a program that would happen to run safely is
//! fine (the mutation fuzzers exercise exactly this asymmetry).
//! Runtime *evaluation* errors (type mismatches, missing `depData`) are
//! not safety hazards — `step` surfaces them as recoverable `Err`s —
//! so operand typing beyond the guard-result check is deliberately
//! permissive.

use core::ops::Range;

use artemis_spec::Diagnostic;

use crate::compile::{CompiledMachine, Op};
use crate::expr::{BinOp, VarType};

/// The source-machine facts a compiled program is verified against.
pub struct MachineEnv<'a> {
    /// Machine name, used in diagnostics.
    pub name: &'a str,
    /// Number of declared states; bounds `from`/`to`/`initial_state`.
    pub state_count: usize,
    /// Declared variable types in slot order; fixes the slot count and
    /// types `LoadVar` results (slot types are runtime-invariant:
    /// `StoreVar` coerces to the stored value's existing type).
    pub var_types: &'a [VarType],
}

/// What the verifier statically knows about one scratch register.
///
/// Registers persist across `exec` calls, so "unset" really means
/// "holds an arbitrary stale value" — safe to read (worst case a
/// recoverable evaluation error), but never provably boolean.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum AbsTy {
    /// Not written on this path; holds a stale value of unknown type.
    Unset,
    /// Definitely this type on every path reaching here.
    Known(VarType),
    /// Written, but with differing types across merged paths.
    Any,
}

fn join(a: AbsTy, b: AbsTy) -> AbsTy {
    if a == b {
        a
    } else {
        AbsTy::Any
    }
}

fn join_states(a: &mut [AbsTy], b: &[AbsTy]) {
    for (x, y) in a.iter_mut().zip(b) {
        *x = join(*x, *y);
    }
}

/// Verifies one compiled machine against its source-machine facts.
/// Returns all findings; an empty result certifies that
/// [`CompiledMachine::step`] cannot index out of bounds or fail to
/// terminate on any event, for any `(state, vars, regs)` of the
/// declared shapes.
pub fn verify_machine(m: &CompiledMachine, env: &MachineEnv) -> Vec<Diagnostic> {
    verify_machine_in(m, env, &mut Incoming::default())
}

/// [`verify_machine`] with its range states in `incoming`, which
/// [`crate::analyze_suite`] reuses across the machines of a suite.
pub(crate) fn verify_machine_in(
    m: &CompiledMachine,
    env: &MachineEnv,
    incoming: &mut Incoming,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let err = |diags: &mut Vec<Diagnostic>, msg: String| {
        diags.push(Diagnostic::error(
            "verifier",
            format!("machine `{}`", env.name),
            msg,
        ));
    };

    if m.var_count != env.var_types.len() {
        err(
            &mut diags,
            format!(
                "program declares {} variable slots but the source machine has {}",
                m.var_count,
                env.var_types.len()
            ),
        );
        return diags;
    }
    if m.max_regs > u16::MAX as usize + 1 {
        err(
            &mut diags,
            format!(
                "register file of {} exceeds the u16 operand space",
                m.max_regs
            ),
        );
        return diags;
    }
    if env.state_count > 0 && m.initial_state as usize >= env.state_count {
        err(
            &mut diags,
            format!(
                "initial state {} out of range ({} states)",
                m.initial_state, env.state_count
            ),
        );
    }

    // Dispatch tables may only reference existing transitions.
    let tcount = m.transitions.len();
    for (k, kind) in ["startTask", "endTask"].into_iter().enumerate() {
        let (tasks, wildcard) = m.kind_lists(k);
        for (task, list) in tasks.enumerate() {
            for &ti in list {
                if ti as usize >= tcount {
                    err(
                        &mut diags,
                        format!(
                            "dispatch[{kind}][task {task}] references transition #{ti}, \
                             but only {tcount} exist"
                        ),
                    );
                }
            }
        }
        for &ti in wildcard {
            if ti as usize >= tcount {
                err(
                    &mut diags,
                    format!(
                        "wildcard[{kind}] references transition #{ti}, but only {tcount} exist"
                    ),
                );
            }
        }
    }

    for (ti, t) in m.transitions.iter().enumerate() {
        if t.from as usize >= env.state_count || t.to as usize >= env.state_count {
            err(
                &mut diags,
                format!(
                    "transition #{ti}: state indices {}→{} out of range ({} states)",
                    t.from, t.to, env.state_count
                ),
            );
        }
        if let Some(g) = &t.guard {
            if m.max_regs == 0 {
                err(
                    &mut diags,
                    format!(
                        "transition #{ti}: guard needs register 0 but the register file is empty"
                    ),
                );
                continue;
            }
            match check_range(g, m.code.len()) {
                Err(msg) => err(&mut diags, format!("transition #{ti} guard: {msg}")),
                Ok(()) => {
                    if let Err(msg) = verify_range(m, env, g, true, incoming) {
                        err(&mut diags, format!("transition #{ti} guard: {msg}"));
                    }
                }
            }
        }
        match check_range(&t.body, m.code.len()) {
            Err(msg) => err(&mut diags, format!("transition #{ti} body: {msg}")),
            Ok(()) => {
                if let Err(msg) = verify_range(m, env, &t.body, false, incoming) {
                    err(&mut diags, format!("transition #{ti} body: {msg}"));
                }
            }
        }
    }

    diags
}

fn check_range(r: &Range<u32>, code_len: usize) -> Result<(), String> {
    if r.start > r.end || r.end as usize > code_len {
        return Err(format!(
            "bytecode range {}..{} invalid for {code_len} instructions",
            r.start, r.end
        ));
    }
    Ok(())
}

/// The register states arriving at the instructions of one range, in
/// buffers the ranges of one or more machines share: a row of
/// `max_regs` states per instruction some path reached so far (the
/// range exit included), and the state of the instruction being
/// interpreted.
#[derive(Default)]
pub(crate) struct Incoming {
    /// Row of each index in `states`; [`Incoming::NONE`] while no path
    /// reached it.
    row: Vec<u32>,
    /// The rows, one after another.
    states: Vec<AbsTy>,
    /// The running state.
    cur: Vec<AbsTy>,
}

impl Incoming {
    const NONE: u32 = u32::MAX;

    /// Starts a range of `len` instructions over `width` registers.
    fn reset(&mut self, len: usize, width: usize) {
        self.row.clear();
        self.row.resize(len + 1, Self::NONE);
        self.states.clear();
        self.cur.clear();
        self.cur.resize(width, AbsTy::Unset);
    }

    /// Joins `state` into the row of `idx`.
    fn arrive(&mut self, idx: usize, state: &[AbsTy]) {
        let w = state.len();
        match self.row[idx] {
            Self::NONE => {
                self.row[idx] = (self.states.len() / w.max(1)) as u32;
                self.states.extend_from_slice(state);
            }
            r => join_states(&mut self.states[r as usize * w..][..w], state),
        }
    }

    /// Merges the row of `idx` into the running state, which is live
    /// when `cur_live`; returns whether any path reaches `idx`.
    fn take(&mut self, idx: usize, cur_live: bool) -> bool {
        let w = self.cur.len();
        match self.row[idx] {
            Self::NONE => cur_live,
            r => {
                let row = &self.states[r as usize * w..][..w];
                if cur_live {
                    join_states(&mut self.cur, row);
                } else {
                    self.cur.copy_from_slice(row);
                }
                true
            }
        }
    }
}

/// Abstract interpretation of one instruction range: checks operand
/// bounds and forward-only jumps on every reachable instruction, merges
/// register states at jump targets, and (for guards) requires register
/// 0 to be `Known(Bool)` at every exit.
fn verify_range(
    m: &CompiledMachine,
    env: &MachineEnv,
    range: &Range<u32>,
    is_guard: bool,
    incoming: &mut Incoming,
) -> Result<(), String> {
    let start = range.start as usize;
    let end = range.end as usize;
    let len = end - start;

    let reg = |r: u16| -> Result<usize, String> {
        if (r as usize) < m.max_regs {
            Ok(r as usize)
        } else {
            Err(format!(
                "register r{r} out of range ({} registers)",
                m.max_regs
            ))
        }
    };

    // Row `i` is the merged register state for instruction
    // `start + i`; index `len` is the range-exit pseudo-target. The
    // entry state is every register unset.
    incoming.reset(len, m.max_regs);
    let mut live = true;

    for pc in start..end {
        let idx = pc - start;
        // No path reaches this instruction: dead code inside the range
        // never executes, so its operands are irrelevant to safety.
        live = incoming.take(idx, live);
        if !live {
            continue;
        }
        let Incoming { cur: st, .. } = incoming;
        let mut st = std::mem::take(st);

        // Records a branch state arriving at `target`.
        let branch =
            |target: u32, state: &[AbsTy], incoming: &mut Incoming| -> Result<(), String> {
                let t = target as usize;
                if t <= pc || t > end {
                    return Err(format!(
                        "op {pc}: jump target {t} not strictly forward within (..={end}]"
                    ));
                }
                incoming.arrive(t - start, state);
                Ok(())
            };

        let mut fallthrough = true;
        match m.code[pc] {
            Op::Const { dst, lit } => {
                let l = lit as usize;
                if l >= m.lits.len() {
                    return Err(format!(
                        "op {pc}: literal #{lit} out of range ({} literals)",
                        m.lits.len()
                    ));
                }
                st[reg(dst)?] = AbsTy::Known(m.lits[l].ty());
            }
            Op::LoadVar { dst, slot } => {
                let s = slot as usize;
                if s >= m.var_count {
                    return Err(format!(
                        "op {pc}: variable slot {slot} out of range ({} slots)",
                        m.var_count
                    ));
                }
                st[reg(dst)?] = AbsTy::Known(env.var_types[s]);
            }
            Op::LoadEventTime { dst } => st[reg(dst)?] = AbsTy::Known(VarType::Time),
            Op::LoadDepData { dst } => st[reg(dst)?] = AbsTy::Known(VarType::Float),
            Op::LoadEnergy { dst } => st[reg(dst)?] = AbsTy::Known(VarType::Int),
            Op::Bin { op, dst, a, b } => {
                let (a, b) = (reg(a)?, reg(b)?);
                let result = match op {
                    BinOp::And
                    | BinOp::Or
                    | BinOp::Lt
                    | BinOp::Le
                    | BinOp::Gt
                    | BinOp::Ge
                    | BinOp::Eq
                    | BinOp::Ne => AbsTy::Known(VarType::Bool),
                    // `apply` keeps the left operand's type for
                    // arithmetic; a mismatch errors at runtime (safe).
                    BinOp::Add | BinOp::Sub => match (st[a], st[b]) {
                        (AbsTy::Known(x), AbsTy::Known(y)) if x == y => AbsTy::Known(x),
                        _ => AbsTy::Any,
                    },
                };
                st[reg(dst)?] = result;
            }
            Op::Not { dst, src } => {
                // A non-bool source errors out at runtime, so past this
                // instruction the source was boolean.
                st[reg(src)?] = AbsTy::Known(VarType::Bool);
                st[reg(dst)?] = AbsTy::Known(VarType::Bool);
            }
            Op::AssertBool { src } => st[reg(src)?] = AbsTy::Known(VarType::Bool),
            Op::JumpIfFalse { src, target } | Op::JumpIfTrue { src, target } => {
                st[reg(src)?] = AbsTy::Known(VarType::Bool);
                branch(target, &st, incoming)?;
            }
            Op::Jump { target } => {
                branch(target, &st, incoming)?;
                fallthrough = false;
            }
            Op::StoreVar { slot, src } => {
                let s = slot as usize;
                if s >= m.var_count {
                    return Err(format!(
                        "op {pc}: variable slot {slot} out of range ({} slots)",
                        m.var_count
                    ));
                }
                reg(src)?;
            }
            Op::CmpBranch {
                dst, a, b, target, ..
            } => {
                // A non-bool result errors out at runtime (regardless
                // of the operator), so every surviving path — branch
                // taken or not — leaves a boolean in `dst`, exactly as
                // for `Not`/`AssertBool`.
                reg(a)?;
                reg(b)?;
                st[reg(dst)?] = AbsTy::Known(VarType::Bool);
                branch(target, &st, incoming)?;
            }
            Op::LoadCmpBranch {
                dst,
                slot,
                lit,
                target,
                ..
            } => {
                let s = slot as usize;
                if s >= m.var_count {
                    return Err(format!(
                        "op {pc}: variable slot {slot} out of range ({} slots)",
                        m.var_count
                    ));
                }
                let l = lit as usize;
                if l >= m.lits.len() {
                    return Err(format!(
                        "op {pc}: literal #{lit} out of range ({} literals)",
                        m.lits.len()
                    ));
                }
                st[reg(dst)?] = AbsTy::Known(VarType::Bool);
                branch(target, &st, incoming)?;
            }
            Op::ConstStore { slot, lit } => {
                let s = slot as usize;
                if s >= m.var_count {
                    return Err(format!(
                        "op {pc}: variable slot {slot} out of range ({} slots)",
                        m.var_count
                    ));
                }
                let l = lit as usize;
                if l >= m.lits.len() {
                    return Err(format!(
                        "op {pc}: literal #{lit} out of range ({} literals)",
                        m.lits.len()
                    ));
                }
            }
        }
        incoming.cur = st;
        live = fallthrough;
    }

    if is_guard {
        let exit = incoming.take(len, live).then_some(&incoming.cur);
        match exit {
            Some(st) if st[0] == AbsTy::Known(VarType::Bool) => {}
            Some(st) => {
                return Err(format!(
                    "guard does not leave a provable boolean in register 0 (found {:?})",
                    st[0]
                ))
            }
            None => return Err("guard range has no reachable exit".to_string()),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{CompiledSuite, RawMachine};
    use crate::expr::{Expr, Value};
    use crate::fsm::{StateMachine, Stmt, TaskPat, Transition, Trigger};
    use artemis_core::app::{AppGraph, AppGraphBuilder};

    fn app() -> AppGraph {
        let mut b = AppGraphBuilder::new();
        let a = b.task("a");
        let s = b.task("b");
        b.path(&[a, s]);
        b.build().unwrap()
    }

    fn counting_machine() -> StateMachine {
        let mut m = StateMachine::new("m", "a");
        m.add_var("i", VarType::Int, Value::Int(0));
        m.add_var("ok", VarType::Bool, Value::Bool(true));
        m.add_state("S");
        m.transitions.push(Transition {
            from: 0,
            to: 0,
            trigger: Trigger::Start(TaskPat::named("a")),
            guard: Some(Expr::and(
                Expr::var("ok"),
                Expr::bin(BinOp::Lt, Expr::var("i"), Expr::int(5)),
            )),
            body: vec![Stmt::Assign(
                "i".into(),
                Expr::bin(BinOp::Add, Expr::var("i"), Expr::int(1)),
            )],
            emit: None,
        });
        m
    }

    fn env_of(m: &StateMachine) -> (String, usize, Vec<VarType>) {
        (
            m.name.clone(),
            m.states.len(),
            m.vars.iter().map(|v| v.ty).collect(),
        )
    }

    fn verify(m: &StateMachine) -> (RawMachine, Vec<Diagnostic>) {
        let c = crate::CompiledMachine::compile(m, &app()).unwrap();
        let (name, state_count, var_types) = env_of(m);
        let diags = verify_machine(
            &c,
            &MachineEnv {
                name: &name,
                state_count,
                var_types: &var_types,
            },
        );
        (c.to_raw(), diags)
    }

    fn verify_raw(m: &StateMachine, raw: RawMachine) -> Vec<Diagnostic> {
        let (name, state_count, var_types) = env_of(m);
        verify_machine(
            &crate::CompiledMachine::from_raw(raw),
            &MachineEnv {
                name: &name,
                state_count,
                var_types: &var_types,
            },
        )
    }

    #[test]
    fn compiler_output_verifies_cleanly() {
        let m = counting_machine();
        let (_, diags) = verify(&m);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn whole_sample_suite_verifies_cleanly() {
        let mut b = AppGraphBuilder::new();
        let body = b.task("bodyTemp");
        let avg = b.task_with_var("calcAvg", "avgTemp");
        let heart = b.task("heartRate");
        let accel = b.task("accel");
        let classify = b.task("classify");
        let mic = b.task("micSense");
        let filter = b.task("filter");
        let send = b.task("send");
        b.path(&[body, avg, heart, send]);
        b.path(&[accel, classify, send]);
        b.path(&[mic, filter, send]);
        let app = b.build().unwrap();
        let suite = crate::compile(artemis_spec::samples::FIGURE5, &app).unwrap();
        let cs = CompiledSuite::compile(&suite, &app).unwrap();
        for (m, cm) in suite.machines().iter().zip(cs.machines()) {
            let (name, state_count, var_types) = env_of(m);
            let diags = verify_machine(
                cm,
                &MachineEnv {
                    name: &name,
                    state_count,
                    var_types: &var_types,
                },
            );
            assert!(diags.is_empty(), "machine {}: {diags:?}", m.name);
        }
    }

    #[test]
    fn out_of_bounds_slot_is_rejected() {
        let m = counting_machine();
        let (mut raw, _) = verify(&m);
        for op in raw.code.iter_mut() {
            if let Op::LoadVar { slot, .. } = op {
                *slot = 99;
            }
        }
        let diags = verify_raw(&m, raw);
        assert!(
            diags.iter().any(|d| d.message.contains("slot 99")),
            "{diags:?}"
        );
    }

    #[test]
    fn backward_jump_is_rejected() {
        let m = counting_machine();
        let (mut raw, _) = verify(&m);
        let mut mutated = false;
        for op in raw.code.iter_mut() {
            if let Op::JumpIfFalse { target, .. } = op {
                *target = 0;
                mutated = true;
            }
        }
        assert!(
            mutated,
            "compiled guard should contain a short-circuit jump"
        );
        let diags = verify_raw(&m, raw);
        assert!(
            diags.iter().any(|d| d.message.contains("forward")),
            "{diags:?}"
        );
    }

    #[test]
    fn out_of_range_transition_state_is_rejected() {
        let m = counting_machine();
        let (mut raw, _) = verify(&m);
        raw.transitions[0].to = 7;
        let diags = verify_raw(&m, raw);
        assert!(
            diags.iter().any(|d| d.message.contains("out of range")),
            "{diags:?}"
        );
    }

    #[test]
    fn dangling_dispatch_entry_is_rejected() {
        let m = counting_machine();
        let (mut raw, _) = verify(&m);
        raw.dispatch[0][0].push(9);
        let diags = verify_raw(&m, raw);
        assert!(
            diags.iter().any(|d| d.message.contains("transition #9")),
            "{diags:?}"
        );
    }

    #[test]
    fn non_boolean_guard_result_is_rejected() {
        let mut m = StateMachine::new("m", "a");
        m.add_var("i", VarType::Int, Value::Int(0));
        m.add_state("S");
        m.transitions.push(Transition {
            from: 0,
            to: 0,
            trigger: Trigger::Any,
            guard: Some(Expr::bin(BinOp::Lt, Expr::var("i"), Expr::int(5))),
            body: vec![],
            emit: None,
        });
        // Compile unoptimized so the comparison stays a plain `Bin`
        // (the optimizer would fuse it into a `LoadCmpBranch`, whose
        // result register is boolean by construction).
        let c =
            crate::CompiledMachine::compile_with(&m, &app(), crate::opt::OptLevel::None).unwrap();
        let mut raw = c.to_raw();
        // Rewrite the guard's comparison into an addition: register 0
        // now holds an int at guard exit.
        for op in raw.code.iter_mut() {
            if let Op::Bin { op: o, .. } = op {
                *o = BinOp::Add;
            }
        }
        let diags = verify_raw(&m, raw);
        assert!(
            diags.iter().any(|d| d.message.contains("boolean")),
            "{diags:?}"
        );
    }

    #[test]
    fn truncated_code_is_rejected() {
        let m = counting_machine();
        let (mut raw, _) = verify(&m);
        raw.code.truncate(1);
        let diags = verify_raw(&m, raw);
        assert!(!diags.is_empty());
    }

    #[test]
    fn var_count_mismatch_is_rejected() {
        let m = counting_machine();
        let (mut raw, _) = verify(&m);
        raw.var_count = 5;
        let diags = verify_raw(&m, raw);
        assert!(
            diags.iter().any(|d| d.message.contains("variable slots")),
            "{diags:?}"
        );
    }
}
