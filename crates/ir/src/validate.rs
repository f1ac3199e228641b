//! Static validation of IR machines.
//!
//! Generated machines are correct by construction; hand-written IR (the
//! escape hatch of §3.3) is checked before it reaches the monitor
//! engine: state/variable references must resolve, guards must be
//! boolean, `depData` may only be read under `endTask` triggers, and
//! unreachable transitions (shadowed by an earlier unguarded or
//! identically-guarded one) and write-only variables are flagged.
//! Each finding is a [`Diagnostic`] of pass `validate` whose subject
//! names the machine.

use std::collections::HashSet;
use std::ops::ControlFlow;

use artemis_spec::{sort_diagnostics, Diagnostic};

use crate::expr::{Expr, VarType};
use artemis_core::app::AppGraph;

use crate::fsm::{MonitorSuite, StateMachine, Stmt, TaskPat, Trigger};

/// A validation error in `m`: the machine would fail at runtime.
fn error(m: &StateMachine, message: String) -> Diagnostic {
    Diagnostic::error("validate", format!("machine `{}`", m.name), message)
}

/// A validation warning in `m`: suspicious but executable.
fn warning(m: &StateMachine, message: String) -> Diagnostic {
    Diagnostic::warning("validate", format!("machine `{}`", m.name), message)
}

/// What one walk of the validation rules keeps: every finding
/// ([`validate`]), or only the first error ([`validate_strict`]), in
/// which case the walk stops there and no warning is ever formatted.
struct Findings<'m> {
    m: &'m StateMachine,
    /// `false`: stop at the first error.
    all: bool,
    diags: Vec<Diagnostic>,
}

impl Findings<'_> {
    /// Records an error; breaks the walk when only the first is kept.
    fn error(&mut self, msg: impl FnOnce() -> String) -> ControlFlow<()> {
        self.diags.push(error(self.m, msg()));
        if self.all {
            ControlFlow::Continue(())
        } else {
            ControlFlow::Break(())
        }
    }

    /// Records a warning, when every finding is kept.
    fn warn(&mut self, msg: impl FnOnce() -> String) {
        if self.all {
            self.diags.push(warning(self.m, msg()));
        }
    }
}

/// Validates a machine; returns all findings (errors first).
pub fn validate(m: &StateMachine) -> Vec<Diagnostic> {
    let mut f = Findings {
        m,
        all: true,
        diags: Vec::new(),
    };
    let _ = walk(&mut f);
    sort_diagnostics(&mut f.diags);
    f.diags
}

/// Validates a machine and fails on its first error: the first error
/// [`validate`] lists, found by the same walk, which stops there.
pub fn validate_strict(m: &StateMachine) -> Result<(), Diagnostic> {
    let mut f = Findings {
        m,
        all: false,
        diags: Vec::new(),
    };
    let _ = walk(&mut f);
    f.diags.pop().map_or(Ok(()), Err)
}

/// The validation rules, in the order their findings are listed.
fn walk(f: &mut Findings) -> ControlFlow<()> {
    let m = f.m;
    if m.states.is_empty() {
        f.error(|| "machine has no states".into())?;
        return ControlFlow::Continue(());
    }
    if m.initial as usize >= m.states.len() {
        f.error(|| format!("initial state index {} out of range", m.initial))?;
    }

    // Duplicate names.
    for (i, v) in m.vars.iter().enumerate() {
        if m.vars[..i].iter().any(|w| w.name == v.name) {
            f.error(|| format!("duplicate variable `{}`", v.name))?;
        }
        if v.init.ty() != v.ty {
            f.error(|| {
                format!(
                    "variable `{}` declared {} but initialised with {}",
                    v.name,
                    v.ty.keyword(),
                    v.init.ty().keyword()
                )
            })?;
        }
    }
    for (i, s) in m.states.iter().enumerate() {
        if m.states[..i].iter().any(|r| r == s) {
            f.error(|| format!("duplicate state `{s}`"))?;
        }
    }

    for (ti, t) in m.transitions.iter().enumerate() {
        if t.from as usize >= m.states.len() || t.to as usize >= m.states.len() {
            f.error(|| format!("transition #{ti}: state index out of range"))?;
            continue;
        }
        let allows_dep_data = matches!(t.trigger, Trigger::End(_) | Trigger::Any);
        if let Some(g) = &t.guard {
            match infer(g, m) {
                Ok(VarType::Bool) => {}
                Ok(other) => f.error(|| {
                    format!(
                        "transition #{ti}: guard has type {}, expected bool",
                        other.keyword()
                    )
                })?,
                Err(e) => f.error(|| format!("transition #{ti}: {e}"))?,
            }
            if !allows_dep_data && mentions_dep_data(g) {
                f.error(|| format!("transition #{ti}: `depData` read under a startTask trigger"))?;
            }
        }
        for s in &t.body {
            check_stmt(s, ti, allows_dep_data, f)?;
        }

        // Shadowing: an earlier transition with the same source and an
        // overlapping trigger makes this one dead when it is unguarded
        // (always wins) or carries the identical guard (wins whenever
        // this one would fire).
        if !f.all {
            continue;
        }
        for (pi, p) in m.transitions[..ti].iter().enumerate() {
            if p.from != t.from || !triggers_overlap(&p.trigger, &t.trigger) {
                continue;
            }
            if p.guard.is_none() {
                f.warn(|| {
                    format!("transition #{ti}: unreachable, shadowed by unguarded transition #{pi}")
                });
            } else if p.guard == t.guard {
                f.warn(|| {
                    format!(
                        "transition #{ti}: unreachable, shadowed by transition #{pi} with an \
                         identical guard"
                    )
                });
            }
        }
    }
    if !f.all {
        return ControlFlow::Continue(());
    }

    // Write-only variables: assigned somewhere but read nowhere (no
    // guard, body expression or if-condition mentions them) — the
    // assignments burn FRAM commits for a value nothing observes.
    let mut reads = HashSet::new();
    let mut writes = HashSet::new();
    for t in &m.transitions {
        if let Some(g) = &t.guard {
            expr_reads(g, &mut reads);
        }
        for s in &t.body {
            stmt_reads_writes(s, &mut reads, &mut writes);
        }
    }
    for v in &m.vars {
        if writes.contains(v.name.as_str()) && !reads.contains(v.name.as_str()) {
            f.warn(|| format!("variable `{}` is assigned but never read", v.name));
        }
    }
    ControlFlow::Continue(())
}

/// The source-level checks of the install path, run by
/// [`CompiledSuite::compile_with`](crate::compile::CompiledSuite::compile_with)
/// (so by every engine install) and by the monitor crate's host-side
/// `Reference`: each machine passes [`validate_strict`], observes only
/// tasks of `app`, and has a governing path for every path-directed
/// action it emits. Fails on the first error.
pub fn check_source(suite: &MonitorSuite, app: &AppGraph) -> Result<(), Diagnostic> {
    for m in suite.machines() {
        validate_strict(m)?;
        let unknown = m.transitions.iter().find_map(|t| match &t.trigger {
            Trigger::Start(TaskPat::Named(n)) | Trigger::End(TaskPat::Named(n))
                if app.task_by_name(n).is_none() =>
            {
                Some(n)
            }
            _ => None,
        });
        if let Some(task) = unknown {
            return Err(error(m, format!("observes unknown task `{task}`")));
        }
        let mut emits = m.transitions.iter().filter_map(|t| t.emit.as_ref());
        if m.path.is_none() && emits.any(|e| e.path.is_none() && e.action.needs_path()) {
            return Err(error(
                m,
                "emits a path-directed action but has no governing path".into(),
            ));
        }
    }
    Ok(())
}

fn check_stmt(s: &Stmt, ti: usize, dep_ok: bool, f: &mut Findings) -> ControlFlow<()> {
    let m = f.m;
    match s {
        Stmt::Assign(name, e) => {
            let Some(idx) = m.var_index(name) else {
                return f.error(|| {
                    format!("transition #{ti}: assignment to unknown variable `{name}`")
                });
            };
            if !dep_ok && mentions_dep_data(e) {
                f.error(|| format!("transition #{ti}: `depData` read under a startTask trigger"))?;
            }
            match infer(e, m) {
                Ok(ty) => {
                    let declared = m.vars[idx].ty;
                    let compatible = ty == declared
                        || matches!(
                            (ty, declared),
                            (VarType::Int, VarType::Time)
                                | (VarType::Time, VarType::Int)
                                | (VarType::Int, VarType::Float)
                        );
                    if !compatible {
                        f.error(|| {
                            format!(
                                "transition #{ti}: assigning {} to `{name}: {}`",
                                ty.keyword(),
                                declared.keyword()
                            )
                        })?;
                    }
                }
                Err(e) => f.error(|| format!("transition #{ti}: {e}"))?,
            }
        }
        Stmt::If(cond, then_b, else_b) => {
            match infer(cond, m) {
                Ok(VarType::Bool) => {}
                Ok(other) => f.error(|| {
                    format!(
                        "transition #{ti}: if-condition has type {}, expected bool",
                        other.keyword()
                    )
                })?,
                Err(e) => f.error(|| format!("transition #{ti}: {e}"))?,
            }
            for s in then_b.iter().chain(else_b) {
                check_stmt(s, ti, dep_ok, f)?;
            }
        }
    }
    ControlFlow::Continue(())
}

/// Collects variable names an expression reads.
fn expr_reads<'m>(e: &'m Expr, out: &mut HashSet<&'m str>) {
    match e {
        Expr::Var(name) => {
            out.insert(name.as_str());
        }
        Expr::Bin(_, l, r) => {
            expr_reads(l, out);
            expr_reads(r, out);
        }
        Expr::Not(inner) => expr_reads(inner, out),
        _ => {}
    }
}

/// Collects variable names a statement reads and writes.
fn stmt_reads_writes<'m>(s: &'m Stmt, reads: &mut HashSet<&'m str>, writes: &mut HashSet<&'m str>) {
    match s {
        Stmt::Assign(name, e) => {
            writes.insert(name.as_str());
            expr_reads(e, reads);
        }
        Stmt::If(cond, then_b, else_b) => {
            expr_reads(cond, reads);
            for s in then_b.iter().chain(else_b) {
                stmt_reads_writes(s, reads, writes);
            }
        }
    }
}

fn triggers_overlap(a: &Trigger, b: &Trigger) -> bool {
    match (a, b) {
        (Trigger::Any, _) | (_, Trigger::Any) => true,
        (Trigger::Start(pa), Trigger::Start(pb)) | (Trigger::End(pa), Trigger::End(pb)) => {
            match (pa, pb) {
                (TaskPat::Any, _) | (_, TaskPat::Any) => true,
                (TaskPat::Named(x), TaskPat::Named(y)) => x == y,
            }
        }
        _ => false,
    }
}

fn mentions_dep_data(e: &Expr) -> bool {
    match e {
        Expr::DepData => true,
        Expr::Bin(_, l, r) => mentions_dep_data(l) || mentions_dep_data(r),
        Expr::Not(i) => mentions_dep_data(i),
        _ => false,
    }
}

/// Simple type inference over the expression language.
fn infer(e: &Expr, m: &StateMachine) -> Result<VarType, String> {
    use crate::expr::BinOp::*;
    match e {
        Expr::Lit(v) => Ok(v.ty()),
        Expr::Var(name) => m
            .vars
            .iter()
            .find(|v| v.name == *name)
            .map(|v| v.ty)
            .ok_or_else(|| format!("unknown variable `{name}`")),
        Expr::EventTime => Ok(VarType::Time),
        Expr::DepData => Ok(VarType::Float),
        Expr::EnergyLevel => Ok(VarType::Int),
        Expr::Not(i) => match infer(i, m)? {
            VarType::Bool => Ok(VarType::Bool),
            other => Err(format!("`!` applied to {}", other.keyword())),
        },
        Expr::Bin(op, l, r) => {
            let lt = infer(l, m)?;
            let rt = infer(r, m)?;
            let numeric = |t: VarType| matches!(t, VarType::Int | VarType::Time | VarType::Float);
            let comparable = lt == rt
                || (numeric(lt) && numeric(rt) && (lt == VarType::Float || rt == VarType::Float))
                || matches!(
                    (lt, rt),
                    (VarType::Int, VarType::Float) | (VarType::Float, VarType::Int)
                );
            match op {
                Add | Sub => {
                    if lt == rt && numeric(lt) {
                        Ok(lt)
                    } else {
                        Err(format!(
                            "arithmetic on {} and {}",
                            lt.keyword(),
                            rt.keyword()
                        ))
                    }
                }
                Lt | Le | Gt | Ge => {
                    if comparable && numeric(lt) && numeric(rt) {
                        Ok(VarType::Bool)
                    } else {
                        Err(format!(
                            "comparison of {} and {}",
                            lt.keyword(),
                            rt.keyword()
                        ))
                    }
                }
                Eq | Ne => {
                    if comparable || lt == rt {
                        Ok(VarType::Bool)
                    } else {
                        Err(format!("equality of {} and {}", lt.keyword(), rt.keyword()))
                    }
                }
                And | Or => {
                    if lt == VarType::Bool && rt == VarType::Bool {
                        Ok(VarType::Bool)
                    } else {
                        Err(format!(
                            "logical op on {} and {}",
                            lt.keyword(),
                            rt.keyword()
                        ))
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_machine;
    use artemis_spec::Severity;

    fn machine(src: &str) -> StateMachine {
        parse_machine(src).unwrap()
    }

    #[test]
    fn generated_machines_validate_cleanly() {
        let mut b = artemis_core::app::AppGraphBuilder::new();
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
        let set = artemis_spec::compile(artemis_spec::samples::FIGURE5, &app).unwrap();
        let suite = crate::lower::lower_set(&set, &app).unwrap();
        for m in suite.machines() {
            let issues = validate(m);
            assert!(
                issues.iter().all(|i| i.severity != Severity::Error),
                "machine {} has errors: {issues:?}",
                m.name
            );
        }
    }

    #[test]
    fn unknown_variable_in_guard_is_an_error() {
        let m = machine(
            "machine x task a persistent { state S initial; \
             on anyEvent from S to S if ghost > 0 { }; }",
        );
        let issues = validate(&m);
        assert!(issues
            .iter()
            .any(|i| i.severity == Severity::Error && i.message.contains("ghost")));
        assert!(validate_strict(&m).is_err());
    }

    #[test]
    fn non_bool_guard_is_an_error() {
        let m = machine(
            "machine x task a persistent { var i: int = 0; state S initial; \
             on anyEvent from S to S if i + 1 { }; }",
        );
        assert!(validate(&m)
            .iter()
            .any(|i| i.message.contains("expected bool")));
    }

    #[test]
    fn dep_data_under_start_trigger_is_an_error() {
        let m = machine(
            "machine x task a persistent { state S initial; \
             on startTask(a) from S to S if depData > 1.0 { }; }",
        );
        assert!(validate(&m).iter().any(|i| i.message.contains("depData")));
    }

    #[test]
    fn shadowed_transition_is_a_warning() {
        let m = machine(
            "machine x task a persistent { state S initial; \
             on startTask(a) from S to S { }; \
             on startTask(a) from S to S { } fail skipTask; }",
        );
        let issues = validate(&m);
        assert!(issues
            .iter()
            .any(|i| i.severity == Severity::Warning && i.message.contains("unreachable")));
        // Warnings do not fail strict validation.
        assert!(validate_strict(&m).is_ok());
    }

    #[test]
    fn equal_guard_shadowing_is_a_warning() {
        let m = machine(
            "machine x task a persistent { var i: int = 0; state S initial; \
             on startTask(a) from S to S if i > 2 { i := 0; }; \
             on startTask(a) from S to S if i > 2 { i := 1; } fail skipTask; }",
        );
        let issues = validate(&m);
        assert!(
            issues
                .iter()
                .any(|i| i.severity == Severity::Warning && i.message.contains("identical guard")),
            "{issues:?}"
        );
        // Distinct guards do not shadow.
        let m = machine(
            "machine x task a persistent { var i: int = 0; state S initial; \
             on startTask(a) from S to S if i > 2 { i := 0; }; \
             on startTask(a) from S to S if i > 3 { i := 1; }; }",
        );
        assert!(
            !validate(&m).iter().any(|i| i.message.contains("identical")),
            "different guards must not be flagged"
        );
    }

    #[test]
    fn write_only_variable_is_a_warning() {
        let m = machine(
            "machine x task a persistent { var dead: int = 0; var live: int = 0; \
             state S initial; \
             on startTask(a) from S to S if live < 5 { dead := 7; live := live + 1; }; }",
        );
        let issues = validate(&m);
        assert!(
            issues.iter().any(|i| i.severity == Severity::Warning
                && i.message.contains("`dead` is assigned but never read")),
            "{issues:?}"
        );
        assert!(
            !issues.iter().any(|i| i.message.contains("`live`")),
            "read variables must not be flagged: {issues:?}"
        );

        // A self-referencing increment reads the variable: not flagged.
        let m = machine(
            "machine x task a persistent { var n: int = 0; state S initial; \
             on startTask(a) from S to S { n := n + 1; }; }",
        );
        assert!(!validate(&m)
            .iter()
            .any(|i| i.message.contains("never read")),);
    }

    /// A finding names the validate pass and the machine it is in.
    #[test]
    fn issue_converts_to_diagnostic() {
        let m = machine(
            "machine m task a persistent { state S initial; \
             on anyEvent from S to S if ghost > 0 { }; }",
        );
        let d = validate_strict(&m).unwrap_err();
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.pass, "validate");
        assert_eq!(d.subject, "machine `m`");
    }

    #[test]
    fn type_mismatched_assignment_is_an_error() {
        let m = machine(
            "machine x task a persistent { var f: bool = false; state S initial; \
             on anyEvent from S to S { f := t; }; }",
        );
        assert!(validate(&m)
            .iter()
            .any(|i| i.message.contains("assigning time")));
    }

    #[test]
    fn int_time_widening_is_accepted() {
        let m = machine(
            "machine x task a persistent { var w: time = 0t; state S initial; \
             on anyEvent from S to S { w := 0; }; }",
        );
        assert!(validate_strict(&m).is_ok());
    }

    #[test]
    fn duplicate_names_are_errors() {
        let m = machine(
            "machine x task a persistent { var i: int = 0; var i: int = 1; \
             state S initial; state S; }",
        );
        let issues = validate(&m);
        assert!(issues
            .iter()
            .any(|i| i.message.contains("duplicate variable")));
        assert!(issues.iter().any(|i| i.message.contains("duplicate state")));
    }

    #[test]
    fn issue_display() {
        let m = machine(
            "machine m task a persistent { state S initial; \
             on anyEvent from S to S { }; on anyEvent from S to S { }; }",
        );
        let issues = validate(&m);
        assert_eq!(
            issues[0].to_string(),
            "warning [validate] machine `m`: transition #1: unreachable, shadowed by \
             unguarded transition #0"
        );
        assert!(
            validate_strict(&m).is_ok(),
            "warnings pass the strict check"
        );
    }
}
