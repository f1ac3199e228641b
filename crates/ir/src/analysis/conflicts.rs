//! Pass 4: cross-monitor conflict detection.
//!
//! Two machines armed by the same `(kind, task)` event key can both
//! take an emitting transition on one event and hand the runtime
//! contradictory corrective actions — `skipPath` vs `restartPath` on
//! the same path, or `skipTask` vs `restartTask`. The runtime resolves
//! such collisions deterministically (`Action::arbitrate`: the higher
//! severity rank wins — completePath > skipPath > restartPath >
//! skipTask > restartTask — and ties keep the earliest machine in suite
//! order), but a specification that *relies* on arbitration is usually
//! a specification bug, so this pass surfaces every such pair together
//! with the order the runtime will apply.
//!
//! Severity: a pair is an **error** only when both transitions are
//! provably co-fireable — unguarded and departing their machines'
//! initial states, so the very first matching event triggers both.
//! Guarded or deep-state pairs may never coincide at runtime (the
//! guards encode disjoint conditions the analysis cannot see), so they
//! are warnings. This keeps the paper's own Figure 5 specification —
//! whose `MITD` and `collect` properties share the `start(send)` key
//! with different path actions behind guards — lint-clean at error
//! level.

use std::collections::HashSet;

use artemis_core::action::Action;
use artemis_core::app::PathId;
use artemis_core::event::EventKind;
use artemis_core::property::OnFail;
use artemis_spec::Diagnostic;

use crate::compile::CompiledSuite;
use crate::fsm::MonitorSuite;

/// One machine's possible failure signal under a specific event key.
struct Candidate {
    machine: usize,
    action: OnFail,
    /// Effective one-based path number (`emit.path` falling back to the
    /// machine's governing path); `None` targets the current path.
    path: Option<u32>,
    /// `true` when the transition is unguarded and departs the initial
    /// state: the first matching event provably fires it.
    fires_initially: bool,
}

/// Detects event keys on which two machines can simultaneously signal
/// conflicting `onFail` actions. The source suite supplies machine
/// names and governing paths; the compiled suite supplies routing and
/// dispatch.
pub fn check_conflicts(suite: &MonitorSuite, compiled: &CompiledSuite) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut reported: HashSet<(usize, usize, &'static str, &'static str)> = HashSet::new();
    let machines = compiled.machines();
    let task_count = compiled.task_count();

    for kind in [EventKind::StartTask, EventKind::EndTask] {
        for key_task in 0..=task_count {
            let (probe, task_label) = if key_task == task_count {
                (u32::MAX, "<any>".to_string())
            } else {
                (
                    key_task as u32,
                    compiled.task_name(key_task as u32).to_string(),
                )
            };
            let armed = compiled.routing().interested(kind, probe);
            if armed.len() < 2 {
                continue;
            }

            // Collect each armed machine's possible signals under this
            // key.
            let mut candidates: Vec<Candidate> = Vec::new();
            for &mi in armed {
                let mi = mi as usize;
                let cm = &machines[mi];
                let src = suite.machines().get(mi);
                for &ti in cm.transition_list(kind, probe) {
                    let t = &cm.transitions[ti as usize];
                    let Some(emit) = &t.emit else { continue };
                    candidates.push(Candidate {
                        machine: mi,
                        action: emit.action,
                        path: emit.path.or(src.and_then(|m| m.path)),
                        fires_initially: t.guard.is_none() && t.from == cm.initial_state,
                    });
                }
            }

            for (i, a) in candidates.iter().enumerate() {
                for b in &candidates[i + 1..] {
                    if a.machine == b.machine || a.action == b.action {
                        continue;
                    }
                    // Task-scoped and path-scoped actions act at different
                    // granularity; two path actions clash on one path.
                    let path_scoped = a.action.needs_path();
                    let conflicting = path_scoped == b.action.needs_path()
                        && (!path_scoped
                            || a.path.is_none()
                            || b.path.is_none()
                            || a.path == b.path);
                    if !conflicting {
                        continue;
                    }
                    let key = (
                        a.machine.min(b.machine),
                        a.machine.max(b.machine),
                        a.action.keyword(),
                        b.action.keyword(),
                    );
                    if !reported.insert(key) {
                        continue;
                    }

                    let name = |mi: usize| {
                        suite
                            .machines()
                            .get(mi)
                            .map(|m| m.name.as_str())
                            .unwrap_or("?")
                            .to_string()
                    };
                    let (na, nb) = (name(a.machine), name(b.machine));
                    // The runtime's own arbitration; `a` comes first in
                    // suite order, and distinct actions never tie.
                    let proposal = |c: &Candidate| c.action.action(PathId(0));
                    let winner =
                        if Action::arbitrate(&[proposal(a), proposal(b)]) == Some(proposal(a)) {
                            (na.clone(), a.action)
                        } else {
                            (nb.clone(), b.action)
                        };
                    let kind_kw = match kind {
                        EventKind::StartTask => "startTask",
                        EventKind::EndTask => "endTask",
                    };
                    let provable = a.fires_initially && b.fires_initially;
                    let msg = format!(
                        "on {kind_kw}({task_label}) both can signal: `{na}` → {} vs `{nb}` → {}; \
                         arbitration applies `{}` → {} (higher severity rank wins, ties keep \
                         the earlier machine)",
                        a.action.keyword(),
                        b.action.keyword(),
                        winner.0,
                        winner.1.keyword(),
                    );
                    let subject = format!("machines `{na}`/`{nb}`");
                    diags.push(if provable {
                        Diagnostic::error("conflicts", subject, msg)
                    } else {
                        Diagnostic::warning("conflicts", subject, msg)
                    });
                }
            }
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

    fn machine_with_emit(name: &str, guarded: bool, action: OnFail) -> crate::fsm::StateMachine {
        use crate::expr::{Expr, Value, VarType};
        use crate::fsm::{EmitFail, StateMachine, TaskPat, Transition, Trigger};
        let mut m = StateMachine::new(name, "a");
        // A path action compiles only with a governing path.
        m.path = Some(1);
        m.add_var("i", VarType::Int, Value::Int(0));
        m.add_state("S");
        m.transitions.push(Transition {
            from: 0,
            to: 0,
            trigger: Trigger::Start(TaskPat::named("a")),
            guard: guarded.then(|| Expr::bin(crate::expr::BinOp::Gt, Expr::var("i"), Expr::int(3))),
            body: vec![],
            emit: Some(EmitFail { action, path: None }),
        });
        m
    }

    fn conflicts_of(ms: Vec<crate::fsm::StateMachine>) -> Vec<Diagnostic> {
        let app = app();
        let mut suite = crate::fsm::MonitorSuite::default();
        for m in ms {
            suite.push(m);
        }
        let cs = CompiledSuite::compile(&suite, &app).unwrap();
        check_conflicts(&suite, &cs)
    }

    #[test]
    fn unguarded_initial_conflict_is_an_error() {
        let diags = conflicts_of(vec![
            machine_with_emit("skips", false, OnFail::SkipTask),
            machine_with_emit("restarts", false, OnFail::RestartTask),
        ]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].is_error());
        assert!(diags[0].message.contains("skipTask"));
        assert!(diags[0].message.contains("restartTask"));
        // skipTask outranks restartTask in arbitration.
        assert!(
            diags[0].message.contains("applies `skips`"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn guarded_conflict_is_a_warning() {
        let diags = conflicts_of(vec![
            machine_with_emit("skips", true, OnFail::SkipPath),
            machine_with_emit("restarts", true, OnFail::RestartPath),
        ]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(!diags[0].is_error());
        assert!(diags[0].message.contains("arbitration"));
    }

    #[test]
    fn same_action_or_disjoint_scope_is_clean() {
        // Identical actions cannot contradict.
        let diags = conflicts_of(vec![
            machine_with_emit("x", false, OnFail::SkipTask),
            machine_with_emit("y", false, OnFail::SkipTask),
        ]);
        assert!(diags.is_empty(), "{diags:?}");
        // Task-scoped vs path-scoped operate at different granularity.
        let diags = conflicts_of(vec![
            machine_with_emit("x", false, OnFail::SkipTask),
            machine_with_emit("y", false, OnFail::RestartPath),
        ]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn distinct_paths_do_not_conflict() {
        use crate::fsm::EmitFail;
        let mut a = machine_with_emit("p1", false, OnFail::SkipPath);
        a.transitions[0].emit = Some(EmitFail {
            action: OnFail::SkipPath,
            path: Some(1),
        });
        let mut b = machine_with_emit("p2", false, OnFail::RestartPath);
        b.transitions[0].emit = Some(EmitFail {
            action: OnFail::RestartPath,
            path: Some(2),
        });
        let diags = conflicts_of(vec![a, b]);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
