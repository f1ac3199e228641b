//! Pass 3: post-compile reachability.
//!
//! Walks the compiled transition graph from the initial state and flags
//! dead artifacts: states no event sequence can enter, and transitions
//! that can never fire — either because their source state is
//! unreachable or because no dispatch-table entry routes any event to
//! them. All findings are warnings (dead code wastes FRAM and review
//! attention but cannot misbehave); the hand-written-IR author or the
//! lowering pass is the intended audience.

use artemis_spec::Diagnostic;

use crate::compile::CompiledMachine;

/// Flags unreachable states and dead transitions of one compiled
/// machine. `state_names` come from the source machine (compiled
/// programs only keep indices).
pub fn check_reachability(
    m: &CompiledMachine,
    name: &str,
    state_names: &[String],
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let state_count = state_names.len();
    if state_count == 0 || m.initial_state as usize >= state_count {
        return diags;
    }
    let warn = |diags: &mut Vec<Diagnostic>, msg: String| {
        diags.push(Diagnostic::warning(
            "reachability",
            format!("machine `{name}`"),
            msg,
        ));
    };

    // One table: a dispatched flag per transition, then a reachable
    // flag per state.
    let tcount = m.transitions.len();
    let mut flags = vec![false; tcount + state_count];
    let (dispatched, reachable) = flags.split_at_mut(tcount);
    for k in 0..2 {
        let (tasks, wildcard) = m.kind_lists(k);
        for list in tasks.chain([wildcard]) {
            for &ti in list {
                if let Some(d) = dispatched.get_mut(ti as usize) {
                    *d = true;
                }
            }
        }
    }

    // Sweep the dispatched transitions until no state is added.
    reachable[m.initial_state as usize] = true;
    let mut grew = true;
    while grew {
        grew = false;
        for (ti, t) in m.transitions.iter().enumerate() {
            let (from, to) = (t.from as usize, t.to as usize);
            if dispatched[ti] && from < state_count && reachable[from] && to < state_count {
                grew |= !std::mem::replace(&mut reachable[to], true);
            }
        }
    }

    for (si, r) in reachable.iter().enumerate() {
        if !r {
            warn(
                &mut diags,
                format!(
                    "state `{}` is unreachable from the initial state",
                    state_names[si]
                ),
            );
        }
    }
    for (ti, t) in m.transitions.iter().enumerate() {
        if !dispatched[ti] {
            warn(
                &mut diags,
                format!("transition #{ti} is routed by no event key and can never fire"),
            );
        } else if (t.from as usize) < state_count && !reachable[t.from as usize] {
            warn(
                &mut diags,
                format!(
                    "transition #{ti} departs unreachable state `{}`",
                    state_names[t.from as usize]
                ),
            );
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsm::{StateMachine, TaskPat, Transition, Trigger};
    use artemis_core::app::{AppGraph, AppGraphBuilder};

    fn app() -> AppGraph {
        let mut b = AppGraphBuilder::new();
        let a = b.task("a");
        let s = b.task("b");
        b.path(&[a, s]);
        b.build().unwrap()
    }

    fn simple_transition(from: u32, to: u32) -> Transition {
        Transition {
            from,
            to,
            trigger: Trigger::Start(TaskPat::named("a")),
            guard: None,
            body: vec![],
            emit: None,
        }
    }

    #[test]
    fn dead_state_and_stranded_transition_are_flagged() {
        let mut m = StateMachine::new("m", "a");
        m.add_state("Live");
        m.add_state("Orphan");
        m.transitions.push(simple_transition(0, 0));
        // Departs the orphan state nothing ever enters.
        m.transitions.push(simple_transition(1, 0));
        let c = crate::CompiledMachine::compile(&m, &app()).unwrap();
        let diags = check_reachability(&c, &m.name, &m.states);
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("`Orphan` is unreachable")),
            "{diags:?}"
        );
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("departs unreachable state")),
            "{diags:?}"
        );
        assert!(diags.iter().all(|d| !d.is_error()));
    }

    #[test]
    fn fully_connected_machine_is_clean() {
        let mut m = StateMachine::new("m", "a");
        m.add_state("A");
        m.add_state("B");
        m.transitions.push(simple_transition(0, 1));
        m.transitions.push(simple_transition(1, 0));
        let c = crate::CompiledMachine::compile(&m, &app()).unwrap();
        assert!(check_reachability(&c, &m.name, &m.states).is_empty());
    }
}
