//! Install-time static analysis over compiled monitor suites.
//!
//! PRs 1–2 made the engine execute ahead-of-time-compiled bytecode —
//! and trust it completely: nothing proved a program's slot, register
//! and jump indices in bounds, that its per-event FRAM footprint fits
//! the journal, or that two properties cannot hand the runtime
//! contradictory corrective actions on the same event. This module is
//! that proof, run once at `install()` time (in the spirit of the eBPF
//! verifier and Alpaca's static WAR-hazard analysis — intermittent
//! systems earn crash-correctness guarantees statically, not at
//! runtime):
//!
//! 1. [`verifier`] — per-machine bytecode verification: every
//!    register/variable-slot/state index and jump target in bounds,
//!    jumps strictly forward (termination), guards abstractly typed to
//!    a boolean result. A program the verifier accepts cannot index out
//!    of bounds or loop in [`crate::compile::CompiledMachine::step`]
//!    ("verifier accepts ⇒ engine safe" — pinned by the mutation
//!    fuzzers in `crates/ir/tests/verifier_fuzz.rs`).
//! 2. [`bounds`] — worst-case per-event FRAM reads/writes and
//!    journal-commit bytes, computed by walking the dispatch tables and
//!    the routing index, and the energy-sized cut of a worklist into
//!    commit groups ([`commit_groups`]) the engine runs at arming; the
//!    engine sizes its journal from them at install, and they are
//!    checked against measured dispatch-benchmark numbers in
//!    `artemis-bench`.
//! 3. [`reachability`] — dead states and transitions the optimiser
//!    produced or the spec implied.
//! 4. [`conflicts`] — event keys on which two machines can
//!    simultaneously signal conflicting `onFail` actions, with the
//!    arbitration order the runtime will apply.
//! 5. [`energy`] — per-task worst-case attempt energy (declared body
//!    cost + monitor overhead priced from the FRAM bounds through the
//!    device cost model) against the capacitor's usable budget:
//!    statically infeasible tasks reject the install before the
//!    brown-out/replay loop can ever happen on-device.
//!
//! All passes report through the unified [`artemis_spec::Diagnostic`]
//! type; errors reject the install, warnings surface on the trace.

pub mod bounds;
pub mod conflicts;
pub mod energy;
pub mod reachability;
pub mod verifier;

pub use bounds::{
    check_bounds, commit_groups, done_bytes, suite_bounds, EventCost, MemberCost, SuiteBounds,
};
pub use conflicts::check_conflicts;
pub use energy::{
    body_energy, check_energy, event_energy, event_energy_cached, task_feasibility,
    TaskFeasibility, Verdict, RUNTIME_ATTEMPT_OVERHEAD,
};
pub use reachability::check_reachability;
pub use verifier::{verify_machine, MachineEnv};

use artemis_spec::{sort_diagnostics, Diagnostic};
use intermittent_sim::EnergyProfile;

use crate::compile::CompiledSuite;
use crate::expr::VarType;
use crate::fsm::MonitorSuite;

/// The install gate's suite-level results: what an install of a suite
/// computes before it looks at the application's energy or the device's
/// FRAM, and so the same for every device of one energy profile.
/// [`CompiledSuite::install_facts`] keeps them per compiled suite.
#[derive(Clone, Debug)]
pub struct InstallFacts {
    /// [`suite_bounds`] for the device's profile.
    pub bounds: SuiteBounds,
    /// [`analyze_suite`] without the journal cross-check (the engine
    /// sizes its journal from `bounds`), errors first.
    pub diags: Vec<Diagnostic>,
}

impl InstallFacts {
    /// Runs both passes.
    pub(crate) fn compute(
        suite: &MonitorSuite,
        compiled: &CompiledSuite,
        profile: &EnergyProfile,
    ) -> Self {
        InstallFacts {
            bounds: suite_bounds(compiled, profile),
            diags: analyze_suite(suite, compiled, None),
        }
    }
}

/// Runs every analysis pass over a compiled suite paired with its
/// source machines. Returns all findings, errors first.
///
/// `journal` is the record capacity (bytes) of the journal the engine
/// will commit through, with the energy profile of the device it runs
/// on (its budget sizes the commit groups, and so the records); pass
/// `None` to skip the capacity cross-check (e.g. when linting outside
/// an install).
pub fn analyze_suite(
    suite: &MonitorSuite,
    compiled: &CompiledSuite,
    journal: Option<(usize, &EnergyProfile)>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    if suite.machines().len() != compiled.machines().len() {
        diags.push(Diagnostic::error(
            "verifier",
            "suite",
            format!(
                "compiled suite has {} machines but the source suite has {}",
                compiled.machines().len(),
                suite.machines().len()
            ),
        ));
        return diags;
    }

    for (m, cm) in suite.machines().iter().zip(compiled.machines()) {
        let var_types: Vec<VarType> = m.vars.iter().map(|v| v.ty).collect();
        let env = MachineEnv {
            name: &m.name,
            state_count: m.states.len(),
            var_types: &var_types,
        };
        diags.extend(verify_machine(cm, &env));
        diags.extend(check_reachability(cm, &m.name, &m.states));
    }

    diags.extend(check_conflicts(suite, compiled));
    diags.extend(check_bounds(compiled, journal));

    sort_diagnostics(&mut diags);
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use artemis_core::app::{AppGraph, AppGraphBuilder};

    fn health_app() -> AppGraph {
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
        b.build().unwrap()
    }

    /// The paper's own Figure 5 specification must pass the whole
    /// analysis with zero errors — it is the CI lint baseline.
    #[test]
    fn figure5_suite_has_no_errors() {
        let app = health_app();
        let suite = crate::compile(artemis_spec::samples::FIGURE5, &app).unwrap();
        let compiled = CompiledSuite::compile(&suite, &app).unwrap();
        let diags = analyze_suite(&suite, &compiled, None);
        assert!(
            diags.iter().all(|d| !d.is_error()),
            "unexpected errors: {diags:?}"
        );
    }

    #[test]
    fn machine_count_mismatch_is_an_error() {
        let app = health_app();
        let suite = crate::compile(artemis_spec::samples::FIGURE5, &app).unwrap();
        let compiled = CompiledSuite::compile(&suite, &app).unwrap();
        let mut shorter = crate::fsm::MonitorSuite::default();
        shorter.push(suite.machines()[0].clone());
        let diags = analyze_suite(&shorter, &compiled, None);
        assert!(diags.iter().any(|d| d.is_error()), "{diags:?}");
    }
}
