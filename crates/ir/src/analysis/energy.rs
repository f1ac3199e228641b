//! Pass 5: install-time energy feasibility.
//!
//! Intermittent systems fail in a mode conventional static analysis
//! never sees: a task whose single atomic attempt draws more than the
//! capacitor can buffer will brown out *every* attempt, reboot, replay
//! the attempt from its last commit point, and brown out again —
//! forever. The device is "running" but the application makes no
//! forward progress (the Figure-12 DNF regime). ETAP and CleanCut
//! showed the countermeasure: bound per-attempt energy statically and
//! compare it against the buffered budget *before* deployment.
//!
//! This pass does that at install time. Per task it derives the
//! worst-case energy of one atomic execution attempt —
//!
//! - the **declared body cost** ([`artemis_core::app::TaskCostDecl`]):
//!   compute cycles and low-power idle time priced through the
//!   device's [`CostModel`], plus self-priced extras (peripheral
//!   samples, radio packets, channel traffic);
//! - the **monitor overhead** of the `StartTask`/`EndTask` events the
//!   runtime delivers around the body, priced from the static FRAM
//!   op/byte/cycle bounds of [`super::bounds`] through the same cost
//!   model ([`CostModel::traffic_energy`]);
//! - a constant **runtime-protocol allowance**
//!   ([`RUNTIME_ATTEMPT_OVERHEAD`]) covering the task runtime's own
//!   attempt bookkeeping (attempt counter, finish commit, scheduler
//!   advance).
//!
//! and compares it against the capacitor's usable budget
//! (`Capacitor::usable_budget()`, carried in
//! [`intermittent_sim::EnergyProfile`]).
//!
//! # Soundness: a floor and a ceiling
//!
//! The analysis computes **two** numbers per task so that each verdict
//! direction rests on a bound with the right sign:
//!
//! - the **floor** under-approximates any successful attempt: the
//!   declared body cost plus only the *arming records* of the two
//!   events — the header run every delivery commits in its group 0
//!   record even when no machine has an effect, FRAM writes the
//!   write-through shadow cache can never absorb. If even
//!   the floor exceeds the budget, no attempt can complete on a
//!   harvester that only recharges between outages (e.g.
//!   `Harvester::FixedDelay`): **Infeasible** is an error and the
//!   install is rejected before any FRAM is allocated.
//! - the **ceiling** over-approximates a worst-case attempt: declared
//!   body cost + runtime allowance + the full post-reboot worst-case
//!   event cost, every read priced as if the shadow cache held
//!   nothing (a warm delivery reads nothing; a cold one reads at most
//!   `cold_extra_reads ≤ reads` ops and `cold_read_bytes ≤ read_bytes`
//!   bytes, machine blocks priced whole as a cold fill reads them) and
//!   the cold load's worklist re-derivation charged. If the ceiling
//!   fits under the budget less the configured margin, the
//!   task is **Feasible**. Between the two — the ceiling crosses the
//!   margin threshold but the floor still fits — the verdict is
//!   **Marginal**, surfaced as a warning: the task may complete, but
//!   the static guarantee is gone.
//!
//! Declarations are trusted as *lower* bounds on the body ("the draw
//! of one successful execution"), so an understated declaration can
//! weaken a warning but never manufacture a false Infeasible error.
//! The exactness of the monitor-side pricing is pinned against the
//! simulator's measured per-attempt draw by
//! `bounds_model_matches_engine`-style energy tests in
//! `artemis-monitor`, and verdict/outcome agreement is swept by the
//! `energy` benchmark in `artemis-bench`.

use artemis_core::app::{AppGraph, TaskCostDecl, TaskId};
use artemis_core::event::EventKind;
use artemis_spec::Diagnostic;
use intermittent_sim::{CostModel, Energy, EnergyProfile};

use crate::analysis::bounds::{EventCost, SuiteBounds, ROUTING_LOOKUP_CYCLES};
use crate::compile::CompiledSuite;

/// Constant allowance for the task runtime's own per-attempt FRAM
/// bookkeeping outside the monitor engine: the attempt-counter
/// read/write, the multi-entry finish commit, and the scheduler
/// advance commit. Sized generously above the measured protocol cost
/// on the default cost model (≈1.1 µJ) so the ceiling stays an
/// over-approximation; the margin semantics absorb the slack.
pub const RUNTIME_ATTEMPT_OVERHEAD: Energy = Energy::from_nano_joules(2_500);

/// Energy of one worst-case event delivery under `cost` with every
/// read priced (`EventCost::reads` and `read_bytes`) and the cold
/// load's re-derivation of the previous one-event delivery's worklist
/// charged: the post-reboot ceiling the feasibility gate charges. The
/// monitor crate checks always-cold deliveries against it.
pub fn event_energy(cost: &EventCost, model: &CostModel) -> Energy {
    model.traffic_energy(
        cost.reads,
        cost.read_bytes,
        cost.writes,
        cost.write_bytes,
        cost.cycles + ROUTING_LOOKUP_CYCLES,
    )
}

/// Energy of one worst-case event delivery with the volatile shadow
/// cache warm (steady state): the writes and cycles of
/// [`event_energy`], and no read. The monitor crate pins it against
/// the simulator's measured draw.
pub fn event_energy_cached(cost: &EventCost, model: &CostModel) -> Energy {
    model.traffic_energy(0, 0, cost.writes, cost.write_bytes, cost.cycles)
}

/// Energy of the arming record alone — the write-only monitor floor
/// every delivered event pays, warm or cold.
pub(crate) fn arming_energy(cost: &EventCost, model: &CostModel) -> Energy {
    model.traffic_energy(0, 0, cost.arming_writes, cost.arming_write_bytes, 0)
}

/// Energy of one declared task body execution priced through `model`:
/// compute cycles + low-power idle + self-priced extras.
pub fn body_energy(decl: &TaskCostDecl, model: &CostModel) -> Energy {
    model
        .energy_per_cycle
        .saturating_mul(decl.compute_cycles)
        .saturating_add(Energy::from_power(model.idle_power_nanowatts, decl.idle))
        .saturating_add(Energy::from_pico_joules(decl.extra_energy_pj))
}

/// Static forward-progress verdict for one task.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// The worst-case attempt fits under the budget with margin.
    Feasible,
    /// The worst-case attempt crosses the margin threshold but the
    /// floor still fits: the task may complete, without guarantee.
    Marginal,
    /// Even the under-approximated attempt exceeds the budget: no
    /// attempt can ever complete on a between-outages harvester.
    Infeasible,
}

/// Per-task result of the energy feasibility analysis.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TaskFeasibility {
    /// Dense task id.
    pub task: u32,
    /// Source-level task name.
    pub name: String,
    /// Under-approximation of any successful attempt: declared body
    /// cost + the two events' arming records only.
    pub floor: Energy,
    /// Over-approximation of the worst-case attempt: declared body
    /// cost + [`RUNTIME_ATTEMPT_OVERHEAD`] + full post-reboot
    /// `StartTask` + `EndTask` worst cases.
    pub ceiling: Energy,
    /// The verdict `floor`/`ceiling` imply under the profile's budget
    /// and margin.
    pub verdict: Verdict,
}

/// Computes per-task attempt-energy bounds and verdicts for every task
/// of `app` against `profile`.
///
/// `bounds` must be the [`suite_bounds`](super::suite_bounds) of
/// `compiled` on the device the profile describes (its budget sizes
/// the commit groups the bounds price); passing bounds of a different
/// suite yields nonsense verdicts (but no unsafety — everything here
/// is arithmetic).
pub fn task_feasibility(
    compiled: &CompiledSuite,
    bounds: &SuiteBounds,
    app: &AppGraph,
    profile: &EnergyProfile,
) -> Vec<TaskFeasibility> {
    let threshold = profile.margin_threshold();
    let key = |kind: EventKind, task: u32| {
        bounds
            .per_key
            .iter()
            .find(|c| c.kind == kind && c.task == Some(task))
    };

    (0..compiled.task_count() as u32)
        .map(|t| {
            let body = body_energy(&app.task_cost(TaskId(t)), &profile.model);
            let mut floor = body;
            let mut ceiling = body.saturating_add(RUNTIME_ATTEMPT_OVERHEAD);
            for kind in [EventKind::StartTask, EventKind::EndTask] {
                if let Some(cost) = key(kind, t) {
                    floor = floor.saturating_add(arming_energy(cost, &profile.model));
                    ceiling = ceiling.saturating_add(event_energy(cost, &profile.model));
                }
            }
            let verdict = if floor > profile.budget {
                Verdict::Infeasible
            } else if ceiling > threshold {
                Verdict::Marginal
            } else {
                Verdict::Feasible
            };
            TaskFeasibility {
                task: t,
                name: compiled.task_name(t).to_string(),
                floor,
                ceiling,
                verdict,
            }
        })
        .collect()
}

/// Cross-checks every task's attempt energy against the device energy
/// profile. Infeasible tasks produce errors (the install must be
/// rejected before FRAM allocation); Marginal tasks produce warnings.
pub fn check_energy(
    compiled: &CompiledSuite,
    bounds: &SuiteBounds,
    app: &AppGraph,
    profile: &EnergyProfile,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for f in task_feasibility(compiled, bounds, app, profile) {
        match f.verdict {
            Verdict::Infeasible => diags.push(Diagnostic::error(
                "energy",
                format!("task {}", f.name),
                format!(
                    "one atomic attempt needs at least {} but the capacitor buffers only {}: \
                     the task can never complete (every attempt browns out and replays)",
                    f.floor, profile.budget
                ),
            )),
            Verdict::Marginal => diags.push(Diagnostic::warning(
                "energy",
                format!("task {}", f.name),
                format!(
                    "worst-case attempt energy {} is within {}% of the {} budget \
                     (margin threshold {})",
                    f.ceiling,
                    profile.margin_percent,
                    profile.budget,
                    profile.margin_threshold()
                ),
            )),
            Verdict::Feasible => {}
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use artemis_core::app::{AppGraph, AppGraphBuilder};
    use artemis_core::time::SimDuration;

    fn app_with_costs(cycles: u64) -> AppGraph {
        let mut b = AppGraphBuilder::new();
        let a = b.task("a");
        let s = b.task("b");
        b.task_cost(
            a,
            TaskCostDecl {
                compute_cycles: cycles,
                idle: SimDuration::from_millis(1),
                extra_energy_pj: 0,
                extra_time_us: 0,
            },
        );
        b.path(&[a, s]);
        b.build().unwrap()
    }

    /// The 800 µJ wearable profile the bounds are derived for.
    fn roomy() -> EnergyProfile {
        EnergyProfile::with_budget(Energy::from_micro_joules(800))
    }

    fn compiled(app: &AppGraph) -> CompiledSuite {
        let suite = crate::compile("a { maxTries: 2 onFail: skipPath; }", app).unwrap();
        CompiledSuite::compile(&suite, app).unwrap()
    }

    #[test]
    fn floor_is_below_ceiling_and_tracks_declared_cost() {
        let app = app_with_costs(10_000);
        let cs = compiled(&app);
        let b = crate::analysis::suite_bounds(&cs, &roomy());
        let profile = EnergyProfile::with_budget(Energy::from_micro_joules(800));
        let fs = task_feasibility(&cs, &b, &app, &profile);
        assert_eq!(fs.len(), 2);
        let fa = &fs[0];
        assert_eq!(fa.name, "a");
        assert!(fa.floor < fa.ceiling, "{fa:?}");
        // The floor includes the declared body (10k cycles ≈ 3.6 µJ +
        // 1 ms idle ≈ 3 nJ) plus two write-only arming records.
        assert!(fa.floor > Energy::from_micro_joules(3));
        assert_eq!(fa.verdict, Verdict::Feasible);
        // The undeclared task still pays monitor + runtime overhead.
        let fb = &fs[1];
        assert!(fb.floor > Energy::from_pico_joules(0));
        assert!(fb.floor < fa.floor);
    }

    #[test]
    fn verdicts_degrade_as_the_budget_shrinks() {
        let app = app_with_costs(100_000);
        let cs = compiled(&app);
        let b = crate::analysis::suite_bounds(&cs, &roomy());
        let fa = |budget| {
            let profile = EnergyProfile::with_budget(budget);
            task_feasibility(&cs, &b, &app, &profile)[0].clone()
        };
        // 100k cycles ≈ 36 µJ of compute alone.
        let generous = fa(Energy::from_micro_joules(800));
        assert_eq!(generous.verdict, Verdict::Feasible);
        // Just above the ceiling but within the 10% margin band.
        let tight = fa(Energy::from_pico_joules(
            generous.ceiling.as_pico_joules() + 1,
        ));
        assert_eq!(tight.verdict, Verdict::Marginal);
        // Below the floor: impossible.
        let hopeless = fa(Energy::from_pico_joules(
            generous.floor.as_pico_joules() - 1,
        ));
        assert_eq!(hopeless.verdict, Verdict::Infeasible);
        // Monotone: floor ≤ ceiling regardless of budget.
        assert!(generous.floor <= generous.ceiling);
    }

    #[test]
    fn check_energy_maps_verdicts_to_diagnostics() {
        let app = app_with_costs(100_000);
        let cs = compiled(&app);
        let b = crate::analysis::suite_bounds(&cs, &roomy());
        let ok = EnergyProfile::with_budget(Energy::from_micro_joules(800));
        assert!(check_energy(&cs, &b, &app, &ok).is_empty());

        let starved = EnergyProfile::with_budget(Energy::from_micro_joules(1));
        let diags = check_energy(&cs, &b, &app, &starved);
        assert!(
            diags
                .iter()
                .any(|d| d.is_error() && d.pass == "energy" && d.subject.contains("task a")),
            "{diags:?}"
        );

        let fs = task_feasibility(&cs, &b, &app, &ok);
        let marginal = EnergyProfile::with_budget(Energy::from_pico_joules(
            fs[0].ceiling.as_pico_joules() + 1,
        ));
        let diags = check_energy(&cs, &b, &app, &marginal);
        assert!(
            diags.iter().any(|d| !d.is_error() && d.pass == "energy"),
            "{diags:?}"
        );
    }

    #[test]
    fn cached_event_energy_never_exceeds_uncached() {
        let app = app_with_costs(0);
        let cs = compiled(&app);
        let b = crate::analysis::suite_bounds(&cs, &roomy());
        let model = CostModel::msp430fr5994();
        for cost in &b.per_key {
            assert!(event_energy_cached(cost, &model) <= event_energy(cost, &model));
            assert!(arming_energy(cost, &model) <= event_energy_cached(cost, &model));
        }
    }

    /// The bytecode optimizer must strictly tighten the energy
    /// ceilings wherever it shrinks a key's static step cost — and can
    /// never loosen any ceiling. Fused guards on the `maxTries` start
    /// key lower the cycle bound, so the feasibility gate prices a
    /// genuinely smaller worst case under `OptLevel::Full`, with zero
    /// risk: the unoptimized oracle's ceilings stay an upper bound.
    #[test]
    fn optimizer_tightens_the_ceilings() {
        use crate::opt::OptLevel;
        let app = app_with_costs(10_000);
        let suite = crate::compile("a { maxTries: 2 onFail: skipPath; }", &app).unwrap();
        let full = CompiledSuite::compile_with(&suite, &app, OptLevel::Full).unwrap();
        let none = CompiledSuite::compile_with(&suite, &app, OptLevel::None).unwrap();
        let model = CostModel::msp430fr5994();
        let bf = crate::analysis::suite_bounds(&full, &roomy());
        let bn = crate::analysis::suite_bounds(&none, &roomy());
        assert_eq!(bf.per_key.len(), bn.per_key.len());
        let mut strictly_tighter = 0usize;
        for (f, n) in bf.per_key.iter().zip(bn.per_key.iter()) {
            assert_eq!((f.kind, f.task), (n.kind, n.task));
            assert!(
                event_energy(f, &model) <= event_energy(n, &model),
                "optimization loosened a ceiling: {f:?} vs {n:?}"
            );
            assert!(event_energy_cached(f, &model) <= event_energy_cached(n, &model));
            // Keys that dispatch the guard-bearing transitions must
            // price strictly below the unoptimized oracle.
            if full.machines()[0].dispatch_len(f.kind, f.task.unwrap_or(u32::MAX)) > 0 {
                assert!(
                    event_energy(f, &model) < event_energy(n, &model),
                    "dispatching key did not tighten: {f:?} vs {n:?}"
                );
                strictly_tighter += 1;
            }
        }
        assert!(strictly_tighter > 0, "no key tightened at all");
        // The install gate's per-task ceilings inherit the tightening.
        let profile = EnergyProfile::with_budget(Energy::from_micro_joules(800));
        let ff = task_feasibility(&full, &bf, &app, &profile);
        let fn_ = task_feasibility(&none, &bn, &app, &profile);
        for (f, n) in ff.iter().zip(fn_.iter()) {
            assert!(
                f.ceiling <= n.ceiling,
                "{}: {:?} vs {:?}",
                f.name,
                f.ceiling,
                n.ceiling
            );
        }
        let fa = ff.iter().find(|f| f.name == "a").unwrap();
        let na = fn_.iter().find(|f| f.name == "a").unwrap();
        assert!(
            fa.ceiling < na.ceiling,
            "task a's ceiling must strictly tighten"
        );
    }
}
