//! Property tests for the install-time energy feasibility analysis
//! (`artemis_ir::analysis::energy`) against the simulator, end to end
//! through the runtime.
//!
//! For randomly generated task costs and capacitor budgets over a
//! single-task app whose body matches its `TaskCostDecl` exactly:
//!
//! - **Soundness:** a task the analysis calls `Infeasible` really does
//!   DNF under `Harvester::FixedDelay` — every attempt browns out and
//!   replays, so the task never completes within the run limit. The
//!   gated install (`InstallOptions.energy = Some(..)`) rejects the
//!   same configurations with a typed `InstallError::Rejected` before
//!   allocating any FRAM.
//! - **No false rejections:** a task the analysis calls `Feasible`
//!   (outside the stated margin) installs cleanly and actually
//!   completes; `Marginal` tasks install with a warning and the
//!   analysis claims nothing about their outcome.

use artemis_core::app::{AppGraph, AppGraphBuilder, TaskCostDecl};
use artemis_core::time::SimDuration;
use artemis_ir::analysis::Verdict;
use artemis_monitor::{InstallError, InstallOptions, MonitorEngine};
use artemis_runtime::ArtemisRuntimeBuilder;
use intermittent_sim::capacitor::Capacitor;
use intermittent_sim::device::{Device, DeviceBuilder};
use intermittent_sim::harvester::Harvester;
use intermittent_sim::simulator::RunLimit;
use intermittent_sim::Energy;
use proptest::prelude::*;

/// A monitor that observes the task without ever escalating within the
/// run limit, so infeasible tasks are free to brown-out-loop instead of
/// being rescued by `skipPath`.
const SPEC: &str = "work: { maxTries: 4000 onFail: skipPath; }";

fn one_task_app(cost: TaskCostDecl) -> AppGraph {
    let mut b = AppGraphBuilder::new();
    let work = b.task("work");
    b.task_cost(work, cost);
    b.path(&[work]);
    b.build().expect("static graph is valid")
}

fn device(budget: Energy) -> Device {
    DeviceBuilder::msp430fr5994()
        .capacitor(Capacitor::with_budget(budget))
        .harvester(Harvester::FixedDelay(SimDuration::from_secs(10)))
        .build()
}

fn builder(app: AppGraph, cycles: u64, idle: SimDuration) -> ArtemisRuntimeBuilder {
    let mut rb = ArtemisRuntimeBuilder::new(app);
    rb.body("work", move |ctx| {
        ctx.idle(idle)?;
        ctx.compute(cycles)
    });
    rb
}

/// The analysis verdict for the generated configuration.
fn static_verdict(app: &AppGraph, budget: Energy) -> Verdict {
    let suite = artemis_ir::compile(SPEC, app).expect("spec compiles");
    let compiled =
        artemis_ir::compile::CompiledSuite::compile(&suite, app).expect("suite compiles");
    let profile = intermittent_sim::EnergyProfile::with_budget(budget);
    let bounds = artemis_ir::suite_bounds(&compiled, &profile);
    artemis_ir::analysis::task_feasibility(&compiled, &bounds, app, &profile)
        .into_iter()
        .find(|f| f.name == "work")
        .expect("task is analysed")
        .verdict
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn verdicts_pin_measured_forward_progress(
        budget_uj in 30u64..400,
        cycles in 0u64..500_000,
        idle_ms in 0u64..2_000,
    ) {
        let budget = Energy::from_micro_joules(budget_uj);
        let idle = SimDuration::from_millis(idle_ms);
        let cost = TaskCostDecl {
            compute_cycles: cycles,
            idle,
            extra_energy_pj: 0,
            extra_time_us: 0,
        };
        let app = one_task_app(cost);
        let verdict = static_verdict(&app, budget);

        // The install gate must mirror the verdict exactly: Infeasible
        // rejects with the typed diagnostic before FRAM allocation,
        // everything else installs.
        let mut dev = device(budget);
        let suite = artemis_ir::compile(SPEC, &app).expect("spec compiles");
        let opts = InstallOptions {
            energy: Some(dev.energy_profile()),
            ..InstallOptions::default()
        };
        let monitor_fram_before = dev
            .fram()
            .used_by(intermittent_sim::fram::MemOwner::Monitor);
        let gated = MonitorEngine::install_with(&mut dev, suite, &app, opts)
            .and_then(|engine| builder(app.clone(), cycles, idle).install_with(&mut dev, engine));
        match verdict {
            Verdict::Infeasible => {
                let err = gated.err().expect("infeasible task must be rejected");
                match err {
                    InstallError::Rejected(d) => {
                        prop_assert_eq!(d.pass, "energy");
                        prop_assert!(d.is_error());
                    }
                    other => return Err(TestCaseError::fail(format!(
                        "expected an analysis rejection, got {other}"
                    ))),
                }
                prop_assert_eq!(
                    dev.fram().used_by(intermittent_sim::fram::MemOwner::Monitor),
                    monitor_fram_before,
                    "rejection must precede FRAM allocation"
                );
            }
            Verdict::Feasible | Verdict::Marginal => {
                prop_assert!(gated.is_ok(), "verdict {verdict:?} must install");
            }
        }

        // Measured forward progress on an ungated device.
        let mut dev = device(budget);
        let suite = artemis_ir::compile(SPEC, &app).expect("spec compiles");
        let mut rt = builder(app.clone(), cycles, idle)
            .install(&mut dev, suite)
            .expect("ungated install succeeds");
        let work = rt.app().task_by_name("work").expect("task exists");
        // Enough for dozens of 10 s charge cycles; one completed pass
        // of the single task ends the run long before this.
        let out = rt.run_once(&mut dev, RunLimit::sim_time(SimDuration::from_secs(1_000)));
        let completions = dev.trace().completions_of(work);

        match verdict {
            Verdict::Infeasible => {
                // Soundness: the floor under-approximates any
                // successful attempt, so no attempt can ever finish.
                prop_assert_eq!(
                    completions, 0,
                    "infeasible task completed {} time(s) at {} (out: {:?})",
                    completions, budget, out
                );
            }
            Verdict::Feasible => {
                // No false rejection: outside the margin, the ceiling
                // really covers a full attempt, so the task completes.
                prop_assert!(out.is_completed(), "feasible run must complete: {out:?}");
                prop_assert!(completions > 0, "feasible task must complete at {budget}");
            }
            Verdict::Marginal => {} // within the stated margin: no claim
        }
    }
}
