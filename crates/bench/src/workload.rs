//! Seeded random workload generation: task graphs, bodies, and
//! property specifications for stress-testing the full stack.
//!
//! The generator produces *viable* workloads by construction — task
//! costs bounded well under the capacitor budgets the stress tests
//! sweep, `maxTries`/`maxAttempt` escapes on anything that can loop —
//! so a non-terminating run signals a runtime/monitor bug, not an
//! impossible configuration.

use artemis_core::app::AppGraph;
use artemis_core::app::AppGraphBuilder;
use artemis_runtime::{ArtemisRuntime, ArtemisRuntimeBuilder};
use intermittent_sim::device::{Device, Interrupt};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated workload, ready to install.
pub struct Workload {
    /// The task graph.
    pub app: AppGraph,
    /// The generated specification text.
    pub spec: String,
    /// Per-task compute bursts `(count, cycles)`.
    pub bodies: Vec<(u32, u64)>,
    /// Expected completions of each task on a clean run (per path
    /// occurrence; collect-driven restarts add more).
    pub seed: u64,
}

/// Generates a workload from a seed: 1–3 paths, 2–4 tasks each (no
/// merging, to keep the spec free of `Path:` bookkeeping), and a
/// property on roughly half the tasks.
pub fn generate(seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = AppGraphBuilder::new();
    let n_paths = rng.random_range(1..=3usize);
    let mut names: Vec<Vec<String>> = Vec::new();
    let mut bodies = Vec::new();
    let mut next_id = 0usize;

    for _ in 0..n_paths {
        let n_tasks = rng.random_range(2..=4usize);
        let mut path_names = Vec::new();
        let mut ids = Vec::new();
        for _ in 0..n_tasks {
            let name = format!("t{next_id}");
            next_id += 1;
            ids.push(b.task(&name));
            path_names.push(name);
            // Bodies: 1–4 bursts of 1k–8k cycles (≤ ~12 µJ total).
            bodies.push((
                rng.random_range(1..=4u32),
                rng.random_range(1_000..=8_000u64),
            ));
        }
        b.path(&ids);
        names.push(path_names);
    }
    let app = b.build().expect("generated graph is valid");

    // Properties: for each path, maybe a collect (producer → last
    // task), maybe a maxTries on the first task, maybe a maxDuration
    // with skipTask, maybe an MITD with a generous bound + escape.
    let mut spec = String::new();
    for path_names in &names {
        let first = &path_names[0];
        let last = path_names.last().unwrap();
        if rng.random_bool(0.6) && path_names.len() >= 2 {
            let count = rng.random_range(1..=3u32);
            spec.push_str(&format!(
                "{last} {{ collect: {count} dpTask: {first} onFail: restartPath; }}\n"
            ));
        }
        if rng.random_bool(0.5) {
            let max = rng.random_range(3..=20u32);
            spec.push_str(&format!(
                "{first} {{ maxTries: {max} onFail: skipPath; }}\n"
            ));
        }
        if rng.random_bool(0.4) {
            let ms = rng.random_range(200..=5_000u64);
            spec.push_str(&format!(
                "{last} {{ maxDuration: {ms}ms onFail: skipTask; }}\n"
            ));
        }
        if rng.random_bool(0.3) && path_names.len() >= 2 {
            // Generous MITD (minutes) with an escape hatch.
            let mins = rng.random_range(2..=30u64);
            let attempts = rng.random_range(2..=4u32);
            spec.push_str(&format!(
                "{last} {{ MITD: {mins}min dpTask: {first} onFail: restartPath \
                 maxAttempt: {attempts} onFail: skipPath; }}\n"
            ));
        }
    }

    Workload {
        app,
        spec,
        bodies,
        seed,
    }
}

impl Workload {
    /// Installs the workload on a device under the ARTEMIS runtime.
    pub fn install(&self, dev: &mut Device) -> Result<ArtemisRuntime, String> {
        let suite = artemis_ir::compile(&self.spec, &self.app)
            .map_err(|e| format!("{e}\n{}", self.spec))?;
        self.builder()
            .install(dev, suite)
            .map_err(|e| e.to_string())
    }

    /// The workload's runtime builder (channel + task bodies) without a
    /// monitoring deployment, for `install_with` variants.
    pub fn builder(&self) -> ArtemisRuntimeBuilder {
        let mut rb = ArtemisRuntimeBuilder::new(self.app.clone());
        rb.channel("out");
        for (i, decl) in self.app.tasks().iter().enumerate() {
            let (count, cycles) = self.bodies[i];
            let name = decl.name.clone();
            rb.body(&decl.name, move |ctx| {
                for _ in 0..count {
                    ctx.compute(cycles)?;
                }
                // Every completion leaves a committed footprint.
                ctx.push("out", name.len() as f64)?;
                Ok::<(), Interrupt>(())
            });
        }
        rb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use artemis_core::time::SimDuration;
    use intermittent_sim::capacitor::Capacitor;
    use intermittent_sim::device::DeviceBuilder;
    use intermittent_sim::energy::Energy;
    use intermittent_sim::harvester::Harvester;
    use intermittent_sim::simulator::RunLimit;

    #[test]
    fn generated_workloads_compile_and_install() {
        for seed in 0..50 {
            let w = generate(seed);
            assert!(!w.app.paths().is_empty());
            let mut dev = DeviceBuilder::msp430fr5994().trace_disabled().build();
            w.install(&mut dev)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn generated_workloads_pass_the_consistency_checker() {
        for seed in 0..50 {
            let w = generate(seed);
            let set = artemis_spec::compile(&w.spec, &w.app)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let findings = artemis_spec::consistency::check(&set, &w.app);
            assert!(
                findings.is_empty(),
                "seed {seed} generated an inconsistent spec: {findings:?}\n{}",
                w.spec
            );
        }
    }

    /// The stress core: every generated workload completes on
    /// continuous power AND on a sweep of harsh intermittent supplies,
    /// with identical committed output counts.
    #[test]
    fn stress_random_workloads_across_power_conditions() {
        for seed in 0..25 {
            let w = generate(seed);

            let run = |dev: &mut intermittent_sim::Device| -> Option<usize> {
                let mut rt = w.install(dev).unwrap();
                let out = rt.run_once(dev, RunLimit::sim_time(SimDuration::from_hours(2)));
                if !out.is_completed() {
                    return None;
                }
                let ch = rt.channel("out").unwrap();
                let tx = intermittent_sim::journal::TxWriter::new();
                Some(ch.len(dev, &tx).unwrap())
            };

            let mut cont = DeviceBuilder::msp430fr5994().trace_disabled().build();
            let expected = run(&mut cont).unwrap_or_else(|| {
                panic!(
                    "seed {seed} did not complete on continuous power:\n{}",
                    w.spec
                )
            });

            for budget_uj in [20u64, 40, 90] {
                let mut dev = DeviceBuilder::msp430fr5994()
                    .trace_disabled()
                    .capacitor(Capacitor::with_budget(Energy::from_micro_joules(budget_uj)))
                    .harvester(Harvester::stochastic(
                        SimDuration::from_millis(100),
                        SimDuration::from_secs(10),
                        seed ^ budget_uj,
                    ))
                    .build();
                let got = run(&mut dev).unwrap_or_else(|| {
                    panic!("seed {seed}, {budget_uj} µJ: did not complete\n{}", w.spec)
                });
                // skipTask/skipPath reactions may legitimately shed
                // work under duress; they can never *add* commits.
                assert!(
                    got <= expected,
                    "seed {seed}, {budget_uj} µJ: more commits ({got}) than continuous ({expected})"
                );
                assert!(got > 0, "seed {seed}, {budget_uj} µJ: nothing committed");
            }
        }
    }
}
