//! Static-analysis lint driver: `experiments -- analyze`.
//!
//! Runs [`artemis_ir::lint`], the front end's one stage sequence
//! (parse, `resolve`, consistency, lowering, validation, compilation
//! with the install path's source checks, and the install-time
//! analysis passes of [`artemis_ir::analysis`]), over every
//! specification and hand-written monitor the repository ships, and
//! lists each [`artemis_spec::Diagnostic`] with its target. The energy
//! pass runs against the default wearable capacitor (800 µJ usable,
//! 10 % margin) and prints one verdict row per task on top of any
//! diagnostics it raises.
//!
//! The shipped samples and examples must produce **zero errors**
//! (warnings are listed but tolerated): `shipped_targets_have_zero_errors`
//! asserts it under `cargo test`, and the binary exits non-zero
//! otherwise.

use artemis_core::app::{AppGraph, AppGraphBuilder, TaskId};
use artemis_ir::Source;
use artemis_spec::{sort_diagnostics, Diagnostic};

use crate::health::{benchmark_capacitor, health_app};
use crate::Report;

/// The default wearable device profile the energy verdicts are checked
/// against: the 800 µJ benchmark capacitor priced through the
/// MSP430FR5994 cost model with the default 10 % margin.
fn wearable_profile() -> intermittent_sim::EnergyProfile {
    intermittent_sim::EnergyProfile::with_budget(benchmark_capacitor().usable_budget())
}

/// The hand-written IR of `examples/custom_monitor.rs`, extracted from
/// the example source so the lint can never drift from what users see.
const CUSTOM_MONITOR_SRC: &str = include_str!("../../../examples/custom_monitor.rs");

/// The application graph of `examples/custom_monitor.rs`.
fn custom_monitor_app() -> AppGraph {
    let mut b = AppGraphBuilder::new();
    let sense = b.task("sense");
    let sense_b = b.task("senseB");
    let sense_c = b.task("senseC");
    let send = b.task("send");
    b.path(&[sense, send]);
    b.path(&[sense_b, send]);
    b.path(&[sense_c, send]);
    b.build().expect("static graph is valid")
}

/// The app `artemis_spec::samples::MINIMAL` is written against.
fn minimal_app() -> AppGraph {
    let mut b = AppGraphBuilder::new();
    let sense = b.task("sense");
    b.path(&[sense]);
    b.build().expect("static graph is valid")
}

/// Pulls the first `r#"…"#` raw-string literal out of example source.
fn first_raw_string(src: &str) -> Option<&str> {
    let start = src.find("r#\"")? + 3;
    let end = start + src[start..].find("\"#")?;
    Some(&src[start..end])
}

/// Lints one target through [`artemis_ir::lint`] against the default
/// wearable profile, pairing every finding with `target` and every
/// energy verdict with `target` and its task's name.
fn lint_target(
    target: &str,
    source: Source<'_>,
    app: &AppGraph,
    out: &mut Vec<(String, Diagnostic)>,
    verdicts: &mut Vec<EnergyRow>,
) {
    let lint = artemis_ir::lint(source, app, Some(&wearable_profile()));
    out.extend(lint.diags.into_iter().map(|d| (target.to_string(), d)));
    verdicts.extend(lint.feasibility.into_iter().map(|f| {
        let task = app.task_name(TaskId(f.task)).to_string();
        (target.to_string(), task, f)
    }));
}

/// One energy verdict of the report: target, task name, verdict.
type EnergyRow = (String, String, artemis_ir::analysis::TaskFeasibility);

/// Runs the lint over every shipped specification and example monitor.
/// Returns the report plus the number of error-severity findings (the
/// CI gate).
pub fn analyze_all() -> (Report, usize) {
    let mut findings: Vec<(String, Diagnostic)> = Vec::new();
    let mut verdicts: Vec<EnergyRow> = Vec::new();

    lint_target(
        "samples::FIGURE5",
        Source::Spec(artemis_spec::samples::FIGURE5),
        &health_app(),
        &mut findings,
        &mut verdicts,
    );
    lint_target(
        "samples::MINIMAL",
        Source::Spec(artemis_spec::samples::MINIMAL),
        &minimal_app(),
        &mut findings,
        &mut verdicts,
    );

    // The hand-written IR example, straight from its source file.
    let target = "examples/custom_monitor.rs";
    match first_raw_string(CUSTOM_MONITOR_SRC) {
        Some(ir) => lint_target(
            target,
            Source::Ir(ir),
            &custom_monitor_app(),
            &mut findings,
            &mut verdicts,
        ),
        None => findings.push((
            target.to_string(),
            Diagnostic::error(
                "parse",
                target.to_string(),
                "no raw-string IR literal found in example source".to_string(),
            ),
        )),
    }

    let mut diags: Vec<Diagnostic> = findings.iter().map(|(_, d)| d.clone()).collect();
    sort_diagnostics(&mut diags);
    let errors = diags.iter().filter(|d| d.is_error()).count();
    let warnings = diags.len() - errors;

    let mut r = Report::new(
        "analyze",
        "static analysis of shipped specifications and example monitors",
        &["target", "pass", "severity", "subject", "finding"],
    );
    // Errors first, stable within severity — same order install uses.
    let mut ordered = findings;
    ordered.sort_by_key(|(_, d)| d.severity);
    for (target, d) in &ordered {
        r.row(vec![
            target.clone(),
            d.pass.to_string(),
            d.severity.label().to_string(),
            d.subject.clone(),
            d.message.clone(),
        ]);
    }
    let profile = wearable_profile();
    for (target, task, f) in &verdicts {
        use artemis_ir::analysis::Verdict;
        r.row(vec![
            target.clone(),
            "energy".to_string(),
            match f.verdict {
                Verdict::Feasible => "feasible",
                Verdict::Marginal => "marginal",
                Verdict::Infeasible => "infeasible",
            }
            .to_string(),
            format!("task {task}"),
            format!(
                "attempt floor {} / ceiling {} vs {} budget",
                f.floor, f.ceiling, profile.budget
            ),
        ]);
    }
    r.note(format!(
        "{errors} error(s), {warnings} warning(s) across 3 targets"
    ));
    r.note(format!(
        "energy verdicts against the default wearable capacitor ({} usable, {}% margin)",
        profile.budget, profile.margin_percent
    ));
    r.note("CI gate: shipped specs and examples must produce zero errors");
    (r, errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CI contract: everything the repo ships lints error-free.
    #[test]
    fn shipped_targets_have_zero_errors() {
        let (r, errors) = analyze_all();
        assert_eq!(errors, 0, "{}", r.render());
    }

    #[test]
    fn raw_string_extraction_finds_the_example_ir() {
        let ir = first_raw_string(CUSTOM_MONITOR_SRC).unwrap();
        assert!(ir.contains("machine send_rate_cap"));
        let suite = artemis_ir::parse::parse_suite(ir).unwrap();
        assert_eq!(suite.len(), 1);
    }

    /// A deliberately broken target produces error rows (the gate can
    /// actually fail).
    #[test]
    fn lint_reports_broken_specs() {
        let mut out = Vec::new();
        let mut verdicts = Vec::new();
        lint_target(
            "broken",
            Source::Spec("ghost { maxTries: 1 onFail: skipPath; }"),
            &minimal_app(),
            &mut out,
            &mut verdicts,
        );
        assert!(out.iter().any(|(_, d)| d.is_error()), "{out:?}");
    }

    /// Every task of every shipped target gets an energy verdict row,
    /// and at the default wearable capacitor they are all feasible
    /// (which is why the error gate stays at zero).
    #[test]
    fn shipped_targets_print_feasible_energy_verdicts() {
        let (r, _) = analyze_all();
        let verdict_rows: Vec<_> = r.rows.iter().filter(|row| row[1] == "energy").collect();
        // FIGURE5's eight tasks + MINIMAL's one + the example app's four.
        assert_eq!(verdict_rows.len(), 8 + 1 + 4, "{}", r.render());
        for row in &verdict_rows {
            assert_eq!(row[2], "feasible", "{row:?}");
        }
    }

    /// EXPERIMENTS.md "Cost model constants" documents the numbers in
    /// `CostModel::msp430fr5994()`; this pins the table to the struct
    /// so the docs cannot drift from the single source of truth.
    #[test]
    fn experiments_md_cost_table_matches_cost_model() {
        const DOC: &str = include_str!("../../../EXPERIMENTS.md");
        let model = intermittent_sim::CostModel::msp430fr5994();
        let section = DOC
            .split("## Cost model constants")
            .nth(1)
            .expect("EXPERIMENTS.md has a `Cost model constants` section");
        let cells = |label: &str| -> Vec<String> {
            section
                .lines()
                .find(|l| l.starts_with(&format!("| {label} |")))
                .unwrap_or_else(|| panic!("cost table row `{label}` missing"))
                .split('|')
                .map(|c| c.trim().to_string())
                .collect()
        };
        // "| <label> | 25 µs | 5,000 pJ | <basis> |" — numeric value is
        // the first whitespace-separated token of the cell.
        let num = |cell: &str| -> u64 {
            cell.split_whitespace()
                .next()
                .expect("non-empty cell")
                .replace(',', "")
                .parse()
                .unwrap_or_else(|_| panic!("unparseable number in cell `{cell}`"))
        };

        let cycle = cells("CPU cycle");
        assert_eq!(
            num(&cycle[2]),
            1_000_000 / model.clock_hz,
            "cycle time (µs)"
        );
        assert_eq!(
            num(&cycle[3]),
            model.energy_per_cycle.as_pico_joules(),
            "cycle energy (pJ)"
        );

        let read_base = cells("FRAM read, per access");
        assert_eq!(num(&read_base[2]), model.fram_read_base.time.as_micros());
        assert_eq!(
            num(&read_base[3]),
            model.fram_read_base.energy.as_pico_joules()
        );

        let read_byte = cells("FRAM read, per byte");
        assert_eq!(
            num(&read_byte[2]),
            model.fram_read_per_byte.time.as_micros()
        );
        assert_eq!(
            num(&read_byte[3]),
            model.fram_read_per_byte.energy.as_pico_joules()
        );

        let write_base = cells("FRAM write, per access");
        assert_eq!(num(&write_base[2]), model.fram_write_base.time.as_micros());
        assert_eq!(
            num(&write_base[3]),
            model.fram_write_base.energy.as_pico_joules()
        );

        let write_byte = cells("FRAM write, per byte");
        assert_eq!(
            num(&write_byte[2]),
            model.fram_write_per_byte.time.as_micros()
        );
        assert_eq!(
            num(&write_byte[3]),
            model.fram_write_per_byte.energy.as_pico_joules()
        );

        let idle = cells("Idle (LPM3)");
        assert_eq!(num(&idle[3]), model.idle_power_nanowatts, "idle power (nW)");

        // The per-opcode cycle table of the same section is pinned
        // against `OpCycles` the same way.
        let oc = model.op_cycles;
        for (label, cycles) in [
            ("load_imm", oc.load_imm),
            ("load_slot", oc.load_slot),
            ("alu", oc.alu),
            ("branch", oc.branch),
            ("store_slot", oc.store_slot),
            ("cmp_branch", oc.cmp_branch),
            ("load_cmp_branch", oc.load_cmp_branch),
            ("const_store", oc.const_store),
            ("transition_scan", oc.transition_scan),
        ] {
            assert_eq!(num(&cells(label)[2]), cycles, "op cycle row `{label}`");
        }
    }
}
