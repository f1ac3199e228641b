//! The ARTEMIS intermediate language: state-machine monitors.
//!
//! Properties written in the specification language are lowered to
//! finite-state machines (paper §3.3, Figure 7), which the monitor
//! engine executes power-failure-resiliently. This crate provides:
//!
//! - the FSM model ([`fsm`]) and its expression language ([`expr`]);
//! - the reference interpreter ([`exec`]) — the semantics the
//!   persistent engine in `artemis-monitor` delegates to;
//! - an ahead-of-time compiler ([`mod@compile`]) lowering machines to
//!   slot-indexed bytecode with per-event dispatch tables — the
//!   allocation-free fast path the engine runs by default;
//! - a bytecode optimizer ([`mod@opt`]) running between codegen and
//!   the verifier: one sweep per guard/body range that drops redundant
//!   `AssertBool`s and fuses superinstructions, with `OptLevel::None`
//!   kept as the differential oracle;
//! - the model-to-model transformation ([`mod@lower`]) from resolved
//!   property sets to machines;
//! - a textual IR syntax with printer ([`mod@print`]) and parser
//!   ([`parse`]) so monitors can be authored directly when the property
//!   language lacks expressiveness;
//! - static validation ([`validate`]) for hand-written IR;
//! - install-time static analysis ([`analysis`]): a bytecode verifier,
//!   worst-case FRAM resource bounds, reachability, and cross-monitor
//!   conflict detection over compiled suites;
//! - model-to-text code generation ([`codegen`]) emitting C monitor
//!   source in the paper's ImmortalThreads style (Figure 10).
//!
//! Every stage between text and an installable suite (the IR parser,
//! lowering, validation, the source checks
//! ([`validate::check_source`]) that [`CompiledSuite::compile`] runs
//! before codegen, and the analysis passes) reports the front end's
//! one finding type, [`artemis_spec::Diagnostic`]; [`lint`] runs them
//! all in install order.

pub mod analysis;
pub mod codegen;
pub mod compile;
pub mod dot;
pub mod exec;
pub mod expr;
pub mod fsm;
pub mod layout;
pub mod lower;
pub mod opt;
pub mod parse;
pub mod print;
pub mod validate;

use artemis_core::app::AppGraph;
use artemis_spec::{Diagnostic, SpecAst};
use intermittent_sim::EnergyProfile;

pub use analysis::{analyze_suite, suite_bounds, InstallFacts, SuiteBounds};
pub use compile::{
    AccessSet, CompiledEvent, CompiledMachine, CompiledSuite, RawMachine, StepCost, StepKey,
};
pub use exec::{IrEvent, MachineState};
pub use fsm::{MonitorSuite, StateMachine};
pub use layout::{MachineLayout, SlotEnc, SlotLayout};
pub use lower::lower_set;
pub use opt::{optimize_machine, OptLevel};

/// Compiles a parsed specification into a monitor suite: semantic
/// resolution followed by lowering (the paper's model-to-model
/// transformation pipeline, Figure 3).
///
/// # Examples
///
/// ```
/// use artemis_core::app::AppGraphBuilder;
///
/// let mut b = AppGraphBuilder::new();
/// let sense = b.task("sense");
/// b.path(&[sense]);
/// let app = b.build().unwrap();
///
/// let ast = artemis_spec::parse("sense: { maxTries: 3 onFail: skipPath; }").unwrap();
/// let suite = artemis_ir::lower(&ast, &app).unwrap();
/// assert_eq!(suite.machines().len(), 1);
/// assert_eq!(suite.machines()[0].task, "sense");
/// ```
pub fn lower(ast: &SpecAst, app: &AppGraph) -> Result<MonitorSuite, Diagnostic> {
    lower_set(&artemis_spec::resolve(ast, app)?, app)
}

/// Compiles specification text straight to a monitor suite.
pub fn compile(source: &str, app: &AppGraph) -> Result<MonitorSuite, Diagnostic> {
    lower(&artemis_spec::parse(source)?, app)
}

/// The text a [`lint`] reads.
#[derive(Clone, Copy, Debug)]
pub enum Source<'a> {
    /// Property-specification text.
    Spec(&'a str),
    /// Hand-written IR text (the escape hatch of §3.3).
    Ir(&'a str),
}

/// What [`lint`] found in one target.
#[derive(Debug, Default)]
pub struct Lint {
    /// Every finding, in stage order.
    pub diags: Vec<Diagnostic>,
    /// The machine suite, once lowering or the IR parse produced one.
    pub suite: Option<MonitorSuite>,
    /// One energy verdict per task, when the sweep was given a device
    /// profile and the suite compiled.
    pub feasibility: Vec<analysis::TaskFeasibility>,
}

/// Runs every front-end stage over `source` against `app`: the parse;
/// for a spec `resolve`, consistency and lowering; then per-machine
/// validation, compilation through the install path's source gate
/// ([`CompiledSuite::compile`]), the analysis passes
/// ([`analyze_suite`]) and, given a device profile, the energy pass.
/// A stage that fails ends the sweep with its error, so a target with
/// no error finding passes the install gate's source checks and
/// analysis passes (and its energy pass, for the profile given). The
/// `artemis` command-line tool and the benchmark's `analyze` report
/// both lint through here.
pub fn lint(source: Source<'_>, app: &AppGraph, energy: Option<&EnergyProfile>) -> Lint {
    let mut lint = Lint::default();
    let suite = match source {
        Source::Spec(text) => artemis_spec::parse(text)
            .and_then(|ast| artemis_spec::resolve(&ast, app))
            .and_then(|set| {
                lint.diags
                    .extend(artemis_spec::consistency::check(&set, app));
                lower_set(&set, app)
            }),
        Source::Ir(text) => parse::parse_suite(text),
    };
    let suite = match suite {
        Ok(suite) => lint.suite.insert(suite),
        Err(d) => {
            lint.diags.push(d);
            return lint;
        }
    };
    let found = lint.diags.len();
    for m in suite.machines() {
        lint.diags.extend(validate::validate(m));
    }
    // Compilation would report the first of these again.
    if lint.diags[found..].iter().any(Diagnostic::is_error) {
        return lint;
    }
    let compiled = match CompiledSuite::compile(suite, app) {
        Ok(compiled) => compiled,
        Err(d) => {
            lint.diags.push(d);
            return lint;
        }
    };
    lint.diags.extend(analyze_suite(suite, &compiled, None));
    if let Some(profile) = energy {
        let bounds = suite_bounds(&compiled, profile);
        lint.feasibility = analysis::task_feasibility(&compiled, &bounds, app, profile);
        lint.diags.extend(analysis::check_energy(
            &compiled,
            &lint.feasibility,
            profile,
        ));
    }
    lint
}

#[cfg(test)]
mod tests {
    use super::*;
    use artemis_core::app::AppGraphBuilder;

    #[test]
    fn compile_pipeline_end_to_end() {
        let mut b = AppGraphBuilder::new();
        let a = b.task("a");
        let s = b.task("send");
        b.path(&[a, s]);
        let app = b.build().unwrap();
        let suite = compile("a { maxTries: 5 onFail: skipPath; }", &app).unwrap();
        assert_eq!(suite.len(), 1);
        // Resolve errors surface as the resolver's diagnostic.
        let err = compile("ghost { maxTries: 5 onFail: skipPath; }", &app).unwrap_err();
        assert_eq!(err.pass, "resolve");
        assert!(err.to_string().contains("ghost"));
    }
}
