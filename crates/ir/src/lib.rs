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
//! The IR parser, validation and the analysis passes report their
//! findings as the front end's one finding type,
//! [`artemis_spec::Diagnostic`].

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
use artemis_spec::SpecAst;

pub use analysis::{analyze_suite, suite_bounds, InstallFacts, SuiteBounds};
pub use compile::{
    AccessSet, CompileIssue, CompiledEvent, CompiledMachine, CompiledSuite, RawMachine, StepCost,
};
pub use exec::{IrEvent, MachineState};
pub use fsm::{MonitorSuite, StateMachine};
pub use layout::{MachineLayout, SlotEnc, SlotLayout};
pub use lower::lower_set;
pub use opt::{optimize_machine, OptLevel};

/// Everything that can go wrong when compiling a specification.
#[derive(Clone, Debug, PartialEq)]
pub enum CompileError {
    /// Name resolution / validation failed.
    Sema(artemis_spec::Diagnostic),
    /// Lowering failed (internal inconsistency).
    Lower(lower::LowerError),
}

impl core::fmt::Display for CompileError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CompileError::Sema(d) => write!(f, "{d}"),
            CompileError::Lower(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

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
pub fn lower(ast: &SpecAst, app: &AppGraph) -> Result<MonitorSuite, CompileError> {
    let set = artemis_spec::resolve(ast, app).map_err(CompileError::Sema)?;
    lower_set(&set, app).map_err(CompileError::Lower)
}

/// Compiles specification text straight to a monitor suite.
pub fn compile(source: &str, app: &AppGraph) -> Result<MonitorSuite, CompileError> {
    let ast = artemis_spec::parse(source).map_err(CompileError::Sema)?;
    lower(&ast, app)
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
        // Sema errors surface through CompileError.
        let err = compile("ghost { maxTries: 5 onFail: skipPath; }", &app).unwrap_err();
        assert!(matches!(err, CompileError::Sema(_)));
        assert!(err.to_string().contains("ghost"));
    }
}
