//! Model-to-text transformations: IR machines → monitor source code.
//!
//! The paper's pipeline ends with a model-to-text transformation that
//! emits C monitors built on the ImmortalThreads macros (§4.2,
//! Figure 10). This module reproduces that step textually:
//! [`c::emit_c`] renders the suite as a single C translation unit in
//! the paper's style — `__nv`-attributed state structs in FRAM, a
//! `callMonitor` entry point, `_begin`/`_end` ImmortalThreads
//! bracketing.
//!
//! The emitted text is golden-tested; it is documentation-grade output
//! (this reproduction *interprets* machines via `artemis-monitor`
//! rather than compiling the generated code — see DESIGN.md §4).

pub mod c;

pub use c::emit_c;
