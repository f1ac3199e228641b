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

/// Byte size of the generated C for a suite — the `.text` proxy used by
/// the Table 2 reproduction (see DESIGN.md §4).
pub fn c_text_size(suite: &crate::fsm::MonitorSuite) -> usize {
    emit_c(suite).len()
}

#[cfg(test)]
mod tests {
    use crate::lower::lower_set;

    fn suite() -> crate::fsm::MonitorSuite {
        let mut b = artemis_core::app::AppGraphBuilder::new();
        let a = b.task("accel");
        let s = b.task("send");
        b.path(&[a, s]);
        let app = b.build().unwrap();
        let set = artemis_spec::compile(
            "accel { maxTries: 10 onFail: skipPath; }\n\
             send { MITD: 5min dpTask: accel onFail: restartPath maxAttempt: 3 onFail: skipPath; }",
            &app,
        )
        .unwrap();
        lower_set(&set, &app).unwrap()
    }

    #[test]
    fn c_text_size_is_plausible() {
        let size = super::c_text_size(&suite());
        assert!(size > 1_000, "C output suspiciously small: {size}");
        assert!(size < 100_000, "C output suspiciously large: {size}");
    }
}
