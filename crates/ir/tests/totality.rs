//! IR-parser totality: the printed IR of the Fig. 5 suite, byte-mutated
//! — truncated, bit-flipped, spliced — goes through `parse_suite`,
//! which returns `Ok` or a typed `IrParseError`, never a panic.

use artemis_core::app::{AppGraph, AppGraphBuilder};
use artemis_ir::parse::parse_suite;
use artemis_ir::print::print_suite;
use proptest::prelude::*;

/// The Figure 4/6 task graph the Fig. 5 specification monitors.
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

/// The printed IR of the Fig. 5 suite.
fn figure5_ir() -> String {
    let suite = artemis_ir::compile(artemis_spec::samples::FIGURE5, &health_app()).unwrap();
    print_suite(&suite)
}

/// One byte-level mutation: `(op, a, b)` truncates at `a`, flips the
/// bits `b` selects in the byte at `a`, or splices a copy of the
/// `b`-selected slice in at `a`. Positions wrap into range.
fn mutate(bytes: &mut Vec<u8>, (op, a, b): (u8, u64, u64)) {
    if bytes.is_empty() {
        return;
    }
    let at = (a % bytes.len() as u64) as usize;
    match op {
        0 => bytes.truncate(at),
        1 => bytes[at] ^= (b as u8).max(1),
        _ => {
            let start = (b % bytes.len() as u64) as usize;
            let len = ((b >> 32) % 64) as usize;
            let piece = bytes[start..(start + len).min(bytes.len())].to_vec();
            bytes.splice(at..at, piece);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4_000, ..ProptestConfig::default() })]

    /// Mutated printed IR parses to `Ok` or an `IrParseError`.
    #[test]
    fn mutated_ir_parses_without_panicking(
        mutations in proptest::collection::vec((0u8..3, any::<u64>(), any::<u64>()), 1..5),
    ) {
        let mut bytes = figure5_ir().into_bytes();
        for &m in &mutations {
            mutate(&mut bytes, m);
        }
        let _ = parse_suite(&String::from_utf8_lossy(&bytes));
    }
}

/// The unmutated text parses back: the property starts from an input
/// the parser accepts.
#[test]
fn printed_figure5_ir_parses() {
    assert!(parse_suite(&figure5_ir()).is_ok());
}
