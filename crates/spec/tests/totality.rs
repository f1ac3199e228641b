//! Front-end totality: byte-mutated sample specifications — truncated,
//! bit-flipped, spliced — go through `parse` and then `resolve` against
//! the Fig. 4/6 task graph, and each stage returns `Ok` or a typed
//! `Diagnostic`, never a panic.

use artemis_core::app::{AppGraph, AppGraphBuilder};
use artemis_spec::samples::{FIGURE5, MINIMAL};
use artemis_spec::{parse, resolve};
use proptest::prelude::*;

/// The Figure 4/6 task graph the samples name (plus `sense`, the
/// minimal spec's task).
fn app() -> AppGraph {
    let mut b = AppGraphBuilder::new();
    let body = b.task("bodyTemp");
    let avg = b.task_with_var("calcAvg", "avgTemp");
    let heart = b.task("heartRate");
    let accel = b.task("accel");
    let classify = b.task("classify");
    let mic = b.task("micSense");
    let filter = b.task("filter");
    let send = b.task("send");
    let sense = b.task("sense");
    b.path(&[body, avg, heart, send]);
    b.path(&[accel, classify, send]);
    b.path(&[mic, filter, send]);
    b.path(&[sense, send]);
    b.build().unwrap()
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
            let len = ((b >> 32) % 48) as usize;
            let piece = bytes[start..(start + len).min(bytes.len())].to_vec();
            bytes.splice(at..at, piece);
        }
    }
}

/// Applies `mutations` to `source` and reads the bytes back as text
/// (invalid UTF-8 becomes replacement characters, which the lexer must
/// reject like any other stray character).
fn mutated(source: &str, mutations: &[(u8, u64, u64)]) -> String {
    let mut bytes = source.as_bytes().to_vec();
    for &m in mutations {
        mutate(&mut bytes, m);
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn mutations() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    proptest::collection::vec((0u8..3, any::<u64>(), any::<u64>()), 1..5)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4_000, ..ProptestConfig::default() })]

    /// Mutated sample specs parse and resolve to `Ok` or a `Diagnostic`.
    #[test]
    fn mutated_specs_parse_and_resolve_without_panicking(
        minimal in any::<bool>(),
        mutations in mutations(),
    ) {
        let source = mutated(if minimal { MINIMAL } else { FIGURE5 }, &mutations);
        if let Ok(ast) = parse(&source) {
            let _ = resolve(&ast, &app());
        }
    }
}

/// The unmutated samples resolve: the properties above start from
/// inputs the whole front end accepts.
#[test]
fn samples_resolve_against_the_app() {
    for source in [FIGURE5, MINIMAL] {
        resolve(&parse(source).unwrap(), &app()).unwrap();
    }
}
