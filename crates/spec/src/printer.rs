//! Canonical pretty-printer for specification ASTs.
//!
//! The printer emits the same surface syntax the parser accepts, in a
//! canonical layout. `parse ∘ print` is the identity on ASTs (modulo
//! spans), which the property-based round-trip test in `lib.rs` checks.

use core::fmt::Write as _;

use artemis_core::time::SimDuration;

use crate::ast::{PropDecl, PropKind, SpecAst};

/// Renders a whole specification.
pub fn print(ast: &SpecAst) -> String {
    let mut out = String::new();
    for (i, block) in ast.blocks.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        let _ = writeln!(out, "{}: {{", block.task.value);
        for prop in &block.props {
            let _ = writeln!(out, "    {}", print_prop(prop));
        }
        out.push_str("}\n");
    }
    out
}

/// Renders one property declaration (without trailing newline).
fn print_prop(p: &PropDecl) -> String {
    let mut s = String::new();
    match &p.kind {
        PropKind::Period(t) => {
            let _ = write!(s, "period: {}", time(*t));
        }
        PropKind::MaxTries(n) => {
            let _ = write!(s, "maxTries: {n}");
        }
        PropKind::MaxDuration(t) => {
            let _ = write!(s, "maxDuration: {}", time(*t));
        }
        PropKind::Mitd(t) => {
            let _ = write!(s, "MITD: {}", time(*t));
        }
        PropKind::Collect(n) => {
            let _ = write!(s, "collect: {n}");
        }
        PropKind::DpData(var) => {
            let _ = write!(s, "dpData: {var}");
        }
        PropKind::Energy(nj) => {
            let _ = write!(s, "energy: {}", energy(*nj));
        }
    }
    if let Some(j) = &p.jitter {
        let _ = write!(s, " jitter: {}", time(j.value));
    }
    if let Some(dp) = &p.dp_task {
        let _ = write!(s, " dpTask: {}", dp.value);
    }
    if let Some(r) = &p.range {
        let _ = write!(s, " Range: [{}, {}]", num(r.value.0), num(r.value.1));
    }
    if let Some(a) = &p.on_fail {
        let _ = write!(s, " onFail: {}", a.value.keyword());
    }
    if let Some(ma) = &p.max_attempt {
        let _ = write!(s, " maxAttempt: {}", ma.max.value);
        if let Some(a) = &ma.on_fail {
            let _ = write!(s, " onFail: {}", a.value.keyword());
        }
    }
    if let Some(path) = &p.path {
        let _ = write!(s, " Path: {}", path.value);
    }
    s.push(';');
    s
}

/// Renders a duration in the largest exact unit the parser accepts.
fn time(t: SimDuration) -> String {
    let us = t.as_micros();
    if us >= 3_600_000_000 && us.is_multiple_of(3_600_000_000) {
        format!("{}h", us / 3_600_000_000)
    } else if us >= 60_000_000 && us.is_multiple_of(60_000_000) {
        format!("{}min", us / 60_000_000)
    } else if us >= 1_000_000 && us.is_multiple_of(1_000_000) {
        format!("{}s", us / 1_000_000)
    } else if us >= 1_000 && us.is_multiple_of(1_000) {
        format!("{}ms", us / 1_000)
    } else {
        format!("{us}us")
    }
}

/// Renders an energy amount (nanojoules) in the largest exact unit.
fn energy(nj: u64) -> String {
    if nj >= 1_000_000 && nj.is_multiple_of(1_000_000) {
        format!("{}mJ", nj / 1_000_000)
    } else if nj >= 1_000 && nj.is_multiple_of(1_000) {
        format!("{}uJ", nj / 1_000)
    } else {
        format!("{nj}nJ")
    }
}

/// Renders a range bound without losing integer-ness.
fn num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn print_then_parse_is_identity_on_figure5() {
        let src = r#"
            send: {
                MITD: 5min dpTask: accel onFail: restartPath maxAttempt: 3 onFail: skipPath Path: 2;
                maxDuration: 100ms onFail: skipTask;
            }
            calcAvg {
                collect: 10 dpTask: bodyTemp onFail: restartPath;
                dpData: avgTemp Range: [36, 38] onFail: completePath;
            }
        "#;
        let ast = parse(src).unwrap();
        let printed = print(&ast);
        let reparsed = parse(&printed).unwrap();
        // Spans differ; compare via a second print.
        assert_eq!(printed, print(&reparsed));
        // And semantically: same block/property structure.
        assert_eq!(ast.blocks.len(), reparsed.blocks.len());
        for (a, b) in ast.blocks.iter().zip(&reparsed.blocks) {
            assert_eq!(a.task.value, b.task.value);
            assert_eq!(a.props.len(), b.props.len());
            for (pa, pb) in a.props.iter().zip(&b.props) {
                assert_eq!(pa.kind, pb.kind);
                assert_eq!(pa.on_fail.map(|s| s.value), pb.on_fail.map(|s| s.value));
            }
        }
    }

    #[test]
    fn durations_print_in_largest_exact_unit() {
        assert_eq!(time(SimDuration::from_mins(5)), "5min");
        assert_eq!(time(SimDuration::from_secs(90)), "90s");
        assert_eq!(time(SimDuration::from_millis(100)), "100ms");
        assert_eq!(time(SimDuration::from_micros(1_500)), "1500us");
        assert_eq!(time(SimDuration::from_hours(2)), "2h");
    }

    #[test]
    fn energies_print_in_largest_exact_unit() {
        assert_eq!(energy(300_000), "300uJ");
        assert_eq!(energy(2_000_000), "2mJ");
        assert_eq!(energy(17), "17nJ");
    }

    #[test]
    fn numbers_keep_integerness() {
        assert_eq!(num(36.0), "36");
        assert_eq!(num(-2.5), "-2.5");
    }
}
