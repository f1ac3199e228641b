//! Error-first validation keeps every finding: `validate_strict(m)`
//! returns exactly the first error `validate(m)` lists (errors come
//! first), or `Ok` when it lists none — although it walks the rules
//! only up to that error and formats no warning.
//!
//! Machines: the Fig. 5 suite, the verifier fuzz's spec suite and 64
//! generated suites, each as lowered, plus seeded source-level mutants
//! of all of them (unknown and duplicate names, out-of-range states,
//! mistyped guards, assignments and initial values, `depData` under a
//! `startTask` trigger, shadowing copies) and byte-mutated printed IR
//! that still parses.

use artemis_bench::{health, workload};
use artemis_core::app::AppGraph;
use artemis_ir::expr::{BinOp, Expr, Value, VarType};
use artemis_ir::fsm::{StateMachine, Stmt, Trigger};
use artemis_ir::validate::{validate, validate_strict};
use artemis_spec::Diagnostic;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The verifier fuzz's spec: every property compiler.
const FUZZ_SPEC: &str = "\
    a { maxTries: 3 onFail: skipPath; }\n\
    b { MITD: 10s dpTask: a onFail: restartPath maxAttempt: 2 onFail: skipPath; \
        collect: 2 dpTask: a onFail: restartPath; \
        maxDuration: 5s onFail: skipTask; }";

fn two_task_app() -> AppGraph {
    let mut b = artemis_core::app::AppGraphBuilder::new();
    let a = b.task("a");
    let s = b.task("b");
    b.path(&[a, s]);
    b.build().unwrap()
}

/// Every lowered machine of the corpus.
fn corpus() -> Vec<StateMachine> {
    let mut suites = vec![
        artemis_ir::compile(health::HEALTH_SPEC, &health::health_app()).unwrap(),
        artemis_ir::compile(FUZZ_SPEC, &two_task_app()).unwrap(),
    ];
    for seed in 0..64 {
        let w = workload::generate(seed);
        suites.push(artemis_ir::compile(&w.spec, &w.app).unwrap());
    }
    suites
        .iter()
        .flat_map(|s| s.machines().iter().cloned())
        .collect()
}

/// Some expression of `m` a mutation can rewrite in place.
fn some_expr<'m>(m: &'m mut StateMachine, rng: &mut StdRng) -> Option<&'m mut Expr> {
    let n = m.transitions.len();
    if n == 0 {
        return None;
    }
    let t = &mut m.transitions[rng.random_range(0..n)];
    if t.guard.is_some() && rng.random_bool(0.5) {
        return t.guard.as_mut();
    }
    t.body.first_mut().map(|s| match s {
        Stmt::Assign(_, e) => e,
        Stmt::If(c, ..) => c,
    })
}

/// One seeded source-level mutation.
fn mutate(m: &mut StateMachine, rng: &mut StdRng) {
    let n = m.transitions.len();
    match rng.random_range(0..11u32) {
        0 => {
            if let Some(e) = some_expr(m, rng) {
                *e = Expr::bin(BinOp::Lt, Expr::var("ghost"), e.clone());
            }
        }
        1 if n > 0 => {
            let t = rng.random_range(0..n);
            m.transitions[t].to = m.states.len() as u32 + rng.random_range(0..3u32);
        }
        2 if !m.vars.is_empty() => {
            let v = m.vars[rng.random_range(0..m.vars.len())].clone();
            m.vars.push(v);
        }
        3 if !m.states.is_empty() => {
            let s = m.states[rng.random_range(0..m.states.len())].clone();
            m.states.push(s);
        }
        4 if !m.vars.is_empty() => {
            let i = rng.random_range(0..m.vars.len());
            m.vars[i].init = match m.vars[i].ty {
                VarType::Bool => Value::Int(1),
                _ => Value::Bool(true),
            };
        }
        5 if n > 0 => {
            let t = rng.random_range(0..n);
            m.transitions[t].guard = Some(Expr::int(rng.random_range(0..3i64)));
        }
        6 if n > 0 => {
            let t = rng.random_range(0..n);
            m.transitions[t].trigger = match &m.transitions[t].trigger {
                Trigger::End(p) | Trigger::Start(p) => Trigger::Start(p.clone()),
                Trigger::Any => Trigger::Any,
            };
            m.transitions[t].guard = Some(Expr::bin(BinOp::Gt, Expr::DepData, Expr::int(0)));
        }
        7 if n > 0 => {
            let t = rng.random_range(0..n);
            let copy = m.transitions[t].clone();
            m.transitions.insert(rng.random_range(0..=t), copy);
        }
        8 if n > 0 => {
            let t = rng.random_range(0..n);
            m.transitions[t]
                .body
                .push(Stmt::Assign("nowhere".into(), Expr::int(1)));
        }
        9 if n > 0 && !m.vars.is_empty() => {
            let t = rng.random_range(0..n);
            let v = m.vars[rng.random_range(0..m.vars.len())].name.clone();
            m.transitions[t]
                .body
                .push(Stmt::Assign(v, Expr::Lit(Value::Bool(false))));
        }
        10 => m.initial = m.states.len() as u32,
        _ => m.states.clear(),
    }
}

/// Byte-mutated printed IR of `m` that still parses: flips, drops and
/// duplicates of one character.
fn text_mutant(m: &StateMachine, rng: &mut StdRng) -> Option<StateMachine> {
    let mut bytes = artemis_ir::print::print_machine(m).into_bytes();
    for _ in 0..rng.random_range(1..3u32) {
        let at = rng.random_range(0..bytes.len());
        match rng.random_range(0..3u32) {
            0 => bytes[at] = b"abxyz019<>=!"[rng.random_range(0..12usize)],
            1 => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, bytes[at]),
        }
    }
    artemis_ir::parse::parse_machine(std::str::from_utf8(&bytes).ok()?).ok()
}

/// Checks the property on `m`; returns `(errors, findings)` of
/// `validate(m)`.
fn check(m: &StateMachine) -> (usize, usize) {
    let all = validate(m);
    let first = all.iter().find(|d| d.is_error()).cloned();
    assert_eq!(
        validate_strict(m).err(),
        first,
        "machine {}:\n{}\nall findings: {all:?}",
        m.name,
        artemis_ir::print::print_machine(m)
    );
    (all.iter().filter(|d| d.is_error()).count(), all.len())
}

#[test]
fn validate_strict_returns_the_first_error_validate_lists() {
    let corpus = corpus();
    let mut rng = StdRng::seed_from_u64(35);
    let (mut checked, mut failing, mut several, mut warned) = (0, 0, 0, 0);
    let mut tally = |(errors, findings): (usize, usize)| {
        checked += 1;
        failing += usize::from(errors > 0);
        several += usize::from(errors > 1);
        warned += usize::from(findings > errors);
    };
    for m in &corpus {
        tally(check(m));
        for _ in 0..40 {
            let mut mutant = m.clone();
            for _ in 0..rng.random_range(1..4u32) {
                mutate(&mut mutant, &mut rng);
            }
            tally(check(&mutant));
            if let Some(t) = text_mutant(m, &mut rng) {
                tally(check(&t));
            }
        }
    }
    // The population holds clean machines, failing ones, machines with
    // several errors (where the order decides) and warnings.
    assert!(failing > checked / 3, "{failing} of {checked} fail");
    assert!(several > checked / 20, "{several} of {checked} fail twice");
    assert!(warned > checked / 20, "{warned} of {checked} warn");
    assert!(failing < checked, "every machine fails");
}

/// The shipped suites lower to machines `validate` finds nothing wrong
/// with, so the property above starts from clean inputs.
#[test]
fn the_unmutated_corpus_has_no_error() {
    for m in corpus() {
        assert_eq!(validate_strict(&m), Ok::<(), Diagnostic>(()), "{}", m.name);
    }
}
