//! Fuzzing of `CompiledMachine::from_raw` and `CompiledSuite::set_machine`
//! with arbitrary raw parts: out-of-range transition, state, register,
//! slot, literal and jump indices, ranges that run backwards or past
//! the code, and dispatch tables with too few, too many, empty or
//! oversized lists. The derivation must not panic on any of them, and
//! the install gate must then either reject the suite with a
//! `Diagnostic` or install a machine the verifier accepts.

use std::sync::Arc;

use artemis_bench::health;
use artemis_core::app::{AppGraph, AppGraphBuilder};
use artemis_core::event::EventKind;
use artemis_ir::analysis::{verify_machine, MachineEnv};
use artemis_ir::compile::Op;
use artemis_ir::expr::{BinOp, Value};
use artemis_ir::{CompiledMachine, CompiledSuite, MonitorSuite, RawMachine};
use artemis_monitor::{InstallError, InstallOptions, MonitorEngine};
use intermittent_sim::device::DeviceBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The verifier fuzz's spec: every property compiler.
const FUZZ_SPEC: &str = "\
    a { maxTries: 3 onFail: skipPath; }\n\
    b { MITD: 10s dpTask: a onFail: restartPath maxAttempt: 2 onFail: skipPath; \
        collect: 2 dpTask: a onFail: restartPath; \
        maxDuration: 5s onFail: skipTask; }";

fn two_task_app() -> AppGraph {
    let mut b = AppGraphBuilder::new();
    let a = b.task("a");
    let s = b.task("b");
    b.path(&[a, s]);
    b.build().unwrap()
}

/// A small index: usually in range for `len`, sometimes just past it,
/// sometimes far out.
fn index(rng: &mut StdRng, len: usize) -> u64 {
    match rng.random_range(0..8u32) {
        0 => rng.random_range(0..u64::from(u16::MAX)),
        1 => (len + rng.random_range(0..3usize)) as u64,
        _ => rng.random_range(0..len.max(1)) as u64,
    }
}

/// An arbitrary instruction over a machine of the given sizes.
fn op(rng: &mut StdRng, code: usize, regs: usize, slots: usize, lits: usize) -> Op {
    let reg = |rng: &mut StdRng| index(rng, regs) as u16;
    let slot = |rng: &mut StdRng| index(rng, slots) as u16;
    let lit = |rng: &mut StdRng| index(rng, lits) as u16;
    let target = |rng: &mut StdRng| index(rng, code + 1) as u32;
    let cmp = [BinOp::Lt, BinOp::Eq, BinOp::Add, BinOp::And][rng.random_range(0..4usize)];
    match rng.random_range(0..15u32) {
        0 => Op::Const {
            dst: reg(rng),
            lit: lit(rng),
        },
        1 => Op::LoadVar {
            dst: reg(rng),
            slot: slot(rng),
        },
        2 => Op::LoadEventTime { dst: reg(rng) },
        3 => Op::LoadDepData { dst: reg(rng) },
        4 => Op::LoadEnergy { dst: reg(rng) },
        5 => Op::Bin {
            op: cmp,
            dst: reg(rng),
            a: reg(rng),
            b: reg(rng),
        },
        6 => Op::Not {
            dst: reg(rng),
            src: reg(rng),
        },
        7 => Op::AssertBool { src: reg(rng) },
        8 => Op::JumpIfFalse {
            src: reg(rng),
            target: target(rng),
        },
        9 => Op::JumpIfTrue {
            src: reg(rng),
            target: target(rng),
        },
        10 => Op::Jump {
            target: target(rng),
        },
        11 => Op::StoreVar {
            slot: slot(rng),
            src: reg(rng),
        },
        12 => Op::CmpBranch {
            op: cmp,
            dst: reg(rng),
            a: reg(rng),
            b: reg(rng),
            target: target(rng),
            when: rng.random_bool(0.5),
        },
        13 => Op::LoadCmpBranch {
            op: cmp,
            dst: reg(rng),
            slot: slot(rng),
            lit: lit(rng),
            target: target(rng),
            when: rng.random_bool(0.5),
        },
        _ => Op::ConstStore {
            slot: slot(rng),
            lit: lit(rng),
        },
    }
}

/// A transition-index list of up to `max` entries.
fn list(rng: &mut StdRng, transitions: usize, max: usize) -> Vec<u16> {
    (0..rng.random_range(0..=max))
        .map(|_| index(rng, transitions) as u16)
        .collect()
}

/// One mutation of the raw parts of a machine over `tasks` tasks and
/// `states` states.
fn mutate(raw: &mut RawMachine, rng: &mut StdRng, tasks: usize, states: usize) {
    let (code, regs, slots, lits) = (raw.code.len(), raw.max_regs, raw.var_count, raw.lits.len());
    let transitions = raw.transitions.len();
    match rng.random_range(0..11u32) {
        0 if code > 0 => raw.code[rng.random_range(0..code)] = op(rng, code, regs, slots, lits),
        0 => raw.code.push(op(rng, 1, regs, slots, lits)),
        1 if transitions > 0 => {
            let t = &mut raw.transitions[rng.random_range(0..transitions)];
            t.from = index(rng, states) as u32;
            t.to = index(rng, states) as u32;
        }
        2 if transitions > 0 => {
            let t = &mut raw.transitions[rng.random_range(0..transitions)];
            let (a, b) = (index(rng, code + 1) as u32, index(rng, code + 1) as u32);
            if rng.random_bool(0.5) {
                t.body = a..b;
            } else {
                t.guard = rng.random_bool(0.8).then_some(a..b);
            }
        }
        3 => {
            // Too few, exactly enough, or too many per-task lists.
            let k = rng.random_range(0..2usize);
            let n = [0, tasks.saturating_sub(1), tasks, tasks + 3][rng.random_range(0..4usize)];
            raw.dispatch[k] = (0..n).map(|_| list(rng, transitions, 4)).collect();
        }
        4 => {
            // An oversized list.
            let k = rng.random_range(0..2usize);
            let big = list(rng, transitions, 300);
            match raw.dispatch[k].len() {
                0 => raw.wildcard[k] = big,
                n => raw.dispatch[k][rng.random_range(0..n)] = big,
            }
        }
        5 => raw.wildcard[rng.random_range(0..2usize)] = list(rng, transitions, 6),
        6 => {
            raw.var_count = rng.random_range(0..12usize);
            let inits = [
                Value::Int(-5),
                Value::Bool(true),
                Value::Time(7),
                Value::Float(0.5),
            ];
            raw.var_inits = (0..rng.random_range(0..12usize))
                .map(|_| inits[rng.random_range(0..4usize)])
                .collect();
        }
        7 => raw.max_regs = rng.random_range(0..6usize),
        8 => raw.initial_state = index(rng, states) as u32,
        9 => raw.code.truncate(rng.random_range(0..=code)),
        _ => {
            if rng.random_bool(0.5) {
                raw.lits.truncate(rng.random_range(0..=lits));
            } else {
                raw.lits.push(Value::Int(rng.random_range(-3..3i64)));
            }
        }
    }
}

/// Reads every piece of derived data `m` exposes, for keys inside and
/// outside the graph.
fn touch(m: &CompiledMachine, tasks: usize) {
    for kind in [EventKind::StartTask, EventKind::EndTask] {
        for task in (0..tasks as u32 + 3).chain([u32::MAX]) {
            let a = m.access(kind, task);
            let _ = (a.max_touched_slot(), a.whole_block, m.step_cost(kind, task));
            let _ = (m.dispatch_len(kind, task), m.dismisses(kind, task));
            let _ = m.layout().span(a.max_touched_slot());
        }
    }
    let _ = m.layout().block_len;
}

struct Case {
    app: AppGraph,
    suite: MonitorSuite,
    compiled: CompiledSuite,
}

#[test]
fn arbitrary_raw_parts_derive_without_panicking_and_the_gate_decides() {
    let cases: Vec<Case> = [
        (FUZZ_SPEC, two_task_app()),
        (health::HEALTH_SPEC, health::health_app()),
    ]
    .into_iter()
    .map(|(spec, app)| {
        let suite = artemis_ir::compile(spec, &app).unwrap();
        let compiled = CompiledSuite::compile(&suite, &app).unwrap();
        Case {
            app,
            suite,
            compiled,
        }
    })
    .collect();
    let mut rng = StdRng::seed_from_u64(0xf0_2a);
    let (mut rejected, mut installed) = (0, 0);
    for round in 0..3_000 {
        let case = &cases[round % cases.len()];
        let idx = rng.random_range(0..case.suite.len());
        let src = &case.suite.machines()[idx];
        let tasks = case.app.task_count();
        let mut raw = case.compiled.machines()[idx].to_raw();
        for _ in 0..rng.random_range(1..5u32) {
            mutate(&mut raw, &mut rng, tasks, src.states.len());
        }

        touch(&CompiledMachine::from_raw(raw.clone()), tasks);
        let mut compiled = CompiledSuite::compile(&case.suite, &case.app).unwrap();
        compiled.set_machine(idx, raw);
        touch(&compiled.machines()[idx], tasks);

        let compiled = Arc::new(compiled);
        let mut dev = DeviceBuilder::msp430fr5994().trace_disabled().build();
        match MonitorEngine::install_precompiled_shared(
            &mut dev,
            case.suite.clone(),
            Arc::clone(&compiled),
            &case.app,
            InstallOptions::default(),
        ) {
            Err(InstallError::Rejected(_)) => rejected += 1,
            Err(e) => panic!("round {round}: not a gate rejection: {e}"),
            Ok(_) => {
                let var_types: Vec<_> = src.vars.iter().map(|v| v.ty).collect();
                let env = MachineEnv {
                    name: &src.name,
                    state_count: src.states.len(),
                    var_types: &var_types,
                };
                let findings = verify_machine(&compiled.machines()[idx], &env);
                assert!(findings.is_empty(), "round {round}: {findings:?}");
                installed += 1;
            }
        }
    }
    // Both outcomes occur, so neither half of the property is vacuous.
    assert!(rejected > 500, "{rejected} rejected");
    assert!(installed > 100, "{installed} installed");
}

/// `to_raw()` returns the parts `from_raw` took (`var_inits` at
/// `var_count`), and a second reassembly gives every key, inside and
/// outside the graph, the same list, access set, step cost and
/// `may_emit`.
#[test]
fn arbitrary_raw_parts_round_trip() {
    let cases = [
        (FUZZ_SPEC, two_task_app()),
        (health::HEALTH_SPEC, health::health_app()),
    ];
    let compiled: Vec<_> = cases
        .iter()
        .map(|(spec, app)| {
            let suite = artemis_ir::compile(spec, app).unwrap();
            let c = CompiledSuite::compile(&suite, app).unwrap();
            (suite, c)
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(0x7a_11);
    for round in 0..3_000 {
        let (suite, c) = &compiled[round % cases.len()];
        let tasks = cases[round % cases.len()].1.task_count();
        let idx = rng.random_range(0..suite.len());
        let mut raw = c.machines()[idx].to_raw();
        for _ in 0..rng.random_range(1..5u32) {
            mutate(
                &mut raw,
                &mut rng,
                tasks,
                suite.machines()[idx].states.len(),
            );
        }
        let m = CompiledMachine::from_raw(raw.clone());
        let back = m.to_raw();
        let mut inits = raw.var_inits.clone();
        inits.resize(raw.var_count, Value::Int(0));
        assert_eq!(back.code, raw.code, "round {round}");
        assert_eq!(back.lits, raw.lits, "round {round}");
        assert_eq!(back.transitions, raw.transitions, "round {round}");
        assert_eq!(back.dispatch, raw.dispatch, "round {round}");
        assert_eq!(back.wildcard, raw.wildcard, "round {round}");
        assert_eq!(
            (back.max_regs, back.initial_state, back.var_count),
            (raw.max_regs, raw.initial_state, raw.var_count),
            "round {round}"
        );
        assert_eq!(back.var_inits, inits, "round {round}");
        let again = CompiledMachine::from_raw(back);
        for kind in [EventKind::StartTask, EventKind::EndTask] {
            for task in (0..tasks as u32 + 4).chain([u32::MAX]) {
                let key = format!("round {round}: {kind:?}/{task}");
                assert_eq!(again.step_key(kind, task), m.step_key(kind, task), "{key}");
                assert_eq!(again.may_emit(kind, task), m.may_emit(kind, task), "{key}");
            }
        }
    }
}
