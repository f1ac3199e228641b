//! Mutation fuzzing of the bytecode verifier.
//!
//! The safety contract of [`artemis_ir::analysis::verifier`] is
//! one-sided: **verifier accepts ⇒ execution is safe**. These tests pin
//! it the way eBPF's verifier is pinned — by throwing randomly mutated
//! programs at it. Every mutant of a valid compiled machine must either
//! be rejected by the verifier or execute through
//! [`CompiledMachine::step`] without panicking (no out-of-bounds
//! register/slot/literal/state index, no non-terminating jump), for any
//! event the engine could deliver. Over-rejection is acceptable;
//! under-rejection is the bug class being hunted.

use artemis_core::app::{AppGraph, AppGraphBuilder};
use artemis_core::event::EventKind;
use artemis_ir::analysis::{verify_machine, MachineEnv};
use artemis_ir::compile::{CompiledEvent, CompiledSuite, Op};
use artemis_ir::expr::{EventCtx, Value, VarType};
use artemis_ir::fsm::StateMachine;
use artemis_ir::{CompiledMachine, OptLevel, RawMachine};
use proptest::prelude::*;

/// Spec exercising every property compiler: counters, guards with
/// `&&`/comparisons, time arithmetic, depData access.
const SPEC: &str = "\
    a { maxTries: 3 onFail: skipPath; }\n\
    b { MITD: 10s dpTask: a onFail: restartPath maxAttempt: 2 onFail: skipPath; \
        collect: 2 dpTask: a onFail: restartPath; \
        maxDuration: 5s onFail: skipTask; }";

fn app() -> AppGraph {
    let mut builder = AppGraphBuilder::new();
    let a = builder.task("a");
    let b = builder.task("b");
    builder.path(&[a, b]);
    builder.build().unwrap()
}

/// The mutation corpus: every machine of the compiled spec suite,
/// paired with its source (for the verification environment).
fn corpus() -> Vec<(StateMachine, CompiledMachine)> {
    let app = app();
    let suite = artemis_ir::compile(SPEC, &app).unwrap();
    let compiled = CompiledSuite::compile(&suite, &app).unwrap();
    suite
        .machines()
        .iter()
        .cloned()
        .zip(compiled.machines().iter().cloned())
        .collect()
}

/// The first raw part in which optimizing `m` once and optimizing it
/// twice differ, or `None` when the optimizer's one sweep reached its
/// fixpoint: `optimize_machine(&optimize_machine(m)) ==
/// optimize_machine(m)`, compared part by part through `to_raw()`.
fn fixpoint_miss(m: &CompiledMachine) -> Option<&'static str> {
    let once = artemis_ir::optimize_machine(m).to_raw();
    let twice = artemis_ir::optimize_machine(&CompiledMachine::from_raw(once.clone())).to_raw();
    [
        ("code", once.code == twice.code),
        ("lits", once.lits == twice.lits),
        ("transitions", once.transitions == twice.transitions),
        ("dispatch", once.dispatch == twice.dispatch),
        ("wildcard", once.wildcard == twice.wildcard),
        ("max_regs", once.max_regs == twice.max_regs),
        ("initial_state", once.initial_state == twice.initial_state),
        ("var_count", once.var_count == twice.var_count),
        ("var_inits", once.var_inits == twice.var_inits),
    ]
    .into_iter()
    .find_map(|(part, same)| (!same).then_some(part))
}

fn env_of(m: &StateMachine) -> (String, usize, Vec<VarType>) {
    (
        m.name.clone(),
        m.states.len(),
        m.vars.iter().map(|v| v.ty).collect(),
    )
}

/// Applies one mutation, selected by `kind` and parameterised by the
/// raw entropy words `a` and `b`. Mutations mix in-bounds and
/// out-of-bounds values (`x % (2 * limit)`) so a useful fraction of
/// mutants survives verification and actually executes.
fn mutate(raw: &mut RawMachine, kind: u8, a: u64, b: u64) {
    let code_len = raw.code.len();
    let n16 = (b % 64) as u16;
    match kind {
        // Perturb one operand of one instruction.
        0 => {
            if code_len == 0 {
                return;
            }
            let target_bound = 2 * code_len as u64 + 2;
            match &mut raw.code[a as usize % code_len] {
                Op::Const { dst, lit } => {
                    if a & 1 == 0 {
                        *dst = n16;
                    } else {
                        *lit = n16;
                    }
                }
                Op::LoadVar { dst, slot } => {
                    if a & 1 == 0 {
                        *dst = n16;
                    } else {
                        *slot = n16;
                    }
                }
                Op::LoadEventTime { dst } | Op::LoadDepData { dst } | Op::LoadEnergy { dst } => {
                    *dst = n16
                }
                Op::Bin {
                    dst, a: ra, b: rb, ..
                } => match a % 3 {
                    0 => *dst = n16,
                    1 => *ra = n16,
                    _ => *rb = n16,
                },
                Op::Not { dst, src } => {
                    if a & 1 == 0 {
                        *dst = n16;
                    } else {
                        *src = n16;
                    }
                }
                Op::AssertBool { src } => *src = n16,
                Op::JumpIfFalse { src, target } | Op::JumpIfTrue { src, target } => {
                    if a & 1 == 0 {
                        *src = n16;
                    } else {
                        *target = (b % target_bound) as u32;
                    }
                }
                Op::Jump { target } => *target = (b % target_bound) as u32,
                Op::StoreVar { slot, src } => {
                    if a & 1 == 0 {
                        *slot = n16;
                    } else {
                        *src = n16;
                    }
                }
                Op::CmpBranch {
                    dst,
                    a: ra,
                    b: rb,
                    target,
                    ..
                } => match a % 4 {
                    0 => *dst = n16,
                    1 => *ra = n16,
                    2 => *rb = n16,
                    _ => *target = (b % target_bound) as u32,
                },
                Op::LoadCmpBranch {
                    dst,
                    slot,
                    lit,
                    target,
                    ..
                } => match a % 4 {
                    0 => *dst = n16,
                    1 => *slot = n16,
                    2 => *lit = n16,
                    _ => *target = (b % target_bound) as u32,
                },
                Op::ConstStore { slot, lit } => {
                    if a & 1 == 0 {
                        *slot = n16;
                    } else {
                        *lit = n16;
                    }
                }
            }
        }
        // Swap two instructions (ranges now run foreign code).
        1 => {
            if code_len >= 2 {
                raw.code.swap(a as usize % code_len, b as usize % code_len);
            }
        }
        // Rewire a transition endpoint.
        2 => {
            if let Some(t) = {
                let len = raw.transitions.len();
                (len > 0).then(|| &mut raw.transitions[a as usize % len])
            } {
                let s = (b % 6) as u32;
                if a & 1 == 0 {
                    t.from = s;
                } else {
                    t.to = s;
                }
            }
        }
        // Rewrite a guard or body bytecode range.
        3 => {
            let len = raw.transitions.len();
            if len == 0 {
                return;
            }
            let t = &mut raw.transitions[a as usize % len];
            let bound = code_len as u64 + 2;
            let s = (b % bound) as u32;
            let e = ((b >> 8) % bound) as u32;
            if a & 1 == 0 {
                t.guard = Some(s..e);
            } else {
                t.body = s..e;
            }
        }
        // Move the initial state.
        4 => raw.initial_state = (b % 6) as u32,
        // Corrupt a dispatch-table entry.
        5 => {
            let k = (a % 2) as usize;
            let lists = raw.dispatch[k].len();
            let t_bound = 2 * raw.transitions.len() as u64 + 2;
            let list = if lists > 0 && a & 4 == 0 {
                &mut raw.dispatch[k][(a as usize / 8) % lists]
            } else {
                &mut raw.wildcard[k]
            };
            if list.is_empty() {
                list.push((b % t_bound) as u16);
            } else {
                let i = b as usize % list.len();
                list[i] = ((b >> 8) % t_bound) as u16;
            }
        }
        // Shrink or grow the scratch register file.
        6 => raw.max_regs = (b % 10) as usize,
        // Lie about the variable-slot count.
        7 => raw.var_count = (b % (2 * raw.var_count as u64 + 2)) as usize,
        // Drop or fabricate a guard.
        8 => {
            let len = raw.transitions.len();
            if len == 0 {
                return;
            }
            let t = &mut raw.transitions[a as usize % len];
            if b & 1 == 0 {
                t.guard = None;
            } else {
                let bound = code_len as u64 + 2;
                t.guard = Some(((b >> 1) % bound) as u32..((b >> 9) % bound) as u32);
            }
        }
        // Truncate the instruction stream (ranges dangle).
        _ => raw.code.truncate(b as usize % (code_len + 1)),
    }
}

/// Drives an accepted mutant through every event key the engine could
/// deliver, several times, from its initial state. Evaluation errors
/// are fine (the engine treats them as a silent accept); a panic here
/// fails the test.
fn exercise(cm: &CompiledMachine, init_vars: &[Value]) {
    let mut regs = vec![Value::Int(0); cm.max_regs()];
    let mut vars = init_vars.to_vec();
    let mut state = cm.initial_state();
    let mut seq = 0u64;
    for kind in [EventKind::StartTask, EventKind::EndTask] {
        for task in [0u32, 1, 2, 7, u32::MAX] {
            for _ in 0..3 {
                seq += 1;
                let ctx = EventCtx {
                    time_us: seq * 1_000,
                    dep_data: seq.is_multiple_of(2).then_some(seq as f64),
                    energy_nj: 42_000,
                };
                let ev = CompiledEvent { kind, task, ctx };
                let _ = cm.step(&mut state, &mut vars, &ev, &mut regs);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10_000, ..ProptestConfig::default() })]

    /// The tentpole property: any 1–3 random mutations of a valid
    /// compiled machine yield a program the verifier rejects or one
    /// that executes without out-of-bounds access on any event.
    #[test]
    fn accepted_mutants_execute_safely(
        machine_sel in 0usize..64,
        mutations in proptest::collection::vec(
            (0u8..10, proptest::strategy::any::<u64>(), proptest::strategy::any::<u64>()),
            1..4,
        ),
    ) {
        let corpus = corpus();
        let (src, cm) = &corpus[machine_sel % corpus.len()];
        let mut raw = cm.to_raw();
        for (kind, a, b) in &mutations {
            mutate(&mut raw, *kind, *a, *b);
        }
        let mutant = CompiledMachine::from_raw(raw);

        let (name, state_count, var_types) = env_of(src);
        let env = MachineEnv {
            name: &name,
            state_count,
            var_types: &var_types,
        };
        let diags = verify_machine(&mutant, &env);
        if diags.iter().all(|d| !d.is_error()) {
            // Accepted: must execute without panicking.
            exercise(&mutant, &src.initial_vars());
        }
    }

    /// The optimizer is verifier-monotone: for any mutant the verifier
    /// accepts, the optimized mutant must also be accepted — and must
    /// still execute safely. This is the property that makes running
    /// the optimizer *before* the install-time gate sound: optimization
    /// can never turn a verified program into a rejected (or unsafe)
    /// one, even on adversarial inputs no compiler would emit.
    #[test]
    fn optimizer_output_always_verifies(
        machine_sel in 0usize..64,
        mutations in proptest::collection::vec(
            (0u8..10, proptest::strategy::any::<u64>(), proptest::strategy::any::<u64>()),
            1..4,
        ),
    ) {
        let corpus = corpus();
        let (src, cm) = &corpus[machine_sel % corpus.len()];
        let mut raw = cm.to_raw();
        for (kind, a, b) in &mutations {
            mutate(&mut raw, *kind, *a, *b);
        }
        let mutant = CompiledMachine::from_raw(raw);

        let (name, state_count, var_types) = env_of(src);
        let env = MachineEnv {
            name: &name,
            state_count,
            var_types: &var_types,
        };
        if verify_machine(&mutant, &env).iter().all(|d| !d.is_error()) {
            let opt = artemis_ir::optimize_machine(&mutant);
            let diags = verify_machine(&opt, &env);
            prop_assert!(
                diags.iter().all(|d| !d.is_error()),
                "optimizer broke a verified mutant: {diags:?}"
            );
            exercise(&opt, &src.initial_vars());
            let miss = fixpoint_miss(&mutant);
            prop_assert!(miss.is_none(), "a second sweep changed the {:?}", miss);
        }
    }
}

/// The acceptance statistics that make the property above non-vacuous:
/// across a deterministic mutant population, the verifier must both
/// reject (it catches corruption) and accept (the execution leg runs) a
/// healthy share.
#[test]
fn mutation_population_is_split() {
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    let corpus = corpus();
    let mut rng = StdRng::seed_from_u64(0xA57E_317A);
    let (mut accepted, mut rejected) = (0u32, 0u32);
    for _ in 0..2_000 {
        let (src, cm) = &corpus[rng.random_range(0..corpus.len())];
        let mut raw = cm.to_raw();
        mutate(
            &mut raw,
            rng.random_range(0u64..10) as u8,
            rng.next_u64(),
            rng.next_u64(),
        );
        let mutant = CompiledMachine::from_raw(raw);
        let (name, state_count, var_types) = env_of(src);
        let env = MachineEnv {
            name: &name,
            state_count,
            var_types: &var_types,
        };
        if verify_machine(&mutant, &env).iter().all(|d| !d.is_error()) {
            accepted += 1;
            exercise(&mutant, &src.initial_vars());
        } else {
            rejected += 1;
        }
    }
    assert!(
        accepted >= 100,
        "too few mutants accepted ({accepted}/2000): the safety leg is near-vacuous"
    );
    assert!(
        rejected >= 100,
        "too few mutants rejected ({rejected}/2000): the verifier is not catching corruption"
    );
}

/// Deterministic twin of `optimizer_output_always_verifies`: a fixed
/// 2 000-mutant population where every accepted mutant is optimized,
/// re-verified, exercised, and optimized again to no change. Also
/// asserts the leg is non-vacuous.
#[test]
fn optimized_mutant_population_verifies() {
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    let corpus = corpus();
    let mut rng = StdRng::seed_from_u64(0x0971_417E);
    let mut optimized = 0u32;
    for _ in 0..2_000 {
        let (src, cm) = &corpus[rng.random_range(0..corpus.len())];
        let mut raw = cm.to_raw();
        mutate(
            &mut raw,
            rng.random_range(0u64..10) as u8,
            rng.next_u64(),
            rng.next_u64(),
        );
        let mutant = CompiledMachine::from_raw(raw);
        let (name, state_count, var_types) = env_of(src);
        let env = MachineEnv {
            name: &name,
            state_count,
            var_types: &var_types,
        };
        if verify_machine(&mutant, &env).iter().all(|d| !d.is_error()) {
            let opt = artemis_ir::optimize_machine(&mutant);
            let diags = verify_machine(&opt, &env);
            assert!(
                diags.iter().all(|d| !d.is_error()),
                "optimizer broke a verified mutant: {diags:?}"
            );
            exercise(&opt, &src.initial_vars());
            if let Some(part) = fixpoint_miss(&mutant) {
                panic!("a second sweep changed the {part} of a verified mutant");
            }
            optimized += 1;
        }
    }
    assert!(
        optimized >= 100,
        "too few mutants reached the optimizer ({optimized}/2000): the leg is near-vacuous"
    );
}

/// Unmutated compiler output always verifies — the gate can never
/// reject what the compiler emits (the other half of the contract, also
/// pinned per-pass in the unit tests).
#[test]
fn compiler_output_is_always_accepted() {
    for (src, cm) in corpus() {
        let (name, state_count, var_types) = env_of(&src);
        let env = MachineEnv {
            name: &name,
            state_count,
            var_types: &var_types,
        };
        let diags = verify_machine(&cm, &env);
        assert!(diags.is_empty(), "{name}: {diags:?}");
    }
}

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

/// A hand-written machine whose ranges each hold several rewrite
/// sites: chained `&&`/`||` guards and bodies of literal stores and
/// nested `if`s. Spec-compiled machines fuse at most once per range.
const DENSE_IR: &str = "\
    machine dense task a persistent { \
        var x: int = 0; var y: int = 0; var f: bool = false; \
        state S initial; \
        on startTask(a) from S to S if (((x < 3) && (y >= 2)) && ((x < 1) || f)) { \
            x := 0; y := 1; f := (y > x); \
            if (x > 2) { y := 0; } else { f := true; } \
            if ((y < 4) && (x != 1)) { x := 5; y := 6; } \
        }; }";

/// The optimizer is one sweep with no fixpoint loop, so the sweep
/// itself must leave nothing for a second one: on every Fig. 5
/// machine and on [`DENSE_IR`], straight from codegen and as shipped,
/// and on the verifier-fuzz corpus, optimizing twice equals
/// optimizing once.
#[test]
fn one_sweep_reaches_the_fixpoint() {
    let fig5_app = health_app();
    let fig5 = artemis_ir::compile(artemis_spec::samples::FIGURE5, &fig5_app).unwrap();
    let dense = artemis_ir::parse::parse_suite(DENSE_IR).unwrap();
    for (suite, app) in [(&fig5, &fig5_app), (&dense, &app())] {
        for level in [OptLevel::None, OptLevel::Full] {
            let compiled = CompiledSuite::compile_with(suite, app, level).unwrap();
            for (src, m) in suite.machines().iter().zip(compiled.machines()) {
                assert_eq!(fixpoint_miss(m), None, "{} at {level:?}", src.name);
            }
        }
    }
    for (src, m) in corpus() {
        assert_eq!(fixpoint_miss(&m), None, "{}", src.name);
    }
}
