//! Pins of the compiled monitor output.
//!
//! `compiled_output_matches_its_pin` hashes everything a compiled
//! suite hands the engine and the analyses — each machine's raw parts
//! (`to_raw()`), packed layout and register file, and per `(kind,
//! task)` key its step cost, access set, dispatch length and routed
//! machines — with 64-bit FNV-1a over the parts' `Debug` rendering, for
//! the Fig. 5 suite and the generated suites of seeds 0..64 at both
//! `OptLevel`s. A change to codegen, the optimizer or the derivation
//! that moves any of it moves a digest.
//!
//! `flat_dispatch_round_trips` requires `CompiledMachine::from_raw(m.
//! to_raw())` to give every key the same transition list, access set,
//! step cost and `may_emit` as `m`, and `to_raw()` to return the parts
//! the machine was built from. `tests/from_raw_fuzz.rs` runs the same
//! round trip on arbitrary raw parts.

use std::fmt::{self, Write};

use artemis_bench::{health, workload};
use artemis_core::app::AppGraph;
use artemis_core::event::EventKind;
use artemis_ir::{CompiledMachine, CompiledSuite, OptLevel, RawMachine};

/// 64-bit FNV-1a, fed through `fmt::Write`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn part(&mut self, v: impl fmt::Debug) {
        write!(self, "{v:?};").unwrap();
    }
}

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

const KINDS: [EventKind; 2] = [EventKind::StartTask, EventKind::EndTask];

/// Every key of an app of `tasks` tasks, plus one out-of-graph probe.
fn probes(tasks: usize) -> impl Iterator<Item = (EventKind, u32)> {
    KINDS
        .into_iter()
        .flat_map(move |k| (0..tasks as u32).chain([u32::MAX]).map(move |t| (k, t)))
}

fn hash_suite(h: &mut Fnv, c: &CompiledSuite, tasks: usize) {
    h.part(c.max_regs());
    for m in c.machines() {
        let raw = m.to_raw();
        h.part(&raw.code);
        h.part(&raw.lits);
        h.part(&raw.transitions);
        h.part(&raw.dispatch);
        h.part(&raw.wildcard);
        h.part((raw.max_regs, raw.initial_state, raw.var_count));
        h.part(&raw.var_inits);
        h.part(m.layout());
        h.part(m.max_regs());
        for (kind, task) in probes(tasks) {
            h.part(m.step_cost(kind, task));
            h.part(m.access(kind, task));
            h.part(m.dispatch_len(kind, task));
        }
    }
    for (kind, task) in probes(tasks) {
        h.part(c.routing().interested(kind, task));
    }
}

/// The pinned suites: Fig. 5, then the generated ones.
fn suites() -> Vec<(String, AppGraph)> {
    let mut all = vec![(health::HEALTH_SPEC.to_string(), health::health_app())];
    all.extend((0..64).map(|seed| {
        let w = workload::generate(seed);
        (w.spec, w.app)
    }));
    all
}

fn compile(spec: &str, app: &AppGraph, opt: OptLevel) -> CompiledSuite {
    let suite = artemis_ir::compile(spec, app).expect("the spec lowers");
    CompiledSuite::compile_with(&suite, app, opt).expect("the suite compiles")
}

#[test]
fn compiled_output_matches_its_pin() {
    let suites = suites();
    let mut got = Vec::new();
    for opt in [OptLevel::None, OptLevel::Full] {
        for (name, range) in [("fig5", 0..1), ("generated", 1..suites.len())] {
            let mut h = Fnv::new();
            for (spec, app) in &suites[range] {
                hash_suite(&mut h, &compile(spec, app, opt), app.task_count());
            }
            got.push(format!("{name} {opt:?} {:016x}", h.0));
        }
    }
    let pinned = [
        "fig5 None 9cc615de0e145cfc",
        "generated None 4b35ad7872e62600",
        "fig5 Full 86cfd901bddf0618",
        "generated Full 7875fe41bc6864da",
    ];
    assert_eq!(got, pinned);
}

/// `a`'s and `b`'s parts are equal, `var_inits` taken at `a`'s
/// `var_count`.
fn assert_same_parts(a: &RawMachine, b: &RawMachine, what: &str) {
    let mut inits = b.var_inits.clone();
    inits.resize(b.var_count, artemis_ir::expr::Value::Int(0));
    assert_eq!(a.code, b.code, "{what}: code");
    assert_eq!(a.lits, b.lits, "{what}: lits");
    assert_eq!(a.transitions, b.transitions, "{what}: transitions");
    assert_eq!(a.dispatch, b.dispatch, "{what}: dispatch");
    assert_eq!(a.wildcard, b.wildcard, "{what}: wildcard");
    assert_eq!(a.max_regs, b.max_regs, "{what}: max_regs");
    assert_eq!(a.initial_state, b.initial_state, "{what}: initial state");
    assert_eq!(a.var_count, b.var_count, "{what}: var_count");
    assert_eq!(a.var_inits, inits, "{what}: var_inits");
}

/// `m` and its reassembly agree on every key's derived data, and the
/// reassembly hands back `m`'s parts.
fn assert_round_trips(m: &CompiledMachine, tasks: usize, what: &str) {
    let raw = m.to_raw();
    let again = CompiledMachine::from_raw(raw.clone());
    assert_same_parts(&again.to_raw(), &raw, what);
    assert_eq!(again.layout(), m.layout(), "{what}: layout");
    for (kind, task) in probes(tasks + 2) {
        let key = format!("{what}: {kind:?}/{task}");
        assert_eq!(
            again.dispatch_len(kind, task),
            m.dispatch_len(kind, task),
            "{key}"
        );
        assert_eq!(again.access(kind, task), m.access(kind, task), "{key}");
        assert_eq!(
            again.step_cost(kind, task),
            m.step_cost(kind, task),
            "{key}"
        );
        assert_eq!(again.may_emit(kind, task), m.may_emit(kind, task), "{key}");
        assert_eq!(again.step_key(kind, task), m.step_key(kind, task), "{key}");
    }
}

#[test]
fn flat_dispatch_round_trips() {
    for opt in [OptLevel::None, OptLevel::Full] {
        for (i, (spec, app)) in suites().iter().enumerate() {
            let c = compile(spec, app, opt);
            for (mi, m) in c.machines().iter().enumerate() {
                let what = format!("suite {i} {opt:?} machine {mi}");
                let raw = m.to_raw();
                // Per-kind lists, one per task, in priority order.
                assert_eq!(raw.dispatch[0].len(), app.task_count(), "{what}");
                assert_eq!(raw.dispatch[1].len(), app.task_count(), "{what}");
                for (k, kind) in KINDS.into_iter().enumerate() {
                    for (task, list) in raw.dispatch[k].iter().enumerate() {
                        assert_eq!(list.len(), m.dispatch_len(kind, task as u32), "{what}");
                        assert!(list.windows(2).all(|w| w[0] < w[1]), "{what}");
                    }
                    assert_eq!(raw.wildcard[k].len(), m.dispatch_len(kind, u32::MAX));
                }
                assert_round_trips(m, app.task_count(), &what);
            }
        }
    }
}
