//! Runtime-header mutation fuzz, for both runtimes: a run is stopped by
//! a power failure before a random FRAM write (or left complete), then
//! random bytes of the runtime's persistent progress state are flipped
//! — ARTEMIS' cursor, status, attempt counter, sequence number, pending
//! `EndTask` fields, flags and path results; Mayfly's cursor and
//! freshness table — and the device is power-cycled and run again. The
//! boot that loads the flipped state must end in a completed run or a
//! typed fault, never a panic or an out-of-range index.

use artemis::prelude::*;
use artemis::sim::simulator::NonTermination;
use artemis::sim::Fault;
use proptest::prelude::*;

/// Two paths sharing `send`; `avg` carries a monitored value, so a
/// finished `avg` leaves a pending `EndTask` with data in the header.
fn app() -> AppGraph {
    let mut b = AppGraphBuilder::new();
    let sense = b.task("sense");
    let avg = b.task_with_var("avg", "mean");
    let send = b.task("send");
    let accel = b.task("accel");
    b.path(&[sense, avg, send]);
    b.path(&[accel, send]);
    b.build().unwrap()
}

const SPEC: &str = "avg { dpData: mean Range: [0, 100] onFail: skipPath; }\n\
                    send { collect: 1 dpTask: sense onFail: restartPath Path: 1; }\n\
                    accel { maxTries: 3 onFail: skipPath; }";

/// The app's builder with its channel and every task body but `avg`'s,
/// which each runtime's case declares.
fn builder() -> ArtemisRuntimeBuilder {
    let mut rb = ArtemisRuntimeBuilder::new(app());
    rb.channel("samples");
    rb.body("sense", |ctx| {
        ctx.compute(500)?;
        ctx.push("samples", 36.6)
    });
    rb.body("accel", |ctx| {
        ctx.compute(500)?;
        ctx.push("samples", 1.0)
    });
    rb.body("send", |ctx| {
        ctx.compute(500)?;
        ctx.consume("samples")
    });
    rb
}

/// The FRAM span of every allocation whose label starts with `prefix`:
/// the runtime's persistent state, whatever its layout.
fn state_span(dev: &Device, prefix: &str) -> (usize, usize) {
    let allocs = dev.fram().allocations().iter();
    let (lo, hi) = allocs
        .filter(|a| a.label.starts_with(prefix))
        .fold((usize::MAX, 0), |(lo, hi), a| {
            (lo.min(a.addr), hi.max(a.addr + a.size))
        });
    assert!(lo < hi, "no allocation labelled {prefix}*");
    (lo, hi - lo)
}

/// Flips the chosen bytes of `span`, then power-cycles.
fn corrupt(dev: &mut Device, (addr, len): (usize, usize), flips: &[(u16, u8)]) {
    for &(at, mask) in flips {
        let at = addr + at as usize % len;
        let byte = dev.peek_raw(at, 1)[0] ^ mask;
        dev.nv_write_raw(at, &[byte]).unwrap();
    }
    dev.power_cycle();
}

/// A completed run or a typed fault; never a non-terminating loop.
fn typed<O: core::fmt::Debug>(out: &SimOutcome<O>) -> bool {
    matches!(
        out,
        SimOutcome::Completed(_) | SimOutcome::NonTermination(NonTermination::Fault(_))
    )
}

fn limit() -> RunLimit {
    RunLimit::sim_time(SimDuration::from_hours(1))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn mutated_artemis_headers_fault_or_recover(
        crash in 0u64..200,
        flips in proptest::collection::vec((any::<u16>(), 1u8..=255), 1..6),
    ) {
        let mut dev = DeviceBuilder::msp430fr5994().trace_disabled().build();
        let suite = artemis::ir::compile(SPEC, &app()).unwrap();
        let mut rb = builder();
        rb.body("avg", |ctx| {
            ctx.compute(500)?;
            ctx.set_monitored(40.0);
            Ok(())
        });
        let mut rt = rb.install(&mut dev, suite).unwrap();
        dev.fail_before_write(crash);
        rt.run_once(&mut dev, RunLimit::reboots(0));
        dev.fail_before_write(0);
        let span = state_span(&dev, "rt.");
        corrupt(&mut dev, span, &flips);
        let out = rt.run_once(&mut dev, limit());
        prop_assert!(typed(&out), "crash {}, flips {:?}: {:?}", crash, flips, out);
    }

    #[test]
    fn mutated_mayfly_headers_fault_or_recover(
        crash in 0u64..120,
        flips in proptest::collection::vec((any::<u16>(), 1u8..=255), 1..6),
    ) {
        let mut dev = DeviceBuilder::msp430fr5994().trace_disabled().build();
        let mut rb = builder();
        rb.body("avg", |ctx| ctx.compute(500));
        let mut rb = MayflyRuntimeBuilder::new(rb);
        rb.collect("send", "sense", 1);
        rb.expiration("send", "avg", SimDuration::from_secs(60));
        let mut rt = rb.install(&mut dev).unwrap();
        dev.fail_before_write(crash);
        rt.run_once(&mut dev, RunLimit::reboots(0));
        dev.fail_before_write(0);
        let span = state_span(&dev, "mayfly.");
        corrupt(&mut dev, span, &flips);
        let out = rt.run_once(&mut dev, limit());
        prop_assert!(typed(&out), "crash {}, flips {:?}: {:?}", crash, flips, out);
    }
}

/// A path past the app, a cursor past its path and a status no commit
/// writes, as `(field, offset, value)`: both runtimes' headers begin
/// `cur_path: u32, cur_idx: u32, status: u8`.
const CORRUPT_CURSORS: [(&str, usize, u8); 3] =
    [("cur_path", 0, 9), ("cur_idx", 4, 99), ("status", 8, 7)];

fn corrupt_state<O>(out: &SimOutcome<O>) -> bool {
    matches!(
        out,
        SimOutcome::NonTermination(NonTermination::Fault(Fault::CorruptState))
    )
}

/// Each corrupt cursor is rejected by the ARTEMIS boot that loads it.
#[test]
fn corrupt_artemis_cursor_faults() {
    for (field, offset, value) in CORRUPT_CURSORS {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let suite = artemis::ir::compile(SPEC, &app()).unwrap();
        let mut rb = builder();
        rb.body("avg", |ctx| ctx.compute(500));
        let mut rt = rb.install(&mut dev, suite).unwrap();
        let (addr, _) = state_span(&dev, "rt.");
        dev.nv_write_raw(addr + offset, &[value]).unwrap();
        dev.power_cycle();
        let out = rt.run_once(&mut dev, limit());
        assert!(corrupt_state(&out), "{field} = {value}: {out:?}");
    }
}

/// Each corrupt cursor is rejected by the Mayfly boot that loads it.
/// Mayfly's task commit carries the advance, so it never persists the
/// finished status (1) that ARTEMIS stops at: under Mayfly that status
/// is corrupt too.
#[test]
fn corrupt_mayfly_cursor_faults() {
    for (field, offset, value) in CORRUPT_CURSORS.into_iter().chain([("status", 8, 1)]) {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let mut rb = builder();
        rb.body("avg", |ctx| ctx.compute(500));
        let mut rt = MayflyRuntimeBuilder::new(rb).install(&mut dev).unwrap();
        let (addr, _) = state_span(&dev, "mayfly.");
        dev.nv_write_raw(addr + offset, &[value]).unwrap();
        dev.power_cycle();
        let out = rt.run_once(&mut dev, limit());
        assert!(corrupt_state(&out), "{field} = {value}: {out:?}");
    }
}
