//! Writing a monitor directly in the intermediate language (the
//! paper's §3.3 escape hatch for properties the specification language
//! cannot express), and running it alongside generated monitors.
//!
//! The custom property: "`send` may run at most twice per application
//! run" — a rate cap that has no spec-language keyword. Expressed as a
//! hand-written state machine, validated, installed, and enforced.
//!
//! ```text
//! cargo run --example custom_monitor
//! ```

use artemis::prelude::*;

const CUSTOM_IR: &str = r#"
// Rate cap: allow two completed `send` executions, then skip further
// attempts. Written directly in the ARTEMIS intermediate language.
machine send_rate_cap task send persistent {
    var done: int = 0;
    state Counting initial;
    on endTask(send) from Counting to Counting { done := (done + 1); };
    on startTask(send) from Counting to Counting if (done >= 2) { } fail skipTask;
}
"#;

fn main() {
    // A small app where `send` would naturally run three times.
    let mut b = AppGraphBuilder::new();
    let sense = b.task("sense");
    let sense_b = b.task("senseB");
    let sense_c = b.task("senseC");
    let send = b.task("send");
    b.path(&[sense, send]);
    b.path(&[sense_b, send]);
    b.path(&[sense_c, send]);
    let app = b.build().expect("valid graph");

    // Parse and validate the hand-written machine.
    let mut suite = artemis::ir::parse::parse_suite(CUSTOM_IR).expect("IR parses");
    for m in suite.machines() {
        artemis::ir::validate::validate_strict(m).expect("IR validates");
    }

    // Mix in a generated property from the specification language.
    let generated =
        artemis::ir::compile("sense: { maxTries: 5 onFail: skipPath; }", &app).expect("compiles");
    for m in generated.machines() {
        suite.push(m.clone());
    }
    println!(
        "installed machines: {:?}",
        suite.machines().iter().map(|m| &m.name).collect::<Vec<_>>()
    );

    let mut dev = DeviceBuilder::msp430fr5994().build();
    let mut rb = ArtemisRuntimeBuilder::new(app.clone());
    for t in ["sense", "senseB", "senseC"] {
        rb.body(t, |ctx| ctx.compute(2_000));
    }
    rb.body("send", |ctx| ctx.transmit(16));
    let mut rt = rb.install(&mut dev, suite).expect("install");

    let outcome = rt.run_once(&mut dev, RunLimit::sim_time(SimDuration::from_mins(1)));
    println!("outcome: {outcome:?}");

    let sends = dev
        .trace()
        .completions_of(app.task_by_name("send").unwrap());
    println!("send completed {sends} time(s) — the cap allows 2");
    assert_eq!(sends, 2, "rate cap must hold");
    println!("\ntimeline:\n{}", dev.trace().render());
}
