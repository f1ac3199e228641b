//! Each workload at a tiny size, through the same run loop the command
//! uses: the same seed must give identical deterministic metrics (and
//! pass every output check, traced or not), and another seed must
//! change the generated inputs.

use crate::runner::{self, Outcome, Workload};
use crate::{churn, fleet, storm, stream};

/// Metrics that depend only on the inputs, never on host timing.
const DETERMINISTIC: [&str; 5] = [
    "sim_us_per_item",
    "sim_nj_per_item",
    "sim_monitor_us_per_item",
    "sim_monitor_nj_per_item",
    "fram_bytes_per_item",
];

fn note<'a>(o: &'a Outcome, key: &str) -> &'a str {
    &o.notes
        .iter()
        .find(|(k, _)| k == key)
        .expect("note present")
        .1
}

fn metric(o: &Outcome, name: &str) -> f64 {
    o.metrics
        .iter()
        .find(|m| m.name == name)
        .expect("metric present")
        .value
}

fn exercise<W: Workload>(size: usize) {
    let run = |seed, trace| runner::run::<W>(seed, size, 1e-3, trace);
    let a = run(11, false);
    let b = run(11, false);
    for o in [&a, &b] {
        assert!(o.correct, "checks failed: {:?}", o.notes);
        assert!(o.attempted > 0);
    }
    for name in DETERMINISTIC {
        assert!(metric(&a, name) > 0.0, "{name} is zero");
        assert_eq!(
            metric(&a, name),
            metric(&b, name),
            "{name} differs across runs"
        );
    }
    assert_eq!(
        note(&a, "bench.input_digest"),
        note(&b, "bench.input_digest")
    );

    let other = run(12, false);
    assert_ne!(
        note(&a, "bench.input_digest"),
        note(&other, "bench.input_digest")
    );

    let traced = run(11, true);
    assert!(traced.correct, "traced checks failed: {:?}", traced.notes);
    assert!(metric(&traced, "monitor.install_us") > 0.0);
    assert!(traced
        .chrome
        .as_deref()
        .is_some_and(|j| j.contains("\"ph\":\"X\"")));
}

#[test]
fn wearable_fleet_is_deterministic() {
    exercise::<fleet::Fleet>(48);
}

#[test]
fn monitor_stream_is_deterministic() {
    exercise::<stream::Stream>(4_000);
}

#[test]
fn reboot_storm_is_deterministic() {
    exercise::<storm::Storm>(3);
}

#[test]
fn install_churn_is_deterministic() {
    exercise::<churn::Churn>(12);
}
