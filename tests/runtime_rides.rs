//! Energy-admitted riding against the simulator it relies on.
//!
//! A generated app declares no task costs, so no static proof lets its
//! `EndTask` deliveries ride the task's record: the runtime admits
//! each one for the capacitor's charge instead, when that holds the
//! delivery's admission ceiling plus the record's own price
//! (`artemis::runtime::Ride::admit`). Here generated apps run on the
//! `reboot_storm` benchmark's small capacitors under stochastic
//! outages, and the device's lossless counters must show that every
//! admitted record landed within its allowance and that no power
//! failure struck one. The totals of the run are pinned exactly, so a
//! change to what the runtime commits, or to which rides it admits,
//! fails here.

use artemis::bench::workload;
use artemis::prelude::*;
use artemis::runtime::RideStats;
use artemis::sim::AllowanceStats;

/// Generated apps, each on its own device.
const APPS: u64 = 60;
/// Runs per app.
const RUNS: usize = 25;
/// Usable capacitor budgets the apps cycle through, in µJ.
const CAPACITORS_UJ: [u64; 3] = [15, 25, 35];

/// What the whole sweep counted.
#[derive(Debug, Default, PartialEq)]
struct Totals {
    journal_records: u64,
    riding_records: u64,
    discarded_records: u64,
    reboots: u64,
    rides: RideStats,
    allowances: AllowanceStats,
}

fn sweep() -> Totals {
    let mut t = Totals::default();
    for seed in 0..APPS {
        let w = workload::generate(seed);
        let budget = CAPACITORS_UJ[seed as usize % CAPACITORS_UJ.len()];
        let mut dev = DeviceBuilder::msp430fr5994()
            .capacitor(Capacitor::with_budget(Energy::from_micro_joules(budget)))
            .harvester(Harvester::stochastic(
                SimDuration::from_millis(100),
                SimDuration::from_secs(10),
                seed.rotate_left(17),
            ))
            .trace_disabled()
            .build();
        let suite = artemis::ir::compile(&w.spec, &w.app).unwrap();
        let mut rt = w.builder().install(&mut dev, suite).unwrap();
        for run in 0..RUNS {
            if run > 0 {
                while rt.rearm(&mut dev).is_err() {
                    dev.power_cycle();
                }
            }
            let out = rt.run_once(&mut dev, RunLimit::sim_time(SimDuration::from_hours(2)));
            assert!(out.is_completed(), "app {seed}, run {run}");
        }
        let (r, a) = (rt.ride_stats(), dev.allowance_stats());
        t.journal_records += dev.journal_records();
        t.riding_records += dev.riding_records();
        t.discarded_records += dev.discarded_records();
        t.reboots += dev.reboots();
        t.rides.proof += r.proof;
        t.rides.energy += r.energy;
        t.rides.refused += r.refused;
        t.rides.never += r.never;
        t.allowances.landed += a.landed;
        t.allowances.overdrawn += a.overdrawn;
        t.allowances.struck += a.struck;
    }
    t
}

/// Every ride admitted for energy lands within its allowance — the
/// measured draw from the admission to the end of the landing is at
/// most the ceiling plus the record's price — and no natural power
/// failure strikes one, although outages strike other open records;
/// the sweep's totals are pinned.
#[test]
fn energy_admitted_rides_land_within_their_allowance() {
    let t = sweep();
    assert!(
        t.reboots > 0 && t.discarded_records > 0,
        "premise: outages strike open records"
    );
    assert!(
        t.rides.energy > 0 && t.rides.refused > 0,
        "premise: both branches"
    );
    assert_eq!(t.rides.proof, 0, "generated apps declare no costs");
    assert_eq!(t.allowances.overdrawn, 0, "a ride drew more than admitted");
    assert_eq!(
        t.allowances.struck, 0,
        "a power failure struck an admitted ride"
    );
    // Also an `EndTask` delivery whose task committed on its own may
    // ride an empty record: more rides land than task boundaries
    // admitted.
    assert!(t.allowances.landed >= t.rides.energy);
    let pinned = Totals {
        journal_records: 21_701,
        riding_records: 7_714,
        discarded_records: 4,
        reboots: 2_833,
        rides: RideStats {
            proof: 0,
            energy: 10_130,
            refused: 1_521,
            never: 0,
        },
        allowances: AllowanceStats {
            landed: 10_207,
            overdrawn: 0,
            struck: 0,
        },
    };
    assert_eq!(t, pinned);
}
