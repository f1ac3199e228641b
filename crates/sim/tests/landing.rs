//! One-bill landing against the per-access path.
//!
//! A journal record the capacitor provably covers lands with one bill
//! per cost category; every other record is billed one FRAM access at a
//! time. A failure scheduled past any write a test makes
//! (`fail_before_write(u64::MAX)`) never fires but keeps a device on the
//! per-access path, which makes that path the oracle: over seeded
//! write-sets of one to three owner runs, on every harvester class, with
//! the charge just above, at and just below the record's price and the
//! deadline before, at and after its end, both devices must end in the
//! same state — bills, clock, charge, FRAM, record counters, trace and
//! the returned `Result`.

use artemis_core::app::TaskId;
use artemis_core::time::{SimDuration, SimInstant};
use artemis_core::trace::{Trace, TraceEvent};
use intermittent_sim::capacitor::Capacitor;
use intermittent_sim::device::{
    AllowanceStats, CostCategory, Device, DeviceBuilder, DeviceStats, Fault, Interrupt,
};
use intermittent_sim::energy::Energy;
use intermittent_sim::fram::{FramTraffic, MemOwner};
use intermittent_sim::harvester::Harvester;
use intermittent_sim::journal::{Journal, TxWriter};
use intermittent_sim::mcu::{Cost, CostModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Largest record the journal holds, count word included.
const CAPACITY: usize = 320;
/// Bytes of the region the write-sets target.
const REGION: usize = 128;

/// One landing: the opener's write-set, then each appender's, with the
/// category that staged it. A single run with `plain` set commits on
/// its own ([`Device::commit`]); anything else goes through the open
/// record.
struct Landing {
    runs: Vec<(CostCategory, TxWriter)>,
    plain: bool,
}

impl Landing {
    /// Every sub-write in landing order: the record that lands.
    fn record(&self) -> TxWriter {
        let mut all = TxWriter::new();
        for (_, tx) in &self.runs {
            all.append(tx);
        }
        all
    }

    /// The time and energy landing the whole record draws.
    fn price(&self, costs: &CostModel) -> Cost {
        let (writes, bytes) = self.record().commit_writes();
        (costs.fram_write_base.times(writes as u64))
            .plus(costs.fram_write_per_byte.times(bytes as u64))
    }

    /// Lands the record on `dev`.
    fn land(&self, dev: &mut Device, journal: &Journal) -> Result<(), Interrupt> {
        let (opener, tx) = &self.runs[0];
        dev.set_category(*opener);
        if self.plain {
            return dev.commit(journal, tx);
        }
        let landed = Some(TraceEvent::TaskEnd { task: TaskId(0) });
        let allowance = Some(dev.energy_level());
        dev.open_record(journal, tx, landed, allowance)?;
        for (c, tx) in &self.runs[1..] {
            dev.billed(*c, |dev| {
                assert!(dev.append_record(tx), "the journal holds the record");
                Ok(())
            })?;
        }
        dev.flush_record()
    }
}

/// A seeded landing of one to three owner runs, each of zero to four
/// sub-writes of 1–16 bytes anywhere in the region.
fn seeded(rng: &mut StdRng, region: usize) -> Landing {
    let runs = (0..rng.random_range(1..=3usize))
        .map(|_| {
            let c = CostCategory::ALL[rng.random_range(0..3usize)];
            let mut tx = TxWriter::new();
            for _ in 0..rng.random_range(0..=4u32) {
                let len = rng.random_range(1..=16usize);
                let at = region + rng.random_range(0..=REGION - len);
                let data: Vec<u8> = (0..len).map(|_| rng.random_range(0..=255u8)).collect();
                tx.write_raw(at, &data);
            }
            (c, tx)
        })
        .collect::<Vec<_>>();
    Landing {
        plain: runs.len() == 1 && rng.random_range(0..2u32) == 0,
        runs,
    }
}

/// Everything a landing can change that a caller can observe.
#[derive(Debug, PartialEq)]
struct Observed {
    result: Result<(), Interrupt>,
    stats: DeviceStats,
    now: SimInstant,
    charge: Energy,
    fram: Vec<u8>,
    traffic: FramTraffic,
    records: (u64, usize, u64, u64),
    allowances: AllowanceStats,
    trace: Trace,
}

fn observe(dev: &Device, result: Result<(), Interrupt>) -> Observed {
    Observed {
        result,
        stats: *dev.stats(),
        now: dev.now(),
        charge: dev.energy_level(),
        fram: dev.peek_raw(0, dev.fram().used()).to_vec(),
        traffic: dev.fram().traffic(),
        records: (
            dev.journal_records(),
            dev.largest_journal_record(),
            dev.riding_records(),
            dev.discarded_records(),
        ),
        allowances: dev.allowance_stats(),
        trace: dev.trace().clone(),
    }
}

/// A device whose capacitor holds `charge` once set up on tethered
/// power and switched to `harvester`, its journal, and the region's
/// address.
fn device(harvester: Harvester, charge: Energy) -> (Device, Journal, usize) {
    let mut dev = DeviceBuilder::msp430fr5994()
        .capacitor(Capacitor::with_budget(charge))
        .build();
    let journal = dev.make_journal(CAPACITY, MemOwner::Runtime).unwrap();
    let region = dev.nv_alloc_raw(REGION, MemOwner::App, "region").unwrap();
    dev.set_harvester(harvester);
    (dev, journal, region)
}

/// Lands `landing` on two identical devices, the second one forced
/// onto the per-access path, and requires equal observations.
fn differential(
    landing: &Landing,
    harvester: &Harvester,
    charge: Energy,
    deadline: Option<i64>,
) -> Observed {
    let run = |per_access: bool| {
        let (mut dev, journal, _) = device(harvester.clone(), charge);
        let end = dev.now() + landing.price(dev.cost_model()).time;
        let deadline = deadline
            .map(|d| SimInstant::from_micros(end.as_micros().checked_add_signed(d).unwrap()));
        dev.set_deadline(deadline);
        if per_access {
            dev.fail_before_write(u64::MAX);
        }
        let result = landing.land(&mut dev, &journal);
        observe(&dev, result)
    };
    let (one_bill, per_access) = (run(false), run(true));
    assert_eq!(
        one_bill, per_access,
        "harvester {harvester:?}, charge {charge}, deadline {deadline:?}"
    );
    one_bill
}

fn harvesters() -> [Harvester; 4] {
    [
        Harvester::Continuous,
        Harvester::fixed_delay_mins(1),
        Harvester::stochastic(SimDuration::from_secs(1), SimDuration::from_mins(4), 7),
        Harvester::ConstantPower { nanowatts: 300_000 },
    ]
}

#[test]
fn one_bill_landing_matches_the_per_access_path() {
    let costs = CostModel::msp430fr5994();
    let mut rng = StdRng::seed_from_u64(0x1A4D);
    let (mut landed, mut browned_out, mut late) = (0, 0, 0);
    for _ in 0..40 {
        let region = device(Harvester::Continuous, Energy::ZERO).2;
        let landing = seeded(&mut rng, region);
        let price = landing.price(&costs).energy;
        for harvester in &harvesters() {
            for charge in [
                price + Energy::from_pico_joules(1),
                price,
                price - Energy::from_pico_joules(1),
            ] {
                for deadline in [None, Some(-1), Some(0), Some(1)] {
                    let seen = differential(&landing, harvester, charge, deadline);
                    match seen.result {
                        Ok(()) => landed += 1,
                        Err(Interrupt::PowerFailure) => browned_out += 1,
                        Err(Interrupt::Fault(Fault::DeadlineExceeded)) => late += 1,
                        Err(other) => panic!("unexpected {other:?}"),
                    }
                }
            }
        }
    }
    // Every outcome the grid aims at happens.
    assert!(landed > 0 && browned_out > 0 && late > 0);
}

/// An empty write-set lands nothing on either path, and a record past
/// the journal's capacity faults on both before any write, whether it
/// commits on its own or as an open record.
#[test]
fn empty_and_overflowing_records_match_the_per_access_path() {
    let region = device(Harvester::Continuous, Energy::ZERO).2;
    let charge = Energy::from_micro_joules(50);
    for harvester in &harvesters() {
        for plain in [true, false] {
            let empty = Landing {
                runs: vec![(CostCategory::Runtime, TxWriter::new())],
                plain,
            };
            let seen = differential(&empty, harvester, charge, None);
            assert_eq!((seen.result, seen.records.0), (Ok(()), 0));

            let mut big = TxWriter::new();
            for k in 0..3 {
                big.write_raw(region + k, &[7; REGION - 8]);
            }
            assert!(big.record_bytes() > CAPACITY);
            let overflow = Landing {
                runs: vec![(CostCategory::Monitor, big)],
                plain,
            };
            let seen = differential(&overflow, harvester, charge, Some(0));
            assert!(matches!(
                seen.result,
                Err(Interrupt::Fault(Fault::JournalOverflow { .. }))
            ));
        }
    }
}
