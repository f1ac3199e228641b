//! Property-based tests for the device substrate: encodings,
//! journal atomicity under arbitrary transactions and failure points,
//! energy accounting, and timekeeping.

use artemis_core::time::{SimDuration, SimInstant};
use intermittent_sim::capacitor::Capacitor;
use intermittent_sim::device::{DeviceBuilder, Fault, Interrupt};
use intermittent_sim::energy::Energy;
use intermittent_sim::fram::{Fram, MemOwner, NvData, OutOfFram};
use intermittent_sim::harvester::Harvester;
use intermittent_sim::journal::{Journal, TxWriter};
use intermittent_sim::PersistentClock;
use proptest::prelude::*;

/// Bytes of the FRAM window the overlay property stages into.
const WINDOW: usize = 96;

/// An arena holding a journal and then a `WINDOW`-byte region laid out
/// with `base`; returns the region's address. Deterministic, so two
/// calls build identical arenas.
fn arena(base: &[u8]) -> (Fram, Journal, usize) {
    let mut fram = Fram::new(2048);
    let journal = Journal::new(&mut fram, 1024, MemOwner::Runtime).unwrap();
    let window = fram.alloc_raw(WINDOW, MemOwner::App, "window").unwrap();
    fram.write_raw(window, base);
    (fram, journal, window)
}

/// Capacity of the arena the lazy-allocation model drives.
const MODEL_CAPACITY: usize = 2048;

/// The FRAM arena as it was before it sized itself to its
/// allocations: every byte of the capacity zeroed up front, a bump
/// pointer, and the same out-of-space report.
struct EagerFram {
    bytes: Vec<u8>,
    next: usize,
}

impl EagerFram {
    fn alloc_raw(&mut self, size: usize) -> Result<usize, OutOfFram> {
        let available = self.bytes.len() - self.next;
        if size > available {
            return Err(OutOfFram {
                requested: size,
                available,
            });
        }
        self.next += size;
        Ok(self.next - size)
    }
}

fn round_trip<T: NvData + PartialEq + core::fmt::Debug>(v: T) {
    let mut buf = vec![0u8; T::SIZE];
    v.store(&mut buf);
    assert_eq!(T::load(&buf), v);
}

proptest! {
    /// Every scalar encoding round-trips bit-exactly.
    #[test]
    fn nv_scalars_round_trip(
        a in any::<u64>(),
        b in any::<i64>(),
        c in any::<f64>(),
        d in any::<bool>(),
        e in any::<u32>(),
    ) {
        round_trip(a);
        round_trip(b);
        if !c.is_nan() {
            round_trip(c);
        }
        round_trip(d);
        round_trip(e);
        round_trip(SimInstant::from_micros(a));
        round_trip(SimDuration::from_micros(a));
        round_trip((a, d));
        round_trip([e, e ^ 0xFFFF, 0, 1]);
    }

    /// A journal commit of arbitrary writes, interrupted at an
    /// arbitrary byte budget, leaves FRAM either fully-old or fully-new
    /// after recovery — never torn.
    #[test]
    fn journal_commits_are_atomic(
        values in proptest::collection::vec(any::<u64>(), 1..12),
        fail_at in 0usize..2_000,
    ) {
        let mut fram = Fram::new(8 * 1024);
        let journal = Journal::new(&mut fram, 1024, MemOwner::Runtime).unwrap();
        let cells: Vec<_> = values
            .iter()
            .enumerate()
            .map(|(i, _)| fram.alloc::<u64>(i as u64, MemOwner::App, "cell").unwrap())
            .collect();
        let old: Vec<u64> = (0..values.len() as u64).collect();

        let mut tx = TxWriter::new();
        for (cell, v) in cells.iter().zip(&values) {
            tx.write(cell, *v);
        }

        let mut spent = 0usize;
        let result = journal.commit(&mut fram, &tx, &mut |n, _| {
            if spent + n > fail_at {
                Err(Interrupt::PowerFailure)
            } else {
                spent += n;
                Ok(())
            }
        });
        // Recovery always completes with unlimited budget, and leaves
        // nothing pending behind it.
        journal.recover(&mut fram, &mut |_, _| Ok(())).unwrap();
        prop_assert_eq!(journal.recover(&mut fram, &mut |_, _| Ok(())), Ok(false));

        let now: Vec<u64> = cells.iter().map(|c| fram.peek(c)).collect();
        if result.is_ok() {
            prop_assert_eq!(&now, &values);
        } else {
            prop_assert!(
                now == values || now == old,
                "torn state: {:?} (old {:?}, new {:?})",
                now, old, values
            );
        }
    }

    /// Journal images that commits tear or bits flip recover to a typed
    /// result: a few random records of random sub-writes are committed,
    /// then the last one is either torn before each of its write ops
    /// in turn, or committed whole with 1–5 bytes of the journal region
    /// (flag, count, sub-write headers, data) flipped. `recover` must
    /// return `Ok` or `Fault::CorruptJournal` — never panic, never
    /// write outside the allocated arena — and a torn record must leave
    /// the region all-old or all-new.
    #[test]
    fn torn_or_flipped_journal_images_recover_to_typed_results(
        records in proptest::collection::vec(
            proptest::collection::vec(
                (0usize..WINDOW, proptest::collection::vec(any::<u8>(), 1..24)),
                1..6,
            ),
            1..4,
        ),
        flips in proptest::collection::vec((any::<u16>(), 1u8..=255), 1..6),
        flip in any::<bool>(),
    ) {
        let capacity = 160;
        let setup = || {
            let mut fram = Fram::new(2048);
            let journal = Journal::new(&mut fram, capacity, MemOwner::Runtime).unwrap();
            let window = fram.alloc_raw(WINDOW, MemOwner::App, "window").unwrap();
            (fram, journal, window)
        };
        let stage = |window: usize, record: &[(usize, Vec<u8>)]| {
            let mut tx = TxWriter::new();
            for (at, data) in record {
                let len = data.len().min(WINDOW - at);
                tx.write_raw(window + at, &data[..len]);
            }
            tx
        };
        let commit_all = |fram: &mut Fram, journal: &Journal, window: usize| {
            for record in &records[..records.len() - 1] {
                let tx = stage(window, record);
                journal.commit(fram, &tx, &mut |_, _| Ok(())).unwrap();
            }
        };
        let (_, _, window) = setup();
        let last = stage(window, records.last().unwrap());
        let typed = |r: &Result<bool, Interrupt>| {
            matches!(r, Ok(_) | Err(Interrupt::Fault(Fault::CorruptJournal)))
        };

        if flip {
            let (mut fram, journal, window) = setup();
            commit_all(&mut fram, &journal, window);
            // Commit the last record up to its flag write, so the flips
            // land on a pending record.
            let mut ops = 0;
            let _ = journal.commit(&mut fram, &last, &mut |_, _| {
                ops += 1;
                if ops > 2 { Err(Interrupt::PowerFailure) } else { Ok(()) }
            });
            let used = fram.used();
            for &(at, mask) in &flips {
                let addr = at as usize % (1 + capacity);
                let byte = fram.peek_raw(addr, 1)[0] ^ mask;
                fram.write_raw(addr, &[byte]);
            }
            let r = journal.recover(&mut fram, &mut |_, _| Ok(()));
            prop_assert!(typed(&r), "flips {:?}: {:?}", flips, r);
            prop_assert_eq!(fram.used(), used);
        } else {
            // Ops of the last commit: record, flag, one per sub-write,
            // flag.
            let ops = last.len() + 3;
            for k in 0..=ops {
                let (mut fram, journal, window) = setup();
                commit_all(&mut fram, &journal, window);
                let old = fram.peek_raw(window, WINDOW).to_vec();
                let mut spent = 0;
                let result = journal.commit(&mut fram, &last, &mut |_, _| {
                    spent += 1;
                    if spent > k { Err(Interrupt::PowerFailure) } else { Ok(()) }
                });
                prop_assert_eq!(result.is_ok(), k == ops);
                let used = fram.used();
                let r = journal.recover(&mut fram, &mut |_, _| Ok(()));
                prop_assert!(typed(&r), "torn at op {}: {:?}", k, r);
                prop_assert_eq!(fram.used(), used);

                let mut new = old.clone();
                last.overlay(window, &mut new);
                let now = fram.peek_raw(window, WINDOW);
                prop_assert!(now == old.as_slice() || now == new.as_slice(), "torn at op {}", k);
            }
        }
    }

    /// Read-your-writes at byte granularity: for staged sub-writes of
    /// mixed widths that overlap and merge, overlaying the write-set on
    /// any range of committed bytes yields exactly what committing the
    /// write-set (on an identical arena) and then reading gives.
    #[test]
    fn tx_overlay_matches_commit_then_read(
        base in proptest::collection::vec(any::<u8>(), WINDOW..WINDOW + 1),
        writes in proptest::collection::vec(
            (
                prop_oneof![(0usize..WINDOW / 8).prop_map(|i| i * 8), 0usize..WINDOW],
                0usize..5,
                any::<u8>(),
            ),
            0..16,
        ),
        ranges in proptest::collection::vec((0usize..WINDOW, 1usize..WINDOW + 1), 1..8),
    ) {
        let (mut committed, journal, window) = arena(&base);
        let mut tx = TxWriter::new();
        for (off, width, seed) in writes {
            let len = [1, 2, 4, 8, 16][width].min(WINDOW - off);
            let data: Vec<u8> = (0..len as u8).map(|i| seed.wrapping_add(i)).collect();
            tx.write_raw(window + off, &data);
        }
        journal.commit(&mut committed, &tx, &mut |_, _| Ok(())).unwrap();
        let (overlaid, _, _) = arena(&base);
        for (off, len) in ranges.into_iter().chain([(0, WINDOW)]) {
            let len = len.min(WINDOW - off);
            let mut buf = overlaid.peek_raw(window + off, len).to_vec();
            tx.overlay(window + off, &mut buf);
            prop_assert_eq!(&buf[..], committed.peek_raw(window + off, len), "range {}+{}", off, len);
        }
    }

    /// An arena that stores only its allocated prefix behaves like one
    /// zeroed up front: the same addresses and out-of-space reports,
    /// fresh allocations read zero (also after writes elsewhere), and
    /// every allocated byte reads back what was written.
    #[test]
    fn lazy_fram_matches_eager_model(
        ops in proptest::collection::vec((0u8..4, 0usize..700, any::<u64>()), 1..48),
    ) {
        let mut fram = Fram::new(MODEL_CAPACITY);
        let mut model = EagerFram { bytes: vec![0; MODEL_CAPACITY], next: 0 };
        for (op, n, seed) in ops {
            match op {
                0 => {
                    let got = fram.alloc_raw(n, MemOwner::App, "raw");
                    prop_assert_eq!(got, model.alloc_raw(n));
                }
                1 => {
                    let got = fram.alloc::<u64>(seed, MemOwner::App, "cell").map(|c| c.addr());
                    let want = model.alloc_raw(8);
                    prop_assert_eq!(got, want);
                    if let Ok(addr) = want {
                        model.bytes[addr..addr + 8].copy_from_slice(&seed.to_le_bytes());
                    }
                }
                _ if model.next == 0 => {}
                2 => {
                    let addr = n % model.next;
                    let len = (seed as usize % 64).min(model.next - addr);
                    let data: Vec<u8> = (0..len).map(|i| (seed >> 8) as u8 ^ i as u8).collect();
                    fram.write_raw(addr, &data);
                    model.bytes[addr..addr + len].copy_from_slice(&data);
                }
                _ => {
                    let addr = n % model.next;
                    let len = (seed as usize % 64).min(model.next - addr);
                    prop_assert_eq!(fram.read_raw(addr, len), &model.bytes[addr..addr + len]);
                }
            }
            prop_assert_eq!(fram.used(), model.next);
            prop_assert_eq!(fram.capacity(), MODEL_CAPACITY);
        }
        prop_assert_eq!(fram.peek_raw(0, fram.used()), &model.bytes[..model.next]);
    }

    /// Capacitor: stored energy never exceeds the budget, `draw`
    /// debits exactly, and a failed draw drains to zero.
    #[test]
    fn capacitor_invariants(
        budget_uj in 1u64..10_000,
        ops in proptest::collection::vec((any::<bool>(), 0u64..20_000), 0..64),
    ) {
        let mut cap = Capacitor::with_budget(Energy::from_micro_joules(budget_uj));
        for (deposit, amount_uj) in ops {
            let amount = Energy::from_micro_joules(amount_uj);
            let before = cap.stored();
            if deposit {
                cap.deposit(amount);
                prop_assert!(cap.stored() >= before);
            } else {
                let ok = cap.draw(amount);
                if ok {
                    prop_assert_eq!(cap.stored(), before - amount);
                } else {
                    prop_assert_eq!(cap.stored(), Energy::ZERO);
                }
            }
            prop_assert!(cap.stored() <= cap.usable_budget());
        }
    }

    /// The persistent clock is monotone and on/off times always sum to
    /// the current reading — under any interleaving and error bound.
    #[test]
    fn clock_is_monotone_and_accounted(
        steps in proptest::collection::vec((any::<bool>(), 1u64..10_000_000), 1..100),
        err in 0u32..20,
        seed in any::<u64>(),
    ) {
        let mut clock = PersistentClock::with_outage_error(f64::from(err) / 100.0, seed);
        let mut last = clock.now();
        let mut measured_total = SimDuration::ZERO;
        let mut on_total = SimDuration::ZERO;
        for (running, us) in steps {
            let dt = SimDuration::from_micros(us);
            if running {
                clock.advance_running(dt);
                on_total += dt;
                measured_total += dt;
            } else {
                measured_total += clock.advance_outage(dt);
            }
            prop_assert!(clock.now() >= last);
            last = clock.now();
        }
        prop_assert_eq!(clock.on_time(), on_total);
        prop_assert_eq!(
            clock.now().as_micros(),
            SimInstant::EPOCH.as_micros() + measured_total.as_micros()
        );
    }

    /// Device-level conservation: energy billed across categories plus
    /// brown-out losses equals the total drawn from the capacitor.
    #[test]
    fn device_energy_is_conserved(
        budget_uj in 5u64..100,
        chunks in proptest::collection::vec(1u64..20_000, 1..40),
    ) {
        let mut dev = DeviceBuilder::msp430fr5994()
            .trace_disabled()
            .capacitor(Capacitor::with_budget(Energy::from_micro_joules(budget_uj)))
            .harvester(Harvester::FixedDelay(SimDuration::from_secs(1)))
            .build();
        for cycles in chunks {
            match dev.compute(cycles) {
                Ok(()) => {}
                Err(Interrupt::PowerFailure) => {
                    dev.power_cycle();
                }
                // A single chunk can legitimately exceed the whole
                // budget; the fault changes nothing about accounting.
                Err(Interrupt::Fault(_)) => break,
            }
        }
        use intermittent_sim::device::CostCategory;
        let billed: u128 = CostCategory::ALL
            .iter()
            .map(|c| dev.stats().energy(*c).as_pico_joules() as u128)
            .sum();
        prop_assert_eq!(billed, dev.stats().consumed.as_pico_joules() as u128);
    }

    /// Fixed-delay and trace harvesters report exactly their configured
    /// outages; constant-power covers the deficit with round-up only.
    #[test]
    fn harvester_delays_are_exact(
        delays_ms in proptest::collection::vec(1u64..100_000, 1..10),
        power_nw in 1_000u64..10_000_000,
    ) {
        let durations: Vec<SimDuration> =
            delays_ms.iter().map(|ms| SimDuration::from_millis(*ms)).collect();
        let mut h = Harvester::trace(durations.clone());
        let mut cap = Capacitor::with_budget(Energy::from_micro_joules(100));
        cap.draw(Energy::from_micro_joules(100));
        for expect in durations.iter().chain(durations.iter()) {
            prop_assert_eq!(h.charging_delay(&cap), *expect);
        }

        let mut h = Harvester::ConstantPower { nanowatts: power_nw };
        let delay = h.charging_delay(&cap);
        let recovered = Energy::from_power(power_nw, delay);
        prop_assert!(recovered >= cap.deficit());
        // Round-up is at most one microsecond's worth of power.
        let overshoot = recovered - cap.deficit();
        prop_assert!(
            overshoot.as_pico_joules() <= power_nw / 1_000 + 1,
            "overshoot {} too large", overshoot
        );
    }
}

/// The part's 256 KiB arena keeps its capacity and its out-of-space
/// numbers at the boundary, though it stores only what is allocated.
#[test]
fn lazy_fram_keeps_capacity_and_out_of_fram_at_256_kib() {
    const KIB_256: usize = 256 * 1024;
    let mut fram = Fram::new(KIB_256);
    assert_eq!(fram.capacity(), KIB_256);
    assert_eq!(fram.used(), 0);
    let err = fram.alloc_raw(KIB_256 + 1, MemOwner::App, "too big");
    assert_eq!(
        err,
        Err(OutOfFram {
            requested: KIB_256 + 1,
            available: KIB_256,
        })
    );
    let cell = fram.alloc::<u32>(7, MemOwner::App, "cell").unwrap();
    let rest = fram.alloc_raw(KIB_256 - 6, MemOwner::App, "rest").unwrap();
    assert_eq!(fram.used(), KIB_256 - 2);
    assert_eq!(
        fram.alloc::<u32>(0, MemOwner::App, "over").unwrap_err(),
        OutOfFram {
            requested: 4,
            available: 2,
        }
    );
    fram.alloc_raw(2, MemOwner::App, "last").unwrap();
    assert_eq!(
        fram.alloc_raw(1, MemOwner::App, "full"),
        Err(OutOfFram {
            requested: 1,
            available: 0,
        })
    );
    assert_eq!(fram.capacity(), KIB_256);
    assert_eq!(fram.used(), KIB_256);
    assert_eq!(fram.read(&cell), 7);
    assert!(fram.peek_raw(rest, KIB_256 - rest).iter().all(|&b| b == 0));
}
