//! The simulated device: memory + energy + time + peripherals in one box.
//!
//! [`Device`] is what runtimes program against. Every operation —
//! computing, sampling a sensor, touching FRAM, committing a journal —
//! draws time from the persistent clock and energy from the capacitor,
//! and may therefore fail with [`Interrupt::PowerFailure`], which the
//! caller propagates up to the [`Simulator`](crate::simulator::Simulator)
//! reboot loop. Costs are attributed to a [`CostCategory`] so the
//! experiment harness can split execution time into application, runtime
//! and monitor shares (paper Figures 14–15).

use core::fmt;

use artemis_core::time::{SimDuration, SimInstant};
use artemis_core::trace::{Trace, TraceEvent};

use crate::capacitor::Capacitor;
use crate::clock::PersistentClock;
use crate::energy::Energy;
pub use crate::fram::MemOwner;
use crate::fram::{Fram, NvCell, NvData, Sram};
use crate::harvester::Harvester;
use crate::journal::{Journal, JournalOp, SparseTx, TxWriter};
use crate::mcu::{Cost, CostModel};
use crate::peripherals::{Peripheral, PeripheralBank};

/// Why a device operation could not complete.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Interrupt {
    /// The capacitor crossed the off threshold; the device browns out.
    /// Propagate to the simulator loop, which charges and reboots.
    PowerFailure,
    /// A non-recoverable configuration error; the simulation cannot make
    /// progress and should stop rather than livelock.
    Fault(Fault),
}

/// Non-recoverable configuration errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// A transaction exceeded the journal region.
    JournalOverflow {
        /// Bytes the transaction needed.
        needed: usize,
        /// Journal payload capacity.
        capacity: usize,
    },
    /// A single operation costs more than a full capacitor holds; it
    /// would brown out forever (the capacitor-sizing failure the paper
    /// cites as a non-termination cause).
    ImpossibleDemand {
        /// Energy the operation needs.
        needed: Energy,
        /// Full usable budget.
        budget: Energy,
    },
    /// FRAM exhausted during initialisation.
    OutOfFram {
        /// Bytes requested.
        requested: usize,
        /// Bytes available.
        available: usize,
    },
    /// The simulation deadline passed mid-execution; used by the
    /// simulator to detect non-termination on continuous power, where
    /// no reboot boundary would otherwise check the run limit.
    DeadlineExceeded,
    /// Reboot recovery found a pending journal record that cannot be
    /// replayed safely: an unknown flag value, or an entry reaching
    /// past the journal region or targeting memory outside FRAM or
    /// inside the journal. Nothing of the record was applied.
    CorruptJournal,
    /// A persistent region holds a value no commit can have written —
    /// e.g. an armed worklist longer than the installed suite, or an
    /// entry naming no installed machine. Nothing was stepped.
    CorruptState,
}

impl fmt::Display for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interrupt::PowerFailure => write!(f, "power failure"),
            Interrupt::Fault(Fault::JournalOverflow { needed, capacity }) => {
                write!(f, "journal overflow: {needed} bytes into {capacity}")
            }
            Interrupt::Fault(Fault::ImpossibleDemand { needed, budget }) => {
                write!(
                    f,
                    "impossible demand: one operation needs {needed}, capacitor holds {budget}"
                )
            }
            Interrupt::Fault(Fault::OutOfFram {
                requested,
                available,
            }) => write!(f, "out of FRAM: requested {requested}, {available} left"),
            Interrupt::Fault(Fault::DeadlineExceeded) => {
                write!(f, "simulation deadline exceeded")
            }
            Interrupt::Fault(Fault::CorruptJournal) => write!(f, "corrupt journal record"),
            Interrupt::Fault(Fault::CorruptState) => write!(f, "corrupt persistent state"),
        }
    }
}

impl std::error::Error for Interrupt {}

/// Who an operation's cost is billed to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CostCategory {
    /// Application task bodies.
    App,
    /// Runtime bookkeeping (scheduling, commits, event plumbing).
    Runtime,
    /// Monitor execution (property checking).
    Monitor,
}

impl CostCategory {
    /// All categories, in report order.
    pub const ALL: [CostCategory; 3] = [
        CostCategory::App,
        CostCategory::Runtime,
        CostCategory::Monitor,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            CostCategory::App => "application",
            CostCategory::Runtime => "runtime",
            CostCategory::Monitor => "monitor",
        }
    }

    fn idx(self) -> usize {
        match self {
            CostCategory::App => 0,
            CostCategory::Runtime => 1,
            CostCategory::Monitor => 2,
        }
    }
}

/// Accumulated time/energy per category plus device-level counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DeviceStats {
    times: [SimDuration; 3],
    energies: [Energy; 3],
    /// Total energy drawn from the capacitor.
    pub consumed: Energy,
    /// Number of power failures experienced.
    pub power_failures: u64,
}

impl DeviceStats {
    /// Execution time billed to `c`.
    pub fn time(&self, c: CostCategory) -> SimDuration {
        self.times[c.idx()]
    }

    /// Energy billed to `c`.
    pub fn energy(&self, c: CostCategory) -> Energy {
        self.energies[c.idx()]
    }

    /// Total billed execution time across categories.
    pub fn total_time(&self) -> SimDuration {
        self.times.iter().fold(SimDuration::ZERO, |a, b| a + *b)
    }
}

/// Internal power/time state, separated from memory so journal commits
/// can spend energy while holding a mutable FRAM borrow.
struct PowerState {
    cap: Capacitor,
    harvester: Harvester,
    clock: PersistentClock,
    stats: DeviceStats,
    category: CostCategory,
    deadline: Option<SimInstant>,
}

impl PowerState {
    fn spend(&mut self, cost: Cost) -> Result<(), Interrupt> {
        // Time passes regardless of whether the energy was there: a
        // brown-out happens *during* the operation.
        self.clock.advance_running(cost.time);
        self.stats.times[self.category.idx()] += cost.time;

        if let Some(deadline) = self.deadline {
            if self.clock.now() > deadline {
                return Err(Interrupt::Fault(Fault::DeadlineExceeded));
            }
        }

        if self.harvester.is_continuous() {
            self.stats.energies[self.category.idx()] += cost.energy;
            self.stats.consumed += cost.energy;
            return Ok(());
        }

        if cost.energy > self.cap.usable_budget() {
            return Err(Interrupt::Fault(Fault::ImpossibleDemand {
                needed: cost.energy,
                budget: self.cap.usable_budget(),
            }));
        }

        // Trickle-charge while running (constant-power harvesters only).
        self.cap.deposit(self.harvester.harvest_during(cost.time));

        let before = self.cap.stored();
        if self.cap.draw(cost.energy) {
            self.stats.energies[self.category.idx()] += cost.energy;
            self.stats.consumed += cost.energy;
            Ok(())
        } else {
            // The brown-out consumed whatever charge remained.
            self.stats.energies[self.category.idx()] += before;
            self.stats.consumed += before;
            self.stats.power_failures += 1;
            Err(Interrupt::PowerFailure)
        }
    }
}

/// The simulated intermittent device.
///
/// # Examples
///
/// ```
/// use intermittent_sim::{DeviceBuilder, Harvester, MemOwner};
///
/// let mut dev = DeviceBuilder::msp430fr5994()
///     .harvester(Harvester::Continuous)
///     .build();
/// let cell = dev.nv_alloc::<u32>(0, MemOwner::App, "counter").unwrap();
/// dev.compute(1_000).unwrap();
/// let v = dev.nv_read(&cell).unwrap();
/// dev.nv_write(&cell, v + 1).unwrap();
/// assert_eq!(dev.peek(&cell), 1);
/// ```
pub struct Device {
    fram: Fram,
    sram: Sram,
    power: PowerState,
    costs: CostModel,
    peripherals: PeripheralBank,
    /// Persistent per-peripheral sample cursors (survive reboots).
    sensor_cursors: Option<NvCell<[u64; 4]>>,
    trace: Trace,
    reboots: u64,
}

impl Device {
    /// Current persistent-clock reading (`GetTime()` in the paper).
    pub fn now(&self) -> SimInstant {
        self.power.clock.now()
    }

    /// Arms a hard simulation deadline; operations past it fail with
    /// [`Fault::DeadlineExceeded`]. Used by the simulator's time limit.
    pub fn set_deadline(&mut self, deadline: Option<SimInstant>) {
        self.power.deadline = deadline;
    }

    /// Sets the cost attribution for subsequent operations.
    pub fn set_category(&mut self, c: CostCategory) {
        self.power.category = c;
    }

    /// Current cost attribution.
    pub fn category(&self) -> CostCategory {
        self.power.category
    }

    /// Runs `f` with costs billed to `c`, restoring the previous
    /// category afterwards (also on error).
    pub fn billed<T>(
        &mut self,
        c: CostCategory,
        f: impl FnOnce(&mut Device) -> Result<T, Interrupt>,
    ) -> Result<T, Interrupt> {
        let prev = self.power.category;
        self.power.category = c;
        let out = f(self);
        self.power.category = prev;
        out
    }

    /// Executes `cycles` CPU cycles.
    pub fn compute(&mut self, cycles: u64) -> Result<(), Interrupt> {
        let cost = self.costs.compute(cycles);
        self.power.spend(cost)
    }

    /// Idles in low-power mode for `dt`.
    pub fn idle(&mut self, dt: SimDuration) -> Result<(), Interrupt> {
        let cost = self.costs.idle(dt);
        self.power.spend(cost)
    }

    /// Allocates a nonvolatile cell (initialisation-time; billed as a
    /// write).
    pub fn nv_alloc<T: NvData>(
        &mut self,
        init: T,
        owner: MemOwner,
        label: &str,
    ) -> Result<NvCell<T>, Interrupt> {
        let cost = self.costs.fram_write(T::SIZE);
        self.power.spend(cost)?;
        self.fram.alloc(init, owner, label).map_err(|e| {
            Interrupt::Fault(Fault::OutOfFram {
                requested: e.requested,
                available: e.available,
            })
        })
    }

    /// Reads a nonvolatile cell.
    pub fn nv_read<T: NvData>(&mut self, cell: &NvCell<T>) -> Result<T, Interrupt> {
        let cost = self.costs.fram_read(T::SIZE);
        self.power.spend(cost)?;
        Ok(self.fram.read(cell))
    }

    /// Writes a nonvolatile cell directly (not transactional; use a
    /// journal for multi-cell atomicity).
    pub fn nv_write<T: NvData>(&mut self, cell: &NvCell<T>, value: T) -> Result<(), Interrupt> {
        let cost = self.costs.fram_write(T::SIZE);
        self.power.spend(cost)?;
        self.fram.write(cell, value);
        Ok(())
    }

    /// Allocates `size` raw FRAM bytes (initialisation-time; billed as
    /// a write). The region starts zeroed; use [`Device::nv_write_raw`]
    /// to lay down an initial image.
    pub fn nv_alloc_raw(
        &mut self,
        size: usize,
        owner: MemOwner,
        label: &str,
    ) -> Result<usize, Interrupt> {
        let cost = self.costs.fram_write(size);
        self.power.spend(cost)?;
        self.fram.alloc_raw(size, owner, label).map_err(|e| {
            Interrupt::Fault(Fault::OutOfFram {
                requested: e.requested,
                available: e.available,
            })
        })
    }

    /// Reads `len` raw bytes at `addr` in one FRAM operation.
    pub fn nv_read_raw(&mut self, addr: usize, len: usize) -> Result<&[u8], Interrupt> {
        let cost = self.costs.fram_read(len);
        self.power.spend(cost)?;
        Ok(self.fram.read_raw(addr, len))
    }

    /// Writes raw bytes at `addr` in one FRAM operation (not
    /// transactional; stage into a journal for atomicity).
    pub fn nv_write_raw(&mut self, addr: usize, data: &[u8]) -> Result<(), Interrupt> {
        let cost = self.costs.fram_write(data.len());
        self.power.spend(cost)?;
        self.fram.write_raw(addr, data);
        Ok(())
    }

    /// Reads a cell without cost (test/report inspection only).
    pub fn peek<T: NvData>(&self, cell: &NvCell<T>) -> T {
        self.fram.peek(cell)
    }

    /// Reads raw bytes without cost (test/report inspection only).
    pub fn peek_raw(&self, addr: usize, len: usize) -> &[u8] {
        self.fram.peek_raw(addr, len)
    }

    /// Creates a commit journal with `capacity` payload bytes.
    pub fn make_journal(&mut self, capacity: usize, owner: MemOwner) -> Result<Journal, Interrupt> {
        Journal::new(&mut self.fram, capacity, owner).map_err(|e| {
            Interrupt::Fault(Fault::OutOfFram {
                requested: e.requested,
                available: e.available,
            })
        })
    }

    /// Commits a staged write-set crash-atomically, billing each
    /// journal FRAM access at its direction's price.
    pub fn commit(&mut self, journal: &Journal, tx: &TxWriter) -> Result<(), Interrupt> {
        let power = &mut self.power;
        let costs = &self.costs;
        journal.commit(&mut self.fram, tx, &mut |bytes, op| {
            power.spend(match op {
                JournalOp::Read => costs.fram_read(bytes),
                JournalOp::Write => costs.fram_write(bytes),
            })
        })
    }

    /// Commits a sparse write-set crash-atomically as one journal
    /// record, billing each FRAM access at its direction's price.
    pub fn commit_sparse(&mut self, journal: &Journal, tx: &SparseTx) -> Result<(), Interrupt> {
        let power = &mut self.power;
        let costs = &self.costs;
        journal.commit_sparse(&mut self.fram, tx, &mut |bytes, op| {
            power.spend(match op {
                JournalOp::Read => costs.fram_read(bytes),
                JournalOp::Write => costs.fram_write(bytes),
            })
        })
    }

    /// Completes an interrupted commit on boot, if any. Replay reads
    /// are billed as reads, re-applied writes as writes.
    pub fn recover(&mut self, journal: &Journal) -> Result<bool, Interrupt> {
        let power = &mut self.power;
        let costs = &self.costs;
        journal.recover(&mut self.fram, &mut |bytes, op| {
            power.spend(match op {
                JournalOp::Read => costs.fram_read(bytes),
                JournalOp::Write => costs.fram_write(bytes),
            })
        })
    }

    /// Reads a staged-or-committed value through a write-set.
    pub fn tx_read<T: NvData>(&mut self, tx: &TxWriter, cell: &NvCell<T>) -> Result<T, Interrupt> {
        let cost = self.costs.fram_read(T::SIZE);
        self.power.spend(cost)?;
        Ok(tx.read(&mut self.fram, cell))
    }

    /// Samples a sensor, paying its cost; the reading cursor persists
    /// across power failures.
    pub fn sample(&mut self, p: Peripheral) -> Result<f64, Interrupt> {
        let cost = self.peripherals.sample_cost(p);
        self.power.spend(cost)?;
        let cursor_cell = self.ensure_cursors()?;
        let mut cursors = self.fram.read(&cursor_cell);
        let slot = match p {
            Peripheral::TemperatureAdc => 0,
            Peripheral::Accelerometer => 1,
            Peripheral::Microphone => 2,
            Peripheral::BleRadio => 3,
        };
        let value = self.peripherals.sample_value(p, &mut cursors[slot]);
        self.fram.write(&cursor_cell, cursors);
        Ok(value)
    }

    /// Transmits `payload_bytes` over the radio.
    pub fn transmit(&mut self, payload_bytes: usize) -> Result<(), Interrupt> {
        let cost = self.peripherals.tx_cost(payload_bytes);
        self.power.spend(cost)
    }

    /// Receives `payload_bytes` over the radio.
    pub fn receive(&mut self, payload_bytes: usize) -> Result<(), Interrupt> {
        let cost = self.peripherals.rx_cost(payload_bytes);
        self.power.spend(cost)
    }

    fn ensure_cursors(&mut self) -> Result<NvCell<[u64; 4]>, Interrupt> {
        if let Some(c) = self.sensor_cursors {
            return Ok(c);
        }
        let cell = self
            .fram
            .alloc([0u64; 4], MemOwner::System, "sensor cursors")
            .map_err(|e| {
                Interrupt::Fault(Fault::OutOfFram {
                    requested: e.requested,
                    available: e.available,
                })
            })?;
        self.sensor_cursors = Some(cell);
        Ok(cell)
    }

    /// Energy currently stored in the capacitor (for the `energy`
    /// extension property).
    pub fn energy_level(&self) -> Energy {
        self.power.cap.stored()
    }

    /// The capacitor's full usable budget.
    pub fn energy_budget(&self) -> Energy {
        self.power.cap.usable_budget()
    }

    /// Handles a brown-out: charges until the on threshold, advances the
    /// persistent clock by the outage, and clears volatile state.
    /// Returns the (true) outage duration.
    pub fn power_cycle(&mut self) -> SimDuration {
        let delay = self.power.harvester.charging_delay(&self.power.cap);
        self.power.clock.advance_outage(delay);
        self.power.cap.recharge_full();
        self.sram.clear();
        self.reboots += 1;
        let now = self.now();
        self.trace.push(now, TraceEvent::PowerFailure);
        self.trace.push(now, TraceEvent::Charged { delay });
        delay
    }

    /// Number of reboots so far (power cycles, not the initial boot).
    pub fn reboots(&self) -> u64 {
        self.reboots
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DeviceStats {
        &self.power.stats
    }

    /// The persistent clock (for reports).
    pub fn clock(&self) -> &PersistentClock {
        &self.power.clock
    }

    /// The FRAM arena (for memory reports).
    pub fn fram(&self) -> &Fram {
        &self.fram
    }

    /// The SRAM accounting model.
    pub fn sram(&self) -> &Sram {
        &self.sram
    }

    /// Mutable SRAM accounting (components register volatile usage).
    pub fn sram_mut(&mut self) -> &mut Sram {
        &mut self.sram
    }

    /// The execution trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable access to the trace (e.g. to register monitor names).
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// Appends to the execution trace at the current time.
    pub fn trace_push(&mut self, event: TraceEvent) {
        let now = self.now();
        self.trace.push(now, event);
    }

    /// Takes the trace out of the device.
    pub fn take_trace(&mut self) -> Trace {
        core::mem::replace(&mut self.trace, Trace::new())
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.costs
    }

    /// This device's energy profile for the install-time feasibility
    /// analysis: its cost model, its capacitor's usable budget, and
    /// the default warning margin.
    pub fn energy_profile(&self) -> crate::mcu::EnergyProfile {
        crate::mcu::EnergyProfile {
            model: self.costs,
            budget: self.energy_budget(),
            margin_percent: crate::mcu::EnergyProfile::DEFAULT_MARGIN_PERCENT,
        }
    }
}

/// Builder for [`Device`].
pub struct DeviceBuilder {
    fram_capacity: usize,
    capacitor: Capacitor,
    harvester: Harvester,
    clock: PersistentClock,
    costs: CostModel,
    peripherals: PeripheralBank,
    trace: Trace,
}

impl DeviceBuilder {
    /// The paper's testbed defaults: 256 KB FRAM, a 470 µF capacitor
    /// switched between 3.2 V and 1.8 V (~1.6 mJ per charge), MSP430FR
    /// costs, Thunderboard peripherals, continuous power.
    pub fn msp430fr5994() -> Self {
        DeviceBuilder {
            fram_capacity: 256 * 1024,
            capacitor: Capacitor::new(470e-6, 3.2, 1.8),
            harvester: Harvester::Continuous,
            clock: PersistentClock::exact(),
            costs: CostModel::msp430fr5994(),
            peripherals: PeripheralBank::thunderboard_defaults(0xA47E_1415),
            trace: Trace::new(),
        }
    }

    /// Overrides the capacitor.
    pub fn capacitor(mut self, cap: Capacitor) -> Self {
        self.capacitor = cap;
        self
    }

    /// Overrides the harvester.
    pub fn harvester(mut self, h: Harvester) -> Self {
        self.harvester = h;
        self
    }

    /// Overrides the persistent clock.
    pub fn clock(mut self, c: PersistentClock) -> Self {
        self.clock = c;
        self
    }

    /// Overrides the cost model.
    pub fn cost_model(mut self, m: CostModel) -> Self {
        self.costs = m;
        self
    }

    /// Overrides the peripheral bank.
    pub fn peripherals(mut self, p: PeripheralBank) -> Self {
        self.peripherals = p;
        self
    }

    /// Overrides the FRAM capacity in bytes.
    pub fn fram_capacity(mut self, bytes: usize) -> Self {
        self.fram_capacity = bytes;
        self
    }

    /// Disables tracing (for benchmarks).
    pub fn trace_disabled(mut self) -> Self {
        self.trace = Trace::disabled();
        self
    }

    /// Bounds the trace to a ring buffer of the most recent `cap`
    /// records (for open-ended runs whose full trace would grow
    /// without bound).
    pub fn trace_bounded(mut self, cap: usize) -> Self {
        self.trace = Trace::bounded(cap);
        self
    }

    /// Finishes the device.
    pub fn build(self) -> Device {
        Device {
            fram: Fram::new(self.fram_capacity),
            sram: Sram::new(),
            power: PowerState {
                cap: self.capacitor,
                harvester: self.harvester,
                clock: self.clock,
                stats: DeviceStats::default(),
                category: CostCategory::App,
                deadline: None,
            },
            costs: self.costs,
            peripherals: self.peripherals,
            sensor_cursors: None,
            trace: self.trace,
            reboots: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_device(budget_uj: u64) -> Device {
        DeviceBuilder::msp430fr5994()
            .capacitor(Capacitor::with_budget(Energy::from_micro_joules(budget_uj)))
            .harvester(Harvester::fixed_delay_mins(1))
            .build()
    }

    #[test]
    fn compute_advances_clock_and_bills_category() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        dev.set_category(CostCategory::Runtime);
        dev.compute(5_000).unwrap();
        assert_eq!(dev.now().as_micros(), 5_000);
        assert_eq!(
            dev.stats().time(CostCategory::Runtime),
            SimDuration::from_millis(5)
        );
        assert_eq!(dev.stats().time(CostCategory::App), SimDuration::ZERO);
    }

    #[test]
    fn billed_restores_category_on_error() {
        let mut dev = tiny_device(1);
        dev.set_category(CostCategory::App);
        let r = dev.billed(CostCategory::Monitor, |d| d.compute(1_000_000));
        assert!(r.is_err());
        assert_eq!(dev.category(), CostCategory::App);
    }

    #[test]
    fn energy_depletion_raises_power_failure() {
        // 10 µJ budget, each compute cycle costs 360 pJ → ~27k cycles.
        let mut dev = tiny_device(10);
        let mut failed = false;
        for _ in 0..100 {
            if dev.compute(1_000).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "device never browned out");
        assert_eq!(dev.stats().power_failures, 1);

        // Recover: charge, clock advances by the fixed 1 min delay.
        let before = dev.now();
        let delay = dev.power_cycle();
        assert_eq!(delay, SimDuration::from_mins(1));
        assert_eq!(dev.now() - before, SimDuration::from_mins(1));
        assert_eq!(dev.reboots(), 1);
        // And we can compute again.
        dev.compute(1_000).unwrap();
    }

    #[test]
    fn impossible_demand_is_a_fault_not_a_loop() {
        let mut dev = tiny_device(1); // 1 µJ budget
                                      // One accel sample costs 300 µJ: impossible.
        let r = dev.sample(Peripheral::Accelerometer);
        assert!(matches!(
            r,
            Err(Interrupt::Fault(Fault::ImpossibleDemand { .. }))
        ));
    }

    #[test]
    fn nv_cells_survive_power_cycle() {
        let mut dev = tiny_device(1_000);
        let cell = dev.nv_alloc::<u64>(7, MemOwner::Runtime, "x").unwrap();
        dev.nv_write(&cell, 42).unwrap();
        dev.power_cycle();
        assert_eq!(dev.nv_read(&cell).unwrap(), 42);
    }

    #[test]
    fn sram_generation_bumps_on_power_cycle() {
        let mut dev = tiny_device(1_000);
        let g = dev.sram().generation();
        dev.power_cycle();
        assert_eq!(dev.sram().generation(), g + 1);
    }

    #[test]
    fn sensor_cursor_persists_across_reboot() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let mut bank = PeripheralBank::thunderboard_defaults(1);
        bank.config_mut(Peripheral::TemperatureAdc).values =
            crate::peripherals::ValueSource::Sequence(vec![1.0, 2.0, 3.0]);
        let mut dev2 = DeviceBuilder::msp430fr5994().peripherals(bank).build();
        let _ = dev.sample(Peripheral::TemperatureAdc);
        assert_eq!(dev2.sample(Peripheral::TemperatureAdc).unwrap(), 1.0);
        assert_eq!(dev2.sample(Peripheral::TemperatureAdc).unwrap(), 2.0);
        dev2.power_cycle();
        // Sequence resumes, does not restart.
        assert_eq!(dev2.sample(Peripheral::TemperatureAdc).unwrap(), 3.0);
    }

    #[test]
    fn transactional_commit_through_device() {
        let mut dev = tiny_device(100_000);
        let journal = dev.make_journal(128, MemOwner::Runtime).unwrap();
        let cell = dev.nv_alloc::<u32>(0, MemOwner::App, "out").unwrap();
        let mut tx = TxWriter::new();
        tx.write(&cell, 9);
        assert_eq!(dev.tx_read(&tx, &cell).unwrap(), 9);
        dev.commit(&journal, &tx).unwrap();
        assert_eq!(dev.peek(&cell), 9);
        assert!(!dev.recover(&journal).unwrap());
    }

    #[test]
    fn continuous_supply_never_fails() {
        let mut dev = DeviceBuilder::msp430fr5994()
            .harvester(Harvester::Continuous)
            .build();
        for _ in 0..1_000 {
            dev.compute(100_000).unwrap();
        }
        assert_eq!(dev.stats().power_failures, 0);
        assert!(dev.stats().consumed > Energy::ZERO);
    }

    #[test]
    fn trickle_charging_extends_runtime() {
        // With a 10 µJ budget and compute at 360 µW, a 300 µW harvester
        // should let far more cycles through than no harvester.
        let budget = Energy::from_micro_joules(10);
        let mut plain = DeviceBuilder::msp430fr5994()
            .capacitor(Capacitor::with_budget(budget))
            .harvester(Harvester::FixedDelay(SimDuration::from_secs(1)))
            .build();
        let mut trickled = DeviceBuilder::msp430fr5994()
            .capacitor(Capacitor::with_budget(budget))
            .harvester(Harvester::ConstantPower { nanowatts: 300_000 })
            .build();
        let count = |dev: &mut Device| {
            let mut n = 0;
            while dev.compute(100).is_ok() {
                n += 1;
                if n > 1_000_000 {
                    break;
                }
            }
            n
        };
        let plain_cycles = count(&mut plain);
        let trickled_cycles = count(&mut trickled);
        assert!(
            trickled_cycles > plain_cycles * 3,
            "trickle {trickled_cycles} vs plain {plain_cycles}"
        );
    }

    #[test]
    fn trace_records_power_events() {
        let mut dev = tiny_device(1_000);
        dev.power_cycle();
        let trace = dev.trace();
        assert_eq!(trace.count(|e| matches!(e, TraceEvent::PowerFailure)), 1);
        assert_eq!(trace.count(|e| matches!(e, TraceEvent::Charged { .. })), 1);
    }
}
