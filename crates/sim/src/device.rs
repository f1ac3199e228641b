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
//!
//! The device also holds the runtime's **open record**
//! ([`Device::open_record`]): a journal record staged in RAM that a
//! monitor delivery may append its own commit to, so a task's effects,
//! the delivery and its outcome land as one record. Its invariant is
//! the flush rule: any other FRAM write, journal commit or radio op
//! lands the open record first, and a power failure discards it. Each
//! sub-write stays billed to whoever staged it.

use core::fmt;
use std::borrow::Cow;

use artemis_core::time::{SimDuration, SimInstant};
use artemis_core::trace::{Trace, TraceEvent};

use crate::capacitor::Capacitor;
use crate::clock::PersistentClock;
use crate::energy::Energy;
pub use crate::fram::MemOwner;
use crate::fram::{Fram, FramTraffic, NvCell, NvData, Sram};
use crate::harvester::Harvester;
use crate::journal::{Journal, JournalOp, TxWriter, ENTRY_HEADER};
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
        /// Journal record capacity.
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
    /// e.g. an armed event count past the engine's capacity, or a
    /// verdict log reaching past its cells or naming no installed
    /// machine. Nothing was committed.
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

/// Accumulated time/energy and FRAM traffic per category plus
/// device-level counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DeviceStats {
    times: [SimDuration; 3],
    energies: [Energy; 3],
    fram: [FramTraffic; 3],
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

    /// FRAM traffic counted while `c` was the current category: every
    /// access the [`Fram`] counters saw, counted where the device made
    /// it (plain, raw, write-set, commit, recovery and sensor-cursor
    /// paths), so the categories sum exactly to those counters.
    pub fn fram(&self, c: CostCategory) -> FramTraffic {
        self.fram[c.idx()]
    }

    /// FRAM traffic summed over the categories — equal to
    /// [`Fram::traffic`] of the device's arena.
    pub fn fram_total(&self) -> FramTraffic {
        self.fram.iter().fold(FramTraffic::default(), |a, b| a + *b)
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
    /// Write-priced FRAM accesses still allowed before the scheduled
    /// failure of [`Device::fail_before_write`]; `None` when none is
    /// scheduled.
    writes_before_failure: Option<u64>,
}

impl PowerState {
    /// Counts one FRAM access of `bytes` to the current category.
    fn count(&mut self, op: JournalOp, bytes: usize) {
        let t = &mut self.stats.fram[self.category.idx()];
        match op {
            JournalOp::Read => t.read(bytes),
            JournalOp::Write => t.write(bytes),
        }
    }

    /// Bills one FRAM access — a write honouring the scheduled failure
    /// — and counts it once it succeeded: the journal's `spend`
    /// callback, which precedes each of its FRAM accesses one to one.
    fn journal_access(
        &mut self,
        costs: &CostModel,
        bytes: usize,
        op: JournalOp,
    ) -> Result<(), Interrupt> {
        match op {
            JournalOp::Read => self.spend(costs.fram_read(bytes))?,
            JournalOp::Write => self.spend_write(costs.fram_write(bytes))?,
        }
        self.count(op, bytes);
        Ok(())
    }

    /// [`PowerState::journal_access`] billed to `c`.
    fn journal_access_as(
        &mut self,
        costs: &CostModel,
        bytes: usize,
        op: JournalOp,
        c: CostCategory,
    ) -> Result<(), Interrupt> {
        let prev = core::mem::replace(&mut self.category, c);
        let out = self.journal_access(costs, bytes, op);
        self.category = prev;
        out
    }

    /// Moves the streaming share of `bytes` written — their per-byte
    /// time and energy and their byte count, not the access — from
    /// `from`'s bill to `to`'s.
    fn rebill_write_bytes(
        &mut self,
        costs: &CostModel,
        from: CostCategory,
        to: CostCategory,
        bytes: usize,
    ) {
        let cost = costs.fram_write_per_byte.times(bytes as u64);
        let s = &mut self.stats;
        s.times[from.idx()] -= cost.time;
        s.times[to.idx()] += cost.time;
        s.energies[from.idx()] -= cost.energy;
        s.energies[to.idx()] += cost.energy;
        s.fram[from.idx()].write_bytes -= bytes as u64;
        s.fram[to.idx()].write_bytes += bytes as u64;
    }

    /// [`PowerState::spend`] for one FRAM write op, honouring the
    /// scheduled failure: the write that reaches it browns out instead
    /// of happening, and the schedule clears.
    fn spend_write(&mut self, cost: Cost) -> Result<(), Interrupt> {
        match self.writes_before_failure {
            Some(0) => {
                self.writes_before_failure = None;
                if !self.harvester.is_continuous() {
                    let left = self.cap.stored();
                    self.cap.draw(left);
                    self.stats.energies[self.category.idx()] += left;
                    self.stats.consumed += left;
                }
                self.stats.power_failures += 1;
                return Err(Interrupt::PowerFailure);
            }
            Some(n) => self.writes_before_failure = Some(n - 1),
            None => {}
        }
        self.spend(cost)
    }

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
    /// Journal records committed through [`Device::commit`], and the
    /// largest of them in bytes.
    journal_records: u64,
    largest_journal_record: usize,
    /// The runtime's open record and its reused buffers.
    record: OpenRecord,
    /// Open records that landed holding a delivery's sub-writes
    /// together with the opener's.
    riding_records: u64,
    /// Open records a power failure struck before their flag write.
    discarded_records: u64,
    /// Open records opened under an energy allowance, and how they
    /// ended.
    allowances: AllowanceStats,
    /// Each delivery's admission ceiling, per task as `[StartTask,
    /// EndTask]`, from the last monitor-engine install until a runtime
    /// install takes them ([`Device::set_riders`]).
    riders: Vec<[Option<Energy>; 2]>,
}

/// Lossless counters of the open records opened under an energy
/// allowance ([`Device::open_record`]): the charge the opener found in
/// the capacitor for everything it draws until the record has landed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllowanceStats {
    /// Records that landed in full.
    pub landed: u64,
    /// Of those, records that drew more than their allowance from
    /// their opening to the end of their landing.
    pub overdrawn: u64,
    /// Records a power failure struck before they had landed in full.
    pub struck: u64,
}

/// The runtime's open record: a journal record staged in RAM that
/// riding monitor deliveries append to and that commits once (see
/// [`Device::open_record`]). Its buffers outlive it, so opening one
/// allocates nothing once warm.
#[derive(Default)]
struct OpenRecord {
    /// The journal it commits to; `None` while no record is open.
    journal: Option<Journal>,
    /// The opener's sub-writes, then every appended one.
    tx: TxWriter,
    /// Who staged which sub-writes of `tx`: runs of `(sub-writes so
    /// far, category)`, the opener's first.
    owners: Vec<(usize, CostCategory)>,
    /// Traced once the record lands.
    landed: Option<TraceEvent>,
    /// The energy allowance it was opened under, and the device's
    /// consumption when it opened.
    allowance: Option<(Energy, Energy)>,
}

impl OpenRecord {
    /// The category the record's fixed costs — the stage op, the count
    /// word and both flag writes — are billed to: the opener's if it
    /// staged anything, else the first appender's; and whether the
    /// record holds sub-writes of both (a delivery rode it).
    fn fixed(&self) -> (CostCategory, bool) {
        let opener = self.owners[0].1;
        let (mut own, mut other, mut start) = (false, None, 0);
        for &(end, c) in &self.owners {
            if end > start {
                own |= c == opener;
                if c != opener {
                    other.get_or_insert(c);
                }
            }
            start = end;
        }
        match other {
            Some(c) if !own => (c, false),
            _ => (opener, own && other.is_some()),
        }
    }
}

/// What landing a record in full bills each category, indexed like
/// [`DeviceStats`]: the write ops of [`TxWriter::commit_writes`] — the
/// stage write, both flag writes and one apply per sub-write — each
/// billed as [`Device::land_per_access`] bills it, with the stage bytes
/// of the sub-writes not staged by the fixed category already moved to
/// their stagers.
struct RecordBill {
    cost: [Cost; 3],
    writes: [FramTraffic; 3],
}

impl RecordBill {
    /// One pass over `tx`'s sub-writes and the owner runs (`owners` and
    /// `fixed` as in [`Device::land`]).
    fn new(
        costs: &CostModel,
        tx: &TxWriter,
        owners: &[(usize, CostCategory)],
        fixed: CostCategory,
    ) -> Self {
        let mut bill = RecordBill {
            cost: [Cost::FREE; 3],
            writes: [FramTraffic::default(); 3],
        };
        let mut write = |c: CostCategory, bytes: usize| {
            let cost = &mut bill.cost[c.idx()];
            *cost = cost.plus(costs.fram_write(bytes));
            bill.writes[c.idx()].write(bytes);
        };
        write(fixed, tx.record_bytes());
        write(fixed, 1);
        write(fixed, 1);
        let mut moved = [0usize; 3];
        let (mut entries, mut start) = (tx.entry_bytes(), 0);
        for &(end, c) in owners {
            for entry in entries.by_ref().take(end - start) {
                write(c, entry - ENTRY_HEADER);
                if c != fixed {
                    moved[c.idx()] += entry;
                }
            }
            start = end;
        }
        for entry in entries {
            write(fixed, entry - ENTRY_HEADER);
        }
        for (c, &bytes) in moved.iter().enumerate() {
            let per_byte = costs.fram_write_per_byte.times(bytes as u64);
            let (from, to) = (fixed.idx(), c);
            bill.cost[from].time -= per_byte.time;
            bill.cost[from].energy -= per_byte.energy;
            bill.cost[to] = bill.cost[to].plus(per_byte);
            bill.writes[from].write_bytes -= bytes as u64;
            bill.writes[to].write_bytes += bytes as u64;
        }
        bill
    }
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
        label: impl Into<Cow<'static, str>>,
    ) -> Result<NvCell<T>, Interrupt> {
        self.flush_record()?;
        let cost = self.costs.fram_write(T::SIZE);
        self.power.spend_write(cost)?;
        let cell = self.fram.alloc(init, owner, label).map_err(|e| {
            Interrupt::Fault(Fault::OutOfFram {
                requested: e.requested,
                available: e.available,
            })
        })?;
        self.power.count(JournalOp::Write, T::SIZE);
        Ok(cell)
    }

    /// Reads a nonvolatile cell.
    pub fn nv_read<T: NvData>(&mut self, cell: &NvCell<T>) -> Result<T, Interrupt> {
        let cost = self.costs.fram_read(T::SIZE);
        self.power.spend(cost)?;
        self.power.count(JournalOp::Read, T::SIZE);
        Ok(self.fram.read(cell))
    }

    /// Writes a nonvolatile cell directly (not transactional; use a
    /// journal for multi-cell atomicity).
    pub fn nv_write<T: NvData>(&mut self, cell: &NvCell<T>, value: T) -> Result<(), Interrupt> {
        self.flush_record()?;
        let cost = self.costs.fram_write(T::SIZE);
        self.power.spend_write(cost)?;
        self.power.count(JournalOp::Write, T::SIZE);
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
        label: impl Into<Cow<'static, str>>,
    ) -> Result<usize, Interrupt> {
        self.flush_record()?;
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
        self.power.count(JournalOp::Read, len);
        Ok(self.fram.read_raw(addr, len))
    }

    /// Writes raw bytes at `addr` in one FRAM operation (not
    /// transactional; stage into a journal for atomicity).
    pub fn nv_write_raw(&mut self, addr: usize, data: &[u8]) -> Result<(), Interrupt> {
        self.flush_record()?;
        let cost = self.costs.fram_write(data.len());
        self.power.spend_write(cost)?;
        self.power.count(JournalOp::Write, data.len());
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

    /// Creates a commit journal holding records of up to `capacity`
    /// bytes.
    pub fn make_journal(&mut self, capacity: usize, owner: MemOwner) -> Result<Journal, Interrupt> {
        Journal::new(&mut self.fram, capacity, owner).map_err(|e| {
            Interrupt::Fault(Fault::OutOfFram {
                requested: e.requested,
                available: e.available,
            })
        })
    }

    /// Commits a staged write-set crash-atomically as one journal
    /// record, billing each FRAM access at its direction's price. A
    /// non-empty write-set that commits in full counts one record
    /// ([`Device::journal_records`]).
    pub fn commit(&mut self, journal: &Journal, tx: &TxWriter) -> Result<(), Interrupt> {
        self.commit_traced(journal, tx, None)
    }

    /// [`Device::commit`], tracing `landed` once the record's flag
    /// write landed (also if the commit fails after it: recovery then
    /// completes the record). The open record, if any, commits first.
    pub fn commit_traced(
        &mut self,
        journal: &Journal,
        tx: &TxWriter,
        landed: Option<TraceEvent>,
    ) -> Result<(), Interrupt> {
        self.flush_record()?;
        let c = self.category();
        self.land(journal, tx, &[(tx.len(), c)], c, landed)
    }

    /// Journal records committed in full so far: one per non-empty
    /// [`Device::commit`] that returned `Ok`, whoever staged it
    /// (monitor, runtime or application). Lossless, never sampled.
    pub fn journal_records(&self) -> u64 {
        self.journal_records
    }

    /// Bytes of the largest record [`Device::journal_records`] counts,
    /// count word included — the high-water mark a journal's capacity
    /// must cover.
    pub fn largest_journal_record(&self) -> usize {
        self.largest_journal_record
    }

    /// Hands the runtime installed next each monitor delivery's
    /// **admission ceiling**: `riders[task]` holds `[StartTask,
    /// EndTask]`. `None` means the delivery never rides an open
    /// record; `Some(Energy::ZERO)` means it always may (a static proof
    /// holds); any other value is the most the delivery and everything
    /// up to the record's landing can draw, so it may ride when the
    /// capacitor holds that plus the record's own price
    /// ([`Device::record_price`]). The monitor engine derives them at
    /// install; a deployment that sets none — no monitoring, or a
    /// remote monitor — lets no delivery ride.
    pub fn set_riders(&mut self, riders: Vec<[Option<Energy>; 2]>) {
        self.riders = riders;
    }

    /// Takes the ceilings the last monitor-engine install set
    /// ([`Device::set_riders`]), leaving none behind for a later
    /// deployment.
    pub fn take_riders(&mut self) -> Vec<[Option<Energy>; 2]> {
        core::mem::take(&mut self.riders)
    }

    /// The energy committing `tx` alone as one journal record draws on
    /// this device ([`TxWriter::commit_writes`]) — for an empty `tx`,
    /// the fixed costs of a record that others append to.
    pub fn record_price(&self, tx: &TxWriter) -> Energy {
        let (writes, bytes) = tx.commit_writes();
        self.costs.traffic_energy(0, 0, writes, bytes, 0)
    }

    /// Opens a copy of `tx`, billed to the current category, as the
    /// runtime's **open record** on `journal`, ahead of a delivery that
    /// may ride it ([`Device::set_riders`]): the delivery appends its
    /// commit to it ([`Device::append_record`]) instead of committing
    /// one of its own, and the runtime appends the delivery's outcome,
    /// so the three commit as one journal record. Any FRAM write,
    /// journal commit or radio op made while the record is open first
    /// commits it ([`Device::flush_record`]), so nothing acts on
    /// effects that are not durable. A power failure discards it like
    /// any uncommitted write-set ([`Device::discarded_records`]).
    /// `landed` is traced once the record lands. An opener that
    /// admitted the record for the charge in the capacitor passes that
    /// charge as `allowance`, and [`Device::allowance_stats`] counts
    /// how the record ended.
    pub fn open_record(
        &mut self,
        journal: &Journal,
        tx: &TxWriter,
        landed: Option<TraceEvent>,
        allowance: Option<Energy>,
    ) -> Result<(), Interrupt> {
        self.flush_record()?;
        let consumed = self.power.stats.consumed;
        let r = &mut self.record;
        r.tx.append(tx);
        r.owners.push((r.tx.len(), self.power.category));
        r.landed = landed;
        r.allowance = allowance.map(|a| (a, consumed));
        r.journal = Some(*journal);
        Ok(())
    }

    /// Open records a power failure struck before their flag write —
    /// while open, or inside their own landing — so that they never
    /// landed. Lossless, never sampled.
    pub fn discarded_records(&self) -> u64 {
        self.discarded_records
    }

    /// How the open records opened under an energy allowance ended
    /// ([`Device::open_record`]). Lossless, never sampled.
    pub fn allowance_stats(&self) -> AllowanceStats {
        self.allowances
    }

    /// Open records that landed holding a monitor delivery's sub-writes
    /// together with the runtime's own — deliveries that rode the
    /// runtime's record ([`Device::append_record`]). Lossless, never
    /// sampled.
    pub fn riding_records(&self) -> u64 {
        self.riding_records
    }

    /// `true` while the runtime's record is open.
    pub fn record_open(&self) -> bool {
        self.record.journal.is_some()
    }

    /// Appends the sub-writes of `tx`, billed to the current category,
    /// to the open record — if one is open and its journal holds the
    /// result — and returns whether it did. A caller it turns away
    /// commits `tx` itself, which lands the open record first.
    pub fn append_record(&mut self, tx: &TxWriter) -> bool {
        let r = &mut self.record;
        let Some(journal) = r.journal else {
            return false;
        };
        if r.tx.record_bytes() + tx.record_bytes() - 2 > journal.capacity() {
            return false;
        }
        r.tx.append(tx);
        let category = self.power.category;
        match r.owners.last_mut() {
            Some((end, c)) if *c == category => *end = r.tx.len(),
            _ => r.owners.push((r.tx.len(), category)),
        }
        true
    }

    /// Commits the open record, if any, as one journal record: every
    /// sub-write billed to whoever staged it. A fault on the way moves
    /// the SRAM generation on, as [`Device::discard_record`] does (a
    /// power failure's own cycle does that).
    pub fn flush_record(&mut self) -> Result<(), Interrupt> {
        let r = &mut self.record;
        let Some(journal) = r.journal else {
            return Ok(());
        };
        let ((fixed, riding), landed, allowance) = (r.fixed(), r.landed.take(), r.allowance.take());
        let (tx, owners) = (core::mem::take(&mut r.tx), core::mem::take(&mut r.owners));
        let result = self.land(&journal, &tx, &owners, fixed, landed);
        self.riding_records += u64::from(riding && result.is_ok());
        let struck = matches!(result, Err(Interrupt::PowerFailure));
        self.discarded_records += u64::from(struck && !journal.is_pending(&self.fram));
        if let Some((allowance, consumed)) = allowance {
            let a = &mut self.allowances;
            let drawn = self.power.stats.consumed - consumed;
            a.landed += u64::from(result.is_ok());
            a.overdrawn += u64::from(result.is_ok() && drawn > allowance);
            a.struck += u64::from(struck);
        }
        (self.record.tx, self.record.owners) = (tx, owners);
        self.clear_record();
        if matches!(result, Err(Interrupt::Fault(_))) {
            self.sram.clear();
        }
        result
    }

    /// Drops the open record uncommitted, as a failure before its flag
    /// write would. What its stagers keep in SRAM ran ahead of FRAM, so
    /// the SRAM generation moves on, as after a power failure.
    pub fn discard_record(&mut self) {
        if self.record_open() {
            self.clear_record();
            self.sram.clear();
        }
    }

    /// Closes the open record, keeping its buffers for the next one.
    fn clear_record(&mut self) {
        let r = &mut self.record;
        r.journal = None;
        r.tx.clear();
        r.owners.clear();
        r.landed = None;
        r.allowance = None;
    }

    /// Commits `tx` to `journal` as one record: each sub-write — its
    /// share of the stage write and its apply — billed to its owner
    /// (`owners` as in [`OpenRecord`]), the fixed costs to `fixed`. A
    /// record the capacitor provably covers is billed in one step
    /// ([`Device::land_covered`]), any other one access by access.
    /// Traces `landed` once the flag write landed, also if the commit
    /// fails after it: recovery then completes the record.
    fn land(
        &mut self,
        journal: &Journal,
        tx: &TxWriter,
        owners: &[(usize, CostCategory)],
        fixed: CostCategory,
        landed: Option<TraceEvent>,
    ) -> Result<(), Interrupt> {
        let result = if self.land_covered(journal, tx, owners, fixed) {
            Ok(())
        } else {
            self.land_per_access(journal, tx, owners, fixed)
        };
        if !tx.is_empty() && result.is_ok() {
            self.journal_records += 1;
            self.largest_journal_record = self.largest_journal_record.max(tx.record_bytes());
        }
        if result.is_ok() || journal.is_pending(&self.fram) {
            if let Some(event) = landed {
                self.trace_push(event);
            }
        }
        result
    }

    /// Lands a record the capacitor provably covers with one bill:
    /// returns `false`, having done nothing, unless no failure is
    /// scheduled, no harvester trickle runs, the record is non-empty
    /// and fits the journal, its end does not pass the deadline and,
    /// off continuous power, the capacitor holds its whole price. Such
    /// a record holds no crash point, so billing it in one step leaves
    /// exactly what [`Device::land_per_access`] leaves.
    fn land_covered(
        &mut self,
        journal: &Journal,
        tx: &TxWriter,
        owners: &[(usize, CostCategory)],
        fixed: CostCategory,
    ) -> bool {
        let power = &mut self.power;
        if power.writes_before_failure.is_some()
            || power.harvester.runtime_power_nanowatts() != 0
            || tx.is_empty()
            || tx.record_bytes() > journal.capacity()
        {
            return false;
        }
        let bill = RecordBill::new(&self.costs, tx, owners, fixed);
        let total = bill.cost.iter().fold(Cost::FREE, |a, b| a.plus(*b));
        let end = power.clock.now() + total.time;
        if power.deadline.is_some_and(|deadline| end > deadline)
            || (!power.harvester.is_continuous() && total.energy > power.cap.stored())
        {
            return false;
        }
        power.clock.advance_running(total.time);
        if !power.harvester.is_continuous() {
            power.cap.draw(total.energy);
        }
        let s = &mut power.stats;
        for c in 0..3 {
            s.times[c] += bill.cost[c].time;
            s.energies[c] += bill.cost[c].energy;
            s.fram[c] = s.fram[c] + bill.writes[c];
        }
        s.consumed += total.energy;
        let landed = journal.commit(&mut self.fram, tx, &mut |_, _| Ok(()));
        debug_assert!(landed.is_ok(), "a covered record lands");
        true
    }

    /// Lands a record one billed FRAM access at a time, each of which
    /// may fail: the crash window.
    fn land_per_access(
        &mut self,
        journal: &Journal,
        tx: &TxWriter,
        owners: &[(usize, CostCategory)],
        fixed: CostCategory,
    ) -> Result<(), Interrupt> {
        let power = &mut self.power;
        let costs = &self.costs;
        let owner = |i: usize| {
            owners
                .iter()
                .find(|(end, _)| i < *end)
                .map_or(fixed, |o| o.1)
        };
        // Stage-write bytes of the sub-writes not staged by `fixed`.
        let (mut moved, mut start) = ([0usize; 3], 0);
        for &(end, c) in owners {
            if c != fixed {
                moved[c.idx()] += tx
                    .entry_bytes()
                    .skip(start)
                    .take(end - start)
                    .sum::<usize>();
            }
            start = end;
        }
        let applies = 2..2 + tx.len();
        let mut access = 0;
        journal.commit(&mut self.fram, tx, &mut |bytes, op| {
            let c = if applies.contains(&access) {
                owner(access - 2)
            } else {
                fixed
            };
            power.journal_access_as(costs, bytes, op, c)?;
            if access == 0 {
                for to in CostCategory::ALL {
                    power.rebill_write_bytes(costs, fixed, to, moved[to.idx()]);
                }
            }
            access += 1;
            Ok(())
        })
    }

    /// Schedules a deterministic power failure in place of the `k`-th
    /// FRAM write op from now (`k = 1` is the next one): plain cell and
    /// raw writes, and every journal stage, flag and apply write of a
    /// commit or a recovery count one op each, exactly as
    /// [`Fram::write_ops`] does. The failing write does not happen, the
    /// capacitor empties and the call returns
    /// [`Interrupt::PowerFailure`], just like a brown-out there; the
    /// schedule then clears. `k = 0` cancels a pending schedule. The
    /// crash-point explorer uses this to enumerate every write
    /// boundary of a run instead of sampling capacitor budgets.
    pub fn fail_before_write(&mut self, k: u64) {
        self.power.writes_before_failure = k.checked_sub(1);
    }

    /// Completes an interrupted commit on boot, if any. Replay reads
    /// are billed as reads, re-applied writes as writes.
    pub fn recover(&mut self, journal: &Journal) -> Result<bool, Interrupt> {
        let power = &mut self.power;
        let costs = &self.costs;
        journal.recover(&mut self.fram, &mut |bytes, op| {
            power.journal_access(costs, bytes, op)
        })
    }

    /// Reads a staged-or-committed value through a write-set. Billed
    /// as one read either way; FRAM is touched (and counted) only when
    /// no sub-write of the cell's address and width is staged.
    pub fn tx_read<T: NvData>(&mut self, tx: &TxWriter, cell: &NvCell<T>) -> Result<T, Interrupt> {
        let cost = self.costs.fram_read(T::SIZE);
        self.power.spend(cost)?;
        if let Some(v) = tx.staged(cell) {
            return Ok(v);
        }
        self.power.count(JournalOp::Read, T::SIZE);
        Ok(self.fram.read(cell))
    }

    /// Reads `buf.len()` raw bytes at `addr` through a write-set in one
    /// FRAM read: the committed bytes with every staged sub-write that
    /// overlaps the range laid over them ([`TxWriter::overlay`]) — what
    /// the range would hold after the write-set commits.
    pub fn tx_read_raw(
        &mut self,
        tx: &TxWriter,
        addr: usize,
        buf: &mut [u8],
    ) -> Result<(), Interrupt> {
        let cost = self.costs.fram_read(buf.len());
        self.power.spend(cost)?;
        self.power.count(JournalOp::Read, buf.len());
        buf.copy_from_slice(self.fram.read_raw(addr, buf.len()));
        tx.overlay(addr, buf);
        Ok(())
    }

    /// Samples a sensor, paying its cost; the reading cursor persists
    /// across power failures.
    pub fn sample(&mut self, p: Peripheral) -> Result<f64, Interrupt> {
        self.flush_record()?;
        let cost = self.peripherals.sample_cost(p);
        self.power.spend(cost)?;
        let cursor_cell = self.ensure_cursors()?;
        // The cursor round trip is unbilled (it models registers) but
        // counted, like every access `Fram` sees.
        self.power.count(JournalOp::Read, cursor_cell.size());
        let mut cursors = self.fram.read(&cursor_cell);
        let slot = match p {
            Peripheral::TemperatureAdc => 0,
            Peripheral::Accelerometer => 1,
            Peripheral::Microphone => 2,
            Peripheral::BleRadio => 3,
        };
        let value = self.peripherals.sample_value(p, &mut cursors[slot]);
        self.power.count(JournalOp::Write, cursor_cell.size());
        self.fram.write(&cursor_cell, cursors);
        Ok(value)
    }

    /// Transmits `payload_bytes` over the radio.
    pub fn transmit(&mut self, payload_bytes: usize) -> Result<(), Interrupt> {
        self.flush_record()?;
        let cost = self.peripherals.tx_cost(payload_bytes);
        self.power.spend(cost)
    }

    /// Receives `payload_bytes` over the radio.
    pub fn receive(&mut self, payload_bytes: usize) -> Result<(), Interrupt> {
        self.flush_record()?;
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
        self.power.count(JournalOp::Write, cell.size());
        self.sensor_cursors = Some(cell);
        Ok(cell)
    }

    /// Swaps the harvester, e.g. to install on tethered power
    /// ([`Harvester::Continuous`], which draws nothing from the
    /// capacitor) and then run on the harvester under test, starting
    /// from a full capacitor.
    pub fn set_harvester(&mut self, h: Harvester) {
        self.power.harvester = h;
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
        if self.record_open() {
            self.discarded_records += 1;
            self.allowances.struck += u64::from(self.record.allowance.is_some());
        }
        self.clear_record();
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
                writes_before_failure: None,
            },
            costs: self.costs,
            peripherals: self.peripherals,
            sensor_cursors: None,
            trace: self.trace,
            reboots: 0,
            journal_records: 0,
            largest_journal_record: 0,
            record: OpenRecord::default(),
            riding_records: 0,
            discarded_records: 0,
            allowances: AllowanceStats::default(),
            riders: Vec::new(),
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

    /// A scheduled failure replaces exactly the `k`-th FRAM write op,
    /// counted the way `Fram::write_ops` counts, journal writes
    /// included; reads never count, and the schedule fires once.
    #[test]
    fn scheduled_failure_replaces_the_kth_write() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let journal = dev.make_journal(64, MemOwner::Runtime).unwrap();
        let cell = dev.nv_alloc::<u32>(0, MemOwner::App, "x").unwrap();
        let mut tx = TxWriter::new();
        tx.write(&cell, 5);
        // One commit of one sub-write is 4 write ops: stage, flag,
        // apply, clear. Fail the apply.
        dev.fail_before_write(3);
        dev.nv_read(&cell).unwrap();
        let writes = dev.fram().write_ops();
        assert_eq!(dev.commit(&journal, &tx), Err(Interrupt::PowerFailure));
        assert_eq!(dev.fram().write_ops(), writes + 2, "stage and flag landed");
        assert_eq!(dev.peek(&cell), 0, "the apply never happened");
        assert_eq!(dev.stats().power_failures, 1);
        assert_eq!(dev.journal_records(), 0);
        dev.power_cycle();
        assert!(dev.recover(&journal).unwrap(), "replayed after the flag");
        assert_eq!(dev.peek(&cell), 5);
        // Cleared after firing; a cancelled schedule never fires.
        dev.fail_before_write(1);
        dev.fail_before_write(0);
        dev.commit(&journal, &tx).unwrap();
        dev.nv_write(&cell, 6).unwrap();
        assert_eq!(dev.journal_records(), 1);
        assert_eq!(dev.largest_journal_record(), tx.record_bytes());
        assert_eq!(dev.stats().power_failures, 1);
    }

    /// `tx_read_raw` is one billed, counted read of the whole range,
    /// with every overlapping staged sub-write laid over FRAM's bytes.
    #[test]
    fn tx_read_raw_is_one_read_with_staged_bytes_overlaid() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let addr = dev.nv_alloc_raw(16, MemOwner::App, "blk").unwrap();
        dev.nv_write_raw(addr, &[1; 16]).unwrap();
        let mut tx = TxWriter::new();
        tx.write_raw(addr + 2, &[7, 7, 7, 7]);
        tx.write_raw(addr + 4, &[9, 9]);
        tx.write_raw(addr + 14, &[5, 5, 5, 5]);
        let (before, t0) = (dev.fram().traffic(), dev.now());
        let mut buf = [0u8; 12];
        dev.tx_read_raw(&tx, addr + 1, &mut buf).unwrap();
        assert_eq!(buf, [1, 7, 7, 9, 9, 1, 1, 1, 1, 1, 1, 1]);
        let read = dev.fram().traffic() - before;
        assert_eq!((read.read_ops, read.read_bytes, read.write_ops), (1, 12, 0));
        assert_eq!(dev.now() - t0, dev.cost_model().fram_read(12).time);
        assert_eq!(dev.peek_raw(addr, 16), &[1; 16], "FRAM untouched");
    }

    /// The per-category FRAM counters see every access the arena's own
    /// counters do — plain, raw, write-set, commit, recovery and sensor
    /// cursor paths, staged-hit reads (no FRAM access) excluded — and
    /// attribute each to the category current when it happened.
    #[test]
    fn fram_traffic_per_category_sums_to_the_arena_counters() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let journal = dev.make_journal(64, MemOwner::Runtime).unwrap();
        dev.set_category(CostCategory::Runtime);
        let cell = dev.nv_alloc::<u32>(3, MemOwner::Runtime, "x").unwrap();
        let raw = dev.nv_alloc_raw(8, MemOwner::Runtime, "raw").unwrap();
        dev.nv_write_raw(raw, &[2; 8]).unwrap();
        dev.nv_read_raw(raw, 8).unwrap();
        let runtime = dev.stats().fram(CostCategory::Runtime);
        assert_eq!((runtime.write_ops, runtime.write_bytes), (2, 12));
        assert_eq!((runtime.read_ops, runtime.read_bytes), (1, 8));

        dev.set_category(CostCategory::App);
        dev.sample(Peripheral::TemperatureAdc).unwrap();
        let mut tx = TxWriter::new();
        dev.tx_read(&tx, &cell).unwrap();
        tx.write(&cell, 4);
        dev.tx_read(&tx, &cell).unwrap(); // staged: no FRAM access
        let mut buf = [0u8; 8];
        dev.tx_read_raw(&tx, raw, &mut buf).unwrap();

        dev.billed(CostCategory::Monitor, |dev| {
            dev.nv_write(&cell, 5)?;
            dev.nv_read(&cell)?;
            dev.fail_before_write(3);
            assert_eq!(dev.commit(&journal, &tx), Err(Interrupt::PowerFailure));
            dev.power_cycle();
            dev.recover(&journal).map(drop)
        })
        .unwrap();
        dev.commit(&journal, &tx).unwrap();

        let stats = *dev.stats();
        assert_eq!(stats.fram_total(), dev.fram().traffic());
        let app = stats.fram(CostCategory::App);
        // Cursor read + write, the unstaged `tx_read`, `tx_read_raw`,
        // and one commit of one sub-write (four writes).
        assert_eq!((app.read_ops, app.read_bytes), (3, 32 + 4 + 8));
        assert_eq!(app.write_ops, 1 + 1 + 4);
        let monitor = stats.fram(CostCategory::Monitor);
        // The plain pair, the commit's stage and flag, and the replay:
        // flag, count, header and data reads; apply and clear writes.
        assert_eq!((monitor.write_ops, monitor.read_ops), (1 + 2 + 2, 1 + 4));
        assert_eq!(stats.fram(CostCategory::Runtime), runtime);
    }

    /// A runtime record with a riding delivery lands as one record:
    /// each sub-write's stage bytes and apply billed to whoever staged
    /// it, the stage op, count word and flags to the opener; what the
    /// opener appends after the delivery lands after it.
    #[test]
    fn open_record_lands_once_billed_to_its_stagers() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let journal = dev.make_journal(256, MemOwner::Runtime).unwrap();
        let addr = dev.nv_alloc_raw(32, MemOwner::Runtime, "cells").unwrap();
        let (mut body, mut appended) = (TxWriter::new(), TxWriter::new());
        body.write_raw(addr, &[1; 4]);
        body.write_raw(addr + 8, &[2; 2]);
        appended.write_raw(addr + 16, &[3; 8]);
        dev.set_category(CostCategory::Runtime);
        let landed = Some(TraceEvent::TaskEnd {
            task: artemis_core::app::TaskId(0),
        });
        dev.open_record(&journal, &body, landed, None).unwrap();
        assert!(dev.record_open());
        let before = *dev.stats();
        dev.billed(CostCategory::Monitor, |dev| {
            assert!(dev.append_record(&appended));
            Ok(())
        })
        .unwrap();
        let mut closing = TxWriter::new();
        closing.write_raw(addr + 24, &[4; 1]);
        assert!(dev.append_record(&closing));
        dev.flush_record().unwrap();
        assert!(!dev.record_open());
        assert_eq!((dev.journal_records(), dev.riding_records()), (1, 1));
        assert_eq!(dev.peek_raw(addr, 25)[..], {
            let mut image = [0u8; 25];
            image[..4].fill(1);
            image[8..10].fill(2);
            image[16..24].fill(3);
            image[24] = 4;
            image
        });
        assert_eq!(
            dev.trace()
                .count(|e| matches!(e, TraceEvent::TaskEnd { .. })),
            1
        );
        let stats = *dev.stats();
        let monitor = stats.fram(CostCategory::Monitor);
        let runtime = stats.fram(CostCategory::Runtime) - before.fram(CostCategory::Runtime);
        // The monitor: its entry's share of the stage write (6 + 8
        // bytes, no op) and its apply.
        assert_eq!((monitor.write_ops, monitor.write_bytes), (1, 14 + 8));
        // The runtime: the stage op with the count word and its three
        // entries, both flags and its three applies.
        assert_eq!(runtime.write_ops, 1 + 2 + 3);
        assert_eq!(runtime.write_bytes, (2 + 10 + 8 + 7) + 2 + 7);
        let costs = dev.cost_model();
        let monitor_energy =
            costs.fram_write(8).energy + costs.fram_write_per_byte.times(14).energy;
        assert_eq!(stats.energy(CostCategory::Monitor), monitor_energy);
        assert_eq!(stats.fram_total(), dev.fram().traffic());
    }

    /// A record holding only a delivery's sub-writes bills it all to
    /// the delivery, as its own commit would, and counts no ride.
    #[test]
    fn an_empty_open_record_bills_its_only_stager() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let journal = dev.make_journal(64, MemOwner::Runtime).unwrap();
        let addr = dev.nv_alloc_raw(8, MemOwner::Runtime, "cells").unwrap();
        let mut appended = TxWriter::new();
        appended.write_raw(addr, &[5; 3]);
        dev.set_category(CostCategory::Runtime);
        dev.open_record(&journal, &TxWriter::new(), None, None)
            .unwrap();
        let before = *dev.stats();
        dev.billed(CostCategory::Monitor, |dev| {
            assert!(dev.append_record(&appended));
            dev.flush_record()
        })
        .unwrap();
        let stats = *dev.stats();
        let runtime = stats.fram(CostCategory::Runtime) - before.fram(CostCategory::Runtime);
        let monitor = stats.fram(CostCategory::Monitor);
        assert_eq!((runtime.write_ops, runtime.write_bytes), (0, 0));
        assert_eq!(
            (monitor.write_ops, monitor.write_bytes),
            (4, (2 + 9) + 2 + 3)
        );
        assert_eq!((dev.journal_records(), dev.riding_records()), (1, 0));
    }

    /// Any other FRAM write, commit or radio op first lands the open
    /// record; an append the journal cannot hold is turned away; a
    /// power failure discards the record (and counts it); a discard in
    /// the same power cycle moves the SRAM generation on. No delivery
    /// may ride until an engine sets riders, and a runtime install
    /// takes them.
    #[test]
    fn open_record_flushes_before_other_writes_and_dies_with_sram() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let journal = dev.make_journal(64, MemOwner::Runtime).unwrap();
        let addr = dev.nv_alloc_raw(8, MemOwner::Runtime, "cells").unwrap();
        let mut body = TxWriter::new();
        body.write_raw(addr, &[1]);
        body.write_raw(addr + 1, &[2]);
        dev.open_record(&journal, &body, None, None).unwrap();
        dev.nv_write_raw(addr + 2, &[3]).unwrap();
        assert!(!dev.record_open());
        assert_eq!(dev.peek_raw(addr, 3), &[1, 2, 3]);

        let mut big = TxWriter::new();
        big.write_raw(addr + 4, &[9; 60]);
        dev.open_record(&journal, &body, None, None).unwrap();
        assert!(!dev.append_record(&big), "the journal cannot hold it");
        let generation = dev.sram().generation();
        dev.discard_record();
        assert_eq!(dev.sram().generation(), generation + 1);
        assert_eq!(dev.discarded_records(), 0, "a discard is no power failure");
        dev.open_record(&journal, &body, None, None).unwrap();
        dev.power_cycle();
        assert!(!dev.record_open());
        assert!(!dev.append_record(&body), "nothing open");
        assert_eq!(dev.discarded_records(), 1);

        assert!(dev.take_riders().is_empty());
        let riders = vec![[None, Some(Energy::from_nano_joules(5))]];
        dev.set_riders(riders.clone());
        assert_eq!(dev.take_riders(), riders);
        assert!(dev.take_riders().is_empty(), "taken once");
    }

    /// A record's price is exactly what its commit draws, and a record
    /// opened under an allowance is counted by how it ended: landed
    /// within it, overdrawn, or struck by a power failure — also one
    /// that strikes inside its landing, before the flag write.
    #[test]
    fn records_opened_under_an_allowance_are_counted_as_they_end() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let journal = dev.make_journal(64, MemOwner::Runtime).unwrap();
        let addr = dev.nv_alloc_raw(8, MemOwner::Runtime, "cells").unwrap();
        let mut body = TxWriter::new();
        body.write_raw(addr, &[1; 3]);
        body.write_raw(addr + 5, &[2; 2]);
        let price = dev.record_price(&body);
        let (consumed, traffic) = (dev.stats().consumed, dev.fram().traffic());
        dev.commit(&journal, &body).unwrap();
        assert_eq!(dev.stats().consumed - consumed, price);
        let written = dev.fram().traffic() - traffic;
        assert_eq!(
            (written.write_ops as usize, written.write_bytes as usize),
            body.commit_writes()
        );

        dev.open_record(&journal, &body, None, Some(price)).unwrap();
        dev.flush_record().unwrap();
        dev.open_record(
            &journal,
            &body,
            None,
            Some(price - Energy::from_pico_joules(1)),
        )
        .unwrap();
        dev.flush_record().unwrap();
        let stats = dev.allowance_stats();
        assert_eq!((stats.landed, stats.overdrawn, stats.struck), (2, 1, 0));

        dev.open_record(&journal, &body, None, Some(price)).unwrap();
        dev.fail_before_write(1);
        assert_eq!(dev.flush_record(), Err(Interrupt::PowerFailure));
        dev.power_cycle();
        dev.open_record(&journal, &body, None, Some(price)).unwrap();
        dev.power_cycle();
        let stats = dev.allowance_stats();
        assert_eq!((stats.landed, stats.overdrawn, stats.struck), (2, 1, 2));
        assert_eq!(dev.discarded_records(), 2);
    }

    /// An install on tethered power draws nothing from the capacitor;
    /// the harvester swapped in afterwards runs from a full charge.
    #[test]
    fn harvester_swaps_after_a_tethered_install() {
        let mut dev = tiny_device(10);
        dev.set_harvester(Harvester::Continuous);
        dev.compute(1_000_000).unwrap();
        assert_eq!(dev.energy_level(), dev.energy_budget());
        dev.set_harvester(Harvester::fixed_delay_mins(1));
        dev.compute(1_000).unwrap();
        assert!(dev.energy_level() < dev.energy_budget());
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
