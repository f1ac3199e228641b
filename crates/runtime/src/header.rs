//! A runtime's persistent progress state as one FRAM region behind a
//! write-through SRAM mirror, committed through the runtime's journal.
//!
//! Both task runtimes — ARTEMIS here and the Mayfly baseline — keep
//! their cursor and bookkeeping as one value `T` encoded in one
//! contiguous FRAM region, the **header**. A [`PersistentHeader`] owns
//! that region, the journal every commit of the runtime goes through,
//! and a volatile mirror of the region, under the monitor engine's
//! coherence contract:
//!
//! - the mirror is tagged with the SRAM power-cycle generation
//!   (`dev.sram().generation()`) it was filled in, so a power failure
//!   makes it stale in O(1);
//! - it is filled by [`PersistentHeader::read`], the one
//!   recover-then-load path: journal recovery replays any torn commit,
//!   then **one** read of the whole region loads the value and
//!   validates it once;
//! - it is write-through: a commit or plain write updates it only once
//!   the FRAM write has returned `Ok`, and any `Err` drops it, so while
//!   it is current it equals the region byte for byte;
//! - a header change staged in the device's open record
//!   ([`PersistentHeader::open`]) counts as written: the record lands
//!   before any other FRAM write or commit, and one that never lands —
//!   a power failure, a fault, a discard — moves the SRAM generation
//!   on, which drops the mirror.
//!
//! A steady-state runtime therefore reads its header from SRAM and
//! touches FRAM only to write it. A journal commit stages only the
//! header bytes that changed, as runs ([`TxWriter::write_diff`]), and
//! a plain write of one field ([`PersistentHeader::write`]) carries
//! only that field's changed bytes, as one span.
//!
//! Every commit stages into the header's **one write-set**, sized to
//! its journal at install and emptied before each use
//! ([`PersistentHeader::with_write_set`]): a task's effects, the
//! header runs after them, and the commits that carry only header runs.
//! A warm task boundary therefore allocates nothing.
//!
//! Every task completion is traced as the record that commits it lands
//! (`TraceEvent::TaskEnd`, pushed by the device at the record's flag
//! write), so a commit that recovery completes after a power failure
//! is traced once, before the failure.

use core::cell::{Cell, RefCell};
use core::ops::Range;

use artemis_core::app::{AppGraph, PathId, TaskId};
use artemis_core::trace::TraceEvent;
use intermittent_sim::device::{Device, Fault, Interrupt, MemOwner};
use intermittent_sim::energy::Energy;
use intermittent_sim::fram::{NvCell, NvData};
use intermittent_sim::journal::{changed_span, Journal, TxWriter};

/// Capacity of a runtime's journal, in bytes.
const JOURNAL_BYTES: usize = 1024;

/// Cursor status: the named task has not committed yet.
pub const STATUS_READY: u8 = 0;
/// Cursor status: the named task committed; the advance past it has
/// not.
pub const STATUS_FINISHED: u8 = 1;

/// Whether a monitor delivery rides the record its runtime opens for
/// it, and why ([`Ride::admit`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Ride {
    /// A static proof lets it ride: its admission ceiling is zero.
    Proof,
    /// The capacitor held its ceiling and the record's price — the
    /// allowance it rides under.
    Energy(Energy),
    /// The capacitor held less: the record is not opened.
    Refused,
    /// It never rides: it has no admission ceiling.
    Never,
}

impl Ride {
    /// Decides whether a delivery of admission ceiling `ceiling`
    /// ([`Device::set_riders`]) rides a record opened with `tx`: always
    /// for a zero ceiling, never for none, and otherwise iff
    /// [`Device::energy_level`] holds the ceiling plus the record's
    /// price ([`Device::record_price`]). The simulator draws exactly
    /// what it bills, so no natural power failure lands inside a ride
    /// admitted for energy.
    pub fn admit(dev: &Device, ceiling: Option<Energy>, tx: &TxWriter) -> Ride {
        match ceiling {
            None => Ride::Never,
            Some(c) if c.is_zero() => Ride::Proof,
            Some(c) => {
                let allowance = c.saturating_add(dev.record_price(tx));
                if dev.energy_level() >= allowance {
                    Ride::Energy(allowance)
                } else {
                    Ride::Refused
                }
            }
        }
    }

    /// `Some` with the energy allowance to open the record under
    /// ([`Device::open_record`]) if the delivery rides, else `None`.
    fn allowance(self) -> Option<Option<Energy>> {
        match self {
            Ride::Proof => Some(None),
            Ride::Energy(allowance) => Some(Some(allowance)),
            Ride::Refused | Ride::Never => None,
        }
    }
}

/// Lossless counters of a runtime's ride decisions at its task
/// boundaries ([`PersistentHeader::open`]), one per [`Ride`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RideStats {
    /// Admitted by a static proof.
    pub proof: u64,
    /// Admitted for the capacitor's charge.
    pub energy: u64,
    /// Refused for the capacitor's charge.
    pub refused: u64,
    /// Never admitted.
    pub never: u64,
}

impl RideStats {
    fn count(&mut self, ride: Ride) {
        *match ride {
            Ride::Proof => &mut self.proof,
            Ride::Energy(_) => &mut self.energy,
            Ride::Refused => &mut self.refused,
            Ride::Never => &mut self.never,
        } += 1;
    }
}

/// A task runtime's header value. Every header begins with the cursor
/// `(cur_path, cur_idx, status)`: the task the runtime is at, and
/// whether it has committed.
pub trait TaskHeader: NvData + Clone {
    /// The cursor `(cur_path, cur_idx, status)`.
    fn cursor(&self) -> (u32, u32, u8);

    /// `true` if the fields after the cursor hold values the runtime's
    /// commits can write.
    fn valid(&self) -> bool {
        true
    }

    /// The task the cursor names; the header must be valid and not
    /// past the last path.
    fn task(&self, app: &AppGraph) -> TaskId {
        let (cur_path, cur_idx, _) = self.cursor();
        app.path(PathId(cur_path)).tasks[cur_idx as usize]
    }
}

/// One persistent header region, its journal and its SRAM mirror; see
/// the module docs.
pub struct PersistentHeader<T: NvData> {
    journal: Journal,
    cell: NvCell<T>,
    mirror: RefCell<Mirror<T>>,
    /// The write-set every commit stages into, sized to the journal;
    /// taken out while in use ([`PersistentHeader::with_write_set`]).
    write_set: Cell<TxWriter>,
}

struct Mirror<T> {
    /// Generation the mirror is current in; `None` once dropped.
    epoch: Option<u64>,
    value: T,
    /// `value` as FRAM holds it.
    image: Vec<u8>,
    /// Scratch for the image a write is about to make.
    next: Vec<u8>,
}

impl<T: TaskHeader> PersistentHeader<T> {
    /// Allocates the journal, then the region holding `init`, and
    /// registers the mirror's bytes as volatile state of `owner`. The
    /// mirror starts empty: the first [`PersistentHeader::read`] fills
    /// it. The write-set holds a whole journal record without growing.
    pub fn alloc(
        dev: &mut Device,
        init: T,
        owner: MemOwner,
        label: &'static str,
    ) -> Result<Self, Interrupt> {
        let journal = dev.make_journal(JOURNAL_BYTES, owner)?;
        let cell = dev.nv_alloc(init.clone(), owner, label)?;
        dev.sram_mut().register(owner, T::SIZE);
        Ok(PersistentHeader {
            journal,
            cell,
            mirror: RefCell::new(Mirror {
                epoch: None,
                value: init,
                image: vec![0; T::SIZE],
                next: vec![0; T::SIZE],
            }),
            write_set: Cell::new(TxWriter::with_capacity(JOURNAL_BYTES)),
        })
    }

    /// Runs `f` with the header's write-set, emptied: a task body
    /// stages its effects into it, and [`PersistentHeader::open`] or
    /// [`PersistentHeader::commit_traced`] commits them with the
    /// header. The write-set is taken out for the call, so no borrow is
    /// held while `f` runs; a commit `f` makes of its own
    /// ([`PersistentHeader::commit`]) stages into a fresh one.
    pub fn with_write_set<R>(&self, f: impl FnOnce(&mut TxWriter) -> R) -> R {
        let mut tx = self.write_set.take();
        tx.clear();
        let out = f(&mut tx);
        self.write_set.set(tx);
        out
    }

    /// The header: the mirror when it is current, else — first thing
    /// after a power failure — journal recovery and one read of the
    /// whole region. A loaded value whose cursor names no task of
    /// `app` (and is not one past the last path with nothing pending),
    /// or whose status or later fields no commit writes, faults with
    /// [`Fault::CorruptState`] and leaves the mirror empty.
    pub fn read(&self, dev: &mut Device, app: &AppGraph) -> Result<T, Interrupt> {
        let m = &mut *self.mirror.borrow_mut();
        if m.epoch == Some(dev.sram().generation()) {
            return Ok(m.value.clone());
        }
        m.epoch = None;
        dev.recover(&self.journal)?;
        m.image
            .copy_from_slice(dev.nv_read_raw(self.cell.addr(), T::SIZE)?);
        let value = T::load(&m.image);
        // The cursor names a task, or sits one past the last path, at
        // index 0, with no finished task pending.
        let (cur_path, cur_idx, status) = value.cursor();
        let cursor_valid = match app.paths().get(cur_path as usize) {
            Some(path) => (cur_idx as usize) < path.tasks.len() && status <= STATUS_FINISHED,
            None => {
                cur_path as usize == app.paths().len() && cur_idx == 0 && status == STATUS_READY
            }
        };
        if !(cursor_valid && value.valid()) {
            return Err(Interrupt::Fault(Fault::CorruptState));
        }
        m.value = value.clone();
        m.epoch = Some(dev.sram().generation());
        Ok(value)
    }

    /// Opens `tx` with the header changed to `new` as the device's
    /// open record ([`Device::open_record`]) if a delivery of admission
    /// ceiling `ceiling` may ride it ([`Ride::admit`]): the delivery's
    /// commit and the next [`PersistentHeader::commit`] append to it,
    /// and it lands as one record. `landed` is traced once it lands. If
    /// the delivery may not ride, commits `tx` with the header now
    /// instead. `rides` counts the decision.
    pub fn open(
        &self,
        dev: &mut Device,
        tx: &mut TxWriter,
        new: T,
        ceiling: Option<Energy>,
        landed: Option<TraceEvent>,
        rides: &mut RideStats,
    ) -> Result<(), Interrupt> {
        let m = &mut *self.mirror.borrow_mut();
        m.stage(dev, tx, &new, self.cell.addr());
        let ride = Ride::admit(dev, ceiling, tx);
        rides.count(ride);
        let result = match ride.allowance() {
            Some(allowance) => dev.open_record(&self.journal, tx, landed, allowance),
            None => dev.commit_traced(&self.journal, tx, landed),
        };
        m.settle(dev, new, 0..T::SIZE, result)
    }

    /// Opens an empty record if no record is open yet and a delivery of
    /// admission ceiling `ceiling` may ride it ([`Ride::admit`]).
    pub fn open_empty(&self, dev: &mut Device, ceiling: Option<Energy>) -> Result<(), Interrupt> {
        if dev.record_open() {
            return Ok(());
        }
        let empty = TxWriter::new();
        match Ride::admit(dev, ceiling, &empty).allowance() {
            Some(allowance) => dev.open_record(&self.journal, &empty, None, allowance),
            None => Ok(()),
        }
    }

    /// Commits the header changed to `new` as one journal record: the
    /// bytes that differ from the mirror, staged as runs into the
    /// header's write-set (the whole image if the mirror is not
    /// current). While the device's record is open they are appended to
    /// it, and it lands; if its journal cannot hold them too, it lands
    /// first and they commit on their own.
    pub fn commit(&self, dev: &mut Device, new: T) -> Result<(), Interrupt> {
        self.with_write_set(|tx| {
            let m = &mut *self.mirror.borrow_mut();
            m.stage(dev, tx, &new, self.cell.addr());
            let result = if dev.append_record(tx) {
                dev.flush_record()
            } else {
                dev.commit(&self.journal, tx)
            };
            m.settle(dev, new, 0..T::SIZE, result)
        })
    }

    /// Commits `tx` with the header changed to `new` as one journal
    /// record, as [`PersistentHeader::commit`] does with no record
    /// open: the header's changed bytes are staged after whatever `tx`
    /// already holds. Traces `landed` once the record lands.
    pub fn commit_traced(
        &self,
        dev: &mut Device,
        tx: &mut TxWriter,
        new: T,
        landed: Option<TraceEvent>,
    ) -> Result<(), Interrupt> {
        let m = &mut *self.mirror.borrow_mut();
        m.stage(dev, tx, &new, self.cell.addr());
        let result = dev.commit_traced(&self.journal, tx, landed);
        m.settle(dev, new, 0..T::SIZE, result)
    }

    /// Writes the `field` bytes of `new` in one plain FRAM write — for
    /// a field whose update needs no atomicity with anything else.
    /// `new` must equal the mirrored value outside `field`. With the
    /// mirror current the write carries only the span from the first to
    /// the last byte of the field that changed (its first byte if none
    /// did, so it stays one write); otherwise the whole field.
    pub fn write(&self, dev: &mut Device, new: T, field: Range<usize>) -> Result<(), Interrupt> {
        let m = &mut *self.mirror.borrow_mut();
        new.store(&mut m.next);
        let current = m.epoch == Some(dev.sram().generation());
        debug_assert!(
            !current
                || (m.image[..field.start] == m.next[..field.start]
                    && m.image[field.end..] == m.next[field.end..]),
            "a plain header write changes only its own field"
        );
        let span = if current {
            changed_span(&m.image[field.clone()], &m.next[field.clone()])
                .map_or(field.start..field.start + 1, |s| {
                    field.start + s.start..field.start + s.end
                })
        } else {
            field.clone()
        };
        let result = dev.nv_write_raw(self.cell.addr() + span.start, &m.next[span]);
        m.settle(dev, new, field, result)
    }

    /// The value FRAM holds, read without cost (inspection only).
    pub fn peek(&self, dev: &Device) -> T {
        dev.peek(&self.cell)
    }
}

impl<T: NvData> Mirror<T> {
    /// Stages into `tx` the header changed to `new` over the region at
    /// `addr`: the bytes that differ from the mirror's image, as runs,
    /// if the mirror is current, else the whole image.
    fn stage(&mut self, dev: &Device, tx: &mut TxWriter, new: &T, addr: usize) {
        new.store(&mut self.next);
        if self.epoch == Some(dev.sram().generation()) {
            tx.write_diff(addr, &self.image, &self.next);
        } else {
            tx.write_raw(addr, &self.next);
        }
    }

    /// Keeps the mirror in step with a write of the `field` bytes of
    /// `next` (the encoding of `new`) that returned `result`: on `Ok` a
    /// current mirror takes `new`, and so does a stale one if the write
    /// covered the whole image; an `Err` drops the mirror. (A write
    /// never spans a power cycle, so the generation is the one the
    /// write began in.)
    fn settle(
        &mut self,
        dev: &Device,
        new: T,
        field: Range<usize>,
        result: Result<(), Interrupt>,
    ) -> Result<(), Interrupt> {
        let generation = dev.sram().generation();
        if result.is_err() {
            self.epoch = None;
        } else if self.epoch == Some(generation) || field.len() == self.image.len() {
            self.image[field.clone()].copy_from_slice(&self.next[field]);
            self.value = new;
            self.epoch = Some(generation);
        }
        result
    }
}
