//! A runtime's persistent progress state as one FRAM region behind a
//! write-through SRAM mirror.
//!
//! Both task runtimes — ARTEMIS here and the Mayfly baseline — keep
//! their cursor and bookkeeping as one value `T` encoded in one
//! contiguous FRAM region, the **header**. A [`PersistentHeader`] owns
//! that region and a volatile mirror of it, under the monitor engine's
//! coherence contract:
//!
//! - the mirror is tagged with the SRAM power-cycle generation
//!   (`dev.sram().generation()`) it was filled in, so a power failure
//!   makes it stale in O(1);
//! - it is filled by **one** read of the whole region
//!   ([`PersistentHeader::load`]), which the caller makes only after
//!   its journal recovery has replayed any torn commit, and which
//!   validates the value once;
//! - it is write-through: a commit or plain write updates it only once
//!   the FRAM write has returned `Ok`, and any `Err` drops it, so while
//!   it is current it equals the region byte for byte.
//!
//! A steady-state runtime therefore reads its header from SRAM and
//! touches FRAM only to write it. A journal commit stages only the
//! header bytes that changed, as runs ([`TxWriter::write_diff`]).

use core::cell::RefCell;
use core::ops::Range;

use artemis_core::app::AppGraph;
use intermittent_sim::device::{Device, Fault, Interrupt, MemOwner};
use intermittent_sim::fram::{NvCell, NvData};
use intermittent_sim::journal::{Journal, TxWriter};

/// One persistent header region and its SRAM mirror; see the module
/// docs.
pub struct PersistentHeader<T: NvData> {
    cell: NvCell<T>,
    mirror: RefCell<Mirror<T>>,
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

impl<T: NvData + Clone> PersistentHeader<T> {
    /// Allocates the region holding `init` and registers the mirror's
    /// bytes as volatile state of `owner`. The mirror starts empty: the
    /// first [`PersistentHeader::load`] fills it.
    pub fn alloc(
        dev: &mut Device,
        init: T,
        owner: MemOwner,
        label: &str,
    ) -> Result<Self, Interrupt> {
        let cell = dev.nv_alloc(init.clone(), owner, label)?;
        dev.sram_mut()
            .register(owner, &format!("{label} mirror"), T::SIZE);
        Ok(PersistentHeader {
            cell,
            mirror: RefCell::new(Mirror {
                epoch: None,
                value: init,
                image: vec![0; T::SIZE],
                next: vec![0; T::SIZE],
            }),
        })
    }

    /// The mirrored value, if the mirror is current: filled or written
    /// in this power cycle and not dropped since.
    pub fn mirrored(&self, dev: &Device) -> Option<T> {
        let m = self.mirror.borrow();
        (m.epoch == Some(dev.sram().generation())).then(|| m.value.clone())
    }

    /// Fills the mirror with one read of the whole region. A value
    /// `valid` rejects faults with [`Fault::CorruptState`] and leaves
    /// the mirror empty.
    pub fn load(&self, dev: &mut Device, valid: impl FnOnce(&T) -> bool) -> Result<T, Interrupt> {
        let m = &mut *self.mirror.borrow_mut();
        m.epoch = None;
        m.image
            .copy_from_slice(dev.nv_read_raw(self.cell.addr(), T::SIZE)?);
        let value = T::load(&m.image);
        if !valid(&value) {
            return Err(Interrupt::Fault(Fault::CorruptState));
        }
        m.value = value.clone();
        m.epoch = Some(dev.sram().generation());
        Ok(value)
    }

    /// Commits `tx` with the header changed to `new`, as one journal
    /// record: the bytes that differ from the mirror are staged as runs
    /// after whatever `tx` already holds (the whole image if the mirror
    /// is not current).
    pub fn commit(
        &self,
        dev: &mut Device,
        journal: &Journal,
        tx: &mut TxWriter,
        new: T,
    ) -> Result<(), Interrupt> {
        let m = &mut *self.mirror.borrow_mut();
        new.store(&mut m.next);
        let addr = self.cell.addr();
        if m.epoch == Some(dev.sram().generation()) {
            tx.write_diff(addr, &m.image, &m.next);
        } else {
            tx.write_raw(addr, &m.next);
        }
        let result = dev.commit(journal, tx);
        m.settle(dev, new, 0..T::SIZE, result)
    }

    /// Writes the `field` bytes of `new` in one plain FRAM write — for
    /// a field whose update needs no atomicity with anything else.
    /// `new` must equal the mirrored value outside `field`.
    pub fn write(&self, dev: &mut Device, new: T, field: Range<usize>) -> Result<(), Interrupt> {
        let m = &mut *self.mirror.borrow_mut();
        new.store(&mut m.next);
        debug_assert!(
            m.epoch.is_none()
                || (m.image[..field.start] == m.next[..field.start]
                    && m.image[field.end..] == m.next[field.end..]),
            "a plain header write changes only its own field"
        );
        let result = dev.nv_write_raw(self.cell.addr() + field.start, &m.next[field.clone()]);
        m.settle(dev, new, field, result)
    }

    /// The value FRAM holds, read without cost (inspection only).
    pub fn peek(&self, dev: &Device) -> T {
        dev.peek(&self.cell)
    }
}

impl<T> Mirror<T> {
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

/// `true` if a task runtime's cursor is one its commits can leave
/// behind for `app`: `(cur_path, cur_idx)` names a task, or the cursor
/// sits one past the last path, at index 0, with no finished task
/// pending. Both runtimes' headers start with this cursor.
pub fn cursor_valid(app: &AppGraph, cur_path: u32, cur_idx: u32, finished: bool) -> bool {
    match app.paths().get(cur_path as usize) {
        Some(path) => (cur_idx as usize) < path.tasks.len(),
        None => cur_path as usize == app.paths().len() && cur_idx == 0 && !finished,
    }
}
