//! A redo journal for crash-atomic FRAM commits.
//!
//! Task-based intermittent runtimes require *all-or-nothing* task
//! effects: either every output of a task reaches nonvolatile memory or
//! none does, no matter where a power failure lands (paper §3.1, "Tasks
//! are atomic units with all-or-nothing semantics"). The classic
//! implementation — used here — is a redo journal in FRAM.
//!
//! A transaction is staged in RAM as its own on-FRAM record image
//! ([`TxWriter`]): a `count: u16`, then `[addr u32][len u16][data]` per
//! sub-write. [`Journal::commit`] then
//!
//! 1. writes the whole record into the journal region in one FRAM write;
//! 2. sets a single-byte *pending flag* (the linearisation point — a
//!    one-byte FRAM write is atomic on the real part);
//! 3. applies every sub-write to its home location straight from RAM;
//! 4. clears the flag.
//!
//! `k` sub-writes cost `k+3` FRAM writes and **zero** reads. A failure
//! before step 2 discards the transaction; a failure after it is
//! repaired on reboot by [`Journal::recover`], the only place that
//! re-reads the record from FRAM: it re-applies the (idempotent) redo
//! sub-writes. Fault-injection tests in this module drive a commit
//! through a power failure at **every** possible byte boundary and
//! assert atomicity each time.
//!
//! The region is the flag byte followed by one record of up to
//! [`Journal::capacity`] bytes, count word included.
//!
//! Every transaction of the system is one such record: both runtimes'
//! task commits, and the monitor engine's resets, path restarts and
//! **commit groups** — a delivery's worklist is cut into consecutive
//! groups sized by the device's energy budget, each committed as one
//! record with one done bit, and the first group's record also arms
//! the delivery. Since a sub-write's cost is one write op and a 6-byte
//! header however many bytes it carries, the engine lays the armed
//! delivery's fields out as one contiguous header and stages each
//! contiguous run as one sub-write: arming — events, sequence number,
//! verdict count, done bitmap and the first group's verdict cells — is
//! a single sub-write. A delivery whose worklist fits one group
//! therefore costs `k + 4` writes for its members' `k` sub-writes in
//! all. [`crate::device::Device::commit`] counts the records it
//! commits.

use core::ops::Range;

use crate::device::{Fault, Interrupt};
use crate::fram::{Fram, MemOwner, NvCell, NvData, OutOfFram};

/// Direction of one journal FRAM access, passed to the `spend`
/// callbacks so the device bills read and write prices — and their
/// per-access base costs — to the right side of the cost model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JournalOp {
    /// The bytes are read from FRAM.
    Read,
    /// The bytes are written to FRAM.
    Write,
}

/// Byte cost of a sub-write header: `addr: u32` + `len: u16`.
pub const ENTRY_HEADER: usize = 6;
/// Byte offset of the pending flag within the journal region.
const FLAG_OFF: usize = 0;
/// Byte offset of the record (its `u16` count first).
const RECORD_OFF: usize = 1;
/// Flag value: no transaction pending.
const FLAG_IDLE: u8 = 0;
/// Flag value: a committed record is pending.
const FLAG_PENDING: u8 = 1;

/// Decodes a sub-write header: the target address and the data length.
fn header(h: &[u8]) -> (usize, usize) {
    let addr = u32::from_le_bytes([h[0], h[1], h[2], h[3]]) as usize;
    (addr, u16::from_le_bytes([h[4], h[5]]) as usize)
}

/// Walks the sub-writes of a record image (count word first), yielding
/// each target address and the range of its data within `record`.
fn entries(record: &[u8]) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
    let mut off = 2;
    core::iter::from_fn(move || {
        let (addr, len) = header(record.get(off..off + ENTRY_HEADER)?);
        let data = off + ENTRY_HEADER..off + ENTRY_HEADER + len;
        off = data.end;
        Some((addr, data))
    })
}

/// Data range of the sub-write for `(addr, len)` in a record image, if
/// one is staged.
fn find_entry(record: &[u8], addr: usize, len: usize) -> Option<Range<usize>> {
    entries(record)
        .find(|(a, data)| *a == addr && data.len() == len)
        .map(|(_, data)| data)
}

/// A volatile write-set staged by a task before commit.
///
/// The sub-writes are kept already serialised as the record image
/// [`Journal::commit`] writes to FRAM in one operation: `count: u16`,
/// then `addr: u32`, `len: u16`, `data` per sub-write. Staging writes
/// into that one buffer in place, so a write-set reused across commits
/// (see [`TxWriter::clear`]) allocates nothing once warm. Writes to the
/// same address and width merge in place, so re-assigning an output
/// inside one task costs a single sub-write; the same address at a
/// different width is a separate sub-write. Reads observe staged
/// values (read-your-writes): [`TxWriter::read`] per cell, and
/// [`TxWriter::overlay`] byte-granular over any raw range.
#[derive(Debug)]
pub struct TxWriter {
    record: Vec<u8>,
}

impl Default for TxWriter {
    fn default() -> Self {
        TxWriter { record: vec![0; 2] }
    }
}

impl TxWriter {
    /// Creates an empty write-set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty write-set whose buffer holds a record of
    /// `record_bytes` without growing — size it to the journal capacity
    /// and staging never allocates.
    pub fn with_capacity(record_bytes: usize) -> Self {
        let mut record = Vec::with_capacity(record_bytes.max(2));
        record.extend_from_slice(&[0, 0]);
        TxWriter { record }
    }

    /// Stages a `len`-byte write at `addr` and returns its data bytes
    /// for the caller to fill in place: the existing sub-write of that
    /// address and width, else a freshly appended zeroed one.
    pub fn write_slot(&mut self, addr: usize, len: usize) -> &mut [u8] {
        let data = match find_entry(&self.record, addr, len) {
            Some(data) => data,
            None => {
                let count = self.len() + 1;
                assert!(
                    count <= u16::MAX as usize
                        && addr <= u32::MAX as usize
                        && len <= u16::MAX as usize,
                    "journal sub-write ({addr:#x}, {len} B) exceeds the record's fields"
                );
                self.record[..2].copy_from_slice(&(count as u16).to_le_bytes());
                self.record.extend_from_slice(&(addr as u32).to_le_bytes());
                self.record.extend_from_slice(&(len as u16).to_le_bytes());
                let start = self.record.len();
                self.record.resize(start + len, 0);
                start..start + len
            }
        };
        &mut self.record[data]
    }

    /// Stages a typed write.
    pub fn write<T: NvData>(&mut self, cell: &NvCell<T>, value: T) {
        value.store(self.write_slot(cell.addr(), T::SIZE));
    }

    /// Stages a raw write.
    pub fn write_raw(&mut self, addr: usize, data: &[u8]) {
        self.write_slot(addr, data.len()).copy_from_slice(data);
    }

    /// Stages the bytes of `new` that differ from `old`, the committed
    /// image of the same range at `addr`, as byte runs in ascending
    /// order. Two runs whose unchanged gap is at most one sub-write
    /// header ([`ENTRY_HEADER`]) merge: re-writing the gap's old bytes
    /// costs no more than the header a separate run would, and is
    /// idempotent, so replaying the record after a power failure stays
    /// safe. Returns `true` if anything was staged.
    #[inline]
    pub fn write_diff(&mut self, addr: usize, old: &[u8], new: &[u8]) -> bool {
        debug_assert_eq!(old.len(), new.len());
        let mut run: Option<(usize, usize)> = None;
        let mut staged = false;
        for (i, (o, n)) in old.iter().zip(new).enumerate() {
            if o == n {
                continue;
            }
            match &mut run {
                Some((_, end)) if i - *end <= ENTRY_HEADER => *end = i + 1,
                _ => {
                    if let Some((s, e)) = run.replace((i, i + 1)) {
                        self.write_raw(addr + s, &new[s..e]);
                    }
                    staged = true;
                }
            }
        }
        if let Some((s, e)) = run {
            self.write_raw(addr + s, &new[s..e]);
        }
        staged
    }

    /// Stages `len` zero bytes at `addr`.
    pub fn write_zeroed(&mut self, addr: usize, len: usize) {
        self.write_slot(addr, len).fill(0);
    }

    /// Reads a cell, observing staged writes first.
    pub fn read<T: NvData>(&self, fram: &mut Fram, cell: &NvCell<T>) -> T {
        self.staged(cell).unwrap_or_else(|| fram.read(cell))
    }

    /// The value staged for `cell` — a sub-write of its address and
    /// width — if any.
    pub(crate) fn staged<T: NvData>(&self, cell: &NvCell<T>) -> Option<T> {
        find_entry(&self.record, cell.addr(), T::SIZE).map(|data| T::load(&self.record[data]))
    }

    /// Lays every staged sub-write that overlaps `addr..addr +
    /// buf.len()` over `buf`, which holds that range's committed bytes,
    /// in record order — the order [`Journal::commit`] applies them —
    /// so `buf` ends up holding what the range will after the commit.
    pub fn overlay(&self, addr: usize, buf: &mut [u8]) {
        let end = addr + buf.len();
        for (at, data) in entries(&self.record) {
            let (lo, hi) = (at.max(addr), (at + data.len()).min(end));
            if lo < hi {
                let src = data.start + (lo - at)..data.start + (hi - at);
                buf[lo - addr..hi - addr].copy_from_slice(&self.record[src]);
            }
        }
    }

    /// Number of staged sub-writes.
    pub fn len(&self) -> usize {
        u16::from_le_bytes([self.record[0], self.record[1]]) as usize
    }

    /// Returns `true` if nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Journal bytes the serialised record occupies: the count word
    /// plus a header and payload per sub-write.
    pub fn record_bytes(&self) -> usize {
        self.record.len()
    }

    /// The record image staged into the journal region.
    pub fn record(&self) -> &[u8] {
        &self.record
    }

    /// Discards all staged writes, keeping the buffer's capacity.
    pub fn clear(&mut self) {
        self.record.clear();
        self.record.extend_from_slice(&[0, 0]);
    }
}

/// The journal region handle.
///
/// # Examples
///
/// ```
/// use intermittent_sim::fram::{Fram, MemOwner};
/// use intermittent_sim::journal::{Journal, TxWriter};
///
/// let mut fram = Fram::new(1024);
/// let journal = Journal::new(&mut fram, 128, MemOwner::Runtime).unwrap();
/// let cell = fram.alloc::<u32>(0, MemOwner::App, "x").unwrap();
///
/// let mut tx = TxWriter::new();
/// tx.write(&cell, 99);
/// journal.commit(&mut fram, &tx, &mut |_, _| Ok(())).unwrap();
/// assert_eq!(fram.read(&cell), 99);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Journal {
    base: usize,
    capacity: usize,
}

impl Journal {
    /// Reserves a journal region holding one record of up to `capacity`
    /// bytes, count word included, behind the pending flag.
    pub fn new(fram: &mut Fram, capacity: usize, owner: MemOwner) -> Result<Journal, OutOfFram> {
        let base = fram.alloc_raw(RECORD_OFF + capacity, owner, "commit journal")?;
        // The freshly zeroed flag byte means "idle".
        Ok(Journal { base, capacity })
    }

    /// The largest record the journal holds, in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// One past the journal region's last byte.
    fn end(&self) -> usize {
        self.base + RECORD_OFF + self.capacity
    }

    /// Commits a write-set atomically as one journal record.
    ///
    /// The record is staged with a single FRAM write, linearised by the
    /// flag byte, and the sub-writes are then applied from RAM — no
    /// journal re-reads on the happy path. `spend` is charged once per
    /// FRAM access with its byte count and direction ([`JournalOp`]) and
    /// may fail with [`Interrupt::PowerFailure`], aborting the commit at
    /// that point: before the flag write the record is discarded, after
    /// it [`Journal::recover`] replays it (redo, idempotent).
    pub fn commit(
        &self,
        fram: &mut Fram,
        tx: &TxWriter,
        spend: &mut dyn FnMut(usize, JournalOp) -> Result<(), Interrupt>,
    ) -> Result<(), Interrupt> {
        if tx.is_empty() {
            return Ok(());
        }
        let needed = tx.record_bytes();
        if needed > self.capacity {
            return Err(Interrupt::Fault(Fault::JournalOverflow {
                needed,
                capacity: self.capacity,
            }));
        }

        // Phase 1: stage the whole record in one write.
        spend(needed, JournalOp::Write)?;
        fram.write_raw(self.base + RECORD_OFF, tx.record());

        // Phase 2: the linearisation point — one atomic byte.
        spend(1, JournalOp::Write)?;
        fram.write_raw(self.base + FLAG_OFF, &[FLAG_PENDING]);

        // Phase 3: apply straight from RAM; a failure here is repaired
        // by `recover`, which replays the FRAM copy.
        for (addr, data) in entries(tx.record()) {
            spend(data.len(), JournalOp::Write)?;
            fram.write_raw(addr, &tx.record[data]);
        }

        spend(1, JournalOp::Write)?;
        fram.write_raw(self.base + FLAG_OFF, &[FLAG_IDLE]);
        Ok(())
    }

    /// Completes an interrupted commit, if one is pending.
    ///
    /// Returns `Ok(true)` when a pending transaction was re-applied.
    /// Called by the runtime on every boot before any other FRAM use.
    /// A pending record whose flag, count or sub-write headers are out
    /// of range — sub-writes past the journal region, targets past the
    /// end of FRAM or inside the journal — is rejected whole with
    /// [`Fault::CorruptJournal`] before any of it is applied.
    pub fn recover(
        &self,
        fram: &mut Fram,
        spend: &mut dyn FnMut(usize, JournalOp) -> Result<(), Interrupt>,
    ) -> Result<bool, Interrupt> {
        spend(1, JournalOp::Read)?;
        match fram.read_raw(self.base + FLAG_OFF, 1)[0] {
            FLAG_IDLE => return Ok(false),
            FLAG_PENDING => {}
            _ => return Err(Interrupt::Fault(Fault::CorruptJournal)),
        }
        self.check_record(fram)?;

        // Re-apply every sub-write by re-reading it from FRAM, then
        // clear the flag.
        spend(2, JournalOp::Read)?;
        let c = fram.read_raw(self.base + RECORD_OFF, 2);
        let count = u16::from_le_bytes([c[0], c[1]]) as usize;
        let mut off = self.base + RECORD_OFF + 2;
        for _ in 0..count {
            spend(ENTRY_HEADER, JournalOp::Read)?;
            let (addr, len) = header(fram.read_raw(off, ENTRY_HEADER));
            spend(len, JournalOp::Read)?;
            let data = fram.read_raw(off + ENTRY_HEADER, len).to_vec();
            spend(len, JournalOp::Write)?;
            fram.write_raw(addr, &data);
            off += ENTRY_HEADER + len;
        }
        spend(1, JournalOp::Write)?;
        fram.write_raw(self.base + FLAG_OFF, &[FLAG_IDLE]);
        Ok(true)
    }

    /// Returns `true` if a committed-but-unapplied transaction is
    /// pending.
    #[cfg(test)]
    fn is_pending(&self, fram: &Fram) -> bool {
        fram.peek_raw(self.base + FLAG_OFF, 1)[0] != FLAG_IDLE
    }

    /// Validates the pending record without billing: every sub-write
    /// must lie inside the journal region and target allocated FRAM
    /// outside it (the arena stores nothing past [`Fram::used`]).
    fn check_record(&self, fram: &Fram) -> Result<(), Interrupt> {
        let corrupt = Err(Interrupt::Fault(Fault::CorruptJournal));
        let c = fram.peek_raw(self.base + RECORD_OFF, 2);
        let count = u16::from_le_bytes([c[0], c[1]]) as usize;
        let mut off = self.base + RECORD_OFF + 2;
        for _ in 0..count {
            if off + ENTRY_HEADER > self.end() {
                return corrupt;
            }
            let (addr, len) = header(fram.peek_raw(off, ENTRY_HEADER));
            off += ENTRY_HEADER + len;
            let hits_journal = addr < self.end() && self.base < addr + len;
            if off > self.end() || addr + len > fram.used() || hits_journal {
                return corrupt;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4 KiB arena holding the journal and two cells, the rest
    /// unallocated.
    fn setup_unfilled() -> (Fram, Journal, NvCell<u64>, NvCell<u32>) {
        let mut fram = Fram::new(4096);
        let journal = Journal::new(&mut fram, 256, MemOwner::Runtime).unwrap();
        let a = fram.alloc::<u64>(1, MemOwner::App, "a").unwrap();
        let b = fram.alloc::<u32>(2, MemOwner::App, "b").unwrap();
        (fram, journal, a, b)
    }

    /// [`setup_unfilled`] with the rest of the arena allocated, so
    /// sub-writes may target any byte up to the last.
    fn setup() -> (Fram, Journal, NvCell<u64>, NvCell<u32>) {
        let (mut fram, journal, a, b) = setup_unfilled();
        let rest = fram.capacity() - fram.used();
        fram.alloc_raw(rest, MemOwner::App, "rest").unwrap();
        (fram, journal, a, b)
    }

    fn no_fail(_: usize, _: JournalOp) -> Result<(), Interrupt> {
        Ok(())
    }

    /// Commits `tx`, failing with a power failure once more than
    /// `budget` bytes would have been charged.
    fn commit_within(
        fram: &mut Fram,
        journal: &Journal,
        tx: &TxWriter,
        budget: usize,
    ) -> Result<(), Interrupt> {
        let mut spent = 0usize;
        journal.commit(fram, tx, &mut |n, _| {
            if spent + n > budget {
                return Err(Interrupt::PowerFailure);
            }
            spent += n;
            Ok(())
        })
    }

    #[test]
    fn empty_commit_is_a_no_op() {
        let (mut fram, journal, _, _) = setup();
        let written = fram.bytes_written();
        journal
            .commit(&mut fram, &TxWriter::new(), &mut no_fail)
            .unwrap();
        assert_eq!(fram.bytes_written(), written);
    }

    #[test]
    fn commit_applies_all_writes() {
        let (mut fram, journal, a, b) = setup();
        let mut tx = TxWriter::new();
        tx.write(&a, 10);
        tx.write(&b, 20);
        let (reads, writes) = (fram.read_ops(), fram.write_ops());
        journal.commit(&mut fram, &tx, &mut no_fail).unwrap();
        // k sub-writes cost k+3 raw writes and zero reads.
        assert_eq!(fram.read_ops(), reads);
        assert_eq!(fram.write_ops(), writes + 2 + 3);
        assert_eq!(fram.read(&a), 10);
        assert_eq!(fram.read(&b), 20);
        assert!(!journal.is_pending(&fram));
    }

    #[test]
    fn tx_merges_rewrites_of_same_cell() {
        let (mut fram, journal, a, _) = setup();
        let mut tx = TxWriter::new();
        tx.write(&a, 1);
        tx.write(&a, 2);
        tx.write(&a, 3);
        assert_eq!(tx.len(), 1);
        assert_eq!(tx.record_bytes(), 2 + ENTRY_HEADER + 8);
        journal.commit(&mut fram, &tx, &mut no_fail).unwrap();
        assert_eq!(fram.read(&a), 3);
    }

    #[test]
    fn tx_read_your_writes() {
        let (mut fram, _, a, _) = setup();
        let mut tx = TxWriter::new();
        assert_eq!(tx.read(&mut fram, &a), 1, "unstaged read sees FRAM");
        tx.write(&a, 42);
        assert_eq!(tx.read(&mut fram, &a), 42, "staged read sees tx");
        assert_eq!(fram.peek(&a), 1, "FRAM unchanged before commit");
    }

    /// The capacity counts the whole record, count word included: a
    /// record of exactly the capacity commits, one byte more is
    /// rejected before anything is written.
    #[test]
    fn overflowing_tx_is_rejected_cleanly() {
        let record = 2 + ENTRY_HEADER + 8;
        for (capacity, fits) in [(record, true), (record - 1, false)] {
            let mut fram = Fram::new(4096);
            let journal = Journal::new(&mut fram, capacity, MemOwner::Runtime).unwrap();
            let a = fram.alloc::<u64>(0, MemOwner::App, "a").unwrap();
            let mut tx = TxWriter::new();
            tx.write(&a, 7);
            let written = fram.bytes_written();
            let r = journal.commit(&mut fram, &tx, &mut no_fail);
            if fits {
                assert_eq!(r, Ok(()));
                assert_eq!(fram.peek(&a), 7);
            } else {
                assert!(matches!(
                    r,
                    Err(Interrupt::Fault(Fault::JournalOverflow { needed, capacity: c }))
                        if needed == record && c == capacity
                ));
                assert_eq!(fram.bytes_written(), written, "nothing written");
                assert_eq!(fram.peek(&a), 0, "target untouched");
            }
        }
    }

    /// The core atomicity property: inject a power failure after every
    /// possible number of charged bytes; after recovery the FRAM state
    /// must be either fully pre-transaction or fully post-transaction —
    /// a torn record (failure before the flag) is discarded wholesale.
    #[test]
    fn commit_is_atomic_under_exhaustive_failure_injection() {
        let stage = |a: &NvCell<u64>, b: &NvCell<u32>| {
            let mut tx = TxWriter::new();
            tx.write(a, 0xAAAA_AAAA_AAAA_AAAA);
            tx.write(b, 0xBBBB_BBBB);
            tx
        };
        // First measure the total byte budget of a successful commit.
        let (mut fram, journal, a, b) = setup();
        let mut total = 0usize;
        journal
            .commit(&mut fram, &stage(&a, &b), &mut |n, _| {
                total += n;
                Ok(())
            })
            .unwrap();
        assert_eq!(total, (2 + 2 * ENTRY_HEADER + 8 + 4) + 1 + (8 + 4) + 1);

        for fail_at in 0..total {
            let (mut fram, journal, a, b) = setup();
            let result = commit_within(&mut fram, &journal, &stage(&a, &b), fail_at);
            assert!(matches!(result, Err(Interrupt::PowerFailure)));

            // Reboot: recovery must complete or discard the transaction.
            journal.recover(&mut fram, &mut no_fail).unwrap();
            let va = fram.peek(&a);
            let vb = fram.peek(&b);
            let old = (va, vb) == (1, 2);
            let new = (va, vb) == (0xAAAA_AAAA_AAAA_AAAA, 0xBBBB_BBBB);
            assert!(
                old || new,
                "fail_at={fail_at}: torn state a={va:#x} b={vb:#x}"
            );
            assert!(!journal.is_pending(&fram));
        }
    }

    /// Recovery itself may be interrupted; repeated recovery attempts
    /// must still converge to the committed state (redo idempotence).
    #[test]
    fn recover_is_idempotent_under_repeated_failures() {
        let (mut fram, journal, a, b) = setup();
        let mut tx = TxWriter::new();
        tx.write(&a, 77);
        tx.write(&b, 88);

        // Stop the commit exactly after the flag write: the record and
        // the flag are allowed through, the apply phase is not.
        let r = commit_within(&mut fram, &journal, &tx, tx.record_bytes() + 1);
        assert!(matches!(r, Err(Interrupt::PowerFailure)));
        assert!(journal.is_pending(&fram));
        assert_eq!(fram.peek(&a), 1, "no sub-write applied yet");

        // Interrupt recovery at progressively later byte boundaries; the
        // final successful pass must land the full transaction.
        let mut fail_at = 0usize;
        loop {
            let mut spent = 0usize;
            let r = journal.recover(&mut fram, &mut |n, _| {
                if spent + n > fail_at {
                    Err(Interrupt::PowerFailure)
                } else {
                    spent += n;
                    Ok(())
                }
            });
            match r {
                Ok(applied) => {
                    assert!(applied);
                    break;
                }
                Err(_) => fail_at += 1,
            }
            assert!(fail_at < 10_000, "recovery never converged");
        }
        assert_eq!(fram.peek(&a), 77);
        assert_eq!(fram.peek(&b), 88);
        assert!(!journal.is_pending(&fram));

        // A second recovery finds nothing to do.
        assert!(!journal.recover(&mut fram, &mut no_fail).unwrap());
    }

    /// Sub-writes scattered across FRAM, of mixed widths and up to its
    /// last byte, land from RAM: `k+3` writes, no reads, and the bytes
    /// between the targets are untouched.
    #[test]
    fn sparse_commit_applies_scattered_writes_without_reads() {
        let (mut fram, journal, _, _) = setup();
        let end = fram.capacity();
        let targets: [(usize, &[u8]); 4] = [
            (600, &[0x11]),
            (1500, &[0x22, 0x23]),
            (3000, &[0x33; 7]),
            (end - 4, &[0x44, 0x45, 0x46, 0x47]),
        ];
        let mut tx = TxWriter::new();
        for (addr, data) in targets {
            tx.write_raw(addr, data);
        }
        let (reads, writes, written) = (fram.read_ops(), fram.write_ops(), fram.bytes_written());
        journal.commit(&mut fram, &tx, &mut no_fail).unwrap();
        assert_eq!(fram.read_ops(), reads, "applied from RAM");
        assert_eq!(fram.write_ops(), writes + targets.len() as u64 + 3);
        let data: usize = targets.iter().map(|(_, d)| d.len()).sum();
        assert_eq!(
            fram.bytes_written(),
            written + (tx.record_bytes() + 1 + data + 1) as u64
        );
        for (addr, data) in targets {
            assert_eq!(fram.peek_raw(addr, data.len()), data);
            assert_eq!(fram.peek_raw(addr - 1, 1), &[0], "byte before {addr}");
        }
        assert_eq!(fram.peek_raw(1500 + 2, 1), &[0], "byte after the u16");
        assert!(!journal.is_pending(&fram));
    }

    /// Interleaved rewrites of two cells merge in place: each keeps the
    /// slot of its first write, and only the final values are applied.
    #[test]
    fn sparse_tx_merges_rewrites_of_same_cell() {
        let (mut fram, journal, a, b) = setup();
        let mut tx = TxWriter::new();
        tx.write(&a, 1);
        tx.write(&b, 2);
        tx.write(&a, 9);
        tx.write(&b, 8);
        tx.write(&a, 7);
        assert_eq!(tx.len(), 2);
        assert_eq!(tx.record_bytes(), 2 + 2 * ENTRY_HEADER + 8 + 4);
        let first = &tx.record()[2..2 + 4];
        assert_eq!(first, &(a.addr() as u32).to_le_bytes(), "a stays first");
        let written = fram.bytes_written();
        journal.commit(&mut fram, &tx, &mut no_fail).unwrap();
        assert_eq!(fram.peek(&a), 7);
        assert_eq!(fram.peek(&b), 8);
        let applied = (tx.record_bytes() + 1 + 8 + 4 + 1) as u64;
        assert_eq!(fram.bytes_written(), written + applied);
    }

    /// A diff stages only changed bytes: runs a header or less apart
    /// merge across their gap, runs further apart stay separate, and an
    /// unchanged image stages nothing.
    #[test]
    fn write_diff_stages_changed_runs_merging_close_gaps() {
        let old = [0u8; 32];
        let mut tx = TxWriter::new();
        assert!(!tx.write_diff(100, &old, &old));
        assert!(tx.is_empty());

        let mut new = old;
        new[1] = 1; // run [1, 2) ...
        new[2 + ENTRY_HEADER] = 2; // ... merges across a 6-byte gap
        new[16] = 3; // 7 bytes further on: a run of its own
        new[31] = 4;
        assert!(tx.write_diff(100, &old, &new));
        let staged: Vec<_> = entries(tx.record())
            .map(|(a, d)| (a, tx.record()[d].to_vec()))
            .collect();
        assert_eq!(
            staged,
            [(101, new[1..9].to_vec()), (116, vec![3]), (131, vec![4]),]
        );
    }

    /// A record whose sub-writes each fit the journal but together do
    /// not is rejected before anything is written, and the journal
    /// stays usable for the next record.
    #[test]
    fn oversized_sparse_tx_is_rejected_cleanly() {
        let mut fram = Fram::new(4096);
        let capacity = 2 + ENTRY_HEADER + 8;
        let journal = Journal::new(&mut fram, capacity, MemOwner::Runtime).unwrap();
        let a = fram.alloc::<u64>(0, MemOwner::App, "a").unwrap();
        let b = fram.alloc::<u32>(0, MemOwner::App, "b").unwrap();
        let mut tx = TxWriter::new();
        tx.write(&a, 7);
        tx.write(&b, 5);
        let written = fram.bytes_written();
        assert_eq!(
            journal.commit(&mut fram, &tx, &mut no_fail),
            Err(Interrupt::Fault(Fault::JournalOverflow {
                needed: 2 + 2 * ENTRY_HEADER + 8 + 4,
                capacity,
            }))
        );
        assert_eq!(fram.bytes_written(), written, "nothing written");
        assert_eq!((fram.peek(&a), fram.peek(&b)), (0, 0), "targets untouched");
        assert!(!journal.is_pending(&fram));
        assert!(!journal.recover(&mut fram, &mut no_fail).unwrap());

        tx.clear();
        tx.write(&a, 7);
        journal.commit(&mut fram, &tx, &mut no_fail).unwrap();
        assert_eq!((fram.peek(&a), fram.peek(&b)), (7, 0));
    }

    /// The every-byte sweep on a record staged the way the engine
    /// stages it — one sized buffer, cleared and re-staged through
    /// `write_slot` — with a merged rewrite and a zeroed sub-write.
    /// The flag write is the exact linearisation point: a failure
    /// before it leaves the old image and nothing to recover, any
    /// later failure is replayed to the new image.
    #[test]
    fn sparse_commit_is_atomic_under_exhaustive_failure_injection() {
        fn stage(tx: &mut TxWriter, a: &NvCell<u64>, b: &NvCell<u32>, c: usize) -> usize {
            tx.clear();
            tx.write_slot(a.addr(), 8).copy_from_slice(&[0x5A; 8]);
            tx.write_zeroed(b.addr(), 4);
            tx.write_slot(c, 2).copy_from_slice(&[0xC0, 0xDE]);
            tx.write_slot(a.addr(), 8).copy_from_slice(&[0xA5; 8]);
            tx.record_bytes()
        }
        let mut tx = TxWriter::with_capacity(64);
        let (_, _, a, b) = setup();
        let record = stage(&mut tx, &a, &b, 2000);
        let total = record + 1 + (8 + 4 + 2) + 1;

        for fail_at in 0..total {
            let (mut fram, journal, a, b) = setup();
            fram.write_raw(2000, &[0x01, 0x02]);
            stage(&mut tx, &a, &b, 2000);
            let mut spent = 0usize;
            let result = journal.commit(&mut fram, &tx, &mut |n, _| {
                if spent + n > fail_at {
                    return Err(Interrupt::PowerFailure);
                }
                spent += n;
                Ok(())
            });
            assert_eq!(result, Err(Interrupt::PowerFailure));

            let replayed = journal.recover(&mut fram, &mut no_fail).unwrap();
            assert_eq!(replayed, fail_at > record, "fail_at={fail_at}");
            let state = (
                fram.peek(&a),
                fram.peek(&b),
                fram.peek_raw(2000, 2).to_vec(),
            );
            let expected = if replayed {
                (0xA5A5_A5A5_A5A5_A5A5, 0, vec![0xC0, 0xDE])
            } else {
                (1, 2, vec![0x01, 0x02])
            };
            assert_eq!(state, expected, "fail_at={fail_at}");
            assert!(!journal.is_pending(&fram));
        }
    }

    /// A crash anywhere in the apply phase leaves FRAM part-applied
    /// behind a pending flag; recovery, itself interrupted at every
    /// byte boundary in turn, converges to the new image each time.
    #[test]
    fn sparse_recover_is_idempotent_under_repeated_failures() {
        let stage = |a: &NvCell<u64>, b: &NvCell<u32>| {
            let mut tx = TxWriter::new();
            tx.write(a, 77);
            tx.write(b, 88);
            tx
        };
        let (_, _, a, b) = setup();
        let record = stage(&a, &b).record_bytes();
        for stop in record + 1..record + 1 + 8 + 4 {
            let (mut fram, journal, a, b) = setup();
            let r = commit_within(&mut fram, &journal, &stage(&a, &b), stop);
            assert_eq!(r, Err(Interrupt::PowerFailure));
            assert!(journal.is_pending(&fram), "stop={stop}");

            let mut fail_at = 0usize;
            while let Err(e) = {
                let mut spent = 0usize;
                journal.recover(&mut fram, &mut |n, _| {
                    if spent + n > fail_at {
                        return Err(Interrupt::PowerFailure);
                    }
                    spent += n;
                    Ok(())
                })
            } {
                assert_eq!(e, Interrupt::PowerFailure);
                assert!(journal.is_pending(&fram), "stop={stop}: flag cleared early");
                fail_at += 1;
                assert!(fail_at < 10_000, "recovery never converged");
            }
            assert_eq!((fram.peek(&a), fram.peek(&b)), (77, 88), "stop={stop}");
            assert!(!journal.is_pending(&fram));
            assert!(!journal.recover(&mut fram, &mut no_fail).unwrap());
        }
    }

    /// A torn record prefix with the flag still idle must be invisible:
    /// recovery is a no-op and the targets keep their old image.
    #[test]
    fn torn_record_prefix_recovers_to_old_image() {
        let image = {
            let (_, _, a, b) = setup();
            let mut tx = TxWriter::new();
            tx.write(&a, 0xDEAD_BEEF_u64);
            tx.write(&b, 0xCAFE_u32);
            tx.record().to_vec()
        };

        // Simulate a crash mid-stage at every record prefix length: the
        // flag byte was never written, so whatever landed in the region
        // is dead data.
        for torn in 0..=image.len() {
            let (mut fram, journal, a, b) = setup();
            fram.write_raw(journal.base + RECORD_OFF, &image[..torn]);
            assert!(!journal.recover(&mut fram, &mut no_fail).unwrap());
            assert!(!journal.is_pending(&fram));
            assert_eq!(fram.peek(&a), 1, "torn={torn}: old image lost");
            assert_eq!(fram.peek(&b), 2, "torn={torn}: old image lost");
        }
    }

    /// The staged record is the exact on-FRAM image: count word, then
    /// `[addr u32][len u16][data]` per sub-write in first-staged order,
    /// merged rewrites in place.
    #[test]
    fn record_image_matches_golden_bytes() {
        let mut tx = TxWriter::new();
        assert_eq!(tx.record(), &[0, 0]);
        tx.write_raw(0x0102_0304, &[0xAA, 0xBB]);
        tx.write_zeroed(0x10, 3);
        tx.write_slot(0x20, 6)
            .copy_from_slice(&[2, 0, 7, 0, 0x02, 0x01]);
        tx.write_raw(0x0102_0304, &[0xCC, 0xDD]);
        #[rustfmt::skip]
        let golden = [
            3, 0,
            0x04, 0x03, 0x02, 0x01, 2, 0, 0xCC, 0xDD,
            0x10, 0, 0, 0, 3, 0, 0, 0, 0,
            0x20, 0, 0, 0, 6, 0, 2, 0, 7, 0, 0x02, 0x01,
        ];
        assert_eq!(tx.record(), &golden);
        assert_eq!(tx.record_bytes(), golden.len());
        assert_eq!(tx.len(), 3);
    }

    #[test]
    fn staging_merges_only_same_address_and_width() {
        let mut tx = TxWriter::new();
        tx.write_raw(40, &[1, 2]);
        tx.write_raw(40, &[3, 4]);
        assert_eq!(tx.len(), 1, "same address and width merges");
        tx.write_raw(40, &[5, 6, 7, 8]);
        assert_eq!(tx.len(), 2, "same address, other width appends");
        assert_eq!(tx.record_bytes(), 2 + 2 * ENTRY_HEADER + 2 + 4);
    }

    #[test]
    fn clear_keeps_capacity_and_restages_identically() {
        let mut tx = TxWriter::with_capacity(64);
        let cap = tx.record.capacity();
        tx.write_raw(100, &[9; 32]);
        tx.write_zeroed(200, 16);
        let image = tx.record().to_vec();
        assert_eq!(tx.record.capacity(), cap, "a sized buffer never grows");
        tx.clear();
        assert!(tx.is_empty());
        assert_eq!(tx.record(), &[0, 0]);
        assert_eq!(tx.record.capacity(), cap);
        tx.write_raw(100, &[9; 32]);
        tx.write_zeroed(200, 16);
        assert_eq!(tx.record(), &image[..]);
        assert_eq!(tx.record.capacity(), cap, "re-staging reuses the buffer");
    }

    /// Flips every bit of a committed, still-pending record (flag byte
    /// included): recovery either replays whatever the record now says
    /// or rejects it with `CorruptJournal` — it never panics.
    #[test]
    fn recover_rejects_bit_flipped_records_without_panicking() {
        // A fresh journal holding a committed two-write record, stopped
        // right after its flag write; returns the record length.
        fn pending() -> (Fram, Journal, usize) {
            let (mut fram, journal, a, b) = setup();
            let mut tx = TxWriter::new();
            tx.write(&a, 77u64);
            tx.write(&b, 88u32);
            let len = tx.record_bytes();
            let r = commit_within(&mut fram, &journal, &tx, len + 1);
            assert_eq!(r, Err(Interrupt::PowerFailure));
            assert!(journal.is_pending(&fram));
            (fram, journal, len)
        }
        let mut faults = 0;
        let len = pending().2;
        for byte in 0..RECORD_OFF + len {
            for bit in 0..8 {
                let (mut fram, journal, _) = pending();
                let at = journal.base + byte;
                let flipped = fram.peek_raw(at, 1)[0] ^ (1 << bit);
                fram.write_raw(at, &[flipped]);
                match journal.recover(&mut fram, &mut no_fail) {
                    Ok(_) => {}
                    Err(Interrupt::Fault(Fault::CorruptJournal)) => faults += 1,
                    Err(e) => panic!("byte {byte} bit {bit}: {e}"),
                }
            }
        }
        assert!(faults > 0, "no flip was detected as corruption");
    }

    #[test]
    fn recover_faults_on_out_of_range_headers_before_applying() {
        let (mut fram, journal, a, _) = setup_unfilled();
        let region = journal.base + RECORD_OFF;
        let cases: [(usize, u16); 4] = [
            (fram.capacity() - 2, 8),            // target past the end of FRAM
            (fram.used(), 4),                    // target in unallocated FRAM
            (journal.base + 1, 2),               // target inside the journal
            (a.addr(), journal.capacity as u16), // data past the region
        ];
        for (addr, len) in cases {
            let mut record = vec![2, 0];
            record.extend_from_slice(&(a.addr() as u32).to_le_bytes());
            record.extend_from_slice(&8u16.to_le_bytes());
            record.extend_from_slice(&5u64.to_le_bytes());
            record.extend_from_slice(&(addr as u32).to_le_bytes());
            record.extend_from_slice(&len.to_le_bytes());
            fram.write_raw(region, &record);
            fram.write_raw(journal.base + FLAG_OFF, &[FLAG_PENDING]);
            assert_eq!(
                journal.recover(&mut fram, &mut no_fail),
                Err(Interrupt::Fault(Fault::CorruptJournal))
            );
            assert_eq!(fram.peek(&a), 1, "nothing of a corrupt record applies");
        }
    }
}
