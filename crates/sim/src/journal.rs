//! A redo journal for crash-atomic FRAM commits.
//!
//! Task-based intermittent runtimes require *all-or-nothing* task
//! effects: either every output of a task reaches nonvolatile memory or
//! none does, no matter where a power failure lands (paper §3.1, "Tasks
//! are atomic units with all-or-nothing semantics"). The classic
//! implementation — used here — is a redo journal in FRAM:
//!
//! 1. staged writes are copied into the journal region;
//! 2. the entry count is written;
//! 3. a single-byte *commit flag* is set (the linearisation point — a
//!    one-byte FRAM write is atomic on the real part);
//! 4. entries are applied to their home locations;
//! 5. the flag is cleared.
//!
//! A failure before step 3 discards the transaction; a failure after it
//! is repaired on reboot by [`Journal::recover`], which re-applies the
//! (idempotent) redo entries. Fault-injection tests in this module drive
//! a commit through a power failure at **every** possible byte boundary
//! and assert atomicity each time.
//!
//! Two record formats share the region, discriminated by the flag byte:
//!
//! - **Entry-list** ([`TxWriter`] via [`Journal::commit`], flag = 1):
//!   the classic format above. Each entry is staged with its own header
//!   write, and the apply phase re-reads every entry from the journal —
//!   `2e+1` FRAM reads and `3e+3` writes for `e` entries.
//! - **Sparse delta** ([`SparseTx`] via [`Journal::commit_sparse`],
//!   flag = 2): the whole length-prefixed record is staged in a single
//!   FRAM write, and after the flag is set the sub-writes are applied
//!   straight from RAM — `k+3` writes and **zero** reads for `k`
//!   sub-writes. Only reboot recovery re-reads the record from FRAM.
//!   This is the commit path for statically-derived write sets, where
//!   an event touches a handful of scattered slots.

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

/// Byte cost of a journal entry header: `addr: u32` + `len: u16`.
const ENTRY_HEADER: usize = 6;
/// Byte offset of the commit flag within the journal region.
const FLAG_OFF: usize = 0;
/// Byte offset of the entry count (`u16`).
const COUNT_OFF: usize = 1;
/// First entry byte.
const ENTRIES_OFF: usize = 3;
/// Flag value: no transaction pending.
const FLAG_IDLE: u8 = 0;
/// Flag value: a committed entry-list transaction is pending.
const FLAG_ENTRIES: u8 = 1;
/// Flag value: a committed sparse-delta record is pending.
const FLAG_SPARSE: u8 = 2;

/// Decodes an entry header: the target address and the data length.
fn header(h: &[u8]) -> (usize, usize) {
    let addr = u32::from_le_bytes([h[0], h[1], h[2], h[3]]) as usize;
    (addr, u16::from_le_bytes([h[4], h[5]]) as usize)
}

/// Offset of the first entry of the record whose count word sits at
/// `count_off`: right behind the count in the sparse format, at
/// [`ENTRIES_OFF`] in the entry-list format (count at [`COUNT_OFF`]).
fn first_entry(count_off: usize) -> usize {
    (count_off + 2).max(ENTRIES_OFF)
}

/// Walks a flat sequence of journal entries — `[addr u32][len u16]`
/// then `len` data bytes each, the on-FRAM entry format of both
/// record kinds — yielding each entry's target address and the range
/// of its data within `bytes`.
fn entries(bytes: &[u8]) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
    let mut off = 0;
    core::iter::from_fn(move || {
        let (addr, len) = header(bytes.get(off..off + ENTRY_HEADER)?);
        let data = off + ENTRY_HEADER..off + ENTRY_HEADER + len;
        off = data.end;
        Some((addr, data))
    })
}

/// Data range of the entry for `(addr, len)` in a flat entry sequence,
/// if one is staged.
fn find_entry(bytes: &[u8], addr: usize, len: usize) -> Option<Range<usize>> {
    entries(bytes)
        .find(|(a, data)| *a == addr && data.len() == len)
        .map(|(_, data)| data)
}

/// Appends a zeroed entry for `(addr, len)` and returns its data range.
fn append_entry(buf: &mut Vec<u8>, addr: usize, len: usize) -> Range<usize> {
    assert!(
        addr <= u32::MAX as usize && len <= u16::MAX as usize,
        "journal entry ({addr:#x}, {len} B) exceeds its header fields"
    );
    buf.extend_from_slice(&(addr as u32).to_le_bytes());
    buf.extend_from_slice(&(len as u16).to_le_bytes());
    let start = buf.len();
    buf.resize(start + len, 0);
    start..start + len
}

/// A volatile write-set staged by a task before commit.
///
/// Entries are kept serialised in their journal format (`[addr u32]
/// [len u16][data]`) in one buffer, so staging a write allocates
/// nothing once the buffer has grown. Writes to the same cell are
/// merged in place, so re-assigning an output inside one task costs a
/// single journal entry. Reads go through [`TxWriter::read`], which
/// observes staged values (read-your-writes).
#[derive(Default, Debug)]
pub struct TxWriter {
    entries: Vec<u8>,
    count: usize,
}

impl TxWriter {
    /// Creates an empty write-set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The staged data bytes for `(addr, len)`: the existing entry of
    /// that address and width, else a freshly appended zeroed one.
    fn slot(&mut self, addr: usize, len: usize) -> &mut [u8] {
        let data = match find_entry(&self.entries, addr, len) {
            Some(data) => data,
            None => {
                self.count += 1;
                append_entry(&mut self.entries, addr, len)
            }
        };
        &mut self.entries[data]
    }

    /// Stages a typed write.
    pub fn write<T: NvData>(&mut self, cell: &NvCell<T>, value: T) {
        value.store(self.slot(cell.addr(), T::SIZE));
    }

    /// Stages a raw write.
    pub fn write_raw(&mut self, addr: usize, data: &[u8]) {
        self.slot(addr, data.len()).copy_from_slice(data);
    }

    /// Stages `len` zero bytes at `addr`.
    pub fn write_zeroed(&mut self, addr: usize, len: usize) {
        self.slot(addr, len).fill(0);
    }

    /// Stages a variable-length `u16` list at `addr` as **one** journal
    /// entry: a `u16` count followed by the items, little-endian (see
    /// [`decode_u16_list`]). Unlike [`TxWriter::write_raw`], re-staging
    /// a list at the same address replaces the previous entry even when
    /// the lengths differ — the count word makes the shorter image
    /// self-delimiting, so stale tail bytes can never be misread.
    ///
    /// This is the staging primitive for armed worklists: the list
    /// commits atomically with whatever else is in the transaction, so
    /// a reboot sees either the complete new list or the old one.
    pub fn write_u16_list(&mut self, addr: usize, items: &[u16]) {
        let at = |bytes: &[u8]| entries(bytes).find(|(a, _)| *a == addr).map(|(_, d)| d);
        while let Some(data) = at(&self.entries) {
            self.entries.drain(data.start - ENTRY_HEADER..data.end);
            self.count -= 1;
        }
        self.count += 1;
        let data = append_entry(&mut self.entries, addr, u16_list_bytes(items.len()));
        store_u16_list(items, &mut self.entries[data]);
    }

    /// Reads a cell, observing staged writes first.
    pub fn read<T: NvData>(&self, fram: &mut Fram, cell: &NvCell<T>) -> T {
        match find_entry(&self.entries, cell.addr(), T::SIZE) {
            Some(data) => T::load(&self.entries[data]),
            None => fram.read(cell),
        }
    }

    /// Number of staged entries.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Returns `true` if nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Total journal bytes this write-set will occupy.
    pub fn journal_bytes(&self) -> usize {
        self.entries.len()
    }

    /// Discards all staged writes, keeping the buffer's capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.count = 0;
    }
}

/// A volatile write-set destined for a single-record sparse commit.
///
/// The sub-writes are staged already serialised as the record image
/// [`Journal::commit_sparse`] writes to FRAM in one operation: `count:
/// u16`, then `addr: u32`, `len: u16`, `data` per sub-write. Staging
/// writes into that one buffer in place, so a write-set reused across
/// commits (see [`SparseTx::clear`]) allocates nothing once warm.
/// Sub-writes to the same address and width are merged in place,
/// mirroring [`TxWriter::write_raw`]; the same address at a different
/// width is a separate sub-write.
#[derive(Debug)]
pub struct SparseTx {
    record: Vec<u8>,
}

impl Default for SparseTx {
    fn default() -> Self {
        SparseTx { record: vec![0; 2] }
    }
}

impl SparseTx {
    /// Creates an empty sparse write-set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty sparse write-set whose buffer holds a record of
    /// `record_bytes` without growing — size it to the journal capacity
    /// and staging never allocates.
    pub fn with_capacity(record_bytes: usize) -> Self {
        let mut record = Vec::with_capacity(record_bytes.max(2));
        record.extend_from_slice(&[0, 0]);
        SparseTx { record }
    }

    /// The staged data bytes for `(addr, len)`: the existing sub-write
    /// of that address and width, else a freshly appended zeroed one.
    fn slot(&mut self, addr: usize, len: usize) -> &mut [u8] {
        let data = match find_entry(&self.record[2..], addr, len) {
            Some(data) => data.start + 2..data.end + 2,
            None => {
                let count = self.len() + 1;
                assert!(count <= u16::MAX as usize, "sparse record count overflow");
                self.record[..2].copy_from_slice(&(count as u16).to_le_bytes());
                append_entry(&mut self.record, addr, len)
            }
        };
        &mut self.record[data]
    }

    /// Stages a typed sub-write.
    pub fn push<T: NvData>(&mut self, cell: &NvCell<T>, value: T) {
        value.store(self.slot(cell.addr(), T::SIZE));
    }

    /// Stages a raw sub-write.
    pub fn push_raw(&mut self, addr: usize, data: &[u8]) {
        self.slot(addr, data.len()).copy_from_slice(data);
    }

    /// Stages `len` zero bytes at `addr`.
    pub fn push_zeroed(&mut self, addr: usize, len: usize) {
        self.slot(addr, len).fill(0);
    }

    /// Stages a `u16` list image (count word + items, see
    /// [`decode_u16_list`]) as one sub-write at `addr`.
    pub fn push_u16_list(&mut self, addr: usize, items: &[u16]) {
        store_u16_list(items, self.slot(addr, u16_list_bytes(items.len())));
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

    /// Discards all staged sub-writes, keeping the buffer's capacity.
    pub fn clear(&mut self) {
        self.record.clear();
        self.record.extend_from_slice(&[0, 0]);
    }
}

/// Writes a `u16` list's FRAM image into `out` (exactly
/// [`u16_list_bytes`]`(items.len())` long): a `u16` count followed by
/// the items, all little-endian.
fn store_u16_list(items: &[u16], out: &mut [u8]) {
    debug_assert!(items.len() <= u16::MAX as usize);
    out[..2].copy_from_slice(&(items.len() as u16).to_le_bytes());
    for (dst, v) in out[2..].chunks_exact_mut(2).zip(items) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Bytes a `u16` list of `n` items occupies in FRAM (count word +
/// items) — use to size the backing region at allocation time.
pub fn u16_list_bytes(n: usize) -> usize {
    2 + 2 * n
}

/// Decodes a `u16` list image staged by [`TxWriter::write_u16_list`]
/// or [`SparseTx::push_u16_list`]. The slice may be longer than the
/// encoded list (a region sized for the maximum); only `count` items
/// are read.
pub fn decode_u16_list(bytes: &[u8]) -> Vec<u16> {
    let count = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
    bytes[2..2 + count * 2]
        .chunks_exact(2)
        .map(|c| u16::from_le_bytes([c[0], c[1]]))
        .collect()
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
    /// Reserves a journal region of `capacity` payload bytes.
    pub fn new(fram: &mut Fram, capacity: usize, owner: MemOwner) -> Result<Journal, OutOfFram> {
        let base = fram.alloc_raw(ENTRIES_OFF + capacity, owner, "commit journal")?;
        // The freshly zeroed flag byte means "idle".
        Ok(Journal { base, capacity })
    }

    /// The journal's payload capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// One past the journal region's last byte.
    fn end(&self) -> usize {
        self.base + ENTRIES_OFF + self.capacity
    }

    /// Commits a write-set atomically.
    ///
    /// `spend` is charged once per FRAM access with its byte count and
    /// direction ([`JournalOp`]) and may fail with
    /// [`Interrupt::PowerFailure`], aborting the commit at that point;
    /// the journal protocol guarantees the abort is clean.
    pub fn commit(
        &self,
        fram: &mut Fram,
        tx: &TxWriter,
        spend: &mut dyn FnMut(usize, JournalOp) -> Result<(), Interrupt>,
    ) -> Result<(), Interrupt> {
        if tx.is_empty() {
            return Ok(());
        }
        let needed = tx.journal_bytes();
        if needed > self.capacity {
            return Err(Interrupt::Fault(Fault::JournalOverflow {
                needed,
                capacity: self.capacity,
            }));
        }

        // Phase 1: copy entries into the journal region, each as a
        // header write and a data write. The staged buffer already holds
        // the region image, so entry offsets carry over unchanged.
        let region = self.base + ENTRIES_OFF;
        for (_, data) in entries(&tx.entries) {
            let header = data.start - ENTRY_HEADER;
            spend(ENTRY_HEADER + data.len(), JournalOp::Write)?;
            fram.write_raw(region + header, &tx.entries[header..data.start]);
            fram.write_raw(region + data.start, &tx.entries[data]);
        }
        spend(2, JournalOp::Write)?;
        fram.write_raw(self.base + COUNT_OFF, &(tx.count as u16).to_le_bytes());

        // Phase 2: the linearisation point — one atomic byte.
        spend(1, JournalOp::Write)?;
        fram.write_raw(self.base + FLAG_OFF, &[FLAG_ENTRIES]);

        // Phase 3: apply; a failure here is repaired by `recover`.
        self.replay(fram, COUNT_OFF, spend)
    }

    /// Commits a sparse write-set atomically as one journal record.
    ///
    /// The record is staged with a single FRAM write, linearised by the
    /// flag byte, and the sub-writes are then applied from RAM — no
    /// journal re-reads on the happy path. A failure before the flag
    /// write discards the record; after it, [`Journal::recover`]
    /// replays the record from FRAM (redo, idempotent).
    pub fn commit_sparse(
        &self,
        fram: &mut Fram,
        tx: &SparseTx,
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
        fram.write_raw(self.base + ENTRIES_OFF, tx.record());

        // Phase 2: the linearisation point — one atomic byte.
        spend(1, JournalOp::Write)?;
        fram.write_raw(self.base + FLAG_OFF, &[FLAG_SPARSE]);

        // Phase 3: apply straight from RAM; a failure here is repaired
        // by `recover`, which replays the FRAM copy.
        let subs = &tx.record[2..];
        for (addr, data) in entries(subs) {
            spend(data.len(), JournalOp::Write)?;
            fram.write_raw(addr, &subs[data]);
        }

        spend(1, JournalOp::Write)?;
        fram.write_raw(self.base + FLAG_OFF, &[FLAG_IDLE]);
        Ok(())
    }

    /// Completes an interrupted commit, if one is pending.
    ///
    /// Returns `Ok(true)` when a pending transaction was re-applied.
    /// Called by the runtime on every boot before any other FRAM use.
    /// A pending record whose flag, count or entry headers are out of
    /// range — entries past the journal region, targets past the end of
    /// FRAM or inside the journal — is rejected whole with
    /// [`Fault::CorruptJournal`] before any of it is applied.
    pub fn recover(
        &self,
        fram: &mut Fram,
        spend: &mut dyn FnMut(usize, JournalOp) -> Result<(), Interrupt>,
    ) -> Result<bool, Interrupt> {
        spend(1, JournalOp::Read)?;
        let flag = fram.read_raw(self.base + FLAG_OFF, 1)[0];
        let count_off = match flag {
            FLAG_IDLE => return Ok(false),
            FLAG_ENTRIES => COUNT_OFF,
            FLAG_SPARSE => ENTRIES_OFF,
            _ => return Err(Interrupt::Fault(Fault::CorruptJournal)),
        };
        self.check_record(fram, count_off)?;
        self.replay(fram, count_off, spend)?;
        Ok(true)
    }

    /// Returns `true` if a committed-but-unapplied transaction is
    /// pending (for tests).
    pub fn is_pending(&self, fram: &Fram) -> bool {
        fram.peek_raw(self.base + FLAG_OFF, 1)[0] != FLAG_IDLE
    }

    /// Validates the pending record whose `u16` entry count sits at
    /// `count_off`, without billing: every entry must lie inside the
    /// journal region and target FRAM outside it.
    fn check_record(&self, fram: &Fram, count_off: usize) -> Result<(), Interrupt> {
        let corrupt = Err(Interrupt::Fault(Fault::CorruptJournal));
        let c = fram.peek_raw(self.base + count_off, 2);
        let count = u16::from_le_bytes([c[0], c[1]]) as usize;
        let mut off = self.base + first_entry(count_off);
        for _ in 0..count {
            if off + ENTRY_HEADER > self.end() {
                return corrupt;
            }
            let (addr, len) = header(fram.peek_raw(off, ENTRY_HEADER));
            off += ENTRY_HEADER + len;
            let hits_journal = addr < self.end() && self.base < addr + len;
            if off > self.end() || addr + len > fram.capacity() || hits_journal {
                return corrupt;
            }
        }
        Ok(())
    }

    /// Re-applies the pending record whose entry count sits at
    /// `count_off` by re-reading every entry from FRAM, then clears the
    /// flag — the entry-list commit's apply phase and the reboot replay
    /// of both formats (redo, idempotent).
    fn replay(
        &self,
        fram: &mut Fram,
        count_off: usize,
        spend: &mut dyn FnMut(usize, JournalOp) -> Result<(), Interrupt>,
    ) -> Result<(), Interrupt> {
        spend(2, JournalOp::Read)?;
        let count_bytes = fram.read_raw(self.base + count_off, 2);
        let count = u16::from_le_bytes([count_bytes[0], count_bytes[1]]) as usize;

        let mut off = self.base + first_entry(count_off);
        for _ in 0..count {
            spend(ENTRY_HEADER, JournalOp::Read)?;
            let (addr, len) = header(fram.read_raw(off, ENTRY_HEADER));
            spend(len, JournalOp::Read)?;
            let data = fram.read_raw(off + ENTRY_HEADER, len).to_vec();
            spend(len, JournalOp::Write)?;
            fram.write_raw(addr, &data);
            off += ENTRY_HEADER + len;
        }

        // Clear the flag: the transaction is fully applied.
        spend(1, JournalOp::Write)?;
        fram.write_raw(self.base + FLAG_OFF, &[FLAG_IDLE]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Fram, Journal, NvCell<u64>, NvCell<u32>) {
        let mut fram = Fram::new(4096);
        let journal = Journal::new(&mut fram, 256, MemOwner::Runtime).unwrap();
        let a = fram.alloc::<u64>(1, MemOwner::App, "a").unwrap();
        let b = fram.alloc::<u32>(2, MemOwner::App, "b").unwrap();
        (fram, journal, a, b)
    }

    fn no_fail(_: usize, _: JournalOp) -> Result<(), Interrupt> {
        Ok(())
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
        journal.commit(&mut fram, &tx, &mut no_fail).unwrap();
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

    #[test]
    fn overflowing_tx_is_rejected_cleanly() {
        let mut fram = Fram::new(4096);
        let journal = Journal::new(&mut fram, 8, MemOwner::Runtime).unwrap();
        let a = fram.alloc::<u64>(0, MemOwner::App, "a").unwrap();
        let mut tx = TxWriter::new();
        tx.write(&a, 7);
        let err = journal.commit(&mut fram, &tx, &mut no_fail).unwrap_err();
        assert!(matches!(
            err,
            Interrupt::Fault(Fault::JournalOverflow { .. })
        ));
        assert_eq!(fram.peek(&a), 0, "target untouched");
    }

    #[test]
    fn u16_list_round_trips_through_commit() {
        let mut fram = Fram::new(4096);
        let journal = Journal::new(&mut fram, 256, MemOwner::Runtime).unwrap();
        let addr = fram
            .alloc_raw(u16_list_bytes(8), MemOwner::Monitor, "wl")
            .unwrap();

        let mut tx = TxWriter::new();
        tx.write_u16_list(addr, &[3, 1, 7]);
        assert_eq!(tx.len(), 1, "one journal entry for the whole list");
        journal.commit(&mut fram, &tx, &mut no_fail).unwrap();
        assert_eq!(
            decode_u16_list(fram.peek_raw(addr, u16_list_bytes(8))),
            vec![3, 1, 7]
        );

        // A shorter re-stage replaces the longer image: the count word
        // self-delimits, stale tail bytes are never read.
        let mut tx = TxWriter::new();
        tx.write_u16_list(addr, &[9]);
        journal.commit(&mut fram, &tx, &mut no_fail).unwrap();
        assert_eq!(
            decode_u16_list(fram.peek_raw(addr, u16_list_bytes(8))),
            vec![9]
        );

        let mut tx = TxWriter::new();
        tx.write_u16_list(addr, &[]);
        journal.commit(&mut fram, &tx, &mut no_fail).unwrap();
        assert!(decode_u16_list(fram.peek_raw(addr, u16_list_bytes(8))).is_empty());
    }

    #[test]
    fn restaging_a_u16_list_in_one_tx_keeps_one_entry() {
        let mut tx = TxWriter::new();
        tx.write_u16_list(100, &[1, 2, 3, 4]);
        tx.write_u16_list(100, &[5]);
        assert_eq!(tx.len(), 1);
        assert_eq!(tx.journal_bytes(), 6 + u16_list_bytes(1));
        // Lists at other addresses are unaffected.
        tx.write_u16_list(200, &[6, 7]);
        assert_eq!(tx.len(), 2);
        // A re-staged list moves behind the other entries, which keep
        // their order.
        tx.write_raw(300, &[1]);
        tx.write_u16_list(100, &[8, 9]);
        assert_eq!(tx.len(), 3);
        let staged: Vec<usize> = entries(&tx.entries).map(|(a, _)| a).collect();
        assert_eq!(staged, vec![200, 300, 100]);
    }

    /// The core atomicity property: inject a power failure after every
    /// possible number of charged bytes; after recovery the FRAM state
    /// must be either fully pre-transaction or fully post-transaction.
    #[test]
    fn commit_is_atomic_under_exhaustive_failure_injection() {
        // First measure the total byte budget of a successful commit.
        let (mut fram, journal, a, b) = setup();
        let mut tx = TxWriter::new();
        tx.write(&a, 0xAAAA_AAAA_AAAA_AAAA);
        tx.write(&b, 0xBBBB_BBBB);
        let mut total = 0usize;
        journal
            .commit(&mut fram, &tx, &mut |n, _| {
                total += n;
                Ok(())
            })
            .unwrap();
        assert!(total > 0);

        for fail_at in 0..total {
            let (mut fram, journal, a, b) = setup();
            let mut tx = TxWriter::new();
            tx.write(&a, 0xAAAA_AAAA_AAAA_AAAA);
            tx.write(&b, 0xBBBB_BBBB);

            let mut spent = 0usize;
            let result = journal.commit(&mut fram, &tx, &mut |n, _| {
                if spent + n > fail_at {
                    Err(Interrupt::PowerFailure)
                } else {
                    spent += n;
                    Ok(())
                }
            });
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

        // Stop the commit exactly after the flag write: staging bytes +
        // count (2) + flag (1) are allowed through, the apply phase is
        // not.
        let flag_budget = tx.journal_bytes() + 2 + 1;
        let mut spent = 0usize;
        let r = journal.commit(&mut fram, &tx, &mut |n, _| {
            if spent + n > flag_budget {
                Err(Interrupt::PowerFailure)
            } else {
                spent += n;
                Ok(())
            }
        });
        assert!(matches!(r, Err(Interrupt::PowerFailure)));
        assert!(journal.is_pending(&fram));

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

    #[test]
    fn sparse_commit_applies_scattered_writes_without_reads() {
        let (mut fram, journal, a, b) = setup();
        let mut tx = SparseTx::new();
        tx.push(&a, 10u64);
        tx.push(&b, 20u32);
        let reads = fram.read_ops();
        journal.commit_sparse(&mut fram, &tx, &mut no_fail).unwrap();
        assert_eq!(fram.read(&a), 10);
        assert_eq!(fram.read(&b), 20);
        assert!(!journal.is_pending(&fram));
        // k sub-writes cost k+3 raw writes and zero reads.
        assert_eq!(fram.read_ops(), reads + 2, "only the two readbacks");
    }

    #[test]
    fn sparse_tx_merges_rewrites_of_same_cell() {
        let (mut fram, journal, a, _) = setup();
        let mut tx = SparseTx::new();
        tx.push(&a, 1u64);
        tx.push(&a, 9u64);
        assert_eq!(tx.len(), 1);
        assert_eq!(tx.record_bytes(), 2 + ENTRY_HEADER + 8);
        journal.commit_sparse(&mut fram, &tx, &mut no_fail).unwrap();
        assert_eq!(fram.peek(&a), 9);
    }

    #[test]
    fn oversized_sparse_tx_is_rejected_cleanly() {
        let mut fram = Fram::new(4096);
        let journal = Journal::new(&mut fram, 8, MemOwner::Runtime).unwrap();
        let a = fram.alloc::<u64>(0, MemOwner::App, "a").unwrap();
        let mut tx = SparseTx::new();
        tx.push(&a, 7u64);
        let err = journal
            .commit_sparse(&mut fram, &tx, &mut no_fail)
            .unwrap_err();
        assert!(matches!(
            err,
            Interrupt::Fault(Fault::JournalOverflow { .. })
        ));
        assert_eq!(fram.peek(&a), 0, "target untouched");
    }

    /// Same exhaustive fault-injection sweep as the entry-list commit:
    /// a power failure at every byte boundary must leave FRAM fully
    /// pre- or fully post-transaction after recovery — a torn sparse
    /// record (failure before the flag) must be discarded wholesale.
    #[test]
    fn sparse_commit_is_atomic_under_exhaustive_failure_injection() {
        let (mut fram, journal, a, b) = setup();
        let mut tx = SparseTx::new();
        tx.push(&a, 0xAAAA_AAAA_AAAA_AAAA_u64);
        tx.push(&b, 0xBBBB_BBBB_u32);
        let mut total = 0usize;
        journal
            .commit_sparse(&mut fram, &tx, &mut |n, _| {
                total += n;
                Ok(())
            })
            .unwrap();
        assert!(total > 0);

        for fail_at in 0..total {
            let (mut fram, journal, a, b) = setup();
            let mut tx = SparseTx::new();
            tx.push(&a, 0xAAAA_AAAA_AAAA_AAAA_u64);
            tx.push(&b, 0xBBBB_BBBB_u32);

            let mut spent = 0usize;
            let result = journal.commit_sparse(&mut fram, &tx, &mut |n, _| {
                if spent + n > fail_at {
                    Err(Interrupt::PowerFailure)
                } else {
                    spent += n;
                    Ok(())
                }
            });
            assert!(matches!(result, Err(Interrupt::PowerFailure)));

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

    /// Replay of a committed sparse record is redo-idempotent: recovery
    /// itself may be interrupted arbitrarily often and must converge.
    #[test]
    fn sparse_recover_is_idempotent_under_repeated_failures() {
        let (mut fram, journal, a, b) = setup();
        let mut tx = SparseTx::new();
        tx.push(&a, 77u64);
        tx.push(&b, 88u32);

        // Allow staging + flag through, stop before any apply write.
        let flag_budget = tx.record_bytes() + 1;
        let mut spent = 0usize;
        let r = journal.commit_sparse(&mut fram, &tx, &mut |n, _| {
            if spent + n > flag_budget {
                Err(Interrupt::PowerFailure)
            } else {
                spent += n;
                Ok(())
            }
        });
        assert!(matches!(r, Err(Interrupt::PowerFailure)));
        assert!(journal.is_pending(&fram));
        assert_eq!(fram.peek(&a), 1, "no sub-write applied yet");

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
        assert!(!journal.recover(&mut fram, &mut no_fail).unwrap());
    }

    /// A torn record prefix with the flag still idle must be invisible:
    /// recovery is a no-op and the targets keep their old image.
    #[test]
    fn torn_sparse_record_prefix_recovers_to_old_image() {
        let image = {
            let (_, _, a, b) = setup();
            let mut tx = SparseTx::new();
            tx.push(&a, 0xDEAD_BEEF_u64);
            tx.push(&b, 0xCAFE_u32);
            tx.record().to_vec()
        };

        // Simulate a crash mid-stage at every record prefix length: the
        // flag byte was never written, so whatever landed in the region
        // is dead data.
        for torn in 0..=image.len() {
            let (mut fram, journal, a, b) = setup();
            fram.write_raw(journal.base + ENTRIES_OFF, &image[..torn]);
            assert!(!journal.recover(&mut fram, &mut no_fail).unwrap());
            assert!(!journal.is_pending(&fram));
            assert_eq!(fram.peek(&a), 1, "torn={torn}: old image lost");
            assert_eq!(fram.peek(&b), 2, "torn={torn}: old image lost");
        }
    }

    /// The staged record is the exact image the old per-sub-write
    /// `Vec` representation serialised: count word, then `[addr u32]
    /// [len u16][data]` per sub-write in first-staged order, merged
    /// rewrites in place.
    #[test]
    fn sparse_record_image_matches_golden_bytes() {
        let mut tx = SparseTx::new();
        assert_eq!(tx.record(), &[0, 0]);
        tx.push_raw(0x0102_0304, &[0xAA, 0xBB]);
        tx.push_zeroed(0x10, 3);
        tx.push_u16_list(0x20, &[7, 0x0102]);
        tx.push_raw(0x0102_0304, &[0xCC, 0xDD]);
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
        let mut tx = SparseTx::new();
        tx.push_raw(40, &[1, 2]);
        tx.push_raw(40, &[3, 4]);
        assert_eq!(tx.len(), 1, "same address and width merges");
        tx.push_raw(40, &[5, 6, 7, 8]);
        assert_eq!(tx.len(), 2, "same address, other width appends");
        assert_eq!(tx.record_bytes(), 2 + 2 * ENTRY_HEADER + 2 + 4);

        let mut w = TxWriter::new();
        w.write_raw(40, &[1, 2]);
        w.write_raw(40, &[3, 4]);
        assert_eq!(w.len(), 1);
        w.write_raw(40, &[5, 6, 7, 8]);
        assert_eq!(w.len(), 2);
        assert_eq!(w.journal_bytes(), 2 * ENTRY_HEADER + 2 + 4);
    }

    #[test]
    fn clear_keeps_capacity_and_restages_identically() {
        let mut tx = SparseTx::new();
        tx.push_raw(100, &[9; 32]);
        tx.push_zeroed(200, 16);
        let image = tx.record().to_vec();
        let cap = tx.record.capacity();
        tx.clear();
        assert!(tx.is_empty());
        assert_eq!(tx.record(), &[0, 0]);
        assert_eq!(tx.record.capacity(), cap);
        tx.push_raw(100, &[9; 32]);
        tx.push_zeroed(200, 16);
        assert_eq!(tx.record(), &image[..]);
        assert_eq!(tx.record.capacity(), cap, "re-staging reuses the buffer");

        let mut w = TxWriter::new();
        w.write_raw(100, &[9; 32]);
        let cap = w.entries.capacity();
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.entries.capacity(), cap);
    }

    /// Flips every bit of a committed, still-pending record (both
    /// formats, flag byte included): recovery either replays whatever
    /// the record now says or rejects it with `CorruptJournal` — it
    /// never panics.
    #[test]
    fn recover_rejects_bit_flipped_records_without_panicking() {
        // A fresh journal holding a committed two-write record in either
        // format, stopped right after its flag write; returns the record
        // length past the flag.
        fn pending(sparse: bool) -> (Fram, Journal, usize) {
            let (mut fram, journal, a, b) = setup();
            // Two headers plus a u64 and a u32 payload; either format
            // adds a count word and the flag byte before the apply phase.
            let entries = 2 * ENTRY_HEADER + 8 + 4;
            let budget = entries + 2 + 1;
            let len = if sparse { 2 + entries } else { entries };
            let mut spent = 0;
            let mut stop = |n, _| {
                if spent + n > budget {
                    return Err(Interrupt::PowerFailure);
                }
                spent += n;
                Ok(())
            };
            let r = if sparse {
                let mut tx = SparseTx::new();
                tx.push(&a, 77u64);
                tx.push(&b, 88u32);
                journal.commit_sparse(&mut fram, &tx, &mut stop)
            } else {
                let mut tx = TxWriter::new();
                tx.write(&a, 77);
                tx.write(&b, 88);
                journal.commit(&mut fram, &tx, &mut stop)
            };
            assert_eq!(r, Err(Interrupt::PowerFailure));
            assert!(journal.is_pending(&fram));
            (fram, journal, len)
        }
        let mut faults = 0;
        for sparse in [false, true] {
            let len = pending(sparse).2;
            for byte in 0..ENTRIES_OFF + len {
                for bit in 0..8 {
                    let (mut fram, journal, _) = pending(sparse);
                    let at = journal.base + byte;
                    let flipped = fram.peek_raw(at, 1)[0] ^ (1 << bit);
                    fram.write_raw(at, &[flipped]);
                    match journal.recover(&mut fram, &mut no_fail) {
                        Ok(_) => {}
                        Err(Interrupt::Fault(Fault::CorruptJournal)) => faults += 1,
                        Err(e) => panic!("sparse={sparse} byte {byte} bit {bit}: {e}"),
                    }
                }
            }
        }
        assert!(faults > 0, "no flip was detected as corruption");
    }

    #[test]
    fn recover_faults_on_out_of_range_headers_before_applying() {
        let (mut fram, journal, a, _) = setup();
        let region = journal.base + ENTRIES_OFF;
        let cases: [(usize, u16); 3] = [
            (fram.capacity() - 2, 8),            // target past the end of FRAM
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
            fram.write_raw(journal.base + FLAG_OFF, &[FLAG_SPARSE]);
            assert_eq!(
                journal.recover(&mut fram, &mut no_fail),
                Err(Interrupt::Fault(Fault::CorruptJournal))
            );
            assert_eq!(fram.peek(&a), 1, "nothing of a corrupt record applies");
        }
    }
}
