//! Chain-style nonvolatile channels for inter-task data.
//!
//! Task-based intermittent systems pass data between tasks through
//! nonvolatile channels (Chain's core abstraction, which the paper's
//! programming model inherits). A [`Channel`] here is a fixed-capacity
//! ring of `f64` samples in FRAM. Writes are *staged* into the task's
//! write-set and only reach FRAM at task commit, preserving the
//! all-or-nothing task semantics: a power failure mid-task can never
//! leave a half-appended sample.
//!
//! # Layout and traffic
//!
//! Two allocations, in this order: the `[f64; 32]` slot array, then a
//! 4-byte cursor word packing `(len: u16, head: u16)`. The ring holds
//! `len` samples starting at slot `head`, oldest first, wrapping at the
//! end of the array. A cursor with `head = 0` is exactly the plain
//! `len: u32` of a ring that never wrapped.
//!
//! Traffic is slot-granular — channel payload scales with the samples
//! a task touches, not with the capacity (Alpaca's "commit only what
//! the task wrote"):
//!
//! - [`Channel::push`] reads the cursor through the write-set and
//!   stages two sub-writes: the 8-byte target slot (`head + len`, or
//!   `head` when the ring is full and the oldest sample is dropped) and
//!   the updated cursor. The slot array is never read.
//! - [`Channel::samples`] reads the cursor, then only the occupied
//!   slots: one FRAM read, or two when the ring wraps —
//!   `8·len + 4` bytes in all. Staged slot writes are laid over them
//!   ([`Device::tx_read_raw`]), so a task sees its own pushes. The
//!   samples come back inline ([`Samples`]), so a task body that reads
//!   a channel allocates nothing; [`Channel::read_all`] copies them
//!   into a `Vec` for inspection.
//! - [`Channel::clear`] stages one cursor word.

pub use artemis_core::app::CHANNEL_CAPACITY;
use core::fmt;
use core::ops::Deref;

use intermittent_sim::device::{Device, Interrupt, MemOwner};
use intermittent_sim::fram::NvCell;
use intermittent_sim::journal::TxWriter;

/// Bytes per sample slot.
const SLOT: usize = 8;

/// A channel's samples, oldest first, held inline — at most
/// [`CHANNEL_CAPACITY`] of them; dereferences to a slice.
#[derive(Clone, Copy)]
pub struct Samples {
    values: [f64; CHANNEL_CAPACITY],
    len: usize,
}

impl Deref for Samples {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        &self.values[..self.len]
    }
}

impl fmt::Debug for Samples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A nonvolatile sample channel.
#[derive(Clone, Copy, Debug)]
pub struct Channel {
    values: NvCell<[f64; CHANNEL_CAPACITY]>,
    /// `(len, head)`: occupied slots, and the slot of the oldest one.
    cursor: NvCell<(u16, u16)>,
}

impl Channel {
    /// Allocates an empty channel in FRAM.
    pub fn new(dev: &mut Device, owner: MemOwner, label: &str) -> Result<Channel, Interrupt> {
        Ok(Channel {
            values: dev.nv_alloc([0.0; CHANNEL_CAPACITY], owner, format!("{label}.values"))?,
            cursor: dev.nv_alloc((0u16, 0u16), owner, format!("{label}.cursor"))?,
        })
    }

    /// The cursor as `(len, head)`, each clamped into the ring so a
    /// corrupt image can never index past the slot array.
    fn cursor(&self, dev: &mut Device, tx: &TxWriter) -> Result<(usize, usize), Interrupt> {
        let (len, head) = dev.tx_read(tx, &self.cursor)?;
        Ok((
            (len as usize).min(CHANNEL_CAPACITY),
            head as usize % CHANNEL_CAPACITY,
        ))
    }

    fn slot_addr(&self, slot: usize) -> usize {
        self.values.addr() + slot * SLOT
    }

    /// Appends a sample through the write-set; oldest samples are
    /// dropped when the channel is full (ring behaviour).
    pub fn push(&self, dev: &mut Device, tx: &mut TxWriter, value: f64) -> Result<(), Interrupt> {
        let (len, head) = self.cursor(dev, tx)?;
        let (slot, next) = if len < CHANNEL_CAPACITY {
            ((head + len) % CHANNEL_CAPACITY, (len + 1, head))
        } else {
            (head, (len, (head + 1) % CHANNEL_CAPACITY))
        };
        tx.write_raw(self.slot_addr(slot), &value.to_le_bytes());
        tx.write(&self.cursor, (next.0 as u16, next.1 as u16));
        Ok(())
    }

    /// Reads all committed-or-staged samples, oldest first.
    pub fn samples(&self, dev: &mut Device, tx: &TxWriter) -> Result<Samples, Interrupt> {
        let (len, head) = self.cursor(dev, tx)?;
        let mut bytes = [0u8; CHANNEL_CAPACITY * SLOT];
        let first = len.min(CHANNEL_CAPACITY - head);
        if first > 0 {
            dev.tx_read_raw(tx, self.slot_addr(head), &mut bytes[..first * SLOT])?;
        }
        if first < len {
            dev.tx_read_raw(tx, self.slot_addr(0), &mut bytes[first * SLOT..len * SLOT])?;
        }
        let mut values = [0.0; CHANNEL_CAPACITY];
        for (v, b) in values
            .iter_mut()
            .zip(bytes[..len * SLOT].chunks_exact(SLOT))
        {
            *v = f64::from_le_bytes(b.try_into().expect("8-byte chunk"));
        }
        Ok(Samples { values, len })
    }

    /// [`Channel::samples`], copied into a `Vec`.
    pub fn read_all(&self, dev: &mut Device, tx: &TxWriter) -> Result<Vec<f64>, Interrupt> {
        Ok(self.samples(dev, tx)?.to_vec())
    }

    /// Number of samples (committed or staged).
    pub fn len(&self, dev: &mut Device, tx: &TxWriter) -> Result<usize, Interrupt> {
        Ok(self.cursor(dev, tx)?.0)
    }

    /// Returns `true` when no samples are stored.
    pub fn is_empty(&self, dev: &mut Device, tx: &TxWriter) -> Result<bool, Interrupt> {
        Ok(self.len(dev, tx)? == 0)
    }

    /// Stages a clear (consumption of all samples).
    pub fn clear(&self, tx: &mut TxWriter) {
        tx.write(&self.cursor, (0u16, 0u16));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intermittent_sim::device::DeviceBuilder;
    use intermittent_sim::fram::MemOwner;
    use intermittent_sim::journal::Journal;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    fn setup() -> (Device, Channel, Journal) {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let ch = Channel::new(&mut dev, MemOwner::App, "temps").unwrap();
        let journal = dev.make_journal(1024, MemOwner::Runtime).unwrap();
        (dev, ch, journal)
    }

    #[test]
    fn staged_pushes_are_invisible_until_commit() {
        let (mut dev, ch, journal) = setup();
        let mut tx = TxWriter::new();
        ch.push(&mut dev, &mut tx, 1.5).unwrap();
        ch.push(&mut dev, &mut tx, 2.5).unwrap();
        // Read-your-writes inside the transaction…
        assert_eq!(ch.read_all(&mut dev, &tx).unwrap(), vec![1.5, 2.5]);
        // …but a fresh reader sees nothing yet.
        let fresh = TxWriter::new();
        assert!(ch.is_empty(&mut dev, &fresh).unwrap());

        dev.commit(&journal, &tx).unwrap();
        assert_eq!(ch.read_all(&mut dev, &fresh).unwrap(), vec![1.5, 2.5]);
    }

    #[test]
    fn ring_overflow_drops_oldest() {
        let (mut dev, ch, journal) = setup();
        let mut tx = TxWriter::new();
        for i in 0..(CHANNEL_CAPACITY + 3) {
            ch.push(&mut dev, &mut tx, i as f64).unwrap();
        }
        dev.commit(&journal, &tx).unwrap();
        let all = ch.read_all(&mut dev, &TxWriter::new()).unwrap();
        assert_eq!(all.len(), CHANNEL_CAPACITY);
        assert_eq!(all[0], 3.0, "oldest three dropped");
        assert_eq!(*all.last().unwrap(), (CHANNEL_CAPACITY + 2) as f64);
    }

    #[test]
    fn clear_consumes_samples() {
        let (mut dev, ch, journal) = setup();
        let mut tx = TxWriter::new();
        ch.push(&mut dev, &mut tx, 9.0).unwrap();
        dev.commit(&journal, &tx).unwrap();

        let mut tx = TxWriter::new();
        ch.clear(&mut tx);
        assert!(ch.is_empty(&mut dev, &tx).unwrap());
        dev.commit(&journal, &tx).unwrap();
        assert!(ch.is_empty(&mut dev, &TxWriter::new()).unwrap());
    }

    #[test]
    fn abandoned_tx_leaves_channel_untouched() {
        let (mut dev, ch, _journal) = setup();
        let mut tx = TxWriter::new();
        ch.push(&mut dev, &mut tx, 7.0).unwrap();
        drop(tx); // power failure before commit
        assert!(ch.is_empty(&mut dev, &TxWriter::new()).unwrap());
    }

    /// Commits `n` pushes of `0.0, 1.0, …` in one write-set.
    fn fill(dev: &mut Device, ch: &Channel, journal: &Journal, n: usize) {
        let mut tx = TxWriter::new();
        for i in 0..n {
            ch.push(dev, &mut tx, i as f64).unwrap();
        }
        dev.commit(journal, &tx).unwrap();
    }

    /// One push reads only the 4-byte cursor and stages one 8-byte slot
    /// plus the cursor — 26 record bytes — whether it appends or, on a
    /// full ring, overwrites the oldest slot. Its commit is the
    /// journal's `k + 3` writes for those two sub-writes. Staging the
    /// 256-byte slot array instead would read 260 B and stage a 274-byte
    /// record.
    #[test]
    fn push_reads_the_cursor_and_stages_one_slot() {
        for committed in [0, 5, CHANNEL_CAPACITY, CHANNEL_CAPACITY + 7] {
            let (mut dev, ch, journal) = setup();
            fill(&mut dev, &ch, &journal, committed);
            let before = dev.fram().traffic();
            let mut tx = TxWriter::new();
            ch.push(&mut dev, &mut tx, 42.0).unwrap();
            let read = dev.fram().traffic() - before;
            assert_eq!((read.read_ops, read.read_bytes), (1, 4), "{committed}");
            assert_eq!((read.write_ops, read.write_bytes), (0, 0), "{committed}");
            assert_eq!(tx.len(), 2, "{committed}");
            assert_eq!(tx.record_bytes(), 2 + (6 + 8) + (6 + 4), "{committed}");

            let before = dev.fram().traffic();
            dev.commit(&journal, &tx).unwrap();
            let wrote = dev.fram().traffic() - before;
            assert_eq!((wrote.read_ops, wrote.write_ops), (0, 2 + 3));
            assert_eq!(wrote.write_bytes, 26 + 1 + 8 + 4 + 1);
            let all = ch.read_all(&mut dev, &TxWriter::new()).unwrap();
            assert_eq!(all.last(), Some(&42.0), "{committed}");
        }
    }

    /// `read_all` reads the cursor, then the occupied slots as one run,
    /// or two once the ring has wrapped: `8·len + 4` bytes, at most
    /// three reads, never the free slots.
    #[test]
    fn read_all_reads_the_cursor_and_at_most_two_slot_runs() {
        let cases = [
            (0, 0, 1),
            (1, 1, 2),
            (17, 17, 2),
            (CHANNEL_CAPACITY, CHANNEL_CAPACITY, 2),
            (CHANNEL_CAPACITY + 5, CHANNEL_CAPACITY, 3),
        ];
        for (pushed, len, ops) in cases {
            let (mut dev, ch, journal) = setup();
            fill(&mut dev, &ch, &journal, pushed);
            let before = dev.fram().traffic();
            let all = ch.read_all(&mut dev, &TxWriter::new()).unwrap();
            let read = dev.fram().traffic() - before;
            let expected: Vec<f64> = (pushed - len..pushed).map(|i| i as f64).collect();
            assert_eq!(all, expected, "{pushed} pushes");
            assert_eq!(read.read_ops, ops, "{pushed} pushes");
            assert_eq!(read.read_bytes, 8 * len as u64 + 4, "{pushed} pushes");
        }
    }

    /// A wrapped ring's staged pushes are visible to `read_all` in the
    /// same write-set, across the wrap point.
    #[test]
    fn staged_pushes_overlay_a_wrapped_ring() {
        let (mut dev, ch, journal) = setup();
        fill(&mut dev, &ch, &journal, CHANNEL_CAPACITY + 30);
        let mut tx = TxWriter::new();
        for v in [100.0, 101.0, 102.0, 103.0] {
            ch.push(&mut dev, &mut tx, v).unwrap();
        }
        let all = ch.read_all(&mut dev, &tx).unwrap();
        assert_eq!(all.len(), CHANNEL_CAPACITY);
        assert_eq!(all[0], 34.0);
        assert_eq!(&all[CHANNEL_CAPACITY - 4..], &[100.0, 101.0, 102.0, 103.0]);
        dev.commit(&journal, &tx).unwrap();
        assert_eq!(ch.read_all(&mut dev, &TxWriter::new()).unwrap(), all);
    }

    /// One step of the model-based test below.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Push(f64),
        Consume,
        ReadAll,
        Commit,
        /// Abandon the write-set, as a power failure before commit does.
        Drop,
    }

    fn op() -> impl Strategy<Value = Op> {
        // Consumes are rare enough that most sequences wrap the ring.
        (0u8..64, 0u16..1_000).prop_map(|(k, v)| match k {
            0..=39 => Op::Push(f64::from(v)),
            40 => Op::Consume,
            41..=49 => Op::ReadAll,
            50..=59 => Op::Commit,
            _ => Op::Drop,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

        /// The channel against a `VecDeque` model: pushes drop the
        /// oldest sample past the capacity, consume empties, a commit
        /// publishes the write-set's view and a dropped write-set
        /// leaves the committed one. Random sequences wrap the ring and
        /// stage many pushes per write-set.
        #[test]
        fn channel_matches_a_deque_model(ops in proptest::collection::vec(op(), 1..300)) {
            let (mut dev, ch, journal) = setup();
            let mut committed: VecDeque<f64> = VecDeque::new();
            let mut staged = committed.clone();
            let mut tx = TxWriter::new();
            for op in ops {
                match op {
                    Op::Push(v) => {
                        ch.push(&mut dev, &mut tx, v).unwrap();
                        staged.push_back(v);
                        if staged.len() > CHANNEL_CAPACITY {
                            staged.pop_front();
                        }
                    }
                    Op::Consume => {
                        ch.clear(&mut tx);
                        staged.clear();
                    }
                    Op::ReadAll => {
                        let all = ch.read_all(&mut dev, &tx).unwrap();
                        prop_assert_eq!(all, Vec::from(staged.clone()));
                        prop_assert_eq!(ch.len(&mut dev, &tx).unwrap(), staged.len());
                    }
                    Op::Commit => {
                        dev.commit(&journal, &tx).unwrap();
                        tx = TxWriter::new();
                        committed = staged.clone();
                    }
                    Op::Drop => {
                        tx = TxWriter::new();
                        staged = committed.clone();
                    }
                }
                let fresh = ch.read_all(&mut dev, &TxWriter::new()).unwrap();
                prop_assert_eq!(fresh, Vec::from(committed.clone()));
            }
        }
    }
}
