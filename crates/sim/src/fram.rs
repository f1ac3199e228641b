//! Byte-addressed FRAM and SRAM models with ownership accounting.
//!
//! The MSP430FR5994 couples 256 KB of ferroelectric RAM (nonvolatile,
//! byte-writable, cheap writes) with 4 KB of SRAM that is lost on every
//! power failure. The [`Fram`] arena models the former: a bump
//! allocator that records *who* owns each allocation (runtime, monitor,
//! application), which is exactly the accounting the paper's Table 2
//! reports, over a byte array that holds only the allocated prefix.
//!
//! Typed access goes through [`NvCell<T>`] handles and the [`NvData`]
//! encoding trait — explicit little-endian serialisation, so a "byte of
//! FRAM" in the simulator corresponds one-to-one to a byte on the real
//! part and memory numbers are exact rather than `size_of` guesses.

use core::fmt;
use core::marker::PhantomData;

use artemis_core::time::{SimDuration, SimInstant};

/// Which component owns a memory allocation (Table 2 columns).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MemOwner {
    /// The intermittent runtime (scheduler, task table, event variable).
    Runtime,
    /// Generated monitors (FSM state, variables, verdict buffers).
    Monitor,
    /// Application data (channels, task outputs).
    App,
    /// Simulator bookkeeping that exists on real hardware as registers.
    System,
}

impl MemOwner {
    /// All owners, for iteration in reports.
    pub const ALL: [MemOwner; 4] = [
        MemOwner::Runtime,
        MemOwner::Monitor,
        MemOwner::App,
        MemOwner::System,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            MemOwner::Runtime => "runtime",
            MemOwner::Monitor => "monitor",
            MemOwner::App => "app",
            MemOwner::System => "system",
        }
    }
}

/// Fixed-size little-endian encoding for values stored in FRAM.
///
/// Implementations must round-trip: `load(store(v)) == v`.
pub trait NvData: Sized {
    /// Encoded size in bytes.
    const SIZE: usize;

    /// Writes the encoding into `dst`, which is exactly `SIZE` bytes.
    fn store(&self, dst: &mut [u8]);

    /// Reads a value back from `src`, which is exactly `SIZE` bytes.
    fn load(src: &[u8]) -> Self;
}

macro_rules! nv_int {
    ($($t:ty),*) => {$(
        impl NvData for $t {
            const SIZE: usize = core::mem::size_of::<$t>();

            fn store(&self, dst: &mut [u8]) {
                dst.copy_from_slice(&self.to_le_bytes());
            }

            fn load(src: &[u8]) -> Self {
                let mut buf = [0u8; core::mem::size_of::<$t>()];
                buf.copy_from_slice(src);
                <$t>::from_le_bytes(buf)
            }
        }
    )*};
}

nv_int!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl NvData for bool {
    const SIZE: usize = 1;

    fn store(&self, dst: &mut [u8]) {
        dst[0] = u8::from(*self);
    }

    fn load(src: &[u8]) -> Self {
        src[0] != 0
    }
}

impl NvData for SimInstant {
    const SIZE: usize = 8;

    fn store(&self, dst: &mut [u8]) {
        self.as_micros().store(dst);
    }

    fn load(src: &[u8]) -> Self {
        SimInstant::from_micros(u64::load(src))
    }
}

impl NvData for SimDuration {
    const SIZE: usize = 8;

    fn store(&self, dst: &mut [u8]) {
        self.as_micros().store(dst);
    }

    fn load(src: &[u8]) -> Self {
        SimDuration::from_micros(u64::load(src))
    }
}

impl<T: NvData + Copy + Default, const N: usize> NvData for [T; N] {
    const SIZE: usize = T::SIZE * N;

    fn store(&self, dst: &mut [u8]) {
        for (i, item) in self.iter().enumerate() {
            item.store(&mut dst[i * T::SIZE..(i + 1) * T::SIZE]);
        }
    }

    fn load(src: &[u8]) -> Self {
        let mut out = [T::default(); N];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = T::load(&src[i * T::SIZE..(i + 1) * T::SIZE]);
        }
        out
    }
}

impl<A: NvData, B: NvData> NvData for (A, B) {
    const SIZE: usize = A::SIZE + B::SIZE;

    fn store(&self, dst: &mut [u8]) {
        self.0.store(&mut dst[..A::SIZE]);
        self.1.store(&mut dst[A::SIZE..]);
    }

    fn load(src: &[u8]) -> Self {
        (A::load(&src[..A::SIZE]), B::load(&src[A::SIZE..]))
    }
}

/// A typed handle to an FRAM allocation.
///
/// Handles are plain `(address, type)` pairs — cheap to copy and safe to
/// keep across power failures, since the allocation they name is
/// nonvolatile.
pub struct NvCell<T: NvData> {
    addr: usize,
    _marker: PhantomData<fn() -> T>,
}

// Manual impls: `derive` would bound on `T: Clone/Copy`, which is not
// required for a handle.
impl<T: NvData> Clone for NvCell<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: NvData> Copy for NvCell<T> {}

impl<T: NvData> fmt::Debug for NvCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NvCell@{:#06x}", self.addr)
    }
}

impl<T: NvData> NvCell<T> {
    /// The cell's FRAM address.
    pub fn addr(&self) -> usize {
        self.addr
    }

    /// The cell's size in bytes.
    pub const fn size(&self) -> usize {
        T::SIZE
    }
}

/// One recorded allocation, for memory reports.
#[derive(Clone, Debug)]
pub struct AllocRecord {
    /// Descriptive label, e.g. `"monitor.vars"`.
    pub label: String,
    /// Owning component.
    pub owner: MemOwner,
    /// Start address.
    pub addr: usize,
    /// Size in bytes.
    pub size: usize,
}

/// Errors from FRAM allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfFram {
    /// Bytes requested.
    pub requested: usize,
    /// Bytes remaining.
    pub available: usize,
}

impl fmt::Display for OutOfFram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of FRAM: requested {} bytes, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for OutOfFram {}

/// The nonvolatile memory arena.
///
/// Only the allocated prefix is stored: each allocation zero-extends
/// the byte array, so building a device costs what it allocates (a few
/// KB), not the part's whole 256 KB. Every access must land inside an
/// allocation; an address past [`Fram::used`] is a programming error
/// and panics, like one past the capacity.
///
/// # Examples
///
/// ```
/// use intermittent_sim::fram::{Fram, MemOwner};
///
/// let mut fram = Fram::new(1024);
/// let cell = fram.alloc::<u32>(7, MemOwner::Runtime, "counter").unwrap();
/// assert_eq!(fram.read(&cell), 7);
/// fram.write(&cell, 8);
/// assert_eq!(fram.read(&cell), 8);
/// assert_eq!(fram.used_by(MemOwner::Runtime), 4);
/// ```
pub struct Fram {
    /// The allocated prefix, `used()` bytes long.
    bytes: Vec<u8>,
    capacity: usize,
    allocs: Vec<AllocRecord>,
    /// Access counters since construction (`peek` excluded).
    traffic: FramTraffic,
}

/// FRAM access counters: operations (calls, regardless of width) and
/// bytes in each direction. On the real part each operation is a bus
/// transaction, so op counts — not byte counts — are what batching
/// optimisations reduce; byte counts are the wear/energy side.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FramTraffic {
    /// Read operations.
    pub read_ops: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Write operations.
    pub write_ops: u64,
    /// Bytes written.
    pub write_bytes: u64,
}

impl FramTraffic {
    /// Counts one read of `bytes`.
    pub(crate) fn read(&mut self, bytes: usize) {
        self.read_ops += 1;
        self.read_bytes += bytes as u64;
    }

    /// Counts one write of `bytes`.
    pub(crate) fn write(&mut self, bytes: usize) {
        self.write_ops += 1;
        self.write_bytes += bytes as u64;
    }
}

impl core::ops::Add for FramTraffic {
    type Output = FramTraffic;

    fn add(self, o: FramTraffic) -> FramTraffic {
        FramTraffic {
            read_ops: self.read_ops + o.read_ops,
            read_bytes: self.read_bytes + o.read_bytes,
            write_ops: self.write_ops + o.write_ops,
            write_bytes: self.write_bytes + o.write_bytes,
        }
    }
}

impl core::ops::Sub for FramTraffic {
    type Output = FramTraffic;

    fn sub(self, o: FramTraffic) -> FramTraffic {
        FramTraffic {
            read_ops: self.read_ops - o.read_ops,
            read_bytes: self.read_bytes - o.read_bytes,
            write_ops: self.write_ops - o.write_ops,
            write_bytes: self.write_bytes - o.write_bytes,
        }
    }
}

impl Fram {
    /// Creates an arena of `capacity` bytes; every allocation starts
    /// zeroed.
    pub fn new(capacity: usize) -> Self {
        Fram {
            bytes: Vec::new(),
            capacity,
            allocs: Vec::new(),
            traffic: FramTraffic::default(),
        }
    }

    /// The arena capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes allocated so far.
    pub fn used(&self) -> usize {
        self.bytes.len()
    }

    /// Allocates a typed cell with an initial value.
    pub fn alloc<T: NvData>(
        &mut self,
        init: T,
        owner: MemOwner,
        label: &str,
    ) -> Result<NvCell<T>, OutOfFram> {
        let addr = self.alloc_raw(T::SIZE, owner, label)?;
        let cell = NvCell {
            addr,
            _marker: PhantomData,
        };
        self.write(&cell, init);
        Ok(cell)
    }

    /// Allocates `size` raw bytes; returns the start address.
    pub fn alloc_raw(
        &mut self,
        size: usize,
        owner: MemOwner,
        label: &str,
    ) -> Result<usize, OutOfFram> {
        let addr = self.bytes.len();
        let available = self.capacity - addr;
        if size > available {
            return Err(OutOfFram {
                requested: size,
                available,
            });
        }
        self.bytes.resize(addr + size, 0);
        self.allocs.push(AllocRecord {
            label: label.to_string(),
            owner,
            addr,
            size,
        });
        Ok(addr)
    }

    /// Reads a typed cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell does not belong to this arena (address out of
    /// range), which is a programming error.
    pub fn read<T: NvData>(&mut self, cell: &NvCell<T>) -> T {
        self.traffic.read(T::SIZE);
        T::load(&self.bytes[cell.addr..cell.addr + T::SIZE])
    }

    /// Reads without bumping access counters (for assertions/tests).
    pub fn peek<T: NvData>(&self, cell: &NvCell<T>) -> T {
        T::load(&self.bytes[cell.addr..cell.addr + T::SIZE])
    }

    /// Writes a typed cell.
    pub fn write<T: NvData>(&mut self, cell: &NvCell<T>, value: T) {
        self.traffic.write(T::SIZE);
        value.store(&mut self.bytes[cell.addr..cell.addr + T::SIZE]);
    }

    /// Reads `len` raw bytes at `addr`.
    pub fn read_raw(&mut self, addr: usize, len: usize) -> &[u8] {
        self.traffic.read(len);
        &self.bytes[addr..addr + len]
    }

    /// Reads raw bytes without bumping access counters (for tests).
    pub fn peek_raw(&self, addr: usize, len: usize) -> &[u8] {
        &self.bytes[addr..addr + len]
    }

    /// Writes raw bytes at `addr`.
    pub fn write_raw(&mut self, addr: usize, data: &[u8]) {
        self.traffic.write(data.len());
        self.bytes[addr..addr + data.len()].copy_from_slice(data);
    }

    /// Total bytes written since construction.
    pub fn bytes_written(&self) -> u64 {
        self.traffic.write_bytes
    }

    /// Total bytes read since construction.
    pub fn bytes_read(&self) -> u64 {
        self.traffic.read_bytes
    }

    /// Number of write operations since construction (`peek` excluded).
    pub fn write_ops(&self) -> u64 {
        self.traffic.write_ops
    }

    /// Number of read operations since construction (`peek` excluded).
    pub fn read_ops(&self) -> u64 {
        self.traffic.read_ops
    }

    /// Total bytes written since construction — [`Fram::bytes_written`]
    /// under the name the benchmarks pair with [`Fram::write_ops`].
    pub fn write_bytes(&self) -> u64 {
        self.traffic.write_bytes
    }

    /// Total bytes read since construction — [`Fram::bytes_read`]
    /// under the name the benchmarks pair with [`Fram::read_ops`].
    pub fn read_bytes(&self) -> u64 {
        self.traffic.read_bytes
    }

    /// All four access counters at once.
    pub fn traffic(&self) -> FramTraffic {
        self.traffic
    }

    /// All allocation records, in allocation order.
    pub fn allocations(&self) -> &[AllocRecord] {
        &self.allocs
    }

    /// Bytes allocated by one owner.
    pub fn used_by(&self, owner: MemOwner) -> usize {
        self.allocs
            .iter()
            .filter(|a| a.owner == owner)
            .map(|a| a.size)
            .sum()
    }
}

impl fmt::Debug for Fram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fram")
            .field("capacity", &self.capacity)
            .field("used", &self.bytes.len())
            .field("allocations", &self.allocs.len())
            .finish()
    }
}

/// The volatile SRAM model.
///
/// Simulated runtimes keep their working state in ordinary Rust values
/// (re-created on each boot), so SRAM here is pure *accounting*: each
/// component registers how many bytes of volatile state it would occupy
/// on the real part, and the device clears a generation counter on every
/// power failure so tests can assert that nothing volatile survived.
#[derive(Clone, Debug, Default)]
pub struct Sram {
    registered: Vec<(MemOwner, String, usize)>,
    /// Bumps on every power failure; volatile handles embed the
    /// generation they were created in.
    generation: u64,
}

impl Sram {
    /// Creates an empty SRAM model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `size` bytes of volatile usage for reports.
    pub fn register(&mut self, owner: MemOwner, label: &str, size: usize) {
        self.registered.push((owner, label.to_string(), size));
    }

    /// Bytes registered by one owner.
    pub fn used_by(&self, owner: MemOwner) -> usize {
        self.registered
            .iter()
            .filter(|(o, _, _)| *o == owner)
            .map(|(_, _, s)| *s)
            .sum()
    }

    /// Total registered bytes.
    pub fn used(&self) -> usize {
        self.registered.iter().map(|(_, _, s)| *s).sum()
    }

    /// Current power-cycle generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Invalidates all volatile state (power failure).
    pub fn clear(&mut self) {
        self.generation += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        let mut fram = Fram::new(256);
        let a = fram
            .alloc::<u64>(0xDEAD_BEEF_0BAD_F00D, MemOwner::App, "a")
            .unwrap();
        let b = fram.alloc::<i32>(-7, MemOwner::App, "b").unwrap();
        let c = fram.alloc::<f64>(36.6, MemOwner::App, "c").unwrap();
        let d = fram.alloc::<bool>(true, MemOwner::App, "d").unwrap();
        assert_eq!(fram.read(&a), 0xDEAD_BEEF_0BAD_F00D);
        assert_eq!(fram.read(&b), -7);
        assert_eq!(fram.read(&c), 36.6);
        assert!(fram.read(&d));
    }

    #[test]
    fn time_types_round_trip() {
        let mut fram = Fram::new(64);
        let t = fram
            .alloc(SimInstant::from_micros(123_456), MemOwner::Runtime, "t")
            .unwrap();
        let d = fram
            .alloc(SimDuration::from_millis(5), MemOwner::Runtime, "d")
            .unwrap();
        assert_eq!(fram.read(&t), SimInstant::from_micros(123_456));
        assert_eq!(fram.read(&d), SimDuration::from_millis(5));
    }

    #[test]
    fn arrays_and_tuples_round_trip() {
        let mut fram = Fram::new(256);
        let arr = fram.alloc([1u32, 2, 3, 4], MemOwner::App, "arr").unwrap();
        assert_eq!(fram.read(&arr), [1, 2, 3, 4]);
        let pair = fram.alloc((42u64, true), MemOwner::App, "pair").unwrap();
        assert_eq!(fram.read(&pair), (42, true));
        assert_eq!(pair.size(), 9);
    }

    #[test]
    fn allocation_accounting_by_owner() {
        let mut fram = Fram::new(128);
        fram.alloc::<u64>(0, MemOwner::Runtime, "r1").unwrap();
        fram.alloc::<u32>(0, MemOwner::Monitor, "m1").unwrap();
        fram.alloc::<u32>(0, MemOwner::Monitor, "m2").unwrap();
        assert_eq!(fram.used_by(MemOwner::Runtime), 8);
        assert_eq!(fram.used_by(MemOwner::Monitor), 8);
        assert_eq!(fram.used_by(MemOwner::App), 0);
        assert_eq!(fram.used(), 16);
        assert_eq!(fram.allocations().len(), 3);
    }

    #[test]
    fn out_of_fram_is_reported() {
        let mut fram = Fram::new(4);
        let err = fram.alloc::<u64>(0, MemOwner::App, "big").unwrap_err();
        assert_eq!(err.requested, 8);
        assert_eq!(err.available, 4);
        assert!(err.to_string().contains("out of FRAM"));
    }

    #[test]
    fn write_and_read_counters_accumulate() {
        let mut fram = Fram::new(64);
        let a = fram.alloc::<u32>(0, MemOwner::App, "a").unwrap(); // init write: 4
        fram.write(&a, 5); // +4
        let _ = fram.read(&a); // read 4
        assert_eq!(fram.bytes_written(), 8);
        assert_eq!(fram.bytes_read(), 4);
        assert_eq!(fram.write_ops(), 2);
        assert_eq!(fram.read_ops(), 1);
        // `peek` must not count.
        let _ = fram.peek(&a);
        assert_eq!(fram.bytes_read(), 4);
        assert_eq!(fram.read_ops(), 1);
    }

    #[test]
    fn op_counters_count_calls_not_bytes() {
        let mut fram = Fram::new(64);
        let addr = fram.alloc_raw(32, MemOwner::App, "blk").unwrap();
        fram.write_raw(addr, &[0u8; 32]); // one op, 32 bytes
        let _ = fram.read_raw(addr, 32); // one op, 32 bytes
        assert_eq!(fram.write_ops(), 1);
        assert_eq!(fram.read_ops(), 1);
        assert_eq!(fram.bytes_written(), 32);
        assert_eq!(fram.bytes_read(), 32);
        let _ = fram.peek_raw(addr, 32);
        assert_eq!(fram.read_ops(), 1);
    }

    #[test]
    fn sram_generation_bumps_on_clear() {
        let mut sram = Sram::new();
        sram.register(MemOwner::Runtime, "loop state", 2);
        assert_eq!(sram.used_by(MemOwner::Runtime), 2);
        let g = sram.generation();
        sram.clear();
        assert_eq!(sram.generation(), g + 1);
    }

    #[test]
    fn raw_access_round_trips() {
        let mut fram = Fram::new(32);
        let addr = fram.alloc_raw(4, MemOwner::System, "raw").unwrap();
        fram.write_raw(addr, &[1, 2, 3, 4]);
        assert_eq!(fram.read_raw(addr, 4), &[1, 2, 3, 4]);
    }
}
