//! Fleet-scale sharded simulation: drive very large numbers of
//! self-contained simulated devices across OS threads, deterministically.
//!
//! The single-device hot path is no longer the bottleneck (12 FRAM
//! ops/event on the sparse traffic workload); serving "heavy traffic
//! from millions of users" now means running *many* devices at host
//! speed. Intermittent workloads are embarrassingly parallel across
//! devices — each device's FRAM image, journal, capacitor, harvester
//! and clock are fully self-contained — so the fleet layer exploits
//! exactly that structure:
//!
//! - **Device ownership.** A [`FleetDevice`] owns a complete device +
//!   installed runtime and is `Send`; workers receive devices by move,
//!   never by sharing. Compile-time assertions in `tests/send.rs` keep
//!   an accidental `Rc`/raw-pointer regression from reintroducing
//!   coupling.
//! - **Seed derivation.** Device `i` of a fleet seeded with `master`
//!   draws every random decision from the stream seed
//!   [`rand::seed_stream`]`(master, i)` — a SplitMix64-style splitter —
//!   so its entire simulation is a pure function of `(master, i)`.
//! - **Work stealing.** Workers claim contiguous device-index ranges
//!   from one shared atomic cursor ([`FleetConfig::chunk`] indices per
//!   claim): lock-free, cache-friendly, and naturally balancing when
//!   some devices simulate for longer than others.
//! - **Lock-free aggregation.** Each worker folds its devices into a
//!   private [`FleetStats`]; shards merge only at join time with the
//!   commutative, associative [`FleetStats::merge`]. No mutex, no
//!   atomic contention on the hot path — and because every field is an
//!   integer sum or fixed-bucket histogram, the merged total is
//!   bit-identical for every worker count and every scheduling order.

mod device;
mod stats;

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

pub use device::{DeviceSample, FleetDevice};
pub use stats::{FleetStats, ENERGY_BUCKETS, REBOOT_BUCKETS};

/// How a fleet run is sharded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FleetConfig {
    /// Number of devices to simulate (indices `0..devices`).
    pub devices: u64,
    /// Worker threads (clamped to ≥ 1).
    pub workers: usize,
    /// Fleet seed; device `i` derives its stream via
    /// [`rand::seed_stream`]`(master_seed, i)`.
    pub master_seed: u64,
    /// Device indices claimed per cursor advance. Large enough to keep
    /// the shared cursor cold, small enough to balance tail latency.
    pub chunk: u64,
}

impl FleetConfig {
    /// A config with the default work-stealing grain (64 devices).
    pub fn new(devices: u64, workers: usize, master_seed: u64) -> Self {
        FleetConfig {
            devices,
            workers,
            master_seed,
            chunk: 64,
        }
    }
}

/// Builds, runs and aggregates a whole fleet.
///
/// `factory(index, stream_seed)` must construct device `index` from its
/// derived stream seed alone (no ambient state), which is what makes
/// the merged result independent of thread count. The factory runs on
/// worker threads, hence `Sync`.
pub fn run_fleet<F>(cfg: &FleetConfig, factory: F) -> FleetStats
where
    F: Fn(u64, u64) -> FleetDevice + Sync,
{
    let mut total = FleetStats::default();
    for shard in run_shards(cfg, &factory) {
        total.merge(&shard);
    }
    total
}

/// [`run_fleet`], but returning each worker's local shard unmerged —
/// for tests that pin merge-order independence and for reports on
/// shard balance.
pub fn run_shards<F>(cfg: &FleetConfig, factory: &F) -> Vec<FleetStats>
where
    F: Fn(u64, u64) -> FleetDevice + Sync,
{
    let n = cfg.devices;
    let chunk = cfg.chunk.max(1);
    let workers = cfg.workers.max(1);
    let cursor = AtomicU64::new(0);
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut local = FleetStats::default();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        let end = start.saturating_add(chunk).min(n);
                        for index in start..end {
                            let seed = rand::seed_stream(cfg.master_seed, index);
                            local.record(&factory(index, seed).run());
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fleet worker panicked"))
            .collect()
    })
}
