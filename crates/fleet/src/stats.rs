//! Lock-free fleet aggregation: per-worker local statistics merged at
//! join time.
//!
//! [`FleetStats`] is deliberately integer-only. Merging shards must be
//! commutative and associative so the merged total is bit-identical
//! regardless of how many workers ran or which chunks each one stole —
//! floating-point accumulation is neither, so percentiles are carried
//! as fixed-bucket histograms and turned into numbers only at report
//! time. All counters use saturating addition, which (unlike wrapping
//! or checked addition) stays associative over unsigned integers:
//! `min(a + b + c, MAX)` parenthesises either way.

use crate::device::DeviceSample;

/// Reboot-count histogram buckets: 0, 1, 2, 3 exactly, then log₂
/// groups `4–7`, `8–15`, `16–31`, `32–63`, `≥64`.
pub const REBOOT_BUCKETS: usize = 9;

/// Energy histogram buckets: consumed energy in log₂ microjoule
/// groups, `< 1 µJ` up to `≥ 2ⁱ⁸ µJ` (~262 mJ — far above any run this
/// simulator produces).
pub const ENERGY_BUCKETS: usize = 20;

/// Aggregate statistics over a set of simulated devices.
///
/// Each worker thread accumulates its own `FleetStats` while it drains
/// device-index chunks; the shards are combined with [`FleetStats::merge`]
/// after the pool joins, so the hot path takes no locks and shares no
/// cache lines.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Devices simulated.
    pub devices: u64,
    /// Devices whose run completed within its limit.
    pub completed: u64,
    /// Devices that did not finish (time/reboot limit or fault).
    pub dnf: u64,
    /// Monitor events delivered across the fleet.
    pub events: u64,
    /// Power-failure reboots across the fleet.
    pub reboots: u64,
    /// Property violations across the fleet (all monitors).
    pub violations_total: u64,
    /// Violations per monitor index of the installed suite. Shards
    /// running the same suite have equal lengths; merging pads with
    /// zeros so heterogeneous fleets still aggregate.
    pub violations: Vec<u64>,
    /// Histogram of per-device reboot counts (see [`REBOOT_BUCKETS`]).
    pub reboot_hist: [u64; REBOOT_BUCKETS],
    /// Histogram of per-device consumed energy (see [`ENERGY_BUCKETS`]).
    pub energy_hist: [u64; ENERGY_BUCKETS],
    /// Total simulated time across the fleet, in microseconds.
    pub sim_micros: u64,
}

/// Bucket index for a per-device reboot count.
fn reboot_bucket(reboots: u64) -> usize {
    if reboots < 4 {
        reboots as usize
    } else {
        // 4–7 → 4, 8–15 → 5, …, capped at the ≥64 bucket.
        (2 + (63 - reboots.leading_zeros()) as usize).min(REBOOT_BUCKETS - 1)
    }
}

/// Bucket index for a per-device consumed energy in microjoules.
fn energy_bucket(micro_joules: u64) -> usize {
    if micro_joules == 0 {
        0
    } else {
        ((64 - micro_joules.leading_zeros()) as usize).min(ENERGY_BUCKETS - 1)
    }
}

impl FleetStats {
    /// Folds one finished device into this shard's totals.
    pub fn record(&mut self, s: &DeviceSample) {
        self.devices = self.devices.saturating_add(1);
        if s.completed {
            self.completed = self.completed.saturating_add(1);
        } else {
            self.dnf = self.dnf.saturating_add(1);
        }
        self.events = self.events.saturating_add(s.events);
        self.reboots = self.reboots.saturating_add(s.reboots);
        if self.violations.len() < s.violations.len() {
            self.violations.resize(s.violations.len(), 0);
        }
        for (i, v) in s.violations.iter().enumerate() {
            self.violations_total = self.violations_total.saturating_add(*v);
            self.violations[i] = self.violations[i].saturating_add(*v);
        }
        self.reboot_hist[reboot_bucket(s.reboots)] += 1;
        self.energy_hist[energy_bucket(s.consumed_micro_joules)] += 1;
        self.sim_micros = self.sim_micros.saturating_add(s.sim_micros);
    }

    /// Combines another shard into this one. Commutative and
    /// associative (all fields are saturating sums, the violation
    /// vector is padded to the longer of the two), so shards may merge
    /// in any order with a bit-identical result.
    pub fn merge(&mut self, other: &FleetStats) {
        self.devices = self.devices.saturating_add(other.devices);
        self.completed = self.completed.saturating_add(other.completed);
        self.dnf = self.dnf.saturating_add(other.dnf);
        self.events = self.events.saturating_add(other.events);
        self.reboots = self.reboots.saturating_add(other.reboots);
        self.violations_total = self.violations_total.saturating_add(other.violations_total);
        if self.violations.len() < other.violations.len() {
            self.violations.resize(other.violations.len(), 0);
        }
        for (i, v) in other.violations.iter().enumerate() {
            self.violations[i] = self.violations[i].saturating_add(*v);
        }
        for (a, b) in self.reboot_hist.iter_mut().zip(other.reboot_hist.iter()) {
            *a = a.saturating_add(*b);
        }
        for (a, b) in self.energy_hist.iter_mut().zip(other.energy_hist.iter()) {
            *a = a.saturating_add(*b);
        }
        self.sim_micros = self.sim_micros.saturating_add(other.sim_micros);
    }

    /// The `p`-quantile (`0 < p ≤ 1`) of per-device consumed energy, as
    /// the exclusive microjoule ceiling of the histogram bucket the
    /// quantile falls in. Returns `None` for an empty fleet.
    pub fn energy_quantile_ceiling_uj(&self, p: f64) -> Option<u64> {
        let total: u64 = self.energy_hist.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((p * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, n) in self.energy_hist.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(energy_bucket_ceiling_uj(i));
            }
        }
        unreachable!("cumulative histogram covers every rank");
    }
}

/// Exclusive upper bound of energy-histogram bucket `i`, in µJ.
fn energy_bucket_ceiling_uj(i: usize) -> u64 {
    1u64 << i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(
        completed: bool,
        events: u64,
        reboots: u64,
        uj: u64,
        violations: Vec<u64>,
    ) -> DeviceSample {
        DeviceSample {
            completed,
            events,
            reboots,
            consumed_micro_joules: uj,
            sim_micros: 1_000,
            violations,
        }
    }

    #[test]
    fn record_fills_buckets_and_counters() {
        let mut s = FleetStats::default();
        s.record(&sample(true, 10, 0, 0, vec![1, 2]));
        s.record(&sample(false, 5, 70, 900, vec![0, 1, 4]));
        assert_eq!(s.devices, 2);
        assert_eq!(s.completed, 1);
        assert_eq!(s.dnf, 1);
        assert_eq!(s.events, 15);
        assert_eq!(s.reboots, 70);
        assert_eq!(s.violations, vec![1, 3, 4]);
        assert_eq!(s.violations_total, 8);
        assert_eq!(s.reboot_hist[0], 1);
        assert_eq!(s.reboot_hist[REBOOT_BUCKETS - 1], 1);
        // 900 µJ lands in the 512..1024 bucket (index 10).
        assert_eq!(s.energy_hist[10], 1);
        assert_eq!(s.sim_micros, 2_000);
    }

    #[test]
    fn bucket_edges() {
        assert_eq!(reboot_bucket(0), 0);
        assert_eq!(reboot_bucket(3), 3);
        assert_eq!(reboot_bucket(4), 4);
        assert_eq!(reboot_bucket(7), 4);
        assert_eq!(reboot_bucket(8), 5);
        assert_eq!(reboot_bucket(63), 7);
        assert_eq!(reboot_bucket(64), 8);
        assert_eq!(reboot_bucket(u64::MAX), 8);
        assert_eq!(energy_bucket(0), 0);
        assert_eq!(energy_bucket(1), 1);
        assert_eq!(energy_bucket(2), 2);
        assert_eq!(energy_bucket(1023), 10);
        assert_eq!(energy_bucket(u64::MAX), ENERGY_BUCKETS - 1);
    }

    #[test]
    fn quantiles_walk_the_histogram() {
        let mut s = FleetStats::default();
        for uj in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 800] {
            s.record(&sample(true, 1, 0, uj, vec![]));
        }
        // 9 of 10 devices in bucket 1 (<2 µJ), one at 800 µJ.
        assert_eq!(s.energy_quantile_ceiling_uj(0.5), Some(2));
        assert_eq!(s.energy_quantile_ceiling_uj(0.9), Some(2));
        assert_eq!(s.energy_quantile_ceiling_uj(0.99), Some(1024));
        assert_eq!(FleetStats::default().energy_quantile_ceiling_uj(0.5), None);
    }

    #[test]
    fn merge_pads_violation_vectors() {
        let mut a = FleetStats {
            violations: vec![1],
            ..FleetStats::default()
        };
        let b = FleetStats {
            violations: vec![2, 3],
            ..FleetStats::default()
        };
        a.merge(&b);
        assert_eq!(a.violations, vec![3, 3]);
    }
}
