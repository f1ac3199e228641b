//! Energy as an exact integer quantity.
//!
//! Energies are stored in **picojoules** so that per-byte FRAM costs
//! (fractions of a nanojoule) and whole-capacitor budgets (millijoules)
//! share one integer representation without rounding. A `u64` of
//! picojoules covers ~1.8·10⁷ J — twelve orders of magnitude above any
//! capacitor this simulator models — so saturating arithmetic never
//! triggers in practice but keeps the type total.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Sub, SubAssign};

use artemis_core::time::SimDuration;

/// An amount of energy, stored as whole picojoules.
///
/// # Examples
///
/// ```
/// use intermittent_sim::Energy;
///
/// let e = Energy::from_micro_joules(2) + Energy::from_nano_joules(500);
/// assert_eq!(e.as_nano_joules(), 2_500);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Energy(u64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0);

    /// Creates an energy from picojoules.
    pub const fn from_pico_joules(pj: u64) -> Self {
        Energy(pj)
    }

    /// Creates an energy from nanojoules (saturating).
    pub const fn from_nano_joules(nj: u64) -> Self {
        Energy(nj.saturating_mul(1_000))
    }

    /// Creates an energy from microjoules (saturating).
    pub const fn from_micro_joules(uj: u64) -> Self {
        Energy(uj.saturating_mul(1_000_000))
    }

    /// Creates an energy from millijoules (saturating).
    pub const fn from_milli_joules(mj: u64) -> Self {
        Energy(mj.saturating_mul(1_000_000_000))
    }

    /// Creates an energy from joules expressed as a float.
    ///
    /// Negative or non-finite inputs clamp to zero; used when deriving
    /// budgets from the ½·C·V² formula.
    pub fn from_joules_f64(j: f64) -> Self {
        if !j.is_finite() || j <= 0.0 {
            return Energy::ZERO;
        }
        Energy((j * 1e12).round() as u64)
    }

    /// Returns whole picojoules.
    pub const fn as_pico_joules(self) -> u64 {
        self.0
    }

    /// Returns whole nanojoules, truncating.
    pub const fn as_nano_joules(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns whole microjoules, truncating.
    pub const fn as_micro_joules(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns the energy in joules as a float.
    pub fn as_joules_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Returns `true` for zero energy.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating addition.
    pub const fn saturating_add(self, rhs: Energy) -> Energy {
        Energy(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction, clamping at zero.
    pub const fn saturating_sub(self, rhs: Energy) -> Energy {
        Energy(self.0.saturating_sub(rhs.0))
    }

    /// Saturating multiplication by a count (e.g. per-byte costs).
    pub const fn saturating_mul(self, k: u64) -> Energy {
        Energy(self.0.saturating_mul(k))
    }

    /// The energy delivered by `power` over `duration`.
    ///
    /// `power` is in nanowatts (1 nW · 1 µs = 1 fJ = 10⁻³ pJ), so the
    /// product is computed in femtojoules and rounded down to
    /// picojoules. The product is exact in a `u64` whenever it fits —
    /// every op the simulator bills — and only an overflowing one takes
    /// the 128-bit path, saturating at the largest energy.
    #[inline]
    pub fn from_power(nanowatts: u64, duration: SimDuration) -> Energy {
        let micros = duration.as_micros();
        match nanowatts.checked_mul(micros) {
            Some(femto) => Energy(femto / 1_000),
            None => {
                let femto = u128::from(nanowatts) * u128::from(micros);
                Energy(u64::try_from(femto / 1_000).unwrap_or(u64::MAX))
            }
        }
    }

    /// How long `power` (nanowatts) takes to deliver this energy,
    /// rounding up to the next microsecond. Returns
    /// [`SimDuration::MAX`] for zero power.
    pub fn time_to_harvest(self, nanowatts: u64) -> SimDuration {
        if nanowatts == 0 {
            return SimDuration::MAX;
        }
        let femto = (self.0 as u128) * 1_000;
        let micros = femto.div_ceil(nanowatts as u128);
        SimDuration::from_micros(u64::try_from(micros).unwrap_or(u64::MAX))
    }
}

impl Add for Energy {
    type Output = Energy;

    fn add(self, rhs: Energy) -> Energy {
        self.saturating_add(rhs)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        *self = *self + rhs;
    }
}

impl Sub for Energy {
    type Output = Energy;

    fn sub(self, rhs: Energy) -> Energy {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for Energy {
    fn sub_assign(&mut self, rhs: Energy) {
        *self = *self - rhs;
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pj = self.0;
        if pj >= 1_000_000_000 {
            write!(f, "{:.3}mJ", pj as f64 / 1e9)
        } else if pj >= 1_000_000 {
            write!(f, "{:.3}uJ", pj as f64 / 1e6)
        } else if pj >= 1_000 {
            write!(f, "{:.3}nJ", pj as f64 / 1e3)
        } else {
            write!(f, "{pj}pJ")
        }
    }
}

impl fmt::Debug for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors() {
        assert_eq!(Energy::from_nano_joules(1).as_pico_joules(), 1_000);
        assert_eq!(Energy::from_micro_joules(1).as_nano_joules(), 1_000);
        assert_eq!(Energy::from_milli_joules(1).as_micro_joules(), 1_000);
        assert_eq!(Energy::from_joules_f64(0.001).as_micro_joules(), 1_000);
        assert_eq!(Energy::from_joules_f64(-1.0), Energy::ZERO);
        assert_eq!(Energy::from_joules_f64(f64::NAN), Energy::ZERO);
    }

    #[test]
    fn arithmetic_saturates() {
        let max = Energy::from_pico_joules(u64::MAX);
        assert_eq!(max + Energy::from_pico_joules(1), max);
        assert_eq!(Energy::ZERO - Energy::from_pico_joules(1), Energy::ZERO);
    }

    #[test]
    fn power_time_round_trip() {
        // 1 mW for 1 s = 1 mJ.
        let p_nw = 1_000_000; // 1 mW in nW
        let e = Energy::from_power(p_nw, SimDuration::from_secs(1));
        assert_eq!(e, Energy::from_milli_joules(1));
        // And harvesting 1 mJ at 1 mW takes 1 s.
        assert_eq!(e.time_to_harvest(p_nw), SimDuration::from_secs(1));
    }

    /// The 128-bit formula `from_power` computed before its `u64`
    /// path.
    fn from_power_u128(nanowatts: u64, micros: u64) -> Energy {
        let femto = u128::from(nanowatts) * u128::from(micros);
        Energy(u64::try_from(femto / 1_000).unwrap_or(u64::MAX))
    }

    #[test]
    fn from_power_equals_the_u128_formula() {
        let check = |nw: u64, us: u64| {
            assert_eq!(
                Energy::from_power(nw, SimDuration::from_micros(us)),
                from_power_u128(nw, us),
                "{nw} nW over {us} us"
            );
        };
        // Zero power, zero time, and products just under, at and over
        // `u64::MAX` (2^64 - 1 = 3 * 5 * 17 * 257 * 641 * 65537 * 6700417).
        let max = u64::MAX;
        for (nw, us) in [
            (0, 0),
            (0, max),
            (max, 0),
            (1, max),
            (max, 1),
            (2, max / 2),
            (2, max / 2 + 1),
            (3, max / 3),
            (3, max / 3 + 1),
            (641 * 6_700_417, max / (641 * 6_700_417)),
            (641 * 6_700_417, max / (641 * 6_700_417) + 1),
            (1 << 32, (1 << 32) - 1),
            (1 << 32, 1 << 32),
            (max, max),
        ] {
            check(nw, us);
            check(us, nw);
        }
        // Seeded: magnitudes from a nanowatt for a microsecond up to
        // products far past `u64::MAX`.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..20_000 {
            let (a, b) = (next(), next());
            check(a >> (a % 64), b >> (b % 64));
        }
    }

    #[test]
    fn time_to_harvest_rounds_up_and_handles_zero_power() {
        let e = Energy::from_pico_joules(1);
        assert_eq!(e.time_to_harvest(0), SimDuration::MAX);
        // 1 pJ at 1 nW = 1 ms? No: 1 nW = 1 fJ/us, so 1 pJ = 1000 us.
        assert_eq!(e.time_to_harvest(1), SimDuration::from_millis(1));
        // 1.5 units must round up.
        let e = Energy::from_pico_joules(3);
        assert_eq!(e.time_to_harvest(2), SimDuration::from_micros(1_500));
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(format!("{}", Energy::from_pico_joules(5)), "5pJ");
        assert_eq!(format!("{}", Energy::from_nano_joules(2)), "2.000nJ");
        assert_eq!(format!("{}", Energy::from_micro_joules(3)), "3.000uJ");
        assert_eq!(format!("{}", Energy::from_milli_joules(4)), "4.000mJ");
    }

    #[test]
    fn sum_folds() {
        let total: Energy = [1u64, 2, 3].into_iter().map(Energy::from_nano_joules).sum();
        assert_eq!(total, Energy::from_nano_joules(6));
    }
}
