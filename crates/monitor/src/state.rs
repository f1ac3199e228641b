//! The nonvolatile encoding of the armed event.

use artemis_core::event::{EventKind, MonitorEvent};
use intermittent_sim::fram::NvData;

/// The persistent event variable (paper Figure 8's `MonitorEvent_t`):
/// kind, task index, timestamp, optional monitored value, and the
/// capacitor reading sampled at delivery.
///
/// The FRAM encoding puts the fields that rarely change between
/// consecutive deliveries first (path number, `has_dep`, `dep_bits`)
/// and the volatile ones last, abutting the header's `seq`: arming
/// stages the span from the first to the last byte that changed, so
/// the volatile fields and `seq` form one short span.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct EncodedEvent {
    /// One-based number of the executing path; 0 = no path context,
    /// [`Self::UNGOVERNED_PATH`] = a path past [`Self::MAX_PATHS`],
    /// which no machine governs.
    pub path_number: u8,
    /// 1 if `dep_bits` carries a value.
    pub has_dep: u8,
    /// `f64::to_bits` of the monitored value.
    pub dep_bits: u64,
    /// Capacitor level in nanojoules at delivery time.
    pub energy_nj: u64,
    /// Timestamp in microseconds.
    pub timestamp_us: u64,
    /// Task id (dense index into the application graph).
    pub task: u32,
    /// 0 = start, 1 = end.
    pub kind: u8,
}

impl EncodedEvent {
    /// The most paths `path_number` names; the engine rejects apps
    /// with more at install.
    pub const MAX_PATHS: usize = Self::UNGOVERNED_PATH as usize - 1;

    /// The `path_number` of every path past [`Self::MAX_PATHS`] (also
    /// one the app does not declare): a `Path:`-qualified machine
    /// dismisses it, as it dismisses any path other than its own.
    pub const UNGOVERNED_PATH: u8 = u8::MAX;

    /// Encodes a core event plus the current energy reading.
    pub fn from_event(e: &MonitorEvent, energy_nj: u64) -> Self {
        EncodedEvent {
            path_number: e.path.map_or(0, |p| {
                u8::try_from(p.number()).unwrap_or(Self::UNGOVERNED_PATH)
            }),
            has_dep: u8::from(e.dep_data.is_some()),
            dep_bits: e.dep_data.unwrap_or(0.0).to_bits(),
            energy_nj,
            timestamp_us: e.timestamp.as_micros(),
            task: e.task.0,
            kind: match e.kind {
                EventKind::StartTask => 0,
                EventKind::EndTask => 1,
            },
        }
    }

    /// The event kind `kind` encodes.
    pub fn event_kind(&self) -> EventKind {
        if self.kind == 0 {
            EventKind::StartTask
        } else {
            EventKind::EndTask
        }
    }

    /// The monitored value, if present.
    pub fn dep_data(&self) -> Option<f64> {
        (self.has_dep != 0).then(|| f64::from_bits(self.dep_bits))
    }
}

impl NvData for EncodedEvent {
    const SIZE: usize = 1 + 1 + 8 + 8 + 8 + 4 + 1;

    fn store(&self, dst: &mut [u8]) {
        dst[0] = self.path_number;
        dst[1] = self.has_dep;
        dst[2..10].copy_from_slice(&self.dep_bits.to_le_bytes());
        dst[10..18].copy_from_slice(&self.energy_nj.to_le_bytes());
        dst[18..26].copy_from_slice(&self.timestamp_us.to_le_bytes());
        dst[26..30].copy_from_slice(&self.task.to_le_bytes());
        dst[30] = self.kind;
    }

    fn load(src: &[u8]) -> Self {
        let u32_at = |i: usize| {
            let mut b = [0u8; 4];
            b.copy_from_slice(&src[i..i + 4]);
            u32::from_le_bytes(b)
        };
        let u64_at = |i: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&src[i..i + 8]);
            u64::from_le_bytes(b)
        };
        EncodedEvent {
            path_number: src[0],
            has_dep: src[1],
            dep_bits: u64_at(2),
            energy_nj: u64_at(10),
            timestamp_us: u64_at(18),
            task: u32_at(26),
            kind: src[30],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use artemis_core::app::TaskId;
    use artemis_core::time::SimInstant;

    fn round_trip<T: NvData + PartialEq + core::fmt::Debug + Copy>(v: T) {
        let mut buf = vec![0u8; T::SIZE];
        v.store(&mut buf);
        assert_eq!(T::load(&buf), v);
    }

    #[test]
    fn encoded_event_round_trips() {
        let e = MonitorEvent::end_with_data(TaskId(7), SimInstant::from_micros(123_456), 36.5);
        let enc = EncodedEvent::from_event(&e, 999);
        round_trip(enc);
        assert_eq!(enc.dep_data(), Some(36.5));
        assert_eq!(enc.kind, 1);
        assert_eq!(enc.task, 7);
        assert_eq!(enc.energy_nj, 999);

        let s = MonitorEvent::start(TaskId(2), SimInstant::from_micros(5));
        let enc = EncodedEvent::from_event(&s, 0);
        assert_eq!(enc.dep_data(), None);
        assert_eq!(enc.kind, 0);
    }
}
