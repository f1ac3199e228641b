//! Host-speed calibration.
//!
//! On a shared host other tenants slow every thread down in bursts: on
//! the 2-core x86-64 reference VM (2.1 GHz) a round ran up to 36% slower
//! for 5–80 s at a time, so the median round of a 20 s run moved by
//! 8–17% between runs. A fixed kernel that shares no code with the
//! program — integer hashing, a small hash map, short-lived vectors —
//! slows down in step (per-round correlation 0.8). Timing it right
//! before every round and scaling the round by the kernel's speed
//! relative to [`REF_RATE`] cut the run-to-run spread of a 600 s series
//! to 1–2%. Only the benchmark's own code runs here, so no change to the
//! program can move the reference.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel calls per calibration, per thread (about 40 ms).
const CALLS: u32 = 100;

/// Kernel calls per second of one thread on the reference VM outside
/// interference bursts.
pub const REF_RATE: f64 = 2300.0;

fn kernel() -> u64 {
    let mut m: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..20_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let v = m.entry(x % 512).or_default();
        if v.len() > 8 {
            v.clear();
        }
        v.push(i ^ x);
    }
    m.values().flatten().fold(0, |a, b| a ^ b)
}

/// Per-thread host speed relative to the reference VM (1.0 = reference),
/// measured with the kernel running on `threads` threads at once so that
/// a multi-threaded workload is calibrated against the cores it uses.
pub fn host_speed(threads: usize) -> f64 {
    if threads == 0 {
        return 1.0;
    }
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                for _ in 0..CALLS {
                    black_box(kernel());
                }
            });
        }
    });
    let per_thread = f64::from(CALLS) / t.elapsed().as_secs_f64();
    per_thread / REF_RATE
}

/// Times a round in segments of about a third of a second (a
/// calibration before a longer segment stops describing the host: on the
/// reference VM 1.5 s segments spread 3%, 0.25 s ones 1%), calibrating
/// before each.
pub struct Stopwatch {
    threads: usize,
    speed: f64,
    since: Instant,
    secs: f64,
    ref_secs: f64,
}

impl Stopwatch {
    /// Calibrates on `threads` threads and starts the first segment;
    /// `threads == 0` measures without calibrating (traced rounds,
    /// whose spans must not contain the kernel).
    pub fn start(threads: usize) -> Self {
        Stopwatch {
            threads,
            speed: host_speed(threads),
            since: Instant::now(),
            secs: 0.0,
            ref_secs: 0.0,
        }
    }

    fn stop(&mut self) {
        let dt = self.since.elapsed().as_secs_f64();
        self.secs += dt;
        self.ref_secs += dt * self.speed;
    }

    /// Ends a segment, recalibrates, and starts the next one.
    pub fn lap(&mut self) {
        self.stop();
        self.speed = host_speed(self.threads);
        self.since = Instant::now();
    }

    /// Ends the last segment: (seconds as measured, seconds at
    /// reference host speed).
    pub fn finish(mut self) -> (f64, f64) {
        self.stop();
        (self.secs, self.ref_secs)
    }
}
