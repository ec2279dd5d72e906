//! Host-speed normalisation of timed work.
//!
//! On a shared host, neighbours slow every op by up to 1.8× in phases
//! that last from seconds to minutes. [`HostClock`] times a fixed probe —
//! benchmark code only, so no change to the program can move it — before
//! and after every stretch of timed work, and scales the stretch's wall
//! time by [`REF_PROBE_MS`] over the mean of the two probes. The result is
//! the stretch's wall time at the host speed at which the probe takes
//! `REF_PROBE_MS`.

use std::collections::HashMap;
use std::fmt::Write;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Probe time that defines the reference host speed. On a shared 2-vCPU
/// virtual machine at 2.1 GHz (Xeon) the probe took 1.9 ms at its 5th
/// percentile and 2.8 ms at its median, so normalised times read close to
/// the fastest raw ones there.
pub const REF_PROBE_MS: f64 = 2.0;

/// Keys the probe fills and sorts each time (256 KiB).
const KEYS: usize = 1 << 15;
/// Distinct map keys the probe inserts.
const MAP_KEYS: u64 = 8191;
/// Keys the probe formats as text.
const FORMATTED: usize = 20_000;
/// Probe times kept for the summary; later probes still normalise.
const KEPT_PROBES: usize = 1 << 16;

/// The probe's buffers and the list of probe times, allocated once so
/// that probing leaves the heap accounting of the ops alone.
pub struct HostClock {
    keys: Vec<u64>,
    map: HashMap<u64, usize>,
    text: String,
    probes_ms: Vec<f64>,
}

impl HostClock {
    pub fn new() -> Self {
        let mut clock = HostClock {
            keys: vec![0; KEYS],
            map: HashMap::with_capacity(MAP_KEYS as usize),
            text: String::with_capacity(FORMATTED * 16),
            probes_ms: Vec::with_capacity(KEPT_PROBES),
        };
        // Warm-up: page in the buffers.
        clock.probe();
        clock.probes_ms.clear();
        clock
    }

    /// Runs the probe once: fill and sort the keys, hash them into the
    /// map, format some as hex text, and sum a Gaussian over them — the
    /// kinds of work the detector's JSON, routing and kernel layers do.
    /// Returns its wall time in ms. On the host above, this mix tracked
    /// the ops' slowdowns much more closely than sorting and scattering
    /// alone.
    pub fn probe(&mut self) -> f64 {
        let t = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for k in self.keys.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *k = x;
        }
        self.keys.sort_unstable();
        self.map.clear();
        for (i, &k) in self.keys.iter().enumerate() {
            self.map.insert(k % MAP_KEYS, i);
        }
        self.text.clear();
        for k in self.keys.iter().take(FORMATTED) {
            let _ = write!(self.text, "{k:x}");
        }
        let mut acc = 0.0f64;
        for (i, &k) in self.keys.iter().enumerate() {
            let d = k as f64 * 1e-19 - i as f64 * 1e-5;
            acc += (-d * d).exp();
        }
        black_box((self.map.len(), self.text.len(), acc));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if self.probes_ms.len() < KEPT_PROBES {
            self.probes_ms.push(ms);
        }
        ms
    }

    /// Starts timing one op (or one set-up) with a probe.
    pub fn start(&mut self) -> Stopwatch<'_> {
        let last_probe_ms = self.probe();
        Stopwatch {
            clock: self,
            wall: Duration::ZERO,
            norm_ms: 0.0,
            last_probe_ms,
        }
    }

    /// The wall times of the probes so far (the first `KEPT_PROBES`), in
    /// ms.
    pub fn probes_ms(&self) -> &[f64] {
        &self.probes_ms
    }
}

/// The wall time and the normalised time of the laps of one op.
pub struct Stopwatch<'a> {
    clock: &'a mut HostClock,
    wall: Duration,
    norm_ms: f64,
    last_probe_ms: f64,
}

impl Stopwatch<'_> {
    /// Times `f` as one lap, then probes. The lap's normalised time is its
    /// wall time scaled by `REF_PROBE_MS` over the mean of the probes
    /// before and after it.
    pub fn lap<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let wall = t.elapsed();
        let probe_ms = self.clock.probe();
        self.norm_ms += normalise(wall.as_secs_f64() * 1e3, self.last_probe_ms, probe_ms);
        self.last_probe_ms = probe_ms;
        self.wall += wall;
        out
    }

    /// The summed wall time and normalised time (ms) of the laps.
    pub fn finish(self) -> (Duration, f64) {
        (self.wall, self.norm_ms)
    }
}

/// `wall_ms` at the reference host speed: scaled by `REF_PROBE_MS` over
/// the mean of the probes taken just before and just after it.
pub fn normalise(wall_ms: f64, probe_before_ms: f64, probe_after_ms: f64) -> f64 {
    wall_ms * 2.0 * REF_PROBE_MS / (probe_before_ms + probe_after_ms)
}
