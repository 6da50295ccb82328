//! Host-speed calibration.
//!
//! On a shared host the speed of a core drifts by 10–20% over minutes,
//! as neighbours come and go, and every timing of a run drifts with it.
//! A `Calibration` times a fixed piece of the benchmark's own
//! arithmetic, which no change to the REDS crates can speed up or slow
//! down, in the pauses of a measured phase. A phase's timings are then
//! reported at the reference host speed: multiplied by
//! [`REFERENCE_MS`] over the median calibration time of the same phase.
//! The raw timings and the factor are printed on stderr.

use std::time::Instant;

use crate::common::ms;
use crate::report::median;

/// Calibration time, in ms, of the reference host: what one sample took
/// on a 2-core Intel Xeon container in a quiet period.
pub const REFERENCE_MS: f64 = 10.0;

/// Timed repetitions of the task per [`Calibration::sample`].
const REPEATS: usize = 5;

/// Calibration samples of one measured phase.
#[derive(Default)]
pub struct Calibration {
    samples: Vec<f64>,
}

impl Calibration {
    /// Times the task [`REPEATS`] times and keeps each time.
    pub fn sample(&mut self) {
        for _ in 0..REPEATS {
            let t = Instant::now();
            task();
            self.samples.push(ms(t));
        }
    }

    /// Adds another phase's samples to this one's.
    pub fn extend(&mut self, other: Calibration) {
        self.samples.extend(other.samples);
    }

    /// How much faster than this phase's host the reference host is:
    /// [`REFERENCE_MS`] over the median sample (1 without samples).
    pub fn factor(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            REFERENCE_MS / median(&self.samples)
        }
    }
}

/// The fixed task: a dependent chain of floating-point multiply-adds
/// that stays in registers, about 10 ms long.
fn task() {
    let mut a = 1.0f64;
    let mut b = 0.5f64;
    for i in 0..4_000_000u32 {
        a = a * 1.000_000_1 + b;
        b = b * 0.999_999_9 - f64::from(i & 7) * 1e-9;
    }
    std::hint::black_box((a, b));
}
