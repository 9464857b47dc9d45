//! A host-speed gauge: a fixed integer convolution, frozen in the
//! benchmark, timed in short slices between the measured calls.
//!
//! A shared host runs the same deterministic work at different speeds
//! from one minute to the next, as neighbours load the cores and the
//! caches under it, and a slow spell can last a whole run. The fastest
//! gauge slice of a run tracks the host's speed over that run, so the
//! benchmark reports its throughputs and set-up time at a fixed
//! reference speed: the raw figure scaled by [`REFERENCE_SLICE_S`] over
//! the run's fastest slice. The gauge's code and inputs never change, so
//! a change to the program moves the measured calls and not the gauge.

use std::hint::black_box;
use std::time::Instant;

/// The fastest gauge slice of the reference host \[s\]: a 2-vCPU
/// Intel Xeon (CPUID model 207) virtual machine. Reported rates are the
/// rates that host would show at that speed.
pub const REFERENCE_SLICE_S: f64 = 1.5e-3;

/// Input side, channels, filters and kernel side of the gauge's conv.
const SIDE: usize = 18;
const CHANNELS: usize = 16;
const FILTERS: usize = 16;
const KERNEL: usize = 3;
/// Passes over the conv per slice (about 2.4 M multiply-adds in all).
const PASSES: usize = 4;

/// The gauge's fixed operands and the slices timed so far.
#[derive(Debug, Clone)]
pub struct Gauge {
    input: Vec<u32>,
    weights: Vec<u32>,
    slices: Vec<f64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl Gauge {
    /// A gauge with its fixed 4-bit operands and no slices.
    pub fn new() -> Self {
        let operand =
            |i: usize, mul: u32| u32::try_from(i).map_or(0, |i| i.wrapping_mul(mul) >> 28);
        Self {
            input: (0..SIDE * SIDE * CHANNELS)
                .map(|i| operand(i, 2_654_435_761))
                .collect(),
            weights: (0..FILTERS * KERNEL * KERNEL * CHANNELS)
                .map(|i| operand(i, 2_246_822_507))
                .collect(),
            slices: Vec::new(),
        }
    }

    /// The gauge's result: the sum of every output of the conv over
    /// [`PASSES`] passes. Deterministic.
    pub fn conv(&self) -> u64 {
        let (input, weights) = (black_box(&self.input), black_box(&self.weights));
        let out = SIDE - KERNEL + 1;
        let mut acc = 0u64;
        for _ in 0..PASSES {
            for y in 0..out {
                for x in 0..out {
                    for f in 0..FILTERS {
                        let mut sum = 0u32;
                        for dy in 0..KERNEL {
                            for dx in 0..KERNEL {
                                let a = ((y + dy) * SIDE + x + dx) * CHANNELS;
                                let w = ((f * KERNEL + dy) * KERNEL + dx) * CHANNELS;
                                for c in 0..CHANNELS {
                                    sum = sum.wrapping_add(input[a + c] * weights[w + c]);
                                }
                            }
                        }
                        acc = acc.wrapping_add(u64::from(sum));
                    }
                }
            }
        }
        acc
    }

    /// Times one slice and keeps it.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        black_box(self.conv());
        self.slices.push(t0.elapsed().as_secs_f64());
    }

    /// Slices timed so far.
    pub fn slices(&self) -> usize {
        self.slices.len()
    }

    /// The fastest slice \[s\]; `NaN` before the first.
    pub fn fastest(&self) -> f64 {
        self.slices
            .iter()
            .copied()
            .reduce(f64::min)
            .unwrap_or(f64::NAN)
    }

    /// The host's speed over the slices, relative to the reference
    /// host: above 1 on a faster host. A raw rate divided by it, or a
    /// raw time multiplied by it, reads as on the reference host.
    pub fn speed(&self) -> f64 {
        REFERENCE_SLICE_S / self.fastest()
    }
}
