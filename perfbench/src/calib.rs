//! Machine-speed calibration for the CPU-time metrics.
//!
//! On a shared host the CPU time of one and the same op drifts by ±20%
//! between runs a minute apart, every op of a run together: neighbours
//! contend for caches and memory bandwidth, and CPU time cannot leave
//! that out the way it leaves out waits for a CPU. So each phase also
//! times a fixed workload of the benchmark's own, with the kind of
//! memory traffic mining makes (dependent reads over a table larger than
//! a core's caches, many small allocations), interleaved with its ops, and
//! scales each CPU-time sample by [`NOMINAL_MS`] over the median
//! calibration pass of its phase: the op's CPU time at the machine speed
//! under which one pass takes [`NOMINAL_MS`].

use std::collections::HashMap;

use crate::util::{cpu_ms, median};

/// CPU ms of one pass on the 2-vCPU Xeon host this benchmark was tuned
/// on, when quiet.
pub const NOMINAL_MS: f64 = 50.0;

/// Table size of a pass: 8 MB of `u32`, freed after each pass so that it
/// never raises a phase's peak RSS above that of the ops it runs with.
const TABLE: usize = 1 << 21;
const CHASE_STEPS: usize = 1 << 18;
const MAP_KEYS: u32 = 1 << 15;

/// One calibration pass; returns its CPU time in ms.
pub fn pass() -> f64 {
    let start = cpu_ms();
    // A full-period LCG modulo the power-of-two table size makes one cycle
    // through every slot in scattered order; walking it, every read
    // depends on the last and misses the caches.
    let mask = TABLE as u32 - 1;
    let next: Vec<u32> = (0..TABLE as u32)
        .map(|i| i.wrapping_mul(0x2c9_277b5).wrapping_add(0x3c6e_f35f) & mask)
        .collect();
    let mut at = 0u32;
    for _ in 0..CHASE_STEPS {
        at = next[at as usize];
    }
    drop(next);
    let mut map: HashMap<u32, Vec<u32>> = HashMap::new();
    for k in 0..MAP_KEYS {
        map.entry(k.wrapping_mul(0x9e37_79b9) >> 3)
            .or_default()
            .push(k);
    }
    std::hint::black_box((at, map.len()));
    cpu_ms() - start
}

/// `samples` (CPU ms) scaled to the nominal machine speed, given the
/// calibration passes timed alongside them.
pub fn normalize(samples: &[f64], passes: &[f64]) -> Vec<f64> {
    let k = NOMINAL_MS / median(passes);
    samples.iter().map(|s| s * k).collect()
}
