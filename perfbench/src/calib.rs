//! Host-speed diagnostic.
//!
//! On a shared host the speed of the same code drifts over seconds to
//! minutes. A fixed kernel — allocation and pointer-heavy like the
//! pipeline, owned by the benchmark and never changed — is timed around
//! every round on the thread that runs the ops. Its time is stored in the
//! result file beside the measured timings and never enters them, so a
//! reader comparing two results can tell a slower host from slower code.

use crate::stats::median;
use std::time::Instant;

/// Keys the kernel inserts per run.
const KERNEL_KEYS: u64 = 2000;
/// Kernel runs one measurement takes the median of.
const RUNS: usize = 5;

/// One run of the kernel: builds a B-tree of pseudo-random keys and a
/// vector of boxed values, sorts the vector and folds both.
fn kernel() -> u64 {
    let mut tree = std::collections::BTreeMap::new();
    let mut boxes = Vec::new();
    let mut x: u64 = 7;
    for i in 0..KERNEL_KEYS {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        tree.insert(x >> 40, i);
        boxes.push(Box::new(x));
    }
    boxes.sort();
    tree.values().sum::<u64>() ^ *boxes[boxes.len() / 2]
}

/// The median time of [`RUNS`] kernel runs after one warm-up run (which
/// refills the allocator's free lists with the kernel's own blocks), in
/// nanoseconds.
pub fn measure() -> f64 {
    std::hint::black_box(kernel());
    let times: Vec<f64> = (0..RUNS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(kernel());
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_timed() {
        assert_eq!(kernel(), kernel());
        assert!(measure() > 0.0);
    }
}
