//! Known-bad fixture for `rng-provenance`: exactly four findings.
//!
//! 1. an early `return` between draws (stream length becomes data-dependent)
//! 2. an ambient `thread_rng` read inside an RNG-taking fn
//! 3. an RNG parameter captured directly by a rayon closure
//! 4. a captured local handed to a callee's RNG position (FnDb cross-check)
//!
//! The token rule `shared-rng` also flags (3), whose capture is named `rng`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// (1) The drop-gate shape: the second draw only happens on one branch, so
/// the number of variates consumed depends on the first draw's value.
fn gate(rng: &mut SmallRng, threshold: f64) -> f64 {
    let first = rng.gen::<f64>();
    if first < threshold {
        return 0.0;
    }
    first + rng.gen::<f64>()
}

/// (2) Mixing the caller's stream with the ambient thread RNG silently
/// widens the fn's input set beyond (args, stream).
fn boosted(rng: &mut SmallRng) -> f64 {
    let boost = rand::thread_rng().gen::<f64>();
    rng.gen::<f64>() + boost
}

/// (3) One stream consumed from concurrently scheduled tasks draws in
/// scheduling order.
fn jitter_all(xs: &mut [f64], rng: &mut SmallRng) {
    xs.par_iter_mut().for_each(|x| {
        *x += rng.gen::<f64>();
    });
}

/// Registers in the fn database: parameter 0 is RNG-typed.
fn sample_one(noise: &mut SmallRng) -> f64 {
    noise.gen::<f64>()
}

/// (4) `master` says nothing about RNGs by name, but the database knows
/// `sample_one`'s parameter 0 is a stream.
fn fan_out(xs: &mut [f64], seed: u64) {
    let mut master = SmallRng::seed_from_u64(seed);
    xs.par_iter_mut().for_each(|x| {
        *x = sample_one(&mut master);
    });
}
