//! Shared helpers for the criterion benchmarks.
//!
//! Each bench target under `benches/` times one layer of the
//! implementation: the decoders (`decoder_throughput`,
//! `baseline_decoders`, `ablations`), the Monte-Carlo sweep (`mc_sweep`),
//! the pooling designs (`design_throughput`), the protocol and its
//! simulator (`protocol`, `netsim_scale`, `substrates`), the workload
//! models (`workload_throughput`), and the telemetry hooks
//! (`telemetry_overhead`). The *data* for the paper's figures is produced
//! by the `repro` binary in `npd-experiments`; these benches answer "how
//! fast is the implementation".

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use npd_core::{Instance, NoiseModel, Run};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Samples a run with the standard `Γ = n/2` design.
///
/// # Panics
///
/// Panics on invalid parameters (delegates to [`Instance::builder`]).
pub fn sample_run(n: usize, k: usize, m: usize, noise: NoiseModel, seed: u64) -> Run {
    Instance::builder(n)
        .k(k)
        .queries(m)
        .noise(noise)
        .build()
        .expect("benchmark configuration is valid")
        .sample(&mut StdRng::seed_from_u64(seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_run_shapes() {
        let run = sample_run(100, 3, 20, NoiseModel::Noiseless, 1);
        assert_eq!(run.instance().n(), 100);
        assert_eq!(run.results().len(), 20);
    }
}
