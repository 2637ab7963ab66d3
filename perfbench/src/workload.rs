//! The three workloads and the trial each one runs.
//!
//! A trial is one pass of the pipeline a user runs on one sampled
//! instance. The benchmark calls each layer's public entry point itself,
//! so a layer's span is exactly one call (or one group of calls) into the
//! library; nothing inside the library is instrumented beyond the
//! existing protocol telemetry.

use crate::trace::Tracer;
use npd_amp::iteration::run_amp_with;
use npd_amp::preprocess::prepare;
use npd_amp::{AmpConfig, AmpDecoder, AmpWorkspace, BayesBernoulli};
use npd_core::distributed::{run_protocol_chaos_traced, ProtocolOptions, SelectionStrategy};
use npd_core::{
    exact_recovery, overlap, Decoder, Estimate, GreedyDecoder, GroundTruth, Instance,
    InstanceError, NoiseModel, PoolingGraph, Regime, Run, Sampling,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sequential pipeline at the paper's Figure-2/6 operating point:
    /// sample → measure → greedy + top-k → AMP prepare + iterate + top-k.
    Paper,
    /// Full protocol with the gossip bisection as phase II.
    Gossip,
    /// Full protocol with the Batcher sorting network as phase II.
    Batcher,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Paper, Workload::Gossip, Workload::Batcher];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper-n14",
            Workload::Gossip => "gossip-n14",
            Workload::Batcher => "batcher-n14",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The phase-II strategy of a protocol workload.
    pub fn strategy(self) -> Option<SelectionStrategy> {
        match self {
            Workload::Paper => None,
            Workload::Gossip => Some(SelectionStrategy::gossip()),
            Workload::Batcher => Some(SelectionStrategy::BatcherSort),
        }
    }

    /// Distinct instance seeds one run cycles through. Every quality
    /// metric and deterministic count is averaged over exactly this list.
    /// The sequential pipeline's first-pass checks cost about one trial
    /// each, so it gets the shorter list.
    pub fn seed_count(self, shape: Shape) -> usize {
        match (self, shape) {
            (_, Shape::Tiny) => 4,
            (Workload::Paper, Shape::Full) => 24,
            (_, Shape::Full) => 64,
        }
    }

    /// The instance a trial samples.
    ///
    /// # Errors
    ///
    /// Returns the builder's error if the shape is not a valid instance.
    pub fn instance(self, shape: Shape) -> Result<Instance, InstanceError> {
        let n = shape.n();
        let builder = match (self, shape) {
            // θ = 0.25 gives k = 11 at n = 2^14 and k = 4 at n = 2^8.
            (Workload::Paper, _) => Instance::builder(n)
                .regime(Regime::sublinear(0.25))
                .queries(if shape == Shape::Full { 600 } else { 150 })
                .query_size(n / 2)
                .noise(NoiseModel::z_channel(0.1)),
            (_, Shape::Full) => Instance::builder(n)
                .k(128)
                .queries(256)
                .query_size(2048)
                .noise(NoiseModel::gaussian(1.0)),
            (_, Shape::Tiny) => Instance::builder(n)
                .k(4)
                .queries(64)
                .query_size(64)
                .noise(NoiseModel::gaussian(1.0)),
        };
        builder.sampling(Sampling::WithReplacement).build()
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Problem size: the measured shape, or a tiny one for the smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `n = 2^14`.
    Full,
    /// `n = 2^8`, for the benchmark's own tests.
    Tiny,
}

impl Shape {
    /// Parses a command-line shape name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "full" => Some(Shape::Full),
            "tiny" => Some(Shape::Tiny),
            _ => None,
        }
    }

    /// Population size.
    pub fn n(self) -> usize {
        match self {
            Shape::Full => 1 << 14,
            Shape::Tiny => 1 << 8,
        }
    }
}

/// Deterministic per-trial counts and quality, identical for one seed on
/// every run and every thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// The primary estimate (greedy, or the protocol's) recovers the truth.
    pub exact: bool,
    /// Overlap of the primary estimate with the truth.
    pub overlap: f64,
    /// AMP recovers the truth (sequential pipeline only).
    pub amp_exact: bool,
    /// Overlap of the AMP estimate (sequential pipeline only).
    pub amp_overlap: f64,
    /// Agents `n`.
    pub agents: u64,
    /// Pooling slots `m·Γ`.
    pub slots: u64,
    /// Queries `m`.
    pub queries: u64,
    /// Non-zeros of the pooling CSR (sequential pipeline only).
    pub nnz: u64,
    /// Bytes of the pooling CSR, from its array sizes.
    pub csr_bytes: u64,
    /// Bytes two sparse products stream per AMP iteration: the CSR once
    /// each, plus one read of the input and one write of the output.
    pub amp_bytes_per_iter: u64,
    /// AMP iterations.
    pub amp_iters: u64,
    /// AMP reached its tolerance before the iteration cap.
    pub amp_converged: bool,
    /// Protocol messages sent, all phases.
    pub msgs: u64,
    /// Measurement-broadcast messages.
    pub msgs_measure: u64,
    /// Phase-II selection messages.
    pub msgs_select: u64,
    /// Batcher assignment messages.
    pub msgs_assign: u64,
    /// Protocol rounds.
    pub rounds: u64,
    /// Phase-II rounds.
    pub rounds_select: u64,
    /// Gossip bisection probes.
    pub probes: u64,
    /// Batcher network depth.
    pub sort_depth: u64,
    /// Largest number of messages in flight at a round boundary.
    pub peak_in_flight: u64,
    /// Stale arrivals ignored by agents.
    pub stale: u64,
    /// Payload bytes sent.
    pub payload_bytes: u64,
}

/// Everything a trial produced, for the output checks.
pub struct TrialOutput {
    /// The sampled run, assembled from the decomposed layers.
    pub run: Run,
    /// The primary estimate: greedy top-k, or the protocol's estimate.
    pub primary: Estimate,
    /// The AMP estimate (sequential pipeline only).
    pub amp: Option<Estimate>,
    /// `missing_assignments` and `achieved_quorum` of a protocol run.
    pub quorum: Option<(usize, usize)>,
    /// Deterministic counts.
    pub counts: Counts,
}

/// Per-run state a trial reuses: the instance and the AMP workspace.
pub struct Bench {
    /// The workload.
    pub workload: Workload,
    /// The sampled instance shape.
    pub instance: Instance,
    amp_ws: AmpWorkspace,
}

/// Why a trial failed.
#[derive(Debug)]
pub enum TrialError {
    /// The protocol did not quiesce within its round budget.
    MaxRounds,
    /// The decomposed layers produced parts that do not fit the instance.
    Inconsistent(InstanceError),
}

impl fmt::Display for TrialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrialError::MaxRounds => f.write_str("protocol exceeded its round budget"),
            TrialError::Inconsistent(e) => write!(f, "decomposed sample rejected: {e}"),
        }
    }
}

impl Bench {
    /// Sets up a workload at a shape.
    ///
    /// # Errors
    ///
    /// Returns the builder's error if the shape is not a valid instance.
    pub fn new(workload: Workload, shape: Shape) -> Result<Self, InstanceError> {
        Ok(Self {
            workload,
            instance: workload.instance(shape)?,
            amp_ws: AmpWorkspace::new(),
        })
    }

    /// Runs one trial on the instance drawn from `seed`, recording a span
    /// per layer into `tracer`.
    pub fn trial(&mut self, seed: u64, tracer: &mut Tracer) -> Result<TrialOutput, TrialError> {
        let inst = &self.instance;
        let (n, k, m, gamma) = (inst.n(), inst.k(), inst.m(), inst.gamma());
        let mut rng = StdRng::seed_from_u64(seed);
        // Replays `Instance::sample`'s draw order: truth, graph, results.
        let (truth, graph) = tracer.span("design", || {
            let truth = GroundTruth::sample(n, k, &mut rng);
            let graph = PoolingGraph::sample_with(n, m, gamma, Sampling::WithReplacement, &mut rng);
            (truth, graph)
        });
        let results = tracer.span("measure", || graph.measure(&truth, inst.noise(), &mut rng));
        let run = inst
            .assemble(truth, graph, results)
            .map_err(TrialError::Inconsistent)?;
        // Distinct (query, agent) pairs: the CSR's non-zeros and the
        // protocol's measurement messages alike.
        let edges: u64 = run
            .graph()
            .queries()
            .iter()
            .map(|q| q.distinct_len() as u64)
            .sum();
        let mut counts = Counts {
            agents: n as u64,
            slots: (m * gamma) as u64,
            queries: m as u64,
            ..Counts::default()
        };

        let (primary, amp, quorum) = match self.workload.strategy() {
            None => {
                let scores = tracer.span("greedy", || GreedyDecoder::new().scores(&run));
                let primary = tracer.span("select", || Estimate::from_scores(scores, k));
                let prep = tracer.span("amp.prepare", || prepare(&run));
                let ws = &mut self.amp_ws;
                let output = tracer.span("amp.iterate", || {
                    let denoiser = BayesBernoulli::new(prep.prior.clamp(1e-9, 1.0 - 1e-9));
                    run_amp_with(&prep, &denoiser, &AmpConfig::default(), ws)
                });
                counts.amp_iters = output.iterations as u64;
                counts.amp_converged = output.converged;
                let amp = tracer.span("select", || Estimate::from_scores(output.estimate, k));
                counts.nnz = edges;
                counts.csr_bytes = csr_bytes(m as u64, edges);
                counts.amp_bytes_per_iter = 2 * counts.csr_bytes + 2 * 8 * (n + m) as u64;
                counts.amp_exact = exact_recovery(&amp, run.ground_truth());
                counts.amp_overlap = overlap(&amp, run.ground_truth());
                (primary, Some(amp), None)
            }
            Some(strategy) => {
                let options = ProtocolOptions {
                    strategy,
                    ..ProtocolOptions::default()
                };
                let sink = tracer.protocol_sink();
                let outcome = tracer
                    .span("protocol", || {
                        run_protocol_chaos_traced(&run, options, &sink)
                    })
                    .map_err(|_| TrialError::MaxRounds)?;
                tracer.join_protocol(&sink);
                let metrics = outcome.metrics;
                counts.msgs = metrics.messages_sent;
                counts.msgs_select = outcome.selection_messages;
                counts.msgs_measure = edges;
                counts.msgs_assign =
                    metrics.messages_sent - counts.msgs_measure - counts.msgs_select;
                counts.rounds = outcome.rounds;
                counts.rounds_select = outcome.selection_rounds;
                counts.probes = u64::from(outcome.probes);
                counts.sort_depth = outcome.sort_depth as u64;
                counts.peak_in_flight = metrics.peak_in_flight;
                counts.stale = outcome.stale_messages;
                counts.payload_bytes = metrics.payload_bytes_sent;
                let quorum = (outcome.missing_assignments, outcome.achieved_quorum);
                (outcome.estimate, None, Some(quorum))
            }
        };
        counts.exact = exact_recovery(&primary, run.ground_truth());
        counts.overlap = overlap(&primary, run.ground_truth());
        Ok(TrialOutput {
            run,
            primary,
            amp,
            quorum,
            counts,
        })
    }
}

/// Bytes of an `m`-row CSR with `nnz` entries: `usize` row pointers,
/// `u32` column indices and `f64` values.
pub fn csr_bytes(m: u64, nnz: u64) -> u64 {
    (m + 1) * 8 + nnz * (4 + 8)
}

/// Checks a trial's output against the library's one-call entry points.
/// Returns the first mismatch found.
pub fn check(out: &TrialOutput, seed: u64) -> Result<(), String> {
    let run = &out.run;
    let reference = run.instance().sample(&mut StdRng::seed_from_u64(seed));
    if reference != *run {
        return Err("decomposed sample differs from Instance::sample".into());
    }
    if !out.primary.scores().iter().all(|s| s.is_finite()) {
        return Err("non-finite score in the primary estimate".into());
    }
    let greedy = GreedyDecoder::new().decode(run);
    if !same_estimate(&greedy, &out.primary) {
        return Err(match out.quorum {
            None => "greedy scores + top-k differ from GreedyDecoder::decode".into(),
            Some(_) => "protocol estimate differs from the sequential greedy decode".into(),
        });
    }
    if let Some(amp_est) = &out.amp {
        if !amp_est.scores().iter().all(|s| s.is_finite()) {
            return Err("non-finite AMP posterior mean".into());
        }
        if !same_estimate(&AmpDecoder::default().decode(run), amp_est) {
            return Err("AMP prepare + iterate + top-k differ from AmpDecoder::decode".into());
        }
    }
    if let Some((missing, quorum)) = out.quorum {
        if missing != 0 || quorum != run.instance().n() {
            return Err(format!(
                "protocol left {missing} agents undecided (quorum {quorum})"
            ));
        }
    }
    Ok(())
}

/// Bit-exact estimate equality (scores compared by bit pattern).
fn same_estimate(a: &Estimate, b: &Estimate) -> bool {
    a.bits() == b.bits()
        && a.scores().len() == b.scores().len()
        && a.scores()
            .iter()
            .zip(b.scores())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// FNV-1a digest of a trial's observable output: the run, both estimates
/// and the deterministic counts. A repeated seed must reproduce it.
pub fn digest(out: &TrialOutput) -> u64 {
    let mut h = Fnv::default();
    for &o in out.run.ground_truth().ones() {
        h.u64(u64::from(o));
    }
    for &y in out.run.results() {
        h.u64(y.to_bits());
    }
    let mut estimate = |e: &Estimate| {
        for &o in e.ones() {
            h.u64(u64::from(o));
        }
        for &s in e.scores() {
            h.u64(s.to_bits());
        }
    };
    estimate(&out.primary);
    if let Some(amp) = &out.amp {
        estimate(amp);
    }
    let c = &out.counts;
    for v in [
        c.nnz,
        c.amp_iters,
        c.msgs,
        c.msgs_select,
        c.rounds,
        c.probes,
        c.peak_in_flight,
        c.stale,
        c.payload_bytes,
    ] {
        h.u64(v);
    }
    h.0
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}
