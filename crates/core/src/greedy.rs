//! The sequential reference implementation of Algorithm 1.

use crate::model::Run;
use npd_numerics::vector::{resize_fill, top_k_indices};
use serde::{Deserialize, Serialize};

/// A reconstruction of the hidden bits, together with the scores that
/// produced it.
///
/// Exposing the scores (not just the bits) follows the paper's diagnostics:
/// the *separation* between one-agent and zero-agent scores is the
/// termination criterion of the required-queries experiments, and the score
/// landscape drives the two-step extension.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Estimate {
    bits: Vec<bool>,
    ones: Vec<u32>,
    scores: Vec<f64>,
}

impl Estimate {
    /// Builds an estimate by taking the `k` highest-scoring agents.
    ///
    /// Ties are broken toward the smaller agent id, deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `k > scores.len()`.
    pub fn from_scores(scores: Vec<f64>, k: usize) -> Self {
        let top = top_k_indices(&scores, k);
        let mut bits = vec![false; scores.len()];
        let ones: Vec<u32> = top
            .into_iter()
            .map(|i| {
                bits[i] = true;
                i as u32
            })
            .collect();
        Self { bits, ones, scores }
    }

    /// Builds an estimate from explicit bits and the scores that produced
    /// them (used by the distributed protocol, where each agent learns its
    /// own bit).
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != scores.len()`.
    pub fn from_parts(bits: Vec<bool>, scores: Vec<f64>) -> Self {
        assert_eq!(
            bits.len(),
            scores.len(),
            "Estimate::from_parts: bits/scores length mismatch"
        );
        let ones = bits
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i as u32)
            .collect();
        Self { bits, ones, scores }
    }

    /// The estimated bit vector.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Sorted indices of agents estimated to hold bit one.
    pub fn ones(&self) -> &[u32] {
        &self.ones
    }

    /// The per-agent scores the estimate was ranked by.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Population size.
    pub fn n(&self) -> usize {
        self.bits.len()
    }

    /// Number of agents estimated as one.
    pub fn k(&self) -> usize {
        self.ones.len()
    }
}

/// A reconstruction algorithm for pooled-data runs.
///
/// Object-safe so harness code can hold heterogeneous decoder collections
/// (`Vec<Box<dyn Decoder>>`) when comparing algorithms.
pub trait Decoder {
    /// Reconstructs the hidden bits of the given run.
    fn decode(&self, run: &Run) -> Estimate;

    /// Short human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// How the neighborhood sum is centered before ranking.
///
/// Algorithm 1 as printed sorts by `Ψᵢ − Δ*ᵢ·k/2`, the noiseless expected
/// second-neighborhood contribution. The paper's *analysis*, however,
/// establishes separation for the noise-aware centering
/// `Ψᵢ − E[Ξ^pq ᵢ | G]` (Equations (3)–(4)), and with `q > 0` only the
/// latter matches the reported experiments: under the printed score the
/// false-positive mass `q·Γ·Δ*ᵢ` fluctuates with `Δ*ᵢ` and inflates the
/// required queries to `Θ(q²n² ln n)`, far beyond Figure 4's axis. Since
/// `p` and `q` are known constants in the model (Section II-A), the
/// noise-aware score is what a real deployment computes; the plain variant
/// is kept for the ablation study.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Centering {
    /// `Ψᵢ − (Δ*ᵢ·Γ − Δᵢ)·(q + k(1−p−q)/(n−1))` — the analysis' centering
    /// (reduces to the printed score as `p, q → 0`). The `Δ*ᵢ·Γ` term is
    /// computed as the *sum of the agent's queries' slot counts*, which
    /// equals `Δ*ᵢ·Γ` exactly on query-regular designs and stays exact on
    /// ragged (degree-balanced) designs where pool sizes differ by one.
    #[default]
    NoiseAware,
    /// `Ψᵢ − Δ*ᵢ·k/2` — Algorithm 1, line 14, verbatim.
    Plain,
}

/// The *noisy maximum neighborhood* decoder (Algorithm 1, steps I–II, run
/// sequentially).
///
/// For each agent `i` it accumulates the neighborhood sum
/// `Ψᵢ = Σ_{j : i ∈ ∂*aⱼ} σ̂ⱼ` over the *distinct* queries containing `i`,
/// subtracts the expected second-neighborhood contribution (see
/// [`Centering`]) and declares the `k` top-ranked agents as ones.
///
/// # Examples
///
/// ```
/// use npd_core::{Decoder, GreedyDecoder, Instance, NoiseModel};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let run = Instance::builder(200)
///     .k(3)
///     .queries(200)
///     .noise(NoiseModel::gaussian(1.0))
///     .build()
///     .unwrap()
///     .sample(&mut rng);
/// let est = GreedyDecoder::new().decode(&run);
/// assert_eq!(est.k(), 3);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GreedyDecoder {
    centering: Centering,
}

impl GreedyDecoder {
    /// Creates the decoder with the noise-aware centering.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the decoder with an explicit centering variant.
    pub fn with_centering(centering: Centering) -> Self {
        Self { centering }
    }

    /// The centering variant in use.
    pub fn centering(&self) -> Centering {
        self.centering
    }

    /// Computes the greedy scores without selecting bits.
    ///
    /// Exposed separately so callers can inspect the score landscape (e.g.
    /// the separation diagnostic) without re-deriving it.
    pub fn scores(&self, run: &Run) -> Vec<f64> {
        self.scores_with(run, &ScoreOptions::default(), &mut GreedyWorkspace::new())
    }

    /// [`GreedyDecoder::scores`] with an explicit fold and slot rate,
    /// reusing the caller's accumulator buffers.
    ///
    /// Repeated scorings on same-sized populations touch the allocator only
    /// for the returned score vector; output is identical to a fresh
    /// workspace. [`ScoreOptions::default`] reproduces
    /// [`GreedyDecoder::scores`] exactly.
    ///
    /// # Panics
    ///
    /// Panics if a [`Fold::Exclude`] mask's length differs from `m`.
    pub fn scores_with(
        &self,
        run: &Run,
        options: &ScoreOptions<'_>,
        ws: &mut GreedyWorkspace,
    ) -> Vec<f64> {
        let n = run.instance().n();
        let k = run.instance().k();
        let rate = options.slot_rate.or_else(|| self.resolved_rate(run));
        if let Fold::Exclude(exclude) = options.fold {
            assert_eq!(
                exclude.len(),
                run.results().len(),
                "GreedyDecoder: exclusion mask length must equal the query count"
            );
        }
        let winsorize = options.fold == Fold::Winsorize;
        ws.reset(n);
        for (j, q) in run.graph().queries().iter().enumerate() {
            if matches!(options.fold, Fold::Exclude(exclude) if exclude[j]) {
                continue;
            }
            // Per-query slot count, not the nominal Γ: identical for the
            // query-regular designs (Σ_{j∈∂*i} Γ = Δ*ᵢ·Γ), exact for ragged
            // designs such as the doubly regular scheme.
            let slots = q.total_slots();
            let Some(value) = admit(run.results()[j], slots, winsorize) else {
                continue;
            };
            for (a, c) in q.iter() {
                let mut fold = ws.fold(a as usize);
                fold.add(value, c, slots);
                ws.store(a as usize, fold);
            }
        }
        let scores: Vec<f64> = match rate {
            None => {
                let half_k = k as f64 / 2.0;
                (0..n)
                    .map(|i| ws.psi[i] - ws.distinct[i] as f64 * half_k)
                    .collect()
            }
            Some(rate) => (0..n).map(|i| ws.fold(i).centered(rate)).collect(),
        };
        if ws.sink.is_enabled() && k > 0 && k < n {
            // The margin between the last selected and first rejected
            // score: the same deterministic ranking `from_scores` uses.
            let ranked = top_k_indices(&scores, k + 1);
            let margin = scores[ranked[k - 1]] - scores[ranked[k]];
            ws.sink.emit(|| {
                npd_telemetry::Event::instant("greedy.scores")
                    .phase("greedy")
                    .u64("n", n as u64)
                    .u64("k", k as u64)
                    .f64("margin", margin)
            });
        }
        scores
    }

    /// The per-slot one-read rate the configured centering subtracts with
    /// (`None` for the plain `Δ*ᵢ·k/2` centering).
    fn resolved_rate(&self, run: &Run) -> Option<f64> {
        match self.centering {
            Centering::Plain => None,
            Centering::NoiseAware => Some(second_neighborhood_rate(
                run.instance().n(),
                run.instance().k(),
                run.instance().noise(),
            )),
        }
    }

    /// Noise-aware scores together with posterior log-odds scores, from
    /// one accumulation pass: the greedy neighborhood statistic folded
    /// with per-agent prior one-probabilities `πᵢ = P(σᵢ = 1)`.
    ///
    /// Algorithm 1 ranks by the centered neighborhood sum alone, which is
    /// the right rule only for an exchangeable (uniform `k`-subset) prior.
    /// Structured populations — community blocks, household clusters,
    /// heavy-tailed hubs (the `npd-workloads` models) — carry per-agent
    /// marginals, and the Bayes rule ranks by posterior log-odds instead.
    /// Under the Gaussian approximation to the noise-aware-centered score
    /// `Xᵢ` (means `Δᵢ·q` for zero-agents and `Δᵢ·(1−p)` for one-agents,
    /// common variance `vᵢ ≈ Δ*ᵢ·Var[σ̂]` estimated from the realized query
    /// results), the posterior log-odds are
    ///
    /// ```text
    /// λᵢ = ((Xᵢ − Δᵢ·q)·gᵢ − gᵢ²/2) / vᵢ + ln(πᵢ/(1−πᵢ)),   gᵢ = Δᵢ·(1−p−q)
    /// ```
    ///
    /// (`q = 0`, `g = Δᵢ` under the noiseless and Gaussian models). With a
    /// uniform prior and an agent-regular design (constant `Δᵢ`, `Δ*ᵢ`)
    /// this is a strictly monotone transform of the plain score, so the
    /// selection is unchanged; an informative prior shifts borderline
    /// agents by their prior log-odds, scaled by how little evidence the
    /// queries have accumulated on them. Prior-blind-vs-prior-aware
    /// comparisons need both rankings of the same run, hence the pair.
    ///
    /// # Panics
    ///
    /// Panics if `prior.len() != n` or any `πᵢ ∉ [0, 1]`.
    pub fn scores_with_posterior(&self, run: &Run, prior: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let n = run.instance().n();
        assert_eq!(
            prior.len(),
            n,
            "GreedyDecoder::scores_with_posterior: prior length must equal n"
        );
        let (p, q) = match *run.instance().noise() {
            crate::NoiseModel::Channel { p, q } => (p, q),
            crate::NoiseModel::Noiseless | crate::NoiseModel::Query { .. } => (0.0, 0.0),
        };
        let signal = 1.0 - p - q;
        let options = ScoreOptions {
            slot_rate: Some(second_neighborhood_rate(
                n,
                run.instance().k(),
                run.instance().noise(),
            )),
            ..ScoreOptions::default()
        };
        let mut ws = GreedyWorkspace::new();
        let scores = self.scores_with(run, &options, &mut ws);

        // Empirical per-query result variance: from any one agent's
        // viewpoint (conditioned on its own bit) a query result fluctuates
        // with both the channel noise and the second neighborhood, which is
        // exactly what the realized spread of σ̂ measures.
        let m = run.results().len().max(1) as f64;
        let mean = run.results().iter().sum::<f64>() / m;
        let var = (run
            .results()
            .iter()
            .map(|r| (r - mean).powi(2))
            .sum::<f64>()
            / m)
            .max(1e-9);

        let posterior = scores
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let pi = prior[i];
                assert!(
                    (0.0..=1.0).contains(&pi),
                    "GreedyDecoder::scores_with_posterior: prior[{i}]={pi} not a probability"
                );
                let pi = pi.clamp(1e-12, 1.0 - 1e-12);
                let log_odds = (pi / (1.0 - pi)).ln();
                let multi = ws.multi[i] as f64;
                let g = multi * signal;
                if g <= 0.0 {
                    // No own slots (or a fully inverting channel): the
                    // queries carry no evidence on this agent.
                    return log_odds;
                }
                let v = (f64::from(ws.distinct[i]) * var).max(1e-12);
                ((x - multi * q) * g - 0.5 * g * g) / v + log_odds
            })
            .collect();
        (scores, posterior)
    }
}

/// How each query result enters the fold of
/// [`GreedyDecoder::scores_with`].
///
/// Whatever the variant, a non-finite result is skipped exactly like an
/// excluded query: a measurement that is not a number carries no evidence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Fold<'a> {
    /// Every result as measured.
    #[default]
    Plain,
    /// Each result winsorized into its feasible range `[0, |∂aⱼ|]` before
    /// accumulation.
    ///
    /// A measurement legitimately reads at most one per slot, so clamping
    /// bounds the damage any single corrupted payload can do: every
    /// accumulated `Ψᵢ` stays within the clean-fold envelope
    /// `|Ψᵢ| ≤ Σ_{j∈∂*i} |∂aⱼ|`. This is the sequential mirror of the
    /// distributed protocol's winsorized fold
    /// ([`crate::distributed::ProtocolOptions::winsorize`]). Under the
    /// channel noise models clean results always lie inside the range, so
    /// winsorizing is a bit-identical no-op there; only the Gaussian model
    /// can legitimately graze the clamp.
    Winsorize,
    /// Flagged queries (`mask[j]`, one entry per query) excluded from the
    /// accumulation entirely.
    ///
    /// An excluded query contributes *nothing* — neither its result nor its
    /// degree terms — so the centering of the surviving queries is
    /// undisturbed: the score of an agent is exactly what it would be had
    /// the flagged queries never been asked. Winsorizing caps what a
    /// corrupted measurement can contribute, trimming removes measurements
    /// known (or suspected) to be corrupted — see
    /// [`crate::estimation::flag_corrupted_queries`] for a data-driven
    /// flagger and [`crate::estimation::decode_trimmed`] for the assembled
    /// pipeline.
    Exclude(&'a [bool]),
}

/// Options of [`GreedyDecoder::scores_with`]; the default reproduces
/// [`GreedyDecoder::scores`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScoreOptions<'a> {
    /// How each query result enters the fold.
    pub fold: Fold<'a>,
    /// Explicit per-slot one-read rate for the noise-aware centering, for
    /// when the channel parameters are *estimated* rather than known (see
    /// [`crate::estimation::estimate_slot_rate`] and, with a trimmed fold,
    /// [`crate::estimation::estimate_slot_rate_trimmed`]). `None` uses the
    /// decoder's [`Centering`].
    pub slot_rate: Option<f64>,
}

/// One agent's running sums of Algorithm 1's step I: `Ψᵢ`, the distinct
/// degree `Δ*ᵢ`, the multi-degree `Δᵢ`, and `Σ_{j∈∂*i} |∂aⱼ|` (equals
/// `Δ*ᵢ·Γ` on query-regular designs).
///
/// The sequential decoder and the protocol's agents both fold through this
/// type and [`admit`], so how a measurement becomes a score is decided in
/// one place and the two implementations agree bit for bit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct AgentFold {
    pub(crate) psi: f64,
    pub(crate) distinct: u32,
    pub(crate) multi: u64,
    pub(crate) slot_sum: u64,
}

impl AgentFold {
    /// Folds one admitted query result (see [`admit`]) from a query of
    /// `slots` slots that drew this agent `multiplicity` times.
    pub(crate) fn add(&mut self, value: f64, multiplicity: u32, slots: u32) {
        self.psi += value;
        self.distinct += 1;
        self.multi += u64::from(multiplicity);
        self.slot_sum += u64::from(slots);
    }

    /// The noise-aware score `Ψᵢ − (Σ_{j∈∂*i} |∂aⱼ| − Δᵢ)·rate` (see
    /// [`Centering::NoiseAware`]).
    pub(crate) fn centered(&self, rate: f64) -> f64 {
        let slots = (self.slot_sum - self.multi) as f64;
        self.psi - slots * rate
    }
}

/// The value a query result of a `slots`-slot query contributes to the
/// fold, or `None` if the query is skipped: non-finite results carry no
/// evidence and are dropped with their degree terms. With `winsorize` the
/// value is clamped into the feasible range `[0, slots]` ([`Fold::Winsorize`]).
pub(crate) fn admit(value: f64, slots: u32, winsorize: bool) -> Option<f64> {
    if !value.is_finite() {
        None
    } else if winsorize {
        Some(value.clamp(0.0, f64::from(slots)))
    } else {
        Some(value)
    }
}

/// Reusable accumulator buffers for [`GreedyDecoder::scores_with`].
///
/// Holds the per-agent fold state (`Ψ`, `Δ*`, `Δ`, slot sum) so sweeping
/// decoders do not reallocate it per trial.
#[derive(Debug, Clone, Default)]
pub struct GreedyWorkspace {
    // One buffer per `AgentFold` field rather than one buffer of structs:
    // at n = 2^14 the single 512 KiB buffer moved glibc's dynamic mmap
    // threshold and raised the sample-to-AMP pipeline's peak RSS by 12%.
    psi: Vec<f64>,
    distinct: Vec<u32>,
    multi: Vec<u64>,
    slot_sum: Vec<u64>,
    /// Telemetry handle (disabled by default): one `greedy.scores` event
    /// per scoring with the top-`k` selection margin.
    sink: npd_telemetry::TelemetrySink,
}

impl GreedyWorkspace {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a telemetry sink. Each subsequent scoring records one
    /// `greedy.scores` event carrying the score `margin` between the
    /// `k`-th and `(k+1)`-th ranked agents — the selection's robustness
    /// reserve against noise and message corruption. Computed serially
    /// after the fold, so the stream is bit-identical across thread
    /// counts.
    pub fn set_telemetry(&mut self, sink: npd_telemetry::TelemetrySink) {
        self.sink = sink;
    }

    fn reset(&mut self, n: usize) {
        resize_fill(&mut self.psi, n, 0.0);
        resize_fill(&mut self.distinct, n, 0);
        resize_fill(&mut self.multi, n, 0);
        resize_fill(&mut self.slot_sum, n, 0);
    }

    fn fold(&self, i: usize) -> AgentFold {
        AgentFold {
            psi: self.psi[i],
            distinct: self.distinct[i],
            multi: self.multi[i],
            slot_sum: self.slot_sum[i],
        }
    }

    fn store(&mut self, i: usize, fold: AgentFold) {
        self.psi[i] = fold.psi;
        self.distinct[i] = fold.distinct;
        self.multi[i] = fold.multi;
        self.slot_sum[i] = fold.slot_sum;
    }
}

/// Probability that one second-neighborhood slot reads as a one:
/// `q + k(1−p−q)/(n−1)` (Lemma 7's `p(0,1) + p(1,1)` with the indicator
/// dropped).
pub(crate) fn second_neighborhood_rate(n: usize, k: usize, noise: &crate::NoiseModel) -> f64 {
    let (p, q) = match *noise {
        crate::NoiseModel::Channel { p, q } => (p, q),
        crate::NoiseModel::Noiseless | crate::NoiseModel::Query { .. } => (0.0, 0.0),
    };
    q + k as f64 * (1.0 - p - q) / (n as f64 - 1.0)
}

impl Decoder for GreedyDecoder {
    fn decode(&self, run: &Run) -> Estimate {
        Estimate::from_scores(self.scores(run), run.instance().k())
    }

    fn name(&self) -> &'static str {
        "greedy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{GroundTruth, Instance};
    use crate::noise::NoiseModel;
    use crate::PoolingGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn noiseless_run(n: usize, k: usize, m: usize, seed: u64) -> Run {
        Instance::builder(n)
            .k(k)
            .queries(m)
            .build()
            .unwrap()
            .sample(&mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn estimate_from_scores_selects_top_k() {
        let est = Estimate::from_scores(vec![1.0, 5.0, 3.0, 5.0], 2);
        assert_eq!(est.ones(), &[1, 3]);
        assert_eq!(est.bits(), &[false, true, false, true]);
        assert_eq!(est.k(), 2);
        assert_eq!(est.n(), 4);
    }

    #[test]
    fn noiseless_recovery_with_generous_queries() {
        // Well above the Theorem-1 budget: recovery must be exact.
        for seed in 0..5 {
            let run = noiseless_run(300, 4, 400, seed);
            let est = GreedyDecoder::new().decode(&run);
            assert_eq!(est.ones(), run.ground_truth().ones(), "seed={seed} failed");
        }
    }

    #[test]
    fn z_channel_recovery_with_generous_queries() {
        let mut rng = StdRng::seed_from_u64(11);
        let run = Instance::builder(300)
            .k(4)
            .queries(600)
            .noise(NoiseModel::z_channel(0.2))
            .build()
            .unwrap()
            .sample(&mut rng);
        let est = GreedyDecoder::new().decode(&run);
        assert_eq!(est.ones(), run.ground_truth().ones());
    }

    #[test]
    fn too_few_queries_fail() {
        // With m = 1 query there is not enough information; the decoder
        // still returns a weight-k estimate but it is (almost surely) wrong.
        let run = noiseless_run(1000, 10, 1, 3);
        let est = GreedyDecoder::new().decode(&run);
        assert_eq!(est.k(), 10);
        assert_ne!(est.ones(), run.ground_truth().ones());
    }

    #[test]
    fn scores_reflect_ground_truth_gap() {
        // Average score of one-agents must exceed that of zero-agents by
        // Δ·(1 − γ) in the noiseless case: the agent's own bit adds Δ
        // (Equation (2) with p = q = 0), while the second neighborhood of a
        // one-agent contains k−1 rather than k ones, which removes
        // n_j/(n−1) ≈ γ·Δ at finite sizes.
        let run = noiseless_run(400, 5, 300, 7);
        let scores = GreedyDecoder::new().scores(&run);
        let truth = run.ground_truth();
        let (mut sum1, mut sum0) = (0.0, 0.0);
        for (i, &s) in scores.iter().enumerate() {
            if truth.is_one(i) {
                sum1 += s;
            } else {
                sum0 += s;
            }
        }
        let mean1 = sum1 / truth.k() as f64;
        let mean0 = sum0 / (truth.n() - truth.k()) as f64;
        let gap = mean1 - mean0;
        let delta = 300.0 / 2.0;
        let want = delta * (1.0 - npd_theory::GAMMA);
        assert!(
            (gap - want).abs() < want * 0.2,
            "gap={gap}, expected ≈ {want}"
        );
    }

    #[test]
    fn decode_on_figure1_instance() {
        // Figure 1 is an illustrative five-query instance, not a decodable
        // one: with Γ = 3 slots the neighborhood sums cannot separate all
        // three one-agents. The decoder must still rank the two strongly
        // covered one-agents (0 and 2) on top.
        let (graph, truth) = PoolingGraph::figure1_example();
        let instance = Instance::builder(7)
            .k(3)
            .queries(5)
            .query_size(3)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let results = graph.measure(&truth, &NoiseModel::Noiseless, &mut rng);
        let run = instance.assemble(truth, graph, results).unwrap();
        let est = GreedyDecoder::new().decode(&run);
        assert!(est.ones().contains(&0));
        assert!(est.ones().contains(&2));
        assert_eq!(est.k(), 3);
        // And the overlap metric sees at least 2 of the 3 ones.
        assert!(crate::evaluate::overlap(&est, run.ground_truth()) >= 2.0 / 3.0);
    }

    #[test]
    fn decoder_name() {
        assert_eq!(GreedyDecoder::new().name(), "greedy");
    }

    #[test]
    fn workspace_reuse_is_bit_identical_to_one_shot() {
        let decoder = GreedyDecoder::new();
        let mut ws = GreedyWorkspace::new();
        // Different sizes through one workspace, including shrinking.
        for (n, seed) in [(300usize, 0u64), (150, 1), (300, 2)] {
            let run = noiseless_run(n, 4, 250, seed);
            let fresh = decoder.scores(&run);
            let reused = decoder.scores_with(&run, &ScoreOptions::default(), &mut ws);
            assert!(
                fresh
                    .iter()
                    .zip(&reused)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "n={n} seed={seed}"
            );
        }
    }

    #[test]
    fn plain_centering_matches_printed_formula() {
        // Hand-check Algorithm 1's literal score Ψᵢ − Δ*ᵢ·k/2 on Figure 1.
        let (graph, truth) = PoolingGraph::figure1_example();
        let instance = Instance::builder(7)
            .k(3)
            .queries(5)
            .query_size(3)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let results = graph.measure(&truth, &NoiseModel::Noiseless, &mut rng);
        let run = instance.assemble(truth, graph, results).unwrap();
        let scores = GreedyDecoder::with_centering(Centering::Plain).scores(&run);
        // Agent 0: Ψ = 2+3 = 5, Δ* = 2 ⇒ 5 − 2·1.5 = 2.
        assert_eq!(scores[0], 2.0);
        // Agent 2: Ψ = 2+3+1 = 6, Δ* = 3 ⇒ 6 − 4.5 = 1.5.
        assert_eq!(scores[2], 1.5);
    }

    #[test]
    fn centerings_coincide_for_noiseless_ranking() {
        // With p = q = 0 both centerings subtract (asymptotically) the same
        // k/2-per-distinct-query term; on a concrete instance the *ranking*
        // must agree even if raw scores differ slightly.
        let run = noiseless_run(300, 4, 300, 42);
        let aware = GreedyDecoder::new().decode(&run);
        let plain = GreedyDecoder::with_centering(Centering::Plain).decode(&run);
        assert_eq!(aware.ones(), plain.ones());
    }

    #[test]
    fn noise_aware_centering_is_required_for_false_positives() {
        // The ablation behind DESIGN.md's centering discussion: at q = 0.1
        // the printed score fails long after the noise-aware score succeeds.
        let mut aware_hits = 0;
        let mut plain_hits = 0;
        let trials = 5;
        for seed in 0..trials {
            let mut rng = StdRng::seed_from_u64(900 + seed);
            let run = Instance::builder(316)
                .k(4)
                .queries(1500)
                .noise(NoiseModel::channel(0.1, 0.1))
                .build()
                .unwrap()
                .sample(&mut rng);
            let aware = GreedyDecoder::new().decode(&run);
            let plain = GreedyDecoder::with_centering(Centering::Plain).decode(&run);
            if aware.ones() == run.ground_truth().ones() {
                aware_hits += 1;
            }
            if plain.ones() == run.ground_truth().ones() {
                plain_hits += 1;
            }
        }
        assert!(
            aware_hits > plain_hits,
            "noise-aware {aware_hits}/{trials} vs plain {plain_hits}/{trials}"
        );
        assert!(aware_hits >= 4, "noise-aware centering should succeed here");
    }

    /// Default-decoder scores under the given fold.
    fn folded(run: &Run, fold: Fold<'_>) -> Vec<f64> {
        let options = ScoreOptions {
            fold,
            ..ScoreOptions::default()
        };
        GreedyDecoder::new().scores_with(run, &options, &mut GreedyWorkspace::new())
    }

    /// Rebuilds `run` with the given (e.g. tampered) result vector.
    fn with_results(run: &Run, results: Vec<f64>) -> Run {
        run.instance()
            .assemble(run.ground_truth().clone(), run.graph().clone(), results)
            .unwrap()
    }

    #[test]
    fn winsorized_scores_are_a_noop_on_channel_runs() {
        // Channel-model results always lie in [0, slots], so winsorizing
        // must not move a single bit.
        let run = noiseless_run(200, 3, 150, 9);
        let decoder = GreedyDecoder::new();
        let raw = decoder.scores(&run);
        let win = folded(&run, Fold::Winsorize);
        assert!(raw
            .iter()
            .zip(&win)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn winsorized_scores_clamp_out_of_range_results() {
        let run = noiseless_run(200, 3, 150, 10);
        let mut tampered = run.results().to_vec();
        tampered[7] = 1e6; // way beyond any slot count
        tampered[11] = -250.0; // below the floor
        let bad = with_results(&run, tampered.clone());

        let decoder = GreedyDecoder::new();
        let win = folded(&bad, Fold::Winsorize);
        assert_ne!(win, decoder.scores(&bad), "clamp never engaged");

        // Winsorizing is exactly "clamp first, then fold": pre-clamping the
        // results by hand and running the plain fold must agree bit for bit.
        let queries = run.graph().queries();
        for (j, v) in tampered.iter_mut().enumerate() {
            *v = v.clamp(0.0, queries[j].total_slots() as f64);
        }
        let clamped = decoder.scores(&with_results(&run, tampered));
        assert!(win
            .iter()
            .zip(&clamped)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn trimmed_scores_ignore_excluded_queries() {
        let run = noiseless_run(200, 3, 150, 12);
        let decoder = GreedyDecoder::new();
        let m = run.results().len();

        // An all-clear mask is the identity.
        let all_clear = folded(&run, Fold::Exclude(&vec![false; m]));
        assert!(decoder
            .scores(&run)
            .iter()
            .zip(&all_clear)
            .all(|(a, b)| a.to_bits() == b.to_bits()));

        // An excluded query's payload is irrelevant: garbling it arbitrarily
        // must not move the trimmed scores at all.
        let mut exclude = vec![false; m];
        exclude[3] = true;
        exclude[77] = true;
        let clean = folded(&run, Fold::Exclude(&exclude));
        let mut tampered = run.results().to_vec();
        tampered[3] = f64::MAX / 4.0;
        tampered[77] = -1e9;
        let garbled = folded(&with_results(&run, tampered), Fold::Exclude(&exclude));
        assert!(clean
            .iter()
            .zip(&garbled)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        // And trimming two of 150 generous queries must not break recovery.
        let est = Estimate::from_scores(clean, run.instance().k());
        assert_eq!(est.ones(), run.ground_truth().ones());
    }

    #[test]
    fn non_finite_results_fold_like_excluded_queries() {
        let run = noiseless_run(64, 2, 60, 5);
        let m = run.results().len();
        let mut exclude = vec![false; m];
        let mut tampered = run.results().to_vec();
        for (j, bad) in [(4, f64::NAN), (9, f64::INFINITY), (30, f64::NEG_INFINITY)] {
            exclude[j] = true;
            tampered[j] = bad;
        }
        let bad = with_results(&run, tampered);
        let skipped = GreedyDecoder::new().scores(&bad);
        assert!(skipped.iter().all(|s| s.is_finite()));
        let trimmed = folded(&run, Fold::Exclude(&exclude));
        assert!(skipped
            .iter()
            .zip(&trimmed)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(GreedyDecoder::new().decode(&bad).k(), 2);
    }

    #[test]
    #[should_panic(expected = "exclusion mask length")]
    fn trimmed_scores_reject_wrong_mask_length() {
        let run = noiseless_run(50, 2, 40, 1);
        folded(&run, Fold::Exclude(&[false; 3]));
    }

    #[test]
    fn decoder_is_object_safe() {
        let decoders: Vec<Box<dyn Decoder>> = vec![Box::new(GreedyDecoder::new())];
        let run = noiseless_run(100, 2, 80, 0);
        for d in &decoders {
            let est = d.decode(&run);
            assert_eq!(est.k(), 2);
        }
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Estimate invariants hold for arbitrary score vectors.
            #[test]
            fn estimate_invariants(
                scores in proptest::collection::vec(-100.0f64..100.0, 1..60),
                pick in 0usize..60,
            ) {
                let k = pick % scores.len();
                let est = Estimate::from_scores(scores.clone(), k);
                prop_assert_eq!(est.k(), k);
                prop_assert_eq!(est.n(), scores.len());
                prop_assert!(est.ones().windows(2).all(|w| w[0] < w[1]));
                prop_assert_eq!(
                    est.bits().iter().filter(|&&b| b).count(),
                    k
                );
                // Every selected agent scores at least as high as every
                // unselected one.
                let min_sel = est
                    .ones()
                    .iter()
                    .map(|&i| scores[i as usize])
                    .fold(f64::INFINITY, f64::min);
                let max_unsel = est
                    .bits()
                    .iter()
                    .enumerate()
                    .filter(|(_, &b)| !b)
                    .map(|(i, _)| scores[i])
                    .fold(f64::NEG_INFINITY, f64::max);
                if k > 0 && k < scores.len() {
                    prop_assert!(min_sel >= max_unsel);
                }
            }

            /// Decoding always returns a weight-k estimate, whatever the
            /// noise realization.
            #[test]
            fn decode_weight_is_k(seed in 0u64..150, m in 1usize..40) {
                let run = Instance::builder(50)
                    .k(3)
                    .queries(m)
                    .noise(NoiseModel::gaussian(2.0))
                    .build()
                    .unwrap()
                    .sample(&mut StdRng::seed_from_u64(seed));
                let est = GreedyDecoder::new().decode(&run);
                prop_assert_eq!(est.k(), 3);
                prop_assert_eq!(est.scores().len(), 50);
            }
        }
    }

    #[test]
    fn permutation_equivariance() {
        // Relabeling agents permutes the estimate identically: decode on a
        // graph with relabeled agents and compare.
        let n = 60;
        let mut rng = StdRng::seed_from_u64(21);
        let instance = Instance::builder(n).k(3).queries(40).build().unwrap();
        let run = instance.sample(&mut rng);

        // Build the relabeled run: agent i -> (i + 7) mod n.
        let shift = |a: u32| ((a as usize + 7) % n) as u32;
        let slot_lists: Vec<Vec<u32>> = run
            .graph()
            .queries()
            .iter()
            .map(|q| {
                let mut slots = Vec::new();
                for (agent, count) in q.iter() {
                    for _ in 0..count {
                        slots.push(shift(agent));
                    }
                }
                slots
            })
            .collect();
        let graph2 = PoolingGraph::from_slot_lists(n, slot_lists);
        let mut bits2 = vec![false; n];
        for &o in run.ground_truth().ones() {
            bits2[shift(o) as usize] = true;
        }
        let truth2 = GroundTruth::from_bits(bits2);
        let run2 = instance
            .assemble(truth2, graph2, run.results().to_vec())
            .unwrap();

        let est1 = GreedyDecoder::new().decode(&run);
        let est2 = GreedyDecoder::new().decode(&run2);
        let mut mapped: Vec<u32> = est1.ones().iter().map(|&a| shift(a)).collect();
        mapped.sort_unstable();
        assert_eq!(mapped, est2.ones());
    }
}
