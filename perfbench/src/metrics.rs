//! Turns a run's trial records and spans into named metrics with units.

use crate::trace::Span;
use crate::workload::{Counts, Shape, Workload};
use std::collections::BTreeMap;

/// One trial of the measured loop.
#[derive(Debug, Clone, Copy)]
pub struct TrialRecord {
    /// Trial index within the run (the span `trial` id).
    pub index: u32,
    /// Position of its seed in the seed list.
    pub seed_index: usize,
    /// Whether layer spans were recorded.
    pub traced: bool,
    /// Wall time of the trial.
    pub seconds: f64,
    /// The trial completed and passed its checks.
    pub ok: bool,
}

/// Everything a run measured.
pub struct Summary {
    /// The workload run.
    pub workload: Workload,
    /// Its shape.
    pub shape: Shape,
    /// The base seed.
    pub seed: u64,
    /// Worker threads of the parallel layers.
    pub threads: usize,
    /// Duration of each set-up (build + warm-up trial).
    pub setup_s: Vec<f64>,
    /// The measured trials in run order.
    pub trials: Vec<TrialRecord>,
    /// Counts of each seed's first, fully checked trial.
    pub first_pass: Vec<Option<Counts>>,
    /// Layer spans of the traced trials.
    pub spans: Vec<Span>,
}

/// End-to-end metrics of the `--trace 0` result line, as `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("trials_per_s", "1/s"),
    ("trial_s.p50", "s"),
    ("trial_s.p90", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("overlap", "fraction"),
];

/// Per-layer metrics of the `--trace 1` result line, as `(name, unit)`.
/// Layer times are here only for the layers every workload runs; the
/// others appear as shares and counts (which are 0 where a workload does
/// not run the layer) and are printed with their times in the report.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("design.s", "s"),
    ("design.share", "fraction"),
    ("design.slots", "count"),
    ("design.ns_per_slot", "ns"),
    ("measure.s", "s"),
    ("measure.share", "fraction"),
    ("measure.queries", "count"),
    ("measure.ns_per_slot", "ns"),
    ("greedy.share", "fraction"),
    ("select.share", "fraction"),
    ("amp.prepare.share", "fraction"),
    ("amp.prepare.nnz", "count"),
    ("amp.prepare.bytes", "B"),
    ("amp.iterate.share", "fraction"),
    ("amp.iterate.iters", "count"),
    ("amp.iterate.bytes_per_iter", "B"),
    ("amp.iterate.converged_rate", "fraction"),
    ("protocol.share", "fraction"),
    ("protocol.build.share", "fraction"),
    ("protocol.msgs.measure", "count"),
    ("protocol.msgs.select", "count"),
    ("protocol.msgs.assign", "count"),
    ("protocol.rounds.select", "count"),
    ("protocol.probes", "count"),
    ("protocol.sort_depth", "count"),
    ("protocol.peak_in_flight", "count"),
    ("protocol.stale", "count"),
    ("protocol.select_msgs_per_agent", "count"),
    ("netsim.measure.share", "fraction"),
    ("netsim.accumulate.share", "fraction"),
    ("netsim.select.share", "fraction"),
    ("netsim.assign.share", "fraction"),
    ("unattributed.s", "s"),
    ("trace.overhead", "s"),
];

/// A deterministic per-trial quantity, read off a trial's [`Counts`].
type Field = fn(&Counts) -> f64;

/// Which workloads report a quality or cost metric.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Scope {
    All,
    Sequential,
    Protocol,
}

/// Recovery quality and protocol cost, averaged over the seed list and
/// printed on every run of the workloads in scope.
const QUALITY: &[(&str, &str, Scope, Field)] = &[
    ("exact_rate", "fraction", Scope::All, |c| flag(c.exact)),
    ("overlap", "fraction", Scope::All, |c| c.overlap),
    ("exact_rate.amp", "fraction", Scope::Sequential, |c| {
        flag(c.amp_exact)
    }),
    ("overlap.amp", "fraction", Scope::Sequential, |c| {
        c.amp_overlap
    }),
    ("msgs_per_trial", "count", Scope::Protocol, |c| {
        c.msgs as f64
    }),
    ("rounds_per_trial", "count", Scope::Protocol, |c| {
        c.rounds as f64
    }),
    ("payload_mb_per_trial", "MB", Scope::Protocol, |c| {
        c.payload_bytes as f64 * 1e-6
    }),
];

/// Per-layer counts, averaged over the seed list and printed by traced
/// runs (0 where the workload does not run the layer).
const LAYER_COUNTS: &[(&str, &str, Field)] = &[
    ("design.slots", "count", |c| c.slots as f64),
    ("measure.queries", "count", |c| c.queries as f64),
    ("amp.prepare.nnz", "count", |c| c.nnz as f64),
    ("amp.prepare.bytes", "B", |c| c.csr_bytes as f64),
    ("amp.iterate.iters", "count", |c| c.amp_iters as f64),
    ("amp.iterate.bytes_per_iter", "B", |c| {
        c.amp_bytes_per_iter as f64
    }),
    ("amp.iterate.converged_rate", "fraction", |c| {
        flag(c.amp_converged)
    }),
    ("protocol.msgs.measure", "count", |c| c.msgs_measure as f64),
    ("protocol.msgs.select", "count", |c| c.msgs_select as f64),
    ("protocol.msgs.assign", "count", |c| c.msgs_assign as f64),
    ("protocol.rounds.select", "count", |c| {
        c.rounds_select as f64
    }),
    ("protocol.probes", "count", |c| c.probes as f64),
    ("protocol.sort_depth", "count", |c| c.sort_depth as f64),
    ("protocol.peak_in_flight", "count", |c| {
        c.peak_in_flight as f64
    }),
    ("protocol.stale", "count", |c| c.stale as f64),
    ("protocol.select_msgs_per_agent", "count", |c| {
        c.msgs_select as f64 / c.agents as f64
    }),
];

/// The layers the benchmark times directly, in pipeline order.
const LAYERS: [&str; 7] = [
    "design",
    "measure",
    "greedy",
    "select",
    "amp.prepare",
    "amp.iterate",
    "protocol",
];

/// The protocol's round-engine phases (children of `protocol`).
const NETSIM: [&str; 4] = [
    "netsim.measure",
    "netsim.accumulate",
    "netsim.select",
    "netsim.assign",
];

/// A run's metrics, ready to print.
pub struct Report {
    header: Vec<String>,
    metrics: BTreeMap<String, (f64, &'static str)>,
    attempted: usize,
    failed: usize,
    traced: bool,
}

impl Report {
    /// Computes every metric of a run.
    pub fn new(s: &Summary) -> Self {
        let attempted = s.trials.len();
        let failed = s.trials.iter().filter(|t| !t.ok).count();
        let traced = s.trials.iter().any(|t| t.traced);
        let mut r = Report {
            header: vec![
                format!("workload {}", s.workload),
                format!("shape {:?} n={}", s.shape, s.shape.n()),
                format!("seed {} ({} instance seeds)", s.seed, s.first_pass.len()),
                format!("loop closed, clients 1, threads {}", s.threads),
            ],
            metrics: BTreeMap::new(),
            attempted,
            failed,
            traced,
        };

        let untraced = ok_seconds(s, false);
        let busy_s: f64 = untraced.iter().sum();
        r.put("trials_per_s", untraced.len() as f64 / busy_s, "1/s");
        r.put("trial_s.p50", quantile(&untraced, 0.5), "s");
        r.put("trial_s.p90", quantile(&untraced, 0.9), "s");
        r.put("trial_s.samples", untraced.len() as f64, "count");
        r.put("setup_s", quantile(&s.setup_s, 0.5), "s");
        r.put("peak_rss_mb", peak_rss_mb(), "MB");
        let fail_rate = failed as f64 / attempted.max(1) as f64;
        r.put("fail_rate", fail_rate, "fraction");

        let firsts: Vec<Counts> = s.first_pass.iter().flatten().copied().collect();
        let mean = |f: Field| firsts.iter().map(f).sum::<f64>() / firsts.len().max(1) as f64;
        let scope = if s.workload.strategy().is_some() {
            Scope::Protocol
        } else {
            Scope::Sequential
        };
        for &(name, unit, applies, f) in QUALITY {
            if applies == Scope::All || applies == scope {
                r.put(name, mean(f), unit);
            }
        }
        if !traced {
            return r;
        }
        for &(name, unit, f) in LAYER_COUNTS {
            r.put(name, mean(f), unit);
        }

        // Layer busy time per traced trial, from its spans.
        let mut busy: BTreeMap<u32, BTreeMap<&str, f64>> = BTreeMap::new();
        for span in &s.spans {
            *busy
                .entry(span.trial)
                .or_default()
                .entry(span.name)
                .or_default() += span.seconds();
        }
        let traced_trials: Vec<TracedTrial> = s
            .trials
            .iter()
            .filter(|t| t.ok && t.traced)
            .map(|t| TracedTrial {
                seconds: t.seconds,
                counts: s.first_pass[t.seed_index].unwrap_or_default(),
                busy: busy.remove(&t.index).unwrap_or_default(),
            })
            .collect();
        let total: f64 = traced_trials.iter().map(|t| t.seconds).sum();
        let per_trial =
            |f: &dyn Fn(&TracedTrial) -> f64| traced_trials.iter().map(f).collect::<Vec<f64>>();
        let mut layers: Vec<(String, Vec<f64>)> = LAYERS
            .iter()
            .chain(&NETSIM)
            .map(|&name| (name.to_string(), per_trial(&|t| t.get(name))))
            .collect();
        layers.push((
            "protocol.build".into(),
            per_trial(&|t| t.get("protocol") - t.sum(&NETSIM)),
        ));
        layers.push((
            "unattributed".into(),
            per_trial(&|t| t.seconds - t.sum(&LAYERS)),
        ));
        for (name, times) in layers {
            r.put(&format!("{name}.s"), quantile(&times, 0.5), "s");
            let share = times.iter().sum::<f64>() / total;
            r.put(&format!("{name}.share"), share, "fraction");
        }
        let per_slot = |layer: &'static str| {
            per_trial(&|t: &TracedTrial| t.get(layer) / t.counts.slots as f64 * 1e9)
        };
        let rates = [
            ("design.ns_per_slot", "ns", per_slot("design")),
            ("measure.ns_per_slot", "ns", per_slot("measure")),
            ("greedy.ns_per_slot", "ns", per_slot("greedy")),
            (
                "amp.iterate.ms_per_iter",
                "ms",
                per_trial(&|t| t.get("amp.iterate") / t.counts.amp_iters.max(1) as f64 * 1e3),
            ),
            (
                "netsim.ns_per_msg",
                "ns",
                per_trial(&|t| t.sum(&NETSIM) / t.counts.msgs.max(1) as f64 * 1e9),
            ),
        ];
        for (name, unit, values) in rates {
            r.put(name, quantile(&values, 0.5), unit);
        }
        let traced_p50 = quantile(&ok_seconds(s, true), 0.5);
        r.put("trace.overhead", traced_p50 - r.value("trial_s.p50"), "s");
        r
    }

    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(f64::NAN, |m| m.0)
    }

    /// Human-readable lines: run description, then every metric.
    pub fn lines(&self) -> Vec<String> {
        let mut out = self.header.clone();
        out.push(format!(
            "attempted {} failed {}",
            self.attempted, self.failed
        ));
        for (name, (value, unit)) in &self.metrics {
            out.push(format!("metric {name} {value} {unit}"));
        }
        out
    }

    /// The result line: end-to-end metrics, or per-layer ones when traced.
    pub fn json(&self, per_layer: bool) -> String {
        let list = if per_layer { PER_LAYER } else { END_TO_END };
        let mut correct = self.failed == 0 && self.attempted > 0 && per_layer == self.traced;
        let mut fields = Vec::with_capacity(list.len());
        for &(name, unit) in list {
            let value = self.value(name);
            if !value.is_finite() {
                correct = false;
            }
            let value = if value.is_finite() { value } else { 0.0 };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }
}

/// A passing traced trial with its seed's counts and its layer busy times.
struct TracedTrial<'a> {
    seconds: f64,
    counts: Counts,
    busy: BTreeMap<&'a str, f64>,
}

impl TracedTrial<'_> {
    /// Busy seconds of one layer (0 if the trial did not run it).
    fn get(&self, layer: &str) -> f64 {
        self.busy.get(layer).copied().unwrap_or(0.0)
    }

    /// Busy seconds of several layers.
    fn sum(&self, layers: &[&str]) -> f64 {
        layers.iter().map(|l| self.get(l)).sum()
    }
}

/// Wall times of the passing trials, traced or not.
fn ok_seconds(s: &Summary, traced: bool) -> Vec<f64> {
    s.trials
        .iter()
        .filter(|t| t.ok && t.traced == traced)
        .map(|t| t.seconds)
        .collect()
}

/// Linearly interpolated quantile (`q` in `[0, 1]`); NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn flag(b: bool) -> f64 {
    f64::from(u8::from(b))
}

/// Peak resident set size of this process (Linux `VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}
