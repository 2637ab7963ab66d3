//! Tiny-shape (n = 2^8) runs of the benchmark binary: every metric that
//! `BENCHMARK.json` names is printed with its unit, no trial fails, and
//! every deterministic count repeats exactly across runs and thread counts.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["paper-n14", "gossip-n14", "batcher-n14"];

/// Metrics that are functions of the seed list alone.
const DETERMINISTIC: &[&str] = &[
    "exact_rate",
    "overlap",
    "exact_rate.amp",
    "overlap.amp",
    "msgs_per_trial",
    "rounds_per_trial",
    "payload_mb_per_trial",
    "design.slots",
    "measure.queries",
    "amp.prepare.nnz",
    "amp.prepare.bytes",
    "amp.iterate.iters",
    "amp.iterate.bytes_per_iter",
    "amp.iterate.converged_rate",
    "protocol.msgs.measure",
    "protocol.msgs.select",
    "protocol.msgs.assign",
    "protocol.rounds.select",
    "protocol.probes",
    "protocol.sort_depth",
    "protocol.peak_in_flight",
    "protocol.stale",
    "protocol.select_msgs_per_agent",
];

struct Output {
    /// `metric <name> <value> <unit>` lines, value kept as printed.
    metrics: BTreeMap<String, (String, String)>,
    /// The final JSON line.
    result: String,
}

fn run(workload: &str, trace: bool, threads: usize) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.05"])
        .args(["--trace", if trace { "1" } else { "0" }, "--shape", "tiny"])
        .env("RAYON_NUM_THREADS", threads.to_string())
        .output()
        .expect("the benchmark binary runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut metrics = BTreeMap::new();
    for line in stdout.lines() {
        let parts: Vec<&str> = line.split(' ').collect();
        if let ["metric", name, value, unit] = parts[..] {
            metrics.insert(name.to_string(), (value.to_string(), unit.to_string()));
        }
    }
    let result = stdout.lines().last().expect("a result line").to_string();
    Output { metrics, result }
}

/// `(name, unit)` of every entry in one metric list of `BENCHMARK.json`.
fn benchmark_metrics(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn every_benchmark_metric_is_printed_with_its_unit() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let expected = benchmark_metrics(section);
        assert!(!expected.is_empty(), "{section} lists metrics");
        for workload in WORKLOADS {
            let out = run(workload, trace, 2);
            assert!(
                out.result.starts_with("{\"correct\": true, ")
                    && out.result.contains("\"failed\": 0,"),
                "{workload}: {}",
                out.result
            );
            assert_eq!(out.metrics["fail_rate"].0, "0", "{workload} fail_rate");
            for (name, unit) in &expected {
                let key = format!("\"{name}\": {{\"value\": ");
                let at = out
                    .result
                    .find(&key)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing from the result"));
                let tail = &out.result[at + key.len()..];
                let value = &tail[..tail.find(',').expect("value then unit")];
                assert!(value.parse::<f64>().is_ok(), "{workload}: {name} = {value}");
                assert!(
                    tail.starts_with(&format!("{value}, \"unit\": \"{unit}\"}}")),
                    "{workload}: {name} unit"
                );
                assert_eq!(&out.metrics[name].1, unit, "{workload}: {name} report unit");
            }
            let specific: &[&str] = if workload == "paper-n14" {
                &["exact_rate.amp", "overlap.amp"]
            } else {
                &["msgs_per_trial", "rounds_per_trial", "payload_mb_per_trial"]
            };
            for name in specific
                .iter()
                .chain(&["exact_rate", "fail_rate", "trial_s.samples"])
            {
                assert!(
                    out.metrics.contains_key(*name),
                    "{workload}: {name} printed"
                );
            }
        }
    }
}

#[test]
fn deterministic_metrics_repeat_across_runs_and_thread_counts() {
    for workload in WORKLOADS {
        let runs = [
            run(workload, true, 2),
            run(workload, true, 2),
            run(workload, true, 1),
        ];
        for name in DETERMINISTIC {
            let first = runs[0].metrics.get(*name);
            if first.is_none() {
                assert!(
                    name.ends_with(".amp") || name.ends_with("_per_trial"),
                    "{workload}: {name} missing"
                );
            }
            for other in &runs[1..] {
                assert_eq!(first, other.metrics.get(*name), "{workload}: {name}");
            }
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no-such",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
