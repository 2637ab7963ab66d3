//! Fixture-driven self-tests of `xtask analyze` — every token rule and
//! every parser rule against its known-bad snippet, the traps that must
//! stay clean, the binary's exit codes and JSON report — plus the
//! workspace self-check: the real tree must pass its own contract.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use xtask::engine::{self, LintOutcome};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn check(name: &str) -> LintOutcome {
    engine::check_paths(&[fixture(name)]).expect("fixture readable")
}

/// Finding count per rule.
fn rules_hit(outcome: &LintOutcome) -> Vec<(&str, usize)> {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for r in &outcome.reports {
        *counts.entry(r.finding.rule).or_default() += 1;
    }
    counts.into_iter().collect()
}

fn messages(outcome: &LintOutcome) -> Vec<&str> {
    outcome
        .reports
        .iter()
        .map(|r| r.finding.message.as_str())
        .collect()
}

/// Runs the real `xtask` binary and returns (exit code, stdout, stderr).
fn run_binary(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(args)
        .output()
        .expect("xtask binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn hash_iteration_fixture_is_flagged() {
    // The `use`, the type annotation, and both constructor mentions.
    assert_eq!(
        rules_hit(&check("bad/hash_iteration.rs")),
        [("hash-iteration", 3)]
    );
}

#[test]
fn wall_clock_fixture_is_flagged() {
    // `use … {Instant, SystemTime}` contributes one SystemTime mention,
    // the body one `Instant::now` and one `SystemTime` each.
    assert_eq!(rules_hit(&check("bad/wall_clock.rs")), [("wall-clock", 3)]);
}

#[test]
fn thread_observable_fixture_is_flagged() {
    assert_eq!(
        rules_hit(&check("bad/thread_observable.rs")),
        [("thread-observable", 3)]
    );
}

#[test]
fn shared_rng_fixture_is_flagged() {
    let outcome = check("bad/shared_rng.rs");
    // One &mut capture + one direct method call; the direct call captures
    // the `rng` parameter, which `rng-provenance` flags as well.
    assert_eq!(
        rules_hit(&outcome),
        [("rng-provenance", 1), ("shared-rng", 2)],
        "{:?}",
        outcome.reports
    );
}

#[test]
fn unwrap_audit_fixture_is_flagged() {
    // `unwrap_or` must not count.
    assert_eq!(
        rules_hit(&check("bad/unwrap_audit.rs")),
        [("unwrap-audit", 2)]
    );
}

#[test]
fn allow_misuse_fixture_is_flagged() {
    let outcome = check("bad/stale_allow.rs");
    assert_eq!(rules_hit(&outcome), [("allow-audit", 3)]);
    let messages = messages(&outcome);
    assert!(messages.iter().any(|m| m.contains("unknown rule")));
    assert!(messages.iter().any(|m| m.contains("no justification")));
    assert!(messages.iter().any(|m| m.contains("suppresses nothing")));
}

#[test]
fn rng_provenance_fixture_is_flagged() {
    let outcome = check("bad/rng_provenance.rs");
    // Early return between draws, ambient thread_rng, direct closure
    // capture, and the FnDb-resolved call-argument capture; the direct
    // capture is named `rng`, so `shared-rng` flags it too.
    assert_eq!(
        rules_hit(&outcome),
        [("rng-provenance", 4), ("shared-rng", 1)],
        "{:?}",
        outcome.reports
    );
    let messages = messages(&outcome);
    assert!(messages.iter().any(|m| m.contains("returns between draws")));
    assert!(messages.iter().any(|m| m.contains("ambient thread RNG")));
    assert!(messages
        .iter()
        .any(|m| m.contains("crosses a rayon closure")));
    assert!(
        messages
            .iter()
            .any(|m| m.contains("passed to `sample_one`")),
        "the fn database must resolve the innocuously-named capture"
    );
}

#[test]
fn float_order_fixture_is_flagged() {
    // Untyped `.sum()`, explicit `.sum::<f64>()`, and `.reduce(...)`.
    assert_eq!(
        rules_hit(&check("bad/float_order.rs")),
        [("float-order", 3)]
    );
}

#[test]
fn impl_purity_fixture_is_flagged() {
    let outcome = check("bad/impl_purity.rs");
    // Wall clock in a PoolingDesign, env read in a PopulationModel, and a
    // mutable static in a NoiseModel; the `SystemTime` import and read
    // are `wall-clock` findings as well.
    assert_eq!(
        rules_hit(&outcome),
        [("impl-purity", 3), ("wall-clock", 2)],
        "{:?}",
        outcome.reports
    );
}

#[test]
fn clock_boundary_fixture_is_flagged() {
    let outcome = check("bad/clock_boundary.rs");
    // Instant::now, SystemTime, and a stored-origin .elapsed() — the
    // constant SteadyClock impl must not be flagged. The `use` and both
    // real-time reads are `wall-clock` findings as well.
    assert_eq!(
        rules_hit(&outcome),
        [("clock-boundary", 3), ("wall-clock", 3)],
        "{:?}",
        outcome.reports
    );
    let boundary: Vec<&str> = outcome
        .reports
        .iter()
        .filter(|r| r.finding.rule == "clock-boundary")
        .map(|r| r.finding.message.as_str())
        .collect();
    assert!(boundary.iter().all(|m| m.contains("contract rule 11")));
    assert!(boundary
        .iter()
        .any(|m| m.contains("the monotonic wall clock")));
    assert!(boundary.iter().any(|m| m.contains("the system clock")));
    assert!(boundary
        .iter()
        .any(|m| m.contains("a stored wall-clock origin")));
}

#[test]
fn comment_string_and_test_traps_stay_clean() {
    let outcome = check("clean/traps.rs");
    assert!(
        outcome.reports.is_empty(),
        "false positives: {:?}",
        outcome.reports
    );
}

#[test]
fn analyzer_traps_stay_clean() {
    let outcome = check("clean/analyze_traps.rs");
    assert!(
        outcome.reports.is_empty(),
        "false positives: {:?}",
        outcome.reports
    );
}

#[test]
fn justified_allows_stay_clean_and_count_as_used() {
    let outcome = check("clean/allowed.rs");
    assert!(
        outcome.reports.is_empty(),
        "false positives: {:?}",
        outcome.reports
    );
    assert_eq!(outcome.allows_used, 3);
}

#[test]
fn binary_exits_nonzero_on_every_bad_fixture() {
    for name in [
        "bad/hash_iteration.rs",
        "bad/wall_clock.rs",
        "bad/thread_observable.rs",
        "bad/shared_rng.rs",
        "bad/unwrap_audit.rs",
        "bad/stale_allow.rs",
        "bad/rng_provenance.rs",
        "bad/float_order.rs",
        "bad/impl_purity.rs",
        "bad/clock_boundary.rs",
    ] {
        let path = fixture(name);
        let (code, stdout, _) = run_binary(&["analyze", path.to_str().expect("utf-8 path")]);
        assert_eq!(
            code,
            Some(1),
            "{name} must fail the check; stdout:\n{stdout}"
        );
    }
}

#[test]
fn binary_rejects_the_retired_lint_subcommand() {
    // A script still calling the old token-only subcommand must fail
    // loudly instead of passing without checking anything.
    let (code, _, stderr) = run_binary(&["lint"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown subcommand `lint`"), "{stderr}");
    assert!(
        stderr.contains("usage: cargo run -p xtask -- analyze"),
        "{stderr}"
    );
}

#[test]
fn binary_json_report_is_machine_readable() {
    let path = fixture("bad/float_order.rs");
    let (code, stdout, _) = run_binary(&["analyze", "--json", path.to_str().expect("utf-8 path")]);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("\"schema\": 1"), "{stdout}");
    assert!(stdout.contains("\"tool\": \"analyze\""), "{stdout}");
    assert!(stdout.contains("\"rule\": \"float-order\""), "{stdout}");
    assert!(
        stdout.contains("\"per_rule\": {\"float-order\": 3}"),
        "{stdout}"
    );
    assert!(stdout.contains("\"ok\": false"), "{stdout}");
}

#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists");
    let outcome = engine::check_workspace(&root).expect("workspace readable");
    assert!(
        outcome.reports.is_empty(),
        "the workspace violates its own determinism contract:\n{}",
        engine::render_text(&outcome)
    );
    // The walk really covered the tree (fixtures are the only skips), and
    // the annotated escapes documented in ARCHITECTURE.md are live.
    assert!(outcome.files > 150, "only {} files scanned", outcome.files);
    assert!(outcome.allows_used >= 20, "allows: {}", outcome.allows_used);
}
