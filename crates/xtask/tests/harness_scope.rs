//! The harness scope: test, bench and example files are always checked
//! for the ordering hazards that matter in determinism-pinning tests
//! (`hash-iteration`, `wall-clock`) and only for those.

use std::path::{Path, PathBuf};

use xtask::engine;
use xtask::rules::{FileContext, FileKind, Finding};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

/// Checks `path` the way the workspace walk checks a root `tests/` file.
fn check_as_test(path: &Path) -> Vec<Finding> {
    let ctx = FileContext {
        crate_name: "noisy_pooled_data".to_string(),
        kind: FileKind::TestLike,
    };
    let src = std::fs::read_to_string(path).expect("file readable");
    engine::check_source(&ctx, &src).0
}

#[test]
fn harness_scope_applies_hash_and_clock_rules_to_test_files() {
    // An explicit path is checked as strict library code; a test-like
    // context gets only the harness subset. The bad fixtures double as
    // "test files" here.
    let hash = check_as_test(&fixture("bad/hash_iteration.rs"));
    assert!(hash.iter().all(|f| f.rule == "hash-iteration"), "{hash:?}");
    assert!(!hash.is_empty());

    let clock = check_as_test(&fixture("bad/wall_clock.rs"));
    assert!(clock.iter().all(|f| f.rule == "wall-clock"), "{clock:?}");
    assert!(!clock.is_empty());

    // Rules outside the harness subset must NOT apply to test files:
    // unwrap is the designed failure mode of a broken test.
    let unwrap = check_as_test(&fixture("bad/unwrap_audit.rs"));
    assert!(
        unwrap.is_empty(),
        "unwrap-audit must not fire in harness scope: {unwrap:?}"
    );
}

#[test]
fn pinning_test_files_pass_the_harness_bar() {
    // The determinism replay suite and the static-contract pins are
    // themselves free of ordering hazards.
    for rel in ["tests/determinism.rs", "tests/static_contract.rs"] {
        let findings = check_as_test(&root().join(rel));
        assert!(
            findings.is_empty(),
            "{rel} uses ordering hazards: {findings:?}"
        );
    }
}

/// Root-relative paths of every `.rs` file below `dir`, skipping build
/// output, hidden directories and the rule fixtures.
fn rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).expect("directory readable") {
        let path = entry.expect("entry readable").path();
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
        let name = name.unwrap_or_default();
        if path.is_dir() {
            if name != "target" && name != "fixtures" && !name.starts_with('.') {
                rs_files(root, &path, out);
            }
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).expect("below the root");
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
}

#[test]
fn whole_workspace_passes_the_harness_sweep() {
    // Beyond the two pinning files: every test, bench and example in the
    // tree is classified test-like and, checked on its own under that
    // context, is free of the hash-iteration and wall-clock hazards.
    let root = root();
    let mut rels = Vec::new();
    rs_files(&root, &root, &mut rels);
    rels.sort();
    let mut swept = Vec::new();
    for rel in &rels {
        let ctx = FileContext::classify(rel).expect("non-fixture files are classified");
        if ctx.kind != FileKind::TestLike {
            continue;
        }
        let src = std::fs::read_to_string(root.join(rel)).expect("file readable");
        let (findings, _) = engine::check_source(&ctx, &src);
        assert!(
            findings.is_empty(),
            "{rel} uses ordering hazards: {findings:?}"
        );
        swept.push(rel.as_str());
    }
    for pinned in ["tests/determinism.rs", "tests/static_contract.rs"] {
        assert!(swept.contains(&pinned), "{pinned} not swept: {swept:?}");
    }
    assert!(swept.len() > 40, "only {} harness files swept", swept.len());
}

#[test]
fn workspace_walk_checks_test_files_without_a_flag() {
    let outcome =
        engine::check_workspace(&fixture("bad/harness_scope")).expect("fixture tree readable");
    // The mini workspace has no docs, so `contract-sync` reports them
    // missing; everything else is the pinning test's `HashMap`.
    let file_findings: Vec<(&str, &str)> = outcome
        .reports
        .iter()
        .filter(|r| r.finding.rule != "contract-sync")
        .map(|r| (r.file.as_str(), r.finding.rule))
        .collect();
    assert_eq!(
        file_findings,
        [("tests/replay.rs", "hash-iteration")],
        "{:?}",
        outcome.reports
    );
}
