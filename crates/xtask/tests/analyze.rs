//! The `xtask analyze` binary end to end: its exit codes and text report
//! on the parser-rule fixtures, one schema-versioned JSON report for the
//! token and the parser rule families, and the default workspace run
//! that CI invokes. The per-rule fixture counts live in `tests/lint.rs`.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Runs the real `xtask` binary in `dir` and returns (exit code, stdout).
fn run_binary_in(dir: &Path, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("xtask binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn run_binary(args: &[&str]) -> (Option<i32>, String) {
    run_binary_in(Path::new(env!("CARGO_MANIFEST_DIR")), args)
}

#[test]
fn binary_exits_nonzero_on_every_bad_analyzer_fixture() {
    // Each parser-rule fixture fails the run and the text report names
    // the parser rule it plants, not only the token rules it overlaps.
    for (name, rule) in [
        ("bad/rng_provenance.rs", "rng-provenance"),
        ("bad/float_order.rs", "float-order"),
        ("bad/impl_purity.rs", "impl-purity"),
        ("bad/clock_boundary.rs", "clock-boundary"),
    ] {
        let path = fixture(name);
        let (code, stdout) = run_binary(&["analyze", path.to_str().expect("utf-8 path")]);
        assert_eq!(
            code,
            Some(1),
            "{name} must fail analysis; stdout:\n{stdout}"
        );
        assert!(
            stdout.contains(&format!("[{rule}]")),
            "{name} must report `{rule}`; stdout:\n{stdout}"
        );
    }
}

#[test]
fn json_report_is_schema_versioned_for_both_tools() {
    // The rules of the former `lint` (token) and `analyze` (parser) tools
    // land in the same versioned document under the one tool name.
    for (name, rule) in [
        ("bad/float_order.rs", "float-order"),
        ("bad/wall_clock.rs", "wall-clock"),
    ] {
        let path = fixture(name);
        let (code, stdout) = run_binary(&["analyze", "--json", path.to_str().expect("utf-8 path")]);
        assert_eq!(code, Some(1), "{stdout}");
        assert!(stdout.contains("\"schema\": 1"), "{stdout}");
        assert!(stdout.contains("\"tool\": \"analyze\""), "{stdout}");
        assert!(
            stdout.contains(&format!("\"rule\": \"{rule}\"")),
            "{stdout}"
        );
        assert!(
            stdout.contains(&format!("\"per_rule\": {{\"{rule}\": 3}}")),
            "{stdout}"
        );
        assert!(stdout.contains("\"ok\": false"), "{stdout}");
    }
}

#[test]
fn workspace_analyzes_clean() {
    // The no-argument run CI makes: from the workspace root, the binary
    // finds the workspace, reports nothing, and exits 0.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists");
    let (code, stdout) = run_binary_in(&root, &["analyze", "--json"]);
    assert_eq!(
        code,
        Some(0),
        "the workspace violates its own determinism contract:\n{stdout}"
    );
    assert!(stdout.contains("\"findings\": []"), "{stdout}");
    assert!(stdout.contains("\"ok\": true"), "{stdout}");
}
