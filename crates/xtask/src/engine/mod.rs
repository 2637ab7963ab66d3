//! Walks source files, runs every rule, applies `xtask:allow`
//! suppressions, and renders reports (human-readable and `--json`).
//!
//! Each file is lexed and parsed once; the token rules of
//! [`crate::rules`] (contract rule 9) and the parser rules of
//! [`crate::analysis`] (contract rule 10) run on the same token stream,
//! and one `apply_allows` pass audits every directive against the
//! combined registry. A workspace walk finishes with the workspace-level
//! `contract-sync` drift check.

mod render;

pub use render::{render_json, render_text};

use std::fs;
use std::path::{Path, PathBuf};

use crate::analysis::{self, FnDb};
use crate::lexer::{self, Lexed};
use crate::parser::{self, ParsedFile};
use crate::rules::{self, FileContext, FileKind, Finding};

/// A finding bound to the file it was found in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Path as reported (relative to the workspace root when walking the
    /// workspace, verbatim for explicit paths).
    pub file: String,
    /// The underlying finding.
    pub finding: Finding,
}

/// Outcome of checking a set of files.
#[derive(Debug, Default)]
pub struct LintOutcome {
    /// Surviving (unsuppressed) findings, sorted by (file, line).
    pub reports: Vec<Report>,
    /// Number of files scanned.
    pub files: usize,
    /// Number of allow directives that suppressed at least one finding.
    pub allows_used: usize,
}

/// Applies `xtask:allow` suppression to `raw` findings and audits every
/// directive in the file.
///
/// A finding of rule `r` at line `l` is silenced by an
/// `xtask:allow(r): reason` directive on line `l` or `l - 1`. A directive
/// that names a rule outside the live registry, omits the reason, or
/// suppresses nothing is itself a finding (`allow-audit`).
fn apply_allows(lexed: &Lexed, raw: Vec<Finding>) -> (Vec<Finding>, usize) {
    let mut used = vec![false; lexed.allows.len()];
    let mut findings: Vec<Finding> = raw
        .into_iter()
        .filter(|f| {
            let mut suppressed = false;
            for (i, a) in lexed.allows.iter().enumerate() {
                if a.rule == f.rule
                    && !a.reason.is_empty()
                    && (a.line == f.line || a.line + 1 == f.line)
                {
                    used[i] = true;
                    suppressed = true;
                }
            }
            !suppressed
        })
        .collect();

    let all_rules = analysis::live_rules();
    for (i, a) in lexed.allows.iter().enumerate() {
        let message = if !all_rules.contains(&a.rule.as_str()) {
            format!(
                "`xtask:allow({})` names an unknown rule (known: {})",
                a.rule,
                all_rules.join(", ")
            )
        } else if a.reason.is_empty() {
            format!(
                "`xtask:allow({})` carries no justification; write \
                 `// xtask:allow({}): <reason>`",
                a.rule, a.rule
            )
        } else if !used[i] {
            format!(
                "`xtask:allow({})` suppresses nothing on this or the next \
                 line; remove the stale escape",
                a.rule
            )
        } else {
            continue;
        };
        findings.push(Finding {
            rule: "allow-audit",
            line: a.line,
            message,
        });
    }
    findings.sort_by_key(|f| (f.line, f.rule));
    let used_count = used.iter().filter(|&&u| u).count();
    (findings, used_count)
}

/// Runs the token and parser rules that apply under `ctx` over one file
/// and applies its escapes. xtask's own sources are skipped: they
/// *mention* the directive syntax constantly, and policing them would
/// flag every explanatory comment.
fn check_parsed(
    ctx: &FileContext,
    lexed: &Lexed,
    parsed: &ParsedFile,
    db: &FnDb,
) -> (Vec<Finding>, usize) {
    if ctx.crate_name == "xtask" {
        return (Vec::new(), 0);
    }
    let mut raw = rules::check_file(ctx, lexed);
    raw.extend(analysis::check_file(ctx, lexed, parsed, db));
    apply_allows(lexed, raw)
}

/// Checks one file's contents under `ctx`, with a fn database built from
/// the file itself ([`check_workspace`] sees cross-file fn signatures).
/// Returns the surviving findings and the number of escapes in use.
pub fn check_source(ctx: &FileContext, src: &str) -> (Vec<Finding>, usize) {
    let lexed = lexer::lex(src);
    let parsed = parser::parse(&lexed);
    let mut db = FnDb::default();
    db.add_file(&parsed);
    check_parsed(ctx, &lexed, &parsed, &db)
}

/// Checks `(reported name, context, source)` triples: lexes and parses
/// each once, builds the cross-file fn database from the analyzed
/// library files in a first pass, and runs every rule in a second.
fn check_files(files: Vec<(String, FileContext, String)>) -> LintOutcome {
    let entries: Vec<(String, FileContext, Lexed, ParsedFile)> = files
        .into_iter()
        .map(|(file, ctx, src)| {
            let lexed = lexer::lex(&src);
            let parsed = parser::parse(&lexed);
            (file, ctx, lexed, parsed)
        })
        .collect();
    let mut db = FnDb::default();
    for (_, ctx, _, parsed) in &entries {
        if analysis::analyzed_crate(ctx) && ctx.kind == FileKind::Lib {
            db.add_file(parsed);
        }
    }
    let mut outcome = LintOutcome {
        files: entries.len(),
        ..LintOutcome::default()
    };
    for (file, ctx, lexed, parsed) in &entries {
        let (findings, used) = check_parsed(ctx, lexed, parsed, &db);
        outcome.allows_used += used;
        outcome
            .reports
            .extend(findings.into_iter().map(|finding| Report {
                file: file.clone(),
                finding,
            }));
    }
    outcome
}

/// Checks every workspace source file under `root`, each under the
/// context its path implies (test, bench and example files get the
/// harness subset), and finishes with the workspace-level
/// `contract-sync` drift check (docs ↔ rule registry ↔ README targets).
pub fn check_workspace(root: &Path) -> std::io::Result<LintOutcome> {
    let mut rels = Vec::new();
    collect_rs_files(root, root, &mut rels)?;
    rels.sort();
    let mut files = Vec::new();
    for rel in rels {
        if let Some(ctx) = FileContext::classify(&rel) {
            let src = fs::read_to_string(root.join(&rel))?;
            files.push((rel, ctx, src));
        }
    }
    let mut outcome = check_files(files);
    outcome.reports.extend(analysis::contract_sync(root));
    outcome.reports.sort_by(|a, b| {
        (&a.file, a.finding.line, a.finding.rule).cmp(&(&b.file, b.finding.line, b.finding.rule))
    });
    Ok(outcome)
}

/// Checks explicitly-listed paths (files or directories) under the
/// strict context (deterministic library code), so fixture snippets
/// exercise every rule. The fn database spans all the given files, so
/// cross-file provenance works within a fixture set.
pub fn check_paths(paths: &[PathBuf]) -> std::io::Result<LintOutcome> {
    let mut files = Vec::new();
    for p in paths {
        let listed = if p.is_dir() {
            let mut nested = Vec::new();
            collect_rs_files(p, p, &mut nested)?;
            nested.sort();
            nested.into_iter().map(|rel| p.join(rel)).collect()
        } else {
            vec![p.clone()]
        };
        for path in listed {
            let src = fs::read_to_string(&path)?;
            files.push((path.display().to_string(), FileContext::strict(), src));
        }
    }
    Ok(check_files(files))
}

/// Recursively lists `.rs` files below `dir` as root-relative paths,
/// skipping `target/`, hidden directories, and lint fixtures.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

/// Locates the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
