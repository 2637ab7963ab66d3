//! Parser-level rules (contract rule 10): checks that need item/fn
//! structure rather than a flat token stream. `cargo run -p xtask --
//! analyze` runs them in the same pass as the token rules of
//! [`crate::rules`].
//!
//! | rule | what it proves |
//! |------|----------------|
//! | `rng-provenance` | an RNG parameter's stream stays length-deterministic (no draws split by data-dependent `return`s) and never crosses a rayon closure boundary — per-item pure-hash derivation is the only sanctioned parallel form |
//! | `float-order` | no cross-item float reduction (`sum`/`product`/`fold`/`reduce` at chain level) inside a rayon adapter span; integer turbofish reductions are exempt, and the order-preserving `par_chunks_mut + for_each` row-chunk idiom never reduces across items in the first place |
//! | `impl-purity` | `PoolingDesign` / `PopulationModel` / `NoiseModel` impls are pure in `(params, n, stream)`: no wall clock, thread observables, ambient RNGs, environment reads, or (interior-)mutable statics (contract rules 6–8) |
//! | `clock-boundary` | real-time `Clock` impls (the telemetry wall-time plane) exist only in harness crates; library crates keep the deterministic `NullClock` default (contract rule 11) |
//! | `contract-sync` | ARCHITECTURE.md's numbered contract rules, the documented rule bullets, and every README scenario row / repro target still resolve against the live rule registry and the code (a directive naming an unknown rule is an `allow-audit` finding of its own file) |
//!
//! Design notes on false positives the rules deliberately tolerate:
//!
//! * `rng-provenance` exempts `return`s inside `loop`/`while`/`for` bodies
//!   (rejection sampling draws a data-dependent *number* of variates but is
//!   still a pure function of the stream — `npd_numerics::rng` is built on
//!   this), `return`s before the first draw (argument guards), and
//!   `return`s whose own statement draws (the `n - binomial(rng, n, 1-p)`
//!   symmetry recursion).
//! * `float-order` only inspects reductions at the *chain level* of a
//!   parallel adapter: a sequential `fold`/`sum` inside a `for_each`
//!   closure runs per item in a fixed order and is exempt by construction.
//! * Both rules treat absence of parse structure as "nothing to check":
//!   the parser never fails, so malformed code degrades to fewer findings,
//!   and the compile step — which always runs first in CI — owns syntax.

mod clock_boundary;
mod contract_sync;
mod float_order;
mod impl_purity;
mod provenance;

pub use self::contract_sync::contract_sync;

use std::collections::BTreeMap;

use crate::lexer::{self, Token, TokenKind};
use crate::parser::ParsedFile;
use crate::rules::{FileContext, FileKind, Finding, PAR_ADAPTERS, RULE_NAMES};

/// The parser-level rule names, for directive validation and `--json`
/// output. `contract-sync` findings are workspace-level and cannot be
/// suppressed with an allow.
pub const ANALYZE_RULE_NAMES: &[&str] = &[
    "rng-provenance",
    "float-order",
    "impl-purity",
    "clock-boundary",
    "contract-sync",
];

/// Whether the parser-level file rules apply to this crate at all. The
/// vendored compat tree exists to *wrap* nondeterminism, `bench` is the
/// timing harness, and xtask's own sources discuss the rules in prose.
pub fn analyzed_crate(ctx: &FileContext) -> bool {
    !ctx.crate_name.starts_with("compat/") && ctx.crate_name != "xtask" && ctx.crate_name != "bench"
}

/// Cross-file function database: fn name → RNG-typed parameter positions
/// (receiver excluded). Built from every analyzed library file, consulted
/// when a call inside a parallel closure hands a captured identifier to a
/// known RNG position. Same-name definitions in different modules are
/// merged by intersection, so a collision can only ever *suppress* a
/// finding.
#[derive(Debug, Default)]
pub struct FnDb {
    map: BTreeMap<String, Vec<Vec<usize>>>,
}

impl FnDb {
    /// Records every fn in `parsed` that takes at least one RNG parameter.
    pub fn add_file(&mut self, parsed: &ParsedFile) {
        for f in &parsed.fns {
            let positions: Vec<usize> = f
                .params
                .iter()
                .enumerate()
                .filter(|(_, p)| p.is_rng())
                .map(|(i, _)| i)
                .collect();
            if positions.is_empty() {
                continue;
            }
            self.map.entry(f.name.clone()).or_default().push(positions);
        }
    }

    /// Parameter positions that are RNG-typed in *every* recorded
    /// definition of `name`.
    pub(super) fn rng_positions(&self, name: &str) -> Option<Vec<usize>> {
        let defs = self.map.get(name)?;
        let mut it = defs.iter();
        let mut acc: Vec<usize> = it.next()?.clone();
        for d in it {
            acc.retain(|p| d.contains(p));
        }
        if acc.is_empty() {
            None
        } else {
            Some(acc)
        }
    }
}

/// Runs the four file-level parser rules over one parsed file, test-like
/// files included. (`contract-sync` is workspace-level; see
/// [`contract_sync`].)
pub fn check_file(
    ctx: &FileContext,
    lexed: &lexer::Lexed,
    parsed: &ParsedFile,
    db: &FnDb,
) -> Vec<Finding> {
    if !analyzed_crate(ctx) {
        return Vec::new();
    }
    let toks = &lexed.tokens;
    let mut findings = Vec::new();
    provenance::rng_provenance(toks, parsed, db, &mut findings);
    float_order::float_order(toks, &mut findings);
    impl_purity::impl_purity(toks, parsed, &mut findings);
    clock_boundary::clock_boundary(ctx, toks, parsed, &mut findings);
    if ctx.kind == FileKind::Lib {
        let regions = crate::rules::test_regions(toks);
        findings.retain(|f| !crate::rules::in_regions(f.line, &regions));
    }
    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

pub(super) fn ident_at(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i)?.kind {
        TokenKind::Ident(ref s) => Some(s),
        _ => None,
    }
}

pub(super) fn punct_at(toks: &[Token], i: usize, c: char) -> bool {
    matches!(toks.get(i), Some(Token { kind: TokenKind::Punct(p), .. }) if *p == c)
}

/// Whether the ident at `i` opens a rayon parallel region (adapter method
/// or `rayon::{join, scope, spawn}`).
pub(super) fn is_par_entry(toks: &[Token], i: usize) -> bool {
    match ident_at(toks, i) {
        Some(name) => {
            PAR_ADAPTERS.contains(&name)
                || ((name == "join" || name == "scope" || name == "spawn")
                    && ident_at(toks, i.wrapping_sub(3)) == Some("rayon")
                    && punct_at(toks, i.wrapping_sub(2), ':')
                    && punct_at(toks, i.wrapping_sub(1), ':'))
        }
        None => false,
    }
}

/// Statement extent of the parallel expression starting at token `i`.
pub(super) fn par_span_end(toks: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut end = i;
    while end < toks.len() {
        match toks[end].kind {
            TokenKind::Punct('(' | '[' | '{') => depth += 1,
            TokenKind::Punct(')' | ']' | '}') => {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            }
            TokenKind::Punct(';') if depth == 0 => break,
            _ => {}
        }
        end += 1;
    }
    end
}

/// Every rule name the engine implements: token rules, parser rules,
/// and the directive audit.
pub fn live_rules() -> Vec<&'static str> {
    let mut all: Vec<&'static str> = RULE_NAMES.to_vec();
    all.extend_from_slice(ANALYZE_RULE_NAMES);
    all.push("allow-audit");
    all
}
