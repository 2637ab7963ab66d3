//! The determinism-contract rules (docs/ARCHITECTURE.md, contract rule 9).
//!
//! Each rule walks the token stream of one file (already stripped of
//! comments and with literals opaque, see [`crate::lexer`]) and emits
//! [`Finding`]s. Suppression via `// xtask:allow(rule): reason` comments is
//! applied afterwards by the engine, which also polices that every
//! directive names a real rule, carries a written reason, and actually
//! suppresses something.
//!
//! | rule | scope | hazard |
//! |------|-------|--------|
//! | `hash-iteration` | deterministic crates | `std` `HashMap`/`HashSet` iteration order is seeded per process; any use must prove itself membership-only via an allow |
//! | `wall-clock` | all but `bench`, `compat/criterion` | `Instant::now`/`SystemTime` leak real time into replayable state |
//! | `thread-observable` | all but `compat/rayon` | `thread::current`, `available_parallelism`, `"RAYON_NUM_THREADS"` make output depend on the pool shape |
//! | `shared-rng` | deterministic crates | an outer RNG used inside a rayon closure splits its stream by scheduling order |
//! | `unwrap-audit` | library crates | `.unwrap()`/`.expect()` in library code panics instead of degrading |
//!
//! Test code (`tests/`, `benches/`, `examples/`) is checked only for the
//! harness subset (`hash-iteration`, `wall-clock`); `#[cfg(test)]` modules
//! and `#[test]` functions inside library files are exempt from every
//! rule: they never run inside a replayed experiment.

use crate::lexer::{Lexed, Token, TokenKind};

/// The crates whose outputs are covered by the bit-identical-replay
/// contract (ARCHITECTURE.md rules 1–7).
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "core",
    "netsim",
    "decoders",
    "workloads",
    "numerics",
    "sortnet",
    "adaptive",
    "telemetry",
];

/// Library crates audited for `unwrap()`/`expect()`: the deterministic set
/// plus the pure-math crates. The harness crates (`experiments`, `bench`,
/// `xtask`) are exempt — panicking on programmer error is their designed
/// failure mode — as are the vendored `compat` stand-ins.
pub const LIBRARY_CRATES: &[&str] = &[
    "core",
    "netsim",
    "decoders",
    "workloads",
    "numerics",
    "sortnet",
    "adaptive",
    "amp",
    "theory",
    "telemetry",
    "noisy_pooled_data",
];

/// All rule names, for directive validation and `--json` output.
pub const RULE_NAMES: &[&str] = &[
    "hash-iteration",
    "wall-clock",
    "thread-observable",
    "shared-rng",
    "unwrap-audit",
];

/// What kind of source file this is, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Ships in a library or binary (`src/`).
    Lib,
    /// Test, bench or example code — checked for the harness subset only.
    TestLike,
}

/// Per-file lint context: which crate the file belongs to and which rule
/// scopes apply.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Crate name as spelled in `crates/<name>` (compat crates are
    /// `compat/<name>`; the facade package is `noisy_pooled_data`).
    pub crate_name: String,
    /// Library vs test-like code.
    pub kind: FileKind,
}

impl FileContext {
    /// Context for an explicitly-passed path outside the workspace layout:
    /// the strictest one (deterministic library code), so fixture snippets
    /// exercise every rule.
    pub fn strict() -> Self {
        FileContext {
            crate_name: "core".to_string(),
            kind: FileKind::Lib,
        }
    }

    /// Derives the context from a path relative to the workspace root, or
    /// `None` when the file should not be linted at all (vendored lexer
    /// fixtures, generated code under `target/`).
    pub fn classify(rel_path: &str) -> Option<Self> {
        let norm = rel_path.replace('\\', "/");
        let parts: Vec<&str> = norm.split('/').collect();
        if parts.iter().any(|p| *p == "target" || *p == "fixtures") {
            return None;
        }
        let (crate_name, rest) = if parts.first() == Some(&"crates") {
            if parts.get(1) == Some(&"compat") {
                (
                    format!("compat/{}", parts.get(2)?),
                    parts.get(3..).unwrap_or(&[]),
                )
            } else {
                (parts.get(1)?.to_string(), parts.get(2..).unwrap_or(&[]))
            }
        } else {
            // Workspace-root `src/`, `tests/`, `examples/` belong to the
            // facade package.
            ("noisy_pooled_data".to_string(), &parts[..])
        };
        let kind = if rest
            .iter()
            .any(|p| matches!(*p, "tests" | "benches" | "examples"))
        {
            FileKind::TestLike
        } else {
            FileKind::Lib
        };
        Some(FileContext { crate_name, kind })
    }

    fn is_deterministic(&self) -> bool {
        DETERMINISTIC_CRATES.contains(&self.crate_name.as_str())
    }

    fn is_library(&self) -> bool {
        LIBRARY_CRATES.contains(&self.crate_name.as_str())
    }

    fn wall_clock_exempt(&self) -> bool {
        matches!(self.crate_name.as_str(), "bench" | "compat/criterion")
    }

    fn thread_observable_exempt(&self) -> bool {
        self.crate_name == "compat/rayon"
    }
}

/// One rule violation at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (one of [`RULE_NAMES`], or the engine's directive checks).
    pub rule: &'static str,
    /// 1-indexed line.
    pub line: u32,
    /// Human-readable explanation including the sanctioned fix.
    pub message: String,
}

/// Runs every applicable rule over one lexed file: the harness subset
/// for test-like files, the crate's scoped rules otherwise.
pub fn check_file(ctx: &FileContext, lexed: &Lexed) -> Vec<Finding> {
    let toks = &lexed.tokens;
    if ctx.kind == FileKind::TestLike {
        return check_harness(toks);
    }
    let test_regions = test_regions(toks);
    let mut findings = Vec::new();

    if ctx.is_deterministic() {
        hash_iteration(toks, &mut findings);
        shared_rng(toks, &mut findings);
    }
    if !ctx.wall_clock_exempt() && !ctx.crate_name.starts_with("compat/") {
        wall_clock(toks, &mut findings);
    }
    if !ctx.thread_observable_exempt() && !ctx.crate_name.starts_with("compat/") {
        thread_observable(toks, &mut findings);
    }
    if ctx.is_library() {
        unwrap_audit(toks, &mut findings);
    }

    findings.retain(|f| !in_regions(f.line, &test_regions));
    findings
}

pub(crate) fn in_regions(line: u32, regions: &[(u32, u32)]) -> bool {
    regions.iter().any(|&(a, b)| a <= line && line <= b)
}

fn ident_at(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i)?.kind {
        TokenKind::Ident(ref s) => Some(s),
        _ => None,
    }
}

fn punct_at(toks: &[Token], i: usize, c: char) -> bool {
    matches!(toks.get(i), Some(Token { kind: TokenKind::Punct(p), .. }) if *p == c)
}

/// Line spans of `#[cfg(test)]`-gated items, `#[test]`/`#[bench]` functions
/// and everything else attribute-marked as test-only. An attribute counts
/// as test-gating when its tokens contain the ident `test` but not `not`
/// (`#[cfg(not(test))]` gates *production* code).
pub(crate) fn test_regions(toks: &[Token]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !(punct_at(toks, i, '#') && punct_at(toks, i + 1, '[')) {
            i += 1;
            continue;
        }
        let attr_start_line = toks[i].line;
        // Collect the attribute's tokens up to the matching `]`.
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut has_test = false;
        let mut has_not = false;
        while j < toks.len() {
            match &toks[j].kind {
                TokenKind::Punct('[') => depth += 1,
                TokenKind::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                TokenKind::Ident(s) => {
                    has_test |= s == "test" || s == "bench";
                    has_not |= s == "not";
                }
                _ => {}
            }
            j += 1;
        }
        if !has_test || has_not {
            i = j;
            continue;
        }
        // Skip any further attributes, then find the item's body: the first
        // `{` before a `;` ends the search (a `;` means `mod tests;` or a
        // declaration with no inline body — nothing to span).
        while punct_at(toks, j, '#') && punct_at(toks, j + 1, '[') {
            let mut d = 0usize;
            while j < toks.len() {
                match toks[j].kind {
                    TokenKind::Punct('[') => d += 1,
                    TokenKind::Punct(']') => {
                        d -= 1;
                        if d == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        let mut body_open = None;
        let mut k = j;
        while k < toks.len() {
            match toks[k].kind {
                TokenKind::Punct('{') => {
                    body_open = Some(k);
                    break;
                }
                TokenKind::Punct(';') => break,
                _ => k += 1,
            }
        }
        if let Some(open) = body_open {
            let mut d = 0usize;
            let mut end = open;
            while end < toks.len() {
                match toks[end].kind {
                    TokenKind::Punct('{') => d += 1,
                    TokenKind::Punct('}') => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                end += 1;
            }
            let end_line = toks.get(end).map_or(u32::MAX, |t| t.line);
            regions.push((attr_start_line, end_line));
            i = end + 1;
        } else {
            i = k + 1;
        }
    }
    regions
}

/// `hash-iteration`: any `HashMap`/`HashSet` mention in a deterministic
/// crate must be justified. Iteration order of the `std` hash containers is
/// seeded per process, so even a single stray `for (k, v) in &map` breaks
/// bit-identical replay; membership-only use is fine but must say so.
fn hash_iteration(toks: &[Token], out: &mut Vec<Finding>) {
    for t in toks {
        if let TokenKind::Ident(name) = &t.kind {
            if name == "HashMap" || name == "HashSet" {
                out.push(Finding {
                    rule: "hash-iteration",
                    line: t.line,
                    message: format!(
                        "`{name}` in a deterministic crate: its iteration order is \
                         seeded per process and would break bit-identical replay. \
                         Use a sorted `Vec`/index array/`BTreeMap`, or justify \
                         membership-only use with \
                         `// xtask:allow(hash-iteration): <why no iteration>`"
                    ),
                });
            }
        }
    }
}

/// `wall-clock`: `Instant::now` / `SystemTime` outside `crates/bench` and
/// the vendored criterion leak real time into code that must replay.
fn wall_clock(toks: &[Token], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        if ident_at(toks, i) == Some("SystemTime") {
            out.push(Finding {
                rule: "wall-clock",
                line: toks[i].line,
                message: "`SystemTime` is banned outside crates/bench and \
                          crates/compat/criterion: wall-clock reads make runs \
                          unreproducible. Thread a logical round/epoch counter \
                          instead"
                    .to_string(),
            });
        }
        if ident_at(toks, i) == Some("Instant")
            && punct_at(toks, i + 1, ':')
            && punct_at(toks, i + 2, ':')
            && ident_at(toks, i + 3) == Some("now")
        {
            out.push(Finding {
                rule: "wall-clock",
                line: toks[i].line,
                message: "`Instant::now()` is banned outside crates/bench and \
                          crates/compat/criterion: timing reads must not steer \
                          replayable state. If this only feeds human-facing \
                          output, say so with `// xtask:allow(wall-clock): <why>`"
                    .to_string(),
            });
        }
    }
}

/// `thread-observable`: `thread::current`, `available_parallelism` and
/// `"RAYON_NUM_THREADS"` reads outside the vendored rayon make results a
/// function of the pool shape, which the contract forbids.
fn thread_observable(toks: &[Token], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        match &toks[i].kind {
            TokenKind::Ident(s) if s == "available_parallelism" => out.push(Finding {
                rule: "thread-observable",
                line: toks[i].line,
                message: "`available_parallelism` is banned outside \
                          crates/compat/rayon: results must be independent of \
                          the machine's core count. Ask the rayon facade for a \
                          *logical* worker count if one is genuinely needed"
                    .to_string(),
            }),
            TokenKind::Ident(s)
                if s == "thread"
                    && punct_at(toks, i + 1, ':')
                    && punct_at(toks, i + 2, ':')
                    && ident_at(toks, i + 3) == Some("current") =>
            {
                out.push(Finding {
                    rule: "thread-observable",
                    line: toks[i].line,
                    message: "`thread::current` is banned outside \
                              crates/compat/rayon: thread identity must never \
                              reach replayable state"
                        .to_string(),
                });
            }
            TokenKind::Str(s) if s.contains("RAYON_NUM_THREADS") => out.push(Finding {
                rule: "thread-observable",
                line: toks[i].line,
                message: "reading `RAYON_NUM_THREADS` outside crates/compat/rayon \
                          duplicates the pool-size policy; go through the rayon \
                          facade so there is a single observable knob"
                    .to_string(),
            }),
            _ => {}
        }
    }
}

/// `unwrap-audit`: `.unwrap()` / `.expect(` in library code panics instead
/// of degrading; each site must be converted or carry a justification.
fn unwrap_audit(toks: &[Token], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        let Some(name) = ident_at(toks, i) else {
            continue;
        };
        if (name == "unwrap" || name == "expect")
            && punct_at(toks, i.wrapping_sub(1), '.')
            && punct_at(toks, i + 1, '(')
        {
            out.push(Finding {
                rule: "unwrap-audit",
                line: toks[i].line,
                message: format!(
                    "`.{name}()` in library code: return/propagate an error, use \
                     a non-panicking fallback, or justify the invariant with \
                     `// xtask:allow(unwrap-audit): <why infallible>`"
                ),
            });
        }
    }
}

/// The harness subset: ordering hazards that matter even in
/// test/bench/example code. The determinism-pinning tests are themselves
/// part of the replay contract — a pinned fingerprint computed by iterating
/// a `HashMap`, or an assertion ordered by wall-clock, flakes exactly the
/// way the contract forbids. Harness code keeps its exemption from the
/// library-hygiene rules (`unwrap-audit`, `shared-rng` heuristics).
fn check_harness(toks: &[Token]) -> Vec<Finding> {
    let mut findings = Vec::new();
    hash_iteration(toks, &mut findings);
    wall_clock(toks, &mut findings);
    findings
}

/// Rayon adapter / entry-point names that start a parallel region.
pub(crate) const PAR_ADAPTERS: &[&str] = &[
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_chunks",
    "par_chunks_mut",
    "par_windows",
    "par_bridge",
    "par_extend",
    "par_sort",
    "par_sort_by",
    "par_sort_by_key",
    "par_sort_unstable",
];

/// RNG methods whose receiver we treat as "an RNG being consumed".
pub(crate) const RNG_METHODS: &[&str] = &[
    "gen",
    "gen_range",
    "gen_bool",
    "gen_ratio",
    "sample",
    "next_u32",
    "next_u64",
    "fill",
    "fill_bytes",
];

/// `shared-rng`: inside a rayon parallel closure, using an RNG that was
/// *captured* from the enclosing scope (rather than constructed inside the
/// closure) splits one stream across a scheduling-dependent interleaving.
/// The sanctioned pattern is the per-identity hash of `netsim::faults`:
/// derive a fresh `SmallRng` from a pure hash of the item's identity,
/// inside the closure.
///
/// Heuristic, by design: an identifier counts as RNG-like when its
/// lowercased name contains `rng`; it counts as captured when neither the
/// closure's parameters nor a `let`/`for` binding inside the closure body
/// introduce it. The fixture suite pins both directions.
fn shared_rng(toks: &[Token], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        let is_adapter = match ident_at(toks, i) {
            Some(name) => {
                PAR_ADAPTERS.contains(&name)
                    || ((name == "join" || name == "scope" || name == "spawn")
                        && ident_at(toks, i.wrapping_sub(3)) == Some("rayon")
                        && punct_at(toks, i.wrapping_sub(2), ':')
                        && punct_at(toks, i.wrapping_sub(1), ':'))
            }
            None => false,
        };
        if !is_adapter {
            continue;
        }
        // The parallel expression: from the adapter to the statement end at
        // the adapter's nesting level (`;`, or a net-negative closer).
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
        scan_closures_for_captured_rng(&toks[i..end], out);
    }
}

/// Finds closures in a parallel-expression token span and flags RNG-like
/// identifiers they use but do not bind.
fn scan_closures_for_captured_rng(span: &[Token], out: &mut Vec<Finding>) {
    let mut i = 0usize;
    while i < span.len() {
        let opens_closure = punct_at(span, i, '|')
            && (i == 0
                || matches!(&span[i - 1].kind, TokenKind::Punct('(' | ',' | '{' | '='))
                || ident_at(span, i - 1) == Some("move"));
        if !opens_closure {
            i += 1;
            continue;
        }
        // Parameters: up to the closing `|` (or an immediately-adjacent `|`
        // for `||`).
        let mut j = i + 1;
        let mut params: Vec<String> = Vec::new();
        while j < span.len() && !punct_at(span, j, '|') {
            if let Some(name) = ident_at(span, j) {
                params.push(name.to_string());
            }
            j += 1;
        }
        // Body: a braced block, or the expression up to `,`/`)` at depth 0.
        let body_start = j + 1;
        let mut k = body_start;
        let mut depth = 0i32;
        let braced = punct_at(span, body_start, '{');
        while k < span.len() {
            match span[k].kind {
                TokenKind::Punct('(' | '[' | '{') => depth += 1,
                TokenKind::Punct(')' | ']' | '}') => {
                    depth -= 1;
                    if depth < 0 || (braced && depth == 0) {
                        break;
                    }
                }
                TokenKind::Punct(',') if depth == 0 && !braced => break,
                _ => {}
            }
            k += 1;
        }
        let body = &span[body_start..k.min(span.len())];
        check_closure_body(body, &params, out);
        i = k + 1;
    }
}

fn check_closure_body(body: &[Token], params: &[String], out: &mut Vec<Finding>) {
    // Locally-bound names: closure params plus `let <pat> =` and
    // `for <pat> in` bindings anywhere in the body (flat scan — an
    // over-approximation that only ever *suppresses* findings).
    let mut bound: Vec<String> = params.to_vec();
    let mut i = 0usize;
    while i < body.len() {
        match ident_at(body, i) {
            Some("let") => {
                let mut j = i + 1;
                while j < body.len() && !punct_at(body, j, '=') && !punct_at(body, j, ';') {
                    if let Some(name) = ident_at(body, j) {
                        bound.push(name.to_string());
                    }
                    j += 1;
                }
                i = j;
            }
            Some("for") => {
                let mut j = i + 1;
                while j < body.len() && ident_at(body, j) != Some("in") {
                    if let Some(name) = ident_at(body, j) {
                        bound.push(name.to_string());
                    }
                    j += 1;
                }
                i = j;
            }
            _ => i += 1,
        }
    }
    for i in 0..body.len() {
        let Some(name) = ident_at(body, i) else {
            continue;
        };
        if !name.to_lowercase().contains("rng") || bound.iter().any(|b| b == name) {
            continue;
        }
        let consumed_as_rng =
            // `rng.gen_range(…)` and friends.
            (punct_at(body, i + 1, '.')
                && ident_at(body, i + 2).is_some_and(|m| RNG_METHODS.contains(&m)))
            // `&mut rng` handed onward.
            || (punct_at(body, i.wrapping_sub(2), '&')
                && ident_at(body, i.wrapping_sub(1)) == Some("mut"));
        if consumed_as_rng {
            out.push(Finding {
                rule: "shared-rng",
                line: body[i].line,
                message: format!(
                    "`{name}` is captured by a rayon parallel closure: one RNG \
                     stream consumed from multiple tasks makes the draw order \
                     scheduling-dependent. Derive a per-item rng inside the \
                     closure from a pure identity hash \
                     (see netsim::faults), or justify with \
                     `// xtask:allow(shared-rng): <why single-threaded>`"
                ),
            });
        }
    }
}
