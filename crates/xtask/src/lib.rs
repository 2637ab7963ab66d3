//! `xtask` — workspace automation for the noisy-pooled-data repo.
//!
//! One subcommand statically enforces the determinism contract of
//! `docs/ARCHITECTURE.md`: the dynamic replay suite
//! (`tests/determinism.rs`) samples a handful of pinned (scenario, seed)
//! points, but a hazard like unordered `HashMap` iteration can pass every
//! pinned seed while corrupting replay elsewhere. This crate turns the
//! contract into a machine-checked property:
//!
//! ```text
//! cargo run -p xtask -- analyze           # whole workspace (contract rules 9 and 10)
//! cargo run -p xtask -- analyze --json    # machine-readable report (schema 1)
//! cargo run -p xtask -- analyze <paths>   # check specific files (strict context)
//! ```
//!
//! Each file is lexed once by the hand-rolled tokenizer of [`lexer`],
//! which keeps comments/strings from producing false positives, and
//! parsed once into item/fn structure by [`parser`]. The token rules of
//! [`rules`] and the cross-statement rules of [`analysis`] (RNG-stream
//! provenance, parallel float-reduction order, trait-impl purity, the
//! clock boundary, and the `contract-sync` drift check between
//! ARCHITECTURE.md, the README and the code) run on that one walk.
//! Test, bench and example files always get the harness subset. [`engine`]
//! owns the walking, suppression (`// xtask:allow(rule): reason`) and
//! report rendering.

#![warn(missing_docs)]

pub mod analysis;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod rules;
