//! CLI entry point: `cargo run -p xtask -- analyze [--json] [paths…]`.

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::engine;

const USAGE: &str = "usage: cargo run -p xtask -- analyze [--json] [paths…]
  analyze          token and parser rules + contract cross-check over the
                   workspace (contract rules 9 and 10); test, bench and
                   example files get the harness subset
  analyze <paths>  check specific files/dirs under the strict (deterministic
                   library) context — used by the fixture suites
  --json           machine-readable report on stdout (schema-versioned)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => run(&args[1..]),
        Some(other) => {
            eprintln!("xtask: unknown subcommand `{other}`\n{USAGE}");
            ExitCode::from(2)
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut paths: Vec<PathBuf> = Vec::new();
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("xtask analyze: unknown flag `{flag}`\n{USAGE}");
                return ExitCode::from(2);
            }
            path => paths.push(PathBuf::from(path)),
        }
    }

    let outcome = if paths.is_empty() {
        let cwd = match std::env::current_dir() {
            Ok(d) => d,
            Err(e) => {
                eprintln!("xtask analyze: cannot read current dir: {e}");
                return ExitCode::from(2);
            }
        };
        let Some(root) = engine::find_workspace_root(&cwd) else {
            eprintln!("xtask analyze: no workspace root ([workspace] Cargo.toml) above {cwd:?}");
            return ExitCode::from(2);
        };
        engine::check_workspace(&root)
    } else {
        engine::check_paths(&paths)
    };

    match outcome {
        Ok(outcome) => {
            if json {
                print!("{}", engine::render_json(&outcome));
            } else {
                print!("{}", engine::render_text(&outcome));
            }
            if outcome.reports.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xtask analyze: {e}");
            ExitCode::from(2)
        }
    }
}
