//! End-to-end and per-layer benchmark of the pooled-data pipeline and the
//! distributed protocol.
//!
//! ```text
//! perfbench --workload <paper-n14|gossip-n14|batcher-n14> --seed <n>
//!           --seconds <s> --trace <0|1> [--shape full|tiny] [--spans <path>]
//! ```
//!
//! One process runs one workload as a closed loop: a single client runs
//! trials back to back, cycling through a fixed list of instance seeds
//! derived from `--seed`, until `--seconds` have passed and every seed has
//! run (twice when tracing). The first pass over the list checks every
//! trial against the library's one-call entry points; later passes check
//! that each repeated seed reproduces its first output bit for bit. The
//! checks run outside the timed region, and a failed check, a panic or a
//! protocol that does not quiesce counts as a failed trial without ending
//! the run.
//!
//! Every metric is printed as `<name> <value> <unit>`; the last line is a
//! JSON object carrying the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). A traced run alternates traced and
//! untraced trials so that `trace.overhead` compares the two on the same
//! seeds, and writes its spans as a Chrome trace to `--spans` when given.

mod metrics;
mod trace;
mod workload;

use metrics::{Report, Summary, TrialRecord};
use npd_experiments::mix_seed;
use npd_experiments::trace::WallClock;
use npd_telemetry::Clock;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;
use workload::{Bench, Counts, Shape, TrialOutput, Workload};

/// Fresh set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Instance seed of the warm-up trial, fixed so that set-up time does not
/// depend on `--seed`.
const WARMUP_SEED: u64 = 0x5eed_0f3a_2b1c_0d00;

const USAGE: &str = "usage: perfbench --workload <paper-n14|gossip-n14|batcher-n14> \
--seed <n> --seconds <s> --trace <0|1> [--shape full|tiny] [--spans <path>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    shape: Shape,
    spans: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut shape = Shape::Full;
    let mut spans = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value after {flag}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            "--shape" => shape = Shape::parse(value).ok_or_else(|| format!("bad shape {value}"))?,
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        shape,
        spans,
    })
}

fn main() -> ExitCode {
    let clock = WallClock::new();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let summary = match run(&args, &clock) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = Report::new(&summary);
    for line in report.lines() {
        println!("{line}");
    }
    if let (true, Some(path)) = (args.trace, &args.spans) {
        if let Err(e) = trace::write_spans(path, &summary.spans) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", report.json(args.trace));
    ExitCode::SUCCESS
}

/// Sets up, warms up and runs the closed loop.
fn run(args: &Args, clock: &WallClock) -> Result<Summary, String> {
    let workload = args.workload;
    let seeds: Vec<u64> = (0..workload.seed_count(args.shape))
        .map(|i| mix_seed(args.seed, i as u64))
        .collect();
    let mut tracer = Tracer::new(clock);

    // Set-up: build the workload and run one warm-up trial, several times.
    let mut set_up = || -> Result<(Bench, f64), String> {
        let start = clock.now_micros();
        let mut bench = Bench::new(workload, args.shape).map_err(|e| e.to_string())?;
        let warm = panic::catch_unwind(AssertUnwindSafe(|| bench.trial(WARMUP_SEED, &mut tracer)));
        let end = clock.now_micros();
        if !matches!(warm, Ok(Ok(_))) {
            eprintln!("perfbench: warm-up trial failed");
        }
        Ok((bench, seconds(start, end)))
    };
    let (mut bench, first) = set_up()?;
    let mut setup_s = vec![first];
    for _ in 1..SETUP_REPS {
        let (b, s) = set_up()?;
        bench = b;
        setup_s.push(s);
    }

    let passes = if args.trace { 2 } else { 1 };
    let deadline = clock.now_micros() + (args.seconds * 1e6) as u64;
    let mut digests: Vec<Option<u64>> = vec![None; seeds.len()];
    let mut first_pass = vec![None; seeds.len()];
    let mut trials = Vec::new();
    let mut i = 0usize;
    while i < passes * seeds.len() || clock.now_micros() < deadline {
        let (pass, idx) = (i / seeds.len(), i % seeds.len());
        let seed = seeds[idx];
        // Alternate traced and untraced trials, swapping parity each pass
        // so every seed is traced once and untraced once per two passes.
        let traced = args.trace && (idx + pass) % 2 == 1;
        tracer.set_enabled(i as u32, traced);
        let start = clock.now_micros();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| bench.trial(seed, &mut tracer)));
        let end = clock.now_micros();
        let verdict = match outcome {
            Err(_) => Err("trial panicked".to_string()),
            Ok(Err(e)) => Err(format!("trial failed: {e}")),
            Ok(Ok(out)) => verify(&out, seed, &mut digests[idx], &mut first_pass[idx]),
        };
        if let Err(why) = &verdict {
            eprintln!("perfbench: trial {i} (seed {seed}): {why}");
        }
        trials.push(TrialRecord {
            index: i as u32,
            seed_index: idx,
            traced,
            seconds: seconds(start, end),
            ok: verdict.is_ok(),
        });
        i += 1;
    }

    Ok(Summary {
        workload,
        shape: args.shape,
        seed: args.seed,
        threads: rayon::current_num_threads(),
        setup_s,
        trials,
        first_pass,
        spans: tracer.spans().to_vec(),
    })
}

/// Checks a trial's output: fully on its seed's first pass, then against
/// that pass's digest, so every repeat must reproduce it bit for bit.
fn verify(
    out: &TrialOutput,
    seed: u64,
    digest: &mut Option<u64>,
    counts: &mut Option<Counts>,
) -> Result<(), String> {
    let d = workload::digest(out);
    match *digest {
        Some(first) if first == d => Ok(()),
        Some(_) => Err("repeated seed produced a different output".to_string()),
        None => {
            panic::catch_unwind(AssertUnwindSafe(|| workload::check(out, seed)))
                .unwrap_or_else(|_| Err("output check panicked".to_string()))?;
            *digest = Some(d);
            *counts = Some(out.counts);
            Ok(())
        }
    }
}

fn seconds(start_us: u64, end_us: u64) -> f64 {
    end_us.saturating_sub(start_us) as f64 * 1e-6
}
