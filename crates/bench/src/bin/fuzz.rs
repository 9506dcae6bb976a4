//! Deterministic differential-fuzzing driver.
//!
//! Thin CLI over [`gp_verify::run_fuzz`]: every iteration generates a
//! seed-determined random case (graph, machine, update stream), runs the
//! golden / accelerator / shard-parallel / incremental / turbo / chaos
//! differential oracle plus the metamorphic and micro-architectural
//! invariant checks, and on failure shrinks to a minimal repro printed as
//! a ready-to-paste regression test. Same seed, same output — byte for
//! byte.
//!
//! `--inject-fault F` deliberately injects one of the `gp-chaos` fault
//! kinds to self-test the harness's detection paths. (The full
//! fault-injection campaign is the `chaos` binary.)

use gp_verify::{Fault, FuzzConfig};

fn usage() -> String {
    format!(
        "\
Usage: fuzz [flags]
  --seed S              master seed (default 7)
  --iters N             iterations to run (default 50)
  --shrink              shrink the first failing case (default)
  --no-shrink           report the failing case unshrunk
  --inject-fault F      deliberately inject a defect to self-test the
                        harness; F is one of: {kinds}
  --help                print this reference and exit

Exit status: 0 when every iteration passes, 1 on an oracle failure, 2 on
a bad invocation.",
        kinds = Fault::labels().join(", ")
    )
}

fn parse(args: impl Iterator<Item = String>) -> Result<Option<FuzzConfig>, String> {
    let mut cfg = FuzzConfig::default();
    let mut args = gp_bench::cli::Flags::new(args);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--seed" => cfg.seed = args.parsed(&flag, "an integer")?,
            "--iters" => cfg.iters = args.parsed(&flag, "an integer")?,
            "--shrink" => cfg.shrink = true,
            "--no-shrink" => cfg.shrink = false,
            "--inject-fault" => {
                let v = args.value(&flag)?;
                cfg.fault = Some(Fault::parse(&v).ok_or_else(|| {
                    format!(
                        "unknown fault {v:?}; valid kinds: {}",
                        Fault::labels().join(", ")
                    )
                })?);
            }
            other => return Err(gp_bench::cli::Flags::unknown(other)),
        }
    }
    if args.help_requested() {
        return Ok(None);
    }
    Ok(Some(cfg))
}

fn main() {
    let cfg = gp_bench::cli::finish(parse(std::env::args().skip(1)), &usage());
    let mut out = std::io::stdout().lock();
    let report = match gp_verify::run_fuzz(&cfg, &mut out) {
        Ok(report) => report,
        Err(e) => {
            // stdout vanished mid-run (closed pipe, full disk): report on
            // stderr instead of panicking with a raw io::Error.
            eprintln!("error: could not write the fuzz log to stdout: {e}");
            std::process::exit(1);
        }
    };
    if !report.passed() {
        std::process::exit(1);
    }
}
