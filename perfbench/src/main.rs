//! Benchmark binary; `perfbench/run.py` builds and runs it.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --scratch <dir>
//! ```
//!
//! Prints notes, then the result as one JSON object on the last line. An
//! unknown workload or bad argument exits with code 2 and prints no
//! result.

use perfbench::measure::{self, Args};
use perfbench::workloads::{Size, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scratch: PathBuf::from(".bench_build/perfbench-scratch"),
        size: Size::Full,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--scratch" => args.scratch = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match measure::run(&args) {
        Ok(outcome) => {
            println!(
                "# workload {} seed {} trace {} jobs {}",
                args.workload,
                args.seed,
                u8::from(args.trace),
                measure::jobs()
            );
            for note in &outcome.notes {
                println!("# {note}");
            }
            println!("{}", outcome.to_json_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
