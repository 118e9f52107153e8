//! `bench_cycle` command line. The only inputs are these flags — no
//! environment variable changes what runs, so two checkouts can differ
//! only by their code.
//!
//! ```text
//! bench_cycle [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out PATH]
//! bench_cycle --compare A B
//! ```
//!
//! Without `--workload` all four workloads run in turn. Each run prints its
//! report and ends with the result line (`correct`, `attempted`, `failed`,
//! `metrics`): the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. `--out` appends one record per run to PATH;
//! `--compare` takes two such files.

use bench_cycle::{compare, run_workload, workloads};
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "usage: bench_cycle [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--out PATH] | --compare A B";

/// Seed and length of a run when the flags do not say.
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: u64 = 15;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: None,
        compare: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--out" => args.out = Some(value()?),
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn run_compare(a: &str, b: &str) -> Result<bool, String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let bounds = compare::bounds(&read("BENCHMARK.json")?)?;
    let result = compare::compare(
        &compare::records(&read(a)?)?,
        &compare::records(&read(b)?)?,
        &bounds,
    );
    print!("{}", result.table());
    Ok(result.ok())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match run_compare(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name],
        None => workloads::NAMES.to_vec(),
    };
    let mut all_correct = true;
    for name in names {
        let report = match run_workload(name, args.seed, args.seconds, args.traced) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        };
        all_correct &= report.correct();
        if let Some(path) = &args.out {
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| writeln!(f, "{}", report.record_line()));
            if let Err(e) = appended {
                eprintln!("{path}: {e}");
                return ExitCode::from(2);
            }
        }
        print!("{}", report.table());
        println!("{}", report.contract_line());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
